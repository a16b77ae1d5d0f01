//! LRU stack-distance (reuse-distance) analysis, after Mattson et al.
//! (IBM Systems Journal, 1970).
//!
//! One pass over a reference string yields, for every request, the number
//! of bytes of *more recently used* clips (including the referenced clip
//! itself). An LRU cache of capacity `C` hits exactly the requests whose
//! byte distance is ≤ `C` — so a single pass predicts the whole
//! hit-rate-versus-cache-size curve without running a simulation per
//! point.
//!
//! The prediction is exact for equi-sized clips (the classic inclusion
//! property of LRU) and a close approximation for variable-sized clips,
//! where whole-clip admission can violate inclusion; the `mattson`
//! experiment quantifies the residual gap against the simulator, and the
//! cross-validation tests in `tests/` pin the equi-sized exactness.
//!
//! The implementation keeps a move-to-front list — O(d) per request where
//! `d` is the stack depth of the reference. For the repertoire sizes the
//! paper studies (hundreds of clips) this is faster than a tree-indexed
//! stack would be.

use crate::request::Request;
use clipcache_media::{ByteSize, ClipId, Repository};

/// The byte stack distance of one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StackDistance {
    /// First reference to the clip: misses in every finite cache.
    Cold,
    /// Bytes that must fit in cache for this request to hit under LRU
    /// (sizes of all more-recently-used clips, plus the clip itself).
    Bytes(u64),
}

/// One-pass LRU stack-distance analyzer over a fixed repository.
///
/// ```
/// use clipcache_media::{paper, ByteSize, ClipId};
/// use clipcache_workload::reuse::StackDistanceAnalyzer;
///
/// let repo = paper::equi_sized_repository_of(3, ByteSize::mb(10));
/// let mut analyzer = StackDistanceAnalyzer::new(&repo);
/// for id in [1u32, 2, 1, 2] {
///     analyzer.record(ClipId::new(id));
/// }
/// // The two re-references need 20 MB of LRU stack to hit.
/// assert_eq!(analyzer.predicted_hit_rate(ByteSize::mb(20)), 0.5);
/// assert_eq!(analyzer.cold_misses(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct StackDistanceAnalyzer<'r> {
    repo: &'r Repository,
    /// Most-recently-used first.
    stack: Vec<ClipId>,
    /// Recorded distances, in request order.
    distances: Vec<StackDistance>,
}

impl<'r> StackDistanceAnalyzer<'r> {
    /// Create an analyzer for `repo`.
    pub fn new(repo: &'r Repository) -> Self {
        StackDistanceAnalyzer {
            repo,
            stack: Vec::with_capacity(repo.len()),
            distances: Vec::new(),
        }
    }

    /// Record one reference and return its stack distance.
    pub fn record(&mut self, clip: ClipId) -> StackDistance {
        let found = self.stack.iter().position(|&c| c == clip);
        let distance = match found {
            None => StackDistance::Cold,
            Some(pos) => {
                // Bytes of clips at depth 0..=pos (the referenced clip is
                // at `pos` and counts toward the bytes that must fit).
                let bytes: u64 = self.stack[..=pos]
                    .iter()
                    .map(|&c| self.repo.size_of(c).as_u64())
                    .sum();
                StackDistance::Bytes(bytes)
            }
        };
        // Move to front.
        if let Some(pos) = found {
            self.stack.remove(pos);
        }
        self.stack.insert(0, clip);
        self.distances.push(distance);
        distance
    }

    /// Record an entire reference string.
    pub fn record_all<'a>(&mut self, requests: impl IntoIterator<Item = &'a Request>) {
        for r in requests {
            self.record(r.clip);
        }
    }

    /// The distances recorded so far, in request order.
    pub fn distances(&self) -> &[StackDistance] {
        &self.distances
    }

    /// Number of cold (first-reference) misses.
    pub fn cold_misses(&self) -> usize {
        self.distances
            .iter()
            .filter(|d| matches!(d, StackDistance::Cold))
            .count()
    }

    /// The predicted LRU hit rate for a cache of `capacity` bytes: the
    /// fraction of requests whose byte distance fits.
    pub fn predicted_hit_rate(&self, capacity: ByteSize) -> f64 {
        if self.distances.is_empty() {
            return 0.0;
        }
        let hits = self
            .distances
            .iter()
            .filter(|d| matches!(d, StackDistance::Bytes(b) if *b <= capacity.as_u64()))
            .count();
        hits as f64 / self.distances.len() as f64
    }

    /// The predicted hit-rate curve over several capacities.
    pub fn predicted_curve(&self, capacities: &[ByteSize]) -> Vec<f64> {
        capacities
            .iter()
            .map(|&c| self.predicted_hit_rate(c))
            .collect()
    }

    /// The smallest cache capacity at which the predicted hit rate
    /// reaches `target` (in `[0, 1]`), or `None` if even a cache holding
    /// every re-referenced byte cannot reach it (cold misses bound the
    /// achievable hit rate).
    pub fn capacity_for_hit_rate(&self, target: f64) -> Option<ByteSize> {
        let mut finite: Vec<u64> = self
            .distances
            .iter()
            .filter_map(|d| match d {
                StackDistance::Bytes(b) => Some(*b),
                StackDistance::Cold => None,
            })
            .collect();
        if self.distances.is_empty() {
            return None;
        }
        finite.sort_unstable();
        let total = self.distances.len() as f64;
        let needed = (target * total).ceil() as usize;
        if needed == 0 {
            return Some(ByteSize::ZERO);
        }
        if needed > finite.len() {
            return None;
        }
        Some(ByteSize::bytes(finite[needed - 1]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clipcache_media::{paper, Bandwidth, MediaType, RepositoryBuilder};

    fn repo_equal(n: usize) -> Repository {
        paper::equi_sized_repository_of(n, ByteSize::mb(10))
    }

    fn cid(i: u32) -> ClipId {
        ClipId::new(i)
    }

    #[test]
    fn cold_then_distance() {
        let repo = repo_equal(4);
        let mut a = StackDistanceAnalyzer::new(&repo);
        assert_eq!(a.record(cid(1)), StackDistance::Cold);
        assert_eq!(a.record(cid(2)), StackDistance::Cold);
        // Re-reference 1: stack is [2, 1] → bytes of {2, 1} = 20 MB.
        assert_eq!(a.record(cid(1)), StackDistance::Bytes(20_000_000));
        // Immediate re-reference: only the clip itself.
        assert_eq!(a.record(cid(1)), StackDistance::Bytes(10_000_000));
        assert_eq!(a.cold_misses(), 2);
    }

    #[test]
    fn variable_sizes_weight_the_stack() {
        let repo = RepositoryBuilder::new()
            .push(MediaType::Video, ByteSize::mb(30), Bandwidth::mbps(4))
            .push(MediaType::Audio, ByteSize::mb(5), Bandwidth::kbps(300))
            .build()
            .unwrap();
        let mut a = StackDistanceAnalyzer::new(&repo);
        a.record(cid(1));
        a.record(cid(2));
        // Stack [2, 1]: distance of 1 = 5 + 30 = 35 MB.
        assert_eq!(a.record(cid(1)), StackDistance::Bytes(35_000_000));
    }

    #[test]
    fn predicted_hit_rate_thresholds() {
        let repo = repo_equal(3);
        let mut a = StackDistanceAnalyzer::new(&repo);
        // 1 2 1 2: distances Cold Cold 20MB 20MB.
        for &i in &[1u32, 2, 1, 2] {
            a.record(cid(i));
        }
        assert_eq!(a.predicted_hit_rate(ByteSize::mb(10)), 0.0);
        assert_eq!(a.predicted_hit_rate(ByteSize::mb(20)), 0.5);
        assert_eq!(
            a.predicted_curve(&[ByteSize::mb(10), ByteSize::mb(20)]),
            vec![0.0, 0.5]
        );
    }

    #[test]
    fn capacity_for_hit_rate_inverts_the_curve() {
        let repo = repo_equal(3);
        let mut a = StackDistanceAnalyzer::new(&repo);
        for &i in &[1u32, 2, 1, 2, 1, 2] {
            a.record(cid(i));
        }
        // 4 of 6 requests have distance 20 MB.
        assert_eq!(a.capacity_for_hit_rate(0.5), Some(ByteSize::mb(20)));
        assert_eq!(a.capacity_for_hit_rate(0.0), Some(ByteSize::ZERO));
        // 2 cold misses bound the hit rate at 4/6.
        assert_eq!(a.capacity_for_hit_rate(0.9), None);
    }

    #[test]
    fn empty_analyzer() {
        let repo = repo_equal(2);
        let a = StackDistanceAnalyzer::new(&repo);
        assert_eq!(a.predicted_hit_rate(ByteSize::gb(1)), 0.0);
        assert_eq!(a.capacity_for_hit_rate(0.5), None);
    }
}
