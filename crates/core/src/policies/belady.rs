//! Belady's MIN: the clairvoyant upper bound.
//!
//! The paper's off-line yardstick, Simple, knows *frequencies*; Belady's
//! MIN knows the *future*: on eviction it discards the resident clip whose
//! next reference is furthest away (or never comes). For equi-sized
//! objects MIN is provably optimal, so it bounds how much headroom any
//! on-line policy leaves on the table. For variable sizes the
//! evict-furthest-first greedy is only a strong heuristic (size-aware
//! optimal eviction is NP-hard), which the `optimality` experiment keeps
//! to the equi-sized repository.
//!
//! The cache is constructed against the exact reference string it will
//! serve; feeding it any other sequence is a usage error and panics, so a
//! mis-wired experiment fails loudly instead of producing a fake bound.
//!
//! A clip's next-reference distance changes as the trace cursor advances,
//! so MIN keeps no victim index and scans (see the taxonomy in
//! [`crate::policies`]).

use crate::cache::{AccessEvent, ClipCache, EvictionSink};
use crate::space::CacheSpace;
use clipcache_media::{ByteSize, ClipId, Repository};
use clipcache_workload::{Request, Timestamp};
use std::collections::VecDeque;
use std::sync::Arc;

/// The clairvoyant MIN policy (offline; needs the full trace up front).
pub struct BeladyCache {
    space: CacheSpace,
    /// For each clip, the queue of request indices (0-based) at which it
    /// is referenced; fronts are consumed as the trace replays.
    occurrences: Vec<VecDeque<u64>>,
    /// Index of the next request expected.
    cursor: u64,
    /// The expected reference string (clip per request), for validation.
    expected: Vec<ClipId>,
}

impl BeladyCache {
    /// Build MIN for exactly the reference string `trace`.
    pub fn new(repo: Arc<Repository>, capacity: ByteSize, trace: &[Request]) -> Self {
        let mut occurrences = vec![VecDeque::new(); repo.len()];
        let mut expected = Vec::with_capacity(trace.len());
        for (i, req) in trace.iter().enumerate() {
            occurrences[req.clip.index()].push_back(i as u64);
            expected.push(req.clip);
        }
        BeladyCache {
            space: CacheSpace::new(repo, capacity),
            occurrences,
            cursor: 0,
            expected,
        }
    }

    /// The next request index at which `clip` is referenced, if any.
    fn next_reference(&self, clip: ClipId) -> Option<u64> {
        self.occurrences[clip.index()].front().copied()
    }
}

impl ClipCache for BeladyCache {
    fn name(&self) -> String {
        "Belady-MIN".into()
    }

    fn capacity(&self) -> ByteSize {
        self.space.capacity()
    }

    fn used(&self) -> ByteSize {
        self.space.used()
    }

    fn contains(&self, clip: ClipId) -> bool {
        self.space.contains(clip)
    }

    fn resident_clips(&self) -> Vec<ClipId> {
        self.space.resident_ids()
    }

    fn access_into(
        &mut self,
        clip: ClipId,
        _now: Timestamp,
        evictions: &mut dyn EvictionSink,
    ) -> AccessEvent {
        let i = self.cursor as usize;
        assert!(
            i < self.expected.len() && self.expected[i] == clip,
            "Belady-MIN fed a different reference string than it was built \
             for (request {i}: expected {:?}, got {clip})",
            self.expected.get(i)
        );
        self.cursor += 1;
        // Consume this reference from the clip's occurrence queue.
        let front = self.occurrences[clip.index()].pop_front();
        debug_assert_eq!(front, Some(i as u64));

        if self.space.contains(clip) {
            return AccessEvent::Hit;
        }
        if !self.space.can_ever_fit(clip) {
            return AccessEvent::Miss { admitted: false };
        }
        // MIN admission refinement: if the incoming clip is never
        // referenced again, caching it cannot produce a hit — stream it.
        if self.next_reference(clip).is_none() && !self.space.fits_now(clip) {
            return AccessEvent::Miss { admitted: false };
        }
        while !self.space.fits_now(clip) {
            // Evict the resident clip referenced furthest in the future
            // (never-again clips first, ties by id for determinism).
            let victim = self
                .space
                .iter_resident()
                .filter(|&c| c != clip)
                .max_by_key(|&c| (self.next_reference(c).unwrap_or(u64::MAX), c))
                .expect("eviction requested from an empty cache");
            self.space.remove(victim);
            evictions.record_eviction(victim);
        }
        self.space.insert(clip);
        AccessEvent::Miss { admitted: true }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policies::lru_k::LruKCache;
    use crate::policies::testutil::equi_repo;

    fn trace_of(ids: &[u32]) -> Vec<Request> {
        ids.iter()
            .enumerate()
            .map(|(i, &c)| Request::new(Timestamp(i as u64 + 1), ClipId::new(c)))
            .collect()
    }

    fn drive(cache: &mut dyn ClipCache, trace: &[Request]) -> usize {
        trace
            .iter()
            .filter(|r| cache.access(r.clip, r.at).is_hit())
            .count()
    }

    #[test]
    fn textbook_belady_example() {
        // The classic: 3 frames, string 1 2 3 4 1 2 5 1 2 3 4 5.
        // MIN takes 7 misses (5 hits); LRU takes 10 misses (2 hits).
        let repo = equi_repo(5);
        let trace = trace_of(&[1, 2, 3, 4, 1, 2, 5, 1, 2, 3, 4, 5]);
        let mut min = BeladyCache::new(Arc::clone(&repo), ByteSize::mb(30), &trace);
        assert_eq!(drive(&mut min, &trace), 5);
        let mut lru = LruKCache::new(repo, ByteSize::mb(30), 1);
        assert_eq!(drive(&mut lru, &trace), 2);
    }

    #[test]
    fn never_referenced_again_is_not_cached_over_live_clips() {
        let repo = equi_repo(4);
        // Clip 3 appears once and never again; with a full cache MIN
        // streams it rather than evicting clips with future references.
        let trace = trace_of(&[1, 2, 3, 1, 2]);
        let mut min = BeladyCache::new(Arc::clone(&repo), ByteSize::mb(20), &trace);
        let hits = drive(&mut min, &trace);
        assert_eq!(hits, 2); // both re-references of 1 and 2 hit
    }

    #[test]
    fn dominates_every_online_policy_on_equal_sizes() {
        use crate::registry::PolicyKind;
        use clipcache_workload::RequestGenerator;
        let n = 32;
        let repo = equi_repo(n);
        let capacity = ByteSize::mb(10 * 8); // 8 of 32 clips
        let trace: Vec<Request> = RequestGenerator::new(n, 0.27, 0, 3_000, 11).collect();
        let mut min = BeladyCache::new(Arc::clone(&repo), capacity, &trace);
        let min_hits = drive(&mut min, &trace);
        for policy in [
            PolicyKind::LruK { k: 2 },
            PolicyKind::DynSimple { k: 2 },
            PolicyKind::Igd,
            PolicyKind::GreedyDual,
            PolicyKind::Lfu,
            PolicyKind::Random,
        ] {
            let mut cache = policy.build(Arc::clone(&repo), capacity, 1, None);
            let hits = drive(cache.as_mut(), &trace);
            assert!(
                min_hits >= hits,
                "{policy} ({hits}) beat Belady-MIN ({min_hits}) — impossible on equal sizes"
            );
        }
    }

    #[test]
    #[should_panic(expected = "different reference string")]
    fn wrong_trace_panics() {
        let repo = equi_repo(3);
        let trace = trace_of(&[1, 2]);
        let mut min = BeladyCache::new(repo, ByteSize::mb(30), &trace);
        min.access(ClipId::new(2), Timestamp(1)); // expected clip 1
    }
}
