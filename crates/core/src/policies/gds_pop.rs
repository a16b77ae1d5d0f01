//! GDS-Popularity (Jin & Bestavros, ICDCS 2000).
//!
//! A popularity-aware GreedyDual-Size variant that optimizes **byte hit
//! rate**: `H(x) = L + f̂(x) · cost(x)` — note the absence of the `1/size`
//! term, which is what trades cache hit rate away. The paper's Section 1
//! cites it as the example of a technique it deliberately excludes from
//! the hit-rate comparison ("GDS-Popularity … enhances byte hit rate at
//! the expense of cache hit rate"); we include it so that trade-off can be
//! measured rather than asserted.
//!
//! Popularity `f̂(x)` is estimated online as the clip's share of all
//! requests seen so far (long-term popularity, per Jin & Bestavros).
//! Although `f̂` drifts as the denominator grows, a *resident* clip's
//! stored priority `H` is only rewritten when that clip is accessed —
//! scores are access-local, so they live in a [`VictimIndex`].

use crate::cache::{AccessEvent, ClipCache, EvictionSink};
use crate::policies::greedy_dual::CostModel;
use crate::space::CacheSpace;
use crate::victim_index::{TieRule, VictimIndex};
use clipcache_media::{ByteSize, ClipId, Repository};
use clipcache_workload::{Pcg64, Timestamp};
use std::sync::Arc;

/// RNG stream constant for tie-breaks.
const GDSP_STREAM: u64 = 0x6764_7370; // "gdsp"

/// GDS-Popularity replacement (byte-hit-rate objective).
#[derive(Debug, Clone)]
pub struct GdsPopularityCache {
    space: CacheSpace,
    index: VictimIndex<f64>,
    /// Lifetime request count per clip (kept across evictions).
    counts: Vec<u64>,
    total_requests: u64,
    inflation: f64,
    cost: CostModel,
    rng: Pcg64,
    ties: Vec<ClipId>,
}

impl GdsPopularityCache {
    /// Create an empty GDS-Popularity cache (uniform cost).
    pub fn new(repo: Arc<Repository>, capacity: ByteSize, seed: u64) -> Self {
        let n = repo.len();
        GdsPopularityCache {
            space: CacheSpace::new(repo, capacity),
            index: VictimIndex::new(n),
            counts: vec![0; n],
            total_requests: 0,
            inflation: 0.0,
            cost: CostModel::Uniform,
            rng: Pcg64::seed_from_u64_stream(seed, GDSP_STREAM),
            ties: Vec::new(),
        }
    }

    /// The online popularity estimate of `clip`.
    pub fn popularity(&self, clip: ClipId) -> f64 {
        if self.total_requests == 0 {
            0.0
        } else {
            self.counts[clip.index()] as f64 / self.total_requests as f64
        }
    }

    fn base_priority(&self, clip: ClipId) -> f64 {
        let c = self.space.repo().clip(clip);
        self.popularity(clip) * self.cost.cost(c.size, c.display_bandwidth)
    }
}

impl ClipCache for GdsPopularityCache {
    fn name(&self) -> String {
        "GDS-Popularity".into()
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
        self.counts[clip.index()] += 1;
        self.total_requests += 1;
        if self.space.contains(clip) {
            let p = self.inflation + self.base_priority(clip);
            self.index.upsert(clip, p);
            return AccessEvent::Hit;
        }
        if !self.space.can_ever_fit(clip) {
            return AccessEvent::Miss { admitted: false };
        }
        while !self.space.fits_now(clip) {
            let (victim, h_min) =
                self.index
                    .pop_min_tied(TieRule::EXACT, &mut self.rng, &mut self.ties);
            self.space.remove(victim);
            self.inflation = h_min;
            evictions.record_eviction(victim);
        }
        let p = self.inflation + self.base_priority(clip);
        self.index.upsert(clip, p);
        self.space.insert(clip);
        AccessEvent::Miss { admitted: true }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policies::testutil::{
        assert_flips_change_nothing, assert_invariants, equi_repo, tiny_repo,
    };

    #[test]
    fn popularity_estimates_accumulate() {
        let repo = tiny_repo();
        let mut c = GdsPopularityCache::new(repo, ByteSize::mb(100), 1);
        c.access(ClipId::new(1), Timestamp(1));
        c.access(ClipId::new(1), Timestamp(2));
        c.access(ClipId::new(2), Timestamp(3));
        assert!((c.popularity(ClipId::new(1)) - 2.0 / 3.0).abs() < 1e-12);
        assert!((c.popularity(ClipId::new(2)) - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn keeps_popular_large_clips_over_unpopular_small() {
        // Byte-hit objective: a popular big clip outranks an unpopular
        // small one even though 1/size would say otherwise.
        let repo = tiny_repo();
        let mut c = GdsPopularityCache::new(repo, ByteSize::mb(70), 2);
        // Make clip 5 (50 MB) popular.
        c.access(ClipId::new(5), Timestamp(1));
        c.access(ClipId::new(5), Timestamp(2));
        c.access(ClipId::new(5), Timestamp(3));
        c.access(ClipId::new(1), Timestamp(4)); // 10 MB, 1 reference
                                                // 20 MB clip needs 10 MB more: the unpopular small clip goes.
        let out = c.access(ClipId::new(2), Timestamp(5));
        assert_eq!(out.evicted(), &[ClipId::new(1)]);
        assert!(c.contains(ClipId::new(5)));
    }

    #[test]
    fn counts_survive_eviction() {
        let repo = tiny_repo();
        let mut c = GdsPopularityCache::new(Arc::clone(&repo), ByteSize::mb(50), 3);
        c.access(ClipId::new(5), Timestamp(1));
        c.access(ClipId::new(4), Timestamp(2)); // evicts 5
        assert!(!c.contains(ClipId::new(5)));
        assert!(c.popularity(ClipId::new(5)) > 0.0);
        assert_invariants(&c, &repo);
    }

    #[test]
    fn structure_switches_are_decision_identical() {
        let trace = [1u32, 2, 3, 1, 4, 5, 2, 2, 5, 1, 3, 4, 4, 1, 5, 2];
        for (repo, mb) in [(equi_repo(5), 30), (tiny_repo(), 60)] {
            let cache = GdsPopularityCache::new(repo, ByteSize::mb(mb), 9);
            assert_flips_change_nothing(&cache, &trace, |c| c.index.flip());
        }
    }
}
