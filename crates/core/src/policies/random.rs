//! The Random yardstick: victims chosen uniformly at random.
//!
//! Section 3.3: "As a comparison yard stick, we have included a technique
//! that chooses victims randomly. This technique is called Random."
//!
//! Implemented as the degenerate case of the tied-minimum machinery:
//! every resident clip scores a constant `0.0`, so the tie set is the
//! whole residency (in id order, matching `resident_ids()`) and the
//! uniform draw consumes the RNG exactly as the scan-based implementation
//! always has. A band of every resident is as wide as bands get, so the
//! index settles on its scan after its first eviction.

use crate::cache::{AccessEvent, ClipCache, EvictionSink};
use crate::space::CacheSpace;
use crate::victim_index::{TieRule, VictimIndex};
use clipcache_media::{ByteSize, ClipId, Repository};
use clipcache_workload::{Pcg64, Timestamp};
use std::sync::Arc;

/// Random replacement.
#[derive(Debug, Clone)]
pub struct RandomCache {
    space: CacheSpace,
    index: VictimIndex<f64>,
    rng: Pcg64,
    ties: Vec<ClipId>,
}

/// RNG stream constant decorrelating victim choice from workload RNGs.
const RAND_STREAM: u64 = 0x7261_6e64; // "rand"

/// Uniform choice over the full residency: zero-width tie band over the
/// constant score, with the RNG consumed even for a single resident (the
/// scan implementation always drew an index).
const RANDOM_TIES: TieRule = TieRule {
    rel_eps: 0.0,
    rng_on_single: true,
};

impl RandomCache {
    /// Create an empty random-replacement cache.
    pub fn new(repo: Arc<Repository>, capacity: ByteSize, seed: u64) -> Self {
        let n = repo.len();
        RandomCache {
            space: CacheSpace::new(repo, capacity),
            index: VictimIndex::new(n),
            rng: Pcg64::seed_from_u64_stream(seed, RAND_STREAM),
            ties: Vec::new(),
        }
    }
}

impl ClipCache for RandomCache {
    fn name(&self) -> String {
        "Random".into()
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
        if self.space.contains(clip) {
            return AccessEvent::Hit;
        }
        if !self.space.can_ever_fit(clip) {
            return AccessEvent::Miss { admitted: false };
        }
        while !self.space.fits_now(clip) {
            let (victim, _) = self
                .index
                .pop_min_tied(RANDOM_TIES, &mut self.rng, &mut self.ties);
            self.space.remove(victim);
            evictions.record_eviction(victim);
        }
        self.index.upsert(clip, 0.0);
        self.space.insert(clip);
        AccessEvent::Miss { admitted: true }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::AccessOutcome;
    use crate::policies::testutil::{
        assert_flips_change_nothing, assert_invariants, drive, equi_repo, tiny_repo,
    };

    #[test]
    fn hit_after_admit() {
        let repo = tiny_repo();
        let mut c = RandomCache::new(repo, ByteSize::mb(100), 1);
        assert!(!c.access(ClipId::new(1), Timestamp(1)).is_hit());
        assert!(c.access(ClipId::new(1), Timestamp(2)).is_hit());
    }

    #[test]
    fn evicts_when_full_and_respects_capacity() {
        let repo = tiny_repo();
        let mut c = RandomCache::new(Arc::clone(&repo), ByteSize::mb(60), 7);
        drive(&mut c, &[1, 2, 3, 4, 5, 1, 2, 3, 4, 5]);
        assert_invariants(&c, &repo);
        assert!(c.used() <= ByteSize::mb(60));
        assert!(c.resident_count() >= 1);
    }

    #[test]
    fn oversized_clip_not_admitted() {
        let repo = tiny_repo();
        let mut c = RandomCache::new(repo, ByteSize::mb(30), 3);
        let out = c.access(ClipId::new(5), Timestamp(1)); // 50 MB > 30 MB
        assert_eq!(
            out,
            AccessOutcome::Miss {
                admitted: false,
                evicted: vec![]
            }
        );
        assert_eq!(c.used(), ByteSize::ZERO);
    }

    #[test]
    fn deterministic_given_seed() {
        let repo = tiny_repo();
        let trace = [1u32, 2, 3, 4, 5, 1, 3, 5, 2, 4, 1, 2, 3];
        let mut a = RandomCache::new(Arc::clone(&repo), ByteSize::mb(60), 11);
        let mut b = RandomCache::new(repo, ByteSize::mb(60), 11);
        assert_eq!(drive(&mut a, &trace), drive(&mut b, &trace));
        assert_eq!(a.resident_clips(), b.resident_clips());
    }

    #[test]
    fn structure_switches_are_decision_identical() {
        let trace = [1u32, 2, 3, 4, 5, 1, 3, 5, 2, 4, 1, 2, 3, 5, 4];
        for (repo, mb) in [(equi_repo(5), 30), (tiny_repo(), 60)] {
            let cache = RandomCache::new(repo, ByteSize::mb(mb), 11);
            assert_flips_change_nothing(&cache, &trace, |c| c.index.flip());
        }
    }
}
