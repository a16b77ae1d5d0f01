//! GreedyDual-Freq (Cherkasova & Ciardo, 2001).
//!
//! GreedyDual-Size extended with an in-cache frequency count:
//! `H(x) = L + cost·nref(x)/size(x)`, where `nref(x)` counts the references
//! to `x` since it was brought into cache (including the admitting one) and
//! is forgotten on eviction.
//!
//! Section 4.2 / Figure 7: because `nref` grows monotonically while a clip
//! stays resident, GreedyDual-Freq adapts *worse* than plain GreedyDual to
//! evolving access patterns — previously hot clips keep their inflated
//! priority. IGD fixes this by aging the count with the time since last
//! reference.
//!
//! The score only changes on accesses to the scored clip, so victim
//! selection runs on a [`VictimIndex`] (exact ties, uniform RNG draw),
//! which picks its heap or its scan from the tie bands it drains.

use crate::cache::{AccessEvent, ClipCache, EvictionSink};
use crate::policies::greedy_dual::CostModel;
use crate::space::CacheSpace;
use crate::victim_index::{TieRule, VictimIndex};
use clipcache_media::{ByteSize, ClipId, Repository};
use clipcache_workload::{Pcg64, Timestamp};
use std::sync::Arc;

/// RNG stream constant for tie-breaks.
const GDF_STREAM: u64 = 0x6764_6672; // "gdfr"

/// GreedyDual-Freq replacement.
#[derive(Debug, Clone)]
pub struct GdFreqCache {
    space: CacheSpace,
    index: VictimIndex<f64>,
    /// References since admission (resident clips only; reset on eviction).
    nref: Vec<u64>,
    inflation: f64,
    cost: CostModel,
    rng: Pcg64,
    ties: Vec<ClipId>,
}

impl GdFreqCache {
    /// Create an empty GreedyDual-Freq cache (uniform cost).
    pub fn new(repo: Arc<Repository>, capacity: ByteSize, seed: u64) -> Self {
        let n = repo.len();
        GdFreqCache {
            space: CacheSpace::new(repo, capacity),
            index: VictimIndex::new(n),
            nref: vec![0; n],
            inflation: 0.0,
            cost: CostModel::Uniform,
            rng: Pcg64::seed_from_u64_stream(seed, GDF_STREAM),
            ties: Vec::new(),
        }
    }

    /// The in-cache reference count of a resident clip.
    pub fn nref(&self, clip: ClipId) -> u64 {
        self.nref[clip.index()]
    }

    /// The current inflation value `L`.
    pub fn inflation(&self) -> f64 {
        self.inflation
    }

    fn priority(&self, clip: ClipId) -> f64 {
        let c = self.space.repo().clip(clip);
        let size = c.size;
        self.inflation
            + self.cost.cost(size, c.display_bandwidth) * self.nref[clip.index()] as f64
                / size.as_f64()
    }
}

impl ClipCache for GdFreqCache {
    fn name(&self) -> String {
        "GreedyDual-Freq".into()
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
            self.nref[clip.index()] += 1;
            let p = self.priority(clip);
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
            self.nref[victim.index()] = 0; // forget on eviction
            self.inflation = h_min;
            evictions.record_eviction(victim);
        }
        self.nref[clip.index()] = 1; // the admitting reference counts
        let p = self.priority(clip);
        self.index.upsert(clip, p);
        self.space.insert(clip);
        AccessEvent::Miss { admitted: true }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policies::testutil::{
        assert_flips_change_nothing, assert_invariants, drive, equi_repo, tiny_repo,
    };

    #[test]
    fn frequency_raises_priority() {
        let repo = equi_repo(4);
        let mut c = GdFreqCache::new(repo, ByteSize::mb(20), 1);
        c.access(ClipId::new(1), Timestamp(1));
        c.access(ClipId::new(2), Timestamp(2));
        // Hit clip 2 twice: nref 3 vs clip 1's nref 1.
        c.access(ClipId::new(2), Timestamp(3));
        c.access(ClipId::new(2), Timestamp(4));
        assert_eq!(c.nref(ClipId::new(2)), 3);
        let out = c.access(ClipId::new(3), Timestamp(5));
        assert_eq!(out.evicted(), &[ClipId::new(1)]);
    }

    #[test]
    fn nref_forgotten_on_eviction() {
        let repo = equi_repo(3);
        let mut c = GdFreqCache::new(repo, ByteSize::mb(10), 1);
        c.access(ClipId::new(1), Timestamp(1));
        c.access(ClipId::new(1), Timestamp(2));
        c.access(ClipId::new(1), Timestamp(3));
        assert_eq!(c.nref(ClipId::new(1)), 3);
        c.access(ClipId::new(2), Timestamp(4)); // evicts 1
        assert!(!c.contains(ClipId::new(1)));
        assert_eq!(c.nref(ClipId::new(1)), 0);
        // Re-admission starts over at nref = 1.
        c.access(ClipId::new(1), Timestamp(5));
        assert_eq!(c.nref(ClipId::new(1)), 1);
    }

    #[test]
    fn monotone_count_causes_pollution() {
        // A clip with a large accumulated nref survives even after it goes
        // cold — the failure mode IGD fixes (Figure 7).
        let repo = equi_repo(4);
        let mut c = GdFreqCache::new(Arc::clone(&repo), ByteSize::mb(20), 1);
        let mut t = 0u64;
        let mut tick = || {
            t += 1;
            Timestamp(t)
        };
        for _ in 0..20 {
            c.access(ClipId::new(1), tick());
        }
        // Pattern shifts to clips 2,3,4; clip 1 never referenced again.
        for _ in 0..5 {
            c.access(ClipId::new(2), tick());
            c.access(ClipId::new(3), tick());
            c.access(ClipId::new(4), tick());
        }
        assert!(
            c.contains(ClipId::new(1)),
            "stale high-nref clip should pollute the cache"
        );
        assert_invariants(&c, &repo);
    }

    #[test]
    fn size_still_considered() {
        let repo = tiny_repo();
        let mut c = GdFreqCache::new(Arc::clone(&repo), ByteSize::mb(60), 2);
        drive(&mut c, &[1, 5, 2]); // 10+50 then 20 MB forces eviction
                                   // Equal nref (=1): priority 1/size → the 50 MB clip goes first.
        assert!(!c.contains(ClipId::new(5)));
        assert!(c.contains(ClipId::new(1)));
        assert_invariants(&c, &repo);
    }

    #[test]
    fn structure_switches_are_decision_identical() {
        let trace = [1u32, 2, 3, 4, 5, 1, 2, 2, 4, 1, 3, 5, 3, 3, 1, 2, 5, 4];
        for (repo, mb) in [(equi_repo(5), 30), (tiny_repo(), 60)] {
            let cache = GdFreqCache::new(repo, ByteSize::mb(mb), 7);
            let (plain, flipped) = assert_flips_change_nothing(&cache, &trace, |c| c.index.flip());
            assert_eq!(plain.inflation(), flipped.inflation());
        }
    }
}
