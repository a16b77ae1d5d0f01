//! LRU-K (O'Neil, O'Neil & Weikum, SIGMOD 1993).
//!
//! LRU-K keeps the time stamps of a clip's last K references — retained
//! across evictions — and evicts the resident clip whose K-th most recent
//! reference is oldest (equivalently, whose *backward K-distance* is
//! largest). A clip with fewer than K recorded references has infinite
//! backward K-distance and is evicted first; such ties break
//! least-recently-used, per the paper's discussion of the original
//! algorithm.
//!
//! The paper's Section 3.3 shows LRU-2 is "ideal for managing equi-sized
//! clips" but loses badly on variable-sized repositories because it ignores
//! clip size (Figure 2.a).
//!
//! A resident clip's reference history only changes when that clip is
//! accessed, so LRU-K (with or without CRP) stores the composite key
//! `(kth_last, last, id)` in a [`VictimIndex`], on its heap (the key ends
//! in the id, so it never ties).

use crate::cache::{AccessEvent, ClipCache, EvictionSink};
use crate::history::ReferenceHistory;
use crate::policies::{admit_with_evictions, complete_with_evictions, IndexVictims};
use crate::space::{CacheSpace, Residency};
use crate::victim_index::VictimIndex;
use clipcache_media::{ByteSize, ClipId, Repository};
use clipcache_workload::Timestamp;
use std::sync::Arc;

/// LRU-K replacement (K = 2 reproduces the paper's "LRU-2").
#[derive(Debug, Clone)]
pub struct LruKCache {
    space: CacheSpace,
    history: ReferenceHistory,
    index: VictimIndex<(Timestamp, Timestamp, ClipId)>,
    /// Correlated Reference Period in ticks (0 = off, the paper's use).
    crp: u64,
}

impl LruKCache {
    /// Create an empty LRU-K cache.
    ///
    /// # Panics
    /// If `k == 0`.
    pub fn new(repo: Arc<Repository>, capacity: ByteSize, k: usize) -> Self {
        LruKCache::with_crp(repo, capacity, k, 0)
    }

    /// Create an LRU-K cache with O'Neil et al.'s *Correlated Reference
    /// Period*: re-references within `crp` ticks of a clip's last
    /// reference refresh its latest timestamp instead of counting as a
    /// new access, so bursts do not inflate a clip's backward K-distance
    /// standing. `crp = 0` disables the refinement (the paper's setting).
    ///
    /// # Panics
    /// If `k == 0`.
    pub fn with_crp(repo: Arc<Repository>, capacity: ByteSize, k: usize, crp: u64) -> Self {
        let n = repo.len();
        LruKCache {
            space: CacheSpace::new(repo, capacity),
            history: ReferenceHistory::new(n, k),
            index: VictimIndex::new(n),
            crp,
        }
    }

    /// The configured history depth K.
    pub fn k(&self) -> usize {
        self.history.k()
    }

    /// Read access to the reference history (shared with tests).
    pub fn history(&self) -> &ReferenceHistory {
        &self.history
    }

    /// The victim-ordering key: clips with < K references sort first
    /// (`kth_last = 0`), then by oldest K-th reference, then by oldest last
    /// reference (the LRU tie-break).
    fn victim_key(history: &ReferenceHistory, c: ClipId) -> (Timestamp, Timestamp, ClipId) {
        let kth = history.kth_last(c).unwrap_or(Timestamp::ZERO);
        let last = history.last(c).unwrap_or(Timestamp::ZERO);
        (kth, last, c)
    }
}

impl ClipCache for LruKCache {
    fn name(&self) -> String {
        if self.crp == 0 {
            format!("LRU-{}", self.history.k())
        } else {
            format!("LRU-{}(CRP={})", self.history.k(), self.crp)
        }
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
        now: Timestamp,
        evictions: &mut dyn EvictionSink,
    ) -> AccessEvent {
        self.history.record_with_crp(clip, now, self.crp);
        let key = Self::victim_key(&self.history, clip);
        match self.space.residency(clip) {
            Residency::Full => {
                self.index.upsert(clip, key);
                AccessEvent::Hit
            }
            Residency::Partial(resident) => {
                let total = self.space.chunks_of(clip);
                self.index.remove(clip);
                complete_with_evictions(
                    &mut self.space,
                    clip,
                    &mut IndexVictims(&mut self.index),
                    evictions,
                );
                self.index.upsert(clip, key);
                AccessEvent::PrefixHit { resident, total }
            }
            Residency::Absent => {
                let event = admit_with_evictions(
                    &mut self.space,
                    clip,
                    &mut IndexVictims(&mut self.index),
                    evictions,
                );
                if event == (AccessEvent::Miss { admitted: true }) {
                    self.index.upsert(clip, key);
                }
                event
            }
        }
    }

    fn partial_prefix(&self, clip: ClipId) -> u32 {
        match self.space.residency(clip) {
            Residency::Partial(p) => p,
            _ => 0,
        }
    }

    fn partial_clips(&self) -> Vec<(ClipId, u32)> {
        self.space.partials()
    }

    fn restore_prefix(&mut self, clip: ClipId, prefix: u32, now: Timestamp) {
        self.history.record_with_crp(clip, now, self.crp);
        self.space.insert_prefix(clip, prefix);
        self.index
            .upsert(clip, Self::victim_key(&self.history, clip));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policies::testutil::{
        assert_flips_change_nothing, assert_invariants, drive, equi_repo, tiny_repo,
    };

    #[test]
    fn fewer_than_k_references_evicted_first() {
        let mut c = LruKCache::new(equi_repo(5), ByteSize::mb(20), 2);
        // Clip 1 gets two references (full history); clip 2 only one.
        c.access(ClipId::new(1), Timestamp(1));
        c.access(ClipId::new(1), Timestamp(2));
        c.access(ClipId::new(2), Timestamp(3));
        let out = c.access(ClipId::new(3), Timestamp(4));
        assert_eq!(out.evicted(), &[ClipId::new(2)]);
    }

    #[test]
    fn evicts_oldest_kth_reference() {
        let mut c = LruKCache::new(equi_repo(5), ByteSize::mb(20), 2);
        // Both clips have 2 references; clip 1's 2nd-most-recent is older.
        c.access(ClipId::new(1), Timestamp(1));
        c.access(ClipId::new(2), Timestamp(2));
        c.access(ClipId::new(2), Timestamp(3));
        c.access(ClipId::new(1), Timestamp(4));
        // kth_last(1) = 1, kth_last(2) = 2 → evict clip 1.
        let out = c.access(ClipId::new(3), Timestamp(5));
        assert_eq!(out.evicted(), &[ClipId::new(1)]);
    }

    #[test]
    fn paper_section_3_3_reference_string() {
        // The paper's illustration: cache of 25 MB, 10 MB clips c1,c2,c3;
        // string c1 c2 c1 c3 c1 c2 c1 c3 … LRU-2 keeps c1 resident and
        // alternates c2/c3, hitting on every c1 reference after warmup.
        let mut c = LruKCache::new(equi_repo(3), ByteSize::mb(25), 2);
        let string = [1u32, 2, 1, 3, 1, 2, 1, 3, 1, 2, 1, 3];
        let hits = drive(&mut c, &string);
        // c1 referenced 6 times, first is a miss: 5 hits on c1. c2/c3 never
        // hit after the initial fills under LRU-2's choices.
        assert!(c.contains(ClipId::new(1)));
        assert_eq!(hits, 5);
    }

    #[test]
    fn history_survives_eviction() {
        let mut c = LruKCache::new(equi_repo(3), ByteSize::mb(10), 2);
        c.access(ClipId::new(1), Timestamp(1));
        c.access(ClipId::new(2), Timestamp(2)); // evicts 1
        assert!(!c.contains(ClipId::new(1)));
        assert_eq!(c.history().last(ClipId::new(1)), Some(Timestamp(1)));
    }

    #[test]
    fn variable_sizes_respect_capacity() {
        let repo = tiny_repo();
        let mut c = LruKCache::new(Arc::clone(&repo), ByteSize::mb(70), 2);
        drive(&mut c, &[5, 4, 3, 2, 1, 5, 4, 3, 2, 1, 1, 2, 3]);
        assert_invariants(&c, &repo);
    }

    #[test]
    fn crp_ignores_bursts_when_ranking_victims() {
        // Clip 2 gets a tight burst (correlated); clip 1 two spaced
        // references. Without CRP the burst gives clip 2 a newer K-th
        // reference and clip 1 is evicted; with CRP the burst counts
        // once, clip 2 has < K accesses, and is evicted first.
        let build = |crp: u64| {
            let mut c = LruKCache::with_crp(equi_repo(4), ByteSize::mb(20), 2, crp);
            c.access(ClipId::new(1), Timestamp(10));
            c.access(ClipId::new(1), Timestamp(20));
            c.access(ClipId::new(2), Timestamp(30));
            c.access(ClipId::new(2), Timestamp(31));
            c.access(ClipId::new(3), Timestamp(40))
        };
        assert_eq!(build(0).evicted(), &[ClipId::new(1)]);
        assert_eq!(build(5).evicted(), &[ClipId::new(2)]);
    }

    #[test]
    fn k_one_degenerates_to_lru() {
        let mut c = LruKCache::new(equi_repo(4), ByteSize::mb(20), 1);
        assert_eq!(c.name(), "LRU-1");
        c.access(ClipId::new(1), Timestamp(1));
        c.access(ClipId::new(2), Timestamp(2));
        c.access(ClipId::new(1), Timestamp(3));
        let out = c.access(ClipId::new(3), Timestamp(4));
        assert_eq!(out.evicted(), &[ClipId::new(2)]);
    }

    #[test]
    fn structure_switches_are_decision_identical() {
        let trace = [1u32, 2, 1, 3, 4, 2, 5, 3, 1, 3, 3, 5, 2, 4, 4, 1, 1, 2];
        for (repo, mb) in [(equi_repo(5), 30), (tiny_repo(), 60)] {
            for crp in [0u64, 3] {
                let cache = LruKCache::with_crp(Arc::clone(&repo), ByteSize::mb(mb), 2, crp);
                assert_flips_change_nothing(&cache, &trace, |c| c.index.flip());
            }
        }
    }
}
