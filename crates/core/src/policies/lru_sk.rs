//! LRU-SK: the paper's size-aware LRU-K (Section 4.3).
//!
//! LRU-K evicts the clip with the largest backward K-distance
//! `d_K = now − t(K-th last reference)`. LRU-SK additionally weights by
//! clip size, evicting the clip with minimum `1 / (d_K · size)` —
//! equivalently, maximum `d_K · size`: stale *and* large clips go first.
//! A clip with fewer than K recorded references has infinite `d_K`; we
//! realize that by anchoring its K-th reference at time zero, which makes
//! `d_K = now`, the largest possible value, preserving LRU-K's ordering
//! for under-referenced clips while still discriminating by size.
//!
//! Section 4.4: with K = 2, LRU-SK and DYNSimple produce "almost
//! identical" hit rates because their victim rankings coincide (a property
//! test in `tests/dynsimple_lrusk_ranking.rs` verifies the ranking claim).
//!
//! `d_K` ages with the clock, so the eviction score is time-varying and
//! LRU-SK keeps no victim index and scans (see the taxonomy in
//! [`crate::policies`]).

use crate::cache::{AccessEvent, ClipCache, EvictionSink};
use crate::history::ReferenceHistory;
use crate::policies::{admit_with_evictions, complete_with_evictions, ScanVictims};
use crate::space::{CacheSpace, Residency};
use clipcache_media::{ByteSize, ClipId, Repository};
use clipcache_workload::Timestamp;
use std::sync::Arc;

/// LRU-SK replacement (K = 2 reproduces the paper's "LRU-S2").
#[derive(Debug, Clone)]
pub struct LruSKCache {
    space: CacheSpace,
    history: ReferenceHistory,
}

impl LruSKCache {
    /// Create an empty LRU-SK cache.
    ///
    /// # Panics
    /// If `k == 0`.
    pub fn new(repo: Arc<Repository>, capacity: ByteSize, k: usize) -> Self {
        let n = repo.len();
        LruSKCache {
            space: CacheSpace::new(repo, capacity),
            history: ReferenceHistory::new(n, k),
        }
    }

    /// The configured history depth K.
    pub fn k(&self) -> usize {
        self.history.k()
    }

    /// The eviction score `d_K · size`: the clip with the **largest** score
    /// is the victim.
    pub fn eviction_score(
        history: &ReferenceHistory,
        space: &CacheSpace,
        c: ClipId,
        now: Timestamp,
    ) -> f64 {
        let kth = history.kth_last(c).unwrap_or(Timestamp::ZERO);
        let d_k = now.since(kth).max(1) as f64;
        d_k * space.size_of(c).as_f64()
    }

    /// The eviction score of one clip at `now` — public so the
    /// DYNSimple-equivalence property test can compare rankings directly.
    pub fn score_of(&self, c: ClipId, now: Timestamp) -> f64 {
        Self::eviction_score(&self.history, &self.space, c, now)
    }
}

impl ClipCache for LruSKCache {
    fn name(&self) -> String {
        format!("LRU-S{}", self.history.k())
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
        self.history.record(clip, now);
        let history = &self.history;
        let mut source = ScanVictims(|space: &CacheSpace| {
            space
                .iter_resident()
                .filter(|&c| c != clip)
                .max_by(|&a, &b| {
                    let sa = Self::eviction_score(history, space, a, now);
                    let sb = Self::eviction_score(history, space, b, now);
                    // Deterministic tie-break: prefer evicting the
                    // lower id (compare ids reversed under max_by).
                    sa.partial_cmp(&sb)
                        .expect("scores are finite")
                        .then_with(|| b.cmp(&a))
                })
                .expect("eviction requested from an empty cache")
        });
        match self.space.residency(clip) {
            Residency::Full => AccessEvent::Hit,
            Residency::Partial(resident) => {
                let total = self.space.chunks_of(clip);
                complete_with_evictions(&mut self.space, clip, &mut source, evictions);
                AccessEvent::PrefixHit { resident, total }
            }
            Residency::Absent => {
                admit_with_evictions(&mut self.space, clip, &mut source, evictions)
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
        self.history.record(clip, now);
        self.space.insert_prefix(clip, prefix);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policies::testutil::{assert_invariants, drive, tiny_repo};

    #[test]
    fn size_breaks_equal_staleness() {
        // Clips 1 (10 MB) and 5 (50 MB) referenced at the same staleness:
        // the larger clip has the bigger d_K·size score and is evicted.
        let repo = tiny_repo();
        let mut c = LruSKCache::new(repo, ByteSize::mb(60), 2);
        c.access(ClipId::new(1), Timestamp(1));
        c.access(ClipId::new(5), Timestamp(2));
        // Neither has K=2 references → both have d_K = now; size decides.
        let out = c.access(ClipId::new(2), Timestamp(3));
        assert_eq!(out.evicted(), &[ClipId::new(5)]);
    }

    #[test]
    fn staleness_still_matters() {
        // Equal sizes: the clip with the older K-th reference is evicted.
        let repo = crate::policies::testutil::equi_repo(4);
        let mut c = LruSKCache::new(repo, ByteSize::mb(20), 2);
        c.access(ClipId::new(1), Timestamp(1));
        c.access(ClipId::new(1), Timestamp(2));
        c.access(ClipId::new(2), Timestamp(3));
        c.access(ClipId::new(2), Timestamp(4));
        // d_2(1) = 5-1 = 4, d_2(2) = 5-3 = 2 → evict clip 1.
        let out = c.access(ClipId::new(3), Timestamp(5));
        assert_eq!(out.evicted(), &[ClipId::new(1)]);
    }

    #[test]
    fn recency_can_save_a_large_clip() {
        // A very recently K-referenced large clip survives over a stale
        // small one when the staleness gap dominates the size ratio.
        let repo = tiny_repo();
        let mut c = LruSKCache::new(repo, ByteSize::mb(70), 2);
        // Clip 1 (10 MB): two old references.
        c.access(ClipId::new(1), Timestamp(1));
        c.access(ClipId::new(1), Timestamp(2));
        // Clip 5 (50 MB): two recent references.
        c.access(ClipId::new(5), Timestamp(99));
        c.access(ClipId::new(5), Timestamp(100));
        // At t=101: score(1) = (101-1)·10 MB = 1000; score(5) = (101-99)·50 = 100.
        let out = c.access(ClipId::new(2), Timestamp(101));
        assert_eq!(out.evicted(), &[ClipId::new(1)]);
    }

    #[test]
    fn invariants_under_churn() {
        let repo = tiny_repo();
        let mut c = LruSKCache::new(Arc::clone(&repo), ByteSize::mb(80), 2);
        drive(&mut c, &[1, 2, 3, 4, 5, 5, 4, 3, 2, 1, 3, 3, 3, 5, 1]);
        assert_invariants(&c, &repo);
    }

    #[test]
    fn name_includes_k() {
        let c = LruSKCache::new(tiny_repo(), ByteSize::mb(50), 2);
        assert_eq!(c.name(), "LRU-S2");
        assert_eq!(c.k(), 2);
    }
}
