//! SIZE: the classic size-based web-caching baseline.
//!
//! The paper's footnote 2 taxonomizes greedy techniques as recency-based,
//! frequency-based, **size-based**, function-based and randomized. SIZE
//! (Williams et al.'s web-proxy policy) is the purest size-based point:
//! always evict the largest resident clip, breaking ties by least-recent
//! use. It hoards small objects — great for hit rate on mixed-size
//! repositories, terrible for byte hit rate — and ignores popularity
//! entirely, so it cannot adapt to shifts at all beyond its recency
//! tie-break. Included as the taxonomy's missing corner in the shootout.
//!
//! The victim order `(largest size, stalest, largest id)` maps onto the
//! min-ordered [`VictimIndex`] by wrapping the reversed components in
//! [`std::cmp::Reverse`]; "stalest" compares identically to "smallest
//! last-reference time", so the stored key never goes stale (and, ending
//! in the id, never ties: the index answers from its heap).

use crate::cache::{AccessEvent, ClipCache, EvictionSink};
use crate::policies::{admit_with_evictions, complete_with_evictions, IndexVictims};
use crate::space::{CacheSpace, Residency};
use crate::victim_index::VictimIndex;
use clipcache_media::{ByteSize, ClipId, Repository};
use clipcache_workload::Timestamp;
use std::cmp::Reverse;
use std::sync::Arc;

/// Largest-first eviction.
#[derive(Debug, Clone)]
pub struct SizeCache {
    space: CacheSpace,
    index: VictimIndex<(Reverse<ByteSize>, Timestamp, Reverse<ClipId>)>,
}

impl SizeCache {
    /// Create an empty SIZE cache.
    pub fn new(repo: Arc<Repository>, capacity: ByteSize) -> Self {
        let n = repo.len();
        SizeCache {
            space: CacheSpace::new(repo, capacity),
            index: VictimIndex::new(n),
        }
    }

    fn key(&self, clip: ClipId, now: Timestamp) -> (Reverse<ByteSize>, Timestamp, Reverse<ClipId>) {
        (Reverse(self.space.size_of(clip)), now, Reverse(clip))
    }
}

impl ClipCache for SizeCache {
    fn name(&self) -> String {
        "SIZE".into()
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
        let key = self.key(clip, now);
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
        let key = self.key(clip, now);
        self.space.insert_prefix(clip, prefix);
        self.index.upsert(clip, key);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policies::testutil::{
        assert_flips_change_nothing, assert_invariants, drive, equi_repo, tiny_repo,
    };

    #[test]
    fn evicts_largest_first() {
        let repo = tiny_repo(); // 10..50 MB clips
        let mut c = SizeCache::new(repo, ByteSize::mb(90));
        c.access(ClipId::new(1), Timestamp(1)); // 10
        c.access(ClipId::new(5), Timestamp(2)); // 50
        c.access(ClipId::new(3), Timestamp(3)); // 30 → 90 used
        let out = c.access(ClipId::new(2), Timestamp(4)); // 20 MB
        assert_eq!(out.evicted(), &[ClipId::new(5)]);
    }

    #[test]
    fn equal_sizes_fall_back_to_lru() {
        let repo = equi_repo(4);
        let mut c = SizeCache::new(repo, ByteSize::mb(20));
        c.access(ClipId::new(1), Timestamp(1));
        c.access(ClipId::new(2), Timestamp(2));
        assert!(c.access(ClipId::new(1), Timestamp(3)).is_hit());
        let out = c.access(ClipId::new(3), Timestamp(4));
        assert_eq!(out.evicted(), &[ClipId::new(2)]);
    }

    #[test]
    fn hoards_small_clips() {
        let repo = tiny_repo();
        let mut c = SizeCache::new(Arc::clone(&repo), ByteSize::mb(60));
        drive(&mut c, &[5, 4, 3, 2, 1, 5, 4, 3, 2, 1]);
        // The small clips survive; the big ones churn.
        assert!(c.contains(ClipId::new(1)));
        assert!(c.contains(ClipId::new(2)));
        assert!(!c.contains(ClipId::new(5)));
        assert_invariants(&c, &repo);
    }

    #[test]
    fn structure_switches_are_decision_identical() {
        let trace = [5u32, 4, 3, 2, 1, 5, 4, 3, 2, 1, 1, 3, 5, 2, 4];
        for (repo, mb) in [(equi_repo(5), 30), (tiny_repo(), 60)] {
            let cache = SizeCache::new(repo, ByteSize::mb(mb));
            assert_flips_change_nothing(&cache, &trace, |c| c.index.flip());
        }
    }
}
