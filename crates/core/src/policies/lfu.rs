//! LFU baseline: evict the resident clip with the fewest references.
//!
//! Reference counts accumulate for the whole run (perfect LFU over the
//! observed past), which exhibits the classic *cache pollution* problem the
//! paper attributes to frequency-based techniques: previously popular clips
//! linger after the access pattern shifts. Ties break least-recently-used.
//!
//! A resident clip's `(count, last_ref)` pair only changes when that clip
//! is accessed, so the composite victim key `(count, last_ref, id)` is
//! stored verbatim in a [`VictimIndex`]; it ends in the id, so it never
//! ties and the index answers from its heap.

use crate::cache::{AccessEvent, ClipCache, EvictionSink};
use crate::policies::{admit_with_evictions, complete_with_evictions, IndexVictims};
use crate::space::{CacheSpace, Residency};
use crate::victim_index::VictimIndex;
use clipcache_media::{ByteSize, ClipId, Repository};
use clipcache_workload::Timestamp;
use std::sync::Arc;

/// Least-frequently-used replacement.
#[derive(Debug, Clone)]
pub struct LfuCache {
    space: CacheSpace,
    index: VictimIndex<(u64, Timestamp, ClipId)>,
    counts: Vec<u64>,
    last_ref: Vec<Timestamp>,
}

impl LfuCache {
    /// Create an empty LFU cache.
    pub fn new(repo: Arc<Repository>, capacity: ByteSize) -> Self {
        let n = repo.len();
        LfuCache {
            space: CacheSpace::new(repo, capacity),
            index: VictimIndex::new(n),
            counts: vec![0; n],
            last_ref: vec![Timestamp::ZERO; n],
        }
    }

    /// The lifetime reference count of a clip.
    pub fn count(&self, clip: ClipId) -> u64 {
        self.counts[clip.index()]
    }

    fn key(&self, clip: ClipId) -> (u64, Timestamp, ClipId) {
        (self.counts[clip.index()], self.last_ref[clip.index()], clip)
    }
}

impl ClipCache for LfuCache {
    fn name(&self) -> String {
        "LFU".into()
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
        self.counts[clip.index()] += 1;
        self.last_ref[clip.index()] = now;
        let key = self.key(clip);
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
        self.counts[clip.index()] += 1;
        self.last_ref[clip.index()] = now;
        self.space.insert_prefix(clip, prefix);
        self.index.upsert(clip, self.key(clip));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policies::testutil::{
        assert_flips_change_nothing, assert_invariants, equi_repo, tiny_repo,
    };

    #[test]
    fn evicts_least_frequent() {
        let mut c = LfuCache::new(equi_repo(5), ByteSize::mb(20));
        c.access(ClipId::new(1), Timestamp(1));
        c.access(ClipId::new(1), Timestamp(2));
        c.access(ClipId::new(2), Timestamp(3));
        // Clip 2 has 1 reference, clip 1 has 2; clip 3 evicts clip 2.
        let out = c.access(ClipId::new(3), Timestamp(4));
        assert_eq!(out.evicted(), &[ClipId::new(2)]);
        assert_eq!(c.count(ClipId::new(1)), 2);
    }

    #[test]
    fn ties_break_lru() {
        let mut c = LfuCache::new(equi_repo(5), ByteSize::mb(20));
        c.access(ClipId::new(1), Timestamp(1));
        c.access(ClipId::new(2), Timestamp(2));
        // Both have count 1; clip 1 is least recent.
        let out = c.access(ClipId::new(3), Timestamp(3));
        assert_eq!(out.evicted(), &[ClipId::new(1)]);
    }

    #[test]
    fn pollution_after_shift() {
        // Clips 1,2 get heavy history, then the pattern moves to 3,4,5.
        // LFU keeps 1,2 resident: new clips keep evicting each other.
        let repo = equi_repo(5);
        let mut c = LfuCache::new(Arc::clone(&repo), ByteSize::mb(30));
        let mut t = 0u64;
        let mut tick = || {
            t += 1;
            Timestamp(t)
        };
        for _ in 0..10 {
            c.access(ClipId::new(1), tick());
            c.access(ClipId::new(2), tick());
        }
        for _ in 0..3 {
            c.access(ClipId::new(3), tick());
            c.access(ClipId::new(4), tick());
            c.access(ClipId::new(5), tick());
        }
        assert!(c.contains(ClipId::new(1)));
        assert!(c.contains(ClipId::new(2)));
        assert_invariants(&c, &repo);
    }

    #[test]
    fn structure_switches_are_decision_identical() {
        let trace = [1u32, 1, 2, 3, 4, 2, 5, 4, 1, 3, 3, 5, 2, 5, 4, 1];
        for (repo, mb) in [(equi_repo(5), 30), (tiny_repo(), 60)] {
            let cache = LfuCache::new(repo, ByteSize::mb(mb));
            assert_flips_change_nothing(&cache, &trace, |c| c.index.flip());
        }
    }
}
