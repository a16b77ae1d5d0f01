//! LFU-DA — LFU with Dynamic Aging (Dilley & Arlitt, 1999).
//!
//! Plain LFU's lifetime counts cause the cache pollution the paper's
//! Section 5 names ("previously popular clips lingering in the cache").
//! LFU-DA fixes it with the same inflation device GreedyDual uses: each
//! resident clip carries `H(x) = L + count(x)`, where `L` rises to the
//! evicted priority, so a freshly admitted clip starts near the current
//! water line instead of at zero and stale heavyweights eventually sink.
//!
//! Included as the frequency-based corner of footnote 2's taxonomy with
//! the aging knob the paper's own IGD applies to GreedyDual-Freq — the
//! shootout example shows LFU-DA recovering from pattern shifts where
//! plain LFU stays polluted. Note it is *not* size-aware, so it behaves
//! like LRU-K on the variable-sized repository, not like DYNSimple.
//!
//! A resident clip's `H` is rewritten only when that clip is accessed
//! (inflation affects future admissions, not stored priorities), so the
//! composite victim key `(H, last_ref, id)` lives in a [`VictimIndex`]
//! (on its heap: the key ends in the id, so it never ties).

use crate::cache::{AccessEvent, ClipCache, EvictionSink};
use crate::space::CacheSpace;
use crate::victim_index::VictimIndex;
use clipcache_media::{ByteSize, ClipId, Repository};
use clipcache_workload::Timestamp;
use std::sync::Arc;

/// LFU with dynamic aging.
#[derive(Debug, Clone)]
pub struct LfuDaCache {
    space: CacheSpace,
    index: VictimIndex<(f64, Timestamp, ClipId)>,
    /// In-cache reference count (reset on eviction, like GreedyDual-Freq).
    count: Vec<u64>,
    inflation: f64,
}

impl LfuDaCache {
    /// Create an empty LFU-DA cache.
    pub fn new(repo: Arc<Repository>, capacity: ByteSize) -> Self {
        let n = repo.len();
        LfuDaCache {
            space: CacheSpace::new(repo, capacity),
            index: VictimIndex::new(n),
            count: vec![0; n],
            inflation: 0.0,
        }
    }

    /// The current inflation value `L`.
    pub fn inflation(&self) -> f64 {
        self.inflation
    }

    /// The in-cache reference count of a clip.
    pub fn count(&self, clip: ClipId) -> u64 {
        self.count[clip.index()]
    }
}

impl ClipCache for LfuDaCache {
    fn name(&self) -> String {
        "LFU-DA".into()
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
        let i = clip.index();
        if self.space.contains(clip) {
            self.count[i] += 1;
            let h = self.inflation + self.count[i] as f64;
            self.index.upsert(clip, (h, now, clip));
            return AccessEvent::Hit;
        }
        if !self.space.can_ever_fit(clip) {
            return AccessEvent::Miss { admitted: false };
        }
        while !self.space.fits_now(clip) {
            let (victim, (h_victim, _, _)) = self.index.pop_min();
            self.inflation = h_victim;
            self.count[victim.index()] = 0;
            self.space.remove(victim);
            evictions.record_eviction(victim);
        }
        self.count[i] = 1;
        self.index.upsert(clip, (self.inflation + 1.0, now, clip));
        self.space.insert(clip);
        AccessEvent::Miss { admitted: true }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policies::lfu::LfuCache;
    use crate::policies::testutil::{
        assert_flips_change_nothing, assert_invariants, equi_repo, tiny_repo,
    };

    #[test]
    fn frequency_still_matters() {
        let mut c = LfuDaCache::new(equi_repo(4), ByteSize::mb(20));
        c.access(ClipId::new(1), Timestamp(1));
        c.access(ClipId::new(1), Timestamp(2));
        c.access(ClipId::new(2), Timestamp(3));
        // count(1) = 2 > count(2) = 1 → clip 2 is the victim.
        let out = c.access(ClipId::new(3), Timestamp(4));
        assert_eq!(out.evicted(), &[ClipId::new(2)]);
    }

    #[test]
    fn aging_defeats_pollution_where_plain_lfu_fails() {
        // The exact scenario of LfuCache's pollution test: heavy history
        // on clips 1,2, then the pattern moves to 3,4,5. Plain LFU keeps
        // the stale pair forever; LFU-DA's inflation lets the new head
        // displace them.
        let repo = equi_repo(5);
        let mut da = LfuDaCache::new(Arc::clone(&repo), ByteSize::mb(30));
        let mut plain = LfuCache::new(Arc::clone(&repo), ByteSize::mb(30));
        let mut t = 0u64;
        let mut tick = || {
            t += 1;
            Timestamp(t)
        };
        for _ in 0..10 {
            let ts = tick();
            da.access(ClipId::new(1), ts);
            plain.access(ClipId::new(1), ts);
            let ts = tick();
            da.access(ClipId::new(2), ts);
            plain.access(ClipId::new(2), ts);
        }
        // 8 cycles: lifetime counts of the new head stay below the
        // stale pair's 10, so plain LFU cannot displace them, while
        // LFU-DA's inflation (~+1 per eviction) passes 10 within ~9
        // evictions.
        for _ in 0..8 {
            for id in [3u32, 4, 5] {
                let ts = tick();
                da.access(ClipId::new(id), ts);
                plain.access(ClipId::new(id), ts);
            }
        }
        // Plain LFU is still polluted; LFU-DA has aged the old head out.
        assert!(plain.contains(ClipId::new(1)));
        assert!(
            !da.contains(ClipId::new(1)) || !da.contains(ClipId::new(2)),
            "LFU-DA must evict at least one stale clip"
        );
        assert_invariants(&da, &repo);
    }

    #[test]
    fn count_resets_on_eviction() {
        let mut c = LfuDaCache::new(equi_repo(3), ByteSize::mb(10));
        for t in 1..=5 {
            c.access(ClipId::new(1), Timestamp(t));
        }
        assert_eq!(c.count(ClipId::new(1)), 5);
        c.access(ClipId::new(2), Timestamp(6)); // evicts 1
        assert_eq!(c.count(ClipId::new(1)), 0);
        assert!(c.inflation() > 0.0);
    }

    #[test]
    fn structure_switches_are_decision_identical() {
        let trace = [1u32, 2, 1, 3, 4, 5, 2, 2, 3, 1, 5, 4, 4, 3, 1, 2, 5];
        for (repo, mb) in [(equi_repo(5), 30), (tiny_repo(), 60)] {
            let cache = LfuDaCache::new(repo, ByteSize::mb(mb));
            let (plain, flipped) = assert_flips_change_nothing(&cache, &trace, |c| c.index.flip());
            assert_eq!(plain.inflation(), flipped.inflation());
        }
    }
}
