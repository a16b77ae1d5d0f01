//! Recency-ordered baselines: LRU, MRU and FIFO.
//!
//! These are not evaluated in the paper's figures (LRU appears only as the
//! degenerate K = 1 case of LRU-K) but are the standard points of
//! comparison for any replacement study and are exercised by the shootout
//! example. All three share one implementation parameterized by which end
//! of the recency order supplies victims.
//!
//! Each resident is stamped with the time it was last touched (LRU, MRU)
//! or admitted (FIFO), and a `RecencyList` keeps the residents in
//! ascending `(stamp, id)` order: LRU and FIFO evict the head, MRU the
//! tail, so finding and removing a victim is O(1). A new stamp is almost
//! always the latest and links at the tail; a stamp that arrives out of
//! order (equal or decreasing clocks, a snapshot restore) walks back from
//! the tail to its place. The list therefore picks exactly the victim a
//! min-`(stamp, id)` scan (max for MRU) of every resident would. Both
//! victim-index backends build this list: neither a scan nor a heap can
//! beat it, so the `@heap` spelling only selects the same cache.

use crate::cache::{AccessEvent, ClipCache, EvictionSink};
use crate::policies::{admit_with_evictions, complete_with_evictions, VictimSource};
use crate::space::{CacheSpace, Residency};
use clipcache_media::{ByteSize, ClipId, Repository};
use clipcache_workload::Timestamp;
use std::sync::Arc;

/// Which end of the recency order supplies victims.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecencyVariant {
    /// Evict the least-recently-used clip.
    Lru,
    /// Evict the most-recently-used clip (useful under looping scans).
    Mru,
    /// Evict the clip admitted earliest, ignoring later hits.
    Fifo,
}

impl RecencyVariant {
    fn name(self) -> &'static str {
        match self {
            RecencyVariant::Lru => "LRU",
            RecencyVariant::Mru => "MRU",
            RecencyVariant::Fifo => "FIFO",
        }
    }
}

/// An empty link.
const NIL: u32 = u32::MAX;

/// The listed clips in ascending `(stamp, id)` order, doubly linked over
/// clip slots.
#[derive(Debug, Clone)]
struct RecencyList {
    stamp: Vec<u64>,
    /// `NIL` at the head and in every unlisted slot.
    prev: Vec<u32>,
    /// `NIL` at the tail and in every unlisted slot.
    next: Vec<u32>,
    head: u32,
    tail: u32,
}

impl RecencyList {
    fn new(n_clips: usize) -> Self {
        RecencyList {
            stamp: vec![0; n_clips],
            prev: vec![NIL; n_clips],
            next: vec![NIL; n_clips],
            head: NIL,
            tail: NIL,
        }
    }

    /// List an unlisted clip at its `(stamp, id)` place, walking back from
    /// the tail.
    fn insert(&mut self, clip: ClipId, stamp: u64) {
        let i = clip.index() as u32;
        debug_assert!(
            self.head != i && self.prev[i as usize] == NIL,
            "{clip} listed twice"
        );
        self.stamp[i as usize] = stamp;
        let mut after = self.tail;
        while after != NIL && (self.stamp[after as usize], after) > (stamp, i) {
            after = self.prev[after as usize];
        }
        let before = match after {
            NIL => std::mem::replace(&mut self.head, i),
            a => std::mem::replace(&mut self.next[a as usize], i),
        };
        match before {
            NIL => self.tail = i,
            b => self.prev[b as usize] = i,
        }
        self.prev[i as usize] = after;
        self.next[i as usize] = before;
    }

    fn remove(&mut self, clip: ClipId) {
        let i = clip.index();
        let (p, n) = (self.prev[i], self.next[i]);
        match p {
            NIL => self.head = n,
            p => self.next[p as usize] = n,
        }
        match n {
            NIL => self.tail = p,
            n => self.prev[n as usize] = p,
        }
        self.prev[i] = NIL;
        self.next[i] = NIL;
    }

    /// Re-stamp a listed clip.
    fn touch(&mut self, clip: ClipId, stamp: u64) {
        self.remove(clip);
        self.insert(clip, stamp);
    }

    /// The oldest (or, with `newest`, the newest) listed clip other than
    /// `skip`.
    fn victim(&self, newest: bool, skip: u32) -> ClipId {
        let (end, step) = if newest {
            (self.tail, &self.prev)
        } else {
            (self.head, &self.next)
        };
        let v = if end != NIL && end == skip {
            step[end as usize]
        } else {
            end
        };
        assert!(v != NIL, "victim requested from an empty recency list");
        ClipId::from_index(v as usize)
    }
}

/// [`VictimSource`] over a [`RecencyList`], passing over slot `skip`
/// (the clip whose prefix is being completed, or `NIL`).
struct ListVictims<'a> {
    list: &'a mut RecencyList,
    newest: bool,
    skip: u32,
}

impl VictimSource for ListVictims<'_> {
    fn peek(&mut self, _space: &CacheSpace) -> ClipId {
        self.list.victim(self.newest, self.skip)
    }

    fn on_evict(&mut self, clip: ClipId) {
        self.list.remove(clip);
    }
}

/// A recency-ordered cache (LRU / MRU / FIFO).
#[derive(Debug, Clone)]
pub struct RecencyCache {
    space: CacheSpace,
    variant: RecencyVariant,
    /// Every resident clip, full or partial.
    list: RecencyList,
}

impl RecencyCache {
    /// Create an empty cache with the given eviction variant.
    pub fn new(repo: Arc<Repository>, capacity: ByteSize, variant: RecencyVariant) -> Self {
        let n = repo.len();
        RecencyCache {
            space: CacheSpace::new(repo, capacity),
            variant,
            list: RecencyList::new(n),
        }
    }

    /// Convenience constructor for plain LRU.
    pub fn lru(repo: Arc<Repository>, capacity: ByteSize) -> Self {
        RecencyCache::new(repo, capacity, RecencyVariant::Lru)
    }
}

impl ClipCache for RecencyCache {
    fn name(&self) -> String {
        self.variant.name().into()
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
        // FIFO's stamp is the admission time: hits and prefix completions
        // don't move the clip.
        let restamp = self.variant != RecencyVariant::Fifo;
        let newest = self.variant == RecencyVariant::Mru;
        match self.space.residency(clip) {
            Residency::Full => {
                if restamp {
                    self.list.touch(clip, now.0);
                }
                AccessEvent::Hit
            }
            Residency::Partial(resident) => {
                let total = self.space.chunks_of(clip);
                // Completion passes over the clip itself as a victim.
                let mut source = ListVictims {
                    list: &mut self.list,
                    newest,
                    skip: clip.index() as u32,
                };
                complete_with_evictions(&mut self.space, clip, &mut source, evictions);
                if restamp {
                    self.list.touch(clip, now.0);
                }
                AccessEvent::PrefixHit { resident, total }
            }
            Residency::Absent => {
                let mut source = ListVictims {
                    list: &mut self.list,
                    newest,
                    skip: NIL,
                };
                let event = admit_with_evictions(&mut self.space, clip, &mut source, evictions);
                if event == (AccessEvent::Miss { admitted: true }) {
                    self.list.insert(clip, now.0);
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
        self.space.insert_prefix(clip, prefix);
        self.list.insert(clip, now.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policies::testutil::{assert_invariants, drive, equi_repo};

    fn cache(variant: RecencyVariant, cap_clips: u64) -> RecencyCache {
        RecencyCache::new(equi_repo(10), ByteSize::mb(10 * cap_clips), variant)
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = cache(RecencyVariant::Lru, 2);
        c.access(ClipId::new(1), Timestamp(1));
        c.access(ClipId::new(2), Timestamp(2));
        // Touch 1 so 2 becomes LRU; 3 must evict 2.
        assert!(c.access(ClipId::new(1), Timestamp(3)).is_hit());
        let out = c.access(ClipId::new(3), Timestamp(4));
        assert_eq!(out.evicted(), &[ClipId::new(2)]);
    }

    #[test]
    fn mru_evicts_most_recent() {
        let mut c = cache(RecencyVariant::Mru, 2);
        c.access(ClipId::new(1), Timestamp(1));
        c.access(ClipId::new(2), Timestamp(2));
        let out = c.access(ClipId::new(3), Timestamp(3));
        assert_eq!(out.evicted(), &[ClipId::new(2)]);
    }

    #[test]
    fn fifo_ignores_hits() {
        let mut c = cache(RecencyVariant::Fifo, 2);
        c.access(ClipId::new(1), Timestamp(1));
        c.access(ClipId::new(2), Timestamp(2));
        // Hit on 1 does not save it under FIFO.
        assert!(c.access(ClipId::new(1), Timestamp(3)).is_hit());
        let out = c.access(ClipId::new(3), Timestamp(4));
        assert_eq!(out.evicted(), &[ClipId::new(1)]);
    }

    #[test]
    fn lru_cyclic_scan_thrashes() {
        // The classic LRU pathology: a cyclic scan over cap+1 items gets
        // zero hits, while MRU retains most of the working set.
        let mut lru = cache(RecencyVariant::Lru, 3);
        let mut mru = cache(RecencyVariant::Mru, 3);
        let scan: Vec<u32> = (0..40).map(|i| (i % 4) + 1).collect();
        assert_eq!(drive(&mut lru, &scan), 0);
        assert!(drive(&mut mru, &scan) > 0);
    }

    #[test]
    fn invariants_hold_under_churn() {
        let repo = equi_repo(10);
        let mut c = RecencyCache::lru(Arc::clone(&repo), ByteSize::mb(35));
        drive(&mut c, &[1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 1, 2, 3]);
        assert_invariants(&c, &repo);
        // 35 MB holds at most 3 clips of 10 MB.
        assert!(c.resident_count() <= 3);
    }

    #[test]
    fn out_of_order_stamps_take_their_place() {
        // Clip 1 ties clip 3's stamp and arrives last; clip 3 arrives
        // older than clip 2.
        let mut lru = cache(RecencyVariant::Lru, 3);
        let mut mru = cache(RecencyVariant::Mru, 3);
        for c in [&mut lru, &mut mru] {
            c.access(ClipId::new(2), Timestamp(7));
            c.access(ClipId::new(3), Timestamp(5));
            c.access(ClipId::new(1), Timestamp(5));
        }
        // LRU evicts the min (stamp, id) = (5, 1), then (5, 3).
        assert_eq!(
            lru.access(ClipId::new(4), Timestamp(6)).evicted(),
            &[ClipId::new(1)]
        );
        assert_eq!(
            lru.access(ClipId::new(5), Timestamp(6)).evicted(),
            &[ClipId::new(3)]
        );
        // MRU evicts the max (stamp, id) = (7, 2), then (6, 4).
        assert_eq!(
            mru.access(ClipId::new(4), Timestamp(6)).evicted(),
            &[ClipId::new(2)]
        );
        assert_eq!(
            mru.access(ClipId::new(5), Timestamp(6)).evicted(),
            &[ClipId::new(4)]
        );
    }
}
