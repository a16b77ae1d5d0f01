//! A lazy-deletion min-heap over `(priority, clip)` pairs.
//!
//! This is the backing store of the [`crate::victim_index::VictimIndex`]
//! heap backend: every policy whose victim score only changes on accesses to
//! the scored clip itself (GreedyDual family, LFU/LFU-DA, LRU/MRU/FIFO,
//! LRU-K, SIZE, Random — see the taxonomy table in [`crate::policies`])
//! can answer "the resident clip with the lowest priority" from this heap
//! instead of a linear scan over the residents. Priorities change on every hit, so a plain
//! `BinaryHeap` would need decrease-key; instead we push a fresh entry per
//! update and discard stale entries when they surface (each entry carries
//! the generation at which it was pushed). This is the classic
//! lazy-deletion scheme; amortized cost is O(log n) per update.
//!
//! The heap is generic over the priority type `P` (default `f64` for the
//! GreedyDual family): any `PartialOrd + Copy` type whose values are
//! totally ordered at runtime works, which lets integer/timestamp policies
//! (LFU, LRU-K, …) encode their full legacy tie-break chain into a
//! composite tuple priority.
//!
//! The paper's conclusion lists "tree-based data structures to minimize the
//! complexity of identifying a victim" as planned work — this module is
//! that structure, and `bench/eviction_scaling` compares it against the
//! linear scan the reference implementations use.

use clipcache_media::ClipId;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A heap entry: min-ordering on priority, then clip id for determinism.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Entry<P> {
    priority: P,
    clip: ClipId,
    generation: u64,
}

impl<P: PartialOrd> Eq for Entry<P> {}

impl<P: PartialOrd> Ord for Entry<P> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse for a min-heap on priority; ties broken by clip id so the
        // heap's behaviour is deterministic.
        other
            .priority
            .partial_cmp(&self.priority)
            .expect("priorities must not be NaN")
            .then_with(|| other.clip.cmp(&self.clip))
    }
}

impl<P: PartialOrd> PartialOrd for Entry<P> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Min-priority queue over clips with lazy invalidation.
#[derive(Debug, Clone)]
pub struct LazyMinHeap<P = f64> {
    heap: BinaryHeap<Entry<P>>,
    /// Current generation per clip index; 0 means "not in the queue".
    current: Vec<u64>,
    generation: u64,
    live: usize,
}

impl<P: PartialOrd + Copy> LazyMinHeap<P> {
    /// An empty queue over `n_clips` clip slots.
    pub fn new(n_clips: usize) -> Self {
        LazyMinHeap {
            heap: BinaryHeap::new(),
            current: vec![0; n_clips],
            generation: 0,
            live: 0,
        }
    }

    /// Number of live (non-stale) entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when no live entries remain.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Insert `clip` or update its priority.
    ///
    /// # Panics
    /// If `priority` is not comparable with itself (a float NaN).
    pub fn upsert(&mut self, clip: ClipId, priority: P) {
        assert!(
            priority.partial_cmp(&priority) == Some(Ordering::Equal),
            "NaN priority for {clip}"
        );
        if self.current[clip.index()] == 0 {
            self.live += 1;
        }
        self.generation += 1;
        self.current[clip.index()] = self.generation;
        self.heap.push(Entry {
            priority,
            clip,
            generation: self.generation,
        });
    }

    /// Remove `clip` from the queue (lazy: its entries become stale).
    pub fn remove(&mut self, clip: ClipId) {
        if self.current[clip.index()] != 0 {
            self.current[clip.index()] = 0;
            self.live -= 1;
        }
    }

    /// Whether `clip` currently has a live entry.
    #[inline]
    pub fn contains(&self, clip: ClipId) -> bool {
        self.current[clip.index()] != 0
    }

    fn discard_stale(&mut self) {
        while let Some(top) = self.heap.peek() {
            if self.current[top.clip.index()] == top.generation {
                return;
            }
            self.heap.pop();
        }
    }

    /// The live minimum `(clip, priority)` without removing it.
    pub fn peek_min(&mut self) -> Option<(ClipId, P)> {
        self.discard_stale();
        self.heap.peek().map(|e| (e.clip, e.priority))
    }

    /// Remove and return the live minimum.
    pub fn pop_min(&mut self) -> Option<(ClipId, P)> {
        self.discard_stale();
        let entry = self.heap.pop()?;
        self.current[entry.clip.index()] = 0;
        self.live -= 1;
        Some((entry.clip, entry.priority))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(id: u32) -> ClipId {
        ClipId::new(id)
    }

    #[test]
    fn pops_in_priority_order() {
        let mut h = LazyMinHeap::new(5);
        h.upsert(c(1), 3.0);
        h.upsert(c(2), 1.0);
        h.upsert(c(3), 2.0);
        assert_eq!(h.pop_min(), Some((c(2), 1.0)));
        assert_eq!(h.pop_min(), Some((c(3), 2.0)));
        assert_eq!(h.pop_min(), Some((c(1), 3.0)));
        assert_eq!(h.pop_min(), None);
    }

    #[test]
    fn upsert_updates_priority() {
        let mut h = LazyMinHeap::new(3);
        h.upsert(c(1), 1.0);
        h.upsert(c(2), 2.0);
        h.upsert(c(1), 5.0); // raise clip 1 above clip 2
        assert_eq!(h.len(), 2);
        assert_eq!(h.pop_min(), Some((c(2), 2.0)));
        assert_eq!(h.pop_min(), Some((c(1), 5.0)));
    }

    #[test]
    fn remove_makes_entries_stale() {
        let mut h = LazyMinHeap::new(3);
        h.upsert(c(1), 1.0);
        h.upsert(c(2), 2.0);
        h.remove(c(1));
        assert!(!h.contains(c(1)));
        assert_eq!(h.len(), 1);
        assert_eq!(h.peek_min(), Some((c(2), 2.0)));
    }

    #[test]
    fn remove_absent_is_noop() {
        let mut h: LazyMinHeap = LazyMinHeap::new(2);
        h.remove(c(1));
        assert!(h.is_empty());
    }

    #[test]
    fn equal_priorities_break_by_id() {
        let mut h = LazyMinHeap::new(4);
        h.upsert(c(3), 1.0);
        h.upsert(c(1), 1.0);
        h.upsert(c(2), 1.0);
        assert_eq!(h.pop_min().unwrap().0, c(1));
        assert_eq!(h.pop_min().unwrap().0, c(2));
        assert_eq!(h.pop_min().unwrap().0, c(3));
    }

    #[test]
    #[should_panic(expected = "NaN priority")]
    fn nan_rejected() {
        LazyMinHeap::new(2).upsert(c(1), f64::NAN);
    }

    #[test]
    fn composite_tuple_priorities_order_lexicographically() {
        // Integer policies encode (count, last_ref, id)-style chains as
        // tuple priorities; the heap must honour the lexicographic order.
        let mut h: LazyMinHeap<(u64, u64)> = LazyMinHeap::new(4);
        h.upsert(c(1), (2, 5));
        h.upsert(c(2), (1, 9));
        h.upsert(c(3), (1, 3));
        assert_eq!(h.pop_min(), Some((c(3), (1, 3))));
        assert_eq!(h.pop_min(), Some((c(2), (1, 9))));
        assert_eq!(h.pop_min(), Some((c(1), (2, 5))));
    }

    #[test]
    fn matches_btree_reference_on_random_ops() {
        use clipcache_workload::Pcg64;
        use std::collections::BTreeMap;
        let mut rng = Pcg64::seed_from_u64(99);
        let n = 64;
        let mut heap = LazyMinHeap::new(n);
        // Reference: map clip -> priority; min by (priority, id).
        let mut reference: BTreeMap<u32, f64> = BTreeMap::new();
        for _ in 0..5_000 {
            match rng.next_bounded(3) {
                0 => {
                    let id = rng.next_bounded(n as u64) as u32 + 1;
                    let p = (rng.next_bounded(1000) as f64) / 10.0;
                    heap.upsert(c(id), p);
                    reference.insert(id, p);
                }
                1 => {
                    let id = rng.next_bounded(n as u64) as u32 + 1;
                    heap.remove(c(id));
                    reference.remove(&id);
                }
                _ => {
                    let expect = reference
                        .iter()
                        .map(|(&id, &p)| (p, id))
                        .min_by(|a, b| a.partial_cmp(b).unwrap());
                    let got = heap.peek_min();
                    match (expect, got) {
                        (None, None) => {}
                        (Some((p, id)), Some((clip, gp))) => {
                            assert_eq!(clip, c(id));
                            assert_eq!(gp, p);
                        }
                        other => panic!("mismatch: {other:?}"),
                    }
                }
            }
            assert_eq!(heap.len(), reference.len());
        }
    }
}
