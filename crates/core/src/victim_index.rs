//! Victim selection: one index that picks its own structure.
//!
//! Every eviction decision in this crate reduces to "remove and return
//! the resident clip with the smallest score". [`VictimIndex`] owns that
//! question. It keeps one score per resident clip and answers it from
//! one of two structures:
//!
//! * a **heap** — the lazy-deletion min-heap ([`crate::heap::LazyMinHeap`])
//!   the paper's conclusion proposes ("tree-based data structures to
//!   minimize the complexity of identifying a victim"), amortized
//!   O(log n) per update and per pop;
//! * a **scan** — the linear walk the paper's reference implementations
//!   use. It walks only the scored clips, via a bit set in id order, so
//!   one scan costs O(scored + n/64) for `n` clip slots, while an update
//!   costs O(1).
//!
//! ## How the index picks
//!
//! There is no option: the index measures. A tied pop
//! ([`VictimIndex::pop_min_tied`], the GreedyDual family and Random)
//! drains the whole band of clips tied for the minimum, so its cost on
//! the heap grows with the band, while the scan pays for every resident
//! whatever the band. Each tied pop of `w` clips among `n` residents is
//! charged `w · BAND_COST / n − 1` scans to the heap's account (what the
//! heap would have cost beyond the scan; negative when the heap is
//! cheaper), clamped to ±[`SWITCH_SCANS`], and the index moves to the
//! heap or the scan when the account reaches either end. Heap → scan
//! drops the heap's entries, keeping its allocation; scan → heap
//! rebuilds it in place from the stored scores. One cache-wide band
//! (`w ≈ n`) outweighs many narrow ones, as it does in time. An index
//! that only ever pops by `(score, id)` ([`pop_min`], [`peek_min`]: LFU,
//! LFU-DA, LRU-K, SIZE) is never charged and stays on the heap: its
//! composite scores end in the clip id, so they cannot tie.
//! [`BAND_COST`] comes from timing 20k-request Zipf replays on one CPU:
//! the heap won where mean bands held up to 1/32 of the residents and
//! lost from 1/18 up, so the break-even is set at 1/24 (see
//! `EXPERIMENTS.md`).
//!
//! The two structures are **decision-identical**, so a switch at any
//! pop changes nothing observable: both order by `(score, clip id)`, and
//! for the float scores [`VictimIndex::pop_min_tied`] reconstructs the
//! exact scan-order tie set (including the relative-epsilon bound and
//! the RNG draw) before picking. The same seeds produce the same
//! victims, the same inflation values and the same figure CSVs
//! whichever structure answered; `tests/victim_index_reference.rs`
//! drives the index against a plain scan reference through switches in
//! both directions.
//!
//! [`pop_min`]: VictimIndex::pop_min
//! [`peek_min`]: VictimIndex::peek_min
//!
//! ## Which policies use the index?
//!
//! Those whose score only changes on accesses to the scored clip
//! (access-local scores): the index is updated at the point of access
//! and stays valid in between. Policies whose scores drift with time or
//! with *other* clips' accesses (IGD's `1/d₁(x)` aging, LRU-SK's
//! `d_K(x)·size` product, BlockLruK's block-level state) re-rank on every
//! eviction instead — see the taxonomy table in [`crate::policies`] and
//! "How the victim index picks its structure" in `docs/extending.md`.
//! DYNSimple's arrival-rate ranking drifts too, but only as a whole:
//! residents with the same retained-stamp count and size never change
//! order, so it keeps its own exact rank index over those groups
//! ([`crate::policies::dyn_simple`]). LRU, MRU and FIFO have
//! access-local keys too, but a clip's new key is almost always the
//! largest, so they build a sorted recency list instead, with an O(1)
//! victim ([`crate::policies::lru`]). Naive GreedyDual rescales every
//! score after each pop ([`VictimIndex::rescale`]), which drops the heap,
//! so it always runs on the scan.

use crate::clip_set::ClipSet;
use crate::heap::LazyMinHeap;
use clipcache_media::ClipId;
use clipcache_workload::Pcg64;
use std::cmp::Ordering;

/// A tied pop drains a band of `w` clips on the heap for about what a
/// scan over `w * BAND_COST` residents costs.
pub const BAND_COST: f64 = 24.0;

/// How far, in scans, one structure must pull ahead of the other over
/// recent tied pops before the index switches to it.
pub const SWITCH_SCANS: f64 = 4.0;

/// How a float-scored policy resolves score ties (GreedyDual family).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TieRule {
    /// Relative epsilon widening the tie band around the minimum
    /// (GreedyDual uses `1e-9` to absorb inflation round-off; exact-tie
    /// policies use `0.0`).
    pub rel_eps: f64,
    /// Whether the RNG is consumed even for a singleton tie set (Random
    /// draws unconditionally; the GreedyDual family only on real ties).
    pub rng_on_single: bool,
}

impl TieRule {
    /// Exact-equality ties, RNG only on real ties (GD-Freq, GDS-Pop).
    pub const EXACT: TieRule = TieRule {
        rel_eps: 0.0,
        rng_on_single: false,
    };

    /// The inclusive upper bound of the tie band for a given minimum.
    fn bound(&self, min: f64) -> f64 {
        if self.rel_eps > 0.0 {
            min + self.rel_eps * min.abs().max(f64::MIN_POSITIVE)
        } else {
            min
        }
    }
}

/// A score index over resident clips.
///
/// The index stores one score per resident clip (dense, by
/// [`ClipId::index`]) and answers pop-the-minimum queries; a bit set
/// marks the scored slots for the scan to walk, and while the index is on
/// the heap a [`LazyMinHeap`] mirrors the scores. Scores order by
/// `(P, clip id)`, so equal-score pops are deterministic and identical
/// on either structure.
#[derive(Debug, Clone)]
pub struct VictimIndex<P = f64> {
    scores: Vec<Option<P>>,
    /// Exactly the clips whose `scores` slot is `Some`.
    scored: ClipSet,
    /// Mirrors `scores` while `on_heap`; empty otherwise.
    heap: LazyMinHeap<P>,
    on_heap: bool,
    /// What recent tied pops cost on the heap beyond the scan, in scans,
    /// clamped to `±SWITCH_SCANS`: negative favours the heap.
    balance: f64,
}

impl<P: PartialOrd + Copy> VictimIndex<P> {
    /// An empty index over `n_clips` clip slots (it starts on the heap).
    pub fn new(n_clips: usize) -> Self {
        VictimIndex {
            scores: vec![None; n_clips],
            scored: ClipSet::new(n_clips),
            heap: LazyMinHeap::new(n_clips),
            on_heap: true,
            balance: 0.0,
        }
    }

    /// Whether the heap currently answers victim queries (otherwise the
    /// scan does). Decisions never depend on it.
    pub fn on_heap(&self) -> bool {
        self.on_heap
    }

    /// Number of scored (resident) clips.
    #[inline]
    pub fn len(&self) -> usize {
        self.scored.len()
    }

    /// True when no clips are scored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.scored.is_empty()
    }

    /// Whether `clip` is currently scored.
    #[inline]
    pub fn contains(&self, clip: ClipId) -> bool {
        self.scores[clip.index()].is_some()
    }

    /// The current score of `clip`, if scored.
    #[inline]
    pub fn score_of(&self, clip: ClipId) -> Option<P> {
        self.scores[clip.index()]
    }

    /// Insert `clip` or update its score.
    pub fn upsert(&mut self, clip: ClipId, score: P) {
        self.scored.insert(clip);
        self.scores[clip.index()] = Some(score);
        if self.on_heap {
            self.heap.upsert(clip, score);
        }
    }

    /// Drop `clip` from the index (no-op if absent).
    pub fn remove(&mut self, clip: ClipId) {
        if self.scored.remove(clip) {
            self.scores[clip.index()] = None;
            if self.on_heap {
                self.heap.remove(clip);
            }
        }
    }

    /// Return (without removing) the clip with the smallest `(score, id)`.
    ///
    /// Decision-identical to [`pop_min`](Self::pop_min) followed by
    /// re-inserting the same entry: the chunk-trimming admit path peeks
    /// its victim and deregisters it via [`remove`](Self::remove) only
    /// once the clip is fully gone, so a partially trimmed victim stays
    /// ranked for the next miss.
    ///
    /// # Panics
    /// If the index is empty.
    pub fn peek_min(&mut self) -> (ClipId, P) {
        if self.on_heap {
            self.heap.peek_min()
        } else {
            self.scan_min()
        }
        .expect("eviction requested from an empty cache")
    }

    /// Remove and return the clip with the smallest `(score, id)`.
    ///
    /// # Panics
    /// If the index is empty.
    pub fn pop_min(&mut self) -> (ClipId, P) {
        let (clip, score) = self.peek_min();
        self.remove(clip);
        (clip, score)
    }

    /// The scored clips with their scores, in ascending id order.
    fn iter_scored(&self) -> impl Iterator<Item = (ClipId, P)> + '_ {
        self.scored.iter().map(|clip| {
            let score = self.scores[clip.index()].expect("scored clip has a score");
            (clip, score)
        })
    }

    /// The scan's minimum: strictly-less over the scored clips in id
    /// order keeps the first (lowest-id) minimum, the same tie-break the
    /// heap's entry order encodes.
    fn scan_min(&self) -> Option<(ClipId, P)> {
        let mut best: Option<(ClipId, P)> = None;
        for (clip, p) in self.iter_scored() {
            let better = match best {
                None => true,
                Some((_, bp)) => {
                    p.partial_cmp(&bp).expect("scores must not be NaN") == Ordering::Less
                }
            };
            if better {
                best = Some((clip, p));
            }
        }
        best
    }

    /// Charge one tied pop of `band` clips among `residents` to the
    /// balance, and switch to the structure it has settled on.
    fn charge(&mut self, band: usize, residents: usize) {
        let extra = band as f64 * BAND_COST / residents as f64 - 1.0;
        self.balance = (self.balance + extra).clamp(-SWITCH_SCANS, SWITCH_SCANS);
        if self.balance == SWITCH_SCANS {
            self.switch(false);
        } else if self.balance == -SWITCH_SCANS {
            self.switch(true);
        }
    }

    /// Move to the heap (rebuilt in place from the stored scores) or to
    /// the scan (dropping the heap's entries, keeping its allocation).
    fn switch(&mut self, to_heap: bool) {
        if to_heap == self.on_heap {
            return;
        }
        self.on_heap = to_heap;
        if to_heap {
            let scores = &self.scores;
            self.heap.rebuild(
                self.scored
                    .iter()
                    .map(|clip| (clip, scores[clip.index()].expect("scored clip has a score"))),
            );
        } else {
            self.heap.clear();
        }
    }

    /// Switch to the other structure now (tests: a switch at any point
    /// must change no decision).
    #[cfg(test)]
    pub(crate) fn flip(&mut self) {
        self.switch(!self.on_heap);
    }
}

impl VictimIndex<f64> {
    /// Remove and return a victim among the clips tied (per `rule`) for
    /// the minimum score, plus the raw minimum itself (the GreedyDual
    /// family's inflation update value).
    ///
    /// Both structures materialize the identical tie set — all scored
    /// clips within `rule`'s band above the minimum, in ascending id
    /// order — and apply the identical RNG draw, so victim choice and RNG
    /// stream consumption do not depend on the structure. The band's
    /// width is charged to the choice of structure (see the module docs).
    ///
    /// # Panics
    /// If the index is empty.
    pub fn pop_min_tied(
        &mut self,
        rule: TieRule,
        rng: &mut Pcg64,
        ties: &mut Vec<ClipId>,
    ) -> (ClipId, f64) {
        let residents = self.len();
        ties.clear();
        // A band never outgrows the residents: sizing the scratch to them
        // once keeps a steady resident count allocation-free.
        ties.reserve(residents);
        let min = if self.on_heap {
            let (first, min) = self
                .heap
                .pop_min()
                .expect("eviction requested from an empty cache");
            ties.push(first);
            let bound = rule.bound(min);
            while let Some((clip, p)) = self.heap.peek_min() {
                if p <= bound {
                    self.heap.pop_min();
                    ties.push(clip);
                } else {
                    break;
                }
            }
            // The heap surfaces ties in (score, id) order; the scan
            // collects them in id order. Sort so the RNG draw lands on
            // the same clip on either structure.
            ties.sort_unstable();
            min
        } else {
            let mut min = f64::INFINITY;
            for (_, p) in self.iter_scored() {
                if p < min {
                    min = p;
                }
            }
            let bound = rule.bound(min);
            ties.extend(
                self.iter_scored()
                    .filter(|&(_, p)| p <= bound)
                    .map(|(clip, _)| clip),
            );
            min
        };
        assert!(!ties.is_empty(), "eviction requested from an empty cache");
        let pick = if ties.len() == 1 && !rule.rng_on_single {
            ties[0]
        } else {
            ties[rng.next_index(ties.len())]
        };
        if self.on_heap {
            // Re-file the tied losers at their stored scores.
            for &clip in ties.iter() {
                if clip != pick {
                    let score =
                        self.scores[clip.index()].expect("tied clip must have a stored score");
                    self.heap.upsert(clip, score);
                }
            }
        }
        self.scores[pick.index()] = None;
        self.scored.remove(pick);
        self.charge(ties.len(), residents);
        (pick, min)
    }

    /// Rewrite every stored score in place (the naive GreedyDual
    /// formulation subtracts `h_min` from all residents after each
    /// eviction).
    ///
    /// A bulk rewrite would invalidate every heap entry, so this moves
    /// the index to the scan and clears its balance: an index rescaled
    /// after every pop never gains the [`SWITCH_SCANS`] it takes to
    /// rebuild a heap.
    pub fn rescale(&mut self, f: impl Fn(f64) -> f64) {
        self.switch(false);
        self.balance = 0.0;
        for clip in self.scored.iter() {
            let s = self.scores[clip.index()]
                .as_mut()
                .expect("scored clip has a score");
            *s = f(*s);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clipcache_workload::Pcg64;

    fn c(id: u32) -> ClipId {
        ClipId::new(id)
    }

    const GD_RULE: TieRule = TieRule {
        rel_eps: 1e-9,
        rng_on_single: false,
    };

    /// An empty index pinned to one structure (`heap` or the scan).
    fn pinned<P: PartialOrd + Copy>(heap: bool, n: usize) -> VictimIndex<P> {
        let mut ix = VictimIndex::new(n);
        ix.on_heap = heap;
        ix
    }

    /// The scored set is exactly the dense slots holding a score.
    fn assert_scored_matches_scores<P: PartialOrd + Copy>(ix: &VictimIndex<P>) {
        let dense: Vec<ClipId> = (0..ix.scores.len())
            .filter(|&i| ix.scores[i].is_some())
            .map(ClipId::from_index)
            .collect();
        assert_eq!(ix.scored.iter().collect::<Vec<_>>(), dense);
        assert_eq!(ix.len(), dense.len());
    }

    #[test]
    fn pop_min_orders_by_score_then_id() {
        for heap in [false, true] {
            let mut ix: VictimIndex<(u64, u64)> = pinned(heap, 5);
            ix.upsert(c(1), (2, 0));
            ix.upsert(c(4), (1, 7));
            ix.upsert(c(2), (1, 7));
            assert_eq!(ix.pop_min(), (c(2), (1, 7)), "heap={heap}");
            assert_eq!(ix.pop_min(), (c(4), (1, 7)), "heap={heap}");
            assert_eq!(ix.pop_min(), (c(1), (2, 0)), "heap={heap}");
            assert!(ix.is_empty());
        }
    }

    #[test]
    fn upsert_replaces_score() {
        for heap in [false, true] {
            let mut ix: VictimIndex<f64> = pinned(heap, 4);
            ix.upsert(c(1), 1.0);
            ix.upsert(c(2), 2.0);
            ix.upsert(c(1), 5.0);
            assert_eq!(ix.len(), 2);
            assert_eq!(ix.score_of(c(1)), Some(5.0));
            assert_eq!(ix.pop_min(), (c(2), 2.0), "heap={heap}");
        }
    }

    #[test]
    fn remove_unscores() {
        for heap in [false, true] {
            let mut ix: VictimIndex<f64> = pinned(heap, 4);
            ix.upsert(c(1), 1.0);
            ix.upsert(c(2), 2.0);
            ix.remove(c(1));
            ix.remove(c(3)); // absent: no-op
            assert!(!ix.contains(c(1)));
            assert_eq!(ix.pop_min(), (c(2), 2.0), "heap={heap}");
        }
    }

    #[test]
    fn tied_pop_consumes_identical_rng_on_either_structure() {
        // Three exact ties + one near-tie within the GreedyDual epsilon:
        // both structures must draw the same index from the same stream.
        let scores = [(1, 5.0), (2, 1.0), (3, 1.0 + 1e-12), (4, 1.0), (5, 3.0)];
        let run = |heap: bool| {
            let mut ix: VictimIndex<f64> = pinned(heap, 6);
            for &(id, p) in &scores {
                ix.upsert(c(id), p);
            }
            let mut rng = Pcg64::seed_from_u64_stream(7, 0x6764_7469);
            let mut scratch = Vec::new();
            let mut picks = Vec::new();
            while !ix.is_empty() {
                picks.push(ix.pop_min_tied(GD_RULE, &mut rng, &mut scratch));
            }
            picks
        };
        let scan = run(false);
        assert_eq!(scan, run(true));
        assert_eq!(scan.len(), 5);
        // The first three pops drain the tie band {2, 3, 4}.
        let mut drained: Vec<u32> = scan
            .iter()
            .take(3)
            .map(|(cl, _)| cl.index() as u32 + 1)
            .collect();
        drained.sort_unstable();
        assert_eq!(drained, [2, 3, 4]);
    }

    #[test]
    fn singleton_tie_skips_rng_unless_told_not_to() {
        for heap in [false, true] {
            let mut ix: VictimIndex<f64> = pinned(heap, 3);
            ix.upsert(c(1), 1.0);
            ix.upsert(c(2), 2.0);
            let mut a = Pcg64::seed_from_u64(1);
            let mut b = Pcg64::seed_from_u64(1);
            let mut scratch = Vec::new();
            ix.pop_min_tied(GD_RULE, &mut a, &mut scratch);
            // GreedyDual rule: untouched stream on a singleton.
            assert_eq!(a.next_u64(), b.next_u64());

            let mut ix2: VictimIndex<f64> = pinned(heap, 3);
            ix2.upsert(c(1), 0.0);
            let random_rule = TieRule {
                rel_eps: 0.0,
                rng_on_single: true,
            };
            let mut d = Pcg64::seed_from_u64(1);
            let mut fresh = Pcg64::seed_from_u64(1);
            ix2.pop_min_tied(random_rule, &mut d, &mut scratch);
            // Random rule: the stream advanced even with one resident, so
            // `d` is one draw ahead of an untouched twin.
            assert_ne!(d.next_u64(), fresh.next_u64());
        }
    }

    #[test]
    fn peek_then_remove_is_decision_identical_to_pop() {
        // Randomized ops: at every drain step, peek+remove must choose the
        // same victim as pop_min, on both structures.
        let mut rng = Pcg64::seed_from_u64(0x9E37);
        for heap in [false, true] {
            let mut peeked: VictimIndex<(u64, u64)> = pinned(heap, 24);
            let mut popped: VictimIndex<(u64, u64)> = pinned(heap, 24);
            for _ in 0..2_000 {
                match rng.next_bounded(3) {
                    0 | 1 => {
                        let id = rng.next_bounded(24) as u32 + 1;
                        let p = (rng.next_bounded(5), id as u64);
                        peeked.upsert(c(id), p);
                        popped.upsert(c(id), p);
                    }
                    _ => {
                        if !peeked.is_empty() {
                            let a = peeked.peek_min();
                            peeked.remove(a.0);
                            let b = popped.pop_min();
                            assert_eq!(a, b, "heap={heap}");
                        }
                    }
                }
                assert_eq!(peeked.len(), popped.len());
                assert_scored_matches_scores(&peeked);
            }
        }
    }

    /// Equal scores straddling the scored set's word boundaries (indices
    /// 62–65 and 128), plus a cheaper-than-nothing decoy pair at 0 and 129.
    fn word_straddling_ties(heap: bool) -> VictimIndex<f64> {
        let mut ix = pinned(heap, 130);
        for i in [128, 65, 64, 63, 62] {
            ix.upsert(ClipId::from_index(i), 2.0);
        }
        ix.upsert(ClipId::from_index(0), 3.0);
        ix.upsert(ClipId::from_index(129), 3.0);
        ix
    }

    #[test]
    fn ties_across_words_pop_lowest_id() {
        for heap in [false, true] {
            let mut ix = word_straddling_ties(heap);
            let order: Vec<usize> = (0..7).map(|_| ix.pop_min().0.index()).collect();
            assert_eq!(order, [62, 63, 64, 65, 128, 0, 129], "heap={heap}");
        }
    }

    #[test]
    fn ties_across_words_draw_the_same_clip() {
        let tied = [62, 63, 64, 65, 128];
        for rule in [TieRule::EXACT, GD_RULE] {
            for seed in 0..16 {
                let mut twin = Pcg64::seed_from_u64(seed);
                let want = tied[twin.next_index(tied.len())];
                let next = twin.next_u64();
                for heap in [false, true] {
                    let mut ix = word_straddling_ties(heap);
                    let mut rng = Pcg64::seed_from_u64(seed);
                    let (pick, min) = ix.pop_min_tied(rule, &mut rng, &mut Vec::new());
                    assert_eq!((pick.index(), min), (want, 2.0), "heap={heap} {rule:?}");
                    // Same stream consumption: one draw.
                    assert_eq!(rng.next_u64(), next, "heap={heap} {rule:?}");
                    assert_eq!(ix.len(), 6);
                }
            }
        }
    }

    #[test]
    fn wide_bands_move_the_index_to_the_scan_and_narrow_ones_back() {
        let n = 256;
        let mut ix: VictimIndex<f64> = VictimIndex::new(n);
        let mut rng = Pcg64::seed_from_u64(3);
        let mut ties = Vec::new();
        for i in 0..n {
            ix.upsert(ClipId::from_index(i), 1.0);
        }
        // A pop that drains every resident is charged many scans.
        ix.pop_min_tied(TieRule::EXACT, &mut rng, &mut ties);
        assert!(!ix.on_heap());
        // Distinct scores: each singleton band credits the heap almost
        // one scan, so it takes a few more than 2 · SWITCH_SCANS pops.
        for (rank, clip) in ix.scored.iter().collect::<Vec<_>>().into_iter().enumerate() {
            ix.upsert(clip, 2.0 + rank as f64);
        }
        let mut pops = 0;
        while !ix.on_heap() {
            ix.pop_min_tied(TieRule::EXACT, &mut rng, &mut ties);
            pops += 1;
        }
        let least = (2.0 * SWITCH_SCANS) as usize;
        assert!((least + 1..=least + 2).contains(&pops), "{pops} pops");
        assert_eq!(
            ix.heap.len(),
            ix.len(),
            "the rebuilt heap holds every resident"
        );
    }

    #[test]
    fn rescale_shifts_scores_and_leaves_the_heap() {
        let mut ix: VictimIndex<f64> = VictimIndex::new(3);
        ix.upsert(c(1), 3.0);
        ix.upsert(c(2), 5.0);
        assert!(ix.on_heap());
        ix.rescale(|p| p - 3.0);
        assert!(!ix.on_heap());
        assert!(ix.heap.is_empty());
        assert_eq!(ix.score_of(c(1)), Some(0.0));
        assert_eq!(ix.score_of(c(2)), Some(2.0));
        assert_eq!(ix.pop_min(), (c(1), 0.0));
    }

    #[test]
    #[should_panic(expected = "empty cache")]
    fn pop_from_empty_panics() {
        let mut ix: VictimIndex<f64> = pinned(false, 2);
        ix.pop_min();
    }
}
