//! Pluggable victim selection: one index, two byte-identical backends.
//!
//! Every eviction decision in this crate reduces to "remove and return
//! the resident clip with the smallest score". [`VictimIndex`] owns that
//! question behind a [`VictimBackend`] switch:
//!
//! * [`VictimBackend::Scan`] — the linear scan the paper's reference
//!   implementations use (and the baseline every figure was recorded
//!   with). It walks only the scored clips, via a bit set in id
//!   order, so one scan costs O(scored + n/64) for `n` clip slots;
//! * [`VictimBackend::Heap`] — the lazy-deletion min-heap
//!   ([`crate::heap::LazyMinHeap`]) the paper's conclusion proposes
//!   ("tree-based data structures to minimize the complexity of
//!   identifying a victim"), amortized O(log n) per operation.
//!
//! The two backends are **decision-identical**, not merely statistically
//! equivalent: for totally-ordered composite scores both resolve ties by
//! smallest clip id, and for the GreedyDual family's float scores
//! [`VictimIndex::pop_min_tied`] reconstructs the exact scan-order tie
//! set (including the relative-epsilon bound and the RNG draw) before
//! picking, so the same seeds produce the same victims, the same
//! inflation values and the same figure CSVs under either backend. The
//! backend-equivalence proptests in `tests/backend_equivalence.rs` and
//! the CI figure-drift job both enforce this.
//!
//! ## Which policies can use the heap?
//!
//! A policy is *heap-eligible* when a resident clip's score only changes
//! on accesses to that clip (access-local scores): the index is updated
//! at the point of access and stays valid in between. Policies whose
//! scores drift with time or with *other* clips' accesses (IGD's
//! `1/d₁(x)` aging, LRU-SK's `d_K(x)·size` product, BlockLruK's
//! block-level state) would need a full re-index per eviction, so they
//! stay on the scan backend — see the taxonomy table in
//! [`crate::policies`] and the "choosing a victim-index backend" section
//! of `docs/extending.md`. DYNSimple's arrival-rate ranking drifts too,
//! but only as a whole: residents with the same retained-stamp count and
//! size never change order. It uses neither backend and keeps its own
//! exact rank index over those groups
//! ([`crate::policies::dyn_simple`]).
//!
//! Lazy deletion trades memory for speed: hit-heavy workloads grow stale
//! heap entries between evictions (bounded by the number of accesses
//! since the last compaction pop). That is the documented cost of the
//! heap backend; the scan backend allocates nothing after construction.

use crate::clip_set::ClipSet;
use crate::heap::LazyMinHeap;
use clipcache_media::ClipId;
use clipcache_workload::Pcg64;
use std::cmp::Ordering;

/// Which data structure answers victim queries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum VictimBackend {
    /// Linear scan over the scored clips, O(scored + n/64) (the paper's
    /// baseline).
    #[default]
    Scan,
    /// Amortized O(log n) lazy-deletion min-heap.
    Heap,
}

impl VictimBackend {
    /// The spelling used in policy suffixes (`@scan` / `@heap`).
    pub fn spelling(self) -> &'static str {
        match self {
            VictimBackend::Scan => "scan",
            VictimBackend::Heap => "heap",
        }
    }
}

impl std::fmt::Display for VictimBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.spelling())
    }
}

impl std::str::FromStr for VictimBackend {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "scan" => Ok(VictimBackend::Scan),
            "heap" => Ok(VictimBackend::Heap),
            other => Err(format!("unknown victim backend `{other}` (scan|heap)")),
        }
    }
}

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

/// A score index over resident clips with a pluggable backend.
///
/// The index stores one score per resident clip (dense, by
/// [`ClipId::index`]) and answers pop-the-minimum queries; a bit set
/// marks the scored slots for the scan backend to walk, and under the
/// heap backend a [`LazyMinHeap`] mirrors the scores. Scores order by
/// `(P, clip id)` so equal-score pops are deterministic and identical
/// across backends.
#[derive(Debug, Clone)]
pub struct VictimIndex<P = f64> {
    scores: Vec<Option<P>>,
    /// Exactly the clips whose `scores` slot is `Some`.
    scored: ClipSet,
    heap: Option<LazyMinHeap<P>>,
}

impl<P: PartialOrd + Copy> VictimIndex<P> {
    /// An empty index over `n_clips` clip slots.
    pub fn new(backend: VictimBackend, n_clips: usize) -> Self {
        VictimIndex {
            scores: vec![None; n_clips],
            scored: ClipSet::new(n_clips),
            heap: match backend {
                VictimBackend::Scan => None,
                VictimBackend::Heap => Some(LazyMinHeap::new(n_clips)),
            },
        }
    }

    /// The backend this index runs on.
    pub fn backend(&self) -> VictimBackend {
        if self.heap.is_some() {
            VictimBackend::Heap
        } else {
            VictimBackend::Scan
        }
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
        if let Some(heap) = &mut self.heap {
            heap.upsert(clip, score);
        }
    }

    /// Drop `clip` from the index (no-op if absent).
    pub fn remove(&mut self, clip: ClipId) {
        if self.scored.remove(clip) {
            self.scores[clip.index()] = None;
            if let Some(heap) = &mut self.heap {
                heap.remove(clip);
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
        match &mut self.heap {
            Some(heap) => heap.peek_min(),
            None => self.scan_min(),
        }
        .expect("eviction requested from an empty cache")
    }

    /// Remove and return the clip with the smallest `(score, id)`.
    ///
    /// # Panics
    /// If the index is empty.
    pub fn pop_min(&mut self) -> (ClipId, P) {
        let (clip, score) = match &mut self.heap {
            Some(heap) => heap.pop_min(),
            None => self.scan_min(),
        }
        .expect("eviction requested from an empty cache");
        self.scores[clip.index()] = None;
        self.scored.remove(clip);
        (clip, score)
    }

    /// The scored clips with their scores, in ascending id order.
    fn iter_scored(&self) -> impl Iterator<Item = (ClipId, P)> + '_ {
        self.scored.iter().map(|clip| {
            let score = self.scores[clip.index()].expect("scored clip has a score");
            (clip, score)
        })
    }

    /// The scan backend's minimum: strictly-less over the scored clips in
    /// id order keeps the first (lowest-id) minimum, the same tie-break
    /// the heap's entry order encodes.
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
}

impl VictimIndex<f64> {
    /// Remove and return a victim among the clips tied (per `rule`) for
    /// the minimum score, plus the raw minimum itself (the GreedyDual
    /// family's inflation update value).
    ///
    /// Both backends materialize the identical tie set — all scored clips
    /// within `rule`'s band above the minimum, in ascending id order —
    /// and apply the identical RNG draw, so victim choice and RNG stream
    /// consumption are byte-identical across backends.
    ///
    /// # Panics
    /// If the index is empty.
    pub fn pop_min_tied(
        &mut self,
        rule: TieRule,
        rng: &mut Pcg64,
        ties: &mut Vec<ClipId>,
    ) -> (ClipId, f64) {
        ties.clear();
        let min = match &mut self.heap {
            Some(heap) => {
                let (first, min) = heap
                    .pop_min()
                    .expect("eviction requested from an empty cache");
                ties.push(first);
                let bound = rule.bound(min);
                while let Some((clip, p)) = heap.peek_min() {
                    if p <= bound {
                        heap.pop_min();
                        ties.push(clip);
                    } else {
                        break;
                    }
                }
                // The heap surfaces ties in (score, id) order; the scan
                // collects them in id order. Sort so the RNG draw lands
                // on the same clip under either backend.
                ties.sort_unstable();
                min
            }
            None => {
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
            }
        };
        assert!(!ties.is_empty(), "eviction requested from an empty cache");
        let pick = if ties.len() == 1 && !rule.rng_on_single {
            ties[0]
        } else {
            ties[rng.next_index(ties.len())]
        };
        if let Some(heap) = &mut self.heap {
            // Re-file the tied losers at their stored scores.
            for &clip in ties.iter() {
                if clip != pick {
                    let score =
                        self.scores[clip.index()].expect("tied clip must have a stored score");
                    heap.upsert(clip, score);
                }
            }
        }
        self.scores[pick.index()] = None;
        self.scored.remove(pick);
        (pick, min)
    }

    /// Rewrite every stored score in place (the naive GreedyDual
    /// formulation subtracts `h_min` from all residents after each
    /// eviction).
    ///
    /// # Panics
    /// On the heap backend: a bulk rescale would invalidate every heap
    /// entry, which is exactly why score-rescaling policies are not
    /// heap-eligible.
    pub fn rescale(&mut self, f: impl Fn(f64) -> f64) {
        assert!(
            self.heap.is_none(),
            "bulk score rescaling is only supported on the scan backend"
        );
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
        for backend in [VictimBackend::Scan, VictimBackend::Heap] {
            let mut ix: VictimIndex<(u64, u64)> = VictimIndex::new(backend, 5);
            ix.upsert(c(1), (2, 0));
            ix.upsert(c(4), (1, 7));
            ix.upsert(c(2), (1, 7));
            assert_eq!(ix.pop_min(), (c(2), (1, 7)), "{backend}");
            assert_eq!(ix.pop_min(), (c(4), (1, 7)), "{backend}");
            assert_eq!(ix.pop_min(), (c(1), (2, 0)), "{backend}");
            assert!(ix.is_empty());
        }
    }

    #[test]
    fn upsert_replaces_score() {
        for backend in [VictimBackend::Scan, VictimBackend::Heap] {
            let mut ix: VictimIndex<f64> = VictimIndex::new(backend, 4);
            ix.upsert(c(1), 1.0);
            ix.upsert(c(2), 2.0);
            ix.upsert(c(1), 5.0);
            assert_eq!(ix.len(), 2);
            assert_eq!(ix.score_of(c(1)), Some(5.0));
            assert_eq!(ix.pop_min(), (c(2), 2.0), "{backend}");
        }
    }

    #[test]
    fn remove_unscores() {
        for backend in [VictimBackend::Scan, VictimBackend::Heap] {
            let mut ix: VictimIndex<f64> = VictimIndex::new(backend, 4);
            ix.upsert(c(1), 1.0);
            ix.upsert(c(2), 2.0);
            ix.remove(c(1));
            ix.remove(c(3)); // absent: no-op
            assert!(!ix.contains(c(1)));
            assert_eq!(ix.pop_min(), (c(2), 2.0), "{backend}");
        }
    }

    #[test]
    fn tied_pop_consumes_identical_rng_across_backends() {
        // Three exact ties + one near-tie within the GreedyDual epsilon:
        // both backends must draw the same index from the same stream.
        let scores = [(1, 5.0), (2, 1.0), (3, 1.0 + 1e-12), (4, 1.0), (5, 3.0)];
        let run = |backend: VictimBackend| {
            let mut ix: VictimIndex<f64> = VictimIndex::new(backend, 6);
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
        let scan = run(VictimBackend::Scan);
        let heap = run(VictimBackend::Heap);
        assert_eq!(scan, heap);
        assert_eq!(scan.len(), 5);
        // The first three pops drain the tie band {2, 3, 4}.
        let band: Vec<u32> = vec![2, 3, 4];
        let mut drained: Vec<u32> = scan
            .iter()
            .take(3)
            .map(|(cl, _)| cl.index() as u32 + 1)
            .collect();
        drained.sort_unstable();
        assert_eq!(drained, band);
    }

    #[test]
    fn singleton_tie_skips_rng_unless_told_not_to() {
        for backend in [VictimBackend::Scan, VictimBackend::Heap] {
            let mut ix: VictimIndex<f64> = VictimIndex::new(backend, 3);
            ix.upsert(c(1), 1.0);
            ix.upsert(c(2), 2.0);
            let mut a = Pcg64::seed_from_u64(1);
            let mut b = Pcg64::seed_from_u64(1);
            let mut scratch = Vec::new();
            ix.pop_min_tied(GD_RULE, &mut a, &mut scratch);
            // GreedyDual rule: untouched stream on a singleton.
            assert_eq!(a.next_u64(), b.next_u64());

            let mut ix2: VictimIndex<f64> = VictimIndex::new(backend, 3);
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
    fn random_backend_equivalence_on_driven_ops() {
        // Randomized op sequence: scan and heap stay decision-identical.
        let mut rng = Pcg64::seed_from_u64(0xABCD);
        let n = 32;
        let mut scan: VictimIndex<f64> = VictimIndex::new(VictimBackend::Scan, n);
        let mut heap: VictimIndex<f64> = VictimIndex::new(VictimBackend::Heap, n);
        let mut scan_rng = Pcg64::seed_from_u64_stream(3, 17);
        let mut heap_rng = Pcg64::seed_from_u64_stream(3, 17);
        let (mut s1, mut s2) = (Vec::new(), Vec::new());
        for _ in 0..4_000 {
            match rng.next_bounded(4) {
                0 | 1 => {
                    let id = rng.next_bounded(n as u64) as u32 + 1;
                    // Coarse priorities to force frequent exact ties.
                    let p = rng.next_bounded(4) as f64;
                    scan.upsert(c(id), p);
                    heap.upsert(c(id), p);
                }
                2 => {
                    let id = rng.next_bounded(n as u64) as u32 + 1;
                    scan.remove(c(id));
                    heap.remove(c(id));
                }
                _ => {
                    if !scan.is_empty() {
                        let a = scan.pop_min_tied(TieRule::EXACT, &mut scan_rng, &mut s1);
                        let b = heap.pop_min_tied(TieRule::EXACT, &mut heap_rng, &mut s2);
                        assert_eq!(a, b);
                    }
                }
            }
            assert_eq!(scan.len(), heap.len());
            assert_scored_matches_scores(&scan);
            assert_scored_matches_scores(&heap);
        }
    }

    #[test]
    fn peek_then_remove_is_decision_identical_to_pop() {
        // Randomized ops: at every drain step, peek+remove must choose the
        // same victim as pop_min, on both backends.
        let mut rng = Pcg64::seed_from_u64(0x9E37);
        for backend in [VictimBackend::Scan, VictimBackend::Heap] {
            let mut peeked: VictimIndex<(u64, u64)> = VictimIndex::new(backend, 24);
            let mut popped: VictimIndex<(u64, u64)> = VictimIndex::new(backend, 24);
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
                            assert_eq!(a, b, "{backend}");
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
    fn word_straddling_ties(backend: VictimBackend) -> VictimIndex<f64> {
        let mut ix = VictimIndex::new(backend, 130);
        for i in [128, 65, 64, 63, 62] {
            ix.upsert(ClipId::from_index(i), 2.0);
        }
        ix.upsert(ClipId::from_index(0), 3.0);
        ix.upsert(ClipId::from_index(129), 3.0);
        ix
    }

    #[test]
    fn ties_across_words_pop_lowest_id() {
        for backend in [VictimBackend::Scan, VictimBackend::Heap] {
            let mut ix = word_straddling_ties(backend);
            let order: Vec<usize> = (0..7).map(|_| ix.pop_min().0.index()).collect();
            assert_eq!(order, [62, 63, 64, 65, 128, 0, 129], "{backend}");
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
                for backend in [VictimBackend::Scan, VictimBackend::Heap] {
                    let mut ix = word_straddling_ties(backend);
                    let mut rng = Pcg64::seed_from_u64(seed);
                    let (pick, min) = ix.pop_min_tied(rule, &mut rng, &mut Vec::new());
                    assert_eq!((pick.index(), min), (want, 2.0), "{backend} {rule:?}");
                    // Same stream consumption: one draw.
                    assert_eq!(rng.next_u64(), next, "{backend} {rule:?}");
                    assert_eq!(ix.len(), 6);
                }
            }
        }
    }

    #[test]
    fn rescale_shifts_scan_scores() {
        let mut ix: VictimIndex<f64> = VictimIndex::new(VictimBackend::Scan, 3);
        ix.upsert(c(1), 3.0);
        ix.upsert(c(2), 5.0);
        ix.rescale(|p| p - 3.0);
        assert_eq!(ix.score_of(c(1)), Some(0.0));
        assert_eq!(ix.score_of(c(2)), Some(2.0));
    }

    #[test]
    #[should_panic(expected = "only supported on the scan backend")]
    fn rescale_rejected_on_heap() {
        let mut ix: VictimIndex<f64> = VictimIndex::new(VictimBackend::Heap, 3);
        ix.upsert(c(1), 3.0);
        ix.rescale(|p| p - 1.0);
    }

    #[test]
    #[should_panic(expected = "empty cache")]
    fn pop_from_empty_panics() {
        let mut ix: VictimIndex<f64> = VictimIndex::new(VictimBackend::Scan, 2);
        ix.pop_min();
    }

    #[test]
    fn backend_round_trips_spelling() {
        for backend in [VictimBackend::Scan, VictimBackend::Heap] {
            assert_eq!(
                backend.spelling().parse::<VictimBackend>().unwrap(),
                backend
            );
        }
        assert!("tree".parse::<VictimBackend>().is_err());
    }
}
