//! Reference test for the victim index.
//!
//! [`VictimIndex`] answers from a lazy heap or a scan and switches
//! between them by the tie bands it drains; neither choice may change a
//! decision. `Reference` below is the index's semantics as a plain
//! linear scan over a dense score table:
//!
//! * `pop_min` / `peek_min` take the smallest `(score, id)`;
//! * `pop_min_tied` collects, in id order, every clip whose score lies
//!   within the tie rule's band above the minimum, and draws among them
//!   exactly as the index does (one draw, or none for a lone clip unless
//!   the rule says otherwise).
//!
//! Arbitrary upsert/remove/peek/pop/pop-tied sequences drive the index
//! and the reference side by side on `f64` and tuple scores. The float
//! runs alternate between phases of coarse scores (wide bands, which
//! move the index to the scan) and distinct scores (narrow bands, which
//! move it back to the heap), so both structures answer and the index
//! switches each way; the long seeded replay checks that it does.
//!
//! The policy-level pairs build every registry policy that ranks its
//! victims in an index (or the recency list) from its spelling and from
//! the legacy `@scan`/`@heap` spellings older snapshots stored, on a
//! variable-sized and an equi-sized repository, and require identical
//! outcomes.

use clipcache::core::victim_index::{TieRule, VictimIndex};
use clipcache::core::{PolicyKind, PolicySpec};
use clipcache::media::{Bandwidth, ByteSize, ClipId, MediaType, Repository, RepositoryBuilder};
use clipcache::workload::{Pcg64, Timestamp};
use proptest::prelude::*;
use std::sync::Arc;

/// Clip slots in the index runs: enough residents that a lone tied clip
/// is a narrow band.
const CLIPS: usize = 160;

const RULES: [TieRule; 3] = [
    TieRule::EXACT,
    TieRule {
        rel_eps: 1e-9,
        rng_on_single: false,
    },
    TieRule {
        rel_eps: 0.0,
        rng_on_single: true,
    },
];

/// The index's semantics as a linear scan.
struct Reference<P> {
    scores: Vec<Option<P>>,
}

impl<P: PartialOrd + Copy + std::fmt::Debug> Reference<P> {
    fn new(n: usize) -> Self {
        Reference {
            scores: vec![None; n],
        }
    }

    fn len(&self) -> usize {
        self.scores.iter().flatten().count()
    }

    fn upsert(&mut self, clip: ClipId, score: P) {
        self.scores[clip.index()] = Some(score);
    }

    fn remove(&mut self, clip: ClipId) {
        self.scores[clip.index()] = None;
    }

    fn peek_min(&self) -> (ClipId, P) {
        let mut best: Option<(ClipId, P)> = None;
        for (i, score) in self.scores.iter().enumerate() {
            if let Some(p) = *score {
                if best.is_none_or(|(_, b)| p < b) {
                    best = Some((ClipId::from_index(i), p));
                }
            }
        }
        best.expect("peek on an empty reference")
    }

    fn pop_min(&mut self) -> (ClipId, P) {
        let min = self.peek_min();
        self.remove(min.0);
        min
    }
}

impl Reference<f64> {
    fn pop_min_tied(&mut self, rule: TieRule, rng: &mut Pcg64) -> (ClipId, f64) {
        let min = self.peek_min().1;
        let bound = if rule.rel_eps > 0.0 {
            min + rule.rel_eps * min.abs().max(f64::MIN_POSITIVE)
        } else {
            min
        };
        let band: Vec<ClipId> = (0..self.scores.len())
            .filter(|&i| self.scores[i].is_some_and(|p| p <= bound))
            .map(ClipId::from_index)
            .collect();
        let pick = if band.len() == 1 && !rule.rng_on_single {
            band[0]
        } else {
            band[rng.next_index(band.len())]
        };
        self.remove(pick);
        (pick, min)
    }
}

/// What a float run exercised.
#[derive(Debug, Default)]
struct Coverage {
    heap_tied_pops: usize,
    scan_tied_pops: usize,
    to_scan: usize,
    to_heap: usize,
}

/// Replay `ops` as `(op, clip, value)` on a float index and the
/// reference. Scores are coarse (two values, wide bands) in even phases
/// of `phase` ops and distinct (narrow bands) in odd ones.
fn check_float(ops: &[(u8, usize, u32)], phase: usize) -> Result<Coverage, TestCaseError> {
    let mut ix: VictimIndex<f64> = VictimIndex::new(CLIPS);
    let mut reference = Reference::new(CLIPS);
    let (mut rng, mut ref_rng) = (Pcg64::seed_from_u64(5), Pcg64::seed_from_u64(5));
    let (mut ties, mut coverage) = (Vec::new(), Coverage::default());
    for (step, &(op, raw, value)) in ops.iter().enumerate() {
        let clip = ClipId::from_index(raw % CLIPS);
        let wide = (step / phase).is_multiple_of(2);
        let was_on_heap = ix.on_heap();
        match op % 8 {
            0..=3 => {
                let score = if wide {
                    f64::from(value % 2)
                } else {
                    f64::from(value) * CLIPS as f64 + clip.index() as f64
                };
                ix.upsert(clip, score);
                reference.upsert(clip, score);
            }
            4 => {
                ix.remove(clip);
                reference.remove(clip);
            }
            _ if reference.len() == 0 => {}
            5 => prop_assert_eq!(ix.peek_min(), reference.peek_min(), "peek at op {}", step),
            6 if value % 2 == 0 => {
                prop_assert_eq!(ix.pop_min(), reference.pop_min(), "pop at op {}", step)
            }
            _ => {
                let rule = RULES[value as usize % RULES.len()];
                let got = ix.pop_min_tied(rule, &mut rng, &mut ties);
                let want = reference.pop_min_tied(rule, &mut ref_rng);
                prop_assert_eq!(got, want, "tied pop at op {} ({:?})", step, rule);
                if was_on_heap {
                    coverage.heap_tied_pops += 1;
                } else {
                    coverage.scan_tied_pops += 1;
                }
            }
        }
        prop_assert_eq!(ix.len(), reference.len(), "len at op {}", step);
        prop_assert_eq!(ix.contains(clip), reference.scores[clip.index()].is_some());
        match (was_on_heap, ix.on_heap()) {
            (true, false) => coverage.to_scan += 1,
            (false, true) => coverage.to_heap += 1,
            _ => {}
        }
    }
    // Drain what is left: every remaining pop agrees too.
    while reference.len() > 0 {
        let got = ix.pop_min_tied(TieRule::EXACT, &mut rng, &mut ties);
        prop_assert_eq!(got, reference.pop_min_tied(TieRule::EXACT, &mut ref_rng));
    }
    Ok(coverage)
}

/// Replay `ops` on a tuple-scored index (which never ties, so never
/// leaves its heap) and the reference.
fn check_tuple(ops: &[(u8, usize, u32)]) -> Result<(), TestCaseError> {
    let mut ix: VictimIndex<(u64, u64)> = VictimIndex::new(CLIPS);
    let mut reference = Reference::new(CLIPS);
    for (step, &(op, raw, value)) in ops.iter().enumerate() {
        let clip = ClipId::from_index(raw % CLIPS);
        match op % 6 {
            0..=2 => {
                let score = (u64::from(value % 3), u64::from(value % 5));
                ix.upsert(clip, score);
                reference.upsert(clip, score);
            }
            3 => {
                ix.remove(clip);
                reference.remove(clip);
            }
            _ if reference.len() == 0 => {}
            4 => prop_assert_eq!(ix.peek_min(), reference.peek_min(), "peek at op {}", step),
            _ => prop_assert_eq!(ix.pop_min(), reference.pop_min(), "pop at op {}", step),
        }
        prop_assert_eq!(ix.len(), reference.len(), "len at op {}", step);
        prop_assert!(ix.on_heap(), "a score that cannot tie stays on the heap");
    }
    Ok(())
}

#[test]
fn the_index_matches_the_reference_through_switches_each_way() {
    let mut rng = Pcg64::seed_from_u64(0x5EED_2007);
    let ops: Vec<(u8, usize, u32)> = (0..20_000)
        .map(|_| {
            let op = rng.next_bounded(256) as u8;
            (op, rng.next_index(CLIPS), rng.next_bounded(1 << 20) as u32)
        })
        .collect();
    let coverage = check_float(&ops, 400).unwrap_or_else(|e| panic!("{e:?}"));
    assert!(coverage.to_scan >= 2, "{coverage:?}");
    assert!(coverage.to_heap >= 2, "{coverage:?}");
    assert!(coverage.heap_tied_pops > 100, "{coverage:?}");
    assert!(coverage.scan_tied_pops > 100, "{coverage:?}");
    check_tuple(&ops).unwrap_or_else(|e| panic!("{e:?}"));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn float_index_matches_the_reference(
        ops in proptest::collection::vec((any::<u8>(), 0usize..CLIPS, any::<u32>()), 1..1_500),
        phase in 16usize..300,
    ) {
        check_float(&ops, phase)?;
    }

    #[test]
    fn tuple_index_matches_the_reference(
        ops in proptest::collection::vec((any::<u8>(), 0usize..CLIPS, any::<u32>()), 1..800),
    ) {
        check_tuple(&ops)?;
    }
}

/// Every registry policy whose `@heap` spelling parses: those that rank
/// victims in a victim index, and the recency kinds.
fn indexed_kinds() -> Vec<PolicyKind> {
    vec![
        PolicyKind::Random,
        PolicyKind::Lru,
        PolicyKind::Mru,
        PolicyKind::Fifo,
        PolicyKind::Lfu,
        PolicyKind::LfuDa,
        PolicyKind::Size,
        PolicyKind::LruK { k: 2 },
        PolicyKind::LruK { k: 3 },
        PolicyKind::LruKCrp { k: 2, crp: 3 },
        PolicyKind::GreedyDual,
        PolicyKind::GreedyDualFetchTime { mbps: 1 },
        PolicyKind::GreedyDualPackets,
        PolicyKind::GreedyDualLatency { mbps: 1 },
        PolicyKind::GdFreq,
        PolicyKind::GdsPopularity,
    ]
}

fn build_repo(sizes_mb: &[u64]) -> Arc<Repository> {
    let mut b = RepositoryBuilder::new();
    for &mb in sizes_mb {
        b = b.push(MediaType::Video, ByteSize::mb(mb), Bandwidth::mbps(4));
    }
    Arc::new(b.build().expect("non-empty positive sizes"))
}

fn check_spellings_decide_alike(
    repo: &Arc<Repository>,
    capacity: ByteSize,
    trace: &[usize],
    seed: u64,
) -> Result<(), TestCaseError> {
    let n = repo.len();
    for kind in indexed_kinds() {
        let mut caches: Vec<_> = ["", "@scan", "@heap"]
            .iter()
            .map(|suffix| {
                let spec: PolicySpec = format!("{}{suffix}", kind.spelling()).parse().unwrap();
                spec.build(Arc::clone(repo), capacity, seed, None)
            })
            .collect();
        for cache in &caches {
            prop_assert_eq!(cache.name(), kind.to_string());
        }
        for (i, &raw) in trace.iter().enumerate() {
            let clip = ClipId::from_index(raw % n);
            let now = Timestamp(i as u64 + 1);
            let outcomes: Vec<_> = caches.iter_mut().map(|c| c.access(clip, now)).collect();
            prop_assert_eq!(&outcomes[0], &outcomes[1], "{}: request {}", kind, i);
            prop_assert_eq!(&outcomes[0], &outcomes[2], "{}: request {}", kind, i);
        }
        let resident: Vec<_> = caches.iter().map(|c| c.resident_clips()).collect();
        prop_assert_eq!(&resident[0], &resident[1], "{}", kind);
        prop_assert_eq!(&resident[0], &resident[2], "{}", kind);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn legacy_spellings_decide_alike_on_variable_sizes(
        sizes_mb in proptest::collection::vec(1u64..50, 3..9),
        capacity_mb in 5u64..120,
        trace in proptest::collection::vec(0usize..9, 30..150),
        seed in 0u64..10_000,
    ) {
        let repo = build_repo(&sizes_mb);
        check_spellings_decide_alike(&repo, ByteSize::mb(capacity_mb), &trace, seed)?;
    }

    #[test]
    fn legacy_spellings_decide_alike_on_equi_sizes(
        n_clips in 3usize..9,
        capacity_clips in 1u64..8,
        trace in proptest::collection::vec(0usize..9, 30..150),
        seed in 0u64..10_000,
    ) {
        // Equal sizes maximize score ties, the case that moves the
        // GreedyDual family's index to its scan.
        let repo = build_repo(&vec![10u64; n_clips]);
        check_spellings_decide_alike(&repo, ByteSize::mb(capacity_clips * 10), &trace, seed)?;
    }
}
