//! Property test: the scan and lazy-heap victim-index backends make
//! identical decisions for every heap-eligible policy.
//!
//! The invariant behind it: a heap-eligible policy's victim score changes
//! only on accesses to the scored clip itself, so the lazy heap always
//! holds the same live `(score, clip)` set the scan walks — and the
//! composite tuple priorities encode each policy's full legacy tie-break
//! chain, so even the victim *order* within one miss coincides. Both
//! backends also consume the shared seeded RNG identically on score ties
//! (GreedyDual family, Random), so divergence can never hide in a
//! tie-break.
//!
//! Each pair of caches replays an arbitrary trace and must agree on every
//! [`AccessOutcome`] — hit/miss, admission, and the exact eviction
//! sequence — plus the final residency and the display name.
//!
//! LRU, MRU and FIFO build the same recency list under both spellings,
//! so for them this only checks that `@heap` parses and builds;
//! `recency_reference.rs` checks the list itself.

use clipcache::core::{PolicyKind, PolicySpec, VictimBackend};
use clipcache::media::{Bandwidth, ByteSize, ClipId, MediaType, Repository, RepositoryBuilder};
use clipcache::workload::Timestamp;
use proptest::prelude::*;
use std::sync::Arc;

/// Every policy kind the heap backend supports (the access-local column
/// of the taxonomy table in `core::policies`).
fn heap_eligible() -> Vec<PolicyKind> {
    let kinds = vec![
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
    ];
    for k in &kinds {
        assert!(k.supports_heap(), "{k} must be heap-eligible");
    }
    kinds
}

fn build_repo(sizes_mb: &[u64]) -> Arc<Repository> {
    let mut b = RepositoryBuilder::new();
    for &mb in sizes_mb {
        b = b.push(MediaType::Video, ByteSize::mb(mb), Bandwidth::mbps(4));
    }
    Arc::new(b.build().expect("non-empty positive sizes"))
}

fn check_backend_equivalence(
    repo: &Arc<Repository>,
    capacity: ByteSize,
    trace: &[usize],
    n: usize,
    seed: u64,
) -> Result<(), TestCaseError> {
    for kind in heap_eligible() {
        let mut scan = PolicySpec::from(kind).build(Arc::clone(repo), capacity, seed, None);
        let mut heap = PolicySpec::with_backend(kind, VictimBackend::Heap).build(
            Arc::clone(repo),
            capacity,
            seed,
            None,
        );
        prop_assert_eq!(scan.name(), heap.name(), "{}: names must match", kind);
        for (i, &raw) in trace.iter().enumerate() {
            let clip = ClipId::from_index(raw % n);
            let now = Timestamp(i as u64 + 1);
            let a = scan.access(clip, now);
            let b = heap.access(clip, now);
            prop_assert_eq!(
                a,
                b,
                "{}: diverged at request {} (clip {})",
                kind,
                i,
                raw % n
            );
        }
        let mut a = scan.resident_clips();
        let mut b = heap.resident_clips();
        a.sort();
        b.sort();
        prop_assert_eq!(a, b, "{}: final residency must match", kind);
        prop_assert_eq!(scan.used(), heap.used(), "{}: used bytes", kind);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn scan_equals_heap_variable_sizes(
        sizes_mb in proptest::collection::vec(1u64..50, 3..9),
        capacity_mb in 5u64..120,
        trace in proptest::collection::vec(0usize..9, 30..150),
        seed in 0u64..10_000,
    ) {
        let repo = build_repo(&sizes_mb);
        let n = repo.len();
        check_backend_equivalence(&repo, ByteSize::mb(capacity_mb), &trace, n, seed)?;
    }

    #[test]
    fn scan_equals_heap_equi_sizes(
        n_clips in 3usize..9,
        capacity_clips in 1u64..8,
        trace in proptest::collection::vec(0usize..9, 30..150),
        seed in 0u64..10_000,
    ) {
        // Equal sizes maximize score ties — the hardest case, because
        // both backends must surface the identical tie band and consume
        // the tie-break RNG identically.
        let sizes = vec![10u64; n_clips];
        let repo = build_repo(&sizes);
        check_backend_equivalence(&repo, ByteSize::mb(capacity_clips * 10), &trace, n_clips, seed)?;
    }
}
