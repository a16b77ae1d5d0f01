//! Property test: Young's naive GreedyDual formulation and the Cao–Irani
//! inflation-value implementation (the paper's Figure 1) make identical
//! decisions on arbitrary traces.
//!
//! The invariant behind it: at any instant, `H_naive(x) = H_inflation(x) − L`
//! for every resident clip `x`, so both orderings — and therefore the
//! victim choices, including the tie sets resolved by the shared seeded
//! RNG — coincide.

use clipcache::core::policies::greedy_dual::{CostModel, GdMode, GreedyDualCache};
use clipcache::core::ClipCache;
use clipcache::media::{Bandwidth, ByteSize, ClipId, MediaType, Repository, RepositoryBuilder};
use clipcache::workload::Timestamp;
use proptest::prelude::*;
use std::sync::Arc;

fn build_repo(sizes_mb: &[u64]) -> Arc<Repository> {
    let mut b = RepositoryBuilder::new();
    for &mb in sizes_mb {
        b = b.push(MediaType::Video, ByteSize::mb(mb), Bandwidth::mbps(4));
    }
    Arc::new(b.build().expect("non-empty positive sizes"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn naive_equals_inflation_variable_sizes(
        sizes_mb in proptest::collection::vec(1u64..50, 3..9),
        capacity_mb in 5u64..120,
        trace in proptest::collection::vec(0usize..9, 30..150),
        seed in 0u64..10_000,
    ) {
        let repo = build_repo(&sizes_mb);
        let n = repo.len();
        check_equivalence(&repo, ByteSize::mb(capacity_mb), &trace, n, seed)?;
    }

    #[test]
    fn naive_equals_inflation_equi_sizes(
        n_clips in 3usize..9,
        capacity_clips in 1u64..8,
        trace in proptest::collection::vec(0usize..9, 30..150),
        seed in 0u64..10_000,
    ) {
        // Equal sizes maximize priority ties — the hardest case, because
        // both formulations must consume the tie-break RNG identically.
        let sizes = vec![10u64; n_clips];
        let repo = build_repo(&sizes);
        check_equivalence(&repo, ByteSize::mb(capacity_clips * 10), &trace, n_clips, seed)?;
    }
}

fn check_equivalence(
    repo: &Arc<Repository>,
    capacity: ByteSize,
    trace: &[usize],
    n: usize,
    seed: u64,
) -> Result<(), TestCaseError> {
    let mut infl = GreedyDualCache::with_options(
        Arc::clone(repo),
        capacity,
        seed,
        CostModel::Uniform,
        GdMode::Inflation,
    );
    let mut naive = GreedyDualCache::with_options(
        Arc::clone(repo),
        capacity,
        seed,
        CostModel::Uniform,
        GdMode::Naive,
    );
    for (i, &raw) in trace.iter().enumerate() {
        let clip = ClipId::from_index(raw % n);
        let now = Timestamp(i as u64 + 1);
        let a = infl.access(clip, now);
        let b = naive.access(clip, now);
        prop_assert_eq!(a, b, "diverged at request {} (clip {})", i, raw % n);
    }
    prop_assert_eq!(infl.resident_clips(), naive.resident_clips());
    Ok(())
}
