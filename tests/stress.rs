//! Scale stress tests — `#[ignore]`d so `cargo test` stays fast; run with
//! `cargo test --release --test stress -- --ignored`.
//!
//! The paper's Section 4.1 sizes DYNSimple's metadata for one million
//! clips; these tests drive repositories well past the evaluation's 576
//! clips to verify the implementations stay correct and tractable there.

use clipcache::core::policies::greedy_dual::GreedyDualCache;
use clipcache::core::{ClipCache, PolicyKind};
use clipcache::media::{paper, ByteSize, Repository};
use clipcache::workload::{RequestGenerator, Timestamp};
use std::sync::Arc;

#[test]
#[ignore = "large-scale stress; run with --release -- --ignored"]
fn greedy_dual_scales_to_fifty_thousand_clips() {
    // The paper's sizes keep GreedyDual's tie bands narrow (its index
    // answers from the heap); equal sizes make them cache-wide (the scan).
    let n = 50_000;
    for repo in [
        paper::variable_sized_repository_of(n),
        paper::equi_sized_repository_of(n, ByteSize::mb(10)),
    ] {
        let repo: Arc<Repository> = Arc::new(repo);
        let capacity = repo.cache_capacity_for_ratio(0.1);
        let mut cache = GreedyDualCache::new(Arc::clone(&repo), capacity, 7);
        let started = std::time::Instant::now();
        let mut hits = 0u64;
        for req in RequestGenerator::new(n, 0.27, 0, 200_000, 3) {
            if cache.access(req.clip, req.at).is_hit() {
                hits += 1;
            }
        }
        let elapsed = started.elapsed();
        assert!(cache.used() <= cache.capacity());
        assert!(hits > 0);
        // 200k requests over 50k clips should take seconds, not minutes,
        // in release mode.
        assert!(
            elapsed.as_secs() < 120,
            "200k requests took {elapsed:?} — victim selection is not scaling"
        );
    }
}

#[test]
#[ignore = "large-scale stress; run with --release -- --ignored"]
fn dynsimple_metadata_stays_bounded_with_retention() {
    // The paper's metadata argument: K = 2 stamps over a large clip
    // population, bounded by the retention rule.
    use clipcache::core::policies::dyn_simple::DynSimpleCache;
    let n = 100_000;
    let repo = Arc::new(paper::equi_sized_repository_of(n, ByteSize::mb(10)));
    let mut cache = DynSimpleCache::new(Arc::clone(&repo), repo.cache_capacity_for_ratio(0.05), 2);
    for req in RequestGenerator::new(n, 0.27, 0, 300_000, 5) {
        cache.access(req.clip, req.at);
        if req.at.get() % 10_000 == 0 {
            cache.prune_history(Timestamp(req.at.get().saturating_sub(50_000)));
        }
    }
    let bytes = cache.history().metadata_bytes();
    // 100k clips × ≤2 stamps × 8 bytes = 1.6 MB hard ceiling; retention
    // keeps the live footprint below it.
    assert!(
        bytes <= 1_600_000,
        "metadata footprint {bytes} bytes exceeds the K=2 ceiling"
    );
}

#[test]
#[ignore = "large-scale stress; run with --release -- --ignored"]
fn every_policy_survives_a_long_churny_run() {
    let n = 2_000;
    let repo = Arc::new(paper::variable_sized_repository_of(n));
    let capacity = repo.cache_capacity_for_ratio(0.03);
    for policy in [
        PolicyKind::DynSimple { k: 2 },
        PolicyKind::Igd,
        PolicyKind::LruSK { k: 2 },
        PolicyKind::GreedyDual,
        PolicyKind::GdFreq,
        PolicyKind::LruK { k: 2 },
        PolicyKind::Lfu,
        PolicyKind::LfuDa,
        PolicyKind::Size,
        PolicyKind::Random,
    ] {
        let mut cache = policy.build(Arc::clone(&repo), capacity, 1, None);
        for req in RequestGenerator::new(n, 0.27, 0, 100_000, 9) {
            cache.access(req.clip, req.at);
            debug_assert!(cache.used() <= cache.capacity());
        }
        assert!(cache.used() <= cache.capacity(), "{policy}");
        assert!(cache.resident_count() > 0, "{policy}");
    }
}
