//! Snapshot → restore → snapshot is a fixed point.
//!
//! The serving layer leans on this: a poisoned shard rebuilds from its
//! last `CacheSnapshot` checkpoint (`clipcache-serve`'s recovery path),
//! and a recovery that *changed* the durable state would compound on
//! every subsequent fault. So for every policy kind that ranks victims
//! in a victim index or the recency list — on a variable-sized and an
//! equi-sized repository, so the index answers from its heap and from its
//! scan — restoring a snapshot and snapshotting
//! the restored cache must reproduce the original snapshot exactly:
//! same policy spelling, same capacity, same resident set. The JSON
//! codec must be a fixed point of the same loop
//! (`from_json ∘ to_json == id`), since the checkpoint may cross a
//! process boundary as text.

use clipcache::core::snapshot::{restore, CacheSnapshot};
use clipcache::core::{ClipCache, PolicyKind};
use clipcache::media::{paper, ByteSize, Repository};
use clipcache::workload::{RequestGenerator, Timestamp};
use std::sync::Arc;

/// Every kind that ranks victims in a victim index or the recency list —
/// mirrors `victim_index_reference.rs`.
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

/// Warm a cache under `spec` with a seeded Zipf trace.
fn warmed(spec: PolicyKind, repo: &Arc<Repository>) -> (Box<dyn ClipCache>, Timestamp) {
    let freqs = vec![1.0 / repo.len() as f64; repo.len()];
    let mut cache = spec.build(
        Arc::clone(repo),
        repo.cache_capacity_for_ratio(0.2),
        7,
        Some(&freqs),
    );
    let mut last = Timestamp::ZERO;
    for req in RequestGenerator::new(repo.len(), 0.27, 0, 1_200, 11) {
        last = req.at;
        cache.access(req.clip, req.at);
    }
    (cache, last)
}

fn assert_fixed_point(spec: PolicyKind, repo: &Arc<Repository>) {
    let freqs = vec![1.0 / repo.len() as f64; repo.len()];
    let (cache, tick) = warmed(spec, repo);
    let first = CacheSnapshot::take(cache.as_ref(), spec, tick);

    // Restore consumes one virtual tick per re-materialized clip; the
    // state it produces must carry the identical durable facts.
    let (restored, _next) =
        restore(&first, Arc::clone(repo), 7, Some(&freqs)).expect("restore builds");
    let second = CacheSnapshot::take(restored.as_ref(), spec, first.tick);
    assert_eq!(
        second,
        first,
        "{}: snapshot∘restore must be a fixed point",
        spec.spelling()
    );
    assert_eq!(restored.used(), cache.used(), "{}", spec.spelling());

    // A second hop is free once the first is exact, but run it anyway:
    // the recovery path may fire repeatedly under chaos.
    let (restored_again, _) =
        restore(&second, Arc::clone(repo), 7, Some(&freqs)).expect("re-restore builds");
    let third = CacheSnapshot::take(restored_again.as_ref(), spec, first.tick);
    assert_eq!(third, first, "{}: second hop drifted", spec.spelling());

    // And the textual form is a fixed point of the same loop.
    let json = first.to_json();
    let decoded = CacheSnapshot::from_json(&json).expect("snapshot JSON parses");
    assert_eq!(decoded, first, "{}", spec.spelling());
    assert_eq!(decoded.to_json(), json, "{}", spec.spelling());
}

#[test]
fn fixed_point_for_every_indexed_kind_on_variable_sizes() {
    let repo = Arc::new(paper::variable_sized_repository_of(48));
    for kind in indexed_kinds() {
        assert_fixed_point(kind, &repo);
    }
}

#[test]
fn fixed_point_for_every_indexed_kind_on_equi_sizes() {
    let repo = Arc::new(paper::equi_sized_repository_of(48, ByteSize::mb(10)));
    for kind in indexed_kinds() {
        assert_fixed_point(kind, &repo);
    }
}

/// A snapshot as builds with a user-chosen victim-index backend wrote it
/// (`simulate --policy lfu@heap --clips 48 --requests 2000 --ratio 0.2
/// --seed 7 --snapshot-out F`), spelling suffix included.
const LFU_HEAP_SNAPSHOT: &str = r#"{"version":2,"policy":"lfu@heap","capacity":9944640000,"tick":2000,"resident":[1,2,3,4,5,6,8,9,12,21,34,36],"partial":[]}"#;

#[test]
fn a_stored_lfu_heap_snapshot_restores_and_decides_like_lfu() {
    let repo = Arc::new(paper::variable_sized_repository_of(48));
    let legacy = CacheSnapshot::from_json(LFU_HEAP_SNAPSHOT).expect("legacy snapshot parses");
    assert_eq!(legacy.policy.kind, PolicyKind::Lfu);
    let bare = CacheSnapshot::from_json(&LFU_HEAP_SNAPSHOT.replace("lfu@heap", "lfu")).unwrap();
    assert_eq!(legacy, bare);
    assert_eq!(
        legacy.to_json(),
        bare.to_json(),
        "rewritten without the suffix"
    );
    let (mut a, next) = restore(&legacy, Arc::clone(&repo), 7, None).expect("restores");
    let (mut b, _) = restore(&bare, Arc::clone(&repo), 7, None).expect("restores");
    assert_eq!(a.resident_clips().len(), 12);
    for req in RequestGenerator::new(repo.len(), 0.27, 0, 2_000, 19) {
        let at = Timestamp(next.get() + req.at.get());
        assert_eq!(a.access(req.clip, at), b.access(req.clip, at), "{at:?}");
    }
    assert_eq!(a.resident_clips(), b.resident_clips());
}
