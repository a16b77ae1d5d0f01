//! Property tests: every policy preserves the cache's core invariants on
//! arbitrary repositories and reference strings.
//!
//! * `used ≤ capacity` after every access,
//! * `used` equals the sum of resident clip sizes,
//! * a hit leaves residency unchanged; an admitted miss makes the clip
//!   resident; a bypassed miss does not,
//! * clips larger than the whole cache are never admitted,
//! * replaying the same trace yields identical outcomes (determinism).

use clipcache::core::{AccessOutcome, ClipCache, PolicyKind};
use clipcache::media::{Bandwidth, ByteSize, ClipId, MediaType, Repository, RepositoryBuilder};
use clipcache::workload::Timestamp;
use proptest::prelude::*;
use std::sync::Arc;

/// All policies exercised by the invariant suite. Each proptest runs
/// variable-sized and equi-sized repositories, so the GreedyDual
/// family's victim index answers from its heap and from its scan.
fn all_policies() -> Vec<PolicyKind> {
    vec![
        PolicyKind::Random,
        PolicyKind::Lru,
        PolicyKind::Mru,
        PolicyKind::Fifo,
        PolicyKind::Lfu,
        PolicyKind::LruK { k: 2 },
        PolicyKind::LruK { k: 3 },
        PolicyKind::LruKCrp { k: 2, crp: 3 },
        PolicyKind::LruSK { k: 2 },
        PolicyKind::GreedyDual,
        PolicyKind::GreedyDualNaive,
        PolicyKind::GdFreq,
        PolicyKind::GdsPopularity,
        PolicyKind::Igd,
        PolicyKind::Simple,
        PolicyKind::SimpleBypass,
        PolicyKind::DynSimple { k: 2 },
        PolicyKind::DynSimple { k: 8 },
        PolicyKind::BlockLruK {
            k: 2,
            block_bytes: 3_000_000,
        },
    ]
}

/// A repository of `sizes_mb`, or of as many clips all of the first
/// size when `equi`.
fn build_repo(sizes_mb: &[u64], equi: bool) -> Arc<Repository> {
    let mut b = RepositoryBuilder::new();
    for (i, &mb) in sizes_mb.iter().enumerate() {
        let mb = if equi { sizes_mb[0] } else { mb };
        let media = if i % 2 == 0 {
            MediaType::Video
        } else {
            MediaType::Audio
        };
        b = b.push(media, ByteSize::mb(mb), Bandwidth::mbps(4));
    }
    Arc::new(b.build().expect("non-empty positive sizes"))
}

fn uniform_freqs(n: usize) -> Vec<f64> {
    vec![1.0 / n as f64; n]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn invariants_hold_for_every_policy(
        sizes_mb in proptest::collection::vec(1u64..60, 3..10),
        capacity_mb in 10u64..150,
        trace in proptest::collection::vec(0usize..10, 20..120),
        seed in 0u64..1000,
        equi in any::<bool>(),
    ) {
        let repo = build_repo(&sizes_mb, equi);
        let n = repo.len();
        let capacity = ByteSize::mb(capacity_mb);
        let freqs = uniform_freqs(n);
        for policy in all_policies() {
            let mut cache = policy.build(Arc::clone(&repo), capacity, seed, Some(&freqs));
            for (i, &raw) in trace.iter().enumerate() {
                let clip = ClipId::from_index(raw % n);
                let was_resident = cache.contains(clip);
                let outcome = cache.access(clip, Timestamp(i as u64 + 1));

                // Capacity invariant.
                prop_assert!(
                    cache.used() <= cache.capacity(),
                    "{}: used {} > capacity {}",
                    cache.name(), cache.used(), cache.capacity()
                );
                // used == sum of resident sizes — except the block cache,
                // whose rounding to whole blocks makes used() >= the sum
                // (that fragmentation is footnote 3's point).
                let total: ByteSize = cache
                    .resident_clips()
                    .iter()
                    .map(|&c| repo.size_of(c))
                    .sum();
                if matches!(policy, PolicyKind::BlockLruK { .. }) {
                    prop_assert!(total <= cache.used(), "{}: size accounting", cache.name());
                } else {
                    prop_assert_eq!(total, cache.used(), "{}: size accounting", cache.name());
                }

                match &outcome {
                    AccessOutcome::Hit => {
                        prop_assert!(was_resident, "{}: hit on absent clip", cache.name());
                        prop_assert!(cache.contains(clip));
                    }
                    AccessOutcome::PrefixHit { .. } => {
                        // This suite runs unchunked repositories; prefix
                        // hits exist only under Repository::with_chunk_size
                        // (tests/chunk_properties.rs covers them).
                        prop_assert!(false, "{}: prefix hit without chunking", cache.name());
                    }
                    AccessOutcome::Miss { admitted, evicted } => {
                        prop_assert!(!was_resident, "{}: miss on resident clip", cache.name());
                        prop_assert_eq!(*admitted, cache.contains(clip));
                        if repo.size_of(clip) > cache.capacity() {
                            prop_assert!(!admitted, "{}: oversized clip admitted", cache.name());
                        }
                        for v in evicted {
                            prop_assert!(
                                !cache.contains(*v) || *v == clip,
                                "{}: evicted clip still resident", cache.name()
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn deterministic_replay(
        sizes_mb in proptest::collection::vec(1u64..60, 3..8),
        capacity_mb in 10u64..120,
        trace in proptest::collection::vec(0usize..8, 20..80),
        seed in 0u64..1000,
        equi in any::<bool>(),
    ) {
        let repo = build_repo(&sizes_mb, equi);
        let n = repo.len();
        let capacity = ByteSize::mb(capacity_mb);
        let freqs = uniform_freqs(n);
        for policy in all_policies() {
            let run = |mut cache: Box<dyn ClipCache>| -> (Vec<bool>, Vec<ClipId>) {
                let hits = trace
                    .iter()
                    .enumerate()
                    .map(|(i, &raw)| {
                        cache
                            .access(ClipId::from_index(raw % n), Timestamp(i as u64 + 1))
                            .is_hit()
                    })
                    .collect();
                let mut resident = cache.resident_clips();
                resident.sort();
                (hits, resident)
            };
            let a = run(policy.build(Arc::clone(&repo), capacity, seed, Some(&freqs)));
            let b = run(policy.build(Arc::clone(&repo), capacity, seed, Some(&freqs)));
            prop_assert_eq!(a, b, "{} must be deterministic", policy.spelling());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Snapshot/restore reproduces the exact residency of every policy on
    /// arbitrary traces, through the durable JSON form (BlockLruK is
    /// excluded: block rounding can make a byte-exact set unrestorable, as
    /// documented in `core::snapshot`).
    #[test]
    fn snapshot_restore_reproduces_residency(
        sizes_mb in proptest::collection::vec(1u64..60, 3..8),
        capacity_mb in 20u64..150,
        trace in proptest::collection::vec(0usize..8, 10..80),
        seed in 0u64..1000,
        equi in any::<bool>(),
    ) {
        use clipcache::core::snapshot::{restore, CacheSnapshot};
        let repo = build_repo(&sizes_mb, equi);
        let n = repo.len();
        let capacity = ByteSize::mb(capacity_mb);
        let freqs = uniform_freqs(n);
        for policy in all_policies() {
            if matches!(policy, PolicyKind::BlockLruK { .. }) {
                continue;
            }
            let mut cache = policy.build(Arc::clone(&repo), capacity, seed, Some(&freqs));
            let mut tick = Timestamp::ZERO;
            for (i, &raw) in trace.iter().enumerate() {
                tick = Timestamp(i as u64 + 1);
                cache.access(ClipId::from_index(raw % n), tick);
            }
            let taken = CacheSnapshot::take(cache.as_ref(), policy, tick);
            // Save-and-reload: the restore must work from the durable
            // JSON, which carries the policy's spelling.
            let snap = CacheSnapshot::from_json(&taken.to_json())
                .expect("snapshot JSON round-trips");
            prop_assert_eq!(&snap, &taken, "{}: JSON round-trip", policy.spelling());
            prop_assert_eq!(snap.policy.kind, policy);
            let (restored, next) =
                restore(&snap, Arc::clone(&repo), seed, Some(&freqs)).expect("restorable");
            let mut a = cache.resident_clips();
            let mut b = restored.resident_clips();
            a.sort();
            b.sort();
            prop_assert_eq!(a, b, "{}: residency must survive restore", policy.spelling());
            prop_assert_eq!(restored.used(), cache.used());
            prop_assert!(next >= tick);
        }
    }
}

/// Degenerate capacity: a cache smaller than every clip admits nothing and
/// never panics.
#[test]
fn tiny_cache_admits_nothing() {
    let repo = build_repo(&[5, 7, 9], false);
    for policy in all_policies() {
        let freqs = uniform_freqs(3);
        let mut cache = policy.build(Arc::clone(&repo), ByteSize::mb(1), 1, Some(&freqs));
        for t in 1..=20u64 {
            let clip = ClipId::from_index((t % 3) as usize);
            let out = cache.access(clip, Timestamp(t));
            assert!(!out.is_hit(), "{}", cache.name());
        }
        assert_eq!(cache.used(), ByteSize::ZERO, "{}", cache.name());
    }
}

/// A cache comfortably exceeding the repository converges to 100% hits
/// (2× headroom so BlockLruK's internal fragmentation also fits).
#[test]
fn full_cache_hits_everything_after_warmup() {
    let repo = build_repo(&[5, 7, 9, 11], false);
    let total = repo.total_size() * 2;
    for policy in all_policies() {
        let freqs = uniform_freqs(4);
        let mut cache = policy.build(Arc::clone(&repo), total, 1, Some(&freqs));
        let mut t = 0u64;
        // Warmup: touch everything twice (BlockLruK needs full residency).
        for _ in 0..2 {
            for i in 0..4 {
                t += 1;
                cache.access(ClipId::from_index(i), Timestamp(t));
            }
        }
        for i in 0..4 {
            t += 1;
            let out = cache.access(ClipId::from_index(i), Timestamp(t));
            assert!(
                out.is_hit(),
                "{} should hit with a full-size cache",
                cache.name()
            );
        }
    }
}
