//! Property tests for chunk-granular residency.
//!
//! Two invariants anchor the chunk model:
//!
//! 1. **Whole-clip equivalence.** A chunk size at least as large as every
//!    clip makes each clip a single chunk, so nothing can trim: every
//!    policy, on both victim-index backends, must replay any trace with
//!    the *bit-identical* outcome sequence, residency, and byte usage it
//!    produces unchunked. Chunking is a strict refinement — turning it
//!    off is the degenerate case, not a separate code path.
//!
//! 2. **Prefix retention.** Under genuine chunking the resident set of a
//!    clip is always a head-aligned prefix — the trimmer evicts tail
//!    chunks inward and never orphans chunk `k` while `k+1` is resident.
//!    Observably: every partial clip reports `0 < prefix < total`, full
//!    and partial residency are disjoint, and the cache's used-byte
//!    counter is exactly the sum of full clips plus resident prefixes
//!    (an orphaned hole would break the byte identity).
//!
//! 3. **One-step trimming.** [`CacheSpace::trim_tail`] reaches exactly
//!    the state that shedding one tail chunk at a time until the deficit
//!    is freed (or the clip is gone) reaches: same prefix, same used
//!    bytes, same resident count, same "gone" answer.
//!
//! 4. **Resident-set views.** [`CacheSpace`] walks a resident bit set
//!    rather than every clip slot, so under any sequence of `insert`,
//!    `insert_prefix`, `trim_tail`, `remove` and `complete` its
//!    `iter_resident`, `resident_ids` and `partials` must equal the
//!    dense filters over each clip's resident prefix, in id order, and
//!    `resident_count` must equal their size.

use clipcache::core::space::CacheSpace;
use clipcache::core::{AccessOutcome, PolicyKind, PolicySpec, VictimBackend};
use clipcache::media::{Bandwidth, ByteSize, ClipId, MediaType, Repository, RepositoryBuilder};
use clipcache::workload::Timestamp;
use proptest::prelude::*;
use std::sync::Arc;

/// The full policy taxonomy on its access-local column — every kind the
/// heap backend supports, mirrored from `backend_equivalence`.
fn all_policies() -> Vec<PolicyKind> {
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

fn build_repo(sizes_mb: &[u64], chunk: Option<ByteSize>) -> Arc<Repository> {
    let mut b = RepositoryBuilder::new();
    for &mb in sizes_mb {
        b = b.push(MediaType::Video, ByteSize::mb(mb), Bandwidth::mbps(4));
    }
    let repo = b.build().expect("non-empty positive sizes");
    Arc::new(match chunk {
        Some(c) => repo.with_chunk_size(c),
        None => repo,
    })
}

fn check_degenerate_chunks_are_whole_clip(
    sizes_mb: &[u64],
    capacity: ByteSize,
    trace: &[usize],
    seed: u64,
) -> Result<(), TestCaseError> {
    // One chunk spans the largest clip, so every clip is one chunk.
    let chunk = ByteSize::mb(*sizes_mb.iter().max().unwrap());
    let plain = build_repo(sizes_mb, None);
    let chunked = build_repo(sizes_mb, Some(chunk));
    let n = plain.len();
    for kind in all_policies() {
        for backend in [VictimBackend::Scan, VictimBackend::Heap] {
            let spec = PolicySpec::with_backend(kind, backend);
            let mut whole = spec.build(Arc::clone(&plain), capacity, seed, None);
            let mut degen = spec.build(Arc::clone(&chunked), capacity, seed, None);
            for (i, &raw) in trace.iter().enumerate() {
                let clip = ClipId::from_index(raw % n);
                let now = Timestamp(i as u64 + 1);
                let a = whole.access(clip, now);
                let b = degen.access(clip, now);
                prop_assert_eq!(
                    a,
                    b,
                    "{}@{:?}: diverged at request {} (clip {})",
                    kind,
                    backend,
                    i,
                    raw % n
                );
                prop_assert!(
                    !matches!(b, AccessOutcome::PrefixHit { .. }),
                    "{}@{:?}: single-chunk clips cannot prefix-hit",
                    kind,
                    backend
                );
            }
            let mut a = whole.resident_clips();
            let mut b = degen.resident_clips();
            a.sort();
            b.sort();
            prop_assert_eq!(a, b, "{}@{:?}: final residency", kind, backend);
            prop_assert_eq!(
                whole.used(),
                degen.used(),
                "{}@{:?}: used bytes",
                kind,
                backend
            );
            prop_assert!(
                degen.partial_clips().is_empty(),
                "{}@{:?}: degenerate chunking can never hold a partial clip",
                kind,
                backend
            );
        }
    }
    Ok(())
}

fn check_prefix_retention(
    sizes_mb: &[u64],
    capacity: ByteSize,
    trace: &[usize],
    seed: u64,
) -> Result<(), TestCaseError> {
    // 1 MB chunks against multi-MB clips: trims are frequent.
    let repo = build_repo(sizes_mb, Some(ByteSize::mb(1)));
    let n = repo.len();
    for kind in all_policies() {
        for backend in [VictimBackend::Scan, VictimBackend::Heap] {
            let spec = PolicySpec::with_backend(kind, backend);
            let mut cache = spec.build(Arc::clone(&repo), capacity, seed, None);
            for (i, &raw) in trace.iter().enumerate() {
                let clip = ClipId::from_index(raw % n);
                let event = cache.access(clip, Timestamp(i as u64 + 1));
                if let AccessOutcome::PrefixHit {
                    resident, total, ..
                } = event
                {
                    prop_assert!(resident > 0 && resident < total);
                    prop_assert_eq!(total, repo.chunks_of(clip));
                }
                // The retention invariant, checked after every step:
                // residency is head-aligned prefixes and nothing else.
                let full = cache.resident_clips();
                let mut used = ByteSize::ZERO;
                for &c in &full {
                    used += repo.clip(c).size;
                }
                for (c, prefix) in cache.partial_clips() {
                    let total = repo.chunks_of(c);
                    prop_assert!(
                        prefix > 0 && prefix < total,
                        "{}@{:?}: partial clip {} holds {}/{} chunks",
                        kind,
                        backend,
                        c.get(),
                        prefix,
                        total
                    );
                    prop_assert!(
                        !full.contains(&c),
                        "{}@{:?}: clip {} both full and partial",
                        kind,
                        backend,
                        c.get()
                    );
                    used += repo.prefix_bytes(c, prefix);
                }
                // Byte identity: an orphaned chunk (a hole behind a
                // resident tail) would desynchronize this sum.
                prop_assert_eq!(
                    used,
                    cache.used(),
                    "{}@{:?}: used bytes must equal full clips + prefixes",
                    kind,
                    backend
                );
                prop_assert!(cache.used() <= cache.capacity());
            }
        }
    }
    Ok(())
}

/// The reference trimmer: shed one tail chunk at a time, stopping once
/// `deficit` bytes are freed or nothing is left. Returns the surviving
/// prefix.
fn trim_chunk_by_chunk(repo: &Repository, clip: ClipId, prefix: u32, deficit: ByteSize) -> u32 {
    let resident = repo.prefix_bytes(clip, prefix);
    let mut p = prefix;
    while p > 0 && resident - repo.prefix_bytes(clip, p) < deficit {
        p -= 1;
    }
    p
}

/// Which deficit a trim case asks for, relative to the victim's
/// resident bytes `r`: one byte, exactly `r`, `r` plus the raw draw, or
/// a draw within `1..=r`.
fn deficit_for(mode: u8, raw: u64, resident: ByteSize) -> ByteSize {
    match mode % 4 {
        0 => ByteSize::bytes(1),
        1 => resident,
        2 => resident + ByteSize::bytes(raw % 10_000_000 + 1),
        _ => ByteSize::bytes(raw % resident.as_u64().max(1) + 1),
    }
}

/// Make every clip of `sizes` (bytes) resident under `chunk`-byte chunks
/// (0 = unchunked), the victim as a full or partial prefix, trim the
/// victim by the chosen deficit, and compare against the reference.
fn check_trim_tail(
    sizes: &[u64],
    chunk: u64,
    victim: usize,
    prefix_pick: Option<u32>,
    deficit_mode: u8,
    deficit_raw: u64,
) -> Result<(), TestCaseError> {
    let mut b = RepositoryBuilder::new();
    for &bytes in sizes {
        b = b.push(MediaType::Video, ByteSize::bytes(bytes), Bandwidth::mbps(4));
    }
    let repo = Arc::new(
        b.build()
            .expect("non-empty positive sizes")
            .with_chunk_size(ByteSize::bytes(chunk)),
    );
    let mut space = CacheSpace::new(Arc::clone(&repo), ByteSize::bytes(sizes.iter().sum()));
    let victim = ClipId::from_index(victim % repo.len());
    let total = repo.chunks_of(victim);
    let prefix = prefix_pick.map_or(total, |pick| pick % total + 1);
    for id in repo.ids() {
        if id == victim {
            space.insert_prefix(id, prefix);
        } else {
            space.insert(id);
        }
    }
    let resident = repo.prefix_bytes(victim, prefix);
    let deficit = deficit_for(deficit_mode, deficit_raw, resident);
    let (used, count) = (space.used(), space.resident_count());

    let keep = trim_chunk_by_chunk(&repo, victim, prefix, deficit);
    let gone = space.trim_tail(victim, deficit);

    prop_assert_eq!(gone, keep == 0, "gone answer (deficit {})", deficit);
    prop_assert_eq!(space.resident_prefix(victim), keep, "surviving prefix");
    prop_assert_eq!(
        space.used(),
        used - (resident - repo.prefix_bytes(victim, keep)),
        "used bytes"
    );
    prop_assert_eq!(
        space.resident_count(),
        count - usize::from(keep == 0),
        "resident count"
    );
    Ok(())
}

/// The dense definitions of the resident-set views: filter every clip
/// slot by its resident prefix, in id order.
fn check_resident_views(space: &CacheSpace, step: usize) -> Result<(), TestCaseError> {
    let ids = || space.repo().ids();
    let any: Vec<ClipId> = ids().filter(|&c| space.resident_prefix(c) > 0).collect();
    let full: Vec<ClipId> = ids().filter(|&c| space.contains(c)).collect();
    let partial: Vec<(ClipId, u32)> = ids()
        .filter(|&c| space.resident_prefix(c) > 0 && !space.contains(c))
        .map(|c| (c, space.resident_prefix(c)))
        .collect();
    prop_assert_eq!(
        space.iter_resident().collect::<Vec<_>>(),
        any.clone(),
        "iter_resident after step {}",
        step
    );
    prop_assert_eq!(
        space.resident_ids(),
        full,
        "resident_ids after step {}",
        step
    );
    prop_assert_eq!(space.partials(), partial, "partials after step {}", step);
    prop_assert_eq!(
        space.resident_count(),
        any.len(),
        "resident_count after step {}",
        step
    );
    Ok(())
}

/// Drive a chunked [`CacheSpace`] through `ops` — `(verb, clip, raw)`
/// draws — applying each verb only where its preconditions hold, and
/// check the resident-set views after every step.
fn check_resident_set_ops(sizes: &[u64], ops: &[(u8, usize, u64)]) -> Result<(), TestCaseError> {
    let mut b = RepositoryBuilder::new();
    for &bytes in sizes {
        b = b.push(MediaType::Video, ByteSize::bytes(bytes), Bandwidth::mbps(4));
    }
    let repo = Arc::new(
        b.build()
            .expect("non-empty positive sizes")
            .with_chunk_size(ByteSize::bytes(1_000_000)),
    );
    // Room for about half the repository, so inserts also meet a full
    // cache.
    let capacity = ByteSize::bytes(sizes.iter().sum::<u64>() / 2);
    let mut space = CacheSpace::new(Arc::clone(&repo), capacity);
    check_resident_views(&space, 0)?;
    for (step, &(verb, raw_clip, raw)) in ops.iter().enumerate() {
        let clip = ClipId::from_index(raw_clip % repo.len());
        let prefix = space.resident_prefix(clip);
        let total = space.chunks_of(clip);
        match verb % 5 {
            0 if prefix == 0 && space.fits_now(clip) => space.insert(clip),
            1 if prefix == 0 => {
                let p = (raw % u64::from(total)) as u32 + 1;
                if repo.prefix_bytes(clip, p) <= space.free() {
                    space.insert_prefix(clip, p);
                }
            }
            2 if prefix > 0 => {
                let resident = space.resident_bytes(clip).as_u64();
                space.trim_tail(clip, ByteSize::bytes(raw % (resident + 1)));
            }
            3 if prefix > 0 => space.remove(clip),
            4 if prefix > 0 && prefix < total && space.tail_bytes(clip) <= space.free() => {
                space.complete(clip)
            }
            _ => {}
        }
        check_resident_views(&space, step + 1)?;
    }
    Ok(())
}

/// The named edge cases, exhaustively: unchunked, a short last chunk,
/// chunks dividing the clip evenly, a chunk larger than the clip; full
/// and partial prefixes; every deficit mode.
#[test]
fn trim_tail_matches_chunk_by_chunk_on_edge_cases() {
    // 5.5 MB and 3 MB clips: 1 MB chunks leave a short 0.5 MB last chunk
    // on the first and divide the second evenly.
    let sizes = [5_500_000u64, 3_000_000];
    for chunk in [0u64, 1_000_000, 700_000, 8_000_000] {
        for victim in 0..sizes.len() {
            for prefix_pick in [None, Some(0), Some(1), Some(3)] {
                for mode in 0..4u8 {
                    for raw in [0u64, 1, 499_999, 500_000, 1_500_001, 9_999_999] {
                        check_trim_tail(&sizes, chunk, victim, prefix_pick, mode, raw)
                            .unwrap_or_else(|_| {
                                panic!(
                                    "chunk {chunk}, victim {victim}, prefix {prefix_pick:?}, \
                                     mode {mode}, raw {raw}"
                                )
                            });
                    }
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn trim_tail_matches_chunk_by_chunk_trimming(
        // Byte-granular sizes, so the last chunk is usually short.
        sizes in proptest::collection::vec(1u64..5_000_000, 1..6),
        chunk_pick in 0u64..4_000_000,
        victim in 0usize..6,
        prefix_pick in any::<u32>(),
        deficit_mode in any::<u8>(),
        deficit_raw in any::<u64>(),
    ) {
        // A quarter of the draws run unchunked; half the victims are full.
        let chunk = if chunk_pick.is_multiple_of(4) { 0 } else { chunk_pick };
        let prefix = prefix_pick.is_multiple_of(2).then_some(prefix_pick / 2);
        check_trim_tail(&sizes, chunk, victim, prefix, deficit_mode, deficit_raw)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn resident_set_views_match_dense_filters(
        // Up to 200 clips, so the resident set spans several words.
        sizes in proptest::collection::vec(1u64..6_000_000, 1..200),
        ops in proptest::collection::vec((any::<u8>(), any::<usize>(), any::<u64>()), 1..400),
    ) {
        check_resident_set_ops(&sizes, &ops)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn degenerate_chunking_is_bit_identical_to_whole_clip(
        sizes_mb in proptest::collection::vec(1u64..40, 3..8),
        capacity_mb in 5u64..100,
        trace in proptest::collection::vec(0usize..8, 30..120),
        seed in 0u64..10_000,
    ) {
        check_degenerate_chunks_are_whole_clip(
            &sizes_mb,
            ByteSize::mb(capacity_mb),
            &trace,
            seed,
        )?;
    }

    #[test]
    fn chunked_residency_is_always_a_head_prefix(
        sizes_mb in proptest::collection::vec(2u64..24, 3..8),
        capacity_mb in 4u64..60,
        trace in proptest::collection::vec(0usize..8, 30..120),
        seed in 0u64..10_000,
    ) {
        check_prefix_retention(&sizes_mb, ByteSize::mb(capacity_mb), &trace, seed)?;
    }
}
