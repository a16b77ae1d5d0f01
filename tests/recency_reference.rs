//! Property test: LRU, MRU and FIFO pick exactly the victim a linear
//! scan over their residents would.
//!
//! `RecencyCache` keeps its residents in a linked list ordered by
//! `(stamp, id)` and reads the victim off one end, so the list is only
//! right if every insert lands in its sorted place. Stamps usually arrive
//! in order, but not always: clocks repeat and run backwards, a snapshot
//! restore stamps every clip with one tick, and FIFO keeps the admission
//! stamp through a prefix completion. The reference below keeps one
//! optional stamp per clip and evicts the min-`(stamp, id)` resident (the
//! max for MRU) found by scanning all of them, through the same
//! tail-inward trim rule as the shared admission skeleton.
//!
//! The bare spelling and the legacy `@heap` spelling build the same
//! list; this test pins both. Each replay must agree with the reference
//! on every outcome (hit, prefix hit, miss, the eviction sequence) and,
//! after every step, on the resident set, the partial prefixes and the
//! used bytes, on unchunked and 4 MB-chunked repositories.

use clipcache::core::space::{CacheSpace, Residency};
use clipcache::core::{AccessOutcome, ClipCache, PolicyKind, PolicySpec};
use clipcache::media::{Bandwidth, ByteSize, ClipId, MediaType, Repository, RepositoryBuilder};
use clipcache::workload::{Pcg64, Timestamp};
use proptest::prelude::*;
use std::sync::Arc;

const RECENCY: [PolicyKind; 3] = [PolicyKind::Lru, PolicyKind::Mru, PolicyKind::Fifo];

/// The min-`(stamp, id)` scan (max for MRU) the recency list must match.
struct Reference {
    space: CacheSpace,
    kind: PolicyKind,
    stamps: Vec<Option<u64>>,
}

impl Reference {
    fn new(kind: PolicyKind, repo: Arc<Repository>, capacity: ByteSize) -> Self {
        let n = repo.len();
        Reference {
            space: CacheSpace::new(repo, capacity),
            kind,
            stamps: vec![None; n],
        }
    }

    fn victim(&self, skip: Option<ClipId>) -> ClipId {
        let keyed = self
            .stamps
            .iter()
            .enumerate()
            .filter(|&(i, _)| skip.map(ClipId::index) != Some(i))
            .filter_map(|(i, stamp)| stamp.map(|s| (s, i)));
        let best = if self.kind == PolicyKind::Mru {
            keyed.max()
        } else {
            keyed.min()
        };
        ClipId::from_index(best.expect("a resident to evict").1)
    }

    /// Trim victims tail-inward until `need` bytes are free.
    fn make_room(&mut self, need: ByteSize, skip: Option<ClipId>, evicted: &mut Vec<ClipId>) {
        while need > self.space.free() {
            let victim = self.victim(skip);
            if self.space.trim_tail(victim, need - self.space.free()) {
                self.stamps[victim.index()] = None;
                evicted.push(victim);
            }
        }
    }

    fn access(&mut self, clip: ClipId, now: Timestamp) -> AccessOutcome {
        let restamp = self.kind != PolicyKind::Fifo;
        let mut evicted = Vec::new();
        match self.space.residency(clip) {
            Residency::Full => {
                if restamp {
                    self.stamps[clip.index()] = Some(now.0);
                }
                AccessOutcome::Hit
            }
            Residency::Partial(resident) => {
                let total = self.space.chunks_of(clip);
                self.make_room(self.space.tail_bytes(clip), Some(clip), &mut evicted);
                self.space.complete(clip);
                if restamp {
                    self.stamps[clip.index()] = Some(now.0);
                }
                AccessOutcome::PrefixHit {
                    resident,
                    total,
                    evicted,
                }
            }
            Residency::Absent => {
                let admitted = self.space.can_ever_fit(clip);
                if admitted {
                    self.make_room(self.space.size_of(clip), None, &mut evicted);
                    self.space.insert(clip);
                    self.stamps[clip.index()] = Some(now.0);
                }
                AccessOutcome::Miss { admitted, evicted }
            }
        }
    }

    fn restore_prefix(&mut self, clip: ClipId, prefix: u32, now: Timestamp) {
        self.space.insert_prefix(clip, prefix);
        self.stamps[clip.index()] = Some(now.0);
    }
}

fn build_repo(sizes_mb: &[u64], chunked: bool) -> Arc<Repository> {
    let mut b = RepositoryBuilder::new();
    for &mb in sizes_mb {
        b = b.push(MediaType::Video, ByteSize::mb(mb), Bandwidth::mbps(4));
    }
    let repo = b.build().expect("non-empty positive sizes");
    Arc::new(if chunked {
        repo.with_chunk_size(ByteSize::mb(4))
    } else {
        repo
    })
}

/// What a replay exercised, so a test can check its inputs reach the
/// out-of-order and partial-residency paths.
#[derive(Debug, Default)]
struct Coverage {
    prefix_hits: usize,
    restores: usize,
    backward_steps: usize,
    evictions: usize,
}

/// Restore a prefix of `clip` into both caches if it is absent and the
/// prefix fits in the free space, as a snapshot restore would.
fn restore_both(
    cache: &mut dyn ClipCache,
    reference: &mut Reference,
    clip: ClipId,
    raw_prefix: u32,
    now: Timestamp,
) -> bool {
    let repo = reference.space.repo();
    let prefix = 1 + raw_prefix % repo.chunks_of(clip);
    let fits = repo.prefix_bytes(clip, prefix) <= reference.space.free();
    if !fits || reference.space.resident_prefix(clip) != 0 {
        return false;
    }
    cache.restore_prefix(clip, prefix, now);
    reference.restore_prefix(clip, prefix, now);
    true
}

/// Restore `restored` (clip, prefix) pairs at one tick, then replay `ops`:
/// each `(op, clip, step, prefix)` moves the clock by `step` (which may
/// be zero or negative) and either restores a prefix of an absent clip
/// (one op in eight, when it fits) or accesses the clip. Every recency
/// kind on both spellings must match the reference after every op.
fn check_against_reference(
    repo: &Arc<Repository>,
    capacity: ByteSize,
    restored: &[(usize, u32)],
    ops: &[(u8, usize, i8, u32)],
) -> Result<Coverage, TestCaseError> {
    let n = repo.len();
    let mut coverage = Coverage::default();
    for kind in RECENCY {
        for suffix in ["", "@heap"] {
            let spec: PolicySpec = format!("{}{suffix}", kind.spelling()).parse().unwrap();
            let mut cache = spec.build(Arc::clone(repo), capacity, 7, None);
            let mut reference = Reference::new(kind, Arc::clone(repo), capacity);
            let mut clock = 1_000u64;
            for &(clip, prefix) in restored {
                let clip = ClipId::from_index(clip % n);
                coverage.restores += usize::from(restore_both(
                    cache.as_mut(),
                    &mut reference,
                    clip,
                    prefix,
                    Timestamp(clock),
                ));
            }
            for (step, &(op, raw_clip, dt, prefix)) in ops.iter().enumerate() {
                clock = clock.saturating_add_signed(i64::from(dt));
                coverage.backward_steps += usize::from(dt < 0);
                let (clip, now) = (ClipId::from_index(raw_clip % n), Timestamp(clock));
                if op % 8 == 0 {
                    coverage.restores += usize::from(restore_both(
                        cache.as_mut(),
                        &mut reference,
                        clip,
                        prefix,
                        now,
                    ));
                } else {
                    let want = reference.access(clip, now);
                    let got = cache.access(clip, now);
                    prop_assert_eq!(
                        &got,
                        &want,
                        "{}: op {} ({} at {:?})",
                        spec.spelling(),
                        step,
                        clip,
                        now
                    );
                    coverage.prefix_hits +=
                        usize::from(matches!(got, AccessOutcome::PrefixHit { .. }));
                    coverage.evictions += got.evicted().len();
                }
                let state = (cache.resident_clips(), cache.partial_clips(), cache.used());
                let space = &reference.space;
                let want = (space.resident_ids(), space.partials(), space.used());
                prop_assert_eq!(state, want, "{}: op {}", spec.spelling(), step);
            }
        }
    }
    Ok(coverage)
}

/// A long seeded replay over both repository shapes that must reach
/// every path the list can get wrong.
#[test]
fn recency_list_matches_the_scan_reference_on_a_long_replay() {
    let sizes_mb = [3u64, 9, 14, 5, 22, 7, 11, 30, 2, 17, 6, 13];
    let mut rng = Pcg64::seed_from_u64(0x5EED_2007);
    let restored: Vec<(usize, u32)> = (0..10)
        .map(|_| (rng.next_index(12), rng.next_bounded(8) as u32))
        .collect();
    let ops: Vec<(u8, usize, i8, u32)> = (0..2_000)
        .map(|_| {
            let op = rng.next_bounded(256) as u8;
            let clip = rng.next_index(12);
            let dt = rng.next_bounded(7) as i8 - 2;
            (op, clip, dt, rng.next_bounded(8) as u32)
        })
        .collect();
    for chunked in [false, true] {
        let repo = build_repo(&sizes_mb, chunked);
        let coverage = check_against_reference(&repo, ByteSize::mb(48), &restored, &ops)
            .unwrap_or_else(|e| panic!("chunked={chunked}: {e:?}"));
        assert!(coverage.restores > 0, "{coverage:?}");
        assert!(coverage.backward_steps > 0, "{coverage:?}");
        assert!(coverage.evictions > 0, "{coverage:?}");
        if chunked {
            assert!(coverage.prefix_hits > 0, "{coverage:?}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn recency_list_matches_the_scan_reference(
        sizes_mb in proptest::collection::vec(1u64..40, 2..16),
        capacity_mb in 8u64..120,
        chunk_pick in any::<u8>(),
        restored in proptest::collection::vec((0usize..16, 0u32..12), 0..10),
        ops in proptest::collection::vec((any::<u8>(), 0usize..16, -3i8..4, 0u32..12), 1..400),
    ) {
        let repo = build_repo(&sizes_mb, chunk_pick % 2 == 1);
        check_against_reference(&repo, ByteSize::mb(capacity_mb), &restored, &ops)?;
    }
}
