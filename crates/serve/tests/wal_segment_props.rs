//! Property tests for the segmented WAL container: arbitrary record
//! sets round-trip through a segment (sealed or not), every truncation
//! of the newest segment silently recovers the valid record prefix, a
//! single flipped bit anywhere in a *sealed* segment is loud
//! corruption (the footer CRC covers every byte), and a checkpoint
//! whose cutoff lands mid-segment skips the subsumed prefix across the
//! segment boundary instead of replaying or refusing it.
//!
//! The plain `#[test]`s walk a deterministic corpus; the `proptest!`
//! cases add random inputs on top (the vendored `proptest` is a small
//! real runner, see `vendor/README.md`).

use clipcache_core::snapshot::CacheSnapshot;
use clipcache_core::PolicyKind;
use clipcache_media::{paper, ByteSize, ClipId};
use clipcache_serve::persist::{
    decode_segment, seal_footer, segment_file_name, segment_header, write_checkpoint,
    DurableCheckpoint, PersistError, SegmentEnd, ShardStore, WalOp, WalRecord, WalSync, WalTuning,
    SEGMENT_HEADER_BYTES,
};
use clipcache_sim::metrics::HitStats;
use clipcache_workload::Timestamp;
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::Arc;

/// Frame layout: len (4) + crc (4) + payload (17) — version 2.
const FRAME_BYTES: usize = 25;

fn record_from(seq: u64, clip: u32, op_selector: u8) -> WalRecord {
    let (op, chunk) = match op_selector % 3 {
        0 => (WalOp::Get, 0),
        1 => (WalOp::Admit, 0),
        _ => (WalOp::GetRange, clip.rotate_left(11)),
    };
    WalRecord {
        seq,
        clip: ClipId::new(clip.max(1)),
        chunk,
        op,
    }
}

/// A contiguous run of records starting at seq 1, fields varied.
fn run_of(seeds: &[u64]) -> Vec<WalRecord> {
    seeds
        .iter()
        .enumerate()
        .map(|(i, &s)| record_from(i as u64 + 1, (s % u32::MAX as u64) as u32 + 1, i as u8))
        .collect()
}

/// On-disk bytes of segment `no` holding `records`, sealed or active.
fn segment_of(no: u64, records: &[WalRecord], sealed: bool) -> Vec<u8> {
    let mut bytes = segment_header(no).to_vec();
    for r in records {
        bytes.extend_from_slice(&r.encode());
    }
    if sealed {
        let footer = seal_footer(&bytes, records.last().map_or(0, |r| r.seq));
        bytes.extend_from_slice(&footer);
    }
    bytes
}

/// Round-trip property: the decode returns exactly the records that
/// went in and names the end correctly.
fn assert_round_trip(no: u64, records: &[WalRecord], sealed: bool) {
    let bytes = segment_of(no, records, sealed);
    let (decoded, end) = decode_segment(&bytes, no).expect("well-formed segment decodes");
    assert_eq!(decoded, records);
    if sealed {
        assert_eq!(
            end,
            SegmentEnd::Sealed {
                last_seq: records.last().unwrap().seq
            }
        );
    } else {
        assert_eq!(end, SegmentEnd::Clean);
    }
}

/// Truncation property for an unsealed (newest) segment cut at `cut`
/// bytes: the decode never errors, returns the records whose frames
/// fit, and reports the leftover as torn — a crash truncates, it does
/// not corrupt.
fn assert_truncation_recovers(records: &[WalRecord], cut: usize) {
    let bytes = segment_of(7, records, false);
    let cut = cut % (bytes.len() + 1);
    let (decoded, end) = decode_segment(&bytes[..cut], 7)
        .unwrap_or_else(|e| panic!("prefix of {cut} bytes must decode, got {e}"));
    if cut < SEGMENT_HEADER_BYTES {
        assert_eq!(decoded, [], "cut {cut}");
        assert_eq!(
            end,
            SegmentEnd::Torn {
                valid_bytes: 0,
                dropped_bytes: cut as u64,
            },
            "cut {cut}: a torn header is a crash during segment creation"
        );
        return;
    }
    let whole = (cut - SEGMENT_HEADER_BYTES) / FRAME_BYTES;
    let leftover = ((cut - SEGMENT_HEADER_BYTES) % FRAME_BYTES) as u64;
    assert_eq!(decoded, records[..whole], "cut {cut}");
    if leftover == 0 {
        assert_eq!(end, SegmentEnd::Clean, "cut {cut}");
    } else {
        assert_eq!(
            end,
            SegmentEnd::Torn {
                valid_bytes: (SEGMENT_HEADER_BYTES + whole * FRAME_BYTES) as u64,
                dropped_bytes: leftover,
            },
            "cut {cut}"
        );
    }
}

/// Bit-flip property for a sealed segment: *every* single-bit flip —
/// header, frames, or footer — fails the decode loudly. Sealed
/// segments are never silently truncated or partially replayed.
fn assert_sealed_flip_is_loud(records: &[WalRecord], bit: usize) {
    let bytes = segment_of(3, records, true);
    let bit = bit % (bytes.len() * 8);
    let mut flipped = bytes.clone();
    flipped[bit / 8] ^= 1 << (bit % 8);
    assert!(
        decode_segment(&flipped, 3).is_err(),
        "bit {bit}: a flipped bit in a sealed segment must be loud"
    );
}

/// A deterministic record set hitting the field boundaries.
fn corpus() -> Vec<WalRecord> {
    run_of(&[1, 2, u32::MAX as u64, u64::MAX, 0xDEAD_BEEF])
}

#[test]
fn boundary_records_round_trip_sealed_and_unsealed() {
    let records = corpus();
    for sealed in [false, true] {
        assert_round_trip(1, &records, sealed);
        assert_round_trip(0xABCDEF, &records, sealed);
    }
    // The freshly created (empty, unsealed) segment is valid too.
    let bytes = segment_of(1, &[], false);
    assert_eq!(
        decode_segment(&bytes, 1).unwrap(),
        (Vec::new(), SegmentEnd::Clean)
    );
}

#[test]
fn every_truncation_of_the_newest_segment_recovers_a_prefix() {
    let records = corpus();
    let len = segment_of(7, &records, false).len();
    for cut in 0..=len {
        assert_truncation_recovers(&records, cut);
    }
}

#[test]
fn every_single_bit_flip_in_a_sealed_segment_is_loud() {
    let records = corpus();
    let bits = segment_of(3, &records, true).len() * 8;
    for bit in 0..bits {
        assert_sealed_flip_is_loud(&records, bit);
    }
}

/// A checkpoint covering through `seq`, over a throwaway cache.
fn checkpoint_at(seq: u64) -> DurableCheckpoint {
    let repo = Arc::new(paper::equi_sized_repository_of(4, ByteSize::mb(1)));
    let cache = PolicyKind::Lru.build(repo, ByteSize::mb(4), 1, None);
    DurableCheckpoint {
        snapshot: CacheSnapshot::take(cache.as_ref(), PolicyKind::Lru, Timestamp(seq)),
        stats: HitStats::new(),
        seq,
    }
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("clipcache-segprops-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Subsumed-prefix property: append `total` records under two-record
/// segments, then plant a checkpoint covering through `cutoff` — a
/// cutoff that lands *inside* or *past* a sealed segment. Reopen must
/// replay exactly the records after the cutoff, delete every fully
/// subsumed segment, and never replay a subsumed record — even when
/// the subsumed prefix ends mid-segment.
fn assert_subsumed_prefix_skips(total: u64, cutoff: u64) {
    assert!(cutoff <= total && total > 0);
    let dir = scratch(&format!("skip-{total}-{cutoff}"));
    let tuning = WalTuning {
        segment_bytes: (SEGMENT_HEADER_BYTES + 2 * FRAME_BYTES) as u64,
        ..WalTuning::default()
    };
    {
        let (mut store, _) = ShardStore::open_tuned(&dir, WalSync::Off, tuning).unwrap();
        for i in 1..=total {
            store
                .append(WalOp::Get, ClipId::new((i % 4) as u32 + 1))
                .unwrap();
        }
    }
    // Plant the checkpoint the way a crash between the checkpoint
    // rename and the segment cleanup would leave it: covering through
    // `cutoff` with every segment still on disk.
    write_checkpoint(&dir, &checkpoint_at(cutoff).to_json()).unwrap();

    let (store, state) = ShardStore::open_tuned(&dir, WalSync::Off, tuning).unwrap();
    assert_eq!(
        state.records.len() as u64,
        total - cutoff,
        "replay is exactly the suffix after the checkpoint"
    );
    assert_eq!(
        state.records.first().map(|r| r.seq),
        (cutoff < total).then_some(cutoff + 1),
        "replay starts right after the cutoff"
    );
    assert_eq!(
        state.subsumed_records, cutoff,
        "the prefix was skipped, counted"
    );
    // Fully subsumed sealed segments are gone; the store still spans a
    // contiguous run of segment numbers.
    let (oldest, newest) = store.segment_span();
    assert!(oldest >= 1 && oldest <= newest);
    let survivors = (newest - oldest + 1) * 2;
    assert!(
        survivors + cutoff >= total,
        "surviving segments ({oldest}..{newest}) still hold every live record"
    );
    drop(store);
    // The skip is stable: a second open replays the same suffix.
    let (_, again) = ShardStore::open_tuned(&dir, WalSync::Off, tuning).unwrap();
    assert_eq!(again.records, state.records);
    match again.checkpoint {
        Some(c) => assert_eq!(c.seq, cutoff),
        None => panic!("the planted checkpoint survives"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_checkpoint_cutoff_anywhere_in_a_multi_segment_log_skips_the_prefix() {
    // Seven records under two-record segments: segments 1–3 sealed,
    // segment 4 active with one record. Every cutoff position crosses
    // (or lands exactly on) a segment boundary somewhere.
    for cutoff in 0..=7u64 {
        assert_subsumed_prefix_skips(7, cutoff);
    }
}

#[test]
fn mid_log_corruption_is_loud_not_a_cold_start() {
    // The flip-side of silent truncation: a flipped bit in a *sealed*
    // segment fails the whole open, even though the newest segment is
    // pristine.
    let dir = scratch("midlog");
    let tuning = WalTuning {
        segment_bytes: (SEGMENT_HEADER_BYTES + 2 * FRAME_BYTES) as u64,
        ..WalTuning::default()
    };
    {
        let (mut store, _) = ShardStore::open_tuned(&dir, WalSync::Off, tuning).unwrap();
        for i in 1..=5u64 {
            store
                .append(WalOp::Get, ClipId::new((i % 4) as u32 + 1))
                .unwrap();
        }
    }
    let seg1 = dir.join(segment_file_name(1));
    let mut bytes = std::fs::read(&seg1).unwrap();
    let mid = SEGMENT_HEADER_BYTES + FRAME_BYTES / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(&seg1, &bytes).unwrap();
    match ShardStore::open_tuned(&dir, WalSync::Off, tuning).map(|_| ()) {
        Err(PersistError::Corrupt { .. }) => {}
        other => panic!("mid-log corruption must refuse to open, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    #[test]
    fn arbitrary_segments_round_trip(
        seeds in proptest::collection::vec(0u64..u64::MAX, 1..12),
        no in 1u64..1_000_000,
        sealed in any::<bool>(),
    ) {
        assert_round_trip(no, &run_of(&seeds), sealed);
    }

    #[test]
    fn arbitrary_truncations_of_the_newest_segment_recover(
        seeds in proptest::collection::vec(0u64..u64::MAX, 1..12),
        cut_selector in 0usize..usize::MAX,
    ) {
        assert_truncation_recovers(&run_of(&seeds), cut_selector);
    }

    #[test]
    fn arbitrary_bit_flips_in_sealed_segments_are_loud(
        seeds in proptest::collection::vec(0u64..u64::MAX, 1..12),
        bit_selector in 0usize..usize::MAX,
    ) {
        assert_sealed_flip_is_loud(&run_of(&seeds), bit_selector);
    }
}
