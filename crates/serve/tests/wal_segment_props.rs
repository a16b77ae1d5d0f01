//! Property tests for the segmented WAL container: arbitrary record
//! sets round-trip through a segment (sealed or not), every truncation
//! of the newest segment silently recovers the valid record prefix, a
//! single flipped bit anywhere in a *sealed* segment is loud
//! corruption (the footer CRC covers every byte), and a checkpoint
//! whose cutoff lands mid-segment skips the subsumed prefix across the
//! segment boundary instead of replaying or refusing it.
//!
//! The mapped tail adds its own cases: every publication prefix of the
//! last frame over a zero-filled reservation recovers the frames before
//! it; a non-zero byte past the one unpublished body, a valid frame
//! after a zero length and any byte after a seal footer are loud. A
//! trimmed segment is byte for byte what a build that committed with
//! `write(2)` left, so the truncation property covers those as before.
//!
//! Segment creation fsyncs neither the header nor (under `off`) the
//! directory, so the power-loss cases write out each directory state
//! that order can leave — no first segment, an empty newest segment, a
//! newest segment whose header is all zeros, a sealed newest segment
//! with no successor — and open each under both sync modes; a zero
//! header anywhere else and a wrong non-zero magic stay loud.
//!
//! The plain `#[test]`s walk a deterministic corpus; the `proptest!`
//! cases add random inputs on top (the vendored `proptest` is a small
//! real runner, see `vendor/README.md`).

use clipcache_core::snapshot::CacheSnapshot;
use clipcache_core::PolicyKind;
use clipcache_media::{paper, ByteSize, ClipId};
use clipcache_serve::persist::{
    decode_segment, seal_footer, segment_file_name, segment_header, write_checkpoint, CrashSpec,
    DurableCheckpoint, DurableState, PersistError, SegmentEnd, ShardStore, WalOp, WalRecord,
    WalSync, WalTuning, SEGMENT_HEADER_BYTES,
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

/// Two records per segment.
fn two_record_segments() -> WalTuning {
    WalTuning {
        segment_bytes: (SEGMENT_HEADER_BYTES + 2 * FRAME_BYTES) as u64,
        ..WalTuning::default()
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
    let tuning = two_record_segments();
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
    let tuning = two_record_segments();
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

/// Bytes of a frame's length field; the body (CRC and payload) follows.
const LEN_BYTES: usize = 4;
/// Zero bytes of reservation a live segment's tail carries in these
/// cases: more than two frames, fewer than a page.
const ZERO_TAIL: usize = 3 * FRAME_BYTES + 13;

/// Segment `no` as a live store leaves it on disk: `records` published,
/// then the first `published` bytes of `next` in publication order
/// (body first, length last), then the zero-filled reservation.
fn live_segment(no: u64, records: &[WalRecord], next: &WalRecord, published: usize) -> Vec<u8> {
    let mut bytes = segment_of(no, records, false);
    let pos = bytes.len();
    bytes.resize(pos + FRAME_BYTES + ZERO_TAIL, 0);
    let frame = next.encode();
    let body = published.min(FRAME_BYTES - LEN_BYTES);
    bytes[pos + LEN_BYTES..pos + LEN_BYTES + body]
        .copy_from_slice(&frame[LEN_BYTES..LEN_BYTES + body]);
    let len = published - body;
    bytes[pos..pos + len].copy_from_slice(&frame[..len]);
    bytes
}

fn assert_corrupt(bytes: &[u8], no: u64, what: &str) {
    match decode_segment(bytes, no) {
        Err(PersistError::Corrupt { .. }) => {}
        other => panic!("{what} must be loud corruption, got {other:?}"),
    }
}

#[test]
fn every_publication_prefix_of_the_last_frame_over_a_zero_tail_recovers() {
    let records = corpus();
    let (done, last) = records.split_at(records.len() - 1);
    let pos = (SEGMENT_HEADER_BYTES + done.len() * FRAME_BYTES) as u64;
    let frame = last[0].encode();
    for published in 0..=FRAME_BYTES {
        let bytes = live_segment(5, done, &last[0], published);
        let (decoded, end) = decode_segment(&bytes, 5)
            .unwrap_or_else(|e| panic!("{published} bytes published must decode, got {e}"));
        if published <= FRAME_BYTES - LEN_BYTES {
            // The length is published last: until it lands, the frame
            // is a dropped body, however much of it reached the page.
            let dropped = frame[LEN_BYTES..LEN_BYTES + published]
                .iter()
                .rposition(|&b| b != 0)
                .map_or(0, |i| (LEN_BYTES + i + 1) as u64);
            assert_eq!(decoded, done, "{published} bytes published");
            assert_eq!(
                end,
                SegmentEnd::ZeroTail {
                    valid_bytes: pos,
                    dropped_bytes: dropped,
                },
                "{published} bytes published"
            );
        } else {
            // Any byte of the little-endian length completes the frame.
            assert_eq!(decoded, records, "{published} bytes published");
            assert_eq!(
                end,
                SegmentEnd::ZeroTail {
                    valid_bytes: pos + FRAME_BYTES as u64,
                    dropped_bytes: 0,
                },
                "{published} bytes published"
            );
        }
    }
}

#[test]
fn a_non_zero_byte_past_the_unpublished_body_is_loud() {
    let records = corpus();
    let (done, last) = records.split_at(records.len() - 1);
    let pos = SEGMENT_HEADER_BYTES + done.len() * FRAME_BYTES;
    for published in [0, 1, FRAME_BYTES - LEN_BYTES] {
        let clean = live_segment(5, done, &last[0], published);
        for at in pos + FRAME_BYTES..clean.len() {
            for byte in [0x01, 0x80, 0xFF] {
                let mut bytes = clean.clone();
                bytes[at] = byte;
                assert_corrupt(
                    &bytes,
                    5,
                    &format!("byte {byte:#x} at {at} after {published}"),
                );
            }
        }
    }
}

#[test]
fn a_valid_frame_after_a_zero_length_is_loud() {
    let records = corpus();
    let (done, last) = records.split_at(records.len() - 1);
    let pos = SEGMENT_HEADER_BYTES + done.len() * FRAME_BYTES;
    // The frame lands wherever a skipped slot, or any later offset,
    // would put it: an unpublished frame never has a successor.
    for next in [
        last[0],
        WalRecord {
            seq: last[0].seq + 1,
            ..last[0]
        },
    ] {
        for published in [0, FRAME_BYTES - LEN_BYTES] {
            let clean = live_segment(5, done, &last[0], published);
            for at in pos + FRAME_BYTES..=clean.len() - FRAME_BYTES {
                let mut bytes = clean.clone();
                bytes[at..at + FRAME_BYTES].copy_from_slice(&next.encode());
                assert_corrupt(&bytes, 5, &format!("seq {} at {at}", next.seq));
            }
        }
    }
}

#[test]
fn any_bytes_after_a_seal_footer_are_loud() {
    let records = corpus();
    let sealed = segment_of(3, &records, true);
    let mut tails: Vec<Vec<u8>> = (1..=2 * FRAME_BYTES).map(|n| vec![0; n]).collect();
    tails.extend([vec![0x01], vec![0xFF; 3], records[0].encode().to_vec()]);
    for tail in tails {
        let mut bytes = sealed.clone();
        bytes.extend_from_slice(&tail);
        assert_corrupt(&bytes, 3, &format!("{} bytes after the footer", tail.len()));
    }
}

#[test]
fn a_store_killed_mid_publication_recovers_every_frame_before_it() {
    for before in [0u64, 1, 7] {
        let dir = scratch(&format!("torn-publication-{before}"));
        {
            let (mut store, _) =
                ShardStore::open_tuned(&dir, WalSync::Off, WalTuning::default()).unwrap();
            for i in 1..=before {
                store.append(WalOp::Get, ClipId::new(i as u32)).unwrap();
            }
            store.arm_crash(Some(CrashSpec::parse("torn:1").unwrap()));
            assert!(matches!(
                store.append(WalOp::Admit, ClipId::new(99)),
                Err(PersistError::CrashInjected)
            ));
        }
        // The dead store leaves its file as the kill did: the frames,
        // half a body with no length, and the reservation's zeros.
        let bytes = std::fs::read(dir.join(segment_file_name(1))).unwrap();
        let (decoded, end) = decode_segment(&bytes, 1).unwrap();
        assert_eq!(decoded.len() as u64, before);
        let SegmentEnd::ZeroTail {
            valid_bytes,
            dropped_bytes,
        } = end
        else {
            panic!("a killed store leaves a zero tail, got {end:?}");
        };
        assert_eq!(
            valid_bytes,
            (SEGMENT_HEADER_BYTES + before as usize * FRAME_BYTES) as u64
        );
        assert!(dropped_bytes > 0, "half a body was published");
        let (_, state) = ShardStore::open_tuned(&dir, WalSync::Off, WalTuning::default()).unwrap();
        assert_eq!(state.records.len() as u64, before);
        assert_eq!(state.torn_bytes_dropped, dropped_bytes);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

// ---- power-loss states ------------------------------------------------

/// Records 1–4 under two-record segments: segments 1 and 2 sealed,
/// segment 3 just created by the second roll and holding no record.
fn sealed_log(dir: &std::path::Path) {
    let (mut store, _) = ShardStore::open_tuned(dir, WalSync::Off, two_record_segments()).unwrap();
    for clip in 1..=4 {
        store.append(WalOp::Get, ClipId::new(clip)).unwrap();
    }
    assert_eq!(store.segment_span(), (1, 3));
}

/// What opening a data dir returns.
type Opened = Result<(ShardStore, DurableState), PersistError>;

/// Build a state with `make` in a fresh dir per sync mode and open it.
fn open_power_loss_state(
    tag: &str,
    make: impl Fn(&std::path::Path),
) -> Vec<(WalSync, Opened, PathBuf)> {
    [WalSync::Off, WalSync::Always]
        .into_iter()
        .map(|sync| {
            let dir = scratch(&format!("power-{tag}-{}", sync.spelling()));
            std::fs::create_dir_all(&dir).unwrap();
            make(&dir);
            let opened = ShardStore::open_tuned(&dir, sync, two_record_segments());
            (sync, opened, dir)
        })
        .collect()
}

/// Open `make`'s state under both modes and check it recovers exactly
/// `records` records, drops `dropped` bytes and leaves segment
/// `active` newest, with a clean, working log that reopens the same.
fn assert_power_loss_state_recovers(
    tag: &str,
    make: impl Fn(&std::path::Path),
    records: u64,
    dropped: u64,
    active: u64,
) {
    for (sync, opened, dir) in open_power_loss_state(tag, make) {
        let (mut store, state) =
            opened.unwrap_or_else(|e| panic!("{tag} under {sync:?} must open, got {e}"));
        let seqs: Vec<u64> = state.records.iter().map(|r| r.seq).collect();
        assert_eq!(
            seqs,
            (1..=records).collect::<Vec<_>>(),
            "{tag} under {sync:?}"
        );
        assert_eq!(state.torn_bytes_dropped, dropped, "{tag} under {sync:?}");
        assert_eq!(store.segment_span().1, active, "{tag} under {sync:?}");
        let (_, end) = decode_segment(
            &std::fs::read(dir.join(segment_file_name(active))).unwrap(),
            active,
        )
        .unwrap();
        assert_eq!(
            end,
            SegmentEnd::Clean,
            "{tag}: the newest segment starts afresh"
        );
        assert_eq!(
            store.append(WalOp::Admit, ClipId::new(9)).unwrap(),
            records + 1,
            "{tag} under {sync:?}: the log continues"
        );
        drop(store);
        let (_, again) = ShardStore::open_tuned(&dir, sync, two_record_segments()).unwrap();
        assert_eq!(
            again.records.len() as u64,
            records + 1,
            "{tag} under {sync:?}"
        );
        assert_eq!(again.torn_bytes_dropped, 0, "{tag} under {sync:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Replace segment `no` in `dir` with `bytes`.
fn plant(dir: &std::path::Path, no: u64, bytes: &[u8]) {
    std::fs::write(dir.join(segment_file_name(no)), bytes).unwrap();
}

#[test]
fn a_fresh_shard_dir_without_its_first_segment_opens() {
    assert_power_loss_state_recovers("fresh", |_| {}, 0, 0, 1);
}

#[test]
fn an_empty_newest_segment_is_created_afresh() {
    assert_power_loss_state_recovers("empty-first", |dir| plant(dir, 1, &[]), 0, 0, 1);
    assert_power_loss_state_recovers(
        "empty-newest",
        |dir| {
            sealed_log(dir);
            plant(dir, 3, &[]);
        },
        4,
        0,
        3,
    );
}

#[test]
fn a_newest_segment_whose_header_never_reached_the_disk_is_created_afresh() {
    // Its length reached the disk, none of its bytes.
    assert_power_loss_state_recovers(
        "zero-header",
        |dir| {
            sealed_log(dir);
            plant(dir, 3, &[0; SEGMENT_HEADER_BYTES + 4096]);
        },
        4,
        0,
        3,
    );
    // Its frames' page reached the disk without its header: none of
    // them was ever acknowledged as durable, so they are dropped and
    // counted, never replayed.
    let mut bytes = vec![0u8; SEGMENT_HEADER_BYTES];
    for seq in 5..=6 {
        bytes.extend_from_slice(&record_from(seq, seq as u32, 0).encode());
    }
    let dropped = bytes.iter().rposition(|&b| b != 0).unwrap() as u64 + 1;
    bytes.resize(bytes.len() + ZERO_TAIL, 0);
    assert_power_loss_state_recovers(
        "zero-header-frames",
        |dir| {
            sealed_log(dir);
            plant(dir, 3, &bytes);
        },
        4,
        dropped,
        3,
    );
}

#[test]
fn a_sealed_newest_segment_gets_its_successor() {
    assert_power_loss_state_recovers(
        "sealed-newest",
        |dir| {
            sealed_log(dir);
            std::fs::remove_file(dir.join(segment_file_name(3))).unwrap();
        },
        4,
        0,
        3,
    );
}

/// Open `make`'s state under both modes; each must refuse loudly.
fn assert_power_loss_state_is_loud(tag: &str, make: impl Fn(&std::path::Path)) {
    for (sync, opened, dir) in open_power_loss_state(tag, make) {
        match opened.map(|_| ()) {
            Err(PersistError::Corrupt { .. }) => {}
            other => panic!("{tag} under {sync:?} must be loud corruption, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn a_zero_header_before_the_newest_segment_is_loud() {
    // No power loss leaves it: a segment's successor exists only once
    // the segment's seal, header included, is durable.
    assert_power_loss_state_is_loud("zero-header-middle", |dir| {
        sealed_log(dir);
        let path = dir.join(segment_file_name(2));
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[..SEGMENT_HEADER_BYTES].fill(0);
        std::fs::write(&path, bytes).unwrap();
    });
}

#[test]
fn a_non_zero_wrong_magic_on_the_newest_segment_is_loud() {
    for (at, byte) in [(0, b'X'), (7, 1), (3, 0)] {
        assert_power_loss_state_is_loud(&format!("bad-magic-{at}"), |dir| {
            sealed_log(dir);
            let mut header = segment_header(3);
            header[at] = byte;
            plant(dir, 3, &header);
        });
    }
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
