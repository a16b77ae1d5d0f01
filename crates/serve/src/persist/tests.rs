use super::*;
use clipcache_core::snapshot::CacheSnapshot;
use clipcache_core::PolicyKind;
use clipcache_media::{paper, ByteSize, ClipId};
use clipcache_sim::metrics::HitStats;
use clipcache_workload::Timestamp;
use std::path::Path;
use std::sync::{Arc, Mutex};

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("clipcache-persist-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn record(seq: u64, clip: u32, op: WalOp) -> WalRecord {
    WalRecord {
        seq,
        clip: ClipId::new(clip),
        chunk: 0,
        op,
    }
}

/// `frames` as the body of segment 1, behind its header.
fn segment_of(frames: &[u8]) -> Vec<u8> {
    let mut segment = segment_header(1).to_vec();
    segment.extend_from_slice(frames);
    segment
}

/// Offset of the first frame in a segment.
const BODY: u64 = SEGMENT_HEADER_BYTES as u64;

fn range_record(seq: u64, clip: u32, chunk: u32) -> WalRecord {
    WalRecord {
        seq,
        clip: ClipId::new(clip),
        chunk,
        op: WalOp::GetRange,
    }
}

/// The newest-segment path most single-segment tests poke at.
fn seg1(dir: &Path) -> PathBuf {
    dir.join(segment_file_name(1))
}

/// Tuning that rolls after every two records (24-byte header + two
/// 25-byte frames = 74), with no commit window.
fn tiny_segments() -> WalTuning {
    WalTuning {
        segment_bytes: 74,
        commit_window: Duration::ZERO,
    }
}

/// Tuning that group-commits with the given batch window.
fn windowed(window: Duration) -> WalTuning {
    WalTuning {
        segment_bytes: DEFAULT_SEGMENT_BYTES,
        commit_window: window,
    }
}

/// A complete sealed segment, in memory.
fn sealed_segment_bytes(no: u64, records: &[WalRecord]) -> Vec<u8> {
    let mut bytes = segment_header(no).to_vec();
    for r in records {
        bytes.extend_from_slice(&r.encode());
    }
    let footer = seal_footer(&bytes, records.last().map_or(0, |r| r.seq));
    bytes.extend_from_slice(&footer);
    bytes
}

#[test]
fn crc32_matches_known_vectors() {
    // The standard IEEE check values (zlib's crc32 agrees).
    assert_eq!(crc32(b""), 0);
    assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    assert_eq!(
        crc32(b"The quick brown fox jumps over the lazy dog"),
        0x414F_A339
    );
}

/// The CRC register after feeding `bytes` one bit at a time: the
/// textbook definition the slicing-by-8 tables must agree with.
fn bitwise_crc(mut crc: u32, bytes: &[u8]) -> u32 {
    for &b in bytes {
        crc ^= b as u32;
        for _ in 0..8 {
            crc = (crc >> 1) ^ (CRC_POLY & (crc & 1).wrapping_neg());
        }
    }
    crc
}

#[test]
fn crc32_tables_match_the_bitwise_definition() {
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut byte = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state as u8
    };
    let mut inputs: Vec<Vec<u8>> = (0..=100)
        .map(|len| (0..len).map(|_| byte()).collect())
        .collect();
    inputs.push((0..4096).map(|_| byte()).collect());
    for input in &inputs {
        let expected = !bitwise_crc(0xFFFF_FFFF, input);
        assert_eq!(crc32(input), expected, "whole, {} bytes", input.len());
        // Streaming in two pieces, split anywhere up to 17 bytes in,
        // crosses every alignment of the 8-byte stride.
        for split in 0..=input.len().min(17) {
            let mut crc = Crc32::new();
            crc.update(&input[..split]);
            crc.update(&input[split..]);
            assert_eq!(
                crc.finish(),
                expected,
                "{} bytes split at {split}",
                input.len()
            );
        }
    }
}

#[test]
fn records_round_trip_through_the_frame() {
    let recs = [
        record(1, 1, WalOp::Get),
        record(2, u32::MAX, WalOp::Admit),
        record(3, 17, WalOp::Get),
        range_record(4, 9, 0),
        range_record(5, 9, u32::MAX),
    ];
    let mut log = Vec::new();
    for r in &recs {
        log.extend_from_slice(&r.encode());
    }
    let (decoded, end) = decode_segment(&segment_of(&log), 1).unwrap();
    assert_eq!(decoded, recs);
    assert_eq!(end, SegmentEnd::Clean);
    assert_eq!(
        decode_segment(&segment_of(&[]), 1).unwrap(),
        (vec![], SegmentEnd::Clean)
    );
}

#[test]
fn v1_records_are_rejected_by_name() {
    // Hand-build a version-1 frame: 13-byte payload (seq + clip +
    // op), valid CRC. It must be refused naming the old layout, not
    // reinterpreted or written off as a torn tail.
    let mut payload = [0u8; 13];
    payload[..8].copy_from_slice(&1u64.to_le_bytes());
    payload[8..12].copy_from_slice(&7u32.to_le_bytes());
    payload[12] = 0; // v1 Get
    let len = 13u32.to_le_bytes();
    let mut crc = Crc32::new();
    crc.update(&len);
    crc.update(&payload);
    let mut frame = Vec::new();
    frame.extend_from_slice(&len);
    frame.extend_from_slice(&crc.finish().to_le_bytes());
    frame.extend_from_slice(&payload);
    match decode_segment(&segment_of(&frame), 1) {
        Err(PersistError::Corrupt { offset, reason }) => {
            assert_eq!(offset, BODY);
            assert!(reason.contains("version-1"), "names the version: {reason}");
            assert!(reason.contains("13-byte"), "names the layout: {reason}");
        }
        other => panic!("v1 record must be refused loudly, got {other:?}"),
    }
}

#[test]
fn whole_clip_records_with_nonzero_chunk_are_corrupt() {
    let mut forged = record(1, 3, WalOp::Get);
    forged.chunk = 5;
    match decode_segment(&segment_of(&forged.encode()), 1) {
        Err(PersistError::Corrupt { reason, .. }) => {
            assert!(reason.contains("nonzero chunk"), "{reason}");
        }
        other => panic!("nonzero chunk on a Get must be loud, got {other:?}"),
    }
}

#[test]
fn torn_tail_is_truncated_not_replayed() {
    let full = record(1, 3, WalOp::Get).encode();
    let torn = record(2, 4, WalOp::Get).encode();
    for cut in 1..torn.len() {
        let mut log = full.to_vec();
        log.extend_from_slice(&torn[..cut]);
        let (decoded, end) = decode_segment(&segment_of(&log), 1).unwrap();
        assert_eq!(decoded.len(), 1, "cut at {cut} must keep the valid prefix");
        assert_eq!(
            end,
            SegmentEnd::Torn {
                valid_bytes: BODY + full.len() as u64,
                dropped_bytes: cut as u64,
            },
            "cut at {cut}"
        );
    }
}

#[test]
fn mid_log_corruption_is_loud() {
    let mut log = Vec::new();
    for seq in 1..=3 {
        log.extend_from_slice(&record(seq, seq as u32, WalOp::Get).encode());
    }
    // Flip one payload bit in the middle record.
    let frame = FRAME_HEADER_BYTES + RECORD_PAYLOAD_BYTES;
    let mut corrupt = log.clone();
    corrupt[frame + FRAME_HEADER_BYTES + 2] ^= 0x10;
    match decode_segment(&segment_of(&corrupt), 1) {
        Err(PersistError::Corrupt { offset, .. }) => assert_eq!(offset, BODY + frame as u64),
        other => panic!("corruption must be loud, got {other:?}"),
    }
    // Flip a CRC bit: same refusal.
    let mut bad_crc = log;
    bad_crc[frame + 5] ^= 0x01;
    assert!(matches!(
        decode_segment(&segment_of(&bad_crc), 1),
        Err(PersistError::Corrupt { .. })
    ));
}

#[test]
fn crash_spec_round_trips_and_rejects_garbage() {
    for spec in [
        "append:1",
        "torn:64",
        "checkpoint:3",
        "seal:2",
        "segment-roll:4",
    ] {
        let parsed = CrashSpec::parse(spec).unwrap();
        assert_eq!(parsed.spelling(), spec);
        assert_eq!(CrashSpec::parse(&parsed.spelling()).unwrap(), parsed);
    }
    for bad in [
        "",
        "append",
        "append:",
        "append:0",
        "append:x",
        "frob:1",
        "torn:-1",
        "seal:0",
        "segment-roll:",
        "roll:1",
    ] {
        assert!(CrashSpec::parse(bad).is_err(), "accepted '{bad}'");
    }
    assert_eq!(WalSync::parse("always").unwrap(), WalSync::Always);
    assert_eq!(WalSync::parse("off").unwrap(), WalSync::Off);
    assert!(WalSync::parse("sometimes").is_err());
}

fn sample_checkpoint() -> DurableCheckpoint {
    let repo = Arc::new(paper::equi_sized_repository_of(8, ByteSize::mb(10)));
    let mut cache = PolicyKind::Lru.build(Arc::clone(&repo), ByteSize::mb(30), 1, None);
    for i in 1..=3u32 {
        cache.access(ClipId::new(i), Timestamp(i as u64));
    }
    let mut stats = HitStats::new();
    stats.record(false, ByteSize::mb(10), 0);
    stats.record(true, ByteSize::mb(10), 1);
    DurableCheckpoint {
        snapshot: CacheSnapshot::take(cache.as_ref(), PolicyKind::Lru, Timestamp(3)),
        stats,
        seq: 2,
    }
}

#[test]
fn checkpoint_json_round_trips_and_rejects_other_versions() {
    let ckpt = sample_checkpoint();
    let json = ckpt.to_json();
    assert_eq!(DurableCheckpoint::from_json(&json).unwrap(), ckpt);
    let future = json.replacen("\"version\":2", "\"version\":7", 1);
    let err = DurableCheckpoint::from_json(&future).unwrap_err();
    assert!(err.contains("not supported"), "weak rejection: {err}");
    assert!(
        err.contains("version 2"),
        "names what this build reads: {err}"
    );
    // A version-1 (whole-clip) checkpoint refuses naming both
    // versions — never silently restored without prefix state.
    let v1 = json.replacen("\"version\":2", "\"version\":1", 1);
    let err = DurableCheckpoint::from_json(&v1).unwrap_err();
    assert!(err.contains("version 1"), "names the found version: {err}");
    assert!(err.contains("whole-clip"), "says why: {err}");
    // An unsupported *snapshot* version nested inside also refuses.
    let nested = json.replace("\"snapshot\":{\"version\":2", "\"snapshot\":{\"version\":9");
    assert!(DurableCheckpoint::from_json(&nested).is_err());
    assert!(DurableCheckpoint::from_json("{}").is_err());
    assert!(DurableCheckpoint::from_json("not json").is_err());
}

#[test]
fn store_persists_appends_and_checkpoints_across_reopens() {
    let dir = tmp_dir("roundtrip");
    {
        let (mut store, state) = ShardStore::open(&dir, WalSync::Off).unwrap();
        assert!(state.checkpoint.is_none());
        assert!(state.records.is_empty());
        assert_eq!(store.append(WalOp::Get, ClipId::new(5)).unwrap(), 1);
        assert_eq!(store.append(WalOp::Admit, ClipId::new(6)).unwrap(), 2);
    }
    {
        let (mut store, state) = ShardStore::open(&dir, WalSync::Always).unwrap();
        assert_eq!(
            state.records,
            vec![record(1, 5, WalOp::Get), record(2, 6, WalOp::Admit)]
        );
        assert_eq!(state.torn_bytes_dropped, 0);
        // Checkpoint subsumes the log.
        let mut ckpt = sample_checkpoint();
        ckpt.seq = 2;
        store.checkpoint(&ckpt).unwrap();
        assert_eq!(store.append(WalOp::Get, ClipId::new(7)).unwrap(), 3);
    }
    let (_, state) = ShardStore::open(&dir, WalSync::Off).unwrap();
    let ckpt = state.checkpoint.expect("checkpoint survived");
    assert_eq!(ckpt.seq, 2);
    assert_eq!(state.records, vec![record(3, 7, WalOp::Get)]);
}

#[test]
fn range_probes_persist_with_their_chunk() {
    let dir = tmp_dir("range");
    {
        let (mut store, _) = ShardStore::open(&dir, WalSync::Off).unwrap();
        store.append(WalOp::Get, ClipId::new(2)).unwrap();
        store.append_range(ClipId::new(2), 7).unwrap();
    }
    let (_, state) = ShardStore::open(&dir, WalSync::Off).unwrap();
    assert_eq!(
        state.records,
        vec![record(1, 2, WalOp::Get), range_record(2, 2, 7)]
    );
}

#[test]
#[should_panic(expected = "GETRANGE records go through append_range")]
fn append_refuses_getrange_ops() {
    let dir = tmp_dir("append-range-misuse");
    let (mut store, _) = ShardStore::open(&dir, WalSync::Off).unwrap();
    let _ = store.append(WalOp::GetRange, ClipId::new(1));
}

#[test]
fn open_truncates_a_torn_tail_and_reports_it() {
    let dir = tmp_dir("torn");
    {
        let (mut store, _) = ShardStore::open(&dir, WalSync::Off).unwrap();
        store.append(WalOp::Get, ClipId::new(1)).unwrap();
        store.arm_crash(Some(CrashSpec::parse("torn:1").unwrap()));
        assert!(matches!(
            store.append(WalOp::Get, ClipId::new(2)),
            Err(PersistError::CrashInjected)
        ));
        // The store is dead now, like the process it models.
        assert!(matches!(
            store.append(WalOp::Get, ClipId::new(3)),
            Err(PersistError::CrashInjected)
        ));
    }
    let (_, state) = ShardStore::open(&dir, WalSync::Off).unwrap();
    assert_eq!(state.records, vec![record(1, 1, WalOp::Get)]);
    assert!(state.torn_bytes_dropped > 0, "the torn tail was dropped");
    // Second open: the tail is gone, the log is clean.
    let (_, state) = ShardStore::open(&dir, WalSync::Off).unwrap();
    assert_eq!(state.torn_bytes_dropped, 0);
}

#[test]
fn crash_after_append_keeps_the_record_durable() {
    let dir = tmp_dir("after-append");
    {
        let (mut store, _) = ShardStore::open(&dir, WalSync::Off).unwrap();
        store.arm_crash(Some(CrashSpec::parse("append:2").unwrap()));
        store.append(WalOp::Get, ClipId::new(1)).unwrap();
        assert!(matches!(
            store.append(WalOp::Get, ClipId::new(2)),
            Err(PersistError::CrashInjected)
        ));
    }
    let (_, state) = ShardStore::open(&dir, WalSync::Off).unwrap();
    // Both records survive: append:N dies *after* durability.
    assert_eq!(state.records.len(), 2);
    assert_eq!(state.torn_bytes_dropped, 0);
}

#[test]
fn crash_mid_checkpoint_keeps_the_old_checkpoint_and_wal() {
    let dir = tmp_dir("mid-ckpt");
    let mut first = sample_checkpoint();
    first.seq = 0;
    {
        let (mut store, _) = ShardStore::open(&dir, WalSync::Off).unwrap();
        store.checkpoint(&first).unwrap();
        store.append(WalOp::Get, ClipId::new(1)).unwrap();
        store.append(WalOp::Get, ClipId::new(2)).unwrap();
        store.arm_crash(Some(CrashSpec::parse("checkpoint:1").unwrap()));
        let mut second = sample_checkpoint();
        second.seq = 2;
        assert!(matches!(
            store.checkpoint(&second),
            Err(PersistError::CrashInjected)
        ));
    }
    // The first checkpoint landed in slot 0; the second tore slot 1.
    let torn = std::fs::read(dir.join(CHECKPOINT_SLOT_FILES[1])).unwrap();
    assert!(
        matches!(decode_checkpoint_frame(&torn), SlotFrame::Invalid(_)),
        "slot 1 half-written"
    );
    let (mut store, state) = ShardStore::open(&dir, WalSync::Off).unwrap();
    // The old checkpoint and the full WAL both survive; the torn slot
    // is ignored, and the next checkpoint overwrites it.
    assert_eq!(state.checkpoint.expect("old checkpoint").seq, 0);
    assert_eq!(state.records.len(), 2);
    let mut third = sample_checkpoint();
    third.seq = 2;
    store.checkpoint(&third).unwrap();
    let torn = std::fs::read(dir.join(CHECKPOINT_SLOT_FILES[1])).unwrap();
    assert!(matches!(
        decode_checkpoint_frame(&torn),
        SlotFrame::Valid { generation: 2, .. }
    ));
}

#[test]
fn sequence_breaks_are_corruption() {
    let dir = tmp_dir("seq-break");
    {
        let (mut store, _) = ShardStore::open(&dir, WalSync::Off).unwrap();
        store.append(WalOp::Get, ClipId::new(1)).unwrap();
    }
    // Forge a record with a gapped sequence number onto the active
    // segment's end.
    let mut bytes = std::fs::read(seg1(&dir)).unwrap();
    bytes.extend_from_slice(&record(5, 2, WalOp::Get).encode());
    std::fs::write(seg1(&dir), &bytes).unwrap();
    assert!(matches!(
        ShardStore::open(&dir, WalSync::Off),
        Err(PersistError::Corrupt { .. })
    ));
}

#[test]
fn records_subsumed_by_the_checkpoint_are_skipped_on_open() {
    let dir = tmp_dir("subsumed");
    let logged = [record(1, 1, WalOp::Get), record(2, 2, WalOp::Get)];
    let seg_bytes = {
        let (mut store, _) = ShardStore::open(&dir, WalSync::Off).unwrap();
        store.append(WalOp::Get, ClipId::new(1)).unwrap();
        store.append(WalOp::Get, ClipId::new(2)).unwrap();
        // The live segment holds the two frames (then its zero-filled
        // reservation); the crash below leaves exactly those frames.
        let (live, _) = decode_segment(&std::fs::read(seg1(&dir)).unwrap(), 1).unwrap();
        assert_eq!(live, logged);
        let mut ckpt = sample_checkpoint();
        ckpt.seq = 2;
        store.checkpoint(&ckpt).unwrap();
        segment_of(&[logged[0].encode(), logged[1].encode()].concat())
    };
    // Simulate a crash between the checkpoint rename and the segment
    // truncation: the subsumed records reappear on disk.
    std::fs::write(seg1(&dir), &seg_bytes).unwrap();
    let (mut store, state) = ShardStore::open(&dir, WalSync::Off).unwrap();
    assert_eq!(state.checkpoint.expect("checkpoint intact").seq, 2);
    assert!(state.records.is_empty(), "subsumed records not replayed");
    assert_eq!(state.subsumed_records, 2);
    assert_eq!(state.torn_bytes_dropped, 0);
    // Open finished the interrupted truncation: no record remains.
    assert_eq!(
        decode_segment(&std::fs::read(seg1(&dir)).unwrap(), 1).unwrap(),
        (Vec::new(), SegmentEnd::Clean)
    );
    // Appends continue the chain exactly where the checkpoint ends.
    assert_eq!(store.append(WalOp::Get, ClipId::new(3)).unwrap(), 3);
    drop(store);
    let (_, state) = ShardStore::open(&dir, WalSync::Off).unwrap();
    assert_eq!(state.records, vec![record(3, 3, WalOp::Get)]);
    assert_eq!(state.subsumed_records, 0);

    // A stale prefix *plus* live records skips only the prefix.
    let mut mixed = seg_bytes.clone();
    mixed.extend_from_slice(&record(3, 3, WalOp::Get).encode());
    std::fs::write(seg1(&dir), &mixed).unwrap();
    let (_, state) = ShardStore::open(&dir, WalSync::Off).unwrap();
    assert_eq!(state.subsumed_records, 2);
    assert_eq!(state.records, vec![record(3, 3, WalOp::Get)]);

    // Recovery from a subsumed prefix is deterministic: a second
    // open of the same bytes agrees.
    std::fs::write(seg1(&dir), &mixed).unwrap();
    let (_, again) = ShardStore::open(&dir, WalSync::Off).unwrap();
    assert_eq!(again.records, state.records);
    assert_eq!(again.subsumed_records, state.subsumed_records);

    // A gap after the checkpoint is still corruption (records 3..4
    // missing), as is a 0 sequence number.
    let forged = |r: WalRecord| {
        let mut bytes = segment_header(1).to_vec();
        bytes.extend_from_slice(&r.encode());
        bytes
    };
    std::fs::write(seg1(&dir), forged(record(5, 1, WalOp::Get))).unwrap();
    assert!(matches!(
        ShardStore::open(&dir, WalSync::Off),
        Err(PersistError::Corrupt { .. })
    ));
    std::fs::write(seg1(&dir), forged(record(0, 1, WalOp::Get))).unwrap();
    assert!(matches!(
        ShardStore::open(&dir, WalSync::Off),
        Err(PersistError::Corrupt { .. })
    ));
}

#[test]
fn inflated_length_prefix_is_corruption_not_a_torn_tail() {
    let mut log = Vec::new();
    for seq in 1..=3 {
        log.extend_from_slice(&record(seq, seq as u32, WalOp::Get).encode());
    }
    let frame = FRAME_HEADER_BYTES + RECORD_PAYLOAD_BYTES;
    // Inflate the middle record's length so it claims more bytes
    // than remain: the valid final frame must not be silently
    // swallowed as a "torn tail".
    let mut corrupt = log.clone();
    corrupt[frame + 1] ^= 0x10;
    match decode_segment(&segment_of(&corrupt), 1) {
        Err(PersistError::Corrupt { offset, .. }) => assert_eq!(offset, BODY + frame as u64),
        other => panic!("bad length must be loud, got {other:?}"),
    }
    // Same for the final frame, and for a deflated length: the
    // length field is written first, so a complete-but-wrong value
    // is never a crash artifact.
    let mut tail = log.clone();
    tail[2 * frame] ^= 0x02;
    assert!(matches!(
        decode_segment(&segment_of(&tail), 1),
        Err(PersistError::Corrupt { .. })
    ));
}

#[test]
fn a_failed_checkpoint_kills_the_store() {
    let dir = tmp_dir("ckpt-io-fail");
    let (mut store, _) = ShardStore::open(&dir, WalSync::Off).unwrap();
    store.append(WalOp::Get, ClipId::new(1)).unwrap();
    // Rip the directory out from under the store so the first slot
    // file cannot be created.
    std::fs::remove_dir_all(&dir).unwrap();
    let mut ckpt = sample_checkpoint();
    ckpt.seq = 1;
    assert!(matches!(store.checkpoint(&ckpt), Err(PersistError::Io(_))));
    // Disk and memory can no longer be reconciled: the store refuses
    // every later operation instead of silently diverging.
    assert!(matches!(
        store.append(WalOp::Get, ClipId::new(2)),
        Err(PersistError::CrashInjected)
    ));
    assert!(matches!(
        store.checkpoint(&ckpt),
        Err(PersistError::CrashInjected)
    ));
    assert!(matches!(
        store.rewind_to_checkpoint(),
        Err(PersistError::CrashInjected)
    ));
}

#[test]
fn rewind_discards_post_checkpoint_records() {
    let dir = tmp_dir("rewind");
    {
        let (mut store, _) = ShardStore::open(&dir, WalSync::Off).unwrap();
        let mut ckpt = sample_checkpoint();
        ckpt.seq = 0;
        store.checkpoint(&ckpt).unwrap();
        store.append(WalOp::Get, ClipId::new(1)).unwrap();
        store.append(WalOp::Get, ClipId::new(2)).unwrap();
        store.rewind_to_checkpoint().unwrap();
        // Sequence numbers restart from the checkpoint.
        assert_eq!(store.append(WalOp::Get, ClipId::new(9)).unwrap(), 1);
    }
    let (_, state) = ShardStore::open(&dir, WalSync::Off).unwrap();
    assert_eq!(state.records, vec![record(1, 9, WalOp::Get)]);
}

#[test]
fn a_lagging_checkpoint_never_reissues_sequence_numbers() {
    let dir = tmp_dir("lagging");
    let (mut store, _) = ShardStore::open(&dir, WalSync::Off).unwrap();
    for clip in 1..=5u32 {
        store.append(WalOp::Get, ClipId::new(clip)).unwrap();
    }
    // A checkpoint behind the log retires what it covers and nothing
    // else: appends keep counting from the log's end, not its seq.
    let mut ckpt = sample_checkpoint();
    ckpt.seq = 2;
    store.checkpoint(&ckpt).unwrap();
    assert_eq!(store.next_seq(), 6);
    assert_eq!(store.append(WalOp::Get, ClipId::new(6)).unwrap(), 6);
    // One claiming records never appended is refused, and the store
    // keeps serving.
    for seq in [7, 99] {
        ckpt.seq = seq;
        assert!(matches!(
            store.checkpoint(&ckpt),
            Err(PersistError::BadCheckpoint(_))
        ));
        assert!(matches!(
            store.submit_checkpoint(Arc::new(ckpt.clone())),
            Err(PersistError::BadCheckpoint(_))
        ));
    }
    assert_eq!(store.append(WalOp::Get, ClipId::new(7)).unwrap(), 7);
    drop(store);
    let (_, state) = ShardStore::open(&dir, WalSync::Off).unwrap();
    assert_eq!(state.checkpoint.expect("checkpoint").seq, 2);
    assert_eq!(state.subsumed_records, 2);
    assert_eq!(
        state.records,
        (3..=7u32)
            .map(|i| record(i as u64, i, WalOp::Get))
            .collect::<Vec<_>>()
    );
}

// ---- segmented-log tests ----------------------------------------------

#[test]
fn only_filesystems_that_overwrite_in_place_carry_a_mapped_tail() {
    for magic in [
        libc::EXT4_SUPER_MAGIC,
        libc::XFS_SUPER_MAGIC,
        libc::TMPFS_MAGIC,
    ] {
        assert!(mapped_tail_filesystem(magic), "{magic:#x}");
    }
    // btrfs, bcachefs, ZFS, f2fs, NFS, overlayfs.
    for magic in [
        0x9123_683e,
        0xca45_1a4e,
        0x2fc1_2fc1,
        0xf2f5_2010,
        0x6969,
        0x794c_7630,
    ] {
        assert!(!mapped_tail_filesystem(magic), "{magic:#x}");
    }
}

#[test]
fn segment_names_and_headers_round_trip() {
    for no in [1, 2, 999_999, 1_234_567, u64::MAX] {
        let name = segment_file_name(no);
        assert_eq!(parse_segment_no(&name), Some(no), "{name}");
    }
    assert_eq!(segment_file_name(1), "wal.000001.log");
    // Width grows past six digits rather than wrapping or truncating.
    assert_eq!(segment_file_name(1_234_567), "wal.1234567.log");
    for bad in ["wal.log", "wal..log", "wal.x1.log", "wal.1.txt", "other"] {
        assert_eq!(parse_segment_no(bad), None, "{bad}");
    }
    let header = segment_header(42);
    assert_eq!(&header[..8], &SEGMENT_MAGIC);
    assert_eq!(
        u64::from_le_bytes(header[8..16].try_into().unwrap()),
        WAL_VERSION
    );
    assert_eq!(u64::from_le_bytes(header[16..24].try_into().unwrap()), 42);
}

#[test]
fn sealed_and_unsealed_segments_decode_round_trip() {
    let recs = [
        record(4, 2, WalOp::Get),
        record(5, 9, WalOp::Admit),
        range_record(6, 9, 3),
    ];
    let sealed = sealed_segment_bytes(3, &recs);
    let (decoded, end) = decode_segment(&sealed, 3).unwrap();
    assert_eq!(decoded, recs);
    assert_eq!(end, SegmentEnd::Sealed { last_seq: 6 });
    // The same bytes without the footer are a clean unsealed segment.
    let unsealed = &sealed[..sealed.len() - SEGMENT_FOOTER_BYTES];
    let (decoded, end) = decode_segment(unsealed, 3).unwrap();
    assert_eq!(decoded, recs);
    assert_eq!(end, SegmentEnd::Clean);
    // A bare header is a clean, empty segment.
    let (decoded, end) = decode_segment(&segment_header(3), 3).unwrap();
    assert!(decoded.is_empty());
    assert_eq!(end, SegmentEnd::Clean);
}

#[test]
fn segment_version_skew_and_renames_are_rejected() {
    let recs = [record(1, 1, WalOp::Get)];
    let mut skewed = sealed_segment_bytes(1, &recs);
    skewed[8..16].copy_from_slice(&1u64.to_le_bytes());
    match decode_segment(&skewed, 1) {
        Err(PersistError::Corrupt { offset, reason }) => {
            assert_eq!(offset, 8);
            assert!(
                reason.contains("version 1"),
                "names what it found: {reason}"
            );
            assert!(
                reason.contains("version 2"),
                "names what it reads: {reason}"
            );
        }
        other => panic!("version skew must be loud, got {other:?}"),
    }
    // A segment renamed to a different number is refused too.
    let honest = sealed_segment_bytes(1, &recs);
    match decode_segment(&honest, 7) {
        Err(PersistError::Corrupt { reason, .. }) => {
            assert!(reason.contains("renamed"), "{reason}");
        }
        other => panic!("renamed segment must be loud, got {other:?}"),
    }
    // Wrong magic: not a segment at all.
    let mut alien = honest;
    alien[0] ^= 0xFF;
    assert!(matches!(
        decode_segment(&alien, 1),
        Err(PersistError::Corrupt { .. })
    ));
}

#[test]
fn a_bit_flip_anywhere_in_a_sealed_segment_is_loud() {
    let sealed = sealed_segment_bytes(2, &[record(7, 3, WalOp::Get), record(8, 5, WalOp::Admit)]);
    for byte in 0..sealed.len() {
        for bit in 0..8 {
            let mut flipped = sealed.clone();
            flipped[byte] ^= 1 << bit;
            assert!(
                matches!(
                    decode_segment(&flipped, 2),
                    Err(PersistError::Corrupt { .. })
                ),
                "flip of byte {byte} bit {bit} was not loud"
            );
        }
    }
}

#[test]
fn a_torn_seal_footer_keeps_the_records_and_stays_unsealed() {
    let recs = [record(1, 1, WalOp::Get), record(2, 2, WalOp::Get)];
    let sealed = sealed_segment_bytes(1, &recs);
    let body = sealed.len() - SEGMENT_FOOTER_BYTES;
    for cut in 1..SEGMENT_FOOTER_BYTES {
        let torn = &sealed[..body + cut];
        let (decoded, end) = decode_segment(torn, 1).unwrap();
        assert_eq!(decoded, recs, "cut at {cut}");
        // Footers shorter than 4 bytes don't even show the mark and
        // decode as a torn frame; either way the records survive and
        // the tail points at the footer start.
        assert_eq!(
            end,
            SegmentEnd::Torn {
                valid_bytes: body as u64,
                dropped_bytes: cut as u64,
            },
            "cut at {cut}"
        );
    }
}

#[test]
fn appends_roll_into_sealed_segments_and_reopen_flattens_them() {
    let dir = tmp_dir("roll");
    {
        let (mut store, _) = ShardStore::open_tuned(&dir, WalSync::Off, tiny_segments()).unwrap();
        for i in 1..=5u32 {
            assert_eq!(store.append(WalOp::Get, ClipId::new(i)).unwrap(), i as u64);
        }
        assert_eq!(store.segment_span(), (1, 3));
    }
    // Segments 1 and 2 are sealed on disk; 3 is the active one.
    let bytes = std::fs::read(seg1(&dir)).unwrap();
    let (decoded, end) = decode_segment(&bytes, 1).unwrap();
    assert_eq!(decoded.len(), 2);
    assert_eq!(end, SegmentEnd::Sealed { last_seq: 2 });
    let (_, end) =
        decode_segment(&std::fs::read(dir.join(segment_file_name(2))).unwrap(), 2).unwrap();
    assert_eq!(end, SegmentEnd::Sealed { last_seq: 4 });
    // Reopen flattens all three segments into one contiguous run.
    let (store, state) = ShardStore::open_tuned(&dir, WalSync::Off, tiny_segments()).unwrap();
    assert_eq!(
        state.records,
        (1..=5u32)
            .map(|i| record(i as u64, i, WalOp::Get))
            .collect::<Vec<_>>()
    );
    assert_eq!(state.torn_bytes_dropped, 0);
    assert_eq!(store.segment_span(), (1, 3));
    assert_eq!(store.next_seq(), 6);
}

#[test]
fn checkpoints_delete_subsumed_segments() {
    let dir = tmp_dir("seg-ckpt");
    let (mut store, _) = ShardStore::open_tuned(&dir, WalSync::Off, tiny_segments()).unwrap();
    for i in 1..=5u32 {
        store.append(WalOp::Get, ClipId::new(i)).unwrap();
    }
    assert_eq!(store.segment_span(), (1, 3));
    let mut ckpt = sample_checkpoint();
    ckpt.seq = 5;
    store.checkpoint(&ckpt).unwrap();
    // The sealed predecessors are gone; the active segment is a bare
    // header again.
    assert_eq!(store.segment_span(), (3, 3));
    assert!(!seg1(&dir).exists());
    assert!(!dir.join(segment_file_name(2)).exists());
    assert_eq!(
        std::fs::metadata(dir.join(segment_file_name(3)))
            .unwrap()
            .len(),
        SEGMENT_HEADER_BYTES as u64
    );
    // Appends continue the chain and the next reopen replays only them.
    assert_eq!(store.append(WalOp::Get, ClipId::new(9)).unwrap(), 6);
    drop(store);
    let (store, state) = ShardStore::open_tuned(&dir, WalSync::Off, tiny_segments()).unwrap();
    assert_eq!(state.checkpoint.expect("checkpoint").seq, 5);
    assert_eq!(state.records, vec![record(6, 9, WalOp::Get)]);
    assert_eq!(store.segment_span(), (3, 3));
}

#[test]
fn gapped_segment_numbering_is_corruption() {
    let dir = tmp_dir("seg-gap");
    {
        let (mut store, _) = ShardStore::open_tuned(&dir, WalSync::Off, tiny_segments()).unwrap();
        for i in 1..=5u32 {
            store.append(WalOp::Get, ClipId::new(i)).unwrap();
        }
    }
    // Deleting a *middle* segment leaves a hole no crash can explain.
    std::fs::remove_file(dir.join(segment_file_name(2))).unwrap();
    match ShardStore::open_tuned(&dir, WalSync::Off, tiny_segments()).map(|_| ()) {
        Err(PersistError::Corrupt { reason, .. }) => {
            assert!(reason.contains("gap"), "{reason}");
        }
        other => panic!("numbering gap must be loud, got {other:?}"),
    }
}

#[test]
fn a_legacy_single_file_wal_is_rejected_by_name() {
    let dir = tmp_dir("legacy");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join(LEGACY_WAL_FILE), record(1, 1, WalOp::Get).encode()).unwrap();
    match ShardStore::open(&dir, WalSync::Off).map(|_| ()) {
        Err(PersistError::Corrupt { reason, .. }) => {
            assert!(reason.contains(LEGACY_WAL_FILE), "{reason}");
            assert!(reason.contains("segmented"), "says what to do: {reason}");
        }
        other => panic!("legacy wal.log must be refused, got {other:?}"),
    }
    // So is an unparseable wal.*.log name.
    std::fs::remove_file(dir.join(LEGACY_WAL_FILE)).unwrap();
    std::fs::write(dir.join("wal.junk.log"), b"").unwrap();
    assert!(matches!(
        ShardStore::open(&dir, WalSync::Off),
        Err(PersistError::Corrupt { .. })
    ));
}

#[test]
fn torn_seal_crash_keeps_the_segment_active() {
    let dir = tmp_dir("seal-crash");
    {
        let (mut store, _) = ShardStore::open_tuned(&dir, WalSync::Off, tiny_segments()).unwrap();
        store.arm_crash(Some(CrashSpec::parse("seal:1").unwrap()));
        store.append(WalOp::Get, ClipId::new(1)).unwrap();
        // The second append fills the segment; the seal tears halfway.
        assert!(matches!(
            store.append(WalOp::Get, ClipId::new(2)),
            Err(PersistError::CrashInjected)
        ));
    }
    // Half a footer sits on disk after the two (durable) records.
    let (store, state) = ShardStore::open_tuned(&dir, WalSync::Off, tiny_segments()).unwrap();
    assert_eq!(
        state.records.len(),
        2,
        "no record was lost to the torn seal"
    );
    assert_eq!(state.torn_bytes_dropped, (SEGMENT_FOOTER_BYTES / 2) as u64);
    assert_eq!(store.segment_span(), (1, 1), "the segment stays active");
    // The store keeps appending — and can seal the segment for real.
    let mut store = store;
    store.append(WalOp::Get, ClipId::new(3)).unwrap();
    assert_eq!(store.segment_span(), (1, 2), "roll completed this time");
    drop(store);
    let (_, state) = ShardStore::open_tuned(&dir, WalSync::Off, tiny_segments()).unwrap();
    assert_eq!(state.records.len(), 3);
}

#[test]
fn segment_roll_crash_recovers_with_a_fresh_successor() {
    let dir = tmp_dir("roll-crash");
    {
        let (mut store, _) = ShardStore::open_tuned(&dir, WalSync::Off, tiny_segments()).unwrap();
        store.arm_crash(Some(CrashSpec::parse("segment-roll:1").unwrap()));
        store.append(WalOp::Get, ClipId::new(1)).unwrap();
        // The seal lands durably; the successor is never created.
        assert!(matches!(
            store.append(WalOp::Get, ClipId::new(2)),
            Err(PersistError::CrashInjected)
        ));
    }
    let (_, end) = decode_segment(&std::fs::read(seg1(&dir)).unwrap(), 1).unwrap();
    assert_eq!(end, SegmentEnd::Sealed { last_seq: 2 });
    assert!(!dir.join(segment_file_name(2)).exists());
    // Recovery opens the missing successor and the chain continues.
    let (mut store, state) = ShardStore::open_tuned(&dir, WalSync::Off, tiny_segments()).unwrap();
    assert_eq!(state.records.len(), 2);
    assert_eq!(state.torn_bytes_dropped, 0);
    assert_eq!(store.segment_span(), (1, 2));
    assert_eq!(store.append(WalOp::Get, ClipId::new(3)).unwrap(), 3);
    drop(store);
    let (_, state) = ShardStore::open_tuned(&dir, WalSync::Off, tiny_segments()).unwrap();
    assert_eq!(state.records.len(), 3);
}

#[test]
fn an_all_zero_header_reads_as_a_segment_never_written() {
    // A power loss before a new segment's first fsync: the file, maybe
    // its length, but none of its bytes.
    for tail in [0usize, 1, 4096] {
        let bytes = vec![0u8; SEGMENT_HEADER_BYTES + tail];
        assert_eq!(
            decode_segment(&bytes, 2).unwrap(),
            (
                vec![],
                SegmentEnd::Torn {
                    valid_bytes: 0,
                    dropped_bytes: 0,
                }
            ),
            "{tail} zeros after the header"
        );
    }
    // Bytes past the zero header are dropped, counted through the last
    // non-zero one.
    let mut bytes = vec![0u8; SEGMENT_HEADER_BYTES];
    bytes.extend_from_slice(&record(1, 3, WalOp::Get).encode());
    let last = bytes.iter().rposition(|&b| b != 0).unwrap() as u64 + 1;
    bytes.resize(bytes.len() + 100, 0);
    let (records, end) = decode_segment(&bytes, 2).unwrap();
    assert!(records.is_empty());
    assert_eq!(
        end,
        SegmentEnd::Torn {
            valid_bytes: 0,
            dropped_bytes: last,
        }
    );
    // Only all 24 bytes zero: a header with any byte set is read as a
    // header, and without the magic it is loud.
    let mut almost = vec![0u8; SEGMENT_HEADER_BYTES];
    almost[SEGMENT_HEADER_BYTES - 1] = 1;
    assert!(matches!(
        decode_segment(&almost, 2),
        Err(PersistError::Corrupt { offset: 0, .. })
    ));
}

/// `after - before`, field by field.
fn fsyncs_between(before: FsyncCount, after: FsyncCount) -> FsyncCount {
    FsyncCount {
        data: after.data - before.data,
        dir: after.dir - before.dir,
    }
}

#[test]
fn every_fsync_on_creation_and_roll_serves_a_promise() {
    // (mode, fsyncs of a fresh 4-shard open, fsyncs of one roll)
    let cases = [
        (
            WalSync::Off,
            FsyncCount { data: 0, dir: 0 },
            FsyncCount { data: 1, dir: 1 },
        ),
        (
            WalSync::Always,
            FsyncCount { data: 0, dir: 4 },
            FsyncCount { data: 1, dir: 1 },
        ),
    ];
    for (sync, open, roll) in cases {
        let root = tmp_dir(&format!("ledger-{}", sync.spelling()));
        let mut stores: Vec<ShardStore> = (0..4)
            .map(|shard| {
                let dir = root.join(format!("shard-{shard}"));
                ShardStore::open_tuned(&dir, sync, tiny_segments())
                    .unwrap()
                    .0
            })
            .collect();
        let opened = FsyncCount {
            data: stores.iter().map(|s| s.fsyncs().data).sum(),
            dir: stores.iter().map(|s| s.fsyncs().dir).sum(),
        };
        assert_eq!(opened, open, "a fresh 4-shard open under {sync:?}");
        let store = &mut stores[0];
        store.append(WalOp::Get, ClipId::new(1)).unwrap();
        let before = store.fsyncs();
        // The second record fills the 74-byte segment: it rolls, and
        // the seal makes the record durable, so no group commit runs.
        store.append(WalOp::Get, ClipId::new(2)).unwrap();
        assert_eq!(store.segment_span(), (1, 2), "the append rolled");
        assert_eq!(
            fsyncs_between(before, store.fsyncs()),
            roll,
            "one roll under {sync:?}"
        );
        drop(stores);
        let _ = std::fs::remove_dir_all(&root);
    }
}

#[test]
fn a_directory_fsync_that_fails_is_an_error() {
    let missing = tmp_dir("no-such-dir");
    let ledger = SyncLedger::default();
    assert_eq!(
        ledger.sync_dir(&missing).unwrap_err().kind(),
        std::io::ErrorKind::NotFound
    );
    assert_eq!(
        ledger.count().dir,
        1,
        "a failed directory fsync is still counted"
    );
    // Under `off` the seal's directory fsync is the roll's first step
    // that needs the directory: with it gone, the roll fails and kills
    // the store, as a failed seal `fdatasync` does.
    let dir = tmp_dir("seal-dir-fsync");
    let (mut store, _) = ShardStore::open_tuned(&dir, WalSync::Off, tiny_segments()).unwrap();
    store.append(WalOp::Get, ClipId::new(1)).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
    let before = store.fsyncs();
    match store.append(WalOp::Get, ClipId::new(2)) {
        Err(PersistError::Io(e)) => assert_eq!(e.kind(), std::io::ErrorKind::NotFound),
        other => panic!("the roll must report the failed directory fsync, got {other:?}"),
    }
    assert_eq!(
        fsyncs_between(before, store.fsyncs()),
        FsyncCount { data: 1, dir: 1 },
        "the seal landed, then its directory fsync failed"
    );
    assert_eq!(store.segment_span(), (1, 1), "no successor was created");
    assert!(matches!(
        store.append(WalOp::Get, ClipId::new(3)),
        Err(PersistError::CrashInjected)
    ));
}

// ---- group-commit tests -----------------------------------------------

#[test]
fn commit_tickets_exist_only_under_sync_always() {
    // Under `always` every commit hands back a ticket, whatever the
    // window: a zero window only means the leader fsyncs at once.
    for (tag, window) in [
        ("zero", Duration::ZERO),
        ("wide", Duration::from_micros(100)),
    ] {
        let dir = tmp_dir(&format!("ticket-gate-{tag}"));
        let (mut store, _) =
            ShardStore::open_tuned(&dir, WalSync::Always, windowed(window)).unwrap();
        store.stage(WalOp::Get, ClipId::new(1), 0).unwrap();
        let ticket = store.commit().unwrap().expect("sync always owes an fsync");
        ticket.wait().expect("the batched fsync lands");
    }
    // Sync off: durability is not promised, no tickets.
    let dir_off = tmp_dir("ticket-gate-off");
    let (mut store, _) =
        ShardStore::open_tuned(&dir_off, WalSync::Off, windowed(Duration::from_micros(100)))
            .unwrap();
    store.stage(WalOp::Get, ClipId::new(1), 0).unwrap();
    assert!(store.commit().unwrap().is_none());
}

#[test]
fn staged_frames_reach_the_segment_in_one_commit_and_one_fsync() {
    let dir = tmp_dir("one-commit");
    let (mut store, _) = ShardStore::open(&dir, WalSync::Always).unwrap();
    let on_disk = || {
        let (records, _) = decode_segment(&std::fs::read(seg1(&dir)).unwrap(), 1).unwrap();
        records.len()
    };
    for clip in 1..=8u32 {
        assert_eq!(
            store.stage(WalOp::Get, ClipId::new(clip), 0).unwrap(),
            clip as u64
        );
        assert_eq!(on_disk(), 0, "staging writes nothing, even under always");
    }
    let ticket = store.commit().unwrap().expect("sync always owes an fsync");
    assert_eq!(on_disk(), 8, "one commit writes all 8");
    assert_eq!(
        store.queue.lock().durable,
        0,
        "nothing fsynced before the wait"
    );
    ticket.wait().unwrap();
    assert_eq!(
        store.queue.lock().durable,
        8,
        "one wait makes all 8 durable"
    );
    drop(store);
    let (_, state) = ShardStore::open(&dir, WalSync::Off).unwrap();
    assert_eq!(state.records.len(), 8);
}

#[test]
fn concurrent_appends_ride_one_batched_fsync() {
    let dir = tmp_dir("group");
    let tuning = windowed(Duration::from_millis(2));
    let (store, _) = ShardStore::open_tuned(&dir, WalSync::Always, tuning).unwrap();
    let store = Arc::new(Mutex::new(store));
    let threads: Vec<_> = (0..4u32)
        .map(|t| {
            let store = Arc::clone(&store);
            std::thread::spawn(move || {
                for i in 0..25u32 {
                    // Hold the lock only for the stage and commit, like
                    // the service does; ride the batch outside it.
                    let ticket = {
                        let mut s = store.lock().unwrap();
                        s.stage(WalOp::Get, ClipId::new(t * 25 + i + 1), 0).unwrap();
                        s.commit().unwrap().expect("sync always owes an fsync")
                    };
                    ticket.wait().expect("batched fsync lands");
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    drop(store);
    let (_, state) = ShardStore::open(&dir, WalSync::Off).unwrap();
    assert_eq!(state.records.len(), 100, "every acked append is on disk");
    assert_eq!(state.torn_bytes_dropped, 0);
}

#[test]
fn rewinds_and_kills_wake_pending_tickets_with_errors() {
    let window = Duration::from_secs(5);
    let dir = tmp_dir("ticket-rewind");
    let (mut store, _) = ShardStore::open_tuned(&dir, WalSync::Always, windowed(window)).unwrap();
    let mut ckpt = sample_checkpoint();
    ckpt.seq = 0;
    store.checkpoint(&ckpt).unwrap();
    store.stage(WalOp::Get, ClipId::new(1), 0).unwrap();
    let ticket = store.commit().unwrap().unwrap();
    store.rewind_to_checkpoint().unwrap();
    // The record the ticket covered was discarded; waiting must error,
    // not hang and not claim durability.
    assert!(matches!(ticket.wait(), Err(PersistError::Io(_))));
    // A killed store wakes riders with an error too.
    store.stage(WalOp::Get, ClipId::new(2), 0).unwrap();
    let ticket = store.commit().unwrap().unwrap();
    store.kill();
    assert!(matches!(ticket.wait(), Err(PersistError::Io(_))));
}

#[test]
fn crash_points_release_riders_before_dying() {
    // Every injected death that fsyncs must mark the synced records
    // durable so a concurrent rider is woken with Ok, never left
    // hanging on a dead store.
    let window = Duration::from_secs(5);
    for (spec, clip_count) in [("append:2", 2u32), ("torn:2", 1), ("seal:1", 2)] {
        let dir = tmp_dir(&format!("rider-{}", spec.replace(':', "-")));
        let (mut store, _) = ShardStore::open_tuned(&dir, WalSync::Always, {
            let mut t = windowed(window);
            t.segment_bytes = 74; // roll after two records
            t
        })
        .unwrap();
        store.arm_crash(Some(CrashSpec::parse(spec).unwrap()));
        store.stage(WalOp::Get, ClipId::new(1), 0).unwrap();
        let ticket = store.commit().unwrap().unwrap();
        // The second stage triggers the crash point...
        let _ = store.stage(WalOp::Get, ClipId::new(2), 0);
        // ...whose fsync (full or partial) made record 1 durable.
        ticket
            .wait()
            .unwrap_or_else(|e| panic!("rider of seq 1 must be released by {spec}: {e}"));
        drop(store);
        let (_, state) = ShardStore::open(&dir, WalSync::Off).unwrap();
        assert!(
            state.records.len() >= clip_count as usize,
            "{spec}: acked records survive"
        );
    }
}

// ---- checkpoint-slot tests --------------------------------------------

#[test]
fn the_newest_generation_wins_even_with_a_lower_seq() {
    let dir = tmp_dir("slot-generation");
    let (mut store, _) = ShardStore::open(&dir, WalSync::Off).unwrap();
    for clip in 1..=4u32 {
        store.append(WalOp::Get, ClipId::new(clip)).unwrap();
    }
    let mut newer = sample_checkpoint();
    newer.seq = 3;
    store.checkpoint(&newer).unwrap();
    // An older checkpoint written last is the one on disk: the slot
    // with the higher generation wins, whatever its seq.
    let mut older = sample_checkpoint();
    older.seq = 1;
    older.stats.hits += 5;
    store.checkpoint(&older).unwrap();
    drop(store);
    let generations: Vec<u64> = CHECKPOINT_SLOT_FILES
        .iter()
        .map(
            |name| match decode_checkpoint_frame(&std::fs::read(dir.join(name)).unwrap()) {
                SlotFrame::Valid { generation, .. } => generation,
                _ => panic!("{name} holds a valid frame"),
            },
        )
        .collect();
    assert_eq!(generations, [1, 2]);
    assert_eq!(read_checkpoint(&dir).unwrap(), Some(older.to_json()));
    let (_, state) = ShardStore::open(&dir, WalSync::Off).unwrap();
    assert_eq!(state.checkpoint, Some(older));
    // The retired log still reaches back to the older checkpoint.
    assert_eq!(
        state.records.iter().map(|r| r.seq).collect::<Vec<_>>(),
        vec![2, 3, 4]
    );
    // Two valid slots of one generation name no newest: refused.
    let [slot0, slot1] = CHECKPOINT_SLOT_FILES.map(|name| dir.join(name));
    std::fs::copy(slot1, slot0).unwrap();
    match ShardStore::open(&dir, WalSync::Off).map(|_| ()) {
        Err(PersistError::BadCheckpoint(reason)) => {
            assert!(reason.contains("generation 2"), "{reason}")
        }
        other => panic!("equal generations must be refused, got {other:?}"),
    }
}

#[test]
fn two_unreadable_slots_are_refused_not_a_cold_start() {
    let dir = tmp_dir("slot-both-bad");
    let (mut store, _) = ShardStore::open(&dir, WalSync::Off).unwrap();
    store.append(WalOp::Get, ClipId::new(1)).unwrap();
    let mut ckpt = sample_checkpoint();
    for seq in [0, 1] {
        ckpt.seq = seq;
        store.checkpoint(&ckpt).unwrap();
    }
    drop(store);
    // One flipped body bit in a slot: a torn write, ignored while the
    // other slot is valid.
    let flip = |name: &str| {
        let path = dir.join(name);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[CHECKPOINT_HEADER_BYTES + 5] ^= 0x10;
        std::fs::write(&path, bytes).unwrap();
    };
    flip(CHECKPOINT_SLOT_FILES[1]);
    let (_, state) = ShardStore::open(&dir, WalSync::Off).unwrap();
    assert_eq!(state.checkpoint.expect("slot 0 survives").seq, 0);
    // Both slots failing their CRC is not a crash artifact.
    flip(CHECKPOINT_SLOT_FILES[0]);
    for result in [
        ShardStore::open(&dir, WalSync::Off).map(|_| ()),
        read_checkpoint(&dir).map(|_| ()),
    ] {
        match result {
            Err(PersistError::BadCheckpoint(reason)) => {
                assert!(reason.contains("both checkpoint slots"), "{reason}");
                assert!(reason.contains("CRC mismatch"), "{reason}");
            }
            other => panic!("two unreadable slots must be refused, got {other:?}"),
        }
    }
}

#[test]
fn a_valid_frame_with_a_bad_body_never_falls_back() {
    let dir = tmp_dir("slot-bad-body");
    let (mut store, _) = ShardStore::open(&dir, WalSync::Off).unwrap();
    let mut ckpt = sample_checkpoint();
    ckpt.seq = 0;
    store.checkpoint(&ckpt).unwrap();
    drop(store);
    let future = ckpt
        .to_json()
        .replacen("\"version\":2", "\"version\":99", 1);
    write_checkpoint(&dir, &future).unwrap();
    match ShardStore::open(&dir, WalSync::Off).map(|_| ()) {
        Err(PersistError::BadCheckpoint(reason)) => {
            assert!(reason.contains("version 99"), "{reason}")
        }
        other => panic!("a bad body must be refused, got {other:?}"),
    }
}

/// Every file in `dir` with its bytes, sorted by path.
fn dir_files(dir: &Path) -> Vec<(PathBuf, Vec<u8>)> {
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .map(|entry| {
            let path = entry.unwrap().path();
            let bytes = std::fs::read(&path).unwrap();
            (path, bytes)
        })
        .collect();
    files.sort();
    files
}

#[test]
fn a_legacy_checkpoint_file_is_migrated_once() {
    let dir = tmp_dir("slot-legacy");
    {
        let (mut store, _) = ShardStore::open(&dir, WalSync::Off).unwrap();
        for clip in 1..=3u32 {
            store.append(WalOp::Get, ClipId::new(clip)).unwrap();
        }
    }
    // A directory the rename-based layout left: its checkpoint file,
    // plus the scratch file of a write that died before its rename.
    let mut ckpt = sample_checkpoint();
    ckpt.seq = 2;
    std::fs::write(dir.join(LEGACY_CHECKPOINT_FILE), ckpt.to_json()).unwrap();
    std::fs::write(dir.join(LEGACY_CHECKPOINT_TMP), "{\"ver").unwrap();
    let (_, first) = ShardStore::open(&dir, WalSync::Off).unwrap();
    assert_eq!(first.checkpoint.as_ref(), Some(&ckpt));
    assert_eq!(first.records, vec![record(3, 3, WalOp::Get)]);
    assert!(!dir.join(LEGACY_CHECKPOINT_FILE).exists());
    assert!(!dir.join(LEGACY_CHECKPOINT_TMP).exists());
    assert_eq!(read_checkpoint(&dir).unwrap(), Some(ckpt.to_json()));
    let migrated = dir_files(&dir);
    // The second open reads the slot and writes nothing.
    let (_, second) = ShardStore::open(&dir, WalSync::Off).unwrap();
    assert_eq!(second.checkpoint, first.checkpoint);
    assert_eq!(second.records, first.records);
    assert_eq!(dir_files(&dir), migrated);
    // A legacy file that does not parse is refused as before.
    std::fs::write(dir.join(LEGACY_CHECKPOINT_FILE), "{}").unwrap();
    assert!(matches!(
        ShardStore::open(&dir, WalSync::Off),
        Err(PersistError::BadCheckpoint(_))
    ));
}

// ---- background checkpoint writer -------------------------------------

/// A store writing its background checkpoints through a fresh
/// one-mailbox writer, and that writer.
fn store_with_writer(dir: &Path, tuning: WalTuning) -> (ShardStore, Arc<CheckpointWriter>) {
    let (mut store, _) = ShardStore::open_tuned(dir, WalSync::Off, tuning).unwrap();
    let writer = CheckpointWriter::new(1);
    store.attach_writer(Arc::clone(&writer));
    (store, writer)
}

#[test]
fn a_failed_background_write_is_reported_once_by_the_next_operation() {
    let dir = tmp_dir("bg-fail");
    // Tiny segments hand every submission to the writer.
    let (mut store, writer) = store_with_writer(&dir, tiny_segments());
    store.append(WalOp::Get, ClipId::new(1)).unwrap();
    // Rip the directory out so the writer cannot create a slot file.
    std::fs::remove_dir_all(&dir).unwrap();
    let mut ckpt = sample_checkpoint();
    ckpt.seq = 1;
    store.submit_checkpoint(Arc::new(ckpt)).unwrap();
    writer.land_here(0, None, None);
    // The next operation reports the failure and kills the store; every
    // later one reports the death, never the failure again.
    assert!(matches!(
        store.stage(WalOp::Get, ClipId::new(2), 0),
        Err(PersistError::Io(_))
    ));
    for _ in 0..2 {
        assert!(matches!(
            store.stage(WalOp::Get, ClipId::new(3), 0),
            Err(PersistError::CrashInjected)
        ));
    }
    assert!(writer.news(0).is_none(), "the failure was collected once");
    writer.shutdown();
}

#[test]
fn a_landed_checkpoint_retires_the_wal_at_the_next_stage() {
    let dir = tmp_dir("bg-retire");
    let (mut store, writer) = store_with_writer(&dir, tiny_segments());
    for clip in 1..=6u32 {
        store.append(WalOp::Get, ClipId::new(clip)).unwrap();
    }
    // Two records a segment: 1-3 sealed, 4 active and empty.
    assert_eq!(store.segment_span(), (1, 4));
    let mut ckpt = sample_checkpoint();
    ckpt.seq = 6;
    store.submit_checkpoint(Arc::new(ckpt)).unwrap();
    writer.land_here(0, None, None);
    assert_eq!(
        store.segment_span(),
        (1, 4),
        "nothing is retired before the store's next operation"
    );
    store.stage(WalOp::Get, ClipId::new(7), 0).unwrap();
    assert_eq!(store.segment_span(), (4, 4), "the landing retired 1-3");
    for no in 1..=3 {
        assert!(!dir.join(segment_file_name(no)).exists(), "segment {no}");
    }
    // The news was collected: with no new landing there is none.
    assert!(writer.news(0).is_none(), "collecting lowers the news flag");
    store.commit().unwrap();
    writer.shutdown();
    drop(store);
    let (_, state) = ShardStore::open(&dir, WalSync::Off).unwrap();
    assert_eq!(state.checkpoint.expect("landed").seq, 6);
    assert_eq!(state.records, vec![record(7, 7, WalOp::Get)]);
}

/// `sample_checkpoint` at `seq`, shared.
fn checkpoint_at(seq: u64) -> Arc<DurableCheckpoint> {
    let mut ckpt = sample_checkpoint();
    ckpt.seq = seq;
    Arc::new(ckpt)
}

/// Submit `ckpt` while a write in flight holds the slots, then wait
/// until the writer's thread has parked without taking it.
fn submit_unseen(store: &mut ShardStore, writer: &CheckpointWriter, ckpt: Arc<DurableCheckpoint>) {
    let slots = writer.take_slots(0);
    store.submit_checkpoint(ckpt).unwrap();
    while writer.thread_state() != (true, true) {
        std::thread::yield_now();
    }
    writer.return_slots(0, slots);
}

#[test]
fn a_superseded_submission_is_never_written() {
    let dir = tmp_dir("bg-supersede");
    let (mut store, writer) = store_with_writer(&dir, tiny_segments());
    for clip in 1..=3u32 {
        store.append(WalOp::Get, ClipId::new(clip)).unwrap();
    }
    // While a write holds the slots the thread takes nothing, and each
    // submission replaces the one before it in the mailbox.
    let submitted: Vec<Arc<DurableCheckpoint>> = (1..=3).map(checkpoint_at).collect();
    let slots = writer.take_slots(0);
    for ckpt in &submitted {
        store.submit_checkpoint(Arc::clone(ckpt)).unwrap();
    }
    writer.return_slots(0, slots);
    writer.land_here(0, None, None);
    writer.shutdown();
    // Each write bumps the slot generation: three submissions, one
    // write, and every submission let go of by the mailbox.
    assert_eq!(checkpoint_generation(&dir).unwrap(), 1);
    assert!(submitted.iter().all(|c| Arc::strong_count(c) == 1));
    drop(store);
    let (_, state) = ShardStore::open(&dir, WalSync::Off).unwrap();
    assert_eq!(state.checkpoint.expect("landed").seq, 3);
}

#[test]
fn submissions_reach_the_writer_a_quarter_segment_apart() {
    let dir = tmp_dir("bg-quarter");
    // 400-byte segments: a quarter holds four 25-byte records.
    let tuning = WalTuning {
        segment_bytes: 400,
        commit_window: Duration::ZERO,
    };
    let (mut store, writer) = store_with_writer(&dir, tuning);
    for clip in 1..=10u32 {
        store.append(WalOp::Get, ClipId::new(clip)).unwrap();
    }
    let generation = || checkpoint_generation(&dir).unwrap();
    // Each write bumps the slot generation. Seq 3 and 7 fall short of
    // the last hand-off by less than four records and are only held.
    let submit = |store: &mut ShardStore, seq: u64| {
        store.submit_checkpoint(checkpoint_at(seq)).unwrap();
        writer.land_here(0, None, None);
        generation()
    };
    for (seq, landed) in [(3, 0), (4, 1), (7, 1), (8, 2)] {
        assert_eq!(
            submit(&mut store, seq),
            landed,
            "after submitting seq {seq}"
        );
    }
    // Handing seq 8 off let go of the held seq 7: nothing is left.
    store.settle().unwrap();
    assert_eq!(generation(), 2);
    assert_eq!(submit(&mut store, 9), 2);
    // The rewind lands the held seq 9 before it truncates.
    store.rewind_to_checkpoint().unwrap();
    assert_eq!(generation(), 3);
    assert_eq!(store.next_seq(), 10);
    writer.shutdown();
    drop(store);
    let (_, state) = ShardStore::open(&dir, WalSync::Off).unwrap();
    assert_eq!(state.checkpoint.expect("landed").seq, 9);
    assert!(state.records.is_empty());
}

#[test]
fn a_store_opened_on_its_own_lands_checkpoints_on_the_calling_thread() {
    let dir = tmp_dir("lone-writer");
    let (mut store, _) = ShardStore::open(&dir, WalSync::Off).unwrap();
    for clip in 1..=3u32 {
        store.append(WalOp::Get, ClipId::new(clip)).unwrap();
    }
    // Both calls return with their checkpoint on disk, and no thread.
    store.checkpoint(&checkpoint_at(1)).unwrap();
    assert_eq!(checkpoint_generation(&dir).unwrap(), 1);
    store.submit_checkpoint(checkpoint_at(2)).unwrap();
    assert_eq!(checkpoint_generation(&dir).unwrap(), 2);
    assert!(!store.writer.threaded);
    assert_eq!(store.writer.thread_state(), (false, false));
    drop(store);
    let (_, state) = ShardStore::open(&dir, WalSync::Off).unwrap();
    assert_eq!(state.checkpoint.expect("landed").seq, 2);
    assert_eq!(state.subsumed_records, 2);
}

#[test]
fn checkpoint_lands_a_hand_off_the_thread_has_not_taken_then_its_own() {
    let dir = tmp_dir("bg-unseen");
    let (mut store, writer) = store_with_writer(&dir, tiny_segments());
    for clip in 1..=4u32 {
        store.append(WalOp::Get, ClipId::new(clip)).unwrap();
    }
    let handed = checkpoint_at(2);
    submit_unseen(&mut store, &writer, Arc::clone(&handed));
    let newer = checkpoint_at(4);
    store.checkpoint(&newer).unwrap();
    // Both landed on this thread, in order, and nothing is left for the
    // thread, which wrote nothing before it stopped.
    assert_eq!(checkpoint_generation(&dir).unwrap(), 2);
    assert!(!writer.has_pending(0), "the mailbox let go of the hand-off");
    assert_eq!(Arc::strong_count(&handed), 1);
    writer.shutdown();
    assert_eq!(checkpoint_generation(&dir).unwrap(), 2);
    assert_eq!(read_checkpoint(&dir).unwrap(), Some(newer.to_json()));
    drop(store);
    let (_, state) = ShardStore::open(&dir, WalSync::Off).unwrap();
    assert_eq!(state.checkpoint.expect("landed").seq, 4);
}

#[test]
fn checkpoint_crash_lands_the_held_refresh_then_half_writes_its_own() {
    let dir = tmp_dir("bg-crash-held");
    // Default segments hold every refresh here: none is a quarter
    // segment past the last hand-off.
    let (mut store, writer) = store_with_writer(&dir, WalTuning::default());
    for clip in 1..=4u32 {
        store.append(WalOp::Get, ClipId::new(clip)).unwrap();
    }
    store.arm_crash(Some(CrashSpec::parse("checkpoint:2").unwrap()));
    let held = checkpoint_at(2);
    store.submit_checkpoint(Arc::clone(&held)).unwrap();
    assert_eq!(checkpoint_generation(&dir).unwrap(), 0, "only held");
    assert!(matches!(
        store.submit_checkpoint(checkpoint_at(4)),
        Err(PersistError::CrashInjected)
    ));
    // The held refresh landed whole in slot 0; its successor tore slot 1.
    assert_eq!(read_checkpoint(&dir).unwrap(), Some(held.to_json()));
    let torn = std::fs::read(dir.join(CHECKPOINT_SLOT_FILES[1])).unwrap();
    assert!(
        matches!(decode_checkpoint_frame(&torn), SlotFrame::Invalid(_)),
        "slot 1 half-written"
    );
    assert_eq!(writer.thread_state(), (false, false), "no thread ran");
    writer.shutdown();
    drop(store);
    let (_, state) = ShardStore::open(&dir, WalSync::Off).unwrap();
    assert_eq!(state.checkpoint.expect("held refresh").seq, 2);
    assert_eq!(state.records.len(), 2);
}
