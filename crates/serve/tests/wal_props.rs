//! Property tests for the WAL frame codec: round-trips over arbitrary
//! records, a torn-prefix corpus (every truncation length recovers a
//! valid prefix and reports the torn bytes), and a bit-flip corpus
//! (every single-bit corruption is either detected loudly or truncates
//! to a valid prefix — a corrupted record is never silently replayed).
//! Each frame stream is decoded as the body of a segment, behind its
//! header, so offsets start at `SEGMENT_HEADER_BYTES`.
//!
//! The plain `#[test]`s walk a deterministic corpus; the `proptest!`
//! cases add random inputs on top (the vendored `proptest` is a small
//! real runner, see `vendor/README.md`).

use clipcache_serve::persist::{
    decode_segment, segment_header, PersistError, SegmentEnd, WalOp, WalRecord,
    SEGMENT_HEADER_BYTES,
};
use proptest::prelude::*;

/// Frame layout: len (4) + crc (4) + payload (8 seq + 4 clip + 4 chunk
/// + 1 op) — the version-2 chunk-aware layout.
const FRAME_BYTES: usize = 25;

fn record_from(seq: u64, clip: u32, op_selector: u8) -> WalRecord {
    // Whole-clip records carry chunk 0 by construction (the codec
    // rejects anything else as corrupt); only GETRANGE probes carry a
    // meaningful chunk index.
    let (op, chunk) = match op_selector % 3 {
        0 => (WalOp::Get, 0),
        1 => (WalOp::Admit, 0),
        _ => (WalOp::GetRange, clip.rotate_left(11)),
    };
    WalRecord {
        seq,
        clip: clipcache_media::ClipId::new(clip.max(1)),
        chunk,
        op,
    }
}

fn log_of(records: &[WalRecord]) -> Vec<u8> {
    let mut log = Vec::with_capacity(records.len() * FRAME_BYTES);
    for r in records {
        log.extend_from_slice(&r.encode());
    }
    log
}

/// Decode a bare frame stream as the body of segment 1.
fn decode_frames(frames: &[u8]) -> Result<(Vec<WalRecord>, SegmentEnd), PersistError> {
    let mut segment = segment_header(1).to_vec();
    segment.extend_from_slice(frames);
    decode_segment(&segment, 1)
}

/// A deterministic record set hitting the field boundaries.
fn corpus() -> Vec<WalRecord> {
    let mut records = Vec::new();
    for (i, (seq, clip)) in [
        (0u64, 1u32),
        (1, 2),
        (2, u32::MAX),
        (u64::MAX, 7),
        (0xDEAD_BEEF, 0x00FA_017F),
    ]
    .iter()
    .enumerate()
    {
        records.push(record_from(*seq, *clip, i as u8));
    }
    records
}

/// The torn-prefix property for one log cut at `cut` bytes: decoding
/// the prefix yields exactly the records whose frames fit, reports the
/// leftover bytes as torn (or a clean tail on a frame boundary), and
/// never errors — a crash can truncate, not corrupt.
fn assert_torn_prefix(records: &[WalRecord], log: &[u8], cut: usize) {
    let (decoded, end) = decode_frames(&log[..cut]).unwrap_or_else(|e| {
        panic!("prefix of {cut} bytes must decode, got {e}");
    });
    let whole_frames = cut / FRAME_BYTES;
    let leftover = (cut % FRAME_BYTES) as u64;
    assert_eq!(decoded, records[..whole_frames], "cut at {cut}");
    if leftover == 0 {
        assert_eq!(end, SegmentEnd::Clean, "cut at {cut}");
    } else {
        assert_eq!(
            end,
            SegmentEnd::Torn {
                valid_bytes: (SEGMENT_HEADER_BYTES + whole_frames * FRAME_BYTES) as u64,
                dropped_bytes: leftover,
            },
            "cut at {cut}"
        );
    }
}

/// The bit-flip property for one corrupted log: the decode either fails
/// loudly or returns a strict prefix of the original records — the
/// record whose frame was flipped (and everything after it) is dropped,
/// never replayed with altered content.
fn assert_flip_detected(records: &[WalRecord], corrupted: &[u8], bit: usize) {
    match decode_frames(corrupted) {
        Err(_) => {} // detected loudly — the common case (CRC mismatch)
        Ok((decoded, _)) => {
            // A flip in a length field can make the final frame look
            // torn instead; the decode must then stop strictly before
            // the corrupted frame.
            let frame = bit / 8 / FRAME_BYTES;
            assert!(
                decoded.len() <= frame,
                "bit {bit}: decoded {} records past corrupted frame {frame}",
                decoded.len()
            );
            assert_eq!(
                decoded,
                records[..decoded.len()],
                "bit {bit}: replayed altered content"
            );
        }
    }
}

#[test]
fn boundary_records_round_trip() {
    let records = corpus();
    let log = log_of(&records);
    assert_eq!(log.len(), records.len() * FRAME_BYTES);
    let (decoded, end) = decode_frames(&log).unwrap();
    assert_eq!(decoded, records);
    assert_eq!(end, SegmentEnd::Clean);
    // The empty log is a clean, empty prefix.
    assert_eq!(decode_frames(&[]).unwrap(), (Vec::new(), SegmentEnd::Clean));
}

#[test]
fn every_truncation_length_recovers_a_valid_prefix() {
    let records = corpus();
    let log = log_of(&records);
    for cut in 0..=log.len() {
        assert_torn_prefix(&records, &log, cut);
    }
}

#[test]
fn every_single_bit_flip_is_detected_never_silently_replayed() {
    let records = corpus();
    let log = log_of(&records);
    for bit in 0..log.len() * 8 {
        let mut corrupted = log.clone();
        corrupted[bit / 8] ^= 1 << (bit % 8);
        assert_flip_detected(&records, &corrupted, bit);
    }
}

proptest! {
    #[test]
    fn arbitrary_records_round_trip(
        seq in 0u64..u64::MAX,
        clip in 1u32..u32::MAX,
        op_selector in 0u8..3,
    ) {
        let record = record_from(seq, clip, op_selector);
        let (decoded, end) = decode_frames(&record.encode()).unwrap();
        prop_assert_eq!(decoded, vec![record]);
        prop_assert_eq!(end, SegmentEnd::Clean);
    }

    #[test]
    fn arbitrary_truncations_recover_a_valid_prefix(
        seeds in proptest::collection::vec(0u64..u64::MAX, 1..8),
        cut_selector in 0usize..usize::MAX,
    ) {
        let records: Vec<WalRecord> = seeds
            .iter()
            .enumerate()
            .map(|(i, &s)| record_from(s, (s % u32::MAX as u64) as u32 + 1, i as u8))
            .collect();
        let log = log_of(&records);
        assert_torn_prefix(&records, &log, cut_selector % (log.len() + 1));
    }

    #[test]
    fn arbitrary_bit_flips_are_detected(
        seeds in proptest::collection::vec(0u64..u64::MAX, 1..8),
        bit_selector in 0usize..usize::MAX,
    ) {
        let records: Vec<WalRecord> = seeds
            .iter()
            .enumerate()
            .map(|(i, &s)| record_from(s, (s % u32::MAX as u64) as u32 + 1, i as u8))
            .collect();
        let log = log_of(&records);
        let bit = bit_selector % (log.len() * 8);
        let mut corrupted = log.clone();
        corrupted[bit / 8] ^= 1 << (bit % 8);
        assert_flip_detected(&records, &corrupted, bit);
    }
}
