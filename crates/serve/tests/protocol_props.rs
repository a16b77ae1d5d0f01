//! Property tests of both wire protocols.
//!
//! Text: `parse ∘ serialize == id` for every command and reply variant,
//! and totality of every parser — any byte sequence (truncated lines,
//! embedded NULs, oversized clip ids, raw garbage) produces an `Err`,
//! never a panic.
//!
//! Binary: `decode ∘ encode == id` for every frame, torn prefixes
//! always decode `Incomplete` (never an error, never a short frame),
//! and every single-bit flip in a frame header is *loud* — a structured
//! `FrameError`, never a silent truncation or a silently wrong frame
//! (the same inflated-length rule the PR 5 WAL fix pinned for disk
//! records, applied to the wire).
//!
//! The plain `#[test]`s walk a deterministic corpus; the `proptest!`
//! cases add random inputs on top (the vendored `proptest` is a small
//! real runner, see `vendor/README.md`).

use clipcache_media::{ByteSize, ClipId};
use clipcache_serve::protocol::{
    corrupt_length_get_frame, decode_command, decode_reply, encode_command, encode_reply,
    format_command, format_get, format_poisoned, format_range, format_stats, parse_command,
    parse_get, parse_poisoned, parse_range, parse_stats, Command, Decoded, Reply, ServerStats,
    FRAME_HEADER_BYTES, FRAME_MAGIC, MAX_FRAME_PAYLOAD,
};
use clipcache_serve::shard::{GetOutcome, RangeOutcome};
use clipcache_sim::metrics::HitStats;
use proptest::prelude::*;

fn command_from(selector: u8, clip: u32) -> Command {
    let chunk = clip.rotate_left(7);
    let clip = ClipId::new(clip.max(1));
    match selector % 6 {
        0 => Command::Get(clip),
        1 => Command::Stats,
        2 => Command::Snapshot,
        3 => Command::Poison(clip),
        4 => Command::GetRange(clip, chunk),
        _ => Command::Quit,
    }
}

fn range_from(selector: u8, total: u32) -> RangeOutcome {
    // `resident <= total` always holds on a well-formed wire (the
    // decoder rejects anything else as corrupt).
    let resident = match selector % 3 {
        0 => 0,
        1 => total / 2,
        _ => total,
    };
    RangeOutcome {
        hit: selector.is_multiple_of(2),
        resident,
        total,
    }
}

fn outcome_from(selector: u8, evictions: usize) -> GetOutcome {
    // The four states the wire can carry: HIT (admitted implied),
    // MISS admitted, MISS rejected, PHIT (peer-filled miss).
    match selector % 4 {
        0 => GetOutcome {
            hit: true,
            admitted: true,
            evictions,
            peer: false,
        },
        1 => GetOutcome {
            hit: false,
            admitted: true,
            evictions,
            peer: false,
        },
        2 => GetOutcome {
            hit: false,
            admitted: false,
            evictions,
            peer: false,
        },
        _ => GetOutcome {
            hit: false,
            admitted: true,
            evictions,
            peer: true,
        },
    }
}

fn stats_from(v: [u64; 12]) -> ServerStats {
    ServerStats {
        stats: HitStats {
            hits: v[0],
            misses: v[1],
            prefix_hits: v[7],
            byte_hits: ByteSize::bytes(v[2]),
            byte_misses: ByteSize::bytes(v[3]),
            evictions: v[4],
        },
        recoveries: v[5],
        wal_replayed: v[6],
        peer_hits: v[8],
        handoff_replayed: v[9],
        breaker_open: v[10],
        shed: v[11],
    }
}

/// Every parser applied to one input; the property under test is only
/// that none of them panics.
fn feed_all_parsers(line: &str) {
    let _ = parse_command(line);
    let _ = parse_get(line);
    let _ = parse_range(line);
    let _ = parse_stats(line);
    let _ = parse_poisoned(line);
}

#[test]
fn malformed_corpus_is_rejected_not_panicked() {
    let corpus: &[&str] = &[
        // Truncated lines.
        "G",
        "GE",
        "GET",
        "GET ",
        "STAT",
        "SNAPSHO",
        "POISON",
        "POISON ",
        "QUI",
        "HIT",
        "MISS",
        "MISS 1",
        "STATS hits=1",
        "POISONED",
        // Embedded NULs.
        "GET\0 1",
        "GET \0",
        "GET 1\0",
        "\0",
        "\0\0\0",
        "STATS\0",
        // Oversized / out-of-range clip ids.
        "GET 0",
        "GET 4294967296",
        "GET 18446744073709551616",
        "GET 99999999999999999999999999999999",
        "POISON 4294967296",
        // Wrong shapes and trailing junk.
        "GET 1 2",
        "GET one",
        "GET -1",
        "GET 1.5",
        "get 1",
        "HIT x",
        "HIT 1 2",
        "MISS 2 0",
        "MISS 1 1 1",
        "POISONED x",
        "POISONED 1 2",
        "STATS hits=1 misses=0 byte_hits=0 byte_misses=0 evictions=0", // old 5-field form
        // Old 6-field form (pre-wal_replayed).
        "STATS hits=1 misses=0 byte_hits=0 byte_misses=0 evictions=0 recoveries=0",
        "STATS hits=1 misses=0 byte_hits=0 byte_misses=0 evictions=0 frobs=0",
        "STATS hits==1 misses=0 byte_hits=0 byte_misses=0 evictions=0 recoveries=0 wal_replayed=0",
        // Old 7-field form (pre-prefix_hits).
        "STATS hits=1 misses=0 byte_hits=0 byte_misses=0 evictions=0 recoveries=0 wal_replayed=0",
        // Old 9-field form (pre-degraded-mode counters).
        "STATS hits=1 misses=0 byte_hits=0 byte_misses=0 evictions=0 recoveries=0 wal_replayed=0 prefix_hits=0 peer_hits=0",
        // GETRANGE shapes: wrong arity, bad numerals, zero clip,
        // overflow in either operand.
        "GETRANGE",
        "GETRANGE ",
        "GETRANGE 1",
        "GETRANGE 1 ",
        "GETRANGE 1 2 3",
        "GETRANGE 0 0",
        "GETRANGE x 1",
        "GETRANGE 1 x",
        "GETRANGE -1 0",
        "GETRANGE 1 -1",
        "GETRANGE 4294967296 0",
        "GETRANGE 1 4294967296",
        "getrange 1 0",
        // Range-reply shapes, including a resident prefix longer than
        // the clip (only a corrupt peer can produce that).
        "RHIT",
        "RHIT 1",
        "RHIT 1 2 3",
        "RHIT 3 2",
        "RMISS x 1",
        "RMISS 1 -1",
        "RHIT 4294967296 4294967296",
        "",
        "   ",
        "\t",
        "ERR something broke",
        "BYE BYE",
        "💾 1",
    ];
    for line in corpus {
        assert!(parse_command(line).is_err(), "command accepted: {line:?}");
        feed_all_parsers(line);
    }
    // Replies are not commands and vice versa.
    assert!(parse_get("STATS").is_err());
    assert!(parse_stats("HIT 0").is_err());
    assert!(parse_poisoned("QUIT").is_err());
    assert!(parse_range("HIT 0").is_err());
    assert!(parse_range("GETRANGE 1 0").is_err());
    assert!(parse_get("RHIT 1 2").is_err());
}

#[test]
fn oversized_lines_are_rejected_without_panic() {
    // A line at (and past) the server's cap, with and without a valid
    // prefix: the parsers must stay total however big the input is.
    let huge_digits = format!("GET {}", "9".repeat(clipcache_serve::MAX_LINE_BYTES));
    assert!(parse_command(&huge_digits).is_err());
    let huge_junk = "x".repeat(clipcache_serve::MAX_LINE_BYTES + 1);
    feed_all_parsers(&huge_junk);
    assert!(parse_command(&huge_junk).is_err());
}

#[test]
fn round_trips_on_a_grid() {
    for selector in 0u8..6 {
        for clip in [1u32, 2, 1000, u32::MAX] {
            let command = command_from(selector, clip);
            assert_eq!(parse_command(&format_command(&command)), Ok(command));
        }
    }
    for selector in 0u8..4 {
        for evictions in [0usize, 1, 7, usize::MAX] {
            let outcome = outcome_from(selector, evictions);
            assert_eq!(parse_get(&format_get(&outcome)), Ok(outcome));
        }
    }
    for selector in 0u8..6 {
        for total in [0u32, 1, 7, u32::MAX] {
            let outcome = range_from(selector, total);
            assert_eq!(parse_range(&format_range(&outcome)), Ok(outcome));
        }
    }
    for shard in [0usize, 1, 63, usize::MAX] {
        assert_eq!(parse_poisoned(&format_poisoned(shard)), Ok(shard));
    }
    let stats = stats_from([u64::MAX, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10]);
    assert_eq!(parse_stats(&format_stats(&stats)), Ok(stats));
}

proptest! {
    #[test]
    fn commands_round_trip(selector in 0u8..6, clip in 1u32..u32::MAX) {
        let command = command_from(selector, clip);
        prop_assert_eq!(parse_command(&format_command(&command)), Ok(command));
    }

    #[test]
    fn get_replies_round_trip(selector in 0u8..4, evictions in 0usize..usize::MAX) {
        let outcome = outcome_from(selector, evictions);
        prop_assert_eq!(parse_get(&format_get(&outcome)), Ok(outcome));
    }

    #[test]
    fn range_replies_round_trip(selector in 0u8..6, total in 0u32..u32::MAX) {
        let outcome = range_from(selector, total);
        prop_assert_eq!(parse_range(&format_range(&outcome)), Ok(outcome));
    }

    #[test]
    fn stats_replies_round_trip(
        hits in 0u64..u64::MAX,
        misses in 0u64..u64::MAX,
        byte_hits in 0u64..u64::MAX,
        byte_misses in 0u64..u64::MAX,
        evictions in 0u64..u64::MAX,
        recoveries in 0u64..u64::MAX,
        wal_replayed in 0u64..u64::MAX,
        prefix_hits in 0u64..u64::MAX,
        peer_hits in 0u64..u64::MAX,
        handoff_replayed in 0u64..u64::MAX,
        breaker_open in 0u64..u64::MAX,
        shed in 0u64..u64::MAX,
    ) {
        let stats = stats_from([
            hits, misses, byte_hits, byte_misses, evictions, recoveries, wal_replayed,
            prefix_hits, peer_hits, handoff_replayed, breaker_open, shed,
        ]);
        prop_assert_eq!(parse_stats(&format_stats(&stats)), Ok(stats));
    }

    #[test]
    fn poisoned_replies_round_trip(shard in 0usize..usize::MAX) {
        prop_assert_eq!(parse_poisoned(&format_poisoned(shard)), Ok(shard));
    }

    #[test]
    fn parsers_are_total_on_random_bytes(bytes in proptest::collection::vec(0u8..255, 0..64)) {
        // Arbitrary bytes, decoded the way the server decodes a line.
        let line = String::from_utf8_lossy(&bytes).into_owned();
        feed_all_parsers(&line);
    }

    #[test]
    fn parsers_are_total_on_random_ascii_words(a in 0u64..u64::MAX, b in 0u64..u64::MAX) {
        // Structured-looking garbage: plausible keywords with random
        // numerals bolted on.
        for line in [
            format!("GET {a}"),
            format!("GET {a} {b}"),
            format!("POISON {a}"),
            format!("HIT {a}"),
            format!("MISS {} {b}", a % 4),
            format!("POISONED {a}"),
            format!("STATS hits={a} misses={b}"),
            format!("GETRANGE {a} {b}"),
            format!("RHIT {a} {b}"),
            format!("RMISS {a} {b}"),
        ] {
            feed_all_parsers(&line);
        }
    }
}

// ---------------------------------------------------------------------
// Binary framing
// ---------------------------------------------------------------------

fn encoded_command(command: &Command) -> Vec<u8> {
    let mut out = Vec::new();
    encode_command(command, &mut out);
    out
}

fn encoded_reply(reply: &Reply) -> Vec<u8> {
    let mut out = Vec::new();
    encode_reply(reply, &mut out);
    out
}

fn reply_from(selector: u8, evictions: usize, stats: [u64; 12], text: &str) -> Reply {
    match selector % 7 {
        0 => Reply::Get(outcome_from(selector / 7, evictions)),
        1 => Reply::Stats(stats_from(stats)),
        2 => Reply::Snapshot(format!("[{text:?}]")),
        3 => Reply::Poisoned(stats[0]),
        4 => Reply::Bye,
        5 => Reply::Range(range_from(selector / 7, stats[0] as u32)),
        _ => Reply::Err(text.to_string()),
    }
}

#[test]
fn frames_round_trip_on_a_grid() {
    for selector in 0u8..6 {
        for clip in [1u32, 2, 1000, u32::MAX] {
            let command = command_from(selector, clip);
            let bytes = encoded_command(&command);
            assert_eq!(
                decode_command(&bytes),
                Ok(Decoded::Frame {
                    value: command,
                    consumed: bytes.len()
                })
            );
        }
    }
    for selector in 0u8..21 {
        for evictions in [0usize, 1, 7, usize::MAX] {
            let reply = reply_from(
                selector,
                evictions,
                [u64::MAX, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10],
                "boom",
            );
            let bytes = encoded_reply(&reply);
            assert_eq!(
                decode_reply(&bytes),
                Ok(Decoded::Frame {
                    value: reply,
                    consumed: bytes.len()
                })
            );
        }
    }
}

#[test]
fn torn_prefixes_decode_incomplete_never_a_short_frame() {
    // Every proper prefix of a valid frame is Incomplete: the decoder
    // waits for the rest, it never hands back a truncated frame and
    // never errors on bytes that are merely still in flight.
    let frames: Vec<Vec<u8>> = vec![
        encoded_command(&Command::Get(ClipId::new(123456))),
        encoded_command(&Command::Stats),
        encoded_command(&Command::GetRange(ClipId::new(123456), 17)),
        encoded_reply(&Reply::Get(GetOutcome {
            hit: true,
            admitted: true,
            evictions: 42,
            peer: false,
        })),
        encoded_reply(&Reply::Range(RangeOutcome {
            hit: true,
            resident: 3,
            total: 9,
        })),
        encoded_reply(&Reply::Snapshot("[{\"shard\":0}]".into())),
        encoded_reply(&Reply::Err("idle timeout".into())),
    ];
    for frame in &frames {
        for cut in 1..frame.len() {
            let prefix = &frame[..cut];
            if prefix[0] == FRAME_MAGIC {
                // Both decoders agree prefixes are incomplete, modulo
                // the request/reply kind split.
                let as_command = decode_command(prefix);
                let as_reply = decode_reply(prefix);
                if frame[1] < 0x80 {
                    assert_eq!(as_command, Ok(Decoded::Incomplete), "cut={cut}");
                } else {
                    assert_eq!(as_reply, Ok(Decoded::Incomplete), "cut={cut}");
                }
            }
        }
    }
}

#[test]
fn every_header_bit_flip_is_loud_never_a_silent_truncation() {
    // The wire analogue of the WAL's inflated-length rule: corrupt a
    // frame header in any single bit and the decoder must return a
    // structured error — never Ok with a wrong frame, and never a
    // "wait for more bytes" stall on a length the header cannot
    // justify (fixed-size kinds validate length at header completion,
    // BEFORE any payload is awaited).
    let frame = encoded_command(&Command::Get(ClipId::new(0xABCD_1234)));
    for byte in 0..FRAME_HEADER_BYTES {
        for bit in 0..8 {
            let mut corrupt = frame.clone();
            corrupt[byte] ^= 1 << bit;
            let decoded = decode_command(&corrupt);
            assert!(
                decoded.is_err(),
                "flip byte {byte} bit {bit}: got {decoded:?}, wanted a loud error"
            );
        }
    }
}

#[test]
fn corrupt_length_header_resyncs_after_exactly_the_header() {
    // The chaos harness's binary garbage: checksum-valid header, an
    // impossible length for its fixed-size kind. Recoverable — the
    // decoder accounts for exactly the 7 header bytes, so a real frame
    // queued behind the garbage still decodes.
    let garbage = corrupt_length_get_frame();
    let err = decode_command(&garbage).unwrap_err();
    assert!(!err.fatal, "corrupt length must be recoverable: {err:?}");
    assert_eq!(err.consumed, FRAME_HEADER_BYTES);

    let follow_up = Command::Get(ClipId::new(77));
    let mut stream: Vec<u8> = garbage.to_vec();
    stream.extend_from_slice(&encoded_command(&follow_up));
    let after = &stream[err.consumed..];
    assert_eq!(
        decode_command(after),
        Ok(Decoded::Frame {
            value: follow_up,
            consumed: after.len()
        })
    );
}

#[test]
fn malformed_frame_corpus_is_rejected_not_panicked() {
    // Deterministic corpus of hostile frames; every entry must produce
    // a structured FrameError from both decoders (where applicable),
    // never a panic, never a silently-accepted frame.
    let valid_get = encoded_command(&Command::Get(ClipId::new(9)));
    let mut bad_check = valid_get.clone();
    bad_check[6] ^= 0xFF;
    let mut unknown_kind = valid_get.clone();
    unknown_kind[1] = 0x7E; // not a request kind; check byte now stale too
    let mut clip_zero = valid_get.clone();
    clip_zero[7..11].copy_from_slice(&0u32.to_le_bytes());
    // A variable-length reply kind claiming more than the cap.
    let mut oversized_err = Vec::new();
    encode_reply(&Reply::Err("x".into()), &mut oversized_err);
    let too_big = (MAX_FRAME_PAYLOAD as u32 + 1).to_le_bytes();
    oversized_err[2..6].copy_from_slice(&too_big);
    oversized_err[6] =
        FRAME_MAGIC ^ oversized_err[1] ^ too_big[0] ^ too_big[1] ^ too_big[2] ^ too_big[3];

    // A GETRANGE reply whose resident prefix exceeds the clip's total
    // chunks — only a corrupt peer can emit that, and the decoder must
    // say so rather than hand the impossible outcome to the client.
    let mut inverted_range = encoded_reply(&Reply::Range(RangeOutcome {
        hit: true,
        resident: 1,
        total: 5,
    }));
    let payload = FRAME_HEADER_BYTES;
    inverted_range[payload + 1..payload + 5].copy_from_slice(&9u32.to_le_bytes());
    assert!(decode_reply(&inverted_range).is_err());

    // (frame, feeds_command_decoder) — reply frames are hostile input
    // to the request decoder and vice versa.
    let corpus: Vec<(Vec<u8>, &str)> = vec![
        (bad_check, "corrupt check byte"),
        (unknown_kind, "unknown kind"),
        (clip_zero, "clip id zero"),
        (corrupt_length_get_frame().to_vec(), "impossible length"),
        (encoded_reply(&Reply::Bye), "reply kind fed as a request"),
        (
            vec![FRAME_MAGIC, 0xFF, 0, 0, 0, 0, FRAME_MAGIC ^ 0xFF],
            "unknown kind, valid check",
        ),
        (vec![0x00; 7], "not a frame at all"),
        (b"GET 9\n".to_vec(), "text fed to the frame decoder"),
    ];
    for (frame, what) in &corpus {
        let decoded = decode_command(frame);
        assert!(
            !matches!(decoded, Ok(Decoded::Frame { .. })),
            "{what}: request decoder accepted {frame:?}"
        );
        // Totality: the reply decoder must also survive every entry.
        let _ = decode_reply(frame);
    }
    // A request frame is hostile input to the reply decoder.
    assert!(decode_reply(&valid_get).is_err());
}

proptest! {
    #[test]
    fn binary_commands_round_trip(selector in 0u8..6, clip in 1u32..u32::MAX) {
        let command = command_from(selector, clip);
        let bytes = encoded_command(&command);
        let consumed = bytes.len();
        prop_assert_eq!(
            decode_command(&bytes),
            Ok(Decoded::Frame { value: command, consumed })
        );
    }

    #[test]
    fn binary_replies_round_trip(
        selector in 0u8..21,
        evictions in 0usize..usize::MAX,
        word in 0u64..u64::MAX,
        text_seed in 0u64..u64::MAX,
    ) {
        // Printable-ASCII text derived from the seed (the offline
        // proptest stub has no string strategies).
        let text: String = (0..(text_seed % 48))
            .map(|i| (b' ' + ((text_seed >> (i % 57)) % 95) as u8) as char)
            .collect();
        let reply = reply_from(selector, evictions, [word, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11], &text);
        let bytes = encoded_reply(&reply);
        let consumed = bytes.len();
        prop_assert_eq!(
            decode_reply(&bytes),
            Ok(Decoded::Frame { value: reply, consumed })
        );
    }

    #[test]
    fn binary_torn_prefixes_are_incomplete(clip in 1u32..u32::MAX, cut in 1usize..11) {
        let frame = encoded_command(&Command::Get(ClipId::new(clip)));
        let prefix = &frame[..cut.min(frame.len() - 1)];
        prop_assert_eq!(decode_command(prefix), Ok(Decoded::Incomplete));
    }

    #[test]
    fn binary_header_bit_flips_are_loud(clip in 1u32..u32::MAX, byte in 0usize..7, bit in 0usize..8) {
        let mut frame = encoded_command(&Command::Get(ClipId::new(clip)));
        frame[byte] ^= 1 << bit;
        prop_assert!(decode_command(&frame).is_err());
    }

    #[test]
    fn frame_decoders_are_total_on_random_bytes(
        bytes in proptest::collection::vec(0u8..255, 0..64),
        magic_first in 0u8..2,
    ) {
        // Half the cases start at the frame magic so the decoders get
        // past the first-byte check and into header/payload territory.
        let mut bytes = bytes;
        if magic_first == 1 && !bytes.is_empty() {
            bytes[0] = FRAME_MAGIC;
        }
        // Any byte soup: the decoders may refuse or wait, never panic,
        // and an accepted frame must account for no more bytes than
        // the buffer holds.
        if let Ok(Decoded::Frame { consumed, .. }) = decode_command(&bytes) {
            prop_assert!(consumed <= bytes.len());
        }
        if let Ok(Decoded::Frame { consumed, .. }) = decode_reply(&bytes) {
            prop_assert!(consumed <= bytes.len());
        }
    }
}
