//! Property tests of both wire protocols.
//!
//! Text: `parse ∘ format == id` for every command and every reply
//! variant, and totality of both parsers — any byte sequence
//! (truncated lines, embedded NULs, oversized clip ids, raw garbage)
//! produces an `Err`, never a panic.
//!
//! Binary: `decode ∘ encode == id` for every frame, torn prefixes
//! always decode `Incomplete` (never an error, never a short frame),
//! and every single-bit flip in a frame header is *loud* — a structured
//! `FrameError`, never a silent truncation or a silently wrong frame
//! (the same inflated-length rule the WAL pins for disk records,
//! applied to the wire).
//!
//! One reply generator ([`reply_from`]) covers all ten `Reply` variants
//! and feeds both wires, and a literal pin fixes the `STATS` bytes on
//! each. The text bytes `write_command`/`write_reply` append in place
//! are the `format_*` line plus its newline, pinned literally for one
//! message of every kind.
//!
//! The plain `#[test]`s walk a deterministic corpus; the `proptest!`
//! cases add random inputs on top (the vendored `proptest` is a small
//! real runner, see `vendor/README.md`).

use clipcache_media::{ByteSize, ClipId};
use clipcache_serve::protocol::{
    corrupt_length_get_frame, decode_command, decode_reply, encode_command, encode_reply,
    format_command, format_reply, parse_command, parse_reply, write_command, write_reply, Command,
    Decoded, Reply, ServerStats, Wire, WireVersions, FRAME_HEADER_BYTES, FRAME_MAGIC,
    MAX_FRAME_PAYLOAD, STATS_FIELDS,
};
use clipcache_serve::shard::{GetOutcome, RangeOutcome};
use clipcache_sim::metrics::HitStats;
use proptest::prelude::*;

fn command_from(selector: u8, clip: u32) -> Command {
    let chunk = clip.rotate_left(7);
    let clip = ClipId::new(clip.max(1));
    match selector % 8 {
        0 => Command::Get(clip),
        1 => Command::Stats,
        2 => Command::Snapshot,
        3 => Command::Poison(clip),
        4 => Command::GetRange(clip, chunk),
        5 => Command::PeerGet(clip),
        6 => Command::Version,
        _ => Command::Quit,
    }
}

fn range_from(selector: u8, total: u32) -> RangeOutcome {
    // `resident <= total` always holds on a well-formed wire (both
    // decoders reject anything else as corrupt).
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
    let (hit, admitted, peer) = match selector % 4 {
        0 => (true, true, false),
        1 => (false, true, false),
        2 => (false, false, false),
        _ => (false, true, true),
    };
    GetOutcome {
        hit,
        admitted,
        evictions,
        peer,
    }
}

/// Printable-ASCII text derived from a seed (the vendored proptest has
/// no string strategies), trimmed: a text reply is one line, and the
/// text parser trims the line, so free text must start and end on a
/// non-space character to round-trip.
fn text_from(seed: u64) -> String {
    let text: String = (0..(seed % 48))
        .map(|i| (b' ' + ((seed >> (i % 57)) % 95) as u8) as char)
        .collect();
    text.trim().to_string()
}

/// Every `Reply` variant, chosen by `selector % 10`; `selector / 10`
/// picks the `GET` and `GETRANGE` sub-states.
fn reply_from(selector: u8, word: u64, evictions: usize, text: &str) -> Reply {
    let stats: [u64; 12] = std::array::from_fn(|i| word.rotate_left(5 * i as u32) ^ i as u64);
    match selector % 10 {
        0 => Reply::Get(outcome_from(selector / 10, evictions)),
        1 => Reply::Range(range_from(selector / 10, word as u32)),
        2 => Reply::Peer(word.is_multiple_of(2)),
        3 => Reply::Version(WireVersions {
            protocol: word as u32,
            snapshot: (word >> 32) as u32,
            wal: word.rotate_left(16) as u32,
        }),
        4 => Reply::Stats(ServerStats::from_fields(stats)),
        5 => Reply::Snapshot(format!("[{text:?}]")),
        6 => Reply::Poisoned(word),
        7 => Reply::Bye,
        8 => Reply::Busy,
        _ => Reply::Err(text.to_string()),
    }
}

/// One reply through both wires: text line and binary frame.
fn assert_reply_round_trips(reply: &Reply) {
    assert_eq!(
        parse_reply(&format_reply(reply)).as_ref(),
        Ok(reply),
        "text wire"
    );
    let bytes = encoded_reply(reply);
    assert_eq!(
        decode_reply(&bytes),
        Ok(Decoded::Frame {
            value: reply.clone(),
            consumed: bytes.len()
        }),
        "binary wire"
    );
}

/// Both parsers applied to one input; the property under test is only
/// that neither panics.
fn feed_all_parsers(line: &str) {
    let _ = parse_command(line);
    let _ = parse_reply(line);
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
}

#[test]
fn malformed_replies_are_rejected() {
    for line in [
        "",
        "HIT",
        "HIT x",
        "HIT 1 2",
        "MISS 2 0",
        "MISS 1 1 1",
        "PHIT",
        "RHIT 3 2",
        "RHIT 4294967296 4294967296",
        "RPEER 2",
        "POISONED -1",
        "BYE BYE",
        "BUSY now",
        "GET 1",
        "ERRATA",
        // A repeated field standing in for a missing one: 12 fields,
        // `misses` absent. Counting fields alone would accept this with
        // `misses` silently 0.
        "STATS hits=1 hits=2 prefix_hits=0 byte_hits=0 byte_misses=0 evictions=0 \
         recoveries=0 wal_replayed=0 peer_hits=0 handoff_replayed=0 breaker_open=0 shed=0",
        // The same defect in the handshake: `snapshot` absent.
        "VERSION proto=4 proto=4 wal=1",
        // Every field present, two swapped.
        "STATS misses=0 hits=1 prefix_hits=0 byte_hits=0 byte_misses=0 evictions=0 \
         recoveries=0 wal_replayed=0 peer_hits=0 handoff_replayed=0 breaker_open=0 shed=0",
        "VERSION wal=1 snapshot=2 proto=4",
        // One past the table.
        "STATS hits=1 misses=0 prefix_hits=0 byte_hits=0 byte_misses=0 evictions=0 \
         recoveries=0 wal_replayed=0 peer_hits=0 handoff_replayed=0 breaker_open=0 shed=0 \
         shed=0",
    ] {
        assert!(parse_reply(line).is_err(), "reply accepted: {line:?}");
    }
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
    assert!(parse_reply(&huge_junk).is_err());
}

#[test]
fn round_trips_on_a_grid() {
    for selector in 0u8..8 {
        for clip in [1u32, 2, 1000, u32::MAX] {
            let command = command_from(selector, clip);
            assert_eq!(parse_command(&format_command(&command)), Ok(command));
        }
    }
    for selector in 0u8..40 {
        for (word, evictions) in [(0u64, 0usize), (1, 1), (7, 7), (u64::MAX, usize::MAX)] {
            for text in ["", "boom", "a  b", "{\"shard\":0}"] {
                assert_reply_round_trips(&reply_from(selector, word, evictions, text));
            }
        }
    }
}

#[test]
fn stats_reply_is_pinned_on_both_wires() {
    // One value per field, each distinct, built without the field
    // table: reordering `STATS_FIELDS` (and the struct mapping with it)
    // keeps every round trip green but breaks this pin.
    let stats = ServerStats {
        stats: HitStats {
            hits: 1,
            misses: 2,
            prefix_hits: 3,
            byte_hits: ByteSize::bytes(4),
            byte_misses: ByteSize::bytes(5),
            evictions: 6,
        },
        recoveries: 7,
        wal_replayed: 8,
        peer_hits: 9,
        handoff_replayed: 10,
        breaker_open: 11,
        shed: 12,
    };
    let reply = Reply::Stats(stats);
    assert_eq!(
        format_reply(&reply),
        "STATS hits=1 misses=2 prefix_hits=3 byte_hits=4 byte_misses=5 evictions=6 \
         recoveries=7 wal_replayed=8 peer_hits=9 handoff_replayed=10 breaker_open=11 shed=12"
    );
    #[rustfmt::skip]
    let frame: [u8; 103] = [
        0xB5, 0x82, 96, 0, 0, 0, 0x57, // magic, R_STATS, len 96, check
        1, 0, 0, 0, 0, 0, 0, 0, // hits
        2, 0, 0, 0, 0, 0, 0, 0, // misses
        3, 0, 0, 0, 0, 0, 0, 0, // prefix_hits
        4, 0, 0, 0, 0, 0, 0, 0, // byte_hits
        5, 0, 0, 0, 0, 0, 0, 0, // byte_misses
        6, 0, 0, 0, 0, 0, 0, 0, // evictions
        7, 0, 0, 0, 0, 0, 0, 0, // recoveries
        8, 0, 0, 0, 0, 0, 0, 0, // wal_replayed
        9, 0, 0, 0, 0, 0, 0, 0, // peer_hits
        10, 0, 0, 0, 0, 0, 0, 0, // handoff_replayed
        11, 0, 0, 0, 0, 0, 0, 0, // breaker_open
        12, 0, 0, 0, 0, 0, 0, 0, // shed
    ];
    assert_eq!(encoded_reply(&reply), frame);
    assert_reply_round_trips(&reply);
}

/// `command`'s bytes on the text wire, as a client appends them.
fn text_command(command: &Command) -> Vec<u8> {
    let mut out = b"prior".to_vec();
    write_command(Wire::Text, command, &mut out);
    out.split_off(5)
}

/// `reply`'s bytes on the text wire, as a server appends them.
fn text_reply(reply: &Reply) -> Vec<u8> {
    let mut out = b"prior".to_vec();
    write_reply(Wire::Text, reply, &mut out);
    out.split_off(5)
}

#[test]
fn text_lines_are_pinned_for_every_kind() {
    let commands = [
        (Command::Get(ClipId::new(7)), "GET 7"),
        (Command::GetRange(ClipId::new(7), 3), "GETRANGE 7 3"),
        (Command::PeerGet(ClipId::new(9)), "PEERGET 9"),
        (Command::Version, "VERSION"),
        (Command::Stats, "STATS"),
        (Command::Snapshot, "SNAPSHOT"),
        (
            Command::Poison(ClipId::new(4294967295)),
            "POISON 4294967295",
        ),
        (Command::Quit, "QUIT"),
    ];
    for (command, line) in commands {
        assert_eq!(text_command(&command), format!("{line}\n").into_bytes());
    }
    let get = |hit, admitted, peer| {
        Reply::Get(GetOutcome {
            hit,
            admitted,
            evictions: 3,
            peer,
        })
    };
    let replies = [
        (get(true, true, false), "HIT 3"),
        (get(false, true, false), "MISS 1 3"),
        (get(false, false, false), "MISS 0 3"),
        (get(false, true, true), "PHIT 1 3"),
        (Reply::Range(range_from(0, 9)), "RHIT 0 9"),
        (Reply::Range(range_from(1, 9)), "RMISS 4 9"),
        (Reply::Peer(true), "RPEER 1"),
        (
            Reply::Version(WireVersions {
                protocol: 4,
                snapshot: 2,
                wal: 2,
            }),
            "VERSION proto=4 snapshot=2 wal=2",
        ),
        (
            Reply::Snapshot("[{\"shard\":0}]".into()),
            "SNAPSHOT [{\"shard\":0}]",
        ),
        (Reply::Poisoned(2), "POISONED 2"),
        (Reply::Bye, "BYE"),
        (Reply::Busy, "BUSY"),
        (Reply::Err("idle timeout".into()), "ERR idle timeout"),
    ];
    for (reply, line) in replies {
        assert_eq!(text_reply(&reply), format!("{line}\n").into_bytes());
    }
}

#[test]
fn extending_guide_names_every_stats_field() {
    let guide = include_str!("../../../docs/extending.md");
    for name in STATS_FIELDS {
        assert!(
            guide.contains(&format!("{name}=")),
            "docs/extending.md does not name STATS field `{name}=`"
        );
    }
}

proptest! {
    #[test]
    fn commands_round_trip(selector in 0u8..8, clip in 1u32..u32::MAX) {
        let command = command_from(selector, clip);
        prop_assert_eq!(parse_command(&format_command(&command)), Ok(command));
    }

    #[test]
    fn replies_round_trip_on_both_wires(
        selector in 0u8..40,
        word in 0u64..u64::MAX,
        evictions in 0usize..usize::MAX,
        text_seed in 0u64..u64::MAX,
    ) {
        let reply = reply_from(selector, word, evictions, &text_from(text_seed));
        prop_assert_eq!(parse_reply(&format_reply(&reply)), Ok(reply.clone()));
        let bytes = encoded_reply(&reply);
        let consumed = bytes.len();
        prop_assert_eq!(
            decode_reply(&bytes),
            Ok(Decoded::Frame { value: reply, consumed })
        );
    }

    #[test]
    fn text_writers_append_the_formatted_line(
        selector in 0u8..40,
        clip in 1u32..u32::MAX,
        word in 0u64..u64::MAX,
        evictions in 0usize..usize::MAX,
        text_seed in 0u64..u64::MAX,
    ) {
        let command = command_from(selector, clip);
        let line = format!("{}\n", format_command(&command));
        prop_assert_eq!(text_command(&command), line.into_bytes());
        let reply = reply_from(selector, word, evictions, &text_from(text_seed));
        let line = format!("{}\n", format_reply(&reply));
        prop_assert_eq!(text_reply(&reply), line.into_bytes());
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
            format!("VERSION proto={a} snapshot={b} wal={a}"),
            format!("GETRANGE {a} {b}"),
            format!("RHIT {a} {b}"),
            format!("RMISS {a} {b}"),
            format!("RPEER {}", a % 3),
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

#[test]
fn frames_round_trip_on_a_grid() {
    for selector in 0u8..8 {
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
    fn binary_commands_round_trip(selector in 0u8..8, clip in 1u32..u32::MAX) {
        let command = command_from(selector, clip);
        let bytes = encoded_command(&command);
        let consumed = bytes.len();
        prop_assert_eq!(
            decode_command(&bytes),
            Ok(Decoded::Frame { value: command, consumed })
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
