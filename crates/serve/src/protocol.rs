//! The wire protocols spoken on the TCP front-end: the debuggable text
//! line protocol and the length-prefixed binary framing the pipelined
//! fast path uses.
//!
//! Both sides of the wire handle only [`Command`] and [`Reply`]; each
//! wire has exactly one encoder and one decoder for each:
//!
//! | | text | binary |
//! |---|---|---|
//! | request | [`format_command`] / [`parse_command`] | [`encode_command`] / [`decode_command`] |
//! | reply | [`format_reply`] / [`parse_reply`] | [`encode_reply`] / [`decode_reply`] |
//!
//! [`write_command`] and [`write_reply`] pick the encoder for a [`Wire`].
//! The `STATS` fields are named once, in [`STATS_FIELDS`]; both wires
//! lay them out in that order.
//!
//! Both protocols coexist on one connection: the framer looks at the
//! next unconsumed byte — [`FRAME_MAGIC`] (0xB5, not valid ASCII, so
//! never the start of a text command) opens a binary frame, anything
//! else is a text line. Replies are always spoken in the protocol of
//! the request they answer, so a mixed session stays unambiguous.
//!
//! ## Text protocol
//!
//! One request per line, one reply line per request (`SNAPSHOT` replies
//! stay on a single line so clients never need framing beyond
//! `read_line`). The grammar (also documented in `docs/extending.md`):
//!
//! ```text
//! request   = "GET" SP clip-id | "STATS" | "SNAPSHOT" | "QUIT"
//!           | "GETRANGE" SP clip-id SP chunk ; chunk-granular residency probe
//!           | "PEERGET" SP clip-id          ; cluster peer fill (local only)
//!           | "VERSION"                     ; wire/schema version handshake
//!           | "POISON" SP clip-id           ; chaos servers only
//! clip-id   = 1*DIGIT                ; ≥ 1
//! chunk     = 1*DIGIT                ; 0-based chunk index
//!
//! reply     = "HIT" SP evicted              ; GET, clip was resident
//!           | "MISS" SP admitted SP evicted ; GET, clip was fetched
//!           | "PHIT" SP admitted SP evicted ; GET, local miss filled by a
//!                                           ; cluster peer (cluster servers
//!                                           ; only — a cluster hit)
//!           | "RHIT" SP resident SP total   ; GETRANGE, chunk resident
//!           | "RMISS" SP resident SP total  ; GETRANGE, chunk absent
//!           | "RPEER" SP had                ; PEERGET, peer-local outcome
//!           | "VERSION" SP "proto=" n SP "snapshot=" n SP "wal=" n
//!           | "STATS" 12(SP name "=" n)     ; every STATS_FIELDS name,
//!                                           ; once each, in table order
//!           | "SNAPSHOT" SP json-array      ; one CacheSnapshot per shard
//!           | "POISONED" SP shard-index     ; POISON acknowledged
//!           | "BYE"                         ; QUIT acknowledged
//!           | "BUSY"                        ; GET shed by the overload
//!                                           ; governor — retry with backoff
//!           | "ERR" SP text                 ; malformed request / unknown
//!                                           ; clip / out-of-range chunk /
//!                                           ; refused operation
//! admitted  = "0" | "1"
//! had       = "0" | "1"                     ; peer had the clip resident
//! evicted   = 1*DIGIT                       ; clips evicted by this access
//! resident  = 1*DIGIT                       ; chunks of the head resident
//! total     = 1*DIGIT                       ; chunks in the clip
//! ```
//!
//! `VERSION` and `STATS` fields are positional as well as named: a
//! repeated, missing, reordered or unknown field is a parse error.
//!
//! `PEERGET` is the cluster tier's peer-fill probe: it performs a full
//! *local* access on the receiving node (admitting on a miss — the
//! write-all half of read-any/write-all replication) and reports
//! whether the clip was already resident, but it never recurses into
//! another peer fetch, which is what keeps peer fill loop-free.
//! `VERSION` reports the protocol, snapshot, and WAL schema versions so
//! a version-skewed peer is refused by name during the cluster
//! handshake instead of failing later with a generic parse error.
//!
//! A `GETRANGE` whose chunk index is at or past the clip's chunk count
//! gets a loud `ERR` naming the index and the valid range — never a
//! stall, never a fabricated `RMISS`.
//!
//! ## Binary framing
//!
//! ```text
//! frame   = MAGIC(0xB5) kind(1) len(u32 LE) check(1) payload(len)
//! check   = MAGIC ^ kind ^ len[0] ^ len[1] ^ len[2] ^ len[3]
//! ```
//!
//! Request kinds: `GET` (payload: clip u32 LE), `STATS`, `SNAPSHOT`,
//! `POISON` (clip u32 LE), `QUIT`, `GETRANGE` (clip u32 LE + chunk u32
//! LE), `PEER_GET` (clip u32 LE), `HELLO` (empty). Reply kinds: `GET`
//! (flags byte — bit 0 hit, bit 1 admitted, bit 2 peer-filled — plus
//! evictions u64 LE), `RANGE` (hit u8 + resident u32 LE + total u32
//! LE), `PEER` (had u8), `HELLO` (proto + snapshot + wal, three u32
//! LE), `STATS` (one u64 LE per [`STATS_FIELDS`] entry), `SNAPSHOT`
//! (UTF-8 JSON), `POISONED` (u64 LE), `BYE`, `BUSY` (empty — the
//! governor's shed reply), `ERR` (UTF-8 message). Every request kind
//! has a *fixed* payload length, which is what makes corruption loud
//! (see below).
//!
//! **A corrupted length header is never a silent truncation** —
//! mirroring the WAL's inflated-length fix: the header check byte makes
//! any bit flip in the 7-byte header a fatal [`FrameError`], and a
//! checksum-valid header whose length disagrees with its kind's fixed
//! size is refused before any payload is awaited. Truncated input is
//! only ever classified [`Decoded::Incomplete`] when the header itself
//! validates. Recoverable corruption (a header-only frame with a bogus
//! length — the chaos harness's binary garbage) consumes exactly the
//! header and gets a structured `ERR` frame; unrecoverable corruption
//! (bad check byte, unknown kind — the stream cannot be resynced)
//! closes the connection after the `ERR`.
//!
//! ## Totality
//!
//! Every parser in this module is total: any byte sequence (truncated
//! lines, embedded NULs, torn frame prefixes, bit-flipped headers,
//! garbage from the chaos harness) produces an `Err`/`Corrupt`, never a
//! panic — `tests/protocol_props.rs` pounds this with a malformed-input
//! corpus and random bytes. Malformed *requests* get an `ERR` reply and
//! the connection stays open; the server never answers garbage with a
//! bare disconnect.

use crate::shard::{GetOutcome, RangeOutcome};
use clipcache_media::{ByteSize, ClipId};
use clipcache_sim::metrics::HitStats;
use std::fmt::Display;
use std::io::Write as _;
use std::str::{FromStr, SplitAsciiWhitespace};

/// Which wire protocol a peer speaks. Both land on the same server —
/// it auto-detects per message — but a single client sticks to one so
/// its replies are unambiguous.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Wire {
    /// Newline-delimited text (`GET 7`, `HIT …`). The default.
    #[default]
    Text,
    /// Length-prefixed binary frames with batched pipelined writes.
    Binary,
}

impl FromStr for Wire {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "text" => Ok(Wire::Text),
            "binary" => Ok(Wire::Binary),
            other => Err(format!("unknown wire '{other}' (expected text|binary)")),
        }
    }
}

impl std::fmt::Display for Wire {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Wire::Text => "text",
            Wire::Binary => "binary",
        })
    }
}

/// A parsed request line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Command {
    /// Access a clip through its shard.
    Get(ClipId),
    /// Probe whether one chunk of a clip is resident (0-based index).
    GetRange(ClipId, u32),
    /// Cluster peer fill: a full local access on behalf of a peer
    /// (admits on miss — write-all), reporting whether the clip was
    /// already resident. Never recurses into another peer fetch.
    PeerGet(ClipId),
    /// Report the wire/schema versions (the cluster handshake).
    Version,
    /// Report merged hit statistics.
    Stats,
    /// Snapshot every shard.
    Snapshot,
    /// Inject a shard-poisoning fault (chaos-enabled servers only).
    Poison(ClipId),
    /// Close the connection.
    Quit,
}

/// One reply, protocol-independent: the server builds these and renders
/// them as a text line or a binary frame depending on how the request
/// arrived; the client decodes either back into them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reply {
    /// Outcome of a `GET`.
    Get(GetOutcome),
    /// Outcome of a `GETRANGE` residency probe.
    Range(RangeOutcome),
    /// Outcome of a `PEERGET`: whether the peer already held the clip.
    Peer(bool),
    /// The wire/schema versions (`VERSION`/`HELLO` handshake).
    Version(WireVersions),
    /// Merged server statistics.
    Stats(ServerStats),
    /// The per-shard snapshot JSON array.
    Snapshot(String),
    /// `POISON` acknowledged; the poisoned shard index.
    Poisoned(u64),
    /// `QUIT` acknowledged.
    Bye,
    /// The overload governor shed this `GET`: the server is past its
    /// high watermark and the client should back off and retry —
    /// unlike `Err`, the request was well-formed and the connection
    /// stays healthy.
    Busy,
    /// Structured refusal.
    Err(String),
}

/// Server-side statistics as the `STATS` reply carries them: the merged
/// hit counters plus the service's poison-recovery count.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Merged per-shard hit statistics.
    pub stats: HitStats,
    /// Poisoned-shard recoveries performed since startup.
    pub recoveries: u64,
    /// WAL records replayed when the durable stores were opened (zero
    /// for an in-memory server).
    pub wal_replayed: u64,
    /// Local misses filled from a cluster peer instead of the origin
    /// (zero for a non-cluster server).
    pub peer_hits: u64,
    /// Hinted-handoff replays onto healed peers (zero for a
    /// non-cluster server).
    pub handoff_replayed: u64,
    /// Peers this node currently holds Open behind a circuit breaker
    /// (zero for a non-cluster server).
    pub breaker_open: u64,
    /// GETs shed with `BUSY` by the overload governor.
    pub shed: u64,
}

/// The `STATS` field names in wire order: the text reply's `name=value`
/// words and the binary reply's u64 slots both follow this table, and
/// [`ServerStats::to_fields`] / [`ServerStats::from_fields`] map the
/// struct onto it.
pub const STATS_FIELDS: [&str; 12] = [
    "hits",
    "misses",
    "prefix_hits",
    "byte_hits",
    "byte_misses",
    "evictions",
    "recoveries",
    "wal_replayed",
    "peer_hits",
    "handoff_replayed",
    "breaker_open",
    "shed",
];

impl ServerStats {
    /// The counters in [`STATS_FIELDS`] order.
    pub fn to_fields(&self) -> [u64; STATS_FIELDS.len()] {
        [
            self.stats.hits,
            self.stats.misses,
            self.stats.prefix_hits,
            self.stats.byte_hits.as_u64(),
            self.stats.byte_misses.as_u64(),
            self.stats.evictions,
            self.recoveries,
            self.wal_replayed,
            self.peer_hits,
            self.handoff_replayed,
            self.breaker_open,
            self.shed,
        ]
    }

    /// The inverse of [`to_fields`](Self::to_fields).
    pub fn from_fields(f: [u64; STATS_FIELDS.len()]) -> ServerStats {
        ServerStats {
            stats: HitStats {
                hits: f[0],
                misses: f[1],
                prefix_hits: f[2],
                byte_hits: ByteSize::bytes(f[3]),
                byte_misses: ByteSize::bytes(f[4]),
                evictions: f[5],
            },
            recoveries: f[6],
            wal_replayed: f[7],
            peer_hits: f[8],
            handoff_replayed: f[9],
            breaker_open: f[10],
            shed: f[11],
        }
    }
}

/// The wire-visible protocol version. Version 4 added the degraded-mode
/// surface — the `BUSY` shed reply and the `handoff_replayed` /
/// `breaker_open` / `shed` STATS fields; version 3 added the cluster
/// verbs (`PEERGET`, `VERSION`/`HELLO`), the `PHIT` reply, and the
/// `peer_hits` STATS field; version 2 added binary framing and the
/// chunk-granular verbs; version 1 was the original text protocol.
pub const PROTOCOL_VERSION: u32 = 4;

/// The text `VERSION` reply's field names, in wire order.
const VERSION_FIELDS: [&str; 3] = ["proto", "snapshot", "wal"];

/// The schema versions a node reports during the cluster handshake.
///
/// Cooperating peers exchange snapshots of durable state indirectly
/// (a recovered node replays checkpoints and WALs its peers must be
/// able to reason about), so all three versions must match before any
/// peer fill happens; [`WireVersions::check_matches`] names the first
/// mismatch loudly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireVersions {
    /// [`PROTOCOL_VERSION`].
    pub protocol: u32,
    /// `clipcache_core::snapshot::SNAPSHOT_VERSION`.
    pub snapshot: u32,
    /// [`crate::persist::WAL_VERSION`].
    pub wal: u32,
}

impl WireVersions {
    /// The versions this build speaks.
    pub fn current() -> Self {
        WireVersions {
            protocol: PROTOCOL_VERSION,
            snapshot: clipcache_core::snapshot::SNAPSHOT_VERSION as u32,
            wal: crate::persist::WAL_VERSION as u32,
        }
    }

    /// Refuse `other` unless every version matches, naming the first
    /// skewed component and both values.
    pub fn check_matches(&self, other: &WireVersions) -> Result<(), String> {
        for (name, ours, theirs) in [
            ("protocol", self.protocol, other.protocol),
            ("snapshot", self.snapshot, other.snapshot),
            ("wal", self.wal, other.wal),
        ] {
            if ours != theirs {
                return Err(format!(
                    "{name} version skew: peer speaks {name} version {theirs}, \
                     this build speaks {ours}"
                ));
            }
        }
        Ok(())
    }
}

fn parse_clip_id(raw: &str) -> Result<ClipId, String> {
    let raw = raw.trim();
    let id: u64 = raw
        .parse()
        .map_err(|_| format!("'{raw}' is not a clip id"))?;
    if id == 0 || id > u32::MAX as u64 {
        return Err(format!("clip id {id} out of range"));
    }
    Ok(ClipId::new(id as u32))
}

/// Parse one request line (already stripped of the newline).
pub fn parse_command(line: &str) -> Result<Command, String> {
    let line = line.trim();
    if let Some(rest) = line.strip_prefix("GETRANGE ") {
        let mut words = rest.split_ascii_whitespace();
        let clip = parse_clip_id(words.next().unwrap_or(""))?;
        let chunk = words
            .next()
            .and_then(|w| w.parse::<u32>().ok())
            .ok_or_else(|| format!("GETRANGE needs a chunk index: '{line}'"))?;
        if words.next().is_some() {
            return Err(format!("trailing words after GETRANGE: '{line}'"));
        }
        return Ok(Command::GetRange(clip, chunk));
    }
    if let Some(rest) = line.strip_prefix("GET ") {
        return Ok(Command::Get(parse_clip_id(rest)?));
    }
    if let Some(rest) = line.strip_prefix("PEERGET ") {
        return Ok(Command::PeerGet(parse_clip_id(rest)?));
    }
    if let Some(rest) = line.strip_prefix("POISON ") {
        return Ok(Command::Poison(parse_clip_id(rest)?));
    }
    match line {
        "STATS" => Ok(Command::Stats),
        "SNAPSHOT" => Ok(Command::Snapshot),
        "VERSION" => Ok(Command::Version),
        "QUIT" => Ok(Command::Quit),
        "" => Err("empty request".into()),
        other => Err(format!("unknown command '{other}'")),
    }
}

/// Format a request line (the inverse of [`parse_command`]).
pub fn format_command(command: &Command) -> String {
    let mut line = Vec::new();
    write_command_line(command, &mut line);
    String::from_utf8(line).expect("request lines are ASCII")
}

/// Append `command`'s request line, newline not included, to `out`.
fn write_command_line(command: &Command, out: &mut Vec<u8>) {
    // Writing into a `Vec` cannot fail.
    let _ = match command {
        Command::Get(clip) => write!(out, "GET {}", clip.get()),
        Command::GetRange(clip, chunk) => write!(out, "GETRANGE {} {chunk}", clip.get()),
        Command::PeerGet(clip) => write!(out, "PEERGET {}", clip.get()),
        Command::Version => out.write_all(b"VERSION"),
        Command::Stats => out.write_all(b"STATS"),
        Command::Snapshot => out.write_all(b"SNAPSHOT"),
        Command::Poison(clip) => write!(out, "POISON {}", clip.get()),
        Command::Quit => out.write_all(b"QUIT"),
    };
}

/// Append `verb name=value …` over a table of field names to `out`.
fn write_fields<T: Display>(
    out: &mut Vec<u8>,
    verb: &str,
    names: &[&str],
    values: &[T],
) -> std::io::Result<()> {
    out.write_all(verb.as_bytes())?;
    for (name, value) in names.iter().zip(values) {
        write!(out, " {name}={value}")?;
    }
    Ok(())
}

/// Read one `name=value` word per table entry, in table order. A
/// repeated, missing, reordered or unknown field is an error, so a
/// reply from a build with a different table never parses into
/// silently defaulted counters.
fn parse_fields<T: FromStr + Default + Copy, const N: usize>(
    verb: &str,
    words: &mut SplitAsciiWhitespace<'_>,
    names: &[&str; N],
) -> Result<[T; N], String> {
    let mut values = [T::default(); N];
    for (value, name) in values.iter_mut().zip(names) {
        let field = words
            .next()
            .ok_or_else(|| format!("{verb} reply is missing field '{name}'"))?;
        let raw = field
            .strip_prefix(name)
            .and_then(|rest| rest.strip_prefix('='))
            .ok_or_else(|| format!("{verb} field '{field}' where '{name}=' belongs"))?;
        *value = raw
            .parse()
            .map_err(|_| format!("non-numeric {verb} field '{field}'"))?;
    }
    Ok(values)
}

/// The next word as a number, if it is one.
fn next_number<T: FromStr>(words: &mut SplitAsciiWhitespace<'_>) -> Option<T> {
    words.next()?.parse().ok()
}

/// Render a reply as its text-protocol line (newline not included).
///
/// A local `GET` hit is `HIT`; a local miss is `PHIT` when a cluster
/// peer filled it (a cluster hit) and `MISS` otherwise — non-cluster
/// servers never emit `PHIT`, which is what keeps the single-node
/// degenerate cluster byte-identical to the serial anchor.
pub fn format_reply(reply: &Reply) -> String {
    let mut line = Vec::new();
    write_reply_line(reply, &mut line);
    String::from_utf8(line).expect("formatted from UTF-8 text")
}

/// Append `reply`'s text line, newline not included, to `out`.
fn write_reply_line(reply: &Reply, out: &mut Vec<u8>) {
    // Writing into a `Vec` cannot fail.
    let _ = match reply {
        Reply::Get(outcome) if outcome.hit => write!(out, "HIT {}", outcome.evictions),
        Reply::Get(outcome) => write!(
            out,
            "{} {} {}",
            if outcome.peer { "PHIT" } else { "MISS" },
            outcome.admitted as u8,
            outcome.evictions
        ),
        Reply::Range(outcome) => write!(
            out,
            "{} {} {}",
            if outcome.hit { "RHIT" } else { "RMISS" },
            outcome.resident,
            outcome.total
        ),
        Reply::Peer(had) => write!(out, "RPEER {}", *had as u8),
        Reply::Version(v) => write_fields(
            out,
            "VERSION",
            &VERSION_FIELDS,
            &[v.protocol, v.snapshot, v.wal],
        ),
        Reply::Stats(stats) => write_fields(out, "STATS", &STATS_FIELDS, &stats.to_fields()),
        Reply::Snapshot(json) => write!(out, "SNAPSHOT {json}"),
        Reply::Poisoned(shard) => write!(out, "POISONED {shard}"),
        Reply::Bye => out.write_all(b"BYE"),
        Reply::Busy => out.write_all(b"BUSY"),
        Reply::Err(msg) => write!(out, "ERR {msg}"),
    };
}

/// Parse one text reply line: the inverse of [`format_reply`] for every
/// reply whose `SNAPSHOT`/`ERR` text is a single line without leading
/// or trailing whitespace (the line is trimmed first). Total: anything
/// else is an `Err`, never a panic.
pub fn parse_reply(line: &str) -> Result<Reply, String> {
    let line = line.trim();
    // Free-text replies keep everything after the first space verbatim.
    match line.split_once(' ').unwrap_or((line, "")) {
        ("SNAPSHOT", json) => return Ok(Reply::Snapshot(json.to_string())),
        ("ERR", msg) => return Ok(Reply::Err(msg.to_string())),
        _ => {}
    }
    let malformed = || format!("malformed reply '{line}'");
    let flag = |word: Option<&str>| match word {
        Some("0") => Ok(false),
        Some("1") => Ok(true),
        _ => Err(malformed()),
    };
    let mut words = line.split_ascii_whitespace();
    let reply = match words.next() {
        Some("HIT") => Reply::Get(GetOutcome {
            hit: true,
            admitted: true,
            evictions: next_number(&mut words).ok_or_else(malformed)?,
            peer: false,
        }),
        Some(verb @ ("MISS" | "PHIT")) => Reply::Get(GetOutcome {
            hit: false,
            admitted: flag(words.next())?,
            evictions: next_number(&mut words).ok_or_else(malformed)?,
            peer: verb == "PHIT",
        }),
        Some(verb @ ("RHIT" | "RMISS")) => {
            let resident: u32 = next_number(&mut words).ok_or_else(malformed)?;
            let total: u32 = next_number(&mut words).ok_or_else(malformed)?;
            if resident > total {
                return Err(malformed());
            }
            Reply::Range(RangeOutcome {
                hit: verb == "RHIT",
                resident,
                total,
            })
        }
        Some("RPEER") => Reply::Peer(flag(words.next())?),
        Some("VERSION") => {
            let [protocol, snapshot, wal] = parse_fields("VERSION", &mut words, &VERSION_FIELDS)?;
            Reply::Version(WireVersions {
                protocol,
                snapshot,
                wal,
            })
        }
        Some("STATS") => Reply::Stats(ServerStats::from_fields(parse_fields(
            "STATS",
            &mut words,
            &STATS_FIELDS,
        )?)),
        Some("POISONED") => Reply::Poisoned(next_number(&mut words).ok_or_else(malformed)?),
        Some("BYE") => Reply::Bye,
        Some("BUSY") => Reply::Busy,
        _ => return Err(malformed()),
    };
    if words.next().is_some() {
        return Err(malformed());
    }
    Ok(reply)
}

/// Append `command` to `out` as `wire` carries it: a text line with its
/// newline, or one binary frame.
pub fn write_command(wire: Wire, command: &Command, out: &mut Vec<u8>) {
    match wire {
        Wire::Text => {
            write_command_line(command, out);
            out.push(b'\n');
        }
        Wire::Binary => encode_command(command, out),
    }
}

/// Append `reply` to `out` as `wire` carries it: a text line with its
/// newline, or one binary frame.
pub fn write_reply(wire: Wire, reply: &Reply, out: &mut Vec<u8>) {
    match wire {
        Wire::Text => {
            write_reply_line(reply, out);
            out.push(b'\n');
        }
        Wire::Binary => encode_reply(reply, out),
    }
}

/// First byte of every binary frame. 0xB5 is not valid ASCII (and not
/// valid UTF-8 as a leading byte), so it can never begin a text command
/// — the per-message protocol auto-detect hinges on this.
pub const FRAME_MAGIC: u8 = 0xB5;

/// Bytes in a frame header: magic, kind, length (u32 LE), check.
pub const FRAME_HEADER_BYTES: usize = 7;

/// Largest accepted variable-length frame payload (`SNAPSHOT`/`ERR`
/// replies). Request payloads are all fixed-size and tiny.
pub const MAX_FRAME_PAYLOAD: usize = 16 * 1024 * 1024;

const KIND_GET: u8 = 0x01;
const KIND_STATS: u8 = 0x02;
const KIND_SNAPSHOT: u8 = 0x03;
const KIND_POISON: u8 = 0x04;
const KIND_QUIT: u8 = 0x05;
const KIND_GETRANGE: u8 = 0x06;
const KIND_PEER_GET: u8 = 0x07;
const KIND_HELLO: u8 = 0x08;
const KIND_R_GET: u8 = 0x81;
const KIND_R_STATS: u8 = 0x82;
const KIND_R_SNAPSHOT: u8 = 0x83;
const KIND_R_POISONED: u8 = 0x84;
const KIND_R_BYE: u8 = 0x85;
const KIND_R_RANGE: u8 = 0x86;
const KIND_R_PEER: u8 = 0x87;
const KIND_R_HELLO: u8 = 0x88;
const KIND_R_BUSY: u8 = 0x89;
const KIND_R_ERR: u8 = 0xC0;

/// Payload bytes of a `STATS` reply frame: one u64 per field.
const STATS_FRAME_LEN: u32 = 8 * STATS_FIELDS.len() as u32;

/// A frame decoding failure. Always loud: the caller must answer with a
/// structured `ERR` (and, when `fatal`, close the connection) — never
/// silently skip bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameError {
    /// Bytes of input this corrupt frame accounts for. Non-fatal errors
    /// consume exactly this much and the stream stays parseable.
    pub consumed: usize,
    /// Whether the stream can still be resynced. A checksum-valid
    /// header whose length disagrees with its kind's fixed size is
    /// recoverable (consume the header, keep going — the chaos
    /// harness's binary garbage takes this path); a corrupt check byte
    /// or unknown kind is not, because the length cannot be trusted.
    pub fatal: bool,
    /// Human-readable reason, surfaced in the `ERR` reply.
    pub reason: String,
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.reason)
    }
}

/// Outcome of a decode attempt over a (possibly still growing) buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Decoded<T> {
    /// The buffer holds a torn prefix of a frame whose header (where
    /// present) validates; read more bytes and retry.
    Incomplete,
    /// One whole frame decoded; `consumed` bytes of the buffer are
    /// accounted for.
    Frame { value: T, consumed: usize },
}

fn frame_check(kind: u8, len: [u8; 4]) -> u8 {
    FRAME_MAGIC ^ kind ^ len[0] ^ len[1] ^ len[2] ^ len[3]
}

fn push_header(out: &mut Vec<u8>, kind: u8, len: u32) {
    let len_bytes = len.to_le_bytes();
    out.push(FRAME_MAGIC);
    out.push(kind);
    out.extend_from_slice(&len_bytes);
    out.push(frame_check(kind, len_bytes));
}

/// Append `command` to `out` as one binary frame. Batched pipelining is
/// just repeated calls before a single write.
pub fn encode_command(command: &Command, out: &mut Vec<u8>) {
    match command {
        Command::Get(clip) => {
            push_header(out, KIND_GET, 4);
            out.extend_from_slice(&clip.get().to_le_bytes());
        }
        Command::GetRange(clip, chunk) => {
            push_header(out, KIND_GETRANGE, 8);
            out.extend_from_slice(&clip.get().to_le_bytes());
            out.extend_from_slice(&chunk.to_le_bytes());
        }
        Command::PeerGet(clip) => {
            push_header(out, KIND_PEER_GET, 4);
            out.extend_from_slice(&clip.get().to_le_bytes());
        }
        Command::Version => push_header(out, KIND_HELLO, 0),
        Command::Stats => push_header(out, KIND_STATS, 0),
        Command::Snapshot => push_header(out, KIND_SNAPSHOT, 0),
        Command::Poison(clip) => {
            push_header(out, KIND_POISON, 4);
            out.extend_from_slice(&clip.get().to_le_bytes());
        }
        Command::Quit => push_header(out, KIND_QUIT, 0),
    }
}

/// Append `reply` to `out` as one binary frame.
pub fn encode_reply(reply: &Reply, out: &mut Vec<u8>) {
    match reply {
        Reply::Get(outcome) => {
            push_header(out, KIND_R_GET, 9);
            let flags =
                (outcome.hit as u8) | ((outcome.admitted as u8) << 1) | ((outcome.peer as u8) << 2);
            out.push(flags);
            out.extend_from_slice(&(outcome.evictions as u64).to_le_bytes());
        }
        Reply::Range(outcome) => {
            push_header(out, KIND_R_RANGE, 9);
            out.push(outcome.hit as u8);
            out.extend_from_slice(&outcome.resident.to_le_bytes());
            out.extend_from_slice(&outcome.total.to_le_bytes());
        }
        Reply::Peer(had) => {
            push_header(out, KIND_R_PEER, 1);
            out.push(*had as u8);
        }
        Reply::Version(versions) => {
            push_header(out, KIND_R_HELLO, 12);
            out.extend_from_slice(&versions.protocol.to_le_bytes());
            out.extend_from_slice(&versions.snapshot.to_le_bytes());
            out.extend_from_slice(&versions.wal.to_le_bytes());
        }
        Reply::Stats(stats) => {
            push_header(out, KIND_R_STATS, STATS_FRAME_LEN);
            for v in stats.to_fields() {
                out.extend_from_slice(&v.to_le_bytes());
            }
        }
        Reply::Snapshot(json) => {
            push_header(out, KIND_R_SNAPSHOT, json.len() as u32);
            out.extend_from_slice(json.as_bytes());
        }
        Reply::Poisoned(shard) => {
            push_header(out, KIND_R_POISONED, 8);
            out.extend_from_slice(&shard.to_le_bytes());
        }
        Reply::Bye => push_header(out, KIND_R_BYE, 0),
        Reply::Busy => push_header(out, KIND_R_BUSY, 0),
        Reply::Err(msg) => {
            let msg = &msg.as_bytes()[..msg.len().min(MAX_FRAME_PAYLOAD)];
            push_header(out, KIND_R_ERR, msg.len() as u32);
            out.extend_from_slice(msg);
        }
    }
}

/// A header-only `GET` frame with a deliberately impossible length and
/// a *valid* check byte — the chaos harness's binary garbage. Exercises
/// the recoverable corrupt-length path: the server answers `ERR` after
/// consuming exactly the header, and the connection (plus every frame
/// queued behind the garbage) survives.
pub fn corrupt_length_get_frame() -> [u8; FRAME_HEADER_BYTES] {
    let len = (MAX_FRAME_PAYLOAD as u32 + 1).to_le_bytes();
    [
        FRAME_MAGIC,
        KIND_GET,
        len[0],
        len[1],
        len[2],
        len[3],
        frame_check(KIND_GET, len),
    ]
}

/// The fixed payload length for `kind`, or `None` for variable-length
/// (reply-only) kinds.
fn fixed_len(kind: u8) -> Option<u32> {
    match kind {
        KIND_GET | KIND_POISON | KIND_PEER_GET => Some(4),
        KIND_GETRANGE => Some(8),
        KIND_STATS | KIND_SNAPSHOT | KIND_QUIT | KIND_HELLO | KIND_R_BYE | KIND_R_BUSY => Some(0),
        KIND_R_GET | KIND_R_RANGE => Some(9),
        KIND_R_PEER => Some(1),
        KIND_R_HELLO => Some(12),
        KIND_R_STATS => Some(STATS_FRAME_LEN),
        KIND_R_POISONED => Some(8),
        KIND_R_SNAPSHOT | KIND_R_ERR => None,
        _ => Some(0), // unknown kinds are rejected before this matters
    }
}

/// The little-endian `u32` at `at` in a payload whose length its
/// header already validated.
fn le_u32(payload: &[u8], at: usize) -> u32 {
    let mut bytes = [0u8; 4];
    bytes.copy_from_slice(&payload[at..at + 4]);
    u32::from_le_bytes(bytes)
}

/// The little-endian `u64` at `at`, like [`le_u32`].
fn le_u64(payload: &[u8], at: usize) -> u64 {
    let mut bytes = [0u8; 8];
    bytes.copy_from_slice(&payload[at..at + 8]);
    u64::from_le_bytes(bytes)
}

fn corrupt(consumed: usize, fatal: bool, reason: impl Into<String>) -> FrameError {
    FrameError {
        consumed,
        fatal,
        reason: reason.into(),
    }
}

/// Validate the 7-byte header at the start of `buf` and return
/// `(kind, payload_len)`. `request` restricts the accepted kinds.
fn decode_header(buf: &[u8], request: bool) -> Result<Decoded<(u8, usize)>, FrameError> {
    if buf.is_empty() || buf[0] != FRAME_MAGIC {
        return Err(corrupt(0, true, "not a binary frame"));
    }
    if buf.len() < FRAME_HEADER_BYTES {
        return Ok(Decoded::Incomplete);
    }
    let kind = buf[1];
    let len_bytes = [buf[2], buf[3], buf[4], buf[5]];
    if buf[6] != frame_check(kind, len_bytes) {
        // The length cannot be trusted, so neither can any resync.
        return Err(corrupt(
            FRAME_HEADER_BYTES,
            true,
            "corrupt frame header (check byte mismatch)",
        ));
    }
    let known = if request {
        matches!(
            kind,
            KIND_GET
                | KIND_GETRANGE
                | KIND_PEER_GET
                | KIND_HELLO
                | KIND_STATS
                | KIND_SNAPSHOT
                | KIND_POISON
                | KIND_QUIT
        )
    } else {
        matches!(
            kind,
            KIND_R_GET
                | KIND_R_RANGE
                | KIND_R_PEER
                | KIND_R_HELLO
                | KIND_R_STATS
                | KIND_R_SNAPSHOT
                | KIND_R_POISONED
                | KIND_R_BYE
                | KIND_R_BUSY
                | KIND_R_ERR
        )
    };
    if !known {
        return Err(corrupt(
            FRAME_HEADER_BYTES,
            true,
            format!(
                "unknown {} frame kind 0x{kind:02X}",
                if request { "request" } else { "reply" }
            ),
        ));
    }
    let len = u32::from_le_bytes(len_bytes);
    match fixed_len(kind) {
        // A fixed-size kind with the wrong length is refused BEFORE any
        // payload is awaited: a bit-flipped length header must be loud,
        // never a silent truncation (the WAL's inflated-length rule).
        Some(expected) if len != expected => Err(corrupt(
            FRAME_HEADER_BYTES,
            false,
            format!("corrupt frame length {len} for kind 0x{kind:02X} (expected {expected})"),
        )),
        None if len as usize > MAX_FRAME_PAYLOAD => Err(corrupt(
            FRAME_HEADER_BYTES,
            false,
            format!("frame payload of {len} bytes exceeds the {MAX_FRAME_PAYLOAD}-byte cap"),
        )),
        _ => Ok(Decoded::Frame {
            value: (kind, len as usize),
            consumed: FRAME_HEADER_BYTES,
        }),
    }
}

/// Decode one request frame from the start of `buf`.
pub fn decode_command(buf: &[u8]) -> Result<Decoded<Command>, FrameError> {
    let (kind, len) = match decode_header(buf, true)? {
        Decoded::Incomplete => return Ok(Decoded::Incomplete),
        Decoded::Frame { value, .. } => value,
    };
    let total = FRAME_HEADER_BYTES + len;
    if buf.len() < total {
        return Ok(Decoded::Incomplete);
    }
    let payload = &buf[FRAME_HEADER_BYTES..total];
    let clip = |payload: &[u8]| -> Result<ClipId, FrameError> {
        let id = le_u32(payload, 0);
        if id == 0 {
            return Err(corrupt(total, false, "clip id 0 out of range"));
        }
        Ok(ClipId::new(id))
    };
    let value = match kind {
        KIND_GET => Command::Get(clip(payload)?),
        KIND_GETRANGE => Command::GetRange(clip(payload)?, le_u32(payload, 4)),
        KIND_PEER_GET => Command::PeerGet(clip(payload)?),
        KIND_POISON => Command::Poison(clip(payload)?),
        KIND_HELLO => Command::Version,
        KIND_STATS => Command::Stats,
        KIND_SNAPSHOT => Command::Snapshot,
        _ => Command::Quit,
    };
    Ok(Decoded::Frame {
        value,
        consumed: total,
    })
}

/// Decode one reply frame from the start of `buf`.
pub fn decode_reply(buf: &[u8]) -> Result<Decoded<Reply>, FrameError> {
    let (kind, len) = match decode_header(buf, false)? {
        Decoded::Incomplete => return Ok(Decoded::Incomplete),
        Decoded::Frame { value, .. } => value,
    };
    let total = FRAME_HEADER_BYTES + len;
    if buf.len() < total {
        return Ok(Decoded::Incomplete);
    }
    let payload = &buf[FRAME_HEADER_BYTES..total];
    let value = match kind {
        KIND_R_GET => {
            let flags = payload[0];
            if flags & !0b111 != 0 {
                return Err(corrupt(total, true, "corrupt GET reply flags"));
            }
            let hit = flags & 1 != 0;
            let admitted = flags & 2 != 0;
            let peer = flags & 4 != 0;
            if hit && !admitted {
                return Err(corrupt(
                    total,
                    true,
                    "corrupt GET reply (hit but not admitted)",
                ));
            }
            if hit && peer {
                return Err(corrupt(
                    total,
                    true,
                    "corrupt GET reply (a local hit cannot be peer-filled)",
                ));
            }
            Reply::Get(GetOutcome {
                hit,
                admitted,
                evictions: le_u64(payload, 1) as usize,
                peer,
            })
        }
        KIND_R_RANGE => {
            if payload[0] > 1 {
                return Err(corrupt(total, true, "corrupt GETRANGE reply hit byte"));
            }
            let resident = le_u32(payload, 1);
            let chunk_total = le_u32(payload, 5);
            if resident > chunk_total {
                return Err(corrupt(
                    total,
                    true,
                    "corrupt GETRANGE reply (resident prefix exceeds total chunks)",
                ));
            }
            Reply::Range(RangeOutcome {
                hit: payload[0] == 1,
                resident,
                total: chunk_total,
            })
        }
        KIND_R_PEER => {
            if payload[0] > 1 {
                return Err(corrupt(total, true, "corrupt PEERGET reply byte"));
            }
            Reply::Peer(payload[0] == 1)
        }
        KIND_R_HELLO => Reply::Version(WireVersions {
            protocol: le_u32(payload, 0),
            snapshot: le_u32(payload, 4),
            wal: le_u32(payload, 8),
        }),
        KIND_R_STATS => Reply::Stats(ServerStats::from_fields(std::array::from_fn(|i| {
            le_u64(payload, 8 * i)
        }))),
        KIND_R_SNAPSHOT => Reply::Snapshot(
            String::from_utf8(payload.to_vec())
                .map_err(|_| corrupt(total, true, "SNAPSHOT reply is not UTF-8"))?,
        ),
        KIND_R_POISONED => Reply::Poisoned(le_u64(payload, 0)),
        KIND_R_BYE => Reply::Bye,
        KIND_R_BUSY => Reply::Busy,
        _ => Reply::Err(String::from_utf8_lossy(payload).into_owned()),
    };
    Ok(Decoded::Frame {
        value,
        consumed: total,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_text_round_trip(reply: Reply) {
        assert_eq!(parse_reply(&format_reply(&reply)), Ok(reply));
    }

    #[test]
    fn commands_parse() {
        assert_eq!(parse_command("GET 17"), Ok(Command::Get(ClipId::new(17))));
        assert_eq!(parse_command("  GET 3  "), Ok(Command::Get(ClipId::new(3))));
        assert_eq!(parse_command("STATS"), Ok(Command::Stats));
        assert_eq!(parse_command("SNAPSHOT"), Ok(Command::Snapshot));
        assert_eq!(parse_command("QUIT"), Ok(Command::Quit));
        assert_eq!(
            parse_command("POISON 9"),
            Ok(Command::Poison(ClipId::new(9)))
        );
        assert_eq!(
            parse_command("GETRANGE 4 17"),
            Ok(Command::GetRange(ClipId::new(4), 17))
        );
        assert_eq!(
            parse_command("GETRANGE 4 0"),
            Ok(Command::GetRange(ClipId::new(4), 0))
        );
        assert_eq!(
            parse_command("PEERGET 12"),
            Ok(Command::PeerGet(ClipId::new(12)))
        );
        assert_eq!(parse_command("VERSION"), Ok(Command::Version));
    }

    #[test]
    fn commands_round_trip() {
        for command in [
            Command::Get(ClipId::new(1)),
            Command::Get(ClipId::new(u32::MAX)),
            Command::GetRange(ClipId::new(7), 3),
            Command::GetRange(ClipId::new(1), u32::MAX),
            Command::PeerGet(ClipId::new(23)),
            Command::Version,
            Command::Stats,
            Command::Snapshot,
            Command::Poison(ClipId::new(42)),
            Command::Quit,
        ] {
            assert_eq!(parse_command(&format_command(&command)), Ok(command));
            let mut line = Vec::new();
            write_command(Wire::Text, &command, &mut line);
            assert_eq!(line, format!("{}\n", format_command(&command)).into_bytes());
        }
    }

    #[test]
    fn bad_commands_rejected() {
        assert!(parse_command("GET").is_err());
        assert!(parse_command("GET zero").is_err());
        assert!(parse_command("GET 0").is_err());
        assert!(parse_command("GET 99999999999").is_err());
        assert!(parse_command("get 1").is_err()); // commands are uppercase
        assert!(parse_command("").is_err());
        assert!(parse_command("POISON").is_err());
        assert!(parse_command("POISON 0").is_err());
        assert!(parse_command("PUT 1").unwrap_err().contains("PUT"));
        assert!(parse_command("GETRANGE").is_err());
        assert!(parse_command("GETRANGE 1").is_err());
        assert!(parse_command("GETRANGE 0 1").is_err());
        assert!(parse_command("GETRANGE 1 x").is_err());
        assert!(parse_command("GETRANGE 1 -1").is_err());
        assert!(parse_command("GETRANGE 1 2 3").is_err());
        assert!(parse_command("PEERGET").is_err());
        assert!(parse_command("PEERGET 0").is_err());
        assert!(parse_command("VERSION 2").is_err());
    }

    #[test]
    fn range_reply_round_trips() {
        for (hit, resident, total) in [(true, 5, 5), (true, 2, 9), (false, 0, 35)] {
            assert_text_round_trip(Reply::Range(RangeOutcome {
                hit,
                resident,
                total,
            }));
        }
        assert!(parse_reply("RHIT").is_err());
        assert!(parse_reply("RHIT 1").is_err());
        assert!(parse_reply("RMISS 1 2 3").is_err());
        assert!(parse_reply("RHIT 6 5").is_err(), "resident beyond total");
    }

    #[test]
    fn get_reply_round_trips() {
        for (hit, admitted, evictions, peer) in [
            (true, true, 0, false),
            (false, true, 3, false),
            (false, false, 0, false),
            // Peer-filled: a local miss the cluster turned into a hit.
            (false, true, 2, true),
            (false, false, 0, true),
        ] {
            assert_text_round_trip(Reply::Get(GetOutcome {
                hit,
                admitted,
                evictions,
                peer,
            }));
        }
        assert!(format_reply(&Reply::Get(GetOutcome {
            hit: false,
            admitted: true,
            evictions: 1,
            peer: true,
        }))
        .starts_with("PHIT "));
        assert!(parse_reply("HIT").is_err());
        assert!(parse_reply("HIT 1 2").is_err());
        assert!(parse_reply("MISS 2 0").is_err());
        assert!(parse_reply("PHIT 2 0").is_err());
        assert!(parse_reply("PHIT").is_err());
    }

    #[test]
    fn peer_reply_round_trips() {
        assert_text_round_trip(Reply::Peer(true));
        assert_text_round_trip(Reply::Peer(false));
        assert!(parse_reply("RPEER").is_err());
        assert!(parse_reply("RPEER 2").is_err());
    }

    #[test]
    fn version_reply_round_trips_and_skew_is_named() {
        let ours = WireVersions::current();
        assert_eq!(ours.protocol, PROTOCOL_VERSION);
        let line = format_reply(&Reply::Version(ours));
        assert!(line.starts_with("VERSION proto="));
        assert_eq!(parse_reply(&line), Ok(Reply::Version(ours)));
        assert!(parse_reply("VERSION proto=3").is_err(), "missing fields");
        assert!(parse_reply("VERSION proto=3 snapshot=2 wal=x").is_err());
        assert!(parse_reply("VERSION proto=3 snapshot=2 wal=2 extra=1").is_err());
        assert!(parse_reply("VERSION snapshot=2 proto=3 wal=2").is_err());
        assert!(parse_reply("VERSION proto=4294967296 snapshot=2 wal=2").is_err());
        // A skewed peer is refused with the component named.
        assert!(ours.check_matches(&ours).is_ok());
        let skewed = WireVersions { wal: 1, ..ours };
        let err = ours.check_matches(&skewed).unwrap_err();
        assert!(
            err.contains("wal version skew"),
            "names the component: {err}"
        );
        assert!(err.contains("version 1"), "names both versions: {err}");
    }

    #[test]
    fn stats_reply_round_trips() {
        let mut stats = HitStats::new();
        stats.record(true, ByteSize::mb(10), 0);
        stats.record(false, ByteSize::mb(30), 2);
        let server = ServerStats {
            stats,
            recoveries: 3,
            wal_replayed: 41,
            peer_hits: 7,
            handoff_replayed: 5,
            breaker_open: 1,
            shed: 13,
        };
        assert_eq!(ServerStats::from_fields(server.to_fields()), server);
        let line = format_reply(&Reply::Stats(server.clone()));
        assert!(line.contains("recoveries=3"));
        assert!(line.contains("wal_replayed=41"));
        assert!(line.contains("prefix_hits=0"));
        assert!(line.contains("peer_hits=7"));
        assert!(line.contains("handoff_replayed=5"));
        assert!(line.contains("breaker_open=1"));
        assert!(line.contains("shed=13"));
        assert_eq!(parse_reply(&line), Ok(Reply::Stats(server)));
        assert!(parse_reply("STATS hits=1").is_err());
        assert!(parse_reply(
            "STATS hits=1 misses=x prefix_hits=0 byte_hits=0 byte_misses=0 evictions=0 \
             recoveries=0 wal_replayed=0 peer_hits=0 handoff_replayed=0 breaker_open=0 shed=0"
        )
        .is_err());
        // Older wire formats (five through nine fields, including the
        // pre-governor one without the degraded counters) are gone, not
        // silently defaulted.
        assert!(
            parse_reply("STATS hits=1 misses=0 byte_hits=0 byte_misses=0 evictions=0").is_err()
        );
        assert!(parse_reply(
            "STATS hits=1 misses=0 byte_hits=0 byte_misses=0 evictions=0 recoveries=0"
        )
        .is_err());
        assert!(parse_reply(
            "STATS hits=1 misses=0 byte_hits=0 byte_misses=0 evictions=0 recoveries=0 \
             wal_replayed=0"
        )
        .is_err());
        assert!(parse_reply(
            "STATS hits=1 misses=0 prefix_hits=0 byte_hits=0 byte_misses=0 evictions=0 \
             recoveries=0 wal_replayed=0"
        )
        .is_err());
        assert!(parse_reply(
            "STATS hits=1 misses=0 prefix_hits=0 byte_hits=0 byte_misses=0 evictions=0 \
             recoveries=0 wal_replayed=0 peer_hits=0"
        )
        .is_err());
        assert!(parse_reply("nope").is_err());
    }

    #[test]
    fn stats_reply_carries_prefix_hits() {
        let mut stats = HitStats::new();
        stats.record_prefix(ByteSize::mb(2), ByteSize::mb(8), 0);
        let server = Reply::Stats(ServerStats {
            stats,
            ..ServerStats::default()
        });
        assert!(format_reply(&server).contains("prefix_hits=1"));
        assert_text_round_trip(server);
    }

    #[test]
    fn busy_reply_encodes_as_an_empty_frame() {
        let mut out = Vec::new();
        encode_reply(&Reply::Busy, &mut out);
        assert_eq!(out.len(), FRAME_HEADER_BYTES, "BUSY carries no payload");
        assert_eq!(
            decode_reply(&out),
            Ok(Decoded::Frame {
                value: Reply::Busy,
                consumed: FRAME_HEADER_BYTES,
            })
        );
        // Torn prefixes of a BUSY frame are Incomplete, never garbage.
        for cut in 1..FRAME_HEADER_BYTES {
            assert_eq!(decode_reply(&out[..cut]), Ok(Decoded::Incomplete));
        }
        let mut binary = Vec::new();
        write_reply(Wire::Binary, &Reply::Busy, &mut binary);
        assert_eq!(binary, out, "the binary wire is the frame encoder");
        let mut text = Vec::new();
        write_reply(Wire::Text, &Reply::Busy, &mut text);
        assert_eq!(text, b"BUSY\n");
    }

    #[test]
    fn poisoned_reply_round_trips() {
        for shard in [0u64, 3, 17] {
            assert_text_round_trip(Reply::Poisoned(shard));
        }
        assert!(parse_reply("POISONED").is_err());
        assert!(parse_reply("POISONED x").is_err());
        assert!(parse_reply("POISONED 1 2").is_err());
    }
}
