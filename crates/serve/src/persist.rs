//! Durable per-shard cache state: checkpoints plus a segmented,
//! group-committed write-ahead log.
//!
//! The paper's whole argument is that a cache hit means the clip
//! survives disconnection — which is only true if the cache itself
//! survives a crash. This module makes a shard's state durable with the
//! classic checkpoint + WAL pairing:
//!
//! * **Checkpoint** — a [`DurableCheckpoint`] holding the shard's
//!   [`CacheSnapshot`] (resident set, policy, capacity, virtual clock),
//!   its [`HitStats`] and the WAL sequence number it covers, serialized
//!   through the hand-rolled `workload::json` codec. It lives in one of
//!   two **slot** files ([`CHECKPOINT_SLOT_FILES`]), each holding one
//!   CRC-framed checkpoint with a write *generation*. A checkpoint
//!   overwrites, in place, the slot not holding the newest one — one
//!   `pwrite`, one `fdatasync` — so a crash mid-checkpoint tears only
//!   that slot and leaves the previous checkpoint intact in the other;
//!   the valid frame with the higher generation is the checkpoint. A
//!   durable service takes that work off its request path. The shard
//!   refreshes its checkpoint in memory every `--checkpoint-every`
//!   accesses and submits it to its store, which hands a refresh, not
//!   yet encoded, to the service's background writer thread only once
//!   the WAL holds at least a quarter segment of records past the last
//!   hand-off (`segment_bytes / (4 · 25)`, 41,943 at the default
//!   4 MiB). The count is in sequence numbers, so `GETRANGE` probes
//!   count too. Until then the store holds the newest refresh; a poison
//!   rewind, a clean shutdown and the armed `checkpoint:N` land it. The
//!   writer runs at nice 19 and encodes only the hand-off it takes (a
//!   newer one replaces one still pending in the shard's mailbox), and
//!   each landing is `fdatasync`ed before it retires any WAL. So a
//!   `kill -9` replays at most a quarter segment plus one
//!   `--checkpoint-every` per shard; `--checkpoint-every` sets the
//!   poison-rewind point. Exactly, a crash replays the records after
//!   the newest checkpoint that landed. Once the newest hand-off has
//!   landed that is under a quarter segment plus one refresh interval
//!   (`--checkpoint-every` accesses and the probes logged among them);
//!   a crash while it is still pending or being written replays from
//!   the hand-off before it.
//! * **WAL** — an append-only log of every access since the last
//!   checkpoint, kept as fixed-size numbered **segments**
//!   (`wal.000001.log`, `wal.000002.log`, …). Each record is
//!   length-prefixed and CRC-framed ([`crc32`] over the length *and*
//!   payload, so a corrupted length cannot masquerade as a valid
//!   frame). Recovery replays the log through the shard's zero-alloc
//!   `access_into` path.
//!
//! ## Segments
//!
//! Every segment starts with a 24-byte header (magic, [`WAL_VERSION`],
//! its own segment number — so a renamed file or a version-skewed log
//! is refused by name, never reinterpreted). Exactly one segment is
//! *active* (appended to); once it reaches `--segment-bytes` it is
//! **sealed** — trimmed to its last frame, then a [`SEAL_MARK`] footer
//! naming the last sequence number and a CRC over *every* byte of the
//! segment is fsynced onto the end — and a fresh successor segment is
//! created. Sealed segments are immutable and fully durable; a single
//! flipped bit anywhere in one fails the footer CRC loudly.
//!
//! Creating a segment fsyncs only what a promise needs. Its header is
//! never fsynced on its own: under `--wal-sync always` the first group
//! commit into the segment covers it, under `off` its seal does. Its
//! name is made durable at creation under `always`, where the first
//! acknowledged record needs it, and under `off` by a directory fsync
//! right after the seal. Either way a sealed segment's bytes and name
//! are durable before its successor's file exists, so after a power
//! loss only the newest segment can be unsealed, and at worst it
//! exists with its header never written (all zeros), which open
//! creates afresh. A roll costs two fsyncs in either mode, a fresh
//! open none under `off` and one directory fsync under `always`; every
//! fsync goes through one counted ledger ([`ShardStore::fsyncs`]).
//!
//! The active segment is longer than its records while it is live. Its
//! frames are committed into a shared mapping of the file (see the
//! write path below), over space reserved ahead of the tail by writing
//! zeros when the segment is created, so the file holds the header, the
//! frames, and then zeros up to the reservation. A seal, a retirement
//! that empties the segment and a clean close trim it to its exact
//! length, byte for byte what a build that wrote its frames with
//! `write(2)` left; a killed process or a crashed machine leaves the
//! zeros for [`ShardStore::open`] to trim. Such a build refuses an
//! untrimmed segment loudly (its zero length field is not the record
//! layout), so only a cleanly closed data dir opens there.
//!
//! Because the tail is mapped, a commit cannot return an error: a page
//! the kernel fails to provide at a store kills the whole process with
//! `SIGBUS`, not just the shard. [`ShardStore::open`] therefore refuses
//! a directory on a filesystem where a store into reserved space can
//! still need new space (copy-on-write ones such as btrfs, network
//! filesystems, overlays whose backing store it cannot see): only
//! ext2/3/4, XFS and tmpfs are accepted (see `mapped_tail_filesystem`).
//! Two causes remain on those: an I/O error reading back a tail page
//! the kernel evicted (where a `write(2)` would have failed with `EIO`),
//! and a live segment file truncated from outside the process. The log
//! belongs to the server while it runs.
//!
//! A checkpoint covering sequence number S **retires** the log behind
//! it: sealed segments whose last record is at or below S are deleted,
//! and the active segment is truncated back to its bare header only
//! when it holds nothing after S. A background checkpoint is retired
//! only once it has landed — the shard learns that on its next
//! operation — and by then the active segment usually holds newer
//! records, so it keeps its records at or below S at its head. That
//! *subsumed prefix* is the steady state, not a crash artifact:
//! [`ShardStore::open`] skips it, and the normal roll bounds it to one
//! segment (`--segment-bytes`). Open streams each segment through one
//! fixed buffer, so a 4 MiB subsumed prefix costs a scan, never 4 MiB
//! of memory.
//!
//! ## The write path: stage, commit, wait
//!
//! A request's frame is encoded into a reused per-store staging buffer,
//! never written on its own. Whoever runs the request commits the
//! buffer before replying: the event loop once per touched shard at the
//! end of a batch of pipelined requests, an in-process call before it
//! returns. A commit is a memory copy, not a system call: it publishes
//! the staged frames into the active segment's shared mapping, each
//! frame's body first and its 4-byte length last, behind a compiler
//! fence. The mapping's pages are the page cache, so a frame is in the
//! OS — and survives `kill -9` — before its reply is sent, and a
//! process killed at any instruction leaves whole frames, at most one
//! body without its length, then zeros. The mapping spans the
//! reservation ahead of the tail, a segment at a time, and the pages
//! behind the tail are released every 16 KiB, so a shard keeps only a
//! few pages of it resident. A segment is reserved and mapped in the
//! batch that seals its predecessor (the first one after open, in the
//! first commit); a failed reservation or mapping kills the store, and
//! the requests whose frames it would have carried are refused. Under
//! `--wal-sync always` the commit also hands back a [`CommitTicket`];
//! the caller releases the shard lock, then waits on it. The first
//! waiter becomes the *leader*: it gives later writers up to the commit
//! window to pile in (leaving early once the queue quiesces; a zero
//! window fsyncs at once), then issues **one** fsync that makes every
//! rider durable. Writers that arrive during
//! that fsync share the next one. A request is acknowledged only after
//! its fsync lands; batching changes *when* the fsync happens, never
//! what bytes reach the disk. Rolling a segment, retiring or rewinding
//! the log, and every crash point write what is staged first; a killed
//! store drops it, since none of it was acknowledged.
//!
//! ## The recovery contract
//!
//! [`ShardStore::open`] loads the newest valid checkpoint and decodes
//! the segments oldest-to-newest, tolerating exactly the artifacts a
//! crash can leave and refusing everything else:
//!
//! * a **zero tail** ([`SegmentEnd::ZeroTail`]) — the newest segment's
//!   records end at a zero length field: the reservation of a mapped
//!   tail nobody trimmed, because the process was killed or the machine
//!   went down. That is why a crashed segment is longer than its
//!   records. Recovery ends the segment there and trims the file; the
//!   one frame body a killed process may have left without its length
//!   is dropped and its bytes reported. Any other non-zero byte after
//!   the zero length (a valid frame included) is corruption.
//! * a **torn tail** ([`SegmentEnd::Torn`]) — the newest segment ends
//!   mid-frame (or mid-footer, or even mid-header), the signature of a
//!   crash during a write. The partial bytes are truncated away (a torn
//!   header is rewritten) and recovery proceeds from the last complete
//!   record; the dropped byte count is reported, never hidden. A newest
//!   segment whose 24 header bytes are all zeros is one whose header
//!   never reached the disk (a power loss before its first fsync): it
//!   never held a durable record, so it is created afresh and any
//!   bytes after the zeros are dropped and counted. A zero header on
//!   any other segment, and any non-zero wrong magic, is corruption.
//! * a **subsumed prefix** — records (or whole sealed segments) with
//!   sequence numbers at or below the checkpoint's: the active
//!   segment's head in the steady state, or whatever a crash between
//!   a checkpoint landing and the retirement left. The checkpoint
//!   already folds them in, so they are skipped (and fully subsumed
//!   segments deleted), never replayed twice.
//! * a **sealed newest segment** — a crash in the roll window, after
//!   the seal fsync but before the successor segment was created, or
//!   a power loss that kept the seal but not the successor's name.
//!   Recovery opens a fresh successor; nothing was lost.
//! * a **torn checkpoint slot** — a crash mid-checkpoint left half a
//!   frame in the slot being written. It fails its CRC and is ignored;
//!   the other slot holds the previous checkpoint, and the WAL was
//!   retired only through a checkpoint that landed.
//! * **corruption** — a complete frame whose CRC or length prefix does
//!   not match the fixed layout, a sequence break, a failed seal-footer
//!   CRC, a gap in the segment numbering, a pre-segment single-file
//!   `wal.log`, or two checkpoint slots that both fail their checks.
//!   That is bit rot or foul play, not a crash artifact, and recovery
//!   refuses loudly ([`PersistError::Corrupt`],
//!   [`PersistError::BadCheckpoint`]) rather than replaying garbage.
//!
//! Recovery is deterministic: the same on-disk bytes produce the same
//! rebuilt shard, bit for bit, on every attempt — the crash-kill chaos
//! suite (`tests/crash_recovery.rs`) pins this by recovering twice from
//! copies of the same directory.
//!
//! ## Deterministic crash points
//!
//! A [`CrashSpec`] arms the store with a *crash point* — die after the
//! Nth WAL append, publish only half of the Nth append's body and never
//! its length (a torn write),
//! die midway through the Nth checkpoint submitted (the request that
//! submitted it lands the checkpoint before it, held or handed off,
//! then half-writes its own into the other slot), write only half of
//! the Nth seal footer (`seal:N`), or die after the Nth seal lands but
//! before the successor segment exists (`segment-roll:N`). The store
//! commits what is staged, performs the partial effect, then reports
//! [`PersistError::CrashInjected`]; the service maps that to
//! `process::exit(137)` in the binaries (`--crash-at`) or surfaces it
//! to an in-process harness. Crash points count operations performed
//! *after* recovery, so a crash-restart loop steps deterministically
//! through the log.

use clipcache_core::snapshot::CacheSnapshot;
use clipcache_media::{ByteSize, ClipId};
use clipcache_sim::metrics::HitStats;
use std::collections::VecDeque;
use std::fs::{File, OpenOptions};
use std::io::Read;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// The single-file WAL name used before the log was segmented. Found
/// on disk it is refused by name — this build neither reads nor
/// silently migrates the old layout.
pub const LEGACY_WAL_FILE: &str = "wal.log";
/// The single checkpoint file used before checkpoint slots. Found on
/// disk it is migrated once, at open, into a slot and then deleted.
pub const LEGACY_CHECKPOINT_FILE: &str = "checkpoint.json";
/// The scratch name the legacy layout wrote a checkpoint to before
/// renaming it over [`LEGACY_CHECKPOINT_FILE`]; deleted at open.
pub const LEGACY_CHECKPOINT_TMP: &str = "checkpoint.tmp";
/// The two checkpoint slot files inside a shard's directory. Each
/// holds one checkpoint frame at offset 0, overwritten in place; the
/// valid frame with the higher generation is the checkpoint.
pub const CHECKPOINT_SLOT_FILES: [&str; 2] = ["checkpoint.0", "checkpoint.1"];
/// Magic bytes opening every checkpoint frame.
pub const CHECKPOINT_MAGIC: [u8; 8] = *b"CLIPCKPT";
/// Bytes in a checkpoint frame header: magic (8) + generation (8) +
/// body length (4) + CRC (4).
pub const CHECKPOINT_HEADER_BYTES: usize = 24;

/// The durable-checkpoint schema version this build writes and reads.
/// Version 2 added chunk-granular residency: the embedded snapshot
/// carries partial prefixes and the stats carry `prefix_hits`.
pub const CHECKPOINT_VERSION: u64 = 2;

/// The WAL record-layout version this build writes and replays.
/// Version 2 added the chunk field (17-byte payloads); version-1
/// records are rejected by name, never reinterpreted. Every segment
/// header carries this version, and peers compare it over the wire
/// (`VERSION`/`KIND_HELLO`) before cooperating.
pub const WAL_VERSION: u64 = 2;

/// Magic bytes opening every WAL segment header.
pub const SEGMENT_MAGIC: [u8; 8] = *b"CLIPWAL\0";
/// Bytes in a segment header: magic (8) + version (8) + segment no (8).
pub const SEGMENT_HEADER_BYTES: usize = 24;
/// Bytes in a seal footer: mark (4) + last seq (8) + CRC (4).
pub const SEGMENT_FOOTER_BYTES: usize = 16;
/// The length-field value that marks a seal footer instead of a record.
/// Record frames always declare the one fixed payload length, so the
/// mark can never be confused with a valid frame.
pub const SEAL_MARK: u32 = 0xFFFF_FFFF;
/// Default segment-roll threshold (`--segment-bytes`).
pub const DEFAULT_SEGMENT_BYTES: u64 = 4 * 1024 * 1024;

/// Bytes in one record's payload: seq (8) + clip (4) + chunk (4) + op (1).
/// Version 1 of the log had no chunk field (13-byte payloads); those
/// records are rejected by name, never reinterpreted.
const RECORD_PAYLOAD_BYTES: usize = 17;
/// The version-1 payload layout (seq + clip + op, no chunk), kept only
/// so the rejection message can name what it found.
const V1_RECORD_PAYLOAD_BYTES: usize = 13;
/// Bytes in one record's frame header: length (4) + CRC (4).
const FRAME_HEADER_BYTES: usize = 8;

/// How long a group-commit leader sleeps per poll while it waits for
/// more riders. Fixed (not a fraction of the window) so a larger
/// window never adds latency once the queue quiesces.
const COMMIT_SLICE: Duration = Duration::from_micros(50);

/// CRC-32 (IEEE 802.3, reflected 0xEDB88320) over `bytes` — the same
/// polynomial zlib and ethernet use, hand-rolled because the offline
/// build vendors no checksum crate.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(bytes);
    crc.finish()
}

/// The reflected CRC-32 polynomial.
const CRC_POLY: u32 = 0xEDB8_8320;

/// Slicing-by-8 lookup tables: `CRC_TABLES[0][b]` is the CRC of byte
/// `b` alone, and `CRC_TABLES[k][b]` is that value pushed through `k`
/// further zero bytes, so eight input bytes fold in with eight lookups.
static CRC_TABLES: [[u32; 256]; 8] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (CRC_POLY & (crc & 1).wrapping_neg());
            bit += 1;
        }
        tables[0][b] = crc;
        b += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut b = 0;
        while b < 256 {
            let prev = tables[k - 1][b];
            tables[k][b] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            b += 1;
        }
        k += 1;
    }
    tables
}

/// Streaming CRC-32, so frames can be checked without copying the
/// length prefix and payload into one buffer, and the active segment
/// can keep a running digest for its eventual seal footer.
#[derive(Clone)]
struct Crc32(u32);

impl Crc32 {
    fn new() -> Self {
        Crc32(0xFFFF_FFFF)
    }

    fn update(&mut self, bytes: &[u8]) {
        let t = &CRC_TABLES;
        let mut crc = self.0;
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
            crc = t[7][(lo & 0xFF) as usize]
                ^ t[6][(lo >> 8 & 0xFF) as usize]
                ^ t[5][(lo >> 16 & 0xFF) as usize]
                ^ t[4][(lo >> 24) as usize]
                ^ t[3][w[4] as usize]
                ^ t[2][w[5] as usize]
                ^ t[1][w[6] as usize]
                ^ t[0][w[7] as usize];
        }
        for &b in words.remainder() {
            crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        self.0 = crc;
    }

    fn finish(self) -> u32 {
        !self.0
    }
}

/// The file name of WAL segment `no` (1-based): `wal.000001.log`, …
pub fn segment_file_name(no: u64) -> String {
    format!("wal.{no:06}.log")
}

/// Parse a segment number back out of a `wal.NNNNNN.log` file name.
fn parse_segment_no(name: &str) -> Option<u64> {
    let digits = name.strip_prefix("wal.")?.strip_suffix(".log")?;
    if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

/// The 24-byte header opening segment `no`: magic, [`WAL_VERSION`],
/// and the segment's own number (so a renamed or copied file is loud).
pub fn segment_header(no: u64) -> [u8; SEGMENT_HEADER_BYTES] {
    let mut h = [0u8; SEGMENT_HEADER_BYTES];
    h[..8].copy_from_slice(&SEGMENT_MAGIC);
    h[8..16].copy_from_slice(&WAL_VERSION.to_le_bytes());
    h[16..24].copy_from_slice(&no.to_le_bytes());
    h
}

/// The 16-byte seal footer for a segment whose on-disk bytes (header
/// plus frames) are `segment`: `SEAL_MARK ‖ last_seq ‖ crc`, with the
/// CRC taken over every preceding byte *including* the mark and seq —
/// one flipped bit anywhere in a sealed segment fails the check.
pub fn seal_footer(segment: &[u8], last_seq: u64) -> [u8; SEGMENT_FOOTER_BYTES] {
    let mut crc = Crc32::new();
    crc.update(segment);
    footer_after(crc, last_seq)
}

/// The seal footer naming `last_seq`, given the running CRC over every
/// byte of the segment before it.
fn footer_after(mut crc: Crc32, last_seq: u64) -> [u8; SEGMENT_FOOTER_BYTES] {
    let mut f = [0u8; SEGMENT_FOOTER_BYTES];
    f[..4].copy_from_slice(&SEAL_MARK.to_le_bytes());
    f[4..12].copy_from_slice(&last_seq.to_le_bytes());
    crc.update(&f[..12]);
    f[12..].copy_from_slice(&crc.finish().to_le_bytes());
    f
}

/// What a logged access did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WalOp {
    /// A counted request (`Shard::get`): replay records hit statistics.
    Get,
    /// An uncounted warm-up (`Shard::admit`): replay touches the cache
    /// but not the statistics.
    Admit,
    /// A chunk-granular residency probe (`Shard::get_range`): the
    /// record's `chunk` field is meaningful; replay is a state no-op.
    GetRange,
}

impl WalOp {
    fn to_byte(self) -> u8 {
        match self {
            WalOp::Get => 0,
            WalOp::Admit => 1,
            WalOp::GetRange => 2,
        }
    }

    fn from_byte(b: u8) -> Result<Self, String> {
        match b {
            0 => Ok(WalOp::Get),
            1 => Ok(WalOp::Admit),
            2 => Ok(WalOp::GetRange),
            other => Err(format!("unknown WAL op byte {other}")),
        }
    }
}

/// One logged access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WalRecord {
    /// Position in the shard's access stream (1-based, contiguous).
    pub seq: u64,
    /// The clip accessed.
    pub clip: ClipId,
    /// The probed chunk for [`WalOp::GetRange`]; 0 for whole-clip ops
    /// (and enforced 0 on decode, so a flipped bit is loud).
    pub chunk: u32,
    /// Whether the access was counted.
    pub op: WalOp,
}

impl WalRecord {
    /// Encode the record as one framed WAL entry:
    /// `len(4 LE) ‖ crc(4 LE) ‖ payload`, CRC over `len ‖ payload`.
    /// Every frame has the same 25 bytes, so it is returned by value.
    pub fn encode(&self) -> [u8; FRAME_BYTES] {
        let mut frame = [0u8; FRAME_BYTES];
        let (header, payload) = frame.split_at_mut(FRAME_HEADER_BYTES);
        payload[..8].copy_from_slice(&self.seq.to_le_bytes());
        payload[8..12].copy_from_slice(&self.clip.get().to_le_bytes());
        payload[12..16].copy_from_slice(&self.chunk.to_le_bytes());
        payload[16] = self.op.to_byte();
        let len = (RECORD_PAYLOAD_BYTES as u32).to_le_bytes();
        let mut crc = Crc32::new();
        crc.update(&len);
        crc.update(payload);
        header[..4].copy_from_slice(&len);
        header[4..].copy_from_slice(&crc.finish().to_le_bytes());
        frame
    }
}

/// One step of frame decoding.
enum FrameStep {
    /// A complete, valid record; the second field is the frame's length.
    Record(WalRecord, usize),
    /// The bytes end mid-frame: a torn write, not corruption.
    Torn,
}

/// Decode the frame at the start of `bytes`, validating length, CRC and
/// payload invariants. A corruption error names the offset 0; the
/// caller shifts it to the frame's place in the segment.
fn decode_frame(bytes: &[u8]) -> Result<FrameStep, PersistError> {
    let remaining = bytes.len();
    if remaining < 4 {
        return Ok(FrameStep::Torn);
    }
    let len_bytes = &bytes[..4];
    let len = u32::from_le_bytes(len_bytes.try_into().expect("4 bytes")) as usize;
    // The length field is the first thing an append writes, so a torn
    // write can truncate it but never leave it complete-and-wrong.
    // Records are fixed-size, so a complete length that is not the
    // one layout is corruption — trusting it would let a flipped bit
    // masquerade the rest of the log as a "torn tail" and silently
    // truncate valid frames after it.
    if len == V1_RECORD_PAYLOAD_BYTES {
        // A version-1 log (13-byte payloads: seq + clip + op, no
        // chunk field). Reinterpreting it under the version-2
        // layout would shear every field, so refuse by name.
        return Err(PersistError::Corrupt {
            offset: 0,
            reason: format!(
                "WAL record uses the version-1 {V1_RECORD_PAYLOAD_BYTES}-byte \
                 whole-clip layout; this build reads only the version-2 \
                 {RECORD_PAYLOAD_BYTES}-byte chunk-aware layout — delete the \
                 old data directory (or replay it with a version-1 build) \
                 instead of mixing formats"
            ),
        });
    }
    if len != RECORD_PAYLOAD_BYTES {
        return Err(PersistError::Corrupt {
            offset: 0,
            reason: format!(
                "WAL record length {len} is not the fixed \
                 {RECORD_PAYLOAD_BYTES}-byte layout"
            ),
        });
    }
    if remaining < FRAME_HEADER_BYTES || remaining - FRAME_HEADER_BYTES < len {
        // The frame promises more bytes than the file holds: an
        // append died mid-write.
        return Ok(FrameStep::Torn);
    }
    let stored_crc = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes"));
    let payload = &bytes[FRAME_HEADER_BYTES..FRAME_HEADER_BYTES + len];
    let mut crc = Crc32::new();
    crc.update(len_bytes);
    crc.update(payload);
    if crc.finish() != stored_crc {
        return Err(PersistError::Corrupt {
            offset: 0,
            reason: "WAL record CRC mismatch".into(),
        });
    }
    let seq = u64::from_le_bytes(payload[..8].try_into().expect("8 bytes"));
    let clip = u32::from_le_bytes(payload[8..12].try_into().expect("4 bytes"));
    if clip == 0 {
        return Err(PersistError::Corrupt {
            offset: 0,
            reason: "WAL record names clip id 0".into(),
        });
    }
    let chunk = u32::from_le_bytes(payload[12..16].try_into().expect("4 bytes"));
    let op = WalOp::from_byte(payload[16])
        .map_err(|reason| PersistError::Corrupt { offset: 0, reason })?;
    if op != WalOp::GetRange && chunk != 0 {
        return Err(PersistError::Corrupt {
            offset: 0,
            reason: format!(
                "whole-clip WAL record carries nonzero chunk {chunk} (only \
                 GETRANGE records address chunks)"
            ),
        });
    }
    Ok(FrameStep::Record(
        WalRecord {
            seq,
            clip: ClipId::new(clip),
            chunk,
            op,
        },
        FRAME_HEADER_BYTES + len,
    ))
}

/// How [`decode_segment`] found the end of a segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SegmentEnd {
    /// No seal footer, and the segment ends exactly on a frame
    /// boundary: it is (or was) the active one.
    Clean,
    /// No seal footer, and the segment ends mid-write — a crash
    /// interrupted an append, a seal or even the header. The partial
    /// bytes are never replayed; `valid_bytes` shorter than the header
    /// means the header itself never finished (a crash during segment
    /// creation) or never reached the disk: 24 zero bytes, which a
    /// power loss before the segment's first fsync leaves. Then
    /// `dropped_bytes` runs through the last non-zero byte of the file.
    Torn {
        /// Bytes of the header plus complete, valid frames: where the
        /// segment is truncated.
        valid_bytes: u64,
        /// Trailing bytes the truncation discards.
        dropped_bytes: u64,
    },
    /// No seal footer, and the records end at a zero length field: a
    /// segment whose mapped tail was never trimmed — its process was
    /// killed, or the machine went down, before a seal,
    /// a retirement or a clean close. Only zeros follow, except the
    /// one frame body a killed process may have been publishing; any
    /// other non-zero byte after the zero length is corruption.
    ZeroTail {
        /// Bytes of the header plus complete, valid frames: where the
        /// segment is trimmed.
        valid_bytes: u64,
        /// Bytes of the unpublished frame, through its last non-zero
        /// byte (0 when only zeros follow the records).
        dropped_bytes: u64,
    },
    /// A valid seal footer: the segment is immutable and fully durable.
    Sealed {
        /// The sequence number the footer names as the segment's last.
        last_seq: u64,
    },
}

/// Decode one on-disk segment (header, frames, optional seal footer).
///
/// `no` is the number the file name claims; the header must agree.
/// Torn artifacts (short header, mid-frame tail, partial footer) come
/// back as [`SegmentEnd::Torn`], and a segment whose records end at a
/// zero length as [`SegmentEnd::ZeroTail`], for the caller to
/// truncate — only ever legitimate on the *newest* segment. An
/// *incomplete* final frame is torn; a complete frame whose length
/// prefix is not the fixed record layout, whose CRC fails, or that
/// breaks anything else is loud corruption, so no valid frame is ever
/// silently discarded as a torn tail. So is a non-zero byte after a
/// zero length and the one frame body behind it, and a single flipped
/// bit anywhere in a sealed segment (the footer CRC covers every
/// byte).
pub fn decode_segment(bytes: &[u8], no: u64) -> Result<(Vec<WalRecord>, SegmentEnd), PersistError> {
    let mut records = Vec::new();
    let mut buf = vec![0u8; SCAN_BUF_BYTES];
    let scan = scan_segment(bytes, no, &mut buf, |r| {
        records.push(r);
        Ok(())
    })?;
    Ok((records, scan.end))
}

/// Bytes of a segment a scan holds in memory at once.
const SCAN_BUF_BYTES: usize = 64 * 1024;

/// Bytes in one complete record frame.
const FRAME_BYTES: usize = FRAME_HEADER_BYTES + RECORD_PAYLOAD_BYTES;

/// A forward-only window over a segment file, at most one buffer of it
/// in memory at a time.
struct Window<'a, R> {
    src: R,
    buf: &'a mut [u8],
    start: usize,
    end: usize,
    /// Absolute file offset of `buf[start]`.
    offset: u64,
    eof: bool,
}

impl<'a, R: Read> Window<'a, R> {
    fn new(src: R, buf: &'a mut [u8]) -> Self {
        Window {
            src,
            buf,
            start: 0,
            end: 0,
            offset: 0,
            eof: false,
        }
    }

    /// The buffered bytes from [`offset`](Self::offset) on: at least
    /// `want` of them unless the file ends first.
    fn fill(&mut self, want: usize) -> std::io::Result<&[u8]> {
        if self.end - self.start < want && !self.eof {
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
            while self.end < want {
                match self.src.read(&mut self.buf[self.end..]) {
                    Ok(0) => {
                        self.eof = true;
                        break;
                    }
                    Ok(n) => self.end += n,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(e) => return Err(e),
                }
            }
        }
        Ok(&self.buf[self.start..self.end])
    }

    fn consume(&mut self, n: usize) {
        self.start += n;
        self.offset += n as u64;
    }
}

/// What a streaming scan of one segment found.
struct SegmentScan {
    end: SegmentEnd,
    /// Records in the segment.
    records: u64,
    /// Sequence number of its last record (0 if none).
    last_seq: u64,
    /// Bytes of header plus complete frames (where a torn tail is cut).
    valid_len: u64,
    /// CRC over those `valid_len` bytes — the running
    /// digest an active segment resumes appending from.
    crc: Crc32,
}

/// Stream segment `no` from `src` through `buf`, handing each valid
/// record to `on_record` in order; the validation (and every error
/// message and absolute offset) is [`decode_segment`]'s.
fn scan_segment(
    src: impl Read,
    no: u64,
    buf: &mut [u8],
    mut on_record: impl FnMut(WalRecord) -> Result<(), PersistError>,
) -> Result<SegmentScan, PersistError> {
    let mut w = Window::new(src, buf);
    let mut crc = Crc32::new();
    let header = w.fill(SEGMENT_HEADER_BYTES)?;
    if header.len() < SEGMENT_HEADER_BYTES {
        // The segment was created but its header never finished: a
        // crash artifact, only tolerable on the newest segment.
        return Ok(SegmentScan {
            end: SegmentEnd::Torn {
                valid_bytes: 0,
                dropped_bytes: header.len() as u64,
            },
            records: 0,
            last_seq: 0,
            valid_len: 0,
            crc,
        });
    }
    if header[..SEGMENT_HEADER_BYTES] == [0; SEGMENT_HEADER_BYTES] {
        // The header never reached the disk: nothing fsyncs a new
        // segment's header until its first group commit or its seal,
        // so a power loss can keep the file without its bytes. Only
        // tolerable on the newest segment, which then never held a
        // durable record; whatever follows is dropped and counted.
        let mut dropped = 0;
        loop {
            let at = w.offset;
            let rest = w.fill(1)?;
            if rest.is_empty() {
                break;
            }
            if let Some(i) = rest.iter().rposition(|&b| b != 0) {
                dropped = at + i as u64 + 1;
            }
            let n = rest.len();
            w.consume(n);
        }
        return Ok(SegmentScan {
            end: SegmentEnd::Torn {
                valid_bytes: 0,
                dropped_bytes: dropped,
            },
            records: 0,
            last_seq: 0,
            valid_len: 0,
            crc,
        });
    }
    if header[..8] != SEGMENT_MAGIC {
        return Err(PersistError::Corrupt {
            offset: 0,
            reason: "segment header magic mismatch (not a clipcache WAL segment)".into(),
        });
    }
    let version = u64::from_le_bytes(header[8..16].try_into().expect("8 bytes"));
    if version != WAL_VERSION {
        return Err(PersistError::Corrupt {
            offset: 8,
            reason: format!(
                "segment header names WAL version {version}; this build reads \
                 only version {WAL_VERSION} (which added chunk-granular \
                 records) — replay the log with the build that wrote it \
                 instead of mixing formats"
            ),
        });
    }
    let header_no = u64::from_le_bytes(header[16..24].try_into().expect("8 bytes"));
    if header_no != no {
        return Err(PersistError::Corrupt {
            offset: 16,
            reason: format!(
                "segment header names segment {header_no} but the file is \
                 named {} — renamed or copied?",
                segment_file_name(no)
            ),
        });
    }
    crc.update(&header[..SEGMENT_HEADER_BYTES]);
    w.consume(SEGMENT_HEADER_BYTES);
    let (mut records, mut last_seq) = (0u64, 0u64);
    loop {
        let pos = w.offset;
        let bytes = w.fill(FRAME_BYTES)?;
        let remaining = bytes.len();
        let torn = SegmentEnd::Torn {
            valid_bytes: pos,
            dropped_bytes: remaining as u64,
        };
        if remaining == 0 {
            return Ok(SegmentScan {
                end: SegmentEnd::Clean,
                records,
                last_seq,
                valid_len: pos,
                crc,
            });
        }
        if remaining >= 4
            && u32::from_le_bytes(bytes[..4].try_into().expect("4 bytes")) == SEAL_MARK
        {
            if remaining < SEGMENT_FOOTER_BYTES {
                // The seal itself tore: the records before it are fine,
                // the segment simply stays unsealed.
                return Ok(SegmentScan {
                    end: torn,
                    records,
                    last_seq,
                    valid_len: pos,
                    crc,
                });
            }
            let footer_seq = u64::from_le_bytes(bytes[4..12].try_into().expect("8"));
            let stored = u32::from_le_bytes(bytes[12..16].try_into().expect("4"));
            let mut check = crc.clone();
            check.update(&bytes[..12]);
            if check.finish() != stored {
                return Err(PersistError::Corrupt {
                    offset: pos,
                    reason: "sealed segment CRC mismatch (a bit flipped somewhere \
                             in the segment)"
                        .into(),
                });
            }
            if records == 0 {
                return Err(PersistError::Corrupt {
                    offset: pos,
                    reason: "sealed segment holds no records".into(),
                });
            }
            if last_seq != footer_seq {
                return Err(PersistError::Corrupt {
                    offset: pos,
                    reason: format!(
                        "seal footer names last seq {footer_seq} but the \
                         segment ends at seq {last_seq}"
                    ),
                });
            }
            let trailing = remaining > SEGMENT_FOOTER_BYTES;
            w.consume(SEGMENT_FOOTER_BYTES);
            if trailing || !w.fill(1)?.is_empty() {
                return Err(PersistError::Corrupt {
                    offset: pos + SEGMENT_FOOTER_BYTES as u64,
                    reason: "bytes after the seal footer".into(),
                });
            }
            return Ok(SegmentScan {
                end: SegmentEnd::Sealed { last_seq },
                records,
                last_seq,
                valid_len: pos + SEGMENT_FOOTER_BYTES as u64,
                crc,
            });
        }
        if remaining >= 4 && bytes[..4] == [0; 4] {
            // The end of a mapped tail: a frame's length is published
            // last, so at most the one body behind it was being written
            // and only the zero-filled reservation follows.
            let body = &bytes[4..remaining.min(FRAME_BYTES)];
            let dropped = body.iter().rposition(|&b| b != 0).map_or(0, |i| i + 5);
            w.consume(remaining.min(FRAME_BYTES));
            loop {
                let rest = w.fill(1)?;
                if rest.is_empty() {
                    break;
                }
                if let Some(i) = rest.iter().position(|&b| b != 0) {
                    return Err(PersistError::Corrupt {
                        offset: w.offset + i as u64,
                        reason: format!(
                            "non-zero byte after the zero length at byte {pos} \
                             that ends the segment's records"
                        ),
                    });
                }
                let n = rest.len();
                w.consume(n);
            }
            return Ok(SegmentScan {
                end: SegmentEnd::ZeroTail {
                    valid_bytes: pos,
                    dropped_bytes: dropped as u64,
                },
                records,
                last_seq,
                valid_len: pos,
                crc,
            });
        }
        // The window holds a whole frame unless the file ends first,
        // so a short frame here is a genuine torn tail.
        match decode_frame(bytes).map_err(|e| match e {
            PersistError::Corrupt { offset, reason } => PersistError::Corrupt {
                offset: pos + offset,
                reason,
            },
            other => other,
        })? {
            FrameStep::Record(record, next) => {
                crc.update(&bytes[..next]);
                w.consume(next);
                on_record(record)?;
                records += 1;
                last_seq = record.seq;
            }
            FrameStep::Torn => {
                return Ok(SegmentScan {
                    end: torn,
                    records,
                    last_seq,
                    valid_len: pos,
                    crc,
                })
            }
        }
    }
}

/// When appends reach the platter.
///
/// Either way every logged request's frame is staged in its shard's
/// store and reaches the *operating system* before its reply is sent,
/// committed into the active segment's mapped tail once per shard per
/// batch of requests (an event-loop batch, or a single in-process
/// request), so the log survives a killed process (`kill -9`); the
/// difference is whether it also survives a power failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WalSync {
    /// `fsync` before a request is acknowledged: survives power loss.
    /// Each committed batch of frames is fsynced once, and batches
    /// that commit while an fsync runs (or within the commit window)
    /// share the next one. Creating a segment fsyncs the directory, so
    /// its name is durable before its first record is acknowledged.
    Always,
    /// Flush to the OS page cache only (the default): survives process
    /// death, trusts the kernel for power loss. Checkpoints and seal
    /// footers still fsync, and the directory is fsynced right after
    /// each seal so a sealed segment's name is durable before its
    /// successor exists; creating a segment fsyncs nothing.
    #[default]
    Off,
}

impl WalSync {
    /// Parse a `--wal-sync` value.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "always" => Ok(WalSync::Always),
            "off" => Ok(WalSync::Off),
            other => Err(format!(
                "unknown --wal-sync '{other}' (expected always or off)"
            )),
        }
    }

    /// The canonical flag spelling.
    pub fn spelling(self) -> &'static str {
        match self {
            WalSync::Always => "always",
            WalSync::Off => "off",
        }
    }
}

/// A deterministic crash point: where the process dies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CrashPoint {
    /// Die immediately after the Nth WAL append is durable (1-based).
    AfterAppend(u64),
    /// The Nth WAL append writes only half its frame, then the process
    /// dies — the canonical torn write.
    TornAppend(u64),
    /// Die midway through writing the Nth durable checkpoint: half its
    /// frame reaches the slot not holding the newest checkpoint.
    MidCheckpoint(u64),
    /// The Nth seal writes only half its footer, then the process dies.
    /// Recovery truncates the partial footer; the segment stays active.
    TornSeal(u64),
    /// Die after the Nth seal footer is durable but before the
    /// successor segment is created — a crash in the roll window.
    /// Recovery finds the newest segment sealed and opens a successor.
    SegmentRoll(u64),
}

/// A parsed `--crash-at` spec. Counters start at zero when the store is
/// armed (after recovery), so a crash-restart loop steps forward
/// deterministically instead of re-dying at the same byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CrashSpec {
    /// Where to die.
    pub point: CrashPoint,
}

impl CrashSpec {
    /// Parse `append:N`, `torn:N`, `checkpoint:N`, `seal:N` or
    /// `segment-roll:N` (N ≥ 1).
    pub fn parse(spec: &str) -> Result<Self, String> {
        let (kind, n) = spec
            .split_once(':')
            .ok_or_else(|| format!("crash spec '{spec}' is not kind:N"))?;
        let n: u64 = n
            .parse()
            .map_err(|_| format!("bad crash count '{n}' in '{spec}'"))?;
        if n == 0 {
            return Err("crash counts are 1-based; 0 never fires".into());
        }
        let point = match kind {
            "append" => CrashPoint::AfterAppend(n),
            "torn" => CrashPoint::TornAppend(n),
            "checkpoint" => CrashPoint::MidCheckpoint(n),
            "seal" => CrashPoint::TornSeal(n),
            "segment-roll" => CrashPoint::SegmentRoll(n),
            other => {
                return Err(format!(
                    "unknown crash point '{other}' (expected append, torn, \
                     checkpoint, seal or segment-roll)"
                ))
            }
        };
        Ok(CrashSpec { point })
    }

    /// The canonical spec spelling ([`parse`](Self::parse) inverts it).
    pub fn spelling(&self) -> String {
        match self.point {
            CrashPoint::AfterAppend(n) => format!("append:{n}"),
            CrashPoint::TornAppend(n) => format!("torn:{n}"),
            CrashPoint::MidCheckpoint(n) => format!("checkpoint:{n}"),
            CrashPoint::TornSeal(n) => format!("seal:{n}"),
            CrashPoint::SegmentRoll(n) => format!("segment-roll:{n}"),
        }
    }
}

/// What the service does when an armed crash point fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashAction {
    /// Exit the whole process with code 137 — the same observable as
    /// `kill -9`, for the binaries (`--crash-at`).
    ExitProcess,
    /// Surface [`ServiceError::Crashed`](crate::ServiceError::Crashed)
    /// to the caller, for in-process crash-restart harnesses.
    Surface,
}

/// Tuning knobs for the segmented WAL.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalTuning {
    /// Roll to a fresh segment once the active one reaches this many
    /// bytes (`--segment-bytes`).
    pub segment_bytes: u64,
    /// How long a group-commit leader waits for more writers before
    /// its fsync under [`WalSync::Always`] (`--commit-window-us`);
    /// zero means it fsyncs at once.
    pub commit_window: Duration,
}

impl Default for WalTuning {
    fn default() -> Self {
        WalTuning {
            segment_bytes: DEFAULT_SEGMENT_BYTES,
            commit_window: Duration::ZERO,
        }
    }
}

/// How a service persists its shards (`CacheService::open_persistent`).
#[derive(Debug, Clone)]
pub struct PersistOptions {
    /// Root data directory; shard `i` lives in `shard-i/` beneath it.
    pub dir: PathBuf,
    /// WAL fsync policy.
    pub sync: WalSync,
    /// Deterministic crash point to arm on every shard (each counts its
    /// own operations), or `None` for normal operation.
    pub crash: Option<CrashSpec>,
    /// What a fired crash point does.
    pub on_crash: CrashAction,
    /// Segment size and commit-window tuning.
    pub tuning: WalTuning,
}

impl PersistOptions {
    /// Plain persistence in `dir`: default sync and tuning, no crash
    /// point, crashes (if somehow armed later) surfaced to the caller.
    pub fn at(dir: impl Into<PathBuf>) -> Self {
        PersistOptions {
            dir: dir.into(),
            sync: WalSync::default(),
            crash: None,
            on_crash: CrashAction::Surface,
            tuning: WalTuning::default(),
        }
    }
}

/// What recovery found and did, summed over shards.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// WAL records replayed through the access path.
    pub replayed: u64,
    /// Torn-tail bytes truncated away.
    pub torn_bytes_dropped: u64,
    /// Shards that had a durable checkpoint to restore.
    pub checkpoints_loaded: usize,
}

/// Everything that can go wrong beneath a durable shard.
#[derive(Debug)]
pub enum PersistError {
    /// The filesystem said no.
    Io(std::io::Error),
    /// A complete WAL frame failed validation: bit rot, never a crash
    /// artifact. Recovery refuses rather than replaying garbage.
    Corrupt {
        /// Byte offset of the offending frame.
        offset: u64,
        /// What failed.
        reason: String,
    },
    /// The checkpoint cannot be trusted (bad version, missing fields,
    /// policy mismatch with the running config), or both checkpoint
    /// slots fail their frame checks.
    BadCheckpoint(String),
    /// The recovered snapshot could not rebuild a cache.
    Build(String),
    /// An armed [`CrashSpec`] fired. The binaries turn this into
    /// `process::exit(137)`; in-process harnesses treat the store as
    /// dead and recover from disk.
    CrashInjected,
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "persistence I/O error: {e}"),
            PersistError::Corrupt { offset, reason } => {
                write!(f, "WAL corrupt at byte {offset}: {reason}")
            }
            PersistError::BadCheckpoint(reason) => write!(f, "bad checkpoint: {reason}"),
            PersistError::Build(reason) => write!(f, "cannot rebuild cache: {reason}"),
            PersistError::CrashInjected => write!(f, "injected crash point fired"),
        }
    }
}

impl std::error::Error for PersistError {}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        PersistError::Io(e)
    }
}

/// The durable anchor a shard rebuilds from: its snapshot, the hit
/// statistics at that instant, and the WAL sequence number the pair
/// covers (records with larger sequence numbers replay on top).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DurableCheckpoint {
    /// The shard's cache snapshot.
    pub snapshot: CacheSnapshot,
    /// Hit statistics at checkpoint time.
    pub stats: HitStats,
    /// The last WAL sequence number folded into this checkpoint.
    pub seq: u64,
}

impl DurableCheckpoint {
    /// Serialize to the on-disk JSON form. The snapshot is embedded as a
    /// nested object (carrying its own schema version).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"version\":{},\"seq\":{},\"hits\":{},\"misses\":{},\"prefix_hits\":{},\
             \"byte_hits\":{},\"byte_misses\":{},\"evictions\":{},\"snapshot\":{}}}",
            CHECKPOINT_VERSION,
            self.seq,
            self.stats.hits,
            self.stats.misses,
            self.stats.prefix_hits,
            self.stats.byte_hits.as_u64(),
            self.stats.byte_misses.as_u64(),
            self.stats.evictions,
            self.snapshot.to_json()
        )
    }

    /// Deserialize from the [`to_json`](Self::to_json) shape, rejecting
    /// unknown versions loudly.
    pub fn from_json(json: &str) -> Result<Self, String> {
        let v = clipcache_workload::json::parse(json)?;
        let version = v
            .get("version")
            .and_then(|n| n.as_u64())
            .ok_or("checkpoint needs an integer `version`")?;
        if version != CHECKPOINT_VERSION {
            return Err(format!(
                "checkpoint version {version} is not supported (this build reads \
                 version {CHECKPOINT_VERSION}, which added chunk-granular residency \
                 and the prefix_hits counter; version 1 checkpoints are whole-clip); \
                 refusing to restore"
            ));
        }
        let field = |name: &str| {
            v.get(name)
                .and_then(|n| n.as_u64())
                .ok_or_else(|| format!("checkpoint needs an integer `{name}`"))
        };
        let stats = HitStats {
            hits: field("hits")?,
            misses: field("misses")?,
            prefix_hits: field("prefix_hits")?,
            byte_hits: ByteSize::bytes(field("byte_hits")?),
            byte_misses: ByteSize::bytes(field("byte_misses")?),
            evictions: field("evictions")?,
        };
        let snapshot = CacheSnapshot::from_value(
            v.get("snapshot")
                .ok_or("checkpoint needs a `snapshot` object")?,
        )?;
        Ok(DurableCheckpoint {
            snapshot,
            stats,
            seq: field("seq")?,
        })
    }
}

/// What [`ShardStore::open`] found on disk.
#[derive(Debug)]
pub struct DurableState {
    /// The newest valid checkpoint, if one was ever written.
    pub checkpoint: Option<DurableCheckpoint>,
    /// WAL records after the checkpoint, in append order, sequence-
    /// contiguous across all segments.
    pub records: Vec<WalRecord>,
    /// Bytes of torn tail truncated away during open (0 for a clean log).
    pub torn_bytes_dropped: u64,
    /// WAL records the checkpoint already subsumed (seq ≤ checkpoint
    /// seq), counted and skipped rather than replayed — nonzero after a
    /// running service stopped with a checkpoint not yet retired, or
    /// after a crash between a checkpoint landing and its retirement.
    pub subsumed_records: u64,
}

/// Shared state of one shard's group-commit queue.
struct CommitState {
    /// Highest sequence number written (flushed to the OS).
    written: u64,
    /// Highest sequence number known durable (fsynced, sealed, or
    /// folded into a durable checkpoint).
    durable: u64,
    /// A rider is currently running the batched fsync.
    leader: bool,
    /// Bumped by a rewind: tickets from earlier epochs error out, since
    /// their sequence numbers may be reissued after the rewind.
    epoch: u64,
    /// A batched fsync failed (or the store was killed): nothing more
    /// will become durable, pending riders must not hang.
    poisoned: bool,
    /// The active segment's file handle — what the leader fsyncs. Every
    /// written-but-unsynced record lives either here or in an
    /// already-sealed (already-durable) segment, so one `sync_data`
    /// covers the whole batch.
    file: Arc<File>,
}

/// A per-shard group-commit queue: appends note their writes under the
/// shard lock, then wait for durability *outside* it so concurrent
/// appends can ride one batched fsync.
struct CommitQueue {
    window: Duration,
    state: Mutex<CommitState>,
    cv: Condvar,
    /// The store's fsync ledger, which the leader's fsync goes through.
    ledger: Arc<SyncLedger>,
}

impl CommitQueue {
    fn new(
        window: Duration,
        durable_through: u64,
        file: Arc<File>,
        ledger: Arc<SyncLedger>,
    ) -> Arc<CommitQueue> {
        Arc::new(CommitQueue {
            window,
            ledger,
            state: Mutex::new(CommitState {
                written: durable_through,
                durable: durable_through,
                leader: false,
                epoch: 0,
                poisoned: false,
                file,
            }),
            cv: Condvar::new(),
        })
    }

    /// Lock the state, recovering from a poisoned mutex (the data is a
    /// handful of counters, always internally consistent).
    fn lock(&self) -> MutexGuard<'_, CommitState> {
        match self.state.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        }
    }

    /// Record that `seq` is written, returning the epoch its ticket
    /// belongs to.
    fn note_write(&self, seq: u64) -> u64 {
        let mut st = self.lock();
        st.written = st.written.max(seq);
        st.epoch
    }

    fn note_durable(&self, seq: u64) {
        let mut st = self.lock();
        st.durable = st.durable.max(seq);
        drop(st);
        self.cv.notify_all();
    }

    fn swap_file(&self, file: Arc<File>) {
        self.lock().file = file;
    }

    /// A rewind discarded every record after `reset_to`: error out
    /// pending riders (their sequence numbers will be reissued) and
    /// restart the counters.
    fn rewound(&self, reset_to: u64) {
        let mut st = self.lock();
        st.epoch += 1;
        st.written = reset_to;
        st.durable = reset_to;
        drop(st);
        self.cv.notify_all();
    }

    /// Nothing more will become durable: wake every pending rider with
    /// an error instead of letting them hang.
    fn poison(&self) {
        self.lock().poisoned = true;
        self.cv.notify_all();
    }

    /// Block until `seq` (from `epoch`) is durable. The first
    /// non-durable waiter becomes the leader: it gives later writers up
    /// to the commit window to pile in — leaving early once a poll
    /// slice passes with no new writes, at once for a zero window —
    /// then issues one fsync for everything written so far.
    fn wait_durable(&self, epoch: u64, seq: u64) -> Result<(), PersistError> {
        let mut st = self.lock();
        loop {
            if st.epoch != epoch {
                return Err(PersistError::Io(std::io::Error::other(
                    "append discarded by a rewind before its batched fsync landed",
                )));
            }
            if st.durable >= seq {
                return Ok(());
            }
            if st.poisoned {
                return Err(PersistError::Io(std::io::Error::other(
                    "commit queue poisoned: a batched fsync failed or the store died",
                )));
            }
            if st.leader {
                st = match self.cv.wait(st) {
                    Ok(g) => g,
                    Err(p) => p.into_inner(),
                };
                continue;
            }
            st.leader = true;
            let deadline = Instant::now() + self.window;
            loop {
                let seen = st.written;
                let now = Instant::now();
                if now >= deadline {
                    break;
                }
                drop(st);
                std::thread::sleep(COMMIT_SLICE.min(deadline - now));
                st = self.lock();
                if st.written == seen || st.epoch != epoch {
                    // The batch quiesced (or the world changed under
                    // us): fsync now, don't burn the rest of the window.
                    break;
                }
            }
            let target = st.written;
            let file = Arc::clone(&st.file);
            drop(st);
            let synced = self.ledger.fdatasync(&file);
            st = self.lock();
            st.leader = false;
            match synced {
                Ok(()) => {
                    if st.epoch == epoch {
                        st.durable = st.durable.max(target);
                    }
                }
                Err(_) => st.poisoned = true,
            }
            self.cv.notify_all();
        }
    }
}

/// A claim check for a commit under [`WalSync::Always`]:
/// [`wait`](Self::wait) blocks until the committed frames' batched
/// fsync lands (or fails). Wait *after* releasing the shard lock, so
/// concurrent commits can ride the same fsync — waiting under the lock
/// serializes the queue and buys nothing.
pub struct CommitTicket {
    queue: Arc<CommitQueue>,
    epoch: u64,
    seq: u64,
}

impl CommitTicket {
    /// Block until the append this ticket was issued for is durable.
    pub fn wait(self) -> Result<(), PersistError> {
        self.queue.wait_durable(self.epoch, self.seq)
    }
}

/// The fsyncs one store has issued, by kind (see
/// [`ShardStore::fsyncs`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FsyncCount {
    /// `fdatasync`s of a segment or checkpoint slot file.
    pub data: u64,
    /// `fsync`s of the store's directory.
    pub dir: u64,
}

/// Every fsync a store issues goes through one of these two counted
/// helpers, so each has a promise to answer to and a test can pin how
/// many a given operation costs in each sync mode. Shared by the
/// store, its commit queue and its checkpoint slots.
#[derive(Debug, Default)]
struct SyncLedger {
    data: AtomicU64,
    dir: AtomicU64,
}

impl SyncLedger {
    /// `fdatasync` `file`.
    fn fdatasync(&self, file: &File) -> std::io::Result<()> {
        self.data.fetch_add(1, Ordering::Relaxed);
        file.sync_data()
    }

    /// Make `dir`'s entries durable. A directory that cannot be opened
    /// or fsynced is an error, as a failed `fdatasync` is: a name the
    /// caller needs on disk may not be there.
    fn sync_dir(&self, dir: &Path) -> std::io::Result<()> {
        self.dir.fetch_add(1, Ordering::Relaxed);
        File::open(dir)?.sync_all()
    }

    fn count(&self) -> FsyncCount {
        FsyncCount {
            data: self.data.load(Ordering::Relaxed),
            dir: self.dir.load(Ordering::Relaxed),
        }
    }
}

/// What one checkpoint slot file holds.
enum SlotFrame<'a> {
    /// No file, or an empty one: nothing was ever written there.
    Empty,
    /// A frame that passed its magic, length and CRC checks.
    Valid { generation: u64, body: &'a [u8] },
    /// Bytes that fail them — a torn write, unless the other slot is
    /// unreadable too.
    Invalid(String),
}

/// Frame `body` as written into a slot: `CLIPCKPT ‖ generation (8 LE)
/// ‖ length (4 LE) ‖ crc (4 LE) ‖ body`, the CRC over generation,
/// length and body.
fn encode_checkpoint_frame(
    frame: &mut Vec<u8>,
    generation: u64,
    body: &[u8],
) -> Result<(), PersistError> {
    let len = u32::try_from(body.len()).map_err(|_| {
        PersistError::BadCheckpoint(format!(
            "a {}-byte checkpoint does not fit a frame",
            body.len()
        ))
    })?;
    frame.clear();
    frame.extend_from_slice(&CHECKPOINT_MAGIC);
    frame.extend_from_slice(&generation.to_le_bytes());
    frame.extend_from_slice(&len.to_le_bytes());
    let mut crc = Crc32::new();
    crc.update(&frame[8..]);
    crc.update(body);
    frame.extend_from_slice(&crc.finish().to_le_bytes());
    frame.extend_from_slice(body);
    Ok(())
}

/// Decode the frame at the start of a slot file's `bytes`. Bytes past
/// the frame's declared length are a longer, older frame's leftovers.
fn decode_checkpoint_frame(bytes: &[u8]) -> SlotFrame<'_> {
    if bytes.is_empty() {
        return SlotFrame::Empty;
    }
    if bytes.len() < CHECKPOINT_HEADER_BYTES {
        return SlotFrame::Invalid(format!(
            "{} bytes, shorter than the {CHECKPOINT_HEADER_BYTES}-byte frame header",
            bytes.len()
        ));
    }
    if bytes[..8] != CHECKPOINT_MAGIC {
        return SlotFrame::Invalid("frame magic mismatch".into());
    }
    let generation = u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes"));
    let len = u32::from_le_bytes(bytes[16..20].try_into().expect("4 bytes")) as usize;
    let stored = u32::from_le_bytes(bytes[20..24].try_into().expect("4 bytes"));
    let Some(body) = bytes[CHECKPOINT_HEADER_BYTES..].get(..len) else {
        return SlotFrame::Invalid(format!(
            "frame declares a {len}-byte body but only {} bytes follow its header",
            bytes.len() - CHECKPOINT_HEADER_BYTES
        ));
    };
    let mut crc = Crc32::new();
    crc.update(&bytes[8..20]);
    crc.update(body);
    if crc.finish() != stored {
        return SlotFrame::Invalid("frame CRC mismatch".into());
    }
    SlotFrame::Valid { generation, body }
}

/// A shard's two checkpoint slot files. A checkpoint overwrites, in
/// place, the slot *not* holding the newest landed frame — one
/// `pwrite` and one `fdatasync` — so a crash mid-write tears only that
/// slot and the other still holds the newest landed checkpoint. The
/// files only ever grow (a shorter frame leaves a longer one's tail
/// behind, ignored), so in the steady state the `fdatasync` has no
/// metadata to flush. A slot file is created, and the directory
/// fsynced, the first time it is written.
///
/// The store and the submissions it hands the background writer share
/// one instance; only one of them writes at a time, because the store
/// settles the writer before it writes a checkpoint itself.
struct CheckpointSlots {
    dir: PathBuf,
    /// The slot files' handles, `None` until a file exists.
    files: [Option<File>; 2],
    /// The slot holding the newest landed frame, if any landed.
    newest: Option<usize>,
    /// That frame's generation (0 when none landed). The newest frame
    /// is the one with the higher generation, whatever its `seq`, so
    /// the last checkpoint written wins.
    generation: u64,
    /// The frame being written, reused across writes.
    frame: Vec<u8>,
    /// The owning store's fsync ledger.
    ledger: Arc<SyncLedger>,
}

impl CheckpointSlots {
    /// Open `dir`'s slots, returning them with the body of the newest
    /// valid frame. A slot failing its magic, length or CRC is a torn
    /// write and ignored, unless the other slot fails too: then both
    /// are refused as [`PersistError::BadCheckpoint`], never taken for
    /// a cold start.
    fn open(
        dir: &Path,
        ledger: Arc<SyncLedger>,
    ) -> Result<(CheckpointSlots, Option<String>), PersistError> {
        let mut files = [None, None];
        let mut contents = [Vec::new(), Vec::new()];
        for (slot, name) in CHECKPOINT_SLOT_FILES.iter().enumerate() {
            match OpenOptions::new()
                .read(true)
                .write(true)
                .open(dir.join(name))
            {
                Ok(mut file) => {
                    file.read_to_end(&mut contents[slot])?;
                    files[slot] = Some(file);
                }
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                Err(e) => return Err(e.into()),
            }
        }
        let frames = contents
            .each_ref()
            .map(|bytes| decode_checkpoint_frame(bytes));
        let generation_of = |slot: usize| match frames[slot] {
            SlotFrame::Valid { generation, .. } => Some(generation),
            _ => None,
        };
        let newest = match (generation_of(0), generation_of(1)) {
            (Some(a), Some(b)) if a == b => {
                return Err(PersistError::BadCheckpoint(format!(
                    "both checkpoint slots carry generation {a}; refusing to guess \
                     which is newer"
                )))
            }
            (Some(a), Some(b)) => Some(if a > b { 0 } else { 1 }),
            (Some(_), None) => Some(0),
            (None, Some(_)) => Some(1),
            (None, None) => {
                if let [SlotFrame::Invalid(a), SlotFrame::Invalid(b)] = &frames {
                    return Err(PersistError::BadCheckpoint(format!(
                        "both checkpoint slots are unreadable ({}: {a}; {}: {b}); \
                         refusing to start cold over them",
                        CHECKPOINT_SLOT_FILES[0], CHECKPOINT_SLOT_FILES[1]
                    )));
                }
                None
            }
        };
        let (generation, body) = match newest.map(|slot| &frames[slot]) {
            Some(SlotFrame::Valid { generation, body }) => {
                let body = String::from_utf8(body.to_vec()).map_err(|_| {
                    PersistError::BadCheckpoint("checkpoint body is not UTF-8".into())
                })?;
                (*generation, Some(body))
            }
            _ => (0, None),
        };
        let slots = CheckpointSlots {
            dir: dir.to_path_buf(),
            files,
            newest,
            generation,
            frame: Vec::new(),
            ledger,
        };
        Ok((slots, body))
    }

    /// Write `body` as the newest checkpoint: frame it with the next
    /// generation, overwrite the other slot, `fdatasync`. With `crash`
    /// set (the armed `checkpoint:N` point) only half the frame is
    /// written before [`PersistError::CrashInjected`] reports the
    /// death; the newest landed frame is untouched. A failed write
    /// changes nothing this instance believes.
    fn write(&mut self, body: &[u8], crash: bool) -> Result<(), PersistError> {
        let target = self.newest.map_or(0, |slot| 1 - slot);
        let generation = self.generation + 1;
        encode_checkpoint_frame(&mut self.frame, generation, body)?;
        if self.files[target].is_none() {
            let file = OpenOptions::new()
                .read(true)
                .write(true)
                .create(true)
                .truncate(false)
                .open(self.dir.join(CHECKPOINT_SLOT_FILES[target]))?;
            self.ledger.sync_dir(&self.dir)?;
            self.files[target] = Some(file);
        }
        let file = self.files[target].as_ref().expect("opened above");
        let len = if crash {
            self.frame.len() / 2
        } else {
            self.frame.len()
        };
        file.write_all_at(&self.frame[..len], 0)?;
        self.ledger.fdatasync(file)?;
        if crash {
            return Err(PersistError::CrashInjected);
        }
        self.newest = Some(target);
        self.generation = generation;
        Ok(())
    }
}

/// Lock a store's checkpoint slots, recovering from a poisoned mutex
/// (a write updates the slot state only once it has landed).
fn lock_slots(slots: &Mutex<CheckpointSlots>) -> MutexGuard<'_, CheckpointSlots> {
    slots.lock().unwrap_or_else(|p| p.into_inner())
}

/// The body of the newest checkpoint in shard directory `dir` (the
/// [`DurableCheckpoint::to_json`] text), or `None` when none ever
/// landed there. Two unreadable slots fail as they do on
/// [`ShardStore::open`]; a legacy checkpoint file is not read.
pub fn read_checkpoint(dir: &Path) -> Result<Option<String>, PersistError> {
    CheckpointSlots::open(dir, Arc::default()).map(|(_, body)| body)
}

/// The generation of the newest checkpoint in shard directory `dir`:
/// every checkpoint written there bumps it by one, and it is 0 when
/// none ever landed. Slots are read as [`ShardStore::open`] reads them.
pub fn checkpoint_generation(dir: &Path) -> Result<u64, PersistError> {
    CheckpointSlots::open(dir, Arc::default()).map(|(slots, _)| slots.generation)
}

/// Write `body` into shard directory `dir` as its newest checkpoint,
/// exactly as a store does: framed with the next generation into the
/// slot not holding the newest frame, then fdatasynced. The body is
/// not validated, so offline tools can write any state they mean to.
pub fn write_checkpoint(dir: &Path, body: &str) -> Result<(), PersistError> {
    let (mut slots, _) = CheckpointSlots::open(dir, Arc::default())?;
    slots.write(body.as_bytes(), false)
}

/// WAL records a durable store lets pass between two checkpoints it
/// hands to the background writer: a quarter of a `segment_bytes`
/// segment, 41,943 at the default 4 MiB, and at least one.
fn handoff_records(segment_bytes: u64) -> u64 {
    (segment_bytes / (4 * FRAME_BYTES as u64)).max(1)
}

/// A checkpoint handed to the writer, not yet encoded: the writer runs
/// [`DurableCheckpoint::to_json`] only on the submission it takes, so
/// one a newer submission replaces is never encoded at all.
struct Submission {
    /// The store's checkpoint slots, written through by the writer.
    slots: Arc<Mutex<CheckpointSlots>>,
    /// The checkpoint, shared with the shard that took it.
    ckpt: Arc<DurableCheckpoint>,
}

/// One shard's mailbox on the writer (it holds one submission), and
/// what the writer reports back.
#[derive(Default)]
struct Mailbox {
    /// The newest submission the writer has not taken yet.
    pending: Option<Submission>,
    /// The writer is writing this shard's checkpoint right now.
    writing: bool,
    /// The highest sequence number whose checkpoint landed.
    landed: u64,
    /// A write failed; the shard's next operation reports it.
    failed: Option<PersistError>,
    /// The store (or the whole service) is dead: nothing pending is
    /// written, nothing new taken, nothing landed is retired.
    closed: bool,
}

struct WriterState {
    mailboxes: Vec<Mailbox>,
    /// Write what is pending, then exit.
    stop: bool,
    /// The thread is parked on `work` with nothing to do: the one state
    /// in which a submission must wake it.
    parked: bool,
    /// Threads parked on `done`, waiting for a shard to go idle.
    waiters: usize,
    thread: Option<std::thread::JoinHandle<()>>,
}

/// The background checkpoint writer a durable service shares among its
/// shards: one thread, spawned at the first submission, serving one
/// mailbox per shard. Checkpoints of one shard land in submission
/// order, so the checkpoint on disk never moves backwards.
///
/// The writer yields the core to the requests it serves: its thread
/// runs at the lowest priority (nice 19), so on a saturated core a
/// newer submission replaces a pending one instead of the writer
/// preempting the event loop for each, and only the submission it
/// takes is encoded. The request path shares no lock with it: a
/// per-mailbox `news` flag, raised when a checkpoint lands or a write
/// fails, is all a shard reads per operation, and it takes the lock
/// only when the flag is up. Submissions and finished writes wake a
/// party only when one is parked.
pub(crate) struct CheckpointWriter {
    state: Mutex<WriterState>,
    /// Raised (under `state`'s lock) when shard `i`'s checkpoint landed
    /// or its write failed; cleared, under the lock, by the shard that
    /// collects the news.
    news: Box<[AtomicBool]>,
    /// Wakes the parked thread on a submission or stop.
    work: Condvar,
    /// Wakes waiters on a finished write.
    done: Condvar,
}

impl CheckpointWriter {
    /// A writer with one mailbox per shard and no thread yet.
    pub(crate) fn new(shards: usize) -> Arc<CheckpointWriter> {
        Arc::new(CheckpointWriter {
            state: Mutex::new(WriterState {
                mailboxes: (0..shards).map(|_| Mailbox::default()).collect(),
                stop: false,
                parked: false,
                waiters: 0,
                thread: None,
            }),
            news: (0..shards).map(|_| AtomicBool::new(false)).collect(),
            work: Condvar::new(),
            done: Condvar::new(),
        })
    }

    fn lock(&self) -> MutexGuard<'_, WriterState> {
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Park on `done` until `busy` is false, counted as a waiter so a
    /// finished write knows to wake us.
    fn wait_while<'a>(
        &self,
        mut st: MutexGuard<'a, WriterState>,
        busy: impl Fn(&WriterState) -> bool,
    ) -> MutexGuard<'a, WriterState> {
        while busy(&st) {
            st.waiters += 1;
            st = self.done.wait(st).unwrap_or_else(|p| p.into_inner());
            st.waiters -= 1;
        }
        st
    }

    /// Put `sub` in shard `index`'s mailbox, replacing a pending one,
    /// and wake the thread if it is parked.
    fn submit(self: &Arc<Self>, index: usize, sub: Submission) -> Result<(), PersistError> {
        let mut st = self.lock();
        // A closed mailbox's failure reaches the shard on its next
        // operation; until then nothing more is written for it.
        if st.mailboxes[index].closed {
            return Ok(());
        }
        if st.thread.is_none() {
            let writer = Arc::clone(self);
            st.thread = Some(
                std::thread::Builder::new()
                    .name("checkpoint-writer".into())
                    .spawn(move || writer.run())?,
            );
        }
        let replaced = st.mailboxes[index].pending.replace(sub);
        let wake = std::mem::take(&mut st.parked);
        drop(st);
        if wake {
            self.work.notify_one();
        }
        // A superseded checkpoint is freed outside the lock.
        drop(replaced);
        Ok(())
    }

    /// The thread: lower its own priority, then take pending
    /// checkpoints round-robin across mailboxes, encode and write each
    /// outside the lock, report how it went.
    fn run(&self) {
        lower_priority();
        let mut st = self.lock();
        let mut next = 0;
        loop {
            let n = st.mailboxes.len();
            let ready = (0..n)
                .map(|k| (next + k) % n)
                .find(|&i| st.mailboxes[i].pending.is_some());
            let Some(i) = ready else {
                if st.stop {
                    return;
                }
                st.parked = true;
                st = self.work.wait(st).unwrap_or_else(|p| p.into_inner());
                st.parked = false;
                continue;
            };
            let sub = st.mailboxes[i].pending.take().expect("found above");
            st.mailboxes[i].writing = true;
            drop(st);
            let json = sub.ckpt.to_json();
            let result = lock_slots(&sub.slots).write(json.as_bytes(), false);
            st = self.lock();
            let mailbox = &mut st.mailboxes[i];
            mailbox.writing = false;
            match result {
                Ok(()) => mailbox.landed = mailbox.landed.max(sub.ckpt.seq),
                Err(e) => {
                    mailbox.failed = Some(e);
                    mailbox.closed = true;
                    mailbox.pending = None;
                }
            }
            self.news[i].store(true, Ordering::Release);
            next = i + 1;
            if st.waiters > 0 {
                self.done.notify_all();
            }
        }
    }

    /// Block until shard `index` has nothing pending or being written.
    fn wait_idle(&self, index: usize) {
        let st = self.lock();
        drop(self.wait_while(st, |st| {
            st.mailboxes[index].pending.is_some() || st.mailboxes[index].writing
        }));
    }

    /// Shard `index`'s news, if the writer raised any since it was last
    /// collected: the newest landed seq (0 once the mailbox is closed —
    /// a dead store retires nothing) and a failed write (taken). One
    /// atomic load and no lock when there is none.
    fn news(&self, index: usize) -> Option<(u64, Option<PersistError>)> {
        // Pairs with the writer's `Release` store, made after it updated
        // the mailbox. The mailbox itself is read under the lock, and the
        // flag is cleared under it too, so a landing after this clear
        // raises it again.
        if !self.news[index].load(Ordering::Acquire) {
            return None;
        }
        let mut st = self.lock();
        self.news[index].store(false, Ordering::Relaxed);
        let mailbox = &mut st.mailboxes[index];
        let landed = if mailbox.closed { 0 } else { mailbox.landed };
        Some((landed, mailbox.failed.take()))
    }

    /// The stores of `shards` died: discard their pending checkpoints
    /// and wait out a write in flight, so nothing lands after the death.
    fn close(&self, shards: std::ops::Range<usize>) {
        let mut st = self.lock();
        for mailbox in &mut st.mailboxes[shards.clone()] {
            mailbox.closed = true;
            mailbox.pending = None;
        }
        drop(self.wait_while(st, |st| {
            st.mailboxes[shards.clone()].iter().any(|m| m.writing)
        }));
    }

    /// An injected crash surfaced: the whole service is a killed
    /// process from here on, so no shard's checkpoint lands and no
    /// shard retires its WAL any more — a successor may already own
    /// the directory.
    pub(crate) fn halt(&self) {
        let shards = self.news.len();
        self.close(0..shards);
    }

    /// Write every checkpoint still pending on a live store, then join
    /// the thread (a no-op when none was ever spawned).
    pub(crate) fn shutdown(&self) {
        let thread = {
            let mut st = self.lock();
            st.stop = true;
            st.thread.take()
        };
        self.work.notify_all();
        if thread.is_some_and(|t| t.join().is_err()) {
            eprintln!("clipcache-serve: the checkpoint writer thread panicked");
        }
    }
}

/// Run the calling thread at the lowest priority, nice 19, so it gets
/// a core only when nothing else wants one. Best effort: where the
/// call fails the thread goes on at its inherited priority.
fn lower_priority() {
    #[cfg(target_os = "linux")]
    // SAFETY: plain syscalls naming only the calling thread.
    unsafe {
        let _ = libc::setpriority(libc::PRIO_PROCESS, libc::gettid() as libc::id_t, 19);
    }
}

/// Bytes of the active segment one mapping, and one reservation ahead
/// of the tail, span at most: a whole default segment and the page its
/// last frame may run into, so in the steady state a segment is
/// reserved and mapped once, when it is created.
const MAP_SPAN_BYTES: u64 = DEFAULT_SEGMENT_BYTES + MAP_ALIGN;

/// Bytes of a mapping resident at most: each time the tail passes a
/// multiple of this, the pages behind it are released to the page
/// cache (`MADV_DONTNEED`, which keeps their data), so only the pages
/// written since count toward the process's resident memory. Small, so
/// each release unmaps only a few pages inside one request batch.
const RESIDENT_BYTES: u64 = 16 * 1024;

/// What a mapping's file offset must be a multiple of: the page size,
/// 4 KiB on x86-64 and at most 64 KiB on the other Linux targets.
#[cfg(target_arch = "x86_64")]
const MAP_ALIGN: u64 = 4 * 1024;
#[cfg(not(target_arch = "x86_64"))]
const MAP_ALIGN: u64 = 64 * 1024;

/// `n` rounded up to a multiple of [`MAP_ALIGN`].
fn align_up(n: u64) -> u64 {
    n.div_ceil(MAP_ALIGN) * MAP_ALIGN
}

/// A shared, writable mapping of `len` bytes of a segment file from
/// offset `start`. Stores into it land in the page cache, so they
/// survive the process being killed the moment they are made.
struct TailMap {
    ptr: std::ptr::NonNull<u8>,
    start: u64,
    len: usize,
    /// File offset below which the mapped pages were released.
    released: u64,
}

// SAFETY: the mapping is plain shared memory owned by one store; it is
// written only through `&mut` access to that store.
unsafe impl Send for TailMap {}

impl TailMap {
    /// Map `len` bytes of `file` from `start`, which must be
    /// [`MAP_ALIGN`]ed and, with `len`, lie inside the file.
    fn new(file: &File, start: u64, len: u64) -> std::io::Result<TailMap> {
        use std::os::fd::AsRawFd;
        let offset = libc::off_t::try_from(start).map_err(std::io::Error::other)?;
        let len = usize::try_from(len).map_err(std::io::Error::other)?;
        // SAFETY: a fresh mapping of a file this process has open for
        // reading and writing; no existing memory is touched.
        let ptr = unsafe {
            libc::mmap(
                std::ptr::null_mut(),
                len,
                libc::PROT_READ | libc::PROT_WRITE,
                libc::MAP_SHARED,
                file.as_raw_fd(),
                offset,
            )
        };
        if ptr == libc::MAP_FAILED {
            return Err(std::io::Error::last_os_error());
        }
        // Fault in only the page being written. Read-around would zero
        // dozens of pages inside one fault, all in one request batch.
        // SAFETY: advice on the mapping just made; it changes no data.
        unsafe { libc::madvise(ptr, len, libc::MADV_RANDOM) };
        let ptr = std::ptr::NonNull::new(ptr.cast())
            .ok_or_else(|| std::io::Error::other("mmap returned a null mapping"))?;
        Ok(TailMap {
            ptr,
            start,
            len,
            released: start,
        })
    }

    /// Where file offset `at` lives in the mapping, if `at..at + n` is
    /// inside it.
    fn slot(&self, at: u64, n: usize) -> Option<*mut u8> {
        let off = usize::try_from(at.checked_sub(self.start)?).ok()?;
        // SAFETY: `off + n` is inside the mapping.
        (off + n <= self.len).then(|| unsafe { self.ptr.as_ptr().add(off) })
    }

    /// Release the mapped pages below file offset `below` (a multiple
    /// of [`RESIDENT_BYTES`]) to the page cache. A hint: if it fails,
    /// the pages only stay resident longer.
    fn release_below(&mut self, below: u64) {
        let below = below.min(self.start + self.len as u64);
        if below <= self.released {
            return;
        }
        let off = (self.released - self.start) as usize;
        let len = (below - self.released) as usize;
        // SAFETY: whole pages inside the mapping; dropping a shared
        // file mapping's pages keeps their data in the page cache.
        unsafe {
            libc::madvise(self.ptr.as_ptr().add(off).cast(), len, libc::MADV_DONTNEED);
        }
        self.released = below;
    }
}

impl Drop for TailMap {
    fn drop(&mut self) {
        // SAFETY: unmaps exactly the mapping `new` made; nothing
        // borrows it past this point.
        unsafe {
            libc::munmap(self.ptr.as_ptr().cast(), self.len);
        }
    }
}

/// Bytes of a frame's length field, the first four of the frame.
const FRAME_LEN_BYTES: usize = 4;

/// Store the first `upto` bytes of `frame`, in publication order, into
/// `dst`: the body (CRC and payload) first, then, behind a compiler
/// fence, the length. A process killed at any instruction has
/// published a prefix of that order, so until the length lands the
/// frame reads as a zero length and the reservation's zeros behind it
/// as nothing at all.
///
/// # Safety
/// `dst` must be valid for writes of `frame.len()` bytes.
unsafe fn publish_frame(dst: *mut u8, frame: &[u8], upto: usize) {
    let body = &frame[FRAME_LEN_BYTES..];
    let n = upto.min(body.len());
    std::ptr::copy_nonoverlapping(body.as_ptr(), dst.add(FRAME_LEN_BYTES), n);
    std::sync::atomic::compiler_fence(Ordering::SeqCst);
    let n = (upto - n).min(FRAME_LEN_BYTES);
    std::ptr::copy_nonoverlapping(frame.as_ptr(), dst, n);
}

/// Reserve `len` bytes of `file` from `offset` by writing zeros there,
/// extending the file. Written zeros, unlike a `posix_fallocate`d
/// extent, leave the pages in the page cache and their blocks written,
/// so a store into the mapping over them takes a minor fault (about
/// 0.25 µs) instead of allocating and zeroing a page and converting an
/// unwritten extent (about 4.5 µs). On a [`mapped_tail_filesystem`]
/// such a store overwrites its blocks in place and never needs space.
fn reserve(file: &File, offset: u64, len: u64) -> std::io::Result<()> {
    static ZEROS: [u8; 64 * 1024] = [0; 64 * 1024];
    let end = offset + len;
    let mut at = offset;
    while at < end {
        let n = (end - at).min(ZEROS.len() as u64);
        file.write_all_at(&ZEROS[..n as usize], at)?;
        at += n;
    }
    Ok(())
}

/// Whether a WAL's mapped tail can be committed on the filesystem whose
/// `statfs` type is `magic`: only where a store into the zeros written
/// ahead of the tail overwrites its blocks in place (ext2/3/4, XFS,
/// tmpfs), so the page fault that takes it can fail for no reason but
/// an I/O error. On a copy-on-write filesystem (btrfs, bcachefs, ZFS)
/// every overwrite needs new space, and a network filesystem or an
/// overlay can fail a fault for reasons this process cannot see; there
/// a failure would arrive as `SIGBUS` and kill every shard, not just
/// the one committing.
pub(crate) fn mapped_tail_filesystem(magic: libc::c_long) -> bool {
    matches!(
        magic,
        libc::EXT4_SUPER_MAGIC | libc::XFS_SUPER_MAGIC | libc::TMPFS_MAGIC
    )
}

/// Refuse `dir` unless it is on a [`mapped_tail_filesystem`].
fn check_filesystem(dir: &Path) -> Result<(), PersistError> {
    use std::os::fd::AsRawFd;
    let handle = File::open(dir)?;
    let mut stat = std::mem::MaybeUninit::<libc::statfs>::uninit();
    // SAFETY: `fstatfs` fills the struct on success, and it is read only then.
    let stat = unsafe {
        if libc::fstatfs(handle.as_raw_fd(), stat.as_mut_ptr()) != 0 {
            return Err(std::io::Error::last_os_error().into());
        }
        stat.assume_init()
    };
    if mapped_tail_filesystem(stat.f_type) {
        return Ok(());
    }
    Err(PersistError::Io(std::io::Error::new(
        std::io::ErrorKind::Unsupported,
        format!(
            "{} is on a filesystem of type {:#x}; the WAL commits into a \
             mapped segment tail, which is safe only on ext2/3/4, xfs and \
             tmpfs (elsewhere a failed page fault kills the server with \
             SIGBUS) — put the data dir on one of those",
            dir.display(),
            stat.f_type
        ),
    )))
}

/// The segment currently being appended to.
///
/// Its committed frames are published through a shared mapping of the
/// file, never `write(2)`: the file is reserved ahead of the tail with
/// zeros, and each frame's body is stored before its length, so the
/// file always reads as whole frames, at most one body without its
/// length, then zeros. Only the header and the seal footer are
/// written, and a seal, a reset or a clean close first trims the file
/// to its published bytes.
struct ActiveSegment {
    /// Shared with the commit queue, which fsyncs it from rider threads.
    file: Arc<File>,
    /// This segment's number (its header and file name agree).
    no: u64,
    /// Bytes of the header plus every frame, staged ones included:
    /// where the next frame goes, and what the roll threshold compares.
    len: u64,
    /// Running CRC over those bytes, extended per append so the seal
    /// footer never re-reads the file.
    crc: Crc32,
    /// Sequence number of the last record in this segment (0 if none).
    last_seq: u64,
    /// Records in this segment, staged ones included.
    records: u64,
    /// Bytes of the header and the frames published into the file.
    published: u64,
    /// The file's length: `published` plus the zero-filled reservation
    /// ahead of it.
    reserved: u64,
    /// The mapping the next frames are published through.
    map: Option<TailMap>,
}

impl ActiveSegment {
    /// The segment `file` holds `scan`'s valid bytes of, trimmed to them
    /// and unmapped.
    fn resumed(file: File, no: u64, scan: &SegmentScan) -> ActiveSegment {
        ActiveSegment {
            file: Arc::new(file),
            no,
            len: scan.valid_len,
            crc: scan.crc.clone(),
            last_seq: scan.last_seq,
            records: scan.records,
            published: scan.valid_len,
            reserved: scan.valid_len,
            map: None,
        }
    }

    /// Publish whole `frames` at the tail, in order (see
    /// [`publish_frame`]). `cap` bounds how far ahead of the tail a
    /// mapping reaches.
    fn publish(&mut self, frames: &[u8], cap: u64) -> std::io::Result<()> {
        for frame in frames.chunks_exact(FRAME_BYTES) {
            let dst = self.slot(FRAME_BYTES, cap)?;
            // SAFETY: `slot` returned room for a whole frame inside the
            // live mapping, over reserved bytes no one else writes.
            unsafe { publish_frame(dst, frame, FRAME_BYTES) };
            self.published += FRAME_BYTES as u64;
        }
        if let Some(map) = &mut self.map {
            map.release_below(self.published / RESIDENT_BYTES * RESIDENT_BYTES);
        }
        Ok(())
    }

    /// Publish only the first half of `frame`'s body at the tail: the
    /// state a process killed mid-publication leaves (the `torn:N`
    /// crash point).
    fn publish_torn(&mut self, frame: &[u8], cap: u64) -> std::io::Result<()> {
        let dst = self.slot(FRAME_BYTES, cap)?;
        // SAFETY: as in `publish`.
        unsafe { publish_frame(dst, frame, (FRAME_BYTES - FRAME_LEN_BYTES) / 2) };
        Ok(())
    }

    /// Room for `n` bytes at the published tail, in the mapping. When
    /// the mapping cannot hold them, reserve and map the span from the
    /// tail's page up to [`MAP_SPAN_BYTES`] on, and no further than
    /// `cap`.
    fn slot(&mut self, n: usize, cap: u64) -> std::io::Result<*mut u8> {
        let at = self.published;
        if let Some(dst) = self.map.as_ref().and_then(|m| m.slot(at, n)) {
            return Ok(dst);
        }
        self.map = None;
        let start = at / MAP_ALIGN * MAP_ALIGN;
        let need = at + n as u64;
        let end = align_up(need.max(cap.min(start.saturating_add(MAP_SPAN_BYTES))));
        if end > self.reserved {
            reserve(&self.file, self.reserved, end - self.reserved)?;
            self.reserved = end;
        }
        let map = TailMap::new(&self.file, start, end - start)?;
        let dst = map.slot(at, n).expect("the mapping covers the tail");
        self.map = Some(map);
        Ok(dst)
    }

    /// Unmap the tail and cut the file back to its published bytes.
    /// Nothing is fsynced; a crash that loses the cut leaves zeros
    /// after the records, which open trims.
    fn trim(&mut self) -> std::io::Result<()> {
        self.map = None;
        if self.reserved != self.published {
            self.file.set_len(self.published)?;
            self.reserved = self.published;
        }
        Ok(())
    }

    /// Trim the segment, then write `footer` (a seal footer, or part of
    /// one) after its last frame and fsync. The fsync covers every byte
    /// of the file, the header included.
    fn write_footer(&mut self, footer: &[u8], ledger: &SyncLedger) -> std::io::Result<()> {
        self.trim()?;
        self.file.write_all_at(footer, self.published)?;
        self.published += footer.len() as u64;
        self.reserved = self.published;
        ledger.fdatasync(&self.file)
    }

    /// Truncate the segment to its bare header, fsynced: it holds no
    /// records any more.
    fn reset(&mut self, ledger: &SyncLedger) -> Result<(), PersistError> {
        self.published = SEGMENT_HEADER_BYTES as u64;
        self.trim()?;
        ledger.fdatasync(&self.file)?;
        self.len = SEGMENT_HEADER_BYTES as u64;
        self.crc = Crc32::new();
        self.crc.update(&segment_header(self.no));
        self.last_seq = 0;
        self.records = 0;
        Ok(())
    }
}

/// Create segment `no` in `dir` (replacing any partial file of that
/// name): header written, nothing reserved yet.
///
/// The header is not fsynced here: before any promise rests on its 24
/// bytes another fsync covers them — under [`WalSync::Always`] the
/// group `fdatasync` of the first commit into the segment, under
/// [`WalSync::Off`] the seal's. So a power loss can leave the newest
/// segment with its header never written, which open takes for a
/// segment that never held a record. The directory is fsynced only
/// under `always`, whose first acknowledged record into the segment
/// needs the segment's name on disk; under `off` the seal fsyncs it
/// (see [`ShardStore::roll`]).
fn create_segment(
    dir: &Path,
    no: u64,
    sync: WalSync,
    ledger: &SyncLedger,
) -> Result<ActiveSegment, PersistError> {
    let path = dir.join(segment_file_name(no));
    let file = OpenOptions::new()
        .read(true)
        .write(true)
        .create(true)
        .truncate(true)
        .open(&path)?;
    let header = segment_header(no);
    file.write_all_at(&header, 0)?;
    if sync == WalSync::Always {
        ledger.sync_dir(dir)?;
    }
    let mut crc = Crc32::new();
    crc.update(&header);
    let len = SEGMENT_HEADER_BYTES as u64;
    Ok(ActiveSegment {
        file: Arc::new(file),
        no,
        len,
        crc,
        last_seq: 0,
        records: 0,
        published: len,
        reserved: len,
        map: None,
    })
}

/// List `dir`'s WAL segments as `(number, path)`, sorted by number.
/// A pre-segment single-file `wal.log` or an unparseable `wal.*.log`
/// name is refused loudly.
fn scan_segments(dir: &Path) -> Result<Vec<(u64, PathBuf)>, PersistError> {
    let mut found = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let name = name.to_string_lossy().into_owned();
        if name == LEGACY_WAL_FILE {
            return Err(PersistError::Corrupt {
                offset: 0,
                reason: format!(
                    "found a pre-segment single-file '{LEGACY_WAL_FILE}'; this \
                     build reads only segmented logs ({}…) — replay it with \
                     the build that wrote it or delete the data directory \
                     instead of mixing layouts",
                    segment_file_name(1)
                ),
            });
        }
        if let Some(no) = parse_segment_no(&name) {
            if no == 0 {
                return Err(PersistError::Corrupt {
                    offset: 0,
                    reason: "segment number 0 (numbering is 1-based)".into(),
                });
            }
            found.push((no, entry.path()));
        } else if name.starts_with("wal.") && name.ends_with(".log") {
            return Err(PersistError::Corrupt {
                offset: 0,
                reason: format!("unrecognized WAL file name '{name}'"),
            });
        }
    }
    found.sort();
    Ok(found)
}

/// One shard's durable store: the active segment's append handle, its
/// sealed predecessors, the group-commit queue, the armed crash point,
/// its checkpoint slots and, inside a durable service, its mailbox on the
/// checkpoint writer.
pub struct ShardStore {
    dir: PathBuf,
    sync: WalSync,
    /// Roll threshold: seal the active segment once it reaches this.
    segment_bytes: u64,
    active: ActiveSegment,
    /// The sealed segments still on disk, oldest first, as
    /// `(number, last seq)`; their numbers run contiguously up to the
    /// active segment's.
    sealed: VecDeque<(u64, u64)>,
    queue: Arc<CommitQueue>,
    /// Next sequence number to append.
    next_seq: u64,
    /// Last sequence folded into the durable checkpoint on disk.
    ckpt_seq: u64,
    /// The checkpoint slot files, shared with the submissions handed
    /// to the background writer.
    slots: Arc<Mutex<CheckpointSlots>>,
    /// The service's background writer and this store's mailbox on it;
    /// `None` for a store opened on its own, which checkpoints inline.
    writer: Option<(Arc<CheckpointWriter>, usize)>,
    /// WAL records between two hand-offs to the writer: a quarter
    /// segment ([`handoff_records`]).
    handoff_every: u64,
    /// The seq of the newest checkpoint handed to the writer or
    /// written inline.
    handed: u64,
    /// The newest submitted checkpoint not handed to the writer yet;
    /// [`hand_off_held`](Self::hand_off_held) hands it over.
    held: Option<Arc<DurableCheckpoint>>,
    /// Appends performed since the store was opened (crash counting).
    appends: u64,
    /// Checkpoints submitted since the store was opened.
    checkpoints: u64,
    /// Segment seals performed since the store was opened.
    seals: u64,
    crash: Option<CrashSpec>,
    /// A fired crash point leaves the store dead: every later operation
    /// reports the crash again instead of quietly resuming.
    dead: bool,
    /// Frames [`stage`](Self::stage)d and not yet written, in sequence
    /// order: the active segment's tail that only memory holds. Reused,
    /// so appends allocate nothing once warm.
    staged: Vec<u8>,
    /// Every fsync this store (its commit queue and checkpoint slots
    /// included) has issued.
    ledger: Arc<SyncLedger>,
}

impl ShardStore {
    /// Open (creating if absent) the store in `dir` with default
    /// tuning, returning the durable state to rebuild from.
    pub fn open(dir: &Path, sync: WalSync) -> Result<(ShardStore, DurableState), PersistError> {
        Self::open_tuned(dir, sync, WalTuning::default())
    }

    /// Open (creating if absent) the store in `dir`, returning the
    /// durable state to rebuild from.
    ///
    /// The checkpoint is the valid slot frame with the higher
    /// generation; a torn slot (crash mid-checkpoint) is ignored while
    /// the other slot is valid or empty. A legacy `checkpoint.json` is
    /// migrated once: parsed, written into a slot, then deleted with
    /// any legacy `checkpoint.tmp`. A torn tail on the newest segment
    /// is truncated in place; sealed segments fully subsumed by the
    /// checkpoint are deleted, and an active segment holding only
    /// subsumed records is truncated; a sealed *newest* segment (crash
    /// in the roll window) gets a fresh successor, and a newest segment
    /// with a torn or all-zero header is created afresh. Under
    /// [`WalSync::Always`] the directory is fsynced before records are
    /// acknowledged into a segment open resumes, since a run under
    /// [`WalSync::Off`] may have left its name unsynced. Mid-log corruption,
    /// version skew, numbering gaps, a pre-segment `wal.log`, two
    /// unreadable checkpoint slots and untrusted checkpoints all fail
    /// loudly.
    ///
    /// Segments stream through one fixed buffer and subsumed records
    /// are only counted, so memory stays flat however long the log.
    pub fn open_tuned(
        dir: &Path,
        sync: WalSync,
        tuning: WalTuning,
    ) -> Result<(ShardStore, DurableState), PersistError> {
        std::fs::create_dir_all(dir)?;
        check_filesystem(dir)?;
        let ledger = Arc::new(SyncLedger::default());
        let (mut slots, body) = CheckpointSlots::open(dir, Arc::clone(&ledger))?;
        let parse =
            |json: &str| DurableCheckpoint::from_json(json).map_err(PersistError::BadCheckpoint);
        let mut checkpoint = body.as_deref().map(parse).transpose()?;
        let legacy_tmp = dir.join(LEGACY_CHECKPOINT_TMP);
        if legacy_tmp.exists() {
            // A legacy checkpoint write died before its rename.
            std::fs::remove_file(&legacy_tmp)?;
        }
        let legacy = dir.join(LEGACY_CHECKPOINT_FILE);
        if legacy.exists() {
            let json = std::fs::read_to_string(&legacy)?;
            checkpoint = Some(parse(&json)?);
            slots.write(json.as_bytes(), false)?;
            std::fs::remove_file(&legacy)?;
            // The legacy file must never resurface over newer slots.
            ledger.sync_dir(dir)?;
        }
        let ckpt_seq = checkpoint.as_ref().map_or(0, |c| c.seq);

        let listed = scan_segments(dir)?;
        for pair in listed.windows(2) {
            if pair[1].0 != pair[0].0 + 1 {
                return Err(PersistError::Corrupt {
                    offset: 0,
                    reason: format!(
                        "WAL segment numbering has a gap: {} is followed by {} \
                         (a middle segment is missing)",
                        segment_file_name(pair[0].0),
                        segment_file_name(pair[1].0)
                    ),
                });
            }
        }
        // Stream every segment; only the newest may be unsealed or torn.
        // The concatenated log must be one contiguous sequence run that
        // reaches back to the checkpoint. Sequence numbers are 1-based,
        // and a run starting *past* ckpt_seq + 1 means records were
        // lost — both are corruption. Records at or below ckpt_seq are
        // the subsumed prefix: counted, skipped, never replayed twice.
        let mut buf = vec![0u8; SCAN_BUF_BYTES];
        let mut records = Vec::new();
        let mut seen = 0u64;
        let mut prev_seq = None;
        let mut subsumed_records = 0u64;
        let mut subsumed_segments = Vec::new();
        let mut sealed = VecDeque::new();
        let mut newest = None;
        for (i, (no, path)) in listed.iter().enumerate() {
            let scan = scan_segment(File::open(path)?, *no, &mut buf, |r| {
                match prev_seq {
                    None if r.seq == 0 => {
                        return Err(PersistError::Corrupt {
                            offset: 0,
                            reason: "WAL record has seq 0 (sequence numbers are 1-based)".into(),
                        })
                    }
                    None if r.seq > ckpt_seq + 1 => {
                        return Err(PersistError::Corrupt {
                            offset: 0,
                            reason: format!(
                                "WAL starts at seq {} but the checkpoint covers through \
                                 {ckpt_seq}: records {} through {} are missing",
                                r.seq,
                                ckpt_seq + 1,
                                r.seq - 1
                            ),
                        })
                    }
                    Some(prev) if r.seq != prev + 1 => {
                        return Err(PersistError::Corrupt {
                            offset: 0,
                            reason: format!(
                                "WAL sequence broken: record {seen} has seq {}, expected {}",
                                r.seq,
                                prev + 1
                            ),
                        })
                    }
                    _ => {}
                }
                prev_seq = Some(r.seq);
                seen += 1;
                if r.seq <= ckpt_seq {
                    subsumed_records += 1;
                } else {
                    records.push(r);
                }
                Ok(())
            })?;
            match scan.end {
                SegmentEnd::Clean | SegmentEnd::Torn { .. } | SegmentEnd::ZeroTail { .. }
                    if i + 1 != listed.len() =>
                {
                    return Err(PersistError::Corrupt {
                        offset: 0,
                        reason: format!(
                            "segment {} is not sealed but a later segment \
                             follows it",
                            segment_file_name(*no)
                        ),
                    });
                }
                // Finish a retirement a crash interrupted: a sealed
                // segment whose every record the checkpoint covers is
                // garbage (deleted once the whole log has validated).
                SegmentEnd::Sealed { last_seq } if last_seq <= ckpt_seq => {
                    subsumed_segments.push(path);
                }
                SegmentEnd::Sealed { last_seq } => sealed.push_back((*no, last_seq)),
                SegmentEnd::Clean | SegmentEnd::Torn { .. } | SegmentEnd::ZeroTail { .. } => {}
            }
            if i + 1 == listed.len() {
                newest = Some((*no, path, scan));
            }
        }
        for path in subsumed_segments {
            std::fs::remove_file(path)?;
        }

        let mut torn_bytes_dropped = 0;
        let active = match newest {
            None => create_segment(dir, 1, sync, &ledger)?,
            Some((no, path, scan)) => match scan.end {
                SegmentEnd::Sealed { .. } => {
                    // A crash in the roll window: the seal landed, the
                    // successor was never created. Open one now. (If the
                    // sealed segment was fully subsumed it is already
                    // deleted above; the numbering still moves forward.)
                    // The crash may have come before the seal's directory
                    // fsync: make the sealed name durable before its
                    // successor exists, as `roll` does.
                    ledger.sync_dir(dir)?;
                    create_segment(dir, no + 1, sync, &ledger)?
                }
                SegmentEnd::Torn {
                    valid_bytes,
                    dropped_bytes,
                } if (valid_bytes as usize) < SEGMENT_HEADER_BYTES => {
                    // The header never finished (a crash during segment
                    // creation) or never reached the disk (all zeros: a
                    // power loss before the segment's first fsync):
                    // create the segment afresh.
                    torn_bytes_dropped = dropped_bytes;
                    create_segment(dir, no, sync, &ledger)?
                }
                end => {
                    let file = OpenOptions::new().read(true).write(true).open(path)?;
                    if let SegmentEnd::Torn { dropped_bytes, .. }
                    | SegmentEnd::ZeroTail { dropped_bytes, .. } = end
                    {
                        // Cut the partial record (or partial seal
                        // footer) and the unused reservation, so the
                        // next open sees a clean segment.
                        file.set_len(scan.valid_len)?;
                        ledger.fdatasync(&file)?;
                        torn_bytes_dropped = dropped_bytes;
                    }
                    if sync == WalSync::Always {
                        // A run under `off` may have created this
                        // segment without making its name durable;
                        // records acknowledged into it now need it.
                        ledger.sync_dir(dir)?;
                    }
                    let mut active = ActiveSegment::resumed(file, no, &scan);
                    if scan.records > 0 && scan.last_seq <= ckpt_seq {
                        // Every record is subsumed: retire them now. A
                        // crash during this truncation only shortens a
                        // log whose every byte the checkpoint covers.
                        active.reset(&ledger)?;
                    }
                    active
                }
            },
        };
        let next_seq = records.last().map_or(ckpt_seq, |r| r.seq) + 1;
        let queue = CommitQueue::new(
            tuning.commit_window,
            next_seq - 1,
            Arc::clone(&active.file),
            Arc::clone(&ledger),
        );
        Ok((
            ShardStore {
                dir: dir.to_path_buf(),
                sync,
                segment_bytes: tuning.segment_bytes,
                active,
                sealed,
                queue,
                next_seq,
                ckpt_seq,
                slots: Arc::new(Mutex::new(slots)),
                writer: None,
                handoff_every: handoff_records(tuning.segment_bytes),
                handed: ckpt_seq,
                held: None,
                appends: 0,
                checkpoints: 0,
                seals: 0,
                crash: None,
                dead: false,
                staged: Vec::new(),
                ledger,
            },
            DurableState {
                checkpoint,
                records,
                torn_bytes_dropped,
                subsumed_records,
            },
        ))
    }

    /// Write this store's background checkpoints through `writer`'s
    /// mailbox `index` (one per shard of a durable service).
    pub(crate) fn attach_writer(&mut self, writer: Arc<CheckpointWriter>, index: usize) {
        self.writer = Some((writer, index));
    }

    /// Arm a crash point. Counters start now — recovery-time operations
    /// performed before arming never count.
    pub fn arm_crash(&mut self, crash: Option<CrashSpec>) {
        self.crash = crash;
        self.appends = 0;
        self.checkpoints = 0;
        self.seals = 0;
    }

    /// The directory this store persists into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The next sequence number an append will receive.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// The fsyncs this store has issued since it was opened, open's own
    /// included.
    pub fn fsyncs(&self) -> FsyncCount {
        self.ledger.count()
    }

    /// The active segment's number and the lowest segment number still
    /// on disk — `(oldest, active)`.
    pub fn segment_span(&self) -> (u64, u64) {
        let oldest = self.sealed.front().map_or(self.active.no, |&(no, _)| no);
        (oldest, self.active.no)
    }

    /// Append one whole-clip access to the WAL, returning its sequence
    /// number. Frames staged before it are committed with it, and the
    /// call returns only once they are as durable as the sync policy
    /// promises: written to the OS, and under [`WalSync::Always`] also
    /// fsynced (the call waits for its own commit's ticket). An armed
    /// crash point may fire here: `torn:N` writes half the frame then
    /// dies, `append:N` dies after the frame is durable, and `seal:N` /
    /// `segment-roll:N` fire if this append fills the segment.
    ///
    /// # Panics
    /// If `op` is [`WalOp::GetRange`] — ranged probes carry a chunk and
    /// go through [`append_range`](Self::append_range).
    pub fn append(&mut self, op: WalOp, clip: ClipId) -> Result<u64, PersistError> {
        assert!(
            op != WalOp::GetRange,
            "GETRANGE records go through append_range"
        );
        let seq = self.stage(op, clip, 0)?;
        self.commit()?.map_or(Ok(()), CommitTicket::wait)?;
        Ok(seq)
    }

    /// Append one chunk-granular residency probe to the WAL.
    pub fn append_range(&mut self, clip: ClipId, chunk: u32) -> Result<u64, PersistError> {
        let seq = self.stage(WalOp::GetRange, clip, chunk)?;
        self.commit()?.map_or(Ok(()), CommitTicket::wait)?;
        Ok(seq)
    }

    /// Log one access, returning its sequence number. The frame is
    /// only encoded into the staging buffer: it reaches the OS at the
    /// next [`commit`](Self::commit), which must come before the access
    /// is acknowledged. Every crash point commits what is staged before
    /// its partial effect, so each keeps its meaning.
    pub(crate) fn stage(
        &mut self,
        op: WalOp,
        clip: ClipId,
        chunk: u32,
    ) -> Result<u64, PersistError> {
        if self.dead {
            return Err(PersistError::CrashInjected);
        }
        self.collect_writes()?;
        let seq = self.next_seq;
        let frame = WalRecord {
            seq,
            clip,
            chunk,
            op,
        }
        .encode();
        if let Some(CrashSpec {
            point: CrashPoint::TornAppend(n),
        }) = self.crash
        {
            if self.appends + 1 == n {
                // Half the frame's body reaches the segment, after every
                // frame staged before it, and never its length; the
                // process dies mid-publication. Recovery must drop it.
                self.write_staged()?;
                self.active.publish_torn(&frame, self.map_cap())?;
                self.ledger.fdatasync(&self.active.file)?;
                // That fsync also made every earlier record in the
                // segment durable: release any riders before the store
                // goes dead.
                self.queue.note_durable(self.active.last_seq);
                self.die();
                return Err(PersistError::CrashInjected);
            }
        }
        self.staged.extend_from_slice(&frame);
        self.active.len += frame.len() as u64;
        self.active.crc.update(&frame);
        self.active.last_seq = seq;
        self.active.records += 1;
        self.appends += 1;
        self.next_seq += 1;
        if let Some(CrashSpec {
            point: CrashPoint::AfterAppend(n),
        }) = self.crash
        {
            if self.appends == n {
                // The record IS durable; the process dies right after.
                self.write_staged()?;
                self.ledger.fdatasync(&self.active.file)?;
                self.queue.note_durable(seq);
                self.die();
                return Err(PersistError::CrashInjected);
            }
        }
        if self.active.len >= self.segment_bytes {
            self.roll()?;
        }
        Ok(seq)
    }

    /// Whether frames are staged and not yet written.
    pub(crate) fn has_staged(&self) -> bool {
        !self.staged.is_empty()
    }

    /// Publish every staged frame into the mapped tail — what makes the
    /// accesses that staged them safe to acknowledge under
    /// [`WalSync::Off`]. Under [`WalSync::Always`] the returned ticket
    /// covers every frame published so far; wait on it after releasing
    /// the shard lock, before acknowledging. A dead store reports its
    /// death instead (its staged frames, never acknowledged, died with
    /// it); a failed reservation or mapping kills the store.
    pub(crate) fn commit(&mut self) -> Result<Option<CommitTicket>, PersistError> {
        self.write_staged()?;
        if self.sync == WalSync::Off {
            return Ok(None);
        }
        let seq = self.next_seq - 1;
        Ok(Some(CommitTicket {
            queue: Arc::clone(&self.queue),
            epoch: self.queue.note_write(seq),
            seq,
        }))
    }

    /// Publish every staged frame into the active segment's mapped
    /// tail, in sequence order: once this returns they are in the page
    /// cache, so a killed process keeps them. A no-op when nothing is
    /// staged; a dead store reports its death instead. A failed
    /// reservation or mapping kills the store, and the caller recovers
    /// from disk instead.
    fn write_staged(&mut self) -> Result<(), PersistError> {
        if self.dead {
            return Err(PersistError::CrashInjected);
        }
        if self.staged.is_empty() {
            return Ok(());
        }
        let cap = self.map_cap();
        let published = self.active.publish(&self.staged, cap);
        self.staged.clear();
        if let Err(e) = published {
            self.kill();
            return Err(e.into());
        }
        Ok(())
    }

    /// How far a mapping may reach into the active segment: one frame
    /// past the roll threshold, where its longest possible tail ends.
    fn map_cap(&self) -> u64 {
        self.segment_bytes.saturating_add(FRAME_BYTES as u64)
    }

    /// Seal the active segment (trim, footer write, fsync) and open its
    /// successor, after publishing what is staged. The `seal:N` and
    /// `segment-roll:N` crash points fire here.
    ///
    /// A roll costs two fsyncs in either mode. The seal's `fdatasync`
    /// makes the segment's bytes durable, its header included. Its name
    /// must be durable too before the successor's file exists, so that
    /// after a power loss only the newest segment can be unsealed: under
    /// [`WalSync::Off`] the directory is fsynced right after the seal;
    /// under [`WalSync::Always`] the segment's creation already did
    /// (or, for a segment an earlier run created, open did), and the
    /// successor's creation fsyncs the directory for its own name.
    fn roll(&mut self) -> Result<(), PersistError> {
        self.write_staged()?;
        let footer = footer_after(self.active.crc.clone(), self.active.last_seq);
        if let Some(CrashSpec {
            point: CrashPoint::TornSeal(n),
        }) = self.crash
        {
            if self.seals + 1 == n {
                // Half the footer reaches the disk; the process dies
                // mid-seal. Recovery truncates the partial footer and
                // the segment stays active.
                self.active
                    .write_footer(&footer[..SEGMENT_FOOTER_BYTES / 2], &self.ledger)?;
                // The partial-footer fsync still made every record in
                // the segment durable.
                self.queue.note_durable(self.active.last_seq);
                self.die();
                return Err(PersistError::CrashInjected);
            }
        }
        let mut sealed = self.active.write_footer(&footer, &self.ledger);
        if sealed.is_ok() && self.sync == WalSync::Off {
            sealed = self.ledger.sync_dir(&self.dir);
        }
        if let Err(e) = sealed {
            self.kill();
            return Err(e.into());
        }
        self.seals += 1;
        self.sealed
            .push_back((self.active.no, self.active.last_seq));
        // The seal fsync made every record in this segment durable.
        self.queue.note_durable(self.active.last_seq);
        if let Some(CrashSpec {
            point: CrashPoint::SegmentRoll(n),
        }) = self.crash
        {
            if self.seals == n {
                // The seal is durable; the successor segment is never
                // created. Recovery opens one.
                self.die();
                return Err(PersistError::CrashInjected);
            }
        }
        let cap = self.map_cap();
        // Reserve and map the successor now, in the batch that pays for
        // the seal, rather than in the next one.
        let next = create_segment(&self.dir, self.active.no + 1, self.sync, &self.ledger).and_then(
            |mut next| {
                next.slot(FRAME_BYTES, cap)?;
                Ok(next)
            },
        );
        match next {
            Ok(next) => {
                self.active = next;
                self.queue.swap_file(Arc::clone(&self.active.file));
                Ok(())
            }
            Err(e) => {
                self.kill();
                Err(e)
            }
        }
    }

    /// Write a durable checkpoint and wait for it: the slot write, then
    /// the retirement of the WAL through its seq. Open-time compaction
    /// and the offline tools use this; a durable service's periodic
    /// checkpoints go through
    /// [`submit_checkpoint`](Self::submit_checkpoint) instead.
    ///
    /// Order matters for crash safety: slot write → `fdatasync` →
    /// retirement. A crash before the `fdatasync` lands leaves the
    /// other slot's checkpoint newest, with the full log behind it; a
    /// crash after it leaves the new checkpoint with a subsumed prefix
    /// that [`open`](Self::open) skips — never a state that cannot
    /// recover. A non-crash I/O failure partway through kills the
    /// store: refusing further appends beats letting disk and memory
    /// drift apart.
    ///
    /// A checkpoint claiming records not yet appended (`seq` ≥
    /// [`next_seq`](Self::next_seq)) is refused as
    /// [`PersistError::BadCheckpoint`]; an older one is written as is,
    /// becomes the checkpoint on disk (the newest write wins), and
    /// never rewinds the sequence numbers appends receive.
    pub fn checkpoint(&mut self, ckpt: &DurableCheckpoint) -> Result<(), PersistError> {
        self.admit_checkpoint(ckpt)?;
        let crash = self.count_checkpoint()?;
        self.checkpoint_inline(ckpt, crash)
    }

    /// Submit a checkpoint refresh without waiting for any `fdatasync`.
    /// The store hands it to the service's background writer only once
    /// the WAL holds at least a quarter segment of records past the
    /// last hand-off (`segment_bytes / (4 · 25)`, and at least one);
    /// until then it holds the newest refresh, and a service shutdown,
    /// [`rewind_to_checkpoint`](Self::rewind_to_checkpoint) and the
    /// armed `checkpoint:N` land it. The count is in sequence numbers,
    /// so `GETRANGE` probes count too.
    ///
    /// A hand-off is shared, not encoded: the writer encodes it only if
    /// no newer hand-off replaced it first. Its WAL is retired once the
    /// store learns it landed, on its next operation; a failed write
    /// kills the store and that operation reports it. A store with no
    /// writer (opened on its own) checkpoints inline, and so does the
    /// armed `checkpoint:N` point: its submission lands the refresh
    /// before it, half-writes its own and reports the crash itself.
    pub fn submit_checkpoint(&mut self, ckpt: Arc<DurableCheckpoint>) -> Result<(), PersistError> {
        self.admit_checkpoint(&ckpt)?;
        let crash = self.count_checkpoint()?;
        if crash || self.writer.is_none() {
            return self.checkpoint_inline(&ckpt, crash);
        }
        if ckpt.seq.saturating_sub(self.handed) < self.handoff_every {
            self.held = Some(ckpt);
            return Ok(());
        }
        self.hand_off(ckpt)
    }

    /// Hand the held refresh, if any, to the writer. A clean shutdown
    /// calls this on every shard before it drains the writer, so a
    /// reopen replays only the records after the newest refresh.
    pub(crate) fn hand_off_held(&mut self) -> Result<(), PersistError> {
        match self.held.take() {
            Some(ckpt) => self.hand_off(ckpt),
            None => Ok(()),
        }
    }

    /// Put `ckpt` in this store's mailbox on the writer, in place of
    /// any older refresh still held.
    fn hand_off(&mut self, ckpt: Arc<DurableCheckpoint>) -> Result<(), PersistError> {
        let Some((writer, index)) = self.writer.clone() else {
            return Ok(());
        };
        self.held = None;
        self.handed = ckpt.seq;
        let sub = Submission {
            slots: Arc::clone(&self.slots),
            ckpt,
        };
        if let Err(e) = writer.submit(index, sub) {
            self.kill();
            return Err(e);
        }
        Ok(())
    }

    /// Write `ckpt` on this thread once the background writer is idle,
    /// then retire the WAL behind it; with `crash` set, land the held
    /// refresh first, then half-write `ckpt` and die.
    fn checkpoint_inline(
        &mut self,
        ckpt: &DurableCheckpoint,
        crash: bool,
    ) -> Result<(), PersistError> {
        if crash {
            self.hand_off_held()?;
        }
        // A background write still in flight must not land after this one.
        self.settle()?;
        self.held = None;
        self.handed = ckpt.seq;
        let written = lock_slots(&self.slots).write(ckpt.to_json().as_bytes(), crash);
        if let Err(e) = written {
            self.kill();
            return Err(e);
        }
        self.retire_through(ckpt.seq)
    }

    /// Refuse checkpoints on a dead store and checkpoints covering
    /// records never appended.
    fn admit_checkpoint(&self, ckpt: &DurableCheckpoint) -> Result<(), PersistError> {
        if self.dead {
            return Err(PersistError::CrashInjected);
        }
        if ckpt.seq >= self.next_seq {
            return Err(PersistError::BadCheckpoint(format!(
                "checkpoint covers through seq {} but the log ends at seq {}",
                ckpt.seq,
                self.next_seq - 1
            )));
        }
        Ok(())
    }

    /// Count one checkpoint submission; true when it is the armed
    /// `checkpoint:N`, which first writes what is staged.
    fn count_checkpoint(&mut self) -> Result<bool, PersistError> {
        self.checkpoints += 1;
        let crash = self.crash
            == Some(CrashSpec {
                point: CrashPoint::MidCheckpoint(self.checkpoints),
            });
        if crash {
            // Like every crash point, die with what is staged written.
            self.write_staged()?;
        }
        Ok(crash)
    }

    /// Collect what the writer finished for this store: retire the WAL
    /// behind the newest landed checkpoint, or die of a failed write
    /// and report it. Runs at the start of every append; unless the
    /// writer raised news for this store since the last collection it
    /// is one atomic load.
    pub(crate) fn collect_writes(&mut self) -> Result<(), PersistError> {
        if self.dead {
            return Ok(());
        }
        let Some((landed, failed)) = self.writer.as_ref().and_then(|(w, i)| w.news(*i)) else {
            return Ok(());
        };
        if let Some(e) = failed {
            self.kill();
            return Err(e);
        }
        if landed > self.ckpt_seq {
            self.retire_through(landed)?;
        }
        Ok(())
    }

    /// Wait until no background checkpoint of this store is pending or
    /// in flight, then collect its outcome.
    fn settle(&mut self) -> Result<(), PersistError> {
        if let Some((writer, index)) = &self.writer {
            writer.wait_idle(*index);
        }
        self.collect_writes()
    }

    /// The checkpoint on disk now covers through `seq`: delete the
    /// sealed segments it subsumes and, if the active segment holds
    /// nothing after `seq`, truncate it. The active segment is never
    /// truncated while it holds records after `seq`; the records at or
    /// below `seq` left at its head are the subsumed prefix
    /// [`open`](Self::open) skips. Never touches `next_seq`.
    fn retire_through(&mut self, seq: u64) -> Result<(), PersistError> {
        self.ckpt_seq = seq;
        // Everything the checkpoint covers is durable via the
        // checkpoint itself: release any riders still in the window.
        self.queue.note_durable(seq);
        if let Err(e) = self.drop_segments_through(seq) {
            self.kill();
            return Err(e);
        }
        Ok(())
    }

    /// Publish what is staged, then delete the sealed segments whose last
    /// record is at or below `seq`, oldest first (so a crash partway
    /// leaves a contiguous suffix), and truncate the active segment to
    /// its bare header if it holds records and none after `seq`.
    fn drop_segments_through(&mut self, seq: u64) -> Result<(), PersistError> {
        self.write_staged()?;
        while let Some(&(no, last_seq)) = self.sealed.front() {
            if last_seq > seq {
                return Ok(());
            }
            std::fs::remove_file(self.dir.join(segment_file_name(no)))?;
            self.sealed.pop_front();
        }
        if self.active.records > 0 && self.active.last_seq <= seq {
            self.active.reset(&self.ledger)?;
        }
        Ok(())
    }

    /// The store is dead, as after a fired crash point: every later
    /// operation reports [`PersistError::CrashInjected`], its staged
    /// frames and pending background checkpoint are discarded, and a
    /// write in flight is waited out so nothing lands after the death.
    fn die(&mut self) {
        self.dead = true;
        self.staged.clear();
        self.held = None;
        if let Some((writer, index)) = &self.writer {
            writer.close(*index..*index + 1);
        }
    }

    /// Mark the store dead, as after a fired crash point. Used when an
    /// I/O failure leaves disk and memory describing different states —
    /// refusing further appends beats silently diverging. Staged frames
    /// are dropped (nothing in them was acknowledged), and pending
    /// group-commit riders are woken with an error, never left hanging.
    pub fn kill(&mut self) {
        self.die();
        self.queue.poison();
    }

    /// Discard every WAL record after the checkpoint — the durable
    /// counterpart of a poisoned shard's rewind-to-checkpoint, keeping
    /// disk and memory describing the same state. The held refresh is
    /// handed off and lands first, with any hand-off still pending or in
    /// flight, so the rewind target is the newest checkpoint submitted.
    /// Pending group-commit riders error out (their records are gone;
    /// their sequence numbers will be reissued).
    pub fn rewind_to_checkpoint(&mut self) -> Result<(), PersistError> {
        if self.dead {
            return Err(PersistError::CrashInjected);
        }
        self.hand_off_held()?;
        self.settle()?;
        if let Err(e) = self.drop_segments_through(u64::MAX) {
            // The cleanup may be partial: disk no longer matches
            // either the pre- or post-rewind state. Refuse to continue.
            self.kill();
            return Err(e);
        }
        self.next_seq = self.ckpt_seq + 1;
        self.queue.rewound(self.ckpt_seq);
        Ok(())
    }
}

impl Drop for ShardStore {
    /// A clean close trims the active segment to its published frames.
    /// A dead store leaves its file as a killed process would.
    fn drop(&mut self) {
        if !self.dead {
            let _ = self.active.trim();
        }
    }
}

#[cfg(test)]
mod tests;
