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
//!   its [`HitStats`] and the WAL sequence number it covers, as JSON
//!   (`workload::json`). It lives in one of two CRC-framed **slot**
//!   files ([`CHECKPOINT_SLOT_FILES`]): a checkpoint overwrites, with
//!   the next write *generation*, the slot not holding the newest one —
//!   one `pwrite`, one `fdatasync` — so a crash mid-checkpoint tears
//!   only that slot. The shard refreshes its checkpoint in memory every
//!   `--checkpoint-every` accesses (its poison-rewind point) and submits
//!   it to its store, which hands it, not yet encoded, to the service's
//!   nice-19 writer thread only once the WAL holds a quarter segment of
//!   records past the last hand-off (41,943 at the default 4 MiB,
//!   `GETRANGE` probes included). Until then the store holds the newest
//!   refresh; a poison rewind, a clean shutdown and the armed
//!   `checkpoint:N` land it. Each landing is fsynced before it retires
//!   any WAL, so a crash replays the records after the newest
//!   checkpoint that landed: under a quarter segment plus one refresh
//!   interval once the newest hand-off has landed, more while it is
//!   still pending or being written.
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
//! `SIGBUS`, not just the shard. So [`ShardStore::open`] accepts only
//! ext2/3/4, XFS and tmpfs, where a store into reserved space never
//! needs new space (see `mapped_tail_filesystem`). Two causes remain
//! there: an I/O error reading back a tail page the kernel evicted, and
//! a live segment file truncated from outside the process. The log
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
//! A [`CrashSpec`] arms the store with one [`CrashPoint`], which counts
//! its kind of operation from when it was armed, after recovery, so a
//! crash-restart loop steps deterministically through the log. A fired
//! point commits what is staged and performs its partial effect; all
//! five then end alike: the active segment is fsynced, the riders it
//! covers are released, and the store dies reporting
//! [`PersistError::CrashInjected`]. The service maps that to
//! `process::exit(137)` in the binaries (`--crash-at`) or surfaces it
//! to an in-process harness.
//!
//! ## Layout
//!
//! `segment.rs` holds the WAL format, the segment scan and the mapped
//! tail; `checkpoint.rs` the checkpoint body, its slots and the writer
//! that owns them; `store.rs` the [`ShardStore`], its group-commit
//! queue and its fsync ledger.
//!
//! [`CacheSnapshot`]: clipcache_core::snapshot::CacheSnapshot
//! [`HitStats`]: clipcache_sim::metrics::HitStats

mod checkpoint;
mod segment;
mod store;

pub(crate) use checkpoint::CheckpointWriter;
pub use checkpoint::{checkpoint_generation, read_checkpoint, write_checkpoint, DurableCheckpoint};
pub use segment::{
    crc32, decode_segment, seal_footer, segment_file_name, segment_header, SegmentEnd, WalOp,
    WalRecord,
};
pub use store::{CommitTicket, DurableState, FsyncCount, ShardStore};

use std::path::PathBuf;
use std::time::Duration;

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
    /// The Nth WAL append publishes only half its frame's body and
    /// never its length, then the process dies — the canonical torn
    /// write.
    TornAppend(u64),
    /// Die midway through writing the Nth checkpoint submitted: the one
    /// before it lands first, held or handed off, then half of this
    /// one's frame reaches the slot not holding the newest checkpoint.
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
        let point = [
            CrashPoint::AfterAppend(n),
            CrashPoint::TornAppend(n),
            CrashPoint::MidCheckpoint(n),
            CrashPoint::TornSeal(n),
            CrashPoint::SegmentRoll(n),
        ]
        .into_iter()
        .find(|point| point.parts().0 == kind)
        .ok_or_else(|| {
            format!(
                "unknown crash point '{kind}' (expected append, torn, \
                 checkpoint, seal or segment-roll)"
            )
        })?;
        Ok(CrashSpec { point })
    }

    /// The canonical spec spelling ([`parse`](Self::parse) inverts it).
    pub fn spelling(&self) -> String {
        let (kind, _, n) = self.point.parts();
        format!("{kind}:{n}")
    }
}

/// The operations crash points count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CrashOp {
    /// WAL appends (`append:N`, `torn:N`).
    Append,
    /// Checkpoint submissions (`checkpoint:N`).
    Checkpoint,
    /// Segment seals (`seal:N`, `segment-roll:N`).
    Seal,
}

impl CrashPoint {
    /// The spec kind spelling this point, the operation it counts and
    /// the count it fires at.
    fn parts(self) -> (&'static str, CrashOp, u64) {
        match self {
            CrashPoint::AfterAppend(n) => ("append", CrashOp::Append, n),
            CrashPoint::TornAppend(n) => ("torn", CrashOp::Append, n),
            CrashPoint::MidCheckpoint(n) => ("checkpoint", CrashOp::Checkpoint, n),
            CrashPoint::TornSeal(n) => ("seal", CrashOp::Seal, n),
            CrashPoint::SegmentRoll(n) => ("segment-roll", CrashOp::Seal, n),
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

#[cfg(test)]
use {checkpoint::*, segment::*, store::*};

#[cfg(test)]
mod tests;
