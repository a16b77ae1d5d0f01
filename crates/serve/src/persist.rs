//! Durable per-shard cache state: checkpoints plus a segmented,
//! group-committed write-ahead log.
//!
//! The paper's whole argument is that a cache hit means the clip
//! survives disconnection — which is only true if the cache itself
//! survives a crash. This module makes a shard's state durable with the
//! classic checkpoint + WAL pairing:
//!
//! * **Checkpoint** — a [`DurableCheckpoint`] file holding the shard's
//!   [`CacheSnapshot`] (resident set, policy, capacity, virtual clock),
//!   its [`HitStats`] and the WAL sequence number it covers, serialized
//!   through the hand-rolled `workload::json` codec. Checkpoints are
//!   written atomically: full tmp file, fsync, rename, directory fsync
//!   — a crash mid-checkpoint leaves the previous checkpoint intact. A
//!   durable service takes that file I/O off its request path: the
//!   shard encodes the checkpoint and drops it into its one-slot
//!   mailbox on the service's background writer thread (a newer
//!   checkpoint replaces one still pending), and goes on serving.
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
//! **sealed** — a [`SEAL_MARK`] footer naming the last sequence number
//! and a CRC over *every* byte of the segment is fsynced onto the end —
//! and a fresh successor segment is created. Sealed segments are
//! immutable and fully durable; a single flipped bit anywhere in one
//! fails the footer CRC loudly.
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
//! ## Staged appends
//!
//! Under `--wal-sync off` (the default) a request's frame is encoded
//! into a reused per-store staging buffer instead of being written on
//! its own. Whoever runs the request writes the buffer before replying:
//! the event loop once per touched shard at the end of a batch of
//! pipelined requests, an in-process call before it returns. So a
//! frame reaches the OS before its reply is sent, and a batch of N
//! requests costs one `write` per shard instead of N. The bytes on
//! disk are the same either way. Rolling a segment, retiring or
//! rewinding the log, and every crash point write what is staged
//! first; a killed store drops it, since none of it was acknowledged.
//!
//! ## Group commit
//!
//! With `--wal-sync always` and a nonzero commit window, an append
//! writes its frame and returns a [`CommitTicket`] instead of paying a
//! private fsync. The caller releases the shard lock, then waits on the
//! ticket: the first waiter becomes the *leader*, gives later appends
//! up to the window to pile in (leaving early once the queue
//! quiesces), then issues **one** fsync that makes every rider durable
//! at once. A request is acknowledged only after its batch lands — an
//! acked request is still a durable request, the batching only changes
//! *when* the fsync happens, never what bytes reach the disk. A zero
//! window is exactly the old behavior: one inline fsync per record,
//! byte-identical on disk.
//!
//! ## The recovery contract
//!
//! [`ShardStore::open`] loads the newest valid checkpoint and decodes
//! the segments oldest-to-newest, tolerating exactly the artifacts a
//! crash can leave and refusing everything else:
//!
//! * a **torn tail** — the newest segment ends mid-frame (or
//!   mid-footer, or even mid-header), the signature of a crash during a
//!   write. The partial bytes are truncated away and recovery proceeds
//!   from the last complete record; the dropped byte count is reported,
//!   never hidden.
//! * a **subsumed prefix** — records (or whole sealed segments) with
//!   sequence numbers at or below the checkpoint's: the active
//!   segment's head in the steady state, or whatever a crash between
//!   the checkpoint rename and the retirement left. The checkpoint
//!   already folds them in, so they are skipped (and fully subsumed
//!   segments deleted), never replayed twice.
//! * a **sealed newest segment** — a crash in the roll window, after
//!   the seal fsync but before the successor segment was created.
//!   Recovery opens a fresh successor; nothing was lost.
//! * **corruption** — a complete frame whose CRC or length prefix does
//!   not match the fixed layout, a sequence break, a failed seal-footer
//!   CRC, a gap in the segment numbering, or a pre-segment single-file
//!   `wal.log`. That is bit rot or foul play, not a crash artifact, and
//!   recovery refuses loudly ([`PersistError::Corrupt`]) rather than
//!   replaying garbage.
//!
//! Recovery is deterministic: the same on-disk bytes produce the same
//! rebuilt shard, bit for bit, on every attempt — the crash-kill chaos
//! suite (`tests/crash_recovery.rs`) pins this by recovering twice from
//! copies of the same directory.
//!
//! ## Deterministic crash points
//!
//! A [`CrashSpec`] arms the store with a *crash point* — die after the
//! Nth WAL append, write only half of the Nth append (a torn write),
//! die midway through the Nth checkpoint submitted (the request that
//! submitted it waits for that one write), write only half of the Nth
//! seal footer (`seal:N`), or die after the Nth seal lands but before
//! the successor segment exists (`segment-roll:N`). The store writes
//! what is staged, performs the partial effect, then reports
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
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// The single-file WAL name used before the log was segmented. Found
/// on disk it is refused by name — this build neither reads nor
/// silently migrates the old layout.
pub const LEGACY_WAL_FILE: &str = "wal.log";
/// The checkpoint file inside a shard's directory.
pub const CHECKPOINT_FILE: &str = "checkpoint.json";
/// The scratch name a checkpoint is written to before the atomic rename.
pub const CHECKPOINT_TMP: &str = "checkpoint.tmp";

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
        for &b in bytes {
            self.0 ^= b as u32;
            for _ in 0..8 {
                let mask = (self.0 & 1).wrapping_neg();
                self.0 = (self.0 >> 1) ^ (0xEDB8_8320 & mask);
            }
        }
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
    let mut f = [0u8; SEGMENT_FOOTER_BYTES];
    f[..4].copy_from_slice(&SEAL_MARK.to_le_bytes());
    f[4..12].copy_from_slice(&last_seq.to_le_bytes());
    let mut crc = Crc32::new();
    crc.update(segment);
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

/// How [`decode_wal`] found the end of the log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalTail {
    /// The log ends exactly on a frame boundary.
    Clean,
    /// The log ends mid-frame — a crash interrupted an append. The
    /// partial record is not replayed; `valid_bytes` is where the log
    /// should be truncated and `dropped_bytes` what the truncation
    /// discards.
    Torn {
        /// Bytes of complete, valid frames.
        valid_bytes: u64,
        /// Trailing bytes of the incomplete frame.
        dropped_bytes: u64,
    },
}

/// One step of frame decoding at `pos`.
enum FrameStep {
    /// A complete, valid record; the second field is the next position.
    Record(WalRecord, usize),
    /// The bytes end mid-frame: a torn write, not corruption.
    Torn,
}

/// Decode the frame starting at `pos`, validating length, CRC and
/// payload invariants. Absolute offsets (including any segment header
/// before the frames) land in the error messages unchanged.
fn decode_frame(bytes: &[u8], pos: usize) -> Result<FrameStep, PersistError> {
    let remaining = bytes.len() - pos;
    if remaining < 4 {
        return Ok(FrameStep::Torn);
    }
    let len_bytes = &bytes[pos..pos + 4];
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
            offset: pos as u64,
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
            offset: pos as u64,
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
    let stored_crc = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().expect("4 bytes"));
    let payload = &bytes[pos + FRAME_HEADER_BYTES..pos + FRAME_HEADER_BYTES + len];
    let mut crc = Crc32::new();
    crc.update(len_bytes);
    crc.update(payload);
    if crc.finish() != stored_crc {
        return Err(PersistError::Corrupt {
            offset: pos as u64,
            reason: "WAL record CRC mismatch".into(),
        });
    }
    let seq = u64::from_le_bytes(payload[..8].try_into().expect("8 bytes"));
    let clip = u32::from_le_bytes(payload[8..12].try_into().expect("4 bytes"));
    if clip == 0 {
        return Err(PersistError::Corrupt {
            offset: pos as u64,
            reason: "WAL record names clip id 0".into(),
        });
    }
    let chunk = u32::from_le_bytes(payload[12..16].try_into().expect("4 bytes"));
    let op = WalOp::from_byte(payload[16]).map_err(|reason| PersistError::Corrupt {
        offset: pos as u64,
        reason,
    })?;
    if op != WalOp::GetRange && chunk != 0 {
        return Err(PersistError::Corrupt {
            offset: pos as u64,
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
        pos + FRAME_HEADER_BYTES + len,
    ))
}

/// Decode a bare WAL frame stream (no segment header) into records.
///
/// An *incomplete* final frame (fewer bytes than its header or declared
/// length promises) is a torn tail: the complete prefix is returned with
/// [`WalTail::Torn`]. A frame whose (fully present) length prefix is not
/// the fixed record layout, whose CRC fails, or that breaks anything
/// else is corruption and fails loudly — no record after the first
/// invalid byte is ever returned, no valid frame is ever silently
/// discarded as a "torn tail", and no invalid record is ever replayed.
pub fn decode_wal(bytes: &[u8]) -> Result<(Vec<WalRecord>, WalTail), PersistError> {
    let mut records = Vec::new();
    let mut pos = 0usize;
    while pos < bytes.len() {
        match decode_frame(bytes, pos)? {
            FrameStep::Record(record, next) => {
                records.push(record);
                pos = next;
            }
            FrameStep::Torn => {
                return Ok((
                    records,
                    WalTail::Torn {
                        valid_bytes: pos as u64,
                        dropped_bytes: (bytes.len() - pos) as u64,
                    },
                ));
            }
        }
    }
    Ok((records, WalTail::Clean))
}

/// How [`decode_segment`] found the end of a segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SegmentEnd {
    /// No seal footer: the segment is (or was) the active one. The tail
    /// says whether it ends on a frame boundary or mid-write; a torn
    /// tail with `valid_bytes` shorter than the header means even the
    /// header never finished (a crash during segment creation).
    Unsealed(WalTail),
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
/// back as [`SegmentEnd::Unsealed`] with a torn tail for the caller to
/// truncate — only ever legitimate on the *newest* segment. Everything
/// else that fails validation is loud corruption, including a single
/// flipped bit anywhere in a sealed segment (the footer CRC covers
/// every byte).
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
            end: SegmentEnd::Unsealed(WalTail::Torn {
                valid_bytes: 0,
                dropped_bytes: header.len() as u64,
            }),
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
        let torn = SegmentEnd::Unsealed(WalTail::Torn {
            valid_bytes: pos,
            dropped_bytes: remaining as u64,
        });
        if remaining == 0 {
            return Ok(SegmentScan {
                end: SegmentEnd::Unsealed(WalTail::Clean),
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
        // The window holds a whole frame unless the file ends first,
        // so a short frame here is a genuine torn tail.
        match decode_frame(bytes, 0).map_err(|e| match e {
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
/// Either way every logged request's frame reaches the *operating
/// system* before its reply is sent, so the log survives a killed
/// process (`kill -9`); the difference is whether it also survives a
/// power failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WalSync {
    /// `fsync` before a request is acknowledged: survives power loss.
    /// With a zero commit window that is one fsync per append; with a
    /// nonzero window, concurrent appends share one batched fsync.
    Always,
    /// Flush to the OS page cache only (the default): survives process
    /// death, trusts the kernel for power loss. Frames are staged in
    /// the shard's store and written together, one `write` per shard
    /// per batch of requests (an event-loop batch, or a single
    /// in-process request), before any reply of the batch is sent.
    /// Checkpoints and seal footers still fsync.
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
    /// Die midway through writing the Nth durable checkpoint (the tmp
    /// file is half-written; the rename never happens).
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
    /// Group-commit batch window (`--commit-window-us`); zero means one
    /// inline fsync per append under [`WalSync::Always`].
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
    /// The checkpoint file exists but cannot be trusted (bad version,
    /// missing fields, policy mismatch with the running config).
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
    /// after a crash between a checkpoint rename and its retirement.
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
}

impl CommitQueue {
    fn new(window: Duration, durable_through: u64, file: Arc<File>) -> Arc<CommitQueue> {
        Arc::new(CommitQueue {
            window,
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

    fn note_write(&self, seq: u64) {
        let mut st = self.lock();
        st.written = st.written.max(seq);
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

    fn current_epoch(&self) -> u64 {
        self.lock().epoch
    }

    /// Block until `seq` (from `epoch`) is durable. The first
    /// non-durable waiter becomes the leader: it gives later appends up
    /// to the commit window to pile in — leaving early once a poll
    /// slice passes with no new writes — then issues one fsync for the
    /// whole batch.
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
            let synced = file.sync_data();
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

/// A claim check for a group-committed append: [`wait`](Self::wait)
/// blocks until the record's batched fsync lands (or fails). Wait
/// *after* releasing the shard lock, so concurrent appends can ride the
/// same batch — waiting under the lock serializes the queue and buys
/// nothing.
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

/// Write `json` as the checkpoint in `dir`: tmp file, fsync, rename,
/// directory fsync — the rename is the commit point, so a crash at any
/// step leaves either the old checkpoint or the new one, never half of
/// one. With `crash` set (the armed `checkpoint:N` point) only half
/// the tmp file is written, then [`PersistError::CrashInjected`]
/// reports the death; recovery ignores the tmp and keeps the previous
/// checkpoint.
fn write_checkpoint_file(dir: &Path, json: &str, crash: bool) -> Result<(), PersistError> {
    let tmp = dir.join(CHECKPOINT_TMP);
    let mut f = File::create(&tmp)?;
    if crash {
        f.write_all(&json.as_bytes()[..json.len() / 2])?;
        f.sync_data()?;
        return Err(PersistError::CrashInjected);
    }
    f.write_all(json.as_bytes())?;
    f.sync_data()?;
    drop(f);
    std::fs::rename(&tmp, dir.join(CHECKPOINT_FILE))?;
    // Make the rename itself durable (best effort: not every
    // filesystem lets you open a directory for sync).
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
    Ok(())
}

/// A checkpoint handed to the writer, already encoded.
struct Submission {
    dir: PathBuf,
    json: String,
    /// The last WAL sequence number it covers.
    seq: u64,
    /// The armed `checkpoint:N` point: write half, then die.
    crash: bool,
}

/// One shard's one-slot mailbox, and what the writer reports back.
#[derive(Default)]
struct Slot {
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
    slots: Vec<Slot>,
    /// Write what is pending, then exit.
    stop: bool,
    thread: Option<std::thread::JoinHandle<()>>,
}

/// The background checkpoint writer a durable service shares among its
/// shards: one thread, spawned at the first submission, serving one
/// mailbox slot per shard. Checkpoints of one shard land in submission
/// order, so the checkpoint on disk never moves backwards.
pub(crate) struct CheckpointWriter {
    state: Mutex<WriterState>,
    /// Wakes the thread on a submission or stop, and waiters on a
    /// finished write.
    cv: Condvar,
}

impl CheckpointWriter {
    /// A writer with one mailbox slot per shard and no thread yet.
    pub(crate) fn new(shards: usize) -> Arc<CheckpointWriter> {
        Arc::new(CheckpointWriter {
            state: Mutex::new(WriterState {
                slots: (0..shards).map(|_| Slot::default()).collect(),
                stop: false,
                thread: None,
            }),
            cv: Condvar::new(),
        })
    }

    fn lock(&self) -> MutexGuard<'_, WriterState> {
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }

    fn wait<'a>(&self, st: MutexGuard<'a, WriterState>) -> MutexGuard<'a, WriterState> {
        self.cv.wait(st).unwrap_or_else(|p| p.into_inner())
    }

    /// Put `sub` in shard `index`'s slot, replacing a pending one.
    fn submit(self: &Arc<Self>, index: usize, sub: Submission) -> Result<(), PersistError> {
        let mut st = self.lock();
        if st.thread.is_none() {
            let writer = Arc::clone(self);
            st.thread = Some(
                std::thread::Builder::new()
                    .name("checkpoint-writer".into())
                    .spawn(move || writer.run())?,
            );
        }
        // A closed slot's failure reaches the shard on its next
        // operation; until then nothing more is written for it.
        if !st.slots[index].closed {
            st.slots[index].pending = Some(sub);
        }
        drop(st);
        self.cv.notify_all();
        Ok(())
    }

    /// The thread: take pending checkpoints round-robin across slots,
    /// write each outside the lock, report how it went.
    fn run(&self) {
        let mut st = self.lock();
        let mut next = 0;
        loop {
            let n = st.slots.len();
            let ready = (0..n)
                .map(|k| (next + k) % n)
                .find(|&i| st.slots[i].pending.is_some());
            let Some(i) = ready else {
                if st.stop {
                    return;
                }
                st = self.wait(st);
                continue;
            };
            let sub = st.slots[i].pending.take().expect("found above");
            st.slots[i].writing = true;
            drop(st);
            let result = write_checkpoint_file(&sub.dir, &sub.json, sub.crash);
            st = self.lock();
            let slot = &mut st.slots[i];
            slot.writing = false;
            match result {
                Ok(()) => slot.landed = slot.landed.max(sub.seq),
                Err(e) => {
                    slot.failed = Some(e);
                    slot.closed = true;
                    slot.pending = None;
                }
            }
            next = i + 1;
            self.cv.notify_all();
        }
    }

    /// Block until shard `index` has nothing pending or being written.
    fn wait_idle(&self, index: usize) {
        let mut st = self.lock();
        while st.slots[index].pending.is_some() || st.slots[index].writing {
            st = self.wait(st);
        }
    }

    /// Shard `index`'s news: the newest landed seq (0 once the slot is
    /// closed — a dead store retires nothing), a failed write (taken),
    /// and whether the slot is idle.
    fn news(&self, index: usize) -> (u64, Option<PersistError>, bool) {
        let mut st = self.lock();
        let slot = &mut st.slots[index];
        let idle = slot.pending.is_none() && !slot.writing;
        let landed = if slot.closed { 0 } else { slot.landed };
        (landed, slot.failed.take(), idle)
    }

    /// The stores of `slots` died: discard their pending checkpoints
    /// and wait out a write in flight, so nothing lands after the death.
    fn close(&self, slots: std::ops::Range<usize>) {
        let mut st = self.lock();
        for slot in &mut st.slots[slots.clone()] {
            slot.closed = true;
            slot.pending = None;
        }
        while st.slots[slots.clone()].iter().any(|s| s.writing) {
            st = self.wait(st);
        }
    }

    /// An injected crash surfaced: the whole service is a killed
    /// process from here on, so no shard's checkpoint lands and no
    /// shard retires its WAL any more — a successor may already own
    /// the directory.
    pub(crate) fn halt(&self) {
        let shards = self.lock().slots.len();
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
        self.cv.notify_all();
        if thread.is_some_and(|t| t.join().is_err()) {
            eprintln!("clipcache-serve: the checkpoint writer thread panicked");
        }
    }
}

/// The segment currently being appended to.
struct ActiveSegment {
    /// Shared with the commit queue, which fsyncs it from rider threads.
    file: Arc<File>,
    /// This segment's number (its header and file name agree).
    no: u64,
    /// Bytes on disk (header + complete frames).
    len: u64,
    /// Running CRC over every byte on disk, extended per append so the
    /// seal footer never re-reads the file.
    crc: Crc32,
    /// Sequence number of the last record in this segment (0 if none).
    last_seq: u64,
    /// Records on disk in this segment.
    records: u64,
}

/// Create segment `no` in `dir`: header written, flushed, fsynced. The
/// handle is opened in append mode so truncation and appends compose.
fn create_segment(dir: &Path, no: u64) -> Result<ActiveSegment, PersistError> {
    let path = dir.join(segment_file_name(no));
    let file = OpenOptions::new().create(true).append(true).open(&path)?;
    file.set_len(0)?;
    let header = segment_header(no);
    let mut f: &File = &file;
    f.write_all(&header)?;
    f.flush()?;
    file.sync_data()?;
    // Make the file name itself durable (best effort: not every
    // filesystem lets you open a directory for sync).
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
    let mut crc = Crc32::new();
    crc.update(&header);
    Ok(ActiveSegment {
        file: Arc::new(file),
        no,
        len: SEGMENT_HEADER_BYTES as u64,
        crc,
        last_seq: 0,
        records: 0,
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
/// sealed predecessors, the group-commit queue, the armed crash point
/// and, inside a durable service, its slot on the checkpoint writer.
pub struct ShardStore {
    dir: PathBuf,
    sync: WalSync,
    /// Roll threshold: seal the active segment once it reaches this.
    segment_bytes: u64,
    /// Group-commit batch window; zero = inline fsync per append.
    window: Duration,
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
    /// The service's background writer and this store's slot on it;
    /// `None` for a store opened on its own, which checkpoints inline.
    writer: Option<(Arc<CheckpointWriter>, usize)>,
    /// A background checkpoint was submitted and its outcome not yet
    /// collected.
    outstanding: bool,
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
    /// Frames [`stage`](Self::stage)d under [`WalSync::Off`] and not yet
    /// written, in sequence order: the active segment's tail that only
    /// memory holds. Reused, so appends allocate nothing once warm.
    staged: Vec<u8>,
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
    /// A stale checkpoint tmp file (crash mid-checkpoint) is removed; a
    /// torn tail on the newest segment is truncated in place; sealed
    /// segments fully subsumed by the checkpoint are deleted, and an
    /// active segment holding only subsumed records is truncated; a
    /// sealed *newest* segment (crash in the roll window) gets a fresh
    /// successor. Mid-log corruption, version skew, numbering gaps, a
    /// pre-segment `wal.log` and untrusted checkpoints all fail loudly.
    ///
    /// Segments stream through one fixed buffer and subsumed records
    /// are only counted, so memory stays flat however long the log.
    pub fn open_tuned(
        dir: &Path,
        sync: WalSync,
        tuning: WalTuning,
    ) -> Result<(ShardStore, DurableState), PersistError> {
        std::fs::create_dir_all(dir)?;
        // A tmp file means a checkpoint write died before its rename;
        // the real checkpoint (if any) is intact, the tmp is garbage.
        let tmp = dir.join(CHECKPOINT_TMP);
        if tmp.exists() {
            std::fs::remove_file(&tmp)?;
        }
        let ckpt_path = dir.join(CHECKPOINT_FILE);
        let checkpoint = if ckpt_path.exists() {
            let json = std::fs::read_to_string(&ckpt_path)?;
            Some(DurableCheckpoint::from_json(&json).map_err(PersistError::BadCheckpoint)?)
        } else {
            None
        };
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
                SegmentEnd::Unsealed(_) if i + 1 != listed.len() => {
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
                SegmentEnd::Unsealed(_) => {}
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
            None => create_segment(dir, 1)?,
            Some((no, path, scan)) => match scan.end {
                SegmentEnd::Sealed { .. } => {
                    // A crash in the roll window: the seal landed, the
                    // successor was never created. Open one now. (If the
                    // sealed segment was fully subsumed it is already
                    // deleted above; the numbering still moves forward.)
                    create_segment(dir, no + 1)?
                }
                SegmentEnd::Unsealed(tail) => {
                    let file = OpenOptions::new().create(true).append(true).open(path)?;
                    let (mut len, mut crc) = (scan.valid_len, scan.crc);
                    let (mut on_disk_records, mut on_disk_last) = (scan.records, scan.last_seq);
                    match tail {
                        WalTail::Torn {
                            valid_bytes,
                            dropped_bytes,
                        } if (valid_bytes as usize) < SEGMENT_HEADER_BYTES => {
                            // Even the header never finished (a crash
                            // during segment creation): rewrite it.
                            file.set_len(0)?;
                            let header = segment_header(no);
                            let mut f: &File = &file;
                            f.write_all(&header)?;
                            f.flush()?;
                            file.sync_data()?;
                            torn_bytes_dropped = dropped_bytes;
                            len = SEGMENT_HEADER_BYTES as u64;
                            crc = Crc32::new();
                            crc.update(&header);
                        }
                        WalTail::Torn {
                            valid_bytes,
                            dropped_bytes,
                        } => {
                            // Truncate the partial record (or partial
                            // seal footer) so the next open sees a
                            // clean segment.
                            file.set_len(valid_bytes)?;
                            file.sync_data()?;
                            torn_bytes_dropped = dropped_bytes;
                        }
                        WalTail::Clean if on_disk_records > 0 && on_disk_last <= ckpt_seq => {
                            // Every record is subsumed: retire the
                            // segment's records now. A crash during
                            // *this* set_len only shortens a log whose
                            // every byte the checkpoint already covers.
                            file.set_len(SEGMENT_HEADER_BYTES as u64)?;
                            file.sync_data()?;
                            on_disk_records = 0;
                            on_disk_last = 0;
                            len = SEGMENT_HEADER_BYTES as u64;
                            crc = Crc32::new();
                            crc.update(&segment_header(no));
                        }
                        WalTail::Clean => {}
                    }
                    ActiveSegment {
                        file: Arc::new(file),
                        no,
                        len,
                        crc,
                        last_seq: on_disk_last,
                        records: on_disk_records,
                    }
                }
            },
        };
        let next_seq = records.last().map_or(ckpt_seq, |r| r.seq) + 1;
        let queue = CommitQueue::new(tuning.commit_window, next_seq - 1, Arc::clone(&active.file));
        Ok((
            ShardStore {
                dir: dir.to_path_buf(),
                sync,
                segment_bytes: tuning.segment_bytes,
                window: tuning.commit_window,
                active,
                sealed,
                queue,
                next_seq,
                ckpt_seq,
                writer: None,
                outstanding: false,
                appends: 0,
                checkpoints: 0,
                seals: 0,
                crash: None,
                dead: false,
                staged: Vec::new(),
            },
            DurableState {
                checkpoint,
                records,
                torn_bytes_dropped,
                subsumed_records,
            },
        ))
    }

    /// Write this store's background checkpoints through `writer`'s slot
    /// `index` (one slot per shard of a durable service).
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

    /// The active segment's number and the lowest segment number still
    /// on disk — `(oldest, active)`.
    pub fn segment_span(&self) -> (u64, u64) {
        let oldest = self.sealed.front().map_or(self.active.no, |&(no, _)| no);
        (oldest, self.active.no)
    }

    /// Whether appends ride the group-commit queue (sync `always` with
    /// a nonzero commit window).
    fn group_commit(&self) -> bool {
        self.sync == WalSync::Always && !self.window.is_zero()
    }

    /// The ticket to wait on for `seq` to become durable, if this store
    /// group-commits. `None` means the append is already as durable as
    /// the sync policy makes it (inline fsync, or no fsync at all).
    pub fn commit_ticket(&self, seq: u64) -> Option<CommitTicket> {
        if !self.group_commit() {
            return None;
        }
        Some(CommitTicket {
            queue: Arc::clone(&self.queue),
            epoch: self.queue.current_epoch(),
            seq,
        })
    }

    /// Append one whole-clip access to the WAL, returning its sequence
    /// number. Frames staged before it are written with it.
    ///
    /// The frame is flushed to the OS before the call returns; with
    /// [`WalSync::Always`] it is also fsynced — inline when the commit
    /// window is zero, else by the batched fsync the returned sequence
    /// number's [`commit_ticket`](Self::commit_ticket) waits on. An
    /// armed crash point may fire here: `torn:N` writes half the frame
    /// then dies, `append:N` dies after the frame is durable, and
    /// `seal:N` / `segment-roll:N` fire if this append fills the
    /// segment.
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
        self.write_staged()?;
        Ok(seq)
    }

    /// Append one chunk-granular residency probe to the WAL.
    pub fn append_range(&mut self, clip: ClipId, chunk: u32) -> Result<u64, PersistError> {
        let seq = self.stage(WalOp::GetRange, clip, chunk)?;
        self.write_staged()?;
        Ok(seq)
    }

    /// Log one access, returning its sequence number. Under
    /// [`WalSync::Off`] the frame is only encoded into the staging
    /// buffer: it reaches the OS at the next
    /// [`write_staged`](Self::write_staged), which must come before the
    /// access is acknowledged — so a run of requests costs one `write`.
    /// Under [`WalSync::Always`] the frame is written (and fsynced, or
    /// queued for the batched fsync) here, exactly as by
    /// [`append`](Self::append). Every crash point writes what is staged
    /// before its partial effect, so each keeps its meaning.
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
                // Half the frame reaches the disk, after every frame
                // staged before it; the process dies mid-write.
                // Recovery must truncate this tail.
                self.write_staged()?;
                let mut f: &File = &self.active.file;
                f.write_all(&frame[..frame.len() / 2])?;
                f.flush()?;
                self.active.file.sync_data()?;
                // That fsync also made every earlier record in the
                // segment durable: release any riders before the store
                // goes dead.
                if self.group_commit() {
                    self.queue.note_durable(self.active.last_seq);
                }
                self.die();
                return Err(PersistError::CrashInjected);
            }
        }
        if self.sync == WalSync::Off {
            self.staged.extend_from_slice(&frame);
        } else if let Err(e) = self.write_frame(&frame) {
            // The frame may be partially on disk; a retried append after
            // it would decode as garbage. Refuse further operations —
            // the caller recovers from disk, which truncates the torn
            // frame — rather than silently diverging.
            self.kill();
            return Err(e);
        }
        self.active.len += frame.len() as u64;
        self.active.crc.update(&frame);
        self.active.last_seq = seq;
        self.active.records += 1;
        if self.group_commit() {
            self.queue.note_write(seq);
        }
        self.appends += 1;
        self.next_seq += 1;
        if let Some(CrashSpec {
            point: CrashPoint::AfterAppend(n),
        }) = self.crash
        {
            if self.appends == n {
                // The record IS durable; the process dies right after.
                self.write_staged()?;
                self.active.file.sync_data()?;
                if self.group_commit() {
                    self.queue.note_durable(seq);
                }
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

    /// Write every staged frame with one `write`, in sequence order. A
    /// no-op when nothing is staged; a dead store reports its death
    /// instead (its staged frames, never acknowledged, died with it). A
    /// failed write kills the store: the frames may be partly on disk.
    pub(crate) fn write_staged(&mut self) -> Result<(), PersistError> {
        if self.dead {
            return Err(PersistError::CrashInjected);
        }
        if self.staged.is_empty() {
            return Ok(());
        }
        let mut f: &File = &self.active.file;
        let written = f.write_all(&self.staged).and_then(|()| f.flush());
        self.staged.clear();
        if let Err(e) = written {
            self.kill();
            return Err(e.into());
        }
        Ok(())
    }

    /// The fallible I/O of one unstaged ([`WalSync::Always`]) append;
    /// [`stage`](Self::stage) kills the store if any step fails. Inline
    /// fsync happens only with a zero commit window — otherwise the
    /// batched fsync owns it.
    fn write_frame(&mut self, frame: &[u8]) -> Result<(), PersistError> {
        let mut f: &File = &self.active.file;
        f.write_all(frame)?;
        f.flush()?;
        if self.window.is_zero() {
            self.active.file.sync_data()?;
        }
        Ok(())
    }

    /// Seal the active segment (footer write + fsync) and open its
    /// successor, after writing what is staged. The `seal:N` and
    /// `segment-roll:N` crash points fire here.
    fn roll(&mut self) -> Result<(), PersistError> {
        self.write_staged()?;
        let mut footer = [0u8; SEGMENT_FOOTER_BYTES];
        footer[..4].copy_from_slice(&SEAL_MARK.to_le_bytes());
        footer[4..12].copy_from_slice(&self.active.last_seq.to_le_bytes());
        let mut crc = self.active.crc.clone();
        crc.update(&footer[..12]);
        footer[12..].copy_from_slice(&crc.finish().to_le_bytes());
        if let Some(CrashSpec {
            point: CrashPoint::TornSeal(n),
        }) = self.crash
        {
            if self.seals + 1 == n {
                // Half the footer reaches the disk; the process dies
                // mid-seal. Recovery truncates the partial footer and
                // the segment stays active.
                let mut f: &File = &self.active.file;
                f.write_all(&footer[..SEGMENT_FOOTER_BYTES / 2])?;
                f.flush()?;
                self.active.file.sync_data()?;
                // The partial-footer fsync still made every record in
                // the segment durable.
                if self.group_commit() {
                    self.queue.note_durable(self.active.last_seq);
                }
                self.die();
                return Err(PersistError::CrashInjected);
            }
        }
        let sealed = {
            let mut f: &File = &self.active.file;
            f.write_all(&footer)
                .and_then(|()| f.flush())
                .and_then(|()| self.active.file.sync_data())
        };
        if let Err(e) = sealed {
            self.kill();
            return Err(e.into());
        }
        self.seals += 1;
        self.sealed
            .push_back((self.active.no, self.active.last_seq));
        // The seal fsync made every record in this segment durable.
        if self.group_commit() {
            self.queue.note_durable(self.active.last_seq);
        }
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
        match create_segment(&self.dir, self.active.no + 1) {
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

    /// Write a durable checkpoint and wait for it: the checkpoint-file
    /// write, then the retirement of the WAL through its seq.
    /// Open-time compaction and the offline tools use this; a durable
    /// service's periodic checkpoints go through
    /// [`submit_checkpoint`](Self::submit_checkpoint) instead.
    ///
    /// Order matters for crash safety: tmp write → fsync → rename →
    /// retirement. A crash before the rename leaves the old checkpoint
    /// with the full log; a crash after it leaves the new checkpoint
    /// with a subsumed prefix that [`open`](Self::open) skips — never a
    /// state that cannot recover. A non-crash I/O failure partway
    /// through kills the store: refusing further appends beats letting
    /// disk and memory drift apart.
    ///
    /// A checkpoint claiming records not yet appended (`seq` ≥
    /// [`next_seq`](Self::next_seq)) is refused as
    /// [`PersistError::BadCheckpoint`]; an older one is written as is
    /// and never rewinds the sequence numbers appends receive.
    pub fn checkpoint(&mut self, ckpt: &DurableCheckpoint) -> Result<(), PersistError> {
        self.admit_checkpoint(ckpt)?;
        // A background write still in flight must not land after this one.
        self.settle()?;
        let crash = self.count_checkpoint()?;
        if let Err(e) = write_checkpoint_file(&self.dir, &ckpt.to_json(), crash) {
            self.kill();
            return Err(e);
        }
        self.retire_through(ckpt.seq)
    }

    /// Hand a checkpoint to the service's background writer and return
    /// without waiting for its fsyncs. Its WAL is retired once the
    /// store learns it landed, on its next operation; a failed write
    /// kills the store and that operation reports it. The armed
    /// `checkpoint:N` point is the exception: the submission waits for
    /// its half-written file and reports the crash itself. A store with
    /// no writer (opened on its own) checkpoints inline.
    pub fn submit_checkpoint(&mut self, ckpt: &DurableCheckpoint) -> Result<(), PersistError> {
        let Some((writer, index)) = self.writer.clone() else {
            return self.checkpoint(ckpt);
        };
        self.admit_checkpoint(ckpt)?;
        let crash = self.count_checkpoint()?;
        let sub = Submission {
            dir: self.dir.clone(),
            json: ckpt.to_json(),
            seq: ckpt.seq,
            crash,
        };
        if let Err(e) = writer.submit(index, sub) {
            self.kill();
            return Err(e);
        }
        self.outstanding = true;
        if crash {
            writer.wait_idle(index);
            let err = self.collect_writes().err();
            self.kill();
            return Err(err.unwrap_or(PersistError::CrashInjected));
        }
        Ok(())
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
    /// and report it. Runs at the start of every append, and is a
    /// no-op unless a background checkpoint is outstanding.
    pub(crate) fn collect_writes(&mut self) -> Result<(), PersistError> {
        if !self.outstanding || self.dead {
            return Ok(());
        }
        let Some((writer, index)) = &self.writer else {
            return Ok(());
        };
        let (landed, failed, idle) = writer.news(*index);
        if let Some(e) = failed {
            self.kill();
            return Err(e);
        }
        self.outstanding = !idle;
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
        if self.group_commit() {
            self.queue.note_durable(seq);
        }
        if let Err(e) = self.drop_segments_through(seq) {
            self.kill();
            return Err(e);
        }
        Ok(())
    }

    /// Write what is staged, then delete the sealed segments whose last
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
            self.active.file.set_len(SEGMENT_HEADER_BYTES as u64)?;
            self.active.file.sync_data()?;
            self.active.len = SEGMENT_HEADER_BYTES as u64;
            self.active.crc = Crc32::new();
            self.active.crc.update(&segment_header(self.active.no));
            self.active.last_seq = 0;
            self.active.records = 0;
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
    /// disk and memory describing the same state. A background
    /// checkpoint still pending or in flight lands first, so the
    /// rewind target is the newest one submitted. Pending group-commit
    /// riders error out (their records are gone; their sequence numbers
    /// will be reissued).
    pub fn rewind_to_checkpoint(&mut self) -> Result<(), PersistError> {
        if self.dead {
            return Err(PersistError::CrashInjected);
        }
        self.settle()?;
        if let Err(e) = self.drop_segments_through(u64::MAX) {
            // The cleanup may be partial: disk no longer matches
            // either the pre- or post-rewind state. Refuse to continue.
            self.kill();
            return Err(e);
        }
        self.next_seq = self.ckpt_seq + 1;
        if self.group_commit() {
            self.queue.rewound(self.ckpt_seq);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests;
