//! The WAL's on-disk format — CRC-32, record frames, segment headers
//! and seal footers — the streaming segment scan open runs, and the
//! active segment with its mapped tail.

use super::store::SyncLedger;
use super::*;
use clipcache_media::ClipId;
use std::fs::{File, OpenOptions};
use std::io::Read;
use std::os::unix::fs::FileExt;
use std::path::Path;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// CRC-32 (IEEE 802.3, reflected 0xEDB88320) over `bytes` — the same
/// polynomial zlib and ethernet use, hand-rolled because the offline
/// build vendors no checksum crate.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(bytes);
    crc.finish()
}

/// The reflected CRC-32 polynomial.
pub(super) const CRC_POLY: u32 = 0xEDB8_8320;

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
pub(super) struct Crc32(u32);

impl Crc32 {
    pub(super) fn new() -> Self {
        Crc32(0xFFFF_FFFF)
    }

    pub(super) fn update(&mut self, bytes: &[u8]) {
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

    pub(super) fn finish(self) -> u32 {
        !self.0
    }
}

/// The file name of WAL segment `no` (1-based): `wal.000001.log`, …
pub fn segment_file_name(no: u64) -> String {
    format!("wal.{no:06}.log")
}

/// Parse a segment number back out of a `wal.NNNNNN.log` file name.
pub(super) fn parse_segment_no(name: &str) -> Option<u64> {
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
pub(super) fn footer_after(mut crc: Crc32, last_seq: u64) -> [u8; SEGMENT_FOOTER_BYTES] {
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
pub(super) const SCAN_BUF_BYTES: usize = 64 * 1024;

/// Bytes in one complete record frame.
pub(super) const FRAME_BYTES: usize = FRAME_HEADER_BYTES + RECORD_PAYLOAD_BYTES;

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
pub(super) struct SegmentScan {
    pub(super) end: SegmentEnd,
    /// Records in the segment.
    pub(super) records: u64,
    /// Sequence number of its last record (0 if none).
    pub(super) last_seq: u64,
    /// Bytes of header plus complete frames (where a torn tail is cut).
    pub(super) valid_len: u64,
    /// CRC over those `valid_len` bytes — the running
    /// digest an active segment resumes appending from.
    pub(super) crc: Crc32,
}

/// Stream segment `no` from `src` through `buf`, handing each valid
/// record to `on_record` in order; the validation (and every error
/// message and absolute offset) is [`decode_segment`]'s.
pub(super) fn scan_segment(
    src: impl Read,
    no: u64,
    buf: &mut [u8],
    mut on_record: impl FnMut(WalRecord) -> Result<(), PersistError>,
) -> Result<SegmentScan, PersistError> {
    let mut w = Window::new(src, buf);
    let mut scan = SegmentScan {
        end: SegmentEnd::Clean,
        records: 0,
        last_seq: 0,
        valid_len: 0,
        crc: Crc32::new(),
    };
    let header = w.fill(SEGMENT_HEADER_BYTES)?;
    if header.len() < SEGMENT_HEADER_BYTES {
        // The segment was created but its header never finished: a
        // crash artifact, only tolerable on the newest segment.
        scan.end = SegmentEnd::Torn {
            valid_bytes: 0,
            dropped_bytes: header.len() as u64,
        };
        return Ok(scan);
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
        scan.end = SegmentEnd::Torn {
            valid_bytes: 0,
            dropped_bytes: dropped,
        };
        return Ok(scan);
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
    scan.crc.update(&header[..SEGMENT_HEADER_BYTES]);
    w.consume(SEGMENT_HEADER_BYTES);
    scan.end = loop {
        let pos = w.offset;
        scan.valid_len = pos;
        let bytes = w.fill(FRAME_BYTES)?;
        let remaining = bytes.len();
        let torn = SegmentEnd::Torn {
            valid_bytes: pos,
            dropped_bytes: remaining as u64,
        };
        if remaining == 0 {
            break SegmentEnd::Clean;
        }
        if remaining >= 4
            && u32::from_le_bytes(bytes[..4].try_into().expect("4 bytes")) == SEAL_MARK
        {
            if remaining < SEGMENT_FOOTER_BYTES {
                // The seal itself tore: the records before it are fine,
                // the segment simply stays unsealed.
                break torn;
            }
            let footer_seq = u64::from_le_bytes(bytes[4..12].try_into().expect("8"));
            let stored = u32::from_le_bytes(bytes[12..16].try_into().expect("4"));
            let mut check = scan.crc.clone();
            check.update(&bytes[..12]);
            if check.finish() != stored {
                return Err(PersistError::Corrupt {
                    offset: pos,
                    reason: "sealed segment CRC mismatch (a bit flipped somewhere \
                             in the segment)"
                        .into(),
                });
            }
            if scan.records == 0 {
                return Err(PersistError::Corrupt {
                    offset: pos,
                    reason: "sealed segment holds no records".into(),
                });
            }
            if scan.last_seq != footer_seq {
                return Err(PersistError::Corrupt {
                    offset: pos,
                    reason: format!(
                        "seal footer names last seq {footer_seq} but the \
                         segment ends at seq {}",
                        scan.last_seq
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
            scan.valid_len = pos + SEGMENT_FOOTER_BYTES as u64;
            break SegmentEnd::Sealed {
                last_seq: scan.last_seq,
            };
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
            break SegmentEnd::ZeroTail {
                valid_bytes: pos,
                dropped_bytes: dropped as u64,
            };
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
                scan.crc.update(&bytes[..next]);
                w.consume(next);
                on_record(record)?;
                scan.records += 1;
                scan.last_seq = record.seq;
            }
            FrameStep::Torn => break torn,
        }
    };
    Ok(scan)
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
pub(super) fn check_filesystem(dir: &Path) -> Result<(), PersistError> {
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
pub(super) struct ActiveSegment {
    /// Shared with the commit queue, which fsyncs it from rider threads.
    pub(super) file: Arc<File>,
    /// This segment's number (its header and file name agree).
    pub(super) no: u64,
    /// Bytes of the header plus every frame, staged ones included:
    /// where the next frame goes, and what the roll threshold compares.
    pub(super) len: u64,
    /// Running CRC over those bytes, extended per append so the seal
    /// footer never re-reads the file.
    pub(super) crc: Crc32,
    /// Sequence number of the last record in this segment (0 if none).
    pub(super) last_seq: u64,
    /// Records in this segment, staged ones included.
    pub(super) records: u64,
    /// Bytes of the header and the frames published into the file.
    pub(super) published: u64,
    /// The file's length: `published` plus the zero-filled reservation
    /// ahead of it.
    pub(super) reserved: u64,
    /// The mapping the next frames are published through.
    map: Option<TailMap>,
}

impl ActiveSegment {
    /// The segment `file` holds `scan`'s valid bytes of, trimmed to them
    /// and unmapped.
    pub(super) fn resumed(file: File, no: u64, scan: &SegmentScan) -> ActiveSegment {
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
    pub(super) fn publish(&mut self, frames: &[u8], cap: u64) -> std::io::Result<()> {
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
    pub(super) fn publish_torn(&mut self, frame: &[u8], cap: u64) -> std::io::Result<()> {
        let dst = self.slot(FRAME_BYTES, cap)?;
        // SAFETY: as in `publish`.
        unsafe { publish_frame(dst, frame, (FRAME_BYTES - FRAME_LEN_BYTES) / 2) };
        Ok(())
    }

    /// Room for `n` bytes at the published tail, in the mapping. When
    /// the mapping cannot hold them, reserve and map the span from the
    /// tail's page up to [`MAP_SPAN_BYTES`] on, and no further than
    /// `cap`.
    pub(super) fn slot(&mut self, n: usize, cap: u64) -> std::io::Result<*mut u8> {
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
    pub(super) fn trim(&mut self) -> std::io::Result<()> {
        self.map = None;
        if self.reserved != self.published {
            self.file.set_len(self.published)?;
            self.reserved = self.published;
        }
        Ok(())
    }

    /// Trim the segment, then write `footer` (a seal footer, or part of
    /// one) after its last frame. The next fsync of the file covers
    /// every byte of it, the header included.
    pub(super) fn write_footer(&mut self, footer: &[u8]) -> std::io::Result<()> {
        self.trim()?;
        self.file.write_all_at(footer, self.published)?;
        self.published += footer.len() as u64;
        self.reserved = self.published;
        Ok(())
    }

    /// Truncate the segment to its bare header, fsynced: it holds no
    /// records any more.
    pub(super) fn reset(&mut self, ledger: &SyncLedger) -> Result<(), PersistError> {
        self.published = SEGMENT_HEADER_BYTES as u64;
        self.trim()?;
        ledger.fdatasync(&self.file)?;
        *self = ActiveSegment::bare(Arc::clone(&self.file), self.no);
        Ok(())
    }

    /// Segment `no` in `file`, holding its header and nothing else.
    fn bare(file: Arc<File>, no: u64) -> ActiveSegment {
        let mut crc = Crc32::new();
        crc.update(&segment_header(no));
        let len = SEGMENT_HEADER_BYTES as u64;
        ActiveSegment {
            file,
            no,
            len,
            crc,
            last_seq: 0,
            records: 0,
            published: len,
            reserved: len,
            map: None,
        }
    }
}

/// Create segment `no` in `dir` (replacing any partial file of that
/// name): header written, nothing reserved yet. The header is not
/// fsynced: the first group commit (`always`) or the seal (`off`)
/// covers it. The directory is fsynced only under [`WalSync::Always`],
/// whose first acknowledged record needs the name on disk; under `off`
/// the seal fsyncs it (see [`ShardStore::roll`]).
pub(super) fn create_segment(
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
    file.write_all_at(&segment_header(no), 0)?;
    if sync == WalSync::Always {
        ledger.sync_dir(dir)?;
    }
    Ok(ActiveSegment::bare(Arc::new(file), no))
}

/// List `dir`'s WAL segments as `(number, path)`, sorted by number.
/// A pre-segment single-file `wal.log` or an unparseable `wal.*.log`
/// name is refused loudly.
pub(super) fn scan_segments(dir: &Path) -> Result<Vec<(u64, PathBuf)>, PersistError> {
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
