//! One shard's durable store — the segmented WAL's write path, open's
//! recovery, checkpoints and crash points — with its group-commit queue
//! and the ledger every fsync goes through.

use super::checkpoint::CheckpointSlots;
use super::segment::*;
use super::*;
use clipcache_media::ClipId;
use std::collections::VecDeque;
use std::fs::{File, OpenOptions};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Instant;

/// How long a group-commit leader sleeps per poll while it waits for
/// more riders. Fixed (not a fraction of the window) so a larger
/// window never adds latency once the queue quiesces.
const COMMIT_SLICE: Duration = Duration::from_micros(50);

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
pub(super) struct CommitState {
    /// Highest sequence number written (flushed to the OS).
    written: u64,
    /// Highest sequence number known durable (fsynced, sealed, or
    /// folded into a durable checkpoint).
    pub(super) durable: u64,
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
pub(super) struct CommitQueue {
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
    pub(super) fn lock(&self) -> MutexGuard<'_, CommitState> {
        self.state.lock().unwrap_or_else(|p| p.into_inner())
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
                st = self.cv.wait(st).unwrap_or_else(|p| p.into_inner());
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
pub(super) struct SyncLedger {
    data: AtomicU64,
    dir: AtomicU64,
}

impl SyncLedger {
    /// `fdatasync` `file`.
    pub(super) fn fdatasync(&self, file: &File) -> std::io::Result<()> {
        self.data.fetch_add(1, Ordering::Relaxed);
        file.sync_data()
    }

    /// Make `dir`'s entries durable. A directory that cannot be opened
    /// or fsynced is an error, as a failed `fdatasync` is: a name the
    /// caller needs on disk may not be there.
    pub(super) fn sync_dir(&self, dir: &Path) -> std::io::Result<()> {
        self.dir.fetch_add(1, Ordering::Relaxed);
        File::open(dir)?.sync_all()
    }

    pub(super) fn count(&self) -> FsyncCount {
        FsyncCount {
            data: self.data.load(Ordering::Relaxed),
            dir: self.dir.load(Ordering::Relaxed),
        }
    }
}

/// One shard's durable store: the active segment's append handle, its
/// sealed predecessors, the group-commit queue, the armed crash point
/// and its mailbox on a checkpoint writer, which owns its checkpoint
/// slots: the service's, or its own when opened on its own.
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
    pub(super) queue: Arc<CommitQueue>,
    /// Next sequence number to append.
    next_seq: u64,
    /// Last sequence folded into the durable checkpoint on disk.
    ckpt_seq: u64,
    /// The writer that owns this store's checkpoint slots: its own,
    /// with no thread, until a durable service attaches its shared one.
    pub(super) writer: Arc<CheckpointWriter>,
    /// This store's mailbox on `writer`.
    mailbox: usize,
    /// WAL records between two hand-offs to the writer: a quarter
    /// segment, 41,943 at the default 4 MiB, and at least one.
    handoff_every: u64,
    /// The seq of the newest checkpoint handed to the writer or
    /// landed on this thread.
    handed: u64,
    /// The newest submitted checkpoint not handed to the writer yet;
    /// [`settle`](Self::settle) lands it.
    held: Option<Arc<DurableCheckpoint>>,
    /// The armed crash point and how many operations of the kind it
    /// counts the store has performed since it was armed.
    crash: Option<(CrashPoint, u64)>,
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
    /// durable state to rebuild from, under the module's recovery
    /// contract: crash artifacts are trimmed or created afresh, the
    /// subsumed log is skipped and its sealed segments deleted, and
    /// corruption fails loudly. A legacy `checkpoint.json` is migrated
    /// once: parsed, written into a slot, then deleted with any legacy
    /// `checkpoint.tmp`. Under [`WalSync::Always`] the directory is
    /// fsynced before records are acknowledged into a segment open
    /// resumes, since a run under [`WalSync::Off`] may have left its
    /// name unsynced.
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
                writer: CheckpointWriter::lone(slots),
                mailbox: 0,
                handoff_every: (tuning.segment_bytes / (4 * FRAME_BYTES as u64)).max(1),
                handed: ckpt_seq,
                held: None,
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

    /// Move this store's mailbox, its checkpoint slots with it, onto
    /// `writer`, a durable service's, whose thread then takes its
    /// periodic hand-offs.
    pub(crate) fn attach_writer(&mut self, writer: Arc<CheckpointWriter>) {
        self.mailbox = writer.adopt(&self.writer);
        self.writer = writer;
    }

    /// Arm a crash point. Its count starts now — recovery-time
    /// operations performed before arming never count.
    pub fn arm_crash(&mut self, crash: Option<CrashSpec>) {
        self.crash = crash.map(|spec| (spec.point, 0));
    }

    /// Count one `op` toward the armed crash point: the point, if it
    /// counts `op` and fires at this one.
    fn crash_due(&mut self, op: CrashOp) -> Option<CrashPoint> {
        let (point, count) = self.crash.as_mut()?;
        let (_, counted, n) = point.parts();
        if counted != op {
            return None;
        }
        *count += 1;
        (*count == n).then_some(*point)
    }

    /// The one ending of every crash point, once its partial effect is
    /// on disk: fsync the active segment, release the riders that fsync
    /// made durable, and [`kill`](Self::kill) the store. Returns the
    /// crash to report.
    fn crash(&mut self) -> PersistError {
        if self.ledger.fdatasync(&self.active.file).is_ok() {
            self.queue.note_durable(self.active.last_seq);
        }
        self.kill();
        PersistError::CrashInjected
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
    /// [`CrashPoint`] may fire here, `seal:N` and `segment-roll:N` if
    /// this append fills the segment.
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
        let due = self.crash_due(CrashOp::Append);
        if let Some(CrashPoint::TornAppend(_)) = due {
            // Half the frame's body reaches the segment, after every
            // frame staged before it, and never its length; the process
            // dies mid-publication. Recovery must drop it.
            self.write_staged()?;
            self.active.publish_torn(&frame, self.map_cap())?;
            return Err(self.crash());
        }
        self.staged.extend_from_slice(&frame);
        self.active.len += frame.len() as u64;
        self.active.crc.update(&frame);
        self.active.last_seq = seq;
        self.active.records += 1;
        self.next_seq += 1;
        if let Some(CrashPoint::AfterAppend(_)) = due {
            // The record IS durable; the process dies right after.
            self.write_staged()?;
            return Err(self.crash());
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
    /// tail, in sequence order, as [`commit`](Self::commit) does, but
    /// with no ticket.
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
        let due = self.crash_due(CrashOp::Seal);
        if let Some(CrashPoint::TornSeal(_)) = due {
            // Half the footer reaches the disk; the process dies
            // mid-seal. Recovery truncates the partial footer and the
            // segment stays active.
            self.active
                .write_footer(&footer[..SEGMENT_FOOTER_BYTES / 2])?;
            return Err(self.crash());
        }
        let mut sealed = self
            .active
            .write_footer(&footer)
            .and_then(|()| self.ledger.fdatasync(&self.active.file));
        if sealed.is_ok() && self.sync == WalSync::Off {
            sealed = self.ledger.sync_dir(&self.dir);
        }
        if let Err(e) = sealed {
            self.kill();
            return Err(e.into());
        }
        self.sealed
            .push_back((self.active.no, self.active.last_seq));
        // The seal fsync made every record in this segment durable.
        self.queue.note_durable(self.active.last_seq);
        if let Some(CrashPoint::SegmentRoll(_)) = due {
            // The seal is durable; the successor segment is never
            // created. Recovery opens one.
            return Err(self.crash());
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
    /// [`submit_checkpoint`](Self::submit_checkpoint) instead. It lands
    /// on this thread after a pending hand-off, which lands first (here
    /// too, unless the writer's thread took it); a held refresh it
    /// replaces is never written.
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
        let crash = self.admit_checkpoint(ckpt)?;
        self.land_now(ckpt, crash)
    }

    /// Submit a checkpoint refresh without waiting for any `fdatasync`:
    /// hand it to the writer's thread once the WAL holds a quarter
    /// segment of sequence numbers past the last hand-off
    /// (`segment_bytes / (4 · 25)`, and at least one), and hold it until
    /// then. Its WAL is retired once the store learns it landed, on its
    /// next operation; a failed write kills the store and that operation
    /// reports it. A store opened on its own lands every refresh as
    /// [`checkpoint`](Self::checkpoint) does, and so does the armed
    /// `checkpoint:N`: it lands the held refresh, then half-writes its
    /// own.
    pub fn submit_checkpoint(&mut self, ckpt: Arc<DurableCheckpoint>) -> Result<(), PersistError> {
        let crash = self.admit_checkpoint(&ckpt)?;
        if crash || !self.writer.threaded {
            return self.land_now(&ckpt, crash);
        }
        if ckpt.seq.saturating_sub(self.handed) < self.handoff_every {
            self.held = Some(ckpt);
            return Ok(());
        }
        self.held = None;
        self.handed = ckpt.seq;
        if let Err(e) = self.writer.submit(self.mailbox, ckpt) {
            self.kill();
            return Err(e);
        }
        Ok(())
    }

    /// Land on this thread what this store's mailbox holds — the held
    /// refresh in place of a pending hand-off, or the pending hand-off
    /// — unless the writer's thread took it already: then wait its
    /// write out. Then collect the outcome. A clean shutdown runs this
    /// on every shard, so a reopen replays only the records after the
    /// newest refresh.
    pub(crate) fn settle(&mut self) -> Result<(), PersistError> {
        let held = self.held.take();
        self.handed = held.as_ref().map_or(self.handed, |ckpt| ckpt.seq);
        self.writer.land_here(self.mailbox, held, None);
        self.collect_writes()
    }

    /// Write `ckpt` on this thread once what the mailbox holds has
    /// landed, then retire the WAL behind it. With `crash` set (the
    /// armed `checkpoint:N`) the held refresh lands first and `ckpt`
    /// is only half-written; without it `ckpt` replaces the held
    /// refresh.
    fn land_now(&mut self, ckpt: &DurableCheckpoint, crash: bool) -> Result<(), PersistError> {
        if !crash {
            self.held = None;
        }
        // A hand-off not landed yet must not land after this one.
        self.settle()?;
        self.handed = ckpt.seq;
        self.writer
            .land_here(self.mailbox, None, Some((ckpt, crash)));
        self.collect_writes()
    }

    /// Refuse checkpoints on a dead store and checkpoints covering
    /// records never appended, then count the submission: true when it
    /// is the armed `checkpoint:N`, which first writes what is staged.
    fn admit_checkpoint(&mut self, ckpt: &DurableCheckpoint) -> Result<bool, PersistError> {
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
        let crash = self.crash_due(CrashOp::Checkpoint).is_some();
        if crash {
            // Like every crash point, die with what is staged written.
            self.write_staged()?;
        }
        Ok(crash)
    }

    /// Collect what the writer finished for this store: retire the WAL
    /// behind the checkpoint that landed last, or die of a failed write
    /// and report it (a half-written `checkpoint:N` through the crash
    /// ending). Runs at the start of every append; unless a write
    /// raised news for this store since the last collection it is one
    /// atomic load.
    fn collect_writes(&mut self) -> Result<(), PersistError> {
        if self.dead {
            return Ok(());
        }
        let Some((landed, failed)) = self.writer.news(self.mailbox) else {
            return Ok(());
        };
        match failed {
            Some(PersistError::CrashInjected) => Err(self.crash()),
            Some(e) => {
                self.kill();
                Err(e)
            }
            None => landed.map_or(Ok(()), |seq| self.retire_through(seq)),
        }
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

    /// Mark the store dead, as a fired crash point does, and as an I/O
    /// failure that leaves disk and memory describing different states
    /// does — refusing further appends beats silently diverging. Every
    /// later operation reports [`PersistError::CrashInjected`]. Staged
    /// frames (none acknowledged) and the pending checkpoint are
    /// dropped, a write in flight is waited out so nothing lands after
    /// the death, and group-commit riders not yet durable are woken
    /// with an error, never left hanging.
    pub fn kill(&mut self) {
        self.dead = true;
        self.staged.clear();
        self.held = None;
        self.writer.close(self.mailbox..self.mailbox + 1);
        self.queue.poison();
    }

    /// Discard every WAL record after the checkpoint — the durable
    /// counterpart of a poisoned shard's rewind-to-checkpoint, keeping
    /// disk and memory describing the same state. The held refresh lands
    /// first, in place of a hand-off still pending (or after the one in
    /// flight), so the rewind target is the newest checkpoint submitted.
    /// Pending group-commit riders error out (their records are gone;
    /// their sequence numbers will be reissued).
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
