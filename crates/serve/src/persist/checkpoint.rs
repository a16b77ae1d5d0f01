//! Durable checkpoints: their JSON body, the two CRC-framed slot files
//! they are written into, and the writer that owns a store's slots and
//! lands every checkpoint it writes.

use super::segment::Crc32;
use super::store::SyncLedger;
use super::*;
use clipcache_core::snapshot::CacheSnapshot;
use clipcache_media::ByteSize;
use clipcache_sim::metrics::HitStats;
use std::fs::{File, OpenOptions};
use std::io::Read;
use std::os::unix::fs::FileExt;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

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

/// What one checkpoint slot file holds.
pub(super) enum SlotFrame<'a> {
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
pub(super) fn decode_checkpoint_frame(bytes: &[u8]) -> SlotFrame<'_> {
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
/// A live store's slots belong to its mailbox on a [`CheckpointWriter`],
/// and only [`CheckpointWriter::land`] writes them.
pub(super) struct CheckpointSlots {
    dir: PathBuf,
    /// The slot files' handles, `None` until a file exists.
    files: [Option<File>; 2],
    /// The slot holding the newest landed frame, if any landed.
    newest: Option<usize>,
    /// That frame's generation (0 when none landed). The newest frame
    /// is the one with the higher generation, whatever its `seq`, so
    /// the last checkpoint written wins.
    pub(super) generation: u64,
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
    pub(super) fn open(
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
    pub(super) fn write(&mut self, body: &[u8], crash: bool) -> Result<(), PersistError> {
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

/// One shard's mailbox on the writer: the sole owner of its checkpoint
/// slot files, and what the shard handed off or has yet to collect.
#[derive(Default)]
struct Mailbox {
    /// The slot files; `None` while a write has them out.
    slots: Option<CheckpointSlots>,
    /// The newest hand-off no write has taken, not yet encoded: one a
    /// newer hand-off replaces is never encoded at all.
    pending: Option<Arc<DurableCheckpoint>>,
    /// The seq of the checkpoint that landed last, until collected.
    landed: Option<u64>,
    /// A write failed; the shard's next operation reports it.
    failed: Option<PersistError>,
    /// The store (or the whole service) is dead: nothing pending is
    /// written, nothing new taken, nothing landed is retired.
    closed: bool,
}

#[derive(Default)]
struct WriterState {
    mailboxes: Vec<Mailbox>,
    /// Write what is pending, then exit.
    stop: bool,
    /// The thread is parked on `work` with nothing to do: the one state
    /// in which a submission must wake it.
    parked: bool,
    /// Threads parked on `done`, waiting for a write to finish.
    waiters: usize,
    thread: Option<std::thread::JoinHandle<()>>,
}

/// The writer of a store's checkpoints, owning its slot files through
/// one mailbox per store. Every checkpoint lands through
/// [`land`](Self::land): a periodic hand-off on the writer's thread, if
/// the thread takes it first; anything a store must wait for on the
/// store's own thread. Checkpoints of one shard land in submission
/// order, so the checkpoint on disk never moves backwards.
///
/// A durable service shares one writer, whose thread is spawned at the
/// first hand-off; a store opened on its own has one with no thread.
/// The thread runs at nice 19, so on a saturated core a newer hand-off
/// replaces a pending one instead of the writer preempting the event
/// loop for each. The request path shares no lock with it: a
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
    /// Whether hand-offs go to a thread; a lone store's writer has none.
    pub(super) threaded: bool,
}

impl CheckpointWriter {
    /// A durable service's writer, with room for `shards` mailboxes,
    /// each brought by a store ([`adopt`](Self::adopt)), and no thread
    /// until the first hand-off.
    pub(crate) fn new(shards: usize) -> Arc<CheckpointWriter> {
        Self::build(shards, true, Vec::new())
    }

    /// The writer of a store opened on its own: one mailbox owning
    /// `slots`, and never a thread.
    pub(super) fn lone(slots: CheckpointSlots) -> Arc<CheckpointWriter> {
        let mailbox = Mailbox {
            slots: Some(slots),
            ..Mailbox::default()
        };
        Self::build(1, false, vec![mailbox])
    }

    fn build(shards: usize, threaded: bool, mailboxes: Vec<Mailbox>) -> Arc<CheckpointWriter> {
        Arc::new(CheckpointWriter {
            state: Mutex::new(WriterState {
                mailboxes,
                ..WriterState::default()
            }),
            news: (0..shards).map(|_| AtomicBool::new(false)).collect(),
            work: Condvar::new(),
            done: Condvar::new(),
            threaded,
        })
    }

    fn lock(&self) -> MutexGuard<'_, WriterState> {
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Take over the mailbox of `lone`, a store's own writer, as the
    /// next shard's, returning its index here.
    pub(super) fn adopt(&self, lone: &CheckpointWriter) -> usize {
        let mut st = self.lock();
        st.mailboxes.extend(lone.lock().mailboxes.pop());
        st.mailboxes.len() - 1
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

    /// Put `ckpt` in shard `index`'s mailbox, replacing a pending one,
    /// and wake the thread if it is parked, spawning it at the first
    /// hand-off.
    pub(super) fn submit(
        self: &Arc<Self>,
        index: usize,
        ckpt: Arc<DurableCheckpoint>,
    ) -> Result<(), PersistError> {
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
        let replaced = st.mailboxes[index].pending.replace(ckpt);
        let wake = std::mem::take(&mut st.parked);
        drop(st);
        if wake {
            self.work.notify_one();
        }
        // A superseded checkpoint is freed outside the lock.
        drop(replaced);
        Ok(())
    }

    /// The thread: lower its own priority, then take pending hand-offs
    /// round-robin across mailboxes and land each.
    fn run(&self) {
        lower_priority();
        let mut st = self.lock();
        let mut next = 0;
        loop {
            let n = st.mailboxes.len();
            let ready = (0..n).map(|k| (next + k) % n).find(|&i| {
                let mailbox = &st.mailboxes[i];
                mailbox.pending.is_some() && mailbox.slots.is_some()
            });
            let Some(i) = ready else {
                if st.stop {
                    return;
                }
                st.parked = true;
                st = self.work.wait(st).unwrap_or_else(|p| p.into_inner());
                st.parked = false;
                continue;
            };
            let ckpt = st.mailboxes[i].pending.take().expect("found above");
            st = self.land(st, i, &ckpt, false);
            next = i + 1;
        }
    }

    /// The one place a store's checkpoint is encoded and written into a
    /// slot: take shard `index`'s slot files out of its mailbox, encode
    /// `ckpt` and write it into them outside the lock (only half its
    /// frame with `crash`, the armed `checkpoint:N`), put them back and
    /// raise the shard's news — the landed seq, or the failure, which
    /// closes the mailbox. Called and returns with the lock held; no
    /// other write may hold the slots.
    fn land<'a>(
        &'a self,
        mut st: MutexGuard<'a, WriterState>,
        index: usize,
        ckpt: &DurableCheckpoint,
        crash: bool,
    ) -> MutexGuard<'a, WriterState> {
        let mut slots = st.mailboxes[index]
            .slots
            .take()
            .expect("no write holds the slots");
        drop(st);
        let result = slots.write(ckpt.to_json().as_bytes(), crash);
        st = self.lock();
        let mailbox = &mut st.mailboxes[index];
        mailbox.slots = Some(slots);
        match result {
            Ok(()) => mailbox.landed = Some(ckpt.seq),
            Err(e) => {
                mailbox.failed = Some(e);
                mailbox.closed = true;
                mailbox.pending = None;
            }
        }
        self.news[index].store(true, Ordering::Release);
        if st.waiters > 0 {
            self.done.notify_all();
        }
        st
    }

    /// Land on the calling thread, once no write holds shard `index`'s
    /// slots, its pending hand-off — replaced first by `newer` when
    /// given, and unless the thread took it meanwhile — then `own`,
    /// only half of it when its flag is set. A closed mailbox writes
    /// nothing.
    pub(super) fn land_here(
        &self,
        index: usize,
        newer: Option<Arc<DurableCheckpoint>>,
        own: Option<(&DurableCheckpoint, bool)>,
    ) {
        let mut st = self.lock();
        if newer.is_some() && !st.mailboxes[index].closed {
            st.mailboxes[index].pending = newer;
        }
        st = self.wait_while(st, |st| st.mailboxes[index].slots.is_none());
        if let Some(ckpt) = st.mailboxes[index].pending.take() {
            st = self.land(st, index, &ckpt, false);
        }
        if let Some((ckpt, crash)) = own.filter(|_| !st.mailboxes[index].closed) {
            drop(self.land(st, index, ckpt, crash));
        }
    }

    /// Shard `index`'s news, if a write raised any since it was last
    /// collected: the seq of the checkpoint that landed last (none once
    /// the mailbox is closed — a dead store retires nothing) and a
    /// failed write, each taken. One atomic load and no lock when there
    /// is none.
    pub(super) fn news(&self, index: usize) -> Option<(Option<u64>, Option<PersistError>)> {
        // Pairs with the `Release` store made after the mailbox was
        // updated. The mailbox itself is read under the lock, and the
        // flag is cleared under it too, so a landing after this clear
        // raises it again.
        if !self.news[index].load(Ordering::Acquire) {
            return None;
        }
        let mut st = self.lock();
        self.news[index].store(false, Ordering::Relaxed);
        let mailbox = &mut st.mailboxes[index];
        let landed = mailbox.landed.take().filter(|_| !mailbox.closed);
        Some((landed, mailbox.failed.take()))
    }

    /// The stores of `shards` died: discard their pending checkpoints
    /// and wait out a write in flight, so nothing lands after the death.
    pub(super) fn close(&self, shards: std::ops::Range<usize>) {
        let mut st = self.lock();
        for mailbox in &mut st.mailboxes[shards.clone()] {
            mailbox.closed = true;
            mailbox.pending = None;
        }
        drop(self.wait_while(st, |st| {
            st.mailboxes[shards.clone()]
                .iter()
                .any(|m| m.slots.is_none())
        }));
    }

    /// An injected crash surfaced: the whole service is a killed
    /// process from here on, so no shard's checkpoint lands and no
    /// shard retires its WAL any more — a successor may already own
    /// the directory.
    pub(crate) fn halt(&self) {
        let shards = self.lock().mailboxes.len();
        self.close(0..shards);
    }

    /// Write every checkpoint still pending, then join the thread (a
    /// no-op when none was ever spawned).
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

#[cfg(test)]
impl CheckpointWriter {
    /// Take shard `index`'s slot files out of its mailbox, as a write in
    /// flight holds them.
    pub(super) fn take_slots(&self, index: usize) -> CheckpointSlots {
        self.lock().mailboxes[index]
            .slots
            .take()
            .expect("slots at home")
    }

    /// Give back what [`take_slots`](Self::take_slots) took, waking no
    /// one.
    pub(super) fn return_slots(&self, index: usize, slots: CheckpointSlots) {
        self.lock().mailboxes[index].slots = Some(slots);
    }

    /// Whether the thread exists, and whether it is parked.
    pub(super) fn thread_state(&self) -> (bool, bool) {
        let st = self.lock();
        (st.thread.is_some(), st.parked)
    }

    /// Whether shard `index` has a hand-off no write has taken.
    pub(super) fn has_pending(&self, index: usize) -> bool {
        self.lock().mailboxes[index].pending.is_some()
    }
}
