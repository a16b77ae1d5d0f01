//! The concurrent service core: N shards behind independent mutexes.
//!
//! [`CacheService`] splits a byte budget across [`Shard`]s and routes
//! each request to the shard owning its clip ([`shard_of`]). Shards
//! never nest locks — every operation locks exactly one shard, and the
//! merged views ([`stats`](CacheService::stats),
//! [`snapshot`](CacheService::snapshot)) lock shards one at a time in
//! index order — so the service is trivially deadlock-free.
//!
//! With one shard the service *is* the serial simulator: same policy
//! seed (`shard_seed(seed, 0)`), same virtual clock, same statistics
//! recording. The serial-equivalence test pins this bit for bit.
//!
//! ## Poison recovery
//!
//! Every lock acquisition goes through `CacheService::lock_shard`,
//! which treats a poisoned mutex as a recoverable fault rather than a
//! reason to panic: the shard is rebuilt from its last checkpoint
//! ([`Shard::recover`]), the poison flag is cleared, and a service-wide
//! [`recoveries`](CacheService::recoveries) counter (surfaced in the
//! `STATS` protocol reply) records that it happened. One panicking
//! request can therefore no longer wedge a shard for the process
//! lifetime — the next request heals it.
//!
//! ## Batched WAL writes
//!
//! A request's WAL frame is staged in its shard's store, not written
//! on its own. The event loop runs a connection's buffered requests as
//! one batch, then commits each touched shard's frames into its active
//! segment's mapped tail (a copy into the page cache, no system call)
//! before any reply of the batch is sent; under `--wal-sync always` it
//! then waits, outside that shard's lock, for the one fsync covering
//! them. The in-process [`get`](CacheService::get),
//! [`get_range`](CacheService::get_range) and
//! [`admit`](CacheService::admit) are one-request batches: the frame is
//! committed (and fsynced) before the call returns.
//!
//! ## Background checkpoints
//!
//! A durable service owns one checkpoint writer thread, spawned at the
//! first hand-off (a memory-only service, or a durable one that has
//! handed nothing off yet, runs none), at the lowest priority. Shards
//! refresh their checkpoints every `--checkpoint-every` accesses and
//! hand one to the writer, unencoded, through mailboxes holding one
//! each, once the WAL holds a quarter segment of records past the last
//! hand-off; they never wait on its fsyncs, and it encodes only what it
//! takes. Dropping the service lands every shard's newest refresh on
//! the dropping thread, retires the WAL behind what landed and joins
//! the writer thread.

use crate::persist::{
    CheckpointWriter, CommitTicket, CrashAction, PersistError, PersistOptions, RecoveryReport,
    ShardStore,
};
use crate::shard::{shard_of, shard_seed, GetOutcome, RangeOutcome, Shard, CHECKPOINT_EVERY};
use clipcache_core::registry::BuildError;
use clipcache_core::snapshot::CacheSnapshot;
use clipcache_core::PolicySpec;
use clipcache_media::{ByteSize, ClipId, Repository};
use clipcache_sim::metrics::HitStats;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Construction parameters for a [`CacheService`].
#[derive(Debug, Clone, Copy)]
pub struct ServiceConfig {
    /// The replacement policy every shard runs.
    pub policy: PolicySpec,
    /// Number of shards (≥ 1).
    pub shards: usize,
    /// Total byte budget, split evenly across shards.
    pub capacity: ByteSize,
    /// Service seed; shard `i` derives `shard_seed(seed, i)`.
    pub seed: u64,
    /// Accesses between checkpoint refreshes on every shard
    /// (`--checkpoint-every`; default [`CHECKPOINT_EVERY`]).
    pub checkpoint_every: u64,
}

impl ServiceConfig {
    /// A config with the default checkpoint cadence
    /// ([`CHECKPOINT_EVERY`]).
    pub fn new(
        policy: impl Into<PolicySpec>,
        shards: usize,
        capacity: ByteSize,
        seed: u64,
    ) -> Self {
        ServiceConfig {
            policy: policy.into(),
            shards,
            capacity,
            seed,
            checkpoint_every: CHECKPOINT_EVERY,
        }
    }

    /// Override the checkpoint cadence.
    ///
    /// # Panics
    /// If `every == 0`.
    pub fn with_checkpoint_every(mut self, every: u64) -> Self {
        assert!(every > 0, "checkpoint cadence must be at least 1");
        self.checkpoint_every = every;
        self
    }
}

/// Errors a service request can produce.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceError {
    /// The clip id is not in the repository.
    UnknownClip(ClipId),
    /// A `GETRANGE` probe addressed a chunk index at or past the clip's
    /// chunk count. Always a loud refusal, never a stall or a silent
    /// miss: the reply names both the index and the valid range.
    ChunkOutOfRange {
        /// The clip probed.
        clip: ClipId,
        /// The out-of-range chunk index.
        chunk: u32,
        /// How many chunks the clip actually has.
        total: u32,
    },
    /// The durable store beneath a shard failed (I/O, corruption).
    Persist(String),
    /// An armed crash point fired with [`CrashAction::Surface`]; the
    /// service behaves as a killed process from here on (the binaries
    /// use [`CrashAction::ExitProcess`] and actually exit, code 137).
    Crashed,
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::UnknownClip(c) => write!(f, "unknown clip id {}", c.get()),
            ServiceError::ChunkOutOfRange { clip, chunk, total } => write!(
                f,
                "chunk {chunk} out of range for clip {} ({total} chunks, indices 0..{total})",
                clip.get()
            ),
            ServiceError::Persist(reason) => write!(f, "durable store failed: {reason}"),
            ServiceError::Crashed => write!(f, "injected crash point fired"),
        }
    }
}

impl std::error::Error for ServiceError {}

/// The shards a batch of requests left WAL frames staged on. The
/// batch's replies may be sent only after
/// [`CacheService::write_batch`] has written them.
#[derive(Debug, Default)]
pub(crate) struct WalBatch {
    touched: Vec<usize>,
}

impl WalBatch {
    /// Whether any request of the batch left a frame staged.
    pub(crate) fn staged(&self) -> bool {
        !self.touched.is_empty()
    }

    fn touch(&mut self, index: usize) {
        if !self.touched.contains(&index) {
            self.touched.push(index);
        }
    }
}

/// Serializes the panic-hook swap in [`CacheService::poison`] so
/// concurrent injections do not clobber each other's saved hook.
static POISON_HOOK: Mutex<()> = Mutex::new(());

/// A sharded, thread-safe cache service.
pub struct CacheService {
    repo: Arc<Repository>,
    shards: Vec<Mutex<Shard>>,
    policy: PolicySpec,
    recoveries: AtomicU64,
    /// Total WAL records replayed while opening the durable stores
    /// (zero for an in-memory service or a cold start).
    wal_replayed: u64,
    /// What a fired crash point does: the binaries exit the process
    /// (mimicking `kill -9`), the in-process chaos tests surface
    /// [`ServiceError::Crashed`] instead.
    on_crash: CrashAction,
    /// The background checkpoint writer of a durable service.
    writer: Option<Arc<CheckpointWriter>>,
}

impl CacheService {
    /// Build a service: `config.shards` caches, each with
    /// `capacity / shards` bytes and its own derived seed.
    ///
    /// # Panics
    /// If `config.shards == 0`.
    pub fn new(
        repo: Arc<Repository>,
        config: ServiceConfig,
        frequencies: Option<&[f64]>,
    ) -> Result<Self, BuildError> {
        assert!(config.shards > 0, "a service needs at least one shard");
        let per_shard = ByteSize::bytes(config.capacity.as_u64() / config.shards as u64);
        let mut shards = Vec::with_capacity(config.shards);
        for i in 0..config.shards {
            let seed = shard_seed(config.seed, i);
            let cache = config
                .policy
                .try_build(Arc::clone(&repo), per_shard, seed, frequencies)?;
            shards.push(Mutex::new(Shard::new(
                cache,
                Arc::clone(&repo),
                config.policy,
                seed,
                frequencies.map(<[f64]>::to_vec),
                config.checkpoint_every,
            )));
        }
        Ok(CacheService {
            repo,
            shards,
            policy: config.policy,
            recoveries: AtomicU64::new(0),
            wal_replayed: 0,
            on_crash: CrashAction::Surface,
            writer: None,
        })
    }

    /// Build a *durable* service rooted at `opts.dir`: each shard owns
    /// `dir/shard-{i}` (checkpoint + WAL), recovering whatever state a
    /// previous process made durable before attaching.
    ///
    /// Recovery per shard: load the newest valid checkpoint, replay the
    /// WAL tail through the normal access path, truncate a torn final
    /// record. Mid-log corruption and incompatible checkpoints
    /// (unknown version, wrong policy/capacity) are loud
    /// [`PersistError`]s — a durable service never silently starts
    /// cold over bad state.
    ///
    /// If `opts.crash` is set, *every* shard arms the crash point; each
    /// counts only its own post-recovery operations (deterministic for
    /// single-shard runs, which is what the crash tests use).
    pub fn open_persistent(
        repo: Arc<Repository>,
        config: ServiceConfig,
        frequencies: Option<&[f64]>,
        opts: &PersistOptions,
    ) -> Result<(Self, RecoveryReport), PersistError> {
        let mut service = CacheService::new(repo, config, frequencies)
            .map_err(|e| PersistError::Build(e.to_string()))?;
        service.on_crash = opts.on_crash;
        let writer = CheckpointWriter::new(service.shards.len());
        service.writer = Some(Arc::clone(&writer));
        let mut report = RecoveryReport::default();
        for i in 0..service.shards.len() {
            let dir = opts.dir.join(format!("shard-{i}"));
            let (mut store, state) = ShardStore::open_tuned(&dir, opts.sync, opts.tuning)?;
            store.attach_writer(Arc::clone(&writer));
            let shard = service.shards[i].get_mut().expect("no one else holds it");
            if state.checkpoint.is_some() {
                report.checkpoints_loaded += 1;
            }
            report.torn_bytes_dropped += state.torn_bytes_dropped;
            report.replayed += shard.attach_store(store, state)?;
            shard.arm_crash(opts.crash);
        }
        service.wal_replayed = report.replayed;
        Ok((service, report))
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// The repository served.
    pub fn repo(&self) -> &Arc<Repository> {
        &self.repo
    }

    /// The policy every shard runs.
    pub fn policy(&self) -> PolicySpec {
        self.policy
    }

    /// How many poisoned shards have been recovered so far.
    pub fn recoveries(&self) -> u64 {
        self.recoveries.load(Ordering::Relaxed)
    }

    /// WAL records replayed when the durable stores were opened (zero
    /// for an in-memory service; surfaced in the `STATS` reply).
    pub fn wal_replayed(&self) -> u64 {
        self.wal_replayed
    }

    /// Map a shard-level persistence failure to the service error,
    /// honoring the configured crash action: the binaries die like a
    /// killed process, in-process harnesses see [`ServiceError::Crashed`]
    /// and the checkpoint writer halts for every shard, so dropping the
    /// crashed service later writes nothing a successor could see.
    fn persist_failure(&self, err: PersistError) -> ServiceError {
        match (&err, self.on_crash) {
            (PersistError::CrashInjected, CrashAction::ExitProcess) => {
                eprintln!("clipcache-serve: injected crash point fired; exiting");
                std::process::exit(137);
            }
            (PersistError::CrashInjected, CrashAction::Surface) => {
                if let Some(writer) = &self.writer {
                    writer.halt();
                }
                ServiceError::Crashed
            }
            _ => ServiceError::Persist(err.to_string()),
        }
    }

    /// Lock shard `index`, recovering it first if a previous request
    /// panicked while holding the lock.
    ///
    /// Recovery rebuilds the shard from its checkpoint (the panic may
    /// have interrupted a mutation, so the live cache is not trusted),
    /// clears the poison flag, and bumps the recovery counter. Requests
    /// racing for a poisoned lock recover it exactly once: the loser
    /// blocks on `lock()` until the winner has cleared the flag.
    fn lock_shard(&self, index: usize) -> MutexGuard<'_, Shard> {
        match self.shards[index].lock() {
            Ok(guard) => guard,
            Err(poisoned) => {
                let mut guard = poisoned.into_inner();
                guard.recover();
                self.shards[index].clear_poison();
                self.recoveries.fetch_add(1, Ordering::Relaxed);
                guard
            }
        }
    }

    /// Run `op` on `clip`'s shard and settle its durability: WAL frames
    /// it left staged are recorded in `batch` for
    /// [`write_batch`](Self::write_batch), or — with no batch, a
    /// one-request batch — written before the lock is released. Under
    /// `--wal-sync always` the write's ticket is waited on after the
    /// lock is released, so concurrent requests on the shard ride one
    /// batched fsync.
    fn on_shard<T>(
        &self,
        clip: ClipId,
        batch: Option<&mut WalBatch>,
        op: impl FnOnce(&mut Shard) -> Result<T, PersistError>,
    ) -> Result<T, ServiceError> {
        let index = shard_of(clip, self.shards.len());
        let mut shard = self.lock_shard(index);
        let value = op(&mut shard).map_err(|e| self.persist_failure(e))?;
        let mut ticket = None;
        if shard.wal_staged() {
            match batch {
                Some(batch) => batch.touch(index),
                None => ticket = shard.write_wal().map_err(|e| self.persist_failure(e))?,
            }
        }
        drop(shard);
        ticket
            .map_or(Ok(()), CommitTicket::wait)
            .map_err(|e| self.persist_failure(e))?;
        Ok(value)
    }

    /// Service a request: route to the owning shard, access its cache,
    /// record hit statistics. Locks exactly one shard, and returns once
    /// the request is as durable as the sync policy promises.
    pub fn get(&self, clip: ClipId) -> Result<GetOutcome, ServiceError> {
        self.get_batched(clip, None)
    }

    /// [`get`](Self::get), leaving the WAL frame staged in `batch` when
    /// one is given.
    pub(crate) fn get_batched(
        &self,
        clip: ClipId,
        batch: Option<&mut WalBatch>,
    ) -> Result<GetOutcome, ServiceError> {
        let size = self
            .repo
            .get(clip)
            .ok_or(ServiceError::UnknownClip(clip))?
            .size;
        self.on_shard(clip, batch, |shard| shard.get(clip, size))
    }

    /// Probe chunk-granular residency: is `chunk` of `clip` resident?
    ///
    /// A pure read of the owning shard's residency — no clock tick, no
    /// recency update — but WAL-logged like every other request. An
    /// out-of-range chunk index is refused loudly *before* the shard is
    /// touched ([`ServiceError::ChunkOutOfRange`]), never answered with
    /// a stall or a fabricated miss.
    pub fn get_range(&self, clip: ClipId, chunk: u32) -> Result<RangeOutcome, ServiceError> {
        self.get_range_batched(clip, chunk, None)
    }

    /// [`get_range`](Self::get_range), leaving the WAL frame staged in
    /// `batch` when one is given.
    pub(crate) fn get_range_batched(
        &self,
        clip: ClipId,
        chunk: u32,
        batch: Option<&mut WalBatch>,
    ) -> Result<RangeOutcome, ServiceError> {
        if self.repo.get(clip).is_none() {
            return Err(ServiceError::UnknownClip(clip));
        }
        let total = self.repo.chunks_of(clip);
        if chunk >= total {
            return Err(ServiceError::ChunkOutOfRange { clip, chunk, total });
        }
        self.on_shard(clip, batch, |shard| shard.get_range(clip, chunk))
    }

    /// Warm `clip` into its shard without counting it in the hit
    /// statistics. Returns whether the clip is resident afterwards.
    pub fn admit(&self, clip: ClipId) -> Result<bool, ServiceError> {
        if self.repo.get(clip).is_none() {
            return Err(ServiceError::UnknownClip(clip));
        }
        self.on_shard(clip, None, |shard| shard.admit(clip))
    }

    /// End a batch: commit each touched shard's staged WAL frames,
    /// locking only those shards, and under `--wal-sync always` wait
    /// for that commit's fsync outside the lock — one fsync per touched
    /// shard, not per request. `failed` hears of every shard whose
    /// commit or fsync failed — the requests the batch ran there must
    /// not be acknowledged. A memory-only service never stages, so its
    /// batches end without locking anything.
    pub(crate) fn write_batch(
        &self,
        batch: &mut WalBatch,
        mut failed: impl FnMut(usize, ServiceError),
    ) {
        for index in batch.touched.drain(..) {
            let ticket = self.lock_shard(index).write_wal();
            if let Err(e) = ticket.and_then(|t| t.map_or(Ok(()), CommitTicket::wait)) {
                failed(index, self.persist_failure(e));
            }
        }
    }

    /// Inject a service-level fault: panic while holding `clip`'s shard
    /// mutex, leaving it poisoned exactly as a crashed request would.
    ///
    /// The next operation touching the shard takes the recovery path.
    /// Returns the poisoned shard's index. This is the chaos harness's
    /// entry point (`POISON` protocol command, `loadgen --faults` with
    /// the `poison` kind) — deliberately public so resilience stays
    /// testable end to end, and harmless in production terms: the
    /// injected panic is confined to this call.
    pub fn poison(&self, clip: ClipId) -> usize {
        let index = shard_of(clip, self.shards.len());
        // Silence the default "thread panicked" hook for the injected
        // panic; the swap is serialized so concurrent injections cannot
        // lose the real hook.
        let _swap = POISON_HOOK.lock().unwrap_or_else(|p| p.into_inner());
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            // Bound (not `_`) so the guard is held when the panic fires.
            let _guard = self.shards[index].lock();
            panic!("injected shard fault");
        }));
        std::panic::set_hook(prev);
        debug_assert!(result.is_err());
        index
    }

    /// Merged hit statistics across all shards.
    ///
    /// Locks shards one at a time (never two at once) and folds with
    /// [`HitStats::merge`], whose order-invariance makes the result
    /// independent of the locking order.
    pub fn stats(&self) -> HitStats {
        let mut total = HitStats::new();
        for i in 0..self.shards.len() {
            total.merge(self.lock_shard(i).stats());
        }
        total
    }

    /// Per-shard hit statistics, in shard order.
    pub fn per_shard_stats(&self) -> Vec<HitStats> {
        (0..self.shards.len())
            .map(|i| self.lock_shard(i).stats().clone())
            .collect()
    }

    /// Snapshot every shard (one [`CacheSnapshot`] per shard, in shard
    /// order). Each snapshot is taken under that shard's lock, so it is
    /// internally consistent; the set is not a global atomic cut —
    /// requests may land on other shards between snapshots.
    pub fn snapshot(&self) -> Vec<CacheSnapshot> {
        (0..self.shards.len())
            .map(|i| {
                let shard = self.lock_shard(i);
                CacheSnapshot::take(shard.cache(), self.policy, shard.clock())
            })
            .collect()
    }

    /// Total bytes resident across shards.
    pub fn used(&self) -> ByteSize {
        let mut total = 0u64;
        for i in 0..self.shards.len() {
            total += self.lock_shard(i).cache().used().as_u64();
        }
        ByteSize::bytes(total)
    }
}

/// Dropping a durable service lands every shard's newest checkpoint
/// refresh, and any hand-off still pending, on the dropping thread,
/// retires the WAL behind what landed, and joins the writer thread.
impl Drop for CacheService {
    fn drop(&mut self) {
        let Some(writer) = self.writer.take() else {
            return;
        };
        for shard in &mut self.shards {
            shard
                .get_mut()
                .unwrap_or_else(|p| p.into_inner())
                .settle_checkpoints();
        }
        writer.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clipcache_core::PolicyKind;
    use clipcache_media::paper;
    use clipcache_workload::{RequestGenerator, Trace};

    fn service(shards: usize, seed: u64) -> CacheService {
        let repo = Arc::new(paper::variable_sized_repository_of(24));
        let capacity = repo.cache_capacity_for_ratio(0.25);
        CacheService::new(
            Arc::clone(&repo),
            ServiceConfig::new(PolicyKind::Lru, shards, capacity, seed),
            None,
        )
        .expect("LRU builds")
    }

    #[test]
    fn get_hits_after_miss() {
        let svc = service(4, 7);
        let clip = ClipId::new(5);
        assert!(!svc.get(clip).unwrap().hit);
        assert!(svc.get(clip).unwrap().hit);
        let stats = svc.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
    }

    #[test]
    fn unknown_clip_is_an_error() {
        let svc = service(2, 7);
        let err = svc.get(ClipId::new(999)).unwrap_err();
        assert_eq!(err, ServiceError::UnknownClip(ClipId::new(999)));
        assert!(err.to_string().contains("999"));
        assert!(svc.admit(ClipId::new(999)).is_err());
    }

    #[test]
    fn get_range_probes_residency_and_rejects_bad_chunks() {
        let repo = Arc::new(
            paper::equi_sized_repository_of(8, ByteSize::mb(10)).with_chunk_size(ByteSize::mb(2)),
        );
        let svc = CacheService::new(
            Arc::clone(&repo),
            ServiceConfig::new(PolicyKind::Lru, 1, ByteSize::mb(30), 7),
            None,
        )
        .unwrap();
        let clip = ClipId::new(3);
        // Absent: every chunk probe misses, resident prefix is 0 of 5.
        let probe = svc.get_range(clip, 0).unwrap();
        assert!(!probe.hit);
        assert_eq!((probe.resident, probe.total), (0, 5));
        // Fully resident after a GET: probes hit across the range.
        svc.get(clip).unwrap();
        let probe = svc.get_range(clip, 4).unwrap();
        assert!(probe.hit);
        assert_eq!((probe.resident, probe.total), (5, 5));
        // Probes are pure: they counted nothing and ticked nothing.
        assert_eq!(svc.stats().requests(), 1);
        // Out-of-range chunk: a loud structured refusal, never a stall.
        let err = svc.get_range(clip, 5).unwrap_err();
        assert_eq!(
            err,
            ServiceError::ChunkOutOfRange {
                clip,
                chunk: 5,
                total: 5
            }
        );
        assert!(err.to_string().contains("out of range"));
        assert!(svc.get_range(ClipId::new(999), 0).is_err());
    }

    #[test]
    fn stats_merge_shard_counters() {
        let svc = service(4, 7);
        let trace = Trace::from_generator(RequestGenerator::new(24, 0.27, 0, 500, 11));
        for req in &trace {
            svc.get(req.clip).unwrap();
        }
        let merged = svc.stats();
        assert_eq!(merged.requests(), 500);
        let per_shard = svc.per_shard_stats();
        assert_eq!(per_shard.len(), 4);
        assert_eq!(HitStats::merged(per_shard.iter()), merged);
    }

    #[test]
    fn snapshots_cover_disjoint_clip_sets() {
        let svc = service(4, 7);
        let trace = Trace::from_generator(RequestGenerator::new(24, 0.27, 0, 300, 3));
        for req in &trace {
            svc.get(req.clip).unwrap();
        }
        let snaps = svc.snapshot();
        assert_eq!(snaps.len(), 4);
        let mut seen = std::collections::HashSet::new();
        for (i, snap) in snaps.iter().enumerate() {
            for &clip in &snap.resident {
                assert_eq!(shard_of(clip, 4), i, "clip on the wrong shard");
                assert!(seen.insert(clip), "clip resident in two shards");
            }
        }
        assert!(!seen.is_empty());
    }

    #[test]
    fn capacity_splits_evenly() {
        let repo = Arc::new(paper::equi_sized_repository_of(16, ByteSize::mb(10)));
        let svc = CacheService::new(
            Arc::clone(&repo),
            ServiceConfig::new(PolicyKind::Lru, 4, ByteSize::mb(40), 1),
            None,
        )
        .unwrap();
        for snap in svc.snapshot() {
            assert_eq!(snap.capacity, ByteSize::mb(10));
        }
    }

    #[test]
    fn poisoned_shard_recovers_and_keeps_serving() {
        let svc = service(2, 7);
        let clip = ClipId::new(5);
        assert!(!svc.get(clip).unwrap().hit);
        assert_eq!(svc.recoveries(), 0);
        let shard = svc.poison(clip);
        assert_eq!(shard, shard_of(clip, 2));
        // The next access on the poisoned shard recovers it (the
        // pre-checkpoint state is empty, so the clip misses again) and
        // the shard keeps serving.
        assert!(!svc.get(clip).unwrap().hit);
        assert_eq!(svc.recoveries(), 1);
        assert!(svc.get(clip).unwrap().hit);
        assert_eq!(svc.recoveries(), 1, "recovery happens exactly once");
    }

    #[test]
    fn poison_recovery_works_at_any_checkpoint_cadence() {
        // Satellite: the cadence is a knob now; recovery must hold at
        // values other than the default 128 (including the degenerate
        // checkpoint-every-access setting).
        for every in [1u64, 5, 1000] {
            let repo = Arc::new(paper::variable_sized_repository_of(24));
            let capacity = repo.cache_capacity_for_ratio(0.25);
            let svc = CacheService::new(
                Arc::clone(&repo),
                ServiceConfig::new(PolicyKind::Lru, 1, capacity, 7).with_checkpoint_every(every),
                None,
            )
            .unwrap();
            for i in 0..12u32 {
                svc.get(ClipId::new(i % 6 + 1)).unwrap();
            }
            let before = svc.stats();
            svc.poison(ClipId::new(1));
            // Recovery rolls back to the last checkpoint: at most
            // `every - 1` requests are lost, never more.
            svc.get(ClipId::new(1)).unwrap();
            let after = svc.stats();
            assert_eq!(svc.recoveries(), 1, "cadence {every}");
            let floor = before.requests().saturating_sub(every - 1);
            assert!(
                after.requests() > floor,
                "cadence {every}: {} requests after recovery, checkpoint floor {}",
                after.requests(),
                floor
            );
        }
    }

    #[test]
    fn repeated_poisoning_never_wedges() {
        let svc = service(1, 3);
        for round in 0..5u32 {
            let clip = ClipId::new(round % 8 + 1);
            svc.poison(clip);
            assert!(svc.get(clip).is_ok(), "round {round} wedged the shard");
        }
        assert_eq!(svc.recoveries(), 5);
        // Merged views also survive a poisoned shard.
        svc.poison(ClipId::new(1));
        assert_eq!(svc.stats().requests(), 0, "recovered to empty checkpoint");
        assert_eq!(svc.recoveries(), 6);
        assert_eq!(svc.snapshot().len(), 1);
    }
}
