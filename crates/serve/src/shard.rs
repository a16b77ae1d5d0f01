//! One shard: a cache, its statistics, a private virtual clock, and the
//! recovery checkpoint that makes mutex poisoning survivable.
//!
//! The service routes each clip id to a fixed shard with
//! [`shard_of`] (a SplitMix64 hash of the id), so every request for a
//! given clip serializes on that shard's mutex and the policy inside
//! never sees concurrent access. Each shard keeps its own virtual clock
//! ticking 1, 2, 3, … per access — exactly the timestamps the serial
//! simulator assigns a trace — which is what makes a 1-shard service
//! reproduce [`clipcache_sim::runner::simulate`] bit for bit.
//!
//! ## Checkpoints and poison recovery
//!
//! A request that panics while holding the shard mutex poisons it. The
//! pre-chaos service answered that with `.expect("shard poisoned")` —
//! one bad request wedged the shard for the process lifetime. Instead,
//! every shard now refreshes a [`CacheSnapshot`] checkpoint every
//! [`CHECKPOINT_EVERY`] accesses (plus the statistics at that instant),
//! and [`Shard::recover`] rebuilds the cache from it with
//! [`clipcache_core::snapshot::restore`] — the same snapshot/restore
//! machinery the paper's device-restart path uses, repurposed as the
//! shard's crash-recovery journal. Recovery is deterministic: the
//! rebuilt policy is seeded with the shard's original seed, so the same
//! fault schedule produces the same post-recovery state.
//!
//! ## Durability
//!
//! A shard opened with a data directory ([`Shard::attach_store`], via
//! `CacheService::open_persistent`) pairs the in-memory checkpoint with
//! a [`ShardStore`]: every access is logged to the store's write-ahead
//! log *before* it is applied. The frame is only staged in the store;
//! the caller writes a whole batch's frames with one
//! [`Shard::write_wal`] before any reply of the batch is sent — and
//! under `--wal-sync always` waits on the ticket it returns, outside
//! the shard lock — so disk is never behind what a client was told.
//! The WAL is what makes an ack durable; checkpoints only bound
//! replay. So a checkpoint refresh takes the snapshot inline, keeps it
//! as the shard's checkpoint, and submits it, not yet encoded, to the
//! store ([`ShardStore::submit_checkpoint`]), which shares it with the
//! service's background writer once the WAL holds a quarter segment of
//! records past the last hand-off, and never waits for its fsyncs; the
//! writer encodes only the checkpoints it gets to before a newer one
//! replaces them. The shard learns on its next operation that the
//! checkpoint landed and only then retires the WAL behind it; until
//! then, and for the active segment's records at or below the
//! checkpoint afterwards, the log keeps a subsumed prefix that recovery
//! skips. On open, the durable checkpoint is restored and the WAL tail
//! replays through the same zero-alloc `access_into` path
//! live requests use — then the shard compacts (a checkpoint written
//! and waited for, the log retired) so restarts converge instead of
//! replaying ever-longer logs.

use crate::persist::{
    CommitTicket, CrashSpec, DurableCheckpoint, DurableState, PersistError, ShardStore, WalOp,
};
use clipcache_core::snapshot::{restore, CacheSnapshot};
use clipcache_core::{AccessEvent, ClipCache, EvictionCount, PolicySpec};
use clipcache_media::{ByteSize, ClipId, Repository};
use clipcache_sim::metrics::HitStats;
use clipcache_workload::Timestamp;
use std::sync::Arc;

/// Default accesses between checkpoint refreshes (the
/// `ServiceConfig::checkpoint_every` / `--checkpoint-every` knob).
/// Small enough that recovery forgets little (the policy relearns the
/// gap in a few dozen requests), large enough that the snapshot copy
/// stays off the per-request path. The copy walks the cache's resident
/// set, so it costs `O(resident + n/64)` for `n` clips, not `O(n)`.
pub const CHECKPOINT_EVERY: u64 = 128;

/// SplitMix64 — the finalizer used both to route clips to shards and to
/// derive per-shard policy seeds.
#[inline]
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The shard a clip lives on. Stable for the lifetime of a service: the
/// same id always routes to the same shard, so a clip is resident in at
/// most one shard's cache.
#[inline]
pub fn shard_of(clip: ClipId, shards: usize) -> usize {
    debug_assert!(shards > 0);
    (splitmix64(clip.get() as u64) % shards as u64) as usize
}

/// The policy seed for shard `index`, derived from the service seed.
///
/// Shard 0 of any service gets `shard_seed(seed, 0)` — the loadgen's
/// serial baseline uses the same derivation so a 1-shard service and the
/// serial simulator run byte-identical policy randomness.
#[inline]
pub fn shard_seed(seed: u64, index: usize) -> u64 {
    splitmix64(seed ^ index as u64)
}

/// The outcome of one service access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GetOutcome {
    /// Whether the clip was resident.
    pub hit: bool,
    /// Whether the clip is resident afterwards (always true on a hit).
    pub admitted: bool,
    /// Clips evicted by this access.
    pub evictions: usize,
    /// Whether a local miss was filled from a cluster peer (a cluster
    /// hit). Always `false` at the shard layer — only the cluster tier
    /// sets it, after a `PEERGET` probe found the clip on a replica.
    pub peer: bool,
}

/// The outcome of one chunk-granular residency probe (`GETRANGE`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RangeOutcome {
    /// Whether the probed chunk is resident (it lies inside the
    /// clip's resident prefix).
    pub hit: bool,
    /// Chunks of the clip's head currently resident (equal to `total`
    /// when the whole clip is resident, 0 when absent).
    pub resident: u32,
    /// Total chunks in the clip.
    pub total: u32,
}

/// One shard: a policy instance plus its counters, owned behind the
/// service's per-shard mutex.
pub struct Shard {
    cache: Box<dyn ClipCache>,
    stats: HitStats,
    clock: u64,
    // One counting sink per shard, reused for every access: the hot path
    // allocates nothing (the same discipline as the serial runner).
    evictions: EvictionCount,
    // Everything recovery needs to rebuild the cache from scratch.
    repo: Arc<Repository>,
    policy: PolicySpec,
    seed: u64,
    frequencies: Option<Vec<f64>>,
    // What a poisoned shard rebuilds from; `seq` is 0 when memory-only.
    // Shared with the background writer's mailbox, which encodes it
    // only if no newer checkpoint replaces it first.
    checkpoint: Arc<DurableCheckpoint>,
    // Accesses between checkpoint refreshes (the service's knob).
    checkpoint_every: u64,
    // The durable store, when the service was opened with a data dir.
    store: Option<ShardStore>,
    // WAL records replayed into this shard when its store was attached.
    wal_replayed: u64,
}

impl Shard {
    /// Wrap a freshly built cache, remembering the build inputs so
    /// [`recover`](Self::recover) can rebuild it after a poisoning.
    ///
    /// # Panics
    /// If `checkpoint_every == 0`.
    pub fn new(
        cache: Box<dyn ClipCache>,
        repo: Arc<Repository>,
        policy: PolicySpec,
        seed: u64,
        frequencies: Option<Vec<f64>>,
        checkpoint_every: u64,
    ) -> Self {
        assert!(
            checkpoint_every > 0,
            "checkpoint cadence must be at least 1"
        );
        let checkpoint = Arc::new(DurableCheckpoint {
            snapshot: CacheSnapshot::take(cache.as_ref(), policy, Timestamp::ZERO),
            stats: HitStats::new(),
            seq: 0,
        });
        Shard {
            cache,
            stats: HitStats::new(),
            clock: 0,
            evictions: EvictionCount(0),
            repo,
            policy,
            seed,
            frequencies,
            checkpoint,
            checkpoint_every,
            store: None,
            wal_replayed: 0,
        }
    }

    /// Service a request for `clip` of `size`, recording hit statistics.
    ///
    /// Mirrors the serial runner's loop exactly: tick the clock, access
    /// through the counting sink, record `(hit, size, evictions)`. With
    /// a store attached the access is WAL-logged *first* — on any
    /// failure the cache is untouched. Before the client is told, the
    /// frame must reach the OS: if [`wal_staged`](Self::wal_staged),
    /// call [`write_wal`](Self::write_wal) (once for a whole batch of
    /// requests is enough) and wait on the ticket it returns.
    pub fn get(&mut self, clip: ClipId, size: ByteSize) -> Result<GetOutcome, PersistError> {
        if let Some(store) = &mut self.store {
            store.stage(WalOp::Get, clip, 0)?;
        }
        let outcome = self.apply_get(clip, size);
        self.maybe_checkpoint()?;
        Ok(outcome)
    }

    /// The in-memory half of [`get`](Self::get) — also the WAL replay
    /// path, which is what makes recovery re-derive exactly the state
    /// live requests produced.
    fn apply_get(&mut self, clip: ClipId, size: ByteSize) -> GetOutcome {
        self.clock += 1;
        self.evictions.0 = 0;
        let event = self
            .cache
            .access_into(clip, Timestamp(self.clock), &mut self.evictions);
        let (hit, admitted) = match event {
            AccessEvent::Hit => {
                self.stats.record(true, size, self.evictions.0);
                (true, true)
            }
            AccessEvent::PrefixHit { resident, .. } => {
                // Display starts from the resident prefix while the tail
                // streams in (and the access completes the clip to full
                // residency, so it is "admitted" afterwards).
                let resident_bytes = self.repo.prefix_bytes(clip, resident);
                self.stats
                    .record_prefix(resident_bytes, size - resident_bytes, self.evictions.0);
                (true, true)
            }
            AccessEvent::Miss { admitted } => {
                self.stats.record(false, size, self.evictions.0);
                (false, admitted)
            }
        };
        GetOutcome {
            hit,
            admitted,
            evictions: self.evictions.0,
            peer: false,
        }
    }

    /// Warm `clip` into the shard without touching the hit statistics.
    ///
    /// The access still advances the clock and the policy's reference
    /// history (a warmed clip looks recently used), so `admit` is for
    /// pre-loading before measurement, not for use mid-run.
    pub fn admit(&mut self, clip: ClipId) -> Result<bool, PersistError> {
        if let Some(store) = &mut self.store {
            store.stage(WalOp::Admit, clip, 0)?;
        }
        let admitted = self.apply_admit(clip);
        self.maybe_checkpoint()?;
        Ok(admitted)
    }

    /// The in-memory half of [`admit`](Self::admit); also the replay
    /// path for logged warm-ups.
    fn apply_admit(&mut self, clip: ClipId) -> bool {
        self.clock += 1;
        self.evictions.0 = 0;
        match self
            .cache
            .access_into(clip, Timestamp(self.clock), &mut self.evictions)
        {
            AccessEvent::Hit | AccessEvent::PrefixHit { .. } => true,
            AccessEvent::Miss { admitted } => admitted,
        }
    }

    /// Probe chunk-granular residency: is chunk `chunk` of `clip`
    /// resident right now? Pure with respect to the policy — no clock
    /// tick, no recency update, no admission — but WAL-logged like every
    /// other request so the durable log is a complete account of what
    /// clients were told (replay applies it as the same no-op).
    ///
    /// The caller (the service) has already validated that `chunk` is in
    /// range for `clip`; this method only reads residency.
    pub fn get_range(&mut self, clip: ClipId, chunk: u32) -> Result<RangeOutcome, PersistError> {
        if let Some(store) = &mut self.store {
            store.stage(WalOp::GetRange, clip, chunk)?;
        }
        Ok(self.apply_get_range(clip, chunk))
    }

    /// The in-memory half of [`get_range`](Self::get_range); also the
    /// WAL replay path (a no-op on cache state, by design).
    fn apply_get_range(&mut self, clip: ClipId, chunk: u32) -> RangeOutcome {
        let total = self.repo.chunks_of(clip);
        let resident = if self.cache.contains(clip) {
            total
        } else {
            self.cache.partial_prefix(clip)
        };
        RangeOutcome {
            hit: chunk < resident,
            resident,
            total,
        }
    }

    fn maybe_checkpoint(&mut self) -> Result<(), PersistError> {
        if self.clock - self.checkpoint.snapshot.tick.get() >= self.checkpoint_every {
            self.force_checkpoint(|store, ckpt| store.submit_checkpoint(Arc::clone(ckpt)))?;
        }
        Ok(())
    }

    /// Refresh the checkpoint, handing it to the store with `write`
    /// first, so a failed hand-off leaves the in-memory checkpoint
    /// still describing the newest checkpoint submitted.
    fn force_checkpoint(
        &mut self,
        write: impl FnOnce(&mut ShardStore, &Arc<DurableCheckpoint>) -> Result<(), PersistError>,
    ) -> Result<(), PersistError> {
        let ckpt = Arc::new(DurableCheckpoint {
            snapshot: CacheSnapshot::take(self.cache.as_ref(), self.policy, Timestamp(self.clock)),
            stats: self.stats.clone(),
            seq: self.store.as_ref().map_or(0, |store| store.next_seq() - 1),
        });
        if let Some(store) = &mut self.store {
            write(store, &ckpt)?;
        }
        self.checkpoint = ckpt;
        Ok(())
    }

    /// Attach a durable store, rebuilding the shard from what it found
    /// on disk. Returns how many WAL records were replayed.
    ///
    /// The durable checkpoint (if any) restores exactly like poison
    /// recovery; the WAL tail then replays through the same zero-alloc
    /// apply path live requests use. If anything replayed (or a torn
    /// tail was truncated), the shard compacts — writes a fresh durable
    /// checkpoint subsuming the log — so repeated crash-restarts step
    /// forward instead of replaying ever-longer logs. A restart with
    /// nothing to replay leaves the directory bytes untouched, which is
    /// what makes back-to-back recoveries bit-identical.
    pub fn attach_store(
        &mut self,
        store: ShardStore,
        state: DurableState,
    ) -> Result<u64, PersistError> {
        if let Some(ckpt) = &state.checkpoint {
            if ckpt.snapshot.policy != self.policy {
                return Err(PersistError::BadCheckpoint(format!(
                    "checkpoint policy {} does not match configured {}",
                    ckpt.snapshot.policy.spelling(),
                    self.policy.spelling()
                )));
            }
            if ckpt.snapshot.capacity != self.checkpoint.snapshot.capacity {
                return Err(PersistError::BadCheckpoint(format!(
                    "checkpoint capacity {} bytes does not match configured {}",
                    ckpt.snapshot.capacity.as_u64(),
                    self.checkpoint.snapshot.capacity.as_u64()
                )));
            }
            let (cache, tick) = restore(
                &ckpt.snapshot,
                Arc::clone(&self.repo),
                self.seed,
                self.frequencies.as_deref(),
            )
            .map_err(|e| PersistError::Build(e.to_string()))?;
            self.cache = cache;
            self.clock = tick.get();
            self.stats = ckpt.stats.clone();
            self.checkpoint = Arc::new(ckpt.clone());
        }
        for rec in &state.records {
            if self.repo.get(rec.clip).is_none() {
                return Err(PersistError::Corrupt {
                    offset: 0,
                    reason: format!(
                        "WAL record {} names clip {} outside the repository",
                        rec.seq,
                        rec.clip.get()
                    ),
                });
            }
            match rec.op {
                WalOp::Get => {
                    let size = self.repo.size_of(rec.clip);
                    self.apply_get(rec.clip, size);
                }
                WalOp::Admit => {
                    self.apply_admit(rec.clip);
                }
                WalOp::GetRange => {
                    if rec.chunk >= self.repo.chunks_of(rec.clip) {
                        return Err(PersistError::Corrupt {
                            offset: 0,
                            reason: format!(
                                "WAL record {} probes chunk {} of clip {} which has only \
                                 {} chunks",
                                rec.seq,
                                rec.chunk,
                                rec.clip.get(),
                                self.repo.chunks_of(rec.clip)
                            ),
                        });
                    }
                    self.apply_get_range(rec.clip, rec.chunk);
                }
            }
        }
        let replayed = state.records.len() as u64;
        self.wal_replayed = replayed;
        self.store = Some(store);
        if replayed > 0 || state.torn_bytes_dropped > 0 || state.subsumed_records > 0 {
            self.force_checkpoint(|store, ckpt| store.checkpoint(ckpt))?;
        }
        Ok(replayed)
    }

    /// Whether WAL frames are staged in the attached store and not yet
    /// written (never for a memory-only shard).
    pub fn wal_staged(&self) -> bool {
        self.store.as_ref().is_some_and(ShardStore::has_staged)
    }

    /// Commit the staged WAL frames into the store's mapped tail — what
    /// makes the requests that staged them safe to acknowledge, once the
    /// returned ticket (under `--wal-sync always`) has been waited on
    /// outside the shard lock. An error if the store is dead, because
    /// its staged frames died with it. A failed commit kills the store.
    pub fn write_wal(&mut self) -> Result<Option<CommitTicket>, PersistError> {
        self.store.as_mut().map_or(Ok(None), ShardStore::commit)
    }

    /// Arm (or disarm) a deterministic crash point on the attached
    /// store. No-op for a memory-only shard.
    pub fn arm_crash(&mut self, crash: Option<CrashSpec>) {
        if let Some(store) = &mut self.store {
            store.arm_crash(crash);
        }
    }

    /// Land the newest checkpoint refresh the store still holds, and a
    /// hand-off still pending, on this thread, then retire the WAL
    /// behind what landed — a service shutdown, before the writer
    /// thread is joined. Best effort: a failure leaves a longer WAL tail
    /// for the next open to replay.
    pub(crate) fn settle_checkpoints(&mut self) {
        if let Some(store) = &mut self.store {
            let _ = store.settle();
        }
    }

    /// WAL records replayed into this shard when it was last opened.
    pub fn wal_replayed(&self) -> u64 {
        self.wal_replayed
    }

    /// Rebuild the shard from its last checkpoint after its mutex was
    /// poisoned mid-request.
    ///
    /// The in-memory cache may have been caught mid-mutation by the
    /// panic, so nothing of it is trusted: a fresh policy instance is
    /// built with the shard's original seed and the checkpoint's
    /// resident set is re-materialized through
    /// [`clipcache_core::snapshot::restore`] (residency-exact,
    /// metadata-approximate — the policy relearns popularity, exactly as
    /// after a device restart). Statistics and the virtual clock rewind
    /// to the checkpoint; requests recorded since are forgotten
    /// server-side, which is why chaos invariants are asserted against
    /// client-observed counters.
    pub fn recover(&mut self) {
        let (cache, tick) = restore(
            &self.checkpoint.snapshot,
            Arc::clone(&self.repo),
            self.seed,
            self.frequencies.as_deref(),
        )
        .expect("checkpoint was built from this exact policy spec");
        self.cache = cache;
        self.clock = tick.get();
        self.stats = self.checkpoint.stats.clone();
        self.evictions = EvictionCount(0);
        // Keep the disk in step with the rewind: WAL records after the
        // checkpoint describe accesses the rebuilt shard never saw. The
        // store first lands the newest submitted checkpoint — this one,
        // whether it was handed to the writer or held. If that or the
        // truncation fails, kill the
        // store: refusing further appends beats silently diverging
        // from the in-memory state.
        if let Some(store) = &mut self.store {
            if store.rewind_to_checkpoint().is_err() {
                store.kill();
            }
        }
    }

    /// The shard's hit statistics so far.
    pub fn stats(&self) -> &HitStats {
        &self.stats
    }

    /// The shard's virtual clock (number of accesses serviced).
    pub fn clock(&self) -> Timestamp {
        Timestamp(self.clock)
    }

    /// The policy instance.
    pub fn cache(&self) -> &dyn ClipCache {
        self.cache.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clipcache_core::PolicyKind;
    use clipcache_media::paper;
    use std::sync::Arc;

    fn shard_with(
        policy: PolicyKind,
        clips: usize,
        capacity: ByteSize,
    ) -> (Arc<Repository>, Shard) {
        let repo = Arc::new(paper::equi_sized_repository_of(clips, ByteSize::mb(10)));
        let cache = policy.build(Arc::clone(&repo), capacity, 1, None);
        let shard = Shard::new(
            cache,
            Arc::clone(&repo),
            policy.into(),
            1,
            None,
            CHECKPOINT_EVERY,
        );
        (repo, shard)
    }

    #[test]
    fn routing_is_stable_and_in_range() {
        for shards in 1..=8 {
            for id in 1..200u32 {
                let s = shard_of(ClipId::new(id), shards);
                assert!(s < shards);
                assert_eq!(s, shard_of(ClipId::new(id), shards));
            }
        }
        // Everything routes to shard 0 when there is only one shard.
        assert_eq!(shard_of(ClipId::new(17), 1), 0);
    }

    #[test]
    fn shard_seeds_differ_per_shard() {
        let seeds: Vec<u64> = (0..8).map(|i| shard_seed(42, i)).collect();
        for (i, a) in seeds.iter().enumerate() {
            for b in &seeds[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn get_records_stats_and_ticks_clock() {
        let (repo, mut shard) = shard_with(PolicyKind::Lru, 8, ByteSize::mb(20));
        let clip = ClipId::new(3);
        let miss = shard.get(clip, repo.size_of(clip)).unwrap();
        assert!(!miss.hit && miss.admitted && miss.evictions == 0);
        let hit = shard.get(clip, repo.size_of(clip)).unwrap();
        assert!(hit.hit);
        assert_eq!(shard.stats().hits, 1);
        assert_eq!(shard.stats().misses, 1);
        assert_eq!(shard.clock(), Timestamp(2));
    }

    #[test]
    fn admit_warms_without_stats() {
        let (repo, mut shard) = shard_with(PolicyKind::Lru, 8, ByteSize::mb(20));
        assert!(shard.admit(ClipId::new(5)).unwrap());
        assert_eq!(shard.stats().requests(), 0);
        // The warmed clip now hits, and only the hit is counted.
        assert!(
            shard
                .get(ClipId::new(5), repo.size_of(ClipId::new(5)))
                .unwrap()
                .hit
        );
        assert_eq!(shard.stats().hits, 1);
    }

    #[test]
    fn recover_rewinds_to_checkpoint() {
        let (repo, mut shard) = shard_with(PolicyKind::Lru, 16, ByteSize::mb(40));
        // Drive exactly one checkpoint interval: the checkpoint then
        // holds this state.
        for i in 0..CHECKPOINT_EVERY {
            let clip = ClipId::new((i % 4 + 1) as u32);
            shard.get(clip, repo.size_of(clip)).unwrap();
        }
        let at_checkpoint = shard.stats().clone();
        let resident_at_checkpoint = {
            let mut r = shard.cache().resident_clips();
            r.sort();
            r
        };
        // A few more requests past the checkpoint, then a recovery.
        for i in 0..5u32 {
            let clip = ClipId::new(i % 16 + 1);
            shard.get(clip, repo.size_of(clip)).unwrap();
        }
        assert_ne!(shard.stats(), &at_checkpoint);
        shard.recover();
        assert_eq!(shard.stats(), &at_checkpoint, "stats rewind to checkpoint");
        let mut resident = shard.cache().resident_clips();
        resident.sort();
        assert_eq!(
            resident, resident_at_checkpoint,
            "residency restores exactly"
        );
        // The clock resumes past the re-materialization ticks, strictly
        // increasing (never reuses a timestamp the policy already saw).
        assert!(shard.clock().get() >= CHECKPOINT_EVERY);
        // The shard keeps serving correctly after recovery.
        assert!(
            shard
                .get(ClipId::new(1), repo.size_of(ClipId::new(1)))
                .unwrap()
                .hit
        );
    }

    #[test]
    fn recover_on_fresh_shard_is_safe() {
        let (repo, mut shard) = shard_with(PolicyKind::Lru, 8, ByteSize::mb(20));
        shard
            .get(ClipId::new(2), repo.size_of(ClipId::new(2)))
            .unwrap();
        shard.recover(); // checkpoint is the empty initial snapshot
        assert_eq!(shard.stats().requests(), 0);
        assert!(shard.cache().resident_clips().is_empty());
        assert!(
            !shard
                .get(ClipId::new(2), repo.size_of(ClipId::new(2)))
                .unwrap()
                .hit
        );
    }

    #[test]
    fn durable_shard_survives_a_reopen() {
        use crate::persist::{ShardStore, WalSync};
        let dir =
            std::env::temp_dir().join(format!("clipcache-shard-reopen-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let trace: Vec<u32> = (0..300u32).map(|i| i * 7 % 16 + 1).collect();
        // Cadence beyond the trace: the whole run lives in the WAL, so
        // the first reopen is a pure replay from empty — which must be
        // bit-identical to a continuous memory-only run.
        let fresh = |every: u64| {
            let repo = Arc::new(paper::equi_sized_repository_of(16, ByteSize::mb(10)));
            let cache = PolicyKind::Lru.build(Arc::clone(&repo), ByteSize::mb(40), 1, None);
            let shard = Shard::new(
                cache,
                Arc::clone(&repo),
                PolicyKind::Lru.into(),
                1,
                None,
                every,
            );
            (repo, shard)
        };
        let (repo, mut reference) = fresh(1_000);
        for &c in &trace {
            reference
                .get(ClipId::new(c), repo.size_of(ClipId::new(c)))
                .unwrap();
        }

        let (_, mut durable) = fresh(1_000);
        let (store, state) = ShardStore::open(&dir, WalSync::Off).unwrap();
        assert_eq!(durable.attach_store(store, state).unwrap(), 0);
        for &c in &trace {
            durable
                .get(ClipId::new(c), repo.size_of(ClipId::new(c)))
                .unwrap();
        }
        // The run's frames are staged; one commit makes them durable.
        assert!(durable.wal_staged());
        assert!(durable.write_wal().unwrap().is_none(), "no fsync owed");
        assert!(!durable.wal_staged());
        // Persistence is invisible to behavior.
        assert_eq!(durable.stats(), reference.stats());
        assert_eq!(
            durable.cache().resident_clips(),
            reference.cache().resident_clips()
        );
        drop(durable);

        // First reopen: pure WAL replay from empty, bit-identical to the
        // continuous run — residency in the exact same order, not just
        // the same set.
        let (_, mut reopened) = fresh(1_000);
        let (store, state) = ShardStore::open(&dir, WalSync::Off).unwrap();
        assert_eq!(reopened.attach_store(store, state).unwrap(), 300);
        assert_eq!(reopened.wal_replayed(), 300);
        assert_eq!(reopened.stats(), reference.stats(), "stats conserved");
        assert_eq!(
            reopened.cache().resident_clips(),
            reference.cache().resident_clips()
        );
        drop(reopened);

        // The reopen compacted (checkpoint subsumes the log): a second
        // reopen restores from the checkpoint, replays nothing, and
        // still reports the same stats and residency.
        let (_, mut again) = fresh(1_000);
        let (store, state) = ShardStore::open(&dir, WalSync::Off).unwrap();
        assert_eq!(again.attach_store(store, state).unwrap(), 0, "compacted");
        assert_eq!(again.stats(), reference.stats());
        let mut a = again.cache().resident_clips();
        let mut b = reference.cache().resident_clips();
        a.sort();
        b.sort();
        assert_eq!(a, b, "residency conserved through the checkpoint");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
