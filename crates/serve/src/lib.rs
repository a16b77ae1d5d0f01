//! `clipcache-serve`: a sharded concurrent cache service with a TCP
//! front-end and a closed-loop load harness.
//!
//! The simulator crates answer "which policy wins?"; this crate answers
//! "what does that policy cost to *serve*?". It lifts a single-threaded
//! [`ClipCache`](clipcache_core::ClipCache) behind a sharded, mutex-per-
//! shard service core:
//!
//! * [`shard`] — clip→shard routing (SplitMix64), per-shard seeds, and
//!   the [`Shard`] wrapper (cache + stats + virtual
//!   clock + reusable eviction sink: the zero-alloc access path).
//! * [`service`] — [`CacheService`]: `get` /
//!   `admit` / `stats` / `snapshot` over N shards, deadlock-free by
//!   construction (one lock per operation); poisoned shards recover
//!   from their periodic checkpoint instead of wedging.
//! * [`protocol`] — both wire protocols ([`Wire`]), shared by server
//!   and client: the text line protocol (`GET`/`STATS`/`SNAPSHOT`/…)
//!   and the length-prefixed binary framing the fast path uses. Both
//!   sides handle only `Command` and [`Reply`], with one encoder and
//!   one decoder per wire; the `STATS` fields are named once, in
//!   [`protocol::STATS_FIELDS`]. Every parser/decoder is total —
//!   garbage gets `Err`, never a panic — and frame corruption is loud
//!   (structured [`FrameError`], never a silent truncation).
//! * [`server`] — a socket-free session (pipelining, text/binary
//!   auto-detect, batched WAL writes) and the epoll loop that drives it
//!   (`serve` binary): edge-triggered readiness, graceful shutdown via
//!   a wakeup pipe, an admission gate (`--max-conns`), idle timeouts
//!   (`--read-timeout`) and a line-length cap. loadgen's in-process
//!   target drives the same session without a socket.
//! * [`client`] — a blocking protocol client speaking either wire, every
//!   verb one `Command`/[`Reply`] round trip, with batched pipelined
//!   GETs, optional read timeouts, plus the chaos harness's wire hooks
//!   (garbage in the client's own wire, torn writes).
//! * [`latency`] — wall-clock latency logs with percentile queries.
//! * [`fault`] — deterministic fault injection: a seeded [`FaultPlan`]
//!   schedules wire, client and service faults as a pure function of
//!   `(client, request, attempt)`; [`RetryPolicy`] bounds the
//!   jitter-free recovery.
//! * [`loadgen`] — the closed-loop harness (`loadgen` binary): M client
//!   threads replaying round-robin partitions of a seeded trace against
//!   the in-process server session or a TCP address, optionally through
//!   a fault plan (`--faults`).
//! * [`persist`] — durable per-shard state (`--data-dir`): periodic
//!   checkpoints plus a segmented, CRC-framed write-ahead log
//!   (`--segment-bytes`) with group-committed fsyncs
//!   (`--commit-window-us`) and deterministic crash points
//!   (`--crash-at`) so recovery is provable, not hoped-for.
//! * [`ring`] — the deterministic consistent-hash ring: SplitMix64
//!   vnodes, placement a pure function of `(seed, membership, clip)`,
//!   replica sets as distinct ring successors.
//! * [`cluster`] — the cluster tier (`serve --cluster`): static
//!   membership, client-side ring routing with read-any failover,
//!   server-side peer fill over the binary wire (`PEERGET`) with
//!   write-all replication, and the in-process [`ClusterHarness`] the
//!   `clusterbench` experiment and the cluster chaos goldens replay: its
//!   members are server nodes that take every request as bytes and send
//!   their `PEERGET`s over the same wire link `serve` uses.
//! * [`cli`] — the flags `serve` and `loadgen` share, parsed once
//!   ([`cli::ServiceFlags`]), the one hex-or-decimal [`cli::parse_u64`],
//!   and the report-and-gate tail of `netbench` and `walbench`.
//!
//! **Equivalence anchor.** One shard + one client reproduces the serial
//! simulator bit for bit: shard 0 runs the policy with the same derived
//! seed, ticks the same virtual clock 1, 2, 3, …, and records statistics
//! with the same `(hit, size, evictions)` calls. Multiple shards change
//! cache state (capacity is split, each shard sees a sub-stream) and are
//! compared within tolerance in EXPERIMENTS.md. The chaos extension of
//! the anchor: a zero-rate (or absent) fault plan replays on the exact
//! clean path, and a plan of lossless kinds (`FaultKind::LOSSLESS`)
//! retried to delivery leaves the statistics bit-identical too —
//! `tests/chaos.rs` proves both.

pub mod cli;
pub mod client;
pub mod cluster;
pub mod fault;
pub mod latency;
pub mod loadgen;
pub mod persist;
pub mod protocol;
pub mod ring;
pub mod server;
pub mod service;
pub mod shard;

pub use client::{is_busy_error, TcpCacheClient};
pub use cluster::{
    BreakerState, ClusterError, ClusterHarness, ClusterRuntime, ClusterSpec, ClusterStats,
    ClusterView, FillEngine, FillStats, PeerBreaker, PeerFaults, PeerLink,
    BREAKER_FAILURE_THRESHOLD, BREAKER_PROBE_INTERVAL, HANDOFF_QUEUE_LIMIT,
};
pub use fault::{ChaosStats, FaultKind, FaultPlan, RetryPolicy};
pub use latency::LatencyLog;
pub use loadgen::{
    run as run_load, run_with as run_load_with, serial_baseline, ClusterRoute, LoadOptions,
    LoadReport, Target,
};
pub use persist::{
    decode_segment, segment_file_name, CommitTicket, CrashAction, CrashPoint, CrashSpec,
    DurableCheckpoint, PersistError, PersistOptions, RecoveryReport, SegmentEnd, ShardStore, WalOp,
    WalRecord, WalSync, WalTuning, DEFAULT_SEGMENT_BYTES,
};
pub use protocol::{
    Decoded, FrameError, Reply, ServerStats, Wire, WireVersions, FRAME_MAGIC, MAX_FRAME_PAYLOAD,
    PROTOCOL_VERSION,
};
pub use ring::{HashRing, DEFAULT_VNODES};
pub use server::{
    serve, serve_with, GovernorConfig, LoadTier, ServerConfig, ServerHandle, MAX_LINE_BYTES,
};
pub use service::{CacheService, ServiceConfig, ServiceError};
pub use shard::{shard_of, shard_seed, GetOutcome, RangeOutcome, Shard, CHECKPOINT_EVERY};
