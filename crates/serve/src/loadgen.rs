//! The closed-loop load harness.
//!
//! [`run`] replays a materialized trace against a target — the in-process
//! service or a TCP front-end — from `clients` threads. Each client owns
//! a round-robin partition of the trace and issues its next request only
//! after the previous reply arrives (closed loop: offered load adapts to
//! service speed, there is no open-loop queue to overflow). Per-client
//! [`HitStats`] and [`LatencyLog`]s merge order-invariantly into the
//! [`LoadReport`]. All TCP targets share one ring-routing transport; a
//! lone server is the one-member, R = 1 route.
//!
//! With `clients == 1` the replay is the exact trace order, so a 1-shard
//! in-process run reproduces the serial simulator bit for bit
//! ([`serial_baseline`] builds that reference).
//!
//! ## Chaos mode
//!
//! [`run_with`] threads an optional [`FaultPlan`] through the replay:
//! each `(client, request, attempt)` consults the plan before touching
//! the wire, and injected faults (dropped connections, lost replies,
//! garbage lines, torn writes, shard poisoning) are recovered by a
//! bounded, deterministic retry loop ([`RetryPolicy`]). The loop
//! guarantees delivery: a plan never schedules more faults for one
//! request than the client has retries, so every request's final reply
//! reaches the client exactly once — the "no lost or duplicated
//! responses" invariant `tests/chaos.rs` asserts. With no plan the
//! replay takes the exact pre-chaos code path, keeping the
//! serial-equivalence anchor bit for bit. A zero-rate plan injects
//! nothing (its stats are bit-identical to a clean run) but still
//! routes through the retrying transport — that is the restart-
//! resilient mode: a TCP request caught by a server crash-restart is
//! retried over a fresh connection and counted exactly once, so
//! [`LoadReport::conserved`] holds across a `kill -9` + recovery.

use crate::client::{is_busy_error, TcpCacheClient};
use crate::cluster::{ClusterHarness, ClusterView};
use crate::fault::{ChaosStats, FaultKind, FaultPlan, RetryPolicy};
use crate::latency::LatencyLog;
use crate::protocol::{parse_command, Reply, Wire};
use crate::service::CacheService;
use crate::shard::{shard_seed, GetOutcome};
use clipcache_core::PolicySpec;
use clipcache_media::{ByteSize, ClipId, Repository};
use clipcache_sim::metrics::HitStats;
use clipcache_sim::runner::{simulate, SimulationConfig};
use clipcache_workload::Trace;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Ring-routed TCP cluster membership as a load target: the client-side
/// half of the cluster tier. Every parameter must match the servers'
/// (same list order, same seed, same replication) — placement is a pure
/// function of them, so agreement is by construction, never negotiated.
#[derive(Debug, Clone)]
pub struct ClusterRoute {
    /// Every member address, in shared membership order.
    pub peers: Vec<String>,
    /// Replication factor `R`: a GET may be served by any of the clip's
    /// `R` ring owners (read-any), tried in owner order.
    pub replication: usize,
    /// The shared ring seed.
    pub seed: u64,
}

impl ClusterRoute {
    /// The topology view this route induces.
    pub fn view(&self) -> ClusterView {
        ClusterView::new(self.seed, self.peers.len(), self.replication)
    }
}

/// Where the load goes.
#[derive(Clone)]
pub enum Target {
    /// Call the service directly (no sockets).
    InProcess(Arc<CacheService>),
    /// One server at this address, one connection per client thread:
    /// the one-member, R = 1 case of [`Target::ClusterTcp`].
    Tcp(String),
    /// The in-process cluster harness (ring routing + peer fill without
    /// sockets). Deterministic with `clients == 1`; multi-client runs
    /// serialize on the harness lock.
    Cluster(Arc<Mutex<ClusterHarness>>),
    /// Ring-route each GET across a TCP cluster, failing over to the
    /// clip's replica owners when the primary is unreachable.
    ClusterTcp(ClusterRoute),
}

/// Everything configurable about one load run.
#[derive(Debug, Clone)]
pub struct LoadOptions {
    /// Closed-loop client threads (≥ 1).
    pub clients: usize,
    /// The fault schedule; `None` replays clean. A zero-rate plan
    /// injects nothing but keeps the retrying transport, which makes
    /// the run resilient to server restarts (`--faults rate=0`).
    pub faults: Option<FaultPlan>,
    /// Retry/backoff discipline for injected faults and real I/O errors.
    pub retry: RetryPolicy,
    /// Per-request client read timeout for TCP targets (a reply slower
    /// than this surfaces as an error the retry loop recovers from).
    pub read_timeout: Option<Duration>,
    /// Wire protocol for TCP targets (in-process has no wire). Binary
    /// is the fast path; text is the debuggable default every
    /// pre-existing golden was recorded against.
    pub wire: Wire,
    /// Pipeline depth for *clean* TCP replays: each client keeps up to
    /// this many requests in flight on its connection (batched into
    /// one write per window). Depth 1 is the classic closed loop. The
    /// chaos replay always runs request-at-a-time regardless — fault
    /// attribution is per-request. Per-connection reply order is
    /// preserved by the server, so a 1-shard 1-client pipelined run is
    /// still bit-identical to the serial simulator.
    pub pipeline: usize,
}

impl Default for LoadOptions {
    fn default() -> Self {
        LoadOptions {
            clients: 1,
            faults: None,
            retry: RetryPolicy::default(),
            read_timeout: None,
            wire: Wire::Text,
            pipeline: 1,
        }
    }
}

impl LoadOptions {
    /// Clean-replay options for `clients` threads.
    pub fn clients(clients: usize) -> Self {
        LoadOptions {
            clients,
            ..LoadOptions::default()
        }
    }
}

/// Everything one load run measured.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Hit statistics observed at the clients (merged across threads).
    pub observed: HitStats,
    /// Wall-clock request latencies (merged across threads).
    pub latency: LatencyLog,
    /// Wall-clock duration of the whole run in seconds.
    pub elapsed_secs: f64,
    /// Client threads used.
    pub clients: usize,
    /// Chaos counters (all zero for a clean replay).
    pub chaos: ChaosStats,
    /// Shard recoveries the *server* performed during the run.
    pub recoveries: u64,
    /// The fault plan the run used, if any.
    pub plan: Option<FaultPlan>,
}

impl LoadReport {
    /// Requests completed per wall-clock second.
    pub fn throughput(&self) -> f64 {
        if self.elapsed_secs <= 0.0 {
            return 0.0;
        }
        self.observed.requests() as f64 / self.elapsed_secs
    }

    /// The chaos invariant: every request's reply was delivered to the
    /// issuing client exactly once (no losses, no duplicates), and each
    /// delivered reply was recorded exactly once in the hit statistics
    /// (`hits + misses == delivered`).
    pub fn conserved(&self) -> bool {
        self.observed.requests() == self.chaos.delivered
            && self.latency.count() as u64 == self.chaos.delivered
    }

    /// A deterministic chaos summary: everything the run counted except
    /// wall-clock quantities, one `key=value` group per line. Two runs
    /// with the same `(trace, plan, clients)` must render byte-identical
    /// reports — CI diffs this against a committed golden.
    ///
    /// The `degraded` line appears only when the run actually degraded
    /// (the client received governor `BUSY` sheds), so every report
    /// from a non-degraded run — including all pre-existing goldens —
    /// renders byte-identically to before the line existed.
    pub fn chaos_report(&self) -> String {
        let plan = match &self.plan {
            Some(p) => p.spelling(),
            None => "none".into(),
        };
        let c = &self.chaos;
        let degraded = if c.busy_backoffs > 0 {
            format!("degraded busy_backoffs={}\n", c.busy_backoffs)
        } else {
            String::new()
        };
        format!(
            "chaos-report v1\n\
             plan {plan}\n\
             clients={} delivered={}\n\
             faults drop_pre={} drop_post={} garbage={} torn={} poison={} injected={}\n\
             recovery retries={} reconnects={} err_replies={} shard_recoveries={}\n\
             {degraded}observed hits={} misses={} byte_hits={} byte_misses={} evictions={}\n\
             invariant conservation={}\n",
            self.clients,
            c.delivered,
            c.drops_before,
            c.drops_after,
            c.garbage,
            c.torn,
            c.poisons,
            c.injected(),
            c.retries,
            c.reconnects,
            c.err_replies,
            self.recoveries,
            self.observed.hits,
            self.observed.misses,
            self.observed.byte_hits.as_u64(),
            self.observed.byte_misses.as_u64(),
            self.observed.evictions,
            if self.conserved() { "ok" } else { "VIOLATED" },
        )
    }
}

/// One client's view of the run.
#[derive(Default)]
struct ClientLog {
    stats: HitStats,
    latency: LatencyLog,
    chaos: ChaosStats,
}

impl ClientLog {
    /// Record one delivered reply to a request sent at `started`. A
    /// peer fill (`PHIT`) is an origin fetch avoided: the client
    /// observes it as a hit. Non-cluster targets never set `peer`.
    fn record(&mut self, outcome: GetOutcome, size: ByteSize, started: Instant) {
        self.latency
            .record_nanos(started.elapsed().as_nanos() as u64);
        self.stats
            .record(outcome.hit || outcome.peer, size, outcome.evictions);
        self.chaos.delivered += 1;
    }
}

/// The target-specific operations a replay drives. Implementors
/// reconnect lazily: dropping the connection is cheap, and the next
/// operation re-establishes it (counting the reconnect). The defaults
/// are the in-process behaviour: no wire to tear, corrupt, drop or
/// close.
trait Transport {
    fn get(&mut self, clip: ClipId) -> std::io::Result<GetOutcome>;
    /// Poison the clip's shard.
    fn poison(&mut self, clip: ClipId) -> std::io::Result<()>;
    /// `get` delivered with hostile framing (torn write).
    fn get_torn(&mut self, clip: ClipId) -> std::io::Result<GetOutcome> {
        self.get(clip)
    }
    /// Inject one line of garbage; returns whether it was answered with
    /// a structured `ERR`. With no wire, the garbage goes to the same
    /// parser the server would use.
    fn send_garbage(&mut self, payload: &[u8]) -> std::io::Result<bool> {
        Ok(parse_command(&String::from_utf8_lossy(payload)).is_err())
    }
    /// Drop the connection.
    fn drop_conn(&mut self) {}
    /// Reconnections performed so far.
    fn reconnects(&self) -> u64 {
        0
    }
    /// End the run politely (`QUIT` on every open connection).
    fn finish(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

fn not_connected(e: impl std::error::Error + Send + Sync + 'static) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::NotConnected, e)
}

struct InProcessTransport {
    service: Arc<CacheService>,
}

impl Transport for InProcessTransport {
    fn get(&mut self, clip: ClipId) -> std::io::Result<GetOutcome> {
        self.service
            .get(clip)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidInput, e))
    }

    fn poison(&mut self, clip: ClipId) -> std::io::Result<()> {
        self.service.poison(clip);
        Ok(())
    }
}

/// The in-process cluster harness as a transport: the harness already
/// models routing, failover, and the peer wire, so the transport is a
/// thin lock-and-forward.
struct HarnessTransport {
    harness: Arc<Mutex<ClusterHarness>>,
}

impl Transport for HarnessTransport {
    fn get(&mut self, clip: ClipId) -> std::io::Result<GetOutcome> {
        let mut harness = self.harness.lock().expect("cluster harness poisoned");
        harness.get(clip).map_err(not_connected)
    }

    fn poison(&mut self, clip: ClipId) -> std::io::Result<()> {
        let mut harness = self.harness.lock().expect("cluster harness poisoned");
        harness.poison(clip).map_err(not_connected)
    }
}

/// The one TCP transport: a lazy connection per route member, each GET
/// sent to the clip's first reachable owner (read-any failover in owner
/// order). A lone server is the one-member, R = 1 route. A member that
/// refuses or times out has its connection dropped; the next request to
/// it redials, which is how a killed-and-restarted node is picked back
/// up without any membership churn.
struct ClusterTcpTransport {
    route: ClusterRoute,
    view: ClusterView,
    read_timeout: Option<Duration>,
    wire: Wire,
    conns: Vec<Option<TcpCacheClient>>,
    /// Members dialled at least once (their first dial is
    /// establishment, not recovery).
    dialled: Vec<bool>,
    reconnects: u64,
}

impl ClusterTcpTransport {
    fn new(route: &ClusterRoute, read_timeout: Option<Duration>, wire: Wire) -> Self {
        let n = route.peers.len();
        ClusterTcpTransport {
            view: route.view(),
            route: route.clone(),
            read_timeout,
            wire,
            conns: (0..n).map(|_| None).collect(),
            dialled: vec![false; n],
            reconnects: 0,
        }
    }

    fn ensure(&mut self, node: usize) -> std::io::Result<&mut TcpCacheClient> {
        if self.conns[node].is_none() {
            self.conns[node] = Some(TcpCacheClient::connect_wire(
                self.route.peers[node].as_str(),
                self.read_timeout,
                self.wire,
            )?);
            if self.dialled[node] {
                self.reconnects += 1;
            }
            self.dialled[node] = true;
        }
        Ok(self.conns[node].as_mut().expect("just connected"))
    }

    /// Run `op` against each of `clip`'s owners in order until one
    /// succeeds. A failed owner's connection is dropped so its next use
    /// redials — except after a governor `BUSY`, which leaves the
    /// connection in sync (redialing a shedding server adds to its
    /// burden).
    fn on_owners<T>(
        &mut self,
        clip: ClipId,
        mut op: impl FnMut(&mut TcpCacheClient) -> std::io::Result<T>,
    ) -> std::io::Result<T> {
        let owners = self.view.owners_for(clip);
        let mut last: Option<std::io::Error> = None;
        for &node in &owners {
            match self.ensure(node).and_then(&mut op) {
                Ok(value) => return Ok(value),
                Err(e) => {
                    if !is_busy_error(&e) {
                        self.conns[node] = None;
                    }
                    last = Some(e);
                }
            }
        }
        Err(last.expect("owner set is never empty"))
    }
}

impl Transport for ClusterTcpTransport {
    fn get(&mut self, clip: ClipId) -> std::io::Result<GetOutcome> {
        self.on_owners(clip, |client| client.get(clip))
    }

    fn get_torn(&mut self, clip: ClipId) -> std::io::Result<GetOutcome> {
        self.on_owners(clip, |client| client.get_torn(clip))
    }

    fn send_garbage(&mut self, payload: &[u8]) -> std::io::Result<bool> {
        // Garbage has no clip to route by; member 0 takes the abuse.
        let reply = self.ensure(0)?.send_garbage(payload)?;
        Ok(matches!(reply, Reply::Err(_)))
    }

    fn poison(&mut self, clip: ClipId) -> std::io::Result<()> {
        // A refusal (chaos-disabled server) is an ERR reply on a healthy
        // connection: keep it, and do not fail over.
        self.on_owners(clip, |client| Ok(client.poison(clip).map(|_| ())))?
    }

    fn drop_conn(&mut self) {
        self.conns.fill_with(|| None);
    }

    fn reconnects(&self) -> u64 {
        self.reconnects
    }

    fn finish(&mut self) -> std::io::Result<()> {
        for conn in &mut self.conns {
            if let Some(client) = conn.take() {
                client.quit()?;
            }
        }
        Ok(())
    }
}

/// Deliver one request through the fault schedule, retrying until the
/// reply reaches the client.
///
/// `attempt` drives the plan (injection stops once the retry budget is
/// consumed, so delivery is guaranteed); `io_retries` separately bounds
/// recovery from *real* transport errors so a genuinely dead server
/// still surfaces as `Err` instead of an infinite loop.
fn chaos_get(
    transport: &mut dyn Transport,
    clip: ClipId,
    client: u64,
    request: u64,
    plan: &FaultPlan,
    retry: &RetryPolicy,
    chaos: &mut ChaosStats,
) -> std::io::Result<GetOutcome> {
    let mut attempt: u32 = 0;
    let mut io_retries: u32 = 0;
    loop {
        let injected = if attempt <= retry.max_retries {
            plan.decide(client, request, attempt)
        } else {
            None
        };
        // Faults that consume this attempt entirely and force a retry.
        match injected {
            Some(kind @ (FaultKind::DropBeforeSend | FaultKind::DropAfterSend)) => {
                if kind == FaultKind::DropAfterSend {
                    // The server processes the request; the reply is
                    // lost in flight (read and discarded), so the
                    // retried GET is the idempotent duplicate.
                    let _ = transport.get(clip);
                    chaos.drops_after += 1;
                } else {
                    chaos.drops_before += 1;
                }
                chaos.retries += 1;
                transport.drop_conn();
                std::thread::sleep(retry.backoff(attempt));
                attempt += 1;
                continue;
            }
            // Faults that precede the real request on this attempt.
            Some(FaultKind::Garbage) => {
                chaos.garbage += 1;
                let payload = plan.garbage_payload(client, request, attempt);
                match transport.send_garbage(&payload) {
                    Ok(true) => chaos.err_replies += 1,
                    Ok(false) => {}
                    Err(_) => transport.drop_conn(),
                }
            }
            Some(FaultKind::PoisonShard) => {
                chaos.poisons += 1;
                // A refusal (chaos-disabled server) is an ERR reply, not
                // a dead connection; either way the real GET proceeds.
                let _ = transport.poison(clip);
            }
            Some(FaultKind::TornWrite) | None => {}
        }
        let result = if injected == Some(FaultKind::TornWrite) {
            chaos.torn += 1;
            transport.get_torn(clip)
        } else {
            transport.get(clip)
        };
        match result {
            Ok(outcome) => return Ok(outcome),
            Err(e) => {
                // A real transport failure (dead server, timeout,
                // refused admission): bounded reconnect-and-retry.
                if io_retries >= retry.max_retries {
                    return Err(e);
                }
                io_retries += 1;
                chaos.retries += 1;
                if is_busy_error(&e) {
                    // A governor shed: the server is alive, just loaded.
                    // Keep the connection (redialing adds to its burden)
                    // and back off before the idempotent re-send.
                    chaos.busy_backoffs += 1;
                } else {
                    transport.drop_conn();
                }
                std::thread::sleep(retry.backoff(attempt));
                attempt += 1;
            }
        }
    }
}

/// Replay `part` through `transport`, one request at a time. With no
/// plan this is the exact pre-chaos fast path that keeps the
/// serial-equivalence anchor intact; with one, every request runs
/// through [`chaos_get`].
fn replay(
    part: &Trace,
    repo: &Repository,
    transport: &mut dyn Transport,
    client: u64,
    plan: Option<&FaultPlan>,
    retry: &RetryPolicy,
) -> std::io::Result<ClientLog> {
    let mut log = ClientLog::default();
    for (index, req) in part.requests().iter().enumerate() {
        let started = Instant::now();
        let outcome = match plan {
            None => transport.get(req.clip)?,
            Some(plan) => chaos_get(
                transport,
                req.clip,
                client,
                index as u64,
                plan,
                retry,
                &mut log.chaos,
            )?,
        };
        log.record(outcome, repo.size_of(req.clip), started);
    }
    log.chaos.reconnects = transport.reconnects();
    Ok(log)
}

/// The pipelined clean replay against one server: windows of up to
/// `options.pipeline` requests are batched into one write, then the
/// replies are collected in order. Per-reply latency is measured from
/// the window's send, so it includes the queueing a deep pipeline
/// creates — that is the honest number.
///
/// Because the server preserves per-connection order, the sequence of
/// (request, outcome) pairs is identical to a depth-1 replay of the
/// same partition: pipelining changes timing, never results.
fn replay_pipelined(
    part: &Trace,
    repo: &Repository,
    addr: &str,
    options: &LoadOptions,
) -> std::io::Result<ClientLog> {
    let mut client = TcpCacheClient::connect_wire(addr, options.read_timeout, options.wire)?;
    let mut log = ClientLog::default();
    let mut window: Vec<ClipId> = Vec::with_capacity(options.pipeline);
    for batch in part.requests().chunks(options.pipeline) {
        window.clear();
        window.extend(batch.iter().map(|req| req.clip));
        let started = Instant::now();
        client.send_gets(&window)?;
        for req in batch {
            log.record(client.recv_get()?, repo.size_of(req.clip), started);
        }
    }
    client.quit()?;
    Ok(log)
}

/// Replay `trace` against `target` from `options.clients` closed-loop
/// threads, injecting `options.faults` if set.
///
/// Client `c` replays partition `c` of
/// [`Trace::partition_round_robin`]`(clients)`, so the union of issued
/// requests is exactly the trace regardless of thread count; only the
/// interleaving (and therefore multi-shard cache state) varies.
///
/// # Panics
/// If `options.clients == 0`.
pub fn run_with(
    target: &Target,
    repo: &Arc<Repository>,
    trace: &Trace,
    options: &LoadOptions,
) -> std::io::Result<LoadReport> {
    let clients = options.clients;
    assert!(clients > 0, "need at least one client");
    let parts = trace.partition_round_robin(clients);
    let started = Instant::now();
    let logs: Vec<std::io::Result<ClientLog>> = if clients == 1 {
        // Single client: run on this thread — keeps the serial-equivalence
        // path free of scheduler noise.
        vec![run_client(target, repo, &parts[0], 0, options)]
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = parts
                .iter()
                .enumerate()
                .map(|(c, part)| scope.spawn(move || run_client(target, repo, part, c, options)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        })
    };
    let elapsed_secs = started.elapsed().as_secs_f64();
    let mut observed = HitStats::new();
    let mut latency = LatencyLog::new();
    let mut chaos = ChaosStats::default();
    for log in logs {
        let log = log?;
        observed.merge(&log.stats);
        latency.merge(&log.latency);
        chaos.merge(&log.chaos);
    }
    let recoveries = match target {
        Target::InProcess(service) => service.recoveries(),
        Target::Cluster(harness) => {
            let harness = harness.lock().expect("cluster harness poisoned");
            (0..harness.nodes())
                .map(|i| harness.node(i).recoveries())
                .sum()
        }
        Target::Tcp(addr) => member_recoveries(std::slice::from_ref(addr), options)?,
        Target::ClusterTcp(route) => member_recoveries(&route.peers, options)?,
    };
    Ok(LoadReport {
        observed,
        latency,
        elapsed_secs,
        clients,
        chaos,
        recoveries,
        plan: options.faults.clone(),
    })
}

/// Shard recoveries summed over every member that still answers (a
/// dead member's count is unknowable — report what the living members
/// performed).
fn member_recoveries(peers: &[String], options: &LoadOptions) -> std::io::Result<u64> {
    let mut total = 0;
    for addr in peers {
        if let Ok(mut client) =
            TcpCacheClient::connect_wire(addr.as_str(), options.read_timeout, options.wire)
        {
            total += client.stats()?.recoveries;
            client.quit()?;
        }
    }
    Ok(total)
}

/// Replay `trace` against `target` from `clients` clean closed-loop
/// threads (no fault injection) — see [`run_with`].
pub fn run(
    target: &Target,
    repo: &Arc<Repository>,
    trace: &Trace,
    clients: usize,
) -> std::io::Result<LoadReport> {
    run_with(target, repo, trace, &LoadOptions::clients(clients))
}

fn run_client(
    target: &Target,
    repo: &Repository,
    part: &Trace,
    client_index: usize,
    options: &LoadOptions,
) -> std::io::Result<ClientLog> {
    // Any plan — even rate=0 — routes through the retrying chaos
    // replay: zero-rate injects nothing (bit-identical stats, the test
    // below pins it) but survives a server restart mid-run via lazy
    // reconnect + bounded io_retries, with the request counted exactly
    // once.
    let plan = options.faults.as_ref();
    let tcp =
        |route: &ClusterRoute| ClusterTcpTransport::new(route, options.read_timeout, options.wire);
    let mut transport: Box<dyn Transport> = match target {
        Target::InProcess(service) => Box::new(InProcessTransport {
            service: Arc::clone(service),
        }),
        Target::Cluster(harness) => Box::new(HarnessTransport {
            harness: Arc::clone(harness),
        }),
        // A lone server is one pipe, so a clean replay can batch into
        // it. Ring routing picks a connection per clip, so cluster
        // replays run request-at-a-time whatever `options.pipeline` says.
        Target::Tcp(addr) if plan.is_none() && options.pipeline > 1 => {
            return replay_pipelined(part, repo, addr, options);
        }
        Target::Tcp(addr) => Box::new(tcp(&ClusterRoute {
            peers: vec![addr.clone()],
            replication: 1,
            seed: 0,
        })),
        Target::ClusterTcp(route) => Box::new(tcp(route)),
    };
    let log = replay(
        part,
        repo,
        transport.as_mut(),
        client_index as u64,
        plan,
        &options.retry,
    )?;
    transport.finish()?;
    Ok(log)
}

/// The serial reference: replay `trace` through the plain simulator with
/// the seed shard 0 of a service would get. A 1-shard, 1-client load run
/// must produce these exact [`HitStats`].
pub fn serial_baseline(
    repo: &Arc<Repository>,
    policy: PolicySpec,
    capacity: ByteSize,
    seed: u64,
    trace: &Trace,
) -> HitStats {
    let mut cache = policy.build(Arc::clone(repo), capacity, shard_seed(seed, 0), None);
    simulate(
        cache.as_mut(),
        repo,
        trace.requests(),
        &SimulationConfig::default(),
    )
    .stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{serve_with, GovernorConfig, ServerConfig};
    use crate::service::ServiceConfig;
    use clipcache_core::PolicyKind;
    use clipcache_media::paper;
    use clipcache_workload::RequestGenerator;

    fn fixture(shards: usize) -> (Arc<Repository>, Arc<CacheService>, Trace) {
        let repo = Arc::new(paper::variable_sized_repository_of(24));
        let service = Arc::new(
            CacheService::new(
                Arc::clone(&repo),
                ServiceConfig::new(
                    PolicyKind::Lru,
                    shards,
                    repo.cache_capacity_for_ratio(0.25),
                    42,
                ),
                None,
            )
            .unwrap(),
        );
        let trace = Trace::from_generator(RequestGenerator::new(24, 0.27, 0, 2_000, 9));
        (repo, service, trace)
    }

    #[test]
    fn observed_stats_match_service_stats() {
        let (repo, service, trace) = fixture(4);
        let report = run(&Target::InProcess(Arc::clone(&service)), &repo, &trace, 3).unwrap();
        // Client-observed and server-side counters describe the same
        // requests, so they agree exactly whatever the interleaving.
        assert_eq!(report.observed, service.stats());
        assert_eq!(report.observed.requests(), 2_000);
        assert_eq!(report.latency.count(), 2_000);
        assert!(report.throughput() > 0.0);
        assert_eq!(report.chaos.delivered, 2_000);
        assert!(report.conserved());
        assert_eq!(report.recoveries, 0);
    }

    #[test]
    fn single_client_single_shard_is_serial() {
        let (repo, service, trace) = fixture(1);
        let report = run(&Target::InProcess(Arc::clone(&service)), &repo, &trace, 1).unwrap();
        let baseline = serial_baseline(
            &repo,
            PolicyKind::Lru.into(),
            repo.cache_capacity_for_ratio(0.25),
            42,
            &trace,
        );
        assert_eq!(report.observed, baseline);
        assert_eq!(service.stats(), baseline);
    }

    #[test]
    fn busy_replies_keep_the_connection() {
        // A governor whose watermarks are all 0 sheds every GET. BUSY
        // means the server is alive and the connection in sync, so the
        // transport must not redial after it.
        let (_, service, _) = fixture(1);
        let shed_all = GovernorConfig {
            conn_local_only: 0,
            conn_shed: 0,
            global_local_only: 0,
            global_shed: 0,
        };
        let config = ServerConfig {
            governor: shed_all,
            ..ServerConfig::default()
        };
        let handle = serve_with(service, "127.0.0.1:0", config).expect("bind loopback");
        let route = ClusterRoute {
            peers: vec![handle.addr().to_string()],
            replication: 1,
            seed: 0,
        };
        let mut transport = ClusterTcpTransport::new(&route, None, Wire::Text);
        for _ in 0..3 {
            let err = transport.get(ClipId::new(1)).unwrap_err();
            assert!(is_busy_error(&err), "expected BUSY, got {err}");
        }
        assert_eq!(transport.reconnects(), 0, "BUSY must not force a redial");
        transport.finish().unwrap();
        handle.shutdown();
    }

    #[test]
    fn zero_rate_plan_is_bit_identical_to_clean_replay() {
        let (repo, clean_service, trace) = fixture(1);
        let clean = run(
            &Target::InProcess(Arc::clone(&clean_service)),
            &repo,
            &trace,
            1,
        )
        .unwrap();
        let (_, chaos_service, _) = fixture(1);
        let options = LoadOptions {
            faults: Some(FaultPlan::new(7, 0.0)),
            ..LoadOptions::default()
        };
        let chaotic = run_with(
            &Target::InProcess(Arc::clone(&chaos_service)),
            &repo,
            &trace,
            &options,
        )
        .unwrap();
        assert_eq!(chaotic.observed, clean.observed);
        assert_eq!(chaotic.chaos.injected(), 0);
        assert!(chaotic.conserved());
    }
}
