//! The closed-loop load harness.
//!
//! [`run`] replays a materialized trace against a target — the in-process
//! service or a TCP front-end — from `clients` threads. Each client owns
//! a round-robin partition of the trace and issues its next request only
//! after the previous reply arrives (closed loop: offered load adapts to
//! service speed, there is no open-loop queue to overflow). Per-client
//! [`HitStats`] and [`LatencyLog`]s merge order-invariantly into the
//! [`LoadReport`]. Every target shares one ring-routing transport over
//! [`TcpCacheClient`]. A lone server is the one-member, R = 1 route, and
//! so is the in-process target, whose connections are the server's own
//! socket-free sessions; the cluster harness's route dials its members'
//! nodes the same way. Every replay runs the request path `serve` runs,
//! minus the socket where there is none.
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

use crate::client::TcpCacheClient;
use crate::cluster::{ClusterHarness, ClusterView, Dial};
use crate::fault::{ChaosStats, Failure, FaultKind, FaultPlan, FaultStream, RetryPolicy};
use crate::latency::LatencyLog;
use crate::protocol::Wire;
use crate::server::InProcessConn;
use crate::service::CacheService;
use crate::shard::{shard_seed, GetOutcome};
use clipcache_core::PolicySpec;
use clipcache_media::{ByteSize, ClipId, Repository};
use clipcache_sim::metrics::HitStats;
use clipcache_sim::runner::{simulate, SimulationConfig};
use clipcache_workload::Trace;
use std::io::{Read, Write};
use std::net::TcpStream;
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
    /// Serve from this process: one server session per connection, no
    /// sockets.
    InProcess(Arc<CacheService>),
    /// One server at this address, one connection per client thread:
    /// the one-member, R = 1 case of [`Target::ClusterTcp`].
    Tcp(String),
    /// The in-process cluster harness: ring routing over connections
    /// into its members' server nodes, no sockets. Deterministic with
    /// `clients == 1`; multi-client runs serialize their GETs on the
    /// harness lock.
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
    /// In-process replies are ready when the request returns.
    pub read_timeout: Option<Duration>,
    /// Wire protocol of every client connection. Binary is the fast
    /// path; text is the debuggable default every pre-existing golden
    /// was recorded against.
    pub wire: Wire,
    /// Pipeline depth for *clean* single-node replays, TCP or
    /// in-process: each client keeps up to this many requests in flight
    /// on its connection (batched into one write per window). Depth 1
    /// is the classic closed loop. The chaos replay always runs
    /// request-at-a-time regardless — fault attribution is per-request.
    /// Per-connection reply order is preserved by the server, so a
    /// 1-shard 1-client pipelined run is still bit-identical to the
    /// serial simulator.
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

/// The one transport: a lazy connection per route member, each GET sent
/// to the clip's first reachable owner (read-any failover in owner
/// order). A lone server and the in-process target are one-member,
/// R = 1 routes; a cluster harness route dials the harness's members,
/// and so does the harness's own GET. Every verb is bytes on a
/// [`FaultStream`]. After a failure, [`Failure::recovery`] says whether
/// the member's connection goes; its next request redials through
/// `dial` (counting the reconnect), which is how a killed-and-restarted
/// node is picked back up without any membership churn.
pub(crate) struct RouteTransport<'a, S> {
    view: ClusterView,
    dial: Dial<'a, FaultStream<S>>,
    conns: Vec<Option<TcpCacheClient<FaultStream<S>>>>,
    /// Members dialled at least once (their first dial is
    /// establishment, not recovery).
    pub(crate) dialled: Vec<bool>,
    pub(crate) reconnects: u64,
    /// Garbage replies that were `ERR`.
    err_replies: u64,
    /// The fault the next GET carries on the connection it uses, with
    /// its text garbage line.
    armed: Option<(FaultKind, Vec<u8>)>,
    /// The cluster harness whose members the route dials: each GET runs
    /// under its lock, which applies its kill schedule and counts where
    /// the GET was served.
    harness: Option<&'a Mutex<ClusterHarness>>,
}

impl<'a, S: Read + Write> RouteTransport<'a, S> {
    pub(crate) fn new(view: ClusterView, members: usize, dial: Dial<'a, FaultStream<S>>) -> Self {
        RouteTransport {
            view,
            dial,
            conns: (0..members).map(|_| None).collect(),
            dialled: vec![false; members],
            reconnects: 0,
            err_replies: 0,
            armed: None,
            harness: None,
        }
    }

    /// Shard recoveries summed over every member that still answers (a
    /// dead member's count is unknowable — report what the living
    /// members performed).
    fn recoveries(mut self) -> std::io::Result<u64> {
        let mut total = 0;
        for member in 0..self.conns.len() {
            if let Ok(client) = self.ensure(member) {
                total += client.stats()?.recoveries;
            }
        }
        self.finish();
        Ok(total)
    }

    fn ensure(&mut self, node: usize) -> std::io::Result<&mut TcpCacheClient<FaultStream<S>>> {
        if self.conns[node].is_none() {
            self.conns[node] = Some((self.dial)(node)?);
            if self.dialled[node] {
                self.reconnects += 1;
            }
            self.dialled[node] = true;
        }
        Ok(self.conns[node].as_mut().expect("just connected"))
    }

    /// Run `op` against a clip's `owners` in order until one succeeds,
    /// returning the member that did. The armed fault goes to the first
    /// connection the route reaches. Each failure is recovered as its
    /// class says: the connection goes or stays, and the next owner is
    /// tried or the failure returned.
    pub(crate) fn on_owners<T>(
        &mut self,
        owners: &[usize],
        mut op: impl FnMut(&mut TcpCacheClient<FaultStream<S>>) -> std::io::Result<T>,
    ) -> std::io::Result<(usize, T)> {
        let mut armed = self.armed.take();
        let mut last: Option<std::io::Error> = None;
        for &node in owners {
            let (result, err_replies) = match self.ensure(node) {
                Ok(client) => {
                    if let Some((kind, payload)) = armed.take() {
                        client.stream_mut().arm(kind, &payload);
                    }
                    let result = op(client);
                    (result, std::mem::take(&mut client.stream_mut().err_replies))
                }
                Err(e) => (Err(e), 0),
            };
            self.err_replies += err_replies;
            let e = match result {
                Ok(value) => return Ok((node, value)),
                Err(e) => e,
            };
            let recovery = Failure::of(&e).recovery();
            if recovery.redial {
                self.conns[node] = None;
            }
            if !recovery.failover {
                return Err(e);
            }
            last = Some(e);
        }
        Err(last.expect("owner set is never empty"))
    }

    /// A GET to the clip's first reachable owner. On a harness route it
    /// runs under the harness lock, so the harness applies its kill
    /// schedule first and counts the delivery.
    fn get(&mut self, clip: ClipId) -> std::io::Result<GetOutcome> {
        let Some(harness) = self.harness else {
            return self
                .on_owners(&self.view.owners_for(clip), |c| c.get(clip))
                .map(|(_, outcome)| outcome);
        };
        let mut harness = harness.lock().expect("cluster harness poisoned");
        let routed = harness.route_get(clip, |owners| self.on_owners(owners, |c| c.get(clip)));
        // A GET that found no owner alive reached no connection; its
        // fault goes with it.
        self.armed = None;
        routed
    }

    /// End the run politely: `QUIT` on every open connection. A member
    /// that went down after its last request has no session left to
    /// close, so a failed `QUIT` is no failure of the run.
    fn finish(&mut self) {
        for client in self.conns.iter_mut().filter_map(Option::take) {
            let _ = client.quit();
        }
    }
}

/// Deliver one request through the fault schedule, retrying until the
/// reply reaches the client. Each attempt arms the plan's fault, sends
/// one plain GET, and leaves what a failure costs to
/// [`Failure::recovery`]. `attempt` drives the plan (injection stops
/// once the retry budget is consumed, so delivery is guaranteed);
/// `io_retries` separately bounds recovery from *real* failures so a
/// genuinely dead server still surfaces as `Err` instead of an infinite
/// loop.
fn chaos_get<S: Read + Write>(
    transport: &mut RouteTransport<S>,
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
        if attempt <= retry.max_retries {
            if let Some(kind) = plan.decide(client, request, attempt) {
                chaos.count(kind);
                if kind == FaultKind::PoisonShard {
                    // A refusal (chaos-disabled server) is an `ERR`,
                    // which keeps the connection; either way the GET
                    // proceeds.
                    let owners = transport.view.owners_for(clip);
                    let _ = transport.on_owners(&owners, |c| c.poison(clip));
                } else {
                    let payload = plan.garbage_payload(client, request, attempt);
                    transport.armed = Some((kind, payload));
                }
            }
        }
        let e = match transport.get(clip) {
            Ok(outcome) => return Ok(outcome),
            Err(e) => e,
        };
        let failure = Failure::of(&e);
        if failure.recovery().io_budget {
            if io_retries >= retry.max_retries {
                return Err(e);
            }
            io_retries += 1;
        }
        chaos.retries += 1;
        chaos.busy_backoffs += u64::from(failure == Failure::Busy);
        std::thread::sleep(retry.backoff(attempt));
        attempt += 1;
    }
}

/// Replay `part` over `route`, then end the run politely. A lone server
/// is one pipe, so a clean replay can batch into it; ring routing picks
/// a connection per clip, and the cluster harness counts each GET, so
/// those routes run request-at-a-time whatever `options.pipeline` says.
/// With no plan each request is one plain GET, the path that keeps the
/// serial-equivalence anchor intact; with any plan, even a zero-rate one
/// (see the module doc), every request runs through [`chaos_get`].
fn replay<S: Read + Write>(
    part: &Trace,
    repo: &Repository,
    mut route: RouteTransport<S>,
    client: u64,
    options: &LoadOptions,
) -> std::io::Result<ClientLog> {
    let lone = route.conns.len() == 1 && route.harness.is_none();
    if options.faults.is_none() && options.pipeline > 1 && lone {
        let log = replay_pipelined(part, repo, route.ensure(0)?, options.pipeline)?;
        route.finish();
        return Ok(log);
    }
    let (plan, retry) = (options.faults.as_ref(), &options.retry);
    let mut log = ClientLog::default();
    for (index, req) in part.requests().iter().enumerate() {
        let started = Instant::now();
        let outcome = match plan {
            None => route.get(req.clip)?,
            Some(plan) => chaos_get(
                &mut route,
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
    log.chaos.reconnects = route.reconnects;
    log.chaos.err_replies = route.err_replies;
    route.finish();
    Ok(log)
}

/// The pipelined clean replay over one connection to one server: windows
/// of up to `depth` requests are batched into one write, then the
/// replies are collected in order. Per-reply latency is measured from
/// the window's send, so it includes the queueing a deep pipeline
/// creates — that is the honest number.
///
/// Because the server preserves per-connection order, the sequence of
/// (request, outcome) pairs is identical to a depth-1 replay of the
/// same partition: pipelining changes timing, never results.
fn replay_pipelined<S: Read + Write>(
    part: &Trace,
    repo: &Repository,
    client: &mut TcpCacheClient<FaultStream<S>>,
    depth: usize,
) -> std::io::Result<ClientLog> {
    let mut log = ClientLog::default();
    let mut window: Vec<ClipId> = Vec::with_capacity(depth);
    for batch in part.requests().chunks(depth) {
        window.clear();
        window.extend(batch.iter().map(|req| req.clip));
        let started = Instant::now();
        client.send_gets(&window)?;
        for req in batch {
            log.record(client.recv_get()?, repo.size_of(req.clip), started);
        }
    }
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
        Target::Cluster(harness) => harness_route(harness, options.wire).recoveries()?,
        Target::InProcess(service) => in_process_route(service, options.wire).recoveries()?,
        Target::Tcp(addr) => tcp_route(lone(), std::slice::from_ref(addr), options).recoveries()?,
        Target::ClusterTcp(route) => tcp_route(route.view(), &route.peers, options).recoveries()?,
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

/// The TCP route over `peers`, laid out by `view`.
fn tcp_route<'a>(
    view: ClusterView,
    peers: &'a [String],
    options: &'a LoadOptions,
) -> RouteTransport<'a, TcpStream> {
    let (timeout, wire) = (options.read_timeout, options.wire);
    let dial = move |i: usize| {
        let stream = TcpCacheClient::connect_wire(&*peers[i], timeout, wire)?.into_stream();
        Ok(TcpCacheClient::over(
            FaultStream::new(stream, wire, None),
            wire,
        ))
    };
    RouteTransport::new(view, peers.len(), Box::new(dial))
}

/// The one-member route into `service`: each dial opens a session of
/// its own, served by a node of its own.
fn in_process_route(service: &Arc<CacheService>, wire: Wire) -> RouteTransport<'_, InProcessConn> {
    let dial = move |_| {
        let conn = FaultStream::new(InProcessConn::new(Arc::clone(service)), wire, None);
        Ok(TcpCacheClient::over(conn, wire))
    };
    RouteTransport::new(lone(), 1, Box::new(dial))
}

/// The route into `harness`'s members. Its GETs take the harness lock,
/// so multi-client runs serialize on it.
fn harness_route(harness: &Mutex<ClusterHarness>, wire: Wire) -> RouteTransport<'_, InProcessConn> {
    let mut route = harness
        .lock()
        .expect("cluster harness poisoned")
        .route(wire);
    route.harness = Some(harness);
    route
}

/// The topology of a lone server: one member, R = 1.
fn lone() -> ClusterView {
    ClusterView::new(0, 1, 1)
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
    let client = client_index as u64;
    match target {
        Target::Cluster(harness) => {
            let route = harness_route(harness, options.wire);
            replay(part, repo, route, client, options)
        }
        Target::InProcess(service) => {
            let route = in_process_route(service, options.wire);
            replay(part, repo, route, client, options)
        }
        Target::Tcp(addr) => {
            let route = tcp_route(lone(), std::slice::from_ref(addr), options);
            replay(part, repo, route, client, options)
        }
        Target::ClusterTcp(route) => {
            let route = tcp_route(route.view(), &route.peers, options);
            replay(part, repo, route, client, options)
        }
    }
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
    use crate::client::is_busy_error;
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
        let peers = [handle.addr().to_string()];
        let options = LoadOptions::default();
        let mut transport = tcp_route(lone(), &peers, &options);
        for _ in 0..3 {
            let err = transport.get(ClipId::new(1)).unwrap_err();
            assert!(is_busy_error(&err), "expected BUSY, got {err}");
        }
        assert_eq!(transport.reconnects, 0, "BUSY must not force a redial");
        transport.finish();
        handle.shutdown();
    }

    #[test]
    fn a_harness_client_redials_a_member_that_went_down() {
        // The client's connection into a killed member fails, so the GET
        // fails over to the next owner; once the member is back, the
        // next GET routed to it redials. That is one reconnect, and no
        // retry: failover happens inside the route.
        let run = |span: Option<(u64, u64)>| {
            let (repo, _, trace) = fixture(1);
            let services = (0..3).map(|_| fixture(1).1).collect();
            let mut harness = ClusterHarness::new(5, 2, services);
            if let Some((kill, revive)) = span {
                harness.schedule_kill(1, kill);
                harness.schedule_revive(1, revive);
            }
            let options = LoadOptions {
                faults: Some(FaultPlan::new(7, 0.0)),
                ..LoadOptions::default()
            };
            let target = Target::Cluster(Arc::new(Mutex::new(harness)));
            let report = run_with(&target, &repo, &trace, &options).unwrap();
            assert!(report.conserved());
            let Target::Cluster(harness) = target else {
                unreachable!()
            };
            let failovers = harness.lock().unwrap().stats().failovers;
            (report.chaos.reconnects, report.chaos.retries, failovers)
        };
        assert_eq!(run(None), (0, 0, 0));
        let (reconnects, retries, failovers) = run(Some((500, 1_500)));
        assert_eq!((reconnects, retries), (1, 0));
        assert!(failovers > 0);
        // A run that ends during the outage still ends cleanly.
        let (reconnects, retries, _) = run(Some((1_999, 5_000)));
        assert_eq!((reconnects, retries), (0, 0));
    }

    #[test]
    fn a_drop_redials_only_the_member_the_attempt_used() {
        // Three members, R = 2, every member's connection open. Each
        // injected drop must cost exactly one redial, of the member the
        // faulted attempt used, however many members the route holds.
        // With no retry budget, only a request's first attempt is faulted.
        for kind in [FaultKind::DropBeforeSend, FaultKind::DropAfterSend] {
            let services = (0..3).map(|_| fixture(1).1).collect();
            let harness = Mutex::new(ClusterHarness::new(5, 2, services));
            let mut route = harness_route(&harness, Wire::Text);
            let first_owned_by = |member: usize| {
                (1..=24)
                    .map(ClipId::new)
                    .find(|&c| route.view.owners_for(c)[0] == member)
                    .expect("every member owns a clip first")
            };
            let clips: Vec<ClipId> = (0..3).map(first_owned_by).collect();
            for &clip in &clips {
                route.get(clip).unwrap();
            }
            assert_eq!(route.reconnects, 0);
            let plan = FaultPlan::with_kinds(7, 1.0, &[kind]);
            let retry = RetryPolicy {
                max_retries: 0,
                ..RetryPolicy::default()
            };
            let mut chaos = ChaosStats::default();
            for (request, &clip) in [clips[1], clips[1], clips[2]].iter().enumerate() {
                chaos_get(
                    &mut route,
                    clip,
                    0,
                    request as u64,
                    &plan,
                    &retry,
                    &mut chaos,
                )
                .unwrap();
                assert_eq!(chaos.retries, request as u64 + 1);
                assert_eq!(
                    route.reconnects, chaos.retries,
                    "{kind:?}: one redial per drop"
                );
                assert!(route.conns.iter().all(Option::is_some), "{kind:?}");
            }
            for &clip in &clips {
                route.get(clip).unwrap();
            }
            assert_eq!(route.reconnects, 3, "{kind:?}: no other member redials");
            route.finish();
        }
    }

    #[test]
    fn a_get_with_no_owner_alive_drops_its_armed_fault() {
        let services = (0..2).map(|_| fixture(1).1).collect();
        let harness = Mutex::new(ClusterHarness::new(5, 1, services));
        let mut route = harness_route(&harness, Wire::Text);
        let clip = ClipId::new(1);
        let owner = route.view.owners_for(clip)[0];
        harness.lock().unwrap().kill(owner);
        route.armed = Some((FaultKind::DropBeforeSend, Vec::new()));
        assert!(route.get(clip).is_err(), "no owner is alive");
        harness.lock().unwrap().revive(owner);
        route.get(clip).expect("the next GET carries no fault");
        route.finish();
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
