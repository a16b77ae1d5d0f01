//! The cluster tier: static membership, ring placement, peer fill, and
//! the in-process harness.
//!
//! A cluster is N `serve` processes, each running the unmodified epoll
//! event loop over its own [`CacheService`], joined by nothing more
//! than a static membership list and a shared seed. There is no
//! coordinator and no gossip: placement is a pure function of
//! `(seed, membership, clip)` through [`HashRing`], so every node and
//! every client computes identical owner sets without talking to
//! anyone.
//!
//! ## Placement and replication
//!
//! A clip's owners are the first `R` distinct nodes clockwise from its
//! ring point ([`ClusterView::owners_for`]). Reads are **read-any**: a
//! client sends its GET to the first alive owner. Writes (cache fills)
//! are **write-all-on-miss**: when the handling owner misses locally it
//! probes every other owner with `PEERGET`, and a `PEERGET` is a full
//! local access on the receiving node — it admits on miss. After any
//! miss-handled GET, every reachable owner therefore holds the clip,
//! which is what makes read-any sound. On a local hit no peer traffic
//! happens at all, so replicas' recency drifts between fills; that is
//! deliberate (hits are the common case and must stay single-node
//! cheap).
//!
//! A peer fill that finds the clip on some other owner is reported to
//! the client as `PHIT` (`GetOutcome::peer`): not a local hit, but not
//! an origin fetch either. `PEERGET` never recurses — the receiving
//! node answers from its own shards only — so peer traffic is loop-free
//! by construction.
//!
//! With `R = 1` the probe set (owners minus self) is empty and the
//! cluster tier adds *zero* work to the request path: a 1-node / R=1
//! cluster is bit-for-bit the standalone server, which keeps the serial
//! equivalence anchor intact.
//!
//! ## One fill engine, two links
//!
//! Breakers, hint queues, probe and replay, and their counters live in
//! one [`FillEngine`] per handling node, which reaches peers only
//! through the one-method [`PeerLink`]: a TCP connection pool in
//! [`ClusterRuntime`] (what `serve` runs), or the member services plus
//! a [`PeerFaults`] plan in [`ClusterHarness`] (what `clusterbench`,
//! `degradebench` and the cluster chaos goldens run). `probes` counts
//! every admitted probe, failed ones included; `errors` counts every
//! probe or hint replay whose reply never came.
//!
//! ## Versioning
//!
//! Peers handshake with `VERSION` ([`WireVersions`]) before the first
//! probe. Any skew — protocol, snapshot, or WAL — marks the peer
//! terminally skewed (`PeerSlot::Skewed`) and is reported loudly by name;
//! a skewed peer is never probed again (fail loud, not byzantine).
//!
//! ## Degraded mode: breakers and hinted handoff
//!
//! Every peer sits behind a [`PeerBreaker`] — a **count-based** circuit
//! breaker (Closed → Open after [`BREAKER_FAILURE_THRESHOLD`]
//! consecutive failures → HalfOpen probe after
//! [`BREAKER_PROBE_INTERVAL`] skipped attempts → Closed on success).
//! It records probe outcomes, so a lost reply is a failure just like a
//! dead peer. The schedule consults no clock: breaker state is a pure
//! function of the failure/success sequence, so a killed member costs
//! at most K timeouts before misses degrade to local-only fills, and
//! the replay stays deterministic like everything else.
//!
//! While a peer's breaker is Open its half of write-all is not simply
//! dropped: the handler enqueues a bounded per-peer **hint**
//! ([`HANDOFF_QUEUE_LIMIT`] clips, oldest dropped first, duplicates
//! collapsed) and replays the queue as soon as a probe to that peer
//! succeeds again — restoring replica coverage after a revive without
//! any coordinator.
//!
//! ## Fault injection
//!
//! The in-process link replays the same deterministic chaos discipline
//! as the wire harness: a [`PeerFaults`] plan (drop-pre / drop-post /
//! garbage only — torn writes and shard poison make no sense on the
//! modelled peer hop) decides faults as a pure function of `(handler
//! node, peer-wire sequence)`. A dropped-after-send probe still executes
//! on the peer — the duplicated access is exactly the idempotent-GET
//! duplicate the single-node chaos suite already proves harmless — so
//! the conservation invariant `delivered = local hits + peer hits +
//! misses` holds at every rate.

use crate::client::TcpCacheClient;
use crate::fault::{FaultKind, FaultPlan};
use crate::protocol::WireVersions;
use crate::ring::{HashRing, DEFAULT_VNODES};
use crate::service::{CacheService, ServiceError};
use crate::shard::GetOutcome;
use clipcache_media::ClipId;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Duration;

/// Default budget for opening a peer connection.
pub const DEFAULT_PEER_CONNECT_TIMEOUT: Duration = Duration::from_millis(250);

/// Default budget for a peer reply; also bounds how long a mutual-fetch
/// stall between two busy event loops can last.
pub const DEFAULT_PEER_READ_TIMEOUT: Duration = Duration::from_millis(1000);

/// Consecutive probe failures before a peer's breaker trips Open.
pub const BREAKER_FAILURE_THRESHOLD: u32 = 3;

/// Probe attempts skipped while Open before the breaker lets one
/// HalfOpen probe through. Count-based on purpose: a wall-clock
/// cool-down would make breaker state depend on timing and break the
/// deterministic-replay contract every other subsystem keeps.
pub const BREAKER_PROBE_INTERVAL: u64 = 8;

/// Per-peer hint-queue bound. The queue drops its *oldest* hint when
/// full — the newest misses are the ones a reviving replica most needs
/// — and collapses duplicate clips, so it holds at most
/// `HANDOFF_QUEUE_LIMIT` distinct clips per peer.
pub const HANDOFF_QUEUE_LIMIT: usize = 128;

/// Circuit-breaker state for one peer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: every probe is admitted.
    Closed,
    /// Tripped: probes are skipped (and their write-all half hinted)
    /// until `BREAKER_PROBE_INTERVAL` attempts have been skipped.
    Open,
    /// One probe in flight to test the peer; its outcome decides
    /// Closed (success) or Open again (failure).
    HalfOpen,
}

/// A deterministic, count-based circuit breaker for one peer.
///
/// Closed → Open after `failure_threshold` *consecutive* failures;
/// Open → HalfOpen after `probe_interval` skipped attempts; HalfOpen →
/// Closed on a successful probe, back to Open on a failed one. No
/// wall clock anywhere: the state after any call sequence is a pure
/// function of that sequence (`tests/breaker_props.rs` pins it), which
/// keeps cluster replays byte-identical.
///
/// Usage discipline: call [`admit`](Self::admit) before each probe
/// attempt; iff it returns `true`, perform the probe and report the
/// outcome with [`record`](Self::record).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PeerBreaker {
    state: BreakerState,
    consecutive_failures: u32,
    skipped: u64,
    failure_threshold: u32,
    probe_interval: u64,
    opens: u64,
}

impl Default for PeerBreaker {
    fn default() -> PeerBreaker {
        PeerBreaker::new(BREAKER_FAILURE_THRESHOLD, BREAKER_PROBE_INTERVAL)
    }
}

impl PeerBreaker {
    /// A Closed breaker with explicit thresholds.
    ///
    /// # Panics
    /// If `failure_threshold` or `probe_interval` is zero (a breaker
    /// that trips on nothing, or never re-probes, is a config bug).
    pub fn new(failure_threshold: u32, probe_interval: u64) -> PeerBreaker {
        assert!(failure_threshold > 0, "failure threshold must be >= 1");
        assert!(probe_interval > 0, "probe interval must be >= 1");
        PeerBreaker {
            state: BreakerState::Closed,
            consecutive_failures: 0,
            skipped: 0,
            failure_threshold,
            probe_interval,
            opens: 0,
        }
    }

    /// Current state.
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// Cumulative trips into Open (from Closed or HalfOpen).
    pub fn opens(&self) -> u64 {
        self.opens
    }

    /// Gate one probe attempt. `true` means probe now (and then call
    /// [`record`](Self::record)); `false` means skip — the peer is Open
    /// and the skip was counted toward the next HalfOpen probe.
    pub fn admit(&mut self) -> bool {
        match self.state {
            BreakerState::Closed | BreakerState::HalfOpen => true,
            BreakerState::Open => {
                self.skipped += 1;
                if self.skipped >= self.probe_interval {
                    self.state = BreakerState::HalfOpen;
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Record the outcome of an admitted probe.
    pub fn record(&mut self, ok: bool) {
        match self.state {
            BreakerState::Closed => {
                if ok {
                    self.consecutive_failures = 0;
                } else {
                    self.consecutive_failures += 1;
                    if self.consecutive_failures >= self.failure_threshold {
                        self.trip();
                    }
                }
            }
            BreakerState::HalfOpen => {
                if ok {
                    self.state = BreakerState::Closed;
                    self.consecutive_failures = 0;
                } else {
                    self.trip();
                }
            }
            // `record` without a `true` from `admit` is a caller bug,
            // but stay total: an Open breaker ignores stray outcomes.
            BreakerState::Open => {}
        }
    }

    fn trip(&mut self) {
        self.state = BreakerState::Open;
        self.skipped = 0;
        self.consecutive_failures = 0;
        self.opens += 1;
    }
}

/// Static cluster membership plus this node's place in it.
///
/// `peers` lists every member's address **including this node's own**,
/// in the shared membership order; `me` indexes it. Every member must
/// be started with an identical list and seed or placement diverges —
/// there is no runtime agreement protocol to save you.
#[derive(Debug, Clone)]
pub struct ClusterSpec {
    /// Every member address, in shared membership order (self included).
    pub peers: Vec<String>,
    /// This node's index into `peers`.
    pub me: usize,
    /// Replication factor `R` (1 ..= peers.len()).
    pub replication: usize,
    /// Ring seed — must equal every other member's.
    pub seed: u64,
    /// Vnodes per member on the ring.
    pub vnodes: usize,
    /// Budget for opening a peer connection.
    pub connect_timeout: Duration,
    /// Budget for a peer reply.
    pub read_timeout: Duration,
}

impl ClusterSpec {
    /// Build and validate a spec with default vnodes and timeouts.
    pub fn new(
        peers: Vec<String>,
        me: usize,
        replication: usize,
        seed: u64,
    ) -> Result<ClusterSpec, String> {
        if peers.is_empty() {
            return Err("cluster needs at least one member".into());
        }
        if me >= peers.len() {
            return Err(format!(
                "self index {me} out of range for {} member(s)",
                peers.len()
            ));
        }
        if replication == 0 || replication > peers.len() {
            return Err(format!(
                "replication factor {replication} must be in 1..={}",
                peers.len()
            ));
        }
        Ok(ClusterSpec {
            peers,
            me,
            replication,
            seed,
            vnodes: DEFAULT_VNODES,
            connect_timeout: DEFAULT_PEER_CONNECT_TIMEOUT,
            read_timeout: DEFAULT_PEER_READ_TIMEOUT,
        })
    }

    /// The pure-topology view this spec induces.
    pub fn view(&self) -> ClusterView {
        ClusterView::with_vnodes(self.seed, self.peers.len(), self.replication, self.vnodes)
    }
}

/// Pure cluster topology: the ring plus the replication factor. No
/// addresses, no sockets — the same view drives the TCP router, the
/// server-side peer fill, and the in-process harness, which is how
/// "every party computes identical placement" is enforced by
/// construction rather than by agreement.
#[derive(Debug, Clone)]
pub struct ClusterView {
    ring: HashRing,
    replication: usize,
}

impl ClusterView {
    /// A view with the default vnode count.
    pub fn new(seed: u64, nodes: usize, replication: usize) -> ClusterView {
        ClusterView::with_vnodes(seed, nodes, replication, DEFAULT_VNODES)
    }

    /// A view with an explicit vnode count.
    ///
    /// # Panics
    /// If `nodes == 0`, `vnodes == 0`, or `replication` is outside
    /// `1..=nodes`.
    pub fn with_vnodes(seed: u64, nodes: usize, replication: usize, vnodes: usize) -> ClusterView {
        assert!(
            (1..=nodes).contains(&replication),
            "replication factor {replication} must be in 1..={nodes}"
        );
        ClusterView {
            ring: HashRing::with_vnodes(seed, nodes, vnodes),
            replication,
        }
    }

    /// Replication factor.
    pub fn replication(&self) -> usize {
        self.replication
    }

    /// The clip's owner set: primary first, then `R - 1` distinct ring
    /// successors. Identical on every node and every client.
    pub fn owners_for(&self, clip: ClipId) -> Vec<usize> {
        self.ring.owners(u64::from(clip.get()), self.replication)
    }
}

/// One `PEERGET` from the filling node to `peer`: everything a
/// [`FillEngine`] needs from the outside world.
///
/// `Ok(had)` says whether the peer already held `clip` (it admits on a
/// miss either way). `Err(())` means no reply arrived — the peer is
/// dead, unreachable or version-skewed, or the reply was lost; the
/// engine needs no more detail than that to drive its breakers.
#[allow(clippy::result_unit_err)]
pub trait PeerLink {
    /// Send one `PEERGET clip` to `peer` and wait for its reply.
    fn peer_get(&mut self, peer: usize, clip: ClipId) -> Result<bool, ()>;
}

/// A [`FillEngine`]'s counters, summed over every peer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FillStats {
    /// Fills some peer already held (`PHIT`s served).
    pub peer_hits: u64,
    /// Probes the breakers admitted, failed ones included.
    pub probes: u64,
    /// Probes and hint replays that got no reply.
    pub errors: u64,
    /// Breaker trips into Open.
    pub breaker_opens: u64,
    /// Probe attempts skipped because the peer's breaker was Open.
    pub breaker_skipped: u64,
    /// Write-all halves queued as hints for Open peers.
    pub handoff_queued: u64,
    /// Hints replayed onto healed peers.
    pub handoff_replayed: u64,
    /// Hints dropped because a peer's queue was full (oldest first).
    pub handoff_dropped: u64,
}

impl FillStats {
    fn add(&mut self, other: &FillStats) {
        self.peer_hits += other.peer_hits;
        self.probes += other.probes;
        self.errors += other.errors;
        self.breaker_opens += other.breaker_opens;
        self.breaker_skipped += other.breaker_skipped;
        self.handoff_queued += other.handoff_queued;
        self.handoff_replayed += other.handoff_replayed;
        self.handoff_dropped += other.handoff_dropped;
    }
}

/// The peer fill of one handling node: a [`PeerBreaker`] and a bounded,
/// duplicate-free hint queue per peer, the probe/replay algorithm, and
/// its [`FillStats`]. `serve` runs one over TCP ([`ClusterRuntime`]);
/// [`ClusterHarness`] runs one per member over its in-process link.
#[derive(Debug, Clone)]
pub struct FillEngine {
    me: usize,
    breakers: Vec<PeerBreaker>,
    hints: Vec<VecDeque<ClipId>>,
    stats: FillStats,
}

impl FillEngine {
    /// The engine of node `me` in a `nodes`-member cluster, every peer
    /// behind a fresh copy of `breaker`.
    pub fn new(me: usize, nodes: usize, breaker: PeerBreaker) -> FillEngine {
        FillEngine {
            me,
            breakers: vec![breaker; nodes],
            hints: vec![VecDeque::new(); nodes],
            stats: FillStats::default(),
        }
    }

    /// Counters so far.
    pub fn stats(&self) -> FillStats {
        self.stats
    }

    /// The breaker guarding `peer`.
    pub fn breaker(&self, peer: usize) -> &PeerBreaker {
        &self.breakers[peer]
    }

    /// Clips waiting to be replayed onto `peer`, oldest first.
    pub fn hints(&self, peer: usize) -> &VecDeque<ClipId> {
        &self.hints[peer]
    }

    /// Peers whose breaker is currently Open (`STATS breaker_open=`).
    pub fn breaker_open(&self) -> u64 {
        self.breakers
            .iter()
            .filter(|b| b.state() == BreakerState::Open)
            .count() as u64
    }

    /// Peer fill after a local miss on `clip`: probe every owner other
    /// than this node with `PEERGET` (which is also the write-all half —
    /// each probed owner admits on its own miss). Returns whether any
    /// peer already had the clip. With `R = 1` the probe set is empty
    /// and this is a no-op returning `false`.
    ///
    /// Each probe is gated by the peer's breaker: an Open peer is
    /// skipped (its write-all half queued as a hint) instead of paying
    /// the connect timeout, and the first successful probe after a
    /// revive replays the hint queue before anything else.
    pub fn fill(&mut self, link: &mut impl PeerLink, owners: &[usize], clip: ClipId) -> bool {
        let me = self.me;
        let mut filled = false;
        for &peer in owners.iter().filter(|&&n| n != me) {
            if !self.breakers[peer].admit() {
                self.stats.breaker_skipped += 1;
                self.queue_hint(peer, clip);
                continue;
            }
            self.stats.probes += 1;
            let reply = link.peer_get(peer, clip);
            self.record(peer, reply.is_ok());
            if let Ok(had) = reply {
                filled |= had;
                self.replay_hints(link, peer);
            }
        }
        self.stats.peer_hits += u64::from(filled);
        filled
    }

    /// Feed one reply outcome to `peer`'s breaker.
    fn record(&mut self, peer: usize, ok: bool) {
        let breaker = &mut self.breakers[peer];
        let opens = breaker.opens();
        breaker.record(ok);
        self.stats.breaker_opens += breaker.opens() - opens;
        self.stats.errors += u64::from(!ok);
    }

    /// Remember the write-all half the Open `peer` just missed. Bounded
    /// (drop-oldest) and duplicate-free.
    fn queue_hint(&mut self, peer: usize, clip: ClipId) {
        let queue = &mut self.hints[peer];
        if queue.contains(&clip) {
            return;
        }
        if queue.len() == HANDOFF_QUEUE_LIMIT {
            queue.pop_front();
            self.stats.handoff_dropped += 1;
        }
        queue.push_back(clip);
        self.stats.handoff_queued += 1;
    }

    /// Replay `peer`'s hint queue, oldest first: peek, send, pop on
    /// success. A lost reply stops the drain (the rest stay queued for
    /// the next successful probe) and counts as a breaker failure.
    fn replay_hints(&mut self, link: &mut impl PeerLink, peer: usize) {
        while let Some(&clip) = self.hints[peer].front() {
            if link.peer_get(peer, clip).is_err() {
                self.record(peer, false);
                return;
            }
            self.hints[peer].pop_front();
            self.stats.handoff_replayed += 1;
        }
    }
}

/// A peer slot in the server-side pool.
enum PeerSlot {
    /// No live connection; the next probe dials (and handshakes) lazily.
    Idle,
    /// Handshaked and usable.
    Connected(TcpCacheClient),
    /// Version skew detected — terminal. Never probed again.
    Skewed,
}

/// The server's [`PeerLink`]: one lazily dialled binary-wire connection
/// per member.
struct TcpLink {
    spec: ClusterSpec,
    slots: Vec<PeerSlot>,
}

impl TcpLink {
    /// Dial and version-handshake `peer`. A failed dial leaves the slot
    /// retryable; version skew is terminal and loud.
    fn dial(&self, peer: usize) -> Result<PeerSlot, ()> {
        let addr = &self.spec.peers[peer];
        let mut client = TcpCacheClient::connect_deadline(
            addr,
            Some(self.spec.read_timeout),
            Some(self.spec.connect_timeout),
            crate::client::Wire::Binary,
        )
        .map_err(|_| ())?;
        let theirs = client.version().map_err(|_| ())?;
        match WireVersions::current().check_matches(&theirs) {
            Ok(()) => Ok(PeerSlot::Connected(client)),
            Err(why) => {
                eprintln!("clipcache-serve: refusing version-skewed peer {addr}: {why}");
                Ok(PeerSlot::Skewed)
            }
        }
    }
}

impl PeerLink for TcpLink {
    /// A transport error drops the cached connection so the next call
    /// redials — which is how a killed-and-rejoined node is picked back
    /// up. A skewed peer fails without touching the wire.
    fn peer_get(&mut self, peer: usize, clip: ClipId) -> Result<bool, ()> {
        if matches!(self.slots[peer], PeerSlot::Idle) {
            self.slots[peer] = self.dial(peer)?;
        }
        let PeerSlot::Connected(client) = &mut self.slots[peer] else {
            return Err(());
        };
        let reply = client.peer_get(clip);
        if reply.is_err() {
            self.slots[peer] = PeerSlot::Idle;
        }
        reply.map_err(|_| ())
    }
}

/// Server-side cluster state owned by the event loop: the ring, this
/// node's [`FillEngine`] and its TCP link.
///
/// Peer fetches are *blocking* calls made from inside the epoll loop,
/// bounded by the spec's connect/read timeouts. That is a deliberate
/// trade: the probe is one tiny frame each way, and the timeout bounds
/// the worst case (two nodes filling from each other simultaneously
/// degrade to timeout-paced, not deadlocked — each one's `PEERGET`
/// queues behind the other's in-flight work and both sides give up
/// after `read_timeout`).
pub struct ClusterRuntime {
    view: ClusterView,
    engine: FillEngine,
    link: TcpLink,
}

impl ClusterRuntime {
    /// Build the runtime; connections are dialled lazily on first probe.
    pub fn new(spec: ClusterSpec) -> ClusterRuntime {
        let n = spec.peers.len();
        ClusterRuntime {
            view: spec.view(),
            engine: FillEngine::new(spec.me, n, PeerBreaker::default()),
            link: TcpLink {
                spec,
                slots: (0..n).map(|_| PeerSlot::Idle).collect(),
            },
        }
    }

    /// This node's fill engine (its counters feed `STATS`).
    pub fn engine(&self) -> &FillEngine {
        &self.engine
    }

    /// [`FillEngine::fill`] over the clip's ring owners and the TCP link.
    pub fn fill(&mut self, clip: ClipId) -> bool {
        let owners = self.view.owners_for(clip);
        self.engine.fill(&mut self.link, &owners, clip)
    }
}

/// A fault plan for the modelled peer wire: drop-pre, drop-post, and
/// garbage only. Torn writes and shard poison are wire/service faults
/// that do not exist on the in-process peer hop, so a plan scheduling
/// them is rejected at construction — a chaos run that silently
/// no-opped half its faults would overstate coverage.
#[derive(Debug, Clone)]
pub struct PeerFaults {
    plan: FaultPlan,
}

impl PeerFaults {
    /// Kinds a peer-wire plan may schedule.
    pub const KINDS: [FaultKind; 3] = [
        FaultKind::DropBeforeSend,
        FaultKind::DropAfterSend,
        FaultKind::Garbage,
    ];

    /// Wrap `plan`, rejecting kinds the peer hop cannot express.
    pub fn new(plan: FaultPlan) -> Result<PeerFaults, String> {
        for kind in [FaultKind::TornWrite, FaultKind::PoisonShard] {
            if plan.includes(kind) {
                return Err(format!(
                    "peer-wire faults cannot schedule `{}`: only {} apply to the peer hop",
                    kind.spelling(),
                    PeerFaults::KINDS
                        .iter()
                        .map(|k| k.spelling())
                        .collect::<Vec<_>>()
                        .join("/"),
                ));
            }
        }
        Ok(PeerFaults { plan })
    }

    /// The underlying plan (for spelling/rate introspection).
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }
}

/// Counters for one cluster replay; every field is client-observed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClusterStats {
    /// GETs issued to the cluster.
    pub requests: u64,
    /// GETs that produced an outcome (== `requests` unless owners died).
    pub delivered: u64,
    /// Served from the handling owner's own shards.
    pub local_hits: u64,
    /// Missed cluster-wide (origin fetch).
    pub misses: u64,
    /// GETs whose primary owner was dead and a successor handled them.
    pub failovers: u64,
    /// Peer-wire messages lost to drop-pre / drop-post faults.
    pub peer_drops: u64,
    /// Peer-wire messages preceded by a garbage line (the peer answered
    /// `ERR`, then the real message proceeded).
    pub peer_garbage: u64,
    /// Every member's fill counters, summed; `fill.peer_hits` are the
    /// GETs served by a peer fill (`PHIT`).
    pub fill: FillStats,
}

impl ClusterStats {
    /// Client-observed cluster-wide hit rate: `(local + peer) /
    /// delivered`.
    pub fn hit_rate(&self) -> f64 {
        if self.delivered == 0 {
            return 0.0;
        }
        (self.local_hits + self.fill.peer_hits) as f64 / self.delivered as f64
    }

    /// The conservation invariant: every delivered GET is classified
    /// exactly once.
    pub fn conservation_ok(&self) -> bool {
        self.delivered == self.local_hits + self.fill.peer_hits + self.misses
    }
}

/// Errors a cluster GET can hit that a single node cannot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClusterError {
    /// Every owner of the clip is dead.
    NoOwnerAlive(ClipId),
    /// The handling owner's service refused the request.
    Service(ServiceError),
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::NoOwnerAlive(clip) => {
                write!(f, "no alive owner for clip {}", clip.get())
            }
            ClusterError::Service(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ClusterError {}

/// The harness's [`PeerLink`]: member services, their liveness, and the
/// modelled peer-wire fault plan, which decides each message's fault as
/// a pure function of `(handler, seq)`. `handler` is the node currently
/// filling.
#[derive(Default)]
struct LocalLink {
    nodes: Vec<Arc<CacheService>>,
    alive: Vec<bool>,
    faults: Option<PeerFaults>,
    handler: usize,
    seq: u64,
    drops: u64,
    garbage: u64,
}

impl PeerLink for LocalLink {
    /// A dead peer fails before anything reaches the wire, so it draws
    /// no fault from the plan.
    fn peer_get(&mut self, peer: usize, clip: ClipId) -> Result<bool, ()> {
        if !self.alive[peer] {
            return Err(());
        }
        let fault = self
            .faults
            .as_ref()
            .and_then(|f| f.plan.decide(self.handler as u64, self.seq, 0));
        self.seq += 1;
        match fault {
            // Lost before the wire: the peer never sees it.
            Some(FaultKind::DropBeforeSend) => {
                self.drops += 1;
                return Err(());
            }
            // The peer executes the access (its half of write-all still
            // happens) but the reply is lost.
            Some(FaultKind::DropAfterSend) => {
                let _ = self.nodes[peer].get(clip);
                self.drops += 1;
                return Err(());
            }
            // A garbage line precedes the message; the peer answers
            // `ERR` and the real message proceeds (server-side line
            // discipline already proves this path).
            Some(FaultKind::Garbage) => self.garbage += 1,
            _ => {}
        }
        self.nodes[peer].get(clip).map(|o| o.hit).map_err(|_| ())
    }
}

/// An in-process cluster: N [`CacheService`]s joined by a
/// [`ClusterView`], replaying the full routed request path — read-any
/// owner selection, peer fill, write-all — without sockets. This is
/// what `clusterbench` measures and what the cluster chaos golden
/// replays: deterministic (no wall clock, no thread scheduling — one
/// caller at a time) and `--jobs`-invariant by construction. Each
/// member fills through its own [`FillEngine`], the server's code.
///
/// [`kill`](Self::kill) / [`revive`](Self::revive) model node failure
/// and WAL-recovered rejoin: a killed node refuses probes and routes
/// (its requests fail over to ring successors); a revived node returns
/// with its pre-kill cache state, exactly like a `--data-dir` node
/// recovering its checkpoint + WAL.
pub struct ClusterHarness {
    view: ClusterView,
    link: LocalLink,
    /// One engine per member: each tracks its own view of every peer.
    engines: Vec<FillEngine>,
    /// Routing counters; the fill and peer-wire counters are summed in
    /// [`stats`](Self::stats).
    routed: ClusterStats,
    /// Deterministic kill/revive points: `(request index, node, alive)`
    /// applied before routing that request.
    schedule: Vec<(u64, usize, bool)>,
}

impl ClusterHarness {
    /// Join `services` into a cluster with the given replication factor
    /// and ring seed.
    ///
    /// # Panics
    /// If `services` is empty or `replication` is outside
    /// `1..=services.len()`.
    pub fn new(seed: u64, replication: usize, services: Vec<Arc<CacheService>>) -> ClusterHarness {
        assert!(!services.is_empty(), "cluster needs at least one node");
        let n = services.len();
        let mut harness = ClusterHarness {
            view: ClusterView::new(seed, n, replication),
            link: LocalLink {
                nodes: services,
                alive: vec![true; n],
                ..LocalLink::default()
            },
            engines: Vec::new(),
            routed: ClusterStats::default(),
            schedule: Vec::new(),
        };
        harness.set_breaker_tuning(BREAKER_FAILURE_THRESHOLD, BREAKER_PROBE_INTERVAL);
        harness
    }

    /// Arm (or disarm) deterministic peer-wire faults.
    pub fn set_faults(&mut self, faults: Option<PeerFaults>) {
        self.link.faults = faults;
    }

    /// Member count.
    pub fn nodes(&self) -> usize {
        self.link.nodes.len()
    }

    /// Direct access to node `i`'s service (for seeding and for
    /// server-side conservation checks in tests).
    pub fn node(&self, i: usize) -> &Arc<CacheService> {
        &self.link.nodes[i]
    }

    /// Counters so far: routing plus every member's fill counters.
    pub fn stats(&self) -> ClusterStats {
        let mut stats = self.routed;
        stats.peer_drops = self.link.drops;
        stats.peer_garbage = self.link.garbage;
        for engine in &self.engines {
            stats.fill.add(&engine.stats());
        }
        stats
    }

    /// SIGKILL node `i`: it stops answering routes and probes.
    pub fn kill(&mut self, i: usize) {
        self.link.alive[i] = false;
    }

    /// Rejoin node `i` with its recovered (pre-kill) cache state.
    pub fn revive(&mut self, i: usize) {
        self.link.alive[i] = true;
    }

    /// Node `i`'s breaker as seen from `handler` (for tests and the
    /// degradebench experiment).
    pub fn breaker(&self, handler: usize, peer: usize) -> &PeerBreaker {
        self.engines[handler].breaker(peer)
    }

    /// Replace every member's engine with a fresh one whose breakers use
    /// the given thresholds. Call before traffic: `degradebench`'s
    /// breaker-off control arm passes `u32::MAX` so no failure run ever
    /// trips (the pre-breaker cluster, every dead probe paid in full).
    pub fn set_breaker_tuning(&mut self, failure_threshold: u32, probe_interval: u64) {
        let n = self.nodes();
        let breaker = PeerBreaker::new(failure_threshold, probe_interval);
        self.engines = (0..n)
            .map(|me| FillEngine::new(me, n, breaker.clone()))
            .collect();
    }

    /// Schedule a deterministic kill of node `i` applied before the
    /// `at_request`-th GET (0-based). Drives `loadgen --kill-span`.
    pub fn schedule_kill(&mut self, i: usize, at_request: u64) {
        assert!(i < self.nodes(), "node {i} out of range");
        self.schedule.push((at_request, i, false));
    }

    /// Schedule a deterministic revive of node `i` applied before the
    /// `at_request`-th GET (0-based).
    pub fn schedule_revive(&mut self, i: usize, at_request: u64) {
        assert!(i < self.nodes(), "node {i} out of range");
        self.schedule.push((at_request, i, true));
    }

    /// The first alive owner of `clip`, with its owner set.
    fn route(&self, clip: ClipId) -> Result<(usize, Vec<usize>), ClusterError> {
        let owners = self.view.owners_for(clip);
        match owners.iter().copied().find(|&n| self.link.alive[n]) {
            Some(handler) => Ok((handler, owners)),
            None => Err(ClusterError::NoOwnerAlive(clip)),
        }
    }

    /// One routed GET: first alive owner handles it; on a local miss
    /// its engine fills from the other owners under the armed fault
    /// plan.
    pub fn get(&mut self, clip: ClipId) -> Result<GetOutcome, ClusterError> {
        let seq = self.routed.requests;
        let link = &mut self.link;
        self.schedule.retain(|&(at, node, up)| {
            if at <= seq {
                link.alive[node] = up;
            }
            at > seq
        });
        self.routed.requests += 1;
        let (handler, owners) = self.route(clip)?;
        if handler != owners[0] {
            self.routed.failovers += 1;
        }
        let mut outcome = self.link.nodes[handler]
            .get(clip)
            .map_err(ClusterError::Service)?;
        if outcome.hit {
            self.routed.local_hits += 1;
        } else {
            self.link.handler = handler;
            outcome.peer = self.engines[handler].fill(&mut self.link, &owners, clip);
            if !outcome.peer {
                self.routed.misses += 1;
            }
        }
        self.routed.delivered += 1;
        Ok(outcome)
    }

    /// Poison `clip`'s shard on its first alive owner (chaos parity
    /// with the single-node harness).
    pub fn poison(&mut self, clip: ClipId) -> Result<(), ClusterError> {
        let (handler, _) = self.route(clip)?;
        self.link.nodes[handler].poison(clip);
        Ok(())
    }

    /// The cluster block appended to chaos reports: byte-stable,
    /// wall-clock-free. Runs that never degraded (no breaker trip, no
    /// hint traffic) render exactly the pre-breaker block, so the
    /// healthy-cluster goldens stay byte-identical.
    pub fn chaos_lines(&self) -> String {
        let s = self.stats();
        let plan = match &self.link.faults {
            Some(f) => f.plan().spelling(),
            None => "none".into(),
        };
        format!(
            "cluster nodes={} replication={}\n\
             peer plan {plan}\n\
             cluster observed requests={} delivered={} local_hits={} peer_hits={} misses={}\n\
             peer wire probes={} drops={} garbage={} errors={} failovers={}\n\
             {}cluster invariant conservation={}\n",
            self.nodes(),
            self.view.replication(),
            s.requests,
            s.delivered,
            s.local_hits,
            s.fill.peer_hits,
            s.misses,
            s.fill.probes,
            s.peer_drops,
            s.peer_garbage,
            s.fill.errors,
            s.failovers,
            self.degraded_lines(),
            if s.conservation_ok() {
                "ok"
            } else {
                "VIOLATED"
            },
        )
    }

    /// The `degraded` block: breaker and handoff counters, rendered
    /// only when a breaker actually tripped or a hint was queued — the
    /// zero-degradation path stays byte-identical to the old report.
    pub fn degraded_lines(&self) -> String {
        let s = self.stats().fill;
        if s.breaker_opens == 0 && s.breaker_skipped == 0 && s.handoff_queued == 0 {
            return String::new();
        }
        format!(
            "degraded breaker_opens={} probes_skipped={} handoff_queued={} \
             handoff_replayed={} handoff_dropped={}\n",
            s.breaker_opens,
            s.breaker_skipped,
            s.handoff_queued,
            s.handoff_replayed,
            s.handoff_dropped,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::ServiceConfig;
    use clipcache_core::PolicyKind;
    use clipcache_media::paper;

    fn service(seed: u64) -> Arc<CacheService> {
        let repo = Arc::new(paper::variable_sized_repository_of(48));
        let capacity = repo.cache_capacity_for_ratio(0.25);
        Arc::new(
            CacheService::new(
                repo,
                ServiceConfig::new(PolicyKind::Lru, 1, capacity, seed),
                None,
            )
            .expect("LRU builds"),
        )
    }

    fn cluster(n: usize, r: usize) -> ClusterHarness {
        let services = (0..n).map(|i| service(7 + i as u64)).collect();
        ClusterHarness::new(0xC1A5, r, services)
    }

    #[test]
    fn spec_validates_membership() {
        let peers = vec!["a:1".to_string(), "b:2".to_string()];
        assert!(ClusterSpec::new(peers.clone(), 0, 2, 1).is_ok());
        assert!(ClusterSpec::new(vec![], 0, 1, 1).is_err());
        assert!(ClusterSpec::new(peers.clone(), 2, 1, 1).is_err());
        assert!(ClusterSpec::new(peers.clone(), 0, 0, 1).is_err());
        assert!(ClusterSpec::new(peers, 0, 3, 1).is_err());
    }

    #[test]
    fn peer_fill_turns_second_read_into_phit() {
        let mut c = cluster(3, 2);
        let clip = ClipId::new(5);
        let first = c.get(clip).unwrap();
        assert!(!first.hit);
        // The fill wrote to every owner; a read handled by any owner
        // now hits locally.
        for &owner in &c.view.owners_for(clip) {
            assert!(c.node(owner).get(clip).unwrap().hit, "owner {owner}");
        }
        let stats = c.stats();
        assert_eq!(stats.misses, 1);
        assert!(stats.conservation_ok());
    }

    #[test]
    fn failover_serves_from_replica_after_kill() {
        let mut c = cluster(3, 2);
        let clip = ClipId::new(9);
        c.get(clip).unwrap(); // fill all owners
        let owners = c.view.owners_for(clip);
        c.kill(owners[0]);
        let outcome = c.get(clip).unwrap();
        assert!(outcome.hit, "replica owner must serve the clip locally");
        assert_eq!(c.stats().failovers, 1);
        c.revive(owners[0]);
        let outcome = c.get(clip).unwrap();
        assert!(outcome.hit, "revived primary still holds its state");
    }

    #[test]
    fn all_owners_dead_is_a_loud_error() {
        let mut c = cluster(2, 1);
        let clip = ClipId::new(3);
        let owners = c.view.owners_for(clip);
        assert_eq!(owners.len(), 1);
        c.kill(owners[0]);
        assert_eq!(c.get(clip), Err(ClusterError::NoOwnerAlive(clip)));
        let stats = c.stats();
        assert_eq!(stats.requests, 1);
        assert_eq!(stats.delivered, 0);
    }

    #[test]
    fn replication_one_issues_no_peer_traffic() {
        let mut c = cluster(3, 1);
        for id in 1..=40u32 {
            c.get(ClipId::new(id)).unwrap();
        }
        let stats = c.stats();
        assert_eq!(stats.fill.probes, 0);
        assert_eq!(stats.fill.peer_hits, 0);
        assert!(stats.conservation_ok());
    }

    #[test]
    fn peer_faults_reject_non_wire_kinds() {
        let lossless = FaultPlan::with_kinds(1, 0.5, &FaultKind::LOSSLESS);
        let err = PeerFaults::new(lossless).unwrap_err();
        assert!(err.contains("torn"), "names the offending kind: {err}");
        let ok = FaultPlan::with_kinds(1, 0.5, &PeerFaults::KINDS);
        assert!(PeerFaults::new(ok).is_ok());
    }

    #[test]
    fn conservation_holds_under_peer_faults() {
        let mut c = cluster(3, 3);
        let plan = FaultPlan::with_kinds(0xFA17, 0.25, &PeerFaults::KINDS);
        c.set_faults(Some(PeerFaults::new(plan).unwrap()));
        for round in 0..400u32 {
            c.get(ClipId::new(round % 48 + 1)).unwrap();
        }
        let stats = c.stats();
        assert_eq!(stats.requests, 400);
        assert_eq!(stats.delivered, 400);
        assert!(stats.conservation_ok(), "{stats:?}");
        assert!(stats.peer_drops > 0, "rate 0.25 must actually fire");
        assert!(stats.peer_garbage > 0);
    }

    #[test]
    fn harness_replay_is_deterministic() {
        let run = |faults: bool| {
            let mut c = cluster(3, 2);
            if faults {
                let plan = FaultPlan::with_kinds(0xFA17, 0.1, &PeerFaults::KINDS);
                c.set_faults(Some(PeerFaults::new(plan).unwrap()));
            }
            for round in 0..300u32 {
                c.get(ClipId::new(round * 7 % 48 + 1)).unwrap();
            }
            (c.stats(), c.chaos_lines())
        };
        assert_eq!(run(false), run(false));
        assert_eq!(run(true), run(true));
    }

    #[test]
    fn chaos_lines_are_byte_stable() {
        let mut c = cluster(2, 2);
        c.get(ClipId::new(1)).unwrap();
        c.get(ClipId::new(1)).unwrap();
        let lines = c.chaos_lines();
        assert!(lines.starts_with("cluster nodes=2 replication=2\n"));
        assert!(lines.contains("peer plan none\n"));
        assert!(lines.contains("cluster invariant conservation=ok\n"));
        assert!(
            !lines.contains("degraded"),
            "a healthy run must not grow a degraded block: {lines}"
        );
    }

    #[test]
    fn breaker_counts_failures_not_clocks() {
        let mut b = PeerBreaker::new(3, 4);
        assert_eq!(b.state(), BreakerState::Closed);
        for _ in 0..2 {
            assert!(b.admit());
            b.record(false);
        }
        assert_eq!(b.state(), BreakerState::Closed, "K-1 failures stay Closed");
        assert!(b.admit());
        b.record(false);
        assert_eq!(
            b.state(),
            BreakerState::Open,
            "Kth consecutive failure trips"
        );
        assert_eq!(b.opens(), 1);
        for _ in 0..3 {
            assert!(!b.admit(), "Open skips M-1 attempts");
        }
        assert!(b.admit(), "Mth attempt is the HalfOpen probe");
        assert_eq!(b.state(), BreakerState::HalfOpen);
        b.record(false);
        assert_eq!(b.state(), BreakerState::Open, "failed probe re-opens");
        for _ in 0..3 {
            assert!(!b.admit());
        }
        assert!(b.admit());
        b.record(true);
        assert_eq!(b.state(), BreakerState::Closed, "successful probe heals");
        assert_eq!(b.opens(), 2);
        // A success anywhere resets the consecutive-failure count.
        for ok in [false, false, true, false, false] {
            assert!(b.admit());
            b.record(ok);
        }
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn kill_trips_breaker_then_revive_replays_hints() {
        // The satellite pin: kill → K misses → Open → revive →
        // HalfOpen → Closed, with the Open window's write-all halves
        // handed back to the revived peer.
        let mut c = cluster(3, 2);
        for round in 0..200u32 {
            c.get(ClipId::new(round % 48 + 1)).unwrap();
        }
        assert_eq!(
            c.stats().fill.breaker_opens,
            0,
            "healthy cluster never trips"
        );
        c.kill(2);
        for round in 0..400u32 {
            c.get(ClipId::new(round * 5 % 48 + 1)).unwrap();
        }
        let mid = c.stats();
        assert!(mid.fill.breaker_opens > 0, "{mid:?}");
        assert!(
            mid.fill.breaker_skipped > 0,
            "Open must skip probes: {mid:?}"
        );
        assert!(
            mid.fill.handoff_queued > 0,
            "skipped fills must hint: {mid:?}"
        );
        assert_eq!(
            mid.fill.handoff_replayed, 0,
            "nothing replays onto a corpse"
        );
        assert!(
            (0..2).any(|h| c.breaker(h, 2).state() == BreakerState::Open),
            "some survivor holds node 2 Open"
        );
        c.revive(2);
        for round in 0..400u32 {
            c.get(ClipId::new(round * 11 % 48 + 1)).unwrap();
        }
        let end = c.stats();
        assert!(
            end.fill.handoff_replayed > 0,
            "heal must replay hints: {end:?}"
        );
        assert!(
            end.fill.peer_hits > mid.fill.peer_hits,
            "peer fills must resume after heal: {end:?}"
        );
        for h in 0..2 {
            assert_eq!(
                c.breaker(h, 2).state(),
                BreakerState::Closed,
                "survivor {h} heals its breaker"
            );
        }
        assert!(end.conservation_ok(), "{end:?}");
    }

    #[test]
    fn hint_queue_is_bounded() {
        // 400 distinct missing clips against one dead replica must
        // overflow the 128-clip queue (drop-oldest) and replay at most
        // the bound after revive.
        let repo = Arc::new(paper::variable_sized_repository_of(400));
        let services = (0..2)
            .map(|i| {
                let capacity = repo.cache_capacity_for_ratio(0.25);
                Arc::new(
                    CacheService::new(
                        Arc::clone(&repo),
                        ServiceConfig::new(PolicyKind::Lru, 1, capacity, 7 + i as u64),
                        None,
                    )
                    .expect("LRU builds"),
                )
            })
            .collect();
        let mut c = ClusterHarness::new(0xC1A5, 2, services);
        c.kill(1);
        for id in 1..=400u32 {
            c.get(ClipId::new(id)).unwrap();
        }
        let s = c.stats();
        assert!(
            s.fill.handoff_dropped > 0,
            "400 distinct hints must overflow the {HANDOFF_QUEUE_LIMIT}-clip bound: {s:?}"
        );
        c.revive(1);
        for id in 1..=64u32 {
            c.get(ClipId::new(id)).unwrap();
        }
        let s = c.stats();
        assert!(s.fill.handoff_replayed > 0, "{s:?}");
        assert!(
            s.fill.handoff_replayed <= HANDOFF_QUEUE_LIMIT as u64,
            "{s:?}"
        );
    }

    #[test]
    fn scheduled_kill_revive_is_deterministic() {
        // The schedule behind `loadgen --kill-span`: same (trace,
        // schedule) ⇒ byte-identical stats and chaos block, and the
        // degraded lines actually render.
        let run = || {
            let mut c = cluster(3, 2);
            c.schedule_kill(1, 100);
            c.schedule_revive(1, 500);
            for round in 0..800u32 {
                c.get(ClipId::new(round * 7 % 48 + 1)).unwrap();
            }
            (c.stats(), c.chaos_lines())
        };
        assert_eq!(run(), run());
        let (stats, lines) = run();
        assert!(stats.fill.breaker_opens > 0, "{stats:?}");
        assert!(stats.conservation_ok(), "{stats:?}");
        assert!(
            lines.contains("degraded breaker_opens="),
            "degraded block must render in a kill run: {lines}"
        );
    }
}
