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
//! ## One fill engine, one wire link
//!
//! Breakers, hint queues, probe and replay, and their counters live in
//! one [`FillEngine`] per handling node, which reaches peers only
//! through the one-method [`PeerLink`]. Its one implementation sends
//! each `PEERGET` as bytes: a lazily dialled binary-wire connection per
//! member, over either of two byte streams — TCP sockets in
//! [`ClusterRuntime::new`] (what `serve` runs), or in-process
//! connections into the other members' server nodes in
//! [`ClusterHarness`] (what `clusterbench`, `degradebench` and the
//! cluster chaos goldens run). `probes` counts every admitted probe,
//! failed ones included; `errors` counts every probe or hint replay
//! whose reply never came.
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
//! In the harness a [`PeerFaults`] plan (drop-pre / drop-post / garbage
//! only — torn writes and shard poison are client-wire and service
//! faults, not peer-hop ones) decides each peer message's fault as a
//! pure function of `(handler node, peer-wire sequence)`, one sequence
//! shared by every member. Drop-pre sends nothing. Drop-post sends the
//! `PEERGET` and drops the connection unread, so the next message
//! redials; the peer still executes the access — the duplicated access
//! is exactly the idempotent-GET duplicate the single-node chaos suite
//! already proves harmless — so the conservation invariant `delivered =
//! local hits + peer hits + misses` holds at every rate. Garbage sends
//! a corrupt-length frame first; the peer answers `ERR`, and the same
//! connection carries the `PEERGET`.

use crate::client::TcpCacheClient;
use crate::fault::{FaultKind, FaultPlan};
use crate::protocol::{Command, Wire, WireVersions};
use crate::ring::{HashRing, DEFAULT_VNODES};
use crate::server::{InProcessConn, Node, ServerConfig};
use crate::service::CacheService;
use crate::shard::GetOutcome;
use clipcache_media::ClipId;
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
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

    /// [`ClusterView::owners_for`] into a caller's buffer, which is
    /// cleared first; reusing one buffer keeps lookups allocation-free.
    pub(crate) fn owners_into(&self, clip: ClipId, owners: &mut Vec<usize>) {
        self.ring
            .owners_into(u64::from(clip.get()), self.replication, owners);
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
/// its [`FillStats`]. Every cluster node runs one inside its
/// [`ClusterRuntime`], in `serve` and in [`ClusterHarness`] alike.
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
    pub fn fill(&mut self, link: &mut dyn PeerLink, owners: &[usize], clip: ClipId) -> bool {
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
    fn replay_hints(&mut self, link: &mut dyn PeerLink, peer: usize) {
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

/// A peer's connection in a [`WireLink`].
enum PeerSlot<S> {
    /// No live connection; the next message dials (and handshakes).
    Idle,
    /// Handshaked and usable.
    Connected(TcpCacheClient<S>),
    /// Version skew detected — terminal. Never probed again.
    Skewed,
}

/// Opens a binary-wire connection to member `i`, or fails while the
/// member cannot be reached.
pub(crate) type PeerDial<S> = Box<dyn FnMut(usize) -> std::io::Result<TcpCacheClient<S>> + Send>;

/// The one [`PeerLink`]: a lazily dialled binary-wire connection per
/// member over any byte stream — a TCP socket in `serve`, an in-process
/// connection into the member's node in [`ClusterHarness`].
struct WireLink<S> {
    /// Member names for the skew refusal.
    names: Vec<String>,
    dial: PeerDial<S>,
    slots: Vec<PeerSlot<S>>,
}

impl<S: Read + Write> WireLink<S> {
    fn new(names: Vec<String>, dial: PeerDial<S>) -> WireLink<S> {
        WireLink {
            slots: names.iter().map(|_| PeerSlot::Idle).collect(),
            names,
            dial,
        }
    }

    /// Run `op` on `peer`'s connection, dialling and `VERSION`-checking
    /// it first if idle. A failed dial leaves the slot retryable; a
    /// failed `op` drops the connection so the next message redials,
    /// which is how a killed-and-rejoined member is picked back up.
    /// Version skew is terminal and loud, and a skewed peer fails
    /// without touching the wire.
    fn exchange<T>(
        &mut self,
        peer: usize,
        op: impl FnOnce(&mut TcpCacheClient<S>) -> std::io::Result<T>,
    ) -> Result<T, ()> {
        if matches!(self.slots[peer], PeerSlot::Idle) {
            let mut client = (self.dial)(peer).map_err(|_| ())?;
            let theirs = client.version().map_err(|_| ())?;
            self.slots[peer] = match WireVersions::current().check_matches(&theirs) {
                Ok(()) => PeerSlot::Connected(client),
                Err(why) => {
                    let name = &self.names[peer];
                    eprintln!("clipcache-serve: refusing version-skewed peer {name}: {why}");
                    PeerSlot::Skewed
                }
            };
        }
        let PeerSlot::Connected(client) = &mut self.slots[peer] else {
            return Err(());
        };
        let reply = op(client);
        if reply.is_err() {
            self.slots[peer] = PeerSlot::Idle;
        }
        reply.map_err(|_| ())
    }
}

impl<S: Read + Write> PeerLink for WireLink<S> {
    fn peer_get(&mut self, peer: usize, clip: ClipId) -> Result<bool, ()> {
        self.exchange(peer, |client| client.peer_get(clip))
    }
}

/// A node's cluster state: the ring, its [`FillEngine`] and its link.
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
    link: Box<dyn PeerLink + Send>,
    /// The owners of the clip being filled, reused across fills.
    owners: Vec<usize>,
}

impl ClusterRuntime {
    /// The runtime of a `serve` member: peers are dialled over TCP
    /// lazily, on first probe.
    pub fn new(spec: ClusterSpec) -> ClusterRuntime {
        let (read, connect) = (Some(spec.read_timeout), Some(spec.connect_timeout));
        let peers = spec.peers.clone();
        let dial = move |i: usize| {
            TcpCacheClient::connect_deadline(&*peers[i], read, connect, Wire::Binary)
        };
        let engine = FillEngine::new(spec.me, spec.peers.len(), PeerBreaker::default());
        ClusterRuntime {
            view: spec.view(),
            engine,
            link: Box::new(WireLink::new(spec.peers.clone(), Box::new(dial))),
            owners: Vec::new(),
        }
    }

    /// This node's fill engine (its counters feed `STATS`).
    pub fn engine(&self) -> &FillEngine {
        &self.engine
    }

    /// [`FillEngine::fill`] over the clip's ring owners and the link.
    pub fn fill(&mut self, clip: ClipId) -> bool {
        self.view.owners_into(clip, &mut self.owners);
        self.engine.fill(&mut *self.link, &self.owners, clip)
    }
}

/// A fault plan for the harness's peer wire: drop-pre, drop-post, and
/// garbage only. Torn writes and shard poison are client-wire and
/// service faults, not peer-hop ones, so a plan scheduling
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
    /// Peer-wire messages preceded by a corrupt frame (the peer answered
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
    /// The handling owner refused the request; its error.
    Service(String),
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

/// The harness's members: one server [`Node`] each, and what every
/// connection into them shares.
struct Members {
    nodes: Vec<Arc<Mutex<Node>>>,
    /// Whether each member is up. A member that is down refuses dials,
    /// and every connection into it fails until it is back.
    alive: Vec<AtomicBool>,
    /// How often each member was killed: a harness client dialled
    /// before a kill died with the process it was connected to.
    kills: Vec<AtomicU64>,
    /// The peer-wire fault plan and what it injected.
    wire: Mutex<PeerWire>,
}

/// The peer-wire fault plan with its one message sequence, shared by
/// every member's link.
#[derive(Default)]
struct PeerWire {
    faults: Option<PeerFaults>,
    seq: u64,
    drops: u64,
    garbage: u64,
}

impl Members {
    fn alive(&self, i: usize) -> bool {
        self.alive[i].load(Ordering::SeqCst)
    }

    fn set_alive(&self, i: usize, up: bool) {
        if !up {
            self.kills[i].fetch_add(1, Ordering::SeqCst);
        }
        self.alive[i].store(up, Ordering::SeqCst);
    }

    fn kills(&self, i: usize) -> u64 {
        self.kills[i].load(Ordering::SeqCst)
    }

    fn wire(&self) -> MutexGuard<'_, PeerWire> {
        self.wire.lock().expect("peer wire lock poisoned")
    }

    /// Open a connection into member `i`; refused while it is dead.
    fn connect(
        self: &Arc<Self>,
        i: usize,
        wire: Wire,
    ) -> std::io::Result<TcpCacheClient<MemberConn>> {
        if !self.alive(i) {
            return Err(ErrorKind::ConnectionRefused.into());
        }
        let conn = MemberConn {
            conn: InProcessConn::to(Arc::clone(&self.nodes[i])),
            members: Arc::clone(self),
            member: i,
        };
        Ok(TcpCacheClient::over(conn, wire))
    }

    /// The fault of `handler`'s next message to a live peer: a pure
    /// function of `(handler, seq)`.
    fn draw(&self, handler: usize) -> Option<FaultKind> {
        let mut wire = self.wire();
        let fault = wire
            .faults
            .as_ref()
            .and_then(|f| f.plan.decide(handler as u64, wire.seq, 0));
        wire.seq += 1;
        match fault {
            Some(FaultKind::DropBeforeSend | FaultKind::DropAfterSend) => wire.drops += 1,
            Some(FaultKind::Garbage) => wire.garbage += 1,
            _ => {}
        }
        fault
    }
}

/// A connection into one harness member: an [`InProcessConn`] that
/// fails while the member is down.
pub(crate) struct MemberConn {
    conn: InProcessConn,
    members: Arc<Members>,
    member: usize,
}

impl MemberConn {
    fn check(&self) -> std::io::Result<()> {
        if self.members.alive(self.member) {
            Ok(())
        } else {
            Err(ErrorKind::ConnectionReset.into())
        }
    }
}

impl Read for MemberConn {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.check()?;
        self.conn.read(buf)
    }
}

impl Write for MemberConn {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.check()?;
        self.conn.write(buf)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// A harness member's [`PeerLink`]: the [`WireLink`] into the other
/// members, behind their liveness and the peer-wire fault plan.
struct LocalLink {
    wire: WireLink<MemberConn>,
    members: Arc<Members>,
    me: usize,
}

impl PeerLink for LocalLink {
    /// A message to a dead peer draws no fault from the plan: it fails
    /// on the wire, where a connection from before the kill is dropped.
    fn peer_get(&mut self, peer: usize, clip: ClipId) -> Result<bool, ()> {
        if !self.members.alive(peer) {
            return self.wire.peer_get(peer, clip);
        }
        match self.members.draw(self.me) {
            // Lost before the wire: the peer never sees it.
            Some(FaultKind::DropBeforeSend) => Err(()),
            // The peer executes the access (its half of write-all still
            // happens), but the connection drops before the reply is
            // read.
            Some(FaultKind::DropAfterSend) => {
                let lost = ErrorKind::ConnectionAborted;
                let _ = self.wire.exchange(peer, |client| {
                    client.send(&Command::PeerGet(clip))?;
                    Err::<(), _>(lost.into())
                });
                Err(())
            }
            // A corrupt frame precedes the message; the peer answers
            // `ERR` and the connection lives on.
            Some(FaultKind::Garbage) => {
                self.wire
                    .exchange(peer, |client| client.send_garbage(&[]))?;
                self.wire.peer_get(peer, clip)
            }
            _ => self.wire.peer_get(peer, clip),
        }
    }
}

/// An in-process cluster: N server nodes, one per [`CacheService`],
/// joined by a [`ClusterView`], replaying the full routed request path
/// — read-any owner selection, peer fill, write-all — without sockets.
/// This is what `clusterbench` measures and what the cluster chaos
/// goldens replay: deterministic (no wall clock, no thread scheduling —
/// one caller at a time) and `--jobs`-invariant by construction.
///
/// Every request reaches a member as bytes over an in-process
/// connection into its node, which runs the code `serve` runs: client
/// GETs, `POISON`s and `STATS`, and the other members' `PEERGET`s under
/// the [`PeerFaults`] plan.
///
/// [`kill`](Self::kill) / [`revive`](Self::revive) model node failure
/// and WAL-recovered rejoin: while a node is down its dials are refused
/// and its connections fail (its requests fail over to ring
/// successors); a revived node returns with its pre-kill cache and fill
/// state, exactly like a `--data-dir` node recovering its checkpoint +
/// WAL.
pub struct ClusterHarness {
    view: ClusterView,
    members: Arc<Members>,
    /// The service under each member's node.
    services: Vec<Arc<CacheService>>,
    /// Routing counters; the fill and peer-wire counters are summed in
    /// [`stats`](Self::stats).
    routed: ClusterStats,
    /// Deterministic kill/revive points: `(request index, node, alive)`
    /// applied before routing that request.
    schedule: Vec<(u64, usize, bool)>,
    /// The connections [`get`](Self::get) sends through.
    clients: MemberClients,
}

/// The harness's own client connections, one per member, as a routing
/// client keeps them: dialled at the member's first GET, and dialled
/// again only after the old one failed or died with a killed member.
#[derive(Default)]
struct MemberClients {
    /// Each member's connection, with the member's kill count when it
    /// was dialled.
    conns: Vec<Option<(TcpCacheClient<MemberConn>, u64)>>,
    /// Dials per member.
    dials: Vec<u64>,
}

impl MemberClients {
    /// GET `clip` from member `i` over its connection, dialling it
    /// first if there is none (or the member was killed since). A
    /// failed exchange drops the connection.
    fn get(
        &mut self,
        members: &Arc<Members>,
        i: usize,
        clip: ClipId,
    ) -> std::io::Result<GetOutcome> {
        let kills = members.kills(i);
        if self.conns[i].as_ref().is_some_and(|&(_, k)| k != kills) {
            self.conns[i] = None;
        }
        if self.conns[i].is_none() {
            self.conns[i] = Some((members.connect(i, Wire::Binary)?, kills));
            self.dials[i] += 1;
        }
        let (client, _) = self.conns[i].as_mut().expect("dialled above");
        let outcome = client.get(clip);
        if outcome.is_err() {
            self.conns[i] = None;
        }
        outcome
    }
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
        // Link-less placeholders until `set_breaker_tuning` installs the
        // members, whose links need the shared member table first.
        let plain = |s: &Arc<CacheService>| Node::new(Arc::clone(s), ServerConfig::default());
        let mut harness = ClusterHarness {
            view: ClusterView::new(seed, n, replication),
            members: Arc::new(Members {
                nodes: services
                    .iter()
                    .map(|s| Arc::new(Mutex::new(plain(s))))
                    .collect(),
                alive: (0..n).map(|_| AtomicBool::new(true)).collect(),
                kills: (0..n).map(|_| AtomicU64::new(0)).collect(),
                wire: Mutex::default(),
            }),
            services,
            routed: ClusterStats::default(),
            schedule: Vec::new(),
            clients: MemberClients {
                conns: (0..n).map(|_| None).collect(),
                dials: vec![0; n],
            },
        };
        harness.set_breaker_tuning(BREAKER_FAILURE_THRESHOLD, BREAKER_PROBE_INTERVAL);
        harness
    }

    /// Arm (or disarm) deterministic peer-wire faults.
    pub fn set_faults(&mut self, faults: Option<PeerFaults>) {
        self.members.wire().faults = faults;
    }

    /// Member count.
    pub fn nodes(&self) -> usize {
        self.services.len()
    }

    /// Direct access to node `i`'s service (for seeding and for
    /// server-side conservation checks in tests).
    pub fn node(&self, i: usize) -> &Arc<CacheService> {
        &self.services[i]
    }

    /// Member `i`'s node.
    fn member(&self, i: usize) -> MutexGuard<'_, Node> {
        self.members.nodes[i]
            .lock()
            .expect("member node lock poisoned")
    }

    /// Counters so far: routing plus every member's fill counters.
    pub fn stats(&self) -> ClusterStats {
        let mut stats = self.routed;
        let wire = self.members.wire();
        (stats.peer_drops, stats.peer_garbage) = (wire.drops, wire.garbage);
        drop(wire); // a member's link takes it with its node locked
        for i in 0..self.nodes() {
            if let Some(cluster) = &self.member(i).cluster {
                stats.fill.add(&cluster.engine.stats());
            }
        }
        stats
    }

    /// SIGKILL node `i`: it stops answering routes and probes.
    pub fn kill(&mut self, i: usize) {
        self.members.set_alive(i, false);
    }

    /// Rejoin node `i` with its recovered (pre-kill) cache state.
    pub fn revive(&mut self, i: usize) {
        self.members.set_alive(i, true);
    }

    /// Node `i`'s breaker as seen from `handler` (for tests and the
    /// degradebench experiment).
    pub fn breaker(&self, handler: usize, peer: usize) -> PeerBreaker {
        let node = self.member(handler);
        let cluster = node
            .cluster
            .as_ref()
            .expect("every member is a cluster node");
        cluster.engine.breaker(peer).clone()
    }

    /// Rebuild every member's node with fresh fill engines whose
    /// breakers use the given thresholds. Call before traffic:
    /// `degradebench`'s breaker-off control arm passes `u32::MAX` so no
    /// failure run ever trips (the pre-breaker cluster, every dead probe
    /// paid in full).
    pub fn set_breaker_tuning(&mut self, failure_threshold: u32, probe_interval: u64) {
        let n = self.nodes();
        let breaker = PeerBreaker::new(failure_threshold, probe_interval);
        let names: Vec<String> = (0..n).map(|i| format!("member {i}")).collect();
        for me in 0..n {
            let link = LocalLink {
                wire: WireLink::new(names.clone(), self.dial(Wire::Binary)),
                members: Arc::clone(&self.members),
                me,
            };
            let config = ServerConfig {
                chaos: true,
                ..ServerConfig::default()
            };
            let mut node = Node::new(Arc::clone(&self.services[me]), config);
            node.cluster = Some(ClusterRuntime {
                view: self.view.clone(),
                engine: FillEngine::new(me, n, breaker.clone()),
                link: Box::new(link),
                owners: Vec::new(),
            });
            *self.member(me) = node;
        }
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

    /// The ring the members are placed on.
    pub(crate) fn view(&self) -> &ClusterView {
        &self.view
    }

    /// Opens connections into the members, speaking `wire`; a dial is
    /// refused while its member is dead.
    pub(crate) fn dial(&self, wire: Wire) -> PeerDial<MemberConn> {
        let members = Arc::clone(&self.members);
        Box::new(move |i| members.connect(i, wire))
    }

    /// Route GET number `requests`: apply the kill schedule, count the
    /// request, and let `send` deliver it, given the clip's first alive
    /// owner; `send` reports the member that answered.
    pub(crate) fn route_get(
        &mut self,
        clip: ClipId,
        send: impl FnOnce(usize) -> std::io::Result<(usize, GetOutcome)>,
    ) -> Result<GetOutcome, ClusterError> {
        let seq = self.routed.requests;
        let members = &self.members;
        self.schedule.retain(|&(at, node, up)| {
            if at <= seq {
                members.set_alive(node, up);
            }
            at > seq
        });
        self.routed.requests += 1;
        let owners = self.view.owners_for(clip);
        let Some(first) = owners.iter().copied().find(|&n| self.members.alive(n)) else {
            return Err(ClusterError::NoOwnerAlive(clip));
        };
        let (handler, outcome) = send(first).map_err(refused)?;
        let routed = &mut self.routed;
        routed.failovers += u64::from(handler != owners[0]);
        if outcome.hit {
            routed.local_hits += 1;
        } else if !outcome.peer {
            routed.misses += 1;
        }
        routed.delivered += 1;
        Ok(outcome)
    }

    /// One routed GET: the first alive owner handles it; on a local miss
    /// it fills from the other owners under the armed fault plan.
    pub fn get(&mut self, clip: ClipId) -> Result<GetOutcome, ClusterError> {
        let members = Arc::clone(&self.members);
        let mut clients = std::mem::take(&mut self.clients);
        let routed = self.route_get(clip, |handler| {
            Ok((handler, clients.get(&members, handler, clip)?))
        });
        self.clients = clients;
        routed
    }

    /// The cluster block appended to chaos reports: byte-stable,
    /// wall-clock-free. Runs that never degraded (no breaker trip, no
    /// hint traffic) render exactly the pre-breaker block, so the
    /// healthy-cluster goldens stay byte-identical.
    pub fn chaos_lines(&self) -> String {
        let s = self.stats();
        let plan = match &self.members.wire().faults {
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

impl Drop for ClusterHarness {
    /// Each member's link holds connections into the others; replacing
    /// every node with a link-less one breaks those cycles.
    fn drop(&mut self) {
        for (node, service) in self.members.nodes.iter().zip(&self.services) {
            let mut node = node.lock().unwrap_or_else(PoisonError::into_inner);
            *node = Node::new(Arc::clone(service), ServerConfig::default());
        }
    }
}

fn refused(e: std::io::Error) -> ClusterError {
    ClusterError::Service(e.to_string())
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
    fn gets_reuse_one_connection_per_member() {
        let mut c = cluster(3, 2);
        for round in 0..1_000u32 {
            c.get(ClipId::new(round % 48 + 1)).unwrap();
        }
        assert_eq!(c.clients.dials, [1, 1, 1], "each member dialled once");
    }

    #[test]
    fn a_kill_and_revive_costs_exactly_one_redial() {
        let mut c = cluster(3, 2);
        c.schedule_kill(1, 250);
        c.schedule_revive(1, 750);
        for round in 0..1_000u32 {
            c.get(ClipId::new(round % 48 + 1)).unwrap();
        }
        // The connection into member 1 died with it; the first GET it
        // handles after the revive dials it again.
        assert_eq!(c.clients.dials, [1, 2, 1]);
        assert!(c.stats().failovers > 0, "the kill rerouted requests");
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
    fn a_corrupt_frame_before_every_peer_message_leaves_the_link_working() {
        // Each peer message is preceded by a corrupt-length frame on the
        // peer connection; the peer answers `ERR` and keeps the session,
        // so the `PEERGET` behind it still gets its reply.
        let mut c = cluster(3, 2);
        let plan = FaultPlan::with_kinds(0x6A7B, 1.0, &[FaultKind::Garbage]);
        c.set_faults(Some(PeerFaults::new(plan).unwrap()));
        for round in 0..300u32 {
            c.get(ClipId::new(round * 7 % 48 + 1)).unwrap();
        }
        let s = c.stats();
        assert!(s.fill.probes > 0, "{s:?}");
        assert_eq!(s.fill.errors, 0, "{s:?}");
        assert_eq!(s.peer_garbage, s.fill.probes + s.fill.handoff_replayed);
        assert!(s.conservation_ok(), "{s:?}");
    }

    #[test]
    fn a_probe_dropped_after_send_is_served_by_its_peer() {
        // Every peer message is lost after it was sent: the peer's
        // session executes each one, so the members' own request counts,
        // read over `STATS`, hold every client GET plus every drop.
        let mut c = cluster(3, 2);
        let plan = FaultPlan::with_kinds(0xD0, 1.0, &[FaultKind::DropAfterSend]);
        c.set_faults(Some(PeerFaults::new(plan).unwrap()));
        for round in 0..300u32 {
            c.get(ClipId::new(round * 7 % 48 + 1)).unwrap();
        }
        let s = c.stats();
        assert!(s.peer_drops > 0, "{s:?}");
        assert_eq!(s.fill.errors, s.peer_drops, "{s:?}");
        let served: u64 = (0..c.nodes())
            .map(|i| {
                c.members
                    .connect(i, Wire::Binary)
                    .unwrap()
                    .stats()
                    .unwrap()
                    .stats
                    .requests()
            })
            .sum();
        assert_eq!(served, s.delivered + s.peer_drops, "{s:?}");
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
