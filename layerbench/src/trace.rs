//! The traced pass: the workload's own requests replayed into each
//! layer's public entry points, one span per call.
//!
//! Per request the pass decodes the request frame
//! (`protocol::decode_command`), serves it on an in-process service
//! configured like the server (`CacheService::get`/`get_range`), and
//! encodes the reply (`protocol::encode_reply`). Taking turns with it,
//! a second replay drives replicas that see exactly the per-shard streams the server's shards
//! saw (one connection keeps request order, so `shard_of` and
//! `shard_seed` rebuild them): a policy per shard built with
//! `PolicySpec::try_build` (`access_into`, and `CacheSnapshot::take`
//! every `CHECKPOINT_EVERY` accesses), and on a durable workload a
//! `ShardStore` per shard (`append`/`append_range`, and `checkpoint` at
//! the same cadence). The replica spans are recorded as children of the
//! same request's service span: that service call did the same work
//! inside, so its self time is its duration minus theirs.

use crate::run::{cluster_view, service_config};
use crate::workload::{Op, Stream, Workload, SHARDS};
use clipcache_core::snapshot::CacheSnapshot;
use clipcache_core::{AccessEvent, ClipCache, EvictionCount, PolicySpec};
use clipcache_media::{ByteSize, Repository};
use clipcache_serve::protocol::{decode_command, encode_reply};
use clipcache_serve::{
    shard_of, shard_seed, CacheService, ClusterView, Decoded, DurableCheckpoint, PersistOptions,
    Reply, ShardStore, WalOp, WalSync, CHECKPOINT_EVERY,
};
use clipcache_sim::metrics::HitStats;
use clipcache_workload::Timestamp;
use std::io::Write;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// A span's layer boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Name {
    /// The whole request (the root).
    Request,
    /// `protocol::decode_command` of the request frame.
    Decode,
    /// `ClusterView::owners_for` (the router's ring lookup).
    RingOwners,
    /// `CacheService::get`/`get_range`.
    Service,
    /// `ClipCache::access_into` on the shard replica.
    CoreAccess,
    /// The residency read a `GETRANGE` makes (`contains`/`partial_prefix`).
    CoreResidency,
    /// `CacheSnapshot::take` on the shard replica.
    CoreSnapshot,
    /// `ShardStore::append`/`append_range`.
    PersistAppend,
    /// `ShardStore::checkpoint`.
    PersistCheckpoint,
    /// `protocol::encode_reply` of the reply.
    Encode,
}

impl Name {
    /// Every name, in index order.
    pub const ALL: [Name; 10] = [
        Name::Request,
        Name::Decode,
        Name::RingOwners,
        Name::Service,
        Name::CoreAccess,
        Name::CoreResidency,
        Name::CoreSnapshot,
        Name::PersistAppend,
        Name::PersistCheckpoint,
        Name::Encode,
    ];

    /// The span name as written out.
    pub fn label(self) -> &'static str {
        match self {
            Name::Request => "request",
            Name::Decode => "protocol.decode",
            Name::RingOwners => "ring.owners",
            Name::Service => "service",
            Name::CoreAccess => "core.access",
            Name::CoreResidency => "core.residency",
            Name::CoreSnapshot => "core.snapshot",
            Name::PersistAppend => "persist.append",
            Name::PersistCheckpoint => "persist.checkpoint",
            Name::Encode => "protocol.encode",
        }
    }
}

/// The parent of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded span; times are ns since the pass began.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// The boundary.
    pub name: Name,
    /// Index of the parent span, or [`NO_PARENT`].
    pub parent: u32,
    /// The request the span belongs to.
    pub request: u32,
    /// Start and end.
    pub start: u64,
    /// See `start`.
    pub end: u64,
}

impl Span {
    /// Duration in ns.
    pub fn ns(&self) -> u64 {
        self.end - self.start
    }
}

/// Span recorder; with `on` false it runs the calls untimed.
pub struct Tracer {
    origin: Instant,
    on: bool,
    /// The spans recorded so far.
    pub spans: Vec<Span>,
}

impl Tracer {
    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn time<T>(
        &mut self,
        name: Name,
        parent: u32,
        request: u32,
        f: impl FnOnce() -> T,
    ) -> (T, u32) {
        if !self.on {
            return (f(), NO_PARENT);
        }
        let start = self.now();
        let value = f();
        let end = self.now();
        self.spans.push(Span {
            name,
            parent,
            request,
            start,
            end,
        });
        (value, self.spans.len() as u32 - 1)
    }

    /// The median cost of recording an empty span: what every span's
    /// duration includes beyond its call.
    fn calibrate(&mut self) -> u64 {
        let on = std::mem::replace(&mut self.on, true);
        let mark = self.spans.len();
        for _ in 0..1001 {
            self.time(Name::Request, NO_PARENT, 0, || ());
        }
        let mut empty: Vec<u64> = self.spans.drain(mark..).map(|s| s.ns()).collect();
        self.on = on;
        empty.sort_unstable();
        empty[empty.len() / 2]
    }

    fn open(&mut self, request: u32) -> u32 {
        if !self.on {
            return NO_PARENT;
        }
        let start = self.now();
        self.spans.push(Span {
            name: Name::Request,
            parent: NO_PARENT,
            request,
            start,
            end: start,
        });
        self.spans.len() as u32 - 1
    }

    fn close(&mut self, span: u32) {
        if span != NO_PARENT {
            let end = self.now();
            self.spans[span as usize].end = end;
        }
    }
}

/// The serving half of the pass: request decode, ring routing, an
/// in-process service configured like the server (with the peer fill
/// on a cluster miss) and reply encode.
struct Front {
    view: Option<ClusterView>,
    services: Vec<CacheService>,
    frame: Vec<u8>,
    out: Vec<u8>,
}

impl Front {
    fn new(
        workload: Workload,
        seed: u64,
        repo: &Arc<Repository>,
        dir: &Path,
    ) -> Result<Front, String> {
        let config = service_config(workload, seed, repo);
        let services = (0..workload.members())
            .map(|me| {
                if workload.durable() {
                    let opts = PersistOptions::at(dir.join(format!("member-{me}")));
                    CacheService::open_persistent(Arc::clone(repo), config, None, &opts)
                        .map(|(service, _)| service)
                        .map_err(|e| format!("open traced service: {e}"))
                } else {
                    CacheService::new(Arc::clone(repo), config, None).map_err(|e| e.to_string())
                }
            })
            .collect::<Result<_, _>>()?;
        Ok(Front {
            view: cluster_view(workload, seed),
            services,
            frame: Vec::new(),
            out: Vec::new(),
        })
    }

    /// Serve one request; returns its service span.
    fn step(&mut self, op: Op, request: u32, tr: &mut Tracer) -> Result<u32, String> {
        let root = tr.open(request);
        self.frame.clear();
        op.encode(&mut self.frame);
        let (decoded, _) = tr.time(Name::Decode, root, request, || decode_command(&self.frame));
        match decoded {
            Ok(Decoded::Frame { value, .. }) if value == op.command() => {}
            other => return Err(format!("request frame decoded as {other:?}")),
        }
        let owners = self.view.as_ref().map(|view| {
            tr.time(Name::RingOwners, root, request, || {
                view.owners_for(op.clip())
            })
            .0
        });
        let me = owners.as_ref().map_or(0, |o| o[0]);
        let service = &self.services[me];
        let (reply, span) = tr.time(Name::Service, root, request, || match op {
            Op::Get(clip) => service.get(clip).map(Reply::Get),
            Op::Range(clip, chunk) => service.get_range(clip, chunk).map(Reply::Range),
        });
        let mut reply = reply.map_err(|e| e.to_string())?;
        if let Reply::Get(outcome) = &mut reply {
            if !outcome.hit {
                // The peer half of the fill is not a span: the client
                // measures the whole fill as `cluster.fill_ns_mean`.
                for peer in owners.iter().flatten().copied().filter(|&p| p != me) {
                    let got = self.services[peer].get(op.clip());
                    outcome.peer |= got.map_err(|e| e.to_string())?.hit;
                }
            }
        }
        let out = &mut self.out;
        out.clear();
        tr.time(Name::Encode, root, request, || encode_reply(&reply, out));
        tr.close(root);
        Ok(span)
    }
}

/// One shard's replicas: its policy, clock and statistics, and on a
/// durable workload its store.
struct ShardReplica {
    cache: Box<dyn ClipCache>,
    clock: u64,
    stats: HitStats,
    sink: EvictionCount,
    store: Option<ShardStore>,
}

/// Counts the replicas keep while tracing.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReplicaCounts {
    /// Clips evicted by `access_into`.
    pub evictions: u64,
    /// Bytes of the durable checkpoints written.
    pub checkpoint_bytes: u64,
}

/// The replica half of the pass: every member's shards, mirrored.
struct Shadow {
    repo: Arc<Repository>,
    policy: PolicySpec,
    view: Option<ClusterView>,
    members: Vec<Vec<ShardReplica>>,
    counts: ReplicaCounts,
}

impl Shadow {
    fn new(
        workload: Workload,
        seed: u64,
        repo: &Arc<Repository>,
        dir: &Path,
    ) -> Result<Shadow, String> {
        let config = service_config(workload, seed, repo);
        let per_shard = ByteSize::bytes(config.capacity.as_u64() / SHARDS as u64);
        let mut members = Vec::new();
        for me in 0..workload.members() {
            let mut shards = Vec::new();
            for i in 0..SHARDS {
                let cache = config
                    .policy
                    .try_build(Arc::clone(repo), per_shard, shard_seed(seed, i), None)
                    .map_err(|e| e.to_string())?;
                let store = if workload.durable() {
                    let shard_dir = dir.join(format!("member-{me}/shard-{i}"));
                    let (store, _) = ShardStore::open(&shard_dir, WalSync::Off)
                        .map_err(|e| format!("open replica store: {e}"))?;
                    Some(store)
                } else {
                    None
                };
                shards.push(ShardReplica {
                    cache,
                    clock: 0,
                    stats: HitStats::new(),
                    sink: EvictionCount(0),
                    store,
                });
            }
            members.push(shards);
        }
        Ok(Shadow {
            repo: Arc::clone(repo),
            policy: config.policy,
            view: cluster_view(workload, seed),
            members,
            counts: ReplicaCounts::default(),
        })
    }

    /// Mirror one request on the owning shard, and on a cluster miss on
    /// the peers' shards too (untraced, as in [`Front::step`]); the
    /// owner's spans get `parent`.
    fn step(&mut self, op: Op, parent: u32, request: u32, tr: &mut Tracer) -> Result<(), String> {
        let owners = self.view.as_ref().map(|v| v.owners_for(op.clip()));
        let me = owners.as_ref().map_or(0, |o| o[0]);
        if !self.shard(me, op, parent, request, tr)? {
            let on = std::mem::replace(&mut tr.on, false);
            for peer in owners.iter().flatten().copied().filter(|&p| p != me) {
                self.shard(peer, op, NO_PARENT, request, tr)?;
            }
            tr.on = on;
        }
        Ok(())
    }

    /// Mirror one request on member `me`'s owning shard, as `Shard` does
    /// it. Returns whether a GET started from the cache (probes never
    /// fill, so they report true).
    fn shard(
        &mut self,
        me: usize,
        op: Op,
        parent: u32,
        request: u32,
        tr: &mut Tracer,
    ) -> Result<bool, String> {
        let replica = &mut self.members[me][shard_of(op.clip(), SHARDS)];
        let store_err = |e: clipcache_serve::PersistError| format!("replica store: {e}");
        let clip = match op {
            Op::Get(clip) => clip,
            Op::Range(clip, chunk) => {
                if let Some(store) = &mut replica.store {
                    tr.time(Name::PersistAppend, parent, request, || {
                        store.append_range(clip, chunk)
                    })
                    .0
                    .map_err(store_err)?;
                }
                let (cache, repo) = (replica.cache.as_ref(), &self.repo);
                tr.time(Name::CoreResidency, parent, request, || {
                    if cache.contains(clip) {
                        repo.chunks_of(clip)
                    } else {
                        cache.partial_prefix(clip)
                    }
                });
                return Ok(true);
            }
        };
        if let Some(store) = &mut replica.store {
            tr.time(Name::PersistAppend, parent, request, || {
                store.append(WalOp::Get, clip)
            })
            .0
            .map_err(store_err)?;
        }
        replica.clock += 1;
        replica.sink.0 = 0;
        let now = Timestamp(replica.clock);
        let (cache, sink) = (&mut replica.cache, &mut replica.sink);
        let (event, _) = tr.time(Name::CoreAccess, parent, request, || {
            cache.access_into(clip, now, sink)
        });
        let size = self.repo.size_of(clip);
        let evicted = replica.sink.0;
        match event {
            AccessEvent::Hit => replica.stats.record(true, size, evicted),
            AccessEvent::PrefixHit { resident, .. } => {
                let head = self.repo.prefix_bytes(clip, resident);
                replica.stats.record_prefix(head, size - head, evicted)
            }
            AccessEvent::Miss { .. } => replica.stats.record(false, size, evicted),
        }
        self.counts.evictions += evicted as u64;
        if replica.clock.is_multiple_of(CHECKPOINT_EVERY) {
            let cache = replica.cache.as_ref();
            let policy = self.policy;
            let (snapshot, _) = tr.time(Name::CoreSnapshot, parent, request, || {
                CacheSnapshot::take(cache, policy, now)
            });
            if let Some(store) = &mut replica.store {
                let checkpoint = DurableCheckpoint {
                    snapshot,
                    stats: replica.stats.clone(),
                    seq: store.next_seq() - 1,
                };
                self.counts.checkpoint_bytes += checkpoint.to_json().len() as u64;
                tr.time(Name::PersistCheckpoint, parent, request, || {
                    store.checkpoint(&checkpoint)
                })
                .0
                .map_err(store_err)?;
            }
        }
        Ok(event.starts_display())
    }
}

/// What one pass produced.
pub struct Pass {
    /// Spans of the traced requests (empty when untraced).
    pub spans: Vec<Span>,
    /// Requests measured after the warm-up.
    pub requests: u64,
    /// Wall time of the measured requests.
    pub secs: f64,
    /// Replica counts over the measured requests.
    pub counts: ReplicaCounts,
    /// Cost of recording an empty span, in ns (0 when untraced).
    pub clock_ns: u64,
}

/// Requests the two halves take turns on while tracing: long enough
/// that neither evicts the other's working set from the CPU caches on
/// every request, short enough that both see the same host speed.
const BLOCK: usize = 256;

/// Replay the stream's first `warm` requests untimed, then the next
/// `requests` with spans when `traced` (or untimed, as the overhead
/// baseline). The serving half and the replica half take turns on
/// blocks of [`BLOCK`] requests; request by request, the replica spans
/// become children of the serving half's service span. `dir` holds the
/// durable state written.
pub fn pass(
    workload: Workload,
    seed: u64,
    repo: &Arc<Repository>,
    (warm, requests): (u64, u64),
    traced: bool,
    dir: &Path,
) -> Result<Pass, String> {
    let mut tr = Tracer {
        origin: Instant::now(),
        on: false,
        spans: Vec::new(),
    };
    let clock_ns = if traced { tr.calibrate() } else { 0 };
    let mut front = Front::new(workload, seed, repo, &dir.join("front"))?;
    let mut shadow = Shadow::new(workload, seed, repo, &dir.join("shadow"))?;
    let mut stream = Stream::new(workload, seed, Arc::clone(repo));
    for (i, op) in stream.by_ref().take(warm as usize).enumerate() {
        front.step(op, i as u32, &mut tr)?;
        shadow.step(op, NO_PARENT, i as u32, &mut tr)?;
    }
    shadow.counts = ReplicaCounts::default();
    tr.on = traced;
    if traced {
        tr.spans.reserve(requests as usize * 8);
    }
    let mut stream = stream.take(requests as usize);
    let (mut block, mut parents) = (Vec::with_capacity(BLOCK), Vec::with_capacity(BLOCK));
    let mut next = warm as u32;
    let start = Instant::now();
    loop {
        block.clear();
        block.extend(stream.by_ref().take(BLOCK));
        if block.is_empty() {
            break;
        }
        parents.clear();
        for (k, &op) in block.iter().enumerate() {
            parents.push(front.step(op, next + k as u32, &mut tr)?);
        }
        for (k, (&op, &parent)) in block.iter().zip(&parents).enumerate() {
            shadow.step(op, parent, next + k as u32, &mut tr)?;
        }
        next += block.len() as u32;
    }
    Ok(Pass {
        secs: start.elapsed().as_secs_f64(),
        spans: tr.spans,
        requests,
        counts: shadow.counts,
        clock_ns,
    })
}

/// Per-name totals over a pass's spans.
#[derive(Clone, Default)]
pub struct Totals {
    /// Spans recorded.
    pub count: u64,
    /// Summed duration.
    pub ns: u64,
    /// Summed self time: duration minus the children's durations.
    pub self_ns: i64,
    /// Duration distribution.
    pub hist: crate::hist::Histogram,
}

impl Totals {
    /// Mean duration, 0 when no span was recorded.
    pub fn mean(&self) -> f64 {
        self.hist.mean()
    }
}

/// Fold spans into per-name totals, indexed like [`Name::ALL`], after
/// taking the recording cost `clock_ns` off every span.
pub fn totals(spans: &[Span], clock_ns: u64) -> Vec<Totals> {
    let ns = |s: &Span| s.ns().saturating_sub(clock_ns);
    let mut children = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            children[s.parent as usize] += ns(s);
        }
    }
    let mut out = vec![Totals::default(); Name::ALL.len()];
    for (s, child) in spans.iter().zip(children) {
        let t = &mut out[s.name as usize];
        t.count += 1;
        t.ns += ns(s);
        t.self_ns += ns(s) as i64 - child as i64;
        t.hist.record(ns(s));
    }
    out
}

/// Write spans as CSV (`name,start_ns,end_ns,parent,request`), after
/// `header` lines prefixed with `#`.
pub fn write_spans(path: &Path, header: &str, spans: &[Span]) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for line in header.lines() {
        writeln!(w, "# {line}")?;
    }
    writeln!(w, "name,start_ns,end_ns,parent,request")?;
    for s in spans {
        let parent = if s.parent == NO_PARENT {
            -1
        } else {
            i64::from(s.parent)
        };
        writeln!(
            w,
            "{},{},{},{},{}",
            s.name.label(),
            s.start,
            s.end,
            parent,
            s.request
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let span = |name, parent, start, end| Span {
            name,
            parent,
            request: 0,
            start,
            end,
        };
        let spans = [
            span(Name::Request, NO_PARENT, 0, 100),
            span(Name::Service, 0, 10, 60),
            span(Name::CoreAccess, 1, 60, 80),
            span(Name::Encode, 0, 80, 90),
        ];
        let t = totals(&spans, 0);
        assert_eq!(t[Name::Request as usize].self_ns, 100 - 50 - 10);
        assert_eq!(t[Name::Service as usize].self_ns, 50 - 20);
        assert_eq!(t[Name::CoreAccess as usize].self_ns, 20);
        assert_eq!(t[Name::Encode as usize].count, 1);
        // The recording cost comes off every span, parents and children alike.
        let t = totals(&spans, 5);
        assert_eq!(t[Name::Service as usize].self_ns, 45 - 15);
        assert_eq!(t[Name::CoreAccess as usize].ns, 15);
    }

    #[test]
    fn replicas_see_exactly_what_the_service_shards_saw() {
        for w in Workload::ALL {
            let seed = 11;
            let repo = Arc::new(w.repository());
            let dir = std::env::temp_dir().join(format!(
                "layerbench-replicas-{}-{}",
                w.name(),
                std::process::id()
            ));
            let mut tr = Tracer {
                origin: Instant::now(),
                on: false,
                spans: Vec::new(),
            };
            let mut front = Front::new(w, seed, &repo, &dir.join("front")).unwrap();
            let mut shadow = Shadow::new(w, seed, &repo, &dir.join("shadow")).unwrap();
            for (i, op) in Stream::new(w, seed, Arc::clone(&repo))
                .take(3000)
                .enumerate()
            {
                front.step(op, i as u32, &mut tr).unwrap();
                shadow.step(op, NO_PARENT, i as u32, &mut tr).unwrap();
            }
            for (service, shards) in front.services.iter().zip(&shadow.members) {
                let replicas: Vec<HitStats> = shards.iter().map(|r| r.stats.clone()).collect();
                assert_eq!(service.per_shard_stats(), replicas, "{}", w.name());
            }
            drop((front, shadow));
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn names_index_in_order() {
        for (i, n) in Name::ALL.iter().enumerate() {
            assert_eq!(*n as usize, i);
        }
    }
}
