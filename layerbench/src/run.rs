//! Set-up of the servers under test and the closed-loop generator.
//!
//! Servers are built only through `CacheService::new`/`open_persistent`,
//! `serve_with` and `ClusterSpec`; the generator is one thread speaking
//! the binary wire over plain `TcpStream`s with
//! `protocol::encode_command`/`decode_reply`.

use crate::hist::Histogram;
use crate::sys;
use crate::workload::{Op, Stream, Workload, CACHE_RATIO, SHARDS};
use clipcache_media::Repository;
use clipcache_serve::protocol::{decode_reply, encode_command, Command};
use clipcache_serve::shard::splitmix64;
use clipcache_serve::{
    serve_with, CacheService, ClusterSpec, ClusterView, Decoded, GetOutcome, PersistOptions,
    RangeOutcome, Reply, ServerConfig, ServerHandle, ServerStats, ServiceConfig, WireVersions,
};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Timed-run slices; each has its own throughput and latency histograms.
pub const SLICES: usize = 40;

/// A reply that takes longer than this fails the run instead of hanging it.
const REPLY_TIMEOUT: Duration = Duration::from_secs(10);

/// The service configuration every member (and every replay) uses.
pub fn service_config(workload: Workload, seed: u64, repo: &Repository) -> ServiceConfig {
    let capacity = repo.cache_capacity_for_ratio(CACHE_RATIO);
    ServiceConfig::new(workload.policy(), SHARDS, capacity, seed)
}

/// The ring every cluster member and the router share.
pub fn cluster_view(workload: Workload, seed: u64) -> Option<ClusterView> {
    let n = workload.members();
    (n > 1).then(|| ClusterView::new(seed, n, n))
}

/// One client connection on the binary wire.
pub struct Conn {
    stream: TcpStream,
    rbuf: Vec<u8>,
    chunk: Box<[u8; 64 * 1024]>,
    /// Bytes received so far.
    received: u64,
}

impl Conn {
    fn connect(addr: SocketAddr) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_nodelay(true)
            .and_then(|()| stream.set_read_timeout(Some(REPLY_TIMEOUT)))
            .map_err(|e| format!("configure {addr}: {e}"))?;
        Ok(Conn {
            stream,
            rbuf: Vec::with_capacity(64 * 1024),
            chunk: Box::new([0; 64 * 1024]),
            received: 0,
        })
    }

    fn send(&mut self, bytes: &[u8]) -> Result<(), String> {
        self.stream
            .write_all(bytes)
            .map_err(|e| format!("send: {e}"))
    }

    /// Read until `n` replies are decoded, handing each to `each` with
    /// the instant its bytes arrived.
    fn recv(&mut self, n: usize, mut each: impl FnMut(Reply, Instant)) -> Result<(), String> {
        let mut got = 0;
        let mut at = 0;
        let mut arrived = Instant::now();
        while got < n {
            if at < self.rbuf.len() {
                match decode_reply(&self.rbuf[at..]) {
                    Ok(Decoded::Frame { value, consumed }) => {
                        at += consumed;
                        got += 1;
                        each(value, arrived);
                        continue;
                    }
                    Ok(Decoded::Incomplete) => {}
                    Err(e) => return Err(format!("corrupt reply frame: {e}")),
                }
            }
            self.rbuf.drain(..at);
            at = 0;
            let read = self
                .stream
                .read(&mut self.chunk[..])
                .map_err(|e| format!("receive: {e}"))?;
            if read == 0 {
                return Err("server closed the connection".into());
            }
            arrived = Instant::now();
            self.received += read as u64;
            self.rbuf.extend_from_slice(&self.chunk[..read]);
        }
        self.rbuf.drain(..at);
        Ok(())
    }

    /// One request, one reply.
    fn call(&mut self, command: &Command) -> Result<Reply, String> {
        let mut frame = Vec::new();
        encode_command(command, &mut frame);
        self.send(&frame)?;
        let mut reply = None;
        self.recv(1, |r, _| reply = Some(r))?;
        Ok(reply.expect("recv decoded one reply"))
    }
}

/// The servers under test and one connection to each.
pub struct Deployment {
    /// The repository served.
    pub repo: Arc<Repository>,
    /// Time `open_persistent` took, summed over members (0 memory-only).
    pub open_ms: f64,
    servers: Vec<ServerHandle>,
    conns: Vec<Conn>,
    view: Option<ClusterView>,
}

/// Loopback addresses free right now, one per member.
fn free_addrs(n: usize) -> Result<Vec<String>, String> {
    let listeners: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0"))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("reserve a port: {e}"))?;
    listeners
        .iter()
        .map(|l| l.local_addr().map(|a| a.to_string()))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("reserve a port: {e}"))
}

/// Build the repository and services, bind, connect, and complete one
/// `VERSION` round trip per connection: everything up to the first
/// request being ready. `data_dir` roots a durable workload's state.
pub fn deploy(workload: Workload, seed: u64, data_dir: &Path) -> Result<Deployment, String> {
    let repo = Arc::new(workload.repository());
    let config = service_config(workload, seed, &repo);
    let members = workload.members();
    let addrs = if members > 1 {
        free_addrs(members)?
    } else {
        vec!["127.0.0.1:0".to_string()]
    };
    let mut dep = Deployment {
        repo: Arc::clone(&repo),
        open_ms: 0.0,
        servers: Vec::new(),
        conns: Vec::new(),
        view: cluster_view(workload, seed),
    };
    for (me, addr) in addrs.iter().enumerate() {
        let service = if workload.durable() {
            let opened = Instant::now();
            let dir = data_dir.join(format!("member-{me}"));
            let (service, _) = CacheService::open_persistent(
                Arc::clone(&repo),
                config,
                None,
                &PersistOptions::at(dir),
            )
            .map_err(|e| format!("open data dir: {e}"))?;
            dep.open_ms += opened.elapsed().as_secs_f64() * 1e3;
            service
        } else {
            CacheService::new(Arc::clone(&repo), config, None)
                .map_err(|e| format!("build service: {e}"))?
        };
        let cluster = if members > 1 {
            Some(ClusterSpec::new(addrs.clone(), me, members, seed)?)
        } else {
            None
        };
        let server = ServerConfig {
            cluster,
            ..ServerConfig::default()
        };
        let handle =
            serve_with(Arc::new(service), addr, server).map_err(|e| format!("bind {addr}: {e}"))?;
        dep.servers.push(handle);
    }
    for server in &dep.servers {
        let mut conn = Conn::connect(server.addr())?;
        match conn.call(&Command::Version)? {
            Reply::Version(v) => WireVersions::current().check_matches(&v)?,
            other => return Err(format!("VERSION answered with {other:?}")),
        }
        dep.conns.push(conn);
    }
    Ok(dep)
}

impl Deployment {
    /// `STATS` from every member, in member order.
    pub fn stats(&mut self) -> Result<Vec<ServerStats>, String> {
        self.conns
            .iter_mut()
            .map(|c| match c.call(&Command::Stats)? {
                Reply::Stats(s) => Ok(s),
                other => Err(format!("STATS answered with {other:?}")),
            })
            .collect()
    }
}

/// Dropping a deployment closes its connections and shuts every server
/// down: the event loops drain and are joined.
impl Drop for Deployment {
    fn drop(&mut self) {
        self.conns.clear();
        for server in self.servers.drain(..) {
            server.shutdown();
        }
    }
}

/// Fold one reply outcome into a running digest of every reply.
pub fn fold_get(digest: u64, o: &GetOutcome) -> u64 {
    let bits =
        o.hit as u64 | (o.admitted as u64) << 1 | (o.peer as u64) << 2 | (o.evictions as u64) << 3;
    splitmix64(digest ^ bits)
}

/// [`fold_get`] for a `GETRANGE` outcome.
pub fn fold_range(digest: u64, o: &RangeOutcome) -> u64 {
    let bits = 1 << 63 | o.hit as u64 | u64::from(o.resident) << 1 | u64::from(o.total) << 32;
    splitmix64(digest ^ bits)
}

/// What the client saw over one phase of the run.
#[derive(Default)]
pub struct Counts {
    /// Requests sent.
    pub requests: u64,
    /// GETs answered with a GET reply.
    pub gets: u64,
    /// GETs served locally (`HIT`).
    pub local_hits: u64,
    /// GETs filled from a peer (`PHIT`).
    pub peer_hits: u64,
    /// Bytes of the clips GETs asked for, and of those that hit.
    pub get_bytes: u64,
    /// See `get_bytes`.
    pub hit_bytes: u64,
    /// Requests answered with anything but their expected reply kind.
    pub failed: u64,
    /// Request and reply bytes on the wire.
    pub wire_bytes: u64,
    /// Latency sums split by local hit vs not (the cluster fill cost).
    pub hit_ns: u64,
    /// See `hit_ns`.
    pub miss_ns: u64,
    /// Running digest of every reply outcome, in request order.
    pub digest: u64,
}

impl Counts {
    /// GETs that started from a cache (a peer fill counts as a hit).
    pub fn hits(&self) -> u64 {
        self.local_hits + self.peer_hits
    }
}

/// One timed slice.
#[derive(Clone, Default)]
pub struct Slice {
    /// Requests answered in the slice.
    pub requests: u64,
    /// Slice length.
    pub secs: f64,
    /// GET latency, from the window's send to the reply's arrival.
    pub get: Histogram,
    /// `GETRANGE` latency, likewise.
    pub range: Histogram,
    /// The [`Reference`] measured right after the slice (round trips/s).
    pub reference: f64,
    /// The disk reference measured right after the slice (seconds per
    /// miniature checkpoint), on durable workloads.
    pub disk: Option<f64>,
}

impl Slice {
    /// Time scale of the slice: above 1 when the host ran slower than
    /// [`REFERENCE_NOMINAL`].
    pub fn slowdown(&self) -> f64 {
        REFERENCE_NOMINAL / self.reference
    }

    /// Time scale of the slice's tail: the disk's on a durable
    /// workload, else [`slowdown`](Self::slowdown).
    pub fn tail_slowdown(&self) -> f64 {
        self.disk
            .map_or(self.slowdown(), |secs| secs / DISK_NOMINAL)
    }
}

/// Everything one run measured.
pub struct RunResult {
    /// Client counts during warm-up and during the timed part.
    pub warm: Counts,
    /// See `warm`.
    pub timed: Counts,
    /// The timed slices.
    pub slices: Vec<Slice>,
    /// Generator-thread CPU over the timed part, reference round trips
    /// excluded, in ns.
    pub generator_cpu_ns: u64,
    /// `wchar` growth over the timed part.
    pub wchar: u64,
    /// Voluntary context switches of the server threads over the timed
    /// part.
    pub server_switches: u64,
    /// Member STATS when timing started and when it ended.
    pub stats_before: Vec<ServerStats>,
    /// See `stats_before`.
    pub stats_after: Vec<ServerStats>,
}

impl RunResult {
    /// Wall time of the timed part, reference measurements excluded.
    pub fn secs(&self) -> f64 {
        self.slices.iter().map(|s| s.secs).sum()
    }
}

struct Generator<'a> {
    dep: &'a mut Deployment,
    stream: &'a mut Stream,
    window: Vec<Op>,
    frame: Vec<u8>,
    sizes: Vec<u64>,
}

impl Generator<'_> {
    /// Send one window (pipelined, or one routed request on a cluster)
    /// and account every reply.
    fn window(
        &mut self,
        depth: usize,
        counts: &mut Counts,
        slice: &mut Slice,
    ) -> Result<(), String> {
        self.window.clear();
        self.frame.clear();
        self.window.extend(self.stream.by_ref().take(depth));
        for op in &self.window {
            op.encode(&mut self.frame);
        }
        let conn = match &self.dep.view {
            Some(view) => view.owners_for(self.window[0].clip())[0],
            None => 0,
        };
        let sent = Instant::now();
        let conn = &mut self.dep.conns[conn];
        conn.send(&self.frame)?;
        counts.requests += depth as u64;
        let received = conn.received;
        let (window, sizes) = (&self.window, &self.sizes);
        let mut i = 0;
        conn.recv(depth, |reply, arrived| {
            let ns = arrived.duration_since(sent).as_nanos() as u64;
            let op = window[i];
            i += 1;
            match (op, reply) {
                (Op::Get(clip), Reply::Get(o)) => {
                    let size = sizes[clip.get() as usize];
                    counts.gets += 1;
                    counts.get_bytes += size;
                    if o.hit {
                        counts.local_hits += 1;
                        counts.hit_ns += ns;
                    } else {
                        counts.miss_ns += ns;
                    }
                    if o.peer {
                        counts.peer_hits += 1;
                    }
                    if o.hit || o.peer {
                        counts.hit_bytes += size;
                    }
                    counts.digest = fold_get(counts.digest, &o);
                    slice.get.record(ns);
                }
                (Op::Range(..), Reply::Range(o)) => {
                    counts.digest = fold_range(counts.digest, &o);
                    slice.range.record(ns);
                }
                _ => counts.failed += 1,
            }
        })?;
        counts.wire_bytes += self.frame.len() as u64 + conn.received - received;
        slice.requests += depth as u64;
        Ok(())
    }
}

/// Warm the caches with the stream's first `workload.warmup()`
/// requests, then send windows for `seconds`, in [`SLICES`] slices,
/// measuring `reference` after each.
pub fn drive(
    dep: &mut Deployment,
    workload: Workload,
    stream: &mut Stream,
    seconds: f64,
    reference: &mut Reference,
) -> Result<RunResult, String> {
    let sizes: Vec<u64> = std::iter::once(0)
        .chain(dep.repo.iter().map(|c| c.size.as_u64()))
        .collect();
    let depth = workload.depth();
    let mut gen = Generator {
        dep,
        stream,
        window: Vec::with_capacity(depth),
        frame: Vec::with_capacity(depth * 16),
        sizes,
    };
    let mut warm = Counts::default();
    let mut scratch = Slice::default();
    while warm.requests < workload.warmup() {
        gen.window(depth, &mut warm, &mut scratch)?;
    }
    let stats_before = gen.dep.stats()?;
    let echo = reference.echo_tid.clone();
    let (wchar0, switches0, cpu0) = (
        sys::wchar(),
        sys::server_voluntary_switches(echo.as_deref()),
        sys::thread_cpu_ns(),
    );
    let mut reference_cpu_ns = 0;
    let mut timed = Counts {
        digest: warm.digest,
        ..Counts::default()
    };
    let mut slices = Vec::with_capacity(SLICES);
    let start = Instant::now();
    let mut slice_start = start;
    for s in 1..=SLICES {
        let end = start + Duration::from_secs_f64(seconds * s as f64 / SLICES as f64);
        let mut slice = Slice::default();
        while Instant::now() < end {
            gen.window(depth, &mut timed, &mut slice)?;
        }
        let now = Instant::now();
        slice.secs = now.duration_since(slice_start).as_secs_f64();
        let cpu = sys::thread_cpu_ns();
        slice.reference = reference.measure()?;
        slice.disk = reference.measure_disk()?;
        reference_cpu_ns += sys::thread_cpu_ns() - cpu;
        slice_start = Instant::now();
        slices.push(slice);
    }
    let generator_cpu_ns = sys::thread_cpu_ns() - cpu0 - reference_cpu_ns;
    let server_switches = sys::server_voluntary_switches(echo.as_deref()).saturating_sub(switches0);
    let wchar = sys::wchar() - wchar0;
    let stats_after = gen.dep.stats()?;
    Ok(RunResult {
        warm,
        timed,
        slices,
        generator_cpu_ns,
        wchar,
        server_switches,
        stats_before,
        stats_after,
    })
}

/// The expected run, replayed in process through `CacheService`.
pub struct Replay {
    /// Reply digest over every request.
    pub digest: u64,
    /// GETs that hit (locally or, on a cluster, from a peer).
    pub hits: u64,
    /// Final statistics of each member.
    pub stats: Vec<clipcache_sim::metrics::HitStats>,
}

/// Replay the first `n` requests of the stream through fresh in-process
/// services configured like the servers (memory-only: persistence does
/// not change outcomes). On a cluster, a local miss probes the other
/// owner exactly as the server's peer fill does.
pub fn replay(
    workload: Workload,
    seed: u64,
    repo: &Arc<Repository>,
    n: u64,
) -> Result<Replay, String> {
    let config = service_config(workload, seed, repo);
    let members: Vec<CacheService> = (0..workload.members())
        .map(|_| CacheService::new(Arc::clone(repo), config, None))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("build replay service: {e}"))?;
    let view = cluster_view(workload, seed);
    let mut digest = 0;
    let mut hits = 0;
    for op in Stream::new(workload, seed, Arc::clone(repo)).take(n as usize) {
        let owners = view.as_ref().map(|v| v.owners_for(op.clip()));
        let me = owners.as_ref().map_or(0, |o| o[0]);
        match op {
            Op::Get(clip) => {
                let mut o = members[me].get(clip).map_err(|e| e.to_string())?;
                if !o.hit {
                    for &peer in owners.iter().flatten().filter(|&&p| p != me) {
                        o.peer |= members[peer].get(clip).map_err(|e| e.to_string())?.hit;
                    }
                }
                hits += u64::from(o.hit || o.peer);
                digest = fold_get(digest, &o);
            }
            Op::Range(clip, chunk) => {
                let o = members[me]
                    .get_range(clip, chunk)
                    .map_err(|e| e.to_string())?;
                digest = fold_range(digest, &o);
            }
        }
    }
    Ok(Replay {
        digest,
        hits,
        stats: members.iter().map(CacheService::stats).collect(),
    })
}

/// Reopen a durable workload's data dir after shutdown and return the
/// recovered statistics of each member.
pub fn reopen(
    workload: Workload,
    seed: u64,
    repo: &Arc<Repository>,
    data_dir: &Path,
) -> Result<Vec<clipcache_sim::metrics::HitStats>, String> {
    let config = service_config(workload, seed, repo);
    (0..workload.members())
        .map(|me| {
            let dir: PathBuf = data_dir.join(format!("member-{me}"));
            CacheService::open_persistent(Arc::clone(repo), config, None, &PersistOptions::at(dir))
                .map(|(s, _)| s.stats())
                .map_err(|e| format!("reopen data dir: {e}"))
        })
        .collect()
}

/// A loopback round trip the benchmark owns: 32 request frames' worth
/// of bytes out, 32 replies' worth back, through an echo thread on the
/// same CPU. The host's other tenants slow it down in step with the
/// workload, so each slice's timings are scaled by it (see README.md).
///
/// On a durable workload it also times [`DISK_TRIPS`] miniature
/// checkpoints in the run's scratch dir (write, `fdatasync`, rename,
/// directory fsync): the tail those workloads report is set by their
/// checkpoints' fsyncs, which the host's disk load slows independently
/// of the CPU.
pub struct Reference {
    stream: TcpStream,
    echo: Option<std::thread::JoinHandle<()>>,
    echo_tid: Option<String>,
    disk_dir: Option<PathBuf>,
}

const REFERENCE_OUT: usize = 32 * 11;
const REFERENCE_BACK: usize = 32 * 16;

/// Round trips per second the reference makes on an uncontended host;
/// scaled timings read as if measured there.
pub const REFERENCE_NOMINAL: f64 = 140_000.0;

/// Round trips per reference measurement.
const REFERENCE_TRIPS: usize = 400;

/// Seconds [`spawn_reference`] takes on an uncontended host.
pub const SPAWN_NOMINAL: f64 = 150e-6;

/// The set-up reference: spawn a thread that binds a loopback listener,
/// accept one connection from it, make one round trip and join it — the
/// thread, socket and wakeup work a set-up does, without the program.
/// Returns its seconds.
pub fn spawn_reference() -> Result<f64, String> {
    let fail = |e: std::io::Error| format!("set-up reference: {e}");
    let start = Instant::now();
    let listener = TcpListener::bind("127.0.0.1:0").map_err(fail)?;
    let addr = listener.local_addr().map_err(fail)?;
    let peer = std::thread::spawn(move || -> std::io::Result<()> {
        let (mut s, _) = listener.accept()?;
        let mut hello = [0u8; 7];
        s.read_exact(&mut hello)?;
        s.write_all(&[0u8; 19])
    });
    let mut s = TcpStream::connect(addr).map_err(fail)?;
    s.set_nodelay(true)
        .and_then(|()| s.set_read_timeout(Some(REPLY_TIMEOUT)))
        .and_then(|()| s.write_all(&[0u8; 7]))
        .and_then(|()| s.read_exact(&mut [0u8; 19]))
        .map_err(fail)?;
    peer.join()
        .map_err(|_| "set-up reference thread panicked".to_string())?
        .map_err(fail)?;
    Ok(start.elapsed().as_secs_f64())
}

/// Miniature checkpoints per disk reference measurement.
pub const DISK_TRIPS: usize = 9;

/// Median seconds of a miniature checkpoint on an uncontended disk.
pub const DISK_NOMINAL: f64 = 250e-6;

impl Reference {
    /// Start the echo thread and connect to it; `disk_dir`, when
    /// given, is where the disk reference writes.
    pub fn new(disk_dir: Option<PathBuf>) -> Result<Reference, String> {
        let listener =
            TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind reference: {e}"))?;
        let addr = listener
            .local_addr()
            .map_err(|e| format!("bind reference: {e}"))?;
        let (tid_tx, tid_rx) = std::sync::mpsc::channel();
        let echo = std::thread::spawn(move || {
            let _ = tid_tx.send(sys::own_tid());
            let Ok((mut s, _)) = listener.accept() else {
                return;
            };
            let _ = s.set_nodelay(true);
            let mut out = [0u8; REFERENCE_OUT];
            let back = [0u8; REFERENCE_BACK];
            while s.read_exact(&mut out).is_ok() && s.write_all(&back).is_ok() {}
        });
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect reference: {e}"))?;
        stream
            .set_nodelay(true)
            .and_then(|()| stream.set_read_timeout(Some(REPLY_TIMEOUT)))
            .map_err(|e| format!("configure reference: {e}"))?;
        Ok(Reference {
            stream,
            echo: Some(echo),
            echo_tid: tid_rx.recv().ok().flatten(),
            disk_dir,
        })
    }

    /// Measure the disk reference: the median seconds of a miniature
    /// checkpoint, or `None` without a disk dir.
    pub fn measure_disk(&mut self) -> Result<Option<f64>, String> {
        let Some(dir) = &self.disk_dir else {
            return Ok(None);
        };
        let fail = |e: std::io::Error| format!("disk reference: {e}");
        std::fs::create_dir_all(dir).map_err(fail)?;
        let (tmp, done) = (dir.join("reference.tmp"), dir.join("reference"));
        let mut secs = Vec::with_capacity(DISK_TRIPS);
        for _ in 0..DISK_TRIPS {
            let start = Instant::now();
            let mut f = std::fs::File::create(&tmp).map_err(fail)?;
            f.write_all(&[0u8; 400])
                .and_then(|()| f.sync_data())
                .and_then(|()| std::fs::rename(&tmp, &done))
                .and_then(|()| std::fs::File::open(dir)?.sync_all())
                .map_err(fail)?;
            secs.push(start.elapsed().as_secs_f64());
        }
        Ok(Some(crate::report::median(&mut secs)))
    }

    /// Measure the reference: round trips per second.
    pub fn measure(&mut self) -> Result<f64, String> {
        let out = [0u8; REFERENCE_OUT];
        let mut back = [0u8; REFERENCE_BACK];
        let start = Instant::now();
        for _ in 0..REFERENCE_TRIPS {
            self.stream
                .write_all(&out)
                .and_then(|()| self.stream.read_exact(&mut back))
                .map_err(|e| format!("reference round trip: {e}"))?;
        }
        Ok(REFERENCE_TRIPS as f64 / start.elapsed().as_secs_f64())
    }
}

impl Drop for Reference {
    fn drop(&mut self) {
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
        if let Some(echo) = self.echo.take() {
            let _ = echo.join();
        }
    }
}
