//! The TCP front-end: a readiness-based epoll event loop with request
//! pipelining.
//!
//! One event-loop thread owns everything: a non-blocking listener, a
//! wakeup pipe, and every live connection's read/write buffers. Sockets
//! are registered edge-triggered (`EPOLLET`), so each readiness edge is
//! drained completely — reads accumulate into the connection's input
//! buffer until `WouldBlock`, *every* complete request already buffered
//! is executed (that is the server half of pipelining: a client that
//! batches N requests into one write gets N replies back in one or two
//! writes), and replies are flushed until `WouldBlock` with `EPOLLOUT`
//! interest added only while a flush is actually pending.
//!
//! Both wire protocols are spoken on every connection, auto-detected
//! per message: a byte equal to [`FRAME_MAGIC`] opens a length-prefixed
//! binary frame, anything else is a text line (`GET`/`STATS`/…). Each
//! reply uses the protocol of its request, so mixed sessions work.
//!
//! Shutdown is signalled through the wakeup pipe registered with epoll
//! — the old "throwaway connection to the server's own port" trick is
//! gone (it could hang forever when the listener backlog was full).
//! [`ServerHandle::shutdown`] sets the flag, writes one byte to the
//! pipe, and joins the loop; the loop drains in-flight pipelined
//! requests (one final opportunistic read per connection, then every
//! buffered complete request is executed and its reply flushed) before
//! closing.
//!
//! ## Durable batches
//!
//! The requests executed from one drain of a connection's input form a
//! batch. On a durable service under `--wal-sync off` each logged
//! request only stages its WAL frame in its shard's store; once the
//! batch has run, the loop writes each touched shard's frames with one
//! `write`, and only then moves the batch's replies into the
//! connection's output buffer — no reply leaves before its frame is in
//! the OS. If a shard's write fails, the store dies and every reply of
//! the batch that rests on that shard is re-encoded as an `ERR`. A
//! memory-only service stages nothing, so its batches end without
//! locking a shard.
//!
//! ## Resilience
//!
//! The failure contract is unchanged from the thread-per-connection
//! server: *structured refusal, never silent disconnect*. Malformed
//! text lines and recoverable frame corruption get an `ERR` and the
//! connection lives; unrecoverable frame corruption (untrusted length)
//! gets an `ERR` and then the close. [`ServerConfig`] still holds the
//! knobs:
//!
//! * `max_conns` — admission gate: excess arrivals get `ERR server
//!   busy` and an immediate close;
//! * `read_timeout` — idle budget: a connection with no complete
//!   request for this long gets `ERR idle timeout` and is reclaimed;
//! * `chaos` — gates the `POISON` fault-injection command.
//!
//! A text line longer than [`MAX_LINE_BYTES`] is refused (`ERR request
//! line too long`), and a connection that pipelines requests without
//! ever reading replies stops being *read* (not dropped) once its
//! pending reply bytes pass a soft cap — backpressure instead of
//! unbounded buffering.
//!
//! ## The overload governor
//!
//! Between "healthy" and "stop reading" sits a two-tier governor
//! ([`GovernorConfig`]) keyed on the same quantity as the soft cap:
//! pending reply bytes, per connection and summed across the loop.
//! Past the first watermark GET misses stop probing cluster peers
//! (local-only serving — the blocking peer RTT is the single most
//! expensive thing the loop can do under pressure); past the second
//! the server sheds GETs outright with a `BUSY` reply the loadgen's
//! retry loop backs off from. `STATS`, `PEERGET` and the other cheap
//! verbs are never shed — `PEERGET` is how the *cluster* heals, and
//! shedding it would cascade one node's overload into cluster-wide
//! misses. Shed GETs count in `STATS shed=`.

use crate::cluster::{ClusterRuntime, ClusterSpec, FillEngine};
use crate::protocol::{
    decode_command, parse_command, write_reply, Command, Decoded, Reply, ServerStats, Wire,
    WireVersions, FRAME_MAGIC,
};
use crate::service::{CacheService, WalBatch};
use crate::shard::shard_of;
use clipcache_media::ClipId;
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::ops::Range;
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Idle-sweep cadence (epoll timeout): how often the loop checks idle
/// budgets when no traffic arrives.
const POLL_INTERVAL: Duration = Duration::from_millis(100);

/// Longest accepted text request line (bytes, newline excluded). Longer
/// lines get `ERR request line too long` and the connection closes.
pub const MAX_LINE_BYTES: usize = 64 * 1024;

/// Pending reply bytes beyond which a connection stops being read until
/// the client drains some replies (pipelining backpressure).
const WBUF_SOFT_CAP: usize = 4 * 1024 * 1024;

/// Read chunk size for the drain loop.
const READ_CHUNK: usize = 64 * 1024;

/// The governor's answer for one request, from cheapest service to
/// cheapest refusal. Ordering matters: `Normal < LocalOnly < Shed`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum LoadTier {
    /// Below every watermark: full service, peer fills allowed.
    Normal,
    /// Past the first watermark: GETs are served from local shards
    /// only — no peer probes, so no blocking peer RTT in the loop.
    LocalOnly,
    /// Past the second watermark: GETs are refused with [`Reply::Busy`]
    /// before touching the cache; everything else is still served.
    Shed,
}

/// Overload watermarks, all in pending-reply bytes — the same quantity
/// the `WBUF_SOFT_CAP` backpressure uses, measured per connection and
/// summed across every live connection. A request is classified by the
/// *worst* of its per-connection and global readings, so one pathological
/// pipeliner degrades itself first and the whole loop only under
/// genuine aggregate pressure. Pure and count-free: the tier is a
/// function of buffer sizes at classification time, never of the clock.
#[derive(Debug, Clone)]
pub struct GovernorConfig {
    /// Per-connection pending bytes at which GETs go local-only.
    pub conn_local_only: usize,
    /// Per-connection pending bytes at which GETs are shed.
    pub conn_shed: usize,
    /// Global pending bytes at which GETs go local-only.
    pub global_local_only: usize,
    /// Global pending bytes at which GETs are shed.
    pub global_shed: usize,
}

impl Default for GovernorConfig {
    /// Defaults sit inside the soft cap: a connection degrades at a
    /// quarter of `WBUF_SOFT_CAP` (1 MiB) and sheds at three quarters
    /// (3 MiB) — before backpressure stops reading it entirely — while
    /// the global watermarks (8 MiB / 32 MiB) only trip when many
    /// connections are saturated at once.
    fn default() -> GovernorConfig {
        GovernorConfig {
            conn_local_only: WBUF_SOFT_CAP / 4,
            conn_shed: 3 * (WBUF_SOFT_CAP / 4),
            global_local_only: 2 * WBUF_SOFT_CAP,
            global_shed: 8 * WBUF_SOFT_CAP,
        }
    }
}

impl GovernorConfig {
    /// Classify one request given the connection's pending reply bytes
    /// and the loop-wide sum. Monotone in both arguments.
    pub fn tier(&self, conn_pending: usize, global_pending: usize) -> LoadTier {
        if conn_pending >= self.conn_shed || global_pending >= self.global_shed {
            LoadTier::Shed
        } else if conn_pending >= self.conn_local_only || global_pending >= self.global_local_only {
            LoadTier::LocalOnly
        } else {
            LoadTier::Normal
        }
    }
}

/// Server tuning knobs; [`ServerConfig::default`] reproduces the
/// pre-resilience behavior (no gate, no idle limit, no chaos).
#[derive(Debug, Clone, Default)]
pub struct ServerConfig {
    /// Maximum concurrently served connections (`None` = unlimited).
    /// Excess arrivals are refused with `ERR server busy`.
    pub max_conns: Option<usize>,
    /// Idle budget per connection: close (with `ERR idle timeout`)
    /// when no complete request arrives for this long (`None` = wait
    /// forever).
    pub read_timeout: Option<Duration>,
    /// Whether the `POISON` fault-injection command is honored.
    pub chaos: bool,
    /// Cluster membership (`--cluster`): when set, GET misses trigger a
    /// peer fill across the clip's other ring owners before the miss is
    /// reported.
    pub cluster: Option<ClusterSpec>,
    /// Overload watermarks for the two-tier governor.
    pub governor: GovernorConfig,
}

/// Minimal safe wrapper over the vendored epoll shim. Owns the epoll
/// fd; closed on drop.
struct Epoll {
    fd: libc::c_int,
}

impl Epoll {
    fn new() -> std::io::Result<Epoll> {
        let fd = unsafe { libc::epoll_create1(libc::EPOLL_CLOEXEC) };
        if fd < 0 {
            return Err(std::io::Error::last_os_error());
        }
        Ok(Epoll { fd })
    }

    fn ctl(
        &self,
        op: libc::c_int,
        fd: libc::c_int,
        events: u32,
        token: u64,
    ) -> std::io::Result<()> {
        let mut ev = libc::epoll_event { events, u64: token };
        let rc = unsafe { libc::epoll_ctl(self.fd, op, fd, &mut ev) };
        if rc < 0 {
            return Err(std::io::Error::last_os_error());
        }
        Ok(())
    }

    fn add(&self, fd: libc::c_int, events: u32, token: u64) -> std::io::Result<()> {
        self.ctl(libc::EPOLL_CTL_ADD, fd, events, token)
    }

    fn modify(&self, fd: libc::c_int, events: u32, token: u64) -> std::io::Result<()> {
        self.ctl(libc::EPOLL_CTL_MOD, fd, events, token)
    }

    /// Wait for readiness, retrying on `EINTR`. `timeout_ms < 0` blocks.
    fn wait(&self, events: &mut [libc::epoll_event], timeout_ms: i32) -> usize {
        loop {
            let n = unsafe {
                libc::epoll_wait(
                    self.fd,
                    events.as_mut_ptr(),
                    events.len() as libc::c_int,
                    timeout_ms,
                )
            };
            if n >= 0 {
                return n as usize;
            }
            let err = std::io::Error::last_os_error();
            if err.kind() != ErrorKind::Interrupted {
                // An unusable epoll fd is unrecoverable for the loop;
                // treat it as "no events" and let the tick logic run —
                // shutdown still works through the shared flag.
                return 0;
            }
        }
    }
}

impl Drop for Epoll {
    fn drop(&mut self) {
        unsafe { libc::close(self.fd) };
    }
}

/// The shutdown wakeup: a non-blocking pipe whose read end lives in the
/// epoll set. Writing one byte wakes the loop immediately — no
/// connection to the server's own port, no dependence on backlog space.
struct WakePipe {
    read_fd: libc::c_int,
    write_fd: libc::c_int,
}

impl WakePipe {
    fn new() -> std::io::Result<WakePipe> {
        let mut fds = [0 as libc::c_int; 2];
        let rc = unsafe { libc::pipe2(fds.as_mut_ptr(), libc::O_NONBLOCK | libc::O_CLOEXEC) };
        if rc < 0 {
            return Err(std::io::Error::last_os_error());
        }
        Ok(WakePipe {
            read_fd: fds[0],
            write_fd: fds[1],
        })
    }

    fn wake(&self) {
        let byte = 1u8;
        unsafe { libc::write(self.write_fd, (&byte as *const u8).cast(), 1) };
    }

    fn drain(&self) {
        let mut buf = [0u8; 64];
        loop {
            let n = unsafe { libc::read(self.read_fd, buf.as_mut_ptr().cast(), buf.len()) };
            if n <= 0 {
                return;
            }
        }
    }
}

impl Drop for WakePipe {
    fn drop(&mut self) {
        unsafe {
            libc::close(self.read_fd);
            libc::close(self.write_fd);
        }
    }
}

/// A running server. Dropping the handle without calling
/// [`shutdown`](Self::shutdown) leaves the loop running for the
/// process lifetime.
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    wake: Arc<WakePipe>,
    loop_thread: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting, drain in-flight pipelined requests, flush their
    /// replies, join the loop thread.
    pub fn shutdown(mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.wake.wake();
        if let Some(t) = self.loop_thread.take() {
            let _ = t.join();
        }
    }
}

/// Bind `addr` (e.g. `"127.0.0.1:0"`) and serve `service` with default
/// (unlimited, chaos-off) settings until [`ServerHandle::shutdown`].
pub fn serve(service: Arc<CacheService>, addr: &str) -> std::io::Result<ServerHandle> {
    serve_with(service, addr, ServerConfig::default())
}

/// Bind `addr` and serve `service` with explicit [`ServerConfig`]
/// settings until [`ServerHandle::shutdown`].
pub fn serve_with(
    service: Arc<CacheService>,
    addr: &str,
    config: ServerConfig,
) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    listener.set_nonblocking(true)?;
    let local = listener.local_addr()?;
    let shutdown = Arc::new(AtomicBool::new(false));
    let wake = Arc::new(WakePipe::new()?);

    let loop_thread = {
        let shutdown = Arc::clone(&shutdown);
        let wake = Arc::clone(&wake);
        std::thread::spawn(move || {
            let mut event_loop = match EventLoop::new(listener, service, config, shutdown, wake) {
                Ok(l) => l,
                Err(e) => {
                    eprintln!("clipcache-serve: cannot start event loop: {e}");
                    return;
                }
            };
            event_loop.run();
        })
    };

    Ok(ServerHandle {
        addr: local,
        shutdown,
        wake,
        loop_thread: Some(loop_thread),
    })
}

/// One connection's state inside the loop.
struct Conn {
    stream: TcpStream,
    /// Unconsumed input bytes (partial lines / torn frame prefixes).
    rbuf: Vec<u8>,
    /// Encoded replies not yet written to the socket.
    wbuf: VecDeque<u8>,
    /// Close once `wbuf` is flushed (QUIT, fatal protocol error, idle).
    closing: bool,
    /// The peer half-closed or errored; no more reads will succeed.
    eof: bool,
    /// `EPOLLOUT` currently registered.
    want_write: bool,
    /// Completion time of the last full request (idle accounting).
    last_request: Instant,
    /// Protocol of the most recent message: unsolicited replies (idle
    /// timeout) use it so binary clients are not fed text mid-frame.
    wire: Wire,
}

const LISTENER_TOKEN: u64 = u64::MAX;
const WAKE_TOKEN: u64 = u64::MAX - 1;
const BASE_EVENTS: u32 = libc::EPOLLIN | libc::EPOLLRDHUP | libc::EPOLLET;

/// What executing a request touches: the event loop minus its sockets.
struct Node {
    service: Arc<CacheService>,
    config: ServerConfig,
    /// Peer fill engine + TCP link when the node is a cluster member.
    cluster: Option<ClusterRuntime>,
    /// GETs refused with `BUSY` by the governor (reported in `STATS`).
    shed: u64,
    /// The shards the current batch left WAL frames staged on.
    batch: WalBatch,
    /// The current batch's replies that rest on a logged access: their
    /// bytes in the batch output, their wire, and the clip accessed.
    logged: Vec<(Range<usize>, Wire, ClipId)>,
}

struct EventLoop {
    epoll: Epoll,
    listener: TcpListener,
    node: Node,
    shutdown: Arc<AtomicBool>,
    wake: Arc<WakePipe>,
    /// Connection slab indexed by epoll token.
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    live: usize,
}

impl EventLoop {
    fn new(
        listener: TcpListener,
        service: Arc<CacheService>,
        config: ServerConfig,
        shutdown: Arc<AtomicBool>,
        wake: Arc<WakePipe>,
    ) -> std::io::Result<EventLoop> {
        let epoll = Epoll::new()?;
        epoll.add(listener.as_raw_fd(), libc::EPOLLIN, LISTENER_TOKEN)?;
        epoll.add(wake.read_fd, libc::EPOLLIN, WAKE_TOKEN)?;
        let cluster = config.cluster.clone().map(ClusterRuntime::new);
        Ok(EventLoop {
            epoll,
            listener,
            node: Node {
                service,
                config,
                cluster,
                shed: 0,
                batch: WalBatch::default(),
                logged: Vec::new(),
            },
            shutdown,
            wake,
            conns: Vec::new(),
            free: Vec::new(),
            live: 0,
        })
    }

    /// Loop-wide pending reply bytes: the governor's global reading.
    /// Recomputed at each readiness event, not tracked incrementally —
    /// the slab is small and the sum is cheap next to a socket write.
    fn pending_bytes(&self) -> usize {
        self.conns
            .iter()
            .flatten()
            .map(|conn| conn.wbuf.len())
            .sum()
    }

    fn run(&mut self) {
        let mut events = vec![libc::epoll_event { events: 0, u64: 0 }; 1024];
        loop {
            let n = self
                .epoll
                .wait(&mut events, POLL_INTERVAL.as_millis() as i32);
            for ev in events.iter().take(n) {
                let token = ev.u64;
                let bits = ev.events;
                match token {
                    LISTENER_TOKEN => self.accept_ready(),
                    WAKE_TOKEN => self.wake.drain(),
                    _ => self.conn_ready(token as usize, bits),
                }
            }
            if self.shutdown.load(Ordering::SeqCst) {
                self.drain_and_close_all();
                return;
            }
            self.sweep_idle();
        }
    }

    /// Accept until `WouldBlock` (edge-triggered listener).
    fn accept_ready(&mut self) {
        loop {
            let (mut stream, _) = match self.listener.accept() {
                Ok(pair) => pair,
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return,
            };
            if let Some(limit) = self.node.config.max_conns {
                if self.live >= limit {
                    // Admission gate: structured refusal, then close.
                    let mut refusal = Vec::new();
                    write_reply(Wire::Text, &Reply::Err("server busy".into()), &mut refusal);
                    let _ = stream.write_all(&refusal);
                    continue;
                }
            }
            if stream.set_nonblocking(true).is_err() || stream.set_nodelay(true).is_err() {
                continue;
            }
            let token = match self.free.pop() {
                Some(t) => t,
                None => {
                    self.conns.push(None);
                    self.conns.len() - 1
                }
            };
            if self
                .epoll
                .add(stream.as_raw_fd(), BASE_EVENTS, token as u64)
                .is_err()
            {
                self.free.push(token);
                continue;
            }
            self.conns[token] = Some(Conn {
                stream,
                rbuf: Vec::new(),
                wbuf: VecDeque::new(),
                closing: false,
                eof: false,
                want_write: false,
                last_request: Instant::now(),
                wire: Wire::Text,
            });
            self.live += 1;
        }
    }

    /// Handle readiness on connection `token`.
    fn conn_ready(&mut self, token: usize, bits: u32) {
        // Global pending bytes are snapshotted once per readiness event;
        // requests executed inside this event add their own replies on
        // top of the snapshot (see `process_buffered`).
        let global = self.pending_bytes();
        let Some(conn) = self.conns.get_mut(token).and_then(Option::as_mut) else {
            return; // already closed earlier in this batch
        };
        if bits & (libc::EPOLLERR | libc::EPOLLHUP) != 0 {
            conn.eof = true;
        }
        if bits & (libc::EPOLLIN | libc::EPOLLRDHUP) != 0 {
            Self::read_and_process(conn, &mut self.node, global);
        }
        if bits & libc::EPOLLOUT != 0 || !conn.wbuf.is_empty() {
            Self::flush(conn);
            // Backpressure release: reply bytes drained, resume
            // consuming any input that piled up meanwhile.
            if conn.wbuf.len() < WBUF_SOFT_CAP && !conn.closing {
                Self::read_and_process(conn, &mut self.node, global);
                Self::flush(conn);
            }
        }
        self.update_interest(token);
    }

    /// Drain the socket into `rbuf` (edge-triggered: read to
    /// `WouldBlock`), then execute every complete buffered request.
    fn read_and_process(conn: &mut Conn, node: &mut Node, global: usize) {
        if conn.closing {
            return;
        }
        if conn.wbuf.len() >= WBUF_SOFT_CAP {
            return; // backpressure: let the client drain replies first
        }
        let mut chunk = [0u8; READ_CHUNK];
        loop {
            match conn.stream.read(&mut chunk) {
                Ok(0) => {
                    conn.eof = true;
                    break;
                }
                Ok(n) => {
                    conn.rbuf.extend_from_slice(&chunk[..n]);
                    if conn.rbuf.len() + conn.wbuf.len() > WBUF_SOFT_CAP {
                        break; // bounded memory per connection
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    conn.eof = true;
                    break;
                }
            }
        }
        Self::process_buffered(conn, node, global);
        if conn.eof && !conn.closing {
            // Peer is gone (or half-closed after its final request):
            // flush whatever replies remain, then close.
            conn.closing = true;
        }
    }

    /// Execute every complete request sitting in `rbuf` — the server
    /// half of pipelining — as one batch: their WAL frames are written
    /// (one `write` per touched shard) before any of their replies
    /// enters `wbuf`.
    fn process_buffered(conn: &mut Conn, node: &mut Node, global: usize) {
        let mut consumed = 0usize;
        let mut out: Vec<u8> = Vec::new();
        while consumed < conn.rbuf.len() && !conn.closing {
            // Classify under the replies already produced this batch,
            // so a pipelined flood trips the governor mid-batch instead
            // of after the batch has bought 4 MiB of output.
            let tier = node
                .config
                .governor
                .tier(conn.wbuf.len() + out.len(), global + out.len());
            let rest = &conn.rbuf[consumed..];
            conn.wire = if rest[0] == FRAME_MAGIC {
                Wire::Binary
            } else {
                Wire::Text
            };
            let (command, fatal) = match conn.wire {
                Wire::Binary => match decode_command(rest) {
                    Ok(Decoded::Incomplete) => break,
                    Ok(Decoded::Frame { value, consumed: n }) => {
                        consumed += n;
                        conn.last_request = Instant::now();
                        (Ok(value), false)
                    }
                    // Loud, structured, never a silent skip: ERR frame
                    // first, then (for untrusted lengths) the close.
                    Err(err) => {
                        consumed += err.consumed;
                        (Err(err.reason), err.fatal)
                    }
                },
                Wire::Text => match rest.iter().position(|&b| b == b'\n') {
                    // A newline-less flood; refuse before the buffer
                    // grows without bound.
                    None if rest.len() > MAX_LINE_BYTES => {
                        (Err("request line too long".into()), true)
                    }
                    None => break,
                    Some(pos) => {
                        let line = String::from_utf8_lossy(&rest[..pos]).into_owned();
                        consumed += pos + 1;
                        conn.last_request = Instant::now();
                        (parse_command(&line), false)
                    }
                },
            };
            let logged = match command {
                Ok(Command::Get(clip) | Command::PeerGet(clip) | Command::GetRange(clip, _)) => {
                    Some(clip)
                }
                _ => None,
            };
            let (reply, quit) = node.execute(tier, command);
            let start = out.len();
            write_reply(conn.wire, &reply, &mut out);
            // Only a batch that staged WAL frames can fail at its end;
            // a memory-only service never records a span.
            if let Some(clip) = logged.filter(|_| node.batch.staged()) {
                if matches!(reply, Reply::Get(_) | Reply::Peer(_) | Reply::Range(_)) {
                    node.logged.push((start..out.len(), conn.wire, clip));
                }
            }
            conn.closing |= fatal || quit;
        }
        node.end_batch(&mut out);
        conn.rbuf.drain(..consumed);
        conn.wbuf.extend(out);
    }

    /// Write pending reply bytes until `WouldBlock` or empty.
    fn flush(conn: &mut Conn) {
        while !conn.wbuf.is_empty() {
            let (front, _) = conn.wbuf.as_slices();
            match conn.stream.write(front) {
                Ok(0) => {
                    conn.eof = true;
                    conn.wbuf.clear();
                    return;
                }
                Ok(n) => {
                    conn.wbuf.drain(..n);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    conn.eof = true;
                    conn.wbuf.clear();
                    return;
                }
            }
        }
    }

    /// Re-register `EPOLLOUT` interest to match pending output, and
    /// close the connection when it is finished.
    fn update_interest(&mut self, token: usize) {
        let Some(conn) = self.conns.get_mut(token).and_then(Option::as_mut) else {
            return;
        };
        let finished = (conn.closing && conn.wbuf.is_empty()) || (conn.eof && conn.wbuf.is_empty());
        if finished {
            self.close_conn(token);
            return;
        }
        let want = !conn.wbuf.is_empty();
        if want != conn.want_write {
            let events = if want {
                BASE_EVENTS | libc::EPOLLOUT
            } else {
                BASE_EVENTS
            };
            if self
                .epoll
                .modify(conn.stream.as_raw_fd(), events, token as u64)
                .is_ok()
            {
                conn.want_write = want;
            }
        }
    }

    fn close_conn(&mut self, token: usize) {
        if let Some(conn) = self.conns.get_mut(token).and_then(Option::take) {
            // Dropping the stream closes the fd, which removes it from
            // the epoll set.
            drop(conn);
            self.free.push(token);
            self.live -= 1;
        }
    }

    /// Reclaim connections whose idle budget expired.
    fn sweep_idle(&mut self) {
        let Some(budget) = self.node.config.read_timeout else {
            return;
        };
        let now = Instant::now();
        for token in 0..self.conns.len() {
            let Some(conn) = self.conns.get_mut(token).and_then(Option::as_mut) else {
                continue;
            };
            if conn.closing || now.duration_since(conn.last_request) < budget {
                continue;
            }
            let mut out = Vec::new();
            write_reply(conn.wire, &Reply::Err("idle timeout".into()), &mut out);
            conn.wbuf.extend(out);
            conn.closing = true;
            Self::flush(conn);
            self.update_interest(token);
        }
    }

    /// Graceful shutdown: stop accepting, take one final opportunistic
    /// read per connection (bytes the peer already sent), execute every
    /// buffered complete request, and flush all replies with blocking
    /// writes so in-flight pipelined requests are answered, not dropped.
    fn drain_and_close_all(&mut self) {
        for token in 0..self.conns.len() {
            let global = self.pending_bytes();
            let Some(conn) = self.conns.get_mut(token).and_then(Option::as_mut) else {
                continue;
            };
            Self::read_and_process(conn, &mut self.node, global);
            if !conn.wbuf.is_empty() {
                let _ = conn.stream.set_nonblocking(false);
                let _ = conn.stream.set_write_timeout(Some(Duration::from_secs(5)));
                conn.wbuf.make_contiguous();
                let (rest, _) = conn.wbuf.as_slices();
                let _ = conn.stream.write_all(rest);
                conn.wbuf.clear();
            }
        }
        for token in 0..self.conns.len() {
            self.close_conn(token);
        }
    }
}

impl Node {
    /// End the batch whose replies are encoded in `out`: write the WAL
    /// frames it staged, one `write` per touched shard. If a shard's
    /// write failed, every reply resting on an access to that shard is
    /// re-encoded as an `ERR` naming the failure — nothing is
    /// acknowledged that did not reach the OS.
    fn end_batch(&mut self, out: &mut Vec<u8>) {
        let mut failed: Vec<(usize, String)> = Vec::new();
        self.service.write_batch(&mut self.batch, |shard, e| {
            failed.push((shard, e.to_string()))
        });
        if !failed.is_empty() {
            let shards = self.service.shards();
            let mut rebuilt = Vec::with_capacity(out.len());
            let mut copied = 0;
            for (span, wire, clip) in &self.logged {
                let shard = shard_of(*clip, shards);
                if let Some((_, reason)) = failed.iter().find(|(s, _)| *s == shard) {
                    rebuilt.extend_from_slice(&out[copied..span.start]);
                    write_reply(*wire, &Reply::Err(reason.clone()), &mut rebuilt);
                    copied = span.end;
                }
            }
            rebuilt.extend_from_slice(&out[copied..]);
            *out = rebuilt;
        }
        self.logged.clear();
    }

    /// Execute one parsed (or unparseable) request; the bool means QUIT.
    fn execute(&mut self, tier: LoadTier, command: Result<Command, String>) -> (Reply, bool) {
        let reply = match command {
            Ok(Command::Get(clip)) => {
                // The shed tier refuses before touching the cache — the
                // point is to spend nothing on the request. Only GETs shed:
                // STATS/VERSION must stay observable under overload and
                // PEERGET is how the rest of the cluster heals.
                if tier == LoadTier::Shed {
                    self.shed += 1;
                    return (Reply::Busy, false);
                }
                match self.service.get_batched(clip, Some(&mut self.batch)) {
                    Ok(mut outcome) => {
                        // Cluster peer fill: a local miss consults the clip's
                        // other ring owners before being reported. `fill` is a
                        // no-op for R = 1 (empty probe set), so a degenerate
                        // cluster stays byte-identical to a standalone server.
                        // The local-only tier skips the fill entirely: a peer
                        // RTT is the most expensive thing the loop can buy
                        // while already behind on writes.
                        if !outcome.hit && tier == LoadTier::Normal {
                            if let Some(cluster) = self.cluster.as_mut() {
                                outcome.peer = cluster.fill(clip);
                            }
                        }
                        Reply::Get(outcome)
                    }
                    Err(e) => Reply::Err(e.to_string()),
                }
            }
            // A PEERGET is a full local access — the probing owner's
            // write-all half — but never recurses into another peer fill:
            // answering from local shards only keeps peer traffic loop-free.
            Ok(Command::PeerGet(clip)) => {
                match self.service.get_batched(clip, Some(&mut self.batch)) {
                    Ok(outcome) => Reply::Peer(outcome.hit),
                    Err(e) => Reply::Err(e.to_string()),
                }
            }
            Ok(Command::Version) => Reply::Version(WireVersions::current()),
            // An out-of-range chunk (or unknown clip) is a loud structured
            // ERR / R_ERR — the probe never stalls the connection.
            Ok(Command::GetRange(clip, chunk)) => {
                match self
                    .service
                    .get_range_batched(clip, chunk, Some(&mut self.batch))
                {
                    Ok(outcome) => Reply::Range(outcome),
                    Err(e) => Reply::Err(e.to_string()),
                }
            }
            Ok(Command::Stats) => {
                let engine = self.cluster.as_ref().map(ClusterRuntime::engine);
                let fill = engine.map(FillEngine::stats).unwrap_or_default();
                Reply::Stats(ServerStats {
                    stats: self.service.stats(),
                    recoveries: self.service.recoveries(),
                    wal_replayed: self.service.wal_replayed(),
                    peer_hits: fill.peer_hits,
                    handoff_replayed: fill.handoff_replayed,
                    breaker_open: engine.map_or(0, FillEngine::breaker_open),
                    shed: self.shed,
                })
            }
            Ok(Command::Snapshot) => {
                let parts: Vec<String> = self
                    .service
                    .snapshot()
                    .iter()
                    .map(|s| s.to_json())
                    .collect();
                Reply::Snapshot(format!("[{}]", parts.join(",")))
            }
            Ok(Command::Poison(clip)) => {
                if self.config.chaos {
                    Reply::Poisoned(self.service.poison(clip) as u64)
                } else {
                    Reply::Err("poison refused (server not started with --chaos)".into())
                }
            }
            Ok(Command::Quit) => return (Reply::Bye, true),
            Err(e) => Reply::Err(e),
        };
        (reply, false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tier_is_monotone_in_both_watermark_axes() {
        let gov = GovernorConfig::default();
        assert_eq!(gov.tier(0, 0), LoadTier::Normal);
        assert_eq!(gov.tier(gov.conn_local_only - 1, 0), LoadTier::Normal);
        assert_eq!(gov.tier(gov.conn_local_only, 0), LoadTier::LocalOnly);
        assert_eq!(gov.tier(gov.conn_shed - 1, 0), LoadTier::LocalOnly);
        assert_eq!(gov.tier(gov.conn_shed, 0), LoadTier::Shed);
        assert_eq!(gov.tier(0, gov.global_local_only), LoadTier::LocalOnly);
        assert_eq!(gov.tier(0, gov.global_shed), LoadTier::Shed);
        // The worst axis wins.
        assert_eq!(
            gov.tier(gov.conn_shed, gov.global_local_only),
            LoadTier::Shed
        );
        assert_eq!(
            gov.tier(gov.conn_local_only, gov.global_shed),
            LoadTier::Shed
        );
        // And the tiers are ordered so callers can compare.
        assert!(LoadTier::Normal < LoadTier::LocalOnly);
        assert!(LoadTier::LocalOnly < LoadTier::Shed);
    }

    #[test]
    fn shed_tier_refuses_gets_cheaply_and_counts_them() {
        use crate::service::ServiceConfig;
        use clipcache_core::PolicyKind;
        use clipcache_media::paper;

        let repo = Arc::new(paper::variable_sized_repository_of(24));
        let capacity = repo.cache_capacity_for_ratio(0.25);
        let service = CacheService::new(
            Arc::clone(&repo),
            ServiceConfig::new(PolicyKind::Lru, 1, capacity, 7),
            None,
        )
        .expect("LRU builds");
        let mut node = Node {
            service: Arc::new(service),
            config: ServerConfig::default(),
            cluster: None,
            shed: 0,
            batch: WalBatch::default(),
            logged: Vec::new(),
        };

        // Shed: BUSY, no cache access, counter moves.
        let (reply, quit) = node.execute(
            LoadTier::Shed,
            Ok(Command::Get(clipcache_media::ClipId::new(1))),
        );
        assert!(matches!(reply, Reply::Busy));
        assert!(!quit);
        assert_eq!(node.shed, 1);
        assert_eq!(
            node.service.stats().requests(),
            0,
            "shed GETs never touch shards"
        );

        // STATS is served at every tier and reports the shed count.
        let (reply, _) = node.execute(LoadTier::Shed, Ok(Command::Stats));
        match reply {
            Reply::Stats(stats) => assert_eq!(stats.shed, 1),
            other => panic!("expected STATS, got {other:?}"),
        }

        // Local-only and normal tiers still serve the GET.
        for tier in [LoadTier::LocalOnly, LoadTier::Normal] {
            let (reply, _) = node.execute(tier, Ok(Command::Get(clipcache_media::ClipId::new(1))));
            assert!(matches!(reply, Reply::Get(_)));
        }
        assert_eq!(node.shed, 1, "served GETs do not move the shed counter");
        assert_eq!(node.service.stats().requests(), 2);
    }
}
