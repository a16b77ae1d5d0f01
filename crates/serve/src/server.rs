//! The TCP front-end, in two layers: a socket-free session that turns
//! request bytes into reply bytes, and an epoll driver that moves bytes
//! between sockets and sessions.
//!
//! ## The session
//!
//! A `Session` holds one connection's unconsumed input and the encoded
//! replies owed to its peer. Its `process` runs one batch: it decodes
//! every complete request, runs each through `Node::execute`, encodes
//! the replies and ends with `Node::end_batch`; the caller passes the
//! batch's one clock reading. Executing *every* buffered request is the
//! server half of pipelining: a client that writes N requests at once
//! gets N replies back in one or two writes. A `Node` is what executing
//! touches: the service, the cluster fill engine, the shed count and
//! the batch's WAL state. The epoll loop drives one session per socket;
//! `InProcessConn` drives one with no socket, which is how the load
//! harness's in-process target and the cluster harness's members run
//! this same request path.
//!
//! Both wire protocols are spoken on every connection, auto-detected
//! per message: a byte equal to [`FRAME_MAGIC`] opens a length-prefixed
//! binary frame, anything else is a text line (`GET`/`STATS`/…). Each
//! reply uses the protocol of its request, so mixed sessions work.
//!
//! **Durable batches.** On a durable service each logged request only
//! stages its WAL frame in its shard's store. Ending the batch writes
//! each touched shard's frames with one `write` and, under `--wal-sync
//! always`, waits outside the shard lock for the one fsync covering
//! them. Only then can the driver send the batch's replies, so no reply
//! leaves before its frame is in the OS (and, under `always`, on disk).
//! If a shard's write or fsync fails, every reply of the batch that
//! rests on that shard is re-encoded in place as an `ERR`. A
//! memory-only service stages nothing, so its batches lock no shard.
//!
//! ## The epoll driver
//!
//! One event-loop thread owns a non-blocking listener, a wakeup pipe
//! and every live connection. Sockets are registered edge-triggered
//! (`EPOLLET`), so each readiness edge is drained: reads go through one
//! loop-wide buffer into the session until a read comes back *short* —
//! the receive queue was empty, and any later byte raises a new edge —
//! or, after a full read, a hang-up event or a pause at a cap, until
//! `WouldBlock` or EOF. (A read also stops short at a peer's `MSG_OOB`
//! mark; no client of this server sends urgent data.) The batch's
//! replies are then flushed until `WouldBlock`, with `EPOLLOUT`
//! interest registered only while a flush is pending. A turn that
//! serves one batch makes one `read` and one `write`, and reads the
//! clock once.
//!
//! [`ServerHandle::shutdown`] sets a flag and writes one byte to the
//! wakeup pipe; the loop then takes one final read per connection,
//! executes every buffered complete request, flushes the replies and
//! closes.
//!
//! ## Resilience
//!
//! *Structured refusal, never silent disconnect*: malformed text lines
//! and recoverable frame corruption get an `ERR` and the connection
//! lives; an untrusted frame length gets an `ERR` and then the close.
//! A text line longer than [`MAX_LINE_BYTES`] is refused. The admission
//! gate, the idle budget and `POISON` are [`ServerConfig`] knobs. A
//! connection whose pending replies pass a soft cap stops being *read*
//! (not dropped) until its client drains them.
//!
//! Below that cap sits a two-tier governor ([`GovernorConfig`]) keyed
//! on pending reply bytes, per connection and summed over the loop.
//! Past its first watermark GET misses skip the blocking peer fill;
//! past the second GETs are shed with a `BUSY` reply the loadgen backs
//! off from. `STATS`, `PEERGET` and the other cheap verbs are never
//! shed — `PEERGET` is how the cluster heals. Shed GETs count in
//! `STATS shed=`.

use crate::cluster::{ClusterRuntime, ClusterSpec, FillEngine};
use crate::protocol::{
    decode_command, parse_command, write_reply, Command, Decoded, Reply, ServerStats, Wire,
    WireVersions, FRAME_MAGIC,
};
use crate::service::{CacheService, WalBatch};
use crate::shard::shard_of;
use clipcache_media::ClipId;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::ops::Range;
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Idle-sweep cadence: the epoll timeout when no traffic arrives, and
/// the least time between two idle sweeps when traffic keeps the loop
/// busy.
const POLL_INTERVAL: Duration = Duration::from_millis(100);

/// Longest accepted text request line (bytes, newline excluded). Longer
/// lines get `ERR request line too long` and the connection closes.
pub const MAX_LINE_BYTES: usize = 64 * 1024;

/// Pending reply bytes beyond which a connection stops being read until
/// the client drains some replies (pipelining backpressure).
const WBUF_SOFT_CAP: usize = 4 * 1024 * 1024;

/// Size of the loop's one read buffer. A read that fills it may have
/// left bytes queued, so the drain reads again; a shorter read ends it.
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

/// One connection's protocol state, free of sockets. A driver feeds it
/// input, runs [`process`](Session::process) once per batch and takes
/// its output.
struct Session {
    /// Unconsumed input bytes (partial lines / torn frame prefixes).
    rbuf: Vec<u8>,
    /// Encoded replies; the bytes from `flushed` on are not yet taken.
    wbuf: Vec<u8>,
    /// How many leading bytes of `wbuf` the peer has taken.
    flushed: usize,
    /// Close once `wbuf` is flushed (QUIT, fatal protocol error, idle).
    closing: bool,
    /// End of the last batch that completed a request (idle accounting).
    last_request: Instant,
    /// Protocol of the most recent message: unsolicited replies (idle
    /// timeout) use it so binary clients are not fed text mid-frame.
    wire: Wire,
}

impl Session {
    fn new(now: Instant) -> Session {
        Session {
            rbuf: Vec::new(),
            wbuf: Vec::new(),
            flushed: 0,
            closing: false,
            last_request: now,
            wire: Wire::Text,
        }
    }

    /// Buffer bytes the peer sent.
    fn feed(&mut self, bytes: &[u8]) {
        self.rbuf.extend_from_slice(bytes);
    }

    /// Reply bytes the peer has not taken yet.
    fn output(&self) -> &[u8] {
        &self.wbuf[self.flushed..]
    }

    /// How many reply bytes the peer has not taken yet.
    fn pending(&self) -> usize {
        self.wbuf.len() - self.flushed
    }

    /// The peer took the first `n` bytes of [`output`](Self::output).
    /// Taken bytes are reclaimed once they outnumber the pending ones,
    /// so each byte is moved at most once on average.
    fn consume(&mut self, n: usize) {
        self.flushed += n;
        if self.flushed >= self.pending() {
            self.wbuf.drain(..self.flushed);
            self.flushed = 0;
        }
    }

    /// Execute every complete request sitting in `rbuf` as one batch,
    /// encoding the replies straight onto `wbuf`; their WAL frames are
    /// written before it returns. `global` is the governor's loop-wide
    /// pending-reply reading, `now` the batch's one clock reading.
    fn process(&mut self, node: &mut Node, global: usize, now: Instant) {
        let mut consumed = 0usize;
        let mut completed = false;
        let batch_start = self.wbuf.len();
        while consumed < self.rbuf.len() && !self.closing {
            // Classify under the replies already produced this batch,
            // so a pipelined flood trips the governor mid-batch instead
            // of after the batch has bought 4 MiB of output.
            let tier = node
                .config
                .governor
                .tier(self.pending(), global + (self.wbuf.len() - batch_start));
            let rest = &self.rbuf[consumed..];
            self.wire = if rest[0] == FRAME_MAGIC {
                Wire::Binary
            } else {
                Wire::Text
            };
            let (command, fatal) = match self.wire {
                Wire::Binary => match decode_command(rest) {
                    Ok(Decoded::Incomplete) => break,
                    Ok(Decoded::Frame { value, consumed: n }) => {
                        consumed += n;
                        completed = true;
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
                        let command = parse_command(&String::from_utf8_lossy(&rest[..pos]));
                        consumed += pos + 1;
                        completed = true;
                        (command, false)
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
            let start = self.wbuf.len();
            write_reply(self.wire, &reply, &mut self.wbuf);
            // Only a batch that staged WAL frames can fail at its end;
            // a memory-only service never records a span.
            if let Some(clip) = logged.filter(|_| node.batch.staged()) {
                if matches!(reply, Reply::Get(_) | Reply::Peer(_) | Reply::Range(_)) {
                    node.logged.push((start..self.wbuf.len(), self.wire, clip));
                }
            }
            self.closing |= fatal || quit;
        }
        node.end_batch(&mut self.wbuf);
        if completed {
            self.last_request = now;
        }
        self.rbuf.drain(..consumed);
    }
}

/// One connection inside the loop: its session plus the socket state.
struct Conn {
    stream: TcpStream,
    session: Session,
    /// The peer half-closed or errored; no more reads will succeed.
    eof: bool,
    /// `EPOLLOUT` currently registered.
    want_write: bool,
    /// Reading stopped before the socket was drained (backpressure or
    /// the bounded-memory cap). No new edge will announce the bytes
    /// left queued, so the flush that releases the cap reads again.
    paused: bool,
}

const LISTENER_TOKEN: u64 = u64::MAX;
const WAKE_TOKEN: u64 = u64::MAX - 1;
const BASE_EVENTS: u32 = libc::EPOLLIN | libc::EPOLLRDHUP | libc::EPOLLET;

/// What executing a request touches: the event loop minus its sockets.
pub(crate) struct Node {
    service: Arc<CacheService>,
    config: ServerConfig,
    /// Peer fill engine and link when the node is a cluster member.
    pub(crate) cluster: Option<ClusterRuntime>,
    /// GETs refused with `BUSY` by the governor (reported in `STATS`).
    shed: u64,
    /// The shards the current batch left WAL frames staged on.
    batch: WalBatch,
    /// The current batch's replies that rest on a logged access: their
    /// bytes in the connection's output buffer, their wire, and the
    /// clip accessed.
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
    /// Loop-wide pending reply bytes, the governor's global reading:
    /// every open session's `pending()`, summed. Each step that can
    /// change a session's output (a readiness event, an idle sweep, the
    /// shutdown drain) adjusts it by that session's change; a session is
    /// closed only once it holds none.
    pending_bytes: usize,
    /// The one read buffer every connection's reads go through:
    /// allocated once, its bytes copied into the connection's `rbuf`.
    read_buf: Box<[u8]>,
    /// Earliest time of the next idle sweep.
    next_sweep: Instant,
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
        Ok(EventLoop {
            epoll,
            listener,
            node: Node::new(service, config),
            shutdown,
            wake,
            conns: Vec::new(),
            free: Vec::new(),
            live: 0,
            pending_bytes: 0,
            read_buf: vec![0; READ_CHUNK].into_boxed_slice(),
            next_sweep: Instant::now(),
        })
    }

    fn run(&mut self) {
        let mut events = vec![libc::epoll_event { events: 0, u64: 0 }; 1024];
        loop {
            self.turn(&mut events, POLL_INTERVAL);
            if self.shutdown.load(Ordering::SeqCst) {
                self.drain_and_close_all();
                return;
            }
            self.sweep_idle();
        }
    }

    /// Wait up to `timeout` for readiness and handle every event.
    fn turn(&mut self, events: &mut [libc::epoll_event], timeout: Duration) {
        let n = self.epoll.wait(events, timeout.as_millis() as i32);
        for ev in events.iter().take(n) {
            let token = ev.u64;
            let bits = ev.events;
            match token {
                LISTENER_TOKEN => self.accept_ready(),
                WAKE_TOKEN => self.wake.drain(),
                _ => self.conn_ready(token as usize, bits),
            }
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
                session: Session::new(Instant::now()),
                eof: false,
                want_write: false,
                paused: false,
            });
            self.live += 1;
        }
    }

    /// Handle readiness on connection `token`.
    fn conn_ready(&mut self, token: usize, bits: u32) {
        // Global pending bytes are snapshotted once per readiness event;
        // requests executed inside this event add their own replies on
        // top of the snapshot (see `Session::process`).
        let global = self.pending_bytes;
        let Some(conn) = self.conns.get_mut(token).and_then(Option::as_mut) else {
            return; // already closed earlier in this batch
        };
        let before = conn.session.pending();
        let hangup = bits & (libc::EPOLLRDHUP | libc::EPOLLHUP | libc::EPOLLERR) != 0;
        if bits & (libc::EPOLLERR | libc::EPOLLHUP) != 0 {
            conn.eof = true;
        }
        if bits & (libc::EPOLLIN | libc::EPOLLRDHUP) != 0 {
            // After a hang-up no further edge comes, so read on to EOF.
            Self::read_and_process(conn, &mut self.node, &mut self.read_buf, global, hangup);
        }
        if bits & libc::EPOLLOUT != 0 || conn.session.pending() > 0 {
            Self::flush(conn);
        }
        // Backpressure release: reading stopped with bytes still queued,
        // and only this loop will fetch them. While replies stay pending
        // the next `EPOLLOUT` edge comes back here. Read on to the end:
        // a hang-up epoll already reported may sit behind those bytes,
        // and no further edge would announce it. The path is rare, so
        // the extra read costs nothing.
        while conn.paused && conn.session.pending() < WBUF_SOFT_CAP && !conn.session.closing {
            Self::read_and_process(conn, &mut self.node, &mut self.read_buf, global, true);
            Self::flush(conn);
            if conn.session.pending() > 0 {
                break;
            }
        }
        self.pending_bytes = self.pending_bytes - before + conn.session.pending();
        self.update_interest(token);
    }

    /// Drain the socket into the session, then execute every complete
    /// buffered request. A short read ends the drain: the receive queue
    /// was empty, and a later arrival raises a new edge. With `to_end`
    /// (a hang-up, a resume after a pause, or the shutdown drain) reads
    /// go on to `WouldBlock` or EOF.
    fn read_and_process(
        conn: &mut Conn,
        node: &mut Node,
        read_buf: &mut [u8],
        global: usize,
        to_end: bool,
    ) {
        let session = &mut conn.session;
        if session.closing {
            return;
        }
        // Backpressure: let the client drain replies first.
        conn.paused = session.pending() >= WBUF_SOFT_CAP;
        if conn.paused {
            return;
        }
        loop {
            match conn.stream.read(read_buf) {
                Ok(0) => {
                    conn.eof = true;
                    break;
                }
                Ok(n) => {
                    session.feed(&read_buf[..n]);
                    if session.rbuf.len() + session.pending() > WBUF_SOFT_CAP {
                        conn.paused = true;
                        break; // bounded memory per connection
                    }
                    if n < read_buf.len() && !to_end {
                        break;
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
        session.process(node, global, Instant::now());
        if conn.eof {
            // Peer is gone (or half-closed after its final request):
            // flush whatever replies remain, then close.
            session.closing = true;
        }
    }

    /// Write pending reply bytes until `WouldBlock` or empty.
    fn flush(conn: &mut Conn) {
        while conn.session.pending() > 0 {
            match conn.stream.write(conn.session.output()) {
                Ok(n) if n > 0 => conn.session.consume(n),
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                _ => {
                    // The peer is gone: drop every pending reply.
                    conn.eof = true;
                    conn.session.consume(conn.session.pending());
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
        let want = conn.session.pending() > 0;
        if (conn.session.closing || conn.eof) && !want {
            self.close_conn(token);
            return;
        }
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
            // Every close follows a flush that emptied the session or
            // dropped its replies, so the pending total is unchanged.
            debug_assert_eq!(conn.session.pending(), 0, "closing with replies queued");
            // Dropping the stream closes the fd, which removes it from
            // the epoll set.
            drop(conn);
            self.free.push(token);
            self.live -= 1;
        }
    }

    /// Reclaim connections whose idle budget expired. Under load the
    /// loop wakes far more often than `POLL_INTERVAL`; the sweep runs
    /// at most once per interval.
    fn sweep_idle(&mut self) {
        let Some(budget) = self.node.config.read_timeout else {
            return;
        };
        let now = Instant::now();
        if now < self.next_sweep {
            return;
        }
        self.next_sweep = now + POLL_INTERVAL;
        for token in 0..self.conns.len() {
            let Some(conn) = self.conns.get_mut(token).and_then(Option::as_mut) else {
                continue;
            };
            let session = &mut conn.session;
            if session.closing || now.duration_since(session.last_request) < budget {
                continue;
            }
            let before = session.pending();
            write_reply(
                session.wire,
                &Reply::Err("idle timeout".into()),
                &mut session.wbuf,
            );
            session.closing = true;
            Self::flush(conn);
            self.pending_bytes = self.pending_bytes - before + conn.session.pending();
            self.update_interest(token);
        }
    }

    /// Graceful shutdown: stop accepting, take one final opportunistic
    /// read per connection (bytes the peer already sent), execute every
    /// buffered complete request, and flush all replies with blocking
    /// writes so in-flight pipelined requests are answered, not dropped.
    fn drain_and_close_all(&mut self) {
        for token in 0..self.conns.len() {
            let global = self.pending_bytes;
            let Some(conn) = self.conns.get_mut(token).and_then(Option::as_mut) else {
                continue;
            };
            let before = conn.session.pending();
            Self::read_and_process(conn, &mut self.node, &mut self.read_buf, global, true);
            if conn.session.pending() > 0 {
                let _ = conn.stream.set_nonblocking(false);
                let _ = conn.stream.set_write_timeout(Some(Duration::from_secs(5)));
                let _ = conn.stream.write_all(conn.session.output());
                conn.session.consume(conn.session.pending());
            }
            self.pending_bytes -= before;
        }
        for token in 0..self.conns.len() {
            self.close_conn(token);
        }
    }
}

impl Node {
    /// A node that fills from `config.cluster`'s members over TCP.
    pub(crate) fn new(service: Arc<CacheService>, config: ServerConfig) -> Node {
        Node {
            cluster: config.cluster.clone().map(ClusterRuntime::new),
            service,
            config,
            shed: 0,
            batch: WalBatch::default(),
            logged: Vec::new(),
        }
    }

    /// End the batch whose replies are the tail of `out`: write the WAL
    /// frames it staged, one `write` (and under `--wal-sync always` one
    /// fsync) per touched shard. If a shard's write or fsync failed,
    /// every reply resting on an access to that shard is re-encoded as
    /// an `ERR` naming the failure — nothing is acknowledged that is
    /// not as durable as the sync policy promises.
    fn end_batch(&mut self, out: &mut Vec<u8>) {
        let mut failed: Vec<(usize, String)> = Vec::new();
        self.service.write_batch(&mut self.batch, |shard, e| {
            failed.push((shard, e.to_string()))
        });
        if !failed.is_empty() {
            // Re-encode from the first logged reply on; the spans index
            // `out` and are in order.
            let base = self
                .logged
                .first()
                .map_or(out.len(), |(span, ..)| span.start);
            let tail = out.split_off(base);
            let shards = self.service.shards();
            let mut copied = base;
            for (span, wire, clip) in &self.logged {
                let shard = shard_of(*clip, shards);
                if let Some((_, reason)) = failed.iter().find(|(s, _)| *s == shard) {
                    out.extend_from_slice(&tail[copied - base..span.start - base]);
                    write_reply(*wire, &Reply::Err(reason.clone()), out);
                    copied = span.end;
                }
            }
            out.extend_from_slice(&tail[copied - base..]);
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

/// A connection into a [`Session`] with no socket: the load harness's
/// in-process target and the cluster harness's client and peer hops.
/// The [`Node`] it reaches belongs to whoever made it, not to the
/// connection, so dropping a connection keeps the node's state. Each
/// `write` is one batch, run with the node locked. `read` takes the
/// replies; with none pending it fails with `WouldBlock`, and once a
/// closed session's last reply is taken it reports the end of stream.
pub(crate) struct InProcessConn {
    node: Arc<Mutex<Node>>,
    session: Session,
}

impl InProcessConn {
    /// A connection with a node of its own over `service`, honouring
    /// `POISON`: clients on separate threads contend only on the shard
    /// locks.
    pub(crate) fn new(service: Arc<CacheService>) -> InProcessConn {
        let config = ServerConfig {
            chaos: true,
            ..ServerConfig::default()
        };
        InProcessConn::to(Arc::new(Mutex::new(Node::new(service, config))))
    }

    /// A connection into a node shared with other connections.
    pub(crate) fn to(node: Arc<Mutex<Node>>) -> InProcessConn {
        InProcessConn {
            node,
            session: Session::new(Instant::now()),
        }
    }
}

impl Write for InProcessConn {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        // A closing session reads no more, like the loop's connections.
        if !self.session.closing {
            self.session.feed(buf);
            let global = self.session.pending();
            let mut node = self.node.lock().expect("node lock poisoned");
            self.session.process(&mut node, global, Instant::now());
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

impl Read for InProcessConn {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.session.pending() == 0 && !self.session.closing {
            return Err(ErrorKind::WouldBlock.into());
        }
        let n = self.session.output().read(buf)?;
        self.session.consume(n);
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::encode_command;
    use crate::service::ServiceConfig;
    use clipcache_core::PolicyKind;
    use clipcache_media::paper;

    fn lru_service() -> CacheService {
        let repo = Arc::new(paper::variable_sized_repository_of(24));
        let capacity = repo.cache_capacity_for_ratio(0.25);
        CacheService::new(
            Arc::clone(&repo),
            ServiceConfig::new(PolicyKind::Lru, 1, capacity, 7),
            None,
        )
        .expect("LRU builds")
    }

    /// An event loop whose governor never sheds, with one accepted
    /// client connection (token 0).
    fn loop_with_one_client() -> (EventLoop, TcpStream) {
        let (event_loop, mut clients) = loop_with_clients(1);
        (event_loop, clients.remove(0))
    }

    /// An event loop whose governor never sheds, with `n` accepted
    /// client connections (tokens `0..n`, in order).
    fn loop_with_clients(n: usize) -> (EventLoop, Vec<TcpStream>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        let addr = listener.local_addr().unwrap();
        let config = ServerConfig {
            governor: GovernorConfig {
                conn_local_only: usize::MAX,
                conn_shed: usize::MAX,
                global_local_only: usize::MAX,
                global_shed: usize::MAX,
            },
            ..ServerConfig::default()
        };
        let mut event_loop = EventLoop::new(
            listener,
            Arc::new(lru_service()),
            config,
            Arc::new(AtomicBool::new(false)),
            Arc::new(WakePipe::new().unwrap()),
        )
        .unwrap();
        let mut clients = Vec::new();
        for live in 1..=n {
            clients.push(TcpStream::connect(addr).unwrap());
            while event_loop.live < live {
                event_loop.accept_ready();
            }
        }
        (event_loop, clients)
    }

    #[test]
    fn a_write_edge_that_releases_the_cap_reads_again() {
        // epoll reports every ready bit with any wakeup, so over a real
        // loop a missed re-read only costs an edge; driving the loop by
        // hand shows the rule itself. A write-only edge whose flush
        // takes the reply buffer back under the cap must read the input
        // left queued when reading stopped.
        let (mut event_loop, mut client) = loop_with_one_client();

        // 1M GETs: 11 MiB of requests, 16 MiB of replies, far more than
        // the cap plus what the kernel buffers.
        let mut window = Vec::new();
        for i in 0..1u32 << 20 {
            encode_command(&Command::Get(ClipId::new(1 + i % 24)), &mut window);
        }
        let mut writer = client.try_clone().unwrap();
        let sender = std::thread::spawn(move || writer.write_all(&window));
        fn conn(event_loop: &EventLoop) -> &Conn {
            event_loop.conns[0].as_ref().unwrap()
        }
        while !(conn(&event_loop).paused && conn(&event_loop).session.pending() >= WBUF_SOFT_CAP) {
            event_loop.conn_ready(0, libc::EPOLLIN);
        }

        // Drain replies client-side until a flush gets under the cap.
        let mut sink = vec![0u8; 64 * 1024];
        while conn(&event_loop).session.pending() >= WBUF_SOFT_CAP {
            client.read_exact(&mut sink).unwrap();
            EventLoop::flush(event_loop.conns[0].as_mut().unwrap());
        }
        let served = event_loop.node.service.stats().requests();
        event_loop.conn_ready(0, libc::EPOLLOUT);
        assert!(
            event_loop.node.service.stats().requests() > served,
            "the write edge left the queued input unread"
        );
        // Closing the server ends the writer's `write_all` with an error.
        drop(event_loop);
        drop(client);
        let _ = sender.join().expect("the writer thread does not panic");
    }

    /// Text GETs padded with spaces to lines of this many bytes, so a
    /// window passes the cap with few replies.
    const PADDED_LINE: usize = 32 * 1024;

    fn padded_gets(lines: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(lines * PADDED_LINE);
        for i in 0..lines {
            let start = out.len();
            out.extend_from_slice(format!("GET {}", 1 + i % 24).as_bytes());
            out.resize(start + PADDED_LINE - 1, b' ');
            out.push(b'\n');
        }
        out
    }

    const SO_SNDBUF: i32 = 7;
    const SO_RCVBUF: i32 = 8;

    /// Ask the kernel for a receive buffer of `bytes` on `stream`; it
    /// caps the request at `net.core.rmem_max`.
    fn set_receive_buffer(stream: &TcpStream, bytes: i32) {
        set_socket_buffer(stream, SO_RCVBUF, bytes);
    }

    /// Ask the kernel for a `name` (`SO_RCVBUF` or `SO_SNDBUF`) buffer
    /// of `bytes` on `stream`.
    fn set_socket_buffer(stream: &TcpStream, name: i32, bytes: i32) {
        extern "C" {
            fn setsockopt(fd: i32, level: i32, name: i32, value: *const i32, len: u32) -> i32;
        }
        const SOL_SOCKET: i32 = 1;
        let len = std::mem::size_of::<i32>() as u32;
        let rc = unsafe { setsockopt(stream.as_raw_fd(), SOL_SOCKET, name, &bytes, len) };
        assert_eq!(rc, 0, "setsockopt({name}) failed");
    }

    #[test]
    fn the_running_pending_total_equals_the_walk_over_every_connection() {
        // 32 connections with small socket buffers, so replies back up
        // into the sessions. Each round a third of the clients pipeline
        // a window, another third drain what reached them, and a few
        // hang up with replies still queued; idle sessions are swept
        // with an `ERR` appended. After every loop turn and sweep the
        // running total must equal the sum over the slab.
        const CLIENTS: usize = 32;
        let (mut event_loop, mut clients) = loop_with_clients(CLIENTS);
        event_loop.node.config.read_timeout = Some(Duration::from_millis(20));
        for (token, client) in clients.iter().enumerate() {
            let server_side = &event_loop.conns[token].as_ref().unwrap().stream;
            set_socket_buffer(server_side, SO_SNDBUF, 4096);
            set_receive_buffer(client, 4096);
            client.set_nonblocking(true).unwrap();
        }
        let walk = |event_loop: &EventLoop| -> usize {
            event_loop
                .conns
                .iter()
                .flatten()
                .map(|c| c.session.pending())
                .sum()
        };
        let mut window = Vec::new();
        for i in 0..5_000u32 {
            window.extend_from_slice(format!("GET {}\n", 1 + i % 24).as_bytes());
        }
        let mut events = vec![libc::epoll_event { events: 0, u64: 0 }; 64];
        let mut sink = vec![0u8; 64 * 1024];
        let mut peak = 0;
        for round in 0..12 {
            for (i, client) in clients.iter_mut().enumerate() {
                match (i + round) % 3 {
                    0 => {
                        let mut sent = 0;
                        while sent < window.len() {
                            // An error is a full socket or a swept session.
                            match client.write(&window[sent..]) {
                                Ok(n) => sent += n,
                                Err(_) => break,
                            }
                        }
                    }
                    1 => while matches!(client.read(&mut sink), Ok(n) if n > 0) {},
                    _ => {}
                }
            }
            if round % 4 == 3 {
                let gone = clients.len() - 1;
                drop(clients.remove(gone));
            }
            for _ in 0..4 {
                event_loop.turn(&mut events, Duration::from_millis(5));
                assert_eq!(event_loop.pending_bytes, walk(&event_loop), "round {round}");
                peak = peak.max(event_loop.pending_bytes);
                event_loop.sweep_idle();
                assert_eq!(
                    event_loop.pending_bytes,
                    walk(&event_loop),
                    "round {round} sweep"
                );
            }
        }
        assert!(
            peak > 0,
            "no replies ever backed up; the test checked nothing"
        );
        assert!(event_loop.live < CLIENTS, "no connection was closed");
        // Every client hangs up with replies queued: each close must take
        // its session's bytes out of the total.
        drop(clients);
        let deadline = Instant::now() + Duration::from_secs(10);
        while event_loop.live > 0 && Instant::now() < deadline {
            event_loop.turn(&mut events, Duration::from_millis(5));
            assert_eq!(event_loop.pending_bytes, walk(&event_loop));
        }
        assert_eq!(event_loop.live, 0);
        assert_eq!(event_loop.pending_bytes, 0);
    }

    #[test]
    fn a_hang_up_sharing_an_event_with_the_memory_cap_still_closes() {
        // The client queues a window and its FIN before the loop turns,
        // so one event carries both. That event's drain stops at the
        // bounded-memory cap, and the read that resumes after the flush
        // must go on to EOF: the hang-up was reported already, and when
        // the flush empties the output no later event comes, so the
        // half-closed client would wait for EOF forever.
        let (mut event_loop, client) = loop_with_one_client();
        let stream = &event_loop.conns[0].as_ref().unwrap().stream;
        set_receive_buffer(stream, 8 << 20);
        let mut events = vec![libc::epoll_event { events: 0, u64: 0 }; 16];
        let tick = Duration::from_millis(10);
        let mut reader = client.try_clone().unwrap();
        let replies = std::thread::spawn(move || {
            let mut got = Vec::new();
            reader.read_to_end(&mut got).map(|_| got)
        });

        // 64 KiB reads cross the cap with one 32 KiB line still queued:
        // the resumed read comes back short, with the FIN behind it.
        let lines = WBUF_SOFT_CAP / PADDED_LINE + 3;
        let window = padded_gets(lines);
        let queued = window.len();
        let mut writer = client.try_clone().unwrap();
        let sender = std::thread::spawn(move || {
            writer.write_all(&window)?;
            writer.shutdown(std::net::Shutdown::Write)
        });
        // Turn only once the server's socket holds the whole window. On
        // a kernel whose `rmem_max` is too small for that, this times
        // out and the test checks only that the connection ends.
        let mut peeked = vec![0u8; queued];
        let stream = &event_loop.conns[0].as_ref().unwrap().stream;
        let deadline = Instant::now() + Duration::from_secs(2);
        while stream.peek(&mut peeked).unwrap_or(0) < queued && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        std::thread::sleep(tick); // let the FIN land behind the data

        let deadline = Instant::now() + Duration::from_secs(10);
        while event_loop.live > 0 && Instant::now() < deadline {
            event_loop.turn(&mut events, tick);
        }
        assert_eq!(
            event_loop.live, 0,
            "the half-closed connection was never closed"
        );
        sender
            .join()
            .unwrap()
            .expect("the window and FIN were sent");
        let got = replies.join().unwrap().expect("replies, then EOF");
        let answered = got.iter().filter(|&&b| b == b'\n').count();
        assert_eq!(answered, lines, "one reply line per GET");
    }

    #[test]
    fn every_garbage_line_gets_one_text_err_and_the_session_stays_open() {
        // The chaos harness's garbage claims to be one text line; fed to
        // a session, each must get exactly one text ERR line back.
        let mut node = Node::new(Arc::new(lru_service()), ServerConfig::default());
        let mut session = Session::new(Instant::now());
        let plan = crate::fault::FaultPlan::new(11, 1.0);
        for request in 0..4096 {
            let payload = plan.garbage_payload(1, request, 0);
            session.feed(&[&payload[..], b"\n"].concat());
            session.process(&mut node, 0, Instant::now());
            let reply = String::from_utf8_lossy(session.output()).into_owned();
            assert!(
                reply.starts_with("ERR ") && reply.find('\n') == Some(reply.len() - 1),
                "payload {payload:02x?} got {reply:?}"
            );
            assert!(
                session.rbuf.is_empty(),
                "payload {payload:02x?} left input unread"
            );
            assert!(
                !session.closing,
                "payload {payload:02x?} closed the session"
            );
            session.consume(session.pending());
        }
    }

    /// Pipeline `window` as one write of binary GETs into an in-process
    /// connection on `service`, and decode every reply.
    fn window_replies(service: CacheService, window: &[ClipId]) -> Vec<Reply> {
        let mut conn = InProcessConn::new(Arc::new(service));
        let mut bytes = Vec::new();
        for &clip in window {
            encode_command(&Command::Get(clip), &mut bytes);
        }
        conn.write_all(&bytes).unwrap();
        let mut out = Vec::new();
        conn.read_to_end(&mut out).unwrap_err(); // `WouldBlock` once drained
        let mut replies = Vec::new();
        let mut rest = &out[..];
        while !rest.is_empty() {
            let Ok(Decoded::Frame { value, consumed }) = crate::protocol::decode_reply(rest) else {
                panic!("corrupt reply stream {rest:02x?}");
            };
            replies.push(value);
            rest = &rest[consumed..];
        }
        replies
    }

    #[test]
    fn a_torn_wal_write_refuses_exactly_the_replies_on_its_shard() {
        use crate::persist::{CrashAction, CrashSpec, PersistOptions};
        let repo = Arc::new(paper::variable_sized_repository_of(24));
        let config = ServiceConfig::new(PolicyKind::Lru, 2, repo.cache_capacity_for_ratio(0.25), 7);
        let (torn, other): (Vec<ClipId>, Vec<ClipId>) =
            repo.ids().partition(|&clip| shard_of(clip, 2) == 0);
        // Shard 0 logs six accesses and tears its fourth frame; shard 1
        // logs two, so `torn:4` never fires there.
        let window = [
            torn[0], other[0], torn[1], torn[2], other[1], torn[3], torn[4], torn[5],
        ];
        let clean = window_replies(
            CacheService::new(Arc::clone(&repo), config, None).unwrap(),
            &window,
        );
        let dir =
            std::env::temp_dir().join(format!("clipcache-server-torn-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = PersistOptions {
            crash: Some(CrashSpec::parse("torn:4").unwrap()),
            on_crash: CrashAction::Surface,
            ..PersistOptions::at(&dir)
        };
        let (durable, _) = CacheService::open_persistent(Arc::clone(&repo), config, None, &opts)
            .expect("durable service opens");
        let replies = window_replies(durable, &window);
        assert_eq!(replies.len(), window.len());
        for (i, clip) in window.iter().enumerate() {
            if shard_of(*clip, 2) == 0 {
                // From the tear on each access fails as it runs; the ones
                // before it rest on the batch write the dead store
                // refused, so the batch's end re-encodes them.
                assert!(
                    matches!(&replies[i], Reply::Err(_)),
                    "reply {i}: {:?}",
                    replies[i]
                );
            } else {
                assert!(
                    matches!(&replies[i], Reply::Get(_)),
                    "reply {i}: {:?}",
                    replies[i]
                );
                assert_eq!(replies[i], clean[i], "reply {i} on the untorn shard");
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

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
        let mut node = Node::new(Arc::new(lru_service()), ServerConfig::default());

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
