//! A blocking client for the TCP front-end, speaking either wire
//! protocol over any byte stream: a TCP socket, or the load harness's
//! in-process connection to a server session.
//!
//! The client defaults to the text line protocol (debuggable, and what
//! every pre-existing golden pins); [`Wire::Binary`] switches every
//! request to length-prefixed frames. Every verb is one private round
//! trip over [`Command`]/[`Reply`]: [`write_command`] encodes the
//! request for the client's wire, and one receive step decodes the
//! answer with [`parse_reply`] (a text line) or [`decode_reply`] (a
//! binary frame). A reply of the wrong kind maps to one error shape: a
//! governor `BUSY` is the error [`is_busy_error`] recognizes, a server
//! `ERR m` is `InvalidData("ERR m")`, anything else is `InvalidData`.
//!
//! Pipelining: [`send_gets`](TcpCacheClient::send_gets) batches many
//! requests into one write and [`recv_get`](TcpCacheClient::recv_get)
//! collects the replies one at a time, so a window of requests is in
//! flight on the connection at once — this is where the epoll
//! front-end's throughput comes from.
//!
//! Besides the plain request/reply surface, the client has an optional
//! per-request read timeout for the chaos harness: a request whose reply
//! never arrives surfaces as a timeout `io::Error` the retry loop can act
//! on, instead of blocking forever. Wire faults are not client verbs:
//! the harness speaks through a `fault::FaultStream` armed for the next
//! message.

use crate::protocol::{
    decode_reply, parse_reply, write_command, Command, Decoded, Reply, ServerStats, Wire,
    WireVersions,
};
use crate::shard::{GetOutcome, RangeOutcome};
use clipcache_media::ClipId;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// The message carried by the `io::Error` a governor `BUSY` shed maps
/// to; match it with [`is_busy_error`].
const BUSY_ERROR: &str = "server shed the request (BUSY)";

/// Whether an error from [`TcpCacheClient::get`] /
/// [`recv_get`](TcpCacheClient::recv_get) is the server's governor
/// shedding the request. Busy is retryable-after-backoff on the *same*
/// connection — it is neither a timeout (`WouldBlock`/`TimedOut`, which
/// the chaos loop treats as a possible lost write) nor a protocol error
/// (`InvalidData`, which is a reason to redial).
pub fn is_busy_error(err: &std::io::Error) -> bool {
    err.kind() == std::io::ErrorKind::Other && err.to_string().contains(BUSY_ERROR)
}

/// Whether an error is the server's `ERR` reply to the request.
pub(crate) fn is_err_reply(err: &std::io::Error) -> bool {
    err.kind() == std::io::ErrorKind::InvalidData && err.to_string().starts_with("ERR ")
}

/// One connection to a serve front-end, over a TCP socket by default.
pub struct TcpCacheClient<S = TcpStream> {
    /// Read through the buffer, written to the stream beneath it.
    stream: BufReader<S>,
    wire: Wire,
    /// Reassembly buffer for binary frames torn across reads.
    frame_buf: Vec<u8>,
    /// The text reply line being read, reused.
    line: String,
    /// Encode buffer every request is written through, reused.
    out: Vec<u8>,
}

impl TcpCacheClient {
    /// Connect speaking text, with no read timeout.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Self> {
        Self::connect_wire(addr, None, Wire::Text)
    }

    /// Connect speaking the given wire protocol. With `read_timeout`
    /// set, a reply that takes longer surfaces as a
    /// `WouldBlock`/`TimedOut` error — the client-level timeout the
    /// chaos retry loop recovers from.
    ///
    /// `read_timeout` bounds the *connect* too: a peer that is
    /// mid-recovery (listening socket up, accept loop not yet draining
    /// its SYN backlog) used to block the caller indefinitely inside
    /// `TcpStream::connect`; now the same budget that bounds each reply
    /// bounds establishment, so lazy reconnects surface a timeout error
    /// the retry loop can act on. Use
    /// [`connect_deadline`](Self::connect_deadline) to pick a separate
    /// connect budget.
    pub fn connect_wire(
        addr: impl ToSocketAddrs,
        read_timeout: Option<Duration>,
        wire: Wire,
    ) -> std::io::Result<Self> {
        Self::connect_deadline(addr, read_timeout, read_timeout, wire)
    }

    /// Connect with independent read and connect budgets (`None` =
    /// block). The cluster peer pool uses a short connect budget so a
    /// dead peer costs one bounded probe, not a stalled event loop.
    pub fn connect_deadline(
        addr: impl ToSocketAddrs,
        read_timeout: Option<Duration>,
        connect_timeout: Option<Duration>,
        wire: Wire,
    ) -> std::io::Result<Self> {
        let stream = match connect_timeout {
            None => TcpStream::connect(addr)?,
            Some(limit) => {
                // `TcpStream::connect_timeout` takes one resolved
                // address; try each resolution, keeping the last error.
                let mut last: Option<std::io::Error> = None;
                let mut connected = None;
                for resolved in addr.to_socket_addrs()? {
                    match TcpStream::connect_timeout(&resolved, limit) {
                        Ok(stream) => {
                            connected = Some(stream);
                            break;
                        }
                        Err(e) => last = Some(e),
                    }
                }
                connected.ok_or_else(|| {
                    last.unwrap_or_else(|| {
                        std::io::Error::new(
                            std::io::ErrorKind::InvalidInput,
                            "address resolved to nothing",
                        )
                    })
                })?
            }
        };
        stream.set_nodelay(true)?;
        stream.set_read_timeout(read_timeout)?;
        Ok(TcpCacheClient::over(stream, wire))
    }
}

impl<S: Read + Write> TcpCacheClient<S> {
    /// Speak `wire` over an established byte stream.
    pub(crate) fn over(stream: S, wire: Wire) -> Self {
        TcpCacheClient {
            stream: BufReader::new(stream),
            wire,
            frame_buf: Vec::new(),
            line: String::new(),
            out: Vec::new(),
        }
    }

    /// The stream the client speaks over.
    pub(crate) fn stream_mut(&mut self) -> &mut S {
        self.stream.get_mut()
    }

    /// The stream of a client that has not yet been used.
    pub(crate) fn into_stream(self) -> S {
        self.stream.into_inner()
    }

    /// Receive the next reply in the client's wire: one text line run
    /// through [`parse_reply`], or one binary frame (reassembled across
    /// reads) run through [`decode_reply`].
    pub(crate) fn recv(&mut self) -> std::io::Result<Reply> {
        match self.wire {
            Wire::Text => {
                self.line.clear();
                if self.stream.read_line(&mut self.line)? == 0 {
                    return Err(closed());
                }
                parse_reply(&self.line).map_err(invalid)
            }
            Wire::Binary => loop {
                if !self.frame_buf.is_empty() {
                    match decode_reply(&self.frame_buf) {
                        Ok(Decoded::Frame { value, consumed }) => {
                            self.frame_buf.drain(..consumed);
                            return Ok(value);
                        }
                        Ok(Decoded::Incomplete) => {}
                        Err(e) => return Err(invalid(format!("corrupt reply frame: {e}"))),
                    }
                }
                let chunk = self.stream.fill_buf()?;
                if chunk.is_empty() {
                    return Err(closed());
                }
                let n = chunk.len();
                self.frame_buf.extend_from_slice(chunk);
                self.stream.consume(n);
            },
        }
    }

    /// One request/reply round trip.
    fn call(&mut self, command: &Command) -> std::io::Result<Reply> {
        self.out.clear();
        write_command(self.wire, command, &mut self.out);
        self.stream.get_mut().write_all(&self.out)?;
        self.recv()
    }

    /// `GET <clip>`: access the clip through its shard. A governor shed
    /// surfaces as the error [`is_busy_error`] recognizes; the
    /// connection stays usable — retry after a backoff, don't redial.
    pub fn get(&mut self, clip: ClipId) -> std::io::Result<GetOutcome> {
        get_outcome(self.call(&Command::Get(clip))?)
    }

    /// `GETRANGE <clip> <chunk>`: probe chunk residency without
    /// touching policy state. An out-of-range chunk surfaces as the
    /// server's `ERR`/`R_ERR`, never a stall.
    pub fn get_range(&mut self, clip: ClipId, chunk: u32) -> std::io::Result<RangeOutcome> {
        match self.call(&Command::GetRange(clip, chunk))? {
            Reply::Range(outcome) => Ok(outcome),
            other => Err(unexpected("GETRANGE", other)),
        }
    }

    /// Send a batch of `GET` requests in one write — the pipelined
    /// fast path. Collect exactly one [`recv_get`](Self::recv_get) per
    /// clip, in order (the server preserves per-connection order).
    pub fn send_gets(&mut self, clips: &[ClipId]) -> std::io::Result<()> {
        self.out.clear();
        for clip in clips {
            write_command(self.wire, &Command::Get(*clip), &mut self.out);
        }
        self.stream.get_mut().write_all(&self.out)
    }

    /// Receive the next pipelined `GET` reply.
    pub fn recv_get(&mut self) -> std::io::Result<GetOutcome> {
        get_outcome(self.recv()?)
    }

    /// `PEERGET <clip>`: a cluster peer-fill probe — the receiving node
    /// performs a full local access (admitting on a miss) and reports
    /// whether the clip was already resident there.
    pub fn peer_get(&mut self, clip: ClipId) -> std::io::Result<bool> {
        match self.call(&Command::PeerGet(clip))? {
            Reply::Peer(had) => Ok(had),
            other => Err(unexpected("PEERGET", other)),
        }
    }

    /// `VERSION` / `HELLO`: the server's wire and schema versions. The
    /// cluster handshake compares these against
    /// [`WireVersions::current`] and refuses skewed peers by name.
    pub fn version(&mut self) -> std::io::Result<WireVersions> {
        match self.call(&Command::Version)? {
            Reply::Version(versions) => Ok(versions),
            other => Err(unexpected("VERSION", other)),
        }
    }

    /// `STATS`: the server's merged hit statistics and recovery count.
    pub fn stats(&mut self) -> std::io::Result<ServerStats> {
        match self.call(&Command::Stats)? {
            Reply::Stats(stats) => Ok(stats),
            other => Err(unexpected("STATS", other)),
        }
    }

    /// `POISON <clip>`: inject a shard-poisoning fault (the server must
    /// be running with chaos enabled). Returns the poisoned shard.
    pub fn poison(&mut self, clip: ClipId) -> std::io::Result<usize> {
        match self.call(&Command::Poison(clip))? {
            Reply::Poisoned(shard) => Ok(shard as usize),
            other => Err(unexpected("POISON", other)),
        }
    }

    /// `SNAPSHOT`: the per-shard snapshot JSON array, verbatim.
    pub fn snapshot_json(&mut self) -> std::io::Result<String> {
        match self.call(&Command::Snapshot)? {
            Reply::Snapshot(json) => Ok(json),
            other => Err(unexpected("SNAPSHOT", other)),
        }
    }

    /// `QUIT`: close the session cleanly.
    pub fn quit(mut self) -> std::io::Result<()> {
        match self.call(&Command::Quit)? {
            Reply::Bye => Ok(()),
            other => Err(unexpected("QUIT", other)),
        }
    }
}

fn invalid(msg: String) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg)
}

fn closed() -> std::io::Error {
    std::io::Error::new(
        std::io::ErrorKind::UnexpectedEof,
        "server closed the connection",
    )
}

/// The error for a reply that does not answer `verb`: a governor `BUSY`
/// becomes the error [`is_busy_error`] recognizes, a server `ERR m`
/// becomes `InvalidData("ERR m")`, and any other kind is `InvalidData`
/// naming what arrived.
fn unexpected(verb: &str, reply: Reply) -> std::io::Error {
    match reply {
        Reply::Busy => std::io::Error::other(BUSY_ERROR),
        Reply::Err(msg) => invalid(format!("ERR {msg}")),
        other => invalid(format!("expected a {verb} reply, got {other:?}")),
    }
}

fn get_outcome(reply: Reply) -> std::io::Result<GetOutcome> {
    match reply {
        Reply::Get(outcome) => Ok(outcome),
        other => Err(unexpected("GET", other)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::ErrorKind;

    #[test]
    fn unexpected_maps_busy_err_and_wrong_kinds() {
        let busy = unexpected("GET", Reply::Busy);
        assert!(is_busy_error(&busy), "{busy}");

        let err = unexpected("STATS", Reply::Err("chunk 9 out of range".into()));
        assert_eq!(err.kind(), ErrorKind::InvalidData);
        assert!(!is_busy_error(&err));
        assert!(
            err.to_string().contains("ERR chunk 9 out of range"),
            "{err}"
        );

        for (verb, reply) in [
            (
                "STATS",
                Reply::Get(GetOutcome {
                    hit: true,
                    admitted: true,
                    evictions: 0,
                    peer: false,
                }),
            ),
            ("GET", Reply::Stats(ServerStats::default())),
            ("POISON", Reply::Bye),
            ("GETRANGE", Reply::Peer(true)),
            ("QUIT", Reply::Snapshot("[]".into())),
        ] {
            let err = unexpected(verb, reply);
            assert_eq!(err.kind(), ErrorKind::InvalidData, "{err}");
            assert!(!is_busy_error(&err));
            assert!(err.to_string().contains(verb), "{err}");
        }
    }
}
