//! End-to-end tests of the epoll front-end's new powers: the binary
//! wire, request pipelining, per-message protocol auto-detect (mixed
//! text+binary sessions on one connection), mid-pipeline corruption
//! resync, and graceful shutdown that answers in-flight pipelined
//! requests instead of dropping them.
//!
//! The read rules get their own tests: a short read ends a drain, a
//! full read does not, a hang-up reads on to EOF, and a connection that
//! stopped reading at the soft cap still answers every GET once and in
//! order. Each compares the raw reply bytes with an in-process replay
//! of the same GETs. The re-read after a pause is invisible end to end
//! (epoll reports `EPOLLIN` with any later wakeup); the server's unit
//! tests drive the loop by hand to pin it.
//!
//! The anchor discipline carries over from `tcp_e2e.rs`: a 1-shard,
//! 1-client run over the binary pipelined path must stay bit-for-bit
//! on the serial simulator — pipelining changes timing, never results.

use clipcache_core::PolicyKind;
use clipcache_media::{paper, ClipId, Repository};
use clipcache_serve::protocol::{
    corrupt_length_get_frame, decode_reply, encode_command, encode_reply, Command, Decoded, Reply,
};
use clipcache_serve::{
    run_load_with, serial_baseline, serve_with, CacheService, GovernorConfig, LoadOptions,
    ServerConfig, ServiceConfig, Target, TcpCacheClient, Wire,
};
use clipcache_workload::{RequestGenerator, Trace};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn service_of(repo: &Arc<Repository>, shards: usize) -> CacheService {
    CacheService::new(
        Arc::clone(repo),
        ServiceConfig::new(
            PolicyKind::Lru,
            shards,
            repo.cache_capacity_for_ratio(0.25),
            7,
        ),
        None,
    )
    .unwrap()
}

fn start_with(
    shards: usize,
    config: ServerConfig,
) -> (
    Arc<Repository>,
    Arc<CacheService>,
    clipcache_serve::ServerHandle,
) {
    let repo = Arc::new(paper::variable_sized_repository_of(24));
    let service = Arc::new(service_of(&repo, shards));
    let handle = serve_with(Arc::clone(&service), "127.0.0.1:0", config).expect("bind loopback");
    (repo, service, handle)
}

fn start(
    shards: usize,
) -> (
    Arc<Repository>,
    Arc<CacheService>,
    clipcache_serve::ServerHandle,
) {
    start_with(shards, ServerConfig::default())
}

fn trace_of(requests: u64) -> Trace {
    Trace::from_generator(RequestGenerator::new(24, 0.27, 0, requests, 11))
}

/// A one-shard server whose governor never sheds or skips a peer
/// fill, so every GET reply is the in-process replay's whatever the
/// pending reply bytes.
fn start_unshed() -> (
    Arc<Repository>,
    Arc<CacheService>,
    clipcache_serve::ServerHandle,
) {
    start_with(
        1,
        ServerConfig {
            governor: GovernorConfig {
                conn_local_only: usize::MAX,
                conn_shed: usize::MAX,
                global_local_only: usize::MAX,
                global_shed: usize::MAX,
            },
            ..ServerConfig::default()
        },
    )
}

fn clips_of(requests: u64) -> Vec<ClipId> {
    trace_of(requests).iter().map(|r| r.clip).collect()
}

/// One binary GET frame per clip, back to back.
fn binary_gets(clips: &[ClipId]) -> Vec<u8> {
    let mut out = Vec::with_capacity(clips.len() * 11);
    for clip in clips {
        encode_command(&Command::Get(*clip), &mut out);
    }
    out
}

/// The reply bytes a fresh one-shard service gives `clips` in order,
/// each outcome encoded as a binary GET reply.
fn replayed_replies(repo: &Arc<Repository>, clips: &[ClipId]) -> Vec<u8> {
    let service = service_of(repo, 1);
    let mut out = Vec::new();
    for clip in clips {
        encode_reply(&Reply::Get(service.get(*clip).unwrap()), &mut out);
    }
    out
}

/// Connect with a read timeout, so a reply the server never sends fails
/// the test instead of hanging it.
fn connect_raw(handle: &clipcache_serve::ServerHandle) -> TcpStream {
    let stream = TcpStream::connect(handle.addr()).unwrap();
    stream.set_nodelay(true).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    stream
}

/// Read exactly `expected.len()` reply bytes and compare them with
/// `expected`, naming the first differing reply.
fn expect_replies(stream: &mut TcpStream, expected: &[u8], what: &str) {
    let mut got = vec![0u8; expected.len()];
    stream
        .read_exact(&mut got)
        .unwrap_or_else(|e| panic!("{what}: replies missing ({e})"));
    if let Some(at) = got.iter().zip(expected).position(|(a, b)| a != b) {
        panic!("{what}: reply bytes differ from the replay at byte {at}");
    }
}

/// End the session with a binary QUIT: the next reply must be its BYE
/// and then EOF, so no reply was sent twice.
fn expect_bye_then_eof(stream: &mut TcpStream) {
    let mut quit = Vec::new();
    encode_command(&Command::Quit, &mut quit);
    stream.write_all(&quit).unwrap();
    let mut rest = Vec::new();
    stream.read_to_end(&mut rest).unwrap();
    let mut bye = Vec::new();
    encode_reply(&Reply::Bye, &mut bye);
    assert_eq!(rest, bye, "after the last reply: exactly one BYE, then EOF");
}

/// Read exactly one binary reply frame from a raw stream.
fn read_frame(stream: &mut impl Read) -> Reply {
    let mut buf = Vec::new();
    let mut byte = [0u8; 1];
    loop {
        match decode_reply(&buf) {
            Ok(Decoded::Frame { value, consumed }) => {
                assert_eq!(consumed, buf.len(), "frame over-read");
                return value;
            }
            Ok(Decoded::Incomplete) | Err(_) if buf.is_empty() => {}
            Ok(Decoded::Incomplete) => {}
            Err(e) => panic!("corrupt reply frame: {e:?}"),
        }
        stream.read_exact(&mut byte).expect("reply frame bytes");
        buf.push(byte[0]);
    }
}

#[test]
fn pipelined_binary_run_stays_on_the_serial_anchor() {
    // The headline invariant: 1 shard + 1 client over the binary
    // pipelined wire == the serial simulator, bit for bit, at any
    // depth — the server preserves per-connection order.
    let (repo, service, handle) = start(1);
    let trace = trace_of(3_000);
    let baseline = serial_baseline(
        &repo,
        PolicyKind::Lru.into(),
        repo.cache_capacity_for_ratio(0.25),
        7,
        &trace,
    );
    let report = run_load_with(
        &Target::Tcp(handle.addr().to_string()),
        &repo,
        &trace,
        &LoadOptions {
            wire: Wire::Binary,
            pipeline: 32,
            ..LoadOptions::default()
        },
    )
    .unwrap();
    assert_eq!(report.observed, baseline);
    assert_eq!(service.stats(), baseline);
    assert_eq!(report.latency.count(), 3_000);
    handle.shutdown();
}

#[test]
fn pipelined_binary_multi_connection_conserves_requests() {
    let (repo, service, handle) = start(4);
    let trace = trace_of(4_000);
    let report = run_load_with(
        &Target::Tcp(handle.addr().to_string()),
        &repo,
        &trace,
        &LoadOptions {
            clients: 4,
            wire: Wire::Binary,
            pipeline: 8,
            ..LoadOptions::default()
        },
    )
    .unwrap();
    // Every request issued exactly once and recorded exactly once,
    // client- and server-side agreeing, whatever the interleaving.
    assert_eq!(report.observed.requests(), 4_000);
    assert_eq!(report.observed, service.stats());
    assert!(report.conserved());
    handle.shutdown();
}

#[test]
fn mixed_text_and_binary_session_on_one_connection() {
    // Protocol auto-detect is per message: one connection interleaves
    // text lines and binary frames freely, and every reply arrives in
    // the protocol of its request.
    let (_repo, service, handle) = start(2);
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    stream.set_nodelay(true).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut line = String::new();

    // Text GET.
    stream.write_all(b"GET 5\n").unwrap();
    reader.read_line(&mut line).unwrap();
    assert_eq!(line.trim_end(), "MISS 1 0", "text miss reply");

    // Binary GET of the same clip: now a hit, as a frame.
    let mut frame = Vec::new();
    encode_command(&Command::Get(ClipId::new(5)), &mut frame);
    stream.write_all(&frame).unwrap();
    match read_frame(&mut reader) {
        Reply::Get(outcome) => assert!(outcome.hit && outcome.admitted),
        other => panic!("expected a GET reply frame, got {other:?}"),
    }

    // Text STATS, then binary STATS — identical numbers.
    line.clear();
    stream.write_all(b"STATS\n").unwrap();
    reader.read_line(&mut line).unwrap();
    assert!(line.starts_with("STATS hits=1 misses=1"), "got {line:?}");
    let mut frame = Vec::new();
    encode_command(&Command::Stats, &mut frame);
    stream.write_all(&frame).unwrap();
    match read_frame(&mut reader) {
        Reply::Stats(stats) => {
            assert_eq!(stats.stats.hits, 1);
            assert_eq!(stats.stats.misses, 1);
            assert_eq!(stats.stats, service.stats());
        }
        other => panic!("expected a STATS reply frame, got {other:?}"),
    }

    // A batched mixed pipeline in ONE write: text, binary, text.
    let mut batch = b"GET 5\n".to_vec();
    encode_command(&Command::Get(ClipId::new(5)), &mut batch);
    batch.extend_from_slice(b"GET 5\n");
    stream.write_all(&batch).unwrap();
    line.clear();
    reader.read_line(&mut line).unwrap();
    assert_eq!(line.trim_end(), "HIT 0");
    assert!(matches!(read_frame(&mut reader), Reply::Get(o) if o.hit));
    line.clear();
    reader.read_line(&mut line).unwrap();
    assert_eq!(line.trim_end(), "HIT 0");

    // Binary QUIT ends the session with a BYE frame.
    let mut frame = Vec::new();
    encode_command(&Command::Quit, &mut frame);
    stream.write_all(&frame).unwrap();
    assert!(matches!(read_frame(&mut reader), Reply::Bye));
    handle.shutdown();
}

#[test]
fn corrupt_frame_mid_pipeline_resyncs_deterministically() {
    // [valid GET | corrupt-length garbage | valid GET] in one write:
    // the server answers reply, ERR, reply — the garbage consumes
    // exactly its header, the queued frame behind it survives.
    let (_repo, _service, handle) = start(2);
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    stream.set_nodelay(true).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());

    let mut batch = Vec::new();
    encode_command(&Command::Get(ClipId::new(9)), &mut batch);
    batch.extend_from_slice(&corrupt_length_get_frame());
    encode_command(&Command::Get(ClipId::new(9)), &mut batch);
    stream.write_all(&batch).unwrap();

    assert!(matches!(read_frame(&mut reader), Reply::Get(o) if !o.hit));
    match read_frame(&mut reader) {
        Reply::Err(msg) => assert!(msg.contains("corrupt frame length"), "got {msg:?}"),
        other => panic!("expected ERR for the garbage, got {other:?}"),
    }
    assert!(matches!(read_frame(&mut reader), Reply::Get(o) if o.hit));

    // And the connection is still fully alive for a clean client op.
    let mut client = TcpCacheClient::connect_wire(handle.addr(), None, Wire::Binary).unwrap();
    assert!(client.get(ClipId::new(9)).unwrap().hit);
    client.quit().unwrap();
    handle.shutdown();
}

#[test]
fn graceful_shutdown_answers_in_flight_pipelined_requests() {
    // A window of pipelined requests is on the wire when shutdown is
    // called; the drain must execute and answer every one of them
    // before closing — pipelining must not turn shutdown into loss.
    let (_repo, service, handle) = start(2);
    let mut client = TcpCacheClient::connect_wire(handle.addr(), None, Wire::Binary).unwrap();
    let clips: Vec<ClipId> = (1..=16).map(ClipId::new).collect();
    client.send_gets(&clips).unwrap();
    // Let the batch land in the server's socket buffer, then shut down
    // with the replies (possibly) still unclaimed.
    std::thread::sleep(Duration::from_millis(100));
    handle.shutdown();

    for _ in &clips {
        client.recv_get().expect("every in-flight request answered");
    }
    assert_eq!(service.stats().requests(), 16);
    // After the answered window the server closes: the next read is EOF.
    assert!(client.recv_get().is_err());
}

#[test]
fn shutdown_wakes_immediately_even_with_a_full_backlog() {
    // The retired self-connect wakeup hung when the listener backlog
    // was full; the pipe wakeup must not. Saturate the accept queue
    // with unaccepted connections beyond the gate, then shut down.
    let (_repo, _service, handle) = start_with(
        1,
        ServerConfig {
            max_conns: Some(1),
            ..ServerConfig::default()
        },
    );
    let mut parked = TcpCacheClient::connect(handle.addr()).unwrap();
    parked.get(ClipId::new(1)).unwrap();
    // These connections are refused by the admission gate as they are
    // accepted, plus a few the loop may not have reached yet.
    let backlog: Vec<TcpStream> = (0..32)
        .filter_map(|_| TcpStream::connect(handle.addr()).ok())
        .collect();
    let started = std::time::Instant::now();
    handle.shutdown();
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "shutdown hung {:?} with a saturated backlog",
        started.elapsed()
    );
    drop(backlog);
}

/// Poll the server's request count until it stops moving for 200 ms;
/// return where it stopped.
fn served_when_still(service: &CacheService) -> u64 {
    let deadline = Instant::now() + Duration::from_secs(120);
    let mut served = service.stats().requests();
    loop {
        std::thread::sleep(Duration::from_millis(200));
        let now = service.stats().requests();
        if now == served || Instant::now() > deadline {
            return now;
        }
        served = now;
    }
}

#[test]
fn backpressure_at_the_soft_cap_keeps_every_reply_once_and_in_order() {
    // More than 4 MiB of GETs pipelined while nothing is read: the
    // server stops reading at the soft cap, and once the client drains
    // replies it reads on. This checks that every reply under
    // backpressure arrives exactly once and in order. It does not pin
    // the re-read after a pause: over a real loop a missed re-read
    // still resumes at the next wakeup, since epoll reports `EPOLLIN`
    // with it. `server::tests::a_write_edge_that_releases_the_cap_reads_again`
    // covers that rule.
    let (repo, service, handle) = start_unshed();
    let clips = clips_of(1 << 20);
    let window = binary_gets(&clips);
    assert!(window.len() > 4 << 20, "the window must pass the soft cap");
    let expected = replayed_replies(&repo, &clips);

    let mut stream = connect_raw(&handle);
    let mut writer = stream.try_clone().unwrap();
    let sender = std::thread::spawn(move || writer.write_all(&window));
    let stalled = served_when_still(&service);
    assert!(
        stalled < clips.len() as u64,
        "the server answered all {stalled} GETs unread: backpressure never engaged"
    );

    // Read 2 MiB of replies: the server's own reply buffer drops under
    // the cap but stays far from empty, and it must resume reading.
    let (head, tail) = expected.split_at(2 << 20);
    expect_replies(&mut stream, head, "first 2 MiB of replies");
    let deadline = Instant::now() + Duration::from_secs(10);
    while service.stats().requests() == stalled {
        assert!(
            Instant::now() < deadline,
            "reading stayed stopped at {stalled} GETs after the client drained 2 MiB"
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    expect_replies(&mut stream, tail, "rest of the backpressured window");
    sender.join().unwrap().expect("the whole window was sent");
    expect_bye_then_eof(&mut stream);
    assert_eq!(service.stats().requests(), clips.len() as u64);
    handle.shutdown();
}

#[test]
fn large_and_torn_windows_get_the_replayed_replies() {
    let (repo, _service, handle) = start_unshed();
    let clips = clips_of(30_500);
    let (large, torn) = clips.split_at(30_000);
    let expected = replayed_replies(&repo, &clips);
    let (large_replies, torn_replies) = expected.split_at(large.len() * 16);
    let mut stream = connect_raw(&handle);

    // One write of about 330 KB, its replies read as they come: reads
    // that fill the server's read buffer must not end the drain.
    let window = binary_gets(large);
    assert!(window.len() > 64 * 1024);
    let mut writer = stream.try_clone().unwrap();
    let sender = std::thread::spawn(move || writer.write_all(&window));
    expect_replies(&mut stream, large_replies, "large window");
    sender.join().unwrap().expect("the large window was sent");

    // The same wire torn into odd-sized fragments, with pauses, so
    // frames split across reads and edges.
    let window = binary_gets(torn);
    let mut at = 0;
    for (i, size) in [1, 3, 5, 7, 11, 13, 17, 29].iter().cycle().enumerate() {
        if at == window.len() {
            break;
        }
        let end = (at + size).min(window.len());
        stream.write_all(&window[at..end]).unwrap();
        at = end;
        if i % 16 == 0 {
            std::thread::sleep(Duration::from_millis(2));
        }
    }
    expect_replies(&mut stream, torn_replies, "torn window");
    expect_bye_then_eof(&mut stream);
    handle.shutdown();
}

#[test]
fn half_close_after_a_final_window_gets_every_reply_then_eof() {
    // The window and the FIN may share one readiness event: the server
    // must answer the window and then close, not wait for another edge.
    let (repo, _service, handle) = start_unshed();
    let clips = clips_of(64);
    let expected = replayed_replies(&repo, &clips);
    let mut stream = connect_raw(&handle);
    stream.write_all(&binary_gets(&clips)).unwrap();
    stream.shutdown(Shutdown::Write).unwrap();
    let mut got = Vec::new();
    stream.read_to_end(&mut got).expect("replies, then EOF");
    assert!(
        got == expected,
        "half-closed window: replies differ from the replay"
    );
    handle.shutdown();
}
