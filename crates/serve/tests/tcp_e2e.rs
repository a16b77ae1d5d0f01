//! End-to-end tests over real loopback sockets: protocol round trips,
//! loadgen-over-TCP equivalence with the in-process path, concurrent
//! connections, graceful shutdown, and the ranged-GET exchange an
//! operator types against the `serve` binary.

mod support;

use clipcache_core::snapshot::CacheSnapshot;
use clipcache_core::PolicyKind;
use clipcache_media::{paper, ByteSize, ClipId, Repository};
use clipcache_serve::{
    run_load, serve_with, CacheService, ServerConfig, ServiceConfig, Target, TcpCacheClient, Wire,
    MAX_LINE_BYTES,
};
use clipcache_workload::{RequestGenerator, Trace};
use std::sync::Arc;
use std::time::Duration;

fn start_with(
    shards: usize,
    config: ServerConfig,
) -> (
    Arc<Repository>,
    Arc<CacheService>,
    clipcache_serve::ServerHandle,
) {
    let repo = Arc::new(paper::variable_sized_repository_of(24));
    let service = Arc::new(
        CacheService::new(
            Arc::clone(&repo),
            ServiceConfig::new(
                PolicyKind::Lru,
                shards,
                repo.cache_capacity_for_ratio(0.25),
                7,
            ),
            None,
        )
        .unwrap(),
    );
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

#[test]
fn protocol_round_trips_over_tcp() {
    let (_repo, service, handle) = start(2);
    let mut client = TcpCacheClient::connect(handle.addr()).unwrap();

    let miss = client.get(ClipId::new(3)).unwrap();
    assert!(!miss.hit && miss.admitted);
    let hit = client.get(ClipId::new(3)).unwrap();
    assert!(hit.hit);

    let stats = client.stats().unwrap();
    assert_eq!(stats.stats.hits, 1);
    assert_eq!(stats.stats.misses, 1);
    assert_eq!(stats.stats, service.stats());
    assert_eq!(stats.recoveries, 0);

    // SNAPSHOT is a JSON array with one parseable snapshot per shard.
    let json = client.snapshot_json().unwrap();
    assert!(json.starts_with('[') && json.ends_with(']'));
    let inner = &json[1..json.len() - 1];
    let parts: Vec<&str> = inner.split("},{").collect();
    assert_eq!(parts.len(), 2);
    let first = format!("{}{}", parts[0], if parts.len() > 1 { "}" } else { "" });
    let snap = CacheSnapshot::from_json(&first).expect("snapshot JSON parses");
    assert_eq!(snap.policy, PolicyKind::Lru.into());

    client.quit().unwrap();
    handle.shutdown();
}

#[test]
fn malformed_requests_get_err_replies() {
    use std::io::{BufRead, BufReader, Write};
    let (_repo, _service, handle) = start(1);
    let stream = std::net::TcpStream::connect(handle.addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;

    let mut ask = |line: &str| {
        writer.write_all(line.as_bytes()).unwrap();
        writer.write_all(b"\n").unwrap();
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        reply.trim_end().to_string()
    };
    assert!(ask("FROB 1").starts_with("ERR "));
    assert!(ask("GET abc").starts_with("ERR "));
    // Unknown clip: the repository has 24 clips.
    assert!(ask("GET 999").starts_with("ERR "));
    // The connection survives errors.
    assert_eq!(ask("GET 1"), "MISS 1 0");
    assert_eq!(ask("QUIT"), "BYE");
    handle.shutdown();
}

#[test]
fn tcp_loadgen_matches_in_process_counters() {
    let (repo, service, handle) = start(4);
    let trace = Trace::from_generator(RequestGenerator::new(24, 0.27, 0, 1_000, 5));
    let report =
        run_load(&Target::Tcp(handle.addr().to_string()), &repo, &trace, 1).expect("tcp load");
    // One client: a deterministic request order, so the server's state
    // equals an in-process replay of the same trace.
    assert_eq!(report.observed, service.stats());
    assert_eq!(report.observed.requests(), 1_000);
    assert_eq!(report.latency.count(), 1_000);

    let repo2 = Arc::new(paper::variable_sized_repository_of(24));
    let service2 = Arc::new(
        CacheService::new(
            Arc::clone(&repo2),
            ServiceConfig::new(PolicyKind::Lru, 4, repo2.cache_capacity_for_ratio(0.25), 7),
            None,
        )
        .unwrap(),
    );
    let inproc = run_load(&Target::InProcess(Arc::clone(&service2)), &repo2, &trace, 1).unwrap();
    assert_eq!(report.observed, inproc.observed);
    handle.shutdown();
}

#[test]
fn concurrent_tcp_clients_conserve_requests() {
    let (repo, service, handle) = start(4);
    let trace = Trace::from_generator(RequestGenerator::new(24, 0.27, 0, 2_000, 11));
    let report =
        run_load(&Target::Tcp(handle.addr().to_string()), &repo, &trace, 4).expect("tcp load");
    assert_eq!(report.observed.requests(), 2_000);
    assert_eq!(report.observed, service.stats());
    handle.shutdown();
}

#[test]
fn ranged_get_round_trips_on_both_wires() {
    // A chunked single-shard server: GETRANGE must report the resident
    // prefix after a GET, answer out-of-range chunks with a structured
    // error on a surviving connection, and never touch the hit counters
    // (the probe is pure).
    let repo = Arc::new(paper::variable_sized_repository_of(24).with_chunk_size(ByteSize::mb(4)));
    let service = Arc::new(
        CacheService::new(
            Arc::clone(&repo),
            ServiceConfig::new(PolicyKind::Lru, 1, repo.total_size(), 7),
            None,
        )
        .unwrap(),
    );
    let handle =
        serve_with(Arc::clone(&service), "127.0.0.1:0", ServerConfig::default()).expect("bind");
    for (wire, clip) in [(Wire::Text, ClipId::new(3)), (Wire::Binary, ClipId::new(4))] {
        let total = repo.chunks_of(clip);
        assert!(total > 1, "test clip must span several chunks");
        let mut client = TcpCacheClient::connect_wire(handle.addr(), None, wire).unwrap();
        // Absent clip: a valid probe misses with zero resident chunks.
        let probe = client.get_range(clip, 0).unwrap();
        assert!(!probe.hit, "{wire:?}: clip not admitted yet");
        assert_eq!(probe.total, total);

        let before = client.stats().unwrap().stats;
        // Out-of-range chunk: loud structured error, connection survives.
        let err = client.get_range(clip, total).unwrap_err();
        assert!(
            err.to_string().contains("chunk"),
            "{wire:?}: error names the chunk: {err}"
        );
        // Unknown clip: same loud error shape, same surviving socket.
        assert!(client.get_range(ClipId::new(999), 0).is_err());
        // Probes (valid and refused alike) never moved the counters.
        assert_eq!(
            client.stats().unwrap().stats,
            before,
            "{wire:?}: probe not pure"
        );

        // Admit the clip (capacity == repo size, nothing evicts), then
        // every chunk of it must probe resident on this same socket.
        client.get(clip).unwrap();
        let after = client.get_range(clip, total - 1).unwrap();
        assert!(after.hit, "{wire:?}: tail chunk resident after full GET");
        assert_eq!(after.resident, total);
        assert_eq!(after.total, total);
        client.quit().unwrap();
    }
    handle.shutdown();
}

#[test]
fn admission_gate_refuses_excess_connections_with_structured_err() {
    use std::io::{BufRead, BufReader};
    let (_repo, _service, handle) = start_with(
        1,
        ServerConfig {
            max_conns: Some(1),
            ..ServerConfig::default()
        },
    );
    let mut first = TcpCacheClient::connect(handle.addr()).unwrap();
    assert!(!first.get(ClipId::new(1)).unwrap().hit);
    // The gate counts live connections, so the second arrival while the
    // first is parked gets a refusal line and a close, not a hang.
    let refused = std::net::TcpStream::connect(handle.addr()).unwrap();
    let mut reader = BufReader::new(refused);
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert_eq!(line.trim_end(), "ERR server busy");
    let mut eof = String::new();
    assert_eq!(
        reader.read_line(&mut eof).unwrap(),
        0,
        "refused conn is closed"
    );
    // Capacity frees once the first client leaves.
    first.quit().unwrap();
    let mut retry = None;
    for _ in 0..50 {
        match TcpCacheClient::connect(handle.addr()).and_then(|mut c| c.get(ClipId::new(1))) {
            Ok(outcome) => {
                retry = Some(outcome);
                break;
            }
            Err(_) => std::thread::sleep(Duration::from_millis(20)),
        }
    }
    assert!(retry.expect("slot frees after quit").hit);
    handle.shutdown();
}

#[test]
fn idle_connections_are_reclaimed_with_err_idle_timeout() {
    use std::io::{BufRead, BufReader};
    let (_repo, _service, handle) = start_with(
        1,
        ServerConfig {
            read_timeout: Some(Duration::from_millis(200)),
            ..ServerConfig::default()
        },
    );
    let stream = std::net::TcpStream::connect(handle.addr()).unwrap();
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    // Send nothing; the server must evict us with a structured reply.
    reader.read_line(&mut line).unwrap();
    assert_eq!(line.trim_end(), "ERR idle timeout");
    handle.shutdown();
}

#[test]
fn oversized_request_lines_are_refused() {
    use std::io::{BufRead, BufReader, Write};
    let (_repo, _service, handle) = start(1);
    let mut stream = std::net::TcpStream::connect(handle.addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    // A newline-less flood past the cap: the server answers ERR and
    // closes instead of buffering forever.
    let flood = vec![b'G'; MAX_LINE_BYTES + 4096];
    stream.write_all(&flood).unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert_eq!(line.trim_end(), "ERR request line too long");
    handle.shutdown();
}

#[test]
fn poison_is_refused_without_chaos_and_honored_with_it() {
    // Production default: POISON is refused with a structured ERR.
    let (_repo, service, handle) = start(2);
    let mut client = TcpCacheClient::connect(handle.addr()).unwrap();
    assert!(client.poison(ClipId::new(1)).is_err());
    // The refusal is an ERR reply, not a dead connection.
    assert!(!client.get(ClipId::new(1)).unwrap().hit);
    assert_eq!(service.recoveries(), 0);
    client.quit().unwrap();
    handle.shutdown();

    // Chaos server: POISON poisons the clip's shard; the next access
    // recovers it and STATS reports the recovery.
    let (_repo, service, handle) = start_with(
        2,
        ServerConfig {
            chaos: true,
            ..ServerConfig::default()
        },
    );
    let mut client = TcpCacheClient::connect(handle.addr()).unwrap();
    assert!(!client.get(ClipId::new(1)).unwrap().hit);
    let shard = client.poison(ClipId::new(1)).unwrap();
    assert!(shard < 2);
    assert!(client.get(ClipId::new(1)).is_ok(), "shard recovered");
    let stats = client.stats().unwrap();
    assert_eq!(stats.recoveries, 1);
    assert_eq!(service.recoveries(), 1);
    client.quit().unwrap();
    handle.shutdown();
}

#[test]
fn shutdown_is_graceful_and_idempotent_per_handle() {
    let (_repo, _service, handle) = start(1);
    let addr = handle.addr();
    let mut client = TcpCacheClient::connect(addr).unwrap();
    assert!(!client.get(ClipId::new(2)).unwrap().hit);
    client.quit().unwrap();
    handle.shutdown();
    // The port no longer accepts new work once shutdown returns.
    let refused = TcpCacheClient::connect(addr).and_then(|mut c| c.get(ClipId::new(1)));
    assert!(refused.is_err(), "server still serving after shutdown");
}

/// `STATS` after the ranged-GET exchange, where `#` stands for the
/// `byte_misses` count (one or more digits): the twelve keys in wire
/// order, and the probes moved no counter.
const RANGED_STATS: &str = "STATS hits=0 misses=1 prefix_hits=0 byte_hits=0 byte_misses=# \
     evictions=0 recoveries=0 wal_replayed=0 peer_hits=0 handoff_replayed=0 breaker_open=0 shed=0";

#[test]
fn ranged_get_exchange_against_the_serve_binary() {
    use std::io::{BufRead, BufReader, Write};
    let server = support::spawn_serve(
        &[
            "--addr",
            "127.0.0.1:0",
            "--shards",
            "1",
            "--chunk-size",
            "4",
        ],
        None,
    );
    let stream = std::net::TcpStream::connect(&server.addr).expect("serve accepts");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    // Admit clip 3, then probe its head chunk: the GETRANGE reply must be
    // RHIT. An out-of-range chunk is a loud ERR on a connection that
    // keeps serving.
    (&stream)
        .write_all(b"GET 3\nGETRANGE 3 0\nGETRANGE 3 999999\nGETRANGE 3 0\nSTATS\nVERSION\nQUIT\n")
        .unwrap();
    let mut lines = BufReader::new(&stream).lines();
    let mut next = || lines.next().expect("a reply line").expect("readable");
    let got = next();
    assert!(got.starts_with("MISS "), "{got}");
    let probe = next();
    assert!(probe.starts_with("RHIT "), "{probe}");
    let range_err = next();
    assert!(
        range_err.starts_with("ERR ") && range_err.contains("chunk"),
        "{range_err}"
    );
    let again = next();
    assert!(again.starts_with("RHIT "), "{again}");
    let stats = next();
    let (head, tail) = RANGED_STATS.split_once('#').unwrap();
    let digits = stats
        .strip_prefix(head)
        .and_then(|rest| rest.strip_suffix(tail))
        .unwrap_or_else(|| panic!("{stats}"));
    assert!(
        !digits.is_empty() && digits.bytes().all(|b| b.is_ascii_digit()),
        "{stats}"
    );
    let version = next();
    assert!(version.starts_with("VERSION proto=4 "), "{version}");
    assert_eq!(next(), "BYE");
    server.quit();
}
