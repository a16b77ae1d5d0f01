//! The correctness anchor: a 1-shard, 1-client service run must
//! reproduce the serial simulator's statistics **bit for bit**, for
//! every online policy the registry spells; multi-shard runs must stay
//! deterministic and land within a documented tolerance of serial. The
//! real `loadgen` and `serve` binaries hold the same anchor, in process
//! and over TCP.

use clipcache_core::registry::SPELLING_EXAMPLES;
use clipcache_core::PolicySpec;
use clipcache_media::{paper, ByteSize, Repository};
use clipcache_serve::{
    run_load, serial_baseline, serve_with, CacheService, ServerConfig, ServiceConfig, Target,
};
use clipcache_sim::metrics::HitStats;
use clipcache_workload::{RequestGenerator, Trace};
use std::sync::Arc;

mod support;

use support::{loadgen, spawn_serve};

const SEED: u64 = 0x5EED_2007;

fn load(policy: PolicySpec, shards: usize, clients: usize, trace: &Trace) -> (HitStats, HitStats) {
    let repo = Arc::new(paper::variable_sized_repository_of(48));
    let service = Arc::new(
        CacheService::new(
            Arc::clone(&repo),
            ServiceConfig::new(policy, shards, repo.cache_capacity_for_ratio(0.25), SEED),
            None,
        )
        .expect("policy builds"),
    );
    let report = run_load(
        &Target::InProcess(Arc::clone(&service)),
        &repo,
        trace,
        clients,
    )
    .expect("in-process load cannot fail");
    (report.observed, service.stats())
}

fn baseline(policy: PolicySpec, trace: &Trace) -> HitStats {
    let repo = Arc::new(paper::variable_sized_repository_of(48));
    serial_baseline(
        &repo,
        policy,
        repo.cache_capacity_for_ratio(0.25),
        SEED,
        trace,
    )
}

#[test]
fn one_shard_one_client_is_bit_for_bit_serial() {
    let trace = Trace::from_generator(RequestGenerator::new(48, 0.27, 0, 3_000, SEED));
    // Every online policy the registry spells, the paper's LRU-SK, IGD
    // and DYNSimple among them; the offline ones need the whole trace
    // up front, which a served shard never sees.
    let policies: Vec<PolicySpec> = SPELLING_EXAMPLES
        .iter()
        .map(|s| s.parse::<PolicySpec>().expect("valid spelling"))
        .filter(|policy| !policy.kind.is_offline())
        .collect();
    for policy in policies {
        let (observed, server_side) = load(policy, 1, 1, &trace);
        let serial = baseline(policy, &trace);
        assert_eq!(
            observed,
            serial,
            "policy {} diverged from the serial simulator",
            policy.spelling()
        );
        assert_eq!(server_side, serial);
    }
}

/// 1-shard 1-client load against `repo`, both in-process and over a
/// real TCP socket; returns (observed, server-side) for each transport.
fn load_on(repo: &Arc<Repository>, policy: PolicySpec, trace: &Trace, tcp: bool) -> [HitStats; 2] {
    let service = Arc::new(
        CacheService::new(
            Arc::clone(repo),
            ServiceConfig::new(policy, 1, repo.cache_capacity_for_ratio(0.25), SEED),
            None,
        )
        .expect("policy builds"),
    );
    let target = if tcp {
        let handle = serve_with(Arc::clone(&service), "127.0.0.1:0", ServerConfig::default())
            .expect("bind loopback");
        let report =
            run_load(&Target::Tcp(handle.addr().to_string()), repo, trace, 1).expect("tcp load");
        handle.shutdown();
        return [report.observed, service.stats()];
    } else {
        Target::InProcess(Arc::clone(&service))
    };
    let report = run_load(&target, repo, trace, 1).expect("in-process load");
    [report.observed, service.stats()]
}

#[test]
fn chunk_size_above_every_clip_is_bit_for_bit_whole_clip() {
    // The degenerate-chunking anchor: with the chunk size at least as
    // large as every clip, every clip is one chunk, nothing can trim,
    // and the chunked build must reproduce the whole-clip anchor bit
    // for bit — serial, in-process service, and a real TCP run alike.
    let trace = Trace::from_generator(RequestGenerator::new(48, 0.27, 0, 3_000, SEED));
    let plain = Arc::new(paper::variable_sized_repository_of(48));
    let chunked =
        Arc::new(paper::variable_sized_repository_of(48).with_chunk_size(ByteSize::gb(100)));
    let capacity = plain.cache_capacity_for_ratio(0.25);
    for spec in [
        "lru",
        "lru@heap",
        "fifo",
        "lfu",
        "lru-2",
        "size",
        "dynsimple:2",
    ] {
        let policy: PolicySpec = spec.parse().unwrap();
        let anchor = serial_baseline(&plain, policy, capacity, SEED, &trace);
        let serial = serial_baseline(&chunked, policy, capacity, SEED, &trace);
        assert_eq!(serial, anchor, "{spec}: serial chunked diverged");
        assert_eq!(
            serial.prefix_hits, 0,
            "{spec}: degenerate chunks can't split"
        );
        let [observed, server_side] = load_on(&chunked, policy, &trace, false);
        assert_eq!(observed, anchor, "{spec}: in-process chunked diverged");
        assert_eq!(server_side, anchor);
    }
    // The same anchor over a real socket (1 shard, 1 client, TCP).
    let policy: PolicySpec = "lru".parse().unwrap();
    let anchor = serial_baseline(&plain, policy, capacity, SEED, &trace);
    let [observed, server_side] = load_on(&chunked, policy, &trace, true);
    assert_eq!(observed, anchor, "tcp chunked run diverged from the anchor");
    assert_eq!(server_side, anchor);
}

#[test]
fn chunked_one_shard_service_matches_serial_on_the_same_repo() {
    // Real chunking: trims happen, prefix hits split bytes. The 1-shard
    // service must still be the serial simulator bit for bit — the
    // comparand is the server-side stats (the GET wire reports
    // whole-clip outcomes, so the client cannot see the byte split, but
    // its event-level counters must agree).
    let trace = Trace::from_generator(RequestGenerator::new(48, 0.27, 0, 3_000, SEED));
    let repo = Arc::new(paper::variable_sized_repository_of(48).with_chunk_size(ByteSize::mb(4)));
    let capacity = repo.cache_capacity_for_ratio(0.25);
    let mut saw_prefix_hits = false;
    for spec in ["lru", "lru@heap", "fifo", "lfu", "lru-2", "size"] {
        let policy: PolicySpec = spec.parse().unwrap();
        let serial = serial_baseline(&repo, policy, capacity, SEED, &trace);
        saw_prefix_hits |= serial.prefix_hits > 0;
        for tcp in [false, true] {
            let [observed, server_side] = load_on(&repo, policy, &trace, tcp);
            assert_eq!(
                server_side, serial,
                "{spec} (tcp={tcp}) diverged from serial"
            );
            assert_eq!(observed.hits, serial.hits, "{spec} (tcp={tcp})");
            assert_eq!(observed.misses, serial.misses, "{spec} (tcp={tcp})");
            assert_eq!(observed.evictions, serial.evictions, "{spec} (tcp={tcp})");
        }
    }
    assert!(
        saw_prefix_hits,
        "4 MB chunks under pressure must produce at least one prefix hit"
    );
}

#[test]
fn multi_shard_single_client_is_deterministic() {
    let trace = Trace::from_generator(RequestGenerator::new(48, 0.27, 0, 3_000, SEED));
    for shards in [2usize, 4, 8] {
        let policy: PolicySpec = "lru".parse().unwrap();
        let (first, _) = load(policy, shards, 1, &trace);
        let (second, _) = load(policy, shards, 1, &trace);
        assert_eq!(first, second, "shards={shards} run not deterministic");
    }
}

#[test]
fn multi_shard_stays_near_serial() {
    // Splitting capacity across shards changes cache state in either
    // direction: partitioning loses global optimality, but it also
    // isolates hot small clips from large-clip interference (on this
    // variable-sized catalog sharded LRU *beats* global LRU by up to
    // ~0.12). The tolerance documents the envelope; EXPERIMENTS.md
    // records the measured per-shard-count deltas.
    let trace = Trace::from_generator(RequestGenerator::new(48, 0.27, 0, 10_000, SEED));
    let policy: PolicySpec = "lru".parse().unwrap();
    let serial = baseline(policy, &trace);
    // Measured deltas on this workload: +0.05 (2 shards), +0.12 (4),
    // +0.17 (8); the envelope gives each a small headroom.
    for (shards, tolerance) in [(2usize, 0.10), (4, 0.16), (8, 0.21)] {
        let (observed, _) = load(policy, shards, 1, &trace);
        assert_eq!(observed.requests(), serial.requests());
        let delta = (observed.hit_rate() - serial.hit_rate()).abs();
        assert!(
            delta < tolerance,
            "shards={shards}: hit rate {:.4} vs serial {:.4} (|Δ|={delta:.4})",
            observed.hit_rate(),
            serial.hit_rate()
        );
    }
}

#[test]
fn multi_client_requests_are_conserved() {
    // Whatever the interleaving, every request lands exactly once:
    // request and byte totals are interleaving-independent even though
    // hit counts are not.
    let trace = Trace::from_generator(RequestGenerator::new(48, 0.27, 0, 4_000, SEED));
    let policy: PolicySpec = "lru".parse().unwrap();
    let serial = baseline(policy, &trace);
    for clients in [2usize, 4] {
        let (observed, server_side) = load(policy, 4, clients, &trace);
        assert_eq!(observed, server_side);
        assert_eq!(observed.requests(), 4_000);
        let total_bytes = observed.byte_hits + observed.byte_misses;
        assert_eq!(total_bytes, serial.byte_hits + serial.byte_misses);
    }
}

/// The anchor as the binaries run it, one row per run: the flags of
/// the fresh `serve` it targets (`None` runs in process), whether the
/// durable side (that server, else `loadgen`) gets a fresh `--data-dir`,
/// and `loadgen`'s flags. Each run gets a server of its own, because a
/// warm cache leaves the anchor by design.
const ANCHOR_RUNS: [(Option<&str>, bool, &str); 8] = [
    (
        None,
        false,
        "--shards 1 --clients 1 --requests 20000 --check-serial 0",
    ),
    (
        None,
        false,
        "--shards 1 --clients 1 --requests 20000 --faults rate=0,seed=17 --check-serial 0",
    ),
    (
        None,
        true,
        "--shards 1 --clients 1 --requests 20000 --check-serial 0",
    ),
    (
        None,
        false,
        "--cluster-nodes 1 --replication 1 --shards 1 --clients 1 --requests 20000 \
         --check-serial 0",
    ),
    // Sharded multi-client load lands within the hit-rate tolerance.
    (
        Some("--shards 4"),
        false,
        "--shards 4 --clients 4 --requests 10000 --check-serial 0.15",
    ),
    // The wire and the pipeline depth change timing, never results.
    (
        Some("--shards 1"),
        false,
        "--shards 1 --clients 1 --requests 20000 --wire binary --pipeline 32 --check-serial 0",
    ),
    (
        Some("--shards 1"),
        false,
        "--shards 1 --clients 1 --requests 20000 --wire text --pipeline 1 --check-serial 0",
    ),
    (
        Some("--shards 1 --wal-sync always --commit-window-us 100"),
        true,
        "--shards 1 --clients 1 --requests 20000 --wire binary --pipeline 32 --check-serial 0",
    ),
];

#[test]
fn the_binaries_stay_on_the_anchor_in_process_and_over_tcp() {
    let root = std::env::temp_dir().join(format!("clipcache-anchor-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    for (i, (serve, durable, flags)) in ANCHOR_RUNS.into_iter().enumerate() {
        let dir = root.join(i.to_string());
        let dir = durable.then_some(dir.as_path());
        // With no `--addr`, `serve` binds an ephemeral port.
        let server = serve.map(|s| spawn_serve(&s.split_whitespace().collect::<Vec<_>>(), dir));
        let mut args: Vec<&str> = flags.split_whitespace().collect();
        match (&server, dir) {
            (Some(server), _) => args.extend(["--target", &server.addr]),
            (None, Some(dir)) => args.extend(["--data-dir", dir.to_str().expect("UTF-8 path")]),
            (None, None) => {}
        }
        let (status, out) = loadgen(&args);
        assert!(
            status.success(),
            "{serve:?} / {flags}: loadgen failed: {out}"
        );
        assert!(out.contains("serial check passed"), "{flags}: {out}");
        if let Some(server) = server {
            server.quit();
        }
    }
    let _ = std::fs::remove_dir_all(&root);
}
