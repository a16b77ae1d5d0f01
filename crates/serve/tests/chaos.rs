//! The chaos suite: deterministic fault injection against the serving
//! layer, in-process and over real loopback sockets.
//!
//! The invariants proved here (ISSUE 4):
//!
//! * **No lost or duplicated responses** — every request in the trace is
//!   delivered to its client exactly once (`delivered == trace length`),
//!   and every delivered reply is recorded exactly once
//!   (`hits + misses == delivered`).
//! * **Zero rate is the clean path** — a zero-rate plan replays
//!   bit-identically to the serial-equivalence anchor.
//! * **Lossless faults cost retries, not correctness** — a run injecting
//!   only kinds that never reach the service core (drop-before-send,
//!   garbage, torn writes) ends bit-identical to a fault-free run.
//! * **Same seed, same schedule, same report** — two runs with the same
//!   plan produce byte-identical chaos reports.
//! * **Poison is survivable** — shard poisoning is recovered from the
//!   checkpoint and the server keeps serving.
//! * **One request path** — the in-process target runs the server's
//!   session, so a plan's report is the same over a socket and without
//!   one, and the committed golden renders both ways.

use clipcache_core::PolicyKind;
use clipcache_media::{paper, Repository};
use clipcache_serve::{run_load_with, serial_baseline};
use clipcache_serve::{
    serve_with, CacheService, FaultKind, FaultPlan, LoadOptions, RetryPolicy, ServerConfig,
    ServiceConfig, Target,
};
use clipcache_workload::{RequestGenerator, Trace};
use std::sync::Arc;

mod support;

use support::{loadgen, spawn_serve};

const CLIPS: usize = 24;
const REQUESTS: u64 = 2_000;
const SERVICE_SEED: u64 = 42;

fn fixture(shards: usize) -> (Arc<Repository>, Arc<CacheService>, Trace) {
    let repo = Arc::new(paper::variable_sized_repository_of(CLIPS));
    let service = Arc::new(
        CacheService::new(
            Arc::clone(&repo),
            ServiceConfig::new(
                PolicyKind::Lru,
                shards,
                repo.cache_capacity_for_ratio(0.25),
                SERVICE_SEED,
            ),
            None,
        )
        .unwrap(),
    );
    let trace = Trace::from_generator(RequestGenerator::new(CLIPS, 0.27, 0, REQUESTS, 9));
    (repo, service, trace)
}

fn options(plan: FaultPlan) -> LoadOptions {
    LoadOptions {
        clients: 1,
        faults: Some(plan),
        retry: RetryPolicy::default(),
        read_timeout: None,
        ..LoadOptions::default()
    }
}

#[test]
fn rate_zero_is_bit_identical_to_the_serial_anchor() {
    let (repo, service, trace) = fixture(1);
    let report = run_load_with(
        &Target::InProcess(Arc::clone(&service)),
        &repo,
        &trace,
        &options(FaultPlan::new(7, 0.0)),
    )
    .unwrap();
    let baseline = serial_baseline(
        &repo,
        PolicyKind::Lru.into(),
        repo.cache_capacity_for_ratio(0.25),
        SERVICE_SEED,
        &trace,
    );
    // PR 3's anchor, untouched by the chaos machinery: a zero-rate plan
    // IS the clean replay.
    assert_eq!(report.observed, baseline);
    assert_eq!(service.stats(), baseline);
    assert_eq!(report.chaos.injected(), 0);
    assert_eq!(report.recoveries, 0);
    assert!(report.conserved());
}

#[test]
fn same_seed_produces_a_byte_identical_chaos_report() {
    let plan = FaultPlan::with_kinds(17, 0.05, &FaultKind::ALL);
    let mut reports = Vec::new();
    for _ in 0..2 {
        let (repo, service, trace) = fixture(2);
        let report = run_load_with(
            &Target::InProcess(service),
            &repo,
            &trace,
            &options(plan.clone()),
        )
        .unwrap();
        reports.push(report);
    }
    assert!(reports[0].chaos.injected() > 0, "plan scheduled nothing");
    assert_eq!(reports[0].chaos, reports[1].chaos);
    assert_eq!(reports[0].observed, reports[1].observed);
    assert_eq!(reports[0].recoveries, reports[1].recoveries);
    // The rendered report carries no wall-clock values, so it is the
    // same byte string — the property CI pins with a committed golden.
    assert_eq!(reports[0].chaos_report(), reports[1].chaos_report());
}

#[test]
fn invariants_hold_under_poisoning_and_recoveries_fire() {
    let plan = FaultPlan::with_kinds(3, 0.08, &FaultKind::ALL);
    let (repo, service, trace) = fixture(2);
    let report = run_load_with(
        &Target::InProcess(Arc::clone(&service)),
        &repo,
        &trace,
        &options(plan),
    )
    .unwrap();
    assert_eq!(report.chaos.delivered, REQUESTS, "lost responses");
    assert_eq!(report.observed.requests(), REQUESTS, "duplicated records");
    assert!(report.conserved(), "hits + misses != delivered");
    assert!(report.chaos.poisons > 0, "plan never poisoned");
    assert!(report.recoveries > 0, "poison recovery path not exercised");
    assert_eq!(report.recoveries, service.recoveries());
    // Garbage was always answered with a structured rejection.
    assert_eq!(report.chaos.err_replies, report.chaos.garbage);
}

#[test]
fn lossless_faults_leave_statistics_bit_identical() {
    let (repo, clean_service, trace) = fixture(1);
    let clean = run_load_with(
        &Target::InProcess(Arc::clone(&clean_service)),
        &repo,
        &trace,
        &LoadOptions::default(),
    )
    .unwrap();
    let (_, chaotic_service, _) = fixture(1);
    let plan = FaultPlan::with_kinds(29, 0.1, &FaultKind::LOSSLESS);
    let chaotic = run_load_with(
        &Target::InProcess(Arc::clone(&chaotic_service)),
        &repo,
        &trace,
        &options(plan),
    )
    .unwrap();
    assert!(chaotic.chaos.injected() > 0, "plan scheduled nothing");
    // Dropped-before-send requests were never seen by the server,
    // garbage was rejected at the parser, torn writes reassembled: the
    // service observed exactly the clean request stream.
    assert_eq!(chaotic.observed, clean.observed);
    assert_eq!(chaotic_service.stats(), clean_service.stats());
    assert!(chaotic.conserved());
}

#[test]
fn multiple_clients_conserve_requests_under_faults() {
    let plan = FaultPlan::with_kinds(5, 0.05, &FaultKind::ALL);
    let (repo, service, trace) = fixture(4);
    let report = run_load_with(
        &Target::InProcess(Arc::clone(&service)),
        &repo,
        &trace,
        &LoadOptions {
            clients: 3,
            faults: Some(plan),
            retry: RetryPolicy::default(),
            read_timeout: None,
            ..LoadOptions::default()
        },
    )
    .unwrap();
    // The schedule is a pure function of (client, request, attempt), so
    // the injected counts are interleaving-independent even at 3
    // threads; delivery invariants hold regardless.
    assert_eq!(report.chaos.delivered, REQUESTS);
    assert!(report.conserved());
    assert!(report.chaos.injected() > 0);
}

#[test]
fn tcp_chaos_run_holds_invariants_and_server_survives() {
    let plan = FaultPlan::with_kinds(11, 0.05, &FaultKind::ALL);
    let (repo, service, trace) = fixture(2);
    let handle = serve_with(
        Arc::clone(&service),
        "127.0.0.1:0",
        ServerConfig {
            chaos: true,
            ..ServerConfig::default()
        },
    )
    .expect("bind loopback");
    let target = Target::Tcp(handle.addr().to_string());
    let report = run_load_with(&target, &repo, &trace, &options(plan)).expect("tcp chaos load");
    assert_eq!(report.chaos.delivered, REQUESTS, "lost responses over TCP");
    assert!(report.conserved());
    assert!(report.chaos.injected() > 0);
    assert!(report.chaos.poisons > 0);
    assert!(report.recoveries > 0, "TCP poison recovery not exercised");
    // Real wire faults mean real reconnects.
    assert!(report.chaos.reconnects > 0);
    // Garbage bytes never killed a connection: each got a structured ERR.
    assert_eq!(report.chaos.err_replies, report.chaos.garbage);
    // The server is still healthy after the storm.
    let mut probe = clipcache_serve::TcpCacheClient::connect(handle.addr()).unwrap();
    let stats = probe.stats().unwrap();
    assert_eq!(stats.stats, service.stats());
    probe.quit().unwrap();
    handle.shutdown();
}

#[test]
fn tcp_and_inprocess_chaos_reports_are_equal() {
    // The in-process target drives the server's own session, so one
    // plan renders one report whether the transport is a socket or
    // not: reconnects, ERR replies and poison recoveries included.
    let plan = FaultPlan::with_kinds(13, 0.04, &FaultKind::ALL);
    let (repo, inproc_service, trace) = fixture(2);
    let inproc = run_load_with(
        &Target::InProcess(inproc_service),
        &repo,
        &trace,
        &options(plan.clone()),
    )
    .unwrap();
    let (repo2, tcp_service, _) = fixture(2);
    let handle = serve_with(
        tcp_service,
        "127.0.0.1:0",
        ServerConfig {
            chaos: true,
            ..ServerConfig::default()
        },
    )
    .expect("bind loopback");
    let tcp = run_load_with(
        &Target::Tcp(handle.addr().to_string()),
        &repo2,
        &trace,
        &options(plan),
    )
    .expect("tcp chaos load");
    handle.shutdown();
    assert!(inproc.chaos.injected() > 0, "plan scheduled nothing");
    assert_eq!(inproc.chaos_report(), tcp.chaos_report());
}

#[test]
fn chaos_over_tcp_on_both_wires_leaves_the_server_shutting_down_cleanly() {
    // A poison-enabled server with a connection cap and an idle timeout
    // takes all five fault kinds from two clients, on the text wire and
    // then on the binary one. Each loadgen exits 0 only if every
    // request was delivered exactly once.
    let server = spawn_serve(
        &[
            "--addr",
            "127.0.0.1:0",
            "--shards",
            "2",
            "--chaos",
            "--max-conns",
            "64",
            "--read-timeout",
            "5000",
        ],
        None,
    );
    for wire in [&[][..], &["--wire", "binary"]] {
        let mut args = vec!["--target", &server.addr];
        args.extend(["--shards", "2", "--clients", "2", "--requests", "5000"]);
        args.extend(wire);
        args.extend([
            "--faults",
            "rate=0.03,seed=9,kinds=drop-pre+drop-post+garbage+torn+poison",
        ]);
        let (status, _) = loadgen(&args);
        assert!(status.success(), "chaos over TCP failed with {wire:?}");
    }
    server.quit();
}

#[test]
fn the_golden_flags_render_the_committed_golden_in_process_and_over_tcp() {
    let golden = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../results/chaos/loadgen_chaos.txt"
    ))
    .expect("committed golden readable");
    let dir = std::env::temp_dir().join(format!("clipcache-chaos-golden-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for wire in ["text", "binary"] {
        // A fresh server per wire: the golden starts from a cold cache.
        let server = spawn_serve(&["--addr", "127.0.0.1:0", "--shards", "2", "--chaos"], None);
        let report = dir.join("report.txt");
        for target in [None, Some(server.addr.as_str())] {
            let mut args = vec!["--shards", "2", "--clients", "1", "--requests", "20000"];
            args.extend([
                "--faults",
                "rate=0.05,seed=17,kinds=drop-pre+drop-post+garbage+torn+poison",
            ]);
            args.extend(["--wire", wire]);
            args.extend(target.map(|addr| ["--target", addr]).into_iter().flatten());
            args.extend(["--chaos-report", report.to_str().expect("UTF-8 path")]);
            let (status, _) = loadgen(&args);
            assert!(status.success(), "{wire} loadgen against {target:?} failed");
            let rendered = std::fs::read_to_string(&report).expect("report written");
            assert_eq!(rendered, golden, "{wire} wire, target {target:?}");
        }
        server.quit();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn the_cluster_golden_flags_render_the_committed_goldens() {
    let golden = |name: &str| {
        let path = format!("{}/../../results/chaos/{name}", env!("CARGO_MANIFEST_DIR"));
        std::fs::read_to_string(path).expect("committed golden readable")
    };
    let dir = std::env::temp_dir().join(format!("clipcache-cluster-golden-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let pinned = [
        "--seed",
        "0x5EED2007",
        "--shards",
        "1",
        "--faults",
        "rate=0,seed=17",
    ];
    let cases: [(Vec<&str>, &str); 3] = [
        (
            [
                &pinned[..],
                &[
                    "--peer-faults",
                    "rate=0.01,seed=9,kinds=drop-pre+drop-post+garbage",
                ],
            ]
            .concat(),
            "cluster_chaos.txt",
        ),
        (
            [&pinned[..], &["--kill-span", "1:5000:15000"]].concat(),
            "degraded_chaos.txt",
        ),
        // Client faults on a multi-member route: every kind, each on the
        // connection to the GET's owner.
        (
            vec![
                "--shards",
                "2",
                "--faults",
                "rate=0.05,seed=17,kinds=drop-pre+drop-post+garbage+torn+poison",
            ],
            "route_chaos.txt",
        ),
    ];
    for (extra, name) in &cases {
        for wire in ["text", "binary"] {
            let report = dir.join(format!("{wire}-{name}"));
            let mut args = vec!["--cluster-nodes", "3", "--replication", "2"];
            args.extend(["--clients", "1", "--requests", "20000", "--clips", "96"]);
            args.extend(extra);
            args.extend(["--wire", wire]);
            args.extend(["--chaos-report", report.to_str().expect("UTF-8 path")]);
            let (status, _) = loadgen(&args);
            assert!(status.success(), "{wire} loadgen for {name} failed");
            let rendered = std::fs::read_to_string(&report).expect("report written");
            assert_eq!(rendered, golden(name), "{name} over the {wire} wire");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
