//! `loadgen` — closed-loop load harness for the sharded cache service.
//!
//! ```text
//! loadgen [--target inproc|host:port] [--policy spec] [--shards n]
//!         [--clients n] [--requests n] [--clips n] [--theta f]
//!         [--ratio f] [--chunk-size mb] [--seed n|0xHEX]
//!         [--check-serial tol] [--wire text|binary] [--pipeline n]
//!         [--faults spec] [--retries n] [--backoff-ms n] [--max-backoff-ms n]
//!         [--chaos-report path] [--data-dir path] [--wal-sync always|off]
//!         [--peers a,b,c | --cluster-nodes n] [--replication r]
//!         [--peer-faults spec] [--kill-span node:from:to]
//! ```
//!
//! The flags `loadgen` shares with `serve` (`--policy`, `--shards`,
//! `--clips`, `--ratio`, `--chunk-size`, `--seed`, `--data-dir`,
//! `--wal-sync`, `--commit-window-us`, `--segment-bytes`, `--peers`,
//! `--replication`) are parsed, defaulted and turned into a service in
//! [`clipcache_serve::cli`]; this file holds the load, chaos and
//! harness flags.
//!
//! Replays a seeded Zipf trace from `--clients` closed-loop threads
//! against the in-process service (`--target inproc`, the default) or a
//! running `serve` front-end, then reports hit rate, throughput and
//! latency percentiles. In-process, each connection is a server session
//! without a socket, so the replay runs the server's request path.
//!
//! Single-node targets choose a wire protocol with `--wire` (text
//! lines, the debuggable default, or length-prefixed binary frames —
//! the fast path) and a pipeline depth with `--pipeline n`: each client
//! keeps up to `n` requests in flight per connection, batched into one
//! write per window. Pipelining changes timing, never results — the server
//! preserves per-connection order, so `--shards 1 --clients 1
//! --check-serial 0` passes at any depth. Chaos replays always run
//! request-at-a-time (fault attribution is per request).
//!
//! `--faults` switches the replay into chaos mode: the spec (e.g.
//! `rate=0.02,seed=7,kinds=drop-pre+garbage+torn+poison`) seeds a
//! deterministic fault schedule; each injected fault is recovered by a
//! bounded retry loop (`--retries`, default 4) with jitter-free
//! exponential backoff starting at `--backoff-ms` (default 0) and
//! capped at `--max-backoff-ms` (default 5000). After a
//! chaos run the delivery invariants are checked (every request's reply
//! delivered exactly once; hits + misses == delivered) and the run
//! fails loudly if they don't hold. `--chaos-report path` additionally
//! writes the deterministic, wall-clock-free chaos summary to `path`
//! (or stdout with `-`) — two runs with the same flags must produce
//! byte-identical reports, which CI pins against a committed golden.
//!
//! `--check-serial tol` compares the run's hit statistics against the
//! serial simulator replaying the same trace (policy seeded like shard 0
//! of the service). With `tol 0` the counters must match **bit for
//! bit** — the honest setting for 1 shard + 1 client, where the service
//! is provably the serial simulator. With `tol > 0` the hit rates must
//! agree within `tol` — the setting for multi-shard runs, whose split
//! capacity changes cache state. When the target is TCP, pass the same
//! `--policy/--shards/--clips/--ratio/--seed` the server was started
//! with so the baseline matches.
//!
//! Cluster modes: `--peers a,b,c` ring-routes every GET across a
//! running TCP cluster (same member order, `--seed` and `--replication`
//! as the servers), failing over to replica owners when a member is
//! down. `--cluster-nodes n` instead builds an in-process n-node
//! cluster (the deterministic harness `clusterbench` and the cluster
//! chaos golden use); `--peer-faults spec` injects drop-pre/drop-post/
//! garbage faults on its peer wire, and the cluster block is
//! appended to `--chaos-report` output. `--kill-span node:from:to`
//! (repeatable, harness only, `--clients 1`) kills `node` before
//! request `from` and revives it before request `to` — a deterministic
//! member outage that exercises the per-peer circuit breakers and
//! hinted handoff, rendered as the report's `degraded` block.
//!
//! `--data-dir` (inproc targets only) runs the in-process service
//! durably — checkpoint + WAL per shard, recovered on open — so
//! `--check-serial 0` against a fresh data dir proves persistence does
//! not perturb behavior (a row of `tests/serial_equivalence.rs`). A
//! `--faults` spec carrying `crash=append:N` (etc.) arms the durable
//! store's deterministic crash point; the process exits 137 when it
//! fires, exactly like `serve --crash-at`.

use clipcache_serve::cli::{parse_u64, ServiceFlags};
use clipcache_serve::{
    run_load_with, serial_baseline, CacheService, ClusterHarness, ClusterRoute, FaultPlan,
    LoadOptions, PeerFaults, RetryPolicy, ServiceConfig, Target, Wire,
};
use clipcache_workload::{RequestGenerator, Trace};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

struct Args {
    target: String,
    service: ServiceFlags,
    clients: usize,
    requests: u64,
    theta: f64,
    check_serial: Option<f64>,
    faults: Option<FaultPlan>,
    retry: RetryPolicy,
    chaos_report: Option<String>,
    wire: Wire,
    pipeline: usize,
    cluster_nodes: Option<usize>,
    peer_faults: Option<FaultPlan>,
    /// Deterministic harness kill/revive windows: `(node, from, to)`
    /// kills `node` before request `from` and revives it before `to`.
    kill_spans: Vec<(usize, u64, u64)>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        target: "inproc".into(),
        service: ServiceFlags::default(),
        clients: 4,
        requests: 100_000,
        theta: 0.27,
        check_serial: None,
        faults: None,
        retry: RetryPolicy::default(),
        chaos_report: None,
        wire: Wire::Text,
        pipeline: 1,
        cluster_nodes: None,
        peer_faults: None,
        kill_spans: Vec::new(),
    };
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--target" => args.target = argv.next().ok_or("--target needs inproc or host:port")?,
            "--clients" => {
                let v = argv.next().ok_or("--clients needs a count")?;
                args.clients = v.parse().map_err(|e| format!("bad --clients: {e}"))?;
                if args.clients == 0 {
                    return Err("--clients must be at least 1".into());
                }
            }
            "--requests" => {
                let v = argv.next().ok_or("--requests needs a count")?;
                args.requests = v.parse().map_err(|e| format!("bad --requests: {e}"))?;
            }
            "--theta" => {
                let v = argv.next().ok_or("--theta needs a value")?;
                args.theta = v.parse().map_err(|e| format!("bad --theta: {e}"))?;
            }
            "--check-serial" => {
                let v = argv.next().ok_or("--check-serial needs a tolerance")?;
                let tol: f64 = v.parse().map_err(|e| format!("bad --check-serial: {e}"))?;
                if !(0.0..=1.0).contains(&tol) {
                    return Err("--check-serial tolerance must be in [0, 1]".into());
                }
                args.check_serial = Some(tol);
            }
            "--faults" => {
                let v = argv
                    .next()
                    .ok_or("--faults needs a spec (e.g. rate=0.02)")?;
                args.faults = Some(FaultPlan::parse(&v).map_err(|e| format!("bad --faults: {e}"))?);
            }
            "--retries" => {
                let v = argv.next().ok_or("--retries needs a count")?;
                args.retry.max_retries = v.parse().map_err(|e| format!("bad --retries: {e}"))?;
            }
            "--backoff-ms" => {
                let v = argv.next().ok_or("--backoff-ms needs milliseconds")?;
                let ms: u64 = v.parse().map_err(|e| format!("bad --backoff-ms: {e}"))?;
                args.retry.base_backoff = Duration::from_millis(ms);
            }
            "--max-backoff-ms" => {
                let v = argv.next().ok_or("--max-backoff-ms needs milliseconds")?;
                let ms: u64 = v
                    .parse()
                    .map_err(|e| format!("bad --max-backoff-ms: {e}"))?;
                if ms == 0 {
                    return Err("--max-backoff-ms must be at least 1".into());
                }
                args.retry.max_backoff = Duration::from_millis(ms);
            }
            "--kill-span" => {
                let v = argv
                    .next()
                    .ok_or("--kill-span needs node:from:to (e.g. 1:100:500)")?;
                let parts: Vec<&str> = v.split(':').collect();
                let [node, from, to] = parts.as_slice() else {
                    return Err(format!("bad --kill-span '{v}': expected node:from:to"));
                };
                let node: usize = node
                    .parse()
                    .map_err(|e| format!("bad --kill-span node: {e}"))?;
                let from = parse_u64(from).map_err(|e| format!("bad --kill-span from: {e}"))?;
                let to = parse_u64(to).map_err(|e| format!("bad --kill-span to: {e}"))?;
                if from >= to {
                    return Err(format!("bad --kill-span '{v}': from must precede to"));
                }
                args.kill_spans.push((node, from, to));
            }
            "--chaos-report" => {
                args.chaos_report = Some(argv.next().ok_or("--chaos-report needs a path or -")?);
            }
            "--wire" => {
                let v = argv.next().ok_or("--wire needs text or binary")?;
                args.wire = v.parse()?;
            }
            "--pipeline" => {
                let v = argv.next().ok_or("--pipeline needs a depth")?;
                args.pipeline = v.parse().map_err(|e| format!("bad --pipeline: {e}"))?;
                if args.pipeline == 0 {
                    return Err("--pipeline must be at least 1".into());
                }
            }
            "--cluster-nodes" => {
                let v = argv.next().ok_or("--cluster-nodes needs a count")?;
                let n: usize = v.parse().map_err(|e| format!("bad --cluster-nodes: {e}"))?;
                if n == 0 {
                    return Err("--cluster-nodes must be at least 1".into());
                }
                args.cluster_nodes = Some(n);
            }
            "--peer-faults" => {
                let v = argv
                    .next()
                    .ok_or("--peer-faults needs a spec (e.g. rate=0.01,kinds=drop-pre+garbage)")?;
                let plan = FaultPlan::parse(&v).map_err(|e| format!("bad --peer-faults: {e}"))?;
                // Validate the kind restriction now so a bad spec fails
                // at the flag, not mid-run.
                PeerFaults::new(plan.clone()).map_err(|e| format!("bad --peer-faults: {e}"))?;
                args.peer_faults = Some(plan);
            }
            "--help" | "-h" => {
                return Err(
                    "usage: loadgen [--target inproc|host:port] [--policy spec] \
                     [--shards n] [--clients n] [--requests n] [--clips n] \
                     [--theta f] [--ratio f] [--chunk-size mb] [--seed n|0xHEX] \
                     [--check-serial tol] \
                     [--wire text|binary] [--pipeline n] \
                     [--faults spec] [--retries n] [--backoff-ms n] [--max-backoff-ms n] \
                     [--chaos-report path|-] [--data-dir path] [--wal-sync always|off] \
                     [--commit-window-us n] [--segment-bytes n]\n\
                     \x20       [--peers a,b,c | --cluster-nodes n] [--replication r] \
                     [--peer-faults spec] [--kill-span node:from:to]\n\
                     --wire binary speaks length-prefixed frames; --pipeline n \
                     keeps n requests in flight per connection (clean single-node \
                     replays only; results are depth-invariant)\n\
                     --check-serial 0 demands bit-for-bit equality with the \
                     serial simulator (valid for --shards 1 --clients 1); \
                     tol > 0 allows that hit-rate deviation for sharded runs\n\
                     --faults rate=0.02,seed=7,kinds=drop-pre+drop-post+garbage+torn+poison \
                     injects a deterministic fault schedule recovered by \
                     --retries (default 4) with jitter-free exponential \
                     backoff from --backoff-ms (default 0), capped at \
                     --max-backoff-ms (default 5000)\n\
                     --peers ring-routes GETs across a running TCP cluster \
                     (same member order, --seed and --replication as the \
                     servers); --cluster-nodes n builds an in-process n-node \
                     cluster, --peer-faults injects \
                     drop-pre/drop-post/garbage on its peer wire, and \
                     --kill-span node:from:to (repeatable, --clients 1) \
                     kills and revives a node at exact request counts"
                        .into(),
                )
            }
            other => {
                if !args.service.parse(other, &mut argv)? {
                    return Err(format!("unknown argument {other}"));
                }
            }
        }
    }
    let service = &args.service;
    if service.data_dir.is_some() && args.target != "inproc" {
        return Err(
            "--data-dir only applies to --target inproc (persist the server instead)".into(),
        );
    }
    service.check_wal_tuning()?;
    if !service.peers.is_empty() && args.cluster_nodes.is_some() {
        return Err("--peers (TCP cluster) and --cluster-nodes (in-process) are exclusive".into());
    }
    if !service.peers.is_empty() && args.target != "inproc" {
        return Err("--peers replaces --target; drop the --target flag".into());
    }
    let members = if !service.peers.is_empty() {
        Some(service.peers.len())
    } else {
        args.cluster_nodes
    };
    match members {
        Some(n) if service.replication > n => {
            return Err(format!(
                "--replication {} exceeds the {n} cluster member(s)",
                service.replication
            ));
        }
        None => {
            if service.replication != 1 {
                return Err("--replication needs --peers or --cluster-nodes".into());
            }
            if args.peer_faults.is_some() {
                return Err("--peer-faults needs --cluster-nodes (in-process peer wire)".into());
            }
        }
        _ => {}
    }
    if args.peer_faults.is_some() && args.cluster_nodes.is_none() {
        return Err("--peer-faults needs --cluster-nodes (in-process peer wire)".into());
    }
    if !args.kill_spans.is_empty() {
        let Some(n) = args.cluster_nodes else {
            return Err("--kill-span needs --cluster-nodes (in-process harness)".into());
        };
        for &(node, _, _) in &args.kill_spans {
            if node >= n {
                return Err(format!(
                    "--kill-span node {node} exceeds the {n} cluster node(s)"
                ));
            }
        }
        if args.clients != 1 {
            return Err(
                "--kill-span needs --clients 1: the schedule is keyed on the \
                 harness's global request counter, which only a single client \
                 reaches deterministically"
                    .into(),
            );
        }
    }
    if members.is_some() {
        if service.data_dir.is_some() {
            return Err("--data-dir does not apply to cluster targets".into());
        }
        if args.pipeline > 1 {
            return Err(
                "--pipeline cannot be combined with cluster targets: ring routing \
                 picks a connection per clip, so there is no single pipe to batch into"
                    .into(),
            );
        }
    }
    if args.faults.is_some() && args.pipeline > 1 {
        return Err(
            "--pipeline cannot be combined with --faults: chaos replays run \
             request-at-a-time so every injected fault is attributable to exactly \
             one request; drop --pipeline (or the --faults spec)"
                .into(),
        );
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    let flags = &args.service;
    let repo = flags.repository();
    let config = flags.config(&repo);
    let capacity = config.capacity;
    let trace = Trace::from_generator(RequestGenerator::new(
        flags.clips,
        args.theta,
        0,
        args.requests,
        flags.seed,
    ));

    // Whether the durable service recovered prior state: server-side
    // counters then include a previous run's requests and cannot be
    // compared against this run's client-observed counters.
    let mut warm_start = false;
    let standalone_inproc =
        args.target == "inproc" && flags.peers.is_empty() && args.cluster_nodes.is_none();
    let service = if standalone_inproc {
        let crash = args.faults.as_ref().and_then(|p| p.crash());
        match flags.open(&repo, config, crash) {
            Ok((service, warm)) => {
                warm_start = warm;
                Some(service)
            }
            Err(msg) => {
                eprintln!("{msg}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        None
    };
    // The in-process cluster harness, when --cluster-nodes asked for
    // one. Node i runs its own full-capacity service seeded seed+i
    // (distinct shard seeds per node; node 0 of a 1-node cluster is
    // exactly the standalone service, preserving the serial anchor).
    let harness = match args.cluster_nodes {
        Some(n) => {
            let mut services = Vec::with_capacity(n);
            for i in 0..n {
                let config = ServiceConfig {
                    seed: flags.seed.wrapping_add(i as u64),
                    ..config
                };
                match CacheService::new(Arc::clone(&repo), config, None) {
                    Ok(s) => services.push(Arc::new(s)),
                    Err(e) => {
                        eprintln!("cannot build cluster node {i}: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            let mut h = ClusterHarness::new(flags.seed, flags.replication, services);
            if let Some(plan) = &args.peer_faults {
                h.set_faults(Some(
                    PeerFaults::new(plan.clone()).expect("validated at parse"),
                ));
            }
            for &(node, from, to) in &args.kill_spans {
                h.schedule_kill(node, from);
                h.schedule_revive(node, to);
            }
            Some(Arc::new(std::sync::Mutex::new(h)))
        }
        None => None,
    };
    let target = if let Some(harness) = &harness {
        Target::Cluster(Arc::clone(harness))
    } else if !flags.peers.is_empty() {
        Target::ClusterTcp(ClusterRoute {
            peers: flags.peers.clone(),
            replication: flags.replication,
            seed: flags.seed,
        })
    } else {
        match &service {
            Some(s) => Target::InProcess(Arc::clone(s)),
            None => Target::Tcp(args.target.clone()),
        }
    };

    let options = LoadOptions {
        clients: args.clients,
        faults: args.faults.clone(),
        retry: args.retry,
        read_timeout: None,
        wire: args.wire,
        pipeline: args.pipeline,
    };
    let report = match run_load_with(&target, &repo, &trace, &options) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("load run failed: {e}");
            return ExitCode::FAILURE;
        }
    };

    let lat = &report.latency;
    let us = |n: u64| n as f64 / 1_000.0;
    println!(
        "requests={} clients={} shards={} policy={}",
        report.observed.requests(),
        report.clients,
        flags.shards,
        flags.policy.spelling()
    );
    println!(
        "hit_rate={:.6} byte_hit_rate={:.6} evictions={}",
        report.observed.hit_rate(),
        report.observed.byte_hit_rate(),
        report.observed.evictions
    );
    println!(
        "elapsed={:.3}s throughput={:.0} req/s",
        report.elapsed_secs,
        report.throughput()
    );
    println!(
        "latency_us mean={:.1} p50={:.1} p95={:.1} p99={:.1} max={:.1}",
        lat.mean_nanos() / 1_000.0,
        us(lat.percentile_nanos(0.5)),
        us(lat.percentile_nanos(0.95)),
        us(lat.percentile_nanos(0.99)),
        us(lat.max_nanos())
    );
    if args.faults.is_some() {
        let c = &report.chaos;
        println!(
            "chaos injected={} (drop_pre={} drop_post={} garbage={} torn={} poison={}) \
             retries={} reconnects={} err_replies={} recoveries={}",
            c.injected(),
            c.drops_before,
            c.drops_after,
            c.garbage,
            c.torn,
            c.poisons,
            c.retries,
            c.reconnects,
            c.err_replies,
            report.recoveries
        );
        // The delivery invariants: every request's reply reached its
        // client exactly once, and each was recorded exactly once.
        if report.chaos.delivered != args.requests {
            eprintln!(
                "chaos invariant FAILED: delivered {} of {} requests",
                report.chaos.delivered, args.requests
            );
            return ExitCode::FAILURE;
        }
        if !report.conserved() {
            eprintln!("chaos invariant FAILED: hits + misses != delivered");
            return ExitCode::FAILURE;
        }
        println!(
            "chaos invariants hold: delivered={} exactly once",
            c.delivered
        );
    } else if let Some(service) = &service {
        // Clean runs only: under chaos, duplicate processing (lost
        // replies) and checkpoint rewinds (poison recovery) legitimately
        // shift the server-side counters, so the client-observed side is
        // the authoritative one. A warm durable start also skips: the
        // recovered counters include a previous run's requests.
        if !warm_start {
            let server_side = service.stats();
            // Chunked runs: the GET wire reports whole-clip outcomes, so
            // the client's byte split cannot see prefix refinements (the
            // server splits resident head from streamed tail and counts
            // prefix_hits). The event-level counters must still agree.
            let agrees = if flags.chunk_mb == 0 {
                server_side == report.observed
            } else {
                server_side.hits == report.observed.hits
                    && server_side.misses == report.observed.misses
                    && server_side.evictions == report.observed.evictions
            };
            if !agrees {
                eprintln!("server-side stats disagree with client-observed stats");
                return ExitCode::FAILURE;
            }
        }
    }
    // The cluster block: harness counters are deterministic and
    // wall-clock-free, so they print with the summary and extend the
    // byte-stable chaos report.
    let cluster_lines = harness.as_ref().map(|h| {
        let h = h.lock().expect("cluster harness poisoned");
        let stats = h.stats();
        if !stats.conservation_ok() {
            eprintln!("cluster invariant FAILED: delivered != local + peer + miss");
        }
        (h.chaos_lines(), stats.conservation_ok())
    });
    if let Some((lines, ok)) = &cluster_lines {
        print!("{lines}");
        if !ok {
            return ExitCode::FAILURE;
        }
    }
    if let Some(path) = &args.chaos_report {
        let mut rendered = report.chaos_report();
        if let Some((lines, _)) = &cluster_lines {
            rendered.push_str(lines);
        }
        if path == "-" {
            print!("{rendered}");
        } else if let Err(e) = std::fs::write(path, &rendered) {
            eprintln!("cannot write chaos report to {path}: {e}");
            return ExitCode::FAILURE;
        }
    }

    if let Some(tol) = args.check_serial {
        let baseline = serial_baseline(&repo, flags.policy, capacity, flags.seed, &trace);
        if tol == 0.0 {
            // On chunked runs the authoritative bit-for-bit comparand is
            // the server-side stats (they carry the prefix byte split the
            // GET wire cannot); the client still pins the event counters.
            let matched = match (&service, flags.chunk_mb) {
                (_, 0) => report.observed == baseline,
                (Some(s), _) => s.stats() == baseline,
                (None, _) => {
                    report.observed.hits == baseline.hits
                        && report.observed.misses == baseline.misses
                        && report.observed.evictions == baseline.evictions
                }
            };
            if !matched {
                eprintln!(
                    "serial check FAILED: observed {:?} != serial {:?}",
                    report.observed, baseline
                );
                return ExitCode::FAILURE;
            }
            println!("serial check passed: bit-for-bit equal");
        } else {
            let delta = (report.observed.hit_rate() - baseline.hit_rate()).abs();
            if delta > tol {
                eprintln!(
                    "serial check FAILED: hit rate {:.6} vs serial {:.6} (|Δ|={:.6} > {tol})",
                    report.observed.hit_rate(),
                    baseline.hit_rate(),
                    delta
                );
                return ExitCode::FAILURE;
            }
            println!(
                "serial check passed: hit rate {:.6} vs serial {:.6} (|Δ|={:.6} ≤ {tol})",
                report.observed.hit_rate(),
                baseline.hit_rate(),
                delta
            );
        }
    }
    ExitCode::SUCCESS
}
