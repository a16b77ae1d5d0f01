//! `layerbench` — the serving benchmark.
//!
//! ```text
//! layerbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Sets the workload's servers up (several times; `setup_s` is the
//! median), warms their caches, then drives them closed-loop over
//! loopback for `--seconds` and checks every reply against an in-process
//! replay. Generator and servers share one CPU, and every timing is
//! scaled by a loopback reference measured beside it. With `--trace 1`
//! it then replays the same requests into each layer's entry points
//! with spans and reports the per-layer breakdown instead of the
//! end-to-end metrics. The last stdout line is the JSON result; the exit
//! code is 0 only when every check passed. See README.md for the
//! workloads, the metrics and why the timings are scaled.

mod hist;
mod report;
mod run;
mod sys;
mod trace;
mod workload;

use report::{median, LayerTimes, END_TO_END, PER_LAYER};
use run::{Counts, RunResult};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;
use trace::Name;
use workload::{Stream, Workload};

/// Set-ups per run; `setup_s` and `persist.open_ms` are their medians.
const SETUPS: usize = 41;

/// Requests the traced pass records spans for (after the warm-up).
const TRACED_REQUESTS: u64 = 50_000;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!(
                    "unknown workload {value} (expected net-lru, policy-dynsimple, \
                     durable-mixed or cluster-ring)"
                ))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("bad --seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("bad --seconds: {e}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err("--seconds must be in (0, 120]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Removes the run's scratch directory however the run ends.
struct ScratchDir(PathBuf);

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// One pass/fail check of the run.
struct Check {
    what: &'static str,
    ok: bool,
}

/// Every correctness check that needs the servers' own view.
fn server_checks(workload: Workload, run: &RunResult, checks: &mut Vec<Check>) {
    let both = |f: fn(&Counts) -> u64| f(&run.warm) + f(&run.timed);
    let (gets, local, peer) = (
        both(|c| c.gets),
        both(|c| c.local_hits),
        both(|c| c.peer_hits),
    );
    checks.push(Check {
        what: "every request answered once with its reply kind",
        ok: both(|c| c.failed) == 0,
    });
    let after = &run.stats_after;
    let sum = |f: &dyn Fn(&clipcache_serve::ServerStats) -> u64| after.iter().map(f).sum::<u64>();
    let (hits, misses) = (sum(&|s| s.stats.hits), sum(&|s| s.stats.misses));
    if workload.members() == 1 {
        checks.push(Check {
            what: "client hits and misses equal STATS",
            ok: hits == local && misses == gets - local,
        });
    } else {
        // Each local miss probes the one other owner, which counts the
        // probe as an access of its own: Σ hits = local + peer fills,
        // Σ misses = local misses + probes that missed too.
        let plain_miss = gets - local - peer;
        checks.push(Check {
            what: "client hits, peer fills and misses equal STATS",
            ok: hits == local + peer
                && misses == (gets - local) + plain_miss
                && sum(&|s| s.peer_hits) == peer
                && sum(&|s| s.breaker_open) == 0,
        });
    }
    checks.push(Check {
        what: "no request shed",
        ok: sum(&|s| s.shed) == 0,
    });
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("layerbench: {e}");
            return ExitCode::from(2);
        }
    };
    match bench(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("layerbench: {e}");
            ExitCode::from(2)
        }
    }
}

fn bench(args: &Args) -> Result<bool, String> {
    let w = args.workload;
    let out_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let scratch = ScratchDir(out_dir.join(format!("run-{}", std::process::id())));
    std::fs::create_dir_all(&scratch.0)
        .map_err(|e| format!("create {}: {e}", scratch.0.display()))?;

    let nproc = sys::nproc();
    let cpu = sys::pin_to_one_cpu();
    let disk_dir = w.durable().then(|| scratch.0.join("reference"));
    let mut reference = run::Reference::new(disk_dir)?;
    // Set-up, several times; the last deployment serves the run. Each
    // set-up time is scaled by the set-up reference taken right after it.
    let mut setup_s = Vec::new();
    let mut open_ms = Vec::new();
    let mut dep = None;
    for k in 0..SETUPS {
        let dir = scratch.0.join(format!("setup-{k}"));
        let started = Instant::now();
        let d = run::deploy(w, args.seed, &dir)?;
        let secs = started.elapsed().as_secs_f64();
        setup_s.push(secs * run::SPAWN_NOMINAL / run::spawn_reference()?);
        open_ms.push(d.open_ms);
        if k + 1 < SETUPS {
            drop(d);
            let _ = std::fs::remove_dir_all(&dir);
        } else {
            dep = Some((d, dir));
        }
    }
    let (mut dep, data_dir) = dep.expect("SETUPS > 0");
    let repo = Arc::clone(&dep.repo);

    let mut stream = Stream::new(w, args.seed, Arc::clone(&repo));
    let run = run::drive(&mut dep, w, &mut stream, args.seconds, &mut reference)?;
    drop(reference);
    let sent = run.warm.requests + run.timed.requests;
    let mut checks = Vec::new();
    server_checks(w, &run, &mut checks);
    drop(dep);
    if w.durable() {
        // Acked ⇒ durable: every acknowledged request comes back. The
        // hit/miss split of the WAL tail replayed after the newest
        // checkpoint may differ, because a checkpoint restores residency
        // exactly but policy metadata only approximately.
        let recovered = run::reopen(w, args.seed, &repo, &data_dir)?;
        let acked: Vec<u64> = run.stats_after.iter().map(|s| s.stats.requests()).collect();
        let back: Vec<u64> = recovered.iter().map(|s| s.requests()).collect();
        checks.push(Check {
            what: "reopened data dir recovers every acknowledged request",
            ok: back == acked,
        });
        let split = recovered
            .iter()
            .zip(&run.stats_after)
            .all(|(r, s)| *r == s.stats);
        println!("recovered hit/miss split equals pre-shutdown STATS: {split}");
    }
    let replay = run::replay(w, args.seed, &repo, sent)?;
    checks.push(Check {
        what: "every reply equals the in-process replay",
        ok: replay.digest == run.timed.digest
            && replay.hits == run.warm.hits() + run.timed.hits()
            && replay.stats
                == run
                    .stats_after
                    .iter()
                    .map(|s| s.stats.clone())
                    .collect::<Vec<_>>(),
    });
    let failed_checks = checks.iter().filter(|c| !c.ok).count() as u64;
    let failed = run.warm.failed + run.timed.failed + failed_checks;
    let correct = failed == 0;

    let mut m: HashMap<&str, f64> = HashMap::new();
    end_to_end(w, &run, median(&mut setup_s), &mut m);
    m.insert("error_rate", failed as f64 / sent as f64);

    if args.trace {
        let traced_n = run.timed.requests.min(TRACED_REQUESTS);
        let span = (run.warm.requests, traced_n);
        let traced = trace::pass(w, args.seed, &repo, span, true, &scratch.0.join("traced"))?;
        let plain = trace::pass(w, args.seed, &repo, span, false, &scratch.0.join("plain"))?;
        per_layer(w, &run, &traced, &plain, median(&mut open_ms), &mut m);
        let spans = out_dir.join(format!("spans-{}.csv", w.name()));
        trace::write_spans(&spans, &environment(args, nproc, cpu), &traced.spans)
            .map_err(|e| format!("write {}: {e}", spans.display()))?;
        println!(
            "spans: {} written to {} (each less {} ns of recording cost)",
            traced.spans.len(),
            spans.display(),
            traced.clock_ns
        );
    }

    println!("{}", environment(args, nproc, cpu).replace('\n', " "));
    for c in &checks {
        println!("check {}: {}", if c.ok { "ok" } else { "FAILED" }, c.what);
    }
    let (mut gets, mut probes) = (hist::Histogram::default(), hist::Histogram::default());
    for s in &run.slices {
        gets.merge(&s.get);
        probes.merge(&s.range);
    }
    println!(
        "samples: {} GETs, {} probes, {} requests in {:.3} s",
        gets.count(),
        probes.count(),
        run.timed.requests,
        run.secs()
    );
    println!(
        "unscaled: throughput {:.0} req/s; whole-run GET p50 {:.2} us, p99 {:.2} us; \
         reference {:.0} round trips/s (nominal {:.0})",
        raw_throughput(&run),
        gets.quantile(0.5) / 1e3,
        gets.quantile(0.99) / 1e3,
        per_slice(&run, |s| s.reference),
        run::REFERENCE_NOMINAL
    );
    let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    // Human-readable: every end-to-end figure, then the layers.
    let unbounded = PER_LAYER.len() - 3;
    let mut shown: Vec<&(&str, &str)> = END_TO_END.iter().chain(&PER_LAYER[unbounded..]).collect();
    if args.trace {
        shown.extend(&PER_LAYER[..unbounded]);
    }
    for (name, unit) in shown {
        println!("{name} = {} {unit}", m.get(name).copied().unwrap_or(0.0));
    }
    println!(
        "{}",
        report::result_line(correct, sent, failed, table, |name| {
            m.get(name).copied().unwrap_or(0.0)
        })
    );
    Ok(correct)
}

/// The run environment, one `key=value` per line.
fn environment(args: &Args, nproc: usize, cpu: Option<usize>) -> String {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    format!(
        "workload={}\nseed={}\nseconds={}\ntrace={}\nnproc={}\npinned_cpu={}\nkernel={}\ncommit={}\nflush={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        args.trace as u8,
        nproc,
        cpu.map_or("none".into(), |c| c.to_string()),
        sys::kernel(),
        sys::git_commit(&root),
        args.workload.flush_policy(),
    )
}

/// Median over the run's slices of `f`.
fn per_slice(run: &RunResult, f: impl Fn(&run::Slice) -> f64) -> f64 {
    let mut v: Vec<f64> = run.slices.iter().map(f).collect();
    median(&mut v)
}

/// Requests per second as measured, without the reference scaling.
fn raw_throughput(run: &RunResult) -> f64 {
    per_slice(run, |s| s.requests as f64 / s.secs)
}

/// Timings are scaled slice by slice to the nominal reference speed
/// (the host's other tenants slow the reference in step with the
/// workload), then the median over slices is reported.
fn end_to_end(w: Workload, run: &RunResult, setup_s: f64, m: &mut HashMap<&str, f64>) {
    // Medians are scaled by the loopback reference; p99s by the tail's
    // own reference, which on the durable workload is the disk's.
    let us = |h: &hist::Histogram, q: f64| h.quantile(q) / 1e3;
    m.insert(
        "throughput_rps",
        per_slice(run, |s| s.requests as f64 / s.secs * s.slowdown()),
    );
    m.insert(
        "get_p50_us",
        per_slice(run, |s| us(&s.get, 0.5) / s.slowdown()),
    );
    m.insert(
        "get_p99_us",
        per_slice(run, |s| us(&s.get, 0.99) / s.tail_slowdown()),
    );
    m.insert(
        "range_p50_us",
        per_slice(run, |s| us(&s.range, 0.5) / s.slowdown()),
    );
    m.insert(
        "range_p99_us",
        per_slice(run, |s| us(&s.range, 0.99) / s.tail_slowdown()),
    );
    let t = &run.timed;
    m.insert("hit_rate", t.hits() as f64 / t.gets as f64);
    // A standalone server's STATS carry the exact byte split of prefix
    // hits, which a GET reply does not; a cluster member's STATS also
    // count peer probes, so there the client's own byte count is used.
    let byte_hit_rate = if w.members() == 1 {
        let d = |f: fn(&clipcache_sim::metrics::HitStats) -> u64| {
            f(&run.stats_after[0].stats) - f(&run.stats_before[0].stats)
        };
        let hit = d(|s| s.byte_hits.as_u64()) as f64;
        hit / (hit + d(|s| s.byte_misses.as_u64()) as f64)
    } else {
        t.hit_bytes as f64 / t.get_bytes as f64
    };
    m.insert("byte_hit_rate", byte_hit_rate);
    m.insert("setup_s", setup_s);
    m.insert("peak_rss_mb", sys::peak_rss_kb() as f64 / 1024.0);
}

fn per_layer(
    w: Workload,
    run: &RunResult,
    traced: &trace::Pass,
    plain: &trace::Pass,
    open_ms: f64,
    m: &mut HashMap<&str, f64>,
) {
    let tot = trace::totals(&traced.spans, traced.clock_ns);
    let t = |name: Name| &tot[name as usize];
    let n = traced.requests.max(1) as f64;
    let self_ns = |names: &[Name]| names.iter().map(|&x| t(x).self_ns as f64).sum::<f64>() / n;
    let timed = &run.timed;
    let reqs = timed.requests.max(1) as f64;
    // Shares compare in-process span times with the served request, both
    // as measured in this run, so the per-request time is unscaled.
    let throughput = raw_throughput(run);

    // Cluster: the client measures a fill as the extra latency of a GET
    // that missed locally; it happens on every local miss.
    let (mut fill_ns, mut probes_per_req, mut peer_hit_ratio) = (0.0, 0.0, 0.0);
    if w.members() > 1 {
        let local = timed.local_hits.max(1) as f64;
        let missed = (timed.gets - timed.local_hits).max(1) as f64;
        fill_ns = (timed.miss_ns as f64 / missed - timed.hit_ns as f64 / local).max(0.0);
        let delta = |f: fn(&clipcache_serve::ServerStats) -> u64| {
            run.stats_after.iter().map(f).sum::<u64>() - run.stats_before.iter().map(f).sum::<u64>()
        };
        let probes = delta(|s| s.stats.requests()).saturating_sub(timed.requests) as f64;
        probes_per_req = probes / reqs;
        peer_hit_ratio = delta(|s| s.peer_hits) as f64 / probes.max(1.0);
    }
    let local_miss_rate = (timed.gets - timed.local_hits) as f64 / reqs;
    let times = LayerTimes {
        per_request: 1e9 / throughput,
        core: self_ns(&[Name::CoreAccess, Name::CoreResidency, Name::CoreSnapshot]),
        service: self_ns(&[Name::Service]),
        persist: self_ns(&[Name::PersistAppend, Name::PersistCheckpoint]),
        protocol: self_ns(&[Name::Decode, Name::Encode]),
        cluster: if w.members() > 1 {
            fill_ns * local_miss_rate
        } else {
            0.0
        },
    };
    let shares = report::shares(&times);
    let per_1k = |name: Name| t(name).count as f64 * 1000.0 / n;
    let sum_after = |f: fn(&clipcache_serve::ServerStats) -> u64| {
        run.stats_after.iter().map(f).sum::<u64>() as f64
    };

    m.insert("core.access_ns_mean", t(Name::CoreAccess).mean());
    m.insert(
        "core.access_ns_p99",
        t(Name::CoreAccess).hist.quantile(0.99),
    );
    m.insert("core.evictions_per_req", traced.counts.evictions as f64 / n);
    m.insert("core.snapshot_ns_mean", t(Name::CoreSnapshot).mean());
    m.insert("core.snapshots_per_1k_req", per_1k(Name::CoreSnapshot));
    m.insert("core.share", shares.core);
    m.insert("service.get_ns_mean", t(Name::Service).mean());
    m.insert(
        "service.self_ns_mean",
        t(Name::Service).self_ns as f64 / t(Name::Service).count.max(1) as f64,
    );
    m.insert("service.share", shares.service);
    m.insert("persist.append_ns_mean", t(Name::PersistAppend).mean());
    m.insert(
        "persist.append_ns_p99",
        t(Name::PersistAppend).hist.quantile(0.99),
    );
    m.insert(
        "persist.checkpoint_ns_mean",
        t(Name::PersistCheckpoint).mean(),
    );
    m.insert(
        "persist.checkpoint_ns_p99",
        t(Name::PersistCheckpoint).hist.quantile(0.99),
    );
    m.insert(
        "persist.checkpoints_per_1k_req",
        per_1k(Name::PersistCheckpoint),
    );
    m.insert(
        "persist.checkpoint_bytes_mean",
        traced.counts.checkpoint_bytes as f64 / t(Name::PersistCheckpoint).count.max(1) as f64,
    );
    m.insert("persist.write_bytes_per_req", run.wchar as f64 / reqs);
    m.insert("persist.open_ms", open_ms);
    m.insert("persist.share", shares.persist);
    m.insert("protocol.decode_ns_mean", t(Name::Decode).mean());
    m.insert("protocol.encode_ns_mean", t(Name::Encode).mean());
    m.insert("protocol.bytes_per_req", timed.wire_bytes as f64 / reqs);
    m.insert("protocol.share", shares.protocol);
    m.insert("server.loop_ns_per_req", shares.server_loop_ns);
    m.insert("server.wakeups_per_req", run.server_switches as f64 / reqs);
    m.insert("server.shed", sum_after(|s| s.shed));
    m.insert("server.share", shares.server);
    m.insert("ring.owners_ns_mean", t(Name::RingOwners).mean());
    m.insert("cluster.probes_per_req", probes_per_req);
    m.insert("cluster.peer_hit_ratio", peer_hit_ratio);
    m.insert("cluster.fill_ns_mean", fill_ns);
    m.insert("cluster.breaker_open", sum_after(|s| s.breaker_open));
    m.insert("cluster.share", shares.cluster);
    m.insert(
        "bench.generator_cpu_share",
        run.generator_cpu_ns as f64 / (run.secs() * 1e9),
    );
    m.insert(
        "bench.trace_overhead_pct",
        (1.0 - plain.secs / traced.secs) * 100.0,
    );
    m.insert("bench.unattributed_share", shares.unattributed);
}
