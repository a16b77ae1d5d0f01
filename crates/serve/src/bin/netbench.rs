//! `netbench` — the front-end's performance envelope, and the CI perf
//! gate that keeps it from regressing.
//!
//! ```text
//! netbench [--requests n] [--clips n] [--theta f] [--ratio f]
//!          [--seed n|0xHEX] [--shards n] [--depths a,b,c] [--conns a,b,c]
//!          [--out path] [--check baseline.json] [--tolerance f]
//!          [--p99-factor f]
//! ```
//!
//! Starts an in-process epoll server on an ephemeral loopback port and
//! sweeps the binary pipelined loadgen over every `pipeline depth ×
//! connection count` cell, reporting throughput and latency percentiles
//! per cell as JSON. The report *shape* is deterministic (same cells,
//! same keys, same request counts, hit rates bit-stable per cell config)
//! — only the wall-clock numbers vary run to run, which is why this is
//! a serve binary and not a `repro` figure (those are byte-identical).
//!
//! `--check baseline.json` turns the run into a gate: it fails (exit 1)
//! if any cell's throughput drops more than `--tolerance` (default
//! 0.30) below the committed baseline, or its p99 exceeds the
//! baseline's by more than `--p99-factor` (default 10× — generous
//! because shared CI runners have noisy tails; the throughput bound is
//! the tight one). CI runs this against `results/net/BENCH_net.json`.
//! Writing the report and reading the baseline are shared with
//! `walbench` ([`clipcache_serve::cli::publish_and_gate`]); this file
//! holds the cells, the report's shape and the per-cell check.

use clipcache_media::paper;
use clipcache_serve::cli::{parse_u64, publish_and_gate};
use clipcache_serve::{
    run_load_with, serve, CacheService, LoadOptions, ServiceConfig, Target, Wire,
};
use clipcache_workload::{json, RequestGenerator, Trace};
use std::process::ExitCode;
use std::sync::Arc;

struct Args {
    requests: u64,
    clips: usize,
    theta: f64,
    ratio: f64,
    seed: u64,
    shards: usize,
    depths: Vec<usize>,
    conns: Vec<usize>,
    out: Option<String>,
    check: Option<String>,
    tolerance: f64,
    p99_factor: f64,
}

fn parse_list(v: &str, flag: &str) -> Result<Vec<usize>, String> {
    let list: Result<Vec<usize>, _> = v.split(',').map(|s| s.trim().parse()).collect();
    match list {
        Ok(l) if !l.is_empty() && l.iter().all(|&n| n > 0) => Ok(l),
        _ => Err(format!("bad {flag}: need a comma list of positive counts")),
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        requests: 200_000,
        clips: 100,
        theta: 0.27,
        ratio: 0.25,
        seed: 0x5EED_2007,
        shards: 4,
        depths: vec![1, 8, 32],
        conns: vec![1, 4],
        out: None,
        check: None,
        tolerance: 0.30,
        p99_factor: 10.0,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--requests" => {
                let v = argv.next().ok_or("--requests needs a count")?;
                args.requests = v.parse().map_err(|e| format!("bad --requests: {e}"))?;
            }
            "--clips" => {
                let v = argv.next().ok_or("--clips needs a count")?;
                args.clips = v.parse().map_err(|e| format!("bad --clips: {e}"))?;
            }
            "--theta" => {
                let v = argv.next().ok_or("--theta needs a value")?;
                args.theta = v.parse().map_err(|e| format!("bad --theta: {e}"))?;
            }
            "--ratio" => {
                let v = argv.next().ok_or("--ratio needs a fraction")?;
                args.ratio = v.parse().map_err(|e| format!("bad --ratio: {e}"))?;
            }
            "--seed" => {
                let v = argv.next().ok_or("--seed needs a value")?;
                args.seed = parse_u64(&v).map_err(|e| format!("bad --seed: {e}"))?;
            }
            "--shards" => {
                let v = argv.next().ok_or("--shards needs a count")?;
                args.shards = v.parse().map_err(|e| format!("bad --shards: {e}"))?;
                if args.shards == 0 {
                    return Err("--shards must be at least 1".into());
                }
            }
            "--depths" => {
                let v = argv.next().ok_or("--depths needs a comma list")?;
                args.depths = parse_list(&v, "--depths")?;
            }
            "--conns" => {
                let v = argv.next().ok_or("--conns needs a comma list")?;
                args.conns = parse_list(&v, "--conns")?;
            }
            "--out" => args.out = Some(argv.next().ok_or("--out needs a path")?),
            "--check" => args.check = Some(argv.next().ok_or("--check needs a baseline path")?),
            "--tolerance" => {
                let v = argv.next().ok_or("--tolerance needs a fraction")?;
                args.tolerance = v.parse().map_err(|e| format!("bad --tolerance: {e}"))?;
                if !(0.0..1.0).contains(&args.tolerance) {
                    return Err("--tolerance must be in [0, 1)".into());
                }
            }
            "--p99-factor" => {
                let v = argv.next().ok_or("--p99-factor needs a factor")?;
                args.p99_factor = v.parse().map_err(|e| format!("bad --p99-factor: {e}"))?;
                if args.p99_factor < 1.0 {
                    return Err("--p99-factor must be at least 1".into());
                }
            }
            "--help" | "-h" => {
                return Err(
                    "usage: netbench [--requests n] [--clips n] [--theta f] [--ratio f] \
                     [--seed n|0xHEX] [--shards n] [--depths a,b,c] [--conns a,b,c] \
                     [--out path] [--check baseline.json] [--tolerance f] [--p99-factor f]\n\
                     Sweeps the binary pipelined loadgen over pipeline-depth × \
                     connection-count cells against an in-process epoll server on \
                     loopback; --check gates against a committed baseline \
                     (fail on throughput drop > tolerance or p99 > factor × baseline)"
                        .into(),
                )
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

struct Cell {
    depth: usize,
    conns: usize,
    throughput_rps: f64,
    p50_us: f64,
    p99_us: f64,
    hit_rate: f64,
}

/// Render the report. Keys and cell order are deterministic; only the
/// measured values vary.
fn render(args: &Args, cells: &[Cell]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"bench\": \"netbench\",\n  \"version\": 1,\n");
    out.push_str("  \"wire\": \"binary\",\n");
    out.push_str(&format!(
        "  \"requests\": {}, \"clips\": {}, \"shards\": {}, \"seed\": {},\n",
        args.requests, args.clips, args.shards, args.seed
    ));
    out.push_str("  \"cells\": [\n");
    for (i, c) in cells.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"depth\": {}, \"conns\": {}, \"throughput_rps\": {:.0}, \
             \"p50_us\": {:.1}, \"p99_us\": {:.1}, \"hit_rate\": {:.6}}}{}\n",
            c.depth,
            c.conns,
            c.throughput_rps,
            c.p50_us,
            c.p99_us,
            c.hit_rate,
            if i + 1 < cells.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Compare measured cells against a committed baseline.
fn check(
    cells: &[Cell],
    baseline: &json::Json,
    tolerance: f64,
    p99_factor: f64,
) -> Result<(), String> {
    let base_cells = baseline
        .get("cells")
        .and_then(|c| c.as_array())
        .ok_or("baseline has no cells array")?;
    for base in base_cells {
        let depth = base
            .get("depth")
            .and_then(|v| v.as_u64())
            .ok_or("baseline cell missing depth")? as usize;
        let conns = base
            .get("conns")
            .and_then(|v| v.as_u64())
            .ok_or("baseline cell missing conns")? as usize;
        let base_tp = base
            .get("throughput_rps")
            .and_then(|v| v.as_f64())
            .ok_or("baseline cell missing throughput_rps")?;
        let base_p99 = base
            .get("p99_us")
            .and_then(|v| v.as_f64())
            .ok_or("baseline cell missing p99_us")?;
        let Some(cell) = cells.iter().find(|c| c.depth == depth && c.conns == conns) else {
            return Err(format!(
                "baseline cell depth={depth} conns={conns} was not measured \
                 (pass matching --depths/--conns)"
            ));
        };
        let floor = base_tp * (1.0 - tolerance);
        if cell.throughput_rps < floor {
            return Err(format!(
                "REGRESSION depth={depth} conns={conns}: throughput {:.0} req/s \
                 fell below {floor:.0} (baseline {base_tp:.0}, tolerance {tolerance})",
                cell.throughput_rps
            ));
        }
        let ceiling = base_p99 * p99_factor;
        if cell.p99_us > ceiling {
            return Err(format!(
                "REGRESSION depth={depth} conns={conns}: p99 {:.1} µs blew past \
                 {ceiling:.1} µs ({p99_factor}× baseline {base_p99:.1})",
                cell.p99_us
            ));
        }
        println!(
            "ok depth={depth} conns={conns}: {:.0} req/s (baseline {base_tp:.0}), \
             p99 {:.1} µs (baseline {base_p99:.1})",
            cell.throughput_rps, cell.p99_us
        );
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    let repo = Arc::new(paper::variable_sized_repository_of(args.clips));
    let capacity = repo.cache_capacity_for_ratio(args.ratio);
    let trace = Trace::from_generator(RequestGenerator::new(
        args.clips,
        args.theta,
        0,
        args.requests,
        args.seed,
    ));

    let mut cells = Vec::new();
    for &conns in &args.conns {
        for &depth in &args.depths {
            // A fresh service per cell: every cell replays the same
            // trace from cold, so per-cell hit rates depend only on
            // (trace, shards, conns-partitioning) — deterministic.
            let service = match CacheService::new(
                Arc::clone(&repo),
                ServiceConfig::new(
                    clipcache_core::PolicySpec::from(clipcache_core::PolicyKind::Lru),
                    args.shards,
                    capacity,
                    args.seed,
                ),
                None,
            ) {
                Ok(s) => Arc::new(s),
                Err(e) => {
                    eprintln!("cannot build service: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let handle = match serve(service, "127.0.0.1:0") {
                Ok(h) => h,
                Err(e) => {
                    eprintln!("cannot start server: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let target = Target::Tcp(handle.addr().to_string());
            let options = LoadOptions {
                clients: conns,
                wire: Wire::Binary,
                pipeline: depth,
                ..LoadOptions::default()
            };
            let report = match run_load_with(&target, &repo, &trace, &options) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("cell depth={depth} conns={conns} failed: {e}");
                    handle.shutdown();
                    return ExitCode::FAILURE;
                }
            };
            handle.shutdown();
            eprintln!(
                "cell depth={depth} conns={conns}: {:.0} req/s p99={:.1}us",
                report.throughput(),
                report.latency.percentile_nanos(0.99) as f64 / 1_000.0
            );
            cells.push(Cell {
                depth,
                conns,
                throughput_rps: report.throughput(),
                p50_us: report.latency.percentile_nanos(0.5) as f64 / 1_000.0,
                p99_us: report.latency.percentile_nanos(0.99) as f64 / 1_000.0,
                hit_rate: report.observed.hit_rate(),
            });
        }
    }

    let rendered = render(&args, &cells);
    publish_and_gate(
        &rendered,
        args.out.as_deref(),
        args.check.as_deref(),
        |baseline| check(&cells, baseline, args.tolerance, args.p99_factor),
    )
}
