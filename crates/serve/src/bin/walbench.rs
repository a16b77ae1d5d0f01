//! `walbench` — the durable write path's performance envelope: what the
//! group-commit window buys, and what segmented recovery costs.
//!
//! ```text
//! walbench [--requests n] [--threads n] [--windows a,b,c]
//!          [--histories a,b,c] [--segment-bytes n] [--clips n] [--seed n|0xHEX]
//!          [--out path] [--check baseline.json] [--tolerance f]
//!          [--recovery-factor f]
//! ```
//!
//! Two sweeps, both over real disks and real fsyncs:
//!
//! * **commit cells** — acked-durable throughput under `--wal-sync
//!   always` for each `--commit-window-us` value: `--threads` workers
//!   drive a persistent in-process [`CacheService`] and every reply
//!   waits for its record's batched fsync. At window 0 the fsync
//!   leader syncs at once, and workers that commit during its fsync
//!   share the next one; wider windows let the leader wait for more
//!   riders first. With a closed-loop load the batch saturates at the
//!   worker count, so past ~100 µs the curve plateaus (and wobbles
//!   with scheduler jitter) rather than keeps climbing.
//! * **recovery cells** — wall-clock reopen time versus WAL history,
//!   with and without a covering checkpoint. Without one, replay work
//!   grows with the log; with one, the checkpoint subsumes every
//!   segment and recovery stays flat no matter how long the history.
//!
//! The report *shape* is deterministic (same cells, same keys); the
//! wall-clock numbers vary run to run, which is why this is a serve
//! binary and not a `repro` figure. `--check baseline.json` turns the
//! run into a gate: it fails (exit 1) if any commit cell's throughput
//! drops more than `--tolerance` (default 0.50 — fsync timing on
//! shared runners is noisy) below the committed baseline, or any
//! recovery cell exceeds the baseline's by more than
//! `--recovery-factor` (default 10×). CI runs this against
//! `results/wal/BENCH_wal.json`. Writing the report and reading the
//! baseline are shared with `netbench`
//! ([`clipcache_serve::cli::publish_and_gate`]); `--seed` takes decimal
//! or `0x` hex, like every other binary.

use clipcache_core::snapshot::CacheSnapshot;
use clipcache_core::PolicyKind;
use clipcache_media::{paper, ByteSize, ClipId};
use clipcache_serve::cli::{parse_u64, publish_and_gate};
use clipcache_serve::persist::{DurableCheckpoint, ShardStore, WalOp, WalSync, WalTuning};
use clipcache_serve::{CacheService, PersistOptions, ServiceConfig};
use clipcache_sim::metrics::HitStats;
use clipcache_workload::{json, Timestamp};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

struct Args {
    requests: u64,
    threads: usize,
    windows: Vec<u64>,
    histories: Vec<u64>,
    segment_bytes: u64,
    clips: usize,
    seed: u64,
    out: Option<String>,
    check: Option<String>,
    tolerance: f64,
    recovery_factor: f64,
}

fn parse_list(v: &str, flag: &str) -> Result<Vec<u64>, String> {
    let list: Result<Vec<u64>, _> = v.split(',').map(|s| s.trim().parse()).collect();
    match list {
        Ok(l) if !l.is_empty() => Ok(l),
        _ => Err(format!("bad {flag}: need a comma list of counts")),
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        requests: 16_000,
        threads: 4,
        windows: vec![0, 50, 100],
        histories: vec![10_000, 40_000],
        segment_bytes: 256 * 1024,
        clips: 24,
        seed: 0x5EED_2009,
        out: None,
        check: None,
        tolerance: 0.50,
        recovery_factor: 10.0,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--requests" => {
                let v = argv.next().ok_or("--requests needs a count")?;
                args.requests = v.parse().map_err(|e| format!("bad --requests: {e}"))?;
            }
            "--threads" => {
                let v = argv.next().ok_or("--threads needs a count")?;
                args.threads = v.parse().map_err(|e| format!("bad --threads: {e}"))?;
                if args.threads == 0 {
                    return Err("--threads must be at least 1".into());
                }
            }
            "--windows" => {
                let v = argv.next().ok_or("--windows needs a comma list (µs)")?;
                args.windows = parse_list(&v, "--windows")?;
            }
            "--histories" => {
                let v = argv.next().ok_or("--histories needs a comma list")?;
                args.histories = parse_list(&v, "--histories")?;
            }
            "--segment-bytes" => {
                let v = argv.next().ok_or("--segment-bytes needs a size")?;
                args.segment_bytes = v.parse().map_err(|e| format!("bad --segment-bytes: {e}"))?;
                if args.segment_bytes == 0 {
                    return Err("--segment-bytes must be at least 1".into());
                }
            }
            "--clips" => {
                let v = argv.next().ok_or("--clips needs a count")?;
                args.clips = v.parse().map_err(|e| format!("bad --clips: {e}"))?;
            }
            "--seed" => {
                let v = argv.next().ok_or("--seed needs a value")?;
                args.seed = parse_u64(&v).map_err(|e| format!("bad --seed: {e}"))?;
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
            "--recovery-factor" => {
                let v = argv.next().ok_or("--recovery-factor needs a factor")?;
                args.recovery_factor = v
                    .parse()
                    .map_err(|e| format!("bad --recovery-factor: {e}"))?;
                if args.recovery_factor < 1.0 {
                    return Err("--recovery-factor must be at least 1".into());
                }
            }
            "--help" | "-h" => {
                return Err(
                    "usage: walbench [--requests n] [--threads n] [--windows a,b,c] \
                     [--histories a,b,c] [--segment-bytes n] [--clips n] [--seed n|0xHEX] \
                     [--out path] [--check baseline.json] [--tolerance f] \
                     [--recovery-factor f]\n\
                     Measures acked-durable throughput per --commit-window-us value \
                     (concurrent workers, --wal-sync always) and recovery wall-clock \
                     per WAL history length (with/without a covering checkpoint); \
                     --check gates against a committed baseline"
                        .into(),
                )
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

struct CommitCell {
    window_us: u64,
    throughput_rps: f64,
}

struct RecoveryCell {
    history: u64,
    checkpointed: bool,
    recovery_ms: f64,
    replayed: u64,
    segments: u64,
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("clipcache-walbench-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// One commit cell: the best of three trials, each `threads` workers
/// hammering a persistent service with `--wal-sync always` and the
/// given batch window; every acked reply waited for a durable fsync.
/// Best-of-N because fsync scheduling on shared machines is noisy and
/// the cell measures the path's capability, not one run's luck.
fn run_commit_cell(args: &Args, window_us: u64) -> Result<CommitCell, String> {
    let mut best = 0.0f64;
    for trial in 0..3 {
        let cell = run_commit_trial(args, window_us, trial)?;
        best = best.max(cell);
    }
    Ok(CommitCell {
        window_us,
        throughput_rps: best,
    })
}

/// One timed trial of a commit cell; returns acked-durable req/s.
fn run_commit_trial(args: &Args, window_us: u64, trial: u32) -> Result<f64, String> {
    let dir = scratch(&format!("commit-{window_us}-{trial}"));
    let repo = Arc::new(paper::equi_sized_repository_of(
        args.clips,
        ByteSize::mb(10),
    ));
    let config = ServiceConfig::new(
        PolicyKind::Lru,
        1,
        ByteSize::mb(10 * args.clips as u64),
        args.seed,
    )
    .with_checkpoint_every(u64::MAX);
    let opts = PersistOptions {
        dir: dir.clone(),
        sync: WalSync::Always,
        crash: None,
        on_crash: clipcache_serve::CrashAction::Surface,
        tuning: WalTuning {
            segment_bytes: args.segment_bytes,
            commit_window: Duration::from_micros(window_us),
        },
    };
    let (service, _) = CacheService::open_persistent(Arc::clone(&repo), config, None, &opts)
        .map_err(|e| format!("cannot open durable service: {e}"))?;
    let service = Arc::new(service);
    let per_thread = args.requests / args.threads as u64;
    let clips = args.clips as u32;
    let started = Instant::now();
    let workers: Vec<_> = (0..args.threads)
        .map(|w| {
            let service = Arc::clone(&service);
            std::thread::spawn(move || -> Result<(), String> {
                for i in 0..per_thread {
                    let clip = ClipId::new(((i * 7 + w as u64 * 3) % clips as u64) as u32 + 1);
                    service
                        .get(clip)
                        .map_err(|e| format!("worker {w} request {i}: {e}"))?;
                }
                Ok(())
            })
        })
        .collect();
    for worker in workers {
        worker.join().map_err(|_| "worker panicked".to_string())??;
    }
    let elapsed = started.elapsed();
    drop(service);
    let _ = std::fs::remove_dir_all(&dir);
    let acked = per_thread * args.threads as u64;
    Ok(acked as f64 / elapsed.as_secs_f64())
}

/// A checkpoint covering through `seq`, over a throwaway cache — only
/// its `seq` matters to the recovery scan.
fn checkpoint_at(seq: u64) -> DurableCheckpoint {
    let repo = Arc::new(paper::equi_sized_repository_of(4, ByteSize::mb(1)));
    let cache = PolicyKind::Lru.build(repo, ByteSize::mb(4), 1, None);
    DurableCheckpoint {
        snapshot: CacheSnapshot::take(cache.as_ref(), PolicyKind::Lru, Timestamp(seq)),
        stats: HitStats::new(),
        seq,
    }
}

/// One recovery cell: build a `history`-record segmented log at the
/// store level, optionally checkpoint it, and time the reopen.
fn run_recovery_cell(
    args: &Args,
    history: u64,
    checkpointed: bool,
) -> Result<RecoveryCell, String> {
    let dir = scratch(&format!("recover-{history}-{checkpointed}"));
    let tuning = WalTuning {
        segment_bytes: args.segment_bytes,
        commit_window: Duration::ZERO,
    };
    {
        let (mut store, _) = ShardStore::open_tuned(&dir, WalSync::Off, tuning)
            .map_err(|e| format!("cannot create store: {e}"))?;
        for i in 1..=history {
            store
                .append(WalOp::Get, ClipId::new((i % args.clips as u64) as u32 + 1))
                .map_err(|e| format!("append {i}: {e}"))?;
        }
        if checkpointed {
            store
                .checkpoint(&checkpoint_at(history))
                .map_err(|e| format!("checkpoint: {e}"))?;
        }
    }
    let started = Instant::now();
    let (store, state) = ShardStore::open_tuned(&dir, WalSync::Off, tuning)
        .map_err(|e| format!("recovery open: {e}"))?;
    let elapsed = started.elapsed();
    let (oldest, newest) = store.segment_span();
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(RecoveryCell {
        history,
        checkpointed,
        recovery_ms: elapsed.as_secs_f64() * 1_000.0,
        replayed: state.records.len() as u64,
        segments: newest - oldest + 1,
    })
}

/// Render the report. Keys and cell order are deterministic; only the
/// measured values vary.
fn render(args: &Args, commits: &[CommitCell], recoveries: &[RecoveryCell]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"bench\": \"walbench\",\n  \"version\": 1,\n");
    out.push_str(&format!(
        "  \"requests\": {}, \"threads\": {}, \"segment_bytes\": {}, \"seed\": {},\n",
        args.requests, args.threads, args.segment_bytes, args.seed
    ));
    out.push_str("  \"commit_cells\": [\n");
    for (i, c) in commits.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"window_us\": {}, \"throughput_rps\": {:.0}}}{}\n",
            c.window_us,
            c.throughput_rps,
            if i + 1 < commits.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n  \"recovery_cells\": [\n");
    for (i, c) in recoveries.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"history\": {}, \"checkpointed\": {}, \"recovery_ms\": {:.2}, \
             \"replayed\": {}, \"segments\": {}}}{}\n",
            c.history,
            c.checkpointed,
            c.recovery_ms,
            c.replayed,
            c.segments,
            if i + 1 < recoveries.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Compare measured cells against a committed baseline.
fn check(
    commits: &[CommitCell],
    recoveries: &[RecoveryCell],
    baseline: &json::Json,
    tolerance: f64,
    recovery_factor: f64,
) -> Result<(), String> {
    let base_commits = baseline
        .get("commit_cells")
        .and_then(|c| c.as_array())
        .ok_or("baseline has no commit_cells array")?;
    for base in base_commits {
        let window = base
            .get("window_us")
            .and_then(|v| v.as_u64())
            .ok_or("baseline commit cell missing window_us")?;
        let base_tp = base
            .get("throughput_rps")
            .and_then(|v| v.as_f64())
            .ok_or("baseline commit cell missing throughput_rps")?;
        let Some(cell) = commits.iter().find(|c| c.window_us == window) else {
            return Err(format!(
                "baseline commit cell window_us={window} was not measured \
                 (pass a matching --windows)"
            ));
        };
        let floor = base_tp * (1.0 - tolerance);
        if cell.throughput_rps < floor {
            return Err(format!(
                "REGRESSION window_us={window}: acked-durable {:.0} req/s fell \
                 below {floor:.0} (baseline {base_tp:.0}, tolerance {tolerance})",
                cell.throughput_rps
            ));
        }
        println!(
            "ok window_us={window}: {:.0} req/s (baseline {base_tp:.0})",
            cell.throughput_rps
        );
    }
    let base_recoveries = baseline
        .get("recovery_cells")
        .and_then(|c| c.as_array())
        .ok_or("baseline has no recovery_cells array")?;
    for base in base_recoveries {
        let history = base
            .get("history")
            .and_then(|v| v.as_u64())
            .ok_or("baseline recovery cell missing history")?;
        let checkpointed = matches!(base.get("checkpointed"), Some(json::Json::Bool(true)));
        let base_ms = base
            .get("recovery_ms")
            .and_then(|v| v.as_f64())
            .ok_or("baseline recovery cell missing recovery_ms")?;
        let Some(cell) = recoveries
            .iter()
            .find(|c| c.history == history && c.checkpointed == checkpointed)
        else {
            return Err(format!(
                "baseline recovery cell history={history} checkpointed={checkpointed} \
                 was not measured (pass a matching --histories)"
            ));
        };
        // Floor the ceiling at 50 ms: sub-millisecond baselines would
        // otherwise gate on scheduler noise.
        let ceiling = (base_ms * recovery_factor).max(50.0);
        if cell.recovery_ms > ceiling {
            return Err(format!(
                "REGRESSION history={history} checkpointed={checkpointed}: recovery \
                 took {:.2} ms, past {ceiling:.2} ms ({recovery_factor}× baseline \
                 {base_ms:.2})",
                cell.recovery_ms
            ));
        }
        println!(
            "ok history={history} checkpointed={checkpointed}: {:.2} ms \
             (baseline {base_ms:.2}), replayed {}",
            cell.recovery_ms, cell.replayed
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

    let mut commits = Vec::new();
    for &window_us in &args.windows {
        match run_commit_cell(&args, window_us) {
            Ok(cell) => {
                eprintln!(
                    "commit window_us={window_us}: {:.0} acked-durable req/s",
                    cell.throughput_rps
                );
                commits.push(cell);
            }
            Err(e) => {
                eprintln!("commit cell window_us={window_us} failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let mut recoveries = Vec::new();
    for &history in &args.histories {
        for checkpointed in [false, true] {
            match run_recovery_cell(&args, history, checkpointed) {
                Ok(cell) => {
                    eprintln!(
                        "recovery history={history} checkpointed={checkpointed}: \
                         {:.2} ms, replayed {}, {} segment(s)",
                        cell.recovery_ms, cell.replayed, cell.segments
                    );
                    recoveries.push(cell);
                }
                Err(e) => {
                    eprintln!("recovery cell history={history} failed: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
    }

    let rendered = render(&args, &commits, &recoveries);
    publish_and_gate(
        &rendered,
        args.out.as_deref(),
        args.check.as_deref(),
        |baseline| {
            check(
                &commits,
                &recoveries,
                baseline,
                args.tolerance,
                args.recovery_factor,
            )
        },
    )
}
