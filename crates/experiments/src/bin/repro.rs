//! `repro` — regenerate the paper's tables and figures.
//!
//! ```text
//! repro [--scale <f64>] [--seed <u64>] [--out <dir>] [--jobs <n>]
//!       [--backend scan|heap] [--custom sweep.json] [all | fig2 fig3 ...]
//! ```
//!
//! Prints each figure as a text table and, when `--out` is given, writes
//! one CSV and one Markdown table per figure into the directory.
//!
//! `--jobs` sets the worker threads of the point-level sweep engine
//! (`clipcache_experiments::sweep`). Experiments run one at a time, each
//! fanning its data points across the pool; every point derives its seed
//! from the experiment context rather than from thread identity, so the
//! output is bit-identical at any `--jobs` value. Seeds accept decimal
//! or `0x`-prefixed hex.
//!
//! `--backend` selects the victim-index backend (default `scan`). The
//! two backends make identical eviction decisions, so every figure is
//! byte-identical either way — CI diffs them to prove it; `heap` only
//! changes how fast victims are found. Policies with time-varying
//! priorities always run on scan regardless of the flag.

use clipcache_experiments::{
    run_experiment, ExperimentContext, FigureResult, SweepStats, ALL_EXPERIMENTS,
};
use clipcache_serve::cli::parse_u64;
use std::io::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    ctx: ExperimentContext,
    out: Option<PathBuf>,
    experiments: Vec<String>,
    custom: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut ctx = ExperimentContext::default();
    let mut out = None;
    let mut experiments = Vec::new();
    let mut custom: Option<String> = None;
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--scale" => {
                let v = argv.next().ok_or("--scale needs a value")?;
                ctx.scale = v.parse().map_err(|e| format!("bad --scale: {e}"))?;
            }
            "--seed" => {
                let v = argv.next().ok_or("--seed needs a value")?;
                ctx.seed = parse_u64(&v).map_err(|e| format!("bad --seed: {e}"))?;
            }
            "--out" => {
                out = Some(PathBuf::from(argv.next().ok_or("--out needs a value")?));
            }
            "--jobs" => {
                let v = argv.next().ok_or("--jobs needs a value")?;
                ctx.jobs = v.parse().map_err(|e| format!("bad --jobs: {e}"))?;
                if ctx.jobs == 0 {
                    return Err("--jobs must be at least 1".into());
                }
            }
            "--backend" => {
                let v = argv.next().ok_or("--backend needs scan or heap")?;
                ctx.backend = v.parse().map_err(|e| format!("bad --backend: {e}"))?;
            }
            "--custom" => {
                let path = argv.next().ok_or("--custom needs a JSON file")?;
                custom = Some(path);
            }
            "--list" => {
                return Err(clipcache_experiments::ALL_EXPERIMENTS
                    .iter()
                    .map(|id| {
                        format!(
                            "{id:<12} {}",
                            clipcache_experiments::describe(id).unwrap_or("")
                        )
                    })
                    .collect::<Vec<_>>()
                    .join("\n"));
            }
            "--help" | "-h" => {
                return Err(format!(
                    "usage: repro [--scale f] [--seed n|0xHEX] [--out dir] \
       [--jobs n] [--backend scan|heap] [--custom sweep.json] [--list] \
       [all | {}]\n\
       --jobs fans each experiment's data points across n worker \
       threads; results are bit-identical at any value\n\
       --backend picks the victim-index backend; heap accelerates \
       victim selection without changing any figure",
                    ALL_EXPERIMENTS.join(" | ")
                ));
            }
            "all" => experiments.extend(ALL_EXPERIMENTS.iter().map(|s| s.to_string())),
            other if other.starts_with('-') => return Err(format!("unknown flag {other}")),
            other => experiments.push(other.to_string()),
        }
    }
    if experiments.is_empty() && custom.is_none() {
        experiments.extend(ALL_EXPERIMENTS.iter().map(|s| s.to_string()));
    }
    Ok(Args {
        ctx,
        out,
        experiments,
        custom,
    })
}

/// Print a figure (text table, or sparklines when too wide for the
/// console) and, when `--out` is given, write its CSV and Markdown
/// files. Shared by the built-in and `--custom` paths.
fn emit_figures(
    figs: &[FigureResult],
    out: Option<&PathBuf>,
    sink: &mut impl std::io::Write,
) -> Result<(), String> {
    for fig in figs {
        // Hundreds of columns render unreadably; wide figures get
        // sparklines on the console (the CSV keeps full precision).
        if fig.x.len() > 24 {
            let _ = writeln!(sink, "{}", fig.to_sparklines());
        } else {
            let _ = writeln!(sink, "{}", fig.to_text_table());
        }
        if let Some(dir) = out {
            let path = dir.join(format!("{}.csv", fig.id));
            std::fs::write(&path, fig.to_csv())
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
            let md = dir.join(format!("{}.md", fig.id));
            std::fs::write(&md, fig.to_markdown())
                .map_err(|e| format!("cannot write {}: {e}", md.display()))?;
        }
    }
    Ok(())
}

/// The per-experiment summary line: wall clock, plus the sweep engine's
/// per-point accounting (point count, summed point compute time, and the
/// realized parallel speedup) when the experiment ran any points.
fn summary_line(id: &str, secs: f64, stats: &SweepStats) -> String {
    let points = stats.points();
    if points == 0 {
        return format!("[{id} finished in {secs:.1}s]\n");
    }
    let busy = stats.busy().as_secs_f64();
    let realized = if secs > 0.0 { busy / secs } else { 1.0 };
    format!(
        "[{id} finished in {secs:.1}s — {points} points, \
         {busy:.1}s point-compute, {realized:.1}x realized]\n"
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(dir) = &args.out {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
    }
    let stdout = std::io::stdout();
    let mut lock = stdout.lock();
    if let Some(path) = &args.custom {
        let json = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("cannot read {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let sweep = match clipcache_experiments::custom::CustomSweep::from_json(&json) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("{path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let ctx = args.ctx.fork();
        let started = std::time::Instant::now();
        match sweep.run_with(&ctx) {
            Ok(figs) => {
                if let Err(e) = emit_figures(&figs, args.out.as_ref(), &mut lock) {
                    eprintln!("{e}");
                    return ExitCode::FAILURE;
                }
                let _ = writeln!(
                    lock,
                    "{}",
                    summary_line(&sweep.id, started.elapsed().as_secs_f64(), &ctx.stats)
                );
            }
            Err(e) => {
                eprintln!("{path}: {e}");
                return ExitCode::FAILURE;
            }
        }
        if args.experiments.is_empty() {
            return ExitCode::SUCCESS;
        }
    }
    for id in &args.experiments {
        if !ALL_EXPERIMENTS.contains(&id.as_str()) {
            eprintln!(
                "unknown experiment '{id}' (try: all {})",
                ALL_EXPERIMENTS.join(" ")
            );
            return ExitCode::FAILURE;
        }
    }

    // Experiments run one at a time in submission order; each fans its
    // own data points across the `--jobs` worker pool (a fork per
    // experiment keeps the per-point accounting separate).
    for id in &args.experiments {
        let ctx = args.ctx.fork();
        let started = std::time::Instant::now();
        let results = run_experiment(id, &ctx).expect("validated above");
        if let Err(e) = emit_figures(&results, args.out.as_ref(), &mut lock) {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
        let _ = writeln!(
            lock,
            "{}",
            summary_line(id, started.elapsed().as_secs_f64(), &ctx.stats)
        );
    }
    ExitCode::SUCCESS
}
