//! `simulate` — run one cache simulation with any policy and workload.
//!
//! ```text
//! simulate --policy dynsimple:2 [--repo variable|equi|lognormal]
//!          [--ratio 0.125] [--clips 576] [--theta 0.27]
//!          [--requests 10000] [--seed 7] [--shift g]
//!          [--locality p] [--trace FILE] [--window 100] [--series]
//! ```
//!
//! Prints the hit rate, byte hit rate, eviction count and final cache
//! composition; `--series` additionally prints the per-window hit-rate
//! series. `--trace` replays a recorded trace (JSON or plain text)
//! instead of generating one. `--policy` accepts every registry spelling
//! (the legacy `@heap` suffix, `greedydual@heap`, still parses and
//! changes nothing).

use clipcache_core::snapshot::{restore, CacheSnapshot};
use clipcache_core::PolicySpec;
use clipcache_media::{paper, MediaType, Repository};
use clipcache_sim::runner::{simulate, SimulationConfig};
use clipcache_workload::locality::StackModelGenerator;
use clipcache_workload::synthetic::{lognormal_repository, LognormalSpec};
use clipcache_workload::{RequestGenerator, ShiftedZipf, Trace, Zipf};
use std::process::ExitCode;
use std::sync::Arc;

use clipcache_experiments::cli::{flag_value as flag, has_flag as has};

fn fail(msg: &str) -> ExitCode {
    eprintln!("{msg}");
    eprintln!(
        "usage: simulate --policy P [--repo variable|equi|lognormal] [--ratio R] \
         [--clips N] [--theta T] [--requests N] [--seed S] [--shift G] \
         [--locality P] [--trace FILE] [--window W] [--series] \
         [--restore SNAP] [--snapshot-out SNAP]"
    );
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || has(&args, "--help") || has(&args, "-h") {
        return fail("simulate: trace-driven cache simulation");
    }

    // Comma-separated policies run side by side on the identical trace.
    let policy_spec = flag(&args, "--policy").unwrap_or("dynsimple:2");
    let mut policies: Vec<PolicySpec> = Vec::new();
    for part in policy_spec.split(',') {
        match part.parse() {
            Ok(p) => policies.push(p),
            Err(e) => return fail(&e),
        }
    }
    let policy = policies[0];
    let clips: usize = flag(&args, "--clips").unwrap_or("576").parse().unwrap_or(0);
    if clips == 0 {
        return fail("--clips must be a positive integer");
    }
    let theta: f64 = match flag(&args, "--theta").unwrap_or("0.27").parse() {
        Ok(t) if (0.0..1.0).contains(&t) => t,
        _ => return fail("--theta must be in [0, 1)"),
    };
    let ratio: f64 = match flag(&args, "--ratio").unwrap_or("0.125").parse() {
        Ok(r) if (0.0..=1.0).contains(&r) => r,
        _ => return fail("--ratio must be in [0, 1]"),
    };
    let requests: u64 = flag(&args, "--requests")
        .unwrap_or("10000")
        .parse()
        .unwrap_or(0);
    if requests == 0 {
        return fail("--requests must be a positive integer");
    }
    let seed: u64 = flag(&args, "--seed").unwrap_or("7").parse().unwrap_or(7);
    let shift: usize = flag(&args, "--shift").unwrap_or("0").parse().unwrap_or(0);
    let window: u64 = flag(&args, "--window")
        .unwrap_or("100")
        .parse()
        .unwrap_or(100);

    let repo: Arc<Repository> = match flag(&args, "--repo").unwrap_or("variable") {
        "variable" => Arc::new(paper::variable_sized_repository_of(clips)),
        "equi" => Arc::new(paper::equi_sized_repository_of(
            clips,
            clipcache_media::ByteSize::gb(1),
        )),
        "lognormal" => Arc::new(lognormal_repository(
            LognormalSpec {
                clips,
                ..LognormalSpec::default()
            },
            seed,
        )),
        other => return fail(&format!("unknown --repo {other}")),
    };

    // Workload: recorded trace, locality model, or the paper's IRM Zipf.
    let trace = if let Some(path) = flag(&args, "--trace") {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => return fail(&format!("cannot read {path}: {e}")),
        };
        match Trace::from_json(&text).or_else(|_| Trace::from_plain_text(&text)) {
            Ok(t) => t,
            Err(e) => return fail(&format!("{path} is not a valid trace: {e}")),
        }
    } else if let Some(p) = flag(&args, "--locality") {
        let locality: f64 = match p.parse() {
            Ok(l) if (0.0..=1.0f64).contains(&l) => l,
            _ => return fail("--locality must be in [0, 1]"),
        };
        Trace::from_requests(
            StackModelGenerator::new(clips, theta, locality, 16, requests, seed).collect(),
        )
    } else {
        Trace::from_generator(RequestGenerator::new(clips, theta, shift, requests, seed))
    };
    if let Some(max) = trace.iter().map(|r| r.clip.get() as usize).max() {
        if max > repo.len() {
            return fail(&format!(
                "trace references clip {max} but the repository has {} clips",
                repo.len()
            ));
        }
    }

    let capacity = repo.cache_capacity_for_ratio(ratio);
    let freqs = ShiftedZipf::new(Zipf::new(repo.len(), theta), shift).frequencies();
    let mut trace = trace;
    let mut cache = if let Some(path) = flag(&args, "--restore") {
        let json = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => return fail(&format!("cannot read {path}: {e}")),
        };
        let snap = match CacheSnapshot::from_json(&json) {
            Ok(s) => s,
            Err(e) => return fail(&format!("{path} is not a snapshot: {e}")),
        };
        match restore(&snap, Arc::clone(&repo), seed, Some(&freqs)) {
            Ok((c, tick)) => {
                eprintln!(
                    "restored {} residents from {path} (resuming at {tick})",
                    snap.resident.len()
                );
                // Keep the virtual clock monotone across the restart.
                trace = trace.with_time_offset(tick.get());
                c
            }
            Err(e) => return fail(&e.to_string()),
        }
    } else {
        match policy.try_build(Arc::clone(&repo), capacity, seed, Some(&freqs)) {
            Ok(c) => c,
            Err(e) => return fail(&e.to_string()),
        }
    };
    let config = SimulationConfig {
        window,
        ..SimulationConfig::default()
    };
    if policies.len() > 1 {
        // Comparison mode: run every policy on the identical trace.
        println!(
            "{:<28} {:>10} {:>14} {:>11} {:>11}",
            "policy", "hit rate", "byte hit rate", "evictions", "residents"
        );
        for p in &policies {
            let mut c = match p.try_build(Arc::clone(&repo), capacity, seed, Some(&freqs)) {
                Ok(c) => c,
                Err(e) => return fail(&e.to_string()),
            };
            let r = simulate(c.as_mut(), &repo, trace.requests(), &config);
            println!(
                "{:<28} {:>9.2}% {:>13.2}% {:>11} {:>11}",
                r.policy,
                r.hit_rate() * 100.0,
                r.byte_hit_rate() * 100.0,
                r.stats.evictions,
                c.resident_count()
            );
        }
        return ExitCode::SUCCESS;
    }
    let report = simulate(cache.as_mut(), &repo, trace.requests(), &config);

    println!("policy:        {}", report.policy);
    println!(
        "repository:    {} clips, S_DB = {}",
        repo.len(),
        repo.total_size()
    );
    println!("cache:         {capacity} (S_T/S_DB = {ratio})");
    println!("requests:      {}", report.stats.requests());
    println!(
        "hit rate:      {:.2}%  ({} hits)",
        report.hit_rate() * 100.0,
        report.stats.hits
    );
    println!("byte hit rate: {:.2}%", report.byte_hit_rate() * 100.0);
    println!("evictions:     {}", report.stats.evictions);
    let resident = cache.resident_clips();
    let audio = resident
        .iter()
        .filter(|&&c| repo.clip(c).media == MediaType::Audio)
        .count();
    println!(
        "residents:     {} clips ({} audio, {} video), {} used",
        resident.len(),
        audio,
        resident.len() - audio,
        cache.used()
    );
    if let Some(path) = flag(&args, "--snapshot-out") {
        let last_tick = trace
            .requests()
            .last()
            .map(|r| r.at)
            .unwrap_or(clipcache_workload::Timestamp::ZERO);
        let snap = CacheSnapshot::take(cache.as_ref(), policy, last_tick);
        if let Err(e) = std::fs::write(path, snap.to_json()) {
            return fail(&format!("cannot write {path}: {e}"));
        }
        println!("snapshot:      {} residents -> {path}", snap.resident.len());
    }
    if has(&args, "--series") {
        println!("hit rate per {window}-request window:");
        for (i, p) in report.series.points().iter().enumerate() {
            println!("  {:>8}  {:.1}%", (i as u64 + 1) * window, p * 100.0);
        }
    }
    ExitCode::SUCCESS
}
