//! Degradation bench: what dead peers cost, with and without breakers.
//!
//! The cluster tier's peer fill pays a connect timeout every time a
//! miss probes a dead owner. The per-peer circuit breaker
//! ([`clipcache_serve::PeerBreaker`]) bounds that: after
//! `BREAKER_FAILURE_THRESHOLD` consecutive failures the peer is Open
//! and probes are skipped (their write-all half queued as a handoff
//! hint) until a count-based HalfOpen probe notices the revive and
//! replays the hints. This experiment measures the claim on the same
//! in-process [`ClusterHarness`] the chaos golden replays.
//!
//! Sweep: a 6-member, replication-2 LRU cluster; `k` members are
//! SIGKILLed a quarter of the way through the trace and revived at the
//! three-quarter point, for `k / 6` in `0/6 .. 3/6`. Each configuration runs
//! twice — breakers at the shipped thresholds, and a control arm whose
//! breakers never trip (`u32::MAX` failures: the pre-breaker cluster).
//!
//! Reported per arm, all deterministic (no wall clock anywhere):
//!
//! * **hit rate** — client-observed, `(local + peer) / delivered`.
//!   The breaker must be ~free here: the probes it skips would have
//!   failed anyway, and the hinted handoff re-warms revived members.
//! * **modeled request stall, p99 and mean** — each request is costed
//!   from counter deltas: a probe that hit a dead owner pays the
//!   default peer connect timeout (250 ms), a live probe pays 1 ms
//!   round trip, everything else is free. Modeled, not measured: the
//!   replay is single-threaded and seeded, so the figure is
//!   byte-identical at any `--jobs` value. Hint replay on a healed
//!   peer is in-process background work and costs the client nothing.
//!
//! With replication 2 a request has exactly one co-owner to probe, so
//! per-request stall is 0, 1 or 250 ms — the p99 collapses to "does
//! more than 1% of traffic wait on a dead peer?", which is precisely
//! the steady-state guarantee the breaker buys.

use crate::context::ExperimentContext;
use crate::figures::THETA;
use crate::report::{FigureResult, Series};
use clipcache_core::PolicyKind;
use clipcache_media::ClipId;
use clipcache_serve::{CacheService, ClusterError, ClusterHarness, ServiceConfig};
use clipcache_workload::RequestGenerator;
use std::sync::Arc;

/// Cluster size (fixed; the x-axis sweeps the dead fraction of it).
pub const NODES: usize = 6;
/// Dead-member counts swept.
pub const DEAD: [usize; 4] = [0, 1, 2, 3];

const REPLICATION: usize = 2;
const CLIPS: usize = 96;
const RATIO: f64 = 0.25;

/// Modeled cost of a probe into a dead peer: the default peer connect
/// timeout ([`clipcache_serve::ClusterSpec`]'s 250 ms).
const DEAD_PROBE_MS: u64 = 250;
/// Modeled round trip of a probe a live peer answers.
const LIVE_PROBE_MS: u64 = 1;

/// The two arms x three metrics, by cell index.
const ARMS: usize = 2;
const METRICS: usize = 3;

fn members(
    ctx: &ExperimentContext,
    repo: &Arc<clipcache_media::Repository>,
) -> Vec<Arc<CacheService>> {
    (0..NODES)
        .map(|i| {
            let config = ServiceConfig::new(
                PolicyKind::Lru,
                1,
                repo.cache_capacity_for_ratio(RATIO),
                ctx.sub_seed(0xDE64 + i as u64),
            );
            Arc::new(
                CacheService::new(Arc::clone(repo), config, None)
                    .expect("LRU builds without frequencies"),
            )
        })
        .collect()
}

/// One replay: kill `dead` members at 25% of the trace, revive them at
/// 75%, and cost every request from the harness's counter deltas.
/// Returns `(hit rate, p99 stall ms, mean stall ms)`.
fn replay(
    ctx: &ExperimentContext,
    repo: &Arc<clipcache_media::Repository>,
    trace: &[ClipId],
    dead: usize,
    breaker_on: bool,
) -> (f64, f64, f64) {
    let mut harness =
        ClusterHarness::new(ctx.sub_seed(0xDE64_0001), REPLICATION, members(ctx, repo));
    if !breaker_on {
        harness.set_breaker_tuning(u32::MAX, 1);
    }
    let n = trace.len() as u64;
    for node in 0..dead {
        harness.schedule_kill(node, n / 4);
        harness.schedule_revive(node, 3 * n / 4);
    }
    let mut costs: Vec<u64> = Vec::with_capacity(trace.len());
    let mut prev = harness.stats().fill;
    for &clip in trace {
        let filled = match harness.get(clip) {
            // Only a local miss runs a peer fill, the one place probes
            // and probe errors are counted; a local hit costs nothing,
            // and its counters need not be read (each read locks every
            // member).
            Ok(outcome) => !outcome.hit,
            // With k=3 dead of 6 at replication 2, some clips briefly
            // have no alive owner: the router fails fast (the client
            // knows the membership), costing nothing and delivering
            // nothing — hit rate is over delivered requests.
            Err(ClusterError::NoOwnerAlive(_)) => false,
            Err(e) => panic!("degradebench replay failed: {e}"),
        };
        if !filled {
            costs.push(0);
            continue;
        }
        let now = harness.stats().fill;
        // `probes` counts failed probes too; every error is a probe
        // that waited out a dead owner (no fault plan, so no lost
        // replies, and a replay to a just-answered peer cannot fail).
        let dead_probes = now.errors - prev.errors;
        let live_probes = now.probes - prev.probes - dead_probes;
        costs.push(dead_probes * DEAD_PROBE_MS + live_probes * LIVE_PROBE_MS);
        prev = now;
    }
    let stats = harness.stats();
    assert!(stats.conservation_ok(), "degradebench lost a request");
    let mean = costs.iter().sum::<u64>() as f64 / costs.len() as f64;
    costs.sort_unstable();
    let p99 = costs[(costs.len() * 99).div_ceil(100) - 1];
    (stats.hit_rate(), p99 as f64, mean)
}

/// Run the dead-fraction sweep.
pub fn run(ctx: &ExperimentContext) -> Vec<FigureResult> {
    let repo = Arc::new(clipcache_media::paper::variable_sized_repository_of(CLIPS));
    let trace: Vec<ClipId> = RequestGenerator::new(
        CLIPS,
        THETA,
        0,
        ctx.requests(10_000),
        ctx.sub_seed(0xDE64_7E12),
    )
    .map(|req| req.clip)
    .collect();

    let grid: Vec<(usize, usize, usize)> = DEAD
        .iter()
        .enumerate()
        .flat_map(|(di, _)| {
            (0..ARMS).flat_map(move |arm| (0..METRICS).map(move |metric| (di, arm, metric)))
        })
        .collect();
    let cells = ctx.run_points(&grid, |_, &(di, arm, metric)| {
        let (hit, p99, mean) = replay(ctx, &repo, &trace, DEAD[di], arm == 0);
        match metric {
            0 => hit,
            1 => p99,
            _ => mean,
        }
    });

    let names = [
        "hit rate, breaker on",
        "modeled p99 stall (ms), breaker on",
        "modeled mean stall (ms), breaker on",
        "hit rate, breaker off",
        "modeled p99 stall (ms), breaker off",
        "modeled mean stall (ms), breaker off",
    ];
    let series: Vec<Series> = names
        .iter()
        .enumerate()
        .map(|(i, name)| {
            let (arm, metric) = (i / METRICS, i % METRICS);
            let values = (0..DEAD.len())
                .map(|di| cells[(di * ARMS + arm) * METRICS + metric])
                .collect();
            Series::new((*name).to_string(), values)
        })
        .collect();

    vec![FigureResult::new(
        "degradebench",
        "Graceful degradation: hit rate and modeled request stall vs dead-member fraction, \
         circuit breakers on vs off (6 members, replication 2, kill at 25%, revive at 75%)",
        "dead members (of 6)",
        DEAD.iter().map(|k| format!("{k}/6")).collect(),
        series,
    )]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series<'a>(fig: &'a FigureResult, name: &str) -> &'a Series {
        fig.series_named(name).expect("series exists")
    }

    #[test]
    fn breaker_is_invisible_in_a_healthy_cluster() {
        // With zero dead members no breaker ever trips, so both arms
        // replay the identical path — every metric agrees bit for bit.
        let ctx = ExperimentContext::at_scale(0.1);
        let fig = run(&ctx).remove(0);
        for metric in [
            "hit rate",
            "modeled p99 stall (ms)",
            "modeled mean stall (ms)",
        ] {
            let on = series(&fig, &format!("{metric}, breaker on"));
            let off = series(&fig, &format!("{metric}, breaker off"));
            assert_eq!(
                on.values[0], off.values[0],
                "{metric}: healthy-cluster arms diverged"
            );
        }
    }

    #[test]
    fn breaker_slashes_modeled_stall_under_dead_peers() {
        // The headline: at every non-zero dead fraction the breaker arm
        // pays well under half the control arm's mean stall — Open
        // peers are skipped instead of timing out on every miss.
        let ctx = ExperimentContext::at_scale(0.1);
        let fig = run(&ctx).remove(0);
        let on = series(&fig, "modeled mean stall (ms), breaker on");
        let off = series(&fig, "modeled mean stall (ms), breaker off");
        let arms = DEAD.iter().zip(&on.values).zip(&off.values);
        for ((dead, on), off) in arms.skip(1) {
            // At 3/6 dead half the trips are pure overhead (three
            // survivors each discover three dead peers) and many
            // requests fail fast with no alive owner, so the saving is
            // thinner there — but the breaker must never cost stall.
            let margin = if dead * 2 < NODES { 0.55 } else { 0.85 };
            assert!(
                *on < off * margin,
                "dead={}: breaker mean stall {} vs control {} (margin {})",
                dead,
                on,
                off,
                margin
            );
        }
    }

    #[test]
    fn control_arm_tail_waits_on_dead_peers() {
        // Without breakers, well over 1% of the trace stalls on a dead
        // owner's connect timeout, so the control p99 pins at the full
        // timeout; the breaker arm's tail can never be worse.
        let ctx = ExperimentContext::at_scale(0.1);
        let fig = run(&ctx).remove(0);
        let on = series(&fig, "modeled p99 stall (ms), breaker on");
        let off = series(&fig, "modeled p99 stall (ms), breaker off");
        let worst = DEAD.len() - 1;
        assert!(
            off.values[worst] >= DEAD_PROBE_MS as f64,
            "control p99 must include the connect timeout, got {}",
            off.values[worst]
        );
        let arms = DEAD.iter().zip(&on.values).zip(&off.values);
        for ((dead, on), off) in arms.skip(1) {
            assert!(
                on <= off,
                "dead={}: breaker p99 {} exceeds control {}",
                dead,
                on,
                off
            );
        }
    }

    #[test]
    fn breaker_does_not_cost_hit_rate() {
        // The probes the breaker skips were doomed (the peer is dead),
        // and hinted handoff re-warms revived members — so the breaker
        // arm's hit rate stays within noise of the control's.
        let ctx = ExperimentContext::at_scale(0.1);
        let fig = run(&ctx).remove(0);
        let on = series(&fig, "hit rate, breaker on");
        let off = series(&fig, "hit rate, breaker off");
        let arms = DEAD.iter().zip(&on.values).zip(&off.values);
        for ((dead, on), off) in arms {
            assert!(
                (on - off).abs() <= 0.05,
                "dead={}: hit rates diverged: {} vs {}",
                dead,
                on,
                off
            );
        }
    }
}
