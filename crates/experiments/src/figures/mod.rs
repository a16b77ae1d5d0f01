//! One module per paper figure, plus shared sweep machinery.

pub mod fig2;
pub mod fig3;
pub mod fig5;
pub mod fig6;
pub mod fig7;

use crate::context::ExperimentContext;
use crate::report::Series;
use clipcache_core::PolicyKind;
use clipcache_media::Repository;
use clipcache_sim::metrics::theoretical_hit_rate;
use clipcache_sim::runner::{simulate, SimulationConfig};
use clipcache_workload::{PhaseSchedule, RequestGenerator, ShiftedZipf, Trace, Zipf};
use std::sync::Arc;

/// The paper's Zipf parameter.
pub const THETA: f64 = 0.27;

/// Hit-rate and byte-hit-rate series for `policies` across a cache-size
/// ratio sweep. All policies replay the identical trace (footnote 5);
/// off-line policies receive the accurate unshifted frequencies.
pub(crate) fn ratio_sweep(
    ctx: &ExperimentContext,
    repo: &Arc<Repository>,
    policies: &[PolicyKind],
    ratios: &[f64],
    paper_requests: u64,
    fig_tag: u64,
) -> (Vec<Series>, Vec<Series>) {
    let requests = ctx.requests(paper_requests);
    let trace = Trace::from_generator(RequestGenerator::new(
        repo.len(),
        THETA,
        0,
        requests,
        ctx.sub_seed(fig_tag),
    ));
    let freqs = ShiftedZipf::new(Zipf::new(repo.len(), THETA), 0).frequencies();
    let config = SimulationConfig::default();

    // Every (policy, ratio) cell is an independent simulation point:
    // fresh cache, shared immutable trace/frequencies. Fan the whole
    // grid out and reassemble rows afterwards — results are identical
    // at any `ctx.jobs` because each point's seed depends only on
    // (fig_tag, pi), never on scheduling.
    let grid: Vec<(usize, f64)> = policies
        .iter()
        .enumerate()
        .flat_map(|(pi, _)| ratios.iter().map(move |&ratio| (pi, ratio)))
        .collect();
    let cells = ctx.run_points(&grid, |_, &(pi, ratio)| {
        let capacity = repo.cache_capacity_for_ratio(ratio);
        let mut cache = policies[pi].build(
            Arc::clone(repo),
            capacity,
            ctx.policy_seed(fig_tag, pi),
            Some(&freqs),
        );
        let report = simulate(cache.as_mut(), repo, trace.requests(), &config);
        (report.hit_rate(), report.byte_hit_rate())
    });

    let mut hit_series = Vec::with_capacity(policies.len());
    let mut byte_series = Vec::with_capacity(policies.len());
    for (pi, policy) in policies.iter().enumerate() {
        let row = &cells[pi * ratios.len()..(pi + 1) * ratios.len()];
        hit_series.push(Series::new(
            policy.to_string(),
            row.iter().map(|&(h, _)| h).collect(),
        ));
        byte_series.push(Series::new(
            policy.to_string(),
            row.iter().map(|&(_, b)| b).collect(),
        ));
    }
    (hit_series, byte_series)
}

/// The Figure 6.a / 7.a protocol: phases of requests, one per shift-id,
/// run *sequentially* against the same cache; at each phase end the
/// theoretical hit rate (resident mass under that phase's accurate
/// frequencies) is recorded. Off-line policies are re-informed at each
/// phase boundary.
pub(crate) fn adaptivity_sweep(
    ctx: &ExperimentContext,
    repo: &Arc<Repository>,
    policies: &[PolicyKind],
    shifts: &[usize],
    paper_requests_per_phase: u64,
    fig_tag: u64,
) -> Vec<Series> {
    let per_phase = ctx.requests(paper_requests_per_phase);
    let zipf = Zipf::new(repo.len(), THETA);
    // One deterministic trace covering all phases, shared by all policies.
    let schedule =
        PhaseSchedule::from_pairs(&shifts.iter().map(|&g| (per_phase, g)).collect::<Vec<_>>());
    let trace = Trace::from_generator(RequestGenerator::with_schedule(
        repo.len(),
        THETA,
        schedule,
        ctx.sub_seed(fig_tag),
    ));

    // Phases are sequential *within* a policy (one cache lives across
    // all of them), so the parallel unit here is the policy.
    let points: Vec<usize> = (0..policies.len()).collect();
    ctx.run_points(&points, |_, &pi| {
        let phase0_freqs = ShiftedZipf::new(zipf.clone(), shifts[0]).frequencies();
        let mut cache = policies[pi].build(
            Arc::clone(repo),
            repo.cache_capacity_for_ratio(0.125),
            ctx.policy_seed(fig_tag, pi),
            Some(&phase0_freqs),
        );
        let mut values = Vec::with_capacity(shifts.len());
        for (phase, &g) in shifts.iter().enumerate() {
            let freqs = ShiftedZipf::new(zipf.clone(), g).frequencies();
            cache.inform_frequencies(&freqs);
            let from = phase * per_phase as usize;
            let to = from + per_phase as usize;
            for req in trace.slice(from, to) {
                cache.access(req.clip, req.at);
            }
            values.push(theoretical_hit_rate(cache.as_ref(), &freqs));
        }
        Series::new(policies[pi].to_string(), values)
    })
}

/// The Figure 6.b / 7.b protocol: a two-phase run with the shift-id
/// changing mid-way; returns the windowed (per-100-requests) hit-rate
/// series for each policy.
pub(crate) fn windowed_adaptivity(
    ctx: &ExperimentContext,
    repo: &Arc<Repository>,
    policies: &[PolicyKind],
    phases: &[(u64, usize)],
    fig_tag: u64,
) -> (Vec<String>, Vec<Series>) {
    let scaled: Vec<(u64, usize)> = phases.iter().map(|&(n, g)| (ctx.requests(n), g)).collect();
    let schedule = PhaseSchedule::from_pairs(&scaled);
    let trace = Trace::from_generator(RequestGenerator::with_schedule(
        repo.len(),
        THETA,
        schedule,
        ctx.sub_seed(fig_tag),
    ));
    let zipf = Zipf::new(repo.len(), THETA);
    let first_freqs = ShiftedZipf::new(zipf.clone(), scaled[0].1).frequencies();
    let config = SimulationConfig::default();

    // One point per policy; every policy replays the same trace.
    let indices: Vec<usize> = (0..policies.len()).collect();
    let out = ctx.run_points(&indices, |_, &pi| {
        let mut cache = policies[pi].build(
            Arc::clone(repo),
            repo.cache_capacity_for_ratio(0.125),
            ctx.policy_seed(fig_tag, pi),
            Some(&first_freqs),
        );
        // Off-line oracle: re-inform at each phase boundary. Since
        // `simulate` replays the whole trace at once, split per phase.
        let mut points: Vec<f64> = Vec::new();
        let mut offset = 0usize;
        for &(n, g) in &scaled {
            let freqs = ShiftedZipf::new(zipf.clone(), g).frequencies();
            cache.inform_frequencies(&freqs);
            let report = simulate(
                cache.as_mut(),
                repo,
                trace.slice(offset, offset + n as usize),
                &config,
            );
            points.extend_from_slice(report.series.points());
            offset += n as usize;
        }
        Series::new(policies[pi].to_string(), points)
    });
    let x: Vec<String> = out
        .first()
        .map(|s| {
            (1..=s.values.len())
                .map(|w| format!("{}", w as u64 * 100))
                .collect()
        })
        .unwrap_or_default();
    (x, out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use clipcache_media::paper;

    fn tiny_ctx() -> ExperimentContext {
        ExperimentContext::at_scale(0.02)
    }

    #[test]
    fn ratio_sweep_shapes_and_monotonicity() {
        let repo = Arc::new(paper::variable_sized_repository_of(48));
        let policies = [PolicyKind::Lru, PolicyKind::Random];
        let ratios = [0.1, 0.5];
        let (hits, bytes) = ratio_sweep(&tiny_ctx(), &repo, &policies, &ratios, 10_000, 0x7E57);
        assert_eq!(hits.len(), 2);
        assert_eq!(bytes.len(), 2);
        for s in hits.iter().chain(&bytes) {
            assert_eq!(s.values.len(), ratios.len());
            for v in &s.values {
                assert!((0.0..=1.0).contains(v), "{}: {v}", s.name);
            }
            assert!(
                s.values[1] >= s.values[0],
                "{} must not fall with size",
                s.name
            );
        }
    }

    #[test]
    fn adaptivity_sweep_returns_resident_mass() {
        let repo = Arc::new(paper::variable_sized_repository_of(48));
        let series = adaptivity_sweep(
            &tiny_ctx(),
            &repo,
            &[PolicyKind::Lru],
            &[0, 10],
            5_000,
            0x7E58,
        );
        assert_eq!(series.len(), 1);
        assert_eq!(series[0].values.len(), 2);
        for v in &series[0].values {
            assert!((0.0..=1.0).contains(v));
        }
    }

    #[test]
    fn windowed_adaptivity_covers_all_phases() {
        let repo = Arc::new(paper::variable_sized_repository_of(48));
        let (x, series) = windowed_adaptivity(
            &tiny_ctx(),
            &repo,
            &[PolicyKind::Lru],
            &[(10_000, 0), (10_000, 5)],
            0x7E59,
        );
        // scale 0.02 → 200 + 200 requests → 4 windows of 100.
        assert_eq!(x.len(), 4);
        assert_eq!(series[0].values.len(), 4);
    }

    #[test]
    fn sweeps_are_jobs_invariant() {
        // The determinism contract: jobs=1 and jobs=4 produce
        // bit-identical figures, because point seeds derive from
        // (fig_tag, policy index) and never from thread identity.
        let repo = Arc::new(paper::variable_sized_repository_of(48));
        let policies = [
            PolicyKind::Lru,
            PolicyKind::Random,
            PolicyKind::DynSimple { k: 2 },
        ];
        let ratios = [0.05, 0.125, 0.25, 0.5];
        let serial = tiny_ctx();
        let parallel = serial.fork().with_jobs(4);

        let (h1, b1) = ratio_sweep(&serial, &repo, &policies, &ratios, 10_000, 0x7E5A);
        let (h4, b4) = ratio_sweep(&parallel, &repo, &policies, &ratios, 10_000, 0x7E5A);
        assert_eq!(h1, h4);
        assert_eq!(b1, b4);

        let a1 = adaptivity_sweep(&serial, &repo, &policies, &[0, 7, 14], 5_000, 0x7E5B);
        let a4 = adaptivity_sweep(&parallel, &repo, &policies, &[0, 7, 14], 5_000, 0x7E5B);
        assert_eq!(a1, a4);

        let w1 = windowed_adaptivity(
            &serial,
            &repo,
            &policies,
            &[(10_000, 0), (10_000, 5)],
            0x7E5C,
        );
        let w4 = windowed_adaptivity(
            &parallel,
            &repo,
            &policies,
            &[(10_000, 0), (10_000, 5)],
            0x7E5C,
        );
        assert_eq!(w1, w4);
        // Both contexts saw the same point count.
        assert_eq!(serial.stats.points(), parallel.stats.points());
    }
}
