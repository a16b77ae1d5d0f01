//! Shared experiment configuration.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Per-point wall-clock accounting for a sweep run.
///
/// Each call routed through [`ExperimentContext::run_points`] records
/// one point and the nanoseconds its closure spent computing, summed
/// across all worker threads. Comparing [`busy`](SweepStats::busy)
/// against the sweep's elapsed wall-clock yields the realized parallel
/// speedup that `repro` prints in its per-experiment summary line.
#[derive(Debug, Default)]
pub struct SweepStats {
    points: AtomicU64,
    busy_nanos: AtomicU64,
}

impl SweepStats {
    /// Record one completed point that took `elapsed` of compute time.
    pub fn record(&self, elapsed: Duration) {
        self.points.fetch_add(1, Ordering::Relaxed);
        self.busy_nanos
            .fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
    }

    /// Number of points recorded so far.
    pub fn points(&self) -> u64 {
        self.points.load(Ordering::Relaxed)
    }

    /// Total per-point compute time, summed across workers.
    pub fn busy(&self) -> Duration {
        Duration::from_nanos(self.busy_nanos.load(Ordering::Relaxed))
    }
}

/// Configuration shared by every experiment.
#[derive(Debug, Clone)]
pub struct ExperimentContext {
    /// Base seed; each figure derives per-run seeds from it.
    pub seed: u64,
    /// Request-count multiplier: 1.0 = the paper's 10,000 requests per
    /// data point. Tests and benches use smaller values.
    pub scale: f64,
    /// Worker threads for point-level sweeps (`1` = fully serial).
    /// Results are bit-identical at any value: every point derives its
    /// seed from [`sub_seed`](Self::sub_seed), never from thread
    /// identity, and [`crate::sweep::run_points`] preserves submission
    /// order.
    pub jobs: usize,
    /// Per-point accounting, shared by clones of this context. Use
    /// [`fork`](Self::fork) for an independent tally.
    pub stats: Arc<SweepStats>,
}

impl Default for ExperimentContext {
    fn default() -> Self {
        ExperimentContext {
            seed: 0x5EED_2007,
            scale: 1.0,
            jobs: 1,
            stats: Arc::new(SweepStats::default()),
        }
    }
}

impl ExperimentContext {
    /// A context at reduced scale (for tests/benches).
    pub fn at_scale(scale: f64) -> Self {
        ExperimentContext {
            scale,
            ..ExperimentContext::default()
        }
    }

    /// Builder-style worker-thread count.
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs.max(1);
        self
    }

    /// A clone with a fresh [`SweepStats`] tally (same seed, scale and
    /// jobs). `repro` forks the context per experiment so each summary
    /// line reports only that experiment's points.
    pub fn fork(&self) -> Self {
        ExperimentContext {
            stats: Arc::new(SweepStats::default()),
            ..self.clone()
        }
    }

    /// Scale a request count, keeping at least one window of 100.
    pub fn requests(&self, paper_count: u64) -> u64 {
        ((paper_count as f64 * self.scale).round() as u64).max(100)
    }

    /// Derive a seed for a sub-run (per figure / per policy).
    pub fn sub_seed(&self, tag: u64) -> u64 {
        // SplitMix64 step over (seed ^ tag) for decorrelated sub-seeds.
        let mut z = self.seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// The standard per-policy data-point seed: `fig_tag` identifies
    /// the figure, the policy index lands in bits 8.. so policies
    /// within one figure draw decorrelated streams. (`<<` binds tighter
    /// than `^`, so this equals `fig_tag ^ ((pi as u64) << 8)` — kept
    /// explicit here so every call site derives identical seeds.)
    pub fn policy_seed(&self, fig_tag: u64, pi: usize) -> u64 {
        self.sub_seed(fig_tag ^ ((pi as u64) << 8))
    }

    /// Run one simulation point per element of `points`, fanned out
    /// over [`jobs`](Self::jobs) workers via
    /// [`crate::sweep::run_points`], recording per-point wall-clock
    /// into [`stats`](Self::stats). Output order matches `points`
    /// order, and values are bit-identical at any `jobs` count.
    pub fn run_points<I, O, F>(&self, points: &[I], f: F) -> Vec<O>
    where
        I: Sync,
        O: Send,
        F: Fn(usize, &I) -> O + Sync,
    {
        crate::sweep::run_points(points, self.jobs, |i, p| {
            let start = Instant::now();
            let out = f(i, p);
            self.stats.record(start.elapsed());
            out
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_scale_and_floor() {
        let ctx = ExperimentContext::at_scale(0.1);
        assert_eq!(ctx.requests(10_000), 1_000);
        assert_eq!(ctx.requests(100), 100); // floored
        assert_eq!(ExperimentContext::default().requests(10_000), 10_000);
    }

    #[test]
    fn sub_seeds_differ() {
        let ctx = ExperimentContext::default();
        assert_ne!(ctx.sub_seed(1), ctx.sub_seed(2));
        assert_eq!(ctx.sub_seed(1), ctx.sub_seed(1));
    }

    #[test]
    fn policy_seed_matches_manual_derivation() {
        // The pre-parallel code spelled this as
        // `ctx.sub_seed(fig_tag ^ (pi as u64) << 8)`, relying on `<<`
        // binding tighter than `^`. The helper must reproduce it
        // exactly or every figure's curves shift.
        let ctx = ExperimentContext::default();
        for fig_tag in [0xF2u64, 0xF3, 0xE4, 0x7E57] {
            for pi in 0..6usize {
                #[allow(clippy::precedence)]
                let legacy = ctx.sub_seed(fig_tag ^ (pi as u64) << 8);
                assert_eq!(ctx.policy_seed(fig_tag, pi), legacy);
            }
        }
    }

    #[test]
    fn policy_seeds_distinct_across_policies_and_figures() {
        let ctx = ExperimentContext::default();
        let mut seen = std::collections::HashSet::new();
        for fig_tag in [0xF2u64, 0xF3, 0xF5A, 0xF6A, 0xF7A] {
            for pi in 0..8usize {
                assert!(
                    seen.insert(ctx.policy_seed(fig_tag, pi)),
                    "collision at fig_tag={fig_tag:#x} pi={pi}"
                );
            }
        }
    }

    #[test]
    fn run_points_is_jobs_invariant_and_records_stats() {
        let serial = ExperimentContext::at_scale(0.05);
        let parallel = serial.fork().with_jobs(4);
        let points: Vec<u64> = (0..40).collect();
        let f = |_: usize, &p: &u64| serial.sub_seed(p) as f64 / u64::MAX as f64;
        let a = serial.run_points(&points, f);
        let b = parallel.run_points(&points, f);
        assert_eq!(a, b);
        assert_eq!(serial.stats.points(), 40);
        assert_eq!(parallel.stats.points(), 40);
    }

    #[test]
    fn fork_isolates_stats_but_shares_config() {
        let ctx = ExperimentContext::at_scale(0.3).with_jobs(3);
        ctx.stats.record(Duration::from_millis(5));
        let forked = ctx.fork();
        assert_eq!(forked.jobs, 3);
        assert_eq!(forked.scale, ctx.scale);
        assert_eq!(forked.seed, ctx.seed);
        assert_eq!(forked.stats.points(), 0);
        assert_eq!(ctx.stats.points(), 1);
    }
}
