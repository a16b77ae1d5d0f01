//! A fixed-bucket log-linear latency histogram.
//!
//! Values below [`SUB`] get a bucket each; above that, every power of
//! two `[2^e, 2^(e+1))` splits into [`SUB`] equal-width buckets, so a
//! bucket is at most 1/[`SUB`] (1.6%) of its values wide. Memory is a
//! fixed array whatever the sample count, merging adds counts (exact,
//! and independent of order), and a quantile interpolates by rank
//! inside its bucket, so it always lies in the bucket that holds the
//! exact order statistic.

const SUB_BITS: u32 = 6;
/// Buckets per power of two.
pub const SUB: usize = 1 << SUB_BITS;
const BUCKETS: usize = SUB + (64 - SUB_BITS as usize) * SUB;

/// Latency histogram over `u64` nanoseconds.
#[derive(Clone)]
pub struct Histogram {
    counts: Box<[u64; BUCKETS]>,
    total: u64,
    sum: u128,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: Box::new([0; BUCKETS]),
            total: 0,
            sum: 0,
        }
    }
}

fn index_of(v: u64) -> usize {
    if v < SUB as u64 {
        return v as usize;
    }
    let shift = 63 - v.leading_zeros() - SUB_BITS;
    SUB + shift as usize * SUB + ((v >> shift) as usize - SUB)
}

/// `(lowest value, width)` of bucket `i`.
fn bounds_of(i: usize) -> (u64, u64) {
    if i < SUB {
        return (i as u64, 1);
    }
    let shift = (i - SUB) / SUB;
    let sub = (i - SUB) % SUB;
    (((SUB + sub) as u64) << shift, 1u64 << shift)
}

/// Width of the bucket holding `v`: the resolution of a quantile near
/// `v`.
#[cfg(test)]
pub fn resolution_at(v: u64) -> u64 {
    bounds_of(index_of(v)).1
}

impl Histogram {
    /// Record one sample.
    pub fn record(&mut self, v: u64) {
        self.counts[index_of(v)] += 1;
        self.total += 1;
        self.sum += u128::from(v);
    }

    /// Add every sample of `other`.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.total += other.total;
        self.sum += other.sum;
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Arithmetic mean (exact), 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// The `q`-quantile: the `ceil(q·n)`-th smallest sample, placed by
    /// its rank inside its bucket. 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if seen + c >= rank {
                let (lo, width) = bounds_of(i);
                let within = (rank - seen) as f64 - 0.5;
                return lo as f64 + width as f64 * within / c as f64;
            }
            seen += c;
        }
        unreachable!("rank {rank} is within the {} samples", self.total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clipcache_workload::Pcg64;

    fn exact(sorted: &[u64], q: f64) -> u64 {
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    }

    #[test]
    fn buckets_tile_the_range() {
        for v in (0..5000u64).chain([u64::MAX / 3, u64::MAX]) {
            let (lo, width) = bounds_of(index_of(v));
            assert!(lo <= v && v - lo < width, "value {v} outside its bucket");
        }
        assert_eq!(index_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn quantiles_match_an_exact_sort_within_one_bucket() {
        for seed in 1..=20u64 {
            let mut rng = Pcg64::seed_from_u64(seed);
            let mut hist = Histogram::default();
            let mut samples = Vec::new();
            for _ in 0..(1000 + seed * 997) {
                // Log-uniform from ~1 ns to ~1 s: every bucket regime.
                let v = (2f64.powf(rng.next_f64() * 30.0)) as u64;
                hist.record(v);
                samples.push(v);
            }
            samples.sort_unstable();
            for q in [0.5, 0.9, 0.99, 0.999] {
                let truth = exact(&samples, q);
                let got = hist.quantile(q);
                assert!(
                    (got - truth as f64).abs() <= resolution_at(truth) as f64,
                    "seed {seed} q {q}: histogram {got} vs exact {truth}"
                );
            }
            let mean = samples.iter().map(|&v| v as f64).sum::<f64>() / samples.len() as f64;
            assert!((hist.mean() - mean).abs() < 1e-6 * mean);
        }
    }

    #[test]
    fn merge_is_exact_and_order_invariant() {
        let mut rng = Pcg64::seed_from_u64(7);
        let parts: Vec<Vec<u64>> = (0..4)
            .map(|_| (0..500).map(|_| rng.next_bounded(1_000_000)).collect())
            .collect();
        let mut whole = Histogram::default();
        for v in parts.iter().flatten() {
            whole.record(*v);
        }
        let mut forward = Histogram::default();
        let mut backward = Histogram::default();
        for p in &parts {
            let mut h = Histogram::default();
            p.iter().for_each(|&v| h.record(v));
            forward.merge(&h);
        }
        for p in parts.iter().rev() {
            let mut h = Histogram::default();
            p.iter().for_each(|&v| h.record(v));
            backward.merge(&h);
        }
        for h in [&forward, &backward] {
            assert_eq!(h.counts[..], whole.counts[..]);
            assert_eq!(h.count(), whole.count());
            assert_eq!(h.quantile(0.99), whole.quantile(0.99));
        }
    }
}
