//! The Zipfian popularity distribution over clip ranks.
//!
//! The paper generates requests with "a Zipfian distribution with a mean of
//! 0.27", citing Dan et al. \[6\], where movie popularity is modelled as
//! `p_i ∝ 1 / i^(1-θ)` with θ ≈ 0.271 fit to US movie-ticket sales. A
//! larger θ makes the distribution *more uniform*; θ = 0 is the classic
//! Zipf `p_i ∝ 1/i`.
//!
//! [`Zipf`] precomputes the pmf and cdf over ranks `1..=n`; sampling is an
//! O(log n) binary search on the cdf driven by a caller-supplied RNG, so
//! the same distribution object can serve many deterministic streams.

use crate::rng::Pcg64;

/// Zipfian distribution over ranks `1..=n` with `p_i ∝ 1 / i^(1-θ)`.
///
/// ```
/// use clipcache_workload::{Pcg64, Zipf};
///
/// let zipf = Zipf::paper(576); // θ = 0.27, the paper's workload
/// assert!(zipf.pmf(1) > zipf.pmf(2)); // rank 1 is the most popular
/// let mut rng = Pcg64::seed_from_u64(42);
/// let rank = zipf.sample(&mut rng);
/// assert!((1..=576).contains(&rank));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Zipf {
    theta: f64,
    pmf: Vec<f64>,
    cdf: Vec<f64>,
}

impl Zipf {
    /// Build a distribution over `n` ranks with parameter `theta` in
    /// `[0, 1)`. The paper uses θ = 0.27.
    ///
    /// # Panics
    /// If `n == 0` or `theta` is outside `[0, 1)`.
    pub fn new(n: usize, theta: f64) -> Self {
        assert!(n > 0, "Zipf needs at least one rank");
        assert!(
            (0.0..1.0).contains(&theta),
            "theta must be in [0, 1), got {theta}"
        );
        let exponent = 1.0 - theta;
        let mut pmf: Vec<f64> = (1..=n).map(|i| (i as f64).powf(-exponent)).collect();
        let norm: f64 = pmf.iter().sum();
        for p in &mut pmf {
            *p /= norm;
        }
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for &p in &pmf {
            acc += p;
            cdf.push(acc);
        }
        // Guard against floating-point drift so sampling can never fall off
        // the end of the table.
        *cdf.last_mut().expect("n > 0") = 1.0;
        Zipf { theta, pmf, cdf }
    }

    /// The paper's distribution: θ = 0.27 over `n` ranks.
    pub fn paper(n: usize) -> Self {
        Zipf::new(n, 0.27)
    }

    /// The distribution parameter θ.
    #[inline]
    pub fn theta(&self) -> f64 {
        self.theta
    }

    /// Number of ranks.
    #[inline]
    pub fn len(&self) -> usize {
        self.pmf.len()
    }

    /// True when the distribution covers no ranks (never true).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.pmf.is_empty()
    }

    /// The analytic probability of rank `r` (1-based).
    ///
    /// This is the "accurate frequency of access" the paper uses to compute
    /// the theoretical cache hit rate of Figure 6.a.
    #[inline]
    pub fn pmf(&self, rank: usize) -> f64 {
        assert!(
            (1..=self.pmf.len()).contains(&rank),
            "rank {rank} out of 1..={}",
            self.pmf.len()
        );
        self.pmf[rank - 1]
    }

    /// The full pmf, indexed by `rank - 1`.
    #[inline]
    pub fn pmf_slice(&self) -> &[f64] {
        &self.pmf
    }

    /// Sample a rank in `1..=n`.
    #[inline]
    pub fn sample(&self, rng: &mut Pcg64) -> usize {
        let u = rng.next_f64();
        // partition_point returns the count of cdf entries < u, which is the
        // 0-based index of the first entry >= u; +1 converts to a rank.
        self.cdf.partition_point(|&c| c < u) + 1
    }

    /// The probability that a request falls in the top `k` ranks.
    pub fn head_mass(&self, k: usize) -> f64 {
        if k == 0 {
            0.0
        } else {
            self.cdf[k.min(self.cdf.len()) - 1]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pmf_sums_to_one() {
        for &theta in &[0.0, 0.27, 0.5, 0.9] {
            let z = Zipf::new(576, theta);
            let total: f64 = z.pmf_slice().iter().sum();
            assert!((total - 1.0).abs() < 1e-12, "theta {theta}: {total}");
        }
    }

    #[test]
    fn pmf_is_decreasing_in_rank() {
        let z = Zipf::paper(576);
        for r in 1..576 {
            assert!(z.pmf(r) > z.pmf(r + 1), "rank {r}");
        }
    }

    #[test]
    fn theta_zero_is_classic_zipf() {
        let z = Zipf::new(4, 0.0);
        // p_i ∝ 1/i: normalizer = 1 + 1/2 + 1/3 + 1/4 = 25/12.
        let h = 1.0 + 0.5 + 1.0 / 3.0 + 0.25;
        assert!((z.pmf(1) - 1.0 / h).abs() < 1e-12);
        assert!((z.pmf(2) - 0.5 / h).abs() < 1e-12);
    }

    #[test]
    fn larger_theta_is_more_uniform() {
        let skewed = Zipf::new(576, 0.0);
        let uniformish = Zipf::new(576, 0.9);
        assert!(skewed.pmf(1) > uniformish.pmf(1));
        assert!(skewed.pmf(576) < uniformish.pmf(576));
    }

    #[test]
    fn head_mass_matches_cdf() {
        let z = Zipf::paper(576);
        let sum10: f64 = (1..=10).map(|r| z.pmf(r)).sum();
        assert!((z.head_mass(10) - sum10).abs() < 1e-12);
        assert_eq!(z.head_mass(0), 0.0);
        assert!((z.head_mass(576) - 1.0).abs() < 1e-12);
        assert!((z.head_mass(10_000) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn sample_in_range() {
        let z = Zipf::paper(576);
        let mut rng = Pcg64::seed_from_u64(1);
        for _ in 0..10_000 {
            let r = z.sample(&mut rng);
            assert!((1..=576).contains(&r));
        }
    }

    #[test]
    fn empirical_matches_analytic() {
        let z = Zipf::paper(100);
        let mut rng = Pcg64::seed_from_u64(7);
        let n = 200_000;
        let mut counts = vec![0u32; 100];
        for _ in 0..n {
            counts[z.sample(&mut rng) - 1] += 1;
        }
        // Check the head ranks closely and the total mass of the tail.
        for r in 1..=10 {
            let emp = counts[r - 1] as f64 / n as f64;
            let ana = z.pmf(r);
            assert!(
                (emp - ana).abs() < 0.15 * ana + 5e-4,
                "rank {r}: empirical {emp}, analytic {ana}"
            );
        }
    }

    #[test]
    fn single_rank_distribution() {
        let z = Zipf::new(1, 0.27);
        assert_eq!(z.pmf(1), 1.0);
        let mut rng = Pcg64::seed_from_u64(2);
        assert_eq!(z.sample(&mut rng), 1);
    }

    #[test]
    #[should_panic(expected = "theta must be in [0, 1)")]
    fn theta_one_rejected() {
        Zipf::new(10, 1.0);
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn zero_ranks_rejected() {
        Zipf::new(0, 0.27);
    }

    #[test]
    #[should_panic(expected = "out of 1..=")]
    fn pmf_rank_zero_panics() {
        Zipf::new(10, 0.27).pmf(0);
    }
}
