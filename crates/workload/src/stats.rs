//! Empirical frequency accounting.
//!
//! Two uses:
//!
//! * validating that the sampler tracks the analytic Zipf pmf,
//! * the paper's Section 4.1 estimate-quality experiment, which measures
//!   how well DYNSimple's K-timestamp frequency estimates approximate the
//!   accurate frequencies: `quality = sqrt( Σ_j (f̂_j − f_j)² )` — the paper
//!   reports a ~10× improvement moving K from 2 to 60.

use crate::request::Request;
use clipcache_media::ClipId;

/// Observed request counts per clip.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrequencyCounter {
    counts: Vec<u64>,
    total: u64,
}

impl FrequencyCounter {
    /// A counter over `n_clips` clips.
    pub fn new(n_clips: usize) -> Self {
        FrequencyCounter {
            counts: vec![0; n_clips],
            total: 0,
        }
    }

    /// Record one request.
    #[inline]
    pub fn record(&mut self, clip: ClipId) {
        self.counts[clip.index()] += 1;
        self.total += 1;
    }

    /// Record an entire reference string.
    pub fn record_all<'a>(&mut self, requests: impl IntoIterator<Item = &'a Request>) {
        for r in requests {
            self.record(r.clip);
        }
    }

    /// Total requests recorded.
    #[inline]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Observed count for one clip.
    #[inline]
    pub fn count(&self, clip: ClipId) -> u64 {
        self.counts[clip.index()]
    }

    /// Empirical frequency of one clip (0 when nothing recorded).
    #[inline]
    pub fn frequency(&self, clip: ClipId) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.counts[clip.index()] as f64 / self.total as f64
        }
    }

    /// All empirical frequencies, indexed by `ClipId::index()`.
    pub fn frequencies(&self) -> Vec<f64> {
        if self.total == 0 {
            return vec![0.0; self.counts.len()];
        }
        self.counts
            .iter()
            .map(|&c| c as f64 / self.total as f64)
            .collect()
    }
}

/// The paper's estimate-quality function over a set of clips:
/// `sqrt( Σ_j (estimated_j − accurate_j)² )`.
///
/// # Panics
/// If the slices differ in length.
pub fn estimate_quality(estimated: &[f64], accurate: &[f64]) -> f64 {
    assert_eq!(
        estimated.len(),
        accurate.len(),
        "frequency vectors must align"
    );
    estimated
        .iter()
        .zip(accurate)
        .map(|(e, a)| (e - a) * (e - a))
        .sum::<f64>()
        .sqrt()
}

/// Total variation distance between two distributions — a second lens on
/// estimate quality used by tests.
pub fn total_variation(p: &[f64], q: &[f64]) -> f64 {
    assert_eq!(p.len(), q.len(), "frequency vectors must align");
    0.5 * p.iter().zip(q).map(|(a, b)| (a - b).abs()).sum::<f64>()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::RequestGenerator;
    use crate::zipf::Zipf;

    #[test]
    fn counter_records() {
        let mut c = FrequencyCounter::new(3);
        c.record(ClipId::new(1));
        c.record(ClipId::new(1));
        c.record(ClipId::new(3));
        assert_eq!(c.total(), 3);
        assert_eq!(c.count(ClipId::new(1)), 2);
        assert!((c.frequency(ClipId::new(1)) - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(c.frequency(ClipId::new(2)), 0.0);
    }

    #[test]
    fn empty_counter_frequencies_are_zero() {
        let c = FrequencyCounter::new(4);
        assert_eq!(c.frequencies(), vec![0.0; 4]);
        assert_eq!(c.frequency(ClipId::new(2)), 0.0);
    }

    #[test]
    fn empirical_tracks_analytic_zipf() {
        let n = 64;
        let z = Zipf::paper(n);
        let reqs: Vec<_> = RequestGenerator::new(n, 0.27, 0, 100_000, 17).collect();
        let mut c = FrequencyCounter::new(n);
        c.record_all(&reqs);
        let tv = total_variation(&c.frequencies(), z.pmf_slice());
        assert!(tv < 0.02, "total variation {tv}");
    }

    #[test]
    fn quality_zero_for_exact_match() {
        let f = vec![0.5, 0.3, 0.2];
        assert_eq!(estimate_quality(&f, &f), 0.0);
        assert_eq!(total_variation(&f, &f), 0.0);
    }

    #[test]
    fn quality_is_l2_norm() {
        let est = vec![0.6, 0.4];
        let acc = vec![0.5, 0.5];
        assert!((estimate_quality(&est, &acc) - (0.02f64).sqrt()).abs() < 1e-12);
        assert!((total_variation(&est, &acc) - 0.1).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "must align")]
    fn mismatched_lengths_panic() {
        estimate_quality(&[0.1], &[0.1, 0.9]);
    }
}
