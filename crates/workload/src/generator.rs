//! Request generators: shifted Zipf and multi-phase schedules.
//!
//! Section 4.4.1: "Assuming object x is the most popular one with the
//! original distribution, a shift-id of 100 (g = 100) causes object
//! ((x + 100) mod N) to become most popular. In essence, we shift the
//! original distribution with the value of g."

use crate::request::{Request, Timestamp};
use crate::rng::Pcg64;
use crate::zipf::Zipf;
use clipcache_media::ClipId;

/// A Zipfian popularity distribution over clips, shifted by a shift-id `g`.
///
/// Rank `r` (1-based, rank 1 most popular) maps to clip id
/// `((r - 1 + g) mod N) + 1`. With `g = 0` the mapping is the identity and
/// clip 1 is the most popular.
#[derive(Debug, Clone, PartialEq)]
pub struct ShiftedZipf {
    zipf: Zipf,
    shift: usize,
}

impl ShiftedZipf {
    /// Wrap `zipf` with shift-id `g` (taken modulo the clip count).
    pub fn new(zipf: Zipf, shift: usize) -> Self {
        let n = zipf.len();
        ShiftedZipf {
            zipf,
            shift: shift % n,
        }
    }

    /// The underlying unshifted distribution.
    #[inline]
    pub fn zipf(&self) -> &Zipf {
        &self.zipf
    }

    /// The effective shift-id (already reduced modulo N).
    #[inline]
    pub fn shift(&self) -> usize {
        self.shift
    }

    /// Number of clips covered.
    #[inline]
    pub fn len(&self) -> usize {
        self.zipf.len()
    }

    /// Always false: the inner Zipf has at least one rank.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.zipf.is_empty()
    }

    /// Map a popularity rank (1-based) to the clip holding that rank.
    #[inline]
    pub fn clip_for_rank(&self, rank: usize) -> ClipId {
        let n = self.zipf.len();
        debug_assert!((1..=n).contains(&rank));
        ClipId::from_index((rank - 1 + self.shift) % n)
    }

    /// The popularity rank (1-based) currently held by `clip`.
    #[inline]
    pub fn rank_of_clip(&self, clip: ClipId) -> usize {
        let n = self.zipf.len();
        (clip.index() + n - self.shift) % n + 1
    }

    /// The *accurate* (analytic) access frequency of `clip` under this
    /// shifted distribution — the paper's `f_j` used for theoretical hit
    /// rates and for the off-line Simple policy.
    #[inline]
    pub fn frequency_of_clip(&self, clip: ClipId) -> f64 {
        self.zipf.pmf(self.rank_of_clip(clip))
    }

    /// All clip frequencies, indexed by `ClipId::index()`.
    pub fn frequencies(&self) -> Vec<f64> {
        (0..self.zipf.len())
            .map(|i| self.frequency_of_clip(ClipId::from_index(i)))
            .collect()
    }

    /// Draw one clip.
    #[inline]
    pub fn sample(&self, rng: &mut Pcg64) -> ClipId {
        self.clip_for_rank(self.zipf.sample(rng))
    }
}

/// A phase of a request schedule: `requests` drawn with shift-id `shift`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Phase {
    /// Number of requests in this phase.
    pub requests: u64,
    /// The shift-id `g` in force during this phase.
    pub shift: usize,
}

/// A multi-phase schedule of shift-ids (Figures 6.b and 7.b: e.g. 20,000
/// requests at g = 200 followed by 10,000 at g = 300).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseSchedule {
    phases: Vec<Phase>,
}

impl PhaseSchedule {
    /// A single-phase schedule.
    pub fn constant(requests: u64, shift: usize) -> Self {
        PhaseSchedule {
            phases: vec![Phase { requests, shift }],
        }
    }

    /// A schedule from explicit `(requests, shift)` pairs.
    pub fn from_pairs(pairs: &[(u64, usize)]) -> Self {
        assert!(!pairs.is_empty(), "schedule needs at least one phase");
        PhaseSchedule {
            phases: pairs
                .iter()
                .map(|&(requests, shift)| Phase { requests, shift })
                .collect(),
        }
    }

    /// The phases in order.
    pub fn phases(&self) -> &[Phase] {
        &self.phases
    }

    /// Total number of requests across phases.
    pub fn total_requests(&self) -> u64 {
        self.phases.iter().map(|p| p.requests).sum()
    }

    /// The shift-id in force at 1-based request number `i`.
    pub fn shift_at(&self, i: u64) -> usize {
        let mut seen = 0;
        for p in &self.phases {
            seen += p.requests;
            if i <= seen {
                return p.shift;
            }
        }
        self.phases.last().expect("non-empty").shift
    }
}

/// A deterministic request stream: a Zipf distribution, a phase schedule and
/// a seeded RNG.
///
/// Implements `Iterator<Item = Request>`; timestamps are assigned 1, 2, …
/// matching the virtual clock.
#[derive(Debug, Clone)]
pub struct RequestGenerator {
    zipf: Zipf,
    schedule: PhaseSchedule,
    rng: Pcg64,
    issued: u64,
    /// The shifted distribution currently in force — rebuilt only at
    /// phase boundaries (rebuilding per request would clone the pmf/cdf
    /// tables, the dominant cost of generation).
    current: ShiftedZipf,
}

impl RequestGenerator {
    /// Create a generator over `n_clips` with parameter `theta`, a fixed
    /// shift and `requests` total requests.
    pub fn new(n_clips: usize, theta: f64, shift: usize, requests: u64, seed: u64) -> Self {
        RequestGenerator::with_schedule(
            n_clips,
            theta,
            PhaseSchedule::constant(requests, shift),
            seed,
        )
    }

    /// Create a generator following a multi-phase schedule.
    pub fn with_schedule(n_clips: usize, theta: f64, schedule: PhaseSchedule, seed: u64) -> Self {
        let zipf = Zipf::new(n_clips, theta);
        let current = ShiftedZipf::new(zipf.clone(), schedule.shift_at(1));
        RequestGenerator {
            zipf,
            schedule,
            rng: Pcg64::seed_from_u64(seed),
            issued: 0,
            current,
        }
    }

    /// The paper's default: θ = 0.27, 10,000 requests, shift 0.
    pub fn paper(n_clips: usize, seed: u64) -> Self {
        RequestGenerator::new(n_clips, 0.27, 0, 10_000, seed)
    }

    /// The underlying distribution (unshifted).
    pub fn zipf(&self) -> &Zipf {
        &self.zipf
    }

    /// The schedule driving the shift-id.
    pub fn schedule(&self) -> &PhaseSchedule {
        &self.schedule
    }

    /// Requests issued so far.
    pub fn issued(&self) -> u64 {
        self.issued
    }

    /// The shifted distribution in force for the *next* request.
    pub fn current_distribution(&self) -> ShiftedZipf {
        let shift = self.schedule.shift_at(self.issued + 1);
        ShiftedZipf::new(self.zipf.clone(), shift)
    }
}

impl Iterator for RequestGenerator {
    type Item = Request;

    fn next(&mut self) -> Option<Request> {
        if self.issued >= self.schedule.total_requests() {
            return None;
        }
        self.issued += 1;
        let issued = self.issued;
        // Borrow dance: sample needs &mut rng while the distribution is
        // borrowed from self, so split the borrows manually.
        let shift = self.schedule.shift_at(issued);
        if shift != self.current.shift() {
            self.current = ShiftedZipf::new(self.zipf.clone(), shift);
        }
        let clip = self.current.sample(&mut self.rng);
        Some(Request::new(Timestamp(issued), clip))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = (self.schedule.total_requests() - self.issued) as usize;
        (left, Some(left))
    }
}

impl ExactSizeIterator for RequestGenerator {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shift_zero_is_identity() {
        let d = ShiftedZipf::new(Zipf::paper(576), 0);
        assert_eq!(d.clip_for_rank(1), ClipId::new(1));
        assert_eq!(d.clip_for_rank(576), ClipId::new(576));
        assert_eq!(d.rank_of_clip(ClipId::new(1)), 1);
    }

    #[test]
    fn shift_maps_most_popular() {
        // g = 100: rank 1 lands on clip 101.
        let d = ShiftedZipf::new(Zipf::paper(576), 100);
        assert_eq!(d.clip_for_rank(1), ClipId::new(101));
        assert_eq!(d.rank_of_clip(ClipId::new(101)), 1);
        // Wrap-around: rank 577-100 = 477 maps from the tail onto clip 1.
        assert_eq!(d.rank_of_clip(ClipId::new(1)), 477);
        assert_eq!(d.clip_for_rank(477), ClipId::new(1));
    }

    #[test]
    fn shift_reduced_modulo_n() {
        let d = ShiftedZipf::new(Zipf::paper(576), 576 + 3);
        assert_eq!(d.shift(), 3);
    }

    #[test]
    fn rank_and_clip_are_inverse() {
        let d = ShiftedZipf::new(Zipf::paper(101), 37);
        for rank in 1..=101 {
            assert_eq!(d.rank_of_clip(d.clip_for_rank(rank)), rank);
        }
    }

    #[test]
    fn frequencies_sum_to_one_and_follow_shift() {
        let d = ShiftedZipf::new(Zipf::paper(576), 200);
        let f = d.frequencies();
        let total: f64 = f.iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
        // Clip 201 holds rank 1 and has the largest frequency.
        let argmax = f
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert_eq!(argmax, 200); // index 200 = clip id 201
    }

    #[test]
    fn schedule_shift_at_boundaries() {
        let s = PhaseSchedule::from_pairs(&[(20_000, 200), (10_000, 300)]);
        assert_eq!(s.total_requests(), 30_000);
        assert_eq!(s.shift_at(1), 200);
        assert_eq!(s.shift_at(20_000), 200);
        assert_eq!(s.shift_at(20_001), 300);
        assert_eq!(s.shift_at(30_000), 300);
        assert_eq!(s.shift_at(99_999), 300);
    }

    #[test]
    #[should_panic(expected = "at least one phase")]
    fn empty_schedule_rejected() {
        PhaseSchedule::from_pairs(&[]);
    }

    #[test]
    fn generator_is_deterministic() {
        let a: Vec<_> = RequestGenerator::paper(576, 42).collect();
        let b: Vec<_> = RequestGenerator::paper(576, 42).collect();
        assert_eq!(a, b);
        assert_eq!(a.len(), 10_000);
    }

    #[test]
    fn generator_timestamps_are_sequential() {
        let reqs: Vec<_> = RequestGenerator::new(10, 0.27, 0, 100, 1).collect();
        for (i, r) in reqs.iter().enumerate() {
            assert_eq!(r.at, Timestamp(i as u64 + 1));
        }
    }

    #[test]
    fn generator_seed_changes_stream() {
        let a: Vec<_> = RequestGenerator::paper(576, 1).take(100).collect();
        let b: Vec<_> = RequestGenerator::paper(576, 2).take(100).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn generator_respects_phase_switch() {
        // Phase 1 (g=0): clip 1 most popular. Phase 2 (g=100): clip 101.
        let schedule = PhaseSchedule::from_pairs(&[(5_000, 0), (5_000, 100)]);
        let gen = RequestGenerator::with_schedule(576, 0.27, schedule, 9);
        let reqs: Vec<_> = gen.collect();
        let count = |range: std::ops::Range<usize>, clip: u32| {
            reqs[range]
                .iter()
                .filter(|r| r.clip == ClipId::new(clip))
                .count()
        };
        assert!(count(0..5_000, 1) > count(0..5_000, 101));
        assert!(count(5_000..10_000, 101) > count(5_000..10_000, 1));
    }

    #[test]
    fn exact_size_iterator() {
        let mut gen = RequestGenerator::new(10, 0.27, 0, 50, 3);
        assert_eq!(gen.len(), 50);
        gen.next();
        assert_eq!(gen.len(), 49);
    }

    #[test]
    fn current_distribution_tracks_schedule() {
        let schedule = PhaseSchedule::from_pairs(&[(2, 0), (2, 7)]);
        let mut gen = RequestGenerator::with_schedule(20, 0.27, schedule, 3);
        assert_eq!(gen.current_distribution().shift(), 0);
        gen.next();
        gen.next();
        assert_eq!(gen.current_distribution().shift(), 7);
    }
}
