//! GreedyDual (Young 1991) with the Cao–Irani inflation implementation.
//!
//! Each resident clip carries a priority `H`. On admission or hit,
//! `H(x) = L + cost(x)/size(x)` where `L` is the *inflation value*. On
//! eviction the clip with minimum `H` leaves and `L` is raised to that
//! minimum. This is exactly the pseudo-code of the paper's Figure 1. With
//! `cost = 1` the policy maximizes cache hit rate (the paper's setting);
//! with `cost = fetch time` it would minimize average latency \[3\].
//!
//! Two formulations are provided and property-tested to be equivalent:
//!
//! * [`GdMode::Inflation`] — the efficient Cao–Irani version above,
//! * [`GdMode::Naive`] — Young's original: on every eviction, subtract the
//!   victim's priority from every resident clip (O(residents) per
//!   eviction).
//!
//! Ties are broken uniformly at random from a seeded RNG. The paper's
//! Section 3.3 depends on this: on an equi-sized repository every clip has
//! the same `cost/size`, so clips that were admitted or hit under the same
//! `L` tie exactly, and GreedyDual "must choose one randomly" — the root
//! cause of its poor equi-sized hit rate (Figure 3).
//!
//! Victim selection runs on a pluggable [`VictimIndex`]: the scan backend
//! is the paper's linear baseline (over the residents), and [`VictimBackend::Heap`] is the
//! tree-accelerated variant the paper's conclusion calls for — amortized
//! O(log n) per eviction with decisions (including the uniform tie draw)
//! byte-identical to the scan. [`GdMode::Naive`] rescales every resident
//! score per eviction, so it is scan-only; the registry rejects
//! `greedydual-naive@heap`.

use crate::cache::{AccessEvent, ClipCache, EvictionSink};
use crate::space::CacheSpace;
use crate::victim_index::{TieRule, VictimBackend, VictimIndex};
use clipcache_media::{Bandwidth, ByteSize, ClipId, Repository};
use clipcache_workload::{Pcg64, Timestamp};
use std::sync::Arc;

/// RNG stream constant for GreedyDual tie-breaks.
const GD_STREAM: u64 = 0x6764_7469; // "gdti"

/// The GreedyDual tie rule: priorities that are equal in exact arithmetic
/// can differ by a few ulps between the naive and inflation formulations
/// (their floating-point evaluation orders differ), while genuinely
/// distinct priorities in this domain differ by many orders of magnitude
/// more. The relative epsilon keeps the two formulations' decisions — and
/// their RNG consumption — identical, which the cross-validation property
/// test relies on.
const GD_TIES: TieRule = TieRule {
    rel_eps: 1e-9,
    rng_on_single: false,
};

/// How the cost of fetching a clip is modelled.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CostModel {
    /// `cost = 1`: maximize cache hit rate (the paper's objective).
    Uniform,
    /// `cost = size / bandwidth` (seconds to fetch the whole clip).
    ///
    /// Note the degeneracy: `cost/size = 1/bandwidth` is then identical
    /// for every clip, so GreedyDual's priorities all tie and the policy
    /// collapses to Random. Kept for completeness (and the `objectives`
    /// experiment demonstrates the collapse); the useful latency
    /// objective is [`CostModel::StartupLatency`].
    FetchTime(Bandwidth),
    /// Cao–Irani's network-packet objective: `cost = 2 + size/536` (one
    /// connection-setup packet pair plus 536-byte data packets) — their
    /// "GD-Size(packets)" configuration, which minimizes total network
    /// packets rather than requests.
    Packets,
    /// `cost = startup latency of a miss` over a link of the given rate:
    /// admission overhead plus the time to prefetch
    /// `size · (B_display − B_net)/B_display` (the formula of \[10\]).
    /// Clips whose display rate exceeds the link (video over cellular)
    /// become far costlier to miss than audio, which is what makes this
    /// objective non-trivial.
    StartupLatency(Bandwidth),
}

/// Admission-control overhead charged per network stream, in seconds.
const ADMISSION_OVERHEAD_SECS: f64 = 0.5;

impl CostModel {
    /// The cost of bringing a clip with the given size and display rate
    /// into the cache.
    #[inline]
    pub fn cost(&self, size: ByteSize, display: Bandwidth) -> f64 {
        match self {
            CostModel::Uniform => 1.0,
            CostModel::Packets => 2.0 + size.as_f64() / 536.0,
            CostModel::FetchTime(bw) => bw.transfer_secs(size),
            CostModel::StartupLatency(bw) => {
                if bw.as_bps() == 0 {
                    return f64::MAX;
                }
                let prefetch = if *bw >= display {
                    0.0
                } else {
                    size.as_f64() * (display.as_bps() - bw.as_bps()) as f64
                        / display.as_bps() as f64
                };
                ADMISSION_OVERHEAD_SECS + prefetch / bw.bytes_per_sec()
            }
        }
    }

    /// The GreedyDual base priority `cost/size`.
    #[inline]
    pub fn priority(&self, size: ByteSize, display: Bandwidth) -> f64 {
        self.cost(size, display) / size.as_f64()
    }
}

/// Which formulation of GreedyDual to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GdMode {
    /// Cao–Irani inflation value (O(1) bookkeeping per eviction).
    Inflation,
    /// Young's original: subtract the victim priority from all residents.
    Naive,
}

/// GreedyDual replacement.
#[derive(Debug, Clone)]
pub struct GreedyDualCache {
    space: CacheSpace,
    /// Priority per resident clip.
    index: VictimIndex<f64>,
    /// The inflation value `L` (always 0 in naive mode).
    inflation: f64,
    cost: CostModel,
    mode: GdMode,
    rng: Pcg64,
    ties: Vec<ClipId>,
}

impl GreedyDualCache {
    /// Create an empty GreedyDual cache (inflation mode, uniform cost,
    /// scan backend).
    pub fn new(repo: Arc<Repository>, capacity: ByteSize, seed: u64) -> Self {
        GreedyDualCache::with_options(
            repo,
            capacity,
            seed,
            CostModel::Uniform,
            GdMode::Inflation,
            VictimBackend::Scan,
        )
    }

    /// Create with the given victim-index backend (inflation mode,
    /// uniform cost).
    pub fn with_backend(
        repo: Arc<Repository>,
        capacity: ByteSize,
        seed: u64,
        backend: VictimBackend,
    ) -> Self {
        GreedyDualCache::with_options(
            repo,
            capacity,
            seed,
            CostModel::Uniform,
            GdMode::Inflation,
            backend,
        )
    }

    /// Create with an explicit cost model, formulation and backend.
    ///
    /// # Panics
    /// [`GdMode::Naive`] combined with [`VictimBackend::Heap`]: the naive
    /// formulation rescales every resident score per eviction, which the
    /// lazy heap cannot mirror.
    pub fn with_options(
        repo: Arc<Repository>,
        capacity: ByteSize,
        seed: u64,
        cost: CostModel,
        mode: GdMode,
        backend: VictimBackend,
    ) -> Self {
        assert!(
            !(mode == GdMode::Naive && backend == VictimBackend::Heap),
            "naive GreedyDual is scan-only (bulk rescale per eviction)"
        );
        let n = repo.len();
        GreedyDualCache {
            space: CacheSpace::new(repo, capacity),
            index: VictimIndex::new(backend, n),
            inflation: 0.0,
            cost,
            mode,
            rng: Pcg64::seed_from_u64_stream(seed, GD_STREAM),
            ties: Vec::new(),
        }
    }

    /// The current inflation value `L`.
    pub fn inflation(&self) -> f64 {
        self.inflation
    }
}

impl ClipCache for GreedyDualCache {
    fn name(&self) -> String {
        match (self.mode, self.cost) {
            (GdMode::Naive, _) => "GreedyDual(naive)".into(),
            (GdMode::Inflation, CostModel::Uniform) => "GreedyDual".into(),
            (GdMode::Inflation, CostModel::FetchTime(bw)) => {
                format!("GreedyDual(cost=fetch@{}Mbps)", bw.as_bps() / 1_000_000)
            }
            (GdMode::Inflation, CostModel::StartupLatency(bw)) => {
                format!("GreedyDual(cost=latency@{}Mbps)", bw.as_bps() / 1_000_000)
            }
            (GdMode::Inflation, CostModel::Packets) => "GreedyDual(cost=packets)".into(),
        }
    }

    fn capacity(&self) -> ByteSize {
        self.space.capacity()
    }

    fn used(&self) -> ByteSize {
        self.space.used()
    }

    fn contains(&self, clip: ClipId) -> bool {
        self.space.contains(clip)
    }

    fn resident_clips(&self) -> Vec<ClipId> {
        self.space.resident_ids()
    }

    fn access_into(
        &mut self,
        clip: ClipId,
        _now: Timestamp,
        evictions: &mut dyn EvictionSink,
    ) -> AccessEvent {
        let c = *self.space.repo().clip(clip);
        let base = self.cost.priority(c.size, c.display_bandwidth);
        if self.space.contains(clip) {
            // Cache hit: restore the priority under the current inflation.
            self.index.upsert(clip, self.inflation + base);
            return AccessEvent::Hit;
        }
        if !self.space.can_ever_fit(clip) {
            return AccessEvent::Miss { admitted: false };
        }
        while !self.space.fits_now(clip) {
            let (victim, h_min) = self
                .index
                .pop_min_tied(GD_TIES, &mut self.rng, &mut self.ties);
            self.space.remove(victim);
            evictions.record_eviction(victim);
            match self.mode {
                GdMode::Inflation => self.inflation = h_min,
                // Subtract H_min from every remaining resident clip.
                GdMode::Naive => self.index.rescale(|p| p - h_min),
            }
        }
        self.index.upsert(clip, self.inflation + base);
        self.space.insert(clip);
        AccessEvent::Miss { admitted: true }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::AccessOutcome;
    use crate::policies::testutil::{
        assert_equivalent_on, assert_invariants, drive, equi_repo, tiny_repo,
    };

    #[test]
    fn size_aware_eviction() {
        // Uniform cost: priority = 1/size, so the largest clip has the
        // lowest priority and is evicted first.
        let repo = tiny_repo();
        let mut c = GreedyDualCache::new(repo, ByteSize::mb(90), 1);
        c.access(ClipId::new(1), Timestamp(1)); // 10 MB, H = 1e-7
        c.access(ClipId::new(5), Timestamp(2)); // 50 MB, H = 2e-8
        c.access(ClipId::new(3), Timestamp(3)); // 30 MB — fits (90 total)
        let out = c.access(ClipId::new(4), Timestamp(4)); // 40 MB needs room
        assert_eq!(out.evicted(), &[ClipId::new(5)]);
    }

    #[test]
    fn inflation_rises_monotonically() {
        let repo = tiny_repo();
        let mut c = GreedyDualCache::new(Arc::clone(&repo), ByteSize::mb(30), 2);
        let mut last = 0.0;
        for (i, id) in [1u32, 2, 1, 3, 2, 1, 2, 3].iter().enumerate() {
            c.access(ClipId::new(*id), Timestamp(i as u64 + 1));
            assert!(c.inflation() >= last);
            last = c.inflation();
        }
        assert!(last > 0.0, "evictions must have inflated L");
        assert_invariants(&c, &repo);
    }

    #[test]
    fn hit_restores_priority_above_inflation() {
        let repo = tiny_repo();
        let mut c = GreedyDualCache::new(repo, ByteSize::mb(30), 3);
        c.access(ClipId::new(1), Timestamp(1));
        c.access(ClipId::new(2), Timestamp(2)); // evicts nothing (30 MB)
        c.access(ClipId::new(3), Timestamp(3)); // evicts to fit 30 MB clip
        let l = c.inflation();
        assert!(c.contains(ClipId::new(3)));
        let p = c.index.score_of(ClipId::new(3)).unwrap();
        assert!(p > l);
    }

    #[test]
    fn equi_sized_ties_resolved_randomly_but_deterministically() {
        let repo = equi_repo(6);
        let trace = [1u32, 2, 3, 4, 5, 6, 1, 2, 3, 4, 5, 6, 1, 2, 3];
        let mut a = GreedyDualCache::new(Arc::clone(&repo), ByteSize::mb(30), 5);
        let mut b = GreedyDualCache::new(Arc::clone(&repo), ByteSize::mb(30), 5);
        assert_eq!(drive(&mut a, &trace), drive(&mut b, &trace));
        assert_eq!(a.resident_clips(), b.resident_clips());
        // A different seed may resolve ties differently.
        let mut d = GreedyDualCache::new(repo, ByteSize::mb(30), 6);
        let _ = drive(&mut d, &trace);
    }

    #[test]
    fn naive_matches_inflation() {
        let repo = tiny_repo();
        let trace = [1u32, 2, 3, 4, 5, 1, 2, 3, 4, 5, 3, 1, 4, 2, 5, 5, 4, 1];
        let mut infl = GreedyDualCache::with_options(
            Arc::clone(&repo),
            ByteSize::mb(80),
            9,
            CostModel::Uniform,
            GdMode::Inflation,
            VictimBackend::Scan,
        );
        let mut naive = GreedyDualCache::with_options(
            Arc::clone(&repo),
            ByteSize::mb(80),
            9,
            CostModel::Uniform,
            GdMode::Naive,
            VictimBackend::Scan,
        );
        for (i, &id) in trace.iter().enumerate() {
            let a = infl.access(ClipId::new(id), Timestamp(i as u64 + 1));
            let b = naive.access(ClipId::new(id), Timestamp(i as u64 + 1));
            assert_eq!(a, b, "diverged at request {i}");
        }
        assert_eq!(infl.resident_clips(), naive.resident_clips());
    }

    #[test]
    fn heap_backend_is_decision_identical_even_on_ties() {
        // Equi-sized repository: every eviction is a tie, so this
        // exercises the byte-identical tie draw across backends.
        let repo = equi_repo(8);
        let trace = [
            1u32, 2, 3, 4, 5, 6, 7, 8, 1, 3, 5, 7, 2, 4, 6, 8, 8, 1, 2, 5,
        ];
        let mut scan = GreedyDualCache::with_backend(
            Arc::clone(&repo),
            ByteSize::mb(30),
            5,
            VictimBackend::Scan,
        );
        let mut heap = GreedyDualCache::with_backend(
            Arc::clone(&repo),
            ByteSize::mb(30),
            5,
            VictimBackend::Heap,
        );
        assert_equivalent_on(&mut scan, &mut heap, &trace);
        assert_eq!(scan.inflation(), heap.inflation());
    }

    #[test]
    #[should_panic(expected = "scan-only")]
    fn naive_mode_rejects_heap_backend() {
        GreedyDualCache::with_options(
            tiny_repo(),
            ByteSize::mb(30),
            1,
            CostModel::Uniform,
            GdMode::Naive,
            VictimBackend::Heap,
        );
    }

    #[test]
    fn fetch_time_cost_model() {
        let bw = Bandwidth::mbps(8); // 1 MB/s
        let display = Bandwidth::mbps(4);
        let m = CostModel::FetchTime(bw);
        // cost = 10 s for a 10 MB clip; priority = 10 / 1e7 = 1e-6.
        assert!((m.cost(ByteSize::mb(10), display) - 10.0).abs() < 1e-9);
        assert!((m.priority(ByteSize::mb(10), display) - 1e-6).abs() < 1e-15);
        // Uniform: priority 1/size.
        assert!((CostModel::Uniform.priority(ByteSize::mb(10), display) - 1e-7).abs() < 1e-18);
    }

    #[test]
    fn packets_cost_model() {
        let m = CostModel::Packets;
        let display = Bandwidth::mbps(4);
        // 536 bytes → 3 packets; 5360 bytes → 12.
        assert!((m.cost(ByteSize::bytes(536), display) - 3.0).abs() < 1e-9);
        assert!((m.cost(ByteSize::bytes(5_360), display) - 12.0).abs() < 1e-9);
        // Priority ≈ 1/536 per byte for large clips: between Uniform's
        // strong small-clip bias and FetchTime's none.
        let small = m.priority(ByteSize::kb(1), display);
        let big = m.priority(ByteSize::gb(1), display);
        assert!(small > big);
    }

    #[test]
    fn startup_latency_cost_model_differentiates_media() {
        // Over a 1 Mbps link: a 300 Kbps audio clip needs no prefetch
        // (cost = admission overhead); a 4 Mbps video clip must prefetch
        // 3/4 of its bytes, so its miss cost scales with size.
        let link = Bandwidth::mbps(1);
        let m = CostModel::StartupLatency(link);
        let audio = m.cost(ByteSize::mb(9), Bandwidth::kbps(300));
        assert!((audio - 0.5).abs() < 1e-9, "audio cost {audio}");
        let video = m.cost(ByteSize::bytes(3_600_000_000), Bandwidth::mbps(4));
        // prefetch = 2.7 GB at 125 KB/s = 21,600 s (+0.5 s admission).
        assert!((video - 21_600.5).abs() < 1.0, "video cost {video}");
        // Zero-rate link: infinite-cost sentinel.
        assert_eq!(
            CostModel::StartupLatency(Bandwidth::ZERO).cost(ByteSize::mb(1), Bandwidth::kbps(300)),
            f64::MAX
        );
    }

    #[test]
    fn oversized_clip_streams_without_eviction() {
        let repo = tiny_repo();
        let mut c = GreedyDualCache::new(repo, ByteSize::mb(20), 3);
        c.access(ClipId::new(1), Timestamp(1));
        let out = c.access(ClipId::new(5), Timestamp(2)); // 50 MB > 20 MB
        assert_eq!(
            out,
            AccessOutcome::Miss {
                admitted: false,
                evicted: vec![]
            }
        );
        assert!(c.contains(ClipId::new(1)));
    }
}
