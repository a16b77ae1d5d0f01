//! DYNSimple — the paper's flagship contribution (Section 4.1, Figure 4).
//!
//! Simple made on-line: instead of oracle frequencies, DYNSimple estimates
//! each clip's frequency of access from the timestamps of its last K
//! references. At time `t`, the arrival rate of requests for clip `x` is
//! `a(x) = K / (t − t_K(x))` (using however many references are known for
//! clips with fewer than K), and the estimated frequency is
//! `f̂(x) = a(x) / Σ_j a(j)`. Since the normalizer is shared by every
//! clip, victim *ranking* needs only `a(x)/size(x)`.
//!
//! Victim selection follows Figure 4's two-pass shape:
//!
//! 1. walk residents in ascending `f̂/size` order, over-collecting victims
//!    until `free + Σ victim sizes ≥ size(incoming)`;
//! 2. evict from that victim set in **descending size** order, stopping as
//!    soon as the incoming clip fits — sparing small candidates that the
//!    first pass over-collected.
//!
//! History is kept for non-resident clips too (that is what makes the
//! estimates work); the paper's proposed metadata-retention rule is exposed
//! via [`DynSimpleCache::prune_history`].
//!
//! The rank key `a(x)/size(x)` ages with the clock, so no static index
//! can hold it and DYNSimple stays on the scan victim-index backend (see
//! the taxonomy in [`crate::policies`]). Each miss computes every
//! resident's key once and selects the cheapest prefix with the victim
//! planner it shares with Simple.

use crate::cache::{AccessEvent, ClipCache, EvictionSink};
use crate::history::ReferenceHistory;
use crate::policies::victim_plan::{cheapest_prefix, evict_and_admit};
use crate::space::CacheSpace;
use clipcache_media::{ByteSize, ClipId, Repository};
use clipcache_workload::Timestamp;
use std::sync::Arc;

/// Admission behaviour of DYNSimple.
///
/// The paper's Section 2 closes with "A future research direction is to
/// consider scenarios where the cache manager does not materialize an
/// unpopular clip" — [`DynAdmission::Bypass`] is that scenario: a missed
/// clip is streamed without caching when its estimated value per byte is
/// below that of every clip it would displace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DynAdmission {
    /// Always materialize the referenced clip (the paper's default).
    Always,
    /// Stream low-value clips without caching them.
    Bypass,
}

/// Which victim-selection shape to use — the ablation knob for Figure 4's
/// two-pass design.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvictionMode {
    /// Figure 4: over-collect the cheapest candidates, then evict from
    /// that set in descending size order, sparing over-collected small
    /// clips (the paper's design, our default).
    TwoPass,
    /// Ablation: evict in plain ascending `f̂/size` order until the
    /// incoming clip fits — no sparing pass.
    SinglePass,
}

/// The on-line Dynamic Simple policy.
#[derive(Debug, Clone)]
pub struct DynSimpleCache {
    space: CacheSpace,
    history: ReferenceHistory,
    admission: DynAdmission,
    eviction: EvictionMode,
    /// Scratch `(rank key, clip)` victim plan reused across misses (no
    /// per-miss allocation).
    victims: Vec<(f64, ClipId)>,
}

impl DynSimpleCache {
    /// Create an empty DYNSimple cache estimating frequencies from the
    /// last `k` references (the paper evaluates K = 2 and K = 32 and
    /// recommends K = 2 as sufficient).
    ///
    /// # Panics
    /// If `k == 0`.
    pub fn new(repo: Arc<Repository>, capacity: ByteSize, k: usize) -> Self {
        DynSimpleCache::with_admission(repo, capacity, k, DynAdmission::Always)
    }

    /// Create a DYNSimple cache with an explicit admission mode.
    ///
    /// # Panics
    /// If `k == 0`.
    pub fn with_admission(
        repo: Arc<Repository>,
        capacity: ByteSize,
        k: usize,
        admission: DynAdmission,
    ) -> Self {
        let n = repo.len();
        DynSimpleCache {
            space: CacheSpace::new(repo, capacity),
            history: ReferenceHistory::new(n, k),
            admission,
            eviction: EvictionMode::TwoPass,
            victims: Vec::new(),
        }
    }

    /// Switch the victim-selection shape (ablation; see [`EvictionMode`]).
    pub fn set_eviction_mode(&mut self, eviction: EvictionMode) {
        self.eviction = eviction;
    }

    /// The configured history depth K.
    pub fn k(&self) -> usize {
        self.history.k()
    }

    /// Read access to the reference history.
    pub fn history(&self) -> &ReferenceHistory {
        &self.history
    }

    /// The estimated frequency of access to `clip` at time `now`:
    /// `a(clip) / Σ a(j)` over all clips with any recorded history.
    ///
    /// O(n); used by tests and the estimate-quality experiment. Victim
    /// selection uses the cheaper unnormalized rate.
    pub fn estimated_frequency(&self, clip: ClipId, now: Timestamp) -> f64 {
        let total: f64 = self
            .space
            .repo()
            .ids()
            .map(|c| self.history.arrival_rate(c, now))
            .sum();
        if total == 0.0 {
            0.0
        } else {
            self.history.arrival_rate(clip, now) / total
        }
    }

    /// All estimated frequencies at `now`, indexed by `ClipId::index()`.
    pub fn estimated_frequencies(&self, now: Timestamp) -> Vec<f64> {
        let rates: Vec<f64> = self
            .space
            .repo()
            .ids()
            .map(|c| self.history.arrival_rate(c, now))
            .collect();
        let total: f64 = rates.iter().sum();
        if total == 0.0 {
            rates
        } else {
            rates.into_iter().map(|r| r / total).collect()
        }
    }

    /// The victim-ranking key `a(x)/size(x)` (ascending = evict first).
    pub fn rank_key(&self, clip: ClipId, now: Timestamp) -> f64 {
        self.history.arrival_rate(clip, now) / self.space.size_of(clip).as_f64()
    }

    /// Apply the metadata-retention rule: forget histories whose latest
    /// reference is older than `horizon`. Returns the number pruned.
    pub fn prune_history(&mut self, horizon: Timestamp) -> usize {
        self.history.prune_older_than(horizon)
    }

    /// Figure 4's victim selection. Fills `self.victims` with the clips to
    /// evict, in eviction order, each with its rank key.
    fn plan_victims(&mut self, incoming: ClipId, now: Timestamp) {
        let mut victims = std::mem::take(&mut self.victims);
        // Pass 1: the cheapest residents by f̂/size (ties: lower id
        // first), over-collected until the incoming clip would fit.
        cheapest_prefix(&mut victims, &self.space, incoming, |c| {
            self.rank_key(c, now)
        });
        // Pass 2: evict descending by size until the clip fits, sparing
        // over-collected small candidates (ties: lower id first). The
        // SinglePass ablation keeps the pass-1 (ascending value) order,
        // whose every victim is needed.
        if self.eviction == EvictionMode::TwoPass {
            let size = |c: ClipId| self.space.size_of(c);
            victims.sort_unstable_by(|a, b| size(b.1).cmp(&size(a.1)).then_with(|| a.1.cmp(&b.1)));
            let (need, mut freed, mut planned) = (size(incoming), self.space.free(), 0);
            while freed < need && planned < victims.len() {
                freed += size(victims[planned].1);
                planned += 1;
            }
            victims.truncate(planned);
        }
        self.victims = victims;
    }
}

impl ClipCache for DynSimpleCache {
    fn name(&self) -> String {
        match self.admission {
            DynAdmission::Always => format!("DYNSimple(K={})", self.history.k()),
            DynAdmission::Bypass => format!("DYNSimple(K={},bypass)", self.history.k()),
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
        now: Timestamp,
        evictions: &mut dyn EvictionSink,
    ) -> AccessEvent {
        self.history.record(clip, now);
        if self.space.contains(clip) {
            return AccessEvent::Hit;
        }
        if !self.space.can_ever_fit(clip) {
            return AccessEvent::Miss { admitted: false };
        }
        self.plan_victims(clip, now);
        if self.admission == DynAdmission::Bypass {
            // Stream without caching when the incoming clip's estimated
            // value per byte is at most that of a clip it would displace.
            let incoming_value = self.rank_key(clip, now);
            if self.victims.iter().any(|&(key, _)| incoming_value <= key) {
                return AccessEvent::Miss { admitted: false };
            }
        }
        evict_and_admit(&mut self.space, &self.victims, clip, evictions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policies::testutil::{assert_invariants, drive, tiny_repo};

    #[test]
    fn estimates_track_access_rates() {
        let repo = tiny_repo();
        let mut c = DynSimpleCache::new(repo, ByteSize::mb(150), 2);
        // Clip 1 referenced every other tick, clip 2 every 4 ticks.
        for t in 1..=16 {
            if t % 2 == 1 {
                c.access(ClipId::new(1), Timestamp(t));
            } else if t % 4 == 0 {
                c.access(ClipId::new(2), Timestamp(t));
            } else {
                c.access(ClipId::new(3), Timestamp(t));
            }
        }
        let now = Timestamp(17);
        let f1 = c.estimated_frequency(ClipId::new(1), now);
        let f2 = c.estimated_frequency(ClipId::new(2), now);
        assert!(f1 > f2, "f1 = {f1}, f2 = {f2}");
        let all = c.estimated_frequencies(now);
        let total: f64 = all.iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn evicts_lowest_rate_per_byte() {
        let repo = tiny_repo();
        let mut c = DynSimpleCache::new(repo, ByteSize::mb(60), 2);
        // Clip 1 (10 MB) hot, clip 5 (50 MB) referenced once, long ago.
        c.access(ClipId::new(5), Timestamp(1));
        for t in 2..=9 {
            c.access(ClipId::new(1), Timestamp(t));
        }
        // Incoming 20 MB clip: clip 5 has far lower a/size.
        let out = c.access(ClipId::new(2), Timestamp(10));
        assert_eq!(out.evicted(), &[ClipId::new(5)]);
        assert!(c.contains(ClipId::new(1)));
    }

    #[test]
    fn second_pass_spares_small_over_collected_victims() {
        // Construct: free space 0, need 40 MB. Candidates by ascending
        // value: clip 1 (10 MB, coldest), clip 5 (50 MB, warmer).
        // Pass 1 over-collects both (10 < 40, 10+50 ≥ 40); pass 2 evicts
        // the 50 MB clip first, which alone suffices → clip 1 is spared.
        let repo = tiny_repo();
        let mut c = DynSimpleCache::new(repo, ByteSize::mb(60), 2);
        c.access(ClipId::new(1), Timestamp(1)); // coldest (oldest, small)
        c.access(ClipId::new(5), Timestamp(50));
        c.access(ClipId::new(5), Timestamp(51)); // clip 5 warm but bigger
        let out = c.access(ClipId::new(4), Timestamp(52)); // 40 MB
        assert_eq!(out.evicted(), &[ClipId::new(5)]);
        assert!(c.contains(ClipId::new(1)), "small victim must be spared");
    }

    #[test]
    fn history_survives_eviction() {
        let repo = tiny_repo();
        let mut c = DynSimpleCache::new(repo, ByteSize::mb(50), 2);
        c.access(ClipId::new(4), Timestamp(1));
        c.access(ClipId::new(5), Timestamp(2)); // evicts 4
        assert!(!c.contains(ClipId::new(4)));
        assert_eq!(c.history().last(ClipId::new(4)), Some(Timestamp(1)));
    }

    #[test]
    fn prune_history_forgets_stale_clips() {
        let repo = tiny_repo();
        let mut c = DynSimpleCache::new(repo, ByteSize::mb(100), 2);
        c.access(ClipId::new(1), Timestamp(1));
        c.access(ClipId::new(2), Timestamp(50));
        assert_eq!(c.prune_history(Timestamp(10)), 1);
        assert_eq!(c.history().last(ClipId::new(1)), None);
        assert_eq!(c.history().last(ClipId::new(2)), Some(Timestamp(50)));
    }

    #[test]
    fn invariants_under_churn() {
        let repo = tiny_repo();
        let mut c = DynSimpleCache::new(Arc::clone(&repo), ByteSize::mb(70), 2);
        drive(&mut c, &[1, 2, 3, 4, 5, 5, 4, 3, 2, 1, 3, 1, 4, 2, 5]);
        assert_invariants(&c, &repo);
    }

    #[test]
    fn name_includes_k() {
        let c = DynSimpleCache::new(tiny_repo(), ByteSize::mb(10), 32);
        assert_eq!(c.name(), "DYNSimple(K=32)");
    }
}
