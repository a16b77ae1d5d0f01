//! Interval-based GreedyDual (IGD) — the paper's Section 4.2 contribution.
//!
//! GreedyDual-Freq's weakness is that `nref` grows monotonically while a
//! clip is resident, so formerly popular clips linger (cache pollution).
//! IGD ages the count by the time since the clip's last reference:
//!
//! ```text
//! H(x) = L(x) + nref(x) / (d₁(x) · size(x))
//! ```
//!
//! (the paper's `cost` factor is GreedyDual's uniform cost, 1), where
//! `d₁(x) = now − last_reference(x)` and `L(x)` is the inflation
//! value captured when `x` was last accessed. If a popular clip stops
//! receiving hits, `d₁` grows every tick, its priority decays, and IGD
//! swaps it out; on eviction `nref` is forgotten (reset for the next
//! admission), exactly as in GreedyDual-Freq.
//!
//! Because `d₁` changes with time, priorities cannot be cached in a heap;
//! IGD evaluates them lazily at eviction time with a scan over the
//! residents, O(residents + n/64) for `n` clips (the paper's conclusion
//! lists a tree-based accelerator as future work).
//!
//! Two small normalizations (documented in DESIGN.md): `nref` counts the
//! admitting reference (the paper's reset-to-zero would make every freshly
//! admitted clip the immediate next victim), and `d₁` is floored at one
//! tick (a clip referenced at `now` would otherwise divide by zero).

use crate::cache::{AccessEvent, ClipCache, EvictionSink};
use crate::space::CacheSpace;
use clipcache_media::{ByteSize, ClipId, Repository};
use clipcache_workload::{Pcg64, Timestamp};
use std::sync::Arc;

/// RNG stream constant for tie-breaks.
const IGD_STREAM: u64 = 0x6967_6474; // "igdt"

/// How `nref` is initialized on admission.
///
/// The paper's text resets `nref` to zero on admission. That reading is
/// an implicit *admission probation*: a fresh clip's priority is exactly
/// `L`, so it is the next victim unless it earns a hit first. The
/// `ablation` experiment measures the consequences on both repositories:
/// probation wins ~7–9 points on **equi-sized** clips (and with it IGD
/// matches DYNSimple, exactly where Figure 5.a draws it) but *collapses*
/// on the **variable-sized** repository — every fresh clip ties at `L`
/// regardless of size, so IGD loses its size-awareness for new content
/// and falls 10+ points below where Figures 6–7 place it. Since no
/// single reading matches every figure, we default to GreedyDual-Freq's
/// count-the-admission convention (`nref = 1`), which reproduces the
/// adaptability figures, and keep the literal reading selectable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NrefMode {
    /// Count the admitting reference (`nref = 1`), as GreedyDual-Freq
    /// does. The default.
    CountAdmission,
    /// The paper's literal text (`nref = 0`): admission probation.
    LiteralZero,
}

/// Interval-based GreedyDual replacement.
#[derive(Debug, Clone)]
pub struct IgdCache {
    space: CacheSpace,
    /// Inflation value captured at the clip's last access.
    l_at_access: Vec<f64>,
    /// References since admission (reset on eviction).
    nref: Vec<u64>,
    /// Last reference time (resident clips only).
    last_ref: Vec<Timestamp>,
    inflation: f64,
    nref_mode: NrefMode,
    rng: Pcg64,
    /// Scratch tie list reused across evictions (no per-miss allocation).
    ties: Vec<ClipId>,
}

impl IgdCache {
    /// Create an empty IGD cache (uniform cost, `nref = 1` on admission).
    pub fn new(repo: Arc<Repository>, capacity: ByteSize, seed: u64) -> Self {
        IgdCache::with_nref_mode(repo, capacity, seed, NrefMode::CountAdmission)
    }

    /// Create an IGD cache with an explicit `nref` initialization mode
    /// (the ablation knob for DESIGN.md's documented deviation).
    pub fn with_nref_mode(
        repo: Arc<Repository>,
        capacity: ByteSize,
        seed: u64,
        nref_mode: NrefMode,
    ) -> Self {
        let n = repo.len();
        IgdCache {
            space: CacheSpace::new(repo, capacity),
            l_at_access: vec![0.0; n],
            nref: vec![0; n],
            last_ref: vec![Timestamp::ZERO; n],
            inflation: 0.0,
            nref_mode,
            rng: Pcg64::seed_from_u64_stream(seed, IGD_STREAM),
            ties: Vec::new(),
        }
    }

    /// The in-cache reference count of a clip.
    pub fn nref(&self, clip: ClipId) -> u64 {
        self.nref[clip.index()]
    }

    /// The current inflation value `L`.
    pub fn inflation(&self) -> f64 {
        self.inflation
    }

    /// The lazily evaluated priority of a resident clip at time `now`.
    pub fn priority_at(&self, clip: ClipId, now: Timestamp) -> f64 {
        let i = clip.index();
        let size = self.space.repo().size_of(clip);
        let d1 = now.since(self.last_ref[i]).max(1) as f64;
        self.l_at_access[i] + self.nref[i] as f64 / (d1 * size.as_f64())
    }

    fn choose_victim(&mut self, exclude: ClipId, now: Timestamp) -> (ClipId, f64) {
        let mut min = f64::INFINITY;
        let mut ties = std::mem::take(&mut self.ties);
        ties.clear();
        for c in self.space.iter_resident() {
            if c == exclude {
                continue;
            }
            let p = self.priority_at(c, now);
            if p < min {
                min = p;
                ties.clear();
                ties.push(c);
            } else if p == min {
                ties.push(c);
            }
        }
        assert!(!ties.is_empty(), "eviction requested from an empty cache");
        let pick = if ties.len() == 1 {
            ties[0]
        } else {
            ties[self.rng.next_index(ties.len())]
        };
        self.ties = ties;
        (pick, min)
    }
}

impl ClipCache for IgdCache {
    fn name(&self) -> String {
        match self.nref_mode {
            NrefMode::CountAdmission => "IGD".into(),
            NrefMode::LiteralZero => "IGD(nref=0)".into(),
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
        let i = clip.index();
        if self.space.contains(clip) {
            self.nref[i] += 1;
            self.last_ref[i] = now;
            self.l_at_access[i] = self.inflation;
            return AccessEvent::Hit;
        }
        if !self.space.can_ever_fit(clip) {
            return AccessEvent::Miss { admitted: false };
        }
        while !self.space.fits_now(clip) {
            let (victim, h_min) = self.choose_victim(clip, now);
            self.space.remove(victim);
            self.nref[victim.index()] = 0; // forget on eviction
                                           // Inflation may only rise: a decayed priority below the
                                           // current L must not deflate future admissions.
            self.inflation = self.inflation.max(h_min);
            evictions.record_eviction(victim);
        }
        self.nref[i] = match self.nref_mode {
            NrefMode::CountAdmission => 1,
            NrefMode::LiteralZero => 0,
        };
        self.last_ref[i] = now;
        self.l_at_access[i] = self.inflation;
        self.space.insert(clip);
        AccessEvent::Miss { admitted: true }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policies::testutil::{assert_invariants, equi_repo, tiny_repo};

    #[test]
    fn staleness_decays_priority() {
        let repo = equi_repo(4);
        let mut c = IgdCache::new(repo, ByteSize::mb(20), 1);
        // Clip 1 gets many early hits; clip 2 is referenced recently.
        for t in 1..=10 {
            c.access(ClipId::new(1), Timestamp(t));
        }
        c.access(ClipId::new(2), Timestamp(999));
        // At t = 1000 clip 1's d₁ is huge, clip 2's is one tick.
        let p1 = c.priority_at(ClipId::new(1), Timestamp(1_000));
        let p2 = c.priority_at(ClipId::new(2), Timestamp(1_000));
        assert!(p1 < p2, "aged nref must not dominate: p1 = {p1}, p2 = {p2}");
        // The stale hot clip is evicted despite nref = 10.
        let out = c.access(ClipId::new(3), Timestamp(1_000));
        assert_eq!(out.evicted(), &[ClipId::new(1)]);
    }

    #[test]
    fn recovers_from_pattern_shift_unlike_gd_freq() {
        // The exact scenario of gd_freq's pollution test: IGD must evict
        // the stale clip once it stops being referenced.
        let repo = equi_repo(4);
        let mut c = IgdCache::new(Arc::clone(&repo), ByteSize::mb(20), 1);
        let mut t = 0u64;
        let mut tick = || {
            t += 1;
            Timestamp(t)
        };
        for _ in 0..20 {
            c.access(ClipId::new(1), tick());
        }
        for _ in 0..10 {
            c.access(ClipId::new(2), tick());
            c.access(ClipId::new(3), tick());
            c.access(ClipId::new(4), tick());
        }
        assert!(
            !c.contains(ClipId::new(1)),
            "IGD must age out the stale clip"
        );
        assert_invariants(&c, &repo);
    }

    #[test]
    fn nref_reset_on_eviction() {
        let repo = equi_repo(3);
        let mut c = IgdCache::new(repo, ByteSize::mb(10), 1);
        for t in 1..=5 {
            c.access(ClipId::new(1), Timestamp(t));
        }
        assert_eq!(c.nref(ClipId::new(1)), 5);
        c.access(ClipId::new(2), Timestamp(6));
        assert_eq!(c.nref(ClipId::new(1)), 0);
    }

    #[test]
    fn size_considered_in_priority() {
        let repo = tiny_repo();
        let mut c = IgdCache::new(repo, ByteSize::mb(60), 2);
        c.access(ClipId::new(1), Timestamp(1)); // 10 MB
        c.access(ClipId::new(5), Timestamp(2)); // 50 MB
                                                // Equal nref and nearly equal d₁: the big clip has lower priority.
        let out = c.access(ClipId::new(2), Timestamp(3));
        assert_eq!(out.evicted(), &[ClipId::new(5)]);
    }

    #[test]
    fn inflation_never_decreases() {
        let repo = tiny_repo();
        let mut c = IgdCache::new(Arc::clone(&repo), ByteSize::mb(40), 3);
        let trace = [1u32, 2, 3, 1, 4, 5, 2, 1, 3, 4, 5, 1, 2];
        let mut last = 0.0;
        for (i, &id) in trace.iter().enumerate() {
            c.access(ClipId::new(id), Timestamp(i as u64 + 1));
            assert!(c.inflation() >= last);
            last = c.inflation();
        }
        assert_invariants(&c, &repo);
    }
}
