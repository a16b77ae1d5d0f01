//! Simple — the off-line packing heuristic (Section 3.1, \[11\]).
//!
//! Simple assumes advance knowledge of every clip's access frequency. It
//! values a clip by its **byte-freq** `f(x)/size(x)` and keeps the cache
//! packed with the highest byte-freq clips: on a miss it swaps out the
//! lowest byte-freq residents to admit the referenced clip. Because the
//! referenced clip is always materialized (the paper's base assumption),
//! an unpopular clip enters the cache and is swapped out by the next miss.
//!
//! The **bypass** variant (Section 3.3's closing remark) streams a
//! referenced clip without caching it when its byte-freq is lower than
//! that of every clip it would displace; the paper found it "either
//! identical or slightly better".
//!
//! For evolving-pattern experiments (Figure 6) the oracle frequencies can
//! be replaced mid-run with [`SimpleCache::set_frequencies`].
//!
//! Victim selection is a batched plan over a frequency table that can be
//! swapped wholesale mid-run, so Simple stays on the scan victim-index
//! backend (see the taxonomy in [`crate::policies`]). It shares Figure 4's
//! pass 1 with DYNSimple: each miss keys every resident once and selects
//! the cheapest prefix.

use crate::cache::{AccessEvent, ClipCache, EvictionSink};
use crate::policies::victim_plan::{cheapest_prefix, evict_and_admit};
use crate::space::CacheSpace;
use clipcache_media::{ByteSize, ClipId, Repository};
use clipcache_workload::Timestamp;
use std::sync::Arc;

/// Admission behaviour of Simple.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimpleAdmission {
    /// Always materialize the referenced clip (the paper's default).
    Always,
    /// Stream low-value clips without caching them (the bypass variant).
    Bypass,
}

/// The off-line Simple policy.
#[derive(Debug, Clone)]
pub struct SimpleCache {
    space: CacheSpace,
    /// Byte-freq value per clip: `f(x) / size(x)`.
    byte_freq: Vec<f64>,
    admission: SimpleAdmission,
    /// Scratch `(byte-freq, clip)` eviction plan reused across misses (no
    /// per-miss allocation).
    plan: Vec<(f64, ClipId)>,
}

impl SimpleCache {
    /// Create a Simple cache given the accurate access frequencies
    /// (`frequencies[i]` belongs to the clip with `ClipId::index() == i`).
    ///
    /// # Panics
    /// If `frequencies.len() != repo.len()` or any frequency is negative
    /// or non-finite.
    pub fn new(
        repo: Arc<Repository>,
        capacity: ByteSize,
        frequencies: &[f64],
        admission: SimpleAdmission,
    ) -> Self {
        let byte_freq = Self::byte_freqs(&repo, frequencies);
        SimpleCache {
            space: CacheSpace::new(repo, capacity),
            byte_freq,
            admission,
            plan: Vec::new(),
        }
    }

    fn byte_freqs(repo: &Repository, frequencies: &[f64]) -> Vec<f64> {
        assert_eq!(
            frequencies.len(),
            repo.len(),
            "one frequency per repository clip required"
        );
        frequencies
            .iter()
            .zip(repo.iter())
            .map(|(&f, clip)| {
                assert!(
                    f.is_finite() && f >= 0.0,
                    "invalid frequency {f} for {}",
                    clip.id
                );
                f / clip.size.as_f64()
            })
            .collect()
    }

    /// Replace the oracle frequencies (used when the workload's shift-id
    /// changes and the off-line oracle is re-informed).
    pub fn set_frequencies(&mut self, frequencies: &[f64]) {
        self.byte_freq = Self::byte_freqs(self.space.repo(), frequencies);
    }

    /// The byte-freq value of a clip.
    pub fn byte_freq(&self, clip: ClipId) -> f64 {
        self.byte_freq[clip.index()]
    }
}

impl ClipCache for SimpleCache {
    fn name(&self) -> String {
        match self.admission {
            SimpleAdmission::Always => "Simple".into(),
            SimpleAdmission::Bypass => "Simple(bypass)".into(),
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

    fn inform_frequencies(&mut self, frequencies: &[f64]) {
        self.set_frequencies(frequencies);
    }

    fn access_into(
        &mut self,
        clip: ClipId,
        _now: Timestamp,
        evictions: &mut dyn EvictionSink,
    ) -> AccessEvent {
        if self.space.contains(clip) {
            return AccessEvent::Hit;
        }
        if !self.space.can_ever_fit(clip) {
            return AccessEvent::Miss { admitted: false };
        }
        // The cheapest byte-freq residents (ties broken by clip id for
        // determinism) until the incoming clip fits.
        let byte_freq = &self.byte_freq;
        cheapest_prefix(&mut self.plan, &self.space, clip, |c| byte_freq[c.index()]);
        if self.admission == SimpleAdmission::Bypass {
            // Stream without caching when the incoming clip is worth no
            // more than a clip it would displace.
            let incoming_value = byte_freq[clip.index()];
            if self.plan.iter().any(|&(value, _)| incoming_value <= value) {
                return AccessEvent::Miss { admitted: false };
            }
        }
        evict_and_admit(&mut self.space, &self.plan, clip, evictions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::AccessOutcome;
    use crate::policies::testutil::{assert_invariants, tiny_repo};

    /// tiny_repo sizes: 10, 20, 30, 40, 50 MB for clips 1..=5.
    fn freqs(f: [f64; 5]) -> Vec<f64> {
        f.to_vec()
    }

    #[test]
    fn packs_highest_byte_freq() {
        // byte-freq: f/size → clip 1: .5/10, clip 2: .3/20, clip 5: .2/50.
        let repo = tiny_repo();
        let mut c = SimpleCache::new(
            Arc::clone(&repo),
            ByteSize::mb(30),
            &freqs([0.5, 0.3, 0.0, 0.0, 0.2]),
            SimpleAdmission::Always,
        );
        c.access(ClipId::new(1), Timestamp(1));
        c.access(ClipId::new(2), Timestamp(2));
        // Cache full (30 MB). Clip 5 (50 MB) can never fit.
        let out = c.access(ClipId::new(5), Timestamp(3));
        assert_eq!(
            out,
            AccessOutcome::Miss {
                admitted: false,
                evicted: vec![]
            }
        );
        // Clip 3 (30 MB, byte-freq 0) displaces the cheapest residents:
        // clip 2 (0.3/20 = 0.015) then clip 1 (0.5/10 = 0.05).
        let out = c.access(ClipId::new(3), Timestamp(4));
        assert_eq!(out.evicted(), &[ClipId::new(2), ClipId::new(1)]);
        assert_invariants(&c, &repo);
    }

    #[test]
    fn unpopular_clip_swapped_out_by_next_miss() {
        // The thrash the paper describes: an unpopular clip enters, then
        // leaves on the very next miss because its byte-freq is lowest.
        let repo = tiny_repo();
        let mut c = SimpleCache::new(
            repo,
            ByteSize::mb(30),
            &freqs([0.6, 0.3, 0.05, 0.05, 0.0]),
            SimpleAdmission::Always,
        );
        c.access(ClipId::new(1), Timestamp(1));
        c.access(ClipId::new(2), Timestamp(2));
        let out = c.access(ClipId::new(3), Timestamp(3)); // unpopular, 30 MB
        assert!(matches!(out, AccessOutcome::Miss { admitted: true, .. }));
        let out = c.access(ClipId::new(2), Timestamp(4));
        assert_eq!(out.evicted(), &[ClipId::new(3)]);
    }

    #[test]
    fn bypass_streams_low_value_clips() {
        let repo = tiny_repo();
        let mut c = SimpleCache::new(
            Arc::clone(&repo),
            ByteSize::mb(30),
            &freqs([0.6, 0.3, 0.0, 0.0, 0.0]),
            SimpleAdmission::Bypass,
        );
        assert_eq!(c.name(), "Simple(bypass)");
        c.access(ClipId::new(1), Timestamp(1));
        c.access(ClipId::new(2), Timestamp(2));
        // Clip 3 would displace clips with higher byte-freq: bypassed.
        let out = c.access(ClipId::new(3), Timestamp(3));
        assert_eq!(
            out,
            AccessOutcome::Miss {
                admitted: false,
                evicted: vec![]
            }
        );
        assert!(c.contains(ClipId::new(1)));
        assert!(c.contains(ClipId::new(2)));
        assert_invariants(&c, &repo);
    }

    #[test]
    fn bypass_admits_when_space_is_free() {
        let repo = tiny_repo();
        let mut c = SimpleCache::new(
            repo,
            ByteSize::mb(100),
            &freqs([0.2, 0.2, 0.2, 0.2, 0.2]),
            SimpleAdmission::Bypass,
        );
        // No eviction needed → always admitted.
        let out = c.access(ClipId::new(4), Timestamp(1));
        assert!(matches!(out, AccessOutcome::Miss { admitted: true, .. }));
    }

    #[test]
    fn set_frequencies_reorders_victims() {
        let repo = tiny_repo();
        let mut c = SimpleCache::new(
            Arc::clone(&repo),
            ByteSize::mb(30),
            &freqs([0.9, 0.1, 0.0, 0.0, 0.0]),
            SimpleAdmission::Always,
        );
        c.access(ClipId::new(1), Timestamp(1));
        c.access(ClipId::new(2), Timestamp(2));
        // Flip the oracle: clip 1 becomes worthless.
        c.set_frequencies(&freqs([0.0, 0.1, 0.9, 0.0, 0.0]));
        let out = c.access(ClipId::new(3), Timestamp(3));
        // Clip 3 (30 MB) needs the full cache: evicts clip 1 first now.
        assert_eq!(out.evicted()[0], ClipId::new(1));
        assert_invariants(&c, &repo);
    }

    #[test]
    #[should_panic(expected = "one frequency per repository clip")]
    fn wrong_frequency_count_panics() {
        SimpleCache::new(
            tiny_repo(),
            ByteSize::mb(10),
            &[0.5, 0.5],
            SimpleAdmission::Always,
        );
    }

    #[test]
    #[should_panic(expected = "invalid frequency")]
    fn negative_frequency_panics() {
        SimpleCache::new(
            tiny_repo(),
            ByteSize::mb(10),
            &freqs([0.5, -0.1, 0.2, 0.2, 0.2]),
            SimpleAdmission::Always,
        );
    }
}
