//! Per-clip reference history: the last K reference timestamps.
//!
//! LRU-K, LRU-SK and DYNSimple all need the time stamps of a clip's last K
//! references, *including clips that are not cache resident* (Section 4.1:
//! "Dynamic Simple maintains K time stamps for those clips that are not in
//! its cache"). IGD needs only the last reference time of resident clips
//! but reuses the same structure.
//!
//! Histories are stored as fixed-capacity rings so recording a reference is
//! O(1) and allocation-free after construction. The paper discusses bounding
//! the metadata footprint with a "5-minute-rule"-style retention policy
//! (future work in the paper); [`ReferenceHistory::prune_older_than`]
//! implements that knob: histories whose most recent reference is older
//! than a horizon are forgotten.

use clipcache_media::ClipId;
use clipcache_workload::Timestamp;

/// Ring buffer of the last K reference times for one clip.
#[derive(Debug, Clone, Default)]
struct ClipHistory {
    /// Timestamps, most recent last; length ≤ K.
    times: Vec<Timestamp>,
    /// Index of the oldest entry once the ring is full.
    head: usize,
    /// Total references ever recorded (can exceed K).
    total: u64,
}

impl ClipHistory {
    fn record(&mut self, now: Timestamp, k: usize) {
        if self.times.len() < k {
            // Size the ring once, so filling it never reallocates.
            self.times.reserve_exact(k - self.times.len());
            self.times.push(now);
        } else {
            self.times[self.head] = now;
            self.head = (self.head + 1) % k;
        }
        self.total += 1;
    }

    /// The i-th most recent reference (i = 1 is the latest).
    fn ith_last(&self, i: usize) -> Option<Timestamp> {
        let len = self.times.len();
        if i == 0 || i > len {
            return None;
        }
        // `head` points at the oldest entry; latest is head + len - 1.
        let idx = (self.head + len - i) % len;
        Some(self.times[idx])
    }

    fn clear(&mut self) {
        self.times.clear();
        self.head = 0;
        self.total = 0;
    }
}

/// Last-K reference timestamps for every clip in a repository.
#[derive(Debug, Clone)]
pub struct ReferenceHistory {
    k: usize,
    clips: Vec<ClipHistory>,
}

impl ReferenceHistory {
    /// Track the last `k` references for `n_clips` clips.
    ///
    /// # Panics
    /// If `k == 0`.
    pub fn new(n_clips: usize, k: usize) -> Self {
        assert!(k > 0, "history depth K must be positive");
        ReferenceHistory {
            k,
            clips: vec![ClipHistory::default(); n_clips],
        }
    }

    /// The configured depth K.
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Record a reference to `clip` at time `now`.
    #[inline]
    pub fn record(&mut self, clip: ClipId, now: Timestamp) {
        let k = self.k;
        self.clips[clip.index()].record(now, k);
    }

    /// Record a reference subject to a *Correlated Reference Period*
    /// (O'Neil et al.'s refinement of LRU-K): a re-reference within `crp`
    /// ticks of the clip's last reference is treated as part of the same
    /// logical access — it refreshes the most recent timestamp instead of
    /// pushing a new one, so bursts of correlated references do not
    /// inflate the clip's apparent popularity. `crp = 0` reduces to
    /// [`ReferenceHistory::record`]. Returns whether the reference was
    /// counted as a new (uncorrelated) access.
    pub fn record_with_crp(&mut self, clip: ClipId, now: Timestamp, crp: u64) -> bool {
        let k = self.k;
        let h = &mut self.clips[clip.index()];
        if crp > 0 {
            if let Some(last) = {
                let len = h.times.len();
                (len > 0).then(|| h.times[(h.head + len - 1) % len])
            } {
                if now.since(last) <= crp {
                    // Correlated: refresh the latest stamp in place.
                    let len = h.times.len();
                    let idx = (h.head + len - 1) % len;
                    h.times[idx] = now;
                    return false;
                }
            }
        }
        h.record(now, k);
        true
    }

    /// Number of references recorded for `clip` (capped history, uncapped
    /// count).
    #[inline]
    pub fn total_references(&self, clip: ClipId) -> u64 {
        self.clips[clip.index()].total
    }

    /// Number of timestamps currently retained for `clip` (≤ K).
    #[inline]
    pub fn known(&self, clip: ClipId) -> usize {
        self.clips[clip.index()].times.len()
    }

    /// The most recent reference time, if any.
    #[inline]
    pub fn last(&self, clip: ClipId) -> Option<Timestamp> {
        self.clips[clip.index()].ith_last(1)
    }

    /// The i-th most recent reference time (i = 1 is the latest).
    #[inline]
    pub fn ith_last(&self, clip: ClipId, i: usize) -> Option<Timestamp> {
        self.clips[clip.index()].ith_last(i)
    }

    /// The K-th most recent reference time (the full backward K-distance
    /// anchor of LRU-K), if the clip has at least K recorded references.
    #[inline]
    pub fn kth_last(&self, clip: ClipId) -> Option<Timestamp> {
        self.ith_last(clip, self.k)
    }

    /// The oldest retained reference time, if any. For a clip with fewer
    /// than K references this is its first reference.
    #[inline]
    pub fn oldest_known(&self, clip: ClipId) -> Option<Timestamp> {
        let known = self.known(clip);
        self.ith_last(clip, known)
    }

    /// Estimated arrival rate of requests for `clip` at time `now`
    /// (Section 4.1): `count / (now − t_oldest)`, using the `count ≤ K`
    /// retained references. Returns 0 for never-referenced clips.
    ///
    /// The elapsed window is floored at one tick: a clip referenced at
    /// `now` itself would otherwise divide by zero.
    pub fn arrival_rate(&self, clip: ClipId, now: Timestamp) -> f64 {
        let h = &self.clips[clip.index()];
        let count = h.times.len();
        if count == 0 {
            return 0.0;
        }
        let oldest = self
            .oldest_known(clip)
            .expect("count > 0 implies a retained timestamp");
        let window = now.since(oldest).max(1);
        count as f64 / window as f64
    }

    /// Forget the history of clips whose most recent reference is older
    /// than `horizon` — the paper's proposed 5-minute-rule-style metadata
    /// retention rule. Returns the number of clips forgotten.
    pub fn prune_older_than(&mut self, horizon: Timestamp) -> usize {
        let mut pruned = 0;
        for h in &mut self.clips {
            if let Some(&latest_candidate) = h.times.iter().max() {
                if latest_candidate < horizon {
                    h.clear();
                    pruned += 1;
                }
            }
        }
        pruned
    }

    /// Drop all history for one clip (IGD forgets `nref` on eviction; tests
    /// use this to model cold restarts).
    pub fn forget(&mut self, clip: ClipId) {
        self.clips[clip.index()].clear();
    }

    /// Approximate heap footprint in bytes of the retained timestamps —
    /// the paper's Section 4.1 back-of-envelope (4 MB for K = 2 over one
    /// million clips with 4-byte stamps; ours are 8-byte).
    pub fn metadata_bytes(&self) -> usize {
        self.clips
            .iter()
            .map(|h| h.times.len() * std::mem::size_of::<Timestamp>())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts(t: u64) -> Timestamp {
        Timestamp(t)
    }

    #[test]
    fn records_in_order() {
        let mut h = ReferenceHistory::new(4, 3);
        let c = ClipId::new(2);
        for t in [5, 9, 11] {
            h.record(c, ts(t));
        }
        assert_eq!(h.last(c), Some(ts(11)));
        assert_eq!(h.ith_last(c, 2), Some(ts(9)));
        assert_eq!(h.ith_last(c, 3), Some(ts(5)));
        assert_eq!(h.kth_last(c), Some(ts(5)));
        assert_eq!(h.total_references(c), 3);
    }

    #[test]
    fn ring_overwrites_oldest() {
        let mut h = ReferenceHistory::new(2, 2);
        let c = ClipId::new(1);
        for t in 1..=5 {
            h.record(c, ts(t));
        }
        assert_eq!(h.last(c), Some(ts(5)));
        assert_eq!(h.kth_last(c), Some(ts(4)));
        assert_eq!(h.total_references(c), 5);
        assert_eq!(h.known(c), 2);
    }

    #[test]
    fn unreferenced_clip_has_no_history() {
        let h = ReferenceHistory::new(3, 2);
        let c = ClipId::new(3);
        assert_eq!(h.last(c), None);
        assert_eq!(h.kth_last(c), None);
        assert_eq!(h.known(c), 0);
        assert_eq!(h.arrival_rate(c, ts(10)), 0.0);
    }

    #[test]
    fn fewer_than_k_references() {
        let mut h = ReferenceHistory::new(3, 4);
        let c = ClipId::new(1);
        h.record(c, ts(7));
        assert_eq!(h.kth_last(c), None); // needs 4
        assert_eq!(h.oldest_known(c), Some(ts(7)));
        assert_eq!(h.ith_last(c, 1), Some(ts(7)));
        assert_eq!(h.ith_last(c, 2), None);
        assert_eq!(h.ith_last(c, 0), None);
    }

    #[test]
    fn arrival_rate_matches_definition() {
        let mut h = ReferenceHistory::new(2, 2);
        let c = ClipId::new(1);
        h.record(c, ts(10));
        h.record(c, ts(20));
        // 2 references over now(=30) - oldest(=10) = 20 ticks.
        assert!((h.arrival_rate(c, ts(30)) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn arrival_rate_floors_window() {
        let mut h = ReferenceHistory::new(2, 2);
        let c = ClipId::new(1);
        h.record(c, ts(30));
        // now == oldest: window floored to 1 tick.
        assert_eq!(h.arrival_rate(c, ts(30)), 1.0);
    }

    #[test]
    fn prune_forgets_stale_clips() {
        let mut h = ReferenceHistory::new(3, 2);
        h.record(ClipId::new(1), ts(5));
        h.record(ClipId::new(2), ts(100));
        let pruned = h.prune_older_than(ts(50));
        assert_eq!(pruned, 1);
        assert_eq!(h.last(ClipId::new(1)), None);
        assert_eq!(h.last(ClipId::new(2)), Some(ts(100)));
    }

    #[test]
    fn forget_clears_single_clip() {
        let mut h = ReferenceHistory::new(2, 2);
        h.record(ClipId::new(1), ts(3));
        h.forget(ClipId::new(1));
        assert_eq!(h.total_references(ClipId::new(1)), 0);
        assert_eq!(h.last(ClipId::new(1)), None);
    }

    #[test]
    fn metadata_bytes_counts_retained_stamps() {
        let mut h = ReferenceHistory::new(4, 2);
        h.record(ClipId::new(1), ts(1));
        h.record(ClipId::new(1), ts(2));
        h.record(ClipId::new(1), ts(3)); // ring stays at 2 entries
        h.record(ClipId::new(2), ts(4));
        assert_eq!(h.metadata_bytes(), 3 * std::mem::size_of::<Timestamp>());
    }

    #[test]
    #[should_panic(expected = "K must be positive")]
    fn zero_k_rejected() {
        ReferenceHistory::new(3, 0);
    }

    #[test]
    fn crp_collapses_correlated_bursts() {
        let mut h = ReferenceHistory::new(2, 2);
        let c = ClipId::new(1);
        // A burst of three references within the period counts once.
        assert!(h.record_with_crp(c, ts(10), 5));
        assert!(!h.record_with_crp(c, ts(12), 5));
        assert!(!h.record_with_crp(c, ts(14), 5));
        assert_eq!(h.known(c), 1);
        // The retained stamp was refreshed to the latest burst member.
        assert_eq!(h.last(c), Some(ts(14)));
        // A reference after the period opens a new access.
        assert!(h.record_with_crp(c, ts(30), 5));
        assert_eq!(h.known(c), 2);
        assert_eq!(h.kth_last(c), Some(ts(14)));
    }

    #[test]
    fn crp_zero_is_plain_record() {
        let mut a = ReferenceHistory::new(2, 2);
        let mut b = ReferenceHistory::new(2, 2);
        let c = ClipId::new(1);
        for t in [3u64, 4, 9] {
            assert!(a.record_with_crp(c, ts(t), 0));
            b.record(c, ts(t));
        }
        assert_eq!(a.last(c), b.last(c));
        assert_eq!(a.kth_last(c), b.kth_last(c));
        assert_eq!(a.known(c), b.known(c));
    }
}
