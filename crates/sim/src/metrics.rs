//! Hit-rate metrics.
//!
//! * **Cache hit rate** — requests serviced from the cache ÷ all requests.
//! * **Byte hit rate** — bytes serviced from the cache ÷ all bytes
//!   referenced ("the amount of work imposed on the network").
//! * **Windowed hit rate** — hit rate per fixed-size request window, the
//!   series plotted in Figures 6.b and 7.b.
//! * **Theoretical hit rate** — `Σ f_j` over cache-resident clips `j`,
//!   where `f_j` is the *accurate* frequency from the request
//!   distribution; the paper uses it in Figure 6.a to compare adapted
//!   cache contents independent of sampling noise.

use clipcache_core::ClipCache;
use clipcache_media::{ByteSize, Repository};

/// Running hit/miss counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HitStats {
    /// Requests serviced from the cache — full hits *and* prefix hits
    /// (either way display starts from local storage).
    pub hits: u64,
    /// Requests that went to the network.
    pub misses: u64,
    /// The subset of `hits` where only a head prefix was resident: the
    /// clip started displaying from cache while its tail streamed in.
    /// Zero whenever the repository is unchunked, which is what keeps
    /// chunked and whole-clip runs comparable field by field.
    pub prefix_hits: u64,
    /// Bytes serviced from the cache.
    pub byte_hits: ByteSize,
    /// Bytes fetched over the network (missed bytes).
    pub byte_misses: ByteSize,
    /// Clips evicted in total.
    pub evictions: u64,
}

impl HitStats {
    /// A zeroed counter set.
    pub fn new() -> Self {
        HitStats::default()
    }

    /// Record one request for a clip of `size`.
    pub fn record(&mut self, hit: bool, size: ByteSize, evictions: usize) {
        if hit {
            self.hits += 1;
            self.byte_hits += size;
        } else {
            self.misses += 1;
            self.byte_misses += size;
        }
        self.evictions += evictions as u64;
    }

    /// Record one prefix hit: `resident` bytes came from the cache,
    /// `tail` bytes streamed over the network while display ran.
    /// Counted in `hits` (display started locally) and in the
    /// `prefix_hits` refinement; the byte counters carry the split.
    pub fn record_prefix(&mut self, resident: ByteSize, tail: ByteSize, evictions: usize) {
        self.hits += 1;
        self.prefix_hits += 1;
        self.byte_hits += resident;
        self.byte_misses += tail;
        self.evictions += evictions as u64;
    }

    /// Total requests observed.
    pub fn requests(&self) -> u64 {
        self.hits + self.misses
    }

    /// Cache hit rate in `[0, 1]`; 0 when nothing was recorded.
    pub fn hit_rate(&self) -> f64 {
        let total = self.requests();
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Byte hit rate in `[0, 1]`; 0 when nothing was recorded.
    pub fn byte_hit_rate(&self) -> f64 {
        let total = self.byte_hits + self.byte_misses;
        if total == ByteSize::ZERO {
            0.0
        } else {
            self.byte_hits.ratio(total)
        }
    }

    /// Merge another counter set into this one.
    ///
    /// Merging is associative and commutative (all fields are integer
    /// sums), so counters accumulated per shard, per client thread or
    /// per sweep point merge to the same totals in any order — the
    /// property the sharded serving layer's `stats()` relies on.
    pub fn merge(&mut self, other: &HitStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.prefix_hits += other.prefix_hits;
        self.byte_hits += other.byte_hits;
        self.byte_misses += other.byte_misses;
        self.evictions += other.evictions;
    }

    /// Fold any number of counter sets into one (order-invariant).
    pub fn merged<'a>(stats: impl IntoIterator<Item = &'a HitStats>) -> HitStats {
        let mut out = HitStats::new();
        for s in stats {
            out.merge(s);
        }
        out
    }
}

impl std::iter::Sum for HitStats {
    fn sum<I: Iterator<Item = HitStats>>(iter: I) -> HitStats {
        let mut out = HitStats::new();
        for s in iter {
            out.merge(&s);
        }
        out
    }
}

impl<'a> std::iter::Sum<&'a HitStats> for HitStats {
    fn sum<I: Iterator<Item = &'a HitStats>>(iter: I) -> HitStats {
        HitStats::merged(iter)
    }
}

/// Hit rate per fixed-size request window (Figures 6.b / 7.b plot one
/// point per 100 requests).
#[derive(Debug, Clone, PartialEq)]
pub struct WindowedSeries {
    window: u64,
    in_window: u64,
    hits_in_window: u64,
    points: Vec<f64>,
}

impl WindowedSeries {
    /// A series with the given window length (paper: 100 requests).
    ///
    /// # Panics
    /// If `window == 0`.
    pub fn new(window: u64) -> Self {
        assert!(window > 0, "window must be positive");
        WindowedSeries {
            window,
            in_window: 0,
            hits_in_window: 0,
            points: Vec::new(),
        }
    }

    /// Record one request outcome.
    pub fn record(&mut self, hit: bool) {
        self.in_window += 1;
        if hit {
            self.hits_in_window += 1;
        }
        if self.in_window == self.window {
            self.points
                .push(self.hits_in_window as f64 / self.window as f64);
            self.in_window = 0;
            self.hits_in_window = 0;
        }
    }

    /// The window length.
    pub fn window(&self) -> u64 {
        self.window
    }

    /// The completed windows' hit rates, in order.
    pub fn points(&self) -> &[f64] {
        &self.points
    }

    /// Mean hit rate over the completed windows in `[from, to)`.
    pub fn mean_over(&self, from: usize, to: usize) -> f64 {
        let slice = &self.points[from.min(self.points.len())..to.min(self.points.len())];
        if slice.is_empty() {
            0.0
        } else {
            slice.iter().sum::<f64>() / slice.len() as f64
        }
    }
}

/// The paper's theoretical hit rate: the total accurate access frequency
/// of the clips resident in `cache`, given `frequencies[i]` for the clip
/// with index `i`.
pub fn theoretical_hit_rate(cache: &dyn ClipCache, frequencies: &[f64]) -> f64 {
    cache
        .resident_clips()
        .iter()
        .map(|c| frequencies[c.index()])
        .sum()
}

/// The best theoretical hit rate any cache of `capacity` could reach:
/// greedily pack clips by byte-freq (frequency ÷ size) — this is what the
/// off-line Simple policy converges to.
pub fn offline_packing_bound(repo: &Repository, capacity: ByteSize, frequencies: &[f64]) -> f64 {
    use clipcache_media::ClipId;
    let mut order: Vec<usize> = (0..repo.len()).collect();
    let size_of = |i: usize| repo.size_of(ClipId::from_index(i));
    order.sort_by(|&a, &b| {
        let fa = frequencies[a] / size_of(a).as_f64();
        let fb = frequencies[b] / size_of(b).as_f64();
        fb.partial_cmp(&fa).expect("frequencies are finite")
    });
    let mut used = ByteSize::ZERO;
    let mut mass = 0.0;
    for i in order {
        let size = size_of(i);
        if used + size <= capacity {
            used += size;
            mass += frequencies[i];
        }
    }
    mass
}

#[cfg(test)]
mod tests {
    use super::*;
    use clipcache_core::policies::lru::RecencyCache;
    use clipcache_core::ClipCache;
    use clipcache_media::{paper, ClipId};
    use clipcache_workload::Timestamp;
    use std::sync::Arc;

    #[test]
    fn hit_stats_rates() {
        let mut s = HitStats::new();
        s.record(true, ByteSize::mb(10), 0);
        s.record(false, ByteSize::mb(30), 2);
        assert_eq!(s.requests(), 2);
        assert_eq!(s.hit_rate(), 0.5);
        assert!((s.byte_hit_rate() - 0.25).abs() < 1e-12);
        assert_eq!(s.evictions, 2);
    }

    #[test]
    fn prefix_hits_split_bytes() {
        let mut s = HitStats::new();
        s.record_prefix(ByteSize::mb(2), ByteSize::mb(8), 1);
        assert_eq!(s.hits, 1, "a prefix hit starts display from cache");
        assert_eq!(s.prefix_hits, 1);
        assert_eq!(s.requests(), 1);
        assert_eq!(s.hit_rate(), 1.0);
        assert_eq!(s.byte_hits, ByteSize::mb(2));
        assert_eq!(s.byte_misses, ByteSize::mb(8));
        assert_eq!(s.evictions, 1);
        let mut t = HitStats::new();
        t.merge(&s);
        assert_eq!(t.prefix_hits, 1, "prefix hits merge like any counter");
    }

    #[test]
    fn empty_stats_are_zero() {
        let s = HitStats::new();
        assert_eq!(s.hit_rate(), 0.0);
        assert_eq!(s.byte_hit_rate(), 0.0);
    }

    #[test]
    fn merge_adds_counters() {
        let mut a = HitStats::new();
        a.record(true, ByteSize::mb(1), 0);
        let mut b = HitStats::new();
        b.record(false, ByteSize::mb(3), 1);
        a.merge(&b);
        assert_eq!(a.requests(), 2);
        assert_eq!(a.evictions, 1);
    }

    /// Three distinct counter sets for the merge-algebra tests.
    fn abc() -> [HitStats; 3] {
        let mut a = HitStats::new();
        a.record(true, ByteSize::mb(1), 0);
        a.record(false, ByteSize::mb(2), 1);
        let mut b = HitStats::new();
        b.record(false, ByteSize::mb(30), 3);
        let mut c = HitStats::new();
        c.record(true, ByteSize::mb(7), 0);
        c.record(true, ByteSize::mb(7), 0);
        [a, b, c]
    }

    #[test]
    fn merge_is_order_invariant() {
        let [a, b, c] = abc();
        let forward = HitStats::merged([&a, &b, &c]);
        let backward = HitStats::merged([&c, &b, &a]);
        let rotated = HitStats::merged([&b, &c, &a]);
        assert_eq!(forward, backward);
        assert_eq!(forward, rotated);
        assert_eq!(forward.requests(), 5);
        assert_eq!(forward.evictions, 4);
    }

    #[test]
    fn merge_is_associative_with_identity() {
        let [a, b, c] = abc();
        // (a ⊕ b) ⊕ c
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        // a ⊕ (b ⊕ c)
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);
        assert_eq!(left, right);
        // The zeroed set is the identity.
        let mut with_id = left.clone();
        with_id.merge(&HitStats::new());
        assert_eq!(with_id, left);
    }

    #[test]
    fn sum_folds_owned_and_borrowed() {
        let [a, b, c] = abc();
        let borrowed: HitStats = [&a, &b, &c].into_iter().sum();
        let owned: HitStats = abc().into_iter().sum();
        assert_eq!(borrowed, owned);
        assert_eq!(borrowed, HitStats::merged([&a, &b, &c]));
    }

    #[test]
    fn windowed_series_completes_windows() {
        let mut w = WindowedSeries::new(4);
        for hit in [true, false, true, true, false, false, false, true] {
            w.record(hit);
        }
        assert_eq!(w.points(), &[0.75, 0.25]);
        assert_eq!(w.mean_over(0, 2), 0.5);
        assert_eq!(w.mean_over(5, 9), 0.0);
    }

    #[test]
    fn incomplete_window_not_reported() {
        let mut w = WindowedSeries::new(10);
        for _ in 0..9 {
            w.record(true);
        }
        assert!(w.points().is_empty());
    }

    #[test]
    #[should_panic(expected = "window must be positive")]
    fn zero_window_rejected() {
        WindowedSeries::new(0);
    }

    #[test]
    fn theoretical_hit_rate_sums_resident_mass() {
        let repo = Arc::new(paper::equi_sized_repository_of(4, ByteSize::mb(10)));
        let mut cache = RecencyCache::lru(Arc::clone(&repo), ByteSize::mb(20));
        cache.access(ClipId::new(1), Timestamp(1));
        cache.access(ClipId::new(3), Timestamp(2));
        let f = [0.4, 0.3, 0.2, 0.1];
        assert!((theoretical_hit_rate(&cache, &f) - 0.6).abs() < 1e-12);
    }

    #[test]
    fn packing_bound_prefers_dense_value() {
        let repo = paper::variable_sized_repository_of(6);
        // Uniform frequencies: the bound packs the small audio clips.
        let f = vec![1.0 / 6.0; 6];
        let bound = offline_packing_bound(&repo, ByteSize::mb(20), &f);
        // All three audio clips (8.8 + 4.4 + 2.2 MB) fit: mass = 3/6.
        assert!((bound - 0.5).abs() < 1e-12);
    }

    #[test]
    fn packing_bound_full_capacity_is_one() {
        let repo = paper::variable_sized_repository_of(6);
        let f = vec![1.0 / 6.0; 6];
        let bound = offline_packing_bound(&repo, repo.total_size(), &f);
        assert!((bound - 1.0).abs() < 1e-12);
    }
}
