//! Startup latency: the delay from request to onset of display.
//!
//! Section 1's metric definition: streaming from the local cache minimizes
//! startup latency because disk bandwidth exceeds the display rate. When
//! streaming over the network at allocated bandwidth `B_net`:
//!
//! * if `B_net ≥ B_display`, the client starts almost immediately (only
//!   admission-control overhead plus a fixed jitter buffer);
//! * if `B_net < B_display`, the client must prefetch enough data that the
//!   display never starves. Following \[10\], the prefetch amount is
//!   `size · (B_display − B_net) / B_display`, and the startup latency is
//!   the time to fetch that prefix at `B_net`.
//!
//! A disconnected miss has unbounded latency; the simulator reports it as
//! [`StartupLatency::Unavailable`].

use crate::network::NetworkLink;
use clipcache_media::{Bandwidth, ByteSize, Clip};

/// Fixed parameters of the latency model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyModel {
    /// Seconds spent negotiating bandwidth reservation / admission control
    /// with the base station on every network stream.
    pub admission_overhead_secs: f64,
    /// Seconds of content buffered even on fast links, to absorb
    /// bandwidth fluctuations.
    pub jitter_buffer_secs: f64,
    /// Local storage read bandwidth (disk); bounds the cache-hit latency.
    pub disk_bandwidth: Bandwidth,
}

impl Default for LatencyModel {
    fn default() -> Self {
        LatencyModel {
            admission_overhead_secs: 0.5,
            jitter_buffer_secs: 1.0,
            disk_bandwidth: Bandwidth::mbps(400), // commodity 50 MB/s disk
        }
    }
}

/// The startup latency of one request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StartupLatency {
    /// Display can start after this many seconds.
    Ready(f64),
    /// The clip cannot be displayed (miss while disconnected).
    Unavailable,
}

impl StartupLatency {
    /// The latency in seconds, or `None` when unavailable.
    pub fn secs(&self) -> Option<f64> {
        match self {
            StartupLatency::Ready(s) => Some(*s),
            StartupLatency::Unavailable => None,
        }
    }
}

impl LatencyModel {
    /// Prefetch bytes needed before display can start without hiccups
    /// when fetching at `b_net` a clip displayed at `b_display`
    /// (formula of \[10\]; zero when the link outruns the display rate).
    pub fn prefetch_bytes(
        &self,
        size: ByteSize,
        b_display: Bandwidth,
        b_net: Bandwidth,
    ) -> ByteSize {
        if b_net >= b_display {
            return ByteSize::ZERO;
        }
        let deficit = (b_display.as_bps() - b_net.as_bps()) as f64 / b_display.as_bps() as f64;
        ByteSize::bytes((size.as_f64() * deficit).ceil() as u64)
    }

    /// Latency of servicing `clip` from the local cache.
    pub fn cache_hit_latency(&self, clip: &Clip) -> StartupLatency {
        // Disk outruns every display rate here; only the jitter buffer
        // needs filling, at disk speed.
        let buffered = clip
            .display_bandwidth
            .bytes_per_sec()
            .min(clip.size.as_f64())
            * self.jitter_buffer_secs;
        StartupLatency::Ready(buffered / self.disk_bandwidth.bytes_per_sec())
    }

    /// Latency when a head prefix of `resident_bytes` is already cached
    /// and only the tail must stream over `link` (a prefix hit).
    ///
    /// Display starts from the local prefix, so the question is whether
    /// the prefix covers the prefetch the link would otherwise demand:
    ///
    /// * disconnected — the prefix is displayable from disk either way,
    ///   so the request starts at cache-hit latency (the tail may
    ///   starve later; denial happens only when the *prefix itself*
    ///   misses, which is a plain miss, not a prefix hit);
    /// * prefix ≥ required prefetch — the slow-link prefetch is already
    ///   on disk: cache-hit latency;
    /// * otherwise — admission overhead plus fetching only the
    ///   *remaining* prefetch bytes at link speed.
    pub fn prefix_latency(
        &self,
        clip: &Clip,
        resident_bytes: ByteSize,
        link: NetworkLink,
    ) -> StartupLatency {
        if !link.is_connected() {
            return self.cache_hit_latency(clip);
        }
        let needed = self.prefetch_bytes(clip.size, clip.display_bandwidth, link.bandwidth);
        if resident_bytes >= needed {
            return self.cache_hit_latency(clip);
        }
        let remaining = needed - resident_bytes;
        StartupLatency::Ready(self.admission_overhead_secs + link.transfer_secs(remaining))
    }

    /// Latency of streaming `clip` over `link` (a cache miss).
    pub fn network_latency(&self, clip: &Clip, link: NetworkLink) -> StartupLatency {
        if !link.is_connected() {
            return StartupLatency::Unavailable;
        }
        let prefetch = self.prefetch_bytes(clip.size, clip.display_bandwidth, link.bandwidth);
        let fetch_secs = if prefetch == ByteSize::ZERO {
            // Fill the jitter buffer at link speed.
            clip.display_bandwidth.bytes_per_sec() * self.jitter_buffer_secs
                / link.bandwidth.bytes_per_sec()
        } else {
            link.transfer_secs(prefetch)
        };
        StartupLatency::Ready(self.admission_overhead_secs + fetch_secs)
    }
}

/// Accumulates startup latencies over a run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LatencyStats {
    /// Sum of latencies of requests that could start.
    pub total_secs: f64,
    /// Requests that could start.
    pub served: u64,
    /// Misses while disconnected.
    pub unavailable: u64,
    /// Largest observed latency.
    pub max_secs: f64,
    /// Every served latency, for percentile queries. One f64 per request
    /// — the paper-scale runs are 10⁴–10⁵ requests, so this stays small.
    samples: Vec<f64>,
}

impl LatencyStats {
    /// Record one request's latency.
    pub fn record(&mut self, latency: StartupLatency) {
        match latency {
            StartupLatency::Ready(s) => {
                self.total_secs += s;
                self.served += 1;
                if s > self.max_secs {
                    self.max_secs = s;
                }
                self.samples.push(s);
            }
            StartupLatency::Unavailable => self.unavailable += 1,
        }
    }

    /// Merge another run's latencies into this one.
    ///
    /// Counters and the maximum merge exactly in any order; `total_secs`
    /// is a float sum and therefore order-invariant only up to rounding.
    /// Percentiles sort the pooled samples, so they are exactly
    /// order-invariant.
    pub fn merge(&mut self, other: &LatencyStats) {
        self.total_secs += other.total_secs;
        self.served += other.served;
        self.unavailable += other.unavailable;
        if other.max_secs > self.max_secs {
            self.max_secs = other.max_secs;
        }
        self.samples.extend_from_slice(&other.samples);
    }

    /// The `q`-quantile (0 ≤ q ≤ 1) of served latencies by the
    /// nearest-rank method; 0 when nothing was served.
    pub fn percentile(&self, q: f64) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        let mut sorted = self.samples.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
        let rank =
            ((q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    }

    /// Mean startup latency over served requests.
    pub fn mean_secs(&self) -> f64 {
        if self.served == 0 {
            0.0
        } else {
            self.total_secs / self.served as f64
        }
    }

    /// Fraction of requests that could not be served at all.
    pub fn unavailability(&self) -> f64 {
        let total = self.served + self.unavailable;
        if total == 0 {
            0.0
        } else {
            self.unavailable as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clipcache_media::{ClipId, MediaType};

    fn video_clip() -> Clip {
        // 2-hour 4 Mbps video: 3.6 GB.
        Clip::with_derived_duration(
            ClipId::new(1),
            MediaType::Video,
            ByteSize::bytes(3_600_000_000),
            Bandwidth::mbps(4),
        )
    }

    #[test]
    fn prefetch_zero_on_fast_link() {
        let m = LatencyModel::default();
        let p = m.prefetch_bytes(ByteSize::gb(1), Bandwidth::mbps(4), Bandwidth::mbps(20));
        assert_eq!(p, ByteSize::ZERO);
    }

    #[test]
    fn prefetch_formula_on_slow_link() {
        let m = LatencyModel::default();
        // B_display = 4 Mbps, B_net = 1 Mbps: prefetch 3/4 of the clip.
        let p = m.prefetch_bytes(ByteSize::gb(1), Bandwidth::mbps(4), Bandwidth::mbps(1));
        assert_eq!(p, ByteSize::bytes(750_000_000));
    }

    #[test]
    fn cache_hit_is_fast() {
        let m = LatencyModel::default();
        let lat = m.cache_hit_latency(&video_clip()).secs().unwrap();
        assert!(lat < 0.1, "cache hit latency {lat} s");
    }

    #[test]
    fn wifi_beats_cellular_for_video() {
        let m = LatencyModel::default();
        let clip = video_clip();
        let wifi = m
            .network_latency(&clip, NetworkLink::wifi_default())
            .secs()
            .unwrap();
        let cell = m
            .network_latency(&clip, NetworkLink::cellular_default())
            .secs()
            .unwrap();
        assert!(wifi < cell, "wifi {wifi} s vs cellular {cell} s");
        // Cellular at 1 Mbps must prefetch 3/4 of 3.6 GB = 2.7 GB at
        // 125 KB/s ≈ 21,600 s — the motivating pain point.
        assert!(cell > 10_000.0);
    }

    #[test]
    fn prefix_latency_improves_monotonically_and_caps_at_cache_hit() {
        let m = LatencyModel::default();
        let clip = video_clip();
        let link = NetworkLink::cellular_default();
        let full_miss = m.network_latency(&clip, link).secs().unwrap();
        let cache_hit = m.cache_hit_latency(&clip).secs().unwrap();
        let needed = m.prefetch_bytes(clip.size, clip.display_bandwidth, link.bandwidth);
        let mut last = full_miss;
        for frac in [1u64, 2, 4, 8, 32, 64, 64] {
            let resident = ByteSize::bytes(clip.size.as_u64() * frac / 64);
            let lat = m.prefix_latency(&clip, resident, link).secs().unwrap();
            assert!(
                lat <= last,
                "latency got worse with more prefix: {lat} > {last}"
            );
            assert!(lat < full_miss, "prefix hit no better than a miss");
            if resident >= needed {
                assert_eq!(lat, cache_hit, "full prefetch on disk = cache-hit start");
            }
            last = lat;
        }
    }

    #[test]
    fn prefix_hit_while_disconnected_still_starts() {
        let m = LatencyModel::default();
        let clip = video_clip();
        let lat = m.prefix_latency(&clip, ByteSize::mb(1), NetworkLink::disconnected());
        assert_eq!(lat, m.cache_hit_latency(&clip));
        assert!(lat.secs().is_some(), "prefix display must start offline");
    }

    #[test]
    fn disconnected_miss_is_unavailable() {
        let m = LatencyModel::default();
        let lat = m.network_latency(&video_clip(), NetworkLink::disconnected());
        assert_eq!(lat, StartupLatency::Unavailable);
        assert_eq!(lat.secs(), None);
    }

    #[test]
    fn latency_stats_accumulate() {
        let mut s = LatencyStats::default();
        s.record(StartupLatency::Ready(2.0));
        s.record(StartupLatency::Ready(4.0));
        s.record(StartupLatency::Unavailable);
        assert_eq!(s.mean_secs(), 3.0);
        assert_eq!(s.max_secs, 4.0);
        assert!((s.unavailability() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn merge_pools_samples_order_invariantly() {
        let mut a = LatencyStats::default();
        for v in [2.0, 8.0] {
            a.record(StartupLatency::Ready(v));
        }
        a.record(StartupLatency::Unavailable);
        let mut b = LatencyStats::default();
        for v in [4.0, 1.0, 16.0] {
            b.record(StartupLatency::Ready(v));
        }
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        // Counters, max and (binary-exact values) totals match both ways.
        assert_eq!(ab.served, 5);
        assert_eq!(ab.served, ba.served);
        assert_eq!(ab.unavailable, ba.unavailable);
        assert_eq!(ab.max_secs, 16.0);
        assert_eq!(ab.total_secs, ba.total_secs);
        // Percentiles come from the pooled, sorted samples.
        assert_eq!(ab.percentile(0.5), ba.percentile(0.5));
        assert_eq!(ab.percentile(0.5), 4.0);
        assert_eq!(ab.mean_secs(), 31.0 / 5.0);
        // Identity element.
        let mut with_id = ab.clone();
        with_id.merge(&LatencyStats::default());
        assert_eq!(with_id, ab);
    }

    #[test]
    fn percentiles_nearest_rank() {
        let mut s = LatencyStats::default();
        for v in [5.0, 1.0, 3.0, 2.0, 4.0] {
            s.record(StartupLatency::Ready(v));
        }
        assert_eq!(s.percentile(0.0), 1.0);
        assert_eq!(s.percentile(0.5), 3.0);
        assert_eq!(s.percentile(0.9), 5.0);
        assert_eq!(s.percentile(1.0), 5.0);
        assert_eq!(LatencyStats::default().percentile(0.5), 0.0);
    }
}
