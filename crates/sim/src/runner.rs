//! The single-client simulation loop used by every experiment.
//!
//! [`simulate`] replays a request stream against one cache and collects a
//! [`SimulationReport`]: overall hit/byte-hit rates, the windowed series,
//! startup-latency statistics under a connectivity schedule, and the
//! theoretical hit rate of the final cache contents.

use crate::latency::{LatencyModel, LatencyStats};
use crate::metrics::{HitStats, WindowedSeries};
use crate::network::ConnectivitySchedule;
use clipcache_core::{AccessEvent, ClipCache, EvictionCount};
use clipcache_media::Repository;
use clipcache_workload::Request;

/// Knobs for a simulation run.
#[derive(Debug, Clone)]
pub struct SimulationConfig {
    /// Window length for the hit-rate series (paper: 100 requests).
    pub window: u64,
    /// Connectivity schedule; `None` disables the latency substrate
    /// (pure hit-rate simulation, the paper's main mode).
    pub connectivity: Option<ConnectivitySchedule>,
    /// Latency model parameters.
    pub latency: LatencyModel,
}

impl Default for SimulationConfig {
    fn default() -> Self {
        SimulationConfig {
            window: 100,
            connectivity: None,
            latency: LatencyModel::default(),
        }
    }
}

/// Everything measured in one run.
#[derive(Debug, Clone)]
pub struct SimulationReport {
    /// The policy's display name.
    pub policy: String,
    /// Aggregate hit statistics.
    pub stats: HitStats,
    /// Hit rate per window.
    pub series: WindowedSeries,
    /// Startup latency statistics (all-zero when connectivity is off).
    pub latency: LatencyStats,
}

impl SimulationReport {
    /// Overall cache hit rate.
    pub fn hit_rate(&self) -> f64 {
        self.stats.hit_rate()
    }

    /// Overall byte hit rate.
    pub fn byte_hit_rate(&self) -> f64 {
        self.stats.byte_hit_rate()
    }
}

/// Replay `requests` against `cache`.
pub fn simulate<'a>(
    cache: &mut dyn ClipCache,
    repo: &Repository,
    requests: impl IntoIterator<Item = &'a Request>,
    config: &SimulationConfig,
) -> SimulationReport {
    let mut stats = HitStats::new();
    let mut series = WindowedSeries::new(config.window);
    let mut latency = LatencyStats::default();
    let mut issued = 0u64;
    // One counting sink for the whole run: the hot loop never allocates
    // per-request eviction lists.
    let mut evictions = EvictionCount(0);
    for req in requests {
        issued += 1;
        let clip = repo.clip(req.clip);
        evictions.0 = 0;
        let event = cache.access_into(req.clip, req.at, &mut evictions);
        // Prefix hits start display locally, so they count as hits in
        // the windowed series and in `stats.hits`; the byte accounting
        // splits resident head from streamed tail. Unchunked runs never
        // produce `PrefixHit`, so their reports are field-identical to
        // the whole-clip model.
        match event {
            AccessEvent::PrefixHit { resident, .. } => {
                let resident_bytes = repo.prefix_bytes(req.clip, resident);
                stats.record_prefix(resident_bytes, clip.size - resident_bytes, evictions.0);
                series.record(true);
                if let Some(schedule) = &config.connectivity {
                    latency.record(config.latency.prefix_latency(
                        clip,
                        resident_bytes,
                        schedule.link_at(issued),
                    ));
                }
            }
            _ => {
                let hit = event.is_hit();
                stats.record(hit, clip.size, evictions.0);
                series.record(hit);
                if let Some(schedule) = &config.connectivity {
                    let lat = if hit {
                        config.latency.cache_hit_latency(clip)
                    } else {
                        config
                            .latency
                            .network_latency(clip, schedule.link_at(issued))
                    };
                    latency.record(lat);
                }
            }
        }
    }
    SimulationReport {
        policy: cache.name(),
        stats,
        series,
        latency,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::theoretical_hit_rate;
    use clipcache_core::PolicyKind;
    use clipcache_media::paper;
    use clipcache_workload::{RequestGenerator, Trace};
    use std::sync::Arc;

    #[test]
    fn lru_beats_random_on_skewed_workload() {
        let repo = Arc::new(paper::equi_sized_repository_of(
            64,
            clipcache_media::ByteSize::mb(10),
        ));
        let trace = Trace::from_generator(RequestGenerator::new(64, 0.27, 0, 4_000, 7));
        let cap = clipcache_media::ByteSize::mb(10 * 16);
        let config = SimulationConfig::default();

        let mut lru = PolicyKind::Lru.build(Arc::clone(&repo), cap, 1, None);
        let lru_report = simulate(lru.as_mut(), &repo, trace.requests(), &config);

        let mut random = PolicyKind::Random.build(Arc::clone(&repo), cap, 1, None);
        let rand_report = simulate(random.as_mut(), &repo, trace.requests(), &config);

        assert!(
            lru_report.hit_rate() > rand_report.hit_rate(),
            "LRU {} vs Random {}",
            lru_report.hit_rate(),
            rand_report.hit_rate()
        );
        assert_eq!(lru_report.stats.requests(), 4_000);
        assert_eq!(lru_report.series.points().len(), 40);
    }

    #[test]
    fn theoretical_hit_rate_reported() {
        let repo = Arc::new(paper::equi_sized_repository_of(
            16,
            clipcache_media::ByteSize::mb(10),
        ));
        let gen = RequestGenerator::new(16, 0.27, 0, 1_000, 3);
        let freqs = gen.current_distribution().frequencies();
        let trace = Trace::from_generator(gen);
        let mut cache = PolicyKind::LruK { k: 2 }.build(
            Arc::clone(&repo),
            clipcache_media::ByteSize::mb(40),
            1,
            None,
        );
        let report = simulate(
            cache.as_mut(),
            &repo,
            trace.requests(),
            &SimulationConfig::default(),
        );
        let theo = theoretical_hit_rate(cache.as_ref(), &freqs);
        assert!(theo > 0.0 && theo <= 1.0);
        // The final snapshot holds 4 of 16 clips; it must carry more mass
        // than the 4 least popular clips would (0.13 for θ = 0.27, n = 16).
        let worst: f64 = (13..=16).map(|r| freqs[r - 1]).sum();
        assert!(theo > worst, "theoretical hit rate {theo} vs worst {worst}");
        assert!(report.hit_rate() > 0.0);
    }

    #[test]
    fn latency_substrate_reports_unavailable_when_disconnected() {
        use crate::network::{ConnectivitySchedule, NetworkLink};
        let repo = Arc::new(paper::variable_sized_repository_of(12));
        let trace = Trace::from_generator(RequestGenerator::new(12, 0.27, 0, 200, 5));
        let mut cache = PolicyKind::Lru.build(
            Arc::clone(&repo),
            repo.cache_capacity_for_ratio(0.25),
            1,
            None,
        );
        let config = SimulationConfig {
            connectivity: Some(ConnectivitySchedule::always(NetworkLink::disconnected())),
            ..SimulationConfig::default()
        };
        let report = simulate(cache.as_mut(), &repo, trace.requests(), &config);
        // Every miss is unavailable; every hit is served from disk.
        assert_eq!(report.latency.unavailable, report.stats.misses);
        assert_eq!(report.latency.served, report.stats.hits);
    }
}
