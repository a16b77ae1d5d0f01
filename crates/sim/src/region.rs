//! Regional throughput: many devices sharing one base station.
//!
//! Section 1's last metric: "the number of devices in a geographical area
//! able to display their referenced clips simultaneously. If each device
//! observes a cache hit then the throughput of the region equals the
//! number of devices in that area. When devices … do not find their
//! referenced clips in their cache, they compete for the wireless network
//! bandwidth. These requests are rejected once the network bandwidth is
//! exhausted."
//!
//! [`RegionSim`] runs rounds: in each round every device references one
//! clip. Hits display locally; misses request a reservation at the clip's
//! display bandwidth from the shared [`BaseStation`]. The round's
//! *throughput* is the number of devices that can display (hits +
//! admitted misses). Reservations are released at the end of the round
//! (clip displays are modelled as round-length).

use crate::device::Device;
use crate::station::BaseStation;

/// Per-round outcome of the region simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoundOutcome {
    /// Devices serviced from their local cache.
    pub hits: u64,
    /// Misses the base station admitted.
    pub admitted: u64,
    /// Misses rejected for lack of bandwidth (or no connectivity).
    pub rejected: u64,
}

impl RoundOutcome {
    /// The all-zero outcome (the identity for [`merge`](Self::merge)).
    pub const ZERO: RoundOutcome = RoundOutcome {
        hits: 0,
        admitted: 0,
        rejected: 0,
    };

    /// Devices able to display this round.
    pub fn throughput(&self) -> u64 {
        self.hits + self.admitted
    }

    /// All requests this round.
    pub fn total(&self) -> u64 {
        self.hits + self.admitted + self.rejected
    }

    /// Accumulate another round (order-invariant, associative).
    pub fn merge(&mut self, other: &RoundOutcome) {
        self.hits += other.hits;
        self.admitted += other.admitted;
        self.rejected += other.rejected;
    }
}

/// Aggregated results of a region run.
#[derive(Debug, Clone, PartialEq)]
pub struct RegionReport {
    /// Number of devices.
    pub devices: usize,
    /// Outcome per round.
    pub rounds: Vec<RoundOutcome>,
}

impl RegionReport {
    /// All rounds folded into one outcome — the single aggregation the
    /// report's derived metrics share.
    pub fn totals(&self) -> RoundOutcome {
        let mut total = RoundOutcome::ZERO;
        for r in &self.rounds {
            total.merge(r);
        }
        total
    }

    /// Mean per-round throughput.
    pub fn mean_throughput(&self) -> f64 {
        if self.rounds.is_empty() {
            return 0.0;
        }
        self.totals().throughput() as f64 / self.rounds.len() as f64
    }

    /// Mean per-round rejection count.
    pub fn mean_rejections(&self) -> f64 {
        if self.rounds.is_empty() {
            return 0.0;
        }
        self.totals().rejected as f64 / self.rounds.len() as f64
    }

    /// Aggregate hit rate across devices and rounds.
    pub fn aggregate_hit_rate(&self) -> f64 {
        let total = self.totals();
        if total.total() == 0 {
            0.0
        } else {
            total.hits as f64 / total.total() as f64
        }
    }
}

/// A geographical region: devices plus one shared base station.
pub struct RegionSim {
    devices: Vec<Device>,
    station: BaseStation,
}

impl RegionSim {
    /// Create a region.
    pub fn new(devices: Vec<Device>, station: BaseStation) -> Self {
        RegionSim { devices, station }
    }

    /// Run `rounds` rounds; in each, every device issues one request.
    pub fn run(&mut self, rounds: u64) -> RegionReport {
        let mut outcomes = Vec::with_capacity(rounds as usize);
        for _ in 0..rounds {
            let mut out = RoundOutcome::ZERO;
            let mut reservations = Vec::new();
            for dev in &mut self.devices {
                let Some(req) = dev.next_request() else {
                    continue;
                };
                if req.hit {
                    out.hits += 1;
                } else if !req.connected {
                    out.rejected += 1;
                } else {
                    match self.station.admit(req.display_bandwidth) {
                        crate::station::Admission::Admitted(id) => {
                            out.admitted += 1;
                            reservations.push(id);
                        }
                        crate::station::Admission::Rejected => out.rejected += 1,
                    }
                }
            }
            for id in reservations {
                self.station.release(id);
            }
            outcomes.push(out);
        }
        RegionReport {
            devices: self.devices.len(),
            rounds: outcomes,
        }
    }

    /// The devices (for post-run inspection).
    pub fn devices(&self) -> &[Device] {
        &self.devices
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::{ConnectivitySchedule, NetworkLink};
    use clipcache_core::PolicyKind;
    use clipcache_media::{paper, Bandwidth};
    use clipcache_workload::RequestGenerator;
    use std::sync::Arc;

    fn build_region(n_devices: usize, cache_ratio: f64, station_bw: Bandwidth) -> RegionSim {
        let repo = Arc::new(paper::variable_sized_repository_of(24));
        let devices = (0..n_devices)
            .map(|i| {
                let cache = PolicyKind::DynSimple { k: 2 }.build(
                    Arc::clone(&repo),
                    repo.cache_capacity_for_ratio(cache_ratio),
                    i as u64,
                    None,
                );
                let gen = RequestGenerator::new(24, 0.27, 0, 1_000, 1000 + i as u64);
                Device::new(
                    i,
                    Arc::clone(&repo),
                    cache,
                    gen,
                    ConnectivitySchedule::always(NetworkLink::cellular_default()),
                )
            })
            .collect();
        RegionSim::new(devices, BaseStation::new(station_bw))
    }

    #[test]
    fn bigger_caches_raise_region_throughput() {
        // Station fits only 2 video streams (8 Mbps / 4 Mbps each).
        let small = build_region(8, 0.05, Bandwidth::mbps(8)).run(100);
        let large = build_region(8, 0.5, Bandwidth::mbps(8)).run(100);
        assert!(
            large.mean_throughput() > small.mean_throughput(),
            "large {} vs small {}",
            large.mean_throughput(),
            small.mean_throughput()
        );
        assert!(large.mean_rejections() < small.mean_rejections());
    }

    #[test]
    fn all_hits_equals_device_count() {
        // Cache = entire repository: every request hits after warmup.
        let mut region = build_region(4, 1.0, Bandwidth::ZERO);
        // Warm up 200 rounds, then measure.
        region.run(200);
        let report = region.run(50);
        assert_eq!(report.devices, 4);
        assert!(
            report.mean_throughput() > 3.9,
            "throughput {}",
            report.mean_throughput()
        );
    }

    #[test]
    fn report_aggregates() {
        let report = RegionReport {
            devices: 2,
            rounds: vec![
                RoundOutcome {
                    hits: 1,
                    admitted: 1,
                    rejected: 0,
                },
                RoundOutcome {
                    hits: 2,
                    admitted: 0,
                    rejected: 0,
                },
            ],
        };
        assert_eq!(report.mean_throughput(), 2.0);
        assert_eq!(report.mean_rejections(), 0.0);
        assert_eq!(report.aggregate_hit_rate(), 0.75);
    }

    #[test]
    fn totals_merge_round_outcomes() {
        let a = RoundOutcome {
            hits: 3,
            admitted: 2,
            rejected: 1,
        };
        let b = RoundOutcome {
            hits: 1,
            admitted: 0,
            rejected: 4,
        };
        let report = RegionReport {
            devices: 6,
            rounds: vec![a, b],
        };
        let total = report.totals();
        assert_eq!(total.hits, 4);
        assert_eq!(total.admitted, 2);
        assert_eq!(total.rejected, 5);
        assert_eq!(total.total(), 11);
        // merge is order-invariant with ZERO as the identity.
        let mut ab = a;
        ab.merge(&b);
        let mut ba = b;
        ba.merge(&a);
        ba.merge(&RoundOutcome::ZERO);
        assert_eq!(ab, ba);
        assert_eq!(ab, total);
    }
}
