//! Cooperative caching — the paper's Section 5 future-work direction,
//! implemented so the greedy techniques can be compared against it.
//!
//! > "Multiple devices in the same radio range may form an ad hoc network
//! > and exchange clips with one another. They may employ a cooperative
//! > caching technique to minimize the number of references to the base
//! > station."
//!
//! Model: devices sit on a ring; device `i` can reach peers within
//! `radio_radius` hops. On a local miss the device first asks reachable
//! peers; if one holds the clip (and still has upload slots this round)
//! the clip streams device-to-device and the base station is untouched.
//! Otherwise the request falls back to base-station admission control,
//! exactly as in [`crate::region`].
//!
//! The *global* metric the paper names — "number of references serviced
//! without accessing the base station" — is [`CoopReport::offload_rate`].
//! Setting `radio_radius = 0` disables sharing, reducing the simulation to
//! the purely greedy region model, which is how the comparison experiment
//! isolates the benefit of cooperation.

use crate::device::Device;
use crate::station::BaseStation;

/// Per-round outcome of a cooperative region.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CoopRound {
    /// Requests serviced from the device's own cache.
    pub local_hits: u64,
    /// Requests serviced by a peer over the ad-hoc network.
    pub peer_hits: u64,
    /// Misses the base station admitted.
    pub admitted: u64,
    /// Misses rejected (no peer, no bandwidth, or no connectivity).
    pub rejected: u64,
}

impl CoopRound {
    /// Devices able to display this round.
    pub fn throughput(&self) -> u64 {
        self.local_hits + self.peer_hits + self.admitted
    }

    /// Requests serviced without touching the base station.
    pub fn offloaded(&self) -> u64 {
        self.local_hits + self.peer_hits
    }
}

/// Aggregated results of a cooperative run.
#[derive(Debug, Clone, PartialEq)]
pub struct CoopReport {
    /// Number of devices.
    pub devices: usize,
    /// The radio radius used.
    pub radio_radius: usize,
    /// Outcome per round.
    pub rounds: Vec<CoopRound>,
}

impl CoopReport {
    fn total(&self, f: impl Fn(&CoopRound) -> u64) -> u64 {
        self.rounds.iter().map(f).sum()
    }

    /// The paper's global metric: fraction of requests serviced without
    /// the base station (own cache + peer caches).
    pub fn offload_rate(&self) -> f64 {
        let requests = self.total(|r| r.local_hits + r.peer_hits + r.admitted + r.rejected);
        if requests == 0 {
            0.0
        } else {
            self.total(CoopRound::offloaded) as f64 / requests as f64
        }
    }

    /// Fraction of requests serviced by peers specifically.
    pub fn peer_hit_rate(&self) -> f64 {
        let requests = self.total(|r| r.local_hits + r.peer_hits + r.admitted + r.rejected);
        if requests == 0 {
            0.0
        } else {
            self.total(|r| r.peer_hits) as f64 / requests as f64
        }
    }

    /// Mean per-round throughput.
    pub fn mean_throughput(&self) -> f64 {
        if self.rounds.is_empty() {
            0.0
        } else {
            self.total(CoopRound::throughput) as f64 / self.rounds.len() as f64
        }
    }
}

/// Partitioned-admission wrapper: the simplest *coordinated* cooperative
/// technique. Each clip is owned by `replicas` consecutive devices on the
/// ring (`owner = clip.index() mod n_devices`); a device only materializes
/// clips it owns and streams the rest (from a peer when possible). With
/// every device greedily caching the same Zipf head, the union of caches
/// holds few distinct clips; partitioning trades local hit rate for
/// coverage, raising the *global* offload metric — the effect the paper's
/// Section 5 anticipates cooperative techniques would exploit.
pub struct PartitionedAdmission {
    inner: Box<dyn clipcache_core::ClipCache>,
    owned: Vec<bool>,
}

impl PartitionedAdmission {
    /// Wrap `inner` so device `device` of `n_devices` admits only clips
    /// it owns under a ring partition with `replicas` owners per clip.
    ///
    /// # Panics
    /// If `replicas` is zero or exceeds `n_devices`, or `device` is out
    /// of range.
    pub fn new(
        inner: Box<dyn clipcache_core::ClipCache>,
        n_clips: usize,
        device: usize,
        n_devices: usize,
        replicas: usize,
    ) -> Self {
        assert!(n_devices > 0 && device < n_devices, "device out of range");
        assert!(
            (1..=n_devices).contains(&replicas),
            "replicas must be in 1..=n_devices"
        );
        let owned = (0..n_clips)
            .map(|i| {
                let owner = i % n_devices;
                // Device owns the clip if it is one of the `replicas`
                // consecutive devices starting at `owner`.
                (device + n_devices - owner) % n_devices < replicas
            })
            .collect();
        PartitionedAdmission { inner, owned }
    }

    /// Whether this device owns `clip`.
    pub fn owns(&self, clip: clipcache_media::ClipId) -> bool {
        self.owned[clip.index()]
    }
}

impl clipcache_core::ClipCache for PartitionedAdmission {
    fn name(&self) -> String {
        format!("Partitioned<{}>", self.inner.name())
    }

    fn capacity(&self) -> clipcache_media::ByteSize {
        self.inner.capacity()
    }

    fn used(&self) -> clipcache_media::ByteSize {
        self.inner.used()
    }

    fn contains(&self, clip: clipcache_media::ClipId) -> bool {
        self.inner.contains(clip)
    }

    fn resident_clips(&self) -> Vec<clipcache_media::ClipId> {
        self.inner.resident_clips()
    }

    fn access_into(
        &mut self,
        clip: clipcache_media::ClipId,
        now: clipcache_workload::Timestamp,
        evictions: &mut dyn clipcache_core::EvictionSink,
    ) -> clipcache_core::AccessEvent {
        if !self.owned[clip.index()] && !self.inner.contains(clip) {
            // Not ours: stream without caching (and without evicting).
            return clipcache_core::AccessEvent::Miss { admitted: false };
        }
        self.inner.access_into(clip, now, evictions)
    }
}

/// Configuration of the cooperative region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoopConfig {
    /// Ring-hops a device's ad-hoc radio covers (0 = greedy, no sharing).
    pub radio_radius: usize,
    /// Concurrent uploads one peer can serve per round.
    pub max_uploads_per_peer: u64,
}

impl Default for CoopConfig {
    fn default() -> Self {
        CoopConfig {
            radio_radius: 2,
            max_uploads_per_peer: 1,
        }
    }
}

/// A region of devices that may exchange clips device-to-device.
pub struct CoopRegionSim {
    devices: Vec<Device>,
    station: BaseStation,
    config: CoopConfig,
}

impl CoopRegionSim {
    /// Create a cooperative region.
    pub fn new(devices: Vec<Device>, station: BaseStation, config: CoopConfig) -> Self {
        CoopRegionSim {
            devices,
            station,
            config,
        }
    }

    /// Ring distance between two device indices.
    fn ring_distance(n: usize, a: usize, b: usize) -> usize {
        let d = a.abs_diff(b);
        d.min(n - d)
    }

    /// Run `rounds` rounds; each device issues one request per round.
    pub fn run(&mut self, rounds: u64) -> CoopReport {
        let n = self.devices.len();
        let mut outcomes = Vec::with_capacity(rounds as usize);
        for _ in 0..rounds {
            let mut out = CoopRound::default();
            let mut uploads = vec![0u64; n];
            let mut reservations = Vec::new();
            for i in 0..n {
                let Some(req) = self.devices[i].next_request() else {
                    continue;
                };
                if req.hit {
                    out.local_hits += 1;
                    continue;
                }
                // Ask reachable peers before the base station.
                let peer = (0..n).find(|&j| {
                    j != i
                        && Self::ring_distance(n, i, j) <= self.config.radio_radius
                        && uploads[j] < self.config.max_uploads_per_peer
                        && self.devices[j].cache().contains(req.request.clip)
                });
                if let Some(j) = peer {
                    uploads[j] += 1;
                    out.peer_hits += 1;
                    continue;
                }
                if !req.connected {
                    out.rejected += 1;
                    continue;
                }
                match self.station.admit(req.display_bandwidth) {
                    crate::station::Admission::Admitted(id) => {
                        out.admitted += 1;
                        reservations.push(id);
                    }
                    crate::station::Admission::Rejected => out.rejected += 1,
                }
            }
            for id in reservations {
                self.station.release(id);
            }
            outcomes.push(out);
        }
        CoopReport {
            devices: n,
            radio_radius: self.config.radio_radius,
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

    fn build(
        n_devices: usize,
        ratio: f64,
        config: CoopConfig,
        station_bw: Bandwidth,
    ) -> CoopRegionSim {
        let repo = Arc::new(paper::variable_sized_repository_of(24));
        let devices = (0..n_devices)
            .map(|i| {
                let cache = PolicyKind::DynSimple { k: 2 }.build(
                    Arc::clone(&repo),
                    repo.cache_capacity_for_ratio(ratio),
                    i as u64,
                    None,
                );
                let gen = RequestGenerator::new(24, 0.27, 0, 2_000, 500 + i as u64);
                Device::new(
                    i,
                    Arc::clone(&repo),
                    cache,
                    gen,
                    ConnectivitySchedule::always(NetworkLink::cellular_default()),
                )
            })
            .collect();
        CoopRegionSim::new(devices, BaseStation::new(station_bw), config)
    }

    #[test]
    fn ring_distance_wraps() {
        assert_eq!(CoopRegionSim::ring_distance(8, 0, 7), 1);
        assert_eq!(CoopRegionSim::ring_distance(8, 2, 6), 4);
        assert_eq!(CoopRegionSim::ring_distance(8, 3, 3), 0);
    }

    #[test]
    fn cooperation_raises_offload_rate() {
        let greedy = build(
            8,
            0.1,
            CoopConfig {
                radio_radius: 0,
                max_uploads_per_peer: 1,
            },
            Bandwidth::mbps(8),
        )
        .run(200);
        let coop = build(
            8,
            0.1,
            CoopConfig {
                radio_radius: 4,
                max_uploads_per_peer: 2,
            },
            Bandwidth::mbps(8),
        )
        .run(200);
        assert_eq!(greedy.peer_hit_rate(), 0.0);
        assert!(coop.peer_hit_rate() > 0.0);
        assert!(
            coop.offload_rate() > greedy.offload_rate(),
            "coop {} vs greedy {}",
            coop.offload_rate(),
            greedy.offload_rate()
        );
        assert!(coop.mean_throughput() >= greedy.mean_throughput());
    }

    #[test]
    fn upload_slots_bound_peer_service() {
        // One upload per peer per round: with 8 devices all missing the
        // same head clips, peer hits per round cannot exceed the number
        // of devices holding them times the slot limit.
        let mut sim = build(
            8,
            0.1,
            CoopConfig {
                radio_radius: 4,
                max_uploads_per_peer: 1,
            },
            Bandwidth::ZERO,
        );
        let report = sim.run(100);
        for round in &report.rounds {
            assert!(round.peer_hits <= 8);
            // With a dead base station nothing is admitted.
            assert_eq!(round.admitted, 0);
        }
    }

    #[test]
    fn partitioned_admission_ownership() {
        let repo = Arc::new(paper::variable_sized_repository_of(12));
        let inner = PolicyKind::Lru.build(
            Arc::clone(&repo),
            repo.cache_capacity_for_ratio(0.5),
            1,
            None,
        );
        // Device 1 of 4, replicas 2: owns clips whose index mod 4 ∈ {0, 1}
        // offset so that owner..owner+1 covers device 1 → indices with
        // owner 0 or 1.
        let mut cache = PartitionedAdmission::new(inner, 12, 1, 4, 2);
        use clipcache_core::ClipCache;
        use clipcache_workload::Timestamp;
        // Clip index 0 (id 1): owner 0, replicas {0,1} → device 1 owns it.
        assert!(cache.owns(clipcache_media::ClipId::new(1)));
        // Clip index 2 (id 3): owner 2, replicas {2,3} → device 1 doesn't.
        assert!(!cache.owns(clipcache_media::ClipId::new(3)));
        let out = cache.access(clipcache_media::ClipId::new(3), Timestamp(1));
        assert!(!out.is_hit());
        assert!(!cache.contains(clipcache_media::ClipId::new(3)));
        cache.access(clipcache_media::ClipId::new(1), Timestamp(2));
        assert!(cache.contains(clipcache_media::ClipId::new(1)));
        assert!(cache.name().starts_with("Partitioned<"));
    }

    #[test]
    fn partition_covers_every_clip_exactly_replicas_times() {
        let repo = Arc::new(paper::variable_sized_repository_of(24));
        let n_devices = 6;
        let replicas = 2;
        let caches: Vec<PartitionedAdmission> = (0..n_devices)
            .map(|d| {
                let inner = PolicyKind::Lru.build(
                    Arc::clone(&repo),
                    repo.cache_capacity_for_ratio(0.5),
                    d as u64,
                    None,
                );
                PartitionedAdmission::new(inner, 24, d, n_devices, replicas)
            })
            .collect();
        for clip in repo.ids() {
            let owners = caches.iter().filter(|c| c.owns(clip)).count();
            assert_eq!(owners, replicas, "{clip}");
        }
    }

    #[test]
    fn coordination_raises_offload_over_uncoordinated() {
        // Same devices/workload; coordinated partition (replicas 2) vs
        // plain greedy caches, both with a wide ad-hoc radio.
        let repo = Arc::new(paper::variable_sized_repository_of(48));
        let build = |replicas: Option<usize>| -> CoopRegionSim {
            let n_devices = 8;
            let devices = (0..n_devices)
                .map(|i| {
                    let inner = PolicyKind::DynSimple { k: 2 }.build(
                        Arc::clone(&repo),
                        repo.cache_capacity_for_ratio(0.05),
                        i as u64,
                        None,
                    );
                    let cache: Box<dyn clipcache_core::ClipCache> = match replicas {
                        Some(r) => Box::new(PartitionedAdmission::new(inner, 48, i, n_devices, r)),
                        None => inner,
                    };
                    let gen = RequestGenerator::new(48, 0.27, 0, 3_000, 900 + i as u64);
                    Device::new(
                        i,
                        Arc::clone(&repo),
                        cache,
                        gen,
                        ConnectivitySchedule::always(NetworkLink::cellular_default()),
                    )
                })
                .collect();
            CoopRegionSim::new(
                devices,
                BaseStation::new(Bandwidth::mbps(8)),
                CoopConfig {
                    radio_radius: 4,
                    max_uploads_per_peer: 4,
                },
            )
        };
        let uncoordinated = build(None).run(1_500);
        let coordinated = build(Some(2)).run(1_500);
        assert!(
            coordinated.offload_rate() > uncoordinated.offload_rate(),
            "coordinated {} vs uncoordinated {}",
            coordinated.offload_rate(),
            uncoordinated.offload_rate()
        );
        // The coordination works through peers, not local hits.
        assert!(coordinated.peer_hit_rate() > uncoordinated.peer_hit_rate());
    }

    #[test]
    fn report_rates() {
        let report = CoopReport {
            devices: 2,
            radio_radius: 1,
            rounds: vec![CoopRound {
                local_hits: 1,
                peer_hits: 1,
                admitted: 1,
                rejected: 1,
            }],
        };
        assert_eq!(report.offload_rate(), 0.5);
        assert_eq!(report.peer_hit_rate(), 0.25);
        assert_eq!(report.mean_throughput(), 3.0);
    }
}
