//! Network links: Wi-Fi, cellular, disconnected.
//!
//! Section 1: an FMC phone carries two wireless interfaces. Cellular
//! provides "tens of Kilobits per second to a few Megabits per second";
//! Wi-Fi provides "hundreds of Kbps to tens of Mbps" but only within tens
//! of feet of a base station. A device out of range of both is
//! *disconnected* and can only service requests from its cache — the
//! scenario that motivates maximizing hit rate.

use clipcache_media::{Bandwidth, ByteSize};
use std::fmt;

/// The kind of connectivity a device currently has.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LinkKind {
    /// In range of a Wi-Fi base station (home broadband).
    WiFi,
    /// Cellular coverage only.
    Cellular,
    /// No base-station coverage (or the shared bandwidth is exhausted).
    Disconnected,
}

impl fmt::Display for LinkKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinkKind::WiFi => write!(f, "wifi"),
            LinkKind::Cellular => write!(f, "cellular"),
            LinkKind::Disconnected => write!(f, "disconnected"),
        }
    }
}

/// A network link with a usable bandwidth.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetworkLink {
    /// The connectivity kind.
    pub kind: LinkKind,
    /// Usable bandwidth on this link (0 when disconnected).
    pub bandwidth: Bandwidth,
}

impl NetworkLink {
    /// A Wi-Fi link at the paper's upper home-broadband range (20 Mbps).
    pub fn wifi_default() -> Self {
        NetworkLink {
            kind: LinkKind::WiFi,
            bandwidth: Bandwidth::mbps(20),
        }
    }

    /// A cellular link at 1 Mbps ("a few Mbps" upper range, conservatively).
    pub fn cellular_default() -> Self {
        NetworkLink {
            kind: LinkKind::Cellular,
            bandwidth: Bandwidth::mbps(1),
        }
    }

    /// No connectivity.
    pub fn disconnected() -> Self {
        NetworkLink {
            kind: LinkKind::Disconnected,
            bandwidth: Bandwidth::ZERO,
        }
    }

    /// A custom link.
    pub fn new(kind: LinkKind, bandwidth: Bandwidth) -> Self {
        NetworkLink { kind, bandwidth }
    }

    /// Whether any data can flow.
    pub fn is_connected(&self) -> bool {
        self.kind != LinkKind::Disconnected && self.bandwidth > Bandwidth::ZERO
    }

    /// Seconds to transfer `size` bytes (infinite when disconnected).
    pub fn transfer_secs(&self, size: ByteSize) -> f64 {
        self.bandwidth.transfer_secs(size)
    }
}

/// A phase of a connectivity schedule: `requests` consecutive requests
/// serviced under `link`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConnectivityPhase {
    /// Number of requests in this phase.
    pub requests: u64,
    /// The link in force.
    pub link: NetworkLink,
}

/// A repeating connectivity schedule: home Wi-Fi, then on the road, then a
/// dead zone, and so on. Phases cycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConnectivitySchedule {
    phases: Vec<ConnectivityPhase>,
    cycle_len: u64,
}

impl ConnectivitySchedule {
    /// Build from phases; they repeat cyclically.
    ///
    /// # Panics
    /// If `phases` is empty or all phases are zero-length.
    pub fn new(phases: Vec<ConnectivityPhase>) -> Self {
        assert!(!phases.is_empty(), "schedule needs at least one phase");
        let cycle_len: u64 = phases.iter().map(|p| p.requests).sum();
        assert!(cycle_len > 0, "schedule must cover at least one request");
        ConnectivitySchedule { phases, cycle_len }
    }

    /// Always connected via one link.
    pub fn always(link: NetworkLink) -> Self {
        ConnectivitySchedule::new(vec![ConnectivityPhase { requests: 1, link }])
    }

    /// The paper's motivating day: Wi-Fi at home, cellular commuting, a
    /// disconnected stretch, cellular, and back home.
    pub fn fmc_day(per_phase: u64) -> Self {
        ConnectivitySchedule::new(vec![
            ConnectivityPhase {
                requests: per_phase,
                link: NetworkLink::wifi_default(),
            },
            ConnectivityPhase {
                requests: per_phase,
                link: NetworkLink::cellular_default(),
            },
            ConnectivityPhase {
                requests: per_phase,
                link: NetworkLink::disconnected(),
            },
            ConnectivityPhase {
                requests: per_phase,
                link: NetworkLink::cellular_default(),
            },
        ])
    }

    /// The link in force at 1-based request number `i`.
    pub fn link_at(&self, i: u64) -> NetworkLink {
        let mut pos = (i - 1) % self.cycle_len;
        for p in &self.phases {
            if pos < p.requests {
                return p.link;
            }
            pos -= p.requests;
        }
        unreachable!("pos < cycle_len is covered by the phases");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn link_defaults() {
        assert!(NetworkLink::wifi_default().is_connected());
        assert!(NetworkLink::cellular_default().is_connected());
        assert!(!NetworkLink::disconnected().is_connected());
        assert!(NetworkLink::disconnected()
            .transfer_secs(ByteSize::mb(1))
            .is_infinite());
    }

    #[test]
    fn transfer_time() {
        let link = NetworkLink::new(LinkKind::WiFi, Bandwidth::mbps(8));
        assert!((link.transfer_secs(ByteSize::mb(8)) - 8.0).abs() < 1e-9);
    }

    #[test]
    fn schedule_cycles() {
        let s = ConnectivitySchedule::new(vec![
            ConnectivityPhase {
                requests: 2,
                link: NetworkLink::wifi_default(),
            },
            ConnectivityPhase {
                requests: 1,
                link: NetworkLink::disconnected(),
            },
        ]);
        assert_eq!(s.link_at(1).kind, LinkKind::WiFi);
        assert_eq!(s.link_at(2).kind, LinkKind::WiFi);
        assert_eq!(s.link_at(3).kind, LinkKind::Disconnected);
        assert_eq!(s.link_at(4).kind, LinkKind::WiFi); // wrapped
        assert_eq!(s.link_at(6).kind, LinkKind::Disconnected);
    }

    #[test]
    fn fmc_day_has_dead_zone() {
        let s = ConnectivitySchedule::fmc_day(10);
        assert_eq!(s.link_at(5).kind, LinkKind::WiFi);
        assert_eq!(s.link_at(15).kind, LinkKind::Cellular);
        assert_eq!(s.link_at(25).kind, LinkKind::Disconnected);
        assert_eq!(s.link_at(35).kind, LinkKind::Cellular);
        assert_eq!(s.link_at(45).kind, LinkKind::WiFi);
    }

    #[test]
    #[should_panic(expected = "at least one phase")]
    fn empty_schedule_rejected() {
        ConnectivitySchedule::new(vec![]);
    }
}
