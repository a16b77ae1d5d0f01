//! Base stations with bandwidth reservation and admission control.
//!
//! Section 1: "Bandwidth reservation and admission control are required for
//! streaming media to ensure the mobile device does not starve for data"
//! and "requests are rejected once the network bandwidth is exhausted,
//! reducing the throughput of that region."
//!
//! A [`BaseStation`] has a fixed backhaul bandwidth. Devices request a
//! stream reservation at a clip's display bandwidth; the station admits the
//! stream if enough bandwidth remains, otherwise rejects it.

use clipcache_media::Bandwidth;

/// A stream reservation handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StreamId(u64);

/// Result of an admission request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// The stream was admitted and holds a reservation.
    Admitted(StreamId),
    /// The station's bandwidth is exhausted.
    Rejected,
}

impl Admission {
    /// True when the stream was admitted.
    pub fn is_admitted(&self) -> bool {
        matches!(self, Admission::Admitted(_))
    }
}

/// A base station multiplexing a fixed bandwidth across streams.
#[derive(Debug, Clone)]
pub struct BaseStation {
    total: Bandwidth,
    reserved: u64,
    next_id: u64,
    /// Live reservations: (id, bandwidth).
    streams: Vec<(StreamId, Bandwidth)>,
    /// Total admissions over the station's lifetime.
    pub admitted_count: u64,
    /// Total rejections over the station's lifetime.
    pub rejected_count: u64,
}

impl BaseStation {
    /// A station with the given backhaul bandwidth.
    pub fn new(total: Bandwidth) -> Self {
        BaseStation {
            total,
            reserved: 0,
            next_id: 1,
            streams: Vec::new(),
            admitted_count: 0,
            rejected_count: 0,
        }
    }

    /// The station's total bandwidth.
    pub fn total_bandwidth(&self) -> Bandwidth {
        self.total
    }

    /// Bandwidth currently reserved by live streams.
    pub fn reserved_bandwidth(&self) -> Bandwidth {
        Bandwidth::bps(self.reserved)
    }

    /// Bandwidth still available.
    pub fn available_bandwidth(&self) -> Bandwidth {
        Bandwidth::bps(self.total.as_bps() - self.reserved)
    }

    /// Number of live streams.
    pub fn active_streams(&self) -> usize {
        self.streams.len()
    }

    /// Request admission for a stream needing `bandwidth`.
    pub fn admit(&mut self, bandwidth: Bandwidth) -> Admission {
        if self.reserved + bandwidth.as_bps() > self.total.as_bps() {
            self.rejected_count += 1;
            return Admission::Rejected;
        }
        let id = StreamId(self.next_id);
        self.next_id += 1;
        self.reserved += bandwidth.as_bps();
        self.streams.push((id, bandwidth));
        self.admitted_count += 1;
        Admission::Admitted(id)
    }

    /// Release a reservation. Unknown ids are ignored (idempotent).
    pub fn release(&mut self, id: StreamId) {
        if let Some(pos) = self.streams.iter().position(|&(s, _)| s == id) {
            let (_, bw) = self.streams.swap_remove(pos);
            self.reserved -= bw.as_bps();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admits_until_exhausted() {
        let mut s = BaseStation::new(Bandwidth::mbps(10));
        let a = s.admit(Bandwidth::mbps(4));
        let b = s.admit(Bandwidth::mbps(4));
        assert!(a.is_admitted() && b.is_admitted());
        assert_eq!(s.available_bandwidth(), Bandwidth::mbps(2));
        // Third 4 Mbps stream exceeds the backhaul.
        assert_eq!(s.admit(Bandwidth::mbps(4)), Admission::Rejected);
        // A 2 Mbps stream still fits.
        assert!(s.admit(Bandwidth::mbps(2)).is_admitted());
        assert_eq!(s.available_bandwidth(), Bandwidth::ZERO);
        assert_eq!(s.admitted_count, 3);
        assert_eq!(s.rejected_count, 1);
    }

    #[test]
    fn release_frees_bandwidth() {
        let mut s = BaseStation::new(Bandwidth::mbps(4));
        let id = match s.admit(Bandwidth::mbps(4)) {
            Admission::Admitted(id) => id,
            Admission::Rejected => panic!("should admit"),
        };
        assert_eq!(s.admit(Bandwidth::mbps(1)), Admission::Rejected);
        s.release(id);
        assert!(s.admit(Bandwidth::mbps(1)).is_admitted());
        assert_eq!(s.active_streams(), 1);
    }

    #[test]
    fn release_unknown_is_noop() {
        let mut s = BaseStation::new(Bandwidth::mbps(4));
        s.release(StreamId(42));
        assert_eq!(s.available_bandwidth(), Bandwidth::mbps(4));
    }
}
