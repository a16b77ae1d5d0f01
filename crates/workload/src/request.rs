//! Requests and virtual time.

use clipcache_media::ClipId;
use std::fmt;

/// Virtual time: one tick per request, monotonically increasing.
///
/// The paper's client "issues 10,000 requests for clips one after another",
/// so the natural clock is the request index itself. Timestamps start at 1:
/// tick 0 is "before any request", which lets reference-history code use 0
/// as "never referenced".
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Timestamp(pub u64);

impl Timestamp {
    /// The instant before any request.
    pub const ZERO: Timestamp = Timestamp(0);

    /// Raw tick count.
    #[inline]
    pub const fn get(self) -> u64 {
        self.0
    }

    /// The next tick.
    #[inline]
    pub const fn next(self) -> Timestamp {
        Timestamp(self.0 + 1)
    }

    /// Ticks elapsed since `earlier` (saturating at 0).
    #[inline]
    pub fn since(self, earlier: Timestamp) -> u64 {
        self.0.saturating_sub(earlier.0)
    }
}

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// A single clip request in a reference string.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Request {
    /// When the request was issued.
    pub at: Timestamp,
    /// The referenced clip.
    pub clip: ClipId,
}

impl Request {
    /// Construct a request.
    #[inline]
    pub fn new(at: Timestamp, clip: ClipId) -> Self {
        Request { at, clip }
    }
}

impl fmt::Display for Request {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@{}", self.clip, self.at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timestamp_ordering_and_since() {
        let a = Timestamp(5);
        let b = Timestamp(9);
        assert!(a < b);
        assert_eq!(b.since(a), 4);
        assert_eq!(a.since(b), 0);
        assert_eq!(a.next(), Timestamp(6));
    }

    #[test]
    fn display_forms() {
        let r = Request::new(Timestamp(3), ClipId::new(12));
        assert_eq!(r.to_string(), "clip#12@t3");
    }
}
