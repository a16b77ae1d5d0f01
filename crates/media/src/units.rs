//! Byte sizes, bandwidths and durations.
//!
//! The paper quotes clip sizes in decimal units (a 2-hour 4 Mbps video clip
//! is "3.5 GB") and bandwidths in Kbps/Mbps. We follow the decimal
//! convention: `1 KB = 1_000` bytes, `1 Mbps = 1_000_000` bits per second.
//! Sizes are plain `u64` byte counts wrapped in [`ByteSize`] for readability
//! and unit-safe arithmetic in the simulator.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// One kilobyte (decimal), in bytes.
pub const KB: u64 = 1_000;
/// One megabyte (decimal), in bytes.
pub const MB: u64 = 1_000 * KB;
/// One gigabyte (decimal), in bytes.
pub const GB: u64 = 1_000 * MB;

/// A size in bytes.
///
/// `ByteSize` is `Copy` and ordered; arithmetic saturates on subtraction so
/// free-space computations cannot underflow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ByteSize(pub u64);

impl ByteSize {
    /// Zero bytes.
    pub const ZERO: ByteSize = ByteSize(0);

    /// Construct from a raw byte count.
    #[inline]
    pub const fn bytes(n: u64) -> Self {
        ByteSize(n)
    }

    /// Construct from decimal kilobytes.
    #[inline]
    pub const fn kb(n: u64) -> Self {
        ByteSize(n * KB)
    }

    /// Construct from decimal megabytes.
    #[inline]
    pub const fn mb(n: u64) -> Self {
        ByteSize(n * MB)
    }

    /// Construct from decimal gigabytes.
    #[inline]
    pub const fn gb(n: u64) -> Self {
        ByteSize(n * GB)
    }

    /// The raw byte count.
    #[inline]
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// The byte count as `f64`, for ratio computations.
    #[inline]
    pub fn as_f64(self) -> f64 {
        self.0 as f64
    }

    /// Saturating subtraction: `max(self - rhs, 0)`.
    #[inline]
    pub fn saturating_sub(self, rhs: ByteSize) -> ByteSize {
        ByteSize(self.0.saturating_sub(rhs.0))
    }

    /// `self / other` as a floating-point ratio. Returns 0 when `other` is zero.
    #[inline]
    pub fn ratio(self, other: ByteSize) -> f64 {
        if other.0 == 0 {
            0.0
        } else {
            self.0 as f64 / other.0 as f64
        }
    }

    /// Scale by a floating-point factor, rounding to the nearest byte.
    ///
    /// Used to derive cache capacities from `S_T / S_DB` ratios.
    #[inline]
    pub fn scale(self, factor: f64) -> ByteSize {
        debug_assert!(factor >= 0.0, "negative byte-size scale factor");
        ByteSize((self.0 as f64 * factor).round() as u64)
    }
}

impl Add for ByteSize {
    type Output = ByteSize;
    #[inline]
    fn add(self, rhs: ByteSize) -> ByteSize {
        ByteSize(self.0 + rhs.0)
    }
}

impl AddAssign for ByteSize {
    #[inline]
    fn add_assign(&mut self, rhs: ByteSize) {
        self.0 += rhs.0;
    }
}

impl Sub for ByteSize {
    type Output = ByteSize;
    #[inline]
    fn sub(self, rhs: ByteSize) -> ByteSize {
        ByteSize(self.0 - rhs.0)
    }
}

impl SubAssign for ByteSize {
    #[inline]
    fn sub_assign(&mut self, rhs: ByteSize) {
        self.0 -= rhs.0;
    }
}

impl Sum for ByteSize {
    fn sum<I: Iterator<Item = ByteSize>>(iter: I) -> ByteSize {
        ByteSize(iter.map(|b| b.0).sum())
    }
}

impl Mul<u64> for ByteSize {
    type Output = ByteSize;
    #[inline]
    fn mul(self, rhs: u64) -> ByteSize {
        ByteSize(self.0 * rhs)
    }
}

impl Div<u64> for ByteSize {
    type Output = ByteSize;
    #[inline]
    fn div(self, rhs: u64) -> ByteSize {
        ByteSize(self.0 / rhs)
    }
}

impl fmt::Display for ByteSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = self.0;
        if b >= GB {
            write!(f, "{:.1} GB", b as f64 / GB as f64)
        } else if b >= MB {
            write!(f, "{:.1} MB", b as f64 / MB as f64)
        } else if b >= KB && b.is_multiple_of(KB) {
            write!(f, "{} KB", b / KB)
        } else {
            write!(f, "{} B", b)
        }
    }
}

/// A bandwidth in bits per second.
///
/// The paper's display-bandwidth requirements (`B_Display(i)`) and network
/// link rates are expressed in Kbps/Mbps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Bandwidth(pub u64);

impl Bandwidth {
    /// Zero bandwidth (a severed link).
    pub const ZERO: Bandwidth = Bandwidth(0);

    /// Construct from bits per second.
    #[inline]
    pub const fn bps(n: u64) -> Self {
        Bandwidth(n)
    }

    /// Construct from kilobits per second.
    #[inline]
    pub const fn kbps(n: u64) -> Self {
        Bandwidth(n * 1_000)
    }

    /// Construct from megabits per second.
    #[inline]
    pub const fn mbps(n: u64) -> Self {
        Bandwidth(n * 1_000_000)
    }

    /// Raw bits per second.
    #[inline]
    pub const fn as_bps(self) -> u64 {
        self.0
    }

    /// Bytes transferred per second at this rate.
    #[inline]
    pub fn bytes_per_sec(self) -> f64 {
        self.0 as f64 / 8.0
    }

    /// Seconds needed to move `size` bytes at this rate.
    ///
    /// Returns `f64::INFINITY` for a zero-rate link: a disconnected device
    /// can never finish a transfer, and the simulator treats that as an
    /// unavailable stream.
    #[inline]
    pub fn transfer_secs(self, size: ByteSize) -> f64 {
        if self.0 == 0 {
            f64::INFINITY
        } else {
            size.as_f64() / self.bytes_per_sec()
        }
    }
}

impl Add for Bandwidth {
    type Output = Bandwidth;
    #[inline]
    fn add(self, rhs: Bandwidth) -> Bandwidth {
        Bandwidth(self.0 + rhs.0)
    }
}

impl Sub for Bandwidth {
    type Output = Bandwidth;
    #[inline]
    fn sub(self, rhs: Bandwidth) -> Bandwidth {
        Bandwidth(self.0 - rhs.0)
    }
}

impl Sum for Bandwidth {
    fn sum<I: Iterator<Item = Bandwidth>>(iter: I) -> Bandwidth {
        Bandwidth(iter.map(|b| b.0).sum())
    }
}

impl fmt::Display for Bandwidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = self.0;
        if b >= 1_000_000 && b.is_multiple_of(100_000) {
            write!(f, "{:.1} Mbps", b as f64 / 1e6)
        } else if b >= 1_000 && b.is_multiple_of(1_000) {
            write!(f, "{} Kbps", b / 1_000)
        } else {
            write!(f, "{} bps", b)
        }
    }
}

/// A duration in whole seconds (display times of clips).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Duration(pub u64);

impl Duration {
    /// Construct from seconds.
    #[inline]
    pub const fn secs(n: u64) -> Self {
        Duration(n)
    }

    /// Construct from minutes.
    #[inline]
    pub const fn mins(n: u64) -> Self {
        Duration(n * 60)
    }

    /// Construct from hours.
    #[inline]
    pub const fn hours(n: u64) -> Self {
        Duration(n * 3600)
    }

    /// Raw seconds.
    #[inline]
    pub const fn as_secs(self) -> u64 {
        self.0
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.0;
        if s >= 3600 && s.is_multiple_of(3600) {
            write!(f, "{} h", s / 3600)
        } else if s >= 60 && s.is_multiple_of(60) {
            write!(f, "{} min", s / 60)
        } else {
            write!(f, "{} s", s)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_size_constructors_agree() {
        assert_eq!(ByteSize::kb(3), ByteSize::bytes(3_000));
        assert_eq!(ByteSize::mb(2), ByteSize::bytes(2_000_000));
        assert_eq!(ByteSize::gb(1), ByteSize::bytes(1_000_000_000));
    }

    #[test]
    fn byte_size_arithmetic() {
        let a = ByteSize::mb(5);
        let b = ByteSize::mb(2);
        assert_eq!(a + b, ByteSize::mb(7));
        assert_eq!(a - b, ByteSize::mb(3));
        assert_eq!(b.saturating_sub(a), ByteSize::ZERO);
        assert_eq!(a * 2, ByteSize::mb(10));
        assert_eq!(a / 5, ByteSize::mb(1));
    }

    #[test]
    fn byte_size_ratio_and_scale() {
        let db = ByteSize::gb(100);
        assert!((ByteSize::gb(12).ratio(db) - 0.12).abs() < 1e-12);
        assert_eq!(db.scale(0.125), ByteSize::bytes(12_500_000_000));
        assert_eq!(ByteSize::gb(1).ratio(ByteSize::ZERO), 0.0);
    }

    #[test]
    fn byte_size_sum() {
        let total: ByteSize = [ByteSize::mb(1), ByteSize::mb(2), ByteSize::mb(3)]
            .into_iter()
            .sum();
        assert_eq!(total, ByteSize::mb(6));
    }

    #[test]
    fn byte_size_display() {
        assert_eq!(ByteSize::gb(3).to_string(), "3.0 GB");
        assert_eq!(ByteSize::bytes(3_500_000_000).to_string(), "3.5 GB");
        assert_eq!(ByteSize::bytes(8_800_000).to_string(), "8.8 MB");
        assert_eq!(ByteSize::kb(4).to_string(), "4 KB");
        assert_eq!(ByteSize::bytes(17).to_string(), "17 B");
    }

    #[test]
    fn bandwidth_transfer() {
        let bw = Bandwidth::mbps(8); // 1 MB/s
        assert_eq!(bw.bytes_per_sec(), 1e6);
        assert!((bw.transfer_secs(ByteSize::mb(10)) - 10.0).abs() < 1e-9);
        assert!(Bandwidth::ZERO.transfer_secs(ByteSize::mb(1)).is_infinite());
    }

    #[test]
    fn bandwidth_display() {
        assert_eq!(Bandwidth::mbps(4).to_string(), "4.0 Mbps");
        assert_eq!(Bandwidth::kbps(300).to_string(), "300 Kbps");
        assert_eq!(Bandwidth::bps(42).to_string(), "42 bps");
    }

    #[test]
    fn duration_display() {
        assert_eq!(Duration::hours(2).to_string(), "2 h");
        assert_eq!(Duration::mins(4).to_string(), "4 min");
        assert_eq!(Duration::secs(42).to_string(), "42 s");
    }
}
