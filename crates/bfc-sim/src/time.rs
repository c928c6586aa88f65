//! Simulated time.
//!
//! The clock has picosecond resolution stored in a `u64`. One picosecond is
//! fine enough to represent a single byte on a 100 Gbps link exactly
//! (80 ps/byte) while still covering more than five hours of simulated time,
//! far beyond anything the BFC evaluation needs.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An absolute point in simulated time, measured in picoseconds since the
/// start of the simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time in picoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

// Both travel as their picosecond count.
crate::snap_newtype!(SimTime(u64), SimDuration(u64));

impl SimTime {
    /// The beginning of the simulation.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant (used as an "infinity" sentinel).
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Builds a time from raw picoseconds.
    pub const fn from_picos(ps: u64) -> Self {
        SimTime(ps)
    }
    /// Builds a time from nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns * 1_000)
    }
    /// Builds a time from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us * 1_000_000)
    }
    /// Raw picoseconds since the start of the simulation.
    pub const fn as_picos(&self) -> u64 {
        self.0
    }
    /// Whole nanoseconds since the start of the simulation (truncating).
    pub const fn as_nanos(&self) -> u64 {
        self.0 / 1_000
    }
    /// Microseconds since the start of the simulation as a float.
    pub fn as_micros_f64(&self) -> f64 {
        self.0 as f64 / 1e6
    }
    /// Seconds since the start of the simulation as a float.
    pub fn as_secs_f64(&self) -> f64 {
        self.0 as f64 / 1e12
    }
    /// Duration elapsed since `earlier`, saturating at zero if `earlier` is
    /// in the future.
    pub fn saturating_since(&self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
    /// Checked addition of a duration, `None` on overflow.
    pub fn checked_add(&self, d: SimDuration) -> Option<SimTime> {
        self.0.checked_add(d.0).map(SimTime)
    }
}

impl SimDuration {
    /// Zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The largest representable duration.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Builds a duration from raw picoseconds.
    pub const fn from_picos(ps: u64) -> Self {
        SimDuration(ps)
    }
    /// Builds a duration from nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns * 1_000)
    }
    /// Builds a duration from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000_000)
    }
    /// Builds a duration from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000_000)
    }
    /// Builds a duration from a floating-point number of seconds (rounding to
    /// the nearest picosecond, saturating at the representable maximum).
    pub fn from_secs_f64(secs: f64) -> Self {
        if secs <= 0.0 {
            return SimDuration::ZERO;
        }
        let ps = secs * 1e12;
        if ps >= u64::MAX as f64 {
            SimDuration::MAX
        } else {
            SimDuration(ps.round() as u64)
        }
    }
    /// Raw picoseconds.
    pub const fn as_picos(&self) -> u64 {
        self.0
    }
    /// Whole nanoseconds (truncating).
    pub const fn as_nanos(&self) -> u64 {
        self.0 / 1_000
    }
    /// Microseconds as a float.
    pub fn as_micros_f64(&self) -> f64 {
        self.0 as f64 / 1e6
    }
    /// Seconds as a float.
    pub fn as_secs_f64(&self) -> f64 {
        self.0 as f64 / 1e12
    }
    /// True if this is the zero duration.
    pub const fn is_zero(&self) -> bool {
        self.0 == 0
    }
    /// Saturating subtraction.
    pub fn saturating_sub(&self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }
    /// Multiplies the duration by a non-negative float, rounding to the
    /// nearest picosecond.
    pub fn mul_f64(&self, factor: f64) -> SimDuration {
        debug_assert!(factor >= 0.0, "duration factor must be non-negative");
        let ps = self.0 as f64 * factor;
        if ps >= u64::MAX as f64 {
            SimDuration::MAX
        } else {
            SimDuration(ps.round() as u64)
        }
    }
    /// Time taken to serialize `bytes` bytes on a link of `gbps` gigabits per
    /// second.
    pub fn for_bytes_at_gbps(bytes: u64, gbps: f64) -> SimDuration {
        debug_assert!(gbps > 0.0, "link rate must be positive");
        // bits / (Gbit/s) = ns; convert to ps.
        let ps = (bytes as f64 * 8.0 * 1000.0) / gbps;
        SimDuration(ps.round() as u64)
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        debug_assert!(
            self.0 >= rhs.0,
            "subtracting a later time from an earlier one"
        );
        SimDuration(self.0 - rhs.0)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        debug_assert!(self.0 >= rhs.0, "negative duration");
        SimDuration(self.0 - rhs.0)
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        debug_assert!(self.0 >= rhs.0, "negative duration");
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(rhs))
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}us", self.as_micros_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}us", self.as_micros_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        assert_eq!(SimTime::from_nanos(5).as_picos(), 5_000);
        assert_eq!(SimTime::from_micros(3).as_nanos(), 3_000);
        assert_eq!(SimDuration::from_millis(1).as_nanos(), 1_000_000);
        assert_eq!(SimDuration::from_secs_f64(1e-6).as_nanos(), 1_000);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_nanos(100);
        let d = SimDuration::from_nanos(40);
        assert_eq!((t + d).as_nanos(), 140);
        assert_eq!(((t + d) - t).as_nanos(), 40);
        let mut t2 = t;
        t2 += d;
        assert_eq!(t2.as_nanos(), 140);
        assert_eq!((d * 3).as_nanos(), 120);
        assert_eq!((d / 2).as_nanos(), 20);
    }

    #[test]
    fn serialization_delay_is_exact_at_100gbps() {
        // 1000 bytes at 100 Gbps = 80 ns.
        let d = SimDuration::for_bytes_at_gbps(1000, 100.0);
        assert_eq!(d.as_nanos(), 80);
        // 64 bytes at 10 Gbps = 51.2 ns = 51200 ps.
        let d = SimDuration::for_bytes_at_gbps(64, 10.0);
        assert_eq!(d.as_picos(), 51_200);
    }

    #[test]
    fn saturating_since() {
        let a = SimTime::from_nanos(10);
        let b = SimTime::from_nanos(30);
        assert_eq!(b.saturating_since(a).as_nanos(), 20);
        assert_eq!(a.saturating_since(b), SimDuration::ZERO);
    }

    #[test]
    fn mul_f64_rounds() {
        let d = SimDuration::from_nanos(100);
        assert_eq!(d.mul_f64(0.5).as_nanos(), 50);
        assert_eq!(d.mul_f64(2.0).as_nanos(), 200);
        assert_eq!(d.mul_f64(0.0), SimDuration::ZERO);
    }

    #[test]
    fn display_formats_microseconds() {
        assert_eq!(format!("{}", SimTime::from_micros(2)), "2.000us");
        assert_eq!(format!("{}", SimDuration::from_nanos(1500)), "1.500us");
    }
}
