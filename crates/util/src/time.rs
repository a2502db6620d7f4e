//! Virtual time for the emulation.
//!
//! ModelNet runs in real time on its hardware testbed; this reproduction runs
//! the same algorithms against a virtual clock so that experiments are
//! deterministic and independent of host speed. Both the instant type
//! ([`SimTime`]) and the span type ([`SimDuration`]) carry nanosecond
//! resolution, which is comfortably finer than the 100 µs hardware timer the
//! paper's core scheduler uses.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

use serde::{Deserialize, Serialize};

/// A span of virtual time with nanosecond resolution.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimDuration(u64);

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The largest representable duration.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Creates a duration from whole nanoseconds.
    pub const fn from_nanos(nanos: u64) -> Self {
        SimDuration(nanos)
    }

    /// Creates a duration from whole microseconds.
    pub const fn from_micros(micros: u64) -> Self {
        SimDuration(micros * 1_000)
    }

    /// Creates a duration from whole milliseconds.
    pub const fn from_millis(millis: u64) -> Self {
        SimDuration(millis * 1_000_000)
    }

    /// Creates a duration from whole seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs * 1_000_000_000)
    }

    /// Creates a duration from fractional seconds.
    ///
    /// Negative or non-finite inputs saturate to zero.
    pub fn from_secs_f64(secs: f64) -> Self {
        if !secs.is_finite() || secs <= 0.0 {
            return SimDuration::ZERO;
        }
        SimDuration((secs * 1e9).round() as u64)
    }

    /// Creates a duration from fractional milliseconds.
    pub fn from_millis_f64(millis: f64) -> Self {
        Self::from_secs_f64(millis / 1e3)
    }

    /// Creates a duration from fractional microseconds.
    pub fn from_micros_f64(micros: f64) -> Self {
        Self::from_secs_f64(micros / 1e6)
    }

    /// Returns the duration in whole nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Returns the duration in fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Returns the duration in fractional milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Returns the duration in fractional microseconds.
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// Returns `true` if the duration is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction.
    pub const fn saturating_sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }

    /// Multiplies the duration by a floating point factor, saturating at zero.
    pub fn mul_f64(self, factor: f64) -> SimDuration {
        SimDuration::from_secs_f64(self.as_secs_f64() * factor)
    }

    /// Returns the larger of two durations.
    pub fn max(self, other: SimDuration) -> SimDuration {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }

    /// Returns the smaller of two durations.
    pub fn min(self, other: SimDuration) -> SimDuration {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> Self {
        iter.fold(SimDuration::ZERO, |acc, d| acc + d)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}us", self.as_micros_f64())
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

/// An instant of virtual time, measured in nanoseconds since the start of the
/// emulation run.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimTime(u64);

impl SimTime {
    /// The start of the emulation.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant; used as "never" for idle deadlines.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant from whole nanoseconds since the emulation start.
    pub const fn from_nanos(nanos: u64) -> Self {
        SimTime(nanos)
    }

    /// Creates an instant from whole microseconds since the emulation start.
    pub const fn from_micros(micros: u64) -> Self {
        SimTime(micros * 1_000)
    }

    /// Creates an instant from whole milliseconds since the emulation start.
    pub const fn from_millis(millis: u64) -> Self {
        SimTime(millis * 1_000_000)
    }

    /// Creates an instant from whole seconds since the emulation start.
    pub const fn from_secs(secs: u64) -> Self {
        SimTime(secs * 1_000_000_000)
    }

    /// Creates an instant from fractional seconds since the emulation start.
    pub fn from_secs_f64(secs: f64) -> Self {
        SimTime(SimDuration::from_secs_f64(secs).as_nanos())
    }

    /// Returns the instant as nanoseconds since the emulation start.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Returns the instant as fractional seconds since the emulation start.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Returns the instant as fractional milliseconds since the emulation start.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Returns the elapsed duration since `earlier`, or zero if `earlier` is
    /// in the future.
    pub fn duration_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Saturating addition of a duration.
    pub fn saturating_add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(d.as_nanos()))
    }

    /// The instant `d` after this one, or `None` past [`SimTime::MAX`].
    pub fn checked_add(self, d: SimDuration) -> Option<SimTime> {
        self.0.checked_add(d.as_nanos()).map(SimTime)
    }

    /// Returns the larger of two instants.
    pub fn max(self, other: SimTime) -> SimTime {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }

    /// Returns the smaller of two instants.
    pub fn min(self, other: SimTime) -> SimTime {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.as_nanos())
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.as_nanos();
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 - rhs.as_nanos())
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duration_constructors_agree() {
        assert_eq!(SimDuration::from_secs(1), SimDuration::from_millis(1_000));
        assert_eq!(SimDuration::from_millis(1), SimDuration::from_micros(1_000));
        assert_eq!(SimDuration::from_micros(1), SimDuration::from_nanos(1_000));
        assert_eq!(
            SimDuration::from_secs_f64(0.5),
            SimDuration::from_millis(500)
        );
    }

    #[test]
    fn duration_float_roundtrip() {
        let d = SimDuration::from_micros(12_345);
        assert!((d.as_secs_f64() - 0.012_345).abs() < 1e-12);
        assert!((d.as_millis_f64() - 12.345).abs() < 1e-9);
        assert!((d.as_micros_f64() - 12_345.0).abs() < 1e-6);
    }

    #[test]
    fn duration_from_secs_f64_saturates_on_garbage() {
        assert_eq!(SimDuration::from_secs_f64(-1.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::NAN), SimDuration::ZERO);
        assert_eq!(
            SimDuration::from_secs_f64(f64::NEG_INFINITY),
            SimDuration::ZERO
        );
    }

    #[test]
    fn duration_arithmetic() {
        let a = SimDuration::from_millis(10);
        let b = SimDuration::from_millis(4);
        assert_eq!(a + b, SimDuration::from_millis(14));
        assert_eq!(a - b, SimDuration::from_millis(6));
        assert_eq!(a * 3, SimDuration::from_millis(30));
        assert_eq!(a / 2, SimDuration::from_millis(5));
        assert_eq!(b.saturating_sub(a), SimDuration::ZERO);
        assert_eq!(a.max(b), a);
        assert_eq!(a.min(b), b);
    }

    #[test]
    fn duration_sum() {
        let total: SimDuration = (1..=4).map(SimDuration::from_millis).sum();
        assert_eq!(total, SimDuration::from_millis(10));
    }

    #[test]
    fn time_arithmetic() {
        let t0 = SimTime::from_millis(100);
        let t1 = t0 + SimDuration::from_millis(50);
        assert_eq!(t1, SimTime::from_millis(150));
        assert_eq!(t1 - t0, SimDuration::from_millis(50));
        assert_eq!(t1.duration_since(t0), SimDuration::from_millis(50));
        assert_eq!(t0.duration_since(t1), SimDuration::ZERO);
    }

    #[test]
    fn time_ordering() {
        assert!(SimTime::from_micros(1) < SimTime::from_micros(2));
        assert_eq!(
            SimTime::ZERO.max(SimTime::from_secs(1)),
            SimTime::from_secs(1)
        );
        assert_eq!(SimTime::ZERO.min(SimTime::from_secs(1)), SimTime::ZERO);
    }

    #[test]
    fn display_picks_sensible_units() {
        assert_eq!(format!("{}", SimDuration::from_nanos(12)), "12ns");
        assert_eq!(format!("{}", SimDuration::from_micros(12)), "12.000us");
        assert_eq!(format!("{}", SimDuration::from_millis(12)), "12.000ms");
        assert_eq!(format!("{}", SimDuration::from_secs(12)), "12.000s");
    }

    #[test]
    fn mul_f64_scales() {
        let d = SimDuration::from_millis(10);
        assert_eq!(d.mul_f64(2.5), SimDuration::from_millis(25));
    }
}
