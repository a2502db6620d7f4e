//! Data rates and byte sizes.
//!
//! ModelNet pipes are configured with a bandwidth; the emulation repeatedly
//! answers "how long does a packet of B bytes take to drain through a link of
//! rate R" — [`DataRate::transmission_time`] is that computation, used by both
//! the pipe bandwidth queue and by the hardware models.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

use crate::time::SimDuration;

const NANOS_PER_SEC: u64 = 1_000_000_000;

/// A quantity of data in bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ByteSize(u64);

impl ByteSize {
    /// Zero bytes.
    pub const ZERO: ByteSize = ByteSize(0);

    /// Creates a size from a byte count.
    pub const fn from_bytes(bytes: u64) -> Self {
        ByteSize(bytes)
    }

    /// Creates a size from binary kilobytes (1 KB = 1024 bytes), matching how
    /// the paper quotes file and window sizes.
    pub const fn from_kb(kb: u64) -> Self {
        ByteSize(kb * 1024)
    }

    /// Creates a size from binary megabytes.
    pub const fn from_mb(mb: u64) -> Self {
        ByteSize(mb * 1024 * 1024)
    }

    /// Returns the size in bytes.
    pub const fn as_bytes(self) -> u64 {
        self.0
    }

    /// Returns the size in bits, saturating past `u64::MAX` bits.
    pub const fn as_bits(self) -> u64 {
        self.0.saturating_mul(8)
    }

    /// Returns `true` if this is the zero size.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction.
    pub const fn saturating_sub(self, rhs: ByteSize) -> ByteSize {
        ByteSize(self.0.saturating_sub(rhs.0))
    }

    /// Returns the smaller of two sizes.
    pub fn min(self, other: ByteSize) -> ByteSize {
        ByteSize(self.0.min(other.0))
    }

    /// Returns the larger of two sizes.
    pub fn max(self, other: ByteSize) -> ByteSize {
        ByteSize(self.0.max(other.0))
    }
}

impl Add for ByteSize {
    type Output = ByteSize;
    fn add(self, rhs: ByteSize) -> ByteSize {
        ByteSize(self.0 + rhs.0)
    }
}

impl AddAssign for ByteSize {
    fn add_assign(&mut self, rhs: ByteSize) {
        self.0 += rhs.0;
    }
}

impl Sub for ByteSize {
    type Output = ByteSize;
    fn sub(self, rhs: ByteSize) -> ByteSize {
        ByteSize(self.0 - rhs.0)
    }
}

impl Mul<u64> for ByteSize {
    type Output = ByteSize;
    fn mul(self, rhs: u64) -> ByteSize {
        ByteSize(self.0 * rhs)
    }
}

impl Sum for ByteSize {
    fn sum<I: Iterator<Item = ByteSize>>(iter: I) -> Self {
        iter.fold(ByteSize::ZERO, |acc, b| acc + b)
    }
}

impl fmt::Display for ByteSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1024 * 1024 {
            write!(f, "{:.2}MB", self.0 as f64 / (1024.0 * 1024.0))
        } else if self.0 >= 1024 {
            write!(f, "{:.2}KB", self.0 as f64 / 1024.0)
        } else {
            write!(f, "{}B", self.0)
        }
    }
}

/// A data rate in bits per second.
///
/// The paper quotes link rates in decimal megabits (10 Mb/s = 10,000,000
/// bit/s), which is the convention used here.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct DataRate(u64);

impl DataRate {
    /// A rate of zero; transmission over a zero-rate link never completes.
    pub const ZERO: DataRate = DataRate(0);

    /// Creates a rate from bits per second.
    pub const fn from_bps(bps: u64) -> Self {
        DataRate(bps)
    }

    /// Creates a rate from kilobits per second (decimal).
    pub const fn from_kbps(kbps: u64) -> Self {
        DataRate(kbps * 1_000)
    }

    /// Creates a rate from megabits per second (decimal).
    pub const fn from_mbps(mbps: u64) -> Self {
        DataRate(mbps * 1_000_000)
    }

    /// Creates a rate from gigabits per second (decimal).
    pub const fn from_gbps(gbps: u64) -> Self {
        DataRate(gbps * 1_000_000_000)
    }

    /// Creates a rate from fractional megabits per second.
    pub fn from_mbps_f64(mbps: f64) -> Self {
        if !mbps.is_finite() || mbps <= 0.0 {
            return DataRate::ZERO;
        }
        DataRate((mbps * 1e6).round() as u64)
    }

    /// Returns the rate in bits per second.
    pub const fn as_bps(self) -> u64 {
        self.0
    }

    /// Returns the rate in fractional megabits per second.
    pub fn as_mbps_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Returns the rate in fractional kilobits per second.
    pub fn as_kbps_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// Returns `true` if the rate is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Time to clock `size` onto a link of this rate.
    ///
    /// A zero rate yields [`SimDuration::MAX`], modelling a link that never
    /// drains (the caller is expected to treat such pipes as down).
    pub fn transmission_time(self, size: ByteSize) -> SimDuration {
        if self.0 == 0 {
            return SimDuration::MAX;
        }
        // Nanoseconds = bits * 1e9 / bps. The product fits in 64 bits for
        // any packet (up to ~2 GiB), which keeps the per-hop path off the
        // 128-bit division; large transfers on slow links take the wide one.
        let bits = size.as_bits();
        match bits.checked_mul(NANOS_PER_SEC) {
            Some(bit_nanos) => SimDuration::from_nanos(bit_nanos / self.0),
            None => {
                let nanos = (bits as u128 * NANOS_PER_SEC as u128) / self.0 as u128;
                SimDuration::from_nanos(nanos.min(u64::MAX as u128) as u64)
            }
        }
    }

    /// Number of bytes that drain through this rate in `d`.
    pub fn bytes_in(self, d: SimDuration) -> ByteSize {
        // Same split as `transmission_time`: 64-bit when `bps * ns` fits.
        // Bytes = bit-nanoseconds / (8 * 1e9); flooring once or twice agrees.
        match self.0.checked_mul(d.as_nanos()) {
            Some(bit_nanos) => ByteSize::from_bytes(bit_nanos / (8 * NANOS_PER_SEC)),
            None => {
                let bits = (self.0 as u128 * d.as_nanos() as u128) / NANOS_PER_SEC as u128;
                ByteSize::from_bytes((bits / 8).min(u64::MAX as u128) as u64)
            }
        }
    }

    /// The bandwidth-delay product of a pipe of this rate and `delay` latency,
    /// i.e. the amount of data in flight when the pipe is fully utilised.
    pub fn bandwidth_delay_product(self, delay: SimDuration) -> ByteSize {
        self.bytes_in(delay)
    }

    /// Scales the rate by a floating point factor, saturating at zero.
    pub fn mul_f64(self, factor: f64) -> DataRate {
        DataRate::from_mbps_f64(self.as_mbps_f64() * factor)
    }

    /// Returns the smaller of two rates.
    pub fn min(self, other: DataRate) -> DataRate {
        DataRate(self.0.min(other.0))
    }

    /// Returns the larger of two rates.
    pub fn max(self, other: DataRate) -> DataRate {
        DataRate(self.0.max(other.0))
    }
}

impl Add for DataRate {
    type Output = DataRate;
    fn add(self, rhs: DataRate) -> DataRate {
        DataRate(self.0 + rhs.0)
    }
}

impl Sub for DataRate {
    type Output = DataRate;
    fn sub(self, rhs: DataRate) -> DataRate {
        DataRate(self.0 - rhs.0)
    }
}

impl Div<u64> for DataRate {
    type Output = DataRate;
    fn div(self, rhs: u64) -> DataRate {
        DataRate(self.0 / rhs)
    }
}

impl Sum for DataRate {
    fn sum<I: Iterator<Item = DataRate>>(iter: I) -> Self {
        iter.fold(DataRate::ZERO, |acc, r| acc + r)
    }
}

impl fmt::Display for DataRate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.2}Gb/s", self.0 as f64 / 1e9)
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.2}Mb/s", self.0 as f64 / 1e6)
        } else if self.0 >= 1_000 {
            write!(f, "{:.2}Kb/s", self.0 as f64 / 1e3)
        } else {
            write!(f, "{}b/s", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bytesize_constructors() {
        assert_eq!(ByteSize::from_kb(1), ByteSize::from_bytes(1024));
        assert_eq!(ByteSize::from_mb(1), ByteSize::from_kb(1024));
        assert_eq!(ByteSize::from_bytes(10).as_bits(), 80);
    }

    #[test]
    fn bytesize_arithmetic() {
        let a = ByteSize::from_bytes(1500);
        let b = ByteSize::from_bytes(500);
        assert_eq!(a + b, ByteSize::from_bytes(2000));
        assert_eq!(a - b, ByteSize::from_bytes(1000));
        assert_eq!(a * 2, ByteSize::from_bytes(3000));
        assert_eq!(b.saturating_sub(a), ByteSize::ZERO);
        assert_eq!(a.min(b), b);
        assert_eq!(a.max(b), a);
    }

    #[test]
    fn datarate_constructors() {
        assert_eq!(DataRate::from_mbps(10).as_bps(), 10_000_000);
        assert_eq!(DataRate::from_gbps(1), DataRate::from_mbps(1000));
        assert_eq!(DataRate::from_kbps(1).as_bps(), 1000);
        assert_eq!(DataRate::from_mbps_f64(1.5).as_bps(), 1_500_000);
        assert_eq!(DataRate::from_mbps_f64(-3.0), DataRate::ZERO);
    }

    #[test]
    fn transmission_time_of_1500b_at_10mbps() {
        // 1500 bytes = 12,000 bits at 10 Mb/s = 1.2 ms.
        let t = DataRate::from_mbps(10).transmission_time(ByteSize::from_bytes(1500));
        assert_eq!(t, SimDuration::from_micros(1200));
    }

    #[test]
    fn transmission_time_zero_rate_never_completes() {
        let t = DataRate::ZERO.transmission_time(ByteSize::from_bytes(1));
        assert_eq!(t, SimDuration::MAX);
    }

    #[test]
    fn bytes_in_inverts_transmission_time() {
        let rate = DataRate::from_mbps(100);
        let size = ByteSize::from_bytes(123_456);
        let t = rate.transmission_time(size);
        let back = rate.bytes_in(t);
        // Rounding in nanoseconds may lose a byte or two.
        assert!(back.as_bytes().abs_diff(size.as_bytes()) <= 2);
    }

    #[test]
    fn bandwidth_delay_product_matches_paper_example() {
        // The paper: 10 Gb/s aggregate with 200 ms RTT needs ~250 MB of
        // buffering. 10 Gb/s * 0.2 s = 2 Gbit = 250 MB (decimal).
        let bdp = DataRate::from_gbps(10).bandwidth_delay_product(SimDuration::from_millis(200));
        assert_eq!(bdp.as_bytes(), 250_000_000);
    }

    #[test]
    fn rate_scaling() {
        let r = DataRate::from_mbps(10);
        assert_eq!(r.mul_f64(0.5), DataRate::from_mbps(5));
        assert_eq!(r / 2, DataRate::from_mbps(5));
        assert_eq!(r.min(DataRate::from_mbps(2)), DataRate::from_mbps(2));
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", DataRate::from_mbps(10)), "10.00Mb/s");
        assert_eq!(format!("{}", ByteSize::from_kb(8)), "8.00KB");
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        /// The defining formulas, always in 128 bits.
        fn wide_transmission_nanos(bytes: u64, bps: u64) -> u64 {
            let nanos = bytes as u128 * 8 * 1_000_000_000 / bps as u128;
            nanos.min(u64::MAX as u128) as u64
        }

        fn wide_bytes_in(bps: u64, nanos: u64) -> u64 {
            let bits = bps as u128 * nanos as u128 / 1_000_000_000;
            (bits / 8).min(u64::MAX as u128) as u64
        }

        /// Every magnitude, with the range ends and the values either side of
        /// where `bits * 1e9` stops fitting in 64 bits made likely.
        fn magnitude(max: u64) -> impl Strategy<Value = u64> {
            prop_oneof![
                2 => 0u64..10_000,
                2 => 0u64..=max,
                2 => (0u32..64, 0u64..1024).prop_map(move |(shift, low)| ((1u64 << shift) | low).min(max)),
                1 => Just(1u64),
                1 => Just(max),
                1 => (0u64..1024).prop_map(move |d| max - d),
            ]
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]

            /// Packets and multi-GiB transfers on anything from 1 b/s to
            /// `u64::MAX` b/s: the 64-bit path and the 128-bit path both
            /// agree with the 128-bit formula.
            #[test]
            fn transmission_time_matches_the_wide_formula(
                bytes in magnitude(u64::MAX / 8),
                bps in magnitude(u64::MAX),
            ) {
                let bps = bps.max(1);
                prop_assert_eq!(
                    DataRate::from_bps(bps).transmission_time(ByteSize::from_bytes(bytes)),
                    SimDuration::from_nanos(wide_transmission_nanos(bytes, bps))
                );
            }

            #[test]
            fn bytes_in_matches_the_wide_formula(
                bps in magnitude(u64::MAX),
                nanos in magnitude(u64::MAX),
            ) {
                prop_assert_eq!(
                    DataRate::from_bps(bps).bytes_in(SimDuration::from_nanos(nanos)),
                    ByteSize::from_bytes(wide_bytes_in(bps, nanos))
                );
            }
        }

        #[test]
        fn range_ends() {
            let gib4 = ByteSize::from_bytes(4 << 30);
            for bps in [1, 2, 1_000_000_000, u64::MAX - 1, u64::MAX] {
                assert_eq!(
                    DataRate::from_bps(bps).transmission_time(gib4),
                    SimDuration::from_nanos(wide_transmission_nanos(4 << 30, bps))
                );
                for nanos in [0, 1, 8_000_000_000, u64::MAX] {
                    assert_eq!(
                        DataRate::from_bps(bps).bytes_in(SimDuration::from_nanos(nanos)),
                        ByteSize::from_bytes(wide_bytes_in(bps, nanos))
                    );
                }
            }
            // 1 b/s saturates: 4 GiB would take longer than u64 nanoseconds.
            assert_eq!(
                DataRate::from_bps(1).transmission_time(gib4),
                SimDuration::MAX
            );
        }
    }
}
