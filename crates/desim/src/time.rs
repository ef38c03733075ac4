//! Virtual time primitives.
//!
//! The simulator measures time in integer nanoseconds since the start of the
//! simulation. Two newtypes keep instants and spans apart: [`Time`] is a
//! point on the virtual clock and [`Duration`] is a span between two points.
//! Both are plain `u64` wrappers, so they are `Copy` and cheap to pass by
//! value.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A point on the virtual clock, in nanoseconds since simulation start.
///
/// ```
/// use desim::{Time, Duration};
/// let t = Time::ZERO + Duration::from_millis(250);
/// assert_eq!(t.as_secs_f64(), 0.25);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Time(u64);

/// A span of virtual time, in nanoseconds.
///
/// ```
/// use desim::Duration;
/// assert_eq!(Duration::from_secs(2) / 4, Duration::from_millis(500));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Duration(u64);

impl Time {
    /// The origin of the simulation clock.
    pub const ZERO: Time = Time(0);
    /// The largest representable instant; used as an "infinitely far" sentinel.
    pub const MAX: Time = Time(u64::MAX);

    /// Builds an instant from whole nanoseconds since simulation start.
    pub const fn from_nanos(ns: u64) -> Self {
        Time(ns)
    }

    /// Builds an instant from whole milliseconds since simulation start.
    pub const fn from_millis(ms: u64) -> Self {
        Time(ms * 1_000_000)
    }

    /// Builds an instant from whole seconds since simulation start.
    pub const fn from_secs(s: u64) -> Self {
        Time(s * 1_000_000_000)
    }

    /// Nanoseconds since simulation start.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds since simulation start, as a float (lossy for huge values).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Span from `earlier` to `self`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `earlier` is later than `self`.
    pub fn since(self, earlier: Time) -> Duration {
        debug_assert!(earlier.0 <= self.0, "since() called with a later instant");
        Duration(self.0.saturating_sub(earlier.0))
    }

    /// The later of two instants.
    pub fn max(self, other: Time) -> Time {
        Time(self.0.max(other.0))
    }

    /// The earlier of two instants.
    pub fn min(self, other: Time) -> Time {
        Time(self.0.min(other.0))
    }
}

impl Duration {
    /// The empty span.
    pub const ZERO: Duration = Duration(0);

    /// Builds a span from whole nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        Duration(ns)
    }

    /// Builds a span from whole microseconds.
    pub const fn from_micros(us: u64) -> Self {
        Duration(us * 1_000)
    }

    /// Builds a span from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        Duration(ms * 1_000_000)
    }

    /// Builds a span from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        Duration(s * 1_000_000_000)
    }

    /// Builds a span from fractional seconds, rounding to nanoseconds.
    ///
    /// # Panics
    ///
    /// Panics if `s` is negative or not finite.
    pub fn from_secs_f64(s: f64) -> Self {
        assert!(
            s.is_finite() && s >= 0.0,
            "duration seconds must be finite and non-negative"
        );
        Duration(round_half_up(s * 1e9))
    }

    /// Whole nanoseconds in this span.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds in this span, as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// `true` when the span is empty.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// The larger of two spans.
    pub fn max(self, other: Duration) -> Duration {
        Duration(self.0.max(other.0))
    }

    /// The smaller of two spans.
    pub fn min(self, other: Duration) -> Duration {
        Duration(self.0.min(other.0))
    }

    /// Multiplies the span by a float factor, rounding to nanoseconds.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative or not finite.
    pub fn mul_f64(self, factor: f64) -> Duration {
        assert!(
            factor.is_finite() && factor >= 0.0,
            "duration factor must be finite and non-negative"
        );
        Duration(round_half_up(self.0 as f64 * factor))
    }
}

/// `x.round() as u64` for a finite, non-negative `x`, without `f64::round`,
/// a libm call on baseline x86-64: below 2^53 the truncation and the
/// subtraction are exact (cast through `i64`, one instruction each where
/// an unsigned cast branches), so this is the same function; at and above
/// it every double is an integer, and the cast saturates past `u64::MAX`.
fn round_half_up(x: f64) -> u64 {
    if x < 9_007_199_254_740_992.0 {
        let whole = x as i64;
        (whole + i64::from(x - whole as f64 >= 0.5)) as u64
    } else {
        x as u64
    }
}

impl Add<Duration> for Time {
    type Output = Time;
    fn add(self, rhs: Duration) -> Time {
        Time(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<Duration> for Time {
    fn add_assign(&mut self, rhs: Duration) {
        *self = *self + rhs;
    }
}

impl Sub<Duration> for Time {
    type Output = Time;
    fn sub(self, rhs: Duration) -> Time {
        Time(self.0.saturating_sub(rhs.0))
    }
}

impl Sub<Time> for Time {
    type Output = Duration;
    fn sub(self, rhs: Time) -> Duration {
        self.since(rhs)
    }
}

impl Add for Duration {
    type Output = Duration;
    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for Duration {
    fn add_assign(&mut self, rhs: Duration) {
        *self = *self + rhs;
    }
}

impl Sub for Duration {
    type Output = Duration;
    fn sub(self, rhs: Duration) -> Duration {
        Duration(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for Duration {
    fn sub_assign(&mut self, rhs: Duration) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for Duration {
    type Output = Duration;
    fn mul(self, rhs: u64) -> Duration {
        Duration(self.0.saturating_mul(rhs))
    }
}

impl Div<u64> for Duration {
    type Output = Duration;
    fn div(self, rhs: u64) -> Duration {
        Duration(self.0 / rhs)
    }
}

impl Sum for Duration {
    fn sum<I: Iterator<Item = Duration>>(iter: I) -> Duration {
        iter.fold(Duration::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 < 1_000 {
            write!(f, "{}ns", self.0)
        } else if self.0 < 1_000_000 {
            write!(f, "{:.1}us", self.0 as f64 / 1e3)
        } else if self.0 < 1_000_000_000 {
            write!(f, "{:.2}ms", self.0 as f64 / 1e6)
        } else {
            write!(f, "{:.3}s", self.as_secs_f64())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_arithmetic_round_trips() {
        let t = Time::from_secs(3) + Duration::from_millis(500);
        assert_eq!(t.as_nanos(), 3_500_000_000);
        assert_eq!(t.since(Time::from_secs(3)), Duration::from_millis(500));
        assert_eq!(t - Time::from_secs(1), Duration::from_millis(2_500));
    }

    #[test]
    fn duration_conversions() {
        assert_eq!(Duration::from_micros(1_500).as_nanos(), 1_500_000);
        assert_eq!(Duration::from_secs_f64(0.25), Duration::from_millis(250));
        assert_eq!(Duration::from_secs(5), Duration::from_millis(5_000));
        assert!((Duration::from_millis(1).as_secs_f64() - 0.001).abs() < 1e-12);
    }

    #[test]
    fn duration_scaling() {
        assert_eq!(Duration::from_secs(1) * 3, Duration::from_secs(3));
        assert_eq!(Duration::from_secs(3) / 3, Duration::from_secs(1));
        assert_eq!(Duration::from_secs(2).mul_f64(0.5), Duration::from_secs(1));
    }

    /// `mul_f64` and `from_secs_f64` round without calling `f64::round`;
    /// they must still be that function, ties and the two sides of 2^53
    /// included. `from_secs_f64` is handed `x` seconds' worth of
    /// nanoseconds; where that product is not `x` itself, it is still
    /// held to `f64::round` of the product.
    fn rounds_like_libm(x: f64) {
        let got = Duration::from_nanos(1).mul_f64(x);
        assert_eq!(got.as_nanos(), x.round() as u64, "x = {x:e}");
        let secs = x / 1e9;
        let got = Duration::from_secs_f64(secs);
        assert_eq!(got.as_nanos(), (secs * 1e9).round() as u64, "x = {x:e}");
    }

    #[test]
    fn mul_f64_and_from_secs_f64_round_half_up_at_the_edges() {
        const TWO_53: f64 = 9_007_199_254_740_992.0;
        let edges = [
            0.0,
            0.49999999999999994, // the largest double below one half
            0.5,
            1.5,
            2.5,
            4_503_599_627_370_495.5, // the largest tie: 2^52 - 1/2
            TWO_53 - 1.0,
            TWO_53,
            TWO_53 + 2.0,
            1e19,
            1e30, // saturates
        ];
        for x in edges {
            rounds_like_libm(x);
            // Each edge survives the trip through seconds, so
            // `from_secs_f64` meets the tie or the edge itself.
            assert_eq!((x / 1e9) * 1e9, x, "x = {x:e}");
        }
        assert_eq!(
            Duration::from_nanos(3).mul_f64(0.5),
            Duration::from_nanos(2)
        );
        assert_eq!(Duration::from_secs_f64(2.5e-9), Duration::from_nanos(3));
        assert_eq!(
            Duration::from_secs_f64(0.49999999999999994 / 1e9),
            Duration::ZERO
        );
        assert_eq!(Duration::from_secs(1).mul_f64(1e30).as_nanos(), u64::MAX);
        // Nanosecond counts past `u64::MAX` saturate.
        assert_eq!(Duration::from_secs_f64(1e11).as_nanos(), u64::MAX);
        assert_eq!(Duration::from_secs_f64(f64::MAX).as_nanos(), u64::MAX);
    }

    proptest::proptest! {
        #[test]
        fn mul_f64_agrees_with_round(
            whole in 0u64..(1 << 55),
            frac in 0usize..5,
            nanos in 0u64..20_000_000_000,
            factor in 0.0f64..64.0,
        ) {
            // `whole + frac` walks the ties and near-ties below 2^53 and
            // the integers-only doubles above it.
            let frac = [0.0, 0.25, 0.49999999999999994, 0.5, 0.75][frac];
            rounds_like_libm(whole as f64 + frac);
            // The shapes the latency models and the generators call them
            // in.
            let got = Duration::from_nanos(nanos).mul_f64(factor);
            proptest::prop_assert_eq!(got.as_nanos(), (nanos as f64 * factor).round() as u64);
            let secs = nanos as f64 * factor / 1e9;
            let got = Duration::from_secs_f64(secs);
            proptest::prop_assert_eq!(got.as_nanos(), (secs * 1e9).round() as u64);
        }
    }

    #[test]
    fn saturating_behaviour() {
        assert_eq!(Time::ZERO - Duration::from_secs(1), Time::ZERO);
        assert_eq!(Duration::ZERO - Duration::from_secs(1), Duration::ZERO);
        assert_eq!(Time::MAX + Duration::from_secs(1), Time::MAX);
    }

    #[test]
    fn sum_of_durations() {
        let total: Duration = [1u64, 2, 3].iter().map(|&s| Duration::from_secs(s)).sum();
        assert_eq!(total, Duration::from_secs(6));
    }

    #[test]
    fn display_picks_sensible_units() {
        assert_eq!(Duration::from_nanos(12).to_string(), "12ns");
        assert_eq!(Duration::from_micros(12).to_string(), "12.0us");
        assert_eq!(Duration::from_millis(12).to_string(), "12.00ms");
        assert_eq!(Duration::from_secs(12).to_string(), "12.000s");
        assert_eq!(Time::from_secs(1).to_string(), "1.000000s");
    }

    #[test]
    fn min_max_helpers() {
        assert_eq!(
            Time::from_secs(1).max(Time::from_secs(2)),
            Time::from_secs(2)
        );
        assert_eq!(
            Time::from_secs(1).min(Time::from_secs(2)),
            Time::from_secs(1)
        );
        assert_eq!(
            Duration::from_secs(1).max(Duration::from_secs(2)),
            Duration::from_secs(2)
        );
        assert_eq!(
            Duration::from_secs(1).min(Duration::from_secs(2)),
            Duration::from_secs(1)
        );
    }
}
