//! Simulation time for the G10 reproduction workspace.
//!
//! All components of the reproduction (workload traces, the SSD simulator,
//! the unified-memory substrate, the scheduler and the replay simulator)
//! share one notion of time: integer nanoseconds since the start of the
//! simulated training iteration.  Using an integer newtype keeps arithmetic
//! exact and ordering total, which matters for the event-driven replay
//! engine and for property tests.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A point in time or a duration, in nanoseconds.
///
/// `Nanos` is deliberately simple: it is used both as an *instant* (time since
/// the start of the iteration) and as a *duration*.  The replay engine and the
/// scheduler never need the distinction, and a single type keeps the API small.
///
/// # Example
///
/// ```
/// use g10_time::Nanos;
///
/// let a = Nanos::from_micros(20);
/// let b = Nanos::from_micros(25);
/// assert_eq!((a + b).as_micros_f64(), 45.0);
/// assert!(b > a);
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Nanos(u64);

impl Nanos {
    /// The zero instant / empty duration.
    pub const ZERO: Nanos = Nanos(0);
    /// The maximum representable instant, used as an "infinitely far" sentinel.
    pub const MAX: Nanos = Nanos(u64::MAX);

    /// Creates a time value from raw nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        Nanos(ns)
    }

    /// Creates a time value from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        Nanos(us * 1_000)
    }

    /// Creates a time value from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        Nanos(ms * 1_000_000)
    }

    /// Creates a time value from seconds.
    pub const fn from_secs(s: u64) -> Self {
        Nanos(s * 1_000_000_000)
    }

    /// Creates a time value from fractional seconds, rounding to the nearest
    /// nanosecond.  Negative inputs saturate to zero.
    pub fn from_secs_f64(s: f64) -> Self {
        if s <= 0.0 {
            Nanos(0)
        } else {
            Nanos((s * 1e9).round() as u64)
        }
    }

    /// Returns the raw number of nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Returns the value in microseconds as a float.
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// Returns the value in milliseconds as a float.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Returns the value in seconds as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating subtraction; returns zero instead of underflowing.
    pub fn saturating_sub(self, rhs: Nanos) -> Nanos {
        Nanos(self.0.saturating_sub(rhs.0))
    }

    /// Saturating addition; clamps at [`Nanos::MAX`].
    pub fn saturating_add(self, rhs: Nanos) -> Nanos {
        Nanos(self.0.saturating_add(rhs.0))
    }

    /// Returns the larger of the two values.
    pub fn max(self, other: Nanos) -> Nanos {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// Returns the smaller of the two values.
    pub fn min(self, other: Nanos) -> Nanos {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// Returns `true` if this value is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Multiplies the duration by a float scale factor (e.g. noise injection),
    /// rounding to the nearest nanosecond and saturating at zero.
    pub fn scale(self, factor: f64) -> Nanos {
        let scaled = self.0 as f64 * factor;
        if scaled <= 0.0 {
            Nanos(0)
        } else if scaled >= u64::MAX as f64 {
            Nanos::MAX
        } else {
            Nanos(scaled.round() as u64)
        }
    }

    /// Computes the time it takes to move `bytes` at `bytes_per_sec`.
    ///
    /// Returns zero when the byte count is zero and [`Nanos::MAX`] when the
    /// bandwidth is zero but the byte count is not (an infinitely slow link).
    pub fn transfer_time(bytes: u64, bytes_per_sec: f64) -> Nanos {
        if bytes == 0 {
            return Nanos::ZERO;
        }
        if bytes_per_sec <= 0.0 {
            return Nanos::MAX;
        }
        Nanos::from_secs_f64(bytes as f64 / bytes_per_sec)
    }
}

impl fmt::Display for Nanos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if ns >= 1_000_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else if ns >= 1_000 {
            write!(f, "{:.3}us", self.as_micros_f64())
        } else {
            write!(f, "{ns}ns")
        }
    }
}

impl Add for Nanos {
    type Output = Nanos;
    fn add(self, rhs: Nanos) -> Nanos {
        Nanos(self.0 + rhs.0)
    }
}

impl AddAssign for Nanos {
    fn add_assign(&mut self, rhs: Nanos) {
        self.0 += rhs.0;
    }
}

impl Sub for Nanos {
    type Output = Nanos;
    fn sub(self, rhs: Nanos) -> Nanos {
        Nanos(self.0 - rhs.0)
    }
}

impl SubAssign for Nanos {
    fn sub_assign(&mut self, rhs: Nanos) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for Nanos {
    type Output = Nanos;
    fn mul(self, rhs: u64) -> Nanos {
        Nanos(self.0 * rhs)
    }
}

impl Div<u64> for Nanos {
    type Output = Nanos;
    fn div(self, rhs: u64) -> Nanos {
        Nanos(self.0 / rhs)
    }
}

impl Sum for Nanos {
    fn sum<I: Iterator<Item = Nanos>>(iter: I) -> Nanos {
        iter.fold(Nanos::ZERO, |acc, x| acc + x)
    }
}

impl From<u64> for Nanos {
    fn from(ns: u64) -> Self {
        Nanos(ns)
    }
}

impl From<Nanos> for u64 {
    fn from(n: Nanos) -> Self {
        n.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(Nanos::from_micros(1), Nanos::from_nanos(1_000));
        assert_eq!(Nanos::from_millis(1), Nanos::from_micros(1_000));
        assert_eq!(Nanos::from_secs(1), Nanos::from_millis(1_000));
        assert_eq!(Nanos::from_secs_f64(0.5), Nanos::from_millis(500));
    }

    #[test]
    fn negative_float_saturates_to_zero() {
        assert_eq!(Nanos::from_secs_f64(-1.0), Nanos::ZERO);
    }

    #[test]
    fn arithmetic_behaves() {
        let a = Nanos::from_micros(10);
        let b = Nanos::from_micros(4);
        assert_eq!(a + b, Nanos::from_micros(14));
        assert_eq!(a - b, Nanos::from_micros(6));
        assert_eq!(a * 3, Nanos::from_micros(30));
        assert_eq!(a / 2, Nanos::from_micros(5));
        assert_eq!(b.saturating_sub(a), Nanos::ZERO);
        assert_eq!(a.max(b), a);
        assert_eq!(a.min(b), b);
    }

    #[test]
    fn scale_rounds_and_saturates() {
        let a = Nanos::from_nanos(1_000);
        assert_eq!(a.scale(1.5), Nanos::from_nanos(1_500));
        assert_eq!(a.scale(0.0), Nanos::ZERO);
        assert_eq!(a.scale(-2.0), Nanos::ZERO);
        assert_eq!(Nanos::MAX.scale(2.0), Nanos::MAX);
    }

    #[test]
    fn transfer_time_matches_bandwidth() {
        // 1 GiB at 1 GiB/s takes one second.
        let gib = 1u64 << 30;
        let t = Nanos::transfer_time(gib, gib as f64);
        assert_eq!(t, Nanos::from_secs(1));
        assert_eq!(Nanos::transfer_time(0, 1.0), Nanos::ZERO);
        assert_eq!(Nanos::transfer_time(10, 0.0), Nanos::MAX);
    }

    #[test]
    fn display_picks_a_sensible_unit() {
        assert_eq!(format!("{}", Nanos::from_nanos(12)), "12ns");
        assert_eq!(format!("{}", Nanos::from_micros(12)), "12.000us");
        assert_eq!(format!("{}", Nanos::from_millis(12)), "12.000ms");
        assert_eq!(format!("{}", Nanos::from_secs(12)), "12.000s");
    }

    #[test]
    fn sum_of_iterator() {
        let total: Nanos = (1..=4u64).map(Nanos::from_micros).sum();
        assert_eq!(total, Nanos::from_micros(10));
    }
}
