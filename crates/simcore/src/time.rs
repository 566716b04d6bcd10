//! Simulated time.
//!
//! The paper reasons about time budgets at millisecond granularity (hint
//! tables are generated "with finer granularity in milliseconds", §IV-A), so
//! the simulator clock is a monotonically increasing `f64` number of
//! milliseconds since simulation start. `f64` keeps arithmetic simple while a
//! dedicated newtype prevents confusing instants with durations.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A point in simulated time, in milliseconds since simulation start.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct SimTime(f64);

/// A span of simulated time, in milliseconds.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct SimDuration(f64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0.0);

    /// Create an instant from milliseconds since simulation start.
    pub fn from_millis(ms: f64) -> Self {
        debug_assert!(ms.is_finite(), "SimTime must be finite");
        SimTime(ms)
    }

    /// Create an instant from seconds since simulation start.
    pub fn from_secs(secs: f64) -> Self {
        SimTime::from_millis(secs * 1000.0)
    }

    /// Milliseconds since simulation start.
    pub fn as_millis(self) -> f64 {
        self.0
    }

    /// Raw bits of the millisecond value (the event queue's time key).
    pub(crate) fn to_bits(self) -> u64 {
        self.0.to_bits()
    }

    /// The instant whose millisecond value has exactly these bits, finite or
    /// not: the inverse of [`to_bits`](Self::to_bits).
    pub(crate) fn from_bits(bits: u64) -> Self {
        SimTime(f64::from_bits(bits))
    }

    /// Duration elapsed since `earlier`. Saturates at zero if `earlier` is in
    /// the future (never panics, mirroring `Instant::saturating_duration_since`).
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration((self.0 - earlier.0).max(0.0))
    }
}

impl SimDuration {
    /// Zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0.0);

    /// Create a duration from milliseconds.
    pub fn from_millis(ms: f64) -> Self {
        debug_assert!(ms.is_finite(), "SimDuration must be finite");
        SimDuration(ms)
    }

    /// Create a duration from seconds.
    pub fn from_secs(secs: f64) -> Self {
        SimDuration::from_millis(secs * 1000.0)
    }

    /// Duration in milliseconds.
    pub fn as_millis(self) -> f64 {
        self.0
    }

    /// Duration in seconds.
    pub fn as_secs(self) -> f64 {
        self.0 / 1000.0
    }

    /// True if the duration is zero or negative-epsilon.
    pub fn is_zero(self) -> bool {
        self.0 <= f64::EPSILON
    }

    /// Clamp negative durations to zero. Budget arithmetic (SLO minus elapsed
    /// time) can go negative when a request already blew its deadline; the
    /// adapter treats that as "no budget left".
    pub fn saturate(self) -> SimDuration {
        SimDuration(self.0.max(0.0))
    }

    /// The smaller of two durations.
    pub fn min(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.min(other.0))
    }

    /// Total ordering helper for sorting collections of durations.
    pub fn total_cmp(&self, other: &SimDuration) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0 - rhs.0)
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

impl Mul<f64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: f64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Div<f64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: f64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl Div<SimDuration> for SimDuration {
    type Output = f64;
    fn div(self, rhs: SimDuration) -> f64 {
        self.0 / rhs.0
    }
}

impl std::iter::Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> Self {
        SimDuration(iter.map(|d| d.0).sum())
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ms", self.0)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1000.0 {
            write!(f, "{:.3}s", self.0 / 1000.0)
        } else {
            write!(f, "{:.3}ms", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_arithmetic_roundtrips() {
        let t0 = SimTime::from_millis(100.0);
        let d = SimDuration::from_millis(250.0);
        let t1 = t0 + d;
        assert_eq!(t1.as_millis(), 350.0);
        assert_eq!((t1 - t0).as_millis(), 250.0);
    }

    #[test]
    fn duration_conversions() {
        let d = SimDuration::from_secs(1.5);
        assert_eq!(d.as_millis(), 1500.0);
        assert!((d.as_secs() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn saturating_since_clamps_to_zero() {
        let early = SimTime::from_millis(100.0);
        let late = SimTime::from_millis(400.0);
        assert_eq!(early.saturating_since(late), SimDuration::ZERO);
        assert_eq!(late.saturating_since(early).as_millis(), 300.0);
    }

    #[test]
    fn negative_budget_saturates() {
        let d = SimDuration::from_millis(10.0) - SimDuration::from_millis(30.0);
        assert!(d.as_millis() < 0.0);
        assert_eq!(d.saturate(), SimDuration::ZERO);
    }

    #[test]
    fn duration_sum_and_scale() {
        let ds = [1.0, 2.0, 3.0].map(SimDuration::from_millis);
        let total: SimDuration = ds.into_iter().sum();
        assert_eq!(total.as_millis(), 6.0);
        assert_eq!((total * 2.0).as_millis(), 12.0);
        assert_eq!((total / 3.0).as_millis(), 2.0);
        assert!((total / SimDuration::from_millis(2.0) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn display_uses_seconds_above_one_second() {
        assert_eq!(format!("{}", SimDuration::from_millis(1500.0)), "1.500s");
        assert_eq!(format!("{}", SimDuration::from_millis(12.5)), "12.500ms");
    }
}
