//! Simulated time.
//!
//! ByteRobust's evaluation is dominated by durations measured in seconds to
//! hours (detection latency, scheduling time, checkpoint stalls, ETTR over a
//! three-month job). Millisecond resolution in a `u64` covers ~584 million
//! years of simulated time, which is more than enough, while keeping all time
//! arithmetic exact and `Copy`.

use std::fmt;
use std::ops::{Add, AddAssign, Sub, SubAssign};

/// A span of simulated time with millisecond resolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a duration from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms)
    }

    /// Creates a duration from whole seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs * 1_000)
    }

    /// Creates a duration from fractional seconds (rounded to milliseconds).
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(
            secs >= 0.0 && secs.is_finite(),
            "duration must be finite and non-negative"
        );
        SimDuration((secs * 1_000.0).round() as u64)
    }

    /// Creates a duration from whole minutes.
    pub const fn from_mins(mins: u64) -> Self {
        SimDuration(mins * 60_000)
    }

    /// Creates a duration from whole hours.
    pub const fn from_hours(hours: u64) -> Self {
        SimDuration(hours * 3_600_000)
    }

    /// Creates a duration from whole days.
    pub const fn from_days(days: u64) -> Self {
        SimDuration(days * 86_400_000)
    }

    /// Total milliseconds.
    pub const fn as_millis(self) -> u64 {
        self.0
    }

    /// Total seconds, as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Total minutes, as a float.
    pub fn as_mins_f64(self) -> f64 {
        self.0 as f64 / 60_000.0
    }

    /// Total hours, as a float.
    pub fn as_hours_f64(self) -> f64 {
        self.0 as f64 / 3_600_000.0
    }

    /// Whether this duration is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction.
    pub const fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// Multiplies the duration by an integer factor.
    pub const fn mul(self, factor: u64) -> SimDuration {
        SimDuration(self.0 * factor)
    }

    /// Scales the duration by a float factor (rounded to milliseconds).
    pub fn mul_f64(self, factor: f64) -> SimDuration {
        assert!(
            factor >= 0.0 && factor.is_finite(),
            "factor must be finite and non-negative"
        );
        SimDuration((self.0 as f64 * factor).round() as u64)
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
        SimDuration(self.0.checked_sub(rhs.0).expect("duration underflow"))
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl std::iter::Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> Self {
        iter.fold(SimDuration::ZERO, |acc, d| acc + d)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ms = self.0;
        if ms < 1_000 {
            write!(f, "{ms}ms")
        } else if ms < 60_000 {
            write!(f, "{:.2}s", self.as_secs_f64())
        } else if ms < 3_600_000 {
            write!(f, "{:.2}min", self.as_mins_f64())
        } else {
            write!(f, "{:.2}h", self.as_hours_f64())
        }
    }
}

/// An absolute instant on the simulated timeline (milliseconds since job
/// submission time zero).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The origin of simulated time.
    pub const ZERO: SimTime = SimTime(0);

    /// The far end of the simulated timeline. Used as a sentinel key for
    /// events that can never fire (e.g. a job held in an admission queue);
    /// never a real event time.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant from milliseconds since the origin.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms)
    }

    /// Creates an instant from seconds since the origin.
    pub const fn from_secs(secs: u64) -> Self {
        SimTime(secs * 1_000)
    }

    /// Creates an instant from hours since the origin.
    pub const fn from_hours(hours: u64) -> Self {
        SimTime(hours * 3_600_000)
    }

    /// Milliseconds since the origin.
    pub const fn as_millis(self) -> u64 {
        self.0
    }

    /// Seconds since the origin, as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Elapsed duration since `earlier`.
    ///
    /// # Panics
    /// Panics if `earlier` is later than `self`.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(earlier.0)
                .expect("SimTime::since: earlier is in the future"),
        )
    }

    /// Saturating elapsed duration since `earlier` (zero if `earlier` is later).
    pub const fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.as_millis())
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.as_millis();
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(
            self.0
                .checked_sub(rhs.as_millis())
                .expect("SimTime underflow"),
        )
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        self.since(rhs)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{}", SimDuration(self.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duration_constructors_agree() {
        assert_eq!(SimDuration::from_secs(1), SimDuration::from_millis(1_000));
        assert_eq!(SimDuration::from_mins(2), SimDuration::from_secs(120));
        assert_eq!(SimDuration::from_hours(1), SimDuration::from_mins(60));
        assert_eq!(SimDuration::from_days(1), SimDuration::from_hours(24));
        assert_eq!(
            SimDuration::from_secs_f64(1.5),
            SimDuration::from_millis(1_500)
        );
    }

    #[test]
    fn duration_arithmetic() {
        let a = SimDuration::from_secs(10);
        let b = SimDuration::from_secs(4);
        assert_eq!(a + b, SimDuration::from_secs(14));
        assert_eq!(a - b, SimDuration::from_secs(6));
        assert_eq!(a.mul(3), SimDuration::from_secs(30));
        assert_eq!(a.mul_f64(0.5), SimDuration::from_secs(5));
        assert_eq!(b.saturating_sub(a), SimDuration::ZERO);
        assert_eq!(a.max(b), a);
        assert_eq!(a.min(b), b);
    }

    #[test]
    #[should_panic(expected = "duration underflow")]
    fn duration_sub_underflow_panics() {
        let _ = SimDuration::from_secs(1) - SimDuration::from_secs(2);
    }

    #[test]
    fn time_arithmetic_and_since() {
        let t0 = SimTime::from_secs(100);
        let t1 = t0 + SimDuration::from_secs(50);
        assert_eq!(t1.since(t0), SimDuration::from_secs(50));
        assert_eq!(t1 - t0, SimDuration::from_secs(50));
        assert_eq!(t0.saturating_since(t1), SimDuration::ZERO);
        assert_eq!(t1 - SimDuration::from_secs(50), t0);
    }

    #[test]
    fn conversions_to_float() {
        assert!((SimDuration::from_hours(2).as_hours_f64() - 2.0).abs() < 1e-9);
        assert!((SimDuration::from_mins(3).as_mins_f64() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn display_is_human_readable() {
        assert_eq!(format!("{}", SimDuration::from_millis(5)), "5ms");
        assert_eq!(format!("{}", SimDuration::from_secs(5)), "5.00s");
        assert_eq!(format!("{}", SimDuration::from_mins(5)), "5.00min");
        assert_eq!(format!("{}", SimDuration::from_hours(5)), "5.00h");
    }

    #[test]
    fn duration_sum() {
        let total: SimDuration = (1..=4).map(SimDuration::from_secs).sum();
        assert_eq!(total, SimDuration::from_secs(10));
    }

    #[test]
    fn time_ordering() {
        assert!(SimTime::from_secs(1) < SimTime::from_secs(2));
        assert!(SimTime::ZERO < SimTime::from_millis(1));
    }
}
