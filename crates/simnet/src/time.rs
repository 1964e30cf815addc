//! Simulated time: microsecond ticks and the simulation clock.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A duration or instant in simulated time, in **microseconds**.
///
/// `Ticks` is used both as an instant (microseconds since simulation
/// start) and as a duration; the arithmetic below covers both uses.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Ticks(pub u64);

impl Ticks {
    /// Zero time — the simulation epoch.
    pub const ZERO: Ticks = Ticks(0);
    /// The largest representable instant.
    pub const MAX: Ticks = Ticks(u64::MAX);

    /// Construct from whole microseconds.
    pub const fn from_micros(us: u64) -> Self {
        Ticks(us)
    }

    /// Construct from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        Ticks(ms * 1_000)
    }

    /// Construct from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        Ticks(s * 1_000_000)
    }

    /// Value in microseconds.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Value in (truncated) milliseconds.
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000
    }

    /// Value in fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Saturating subtraction: `self - rhs` or zero.
    pub fn saturating_sub(self, rhs: Ticks) -> Ticks {
        Ticks(self.0.saturating_sub(rhs.0))
    }

    /// Checked addition.
    pub fn checked_add(self, rhs: Ticks) -> Option<Ticks> {
        self.0.checked_add(rhs.0).map(Ticks)
    }
}

impl Add for Ticks {
    type Output = Ticks;
    fn add(self, rhs: Ticks) -> Ticks {
        Ticks(self.0 + rhs.0)
    }
}

impl AddAssign for Ticks {
    fn add_assign(&mut self, rhs: Ticks) {
        self.0 += rhs.0;
    }
}

impl Sub for Ticks {
    type Output = Ticks;
    fn sub(self, rhs: Ticks) -> Ticks {
        Ticks(self.0 - rhs.0)
    }
}

impl SubAssign for Ticks {
    fn sub_assign(&mut self, rhs: Ticks) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for Ticks {
    type Output = Ticks;
    fn mul(self, rhs: u64) -> Ticks {
        Ticks(self.0 * rhs)
    }
}

impl Div<u64> for Ticks {
    type Output = Ticks;
    fn div(self, rhs: u64) -> Ticks {
        Ticks(self.0 / rhs)
    }
}

impl Sum for Ticks {
    fn sum<I: Iterator<Item = Ticks>>(iter: I) -> Ticks {
        iter.fold(Ticks::ZERO, |a, b| a + b)
    }
}

impl fmt::Debug for Ticks {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}us", self.0)
    }
}

impl fmt::Display for Ticks {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}ms", self.0 as f64 / 1e3)
        } else {
            write!(f, "{}us", self.0)
        }
    }
}

/// The simulation clock. Time only moves forward via [`SimClock::advance_to`].
#[derive(Debug, Clone, Default)]
pub struct SimClock {
    now: Ticks,
}

impl SimClock {
    /// A clock at the epoch.
    pub fn new() -> Self {
        SimClock { now: Ticks::ZERO }
    }

    /// The current simulated instant.
    pub fn now(&self) -> Ticks {
        self.now
    }

    /// Advance to `t`.
    ///
    /// # Panics
    /// Panics if `t` is in the past — events must be processed in
    /// non-decreasing time order.
    pub fn advance_to(&mut self, t: Ticks) {
        assert!(
            t >= self.now,
            "clock moved backwards: {} -> {}",
            self.now,
            t
        );
        self.now = t;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        assert_eq!(Ticks::from_millis(3).as_micros(), 3_000);
        assert_eq!(Ticks::from_secs(2).as_millis(), 2_000);
        assert!((Ticks::from_micros(1_500_000).as_secs_f64() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn arithmetic() {
        let a = Ticks::from_millis(10);
        let b = Ticks::from_millis(4);
        assert_eq!(a + b, Ticks::from_millis(14));
        assert_eq!(a - b, Ticks::from_millis(6));
        assert_eq!(b.saturating_sub(a), Ticks::ZERO);
        assert_eq!(a * 3, Ticks::from_millis(30));
        assert_eq!(a / 2, Ticks::from_millis(5));
        let total: Ticks = [a, b, b].into_iter().sum();
        assert_eq!(total, Ticks::from_millis(18));
    }

    #[test]
    fn clock_advances() {
        let mut c = SimClock::new();
        assert_eq!(c.now(), Ticks::ZERO);
        c.advance_to(Ticks::from_micros(5));
        c.advance_to(Ticks::from_micros(5)); // same instant is fine
        assert_eq!(c.now().as_micros(), 5);
    }

    #[test]
    #[should_panic(expected = "clock moved backwards")]
    fn clock_rejects_past() {
        let mut c = SimClock::new();
        c.advance_to(Ticks::from_micros(5));
        c.advance_to(Ticks::from_micros(4));
    }

    #[test]
    fn display_scales() {
        assert_eq!(format!("{}", Ticks::from_micros(7)), "7us");
        assert_eq!(format!("{}", Ticks::from_micros(7_500)), "7.500ms");
        assert_eq!(format!("{}", Ticks::from_secs(3)), "3.000s");
    }
}
