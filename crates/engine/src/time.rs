//! Simulation time and frequency types.
//!
//! The global clock is a `u64` count of **picoseconds**. Picoseconds are fine
//! enough to represent every clock domain in the modelled system exactly
//! enough (DDR4-2400 tCK = 833 ps, a 3 GHz host cycle = 333 ps) while leaving
//! ~200 days of simulated time before overflow — many orders of magnitude
//! beyond any experiment in this repository.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A point in (or span of) simulated time, in picoseconds.
///
/// `Ps` is used both as an absolute timestamp and as a duration; the
/// arithmetic provided is the subset that is meaningful for either reading.
///
/// # Examples
///
/// ```
/// use dl_engine::Ps;
/// let t = Ps::from_ns(2) + Ps::from_ps(500);
/// assert_eq!(t.as_ps(), 2_500);
/// assert_eq!(t.as_ns_f64(), 2.5);
/// ```
///
/// Simulated time is exact: no float converts into a `Ps`. Each rejected
/// line below sits next to its accepted integer twin.
///
/// ```compile_fail
/// # use dl_engine::Ps;
/// let _ = Ps::from_ns(1.5);
/// ```
/// ```
/// # use dl_engine::Ps;
/// let _ = Ps::from_ns(1);
/// ```
/// ```compile_fail
/// # use dl_engine::Ps;
/// let _: Ps = 1.5f64.into();
/// ```
/// ```
/// # use dl_engine::Ps;
/// let _: Ps = Ps::from_ps(1_500).into();
/// ```
#[derive(
    Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
#[serde(transparent)]
pub struct Ps(u64);

impl Ps {
    /// The zero timestamp (simulation start).
    pub const ZERO: Ps = Ps(0);
    /// The largest representable timestamp; used as "never".
    pub const MAX: Ps = Ps(u64::MAX);

    /// Creates a time value from raw picoseconds.
    #[inline]
    pub const fn from_ps(ps: u64) -> Self {
        Ps(ps)
    }

    /// Creates a time value from nanoseconds.
    #[inline]
    pub const fn from_ns(ns: u64) -> Self {
        Ps(ns * 1_000)
    }

    /// Creates a time value from microseconds.
    #[inline]
    pub const fn from_us(us: u64) -> Self {
        Ps(us * 1_000_000)
    }

    /// Creates a time value from milliseconds.
    #[inline]
    pub const fn from_ms(ms: u64) -> Self {
        Ps(ms * 1_000_000_000)
    }

    /// Raw picosecond count.
    #[inline]
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// This time expressed in (fractional) nanoseconds.
    #[inline]
    pub fn as_ns_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// This time expressed in (fractional) microseconds.
    #[inline]
    pub fn as_us_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// This time expressed in (fractional) milliseconds.
    #[inline]
    pub fn as_ms_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// This time expressed in (fractional) seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e12
    }

    /// Saturating subtraction: `self - rhs`, clamped at zero.
    #[inline]
    pub fn saturating_sub(self, rhs: Ps) -> Ps {
        Ps(self.0.saturating_sub(rhs.0))
    }

    /// The larger of two times.
    #[inline]
    pub fn max(self, rhs: Ps) -> Ps {
        Ps(self.0.max(rhs.0))
    }

    /// The smaller of two times.
    #[inline]
    pub fn min(self, rhs: Ps) -> Ps {
        Ps(self.0.min(rhs.0))
    }
}

impl fmt::Display for Ps {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}ms", self.as_ms_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}us", self.as_us_f64())
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}ns", self.as_ns_f64())
        } else {
            write!(f, "{}ps", self.0)
        }
    }
}

impl Add for Ps {
    type Output = Ps;
    #[inline]
    fn add(self, rhs: Ps) -> Ps {
        Ps(self.0 + rhs.0)
    }
}

impl AddAssign for Ps {
    #[inline]
    fn add_assign(&mut self, rhs: Ps) {
        self.0 += rhs.0;
    }
}

impl Sub for Ps {
    type Output = Ps;
    /// # Panics
    /// Panics in debug builds if `rhs > self`; use [`Ps::saturating_sub`]
    /// when the ordering is not guaranteed.
    #[inline]
    fn sub(self, rhs: Ps) -> Ps {
        Ps(self.0 - rhs.0)
    }
}

impl SubAssign for Ps {
    #[inline]
    fn sub_assign(&mut self, rhs: Ps) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for Ps {
    type Output = Ps;
    #[inline]
    fn mul(self, rhs: u64) -> Ps {
        Ps(self.0 * rhs)
    }
}

impl Div<u64> for Ps {
    type Output = Ps;
    #[inline]
    fn div(self, rhs: u64) -> Ps {
        Ps(self.0 / rhs)
    }
}

impl Sum for Ps {
    fn sum<I: Iterator<Item = Ps>>(iter: I) -> Ps {
        iter.fold(Ps::ZERO, Add::add)
    }
}

/// A clock frequency in hertz.
///
/// # Examples
///
/// ```
/// use dl_engine::{Freq, Ps};
/// let core = Freq::from_ghz(2.0);
/// assert_eq!(core.period(), Ps::from_ps(500));
/// assert_eq!(core.cycles(5), Ps::from_ps(2_500));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[serde(transparent)]
pub struct Freq(u64);

impl Freq {
    /// Creates a frequency from hertz.
    ///
    /// # Panics
    /// Panics if `hz` is zero.
    pub fn from_hz(hz: u64) -> Self {
        assert!(hz > 0, "frequency must be non-zero");
        Freq(hz)
    }

    /// Creates a frequency from (fractional) gigahertz.
    ///
    /// # Panics
    /// Panics if `ghz` is not strictly positive.
    pub fn from_ghz(ghz: f64) -> Self {
        assert!(ghz > 0.0, "frequency must be positive");
        Self::from_hz((ghz * 1e9).round() as u64)
    }

    /// The clock period, rounded to the nearest picosecond.
    #[inline]
    pub fn period(self) -> Ps {
        Ps(((1e12 / self.0 as f64).round() as u64).max(1))
    }

    /// The duration of `n` cycles at this frequency.
    #[inline]
    pub fn cycles(self, n: u64) -> Ps {
        Ps(self.period().as_ps() * n)
    }
}

impl fmt::Display for Freq {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.2}GHz", self.0 as f64 / 1e9)
        } else {
            write!(f, "{:.0}MHz", self.0 as f64 / 1e6)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ps_constructors_compose() {
        assert_eq!(Ps::from_ns(1), Ps::from_ps(1_000));
        assert_eq!(Ps::from_us(1), Ps::from_ns(1_000));
        assert_eq!(Ps::from_ms(1), Ps::from_us(1_000));
    }

    #[test]
    fn ps_arithmetic() {
        let a = Ps::from_ns(5);
        let b = Ps::from_ns(3);
        assert_eq!(a + b, Ps::from_ns(8));
        assert_eq!(a - b, Ps::from_ns(2));
        assert_eq!(b.saturating_sub(a), Ps::ZERO);
        assert_eq!(a * 2, Ps::from_ns(10));
        assert_eq!(a / 5, Ps::from_ns(1));
        assert_eq!(a.max(b), a);
        assert_eq!(a.min(b), b);
    }

    #[test]
    fn ps_display_picks_unit() {
        assert_eq!(Ps::from_ps(12).to_string(), "12ps");
        assert_eq!(Ps::from_ns(12).to_string(), "12.000ns");
        assert_eq!(Ps::from_us(12).to_string(), "12.000us");
        assert_eq!(Ps::from_ms(12).to_string(), "12.000ms");
    }

    #[test]
    fn freq_period_rounds() {
        assert_eq!(Freq::from_ghz(1.0).period(), Ps::from_ps(1_000));
        assert_eq!(Freq::from_ghz(3.0).period(), Ps::from_ps(333));
        // DDR4-2400 I/O clock is 1200 MHz.
        assert_eq!(Freq::from_hz(1_200_000_000).period(), Ps::from_ps(833));
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_freq_panics() {
        let _ = Freq::from_hz(0);
    }

    #[test]
    fn sum_of_ps() {
        let total: Ps = [Ps::from_ns(1), Ps::from_ns(2), Ps::from_ns(3)]
            .into_iter()
            .sum();
        assert_eq!(total, Ps::from_ns(6));
    }
}
