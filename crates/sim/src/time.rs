//! Simulated time: picosecond-resolution instants, durations and clock
//! frequencies.
//!
//! All timing in the reproduction — ONFI timing parameters, flash array
//! latencies, CPU cycle charges, channel transfer rates — bottoms out in the
//! two types defined here. A `u64` count of picoseconds covers roughly 213
//! days of simulated time, far beyond any experiment in the paper.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A span of simulated time with picosecond resolution.
///
/// # Examples
///
/// ```
/// use babol_sim::SimDuration;
///
/// let t_r = SimDuration::from_micros(100); // Hynix page read time
/// assert_eq!(t_r.as_nanos(), 100_000);
/// assert_eq!(t_r * 2, SimDuration::from_micros(200));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a duration from a picosecond count.
    pub const fn from_picos(ps: u64) -> Self {
        SimDuration(ps)
    }

    /// Creates a duration from a nanosecond count.
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns * 1_000)
    }

    /// Creates a duration from a microsecond count.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000_000)
    }

    /// Creates a duration from a millisecond count.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000_000)
    }

    /// Creates a duration from a second count.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000_000_000)
    }

    /// Returns the duration as whole picoseconds.
    pub const fn as_picos(self) -> u64 {
        self.0
    }

    /// Returns the duration as whole nanoseconds (truncating).
    pub const fn as_nanos(self) -> u64 {
        self.0 / 1_000
    }

    /// Returns the duration as whole microseconds (truncating).
    pub const fn as_micros(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Returns the duration as fractional microseconds.
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Returns the duration as fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e12
    }

    /// Returns `true` if the duration is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction; clamps at zero instead of panicking.
    pub const fn saturating_sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
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
        SimDuration(
            self.0
                .checked_sub(rhs.0)
                .expect("SimDuration subtraction underflow"),
        )
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
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
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ps = self.0;
        if ps == 0 {
            write!(f, "0s")
        } else if ps % 1_000_000_000_000 == 0 {
            write!(f, "{}s", ps / 1_000_000_000_000)
        } else if ps % 1_000_000_000 == 0 {
            write!(f, "{}ms", ps / 1_000_000_000)
        } else if ps % 1_000_000 == 0 {
            write!(f, "{}us", ps / 1_000_000)
        } else if ps % 1_000 == 0 {
            write!(f, "{}ns", ps / 1_000)
        } else if ps >= 1_000_000 {
            write!(f, "{:.3}us", ps as f64 / 1e6)
        } else if ps >= 1_000 {
            write!(f, "{:.3}ns", ps as f64 / 1e3)
        } else {
            write!(f, "{ps}ps")
        }
    }
}

/// An instant on the simulated timeline, measured from the simulation epoch.
///
/// # Examples
///
/// ```
/// use babol_sim::{SimDuration, SimTime};
///
/// let start = SimTime::ZERO;
/// let later = start + SimDuration::from_nanos(25);
/// assert_eq!(later - start, SimDuration::from_nanos(25));
/// assert!(later > start);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The simulation epoch.
    pub const ZERO: SimTime = SimTime(0);

    /// A time later than any time an experiment can reach; useful as a
    /// sentinel "never" value.
    pub const FAR_FUTURE: SimTime = SimTime(u64::MAX);

    /// Creates an instant from picoseconds since the epoch.
    pub const fn from_picos(ps: u64) -> Self {
        SimTime(ps)
    }

    /// Returns picoseconds since the epoch.
    pub const fn as_picos(self) -> u64 {
        self.0
    }

    /// Returns the duration since the epoch.
    pub const fn since_epoch(self) -> SimDuration {
        SimDuration(self.0)
    }

    /// Duration elapsed since `earlier`, or zero if `earlier` is later.
    pub const fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Index of the fixed window containing this instant, with windows
    /// tiling sim time from the epoch: window `k` covers
    /// `[k*w, (k+1)*w)`. The telemetry subsystem keys frames on this, so
    /// every component that samples on the same window length lands on
    /// the same boundaries regardless of its local clock.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    ///
    /// # Examples
    ///
    /// ```
    /// use babol_sim::{SimDuration, SimTime};
    ///
    /// let w = SimDuration::from_micros(100);
    /// assert_eq!(SimTime::ZERO.window_index(w), 0);
    /// assert_eq!((SimTime::ZERO + SimDuration::from_micros(99)).window_index(w), 0);
    /// assert_eq!((SimTime::ZERO + SimDuration::from_micros(100)).window_index(w), 1);
    /// ```
    pub const fn window_index(self, window: SimDuration) -> u64 {
        assert!(window.0 != 0, "window must be positive");
        self.0 / window.0
    }

    /// Start of the fixed window containing this instant (see
    /// [`SimTime::window_index`]).
    pub const fn window_start(self, window: SimDuration) -> SimTime {
        SimTime(self.window_index(window) * window.0)
    }

    /// Returns the later of two instants.
    pub fn max(self, other: SimTime) -> SimTime {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }

    /// Returns the earlier of two instants.
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
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(
            self.0
                .checked_sub(rhs.0)
                .expect("SimTime subtraction underflow"),
        )
    }
}

impl Sub for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(rhs.0)
                .expect("SimTime difference underflow"),
        )
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Logic-analyzer style absolute timestamp in microseconds.
        write!(f, "{:.3}us", self.0 as f64 / 1e6)
    }
}

/// A clock frequency.
///
/// Used for CPU cores (e.g. the paper's 150 MHz MicroBlaze soft-core and
/// 1 GHz ARM Cortex-A9) and for channel transfer rates (100 and 200 MT/s
/// NV-DDR2). Converts cycle counts into [`SimDuration`]s.
///
/// # Examples
///
/// ```
/// use babol_sim::Freq;
///
/// let arm = Freq::from_mhz(1000);
/// assert_eq!(arm.cycles(30_000).as_micros(), 30); // a 30k-cycle poll loop
///
/// let softcore = Freq::from_mhz(150);
/// assert!(softcore.cycles(30_000) > arm.cycles(30_000));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Freq(u64);

impl Freq {
    /// Creates a frequency from hertz.
    ///
    /// # Panics
    ///
    /// If `hz` is zero or above `u32::MAX` (~4.29 GHz). The bound keeps
    /// [`Freq::cycles`] exact in u64 arithmetic.
    pub const fn from_hz(hz: u64) -> Self {
        assert!(hz > 0, "frequency must be nonzero");
        assert!(
            hz <= u32::MAX as u64,
            "frequency must be at most u32::MAX Hz"
        );
        Freq(hz)
    }

    /// Creates a frequency from megahertz.
    pub const fn from_mhz(mhz: u64) -> Self {
        Freq::from_hz(mhz * 1_000_000)
    }

    /// Creates a frequency from gigahertz.
    pub const fn from_ghz(ghz: u64) -> Self {
        Freq::from_hz(ghz * 1_000_000_000)
    }

    /// Creates a frequency from megatransfers per second.
    ///
    /// This is an alias of [`Freq::from_mhz`] that matches the vocabulary
    /// used for ONFI data interfaces (e.g. "NV-DDR2 at 200 MT/s").
    pub const fn from_mts(mts: u64) -> Self {
        Freq::from_mhz(mts)
    }

    /// Returns the frequency in hertz.
    pub const fn as_hz(self) -> u64 {
        self.0
    }

    /// Returns the frequency in megahertz (truncating).
    pub const fn as_mhz(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Duration of a single cycle, rounded to the nearest picosecond.
    pub const fn period(self) -> SimDuration {
        SimDuration((1_000_000_000_000 + self.0 / 2) / self.0)
    }

    /// Duration of `n` cycles, computed without accumulating per-cycle
    /// rounding error.
    ///
    /// # Panics
    ///
    /// If the duration exceeds the picosecond range of [`SimDuration`].
    pub const fn cycles(self, n: u64) -> SimDuration {
        // n * 1e12 / hz, rounded to the nearest picosecond. Whole seconds
        // are split off, and the remainder's scaling is split by
        // 1e12 = q*hz + r: rem*1e12/hz = rem*q + rem*r/hz, so only rem*r is
        // divided. With hz <= u32::MAX (see `from_hz`), rem*r + hz/2 < 2^64
        // and rem*q < 1e12, so every step is exact in u64.
        const PS: u64 = 1_000_000_000_000;
        let hz = self.0;
        let whole = n / hz;
        let rem = n % hz;
        let frac = rem * (PS / hz) + (rem * (PS % hz) + hz / 2) / hz;
        match whole.checked_mul(PS) {
            Some(ps) if ps <= u64::MAX - frac => SimDuration(ps + frac),
            _ => panic!("cycle count overflows SimDuration"),
        }
    }
}

impl fmt::Display for Freq {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 % 1_000_000_000 == 0 {
            write!(f, "{}GHz", self.0 / 1_000_000_000)
        } else if self.0 % 1_000_000 == 0 {
            write!(f, "{}MHz", self.0 / 1_000_000)
        } else {
            write!(f, "{}Hz", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duration_constructors_agree() {
        assert_eq!(SimDuration::from_nanos(1), SimDuration::from_picos(1_000));
        assert_eq!(SimDuration::from_micros(1), SimDuration::from_nanos(1_000));
        assert_eq!(SimDuration::from_millis(1), SimDuration::from_micros(1_000));
        assert_eq!(SimDuration::from_secs(1), SimDuration::from_millis(1_000));
    }

    #[test]
    fn duration_arithmetic() {
        let a = SimDuration::from_nanos(10);
        let b = SimDuration::from_nanos(3);
        assert_eq!(a + b, SimDuration::from_nanos(13));
        assert_eq!(a - b, SimDuration::from_nanos(7));
        assert_eq!(a * 3, SimDuration::from_nanos(30));
        assert_eq!(a / 2, SimDuration::from_nanos(5));
        assert_eq!(b.saturating_sub(a), SimDuration::ZERO);
        assert_eq!(a.max(b), a);
        assert_eq!(a.min(b), b);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn duration_sub_underflow_panics() {
        let _ = SimDuration::from_nanos(1) - SimDuration::from_nanos(2);
    }

    #[test]
    fn duration_sum() {
        let total: SimDuration = (1..=4).map(SimDuration::from_nanos).sum();
        assert_eq!(total, SimDuration::from_nanos(10));
    }

    #[test]
    fn time_arithmetic() {
        let t = SimTime::ZERO + SimDuration::from_micros(5);
        assert_eq!(t.as_picos(), 5_000_000);
        assert_eq!(t - SimTime::ZERO, SimDuration::from_micros(5));
        assert_eq!(
            t - SimDuration::from_micros(2),
            SimTime::from_picos(3_000_000)
        );
        assert_eq!(SimTime::ZERO.saturating_since(t), SimDuration::ZERO);
    }

    #[test]
    fn freq_period_exact_for_round_clocks() {
        assert_eq!(Freq::from_ghz(1).period(), SimDuration::from_picos(1_000));
        assert_eq!(Freq::from_mhz(200).period(), SimDuration::from_picos(5_000));
        assert_eq!(
            Freq::from_mhz(100).period(),
            SimDuration::from_picos(10_000)
        );
    }

    #[test]
    fn freq_cycles_avoids_rounding_accumulation() {
        // 150 MHz has a non-integral picosecond period (6666.67 ps). Charging
        // 150e6 cycles must give exactly one second.
        let f = Freq::from_mhz(150);
        assert_eq!(f.cycles(150_000_000), SimDuration::from_secs(1));
        // And 3 cycles rounds to 20000 ps.
        assert_eq!(f.cycles(3), SimDuration::from_picos(20_000));
    }

    /// Bugfix regression: the scaled remainder used to overflow u64 past
    /// ~1.8e7 cycles, wrapping to a wrong duration in release builds.
    #[test]
    fn freq_cycles_does_not_overflow_below_one_second() {
        assert_eq!(
            Freq::from_ghz(1).cycles(999_999_999),
            SimDuration::from_picos(999_999_999_000)
        );
        assert_eq!(
            Freq::from_mhz(150).cycles(149_999_999),
            SimDuration::from_picos(999_999_993_333)
        );
        // Below the old threshold the result is unchanged.
        assert_eq!(
            Freq::from_ghz(1).cycles(18_000_000),
            SimDuration::from_millis(18)
        );
    }

    /// The u64 conversion equals the exact rounded quotient
    /// `(n * 1e12 + hz/2) / hz`, computed here in u128, at the edges of
    /// both operands; a result beyond `SimDuration`'s range panics.
    #[test]
    fn freq_cycles_matches_u128_reference() {
        const PS: u128 = 1_000_000_000_000;
        let max = u32::MAX as u64;
        for hz in [1, 150_000_000, 1_000_000_000, 4_000_000_000, max] {
            let f = Freq::from_hz(hz);
            for n in [0, 1, hz - 1, hz, hz + 1, 1 << 40, u64::MAX] {
                let want = (n as u128 * PS + hz as u128 / 2) / hz as u128;
                match u64::try_from(want) {
                    Ok(ps) => assert_eq!(f.cycles(n).as_picos(), ps, "hz={hz} n={n}"),
                    Err(_) => assert!(
                        std::panic::catch_unwind(|| f.cycles(n)).is_err(),
                        "hz={hz} n={n} should overflow"
                    ),
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "u32::MAX")]
    fn freq_above_u32_max_hz_is_rejected() {
        let _ = Freq::from_hz(u32::MAX as u64 + 1);
    }

    #[test]
    fn freq_display() {
        assert_eq!(Freq::from_ghz(1).to_string(), "1GHz");
        assert_eq!(Freq::from_mhz(150).to_string(), "150MHz");
    }

    #[test]
    fn duration_display_picks_coarsest_unit() {
        assert_eq!(SimDuration::from_micros(100).to_string(), "100us");
        assert_eq!(SimDuration::from_nanos(25).to_string(), "25ns");
        assert_eq!(SimDuration::from_picos(1).to_string(), "1ps");
        assert_eq!(SimDuration::ZERO.to_string(), "0s");
    }

    #[test]
    fn mts_alias() {
        assert_eq!(Freq::from_mts(200), Freq::from_mhz(200));
    }
}
