//! Physical-unit newtypes for the performance and power models.
//!
//! The SoC simulator mixes clock domains (ISP at 768 MHz, NNX at 1 GHz, MC
//! at 100 MHz), data volumes, energies, and powers. Newtypes keep these from
//! being confused (C-NEWTYPE) and centralize the conversions.
//!
//! Simulated time is kept in integer **picoseconds** ([`Picos`]): 1 ps
//! resolution represents all the clock periods above exactly, and a `u64`
//! spans ~213 days of simulated time — far beyond any run.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// A point in (or span of) simulated time, in integer picoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Picos(pub u64);

impl Picos {
    /// Zero time.
    pub const ZERO: Picos = Picos(0);

    /// Creates a span from nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        Picos(ns * 1_000)
    }

    /// Creates a span from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        Picos(us * 1_000_000)
    }

    /// Creates a span from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        Picos(ms * 1_000_000_000)
    }

    /// Creates a span from (fractional) seconds, rounding to the nearest
    /// picosecond.
    pub fn from_secs_f64(s: f64) -> Self {
        Picos((s * 1e12).round().max(0.0) as u64)
    }

    /// This span in fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e12
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, rhs: Picos) -> Picos {
        Picos(self.0.saturating_sub(rhs.0))
    }
}

impl Add for Picos {
    type Output = Picos;
    fn add(self, rhs: Picos) -> Picos {
        Picos(self.0 + rhs.0)
    }
}

impl AddAssign for Picos {
    fn add_assign(&mut self, rhs: Picos) {
        self.0 += rhs.0;
    }
}

impl Sub for Picos {
    type Output = Picos;
    fn sub(self, rhs: Picos) -> Picos {
        Picos(self.0 - rhs.0)
    }
}

impl Mul<u64> for Picos {
    type Output = Picos;
    fn mul(self, k: u64) -> Picos {
        Picos(self.0 * k)
    }
}

impl Sum for Picos {
    fn sum<I: Iterator<Item = Picos>>(iter: I) -> Picos {
        iter.fold(Picos::ZERO, Add::add)
    }
}

impl fmt::Display for Picos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.as_secs_f64();
        if s >= 1.0 {
            write!(f, "{s:.3} s")
        } else if s >= 1e-3 {
            write!(f, "{:.3} ms", s * 1e3)
        } else if s >= 1e-6 {
            write!(f, "{:.3} us", s * 1e6)
        } else {
            write!(f, "{} ps", self.0)
        }
    }
}

/// A cycle count in some clock domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Cycles(pub u64);

impl Cycles {
    /// Zero cycles.
    pub const ZERO: Cycles = Cycles(0);
}

impl Add for Cycles {
    type Output = Cycles;
    fn add(self, rhs: Cycles) -> Cycles {
        Cycles(self.0 + rhs.0)
    }
}

impl AddAssign for Cycles {
    fn add_assign(&mut self, rhs: Cycles) {
        self.0 += rhs.0;
    }
}

impl Sum for Cycles {
    fn sum<I: Iterator<Item = Cycles>>(iter: I) -> Cycles {
        iter.fold(Cycles::ZERO, Add::add)
    }
}

impl fmt::Display for Cycles {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} cycles", self.0)
    }
}

/// A clock domain with a fixed frequency.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Clock {
    hz: f64,
}

impl Clock {
    /// Creates a clock from a frequency in hertz.
    ///
    /// # Panics
    ///
    /// Panics if `hz` is not strictly positive and finite.
    pub fn from_hz(hz: f64) -> Self {
        assert!(hz.is_finite() && hz > 0.0, "clock frequency must be > 0");
        Clock { hz }
    }

    /// Creates a clock from a frequency in megahertz.
    pub fn from_mhz(mhz: f64) -> Self {
        Clock::from_hz(mhz * 1e6)
    }

    /// Frequency in hertz.
    pub fn hz(&self) -> f64 {
        self.hz
    }

    /// Converts a cycle count in this domain to simulated time (rounded up
    /// to whole picoseconds so latencies never round to zero).
    pub fn to_time(&self, cycles: Cycles) -> Picos {
        Picos(((cycles.0 as f64) * 1e12 / self.hz).ceil() as u64)
    }
}

/// A data volume in bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Bytes(pub u64);

impl Bytes {
    /// Zero bytes.
    pub const ZERO: Bytes = Bytes(0);

    /// Creates a volume from kibibytes.
    pub const fn from_kib(kib: u64) -> Self {
        Bytes(kib * 1024)
    }

    /// Creates a volume from mebibytes.
    pub const fn from_mib(mib: u64) -> Self {
        Bytes(mib * 1024 * 1024)
    }

    /// This volume in fractional mebibytes.
    pub fn as_mib_f64(self) -> f64 {
        self.0 as f64 / (1024.0 * 1024.0)
    }

    /// This volume in fractional gibibytes.
    pub fn as_gib_f64(self) -> f64 {
        self.0 as f64 / (1024.0 * 1024.0 * 1024.0)
    }
}

impl Add for Bytes {
    type Output = Bytes;
    fn add(self, rhs: Bytes) -> Bytes {
        Bytes(self.0 + rhs.0)
    }
}

impl AddAssign for Bytes {
    fn add_assign(&mut self, rhs: Bytes) {
        self.0 += rhs.0;
    }
}

impl Mul<u64> for Bytes {
    type Output = Bytes;
    fn mul(self, k: u64) -> Bytes {
        Bytes(self.0 * k)
    }
}

impl Sum for Bytes {
    fn sum<I: Iterator<Item = Bytes>>(iter: I) -> Bytes {
        iter.fold(Bytes::ZERO, Add::add)
    }
}

impl fmt::Display for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = self.0 as f64;
        if b >= 1024.0 * 1024.0 * 1024.0 {
            write!(f, "{:.2} GiB", self.as_gib_f64())
        } else if b >= 1024.0 * 1024.0 {
            write!(f, "{:.2} MiB", self.as_mib_f64())
        } else if b >= 1024.0 {
            write!(f, "{:.2} KiB", b / 1024.0)
        } else {
            write!(f, "{} B", self.0)
        }
    }
}

/// Power in milliwatts.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct MilliWatts(pub f64);

impl MilliWatts {
    /// Zero power.
    pub const ZERO: MilliWatts = MilliWatts(0.0);

    /// Energy dissipated over `span` at this power.
    pub fn over(self, span: Picos) -> MilliJoules {
        MilliJoules(self.0 * span.as_secs_f64())
    }
}

impl Add for MilliWatts {
    type Output = MilliWatts;
    fn add(self, rhs: MilliWatts) -> MilliWatts {
        MilliWatts(self.0 + rhs.0)
    }
}

impl Mul<f64> for MilliWatts {
    type Output = MilliWatts;
    fn mul(self, k: f64) -> MilliWatts {
        MilliWatts(self.0 * k)
    }
}

impl Sum for MilliWatts {
    fn sum<I: Iterator<Item = MilliWatts>>(iter: I) -> MilliWatts {
        iter.fold(MilliWatts::ZERO, Add::add)
    }
}

impl fmt::Display for MilliWatts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1} mW", self.0)
    }
}

/// Energy in millijoules.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct MilliJoules(pub f64);

impl MilliJoules {
    /// Zero energy.
    pub const ZERO: MilliJoules = MilliJoules(0.0);

    /// Average power over `span`.
    ///
    /// Returns zero power for a zero-length span.
    pub fn average_power(self, span: Picos) -> MilliWatts {
        let s = span.as_secs_f64();
        if s <= 0.0 {
            MilliWatts::ZERO
        } else {
            MilliWatts(self.0 / s)
        }
    }
}

impl Add for MilliJoules {
    type Output = MilliJoules;
    fn add(self, rhs: MilliJoules) -> MilliJoules {
        MilliJoules(self.0 + rhs.0)
    }
}

impl AddAssign for MilliJoules {
    fn add_assign(&mut self, rhs: MilliJoules) {
        self.0 += rhs.0;
    }
}

impl Sub for MilliJoules {
    type Output = MilliJoules;
    fn sub(self, rhs: MilliJoules) -> MilliJoules {
        MilliJoules(self.0 - rhs.0)
    }
}

impl Mul<f64> for MilliJoules {
    type Output = MilliJoules;
    fn mul(self, k: f64) -> MilliJoules {
        MilliJoules(self.0 * k)
    }
}

impl Div<f64> for MilliJoules {
    type Output = MilliJoules;
    fn div(self, k: f64) -> MilliJoules {
        MilliJoules(self.0 / k)
    }
}

impl Sum for MilliJoules {
    fn sum<I: Iterator<Item = MilliJoules>>(iter: I) -> MilliJoules {
        iter.fold(MilliJoules::ZERO, Add::add)
    }
}

impl fmt::Display for MilliJoules {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3} mJ", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn picos_conversions() {
        assert_eq!(Picos::from_nanos(1).0, 1_000);
        assert_eq!(Picos::from_micros(1).0, 1_000_000);
        assert_eq!(Picos::from_millis(1).0, 1_000_000_000);
        assert!((Picos::from_secs_f64(0.5).as_secs_f64() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn clock_cycle_time_at_1ghz() {
        let clk = Clock::from_mhz(1000.0); // 1 GHz: 1 cycle = 1 ns
        assert_eq!(clk.to_time(Cycles(1)), Picos::from_nanos(1));
    }

    #[test]
    fn clock_rounds_latency_up() {
        // 768 MHz: one cycle = 1302.08 ps, must round to 1303 not 1302.
        let clk = Clock::from_mhz(768.0);
        let t = clk.to_time(Cycles(1));
        assert!(t.0 >= 1302);
    }

    #[test]
    #[should_panic(expected = "clock frequency")]
    fn clock_rejects_zero_frequency() {
        let _ = Clock::from_hz(0.0);
    }

    #[test]
    fn power_times_time_is_energy() {
        let e = MilliWatts(651.0).over(Picos::from_millis(100));
        assert!((e.0 - 65.1).abs() < 1e-9);
        let p = e.average_power(Picos::from_millis(100));
        assert!((p.0 - 651.0).abs() < 1e-9);
    }

    #[test]
    fn average_power_of_zero_span_is_zero() {
        assert_eq!(
            MilliJoules(5.0).average_power(Picos::ZERO),
            MilliWatts::ZERO
        );
    }

    #[test]
    fn bytes_display_scales_units() {
        assert_eq!(Bytes(512).to_string(), "512 B");
        assert_eq!(Bytes::from_kib(2).to_string(), "2.00 KiB");
        assert_eq!(Bytes::from_mib(646).to_string(), "646.00 MiB");
    }

    #[test]
    fn sums_work_for_all_quantities() {
        let t: Picos = [Picos(1), Picos(2)].into_iter().sum();
        assert_eq!(t, Picos(3));
        let b: Bytes = [Bytes(10), Bytes(20)].into_iter().sum();
        assert_eq!(b, Bytes(30));
        let e: MilliJoules = [MilliJoules(1.0), MilliJoules(2.0)].into_iter().sum();
        assert!((e.0 - 3.0).abs() < 1e-12);
        let c: Cycles = [Cycles(5), Cycles(6)].into_iter().sum();
        assert_eq!(c, Cycles(11));
    }

    #[test]
    fn picos_display_picks_sensible_unit() {
        assert!(Picos::from_millis(5).to_string().contains("ms"));
        assert!(Picos::from_secs_f64(2.0).to_string().contains(" s"));
        assert!(Picos::from_micros(3).to_string().contains("us"));
    }

    #[test]
    fn saturating_sub_clamps_at_zero() {
        assert_eq!(Picos(5).saturating_sub(Picos(10)), Picos::ZERO);
    }
}
