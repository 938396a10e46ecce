//! Physical-quantity newtypes used throughout `corepart`.
//!
//! Energies, powers, times, cycle counts and hardware effort are all easy
//! to confuse when every one of them is a bare number. Following
//! C-NEWTYPE, each quantity gets its own type with only the physically
//! meaningful operations defined, so `Energy + Power` is a compile error
//! while `Power * Seconds -> Energy` works.
//!
//! ```
//! use corepart_tech::units::{Energy, Power, Seconds};
//!
//! let p = Power::from_milliwatts(120.0);
//! let t = Seconds::from_nanos(50.0);
//! let e: Energy = p * t;
//! assert!((e.joules() - 6.0e-9).abs() < 1e-18);
//! ```

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// An amount of energy, stored in joules.
///
/// `Energy` is the central bookkeeping quantity of the library: every
/// simulator and analytical model reports its contribution as an
/// `Energy`, and the partitioner minimizes their sum.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Energy(f64);

impl Energy {
    /// Zero energy.
    pub const ZERO: Energy = Energy(0.0);

    /// Creates an energy from joules.
    pub fn from_joules(joules: f64) -> Self {
        Energy(joules)
    }

    /// Creates an energy from millijoules.
    pub fn from_millijoules(mj: f64) -> Self {
        Energy(mj * 1e-3)
    }

    /// Creates an energy from microjoules.
    pub fn from_microjoules(uj: f64) -> Self {
        Energy(uj * 1e-6)
    }

    /// Creates an energy from nanojoules.
    pub fn from_nanojoules(nj: f64) -> Self {
        Energy(nj * 1e-9)
    }

    /// Creates an energy from picojoules.
    pub fn from_picojoules(pj: f64) -> Self {
        Energy(pj * 1e-12)
    }

    /// Returns the value in joules.
    pub fn joules(self) -> f64 {
        self.0
    }

    /// Returns the value in millijoules.
    pub fn millijoules(self) -> f64 {
        self.0 * 1e3
    }

    /// Returns the value in microjoules.
    pub fn microjoules(self) -> f64 {
        self.0 * 1e6
    }

    /// Returns the value in nanojoules.
    pub fn nanojoules(self) -> f64 {
        self.0 * 1e9
    }

    /// Returns the value in picojoules.
    pub fn picojoules(self) -> f64 {
        self.0 * 1e12
    }

    /// Returns the larger of two energies.
    pub fn max(self, other: Energy) -> Energy {
        Energy(self.0.max(other.0))
    }

    /// Returns the smaller of two energies.
    pub fn min(self, other: Energy) -> Energy {
        Energy(self.0.min(other.0))
    }

    /// True when the energy is exactly zero.
    pub fn is_zero(self) -> bool {
        self.0 == 0.0
    }

    /// Relative saving of `self` over a `baseline`, in percent.
    ///
    /// A positive result means `self` is *smaller* than the baseline,
    /// matching the paper's "Sav%" column sign convention (Table 1 prints
    /// savings as negative deltas; [`crate::units::Energy::percent_change`]
    /// gives that form).
    ///
    /// Returns `None` when the baseline is zero.
    pub fn percent_saving(self, baseline: Energy) -> Option<f64> {
        if baseline.0 == 0.0 {
            None
        } else {
            Some((baseline.0 - self.0) / baseline.0 * 100.0)
        }
    }

    /// Relative change of `self` versus a `baseline`, in percent
    /// (negative = reduction, the sign convention of the paper's
    /// "Sav%"/"Chg%" columns).
    ///
    /// Returns `None` when the baseline is zero.
    pub fn percent_change(self, baseline: Energy) -> Option<f64> {
        if baseline.0 == 0.0 {
            None
        } else {
            Some((self.0 - baseline.0) / baseline.0 * 100.0)
        }
    }
}

impl Add for Energy {
    type Output = Energy;
    fn add(self, rhs: Energy) -> Energy {
        Energy(self.0 + rhs.0)
    }
}

impl AddAssign for Energy {
    fn add_assign(&mut self, rhs: Energy) {
        self.0 += rhs.0;
    }
}

impl Sub for Energy {
    type Output = Energy;
    fn sub(self, rhs: Energy) -> Energy {
        Energy(self.0 - rhs.0)
    }
}

impl SubAssign for Energy {
    fn sub_assign(&mut self, rhs: Energy) {
        self.0 -= rhs.0;
    }
}

impl Neg for Energy {
    type Output = Energy;
    fn neg(self) -> Energy {
        Energy(-self.0)
    }
}

impl Mul<f64> for Energy {
    type Output = Energy;
    fn mul(self, rhs: f64) -> Energy {
        Energy(self.0 * rhs)
    }
}

impl Mul<Energy> for f64 {
    type Output = Energy;
    fn mul(self, rhs: Energy) -> Energy {
        Energy(self * rhs.0)
    }
}

impl Mul<u64> for Energy {
    type Output = Energy;
    fn mul(self, rhs: u64) -> Energy {
        Energy(self.0 * rhs as f64)
    }
}

impl Div<f64> for Energy {
    type Output = Energy;
    fn div(self, rhs: f64) -> Energy {
        Energy(self.0 / rhs)
    }
}

impl Div<Energy> for Energy {
    /// Dividing two energies yields a dimensionless ratio.
    type Output = f64;
    fn div(self, rhs: Energy) -> f64 {
        self.0 / rhs.0
    }
}

impl Sum for Energy {
    fn sum<I: Iterator<Item = Energy>>(iter: I) -> Energy {
        iter.fold(Energy::ZERO, Add::add)
    }
}

impl<'a> Sum<&'a Energy> for Energy {
    fn sum<I: Iterator<Item = &'a Energy>>(iter: I) -> Energy {
        iter.copied().sum()
    }
}

impl fmt::Display for Energy {
    /// Formats with an engineering prefix, mirroring the paper's tables
    /// (`mJ`, `µJ`, `nJ`).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let a = self.0.abs();
        let (val, unit) = if a == 0.0 {
            (0.0, "J")
        } else if a >= 1.0 {
            (self.0, "J")
        } else if a >= 1e-3 {
            (self.0 * 1e3, "mJ")
        } else if a >= 1e-6 {
            (self.0 * 1e6, "µJ")
        } else if a >= 1e-9 {
            (self.0 * 1e9, "nJ")
        } else {
            (self.0 * 1e12, "pJ")
        };
        if let Some(prec) = f.precision() {
            write!(f, "{val:.prec$}{unit}")
        } else {
            write!(f, "{val:.3}{unit}")
        }
    }
}

/// Electrical power, stored in watts.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Power(f64);

impl Power {
    /// Zero power.
    pub const ZERO: Power = Power(0.0);

    /// Creates a power from watts.
    pub fn from_watts(watts: f64) -> Self {
        Power(watts)
    }

    /// Creates a power from milliwatts.
    pub fn from_milliwatts(mw: f64) -> Self {
        Power(mw * 1e-3)
    }

    /// Returns the value in watts.
    pub fn watts(self) -> f64 {
        self.0
    }

    /// Returns the value in milliwatts.
    pub fn milliwatts(self) -> f64 {
        self.0 * 1e3
    }
}

impl Add for Power {
    type Output = Power;
    fn add(self, rhs: Power) -> Power {
        Power(self.0 + rhs.0)
    }
}

impl AddAssign for Power {
    fn add_assign(&mut self, rhs: Power) {
        self.0 += rhs.0;
    }
}

impl Sub for Power {
    type Output = Power;
    fn sub(self, rhs: Power) -> Power {
        Power(self.0 - rhs.0)
    }
}

impl Mul<f64> for Power {
    type Output = Power;
    fn mul(self, rhs: f64) -> Power {
        Power(self.0 * rhs)
    }
}

impl Mul<Power> for f64 {
    type Output = Power;
    fn mul(self, rhs: Power) -> Power {
        Power(self * rhs.0)
    }
}

impl Mul<Seconds> for Power {
    type Output = Energy;
    fn mul(self, rhs: Seconds) -> Energy {
        Energy(self.0 * rhs.0)
    }
}

impl Mul<Power> for Seconds {
    type Output = Energy;
    fn mul(self, rhs: Power) -> Energy {
        Energy(self.0 * rhs.0)
    }
}

impl Sum for Power {
    fn sum<I: Iterator<Item = Power>>(iter: I) -> Power {
        iter.fold(Power::ZERO, Add::add)
    }
}

impl fmt::Display for Power {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let a = self.0.abs();
        let (val, unit) = if a == 0.0 {
            (0.0, "W")
        } else if a >= 1.0 {
            (self.0, "W")
        } else if a >= 1e-3 {
            (self.0 * 1e3, "mW")
        } else {
            (self.0 * 1e6, "µW")
        };
        write!(f, "{val:.3}{unit}")
    }
}

/// A duration, stored in seconds.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Seconds(f64);

impl Seconds {
    /// Zero duration.
    pub const ZERO: Seconds = Seconds(0.0);

    /// Creates a duration from seconds.
    pub fn from_secs(secs: f64) -> Self {
        Seconds(secs)
    }

    /// Creates a duration from milliseconds.
    pub fn from_millis(ms: f64) -> Self {
        Seconds(ms * 1e-3)
    }

    /// Creates a duration from microseconds.
    pub fn from_micros(us: f64) -> Self {
        Seconds(us * 1e-6)
    }

    /// Creates a duration from nanoseconds.
    pub fn from_nanos(ns: f64) -> Self {
        Seconds(ns * 1e-9)
    }

    /// Returns the value in seconds.
    pub fn secs(self) -> f64 {
        self.0
    }

    /// Returns the value in nanoseconds.
    pub fn nanos(self) -> f64 {
        self.0 * 1e9
    }
}

impl Add for Seconds {
    type Output = Seconds;
    fn add(self, rhs: Seconds) -> Seconds {
        Seconds(self.0 + rhs.0)
    }
}

impl AddAssign for Seconds {
    fn add_assign(&mut self, rhs: Seconds) {
        self.0 += rhs.0;
    }
}

impl Sub for Seconds {
    type Output = Seconds;
    fn sub(self, rhs: Seconds) -> Seconds {
        Seconds(self.0 - rhs.0)
    }
}

impl Mul<f64> for Seconds {
    type Output = Seconds;
    fn mul(self, rhs: f64) -> Seconds {
        Seconds(self.0 * rhs)
    }
}

impl Mul<u64> for Seconds {
    type Output = Seconds;
    fn mul(self, rhs: u64) -> Seconds {
        Seconds(self.0 * rhs as f64)
    }
}

impl Div<Seconds> for Seconds {
    type Output = f64;
    fn div(self, rhs: Seconds) -> f64 {
        self.0 / rhs.0
    }
}

impl Sum for Seconds {
    fn sum<I: Iterator<Item = Seconds>>(iter: I) -> Seconds {
        iter.fold(Seconds::ZERO, Add::add)
    }
}

impl fmt::Display for Seconds {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let a = self.0.abs();
        let (val, unit) = if a == 0.0 {
            (0.0, "s")
        } else if a >= 1.0 {
            (self.0, "s")
        } else if a >= 1e-3 {
            (self.0 * 1e3, "ms")
        } else if a >= 1e-6 {
            (self.0 * 1e6, "µs")
        } else {
            (self.0 * 1e9, "ns")
        };
        write!(f, "{val:.3}{unit}")
    }
}

/// A count of clock cycles.
///
/// Cycle counts are exact integers; converting to wall-clock time
/// requires a cycle period via [`Cycles::at_period`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Cycles(u64);

impl Cycles {
    /// Zero cycles.
    pub const ZERO: Cycles = Cycles(0);

    /// Creates a cycle count.
    pub fn new(count: u64) -> Self {
        Cycles(count)
    }

    /// Returns the raw count.
    pub fn count(self) -> u64 {
        self.0
    }

    /// Converts to wall-clock time given a cycle period.
    pub fn at_period(self, period: Seconds) -> Seconds {
        period * self.0
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, rhs: Cycles) -> Cycles {
        Cycles(self.0.saturating_sub(rhs.0))
    }

    /// Relative change versus `baseline` in percent (negative = fewer
    /// cycles), matching the paper's "Chg%" column.
    ///
    /// Returns `None` when the baseline is zero.
    pub fn percent_change(self, baseline: Cycles) -> Option<f64> {
        if baseline.0 == 0 {
            None
        } else {
            Some((self.0 as f64 - baseline.0 as f64) / baseline.0 as f64 * 100.0)
        }
    }
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

impl Sub for Cycles {
    type Output = Cycles;
    fn sub(self, rhs: Cycles) -> Cycles {
        Cycles(self.0 - rhs.0)
    }
}

impl Mul<u64> for Cycles {
    type Output = Cycles;
    fn mul(self, rhs: u64) -> Cycles {
        Cycles(self.0 * rhs)
    }
}

impl Sum for Cycles {
    fn sum<I: Iterator<Item = Cycles>>(iter: I) -> Cycles {
        iter.fold(Cycles::ZERO, Add::add)
    }
}

impl From<u64> for Cycles {
    fn from(count: u64) -> Cycles {
        Cycles(count)
    }
}

impl fmt::Display for Cycles {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Thousands separators, matching the paper's "5,167,958" style.
        let s = self.0.to_string();
        let bytes = s.as_bytes();
        let mut out = String::with_capacity(s.len() + s.len() / 3);
        for (i, b) in bytes.iter().enumerate() {
            if i > 0 && (bytes.len() - i).is_multiple_of(3) {
                out.push(',');
            }
            out.push(*b as char);
        }
        f.write_str(&out)
    }
}

/// Hardware effort in gate equivalents ("cells" in the paper).
///
/// The paper reports ASIC-core overheads of "less than 16k cells"; this
/// type carries those counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct GateEq(u64);

impl GateEq {
    /// Zero gate equivalents.
    pub const ZERO: GateEq = GateEq(0);

    /// Creates a gate-equivalent count.
    pub fn new(cells: u64) -> Self {
        GateEq(cells)
    }

    /// Returns the raw cell count.
    pub fn cells(self) -> u64 {
        self.0
    }

    /// Ratio of this effort to a normalization base, dimensionless.
    ///
    /// Returns `None` when `base` is zero.
    pub fn ratio(self, base: GateEq) -> Option<f64> {
        if base.0 == 0 {
            None
        } else {
            Some(self.0 as f64 / base.0 as f64)
        }
    }
}

impl Add for GateEq {
    type Output = GateEq;
    fn add(self, rhs: GateEq) -> GateEq {
        GateEq(self.0 + rhs.0)
    }
}

impl AddAssign for GateEq {
    fn add_assign(&mut self, rhs: GateEq) {
        self.0 += rhs.0;
    }
}

impl Mul<u64> for GateEq {
    type Output = GateEq;
    fn mul(self, rhs: u64) -> GateEq {
        GateEq(self.0 * rhs)
    }
}

impl Sum for GateEq {
    fn sum<I: Iterator<Item = GateEq>>(iter: I) -> GateEq {
        iter.fold(GateEq::ZERO, Add::add)
    }
}

impl From<u64> for GateEq {
    fn from(cells: u64) -> GateEq {
        GateEq(cells)
    }
}

impl fmt::Display for GateEq {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1000 {
            write!(f, "{:.1}k cells", self.0 as f64 / 1000.0)
        } else {
            write!(f, "{} cells", self.0)
        }
    }
}

/// A clock frequency, stored in hertz.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Frequency(f64);

impl Frequency {
    /// Creates a frequency from hertz.
    pub fn from_hertz(hz: f64) -> Self {
        Frequency(hz)
    }

    /// Creates a frequency from megahertz.
    pub fn from_megahertz(mhz: f64) -> Self {
        Frequency(mhz * 1e6)
    }

    /// Returns the value in hertz.
    pub fn hertz(self) -> f64 {
        self.0
    }

    /// Returns the value in megahertz.
    pub fn megahertz(self) -> f64 {
        self.0 / 1e6
    }

    /// The period of one clock cycle at this frequency.
    ///
    /// # Panics
    ///
    /// Panics if the frequency is zero.
    pub fn period(self) -> Seconds {
        assert!(self.0 > 0.0, "period of a zero frequency is undefined");
        Seconds::from_secs(1.0 / self.0)
    }
}

impl fmt::Display for Frequency {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1e6 {
            write!(f, "{:.1}MHz", self.0 / 1e6)
        } else if self.0 >= 1e3 {
            write!(f, "{:.1}kHz", self.0 / 1e3)
        } else {
            write!(f, "{:.1}Hz", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn energy_constructors_round_trip() {
        assert_eq!(Energy::from_millijoules(1.0).joules(), 1e-3);
        assert_eq!(Energy::from_microjoules(1.0).joules(), 1e-6);
        assert_eq!(Energy::from_nanojoules(1.0).joules(), 1e-9);
        assert_eq!(Energy::from_picojoules(1.0).joules(), 1e-12);
        assert!((Energy::from_joules(2.5).millijoules() - 2500.0).abs() < 1e-9);
    }

    #[test]
    fn energy_arithmetic() {
        let a = Energy::from_joules(2.0);
        let b = Energy::from_joules(0.5);
        assert_eq!((a + b).joules(), 2.5);
        assert_eq!((a - b).joules(), 1.5);
        assert_eq!((a * 3.0).joules(), 6.0);
        assert_eq!((a / 2.0).joules(), 1.0);
        assert_eq!(a / b, 4.0);
        assert_eq!((-a).joules(), -2.0);
        let mut c = a;
        c += b;
        assert_eq!(c.joules(), 2.5);
        c -= b;
        assert_eq!(c.joules(), 2.0);
    }

    #[test]
    fn energy_sum_over_iterator() {
        let total: Energy = (1..=4).map(|i| Energy::from_joules(i as f64)).sum();
        assert_eq!(total.joules(), 10.0);
        let v = [Energy::from_joules(1.0), Energy::from_joules(2.0)];
        let total_ref: Energy = v.iter().sum();
        assert_eq!(total_ref.joules(), 3.0);
    }

    #[test]
    fn power_times_time_is_energy() {
        let e = Power::from_watts(2.0) * Seconds::from_secs(3.0);
        assert_eq!(e.joules(), 6.0);
        let e2 = Seconds::from_secs(3.0) * Power::from_watts(2.0);
        assert_eq!(e2.joules(), 6.0);
    }

    #[test]
    fn percent_saving_and_change() {
        let base = Energy::from_joules(10.0);
        let part = Energy::from_joules(3.5);
        assert!((part.percent_saving(base).unwrap() - 65.0).abs() < 1e-9);
        assert!((part.percent_change(base).unwrap() + 65.0).abs() < 1e-9);
        assert_eq!(part.percent_saving(Energy::ZERO), None);
    }

    #[test]
    fn energy_display_engineering_prefixes() {
        assert_eq!(format!("{}", Energy::from_millijoules(44.79)), "44.790mJ");
        assert_eq!(format!("{}", Energy::from_microjoules(116.93)), "116.930µJ");
        assert_eq!(format!("{}", Energy::from_nanojoules(12.0)), "12.000nJ");
        assert_eq!(format!("{}", Energy::ZERO), "0.000J");
        assert_eq!(format!("{:.1}", Energy::from_millijoules(44.79)), "44.8mJ");
    }

    #[test]
    fn cycles_display_thousands_separators() {
        assert_eq!(format!("{}", Cycles::new(5_167_958)), "5,167,958");
        assert_eq!(format!("{}", Cycles::new(154)), "154");
        assert_eq!(format!("{}", Cycles::new(1_000)), "1,000");
        assert_eq!(format!("{}", Cycles::new(0)), "0");
    }

    #[test]
    fn cycles_arithmetic_and_time() {
        let c = Cycles::new(100) + Cycles::new(50);
        assert_eq!(c.count(), 150);
        assert_eq!((c - Cycles::new(50)).count(), 100);
        assert_eq!((c * 2).count(), 300);
        assert_eq!(
            Cycles::new(10).saturating_sub(Cycles::new(20)),
            Cycles::ZERO
        );
        let t = Cycles::new(1000).at_period(Seconds::from_nanos(25.0));
        assert!((t.nanos() - 25_000.0).abs() < 1e-6);
    }

    #[test]
    fn cycles_percent_change_matches_paper_convention() {
        // 3d: 39,712 -> 32,843 is -17.29%
        let chg = Cycles::new(32_843)
            .percent_change(Cycles::new(39_712))
            .unwrap();
        assert!((chg + 17.29).abs() < 0.01, "chg = {chg}");
        assert_eq!(Cycles::new(5).percent_change(Cycles::ZERO), None);
    }

    #[test]
    fn gate_eq_display() {
        assert_eq!(format!("{}", GateEq::new(15_900)), "15.9k cells");
        assert_eq!(format!("{}", GateEq::new(640)), "640 cells");
    }

    #[test]
    fn gate_eq_ratio() {
        assert_eq!(GateEq::new(500).ratio(GateEq::new(1000)), Some(0.5));
        assert_eq!(GateEq::new(500).ratio(GateEq::ZERO), None);
    }

    #[test]
    fn frequency_period() {
        let f = Frequency::from_megahertz(40.0);
        assert!((f.period().nanos() - 25.0).abs() < 1e-9);
        assert_eq!(f.megahertz(), 40.0);
    }

    #[test]
    #[should_panic(expected = "zero frequency")]
    fn zero_frequency_period_panics() {
        let _ = Frequency::from_hertz(0.0).period();
    }

    #[test]
    fn display_power_and_seconds() {
        assert_eq!(format!("{}", Power::from_milliwatts(250.0)), "250.000mW");
        assert_eq!(format!("{}", Seconds::from_micros(12.5)), "12.500µs");
        assert_eq!(format!("{}", Seconds::from_nanos(80.0)), "80.000ns");
    }
}
