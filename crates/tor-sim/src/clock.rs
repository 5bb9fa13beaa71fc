//! Simulation time.
//!
//! The simulator runs on plain Unix timestamps so that descriptor
//! time-periods, consensus timestamps and the paper's calendar dates
//! (harvest on 2013-02-04, Silk Road launch 2011-02, FBI takedown
//! 2013-10-02) all line up with the real protocol arithmetic.

use core::fmt;
use core::ops::{Add, AddAssign, Sub};

/// Seconds per hour.
pub const HOUR: u64 = 3_600;
/// Seconds per day.
pub const DAY: u64 = 86_400;

/// A point in simulated time (Unix seconds, UTC).
///
/// # Examples
///
/// ```
/// use tor_sim::clock::SimTime;
///
/// let harvest = SimTime::from_ymd(2013, 2, 4);
/// assert_eq!(harvest.unix(), 1_359_936_000);
/// assert_eq!((harvest + tor_sim::clock::DAY).ymd(), (2013, 2, 5));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The Unix epoch.
    pub const EPOCH: SimTime = SimTime(0);

    /// Wraps a Unix timestamp.
    pub fn from_unix(secs: u64) -> Self {
        SimTime(secs)
    }

    /// Builds a timestamp for midnight UTC of a calendar date.
    ///
    /// # Panics
    ///
    /// Panics if the date is before 1970-01-01 or the month is invalid.
    pub fn from_ymd(year: i64, month: u32, day: u32) -> Self {
        SimTime(days_from_civil(year, month, day) as u64 * DAY)
    }

    /// Builds a timestamp for midnight UTC of a calendar date, or
    /// `None` if the date does not exist (month outside 1–12, day past
    /// the month's end) or lies outside the four-digit years
    /// 1970–9999 the simulator's timestamps print as.
    pub fn try_from_ymd(year: i64, month: u32, day: u32) -> Option<Self> {
        if !(1970..=9999).contains(&year) || !(1..=12).contains(&month) || !(1..=31).contains(&day)
        {
            return None;
        }
        // In this range the arithmetic cannot overflow; a day past the
        // month's end rolls into the next month and fails the check.
        let t = SimTime::from_ymd(year, month, day);
        (t.ymd() == (year, month, day)).then_some(t)
    }

    /// The Unix timestamp in seconds.
    pub fn unix(self) -> u64 {
        self.0
    }

    /// The calendar date (UTC) of this timestamp.
    pub fn ymd(self) -> (i64, u32, u32) {
        civil_from_days((self.0 / DAY) as i64)
    }

    /// Whole days since the epoch.
    pub fn days(self) -> u64 {
        self.0 / DAY
    }

    /// Whole hours since the epoch.
    pub fn hours(self) -> u64 {
        self.0 / HOUR
    }

    /// Saturating difference in seconds (`self − earlier`), zero if
    /// `earlier` is later.
    pub fn since(self, earlier: SimTime) -> u64 {
        self.0.saturating_sub(earlier.0)
    }
}

impl Add<u64> for SimTime {
    type Output = SimTime;
    fn add(self, secs: u64) -> SimTime {
        SimTime(self.0 + secs)
    }
}

impl AddAssign<u64> for SimTime {
    fn add_assign(&mut self, secs: u64) {
        self.0 += secs;
    }
}

impl Sub<u64> for SimTime {
    type Output = SimTime;
    fn sub(self, secs: u64) -> SimTime {
        SimTime(self.0.saturating_sub(secs))
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SimTime({self})")
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (y, m, d) = self.ymd();
        let rem = self.0 % DAY;
        write!(
            f,
            "{y:04}-{m:02}-{d:02}T{:02}:{:02}:{:02}Z",
            rem / HOUR,
            (rem % HOUR) / 60,
            rem % 60
        )
    }
}

/// Days since 1970-01-01 for a proleptic Gregorian date
/// (Howard Hinnant's `days_from_civil` algorithm).
fn days_from_civil(y: i64, m: u32, d: u32) -> i64 {
    assert!((1..=12).contains(&m), "month out of range");
    assert!((1..=31).contains(&d), "day out of range");
    let y = if m <= 2 { y - 1 } else { y };
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = y - era * 400;
    let mp = ((m + 9) % 12) as i64;
    let doy = (153 * mp + 2) / 5 + d as i64 - 1;
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
    let days = era * 146_097 + doe - 719_468;
    assert!(days >= 0, "dates before 1970 are not representable");
    days
}

/// Inverse of [`days_from_civil`].
fn civil_from_days(z: i64) -> (i64, u32, u32) {
    let z = z + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = z - era * 146_097;
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32;
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32;
    (if m <= 2 { y + 1 } else { y }, m, d)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_is_zero() {
        assert_eq!(SimTime::from_ymd(1970, 1, 1).unix(), 0);
    }

    #[test]
    fn paper_dates() {
        // 2013-02-04: the harvest date.
        assert_eq!(SimTime::from_ymd(2013, 2, 4).unix(), 1_359_936_000);
        // 2011-02-01: Silk Road launch; 2013-10-02: FBI takedown.
        assert_eq!(SimTime::from_ymd(2011, 2, 1).ymd(), (2011, 2, 1));
        assert_eq!(SimTime::from_ymd(2013, 10, 2).ymd(), (2013, 10, 2));
    }

    #[test]
    fn ymd_roundtrip_across_leap_years() {
        for year in [2011i64, 2012, 2013, 2016, 2100] {
            for (m, d) in [(1, 1), (2, 28), (3, 1), (12, 31)] {
                let t = SimTime::from_ymd(year, m, d);
                assert_eq!(t.ymd(), (year, m, d), "{year}-{m}-{d}");
            }
        }
        // 2012 was a leap year.
        assert_eq!(SimTime::from_ymd(2012, 2, 29).ymd(), (2012, 2, 29));
        assert_eq!(
            SimTime::from_ymd(2012, 3, 1).unix() - SimTime::from_ymd(2012, 2, 29).unix(),
            DAY
        );
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_ymd(2013, 2, 4);
        assert_eq!((t + HOUR).hours(), t.hours() + 1);
        assert_eq!((t + DAY).days(), t.days() + 1);
        assert_eq!((t + 500).since(t), 500);
        assert_eq!(t.since(t + 500), 0);
        assert_eq!((t - DAY).ymd(), (2013, 2, 3));
    }

    #[test]
    fn display_format() {
        let t = SimTime::from_ymd(2013, 2, 4) + 3 * HOUR + 25 * 60 + 7;
        assert_eq!(t.to_string(), "2013-02-04T03:25:07Z");
    }

    #[test]
    fn try_from_ymd_rejects_impossible_dates() {
        assert_eq!(
            SimTime::try_from_ymd(2012, 2, 29),
            Some(SimTime::from_ymd(2012, 2, 29))
        );
        assert_eq!(SimTime::try_from_ymd(1970, 1, 1), Some(SimTime::EPOCH));
        assert!(SimTime::try_from_ymd(9999, 12, 31).is_some());
        for (y, m, d) in [
            (2013, 2, 29),
            (2013, 2, 31),
            (2013, 4, 31),
            (2013, 0, 1),
            (2013, 13, 1),
            (2013, 1, 0),
            (1969, 12, 31),
            (10_000, 1, 1),
            (999_999_999_999, 1, 1),
            (i64::MIN, 1, 1),
        ] {
            assert_eq!(SimTime::try_from_ymd(y, m, d), None, "{y}-{m}-{d}");
        }
    }

    #[test]
    #[should_panic(expected = "month out of range")]
    fn bad_month_panics() {
        let _ = SimTime::from_ymd(2013, 13, 1);
    }
}
