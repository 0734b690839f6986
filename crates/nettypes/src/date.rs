//! A compact proleptic-Gregorian calendar date used as the simulation
//! clock throughout the workspace.
//!
//! Internally a `Date` is the number of days since 1970-01-01 (may be
//! negative), so day arithmetic is trivial and daily pipelines can use
//! it as an array index. We deliberately avoid pulling in a calendar
//! crate: the study spans 2009–2020 and needs only day resolution.

use crate::error::NetTypesError;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Sub, SubAssign};
use std::str::FromStr;

/// Days in each month of a non-leap year.
const MONTH_DAYS: [i64; 12] = [31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31];

fn is_leap(year: i64) -> bool {
    (year % 4 == 0 && year % 100 != 0) || year % 400 == 0
}

fn days_in_month(year: i64, month: u8) -> i64 {
    if month == 2 && is_leap(year) {
        29
    } else {
        MONTH_DAYS[(month - 1) as usize]
    }
}

/// Days from 1970-01-01 to `year`-01-01.
fn days_to_year(year: i64) -> i64 {
    // Count leap days between year 1 and `year` (exclusive), offset to epoch.
    let y = year - 1;
    let days_from_year1 = y * 365 + y / 4 - y / 100 + y / 400;
    const DAYS_1970: i64 = 719162; // days from 0001-01-01 to 1970-01-01
    days_from_year1 - DAYS_1970
}

/// A calendar date with day resolution.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Date(i64);

impl Date {
    /// Construct from year/month/day; validates the calendar.
    pub fn ymd(year: i64, month: u8, day: u8) -> Result<Self, NetTypesError> {
        if !(1..=12).contains(&month) || day == 0 || (day as i64) > days_in_month(year, month) {
            return Err(NetTypesError::InvalidDate(format!(
                "{year:04}-{month:02}-{day:02}"
            )));
        }
        let mut days = days_to_year(year);
        for m in 1..month {
            days += days_in_month(year, m);
        }
        days += day as i64 - 1;
        Ok(Date(days))
    }

    /// Construct from a raw day count since 1970-01-01.
    pub const fn from_days(days: i64) -> Self {
        Date(days)
    }

    /// The raw day count since 1970-01-01.
    pub const fn days_since_epoch(&self) -> i64 {
        self.0
    }

    /// Decompose into (year, month, day).
    pub fn to_ymd(&self) -> (i64, u8, u8) {
        // Walk years from a close lower bound.
        let mut year = 1970 + self.0.div_euclid(366);
        while days_to_year(year + 1) <= self.0 {
            year += 1;
        }
        while days_to_year(year) > self.0 {
            year -= 1;
        }
        let mut rem = self.0 - days_to_year(year);
        let mut month = 1u8;
        while rem >= days_in_month(year, month) {
            rem -= days_in_month(year, month);
            month += 1;
        }
        (year, month, rem as u8 + 1)
    }

    /// The calendar year.
    pub fn year(&self) -> i64 {
        self.to_ymd().0
    }

    /// The calendar month, 1-based.
    pub fn month(&self) -> u8 {
        self.to_ymd().1
    }

    /// The day of the month, 1-based.
    pub fn day(&self) -> u8 {
        self.to_ymd().2
    }

    /// Zero-based quarter within the year (0..=3).
    pub fn quarter(&self) -> u8 {
        (self.month() - 1) / 3
    }

    /// A label like `2019Q4` as used on the paper's x-axes.
    pub fn quarter_label(&self) -> String {
        format!("{}Q{}", self.year(), self.quarter() + 1)
    }

    /// Index of the calendar quarter since 1970Q1 — a convenient
    /// bucketing key for the paper's three-month aggregation windows.
    pub fn quarter_index(&self) -> i64 {
        let (y, m, _) = self.to_ymd();
        (y - 1970) * 4 + ((m - 1) / 3) as i64
    }

    /// Index of the calendar month since 1970-01.
    pub fn month_index(&self) -> i64 {
        let (y, m, _) = self.to_ymd();
        (y - 1970) * 12 + (m - 1) as i64
    }

    /// The next day.
    pub fn succ(&self) -> Date {
        Date(self.0 + 1)
    }

    /// The previous day.
    pub fn pred(&self) -> Date {
        Date(self.0 - 1)
    }
}

impl Add<i64> for Date {
    type Output = Date;
    fn add(self, rhs: i64) -> Date {
        Date(self.0 + rhs)
    }
}

impl AddAssign<i64> for Date {
    fn add_assign(&mut self, rhs: i64) {
        self.0 += rhs;
    }
}

impl Sub<i64> for Date {
    type Output = Date;
    fn sub(self, rhs: i64) -> Date {
        Date(self.0 - rhs)
    }
}

impl SubAssign<i64> for Date {
    fn sub_assign(&mut self, rhs: i64) {
        self.0 -= rhs;
    }
}

impl Sub<Date> for Date {
    type Output = i64;
    /// Number of days from `rhs` to `self`.
    fn sub(self, rhs: Date) -> i64 {
        self.0 - rhs.0
    }
}

impl fmt::Display for Date {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (y, m, d) = self.to_ymd();
        write!(f, "{y:04}-{m:02}-{d:02}")
    }
}

impl fmt::Debug for Date {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Date({self})")
    }
}

impl FromStr for Date {
    type Err = NetTypesError;

    /// Parse `YYYY-MM-DD`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut it = s.split('-');
        let (y, m, d) = (it.next(), it.next(), it.next());
        if it.next().is_some() {
            return Err(NetTypesError::InvalidDate(s.to_string()));
        }
        match (y, m, d) {
            (Some(y), Some(m), Some(d)) => {
                let y: i64 = y
                    .parse()
                    .map_err(|_| NetTypesError::InvalidDate(s.into()))?;
                let m: u8 = m
                    .parse()
                    .map_err(|_| NetTypesError::InvalidDate(s.into()))?;
                let d: u8 = d
                    .parse()
                    .map_err(|_| NetTypesError::InvalidDate(s.into()))?;
                Date::ymd(y, m, d)
            }
            _ => Err(NetTypesError::InvalidDate(s.to_string())),
        }
    }
}

/// A half-open sequence of consecutive days `[start, end]` (inclusive),
/// iterable day by day — the shape of every "daily pipeline" loop in
/// the reproduction.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct DateRange {
    /// First day, inclusive.
    pub start: Date,
    /// Last day, inclusive.
    pub end: Date,
}

impl DateRange {
    /// Create a range; panics if `start > end`.
    pub fn new(start: Date, end: Date) -> Self {
        assert!(start <= end, "DateRange start {start} > end {end}");
        DateRange { start, end }
    }

    /// Number of days covered.
    pub fn num_days(&self) -> i64 {
        self.end - self.start + 1
    }

    /// Whether `d` falls inside the range.
    pub fn contains(&self, d: Date) -> bool {
        d >= self.start && d <= self.end
    }

    /// Iterate the days in order.
    pub fn iter(&self) -> impl Iterator<Item = Date> {
        let s = self.start.days_since_epoch();
        let e = self.end.days_since_epoch();
        (s..=e).map(Date::from_days)
    }
}

impl IntoIterator for DateRange {
    type Item = Date;
    type IntoIter = Box<dyn Iterator<Item = Date>>;
    fn into_iter(self) -> Self::IntoIter {
        Box::new(self.iter())
    }
}

/// Parse a date from a literal, panicking on failure. Test helper.
pub fn date(s: &str) -> Date {
    s.parse().expect("invalid date literal")
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn epoch_is_zero() {
        assert_eq!(Date::ymd(1970, 1, 1).unwrap().days_since_epoch(), 0);
        assert_eq!(Date::ymd(1970, 1, 2).unwrap().days_since_epoch(), 1);
        assert_eq!(Date::ymd(1969, 12, 31).unwrap().days_since_epoch(), -1);
    }

    #[test]
    fn known_dates() {
        // Paper landmarks.
        assert_eq!(date("2019-11-25").days_since_epoch(), 18225);
        assert_eq!(date("2000-01-01").days_since_epoch(), 10957);
        assert_eq!(date("2020-06-01").to_string(), "2020-06-01");
    }

    #[test]
    fn leap_years() {
        assert!(is_leap(2000));
        assert!(is_leap(2020));
        assert!(!is_leap(1900));
        assert!(!is_leap(2019));
        assert!(Date::ymd(2020, 2, 29).is_ok());
        assert!(Date::ymd(2019, 2, 29).is_err());
        assert!(Date::ymd(1900, 2, 29).is_err());
        assert!(Date::ymd(2000, 2, 29).is_ok());
    }

    #[test]
    fn validation() {
        assert!(Date::ymd(2020, 0, 1).is_err());
        assert!(Date::ymd(2020, 13, 1).is_err());
        assert!(Date::ymd(2020, 1, 0).is_err());
        assert!(Date::ymd(2020, 4, 31).is_err());
        assert!("2020-13-01".parse::<Date>().is_err());
        assert!("2020-01".parse::<Date>().is_err());
        assert!("2020-01-01-01".parse::<Date>().is_err());
    }

    #[test]
    fn pre_epoch_decomposition() {
        assert_eq!(Date::from_days(-1).to_ymd(), (1969, 12, 31));
        assert_eq!(Date::from_days(-365).to_ymd(), (1969, 1, 1));
        // 1968 is a leap year; 1900 is a century non-leap.
        assert_eq!(Date::from_days(-366).to_ymd(), (1968, 12, 31));
        assert_eq!(date("1968-02-29").succ().to_string(), "1968-03-01");
        assert_eq!(date("1900-02-28").succ().to_string(), "1900-03-01");
        // The proleptic calendar bottoms out at 0001-01-01 cleanly.
        assert_eq!(Date::from_days(-719_162).to_ymd(), (1, 1, 1));
        assert_eq!(Date::from_days(-719_162).to_string(), "0001-01-01");
    }

    #[test]
    fn arithmetic() {
        let d = date("2019-12-31");
        assert_eq!((d + 1).to_string(), "2020-01-01");
        assert_eq!((d - 365).to_string(), "2018-12-31");
        assert_eq!(date("2020-03-01") - date("2020-02-01"), 29);
        assert_eq!(date("2019-03-01") - date("2019-02-01"), 28);
    }

    #[test]
    fn quarters() {
        assert_eq!(date("2016-01-01").quarter_label(), "2016Q1");
        assert_eq!(date("2016-03-31").quarter_label(), "2016Q1");
        assert_eq!(date("2016-04-01").quarter_label(), "2016Q2");
        assert_eq!(date("2016-12-31").quarter_label(), "2016Q4");
        assert_eq!(
            date("2016-04-01").quarter_index() - date("2016-01-01").quarter_index(),
            1
        );
        assert_eq!(
            date("2020-01-01").quarter_index() - date("2019-10-01").quarter_index(),
            1
        );
    }

    #[test]
    fn range_iteration() {
        let r = DateRange::new(date("2020-02-27"), date("2020-03-02"));
        let days: Vec<String> = r.iter().map(|d| d.to_string()).collect();
        assert_eq!(
            days,
            vec![
                "2020-02-27",
                "2020-02-28",
                "2020-02-29",
                "2020-03-01",
                "2020-03-02"
            ]
        );
        assert_eq!(r.num_days(), 5);
        assert!(r.contains(date("2020-02-29")));
        assert!(!r.contains(date("2020-03-03")));
    }

    proptest! {
        #[test]
        fn prop_roundtrip_days(days in -200_000i64..200_000) {
            let d = Date::from_days(days);
            let (y, m, dd) = d.to_ymd();
            prop_assert_eq!(Date::ymd(y, m, dd).unwrap(), d);
        }

        #[test]
        fn prop_string_roundtrip(days in 0i64..40_000) {
            let d = Date::from_days(days);
            prop_assert_eq!(d.to_string().parse::<Date>().unwrap(), d);
        }

        #[test]
        fn prop_succ_monotone(days in -10_000i64..40_000) {
            let d = Date::from_days(days);
            prop_assert!(d.succ() > d);
            prop_assert_eq!(d.succ().pred(), d);
            prop_assert_eq!(d.succ() - d, 1);
        }
    }
}
