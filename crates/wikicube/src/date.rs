//! Day-resolution civil (proleptic Gregorian) date arithmetic.
//!
//! The change cube only ever needs day resolution: the cube keeps one
//! change per field and day (the day's last write), and every window granularity evaluated in the paper (1, 7, 30 and
//! 365 days) is a whole number of days. A [`Date`] is therefore a single
//! `i32` counting days since the Unix epoch (1970-01-01), which keeps the
//! hot structures compact and comparison/window math branch-free.
//!
//! Conversions between day numbers and calendar dates use Howard Hinnant's
//! `days_from_civil` / `civil_from_days` algorithms, which are exact over
//! the entire `i32` range used here.

use std::fmt;
use std::ops::{Add, AddAssign, Sub, SubAssign};
use std::str::FromStr;

/// A civil date with day resolution, stored as days since 1970-01-01.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Date(i32);

/// Day of the week. ISO numbering: Monday is the first day.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum Weekday {
    Monday,
    Tuesday,
    Wednesday,
    Thursday,
    Friday,
    Saturday,
    Sunday,
}

impl Weekday {
    /// ISO weekday number, Monday = 1 … Sunday = 7.
    pub fn iso_number(self) -> u8 {
        match self {
            Weekday::Monday => 1,
            Weekday::Tuesday => 2,
            Weekday::Wednesday => 3,
            Weekday::Thursday => 4,
            Weekday::Friday => 5,
            Weekday::Saturday => 6,
            Weekday::Sunday => 7,
        }
    }
}

/// Number of days from 1970-01-01 to `y-m-d` (proleptic Gregorian).
fn days_from_civil(y: i32, m: u32, d: u32) -> i32 {
    let y = if m <= 2 { y - 1 } else { y };
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = y - era * 400; // [0, 399]
    let mp = if m > 2 { m - 3 } else { m + 9 }; // [0, 11], March-based
    let doy = (153 * mp + 2) / 5 + d - 1; // [0, 365]
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy as i32; // [0, 146096]
    era * 146_097 + doe - 719_468
}

/// Inverse of [`days_from_civil`].
fn civil_from_days(z: i32) -> (i32, u32, u32) {
    let z = z + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = z - era * 146_097; // [0, 146096]
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365; // [0, 399]
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100); // [0, 365]
    let mp = (5 * doy + 2) / 153; // [0, 11]
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32; // [1, 31]
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32; // [1, 12]
    (if m <= 2 { y + 1 } else { y }, m, d)
}

/// Number of days in month `m` of year `y`.
fn days_in_month(y: i32, m: u32) -> u32 {
    match m {
        1 | 3 | 5 | 7 | 8 | 10 | 12 => 31,
        4 | 6 | 9 | 11 => 30,
        2 => {
            if is_leap_year(y) {
                29
            } else {
                28
            }
        }
        _ => 0,
    }
}

/// Whether `y` is a leap year in the proleptic Gregorian calendar.
pub fn is_leap_year(y: i32) -> bool {
    y % 4 == 0 && (y % 100 != 0 || y % 400 == 0)
}

impl Date {
    /// The Unix epoch, 1970-01-01.
    pub const EPOCH: Date = Date(0);

    /// First day of the exported Wikipedia infobox history (2003-01-04).
    pub const WIKI_HISTORY_START: Date = Date(12_056);

    /// Last day of the exported Wikipedia infobox history (2019-09-02).
    pub const WIKI_HISTORY_END: Date = Date(18_141);

    /// Start of the paper's training set (2004-06-05).
    pub const TRAINING_START: Date = Date(12_574);

    /// Start of the paper's test set (2018-09-01); the validation set is the
    /// 365 days immediately before this day.
    pub const TEST_START: Date = Date(17_775);

    /// Construct a date from a raw day number (days since 1970-01-01).
    pub const fn from_day_number(days: i32) -> Date {
        Date(days)
    }

    /// The raw day number (days since 1970-01-01).
    pub const fn day_number(self) -> i32 {
        self.0
    }

    /// Construct from calendar year/month/day; `None` if the combination is
    /// not a real calendar day.
    pub fn from_ymd(year: i32, month: u32, day: u32) -> Option<Date> {
        if !(1..=12).contains(&month) || day == 0 || day > days_in_month(year, month) {
            return None;
        }
        Some(Date(days_from_civil(year, month, day)))
    }

    /// Calendar `(year, month, day)` of this date.
    pub fn ymd(self) -> (i32, u32, u32) {
        civil_from_days(self.0)
    }

    /// Calendar year.
    pub fn year(self) -> i32 {
        self.ymd().0
    }

    /// Calendar month, 1-based.
    pub fn month(self) -> u32 {
        self.ymd().1
    }

    /// Calendar day of month, 1-based.
    pub fn day(self) -> u32 {
        self.ymd().2
    }

    /// Day of the week.
    pub fn weekday(self) -> Weekday {
        // 1970-01-01 was a Thursday; keep the remainder non-negative.
        match (self.0.rem_euclid(7) + 3) % 7 {
            0 => Weekday::Monday,
            1 => Weekday::Tuesday,
            2 => Weekday::Wednesday,
            3 => Weekday::Thursday,
            4 => Weekday::Friday,
            5 => Weekday::Saturday,
            _ => Weekday::Sunday,
        }
    }

    /// The date `n` days later (earlier for negative `n`).
    pub const fn plus_days(self, n: i32) -> Date {
        Date(self.0 + n)
    }

    /// Signed number of days from `other` to `self`.
    pub const fn days_since(self, other: Date) -> i32 {
        self.0 - other.0
    }

    /// Day of year, 1-based (1..=365/366).
    pub fn ordinal(self) -> u32 {
        let (y, _, _) = self.ymd();
        let jan1 = days_from_civil(y, 1, 1);
        (self.0 - jan1 + 1) as u32
    }

    /// Clamp this date into `[lo, hi]`.
    pub fn clamp(self, lo: Date, hi: Date) -> Date {
        Date(self.0.clamp(lo.0, hi.0))
    }
}

impl Add<i32> for Date {
    type Output = Date;
    fn add(self, rhs: i32) -> Date {
        self.plus_days(rhs)
    }
}

impl AddAssign<i32> for Date {
    fn add_assign(&mut self, rhs: i32) {
        self.0 += rhs;
    }
}

impl Sub<i32> for Date {
    type Output = Date;
    fn sub(self, rhs: i32) -> Date {
        self.plus_days(-rhs)
    }
}

impl SubAssign<i32> for Date {
    fn sub_assign(&mut self, rhs: i32) {
        self.0 -= rhs;
    }
}

impl Sub<Date> for Date {
    type Output = i32;
    fn sub(self, rhs: Date) -> i32 {
        self.days_since(rhs)
    }
}

impl fmt::Display for Date {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (y, m, d) = self.ymd();
        write!(f, "{y:04}-{m:02}-{d:02}")
    }
}

impl fmt::Debug for Date {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Date({self})")
    }
}

/// Error returned when parsing a [`Date`] from text fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseDateError {
    input: String,
}

impl fmt::Display for ParseDateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid date {:?}, expected YYYY-MM-DD", self.input)
    }
}

impl std::error::Error for ParseDateError {}

impl FromStr for Date {
    type Err = ParseDateError;

    /// Parse `YYYY-MM-DD`, strictly: exactly four, two, and two ASCII
    /// digits separated by `-`. Splitting on `-` and delegating to
    /// integer `parse` is not enough — `parse` accepts a leading sign,
    /// which would let `+2018-+09-+01` through.
    fn from_str(s: &str) -> Result<Date, ParseDateError> {
        let err = || ParseDateError {
            input: s.to_owned(),
        };
        let b = s.as_bytes();
        if b.len() != 10 || b[4] != b'-' || b[7] != b'-' {
            return Err(err());
        }
        let digits = |r: std::ops::Range<usize>| -> Result<u32, ParseDateError> {
            if !b[r.clone()].iter().all(u8::is_ascii_digit) {
                return Err(err());
            }
            s[r].parse().map_err(|_| err())
        };
        let y = digits(0..4)? as i32;
        let m = digits(5..7)?;
        let d = digits(8..10)?;
        Date::from_ymd(y, m, d).ok_or_else(err)
    }
}

/// A half-open range of days `[start, end)`.
///
/// Ranges are the basic vocabulary of the evaluation harness: train /
/// validation / test splits and tumbling windows are all `DateRange`s.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct DateRange {
    start: Date,
    end: Date,
}

impl DateRange {
    /// Create the half-open range `[start, end)`. `end` is clamped to be at
    /// least `start`, so an inverted input yields an empty range.
    pub fn new(start: Date, end: Date) -> DateRange {
        DateRange {
            start,
            end: if end < start { start } else { end },
        }
    }

    /// Range covering `len_days` days starting at `start`.
    pub fn with_len(start: Date, len_days: u32) -> DateRange {
        DateRange {
            start,
            end: start.plus_days(len_days as i32),
        }
    }

    /// Inclusive start day.
    pub fn start(self) -> Date {
        self.start
    }

    /// Exclusive end day.
    pub fn end(self) -> Date {
        self.end
    }

    /// Number of days covered.
    pub fn len_days(self) -> u32 {
        (self.end.0 - self.start.0) as u32
    }

    /// Whether the range covers no day at all.
    pub fn is_empty(self) -> bool {
        self.start == self.end
    }

    /// Whether `day` falls inside the range.
    pub fn contains(self, day: Date) -> bool {
        self.start <= day && day < self.end
    }

    /// Intersection with another range (possibly empty).
    pub fn intersect(self, other: DateRange) -> DateRange {
        DateRange::new(self.start.max(other.start), self.end.min(other.end))
    }

    /// Iterate over each day in the range.
    pub fn days(self) -> impl Iterator<Item = Date> {
        (self.start.0..self.end.0).map(Date)
    }

    /// Split into tumbling windows of `window_days` days each, left to
    /// right. A final window that would exceed the range is *disregarded*,
    /// matching the paper's evaluation protocol ("windows that would exceed
    /// the validation and test set limit are disregarded").
    pub fn tumbling_windows(self, window_days: u32) -> impl Iterator<Item = DateRange> {
        assert!(window_days > 0, "window size must be positive");
        let n = self.len_days() / window_days;
        let start = self.start;
        (0..n).map(move |i| {
            DateRange::with_len(start.plus_days((i * window_days) as i32), window_days)
        })
    }
}

impl fmt::Display for DateRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {})", self.start, self.end)
    }
}

impl fmt::Debug for DateRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "DateRange{self}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_is_1970() {
        assert_eq!(Date::EPOCH.ymd(), (1970, 1, 1));
        assert_eq!(Date::from_ymd(1970, 1, 1), Some(Date::EPOCH));
    }

    #[test]
    fn paper_constants_match_calendar() {
        assert_eq!(
            Date::from_ymd(2003, 1, 4).unwrap(),
            Date::WIKI_HISTORY_START
        );
        assert_eq!(Date::from_ymd(2019, 9, 2).unwrap(), Date::WIKI_HISTORY_END);
        assert_eq!(Date::from_ymd(2004, 6, 5).unwrap(), Date::TRAINING_START);
        assert_eq!(Date::from_ymd(2018, 9, 1).unwrap(), Date::TEST_START);
    }

    #[test]
    fn training_set_spans_paper_day_count() {
        // Paper §5.1: "a training set of 4,835 days beginning June 5, 2004"
        // up to the validation set, which starts 730 days before the end of
        // the test year.
        let validation_start = Date::TEST_START - 365;
        assert_eq!(validation_start - Date::TRAINING_START, 4_836);
        // The training range [2004-06-05, validation_start) has 4,836 days;
        // the paper counts 4,835, i.e. an inclusive-exclusive off-by-one in
        // the prose. We standardize on half-open ranges.
    }

    #[test]
    fn ymd_round_trip_sample() {
        for &(y, m, d) in &[
            (2000, 2, 29),
            (1999, 12, 31),
            (2019, 9, 2),
            (1970, 1, 1),
            (1969, 12, 31),
            (1600, 3, 1),
            (2400, 2, 29),
        ] {
            let date = Date::from_ymd(y, m, d).unwrap();
            assert_eq!(date.ymd(), (y, m, d), "round trip for {y}-{m}-{d}");
        }
    }

    #[test]
    fn rejects_invalid_dates() {
        assert_eq!(Date::from_ymd(2019, 2, 29), None);
        assert_eq!(Date::from_ymd(2019, 0, 1), None);
        assert_eq!(Date::from_ymd(2019, 13, 1), None);
        assert_eq!(Date::from_ymd(2019, 4, 31), None);
        assert_eq!(Date::from_ymd(2100, 2, 29), None); // not a leap year
        assert!(Date::from_ymd(2000, 2, 29).is_some()); // leap century
    }

    #[test]
    fn weekday_known_values() {
        assert_eq!(Date::EPOCH.weekday(), Weekday::Thursday);
        // 2019-09-02 was a Monday.
        assert_eq!(Date::WIKI_HISTORY_END.weekday(), Weekday::Monday);
        // 2003-01-04 was a Saturday.
        assert_eq!(Date::WIKI_HISTORY_START.weekday(), Weekday::Saturday);
        assert_eq!(Weekday::Monday.iso_number(), 1);
        assert_eq!(Weekday::Sunday.iso_number(), 7);
    }

    #[test]
    fn weekday_negative_days() {
        // 1969-12-31 was a Wednesday.
        assert_eq!(Date::from_day_number(-1).weekday(), Weekday::Wednesday);
    }

    #[test]
    fn display_and_parse() {
        let d = Date::from_ymd(2018, 9, 1).unwrap();
        assert_eq!(d.to_string(), "2018-09-01");
        assert_eq!("2018-09-01".parse::<Date>().unwrap(), d);
        assert!("2018-13-01".parse::<Date>().is_err());
        assert!("hello".parse::<Date>().is_err());
        assert!("2018-09".parse::<Date>().is_err());
    }

    /// Signed or mis-shaped components must not parse: the previous
    /// `splitn` + `parse` implementation accepted `+2018-+09-+01`.
    #[test]
    fn parse_rejects_signed_and_loose_components() {
        assert!("+2018-+09-+01".parse::<Date>().is_err());
        assert!("+2018-09-01".parse::<Date>().is_err());
        assert!("2018-+9-01".parse::<Date>().is_err());
        assert!("2018-9-1".parse::<Date>().is_err()); // must be zero-padded
        assert!("02018-09-01".parse::<Date>().is_err());
        assert!("2018-09-011".parse::<Date>().is_err());
        assert!(" 2018-09-01".parse::<Date>().is_err());
        assert!("2018-09-01 ".parse::<Date>().is_err());
        assert_eq!(
            "0001-01-01".parse::<Date>().unwrap(),
            Date::from_ymd(1, 1, 1).unwrap()
        );
    }

    #[test]
    fn ordinal_day_of_year() {
        assert_eq!(Date::from_ymd(2019, 1, 1).unwrap().ordinal(), 1);
        assert_eq!(Date::from_ymd(2019, 12, 31).unwrap().ordinal(), 365);
        assert_eq!(Date::from_ymd(2020, 12, 31).unwrap().ordinal(), 366);
    }

    #[test]
    fn arithmetic_operators() {
        let d = Date::from_ymd(2018, 9, 1).unwrap();
        assert_eq!((d + 365).to_string(), "2019-09-01");
        assert_eq!((d - 1).to_string(), "2018-08-31");
        assert_eq!((d + 365) - d, 365);
        let mut m = d;
        m += 30;
        assert_eq!(m.to_string(), "2018-10-01");
        m -= 30;
        assert_eq!(m, d);
    }

    #[test]
    fn range_basics() {
        let start = Date::from_ymd(2018, 9, 1).unwrap();
        let r = DateRange::with_len(start, 365);
        assert_eq!(r.len_days(), 365);
        assert!(r.contains(start));
        assert!(r.contains(start + 364));
        assert!(!r.contains(start + 365));
        assert!(!r.contains(start - 1));
        assert!(!r.is_empty());
        assert!(DateRange::new(start, start).is_empty());
        // Inverted inputs collapse to empty.
        assert!(DateRange::new(start, start - 10).is_empty());
    }

    #[test]
    fn range_intersection() {
        let a = DateRange::with_len(Date::EPOCH, 100);
        let b = DateRange::with_len(Date::EPOCH + 50, 100);
        let i = a.intersect(b);
        assert_eq!(i.start(), Date::EPOCH + 50);
        assert_eq!(i.len_days(), 50);
        let disjoint = DateRange::with_len(Date::EPOCH + 500, 10);
        assert!(a.intersect(disjoint).is_empty());
    }

    #[test]
    fn tumbling_windows_match_paper_counts() {
        // Paper §5.1: a 365-day test year yields 365 one-day, 52 seven-day,
        // 12 thirty-day, and 1 yearly window (incomplete trailing windows
        // are disregarded).
        let year = DateRange::with_len(Date::TEST_START, 365);
        assert_eq!(year.tumbling_windows(1).count(), 365);
        assert_eq!(year.tumbling_windows(7).count(), 52);
        assert_eq!(year.tumbling_windows(30).count(), 12);
        assert_eq!(year.tumbling_windows(365).count(), 1);
        let total: usize = [1u32, 7, 30, 365]
            .iter()
            .map(|&w| year.tumbling_windows(w).count())
            .sum();
        assert_eq!(total, 430);
    }

    #[test]
    fn tumbling_windows_are_contiguous() {
        let year = DateRange::with_len(Date::TEST_START, 365);
        let mut prev_end = year.start();
        for w in year.tumbling_windows(30) {
            assert_eq!(w.start(), prev_end);
            assert_eq!(w.len_days(), 30);
            prev_end = w.end();
        }
        assert!(prev_end <= year.end());
    }

    #[test]
    fn days_iterator() {
        let r = DateRange::with_len(Date::EPOCH, 3);
        let days: Vec<String> = r.days().map(|d| d.to_string()).collect();
        assert_eq!(days, ["1970-01-01", "1970-01-02", "1970-01-03"]);
    }

    #[test]
    fn clamp_date() {
        let lo = Date::EPOCH;
        let hi = Date::EPOCH + 10;
        assert_eq!((Date::EPOCH - 5).clamp(lo, hi), lo);
        assert_eq!((Date::EPOCH + 15).clamp(lo, hi), hi);
        assert_eq!((Date::EPOCH + 5).clamp(lo, hi), Date::EPOCH + 5);
    }

    #[test]
    fn leap_year_rules() {
        assert!(is_leap_year(2000));
        assert!(is_leap_year(2004));
        assert!(!is_leap_year(1900));
        assert!(!is_leap_year(2019));
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Day number ↔ calendar round trip over ±500 years.
            #[test]
            fn prop_day_number_round_trip(n in -182_000i32..182_000) {
                let d = Date::from_day_number(n);
                let (y, m, dd) = d.ymd();
                prop_assert_eq!(Date::from_ymd(y, m, dd), Some(d));
                prop_assert_eq!(d.day_number(), n);
            }

            /// Display ↔ parse round trip.
            #[test]
            fn prop_display_parse_round_trip(n in -100_000i32..100_000) {
                let d = Date::from_day_number(n);
                prop_assert_eq!(d.to_string().parse::<Date>(), Ok(d));
            }

            /// Successive days differ by exactly one calendar position.
            #[test]
            fn prop_successor_is_calendar_successor(n in -50_000i32..50_000) {
                let today = Date::from_day_number(n);
                let tomorrow = today + 1;
                prop_assert_eq!(tomorrow - today, 1);
                let (y, m, d) = today.ymd();
                let (y2, m2, d2) = tomorrow.ymd();
                let same_month = y2 == y && m2 == m && d2 == d + 1;
                let next_month = y2 == y && m2 == m + 1 && d2 == 1;
                let next_year = y2 == y + 1 && m2 == 1 && d2 == 1;
                prop_assert!(same_month || next_month || next_year);
                // Weekdays cycle.
                let wd = today.weekday().iso_number() % 7 + 1;
                prop_assert_eq!(tomorrow.weekday().iso_number(), wd);
            }

            /// Tumbling windows tile the range without gaps or overlaps.
            #[test]
            fn prop_tumbling_windows_tile(len in 1u32..800, w in 1u32..100) {
                let range = DateRange::with_len(Date::EPOCH, len);
                let windows: Vec<DateRange> = range.tumbling_windows(w).collect();
                prop_assert_eq!(windows.len() as u32, len / w);
                for (i, win) in windows.iter().enumerate() {
                    prop_assert_eq!(win.len_days(), w);
                    prop_assert_eq!(win.start(), range.start() + (i as u32 * w) as i32);
                    prop_assert!(win.end() <= range.end());
                }
            }
        }
    }
}
