//! Scalar types and constant values used throughout the X100 engine.
//!
//! X100 operates on a small closed set of machine-friendly scalar types,
//! mirroring the paper's primitive type lattice (`uchr`, `usht`, `uidx`,
//! `sint`, `slng`, `flt`/`dbl`, `str`, dates). Dates are stored as `i32`
//! days since 1970-01-01; fixed-point decimals as `i64` scaled by 100.

use std::fmt;

/// The scalar types a [`crate::Vector`] can carry.
///
/// The names follow the Rust machine types rather than the paper's
/// abbreviations; the correspondence is noted on each variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScalarType {
    /// 8-bit signed integer.
    I8,
    /// 16-bit signed integer.
    I16,
    /// 32-bit signed integer (the paper's `sint`). Also used for dates.
    I32,
    /// 64-bit signed integer (the paper's `slng`). Also used for scaled decimals.
    I64,
    /// 8-bit unsigned integer (the paper's `uchr`), used for enum codes and flags.
    U8,
    /// 16-bit unsigned integer (the paper's `usht`), used for wide enum codes.
    U16,
    /// 32-bit unsigned integer (the paper's `uidx`), used for row ids / positions.
    U32,
    /// 64-bit unsigned integer, used for hash values.
    U64,
    /// 64-bit IEEE float (the paper's `dbl`; Q1's plan uses `flt`, we use f64).
    F64,
    /// Boolean, materialized as one byte per value.
    Bool,
    /// Variable-length UTF-8 string.
    Str,
}

impl ScalarType {
    /// Width in bytes of one value of this type as stored in a vector.
    ///
    /// Strings report the pointer-free *average* accounting width of 16
    /// bytes (offset + heap bytes estimate); exact byte accounting for
    /// strings is done by the vectors themselves.
    pub fn width(self) -> usize {
        match self {
            ScalarType::I8 | ScalarType::U8 | ScalarType::Bool => 1,
            ScalarType::I16 | ScalarType::U16 => 2,
            ScalarType::I32 | ScalarType::U32 => 4,
            ScalarType::I64 | ScalarType::U64 | ScalarType::F64 => 8,
            ScalarType::Str => 16,
        }
    }

    /// True for the integer types (signed or unsigned).
    pub fn is_integer(self) -> bool {
        !matches!(self, ScalarType::F64 | ScalarType::Bool | ScalarType::Str)
    }

    /// True for numeric types usable in arithmetic maps.
    pub fn is_numeric(self) -> bool {
        self.is_integer() || self == ScalarType::F64
    }

    /// Short lowercase name used in primitive signatures
    /// (e.g. `map_add_f64_col_f64_col`).
    pub fn sig_name(self) -> &'static str {
        match self {
            ScalarType::I8 => "i8",
            ScalarType::I16 => "i16",
            ScalarType::I32 => "i32",
            ScalarType::I64 => "i64",
            ScalarType::U8 => "u8",
            ScalarType::U16 => "u16",
            ScalarType::U32 => "u32",
            ScalarType::U64 => "u64",
            ScalarType::F64 => "f64",
            ScalarType::Bool => "bool",
            ScalarType::Str => "str",
        }
    }
}

impl fmt::Display for ScalarType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.sig_name())
    }
}

/// A single constant value, used for literals in expressions and for
/// rendering query results.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    I8(i8),
    I16(i16),
    I32(i32),
    I64(i64),
    U8(u8),
    U16(u16),
    U32(u32),
    U64(u64),
    F64(f64),
    Bool(bool),
    Str(String),
}

impl Value {
    /// The [`ScalarType`] of this value.
    pub fn scalar_type(&self) -> ScalarType {
        match self {
            Value::I8(_) => ScalarType::I8,
            Value::I16(_) => ScalarType::I16,
            Value::I32(_) => ScalarType::I32,
            Value::I64(_) => ScalarType::I64,
            Value::U8(_) => ScalarType::U8,
            Value::U16(_) => ScalarType::U16,
            Value::U32(_) => ScalarType::U32,
            Value::U64(_) => ScalarType::U64,
            Value::F64(_) => ScalarType::F64,
            Value::Bool(_) => ScalarType::Bool,
            Value::Str(_) => ScalarType::Str,
        }
    }

    /// Lossy conversion to `f64`, for numeric values.
    ///
    /// # Panics
    /// Panics on `Str` values.
    pub fn as_f64(&self) -> f64 {
        match self {
            Value::I8(v) => *v as f64,
            Value::I16(v) => *v as f64,
            Value::I32(v) => *v as f64,
            Value::I64(v) => *v as f64,
            Value::U8(v) => *v as f64,
            Value::U16(v) => *v as f64,
            Value::U32(v) => *v as f64,
            Value::U64(v) => *v as f64,
            Value::F64(v) => *v,
            Value::Bool(v) => *v as u8 as f64,
            Value::Str(_) => panic!("Value::as_f64 on a string"),
        }
    }

    /// Conversion to `i64` for integer values.
    ///
    /// # Panics
    /// Panics on `F64`, `Str`.
    pub fn as_i64(&self) -> i64 {
        match self {
            Value::I8(v) => *v as i64,
            Value::I16(v) => *v as i64,
            Value::I32(v) => *v as i64,
            Value::I64(v) => *v,
            Value::U8(v) => *v as i64,
            Value::U16(v) => *v as i64,
            Value::U32(v) => *v as i64,
            Value::U64(v) => *v as i64,
            Value::Bool(v) => *v as i64,
            Value::F64(_) | Value::Str(_) => panic!("Value::as_i64 on a non-integer"),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::I8(v) => write!(f, "{v}"),
            Value::I16(v) => write!(f, "{v}"),
            Value::I32(v) => write!(f, "{v}"),
            Value::I64(v) => write!(f, "{v}"),
            Value::U8(v) => write!(f, "{v}"),
            Value::U16(v) => write!(f, "{v}"),
            Value::U32(v) => write!(f, "{v}"),
            Value::U64(v) => write!(f, "{v}"),
            Value::F64(v) => write!(f, "{v:.4}"),
            Value::Bool(v) => write!(f, "{v}"),
            Value::Str(v) => write!(f, "{v}"),
        }
    }
}

/// Date helpers: X100 stores dates as `i32` days since the Unix epoch.
pub mod date {
    /// Days in each month of a non-leap year.
    const MDAYS: [i64; 12] = [31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31];

    fn is_leap(y: i64) -> bool {
        (y % 4 == 0 && y % 100 != 0) || y % 400 == 0
    }

    /// Convert a calendar date to days since 1970-01-01.
    ///
    /// Valid for years 1900..=2199, which covers the TPC-H date range
    /// (1992-01-01 .. 1998-12-31).
    #[allow(clippy::needless_range_loop)] // month arithmetic reads better indexed
    pub fn to_days(year: i32, month: u32, day: u32) -> i32 {
        assert!((1..=12).contains(&month), "month out of range: {month}");
        assert!((1..=31).contains(&day), "day out of range: {day}");
        let y = year as i64;
        // Days contributed by whole years since 1970.
        let mut days: i64 = 0;
        if y >= 1970 {
            for yy in 1970..y {
                days += if is_leap(yy) { 366 } else { 365 };
            }
        } else {
            for yy in y..1970 {
                days -= if is_leap(yy) { 366 } else { 365 };
            }
        }
        for m in 0..(month - 1) as usize {
            days += MDAYS[m];
            if m == 1 && is_leap(y) {
                days += 1;
            }
        }
        days += day as i64 - 1;
        days as i32
    }

    /// Convert days since 1970-01-01 back to `(year, month, day)`.
    ///
    /// Closed form (no loop over years or months): shift the epoch to
    /// 0000-03-01 so a 400-year era is exactly 146 097 days and leap
    /// days fall at the end of a March-based year, then peel era, year
    /// of era and month by division.
    #[inline]
    pub fn from_days(days: i32) -> (i32, u32, u32) {
        let z = days as i64 + 719_468; // days since 0000-03-01
        let era = z.div_euclid(146_097);
        let doe = z.rem_euclid(146_097); // day of era, [0, 146096]
        let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365; // [0, 399]
        let doy = doe - (365 * yoe + yoe / 4 - yoe / 100); // March-based, [0, 365]
        let mp = (5 * doy + 2) / 153; // March = 0
        let day = doy - (153 * mp + 2) / 5 + 1;
        let month = if mp < 10 { mp + 3 } else { mp - 9 };
        let year = yoe + era * 400 + i64::from(month <= 2);
        (year as i32, month as u32, day as u32)
    }

    /// Render days-since-epoch as `YYYY-MM-DD`.
    pub fn format(days: i32) -> String {
        let (y, m, d) = from_days(days);
        std::format!("{y:04}-{m:02}-{d:02}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn widths() {
        assert_eq!(ScalarType::I8.width(), 1);
        assert_eq!(ScalarType::U16.width(), 2);
        assert_eq!(ScalarType::I32.width(), 4);
        assert_eq!(ScalarType::F64.width(), 8);
    }

    #[test]
    fn type_predicates() {
        assert!(ScalarType::I64.is_integer());
        assert!(!ScalarType::F64.is_integer());
        assert!(ScalarType::F64.is_numeric());
        assert!(!ScalarType::Str.is_numeric());
        assert!(!ScalarType::Bool.is_numeric());
    }

    #[test]
    fn value_roundtrips() {
        assert_eq!(Value::I32(42).as_i64(), 42);
        assert_eq!(Value::F64(1.5).as_f64(), 1.5);
        assert_eq!(Value::U8(7).scalar_type(), ScalarType::U8);
        assert_eq!(Value::Str("x".into()).scalar_type(), ScalarType::Str);
    }

    #[test]
    fn date_epoch() {
        assert_eq!(date::to_days(1970, 1, 1), 0);
        assert_eq!(date::to_days(1970, 1, 2), 1);
        assert_eq!(date::to_days(1970, 2, 1), 31);
        assert_eq!(date::to_days(1971, 1, 1), 365);
    }

    #[test]
    fn date_tpch_range() {
        // The paper's Q1 predicate date.
        let d = date::to_days(1998, 9, 2);
        assert_eq!(date::format(d), "1998-09-02");
        let lo = date::to_days(1992, 1, 1);
        let hi = date::to_days(1998, 12, 31);
        assert!(lo < d && d < hi);
    }

    #[test]
    fn date_leap_years() {
        assert_eq!(date::to_days(1972, 3, 1) - date::to_days(1972, 2, 1), 29);
        assert_eq!(date::to_days(1973, 3, 1) - date::to_days(1973, 2, 1), 28);
        // 2000 is a leap year (divisible by 400).
        assert_eq!(date::to_days(2000, 3, 1) - date::to_days(2000, 2, 1), 29);
        // 1900 is not (divisible by 100 but not 400).
        assert_eq!(date::to_days(1900, 3, 1) - date::to_days(1900, 2, 1), 28);
    }

    #[test]
    fn date_roundtrip_exhaustive_decade() {
        for days in date::to_days(1992, 1, 1)..=date::to_days(2002, 12, 31) {
            let (y, m, d) = date::from_days(days);
            assert_eq!(date::to_days(y, m, d), days, "roundtrip failed at {days}");
        }
    }

    /// The year-by-year, month-by-month walk `from_days` used to be: the
    /// reference its closed form must agree with.
    fn from_days_by_walking(mut days: i32) -> (i32, u32, u32) {
        let is_leap = |y: i32| (y % 4 == 0 && y % 100 != 0) || y % 400 == 0;
        let mut year = 1970;
        loop {
            let ylen = if is_leap(year) { 366 } else { 365 };
            if days >= ylen {
                days -= ylen;
                year += 1;
            } else if days < 0 {
                year -= 1;
                days += if is_leap(year) { 366 } else { 365 };
            } else {
                break;
            }
        }
        let mut month = 1u32;
        for (m, len) in [31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31]
            .into_iter()
            .enumerate()
        {
            let len = len + i32::from(m == 1 && is_leap(year));
            if days < len {
                break;
            }
            days -= len;
            month += 1;
        }
        (year, month, days as u32 + 1)
    }

    #[test]
    fn from_days_closed_form_matches_the_walk_over_800_years() {
        // Every day of 1570-01-01 ..= 2370-12-31: two full 400-year
        // eras, so every leap-day boundary (and both kinds of century)
        // is crossed.
        let (lo, hi) = (date::to_days(1570, 1, 1), date::to_days(2370, 12, 31));
        assert!(lo < -146_000 && hi > 146_000);
        for days in lo..=hi {
            let want = from_days_by_walking(days);
            assert_eq!(date::from_days(days), want, "day {days}");
        }
        for year in 1570..=2370 {
            let feb28 = date::to_days(year, 2, 28);
            let leap = (year % 4 == 0 && year % 100 != 0) || year % 400 == 0;
            let next = if leap { (year, 2, 29) } else { (year, 3, 1) };
            assert_eq!(date::from_days(feb28 + 1), next, "leap boundary of {year}");
        }
    }

    #[test]
    fn date_negative_days_before_epoch() {
        let d = date::to_days(1969, 12, 31);
        assert_eq!(d, -1);
        assert_eq!(date::from_days(-1), (1969, 12, 31));
        assert_eq!(date::from_days(date::to_days(1960, 6, 15)), (1960, 6, 15));
    }
}
