//! Summary indices (paper §4.3; "small materialized aggregates" \[12\]).
//!
//! For a column that is clustered (almost sorted), MonetDB/X100 keeps a
//! coarse-granularity index of `(#rowId, running max, reversely running
//! min)` entries — by default one entry per 1000 rows. Range predicates
//! then derive `#rowId` bounds cheaply:
//!
//! * rows **before** the first entry whose *running max* reaches `lo`
//!   cannot satisfy `col >= lo`;
//! * rows **after** the last entry whose *reverse running min* is below
//!   `hi` cannot satisfy `col <= hi`.
//!
//! Read the other way round, the same entries prove where a range
//! predicate *certainly* holds ([`SummaryIndex::certain_range`]): every
//! row of a prefix whose running max is at most `hi` satisfies
//! `col <= hi`, every row of a suffix whose reverse running min is at
//! least `lo` satisfies `col >= lo`.
//!
//! Because vertical fragments are immutable, summary indices require no
//! maintenance; delta columns are small and always scanned.

/// Default number of rows per summary entry.
pub const DEFAULT_GRANULARITY: usize = 1000;

/// One summary entry: statistics over all rows up to (and from) a row id.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Entry {
    /// First row id of the *next* granule (i.e. this entry covers rows `< row`).
    row: u32,
    /// Maximum of the column over rows `0..row` (running max).
    running_max: i64,
    /// Minimum of the column over rows `row_prev..n` (reversely running min).
    reverse_min: i64,
}

/// A summary index over an `i64`-comparable clustered column
/// (dates are `i32` days, widened as they are read; decimals are scaled
/// `i64`).
#[derive(Debug, Clone, PartialEq)]
pub struct SummaryIndex {
    entries: Vec<Entry>,
    granularity: usize,
    rows: usize,
}

impl SummaryIndex {
    /// Build over `col` with the default granularity.
    pub fn build<T: Copy + Into<i64>>(col: &[T]) -> Self {
        Self::build_with_granularity(col, DEFAULT_GRANULARITY)
    }

    /// Build over `col`, one entry per `granularity` rows.
    pub fn build_with_granularity<T: Copy + Into<i64>>(col: &[T], granularity: usize) -> Self {
        assert!(granularity > 0, "granularity must be positive");
        let n = col.len();
        let nent = n.div_ceil(granularity);
        let mut entries = Vec::with_capacity(nent);
        // Forward pass: running max at each granule boundary.
        let mut running_max = i64::MIN;
        let mut idx = 0usize;
        for g in 0..nent {
            let end = ((g + 1) * granularity).min(n);
            while idx < end {
                running_max = running_max.max(col[idx].into());
                idx += 1;
            }
            entries.push(Entry {
                row: end as u32,
                running_max,
                reverse_min: i64::MAX,
            });
        }
        // Backward pass: reverse running min from each granule start to the end.
        let mut reverse_min = i64::MAX;
        let mut idx = n;
        for g in (0..nent).rev() {
            let start = g * granularity;
            while idx > start {
                idx -= 1;
                reverse_min = reverse_min.min(col[idx].into());
            }
            entries[g].reverse_min = reverse_min;
        }
        SummaryIndex {
            entries,
            granularity,
            rows: n,
        }
    }

    /// Number of summary entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the index covers no rows.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Rows per entry.
    pub fn granularity(&self) -> usize {
        self.granularity
    }

    /// Derive a conservative `[start_row, end_row)` range that contains
    /// every row satisfying `lo <= col[row] <= hi` (either bound may be
    /// `None` for an open interval).
    ///
    /// The range is *conservative*: rows inside it may still fail the
    /// predicate (the scan re-checks), but no qualifying row lies outside.
    pub fn range_candidates(&self, lo: Option<i64>, hi: Option<i64>) -> (usize, usize) {
        if self.rows == 0 {
            return (0, 0);
        }
        // Leading granules whose running max is still < lo can be skipped:
        // find the first entry with running_max >= lo; qualifying rows can
        // first appear in that granule.
        let start = match lo {
            None => 0,
            Some(lo) => {
                let g = self.entries.partition_point(|e| e.running_max < lo);
                g * self.granularity
            }
        };
        // Trailing granules whose reverse running min is > hi can be
        // skipped: find the last entry with reverse_min <= hi.
        let end = match hi {
            None => self.rows,
            Some(hi) => {
                // entries[g].reverse_min is the min over rows from granule
                // g's start to the end; it is non-decreasing in g.
                let g = self.entries.partition_point(|e| e.reverse_min <= hi);
                // Granules 0..g have some row <= hi *somewhere after their
                // start*; granule g onwards has none.
                (g * self.granularity).min(self.rows)
            }
        };
        (start.min(self.rows), end.max(start).min(self.rows))
    }

    /// Derive the `[start_row, end_row)` range in which *every* row
    /// satisfies `lo <= col[row] <= hi` (either bound may be `None`) —
    /// the other side of [`Self::range_candidates`]:
    ///
    /// * for an upper bound, the prefix of granules whose running max is
    ///   at most `hi`;
    /// * for a lower bound, the suffix of granules whose reverse running
    ///   min is at least `lo`.
    ///
    /// The range is *certain*, not tight: rows outside it may qualify
    /// too, but none inside fails. It is empty (`start == end`) when no
    /// granule is proven.
    pub fn certain_range(&self, lo: Option<i64>, hi: Option<i64>) -> (usize, usize) {
        // entries[g].reverse_min covers rows from granule g's start to the
        // end and is non-decreasing in g: from the first granule whose
        // minimum reaches `lo`, every row does.
        let start = match lo {
            None => 0,
            Some(lo) => self.entries.partition_point(|e| e.reverse_min < lo) * self.granularity,
        };
        // entries[g].running_max covers rows `0..entries[g].row` and is
        // non-decreasing in g: up to the last granule whose maximum is
        // still within `hi`, every row is.
        let end = match hi {
            None => self.rows,
            Some(hi) => self.entries.partition_point(|e| e.running_max <= hi) * self.granularity,
        };
        let start = start.min(self.rows);
        (start, end.min(self.rows).max(start))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_conservative(col: &[i64], idx: &SummaryIndex, lo: Option<i64>, hi: Option<i64>) {
        let (s, e) = idx.range_candidates(lo, hi);
        for (i, &v) in col.iter().enumerate() {
            let qualifies = lo.is_none_or(|lo| v >= lo) && hi.is_none_or(|hi| v <= hi);
            if qualifies {
                assert!(
                    s <= i && i < e,
                    "row {i} (v={v}) outside candidate range [{s},{e}) for {lo:?}..{hi:?}"
                );
            }
        }
    }

    /// Every row inside the certain range qualifies (the mirror of
    /// [`check_conservative`]), and the range lies inside the candidate
    /// range.
    fn check_certain(col: &[i64], idx: &SummaryIndex, lo: Option<i64>, hi: Option<i64>) {
        let (s, e) = idx.certain_range(lo, hi);
        assert!(s <= e && e <= col.len(), "[{s},{e}) of {}", col.len());
        for (i, &v) in col.iter().enumerate().take(e).skip(s) {
            let qualifies = lo.is_none_or(|lo| v >= lo) && hi.is_none_or(|hi| v <= hi);
            assert!(
                qualifies,
                "row {i} (v={v}) inside certain range [{s},{e}) fails {lo:?}..{hi:?}"
            );
        }
        let (cs, ce) = idx.range_candidates(lo, hi);
        assert!(
            s == e || (cs <= s && e <= ce),
            "[{s},{e}) outside [{cs},{ce})"
        );
    }

    #[test]
    fn certain_range_on_a_sorted_column_is_granule_tight() {
        let col: Vec<i64> = (0..10_000).collect();
        let idx = SummaryIndex::build_with_granularity(&col, 100);
        assert_eq!(idx.certain_range(None, Some(5_049)), (0, 5_000));
        assert_eq!(idx.certain_range(None, Some(5_099)), (0, 5_100));
        assert_eq!(idx.certain_range(Some(5_001), None), (5_100, 10_000));
        assert_eq!(idx.certain_range(Some(5_000), None), (5_000, 10_000));
        assert_eq!(idx.certain_range(Some(2_000), Some(7_999)), (2_000, 8_000));
        for (lo, hi) in [
            (None, Some(5_049)),
            (Some(5_001), None),
            (Some(2_050), Some(7_949)),
            (Some(4_000), Some(3_000)),
        ] {
            check_certain(&col, &idx, lo, hi);
        }
    }

    #[test]
    fn certain_range_on_an_almost_sorted_column() {
        let mut col: Vec<i64> = (0..5000).collect();
        for c in col.chunks_mut(37) {
            c.reverse();
        }
        let idx = SummaryIndex::build_with_granularity(&col, 64);
        for (lo, hi) in [
            (None, Some(100)),
            (None, Some(3_000)),
            (Some(4_900), None),
            (Some(1_000), None),
            (Some(1_000), Some(1_200)),
            (Some(1_000), Some(4_000)),
            (None, None),
        ] {
            check_certain(&col, &idx, lo, hi);
        }
        let (s, e) = idx.certain_range(None, Some(3_000));
        assert!(s == 0 && e > 2_800, "[{s},{e})");
    }

    #[test]
    fn certain_range_on_an_unsorted_column_is_empty() {
        // The extremes sit in the first and last granule: no prefix stays
        // below a bound, no suffix above one.
        let mut col: Vec<i64> = (0..1000).collect();
        col[0] = 999_999;
        col[999] = -999_999;
        let idx = SummaryIndex::build_with_granularity(&col, 100);
        for (lo, hi) in [(Some(500), Some(600)), (None, Some(998)), (Some(1), None)] {
            let (s, e) = idx.certain_range(lo, hi);
            assert_eq!(s, e, "{lo:?}..{hi:?}");
            check_certain(&col, &idx, lo, hi);
        }
    }

    #[test]
    fn certain_range_open_ended() {
        let col: Vec<i64> = (0..1000).collect();
        let idx = SummaryIndex::build_with_granularity(&col, 10);
        assert_eq!(idx.certain_range(None, None), (0, 1000));
        // Bounds every row meets prove the whole column.
        assert_eq!(idx.certain_range(Some(-5), None), (0, 1000));
        assert_eq!(idx.certain_range(None, Some(5_000)), (0, 1000));
        // Bounds no row meets prove nothing.
        let (s, e) = idx.certain_range(Some(1_000), None);
        assert_eq!(s, e);
        let (s, e) = idx.certain_range(None, Some(-1));
        assert_eq!(s, e);
        // A partial last granule is proven up to the last row.
        let col: Vec<i64> = (0..995).collect();
        let idx = SummaryIndex::build_with_granularity(&col, 10);
        assert_eq!(idx.certain_range(Some(990), None), (990, 995));
        check_certain(&col, &idx, Some(985), None);
    }

    #[test]
    fn certain_range_on_empty_and_one_row_columns() {
        let idx = SummaryIndex::build::<i64>(&[]);
        assert_eq!(idx.certain_range(None, None), (0, 0));
        assert_eq!(idx.certain_range(Some(0), Some(10)), (0, 0));
        let idx = SummaryIndex::build(&[42i64]);
        assert_eq!(idx.certain_range(Some(0), Some(100)), (0, 1));
        assert_eq!(idx.certain_range(Some(42), Some(42)), (0, 1));
        let (s, e) = idx.certain_range(Some(43), Some(100));
        assert_eq!(s, e);
        let (s, e) = idx.certain_range(None, Some(41));
        assert_eq!(s, e);
        for (lo, hi) in [(Some(0), Some(100)), (Some(43), None), (None, Some(41))] {
            check_certain(&[42], &idx, lo, hi);
        }
    }

    #[test]
    fn sorted_column_prunes_tightly() {
        let col: Vec<i64> = (0..10_000).collect();
        let idx = SummaryIndex::build_with_granularity(&col, 100);
        let (s, e) = idx.range_candidates(Some(5000), Some(5999));
        assert!(s <= 5000 && e >= 6000);
        // Pruning is granule-tight.
        assert!(s >= 4900, "start {s}");
        assert!(e <= 6100, "end {e}");
        check_conservative(&col, &idx, Some(5000), Some(5999));
    }

    #[test]
    fn almost_sorted_column_still_conservative() {
        // Clustered but locally shuffled, like lineitem kept clustered on
        // the orders date sort.
        let mut col: Vec<i64> = (0..5000).collect();
        for c in col.chunks_mut(37) {
            c.reverse();
        }
        let idx = SummaryIndex::build_with_granularity(&col, 64);
        for (lo, hi) in [
            (None, Some(100)),
            (Some(4900), None),
            (Some(1000), Some(1200)),
            (None, None),
        ] {
            check_conservative(&col, &idx, lo, hi);
        }
    }

    #[test]
    fn unsorted_column_degenerates_to_full_scan() {
        // A value at each extreme in first/last granule defeats pruning —
        // but the result must stay conservative, never wrong.
        let mut col: Vec<i64> = (0..1000).collect();
        col[0] = 999_999;
        col[999] = -999_999;
        let idx = SummaryIndex::build_with_granularity(&col, 100);
        check_conservative(&col, &idx, Some(500), Some(600));
    }

    #[test]
    fn open_ranges() {
        let col: Vec<i64> = (0..1000).collect();
        let idx = SummaryIndex::build_with_granularity(&col, 10);
        assert_eq!(idx.range_candidates(None, None), (0, 1000));
        let (s, _) = idx.range_candidates(Some(990), None);
        assert!((980..=990).contains(&s));
        let (_, e) = idx.range_candidates(None, Some(9));
        assert!((10..=20).contains(&e));
    }

    #[test]
    fn empty_and_tiny_columns() {
        let idx = SummaryIndex::build::<i64>(&[]);
        assert!(idx.is_empty());
        assert_eq!(idx.range_candidates(Some(0), Some(10)), (0, 0));
        let idx = SummaryIndex::build(&[42i64]);
        assert_eq!(idx.len(), 1);
        check_conservative(&[42], &idx, Some(0), Some(100));
        check_conservative(&[42], &idx, Some(43), Some(100));
    }

    #[test]
    fn out_of_range_predicates() {
        let col: Vec<i64> = (100..200).collect();
        let idx = SummaryIndex::build_with_granularity(&col, 10);
        // Entirely above the data: candidate range is empty or near-empty.
        let (s, e) = idx.range_candidates(Some(1000), None);
        assert_eq!(s, e, "no rows should qualify: [{s},{e})");
        // Entirely below the data.
        let (s2, e2) = idx.range_candidates(None, Some(0));
        assert_eq!(s2, e2);
    }

    #[test]
    fn i32_build_equals_widened_build() {
        let col: Vec<i32> = (0..2500).map(|i| (i * 7919) % 3001 - 1500).collect();
        let wide: Vec<i64> = col.iter().map(|&x| x.into()).collect();
        assert_eq!(
            SummaryIndex::build_with_granularity(&col, 64),
            SummaryIndex::build_with_granularity(&wide, 64)
        );
    }

    #[test]
    fn default_granularity_is_1000() {
        let col: Vec<i64> = (0..2500).collect();
        let idx = SummaryIndex::build(&col);
        assert_eq!(idx.granularity(), 1000);
        assert_eq!(idx.len(), 3);
    }
}
