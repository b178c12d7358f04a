//! `merge_*` primitives: the cursor advance of a merge join.
//!
//! The paper picks ordered aggregation "if all group-members will
//! arrive right after each other" (§4.1.2); a join of two inputs sorted
//! on its key is the same choice one operator later: instead of hashing
//! one side, both are walked in step. Each side advances with one
//! kernel. From a cursor into a non-decreasing key sequence — a dense
//! vector, or its live positions under a selection — it skips the keys
//! below a bound `v` and then the keys equal to it, and returns both
//! stops. On the probe side the first stretch is the keys the current
//! build run is above (misses) and the second the keys it matches; on
//! the build side the first is what no probe key reaches and the second
//! the run of the next probe key.
//!
//! Both stretches are found by galloping (probe 1, 2, 4, … ahead, then
//! bisect the last step), so a cursor that moves one slot costs one
//! comparison and one that skips a whole vector a logarithm of it.

use crate::sel::SelVec;

/// The first index in `[from, end)` whose key is not `below` (`end`
/// when all are). `below` must hold on a prefix of the range only.
#[inline(always)]
fn gallop(from: usize, end: usize, below: impl Fn(usize) -> bool) -> usize {
    let (mut lo, mut step) = (from, 1);
    let mut hi = end;
    while lo < end {
        let probe = lo + step - 1;
        if probe >= end || !below(probe) {
            hi = probe.min(end);
            break;
        }
        lo = probe + 1;
        step *= 2;
    }
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if below(mid) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Merge-join cursor advance over one non-decreasing key column:
/// starting at cursor `from` — an index into the live positions of
/// `sel`, or into `keys` when `sel` is `None` — returns `(lt, eq)`, the
/// cursor past the keys `< v` and past those `== v` after them. The
/// live keys `[from, lt)` are below `v`, `[lt, eq)` equal it, and the
/// key at `eq` (if any) is above it.
#[inline]
pub fn merge_col<T: Copy + Ord>(
    keys: &[T],
    sel: Option<&SelVec>,
    from: usize,
    v: T,
) -> (usize, usize) {
    match sel {
        None => {
            let end = keys.len();
            let lt = gallop(from, end, |i| keys[i] < v);
            (lt, gallop(lt, end, |i| keys[i] <= v))
        }
        Some(sel) => {
            let pos = sel.positions();
            let key = |j: usize| keys[pos[j] as usize];
            let lt = gallop(from, pos.len(), |j| key(j) < v);
            (lt, gallop(lt, pos.len(), |j| key(j) <= v))
        }
    }
}

macro_rules! merge_instances {
    ($($name:ident $ty:ty,)*) => {
        $(
            /// Macro-generated merge-cursor instance ([`merge_col`]).
            #[inline]
            pub fn $name(keys: &[$ty], sel: Option<&SelVec>, from: usize, v: $ty) -> (usize, usize) {
                merge_col(keys, sel, from, v)
            }
        )*

        /// Every `merge_*` instance this module generates, by signature:
        /// the registry catalogs exactly this list.
        pub const MERGE_SIGNATURES: &[&str] = &[$(stringify!($name)),*];
    };
}

merge_instances! {
    merge_i8_col i8,
    merge_i16_col i16,
    merge_i32_col i32,
    merge_i64_col i64,
    merge_u8_col u8,
    merge_u16_col u16,
    merge_u32_col u32,
    merge_u64_col u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_cursor_skips_below_then_equal() {
        let keys = [1i64, 3, 3, 3, 5, 8, 8, 9];
        assert_eq!(merge_i64_col(&keys, None, 0, 3), (1, 4));
        assert_eq!(merge_i64_col(&keys, None, 0, 4), (4, 4));
        assert_eq!(merge_i64_col(&keys, None, 4, 8), (5, 7));
        assert_eq!(merge_i64_col(&keys, None, 0, 0), (0, 0));
        assert_eq!(merge_i64_col(&keys, None, 2, 100), (8, 8));
        assert_eq!(merge_i64_col(&keys, None, 8, 1), (8, 8));
        assert_eq!(merge_i64_col(&[], None, 0, 1), (0, 0));
    }

    #[test]
    fn cursor_walks_the_live_positions_only() {
        // Dead positions hold keys out of order; they are never read.
        let keys = [2u32, 99, 4, 0, 4, 7];
        let sel = SelVec::from_positions(vec![0, 2, 4, 5]);
        assert_eq!(merge_u32_col(&keys, Some(&sel), 0, 4), (1, 3));
        assert_eq!(merge_u32_col(&keys, Some(&sel), 3, 4), (3, 3));
        assert_eq!(merge_u32_col(&keys, Some(&sel), 0, 8), (4, 4));
    }

    #[test]
    fn gallop_matches_a_linear_scan() {
        let keys: Vec<i32> = (0..300).map(|i| i / 7).collect();
        for from in [0usize, 1, 6, 7, 100, 299, 300] {
            for v in -1..45 {
                let lt = (from..keys.len())
                    .find(|&i| keys[i] >= v)
                    .unwrap_or(keys.len());
                let eq = (lt..keys.len())
                    .find(|&i| keys[i] > v)
                    .unwrap_or(keys.len());
                assert_eq!(merge_i32_col(&keys, None, from, v), (lt, eq), "{from} {v}");
            }
        }
    }
}
