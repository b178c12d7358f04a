//! `aggr_*` primitives: vectorized aggregate updates.
//!
//! The paper generates, per aggregate function, an *initialization*, an
//! *update* and an *epilogue* routine (§4.2). Here:
//!
//! * initialization = allocating / growing the accumulator arrays,
//! * update = the `aggr_*` functions below: one pass over a value vector
//!   plus a *group-position* vector (`u32` slots into the accumulator
//!   table, produced by hash- or direct-grouping),
//! * epilogue = finalization helpers (`avg` from sum+count).
//!
//! All update primitives honor an optional selection vector, like maps.
//!
//! An operator with several f64 sums does not walk the group-id vector
//! once per aggregate: the *fused* family `aggr_sum_f64_x{N}_col`
//! (N = 1..=8) updates N column-major accumulators, the per-group tuple
//! count and, for direct aggregation, the first-seen list of occupied
//! slots in one pass. Every accumulator still receives its values in
//! position order, so each sum is bit-identical to N separate passes.

use crate::sel::SelVec;

macro_rules! aggr_grouped {
    ($sum:ident, $min:ident, $max:ident, $ty:ty, $min_init:expr, $max_init:expr) => {
        /// Grouped SUM update: `acc[grp[i]] += vals[i]` for selected `i`.
        #[inline]
        pub fn $sum(acc: &mut [$ty], vals: &[$ty], grp: &[u32], sel: Option<&SelVec>) {
            match sel {
                None => {
                    for (&v, &g) in vals.iter().zip(grp.iter()) {
                        acc[g as usize] += v;
                    }
                }
                Some(sel) => {
                    for i in sel.iter() {
                        acc[grp[i] as usize] += vals[i];
                    }
                }
            }
        }

        /// Grouped MIN update. Initialize accumulators to the type's
        /// maximum before the first update pass.
        #[inline]
        pub fn $min(acc: &mut [$ty], vals: &[$ty], grp: &[u32], sel: Option<&SelVec>) {
            match sel {
                None => {
                    for (&v, &g) in vals.iter().zip(grp.iter()) {
                        let a = &mut acc[g as usize];
                        if v < *a {
                            *a = v;
                        }
                    }
                }
                Some(sel) => {
                    for i in sel.iter() {
                        let a = &mut acc[grp[i] as usize];
                        if vals[i] < *a {
                            *a = vals[i];
                        }
                    }
                }
            }
        }

        /// Grouped MAX update. Initialize accumulators to the type's
        /// minimum before the first update pass.
        #[inline]
        pub fn $max(acc: &mut [$ty], vals: &[$ty], grp: &[u32], sel: Option<&SelVec>) {
            match sel {
                None => {
                    for (&v, &g) in vals.iter().zip(grp.iter()) {
                        let a = &mut acc[g as usize];
                        if v > *a {
                            *a = v;
                        }
                    }
                }
                Some(sel) => {
                    for i in sel.iter() {
                        let a = &mut acc[grp[i] as usize];
                        if vals[i] > *a {
                            *a = vals[i];
                        }
                    }
                }
            }
        }
    };
}

aggr_grouped!(
    aggr_sum_f64_col,
    aggr_min_f64_col,
    aggr_max_f64_col,
    f64,
    f64::MAX,
    f64::MIN
);
aggr_grouped!(
    aggr_sum_i64_col,
    aggr_min_i64_col,
    aggr_max_i64_col,
    i64,
    i64::MAX,
    i64::MIN
);
aggr_grouped!(
    aggr_sum_i32_col,
    aggr_min_i32_col,
    aggr_max_i32_col,
    i32,
    i32::MAX,
    i32::MIN
);

/// Grouped COUNT update: `counts[grp[i]] += 1` for selected `i`.
#[inline]
pub fn aggr_count(counts: &mut [i64], grp: &[u32], sel: Option<&SelVec>) {
    match sel {
        None => {
            for &g in grp.iter() {
                counts[g as usize] += 1;
            }
        }
        Some(sel) => {
            for i in sel.iter() {
                counts[grp[i] as usize] += 1;
            }
        }
    }
}

/// Most f64 sums one fused update covers.
pub const FUSED_SUM_MAX: usize = 8;

/// Fused update pattern: one pass over the live `positions` that counts
/// the tuple, records a slot the first time it is hit (`OCC`) and adds
/// `vals[k][i]` to `accs[k][grp[i]]` for every `k`.
#[inline(always)]
fn fused_update<const N: usize, const OCC: bool>(
    accs: &mut [&mut [f64]; N],
    vals: &[&[f64]; N],
    counts: &mut [i64],
    occupied: &mut Vec<u32>,
    grp: &[u32],
    positions: impl Iterator<Item = usize>,
) {
    // Every accumulator column and every value column is cut to one
    // common length, so a single bounds check on the group id and one on
    // the position cover all `N` of them.
    let (groups, len) = (counts.len(), grp.len());
    let mut accs = accs.each_mut().map(|a| &mut a[..groups]);
    let vals = vals.map(|v| &v[..len]);
    for i in positions {
        let g = grp[i];
        let slot = g as usize;
        if OCC && counts[slot] == 0 {
            occupied.push(g);
        }
        counts[slot] += 1;
        for (acc, val) in accs.iter_mut().zip(vals.iter()) {
            acc[slot] += val[i];
        }
    }
}

/// [`fused_update`] over a selection or the dense range, with or
/// without the occupancy list — one monomorphic loop each.
#[inline(always)]
fn fused<const N: usize>(
    accs: &mut [&mut [f64]; N],
    vals: &[&[f64]; N],
    counts: &mut [i64],
    occupied: Option<&mut Vec<u32>>,
    grp: &[u32],
    sel: Option<&SelVec>,
) {
    let dense = 0..grp.len();
    match (occupied, sel) {
        (Some(occ), Some(sel)) => fused_update::<N, true>(accs, vals, counts, occ, grp, sel.iter()),
        (Some(occ), None) => fused_update::<N, true>(accs, vals, counts, occ, grp, dense),
        (None, Some(sel)) => {
            fused_update::<N, false>(accs, vals, counts, &mut Vec::new(), grp, sel.iter())
        }
        (None, None) => fused_update::<N, false>(accs, vals, counts, &mut Vec::new(), grp, dense),
    }
}

macro_rules! fused_sum_instances {
    ($($name:ident => $n:literal),*) => {
        $(
            /// Macro-generated fused instance: `counts[grp[i]] += 1` and
            /// `accs[k][grp[i]] += vals[k][i]` for every `k`, for selected
            /// `i`; with `occupied`, a slot whose count was 0 is appended
            /// to it first (first-seen order).
            #[inline]
            pub fn $name(
                accs: &mut [&mut [f64]; $n],
                vals: &[&[f64]; $n],
                counts: &mut [i64],
                occupied: Option<&mut Vec<u32>>,
                grp: &[u32],
                sel: Option<&SelVec>,
            ) {
                fused(accs, vals, counts, occupied, grp, sel)
            }
        )*

        /// The fused instance for `accs.len()` sums (at most
        /// [`FUSED_SUM_MAX`]); with none it is the count pass alone.
        ///
        /// # Panics
        /// Panics if `accs` and `vals` differ in length or exceed
        /// [`FUSED_SUM_MAX`].
        pub fn fused_sum_f64(
            accs: &mut [&mut [f64]],
            vals: &[&[f64]],
            counts: &mut [i64],
            occupied: Option<&mut Vec<u32>>,
            grp: &[u32],
            sel: Option<&SelVec>,
        ) {
            assert_eq!(accs.len(), vals.len(), "one value column per accumulator");
            match accs.len() {
                0 => fused(&mut [], &[], counts, occupied, grp, sel),
                $($n => {
                    let (Ok(accs), Ok(vals)) = (accs.try_into(), vals.try_into()) else {
                        unreachable!("lengths matched above")
                    };
                    $name(accs, vals, counts, occupied, grp, sel)
                })*
                n => panic!("no fused instance for {n} sums"),
            }
        }
    };
}

fused_sum_instances!(
    aggr_sum_f64_x1_col => 1,
    aggr_sum_f64_x2_col => 2,
    aggr_sum_f64_x3_col => 3,
    aggr_sum_f64_x4_col => 4,
    aggr_sum_f64_x5_col => 5,
    aggr_sum_f64_x6_col => 6,
    aggr_sum_f64_x7_col => 7,
    aggr_sum_f64_x8_col => 8
);

/// Ungrouped (scalar) SUM over a vector — the degenerate single-group case.
#[inline]
pub fn aggr_sum_f64_scalar(vals: &[f64], sel: Option<&SelVec>) -> f64 {
    match sel {
        None => vals.iter().sum(),
        Some(sel) => sel.iter().map(|i| vals[i]).sum(),
    }
}

/// Ungrouped SUM over an i64 vector.
#[inline]
pub fn aggr_sum_i64_scalar(vals: &[i64], sel: Option<&SelVec>) -> i64 {
    match sel {
        None => vals.iter().sum(),
        Some(sel) => sel.iter().map(|i| vals[i]).sum(),
    }
}

/// Ungrouped MIN; `None` on empty input.
#[inline]
pub fn aggr_min_f64_scalar(vals: &[f64], sel: Option<&SelVec>) -> Option<f64> {
    match sel {
        None => vals
            .iter()
            .copied()
            .fold(None, |m, v| Some(m.map_or(v, |m: f64| m.min(v)))),
        Some(sel) => sel
            .iter()
            .map(|i| vals[i])
            .fold(None, |m, v| Some(m.map_or(v, |m: f64| m.min(v)))),
    }
}

/// Epilogue: AVG from SUM and COUNT accumulators (`sum[g] / count[g]`).
///
/// Groups with a zero count produce `f64::NAN`, matching SQL's undefined
/// average over an empty group (never surfaced: empty groups are not
/// emitted by the aggregation operators).
#[inline]
pub fn aggr_avg_epilogue(res: &mut [f64], sums: &[f64], counts: &[i64]) {
    for ((r, &s), &c) in res.iter_mut().zip(sums.iter()).zip(counts.iter()) {
        *r = s / c as f64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grouped_sum() {
        let vals = [1.0, 2.0, 3.0, 4.0];
        let grp = [0, 1, 0, 1];
        let mut acc = [0.0; 2];
        aggr_sum_f64_col(&mut acc, &vals, &grp, None);
        assert_eq!(acc, [4.0, 6.0]);
    }

    #[test]
    fn grouped_sum_with_sel() {
        let vals = [1.0, 2.0, 3.0, 4.0];
        let grp = [0, 1, 0, 1];
        let sel = SelVec::from_positions(vec![0, 3]);
        let mut acc = [0.0; 2];
        aggr_sum_f64_col(&mut acc, &vals, &grp, Some(&sel));
        assert_eq!(acc, [1.0, 4.0]);
    }

    #[test]
    fn grouped_min_max() {
        let vals = [5i64, -1, 9, 3];
        let grp = [0, 0, 1, 1];
        let mut mn = [i64::MAX; 2];
        let mut mx = [i64::MIN; 2];
        aggr_min_i64_col(&mut mn, &vals, &grp, None);
        aggr_max_i64_col(&mut mx, &vals, &grp, None);
        assert_eq!(mn, [-1, 3]);
        assert_eq!(mx, [5, 9]);
    }

    #[test]
    fn count_and_avg() {
        let grp = [0, 1, 1, 1];
        let mut cnt = [0i64; 2];
        aggr_count(&mut cnt, &grp, None);
        assert_eq!(cnt, [1, 3]);
        let sums = [2.0, 9.0];
        let mut avg = [0.0; 2];
        aggr_avg_epilogue(&mut avg, &sums, &cnt);
        assert_eq!(avg, [2.0, 3.0]);
    }

    #[test]
    fn scalar_aggregates() {
        let vals = [3.0, 1.0, 2.0];
        assert_eq!(aggr_sum_f64_scalar(&vals, None), 6.0);
        assert_eq!(aggr_min_f64_scalar(&vals, None), Some(1.0));
        assert_eq!(aggr_min_f64_scalar(&[], None), None);
        let sel = SelVec::from_positions(vec![0, 2]);
        assert_eq!(aggr_sum_f64_scalar(&vals, Some(&sel)), 5.0);
        assert_eq!(aggr_min_f64_scalar(&vals, Some(&sel)), Some(2.0));
        assert_eq!(aggr_sum_i64_scalar(&[1, 2, 3], None), 6);
    }

    #[test]
    fn repeated_updates_accumulate() {
        // Aggregation is incremental across vectors (batches).
        let mut acc = [0.0; 1];
        for batch in [[1.0, 2.0], [3.0, 4.0]] {
            aggr_sum_f64_col(&mut acc, &batch, &[0, 0], None);
        }
        assert_eq!(acc, [10.0]);
    }
}
