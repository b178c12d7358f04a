//! Compound primitives: fused kernels for whole expression sub-trees.
//!
//! §4.2 of the paper: simple 2-ary vectorized primitives are load/store
//! bound (2 loads + 1 store per 1 work instruction). A *compound*
//! primitive evaluates an expression sub-tree in one loop, passing
//! intermediate results through registers, with loads/stores only at the
//! edges of the expression graph — the paper reports ≈2× speedups and
//! gives `/(square(-(double*, double*)), double*)` (the Mahalanobis
//! distance) as its example signature.
//!
//! The `compound` Criterion bench (ablation A1) measures fused vs chained.

use crate::sel::SelVec;

/// Fused `(v - a[i]) * b[i]` — Q1's `discountprice` sub-tree
/// `*( -( flt('1.0'), discount), extendedprice)` in one loop.
#[inline]
pub fn map_fused_sub_f64_val_f64_col_mul_f64_col(
    res: &mut [f64],
    v: f64,
    a: &[f64],
    b: &[f64],
    sel: Option<&SelVec>,
) {
    match sel {
        None => {
            for ((r, &x), &y) in res.iter_mut().zip(a.iter()).zip(b.iter()) {
                *r = (v - x) * y;
            }
        }
        Some(sel) => {
            for i in sel.iter() {
                res[i] = (v - a[i]) * b[i];
            }
        }
    }
}

/// Fused `(v + a[i]) * b[i]` — Q1's `charge` sub-tree
/// `*( +( flt('1.0'), tax), discountprice)` in one loop.
#[inline]
pub fn map_fused_add_f64_val_f64_col_mul_f64_col(
    res: &mut [f64],
    v: f64,
    a: &[f64],
    b: &[f64],
    sel: Option<&SelVec>,
) {
    match sel {
        None => {
            for ((r, &x), &y) in res.iter_mut().zip(a.iter()).zip(b.iter()) {
                *r = (v + x) * y;
            }
        }
        Some(sel) => {
            for i in sel.iter() {
                res[i] = (v + a[i]) * b[i];
            }
        }
    }
}

/// Fused Mahalanobis term `((a[i] - b[i])²) / c[i]` — the compound
/// signature the paper requests:
/// `/(square(-(double*, double*)), double*)`.
#[inline]
pub fn map_fused_mahalanobis_f64_col(
    res: &mut [f64],
    a: &[f64],
    b: &[f64],
    c: &[f64],
    sel: Option<&SelVec>,
) {
    match sel {
        None => {
            for (((r, &x), &y), &z) in res.iter_mut().zip(a.iter()).zip(b.iter()).zip(c.iter()) {
                let d = x - y;
                *r = d * d / z;
            }
        }
        Some(sel) => {
            for i in sel.iter() {
                let d = a[i] - b[i];
                res[i] = d * d / c[i];
            }
        }
    }
}

/// Chained (non-fused) Mahalanobis, for the ablation baseline: three
/// simple primitives with materialized intermediates.
pub fn map_chained_mahalanobis_f64_col(
    res: &mut [f64],
    tmp1: &mut [f64],
    tmp2: &mut [f64],
    a: &[f64],
    b: &[f64],
    c: &[f64],
    sel: Option<&SelVec>,
) {
    crate::map::map_sub_f64_col_f64_col(tmp1, a, b, sel);
    crate::map::map_mul_f64_col_f64_col(tmp2, tmp1, tmp1, sel);
    crate::map::map_div_f64_col_f64_col(res, tmp2, c, sel);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: &[f64], b: &[f64]) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b.iter()) {
            assert!((x - y).abs() < 1e-12, "{x} vs {y}");
        }
    }

    #[test]
    fn fused_sub_mul_equals_chain() {
        let a = [0.1, 0.2, 0.05];
        let b = [100.0, 10.0, 40.0];
        let mut fused = [0.0; 3];
        map_fused_sub_f64_val_f64_col_mul_f64_col(&mut fused, 1.0, &a, &b, None);

        let mut tmp = [0.0; 3];
        let mut chained = [0.0; 3];
        crate::map::map_sub_f64_val_f64_col(&mut tmp, 1.0, &a, None);
        crate::map::map_mul_f64_col_f64_col(&mut chained, &tmp, &b, None);
        close(&fused, &chained);
    }

    #[test]
    fn fused_add_mul_equals_chain() {
        let a = [0.08, 0.0];
        let b = [90.0, 50.0];
        let mut fused = [0.0; 2];
        map_fused_add_f64_val_f64_col_mul_f64_col(&mut fused, 1.0, &a, &b, None);
        close(&fused, &[1.08 * 90.0, 50.0]);
    }

    #[test]
    fn mahalanobis_fused_equals_chained() {
        let a = [1.0, 5.0, -3.0];
        let b = [0.5, 2.0, -1.0];
        let c = [2.0, 4.0, 0.5];
        let mut fused = [0.0; 3];
        map_fused_mahalanobis_f64_col(&mut fused, &a, &b, &c, None);
        let (mut t1, mut t2, mut chained) = ([0.0; 3], [0.0; 3], [0.0; 3]);
        map_chained_mahalanobis_f64_col(&mut chained, &mut t1, &mut t2, &a, &b, &c, None);
        close(&fused, &chained);
    }

    #[test]
    fn fused_respects_sel() {
        let a = [0.5, 0.5];
        let b = [10.0, 10.0];
        let sel = SelVec::from_positions(vec![1]);
        let mut r = [-1.0, -1.0];
        map_fused_sub_f64_val_f64_col_mul_f64_col(&mut r, 1.0, &a, &b, Some(&sel));
        assert_eq!(r, [-1.0, 5.0]);
    }
}
