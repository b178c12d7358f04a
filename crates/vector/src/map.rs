//! `map_*` primitives: vectorized expression calculation.
//!
//! A map primitive applies a scalar function to every *selected* position
//! of its input vectors and writes the result **at the same position** of
//! the output vector (paper §4.1.1). All primitives take
//! `sel: Option<&SelVec>`:
//!
//! * `None` — dense loop over `0..n`; written with iterator zips so LLVM
//!   elides bounds checks and auto-vectorizes (the Rust analogue of the
//!   paper's `restrict` pointers + loop pipelining).
//! * `Some(sel)` — indexed loop over the selected positions only.
//!
//! The generic kernels (`map1`, `map2_*`) are the "primitive patterns" of
//! the paper; the macro-generated monomorphic functions at the bottom are
//! the instances a "signature request" file would produce
//! (e.g. `map_add_f64_col_f64_col`).

use crate::sel::SelVec;

/// Apply `f` to one input column, writing `res[i] = f(a[i])`.
#[inline]
pub fn map1<T: Copy, R: Copy, F: Fn(T) -> R>(res: &mut [R], a: &[T], sel: Option<&SelVec>, f: F) {
    match sel {
        None => {
            for (r, &x) in res.iter_mut().zip(a.iter()) {
                *r = f(x);
            }
        }
        Some(sel) => {
            for i in sel.iter() {
                res[i] = f(a[i]);
            }
        }
    }
}

/// Apply `f` to two input columns, writing `res[i] = f(a[i], b[i])`.
#[inline]
pub fn map2_col_col<T: Copy, U: Copy, R: Copy, F: Fn(T, U) -> R>(
    res: &mut [R],
    a: &[T],
    b: &[U],
    sel: Option<&SelVec>,
    f: F,
) {
    match sel {
        None => {
            for ((r, &x), &y) in res.iter_mut().zip(a.iter()).zip(b.iter()) {
                *r = f(x, y);
            }
        }
        Some(sel) => {
            for i in sel.iter() {
                res[i] = f(a[i], b[i]);
            }
        }
    }
}

/// Apply `f` to a column and a constant, writing `res[i] = f(a[i], v)`.
#[inline]
pub fn map2_col_val<T: Copy, U: Copy, R: Copy, F: Fn(T, U) -> R>(
    res: &mut [R],
    a: &[T],
    v: U,
    sel: Option<&SelVec>,
    f: F,
) {
    match sel {
        None => {
            for (r, &x) in res.iter_mut().zip(a.iter()) {
                *r = f(x, v);
            }
        }
        Some(sel) => {
            for i in sel.iter() {
                res[i] = f(a[i], v);
            }
        }
    }
}

/// Apply `f` to a constant and a column, writing `res[i] = f(v, a[i])`.
#[inline]
pub fn map2_val_col<T: Copy, U: Copy, R: Copy, F: Fn(T, U) -> R>(
    res: &mut [R],
    v: T,
    a: &[U],
    sel: Option<&SelVec>,
    f: F,
) {
    match sel {
        None => {
            for (r, &y) in res.iter_mut().zip(a.iter()) {
                *r = f(v, y);
            }
        }
        Some(sel) => {
            for i in sel.iter() {
                res[i] = f(v, a[i]);
            }
        }
    }
}

/// Generates the monomorphic `map_<op>_<ty>_col_<ty>_col` / `_col_val` /
/// `_val_col` instances — the Rust analogue of the paper's primitive
/// generator expanding a signature-request file into all column/constant
/// combinations — **and** the `ARITH_SIGNATURES` catalog from the very
/// same token list (via `stringify!`). One invocation emits both the
/// kernels and their registry entries, so the catalog cannot name a
/// function that does not exist nor omit one that does: registry and
/// code move together by construction.
macro_rules! arith_instances {
    ($( ($col_col:ident, $col_val:ident, $val_col:ident, $ty:ty, $f:expr) ),+ $(,)?) => {
        $(
            /// Macro-generated arithmetic map instance (column ⊕ column).
            #[inline]
            pub fn $col_col(res: &mut [$ty], a: &[$ty], b: &[$ty], sel: Option<&SelVec>) {
                map2_col_col(res, a, b, sel, $f);
            }

            /// Macro-generated arithmetic map instance (column ⊕ constant).
            #[inline]
            pub fn $col_val(res: &mut [$ty], a: &[$ty], v: $ty, sel: Option<&SelVec>) {
                map2_col_val(res, a, v, sel, $f);
            }

            /// Macro-generated arithmetic map instance (constant ⊕ column).
            #[inline]
            pub fn $val_col(res: &mut [$ty], v: $ty, a: &[$ty], sel: Option<&SelVec>) {
                map2_val_col(res, v, a, sel, $f);
            }
        )+

        /// Catalog of the macro-generated arithmetic instances, emitted
        /// by the same `arith_instances!` expansion that defines the
        /// kernels (used by the primitive registry, the bind-time
        /// verifier, and `cargo xtask lint`).
        pub const ARITH_SIGNATURES: &[&str] = &[
            $( stringify!($col_col), stringify!($col_val), stringify!($val_col), )+
        ];
    };
}

arith_instances!(
    (
        map_add_i32_col_i32_col,
        map_add_i32_col_i32_val,
        map_add_i32_val_i32_col,
        i32,
        |x, y| x.wrapping_add(y)
    ),
    (
        map_add_i64_col_i64_col,
        map_add_i64_col_i64_val,
        map_add_i64_val_i64_col,
        i64,
        |x, y| x.wrapping_add(y)
    ),
    (
        map_add_f64_col_f64_col,
        map_add_f64_col_f64_val,
        map_add_f64_val_f64_col,
        f64,
        |x, y| x + y
    ),
    (
        map_sub_i32_col_i32_col,
        map_sub_i32_col_i32_val,
        map_sub_i32_val_i32_col,
        i32,
        |x, y| x.wrapping_sub(y)
    ),
    (
        map_sub_i64_col_i64_col,
        map_sub_i64_col_i64_val,
        map_sub_i64_val_i64_col,
        i64,
        |x, y| x.wrapping_sub(y)
    ),
    (
        map_sub_f64_col_f64_col,
        map_sub_f64_col_f64_val,
        map_sub_f64_val_f64_col,
        f64,
        |x, y| x - y
    ),
    (
        map_mul_i32_col_i32_col,
        map_mul_i32_col_i32_val,
        map_mul_i32_val_i32_col,
        i32,
        |x, y| x.wrapping_mul(y)
    ),
    (
        map_mul_i64_col_i64_col,
        map_mul_i64_col_i64_val,
        map_mul_i64_val_i64_col,
        i64,
        |x, y| x.wrapping_mul(y)
    ),
    (
        map_mul_f64_col_f64_col,
        map_mul_f64_col_f64_val,
        map_mul_f64_val_f64_col,
        f64,
        |x, y| x * y
    ),
    (
        map_div_f64_col_f64_col,
        map_div_f64_col_f64_val,
        map_div_f64_val_f64_col,
        f64,
        |x, y| x / y
    ),
);

/// Comparison maps produce a full boolean vector (`res[i] = a[i] ⊙ b[i]`).
///
/// The X100 `Select` operator normally uses the `select_*` primitives
/// (which produce selection vectors) instead; boolean maps exist for
/// nested boolean expressions (`AND`/`OR` trees) as in the paper's
/// `Exp<bool>` arguments.
#[inline]
pub fn map_cmp_col_col<T: Copy + PartialOrd>(
    res: &mut [bool],
    a: &[T],
    b: &[T],
    op: CmpOp,
    sel: Option<&SelVec>,
) {
    match op {
        CmpOp::Eq => map2_col_col(res, a, b, sel, |x, y| x == y),
        CmpOp::Ne => map2_col_col(res, a, b, sel, |x, y| x != y),
        CmpOp::Lt => map2_col_col(res, a, b, sel, |x, y| x < y),
        CmpOp::Le => map2_col_col(res, a, b, sel, |x, y| x <= y),
        CmpOp::Gt => map2_col_col(res, a, b, sel, |x, y| x > y),
        CmpOp::Ge => map2_col_col(res, a, b, sel, |x, y| x >= y),
    }
}

/// Column-versus-constant comparison map.
#[inline]
pub fn map_cmp_col_val<T: Copy + PartialOrd>(
    res: &mut [bool],
    a: &[T],
    v: T,
    op: CmpOp,
    sel: Option<&SelVec>,
) {
    match op {
        CmpOp::Eq => map2_col_val(res, a, v, sel, |x, y| x == y),
        CmpOp::Ne => map2_col_val(res, a, v, sel, |x, y| x != y),
        CmpOp::Lt => map2_col_val(res, a, v, sel, |x, y| x < y),
        CmpOp::Le => map2_col_val(res, a, v, sel, |x, y| x <= y),
        CmpOp::Gt => map2_col_val(res, a, v, sel, |x, y| x > y),
        CmpOp::Ge => map2_col_val(res, a, v, sel, |x, y| x >= y),
    }
}

/// The six comparison operators of the X100 algebra.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl CmpOp {
    /// Signature fragment (`lt`, `ge`, …).
    pub fn sig_name(self) -> &'static str {
        match self {
            CmpOp::Eq => "eq",
            CmpOp::Ne => "ne",
            CmpOp::Lt => "lt",
            CmpOp::Le => "le",
            CmpOp::Gt => "gt",
            CmpOp::Ge => "ge",
        }
    }

    /// Evaluate on two ordered values.
    #[inline]
    pub fn eval<T: PartialOrd>(self, x: T, y: T) -> bool {
        match self {
            CmpOp::Eq => x == y,
            CmpOp::Ne => x != y,
            CmpOp::Lt => x < y,
            CmpOp::Le => x <= y,
            CmpOp::Gt => x > y,
            CmpOp::Ge => x >= y,
        }
    }
}

/// Logical AND of two boolean columns.
#[inline]
pub fn map_and(res: &mut [bool], a: &[bool], b: &[bool], sel: Option<&SelVec>) {
    map2_col_col(res, a, b, sel, |x, y| x & y);
}

/// Logical OR of two boolean columns.
#[inline]
pub fn map_or(res: &mut [bool], a: &[bool], b: &[bool], sel: Option<&SelVec>) {
    map2_col_col(res, a, b, sel, |x, y| x | y);
}

/// Logical NOT of a boolean column.
#[inline]
pub fn map_not(res: &mut [bool], a: &[bool], sel: Option<&SelVec>) {
    map1(res, a, sel, |x| !x);
}

/// Extract the calendar year from days-since-epoch values
/// (`map_year_i32_col`): the loop-free year part of
/// [`crate::types::date::from_days`].
#[inline]
pub fn map_year_i32_col(res: &mut [i32], days: &[i32], sel: Option<&SelVec>) {
    map1(res, days, sel, |d| crate::types::date::from_days(d).0);
}

/// Numeric widening casts (`map_cast_*`), e.g. `dbl(count)` in the
/// paper's Fig. 9 plan.
pub mod cast {
    use super::*;

    /// i32 → i64 widening cast.
    #[inline]
    pub fn map_cast_i32_i64(res: &mut [i64], a: &[i32], sel: Option<&SelVec>) {
        map1(res, a, sel, |x| x as i64);
    }

    /// i32 → f64 cast.
    #[inline]
    pub fn map_cast_i32_f64(res: &mut [f64], a: &[i32], sel: Option<&SelVec>) {
        map1(res, a, sel, |x| x as f64);
    }

    /// i64 → f64 cast (e.g. decimal-scaled to float, count to double).
    #[inline]
    pub fn map_cast_i64_f64(res: &mut [f64], a: &[i64], sel: Option<&SelVec>) {
        map1(res, a, sel, |x| x as f64);
    }

    /// u8 → u32 widening (enum code to fetch position).
    #[inline]
    pub fn map_cast_u8_u32(res: &mut [u32], a: &[u8], sel: Option<&SelVec>) {
        map1(res, a, sel, |x| x as u32);
    }

    /// u16 → u32 widening (enum code to fetch position).
    #[inline]
    pub fn map_cast_u16_u32(res: &mut [u32], a: &[u16], sel: Option<&SelVec>) {
        map1(res, a, sel, |x| x as u32);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_add() {
        let a = [1.0, 2.0, 3.0];
        let b = [10.0, 20.0, 30.0];
        let mut r = [0.0; 3];
        map_add_f64_col_f64_col(&mut r, &a, &b, None);
        assert_eq!(r, [11.0, 22.0, 33.0]);
    }

    #[test]
    fn selected_positions_only() {
        let a = [1, 2, 3, 4];
        let sel = SelVec::from_positions(vec![1, 3]);
        let mut r = [0i64; 4];
        map_add_i64_col_i64_val(&mut r, &a, 100, Some(&sel));
        // Unselected positions keep their previous (zero) content.
        assert_eq!(r, [0, 102, 0, 104]);
    }

    #[test]
    fn val_col_order_matters() {
        let a = [1.0, 2.0];
        let mut r = [0.0; 2];
        map_sub_f64_val_f64_col(&mut r, 10.0, &a, None);
        assert_eq!(r, [9.0, 8.0]);
        map_sub_f64_col_f64_val(&mut r, &a, 10.0, None);
        assert_eq!(r, [-9.0, -8.0]);
    }

    #[test]
    fn q1_discountprice_shape() {
        // (1 - discount) * extendedprice, the paper's Fig. 6 projection.
        let discount = [0.1, 0.0, 0.5];
        let extprice = [100.0, 50.0, 8.0];
        let mut tmp = [0.0; 3];
        let mut out = [0.0; 3];
        map_sub_f64_val_f64_col(&mut tmp, 1.0, &discount, None);
        map_mul_f64_col_f64_col(&mut out, &tmp, &extprice, None);
        assert_eq!(out, [90.0, 50.0, 4.0]);
    }

    #[test]
    fn integer_wrapping() {
        let a = [i32::MAX];
        let mut r = [0i32];
        map_add_i32_col_i32_val(&mut r, &a, 1, None);
        assert_eq!(r, [i32::MIN]);
    }

    #[test]
    fn cmp_maps() {
        let a = [1, 5, 5, 9];
        let mut r = [false; 4];
        map_cmp_col_val(&mut r, &a, 5, CmpOp::Le, None);
        assert_eq!(r, [true, true, true, false]);
        map_cmp_col_col(&mut r, &a, &[1, 4, 6, 9], CmpOp::Eq, None);
        assert_eq!(r, [true, false, false, true]);
    }

    #[test]
    fn logical_maps() {
        let a = [true, true, false, false];
        let b = [true, false, true, false];
        let mut r = [false; 4];
        map_and(&mut r, &a, &b, None);
        assert_eq!(r, [true, false, false, false]);
        map_or(&mut r, &a, &b, None);
        assert_eq!(r, [true, true, true, false]);
        map_not(&mut r, &a, None);
        assert_eq!(r, [false, false, true, true]);
    }

    #[test]
    fn casts() {
        let a = [1i32, -2, 3];
        let mut r = [0.0f64; 3];
        cast::map_cast_i32_f64(&mut r, &a, None);
        assert_eq!(r, [1.0, -2.0, 3.0]);
        let codes = [0u8, 255];
        let mut pos = [0u32; 2];
        cast::map_cast_u8_u32(&mut pos, &codes, None);
        assert_eq!(pos, [0, 255]);
    }

    #[test]
    fn cmp_op_eval() {
        assert!(CmpOp::Lt.eval(1, 2));
        assert!(CmpOp::Ge.eval(2.0, 2.0));
        assert!(!CmpOp::Ne.eval("a", "a"));
        assert_eq!(CmpOp::Gt.sig_name(), "gt");
    }

    #[test]
    fn all_arith_signatures_unique() {
        let mut sigs: Vec<&str> = ARITH_SIGNATURES.to_vec();
        sigs.sort_unstable();
        sigs.dedup();
        assert_eq!(sigs.len(), ARITH_SIGNATURES.len());
    }
}
