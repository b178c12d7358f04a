//! `map_fetch_*` primitives: positional gathers.
//!
//! A fetch reads `res[i] = base[idx[i]]` — the kernel behind
//! `Fetch1Join` (positional join on `#rowId`, §4.1.2) and behind
//! automatic enumeration-type decompression (§4.3, and the three
//! `map_fetch_uchr_col_flt_col` rows of the paper's Table 5 trace).

use crate::sel::SelVec;
use crate::vector::{StrVec, Vector};

/// Generic gather: `res[i] = base[idx[i]]` at selected positions.
#[inline]
pub fn fetch<T: Copy>(res: &mut [T], base: &[T], idx: &[u32], sel: Option<&SelVec>) {
    match sel {
        None => {
            for (r, &j) in res.iter_mut().zip(idx.iter()) {
                *r = base[j as usize];
            }
        }
        Some(sel) => {
            for i in sel.iter() {
                res[i] = base[idx[i] as usize];
            }
        }
    }
}

macro_rules! fetch_instance {
    ($name:ident, $ty:ty) => {
        /// Macro-generated fetch instance.
        #[inline]
        pub fn $name(res: &mut [$ty], base: &[$ty], idx: &[u32], sel: Option<&SelVec>) {
            fetch(res, base, idx, sel);
        }
    };
}

fetch_instance!(map_fetch_u32_col_i8_col, i8);
fetch_instance!(map_fetch_u32_col_i16_col, i16);
fetch_instance!(map_fetch_u32_col_i32_col, i32);
fetch_instance!(map_fetch_u32_col_i64_col, i64);
fetch_instance!(map_fetch_u32_col_u8_col, u8);
fetch_instance!(map_fetch_u32_col_u16_col, u16);
fetch_instance!(map_fetch_u32_col_u32_col, u32);
fetch_instance!(map_fetch_u32_col_f64_col, f64);

/// Generic unchecked gather: `res[i] = base[idx[i]]` with no per-element
/// bounds check — the `_unchecked` twin the engine dispatches when the
/// facts analyzer proved every index within `base` (paper-style "on the
/// metal" loops: no checks the compiler cannot hoist).
///
/// # Safety
/// Every `idx` value read (all of `idx[..res.len()]` when `sel` is
/// `None`, else `idx[i]` for each selected `i`) must be `< base.len()`,
/// and under a selection every selected `i` must be `< res.len()` and
/// `< idx.len()`. The engine only reaches this through a bind-time
/// range proof (`engine::facts`); debug builds re-assert the contract.
#[inline]
pub unsafe fn fetch_unchecked<T: Copy>(
    res: &mut [T],
    base: &[T],
    idx: &[u32],
    sel: Option<&SelVec>,
) {
    match sel {
        None => {
            for (r, &j) in res.iter_mut().zip(idx.iter()) {
                debug_assert!((j as usize) < base.len());
                *r = *base.get_unchecked(j as usize);
            }
        }
        Some(sel) => {
            for i in sel.iter() {
                debug_assert!(i < res.len() && i < idx.len());
                let j = *idx.get_unchecked(i) as usize;
                debug_assert!(j < base.len());
                *res.get_unchecked_mut(i) = *base.get_unchecked(j);
            }
        }
    }
}

macro_rules! fetch_unchecked_instance {
    ($name:ident, $ty:ty) => {
        /// Macro-generated unchecked fetch twin.
        ///
        /// # Safety
        /// See [`fetch_unchecked`]: every gathered index must be within
        /// `base`, as proven at bind time by `engine::facts`.
        #[inline]
        pub unsafe fn $name(res: &mut [$ty], base: &[$ty], idx: &[u32], sel: Option<&SelVec>) {
            fetch_unchecked(res, base, idx, sel);
        }
    };
}

fetch_unchecked_instance!(map_fetch_u32_col_i8_col_unchecked, i8);
fetch_unchecked_instance!(map_fetch_u32_col_i16_col_unchecked, i16);
fetch_unchecked_instance!(map_fetch_u32_col_i32_col_unchecked, i32);
fetch_unchecked_instance!(map_fetch_u32_col_i64_col_unchecked, i64);
fetch_unchecked_instance!(map_fetch_u32_col_u8_col_unchecked, u8);
fetch_unchecked_instance!(map_fetch_u32_col_u16_col_unchecked, u16);
fetch_unchecked_instance!(map_fetch_u32_col_u32_col_unchecked, u32);
fetch_unchecked_instance!(map_fetch_u32_col_f64_col_unchecked, f64);

/// Gather via 1-byte enum codes: `res[i] = base[code[i]]`
/// (the paper's `map_fetch_uchr_col_flt_col` for `f64` payloads).
#[inline]
pub fn fetch_u8_codes<T: Copy>(res: &mut [T], base: &[T], codes: &[u8], sel: Option<&SelVec>) {
    match sel {
        None => {
            for (r, &c) in res.iter_mut().zip(codes.iter()) {
                *r = base[c as usize];
            }
        }
        Some(sel) => {
            for i in sel.iter() {
                res[i] = base[codes[i] as usize];
            }
        }
    }
}

/// Gather via 2-byte enum codes (`map_fetch_usht_col_*`).
#[inline]
pub fn fetch_u16_codes<T: Copy>(res: &mut [T], base: &[T], codes: &[u16], sel: Option<&SelVec>) {
    match sel {
        None => {
            for (r, &c) in res.iter_mut().zip(codes.iter()) {
                *r = base[c as usize];
            }
        }
        Some(sel) => {
            for i in sel.iter() {
                res[i] = base[codes[i] as usize];
            }
        }
    }
}

/// String gather: rebuilds a `StrVec` positionally (unselected positions
/// become empty strings, preserving the positional contract).
#[allow(clippy::needless_range_loop)] // positional writes under a selection
pub fn fetch_str(res: &mut StrVec, base: &StrVec, idx: &[u32], n: usize, sel: Option<&SelVec>) {
    res.clear();
    match sel {
        None => {
            for &j in idx.iter().take(n) {
                res.push(base.get(j as usize));
            }
        }
        Some(sel) => {
            let mut next = sel.iter().peekable();
            for i in 0..n {
                if next.peek() == Some(&i) {
                    next.next();
                    res.push(base.get(idx[i] as usize));
                } else {
                    res.push("");
                }
            }
        }
    }
}

/// Typed gather over a whole [`Vector`]: `dst[i] = src[idx[i]]`, resizing
/// `dst` to `idx.len()`. Strings rebuild through the `StrVec` gather path;
/// every fixed-width type routes through the macro-generated fetch
/// kernels. How cardinality-changing operators (hash join, ordered
/// aggregation) materialize a column: one typed loop per vector.
pub fn gather_rows(dst: &mut Vector, src: &Vector, idx: &[u32]) {
    let n = idx.len();
    match (dst, src) {
        (Vector::Str(d), Vector::Str(s)) => fetch_str(d, s, idx, n, None),
        (d, s) => {
            d.resize_zeroed(n);
            match (d, s) {
                (Vector::I8(d), Vector::I8(s)) => map_fetch_u32_col_i8_col(d, s, idx, None),
                (Vector::I16(d), Vector::I16(s)) => map_fetch_u32_col_i16_col(d, s, idx, None),
                (Vector::I32(d), Vector::I32(s)) => map_fetch_u32_col_i32_col(d, s, idx, None),
                (Vector::I64(d), Vector::I64(s)) => map_fetch_u32_col_i64_col(d, s, idx, None),
                (Vector::U8(d), Vector::U8(s)) => map_fetch_u32_col_u8_col(d, s, idx, None),
                (Vector::U16(d), Vector::U16(s)) => map_fetch_u32_col_u16_col(d, s, idx, None),
                (Vector::U32(d), Vector::U32(s)) => map_fetch_u32_col_u32_col(d, s, idx, None),
                (Vector::U64(d), Vector::U64(s)) => fetch(d, s, idx, None),
                (Vector::F64(d), Vector::F64(s)) => map_fetch_u32_col_f64_col(d, s, idx, None),
                (Vector::Bool(d), Vector::Bool(s)) => fetch(d, s, idx, None),
                (d, s) => panic!(
                    "gather_rows type mismatch: dst {:?}, src {:?}",
                    d.scalar_type(),
                    s.scalar_type()
                ),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_gather() {
        let base = [10.0, 20.0, 30.0, 40.0];
        let idx = [3, 0, 2];
        let mut res = [0.0; 3];
        map_fetch_u32_col_f64_col(&mut res, &base, &idx, None);
        assert_eq!(res, [40.0, 10.0, 30.0]);
    }

    #[test]
    fn selected_gather_preserves_other_positions() {
        let base = [10i64, 20, 30];
        let idx = [2, 1, 0];
        let sel = SelVec::from_positions(vec![0, 2]);
        let mut res = [-1i64; 3];
        map_fetch_u32_col_i64_col(&mut res, &base, &idx, Some(&sel));
        assert_eq!(res, [30, -1, 10]);
    }

    #[test]
    fn unchecked_twin_matches_checked_gather() {
        let base = [10.0, 20.0, 30.0, 40.0];
        let idx = [3, 0, 2];
        let mut checked = [0.0; 3];
        let mut unchecked = [0.0; 3];
        map_fetch_u32_col_f64_col(&mut checked, &base, &idx, None);
        // SAFETY: every index in `idx` is < base.len().
        unsafe { map_fetch_u32_col_f64_col_unchecked(&mut unchecked, &base, &idx, None) };
        assert_eq!(checked, unchecked);

        let sel = SelVec::from_positions(vec![0, 2]);
        let mut c2 = [-1i64; 3];
        let mut u2 = [-1i64; 3];
        let ibase = [10i64, 20, 30];
        let idx2 = [2, 1, 0];
        map_fetch_u32_col_i64_col(&mut c2, &ibase, &idx2, Some(&sel));
        // SAFETY: every selected index in `idx2` is < ibase.len().
        unsafe { map_fetch_u32_col_i64_col_unchecked(&mut u2, &ibase, &idx2, Some(&sel)) };
        assert_eq!(c2[0], u2[0]);
        assert_eq!(c2[2], u2[2]);
    }

    #[test]
    fn enum_code_decompression() {
        // Enumeration type: codes into a small dictionary (paper §4.3).
        let dict = [0.0, 0.01, 0.02, 0.05];
        let codes = [3u8, 0, 1, 1];
        let mut res = [0.0; 4];
        fetch_u8_codes(&mut res, &dict, &codes, None);
        assert_eq!(res, [0.05, 0.0, 0.01, 0.01]);
    }

    #[test]
    fn u16_codes() {
        let dict: Vec<i32> = (0..1000).collect();
        let codes = [999u16, 500, 0];
        let mut res = [0i32; 3];
        fetch_u16_codes(&mut res, &dict, &codes, None);
        assert_eq!(res, [999, 500, 0]);
    }

    #[test]
    fn string_gather() {
        let base: StrVec = ["alpha", "beta", "gamma"].into_iter().collect();
        let idx = [2, 2, 0];
        let mut res = StrVec::new();
        fetch_str(&mut res, &base, &idx, 3, None);
        assert_eq!(
            res.iter().collect::<Vec<_>>(),
            vec!["gamma", "gamma", "alpha"]
        );
    }

    #[test]
    fn string_gather_with_sel() {
        let base: StrVec = ["a", "b"].into_iter().collect();
        let idx = [1, 0, 1];
        let sel = SelVec::from_positions(vec![0, 2]);
        let mut res = StrVec::new();
        fetch_str(&mut res, &base, &idx, 3, Some(&sel));
        assert_eq!(res.iter().collect::<Vec<_>>(), vec!["b", "", "b"]);
    }

    #[test]
    fn gather_rows_all_types() {
        let idx = [2u32, 0, 2];
        let src = Vector::I32(vec![5, 6, 7]);
        let mut dst = Vector::with_capacity(crate::ScalarType::I32, 0);
        gather_rows(&mut dst, &src, &idx);
        assert_eq!(dst.as_i32(), &[7, 5, 7]);

        let s: StrVec = ["a", "b", "c"].into_iter().collect();
        let mut dst = Vector::Str(StrVec::new());
        gather_rows(&mut dst, &Vector::Str(s), &idx);
        assert_eq!(dst.as_str().iter().collect::<Vec<_>>(), vec!["c", "a", "c"]);

        let mut dst = Vector::Bool(vec![]);
        gather_rows(&mut dst, &Vector::Bool(vec![true, false, true]), &idx);
        assert_eq!(dst.as_bool(), &[true, true, true]);
    }
}
