//! `map_fetch_*` primitives: positional gathers.
//!
//! A fetch reads `res[i] = base[idx[i]]` — the kernel behind
//! `Fetch1Join` (positional join on `#rowId`, §4.1.2) and behind
//! automatic enumeration-type decompression (§4.3, and the three
//! `map_fetch_uchr_col_flt_col` rows of the paper's Table 5 trace).
//!
//! Every fixed-width `map_fetch_*` instance — by `#rowId` (`u32`) or by
//! enum code (`u8`, `u16`) — is the one generic kernel [`fetch`]: it
//! bounds a whole vector with one max, then gathers with no per-tuple
//! check. Its inner loop is the only `unsafe` block of the engine's
//! crates.

use crate::sel::SelVec;
use crate::vector::{StrVec, Vector};

/// A gather position: a `#rowId` or an enum code (`default()` is 0).
pub trait Position: Copy + Ord + Default {
    /// The position as a slice index.
    fn index(self) -> usize;
}

macro_rules! position {
    ($($ty:ty),*) => {$(
        impl Position for $ty {
            #[inline]
            fn index(self) -> usize {
                self as usize
            }
        }
    )*};
}

position!(u8, u16, u32);

/// Whether every position a gather of `idx` into `n` slots under `sel`
/// reads lies in `0..len` — the one bounds check of a gather, made once
/// per vector.
///
/// Dense, it is one branch-free max over `idx[..n]`. Under a selection
/// the same max runs over the whole vector; only when that max is out of
/// range are the selected positions checked exactly, because unselected
/// slots may hold delta-row ids. A selected position at or past the end
/// of the vector reads as out of range.
#[inline]
pub fn in_range<P: Position>(idx: &[P], n: usize, sel: Option<&SelVec>, len: usize) -> bool {
    let idx = &idx[..n.min(idx.len())];
    let below = |p: P| p.index() < len;
    match sel {
        None => idx.is_empty() || below(max(idx)),
        Some(sel) => {
            let pos = sel.positions();
            pos.is_empty()
                || (max(pos).index() < idx.len()
                    && (below(max(idx)) || pos.iter().all(|&i| below(idx[i as usize]))))
        }
    }
}

/// Branch-free max (LLVM vectorizes the fold).
#[inline]
fn max<P: Position>(xs: &[P]) -> P {
    xs.iter().fold(P::default(), |m, &x| m.max(x))
}

/// The positional gather: `res[i] = base[idx[i]]` at selected positions
/// (all of `res` when `sel` is `None`), with no per-tuple check. Returns
/// `false` and writes nothing when some position is out of `base` (a
/// `#rowId` in the delta region, a code outside its dictionary) —
/// [`in_range`] decides that once for the whole vector.
#[inline]
#[must_use]
#[allow(unsafe_code)]
pub fn fetch<T: Copy, P: Position>(
    res: &mut [T],
    base: &[T],
    idx: &[P],
    sel: Option<&SelVec>,
) -> bool {
    if !in_range(idx, res.len(), sel, base.len()) {
        return false;
    }
    // SAFETY: `in_range` above returned true, so every `idx` value read
    // below is `< base.len()` and every selected `i` is `< res.len()` and
    // `< idx.len()`.
    unsafe {
        match sel {
            None => {
                for (r, &j) in res.iter_mut().zip(idx) {
                    *r = *base.get_unchecked(j.index());
                }
            }
            Some(sel) => {
                for i in sel.iter() {
                    let j = idx.get_unchecked(i).index();
                    *res.get_unchecked_mut(i) = *base.get_unchecked(j);
                }
            }
        }
    }
    true
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
/// every fixed-width type runs the [`fetch`] kernel. How
/// cardinality-changing operators (hash join pair lists, ordered
/// aggregation) materialize a column: one typed loop per vector.
///
/// # Panics
/// When a position is out of `src` (the callers' positions are in range
/// by construction).
pub fn gather_rows(dst: &mut Vector, src: &Vector, idx: &[u32]) {
    let n = idx.len();
    let in_range = match (dst, src) {
        (Vector::Str(d), Vector::Str(s)) => {
            fetch_str(d, s, idx, n, None);
            true
        }
        (d, s) => {
            d.resize_zeroed(n);
            match (d, s) {
                (Vector::I8(d), Vector::I8(s)) => fetch(d, s, idx, None),
                (Vector::I16(d), Vector::I16(s)) => fetch(d, s, idx, None),
                (Vector::I32(d), Vector::I32(s)) => fetch(d, s, idx, None),
                (Vector::I64(d), Vector::I64(s)) => fetch(d, s, idx, None),
                (Vector::U8(d), Vector::U8(s)) => fetch(d, s, idx, None),
                (Vector::U16(d), Vector::U16(s)) => fetch(d, s, idx, None),
                (Vector::U32(d), Vector::U32(s)) => fetch(d, s, idx, None),
                (Vector::U64(d), Vector::U64(s)) => fetch(d, s, idx, None),
                (Vector::F64(d), Vector::F64(s)) => fetch(d, s, idx, None),
                (Vector::Bool(d), Vector::Bool(s)) => fetch(d, s, idx, None),
                (d, s) => panic!(
                    "gather_rows type mismatch: dst {:?}, src {:?}",
                    d.scalar_type(),
                    s.scalar_type()
                ),
            }
        }
    };
    assert!(in_range, "gather_rows: a position is out of range");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_gather() {
        let base = [10.0, 20.0, 30.0, 40.0];
        let idx = [3u32, 0, 2];
        let mut res = [0.0; 3];
        assert!(fetch(&mut res, &base, &idx, None));
        assert_eq!(res, [40.0, 10.0, 30.0]);
    }

    #[test]
    fn selected_gather_preserves_other_positions() {
        let base = [10i64, 20, 30];
        let idx = [2u32, 1, 0];
        let sel = SelVec::from_positions(vec![0, 2]);
        let mut res = [-1i64; 3];
        assert!(fetch(&mut res, &base, &idx, Some(&sel)));
        assert_eq!(res, [30, -1, 10]);
    }

    #[test]
    fn out_of_range_writes_nothing() {
        let base = [10i64, 20, 30];
        let mut res = [-1i64; 3];
        assert!(!fetch(&mut res, &base, &[0u32, 3, 1], None));
        assert_eq!(res, [-1, -1, -1]);
        // Unselected slots may hold delta-row ids; a selected position
        // past the vector is out of range, never read.
        let sel = SelVec::from_positions(vec![0, 2]);
        assert!(fetch(&mut res, &base, &[2u32, 99, 1], Some(&sel)));
        assert_eq!(res, [30, -1, 20]);
        let past = SelVec::from_positions(vec![0, 3]);
        assert!(!fetch(&mut res, &base, &[0u32; 4], Some(&past)));
    }

    #[test]
    fn enum_code_decompression() {
        // Enumeration type: codes into a small dictionary (paper §4.3).
        let dict = [0.0, 0.01, 0.02, 0.05];
        let codes = [3u8, 0, 1, 1];
        let mut res = [0.0; 4];
        assert!(fetch(&mut res, &dict, &codes, None));
        assert_eq!(res, [0.05, 0.0, 0.01, 0.01]);
        assert!(!fetch(&mut res, &dict, &[4u8], None));
    }

    #[test]
    fn u16_codes() {
        let dict: Vec<i32> = (0..1000).collect();
        let codes = [999u16, 500, 0];
        let mut res = [0i32; 3];
        assert!(fetch(&mut res, &dict, &codes, None));
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
