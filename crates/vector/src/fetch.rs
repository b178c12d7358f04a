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
//! crates. [`gather_rows`] runs it over whole [`Vector`]s (strings
//! through [`fetch_str`]) and is the only positional read of storage
//! and engine: fetch-joins, enum decodes, join and ordered-aggregation
//! materialization and a table's reorganization all go through it.

use crate::sel::SelVec;
use crate::vector::{same_fixed, StrVec, Vector};

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

/// String gather: rebuilds a `StrVec` positionally, one string per
/// position of `idx`. Only the selected positions are read: each copies
/// its string's bytes (valid UTF-8 already, so not checked again), and
/// each run of unselected positions before it becomes empty strings in
/// one offsets `resize` — the positional contract holds. Returns
/// `false` and writes nothing when a selected position is out of
/// `base` ([`in_range`], once per vector).
#[must_use]
pub fn fetch_str<P: Position>(
    res: &mut StrVec,
    base: &StrVec,
    idx: &[P],
    sel: Option<&SelVec>,
) -> bool {
    if !in_range(idx, idx.len(), sel, base.len()) {
        return false;
    }
    res.clear();
    match sel {
        None => idx.iter().for_each(|j| res.push_from(base, j.index())),
        Some(sel) => {
            for i in sel.iter() {
                res.pad_to(i);
                res.push_from(base, idx[i].index());
            }
            res.pad_to(idx.len());
        }
    }
    true
}

/// The typed gather over whole vectors — the one positional read of
/// storage and engine: `dst[i] = src[idx[i]]` at the selected positions
/// (all when `sel` is `None`), `dst` sized to `idx.len()`. Strings
/// rebuild through [`fetch_str`]; every fixed-width type runs the
/// [`fetch`] kernel. Returns the kernel's verdict: `false` when a
/// selected position is out of `src` (a `#rowId` past the fragment, a
/// code outside its dictionary), with no value gathered.
///
/// # Panics
/// On a type mismatch between `dst` and `src`.
#[must_use]
pub fn gather_rows<P: Position>(
    dst: &mut Vector,
    src: &Vector,
    idx: &[P],
    sel: Option<&SelVec>,
) -> bool {
    if let (Vector::Str(d), Vector::Str(s)) = (&mut *dst, src) {
        return fetch_str(d, s, idx, sel);
    }
    dst.resize_zeroed(idx.len());
    same_fixed!((dst, src), |d, s| fetch(d, s, idx, sel),
        (d, s) => panic!(
            "gather type mismatch: dst {:?}, src {:?}",
            d.scalar_type(),
            s.scalar_type()
        )
    )
}

/// [`gather_rows`] at positions held in a vector: `U8`/`U16` enum codes
/// (dictionary decode) or `U32` row ids.
///
/// # Panics
/// When `idx` holds another type.
#[must_use]
pub fn gather_at(dst: &mut Vector, src: &Vector, idx: &Vector, sel: Option<&SelVec>) -> bool {
    match idx {
        Vector::U8(p) => gather_rows(dst, src, p, sel),
        Vector::U16(p) => gather_rows(dst, src, p, sel),
        Vector::U32(p) => gather_rows(dst, src, p, sel),
        other => panic!("gather positions of type {:?}", other.scalar_type()),
    }
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
        let mut res = StrVec::new();
        assert!(fetch_str(&mut res, &base, &[2u32, 2, 0], None));
        assert_eq!(
            res.iter().collect::<Vec<_>>(),
            vec!["gamma", "gamma", "alpha"]
        );
        assert!(!fetch_str(&mut res, &base, &[3u8], None));
        assert_eq!(res.len(), 3, "an out-of-range gather writes nothing");
    }

    #[test]
    fn string_gather_with_sel() {
        let base: StrVec = ["a", "b"].into_iter().collect();
        let sel = SelVec::from_positions(vec![0, 2]);
        let mut res = StrVec::new();
        // The unselected position may hold anything.
        assert!(fetch_str(&mut res, &base, &[1u32, 7, 1], Some(&sel)));
        assert_eq!(res.iter().collect::<Vec<_>>(), vec!["b", "", "b"]);
    }

    #[test]
    fn gather_rows_fetches_rowids() {
        let src = Vector::I64((0..50).map(|i| i * 10).collect());
        let mut dst = Vector::with_capacity(crate::ScalarType::I64, 0);
        assert!(gather_rows(&mut dst, &src, &[49u32, 0, 7], None));
        assert_eq!(dst.as_i64(), &[490, 0, 70]);
        assert!(!gather_rows(&mut dst, &src, &[50u32], None));
    }

    #[test]
    fn gather_rows_all_types() {
        let idx = [2u32, 0, 2];
        let src = Vector::I32(vec![5, 6, 7]);
        let mut dst = Vector::with_capacity(crate::ScalarType::I32, 0);
        assert!(gather_rows(&mut dst, &src, &idx, None));
        assert_eq!(dst.as_i32(), &[7, 5, 7]);

        let s: StrVec = ["a", "b", "c"].into_iter().collect();
        let mut dst = Vector::Str(StrVec::new());
        assert!(gather_rows(&mut dst, &Vector::Str(s), &idx, None));
        assert_eq!(dst.as_str().iter().collect::<Vec<_>>(), vec!["c", "a", "c"]);

        let mut dst = Vector::Bool(vec![]);
        let bools = Vector::Bool(vec![true, false, true]);
        assert!(gather_rows(&mut dst, &bools, &idx, None));
        assert_eq!(dst.as_bool(), &[true, true, true]);
        assert!(!gather_rows(&mut dst, &bools, &[3u32], None));
    }

    #[test]
    fn gather_at_decodes_codes_under_a_selection() {
        // An enum decode: U8 codes into a string dictionary, and U16
        // codes into an f64 one, under the fetch's selection.
        let dict = Vector::Str(["A", "N", "R"].into_iter().collect());
        let sel = SelVec::from_positions(vec![1, 2]);
        let mut out = Vector::Str(StrVec::new());
        assert!(gather_at(
            &mut out,
            &dict,
            &Vector::U8(vec![9, 2, 0]),
            Some(&sel)
        ));
        assert_eq!(out.as_str().iter().collect::<Vec<_>>(), vec!["", "R", "A"]);
        let dict = Vector::F64(vec![0.0, 0.05]);
        let mut out = Vector::with_capacity(crate::ScalarType::F64, 0);
        assert!(gather_at(&mut out, &dict, &Vector::U16(vec![1, 0]), None));
        assert_eq!(out.as_f64(), &[0.05, 0.0]);
        assert!(!gather_at(&mut out, &dict, &Vector::U16(vec![2]), None));
    }

    #[test]
    #[should_panic(expected = "gather type mismatch")]
    fn gather_type_mismatch_panics() {
        let mut dst = Vector::with_capacity(crate::ScalarType::F64, 0);
        let _ = gather_rows(&mut dst, &Vector::I32(vec![1]), &[0u32], None);
    }
}
