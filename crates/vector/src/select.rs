//! `select_*` primitives: predicate evaluation into selection vectors.
//!
//! Unlike `map_*` primitives (which would produce a full boolean vector),
//! a select primitive fills a result array with the *positions* of
//! qualifying tuples and returns how many qualified (paper §4.2).
//!
//! Every select is **predicated** — `out[j] = i; j += pred as usize`:
//! branch-free, with a selectivity-independent cost (Ross \[17\], as
//! cited by the paper). The **branch** shape — `if pred { out[j] = i;
//! j += 1 }`, fast at extreme selectivities and mispredicting near 50% —
//! survives only as the paper's Figure 2 micro-benchmark kernel
//! ([`sel_lt_i32_col_i32_val_branch`]).
//!
//! Every select also accepts an *input* selection vector, refining the
//! positions a previous predicate already selected (conjunctions chain
//! select primitives without copying data).

use crate::map::CmpOp;
use crate::sel::SelVec;

/// Branching select kernel: dense input (Figure 2's branch version).
#[inline]
fn select_dense_branch<T: Copy, F: Fn(T) -> bool>(out: &mut Vec<u32>, a: &[T], f: F) -> usize {
    out.clear();
    for (i, &x) in a.iter().enumerate() {
        if f(x) {
            out.push(i as u32);
        }
    }
    out.len()
}

/// Predicated (branch-free) select kernel: dense input.
///
/// Writes candidate positions unconditionally and advances the output
/// cursor by the predicate's truth value, eliminating the data-dependent
/// branch (Figure 2's "predicated version").
#[inline]
fn select_dense_pred<T: Copy, F: Fn(T) -> bool>(out: &mut Vec<u32>, a: &[T], f: F) -> usize {
    out.clear();
    out.resize(a.len(), 0);
    let buf = &mut out[..];
    let mut j = 0usize;
    for (i, &x) in a.iter().enumerate() {
        buf[j] = i as u32;
        j += f(x) as usize;
    }
    out.truncate(j);
    j
}

/// Predicated select kernel refining an existing selection.
#[inline]
fn select_sel_pred<T: Copy, F: Fn(T) -> bool>(
    out: &mut Vec<u32>,
    a: &[T],
    sel: &SelVec,
    f: F,
) -> usize {
    out.clear();
    out.resize(sel.len(), 0);
    let buf = &mut out[..];
    let mut j = 0usize;
    for i in sel.iter() {
        buf[j] = i as u32;
        j += f(a[i]) as usize;
    }
    out.truncate(j);
    j
}

/// Generic column-vs-constant select: fills `out` with the positions where
/// `a[i] ⊙ v` holds, honoring `sel`. Returns the match count.
#[inline]
pub fn select_cmp_col_val<T: Copy + PartialOrd>(
    out: &mut SelVec,
    a: &[T],
    v: T,
    op: CmpOp,
    sel: Option<&SelVec>,
) -> usize {
    macro_rules! dispatch {
        ($f:expr) => {
            match sel {
                None => select_dense_pred(out.buf_mut(), a, $f),
                Some(s) => select_sel_pred(out.buf_mut(), a, s, $f),
            }
        };
    }
    match op {
        CmpOp::Eq => dispatch!(|x| x == v),
        CmpOp::Ne => dispatch!(|x| x != v),
        CmpOp::Lt => dispatch!(|x| x < v),
        CmpOp::Le => dispatch!(|x| x <= v),
        CmpOp::Gt => dispatch!(|x| x > v),
        CmpOp::Ge => dispatch!(|x| x >= v),
    }
}

/// Generic column-vs-column select (`a[i] ⊙ b[i]`).
#[inline]
pub fn select_cmp_col_col<T: Copy + PartialOrd>(
    out: &mut SelVec,
    a: &[T],
    b: &[T],
    op: CmpOp,
    sel: Option<&SelVec>,
) -> usize {
    debug_assert_eq!(a.len(), b.len());
    let out = out.buf_mut();
    out.clear();
    macro_rules! run {
        ($pred:expr) => {
            match sel {
                None => {
                    out.resize(a.len(), 0);
                    let mut j = 0usize;
                    for i in 0..a.len() {
                        out[j] = i as u32;
                        j += $pred(a[i], b[i]) as usize;
                    }
                    out.truncate(j);
                }
                Some(s) => {
                    out.resize(s.len(), 0);
                    let mut j = 0usize;
                    for i in s.iter() {
                        out[j] = i as u32;
                        j += $pred(a[i], b[i]) as usize;
                    }
                    out.truncate(j);
                }
            }
        };
    }
    match op {
        CmpOp::Eq => run!(|x, y| x == y),
        CmpOp::Ne => run!(|x, y| x != y),
        CmpOp::Lt => run!(|x, y| x < y),
        CmpOp::Le => run!(|x, y| x <= y),
        CmpOp::Gt => run!(|x, y| x > y),
        CmpOp::Ge => run!(|x, y| x >= y),
    }
    out.len()
}

/// Select on a boolean column (result of a nested boolean expression).
#[inline]
pub fn select_true(out: &mut SelVec, a: &[bool], sel: Option<&SelVec>) -> usize {
    match sel {
        None => select_dense_pred(out.buf_mut(), a, |x| x),
        Some(s) => select_sel_pred(out.buf_mut(), a, s, |x| x),
    }
}

/// Select rows whose string equals `v` — or, with `negate`, differs
/// from it (column-vs-constant on `StrVec`). Compared as bytes: equal
/// strings are equal byte sequences, so no row's UTF-8 is checked again.
#[inline]
pub fn select_str_eq(
    out: &mut SelVec,
    a: &crate::StrVec,
    v: &str,
    negate: bool,
    sel: Option<&SelVec>,
) -> usize {
    let v = v.as_bytes();
    let keep = |i: &u32| (a.get_bytes(*i as usize) == v) != negate;
    let buf = out.buf_mut();
    buf.clear();
    match sel {
        None => buf.extend((0..a.len() as u32).filter(keep)),
        Some(s) => buf.extend(s.positions().iter().copied().filter(keep)),
    }
    buf.len()
}

/// The paper's Figure 2 micro-benchmark kernel, verbatim: branch version of
/// `SELECT oid FROM table WHERE col < V` over `i32`.
#[inline]
pub fn sel_lt_i32_col_i32_val_branch(out: &mut Vec<u32>, src: &[i32], v: i32) -> usize {
    select_dense_branch(out, src, |x| x < v)
}

/// The paper's Figure 2 micro-benchmark kernel, verbatim: predicated
/// version of `SELECT oid FROM table WHERE col < V` over `i32`.
#[inline]
pub fn sel_lt_i32_col_i32_val_pred(out: &mut Vec<u32>, src: &[i32], v: i32) -> usize {
    select_dense_pred(out, src, |x| x < v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn branch_and_pred_agree_dense() {
        // Figure 2's branch kernel against the engine's predicated select.
        let a: Vec<i32> = (0..100).map(|i| (i * 37) % 100).collect();
        let mut s1 = Vec::new();
        let mut s2 = SelVec::default();
        for v in [0, 13, 50, 99, 100] {
            let n1 = sel_lt_i32_col_i32_val_branch(&mut s1, &a, v);
            let n2 = select_cmp_col_val(&mut s2, &a, v, CmpOp::Lt, None);
            assert_eq!(n1, n2, "count mismatch at v={v}");
            assert_eq!(&s1[..], s2.positions(), "positions mismatch at v={v}");
        }
    }

    #[test]
    fn branch_and_pred_agree_with_input_sel() {
        // Refining an input selection keeps exactly the selected
        // positions the dense branch kernel accepts.
        let a: Vec<i32> = (0..64).map(|i| i * 3 % 17).collect();
        let pre = SelVec::from_positions((0..64).filter(|i| i % 2 == 0).collect());
        let mut dense = Vec::new();
        sel_lt_i32_col_i32_val_branch(&mut dense, &a, 9);
        let want: Vec<u32> = dense.into_iter().filter(|p| p % 2 == 0).collect();
        let mut s = SelVec::default();
        let n = select_cmp_col_val(&mut s, &a, 8, CmpOp::Le, Some(&pre));
        assert_eq!(n, want.len());
        assert_eq!(s.positions(), &want[..]);
    }

    #[test]
    fn refinement_narrows() {
        let a = [5, 1, 8, 3, 9, 2];
        let mut first = SelVec::default();
        select_cmp_col_val(&mut first, &a, 8, CmpOp::Lt, None);
        assert_eq!(first.positions(), &[0, 1, 3, 5]);
        let mut second = SelVec::default();
        select_cmp_col_val(&mut second, &a, 2, CmpOp::Gt, Some(&first));
        assert_eq!(second.positions(), &[0, 3]);
    }

    #[test]
    fn col_col_select() {
        let a = [1, 5, 3, 7];
        let b = [2, 2, 9, 7];
        let mut s = SelVec::default();
        let n = select_cmp_col_col(&mut s, &a, &b, CmpOp::Lt, None);
        assert_eq!(n, 2);
        assert_eq!(s.positions(), &[0, 2]);
        let pre = SelVec::from_positions(vec![1, 2, 3]);
        let n = select_cmp_col_col(&mut s, &a, &b, CmpOp::Le, Some(&pre));
        assert_eq!(n, 2);
        assert_eq!(s.positions(), &[2, 3]);
    }

    #[test]
    fn select_true_on_bools() {
        let a = [true, false, true, true];
        let mut s = SelVec::default();
        let pre = SelVec::from_positions(vec![1, 2]);
        assert_eq!(select_true(&mut s, &a, None), 3);
        assert_eq!(s.positions(), &[0, 2, 3]);
        assert_eq!(select_true(&mut s, &a, Some(&pre)), 1);
        assert_eq!(s.positions(), &[2]);
    }

    #[test]
    fn select_str_eq_works() {
        let v: crate::StrVec = ["a", "b", "a", "c"].into_iter().collect();
        let mut s = SelVec::default();
        assert_eq!(select_str_eq(&mut s, &v, "a", false, None), 2);
        assert_eq!(s.positions(), &[0, 2]);
        // Negated, and under a selection.
        let under = SelVec::from_positions(vec![0, 1, 3]);
        assert_eq!(select_str_eq(&mut s, &v, "a", true, Some(&under)), 2);
        assert_eq!(s.positions(), &[1, 3]);
    }

    #[test]
    fn figure2_kernels_match() {
        let src: Vec<i32> = (0..1000).map(|i| (i * 7919) % 100).collect();
        let mut o1 = Vec::new();
        let mut o2 = Vec::new();
        for v in 0..=100 {
            let n1 = sel_lt_i32_col_i32_val_branch(&mut o1, &src, v);
            let n2 = sel_lt_i32_col_i32_val_pred(&mut o2, &src, v);
            assert_eq!(n1, n2);
            assert_eq!(o1, o2);
        }
    }

    #[test]
    fn empty_input() {
        let a: [i32; 0] = [];
        let mut s = SelVec::default();
        assert_eq!(select_cmp_col_val(&mut s, &a, 1, CmpOp::Lt, None), 0);
        let mut o = Vec::new();
        assert_eq!(sel_lt_i32_col_i32_val_branch(&mut o, &a, 1), 0);
    }
}
