//! Plan-level abstract interpretation: value-range, sortedness and
//! row-count facts over bound plans.
//!
//! The bind-time verifier ([`crate::check`]) walks the plan once; this
//! module supplies the *abstract domain* it threads through that walk:
//! per column a [`ColFact`] (value range, distinct bound, sortedness,
//! dictionary domain), per node a [`NodeFacts`] (columns + row-count
//! bound). Facts originate from column statistics — harvested at table
//! build time, and over the pending insert delta when asked, so they
//! cover it ([`x100_storage::ColumnStats`]) — and from enum dictionary
//! domains, are refined by `Select` predicates, and flow through
//! compiled expression programs via the per-primitive transfer
//! functions declared in the registry ([`x100_vector::FactTransfer`]).
//!
//! Sinks (decided in the same walk, recorded on the checked node the
//! operators are instantiated from):
//! * **fetch-bounds verdicts** — whether every `#rowId` a `Fetch1Join`
//!   / `FetchNJoin` gathers is proven `< fragment_rows`. Facts explain,
//!   the kernel checks: `--explain-facts` prints the verdict, and the
//!   gather checks its own bounds once per vector, so no operator reads
//!   it, and a `#rowId` past the table's end is a typed run-time error;
//! * **selection folding** — predicates proven always-true become a
//!   pass-through, always-false an empty dataflow;
//! * **no-overflow proofs** — integer interval arithmetic widens to ⊤
//!   exactly when the result type could overflow, so a non-⊤ integer
//!   range doubles as an overflow-freedom certificate.
//!
//! The analysis is conservatively sound: any unknown primitive,
//! [`FactTransfer::Opaque`] kernel, NaN-bearing float column, or
//! unmodeled operator widens to ⊤ and the engine
//! runs exactly as without the analyzer.

use crate::batch::OutField;
use crate::compile::{ExprCode, Instr, Src};
use crate::expr::{AggFunc, ArithOp, Expr};
use crate::ops::PredStep;
use std::sync::Arc;
use x100_storage::{ColumnStats, Table};
use x100_vector::{CmpOp, FactTransfer, PrimitiveRegistry, ScalarType, Value};

/// Largest integer magnitude exactly representable in an `f64`.
const F64_EXACT_INT: i64 = 1 << 53;

/// A closed, finite value interval. `Float` ranges never contain NaN or
/// infinities (sources reject them; arithmetic that could produce them
/// widens to ⊤ = `None` at the [`ColFact`] level).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FactRange {
    /// Integer interval `[lo, hi]` (also used for booleans as `[0,1]`).
    Int(i64, i64),
    /// Finite float interval `[lo, hi]`.
    Float(f64, f64),
}

impl FactRange {
    /// The integer endpoints, if this is an integer range.
    pub fn as_int(&self) -> Option<(i64, i64)> {
        match self {
            FactRange::Int(a, b) => Some((*a, *b)),
            FactRange::Float(..) => None,
        }
    }

    /// Endpoints as floats (exact for small integers, widened for big).
    fn as_float(&self) -> (f64, f64) {
        match *self {
            FactRange::Int(a, b) => (a as f64, b as f64),
            FactRange::Float(a, b) => (a, b),
        }
    }

    /// Whether `v` lies within the interval (integer ranges accept any
    /// numeric value that equals an integer in range).
    pub fn contains_value(&self, v: &Value) -> bool {
        match self {
            FactRange::Int(a, b) => {
                let x = match v {
                    Value::F64(f) => {
                        return f.is_finite() && *f >= *a as f64 && *f <= *b as f64;
                    }
                    other => other.as_i64(),
                };
                x >= *a && x <= *b
            }
            FactRange::Float(a, b) => {
                let x = v.as_f64();
                x.is_finite() && x >= *a && x <= *b
            }
        }
    }
}

/// Abstract state of one column at one plan node. `None` fields mean ⊤
/// (nothing known).
#[derive(Debug, Clone, PartialEq)]
pub struct ColFact {
    /// Value range, `None` = ⊤.
    pub range: Option<FactRange>,
    /// Whether the column is proven NULL-free. The engine has no NULL
    /// representation today, so this is always `true`; it is carried so
    /// the domain (and its consumers) survive a nullable future.
    pub non_null: bool,
    /// Upper bound on the number of distinct values, `None` = ⊤.
    pub distinct_max: Option<u64>,
    /// Whether values are non-decreasing in scan order.
    pub sorted: bool,
    /// For enum-code columns: the dictionary cardinality (the code
    /// domain is `[0, dict_card)`); `None` for plain columns.
    pub dict_card: Option<u32>,
}

impl ColFact {
    /// The ⊤ element: nothing known (except engine-wide NULL-freedom).
    pub fn top() -> ColFact {
        ColFact {
            range: None,
            non_null: true,
            distinct_max: None,
            sorted: false,
            dict_card: None,
        }
    }

    /// A fact carrying only a range (derived expression results).
    fn from_range(range: Option<FactRange>) -> ColFact {
        ColFact {
            range,
            ..ColFact::top()
        }
    }
}

/// Abstract state of one plan node's output.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeFacts {
    /// One fact per output column, positionally aligned with the node's
    /// output fields.
    pub cols: Vec<ColFact>,
    /// Upper bound on the total number of rows the node emits, `None`
    /// = ⊤. (No lower bound is tracked: morsel-parallel workers each
    /// see a slice of the input, so a lower bound would be unsound
    /// per-worker.)
    pub rows_max: Option<u64>,
}

impl NodeFacts {
    /// ⊤ for an `n`-column node.
    pub fn top(n: usize) -> NodeFacts {
        NodeFacts {
            cols: vec![ColFact::top(); n],
            rows_max: None,
        }
    }
}

/// The representable bounds of an integer scalar type (`None` for
/// non-integer types).
fn ty_bounds(ty: ScalarType) -> Option<(i64, i64)> {
    Some(match ty {
        ScalarType::I8 => (i8::MIN as i64, i8::MAX as i64),
        ScalarType::I16 => (i16::MIN as i64, i16::MAX as i64),
        ScalarType::I32 => (i32::MIN as i64, i32::MAX as i64),
        ScalarType::I64 => (i64::MIN, i64::MAX),
        ScalarType::U8 => (0, u8::MAX as i64),
        ScalarType::U16 => (0, u16::MAX as i64),
        ScalarType::U32 => (0, u32::MAX as i64),
        ScalarType::Bool => (0, 1),
        _ => return None,
    })
}

/// Lift a stats [`Value`] pair into a range (respecting the NaN/Str
/// `None` convention of [`ColumnStats`]).
fn range_from_stats(min: &Option<Value>, max: &Option<Value>) -> Option<FactRange> {
    match (min, max) {
        (Some(Value::F64(a)), Some(Value::F64(b))) => {
            if a.is_finite() && b.is_finite() {
                Some(FactRange::Float(*a, *b))
            } else {
                None
            }
        }
        (Some(a), Some(b)) => match (a, b) {
            (Value::Str(_), _) | (_, Value::Str(_)) => None,
            (Value::U64(x), Value::U64(y)) => {
                let lo = i64::try_from(*x).ok()?;
                let hi = i64::try_from(*y).ok()?;
                Some(FactRange::Int(lo, hi))
            }
            _ => Some(FactRange::Int(a.as_i64(), b.as_i64())),
        },
        _ => None,
    }
}

/// Source fact for one stored column of `t`, as the scan emits it.
///
/// `as_codes = true` reads the physical enum codes; `false` the decoded
/// values. The statistics cover fragment ++ insert delta
/// ([`Table::column_stats`]), and an insert delta holds an enum column's
/// codes into the same dictionary (a value it lacked is appended), so
/// the dictionary's domain bounds every row, pending or not.
pub fn source_col_fact(t: &Table, ci: usize, as_codes: bool) -> ColFact {
    let sc = t.column(ci);
    match sc.dict() {
        Some(d) => {
            let card = d.cardinality() as u32;
            if as_codes {
                // Code domain: [0, card), or the tighter stats.
                let stats = t.column_stats(ci);
                let range = range_from_stats(&stats.min, &stats.max)
                    .or(Some(FactRange::Int(0, card.saturating_sub(1) as i64)));
                ColFact {
                    range,
                    non_null: true,
                    distinct_max: Some(card as u64),
                    sorted: stats.sorted,
                    dict_card: Some(card),
                }
            } else {
                // Decoded values are drawn from the dictionary; its
                // min/max bound every row.
                let ds = ColumnStats::compute(d.values());
                ColFact {
                    range: range_from_stats(&ds.min, &ds.max),
                    non_null: true,
                    distinct_max: Some(card as u64),
                    sorted: false,
                    dict_card: None,
                }
            }
        }
        None => {
            let stats = t.column_stats(ci);
            ColFact {
                range: range_from_stats(&stats.min, &stats.max),
                non_null: true,
                distinct_max: None,
                sorted: stats.sorted,
                dict_card: None,
            }
        }
    }
}

/// Saturating interval arithmetic for one integer operation; `None`
/// when the exact result could leave `[ty_lo, ty_hi]` (the no-overflow
/// proof fails) or overflow `i64` during computation.
fn int_interval(
    op: ArithOp,
    (la, lb): (i64, i64),
    (ra, rb): (i64, i64),
    ty: ScalarType,
) -> Option<FactRange> {
    let (tlo, thi) = ty_bounds(ty)?;
    let (lo, hi) = match op {
        ArithOp::Add => (la.checked_add(ra)?, lb.checked_add(rb)?),
        ArithOp::Sub => (la.checked_sub(rb)?, lb.checked_sub(ra)?),
        ArithOp::Mul => {
            let p = [
                la.checked_mul(ra)?,
                la.checked_mul(rb)?,
                lb.checked_mul(ra)?,
                lb.checked_mul(rb)?,
            ];
            (*p.iter().min()?, *p.iter().max()?)
        }
        // Integer division lowers to f64 in the compiler; unreachable
        // here, treat as ⊤ defensively.
        ArithOp::Div => return None,
    };
    if lo < tlo || hi > thi {
        return None; // could overflow the result type: widen to ⊤
    }
    Some(FactRange::Int(lo, hi))
}

/// Float interval arithmetic. Endpoint evaluation is sound for a single
/// rounded operation because round-to-nearest is monotone: for any x in
/// [la,lb], y in [ra,rb], fl(x∘y) lies between the fl-evaluated extreme
/// endpoint products. Results that could be non-finite widen to ⊤.
fn float_interval(op: ArithOp, (la, lb): (f64, f64), (ra, rb): (f64, f64)) -> Option<FactRange> {
    let (lo, hi) = match op {
        ArithOp::Add => (la + ra, lb + rb),
        ArithOp::Sub => (la - rb, lb - ra),
        ArithOp::Mul => {
            let p = [la * ra, la * rb, lb * ra, lb * rb];
            let lo = p.iter().cloned().fold(f64::INFINITY, f64::min);
            let hi = p.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            (lo, hi)
        }
        ArithOp::Div => {
            if ra <= 0.0 && rb >= 0.0 {
                return None; // divisor interval contains zero
            }
            let p = [la / ra, la / rb, lb / ra, lb / rb];
            let lo = p.iter().cloned().fold(f64::INFINITY, f64::min);
            let hi = p.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            (lo, hi)
        }
    };
    if lo.is_finite() && hi.is_finite() {
        Some(FactRange::Float(lo, hi))
    } else {
        None
    }
}

/// Interval transfer for a binary arithmetic instruction in type `ty`.
fn arith_range(
    op: ArithOp,
    ty: ScalarType,
    l: Option<FactRange>,
    r: Option<FactRange>,
) -> Option<FactRange> {
    let (l, r) = (l?, r?);
    if ty == ScalarType::F64 {
        float_interval(op, l.as_float(), r.as_float())
    } else {
        int_interval(op, l.as_int()?, r.as_int()?, ty)
    }
}

/// Comparison fold: `Some(Int(1,1))` when provably always true over the
/// operand ranges, `Some(Int(0,0))` when provably always false, else
/// the boolean domain `[0,1]`.
fn cmp_range(op: CmpOp, l: Option<FactRange>, r: Option<FactRange>) -> FactRange {
    let bool_top = BOOL_TOP;
    let (Some(l), Some(r)) = (l, r) else {
        return bool_top;
    };
    // Compare in float space when either side is float (exact when both
    // sides stay within 2^53, which integer stats-derived ranges do for
    // all realistic data; larger values just fail to fold).
    let exact = |x: f64| x.abs() <= F64_EXACT_INT as f64;
    let ((la, lb), (ra, rb)) = match (l, r) {
        (FactRange::Int(a, b), FactRange::Int(c, d)) => {
            ((a as f64, b as f64), (c as f64, d as f64))
        }
        _ => {
            let (la, lb) = l.as_float();
            let (ra, rb) = r.as_float();
            if !(exact(la) && exact(lb) && exact(ra) && exact(rb))
                && matches!(l, FactRange::Int(..)) != matches!(r, FactRange::Int(..))
            {
                return bool_top; // mixed int/float beyond exact f64 range
            }
            ((la, lb), (ra, rb))
        }
    };
    let always = |b: bool| {
        if b {
            FactRange::Int(1, 1)
        } else {
            FactRange::Int(0, 0)
        }
    };
    match op {
        CmpOp::Lt if lb < ra => always(true),
        CmpOp::Lt if la >= rb => always(false),
        CmpOp::Le if lb <= ra => always(true),
        CmpOp::Le if la > rb => always(false),
        CmpOp::Gt if la > rb => always(true),
        CmpOp::Gt if lb <= ra => always(false),
        CmpOp::Ge if la >= rb => always(true),
        CmpOp::Ge if lb < ra => always(false),
        CmpOp::Eq if la == lb && ra == rb && la == ra => always(true),
        CmpOp::Eq if lb < ra || la > rb => always(false),
        CmpOp::Ne if lb < ra || la > rb => always(true),
        CmpOp::Ne if la == lb && ra == rb && la == ra => always(false),
        _ => bool_top,
    }
}

/// Range of a literal.
fn value_range(v: &Value) -> Option<FactRange> {
    Some(match v {
        Value::F64(x) => {
            if !x.is_finite() {
                return None;
            }
            FactRange::Float(*x, *x)
        }
        Value::Bool(b) => FactRange::Int(*b as i64, *b as i64),
        Value::Str(_) => return None,
        Value::U64(x) => {
            let v = i64::try_from(*x).ok()?;
            FactRange::Int(v, v)
        }
        other => {
            let v = other.as_i64();
            FactRange::Int(v, v)
        }
    })
}

/// Cast transfer: the input range carries to the target type. Integer →
/// `F64` is exact only within ±2^53; bool → numeric keeps `[0,1]`.
fn cast_range(to: ScalarType, r: Option<FactRange>) -> Option<FactRange> {
    let r = r?;
    match (r, to) {
        (FactRange::Int(a, b), ScalarType::F64) => {
            if a.abs() <= F64_EXACT_INT && b.abs() <= F64_EXACT_INT {
                Some(FactRange::Float(a as f64, b as f64))
            } else {
                None
            }
        }
        (FactRange::Int(..), _) => Some(r),
        (FactRange::Float(..), ScalarType::F64) => Some(r),
        // Float → integer casts don't exist in the compiler today.
        (FactRange::Float(..), _) => None,
    }
}

/// Abstract-interpret a compiled expression program over the input
/// column facts, returning the fact of the program's result.
///
/// Every instruction is gated on its registry entry: an unknown
/// signature or a [`FactTransfer::Opaque`] transfer yields ⊤ for that
/// register (conservative soundness), and the interpretation continues
/// — downstream instructions see `None` operands and stay ⊤.
pub fn eval_prog(prog: &ExprCode, cols: &[ColFact], reg: &PrimitiveRegistry) -> ColFact {
    let nregs = prog.reg_types().len();
    let mut regs: Vec<Option<FactRange>> = vec![None; nregs];
    let col_range = |s: Src, regs: &[Option<FactRange>]| -> Option<FactRange> {
        match s {
            Src::Col(i) => cols.get(i as usize).and_then(|c| c.range),
            Src::Reg(i) => regs.get(i as usize).copied().flatten(),
        }
    };
    for (instr, sig) in prog.instr_list() {
        let modeled = reg
            .get(sig)
            .map(|d| d.info.transfer != FactTransfer::Opaque)
            .unwrap_or(false);
        let (dst, range) = if !modeled {
            let dst = match instr {
                Instr::ArithCC { dst, .. }
                | Instr::ArithCV { dst, .. }
                | Instr::ArithVC { dst, .. }
                | Instr::CmpCC { dst, .. }
                | Instr::CmpCV { dst, .. }
                | Instr::StrEqCV { dst, .. }
                | Instr::And { dst, .. }
                | Instr::Or { dst, .. }
                | Instr::Not { dst, .. }
                | Instr::Cast { dst, .. }
                | Instr::Fill { dst, .. }
                | Instr::FusedSubValMul { dst, .. }
                | Instr::FusedAddValMul { dst, .. }
                | Instr::YearOf { dst, .. }
                | Instr::StrContainsCV { dst, .. } => *dst,
            };
            (dst, None)
        } else {
            match instr {
                Instr::ArithCC { op, ty, l, r, dst } => (
                    *dst,
                    arith_range(*op, *ty, col_range(*l, &regs), col_range(*r, &regs)),
                ),
                Instr::ArithCV { op, ty, l, v, dst } => (
                    *dst,
                    arith_range(*op, *ty, col_range(*l, &regs), value_range(v)),
                ),
                Instr::ArithVC { op, ty, v, r, dst } => (
                    *dst,
                    arith_range(*op, *ty, value_range(v), col_range(*r, &regs)),
                ),
                Instr::CmpCC { op, l, r, dst, .. } => (
                    *dst,
                    Some(cmp_range(*op, col_range(*l, &regs), col_range(*r, &regs))),
                ),
                Instr::CmpCV { op, l, v, dst, .. } => (
                    *dst,
                    Some(cmp_range(*op, col_range(*l, &regs), value_range(v))),
                ),
                Instr::StrEqCV { dst, .. } | Instr::StrContainsCV { dst, .. } => {
                    (*dst, Some(FactRange::Int(0, 1)))
                }
                Instr::And { l, r, dst } => {
                    let f = |s: Src| match col_range(s, &regs) {
                        Some(FactRange::Int(a, b)) => (a.clamp(0, 1), b.clamp(0, 1)),
                        _ => (0, 1),
                    };
                    let ((la, lb), (ra, rb)) = (f(*l), f(*r));
                    (*dst, Some(FactRange::Int(la.min(ra), lb.min(rb))))
                }
                Instr::Or { l, r, dst } => {
                    let f = |s: Src| match col_range(s, &regs) {
                        Some(FactRange::Int(a, b)) => (a.clamp(0, 1), b.clamp(0, 1)),
                        _ => (0, 1),
                    };
                    let ((la, lb), (ra, rb)) = (f(*l), f(*r));
                    (*dst, Some(FactRange::Int(la.max(ra), lb.max(rb))))
                }
                Instr::Not { s, dst } => {
                    let r = match col_range(*s, &regs) {
                        Some(FactRange::Int(a, b)) => {
                            FactRange::Int(1 - b.clamp(0, 1), 1 - a.clamp(0, 1))
                        }
                        _ => FactRange::Int(0, 1),
                    };
                    (*dst, Some(r))
                }
                Instr::Cast { to, s, dst, .. } => (*dst, cast_range(*to, col_range(*s, &regs))),
                Instr::Fill { v, dst } => (*dst, value_range(v)),
                Instr::FusedSubValMul { v, a, b, dst } => {
                    let inner = arith_range(
                        ArithOp::Sub,
                        ScalarType::F64,
                        value_range(&Value::F64(*v)),
                        col_range(*a, &regs),
                    );
                    (
                        *dst,
                        arith_range(ArithOp::Mul, ScalarType::F64, inner, col_range(*b, &regs)),
                    )
                }
                Instr::FusedAddValMul { v, a, b, dst } => {
                    let inner = arith_range(
                        ArithOp::Add,
                        ScalarType::F64,
                        value_range(&Value::F64(*v)),
                        col_range(*a, &regs),
                    );
                    (
                        *dst,
                        arith_range(ArithOp::Mul, ScalarType::F64, inner, col_range(*b, &regs)),
                    )
                }
                Instr::YearOf { s, dst } => {
                    // year() is monotone in days-since-epoch: map endpoints.
                    let r = col_range(*s, &regs).and_then(|r| {
                        let (a, b) = r.as_int()?;
                        let (a, b) = (i32::try_from(a).ok()?, i32::try_from(b).ok()?);
                        let lo = x100_vector::date::from_days(a).0 as i64;
                        let hi = x100_vector::date::from_days(b).0 as i64;
                        Some(FactRange::Int(lo, hi))
                    });
                    (*dst, r)
                }
            }
        };
        if let Some(slot) = regs.get_mut(dst as usize) {
            *slot = range;
        }
    }
    match prog.result_src() {
        Src::Col(i) => cols.get(i as usize).cloned().unwrap_or_else(ColFact::top),
        Src::Reg(i) => ColFact::from_range(regs.get(i as usize).copied().flatten()),
    }
}

/// Extract `col ⊙ lit` (flipping `lit ⊙ col`) from one conjunct.
pub(crate) fn conjunct_parts(e: &Expr) -> Option<(&str, CmpOp, &Value)> {
    let Expr::Cmp(op, l, r) = e else { return None };
    match (l.as_ref(), r.as_ref()) {
        (Expr::Col(c), Expr::Lit(v)) => Some((c.as_str(), *op, v)),
        (Expr::Lit(v), Expr::Col(c)) => {
            let flipped = match op {
                CmpOp::Eq => CmpOp::Eq,
                CmpOp::Ne => CmpOp::Ne,
                CmpOp::Lt => CmpOp::Gt,
                CmpOp::Le => CmpOp::Ge,
                CmpOp::Gt => CmpOp::Lt,
                CmpOp::Ge => CmpOp::Le,
            };
            Some((c.as_str(), flipped, v))
        }
        _ => None,
    }
}

/// Split an `And` tree into its conjunct list.
pub(crate) fn flatten_conjuncts<'e>(e: &'e Expr, out: &mut Vec<&'e Expr>) {
    match e {
        Expr::And(l, r) => {
            flatten_conjuncts(l, out);
            flatten_conjuncts(r, out);
        }
        other => out.push(other),
    }
}

/// Refine column facts by the `col ⊙ literal` conjuncts of a selection
/// predicate (the rows that survive satisfy every conjunct).
///
/// Integer columns may refine starting from their type bounds even when
/// the current range is ⊤; float columns refine only when a finite
/// range is already known (fragment stats reject non-finite data, so a
/// known range certifies the column is NaN/∞-free — without that, a
/// `x < 5.0` conjunct says nothing about NaN rows).
pub fn refine_with_pred(pred: &Expr, fields: &[OutField], nf: &mut NodeFacts) {
    let mut conjuncts = Vec::new();
    flatten_conjuncts(pred, &mut conjuncts);
    for c in conjuncts {
        let Some((name, op, lit)) = conjunct_parts(c) else {
            continue;
        };
        let Some(ci) = fields.iter().position(|f| f.name == name) else {
            continue;
        };
        let ty = fields[ci].ty;
        let Some(fact) = nf.cols.get_mut(ci) else {
            continue;
        };
        if ty == ScalarType::F64 {
            let Some(FactRange::Float(mut lo, mut hi)) = fact.range else {
                continue;
            };
            let v = lit.as_f64();
            if !v.is_finite() {
                continue;
            }
            match op {
                CmpOp::Lt | CmpOp::Le => hi = hi.min(v),
                CmpOp::Gt | CmpOp::Ge => lo = lo.max(v),
                CmpOp::Eq => {
                    lo = v.max(lo);
                    hi = v.min(hi);
                }
                CmpOp::Ne => continue,
            }
            if lo <= hi {
                fact.range = Some(FactRange::Float(lo, hi));
                if matches!(op, CmpOp::Eq) {
                    fact.distinct_max = Some(1);
                }
            }
        } else if let Some((tlo, thi)) = ty_bounds(ty) {
            // Exact integer literal required (a float literal against an
            // integer column would need careful rounding; skip).
            let v = match lit {
                Value::F64(_) | Value::Str(_) | Value::Bool(_) => continue,
                Value::U64(x) => match i64::try_from(*x) {
                    Ok(v) => v,
                    Err(_) => continue,
                },
                other => other.as_i64(),
            };
            let (mut lo, mut hi) = fact.range.and_then(|r| r.as_int()).unwrap_or((tlo, thi));
            match op {
                CmpOp::Lt => hi = hi.min(v.saturating_sub(1)),
                CmpOp::Le => hi = hi.min(v),
                CmpOp::Gt => lo = lo.max(v.saturating_add(1)),
                CmpOp::Ge => lo = lo.max(v),
                CmpOp::Eq => {
                    lo = lo.max(v);
                    hi = hi.min(v);
                }
                CmpOp::Ne => continue,
            }
            if lo <= hi {
                fact.range = Some(FactRange::Int(lo, hi));
                if matches!(op, CmpOp::Eq) {
                    fact.distinct_max = Some(1);
                }
            }
        }
    }
}

/// The boolean domain `[0, 1]`: a predicate part nothing is known about.
const BOOL_TOP: FactRange = FactRange::Int(0, 1);

/// Truth range of one selection step over the input column facts:
/// `[1,1]` when every row passes, `[0,0]` when none does, else `[0,1]`.
/// Gated on the step's `select_*` registry entry like every instruction
/// in [`eval_prog`].
pub(crate) fn step_truth(
    step: &PredStep<Arc<ExprCode>>,
    cols: &[ColFact],
    reg: &PrimitiveRegistry,
) -> FactRange {
    let modeled = |sig: &str| {
        reg.get(sig)
            .is_some_and(|d| d.info.transfer != FactTransfer::Opaque)
    };
    match step {
        PredStep::CmpVal { lhs, op, v, sig } if modeled(sig) => {
            cmp_range(*op, eval_prog(lhs, cols, reg).range, value_range(v))
        }
        PredStep::CmpCol { lhs, rhs, op, sig } if modeled(sig) => cmp_range(
            *op,
            eval_prog(lhs, cols, reg).range,
            eval_prog(rhs, cols, reg).range,
        ),
        PredStep::Bool(prog) => eval_prog(prog, cols, reg).range.unwrap_or(BOOL_TOP),
        PredStep::Never => FactRange::Int(0, 0),
        _ => BOOL_TOP,
    }
}

/// Fold the truth ranges of a conjunction's parts into a verdict:
/// `Some(true)` when every part always holds, `Some(false)` when some
/// part never does, `None` when undecided.
pub(crate) fn conjunction_verdict(parts: impl IntoIterator<Item = FactRange>) -> Option<bool> {
    let mut all_true = true;
    for r in parts {
        match r {
            FactRange::Int(0, 0) => return Some(false),
            FactRange::Int(1, 1) => {}
            _ => all_true = false,
        }
    }
    all_true.then_some(true)
}

/// Transfer for one aggregate output: `func(arg)` grouped with at most
/// `rows_max` input rows per group (and at least one — empty groups are
/// never emitted).
pub fn agg_fact(func: AggFunc, arg: Option<&ColFact>, rows_max: Option<u64>) -> ColFact {
    match func {
        AggFunc::Count => {
            let hi = rows_max.and_then(|n| i64::try_from(n).ok());
            ColFact::from_range(hi.map(|h| FactRange::Int(0, h)))
        }
        AggFunc::Min | AggFunc::Max => ColFact::from_range(arg.and_then(|a| a.range)),
        AggFunc::Avg => {
            // The running sum is f64; the epilogue divides by count.
            // The mean of values in [lo,hi] lies in [lo,hi], but the
            // f64 accumulation drifts with the term count — widen by
            // the same n·ε cushion as SUM (⊤ when n is unbounded).
            let r = arg.and_then(|a| a.range).and_then(|r| {
                let (lo, hi) = r.as_float();
                widen_float_sum(lo, hi, rows_max?)
            });
            ColFact::from_range(r)
        }
        AggFunc::Sum => {
            let range = (|| {
                let r = arg.and_then(|a| a.range)?;
                let n = rows_max?;
                match r {
                    FactRange::Int(lo, hi) => {
                        let n = i64::try_from(n).ok()?;
                        // k ∈ [1, n] rows per group: endpoints are
                        // min(lo, lo·n) and max(hi, hi·n).
                        let lo2 = lo.min(lo.checked_mul(n)?);
                        let hi2 = hi.max(hi.checked_mul(n)?);
                        Some(FactRange::Int(lo2, hi2))
                    }
                    FactRange::Float(lo, hi) => {
                        let lo2 = lo.min(lo * n as f64);
                        let hi2 = hi.max(hi * n as f64);
                        widen_float_sum(lo2, hi2, n)
                    }
                }
            })();
            ColFact::from_range(range)
        }
    }
}

/// Widen a float interval for the rounding drift of an `n`-term
/// sequential sum: each of up to `terms` additions can round by at most
/// ε·|partial|, so the cushion `4·n·ε·max(|lo|,|hi|)` dominates the
/// accumulated error for all n below 2^50.
fn widen_float_sum(lo: f64, hi: f64, terms: u64) -> Option<FactRange> {
    let mag = lo.abs().max(hi.abs());
    let cushion = 4.0 * (terms as f64) * f64::EPSILON * mag;
    let (lo, hi) = (lo - cushion, hi + cushion);
    if lo.is_finite() && hi.is_finite() {
        Some(FactRange::Float(lo, hi))
    } else {
        None
    }
}

/// Format one node's facts as a single `--explain-facts` line.
pub fn render_line(path: &str, fields: &[OutField], nf: &NodeFacts) -> String {
    let mut s = format!("{path}: rows<=");
    match nf.rows_max {
        Some(n) => s.push_str(&n.to_string()),
        None => s.push('?'),
    }
    for (i, f) in fields.iter().enumerate() {
        let cf = nf.cols.get(i);
        s.push_str(&format!(" {}=", f.name));
        match cf.and_then(|c| c.range) {
            Some(FactRange::Int(a, b)) => s.push_str(&format!("[{a},{b}]")),
            Some(FactRange::Float(a, b)) => s.push_str(&format!("[{a},{b}]")),
            None => s.push('T'),
        }
        if let Some(c) = cf {
            if c.sorted {
                s.push_str("/s");
            }
            if let Some(d) = c.distinct_max {
                s.push_str(&format!("/d{d}"));
            }
            if let Some(d) = c.dict_card {
                s.push_str(&format!("/e{d}"));
            }
        }
    }
    s
}
