//! `Select(Dataflow, Exp<bool>) : Dataflow` — zero-copy selection.
//!
//! "The Select operator creates a selection-vector, filled with positions
//! of tuples that match our predicate" (§4.1.1). Column data is never
//! copied: downstream primitives honor the selection vector.
//!
//! Predicate compilation (done once per query by the check walk,
//! [`crate::check`], which hands the steps to every instance):
//! * a conjunction of comparisons lowers to a chain of `select_*`
//!   primitives, each *refining* the selection of the previous one;
//! * each comparison's operands may themselves be computed expressions
//!   (evaluated only at still-selected positions);
//! * anything else (OR / NOT trees) falls back to a boolean map followed
//!   by `select_true`.
//!
//! Every select primitive runs in the predicated code shape (Fig. 2).

use crate::batch::{Batch, OutField, SelPool};
use crate::compile::{ExprCode, ExprProg};
use crate::govern::QueryContext;
use crate::ops::Operator;
use crate::profile::Profiler;
use crate::PlanError;
use std::sync::Arc;
use x100_vector::select::{select_cmp_col_col, select_cmp_col_val, select_str_eq, select_true};
use x100_vector::{CmpOp, SelVec, SelectStrategy, Value, Vector};

/// One conjunct of a predicate, split by the check walk
/// ([`crate::check`]). `P` is the program representation: shared
/// [`ExprCode`] in the checked plan tree, a runnable [`ExprProg`] inside
/// the operator.
#[derive(Debug)]
pub(crate) enum PredStep<P> {
    /// `lhs ⊙ literal` via a select primitive.
    CmpVal {
        lhs: P,
        op: CmpOp,
        v: Value,
        sig: String,
    },
    /// `lhs ⊙ rhs` (both columns/expressions) via a select primitive.
    CmpCol {
        lhs: P,
        rhs: P,
        op: CmpOp,
        sig: String,
    },
    /// String equality select.
    StrEq { lhs: P, v: String, negate: bool },
    /// General boolean expression + `select_true`.
    Bool(P),
    /// Statically empty (e.g. `enum_col = literal` not in the dictionary).
    Never,
}

impl PredStep<Arc<ExprCode>> {
    /// The `select_*` signature this step runs (`None` for `Never`).
    pub(crate) fn sig(&self) -> Option<&str> {
        match self {
            PredStep::CmpVal { sig, .. } | PredStep::CmpCol { sig, .. } => Some(sig),
            PredStep::StrEq { .. } => Some("select_eq_str_col_val"),
            PredStep::Bool(_) => Some("select_true_bool_col"),
            PredStep::Never => None,
        }
    }

    /// The expression programs this step evaluates.
    pub(crate) fn programs(&self) -> Vec<&Arc<ExprCode>> {
        match self {
            PredStep::CmpVal { lhs, .. } | PredStep::StrEq { lhs, .. } | PredStep::Bool(lhs) => {
                vec![lhs]
            }
            PredStep::CmpCol { lhs, rhs, .. } => vec![lhs, rhs],
            PredStep::Never => Vec::new(),
        }
    }

    fn instantiate(&self, vector_size: usize) -> PredStep<ExprProg> {
        let run = |c: &Arc<ExprCode>| ExprProg::new(c, vector_size);
        match self {
            PredStep::CmpVal { lhs, op, v, sig } => PredStep::CmpVal {
                lhs: run(lhs),
                op: *op,
                v: v.clone(),
                sig: sig.clone(),
            },
            PredStep::CmpCol { lhs, rhs, op, sig } => PredStep::CmpCol {
                lhs: run(lhs),
                rhs: run(rhs),
                op: *op,
                sig: sig.clone(),
            },
            PredStep::StrEq { lhs, v, negate } => PredStep::StrEq {
                lhs: run(lhs),
                v: v.clone(),
                negate: *negate,
            },
            PredStep::Bool(p) => PredStep::Bool(run(p)),
            PredStep::Never => PredStep::Never,
        }
    }
}

/// The code shape every select primitive of the engine runs (Fig. 2):
/// predicated. On cache-resident vectors it costs the same at every
/// selectivity and is never behind the branching shape by more than the
/// case of a vector nothing survives (`results/fig2.txt` has the sweep,
/// the `select` Criterion group the numbers at vector size).
const SHAPE: SelectStrategy = SelectStrategy::Predicated;

/// A runnable refinement chain: the conjuncts of one predicate, each
/// narrowing the selection the previous one left.
pub(crate) struct PredChain {
    steps: Vec<PredStep<ExprProg>>,
    scratch: SelVec,
}

impl PredChain {
    pub(crate) fn new(steps: &[PredStep<Arc<ExprCode>>], vector_size: usize) -> Self {
        PredChain {
            steps: steps.iter().map(|s| s.instantiate(vector_size)).collect(),
            scratch: SelVec::default(),
        }
    }

    /// Hand a selection buffer back for reuse.
    pub(crate) fn recycle(&mut self, sel: SelVec) {
        self.scratch = sel;
    }

    /// The positions of `batch` that pass every conjunct (`None`: the
    /// chain is empty and the batch has no selection — all of them).
    pub(crate) fn run(&mut self, batch: &Batch, prof: &mut Profiler) -> Option<SelVec> {
        let n = batch.len;
        // Refinement chain: `cur` is the live selection so far.
        // `None` means "all of 0..n".
        let mut cur: Option<SelVec> = batch.sel.as_deref().cloned();
        for step in &mut self.steps {
            let t_op = prof.start();
            let live_in = cur.as_ref().map_or(n, |s| s.len());
            let mut next_sel = std::mem::take(&mut self.scratch);
            let survivors = match step {
                PredStep::CmpVal { lhs, op, v, sig } => {
                    let lv = lhs.eval(batch, cur.as_ref(), prof);
                    let t0 = prof.start();
                    let cnt = run_select_val(&mut next_sel, lv, *op, v, cur.as_ref());
                    prof.record_prim(
                        sig,
                        t0,
                        live_in,
                        live_in * lv.scalar_type().width() + cnt * 4,
                    );
                    cnt
                }
                PredStep::CmpCol { lhs, rhs, op, sig } => {
                    // Evaluate both sides under the current selection.
                    // The programs own disjoint register files.
                    let lv = lhs.eval(batch, cur.as_ref(), prof);
                    let rv = rhs.eval(batch, cur.as_ref(), prof);
                    let t0 = prof.start();
                    let cnt = run_select_col(&mut next_sel, lv, rv, *op, cur.as_ref());
                    prof.record_prim(
                        sig,
                        t0,
                        live_in,
                        2 * live_in * lv.scalar_type().width() + cnt * 4,
                    );
                    cnt
                }
                PredStep::StrEq { lhs, v, negate } => {
                    let lv = lhs.eval(batch, cur.as_ref(), prof);
                    let t0 = prof.start();
                    let cnt = if *negate {
                        // select where != v: run eq then complement
                        // against the current selection.
                        let strv = lv.as_str();
                        let buf = next_sel.buf_mut();
                        match cur.as_ref() {
                            None => {
                                for i in 0..n {
                                    if strv.get(i) != v.as_str() {
                                        buf.push(i as u32);
                                    }
                                }
                            }
                            Some(s) => {
                                for i in s.iter() {
                                    if strv.get(i) != v.as_str() {
                                        buf.push(i as u32);
                                    }
                                }
                            }
                        }
                        buf.len()
                    } else {
                        select_str_eq(&mut next_sel, lv.as_str(), v, cur.as_ref())
                    };
                    prof.record_prim("select_eq_str_col_val", t0, live_in, live_in * 16 + cnt * 4);
                    cnt
                }
                PredStep::Bool(prog) => {
                    let bv = prog.eval(batch, cur.as_ref(), prof);
                    let t0 = prof.start();
                    let cnt = select_true(&mut next_sel, bv.as_bool(), cur.as_ref(), SHAPE);
                    prof.record_prim("select_true_bool_col", t0, live_in, live_in + cnt * 4);
                    cnt
                }
                PredStep::Never => {
                    next_sel.clear();
                    0
                }
            };
            prof.record_op("Select", t_op, live_in);
            // Recycle the previous selection buffer as scratch.
            self.scratch = cur.take().unwrap_or_default();
            cur = Some(next_sel);
            if survivors == 0 {
                break;
            }
        }
        cur
    }
}

/// The select operator.
pub struct SelectOp {
    child: Box<dyn Operator>,
    chain: PredChain,
    sel_pool: SelPool,
    out: Batch,
    ctx: Arc<QueryContext>,
}

impl SelectOp {
    /// A selection running the verified `steps` over `child`.
    pub(crate) fn new(
        child: Box<dyn Operator>,
        steps: &[PredStep<Arc<ExprCode>>],
        vector_size: usize,
        ctx: Arc<QueryContext>,
    ) -> Self {
        SelectOp {
            child,
            chain: PredChain::new(steps, vector_size),
            sel_pool: SelPool::default(),
            out: Batch::new(),
            ctx,
        }
    }
}

/// Run one select primitive: vector dispatch on the lhs type.
fn run_select_val(
    out: &mut SelVec,
    lhs: &Vector,
    op: CmpOp,
    v: &Value,
    sel: Option<&SelVec>,
) -> usize {
    match lhs {
        Vector::I8(a) => select_cmp_col_val(out, a, v.as_i64() as i8, op, sel, SHAPE),
        Vector::I16(a) => select_cmp_col_val(out, a, v.as_i64() as i16, op, sel, SHAPE),
        Vector::I32(a) => select_cmp_col_val(out, a, v.as_i64() as i32, op, sel, SHAPE),
        Vector::I64(a) => select_cmp_col_val(out, a, v.as_i64(), op, sel, SHAPE),
        Vector::U8(a) => select_cmp_col_val(out, a, v.as_i64() as u8, op, sel, SHAPE),
        Vector::U16(a) => select_cmp_col_val(out, a, v.as_i64() as u16, op, sel, SHAPE),
        Vector::U32(a) => select_cmp_col_val(out, a, v.as_i64() as u32, op, sel, SHAPE),
        Vector::F64(a) => select_cmp_col_val(out, a, v.as_f64(), op, sel, SHAPE),
        other => unreachable!(
            "select_val on {:?}: unsupported types are routed to the boolean path at bind",
            other.scalar_type()
        ),
    }
}

fn run_select_col(
    out: &mut SelVec,
    lhs: &Vector,
    rhs: &Vector,
    op: CmpOp,
    sel: Option<&SelVec>,
) -> usize {
    match (lhs, rhs) {
        (Vector::I32(a), Vector::I32(b)) => select_cmp_col_col(out, a, b, op, sel, SHAPE),
        (Vector::I64(a), Vector::I64(b)) => select_cmp_col_col(out, a, b, op, sel, SHAPE),
        (Vector::F64(a), Vector::F64(b)) => select_cmp_col_col(out, a, b, op, sel, SHAPE),
        (Vector::U8(a), Vector::U8(b)) => select_cmp_col_col(out, a, b, op, sel, SHAPE),
        (Vector::U16(a), Vector::U16(b)) => select_cmp_col_col(out, a, b, op, sel, SHAPE),
        (Vector::U32(a), Vector::U32(b)) => select_cmp_col_col(out, a, b, op, sel, SHAPE),
        (a, b) => unreachable!(
            "select_col on {:?} vs {:?}: unsupported pairs are routed to the boolean path at bind",
            a.scalar_type(),
            b.scalar_type()
        ),
    }
}

impl Operator for SelectOp {
    fn fields(&self) -> &[OutField] {
        self.child.fields()
    }

    fn next(&mut self, prof: &mut Profiler) -> Result<Option<&Batch>, PlanError> {
        loop {
            // One governance checkpoint per consumed vector.
            self.ctx.check()?;
            let batch = match self.child.next(prof)? {
                None => return Ok(None),
                Some(b) => b,
            };
            let sel = match self.chain.run(batch, prof) {
                Some(sel) if sel.is_empty() => {
                    // Entire vector filtered out: pull the next one (the
                    // paper's operators also skip empty vectors).
                    self.chain.recycle(sel);
                    continue;
                }
                sel => sel,
            };
            // Publish: pass through columns, narrow the selection.
            self.out.reset();
            self.out.len = batch.len;
            self.out.columns.extend(batch.columns.iter().cloned());
            if let Some(sel) = sel {
                self.sel_pool.publish(sel, &mut self.out);
            }
            return Ok(Some(&self.out));
        }
    }

    fn reset(&mut self) {
        self.child.reset();
    }
}
