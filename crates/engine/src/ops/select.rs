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
//! Every select primitive runs in the predicated code shape (Fig. 2),
//! the only one `x100_vector::select` offers: on cache-resident vectors
//! it costs the same at every selectivity and is never behind the
//! branching shape by more than the case of a vector nothing survives
//! (`results/fig2.txt` has the sweep).
//!
//! A vector every row of which passes, over an input without a
//! selection, goes on dense ([`SelPool::publish_survivors`]), so the
//! primitives above run their dense loops. A step that rule
//! `summary-range-select` proved for a window of fragment rows does not
//! run on a scan batch inside it; a batch that skips every step goes on
//! as it came.

use crate::batch::{Batch, OutField, SelPool};
use crate::compile::{ExprCode, ExprProg};
use crate::govern::QueryContext;
use crate::ops::Operator;
use crate::profile::Profiler;
use crate::PlanError;
use std::sync::Arc;
use x100_vector::select::{select_cmp_col_col, select_cmp_col_val, select_str_eq, select_true};
use x100_vector::{CmpOp, SelVec, Value, Vector};

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

/// The fragment rows where one step of a `Select` over a scan certainly
/// holds (`[start, end)` row ids), as rule `summary-range-select`
/// proved them from the summary index ([`crate::check`]).
pub(crate) type Window = (usize, usize);

/// A runnable refinement chain: the conjuncts of one predicate, each
/// narrowing the selection the previous one left.
pub(crate) struct PredChain {
    steps: Vec<PredStep<ExprProg>>,
    /// Per step, the fragment rows it is proven to hold in (empty: none
    /// is). A batch wholly inside skips the step.
    certain: Vec<Option<Window>>,
    /// Selection buffers for the steps to refine into (at most two).
    spare: Vec<SelVec>,
}

impl PredChain {
    pub(crate) fn new(
        steps: &[PredStep<Arc<ExprCode>>],
        certain: &[Option<Window>],
        vector_size: usize,
    ) -> Self {
        PredChain {
            steps: steps.iter().map(|s| s.instantiate(vector_size)).collect(),
            certain: certain.to_vec(),
            spare: Vec::new(),
        }
    }

    /// Hand a selection buffer back for reuse.
    pub(crate) fn recycle(&mut self, sel: SelVec) {
        if self.spare.len() < 2 {
            self.spare.push(sel);
        }
    }

    /// The positions of `batch` that pass every conjunct, refined from
    /// the batch's own selection (borrowed, never copied). `None`: no
    /// step ran — each was proven for the batch's rows — and the batch
    /// goes on as it came.
    pub(crate) fn run(&mut self, batch: &Batch, prof: &mut Profiler) -> Option<SelVec> {
        let n = batch.len;
        let PredChain {
            steps,
            certain,
            spare,
        } = self;
        // Refinement chain: `cur` is the selection the steps that ran
        // left; `None` means the input's.
        let mut cur: Option<SelVec> = None;
        for (k, step) in steps.iter_mut().enumerate() {
            let proven = certain.get(k).copied().flatten();
            if proven.is_some_and(|w| batch.within(w)) {
                continue;
            }
            let sel_in = cur.as_ref().or(batch.sel.as_deref());
            let t_op = prof.start();
            let live_in = sel_in.map_or(n, |s| s.len());
            let mut next_sel = spare.pop().unwrap_or_default();
            let survivors = match step {
                PredStep::CmpVal { lhs, op, v, sig } => {
                    let lv = lhs.eval(batch, sel_in, prof);
                    let t0 = prof.start();
                    let cnt = run_select_val(&mut next_sel, lv, *op, v, sel_in);
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
                    let lv = lhs.eval(batch, sel_in, prof);
                    let rv = rhs.eval(batch, sel_in, prof);
                    let t0 = prof.start();
                    let cnt = run_select_col(&mut next_sel, lv, rv, *op, sel_in);
                    prof.record_prim(
                        sig,
                        t0,
                        live_in,
                        2 * live_in * lv.scalar_type().width() + cnt * 4,
                    );
                    cnt
                }
                PredStep::StrEq { lhs, v, negate } => {
                    let lv = lhs.eval(batch, sel_in, prof);
                    let t0 = prof.start();
                    let cnt = select_str_eq(&mut next_sel, lv.as_str(), v, *negate, sel_in);
                    prof.record_prim("select_eq_str_col_val", t0, live_in, live_in * 16 + cnt * 4);
                    cnt
                }
                PredStep::Bool(prog) => {
                    let bv = prog.eval(batch, sel_in, prof);
                    let t0 = prof.start();
                    let cnt = select_true(&mut next_sel, bv.as_bool(), sel_in);
                    prof.record_prim("select_true_bool_col", t0, live_in, live_in + cnt * 4);
                    cnt
                }
                PredStep::Never => {
                    next_sel.clear();
                    0
                }
            };
            prof.record_op("Select", t_op, live_in);
            // The previous selection buffer becomes a spare.
            if let Some(prev) = cur.replace(next_sel) {
                spare.push(prev);
            }
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
    /// A selection running the verified `steps` over `child`, each
    /// skipped on the batches inside its `certain` window.
    pub(crate) fn new(
        child: Box<dyn Operator>,
        steps: &[PredStep<Arc<ExprCode>>],
        certain: &[Option<Window>],
        vector_size: usize,
        ctx: Arc<QueryContext>,
    ) -> Self {
        SelectOp {
            child,
            chain: PredChain::new(steps, certain, vector_size),
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
        Vector::I8(a) => select_cmp_col_val(out, a, v.as_i64() as i8, op, sel),
        Vector::I16(a) => select_cmp_col_val(out, a, v.as_i64() as i16, op, sel),
        Vector::I32(a) => select_cmp_col_val(out, a, v.as_i64() as i32, op, sel),
        Vector::I64(a) => select_cmp_col_val(out, a, v.as_i64(), op, sel),
        Vector::U8(a) => select_cmp_col_val(out, a, v.as_i64() as u8, op, sel),
        Vector::U16(a) => select_cmp_col_val(out, a, v.as_i64() as u16, op, sel),
        Vector::U32(a) => select_cmp_col_val(out, a, v.as_i64() as u32, op, sel),
        Vector::F64(a) => select_cmp_col_val(out, a, v.as_f64(), op, sel),
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
        (Vector::I32(a), Vector::I32(b)) => select_cmp_col_col(out, a, b, op, sel),
        (Vector::I64(a), Vector::I64(b)) => select_cmp_col_col(out, a, b, op, sel),
        (Vector::F64(a), Vector::F64(b)) => select_cmp_col_col(out, a, b, op, sel),
        (Vector::U8(a), Vector::U8(b)) => select_cmp_col_col(out, a, b, op, sel),
        (Vector::U16(a), Vector::U16(b)) => select_cmp_col_col(out, a, b, op, sel),
        (Vector::U32(a), Vector::U32(b)) => select_cmp_col_col(out, a, b, op, sel),
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
            // The selection published last time is free again: the
            // steps refine into it.
            self.chain.recycle(self.sel_pool.writable());
            let sel = self.chain.run(batch, prof);
            if sel.as_ref().map_or(batch.live(), SelVec::len) == 0 {
                // Entire vector filtered out: pull the next one (the
                // paper's operators also skip empty vectors).
                if let Some(sel) = sel {
                    self.chain.recycle(sel);
                }
                continue;
            }
            // Publish: pass through columns, narrow the selection — or
            // go on dense when every row of a dense input passed.
            self.out.reset();
            self.out.len = batch.len;
            self.out.columns.extend(batch.columns.iter().cloned());
            match sel {
                Some(sel) => {
                    let dense_in = batch.sel.is_none();
                    self.sel_pool
                        .publish_survivors(sel, dense_in, &mut self.out);
                }
                None => self.out.sel = batch.sel.clone(),
            }
            return Ok(Some(&self.out));
        }
    }

    fn reset(&mut self) {
        self.child.reset();
    }
}
