//! `Project(Dataflow, List<Exp<*>>) : Dataflow` — expression calculation.
//!
//! "Project is just used for expression calculation; it does not
//! eliminate duplicates" (§4.1.2). Pass-through columns are zero-copy
//! (`Rc` clones); computed columns are produced by the expression
//! programs and handed over by buffer swap, so no per-batch allocation
//! occurs in steady state.
//!
//! Map primitives honor the incoming selection vector: "'discount' and
//! 'extendedprice' columns are not modified during selection. Instead,
//! the selection-vector is taken into account by map-primitives to
//! perform calculations only for relevant tuples" (§4.1.1).

use crate::batch::{Batch, OutField};
use crate::compile::{ExprCode, ExprProg};
use crate::govern::QueryContext;
use crate::ops::Operator;
use crate::profile::Profiler;
use crate::PlanError;
use std::rc::Rc;
use x100_vector::Vector;

/// One output column of the projection.
enum ProjCol {
    /// Zero-copy pass-through of input column `i`.
    Pass(usize),
    /// Computed column: expression program + reusable output slot.
    Compute {
        prog: ExprProg,
        slot: Option<Rc<Vector>>,
    },
}

/// The projection operator.
pub struct ProjectOp {
    child: Box<dyn Operator>,
    cols: Vec<ProjCol>,
    fields: Vec<OutField>,
    vector_size: usize,
    out: Batch,
    ctx: std::sync::Arc<QueryContext>,
}

impl ProjectOp {
    /// A projection computing the verified `exprs` (one per output
    /// field) over `child`.
    pub(crate) fn new(
        child: Box<dyn Operator>,
        exprs: &[std::sync::Arc<ExprCode>],
        fields: Vec<OutField>,
        vector_size: usize,
        ctx: std::sync::Arc<QueryContext>,
    ) -> Self {
        let cols = exprs
            .iter()
            .map(|code| match code.as_col_ref() {
                Some(i) => ProjCol::Pass(i),
                None => ProjCol::Compute {
                    prog: ExprProg::new(code, vector_size),
                    slot: None,
                },
            })
            .collect();
        ProjectOp {
            child,
            cols,
            fields,
            vector_size,
            out: Batch::new(),
            ctx,
        }
    }
}

impl Operator for ProjectOp {
    fn fields(&self) -> &[OutField] {
        &self.fields
    }

    fn next(&mut self, prof: &mut Profiler) -> Result<Option<&Batch>, PlanError> {
        // One governance checkpoint per vector.
        self.ctx.check()?;
        let batch = match self.child.next(prof)? {
            None => return Ok(None),
            Some(b) => b,
        };
        let t_op = prof.start();
        self.out.reset();
        self.out.len = batch.len;
        self.out.sel = batch.sel.clone();
        let sel = batch.sel.as_deref();
        for (k, pc) in self.cols.iter_mut().enumerate() {
            match pc {
                ProjCol::Pass(i) => self.out.columns.push(batch.columns[*i].clone()),
                ProjCol::Compute { prog, slot } => {
                    let mut buf = slot
                        .take()
                        .and_then(|rc| Rc::try_unwrap(rc).ok())
                        .unwrap_or_else(|| {
                            Vector::with_capacity(self.fields[k].ty, self.vector_size)
                        });
                    prog.eval(batch, sel, prof);
                    prog.swap_result(&mut buf);
                    let rc = Rc::new(buf);
                    *slot = Some(rc.clone());
                    self.out.columns.push(rc);
                }
            }
        }
        prof.record_op("Project", t_op, batch.live());
        Ok(Some(&self.out))
    }

    fn reset(&mut self) {
        self.child.reset();
    }
}
