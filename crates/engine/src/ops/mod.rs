//! The X100 algebra operators (paper Fig. 7).
//!
//! Operators form a Volcano-style pull pipeline at vector granularity:
//! `next()` produces the next [`Batch`] of the dataflow, `Ok(None)`
//! when exhausted, or a typed [`PlanError`] when the resource governor
//! aborts the query (budget, cancellation, deadline, I/O fault).
//! `Table`s are materialized relations; a `Dataflow` is what flows
//! between operators (paper §4.1.2).

use crate::batch::Batch;
use crate::compile::PlanError;
use crate::profile::Profiler;
use x100_vector::Vector;

mod aggr;
mod array;
mod fetchjoin;
mod join;
pub(crate) mod parallel;
mod project;
mod scan;
mod select;
mod sort;

pub(crate) use aggr::{fused_signature, AggSpec};
pub use aggr::{AggrPartial, DirectAggrOp, DirectKey, HashAggrOp, MergeAgg, MergeSpec, OrdAggrOp};
pub use array::ArrayOp;
pub(crate) use fetchjoin::{DerivedCol, FetchSource, FetchSpec};
pub use fetchjoin::{Fetch1JoinOp, FetchNJoinOp};
pub(crate) use join::{BuildSide, JoinParts, JoinTable, MergeJoinOp};
pub use join::{CartProdOp, HashJoinOp, JoinType};
pub use parallel::{ExchangeOp, MergeAggrOp};
pub use project::ProjectOp;
pub use scan::ScanOp;
pub(crate) use scan::{ScanCol, ScanSpec};
pub use select::SelectOp;
pub(crate) use select::{PredStep, Window};
pub use sort::{OrdExp, OrderOp, SortOrder};

/// A dataflow with the right shape and zero rows: what a `Select` whose
/// predicate the facts analyzer proved always-false is instantiated as
/// (the constant-folding sink of [`crate::facts`]).
#[derive(Debug)]
pub struct EmptyOp {
    fields: Vec<crate::batch::OutField>,
}

impl EmptyOp {
    /// An empty dataflow with the given output shape.
    pub fn new(fields: Vec<crate::batch::OutField>) -> Self {
        EmptyOp { fields }
    }
}

impl Operator for EmptyOp {
    fn fields(&self) -> &[crate::batch::OutField] {
        &self.fields
    }

    fn next(&mut self, _prof: &mut Profiler) -> Result<Option<&Batch>, PlanError> {
        Ok(None)
    }

    fn reset(&mut self) {}
}

/// A dataflow operator: the vectorized Volcano iterator.
pub trait Operator {
    /// The output shape (column names and types).
    fn fields(&self) -> &[crate::batch::OutField];

    /// Produce the next batch, `Ok(None)` when the dataflow is
    /// exhausted, or an error when the resource governor aborts the
    /// query (memory budget, cancellation, deadline, storage fault).
    ///
    /// The returned batch borrows the operator; consume it before the
    /// next call. `prof` collects primitive/operator traces when enabled.
    fn next(&mut self, prof: &mut Profiler) -> Result<Option<&Batch>, PlanError>;

    /// Rewind to the start of the dataflow (re-execution support).
    fn reset(&mut self);

    /// Parallel-execution hook: consume the whole input and surrender
    /// the materialized partial aggregation state instead of emitting
    /// final batches. `Ok(None)` (the default) marks operators that
    /// cannot act as a partial-aggregation pipeline root.
    fn take_partial_aggr(
        &mut self,
        _prof: &mut Profiler,
    ) -> Result<Option<AggrPartial>, PlanError> {
        Ok(None)
    }
}

/// Append value `i` of `src` to `dst` (same types). Slow path used by
/// cardinality-changing operators on non-hot columns.
pub(crate) fn push_from(dst: &mut Vector, src: &Vector, i: usize) {
    match (dst, src) {
        (Vector::I8(d), Vector::I8(s)) => d.push(s[i]),
        (Vector::I16(d), Vector::I16(s)) => d.push(s[i]),
        (Vector::I32(d), Vector::I32(s)) => d.push(s[i]),
        (Vector::I64(d), Vector::I64(s)) => d.push(s[i]),
        (Vector::U8(d), Vector::U8(s)) => d.push(s[i]),
        (Vector::U16(d), Vector::U16(s)) => d.push(s[i]),
        (Vector::U32(d), Vector::U32(s)) => d.push(s[i]),
        (Vector::U64(d), Vector::U64(s)) => d.push(s[i]),
        (Vector::F64(d), Vector::F64(s)) => d.push(s[i]),
        (Vector::Bool(d), Vector::Bool(s)) => d.push(s[i]),
        (Vector::Str(d), Vector::Str(s)) => d.push(s.get(i)),
        (d, s) => panic!(
            "push_from type mismatch: {:?} <- {:?}",
            d.scalar_type(),
            s.scalar_type()
        ),
    }
}

/// Compare value `i` of `a` against value `j` of `b` (same types).
/// Total order; f64 uses `total_cmp`.
pub(crate) fn cmp_at(a: &Vector, i: usize, b: &Vector, j: usize) -> std::cmp::Ordering {
    use std::cmp::Ordering;
    match (a, b) {
        (Vector::I8(x), Vector::I8(y)) => x[i].cmp(&y[j]),
        (Vector::I16(x), Vector::I16(y)) => x[i].cmp(&y[j]),
        (Vector::I32(x), Vector::I32(y)) => x[i].cmp(&y[j]),
        (Vector::I64(x), Vector::I64(y)) => x[i].cmp(&y[j]),
        (Vector::U8(x), Vector::U8(y)) => x[i].cmp(&y[j]),
        (Vector::U16(x), Vector::U16(y)) => x[i].cmp(&y[j]),
        (Vector::U32(x), Vector::U32(y)) => x[i].cmp(&y[j]),
        (Vector::U64(x), Vector::U64(y)) => x[i].cmp(&y[j]),
        (Vector::F64(x), Vector::F64(y)) => x[i].total_cmp(&y[j]),
        (Vector::Bool(x), Vector::Bool(y)) => x[i].cmp(&y[j]),
        (Vector::Str(x), Vector::Str(y)) => x.get(i).cmp(y.get(j)),
        (a, b) => {
            let _ = Ordering::Equal;
            panic!(
                "cmp_at type mismatch: {:?} vs {:?}",
                a.scalar_type(),
                b.scalar_type()
            )
        }
    }
}
