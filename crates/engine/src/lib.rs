//! # x100-engine — the X100 vectorized query processor
//!
//! The paper's core contribution (§4): a Volcano-style pull pipeline
//! whose unit of exchange is not a tuple but a *vector* of ~1000 values,
//! executed by vectorized primitives.
//!
//! * [`batch`] — the dataflow unit ([`Batch`]): `Rc`-shared column
//!   vectors + an optional selection vector.
//! * [`expr`] — the expression AST of X100 algebra plans.
//! * [`compile`] — lowering expressions to primitive programs, with
//!   compound-primitive fusion (§4.2).
//! * [`ops`] — the operators of Fig. 7: `Scan`, `Select`, `Project`,
//!   `Aggr` (hash / direct / ordered), `Fetch1Join`, `FetchNJoin`,
//!   `CartProd`, nested-loop and hash `Join`, `TopN`, `Order`, `Array`.
//! * [`plan`] — declarative plan trees bound into operator pipelines.
//! * [`parser`] / [`render`] — the textual X100 algebra of the paper's
//!   Figs. 6 & 9: parse it, and pretty-print plans back (EXPLAIN).
//! * [`facts`] — plan-level abstract interpretation: value-range /
//!   sortedness / row-count facts that choose plans, explain fetch
//!   bounds and constant-fold provable selections.
//! * [`govern`] — the per-query resource governor: memory budgets,
//!   cancellation/deadlines, worker-panic containment, fault injection.
//! * [`profile`] — per-primitive and per-operator tracing (Table 5).
//! * [`session`] — the catalog ([`Database`]), execution options
//!   (vector size, threads, budgets), and result
//!   materialization.
#![deny(clippy::unwrap_used)]
#![cfg_attr(test, allow(clippy::unwrap_used))]
#![forbid(unsafe_code)]

pub mod batch;
pub mod check;
pub mod compile;
pub mod expr;
pub mod facts;
pub mod govern;
pub mod ops;
pub mod parser;
pub mod plan;
pub mod profile;
pub mod render;
pub mod session;
pub mod spill;

pub use batch::{Batch, OutField};
#[doc(hidden)]
pub use check::check_plan_as_given;
pub use check::{
    check_plan, explain_check, explain_facts, verify_program, CheckSummary, CheckedNode, PlanFacts,
    RULES,
};
/// Typed engine error (alias of [`PlanError`]): binding, validation and
/// execution failures that used to be panics surface as this.
pub use compile::PlanError as EngineError;
pub use compile::{CheckViolation, ExprCode, ExprProg, PlanError};
pub use expr::{AggExpr, AggFunc, ArithOp, Expr};
pub use facts::{ColFact, FactRange, NodeFacts};
pub use govern::{CancelToken, MemTracker, QueryContext};
pub use ops::{AggrPartial, MergeAggrOp, MergeSpec, Operator};
pub use parser::{parse_expr, parse_plan};
pub use plan::Plan;
pub use profile::{Profiler, TraceStat, WorkerTrace};
pub use render::{render_expr, render_plan};
pub use session::{Database, ExecOptions, QueryResult, DEFAULT_MORSEL_SIZE};
pub use spill::{gc_stale_spill_dirs, spill_root};
pub use x100_storage::{DurableError, DurableOptions, DurableSource, FaultPlan, FaultSite};
