//! The plan check: one walk that plans, verifies and types a [`Plan`].
//!
//! X100's expression compiler emits straight-line primitive programs
//! whose inner loops carry no per-tuple interpretation overhead (§4.2,
//! Table 5) — which also means every type or selection-vector mistake
//! the compiler makes becomes a silent wrong answer or a panic deep
//! inside a kernel. This module makes ill-formed programs unrepresentable
//! at bind time, and it is the *only* place physical decisions are made:
//! [`check_plan`] walks a [`Plan`] once, resolves its tables, derives each
//! node's output shape and enum-dictionary metadata, rewrites enum
//! literals, splits predicates, types aggregates, picks the physical
//! variant (direct / hash / ordered aggregation, fused compressed
//! scan-select, constant-folded selection, selection before fetch, the
//! `Exchange` that runs an aggregation on morsel workers at `threads >
//! 1`), compiles every expression exactly once, validates each emitted
//! primitive instruction against the typed catalog
//! ([`x100_vector::PrimitiveRegistry`]) and threads the facts analyzer
//! ([`crate::facts`]) through the same pass.
//!
//! The walk returns a verified tree of [`CheckedNode`]s — one per
//! physical operator, holding the resolved table, the output fields and
//! dictionaries, the verified programs, the chosen variant, the node's
//! facts and its path. Binding ([`Plan::bind`], [`crate::session::execute`],
//! every morsel worker) only *instantiates* operators from that tree: a
//! proof can neither outlive nor miss the node it was proven for, because
//! the node that carries it is what the operator is built from.
//!
//! Four defect classes are rejected, each as a typed
//! [`PlanError::PlanCheck`] with a precise node path:
//!
//! 1. **Type mismatches** ([`CheckViolation::TypeMismatch`]) — a
//!    primitive fed operands that disagree with its registered
//!    signature, or an expression that cannot type at all.
//! 2. **Selection-vector misuse** ([`CheckViolation::SelVectorMisuse`])
//!    — a `select_*` output fed where a dense vector is required (e.g. a
//!    position-defined chunk codec running under a selection); see
//!    [`verify_program`].
//! 3. **Undecoded enum columns**
//!    ([`CheckViolation::UndecodedEnumColumn`]) — a dictionary-code
//!    column used as an arithmetic or cast operand without the
//!    sanctioned `Fetch1Join(ENUM)` decode. The walk reads a column as
//!    codes only for code readers (below), so no plan reaches this: it
//!    guards that choice.
//! 4. **Unknown signatures** ([`CheckViolation::UnknownSignature`]) — a
//!    compiled instruction whose signature the registry has never heard
//!    of, including instances the interpreter cannot dispatch (a
//!    `map_eq_u64_col_col` projection would panic in kernel dispatch;
//!    here it is rejected before execution).
//!
//! Which enum columns travel as codes is the walk's choice, not the
//! plan's. Each node passes its input the columns it or its consumer
//! reads as values ([`Values`]); a `Scan` or `Fetch1Join` reads every
//! other enum column as its 1–2-byte codes, unless the table has pending
//! inserts (the insert delta holds values). Code readers are a bare
//! column passed on (by `Select`, `Project`, a fetch, a hash join's
//! probe side), a bare key of a generic `Aggr` (decoded at emission), an
//! enum-literal comparison `c = 'lit'` / `c <> 'lit'` anywhere in an
//! expression (every expression compiles through one function, which
//! rewrites it with [`plan::rewrite_enum_literals`]) and a `Fetch1Join`
//! rowid.
//!
//! The walk also applies the engine's rewrite [`RULES`]: where a plan
//! node and its already-checked input match a rule and the facts prove
//! its conditions, the node is planned as the rule's cheaper shape —
//! still ordinary [`CheckedNode`]s — and the decision is a line of the
//! walk log. [`explain_check`] renders the walk for humans.

use crate::batch::OutField;
use crate::compile::{CheckViolation, ExprCode, ExprProg, Instr, Src};
use crate::expr::{AggExpr, AggFunc, Expr};
use crate::facts::{self, ColFact, FactRange, NodeFacts};
use crate::ops::parallel::{morsel_spine, spine_morsels};
use crate::ops::{
    fused_signature, AggSpec, DerivedCol, DirectAggrOp, DirectKey, FetchSource, FetchSpec,
    JoinParts, JoinType, MergeSpec, PredStep, ScanCol, ScanSpec, SortOrder,
};
use crate::plan::{self, Plan};
use crate::session::{Database, ExecOptions};
use crate::PlanError;
use std::collections::BTreeSet;
use std::sync::{Arc, OnceLock};
use x100_storage::{EnumDict, Table};
use x100_vector::{CmpOp, PrimitiveDesc, PrimitiveRegistry, ScalarType, Value, VecShape};

/// A predicate conjunct over verified (shared, register-free) programs.
type SelStep = PredStep<Arc<ExprCode>>;

/// The `(table column, output alias)` entries of one `Fetch1Join` plan
/// node.
type FetchList<'p> = Vec<&'p (String, String)>;

/// The columns a node's consumer reads as values; every other enum
/// column may reach it as codes.
#[derive(Clone)]
enum Values {
    /// Every column: the query's result.
    All,
    /// The named columns.
    Of(BTreeSet<String>),
}

impl Values {
    fn none() -> Self {
        Values::Of(BTreeSet::new())
    }

    fn wants(&self, col: &str) -> bool {
        match self {
            Values::All => true,
            Values::Of(cols) => cols.contains(col),
        }
    }

    fn add(&mut self, col: &str) {
        if let Values::Of(cols) = self {
            cols.insert(col.to_owned());
        }
    }

    /// With the columns `e` reads as values ([`plan::value_reads`]).
    fn reading(mut self, e: &Expr) -> Self {
        if let Values::Of(cols) = &mut self {
            plan::value_reads(e, cols);
        }
        self
    }

    /// With what a `Fetch1Join` rowid reads as values: a bare column
    /// widens to `u32` as codes (the sanctioned decode), a computed
    /// rowid is an ordinary expression.
    fn rowid(self, e: &Expr) -> Self {
        match e {
            Expr::Col(_) => self,
            e => self.reading(e),
        }
    }
}

/// The rewrite rules of the plan walk, by id, in the order a node tries
/// them. A rule matches one plan node against its already-checked
/// input, fires only on what [`crate::facts`] proves, plans the node as
/// ordinary [`CheckedNode`]s, and records every decision under its id
/// in the walk log (`--explain-check`); DESIGN.md "Rules" has the
/// soundness argument of each. `cargo xtask lint` rule 10 keeps every
/// id in a walk-log message and in the rewritten-vs-as-given
/// differential test.
pub const RULES: [&str; 3] = [
    // `Select` over `Fetch1Join`s: columns the predicate does not need
    // are fetched above the selection, and a predicate that reads only
    // one small, delta-free table is evaluated over that table once.
    "select-before-fetch",
    // `Aggr` whose keys are all proven sorted: the streaming ordered
    // aggregation instead of the hash table.
    "sorted-keys-ordered-aggr",
    // `Aggr` whose keys are each an enum code or an integer column with
    // a proven range, over a domain no larger than the input: the direct
    // table, one slot per key combination.
    "dense-keys-direct-aggr",
];

/// Name stem of the one-byte column rule `select-before-fetch` gathers
/// in place of the predicate's operands (`#` cannot start a column name
/// in the textual algebra; a serial number keeps two apart).
const KEEP_COL: &str = "#keep";

/// Per output column: the enum dictionary when the column carries raw
/// codes. Shared, because every node above a code column passes it on.
pub(crate) type Dicts = Vec<Option<Arc<EnumDict>>>;

/// What one [`check_plan`] walk verified (also the `--explain-check`
/// data source).
#[derive(Debug)]
pub struct CheckSummary {
    /// Plan nodes visited.
    pub nodes: usize,
    /// Expression programs compiled, verified and kept in the tree (the
    /// programs the instantiated operators run).
    pub programs: usize,
    /// Primitive signatures validated against the registry.
    pub instrs: usize,
    /// Human-readable walk log, one line per node / program.
    pub report: Vec<String>,
    /// Every primitive signature the walk validated: a superset of what
    /// executing the plan can trace.
    pub verified: BTreeSet<&'static str>,
    /// The verified tree (with the abstract states the facts analyzer
    /// inferred on the same walk, [`crate::facts`]). Hand it to
    /// [`crate::QueryContext::provide_plan_facts`] and
    /// [`Plan::bind_governed`] instantiates from it.
    pub facts: PlanFacts,
}

impl CheckSummary {
    /// Render the walk log (the `--explain-check` output body).
    pub fn render(&self) -> String {
        let mut s = String::new();
        for line in &self.report {
            s.push_str(line);
            s.push('\n');
        }
        s.push_str(&format!(
            "plan check OK: {} nodes, {} programs, {} primitive instructions verified\n",
            self.nodes, self.programs, self.instrs
        ));
        s
    }
}

/// The checked form of one plan: the verified operator tree plus what it
/// was checked *for* (plan, catalog state, planning options), so a tree
/// is never instantiated for anything else.
#[derive(Debug)]
pub struct PlanFacts {
    root: CheckedNode,
    plan: Plan,
    db_stamp: (u64, u64),
    opts_key: (bool, Option<usize>),
}

/// The options that shape the checked tree: whether a spill budget is
/// set, and with `threads > 1` the morsel size (it decides where an
/// `Exchange` has more than one morsel to hand out).
fn opts_key(opts: &ExecOptions) -> (bool, Option<usize>) {
    (
        opts.spill_budget.is_some(),
        (opts.threads > 1).then_some(opts.morsel_size),
    )
}

impl PlanFacts {
    /// The verified tree's root (the plan's root node).
    pub fn root(&self) -> &CheckedNode {
        &self.root
    }

    /// Whether this tree was checked for exactly this plan, against this
    /// state of this catalog, under these planning options.
    pub(crate) fn checked_for(&self, db: &Database, plan: &Plan, opts: &ExecOptions) -> bool {
        self.db_stamp == db.stamp() && self.opts_key == opts_key(opts) && self.plan == *plan
    }

    /// The fetch-bounds verdict of every `Fetch1Join`/`FetchNJoin` node,
    /// in walk order.
    pub fn fetch_proofs(&self) -> Vec<bool> {
        let mut out = Vec::new();
        self.root.visit(&mut |n| out.extend(n.fetch_proved()));
        out
    }

    /// Every expression program in the tree, in walk order. Instantiated
    /// operators hold clones of these `Arc`s, never copies of the code.
    pub fn programs(&self) -> Vec<&Arc<ExprCode>> {
        let mut out = Vec::new();
        self.root.visit(&mut |n| out.extend(n.op.programs()));
        out
    }

    /// Render the per-node dump plus a summary footer (the
    /// `--explain-facts` payload).
    pub fn render(&self) -> String {
        let (mut out, mut nodes, mut folds) = (String::new(), 0usize, 0usize);
        self.root.visit(&mut |n| {
            out.push_str(&facts::render_line(&n.path, &n.fields, &n.facts));
            out.push('\n');
            nodes += 1;
            folds += usize::from(n.select_verdict().is_some());
        });
        let proofs = self.fetch_proofs().into_iter().filter(|p| *p).count();
        out.push_str(&format!(
            "facts: {nodes} nodes, {proofs} fetch-bound proofs, {folds} select folds\n"
        ));
        out
    }
}

/// One verified physical operator: everything instantiation needs, and
/// nothing it would have to decide.
#[derive(Debug)]
pub struct CheckedNode {
    pub(crate) path: String,
    pub(crate) fields: Vec<OutField>,
    pub(crate) dicts: Dicts,
    /// The abstract state the facts analyzer inferred for this node's
    /// output.
    pub facts: NodeFacts,
    /// Input nodes: none for leaves, `[build, probe]` for a hash join,
    /// one otherwise. Shared, so an `Exchange`'s operator holds its
    /// input subtree itself rather than a copy.
    pub(crate) inputs: Vec<Arc<CheckedNode>>,
    pub(crate) op: CheckedOp,
}

/// The physical variant of a [`CheckedNode`], with its verified parts.
#[derive(Debug)]
pub(crate) enum CheckedOp {
    Scan(ScanSpec),
    /// `steps` is empty when `verdict` folded the predicate or a fused
    /// pushdown on the input scan consumed all of it.
    Select {
        steps: Vec<SelStep>,
        verdict: Option<bool>,
    },
    Project {
        exprs: Vec<Arc<ExprCode>>,
    },
    HashAggr {
        keys: Vec<Arc<ExprCode>>,
        aggs: Vec<AggSpec>,
        merge: MergeSpec,
    },
    DirectAggr {
        keys: Vec<DirectKey>,
        aggs: Vec<AggSpec>,
    },
    OrdAggr {
        keys: Vec<Arc<ExprCode>>,
        aggs: Vec<AggSpec>,
    },
    /// Morsel parallelism over the input aggregation: each worker runs
    /// it over a share of its scan's morsels, `merge` re-aggregates the
    /// partials ([`crate::ops::ExchangeOp`]).
    Exchange {
        merge: MergeSpec,
    },
    /// `proved` is the fetch-bounds verdict ([`CheckedNode::fetch_proved`]):
    /// it explains the plan, no operator reads it.
    Fetch1Join {
        table: Arc<Table>,
        rowid: Arc<ExprCode>,
        cols: Vec<FetchSpec>,
        proved: bool,
    },
    FetchNJoin {
        table: Arc<Table>,
        lo: Arc<ExprCode>,
        cnt: Arc<ExprCode>,
        cols: Vec<FetchSpec>,
        proved: bool,
    },
    /// `CartProd`, and — with `steps` — the nested-loop `Join` (a
    /// `CartProd` with a `Select` on top, the paper's default).
    CartProd {
        table: Arc<Table>,
        fetch_cols: Vec<usize>,
        steps: Option<Vec<SelStep>>,
    },
    HashJoin(JoinParts),
    /// `Order`, and — with `limit` — `TopN`.
    Sort {
        keys: Vec<(usize, SortOrder)>,
        limit: Option<usize>,
    },
    Array {
        dims: Vec<i64>,
        total: u64,
    },
}

fn step_programs(steps: &[SelStep]) -> Vec<&Arc<ExprCode>> {
    steps.iter().flat_map(|s| s.programs()).collect()
}

fn aggr_programs<'a>(keys: &'a [Arc<ExprCode>], aggs: &'a [AggSpec]) -> Vec<&'a Arc<ExprCode>> {
    keys.iter()
        .chain(aggs.iter().filter_map(|a| a.arg.as_ref()))
        .collect()
}

impl CheckedOp {
    /// The expression programs this node's operator runs.
    fn programs(&self) -> Vec<&Arc<ExprCode>> {
        match self {
            CheckedOp::Select { steps, .. } => step_programs(steps),
            CheckedOp::CartProd { steps, .. } => {
                steps.as_deref().map(step_programs).unwrap_or_default()
            }
            CheckedOp::Project { exprs, .. } => exprs.iter().collect(),
            CheckedOp::HashAggr { keys, aggs, .. } | CheckedOp::OrdAggr { keys, aggs, .. } => {
                aggr_programs(keys, aggs)
            }
            CheckedOp::DirectAggr { aggs, .. } => aggr_programs(&[], aggs),
            // A derived fetch column's predicate is instantiated when the
            // column is first gathered, not with the operator.
            CheckedOp::Fetch1Join { rowid, .. } => vec![rowid],
            CheckedOp::FetchNJoin { lo, cnt, .. } => vec![lo, cnt],
            CheckedOp::HashJoin(parts) => {
                parts.build_keys.iter().chain(&parts.probe_keys).collect()
            }
            CheckedOp::Scan(_)
            | CheckedOp::Sort { .. }
            | CheckedOp::Array { .. }
            | CheckedOp::Exchange { .. } => Vec::new(),
        }
    }
}

impl CheckedNode {
    /// The node's path from the plan root, e.g. `root.Aggr.input`.
    pub fn path(&self) -> &str {
        &self.path
    }

    /// The node's output shape.
    pub fn fields(&self) -> &[OutField] {
        &self.fields
    }

    /// The node's input nodes (a hash join's build side first).
    pub fn inputs(&self) -> &[Arc<CheckedNode>] {
        &self.inputs
    }

    /// The fetch-bounds verdict at a `Fetch1Join`/`FetchNJoin` node:
    /// `Some(true)` when every gathered `#rowId` is proven within the
    /// checkpointed fragment, `Some(false)` when the proof failed
    /// (delta rows, unknown range), `None` for non-fetch nodes.
    pub fn fetch_proved(&self) -> Option<bool> {
        match &self.op {
            CheckedOp::Fetch1Join { proved, .. } | CheckedOp::FetchNJoin { proved, .. } => {
                Some(*proved)
            }
            _ => None,
        }
    }

    /// The constant-fold verdict at a `Select` node, when its predicate
    /// was decided statically: `Some(true)` = provably always-true
    /// (pass-through), `Some(false)` = provably always-false (empty).
    pub fn select_verdict(&self) -> Option<bool> {
        match &self.op {
            CheckedOp::Select { verdict, .. } => *verdict,
            _ => None,
        }
    }

    /// Visit the tree in walk order (inputs before the node).
    fn visit<'a>(&'a self, f: &mut impl FnMut(&'a CheckedNode)) {
        for input in &self.inputs {
            input.visit(f);
        }
        f(self);
    }
}

/// The process-wide primitive catalog (built once; signatures are
/// 'static).
fn registry() -> &'static PrimitiveRegistry {
    static REG: OnceLock<PrimitiveRegistry> = OnceLock::new();
    REG.get_or_init(PrimitiveRegistry::builtin)
}

/// Statically verify and plan `plan` against `db` without executing it.
///
/// Compiles every expression program once and validates primitive typing,
/// selection-vector discipline, enum-decode discipline, and registry
/// membership. Structural errors (unknown tables or columns, shapes an
/// operator cannot run) surface unwrapped.
pub fn check_plan(
    db: &Database,
    plan: &Plan,
    opts: &ExecOptions,
) -> Result<CheckSummary, PlanError> {
    check_with(db, plan, opts, true)
}

/// [`check_plan`] with the rule list off: every node is planned as the
/// plan wrote it. Hidden — it exists as the reference side of the
/// rewritten-vs-as-given differential test, not as an option.
#[doc(hidden)]
pub fn check_plan_as_given(
    db: &Database,
    plan: &Plan,
    opts: &ExecOptions,
) -> Result<CheckSummary, PlanError> {
    check_with(db, plan, opts, false)
}

fn check_with(
    db: &Database,
    plan: &Plan,
    opts: &ExecOptions,
    rules: bool,
) -> Result<CheckSummary, PlanError> {
    let mut c = Checker::new(db, opts, rules);
    let root = c.walk(plan, "root", &Values::All)?;
    let facts = PlanFacts {
        root,
        plan: plan.clone(),
        db_stamp: db.stamp(),
        opts_key: opts_key(opts),
    };
    Ok(CheckSummary {
        nodes: c.nodes,
        programs: facts.programs().len(),
        instrs: c.instrs,
        report: c.report,
        verified: c.verified,
        facts,
    })
}

/// Verify a linear primitive program, given as its signature list, for
/// registry membership and selection-vector discipline.
///
/// The discipline: a `select_*` (or any selection-producing) primitive
/// switches the rest of the program to run *under* that selection;
/// dense-only position-dependent primitives (chunk codecs, sort
/// permutations, hash-table maintenance — `consumes_sel == false`
/// in the catalog) must never appear there, because they would read a
/// selection vector where a dense vector is required.
pub fn verify_program<'a, I>(sigs: I) -> Result<(), PlanError>
where
    I: IntoIterator<Item = &'a str>,
{
    let reg = registry();
    let mut under_sel = false;
    for (i, sig) in sigs.into_iter().enumerate() {
        let path = format!("program.instr[{i}]");
        let desc = reg.get(sig).ok_or_else(|| PlanError::PlanCheck {
            path: path.clone(),
            violation: CheckViolation::UnknownSignature {
                signature: sig.to_owned(),
            },
        })?;
        if under_sel && !desc.info.consumes_sel {
            return Err(PlanError::PlanCheck {
                path,
                violation: CheckViolation::SelVectorMisuse {
                    signature: sig.to_owned(),
                    detail: "dense-only primitive runs under a selection vector \
                             (a select_* output upstream feeds it positions, \
                             but it requires a dense vector)"
                        .to_owned(),
                },
            });
        }
        if desc.info.produces_sel {
            under_sel = true;
        }
    }
    Ok(())
}

/// Run [`check_plan`] and render the result for humans — the engine of
/// the `--explain-check` CLI flag.
pub fn explain_check(db: &Database, plan: &Plan, opts: &ExecOptions) -> String {
    match check_plan(db, plan, opts) {
        Ok(summary) => summary.render(),
        Err(PlanError::PlanCheck { path, violation }) => {
            let class = match &violation {
                CheckViolation::TypeMismatch { .. } => "type-mismatch",
                CheckViolation::SelVectorMisuse { .. } => "sel-vector-misuse",
                CheckViolation::UndecodedEnumColumn { .. } => "undecoded-enum-column",
                CheckViolation::UnknownSignature { .. } => "unknown-signature",
                CheckViolation::SpillUnsupported { .. } => "spill-unsupported",
            };
            format!("plan check FAILED [{class}]\n  at   {path}\n  why  {violation}\n")
        }
        Err(other) => format!("plan check could not run: {other}\n"),
    }
}

/// Run [`check_plan`] and render the per-node abstract-interpretation
/// dump ([`crate::facts`]) — the engine of the `--explain-facts` CLI
/// flag.
pub fn explain_facts(db: &Database, plan: &Plan, opts: &ExecOptions) -> String {
    match check_plan(db, plan, opts) {
        Ok(summary) => summary.facts.render(),
        Err(PlanError::PlanCheck { path, violation }) => {
            format!("facts unavailable: plan check FAILED\n  at   {path}\n  why  {violation}\n")
        }
        Err(other) => format!("facts unavailable: {other}\n"),
    }
}

struct Checker<'a> {
    db: &'a Database,
    opts: &'a ExecOptions,
    reg: &'static PrimitiveRegistry,
    /// Whether the [`RULES`] apply (off only for the as-given reference).
    rules: bool,
    /// [`KEEP_COL`] columns named so far.
    keeps: usize,
    nodes: usize,
    instrs: usize,
    report: Vec<String>,
    verified: BTreeSet<&'static str>,
}

/// Integer key types a direct table offsets by their proven minimum.
fn offset_key(ty: ScalarType) -> bool {
    matches!(ty, ScalarType::I32 | ScalarType::I64 | ScalarType::U32)
}

/// The proven range of an [`offset_key`] column as a direct table sees
/// it: its smallest value, and how many values the range spans.
fn int_domain(ty: ScalarType, fact: &ColFact) -> Option<(i64, u64)> {
    let (lo, hi) = fact.range.filter(|_| offset_key(ty))?.as_int()?;
    let span = i128::from(hi) - i128::from(lo) + 1;
    Some((lo, span.try_into().unwrap_or(u64::MAX)))
}

/// `sig` is not in the registry, at `path`.
fn unknown_signature(sig: &str, path: String) -> PlanError {
    PlanError::PlanCheck {
        path,
        violation: CheckViolation::UnknownSignature {
            signature: sig.to_owned(),
        },
    }
}

/// The dictionary of `t`'s column `ci` when the walk reads it as codes:
/// an enum column that no reader wants as values (`value_read`), in a
/// table without pending inserts (the insert delta holds values).
fn code_dict(t: &Table, ci: usize, value_read: bool) -> Option<&EnumDict> {
    t.column(ci)
        .dict()
        .filter(|_| !value_read && t.delta_rows() == 0)
}

/// The walk-log suffix that names the columns read as codes.
fn codes_note(codes: &[&str]) -> String {
    match codes {
        [] => String::new(),
        _ => format!(", codes [{}]", codes.join(", ")),
    }
}

/// Resolve `table.col`, as every fetching operator reports a miss.
fn fetch_column(t: &Table, col: &str) -> Result<usize, PlanError> {
    t.column_index(col)
        .ok_or_else(|| PlanError::UnknownColumn(format!("{}.{}", t.name(), col)))
}

impl<'a> Checker<'a> {
    fn new(db: &'a Database, opts: &'a ExecOptions, rules: bool) -> Self {
        Checker {
            db,
            opts,
            reg: registry(),
            rules,
            keeps: 0,
            nodes: 0,
            instrs: 0,
            report: Vec::new(),
            verified: BTreeSet::new(),
        }
    }

    /// Validate registry membership of `sig` (the operator at `path`
    /// will run it) and record it as verified.
    fn require(
        &mut self,
        sig: &str,
        path: impl FnOnce() -> String,
    ) -> Result<&'static PrimitiveDesc, PlanError> {
        let desc = self
            .reg
            .get(sig)
            .ok_or_else(|| unknown_signature(sig, path()))?;
        self.verified.insert(desc.signature);
        Ok(desc)
    }

    /// [`Self::require`] for what the walk log's footer counts as a
    /// primitive instruction: the instructions of expression programs and
    /// the per-vector decode kernels of `Scan` (like `Fetch1Join`'s
    /// decoded gathers and the sort permutation, which bump the count at
    /// their arm). Operator-internal kernels — select steps, aggregate
    /// updates, hashing — are validated but not counted.
    fn require_instr(
        &mut self,
        sig: &str,
        path: impl FnOnce() -> String,
    ) -> Result<&'static PrimitiveDesc, PlanError> {
        self.instrs += 1;
        self.require(sig, path)
    }

    /// The hash / rehash chain an operator runs over keys of these types.
    fn require_hash(
        &mut self,
        tys: impl IntoIterator<Item = ScalarType>,
        path: &str,
    ) -> Result<(), PlanError> {
        for (i, ty) in tys.into_iter().enumerate() {
            let f = if i == 0 { "hash" } else { "rehash" };
            self.require(&format!("map_{f}_{}_col", ty.sig_name()), || {
                path.to_owned()
            })?;
        }
        Ok(())
    }

    /// Compile `e` against `fields` (coercing the result to the type
    /// `target` picks), wrapping the compiler's type errors as
    /// `PlanCheck` at `path` (name-resolution errors pass through
    /// unwrapped). Enum-literal comparisons on code columns compare
    /// codes ([`plan::rewrite_enum_literals`]) wherever they sit: this
    /// is the one place every expression of a plan is compiled.
    fn compile_as_at(
        &mut self,
        e: &Expr,
        fields: &[OutField],
        dicts: &[Option<Arc<EnumDict>>],
        path: &str,
        target: impl FnOnce(ScalarType) -> Result<ScalarType, PlanError>,
    ) -> Result<Arc<ExprCode>, PlanError> {
        let e = &plan::rewrite_enum_literals(e, fields, dicts);
        ExprProg::compile_as(e, fields, target).map_err(|err| match err {
            PlanError::TypeMismatch(detail) => PlanError::PlanCheck {
                path: path.to_owned(),
                violation: CheckViolation::TypeMismatch {
                    signature: format!("{e:?}"),
                    detail,
                },
            },
            other => other,
        })
    }

    /// Compile `e` ([`Self::compile_as_at`]) to its own type, then
    /// [`Self::verify_prog`] it.
    fn compile_verified(
        &mut self,
        e: &Expr,
        fields: &[OutField],
        dicts: &[Option<Arc<EnumDict>>],
        path: &str,
    ) -> Result<Arc<ExprCode>, PlanError> {
        let prog = self.compile_as_at(e, fields, dicts, path, Ok)?;
        self.verify_prog(&prog, fields, dicts, path, false)?;
        Ok(prog)
    }

    /// Validate every instruction of a compiled program: registry
    /// membership, operand typing against the registered signature, and
    /// (unless `decodes_codes`: a `Fetch1Join` rowid widening a code
    /// column *is* the sanctioned decode) the enum-decode rule.
    fn verify_prog(
        &mut self,
        prog: &ExprCode,
        fields: &[OutField],
        dicts: &[Option<Arc<EnumDict>>],
        path: &str,
        decodes_codes: bool,
    ) -> Result<(), PlanError> {
        let src_ty = |s: Src| -> ScalarType {
            match s {
                Src::Col(i) => fields[i as usize].ty,
                Src::Reg(i) => prog.reg_types()[i as usize],
            }
        };
        for (i, (instr, sig)) in prog.instr_list().iter().enumerate() {
            let ipath = || format!("{path}.instr[{i}]");
            let desc = self.require_instr(sig, ipath)?;
            let (context, srcs) = col_operands(instr);
            // Positional typing: the instruction's column operands must
            // match the registered signature's column inputs.
            let col_tys: Vec<ScalarType> = desc
                .info
                .inputs
                .iter()
                .filter(|a| a.shape == VecShape::Col)
                .map(|a| a.ty)
                .collect();
            if col_tys.len() == srcs.len() {
                for (want, &s) in col_tys.iter().zip(srcs.iter()) {
                    let got = src_ty(s);
                    if got != *want {
                        return Err(PlanError::PlanCheck {
                            path: ipath(),
                            violation: CheckViolation::TypeMismatch {
                                signature: sig.clone(),
                                detail: format!("operand is {got}, primitive expects {want}"),
                            },
                        });
                    }
                }
            }
            // Enum-decode discipline: codes may be referenced, compared,
            // and grouped on — never fed to arithmetic or casts.
            let escapes = !decodes_codes
                && matches!(
                    instr,
                    Instr::ArithCC { .. }
                        | Instr::ArithCV { .. }
                        | Instr::ArithVC { .. }
                        | Instr::Cast { .. }
                        | Instr::FusedSubValMul { .. }
                        | Instr::FusedAddValMul { .. }
                );
            if escapes {
                for &s in &srcs {
                    if let Src::Col(ci) = s {
                        if dicts.get(ci as usize).is_some_and(|d| d.is_some()) {
                            return Err(PlanError::PlanCheck {
                                path: ipath(),
                                violation: CheckViolation::UndecodedEnumColumn {
                                    column: fields[ci as usize].name.clone(),
                                    context: context.to_owned(),
                                },
                            });
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Split a predicate into the `select_*` refinement chain the select
    /// operator runs, validating each step's primitive.
    fn check_select(
        &mut self,
        pred: &Expr,
        fields: &[OutField],
        dicts: &[Option<Arc<EnumDict>>],
        path: &str,
    ) -> Result<Vec<SelStep>, PlanError> {
        let pred = plan::rewrite_enum_literals(pred, fields, dicts);
        let mut steps = Vec::new();
        self.select_steps(&pred, fields, dicts, path, &mut steps)?;
        for (i, sig) in steps.iter().filter_map(|s| s.sig()).enumerate() {
            self.require(sig, || format!("{path}.step[{i}]"))?;
        }
        verify_program(steps.iter().filter_map(|s| s.sig()))?;
        Ok(steps)
    }

    /// Split a conjunction into refinement steps:
    /// * a comparison whose type has a select primitive becomes one
    ///   `select_*` step over its (possibly computed) operands;
    /// * anything else (OR / NOT trees, promoting comparisons) falls back
    ///   to a boolean map followed by `select_true`;
    /// * constant-true conjuncts vanish, constant-false short-circuits
    ///   (the enum rewrite produces these for literals absent from a
    ///   dictionary).
    fn select_steps(
        &mut self,
        pred: &Expr,
        fields: &[OutField],
        dicts: &[Option<Arc<EnumDict>>],
        path: &str,
        out: &mut Vec<SelStep>,
    ) -> Result<(), PlanError> {
        // The registry is the one list of types with a select primitive.
        let supported = |reg: &PrimitiveRegistry, ty: ScalarType, shape: &str| {
            reg.contains(&format!("select_eq_{}_col_{shape}", ty.sig_name()))
        };
        match pred {
            Expr::And(l, r) => {
                self.select_steps(l, fields, dicts, path, out)?;
                self.select_steps(r, fields, dicts, path, out)?;
            }
            Expr::Lit(Value::Bool(true)) => {}
            Expr::Lit(Value::Bool(false)) => out.push(PredStep::Never),
            Expr::Cmp(op, l, r) => {
                let lhs = self.compile_verified(l, fields, dicts, path)?;
                let lty = lhs.result_type();
                let step = if lty == ScalarType::Str {
                    match (op, r.as_ref()) {
                        (CmpOp::Eq | CmpOp::Ne, Expr::Lit(Value::Str(v))) => PredStep::StrEq {
                            lhs,
                            v: v.clone(),
                            negate: *op == CmpOp::Ne,
                        },
                        _ => {
                            return Err(PlanError::PlanCheck {
                                path: path.to_owned(),
                                violation: CheckViolation::TypeMismatch {
                                    signature: "select_eq_str_col_val".to_owned(),
                                    detail: "string predicates support only = / != literal"
                                        .to_owned(),
                                },
                            })
                        }
                    }
                } else if let Expr::Lit(v) = r.as_ref() {
                    // A float literal against an integer column needs the
                    // promoting map path (the select primitive would
                    // truncate the literal); so does a type without a
                    // select primitive, whose map compile reports a typed
                    // error if the comparison itself is unsupported.
                    if (lty.is_integer() && v.scalar_type() == ScalarType::F64)
                        || !supported(self.reg, lty, "val")
                    {
                        PredStep::Bool(self.compile_verified(pred, fields, dicts, path)?)
                    } else {
                        PredStep::CmpVal {
                            lhs,
                            op: *op,
                            v: v.clone(),
                            sig: format!("select_{}_{}_col_val", op.sig_name(), lty.sig_name()),
                        }
                    }
                } else {
                    let rhs = self.compile_verified(r, fields, dicts, path)?;
                    if rhs.result_type() != lty || !supported(self.reg, lty, "col") {
                        PredStep::Bool(self.compile_verified(pred, fields, dicts, path)?)
                    } else {
                        PredStep::CmpCol {
                            lhs,
                            rhs,
                            op: *op,
                            sig: format!("select_{}_{}_col_col", op.sig_name(), lty.sig_name()),
                        }
                    }
                };
                out.push(step);
            }
            other => {
                let prog = self.compile_as_at(other, fields, dicts, path, Ok)?;
                if prog.result_type() != ScalarType::Bool {
                    return Err(PlanError::PlanCheck {
                        path: path.to_owned(),
                        violation: CheckViolation::TypeMismatch {
                            signature: "select_true_bool_col".to_owned(),
                            detail: format!(
                                "selection predicate must be boolean, got {}",
                                prog.result_type()
                            ),
                        },
                    });
                }
                self.verify_prog(&prog, fields, dicts, path, false)?;
                out.push(PredStep::Bool(prog));
            }
        }
        Ok(())
    }

    /// Type one aggregate ([`AggFunc`] rules: AVG always accumulates in
    /// f64, integer SUM/MIN/MAX in i64, everything else in f64), verify
    /// its argument program and update primitive, and return it with the
    /// abstract fact of the aggregate value (`cf` are the input column
    /// facts, `rows_max` bounds the rows any one group can absorb).
    fn check_agg(
        &mut self,
        spec: &AggExpr,
        fields: &[OutField],
        dicts: &[Option<Arc<EnumDict>>],
        cf: &[ColFact],
        rows_max: Option<u64>,
        path: &str,
    ) -> Result<(AggSpec, ColFact), PlanError> {
        let (arg, acc_ty, sig, fact) = match spec.func {
            AggFunc::Count => (
                None,
                ScalarType::I64,
                "aggr_count_u32_col".to_owned(),
                facts::agg_fact(AggFunc::Count, None, rows_max),
            ),
            func => {
                let e = spec.arg.as_ref().ok_or_else(|| {
                    PlanError::Invalid(format!("aggregate {} needs an argument", spec.name))
                })?;
                let prog = self.compile_as_at(e, fields, dicts, path, |t| {
                    Ok(match (func, t) {
                        (AggFunc::Avg, _) => ScalarType::F64,
                        (_, t) if t.is_integer() => ScalarType::I64,
                        _ => ScalarType::F64,
                    })
                })?;
                self.verify_prog(&prog, fields, dicts, path, false)?;
                let argf = facts::eval_prog(&prog, cf, self.reg);
                let fname = match func {
                    AggFunc::Sum | AggFunc::Avg => "sum",
                    AggFunc::Min => "min",
                    AggFunc::Max => "max",
                    AggFunc::Count => unreachable!("handled above"),
                };
                let acc_ty = prog.result_type();
                (
                    Some(prog),
                    acc_ty,
                    format!("aggr_{}_{}_col_u32_col", fname, acc_ty.sig_name()),
                    facts::agg_fact(func, Some(&argf), rows_max),
                )
            }
        };
        self.require(&sig, || path.to_owned())?;
        if spec.func == AggFunc::Avg {
            self.require("aggr_avg_epilogue", || path.to_owned())?;
        }
        let spec = AggSpec {
            name: spec.name.clone(),
            func: spec.func,
            arg,
            acc_ty,
            sig,
        };
        Ok((spec, fact))
    }

    /// Check the aggregates of one aggregation node, appending their
    /// output fields and facts after the keys'.
    fn check_aggs(
        &mut self,
        aggs: &[AggExpr],
        input: &CheckedNode,
        kind: &str,
        path: &str,
        out_fields: &mut Vec<OutField>,
        col_facts: &mut Vec<ColFact>,
    ) -> Result<Vec<AggSpec>, PlanError> {
        let mut specs = Vec::with_capacity(aggs.len());
        for (i, spec) in aggs.iter().enumerate() {
            let (spec, fact) = self.check_agg(
                spec,
                &input.fields,
                &input.dicts,
                &input.facts.cols,
                input.facts.rows_max,
                &format!("{path}.{kind}.agg[{i}]"),
            )?;
            out_fields.push(OutField::new(spec.name.clone(), spec.out_type()));
            col_facts.push(fact);
            specs.push(spec);
        }
        // Every aggregation operator counts tuples per group, in the
        // one fused pass that also updates its f64 sums.
        let fused = specs.iter().filter(|s| s.fuses()).count();
        self.require(&fused_signature(fused), || format!("{path}.{kind}"))?;
        Ok(specs)
    }

    fn note(&mut self, path: &str, what: String) {
        self.nodes += 1;
        self.report.push(format!("{path}: {what}"));
    }

    /// Record a decision of one of the [`RULES`] in the walk log.
    fn rule_note(&mut self, rule: &str, path: &str, what: String) {
        debug_assert!(RULES.contains(&rule), "`{rule}` is not in RULES");
        self.report.push(format!("{path}: rule {rule}: {what}"));
    }

    /// Record why one of the [`RULES`] declined a node it matched.
    fn rule_refused(&mut self, rule: &str, path: &str, why: String) {
        debug_assert!(RULES.contains(&rule), "`{rule}` is not in RULES");
        self.report
            .push(format!("{path}: rule {rule} refused: {why}"));
    }

    /// When a spill budget is configured, the buffering kernel this
    /// operator leans on must advertise spill capability in the catalog
    /// (`SigInfo::spills`) — otherwise the budget is a promise the
    /// executor cannot keep, and graceful degradation silently becomes
    /// a hard `ResourceExhausted`. Catches a new buffering operator
    /// wired in without spill support.
    fn check_spill_capable(
        &mut self,
        sig: &str,
        operator: &str,
        path: &str,
    ) -> Result<(), PlanError> {
        let desc = self.require(sig, || path.to_owned())?;
        if self.opts.spill_budget.is_some() && !desc.info.spills {
            return Err(PlanError::PlanCheck {
                path: path.to_owned(),
                violation: CheckViolation::SpillUnsupported {
                    signature: sig.to_owned(),
                    operator: operator.to_owned(),
                },
            });
        }
        Ok(())
    }

    /// Resolve the columns an operator fetches from `t` into their
    /// gather specs, appending output fields, dictionaries and facts; an
    /// enum column comes as codes ([`code_dict`]) when `values` leaves it
    /// to code readers. Returns the specs and the aliases fetched as
    /// codes.
    fn fetch_specs<'p>(
        &mut self,
        t: &Table,
        fetch: impl IntoIterator<Item = &'p (String, String)>,
        values: &Values,
        path: &str,
        node: &mut NodeShape,
    ) -> Result<(Vec<FetchSpec>, Vec<&'p str>), PlanError> {
        let (mut specs, mut codes) = (Vec::new(), Vec::new());
        for (i, (src, alias)) in fetch.into_iter().enumerate() {
            let ci = fetch_column(t, src)?;
            let sc = t.column(ci);
            let dict = code_dict(t, ci, values.wants(alias));
            let as_codes = dict.is_some();
            let ty = match dict {
                Some(_) => sc.physical_type(),
                None => sc.field().logical,
            };
            codes.extend(as_codes.then_some(alias.as_str()));
            let sig = format!("map_fetch_u32_col_{}_col", ty.sig_name());
            self.require(&sig, || format!("{path}[{i}]"))?;
            specs.push(FetchSpec {
                src: FetchSource::Column(ci),
                sig,
                as_codes,
            });
            node.fields.push(OutField::new(alias.clone(), ty));
            node.dicts.push(dict.cloned().map(Arc::new));
            let mut f = facts::source_col_fact(t, ci, as_codes);
            f.sorted = false; // gather order follows the rowids
            node.cols.push(f);
        }
        Ok((specs, codes))
    }

    /// Walk one plan node, whose consumer reads `values` as values:
    /// check its inputs, then plan and verify the node itself.
    fn walk(&mut self, plan: &Plan, path: &str, values: &Values) -> Result<CheckedNode, PlanError> {
        match plan {
            Plan::Scan { table, cols, prune } => {
                self.scan_node(table, cols, values, prune.as_ref(), path)
            }
            Plan::Select { input, pred } => {
                // Rule `select-before-fetch` looks through the
                // `Fetch1Join`s under the selection (innermost first),
                // so the walk resumes below them.
                let mut fetches = Vec::new();
                let mut base = input.as_ref();
                let mut values = values.clone().reading(pred);
                while let Plan::Fetch1Join { input, rowid, .. } = base {
                    fetches.push(base);
                    values = values.rowid(rowid);
                    base = input;
                }
                if fetches.is_empty() {
                    let node = self.walk(base, &format!("{path}.Select.input"), &values)?;
                    return self.select_node(node, Some(base), pred, path);
                }
                fetches.reverse();
                let hops = ".Fetch1Join.input".repeat(fetches.len());
                let node = self.walk(base, &format!("{path}.Select.input{hops}"), &values)?;
                self.select_over_fetches(node, &fetches, pred, &values, path)
            }
            Plan::Project { input, exprs } => {
                // An alias of a bare column passes its own demand on.
                let mut need = Values::none();
                for (name, e) in exprs {
                    match e {
                        Expr::Col(_) if !values.wants(name) => {}
                        Expr::Col(c) => need.add(c),
                        e => need = need.reading(e),
                    }
                }
                let input = self.walk(input, &format!("{path}.Project.input"), &need)?;
                self.project_node(input, exprs, path)
            }
            Plan::Aggr { input, keys, aggs } => self.aggr_node(input, keys, aggs, path),
            Plan::OrdAggr { input, keys, aggs } => {
                let need = (keys.iter().map(|(_, e)| e))
                    .chain(aggs.iter().filter_map(|a| a.arg.as_ref()))
                    .fold(Values::none(), Values::reading);
                let input = self.walk(input, &format!("{path}.OrdAggr.input"), &need)?;
                self.keyed_aggr(input, keys, aggs, path, true)
            }
            Plan::Fetch1Join { input, rowid, .. } => {
                let need = values.clone().rowid(rowid);
                let input = self.walk(input, &format!("{path}.Fetch1Join.input"), &need)?;
                self.fetch1_node(input, plan, None, None, values, path)
            }
            Plan::FetchNJoin {
                input,
                table,
                lo,
                cnt,
                fetch,
            } => {
                let need = values.clone().reading(lo).reading(cnt);
                let input = self.walk(input, &format!("{path}.FetchNJoin.input"), &need)?;
                let t = self.db.table(table)?;
                let mut bounds = Vec::with_capacity(2);
                for (which, e) in [("lo", lo), ("cnt", cnt)] {
                    let epath = format!("{path}.FetchNJoin.{which}");
                    let prog = self.compile_verified(e, &input.fields, &input.dicts, &epath)?;
                    if prog.result_type() != ScalarType::U32 {
                        return Err(PlanError::PlanCheck {
                            path: epath,
                            violation: CheckViolation::TypeMismatch {
                                signature: "map_fetch_u32_col".to_owned(),
                                detail: format!(
                                    "FetchNJoin range expressions must be u32, got {}",
                                    prog.result_type()
                                ),
                            },
                        });
                    }
                    let range = facts::eval_prog(&prog, &input.facts.cols, self.reg)
                        .range
                        .and_then(|r| r.as_int());
                    bounds.push((prog, range));
                }
                let (cnt, cnt_r) = bounds.pop().expect("two range programs");
                let (lo, lo_r) = bounds.pop().expect("two range programs");
                // Fetch-bounds verdict: every gathered position is
                // `lo + k, k < cnt`, so the obligation is
                // `max(lo) + max(cnt) <= fragment_rows`.
                let frag = t.fragment_rows() as u64;
                let proved = match (lo_r, cnt_r) {
                    (Some((llo, lhi)), Some((_, chi))) if llo >= 0 => u64::try_from(lhi)
                        .ok()
                        .zip(u64::try_from(chi).ok())
                        .and_then(|(a, b)| a.checked_add(b))
                        .is_some_and(|end| end <= frag),
                    _ => false,
                };
                let rows_max = input.facts.rows_max.and_then(|r| {
                    let chi = u64::try_from(cnt_r?.1).ok()?;
                    r.checked_mul(chi)
                });
                let mut node = NodeShape::from_input(&input);
                let (cols, _) = self.fetch_specs(
                    &t,
                    fetch,
                    &Values::All,
                    &format!("{path}.FetchNJoin.fetch"),
                    &mut node,
                )?;
                self.note(
                    path,
                    format!("FetchNJoin `{table}` → +{} cols", fetch.len()),
                );
                Ok(node.finish(
                    path,
                    rows_max,
                    vec![input],
                    CheckedOp::FetchNJoin {
                        table: t,
                        lo,
                        cnt,
                        cols,
                        proved,
                    },
                ))
            }
            Plan::CartProd {
                input,
                table,
                fetch,
            } => {
                let input = self.walk(input, &format!("{path}.CartProd.input"), values)?;
                let node = self.cart_prod(input, table, fetch, None, path)?;
                self.note(path, format!("CartProd `{table}` → +{} cols", fetch.len()));
                Ok(node)
            }
            Plan::Join {
                input,
                table,
                pred,
                fetch,
            } => {
                let need = values.clone().reading(pred);
                let input = self.walk(input, &format!("{path}.Join.input"), &need)?;
                let node = self.cart_prod(input, table, fetch, Some(pred), path)?;
                self.note(path, format!("Join `{table}` → +{} cols", fetch.len()));
                Ok(node)
            }
            Plan::HashJoin {
                build,
                probe,
                build_keys,
                probe_keys,
                payload,
                join_type,
            } => {
                // Keys and build payload are read as values (the join
                // keeps no payload dictionary); probe columns pass on.
                let mut need = build_keys.iter().fold(Values::none(), Values::reading);
                for (src, _) in payload {
                    need.add(src);
                }
                let build = self.walk(build, &format!("{path}.HashJoin.build"), &need)?;
                let need = probe_keys.iter().fold(values.clone(), Values::reading);
                let probe = self.walk(probe, &format!("{path}.HashJoin.probe"), &need)?;
                let mut bprogs = Vec::with_capacity(build_keys.len());
                for (i, e) in build_keys.iter().enumerate() {
                    let kpath = format!("{path}.HashJoin.build_key[{i}]");
                    bprogs.push(self.compile_verified(e, &build.fields, &build.dicts, &kpath)?);
                }
                let mut pprogs = Vec::with_capacity(probe_keys.len());
                for (i, e) in probe_keys.iter().enumerate() {
                    let kpath = format!("{path}.HashJoin.probe_key[{i}]");
                    let prog = self.compile_verified(e, &probe.fields, &probe.dicts, &kpath)?;
                    if let Some(bty) = bprogs.get(i).map(|b| b.result_type()) {
                        if prog.result_type() != bty {
                            return Err(PlanError::PlanCheck {
                                path: kpath,
                                violation: CheckViolation::TypeMismatch {
                                    signature: format!("map_hash_{}_col", bty.sig_name()),
                                    detail: format!(
                                        "join key {i} type mismatch: build {}, probe {}",
                                        bty,
                                        prog.result_type()
                                    ),
                                },
                            });
                        }
                    }
                    pprogs.push(prog);
                }
                let mut node = NodeShape::from_input(&probe);
                for f in &mut node.cols {
                    f.sorted = false; // match order scrambles rows
                }
                let mut payload_cols = Vec::with_capacity(payload.len());
                let mut payload_fields = Vec::with_capacity(payload.len());
                for (src, alias) in payload {
                    let ci = build
                        .fields
                        .iter()
                        .position(|f| &f.name == src)
                        .ok_or_else(|| PlanError::UnknownColumn(src.clone()))?;
                    payload_cols.push(ci);
                    payload_fields.push(OutField::new(alias.clone(), build.fields[ci].ty));
                    node.dicts.push(None);
                    // LeftOuter fills unmatched rows with default values
                    // (0 / ""), which the build-side range need not
                    // contain — widen to ⊤ there.
                    node.cols.push(match join_type {
                        JoinType::LeftOuter => ColFact::top(),
                        _ => {
                            let mut f = build
                                .facts
                                .cols
                                .get(ci)
                                .cloned()
                                .unwrap_or_else(ColFact::top);
                            f.sorted = false;
                            f
                        }
                    });
                }
                node.fields.extend(payload_fields.iter().cloned());
                if build_keys.len() != probe_keys.len() || build_keys.is_empty() {
                    return Err(PlanError::Invalid(
                        "hash join needs matching, non-empty key lists".to_owned(),
                    ));
                }
                if matches!(join_type, JoinType::LeftSemi | JoinType::LeftAnti)
                    && !payload.is_empty()
                {
                    return Err(PlanError::Invalid(
                        "semi/anti joins cannot carry build payload".to_owned(),
                    ));
                }
                // The build and probe loops: key hashing, the group
                // table's insert and its read-only probe rounds, and —
                // where matches carry rows — one gather per output
                // column. That kernel is total over vector types, so
                // types outside the fetch catalog are legal and simply
                // go untraced.
                let jpath = format!("{path}.HashJoin");
                self.require_hash(bprogs.iter().map(|p| p.result_type()), &jpath)?;
                self.require("aggr_hashtable_maintain", || jpath.clone())?;
                self.require("aggr_grouptable_probe_u64_col", || jpath.clone())?;
                let mut gather_sigs = Vec::new();
                if join_type.keeps_rows() {
                    for f in &node.fields {
                        let desc = self.reg.get(&format!("map_fetch_u32_col_{}_col", f.ty));
                        gather_sigs.push(desc.map(|d| d.signature));
                        self.verified.extend(desc.map(|d| d.signature));
                    }
                }
                // The probe positions whose key the table holds.
                if matches!(join_type, JoinType::Inner | JoinType::LeftSemi) {
                    self.require("select_ne_u32_col_val", || jpath.clone())?;
                }
                let rows_max = match join_type {
                    // Semi/anti emit each probe row at most once;
                    // LeftOuter at least once per probe row, at most
                    // once per match (plus the default row).
                    JoinType::LeftSemi | JoinType::LeftAnti => probe.facts.rows_max,
                    JoinType::Inner => probe
                        .facts
                        .rows_max
                        .and_then(|p| build.facts.rows_max.and_then(|b| p.checked_mul(b))),
                    JoinType::LeftOuter => probe
                        .facts
                        .rows_max
                        .and_then(|p| build.facts.rows_max.and_then(|b| p.checked_mul(b.max(1)))),
                };
                self.note(
                    path,
                    format!(
                        "HashJoin → {} keys, +{} payload cols",
                        build_keys.len(),
                        payload.len()
                    ),
                );
                let parts = JoinParts {
                    build_keys: bprogs,
                    probe_keys: pprogs,
                    payload_cols,
                    payload_fields,
                    join_type: *join_type,
                    gather_sigs,
                };
                Ok(node.finish(
                    path,
                    rows_max,
                    vec![build, probe],
                    CheckedOp::HashJoin(parts),
                ))
            }
            Plan::TopN { input, keys, .. } | Plan::Order { input, keys } => {
                let (kind, limit) = match plan {
                    Plan::TopN { limit, .. } => ("TopN", Some(*limit)),
                    _ => ("Order", None),
                };
                let mut need = values.clone();
                for k in keys {
                    need.add(&k.col);
                }
                let input = self.walk(input, &format!("{path}.{kind}.input"), &need)?;
                let mut bound = Vec::with_capacity(keys.len());
                for k in keys {
                    let i = input
                        .fields
                        .iter()
                        .position(|f| f.name == k.col)
                        .ok_or_else(|| PlanError::UnknownColumn(k.col.clone()))?;
                    bound.push((i, k.order));
                }
                // The permutation sort is dense-only; it runs over the
                // operator's own compacted buffer, never under a
                // selection.
                self.instrs += 1;
                self.check_spill_capable("sort_permutation", kind, &format!("{path}.{kind}"))?;
                let mut node = NodeShape::from_input(&input);
                for f in &mut node.cols {
                    // `sorted` means sorted in *scan* order, which the
                    // permutation destroys (the sort key's own order is
                    // not tracked — keys may be descending).
                    f.sorted = false;
                }
                let rows_max = match (input.facts.rows_max, limit.map(|l| l as u64)) {
                    (Some(r), Some(l)) => Some(r.min(l)),
                    (r, l) => l.or(r),
                };
                self.note(path, format!("{kind} → {} sort keys", keys.len()));
                Ok(node.finish(
                    path,
                    rows_max,
                    vec![input],
                    CheckedOp::Sort { keys: bound, limit },
                ))
            }
            Plan::Array { dims } => {
                if dims.is_empty() || dims.iter().any(|&d| d <= 0) {
                    return Err(PlanError::Invalid(
                        "array dimensions must be positive".to_owned(),
                    ));
                }
                let total = dims
                    .iter()
                    .try_fold(1u64, |acc, &d| acc.checked_mul(d as u64))
                    .ok_or_else(|| {
                        PlanError::Invalid("array coordinate space overflows u64".to_owned())
                    })?;
                let mut node = NodeShape::default();
                for (i, &d) in dims.iter().enumerate() {
                    node.fields
                        .push(OutField::new(format!("d{i}"), ScalarType::I64));
                    node.dicts.push(None);
                    node.cols.push(ColFact {
                        range: Some(FactRange::Int(0, d - 1)),
                        distinct_max: Some(d as u64),
                        // Dimension 0 varies fastest (`ArrayOp`), so only
                        // the last dimension is non-decreasing.
                        sorted: i + 1 == dims.len(),
                        ..ColFact::top()
                    });
                }
                self.note(path, format!("Array → {} dims", dims.len()));
                Ok(node.finish(
                    path,
                    Some(total),
                    Vec::new(),
                    CheckedOp::Array {
                        dims: dims.clone(),
                        total,
                    },
                ))
            }
        }
    }

    /// `Scan(table, cols)`, the enum columns that `values` leaves to
    /// code readers surfaced as raw codes ([`code_dict`]).
    fn scan_node(
        &mut self,
        table: &str,
        cols: &[String],
        values: &Values,
        prune: Option<&plan::RangePrune>,
        path: &str,
    ) -> Result<CheckedNode, PlanError> {
        let t = self.db.table(table)?;
        let mut node = NodeShape::default();
        let (mut scan_cols, mut codes) = (Vec::new(), Vec::new());
        for name in cols {
            let ci = t
                .column_index(name)
                .ok_or_else(|| PlanError::UnknownColumn(name.clone()))?;
            let sc = t.column(ci);
            // Checkpoint-compressed columns decode on refill:
            // the decompress primitive the scan will call must
            // be cataloged, same rule as the enum fetch below.
            if let Some(cc) = sc.compressed() {
                self.require_instr(cc.decode_sig(), || format!("{path}.Scan.col[{name}]"))?;
            }
            let code = code_dict(&t, ci, values.wants(name));
            let as_codes = code.is_some();
            let (kind, ty) = match (sc.dict(), as_codes) {
                (None, _) => (ScanCol::Plain, sc.field().logical),
                (Some(_), true) => {
                    codes.push(name.as_str());
                    (ScanCol::Codes, sc.physical_type())
                }
                (Some(dict), false) => {
                    // Auto-decode via Fetch1Join(ENUM): the
                    // gather signature must be cataloged.
                    let sig = format!(
                        "map_fetch_{}_col_{}_col",
                        sc.physical_type().sig_name(),
                        dict.value_type().sig_name()
                    );
                    self.require_instr(&sig, || format!("{path}.Scan.col[{name}]"))?;
                    (ScanCol::Decode { sig }, dict.value_type())
                }
            };
            scan_cols.push((ci, kind));
            node.dicts.push(code.cloned().map(Arc::new));
            node.fields.push(OutField::new(name.clone(), ty));
            node.cols.push(facts::source_col_fact(&t, ci, as_codes));
        }
        let spec = ScanSpec {
            range: plan::scan_prune_range(&t, prune)?,
            cols: scan_cols,
            push: None,
            bm: self.db.buffer_manager(),
            table: t.clone(),
        };
        let what = format!("Scan `{table}` → {} cols{}", cols.len(), codes_note(&codes));
        self.note(path, what);
        Ok(node.finish(
            path,
            u64::try_from(t.total_rows()).ok(),
            Vec::new(),
            CheckedOp::Scan(spec),
        ))
    }

    /// `Select(pred)` over `fetches` (a non-empty chain of `Fetch1Join`
    /// plan nodes, innermost first) over the checked `base`, planned by
    /// rule `select-before-fetch`:
    ///
    /// * a fetched column that neither the predicate nor the `#rowId`
    ///   of a fetch the predicate depends on reads is fetched *above*
    ///   the selection, for the survivors only;
    /// * when all the predicate reads is what one fetch brings in, the
    ///   predicate runs once over that fetch's table
    ///   ([`Self::dimension_side`]) and the fetch gathers its one-byte
    ///   result for a `select_ne_u8_col_val`.
    ///
    /// A closing `Project` restores the columns the plan wrote, in its
    /// order. With the rule off or nothing to move, every node is as
    /// written.
    fn select_over_fetches(
        &mut self,
        base: CheckedNode,
        fetches: &[&Plan],
        pred: &Expr,
        values: &Values,
        path: &str,
    ) -> Result<CheckedNode, PlanError> {
        let as_given: Vec<FetchList> = fetches.iter().map(|f| fetch_list(f)).collect();
        let mut early = as_given.clone();
        let mut late = vec![FetchList::default(); fetches.len()];
        let mut derived = None;
        if let Some(split) =
            split_fetches(&base.fields, &as_given, fetches, pred).filter(|_| self.rules)
        {
            (early, late) = (split.early, split.late);
            if let Some(j) = split.only {
                let d = self.dimension_side(fetches[j], &early[j], &base, pred, path)?;
                if let Some(d) = d {
                    // The byte stands in for the predicate's operands
                    // below the selection; they are fetched above it
                    // with the rest.
                    early[j] = FetchList::default();
                    late[j] = as_given[j].clone();
                    self.keeps += 1;
                    derived = Some((j, d, format!("{KEEP_COL}{}", self.keeps)));
                }
            }
        }
        // The pieces, bottom-up: the fetches the selection needs, the
        // selection, the late fetches (in the plan's order, so one whose
        // `#rowId` another brings in follows it), the restoring
        // projection.
        let holds_derived = |j: usize| derived.as_ref().is_some_and(|(dj, ..)| *dj == j);
        let below = (0..fetches.len()).filter(|&j| !early[j].is_empty() || holds_derived(j));
        let above = (0..fetches.len()).filter(|&j| !late[j].is_empty());
        // The projection is there iff the pieces' columns are not the
        // plan's: a late fetch moved past a later one, or the byte.
        let restore = derived.is_some()
            || (fetched_aliases(&early).chain(fetched_aliases(&late)))
                .ne(fetched_aliases(&as_given));
        let mut kinds = vec!["Fetch1Join"; below.clone().count()];
        kinds.push("Select");
        kinds.resize(kinds.len() + above.clone().count(), "Fetch1Join");
        kinds.extend(restore.then_some("Project"));
        // A piece's path names the pieces above it; the top one's is `path`.
        let mut paths = vec![path.to_owned()];
        for kind in kinds[1..].iter().rev() {
            paths.push(format!("{}.{kind}.input", paths[paths.len() - 1]));
        }
        let mut paths = paths.iter().rev();
        let mut next_path = || paths.next().expect("one path per piece");
        if early != as_given {
            let mut what = Vec::new();
            if let Some((_, d, _)) = &derived {
                let t = &d.scan.table;
                what.push(format!(
                    "predicate runs once over `{}` ({} rows) and the fetch gathers its result",
                    t.name(),
                    t.total_rows()
                ));
            }
            let late: Vec<&str> = fetched_aliases(&late).collect();
            what.push(format!(
                "fetched after the selection: [{}]",
                late.join(", ")
            ));
            self.rule_note("select-before-fetch", path, what.join("; "));
        }
        let written: Vec<(String, Expr)> = (base.fields.iter().map(|f| f.name.as_str()))
            .chain(fetched_aliases(&as_given))
            .filter(|_| restore)
            .map(|n| (n.to_owned(), Expr::Col(n.to_owned())))
            .collect();
        let mut node = base;
        for j in below {
            let d = derived.as_ref().filter(|_| holds_derived(j));
            let d = d.map(|(_, d, name)| (name.as_str(), d.clone()));
            node = self.fetch1_node(node, fetches[j], Some(&early[j]), d, values, next_path())?;
        }
        let keep = derived.as_ref().map(|(_, _, name)| {
            let (name, zero) = (Expr::Col(name.clone()), Expr::Lit(Value::U8(0)));
            Expr::Cmp(CmpOp::Ne, Box::new(name), Box::new(zero))
        });
        node = self.select_node(node, None, keep.as_ref().unwrap_or(pred), next_path())?;
        for j in above {
            node = self.fetch1_node(node, fetches[j], Some(&late[j]), None, values, next_path())?;
        }
        if restore {
            node = self.project_node(node, &written, next_path())?;
        }
        Ok(node)
    }

    /// The dimension side of rule `select-before-fetch`: `pred` reads
    /// only the columns `reads` that `fetch` brings in, so it can be
    /// evaluated over the fetch's table instead of the gathered copies —
    /// if scan position there is `#rowId` (no pending insert or delete
    /// deltas), and the table is at most an eighth of `base`'s row bound
    /// (the query has already produced that many rows, so one pass over
    /// the table is noise even when an earlier filter was selective).
    /// `None` keeps the predicate on the stream.
    fn dimension_side(
        &mut self,
        fetch: &Plan,
        reads: &FetchList,
        base: &CheckedNode,
        pred: &Expr,
        path: &str,
    ) -> Result<Option<Arc<DerivedCol>>, PlanError> {
        let Plan::Fetch1Join { table, .. } = fetch else {
            unreachable!("the chain holds Fetch1Join nodes")
        };
        let t = self.db.table(table)?;
        let rows = t.total_rows() as u64;
        let small = |so_far: u64| rows.saturating_mul(8) <= so_far;
        if !base.facts.rows_max.is_some_and(small) {
            return Ok(None);
        }
        if t.delta_rows() > 0 || !t.deletes().is_empty() {
            let what = format!("predicate stays on the stream: `{table}` has pending deltas");
            self.rule_note("select-before-fetch", path, what);
            return Ok(None);
        }
        let srcs: Vec<String> = reads.iter().map(|(src, _)| src.clone()).collect();
        if srcs.iter().collect::<BTreeSet<_>>().len() != srcs.len() {
            return Ok(None); // one column under two aliases
        }
        // The predicate names the columns by their fetch aliases.
        let mut values = Values::none().reading(pred);
        for (src, alias) in reads {
            if values.wants(alias) {
                values.add(src);
            }
        }
        let dpath = format!("{path}.Select.dimension");
        let mut scan = self.scan_node(table, &srcs, &values, None, &dpath)?;
        for (f, (_, alias)) in scan.fields.iter_mut().zip(reads) {
            f.name.clone_from(alias);
        }
        let steps = self.check_select(pred, &scan.fields, &scan.dicts, &dpath)?;
        // What the facts decide folds as written; no byte column.
        let truths = (steps.iter()).map(|s| facts::step_truth(s, &scan.facts.cols, self.reg));
        if steps.is_empty() || facts::conjunction_verdict(truths).is_some() {
            return Ok(None);
        }
        let CheckedOp::Scan(spec) = scan.op else {
            unreachable!("a Scan plan checks to a Scan node")
        };
        Ok(Some(Arc::new(DerivedCol::new(spec, scan.fields, steps))))
    }

    /// `Select(pred)` over the checked `input_node`; `scan_below` is the
    /// plan of a `Scan` directly under it, whose refill can take (part
    /// of) the predicate in encoded space.
    fn select_node(
        &mut self,
        mut input_node: CheckedNode,
        scan_below: Option<&Plan>,
        pred: &Expr,
        path: &str,
    ) -> Result<CheckedNode, PlanError> {
        let (fields, dicts) = (input_node.fields.clone(), input_node.dicts.clone());
        // Rewritten here too: the facts refine on codes, as steps compare.
        let full = plan::rewrite_enum_literals(pred, &fields, &dicts);
        // Compression-aware fusion: Select over a Scan of a
        // checkpoint-compressed column pushes (part of) the
        // predicate into encoded space — the scan refill becomes
        // a `CompressedScanSelect` whose selection vector comes
        // from the packed lanes; the columns refill as in any scan.
        // Remaining conjuncts stay a normal Select. The
        // encoded-space comparison must be a cataloged primitive.
        let fused = match (scan_below, &input_node.op) {
            (Some(Plan::Scan { cols, .. }), CheckedOp::Scan(spec)) => {
                plan::fuse_scan_select(&spec.table, cols, pred)
            }
            _ => None,
        };
        let (steps, push, mut truths, what) = match fused {
            Some(f) => {
                self.require_instr(f.push.sig(), || {
                    format!("{path}.Select.pushdown[{}]", f.col)
                })?;
                let steps = match &f.residual {
                    None => Vec::new(),
                    Some(res) => {
                        self.check_select(res, &fields, &dicts, &format!("{path}.Select.residual"))?
                    }
                };
                let what = format!(
                    "CompressedScanSelect `{}` [{}] residual [{}]",
                    f.col,
                    f.push.sig(),
                    step_sigs(&steps)
                );
                let truths: Vec<FactRange> = f
                    .pushed
                    .iter()
                    .map(|e| facts::conjunct_truth(e, &fields, &input_node.facts.cols))
                    .collect();
                let k = fields
                    .iter()
                    .position(|fl| fl.name == f.col)
                    .expect("fused column is scanned");
                (steps, Some((k, f.push)), truths, what)
            }
            None => {
                let steps =
                    self.check_select(&full, &fields, &dicts, &format!("{path}.Select.pred"))?;
                let what = format!("Select → steps [{}]", step_sigs(&steps));
                (steps, None, Vec::new(), what)
            }
        };
        // Constant-fold sink: a predicate proven always-true is a
        // pass-through of the input, proven always-false an empty
        // dataflow; either way no step (nor pushdown) runs.
        truths.extend(
            steps
                .iter()
                .map(|s| facts::step_truth(s, &input_node.facts.cols, self.reg)),
        );
        let verdict = facts::conjunction_verdict(truths);
        let mut nf = input_node.facts.clone();
        if verdict == Some(false) {
            nf.rows_max = Some(0);
        }
        facts::refine_with_pred(&full, &fields, &mut nf);
        let steps = if verdict.is_some() { Vec::new() } else { steps };
        if let (None, CheckedOp::Scan(spec)) = (verdict, &mut input_node.op) {
            spec.push = push;
        }
        self.note(path, what);
        Ok(CheckedNode {
            path: path.to_owned(),
            fields,
            dicts,
            facts: nf,
            inputs: vec![Arc::new(input_node)],
            op: CheckedOp::Select { steps, verdict },
        })
    }

    /// `Project(exprs)` over the checked `input`.
    fn project_node(
        &mut self,
        input: CheckedNode,
        exprs: &[(String, Expr)],
        path: &str,
    ) -> Result<CheckedNode, PlanError> {
        let mut node = NodeShape::default();
        let mut progs = Vec::with_capacity(exprs.len());
        for (i, (name, e)) in exprs.iter().enumerate() {
            let epath = format!("{path}.Project.expr[{i}]");
            let prog = self.compile_verified(e, &input.fields, &input.dicts, &epath)?;
            // Pass-through column refs keep their dict metadata.
            node.dicts
                .push(prog.as_col_ref().and_then(|ci| input.dicts[ci].clone()));
            node.cols
                .push(facts::eval_prog(&prog, &input.facts.cols, self.reg));
            node.fields
                .push(OutField::new(name.clone(), prog.result_type()));
            progs.push(prog);
        }
        self.note(path, format!("Project → {} exprs", exprs.len()));
        let rows_max = input.facts.rows_max;
        Ok(node.finish(
            path,
            rows_max,
            vec![input],
            CheckedOp::Project { exprs: progs },
        ))
    }

    /// The `Fetch1Join` plan node `plan` over the checked `input`,
    /// fetching `list` in place of the columns the plan names (rule
    /// `select-before-fetch` splits them between two nodes) — as codes
    /// where `values` leaves them to code readers — and, with `derived`,
    /// gathering that byte column under the given name.
    fn fetch1_node(
        &mut self,
        input: CheckedNode,
        plan: &Plan,
        list: Option<&FetchList>,
        derived: Option<(&str, Arc<DerivedCol>)>,
        values: &Values,
        path: &str,
    ) -> Result<CheckedNode, PlanError> {
        let Plan::Fetch1Join {
            table,
            rowid,
            fetch,
            ..
        } = plan
        else {
            unreachable!("fetch1_node takes a Fetch1Join plan node")
        };
        let fetch = list.cloned().unwrap_or_else(|| fetch.iter().collect());
        let t = self.db.table(table)?;
        let rpath = format!("{path}.Fetch1Join.rowid");
        // A join index is u32; an enum code column widens to it
        // — that cast IS the sanctioned decode, so the
        // enum-escape rule does not apply to the rowid program.
        let mut natural = ScalarType::U32;
        let rowid =
            self.compile_as_at(rowid, &input.fields, &input.dicts, &rpath, |ty| match ty {
                ScalarType::U32 | ScalarType::U8 | ScalarType::U16 => {
                    natural = ty;
                    Ok(ScalarType::U32)
                }
                other => Err(PlanError::PlanCheck {
                    path: rpath.clone(),
                    violation: CheckViolation::TypeMismatch {
                        signature: "map_fetch_u32_col".to_owned(),
                        detail: format!(
                            "Fetch1Join rowid expression must be u32 (join index), got {other}"
                        ),
                    },
                }),
            })?;
        self.verify_prog(&rowid, &input.fields, &input.dicts, &rpath, true)?;
        // Fetch-bounds verdict (`--explain-facts`; the gather kernel
        // checks its own bounds): `#rowId ⊆ [0, fragment_rows)`, i.e.
        // no gathered row in the delta region. Only attempted for true
        // u32 join indexes; enum code rowids decode against the
        // dictionary instead.
        let rid_range = if natural == ScalarType::U32 {
            facts::eval_prog(&rowid, &input.facts.cols, self.reg)
                .range
                .and_then(|r| r.as_int())
        } else {
            None
        };
        let frag = t.fragment_rows() as u64;
        let proved =
            rid_range.is_some_and(|(lo, hi)| lo >= 0 && u64::try_from(hi).is_ok_and(|h| h < frag));
        let mut node = NodeShape::from_input(&input);
        let (mut cols, codes) = self.fetch_specs(
            &t,
            fetch.iter().copied(),
            values,
            &format!("{path}.Fetch1Join.fetch"),
            &mut node,
        )?;
        self.instrs += cols.len() - codes.len();
        if let Some((name, d)) = derived {
            let sig = "map_fetch_u32_col_u8_col".to_owned();
            self.require_instr(&sig, || format!("{path}.Fetch1Join.derived"))?;
            cols.push(FetchSpec {
                src: FetchSource::Derived(d),
                sig,
                as_codes: false,
            });
            node.fields.push(OutField::new(name, ScalarType::U8));
            node.dicts.push(None);
            node.cols.push(ColFact {
                range: Some(FactRange::Int(0, 1)),
                distinct_max: Some(2),
                ..ColFact::top()
            });
        }
        let what = format!(
            "Fetch1Join `{table}` → +{} cols{}{}",
            fetch.len(),
            codes_note(&codes),
            if cols.len() > fetch.len() {
                ", +1 derived"
            } else {
                ""
            }
        );
        self.note(path, what);
        let rows_max = input.facts.rows_max;
        Ok(node.finish(
            path,
            rows_max,
            vec![input],
            CheckedOp::Fetch1Join {
                table: t,
                rowid,
                cols,
                proved,
            },
        ))
    }

    /// `CartProd(input, table, fetch)`, optionally with the join
    /// predicate of the nested-loop `Join` selecting on top.
    fn cart_prod(
        &mut self,
        input: CheckedNode,
        table: &str,
        fetch: &[(String, String)],
        pred: Option<&Expr>,
        path: &str,
    ) -> Result<CheckedNode, PlanError> {
        let kind = if pred.is_some() { "Join" } else { "CartProd" };
        let t = self.db.table(table)?;
        let mut node = NodeShape::from_input(&input);
        let mut fetch_cols = Vec::with_capacity(fetch.len());
        for (src, alias) in fetch {
            let ci = fetch_column(&t, src)?;
            fetch_cols.push(ci);
            node.fields
                .push(OutField::new(alias.clone(), t.column(ci).field().logical));
            node.dicts.push(None);
            let mut f = facts::source_col_fact(&t, ci, false);
            f.sorted = false;
            node.cols.push(f);
        }
        let rows_max = input
            .facts
            .rows_max
            .and_then(|r| r.checked_mul(t.total_rows() as u64));
        let mut nf = NodeFacts {
            cols: std::mem::take(&mut node.cols),
            rows_max,
        };
        let steps = match pred {
            None => None,
            Some(pred) => {
                // The facts refine on codes, as the steps compare them.
                let pred = plan::rewrite_enum_literals(pred, &node.fields, &node.dicts);
                let steps = self.check_select(
                    &pred,
                    &node.fields,
                    &node.dicts,
                    &format!("{path}.{kind}.pred"),
                )?;
                facts::refine_with_pred(&pred, &node.fields, &mut nf);
                Some(steps)
            }
        };
        Ok(CheckedNode {
            path: path.to_owned(),
            fields: node.fields,
            dicts: node.dicts,
            facts: nf,
            inputs: vec![Arc::new(input)],
            op: CheckedOp::CartProd {
                table: t,
                fetch_cols,
                steps,
            },
        })
    }

    /// `Aggr(input, keys, aggs)`: the input is walked with a fresh
    /// demand — computed keys and aggregate arguments read values except
    /// in an enum-literal comparison, bare keys take codes (decoded at
    /// emission). As written the hash
    /// aggregation ([`Self::keyed_aggr`]); rule `dense-keys-direct-aggr`
    /// picks the direct table ([`Self::dense_keys`]).
    fn aggr_node(
        &mut self,
        input: &Plan,
        keys: &[(String, Expr)],
        aggs: &[AggExpr],
        path: &str,
    ) -> Result<CheckedNode, PlanError> {
        let computed = keys.iter().filter(|(_, e)| !matches!(e, Expr::Col(_)));
        let need = (computed.map(|(_, e)| e))
            .chain(aggs.iter().filter_map(|a| a.arg.as_ref()))
            .fold(Values::none(), Values::reading);
        let node = self.walk(input, &format!("{path}.Aggr.input"), &need)?;
        if !self.rules {
            return self.keyed_aggr(node, keys, aggs, path, false);
        }
        match self.dense_keys(&node, keys) {
            Err(why) => {
                self.rule_refused("dense-keys-direct-aggr", path, why);
                self.keyed_aggr(node, keys, aggs, path, false)
            }
            Ok((what, dkeys)) => {
                self.rule_note("dense-keys-direct-aggr", path, what);
                self.check_direct(node, dkeys, aggs, path)
            }
        }
    }

    /// Rule `dense-keys-direct-aggr`: whether the `Aggr` with these
    /// `keys` over the checked `input` groups in a direct table — with
    /// its keys, resolved — and what the walk log says about it either
    /// way. Every key must be a bare column that is an enum code (its
    /// dictionary's cardinality is the domain) or an `I32`/`I64`/`U32`
    /// column with a proven integer range. The product of the key
    /// domains must stay within [`DirectAggrOp::MAX_SLOTS`] and the
    /// input's row bound, so the table is never larger than the data.
    /// Keys that all stream (the rule `sorted-keys-ordered-aggr` fires)
    /// keep their ordered aggregation, and a spill budget keeps the
    /// hash table, which can spill where the direct table cannot.
    fn dense_keys(
        &self,
        input: &CheckedNode,
        keys: &[(String, Expr)],
    ) -> Result<(String, Vec<DirectKey>), String> {
        if keys.is_empty() {
            return Err("no grouping key".into());
        }
        let mut cols = Vec::with_capacity(keys.len());
        for (name, e) in keys {
            let Expr::Col(c) = e else {
                return Err(format!("key `{name}` is computed"));
            };
            let i = (input.fields.iter().position(|f| &f.name == c))
                .ok_or_else(|| format!("key `{name}` is not an input column"))?;
            cols.push((name, c, i));
        }
        // As `keyed_aggr` decides it: runs of sorted, non-code, non-f64
        // keys are groups.
        let streams = cols.iter().all(|&(_, _, i)| {
            input.facts.cols[i].sorted
                && input.dicts[i].is_none()
                && input.fields[i].ty != ScalarType::F64
        });
        if streams {
            return Err("keys proven sorted: sorted-keys-ordered-aggr streams them".into());
        }
        if self.opts.spill_budget.is_some() {
            return Err("a spill budget is set and the direct table cannot spill".into());
        }
        let mut slots = 1u64;
        let mut shown = Vec::with_capacity(cols.len());
        let mut dkeys = Vec::with_capacity(cols.len());
        for &(name, c, i) in &cols {
            let ty = input.fields[i].ty;
            let dict = input.dicts[i].as_deref();
            let (lo, card) = if let Some(d) = dict {
                shown.push(format!("`{c}` code"));
                (0, d.cardinality() as u64)
            } else if let Some((lo, card)) = int_domain(ty, &input.facts.cols[i]) {
                shown.push(format!(
                    "`{c}` in [{lo}, {}]",
                    i128::from(lo) + i128::from(card) - 1
                ));
                (lo, card)
            } else if offset_key(ty) {
                return Err(format!("key `{c}` has no proven range"));
            } else {
                return Err(format!(
                    "key `{c}` is {ty}, not an enum code or i32/i64/u32"
                ));
            };
            slots = slots.saturating_mul(card);
            dkeys.push(DirectKey {
                name: name.clone(),
                col: i,
                // Within `MAX_SLOTS` once the product is checked below.
                card: u32::try_from(card).unwrap_or(u32::MAX),
                lo,
                dict: dict.cloned(),
            });
        }
        if slots > DirectAggrOp::MAX_SLOTS as u64 {
            return Err(format!(
                "{slots} slots exceed the direct table's {}",
                DirectAggrOp::MAX_SLOTS
            ));
        }
        match input.facts.rows_max {
            Some(rows) if slots <= rows => Ok((
                format!(
                    "{} → direct table of {slots} slots (input ≤ {rows} rows)",
                    shown.join(" × ")
                ),
                dkeys,
            )),
            Some(rows) => Err(format!("{slots} slots exceed the input's {rows} rows")),
            None => Err(format!(
                "{slots} slots, and the input's row count is unbounded"
            )),
        }
    }

    /// Aggregation grouped on computed keys: the generic `Aggr` (code
    /// keys mixed with others; code-typed keys still group on codes and
    /// decode only at emission) and the `forced` `OrdAggr`. Rule
    /// `sorted-keys-ordered-aggr` picks the variant of the former: every
    /// key proven sorted — each non-decreasing, so equal key tuples are
    /// adjacent — takes the streaming ordered aggregation, anything else
    /// the hash table.
    fn keyed_aggr(
        &mut self,
        input: CheckedNode,
        keys: &[(String, Expr)],
        aggs: &[AggExpr],
        path: &str,
        forced: bool,
    ) -> Result<CheckedNode, PlanError> {
        let kind = if forced { "OrdAggr" } else { "Aggr" };
        let mut node = NodeShape::default();
        let mut key_progs = Vec::with_capacity(keys.len());
        let mut key_dicts = Vec::with_capacity(keys.len());
        // Group count ≤ input rows, and ≤ the product of the keys'
        // distinct bounds when all are known.
        let mut key_distinct = Some(1u64);
        let mut proven_sorted = !keys.is_empty();
        // Sortedness is by `<=`, grouping by bits: `0.0` and `-0.0` may
        // interleave in a sorted f64 column, so runs are not groups.
        let mut runs_are_groups = true;
        for (i, (name, e)) in keys.iter().enumerate() {
            let kpath = format!("{path}.{kind}.key[{i}]");
            let prog = self.compile_verified(e, &input.fields, &input.dicts, &kpath)?;
            // Dictionaries only apply to code-typed bare column keys.
            let key_dict = prog
                .as_col_ref()
                .filter(|_| !forced)
                .filter(|_| matches!(prog.result_type(), ScalarType::U8 | ScalarType::U16))
                .and_then(|ci| input.dicts[ci].clone());
            let kf = match &key_dict {
                // Decoded at emission: only the distinct bound survives
                // into value space.
                Some(d) => ColFact {
                    distinct_max: Some(d.cardinality() as u64),
                    ..ColFact::top()
                },
                None => facts::eval_prog(&prog, &input.facts.cols, self.reg),
            };
            proven_sorted &= kf.sorted;
            runs_are_groups &= key_dict.is_none() && prog.result_type() != ScalarType::F64;
            key_distinct =
                key_distinct.and_then(|p| kf.distinct_max.and_then(|d| p.checked_mul(d)));
            node.cols.push(kf);
            let out_ty = key_dict
                .as_ref()
                .map_or(prog.result_type(), |d| d.value_type());
            node.fields.push(OutField::new(name.clone(), out_ty));
            key_progs.push(prog);
            key_dicts.push(key_dict.as_deref().cloned());
        }
        let key_types: Vec<ScalarType> = key_progs.iter().map(|p| p.result_type()).collect();
        let apath = format!("{path}.{kind}");
        // Runs are groups: the ordered aggregation streams them at a
        // fraction of a hash lookup, so no Exchange splits them, with
        // the rule on (`OrdAggr`) or off (a `HashAggr` as given).
        let streams = proven_sorted && runs_are_groups;
        let by_rule = self.rules && !forced && streams;
        if forced && !proven_sorted {
            // Legal — clustered is weaker than sorted, and facts are
            // conservative — but unclustered input repeats groups.
            self.report
                .push(format!("{path}: OrdAggr keys not proven sorted"));
        } else if by_rule {
            let what = "keys proven sorted → ordered aggregation".to_owned();
            self.rule_note("sorted-keys-ordered-aggr", path, what);
        }
        let specs = self.check_aggs(aggs, &input, kind, path, &mut node.fields, &mut node.cols)?;
        node.dicts = vec![None; node.fields.len()];
        if !forced && !by_rule {
            self.check_spill_capable("aggr_hashtable_maintain", "HashAggr", &apath)?;
            self.require_hash(key_types.iter().copied(), &apath)?;
            for kf in &mut node.cols[..keys.len()] {
                kf.sorted = false; // hash (and worker) order is arbitrary
            }
            let merge = MergeSpec {
                fields: node.fields.clone(),
                key_types,
                key_dicts,
                aggs: specs.iter().map(|a| a.merge_rule()).collect(),
                ungrouped: keys.is_empty(),
            };
            self.note(
                path,
                format!("HashAggr → {} keys, {} aggs", keys.len(), aggs.len()),
            );
            let rows_max = match (input.facts.rows_max, key_distinct) {
                (Some(r), Some(k)) => Some(r.min(k)),
                (r, k) => r.or(k),
            };
            let op = CheckedOp::HashAggr {
                keys: key_progs,
                aggs: specs,
                merge: merge.clone(),
            };
            let node = node.finish(path, rows_max, vec![input], op);
            return if streams {
                Ok(node)
            } else {
                self.exchange(node, merge)
            };
        }
        // Groups leave in input key order, so a sorted key stays
        // sorted; runs of an unclustered input may repeat a key, so only
        // the input's row bound holds.
        for ty in &key_types {
            let sig = format!("aggr_ordered_boundaries_{}_col", ty.sig_name());
            self.require(&sig, || apath.clone())?;
        }
        self.require("aggr_ordered_starts_u32_col", || apath.clone())?;
        self.note(
            path,
            format!("OrdAggr → {} keys, {} aggs", keys.len(), aggs.len()),
        );
        let rows_max = input.facts.rows_max;
        let op = CheckedOp::OrdAggr {
            keys: key_progs,
            aggs: specs,
        };
        Ok(node.finish(path, rows_max, vec![input], op))
    }

    /// Physical planning at `threads > 1`, decided from an aggregation
    /// `node` and its input alone: when that input is a morsel spine
    /// ([`morsel_spine`]) whose scan cuts into more than one morsel,
    /// `node` runs under an `Exchange` whose workers each aggregate a
    /// share of the morsels and ship partials `merge` re-aggregates.
    /// Not one of the [`RULES`]: both walk modes place it alike.
    fn exchange(&mut self, node: CheckedNode, merge: MergeSpec) -> Result<CheckedNode, PlanError> {
        let spine = morsel_spine(&node.inputs[0]).filter(|_| self.opts.threads > 1);
        let Some((scan, _)) = spine else {
            return Ok(node);
        };
        let morsels = spine_morsels(scan, self.opts.morsel_size).len();
        if morsels <= 1 {
            return Ok(node);
        }
        // `MergeAggr` looks the partials' keys up by hash.
        self.require_hash(merge.key_types.iter().copied(), &node.path)?;
        let (path, table) = (node.path.clone(), scan.table.name());
        let what = format!("{path}: Exchange → {morsels} morsels of `{table}`, MergeAggr");
        self.report.push(what);
        let (shape, rows_max) = (NodeShape::from_input(&node), node.facts.rows_max);
        Ok(shape.finish(&path, rows_max, vec![node], CheckedOp::Exchange { merge }))
    }

    /// Direct (array-indexed) aggregation over the `keys` that
    /// [`Self::dense_keys`] resolved.
    fn check_direct(
        &mut self,
        input: CheckedNode,
        keys: Vec<DirectKey>,
        aggs: &[AggExpr],
        path: &str,
    ) -> Result<CheckedNode, PlanError> {
        let mut node = NodeShape::default();
        let mut key_types = Vec::with_capacity(keys.len());
        let mut slots = 1u64;
        for (ki, k) in keys.iter().enumerate() {
            let ty = input.fields[k.col].ty;
            let (out_ty, fact, digit) = match &k.dict {
                // Decoded at emission: only the distinct bound survives
                // into value space.
                Some(d) => (
                    d.value_type(),
                    ColFact {
                        distinct_max: Some(u64::from(k.card)),
                        ..ColFact::top()
                    },
                    format!("{}_col", ty.sig_name()),
                ),
                // Integers leave as read: their facts hold, but hash (and
                // worker) order is not sorted.
                None => {
                    let mut kf = input.facts.cols[k.col].clone();
                    kf.sorted = false;
                    let t = ty.sig_name();
                    (ty, kf, format!("{t}_col_{t}_val"))
                }
            };
            // Mixed-radix digit chaining: the first key starts the group
            // id, each further key extends it.
            let sig = match ki {
                0 => format!("map_uidx_{digit}"),
                _ => format!("map_directgrp_uidx_col_{digit}"),
            };
            self.require(&sig, || format!("{path}.DirectAggr.key[{}]", k.name))?;
            slots *= u64::from(k.card);
            node.fields.push(OutField::new(k.name.clone(), out_ty));
            node.cols.push(fact);
            key_types.push(ty);
        }
        let specs = self.check_aggs(
            aggs,
            &input,
            "DirectAggr",
            path,
            &mut node.fields,
            &mut node.cols,
        )?;
        // One slot per key combination bounds the group count.
        let rows_max = Some(input.facts.rows_max.map_or(slots, |r| r.min(slots)));
        self.note(
            path,
            format!("DirectAggr → {} keys, {} aggs", keys.len(), aggs.len()),
        );
        node.dicts = vec![None; node.fields.len()];
        // Partials merge on the key codes, by hash.
        let merge = MergeSpec {
            fields: node.fields.clone(),
            key_types,
            key_dicts: keys.iter().map(|k| k.dict.clone()).collect(),
            aggs: specs.iter().map(|a| a.merge_rule()).collect(),
            ungrouped: false,
        };
        let op = CheckedOp::DirectAggr { keys, aggs: specs };
        let node = node.finish(path, rows_max, vec![input], op);
        self.exchange(node, merge)
    }
}

/// The output names of fetch lists, in output order.
fn fetched_aliases<'a, 'p>(lists: &'a [FetchList<'p>]) -> impl Iterator<Item = &'p str> + 'a {
    lists.iter().flatten().map(|(_, alias)| alias.as_str())
}

/// The fetch list a `Fetch1Join` plan node wrote.
fn fetch_list(f: &Plan) -> FetchList<'_> {
    match f {
        Plan::Fetch1Join { fetch, .. } => fetch.iter().collect(),
        _ => unreachable!("the chain holds Fetch1Join nodes"),
    }
}

/// How rule `select-before-fetch` divides the columns of a chain of
/// fetches under a selection.
struct FetchSplit<'p> {
    /// Per fetch: what the selection needs below it — the predicate's
    /// operands, and the `#rowId` operands of every fetch that brings
    /// one of those in.
    early: Vec<FetchList<'p>>,
    /// Per fetch: the rest, fetched above the selection.
    late: Vec<FetchList<'p>>,
    /// The fetch that brings in everything the predicate reads, if one
    /// does.
    only: Option<usize>,
}

/// Divide the columns that `fetches` (innermost first, over a dataflow
/// of `base_fields`; `lists` are their fetch lists) bring in by whether
/// `Select(pred)` above them needs them. `None` when a name occurs
/// twice: moving a fetch could then change which column a name
/// resolves to.
fn split_fetches<'p>(
    base_fields: &[OutField],
    lists: &[FetchList<'p>],
    fetches: &[&'p Plan],
    pred: &'p Expr,
) -> Option<FetchSplit<'p>> {
    let mut seen: BTreeSet<&str> = BTreeSet::new();
    let names = (base_fields.iter().map(|f| f.name.as_str())).chain(fetched_aliases(lists));
    for name in names {
        if !seen.insert(name) {
            return None;
        }
    }
    let reads = pred.columns();
    let brings = |j: usize, c: &str| fetched_aliases(&lists[j..=j]).any(|a| a == c);
    let only = (0..lists.len()).find(|&j| !reads.is_empty() && reads.iter().all(|c| brings(j, c)));
    let mut needed = reads;
    let (mut early, mut late) = (Vec::new(), Vec::new());
    for (f, list) in fetches.iter().zip(lists).rev() {
        let (e, l): (FetchList, FetchList) =
            (list.iter()).partition(|(_, alias)| needed.contains(&alias.as_str()));
        if let (false, Plan::Fetch1Join { rowid, .. }) = (e.is_empty(), f) {
            needed.extend(rowid.columns());
        }
        early.push(e);
        late.push(l);
    }
    early.reverse();
    late.reverse();
    Some(FetchSplit { early, late, only })
}

/// The `select_*` chain of a step list, as the walk log prints it.
fn step_sigs(steps: &[SelStep]) -> String {
    let sigs: Vec<&str> = steps.iter().filter_map(|s| s.sig()).collect();
    sigs.join(", ")
}

/// A node's output shape under construction: fields, dictionaries and
/// column facts, positionally aligned.
#[derive(Default)]
struct NodeShape {
    fields: Vec<OutField>,
    dicts: Dicts,
    cols: Vec<ColFact>,
}

impl NodeShape {
    /// Start from the input's shape (operators that pass their input
    /// columns through and append their own).
    fn from_input(input: &CheckedNode) -> Self {
        NodeShape {
            fields: input.fields.clone(),
            dicts: input.dicts.clone(),
            cols: input.facts.cols.clone(),
        }
    }

    fn finish(
        self,
        path: &str,
        rows_max: Option<u64>,
        inputs: Vec<CheckedNode>,
        op: CheckedOp,
    ) -> CheckedNode {
        CheckedNode {
            path: path.to_owned(),
            fields: self.fields,
            dicts: self.dicts,
            facts: NodeFacts {
                cols: self.cols,
                rows_max,
            },
            inputs: inputs.into_iter().map(Arc::new).collect(),
            op,
        }
    }
}

/// The batch-column operands of one instruction, with the context label
/// the enum-escape rule reports.
fn col_operands(instr: &Instr) -> (&'static str, Vec<Src>) {
    match instr {
        Instr::ArithCC { l, r, .. } => ("arithmetic operand", vec![*l, *r]),
        Instr::ArithCV { l, .. } => ("arithmetic operand", vec![*l]),
        Instr::ArithVC { r, .. } => ("arithmetic operand", vec![*r]),
        Instr::CmpCC { l, r, .. } => ("comparison operand", vec![*l, *r]),
        Instr::CmpCV { l, .. } => ("comparison operand", vec![*l]),
        Instr::StrEqCV { l, .. } => ("string comparison operand", vec![*l]),
        Instr::And { l, r, .. } | Instr::Or { l, r, .. } => ("boolean operand", vec![*l, *r]),
        Instr::Not { s, .. } => ("boolean operand", vec![*s]),
        Instr::Cast { s, .. } => ("cast operand", vec![*s]),
        Instr::Fill { .. } => ("constant", Vec::new()),
        Instr::FusedSubValMul { a, b, .. } | Instr::FusedAddValMul { a, b, .. } => {
            ("fused arithmetic operand", vec![*a, *b])
        }
        Instr::YearOf { s, .. } => ("year() operand", vec![*s]),
        Instr::StrContainsCV { s, .. } => ("contains() operand", vec![*s]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{add, col, lit_i64};
    use x100_storage::TableBuilder;

    /// The walk never hands arithmetic a code column, but the guard
    /// stands: a program doing math on a field that carries a
    /// dictionary is an undecoded enum column, unless it is the
    /// `Fetch1Join` rowid's sanctioned widening.
    #[test]
    fn arithmetic_on_a_code_field_is_an_undecoded_enum_column() {
        let t = TableBuilder::new("t")
            .auto_enum_str("status", vec!["NEW".into(), "OPEN".into()])
            .build();
        let dict = t.column(0).dict().cloned().map(Arc::new);
        let (db, opts) = (Database::new(), ExecOptions::default());
        let mut c = Checker::new(&db, &opts, true);
        let fields = [OutField::new("status", ScalarType::U8)];
        let dicts = [dict];
        let e = add(col("status"), lit_i64(1));
        let prog = c
            .compile_as_at(&e, &fields, &dicts, "p", Ok)
            .expect("compiles");
        match c.verify_prog(&prog, &fields, &dicts, "p", false) {
            Err(PlanError::PlanCheck {
                violation: CheckViolation::UndecodedEnumColumn { column, .. },
                ..
            }) => assert_eq!(column, "status"),
            other => panic!("expected UndecodedEnumColumn, got {other:?}"),
        }
        c.verify_prog(&prog, &fields, &dicts, "p", true)
            .expect("a rowid widens codes");
    }
}
