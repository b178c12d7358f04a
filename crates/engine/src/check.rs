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
//! variant (direct / hash / ordered aggregation, hash / merge join,
//! fused compressed scan-select, the summary-index row range of a
//! scan under a range selection, constant-folded selection, selection
//! before fetch, the columns no node reads left ungathered, the
//! `Exchange` that runs an aggregation on morsel
//! workers at `threads > 1`), compiles every expression exactly once,
//! validates each emitted
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
//! Which enum columns travel as codes, and which columns travel at all,
//! is the walk's choice, not the plan's. Each node passes its input a
//! [`Demand`]: the columns it or its consumer reads at all, and of
//! those the ones it reads as values. The root demands its whole
//! schema. A `Scan` or `Fetch1Join` reads every enum column outside the
//! values as its 1–2-byte codes, pending inserts or not (the insert
//! delta holds codes too), and — rule `unread-not-fetched` — gathers no
//! column outside the demand at all. Code readers are a bare
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
    JoinParts, JoinType, MergeSpec, PredStep, ScanCol, ScanSpec, SortOrder, Window,
};
use crate::plan::{self, Plan};
use crate::session::{Database, ExecOptions};
use crate::PlanError;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, OnceLock};
use x100_storage::{EnumDict, Table};
use x100_vector::{CmpOp, PrimitiveDesc, PrimitiveRegistry, ScalarType, Value, VecShape};

/// A predicate conjunct over verified (shared, register-free) programs.
type SelStep = PredStep<Arc<ExprCode>>;

/// The `(table column, output alias)` entries of one `Fetch1Join` plan
/// node.
type FetchList<'p> = Vec<&'p (String, String)>;

/// What a node's consumer reads of its output: the columns it reads at
/// all, and of those the ones it reads as values. Every other enum
/// column may reach it as codes, and (rule `unread-not-fetched`) every
/// other column need not reach it.
/// Column names are borrowed from the plan being walked.
#[derive(Clone)]
enum Demand<'p> {
    /// Every column, as values: the query's result.
    All,
    /// Each column read, with whether it is read as values.
    Of(BTreeMap<&'p str, bool>),
}

impl<'p> Demand<'p> {
    fn none() -> Self {
        Demand::Of(BTreeMap::new())
    }

    /// Whether the consumer reads `col` at all.
    fn reads(&self, col: &str) -> bool {
        match self {
            Demand::All => true,
            Demand::Of(cols) => cols.contains_key(col),
        }
    }

    /// Whether the consumer reads `col` as values.
    fn wants(&self, col: &str) -> bool {
        match self {
            Demand::All => true,
            Demand::Of(cols) => cols.get(col) == Some(&true),
        }
    }

    /// Read `col` — as values, or as codes where it is an enum column.
    fn take(&mut self, col: &'p str, as_values: bool) {
        if let Demand::Of(cols) = self {
            *cols.entry(col).or_default() |= as_values;
        }
    }

    /// Read `col`, as codes where it is an enum column.
    fn read(&mut self, col: &'p str) {
        self.take(col, false);
    }

    /// Read `col` as values.
    fn add(&mut self, col: &'p str) {
        self.take(col, true);
    }

    /// With the columns `e` reads, as values those
    /// [`plan::value_reads`] names.
    fn reading(mut self, e: &'p Expr) -> Self {
        if let Demand::Of(_) = self {
            let mut values = Vec::new();
            plan::value_reads(e, &mut values);
            for c in e.columns() {
                self.take(c, values.contains(&c));
            }
        }
        self
    }

    /// With what a `Fetch1Join` rowid reads: a bare column widens to
    /// `u32` as codes (the sanctioned decode), a computed rowid is an
    /// ordinary expression.
    fn rowid(mut self, e: &'p Expr) -> Self {
        match e {
            Expr::Col(c) => {
                self.read(c);
                self
            }
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
pub const RULES: [&str; 6] = [
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
    // `HashJoin` on one integer key proven sorted on both inputs: the
    // streaming merge join instead of the hash table.
    "sorted-inputs-merge-join",
    // `Select` over a `Scan` whose predicate bounds a column with a
    // summary index: only the fragment rows that index leaves are read.
    "summary-range-select",
    // `Scan` / `Fetch1Join`: a column no node above reads and the root
    // does not return is not gathered (a scan keeps one column; a fetch
    // left with none does not run).
    "unread-not-fetched",
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

    /// Every column a `Scan` or `Fetch1Join` of the tree emits that no
    /// operator above it reads and the root does not return, as
    /// `<path>: <column>` — read off the operators' verified programs,
    /// not the plan. A scan that no one reads keeps one column, which is
    /// not listed. Hidden: the corpus test of rule `unread-not-fetched`.
    #[doc(hidden)]
    pub fn unread_gathers(&self) -> Vec<String> {
        let mut out = Vec::new();
        unread_below(&self.root, vec![true; self.root.fields.len()], &mut out);
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
    /// Input nodes: none for leaves, `[build, probe]` for a hash or
    /// merge join, one otherwise. Shared, so an `Exchange`'s operator
    /// holds its input subtree itself rather than a copy.
    pub(crate) inputs: Vec<Arc<CheckedNode>>,
    pub(crate) op: CheckedOp,
}

/// The physical variant of a [`CheckedNode`], with its verified parts.
#[derive(Debug)]
pub(crate) enum CheckedOp {
    Scan(ScanSpec),
    /// `steps` is empty when `verdict` folded the predicate. `certain` holds,
    /// per step, the fragment rows rule `summary-range-select` proved it
    /// for (empty when the rule did not run).
    Select {
        steps: Vec<SelStep>,
        verdict: Option<bool>,
        certain: Vec<Option<Window>>,
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
    /// A hash join whose one key both inputs are proven sorted on,
    /// planned by rule `sorted-inputs-merge-join`
    /// ([`crate::ops::MergeJoinOp`]): never a morsel-spine link, so no
    /// `Exchange` spans it.
    MergeJoin(JoinParts),
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
            CheckedOp::HashJoin(parts) | CheckedOp::MergeJoin(parts) => {
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

    /// The node's input nodes (a join's build side first).
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
    let root = c.walk(plan, "root", &Demand::All)?;
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
/// an enum column that no reader wants as values (`value_read`). Pending
/// inserts change nothing: the insert delta holds the column's codes
/// into the same dictionary.
fn code_dict(t: &Table, ci: usize, value_read: bool) -> Option<&EnumDict> {
    t.column(ci).dict().filter(|_| !value_read)
}

/// The walk-log suffix that names the columns read as codes.
fn codes_note(codes: &[&str]) -> String {
    match codes {
        [] => String::new(),
        _ => format!(", codes [{}]", codes.join(", ")),
    }
}

/// Integer literal `v` as a compare against a summarized column of type
/// `ty` reads it: `None` unless `ty` is `i32` or `i64` (the types a
/// summary index covers) and holds the value exactly.
fn int_literal(v: &Value, ty: ScalarType) -> Option<i64> {
    let x = match v {
        Value::I8(_) | Value::I16(_) | Value::I32(_) | Value::I64(_) => v.as_i64(),
        Value::U8(_) | Value::U16(_) | Value::U32(_) => v.as_i64(),
        _ => return None,
    };
    match ty {
        ScalarType::I32 => i32::try_from(x).ok().map(i64::from),
        ScalarType::I64 => Some(x),
        _ => None,
    }
}

/// The inclusive `(lo, hi)` bounds of `col ⊙ x` over integers, for the
/// range comparisons (`None` for `=` / `<>`, and past the type's end).
fn cmp_bounds(op: CmpOp, x: i64) -> Option<(Option<i64>, Option<i64>)> {
    match op {
        CmpOp::Le => Some((None, Some(x))),
        CmpOp::Lt => Some((None, Some(x.checked_sub(1)?))),
        CmpOp::Ge => Some((Some(x), None)),
        CmpOp::Gt => Some((Some(x.checked_add(1)?), None)),
        CmpOp::Eq | CmpOp::Ne => None,
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
    /// enum column comes as codes ([`code_dict`]) when `demand` leaves it
    /// to code readers. Returns the specs and the aliases fetched as
    /// codes.
    fn fetch_specs<'p>(
        &mut self,
        t: &Table,
        fetch: impl IntoIterator<Item = &'p (String, String)>,
        demand: &Demand<'_>,
        path: &str,
        node: &mut NodeShape,
    ) -> Result<(Vec<FetchSpec>, Vec<&'p str>), PlanError> {
        let (mut specs, mut codes) = (Vec::new(), Vec::new());
        for (i, (src, alias)) in fetch.into_iter().enumerate() {
            let ci = fetch_column(t, src)?;
            let sc = t.column(ci);
            let dict = code_dict(t, ci, demand.wants(alias));
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

    /// Walk one plan node, whose consumer reads `demand`: check its
    /// inputs, then plan and verify the node itself.
    fn walk<'p>(
        &mut self,
        plan: &'p Plan,
        path: &str,
        demand: &Demand<'p>,
    ) -> Result<CheckedNode, PlanError> {
        match plan {
            Plan::Scan { table, cols } => self.scan_node(table, cols, demand, path),
            Plan::Select { input, pred } => {
                // Rule `select-before-fetch` looks through the
                // `Fetch1Join`s under the selection (innermost first),
                // so the walk resumes below them, demanding what the
                // pieces above it read: the predicate, and the `#rowId`
                // of every fetch rule `unread-not-fetched` keeps.
                let mut fetches = Vec::new();
                let mut base = input.as_ref();
                let mut need = demand.clone().reading(pred);
                while let Plan::Fetch1Join { input, rowid, .. } = base {
                    fetches.push(base);
                    if self.runs(base, &need) {
                        need = need.rowid(rowid);
                    }
                    base = input;
                }
                if fetches.is_empty() {
                    let node = self.walk(base, &format!("{path}.Select.input"), &need)?;
                    return self.select_node(node, pred, path);
                }
                fetches.reverse();
                let hops = ".Fetch1Join.input".repeat(fetches.len());
                let node = self.walk(base, &format!("{path}.Select.input{hops}"), &need)?;
                self.select_over_fetches(node, &fetches, pred, demand, path)
            }
            Plan::Project { input, exprs } => {
                // An alias of a bare column passes its own demand on.
                let mut need = Demand::none();
                for (name, e) in exprs {
                    match e {
                        Expr::Col(c) if demand.wants(name) => need.add(c),
                        Expr::Col(c) => need.read(c),
                        e => need = need.reading(e),
                    }
                }
                let input = self.walk(input, &format!("{path}.Project.input"), &need)?;
                self.project_node(input, exprs, path)
            }
            Plan::Aggr { input, keys, aggs } => self.aggr_node(input, keys, aggs, path),
            Plan::Fetch1Join {
                input,
                rowid,
                table,
                fetch,
            } => {
                let mut list: FetchList = fetch.iter().collect();
                let dropped = self.unread_not_fetched(table, &mut list, demand)?;
                // With nothing to gather the fetch does not run, and its
                // `#rowId` is not read.
                let runs = !list.is_empty() || dropped.is_empty();
                let need = match runs {
                    true => demand.clone().rowid(rowid),
                    false => demand.clone(),
                };
                let input = self.walk(input, &format!("{path}.Fetch1Join.input"), &need)?;
                if !dropped.is_empty() {
                    let mut what = format!("not fetched: [{}]", dropped.join(", "));
                    if !runs {
                        what.push_str(&format!("; the fetch of `{table}` does not run"));
                    }
                    self.rule_note("unread-not-fetched", path, what);
                }
                if !runs {
                    return Ok(input);
                }
                self.fetch1_node(input, plan, &list, None, demand, path)
            }
            Plan::FetchNJoin {
                input,
                table,
                lo,
                cnt,
                fetch,
            } => {
                let need = demand.clone().reading(lo).reading(cnt);
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
                    &Demand::All,
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
                let input = self.walk(input, &format!("{path}.CartProd.input"), demand)?;
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
                let need = demand.clone().reading(pred);
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
                let mut need = build_keys.iter().fold(Demand::none(), Demand::reading);
                for (src, _) in payload {
                    need.add(src);
                }
                let build = self.walk(build, &format!("{path}.HashJoin.build"), &need)?;
                let need = probe_keys.iter().fold(demand.clone(), Demand::reading);
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
                let merge = match self.rules {
                    false => false,
                    true => match sorted_inputs(&build, &probe, &bprogs, &pprogs, self.reg) {
                        Ok(what) => {
                            self.rule_note("sorted-inputs-merge-join", path, what);
                            true
                        }
                        Err(why) => {
                            self.rule_refused("sorted-inputs-merge-join", path, why);
                            false
                        }
                    },
                };
                let mut node = NodeShape::from_input(&probe);
                if !merge {
                    // A hash join emits probe rows in order too (DESIGN
                    // §15), but no rule has yet been measured relying
                    // on that: its probe columns drop `sorted`.
                    for f in &mut node.cols {
                        f.sorted = false;
                    }
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
                // The build and probe loops: key hashing, the group
                // table's insert and its read-only probe rounds — or the
                // merge cursor over both sides — and, where matches
                // carry rows, one gather per output column. That kernel
                // is total over vector types, so types outside the fetch
                // catalog are legal and simply go untraced.
                let kind = if merge { "MergeJoin" } else { "HashJoin" };
                let jpath = format!("{path}.{kind}");
                if merge {
                    let ty = bprogs[0].result_type().sig_name();
                    self.require(&format!("merge_{ty}_col"), || jpath.clone())?;
                } else {
                    self.require_hash(bprogs.iter().map(|p| p.result_type()), &jpath)?;
                    self.require("aggr_hashtable_maintain", || jpath.clone())?;
                    self.require("aggr_grouptable_probe_u64_col", || jpath.clone())?;
                }
                let mut gather_sigs = Vec::new();
                if join_type.keeps_rows() {
                    for f in &node.fields {
                        let desc = self.reg.get(&format!("map_fetch_u32_col_{}_col", f.ty));
                        gather_sigs.push(desc.map(|d| d.signature));
                        self.verified.extend(desc.map(|d| d.signature));
                    }
                }
                // The probe positions whose key the table holds.
                if !merge && matches!(join_type, JoinType::Inner | JoinType::LeftSemi) {
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
                        "{kind} → {} keys, +{} payload cols",
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
                let op = match merge {
                    true => CheckedOp::MergeJoin(parts),
                    false => CheckedOp::HashJoin(parts),
                };
                Ok(node.finish(path, rows_max, vec![build, probe], op))
            }
            Plan::TopN { input, keys, .. } | Plan::Order { input, keys } => {
                let (kind, limit) = match plan {
                    Plan::TopN { limit, .. } => ("TopN", Some(*limit)),
                    _ => ("Order", None),
                };
                let mut need = demand.clone();
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

    /// `Scan(table, cols)`, the enum columns that `demand` leaves to
    /// code readers surfaced as raw codes ([`code_dict`]). Rule
    /// `unread-not-fetched` leaves out the columns `demand` does not
    /// read — all but the narrowest one when it reads none, since a
    /// scan's row count travels with its columns.
    fn scan_node(
        &mut self,
        table: &str,
        cols: &[String],
        demand: &Demand<'_>,
        path: &str,
    ) -> Result<CheckedNode, PlanError> {
        let t = self.db.table(table)?;
        let mut resolved = Vec::with_capacity(cols.len());
        for name in cols {
            let ci = t
                .column_index(name)
                .ok_or_else(|| PlanError::UnknownColumn(name.clone()))?;
            resolved.push((name, ci));
        }
        if self.rules {
            let read = |(name, _): &(&String, usize)| demand.reads(name);
            let cost = |&(_, ci): &(&String, usize)| t.column(ci).physical_type().width();
            let keep = match resolved.iter().any(read) {
                true => None,
                false => resolved.iter().min_by_key(|c| cost(c)).copied(),
            };
            let (kept, dropped): (Vec<_>, Vec<_>) =
                (resolved.into_iter()).partition(|c| read(c) || Some(*c) == keep);
            if !dropped.is_empty() {
                let names: Vec<&str> = dropped.iter().map(|(n, _)| n.as_str()).collect();
                let what = format!("not scanned: [{}]", names.join(", "));
                self.rule_note("unread-not-fetched", path, what);
            }
            resolved = kept;
        }
        let mut node = NodeShape::default();
        let (mut scan_cols, mut codes) = (Vec::new(), Vec::new());
        for (name, ci) in resolved.iter().copied() {
            let sc = t.column(ci);
            let code = code_dict(&t, ci, demand.wants(name));
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
        let what = format!(
            "Scan `{table}` → {} cols{}",
            scan_cols.len(),
            codes_note(&codes)
        );
        self.note(path, what);
        let spec = ScanSpec {
            range: None,
            cols: scan_cols,
            table: t.clone(),
            keep_deleted: false,
        };
        Ok(node.finish(
            path,
            u64::try_from(t.total_rows()).ok(),
            Vec::new(),
            CheckedOp::Scan(spec),
        ))
    }

    /// `Select(pred)` over `fetches` (a non-empty chain of `Fetch1Join`
    /// plan nodes, innermost first) over the checked `base`, whose
    /// consumer reads `demand`, planned by rule `select-before-fetch`:
    ///
    /// * a fetched column that neither the predicate nor the `#rowId`
    ///   of a fetch the predicate depends on reads is fetched *above*
    ///   the selection, for the survivors only;
    /// * when all the predicate reads is what one fetch brings in, the
    ///   predicate runs once over that fetch's table
    ///   ([`Self::dimension_side`]) and the fetch gathers its one-byte
    ///   result for a `select_ne_u8_col_val`.
    ///
    /// Rule `unread-not-fetched` then leaves out, piece by piece from the
    /// top, every column no piece above and no consumer reads; a fetch
    /// left with nothing to gather is no piece. A closing `Project`
    /// restores the plan's order of the columns that are left. With the
    /// rules off, every node is as written.
    fn select_over_fetches<'p>(
        &mut self,
        base: CheckedNode,
        fetches: &[&'p Plan],
        pred: &'p Expr,
        demand: &Demand<'p>,
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
        let moved = early != as_given;
        let holds_derived = |j: usize| derived.as_ref().is_some_and(|(dj, ..)| *dj == j);
        // Each piece's demand, top-down: the consumer's, then what the
        // pieces above add — a fetch that gathers anything its `#rowId`,
        // the selection its predicate (or only the byte).
        let rowid = |j: usize| match fetches[j] {
            Plan::Fetch1Join { rowid, .. } => rowid,
            _ => unreachable!("the chain holds Fetch1Join nodes"),
        };
        let (mut late_need, mut early_need) = (Vec::new(), Vec::new());
        let mut need = demand.clone();
        for j in (0..fetches.len()).rev() {
            self.unread_not_fetched(fetch_table(fetches[j]), &mut late[j], &need)?;
            late_need.push(need.clone());
            if !late[j].is_empty() {
                need = need.rowid(rowid(j));
            }
        }
        if derived.is_none() {
            need = need.reading(pred);
        }
        for j in (0..fetches.len()).rev() {
            let list = &mut early[j];
            self.unread_not_fetched(fetch_table(fetches[j]), list, &need)?;
            early_need.push(need.clone());
            if !list.is_empty() || holds_derived(j) {
                need = need.rowid(rowid(j));
            }
        }
        late_need.reverse();
        early_need.reverse();
        // The pieces, bottom-up: the fetches the selection needs, the
        // selection, the late fetches (in the plan's order, so one whose
        // `#rowId` another brings in follows it), the restoring
        // projection.
        let below = (0..fetches.len()).filter(|&j| !early[j].is_empty() || holds_derived(j));
        let above = (0..fetches.len()).filter(|&j| !late[j].is_empty());
        // The plan's fetched columns that are left, in its order.
        let left: BTreeSet<&str> = fetched_aliases(&early)
            .chain(fetched_aliases(&late))
            .collect();
        let written = || fetched_aliases(&as_given).filter(|a| left.contains(a));
        let dropped: Vec<&str> = fetched_aliases(&as_given)
            .filter(|a| !left.contains(a))
            .collect();
        // The projection is there iff the pieces' columns are not in the
        // plan's order: a late fetch moved past a later one, or the byte.
        let restore = derived.is_some()
            || (fetched_aliases(&early).chain(fetched_aliases(&late))).ne(written());
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
        let mut what = Vec::new();
        if let Some((_, d, _)) = &derived {
            let t = &d.scan.table;
            what.push(format!(
                "predicate runs once over `{}` ({} rows) and the fetch gathers its result",
                t.name(),
                t.total_rows()
            ));
        }
        let after: Vec<&str> = fetched_aliases(&late).collect();
        if moved && !after.is_empty() {
            what.push(format!(
                "fetched after the selection: [{}]",
                after.join(", ")
            ));
        }
        if !what.is_empty() {
            self.rule_note("select-before-fetch", path, what.join("; "));
        }
        if !dropped.is_empty() {
            let what = format!("not fetched: [{}]", dropped.join(", "));
            self.rule_note("unread-not-fetched", path, what);
        }
        let written: Vec<(String, Expr)> = (base.fields.iter().map(|f| f.name.as_str()))
            .chain(written())
            .filter(|_| restore)
            .map(|n| (n.to_owned(), Expr::Col(n.to_owned())))
            .collect();
        let mut node = base;
        for j in below {
            let d = derived.as_ref().filter(|_| holds_derived(j));
            let d = d.map(|(_, d, name)| (name.as_str(), d.clone()));
            node = self.fetch1_node(node, fetches[j], &early[j], d, &early_need[j], next_path())?;
        }
        let keep = derived.as_ref().map(|(_, _, name)| {
            let (name, zero) = (Expr::Col(name.clone()), Expr::Lit(Value::U8(0)));
            Expr::Cmp(CmpOp::Ne, Box::new(name), Box::new(zero))
        });
        node = self.select_node(node, keep.as_ref().unwrap_or(pred), next_path())?;
        for j in above {
            node =
                self.fetch1_node(node, fetches[j], &late[j], None, &late_need[j], next_path())?;
        }
        if restore {
            node = self.project_node(node, &written, next_path())?;
        }
        Ok(node)
    }

    /// Whether the `Fetch1Join` plan node `fetch` runs under `demand`:
    /// with rule `unread-not-fetched` on, only when it gathers a column
    /// `demand` reads (a fetch that writes none runs as written).
    fn runs(&self, fetch: &Plan, demand: &Demand<'_>) -> bool {
        let list = fetch_list(fetch);
        !self.rules || list.is_empty() || list.iter().any(|(_, alias)| demand.reads(alias))
    }

    /// Rule `unread-not-fetched` on the fetch list `list` of table
    /// `table`: every column is resolved (so a plan names the same
    /// columns with the rule as without), then the ones `demand` does not
    /// read are removed and returned. Nothing changes with the rules off.
    fn unread_not_fetched<'p>(
        &self,
        table: &str,
        list: &mut FetchList<'p>,
        demand: &Demand<'_>,
    ) -> Result<Vec<&'p str>, PlanError> {
        if !self.rules {
            return Ok(Vec::new());
        }
        let t = self.db.table(table)?;
        for (src, _) in list.iter() {
            fetch_column(&t, src)?;
        }
        let (kept, dropped): (FetchList, FetchList) =
            (list.iter()).partition(|(_, alias)| demand.reads(alias));
        *list = kept;
        Ok(dropped.iter().map(|(_, alias)| alias.as_str()).collect())
    }

    /// The dimension side of rule `select-before-fetch`: `pred` reads
    /// only the columns `reads` that `fetch` brings in, so it can be
    /// evaluated over the fetch's table instead of the gathered copies —
    /// a scan of fragment ++ insert delta that keeps deleted rows, so
    /// scan position is `#rowId` and every row a fetch can address has
    /// its byte — if the table is at most an eighth of `base`'s row bound
    /// (the query has already produced that many rows, so one pass over
    /// the table is noise even when an earlier filter was selective).
    /// `None` keeps the predicate on the stream.
    fn dimension_side<'p>(
        &mut self,
        fetch: &Plan,
        reads: &FetchList<'p>,
        base: &CheckedNode,
        pred: &'p Expr,
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
        let srcs: Vec<String> = reads.iter().map(|(src, _)| src.clone()).collect();
        if srcs.iter().collect::<BTreeSet<_>>().len() != srcs.len() {
            return Ok(None); // one column under two aliases
        }
        // The predicate names the columns by their fetch aliases, and
        // reads every one of them.
        let by_alias = Demand::none().reading(pred);
        let mut demand = Demand::none();
        for (src, alias) in reads {
            match by_alias.wants(alias) {
                true => demand.add(src),
                false => demand.read(src),
            }
        }
        let dpath = format!("{path}.Select.dimension");
        let mut scan = self.scan_node(table, &srcs, &demand, &dpath)?;
        for (f, (_, alias)) in scan.fields.iter_mut().zip(reads) {
            f.name.clone_from(alias);
        }
        let steps = self.check_select(pred, &scan.fields, &scan.dicts, &dpath)?;
        // What the facts decide folds as written; no byte column.
        let truths = (steps.iter()).map(|s| facts::step_truth(s, &scan.facts.cols, self.reg));
        if steps.is_empty() || facts::conjunction_verdict(truths).is_some() {
            return Ok(None);
        }
        let CheckedOp::Scan(mut spec) = scan.op else {
            unreachable!("a Scan plan checks to a Scan node")
        };
        spec.keep_deleted = true;
        Ok(Some(Arc::new(DerivedCol::new(spec, scan.fields, steps))))
    }

    /// `Select(pred)` over the checked `input_node`.
    fn select_node(
        &mut self,
        mut input_node: CheckedNode,
        pred: &Expr,
        path: &str,
    ) -> Result<CheckedNode, PlanError> {
        let (fields, dicts) = (input_node.fields.clone(), input_node.dicts.clone());
        // Rewritten here too: the facts refine on codes, as steps compare.
        let full = plan::rewrite_enum_literals(pred, &fields, &dicts);
        let steps = self.check_select(&full, &fields, &dicts, &format!("{path}.Select.pred"))?;
        let what = format!("Select → steps [{}]", step_sigs(&steps));
        // Constant-fold sink: a predicate proven always-true is a
        // pass-through of the input, proven always-false an empty
        // dataflow; either way no step runs.
        let truths = (steps.iter()).map(|s| facts::step_truth(s, &input_node.facts.cols, self.reg));
        let verdict = facts::conjunction_verdict(truths);
        let mut nf = input_node.facts.clone();
        if verdict == Some(false) {
            nf.rows_max = Some(0);
        }
        facts::refine_with_pred(&full, &fields, &mut nf);
        let steps = if verdict.is_some() { Vec::new() } else { steps };
        let mut certain = Vec::new();
        if let (None, CheckedOp::Scan(spec), true) = (verdict, &mut input_node.op, self.rules) {
            certain = self.summary_range(spec, &steps, &fields, &nf, path);
        }
        self.note(path, what);
        Ok(CheckedNode {
            path: path.to_owned(),
            fields,
            dicts,
            facts: nf,
            inputs: vec![Arc::new(input_node)],
            op: CheckedOp::Select {
                steps,
                verdict,
                certain,
            },
        })
    }

    /// Rule `summary-range-select` on the `spec` of the `Scan` under a
    /// `Select` whose refined facts are `nf` and whose refinement chain
    /// is `steps` (§4.3):
    ///
    /// * each plain scanned column with a summary index and a proven
    ///   integer range bounds the fragment rows that can hold a passing
    ///   row, and the scan reads only the rows every such column allows;
    /// * each step comparing such a column with an integer literal is
    ///   proven on the rows the index certainly qualifies: the steps'
    ///   windows are returned, and a scan batch inside a window skips
    ///   that compare.
    ///
    /// Delta rows are scanned and evaluated as always, and the facts stay
    /// the predicate's, so no other decision moves.
    fn summary_range(
        &mut self,
        spec: &mut ScanSpec,
        steps: &[SelStep],
        fields: &[OutField],
        nf: &NodeFacts,
        path: &str,
    ) -> Vec<Option<Window>> {
        let n = spec.table.fragment_rows();
        let (mut start, mut end) = (0, n);
        let mut cuts = Vec::new();
        for (((ci, kind), f), fact) in spec.cols.iter().zip(fields).zip(&nf.cols) {
            let summary = spec.table.column(*ci).summary();
            let (Some(summary), ScanCol::Plain) = (summary, kind) else {
                continue;
            };
            let Some(FactRange::Int(lo, hi)) = fact.range else {
                continue;
            };
            let (a, b) = summary.range_candidates(Some(lo), Some(hi));
            if (a, b) != (0, n) {
                cuts.push(format!("`{}` in [{lo}, {hi}]", f.name));
                start = start.max(a);
                end = end.min(b).max(start);
            }
        }
        let mut parts = Vec::new();
        if !cuts.is_empty() {
            spec.range = Some((start, end));
            parts.push(format!("{} → rows {start}..{end} of {n}", cuts.join(", ")));
        }
        // The proven rows of one compare of scanned column `k`, within
        // the rows the scan reads.
        let proven = |k: usize, bounds: Option<(Option<i64>, Option<i64>)>| {
            let (ci, ScanCol::Plain) = spec.cols.get(k)? else {
                return None;
            };
            let (lo, hi) = bounds?;
            let (a, b) = spec.table.column(*ci).summary()?.certain_range(lo, hi);
            let (a, b) = (a.max(start), b.min(end));
            (a < b).then_some((a, b))
        };
        let certain: Vec<Option<Window>> = steps
            .iter()
            .map(|step| match step {
                PredStep::CmpVal { lhs, op, v, .. } => {
                    let x = int_literal(v, lhs.result_type())?;
                    proven(lhs.as_col_ref()?, cmp_bounds(*op, x))
                }
                _ => None,
            })
            .collect();
        for (i, (w, step)) in certain.iter().zip(steps).enumerate() {
            if let (Some((a, b)), Some(sig)) = (w, step.sig()) {
                parts.push(format!("step[{i}] `{sig}` certain rows {a}..{b}"));
            }
        }
        if !parts.is_empty() {
            self.rule_note("summary-range-select", path, parts.join("; "));
        }
        certain
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
    /// fetching `fetch` in place of the columns the plan names (rule
    /// `select-before-fetch` splits them between two nodes, rule
    /// `unread-not-fetched` leaves out the unread ones) — as codes where
    /// `demand` leaves them to code readers — and, with `derived`,
    /// gathering that byte column under the given name.
    fn fetch1_node(
        &mut self,
        input: CheckedNode,
        plan: &Plan,
        fetch: &FetchList,
        derived: Option<(&str, Arc<DerivedCol>)>,
        demand: &Demand<'_>,
        path: &str,
    ) -> Result<CheckedNode, PlanError> {
        let Plan::Fetch1Join { table, rowid, .. } = plan else {
            unreachable!("fetch1_node takes a Fetch1Join plan node")
        };
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
            demand,
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
    /// emission), and no other column is read. As written the hash
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
        let mut need = (computed.map(|(_, e)| e))
            .chain(aggs.iter().filter_map(|a| a.arg.as_ref()))
            .fold(Demand::none(), Demand::reading);
        for (_, e) in keys {
            if let Expr::Col(c) = e {
                need.read(c);
            }
        }
        let node = self.walk(input, &format!("{path}.Aggr.input"), &need)?;
        if !self.rules {
            return self.keyed_aggr(node, keys, aggs, path);
        }
        match self.dense_keys(&node, keys) {
            Err(why) => {
                self.rule_refused("dense-keys-direct-aggr", path, why);
                self.keyed_aggr(node, keys, aggs, path)
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

    /// Aggregation grouped on computed keys, or on code keys mixed with
    /// others (code-typed keys still group on codes and decode only at
    /// emission). Rule `sorted-keys-ordered-aggr` picks the variant:
    /// every key proven sorted — each non-decreasing, so equal key tuples
    /// are adjacent — takes the streaming ordered aggregation, anything
    /// else the hash table.
    fn keyed_aggr(
        &mut self,
        input: CheckedNode,
        keys: &[(String, Expr)],
        aggs: &[AggExpr],
        path: &str,
    ) -> Result<CheckedNode, PlanError> {
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
            let kpath = format!("{path}.Aggr.key[{i}]");
            let prog = self.compile_verified(e, &input.fields, &input.dicts, &kpath)?;
            // Dictionaries only apply to code-typed bare column keys.
            let key_dict = prog
                .as_col_ref()
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
        let apath = format!("{path}.Aggr");
        // Runs are groups: the ordered aggregation streams them at a
        // fraction of a hash lookup, so no Exchange splits them, with
        // the rule on (`OrdAggr`) or off (a `HashAggr` as given).
        let streams = proven_sorted && runs_are_groups;
        let by_rule = self.rules && streams;
        if by_rule {
            let what = "keys proven sorted → ordered aggregation".to_owned();
            self.rule_note("sorted-keys-ordered-aggr", path, what);
        }
        let specs =
            self.check_aggs(aggs, &input, "Aggr", path, &mut node.fields, &mut node.cols)?;
        node.dicts = vec![None; node.fields.len()];
        if !by_rule {
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
        // Groups leave in input key order, so a sorted key stays sorted.
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

/// Rule `sorted-inputs-merge-join`: whether a hash join of `build` and
/// `probe` on the key programs `bkeys` / `pkeys` can walk both inputs in
/// key order instead — one key pair, of an integer type (a sorted f64
/// may interleave `0.0` and `-0.0`, which the hash join matches by
/// bits), proven sorted on both sides by the facts — and what the walk
/// log says about it either way. Join keys read values, never codes
/// (`Demand`), so both sides compare in one domain.
fn sorted_inputs(
    build: &CheckedNode,
    probe: &CheckedNode,
    bkeys: &[Arc<ExprCode>],
    pkeys: &[Arc<ExprCode>],
    reg: &PrimitiveRegistry,
) -> Result<String, String> {
    let ([b], [p]) = (bkeys, pkeys) else {
        return Err(format!("{} keys; a merge join walks one", bkeys.len()));
    };
    let ty = b.result_type();
    if !ty.is_integer() {
        return Err(format!("the key is {ty}, not an integer"));
    }
    let mut names = Vec::with_capacity(2);
    for (side, node, prog) in [("build", build, b), ("probe", probe, p)] {
        let name = prog.as_col_ref().map_or_else(
            || "computed".to_owned(),
            |c| format!("`{}`", node.fields[c].name),
        );
        if !facts::eval_prog(prog, &node.facts.cols, reg).sorted {
            return Err(format!("the {side} key {name} is not proven sorted"));
        }
        names.push(name);
    }
    Ok(format!(
        "keys {} and {} proven sorted → merge join",
        names[0], names[1]
    ))
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

/// The table a `Fetch1Join` plan node fetches from.
fn fetch_table(f: &Plan) -> &str {
    match f {
        Plan::Fetch1Join { table, .. } => table,
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

/// The input columns a program reads.
fn program_columns(p: &ExprCode) -> impl Iterator<Item = usize> + '_ {
    let operands = p.instr_list().iter().flat_map(|(i, _)| col_operands(i).1);
    (operands.chain([p.result_src()])).filter_map(|s| match s {
        Src::Col(c) => Some(usize::from(c)),
        Src::Reg(_) => None,
    })
}

/// Mark in `d` the input columns `progs` read (a nested-loop join's
/// predicate also reads the columns it adds, past the end of `d`).
fn mark_read<'a>(d: &mut [bool], progs: impl IntoIterator<Item = &'a Arc<ExprCode>>) {
    for c in progs.into_iter().flat_map(|p| program_columns(p)) {
        if let Some(r) = d.get_mut(c) {
            *r = true;
        }
    }
}

/// [`PlanFacts::unread_gathers`] below `node`, whose consumers read its
/// columns `read`.
fn unread_below(node: &CheckedNode, read: Vec<bool>, out: &mut Vec<String>) {
    let mut unread = |i: usize| out.push(format!("{}: {}", node.path, node.fields[i].name));
    match &node.op {
        CheckedOp::Scan(_) => {
            let idle = read.len() == 1 && !read[0];
            let skipped = (0..read.len()).filter(|&i| !read[i]);
            skipped.filter(|_| !idle).for_each(&mut unread);
            return;
        }
        CheckedOp::Array { .. } => return,
        CheckedOp::HashJoin(parts) | CheckedOp::MergeJoin(parts) => {
            let [build, probe] = &node.inputs[..] else {
                unreachable!("a join has a build and a probe input")
            };
            let mut b = vec![false; build.fields.len()];
            mark_read(&mut b, &parts.build_keys);
            for &c in &parts.payload_cols {
                b[c] = true;
            }
            unread_below(build, b, out);
            let mut d = read[..probe.fields.len()].to_vec();
            mark_read(&mut d, &parts.probe_keys);
            unread_below(probe, d, out);
            return;
        }
        CheckedOp::Fetch1Join { cols, .. } => {
            let m = node.inputs[0].fields.len();
            let stored = cols.iter().enumerate();
            let stored = stored.filter(|(_, c)| matches!(c.src, FetchSource::Column(_)));
            stored
                .map(|(k, _)| m + k)
                .filter(|&i| !read[i])
                .for_each(&mut unread);
        }
        _ => {}
    }
    let input = &node.inputs[0];
    let m = input.fields.len();
    // Operators that pass their input's columns on, and those that
    // emit columns of their own.
    let mut d = match &node.op {
        CheckedOp::Project { .. }
        | CheckedOp::HashAggr { .. }
        | CheckedOp::DirectAggr { .. }
        | CheckedOp::OrdAggr { .. } => vec![false; m],
        _ => read[..m].to_vec(),
    };
    mark_read(&mut d, node.op.programs());
    match &node.op {
        CheckedOp::Sort { keys, .. } => keys.iter().for_each(|&(k, _)| d[k] = true),
        CheckedOp::DirectAggr { keys, .. } => keys.iter().for_each(|k| d[k.col] = true),
        _ => {}
    }
    unread_below(input, d, out);
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
