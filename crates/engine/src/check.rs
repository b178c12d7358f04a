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
//! variant (direct / hash aggregation, fused compressed scan-select,
//! constant-folded selection, unchecked fetch), compiles every expression
//! exactly once, validates each emitted primitive instruction against the
//! typed catalog ([`x100_vector::PrimitiveRegistry`]) and threads the
//! facts analyzer ([`crate::facts`]) through the same pass.
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
//!    position-dependent scatter running under a selection); see
//!    [`verify_program`].
//! 3. **Undecoded enum columns**
//!    ([`CheckViolation::UndecodedEnumColumn`]) — a dictionary-code
//!    column used as an arithmetic or cast operand without the
//!    sanctioned `Fetch1Join(ENUM)` decode. Bare code references,
//!    equality predicates (rewritten to code comparisons), and group-by
//!    keys are fine; doing *math* on codes is always a bug.
//! 4. **Unknown signatures** ([`CheckViolation::UnknownSignature`]) — a
//!    compiled instruction whose signature the registry has never heard
//!    of, including instances the interpreter cannot dispatch (a
//!    `map_eq_u64_col_col` projection would panic in kernel dispatch;
//!    here it is rejected before execution).
//!
//! [`explain_check`] renders the walk for humans.

use crate::batch::OutField;
use crate::compile::{CheckViolation, ExprCode, ExprProg, Instr, Src};
use crate::expr::{AggExpr, AggFunc, Expr};
use crate::facts::{self, ColFact, FactRange, NodeFacts};
use crate::ops::{
    fused_signature, has_unchecked_twin, AggSpec, DirectAggrOp, DirectKey, FetchSpec, JoinParts,
    JoinType, MergeSpec, PredStep, ScanCol, ScanSpec, SortOrder,
};
use crate::plan::{self, DirectKeySpec, Plan};
use crate::session::{Database, ExecOptions};
use crate::PlanError;
use std::collections::BTreeSet;
use std::sync::{Arc, OnceLock};
use x100_storage::{EnumDict, Table};
use x100_vector::{CmpOp, PrimitiveDesc, PrimitiveRegistry, ScalarType, Value, VecShape};

/// A predicate conjunct over verified (shared, register-free) programs.
type SelStep = PredStep<Arc<ExprCode>>;

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
    opts_key: [bool; 5],
}

/// The options that shape the checked tree.
fn opts_key(opts: &ExecOptions) -> [bool; 5] {
    [
        opts.compound_primitives,
        opts.compressed_pushdown,
        opts.unchecked_fetch,
        opts.enforce_facts,
        opts.spill_budget.is_some(),
    ]
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
    /// one otherwise.
    pub(crate) inputs: Vec<CheckedNode>,
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
        merge: MergeSpec,
    },
    OrdAggr {
        keys: Vec<Arc<ExprCode>>,
        aggs: Vec<AggSpec>,
    },
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
            CheckedOp::Fetch1Join { rowid, .. } => vec![rowid],
            CheckedOp::FetchNJoin { lo, cnt, .. } => vec![lo, cnt],
            CheckedOp::HashJoin(parts) => {
                parts.build_keys.iter().chain(&parts.probe_keys).collect()
            }
            CheckedOp::Scan(_) | CheckedOp::Sort { .. } | CheckedOp::Array { .. } => Vec::new(),
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
    pub fn inputs(&self) -> &[CheckedNode] {
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
    let mut c = Checker {
        db,
        opts,
        reg: registry(),
        nodes: 0,
        instrs: 0,
        report: Vec::new(),
        verified: BTreeSet::new(),
    };
    let root = c.walk(plan, "root")?;
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
/// dense-only position-dependent primitives (scatters, Bloom inserts,
/// sort permutations, hash-table maintenance — `consumes_sel == false`
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
                CheckViolation::FactViolation { .. } => "fact-violation",
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
    nodes: usize,
    instrs: usize,
    report: Vec<String>,
    verified: BTreeSet<&'static str>,
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

/// Resolve `table.col`, as every fetching operator reports a miss.
fn fetch_column(t: &Table, col: &str) -> Result<usize, PlanError> {
    t.column_index(col)
        .ok_or_else(|| PlanError::UnknownColumn(format!("{}.{}", t.name(), col)))
}

impl<'a> Checker<'a> {
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
    /// unwrapped).
    fn compile_as_at(
        &mut self,
        e: &Expr,
        fields: &[OutField],
        path: &str,
        target: impl FnOnce(ScalarType) -> Result<ScalarType, PlanError>,
    ) -> Result<Arc<ExprCode>, PlanError> {
        ExprProg::compile_as(e, fields, self.opts.compound_primitives, target).map_err(|err| {
            match err {
                PlanError::TypeMismatch(detail) => PlanError::PlanCheck {
                    path: path.to_owned(),
                    violation: CheckViolation::TypeMismatch {
                        signature: format!("{e:?}"),
                        detail,
                    },
                },
                other => other,
            }
        })
    }

    /// Compile `e` as is ([`Self::compile_as_at`]), then
    /// [`Self::verify_prog`] it.
    fn compile_verified(
        &mut self,
        e: &Expr,
        fields: &[OutField],
        dicts: &[Option<Arc<EnumDict>>],
        path: &str,
    ) -> Result<Arc<ExprCode>, PlanError> {
        let prog = self.compile_as_at(e, fields, path, Ok)?;
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
            let ipath = format!("{path}.instr[{i}]");
            let desc = self.require_instr(sig, || ipath.clone())?;
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
                            path: ipath,
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
                                path: ipath,
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
        let mut steps = Vec::new();
        self.select_steps(pred, fields, dicts, path, &mut steps)?;
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
                let prog = self.compile_as_at(other, fields, path, Ok)?;
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
                let prog = self.compile_as_at(e, fields, path, |t| {
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
    /// gather specs, appending output fields, dictionaries and facts.
    /// `proved` (a fetch-bounds proof against `t`) switches eligible
    /// columns to the `_unchecked` gather twins.
    fn fetch_specs(
        &mut self,
        t: &Table,
        fetch: &[(String, String)],
        as_codes: bool,
        proved: bool,
        path: &str,
        node: &mut NodeShape,
    ) -> Result<Vec<FetchSpec>, PlanError> {
        let mut specs = Vec::with_capacity(fetch.len());
        for (i, (src, alias)) in fetch.iter().enumerate() {
            let ci = fetch_column(t, src)?;
            let sc = t.column(ci);
            let (ty, dict) = if as_codes {
                let Some(dict) = sc.dict() else {
                    return Err(PlanError::PlanCheck {
                        path: format!("{path}[{i}]"),
                        violation: CheckViolation::TypeMismatch {
                            signature: format!("map_fetch_u32_col_{}_col", src),
                            detail: format!(
                                "code fetch of `{src}` requires an enum dictionary column"
                            ),
                        },
                    });
                };
                (sc.physical_type(), Some(Arc::new(dict.clone())))
            } else {
                (sc.field().logical, None)
            };
            let unchecked = proved
                && self.opts.unchecked_fetch
                && (as_codes || sc.dict().is_none())
                && has_unchecked_twin(sc.physical());
            let sig = format!(
                "map_fetch_u32_col_{}_col{}",
                ty.sig_name(),
                if unchecked { "_unchecked" } else { "" }
            );
            self.require(&sig, || format!("{path}[{i}]"))?;
            specs.push(FetchSpec {
                col: ci,
                sig,
                as_codes,
                unchecked,
            });
            node.fields.push(OutField::new(alias.clone(), ty));
            node.dicts.push(dict);
            let mut f = facts::source_col_fact(t, ci, as_codes);
            f.sorted = false; // gather order follows the rowids
            node.cols.push(f);
        }
        Ok(specs)
    }

    /// Walk one plan node: check its inputs, then plan and verify the
    /// node itself.
    fn walk(&mut self, plan: &Plan, path: &str) -> Result<CheckedNode, PlanError> {
        match plan {
            Plan::Scan {
                table,
                cols,
                code_cols,
                prune,
            } => {
                let t = self.db.table(table)?;
                let mut node = NodeShape::default();
                let mut scan_cols = Vec::new();
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
                    let as_codes = code_cols.contains(name);
                    let (kind, ty) = match (sc.dict(), as_codes) {
                        (None, _) => (ScanCol::Plain, sc.field().logical),
                        (Some(_), true) => (ScanCol::Codes, sc.physical_type()),
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
                    node.dicts
                        .push(sc.dict().filter(|_| as_codes).cloned().map(Arc::new));
                    node.fields.push(OutField::new(name.clone(), ty));
                    node.cols.push(facts::source_col_fact(&t, ci, as_codes));
                }
                // Raw codes cannot be served from the (logical-value)
                // insert delta: reject here rather than panic mid-scan.
                if t.delta_rows() > 0 {
                    if let Some(name) = cols
                        .iter()
                        .find(|c| code_cols.contains(c) && t.column_by_name(c).dict().is_some())
                    {
                        return Err(PlanError::Invalid(format!(
                            "raw-code scan of column `{name}` with pending insert deltas; reorganize first"
                        )));
                    }
                }
                let spec = ScanSpec {
                    range: plan::scan_prune_range(&t, prune.as_ref())?,
                    cols: scan_cols,
                    push: None,
                    bm: self.db.buffer_manager(),
                    table: t.clone(),
                };
                self.note(path, format!("Scan `{table}` → {} cols", cols.len()));
                Ok(node.finish(
                    path,
                    u64::try_from(t.total_rows()).ok(),
                    Vec::new(),
                    CheckedOp::Scan(spec),
                ))
            }
            Plan::Select { input, pred } => {
                let mut input_node = self.walk(input, &format!("{path}.Select.input"))?;
                let (fields, dicts) = (input_node.fields.clone(), input_node.dicts.clone());
                let full = plan::rewrite_enum_literals(pred, &fields, &dicts);
                // Compression-aware fusion: Select over a Scan of a
                // checkpoint-compressed column pushes (part of) the
                // predicate into encoded space — the scan refill becomes
                // a `CompressedScanSelect` and only surviving positions
                // are decoded; remaining conjuncts stay a normal Select.
                // The encoded-space comparison and the selective decode
                // it triggers must both be cataloged primitives.
                let fused = match (input.as_ref(), &input_node.op) {
                    (
                        Plan::Scan {
                            cols, code_cols, ..
                        },
                        CheckedOp::Scan(spec),
                    ) => plan::fuse_scan_select(&spec.table, cols, code_cols, pred, self.opts).map(
                        |f| {
                            // Co-columns materialize lazily: each
                            // compressed column with a positional decode
                            // kernel will call it.
                            let decode_sels: Vec<(usize, &'static str)> = spec
                                .cols
                                .iter()
                                .enumerate()
                                .filter_map(|(k, (ci, _))| {
                                    let cc = spec.table.column(*ci).compressed()?;
                                    Some((k, cc.decode_sel_sig()?))
                                })
                                .collect();
                            (f, decode_sels)
                        },
                    ),
                    _ => None,
                };
                let (steps, push, mut truths, what) = match fused {
                    Some((f, decode_sels)) => {
                        self.require_instr(f.push.sig(), || {
                            format!("{path}.Select.pushdown[{}]", f.col)
                        })?;
                        for (k, sig) in decode_sels {
                            self.require_instr(sig, || {
                                format!("{path}.Select.decode_sel[{}]", fields[k].name)
                            })?;
                        }
                        let steps = match &f.residual {
                            None => Vec::new(),
                            Some(res) => {
                                let res = plan::rewrite_enum_literals(res, &fields, &dicts);
                                self.check_select(
                                    &res,
                                    &fields,
                                    &dicts,
                                    &format!("{path}.Select.residual"),
                                )?
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
                        let steps = self.check_select(
                            &full,
                            &fields,
                            &dicts,
                            &format!("{path}.Select.pred"),
                        )?;
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
                    inputs: vec![input_node],
                    op: CheckedOp::Select { steps, verdict },
                })
            }
            Plan::Project { input, exprs } => {
                let input = self.walk(input, &format!("{path}.Project.input"))?;
                let mut node = NodeShape::default();
                let mut progs = Vec::with_capacity(exprs.len());
                for (i, (name, e)) in exprs.iter().enumerate() {
                    let e = plan::rewrite_enum_literals(e, &input.fields, &input.dicts);
                    let epath = format!("{path}.Project.expr[{i}]");
                    let prog = self.compile_verified(&e, &input.fields, &input.dicts, &epath)?;
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
            Plan::Aggr { input, keys, aggs } => {
                let input = self.walk(input, &format!("{path}.Aggr.input"))?;
                // The physical choice: direct aggregation iff *every* key
                // is a bare reference to a dictionary code column.
                let direct: Option<Vec<DirectKeySpec>> = keys
                    .iter()
                    .map(|(name, e)| match e {
                        Expr::Col(c) => {
                            let i = input.fields.iter().position(|f| &f.name == c)?;
                            input.dicts[i].as_ref().map(|_| DirectKeySpec {
                                name: name.clone(),
                                col: c.clone(),
                            })
                        }
                        _ => None,
                    })
                    .collect();
                match direct {
                    Some(dkeys) if !dkeys.is_empty() => {
                        self.check_direct(input, &dkeys, aggs, path)
                    }
                    _ => self.check_hash_aggr(input, keys, aggs, path),
                }
            }
            Plan::DirectAggr { input, keys, aggs } => {
                let input = self.walk(input, &format!("{path}.DirectAggr.input"))?;
                self.check_direct(input, keys, aggs, path)
            }
            Plan::OrdAggr { input, keys, aggs } => {
                let input = self.walk(input, &format!("{path}.OrdAggr.input"))?;
                let mut node = NodeShape::default();
                let mut key_progs = Vec::with_capacity(keys.len());
                for (i, (name, e)) in keys.iter().enumerate() {
                    let kpath = format!("{path}.OrdAggr.key[{i}]");
                    let prog = self.compile_verified(e, &input.fields, &input.dicts, &kpath)?;
                    // Ordered aggregation emits groups in input key
                    // order, so a sorted input key stays sorted.
                    node.cols
                        .push(facts::eval_prog(&prog, &input.facts.cols, self.reg));
                    node.fields
                        .push(OutField::new(name.clone(), prog.result_type()));
                    key_progs.push(prog);
                }
                self.require("aggr_ordered_boundaries", || format!("{path}.OrdAggr"))?;
                let aggs = self.check_aggs(
                    aggs,
                    &input,
                    "OrdAggr",
                    path,
                    &mut node.fields,
                    &mut node.cols,
                )?;
                self.note(
                    path,
                    format!("OrdAggr → {} keys, {} aggs", keys.len(), aggs.len()),
                );
                node.dicts = vec![None; node.fields.len()];
                let rows_max = input.facts.rows_max;
                Ok(node.finish(
                    path,
                    rows_max,
                    vec![input],
                    CheckedOp::OrdAggr {
                        keys: key_progs,
                        aggs,
                    },
                ))
            }
            Plan::Fetch1Join {
                input,
                table,
                rowid,
                fetch,
                fetch_codes,
            } => {
                let input = self.walk(input, &format!("{path}.Fetch1Join.input"))?;
                let t = self.db.table(table)?;
                let rpath = format!("{path}.Fetch1Join.rowid");
                // A join index is u32; an enum code column widens to it
                // — that cast IS the sanctioned decode, so the
                // enum-escape rule does not apply to the rowid program.
                let mut natural = ScalarType::U32;
                let rowid = self.compile_as_at(rowid, &input.fields, &rpath, |ty| match ty {
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
                // Fetch-bounds proof: the `_unchecked` gather twins read
                // only the contiguous fragment arrays, so the proof
                // obligation is `#rowId ⊆ [0, fragment_rows)` (delta rows
                // would be out of bounds for the raw-slice kernels). The
                // proof is only attempted for true u32 join indexes; enum
                // code rowids decode against the dictionary instead.
                let rid_range = if natural == ScalarType::U32 {
                    facts::eval_prog(&rowid, &input.facts.cols, self.reg)
                        .range
                        .and_then(|r| r.as_int())
                } else {
                    None
                };
                let frag = t.fragment_rows() as u64;
                let total = t.total_rows() as u64;
                let proved = rid_range
                    .is_some_and(|(lo, hi)| lo >= 0 && u64::try_from(hi).is_ok_and(|h| h < frag));
                if self.opts.enforce_facts && input.facts.rows_max != Some(0) {
                    if let Some((lo, _)) = rid_range {
                        if u64::try_from(lo).is_ok_and(|l| l >= total) {
                            return Err(PlanError::PlanCheck {
                                path: rpath,
                                violation: CheckViolation::FactViolation {
                                    detail: format!(
                                        "every #rowId is proven >= {total}, but table \
                                         `{table}` has only {total} rows: the fetch is \
                                         certainly out of bounds"
                                    ),
                                },
                            });
                        }
                    }
                }
                let mut node = NodeShape::from_input(&input);
                let mut cols = self.fetch_specs(
                    &t,
                    fetch,
                    false,
                    proved,
                    &format!("{path}.Fetch1Join.fetch"),
                    &mut node,
                )?;
                self.instrs += cols.len();
                cols.extend(self.fetch_specs(
                    &t,
                    fetch_codes,
                    true,
                    proved,
                    &format!("{path}.Fetch1Join.fetch_codes"),
                    &mut node,
                )?);
                if !fetch_codes.is_empty() && (t.delta_rows() > 0 || !t.deletes().is_empty()) {
                    return Err(PlanError::Invalid(format!(
                        "code fetch from `{table}` requires a reorganized table"
                    )));
                }
                self.note(
                    path,
                    format!(
                        "Fetch1Join `{table}` → +{} fetched, +{} code cols",
                        fetch.len(),
                        fetch_codes.len()
                    ),
                );
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
            Plan::FetchNJoin {
                input,
                table,
                lo,
                cnt,
                fetch,
            } => {
                let input = self.walk(input, &format!("{path}.FetchNJoin.input"))?;
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
                // Fetch-bounds proof: every gathered position is
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
                let cols = self.fetch_specs(
                    &t,
                    fetch,
                    false,
                    proved,
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
                let input = self.walk(input, &format!("{path}.CartProd.input"))?;
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
                let input = self.walk(input, &format!("{path}.Join.input"))?;
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
                let build = self.walk(build, &format!("{path}.HashJoin.build"))?;
                let probe = self.walk(probe, &format!("{path}.HashJoin.probe"))?;
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
                // The build and probe loops: key hashing, the Bloom
                // prepass, and the radix scatter into partition order.
                let jpath = format!("{path}.HashJoin");
                self.require_hash(bprogs.iter().map(|p| p.result_type()), &jpath)?;
                for sig in [
                    "bloom_insert_u64_col",
                    "bloom_test_u64_col",
                    "map_radix_partition_u64_col",
                    "radix_scatter_positions",
                    "map_scatter_u32_col_u32_col",
                ] {
                    self.require(sig, || jpath.clone())?;
                }
                // The partition reorder gathers every stored column; its
                // kernel is total over vector types, so types outside the
                // fetch catalog are legal here.
                for ty in bprogs
                    .iter()
                    .map(|p| p.result_type())
                    .chain(payload_fields.iter().map(|f| f.ty))
                {
                    if let Some(d) = self.reg.get(&format!("map_fetch_u32_col_{ty}_col")) {
                        self.verified.insert(d.signature);
                    }
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
                    // Bloom sizing feedback: a probe side that dwarfs the
                    // build justifies more filter bits per build key.
                    probe_rows_hint: plan::probe_rows_estimate(&probe),
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
                let input = self.walk(input, &format!("{path}.{kind}.input"))?;
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
                        // Row-major enumeration: the outermost dimension
                        // is non-decreasing.
                        sorted: i == 0,
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
        if !t.deletes().is_empty() {
            return Err(PlanError::Invalid(
                "CartProd over a table with pending deletes; reorganize first".to_owned(),
            ));
        }
        Ok(CheckedNode {
            path: path.to_owned(),
            fields: node.fields,
            dicts: node.dicts,
            facts: nf,
            inputs: vec![input],
            op: CheckedOp::CartProd {
                table: t,
                fetch_cols,
                steps,
            },
        })
    }

    /// Hash aggregation: mixed / non-code keys. Code-typed keys still
    /// group on codes and decode only at emission.
    fn check_hash_aggr(
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
                None => {
                    let mut kf = facts::eval_prog(&prog, &input.facts.cols, self.reg);
                    kf.sorted = false; // hash order is arbitrary
                    kf
                }
            };
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
        let specs =
            self.check_aggs(aggs, &input, "Aggr", path, &mut node.fields, &mut node.cols)?;
        let apath = format!("{path}.Aggr");
        self.check_spill_capable("aggr_hashtable_maintain", "HashAggr", &apath)?;
        let key_types: Vec<ScalarType> = key_progs.iter().map(|p| p.result_type()).collect();
        self.require_hash(key_types.iter().copied(), &apath)?;
        let rows_max = match (input.facts.rows_max, key_distinct) {
            (Some(r), Some(k)) => Some(r.min(k)),
            (r, k) => r.or(k),
        };
        self.note(
            path,
            format!("HashAggr → {} keys, {} aggs", keys.len(), aggs.len()),
        );
        node.dicts = vec![None; node.fields.len()];
        let merge = MergeSpec {
            fields: node.fields.clone(),
            key_types,
            key_dicts,
            aggs: specs.iter().map(|a| a.merge_rule()).collect(),
            ungrouped: keys.is_empty(),
        };
        Ok(node.finish(
            path,
            rows_max,
            vec![input],
            CheckedOp::HashAggr {
                keys: key_progs,
                aggs: specs,
                merge,
            },
        ))
    }

    /// Direct (array-indexed) aggregation: keys must be code columns
    /// (dictionary or raw u8/u16) whose domain product stays small.
    fn check_direct(
        &mut self,
        input: CheckedNode,
        keys: &[DirectKeySpec],
        aggs: &[AggExpr],
        path: &str,
    ) -> Result<CheckedNode, PlanError> {
        let mut node = NodeShape::default();
        let mut dkeys = Vec::with_capacity(keys.len());
        let mut key_types = Vec::with_capacity(keys.len());
        // The direct-group table has one slot per code combination, so
        // the group count is bounded by the product of the key domains.
        let mut slots = 1usize;
        for (ki, k) in keys.iter().enumerate() {
            let i = input
                .fields
                .iter()
                .position(|f| f.name == k.col)
                .ok_or_else(|| PlanError::UnknownColumn(k.col.clone()))?;
            let ty = input.fields[i].ty;
            let dict = input.dicts[i].clone();
            let (card, out_ty, fact) = match (&dict, ty) {
                (Some(d), _) => (
                    d.cardinality() as u32,
                    d.value_type(),
                    ColFact {
                        distinct_max: Some(d.cardinality() as u64),
                        ..ColFact::top()
                    },
                ),
                (None, ScalarType::U8 | ScalarType::U16) => {
                    let mut kf = input
                        .facts
                        .cols
                        .get(i)
                        .cloned()
                        .unwrap_or_else(ColFact::top);
                    kf.sorted = false;
                    (
                        if ty == ScalarType::U8 {
                            1 << 8
                        } else {
                            1 << 16
                        },
                        ty,
                        kf,
                    )
                }
                (None, ty) => {
                    return Err(PlanError::PlanCheck {
                        path: format!("{path}.DirectAggr.key[{}]", k.col),
                        violation: CheckViolation::TypeMismatch {
                            signature: "map_directgrp_u8_col".to_owned(),
                            detail: format!(
                                "direct aggregation key `{}` is {ty}, not a code column",
                                k.col
                            ),
                        },
                    })
                }
            };
            // Mixed-radix code chaining: the first key starts the group
            // id, each further key extends it.
            let sig = match ki {
                0 => format!("map_uidx_{}_col", ty.sig_name()),
                _ => format!("map_directgrp_uidx_col_{}_col", ty.sig_name()),
            };
            self.require(&sig, || format!("{path}.DirectAggr.key[{}]", k.col))?;
            slots = slots.saturating_mul(card as usize);
            node.fields.push(OutField::new(k.name.clone(), out_ty));
            node.cols.push(fact);
            key_types.push(ty);
            dkeys.push(DirectKey {
                name: k.name.clone(),
                col: i,
                card,
                dict: dict.as_deref().cloned(),
            });
        }
        let specs = self.check_aggs(
            aggs,
            &input,
            "DirectAggr",
            path,
            &mut node.fields,
            &mut node.cols,
        )?;
        // The parallel merge stage re-groups the key codes by hash.
        self.require_hash(key_types.iter().copied(), &format!("{path}.DirectAggr"))?;
        if slots > DirectAggrOp::MAX_SLOTS {
            return Err(PlanError::Invalid(format!(
                "direct aggregation domain too large: {slots} slots"
            )));
        }
        let rows_max = Some(
            input
                .facts
                .rows_max
                .map_or(slots as u64, |r| r.min(slots as u64)),
        );
        self.note(
            path,
            format!("DirectAggr → {} keys, {} aggs", keys.len(), aggs.len()),
        );
        node.dicts = vec![None; node.fields.len()];
        let merge = MergeSpec {
            fields: node.fields.clone(),
            key_types,
            key_dicts: dkeys.iter().map(|k| k.dict.clone()).collect(),
            aggs: specs.iter().map(|a| a.merge_rule()).collect(),
            ungrouped: keys.is_empty(),
        };
        Ok(node.finish(
            path,
            rows_max,
            vec![input],
            CheckedOp::DirectAggr {
                keys: dkeys,
                aggs: specs,
                merge,
            },
        ))
    }
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
            inputs,
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
