//! Sessions: the catalog, execution options, and result materialization.

use crate::batch::OutField;
use crate::govern::{CancelToken, QueryContext};
use crate::ops::Operator;
use crate::plan::Plan;
use crate::profile::Profiler;
use crate::PlanError;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use x100_storage::{ColumnBM, FaultPlan, Table};
use x100_vector::fetch::gather_rows;
use x100_vector::{Value, Vector, DEFAULT_VECTOR_SIZE};

/// Default morsel size for parallel scans: large enough to amortize
/// per-morsel dispatch, small enough to balance skewed selections.
pub const DEFAULT_MORSEL_SIZE: usize = 64 * 1024;

/// Execution options of one query run.
#[derive(Debug, Clone)]
pub struct ExecOptions {
    /// Values per vector (paper default 1024; Fig. 10 sweeps this).
    pub vector_size: usize,
    /// Enable per-primitive / per-operator tracing (Table 5).
    pub profile: bool,
    /// Worker threads for morsel-driven parallel execution. With `> 1`
    /// the check walk places an `Exchange` over every hash or direct
    /// aggregation, at any depth, whose input is a
    /// `Select`/`Project`/`Fetch1Join`/`FetchNJoin`/`HashJoin`-probe
    /// chain over a scan of more than one morsel; up to `threads`
    /// workers each aggregate a share of the morsels and `MergeAggr`
    /// combines them ([`crate::ops::ExchangeOp`]). Aggregations whose
    /// keys are proven sorted stream on one thread. `1` (the default)
    /// is the same tree without an `Exchange`.
    pub threads: usize,
    /// Rows per morsel for parallel scans (`0` = one morsel per whole
    /// fragment range / delta). A scan of one morsel gets no
    /// `Exchange`. Ignored when `threads == 1`.
    pub morsel_size: usize,
    /// Byte budget for governed operator state (hash-join builds,
    /// aggregation tables, Order/TopN buffers). Exceeding it aborts the
    /// query with [`PlanError::ResourceExhausted`]. `None` = unbounded.
    pub mem_budget: Option<usize>,
    /// Byte budget for on-disk spill runs. `Some` arms graceful
    /// degradation: when a [`MemTracker`] probe would overflow
    /// `mem_budget`, aggregation and Order/TopN spill compressed runs
    /// to a per-query temp directory instead of aborting, and only
    /// exhausting *this* budget too raises
    /// [`PlanError::ResourceExhausted`]. `None` keeps the PR 3 hard
    /// abort.
    pub spill_budget: Option<usize>,
    /// Wall-clock budget; converted to a deadline when execution
    /// starts. Expiry aborts with [`PlanError::DeadlineExceeded`].
    pub timeout: Option<Duration>,
    /// External cancellation token; triggering it aborts the query with
    /// [`PlanError::Cancelled`] at the next per-vector check.
    pub cancel: Option<CancelToken>,
    /// Fault injection plan: a rate per [`x100_storage::FaultSite`],
    /// from chunk, delta, dictionary and compressed reads to checkpoint,
    /// spill and durable-store I/O (active only with the `fault-inject`
    /// cargo feature).
    pub fault_plan: Option<FaultPlan>,
    /// Testing aid: deliberately panic inside the pipeline after this
    /// many governor checks (exercises worker-panic containment).
    pub panic_probe: Option<u64>,
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions {
            vector_size: DEFAULT_VECTOR_SIZE,
            profile: false,
            threads: 1,
            morsel_size: DEFAULT_MORSEL_SIZE,
            mem_budget: None,
            spill_budget: None,
            timeout: None,
            cancel: None,
            fault_plan: None,
            panic_probe: None,
        }
    }
}

impl ExecOptions {
    /// Options with a specific vector size.
    pub fn with_vector_size(vector_size: usize) -> Self {
        ExecOptions {
            vector_size,
            ..Default::default()
        }
    }

    /// Enable tracing.
    pub fn profiled(mut self) -> Self {
        self.profile = true;
        self
    }

    /// Use `threads` parallel workers.
    pub fn parallel(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Use `morsel_size`-row morsels for parallel scans.
    pub fn with_morsel_size(mut self, morsel_size: usize) -> Self {
        self.morsel_size = morsel_size;
        self
    }

    /// Cap governed operator memory at `bytes`.
    pub fn with_mem_budget(mut self, bytes: usize) -> Self {
        self.mem_budget = Some(bytes);
        self
    }

    /// Allow up to `bytes` of on-disk spill runs before a memory-budget
    /// overflow becomes fatal (graceful degradation; see
    /// [`ExecOptions::spill_budget`]).
    pub fn with_spill_budget(mut self, bytes: usize) -> Self {
        self.spill_budget = Some(bytes);
        self
    }

    /// Abort the query once `timeout` wall-clock time has elapsed.
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = Some(timeout);
        self
    }

    /// Attach an external cancellation token.
    pub fn with_cancel_token(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Inject faults at the storage sites `plan` names (needs the
    /// `fault-inject` cargo feature to actually fire).
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Testing aid: panic inside the pipeline after `checks` governor
    /// checkpoints (see [`ExecOptions::panic_probe`]).
    pub fn with_panic_probe(mut self, checks: u64) -> Self {
        self.panic_probe = Some(checks);
        self
    }

    /// Build the per-query governor context from these options.
    pub(crate) fn query_context(&self) -> Arc<QueryContext> {
        // A SIGKILLed process skips every Drop and leaves its spill
        // dirs behind; reclaim dead processes' dirs once per process,
        // before the first query can spill.
        static SPILL_GC: std::sync::Once = std::sync::Once::new();
        SPILL_GC.call_once(|| {
            crate::spill::gc_stale_spill_dirs();
        });
        Arc::new(QueryContext::new(
            self.mem_budget,
            self.spill_budget,
            self.timeout,
            self.cancel.clone(),
            self.fault_plan.clone(),
            self.panic_probe,
        ))
    }
}

/// The catalog: named tables plus an optional buffer manager.
#[derive(Debug)]
pub struct Database {
    tables: BTreeMap<String, Arc<Table>>,
    bm: Option<Arc<ColumnBM>>,
    /// Process-unique identity of this catalog and the number of changes
    /// made to it: what a checked plan records so it is only ever
    /// instantiated against the catalog state it was checked for.
    id: u64,
    version: u64,
}

impl Default for Database {
    fn default() -> Self {
        static NEXT_ID: AtomicU64 = AtomicU64::new(0);
        Database {
            tables: BTreeMap::new(),
            bm: None,
            id: NEXT_ID.fetch_add(1, Ordering::SeqCst),
            version: 0,
        }
    }
}

impl Database {
    /// An empty database.
    pub fn new() -> Self {
        Database::default()
    }

    /// `(identity, change count)` of this catalog.
    pub(crate) fn stamp(&self) -> (u64, u64) {
        (self.id, self.version)
    }

    /// Register a table under its own name.
    pub fn register(&mut self, table: Table) -> Arc<Table> {
        let arc = Arc::new(table);
        self.register_arc(arc.clone());
        arc
    }

    /// Register a pre-shared table.
    pub fn register_arc(&mut self, table: Arc<Table>) {
        self.version += 1;
        self.tables.insert(table.name().to_owned(), table);
    }

    /// Look up a table.
    pub fn table(&self, name: &str) -> Result<Arc<Table>, PlanError> {
        self.tables
            .get(name)
            .cloned()
            .ok_or_else(|| PlanError::Invalid(format!("unknown table `{name}`")))
    }

    /// Table names in the catalog.
    pub fn table_names(&self) -> impl Iterator<Item = &str> {
        self.tables.keys().map(|s| s.as_str())
    }

    /// Attach a (simulated) ColumnBM buffer manager; scans will account
    /// their accesses against it.
    pub fn attach_buffer_manager(&mut self, bm: Arc<ColumnBM>) {
        self.version += 1;
        self.bm = Some(bm);
    }

    /// The attached buffer manager, if any.
    pub fn buffer_manager(&self) -> Option<Arc<ColumnBM>> {
        self.bm.clone()
    }
}

/// A fully materialized query result (selection applied, columns
/// compacted).
#[derive(Debug)]
pub struct QueryResult {
    fields: Vec<OutField>,
    cols: Vec<Vector>,
    rows: usize,
}

impl QueryResult {
    /// Output schema.
    pub fn fields(&self) -> &[OutField] {
        &self.fields
    }

    /// Number of result rows.
    pub fn num_rows(&self) -> usize {
        self.rows
    }

    /// Column index by name.
    pub fn col_index(&self, name: &str) -> Option<usize> {
        self.fields.iter().position(|f| f.name == name)
    }

    /// A column by index.
    pub fn column(&self, i: usize) -> &Vector {
        &self.cols[i]
    }

    /// A column by name.
    ///
    /// # Panics
    /// Panics if absent.
    pub fn column_by_name(&self, name: &str) -> &Vector {
        let i = self
            .col_index(name)
            .unwrap_or_else(|| panic!("no result column `{name}`"));
        &self.cols[i]
    }

    /// One cell as a [`Value`].
    pub fn value(&self, row: usize, col: usize) -> Value {
        self.cols[col].get_value(row)
    }

    /// Render rows as strings (tests, display); floats use `{:.4}`.
    pub fn row_strings(&self) -> Vec<String> {
        (0..self.rows)
            .map(|r| {
                (0..self.cols.len())
                    .map(|c| self.value(r, c).to_string())
                    .collect::<Vec<_>>()
                    .join("|")
            })
            .collect()
    }

    /// Render a readable table.
    pub fn to_table_string(&self) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        writeln!(
            s,
            "{}",
            self.fields
                .iter()
                .map(|f| f.name.clone())
                .collect::<Vec<_>>()
                .join(" | ")
        )
        .expect("write to String");
        for row in self.row_strings() {
            writeln!(s, "{}", row.replace('|', " | ")).expect("write to String");
        }
        s
    }
}

/// Execute a plan to completion, materializing the result.
///
/// With `opts.threads > 1`, the checked tree runs its aggregations over
/// morsel spines on that many workers ([`crate::ops::ExchangeOp`]).
pub fn execute(
    db: &Database,
    plan: &Plan,
    opts: &ExecOptions,
) -> Result<(QueryResult, Profiler), PlanError> {
    // Static verification gate: every plan is checked against the
    // primitive catalog before any operator is constructed, and the
    // operators are instantiated from the tree that check returns.
    run_checked(crate::check::check_plan(db, plan, opts)?.facts, opts)
}

/// [`execute`] with the plan run as written, no rewrite rule applied:
/// the reference side of the rewritten-vs-as-given differential test.
#[doc(hidden)]
pub fn execute_as_given(
    db: &Database,
    plan: &Plan,
    opts: &ExecOptions,
) -> Result<(QueryResult, Profiler), PlanError> {
    run_checked(
        crate::check::check_plan_as_given(db, plan, opts)?.facts,
        opts,
    )
}

/// Run a tree the check walk returned for `opts`.
fn run_checked(
    checked: crate::check::PlanFacts,
    opts: &ExecOptions,
) -> Result<(QueryResult, Profiler), PlanError> {
    let ctx = opts.query_context();
    let mut op = checked.root().instantiate(opts, None, None, &ctx)?;
    // The operators share what they need of the tree; free the rest
    // before the run allocates.
    drop(checked);
    let mut prof = Profiler::new(opts.profile);
    let result = run_operator(op.as_mut(), &mut prof)?;
    ctx.publish(&mut prof);
    Ok((result, prof))
}

/// Drain an operator into a compacted [`QueryResult`].
pub fn run_operator(op: &mut dyn Operator, prof: &mut Profiler) -> Result<QueryResult, PlanError> {
    let fields = op.fields().to_vec();
    let mut cols: Vec<Vector> = fields
        .iter()
        .map(|f| Vector::with_capacity(f.ty, 0))
        .collect();
    let mut rows = 0usize;
    while let Some(batch) = op.next(prof)? {
        match batch.sel.as_deref() {
            None => {
                for (dst, src) in cols.iter_mut().zip(batch.columns.iter()) {
                    dst.append_range(src, 0, batch.len);
                }
                rows += batch.len;
            }
            Some(sel) => {
                for (dst, src) in cols.iter_mut().zip(batch.columns.iter()) {
                    let mut live = Vector::with_capacity(src.scalar_type(), sel.len());
                    assert!(gather_rows(&mut live, src, sel.positions(), None));
                    dst.append_range(&live, 0, sel.len());
                }
                rows += sel.len();
            }
        }
    }
    Ok(QueryResult { fields, cols, rows })
}
