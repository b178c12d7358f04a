//! Morsel-driven parallel execution (beyond the paper).
//!
//! The paper's engine is single-threaded; this module adds intra-query
//! parallelism for the most bandwidth-hungry plan shape — an
//! aggregation over a scan pipeline — without touching the sequential
//! path:
//!
//! 1. [`decompose`] splits the checked plan tree into *wrappers*
//!    (`Order` / `TopN` / `Project` / `Select` nodes above the
//!    aggregation) and the aggregation subtree (hash or direct
//!    aggregation over a
//!    `Select`/`Project`/`Fetch1Join`/`FetchNJoin`/`HashJoin`-probe
//!    chain ending in a `Scan`). Any other shape falls back to
//!    sequential execution. For each `HashJoin` on the chain the driver
//!    builds the join's table *once* on the main thread; every worker's
//!    [`crate::ops::HashJoinOp`] probes that one table, which it only
//!    reads (build once, probe many).
//! 2. The scan's row space — the (summary-pruned) fragment range plus
//!    the insert-delta tail — is cut into [`Morsel`]s. Worker `w` of
//!    `T` statically takes morsels `w, w+T, w+2T, …`: assignment does
//!    not depend on thread timing, so a given `(threads, morsel_size)`
//!    always aggregates the same rows in the same per-worker order.
//! 3. Each worker instantiates its *own* clone of the vector pipeline
//!    from the shared checked tree (the `Rc`-based batch machinery stays
//!    thread-local; the verified programs are shared, only their
//!    register files are per worker) over its morsels and materializes
//!    partial aggregation state ([`Operator::take_partial_aggr`]).
//! 4. [`MergeAggrOp`] re-aggregates the partials in worker order —
//!    sums/counts add, `min`/`max` fold, AVG divides merged sums by
//!    merged counts at emission — and the wrapper nodes are instantiated
//!    over it.
//!
//! Worker results merge in worker-index order, so output is
//! deterministic for a fixed `(threads, morsel_size)`. Floating-point
//! sums may differ from the sequential plan in the last ulp (different
//! association order); integer results are exact.

use crate::batch::{Batch, OutField, VecPool};
use crate::check::{CheckedNode, CheckedOp};
use crate::expr::AggFunc;
use crate::govern::{panic_cause, QueryContext};
use crate::ops::aggr::{
    emit_agg, emit_key, hash_keys, update_f64, update_i64, AggrPartial, MergeSpec, PartialAcc,
};
use crate::ops::{extend_range, JoinParts, JoinTable, Operator, ScanSpec};
use crate::plan::SharedJoins;
use crate::profile::Profiler;
use crate::session::{run_operator, ExecOptions, QueryResult};
use crate::PlanError;
use std::sync::Arc;
use std::time::Instant;
use x100_storage::{plan_morsels, Morsel};
use x100_vector::{aggr as vaggr, GroupTable, ProbeScratch, Vector};

/// The parallelizable shape of a checked plan.
struct Decomposed<'a> {
    /// Nodes above the aggregation, outermost first.
    wrappers: Vec<&'a CheckedNode>,
    /// The topmost hash / direct aggregation node and its merge recipe.
    aggr: &'a CheckedNode,
    merge: &'a MergeSpec,
    /// The leaf scan of the aggregation's probe spine.
    scan: &'a ScanSpec,
    /// `HashJoin` nodes on the spine, outermost first.
    joins: Vec<(&'a CheckedNode, &'a JoinParts)>,
}

/// Split the checked tree at its topmost hash / direct aggregation (or
/// ordered one that carries the hash variant's merge recipe for this);
/// `None` if the plan does not have the parallelizable shape.
fn decompose(root: &CheckedNode) -> Option<Decomposed<'_>> {
    let mut wrappers = Vec::new();
    let mut cur = root;
    let merge = loop {
        match &cur.op {
            CheckedOp::Sort { .. } | CheckedOp::Project { .. } | CheckedOp::Select { .. } => {
                wrappers.push(cur);
                cur = &cur.inputs[0];
            }
            CheckedOp::HashAggr { merge, .. }
            | CheckedOp::DirectAggr { merge, .. }
            | CheckedOp::OrdAggr {
                morsel: Some(merge),
                ..
            } => break merge,
            _ => return None,
        }
    };
    let (scan, joins) = morsel_spine(&cur.inputs[0])?;
    Some(Decomposed {
        wrappers,
        aggr: cur,
        merge,
        scan,
        joins,
    })
}

/// The pipeline a morsel worker can clone under an aggregation: a
/// `Select` / `Project` / `Fetch1Join` / `FetchNJoin` / `HashJoin`-probe
/// chain ending in a `Scan`. Returns that scan and the joins on the way
/// (outermost first), `None` for any other shape. The check walk asks
/// this too: an aggregation over anything else is never split here.
pub(crate) fn morsel_spine(
    mut leaf: &CheckedNode,
) -> Option<(&ScanSpec, Vec<(&CheckedNode, &JoinParts)>)> {
    let mut joins = Vec::new();
    loop {
        match &leaf.op {
            CheckedOp::Select { .. }
            | CheckedOp::Project { .. }
            | CheckedOp::Fetch1Join { .. }
            | CheckedOp::FetchNJoin { .. } => leaf = &leaf.inputs[0],
            CheckedOp::HashJoin(parts) => {
                // The morsel restriction follows the probe side; the
                // build side materializes once, shared across workers.
                joins.push((leaf, parts));
                leaf = &leaf.inputs[1];
            }
            CheckedOp::Scan(spec) => return Some((spec, joins)),
            _ => return None,
        }
    }
}

/// Execute the checked plan with `opts.threads` morsel-parallel workers,
/// if it has the supported shape. `Ok(None)` means "not parallelizable
/// here — run sequentially".
pub(crate) fn try_execute_parallel(
    root: &CheckedNode,
    opts: &ExecOptions,
    ctx: &Arc<QueryContext>,
) -> Result<Option<(QueryResult, Profiler)>, PlanError> {
    let Some(d) = decompose(root) else {
        return Ok(None);
    };
    let mut prof = Profiler::new(opts.profile);

    // Build once, probe many: materialize each hash-join build side on
    // the main thread; the workers' joins then probe the shared table.
    let mut shared = SharedJoins::new();
    for &(join, parts) in &d.joins {
        let mut b = join.inputs[0].instantiate(opts, None, None, ctx)?;
        let mut spec = parts.build_spec(opts.vector_size);
        let table = JoinTable::build(b.as_mut(), &mut spec, ctx, &mut prof)?;
        shared.insert(join.path(), Arc::new(table));
    }

    let t = &d.scan.table;
    let frag_range = d.scan.range.unwrap_or((0, t.fragment_rows()));
    let morsels = plan_morsels(frag_range, t.delta_rows(), opts.morsel_size);
    let nworkers = opts.threads.min(morsels.len()).max(1);

    let mut partials: Vec<AggrPartial> = Vec::with_capacity(nworkers);
    let (aggr, shared_ref) = (d.aggr, &shared);
    // Panic containment: each worker runs under `catch_unwind`; the
    // first panic (or governor error) cancels the shared context, so
    // sibling workers unwind cleanly at their next per-vector check.
    // Every worker is always joined before any error is reported.
    //
    // Temp-resource audit: the worker's operator tree lives entirely
    // inside the `catch_unwind` closure. On panic the unwind drops the
    // partially-built operator state — including any spill runs it
    // holds, whose `SpillFile` drops delete the on-disk file and refund
    // the disk budget — *before* the closure returns, i.e. before the
    // sibling join below. A successful worker moves its runs into the
    // returned `AggrPartial`, whose own drop (on a later sibling error)
    // cleans up the same way. Nothing here leaks temp files.
    let results = std::thread::scope(|s| {
        let handles: Vec<_> = (0..nworkers)
            .map(|w| {
                let assigned: Vec<Morsel> =
                    morsels.iter().copied().skip(w).step_by(nworkers).collect();
                s.spawn(move || {
                    let t0 = Instant::now();
                    let mut wprof = Profiler::new(opts.profile);
                    let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        aggr.instantiate(opts, Some(&assigned), Some(shared_ref), ctx)
                            .and_then(|mut op| op.take_partial_aggr(&mut wprof))
                    }));
                    let partial = match caught {
                        Ok(res) => res,
                        Err(payload) => Err(PlanError::WorkerPanic {
                            worker: w,
                            cause: panic_cause(payload.as_ref()),
                        }),
                    };
                    if partial.is_err() {
                        ctx.cancel();
                    }
                    (partial, wprof, t0.elapsed().as_nanos() as u64)
                })
            })
            .collect();
        handles
            .into_iter()
            .enumerate()
            .map(|(w, h)| {
                h.join().unwrap_or_else(|payload| {
                    // catch_unwind inside the worker makes this
                    // unreachable short of an abort, but stay typed.
                    (
                        Err(PlanError::WorkerPanic {
                            worker: w,
                            cause: panic_cause(payload.as_ref()),
                        }),
                        Profiler::new(false),
                        0,
                    )
                })
            })
            .collect::<Vec<_>>()
    });
    // Prefer the root-cause error: a sibling's `Cancelled` is a
    // side-effect of whichever worker failed first.
    let mut first_err: Option<PlanError> = None;
    for (w, (partial, wprof, wall)) in results.into_iter().enumerate() {
        match partial {
            Ok(Some(p)) => {
                if opts.profile {
                    prof.absorb_worker(format!("worker-{w}"), wall, wprof);
                }
                partials.push(p);
            }
            Ok(None) => {
                first_err.get_or_insert(PlanError::Invalid(
                    "parallel worker produced no partial aggregate".into(),
                ));
            }
            Err(e) => match &first_err {
                None => first_err = Some(e),
                Some(PlanError::Cancelled) if e != PlanError::Cancelled => first_err = Some(e),
                _ => {}
            },
        }
    }
    if let Some(e) = first_err {
        return Err(e);
    }

    // Merge stage, then the wrapper nodes over it, innermost first.
    let merge = MergeAggrOp::new(d.merge.clone(), partials, opts.vector_size, ctx.clone());
    let mut op: Box<dyn Operator> = Box::new(merge);
    for w in d.wrappers.into_iter().rev() {
        op = w.over(op, opts, ctx);
    }
    let result = run_operator(op.as_mut(), &mut prof)?;
    Ok(Some((result, prof)))
}

/// `MergeAggr` — re-aggregates worker partials into final groups.
///
/// A partial is a relation of (keys, count, accumulators) rows, so the
/// merge is an aggregation over it: the same [`GroupTable`] lookup as
/// `HashAggr` (raw codes for enum keys, decoded only at emission) and
/// the same update primitives on the accumulator columns — SUM/COUNT/AVG
/// add, MIN/MAX fold. Partials are consumed in worker-index order, so
/// group emission order is deterministic.
pub struct MergeAggrOp {
    spec: MergeSpec,
    partials: Vec<AggrPartial>,
    table: GroupTable,
    group_counts: Vec<i64>,
    accs: Vec<PartialAcc>,
    n_groups: usize,
    /// One vector of a partial's keys, their hashes and group ids.
    key_buf: Vec<Vector>,
    hash_buf: Vec<u64>,
    grp_buf: Vec<u32>,
    scratch: ProbeScratch,
    built: bool,
    emit_pos: usize,
    pools: Vec<VecPool>,
    out: Batch,
    vector_size: usize,
    ctx: Arc<QueryContext>,
}

impl MergeAggrOp {
    /// A merge stage over `partials` (one per worker, in worker order).
    pub fn new(
        spec: MergeSpec,
        partials: Vec<AggrPartial>,
        vector_size: usize,
        ctx: Arc<QueryContext>,
    ) -> Self {
        let pools = spec
            .fields
            .iter()
            .map(|f| VecPool::new(f.ty, vector_size))
            .collect();
        MergeAggrOp {
            table: GroupTable::new(&spec.key_types),
            group_counts: Vec::new(),
            accs: spec
                .aggs
                .iter()
                .map(|a| PartialAcc::new(a.acc_ty))
                .collect(),
            n_groups: 0,
            key_buf: spec
                .key_types
                .iter()
                .map(|&ty| Vector::with_capacity(ty, vector_size))
                .collect(),
            hash_buf: Vec::new(),
            grp_buf: Vec::new(),
            scratch: ProbeScratch::default(),
            spec,
            partials,
            built: false,
            emit_pos: 0,
            pools,
            out: Batch::new(),
            vector_size,
            ctx,
        }
    }

    /// Fold one partial's groups into the global table, a vector at a
    /// time. Returns the number of input groups folded.
    fn fold_partial(
        &mut self,
        partial: &AggrPartial,
        prof: &mut Profiler,
    ) -> Result<usize, PlanError> {
        self.ctx.check()?;
        for base in (0..partial.n_groups).step_by(self.vector_size) {
            let n = self.vector_size.min(partial.n_groups - base);
            for (buf, keys) in self.key_buf.iter_mut().zip(&partial.keys) {
                buf.clear();
                extend_range(buf, keys, base, n);
            }
            let keys: Vec<&Vector> = self.key_buf.iter().collect();
            self.hash_buf.resize(n, 0);
            self.grp_buf.resize(n, 0);
            hash_keys(&keys, &mut self.hash_buf, n, None, prof);
            self.table.lookup(
                &mut self.scratch,
                &mut self.grp_buf,
                &self.hash_buf,
                &keys,
                n,
                None,
            );
            let grp = &self.grp_buf[..n];
            let groups = self.table.len();
            self.group_counts.resize(groups, 0);
            vaggr::aggr_sum_i64_col(
                &mut self.group_counts,
                &partial.counts[base..base + n],
                grp,
                None,
            );
            for ((acc, src), agg) in self.accs.iter_mut().zip(&partial.accs).zip(&self.spec.aggs) {
                if agg.func == AggFunc::Count {
                    continue; // emitted from the merged tuple counts
                }
                acc.grow(groups, agg.init);
                match (acc, src) {
                    (PartialAcc::F64(acc), PartialAcc::F64(src)) => {
                        update_f64(agg.func, acc, &src[base..base + n], grp, None)
                    }
                    (PartialAcc::I64(acc), PartialAcc::I64(src)) => {
                        update_i64(agg.func, acc, &src[base..base + n], grp, None)
                    }
                    (acc, src) => panic!(
                        "merge accumulator type mismatch: {:?} <- {:?}",
                        acc.ty(),
                        src.ty()
                    ),
                }
            }
        }
        Ok(partial.n_groups)
    }

    fn build(&mut self, prof: &mut Profiler) -> Result<(), PlanError> {
        let partials = std::mem::take(&mut self.partials);
        let t_op = prof.start();
        let mut total_in = 0usize;
        let n_keys = self.spec.key_types.len();
        let n_aggs = self.spec.aggs.len();
        for partial in &partials {
            // A worker that spilled ships its evicted table images as
            // runs; fold them before its in-memory remainder so the
            // merge order is deterministic (worker order, then build
            // order within a worker).
            if !partial.runs.is_empty() {
                let mgr = self.ctx.spill_manager()?;
                for run in &partial.runs {
                    for seg in &run.segments {
                        let p = crate::spill::read_agg_segment(
                            &run.file, seg, n_keys, n_aggs, &mgr, &self.ctx,
                        )?;
                        total_in += self.fold_partial(&p, prof)?;
                    }
                }
            }
            total_in += self.fold_partial(partial, prof)?;
        }
        self.n_groups = self.table.len();
        // SQL semantics: an ungrouped aggregation over an empty input
        // still yields one row (count 0, sums 0) — the sequential
        // HashAggr synthesizes the same row.
        if self.spec.ungrouped && self.n_groups == 0 {
            self.n_groups = 1;
            self.group_counts.push(0);
            for (acc, spec) in self.accs.iter_mut().zip(self.spec.aggs.iter()) {
                acc.grow(1, spec.init);
            }
        }
        prof.record_op("MergeAggr", t_op, total_in);
        self.built = true;
        Ok(())
    }

    /// The batch produced by the most recent successful `next` call.
    /// Used by `HashAggrOp`'s spilled emission, which drives a merge
    /// per radix partition and forwards its batches.
    pub(crate) fn last_out(&self) -> &Batch {
        &self.out
    }
}

impl Operator for MergeAggrOp {
    fn fields(&self) -> &[OutField] {
        &self.spec.fields
    }

    fn next(&mut self, prof: &mut Profiler) -> Result<Option<&Batch>, PlanError> {
        if !self.built {
            self.build(prof)?;
        }
        if self.emit_pos >= self.n_groups {
            return Ok(None);
        }
        let start = self.emit_pos;
        let n = (self.n_groups - start).min(self.vector_size);
        self.emit_pos += n;
        self.out.reset();
        self.out.len = n;
        let nkeys = self.spec.key_types.len();
        for (k, keys) in self.table.keys().iter().enumerate() {
            let mut v = self.pools[k].writable();
            emit_key(&mut v, keys, self.spec.key_dicts[k].as_ref(), start, n);
            self.pools[k].publish(v, &mut self.out);
        }
        for (a, spec) in self.spec.aggs.iter().enumerate() {
            let mut v = self.pools[nkeys + a].writable();
            let (acc, counts) = (&self.accs[a], &self.group_counts);
            emit_agg(spec.func, acc, counts, &mut v, start, n, prof);
            self.pools[nkeys + a].publish(v, &mut self.out);
        }
        Ok(Some(&self.out))
    }

    fn reset(&mut self) {
        // Partials are consumed on build; reset only rewinds emission.
        self.emit_pos = 0;
    }
}
