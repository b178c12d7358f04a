//! Morsel-driven parallel execution (beyond the paper): the `Exchange`
//! operator.
//!
//! The paper's engine is single-threaded. Here parallelism is one more
//! node of the checked tree: at `threads > 1` the check walk
//! ([`crate::check`]) places an `Exchange` over every hash or direct
//! aggregation whose input is a [`morsel_spine`] of more than one morsel
//! — at any depth, on a join's build side and under another aggregation
//! alike — and one thread is simply the tree without one. On its first
//! `next`, [`ExchangeOp`]
//!
//! 1. builds each `HashJoin` table of the spine *once*; every worker's
//!    [`crate::ops::HashJoinOp`] probes that one table, which it only
//!    reads (build once, probe many);
//! 2. cuts the scan's row space — the fragment plus the insert-delta
//!    tail — into [`Morsel`]s ([`spine_morsels`]), clipped to the
//!    summary-pruned range. Worker `w` of `T` statically takes morsels
//!    `w, w+T, w+2T, …`, so assignment does not depend on thread timing;
//! 3. has each worker instantiate its *own* clone of the aggregation
//!    pipeline from the shared checked subtree (the `Rc`-based batch
//!    machinery stays thread-local; verified programs and derived fetch
//!    columns are shared, only register files are per worker) over its
//!    morsels and materialize partial aggregation state
//!    ([`Operator::take_partial_aggr`]);
//! 4. re-aggregates the partials in worker order through [`MergeAggrOp`]
//!    — sums/counts add, `min`/`max` fold, AVG divides merged sums by
//!    merged counts at emission — and streams the merged groups.
//!
//! **Determinism contract.** An answer is a function of (plan, data,
//! `threads`, `morsel_size`, budgets): they fix the morsels, which
//! worker aggregates which rows in which order, and the merge order.
//! Integer results are exact at every thread count. f64 sums (and
//! averages) may differ across thread counts in their last ulp only:
//! the same additions, associated differently.

use crate::batch::{Batch, OutField, VecPool};
use crate::check::{CheckedNode, CheckedOp};
use crate::expr::AggFunc;
use crate::govern::{panic_cause, QueryContext};
use crate::ops::aggr::{
    emit_agg, emit_key, grow_acc, hash_keys, update_f64, update_i64, AggrPartial, MergeSpec,
};
use crate::ops::{JoinParts, JoinTable, Operator, ScanSpec};
use crate::plan::SharedJoins;
use crate::profile::Profiler;
use crate::session::ExecOptions;
use crate::PlanError;
use std::sync::Arc;
use std::time::Instant;
use x100_storage::{plan_morsels, Morsel};
use x100_vector::{aggr as vaggr, GroupTable, ProbeScratch, Vector};

/// The pipeline a morsel worker can clone under an aggregation: a
/// `Select` / `Project` / `Fetch1Join` / `FetchNJoin` / `HashJoin`-probe
/// chain ending in a `Scan`. Returns that scan and the joins on the way
/// (outermost first), `None` for any other shape: the check walk places
/// no `Exchange` over it.
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

/// The morsels of a spine's scan: its fragment and its pending
/// insert-delta rows, `morsel_size` rows each. A summary-pruned range
/// clips the fragment's morsels (some to nothing) but moves no
/// boundary, so every worker adds the rows that pass in the order the
/// unpruned scan gives it: the rule `summary-range-select` cannot
/// change an answer, not even an f64 sum's last ulp.
pub(crate) fn spine_morsels(scan: &ScanSpec, morsel_size: usize) -> Vec<Morsel> {
    let t = &scan.table;
    let mut morsels = plan_morsels((0, t.fragment_rows()), t.delta_rows(), morsel_size);
    if let Some((start, end)) = scan.range {
        for m in morsels.iter_mut().filter(|m| !m.delta) {
            let first = m.start.max(start);
            m.len = (m.start + m.len).min(end).saturating_sub(first);
            m.start = first;
        }
    }
    morsels
}

/// `Exchange` — runs its input aggregation on `opts.threads` morsel
/// workers and streams the merged groups (module docs).
pub struct ExchangeOp {
    /// The aggregation each worker instantiates: the checked tree's own
    /// node, not a copy.
    aggr: Arc<CheckedNode>,
    merge: MergeSpec,
    opts: ExecOptions,
    ctx: Arc<QueryContext>,
    /// The merge stage, once the workers have run.
    merged: Option<MergeAggrOp>,
}

impl ExchangeOp {
    /// An exchange over the checked aggregation `aggr`, whose partials
    /// `merge` re-aggregates.
    pub(crate) fn new(
        aggr: Arc<CheckedNode>,
        merge: MergeSpec,
        opts: ExecOptions,
        ctx: Arc<QueryContext>,
    ) -> Self {
        ExchangeOp {
            aggr,
            merge,
            opts,
            ctx,
            merged: None,
        }
    }

    /// Build the spine's join tables, run the workers and return their
    /// partials in worker order; worker profiles fold into `prof`.
    fn run_workers(&self, prof: &mut Profiler) -> Result<Vec<AggrPartial>, PlanError> {
        let (opts, ctx, aggr) = (&self.opts, &self.ctx, &*self.aggr);
        let (scan, joins) =
            morsel_spine(&aggr.inputs[0]).expect("the walk places an Exchange over a morsel spine");
        let mut shared = SharedJoins::new();
        for (join, parts) in joins {
            let mut b = join.inputs[0].instantiate(opts, None, None, ctx)?;
            let mut spec = parts.build_spec(opts.vector_size);
            let table = JoinTable::build(b.as_mut(), &mut spec, ctx, prof)?;
            shared.insert(join.path(), Arc::new(table));
        }
        let morsels = spine_morsels(scan, opts.morsel_size);
        let nworkers = opts.threads.min(morsels.len()).max(1);
        let (profile, shared) = (prof.enabled(), &shared);
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
                        let mut wprof = Profiler::new(profile);
                        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                            aggr.instantiate(opts, Some(&assigned), Some(shared), ctx)
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
        let mut partials = Vec::with_capacity(nworkers);
        let mut first_err: Option<PlanError> = None;
        for (w, (partial, wprof, wall)) in results.into_iter().enumerate() {
            match partial {
                Ok(Some(p)) => {
                    if profile {
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
        first_err.map_or(Ok(partials), Err)
    }
}

impl Operator for ExchangeOp {
    fn fields(&self) -> &[OutField] {
        &self.merge.fields
    }

    fn next(&mut self, prof: &mut Profiler) -> Result<Option<&Batch>, PlanError> {
        if self.merged.is_none() {
            let partials = self.run_workers(prof)?;
            let (merge, vs, ctx) = (self.merge.clone(), self.opts.vector_size, self.ctx.clone());
            self.merged = Some(MergeAggrOp::new(merge, partials, vs, ctx));
        }
        self.merged.as_mut().expect("merged above").next(prof)
    }

    fn reset(&mut self) {
        // The merge consumed the partials; reset only rewinds emission.
        if let Some(m) = &mut self.merged {
            m.reset();
        }
    }
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
    accs: Vec<Vector>,
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
                .map(|a| Vector::with_capacity(a.acc_ty, 0))
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
                buf.append_range(keys, base, n);
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
                grow_acc(acc, groups, agg.init);
                match (acc, src) {
                    (Vector::F64(acc), Vector::F64(src)) => {
                        update_f64(agg.func, acc, &src[base..base + n], grp, None)
                    }
                    (Vector::I64(acc), Vector::I64(src)) => {
                        update_i64(agg.func, acc, &src[base..base + n], grp, None)
                    }
                    (acc, src) => panic!(
                        "merge accumulator type mismatch: {:?} <- {:?}",
                        acc.scalar_type(),
                        src.scalar_type()
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
                grow_acc(acc, 1, spec.init);
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
