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
//!    builds the radix-partitioned [`crate::ops::JoinBuildTable`] *once*
//!    on the main thread; workers probe it through read-only
//!    [`crate::ops::HashJoinProbeOp`]s (build once, probe many).
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
use crate::ops::aggr::{ensure_capacity, hash_keys, AggrPartial, MergeSpec, PartialAcc};
use crate::ops::join::HashJoinOp;
use crate::ops::{eq_at, push_from, JoinParts, Operator, ScanSpec};
use crate::plan::SharedJoins;
use crate::profile::Profiler;
use crate::session::{run_operator, ExecOptions, QueryResult};
use crate::PlanError;
use std::sync::Arc;
use std::time::Instant;
use x100_storage::{plan_morsels, Morsel};
use x100_vector::{aggr as vaggr, Vector};

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

/// Split the checked tree at its topmost hash / direct aggregation;
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
            CheckedOp::HashAggr { merge, .. } | CheckedOp::DirectAggr { merge, .. } => break merge,
            _ => return None,
        }
    };
    let mut joins = Vec::new();
    let mut leaf = &cur.inputs[0];
    let scan = loop {
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
            CheckedOp::Scan(spec) => break spec,
            _ => return None,
        }
    };
    Some(Decomposed {
        wrappers,
        aggr: cur,
        merge,
        scan,
        joins,
    })
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
    // the main thread into a shared radix-partitioned table; workers
    // then instantiate read-only probe pipelines against it.
    let mut shared = SharedJoins::new();
    for &(join, parts) in &d.joins {
        let mut b = join.inputs[0].instantiate(opts, None, None, ctx)?;
        let table = HashJoinOp::build_shared(b.as_mut(), parts, opts, ctx, &mut prof)?;
        shared.insert(join.path(), table);
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
/// Keys are re-grouped through a hash table (raw codes for enum keys,
/// decoded only at emission, like `HashAggr`); accumulators merge by
/// function: SUM/COUNT/AVG add, MIN/MAX fold. Partials are consumed in
/// worker-index order, so group emission order is deterministic.
pub struct MergeAggrOp {
    spec: MergeSpec,
    partials: Vec<AggrPartial>,
    buckets: Vec<u32>,
    group_hashes: Vec<u64>,
    key_store: Vec<Vector>,
    group_counts: Vec<i64>,
    accs: Vec<PartialAcc>,
    n_groups: usize,
    hash_buf: Vec<u64>,
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
        let key_store = spec
            .key_types
            .iter()
            .map(|&ty| Vector::with_capacity(ty, 16))
            .collect();
        let accs = spec
            .aggs
            .iter()
            .map(|a| match a.acc_ty {
                x100_vector::ScalarType::F64 => PartialAcc::F64(Vec::new()),
                _ => PartialAcc::I64(Vec::new()),
            })
            .collect();
        let pools = spec
            .fields
            .iter()
            .map(|f| VecPool::new(f.ty, vector_size))
            .collect();
        MergeAggrOp {
            spec,
            partials,
            buckets: vec![0; 1024],
            group_hashes: Vec::new(),
            key_store,
            group_counts: Vec::new(),
            accs,
            n_groups: 0,
            hash_buf: Vec::new(),
            built: false,
            emit_pos: 0,
            pools,
            out: Batch::new(),
            vector_size,
            ctx,
        }
    }

    /// Fold `partial` group `g` into global group `target` (which must
    /// already exist).
    fn merge_into(&mut self, target: usize, partial: &AggrPartial, g: usize) {
        self.group_counts[target] += partial.counts[g];
        for (ai, spec) in self.spec.aggs.iter().enumerate() {
            match (&mut self.accs[ai], &partial.accs[ai]) {
                (PartialAcc::F64(dst), PartialAcc::F64(src)) => {
                    let v = src[g];
                    match spec.func {
                        AggFunc::Min => {
                            if v < dst[target] {
                                dst[target] = v;
                            }
                        }
                        AggFunc::Max => {
                            if v > dst[target] {
                                dst[target] = v;
                            }
                        }
                        _ => dst[target] += v,
                    }
                }
                (PartialAcc::I64(dst), PartialAcc::I64(src)) => {
                    let v = src[g];
                    match spec.func {
                        AggFunc::Min => {
                            if v < dst[target] {
                                dst[target] = v;
                            }
                        }
                        AggFunc::Max => {
                            if v > dst[target] {
                                dst[target] = v;
                            }
                        }
                        _ => dst[target] += v,
                    }
                }
                (dst, src) => panic!(
                    "merge accumulator type mismatch: {:?} <- {:?}",
                    dst.ty(),
                    src.ty()
                ),
            }
        }
    }

    /// Open a new global group from `partial` group `g`; returns its id.
    fn insert_group(&mut self, hash: u64, partial: &AggrPartial, g: usize) -> usize {
        let id = self.n_groups;
        self.n_groups += 1;
        for (ks, kv) in self.key_store.iter_mut().zip(partial.keys.iter()) {
            push_from(ks, kv, g);
        }
        self.group_hashes.push(hash);
        self.group_counts.push(partial.counts[g]);
        for (dst, src) in self.accs.iter_mut().zip(partial.accs.iter()) {
            match (dst, src) {
                (PartialAcc::F64(d), PartialAcc::F64(s)) => d.push(s[g]),
                (PartialAcc::I64(d), PartialAcc::I64(s)) => d.push(s[g]),
                (d, s) => panic!(
                    "merge accumulator type mismatch: {:?} <- {:?}",
                    d.ty(),
                    s.ty()
                ),
            }
        }
        id
    }

    /// Fold one partial's groups into the global table. Returns the
    /// number of input groups folded.
    fn fold_partial(
        &mut self,
        partial: &AggrPartial,
        prof: &mut Profiler,
    ) -> Result<usize, PlanError> {
        self.ctx.check()?;
        let n = partial.n_groups;
        if n == 0 {
            return Ok(0);
        }
        if self.spec.key_types.is_empty() {
            // Ungrouped: everything folds into global group 0.
            if self.n_groups == 0 {
                self.insert_group(0, partial, 0);
            } else {
                self.merge_into(0, partial, 0);
            }
            return Ok(n);
        }
        ensure_capacity(
            &mut self.buckets,
            &self.group_hashes,
            self.n_groups,
            self.n_groups + n,
        );
        self.hash_buf.resize(n, 0);
        let key_refs: Vec<&Vector> = partial.keys.iter().collect();
        hash_keys(&key_refs, &mut self.hash_buf, n, None, prof);
        let mask = (self.buckets.len() - 1) as u64;
        for g in 0..n {
            let h = self.hash_buf[g];
            let mut b = (h & mask) as usize;
            loop {
                let slot = self.buckets[b];
                if slot == 0 {
                    let id = self.insert_group(h, partial, g);
                    self.buckets[b] = id as u32 + 1;
                    break;
                }
                let cand = (slot - 1) as usize;
                if self.group_hashes[cand] == h
                    && self
                        .key_store
                        .iter()
                        .zip(partial.keys.iter())
                        .all(|(ks, kv)| eq_at(ks, cand, kv, g))
                {
                    self.merge_into(cand, partial, g);
                    break;
                }
                b = (b + 1) & mask as usize;
            }
        }
        Ok(n)
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
        let nkeys = self.key_store.len();
        for k in 0..nkeys {
            let mut v = self.pools[k].writable();
            match &self.spec.key_dicts[k] {
                None => crate::ops::extend_range(&mut v, &self.key_store[k], start, n),
                Some(dict) => {
                    for g in start..start + n {
                        let code = match &self.key_store[k] {
                            Vector::U8(c) => c[g] as usize,
                            Vector::U16(c) => c[g] as usize,
                            other => panic!("code key is {:?}", other.scalar_type()),
                        };
                        v.push_value(&dict.decode(code));
                    }
                }
            }
            self.pools[k].publish(v, &mut self.out);
        }
        for (a, spec) in self.spec.aggs.iter().enumerate() {
            let mut v = self.pools[nkeys + a].writable();
            match (spec.func, &self.accs[a]) {
                (AggFunc::Avg, PartialAcc::F64(sums)) => {
                    let t0 = prof.start();
                    let o = v.as_f64_mut();
                    let base = o.len();
                    o.resize(base + n, 0.0);
                    vaggr::aggr_avg_epilogue(
                        &mut o[base..],
                        &sums[start..start + n],
                        &self.group_counts[start..start + n],
                    );
                    prof.record_prim("aggr_avg_epilogue", t0, n, n * 24);
                }
                (_, PartialAcc::F64(vals)) => {
                    v.as_f64_mut().extend_from_slice(&vals[start..start + n])
                }
                (_, PartialAcc::I64(vals)) => {
                    v.as_i64_mut().extend_from_slice(&vals[start..start + n])
                }
            }
            self.pools[nkeys + a].publish(v, &mut self.out);
        }
        Ok(Some(&self.out))
    }

    fn reset(&mut self) {
        // Partials are consumed on build; reset only rewinds emission.
        self.emit_pos = 0;
    }
}
