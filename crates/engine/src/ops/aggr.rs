//! Aggregation: the three physical operators of §4.1.2.
//!
//! "Aggregation is supported by three physical operators: (i) direct
//! aggregation, (ii) hash aggregation, and (iii) ordered aggregation."
//!
//! * [`DirectAggrOp`] — for small-domain keys whose bit representation
//!   directly indexes the accumulator table (the hard-coded Q1 trick of
//!   §3.3: `(returnflag << 8) + linestatus`).
//! * [`HashAggrOp`] — the general case: vectorized hashing, a
//!   vectorized [`GroupTable`] lookup, vectorized accumulator updates.
//! * [`OrdAggrOp`] — groups arrive consecutively (input clustered on the
//!   keys): run boundaries are the group ids, one vector of groups is
//!   the whole state, emission streams.
//!
//! All three share the aggregate-state machinery ([`AggStates`]): per
//! aggregate an *initialization* (accumulator growth), vectorized
//! *update* primitives, and an *epilogue* (`avg = sum / count`),
//! mirroring the paper's generated triples. The update is one fused
//! pass for the per-group tuple count and the f64 sums
//! (`aggr_sum_f64_x{N}_col`), then one single-aggregate primitive each
//! for MIN / MAX / integer sums; COUNT is the tuple count.

use crate::batch::{Batch, OutField, VecPool};
use crate::compile::{ExprCode, ExprProg};
use crate::expr::AggFunc;
use crate::govern::{MemTracker, QueryContext};
use crate::ops::parallel::MergeAggrOp;
use crate::ops::{extend_range, push_from, Operator};
use crate::profile::Profiler;
use crate::spill::{agg_partition, read_agg_segment, AggRun, AggSegment, SPILL_BLOCK_ROWS};
use crate::PlanError;
use std::sync::Arc;
use x100_storage::EnumDict;
use x100_vector::fetch::gather_rows;
use x100_vector::{
    aggr as vaggr, hash as vhash, GroupTable, ProbeScratch, ScalarType, SelVec, Vector,
};

/// One aggregate's accumulator column, indexed by group: the operators'
/// running state and, detached (all owned data, no `Rc`), what a
/// parallel worker ships to the merge stage.
#[derive(Debug, Clone)]
pub enum PartialAcc {
    /// f64 accumulators (sums, f64 min/max).
    F64(Vec<f64>),
    /// i64 accumulators (counts, integer sums/min/max).
    I64(Vec<i64>),
}

impl PartialAcc {
    /// An empty accumulator column of type `ty` (`F64`, else `I64`).
    pub fn new(ty: ScalarType) -> Self {
        match ty {
            ScalarType::F64 => PartialAcc::F64(Vec::new()),
            _ => PartialAcc::I64(Vec::new()),
        }
    }

    /// Accumulator scalar type.
    pub fn ty(&self) -> ScalarType {
        match self {
            PartialAcc::F64(_) => ScalarType::F64,
            PartialAcc::I64(_) => ScalarType::I64,
        }
    }

    /// The accumulators of the groups `ids`, in that order.
    fn gather(&self, ids: &[u32]) -> PartialAcc {
        match self {
            PartialAcc::F64(a) => PartialAcc::F64(ids.iter().map(|&g| a[g as usize]).collect()),
            PartialAcc::I64(a) => PartialAcc::I64(ids.iter().map(|&g| a[g as usize]).collect()),
        }
    }

    /// Resize to `n` entries, filling new ones with `init`.
    pub fn grow(&mut self, n: usize, init: f64) {
        match self {
            PartialAcc::F64(v) => v.resize(n, init),
            PartialAcc::I64(v) => v.resize(n, init as i64),
        }
    }
}

/// Materialized partial aggregation state of one worker: group keys,
/// per-group tuple counts, and one accumulator array per aggregate.
/// All owned data — `Send` across the worker channel.
#[derive(Debug)]
pub struct AggrPartial {
    /// One key vector per grouping key (raw codes for enum keys).
    pub keys: Vec<Vector>,
    /// Per-group tuple counts (drives the AVG epilogue).
    pub counts: Vec<i64>,
    /// Per-aggregate accumulator arrays, indexed like `keys`' groups.
    pub accs: Vec<PartialAcc>,
    /// Number of groups (every array above has this length).
    pub n_groups: usize,
    /// Spilled table images evicted during the build, oldest first
    /// (empty when the build fit in memory). The merge stage folds
    /// these before the in-memory groups above.
    pub runs: Vec<crate::spill::AggRun>,
}

/// How to merge one aggregate's partial accumulators.
#[derive(Debug, Clone)]
pub struct MergeAgg {
    /// Aggregate function (decides the merge rule and epilogue).
    pub func: AggFunc,
    /// Accumulator scalar type (`F64` or `I64`).
    pub acc_ty: ScalarType,
    /// Init value for groups absent from a partial.
    pub init: f64,
}

/// Everything the merge stage needs to combine worker partials and
/// emit final batches, captured from a bound aggregation operator.
#[derive(Debug, Clone)]
pub struct MergeSpec {
    /// Output shape (keys then aggregates), identical to the
    /// aggregation operator's own fields.
    pub fields: Vec<OutField>,
    /// Physical key types as stored in partials (codes for enums).
    pub key_types: Vec<ScalarType>,
    /// Dictionaries for enum keys, applied at emission.
    pub key_dicts: Vec<Option<EnumDict>>,
    /// Per-aggregate merge rules.
    pub aggs: Vec<MergeAgg>,
    /// Ungrouped aggregation: empty input still yields one zero row.
    pub ungrouped: bool,
}

/// One aggregate as the check walk typed it ([`crate::check`]): the
/// verified argument program, the accumulator type and the update
/// primitive. Operators instantiate their running state from this.
#[derive(Debug, Clone)]
pub(crate) struct AggSpec {
    /// Output column name.
    pub name: String,
    /// Aggregate function.
    pub func: AggFunc,
    /// Argument program, already coerced to `acc_ty` (`None` for `Count`).
    pub arg: Option<Arc<ExprCode>>,
    /// Accumulator type: `F64` or `I64`.
    pub acc_ty: ScalarType,
    /// The `aggr_*` update primitive.
    pub sig: String,
}

impl AggSpec {
    /// Accumulator init value for newly created groups.
    pub(crate) fn init_value(&self) -> f64 {
        match (self.func, self.acc_ty) {
            (AggFunc::Min, ScalarType::F64) => f64::MAX,
            (AggFunc::Max, ScalarType::F64) => f64::MIN,
            (AggFunc::Min, _) => i64::MAX as f64,
            (AggFunc::Max, _) => i64::MIN as f64,
            _ => 0.0,
        }
    }

    /// Output type: AVG emits f64, COUNT emits i64, others match acc.
    pub(crate) fn out_type(&self) -> ScalarType {
        match self.func {
            AggFunc::Avg => ScalarType::F64,
            AggFunc::Count => ScalarType::I64,
            _ => self.acc_ty,
        }
    }

    /// Whether the fused update pass covers this aggregate: an f64 sum.
    pub(crate) fn fuses(&self) -> bool {
        matches!(self.func, AggFunc::Sum | AggFunc::Avg) && self.acc_ty == ScalarType::F64
    }

    /// How the merge stage combines this aggregate's partials.
    pub(crate) fn merge_rule(&self) -> MergeAgg {
        MergeAgg {
            func: self.func,
            acc_ty: self.acc_ty,
            init: self.init_value(),
        }
    }
}

/// `func`'s single-aggregate update primitive over f64 accumulators.
/// Merging partial states goes through here too: partial sums and
/// counts add, partial minima and maxima fold.
pub(crate) fn update_f64(
    func: AggFunc,
    acc: &mut [f64],
    vals: &[f64],
    grp: &[u32],
    sel: Option<&SelVec>,
) {
    match func {
        AggFunc::Min => vaggr::aggr_min_f64_col(acc, vals, grp, sel),
        AggFunc::Max => vaggr::aggr_max_f64_col(acc, vals, grp, sel),
        AggFunc::Sum | AggFunc::Avg | AggFunc::Count => {
            vaggr::aggr_sum_f64_col(acc, vals, grp, sel)
        }
    }
}

/// `func`'s single-aggregate update primitive over i64 accumulators.
pub(crate) fn update_i64(
    func: AggFunc,
    acc: &mut [i64],
    vals: &[i64],
    grp: &[u32],
    sel: Option<&SelVec>,
) {
    match func {
        AggFunc::Min => vaggr::aggr_min_i64_col(acc, vals, grp, sel),
        AggFunc::Max => vaggr::aggr_max_i64_col(acc, vals, grp, sel),
        AggFunc::Sum | AggFunc::Avg | AggFunc::Count => {
            vaggr::aggr_sum_i64_col(acc, vals, grp, sel)
        }
    }
}

/// Signature of the fused update pass over `n` f64 sums (capped at
/// [`vaggr::FUSED_SUM_MAX`]); with none it is the plain count.
pub(crate) fn fused_signature(n: usize) -> String {
    match n.min(vaggr::FUSED_SUM_MAX) {
        0 => "aggr_count_u32_col".to_owned(),
        n => format!("aggr_sum_f64_x{n}_col_u32_col"),
    }
}

/// One aggregate's running state.
struct AggState {
    func: AggFunc,
    /// Argument program (`None` for `Count`).
    prog: Option<ExprProg>,
    /// Accumulator column; stays empty for `Count`, which is the
    /// operator's per-group tuple count.
    acc: PartialAcc,
    sig: String,
    init: f64,
    /// Updated by the fused pass rather than its own primitive.
    fused: bool,
}

/// The running state of an operator's aggregate list.
struct AggStates {
    aggs: Vec<AggState>,
    /// Signature the fused pass records under, and how many sums it
    /// covers: the first [`vaggr::FUSED_SUM_MAX`] f64 SUM/AVG
    /// aggregates (with none, the pass is the tuple count alone).
    fused_sig: String,
    fused_n: usize,
}

impl AggStates {
    fn new(specs: &[AggSpec], vector_size: usize) -> Self {
        let mut fused_n = 0;
        let aggs = specs
            .iter()
            .map(|spec| {
                let fused = spec.fuses() && fused_n < vaggr::FUSED_SUM_MAX;
                fused_n += fused as usize;
                AggState {
                    func: spec.func,
                    prog: spec.arg.as_ref().map(|c| ExprProg::new(c, vector_size)),
                    acc: PartialAcc::new(spec.acc_ty),
                    sig: spec.sig.clone(),
                    init: spec.init_value(),
                    fused,
                }
            })
            .collect();
        AggStates {
            aggs,
            fused_sig: fused_signature(fused_n),
            fused_n,
        }
    }

    /// Accumulator columns held (every aggregate but `Count`).
    fn acc_columns(&self) -> usize {
        self.aggs.iter().filter(|a| a.prog.is_some()).count()
    }

    /// Size the accumulators for `n_groups` groups.
    fn grow(&mut self, n_groups: usize) {
        for agg in self.aggs.iter_mut().filter(|a| a.prog.is_some()) {
            agg.acc.grow(n_groups, agg.init);
        }
    }

    /// Drop the accumulators of the first `n` groups (ordered
    /// aggregation retiring the groups it has emitted).
    fn drain_front(&mut self, n: usize) {
        for agg in self.aggs.iter_mut().filter(|a| a.prog.is_some()) {
            match &mut agg.acc {
                PartialAcc::F64(v) => drop(v.drain(..n)),
                PartialAcc::I64(v) => drop(v.drain(..n)),
            }
        }
    }

    /// Drop every accumulator and its memory.
    fn clear(&mut self) {
        for agg in &mut self.aggs {
            agg.acc = PartialAcc::new(agg.acc.ty());
        }
    }

    /// Vectorized update for one batch whose live tuples fall in the
    /// groups `grp` names: count them into `counts` (recording
    /// first-hit slots in `occupied`, for direct aggregation) and fold
    /// every aggregate's argument into its accumulator.
    #[allow(clippy::too_many_arguments)] // one batch's worth of operator state
    fn update(
        &mut self,
        batch: &Batch,
        grp: &[u32],
        sel: Option<&SelVec>,
        n_groups: usize,
        counts: &mut Vec<i64>,
        occupied: Option<&mut Vec<u32>>,
        prof: &mut Profiler,
    ) {
        counts.resize(n_groups, 0);
        self.grow(n_groups);
        let live = sel.map_or(batch.len, |s| s.len());
        // All fused arguments first, then one pass over `grp`.
        let mut accs: [&mut [f64]; vaggr::FUSED_SUM_MAX] = Default::default();
        let mut vals: [&[f64]; vaggr::FUSED_SUM_MAX] = Default::default();
        let fused = self.aggs.iter_mut().filter(|a| a.fused);
        for ((acc, val), agg) in accs.iter_mut().zip(vals.iter_mut()).zip(fused) {
            let (Some(prog), PartialAcc::F64(a)) = (&mut agg.prog, &mut agg.acc) else {
                unreachable!("fused aggregates are f64 sums")
            };
            *val = prog.eval(batch, sel, prof).as_f64();
            *acc = a;
        }
        let n = self.fused_n;
        let t0 = prof.start();
        vaggr::fused_sum_f64(&mut accs[..n], &vals[..n], counts, occupied, grp, sel);
        prof.record_prim(
            &self.fused_sig,
            t0,
            live * n.max(1),
            live * (4 + 8 + n * 16),
        );
        for agg in self.aggs.iter_mut().filter(|a| !a.fused) {
            let Some(prog) = &mut agg.prog else {
                continue; // Count
            };
            let vals = prog.eval(batch, sel, prof);
            let t0 = prof.start();
            match (&mut agg.acc, vals) {
                (PartialAcc::F64(acc), Vector::F64(v)) => update_f64(agg.func, acc, v, grp, sel),
                (PartialAcc::I64(acc), Vector::I64(v)) => update_i64(agg.func, acc, v, grp, sel),
                (acc, v) => panic!(
                    "aggregate type mismatch: acc {:?}, values {:?}",
                    acc.ty(),
                    v.scalar_type()
                ),
            }
            prof.record_prim(&agg.sig, t0, live, live * (agg.acc.ty().width() + 4 + 8));
        }
    }

    /// The accumulators of the groups `ids`, one column per aggregate
    /// as a partial ships them: `Count`'s column is the tuple counts.
    fn gather(&self, counts: &[i64], ids: &[u32]) -> Vec<PartialAcc> {
        self.aggs
            .iter()
            .map(|a| match a.func {
                AggFunc::Count => {
                    PartialAcc::I64(ids.iter().map(|&g| counts[g as usize]).collect())
                }
                _ => a.acc.gather(ids),
            })
            .collect()
    }

    /// Surrender every group's accumulators, shaped like [`Self::gather`].
    fn take(&mut self, counts: &[i64]) -> Vec<PartialAcc> {
        self.aggs
            .iter_mut()
            .map(|a| match a.func {
                AggFunc::Count => PartialAcc::I64(counts.to_vec()),
                _ => {
                    let empty = PartialAcc::new(a.acc.ty());
                    std::mem::replace(&mut a.acc, empty)
                }
            })
            .collect()
    }
}

impl AggState {
    /// [`emit_agg`] of this aggregate.
    fn emit(&self, counts: &[i64], out: &mut Vector, start: usize, n: usize, prof: &mut Profiler) {
        emit_agg(self.func, &self.acc, counts, out, start, n, prof);
    }
}

/// Emit `[start, start+n)` of one aggregate's final values into `out`:
/// COUNT is `counts`, AVG goes through the epilogue against them.
pub(crate) fn emit_agg(
    func: AggFunc,
    acc: &PartialAcc,
    counts: &[i64],
    out: &mut Vector,
    start: usize,
    n: usize,
    prof: &mut Profiler,
) {
    match (func, acc) {
        (AggFunc::Count, _) => out
            .as_i64_mut()
            .extend_from_slice(&counts[start..start + n]),
        (AggFunc::Avg, PartialAcc::F64(sums)) => {
            let t0 = prof.start();
            let o = out.as_f64_mut();
            let base = o.len();
            o.resize(base + n, 0.0);
            vaggr::aggr_avg_epilogue(
                &mut o[base..],
                &sums[start..start + n],
                &counts[start..start + n],
            );
            prof.record_prim("aggr_avg_epilogue", t0, n, n * 24);
        }
        (_, PartialAcc::F64(v)) => out.as_f64_mut().extend_from_slice(&v[start..start + n]),
        (_, PartialAcc::I64(v)) => out.as_i64_mut().extend_from_slice(&v[start..start + n]),
    }
}

/// Compute the hash vector of the key columns (hash + rehash chain).
/// Shared with the hash join.
pub(crate) fn hash_keys(
    keys: &[&Vector],
    hash_buf: &mut [u64],
    n: usize,
    sel: Option<&SelVec>,
    prof: &mut Profiler,
) {
    for (ki, kv) in keys.iter().enumerate() {
        let first = ki == 0;
        let t0 = prof.start();
        let sig: &str = match kv {
            Vector::U8(v) => {
                if first {
                    vhash::map_hash_u8_col(hash_buf, v, sel)
                } else {
                    vhash::map_rehash_u8_col(hash_buf, v, sel)
                }
                if first {
                    "map_hash_u8_col"
                } else {
                    "map_rehash_u8_col"
                }
            }
            Vector::U16(v) => {
                if first {
                    vhash::map_hash_u16_col(hash_buf, v, sel)
                } else {
                    vhash::map_rehash_u16_col(hash_buf, v, sel)
                }
                if first {
                    "map_hash_u16_col"
                } else {
                    "map_rehash_u16_col"
                }
            }
            Vector::U32(v) => {
                if first {
                    vhash::map_hash_u32_col(hash_buf, v, sel)
                } else {
                    vhash::map_rehash_u32_col(hash_buf, v, sel)
                }
                if first {
                    "map_hash_u32_col"
                } else {
                    "map_rehash_u32_col"
                }
            }
            Vector::I32(v) => {
                if first {
                    vhash::map_hash_i32_col(hash_buf, v, sel)
                } else {
                    vhash::map_rehash_i32_col(hash_buf, v, sel)
                }
                if first {
                    "map_hash_i32_col"
                } else {
                    "map_rehash_i32_col"
                }
            }
            Vector::I64(v) => {
                if first {
                    vhash::map_hash_i64_col(hash_buf, v, sel)
                } else {
                    vhash::map_rehash_i64_col(hash_buf, v, sel)
                }
                if first {
                    "map_hash_i64_col"
                } else {
                    "map_rehash_i64_col"
                }
            }
            Vector::F64(v) => {
                if first {
                    vhash::map_hash_f64_col(hash_buf, v, sel)
                } else {
                    vhash::map_rehash_f64_col(hash_buf, v, sel)
                }
                if first {
                    "map_hash_f64_col"
                } else {
                    "map_rehash_f64_col"
                }
            }
            Vector::Str(v) => {
                if first {
                    vhash::map_hash_str_col(hash_buf, v, sel)
                } else {
                    vhash::map_rehash_str_col(hash_buf, v, sel)
                }
                if first {
                    "map_hash_str_col"
                } else {
                    "map_rehash_str_col"
                }
            }
            other => panic!("cannot hash {:?} keys", other.scalar_type()),
        };
        let live = sel.map_or(n, |s| s.len());
        prof.record_prim(sig, t0, live, live * (kv.scalar_type().width() + 8));
    }
}

/// Append the keys of groups `[start, start+n)` to `out`, decoding
/// code-typed keys through their dictionary.
pub(crate) fn emit_key(
    out: &mut Vector,
    keys: &Vector,
    dict: Option<&EnumDict>,
    start: usize,
    n: usize,
) {
    let Some(dict) = dict else {
        return extend_range(out, keys, start, n);
    };
    for g in start..start + n {
        let code = match keys {
            Vector::U8(c) => c[g] as usize,
            Vector::U16(c) => c[g] as usize,
            other => panic!("code key is {:?}", other.scalar_type()),
        };
        out.push_value(&dict.decode(code));
    }
}

/// `HashAggr(Dataflow, List<Exp>, List<AggrExp>)` — general grouping.
pub struct HashAggrOp {
    child: Box<dyn Operator>,
    key_progs: Vec<ExprProg>,
    aggs: AggStates,
    /// Output shape, physical key types and the enum dictionaries of
    /// code-typed keys (grouping runs on raw codes, emission decodes);
    /// also the recipe the spilled emission re-aggregates with.
    merge: MergeSpec,
    table: GroupTable,
    group_counts: Vec<i64>,
    /// Groups to emit: the table's, or the one synthetic row of an
    /// ungrouped aggregation over no input.
    n_groups: usize,
    // Scratch.
    hash_buf: Vec<u64>,
    grp_buf: Vec<u32>,
    scratch: ProbeScratch,
    // Emission.
    built: bool,
    emit_pos: usize,
    pools: Vec<VecPool>,
    out: Batch,
    vector_size: usize,
    mem: MemTracker,
    /// Table images evicted under memory pressure, oldest first.
    agg_runs: Vec<AggRun>,
    /// Next radix partition the spilled emission will re-aggregate.
    spill_part: usize,
    /// Per-partition merge feeding the spilled emission path.
    spill_emit: Option<MergeAggrOp>,
}

impl HashAggrOp {
    /// A hash aggregation over `child` from the parts the check walk
    /// verified: key and aggregate programs plus the `merge` recipe
    /// (output fields, physical key types, key dictionaries).
    pub(crate) fn new(
        child: Box<dyn Operator>,
        keys: &[Arc<ExprCode>],
        aggs: &[AggSpec],
        merge: MergeSpec,
        vector_size: usize,
        ctx: Arc<QueryContext>,
    ) -> Self {
        let pools = merge
            .fields
            .iter()
            .map(|f| VecPool::new(f.ty, vector_size))
            .collect();
        HashAggrOp {
            child,
            key_progs: keys.iter().map(|c| ExprProg::new(c, vector_size)).collect(),
            aggs: AggStates::new(aggs, vector_size),
            table: GroupTable::new(&merge.key_types),
            group_counts: Vec::new(),
            n_groups: 0,
            hash_buf: Vec::new(),
            grp_buf: Vec::new(),
            scratch: ProbeScratch::default(),
            built: false,
            emit_pos: 0,
            pools,
            out: Batch::new(),
            vector_size,
            mem: MemTracker::new(ctx, "hash aggregation table"),
            agg_runs: Vec::new(),
            spill_part: 0,
            spill_emit: None,
            merge,
        }
    }

    /// The hash table's current footprint, charged against the budget.
    fn footprint(&self) -> usize {
        self.table.byte_size() + (1 + self.aggs.acc_columns()) * self.table.len() * 8
    }

    /// Consume the whole child dataflow into the hash table.
    fn build(&mut self, prof: &mut Profiler) -> Result<(), PlanError> {
        while let Some(batch) = self.child.next(prof)? {
            let t_op = prof.start();
            let n = batch.len;
            let sel = batch.sel.as_deref();
            let live = sel.map_or(n, |s| s.len());
            // 1. Evaluate key expressions.
            let key_vecs: Vec<&Vector> = self
                .key_progs
                .iter_mut()
                .map(|p| p.eval(batch, sel, prof))
                .collect();
            // 2. Vectorized hash of the keys.
            self.hash_buf.resize(n, 0);
            self.grp_buf.resize(n, 0);
            hash_keys(&key_vecs, &mut self.hash_buf, n, sel, prof);
            // 3. Hash table maintenance (Fig. 6): hashes → group ids.
            let t0 = prof.start();
            self.table.lookup(
                &mut self.scratch,
                &mut self.grp_buf,
                &self.hash_buf,
                &key_vecs,
                n,
                sel,
            );
            prof.record_prim("aggr_hashtable_maintain", t0, live, live * 12);
            // 4. Vectorized accumulator updates.
            self.aggs.update(
                batch,
                &self.grp_buf,
                sel,
                self.table.len(),
                &mut self.group_counts,
                None,
                prof,
            );
            prof.record_op("Aggr(HASH)", t_op, live);
            let fp = self.footprint();
            if !self.mem.try_ensure(fp) {
                // Memory budget exhausted. With a spill budget, evict
                // the table as a partitioned on-disk run; without one,
                // abort exactly as before the spill subsystem.
                if self.mem.context().spill_budget().is_some() && !self.table.is_empty() {
                    self.spill_table()?;
                } else {
                    self.mem.ensure(fp)?;
                }
            }
        }
        if !self.agg_runs.is_empty() && !self.table.is_empty() {
            // The in-memory remainder joins the runs so emission sees
            // one uniform source list per partition.
            self.spill_table()?;
        }
        self.n_groups = self.table.len();
        self.built = true;
        Ok(())
    }

    /// Evict the current table as one partitioned spill run and free
    /// its memory charge. Groups are radix-partitioned by the top
    /// hash bits; first-seen order is preserved within a partition.
    fn spill_table(&mut self) -> Result<(), PlanError> {
        let ctx = Arc::clone(self.mem.context());
        let mgr = ctx.spill_manager()?;
        let mut w = mgr.start_run(&ctx, "hash aggregation table")?;
        let mut parts: Vec<Vec<u32>> = vec![Vec::new(); crate::spill::AGG_SPILL_PARTS];
        for (g, &h) in self.table.hashes().iter().enumerate() {
            parts[agg_partition(h)].push(g as u32);
        }
        let mut segments = Vec::new();
        for (p, gids) in parts.iter().enumerate() {
            if gids.is_empty() {
                continue;
            }
            let offset = w.offset();
            let blocks_before = w.blocks();
            for chunk in gids.chunks(SPILL_BLOCK_ROWS) {
                let mut block: Vec<Vector> = Vec::new();
                for ks in self.table.keys() {
                    let mut v = Vector::with_capacity(ks.scalar_type(), chunk.len());
                    for &g in chunk {
                        push_from(&mut v, ks, g as usize);
                    }
                    block.push(v);
                }
                block.push(Vector::I64(
                    chunk
                        .iter()
                        .map(|&g| self.group_counts[g as usize])
                        .collect(),
                ));
                let accs = self.aggs.gather(&self.group_counts, chunk);
                block.extend(accs.into_iter().map(|acc| match acc {
                    PartialAcc::F64(a) => Vector::F64(a),
                    PartialAcc::I64(a) => Vector::I64(a),
                }));
                w.write_block(block)?;
            }
            segments.push(AggSegment {
                part: p,
                offset,
                blocks: w.blocks() - blocks_before,
                rows: gids.len(),
            });
        }
        let run = w.finish()?;
        self.agg_runs.push(AggRun {
            file: run.file,
            segments,
        });
        self.table.clear();
        self.group_counts = Vec::new();
        self.aggs.clear();
        self.mem.release_all();
        Ok(())
    }

    /// Advance spilled emission to the next non-empty partition:
    /// re-read its segments from every run (oldest first) and stand up
    /// a bounded merge over just that partition's groups.
    fn load_next_partition(&mut self) -> Result<bool, PlanError> {
        let ctx = Arc::clone(self.mem.context());
        let mgr = ctx.spill_manager()?;
        while self.spill_part < crate::spill::AGG_SPILL_PARTS {
            let p = self.spill_part;
            self.spill_part += 1;
            let mut partials = Vec::new();
            for run in &self.agg_runs {
                if let Some(seg) = run.segments.iter().find(|s| s.part == p) {
                    partials.push(read_agg_segment(
                        &run.file,
                        seg,
                        self.key_progs.len(),
                        self.aggs.aggs.len(),
                        &mgr,
                        &ctx,
                    )?);
                }
            }
            if partials.is_empty() {
                continue;
            }
            let mut spec = self.merge.clone();
            // A spilled build has at least one real group; never let a
            // per-partition merge synthesize the ungrouped-empty row.
            spec.ungrouped = false;
            self.spill_emit = Some(MergeAggrOp::new(spec, partials, self.vector_size, ctx));
            return Ok(true);
        }
        Ok(false)
    }
}

impl Operator for HashAggrOp {
    fn fields(&self) -> &[OutField] {
        &self.merge.fields
    }

    fn next(&mut self, prof: &mut Profiler) -> Result<Option<&Batch>, PlanError> {
        if !self.built {
            self.build(prof)?;
            // SQL semantics: an ungrouped aggregation over an empty
            // input still yields one row (count 0, sums 0). A spilled
            // build always has real groups, so this never races the
            // partitioned emission below.
            if self.agg_runs.is_empty() && self.key_progs.is_empty() && self.n_groups == 0 {
                self.n_groups = 1;
                self.group_counts.push(0);
                self.aggs.grow(1);
            }
        }
        if !self.agg_runs.is_empty() {
            // Spilled emission: one radix partition at a time, each
            // re-aggregated by a bounded merge over its run segments.
            loop {
                if let Some(m) = self.spill_emit.as_mut() {
                    if m.next(prof)?.is_some() {
                        return Ok(Some(
                            self.spill_emit.as_ref().expect("just emitted").last_out(),
                        ));
                    }
                    self.spill_emit = None;
                }
                if !self.load_next_partition()? {
                    return Ok(None);
                }
            }
        }
        if self.emit_pos >= self.n_groups {
            return Ok(None);
        }
        let start = self.emit_pos;
        let n = (self.n_groups - start).min(self.vector_size);
        self.emit_pos += n;
        self.out.reset();
        self.out.len = n;
        let nkeys = self.key_progs.len();
        for (k, keys) in self.table.keys().iter().enumerate() {
            let mut v = self.pools[k].writable();
            emit_key(&mut v, keys, self.merge.key_dicts[k].as_ref(), start, n);
            self.pools[k].publish(v, &mut self.out);
        }
        for (a, agg) in self.aggs.aggs.iter().enumerate() {
            let mut v = self.pools[nkeys + a].writable();
            agg.emit(&self.group_counts, &mut v, start, n, prof);
            self.pools[nkeys + a].publish(v, &mut self.out);
        }
        Ok(Some(&self.out))
    }

    fn reset(&mut self) {
        self.child.reset();
        self.mem.release_all();
        self.table.clear();
        self.group_counts.clear();
        self.n_groups = 0;
        self.built = false;
        self.emit_pos = 0;
        self.agg_runs.clear();
        self.spill_part = 0;
        self.spill_emit = None;
        self.aggs.clear();
    }

    fn take_partial_aggr(&mut self, prof: &mut Profiler) -> Result<Option<AggrPartial>, PlanError> {
        if !self.built {
            self.build(prof)?;
        }
        // No ungrouped-empty synthesis here: the merge stage decides
        // whether the *combined* result is empty.
        Ok(Some(AggrPartial {
            accs: self.aggs.take(&self.group_counts),
            counts: std::mem::take(&mut self.group_counts),
            keys: self.table.take_keys(),
            n_groups: self.n_groups,
            runs: std::mem::take(&mut self.agg_runs),
        }))
    }
}

/// One key of a direct aggregation: a small-domain code column.
#[derive(Debug, Clone)]
pub struct DirectKey {
    /// Output column name.
    pub name: String,
    /// Input column (must be `U8` or `U16` codes in the dataflow).
    pub col: usize,
    /// Domain cardinality (dictionary size, or 256 for raw `u8`).
    pub card: u32,
    /// Dictionary to decode codes on emission (`None` emits raw codes).
    pub dict: Option<EnumDict>,
}

/// `DirectAggr` — aggregate-table slots indexed by key bits (§4.1.2).
pub struct DirectAggrOp {
    child: Box<dyn Operator>,
    keys: Vec<DirectKey>,
    aggs: AggStates,
    fields: Vec<OutField>,
    slots: usize,
    group_counts: Vec<i64>,
    grp_buf: Vec<u32>,
    /// Occupied slots in first-seen order — emission is deterministic.
    occupied: Vec<u32>,
    built: bool,
    emit_pos: usize,
    pools: Vec<VecPool>,
    out: Batch,
    vector_size: usize,
    mem: MemTracker,
}

impl DirectAggrOp {
    /// Maximum accumulator-table size the check walk accepts.
    pub const MAX_SLOTS: usize = 1 << 20;

    /// A direct aggregation over `child` on the code-column `keys` the
    /// check walk resolved (their domain product is within
    /// [`Self::MAX_SLOTS`]); `fields` is the output shape.
    pub(crate) fn new(
        child: Box<dyn Operator>,
        keys: Vec<DirectKey>,
        aggs: &[AggSpec],
        fields: Vec<OutField>,
        vector_size: usize,
        ctx: Arc<QueryContext>,
    ) -> Self {
        let pools = fields
            .iter()
            .map(|f| VecPool::new(f.ty, vector_size))
            .collect();
        DirectAggrOp {
            child,
            slots: keys.iter().map(|k| k.card as usize).product(),
            keys,
            aggs: AggStates::new(aggs, vector_size),
            fields,
            group_counts: Vec::new(),
            grp_buf: Vec::new(),
            occupied: Vec::new(),
            built: false,
            emit_pos: 0,
            pools,
            out: Batch::new(),
            vector_size,
            mem: MemTracker::new(ctx, "direct aggregation table"),
        }
    }

    fn build(&mut self, prof: &mut Profiler) -> Result<(), PlanError> {
        // Pre-size accumulators to the full (small) domain; the whole
        // table is charged up front (its size is fixed by the key
        // domain, not the data).
        self.mem
            .ensure(self.slots * (8 + self.aggs.acc_columns() * 8 + 4))?;
        while let Some(batch) = self.child.next(prof)? {
            let t_op = prof.start();
            let n = batch.len;
            let sel = batch.sel.as_deref();
            let live = sel.map_or(n, |s| s.len());
            self.grp_buf.resize(n, 0);
            // Direct group computation: mixed-radix code chaining.
            for (ki, key) in self.keys.iter().enumerate() {
                let t0 = prof.start();
                let kv = &batch.columns[key.col];
                let (sig, bytes) = match kv.as_ref() {
                    Vector::U8(codes) => {
                        if ki == 0 {
                            vhash::map_directgrp_u8_col(&mut self.grp_buf, codes, sel);
                            ("map_uidx_u8_col", live * 5)
                        } else {
                            vhash::map_directgrp_u8_chain(&mut self.grp_buf, codes, key.card, sel);
                            ("map_directgrp_uidx_col_u8_col", live * 9)
                        }
                    }
                    Vector::U16(codes) => {
                        if ki == 0 {
                            vhash::map_directgrp_u16_col(&mut self.grp_buf, codes, sel);
                            ("map_uidx_u16_col", live * 6)
                        } else {
                            vhash::map_directgrp_u16_chain(&mut self.grp_buf, codes, key.card, sel);
                            ("map_directgrp_uidx_col_u16_col", live * 10)
                        }
                    }
                    other => panic!("direct key must be codes, got {:?}", other.scalar_type()),
                };
                prof.record_prim(sig, t0, live, bytes);
            }
            // Counts, first-seen occupancy and accumulators.
            self.aggs.update(
                batch,
                &self.grp_buf,
                sel,
                self.slots,
                &mut self.group_counts,
                Some(&mut self.occupied),
                prof,
            );
            prof.record_op("Aggr(DIRECT)", t_op, live);
        }
        self.built = true;
        Ok(())
    }

    /// Decode slot id into the key value for key `ki`.
    fn key_code(&self, slot: u32, ki: usize) -> u32 {
        // Keys chain as g = ((k0 * card1) + k1) * card2 + k2 …
        let mut divisor = 1u32;
        for k in self.keys.iter().skip(ki + 1) {
            divisor *= k.card;
        }
        (slot / divisor) % self.keys[ki].card
    }
}

impl Operator for DirectAggrOp {
    fn fields(&self) -> &[OutField] {
        &self.fields
    }

    fn next(&mut self, prof: &mut Profiler) -> Result<Option<&Batch>, PlanError> {
        if !self.built {
            self.build(prof)?;
        }
        if self.emit_pos >= self.occupied.len() {
            return Ok(None);
        }
        let start = self.emit_pos;
        let n = (self.occupied.len() - start).min(self.vector_size);
        self.emit_pos += n;
        self.out.reset();
        self.out.len = n;
        let nkeys = self.keys.len();
        for ki in 0..nkeys {
            let mut v = self.pools[ki].writable();
            for &slot in &self.occupied[start..start + n] {
                let code = self.key_code(slot, ki);
                match &self.keys[ki].dict {
                    None => match &mut v {
                        Vector::U8(b) => b.push(code as u8),
                        Vector::U16(b) => b.push(code as u16),
                        other => panic!("raw code emission into {:?}", other.scalar_type()),
                    },
                    Some(dict) => v.push_value(&dict.decode(code as usize)),
                }
            }
            self.pools[ki].publish(v, &mut self.out);
        }
        // Compact the aggregate slots for occupied groups.
        for (a, agg) in self.aggs.aggs.iter().enumerate() {
            let mut v = self.pools[nkeys + a].writable();
            for &slot in &self.occupied[start..start + n] {
                agg.emit(&self.group_counts, &mut v, slot as usize, 1, prof);
            }
            self.pools[nkeys + a].publish(v, &mut self.out);
        }
        Ok(Some(&self.out))
    }

    fn reset(&mut self) {
        self.child.reset();
        self.mem.release_all();
        self.group_counts.clear();
        self.occupied.clear();
        self.built = false;
        self.emit_pos = 0;
        self.aggs.clear();
    }

    fn take_partial_aggr(&mut self, prof: &mut Profiler) -> Result<Option<AggrPartial>, PlanError> {
        if !self.built {
            self.build(prof)?;
        }
        // Compact the direct table down to occupied slots, emitting raw
        // key codes; the merge stage re-groups by (code…) tuples.
        let n = self.occupied.len();
        let mut keys = Vec::with_capacity(self.keys.len());
        for (ki, key) in self.keys.iter().enumerate() {
            let ty = self.child.fields()[key.col].ty;
            let mut v = Vector::with_capacity(ty, n);
            for &slot in &self.occupied {
                let code = self.key_code(slot, ki);
                match &mut v {
                    Vector::U8(b) => b.push(code as u8),
                    Vector::U16(b) => b.push(code as u16),
                    other => panic!("direct key codes are {:?}", other.scalar_type()),
                }
            }
            keys.push(v);
        }
        let counts: Vec<i64> = self
            .occupied
            .iter()
            .map(|&s| self.group_counts[s as usize])
            .collect();
        let accs = self.aggs.gather(&self.group_counts, &self.occupied);
        Ok(Some(AggrPartial {
            keys,
            counts,
            accs,
            n_groups: n,
            runs: Vec::new(),
        }))
    }
}

/// `OrdAggr` — ordered aggregation: "chosen if all group-members will
/// arrive right after each other in the source Dataflow" (§4.1.2).
///
/// **Precondition:** the input is clustered on the keys — equal key
/// tuples are adjacent. Every run of equal keys becomes one output
/// group, so unclustered input yields the same key more than once. The
/// check walk picks this operator for a generic `Aggr` only when every
/// key is proven sorted; a forced `Plan::OrdAggr` over keys it cannot
/// prove sorted stays legal (clustered is weaker than sorted) and is
/// noted in `--explain-check`.
///
/// Streaming: group ids are the run numbers within one input vector
/// (`aggr_ordered_boundaries_*`), with the group the previous vector
/// left open in slot 0. After each vector every group but the last is
/// complete and is emitted; the last one's key and accumulators move to
/// slot 0. The state is one vector of groups whatever the group count,
/// so this operator never spills.
pub struct OrdAggrOp {
    child: Box<dyn Operator>,
    groups: OrdGroups,
    fields: Vec<OutField>,
    input_done: bool,
    pools: Vec<VecPool>,
    out: Batch,
    vector_size: usize,
}

/// The groups an [`OrdAggrOp`] has in flight.
struct OrdGroups {
    key_progs: Vec<ExprProg>,
    aggs: AggStates,
    /// Keys, tuple counts and (in `aggs`) accumulators of the groups
    /// `[0, n)`, of which `[emit_pos, emit_end)` are complete and not
    /// yet emitted.
    keys: Vec<Vector>,
    counts: Vec<i64>,
    n: usize,
    emit_pos: usize,
    emit_end: usize,
    // Scratch.
    grp_buf: Vec<u32>,
    starts: Vec<u32>,
    key_scratch: Vec<Vector>,
    mem: MemTracker,
}

/// Run `aggr_ordered_boundaries_<ty>_col` for one key column; `open` is
/// the stored key column of the groups in flight when its slot 0 is a
/// group the previous vector left open.
fn ordered_boundaries(
    grp: &mut [u32],
    key: &Vector,
    open: Option<&Vector>,
    sel: Option<&SelVec>,
    first: bool,
) -> (usize, &'static str) {
    macro_rules! dispatch {
        ($($variant:ident $kernel:ident $first:expr,)*) => {
            match key {
                $(Vector::$variant(k) => (
                    vhash::$kernel(grp, k, open.map($first), sel, first),
                    stringify!($kernel),
                ),)*
            }
        };
    }
    dispatch! {
        I8 aggr_ordered_boundaries_i8_col |o| o.as_i8()[0],
        I16 aggr_ordered_boundaries_i16_col |o| o.as_i16()[0],
        I32 aggr_ordered_boundaries_i32_col |o| o.as_i32()[0],
        I64 aggr_ordered_boundaries_i64_col |o| o.as_i64()[0],
        U8 aggr_ordered_boundaries_u8_col |o| o.as_u8()[0],
        U16 aggr_ordered_boundaries_u16_col |o| o.as_u16()[0],
        U32 aggr_ordered_boundaries_u32_col |o| o.as_u32()[0],
        U64 aggr_ordered_boundaries_u64_col |o| o.as_u64()[0],
        F64 aggr_ordered_boundaries_f64_col |o| o.as_f64()[0],
        Bool aggr_ordered_boundaries_bool_col |o| o.as_bool()[0],
        Str aggr_ordered_boundaries_str_col |o| o.as_str().get(0),
    }
}

impl OrdAggrOp {
    /// An ordered aggregation over `child` (input must be clustered on
    /// the keys) from the verified key and aggregate programs; `fields`
    /// is the output shape.
    pub(crate) fn new(
        child: Box<dyn Operator>,
        keys: &[Arc<ExprCode>],
        aggs: &[AggSpec],
        fields: Vec<OutField>,
        vector_size: usize,
        ctx: Arc<QueryContext>,
    ) -> Self {
        let pools = fields
            .iter()
            .map(|f| VecPool::new(f.ty, vector_size))
            .collect();
        let key_store = || -> Vec<Vector> {
            keys.iter()
                .map(|c| Vector::with_capacity(c.result_type(), 16))
                .collect()
        };
        OrdAggrOp {
            child,
            groups: OrdGroups {
                keys: key_store(),
                key_scratch: key_store(),
                key_progs: keys.iter().map(|c| ExprProg::new(c, vector_size)).collect(),
                aggs: AggStates::new(aggs, vector_size),
                counts: Vec::new(),
                n: 0,
                emit_pos: 0,
                emit_end: 0,
                grp_buf: Vec::new(),
                starts: Vec::new(),
                mem: MemTracker::new(ctx, "ordered aggregation state"),
            },
            fields,
            input_done: false,
            pools,
            out: Batch::new(),
            vector_size,
        }
    }
}

impl OrdGroups {
    /// Fold one input vector in; every group but the last becomes
    /// emittable.
    fn consume(&mut self, batch: &Batch, prof: &mut Profiler) -> Result<(), PlanError> {
        let t_op = prof.start();
        let n = batch.len;
        let sel = batch.sel.as_deref();
        let live = sel.map_or(n, |s| s.len());
        let key_vecs: Vec<&Vector> = self
            .key_progs
            .iter_mut()
            .map(|p| p.eval(batch, sel, prof))
            .collect();
        // Group ids: the run number of each live tuple, counting from
        // the open group in slot 0 (no key: everything is one run).
        debug_assert!(
            self.n <= 1,
            "emitted groups are retired before the next vector"
        );
        let open = self.n == 1;
        self.grp_buf.clear();
        self.grp_buf.resize(n, 0);
        let mut in_use = (live > 0) as usize;
        for (k, kv) in key_vecs.iter().enumerate() {
            let t0 = prof.start();
            let stored = open.then(|| &self.keys[k]);
            let (ids, sig) = ordered_boundaries(&mut self.grp_buf, kv, stored, sel, k == 0);
            in_use = ids;
            prof.record_prim(sig, t0, live, live * (kv.scalar_type().width() + 4));
        }
        // The keys of the groups this vector opened, in group order.
        let t0 = prof.start();
        vhash::aggr_ordered_starts_u32_col(&mut self.starts, &self.grp_buf, sel, open);
        prof.record_prim("aggr_ordered_starts_u32_col", t0, live, live * 4);
        for ((store, scratch), kv) in self
            .keys
            .iter_mut()
            .zip(&mut self.key_scratch)
            .zip(&key_vecs)
        {
            gather_rows(scratch, kv, &self.starts);
            extend_range(store, scratch, 0, self.starts.len());
        }
        self.n = self.n.max(in_use);
        self.aggs.update(
            batch,
            &self.grp_buf,
            sel,
            self.n,
            &mut self.counts,
            None,
            prof,
        );
        self.emit_end = self.n.saturating_sub(1);
        prof.record_op("Aggr(ORDERED)", t_op, live);
        let bytes = self.keys.iter().map(|v| v.byte_size()).sum::<usize>()
            + self.n * (8 + self.aggs.acc_columns() * 8);
        self.mem.ensure(bytes)
    }

    /// Drop the emitted groups; an open one (the last) moves to slot 0.
    fn retire_emitted(&mut self) {
        let keep = self.n - self.emit_end;
        for (store, scratch) in self.keys.iter_mut().zip(&mut self.key_scratch) {
            scratch.clear();
            extend_range(scratch, store, self.emit_end, keep);
            std::mem::swap(store, scratch);
        }
        self.counts.drain(..self.emit_end);
        self.aggs.drain_front(self.emit_end);
        self.n = keep;
        self.emit_pos = 0;
        self.emit_end = 0;
    }
}

impl Operator for OrdAggrOp {
    fn fields(&self) -> &[OutField] {
        &self.fields
    }

    fn next(&mut self, prof: &mut Profiler) -> Result<Option<&Batch>, PlanError> {
        let g = &mut self.groups;
        while g.emit_pos == g.emit_end {
            if g.emit_end > 0 {
                g.retire_emitted();
            }
            if self.input_done {
                return Ok(None);
            }
            match self.child.next(prof)? {
                Some(batch) => g.consume(batch, prof)?,
                None => {
                    // The open group has seen its last tuple.
                    self.input_done = true;
                    g.emit_end = g.n;
                }
            }
        }
        let start = g.emit_pos;
        let n = (g.emit_end - start).min(self.vector_size);
        g.emit_pos += n;
        self.out.reset();
        self.out.len = n;
        let nkeys = g.keys.len();
        for (k, keys) in g.keys.iter().enumerate() {
            let mut v = self.pools[k].writable();
            extend_range(&mut v, keys, start, n);
            self.pools[k].publish(v, &mut self.out);
        }
        for (a, agg) in g.aggs.aggs.iter().enumerate() {
            let mut v = self.pools[nkeys + a].writable();
            agg.emit(&g.counts, &mut v, start, n, prof);
            self.pools[nkeys + a].publish(v, &mut self.out);
        }
        Ok(Some(&self.out))
    }

    fn reset(&mut self) {
        self.child.reset();
        let g = &mut self.groups;
        g.mem.release_all();
        g.counts.clear();
        for v in &mut g.keys {
            v.clear();
        }
        g.n = 0;
        g.emit_pos = 0;
        g.emit_end = 0;
        g.aggs.clear();
        self.input_done = false;
    }
}
