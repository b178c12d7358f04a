//! Aggregation: the three physical operators of §4.1.2.
//!
//! "Aggregation is supported by three physical operators: (i) direct
//! aggregation, (ii) hash aggregation, and (iii) ordered aggregation."
//!
//! * [`DirectAggrOp`] — for small-domain keys whose bit representation
//!   directly indexes the accumulator table (the hard-coded Q1 trick of
//!   §3.3: `(returnflag << 8) + linestatus`).
//! * [`HashAggrOp`] — the general case: vectorized hashing, scalar
//!   hash-table maintenance, vectorized accumulator updates.
//! * [`OrdAggrOp`] — groups arrive consecutively (input clustered on the
//!   keys); constant memory, streaming emission.
//!
//! All three share the aggregate-state machinery: per aggregate an
//! *initialization* (accumulator growth), vectorized *update*
//! primitives (`aggr_sum_*`, `aggr_count`), and an *epilogue*
//! (`avg = sum / count`), mirroring the paper's generated triples.

use crate::batch::{Batch, OutField, VecPool};
use crate::compile::{ExprCode, ExprProg};
use crate::expr::AggFunc;
use crate::govern::{MemTracker, QueryContext};
use crate::ops::parallel::MergeAggrOp;
use crate::ops::{eq_at, extend_range, push_from, Operator};
use crate::profile::Profiler;
use crate::spill::{agg_partition, read_agg_segment, AggRun, AggSegment, SPILL_BLOCK_ROWS};
use crate::PlanError;
use std::sync::Arc;
use x100_storage::EnumDict;
use x100_vector::{aggr as vaggr, hash as vhash, ScalarType, SelVec, Vector};

/// Typed accumulator storage.
enum AccData {
    F64(Vec<f64>),
    I64(Vec<i64>),
}

/// An aggregate accumulator detached from its operator: the
/// thread-safe (no `Rc`) payload a parallel worker ships to the merge
/// stage. Same layout as the internal accumulator storage.
#[derive(Debug, Clone)]
pub enum PartialAcc {
    /// f64 accumulators (sums, f64 min/max).
    F64(Vec<f64>),
    /// i64 accumulators (counts, integer sums/min/max).
    I64(Vec<i64>),
}

impl PartialAcc {
    /// Accumulator scalar type.
    pub fn ty(&self) -> ScalarType {
        match self {
            PartialAcc::F64(_) => ScalarType::F64,
            PartialAcc::I64(_) => ScalarType::I64,
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

impl AccData {
    #[allow(dead_code)]
    fn len(&self) -> usize {
        match self {
            AccData::F64(v) => v.len(),
            AccData::I64(v) => v.len(),
        }
    }

    fn ty(&self) -> ScalarType {
        match self {
            AccData::F64(_) => ScalarType::F64,
            AccData::I64(_) => ScalarType::I64,
        }
    }

    fn grow(&mut self, n: usize, init: f64) {
        match self {
            AccData::F64(v) => v.resize(n, init),
            AccData::I64(v) => v.resize(n, init as i64),
        }
    }
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

    /// How the merge stage combines this aggregate's partials.
    pub(crate) fn merge_rule(&self) -> MergeAgg {
        MergeAgg {
            func: self.func,
            acc_ty: self.acc_ty,
            init: self.init_value(),
        }
    }
}

/// One aggregate's running state.
struct AggState {
    func: AggFunc,
    /// Argument program (`None` for `Count`).
    prog: Option<ExprProg>,
    acc: AccData,
    sig: String,
    init: f64,
}

impl AggState {
    fn new(spec: &AggSpec, vector_size: usize) -> Self {
        AggState {
            func: spec.func,
            prog: spec.arg.as_ref().map(|c| ExprProg::new(c, vector_size)),
            acc: match spec.acc_ty {
                ScalarType::F64 => AccData::F64(Vec::new()),
                _ => AccData::I64(Vec::new()),
            },
            sig: spec.sig.clone(),
            init: spec.init_value(),
        }
    }

    /// Vectorized update for one batch.
    fn update(
        &mut self,
        batch: &Batch,
        grp: &[u32],
        sel: Option<&SelVec>,
        n_groups: usize,
        prof: &mut Profiler,
    ) {
        self.acc.grow(n_groups, self.init);
        let live = sel.map_or(batch.len, |s| s.len());
        match (&mut self.prog, self.func) {
            (None, AggFunc::Count) => {
                let AccData::I64(acc) = &mut self.acc else {
                    unreachable!()
                };
                let t0 = prof.start();
                vaggr::aggr_count(acc, grp, sel);
                prof.record_prim(&self.sig, t0, live, live * 4 + live * 8);
            }
            (Some(prog), func) => {
                let vals = prog.eval(batch, sel, prof);
                let t0 = prof.start();
                let bytes = live * (vals.scalar_type().width() + 4 + 8);
                match (&mut self.acc, vals) {
                    (AccData::F64(acc), Vector::F64(v)) => match func {
                        AggFunc::Sum | AggFunc::Avg => vaggr::aggr_sum_f64_col(acc, v, grp, sel),
                        AggFunc::Min => vaggr::aggr_min_f64_col(acc, v, grp, sel),
                        AggFunc::Max => vaggr::aggr_max_f64_col(acc, v, grp, sel),
                        AggFunc::Count => unreachable!(),
                    },
                    (AccData::I64(acc), Vector::I64(v)) => match func {
                        AggFunc::Sum => vaggr::aggr_sum_i64_col(acc, v, grp, sel),
                        AggFunc::Min => vaggr::aggr_min_i64_col(acc, v, grp, sel),
                        AggFunc::Max => vaggr::aggr_max_i64_col(acc, v, grp, sel),
                        AggFunc::Avg | AggFunc::Count => unreachable!(),
                    },
                    (acc, v) => panic!(
                        "aggregate type mismatch: acc {:?}, values {:?}",
                        acc.ty(),
                        v.scalar_type()
                    ),
                }
                prof.record_prim(&self.sig, t0, live, bytes);
            }
            (None, _) => unreachable!("only Count has no argument"),
        }
    }

    /// Emit `[start, start+n)` of the final values into `out`,
    /// applying the AVG epilogue against `counts`.
    fn emit(&self, out: &mut Vector, start: usize, n: usize, counts: &[i64], prof: &mut Profiler) {
        match (self.func, &self.acc) {
            (AggFunc::Avg, AccData::F64(sums)) => {
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
            (_, AccData::F64(v)) => out.as_f64_mut().extend_from_slice(&v[start..start + n]),
            (_, AccData::I64(v)) => out.as_i64_mut().extend_from_slice(&v[start..start + n]),
        }
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

/// Grow an open-addressing bucket array until it can absorb `target`
/// groups at ≤70% load, rehashing the existing `n_groups` entries.
#[allow(clippy::needless_range_loop)] // indexing both hash and bucket arrays
pub(crate) fn ensure_capacity(
    buckets: &mut Vec<u32>,
    group_hashes: &[u64],
    n_groups: usize,
    target: usize,
) {
    let mut cap = buckets.len();
    while cap * 7 <= target * 10 {
        cap *= 4;
    }
    if cap == buckets.len() {
        return;
    }
    let mask = (cap - 1) as u64;
    let mut grown = vec![0u32; cap];
    for g in 0..n_groups {
        let mut b = (group_hashes[g] & mask) as usize;
        while grown[b] != 0 {
            b = (b + 1) & mask as usize;
        }
        grown[b] = g as u32 + 1;
    }
    *buckets = grown;
}

/// `HashAggr(Dataflow, List<Exp>, List<AggrExp>)` — general grouping.
pub struct HashAggrOp {
    child: Box<dyn Operator>,
    key_progs: Vec<ExprProg>,
    aggs: Vec<AggState>,
    /// Output shape, physical key types and the enum dictionaries of
    /// code-typed keys (grouping runs on raw codes, emission decodes);
    /// also the recipe the spilled emission re-aggregates with.
    merge: MergeSpec,
    // Hash table: open addressing, bucket holds group_id + 1 (0 = empty).
    buckets: Vec<u32>,
    group_hashes: Vec<u64>,
    key_store: Vec<Vector>,
    group_counts: Vec<i64>,
    n_groups: usize,
    // Scratch.
    hash_buf: Vec<u64>,
    grp_buf: Vec<u32>,
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
            aggs: aggs.iter().map(|a| AggState::new(a, vector_size)).collect(),
            buckets: vec![0; 1024],
            group_hashes: Vec::new(),
            key_store: merge
                .key_types
                .iter()
                .map(|&ty| Vector::with_capacity(ty, 16))
                .collect(),
            group_counts: Vec::new(),
            n_groups: 0,
            hash_buf: Vec::new(),
            grp_buf: Vec::new(),
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
        self.buckets.len() * 4
            + self.group_hashes.len() * 8
            + self.key_store.iter().map(|v| v.byte_size()).sum::<usize>()
            + self.group_counts.len() * 8
            + self.aggs.len() * self.n_groups * 8
    }

    /// Consume the whole child dataflow into the hash table.
    fn build(&mut self, prof: &mut Profiler) -> Result<(), PlanError> {
        while let Some(batch) = self.child.next(prof)? {
            let t_op = prof.start();
            let n = batch.len;
            let sel = batch.sel.as_deref();
            // Reserve table capacity for the worst case of this batch
            // (every live tuple a new group) before the insertion loop:
            // the open-addressing probe must never face a full table.
            let live_worst = sel.map_or(n, |s| s.len());
            ensure_capacity(
                &mut self.buckets,
                &self.group_hashes,
                self.n_groups,
                self.n_groups + live_worst,
            );
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
            // 3. Hash table maintenance (scalar loop, like Fig. 6).
            let t0 = prof.start();
            let mask = (self.buckets.len() - 1) as u64;
            let mut maintain = |i: usize,
                                buckets: &mut Vec<u32>,
                                key_store: &mut Vec<Vector>,
                                group_hashes: &mut Vec<u64>,
                                n_groups: &mut usize| {
                let h = self.hash_buf[i];
                let mut b = (h & mask) as usize;
                loop {
                    let slot = buckets[b];
                    if slot == 0 {
                        let g = *n_groups;
                        *n_groups += 1;
                        for (ks, kv) in key_store.iter_mut().zip(key_vecs.iter()) {
                            push_from(ks, kv, i);
                        }
                        group_hashes.push(h);
                        buckets[b] = g as u32 + 1;
                        self.grp_buf[i] = g as u32;
                        break;
                    }
                    let g = (slot - 1) as usize;
                    if group_hashes[g] == h
                        && key_store
                            .iter()
                            .zip(key_vecs.iter())
                            .all(|(ks, kv)| eq_at(ks, g, kv, i))
                    {
                        self.grp_buf[i] = g as u32;
                        break;
                    }
                    b = (b + 1) & mask as usize;
                }
            };
            let live = sel.map_or(n, |s| s.len());
            match sel {
                None => {
                    for i in 0..n {
                        maintain(
                            i,
                            &mut self.buckets,
                            &mut self.key_store,
                            &mut self.group_hashes,
                            &mut self.n_groups,
                        );
                    }
                }
                Some(s) => {
                    for i in s.iter() {
                        maintain(
                            i,
                            &mut self.buckets,
                            &mut self.key_store,
                            &mut self.group_hashes,
                            &mut self.n_groups,
                        );
                    }
                }
            }
            prof.record_prim("aggr_hashtable_maintain", t0, live, live * 12);
            // 4. Vectorized accumulator updates.
            self.group_counts.resize(self.n_groups, 0);
            let tc = prof.start();
            vaggr::aggr_count(&mut self.group_counts, &self.grp_buf, sel);
            prof.record_prim("aggr_count_u32_col", tc, live, live * 12);
            for agg in &mut self.aggs {
                agg.update(batch, &self.grp_buf, sel, self.n_groups, prof);
            }
            prof.record_op("Aggr(HASH)", t_op, live);
            let fp = self.footprint();
            if !self.mem.try_ensure(fp) {
                // Memory budget exhausted. With a spill budget, evict
                // the table as a partitioned on-disk run; without one,
                // abort exactly as before the spill subsystem.
                if self.mem.context().spill_budget().is_some() && self.n_groups > 0 {
                    self.spill_table()?;
                } else {
                    self.mem.ensure(fp)?;
                }
            }
        }
        if !self.agg_runs.is_empty() && self.n_groups > 0 {
            // The in-memory remainder joins the runs so emission sees
            // one uniform source list per partition.
            self.spill_table()?;
        }
        self.built = true;
        Ok(())
    }

    /// Evict the current table as one partitioned spill run and free
    /// its memory charge. Groups are radix-partitioned by the top
    /// hash bits; first-seen order is preserved within a partition.
    fn spill_table(&mut self) -> Result<(), PlanError> {
        for agg in &mut self.aggs {
            agg.acc.grow(self.n_groups, agg.init);
        }
        self.group_counts.resize(self.n_groups, 0);
        let ctx = Arc::clone(self.mem.context());
        let mgr = ctx.spill_manager()?;
        let mut w = mgr.start_run(&ctx, "hash aggregation table")?;
        let mut parts: Vec<Vec<u32>> = vec![Vec::new(); crate::spill::AGG_SPILL_PARTS];
        for g in 0..self.n_groups {
            parts[agg_partition(self.group_hashes[g])].push(g as u32);
        }
        let mut segments = Vec::new();
        for (p, gids) in parts.iter().enumerate() {
            if gids.is_empty() {
                continue;
            }
            let offset = w.offset();
            let blocks_before = w.blocks();
            for chunk in gids.chunks(SPILL_BLOCK_ROWS) {
                let mut block: Vec<Vector> =
                    Vec::with_capacity(self.key_store.len() + 1 + self.aggs.len());
                for ks in &self.key_store {
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
                for agg in &self.aggs {
                    block.push(match &agg.acc {
                        AccData::F64(a) => {
                            Vector::F64(chunk.iter().map(|&g| a[g as usize]).collect())
                        }
                        AccData::I64(a) => {
                            Vector::I64(chunk.iter().map(|&g| a[g as usize]).collect())
                        }
                    });
                }
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
        self.buckets = vec![0; 1024];
        self.group_hashes = Vec::new();
        for ks in &mut self.key_store {
            *ks = Vector::with_capacity(ks.scalar_type(), 16);
        }
        self.group_counts = Vec::new();
        self.n_groups = 0;
        for agg in &mut self.aggs {
            agg.acc = match &agg.acc {
                AccData::F64(_) => AccData::F64(Vec::new()),
                AccData::I64(_) => AccData::I64(Vec::new()),
            };
        }
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
                        self.key_store.len(),
                        self.aggs.len(),
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
                for agg in &mut self.aggs {
                    agg.acc.grow(1, agg.init);
                }
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
        let nkeys = self.key_store.len();
        for k in 0..nkeys {
            let mut v = self.pools[k].writable();
            match &self.merge.key_dicts[k] {
                None => extend_range(&mut v, &self.key_store[k], start, n),
                Some(dict) => {
                    // Grouped on codes; decode the emitted slice.
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
        for (a, agg) in self.aggs.iter().enumerate() {
            let mut v = self.pools[nkeys + a].writable();
            agg.emit(&mut v, start, n, &self.group_counts, prof);
            self.pools[nkeys + a].publish(v, &mut self.out);
        }
        Ok(Some(&self.out))
    }

    fn reset(&mut self) {
        self.child.reset();
        self.mem.release_all();
        self.buckets = vec![0; 1024];
        self.group_hashes.clear();
        for v in &mut self.key_store {
            v.clear();
        }
        self.group_counts.clear();
        self.n_groups = 0;
        self.built = false;
        self.emit_pos = 0;
        self.agg_runs.clear();
        self.spill_part = 0;
        self.spill_emit = None;
        for agg in &mut self.aggs {
            agg.acc.grow(0, 0.0);
            match &mut agg.acc {
                AccData::F64(v) => v.clear(),
                AccData::I64(v) => v.clear(),
            }
        }
    }

    fn take_partial_aggr(&mut self, prof: &mut Profiler) -> Result<Option<AggrPartial>, PlanError> {
        if !self.built {
            self.build(prof)?;
        }
        // No ungrouped-empty synthesis here: the merge stage decides
        // whether the *combined* result is empty.
        for agg in &mut self.aggs {
            agg.acc.grow(self.n_groups, agg.init);
        }
        self.group_counts.resize(self.n_groups, 0);
        Ok(Some(AggrPartial {
            keys: std::mem::take(&mut self.key_store),
            counts: std::mem::take(&mut self.group_counts),
            accs: self
                .aggs
                .iter_mut()
                .map(
                    |a| match std::mem::replace(&mut a.acc, AccData::I64(Vec::new())) {
                        AccData::F64(v) => PartialAcc::F64(v),
                        AccData::I64(v) => PartialAcc::I64(v),
                    },
                )
                .collect(),
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
    aggs: Vec<AggState>,
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
            aggs: aggs.iter().map(|a| AggState::new(a, vector_size)).collect(),
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
            .ensure(self.slots * (8 + self.aggs.len() * 8 + 4))?;
        self.group_counts.resize(self.slots, 0);
        for agg in &mut self.aggs {
            agg.acc.grow(self.slots, agg.init);
        }
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
                            for (g, &c) in self.grp_buf.iter_mut().zip(codes.iter()) {
                                *g = c as u32;
                            }
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
            // Track first-seen occupancy, then update counts.
            let t0 = prof.start();
            let track = |i: usize, counts: &mut [i64], occupied: &mut Vec<u32>, grp: &[u32]| {
                let g = grp[i] as usize;
                if counts[g] == 0 {
                    occupied.push(g as u32);
                }
                counts[g] += 1;
            };
            match sel {
                None => {
                    for i in 0..n {
                        track(i, &mut self.group_counts, &mut self.occupied, &self.grp_buf);
                    }
                }
                Some(s) => {
                    for i in s.iter() {
                        track(i, &mut self.group_counts, &mut self.occupied, &self.grp_buf);
                    }
                }
            }
            prof.record_prim("aggr_count_u32_col", t0, live, live * 12);
            for agg in &mut self.aggs {
                agg.update(batch, &self.grp_buf, sel, self.slots, prof);
            }
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
        for (a, agg) in self.aggs.iter().enumerate() {
            let mut v = self.pools[nkeys + a].writable();
            for &slot in &self.occupied[start..start + n] {
                agg.emit(&mut v, slot as usize, 1, &self.group_counts, prof);
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
        for agg in &mut self.aggs {
            match &mut agg.acc {
                AccData::F64(v) => v.clear(),
                AccData::I64(v) => v.clear(),
            }
        }
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
        let accs: Vec<PartialAcc> = self
            .aggs
            .iter()
            .map(|a| match &a.acc {
                AccData::F64(v) => {
                    PartialAcc::F64(self.occupied.iter().map(|&s| v[s as usize]).collect())
                }
                AccData::I64(v) => {
                    PartialAcc::I64(self.occupied.iter().map(|&s| v[s as usize]).collect())
                }
            })
            .collect();
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
pub struct OrdAggrOp {
    child: Box<dyn Operator>,
    key_progs: Vec<ExprProg>,
    aggs: Vec<AggState>,
    fields: Vec<OutField>,
    /// Current group's key values (length-1 vectors), if any group open.
    cur_keys: Option<Vec<Vector>>,
    group_counts: Vec<i64>,
    /// Completed groups' keys, pending emission.
    done_keys: Vec<Vector>,
    n_groups: usize,
    grp_buf: Vec<u32>,
    emit_pos: usize,
    input_done: bool,
    pools: Vec<VecPool>,
    out: Batch,
    vector_size: usize,
    mem: MemTracker,
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
        OrdAggrOp {
            child,
            done_keys: keys
                .iter()
                .map(|c| Vector::with_capacity(c.result_type(), 16))
                .collect(),
            key_progs: keys.iter().map(|c| ExprProg::new(c, vector_size)).collect(),
            aggs: aggs.iter().map(|a| AggState::new(a, vector_size)).collect(),
            fields,
            cur_keys: None,
            group_counts: Vec::new(),
            n_groups: 0,
            grp_buf: Vec::new(),
            emit_pos: 0,
            input_done: false,
            pools,
            out: Batch::new(),
            vector_size,
            mem: MemTracker::new(ctx, "ordered aggregation state"),
        }
    }

    fn build(&mut self, prof: &mut Profiler) -> Result<(), PlanError> {
        while let Some(batch) = self.child.next(prof)? {
            let t_op = prof.start();
            let n = batch.len;
            let sel = batch.sel.as_deref();
            let live = sel.map_or(n, |s| s.len());
            let key_vecs: Vec<&Vector> = self
                .key_progs
                .iter_mut()
                .map(|p| p.eval(batch, sel, prof))
                .collect();
            // Assign group ids by detecting boundaries in arrival order.
            let t0 = prof.start();
            self.grp_buf.resize(n, 0);
            let mut assign = |i: usize| {
                let same = match &self.cur_keys {
                    None => false,
                    Some(cur) => cur
                        .iter()
                        .zip(key_vecs.iter())
                        .all(|(c, kv)| eq_at(c, 0, kv, i)),
                };
                if !same {
                    // Open a new group: record its keys.
                    let mut newcur = Vec::with_capacity(key_vecs.len());
                    for kv in &key_vecs {
                        let mut one = Vector::with_capacity(kv.scalar_type(), 1);
                        push_from(&mut one, kv, i);
                        // Also append to the done-key store (group order).
                        push_from(&mut self.done_keys[newcur.len()], kv, i);
                        newcur.push(one);
                    }
                    self.cur_keys = Some(newcur);
                    self.n_groups += 1;
                }
                self.grp_buf[i] = (self.n_groups - 1) as u32;
            };
            match sel {
                None => {
                    for i in 0..n {
                        assign(i);
                    }
                }
                Some(s) => {
                    for i in s.iter() {
                        assign(i);
                    }
                }
            }
            prof.record_prim("aggr_ordered_boundaries", t0, live, live * 8);
            self.group_counts.resize(self.n_groups, 0);
            let tc = prof.start();
            vaggr::aggr_count(&mut self.group_counts, &self.grp_buf, sel);
            prof.record_prim("aggr_count_u32_col", tc, live, live * 12);
            for agg in &mut self.aggs {
                agg.update(batch, &self.grp_buf, sel, self.n_groups, prof);
            }
            prof.record_op("Aggr(ORDERED)", t_op, live);
            let bytes = self.done_keys.iter().map(|v| v.byte_size()).sum::<usize>()
                + self.n_groups * (8 + self.aggs.len() * 8);
            self.mem.ensure(bytes)?;
        }
        self.input_done = true;
        Ok(())
    }
}

impl Operator for OrdAggrOp {
    fn fields(&self) -> &[OutField] {
        &self.fields
    }

    fn next(&mut self, prof: &mut Profiler) -> Result<Option<&Batch>, PlanError> {
        if !self.input_done {
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
        let nkeys = self.done_keys.len();
        for k in 0..nkeys {
            let mut v = self.pools[k].writable();
            extend_range(&mut v, &self.done_keys[k], start, n);
            self.pools[k].publish(v, &mut self.out);
        }
        for (a, agg) in self.aggs.iter().enumerate() {
            let mut v = self.pools[nkeys + a].writable();
            agg.emit(&mut v, start, n, &self.group_counts, prof);
            self.pools[nkeys + a].publish(v, &mut self.out);
        }
        Ok(Some(&self.out))
    }

    fn reset(&mut self) {
        self.child.reset();
        self.mem.release_all();
        self.cur_keys = None;
        self.group_counts.clear();
        for v in &mut self.done_keys {
            v.clear();
        }
        self.n_groups = 0;
        self.emit_pos = 0;
        self.input_done = false;
        for agg in &mut self.aggs {
            match &mut agg.acc {
                AccData::F64(v) => v.clear(),
                AccData::I64(v) => v.clear(),
            }
        }
    }
}
