//! Joins: `CartProd` and the radix-partitioned hash join.
//!
//! "X100 currently only supports left-deep joins. The default physical
//! implementation is a CartProd operator with a Select on top (i.e.
//! nested-loop join)" (§4.1.2). The plan binder composes exactly that
//! for `Join(Dataflow, Table, Exp<bool>, …)`; when a foreign-key join
//! index exists, it uses `Fetch1Join` instead (see
//! [`crate::ops::Fetch1JoinOp`]).
//!
//! [`HashJoinOp`] is our extension beyond the paper's operator list
//! (the paper's TPC-H setup avoids it via join indices): a build+probe
//! equi-join, with inner, left-outer, left-semi and left-anti modes —
//! semi/anti output *selection vectors* over the probe dataflow, so they
//! are zero-copy like `Select`.
//!
//! The build side is **radix-partitioned** on the top bits of the key
//! hash (paper §3: the hot loop must stay cache-resident): instead of
//! one monolithic bucket array that thrashes L2 for large build sides,
//! rows are scattered into `2^B` partition ranges, each with its own
//! bucket array sized under [`crate::ExecOptions::join_cache_budget`].
//! Partition bucket chains build in parallel across worker threads. A
//! blocked Bloom filter over all build hashes is probed *before* the
//! hash table so probe tuples with no possible match skip the chain
//! walk entirely. The finished [`JoinBuildTable`] is immutable and
//! `Send + Sync`: the morsel-parallel driver builds it once and lets
//! every worker probe it through [`HashJoinProbeOp`] (build once,
//! probe many).

use super::aggr::hash_keys;
use crate::batch::{Batch, OutField, SelPool, VecPool};
use crate::compile::{ExprCode, ExprProg};
use crate::govern::{panic_cause, MemTracker, QueryContext};
use crate::ops::{eq_at, push_from, Operator};
use crate::profile::Profiler;
use crate::session::ExecOptions;
use crate::PlanError;
use std::sync::Arc;
use x100_storage::Table;
use x100_vector::partition::{
    self, bloom_insert_u64_col, bloom_test_u64_col, gather_rows, map_radix_partition_u64_col,
    map_scatter_u32_col_u32_col, offsets_from_histogram, radix_histogram_u32_col,
    radix_scatter_positions, BlockedBloom, MAX_RADIX_BITS,
};
use x100_vector::Vector;

/// Join semantics for [`HashJoinOp`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinType {
    /// Emit probe ⨝ build matches (cardinality-changing).
    Inner,
    /// Like `Inner`, but probe rows without a match are emitted once
    /// with default-valued payload (0 / empty string). The engine has
    /// no NULLs; Q13-style count-including-zero queries rely on the
    /// zero default.
    LeftOuter,
    /// Emit probe rows with ≥1 match (selection-vector only).
    LeftSemi,
    /// Emit probe rows with no match (selection-vector only).
    LeftAnti,
}

/// `CartProd(Dataflow, Table, List<Column>)` — cross product with a
/// (small) materialized table. `Join` = `CartProd` + `Select`.
pub struct CartProdOp {
    child: Box<dyn Operator>,
    table: Arc<Table>,
    fetch_cols: Vec<usize>,
    fields: Vec<OutField>,
    child_arity: usize,
    pools: Vec<VecPool>,
    // Expansion state.
    cur_cols: Vec<std::rc::Rc<Vector>>,
    cur_live: Vec<u32>,
    cpos_idx: usize,
    trow: u32,
    out: Batch,
    #[allow(dead_code)]
    vector_size: usize,
    done: bool,
    ctx: Arc<QueryContext>,
}

impl CartProdOp {
    /// A cross product of `child` with `table` (no pending deletes —
    /// the check walk rejects those), emitting `fetch_cols` of the table
    /// after the child's columns; `fields` is the output shape.
    pub(crate) fn new(
        child: Box<dyn Operator>,
        table: Arc<Table>,
        fetch_cols: Vec<usize>,
        fields: Vec<OutField>,
        vector_size: usize,
        ctx: Arc<QueryContext>,
    ) -> Self {
        let pools = fields
            .iter()
            .map(|f| VecPool::new(f.ty, vector_size))
            .collect();
        CartProdOp {
            child,
            table,
            child_arity: fields.len() - fetch_cols.len(),
            fetch_cols,
            fields,
            pools,
            cur_cols: Vec::new(),
            cur_live: Vec::new(),
            cpos_idx: 0,
            trow: 0,
            out: Batch::new(),
            vector_size,
            done: false,
            ctx,
        }
    }

    fn refill(&mut self, prof: &mut Profiler) -> Result<bool, PlanError> {
        loop {
            let Some(batch) = self.child.next(prof)? else {
                return Ok(false);
            };
            self.cur_live = match batch.sel.as_deref() {
                None => (0..batch.len as u32).collect(),
                Some(s) => s.positions().to_vec(),
            };
            self.cur_cols = batch.columns.clone();
            self.cpos_idx = 0;
            self.trow = 0;
            if !self.cur_live.is_empty() {
                return Ok(true);
            }
        }
    }
}

impl Operator for CartProdOp {
    fn fields(&self) -> &[OutField] {
        &self.fields
    }

    fn next(&mut self, prof: &mut Profiler) -> Result<Option<&Batch>, PlanError> {
        if self.done {
            return Ok(None);
        }
        self.ctx.check()?;
        let nrows = self.table.total_rows() as u32;
        if nrows == 0 {
            self.done = true;
            return Ok(None);
        }
        if self.cpos_idx >= self.cur_live.len() && !self.refill(prof)? {
            self.done = true;
            return Ok(None);
        }
        let t_op = prof.start();
        // Gather up to vector_size (child pos, table row) pairs.
        let mut cpos: Vec<u32> = Vec::with_capacity(self.vector_size);
        let mut trows: Vec<u32> = Vec::with_capacity(self.vector_size);
        while cpos.len() < self.vector_size && self.cpos_idx < self.cur_live.len() {
            cpos.push(self.cur_live[self.cpos_idx]);
            trows.push(self.trow);
            self.trow += 1;
            if self.trow == nrows {
                self.trow = 0;
                self.cpos_idx += 1;
            }
        }
        let n = cpos.len();
        self.out.reset();
        self.out.len = n;
        for (k, colv) in self.cur_cols.iter().enumerate() {
            let mut v = self.pools[k].writable();
            for &cp in &cpos {
                push_from(&mut v, colv, cp as usize);
            }
            self.pools[k].publish(v, &mut self.out);
        }
        for (j, &ci) in self.fetch_cols.iter().enumerate() {
            let mut v = self.pools[self.child_arity + j].writable();
            self.table.gather_logical(ci, &trows, &mut v);
            self.pools[self.child_arity + j].publish(v, &mut self.out);
        }
        prof.record_op("CartProd", t_op, n);
        Ok(Some(&self.out))
    }

    fn reset(&mut self) {
        self.child.reset();
        self.cur_cols.clear();
        self.cur_live.clear();
        self.cpos_idx = 0;
        self.trow = 0;
        self.done = false;
    }
}

/// Build-phase configuration, extracted from [`ExecOptions`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct JoinBuildConfig {
    /// Explicit partition bits (`Some(0)` = monolithic), or `None` to
    /// derive from the cache budget.
    pub partition_bits: Option<u32>,
    /// Per-partition byte budget when deriving the bit count.
    pub cache_budget: usize,
    /// Worker threads for the per-partition bucket-chain build.
    pub threads: usize,
    /// Bind-time estimate of probe-side rows (from table cardinalities;
    /// `None` when the probe shape defies estimation). A probe far
    /// larger than the build makes every Bloom bit cheaper per lookup,
    /// so the filter sizing steps up a tier.
    pub probe_rows_hint: Option<usize>,
}

/// One radix partition's bucket array (heads index *global* rows + 1;
/// `0` = empty).
#[derive(Debug, Default)]
struct PartBuckets {
    buckets: Vec<u32>,
    mask: u64,
}

/// The immutable, partition-ordered build side of a hash join.
///
/// Rows are stored in partition order: partition `p` owns global rows
/// `offsets[p]..offsets[p+1]` of `keys` / `payload` / `hashes`. Bucket
/// heads and chain links hold *global* row ids, so match emission needs
/// no partition-local translation. `Send + Sync`: after `build` it is
/// only ever read, so parallel probe workers share one `Arc` of it.
pub struct JoinBuildTable {
    keys: Vec<Vector>,
    payload: Vec<Vector>,
    hashes: Vec<u64>,
    /// `chain[r]` = next global row + 1 within `r`'s partition (0 = end).
    chain: Vec<u32>,
    /// Partition row offsets (`len == nparts + 1`).
    offsets: Vec<u32>,
    parts: Vec<PartBuckets>,
    bloom: BlockedBloom,
    bits: u32,
    n_build: usize,
    /// Held for its `Drop`: releases the build side's budget charge
    /// when the table itself goes away.
    #[allow(dead_code)]
    mem: MemTracker,
}

impl JoinBuildTable {
    /// Number of build rows.
    pub fn n_build(&self) -> usize {
        self.n_build
    }

    /// Radix partition bits in effect (0 = monolithic).
    pub fn partition_bits(&self) -> u32 {
        self.bits
    }

    /// Partition boundaries in the partition-ordered store: partition
    /// `p` owns rows `offsets[p]..offsets[p+1]`. `[0, n]` when
    /// monolithic.
    pub fn partition_offsets(&self) -> &[u32] {
        &self.offsets
    }

    #[inline(always)]
    fn first_slot(&self, h: u64) -> u32 {
        let p = if self.bits == 0 {
            0
        } else {
            (h >> (64 - self.bits)) as usize
        };
        let pt = &self.parts[p];
        pt.buckets[(h & pt.mask) as usize]
    }

    /// Drain `build`, hash its keys, radix-partition the rows, and build
    /// per-partition bucket chains (in parallel when `cfg.threads > 1`).
    fn build(
        build: &mut dyn Operator,
        build_keys: &mut [ExprProg],
        payload_cols: &[usize],
        payload_fields: &[OutField],
        cfg: &JoinBuildConfig,
        ctx: &Arc<QueryContext>,
        prof: &mut Profiler,
    ) -> Result<JoinBuildTable, PlanError> {
        let mut mem = MemTracker::new(ctx.clone(), "hash-join build");
        let mut keys: Vec<Vector> = build_keys
            .iter()
            .map(|p| Vector::with_capacity(p.result_type(), 16))
            .collect();
        let mut payload: Vec<Vector> = payload_fields
            .iter()
            .map(|f| Vector::with_capacity(f.ty, 16))
            .collect();
        let mut hashes: Vec<u64> = Vec::new();
        let mut hash_buf: Vec<u64> = Vec::new();
        while let Some(batch) = build.next(prof)? {
            ctx.check()?;
            let n = batch.len;
            let sel = batch.sel.as_deref();
            let key_vecs: Vec<&Vector> = build_keys
                .iter_mut()
                .map(|p| p.eval(batch, sel, prof))
                .collect();
            hash_buf.resize(n, 0);
            hash_keys(&key_vecs, &mut hash_buf, n, sel, prof);
            let mut insert = |i: usize| {
                for (ks, kv) in keys.iter_mut().zip(key_vecs.iter()) {
                    push_from(ks, kv, i);
                }
                for (bs, &ci) in payload.iter_mut().zip(payload_cols.iter()) {
                    push_from(bs, &batch.columns[ci], i);
                }
                hashes.push(hash_buf[i]);
            };
            match sel {
                None => {
                    for i in 0..n {
                        insert(i);
                    }
                }
                Some(s) => {
                    for i in s.iter() {
                        insert(i);
                    }
                }
            }
            let col_bytes: usize = keys
                .iter()
                .chain(payload.iter())
                .map(|v| v.byte_size())
                .sum();
            mem.ensure(col_bytes + hashes.len() * 8)?;
        }
        let n = hashes.len();

        // Blocked Bloom filter over every build hash, sized adaptively
        // from the observed build cardinality: small builds afford a
        // generous 16 bits/key (false-positive rate well under 1%),
        // huge builds drop to 8 bits/key to stay cache-friendly. A
        // negative probe test later proves absence, skipping the chain
        // walk.
        let mut bits_per_key: usize = if n <= 1 << 16 {
            16
        } else if n <= 1 << 20 {
            12
        } else {
            8
        };
        // Probe/build ratio feedback: when the bind-time estimate says
        // the probe side outnumbers the build 32:1 or more, each filter
        // bit is amortized over many lookups — one extra tier of bits
        // per key buys a lower false-positive rate for the whole stream.
        if let Some(probe) = cfg.probe_rows_hint {
            if n > 0 && probe / n >= 32 {
                bits_per_key = (bits_per_key + 4).min(16);
            }
        }
        let mut bloom = BlockedBloom::with_bits_per_key(n, bits_per_key);
        prof.max_counter("join_bloom_bits_per_key", bits_per_key as u64);
        let t0 = prof.start();
        bloom_insert_u64_col(&mut bloom, &hashes, None);
        prof.record_prim("bloom_insert_u64_col", t0, n, n * 8 + bloom.byte_size());

        let bits = match cfg.partition_bits {
            Some(b) => b.min(MAX_RADIX_BITS),
            None => derive_partition_bits(&keys, &payload, n, cfg.cache_budget),
        };

        let (keys, payload, hashes, offsets) = if bits == 0 {
            (keys, payload, hashes, vec![0, n as u32])
        } else {
            // Radix scatter: partition ids from top hash bits, histogram,
            // stable scatter positions, then reorder every column (and
            // the hashes) into partition order with one gather each.
            let nparts = 1usize << bits;
            let mut parts_ids = vec![0u32; n];
            let t0 = prof.start();
            map_radix_partition_u64_col(&mut parts_ids, &hashes, bits, None);
            prof.record_prim("map_radix_partition_u64_col", t0, n, n * 12);
            let mut hist = vec![0u32; nparts];
            radix_histogram_u32_col(&mut hist, &parts_ids, n, None);
            let offsets = offsets_from_histogram(&hist);
            let mut pos = vec![0u32; n];
            let t0 = prof.start();
            radix_scatter_positions(&mut pos, &parts_ids, &offsets, n, None);
            prof.record_prim("radix_scatter_positions", t0, n, n * 8);
            let rowids: Vec<u32> = (0..n as u32).collect();
            let mut order = vec![0u32; n];
            let t0 = prof.start();
            map_scatter_u32_col_u32_col(&mut order, &pos, &rowids, None);
            prof.record_prim("map_scatter_u32_col_u32_col", t0, n, n * 8);
            let reorder = |src: Vec<Vector>, prof: &mut Profiler| -> Vec<Vector> {
                src.into_iter()
                    .map(|v| {
                        let mut dst = Vector::with_capacity(v.scalar_type(), n);
                        let t0 = prof.start();
                        gather_rows(&mut dst, &v, &order);
                        prof.record_prim(
                            &format!("map_fetch_u32_col_{}_col", v.scalar_type()),
                            t0,
                            n,
                            v.byte_size(),
                        );
                        dst
                    })
                    .collect()
            };
            let keys = reorder(keys, prof);
            let payload = reorder(payload, prof);
            let mut h2 = vec![0u64; n];
            partition::scatter(&mut h2, &pos, &hashes, None);
            (keys, payload, h2, offsets)
        };

        // Per-partition bucket chains over contiguous row ranges. Each
        // partition's chain slice is disjoint, so partitions build in
        // parallel with plain scoped threads.
        type PartitionTask<'a> = (usize, u32, &'a [u64], &'a mut [u32]);
        let nparts = offsets.len() - 1;
        let mut chain = vec![0u32; n];
        let mut parts: Vec<PartBuckets> = (0..nparts).map(|_| PartBuckets::default()).collect();
        let t0 = prof.start();
        {
            // Carve (partition id, base row, hash slice, chain slice) tasks.
            let mut tasks: Vec<PartitionTask> = Vec::with_capacity(nparts);
            let mut rest: &mut [u32] = &mut chain;
            for p in 0..nparts {
                let base = offsets[p];
                let end = offsets[p + 1];
                let (head, tail) = rest.split_at_mut((end - base) as usize);
                rest = tail;
                tasks.push((p, base, &hashes[base as usize..end as usize], head));
            }
            let nworkers = cfg.threads.min(nparts);
            if nworkers > 1 {
                let mut groups: Vec<Vec<PartitionTask>> =
                    (0..nworkers).map(|_| Vec::new()).collect();
                for (k, task) in tasks.into_iter().enumerate() {
                    groups[k % nworkers].push(task);
                }
                std::thread::scope(|s| {
                    let handles: Vec<_> = groups
                        .into_iter()
                        .map(|group| {
                            s.spawn(move || {
                                group
                                    .into_iter()
                                    .map(|(p, base, h, c)| (p, build_partition(base, h, c)))
                                    .collect::<Vec<_>>()
                            })
                        })
                        .collect();
                    let mut res = Ok(());
                    for (w, h) in handles.into_iter().enumerate() {
                        match h.join() {
                            Ok(built) => {
                                for (p, pb) in built {
                                    parts[p] = pb;
                                }
                            }
                            Err(e) => {
                                ctx.cancel();
                                if res.is_ok() {
                                    res = Err(PlanError::WorkerPanic {
                                        worker: w,
                                        cause: panic_cause(e.as_ref()),
                                    });
                                }
                            }
                        }
                    }
                    res
                })?;
            } else {
                for (p, base, h, c) in tasks {
                    parts[p] = build_partition(base, h, c);
                }
            }
        }
        prof.record_op("HashJoin(partition)", t0, n);
        prof.add_counter("join_partitions", nparts as u64);
        let max_rows = (0..nparts)
            .map(|p| (offsets[p + 1] - offsets[p]) as u64)
            .max()
            .unwrap_or(0);
        prof.max_counter("join_partition_max_rows", max_rows);

        // Final footprint: columns + hashes + chain links + bucket
        // arrays + the Bloom filter.
        let col_bytes: usize = keys
            .iter()
            .chain(payload.iter())
            .map(|v| v.byte_size())
            .sum();
        let bucket_bytes: usize = parts.iter().map(|p| p.buckets.len() * 4).sum();
        mem.ensure(col_bytes + n * 12 + bucket_bytes + bloom.byte_size())?;

        Ok(JoinBuildTable {
            keys,
            payload,
            hashes,
            chain,
            offsets,
            parts,
            bloom,
            bits,
            n_build: n,
            mem,
        })
    }
}

/// Build one partition's bucket array over its contiguous hash slice.
/// Bucket heads and chain links are *global* row ids + 1; rows chain in
/// reverse arrival order, so the probe walk emits matches newest-first —
/// identical to the pre-partitioned layout within a partition.
fn build_partition(base: u32, hashes: &[u64], chain: &mut [u32]) -> PartBuckets {
    let cap = (hashes.len().max(1) * 2).next_power_of_two();
    let mask = (cap - 1) as u64;
    let mut buckets = vec![0u32; cap];
    for (j, &h) in hashes.iter().enumerate() {
        let b = (h & mask) as usize;
        chain[j] = buckets[b];
        buckets[b] = base + j as u32 + 1;
    }
    PartBuckets { buckets, mask }
}

/// Pick the smallest partition-bit count whose average partition stays
/// under `budget` bytes (keys + payload + hash/bucket/chain overhead:
/// 8 B hash + ~12 B bucket/chain slots per row).
fn derive_partition_bits(keys: &[Vector], payload: &[Vector], n: usize, budget: usize) -> u32 {
    let col_bytes: usize = keys
        .iter()
        .chain(payload.iter())
        .map(|v| v.byte_size())
        .sum();
    let total = col_bytes + n * 20;
    let nparts = total.div_ceil(budget).max(1);
    (nparts.next_power_of_two().trailing_zeros()).min(MAX_RADIX_BITS)
}

/// The probe-side machinery shared by [`HashJoinOp`] (which owns its
/// build) and [`HashJoinProbeOp`] (which probes a shared table).
struct ProbeCore {
    ctx: Arc<QueryContext>,
    probe_keys: Vec<ExprProg>,
    join_type: JoinType,
    fields: Vec<OutField>,
    probe_arity: usize,
    hash_buf: Vec<u64>,
    bloom_ok: Vec<bool>,
    pools: Vec<VecPool>,
    sel_pool: SelPool,
    out: Batch,
}

impl ProbeCore {
    fn new(
        probe_fields: &[OutField],
        payload_fields: &[OutField],
        probe_keys: Vec<ExprProg>,
        join_type: JoinType,
        vector_size: usize,
        ctx: Arc<QueryContext>,
    ) -> Self {
        let probe_arity = probe_fields.len();
        let mut fields: Vec<OutField> = probe_fields.to_vec();
        fields.extend(payload_fields.iter().cloned());
        let pools = fields
            .iter()
            .map(|f| VecPool::new(f.ty, vector_size))
            .collect();
        ProbeCore {
            ctx,
            probe_keys,
            join_type,
            fields,
            probe_arity,
            hash_buf: Vec::new(),
            bloom_ok: Vec::new(),
            pools,
            sel_pool: SelPool::default(),
            out: Batch::new(),
        }
    }

    /// Pull probe batches and emit join output against `table`.
    fn next(
        &mut self,
        probe: &mut dyn Operator,
        table: &JoinBuildTable,
        prof: &mut Profiler,
    ) -> Result<Option<&Batch>, PlanError> {
        loop {
            self.ctx.check()?;
            let Some(batch) = probe.next(prof)? else {
                return Ok(None);
            };
            let n = batch.len;
            let sel = batch.sel.as_deref();
            let live = batch.live();
            let t_op = prof.start();
            let key_vecs: Vec<&Vector> = self
                .probe_keys
                .iter_mut()
                .map(|p| p.eval(batch, sel, prof))
                .collect();
            self.hash_buf.resize(n, 0);
            hash_keys(&key_vecs, &mut self.hash_buf, n, sel, prof);
            // Bloom prepass: a negative test proves the key misses the
            // whole build side, so the chain walk is skipped.
            self.bloom_ok.clear();
            self.bloom_ok.resize(n, false);
            let t_bloom = prof.start();
            let rejected =
                bloom_test_u64_col(&mut self.bloom_ok, &table.bloom, &self.hash_buf, sel);
            prof.record_prim("bloom_test_u64_col", t_bloom, live, live * 9);
            prof.add_counter("join_bloom_tested", live as u64);
            prof.add_counter("join_bloom_rejected", rejected);
            // Collect matches.
            let mut m_probe: Vec<u32> = Vec::new();
            let mut m_build: Vec<u32> = Vec::new();
            let semi = matches!(self.join_type, JoinType::LeftSemi | JoinType::LeftAnti);
            let hash_buf = &self.hash_buf;
            let bloom_ok = &self.bloom_ok;
            let probe_one = |i: usize, m_probe: &mut Vec<u32>, m_build: &mut Vec<u32>| {
                if !bloom_ok[i] {
                    return false;
                }
                let h = hash_buf[i];
                let mut slot = table.first_slot(h);
                let mut matched = false;
                while slot != 0 {
                    let r = (slot - 1) as usize;
                    if table.hashes[r] == h
                        && table
                            .keys
                            .iter()
                            .zip(key_vecs.iter())
                            .all(|(ks, kv)| eq_at(ks, r, kv, i))
                    {
                        matched = true;
                        if semi {
                            break;
                        }
                        m_probe.push(i as u32);
                        m_build.push(r as u32);
                    }
                    slot = table.chain[r];
                }
                matched
            };
            match self.join_type {
                JoinType::Inner | JoinType::LeftOuter => {
                    let outer = self.join_type == JoinType::LeftOuter;
                    let one = |i: usize, m_probe: &mut Vec<u32>, m_build: &mut Vec<u32>| {
                        if !probe_one(i, m_probe, m_build) && outer {
                            m_probe.push(i as u32);
                            m_build.push(u32::MAX); // no-match sentinel
                        }
                    };
                    match sel {
                        None => {
                            for i in 0..n {
                                one(i, &mut m_probe, &mut m_build);
                            }
                        }
                        Some(s) => {
                            for i in s.iter() {
                                one(i, &mut m_probe, &mut m_build);
                            }
                        }
                    }
                    prof.record_op("HashJoin(probe)", t_op, live);
                    if m_probe.is_empty() {
                        continue;
                    }
                    let outn = m_probe.len();
                    self.out.reset();
                    self.out.len = outn;
                    for (k, colv) in batch.columns.iter().enumerate() {
                        let mut v = self.pools[k].writable();
                        for &p in &m_probe {
                            push_from(&mut v, colv, p as usize);
                        }
                        self.pools[k].publish(v, &mut self.out);
                    }
                    for (j, bs) in table.payload.iter().enumerate() {
                        let mut v = self.pools[self.probe_arity + j].writable();
                        for &r in &m_build {
                            if r == u32::MAX {
                                push_default(&mut v);
                            } else {
                                push_from(&mut v, bs, r as usize);
                            }
                        }
                        self.pools[self.probe_arity + j].publish(v, &mut self.out);
                    }
                    return Ok(Some(&self.out));
                }
                JoinType::LeftSemi | JoinType::LeftAnti => {
                    let want = self.join_type == JoinType::LeftSemi;
                    let mut newsel = self.sel_pool.writable();
                    {
                        let buf = newsel.buf_mut();
                        match sel {
                            None => {
                                for i in 0..n {
                                    if probe_one(i, &mut m_probe, &mut m_build) == want {
                                        buf.push(i as u32);
                                    }
                                }
                            }
                            Some(s) => {
                                for i in s.iter() {
                                    if probe_one(i, &mut m_probe, &mut m_build) == want {
                                        buf.push(i as u32);
                                    }
                                }
                            }
                        }
                    }
                    prof.record_op("HashJoin(probe)", t_op, live);
                    if newsel.is_empty() {
                        // Recycle and pull the next probe batch.
                        continue;
                    }
                    self.out.reset();
                    self.out.len = n;
                    self.out.columns.extend(batch.columns.iter().cloned());
                    self.sel_pool.publish(newsel, &mut self.out);
                    return Ok(Some(&self.out));
                }
            }
        }
    }

    fn reset(&mut self) {
        self.hash_buf.clear();
        self.bloom_ok.clear();
    }
}

/// Hash equi-join: build side fully consumed into a radix-partitioned
/// hash table, probe side streamed.
pub struct HashJoinOp {
    build: Box<dyn Operator>,
    probe: Box<dyn Operator>,
    build_keys: Vec<ExprProg>,
    payload_cols: Vec<usize>,
    payload_fields: Vec<OutField>,
    cfg: JoinBuildConfig,
    table: Option<Arc<JoinBuildTable>>,
    core: ProbeCore,
    ctx: Arc<QueryContext>,
}

/// A hash join as the check walk verified it ([`crate::check`]): typed
/// key programs (probe key `i` has build key `i`'s type), the resolved
/// build payload, and the probe-cardinality hint.
#[derive(Debug, Clone)]
pub(crate) struct JoinParts {
    /// Build-side key programs.
    pub build_keys: Vec<Arc<ExprCode>>,
    /// Probe-side key programs.
    pub probe_keys: Vec<Arc<ExprCode>>,
    /// Build columns carried into the output (inner/outer joins only).
    pub payload_cols: Vec<usize>,
    /// The payload's aliased output fields.
    pub payload_fields: Vec<OutField>,
    /// Join semantics.
    pub join_type: JoinType,
    /// Upper bound on probe-side rows, when the probe shape allows one
    /// (Bloom sizing feedback).
    pub probe_rows_hint: Option<usize>,
}

impl JoinParts {
    fn build_progs(&self, vector_size: usize) -> Vec<ExprProg> {
        self.build_keys
            .iter()
            .map(|c| ExprProg::new(c, vector_size))
            .collect()
    }

    fn probe_core(
        &self,
        probe: &dyn Operator,
        vector_size: usize,
        ctx: Arc<QueryContext>,
    ) -> ProbeCore {
        ProbeCore::new(
            probe.fields(),
            &self.payload_fields,
            self.probe_keys
                .iter()
                .map(|c| ExprProg::new(c, vector_size))
                .collect(),
            self.join_type,
            vector_size,
            ctx,
        )
    }

    fn build_config(&self, opts: &ExecOptions) -> JoinBuildConfig {
        JoinBuildConfig {
            partition_bits: opts.join_partition_bits,
            cache_budget: opts.join_cache_budget.max(1),
            threads: opts.threads.max(1),
            probe_rows_hint: self.probe_rows_hint,
        }
    }
}

impl HashJoinOp {
    /// A hash join of `build` and `probe` from the verified `parts`.
    pub(crate) fn new(
        build: Box<dyn Operator>,
        probe: Box<dyn Operator>,
        parts: &JoinParts,
        opts: &ExecOptions,
        ctx: Arc<QueryContext>,
    ) -> Self {
        HashJoinOp {
            build_keys: parts.build_progs(opts.vector_size),
            payload_cols: parts.payload_cols.clone(),
            payload_fields: parts.payload_fields.clone(),
            cfg: parts.build_config(opts),
            table: None,
            core: parts.probe_core(probe.as_ref(), opts.vector_size, ctx.clone()),
            build,
            probe,
            ctx,
        }
    }

    /// Build the partitioned table without probing, handing it out for
    /// sharing across parallel probe pipelines (build once, probe many).
    pub(crate) fn build_shared(
        build: &mut dyn Operator,
        parts: &JoinParts,
        opts: &ExecOptions,
        ctx: &Arc<QueryContext>,
        prof: &mut Profiler,
    ) -> Result<Arc<JoinBuildTable>, PlanError> {
        let t0 = prof.start();
        let table = JoinBuildTable::build(
            build,
            &mut parts.build_progs(opts.vector_size),
            &parts.payload_cols,
            &parts.payload_fields,
            &parts.build_config(opts),
            ctx,
            prof,
        )?;
        prof.record_op("HashJoin(build)", t0, table.n_build);
        Ok(Arc::new(table))
    }
}

impl Operator for HashJoinOp {
    fn fields(&self) -> &[OutField] {
        &self.core.fields
    }

    fn next(&mut self, prof: &mut Profiler) -> Result<Option<&Batch>, PlanError> {
        let table = if let Some(t) = &self.table {
            t.clone()
        } else {
            let t0 = prof.start();
            let table = Arc::new(JoinBuildTable::build(
                self.build.as_mut(),
                &mut self.build_keys,
                &self.payload_cols,
                &self.payload_fields,
                &self.cfg,
                &self.ctx,
                prof,
            )?);
            prof.record_op("HashJoin(build)", t0, table.n_build);
            self.table = Some(table.clone());
            table
        };
        self.core.next(self.probe.as_mut(), &table, prof)
    }

    fn reset(&mut self) {
        self.build.reset();
        self.probe.reset();
        self.table = None;
        self.core.reset();
    }
}

/// Probe-only hash join against a pre-built shared [`JoinBuildTable`] —
/// the worker-side half of the morsel-parallel join (build once on the
/// main thread, probe many across workers).
pub struct HashJoinProbeOp {
    probe: Box<dyn Operator>,
    table: Arc<JoinBuildTable>,
    core: ProbeCore,
}

impl HashJoinProbeOp {
    /// A probe pipeline over the shared `table` built for `parts`.
    pub(crate) fn new(
        probe: Box<dyn Operator>,
        table: Arc<JoinBuildTable>,
        parts: &JoinParts,
        vector_size: usize,
        ctx: Arc<QueryContext>,
    ) -> Self {
        let core = parts.probe_core(probe.as_ref(), vector_size, ctx);
        HashJoinProbeOp { probe, table, core }
    }
}

impl Operator for HashJoinProbeOp {
    fn fields(&self) -> &[OutField] {
        &self.core.fields
    }

    fn next(&mut self, prof: &mut Profiler) -> Result<Option<&Batch>, PlanError> {
        let table = self.table.clone();
        self.core.next(self.probe.as_mut(), &table, prof)
    }

    fn reset(&mut self) {
        self.probe.reset();
        self.core.reset();
    }
}

/// Default value appended for unmatched outer-join payload slots.
/// Exhaustive over every [`Vector`] variant — a new variant must fail to
/// compile here rather than panic at runtime on the first unmatched
/// outer tuple. Enum-coded (`U8`/`U16`) payload columns default to code
/// 0 like any other unsigned column; the binder keeps their output
/// dictionary-free, so no decode can turn that 0 into a spurious
/// dictionary entry.
fn push_default(v: &mut Vector) {
    match v {
        Vector::I8(b) => b.push(0),
        Vector::I16(b) => b.push(0),
        Vector::I32(b) => b.push(0),
        Vector::I64(b) => b.push(0),
        Vector::U8(b) => b.push(0),
        Vector::U16(b) => b.push(0),
        Vector::U32(b) => b.push(0),
        Vector::U64(b) => b.push(0),
        Vector::F64(b) => b.push(0.0),
        Vector::Bool(b) => b.push(false),
        Vector::Str(b) => b.push(""),
    }
}
