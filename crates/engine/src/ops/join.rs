//! Joins: `CartProd` and the hash join over the group table.
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
//! The join has no hash table of its own: the build side's keys go
//! through [`GroupTable::lookup`] — the table under `HashAggr` and
//! `MergeAggr` — which numbers the distinct keys, and the build rows of
//! one key hang off its group id as a chain of row numbers, newest
//! first. The probe side runs [`GroupTable::find`], the same vectorized
//! probe rounds without the insert, and expands the chains of the keys
//! it found into `(probe position, build row)` pair lists of at most
//! one vector, which one typed gather per output column materializes.
//! The finished [`JoinTable`] is immutable and `Send + Sync`: the
//! morsel-parallel driver builds it once and every worker's
//! [`HashJoinOp`] probes the same `Arc` with its own scratch (build
//! once, probe many).

use super::aggr::hash_keys;
use crate::batch::{Batch, OutField, SelPool, VecPool};
use crate::compile::{ExprCode, ExprProg};
use crate::govern::{MemTracker, QueryContext};
use crate::ops::fetchjoin::gather_positional;
use crate::ops::Operator;
use crate::profile::Profiler;
use crate::PlanError;
use std::rc::Rc;
use std::sync::Arc;
use x100_storage::Table;
use x100_vector::fetch::gather_rows;
use x100_vector::select::select_cmp_col_val;
use x100_vector::{CmpOp, GroupTable, ProbeScratch, ScalarType, SelVec, SelectStrategy, Vector};

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
    /// A cross product of `child` with the live rows of `table`
    /// (pending deletes skipped), emitting `fetch_cols` of the table
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
        let table = Arc::clone(&self.table);
        let nrows = table.total_rows() as u32;
        let deletes = table.deletes();
        if deletes.len() >= nrows as usize {
            self.done = true;
            return Ok(None);
        }
        // Gather up to vector_size (child pos, table row) pairs; pending
        // deletes drop out here, so a child batch may yield none.
        let mut cpos: Vec<u32> = Vec::with_capacity(self.vector_size);
        let mut trows: Vec<u32> = Vec::with_capacity(self.vector_size);
        let t_op = loop {
            if self.cpos_idx >= self.cur_live.len() && !self.refill(prof)? {
                self.done = true;
                return Ok(None);
            }
            let t_op = prof.start();
            while cpos.len() < self.vector_size && self.cpos_idx < self.cur_live.len() {
                if !deletes.contains(self.trow) {
                    cpos.push(self.cur_live[self.cpos_idx]);
                    trows.push(self.trow);
                }
                self.trow += 1;
                if self.trow == nrows {
                    self.trow = 0;
                    self.cpos_idx += 1;
                }
            }
            if !cpos.is_empty() {
                break t_op;
            }
        };
        let n = cpos.len();
        self.out.reset();
        self.out.len = n;
        for (k, colv) in self.cur_cols.iter().enumerate() {
            let mut v = self.pools[k].writable();
            assert!(gather_rows(&mut v, colv, &cpos, None));
            self.pools[k].publish(v, &mut self.out);
        }
        for (j, &ci) in self.fetch_cols.iter().enumerate() {
            let mut v = self.pools[self.child_arity + j].writable();
            gather_positional(&self.table, ci, false, &trows, None, &mut v)?;
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

/// End of a build-row chain.
const END: u32 = u32::MAX;

/// A hash join as the check walk verified it ([`crate::check`]): typed
/// key programs (probe key `i` has build key `i`'s type) and the
/// resolved build payload.
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
    /// Per output column of an inner/outer join, the catalogued gather
    /// that materializes it (`None`: a type outside the fetch catalog).
    pub gather_sigs: Vec<Option<&'static str>>,
}

impl JoinParts {
    /// What building this join's table takes, with fresh key programs.
    pub(crate) fn build_spec(&self, vector_size: usize) -> BuildSpec {
        BuildSpec {
            key_progs: self
                .build_keys
                .iter()
                .map(|c| ExprProg::new(c, vector_size))
                .collect(),
            payload_cols: self.payload_cols.clone(),
            payload_types: self.payload_fields.iter().map(|f| f.ty).collect(),
            keeps_rows: self.join_type.keeps_rows(),
        }
    }
}

impl JoinType {
    /// Whether matches carry build rows (inner/outer) or only decide
    /// which probe rows survive (semi/anti).
    pub(crate) fn keeps_rows(self) -> bool {
        matches!(self, JoinType::Inner | JoinType::LeftOuter)
    }
}

/// The build side of a join, minus its input: key programs, and the
/// build columns to keep (none for a semi/anti join, which keeps no
/// rows at all).
pub(crate) struct BuildSpec {
    key_progs: Vec<ExprProg>,
    payload_cols: Vec<usize>,
    payload_types: Vec<ScalarType>,
    keeps_rows: bool,
}

/// The immutable build side of a hash join: the distinct keys in a
/// [`GroupTable`], and — unless the join is semi/anti, which needs the
/// keys alone — the build rows in arrival order, chained per key.
#[derive(Debug)]
pub(crate) struct JoinTable {
    keys: GroupTable,
    /// The rows of each key. `None` while no key repeats: the rows are
    /// numbered as the groups are, and a group's one row is its id.
    chains: Option<Chains>,
    /// Payload columns, one value per build row plus the trailing
    /// default row (0 / empty string) an unmatched outer tuple takes:
    /// `LeftOuter` files its misses under the group past the last.
    payload: Vec<Vector>,
    /// Held for its `Drop`: releases the build side's budget charge
    /// when the table itself goes away.
    _mem: MemTracker,
}

/// Build rows chained per key, newest first — the order a probe emits
/// a key's matches in.
#[derive(Debug)]
struct Chains {
    /// Per group, its newest build row.
    head: Vec<u32>,
    /// Per build row, the next-older row of the same key, or [`END`].
    next: Vec<u32>,
}

impl JoinTable {
    #[inline]
    fn first_row(&self, group: u32) -> u32 {
        self.chains
            .as_ref()
            .map_or(group, |c| c.head[group as usize])
    }

    #[inline]
    fn next_row(&self, row: u32) -> u32 {
        self.chains.as_ref().map_or(END, |c| c.next[row as usize])
    }

    /// Drain `build` into a table: every vector's keys through
    /// [`GroupTable::lookup`], its rows linked in front of their group's
    /// chain once a key has repeated, its payload appended. The charge
    /// grows with the table.
    pub(crate) fn build(
        build: &mut dyn Operator,
        spec: &mut BuildSpec,
        ctx: &Arc<QueryContext>,
        prof: &mut Profiler,
    ) -> Result<JoinTable, PlanError> {
        let t_build = prof.start();
        let mut mem = MemTracker::new(ctx.clone(), "hash-join build");
        let key_types: Vec<ScalarType> = spec.key_progs.iter().map(|p| p.result_type()).collect();
        let mut keys = GroupTable::new(&key_types);
        let mut chains: Option<Chains> = None;
        let mut payload: Vec<Vector> = spec
            .payload_types
            .iter()
            .map(|&ty| Vector::with_capacity(ty, 16))
            .collect();
        let mut scratch = ProbeScratch::default();
        let (mut hash_buf, mut grp_buf) = (Vec::new(), Vec::new());
        // Under a selection a payload vector is compacted here first.
        let mut selected: Vec<Vector> = payload
            .iter()
            .map(|v| Vector::with_capacity(v.scalar_type(), 0))
            .collect();
        let mut n_build = 0;
        while let Some(batch) = build.next(prof)? {
            ctx.check()?;
            let n = batch.len;
            let sel = batch.sel.as_deref();
            let live = batch.live();
            let key_vecs: Vec<&Vector> = spec
                .key_progs
                .iter_mut()
                .map(|p| p.eval(batch, sel, prof))
                .collect();
            hash_buf.resize(n, 0);
            grp_buf.resize(n, 0);
            hash_keys(&key_vecs, &mut hash_buf, n, sel, prof);
            let t0 = prof.start();
            keys.lookup(&mut scratch, &mut grp_buf, &hash_buf, &key_vecs, n, sel);
            prof.record_prim("aggr_hashtable_maintain", t0, live, live * 12);
            if spec.keeps_rows && (chains.is_some() || keys.len() < n_build + live) {
                let c = chains.get_or_insert_with(|| Chains {
                    head: (0..n_build as u32).collect(),
                    next: vec![END; n_build],
                });
                c.head.resize(keys.len(), END);
                let mut link = |i: usize| {
                    let newest = &mut c.head[grp_buf[i] as usize];
                    c.next.push(*newest);
                    *newest = c.next.len() as u32 - 1;
                };
                match sel {
                    None => (0..n).for_each(&mut link),
                    Some(s) => s.iter().for_each(&mut link),
                }
            }
            n_build += live;
            if spec.keeps_rows {
                for (j, &ci) in spec.payload_cols.iter().enumerate() {
                    let col = &batch.columns[ci];
                    match sel {
                        None => payload[j].append_range(col, 0, n),
                        Some(s) => {
                            assert!(gather_rows(&mut selected[j], col, s.positions(), None));
                            payload[j].append_range(&selected[j], 0, live);
                        }
                    }
                }
            }
            let rows: usize = payload.iter().map(|v| v.byte_size()).sum();
            let links = chains.as_ref().map_or(0, |c| c.head.len() + c.next.len());
            mem.ensure(keys.byte_size() + links * 4 + rows)?;
        }
        if spec.keeps_rows {
            // The default row, and the group that leads to it.
            if let Some(c) = &mut chains {
                c.head.push(n_build as u32);
                c.next.push(END);
            }
            for col in &mut payload {
                col.resize_zeroed(n_build + 1);
            }
        }
        prof.record_op("HashJoin(build)", t_build, n_build);
        Ok(JoinTable {
            keys,
            chains,
            payload,
            _mem: mem,
        })
    }
}

/// Where a [`HashJoinOp`] gets its table.
pub(crate) enum BuildSide {
    /// Build it from this input on the first `next`, again after `reset`.
    Input(Box<dyn Operator>),
    /// The morsel driver built it once for every worker.
    Shared(Arc<JoinTable>),
}

/// Hash equi-join: build side fully consumed into a [`JoinTable`] (or
/// handed in pre-built), probe side streamed.
pub struct HashJoinOp {
    /// The build input; `None` when `table` was handed in.
    build: Option<(Box<dyn Operator>, BuildSpec)>,
    probe: Box<dyn Operator>,
    table: Option<Arc<JoinTable>>,
    probe_keys: Vec<ExprProg>,
    join_type: JoinType,
    fields: Vec<OutField>,
    gather_sigs: Vec<Option<&'static str>>,
    // Probe scratch, all O(vector size).
    scratch: ProbeScratch,
    hash_buf: Vec<u64>,
    grp_buf: Vec<u32>,
    // Inner/outer: the probe vector being expanded — its columns, the
    // positions that have build rows, and where the expansion stands
    // (`pos[cursor]`'s chain continues at build row `link`).
    cur_cols: Vec<Rc<Vector>>,
    pos: SelVec,
    cursor: usize,
    link: u32,
    m_probe: Vec<u32>,
    m_build: Vec<u32>,
    pools: Vec<VecPool>,
    sel_pool: SelPool,
    out: Batch,
    vector_size: usize,
    ctx: Arc<QueryContext>,
}

impl HashJoinOp {
    /// A hash join of `build` and `probe` from the verified `parts`.
    pub(crate) fn new(
        build: BuildSide,
        probe: Box<dyn Operator>,
        parts: &JoinParts,
        vector_size: usize,
        ctx: Arc<QueryContext>,
    ) -> Self {
        let mut fields: Vec<OutField> = probe.fields().to_vec();
        fields.extend(parts.payload_fields.iter().cloned());
        let (build, table) = match build {
            BuildSide::Input(op) => (Some((op, parts.build_spec(vector_size))), None),
            BuildSide::Shared(table) => (None, Some(table)),
        };
        HashJoinOp {
            build,
            probe,
            table,
            probe_keys: parts
                .probe_keys
                .iter()
                .map(|c| ExprProg::new(c, vector_size))
                .collect(),
            pools: fields
                .iter()
                .map(|f| VecPool::new(f.ty, vector_size))
                .collect(),
            fields,
            join_type: parts.join_type,
            gather_sigs: parts.gather_sigs.clone(),
            scratch: ProbeScratch::default(),
            hash_buf: Vec::new(),
            grp_buf: Vec::new(),
            cur_cols: Vec::new(),
            pos: SelVec::default(),
            cursor: 0,
            link: END,
            m_probe: Vec::with_capacity(vector_size),
            m_build: Vec::with_capacity(vector_size),
            sel_pool: SelPool::default(),
            out: Batch::new(),
            vector_size,
            ctx,
        }
    }

    /// Emit the next at most `vector_size` (probe position, build row)
    /// pairs of the probe vector being expanded: walk the chains from
    /// where the last call stopped, then gather every output column.
    fn emit_pairs(&mut self, table: &JoinTable, prof: &mut Profiler) {
        let t_op = prof.start();
        let pos = self.pos.positions();
        self.m_probe.clear();
        self.m_build.clear();
        'vector: while self.cursor < pos.len() {
            let p = pos[self.cursor];
            while self.link != END {
                if self.m_probe.len() == self.vector_size {
                    break 'vector;
                }
                self.m_probe.push(p);
                self.m_build.push(self.link);
                self.link = table.next_row(self.link);
            }
            self.cursor += 1;
            if let Some(&p) = pos.get(self.cursor) {
                self.link = table.first_row(self.grp_buf[p as usize]);
            }
        }
        let n = self.m_probe.len();
        self.out.reset();
        self.out.len = n;
        let probe_cols = self.cur_cols.iter().map(|c| (&**c, &self.m_probe));
        let payload = table.payload.iter().map(|c| (c, &self.m_build));
        for (k, (src, rows)) in probe_cols.chain(payload).enumerate() {
            let mut v = self.pools[k].writable();
            let t0 = prof.start();
            assert!(gather_rows(&mut v, src, rows, None));
            if let Some(sig) = self.gather_sigs[k] {
                prof.record_prim(sig, t0, n, n * (4 + 2 * v.scalar_type().width()));
            }
            self.pools[k].publish(v, &mut self.out);
        }
        prof.record_op("HashJoin(probe)", t_op, 0);
    }
}

impl Operator for HashJoinOp {
    fn fields(&self) -> &[OutField] {
        &self.fields
    }

    fn next(&mut self, prof: &mut Profiler) -> Result<Option<&Batch>, PlanError> {
        let table = match (&self.table, &mut self.build) {
            (Some(t), _) => t.clone(),
            (None, Some((build, spec))) => {
                let t = JoinTable::build(build.as_mut(), spec, &self.ctx, prof)?;
                self.table.insert(Arc::new(t)).clone()
            }
            (None, None) => unreachable!("a join has a build input or a shared table"),
        };
        loop {
            self.ctx.check()?;
            if self.cursor < self.pos.len() {
                self.emit_pairs(&table, prof);
                return Ok(Some(&self.out));
            }
            // Let the probe side recycle the vectors just expanded.
            self.cur_cols.clear();
            let Some(batch) = self.probe.next(prof)? else {
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
            self.grp_buf.resize(n, 0);
            hash_keys(&key_vecs, &mut self.hash_buf, n, sel, prof);
            let grp = &mut self.grp_buf[..n];
            let t0 = prof.start();
            let absent = table
                .keys
                .find(&mut self.scratch, grp, &self.hash_buf, &key_vecs, n, sel);
            prof.record_prim("aggr_grouptable_probe_u64_col", t0, live, live * 12);
            // The positions that survive (semi/anti) or have build rows
            // to pair with (inner/outer).
            let mut found = if self.join_type.keeps_rows() {
                std::mem::take(&mut self.pos)
            } else {
                self.sel_pool.writable()
            };
            found.clear();
            match self.join_type {
                JoinType::LeftAnti => found.buf_mut().extend_from_slice(absent),
                JoinType::LeftOuter => {
                    let default_group = table.keys.len() as u32;
                    absent.iter().for_each(|&p| grp[p as usize] = default_group);
                    live_positions(found.buf_mut(), n, sel);
                }
                JoinType::Inner | JoinType::LeftSemi if absent.is_empty() => {
                    live_positions(found.buf_mut(), n, sel)
                }
                JoinType::Inner | JoinType::LeftSemi => {
                    let t0 = prof.start();
                    let (ne, pred) = (CmpOp::Ne, SelectStrategy::Predicated);
                    select_cmp_col_val(&mut found, grp, GroupTable::ABSENT, ne, sel, pred);
                    prof.record_prim("select_ne_u32_col_val", t0, live, live * 8);
                }
            }
            prof.record_op("HashJoin(probe)", t_op, live);
            if self.join_type.keeps_rows() {
                if let Some(&p) = found.positions().first() {
                    self.link = table.first_row(grp[p as usize]);
                    self.cur_cols.clone_from(&batch.columns);
                }
                self.cursor = 0;
                self.pos = found;
            } else if !found.is_empty() {
                self.out.reset();
                self.out.len = n;
                self.out.columns.extend(batch.columns.iter().cloned());
                self.sel_pool.publish(found, &mut self.out);
                return Ok(Some(&self.out));
            }
        }
    }

    fn reset(&mut self) {
        if let Some((build, _)) = &mut self.build {
            build.reset();
            self.table = None;
        }
        self.probe.reset();
        self.cur_cols.clear();
        self.pos.clear();
        self.cursor = 0;
    }
}

/// The live positions of a vector, as a list.
fn live_positions(out: &mut Vec<u32>, n: usize, sel: Option<&SelVec>) {
    match sel {
        None => out.extend(0..n as u32),
        Some(s) => out.extend_from_slice(s.positions()),
    }
}
