//! Joins: `CartProd`, the hash join over the group table, and the
//! merge join of two inputs sorted on their key.
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
//!
//! Where the check walk proves both inputs sorted on one integer key
//! (rule `sorted-inputs-merge-join`) the join builds nothing:
//! [`MergeJoinOp`] walks both inputs in step with the `merge_<ty>_col`
//! cursor and emits through the same pair lists and gathers ([`Pairs`]),
//! so the two operators give the same rows in the same order.

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
use x100_vector::merge as vmerge;
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

/// The emission both equi-joins share: `(probe position, build row)`
/// pairs, at most one vector of them, materialized by one typed gather
/// per output column — the probe columns at the positions, the build
/// payload at the rows.
struct Pairs {
    probe: Vec<u32>,
    build: Vec<u32>,
    pools: Vec<VecPool>,
    /// Per output column, the catalogued gather it is traced under.
    gather_sigs: Vec<Option<&'static str>>,
    vector_size: usize,
}

impl Pairs {
    fn new(fields: &[OutField], parts: &JoinParts, vector_size: usize) -> Self {
        Pairs {
            probe: Vec::with_capacity(vector_size),
            build: Vec::with_capacity(vector_size),
            pools: fields
                .iter()
                .map(|f| VecPool::new(f.ty, vector_size))
                .collect(),
            gather_sigs: parts.gather_sigs.clone(),
            vector_size,
        }
    }

    fn clear(&mut self) {
        self.probe.clear();
        self.build.clear();
    }

    /// Whether one more pair would exceed a vector.
    fn full(&self) -> bool {
        self.probe.len() == self.vector_size
    }

    fn push(&mut self, probe: u32, build: u32) {
        self.probe.push(probe);
        self.build.push(build);
    }

    /// Gather the pairs into `out`: `probe_cols` at the probe positions,
    /// then `payload` at the build rows.
    fn gather(
        &mut self,
        out: &mut Batch,
        probe_cols: &[Rc<Vector>],
        payload: &[Vector],
        prof: &mut Profiler,
    ) {
        let n = self.probe.len();
        out.reset();
        out.len = n;
        let probe = probe_cols.iter().map(|c| (&**c, &self.probe));
        let payload = payload.iter().map(|c| (c, &self.build));
        for (k, (src, rows)) in probe.chain(payload).enumerate() {
            let mut v = self.pools[k].writable();
            let t0 = prof.start();
            assert!(gather_rows(&mut v, src, rows, None));
            if let Some(sig) = self.gather_sigs[k] {
                prof.record_prim(sig, t0, n, n * (4 + 2 * v.scalar_type().width()));
            }
            self.pools[k].publish(v, out);
        }
    }
}

/// A semi/anti join's output: the probe vector's columns under the
/// selection `found` of the rows that survive (none when every row of a
/// dense probe vector does).
fn emit_selection(out: &mut Batch, pool: &mut SelPool, probe: &Batch, found: SelVec) {
    out.reset();
    out.len = probe.len;
    out.columns.extend(probe.columns.iter().cloned());
    pool.publish_survivors(found, probe.sel.is_none(), out);
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
    pairs: Pairs,
    sel_pool: SelPool,
    out: Batch,
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
            pairs: Pairs::new(&fields, parts, vector_size),
            fields,
            join_type: parts.join_type,
            scratch: ProbeScratch::default(),
            hash_buf: Vec::new(),
            grp_buf: Vec::new(),
            cur_cols: Vec::new(),
            pos: SelVec::default(),
            cursor: 0,
            link: END,
            sel_pool: SelPool::default(),
            out: Batch::new(),
            ctx,
        }
    }

    /// Emit the next at most `vector_size` (probe position, build row)
    /// pairs of the probe vector being expanded: walk the chains from
    /// where the last call stopped, then gather every output column.
    fn emit_pairs(&mut self, table: &JoinTable, prof: &mut Profiler) {
        let t_op = prof.start();
        let pos = self.pos.positions();
        self.pairs.clear();
        'vector: while self.cursor < pos.len() {
            let p = pos[self.cursor];
            while self.link != END {
                if self.pairs.full() {
                    break 'vector;
                }
                self.pairs.push(p, self.link);
                self.link = table.next_row(self.link);
            }
            self.cursor += 1;
            if let Some(&p) = pos.get(self.cursor) {
                self.link = table.first_row(self.grp_buf[p as usize]);
            }
        }
        (self.pairs).gather(&mut self.out, &self.cur_cols, &table.payload, prof);
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
                emit_selection(&mut self.out, &mut self.sel_pool, batch, found);
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

/// `merge_<ty>_col` over `keys` from cursor `from` (an index into the
/// live positions of `sel`), bounded by the key `v[i]`: the cursor past
/// the keys below it and past those equal to it, and the kernel's name.
fn merge_cursor(
    keys: &Vector,
    sel: Option<&SelVec>,
    from: usize,
    v: &Vector,
    i: usize,
) -> ((usize, usize), &'static str) {
    macro_rules! dispatch {
        ($($variant:ident $kernel:ident,)*) => {
            match (keys, v) {
                $((Vector::$variant(k), Vector::$variant(v)) => {
                    (vmerge::$kernel(k, sel, from, v[i]), stringify!($kernel))
                })*
                (k, v) => panic!(
                    "merge join of {:?} and {:?} keys",
                    k.scalar_type(),
                    v.scalar_type()
                ),
            }
        };
    }
    dispatch! {
        I8 merge_i8_col,
        I16 merge_i16_col,
        I32 merge_i32_col,
        I64 merge_i64_col,
        U8 merge_u8_col,
        U16 merge_u16_col,
        U32 merge_u32_col,
        U64 merge_u64_col,
    }
}

/// Call `f` with the live positions `[a, b)` of a vector: indices into
/// its selection, or the positions themselves when it has none.
fn for_live(sel: Option<&SelVec>, a: usize, b: usize, f: impl FnMut(u32)) {
    match sel {
        None => (a as u32..b as u32).for_each(f),
        Some(s) => s.positions()[a..b].iter().copied().for_each(f),
    }
}

/// The build side of a [`MergeJoinOp`]: its input, walked in key order
/// one vector at a time, and the rows of the runs (build rows of one
/// key) that the probe vector being joined matched.
struct BuildRuns {
    input: Box<dyn Operator>,
    key: ExprProg,
    payload_cols: Vec<usize>,
    keeps_rows: bool,
    /// The build vector being walked: its live keys, compacted; the
    /// positions they came from (all, in order, when `dense`); its
    /// payload columns; and the cursor, the first key not yet passed.
    keys: Vector,
    pos: Vec<u32>,
    dense: bool,
    cols: Vec<Rc<Vector>>,
    at: usize,
    done: bool,
    /// The current run's key; empty while there is none.
    run_key: Vector,
    /// Payload rows (`n_rows` of them, also without payload columns):
    /// row 0 is the default row (0 / empty string) an unmatched outer
    /// tuple takes, then the runs the probe vector matched; the current
    /// run is `[run_start, n_rows)`.
    rows: Vec<Vector>,
    n_rows: usize,
    run_start: usize,
    scratch: Vec<Vector>,
    /// Charged with the rows held and the build vector's keys.
    mem: MemTracker,
}

impl BuildRuns {
    /// Pull the next build vector that has a live row; `false` once the
    /// input is exhausted.
    fn pull(&mut self, prof: &mut Profiler) -> Result<bool, PlanError> {
        while !self.done {
            // Every row wanted from the last vector is taken: let the
            // input recycle its columns.
            self.cols.clear();
            let Some(batch) = self.input.next(prof)? else {
                self.done = true;
                break;
            };
            let sel = batch.sel.as_deref();
            let kv = self.key.eval(batch, sel, prof);
            self.at = 0;
            self.dense = sel.is_none();
            match sel {
                None => {
                    self.keys.clear();
                    self.keys.append_range(kv, 0, batch.len);
                }
                Some(s) => {
                    assert!(gather_rows(&mut self.keys, kv, s.positions(), None));
                    self.pos.clear();
                    self.pos.extend_from_slice(s.positions());
                }
            }
            if self.keeps_rows {
                (self.cols).extend(self.payload_cols.iter().map(|&c| batch.columns[c].clone()));
            }
            if !self.keys.is_empty() {
                return Ok(true);
            }
        }
        Ok(false)
    }

    /// Append the rows `[from, to)` of the build vector to the run.
    fn take(&mut self, from: usize, to: usize) {
        self.n_rows += to - from;
        if !self.keeps_rows {
            return;
        }
        let cols = self.rows.iter_mut().zip(&self.cols).zip(&mut self.scratch);
        for ((dst, col), scratch) in cols {
            if self.dense {
                dst.append_range(col, from, to - from);
            } else {
                assert!(gather_rows(scratch, col, &self.pos[from..to], None));
                dst.append_range(scratch, 0, to - from);
            }
        }
    }

    /// Make the run of the first build key `>= v[i]` current, its rows
    /// appended after those already held, reading on into the next
    /// build vectors while it continues; `false` when no build key is
    /// that large.
    fn advance(&mut self, v: &Vector, i: usize, prof: &mut Profiler) -> Result<bool, PlanError> {
        self.run_key.clear();
        self.run_start = self.n_rows;
        loop {
            if self.at == self.keys.len() && !self.pull(prof)? {
                return Ok(false);
            }
            let t0 = prof.start();
            let ((lt, _), sig) = merge_cursor(&self.keys, None, self.at, v, i);
            let passed = lt - self.at;
            prof.record_prim(sig, t0, passed, passed * self.keys.scalar_type().width());
            self.at = lt;
            if lt < self.keys.len() {
                break;
            }
        }
        self.run_key.append_range(&self.keys, self.at, 1);
        loop {
            let t0 = prof.start();
            let ((_, eq), sig) = merge_cursor(&self.keys, None, self.at, &self.run_key, 0);
            let passed = eq - self.at;
            prof.record_prim(sig, t0, passed, passed * self.keys.scalar_type().width());
            self.take(self.at, eq);
            self.at = eq;
            // Charge per build vector taken, as the hash build does, so
            // a run longer than the budget stops where it overflows.
            let rows: usize = self.rows.iter().map(Vector::byte_size).sum();
            self.mem.ensure(rows + self.keys.byte_size())?;
            if eq < self.keys.len() || !self.pull(prof)? {
                break;
            }
        }
        Ok(true)
    }

    /// Drop the rows of the runs before the current one — every pair
    /// that referenced them has been gathered — keeping the default row.
    fn compact(&mut self) {
        if self.run_start == 1 {
            return;
        }
        let keep = self.n_rows - self.run_start;
        for (rows, scratch) in self.rows.iter_mut().zip(&mut self.scratch) {
            scratch.clear();
            scratch.resize_zeroed(1);
            scratch.append_range(rows, self.run_start, keep);
            std::mem::swap(rows, scratch);
        }
        (self.n_rows, self.run_start) = (1 + keep, 1);
    }

    fn reset(&mut self) {
        self.input.reset();
        self.keys.clear();
        self.cols.clear();
        (self.at, self.done) = (0, false);
        self.run_key.clear();
        for rows in &mut self.rows {
            rows.clear();
            rows.resize_zeroed(1);
        }
        (self.n_rows, self.run_start) = (1, 1);
        self.mem.release_all();
    }
}

/// Merge equi-join of two inputs the check walk proved sorted on their
/// one integer key (rule `sorted-inputs-merge-join`): both sides are
/// pulled lazily and walked in step by the `merge_<ty>_col` cursor.
/// Only the build rows of the runs the current probe vector matches are
/// held — no table, no spill — and the output keeps the probe order, a
/// probe row's matches newest first as [`HashJoinOp`] emits them, so
/// the two joins give the same rows in the same order.
pub struct MergeJoinOp {
    build: BuildRuns,
    probe: Box<dyn Operator>,
    probe_key: ExprProg,
    join_type: JoinType,
    fields: Vec<OutField>,
    // Inner/outer: the probe vector being expanded — its columns, its
    // `(probe position, first row, end row)` matches in probe order, and
    // where the expansion stands (`matches[cursor]` continues below row
    // `link`).
    cur_cols: Vec<Rc<Vector>>,
    matches: Vec<(u32, u32, u32)>,
    cursor: usize,
    link: u32,
    pairs: Pairs,
    sel_pool: SelPool,
    out: Batch,
    ctx: Arc<QueryContext>,
}

impl MergeJoinOp {
    /// A merge join of `build` and `probe` from the verified `parts`
    /// (one key each, both sorted).
    pub(crate) fn new(
        build: Box<dyn Operator>,
        probe: Box<dyn Operator>,
        parts: &JoinParts,
        vector_size: usize,
        ctx: Arc<QueryContext>,
    ) -> Self {
        let mut fields: Vec<OutField> = probe.fields().to_vec();
        fields.extend(parts.payload_fields.iter().cloned());
        let key = |c: &Arc<ExprCode>| ExprProg::new(c, vector_size);
        let payload = |n| -> Vec<Vector> {
            (parts.payload_fields.iter())
                .map(|f| Vector::zeroed(f.ty, n))
                .collect()
        };
        let build_key = key(&parts.build_keys[0]);
        let key_ty = build_key.result_type();
        MergeJoinOp {
            build: BuildRuns {
                input: build,
                key: build_key,
                payload_cols: parts.payload_cols.clone(),
                keeps_rows: parts.join_type.keeps_rows(),
                keys: Vector::with_capacity(key_ty, vector_size),
                pos: Vec::new(),
                dense: true,
                cols: Vec::new(),
                at: 0,
                done: false,
                run_key: Vector::with_capacity(key_ty, 1),
                rows: payload(1),
                n_rows: 1,
                run_start: 1,
                scratch: payload(0),
                mem: MemTracker::new(ctx.clone(), "merge-join runs"),
            },
            probe,
            probe_key: key(&parts.probe_keys[0]),
            join_type: parts.join_type,
            pairs: Pairs::new(&fields, parts, vector_size),
            fields,
            cur_cols: Vec::new(),
            matches: Vec::with_capacity(vector_size),
            cursor: 0,
            link: 0,
            sel_pool: SelPool::default(),
            out: Batch::new(),
            ctx,
        }
    }

    /// Emit the next at most `vector_size` pairs of the probe vector
    /// being expanded, then gather every output column.
    fn emit_pairs(&mut self, prof: &mut Profiler) {
        let t_op = prof.start();
        self.pairs.clear();
        while let Some(&(p, first, _)) = self.matches.get(self.cursor) {
            // A run leaves newest first, as the hash join's chains do.
            while self.link > first && !self.pairs.full() {
                self.link -= 1;
                self.pairs.push(p, self.link);
            }
            if self.link > first {
                break;
            }
            self.cursor += 1;
            self.link = self.matches.get(self.cursor).map_or(0, |m| m.2);
        }
        (self.pairs).gather(&mut self.out, &self.cur_cols, &self.build.rows, prof);
        prof.record_op("MergeJoin", t_op, 0);
    }
}

impl Operator for MergeJoinOp {
    fn fields(&self) -> &[OutField] {
        &self.fields
    }

    fn next(&mut self, prof: &mut Profiler) -> Result<Option<&Batch>, PlanError> {
        loop {
            self.ctx.check()?;
            if self.cursor < self.matches.len() {
                self.emit_pairs(prof);
                return Ok(Some(&self.out));
            }
            // Every pair of the last probe vector is gathered: let the
            // probe side recycle its vectors, and drop the runs before
            // the current one (the next probe key may still match it).
            self.cur_cols.clear();
            self.matches.clear();
            self.build.compact();
            let Some(batch) = self.probe.next(prof)? else {
                return Ok(None);
            };
            let sel = batch.sel.as_deref();
            let live = batch.live();
            let t_op = prof.start();
            let keys = self.probe_key.eval(batch, sel, prof);
            let mut found = self.sel_pool.writable();
            let (build, matches) = (&mut self.build, &mut self.matches);
            // Probe keys below the current run miss, keys equal to it
            // match it; at a key above it the build side moves on to the
            // run of the first build key that is not below.
            let mut j = 0;
            while j < live {
                let (lt, eq) = match build.run_key.is_empty() {
                    true => (j, j),
                    false => {
                        let t0 = prof.start();
                        let (stops, sig) = merge_cursor(keys, sel, j, &build.run_key, 0);
                        let passed = stops.1 - j;
                        prof.record_prim(sig, t0, passed, passed * keys.scalar_type().width());
                        stops
                    }
                };
                let run = (build.run_start as u32, build.n_rows as u32);
                match self.join_type {
                    JoinType::LeftSemi => for_live(sel, lt, eq, |p| found.push(p)),
                    JoinType::LeftAnti => for_live(sel, j, lt, |p| found.push(p)),
                    JoinType::LeftOuter => {
                        for_live(sel, j, lt, |p| matches.push((p, 0, 1)));
                        for_live(sel, lt, eq, |p| matches.push((p, run.0, run.1)));
                    }
                    JoinType::Inner => for_live(sel, lt, eq, |p| matches.push((p, run.0, run.1))),
                }
                j = eq;
                let at = |j: usize| sel.map_or(j, |s| s.positions()[j] as usize);
                if j < live && !build.advance(keys, at(j), prof)? {
                    // The build side is exhausted: the rest miss.
                    match self.join_type {
                        JoinType::LeftAnti => for_live(sel, j, live, |p| found.push(p)),
                        JoinType::LeftOuter => for_live(sel, j, live, |p| matches.push((p, 0, 1))),
                        JoinType::Inner | JoinType::LeftSemi => {}
                    }
                    j = live;
                }
            }
            prof.record_op("MergeJoin", t_op, live);
            if self.join_type.keeps_rows() {
                self.sel_pool.recycle(found);
                if let Some(&(_, _, end)) = self.matches.first() {
                    self.cur_cols.clone_from(&batch.columns);
                    (self.cursor, self.link) = (0, end);
                }
            } else if found.is_empty() {
                self.sel_pool.recycle(found);
            } else {
                emit_selection(&mut self.out, &mut self.sel_pool, batch, found);
                return Ok(Some(&self.out));
            }
        }
    }

    fn reset(&mut self) {
        self.build.reset();
        self.probe.reset();
        self.cur_cols.clear();
        self.matches.clear();
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
