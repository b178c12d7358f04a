//! `Fetch1Join` and `FetchNJoin`: positional joins on `#rowId` (§4.1.2).
//!
//! "Just like the void type in MonetDB, X100 gives each table a virtual
//! #rowId column, which is just a densely ascending number from 0. The
//! Fetch1Join allows to positionally fetch column values by #rowId."
//!
//! `Fetch1Join` is 1:1 — each dataflow tuple fetches one row of the
//! target table (join indices over foreign keys make FK joins this
//! cheap). `FetchNJoin` is 1:N — each tuple carries a contiguous
//! `[lo, lo+cnt)` `#rowId` range (e.g. an order fetching its clustered
//! lineitems), which changes the dataflow cardinality.

use crate::batch::{Batch, OutField, VecPool};
use crate::compile::{ExprCode, ExprProg};
use crate::govern::{MemTracker, QueryContext};
use crate::ops::scan::{read_compressed, CompRead};
use crate::ops::select::PredChain;
use crate::ops::{push_from, Operator, PredStep, ScanOp, ScanSpec};
use crate::profile::Profiler;
use crate::PlanError;
use std::sync::{Arc, Mutex};
use x100_storage::{ColumnData, Table};
use x100_vector::{fetch as vfetch, ScalarType, SelVec, Vector};

/// A column to fetch from the target table, as the check walk resolved
/// it ([`crate::check`]).
#[derive(Debug, Clone)]
pub(crate) struct FetchSpec {
    /// What the gather reads.
    pub src: FetchSource,
    /// Gather signature for the trace (`…_unchecked` for the twin).
    pub sig: String,
    /// Fetch raw enum codes instead of decoded values.
    pub as_codes: bool,
    /// Dispatch the `_unchecked` gather twin: set by the check walk only
    /// when the facts analyzer proved every `#rowId` within the
    /// fragment of *this* table (`engine::facts` fetch-bounds sink) and
    /// the column has a twin ([`has_unchecked_twin`]).
    pub unchecked: bool,
}

/// What a fetch column gathers from.
#[derive(Debug, Clone)]
pub(crate) enum FetchSource {
    /// A stored column of the target table, by index.
    Column(usize),
    /// A one-byte column computed over the target table (rule
    /// `select-before-fetch`).
    Derived(Arc<DerivedCol>),
}

/// The dimension side of a selection that reads only what one fetch
/// brings in: the predicate over the target table's own columns,
/// evaluated once over the whole table (which has no pending deltas —
/// the check walk's condition — so scan position = `#rowId`) into one
/// byte per row, 1 where the row passes. The fetch gathers that byte and
/// the selection above it keeps the non-zero ones.
#[derive(Debug)]
pub(crate) struct DerivedCol {
    /// Scan of the columns the predicate reads, `fields` naming them by
    /// the fetch aliases the predicate uses.
    pub scan: ScanSpec,
    pub fields: Vec<OutField>,
    /// The predicate, split and verified against `fields`.
    pub steps: Vec<PredStep<Arc<ExprCode>>>,
    /// Computed at run time by the first operator that gathers from it
    /// (never by the check walk) and shared by every operator
    /// instantiated from the node, morsel workers included; charged
    /// once, to the query that computes it, for the rest of that query.
    bytes: Mutex<Option<Arc<Vec<u8>>>>,
}

impl DerivedCol {
    pub(crate) fn new(
        scan: ScanSpec,
        fields: Vec<OutField>,
        steps: Vec<PredStep<Arc<ExprCode>>>,
    ) -> Self {
        DerivedCol {
            scan,
            fields,
            steps,
            bytes: Mutex::new(None),
        }
    }

    /// The byte column; the caller that finds it missing computes it
    /// while the others (who could do nothing without it) wait. An error
    /// (cancellation, a budget) leaves it missing and uncharged.
    fn bytes(
        &self,
        vector_size: usize,
        ctx: &Arc<QueryContext>,
        prof: &mut Profiler,
    ) -> Result<Arc<Vec<u8>>, PlanError> {
        // The slot is only ever replaced whole, so a poisoned lock
        // still guards a valid value.
        let mut slot = self.bytes.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(b) = slot.as_ref() {
            return Ok(b.clone());
        }
        let rows = self.scan.table.fragment_rows();
        let mut mem = MemTracker::new(ctx.clone(), "derived fetch column");
        mem.ensure(rows)?;
        let mut scan = ScanOp::new(&self.scan, &self.fields, None, vector_size, ctx.clone())?;
        let mut chain = PredChain::new(&self.steps, vector_size);
        let mut keep = vec![0u8; rows];
        let mut base = 0;
        while let Some(batch) = scan.next(prof)? {
            ctx.check()?;
            if let Some(sel) = chain.run(batch, prof) {
                for i in sel.iter() {
                    keep[base + i] = 1;
                }
                chain.recycle(sel);
            }
            base += batch.len;
        }
        let b = Arc::new(keep);
        *slot = Some(b.clone());
        mem.keep_for_query();
        Ok(b)
    }
}

/// A fetch column plus its per-operator gather scratch.
struct FetchCol {
    spec: FetchSpec,
    /// Reused scratch for gathering straight from compressed chunks.
    gs: GatherState,
    /// A derived source's byte column once this operator has asked for
    /// it.
    derived: Option<Arc<Vec<u8>>>,
    vector_size: usize,
}

/// One [`FetchCol`] per resolved fetch column.
fn fetch_cols(specs: &[FetchSpec], vector_size: usize) -> Vec<FetchCol> {
    let col = |spec: &FetchSpec| FetchCol {
        spec: spec.clone(),
        gs: GatherState::default(),
        derived: None,
        vector_size,
    };
    specs.iter().map(col).collect()
}

/// Per-fetch-column decode scratch: the compressed-read state (sync
/// replay buffer, checksum cursor, healed copy) and the chunk-local
/// position list.
#[derive(Default)]
struct GatherState {
    read: CompRead,
    tmp: Vec<u32>,
}

/// Positional fetch with the compressed fast path: dense (unselected)
/// rowid vectors against a checkpointed fragment column gather directly
/// from the packed chunks — PFOR-DELTA `#rowId` columns seek from the
/// nearest sync point instead of decoding whole chunks. A torn chunk
/// goes down the recovery ladder ([`read_compressed`]): replica heal,
/// then the raw fragment below.
fn fetch_gather(
    table: &Table,
    fc: &mut FetchCol,
    rowids: &[u32],
    sel: Option<&SelVec>,
    out: &mut Vector,
    ctx: &Arc<QueryContext>,
    prof: &mut Profiler,
) -> Result<(), PlanError> {
    let n = rowids.len();
    let col = match &fc.spec.src {
        FetchSource::Column(col) => *col,
        FetchSource::Derived(d) => {
            if fc.derived.is_none() {
                fc.derived = Some(d.bytes(fc.vector_size, ctx, prof)?);
            }
            let bytes = fc.derived.as_ref().expect("just fetched");
            out.resize_zeroed(n);
            let o = out.as_u8_mut();
            if fc.spec.unchecked {
                // SAFETY: as in `unchecked_gather` — the same bind-time
                // proof covers every gathered rowid, against this
                // table's fragment length, which is `bytes.len()`.
                unsafe { vfetch::map_fetch_u32_col_u8_col_unchecked(o, bytes, rowids, sel) };
                prof.add_counter("fetch_unchecked_dispatches", 1);
            } else {
                vfetch::map_fetch_u32_col_u8_col(o, bytes, rowids, sel);
            }
            return Ok(());
        }
    };
    let sc = table.column(col);
    let frag_rows = table.fragment_rows() as u32;
    if sel.is_none()
        && sc.compressed().is_some()
        && (fc.spec.as_codes || sc.dict().is_none())
        && rowids.iter().all(|&r| r < frag_rows)
    {
        let GatherState { read, tmp } = &mut fc.gs;
        let gathered = read_compressed(table, col, read, ctx, prof, |cc, cursor, scratch| {
            cc.gather(rowids, out, scratch, tmp, cursor)
        })?;
        if gathered.is_some() {
            prof.add_counter("fetch_compressed_gathers", 1);
            return Ok(());
        }
    }
    // Proven-bounds fast path: skip both the O(n) range scan and the
    // per-element bounds checks. `fc.spec.unchecked` is only ever set by the
    // check walk under a fetch-bounds proof against this very table.
    if fc.spec.unchecked && (fc.spec.as_codes || sc.dict().is_none()) {
        out.resize_zeroed(n);
        if unchecked_gather(sc.physical(), out, rowids, sel) {
            prof.add_counter("fetch_unchecked_dispatches", 1);
            return Ok(());
        }
    }
    gather_positional(table, col, fc.spec.as_codes, rowids, n, sel, out);
    Ok(())
}

/// Dispatch one `_unchecked` gather twin for a (column, output) type
/// pair; `false` when no twin exists (strings, u64, bool) and the caller
/// must fall back to the checked path.
fn unchecked_gather(
    data: &ColumnData,
    out: &mut Vector,
    rowids: &[u32],
    sel: Option<&SelVec>,
) -> bool {
    // SAFETY (every arm): the bind-time facts proof guarantees each
    // gathered rowid < fragment length (`engine::facts` fetch-bounds
    // sink — under a selection only selected positions are gathered,
    // which are exactly the positions the proof covers), and the caller
    // resized `out` to cover every gathered position.
    match (data, out) {
        (ColumnData::I8(b), Vector::I8(o)) => unsafe {
            vfetch::map_fetch_u32_col_i8_col_unchecked(o, b, rowids, sel)
        },
        (ColumnData::I16(b), Vector::I16(o)) => unsafe {
            vfetch::map_fetch_u32_col_i16_col_unchecked(o, b, rowids, sel)
        },
        (ColumnData::I32(b), Vector::I32(o)) => unsafe {
            vfetch::map_fetch_u32_col_i32_col_unchecked(o, b, rowids, sel)
        },
        (ColumnData::I64(b), Vector::I64(o)) => unsafe {
            vfetch::map_fetch_u32_col_i64_col_unchecked(o, b, rowids, sel)
        },
        (ColumnData::U8(b), Vector::U8(o)) => unsafe {
            vfetch::map_fetch_u32_col_u8_col_unchecked(o, b, rowids, sel)
        },
        (ColumnData::U16(b), Vector::U16(o)) => unsafe {
            vfetch::map_fetch_u32_col_u16_col_unchecked(o, b, rowids, sel)
        },
        (ColumnData::U32(b), Vector::U32(o)) => unsafe {
            vfetch::map_fetch_u32_col_u32_col_unchecked(o, b, rowids, sel)
        },
        (ColumnData::F64(b), Vector::F64(o)) => unsafe {
            vfetch::map_fetch_u32_col_f64_col_unchecked(o, b, rowids, sel)
        },
        _ => return false,
    }
    true
}

/// Whether the `_unchecked` twin family covers this column's physical
/// representation (it must also not be dictionary-decoded — code
/// fetches and plain columns qualify, decoded enum fetches do not).
pub(crate) fn has_unchecked_twin(data: &ColumnData) -> bool {
    matches!(
        data,
        ColumnData::I8(_)
            | ColumnData::I16(_)
            | ColumnData::I32(_)
            | ColumnData::I64(_)
            | ColumnData::U8(_)
            | ColumnData::U16(_)
            | ColumnData::U32(_)
            | ColumnData::F64(_)
    )
}

/// Fetch `table[rowids[i]].col` positionally into `out` under `sel`.
/// Fragment-region fast path per type; enum columns decode through the
/// dictionary; delta-region rowids take the slow value path.
#[allow(clippy::needless_range_loop)] // positional writes under a selection
fn gather_positional(
    table: &Table,
    col: usize,
    as_codes: bool,
    rowids: &[u32],
    n: usize,
    sel: Option<&SelVec>,
    out: &mut Vector,
) {
    let sc = table.column(col);
    let frag_rows = table.fragment_rows() as u32;
    let in_frag = match sel {
        None => rowids[..n].iter().all(|&r| r < frag_rows),
        Some(s) => s.iter().all(|i| rowids[i] < frag_rows),
    };
    out.resize_zeroed(n);
    if in_frag {
        // Code fetch: gather the physical code column directly.
        let dict = if as_codes { None } else { sc.dict() };
        match (dict, sc.physical()) {
            (None, data) => {
                match (data, &mut *out) {
                    (ColumnData::I8(b), Vector::I8(o)) => vfetch::fetch(o, b, rowids, sel),
                    (ColumnData::I16(b), Vector::I16(o)) => vfetch::fetch(o, b, rowids, sel),
                    (ColumnData::I32(b), Vector::I32(o)) => vfetch::fetch(o, b, rowids, sel),
                    (ColumnData::I64(b), Vector::I64(o)) => vfetch::fetch(o, b, rowids, sel),
                    (ColumnData::U8(b), Vector::U8(o)) => vfetch::fetch(o, b, rowids, sel),
                    (ColumnData::U16(b), Vector::U16(o)) => vfetch::fetch(o, b, rowids, sel),
                    (ColumnData::U32(b), Vector::U32(o)) => vfetch::fetch(o, b, rowids, sel),
                    (ColumnData::U64(b), Vector::U64(o)) => vfetch::fetch(o, b, rowids, sel),
                    (ColumnData::F64(b), Vector::F64(o)) => vfetch::fetch(o, b, rowids, sel),
                    (ColumnData::Str(b), Vector::Str(o)) => {
                        o.clear();
                        match sel {
                            None => {
                                for &r in &rowids[..n] {
                                    o.push(b.get(r as usize));
                                }
                            }
                            Some(s) => {
                                // Positional write into a StrVec: fill
                                // unselected with empties.
                                let mut at = 0;
                                for i in s.iter() {
                                    for _ in at..i {
                                        o.push("");
                                    }
                                    o.push(b.get(rowids[i] as usize));
                                    at = i + 1;
                                }
                                for _ in at..n {
                                    o.push("");
                                }
                            }
                        }
                    }
                    (d, o) => panic!(
                        "fetch mismatch: column {:?}, out {:?}",
                        d.scalar_type(),
                        o.scalar_type()
                    ),
                }
            }
            (Some(dict), codes) => {
                // Two-step: gather code, then decode via dictionary.
                match (codes, dict.values(), &mut *out) {
                    (ColumnData::U8(c), ColumnData::F64(d), Vector::F64(o)) => {
                        gather_decode(c, d, rowids, n, sel, o)
                    }
                    (ColumnData::U8(c), ColumnData::I64(d), Vector::I64(o)) => {
                        gather_decode(c, d, rowids, n, sel, o)
                    }
                    (ColumnData::U8(c), ColumnData::I32(d), Vector::I32(o)) => {
                        gather_decode(c, d, rowids, n, sel, o)
                    }
                    (ColumnData::U16(c), ColumnData::F64(d), Vector::F64(o)) => {
                        gather_decode16(c, d, rowids, n, sel, o)
                    }
                    (ColumnData::U16(c), ColumnData::I64(d), Vector::I64(o)) => {
                        gather_decode16(c, d, rowids, n, sel, o)
                    }
                    (ColumnData::U16(c), ColumnData::I32(d), Vector::I32(o)) => {
                        gather_decode16(c, d, rowids, n, sel, o)
                    }
                    (_, ColumnData::Str(d), Vector::Str(o)) => {
                        o.clear();
                        let code_of = |r: usize| -> usize {
                            match codes {
                                ColumnData::U8(c) => c[r] as usize,
                                ColumnData::U16(c) => c[r] as usize,
                                _ => unreachable!("codes are U8/U16"),
                            }
                        };
                        match sel {
                            None => {
                                for &r in &rowids[..n] {
                                    o.push(d.get(code_of(r as usize)));
                                }
                            }
                            Some(s) => {
                                let mut next = s.iter().peekable();
                                for i in 0..n {
                                    if next.peek() == Some(&i) {
                                        next.next();
                                        o.push(d.get(code_of(rowids[i] as usize)));
                                    } else {
                                        o.push("");
                                    }
                                }
                            }
                        }
                    }
                    (c, d, o) => panic!(
                        "enum fetch mismatch: codes {:?}, dict {:?}, out {:?}",
                        c.scalar_type(),
                        d.scalar_type(),
                        o.scalar_type()
                    ),
                }
            }
        }
    } else {
        assert!(
            !as_codes,
            "code fetch into the delta region (binder forbids this)"
        );
        // Slow path: some rowids live in the delta region.
        match sel {
            None => {
                out.clear();
                for &r in &rowids[..n] {
                    out.push_value(&row_value(table, col, r));
                }
            }
            Some(s) => {
                // Positional writes for fixed-width types only; strings
                // with deltas + selection are handled valuewise.
                if out.scalar_type() == ScalarType::Str {
                    let strvec = out.as_str_mut();
                    strvec.clear();
                    let mut next = s.iter().peekable();
                    for i in 0..n {
                        if next.peek() == Some(&i) {
                            next.next();
                            match row_value(table, col, rowids[i]) {
                                x100_vector::Value::Str(v) => strvec.push(&v),
                                other => panic!("expected string, got {other:?}"),
                            }
                        } else {
                            strvec.push("");
                        }
                    }
                } else {
                    for i in s.iter() {
                        set_value_at(out, i, &row_value(table, col, rowids[i]));
                    }
                }
            }
        }
    }
}

fn gather_decode<T: Copy>(
    codes: &[u8],
    dict: &[T],
    rowids: &[u32],
    n: usize,
    sel: Option<&SelVec>,
    out: &mut [T],
) {
    match sel {
        None => {
            for (o, &r) in out.iter_mut().zip(rowids.iter()).take(n) {
                *o = dict[codes[r as usize] as usize];
            }
        }
        Some(s) => {
            for i in s.iter() {
                out[i] = dict[codes[rowids[i] as usize] as usize];
            }
        }
    }
}

fn gather_decode16<T: Copy>(
    codes: &[u16],
    dict: &[T],
    rowids: &[u32],
    n: usize,
    sel: Option<&SelVec>,
    out: &mut [T],
) {
    match sel {
        None => {
            for (o, &r) in out.iter_mut().zip(rowids.iter()).take(n) {
                *o = dict[codes[r as usize] as usize];
            }
        }
        Some(s) => {
            for i in s.iter() {
                out[i] = dict[codes[rowids[i] as usize] as usize];
            }
        }
    }
}

fn row_value(table: &Table, col: usize, rowid: u32) -> x100_vector::Value {
    // get_row is row-at-a-time; extract just one column.
    table.get_row(rowid)[col].clone()
}

fn set_value_at(out: &mut Vector, i: usize, v: &x100_vector::Value) {
    use x100_vector::Value;
    match (out, v) {
        (Vector::I8(o), Value::I8(x)) => o[i] = *x,
        (Vector::I16(o), Value::I16(x)) => o[i] = *x,
        (Vector::I32(o), Value::I32(x)) => o[i] = *x,
        (Vector::I64(o), Value::I64(x)) => o[i] = *x,
        (Vector::U8(o), Value::U8(x)) => o[i] = *x,
        (Vector::U16(o), Value::U16(x)) => o[i] = *x,
        (Vector::U32(o), Value::U32(x)) => o[i] = *x,
        (Vector::U64(o), Value::U64(x)) => o[i] = *x,
        (Vector::F64(o), Value::F64(x)) => o[i] = *x,
        (Vector::Bool(o), Value::Bool(x)) => o[i] = *x,
        (o, v) => panic!(
            "set_value_at mismatch: {:?} <- {:?}",
            o.scalar_type(),
            v.scalar_type()
        ),
    }
}

/// `Fetch1Join(Dataflow, Table, Exp<int>, List<Column>)` — 1:1
/// positional fetch; pass-through child columns plus fetched columns.
pub struct Fetch1JoinOp {
    child: Box<dyn Operator>,
    table: Arc<Table>,
    rowid_prog: ExprProg,
    fetch_cols: Vec<FetchCol>,
    fields: Vec<OutField>,
    pools: Vec<VecPool>,
    rowid_buf: Vec<u32>,
    out: Batch,
    ctx: Arc<QueryContext>,
}

impl Fetch1JoinOp {
    /// A 1:1 fetch from `table` over `child`: `rowid` produces `u32`
    /// row ids (a join-index column or an enum code widened to `u32`),
    /// `cols` are the resolved fetch columns and `fields` the output
    /// shape (child columns, then one per fetch column).
    pub(crate) fn new(
        child: Box<dyn Operator>,
        table: Arc<Table>,
        rowid: &Arc<ExprCode>,
        cols: &[FetchSpec],
        fields: Vec<OutField>,
        vector_size: usize,
        ctx: Arc<QueryContext>,
    ) -> Self {
        let pools = fields[fields.len() - cols.len()..]
            .iter()
            .map(|f| VecPool::new(f.ty, vector_size))
            .collect();
        Fetch1JoinOp {
            child,
            table,
            rowid_prog: ExprProg::new(rowid, vector_size),
            fetch_cols: fetch_cols(cols, vector_size),
            fields,
            pools,
            rowid_buf: Vec::new(),
            out: Batch::new(),
            ctx,
        }
    }
}

impl Operator for Fetch1JoinOp {
    fn fields(&self) -> &[OutField] {
        &self.fields
    }

    fn next(&mut self, prof: &mut Profiler) -> Result<Option<&Batch>, PlanError> {
        let Some(batch) = self.child.next(prof)? else {
            return Ok(None);
        };
        let n = batch.len;
        let sel = batch.sel.as_deref();
        let live = batch.live();
        let t_op = prof.start();
        // Row ids.
        let rowids = self.rowid_prog.eval(batch, sel, prof);
        self.rowid_buf.clear();
        self.rowid_buf.extend_from_slice(rowids.as_u32());
        // Output: pass-through + fetched.
        self.out.reset();
        self.out.len = n;
        self.out.sel = batch.sel.clone();
        self.out.columns.extend(batch.columns.iter().cloned());
        for k in 0..self.fetch_cols.len() {
            let t0 = prof.start();
            let mut v = self.pools[k].writable();
            let fc = &mut self.fetch_cols[k];
            fetch_gather(
                &self.table,
                fc,
                &self.rowid_buf[..n],
                sel,
                &mut v,
                &self.ctx,
                prof,
            )?;
            let bytes = live * 4 + v.byte_size();
            prof.record_prim(&fc.spec.sig, t0, live, bytes);
            self.pools[k].publish(v, &mut self.out);
        }
        prof.record_op("Fetch1Join", t_op, live);
        Ok(Some(&self.out))
    }

    fn reset(&mut self) {
        self.child.reset();
    }
}

/// `FetchNJoin(Dataflow, Table, Exp<int>, Exp<int>, Column,
/// List<Column>)` — 1:N positional fetch over contiguous `#rowId`
/// ranges; expands the dataflow cardinality.
pub struct FetchNJoinOp {
    child: Box<dyn Operator>,
    table: Arc<Table>,
    lo_prog: ExprProg,
    cnt_prog: ExprProg,
    fetch_cols: Vec<FetchCol>,
    fields: Vec<OutField>,
    child_arity: usize,
    pools: Vec<VecPool>,
    // Expansion state: the pending (child position, rowid range) queue.
    pending: Vec<(u32, u32, u32)>, // (child pos, lo, cnt)
    pend_idx: usize,
    pend_off: u32,
    // A retained copy of the current child batch (the child's buffers
    // are reused, so we must hold Rc clones while expanding).
    cur_cols: Vec<std::rc::Rc<Vector>>,
    rowid_scratch: Vec<u32>,
    out: Batch,
    vector_size: usize,
    done: bool,
    ctx: Arc<QueryContext>,
}

impl FetchNJoinOp {
    /// A 1:N fetch from `table` over `child`: `lo` and `cnt` produce the
    /// `#rowId` range `[lo, lo+cnt)`; `cols` are the resolved fetch
    /// columns and `fields` the output shape.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        child: Box<dyn Operator>,
        table: Arc<Table>,
        lo: &Arc<ExprCode>,
        cnt: &Arc<ExprCode>,
        cols: &[FetchSpec],
        fields: Vec<OutField>,
        vector_size: usize,
        ctx: Arc<QueryContext>,
    ) -> Self {
        let pools = fields
            .iter()
            .map(|f| VecPool::new(f.ty, vector_size))
            .collect();
        FetchNJoinOp {
            child,
            table,
            lo_prog: ExprProg::new(lo, vector_size),
            cnt_prog: ExprProg::new(cnt, vector_size),
            fetch_cols: fetch_cols(cols, vector_size),
            child_arity: fields.len() - cols.len(),
            fields,
            pools,
            pending: Vec::new(),
            pend_idx: 0,
            pend_off: 0,
            cur_cols: Vec::new(),
            rowid_scratch: Vec::new(),
            out: Batch::new(),
            vector_size,
            done: false,
            ctx,
        }
    }

    /// Pull the next child batch and compute its expansion ranges.
    fn refill(&mut self, prof: &mut Profiler) -> Result<bool, PlanError> {
        loop {
            let Some(batch) = self.child.next(prof)? else {
                return Ok(false);
            };
            let sel = batch.sel.as_deref();
            let lo = self.lo_prog.eval(batch, sel, prof).as_u32().to_vec();
            let cnt = self.cnt_prog.eval(batch, sel, prof).as_u32().to_vec();
            self.pending.clear();
            match sel {
                None => {
                    for i in 0..batch.len {
                        if cnt[i] > 0 {
                            self.pending.push((i as u32, lo[i], cnt[i]));
                        }
                    }
                }
                Some(s) => {
                    for i in s.iter() {
                        if cnt[i] > 0 {
                            self.pending.push((i as u32, lo[i], cnt[i]));
                        }
                    }
                }
            }
            if self.pending.is_empty() {
                continue;
            }
            self.cur_cols = batch.columns.clone();
            self.pend_idx = 0;
            self.pend_off = 0;
            return Ok(true);
        }
    }
}

impl Operator for FetchNJoinOp {
    fn fields(&self) -> &[OutField] {
        &self.fields
    }

    fn next(&mut self, prof: &mut Profiler) -> Result<Option<&Batch>, PlanError> {
        if self.done {
            return Ok(None);
        }
        if self.pend_idx >= self.pending.len() && !self.refill(prof)? {
            self.done = true;
            return Ok(None);
        }
        let t_op = prof.start();
        // Fill up to vector_size expanded tuples.
        self.rowid_scratch.clear();
        let mut child_pos: Vec<u32> = Vec::new();
        while self.rowid_scratch.len() < self.vector_size {
            if self.pend_idx >= self.pending.len() {
                break;
            }
            let (cpos, lo, cnt) = self.pending[self.pend_idx];
            let remaining = cnt - self.pend_off;
            let take = (self.vector_size - self.rowid_scratch.len()).min(remaining as usize) as u32;
            for k in 0..take {
                self.rowid_scratch.push(lo + self.pend_off + k);
                child_pos.push(cpos);
            }
            self.pend_off += take;
            if self.pend_off == cnt {
                self.pend_idx += 1;
                self.pend_off = 0;
            }
        }
        let n = self.rowid_scratch.len();
        self.out.reset();
        self.out.len = n;
        // Replicate child columns by position.
        for (k, colv) in self.cur_cols.iter().enumerate() {
            let mut v = self.pools[k].writable();
            for &cp in &child_pos {
                push_from(&mut v, colv, cp as usize);
            }
            self.pools[k].publish(v, &mut self.out);
        }
        // Fetch target columns.
        for j in 0..self.fetch_cols.len() {
            let t0 = prof.start();
            let mut v = self.pools[self.child_arity + j].writable();
            let fc = &mut self.fetch_cols[j];
            fetch_gather(
                &self.table,
                fc,
                &self.rowid_scratch[..n],
                None,
                &mut v,
                &self.ctx,
                prof,
            )?;
            let bytes = n * 4 + v.byte_size();
            prof.record_prim(&fc.spec.sig, t0, n, bytes);
            self.pools[self.child_arity + j].publish(v, &mut self.out);
        }
        prof.record_op("FetchNJoin", t_op, n);
        Ok(Some(&self.out))
    }

    fn reset(&mut self) {
        self.child.reset();
        self.pending.clear();
        self.pend_idx = 0;
        self.pend_off = 0;
        self.cur_cols.clear();
        self.done = false;
    }
}
