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
use crate::ops::scan::decode_codes;
use crate::ops::select::PredChain;
use crate::ops::{Operator, PredStep, ScanOp, ScanSpec};
use crate::profile::Profiler;
use crate::PlanError;
use std::sync::{Arc, Mutex};
use x100_storage::{StoredColumn, Table};
use x100_vector::{fetch as vfetch, SelVec, Vector};

/// A column to fetch from the target table, as the check walk resolved
/// it ([`crate::check`]).
#[derive(Debug, Clone)]
pub(crate) struct FetchSpec {
    /// What the gather reads.
    pub src: FetchSource,
    /// Gather signature for the trace.
    pub sig: String,
    /// Fetch raw enum codes instead of decoded values.
    pub as_codes: bool,
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

/// A fetch column plus the derived byte column it has asked for.
struct FetchCol {
    spec: FetchSpec,
    /// A derived source's byte column once this operator has asked for
    /// it.
    derived: Option<Arc<Vec<u8>>>,
    vector_size: usize,
}

/// One [`FetchCol`] per resolved fetch column.
fn fetch_cols(specs: &[FetchSpec], vector_size: usize) -> Vec<FetchCol> {
    let col = |spec: &FetchSpec| FetchCol {
        spec: spec.clone(),
        derived: None,
        vector_size,
    };
    specs.iter().map(col).collect()
}

/// Positional fetch (§4.1.2: a lookup into the resident fragment). Every
/// stored column gathers from its fragment through
/// [`gather_positional`], checkpointed or not — a column's compressed
/// chunks serve scans only, so a fetch never reads one; a derived
/// source gathers its byte column. `fetch_unchecked_dispatches` counts
/// the vectors that lay inside the fragment (the kernel checked each
/// once, not per tuple).
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
    let in_frag = match &fc.spec.src {
        FetchSource::Column(col) => {
            gather_positional(table, *col, fc.spec.as_codes, rowids, sel, out)?
        }
        FetchSource::Derived(d) => {
            if fc.derived.is_none() {
                fc.derived = Some(d.bytes(fc.vector_size, ctx, prof)?);
            }
            let bytes = fc.derived.as_ref().expect("just fetched");
            out.resize_zeroed(n);
            // One byte per fragment row of a delta-free table: a rowid
            // the kernel refuses is past the table's end.
            if !vfetch::fetch(out.as_u8_mut(), bytes, rowids, sel) {
                return Err(out_of_range(table, "derived predicate", rowids, n, sel));
            }
            true
        }
    };
    if in_frag {
        prof.add_counter("fetch_unchecked_dispatches", 1);
    }
    Ok(())
}

/// The typed error for a vector holding a live `#rowId` past the end of
/// `table` (the largest one is named).
fn out_of_range(
    table: &Table,
    col: &str,
    rowids: &[u32],
    n: usize,
    sel: Option<&SelVec>,
) -> PlanError {
    let live = |i: usize| rowids[i];
    let max = match sel {
        None => (0..n).map(live).max(),
        Some(s) => s.iter().map(live).max(),
    };
    PlanError::Invalid(format!(
        "fetch from `{}`.`{col}`: #rowId {} is out of range ({} rows)",
        table.name(),
        max.unwrap_or_default(),
        table.total_rows()
    ))
}

/// Fetch `table[rowids[i]].col` positionally into `out` under `sel`;
/// `Ok(true)` when every gathered rowid was inside the fragment. The
/// gather kernel's one range check per vector is the fragment-vs-delta
/// test ([`gather_fragment`]). A vector reaching past the fragment
/// gathers its fragment rows and its insert-delta rows apart, each
/// under its own selection, and one more gather over the two results
/// side by side takes each position from its region; a rowid past the
/// table's end is a typed error.
pub(crate) fn gather_positional(
    table: &Table,
    col: usize,
    as_codes: bool,
    rowids: &[u32],
    sel: Option<&SelVec>,
    out: &mut Vector,
) -> Result<bool, PlanError> {
    let sc = table.column(col);
    if gather_fragment(sc, as_codes, rowids, sel, out) {
        return Ok(true);
    }
    let n = rowids.len();
    // Code fetches run over tables without pending inserts only (the
    // check walk's condition): past the fragment is past the end.
    if as_codes || !vfetch::in_range(rowids, n, sel, table.total_rows()) {
        return Err(out_of_range(table, &sc.field().name, rowids, n, sel));
    }
    let frag = table.fragment_rows() as u32;
    let live = sel.map_or_else(|| (0..n as u32).collect(), |s| s.positions().to_vec());
    let (in_frag, in_delta): (Vec<u32>, Vec<u32>) =
        live.into_iter().partition(|&i| rowids[i as usize] < frag);
    let delta_ids: Vec<u32> = rowids.iter().map(|&r| r.wrapping_sub(frag)).collect();
    let in_frag = SelVec::from_positions(in_frag);
    let in_delta = SelVec::from_positions(in_delta);
    let mut both = Vector::with_capacity(out.scalar_type(), 2 * n);
    let mut tail = Vector::with_capacity(out.scalar_type(), n);
    let gathered = gather_fragment(sc, false, rowids, Some(&in_frag), &mut both)
        && vfetch::gather_rows(
            &mut tail,
            table.inserts().column(col),
            &delta_ids,
            Some(&in_delta),
        );
    assert!(gathered, "each live rowid lies in its region");
    both.append_range(&tail, 0, n);
    let pick: Vec<u32> = (0..n as u32)
        .map(|i| {
            if rowids[i as usize] < frag {
                i
            } else {
                n as u32 + i
            }
        })
        .collect();
    assert!(vfetch::gather_rows(out, &both, &pick, sel));
    Ok(false)
}

/// Gather `sc`'s fragment at `rowids` under `sel` into `out`: the
/// physical values, or for an enum column (unless `as_codes`) a code
/// gather plus the scan's dictionary decode under the same selection.
/// `false`, with nothing gathered, when a selected rowid lies past the
/// fragment.
fn gather_fragment(
    sc: &StoredColumn,
    as_codes: bool,
    rowids: &[u32],
    sel: Option<&SelVec>,
    out: &mut Vector,
) -> bool {
    match sc.dict().filter(|_| !as_codes) {
        None => vfetch::gather_rows(out, sc.physical(), rowids, sel),
        Some(dict) => {
            let mut codes = Vector::with_capacity(sc.physical_type(), rowids.len());
            let in_frag = vfetch::gather_rows(&mut codes, sc.physical(), rowids, sel);
            if in_frag {
                decode_codes(&codes, dict.values(), sel, out);
            }
            in_frag
        }
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
            assert!(vfetch::gather_rows(&mut v, colv, &child_pos, None));
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
