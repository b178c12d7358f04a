//! `Order` and `TopN` (paper Fig. 7).
//!
//! `Order(Table, List<OrdExp>, …) : Table` — in the paper, ordering
//! materializes; here [`OrderOp`] materializes its input dataflow,
//! sorts a permutation, and re-emits vector-at-a-time.
//!
//! `TopN(Dataflow, List<OrdExp>, List<Exp>, int) : Dataflow` emits the
//! `n` smallest (per the sort spec) rows: the same operator with a row
//! limit.
//!
//! Under memory pressure (a failed [`MemTracker::try_ensure`] probe
//! with a spill budget configured) the materializing buffer degrades
//! to an **external merge sort**: the current store is sorted and
//! written as an on-disk run (DESIGN.md §12), freed, and the build
//! continues; emission then k-way-merges the runs vector-at-a-time
//! with a run-index tie-break, which reproduces the stable in-memory
//! sort byte for byte. Fan-in beyond [`MERGE_FAN_IN`] triggers extra
//! merge passes (counted as `spill_merge_passes`).

use crate::batch::{Batch, OutField, VecPool};
use crate::govern::{MemTracker, QueryContext};
use crate::ops::{cmp_at, push_from, Operator};
use crate::profile::Profiler;
use crate::spill::{RunReader, SpillManager, SpillRun, SPILL_BLOCK_ROWS};
use crate::PlanError;
use std::cmp::Ordering;
use std::sync::Arc;
use x100_vector::fetch::gather_rows;
use x100_vector::Vector;

/// Maximum runs merged in one pass: keeps merge state at
/// `MERGE_FAN_IN` in-cache blocks regardless of how many runs the
/// budget forced.
const MERGE_FAN_IN: usize = 8;

/// Sort direction for one key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SortOrder {
    /// Ascending.
    Asc,
    /// Descending.
    Desc,
}

/// One ordering key: column name + direction.
#[derive(Debug, Clone, PartialEq)]
pub struct OrdExp {
    /// Column to sort on.
    pub col: String,
    /// Direction.
    pub order: SortOrder,
}

impl OrdExp {
    /// `col ASC`.
    pub fn asc(col: impl Into<String>) -> Self {
        OrdExp {
            col: col.into(),
            order: SortOrder::Asc,
        }
    }

    /// `col DESC`.
    pub fn desc(col: impl Into<String>) -> Self {
        OrdExp {
            col: col.into(),
            order: SortOrder::Desc,
        }
    }
}

/// Materializing sort operator.
pub struct OrderOp {
    child: Box<dyn Operator>,
    keys: Vec<(usize, SortOrder)>,
    fields: Vec<OutField>,
    // Materialized input (full columns) + sorted permutation.
    store: Vec<Vector>,
    perm: Vec<u32>,
    built: bool,
    emit_pos: usize,
    pools: Vec<VecPool>,
    out: Batch,
    vector_size: usize,
    mem: MemTracker,
    /// Bounded emission: `TopN` is a sort that stops after `limit` rows
    /// (the paper's heap-based variant is an optimization with identical
    /// semantics, and result sizes here are small).
    limit: Option<usize>,
    /// Sorted on-disk runs, in build order (earlier runs hold earlier
    /// input rows, which the merge tie-break relies on for stability).
    runs: Vec<SpillRun>,
    /// Streaming k-way merge over `runs`, when the build spilled.
    merge: Option<Vec<MergeCursor>>,
}

/// One run's read position inside the k-way merge.
struct MergeCursor {
    reader: RunReader,
    block: Vec<Vector>,
    pos: usize,
    len: usize,
    done: bool,
}

impl MergeCursor {
    fn open(
        run: &SpillRun,
        mgr: &Arc<SpillManager>,
        ctx: &Arc<QueryContext>,
    ) -> Result<Self, PlanError> {
        let mut c = MergeCursor {
            reader: run.reader(mgr, ctx)?,
            block: Vec::new(),
            pos: 0,
            len: 0,
            done: false,
        };
        c.refill()?;
        Ok(c)
    }

    fn refill(&mut self) -> Result<(), PlanError> {
        match self.reader.next_block(&mut self.block)? {
            Some(n) => {
                self.pos = 0;
                self.len = n;
            }
            None => self.done = true,
        }
        Ok(())
    }

    fn exhausted(&self) -> bool {
        self.done || self.pos >= self.len
    }

    fn advance(&mut self) -> Result<(), PlanError> {
        self.pos += 1;
        if self.pos >= self.len && !self.done {
            self.refill()?;
        }
        Ok(())
    }
}

/// Compare the current rows of two cursors under the sort spec.
fn cursor_cmp(a: &MergeCursor, b: &MergeCursor, keys: &[(usize, SortOrder)]) -> Ordering {
    for &(col, ord) in keys {
        let c = cmp_at(&a.block[col], a.pos, &b.block[col], b.pos);
        let c = if ord == SortOrder::Desc {
            c.reverse()
        } else {
            c
        };
        if c != Ordering::Equal {
            return c;
        }
    }
    Ordering::Equal
}

/// Index of the cursor holding the smallest current row; ties go to
/// the lowest run index (earlier input rows), reproducing the stable
/// in-memory sort.
fn pick_winner(cursors: &[MergeCursor], keys: &[(usize, SortOrder)]) -> Option<usize> {
    let mut best: Option<usize> = None;
    for (i, c) in cursors.iter().enumerate() {
        if c.exhausted() {
            continue;
        }
        match best {
            None => best = Some(i),
            Some(b) => {
                if cursor_cmp(c, &cursors[b], keys) == Ordering::Less {
                    best = Some(i);
                }
            }
        }
    }
    best
}

/// Stable sort permutation of `store` under `keys`.
fn sorted_perm(store: &[Vector], keys: &[(usize, SortOrder)]) -> Vec<u32> {
    let n = store.first().map_or(0, |v| v.len());
    let mut perm: Vec<u32> = (0..n as u32).collect();
    perm.sort_by(|&a, &b| {
        for &(col, ord) in keys {
            let c = cmp_at(&store[col], a as usize, &store[col], b as usize);
            let c = if ord == SortOrder::Desc {
                c.reverse()
            } else {
                c
            };
            if c != Ordering::Equal {
                return c;
            }
        }
        Ordering::Equal
    });
    perm
}

impl OrderOp {
    /// A sort of `child` on `keys` (resolved column positions), with
    /// emission bounded to `limit` rows when given (TopN).
    pub(crate) fn new(
        child: Box<dyn Operator>,
        keys: Vec<(usize, SortOrder)>,
        limit: Option<usize>,
        vector_size: usize,
        ctx: std::sync::Arc<QueryContext>,
    ) -> Self {
        let fields = child.fields().to_vec();
        let store = fields
            .iter()
            .map(|f| Vector::with_capacity(f.ty, 0))
            .collect();
        let pools = fields
            .iter()
            .map(|f| VecPool::new(f.ty, vector_size))
            .collect();
        OrderOp {
            child,
            keys,
            fields,
            store,
            perm: Vec::new(),
            built: false,
            emit_pos: 0,
            pools,
            out: Batch::new(),
            vector_size,
            mem: MemTracker::new(ctx, "order/top-n buffer"),
            limit,
            runs: Vec::new(),
            merge: None,
        }
    }

    fn build(&mut self, prof: &mut Profiler) -> Result<(), PlanError> {
        let mut total_rows = 0usize;
        // Materialize live tuples column-wise, charging the growing
        // buffer (plus the permutation to come) against the budget.
        while let Some(batch) = self.child.next(prof)? {
            match batch.sel.as_deref() {
                None => {
                    for (s, c) in self.store.iter_mut().zip(batch.columns.iter()) {
                        s.append_range(c, 0, batch.len);
                    }
                }
                Some(sel) => {
                    for (s, c) in self.store.iter_mut().zip(batch.columns.iter()) {
                        let mut live = Vector::with_capacity(c.scalar_type(), sel.len());
                        assert!(gather_rows(&mut live, c, sel.positions(), None));
                        s.append_range(&live, 0, sel.len());
                    }
                }
            }
            let rows = self.store.first().map_or(0, |v| v.len());
            let bytes: usize = self.store.iter().map(|v| v.byte_size()).sum();
            let need = bytes + rows * 4;
            if !self.mem.try_ensure(need) {
                // Memory budget exhausted. With a spill budget, sort
                // what we have and evict it as an on-disk run; without
                // one, abort exactly as before the spill subsystem.
                if self.mem.context().spill_budget().is_some() && rows > 0 {
                    total_rows += rows;
                    self.spill_sorted_run(prof)?;
                } else {
                    self.mem.ensure(need)?;
                }
            }
        }
        let n = self.store.first().map_or(0, |v| v.len());
        let t_op = prof.start();
        if self.runs.is_empty() {
            let t0 = prof.start();
            self.perm = sorted_perm(&self.store, &self.keys);
            prof.record_prim("sort_permutation", t0, n, n * 4);
            if let Some(l) = self.limit {
                self.perm.truncate(l);
            }
            prof.record_op("Order", t_op, n);
        } else {
            // External path: the in-memory remainder becomes the last
            // run, then a (possibly multi-pass) k-way merge streams
            // the total order back, one block per run in cache.
            total_rows += n;
            if n > 0 {
                self.spill_sorted_run(prof)?;
            }
            self.prepare_merge()?;
            prof.record_op("Order", t_op, total_rows);
        }
        self.built = true;
        Ok(())
    }

    /// Sort the current store and evict it as one spill run, freeing
    /// the memory charge.
    fn spill_sorted_run(&mut self, prof: &mut Profiler) -> Result<(), PlanError> {
        let n = self.store.first().map_or(0, |v| v.len());
        let t0 = prof.start();
        let perm = sorted_perm(&self.store, &self.keys);
        prof.record_prim("sort_permutation", t0, n, n * 4);
        let ctx = Arc::clone(self.mem.context());
        let mgr = ctx.spill_manager()?;
        let mut w = mgr.start_run(&ctx, "order/top-n buffer")?;
        for chunk in perm.chunks(SPILL_BLOCK_ROWS) {
            let gather = |s: &Vector| {
                let mut v = Vector::with_capacity(s.scalar_type(), chunk.len());
                assert!(gather_rows(&mut v, s, chunk, None));
                v
            };
            w.write_block(self.store.iter().map(gather).collect())?;
        }
        self.runs.push(w.finish()?);
        for (s, f) in self.store.iter_mut().zip(self.fields.iter()) {
            *s = Vector::with_capacity(f.ty, 0);
        }
        self.perm.clear();
        self.mem.release_all();
        Ok(())
    }

    /// Reduce fan-in to [`MERGE_FAN_IN`] with intermediate merge
    /// passes, then open the final streaming merge.
    fn prepare_merge(&mut self) -> Result<(), PlanError> {
        let ctx = Arc::clone(self.mem.context());
        let mgr = ctx.spill_manager()?;
        while self.runs.len() > MERGE_FAN_IN {
            mgr.note_merge_pass();
            let sources = std::mem::take(&mut self.runs);
            for group in sources.chunks(MERGE_FAN_IN) {
                if group.len() == 1 {
                    self.runs.push(group[0].clone());
                    continue;
                }
                let mut cursors = group
                    .iter()
                    .map(|r| MergeCursor::open(r, &mgr, &ctx))
                    .collect::<Result<Vec<_>, _>>()?;
                let mut w = mgr.start_run(&ctx, "order/top-n merge")?;
                let fresh = || -> Vec<Vector> {
                    let empty = |f: &OutField| Vector::with_capacity(f.ty, SPILL_BLOCK_ROWS);
                    self.fields.iter().map(empty).collect()
                };
                let mut block = fresh();
                let mut rows = 0usize;
                while let Some(win) = pick_winner(&cursors, &self.keys) {
                    for (k, v) in block.iter_mut().enumerate() {
                        push_from(v, &cursors[win].block[k], cursors[win].pos);
                    }
                    cursors[win].advance()?;
                    rows += 1;
                    if rows == SPILL_BLOCK_ROWS {
                        w.write_block(std::mem::replace(&mut block, fresh()))?;
                        rows = 0;
                    }
                }
                if rows > 0 {
                    w.write_block(block)?;
                }
                self.runs.push(w.finish()?);
            }
        }
        let cursors = self
            .runs
            .iter()
            .map(|r| MergeCursor::open(r, &mgr, &ctx))
            .collect::<Result<Vec<_>, _>>()?;
        self.merge = Some(cursors);
        Ok(())
    }
}

impl Operator for OrderOp {
    fn fields(&self) -> &[OutField] {
        &self.fields
    }

    fn next(&mut self, prof: &mut Profiler) -> Result<Option<&Batch>, PlanError> {
        if !self.built {
            self.build(prof)?;
        }
        if let Some(cursors) = &mut self.merge {
            // Streaming emission of the k-way merge: one block per
            // run in memory, bounded regardless of input size.
            let left = self
                .limit
                .map_or(usize::MAX, |l| l.saturating_sub(self.emit_pos));
            let take = self.vector_size.min(left);
            if take == 0 {
                return Ok(None);
            }
            self.out.reset();
            let mut cols: Vec<Vector> = (0..self.fields.len())
                .map(|k| self.pools[k].writable())
                .collect();
            let mut n = 0usize;
            while n < take {
                let Some(win) = pick_winner(cursors, &self.keys) else {
                    break;
                };
                for (k, v) in cols.iter_mut().enumerate() {
                    push_from(v, &cursors[win].block[k], cursors[win].pos);
                }
                cursors[win].advance()?;
                n += 1;
            }
            if n == 0 {
                return Ok(None);
            }
            self.emit_pos += n;
            self.out.len = n;
            for (k, v) in cols.into_iter().enumerate() {
                self.pools[k].publish(v, &mut self.out);
            }
            return Ok(Some(&self.out));
        }
        if self.emit_pos >= self.perm.len() {
            return Ok(None);
        }
        let start = self.emit_pos;
        let n = (self.perm.len() - start).min(self.vector_size);
        self.emit_pos += n;
        self.out.reset();
        self.out.len = n;
        for (k, s) in self.store.iter().enumerate() {
            let mut v = self.pools[k].writable();
            assert!(gather_rows(&mut v, s, &self.perm[start..start + n], None));
            self.pools[k].publish(v, &mut self.out);
        }
        Ok(Some(&self.out))
    }

    fn reset(&mut self) {
        self.child.reset();
        for v in &mut self.store {
            v.clear();
        }
        self.perm.clear();
        self.runs.clear();
        self.merge = None;
        self.built = false;
        self.emit_pos = 0;
        self.mem.release_all();
    }
}
