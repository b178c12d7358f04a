//! `Scan(Table) : Dataflow` — vector-at-a-time table scan.
//!
//! "The Scan operator retrieves data vector-at-a-time from Monet BATs.
//! Note that only attributes relevant for the query are actually
//! scanned" (§4.1.1). Enumeration-typed columns are decompressed on the
//! fly by an automatically added positional fetch — surfaced in traces
//! as the paper's `Fetch1Join(ENUM)` operator rows and
//! `map_fetch_uchr_col_*` primitive rows (§4.3, Table 5) — unless the
//! check walk found only code readers above the column (predicates on
//! string literals and grouping run on codes).
//!
//! The scan also consults the table's delta structures: deleted rows are
//! masked via the batch selection vector, and insert-delta rows are
//! appended after the fragments.
//!
//! A column is resident once, as its fragment — a checkpointed table
//! too: chunks are only the durable encoding, which `Table::open`
//! decodes and drops (DESIGN.md §11). So a fragment refill is a memcpy
//! of the window (codes for an enum column), plus the enum decode
//! gather where the walk asked for values; nothing else.

use crate::batch::{Batch, OutField, SelPool, VecPool};
use crate::govern::QueryContext;
use crate::ops::Operator;
use crate::profile::Profiler;
use crate::PlanError;
use std::sync::Arc;
use x100_storage::{FaultSite, Morsel, Table};
use x100_vector::{ScalarType, SelVec, Vector};

/// A `Scan` as the check walk resolved it ([`crate::check`]): the table,
/// which columns to read and how, and the summary-pruned fragment
/// range.
#[derive(Debug, Clone)]
pub(crate) struct ScanSpec {
    /// The scanned table.
    pub table: Arc<Table>,
    /// Per scanned column: its index in `table` and how it is surfaced.
    pub cols: Vec<(usize, ScanCol)>,
    /// Fragment row range left by summary-index pruning (`None` = all):
    /// rule `summary-range-select` sets it from the `Select` above.
    pub range: Option<(usize, usize)>,
    /// Read deleted rows too, so that batch position is `#rowId`: a
    /// derived fetch column needs a byte at every row a fetch can
    /// address, deleted or not.
    pub keep_deleted: bool,
}

/// How a scanned column is surfaced.
#[derive(Debug, Clone)]
pub(crate) enum ScanCol {
    /// Plain column, read as stored.
    Plain,
    /// Enum column surfaced as raw codes.
    Codes,
    /// Enum column decoded via the `Fetch1Join(ENUM)` gather `sig`.
    Decode { sig: String },
}

/// How one scanned column is produced.
enum ColMode {
    /// Plain column: memcpy fragment range into the vector.
    Plain,
    /// Enum column decoded via fetch; holds the code scratch vector and
    /// the decode primitive signature.
    Decode { codes: Vector, sig: String },
    /// Enum column surfaced as raw codes (no decode).
    Codes,
}

/// The scan operator.
pub struct ScanOp {
    table: Arc<Table>,
    cols: Vec<usize>,
    modes: Vec<ColMode>,
    fields: Vec<OutField>,
    pools: Vec<VecPool>,
    sel_pool: SelPool,
    out: Batch,
    /// Fragment row range to scan (possibly pruned by a summary index).
    range: (usize, usize),
    /// [`ScanSpec::keep_deleted`].
    keep_deleted: bool,
    pos: usize,
    delta_pos: usize,
    /// Morsel mode: scan only these row ranges (parallel workers get
    /// disjoint subsets). `None` scans `range` + the whole delta.
    morsels: Option<Vec<Morsel>>,
    mcur: usize,
    moff: usize,
    vector_size: usize,
    scratch_del: Vec<u32>,
    ctx: Arc<QueryContext>,
    /// Cheap stand-in pushed for decode columns until the decode pass
    /// replaces it (keeps column ordering without an allocation).
    placeholder: std::rc::Rc<Vector>,
}

impl ScanOp {
    /// A scan of `spec` producing `fields`. With `morsels`, only those
    /// disjoint row ranges are scanned (one parallel worker's share) in
    /// place of the pruned range plus the whole delta.
    pub(crate) fn new(
        spec: &ScanSpec,
        fields: &[OutField],
        morsels: Option<&[Morsel]>,
        vector_size: usize,
        ctx: Arc<QueryContext>,
    ) -> Self {
        let table = spec.table.clone();
        let cols: Vec<usize> = spec.cols.iter().map(|(ci, _)| *ci).collect();
        let modes = spec
            .cols
            .iter()
            .map(|(ci, kind)| match kind {
                ScanCol::Plain => ColMode::Plain,
                ScanCol::Codes => ColMode::Codes,
                ScanCol::Decode { sig } => ColMode::Decode {
                    codes: Vector::with_capacity(table.column(*ci).physical_type(), vector_size),
                    sig: sig.clone(),
                },
            })
            .collect();
        let pools = fields
            .iter()
            .map(|f| VecPool::new(f.ty, vector_size))
            .collect();
        let frag = table.fragment_rows();
        let range = match spec.range {
            None => (0, frag),
            Some((s, e)) => (s.min(frag), e.min(frag)),
        };
        ScanOp {
            table,
            cols,
            modes,
            fields: fields.to_vec(),
            pools,
            sel_pool: SelPool::default(),
            out: Batch::new(),
            range,
            keep_deleted: spec.keep_deleted,
            pos: range.0,
            delta_pos: 0,
            morsels: morsels.map(|m| m.to_vec()),
            mcur: 0,
            moff: 0,
            vector_size,
            scratch_del: Vec::new(),
            ctx,
            placeholder: std::rc::Rc::new(Vector::Bool(Vec::new())),
        }
    }

    /// Produce one batch from the fragment region `[start, start+n)`:
    /// the deletion mask of the window becomes its selection, the
    /// columns refill by memcpy (codes for an enum column), and the
    /// decode pass gathers the values of the enum columns read as
    /// values.
    fn emit_fragment(
        &mut self,
        start: usize,
        n: usize,
        prof: &mut Profiler,
    ) -> Result<(), PlanError> {
        self.out.reset();
        self.out.len = n;
        self.out.frag_start = Some(start);
        let t_scan = prof.start();
        self.deleted_in(start, n);
        let filtered = !self.scratch_del.is_empty();
        let mut sel = if filtered {
            self.sel_pool.writable()
        } else {
            SelVec::default()
        };
        if filtered {
            let buf = sel.buf_mut();
            buf.extend(0..n as u32);
            let dels = &self.scratch_del;
            let mut d = 0usize;
            buf.retain(|&p| {
                while d < dels.len() && dels[d] < p {
                    d += 1;
                }
                !(d < dels.len() && dels[d] == p)
            });
            if buf.is_empty() {
                // Nothing survives: no column is read.
                self.out.len = 0;
                for pool in &mut self.pools {
                    let v = pool.writable();
                    pool.publish(v, &mut self.out);
                }
                self.sel_pool.recycle(sel);
                prof.record_op("Scan", t_scan, n);
                return Ok(());
            }
        }
        for (k, &ci) in self.cols.iter().enumerate() {
            let data = self.table.column(ci).physical();
            match &mut self.modes[k] {
                ColMode::Plain | ColMode::Codes => {
                    let mut v = self.pools[k].writable();
                    data.read_into(start, n, &mut v);
                    self.pools[k].publish(v, &mut self.out);
                }
                ColMode::Decode { codes, .. } => {
                    // Read raw codes now; decode in a second pass so the
                    // fetch cost is attributed to Fetch1Join(ENUM).
                    data.read_into(start, n, codes);
                    // Placeholder slot; replaced by the decode pass below.
                    self.out.columns.push(self.placeholder.clone());
                }
            }
        }
        prof.record_op("Scan", t_scan, n);
        self.decode_pass(n, filtered.then_some(&sel), prof)?;
        if filtered {
            self.sel_pool.publish_survivors(sel, true, &mut self.out);
        }
        Ok(())
    }

    /// The deleted rows of `[start, start+n)` (row ids), relative to
    /// `start`, into `scratch_del` — none when the scan keeps them.
    fn deleted_in(&mut self, start: usize, n: usize) {
        self.scratch_del.clear();
        if !self.keep_deleted {
            let (lo, hi) = (start as u32, (start + n) as u32);
            (self.table.deletes()).deleted_in_range(lo, hi, &mut self.scratch_del);
        }
    }

    /// Decode pass: one `Fetch1Join(ENUM)` per decoded enum column, over
    /// the codes the window read into its scratch. Every code of a
    /// window is valid, so fixed-width values decode densely (faster
    /// than the selection's loop); strings copy only the survivors
    /// `sel`. The dictionary gather is its own fault injection site.
    fn decode_pass(
        &mut self,
        n: usize,
        sel: Option<&SelVec>,
        prof: &mut Profiler,
    ) -> Result<(), PlanError> {
        for (k, &ci) in self.cols.iter().enumerate() {
            if let ColMode::Decode { codes, sig } = &self.modes[k] {
                if let Some(fs) = self.ctx.fault_state() {
                    fs.check_site(FaultSite::DictLookup, ci as u32)
                        .map_err(site_io)?;
                }
                let dict = self.table.column(ci).dict().ok_or_else(|| {
                    PlanError::Invalid(format!(
                        "decode mode without dictionary on column `{}`",
                        self.fields[k].name
                    ))
                })?;
                let t0 = prof.start();
                let mut v = self.pools[k].writable();
                let dsel = sel.filter(|_| dict.value_type() == ScalarType::Str);
                decode_codes(codes, dict.values(), dsel, &mut v);
                let bytes = codes.byte_size() + v.byte_size();
                prof.record_prim(sig, t0, n, bytes);
                prof.record_op("Fetch1Join(ENUM)", t0, n);
                self.pools[k].publish_at(v, &mut self.out, k);
            }
        }
        Ok(())
    }

    /// Produce one batch from the delta region. Delta reads are their
    /// own fault injection site.
    /// A delta column holds what its fragment holds — an enum column's
    /// codes too — so each column surfaces as in a fragment window: as
    /// stored, or its codes through the same decode pass.
    fn emit_delta(&mut self, start: usize, n: usize, prof: &mut Profiler) -> Result<(), PlanError> {
        self.out.reset();
        self.out.len = n;
        let t_scan = prof.start();
        for (k, &ci) in self.cols.iter().enumerate() {
            if let Some(fs) = self.ctx.fault_state() {
                fs.check_site(FaultSite::DeltaRead, ci as u32)
                    .map_err(site_io)?;
            }
            match &mut self.modes[k] {
                ColMode::Plain | ColMode::Codes => {
                    let mut v = self.pools[k].writable();
                    self.table.read_delta(ci, start, n, &mut v);
                    self.pools[k].publish(v, &mut self.out);
                }
                ColMode::Decode { codes, .. } => {
                    self.table.read_delta(ci, start, n, codes);
                    self.out.columns.push(self.placeholder.clone());
                }
            }
        }
        prof.record_op("Scan(delta)", t_scan, n);
        self.deleted_in(self.table.fragment_rows() + start, n);
        let sel = (!self.scratch_del.is_empty()).then(|| {
            let mut sel = self.sel_pool.writable();
            let buf = sel.buf_mut();
            let mut d = 0usize;
            for i in 0..n as u32 {
                if d < self.scratch_del.len() && self.scratch_del[d] == i {
                    d += 1;
                } else {
                    buf.push(i);
                }
            }
            sel
        });
        self.decode_pass(n, sel.as_ref(), prof)?;
        if let Some(sel) = sel {
            self.sel_pool.publish_survivors(sel, true, &mut self.out);
        }
        Ok(())
    }
}

/// Typed I/O error for a storage-fault site that exhausted its retries.
fn site_io(e: x100_storage::StorageFaultError) -> PlanError {
    PlanError::Io {
        site: e.site,
        unrecoverable: false,
        detail: e.to_string(),
    }
}

/// Decode enum codes through the dictionary into a logical vector —
/// the gather with the codes as positions, under `sel` (a string column
/// leaves its unselected slots empty).
pub(crate) fn decode_codes(codes: &Vector, dict: &Vector, sel: Option<&SelVec>, out: &mut Vector) {
    let in_dict = x100_vector::fetch::gather_at(out, dict, codes, sel);
    assert!(in_dict, "enum code outside its dictionary");
}

impl Operator for ScanOp {
    fn fields(&self) -> &[OutField] {
        &self.fields
    }

    fn next(&mut self, prof: &mut Profiler) -> Result<Option<&Batch>, PlanError> {
        // One governance checkpoint per produced vector.
        self.ctx.check()?;
        if self.morsels.is_some() {
            loop {
                let m = match self.morsels.as_ref().and_then(|ms| ms.get(self.mcur)) {
                    None => return Ok(None),
                    Some(&m) => m,
                };
                if self.moff >= m.len {
                    self.mcur += 1;
                    self.moff = 0;
                    continue;
                }
                let n = (m.len - self.moff).min(self.vector_size);
                let start = m.start + self.moff;
                self.moff += n;
                if m.delta {
                    self.emit_delta(start, n, prof)?;
                } else {
                    self.emit_fragment(start, n, prof)?;
                }
                return Ok(Some(&self.out));
            }
        }
        if self.pos < self.range.1 {
            let n = (self.range.1 - self.pos).min(self.vector_size);
            let start = self.pos;
            self.pos += n;
            self.emit_fragment(start, n, prof)?;
            return Ok(Some(&self.out));
        }
        let delta = self.table.delta_rows();
        if self.delta_pos < delta {
            let n = (delta - self.delta_pos).min(self.vector_size);
            let start = self.delta_pos;
            self.delta_pos += n;
            self.emit_delta(start, n, prof)?;
            return Ok(Some(&self.out));
        }
        Ok(None)
    }

    fn reset(&mut self) {
        self.pos = self.range.0;
        self.delta_pos = 0;
        self.mcur = 0;
        self.moff = 0;
    }
}
