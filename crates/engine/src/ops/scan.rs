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

use crate::batch::{Batch, OutField, SelPool, VecPool};
use crate::govern::{MemTracker, QueryContext};
use crate::ops::Operator;
use crate::profile::Profiler;
use crate::PlanError;
use std::sync::Arc;
use x100_storage::{
    ColumnBM, CompressedColumn, DecodeCursor, FaultSite, Morsel, PushOp, Pushdown, Table,
};
use x100_vector::{ScalarType, SelVec, Value, Vector};

/// A `Scan` as the check walk resolved it ([`crate::check`]): the table,
/// which columns to read and how, the summary-pruned fragment range and
/// the fused encoded-space predicate, if any.
#[derive(Debug, Clone)]
pub(crate) struct ScanSpec {
    /// The scanned table.
    pub table: Arc<Table>,
    /// Per scanned column: its index in `table` and how it is surfaced.
    pub cols: Vec<(usize, ScanCol)>,
    /// Fragment row range left by summary-index pruning (`None` = all).
    pub range: Option<(usize, usize)>,
    /// `CompressedScanSelect` fusion: the scanned-column position and
    /// the encoded-space predicate evaluated on refill. The column is a
    /// plain checkpoint-compressed column whose codec supports it.
    pub push: Option<(usize, Pushdown)>,
    /// The catalog's buffer manager, if attached.
    pub bm: Option<Arc<ColumnBM>>,
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

/// Per-column state for a checkpoint-compressed fragment column:
/// decode-on-refill replaces the raw `read_into` memcpy, keeping
/// decompression inside the CPU cache at vector granularity (§5).
struct CompState {
    read: CompRead,
    /// Registered decompress primitive this column resolves to.
    sig: &'static str,
}

/// What one operator carries between reads of one compressed column —
/// the state the recovery ladder ([`read_compressed`]) works on.
#[derive(Default)]
struct CompRead {
    /// Sequential decode position (PFOR-DELTA continuation carry) and
    /// checksum-verification state.
    cursor: DecodeCursor,
    /// Reused frame buffer; its bytes are charged to the governor.
    scratch: Vec<u64>,
    /// Verified replacement chunks healed from a durable-store replica
    /// after the in-memory copy failed its checksum; once set, every
    /// later read of this column decodes from the healed copy.
    healed: Option<Arc<CompressedColumn>>,
}

/// A predicate pushed into the compressed scan (the fused
/// `CompressedScanSelect` refill): the comparison runs in encoded space
/// over the packed lanes and yields the batch's selection vector; the
/// columns then refill exactly as in a plain scan (DESIGN.md §11).
struct PushSpec {
    /// Index (into `cols`) of the predicate column.
    k: usize,
    /// The compiled encoded-space predicate.
    p: Pushdown,
    /// Whether the one-time dictionary-rewrite counter fired.
    counted: bool,
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
    pos: usize,
    delta_pos: usize,
    /// Morsel mode: scan only these row ranges (parallel workers get
    /// disjoint subsets). `None` scans `range` + the whole delta.
    morsels: Option<Vec<Morsel>>,
    mcur: usize,
    moff: usize,
    vector_size: usize,
    scratch_del: Vec<u32>,
    scratch_reads: Vec<(usize, u64, u64)>,
    /// Decode state per scanned column; `Some` iff the column was
    /// rewritten as compressed chunks by `Table::checkpoint`.
    comp: Vec<Option<CompState>>,
    /// Fused predicate pushdown; `Some` turns fragment refills into the
    /// `CompressedScanSelect` path (encoded-space select, then refill).
    push: Option<PushSpec>,
    /// Governor charge for the decode scratch buffers.
    mem: Option<MemTracker>,
    bm: Option<Arc<ColumnBM>>,
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
    ) -> Result<Self, PlanError> {
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
        // Decode-on-refill state for compressed columns. The scratch
        // frame buffers are a real allocation the query keeps for its
        // lifetime, so charge them up front (worst case: one vector of
        // u64 frames plus a sync-interval replay window per column).
        let comp: Vec<Option<CompState>> = cols
            .iter()
            .map(|&ci| {
                table.column(ci).compressed().map(|cc| CompState {
                    read: CompRead::default(),
                    sig: cc.decode_sig(),
                })
            })
            .collect();
        let n_comp = comp.iter().filter(|c| c.is_some()).count();
        let mem = if n_comp > 0 {
            let mut t = MemTracker::new(ctx.clone(), "Scan(decode)");
            t.ensure(n_comp * (vector_size + 1024) * std::mem::size_of::<u64>())?;
            Some(t)
        } else {
            None
        };
        Ok(ScanOp {
            table,
            cols,
            modes,
            fields: fields.to_vec(),
            pools,
            sel_pool: SelPool::default(),
            out: Batch::new(),
            range,
            pos: range.0,
            delta_pos: 0,
            morsels: morsels.map(|m| m.to_vec()),
            mcur: 0,
            moff: 0,
            vector_size,
            scratch_del: Vec::new(),
            scratch_reads: Vec::new(),
            comp,
            push: spec.push.as_ref().map(|(k, p)| PushSpec {
                k: *k,
                p: p.clone(),
                counted: false,
            }),
            mem,
            bm: spec.bm.clone(),
            ctx,
            placeholder: std::rc::Rc::new(Vector::Bool(Vec::new())),
        })
    }

    /// Read `len` bytes of column `ci` at `offset` through the buffer
    /// manager (if attached), under the query's fault-injection state.
    fn bm_read(&self, ci: usize, offset: u64, len: u64) -> Result<(), PlanError> {
        if let Some(bm) = &self.bm {
            bm.try_access(ci as u32, offset, len, self.ctx.fault_state())
                .map_err(|e| PlanError::Io {
                    site: FaultSite::ChunkRead,
                    unrecoverable: false,
                    detail: e.to_string(),
                })?;
        }
        Ok(())
    }

    /// Produce one batch from the fragment region `[start, start+n)`.
    ///
    /// With a fused predicate (`CompressedScanSelect`) the window's
    /// selection comes first, in encoded space, with the deletion mask
    /// folded in; the columns then refill exactly as in a plain scan —
    /// numeric codecs decode the whole window, PDICT strings only the
    /// survivors' slots — and the batch carries the selection vector.
    fn emit_fragment(
        &mut self,
        start: usize,
        n: usize,
        prof: &mut Profiler,
    ) -> Result<(), PlanError> {
        self.out.reset();
        self.out.len = n;
        let t_scan = prof.start();
        // Deletion mask of the window, folded into its selection.
        self.scratch_del.clear();
        self.table.deletes().deleted_in_range(
            start as u32,
            (start + n) as u32,
            &mut self.scratch_del,
        );
        let pushed = self.push.is_some();
        let op = if pushed {
            "CompressedScanSelect"
        } else {
            "Scan"
        };
        let filtered = pushed || !self.scratch_del.is_empty();
        let mut sel = if filtered {
            self.sel_pool.writable()
        } else {
            SelVec::default()
        };
        let buf = sel.buf_mut();
        let mut raw = false;
        if let Some(mut ps) = self.push.take() {
            let r = self.select_pushed(&mut ps, start, n, buf, prof);
            self.push = Some(ps);
            raw = r?;
        } else if filtered {
            buf.extend(0..n as u32);
        }
        if !self.scratch_del.is_empty() {
            let dels = &self.scratch_del;
            let mut d = 0usize;
            buf.retain(|&p| {
                while d < dels.len() && dels[d] < p {
                    d += 1;
                }
                !(d < dels.len() && dels[d] == p)
            });
        }
        if filtered && buf.is_empty() {
            // Nothing survives: no column is read.
            self.out.len = 0;
            for pool in &mut self.pools {
                let v = pool.writable();
                pool.publish(v, &mut self.out);
            }
            self.sel_pool.recycle(sel);
            prof.record_op(op, t_scan, n);
            return Ok(());
        }
        let live = filtered.then_some(&buf[..]);
        // Decode-on-refill accounting across all compressed columns in
        // this fragment (raw-equivalent bytes, compressed bytes touched,
        // exception patches applied).
        let mut dec_raw = 0u64;
        let mut dec_comp = 0u64;
        let mut dec_exc = 0u64;
        // Column reads to route through the buffer manager; collected
        // so the fallible I/O happens outside the &mut modes borrow.
        let mut reads = std::mem::take(&mut self.scratch_reads);
        reads.clear();
        for (k, &ci) in self.cols.iter().enumerate() {
            let compressed = self.comp[k].is_some();
            let cs = &mut self.comp[k];
            // Fill `out` with the window: decoded from the column's
            // compressed chunks through the recovery ladder, or copied
            // from the raw fragment (no chunks, or the ladder's raw rung
            // — for the predicate column's, the whole window).
            let mut fill = |out: &mut Vector| -> Result<(), PlanError> {
                let mut decoded = None;
                let cc = self.table.column(ci).compressed();
                if let (false, Some(cs), Some(cc)) = (raw, &mut *cs, cc) {
                    // Compressed chunk reads are their own fault-injection site.
                    if let Some(fs) = self.ctx.fault_state() {
                        fs.check_site(FaultSite::CompressedRead, ci as u32)
                            .map_err(site_io)?;
                    }
                    let t0 = prof.start();
                    let window =
                        |cc: &CompressedColumn, cur: &mut DecodeCursor, scr: &mut Vec<u64>| {
                            cc.decode_range(start, n, live, out, cur, scr)
                        };
                    decoded =
                        read_compressed(&self.table, ci, &mut cs.read, &self.ctx, prof, window)?;
                    if let Some(st) = &decoded {
                        prof.record_prim(cs.sig, t0, n, st.comp_len as usize + out.byte_size());
                        prof.max_counter("compress_ratio", cc.ratio_pct());
                    }
                }
                match decoded {
                    Some(st) => {
                        dec_raw += out.byte_size() as u64;
                        dec_comp += st.comp_len;
                        dec_exc += st.exceptions;
                        reads.push((ci, st.comp_offset, st.comp_len));
                    }
                    None => {
                        let sc = self.table.column(ci);
                        sc.physical().read_into(start, n, out);
                        let offset = (start * sc.physical_type().width()) as u64;
                        reads.push((ci, offset, out.byte_size() as u64));
                    }
                }
                Ok(())
            };
            match &mut self.modes[k] {
                ColMode::Plain | ColMode::Codes => {
                    // Dense decode overwrites every position, so the
                    // recycled vector can skip its clear + re-zero pass.
                    let mut v = if compressed {
                        self.pools[k].writable_dirty()
                    } else {
                        self.pools[k].writable()
                    };
                    fill(&mut v)?;
                    self.pools[k].publish(v, &mut self.out);
                }
                ColMode::Decode { codes, .. } => {
                    // Read raw codes now; decode in a second pass so the
                    // fetch cost is attributed to Fetch1Join(ENUM).
                    fill(codes)?;
                    // Placeholder slot; replaced by the decode pass below.
                    self.out.columns.push(self.placeholder.clone());
                }
            }
        }
        prof.record_op(op, t_scan, n);
        if dec_raw > 0 {
            prof.add_counter("scan_bytes_raw", dec_raw);
            prof.add_counter("scan_bytes_compressed", dec_comp);
            prof.add_counter("decode_exceptions", dec_exc);
        }
        // Re-check the governor charge against what the decode scratch
        // buffers actually grew to (PFOR-DELTA sync replay can extend
        // them past one vector).
        if let Some(mem) = &mut self.mem {
            let total: usize = self
                .comp
                .iter()
                .flatten()
                .map(|cs| cs.read.scratch.capacity() * std::mem::size_of::<u64>())
                .sum();
            mem.ensure(total)?;
        }
        for &(ci, offset, len) in &reads {
            self.bm_read(ci, offset, len)?;
        }
        self.scratch_reads = reads;
        // Decode pass: one Fetch1Join(ENUM) per enum column. The
        // dictionary gather is its own fault-injection site.
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
                // Every code of a refilled window is valid, so fixed-width
                // values decode densely (faster than the selection's
                // loop); strings copy only the survivors.
                let is_str = dict.value_type() == ScalarType::Str;
                let dsel = filtered.then_some(&sel).filter(|_| is_str);
                decode_codes(codes, dict.values(), dsel, &mut v);
                let bytes = codes.byte_size() + v.byte_size();
                prof.record_prim(sig, t0, n, bytes);
                prof.record_op("Fetch1Join(ENUM)", t0, n);
                self.pools[k].publish_at(v, &mut self.out, k);
            }
        }
        // A window every row survives goes on without a selection, so
        // the operators above take their dense primitives.
        if filtered && sel.len() < n {
            self.sel_pool.publish(sel, &mut self.out);
        } else if filtered {
            self.sel_pool.recycle(sel);
        }
        Ok(())
    }

    /// The fused predicate over `[start, start+n)`, in encoded space —
    /// PFOR lanes compared packed, PDICT predicates rewritten against
    /// the dictionary at bind — filling `out` with the window-relative
    /// survivors. Returns `true` when the predicate column took the
    /// ladder's raw rung: the survivors then come from the retained raw
    /// fragment in value space (identical, never wrong rows), and the
    /// whole window is served raw with that one `decode_recoveries`.
    fn select_pushed(
        &mut self,
        ps: &mut PushSpec,
        start: usize,
        n: usize,
        out: &mut Vec<u32>,
        prof: &mut Profiler,
    ) -> Result<bool, PlanError> {
        let ci = self.cols[ps.k];
        if let Some(fs) = self.ctx.fault_state() {
            fs.check_site(FaultSite::CompressedRead, ci as u32)
                .map_err(site_io)?;
        }
        let sc = self.table.column(ci);
        let cc = sc.compressed().expect("pushdown on uncompressed column");
        let cs = self.comp[ps.k]
            .as_mut()
            .expect("pushdown without CompState");
        let t0 = prof.start();
        let select = |cc: &CompressedColumn, cursor: &mut DecodeCursor, _: &mut Vec<u64>| {
            out.clear();
            cc.select_range(&ps.p, start, n, out, cursor)
        };
        let raw =
            read_compressed(&self.table, ci, &mut cs.read, &self.ctx, prof, select)?.is_none();
        if raw {
            out.clear();
            raw_filter(sc.physical(), start, n, &ps.p, out);
        } else {
            prof.record_prim(ps.p.sig(), t0, n, n * sc.physical_type().width());
        }
        prof.add_counter("pushdown_vectors", 1);
        prof.max_counter("compress_ratio", cc.ratio_pct());
        if ps.p.is_dict_rewrite() && !ps.counted {
            ps.counted = true;
            prof.add_counter("dict_predicate_rewrites", 1);
        }
        Ok(raw)
    }

    /// Produce one batch from the delta region. Delta reads are their
    /// own fault-injection site, distinct from chunked fragment reads.
    fn emit_delta(&mut self, start: usize, n: usize, prof: &mut Profiler) -> Result<(), PlanError> {
        self.out.reset();
        self.out.len = n;
        let t_scan = prof.start();
        for (k, &ci) in self.cols.iter().enumerate() {
            if let Some(fs) = self.ctx.fault_state() {
                fs.check_site(FaultSite::DeltaRead, ci as u32)
                    .map_err(site_io)?;
            }
            let mut v = self.pools[k].writable();
            // Delta rows are stored logically; the check walk reads a
            // table with pending inserts as values.
            match self.modes[k] {
                ColMode::Codes => unreachable!(
                    "code scan of column `{}` over pending inserts",
                    self.fields[k].name
                ),
                _ => self.table.read_delta(ci, start, n, &mut v),
            }
            self.pools[k].publish(v, &mut self.out);
        }
        prof.record_op("Scan(delta)", t_scan, n);
        let base = (self.table.fragment_rows() + start) as u32;
        self.scratch_del.clear();
        self.table
            .deletes()
            .deleted_in_range(base, base + n as u32, &mut self.scratch_del);
        if !self.scratch_del.is_empty() {
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
            self.sel_pool.publish(sel, &mut self.out);
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

/// The recovery ladder (DESIGN.md §10, "Byte layer") — the one place
/// its four rungs live; every compressed read of the engine goes
/// through it. Runs `access` against column `ci`'s compressed chunks,
/// the healed copy once there is one. When that fails (a torn chunk
/// refusing its checksum):
///
/// 1. *heal* — fetch the column's verified copy from a durable-store
///    replica, at most once per operator, and retry; a good copy serves
///    compressed reads for the rest of the query;
/// 2. *raw* — tick `decode_recoveries`, reset the cursor and return
///    `Ok(None)`: the caller serves this window from the retained raw
///    fragment, so wrong rows never escape a torn chunk;
/// 3. *`Io`* — the raw fallback is itself a faultable chunk read
///    ([`FaultSite::ChunkRead`]); a fault there too is the double
///    fault, with no copy left to serve the rows.
#[inline]
fn read_compressed<T>(
    table: &Table,
    ci: usize,
    st: &mut CompRead,
    ctx: &QueryContext,
    prof: &mut Profiler,
    mut access: impl FnMut(&CompressedColumn, &mut DecodeCursor, &mut Vec<u64>) -> Result<T, String>,
) -> Result<Option<T>, PlanError> {
    let CompRead {
        cursor,
        scratch,
        healed,
    } = st;
    let cc = healed
        .as_deref()
        .or_else(|| table.column(ci).compressed())
        .expect("compressed read of a column without chunks");
    if let Ok(v) = access(cc, cursor, scratch) {
        return Ok(Some(v));
    }
    if healed.is_none() {
        if let Some(hc) = try_heal(table, ctx, prof, ci as u32) {
            *cursor = DecodeCursor::default();
            if let Ok(v) = access(&hc, cursor, scratch) {
                *healed = Some(hc);
                return Ok(Some(v));
            }
        }
    }
    if let Some(fs) = ctx.fault_state() {
        fs.check_site(FaultSite::ChunkRead, ci as u32)
            .map_err(|e| PlanError::Io {
                site: FaultSite::ChunkRead,
                unrecoverable: true,
                detail: format!(
                    "column {ci}: torn compressed chunk and raw-fragment fallback both failed ({e})"
                ),
            })?;
    }
    prof.add_counter("decode_recoveries", 1);
    *cursor = DecodeCursor::default();
    Ok(None)
}

/// The heal rung (DESIGN.md §14): fetch the column's verified copy
/// from a durable-store replica. `None` when the table has no durable
/// checkpoint or every replica failed. Counts `chunk_heals` only when
/// *this* query performed the heal; concurrent queries racing on the
/// same damage share one heal via the source's cache.
fn try_heal(
    table: &Table,
    ctx: &QueryContext,
    prof: &mut Profiler,
    ci: u32,
) -> Option<Arc<CompressedColumn>> {
    let (cc, healed_now) = table
        .durable_source()?
        .recover_column(ci, ctx.fault_state())
        .ok()?;
    if healed_now {
        prof.add_counter("chunk_heals", 1);
    }
    Some(cc)
}

/// Decode enum codes through the dictionary into a logical vector —
/// the gather with the codes as positions, under `sel` (a string column
/// leaves its unselected slots empty).
pub(crate) fn decode_codes(codes: &Vector, dict: &Vector, sel: Option<&SelVec>, out: &mut Vector) {
    let in_dict = x100_vector::fetch::gather_at(out, dict, codes, sel);
    assert!(in_dict, "enum code outside its dictionary");
}

/// Value-space twin of the encoded-space pushdown, over the retained raw
/// fragment — the torn-chunk recovery path. Semantics match the
/// compressed kernels exactly (native comparisons, `Between` inclusive).
fn raw_filter(data: &Vector, start: usize, n: usize, p: &Pushdown, out: &mut Vec<u32>) {
    fn keep<T: PartialOrd + Copy>(a: &[T], lo: T, hi: Option<T>, op: PushOp, out: &mut Vec<u32>) {
        for (i, &x) in a.iter().enumerate() {
            let hit = match op {
                PushOp::Eq => x == lo,
                PushOp::Ne => x != lo,
                PushOp::Lt => x < lo,
                PushOp::Le => x <= lo,
                PushOp::Gt => x > lo,
                PushOp::Ge => x >= lo,
                PushOp::Between => x >= lo && hi.is_some_and(|h| x <= h),
            };
            if hit {
                out.push(i as u32);
            }
        }
    }
    macro_rules! f {
        ($b:expr, $vv:ident) => {{
            let lo = match p.lo() {
                Value::$vv(x) => *x,
                _ => unreachable!("pushdown constant type-checked at compile"),
            };
            let hi = p.hi().map(|h| match h {
                Value::$vv(x) => *x,
                _ => unreachable!("pushdown constant type-checked at compile"),
            });
            keep(&$b[start..start + n], lo, hi, p.op(), out)
        }};
    }
    match data {
        Vector::I8(b) => f!(b, I8),
        Vector::I16(b) => f!(b, I16),
        Vector::I32(b) => f!(b, I32),
        Vector::I64(b) => f!(b, I64),
        Vector::U8(b) => f!(b, U8),
        Vector::U16(b) => f!(b, U16),
        Vector::U32(b) => f!(b, U32),
        Vector::U64(b) => f!(b, U64),
        Vector::F64(b) => f!(b, F64),
        Vector::Bool(_) => unreachable!("bool columns are not storable"),
        Vector::Str(b) => {
            let lo = match p.lo() {
                Value::Str(x) => x.as_str(),
                _ => unreachable!("pushdown constant type-checked at compile"),
            };
            let hi = p.hi().map(|h| match h {
                Value::Str(x) => x.as_str(),
                _ => unreachable!("pushdown constant type-checked at compile"),
            });
            for i in 0..n {
                let x = b.get(start + i);
                let hit = match p.op() {
                    PushOp::Eq => x == lo,
                    PushOp::Ne => x != lo,
                    PushOp::Lt => x < lo,
                    PushOp::Le => x <= lo,
                    PushOp::Gt => x > lo,
                    PushOp::Ge => x >= lo,
                    PushOp::Between => x >= lo && hi.is_some_and(|h| x <= h),
                };
                if hit {
                    out.push(i as u32);
                }
            }
        }
    }
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
        // Drop sequential decode positions so a re-run starts clean.
        for cs in self.comp.iter_mut().flatten() {
            cs.read.cursor = DecodeCursor::default();
        }
    }
}
