//! `Scan(Table) : Dataflow` — vector-at-a-time table scan.
//!
//! "The Scan operator retrieves data vector-at-a-time from Monet BATs.
//! Note that only attributes relevant for the query are actually
//! scanned" (§4.1.1). Enumeration-typed columns are decompressed on the
//! fly by an automatically added positional fetch — surfaced in traces
//! as the paper's `Fetch1Join(ENUM)` operator rows and
//! `map_fetch_uchr_col_*` primitive rows (§4.3, Table 5) — unless the
//! plan requests raw codes (direct aggregation groups on codes).
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
    ColumnBM, ColumnData, CompressedColumn, DecodeCursor, FaultSite, Morsel, PushOp, Pushdown,
    Table,
};
use x100_vector::{Value, Vector};

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
pub(crate) struct CompRead {
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
/// `CompressedScanSelect` refill path): the comparison runs in encoded
/// space over the packed lanes before anything is decoded, and only
/// surviving positions are ever materialized.
struct PushSpec {
    /// Index (into `cols`) of the predicate column.
    k: usize,
    /// The compiled encoded-space predicate.
    p: Pushdown,
    /// Window-relative surviving positions of the current vector.
    sel: Vec<u32>,
    /// Per-chunk scratch shared by the selective-decode kernels.
    tmp: Vec<u32>,
    /// Absolute-rowid scratch for PFOR-DELTA co-column seeks.
    abs: Vec<u32>,
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
    /// `CompressedScanSelect` path (encoded-space select, lazy decode).
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
                sel: Vec::new(),
                tmp: Vec::new(),
                abs: Vec::new(),
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
    fn emit_fragment(
        &mut self,
        start: usize,
        n: usize,
        prof: &mut Profiler,
    ) -> Result<(), PlanError> {
        if self.push.is_some() {
            // Fused CompressedScanSelect: the spec is taken out for the
            // duration of the emit so the column loop can borrow freely.
            let mut ps = self.push.take().expect("checked is_some");
            let r = self.emit_fragment_pushed(&mut ps, start, n, prof);
            self.push = Some(ps);
            return r;
        }
        self.out.reset();
        self.out.len = n;
        let t_scan = prof.start();
        // Decode-on-refill accounting across all compressed columns in
        // this fragment (raw-equivalent bytes, compressed bytes touched,
        // exception patches applied).
        let mut dec_raw = 0u64;
        let mut dec_comp = 0u64;
        let mut dec_exc = 0u64;
        // Column reads to route through the buffer manager; collected
        // so the fallible I/O happens outside the &mut modes borrow.
        let mut reads: Vec<(usize, u64, u64)> = Vec::with_capacity(self.cols.len());
        // Plain/code reads first (the "Scan" operator's own work).
        for (k, &ci) in self.cols.iter().enumerate() {
            let compressed = self.comp[k].is_some();
            let cs = &mut self.comp[k];
            // Fill `out` with the window: decoded from the column's
            // compressed chunks through the recovery ladder, or copied
            // from the raw fragment (no chunks, or the ladder's raw rung).
            let mut fill = |out: &mut Vector| -> Result<(), PlanError> {
                let mut decoded = None;
                if let (Some(cs), Some(cc)) = (&mut *cs, self.table.column(ci).compressed()) {
                    // Compressed chunk reads are their own fault-injection site.
                    if let Some(fs) = self.ctx.fault_state() {
                        fs.check_site(FaultSite::CompressedRead, ci as u32)
                            .map_err(site_io)?;
                    }
                    let t0 = prof.start();
                    let window =
                        |cc: &CompressedColumn, cur: &mut DecodeCursor, scr: &mut Vec<u64>| {
                            cc.decode_range(start, n, out, cur, scr)
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
        prof.record_op("Scan", t_scan, n);
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
        for (ci, offset, len) in reads {
            self.bm_read(ci, offset, len)?;
        }
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
                v.resize_zeroed(n);
                decode_codes(codes, dict.values(), &mut v);
                let bytes = codes.byte_size() + v.byte_size();
                prof.record_prim(sig, t0, n, bytes);
                prof.record_op("Fetch1Join(ENUM)", t0, n);
                self.pools[k].publish_at(v, &mut self.out, k);
            }
        }
        // Deletion mask.
        self.scratch_del.clear();
        self.table.deletes().deleted_in_range(
            start as u32,
            (start + n) as u32,
            &mut self.scratch_del,
        );
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

    /// Fused `CompressedScanSelect` refill: evaluate the pushed
    /// predicate in encoded space over `[start, start+n)` — PFOR lanes
    /// are compared packed, PDICT predicates were rewritten against the
    /// dictionary at bind — then decode *only* the surviving positions
    /// of every scanned column. The batch comes out compacted (no
    /// selection vector): unselected values are never materialized.
    fn emit_fragment_pushed(
        &mut self,
        ps: &mut PushSpec,
        start: usize,
        n: usize,
        prof: &mut Profiler,
    ) -> Result<(), PlanError> {
        self.out.reset();
        let t_op = prof.start();
        // Phase 1: selection over the packed lanes of the predicate
        // column, without unpacking.
        let kp = ps.k;
        let ci_p = self.cols[kp];
        if let Some(fs) = self.ctx.fault_state() {
            fs.check_site(FaultSite::CompressedRead, ci_p as u32)
                .map_err(site_io)?;
        }
        let sc_p = self.table.column(ci_p);
        let cc_p = sc_p.compressed().expect("pushdown on uncompressed column");
        let cs_p = self.comp[kp].as_mut().expect("pushdown without CompState");
        let t0 = prof.start();
        let select = |cc: &CompressedColumn, cursor: &mut DecodeCursor, _: &mut Vec<u64>| {
            ps.sel.clear();
            cc.select_range(&ps.p, start, n, &mut ps.sel, cursor)
        };
        let selected = read_compressed(&self.table, ci_p, &mut cs_p.read, &self.ctx, prof, select)?;
        // Raw rung: filter the retained fragment in value space —
        // identical survivors, no wrong rows; every column of this
        // window then gathers from its raw fragment too.
        let recovered = selected.is_none();
        if recovered {
            ps.sel.clear();
            raw_filter(sc_p.physical(), start, n, &ps.p, &mut ps.sel);
        } else {
            prof.record_prim(ps.p.sig(), t0, n, n * sc_p.physical_type().width());
        }
        prof.add_counter("pushdown_vectors", 1);
        prof.max_counter("compress_ratio", cc_p.ratio_pct());
        if ps.p.is_dict_rewrite() && !ps.counted {
            ps.counted = true;
            prof.add_counter("dict_predicate_rewrites", 1);
        }
        // Deletion mask folds into the selection before any decode.
        self.scratch_del.clear();
        self.table.deletes().deleted_in_range(
            start as u32,
            (start + n) as u32,
            &mut self.scratch_del,
        );
        if !self.scratch_del.is_empty() {
            let dels = &self.scratch_del;
            let mut d = 0usize;
            ps.sel.retain(|&p| {
                while d < dels.len() && dels[d] < p {
                    d += 1;
                }
                !(d < dels.len() && dels[d] == p)
            });
        }
        prof.add_counter("decode_skipped_values", (n - ps.sel.len()) as u64);
        // Phase 2: lazy materialization — decode/gather only the
        // surviving positions of every scanned column.
        self.out.len = ps.sel.len();
        let mut reads = std::mem::take(&mut self.scratch_reads);
        reads.clear();
        for (k, &ci) in self.cols.iter().enumerate() {
            let sc = self.table.column(ci);
            let cs = &mut self.comp[k];
            if cs.is_some() {
                if let Some(fs) = self.ctx.fault_state() {
                    fs.check_site(FaultSite::CompressedRead, ci as u32)
                        .map_err(site_io)?;
                }
            }
            match &mut self.modes[k] {
                ColMode::Plain | ColMode::Codes => {
                    let mut v = self.pools[k].writable();
                    let mut decoded = false;
                    if let (false, Some(cs), Some(cc)) = (recovered, cs, sc.compressed()) {
                        let t0 = prof.start();
                        let (table, ctx, live) = (&self.table, &self.ctx, ps.sel.len());
                        if let Some(sig) = cc.decode_sel_sig() {
                            let st = read_compressed(
                                table,
                                ci,
                                &mut cs.read,
                                ctx,
                                prof,
                                |cc, cur, _| {
                                    cc.decode_positions(start, &ps.sel, &mut v, &mut ps.tmp, cur)
                                },
                            )?;
                            if let Some(st) = st {
                                decoded = true;
                                prof.record_prim(
                                    sig,
                                    t0,
                                    live,
                                    st.comp_len as usize + v.byte_size(),
                                );
                                reads.push((ci, st.comp_offset, st.comp_len));
                            }
                        } else {
                            // PFOR-DELTA co-column: positional seek
                            // from the nearest sync point.
                            ps.abs.clear();
                            ps.abs.extend(ps.sel.iter().map(|&p| start as u32 + p));
                            let st = read_compressed(
                                table,
                                ci,
                                &mut cs.read,
                                ctx,
                                prof,
                                |cc, cur, scr| cc.gather(&ps.abs, &mut v, scr, &mut ps.tmp, cur),
                            )?;
                            if st.is_some() {
                                decoded = true;
                                prof.record_prim(cs.sig, t0, live, v.byte_size());
                                reads.push((ci, 0, v.byte_size() as u64));
                            }
                        }
                    }
                    if !decoded {
                        // Raw fragment gather: only selected positions
                        // are touched (also the torn-chunk recovery).
                        gather_raw(sc.physical(), start, &ps.sel, &mut v);
                        reads.push((
                            ci,
                            (start * sc.physical_type().width()) as u64,
                            v.byte_size() as u64,
                        ));
                    }
                    self.pools[k].publish(v, &mut self.out);
                }
                ColMode::Decode { codes, sig } => {
                    // Gather surviving codes, then dictionary-decode the
                    // compacted code vector (Fetch1Join(ENUM) as usual,
                    // but over survivors only).
                    gather_raw(sc.physical(), start, &ps.sel, codes);
                    reads.push((
                        ci,
                        (start * sc.physical_type().width()) as u64,
                        codes.byte_size() as u64,
                    ));
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
                    v.resize_zeroed(ps.sel.len());
                    decode_codes(codes, dict.values(), &mut v);
                    prof.record_prim(sig, t0, ps.sel.len(), codes.byte_size() + v.byte_size());
                    prof.record_op("Fetch1Join(ENUM)", t0, ps.sel.len());
                    self.pools[k].publish(v, &mut self.out);
                }
            }
        }
        prof.record_op("CompressedScanSelect", t_op, n);
        if let Some(mem) = &mut self.mem {
            let total: usize = self
                .comp
                .iter()
                .flatten()
                .map(|cs| cs.read.scratch.capacity() * std::mem::size_of::<u64>())
                .sum::<usize>()
                + (ps.sel.capacity() + ps.tmp.capacity() + ps.abs.capacity())
                    * std::mem::size_of::<u32>();
            mem.ensure(total)?;
        }
        for &(ci, offset, len) in &reads {
            self.bm_read(ci, offset, len)?;
        }
        self.scratch_reads = reads;
        Ok(())
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
            // Delta rows are stored logically; code columns cannot be
            // served from the delta (the binder rejects code scans on
            // tables with pending inserts).
            match self.modes[k] {
                ColMode::Codes => unreachable!(
                    "raw-code scan of column `{}` with pending insert deltas rejected at bind",
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

/// Decode enum codes through the dictionary into a logical vector.
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
pub(crate) fn read_compressed<T>(
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

fn decode_codes(codes: &Vector, dict: &ColumnData, out: &mut Vector) {
    use x100_vector::fetch::{fetch_u16_codes, fetch_u8_codes};
    match (codes, dict, out) {
        (Vector::U8(c), ColumnData::F64(d), Vector::F64(o)) => fetch_u8_codes(o, d, c, None),
        (Vector::U8(c), ColumnData::I64(d), Vector::I64(o)) => fetch_u8_codes(o, d, c, None),
        (Vector::U8(c), ColumnData::I32(d), Vector::I32(o)) => fetch_u8_codes(o, d, c, None),
        (Vector::U16(c), ColumnData::F64(d), Vector::F64(o)) => fetch_u16_codes(o, d, c, None),
        (Vector::U16(c), ColumnData::I64(d), Vector::I64(o)) => fetch_u16_codes(o, d, c, None),
        (Vector::U16(c), ColumnData::I32(d), Vector::I32(o)) => fetch_u16_codes(o, d, c, None),
        (Vector::U8(c), ColumnData::Str(d), Vector::Str(o)) => {
            o.clear();
            for &code in c {
                o.push(d.get(code as usize));
            }
        }
        (Vector::U16(c), ColumnData::Str(d), Vector::Str(o)) => {
            o.clear();
            for &code in c {
                o.push(d.get(code as usize));
            }
        }
        (c, d, o) => panic!(
            "decode mismatch: codes {:?}, dict {:?}, out {:?}",
            c.scalar_type(),
            d.scalar_type(),
            o.scalar_type()
        ),
    }
}

/// Gather `data[start + sel[j]]` into a compacted vector: the raw-side
/// half of the lazy-materialization path (only survivors are touched).
fn gather_raw(data: &ColumnData, start: usize, sel: &[u32], out: &mut Vector) {
    macro_rules! g {
        ($b:expr, $o:expr) => {{
            $o.clear();
            $o.extend(sel.iter().map(|&p| $b[start + p as usize]));
        }};
    }
    match (data, out) {
        (ColumnData::I8(b), Vector::I8(o)) => g!(b, o),
        (ColumnData::I16(b), Vector::I16(o)) => g!(b, o),
        (ColumnData::I32(b), Vector::I32(o)) => g!(b, o),
        (ColumnData::I64(b), Vector::I64(o)) => g!(b, o),
        (ColumnData::U8(b), Vector::U8(o)) => g!(b, o),
        (ColumnData::U16(b), Vector::U16(o)) => g!(b, o),
        (ColumnData::U32(b), Vector::U32(o)) => g!(b, o),
        (ColumnData::U64(b), Vector::U64(o)) => g!(b, o),
        (ColumnData::F64(b), Vector::F64(o)) => g!(b, o),
        (ColumnData::Str(b), Vector::Str(o)) => {
            o.clear();
            for &p in sel {
                o.push(b.get(start + p as usize));
            }
        }
        (d, o) => panic!(
            "gather_raw mismatch: column {:?}, out {:?}",
            d.scalar_type(),
            o.scalar_type()
        ),
    }
}

/// Value-space twin of the encoded-space pushdown, over the retained raw
/// fragment — the torn-chunk recovery path. Semantics match the
/// compressed kernels exactly (native comparisons, `Between` inclusive).
fn raw_filter(data: &ColumnData, start: usize, n: usize, p: &Pushdown, out: &mut Vec<u32>) {
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
        ColumnData::I8(b) => f!(b, I8),
        ColumnData::I16(b) => f!(b, I16),
        ColumnData::I32(b) => f!(b, I32),
        ColumnData::I64(b) => f!(b, I64),
        ColumnData::U8(b) => f!(b, U8),
        ColumnData::U16(b) => f!(b, U16),
        ColumnData::U32(b) => f!(b, U32),
        ColumnData::U64(b) => f!(b, U64),
        ColumnData::F64(b) => f!(b, F64),
        ColumnData::Str(b) => {
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
