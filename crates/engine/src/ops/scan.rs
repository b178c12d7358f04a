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
use x100_storage::{ColumnBM, ColumnData, DecodeCursor, Morsel, PushOp, Pushdown, Table};
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
    /// Sequential decode position (PFOR-DELTA continuation carry).
    cursor: DecodeCursor,
    /// Reused frame buffer; its bytes are charged to the governor.
    scratch: Vec<u64>,
    /// Registered decompress primitive this column resolves to.
    sig: &'static str,
    /// Verified replacement chunks healed from a durable-store replica
    /// after the in-memory copy failed its checksum; once set, every
    /// later refill of this column decodes from the healed copy.
    healed: Option<Arc<x100_storage::CompressedColumn>>,
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
                    cursor: DecodeCursor::default(),
                    scratch: Vec::new(),
                    sig: cc.decode_sig(),
                    healed: None,
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
                    site: x100_storage::FaultSite::ChunkRead,
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
        let mut scan_bytes = 0usize;
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
            let sc = self.table.column(ci);
            let cs = &mut self.comp[k];
            // Compressed chunk reads are their own fault-injection site.
            if cs.is_some() {
                if let Some(fs) = self.ctx.fault_state() {
                    fs.check_site(x100_storage::FaultSite::CompressedRead, ci as u32)
                        .map_err(site_io)?;
                }
            }
            match &mut self.modes[k] {
                ColMode::Plain | ColMode::Codes => {
                    // Dense decode overwrites every position, so the
                    // recycled vector can skip its clear + re-zero pass.
                    let mut v = if cs.is_some() {
                        self.pools[k].writable_dirty()
                    } else {
                        self.pools[k].writable()
                    };
                    if let Some(cs) = cs {
                        let healed_cc = cs.healed.clone();
                        let cc: &x100_storage::CompressedColumn = match healed_cc.as_deref() {
                            Some(h) => h,
                            None => sc
                                .compressed()
                                .expect("CompState without compressed column"),
                        };
                        let t0 = prof.start();
                        let mut res =
                            cc.decode_range(start, n, &mut v, &mut cs.cursor, &mut cs.scratch);
                        // Heal ladder: a checksum mismatch (torn chunk
                        // write) first tries the durable store's disk
                        // replica — a verified copy restores compressed
                        // refills for the rest of the query.
                        if res.is_err() && cs.healed.is_none() {
                            if let Some(hc) = try_heal(&self.table, &self.ctx, prof, ci as u32) {
                                cs.cursor = DecodeCursor::default();
                                res = hc.decode_range(
                                    start,
                                    n,
                                    &mut v,
                                    &mut cs.cursor,
                                    &mut cs.scratch,
                                );
                                if res.is_ok() {
                                    cs.healed = Some(hc);
                                }
                            }
                        }
                        match res {
                            Ok(st) => {
                                prof.record_prim(
                                    cs.sig,
                                    t0,
                                    n,
                                    st.comp_len as usize + v.byte_size(),
                                );
                                prof.max_counter("compress_ratio", cc.ratio_pct());
                                dec_raw += v.byte_size() as u64;
                                dec_comp += st.comp_len;
                                dec_exc += st.exceptions;
                                reads.push((ci, st.comp_offset, st.comp_len));
                            }
                            Err(_) => {
                                // No replica could serve the rows: the
                                // raw fragment is retained and intact,
                                // so recover from it — wrong rows must
                                // never escape a torn chunk. The
                                // fallback is itself a faultable chunk
                                // read: both failing at once is the
                                // double-fault case, with no copy left
                                // to serve the rows.
                                if let Some(fs) = self.ctx.fault_state() {
                                    fs.check_site(x100_storage::FaultSite::ChunkRead, ci as u32)
                                        .map_err(|e| double_fault(ci as u32, e))?;
                                }
                                prof.add_counter("decode_recoveries", 1);
                                cs.cursor = DecodeCursor::default();
                                sc.physical().read_into(start, n, &mut v);
                                reads.push((
                                    ci,
                                    (start * sc.physical_type().width()) as u64,
                                    v.byte_size() as u64,
                                ));
                            }
                        }
                    } else {
                        sc.physical().read_into(start, n, &mut v);
                        reads.push((
                            ci,
                            (start * sc.physical_type().width()) as u64,
                            v.byte_size() as u64,
                        ));
                    }
                    scan_bytes += v.byte_size();
                    self.pools[k].publish(v, &mut self.out);
                }
                ColMode::Decode { codes, .. } => {
                    // Read raw codes now; decode in a second pass so the
                    // fetch cost is attributed to Fetch1Join(ENUM).
                    if let Some(cs) = cs {
                        let healed_cc = cs.healed.clone();
                        let cc: &x100_storage::CompressedColumn = match healed_cc.as_deref() {
                            Some(h) => h,
                            None => sc
                                .compressed()
                                .expect("CompState without compressed column"),
                        };
                        let t0 = prof.start();
                        let mut res =
                            cc.decode_range(start, n, codes, &mut cs.cursor, &mut cs.scratch);
                        if res.is_err() && cs.healed.is_none() {
                            if let Some(hc) = try_heal(&self.table, &self.ctx, prof, ci as u32) {
                                cs.cursor = DecodeCursor::default();
                                res = hc.decode_range(
                                    start,
                                    n,
                                    codes,
                                    &mut cs.cursor,
                                    &mut cs.scratch,
                                );
                                if res.is_ok() {
                                    cs.healed = Some(hc);
                                }
                            }
                        }
                        match res {
                            Ok(st) => {
                                prof.record_prim(
                                    cs.sig,
                                    t0,
                                    n,
                                    st.comp_len as usize + codes.byte_size(),
                                );
                                prof.max_counter("compress_ratio", cc.ratio_pct());
                                dec_raw += codes.byte_size() as u64;
                                dec_comp += st.comp_len;
                                dec_exc += st.exceptions;
                                reads.push((ci, st.comp_offset, st.comp_len));
                            }
                            Err(_) => {
                                if let Some(fs) = self.ctx.fault_state() {
                                    fs.check_site(x100_storage::FaultSite::ChunkRead, ci as u32)
                                        .map_err(|e| double_fault(ci as u32, e))?;
                                }
                                prof.add_counter("decode_recoveries", 1);
                                cs.cursor = DecodeCursor::default();
                                sc.physical().read_into(start, n, codes);
                                reads.push((
                                    ci,
                                    (start * sc.physical_type().width()) as u64,
                                    codes.byte_size() as u64,
                                ));
                            }
                        }
                    } else {
                        sc.physical().read_into(start, n, codes);
                        reads.push((
                            ci,
                            (start * sc.physical_type().width()) as u64,
                            codes.byte_size() as u64,
                        ));
                    }
                    scan_bytes += codes.byte_size();
                    // Placeholder slot; replaced by the decode pass below.
                    self.out.columns.push(self.placeholder.clone());
                }
            }
        }
        prof.record_op("Scan", t_scan, n);
        let _ = scan_bytes;
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
                .map(|cs| cs.scratch.capacity() * std::mem::size_of::<u64>())
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
                    fs.check_site(x100_storage::FaultSite::DictLookup, ci as u32)
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
            fs.check_site(x100_storage::FaultSite::CompressedRead, ci_p as u32)
                .map_err(site_io)?;
        }
        let sc_p = self.table.column(ci_p);
        let cs_p = self.comp[kp].as_mut().expect("pushdown without CompState");
        let healed_p = cs_p.healed.clone();
        let cc_p: &x100_storage::CompressedColumn = match healed_p.as_deref() {
            Some(h) => h,
            None => sc_p.compressed().expect("pushdown on uncompressed column"),
        };
        let t0 = prof.start();
        ps.sel.clear();
        let mut recovered = false;
        let mut res =
            cc_p.select_range(&ps.p, start, n, &mut ps.sel, &mut ps.tmp, &mut cs_p.cursor);
        // Heal ladder: retry the encoded-space select over a verified
        // disk-replica copy before dropping to value space.
        if res.is_err() && cs_p.healed.is_none() {
            if let Some(hc) = try_heal(&self.table, &self.ctx, prof, ci_p as u32) {
                cs_p.cursor = DecodeCursor::default();
                ps.sel.clear();
                res = hc.select_range(&ps.p, start, n, &mut ps.sel, &mut ps.tmp, &mut cs_p.cursor);
                if res.is_ok() {
                    cs_p.healed = Some(hc);
                }
            }
        }
        match res {
            Ok(()) => {
                prof.record_prim(ps.p.sig(), t0, n, n * sc_p.physical_type().width());
            }
            Err(_) => {
                // Torn chunk with no replica to serve it: recover by
                // filtering the retained raw fragment in value space —
                // identical survivors, no wrong rows, one counter tick.
                // A fault on the fallback read too is the unrecoverable
                // double-fault case.
                if let Some(fs) = self.ctx.fault_state() {
                    fs.check_site(x100_storage::FaultSite::ChunkRead, ci_p as u32)
                        .map_err(|e| double_fault(ci_p as u32, e))?;
                }
                prof.add_counter("decode_recoveries", 1);
                cs_p.cursor = DecodeCursor::default();
                recovered = true;
                ps.sel.clear();
                raw_filter(sc_p.physical(), start, n, &ps.p, &mut ps.sel);
            }
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
                    fs.check_site(x100_storage::FaultSite::CompressedRead, ci as u32)
                        .map_err(site_io)?;
                }
            }
            match &mut self.modes[k] {
                ColMode::Plain | ColMode::Codes => {
                    let mut v = self.pools[k].writable();
                    let mut decoded = false;
                    if !recovered {
                        if let Some(cs) = cs {
                            let healed_cc = cs.healed.clone();
                            let cc: &x100_storage::CompressedColumn = match healed_cc.as_deref() {
                                Some(h) => h,
                                None => sc
                                    .compressed()
                                    .expect("CompState without compressed column"),
                            };
                            let t0 = prof.start();
                            if cc.decode_sel_sig().is_some() {
                                match cc.decode_positions(
                                    start,
                                    &ps.sel,
                                    &mut v,
                                    &mut ps.tmp,
                                    &mut cs.cursor,
                                ) {
                                    Ok(st) => {
                                        decoded = true;
                                        let sig =
                                            cc.decode_sel_sig().expect("checked decode_sel_sig");
                                        prof.record_prim(
                                            sig,
                                            t0,
                                            ps.sel.len(),
                                            st.comp_len as usize + v.byte_size(),
                                        );
                                        reads.push((ci, st.comp_offset, st.comp_len));
                                    }
                                    Err(_) => {
                                        if let Some(fs) = self.ctx.fault_state() {
                                            fs.check_site(
                                                x100_storage::FaultSite::ChunkRead,
                                                ci as u32,
                                            )
                                            .map_err(|e| double_fault(ci as u32, e))?;
                                        }
                                        prof.add_counter("decode_recoveries", 1);
                                        cs.cursor = DecodeCursor::default();
                                    }
                                }
                            } else {
                                // PFOR-DELTA co-column: positional seek
                                // from the nearest sync point.
                                ps.abs.clear();
                                ps.abs.extend(ps.sel.iter().map(|&p| start as u32 + p));
                                match cc.gather(
                                    &ps.abs,
                                    &mut v,
                                    &mut cs.scratch,
                                    &mut ps.tmp,
                                    &mut cs.cursor,
                                ) {
                                    Ok(()) => {
                                        decoded = true;
                                        prof.record_prim(cs.sig, t0, ps.sel.len(), v.byte_size());
                                        reads.push((ci, 0, v.byte_size() as u64));
                                    }
                                    Err(_) => {
                                        if let Some(fs) = self.ctx.fault_state() {
                                            fs.check_site(
                                                x100_storage::FaultSite::ChunkRead,
                                                ci as u32,
                                            )
                                            .map_err(|e| double_fault(ci as u32, e))?;
                                        }
                                        prof.add_counter("decode_recoveries", 1);
                                        cs.cursor = DecodeCursor::default();
                                    }
                                }
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
                        fs.check_site(x100_storage::FaultSite::DictLookup, ci as u32)
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
                .map(|cs| cs.scratch.capacity() * std::mem::size_of::<u64>())
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
                fs.check_site(x100_storage::FaultSite::DeltaRead, ci as u32)
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

/// Typed unrecoverable I/O error: a compressed chunk was torn *and* the
/// raw-fragment fallback read faulted too — no intact copy remains, so
/// recovery is impossible. (Durably checkpointed tables rarely get
/// here: the heal ladder fetches a disk replica first.)
fn double_fault(col: u32, e: x100_storage::StorageFaultError) -> PlanError {
    PlanError::Io {
        site: x100_storage::FaultSite::ChunkRead,
        unrecoverable: true,
        detail: format!(
            "column {col}: torn compressed chunk and raw-fragment fallback both failed ({e})"
        ),
    }
}

/// First rung of the heal ladder (DESIGN.md §14): when a compressed
/// chunk fails its checksum mid-query, fetch the column's verified
/// copy from a durable-store replica. Returns `None` when the table
/// has no durable checkpoint or every replica failed — the caller
/// drops to the raw-fragment fallback (the PR 6 contract). Counts
/// `chunk_heals` only when *this* query performed the heal; concurrent
/// queries racing on the same damage share one heal via the source's
/// cache.
fn try_heal(
    table: &Table,
    ctx: &QueryContext,
    prof: &mut Profiler,
    ci: u32,
) -> Option<Arc<x100_storage::CompressedColumn>> {
    let ds = table.durable_source()?;
    match ds.recover_column(ci, ctx.fault_state()) {
        Ok((cc, healed_now)) => {
            if healed_now {
                prof.add_counter("chunk_heals", 1);
            }
            Some(cc)
        }
        Err(_) => None,
    }
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
            cs.cursor = DecodeCursor::default();
        }
    }
}
