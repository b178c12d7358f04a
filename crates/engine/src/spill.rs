//! Governor-mediated spill-to-disk: graceful degradation under
//! memory pressure (DESIGN.md §12).
//!
//! When an operator's [`MemTracker::try_ensure`] probe fails, it
//! converts the coldest part of its state into a **spill run**: a
//! temp file of blocks, each a sealed frame of the storage byte layer
//! ([`x100_storage::frame`]) holding one column section per operator
//! column — the same "raw or compressed column" sections a durable
//! column file holds. Sections reuse the storage layer's chunked codecs
//! ([`choose_and_compress`]) so spilled data stays compressed on disk;
//! columns the chooser declines (and `Bool`, which has no fragment
//! twin) fall back to the raw value codec. The frame's fold trailer
//! covers both kinds.
//!
//! Every block write passes through the governor: cancellation and
//! deadline are checked first, the [`FaultSite::SpillWrite`] injector
//! runs next (with its own bounded-backoff retry), and the block's
//! bytes are charged against the query's *disk* budget —
//! [`ResourceExhausted`](crate::compile::PlanError::ResourceExhausted)
//! is only possible once both budgets are gone. Re-reads mirror the
//! path with [`FaultSite::SpillRead`], frame validation (length
//! against the bytes left in the run, trailer, arity, row counts) and
//! per-chunk checksum verification of compressed sections.
//!
//! Cleanup is scope-guarded: a [`RunWriter`] dropped before
//! [`RunWriter::finish`] deletes its half-written file and refunds
//! the budget; a finished run's [`SpillFile`] does the same when the
//! last reader/handle drops; the [`SpillManager`] removes the whole
//! per-query temp directory when the query context dies — on success,
//! cancellation, and worker panic alike.
//!
//! [`MemTracker::try_ensure`]: crate::govern::MemTracker::try_ensure

use std::fs::{self, File};
use std::io::{BufWriter, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use x100_storage::frame::{read_frame, Reader, Writer, FRAME_OVERHEAD};
use x100_storage::{choose_and_compress, ColumnData, CompressedColumn, DecodeCursor, FaultSite};
use x100_vector::{ScalarType, Vector};

use crate::compile::PlanError;
use crate::govern::QueryContext;
use crate::profile::Profiler;

/// Rows per spill block: a multiple of the vector size, small enough
/// that merge fan-in costs one in-cache block per run, large enough
/// that the chunked codecs see real runs of values.
pub const SPILL_BLOCK_ROWS: usize = 4096;

/// Run header magic (an empty sealed frame opens every run file).
const RUN_MAGIC: &[u8; 4] = b"XSPR";
/// Per-block frame magic.
const BLOCK_MAGIC: &[u8; 4] = b"XSPB";
const SPILL_VERSION: u8 = 2;
/// Run header bytes: the offset of a run's first block.
const RUN_HEADER_BYTES: u64 = FRAME_OVERHEAD as u64;

/// Distinguishes spill temp dirs of concurrent queries in one process.
static SPILL_EPOCH: AtomicU64 = AtomicU64::new(0);

/// Process-wide disk budget across *all* concurrent queries' spill
/// dirs, in bytes; 0 = unlimited. Per-query budgets still apply on
/// top (`ExecOptions::with_spill_budget`).
static GLOBAL_SPILL_BUDGET: AtomicU64 = AtomicU64::new(0);
/// Bytes currently charged against the global budget.
static GLOBAL_SPILL_USED: AtomicU64 = AtomicU64::new(0);

/// Set (or clear, with `None`) the process-wide spill disk budget
/// shared by all concurrent queries. With per-query budgets alone, N
/// concurrent queries can write N × budget bytes; this caps the sum.
pub fn set_global_spill_budget(bytes: Option<u64>) {
    GLOBAL_SPILL_BUDGET.store(bytes.unwrap_or(0), Ordering::SeqCst);
}

/// Bytes currently charged against the global spill budget.
pub fn global_spill_used() -> u64 {
    GLOBAL_SPILL_USED.load(Ordering::SeqCst)
}

/// Charge `bytes` against the global budget; lock-free CAS so a racing
/// overflow never lets the sum exceed the cap.
fn charge_global(op: &str, bytes: usize) -> Result<(), PlanError> {
    let budget = GLOBAL_SPILL_BUDGET.load(Ordering::SeqCst);
    if budget == 0 {
        GLOBAL_SPILL_USED.fetch_add(bytes as u64, Ordering::SeqCst);
        return Ok(());
    }
    let mut used = GLOBAL_SPILL_USED.load(Ordering::SeqCst);
    loop {
        let next = used + bytes as u64;
        if next > budget {
            return Err(PlanError::ResourceExhausted {
                operator: format!("{op} (global spill budget)"),
                requested: next as usize,
                budget: budget as usize,
            });
        }
        match GLOBAL_SPILL_USED.compare_exchange_weak(
            used,
            next,
            Ordering::SeqCst,
            Ordering::SeqCst,
        ) {
            Ok(_) => return Ok(()),
            Err(cur) => used = cur,
        }
    }
}

fn release_global(bytes: u64) {
    // Saturating: a release can only race with charges, never below 0.
    let mut used = GLOBAL_SPILL_USED.load(Ordering::SeqCst);
    loop {
        let next = used.saturating_sub(bytes);
        match GLOBAL_SPILL_USED.compare_exchange_weak(
            used,
            next,
            Ordering::SeqCst,
            Ordering::SeqCst,
        ) {
            Ok(_) => return,
            Err(cur) => used = cur,
        }
    }
}

/// The shared spill root all queries' per-query dirs live under:
/// `$TMPDIR/x100-spill/q-{pid}-{epoch}`. One root makes stale-dir
/// garbage collection and the global disk budget possible.
pub fn spill_root() -> PathBuf {
    std::env::temp_dir().join("x100-spill")
}

/// Remove spill dirs left behind by *dead* processes (a SIGKILL skips
/// every Drop). Scans the shared root, parses each `q-{pid}-{epoch}`
/// name, and removes dirs whose owning process is gone; dirs of live
/// processes — including ours — are untouched. Returns the number of
/// dirs removed. Runs once per process, on first `ExecOptions` use.
pub fn gc_stale_spill_dirs() -> u64 {
    let root = spill_root();
    let Ok(entries) = fs::read_dir(&root) else {
        return 0;
    };
    let me = std::process::id();
    let mut removed = 0;
    for e in entries.flatten() {
        let name = e.file_name();
        let Some(pid) = name
            .to_str()
            .and_then(|n| n.strip_prefix("q-"))
            .and_then(|n| n.split('-').next())
            .and_then(|p| p.parse::<u32>().ok())
        else {
            continue;
        };
        if pid == me || process_alive(pid) {
            continue;
        }
        if fs::remove_dir_all(e.path()).is_ok() {
            removed += 1;
        }
    }
    removed
}

/// Whether a process with this pid exists. On non-Linux platforms the
/// conservative answer is `true` (never reclaim a live query's dir).
fn process_alive(pid: u32) -> bool {
    #[cfg(target_os = "linux")]
    {
        Path::new(&format!("/proc/{pid}")).exists()
    }
    #[cfg(not(target_os = "linux"))]
    {
        let _ = pid;
        true
    }
}

fn write_err(detail: String) -> PlanError {
    PlanError::Io {
        site: FaultSite::SpillWrite,
        unrecoverable: true,
        detail,
    }
}

fn read_err(unrecoverable: bool, detail: String) -> PlanError {
    PlanError::Io {
        site: FaultSite::SpillRead,
        unrecoverable,
        detail,
    }
}

/// Run the fault injector for a spill I/O site, folding its internal
/// retry count into the manager's `spill_retries` counter. An error
/// here means the injector exhausted its retries — transient class,
/// so `unrecoverable: false`.
fn fault_check(
    ctx: &QueryContext,
    mgr: &SpillManager,
    site: FaultSite,
    tag: u32,
) -> Result<(), PlanError> {
    if let Some(fs) = ctx.fault_state() {
        let before = fs.retries();
        let res = fs.check_site(site, tag);
        let after = fs.retries();
        if after > before {
            mgr.retries.fetch_add(after - before, Ordering::SeqCst);
        }
        res.map_err(|e| PlanError::Io {
            site: e.site,
            unrecoverable: false,
            detail: e.to_string(),
        })?;
    }
    Ok(())
}

/// Per-query spill registry: owns the temp directory, the profiler
/// counters, and the shared agg-run list parallel workers publish
/// into. Created lazily by [`QueryContext::spill_manager`]; dropping
/// it removes the directory and everything still in it.
#[derive(Debug)]
pub struct SpillManager {
    dir: PathBuf,
    next_id: AtomicU64,
    bytes_written: AtomicU64,
    runs: AtomicU64,
    merge_passes: AtomicU64,
    retries: AtomicU64,
}

impl SpillManager {
    /// Create the per-query spill directory under the shared spill
    /// root (`$TMPDIR/x100-spill/q-{pid}-{epoch}`).
    pub fn create() -> Result<SpillManager, PlanError> {
        let epoch = SPILL_EPOCH.fetch_add(1, Ordering::SeqCst);
        let dir = spill_root().join(format!("q-{}-{epoch}", std::process::id()));
        fs::create_dir_all(&dir)
            .map_err(|e| write_err(format!("create spill dir {}: {e}", dir.display())))?;
        Ok(SpillManager {
            dir,
            next_id: AtomicU64::new(0),
            bytes_written: AtomicU64::new(0),
            runs: AtomicU64::new(0),
            merge_passes: AtomicU64::new(0),
            retries: AtomicU64::new(0),
        })
    }

    /// The spill temp directory (tests assert it is empty/gone).
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Total bytes written to spill runs.
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written.load(Ordering::SeqCst)
    }

    /// Spill runs started.
    pub fn runs(&self) -> u64 {
        self.runs.load(Ordering::SeqCst)
    }

    /// External-merge passes beyond the first (multi-pass merges).
    pub fn merge_passes(&self) -> u64 {
        self.merge_passes.load(Ordering::SeqCst)
    }

    /// Injected spill faults absorbed by bounded-backoff retry.
    pub fn retries(&self) -> u64 {
        self.retries.load(Ordering::SeqCst)
    }

    /// Record one external-merge pass.
    pub fn note_merge_pass(&self) {
        self.merge_passes.fetch_add(1, Ordering::SeqCst);
    }

    /// Emit the spill counters into the query profile. Monotone
    /// values published via `max_counter`, so repeated publishes are
    /// idempotent.
    pub fn publish(&self, prof: &mut Profiler) {
        prof.max_counter("spill_bytes_written", self.bytes_written());
        prof.max_counter("spill_runs", self.runs());
        prof.max_counter("spill_merge_passes", self.merge_passes());
        prof.max_counter("spill_retries", self.retries());
    }

    /// Open a new spill run for writing. `op` labels budget errors.
    pub fn start_run(
        self: &Arc<Self>,
        ctx: &Arc<QueryContext>,
        op: &str,
    ) -> Result<RunWriter, PlanError> {
        let id = self.next_id.fetch_add(1, Ordering::SeqCst);
        let path = self.dir.join(format!("run-{id:06}.spl"));
        let file = File::create(&path)
            .map_err(|e| write_err(format!("create spill run {}: {e}", path.display())))?;
        self.runs.fetch_add(1, Ordering::SeqCst);
        let mut w = RunWriter {
            mgr: Arc::clone(self),
            ctx: Arc::clone(ctx),
            op: op.to_string(),
            path,
            file: BufWriter::new(file),
            bytes: 0,
            rows: 0,
            blocks: 0,
            n_cols: 0,
            finished: false,
            buf: Vec::new(),
        };
        w.write_charged(&Writer::new(Vec::new(), RUN_MAGIC, SPILL_VERSION).seal())?;
        Ok(w)
    }
}

impl Drop for SpillManager {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.dir);
    }
}

/// A finished spill run's backing file. Dropping the last handle
/// deletes the file and refunds its bytes to the disk budget.
#[derive(Debug)]
pub struct SpillFile {
    path: PathBuf,
    bytes: u64,
    ctx: Arc<QueryContext>,
}

impl SpillFile {
    /// Path of the temp file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// On-disk size (as charged against the spill budget).
    pub fn bytes(&self) -> u64 {
        self.bytes
    }
}

impl Drop for SpillFile {
    fn drop(&mut self) {
        let _ = fs::remove_file(&self.path);
        self.ctx.release_spill(self.bytes as usize);
        release_global(self.bytes);
    }
}

/// A completed, immutable spill run: shared file plus shape metadata
/// (runs never outlive the process, so the block map lives here, not
/// in the file).
#[derive(Debug, Clone)]
pub struct SpillRun {
    /// Backing temp file (shared with any segment readers).
    pub file: Arc<SpillFile>,
    /// Total rows across all blocks.
    pub rows: u64,
    /// Number of blocks.
    pub blocks: u64,
    /// Columns per block.
    pub n_cols: usize,
}

impl SpillRun {
    /// Sequential reader over the whole run.
    pub fn reader(
        &self,
        mgr: &Arc<SpillManager>,
        ctx: &Arc<QueryContext>,
    ) -> Result<RunReader, PlanError> {
        RunReader::open(
            &self.file,
            RUN_HEADER_BYTES,
            self.blocks,
            self.n_cols,
            mgr,
            ctx,
        )
    }
}

/// One partition segment inside an aggregation run.
#[derive(Debug, Clone, Copy)]
pub struct AggSegment {
    /// Radix partition id this segment belongs to.
    pub part: usize,
    /// Byte offset of the segment's first block.
    pub offset: u64,
    /// Blocks in the segment.
    pub blocks: u64,
    /// Groups (rows) in the segment.
    pub rows: usize,
}

/// One spilled aggregation table image: per-partition segments of
/// `keys ++ counts ++ accs` blocks. Runs travel inside
/// [`AggrPartial`](crate::ops::AggrPartial) in build order, so
/// the merge stage consumes them deterministically without a shared
/// registry.
#[derive(Debug)]
pub struct AggRun {
    /// Backing file.
    pub file: Arc<SpillFile>,
    /// Partition directory, ascending by `part`.
    pub segments: Vec<AggSegment>,
}

/// Number of radix partitions an aggregation table spills into: the
/// merge stage re-aggregates one partition at a time, bounding its
/// memory to the largest partition instead of the full group set.
pub const AGG_SPILL_PARTS: usize = 16;

/// Partition of a group hash: top bits, so partitioning is
/// independent of the hash-table bucket index (low bits).
pub fn agg_partition(hash: u64) -> usize {
    (hash >> 60) as usize & (AGG_SPILL_PARTS - 1)
}

/// Re-read one aggregation-run segment as a partial: blocks of
/// `keys ++ counts ++ accs` concatenated back into group arrays.
pub(crate) fn read_agg_segment(
    file: &Arc<SpillFile>,
    seg: &AggSegment,
    n_keys: usize,
    n_aggs: usize,
    mgr: &Arc<SpillManager>,
    ctx: &Arc<QueryContext>,
) -> Result<crate::ops::AggrPartial, PlanError> {
    use crate::ops::{AggrPartial, PartialAcc};
    let n_cols = n_keys + 1 + n_aggs;
    let mut rd = RunReader::open(file, seg.offset, seg.blocks, n_cols, mgr, ctx)?;
    let mut cols: Vec<Vector> = Vec::new();
    let mut block: Vec<Vector> = Vec::new();
    while let Some(rows) = rd.next_block(&mut block)? {
        if cols.is_empty() {
            cols = block
                .iter()
                .map(|b| Vector::with_capacity(b.scalar_type(), seg.rows))
                .collect();
        }
        for (dst, src) in cols.iter_mut().zip(block.iter()) {
            crate::ops::extend_range(dst, src, 0, rows);
        }
    }
    if cols.len() != n_cols {
        return Err(read_err(
            true,
            "spilled aggregation segment has wrong column arity".to_string(),
        ));
    }
    let mut it = cols.into_iter();
    let keys: Vec<Vector> = it.by_ref().take(n_keys).collect();
    let counts = match it.next() {
        Some(Vector::I64(c)) if c.len() == seg.rows => c,
        _ => {
            return Err(read_err(
                true,
                "spilled aggregation segment has a malformed count column".to_string(),
            ))
        }
    };
    let accs = it
        .map(|v| match v {
            Vector::F64(a) => Ok(PartialAcc::F64(a)),
            Vector::I64(a) => Ok(PartialAcc::I64(a)),
            other => Err(read_err(
                true,
                format!(
                    "spilled aggregation accumulator has type {:?}",
                    other.scalar_type()
                ),
            )),
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(AggrPartial {
        keys,
        counts,
        accs,
        n_groups: seg.rows,
        runs: Vec::new(),
    })
}

/// Streaming writer for one spill run. Every block write checks
/// cancellation, runs the `SpillWrite` fault injector, and charges
/// the disk budget before touching the file. Dropping an unfinished
/// writer deletes the file and refunds the budget.
#[derive(Debug)]
pub struct RunWriter {
    mgr: Arc<SpillManager>,
    ctx: Arc<QueryContext>,
    op: String,
    path: PathBuf,
    file: BufWriter<File>,
    bytes: u64,
    rows: u64,
    blocks: u64,
    n_cols: usize,
    finished: bool,
    buf: Vec<u8>,
}

impl RunWriter {
    /// Bytes written so far — the offset the next block will land at.
    pub fn offset(&self) -> u64 {
        self.bytes
    }

    /// Blocks written so far.
    pub fn blocks(&self) -> u64 {
        self.blocks
    }

    /// Rows written so far.
    pub fn rows(&self) -> u64 {
        self.rows
    }

    /// Fault-check, budget-charge and write one serialized span.
    fn write_charged(&mut self, bytes: &[u8]) -> Result<(), PlanError> {
        fault_check(
            &self.ctx,
            &self.mgr,
            FaultSite::SpillWrite,
            self.blocks as u32,
        )?;
        self.ctx.charge_spill(&self.op, bytes.len())?;
        if let Err(e) = charge_global(&self.op, bytes.len()) {
            // Undo the per-query charge so the two ledgers stay in
            // lock-step (drop refunds both by `self.bytes` only).
            self.ctx.release_spill(bytes.len());
            return Err(e);
        }
        if let Err(e) = self.file.write_all(bytes) {
            // The charge stands until drop/finish refunds it with the
            // rest of the file.
            return Err(write_err(format!(
                "write spill run {}: {e}",
                self.path.display()
            )));
        }
        self.bytes += bytes.len() as u64;
        self.mgr
            .bytes_written
            .fetch_add(bytes.len() as u64, Ordering::SeqCst);
        Ok(())
    }

    /// Append one block of equal-length column vectors (at most
    /// [`SPILL_BLOCK_ROWS`] rows). The vectors are consumed: columns
    /// reach the codec chooser by move, not by copy.
    pub fn write_block(&mut self, cols: Vec<Vector>) -> Result<(), PlanError> {
        assert!(!cols.is_empty(), "spill block needs at least one column");
        let rows = cols[0].len();
        assert!(rows <= SPILL_BLOCK_ROWS, "spill block of {rows} rows");
        debug_assert!(cols.iter().all(|c| c.len() == rows));
        if self.n_cols == 0 {
            self.n_cols = cols.len();
        }
        debug_assert_eq!(self.n_cols, cols.len(), "spill run column arity drifted");
        // Cancellation/deadline check between run writes: a cancelled
        // query stops spilling immediately instead of finishing the
        // run first.
        self.ctx.check()?;
        let mut w = Writer::new(std::mem::take(&mut self.buf), BLOCK_MAGIC, SPILL_VERSION);
        w.put(rows as u32);
        w.put(cols.len() as u32);
        for col in cols {
            put_column_section(&mut w, col);
        }
        let buf = w.seal();
        let res = self.write_charged(&buf);
        self.buf = buf;
        res?;
        self.rows += rows as u64;
        self.blocks += 1;
        Ok(())
    }

    /// Flush and seal the run. The returned [`SpillRun`] owns the
    /// file; the writer's drop-cleanup is disarmed.
    pub fn finish(mut self) -> Result<SpillRun, PlanError> {
        self.file
            .flush()
            .map_err(|e| write_err(format!("flush spill run {}: {e}", self.path.display())))?;
        self.finished = true;
        Ok(SpillRun {
            file: Arc::new(SpillFile {
                path: self.path.clone(),
                bytes: self.bytes,
                ctx: Arc::clone(&self.ctx),
            }),
            rows: self.rows,
            blocks: self.blocks,
            n_cols: self.n_cols,
        })
    }
}

impl Drop for RunWriter {
    fn drop(&mut self) {
        if !self.finished {
            let _ = fs::remove_file(&self.path);
            self.ctx.release_spill(self.bytes as usize);
            release_global(self.bytes);
        }
    }
}

/// Streaming reader over a spill run (or a segment of one). Each
/// block read checks cancellation, runs the `SpillRead` fault
/// injector, and validates the block frame before returning rows.
#[derive(Debug)]
pub struct RunReader {
    file: File,
    /// Keeps the backing temp file alive while reading.
    _keep: Arc<SpillFile>,
    mgr: Arc<SpillManager>,
    ctx: Arc<QueryContext>,
    remaining: u64,
    /// Bytes of the run past the read position: no block may claim more.
    left: u64,
    n_cols: usize,
    block_no: u32,
    buf: Vec<u8>,
    scratch: Vec<u64>,
}

impl RunReader {
    /// Open a reader over `blocks` blocks of `n_cols` columns starting
    /// at byte `offset`. Validates the run header regardless of where
    /// the window starts.
    pub fn open(
        file: &Arc<SpillFile>,
        offset: u64,
        blocks: u64,
        n_cols: usize,
        mgr: &Arc<SpillManager>,
        ctx: &Arc<QueryContext>,
    ) -> Result<RunReader, PlanError> {
        let path = file.path().display();
        let mut f = File::open(file.path())
            .map_err(|e| read_err(true, format!("open spill run {path}: {e}")))?;
        let mut buf = Vec::new();
        read_frame(&mut f, file.bytes(), &mut buf)
            .map_err(|e| e.to_string())
            .and_then(|()| Reader::open(&buf, RUN_MAGIC, SPILL_VERSION)?.finish())
            .map_err(|e| read_err(true, format!("bad spill run header in {path}: {e}")))?;
        let left = file.bytes().checked_sub(offset).ok_or_else(|| {
            read_err(true, format!("spill segment starts past the end of {path}"))
        })?;
        f.seek(SeekFrom::Start(offset))
            .map_err(|e| read_err(true, format!("seek spill run: {e}")))?;
        Ok(RunReader {
            file: f,
            _keep: Arc::clone(file),
            mgr: Arc::clone(mgr),
            ctx: Arc::clone(ctx),
            remaining: blocks,
            left,
            n_cols,
            block_no: 0,
            buf,
            scratch: Vec::new(),
        })
    }

    /// Read the next block into `out` (one vector per column,
    /// replaced wholesale). Returns the block's row count, or `None`
    /// when the window is exhausted.
    pub fn next_block(&mut self, out: &mut Vec<Vector>) -> Result<Option<usize>, PlanError> {
        if self.remaining == 0 {
            return Ok(None);
        }
        self.ctx.check()?;
        fault_check(&self.ctx, &self.mgr, FaultSite::SpillRead, self.block_no)?;
        let rows = read_frame(&mut self.file, self.left, &mut self.buf)
            .map_err(|e| e.to_string())
            .and_then(|()| self.parse_block(out))
            .map_err(|e| read_err(true, format!("spill block {}: {e}", self.block_no)))?;
        self.left -= self.buf.len() as u64;
        self.remaining -= 1;
        self.block_no += 1;
        Ok(Some(rows))
    }

    /// Parse the block frame in `self.buf`: arity against the run, row
    /// counts against the block header, every section consumed whole.
    fn parse_block(&mut self, out: &mut Vec<Vector>) -> Result<usize, String> {
        let mut r = Reader::open(&self.buf, BLOCK_MAGIC, SPILL_VERSION)?;
        let rows = r.get::<u32>()? as usize;
        let n_cols = r.get::<u32>()? as usize;
        if n_cols != self.n_cols || rows > SPILL_BLOCK_ROWS {
            return Err(format!(
                "{n_cols} columns × {rows} rows in a run of {}-column blocks",
                self.n_cols
            ));
        }
        out.clear();
        for _ in 0..n_cols {
            let compressed = r.get::<bool>()?;
            let mut s = r.section()?;
            let v = if compressed {
                let cc = CompressedColumn::read(&mut s)?;
                if cc.rows() != rows {
                    return Err("compressed section row-count mismatch".into());
                }
                let mut v = Vector::with_capacity(cc.physical_type(), rows);
                let mut cursor = DecodeCursor::default();
                cc.decode_range(0, rows, &mut v, &mut cursor, &mut self.scratch)?;
                v
            } else {
                s.vector()?
            };
            s.finish()?;
            if v.len() != rows {
                return Err("raw section row-count mismatch".into());
            }
            out.push(v);
        }
        r.finish()?;
        Ok(rows)
    }
}

/// Serialize one column section: compressed via the storage codecs
/// when the chooser takes it, the raw value codec otherwise (and for
/// `Bool`, which has no fragment twin).
fn put_column_section(w: &mut Writer, col: Vector) {
    match ColumnData::try_from(col) {
        Ok(data) => match choose_and_compress(&data) {
            Some(cc) => {
                w.put(true);
                w.section(|w| cc.put(w));
            }
            None => {
                w.put(false);
                w.section(|w| w.put_column(&data));
            }
        },
        Err(bools) => {
            w.put(false);
            w.section(|w| w.put_array(ScalarType::Bool, &bools));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::govern::QueryContext;

    fn ctx_with_spill(budget: usize) -> Arc<QueryContext> {
        Arc::new(QueryContext::new(
            None,
            Some(budget),
            None,
            None,
            None,
            None,
        ))
    }

    fn sample_cols(rows: usize) -> Vec<Vector> {
        let ints: Vec<i64> = (0..rows as i64).map(|i| i * 3 % 257).collect();
        let floats: Vec<f64> = (0..rows).map(|i| (i % 100) as f64 * 0.25).collect();
        let bools: Vec<bool> = (0..rows).map(|i| i % 3 == 0).collect();
        let mut sv = Vector::with_capacity(ScalarType::Str, rows);
        if let Vector::Str(s) = &mut sv {
            for i in 0..rows {
                s.push(&format!("g{}", i % 7));
            }
        }
        vec![
            Vector::I64(ints),
            Vector::F64(floats),
            Vector::Bool(bools),
            sv,
        ]
    }

    #[test]
    fn run_round_trip_is_byte_identical() {
        let ctx = ctx_with_spill(64 << 20);
        let mgr = ctx.spill_manager().unwrap();
        let cols = sample_cols(SPILL_BLOCK_ROWS + 100);
        let mut w = mgr.start_run(&ctx, "test").unwrap();
        let first: Vec<Vector> = cols
            .iter()
            .map(|c| {
                let mut v = Vector::with_capacity(c.scalar_type(), SPILL_BLOCK_ROWS);
                crate::ops::extend_range(&mut v, c, 0, SPILL_BLOCK_ROWS);
                v
            })
            .collect();
        let second: Vec<Vector> = cols
            .iter()
            .map(|c| {
                let mut v = Vector::with_capacity(c.scalar_type(), 100);
                crate::ops::extend_range(&mut v, c, SPILL_BLOCK_ROWS, 100);
                v
            })
            .collect();
        w.write_block(first).unwrap();
        w.write_block(second).unwrap();
        let run = w.finish().unwrap();
        assert_eq!(run.rows, (SPILL_BLOCK_ROWS + 100) as u64);
        assert_eq!(run.blocks, 2);
        assert!(ctx.spill_peak() > 0);

        let mut r = run.reader(&mgr, &ctx).unwrap();
        let mut got: Vec<Vector> = Vec::new();
        let mut block = Vec::new();
        let mut at = 0usize;
        while let Some(rows) = r.next_block(&mut block).unwrap() {
            if got.is_empty() {
                got = cols
                    .iter()
                    .map(|c| Vector::with_capacity(c.scalar_type(), 0))
                    .collect();
            }
            for (dst, src) in got.iter_mut().zip(block.iter()) {
                crate::ops::extend_range(dst, src, 0, rows);
            }
            at += rows;
        }
        assert_eq!(at, SPILL_BLOCK_ROWS + 100);
        for (orig, back) in cols.iter().zip(got.iter()) {
            assert_eq!(orig.len(), back.len());
            for i in 0..orig.len() {
                assert_eq!(
                    orig.get_value(i),
                    back.get_value(i),
                    "column mismatch at {i}"
                );
            }
        }
    }

    /// Spill twin of the storage mutation suite
    /// (`storage/tests/properties.rs`): truncate the run at every
    /// prefix, overwrite every field-sized span of the run header and
    /// the first block with {0, 1, MAX} and re-seal the frame so the
    /// damage reaches the parser. Every read must finish with rows or a
    /// typed unrecoverable `SpillRead` error — never a panic, and never
    /// an allocation sized by a damaged field.
    #[test]
    fn run_mutants_read_typed_or_clean() {
        use x100_storage::fold_checksum;
        use x100_storage::frame::Le;
        let ctx = ctx_with_spill(64 << 20);
        let mgr = ctx.spill_manager().unwrap();
        let mut w = mgr.start_run(&ctx, "test").unwrap();
        w.write_block(sample_cols(300)).unwrap();
        let first_end = w.offset() as usize;
        w.write_block(sample_cols(50)).unwrap();
        let run = w.finish().unwrap();
        let path = run.file.path().to_path_buf();
        let image = fs::read(&path).unwrap();
        let read_all = |bytes: &[u8]| {
            fs::write(&path, bytes).unwrap();
            let mut r = run.reader(&mgr, &ctx)?;
            let (mut block, mut total) = (Vec::new(), 0);
            while let Some(rows) = r.next_block(&mut block)? {
                total += rows;
            }
            Ok(total)
        };
        let check = |bytes: &[u8]| match read_all(bytes) {
            Ok(_)
            | Err(PlanError::Io {
                site: FaultSite::SpillRead,
                unrecoverable: true,
                ..
            }) => {}
            Err(other) => panic!("untyped spill read failure: {other}"),
        };
        assert_eq!(read_all(&image).unwrap(), 350);
        for cut in 0..image.len() {
            assert!(read_all(&image[..cut]).is_err(), "run truncated at {cut}");
        }
        let header = RUN_HEADER_BYTES as usize;
        fn overwrite<T: Le>(m: &mut [u8], at: usize, v: T) -> bool {
            m.get_mut(at..at + T::W).map(|s| v.write(s)).is_some()
        }
        for at in 0..first_end {
            // The frame the offset falls in: its trailer is re-folded.
            let (lo, hi) = if at < header {
                (0, header)
            } else {
                (header, first_end)
            };
            for pick in 0..9 {
                let mut m = image.clone();
                let hit = match pick {
                    0 => overwrite(&mut m, at, 0u8),
                    1 => overwrite(&mut m, at, 1u8),
                    2 => overwrite(&mut m, at, u8::MAX),
                    3 => overwrite(&mut m, at, 0u32),
                    4 => overwrite(&mut m, at, 1u32),
                    5 => overwrite(&mut m, at, u32::MAX),
                    6 => overwrite(&mut m, at, 0u64),
                    7 => overwrite(&mut m, at, 1u64),
                    _ => overwrite(&mut m, at, u64::MAX),
                };
                if hit {
                    m[hi - 1] = fold_checksum(&m[lo..hi - 1]);
                    check(&m);
                }
            }
        }
        fs::write(&path, &image).unwrap();
    }

    #[test]
    fn dropped_writer_removes_file_and_refunds_budget() {
        let ctx = ctx_with_spill(64 << 20);
        let mgr = ctx.spill_manager().unwrap();
        let path;
        {
            let mut w = mgr.start_run(&ctx, "test").unwrap();
            w.write_block(sample_cols(128)).unwrap();
            path = w.path.clone();
            assert!(path.exists());
            assert!(ctx.spill_peak() > 0);
        }
        assert!(
            !path.exists(),
            "unfinished run file must be removed on drop"
        );
    }

    #[test]
    fn finished_run_file_removed_when_handles_drop() {
        let ctx = ctx_with_spill(64 << 20);
        let mgr = ctx.spill_manager().unwrap();
        let mut w = mgr.start_run(&ctx, "test").unwrap();
        w.write_block(sample_cols(64)).unwrap();
        let run = w.finish().unwrap();
        let path = run.file.path().to_path_buf();
        assert!(path.exists());
        drop(run);
        assert!(!path.exists(), "sealed run file must be removed on drop");
    }

    #[test]
    fn spill_budget_overflow_is_resource_exhausted() {
        let ctx = ctx_with_spill(64);
        let mgr = ctx.spill_manager().unwrap();
        let mut w = mgr.start_run(&ctx, "order-by").unwrap();
        let err = w.write_block(sample_cols(4096)).unwrap_err();
        match err {
            PlanError::ResourceExhausted { operator, .. } => {
                assert!(operator.contains("spill budget"), "got operator {operator}");
            }
            other => panic!("expected ResourceExhausted, got {other}"),
        }
    }
}
