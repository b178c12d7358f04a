//! Durable chunk store: crash-consistent checkpoints with replicated
//! self-healing recovery (DESIGN.md §14).
//!
//! A durable checkpoint is a per-table directory holding one file per
//! (column, replica) pair plus a versioned manifest:
//!
//! ```text
//! manifest-0000000003.xman        committed checkpoint version 3
//! col000-v0000000003-r0.chunks    column 0, replica 0
//! col000-v0000000003-r1.chunks    column 0, replica 1
//! col001-v0000000003-r0.chunks    ...
//! ```
//!
//! Every file is written temp → fsync → atomic-rename → directory
//! fsync, and the manifest is written *last*, so the manifest's
//! existence implies every file it names is complete. A crash at any
//! write step leaves either no manifest for the new version (recovery
//! uses the previous one, still fully readable) or a committed version
//! whose files all made it. Orphan `.tmp` and stale-version files are
//! pruned on the next successful commit.
//!
//! Each chunk file is one sealed frame of the byte layer
//! ([`crate::frame`]) carrying the column's raw fragment, its compressed
//! rewrite (when the codec chooser found a paying format) and its enum
//! dictionary as sections. [`DurableOptions::replicas`]
//! (default 2) copies of every file are kept: a checksum, torn-write,
//! or IO failure on one copy transparently heals from another —
//! rewriting the bad copy in place and counting `chunk_heals` — and a
//! typed [`DurableError::Io`] surfaces only when *all* copies fail.

use crate::columnbm::{retry_with_backoff, FaultSite, FaultState, StorageFaultError};
use crate::compress::CompressedColumn;
use crate::delta::DeleteList;
use crate::enumcol::{EnumDict, MAX_ENUM_CARD};
use crate::frame::{Reader, Writer};
use crate::table::{StoredColumn, Table};
use std::collections::HashMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use x100_vector::{ScalarType, Value, Vector};

/// Magic + version of one on-disk column-replica file.
const CHUNK_MAGIC: &[u8; 4] = b"XDCF";
const CHUNK_VERSION: u8 = 3;
/// Magic + version of the committing manifest.
const MANIFEST_MAGIC: &[u8; 4] = b"XMAN";
const MANIFEST_VERSION: u8 = 2;

/// Retry budget for *real* IO errors when no fault plan supplies one
/// (mirrors `FaultPlan::default()`).
const DEFAULT_MAX_RETRIES: u32 = 6;
const DEFAULT_BACKOFF_US: u64 = 20;
/// Most copies a checkpoint keeps of one file; a manifest claiming more
/// is corrupt (recovery probes every replica it names).
const MAX_REPLICAS: u32 = 8;

/// Tuning knobs of the durable checkpoint path.
#[derive(Debug, Clone)]
pub struct DurableOptions {
    /// Copies kept of every chunk file. With 2 (the default) any
    /// single-copy corruption heals transparently; 1 disables
    /// replication (a bad file is unrecoverable).
    pub replicas: u32,
}

impl Default for DurableOptions {
    fn default() -> Self {
        DurableOptions { replicas: 2 }
    }
}

impl DurableOptions {
    /// Set the replication factor (clamped to 1..=8).
    pub fn with_replicas(mut self, replicas: u32) -> Self {
        self.replicas = replicas.clamp(1, MAX_REPLICAS);
        self
    }
}

/// A durable-store failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DurableError {
    /// An IO step kept failing after its retry budget — or, on read,
    /// *every* replica of some file failed.
    Io {
        /// The fault site of the failing step.
        site: FaultSite,
        /// Human-readable description (path, attempts, cause).
        detail: String,
    },
    /// The directory holds no committed checkpoint this code can read
    /// (missing, unparseable, or checksum-bad manifests).
    Corrupt(String),
}

impl std::fmt::Display for DurableError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DurableError::Io { site, detail } => {
                write!(f, "durable io failure at {site}: {detail}")
            }
            DurableError::Corrupt(d) => write!(f, "durable store corrupt: {d}"),
        }
    }
}

impl std::error::Error for DurableError {}

impl From<StorageFaultError> for DurableError {
    fn from(e: StorageFaultError) -> Self {
        DurableError::Io {
            site: e.site,
            detail: e.to_string(),
        }
    }
}

// ---------------------------------------------------------------------------
// Chunk file (one column replica): XDCF
// ---------------------------------------------------------------------------

/// Everything one column replica file decodes to.
struct ColFile {
    col: u32,
    rows: u64,
    logical: ScalarType,
    data: Vector,
    compressed: Option<CompressedColumn>,
    dict: Option<Vector>,
    has_summary: bool,
    /// Whether the codec chooser's verdict (including "stay raw") was
    /// current at checkpoint time — restores the sweep cache at open.
    codec_done: bool,
}

fn encode_col_file(col: u32, sc: &StoredColumn) -> Vec<u8> {
    let mut w = Writer::new(Vec::new(), CHUNK_MAGIC, CHUNK_VERSION);
    w.put(col);
    w.put(sc.data.len() as u64);
    w.put_type(sc.field.logical);
    w.put(sc.summary.is_some());
    w.put(sc.codec_epoch == Some(sc.epoch));
    w.section(|w| w.put_column(&sc.data));
    w.put(sc.compressed.is_some());
    if let Some(c) = &sc.compressed {
        w.section(|w| c.put(w));
    }
    w.put(sc.dict.is_some());
    if let Some(d) = &sc.dict {
        w.section(|w| w.put_column(d.values()));
    }
    w.seal()
}

/// One flag-guarded section: present iff the flag byte is set, parsed
/// by `parse`, which must consume it whole.
fn optional<'a, T>(
    r: &mut Reader<'a>,
    parse: impl FnOnce(&mut Reader<'a>) -> Result<T, String>,
) -> Result<Option<T>, String> {
    if !r.get::<bool>()? {
        return Ok(None);
    }
    let mut s = r.section()?;
    let v = parse(&mut s)?;
    s.finish()?;
    Ok(Some(v))
}

fn decode_col_file(bytes: &[u8]) -> Result<ColFile, String> {
    let mut r = Reader::open(bytes, CHUNK_MAGIC, CHUNK_VERSION)?;
    let col = r.get()?;
    let rows = r.get()?;
    let logical = r.get_type()?;
    let has_summary = r.get()?;
    let codec_done = r.get()?;
    let mut raw = r.section()?;
    let data = raw.column()?;
    raw.finish()?;
    let compressed = optional(&mut r, CompressedColumn::read)?;
    let dict = optional(&mut r, Reader::column)?;
    r.finish()?;
    let covered = compressed.as_ref().map_or(rows, |c| c.rows() as u64);
    if data.len() as u64 != rows || covered != rows {
        return Err(format!(
            "row count mismatch: header {rows}, fragment {}, chunks {covered}",
            data.len()
        ));
    }
    Ok(ColFile {
        col,
        rows,
        logical,
        data,
        compressed,
        dict,
        has_summary,
        codec_done,
    })
}

// ---------------------------------------------------------------------------
// Manifest: XMAN
// ---------------------------------------------------------------------------

/// One column's entry in a committed manifest.
#[derive(Debug, Clone)]
struct ManifestCol {
    name: String,
    /// Size of the (identical) replica files, trailer included.
    file_bytes: u64,
    /// The file's trailing fold checksum — cross-checked at open so a
    /// stale or swapped file cannot impersonate a committed one.
    checksum: u8,
}

#[derive(Debug, Clone)]
struct Manifest {
    version: u64,
    replicas: u32,
    table: String,
    frag_rows: u64,
    cols: Vec<ManifestCol>,
}

fn encode_manifest(m: &Manifest) -> Vec<u8> {
    let mut w = Writer::new(Vec::new(), MANIFEST_MAGIC, MANIFEST_VERSION);
    w.put(m.version);
    w.put(m.replicas);
    w.put_str(&m.table);
    w.put(m.frag_rows);
    w.put(m.cols.len() as u32);
    for c in &m.cols {
        w.put_str(&c.name);
        w.put(c.file_bytes);
        w.put(c.checksum);
    }
    w.seal()
}

fn decode_manifest(bytes: &[u8]) -> Result<Manifest, String> {
    let mut r = Reader::open(bytes, MANIFEST_MAGIC, MANIFEST_VERSION)?;
    let version = r.get()?;
    let replicas = r.get()?;
    let table = r.str()?.to_owned();
    let frag_rows = r.get()?;
    // A column entry is at least its name length, size and checksum.
    let ncols = r.count::<u32>(4 + 8 + 1)?;
    let mut cols = Vec::with_capacity(ncols);
    for _ in 0..ncols {
        cols.push(ManifestCol {
            name: r.str()?.to_owned(),
            file_bytes: r.get()?,
            checksum: r.get()?,
        });
    }
    r.finish()?;
    if !(1..=MAX_REPLICAS).contains(&replicas) {
        return Err(format!("manifest claims {replicas} replicas"));
    }
    Ok(Manifest {
        version,
        replicas,
        table,
        frag_rows,
        cols,
    })
}

// ---------------------------------------------------------------------------
// File naming + atomic write
// ---------------------------------------------------------------------------

fn manifest_name(version: u64) -> String {
    format!("manifest-{version:010}.xman")
}

fn col_file_name(col: u32, version: u64, replica: u32) -> String {
    format!("col{col:03}-v{version:010}-r{replica}.chunks")
}

/// Parse `manifest-{v}.xman` back to `v`.
fn parse_manifest_name(name: &str) -> Option<u64> {
    let v = name.strip_prefix("manifest-")?.strip_suffix(".xman")?;
    v.parse().ok()
}

/// Parse `colNNN-vVVV-rR.chunks` back to its version.
fn parse_col_file_version(name: &str) -> Option<u64> {
    let rest = name.strip_prefix("col")?.strip_suffix(".chunks")?;
    let (_, rest) = rest.split_once("-v")?;
    let (v, _) = rest.split_once("-r")?;
    v.parse().ok()
}

fn io_budget(fault: Option<&FaultState>) -> (u32, u64) {
    match fault {
        Some(f) => (f.plan().max_retries, f.plan().backoff_base_us),
        None => (DEFAULT_MAX_RETRIES, DEFAULT_BACKOFF_US),
    }
}

/// Read one file with bounded-backoff retry over real IO errors.
fn read_file_retrying(
    path: &Path,
    fault: Option<&FaultState>,
    site: FaultSite,
) -> Result<Vec<u8>, DurableError> {
    let (max_retries, backoff) = io_budget(fault);
    retry_with_backoff(max_retries, backoff, |_| std::fs::read(path)).map_or_else(
        |(e, attempts)| {
            Err(DurableError::Io {
                site,
                detail: format!("{}: {e} after {attempts} attempts", path.display()),
            })
        },
        |(bytes, _)| Ok(bytes),
    )
}

/// Write `bytes` to `dir/name` crash-consistently: temp file → fsync →
/// atomic rename → directory fsync. Two fault checks model the two
/// points a dying process can leave distinct on-disk states — before
/// the temp file is complete (a stray `.tmp`, ignored by recovery) and
/// before the rename (the final name never appears). Real IO errors
/// retry with the same bounded-backoff budget.
fn write_atomic(
    dir: &Path,
    name: &str,
    bytes: &[u8],
    site: FaultSite,
    fault: Option<&FaultState>,
) -> Result<(), DurableError> {
    let (max_retries, backoff) = io_budget(fault);
    let tmp = dir.join(format!("{name}.tmp"));
    let fin = dir.join(name);

    // Kill-point 1: died before the temp write finished. A partial
    // `.tmp` may remain; recovery never reads `.tmp` files.
    if let Some(f) = fault {
        f.check_site(site, 0)?;
    }
    let write_step = |_| -> std::io::Result<()> {
        let mut fh = std::fs::File::create(&tmp)?;
        fh.write_all(bytes)?;
        fh.sync_all()
    };
    if let Err((e, attempts)) = retry_with_backoff(max_retries, backoff, write_step) {
        return Err(DurableError::Io {
            site,
            detail: format!("{}: {e} after {attempts} attempts", tmp.display()),
        });
    }

    // Kill-point 2: died between the temp write and the commit rename.
    // The final name never appears; the previous version is untouched.
    if let Some(f) = fault {
        f.check_site(site, 0)?;
    }
    let rename_step = |_| -> std::io::Result<()> {
        std::fs::rename(&tmp, &fin)?;
        // Persist the directory entry itself; without this a crash can
        // forget the rename even though the data blocks survived.
        #[cfg(unix)]
        {
            std::fs::File::open(dir)?.sync_all()?;
        }
        Ok(())
    };
    if let Err((e, attempts)) = retry_with_backoff(max_retries, backoff, rename_step) {
        return Err(DurableError::Io {
            site,
            detail: format!("{}: {e} after {attempts} attempts", fin.display()),
        });
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Commit (checkpoint write path)
// ---------------------------------------------------------------------------

/// Largest committed (or orphaned) version present in `dir`, from both
/// manifest and chunk-file names — a new commit must outnumber aborted
/// attempts too, or their orphan files could collide with ours.
fn newest_version_in_dir(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    let mut newest = 0;
    for e in entries.flatten() {
        let name = e.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(v) = parse_manifest_name(name).or_else(|| parse_col_file_version(name)) {
            newest = newest.max(v);
        }
    }
    newest
}

/// Persist every column of `table` to `dir` as checkpoint version
/// `newest + 1`: all chunk files first (each `opts.replicas` times),
/// the manifest last. Returns the [`DurableSource`] describing the
/// committed version. Called by [`Table::try_checkpoint_durable`].
pub(crate) fn commit_checkpoint(
    table: &Table,
    dir: &Path,
    opts: &DurableOptions,
    fault: Option<&FaultState>,
) -> Result<Arc<DurableSource>, DurableError> {
    std::fs::create_dir_all(dir).map_err(|e| DurableError::Io {
        site: FaultSite::DurableChunkWrite,
        detail: format!("create {}: {e}", dir.display()),
    })?;
    let replicas = opts.replicas.clamp(1, MAX_REPLICAS);
    let version = newest_version_in_dir(dir) + 1;
    let mut cols = Vec::with_capacity(table.columns.len());
    for (i, sc) in table.columns.iter().enumerate() {
        let bytes = encode_col_file(i as u32, sc);
        let checksum = bytes.last().copied().unwrap_or(0);
        for r in 0..replicas {
            write_atomic(
                dir,
                &col_file_name(i as u32, version, r),
                &bytes,
                FaultSite::DurableChunkWrite,
                fault,
            )?;
        }
        cols.push(ManifestCol {
            name: sc.field.name.clone(),
            file_bytes: bytes.len() as u64,
            checksum,
        });
    }
    let manifest = Manifest {
        version,
        replicas,
        table: table.name.clone(),
        frag_rows: table.frag_rows as u64,
        cols,
    };
    write_atomic(
        dir,
        &manifest_name(version),
        &encode_manifest(&manifest),
        FaultSite::ManifestWrite,
        fault,
    )?;
    prune_stale(dir, version);
    Ok(Arc::new(DurableSource::new(dir.to_path_buf(), manifest)))
}

/// Best-effort cleanup after a successful commit: older versions'
/// manifests and chunk files, plus `.tmp` orphans of crashed attempts.
/// Failures are ignored — stale files cost disk, never correctness.
fn prune_stale(dir: &Path, keep_version: u64) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let name = e.file_name();
        let Some(name) = name.to_str() else { continue };
        let stale = name.ends_with(".tmp")
            || parse_manifest_name(name).is_some_and(|v| v < keep_version)
            || parse_col_file_version(name).is_some_and(|v| v != keep_version);
        if stale {
            let _ = std::fs::remove_file(e.path());
        }
    }
}

// ---------------------------------------------------------------------------
// Open (recovery path)
// ---------------------------------------------------------------------------

/// Read column `col` of manifest `m` from its first replica that is
/// readable, matches the manifest's size and checksum, parses,
/// identifies as this column and passes `accept`. Every copy that failed
/// before it is then rewritten from the good bytes — best-effort: a
/// failed rewrite leaves the bad copy for the next heal to retry.
/// Returns `accept`'s value and how many copies were rewritten, or a
/// typed `Io` once *all* replicas have failed.
fn read_replicas<T>(
    dir: &Path,
    m: &Manifest,
    col: u32,
    fault: Option<&FaultState>,
    accept: impl Fn(ColFile) -> Result<T, String>,
) -> Result<(T, u64), DurableError> {
    let meta = &m.cols[col as usize];
    let site = FaultSite::DurableChunkRead;
    let mut bad: Vec<String> = Vec::new();
    let mut last_err = String::new();
    for r in 0..m.replicas {
        let name = col_file_name(col, m.version, r);
        let path = dir.join(&name);
        // A read fault that exhausts its retry budget marks this copy
        // bad and falls over to the next replica — replication is the
        // second line of defense after retry.
        let parsed = fault
            .map_or(Ok(()), |f| f.check_site(site, col))
            .map_err(DurableError::from)
            .and_then(|()| read_file_retrying(&path, fault, site))
            .map_err(|e| e.to_string())
            .and_then(|bytes| {
                if bytes.len() as u64 != meta.file_bytes || bytes.last() != Some(&meta.checksum) {
                    return Err(format!(
                        "{} bytes, size or checksum differs from manifest",
                        bytes.len()
                    ));
                }
                let cf = decode_col_file(&bytes)?;
                if cf.col != col || cf.rows != m.frag_rows {
                    return Err(format!(
                        "file identifies as col {} × {} rows, manifest says col {col} × {}",
                        cf.col, cf.rows, m.frag_rows
                    ));
                }
                Ok((accept(cf)?, bytes))
            });
        match parsed {
            Ok((v, bytes)) => {
                let rewrite = |n: &&String| {
                    write_atomic(dir, n, &bytes, FaultSite::DurableChunkWrite, fault).is_ok()
                };
                return Ok((v, bad.iter().filter(rewrite).count() as u64));
            }
            Err(e) => {
                last_err = format!("{}: {e}", path.display());
                bad.push(name);
            }
        }
    }
    Err(DurableError::Io {
        site,
        detail: format!(
            "column {col} (`{}`): all {} replicas failed; last: {last_err}",
            meta.name, m.replicas
        ),
    })
}

/// Rebuild a [`StoredColumn`] named `name` from a decoded replica file:
/// dictionary re-wrapped, summary index and fragment stats recomputed
/// by [`StoredColumn::new`] (both are derived data — cheaper to rebuild
/// than to verify). The stats pass doubles as the check that every
/// enum code has a dictionary entry.
fn restore_column(cf: ColFile, name: &str) -> Result<StoredColumn, String> {
    if let Some(values) = &cf.dict {
        if values.len() > MAX_ENUM_CARD {
            return Err(format!(
                "enum codes do not fit the {}-entry dictionary",
                values.len()
            ));
        }
    }
    let mut sc = StoredColumn::new(
        name.to_owned(),
        cf.data,
        cf.dict.map(EnumDict::new),
        cf.has_summary,
    );
    if let Some(dict) = &sc.dict {
        let codes_fit = match (&sc.data, &sc.stats.max) {
            (Vector::U8(_) | Vector::U16(_), None) => true,
            (_, Some(Value::U8(c))) => (*c as usize) < dict.cardinality(),
            (_, Some(Value::U16(c))) => (*c as usize) < dict.cardinality(),
            _ => false,
        };
        if !codes_fit {
            return Err(format!(
                "enum codes do not fit the {}-entry dictionary",
                dict.cardinality()
            ));
        }
    }
    if sc.field.logical != cf.logical {
        return Err(format!(
            "logical type {:?} does not match payload {:?}",
            cf.logical, sc.field.logical
        ));
    }
    sc.compressed = cf.compressed;
    sc.codec_epoch = cf.codec_done.then_some(0);
    Ok(sc)
}

/// Recover a table from `dir`: newest valid manifest wins, every column
/// loads from its first good replica (healing the rest). Called by
/// [`Table::try_open`].
pub(crate) fn open_table(dir: &Path, fault: Option<&FaultState>) -> Result<Table, DurableError> {
    let entries = std::fs::read_dir(dir).map_err(|e| DurableError::Io {
        site: FaultSite::ManifestRead,
        detail: format!("read dir {}: {e}", dir.display()),
    })?;
    let mut versions: Vec<u64> = entries
        .flatten()
        .filter_map(|e| e.file_name().to_str().and_then(parse_manifest_name))
        .collect();
    versions.sort_unstable();
    versions.reverse();
    if versions.is_empty() {
        return Err(DurableError::Corrupt(format!(
            "no manifest in {}",
            dir.display()
        )));
    }
    let mut last_err = String::new();
    for v in versions {
        // A manifest-read fault past its retry budget is a hard error
        // (the site models the directory being unreadable, not one
        // stale file); a *corrupt* manifest falls back a version.
        if let Some(f) = fault {
            f.check_site(FaultSite::ManifestRead, 0)?;
        }
        let bytes =
            read_file_retrying(&dir.join(manifest_name(v)), fault, FaultSite::ManifestRead)?;
        let manifest = match decode_manifest(&bytes) {
            Ok(m) if m.version == v => m,
            Ok(m) => {
                last_err = format!("manifest {v} claims version {}", m.version);
                continue;
            }
            Err(e) => {
                last_err = format!("manifest {v}: {e}");
                continue;
            }
        };
        return open_from_manifest(dir, manifest, fault);
    }
    Err(DurableError::Corrupt(format!(
        "no valid manifest in {}: {last_err}",
        dir.display()
    )))
}

fn open_from_manifest(
    dir: &Path,
    manifest: Manifest,
    fault: Option<&FaultState>,
) -> Result<Table, DurableError> {
    let mut columns = Vec::with_capacity(manifest.cols.len());
    let mut heals = 0u64;
    for (i, meta) in manifest.cols.iter().enumerate() {
        let restore = |cf| restore_column(cf, &meta.name);
        let (sc, h) = read_replicas(dir, &manifest, i as u32, fault, restore)?;
        heals += h;
        columns.push(sc);
    }
    let source = DurableSource::new(dir.to_path_buf(), manifest.clone());
    source.heals.fetch_add(heals, Ordering::SeqCst);
    Ok(Table {
        name: manifest.table,
        inserts: crate::table::empty_delta(&columns),
        columns,
        frag_rows: manifest.frag_rows as usize,
        deletes: DeleteList::default(),
        codec_sweeps: 0,
        durable: Some(Arc::new(source)),
    })
}

// ---------------------------------------------------------------------------
// DurableSource: mid-query self-healing
// ---------------------------------------------------------------------------

/// Handle to the committed checkpoint backing an open table.
///
/// Scans hold it through `Table::durable_source()`: when a compressed
/// chunk fails its checksum mid-query (in-memory torn write, bit rot),
/// [`DurableSource::recover_column`] re-reads the column from a disk
/// replica, verifies *every* chunk of the parsed copy, heals bad disk
/// replicas in place, and caches the verified copy so concurrent
/// queries hitting the same damage pay for exactly one heal.
#[derive(Debug)]
pub struct DurableSource {
    dir: PathBuf,
    manifest: Manifest,
    /// Columns already healed this process lifetime: verified
    /// compressed copies, shared by all queries over this table.
    healed: Mutex<HashMap<u32, Arc<CompressedColumn>>>,
    heals: AtomicU64,
}

impl DurableSource {
    fn new(dir: PathBuf, manifest: Manifest) -> Self {
        DurableSource {
            dir,
            manifest,
            healed: Mutex::new(HashMap::new()),
            heals: AtomicU64::new(0),
        }
    }

    /// The checkpoint directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The committed checkpoint version.
    pub fn version(&self) -> u64 {
        self.manifest.version
    }

    /// Replication factor of the committed checkpoint.
    pub fn replicas(&self) -> u32 {
        self.manifest.replicas
    }

    /// Chunk heals performed so far: replica-to-replica rewrites at
    /// open plus mid-query recoveries (each counted once, however many
    /// queries observed the damage).
    pub fn heals(&self) -> u64 {
        self.heals.load(Ordering::SeqCst)
    }

    /// Recover column `col`'s compressed chunks from a disk replica.
    ///
    /// Returns the verified copy and whether *this call* performed the
    /// heal (`false` = served from the heal cache). The per-source lock
    /// is held across the disk read on purpose: two queries racing on
    /// the same corrupt chunk serialize here, the first heals, the
    /// second gets the cached copy.
    ///
    /// Errors when the column has no compressed form on disk or when
    /// every replica fails — the caller falls back to the raw fragment
    /// (and then to a typed `Io`, the PR 6 contract).
    pub fn recover_column(
        &self,
        col: u32,
        fault: Option<&FaultState>,
    ) -> Result<(Arc<CompressedColumn>, bool), DurableError> {
        if col as usize >= self.manifest.cols.len() {
            return Err(DurableError::Corrupt(format!(
                "column {col} out of range ({} columns)",
                self.manifest.cols.len()
            )));
        }
        let mut healed = self.healed.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(c) = healed.get(&col) {
            return Ok((Arc::clone(c), false));
        }
        let (arc, _) = read_replicas(&self.dir, &self.manifest, col, fault, |cf| {
            // The whole-file fold proves the *disk bytes* match what
            // was written; the per-chunk pass additionally rejects a
            // copy that was already torn in memory before it was
            // written.
            let c = cf.compressed.ok_or("no compressed chunks on disk")?;
            c.verify_all()?;
            Ok(Arc::new(c))
        })?;
        self.heals.fetch_add(1, Ordering::SeqCst);
        healed.insert(col, Arc::clone(&arc));
        Ok((arc, true))
    }
}
