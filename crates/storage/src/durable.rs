//! Durable chunk store: crash-consistent checkpoints with replicated
//! self-healing recovery (DESIGN.md §14).
//!
//! A durable checkpoint is a per-table directory holding one segment
//! file per replica plus a versioned manifest:
//!
//! ```text
//! manifest-0000000003.xman    committed checkpoint version 3
//! seg-v0000000003-r0.seg      every column of version 3, replica 0
//! seg-v0000000003-r1.seg      the same bytes, replica 1
//! ```
//!
//! A segment is each column's sealed `XDCF` frame of the byte layer
//! ([`crate::frame`]), back to back; the manifest records every
//! column's *extent* in it (offset, length, trailer byte). The codec
//! chooser runs per column straight into the segment buffer: a column
//! whose chunks pay and verify is stored as those chunks and its enum
//! dictionary only — `open` rebuilds the fragment by dense decode and
//! keeps no chunks, and a copy whose chunks fail to decode counts as a
//! bad copy. A column no chunk format pays for, or whose chunks were
//! torn between encode and verification, is stored as its raw values.
//!
//! A segment's name carries its version, which is never reused (a new
//! commit outnumbers every version in the directory, aborted ones
//! included), so segments are written under their final names: every
//! extent to every replica, one `fsync` per segment, one directory
//! `fsync`, and then the manifest, temp → fsync → atomic rename →
//! directory fsync. The manifest's rename is the single commit point: a
//! crash before it leaves orphan segments no manifest names (recovery
//! uses the previous version, still fully readable), a crash after it a
//! committed version whose segments are all durable. Orphans and older
//! versions are pruned on the next successful commit.
//!
//! [`DurableOptions::replicas`] (default 2) segments are kept. A
//! checksum, torn-write, or IO failure on one copy of an extent
//! transparently heals from another — the good bytes are written over
//! the bad extent in place, which never changes the segment's size, and
//! [`DurableSource::heals`] counts it — and a typed [`DurableError::Io`]
//! surfaces only when *all* copies fail.

use crate::compress::{choose_and_compress, ChunkFormat, CompressedColumn};
use crate::delta::DeleteList;
use crate::enumcol::{EnumDict, MAX_ENUM_CARD};
use crate::fault::{retry_with_backoff, FaultSite, FaultState, StorageFaultError};
use crate::frame::{Reader, Writer};
use crate::table::{StoredColumn, Table, Verdicts};
use std::fs::{File, OpenOptions};
use std::io::{Read as _, Seek as _, SeekFrom, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use x100_vector::{ScalarType, Value, Vector};

/// Magic + version of one column's frame in a segment.
const CHUNK_MAGIC: &[u8; 4] = b"XDCF";
const CHUNK_VERSION: u8 = 6;
/// Magic + version of the committing manifest.
const MANIFEST_MAGIC: &[u8; 4] = b"XMAN";
const MANIFEST_VERSION: u8 = 3;

/// Retry budget for *real* IO errors when no fault plan supplies one
/// (mirrors `FaultPlan::default()`).
const DEFAULT_MAX_RETRIES: u32 = 6;
const DEFAULT_BACKOFF_US: u64 = 20;
/// Most copies a checkpoint keeps of one segment; a manifest claiming
/// more is corrupt (recovery probes every replica it names).
const MAX_REPLICAS: u32 = 8;

/// Tuning knobs of the durable checkpoint path.
#[derive(Debug, Clone)]
pub struct DurableOptions {
    /// Copies kept of every segment. With 2 (the default) any
    /// single-copy corruption heals transparently; 1 disables
    /// replication (a bad extent is unrecoverable).
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
    /// *every* replica of some column failed.
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
// Column frame (one extent of a segment): XDCF
// ---------------------------------------------------------------------------

/// What a column frame stores of the fragment.
enum Stored {
    /// The raw values: no chunk format pays, or its chunks were torn.
    Raw(Vector),
    /// The compressed chunks alone; the fragment is their dense decode.
    Chunks(CompressedColumn),
}

/// Everything one column frame decodes to.
struct ColFile {
    col: u32,
    rows: u64,
    logical: ScalarType,
    stored: Stored,
    dict: Option<Vector>,
    has_summary: bool,
}

/// Column `col`'s frame and the verdict `(format, ratio_pct)` of what it
/// stores. The codec chooser runs here, once per column per commit, and
/// its chunks live only until they are written; the frame is allocated
/// once the chooser's scratch is gone, at about its final size. Chunks
/// that fail their checksums (torn between encode and write — `fault`'s
/// torn writes land there) must not become the only durable copy: the
/// raw values are stored instead.
fn encode_col_file(
    col: u32,
    sc: &StoredColumn,
    fault: Option<&FaultState>,
) -> (Vec<u8>, (ChunkFormat, u64)) {
    let rows = sc.data.len();
    let mut chunks = choose_and_compress(&sc.data, &sc.stats);
    if let (Some(f), Some(c)) = (fault, chunks.as_mut()) {
        for t in f.take_torn(col) {
            c.corrupt_payload_byte(t.chunk as usize, t.byte as usize);
        }
    }
    let chunks = chunks.filter(|c| c.verify_all().is_ok());
    let stored = chunks
        .as_ref()
        .map_or(sc.data.byte_size(), |c| c.compressed_bytes() as usize);
    let dict = sc.dict.as_ref().map_or(0, |d| d.values().byte_size());
    let buf = Vec::with_capacity(stored + dict + 128);
    let mut w = Writer::new(buf, CHUNK_MAGIC, CHUNK_VERSION);
    w.put(col);
    w.put(rows as u64);
    w.put_type(sc.field.logical);
    w.put(sc.summary.is_some());
    w.put(chunks.is_some());
    let verdict = match &chunks {
        Some(c) => {
            w.section(|w| c.put(w));
            (c.format(), c.ratio_pct())
        }
        None => {
            w.section(|w| w.put_column(&sc.data));
            (ChunkFormat::Raw, 100)
        }
    };
    w.put(sc.dict.is_some());
    if let Some(d) = &sc.dict {
        w.section(|w| w.put_column(d.values()));
    }
    (w.seal(), verdict)
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
    let chunked = r.get::<bool>()?;
    let mut s = r.section()?;
    let stored = match chunked {
        true => Stored::Chunks(CompressedColumn::read(&mut s)?),
        false => Stored::Raw(s.column()?),
    };
    s.finish()?;
    let dict = optional(&mut r, Reader::column)?;
    r.finish()?;
    let covered = match &stored {
        Stored::Raw(data) => data.len(),
        Stored::Chunks(c) => c.rows(),
    };
    if covered as u64 != rows {
        return Err(format!(
            "row count mismatch: header {rows}, stored {covered}"
        ));
    }
    Ok(ColFile {
        col,
        rows,
        logical,
        stored,
        dict,
        has_summary,
    })
}

// ---------------------------------------------------------------------------
// Manifest: XMAN
// ---------------------------------------------------------------------------

/// One column's entry in a committed manifest: its extent, the same in
/// every replica's segment.
#[derive(Debug, Clone)]
struct ManifestCol {
    name: String,
    /// Byte offset of the column's frame in the segment.
    offset: u64,
    /// Length of the frame, trailer included.
    len: u64,
    /// The frame's trailing fold checksum — cross-checked at open so a
    /// stale or swapped extent cannot impersonate a committed one.
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
        w.put(c.offset);
        w.put(c.len);
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
    // A column entry is at least its name length, extent and checksum.
    let ncols = r.count::<u32>(4 + 8 + 8 + 1)?;
    let mut cols = Vec::with_capacity(ncols);
    for _ in 0..ncols {
        cols.push(ManifestCol {
            name: r.str()?.to_owned(),
            offset: r.get()?,
            len: r.get()?,
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
// File naming + IO steps
// ---------------------------------------------------------------------------

fn manifest_name(version: u64) -> String {
    format!("manifest-{version:010}.xman")
}

fn segment_name(version: u64, replica: u32) -> String {
    format!("seg-v{version:010}-r{replica}.seg")
}

/// Parse `manifest-{v}.xman` back to `v`.
fn parse_manifest_name(name: &str) -> Option<u64> {
    let v = name.strip_prefix("manifest-")?.strip_suffix(".xman")?;
    v.parse().ok()
}

/// Parse `seg-v{v}-r{r}.seg` back to `v`.
fn parse_segment_version(name: &str) -> Option<u64> {
    let rest = name.strip_prefix("seg-v")?.strip_suffix(".seg")?;
    let (v, _) = rest.split_once("-r")?;
    v.parse().ok()
}

fn io_budget(fault: Option<&FaultState>) -> (u32, u64) {
    match fault {
        Some(f) => (f.plan().max_retries, f.plan().backoff_base_us),
        None => (DEFAULT_MAX_RETRIES, DEFAULT_BACKOFF_US),
    }
}

/// Run one IO step on `path` with bounded-backoff retry over real IO
/// errors; a step that keeps failing is a typed `Io` at `site`.
fn io_retry<T>(
    site: FaultSite,
    path: &Path,
    fault: Option<&FaultState>,
    step: impl FnMut(u32) -> std::io::Result<T>,
) -> Result<T, DurableError> {
    let (max_retries, backoff) = io_budget(fault);
    retry_with_backoff(max_retries, backoff, step)
        .map(|(v, _)| v)
        .map_err(|(e, attempts)| DurableError::Io {
            site,
            detail: format!("{}: {e} after {attempts} attempts", path.display()),
        })
}

/// One fault-plan check of `site` — a kill-point of the crash suite.
fn kill_point(fault: Option<&FaultState>, site: FaultSite, col: u32) -> Result<(), DurableError> {
    fault.map_or(Ok(()), |f| f.check_site(site, col))?;
    Ok(())
}

/// Persist `dir`'s entries (a created or renamed name); without this a
/// crash can forget the entry even though the data blocks survived.
fn sync_dir(dir: &Path) -> std::io::Result<()> {
    if cfg!(unix) {
        File::open(dir)?.sync_all()?;
    }
    Ok(())
}

/// Read `len` bytes at `offset` of the segment at `path`. The segment's
/// size is checked first, so a damaged extent never sizes an
/// allocation beyond the file.
fn read_extent(
    path: &Path,
    offset: u64,
    len: u64,
    fault: Option<&FaultState>,
) -> Result<Vec<u8>, DurableError> {
    io_retry(FaultSite::DurableChunkRead, path, fault, |_| {
        let mut f = File::open(path)?;
        let size = f.metadata()?.len();
        if offset.checked_add(len).is_none_or(|end| end > size) {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                format!("extent {offset}+{len} runs past the {size}-byte segment"),
            ));
        }
        f.seek(SeekFrom::Start(offset))?;
        let mut bytes = vec![0; len as usize];
        f.read_exact(&mut bytes)?;
        Ok(bytes)
    })
}

/// Write `bytes` to `dir/name` crash-consistently: temp file → fsync →
/// atomic rename → directory fsync. Two fault checks model the two
/// points a dying process can leave distinct on-disk states — before
/// the temp file is complete (a stray `.tmp`, ignored by recovery) and
/// before the rename (the final name never appears). Real IO errors
/// retry with the same bounded-backoff budget. The manifest is the one
/// file written this way.
fn write_atomic(
    dir: &Path,
    name: &str,
    bytes: &[u8],
    site: FaultSite,
    fault: Option<&FaultState>,
) -> Result<(), DurableError> {
    let tmp = dir.join(format!("{name}.tmp"));
    let fin = dir.join(name);

    // Kill-point 1: died before the temp write finished. A partial
    // `.tmp` may remain; recovery never reads `.tmp` files.
    kill_point(fault, site, 0)?;
    io_retry(site, &tmp, fault, |_| {
        let mut fh = File::create(&tmp)?;
        fh.write_all(bytes)?;
        fh.sync_all()
    })?;

    // Kill-point 2: died between the temp write and the commit rename.
    // The final name never appears; the previous version is untouched.
    kill_point(fault, site, 0)?;
    io_retry(site, &fin, fault, |_| {
        std::fs::rename(&tmp, &fin)?;
        sync_dir(dir)
    })
}

// ---------------------------------------------------------------------------
// Commit (checkpoint write path)
// ---------------------------------------------------------------------------

/// Largest committed (or orphaned) version present in `dir`, from both
/// manifest and segment names — a new commit must outnumber aborted
/// attempts too, so its segments never reuse an orphan's name.
fn newest_version_in_dir(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    let mut newest = 0;
    for e in entries.flatten() {
        let name = e.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(v) = parse_manifest_name(name).or_else(|| parse_segment_version(name)) {
            newest = newest.max(v);
        }
    }
    newest
}

/// Persist every column of `table` to `dir` as checkpoint version
/// `newest + 1`: one column frame at a time, encoded once and appended
/// to every replica's segment, then the segments and the directory
/// synced, the manifest last. Returns the [`DurableSource`] describing
/// the committed version and every column's verdict `(name, format,
/// ratio_pct)`. Called by [`Table::try_checkpoint_durable`].
///
/// Kill-points (site [`FaultSite::DurableChunkWrite`]): before each
/// extent write to each replica, once all extents are written but none
/// synced, and once the segments and directory are durable but no
/// manifest names them; then the manifest's two
/// ([`FaultSite::ManifestWrite`]).
pub(crate) fn commit_checkpoint(
    table: &Table,
    dir: &Path,
    opts: &DurableOptions,
    fault: Option<&FaultState>,
) -> Result<(Arc<DurableSource>, Verdicts), DurableError> {
    let site = FaultSite::DurableChunkWrite;
    std::fs::create_dir_all(dir).map_err(|e| DurableError::Io {
        site,
        detail: format!("create {}: {e}", dir.display()),
    })?;
    let replicas = opts.replicas.clamp(1, MAX_REPLICAS);
    let version = newest_version_in_dir(dir) + 1;
    let paths: Vec<PathBuf> = (0..replicas)
        .map(|r| dir.join(segment_name(version, r)))
        .collect();
    let mut segments = Vec::with_capacity(paths.len());
    for path in &paths {
        segments.push(io_retry(site, path, fault, |_| File::create(path))?);
    }
    let mut cols = Vec::with_capacity(table.columns.len());
    let mut verdicts = Vec::with_capacity(table.columns.len());
    let mut offset = 0u64;
    for (i, sc) in table.columns.iter().enumerate() {
        let (buf, (format, ratio)) = encode_col_file(i as u32, sc, fault);
        verdicts.push((sc.field.name.clone(), format, ratio));
        for (seg, path) in segments.iter_mut().zip(&paths) {
            kill_point(fault, site, i as u32)?;
            io_retry(site, path, fault, |_| {
                seg.seek(SeekFrom::Start(offset))?;
                seg.write_all(&buf)
            })?;
        }
        cols.push(ManifestCol {
            name: sc.field.name.clone(),
            offset,
            len: buf.len() as u64,
            checksum: buf.last().copied().unwrap_or(0),
        });
        offset += buf.len() as u64;
    }
    // Every extent is written, none is durable yet.
    kill_point(fault, site, 0)?;
    for (seg, path) in segments.iter().zip(&paths) {
        io_retry(site, path, fault, |_| seg.sync_all())?;
    }
    drop(segments);
    io_retry(site, dir, fault, |_| sync_dir(dir))?;
    // The segments are durable; no manifest names them yet.
    kill_point(fault, site, 0)?;
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
    Ok((
        Arc::new(DurableSource::new(dir.to_path_buf(), manifest)),
        verdicts,
    ))
}

/// Best-effort cleanup after a successful commit: older versions'
/// manifests and every segment but the committed version's (older
/// ones, and orphans of crashed attempts), plus `.tmp` orphans.
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
            || parse_segment_version(name).is_some_and(|v| v != keep_version);
        if stale {
            let _ = std::fs::remove_file(e.path());
        }
    }
}

// ---------------------------------------------------------------------------
// Open (recovery path)
// ---------------------------------------------------------------------------

/// Write a good copy of an extent over a bad one, in place, then sync:
/// a whole segment's size never changes, so a crash mid-heal leaves
/// this extent no worse than it was and every other extent untouched.
/// A lost segment is recreated one extent at a time (`open` reads every
/// column, so it heals them all). Best-effort: `false` leaves the bad
/// copy for the next heal to retry.
fn heal_extent(
    path: &Path,
    offset: u64,
    bytes: &[u8],
    col: u32,
    fault: Option<&FaultState>,
) -> bool {
    let site = FaultSite::DurableChunkWrite;
    kill_point(fault, site, col).is_ok()
        && io_retry(site, path, fault, |_| {
            let mut f = OpenOptions::new()
                .write(true)
                .create(true)
                .truncate(false)
                .open(path)?;
            f.seek(SeekFrom::Start(offset))?;
            f.write_all(bytes)?;
            f.sync_data()
        })
        .is_ok()
}

/// Read column `col` of manifest `m` from the first replica whose
/// extent is readable, matches the manifest's trailer byte, parses,
/// identifies as this column and passes `accept`. Every copy that failed
/// before it is then healed from the good bytes. Returns `accept`'s
/// value and how many copies were healed, or a typed `Io` once *all*
/// replicas have failed.
fn read_replicas<T>(
    dir: &Path,
    m: &Manifest,
    col: u32,
    fault: Option<&FaultState>,
    accept: impl Fn(ColFile) -> Result<T, String>,
) -> Result<(T, u64), DurableError> {
    let meta = &m.cols[col as usize];
    let site = FaultSite::DurableChunkRead;
    let mut bad: Vec<PathBuf> = Vec::new();
    let mut last_err = String::new();
    for r in 0..m.replicas {
        let path = dir.join(segment_name(m.version, r));
        // A read fault that exhausts its retry budget marks this copy
        // bad and falls over to the next replica — replication is the
        // second line of defense after retry.
        let parsed = kill_point(fault, site, col)
            .and_then(|()| read_extent(&path, meta.offset, meta.len, fault))
            .map_err(|e| e.to_string())
            .and_then(|bytes| {
                if bytes.last() != Some(&meta.checksum) {
                    return Err("extent checksum differs from manifest".to_owned());
                }
                let cf = decode_col_file(&bytes)?;
                if cf.col != col || cf.rows != m.frag_rows {
                    return Err(format!(
                        "extent identifies as col {} × {} rows, manifest says col {col} × {}",
                        cf.col, cf.rows, m.frag_rows
                    ));
                }
                Ok((accept(cf)?, bytes))
            });
        match parsed {
            Ok((v, bytes)) => {
                let healed = bad
                    .iter()
                    .filter(|p| heal_extent(p, meta.offset, &bytes, col, fault))
                    .count();
                return Ok((v, healed as u64));
            }
            Err(e) => {
                last_err = format!("{}: {e}", path.display());
                bad.push(path);
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

/// Rebuild a [`StoredColumn`] named `name` from a decoded column frame:
/// the fragment is the stored raw values or the dense decode of the
/// stored chunks, which are then dropped (a chunk that fails its
/// checksum fails the copy), the
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
    let data = match cf.stored {
        Stored::Raw(data) => data,
        Stored::Chunks(c) => c.decode()?,
    };
    let sc = StoredColumn::new(
        name.to_owned(),
        data,
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
        kill_point(fault, FaultSite::ManifestRead, 0)?;
        let path = dir.join(manifest_name(v));
        let bytes = io_retry(FaultSite::ManifestRead, &path, fault, |_| {
            std::fs::read(&path)
        })?;
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
// DurableSource
// ---------------------------------------------------------------------------

/// Handle to the committed checkpoint backing an open table
/// (`Table::durable_source()`): where its segments are and how many
/// bad copies `open` healed.
#[derive(Debug)]
pub struct DurableSource {
    dir: PathBuf,
    manifest: Manifest,
    heals: AtomicU64,
}

impl DurableSource {
    fn new(dir: PathBuf, manifest: Manifest) -> Self {
        DurableSource {
            dir,
            manifest,
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

    /// Column `col`'s extent in replica `replica`: the segment's path,
    /// the frame's byte offset and its length. For tests that damage
    /// one column's copy on disk.
    #[doc(hidden)]
    pub fn extent(&self, col: usize, replica: u32) -> Option<(PathBuf, u64, u64)> {
        let meta = self.manifest.cols.get(col)?;
        (replica < self.manifest.replicas).then(|| {
            let path = self.dir.join(segment_name(self.manifest.version, replica));
            (path, meta.offset, meta.len)
        })
    }

    /// Replica-to-replica rewrites `open` performed: one per bad copy
    /// of a column it healed from a good one.
    pub fn heals(&self) -> u64 {
        self.heals.load(Ordering::SeqCst)
    }
}
