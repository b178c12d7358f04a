//! Compressed column fragments: the storage half of lightweight
//! compression (paper §4.3 / §5).
//!
//! Chunks are the durable encoding: a durable checkpoint runs a
//! per-column *format chooser* that bounds each format's size from the
//! fragment's sort order and a byte histogram, encodes only the formats
//! that can win, and writes the fragment as a sequence of compressed
//! chunks — PFOR or PFOR-DELTA — each carrying a self-describing
//! [`ChunkHeader`] plus exception blocks. Columns where compression
//! would not pay (savings below 10%) are written raw. `Table::open`
//! decodes the chunks back into the fragment ([`CompressedColumn::decode`])
//! and keeps none: queries read only the fragment (DESIGN.md §11).
//!
//! Dictionary compression is not a chunk format: where a dictionary
//! would beat every chunk format ([`dictionary_wins`]), `Table::checkpoint`
//! turns the column into an enumeration type ([`crate::enumcol`]) and
//! its codes go through this chooser like any other integer column.

use crate::frame::{fold_checksum, fold_values, Reader, Writer};
use crate::table::ColumnStats;
use x100_vector::compress as k;
use x100_vector::{ScalarType, Vector};

/// Rows per compressed chunk. A multiple of [`k::DELTA_SYNC`], so every
/// chunk starts at a sync point.
pub const CHUNK_ROWS: usize = 65536;

/// Encoded size of a [`ChunkHeader`].
pub const HEADER_BYTES: usize = 32;

const HEADER_MAGIC: u8 = 0xCB;
const COLUMN_MAGIC: &[u8; 4] = b"XCPC";
const COLUMN_VERSION: u8 = 3;

/// Physical format of one compressed chunk (or of a whole column, as
/// the chooser's verdict). The discriminant is the on-disk tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChunkFormat {
    /// Uncompressed — the chooser's fallback when compression won't pay.
    Raw,
    /// Patched frame-of-reference.
    Pfor,
    /// PFOR over deltas of a non-decreasing column.
    PforDelta,
}

impl ChunkFormat {
    fn from_tag(tag: u8) -> Result<ChunkFormat, String> {
        use ChunkFormat::*;
        let known = [Raw, Pfor, PforDelta].get(tag as usize).copied();
        known.ok_or_else(|| format!("unknown chunk format tag {tag}"))
    }

    /// Short lowercase name (bench JSON, stats display).
    pub fn name(self) -> &'static str {
        match self {
            ChunkFormat::Raw => "raw",
            ChunkFormat::Pfor => "pfor",
            ChunkFormat::PforDelta => "pfordelta",
        }
    }
}

/// Self-describing header written in front of every compressed chunk.
///
/// The header is what makes a chunk readable without consulting the
/// catalog: format tag, row count, frame lane, frame base, decimal
/// scale, payload length and the sizes of the exception / sync blocks
/// that follow the payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkHeader {
    /// Chunk format tag.
    pub format: ChunkFormat,
    /// Frame lane in bits.
    pub lane: u8,
    /// 8-bit fold of the payload + exception + sync bytes, written when
    /// the chunk is built and re-checked on every compressed read. A
    /// mismatch means the body was torn after the header was written.
    pub checksum: u8,
    /// Rows in this chunk.
    pub rows: u32,
    /// Decimal scale for f64 frames (0 = integer frames).
    pub scale: u32,
    /// Frame base (chunk minimum / minimum delta).
    pub base: u64,
    /// Packed payload length in bytes.
    pub payload_bytes: u32,
    /// Entries in the exception block.
    pub exceptions: u32,
    /// Entries in the sync-carry block (PFOR-DELTA only).
    pub sync_points: u32,
}

impl ChunkHeader {
    /// Serialize to the on-chunk byte layout ([`HEADER_BYTES`] long).
    fn put(&self, w: &mut Writer) {
        w.put(HEADER_MAGIC);
        w.put(self.format as u8);
        w.put(self.lane);
        w.put(self.checksum);
        w.put(self.rows);
        w.put(self.scale);
        w.put(self.base);
        w.put(self.payload_bytes);
        w.put(self.exceptions);
        w.put(self.sync_points);
    }

    /// Parse the on-chunk byte layout back.
    fn read(r: &mut Reader<'_>) -> Result<ChunkHeader, String> {
        let magic = r.get::<u8>()?;
        if magic != HEADER_MAGIC {
            return Err(format!("bad chunk magic 0x{magic:02x}"));
        }
        Ok(ChunkHeader {
            format: ChunkFormat::from_tag(r.get()?)?,
            lane: r.get()?,
            checksum: r.get()?,
            rows: r.get()?,
            scale: r.get()?,
            base: r.get()?,
            payload_bytes: r.get()?,
            exceptions: r.get()?,
            sync_points: r.get()?,
        })
    }

    /// Check every field a decode kernel later trusts, for a chunk of
    /// `rows` rows inside a column of format `column`: the kernels index
    /// payload, patch and sync lists from these numbers without looking
    /// back. Payload *contents* stay guarded by `checksum`.
    fn validate(&self, column: ChunkFormat, rows: u64) -> Result<(), String> {
        use ChunkFormat::*;
        let format_ok = self.format == column || (column == PforDelta && self.format == Pfor);
        let syncs = match self.format {
            PforDelta => rows.div_ceil(k::DELTA_SYNC as u64),
            _ => 0,
        };
        if format_ok
            && matches!(self.lane, 0 | 8 | 16 | 32 | 64)
            && self.sync_points as u64 == syncs
            && self.rows as u64 == rows
            && self.payload_bytes as u64 == rows * self.lane as u64 / 8
            && self.exceptions as u64 <= rows
        {
            Ok(())
        } else {
            Err(format!(
                "inconsistent header for a {rows}-row {} chunk: {self:?}",
                column.name()
            ))
        }
    }
}

/// Compressed payload of one chunk.
#[derive(Debug, Clone)]
pub enum ChunkBody {
    /// Patched frame-of-reference frames + exception block.
    Pfor(k::PforChunk),
    /// Delta frames + sync carries + exception block.
    PforDelta(k::PforDeltaChunk),
}

/// One compressed chunk: header + typed body.
#[derive(Debug, Clone)]
pub struct CompressedChunk {
    /// The self-describing header.
    pub header: ChunkHeader,
    /// The compressed payload.
    pub body: ChunkBody,
}

impl CompressedChunk {
    /// Total compressed footprint including the header.
    pub fn byte_size(&self) -> usize {
        HEADER_BYTES
            + match &self.body {
                ChunkBody::Pfor(c) => c.byte_size(),
                ChunkBody::PforDelta(c) => c.byte_size(),
            }
    }
}

/// One column fragment rewritten as compressed chunks.
#[derive(Debug, Clone)]
pub struct CompressedColumn {
    format: ChunkFormat,
    physical: ScalarType,
    rows: usize,
    chunks: Vec<CompressedChunk>,
    raw_bytes: u64,
    compressed_bytes: u64,
}

impl CompressedColumn {
    /// The chooser's format verdict for this column.
    pub fn format(&self) -> ChunkFormat {
        self.format
    }

    /// The physical scalar type the chunks decode to.
    pub fn physical_type(&self) -> ScalarType {
        self.physical
    }

    /// Rows covered (the whole fragment at checkpoint time).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of chunks.
    pub fn num_chunks(&self) -> usize {
        self.chunks.len()
    }

    /// Uncompressed fragment size in bytes.
    pub fn raw_bytes(&self) -> u64 {
        self.raw_bytes
    }

    /// Compressed size in bytes (headers + payloads).
    pub fn compressed_bytes(&self) -> u64 {
        self.compressed_bytes
    }

    /// Compressed size as a percentage of raw (lower = better).
    pub fn ratio_pct(&self) -> u64 {
        (self.compressed_bytes * 100)
            .checked_div(self.raw_bytes)
            .unwrap_or(100)
    }

    /// Finish a column from its parts: the compressed footprint is
    /// derived, never stored.
    fn assemble(
        format: ChunkFormat,
        physical: ScalarType,
        rows: usize,
        raw_bytes: u64,
        chunks: Vec<CompressedChunk>,
    ) -> CompressedColumn {
        let compressed_bytes = chunks.iter().map(|c| c.byte_size() as u64).sum();
        CompressedColumn {
            format,
            physical,
            rows,
            chunks,
            raw_bytes,
            compressed_bytes,
        }
    }

    /// Serialize the whole column as a sealed `XCPC` frame (see
    /// [`CompressedColumn::put`] for the body).
    pub fn to_bytes(&self) -> Vec<u8> {
        let buf = Vec::with_capacity(self.compressed_bytes as usize + 64);
        let mut w = Writer::new(buf, COLUMN_MAGIC, COLUMN_VERSION);
        self.put(&mut w);
        w.seal()
    }

    /// Rebuild a column serialized by [`CompressedColumn::to_bytes`].
    pub fn from_bytes(b: &[u8]) -> Result<CompressedColumn, String> {
        let mut r = Reader::open(b, COLUMN_MAGIC, COLUMN_VERSION)?;
        let col = CompressedColumn::read(&mut r)?;
        r.finish()?;
        Ok(col)
    }

    /// Write the column as one self-describing section: a preamble
    /// (format, physical type, rows, raw size) followed by every chunk
    /// as header + body blocks in the order the chunk checksum folds
    /// them. Durable column frames and spill blocks embed exactly this.
    /// The per-chunk checksums travel inside the headers, so a byte torn
    /// in a body *before* it was serialized is still caught on the first
    /// decode touch after [`CompressedColumn::read`].
    pub fn put(&self, w: &mut Writer) {
        w.put(self.format as u8);
        w.put_type(self.physical);
        w.put(self.rows as u64);
        w.put(self.raw_bytes);
        w.put(self.chunks.len() as u32);
        for c in &self.chunks {
            c.header.put(w);
            match &c.body {
                ChunkBody::Pfor(p) => {
                    w.put_slice(&p.payload);
                    w.put_slice(&p.exc_pos);
                    w.put_slice(&p.exc_frames);
                }
                ChunkBody::PforDelta(p) => {
                    w.put_slice(&p.payload);
                    w.put_slice(&p.sync);
                    w.put_slice(&p.exc_pos);
                    w.put_slice(&p.exc_frames);
                }
            }
        }
    }

    /// Parse a section written by [`CompressedColumn::put`], validating
    /// every preamble and header field a decode kernel later trusts
    /// (see [`ChunkHeader::validate`]) — a column this returns can be
    /// decoded without panicking whatever the input bytes were. Payload
    /// corruption inside a chunk body is deferred to the per-chunk
    /// checksum on the first decode touch.
    pub fn read(r: &mut Reader<'_>) -> Result<CompressedColumn, String> {
        let format = ChunkFormat::from_tag(r.get()?)?;
        let physical = r.get_type()?;
        let rows = r.get::<u64>()?;
        let raw_bytes = r.get::<u64>()?;
        let n_chunks = r.count::<u32>(HEADER_BYTES)?;
        let typed = match format {
            ChunkFormat::Raw => false,
            ChunkFormat::Pfor => physical.is_numeric(),
            ChunkFormat::PforDelta => physical.is_integer(),
        };
        if !typed || n_chunks as u64 != rows.div_ceil(CHUNK_ROWS as u64) {
            return Err(format!(
                "inconsistent column preamble: {} over {physical}, {rows} rows in {n_chunks} \
                 chunks",
                format.name(),
            ));
        }
        let mut chunks = Vec::with_capacity(n_chunks);
        let mut left = rows;
        for _ in 0..n_chunks {
            let header = ChunkHeader::read(r)?;
            header.validate(format, left.min(CHUNK_ROWS as u64))?;
            left -= header.rows as u64;
            let payload = r.take(header.payload_bytes as usize)?.to_vec();
            let sync = r.slice(header.sync_points as usize)?;
            let exc_pos: Vec<u32> = r.slice(header.exceptions as usize)?;
            let exc_frames = r.slice(header.exceptions as usize)?;
            if !exc_pos.windows(2).all(|w| w[0] < w[1])
                || exc_pos.last().is_some_and(|&p| p >= header.rows)
            {
                return Err("exception positions not ascending within the chunk".into());
            }
            let lane = header.lane as u32;
            let base = header.base;
            let body = match header.format {
                ChunkFormat::Pfor => ChunkBody::Pfor(k::PforChunk {
                    lane,
                    base,
                    scale: header.scale,
                    payload,
                    exc_pos,
                    exc_frames,
                }),
                ChunkFormat::PforDelta => ChunkBody::PforDelta(k::PforDeltaChunk {
                    lane,
                    base,
                    payload,
                    sync,
                    exc_pos,
                    exc_frames,
                }),
                ChunkFormat::Raw => return Err("raw tag inside compressed chunk".into()),
            };
            chunks.push(CompressedChunk { header, body });
        }
        Ok(CompressedColumn::assemble(
            format,
            physical,
            rows as usize,
            raw_bytes,
            chunks,
        ))
    }

    /// Decompress the whole column, chunk by chunk, each chunk's
    /// checksum verified before its body is trusted. Fails (typed
    /// upstream as a bad copy) when a chunk's stored checksum no longer
    /// matches its body. `Table::open` and the spill reader are the
    /// decoders; no query reads chunks.
    pub fn decode(&self) -> Result<Vector, String> {
        let mut out = Vector::zeroed(self.physical, self.rows);
        let mut scratch = Vec::new();
        for (ci, chunk) in self.chunks.iter().enumerate() {
            self.verify_chunk(ci)?;
            let at = ci * CHUNK_ROWS;
            let n = chunk.header.rows as usize;
            match &chunk.body {
                ChunkBody::Pfor(c) => {
                    macro_rules! arm {
                        ($($variant:ident => $dec:path),+ $(,)?) => {
                            match &mut out {
                                $(Vector::$variant(dst) => $dec(&mut dst[at..at + n], c),)+
                                other => panic!("pfor decode into {:?}", other.scalar_type()),
                            }
                        };
                    }
                    arm! {
                        I8 => k::decompress_pfor_i8_col,
                        I16 => k::decompress_pfor_i16_col,
                        I32 => k::decompress_pfor_i32_col,
                        I64 => k::decompress_pfor_i64_col,
                        U8 => k::decompress_pfor_u8_col,
                        U16 => k::decompress_pfor_u16_col,
                        U32 => k::decompress_pfor_u32_col,
                        U64 => k::decompress_pfor_u64_col,
                        F64 => k::decompress_pfor_f64_col,
                    }
                }
                ChunkBody::PforDelta(c) => {
                    macro_rules! arm {
                        ($($variant:ident => $dec:path),+ $(,)?) => {
                            match &mut out {
                                $(Vector::$variant(dst) => $dec(&mut dst[at..at + n], c, &mut scratch),)+
                                other => panic!("pfordelta decode into {:?}", other.scalar_type()),
                            }
                        };
                    }
                    arm! {
                        I8 => k::decompress_pfordelta_i8_col,
                        I16 => k::decompress_pfordelta_i16_col,
                        I32 => k::decompress_pfordelta_i32_col,
                        I64 => k::decompress_pfordelta_i64_col,
                        U8 => k::decompress_pfordelta_u8_col,
                        U16 => k::decompress_pfordelta_u16_col,
                        U32 => k::decompress_pfordelta_u32_col,
                        U64 => k::decompress_pfordelta_u64_col,
                    }
                }
            }
        }
        Ok(out)
    }

    /// Recompute chunk `ci`'s body checksum and compare with the header
    /// copy. A mismatch means the chunk bytes were torn after the
    /// header was written.
    fn verify_chunk(&self, ci: usize) -> Result<(), String> {
        let chunk = &self.chunks[ci];
        let got = chunk_checksum(&chunk.body);
        if got != chunk.header.checksum {
            return Err(format!(
                "chunk {ci} checksum mismatch: header 0x{:02x}, body 0x{got:02x} (torn write)",
                chunk.header.checksum
            ));
        }
        Ok(())
    }

    /// Verify every chunk's body checksum — a durable checkpoint runs
    /// this over the chunks it just encoded before it writes them, so a
    /// chunk torn between encode and write is stored as raw values
    /// instead of becoming the only durable copy.
    pub fn verify_all(&self) -> Result<(), String> {
        for ci in 0..self.chunks.len() {
            self.verify_chunk(ci)?;
        }
        Ok(())
    }

    /// Flip one payload byte of chunk `ci` *without* touching the
    /// header checksum — a torn write: the write "succeeded", the bytes
    /// are wrong, and only checksum verification can tell. Fault
    /// injection (`FaultPlan::tear`) and tests only. Returns `false`
    /// when the chunk has no payload byte at `at` (e.g. a constant
    /// lane-0 chunk).
    pub fn corrupt_payload_byte(&mut self, ci: usize, at: usize) -> bool {
        let Some(chunk) = self.chunks.get_mut(ci) else {
            return false;
        };
        let payload = match &mut chunk.body {
            ChunkBody::Pfor(c) => &mut c.payload,
            ChunkBody::PforDelta(c) => &mut c.payload,
        };
        match payload.get_mut(at) {
            Some(b) => {
                *b ^= 0x40;
                true
            }
            None => false,
        }
    }
}

fn pfor_checksum(c: &k::PforChunk) -> u8 {
    let a = fold_values(fold_checksum(&c.payload), &c.exc_pos);
    fold_values(a, &c.exc_frames)
}

fn pfordelta_checksum(c: &k::PforDeltaChunk) -> u8 {
    let a = fold_values(fold_checksum(&c.payload), &c.exc_pos);
    fold_values(fold_values(a, &c.exc_frames), &c.sync)
}

/// The checksum stored in a chunk's header: an 8-bit fold over every
/// body block the decoder will touch.
fn chunk_checksum(body: &ChunkBody) -> u8 {
    match body {
        ChunkBody::Pfor(c) => pfor_checksum(c),
        ChunkBody::PforDelta(c) => pfordelta_checksum(c),
    }
}

/// Compress `data` in a specific format, or `None` when the format does
/// not apply to this column (wrong type, unsorted for PFOR-DELTA). `Raw`
/// always yields `None`.
pub fn compress_column_as(data: &Vector, format: ChunkFormat) -> Option<CompressedColumn> {
    if data.is_empty() {
        return None;
    }
    let chunks = match format {
        ChunkFormat::Raw => return None,
        ChunkFormat::Pfor => pfor_chunks(data)?,
        ChunkFormat::PforDelta => pfordelta_chunks(data)?,
    };
    Some(CompressedColumn::assemble(
        format,
        data.scalar_type(),
        data.len(),
        data.byte_size() as u64,
        chunks,
    ))
}

/// The per-column format chooser: the smallest applicable format, unless
/// even it saves less than 10% of the raw bytes — then the column stays
/// raw (`None`).
///
/// Bound, then encode: every candidate first gets an exact lower bound
/// on its size, computed without encoding ([`size_floor`]), and is
/// encoded only when that bound could pass the 10% rule *and* beat the
/// best format encoded so far. A skipped format's real size is at least
/// its bound, so it could not have won: the verdict — format and bytes —
/// is the full sweep's by construction, candidates tried in the same
/// order and the earlier kept on a tie. `stats` are the fragment's own:
/// PFOR-DELTA is a candidate only when they say it is non-decreasing.
pub fn choose_and_compress(data: &Vector, stats: &ColumnStats) -> Option<CompressedColumn> {
    use ChunkFormat::{Pfor, PforDelta};
    let candidates: &[ChunkFormat] = match data {
        _ if data.is_empty() => return None,
        Vector::Bool(_) | Vector::Str(_) => return None,
        Vector::F64(_) => &[Pfor],
        _ if stats.sorted => &[Pfor, PforDelta],
        _ => &[Pfor],
    };
    let raw = data.byte_size() as u64;
    let pays = |bytes: u64| bytes * 10 <= raw * 9;
    let mut best: Option<CompressedColumn> = None;
    for &format in candidates {
        let floor = size_floor(data, format);
        if !pays(floor) || best.as_ref().is_some_and(|b| b.compressed_bytes <= floor) {
            continue;
        }
        if let Some(c) = compress_column_as(data, format) {
            if best
                .as_ref()
                .is_none_or(|b| c.compressed_bytes < b.compressed_bytes)
            {
                best = Some(c);
            }
        }
    }
    best.filter(|b| pays(b.compressed_bytes))
}

/// A lower bound on `compress_column_as(data, format)`'s
/// `compressed_bytes`. Every chunk pays its header; beyond that, PFOR
/// on 1-byte data is priced exactly from a per-chunk 256-bin histogram:
/// lane 0 costs an exception per value off the mode, any wider lane at
/// least a byte per value.
fn size_floor(data: &Vector, format: ChunkFormat) -> u64 {
    match (format, data) {
        (ChunkFormat::Pfor, Vector::U8(v)) => one_byte_pfor_floor(v, |&x| x),
        (ChunkFormat::Pfor, Vector::I8(v)) => one_byte_pfor_floor(v, |&x| x as u8),
        _ => (data.len().div_ceil(CHUNK_ROWS) * HEADER_BYTES) as u64,
    }
}

/// PFOR's exact size over a 1-byte column (`key` maps a value to its
/// histogram bin): per chunk, the header plus the cheaper of lane 0
/// (every value off the mode an exception) and lane 8 (a byte each;
/// wider lanes cost more).
fn one_byte_pfor_floor<T>(v: &[T], key: impl Fn(&T) -> u8) -> u64 {
    v.chunks(CHUNK_ROWS)
        .map(|c| {
            let mut hist = [0usize; 256];
            c.iter().for_each(|x| hist[key(x) as usize] += 1);
            let mode = hist.iter().copied().max().unwrap_or(0);
            (HEADER_BYTES + ((c.len() - mode) * k::EXC_COST).min(c.len())) as u64
        })
        .sum()
}

fn pfor_header(format: ChunkFormat, rows: usize, c: &k::PforChunk) -> ChunkHeader {
    ChunkHeader {
        format,
        lane: c.lane as u8,
        checksum: pfor_checksum(c),
        rows: rows as u32,
        scale: c.scale,
        base: c.base,
        payload_bytes: c.payload.len() as u32,
        exceptions: c.exc_pos.len() as u32,
        sync_points: 0,
    }
}

fn pfor_chunks(data: &Vector) -> Option<Vec<CompressedChunk>> {
    macro_rules! chunked {
        ($v:expr, $comp:path) => {
            $v.chunks(CHUNK_ROWS)
                .map(|s| {
                    let c = $comp(s);
                    CompressedChunk {
                        header: pfor_header(ChunkFormat::Pfor, s.len(), &c),
                        body: ChunkBody::Pfor(c),
                    }
                })
                .collect()
        };
    }
    Some(match data {
        Vector::I8(v) => chunked!(v, k::compress_pfor_i8_col),
        Vector::I16(v) => chunked!(v, k::compress_pfor_i16_col),
        Vector::I32(v) => chunked!(v, k::compress_pfor_i32_col),
        Vector::I64(v) => chunked!(v, k::compress_pfor_i64_col),
        Vector::U8(v) => chunked!(v, k::compress_pfor_u8_col),
        Vector::U16(v) => chunked!(v, k::compress_pfor_u16_col),
        Vector::U32(v) => chunked!(v, k::compress_pfor_u32_col),
        Vector::U64(v) => chunked!(v, k::compress_pfor_u64_col),
        Vector::F64(v) => chunked!(v, k::compress_pfor_f64_col),
        Vector::Str(_) | Vector::Bool(_) => return None,
    })
}

fn pfordelta_chunks(data: &Vector) -> Option<Vec<CompressedChunk>> {
    macro_rules! chunked {
        ($v:expr, $comp:path, $pfor:path) => {
            $v.chunks(CHUNK_ROWS)
                .map(|s| match $comp(s) {
                    // A chunk that is not non-decreasing falls back to
                    // plain PFOR; its header self-describes the switch.
                    None => {
                        let c = $pfor(s);
                        CompressedChunk {
                            header: pfor_header(ChunkFormat::Pfor, s.len(), &c),
                            body: ChunkBody::Pfor(c),
                        }
                    }
                    Some(c) => CompressedChunk {
                        header: ChunkHeader {
                            format: ChunkFormat::PforDelta,
                            lane: c.lane as u8,
                            checksum: pfordelta_checksum(&c),
                            rows: s.len() as u32,
                            scale: 0,
                            base: c.base,
                            payload_bytes: c.payload.len() as u32,
                            exceptions: c.exc_pos.len() as u32,
                            sync_points: c.sync.len() as u32,
                        },
                        body: ChunkBody::PforDelta(c),
                    },
                })
                .collect()
        };
    }
    Some(match data {
        Vector::I8(v) => chunked!(v, k::compress_pfordelta_i8_col, k::compress_pfor_i8_col),
        Vector::I16(v) => chunked!(v, k::compress_pfordelta_i16_col, k::compress_pfor_i16_col),
        Vector::I32(v) => chunked!(v, k::compress_pfordelta_i32_col, k::compress_pfor_i32_col),
        Vector::I64(v) => chunked!(v, k::compress_pfordelta_i64_col, k::compress_pfor_i64_col),
        Vector::U8(v) => chunked!(v, k::compress_pfordelta_u8_col, k::compress_pfor_u8_col),
        Vector::U16(v) => chunked!(v, k::compress_pfordelta_u16_col, k::compress_pfor_u16_col),
        Vector::U32(v) => chunked!(v, k::compress_pfordelta_u32_col, k::compress_pfor_u32_col),
        Vector::U64(v) => chunked!(v, k::compress_pfordelta_u64_col, k::compress_pfor_u64_col),
        Vector::F64(_) | Vector::Str(_) | Vector::Bool(_) => return None,
    })
}

/// Cardinality cap of the dictionary candidate on numeric columns:
/// beyond this the dictionary itself stops paying.
const DICT_NUMERIC_CAP: usize = 4096;

/// Cardinality cap of the dictionary candidate on string columns
/// (2-byte codes).
const DICT_STR_CAP: usize = 65536;

/// Rows in the dictionary candidate's strided sample: enough that a
/// numeric column well over the cap shows more than the cap in the
/// sample.
const DICT_SAMPLE_ROWS: usize = 2 * DICT_NUMERIC_CAP;

/// The chooser's dictionary candidate, priced against raw: the bytes
/// dictionary codes would store `data` in — an `i64`, `f64` or `str`
/// fragment — when that saves the 10% every format must, `None`
/// otherwise. The candidate is priced as a chunk format: a header per
/// [`CHUNK_ROWS`] rows, one code per row (one byte up to 256 distinct
/// values, two beyond) and the dictionary itself.
///
/// Bound, then price: the distinct values of a strided sample are a
/// subset of the column's, so more than the cap refuses, more than 256
/// means 2-byte codes, and the dictionary is at least the sample's. The
/// whole column's distinct values are counted only when that bound
/// could still pay. `Table::checkpoint` runs the chunk formats' sweep
/// only for a column this prices.
pub fn dictionary_bytes(data: &Vector) -> Option<u64> {
    if data.is_empty() {
        return None;
    }
    let raw = data.byte_size() as u64;
    let price = |(distinct, dict_bytes): (usize, usize)| {
        let headers = data.len().div_ceil(CHUNK_ROWS) * HEADER_BYTES;
        let codes = data.len() * if distinct <= 256 { 1 } else { 2 };
        Some((headers + codes + dict_bytes) as u64).filter(|b| b * 10 <= raw * 9)
    };
    let step = data.len().div_ceil(DICT_SAMPLE_ROWS);
    price(dictionary_of(data, step)?)?;
    price(dictionary_of(data, 1)?)
}

/// Whether a dictionary of `dict_bytes` ([`dictionary_bytes`]) stores a
/// column in fewer bytes than `best`, the chooser's verdict for it
/// (`None` = raw). `Table::checkpoint` turns a column this answers
/// `true` for into an enumeration type.
pub fn dictionary_beats(dict_bytes: u64, best: Option<&CompressedColumn>) -> bool {
    best.is_none_or(|b| dict_bytes < b.compressed_bytes)
}

/// Whether dictionary codes would store `data` in fewer bytes than
/// `best` while saving the 10% every format must: [`dictionary_bytes`]
/// judged by [`dictionary_beats`].
pub fn dictionary_wins(data: &Vector, best: Option<&CompressedColumn>) -> bool {
    dictionary_bytes(data).is_some_and(|d| dictionary_beats(d, best))
}

/// The number of distinct values in every `step`-th row of `data` and
/// the bytes of their dictionary, or `None` when they exceed the cap
/// for the column's type or the type has no dictionary candidate. A
/// numeric dictionary is one fixed-width value per entry, so only
/// strings are collected; floats are told apart by their bits.
fn dictionary_of(data: &Vector, step: usize) -> Option<(usize, usize)> {
    let numeric = |n: usize| (n, n * data.scalar_type().width());
    match data {
        Vector::I64(v) => distinct_count(v.iter().step_by(step).map(|&x| x as u64)).map(numeric),
        Vector::F64(v) => distinct_count(v.iter().step_by(step).map(|x| x.to_bits())).map(numeric),
        Vector::Str(v) => {
            let mut dict: Vec<&str> = v.iter().step_by(step).collect();
            dict.sort_unstable();
            dict.dedup();
            (dict.len() <= DICT_STR_CAP).then(|| {
                (
                    dict.len(),
                    Vector::Str(dict.into_iter().collect()).byte_size(),
                )
            })
        }
        _ => None,
    }
}

/// How many distinct values `keys` hold, or `None` past
/// [`DICT_NUMERIC_CAP`]: an open-addressing set of them, left as soon as
/// it passes the cap, so refusing a column of mostly distinct numbers
/// (`l_extendedprice`) costs a few thousand probes.
fn distinct_count(keys: impl Iterator<Item = u64>) -> Option<usize> {
    let mask = (4 * DICT_NUMERIC_CAP).next_power_of_two() - 1;
    let mut slots = vec![0u64; mask + 1];
    let (mut zero, mut n) = (false, 0);
    for k in keys {
        if k == 0 {
            n += usize::from(!zero);
            zero = true;
        } else {
            let mut i = (k.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40) as usize & mask;
            while slots[i] != k {
                if slots[i] == 0 {
                    slots[i] = k;
                    n += 1;
                    break;
                }
                i = (i + 1) & mask;
            }
        }
        if n > DICT_NUMERIC_CAP {
            return None;
        }
    }
    Some(n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use x100_vector::StrVec;

    fn roundtrip(data: &Vector, format: ChunkFormat) -> CompressedColumn {
        let col = compress_column_as(data, format).expect("format applies");
        let got = col.decode().expect("checksums verify");
        assert_eq!(&got, data);
        // The stream a durable frame embeds parses back to the same.
        let back = CompressedColumn::from_bytes(&col.to_bytes()).expect("parses");
        assert_eq!(&back.decode().expect("checksums verify"), data);
        col
    }

    #[test]
    fn pfor_column_roundtrip_multi_chunk() {
        let v: Vec<i64> = (0..150_000).map(|i| 50 + (i * 7) % 200).collect();
        let col = roundtrip(&Vector::I64(v), ChunkFormat::Pfor);
        assert_eq!(col.num_chunks(), 3);
        assert!(col.ratio_pct() < 20, "8-byte ints in a 1-byte range");
    }

    #[test]
    fn pfor_f64_column_roundtrip() {
        let v: Vec<f64> = (0..80_000).map(|i| (i % 5000) as f64 / 100.0).collect();
        let col = roundtrip(&Vector::F64(v), ChunkFormat::Pfor);
        assert!(
            col.ratio_pct() <= 30,
            "cents fit 2 bytes: {}",
            col.ratio_pct()
        );
    }

    #[test]
    fn pfordelta_column_roundtrip() {
        let v: Vec<i32> = (0..200_000).map(|i| i * 2).collect();
        let col = roundtrip(&Vector::I32(v), ChunkFormat::PforDelta);
        assert!(col.ratio_pct() < 40, "constant deltas: {}", col.ratio_pct());
        // A non-decreasing column with a decreasing chunk: that chunk
        // falls back to PFOR inside the PFOR-DELTA column.
        let mut v: Vec<u64> = (0..100_000u64).map(|i| i * i / 1000).collect();
        v[70_000..].reverse();
        roundtrip(&Vector::U64(v), ChunkFormat::PforDelta);
    }

    #[test]
    fn chooser_prefers_delta_on_sorted_keys() {
        let v = Vector::I64((0..100_000).collect());
        let col = choose_and_compress(&v, &ColumnStats::compute(&v)).expect("compresses");
        assert_eq!(col.format(), ChunkFormat::PforDelta);
    }

    #[test]
    fn chooser_falls_back_to_raw_on_random_wide_values() {
        // xorshift values spanning the full u64 range: nothing pays.
        let mut x = 0x12345678u64;
        let v: Vec<u64> = (0..50_000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            })
            .collect();
        let v = Vector::U64(v);
        assert!(choose_and_compress(&v, &ColumnStats::compute(&v)).is_none());
    }

    #[test]
    fn dictionary_wins_on_low_cardinality_columns() {
        let mut s = StrVec::new();
        for i in 0..30_000 {
            s.push(if i % 2 == 0 { "YES" } else { "NO" });
        }
        let s = Vector::Str(s);
        assert!(choose_and_compress(&s, &ColumnStats::compute(&s)).is_none());
        assert!(dictionary_wins(&s, None));
        // Three wide values: the dictionary beats PFOR's 4-byte lane.
        let wide = Vector::I64(
            (0..30_000)
                .map(|i| [1_000_000_007, 5, 123_456_789][i % 3])
                .collect(),
        );
        let pfor = choose_and_compress(&wide, &ColumnStats::compute(&wide));
        assert!(dictionary_wins(&wide, pfor.as_ref()));
        // Narrow integers: PFOR's byte lane ties the codes and carries
        // no dictionary; unique strings never pay; past the numeric cap
        // the sample alone refuses.
        let narrow = Vector::I64((0..30_000).map(|i| i % 100).collect());
        let pfor = choose_and_compress(&narrow, &ColumnStats::compute(&narrow));
        assert!(pfor.is_some() && !dictionary_wins(&narrow, pfor.as_ref()));
        let mut unique = StrVec::new();
        (0..30_000).for_each(|i| unique.push(&format!("k{i}")));
        assert!(!dictionary_wins(&Vector::Str(unique), None));
        let many = Vector::F64((0..30_000).map(|i| (i % 5_000) as f64 * 1e9).collect());
        assert!(!dictionary_wins(&many, None));
        // No dictionary candidate for other types.
        assert!(!dictionary_wins(&Vector::I32(vec![7; 30_000]), None));
    }

    #[test]
    fn empty_column_stays_raw() {
        let empty = Vector::I64(Vec::new());
        assert!(choose_and_compress(&empty, &ColumnStats::compute(&empty)).is_none());
        assert!(compress_column_as(&Vector::I64(Vec::new()), ChunkFormat::Pfor).is_none());
    }

    #[test]
    fn checksum_detects_torn_write() {
        let v: Vec<i64> = (0..150_000).map(|i| i % 100).collect();
        let data = Vector::I64(v);
        let mut col = compress_column_as(&data, ChunkFormat::Pfor).expect("applies");
        assert!(col.verify_all().is_ok());
        assert!(col.corrupt_payload_byte(1, 7), "chunk 1 has payload");
        assert!(!col.corrupt_payload_byte(3, 0), "there is no chunk 3");
        // The torn chunk refuses both the check and the decode: wrong
        // rows can never escape.
        let err = col.verify_all().unwrap_err();
        assert!(err.contains("chunk 1 checksum mismatch"), "{err}");
        let err = col.decode().unwrap_err();
        assert!(err.contains("chunk 1 checksum mismatch"), "{err}");
    }

    /// Chunk checksums are stored bytes: these were written by the
    /// per-value fold the closed form replaced (PR 21's parent), so every
    /// chunk header written before still verifies. The f64 column has
    /// Q1's shape: 22 % of its values do not round-trip any decimal scale
    /// and ride the patch list.
    #[test]
    fn golden_chunk_checksums_are_unchanged() {
        let f: Vec<f64> = (0..70_000)
            .map(|i| match i % 9 {
                0 | 1 => (i as f64 * 0.731).sqrt(),
                _ => (i % 5000) as f64 / 100.0,
            })
            .collect();
        let pfor = compress_column_as(&Vector::F64(f), ChunkFormat::Pfor).expect("applies");
        let exc: usize = (pfor.chunks.iter())
            .map(|c| c.header.exceptions as usize)
            .sum();
        assert!((15_000..16_000).contains(&exc), "{exc} exceptions");
        // Sorted with a jump every 1000 rows: delta exceptions + syncs.
        let d: Vec<u64> = (0..70_000u64)
            .map(|i| i * 3 + (i / 1000) * 1_000_000)
            .collect();
        let delta = compress_column_as(&Vector::U64(d), ChunkFormat::PforDelta).expect("sorted");
        let sums = |c: &CompressedColumn| -> Vec<u8> {
            c.verify_all().expect("verifies");
            c.chunks.iter().map(|c| c.header.checksum).collect()
        };
        assert_eq!(sums(&pfor), [0x33, 0x71]);
        assert_eq!(sums(&delta), [0x55, 0x85]);
        // The sealed `XCPC` images (version 3: no dictionary in the
        // preamble) end in the frame fold over all of the above.
        assert_eq!(pfor.to_bytes().last(), Some(&0xc2));
        assert_eq!(delta.to_bytes().last(), Some(&0x2f));
    }
}
