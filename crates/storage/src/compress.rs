//! Compressed column fragments: the storage half of lightweight
//! compression (paper §4.3 / §5).
//!
//! At checkpoint / reorganize time a per-column *format chooser* samples
//! each fragment's value range, sort order and cardinality and rewrites
//! it as a sequence of compressed chunks — PFOR, PFOR-DELTA or PDICT —
//! each carrying a self-describing [`ChunkHeader`] plus exception
//! blocks. Columns where compression would not pay (savings below 10%)
//! stay raw. The scan decompresses vector-at-a-time through
//! [`CompressedColumn::decode_range`], so compressed data stays
//! compressed in the buffer pool and expands only into cache-resident
//! vectors.

use crate::column::ColumnData;
use crate::frame::{fold_checksum, fold_values, Le, Reader, Writer};
use x100_vector::compress as k;
use x100_vector::{ScalarType, StrVec, Value, Vector};

/// Rows per compressed chunk. A multiple of the vector size and of
/// [`k::DELTA_SYNC`], so vector refills decode aligned lanes.
pub const CHUNK_ROWS: usize = 65536;

/// Encoded size of a [`ChunkHeader`].
pub const HEADER_BYTES: usize = 32;

const HEADER_MAGIC: u8 = 0xCB;
const COLUMN_MAGIC: &[u8; 4] = b"XCPC";
const COLUMN_VERSION: u8 = 2;

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
    /// Dictionary codes into a column-wide sorted dictionary.
    Pdict,
}

impl ChunkFormat {
    fn from_tag(tag: u8) -> Result<ChunkFormat, String> {
        use ChunkFormat::*;
        let known = [Raw, Pfor, PforDelta, Pdict].get(tag as usize).copied();
        known.ok_or_else(|| format!("unknown chunk format tag {tag}"))
    }

    /// Short lowercase name (bench JSON, stats display).
    pub fn name(self) -> &'static str {
        match self {
            ChunkFormat::Raw => "raw",
            ChunkFormat::Pfor => "pfor",
            ChunkFormat::PforDelta => "pfordelta",
            ChunkFormat::Pdict => "pdict",
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
    /// Frame lane in bits (PFOR / PFOR-DELTA) or code width (PDICT).
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
    fn validate(&self, column: ChunkFormat, dict_lane: u32, rows: u64) -> Result<(), String> {
        use ChunkFormat::*;
        let format_ok = self.format == column || (column == PforDelta && self.format == Pfor);
        let lane_ok = match self.format {
            Pdict => self.lane as u32 == dict_lane,
            _ => matches!(self.lane, 0 | 8 | 16 | 32 | 64),
        };
        let lists_ok = match self.format {
            PforDelta => self.sync_points as u64 == rows.div_ceil(k::DELTA_SYNC as u64),
            Pfor => self.sync_points == 0,
            _ => self.sync_points == 0 && self.exceptions == 0,
        };
        if format_ok
            && lane_ok
            && lists_ok
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
    /// Packed dictionary codes (dictionary lives on the column).
    Pdict(Vec<u8>),
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
                ChunkBody::Pdict(p) => p.len(),
            }
    }
}

/// Decode progress of one scan over one compressed column. Sequential
/// refills continue PFOR-DELTA prefix sums from the saved carry instead
/// of replaying from the nearest sync point.
#[derive(Debug, Clone, Copy, Default)]
pub struct DecodeCursor {
    chunk: usize,
    next_row: usize,
    carry: u64,
    /// Last chunk whose checksum this cursor verified — sequential
    /// scans pay the verification pass once per chunk, not per refill.
    verified: Option<usize>,
}

/// Accounting of one `decode_range` call.
#[derive(Debug, Clone, Copy, Default)]
pub struct DecodeStats {
    /// Exception patches applied in the decoded window.
    pub exceptions: u64,
    /// Byte offset of the first compressed byte touched (for chunked
    /// buffer-manager accounting).
    pub comp_offset: u64,
    /// Compressed bytes touched (payload window + exceptions + header).
    pub comp_len: u64,
}

/// One column fragment rewritten as compressed chunks.
#[derive(Debug, Clone)]
pub struct CompressedColumn {
    format: ChunkFormat,
    physical: ScalarType,
    rows: usize,
    chunks: Vec<CompressedChunk>,
    /// Byte offset of each chunk in the compressed stream.
    chunk_offsets: Vec<u64>,
    /// Column-wide sorted dictionary (PDICT columns only).
    dict: Option<ColumnData>,
    dict_lane: u32,
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

    /// Compressed size in bytes (headers + payloads + dictionary).
    pub fn compressed_bytes(&self) -> u64 {
        self.compressed_bytes
    }

    /// Compressed size as a percentage of raw (lower = better).
    pub fn ratio_pct(&self) -> u64 {
        (self.compressed_bytes * 100)
            .checked_div(self.raw_bytes)
            .unwrap_or(100)
    }

    /// The registered decompress-primitive signature the scan must run
    /// to expand this column — `engine::check` verifies it against the
    /// primitive registry like any other compiled instruction.
    pub fn decode_sig(&self) -> &'static str {
        macro_rules! sig {
            ($codec:literal) => {
                match self.physical {
                    ScalarType::I8 => concat!("decompress_", $codec, "_i8_col"),
                    ScalarType::I16 => concat!("decompress_", $codec, "_i16_col"),
                    ScalarType::I32 => concat!("decompress_", $codec, "_i32_col"),
                    ScalarType::I64 => concat!("decompress_", $codec, "_i64_col"),
                    ScalarType::U8 => concat!("decompress_", $codec, "_u8_col"),
                    ScalarType::U16 => concat!("decompress_", $codec, "_u16_col"),
                    ScalarType::U32 => concat!("decompress_", $codec, "_u32_col"),
                    ScalarType::U64 => concat!("decompress_", $codec, "_u64_col"),
                    ScalarType::F64 => concat!("decompress_", $codec, "_f64_col"),
                    ScalarType::Str => concat!("decompress_", $codec, "_str_col"),
                    ScalarType::Bool => unreachable!("Bool is not a storage type"),
                }
            };
        }
        match self.format {
            ChunkFormat::Raw => "raw",
            ChunkFormat::Pfor => sig!("pfor"),
            ChunkFormat::PforDelta => sig!("pfordelta"),
            ChunkFormat::Pdict => sig!("pdict"),
        }
    }

    /// Finish a column from its parts: chunk offsets and the compressed
    /// footprint are derived, never stored.
    fn assemble(
        format: ChunkFormat,
        physical: ScalarType,
        rows: usize,
        raw_bytes: u64,
        chunks: Vec<CompressedChunk>,
        dict: Option<ColumnData>,
        dict_lane: u32,
    ) -> CompressedColumn {
        let mut chunk_offsets = Vec::with_capacity(chunks.len());
        let mut off = 0u64;
        for c in &chunks {
            chunk_offsets.push(off);
            off += c.byte_size() as u64;
        }
        let compressed_bytes = off + dict.as_ref().map_or(0, |d| d.byte_size() as u64);
        CompressedColumn {
            format,
            physical,
            rows,
            chunks,
            chunk_offsets,
            dict,
            dict_lane,
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
    /// (format, physical type, rows, dictionary) followed by every chunk
    /// as header + body blocks in the order the chunk checksum folds
    /// them. Durable column files and spill blocks embed exactly this.
    /// The per-chunk checksums travel inside the headers, so a byte torn
    /// in a body *before* it was serialized is still caught on the first
    /// decode touch after [`CompressedColumn::read`].
    pub fn put(&self, w: &mut Writer) {
        w.put(self.format as u8);
        w.put_type(self.physical);
        w.put(self.rows as u64);
        w.put(self.raw_bytes);
        w.put(self.dict_lane);
        w.put(self.chunks.len() as u32);
        w.put(self.dict.is_some());
        if let Some(d) = &self.dict {
            w.put_column(d);
        }
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
                ChunkBody::Pdict(p) => w.put_slice(p),
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
        use ScalarType::{Str, F64, I32, I64};
        let format = ChunkFormat::from_tag(r.get()?)?;
        let physical = r.get_type()?;
        let rows = r.get::<u64>()?;
        let raw_bytes = r.get::<u64>()?;
        let dict_lane = r.get::<u32>()?;
        let n_chunks = r.count::<u32>(HEADER_BYTES)?;
        let dict = if r.get()? { Some(r.column()?) } else { None };
        let typed = match format {
            ChunkFormat::Raw => false,
            ChunkFormat::Pfor => physical.is_numeric(),
            ChunkFormat::PforDelta => physical.is_integer(),
            ChunkFormat::Pdict => matches!(physical, I32 | I64 | F64 | Str),
        };
        let dict_ok = match &dict {
            None => format != ChunkFormat::Pdict && dict_lane == 0,
            Some(d) => {
                format == ChunkFormat::Pdict
                    && d.scalar_type() == physical
                    && matches!(dict_lane, 8 | 16)
                    && d.len() <= 1 << dict_lane
            }
        };
        if !typed || !dict_ok || n_chunks as u64 != rows.div_ceil(CHUNK_ROWS as u64) {
            return Err(format!(
                "inconsistent column preamble: {} over {physical}, {rows} rows in {n_chunks} \
                 chunks, dictionary {:?} at lane {dict_lane}",
                format.name(),
                dict.as_ref().map(ColumnData::scalar_type)
            ));
        }
        let mut chunks = Vec::with_capacity(n_chunks);
        let mut left = rows;
        for _ in 0..n_chunks {
            let header = ChunkHeader::read(r)?;
            header.validate(format, dict_lane, left.min(CHUNK_ROWS as u64))?;
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
                ChunkFormat::Pdict => {
                    // The one payload property a kernel indexes by:
                    // every code must name a dictionary entry.
                    let top = match lane {
                        8 => payload.iter().max().map(|&c| c as usize),
                        _ => payload
                            .chunks_exact(2)
                            .map(u16::read)
                            .max()
                            .map(usize::from),
                    };
                    if top >= dict.as_ref().map(ColumnData::len) {
                        return Err(format!("dictionary code {top:?} has no entry"));
                    }
                    ChunkBody::Pdict(payload)
                }
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
            dict,
            dict_lane,
        ))
    }

    /// Decompress rows `[start, start + rows)` into `out` (cleared and
    /// refilled, mirroring `ColumnData::read_into`). `cursor` carries
    /// sequential decode state between refills; `scratch` is the reused
    /// frame buffer the governor charges. Fails (typed upstream as
    /// `Io`) when a chunk's stored checksum no longer matches its body.
    pub fn decode_range(
        &self,
        start: usize,
        rows: usize,
        out: &mut Vector,
        cursor: &mut DecodeCursor,
        scratch: &mut Vec<u64>,
    ) -> Result<DecodeStats, String> {
        assert!(start + rows <= self.rows, "decode_range beyond fragment");
        let mut stats = DecodeStats {
            comp_offset: u64::MAX,
            ..DecodeStats::default()
        };
        if self.physical == ScalarType::Str {
            out.clear();
        } else {
            // Every numeric position is overwritten by the dense decode
            // below, so only growth needs the zero fill — resizing in
            // place (instead of clear + refill) skips one full store
            // pass per refill once the vector reaches steady state.
            out.resize_zeroed(rows);
        }
        for (ci, local, n) in chunk_pieces(start, rows) {
            let at = ci * CHUNK_ROWS + local - start;
            self.decode_chunk(ci, local, n, at, out, cursor, scratch, &mut stats)?;
        }
        if stats.comp_offset == u64::MAX {
            stats.comp_offset = 0;
        }
        Ok(stats)
    }

    /// Decode `n` rows of chunk `ci` starting at chunk-local `local`
    /// into `out` at position `at`.
    #[allow(clippy::too_many_arguments)]
    fn decode_chunk(
        &self,
        ci: usize,
        local: usize,
        n: usize,
        at: usize,
        out: &mut Vector,
        cursor: &mut DecodeCursor,
        scratch: &mut Vec<u64>,
        stats: &mut DecodeStats,
    ) -> Result<(), String> {
        let chunk = self.verified(ci, cursor)?;
        let lane_bytes = (chunk.header.lane as u64) / 8;
        let mut touched = HEADER_BYTES as u64 + n as u64 * lane_bytes;
        match &chunk.body {
            ChunkBody::Pfor(c) => {
                let exc = window_exceptions(&c.exc_pos, local, n);
                touched += exc * 12;
                stats.exceptions += exc;
                macro_rules! arm {
                    ($($variant:ident => $dec:path),+ $(,)?) => {
                        match out {
                            $(Vector::$variant(dst) => $dec(&mut dst[at..at + n], c, local, scratch),)+
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
                // Sequential refills continue from the cursor carry; any
                // other entry replays from the preceding sync carry.
                let abs = ci * CHUNK_ROWS + local;
                let (seek, carry) = if cursor.chunk == ci && cursor.next_row == abs && abs != 0 {
                    (local, cursor.carry)
                } else {
                    let sk = local / k::DELTA_SYNC;
                    (sk * k::DELTA_SYNC, c.sync[sk])
                };
                let exc = window_exceptions(&c.exc_pos, seek, local + n - seek);
                touched += exc * 12 + (local - seek) as u64 * lane_bytes + 8;
                stats.exceptions += exc;
                macro_rules! arm {
                    ($($variant:ident => $dec:path),+ $(,)?) => {
                        match out {
                            $(Vector::$variant(dst) => {
                                $dec(&mut dst[at..at + n], c, seek, carry, local, scratch)
                            })+
                            other => panic!("pfordelta decode into {:?}", other.scalar_type()),
                        }
                    };
                }
                let new_carry = arm! {
                    I8 => k::decompress_pfordelta_i8_col,
                    I16 => k::decompress_pfordelta_i16_col,
                    I32 => k::decompress_pfordelta_i32_col,
                    I64 => k::decompress_pfordelta_i64_col,
                    U8 => k::decompress_pfordelta_u8_col,
                    U16 => k::decompress_pfordelta_u16_col,
                    U32 => k::decompress_pfordelta_u32_col,
                    U64 => k::decompress_pfordelta_u64_col,
                };
                cursor.chunk = ci;
                cursor.next_row = abs + n;
                cursor.carry = new_carry;
            }
            ChunkBody::Pdict(payload) => {
                let dict = self.dict.as_ref().expect("pdict column has a dictionary");
                let lane = self.dict_lane;
                match (out, dict) {
                    (Vector::I32(dst), ColumnData::I32(d)) => k::decompress_pdict_i32_col(
                        &mut dst[at..at + n],
                        payload,
                        lane,
                        local,
                        d,
                        scratch,
                    ),
                    (Vector::I64(dst), ColumnData::I64(d)) => k::decompress_pdict_i64_col(
                        &mut dst[at..at + n],
                        payload,
                        lane,
                        local,
                        d,
                        scratch,
                    ),
                    (Vector::F64(dst), ColumnData::F64(d)) => k::decompress_pdict_f64_col(
                        &mut dst[at..at + n],
                        payload,
                        lane,
                        local,
                        d,
                        scratch,
                    ),
                    (Vector::Str(dst), ColumnData::Str(d)) => {
                        k::decompress_pdict_str_col(dst, payload, lane, local, n, d, scratch)
                    }
                    (o, _) => panic!("pdict decode into {:?}", o.scalar_type()),
                }
            }
        }
        let off = self.chunk_offsets[ci] + HEADER_BYTES as u64 + local as u64 * lane_bytes;
        stats.comp_offset = stats.comp_offset.min(off);
        stats.comp_len += touched;
        Ok(())
    }

    /// Chunk `ci`, its checksum verified at most once per cursor —
    /// sequential scans pay the verification pass per chunk, not per
    /// refill. Every decode path enters a chunk through here.
    fn verified(&self, ci: usize, cursor: &mut DecodeCursor) -> Result<&CompressedChunk, String> {
        if cursor.verified != Some(ci) {
            self.verify_chunk(ci)?;
            cursor.verified = Some(ci);
        }
        Ok(&self.chunks[ci])
    }

    /// Recompute chunk `ci`'s body checksum and compare with the header
    /// copy. A mismatch means the chunk bytes were torn after the
    /// header was written — the scan surfaces it as a typed `Io` error
    /// and falls back to the retained raw fragment.
    pub fn verify_chunk(&self, ci: usize) -> Result<(), String> {
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

    /// Verify every chunk's body checksum — the durable heal path runs
    /// this over a freshly parsed replica before trusting it, so a copy
    /// that was torn *before* it reached disk (file-level checksum
    /// intact, chunk-level wrong) is rejected rather than healed from.
    pub fn verify_all(&self) -> Result<(), String> {
        for ci in 0..self.chunks.len() {
            self.verify_chunk(ci)?;
        }
        Ok(())
    }

    /// Flip one payload byte of chunk `ci` *without* touching the
    /// header checksum — a torn write: the write "succeeded", the bytes
    /// are wrong, and only checksum verification can tell. Fault
    /// injection and tests only. Returns `false` when the chunk has no
    /// payload byte at `at` (e.g. a constant lane-0 chunk).
    pub fn corrupt_payload_byte(&mut self, ci: usize, at: usize) -> bool {
        let Some(chunk) = self.chunks.get_mut(ci) else {
            return false;
        };
        let payload = match &mut chunk.body {
            ChunkBody::Pfor(c) => &mut c.payload,
            ChunkBody::PforDelta(c) => &mut c.payload,
            ChunkBody::Pdict(p) => p,
        };
        match payload.get_mut(at) {
            Some(b) => {
                *b ^= 0x40;
                true
            }
            None => false,
        }
    }

    /// Compile `col ⟨op⟩ v` (or `col between v w`) into this column's
    /// encoded space. Returns `None` when no encoded-space kernel
    /// exists for the (format, type, op) triple — PFOR-DELTA columns
    /// (prefix sums), `ne` over PFOR frames, `between` over dictionary
    /// codes, or a constant whose type does not match the column — and
    /// the caller falls back to decode-then-select.
    ///
    /// For PDICT this is where the dictionary-predicate rewrite
    /// happens: the predicate is evaluated once over the sorted
    /// dictionary and collapsed into a code-set test
    /// ([`k::DictSel`]), so per-vector evaluation never touches the
    /// dictionary values again — string predicates in particular never
    /// materialize a `StrVec` until output.
    pub fn compile_pushdown(&self, op: PushOp, v: &Value, w: Option<&Value>) -> Option<Pushdown> {
        if v.scalar_type() != self.physical {
            return None;
        }
        if op == PushOp::Between {
            match w {
                Some(w) if w.scalar_type() == self.physical => {}
                _ => return None,
            }
        } else if w.is_some() {
            return None;
        }
        let opn = op.name();
        let ty = self.physical.sig_name();
        match self.format {
            ChunkFormat::Pfor => {
                if op == PushOp::Ne || self.physical == ScalarType::Str {
                    return None;
                }
                let sig = if op == PushOp::Between {
                    format!("cmp_pfor_between_{ty}_col_val_val")
                } else {
                    format!("cmp_pfor_{opn}_{ty}_col_val")
                };
                Some(Pushdown {
                    op,
                    lo: v.clone(),
                    hi: w.cloned(),
                    dict: None,
                    sig,
                })
            }
            ChunkFormat::Pdict => {
                if op == PushOp::Between {
                    return None;
                }
                let dict = self.dict_predicate(op, v)?;
                Some(Pushdown {
                    op,
                    lo: v.clone(),
                    hi: None,
                    dict: Some(dict),
                    sig: format!("cmp_pdict_{opn}_{ty}_col_val"),
                })
            }
            ChunkFormat::Raw | ChunkFormat::PforDelta => None,
        }
    }

    /// The dictionary-predicate rewrite: evaluate `op v` over every
    /// dictionary entry once and collapse the result.
    fn dict_predicate(&self, op: PushOp, v: &Value) -> Option<k::DictSel> {
        let dict = self.dict.as_ref()?;
        macro_rules! pred {
            ($d:expr, $x:expr) => {
                match op {
                    PushOp::Eq => $d == $x,
                    PushOp::Ne => $d != $x,
                    PushOp::Lt => $d < $x,
                    PushOp::Le => $d <= $x,
                    PushOp::Gt => $d > $x,
                    PushOp::Ge => $d >= $x,
                    PushOp::Between => false,
                }
            };
        }
        match (dict, v) {
            (ColumnData::I32(d), Value::I32(x)) => {
                Some(k::DictSel::from_pred(d.len(), |c| pred!(d[c], *x)))
            }
            (ColumnData::I64(d), Value::I64(x)) => {
                Some(k::DictSel::from_pred(d.len(), |c| pred!(d[c], *x)))
            }
            (ColumnData::F64(d), Value::F64(x)) => {
                Some(k::DictSel::from_pred(d.len(), |c| pred!(d[c], *x)))
            }
            (ColumnData::Str(d), Value::Str(x)) => Some(k::DictSel::from_pred(d.len(), |c| {
                pred!(d.get(c), x.as_str())
            })),
            _ => None,
        }
    }

    /// Evaluate a compiled pushdown over rows `[start, start + rows)`
    /// entirely in encoded space: appends the *window-relative*
    /// ascending positions (0 = row `start`) of qualifying rows to
    /// `out` without decoding a single value. `cursor` shares
    /// checksum-verification state with `decode_range` /
    /// `decode_positions`.
    pub fn select_range(
        &self,
        p: &Pushdown,
        start: usize,
        rows: usize,
        out: &mut Vec<u32>,
        cursor: &mut DecodeCursor,
    ) -> Result<(), String> {
        assert!(start + rows <= self.rows, "select_range beyond fragment");
        for (ci, local, n) in chunk_pieces(start, rows) {
            let chunk = self.verified(ci, cursor)?;
            let before = out.len();
            match &chunk.body {
                ChunkBody::Pfor(c) => pfor_chunk_select(p, c, local, n, out),
                ChunkBody::Pdict(payload) => {
                    let sel = p.dict.as_ref().expect("pdict pushdown carries a rewrite");
                    k::pdict_select_codes(payload, self.dict_lane, local, n, sel, out);
                }
                ChunkBody::PforDelta(_) => {
                    return Err("pushdown over PFOR-DELTA chunks is not supported".into());
                }
            }
            // Chunk-relative → window-relative, adjusted in place over
            // the freshly appended tail (no bounce buffer).
            let rebase = (ci * CHUNK_ROWS) as i64 - start as i64;
            if rebase != 0 {
                for pos in &mut out[before..] {
                    *pos = (*pos as i64 + rebase) as u32;
                }
            }
        }
        Ok(())
    }

    /// Gather-decode the chunk-local ascending positions `sel` of one
    /// PFOR or PDICT chunk into `out[at..at + sel.len()]` (strings
    /// append) — the `decode_sel_*` dispatch behind both
    /// [`CompressedColumn::decode_positions`] and
    /// [`CompressedColumn::gather`].
    fn decode_sel(
        &self,
        chunk: &CompressedChunk,
        out: &mut Vector,
        at: usize,
        sel: &[u32],
    ) -> Result<(), String> {
        let to = at + sel.len();
        match &chunk.body {
            ChunkBody::Pfor(c) => {
                macro_rules! arm {
                    ($($variant:ident => $dec:path),+ $(,)?) => {
                        match out {
                            $(Vector::$variant(dst) => $dec(&mut dst[at..to], c, sel),)+
                            other => {
                                return Err(format!("pfor decode_sel into {:?}", other.scalar_type()));
                            }
                        }
                    };
                }
                arm! {
                    I8 => k::decode_sel_pfor_i8_col,
                    I16 => k::decode_sel_pfor_i16_col,
                    I32 => k::decode_sel_pfor_i32_col,
                    I64 => k::decode_sel_pfor_i64_col,
                    U8 => k::decode_sel_pfor_u8_col,
                    U16 => k::decode_sel_pfor_u16_col,
                    U32 => k::decode_sel_pfor_u32_col,
                    U64 => k::decode_sel_pfor_u64_col,
                    F64 => k::decode_sel_pfor_f64_col,
                }
            }
            ChunkBody::Pdict(payload) => {
                let dict = self.dict.as_ref().expect("pdict column has a dictionary");
                let lane = self.dict_lane;
                match (out, dict) {
                    (Vector::I32(dst), ColumnData::I32(d)) => {
                        k::decode_sel_pdict_i32_col(&mut dst[at..to], payload, lane, d, sel)
                    }
                    (Vector::I64(dst), ColumnData::I64(d)) => {
                        k::decode_sel_pdict_i64_col(&mut dst[at..to], payload, lane, d, sel)
                    }
                    (Vector::F64(dst), ColumnData::F64(d)) => {
                        k::decode_sel_pdict_f64_col(&mut dst[at..to], payload, lane, d, sel)
                    }
                    (Vector::Str(dst), ColumnData::Str(d)) => {
                        k::decode_sel_pdict_str_col(dst, payload, lane, d, sel)
                    }
                    (o, _) => return Err(format!("pdict decode_sel into {:?}", o.scalar_type())),
                }
            }
            ChunkBody::PforDelta(_) => {
                return Err("no selective decode over PFOR-DELTA chunks (prefix sums)".into());
            }
        }
        Ok(())
    }

    /// Gather-decode the rows at window-relative positions `sel`
    /// (ascending; 0 = row `start`) into `out`, compacted: `out[i]`
    /// becomes row `start + sel[i]`. This is the lazy-materialization
    /// half of a pushed-down selection — only surviving positions are
    /// ever decoded, everything else is skipped while still packed.
    pub fn decode_positions(
        &self,
        start: usize,
        sel: &[u32],
        out: &mut Vector,
        tmp: &mut Vec<u32>,
        cursor: &mut DecodeCursor,
    ) -> Result<DecodeStats, String> {
        let mut stats = DecodeStats {
            comp_offset: u64::MAX,
            ..DecodeStats::default()
        };
        if self.physical == ScalarType::Str {
            out.clear();
        } else {
            out.resize_zeroed(sel.len());
        }
        let mut i = 0usize;
        while i < sel.len() {
            let ci = (start + sel[i] as usize) / CHUNK_ROWS;
            tmp.clear();
            if (start + sel[sel.len() - 1] as usize) / CHUNK_ROWS == ci {
                // Common case: the whole remaining selection lives in
                // one chunk — rebase it with a single vectorizable add
                // instead of dividing per position.
                let d = start as i64 - (ci * CHUNK_ROWS) as i64;
                tmp.extend(sel[i..].iter().map(|&p| (p as i64 + d) as u32));
            } else {
                let in_chunk = |&&p: &&u32| (start + p as usize) / CHUNK_ROWS == ci;
                let local = |&p: &u32| (start + p as usize - ci * CHUNK_ROWS) as u32;
                tmp.extend(sel[i..].iter().take_while(in_chunk).map(local));
            }
            let chunk = self.verified(ci, cursor)?;
            if let ChunkBody::Pfor(c) = &chunk.body {
                stats.exceptions += sel_exceptions(&c.exc_pos, tmp);
            }
            self.decode_sel(chunk, out, i, tmp)?;
            let lane_bytes = (chunk.header.lane as u64) / 8;
            stats.comp_len += HEADER_BYTES as u64 + tmp.len() as u64 * lane_bytes;
            stats.comp_offset = stats.comp_offset.min(self.chunk_offsets[ci]);
            i += tmp.len();
        }
        if stats.comp_offset == u64::MAX {
            stats.comp_offset = 0;
        }
        Ok(stats)
    }

    /// Positional gather through the codec: decode row `rowids[i]`
    /// (any order, duplicates allowed) into `out[i]`. Ascending
    /// same-chunk runs batch through the `decode_sel` kernels;
    /// PFOR-DELTA runs replay from the nearest sync carry — the
    /// sync-point seek path that join-index position reads ride.
    /// `cursor` only carries checksum-verification state here.
    pub fn gather(
        &self,
        rowids: &[u32],
        out: &mut Vector,
        scratch: &mut Vec<u64>,
        tmp: &mut Vec<u32>,
        cursor: &mut DecodeCursor,
    ) -> Result<(), String> {
        if self.physical == ScalarType::Str {
            out.clear();
        } else {
            out.resize_zeroed(rowids.len());
        }
        let mut i = 0usize;
        while i < rowids.len() {
            let ci = rowids[i] as usize / CHUNK_ROWS;
            let chunk = self.verified(ci, cursor)?;
            let is_delta = matches!(chunk.body, ChunkBody::PforDelta(_));
            tmp.clear();
            tmp.push((rowids[i] as usize - ci * CHUNK_ROWS) as u32);
            for j in i + 1..rowids.len() {
                let abs = rowids[j] as usize;
                if abs / CHUNK_ROWS != ci || abs <= rowids[j - 1] as usize {
                    break;
                }
                // Bound the replay span so the delta scratch stays
                // cache-resident even for scattered rowids.
                if is_delta && abs - rowids[i] as usize >= 8192 {
                    break;
                }
                tmp.push((abs - ci * CHUNK_ROWS) as u32);
            }
            match &chunk.body {
                ChunkBody::PforDelta(c) => {
                    // Seek: replay packed deltas from the sync carry
                    // preceding the run, then pick the selected rows.
                    let first = tmp[0] as usize;
                    let last = tmp[tmp.len() - 1] as usize;
                    let sk = first / k::DELTA_SYNC;
                    let seek = sk * k::DELTA_SYNC;
                    let carry = c.sync[sk];
                    let span = last - first + 1;
                    macro_rules! arm {
                        ($($variant:ident : $t:ty => $dec:path),+ $(,)?) => {
                            match &mut *out {
                                $(Vector::$variant(dst) => {
                                    let mut buf: Vec<$t> = vec![0 as $t; span];
                                    let _ = $dec(&mut buf, c, seek, carry, first, scratch);
                                    for (o, &p) in
                                        dst[i..i + tmp.len()].iter_mut().zip(tmp.iter())
                                    {
                                        *o = buf[p as usize - first];
                                    }
                                })+
                                other => {
                                    return Err(format!(
                                        "pfordelta gather into {:?}",
                                        other.scalar_type()
                                    ));
                                }
                            }
                        };
                    }
                    arm! {
                        I8: i8 => k::decompress_pfordelta_i8_col,
                        I16: i16 => k::decompress_pfordelta_i16_col,
                        I32: i32 => k::decompress_pfordelta_i32_col,
                        I64: i64 => k::decompress_pfordelta_i64_col,
                        U8: u8 => k::decompress_pfordelta_u8_col,
                        U16: u16 => k::decompress_pfordelta_u16_col,
                        U32: u32 => k::decompress_pfordelta_u32_col,
                        U64: u64 => k::decompress_pfordelta_u64_col,
                    }
                }
                _ => self.decode_sel(chunk, out, i, tmp)?,
            }
            i += tmp.len();
        }
        Ok(())
    }

    /// The registered gather-decode signature the lazy materialization
    /// runs (`decode_sel_*`), or `None` for formats without one.
    pub fn decode_sel_sig(&self) -> Option<&'static str> {
        macro_rules! sig {
            ($codec:literal, $($t:ident => $n:literal),+ $(,)?) => {
                match self.physical {
                    $(ScalarType::$t => Some(concat!("decode_sel_", $codec, "_", $n, "_col")),)+
                    _ => None,
                }
            };
        }
        match self.format {
            ChunkFormat::Pfor => sig!(
                "pfor",
                I8 => "i8", I16 => "i16", I32 => "i32", I64 => "i64",
                U8 => "u8", U16 => "u16", U32 => "u32", U64 => "u64",
                F64 => "f64",
            ),
            ChunkFormat::Pdict => sig!(
                "pdict",
                I32 => "i32", I64 => "i64", F64 => "f64", Str => "str",
            ),
            ChunkFormat::Raw | ChunkFormat::PforDelta => None,
        }
    }
}

/// Comparison operator of a pushed-down predicate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    Between,
}

impl PushOp {
    /// Lowercase signature fragment (`eq`, `lt`, …).
    pub fn name(self) -> &'static str {
        match self {
            PushOp::Eq => "eq",
            PushOp::Ne => "ne",
            PushOp::Lt => "lt",
            PushOp::Le => "le",
            PushOp::Gt => "gt",
            PushOp::Ge => "ge",
            PushOp::Between => "between",
        }
    }
}

/// One predicate compiled into a compressed column's encoded space.
/// For PFOR the constant is re-translated per chunk (base and scale are
/// per-chunk properties); for PDICT the dictionary was already
/// evaluated at compile time and collapsed into a code-set test.
#[derive(Debug, Clone)]
pub struct Pushdown {
    op: PushOp,
    lo: Value,
    hi: Option<Value>,
    dict: Option<k::DictSel>,
    sig: String,
}

impl Pushdown {
    /// The registered compare-primitive signature this pushdown runs —
    /// `engine::check` verifies it like any compiled instruction.
    pub fn sig(&self) -> &str {
        &self.sig
    }

    /// True when this pushdown is a dictionary-predicate rewrite.
    pub fn is_dict_rewrite(&self) -> bool {
        self.dict.is_some()
    }

    /// The comparison this pushdown evaluates.
    pub fn op(&self) -> PushOp {
        self.op
    }

    /// The (lower) comparison constant, in value space.
    pub fn lo(&self) -> &Value {
        &self.lo
    }

    /// The upper bound of a `Between`, in value space.
    pub fn hi(&self) -> Option<&Value> {
        self.hi.as_ref()
    }
}

/// Per-chunk PFOR dispatch: translate the typed constant into this
/// chunk's encoded space and walk the packed lanes.
fn pfor_chunk_select(p: &Pushdown, c: &k::PforChunk, local: usize, n: usize, out: &mut Vec<u32>) {
    macro_rules! ops {
        ($variant:ident, $v:expr, $eq:path, $lt:path, $le:path, $gt:path, $ge:path, $bt:path) => {
            match p.op {
                PushOp::Eq => $eq(c, local, n, $v, out),
                PushOp::Lt => $lt(c, local, n, $v, out),
                PushOp::Le => $le(c, local, n, $v, out),
                PushOp::Gt => $gt(c, local, n, $v, out),
                PushOp::Ge => $ge(c, local, n, $v, out),
                PushOp::Between => match &p.hi {
                    Some(Value::$variant(w)) => $bt(c, local, n, $v, *w, out),
                    other => unreachable!("between upper bound {other:?}"),
                },
                PushOp::Ne => unreachable!("ne is not a PFOR pushdown"),
            }
        };
    }
    match &p.lo {
        Value::I8(v) => ops!(
            I8,
            *v,
            k::cmp_pfor_eq_i8_col_val,
            k::cmp_pfor_lt_i8_col_val,
            k::cmp_pfor_le_i8_col_val,
            k::cmp_pfor_gt_i8_col_val,
            k::cmp_pfor_ge_i8_col_val,
            k::cmp_pfor_between_i8_col_val_val
        ),
        Value::I16(v) => ops!(
            I16,
            *v,
            k::cmp_pfor_eq_i16_col_val,
            k::cmp_pfor_lt_i16_col_val,
            k::cmp_pfor_le_i16_col_val,
            k::cmp_pfor_gt_i16_col_val,
            k::cmp_pfor_ge_i16_col_val,
            k::cmp_pfor_between_i16_col_val_val
        ),
        Value::I32(v) => ops!(
            I32,
            *v,
            k::cmp_pfor_eq_i32_col_val,
            k::cmp_pfor_lt_i32_col_val,
            k::cmp_pfor_le_i32_col_val,
            k::cmp_pfor_gt_i32_col_val,
            k::cmp_pfor_ge_i32_col_val,
            k::cmp_pfor_between_i32_col_val_val
        ),
        Value::I64(v) => ops!(
            I64,
            *v,
            k::cmp_pfor_eq_i64_col_val,
            k::cmp_pfor_lt_i64_col_val,
            k::cmp_pfor_le_i64_col_val,
            k::cmp_pfor_gt_i64_col_val,
            k::cmp_pfor_ge_i64_col_val,
            k::cmp_pfor_between_i64_col_val_val
        ),
        Value::U8(v) => ops!(
            U8,
            *v,
            k::cmp_pfor_eq_u8_col_val,
            k::cmp_pfor_lt_u8_col_val,
            k::cmp_pfor_le_u8_col_val,
            k::cmp_pfor_gt_u8_col_val,
            k::cmp_pfor_ge_u8_col_val,
            k::cmp_pfor_between_u8_col_val_val
        ),
        Value::U16(v) => ops!(
            U16,
            *v,
            k::cmp_pfor_eq_u16_col_val,
            k::cmp_pfor_lt_u16_col_val,
            k::cmp_pfor_le_u16_col_val,
            k::cmp_pfor_gt_u16_col_val,
            k::cmp_pfor_ge_u16_col_val,
            k::cmp_pfor_between_u16_col_val_val
        ),
        Value::U32(v) => ops!(
            U32,
            *v,
            k::cmp_pfor_eq_u32_col_val,
            k::cmp_pfor_lt_u32_col_val,
            k::cmp_pfor_le_u32_col_val,
            k::cmp_pfor_gt_u32_col_val,
            k::cmp_pfor_ge_u32_col_val,
            k::cmp_pfor_between_u32_col_val_val
        ),
        Value::U64(v) => ops!(
            U64,
            *v,
            k::cmp_pfor_eq_u64_col_val,
            k::cmp_pfor_lt_u64_col_val,
            k::cmp_pfor_le_u64_col_val,
            k::cmp_pfor_gt_u64_col_val,
            k::cmp_pfor_ge_u64_col_val,
            k::cmp_pfor_between_u64_col_val_val
        ),
        Value::F64(v) => ops!(
            F64,
            *v,
            k::cmp_pfor_eq_f64_col_val,
            k::cmp_pfor_lt_f64_col_val,
            k::cmp_pfor_le_f64_col_val,
            k::cmp_pfor_gt_f64_col_val,
            k::cmp_pfor_ge_f64_col_val,
            k::cmp_pfor_between_f64_col_val_val
        ),
        other => unreachable!("pfor pushdown constant {other:?}"),
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
        ChunkBody::Pdict(p) => fold_checksum(p),
    }
}

/// The per-chunk pieces `(chunk, chunk-local start, rows)` covering rows
/// `[start, start + rows)` of a column. Every chunk but the last holds
/// exactly [`CHUNK_ROWS`] rows, so no header needs consulting.
fn chunk_pieces(start: usize, rows: usize) -> impl Iterator<Item = (usize, usize, usize)> {
    let end = start + rows;
    let mut abs = start;
    std::iter::from_fn(move || {
        (abs < end).then(|| {
            let (ci, local) = (abs / CHUNK_ROWS, abs % CHUNK_ROWS);
            let n = (end - abs).min(CHUNK_ROWS - local);
            abs += n;
            (ci, local, n)
        })
    })
}

/// Exact exception count among the gathered (ascending) positions.
/// Iterates the (few) exceptions inside the selection's span and
/// binary-searches each one, so the cost scales with the patch list,
/// not with the number of selected positions.
fn sel_exceptions(exc_pos: &[u32], sel: &[u32]) -> u64 {
    let (Some(&first), Some(&last)) = (sel.first(), sel.last()) else {
        return 0;
    };
    let lo = exc_pos.partition_point(|&p| p < first);
    let hi = exc_pos.partition_point(|&p| p <= last);
    exc_pos[lo..hi]
        .iter()
        .filter(|&&p| sel.binary_search(&p).is_ok())
        .count() as u64
}

/// Exceptions falling in `[start, start + n)` of a sorted patch list.
fn window_exceptions(exc_pos: &[u32], start: usize, n: usize) -> u64 {
    let lo = exc_pos.partition_point(|&p| (p as usize) < start);
    let hi = exc_pos.partition_point(|&p| (p as usize) < start + n);
    (hi - lo) as u64
}

/// Compress `data` in a specific format, or `None` when the format does
/// not apply to this column (wrong type, unsorted for PFOR-DELTA,
/// cardinality too high for PDICT). `Raw` always yields `None`.
pub fn compress_column_as(data: &ColumnData, format: ChunkFormat) -> Option<CompressedColumn> {
    if data.is_empty() {
        return None;
    }
    let (chunks, dict, dict_lane) = match format {
        ChunkFormat::Raw => return None,
        ChunkFormat::Pfor => (pfor_chunks(data)?, None, 0),
        ChunkFormat::PforDelta => (pfordelta_chunks(data)?, None, 0),
        ChunkFormat::Pdict => {
            let (chunks, dict, lane) = pdict_chunks(data)?;
            (chunks, Some(dict), lane)
        }
    };
    Some(CompressedColumn::assemble(
        format,
        data.scalar_type(),
        data.len(),
        data.byte_size() as u64,
        chunks,
        dict,
        dict_lane,
    ))
}

/// The per-column format chooser: samples sort order and cardinality,
/// compresses with every applicable format, and keeps the smallest
/// result — unless even the winner saves less than 10% of the raw
/// bytes, in which case the column stays raw (`None`).
pub fn choose_and_compress(data: &ColumnData) -> Option<CompressedColumn> {
    let mut candidates: Vec<ChunkFormat> = Vec::new();
    match data {
        ColumnData::Str(_) => candidates.push(ChunkFormat::Pdict),
        ColumnData::F64(_) => {
            candidates.push(ChunkFormat::Pfor);
            candidates.push(ChunkFormat::Pdict);
        }
        _ => {
            candidates.push(ChunkFormat::Pfor);
            if is_sorted(data) {
                candidates.push(ChunkFormat::PforDelta);
            }
            if matches!(data, ColumnData::I32(_) | ColumnData::I64(_)) {
                candidates.push(ChunkFormat::Pdict);
            }
        }
    }
    let best = candidates
        .into_iter()
        .filter_map(|f| compress_column_as(data, f))
        .min_by_key(|c| c.compressed_bytes)?;
    // Fall back to raw unless compression saves at least 10%.
    if best.compressed_bytes * 10 <= best.raw_bytes * 9 {
        Some(best)
    } else {
        None
    }
}

fn is_sorted(data: &ColumnData) -> bool {
    match data {
        ColumnData::I8(v) => v.windows(2).all(|w| w[0] <= w[1]),
        ColumnData::I16(v) => v.windows(2).all(|w| w[0] <= w[1]),
        ColumnData::I32(v) => v.windows(2).all(|w| w[0] <= w[1]),
        ColumnData::I64(v) => v.windows(2).all(|w| w[0] <= w[1]),
        ColumnData::U8(v) => v.windows(2).all(|w| w[0] <= w[1]),
        ColumnData::U16(v) => v.windows(2).all(|w| w[0] <= w[1]),
        ColumnData::U32(v) => v.windows(2).all(|w| w[0] <= w[1]),
        ColumnData::U64(v) => v.windows(2).all(|w| w[0] <= w[1]),
        ColumnData::F64(_) | ColumnData::Str(_) => false,
    }
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

fn pfor_chunks(data: &ColumnData) -> Option<Vec<CompressedChunk>> {
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
        ColumnData::I8(v) => chunked!(v, k::compress_pfor_i8_col),
        ColumnData::I16(v) => chunked!(v, k::compress_pfor_i16_col),
        ColumnData::I32(v) => chunked!(v, k::compress_pfor_i32_col),
        ColumnData::I64(v) => chunked!(v, k::compress_pfor_i64_col),
        ColumnData::U8(v) => chunked!(v, k::compress_pfor_u8_col),
        ColumnData::U16(v) => chunked!(v, k::compress_pfor_u16_col),
        ColumnData::U32(v) => chunked!(v, k::compress_pfor_u32_col),
        ColumnData::U64(v) => chunked!(v, k::compress_pfor_u64_col),
        ColumnData::F64(v) => chunked!(v, k::compress_pfor_f64_col),
        ColumnData::Str(_) => return None,
    })
}

fn pfordelta_chunks(data: &ColumnData) -> Option<Vec<CompressedChunk>> {
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
        ColumnData::I8(v) => chunked!(v, k::compress_pfordelta_i8_col, k::compress_pfor_i8_col),
        ColumnData::I16(v) => chunked!(v, k::compress_pfordelta_i16_col, k::compress_pfor_i16_col),
        ColumnData::I32(v) => chunked!(v, k::compress_pfordelta_i32_col, k::compress_pfor_i32_col),
        ColumnData::I64(v) => chunked!(v, k::compress_pfordelta_i64_col, k::compress_pfor_i64_col),
        ColumnData::U8(v) => chunked!(v, k::compress_pfordelta_u8_col, k::compress_pfor_u8_col),
        ColumnData::U16(v) => chunked!(v, k::compress_pfordelta_u16_col, k::compress_pfor_u16_col),
        ColumnData::U32(v) => chunked!(v, k::compress_pfordelta_u32_col, k::compress_pfor_u32_col),
        ColumnData::U64(v) => chunked!(v, k::compress_pfordelta_u64_col, k::compress_pfor_u64_col),
        ColumnData::F64(_) | ColumnData::Str(_) => return None,
    })
}

/// Cardinality cap for PDICT on numeric columns: beyond this the
/// binary-search encode and the dictionary itself stop paying.
const PDICT_NUMERIC_CAP: usize = 4096;

/// Cardinality cap for PDICT on string columns (2-byte codes).
const PDICT_STR_CAP: usize = 65536;

fn pdict_chunks(data: &ColumnData) -> Option<(Vec<CompressedChunk>, ColumnData, u32)> {
    macro_rules! numeric {
        ($v:expr, $variant:ident, $comp:path) => {{
            let mut dict: Vec<_> = $v.clone();
            dict.sort_unstable();
            dict.dedup();
            if dict.len() > PDICT_NUMERIC_CAP {
                return None;
            }
            let lane: u32 = if dict.len() <= 256 { 8 } else { 16 };
            let chunks = $v
                .chunks(CHUNK_ROWS)
                .map(|s| {
                    let payload = $comp(s, &dict, lane).expect("dict covers the column");
                    CompressedChunk {
                        header: pdict_header(s.len(), lane, &payload),
                        body: ChunkBody::Pdict(payload),
                    }
                })
                .collect();
            Some((chunks, ColumnData::$variant(dict), lane))
        }};
    }
    match data {
        ColumnData::I32(v) => numeric!(v, I32, k::compress_pdict_i32_col),
        ColumnData::I64(v) => numeric!(v, I64, k::compress_pdict_i64_col),
        ColumnData::F64(v) => {
            let mut dict: Vec<f64> = v.clone();
            dict.sort_unstable_by(|a, b| a.total_cmp(b));
            dict.dedup_by(|a, b| a.to_bits() == b.to_bits());
            if dict.len() > PDICT_NUMERIC_CAP {
                return None;
            }
            let lane: u32 = if dict.len() <= 256 { 8 } else { 16 };
            let chunks = v
                .chunks(CHUNK_ROWS)
                .map(|s| {
                    let payload =
                        k::compress_pdict_f64_col(s, &dict, lane).expect("dict covers the column");
                    CompressedChunk {
                        header: pdict_header(s.len(), lane, &payload),
                        body: ChunkBody::Pdict(payload),
                    }
                })
                .collect();
            Some((chunks, ColumnData::F64(dict), lane))
        }
        ColumnData::Str(v) => {
            let mut sorted: Vec<&str> = v.iter().collect();
            sorted.sort_unstable();
            sorted.dedup();
            if sorted.len() > PDICT_STR_CAP {
                return None;
            }
            let dict: StrVec = sorted.iter().copied().collect();
            let lane: u32 = if dict.len() <= 256 { 8 } else { 16 };
            let mut chunks = Vec::new();
            let mut start = 0usize;
            while start < v.len() {
                let n = (v.len() - start).min(CHUNK_ROWS);
                let mut slice = StrVec::with_capacity(n, 8);
                for i in start..start + n {
                    slice.push(v.get(i));
                }
                let payload =
                    k::compress_pdict_str_col(&slice, &dict, lane).expect("dict covers the column");
                chunks.push(CompressedChunk {
                    header: pdict_header(n, lane, &payload),
                    body: ChunkBody::Pdict(payload),
                });
                start += n;
            }
            Some((chunks, ColumnData::Str(dict), lane))
        }
        _ => None,
    }
}

fn pdict_header(rows: usize, lane: u32, payload: &[u8]) -> ChunkHeader {
    ChunkHeader {
        format: ChunkFormat::Pdict,
        lane: lane as u8,
        checksum: fold_checksum(payload),
        rows: rows as u32,
        scale: 0,
        base: 0,
        payload_bytes: payload.len() as u32,
        exceptions: 0,
        sync_points: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(data: &ColumnData, format: ChunkFormat) -> CompressedColumn {
        let col = compress_column_as(data, format).expect("format applies");
        let mut out = Vector::with_capacity(data.scalar_type(), 1024);
        let mut cursor = DecodeCursor::default();
        let mut scratch = Vec::new();
        // Decode in 1000-row vectors (deliberately misaligned with both
        // CHUNK_ROWS and DELTA_SYNC) and compare to read_into.
        let mut want = Vector::with_capacity(data.scalar_type(), 1024);
        let mut at = 0usize;
        while at < data.len() {
            let n = (data.len() - at).min(1000);
            col.decode_range(at, n, &mut out, &mut cursor, &mut scratch)
                .expect("checksum verifies");
            data.read_into(at, n, &mut want);
            assert_eq!(out, want, "window at {at}");
            at += n;
        }
        col
    }

    #[test]
    fn pfor_column_roundtrip_multi_chunk() {
        let v: Vec<i64> = (0..150_000).map(|i| 50 + (i * 7) % 200).collect();
        let col = roundtrip(&ColumnData::I64(v), ChunkFormat::Pfor);
        assert_eq!(col.num_chunks(), 3);
        assert!(col.ratio_pct() < 20, "8-byte ints in a 1-byte range");
        assert_eq!(col.decode_sig(), "decompress_pfor_i64_col");
    }

    #[test]
    fn pfor_f64_column_roundtrip() {
        let v: Vec<f64> = (0..80_000).map(|i| (i % 5000) as f64 / 100.0).collect();
        let col = roundtrip(&ColumnData::F64(v), ChunkFormat::Pfor);
        assert!(
            col.ratio_pct() <= 30,
            "cents fit 2 bytes: {}",
            col.ratio_pct()
        );
    }

    #[test]
    fn pfordelta_column_roundtrip_with_cursor() {
        let v: Vec<i32> = (0..200_000).map(|i| i * 2).collect();
        let col = roundtrip(&ColumnData::I32(v), ChunkFormat::PforDelta);
        assert!(col.ratio_pct() < 40, "constant deltas: {}", col.ratio_pct());
        assert_eq!(col.decode_sig(), "decompress_pfordelta_i32_col");
    }

    #[test]
    fn pfordelta_random_access_ignores_cursor() {
        let v: Vec<u64> = (0..100_000u64).map(|i| i * i / 1000).collect();
        let data = ColumnData::U64(v.clone());
        let col = compress_column_as(&data, ChunkFormat::PforDelta).expect("sorted");
        let mut out = Vector::with_capacity(ScalarType::U64, 64);
        let mut scratch = Vec::new();
        // Jump around: each decode must be position-correct regardless
        // of the stale cursor.
        for start in [70_000usize, 3, 65_530, 99_990, 0] {
            let mut cursor = DecodeCursor {
                chunk: 1,
                next_row: 12345,
                carry: 999,
                verified: None,
            };
            let n = 10.min(v.len() - start);
            col.decode_range(start, n, &mut out, &mut cursor, &mut scratch)
                .expect("checksum verifies");
            assert_eq!(out.as_u64(), &v[start..start + n]);
        }
    }

    #[test]
    fn pdict_str_column_roundtrip() {
        let mut s = StrVec::new();
        for i in 0..70_000 {
            s.push(["AIR", "MAIL", "RAIL", "SHIP", "TRUCK"][i % 5]);
        }
        let col = roundtrip(&ColumnData::Str(s), ChunkFormat::Pdict);
        assert_eq!(col.decode_sig(), "decompress_pdict_str_col");
        assert!(col.ratio_pct() < 30, "1-byte codes vs 4+-byte strings");
    }

    #[test]
    fn pdict_f64_column_roundtrip() {
        let v: Vec<f64> = (0..50_000)
            .map(|i| [0.0, -0.0, 0.04, 0.07][i % 4])
            .collect();
        let col = roundtrip(&ColumnData::F64(v), ChunkFormat::Pdict);
        assert_eq!(col.format(), ChunkFormat::Pdict);
    }

    #[test]
    fn chooser_prefers_delta_on_sorted_keys() {
        let v: Vec<i64> = (0..100_000).collect();
        let col = choose_and_compress(&ColumnData::I64(v)).expect("compresses");
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
        assert!(choose_and_compress(&ColumnData::U64(v)).is_none());
    }

    #[test]
    fn chooser_picks_pdict_for_low_cardinality_strings() {
        let mut s = StrVec::new();
        for i in 0..30_000 {
            s.push(if i % 2 == 0 { "YES" } else { "NO" });
        }
        let col = choose_and_compress(&ColumnData::Str(s)).expect("compresses");
        assert_eq!(col.format(), ChunkFormat::Pdict);
    }

    #[test]
    fn empty_column_stays_raw() {
        assert!(choose_and_compress(&ColumnData::I64(Vec::new())).is_none());
        assert!(compress_column_as(&ColumnData::I64(Vec::new()), ChunkFormat::Pfor).is_none());
    }

    #[test]
    fn decode_stats_account_compressed_bytes() {
        let v: Vec<i64> = (0..70_000).map(|i| i % 100).collect();
        let data = ColumnData::I64(v);
        let col = compress_column_as(&data, ChunkFormat::Pfor).expect("compresses");
        let mut out = Vector::with_capacity(ScalarType::I64, 1024);
        let mut cursor = DecodeCursor::default();
        let mut scratch = Vec::new();
        let stats = col
            .decode_range(66_000, 1024, &mut out, &mut cursor, &mut scratch)
            .expect("checksum verifies");
        // Lane-8 frames: ~1 byte per row plus the header, far below raw.
        assert!(stats.comp_len >= 1024);
        assert!(stats.comp_len < 8 * 1024);
        assert!(stats.comp_offset > 0, "second chunk starts past the first");
    }

    #[test]
    fn pushdown_pfor_matches_decode_then_select() {
        let mut v: Vec<i64> = (0..150_000).map(|i| 50 + (i * 7) % 200).collect();
        // Outliers become exception-patched slow-lane entries.
        v[123] = 1_000_000;
        v[70_000] = -5;
        let data = ColumnData::I64(v.clone());
        let col = compress_column_as(&data, ChunkFormat::Pfor).expect("applies");
        type Pred = Box<dyn Fn(i64) -> bool>;
        let cases: Vec<(PushOp, i64, Option<i64>, Pred)> = vec![
            (PushOp::Eq, 57, None, Box::new(|x| x == 57)),
            (PushOp::Lt, 60, None, Box::new(|x| x < 60)),
            (PushOp::Le, 60, None, Box::new(|x| x <= 60)),
            (PushOp::Gt, 240, None, Box::new(|x| x > 240)),
            (PushOp::Ge, 240, None, Box::new(|x| x >= 240)),
            (
                PushOp::Between,
                55,
                Some(65),
                Box::new(|x| (55..=65).contains(&x)),
            ),
        ];
        for (op, lo, hi, f) in cases {
            let w = hi.map(Value::I64);
            let p = col
                .compile_pushdown(op, &Value::I64(lo), w.as_ref())
                .expect("pfor i64 pushdown compiles");
            assert!(!p.is_dict_rewrite());
            let mut cursor = DecodeCursor::default();
            let mut tmp = Vec::new();
            let mut at = 0usize;
            while at < v.len() {
                let n = (v.len() - at).min(1000);
                let mut got = Vec::new();
                col.select_range(&p, at, n, &mut got, &mut cursor)
                    .expect("checksum verifies");
                let want: Vec<u32> = (0..n).filter(|&i| f(v[at + i])).map(|i| i as u32).collect();
                assert_eq!(got, want, "{op:?} window at {at}");
                let mut out = Vector::with_capacity(ScalarType::I64, 64);
                col.decode_positions(at, &got, &mut out, &mut tmp, &mut cursor)
                    .expect("checksum verifies");
                let wantv: Vec<i64> = got.iter().map(|&i| v[at + i as usize]).collect();
                assert_eq!(out.as_i64(), &wantv[..], "{op:?} values at {at}");
                at += n;
            }
        }
    }

    #[test]
    fn pushdown_pdict_str_never_decodes_unselected() {
        let name = |i: usize| ["AIR", "MAIL", "RAIL", "SHIP", "TRUCK"][i % 5];
        let mut s = StrVec::new();
        for i in 0..70_000 {
            s.push(name(i));
        }
        let col = compress_column_as(&ColumnData::Str(s), ChunkFormat::Pdict).expect("applies");
        type Pred = Box<dyn Fn(&str) -> bool>;
        let cases: Vec<(PushOp, Pred)> = vec![
            (PushOp::Eq, Box::new(|x| x == "SHIP")),
            (PushOp::Ne, Box::new(|x| x != "SHIP")),
            (PushOp::Lt, Box::new(|x| x < "SHIP")),
            (PushOp::Ge, Box::new(|x| x >= "SHIP")),
        ];
        for (op, f) in cases {
            let p = col
                .compile_pushdown(op, &Value::Str("SHIP".into()), None)
                .expect("dict rewrite compiles");
            assert!(p.is_dict_rewrite());
            assert_eq!(p.sig(), format!("cmp_pdict_{}_str_col_val", op.name()));
            let mut cursor = DecodeCursor::default();
            let mut tmp = Vec::new();
            let mut got = Vec::new();
            // A window crossing the 65536-row chunk boundary.
            col.select_range(&p, 64_000, 3_000, &mut got, &mut cursor)
                .expect("checksum verifies");
            let want: Vec<u32> = (0..3_000)
                .filter(|&i| f(name(64_000 + i)))
                .map(|i| i as u32)
                .collect();
            assert_eq!(got, want, "{op:?}");
            let mut out = Vector::with_capacity(ScalarType::Str, 8);
            col.decode_positions(64_000, &got, &mut out, &mut tmp, &mut cursor)
                .expect("checksum verifies");
            match &out {
                Vector::Str(sv) => {
                    assert_eq!(sv.len(), got.len());
                    for (o, &i) in got.iter().enumerate() {
                        assert_eq!(sv.get(o), name(64_000 + i as usize), "{op:?}");
                    }
                }
                other => panic!("str gather into {:?}", other.scalar_type()),
            }
        }
    }

    #[test]
    fn pushdown_rejects_unsupported_triples() {
        let sorted: Vec<i64> = (0..100_000).collect();
        let delta =
            compress_column_as(&ColumnData::I64(sorted), ChunkFormat::PforDelta).expect("sorted");
        assert!(
            delta
                .compile_pushdown(PushOp::Eq, &Value::I64(5), None)
                .is_none(),
            "prefix sums cannot be compared in place"
        );
        let v: Vec<i64> = (0..80_000).map(|i| i % 100).collect();
        let pfor = compress_column_as(&ColumnData::I64(v.clone()), ChunkFormat::Pfor).expect("ok");
        assert!(
            pfor.compile_pushdown(PushOp::Ne, &Value::I64(5), None)
                .is_none(),
            "ne needs dictionary codes"
        );
        assert!(
            pfor.compile_pushdown(PushOp::Eq, &Value::I32(5), None)
                .is_none(),
            "constant type must match the column"
        );
        assert!(
            pfor.compile_pushdown(PushOp::Eq, &Value::I64(5), Some(&Value::I64(9)))
                .is_none(),
            "stray upper bound"
        );
        assert!(
            pfor.compile_pushdown(PushOp::Between, &Value::I64(5), None)
                .is_none(),
            "missing upper bound"
        );
        let pdict = compress_column_as(&ColumnData::I64(v), ChunkFormat::Pdict).expect("ok");
        assert!(
            pdict
                .compile_pushdown(PushOp::Between, &Value::I64(5), Some(&Value::I64(9)))
                .is_none(),
            "between stays a PFOR-frame rewrite"
        );
        assert!(
            pdict
                .compile_pushdown(PushOp::Ne, &Value::I64(5), None)
                .is_some(),
            "ne over codes is the PDICT-only op"
        );
    }

    #[test]
    fn checksum_detects_torn_write() {
        let v: Vec<i64> = (0..150_000).map(|i| i % 100).collect();
        let data = ColumnData::I64(v);
        let mut col = compress_column_as(&data, ChunkFormat::Pfor).expect("applies");
        assert!(col.verify_chunk(1).is_ok());
        assert!(col.corrupt_payload_byte(1, 7), "chunk 1 has payload");
        let err = col.verify_chunk(1).unwrap_err();
        assert!(err.contains("checksum mismatch"), "{err}");
        let mut out = Vector::with_capacity(ScalarType::I64, 1024);
        let mut scratch = Vec::new();
        // The intact chunk still reads; any window touching the torn
        // chunk refuses — wrong rows can never escape.
        let mut cursor = DecodeCursor::default();
        col.decode_range(0, 1000, &mut out, &mut cursor, &mut scratch)
            .expect("chunk 0 is intact");
        let mut cursor = DecodeCursor::default();
        let err = col
            .decode_range(66_000, 100, &mut out, &mut cursor, &mut scratch)
            .unwrap_err();
        assert!(err.contains("checksum mismatch"), "{err}");
        let p = col
            .compile_pushdown(PushOp::Ge, &Value::I64(50), None)
            .expect("compiles");
        let mut got = Vec::new();
        let mut cursor = DecodeCursor::default();
        assert!(col
            .select_range(&p, 66_000, 100, &mut got, &mut cursor)
            .is_err());
    }

    #[test]
    fn gather_seeks_all_formats() {
        let mut scratch = Vec::new();
        let mut tmp = Vec::new();
        // PFOR-DELTA: the rowid-column shape — runs seek from sync
        // carries, order and duplicates preserved.
        let v: Vec<u64> = (0..200_000u64).map(|i| i * 3 / 2).collect();
        let col =
            compress_column_as(&ColumnData::U64(v.clone()), ChunkFormat::PforDelta).expect("ok");
        let rowids: Vec<u32> = vec![5, 9, 70_000, 70_001, 65_535, 65_536, 199_999, 0, 0];
        let mut out = Vector::with_capacity(ScalarType::U64, 16);
        let mut cursor = DecodeCursor::default();
        col.gather(&rowids, &mut out, &mut scratch, &mut tmp, &mut cursor)
            .expect("checksum verifies");
        let want: Vec<u64> = rowids.iter().map(|&r| v[r as usize]).collect();
        assert_eq!(out.as_u64(), &want[..]);
        // PFOR f64 goes through the selective decoder.
        let f: Vec<f64> = (0..80_000).map(|i| (i % 5000) as f64 / 100.0).collect();
        let col = compress_column_as(&ColumnData::F64(f.clone()), ChunkFormat::Pfor).expect("ok");
        let rowids: Vec<u32> = vec![0, 4_999, 70_000, 3, 79_999];
        let mut out = Vector::with_capacity(ScalarType::F64, 16);
        let mut cursor = DecodeCursor::default();
        col.gather(&rowids, &mut out, &mut scratch, &mut tmp, &mut cursor)
            .expect("checksum verifies");
        let want: Vec<f64> = rowids.iter().map(|&r| f[r as usize]).collect();
        assert_eq!(out.as_f64(), &want[..]);
        // PDICT strings gather by code.
        let name = |i: usize| ["AIR", "MAIL", "RAIL", "SHIP", "TRUCK"][i % 5];
        let mut s = StrVec::new();
        for i in 0..70_000 {
            s.push(name(i));
        }
        let col = compress_column_as(&ColumnData::Str(s), ChunkFormat::Pdict).expect("ok");
        let rowids: Vec<u32> = vec![3, 69_999, 65_536, 1, 2];
        let mut out = Vector::with_capacity(ScalarType::Str, 8);
        let mut cursor = DecodeCursor::default();
        col.gather(&rowids, &mut out, &mut scratch, &mut tmp, &mut cursor)
            .expect("checksum verifies");
        match &out {
            Vector::Str(sv) => {
                assert_eq!(sv.len(), rowids.len());
                for (o, &r) in rowids.iter().enumerate() {
                    assert_eq!(sv.get(o), name(r as usize));
                }
            }
            other => panic!("str gather into {:?}", other.scalar_type()),
        }
    }

    #[test]
    fn decode_sel_sig_matches_format() {
        let v: Vec<i64> = (0..80_000).map(|i| i % 100).collect();
        let pfor = compress_column_as(&ColumnData::I64(v.clone()), ChunkFormat::Pfor).expect("ok");
        assert_eq!(pfor.decode_sel_sig(), Some("decode_sel_pfor_i64_col"));
        let pdict =
            compress_column_as(&ColumnData::I64(v.clone()), ChunkFormat::Pdict).expect("ok");
        assert_eq!(pdict.decode_sel_sig(), Some("decode_sel_pdict_i64_col"));
        let sorted: Vec<i64> = (0..80_000).collect();
        let delta =
            compress_column_as(&ColumnData::I64(sorted), ChunkFormat::PforDelta).expect("ok");
        assert_eq!(
            delta.decode_sel_sig(),
            None,
            "prefix sums: no gather decode"
        );
    }
}
