//! Compressed column fragments: the storage half of lightweight
//! compression (paper §4.3 / §5).
//!
//! At checkpoint / reorganize time a per-column *format chooser* bounds
//! each format's size from the fragment's sort order and a byte
//! histogram, encodes only the formats that can win, and rewrites the
//! fragment as a sequence of compressed chunks — PFOR or PFOR-DELTA —
//! each carrying a self-describing [`ChunkHeader`] plus exception
//! blocks. Columns where compression would not pay (savings below 10%)
//! stay raw. The scan decompresses vector-at-a-time through
//! [`CompressedColumn::decode_range`], so compressed data stays
//! compressed in the buffer pool and expands only into cache-resident
//! vectors.
//!
//! Dictionary compression is not a chunk format: where a dictionary
//! would beat every chunk format ([`dictionary_wins`]), the checkpoint
//! turns the column into an enumeration type ([`crate::enumcol`]) and
//! its codes go through this chooser like any other integer column.

use crate::frame::{fold_checksum, fold_values, Reader, Writer};
use crate::table::ColumnStats;
use x100_vector::compress as k;
use x100_vector::{ScalarType, Value, Vector};

/// Rows per compressed chunk. A multiple of the vector size and of
/// [`k::DELTA_SYNC`], so vector refills decode aligned lanes.
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
    ) -> CompressedColumn {
        let mut chunk_offsets = Vec::with_capacity(chunks.len());
        let mut off = 0u64;
        for c in &chunks {
            chunk_offsets.push(off);
            off += c.byte_size() as u64;
        }
        CompressedColumn {
            format,
            physical,
            rows,
            chunks,
            chunk_offsets,
            raw_bytes,
            compressed_bytes: off,
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

    /// Decompress rows `[start, start + rows)` into `out` (cleared and
    /// refilled, mirroring `Vector::read_into`). `cursor` carries
    /// sequential decode state between refills; `scratch` is the reused
    /// frame buffer the governor charges. Fails (typed upstream as
    /// `Io`) when a chunk's stored checksum no longer matches its body.
    ///
    /// The whole window decodes even under a selection: a dense decode
    /// is cheaper than gathering even a few survivors (DESIGN.md §11).
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
        // Every position is overwritten by the dense decode below, so
        // only growth needs the zero fill — resizing in place (instead
        // of clear + refill) skips one full store pass per refill once
        // the vector reaches steady state.
        out.resize_zeroed(rows);
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
    /// (prefix sums), `ne` over PFOR frames, or a constant whose type
    /// does not match the column — and the caller falls back to
    /// decode-then-select.
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
        if self.format != ChunkFormat::Pfor || op == PushOp::Ne {
            return None;
        }
        let ty = self.physical.sig_name();
        let sig = if op == PushOp::Between {
            format!("cmp_pfor_between_{ty}_col_val_val")
        } else {
            format!("cmp_pfor_{}_{ty}_col_val", op.name())
        };
        Some(Pushdown {
            op,
            lo: v.clone(),
            hi: w.cloned(),
            sig,
        })
    }

    /// Evaluate a compiled pushdown over rows `[start, start + rows)`
    /// entirely in encoded space: appends the *window-relative*
    /// ascending positions (0 = row `start`) of qualifying rows to
    /// `out` without decoding a single value. `cursor` shares
    /// checksum-verification state with `decode_range`.
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

/// One predicate compiled into a PFOR column's encoded space. The
/// constant is re-translated per chunk (base and scale are per-chunk
/// properties).
#[derive(Debug, Clone)]
pub struct Pushdown {
    op: PushOp,
    lo: Value,
    hi: Option<Value>,
    sig: String,
}

impl Pushdown {
    /// The registered compare-primitive signature this pushdown runs —
    /// `engine::check` verifies it like any compiled instruction.
    pub fn sig(&self) -> &str {
        &self.sig
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

/// Exceptions falling in `[start, start + n)` of a sorted patch list.
fn window_exceptions(exc_pos: &[u32], start: usize, n: usize) -> u64 {
    let lo = exc_pos.partition_point(|&p| (p as usize) < start);
    let hi = exc_pos.partition_point(|&p| (p as usize) < start + n);
    (hi - lo) as u64
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

/// The chooser's dictionary candidate: whether dictionary codes would
/// store `data` — an `i64`, `f64` or `str` fragment — in fewer bytes
/// than `best`, the chooser's verdict for it (`None` = raw), while
/// saving the 10% every format must. The candidate is priced as a chunk
/// format: a header per [`CHUNK_ROWS`] rows, one code per row (one byte
/// up to 256 distinct values, two beyond) and the dictionary itself.
///
/// Bound, then price: the distinct values of a strided sample are a
/// subset of the column's, so more than the cap refuses, more than 256
/// means 2-byte codes, and the dictionary is at least the sample's. The
/// whole column's distinct values are collected only when that bound
/// could still win. `Table::checkpoint` turns a column this answers
/// `true` for into an enumeration type.
pub fn dictionary_wins(data: &Vector, best: Option<&CompressedColumn>) -> bool {
    if data.is_empty() {
        return false;
    }
    let raw = data.byte_size() as u64;
    let beats = |dict: Vector| {
        let headers = data.len().div_ceil(CHUNK_ROWS) * HEADER_BYTES;
        let codes = data.len() * if dict.len() <= 256 { 1 } else { 2 };
        let bytes = (headers + codes + dict.byte_size()) as u64;
        bytes * 10 <= raw * 9 && best.is_none_or(|b| bytes < b.compressed_bytes)
    };
    let step = data.len().div_ceil(DICT_SAMPLE_ROWS);
    distinct_values(data, step).is_some_and(beats) && distinct_values(data, 1).is_some_and(beats)
}

/// The sorted distinct values of every `step`-th row of `data`, or
/// `None` when they exceed the cap for the column's type or the type
/// has no dictionary candidate. Floats are ordered by `total_cmp` and
/// told apart by their bits.
fn distinct_values(data: &Vector, step: usize) -> Option<Vector> {
    match data {
        Vector::I64(v) => {
            let mut dict: Vec<i64> = v.iter().step_by(step).copied().collect();
            dict.sort_unstable();
            dict.dedup();
            (dict.len() <= DICT_NUMERIC_CAP).then_some(Vector::I64(dict))
        }
        Vector::F64(v) => {
            let mut dict: Vec<f64> = v.iter().step_by(step).copied().collect();
            dict.sort_unstable_by(f64::total_cmp);
            dict.dedup_by(|a, b| a.to_bits() == b.to_bits());
            (dict.len() <= DICT_NUMERIC_CAP).then_some(Vector::F64(dict))
        }
        Vector::Str(v) => {
            let mut dict: Vec<&str> = v.iter().step_by(step).collect();
            dict.sort_unstable();
            dict.dedup();
            (dict.len() <= DICT_STR_CAP).then(|| Vector::Str(dict.into_iter().collect()))
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use x100_vector::StrVec;

    fn roundtrip(data: &Vector, format: ChunkFormat) -> CompressedColumn {
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
        let col = roundtrip(&Vector::I64(v), ChunkFormat::Pfor);
        assert_eq!(col.num_chunks(), 3);
        assert!(col.ratio_pct() < 20, "8-byte ints in a 1-byte range");
        assert_eq!(col.decode_sig(), "decompress_pfor_i64_col");
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
    fn pfordelta_column_roundtrip_with_cursor() {
        let v: Vec<i32> = (0..200_000).map(|i| i * 2).collect();
        let col = roundtrip(&Vector::I32(v), ChunkFormat::PforDelta);
        assert!(col.ratio_pct() < 40, "constant deltas: {}", col.ratio_pct());
        assert_eq!(col.decode_sig(), "decompress_pfordelta_i32_col");
    }

    #[test]
    fn pfordelta_random_access_ignores_cursor() {
        let v: Vec<u64> = (0..100_000u64).map(|i| i * i / 1000).collect();
        let data = Vector::U64(v.clone());
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
    fn decode_stats_account_compressed_bytes() {
        let v: Vec<i64> = (0..70_000).map(|i| i % 100).collect();
        let data = Vector::I64(v);
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
        let data = Vector::I64(v.clone());
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
            let mut cursor = DecodeCursor::default();
            let mut scratch = Vec::new();
            let mut at = 0usize;
            while at < v.len() {
                let n = (v.len() - at).min(1000);
                let mut got = Vec::new();
                col.select_range(&p, at, n, &mut got, &mut cursor)
                    .expect("checksum verifies");
                let want: Vec<u32> = (0..n).filter(|&i| f(v[at + i])).map(|i| i as u32).collect();
                assert_eq!(got, want, "{op:?} window at {at}");
                // The refill the selection is applied over: the dense
                // window decode, sharing the select's cursor.
                let mut out = Vector::with_capacity(ScalarType::I64, 64);
                col.decode_range(at, n, &mut out, &mut cursor, &mut scratch)
                    .expect("checksum verifies");
                let gotv: Vec<i64> = got.iter().map(|&i| out.as_i64()[i as usize]).collect();
                let wantv: Vec<i64> = got.iter().map(|&i| v[at + i as usize]).collect();
                assert_eq!(gotv, wantv, "{op:?} values at {at}");
                at += n;
            }
        }
    }

    #[test]
    fn pushdown_rejects_unsupported_triples() {
        let sorted: Vec<i64> = (0..100_000).collect();
        let delta =
            compress_column_as(&Vector::I64(sorted), ChunkFormat::PforDelta).expect("sorted");
        assert!(
            delta
                .compile_pushdown(PushOp::Eq, &Value::I64(5), None)
                .is_none(),
            "prefix sums cannot be compared in place"
        );
        let v: Vec<i64> = (0..80_000).map(|i| i % 100).collect();
        let pfor = compress_column_as(&Vector::I64(v), ChunkFormat::Pfor).expect("ok");
        assert!(
            pfor.compile_pushdown(PushOp::Ne, &Value::I64(5), None)
                .is_none(),
            "ne over a frame range is not contiguous"
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
    }

    #[test]
    fn checksum_detects_torn_write() {
        let v: Vec<i64> = (0..150_000).map(|i| i % 100).collect();
        let data = Vector::I64(v);
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
