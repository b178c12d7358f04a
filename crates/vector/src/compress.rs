//! Lightweight compression kernels: PFOR and PFOR-DELTA.
//!
//! The paper's chunked buffer manager trades "a few cheap, branch-free
//! CPU cycles" of decompression for scarce memory bandwidth, expanding
//! compressed chunks vector-at-a-time into the CPU cache (§4.3, §5).
//! Here scans are not bandwidth-bound, so chunks are only the durable
//! encoding: a durable checkpoint encodes with these kernels and
//! `Table::open` decodes whole columns back into resident fragments
//! (DESIGN.md §11):
//!
//! * **PFOR** — patched frame-of-reference: values are stored as small
//!   offsets from a per-chunk base; values that do not fit the chosen
//!   frame width are *exceptions*, patched in after the dense unpack.
//! * **PFOR-DELTA** — PFOR over the deltas of a non-decreasing (key)
//!   column, with periodic sync carries in the format (today's decoder
//!   replays each chunk whole from its first carry).
//!
//! Low-cardinality columns are not a chunk codec: a checkpoint turns
//! them into enumeration types (`x100_storage::enumcol`, paper §4.3),
//! whose one- or two-byte codes then go through these same kernels.
//!
//! Frames are **byte-aligned** (0, 8, 16, 32 or 64 bits per value)
//! rather than bit-packed: the decode loops become exact-width iterator
//! zips the compiler auto-vectorizes, which is what keeps decompression
//! cheaper than the raw memcpy it replaces — the paper's criterion for
//! *lightweight* compression. The cost in compression ratio versus
//! bit-packing is at most one byte per value and is accounted for by
//! the format chooser (it falls back to raw when compression would not
//! pay).
//!
//! All codecs are exact: decompression reproduces the input
//! *byte-identically* (floats included — an f64 value only avoids the
//! exception list if its decimal-scaled round trip reproduces its exact
//! bit pattern).

/// Exception cost in bytes: a 4-byte chunk-relative position plus an
/// 8-byte absolute frame.
pub const EXC_COST: usize = 12;

/// Sync-carry interval of PFOR-DELTA chunks: one absolute carry per
/// this many values, so a decoder could start at any vector boundary
/// without replaying the whole chunk. The decoders here decode whole
/// chunks; the carries are kept for the byte layout.
pub const DELTA_SYNC: usize = 1024;

/// Order-preserving bijection between a scalar type and the `u64`
/// *frame domain* all integer codecs work in.
pub trait FrameValue: Copy + PartialEq {
    /// Widen to the frame domain.
    fn to_frame(self) -> u64;
    /// Narrow back from the frame domain.
    fn from_frame(f: u64) -> Self;
}

const SIGN: u64 = 1 << 63;

macro_rules! frame_unsigned {
    ($($ty:ty),*) => {$(
        impl FrameValue for $ty {
            #[inline(always)]
            fn to_frame(self) -> u64 { self as u64 }
            #[inline(always)]
            fn from_frame(f: u64) -> Self { f as $ty }
        }
    )*};
}

macro_rules! frame_signed {
    ($($ty:ty),*) => {$(
        impl FrameValue for $ty {
            #[inline(always)]
            fn to_frame(self) -> u64 { (self as i64 as u64) ^ SIGN }
            #[inline(always)]
            fn from_frame(f: u64) -> Self { ((f ^ SIGN) as i64) as $ty }
        }
    )*};
}

frame_unsigned!(u8, u16, u32, u64);
frame_signed!(i8, i16, i32, i64);

/// One PFOR-compressed chunk: `lane`-bit frames relative to `base`,
/// plus patch lists for the values that did not fit.
#[derive(Debug, Clone, Default)]
pub struct PforChunk {
    /// Bits per packed frame: 0, 8, 16, 32 or 64.
    pub lane: u32,
    /// Frame-domain base (the chunk minimum over non-exception values).
    pub base: u64,
    /// Decimal scale for f64 columns (`0` marks integer frames): the
    /// stored frame is `round(value * scale)`, offset-encoded.
    pub scale: u32,
    /// Little-endian packed frames, `rows * lane / 8` bytes.
    pub payload: Vec<u8>,
    /// Ascending chunk-relative positions of exceptions.
    pub exc_pos: Vec<u32>,
    /// Exception payloads: absolute frames for integer chunks, raw
    /// `f64::to_bits` patterns for scaled-float chunks.
    pub exc_frames: Vec<u64>,
}

impl PforChunk {
    /// Compressed footprint (payload + patch lists), excluding headers.
    pub fn byte_size(&self) -> usize {
        self.payload.len() + self.exc_pos.len() * EXC_COST
    }
}

/// One PFOR-DELTA-compressed chunk: PFOR over the deltas of a
/// non-decreasing sequence, with absolute sync carries every
/// [`DELTA_SYNC`] values.
#[derive(Debug, Clone, Default)]
pub struct PforDeltaChunk {
    /// Bits per packed delta frame: 0, 8, 16, 32 or 64.
    pub lane: u32,
    /// Minimum delta over the chunk (frame domain).
    pub base: u64,
    /// Little-endian packed `delta - base` frames.
    pub payload: Vec<u8>,
    /// `sync[k]` is the carry in effect at position `k * DELTA_SYNC`:
    /// the accumulated frame of the *previous* value, so decode may
    /// start at any sync boundary.
    pub sync: Vec<u64>,
    /// Ascending chunk-relative positions of delta exceptions.
    pub exc_pos: Vec<u32>,
    /// Absolute delta frames of the exceptions.
    pub exc_frames: Vec<u64>,
}

impl PforDeltaChunk {
    /// Compressed footprint (payload + sync carries + patch lists).
    pub fn byte_size(&self) -> usize {
        self.payload.len() + self.sync.len() * 8 + self.exc_pos.len() * EXC_COST
    }
}

/// Smallest byte-aligned lane holding a relative frame.
#[inline(always)]
fn lane_for(rel: u64) -> u32 {
    if rel == 0 {
        0
    } else if rel < 1 << 8 {
        8
    } else if rel < 1 << 16 {
        16
    } else if rel < 1 << 32 {
        32
    } else {
        64
    }
}

/// Pick the lane minimizing `rows * lane/8 + EXC_COST * exceptions`.
/// `wide[i]` counts non-exception values whose relative frame needs
/// more than `{0, 8, 16, 32}` bits; `forced` counts values that are
/// exceptions at every lane.
fn choose_lane(rows: usize, wide: [usize; 4], forced: usize) -> u32 {
    let mut best_lane = 64u32;
    let mut best_cost = rows * 8 + forced * EXC_COST;
    for (lane, over) in [(0u32, wide[0]), (8, wide[1]), (16, wide[2]), (32, wide[3])] {
        let cost = rows * (lane as usize / 8) + (over + forced) * EXC_COST;
        if cost < best_cost {
            best_cost = cost;
            best_lane = lane;
        }
    }
    best_lane
}

/// Largest relative frame a lane can hold.
#[inline(always)]
fn lane_mask(lane: u32) -> u64 {
    if lane == 64 {
        u64::MAX
    } else {
        (1u64 << lane) - 1
    }
}

/// Jointly pick `(lane, base)` minimizing
/// `rows * lane/8 + EXC_COST * exceptions` — the base is the start of
/// the densest sorted window of each lane's width, so outliers on
/// *either* side of the value cluster become exceptions instead of
/// widening the frame (the "patched" in patched frame-of-reference).
fn choose_lane_base(rows: usize, sorted: &[u64], forced: usize) -> (u32, u64) {
    let mut best_lane = 64u32;
    let mut best_base = sorted.first().copied().unwrap_or(0);
    let mut best_cost = rows * 8 + forced * EXC_COST;
    for lane in [0u32, 8, 16, 32] {
        let width = lane_mask(lane);
        let mut covered = 0usize;
        let mut base = best_base;
        let mut lo = 0usize;
        for hi in 0..sorted.len() {
            // lint: allow-index-loop (two-pointer window over sorted frames)
            while sorted[hi] - sorted[lo] > width {
                lo += 1;
            }
            if hi - lo + 1 > covered {
                covered = hi - lo + 1;
                base = sorted[lo];
            }
        }
        let cost = rows * (lane as usize / 8) + (sorted.len() - covered + forced) * EXC_COST;
        if cost < best_cost {
            best_cost = cost;
            best_lane = lane;
            best_base = base;
        }
    }
    (best_lane, best_base)
}

/// Append one `lane`-bit frame to a little-endian payload.
#[inline(always)]
fn push_lane(payload: &mut Vec<u8>, lane: u32, rel: u64) {
    match lane {
        0 => {}
        8 => payload.push(rel as u8),
        16 => payload.extend_from_slice(&(rel as u16).to_le_bytes()),
        32 => payload.extend_from_slice(&(rel as u32).to_le_bytes()),
        _ => payload.extend_from_slice(&rel.to_le_bytes()),
    }
}

/// Unpack-and-map of a whole chunk: applies `f` to each *relative*
/// frame of a little-endian payload and stores the result in `out`, one
/// per row. One exact-width zip loop per lane so each instantiation
/// auto-vectorizes; `f` must be a branch-free `Copy` closure for that to
/// hold.
#[inline(always)]
fn unpack_map<T: Copy, F: Fn(u64) -> T + Copy>(out: &mut [T], payload: &[u8], lane: u32, f: F) {
    match lane {
        0 => out.fill(f(0)),
        8 => {
            for (o, &b) in out.iter_mut().zip(payload) {
                *o = f(b as u64);
            }
        }
        16 => {
            for (o, c) in out.iter_mut().zip(payload.chunks_exact(2)) {
                *o = f(u16::from_le_bytes([c[0], c[1]]) as u64);
            }
        }
        32 => {
            for (o, c) in out.iter_mut().zip(payload.chunks_exact(4)) {
                *o = f(u32::from_le_bytes([c[0], c[1], c[2], c[3]]) as u64);
            }
        }
        _ => {
            for (o, c) in out.iter_mut().zip(payload.chunks_exact(8)) {
                let mut w = [0u8; 8];
                w.copy_from_slice(c);
                *o = f(u64::from_le_bytes(w));
            }
        }
    }
}

// ---------------------------------------------------------------------
// PFOR
// ---------------------------------------------------------------------

/// The byte-aligned lanes, narrowest first.
const LANES: [u32; 5] = [0, 8, 16, 32, 64];

/// Most buckets (as a power of two) of [`spanning_lane_base`]'s
/// histogram: a coarser histogram only loosens the bound.
const SPAN_HIST_BITS: u32 = 12;

/// [`choose_lane_base`]'s verdict, proven without sorting — or `None`
/// when the proof fails and the sort must decide.
///
/// One pass finds the frames' `[min, max]` and the narrowest lane `S`
/// spanning it: at `S` every frame fits, so its cost is
/// `rows * S/8 + forced * EXC_COST` with base `min`, and every wider
/// lane costs more. A narrower lane `L` covers at most the densest
/// window of `2^L` consecutive frames, and such a window touches at
/// most two adjacent aligned buckets of a histogram whose buckets are
/// at least `2^L` wide — the next-narrower lane's width, or coarser.
/// When that bound leaves every narrower lane strictly costlier than
/// `S` (or no cheaper than lane 64, which `choose_lane_base` keeps on a
/// tie), the verdict is `(S, min)` exactly as the sorted path finds it.
fn spanning_lane_base(frames: &[Result<u64, u64>]) -> Option<(u32, u64)> {
    let (mut min, mut max, mut n) = (u64::MAX, 0u64, 0usize);
    for &v in frames.iter().flatten() {
        min = min.min(v);
        max = max.max(v);
        n += 1;
    }
    if n == 0 {
        return None;
    }
    let (rows, span) = (frames.len(), max - min);
    let s = LANES.iter().position(|&l| span <= lane_mask(l))?;
    let lane = LANES[s];
    let cost = rows * (lane as usize / 8) + (rows - n) * EXC_COST;
    if s == 0 {
        return Some((lane, min));
    }
    let bits = 64 - span.leading_zeros();
    let shift = LANES[s - 1].max(bits.saturating_sub(SPAN_HIST_BITS));
    let mut hist = vec![0u32; (span >> shift) as usize + 1];
    for &v in frames.iter().flatten() {
        hist[((v - min) >> shift) as usize] += 1;
    }
    let densest = hist.windows(2).map(|w| w[0] + w[1]).max();
    let densest = densest.unwrap_or(hist[0]) as usize;
    let beaten = |l: &u32| {
        let floor = rows * (*l as usize / 8) + (rows - densest) * EXC_COST;
        floor > cost || (lane == 64 && floor == cost)
    };
    LANES[..s].iter().all(beaten).then_some((lane, min))
}

/// [`choose_lane_base`] over the sorted regular frames.
fn sorted_lane_base(frames: &[Result<u64, u64>]) -> (u32, u64) {
    let mut sorted: Vec<u64> = frames.iter().filter_map(|f| f.ok()).collect();
    let forced = frames.len() - sorted.len();
    sorted.sort_unstable();
    choose_lane_base(frames.len(), &sorted, forced)
}

/// Shared PFOR encoder over frames materialized once. `frames[i]` is
/// `Ok(frame)` for regular values and `Err(raw)` for values that must
/// be exceptions at every lane (non-representable scaled floats). The
/// lane and base are [`spanning_lane_base`]'s when it proves them, the
/// sorted path's otherwise — the same verdict either way.
fn pfor_encode_frames(frames: &[Result<u64, u64>]) -> PforChunk {
    let (lane, base) = spanning_lane_base(frames).unwrap_or_else(|| sorted_lane_base(frames));
    pfor_pack(frames, lane, base)
}

/// Pack `frames` at `lane` bits above `base`; a frame outside the lane,
/// or forced, becomes an exception.
fn pfor_pack(frames: &[Result<u64, u64>], lane: u32, base: u64) -> PforChunk {
    let rows = frames.len();
    let mask = lane_mask(lane);
    let mut c = PforChunk {
        lane,
        base,
        scale: 0,
        payload: Vec::with_capacity(rows * (lane as usize / 8)),
        exc_pos: Vec::new(),
        exc_frames: Vec::new(),
    };
    for (i, &f) in frames.iter().enumerate() {
        match f {
            Ok(v) if v >= base && v - base <= mask => push_lane(&mut c.payload, lane, v - base),
            Ok(v) | Err(v) => {
                push_lane(&mut c.payload, lane, 0);
                c.exc_pos.push(i as u32);
                c.exc_frames.push(v);
            }
        }
    }
    c
}

fn pfor_encode_int<T: FrameValue>(values: &[T]) -> PforChunk {
    let frames: Vec<Result<u64, u64>> = values.iter().map(|v| Ok(v.to_frame())).collect();
    pfor_encode_frames(&frames)
}

fn pfor_decode_int<T: FrameValue>(out: &mut [T], c: &PforChunk) {
    let base = c.base;
    unpack_map(out, &c.payload, c.lane, move |rel| {
        T::from_frame(base.wrapping_add(rel))
    });
    for (&p, &f) in c.exc_pos.iter().zip(&c.exc_frames) {
        out[p as usize] = T::from_frame(f);
    }
}

/// Decimal scales tried for f64 frame-of-reference, smallest first.
const F64_SCALES: [u32; 5] = [1, 10, 100, 1000, 10000];

/// Frame of a scaled float, or `None` when `value` does not survive the
/// scaled round trip bit-exactly (then it must be an exception). The
/// round trip divides by the scale with the *identical expression* the
/// decoder uses, so decode is byte-exact by construction — division is
/// correctly rounded, which makes decimal data originally produced as
/// `int / scale` representable with no exceptions (a reciprocal
/// multiply would miss by an ulp on many such values).
#[inline]
fn f64_frame(v: f64, scale: f64) -> Option<u64> {
    let r = (v * scale).round();
    if r.abs() <= 9.0e15 {
        let i = r as i64;
        if ((i as f64) / scale).to_bits() == v.to_bits() {
            return Some((i as u64) ^ SIGN);
        }
    }
    None
}

// -- division-free decode fast paths ----------------------------------
//
// The hot f64 decode loop must not pay a hardware divide (or a scalar
// int→float conversion) per element on baseline x86-64, or decoding
// loses to the raw memcpy it is supposed to beat. Two exact tricks:
//
// * int→f64 by magic constant: for |i| < 2^51, interpreting
//   `bits(2^52 + 2^51) + i` as a double yields exactly `2^52 + 2^51 + i`,
//   and subtracting the magic recovers `i` with one integer add and one
//   fp subtract — both auto-vectorizable, unlike `cvtsi2sd`.
// * divide by decimal scale as a double product: split `1/scale` into a
//   truncated head `hi` short enough that `i * hi` is *exact* for every
//   frame the chunk window can hold, plus the rounded remainder `lo`;
//   `x*hi + x*lo` rounds once and agrees with correctly-rounded
//   division in all but astronomically rare near-halfway cases. Those
//   stragglers are *demoted to exceptions at encode time* — the encoder
//   verifies every value against the identical expression the decoder
//   will run, so the round trip stays byte-exact by construction.

/// Bit pattern of `2^52 + 2^51`, the int→f64 conversion magic.
const CVT_MAGIC_BITS: u64 = 0x4338_0000_0000_0000;
/// `2^52 + 2^51` as a double.
const CVT_MAGIC: f64 = 6_755_399_441_055_744.0;

/// Exact magic-constant conversion of a frame to its signed value as
/// f64. Only valid when the frame's integer magnitude is below `2^51`
/// (guaranteed by [`pfor_f64_range_within`] guards at the call sites).
#[inline(always)]
fn frame_to_f64_fast(f: u64) -> f64 {
    f64::from_bits((f ^ SIGN).wrapping_add(CVT_MAGIC_BITS)) - CVT_MAGIC
}

/// Split `1/scale` into a truncated head plus remainder for the
/// double-product division replacement. The head keeps
/// `53 - window_bits` significant bits, where `window_bits` bounds the
/// integer magnitude of every frame the chunk's `(base, lane)` window
/// can hold — that makes `i * hi` *exact* for every dense value of the
/// chunk. Both encoder (verification) and decoder derive the split from
/// the same header fields, so they agree bit-for-bit by construction.
#[inline]
fn recip_split_for(scale: f64, base: u64, lane: u32) -> (f64, f64) {
    // Caller guards `base + mask` against overflow via
    // [`pfor_f64_range_within`], which also bounds the magnitude < 2^51.
    let top = base.wrapping_add(lane_mask(lane));
    let lo_i = (base ^ SIGN) as i64;
    let hi_i = (top ^ SIGN) as i64;
    let mag = lo_i.unsigned_abs().max(hi_i.unsigned_abs()).max(1);
    let window_bits = 64 - mag.leading_zeros();
    let keep = 53u32.saturating_sub(window_bits).max(1);
    let hi = f64::from_bits((1.0 / scale).to_bits() & !((1u64 << (53 - keep)) - 1));
    // `hi * scale` is exact (`keep` bits by ≤14-bit product) and lands
    // within a factor of two of 1.0, so the subtraction is exact too
    // (Sterbenz); `lo` then absorbs the truncated tail in one rounding.
    let lo = (1.0 - hi * scale) / scale;
    (hi, lo)
}

/// True when every non-exception frame of the chunk maps to an integer
/// of magnitude at most `limit` (frames span `[base, base + mask]`).
#[inline]
fn pfor_f64_range_within(base: u64, lane: u32, limit: i64) -> bool {
    let Some(top) = base.checked_add(lane_mask(lane)) else {
        return false;
    };
    let lo = (base ^ SIGN) as i64;
    let hi = (top ^ SIGN) as i64;
    -limit <= lo && hi <= limit
}

/// The scaled-decode expression both the encoder (verification) and the
/// decoder (hot loop) must share, applied when the chunk qualifies for
/// the double-product fast path.
#[inline(always)]
fn scaled_fast(f: u64, hi: f64, lo: f64) -> f64 {
    let x = frame_to_f64_fast(f);
    x * hi + x * lo
}

fn pfor_encode_f64(values: &[f64]) -> PforChunk {
    // Sample-pick the smallest decimal scale that makes (nearly) every
    // value exactly representable; stragglers become exceptions.
    let step = (values.len() / 1024).max(1);
    let mut scale = *F64_SCALES.last().unwrap_or(&1);
    'scales: for s in F64_SCALES {
        let mut miss = 0usize;
        let mut seen = 0usize;
        for v in values.iter().step_by(step) {
            seen += 1;
            if f64_frame(*v, s as f64).is_none() {
                miss += 1;
            }
        }
        if miss * 100 <= seen {
            scale = s;
            break 'scales;
        }
    }
    let scale_f = scale as f64;
    let frames: Vec<Result<u64, u64>> = values
        .iter()
        .map(|&v| f64_frame(v, scale_f).ok_or(v.to_bits()))
        .collect();
    let mut c = pfor_encode_frames(&frames);
    c.scale = scale;
    // A float exception is stored as its raw bits, also when the value
    // has a frame that merely fell outside the lane.
    for (frame, &p) in c.exc_frames.iter_mut().zip(&c.exc_pos) {
        *frame = values[p as usize].to_bits();
    }
    // The decoder will take the double-product path for this chunk
    // shape; verify every dense value against that exact expression and
    // demote the (rare) near-halfway mismatches to exceptions.
    if scale > 1 && pfor_f64_range_within(c.base, c.lane, (1 << 51) - 1) {
        let (hi, lo) = recip_split_for(scale_f, c.base, c.lane);
        let mask = lane_mask(c.lane);
        let mut merged_pos: Vec<u32> = Vec::new();
        let mut merged_frames: Vec<u64> = Vec::new();
        let mut old = 0usize;
        for (p, (&v, &frame)) in values.iter().zip(&frames).enumerate() {
            let demote = match frame {
                Ok(f) if f >= c.base && f - c.base <= mask => {
                    scaled_fast(f, hi, lo).to_bits() != v.to_bits()
                }
                _ => false, // already an exception
            };
            if old < c.exc_pos.len() && c.exc_pos[old] == p as u32 {
                merged_pos.push(c.exc_pos[old]);
                merged_frames.push(c.exc_frames[old]);
                old += 1;
            } else if demote {
                merged_pos.push(p as u32);
                merged_frames.push(v.to_bits());
            }
        }
        c.exc_pos = merged_pos;
        c.exc_frames = merged_frames;
    }
    c
}

fn pfor_decode_f64(out: &mut [f64], c: &PforChunk) {
    let scale_u = c.scale.max(1);
    // Fold base, the sign-bit flip, and the conversion magic into one
    // additive constant: `x ^ SIGN == x + SIGN (mod 2^64)` because only
    // the top bit changes, so `((base + rel) ^ SIGN) + MAGIC_BITS`
    // equals `pre + rel` with `pre = (base ^ SIGN) + MAGIC_BITS`. The
    // hot loops then cost one integer add per element before the fp tail.
    let pre = (c.base ^ SIGN).wrapping_add(CVT_MAGIC_BITS);
    if scale_u == 1 && pfor_f64_range_within(c.base, c.lane, (1 << 51) - 1) {
        // Unscaled integers in magic-conversion range: bit-identical to
        // `i as f64` (both are exact below 2^51), but vectorizable.
        unpack_map(out, &c.payload, c.lane, move |rel| {
            f64::from_bits(pre.wrapping_add(rel)) - CVT_MAGIC
        });
    } else if scale_u > 1 && pfor_f64_range_within(c.base, c.lane, (1 << 51) - 1) {
        // Double-product fast path; the encoder demoted any value this
        // expression would miss, so it is byte-exact here.
        let (hi, lo) = recip_split_for(scale_u as f64, c.base, c.lane);
        unpack_map(out, &c.payload, c.lane, move |rel| {
            let x = f64::from_bits(pre.wrapping_add(rel)) - CVT_MAGIC;
            x * hi + x * lo
        });
    } else {
        let base = c.base;
        let scale = scale_u as f64;
        unpack_map(out, &c.payload, c.lane, move |rel| {
            ((base.wrapping_add(rel) ^ SIGN) as i64) as f64 / scale
        });
    }
    for (&p, &f) in c.exc_pos.iter().zip(&c.exc_frames) {
        out[p as usize] = f64::from_bits(f);
    }
}

macro_rules! pfor_instances {
    ($( $ty:ty : $comp:ident / $decomp:ident => $enc:ident / $dec:ident );* $(;)?) => {
        $(
            /// Macro-generated PFOR chunk compressor.
            pub fn $comp(values: &[$ty]) -> PforChunk {
                $enc(values)
            }

            /// Macro-generated PFOR chunk decompressor: writes the
            /// whole chunk, `out.len()` rows.
            pub fn $decomp(out: &mut [$ty], chunk: &PforChunk) {
                $dec(out, chunk)
            }
        )*

        /// Catalog of the macro-generated PFOR codec instances, emitted
        /// by the same expansion that defines the kernels (used by the
        /// primitive registry and `cargo xtask lint`).
        pub const PFOR_SIGNATURES: &[&str] = &[
            $( stringify!($comp), stringify!($decomp), )*
        ];
    };
}

pfor_instances! {
    i8:  compress_pfor_i8_col  / decompress_pfor_i8_col  => pfor_encode_int / pfor_decode_int;
    i16: compress_pfor_i16_col / decompress_pfor_i16_col => pfor_encode_int / pfor_decode_int;
    i32: compress_pfor_i32_col / decompress_pfor_i32_col => pfor_encode_int / pfor_decode_int;
    i64: compress_pfor_i64_col / decompress_pfor_i64_col => pfor_encode_int / pfor_decode_int;
    u8:  compress_pfor_u8_col  / decompress_pfor_u8_col  => pfor_encode_int / pfor_decode_int;
    u16: compress_pfor_u16_col / decompress_pfor_u16_col => pfor_encode_int / pfor_decode_int;
    u32: compress_pfor_u32_col / decompress_pfor_u32_col => pfor_encode_int / pfor_decode_int;
    u64: compress_pfor_u64_col / decompress_pfor_u64_col => pfor_encode_int / pfor_decode_int;
    f64: compress_pfor_f64_col / decompress_pfor_f64_col => pfor_encode_f64 / pfor_decode_f64;
}

// ---------------------------------------------------------------------
// PFOR-DELTA
// ---------------------------------------------------------------------

fn pfordelta_encode_int<T: FrameValue>(values: &[T]) -> Option<PforDeltaChunk> {
    let n = values.len();
    // Deltas: d[0] is an artificial `base` (so the decode loop is
    // uniform); d[i] = frame[i] - frame[i-1] for i >= 1. Any decrease
    // disqualifies the chunk (the chooser falls back to plain PFOR).
    let mut frames = Vec::with_capacity(n);
    for v in values {
        frames.push(v.to_frame());
    }
    for w in frames.windows(2) {
        if w[1] < w[0] {
            return None;
        }
    }
    let mut base = u64::MAX;
    for w in frames.windows(2) {
        base = base.min(w[1] - w[0]);
    }
    if n < 2 {
        base = 0;
    }
    let delta_at = |i: usize| -> u64 {
        if i == 0 {
            base
        } else {
            frames[i] - frames[i - 1]
        }
    };
    let mut wide = [0usize; 4];
    for i in 0..n {
        // lint: allow-index-loop (delta stream is position-defined)
        let need = lane_for(delta_at(i) - base);
        for (slot, lane) in wide.iter_mut().zip([0u32, 8, 16, 32]) {
            if need > lane {
                *slot += 1;
            }
        }
    }
    let lane = choose_lane(n, wide, 0);
    let mut c = PforDeltaChunk {
        lane,
        base,
        payload: Vec::with_capacity(n * (lane as usize / 8)),
        sync: Vec::with_capacity(n / DELTA_SYNC + 1),
        exc_pos: Vec::new(),
        exc_frames: Vec::new(),
    };
    let mut carry = if n == 0 {
        0
    } else {
        frames[0].wrapping_sub(base)
    };
    for (i, &frame) in frames.iter().enumerate() {
        if i % DELTA_SYNC == 0 {
            c.sync.push(carry);
        }
        let d = delta_at(i);
        let rel = d - base;
        if lane_for(rel) <= lane {
            push_lane(&mut c.payload, lane, rel);
        } else {
            push_lane(&mut c.payload, lane, 0);
            c.exc_pos.push(i as u32);
            c.exc_frames.push(d);
        }
        carry = frame;
    }
    Some(c)
}

/// Uniform PFOR-DELTA decode of a whole chunk: unpack the delta frames
/// into `scratch` (reused across chunks), patch the exceptions, and
/// replay the prefix sum from the first sync carry.
fn pfordelta_decode_int<T: FrameValue>(out: &mut [T], c: &PforDeltaChunk, scratch: &mut Vec<u64>) {
    let base = c.base;
    scratch.resize(out.len(), 0);
    let deltas = &mut scratch[..out.len()];
    unpack_map(deltas, &c.payload, c.lane, move |rel| {
        base.wrapping_add(rel)
    });
    for (&p, &d) in c.exc_pos.iter().zip(&c.exc_frames) {
        deltas[p as usize] = d;
    }
    let mut carry = c.sync.first().copied().unwrap_or(0);
    for (o, &d) in out.iter_mut().zip(deltas.iter()) {
        carry = carry.wrapping_add(d);
        *o = T::from_frame(carry);
    }
}

macro_rules! pfordelta_instances {
    ($( $ty:ty : $comp:ident / $decomp:ident );* $(;)?) => {
        $(
            /// Macro-generated PFOR-DELTA chunk compressor. Returns
            /// `None` when the values are not non-decreasing.
            pub fn $comp(values: &[$ty]) -> Option<PforDeltaChunk> {
                pfordelta_encode_int(values)
            }

            /// Macro-generated PFOR-DELTA chunk decompressor: writes
            /// the whole chunk, `out.len()` rows; `scratch` holds the
            /// delta frames.
            pub fn $decomp(out: &mut [$ty], chunk: &PforDeltaChunk, scratch: &mut Vec<u64>) {
                pfordelta_decode_int(out, chunk, scratch)
            }
        )*

        /// Catalog of the macro-generated PFOR-DELTA codec instances.
        pub const PFORDELTA_SIGNATURES: &[&str] = &[
            $( stringify!($comp), stringify!($decomp), )*
        ];
    };
}

pfordelta_instances! {
    i8:  compress_pfordelta_i8_col  / decompress_pfordelta_i8_col;
    i16: compress_pfordelta_i16_col / decompress_pfordelta_i16_col;
    i32: compress_pfordelta_i32_col / decompress_pfordelta_i32_col;
    i64: compress_pfordelta_i64_col / decompress_pfordelta_i64_col;
    u8:  compress_pfordelta_u8_col  / decompress_pfordelta_u8_col;
    u16: compress_pfordelta_u16_col / decompress_pfordelta_u16_col;
    u32: compress_pfordelta_u32_col / decompress_pfordelta_u32_col;
    u64: compress_pfordelta_u64_col / decompress_pfordelta_u64_col;
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The encoder with every verdict from the sorted frames: the
    /// oracle the proof must match.
    fn pfor_encode_frames_sorted(frames: &[Result<u64, u64>]) -> PforChunk {
        let (lane, base) = sorted_lane_base(frames);
        pfor_pack(frames, lane, base)
    }

    fn same_chunk(a: &PforChunk, b: &PforChunk) -> bool {
        (
            a.lane,
            a.base,
            a.scale,
            &a.payload,
            &a.exc_pos,
            &a.exc_frames,
        ) == (
            b.lane,
            b.base,
            b.scale,
            &b.payload,
            &b.exc_pos,
            &b.exc_frames,
        )
    }

    /// Frames of `n` values of type `ty` (i32, i64, u8, u16, f64 at a
    /// decimal scale, f64 unscaled): a cluster `bits` wide at a random
    /// base, `outliers` per mille anywhere in the type's domain, and for
    /// floats as many forced exceptions (values no scale represents).
    fn sample_frames(
        ty: usize,
        bits: u32,
        seed: u64,
        n: usize,
        outliers: u32,
    ) -> Vec<Result<u64, u64>> {
        let mut x = seed | 1;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let spread = lane_mask(bits.min(63)) >> 1;
        let base = next();
        (0..n)
            .map(|_| {
                let r = next();
                let odd = (r % 1000) < outliers as u64;
                let v = if odd {
                    next()
                } else {
                    base.wrapping_add(next() & spread)
                };
                match ty {
                    0 => Ok((v as i32).to_frame()),
                    1 => Ok((v as i64).to_frame()),
                    2 => Ok((v as u8).to_frame()),
                    3 => Ok((v as u16).to_frame()),
                    _ => {
                        let scale = if ty == 4 {
                            F64_SCALES[(seed % 5) as usize]
                        } else {
                            1
                        };
                        let f = (v as i32 as f64) / scale as f64;
                        let f = if odd && r % 2 == 0 { f + 1e-9 } else { f };
                        f64_frame(f, scale as f64).ok_or(f.to_bits())
                    }
                }
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig {
            cases: if cfg!(miri) { 4 } else { 512 },
            ..ProptestConfig::default()
        })]

        #[test]
        fn sort_free_lane_choice_matches_the_sorted_path(
            ty in 0usize..6,
            bits in 0u32..40,
            seed in any::<u64>(),
            shape in (1usize..2500, 0u32..400),
        ) {
            let (n, outliers) = shape;
            let outliers = if seed.is_multiple_of(3) { 0 } else { outliers };
            let frames = sample_frames(ty, bits, seed, n, outliers);
            let got = pfor_encode_frames(&frames);
            let want = pfor_encode_frames_sorted(&frames);
            prop_assert!(same_chunk(&got, &want), "ty {ty} bits {bits} seed {seed} n {n}");
        }
    }

    #[test]
    fn spread_columns_take_the_sort_free_verdict() {
        // Prices in cents over a wide range, dates over seven years:
        // the shapes of `l_extendedprice` and `l_shipdate`.
        let prices: Vec<Result<u64, u64>> = (0..65_536u64)
            .map(|i| Ok((90_000 + (i * 7_919) % 10_400_000).to_frame()))
            .collect();
        let dates: Vec<Result<u64, u64>> = (0..65_536u64)
            .map(|i| Ok(((8_035 + (i * 31) % 2_526) as i32).to_frame()))
            .collect();
        for frames in [prices, dates] {
            let proven = spanning_lane_base(&frames);
            assert!(proven.is_some(), "the bound decides a spread column");
            let want = pfor_encode_frames_sorted(&frames);
            assert_eq!(proven, Some((want.lane, want.base)));
        }
        // A tight cluster with far outliers needs the sort: the spanning
        // lane is wide and a narrow lane with exceptions may win.
        let mut clustered: Vec<Result<u64, u64>> =
            (0..4_096u64).map(|i| Ok(1_000 + i % 200)).collect();
        clustered[7] = Ok(u64::MAX / 3);
        assert_eq!(spanning_lane_base(&clustered), None);
        assert!(same_chunk(
            &pfor_encode_frames(&clustered),
            &pfor_encode_frames_sorted(&clustered)
        ));
        assert_eq!(pfor_encode_frames(&clustered).lane, 8);
    }

    fn roundtrip_pfor_i64(values: &[i64]) {
        let c = compress_pfor_i64_col(values);
        let mut out = vec![0i64; values.len()];
        decompress_pfor_i64_col(&mut out, &c);
        assert_eq!(out, values);
    }

    #[test]
    fn pfor_roundtrips_lanes() {
        roundtrip_pfor_i64(&[]);
        roundtrip_pfor_i64(&[42]);
        roundtrip_pfor_i64(&[7; 100]); // lane 0
        roundtrip_pfor_i64(&(0..300).collect::<Vec<_>>()); // lane 8/16
        roundtrip_pfor_i64(&[1_000_000, 2_000_000, 3_000_000]); // lane 32
        roundtrip_pfor_i64(&[i64::MIN, i64::MAX, 0, -1, 1]); // lane 64
    }

    #[test]
    fn pfor_exceptions_patch() {
        // A tight cluster plus wild outliers: outliers become exceptions.
        let mut v: Vec<i64> = (0..5000).map(|i| 100 + (i % 50)).collect();
        v[17] = i64::MAX;
        v[4032] = i64::MIN;
        let c = compress_pfor_i64_col(&v);
        assert_eq!(c.lane, 8, "cluster fits one byte");
        assert_eq!(c.exc_pos.len(), 2);
        let mut out = vec![0i64; v.len()];
        decompress_pfor_i64_col(&mut out, &c);
        assert_eq!(out, v);
    }

    #[test]
    fn pfor_all_exceptions_block() {
        // Values spread over the full u64 range but with a forced-lane
        // encode path: f64 NaN-ish values that never scale exactly.
        let v: Vec<f64> = (0..64).map(|i| 0.1 + i as f64 * 1e-13).collect();
        let c = compress_pfor_f64_col(&v);
        assert!(c.exc_pos.len() >= 63, "nearly nothing scales exactly");
        assert_eq!(c.lane, 0, "all-exception chunk needs no payload");
        let mut out = vec![0f64; v.len()];
        decompress_pfor_f64_col(&mut out, &c);
        for (a, b) in out.iter().zip(&v) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn pfor_f64_decimal_scaling() {
        let v: Vec<f64> = (0..2048).map(|i| (i % 5000) as f64 / 100.0).collect();
        let c = compress_pfor_f64_col(&v);
        assert_eq!(c.scale, 100);
        assert!(c.exc_pos.is_empty());
        assert!(c.lane <= 16, "scaled cents fit two bytes, got {}", c.lane);
        let mut out = vec![0f64; v.len()];
        decompress_pfor_f64_col(&mut out, &c);
        for (a, b) in out.iter().zip(&v) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn pfor_f64_out_of_lane_value_is_a_raw_exception() {
        // Representable at the chunk's scale, but outside the byte lane
        // the cluster picks: the exception must hold the value's bits,
        // like every float exception, not its frame. Both decimal scale
        // 1 and a scale the double-product decode path takes.
        for scale in [1.0, 100.0] {
            let mut v: Vec<f64> = (0..400).map(|i| (100 + i % 50) as f64 / scale).collect();
            v[7] = 1.0e6 / scale;
            v[311] = -1.0e6 / scale;
            let c = compress_pfor_f64_col(&v);
            assert_eq!((c.lane, c.exc_pos.as_slice()), (8, &[7, 311][..]));
            let mut out = vec![0f64; v.len()];
            decompress_pfor_f64_col(&mut out, &c);
            for (a, b) in out.iter().zip(&v) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn pfor_f64_negative_zero_is_exception() {
        let v = [0.0f64, -0.0, 1.5];
        let c = compress_pfor_f64_col(&v);
        let mut out = [0f64; 3];
        decompress_pfor_f64_col(&mut out, &c);
        for (a, b) in out.iter().zip(&v) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn pfordelta_roundtrip_and_seek() {
        let v: Vec<u32> = (0..10_000u32).map(|i| i * 3 + (i % 7)).collect();
        let mut sorted = v.clone();
        sorted.sort_unstable();
        let c = compress_pfordelta_u32_col(&sorted).expect("monotone");
        assert!(c.lane <= 8, "small deltas, got lane {}", c.lane);
        let mut out = vec![0u32; sorted.len()];
        decompress_pfordelta_u32_col(&mut out, &c, &mut Vec::new());
        assert_eq!(out, sorted);
        // A seek point of the format: each sync carry past the first is
        // the frame of the value before its sync point.
        assert_eq!(c.sync.len(), sorted.len().div_ceil(DELTA_SYNC));
        for (k, &carry) in c.sync.iter().enumerate().skip(1) {
            assert_eq!(carry, sorted[k * DELTA_SYNC - 1].to_frame(), "sync {k}");
        }
    }

    #[test]
    fn pfordelta_rejects_decreasing() {
        assert!(compress_pfordelta_i32_col(&[5, 4]).is_none());
        assert!(compress_pfordelta_i32_col(&[1, 2, 3]).is_some());
    }

    #[test]
    fn pfordelta_jump_exception() {
        let mut v: Vec<i64> = (0..3000).collect();
        for x in v.iter_mut().skip(1500) {
            *x += 1_000_000_000;
        }
        let c = compress_pfordelta_i64_col(&v).expect("monotone");
        assert_eq!(c.exc_pos, vec![1500]);
        let mut out = vec![0i64; v.len()];
        decompress_pfordelta_i64_col(&mut out, &c, &mut Vec::new());
        assert_eq!(out, v);
    }
}
