//! Lightweight compression kernels: PFOR, PFOR-DELTA and PDICT.
//!
//! The paper's ColumnBM trades "a few cheap, branch-free CPU cycles" of
//! decompression for scarce memory bandwidth, expanding compressed
//! chunks vector-at-a-time into the CPU cache (§4.3, §5). These kernels
//! are the codec half of that design:
//!
//! * **PFOR** — patched frame-of-reference: values are stored as small
//!   offsets from a per-chunk base; values that do not fit the chosen
//!   frame width are *exceptions*, patched in after the dense unpack.
//! * **PFOR-DELTA** — PFOR over the deltas of a non-decreasing (key)
//!   column, with periodic sync carries so a scan can seek mid-chunk.
//! * **PDICT** — dictionary codes for low-cardinality columns, packed
//!   at one or two bytes per code and expanded through a positional
//!   gather (the enum-decode machinery generalized to a chunk codec).
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

use crate::vector::StrVec;

/// Exception cost in bytes: a 4-byte chunk-relative position plus an
/// 8-byte absolute frame.
const EXC_COST: usize = 12;

/// Sync-carry interval of PFOR-DELTA chunks: one absolute carry per
/// this many values, so decode can start at any vector boundary without
/// replaying the whole chunk.
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

/// Dense unpack of frames `[start, start + out.len())` from a
/// little-endian payload: `out[i] = base + frame`. Exact-width zip
/// loops so the compiler can auto-vectorize each lane.
fn unpack_frames(out: &mut [u64], payload: &[u8], lane: u32, base: u64, start: usize) {
    let n = out.len();
    match lane {
        0 => out.fill(base),
        8 => {
            for (o, &b) in out.iter_mut().zip(&payload[start..start + n]) {
                *o = base.wrapping_add(b as u64);
            }
        }
        16 => {
            let bytes = &payload[start * 2..(start + n) * 2];
            for (o, c) in out.iter_mut().zip(bytes.chunks_exact(2)) {
                *o = base.wrapping_add(u16::from_le_bytes([c[0], c[1]]) as u64);
            }
        }
        32 => {
            let bytes = &payload[start * 4..(start + n) * 4];
            for (o, c) in out.iter_mut().zip(bytes.chunks_exact(4)) {
                *o = base.wrapping_add(u32::from_le_bytes([c[0], c[1], c[2], c[3]]) as u64);
            }
        }
        _ => {
            let bytes = &payload[start * 8..(start + n) * 8];
            for (o, c) in out.iter_mut().zip(bytes.chunks_exact(8)) {
                let mut w = [0u8; 8];
                w.copy_from_slice(c);
                *o = base.wrapping_add(u64::from_le_bytes(w));
            }
        }
    }
}

/// Fused unpack-and-map: applies `f` to each *relative* frame of
/// `[start, start + out.len())` and stores the result directly, skipping
/// the u64 scratch round-trip of [`unpack_frames`]. One exact-width zip
/// loop per lane so each instantiation auto-vectorizes; `f` must be a
/// branch-free `Copy` closure for that to hold.
#[inline(always)]
fn unpack_map<T: Copy, F: Fn(u64) -> T + Copy>(
    out: &mut [T],
    payload: &[u8],
    lane: u32,
    start: usize,
    f: F,
) {
    let n = out.len();
    match lane {
        0 => out.fill(f(0)),
        8 => {
            for (o, &b) in out.iter_mut().zip(&payload[start..start + n]) {
                *o = f(b as u64);
            }
        }
        16 => {
            let bytes = &payload[start * 2..(start + n) * 2];
            for (o, c) in out.iter_mut().zip(bytes.chunks_exact(2)) {
                *o = f(u16::from_le_bytes([c[0], c[1]]) as u64);
            }
        }
        32 => {
            let bytes = &payload[start * 4..(start + n) * 4];
            for (o, c) in out.iter_mut().zip(bytes.chunks_exact(4)) {
                *o = f(u32::from_le_bytes([c[0], c[1], c[2], c[3]]) as u64);
            }
        }
        _ => {
            let bytes = &payload[start * 8..(start + n) * 8];
            for (o, c) in out.iter_mut().zip(bytes.chunks_exact(8)) {
                let mut w = [0u8; 8];
                w.copy_from_slice(c);
                *o = f(u64::from_le_bytes(w));
            }
        }
    }
}

/// Exception window `[start, start+n)` of a patch list, as subslices.
#[inline]
fn exc_window<'a>(
    exc_pos: &'a [u32],
    exc_frames: &'a [u64],
    start: usize,
    n: usize,
) -> (&'a [u32], &'a [u64]) {
    let lo = exc_pos.partition_point(|&p| (p as usize) < start);
    let hi = exc_pos.partition_point(|&p| (p as usize) < start + n);
    (&exc_pos[lo..hi], &exc_frames[lo..hi])
}

// ---------------------------------------------------------------------
// PFOR
// ---------------------------------------------------------------------

/// Shared PFOR encoder over pre-framed values. `frames[i]` is
/// `Ok(frame)` for regular values and `Err(raw)` for values that must
/// be exceptions at every lane (non-representable scaled floats).
fn pfor_encode_frames(frames: impl Iterator<Item = Result<u64, u64>> + Clone) -> PforChunk {
    let mut rows = 0usize;
    let mut forced = 0usize;
    let mut sorted: Vec<u64> = Vec::new();
    for f in frames.clone() {
        rows += 1;
        match f {
            Ok(v) => sorted.push(v),
            Err(_) => forced += 1,
        }
    }
    sorted.sort_unstable();
    let (lane, base) = choose_lane_base(rows, &sorted, forced);
    let mask = lane_mask(lane);
    let mut c = PforChunk {
        lane,
        base,
        scale: 0,
        payload: Vec::with_capacity(rows * (lane as usize / 8)),
        exc_pos: Vec::new(),
        exc_frames: Vec::new(),
    };
    for (i, f) in frames.enumerate() {
        match f {
            Ok(v) if v >= base && v - base <= mask => push_lane(&mut c.payload, lane, v - base),
            Ok(v) => {
                push_lane(&mut c.payload, lane, 0);
                c.exc_pos.push(i as u32);
                c.exc_frames.push(v);
            }
            Err(raw) => {
                push_lane(&mut c.payload, lane, 0);
                c.exc_pos.push(i as u32);
                c.exc_frames.push(raw);
            }
        }
    }
    c
}

fn pfor_encode_int<T: FrameValue>(values: &[T]) -> PforChunk {
    pfor_encode_frames(values.iter().map(|v| Ok(v.to_frame())))
}

fn pfor_decode_int<T: FrameValue>(
    out: &mut [T],
    c: &PforChunk,
    start: usize,
    _scratch: &mut Vec<u64>,
) {
    let n = out.len();
    let base = c.base;
    unpack_map(out, &c.payload, c.lane, start, move |rel| {
        T::from_frame(base.wrapping_add(rel))
    });
    let (pos, frames) = exc_window(&c.exc_pos, &c.exc_frames, start, n);
    for (&p, &f) in pos.iter().zip(frames) {
        out[p as usize - start] = T::from_frame(f);
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
    let mut c = pfor_encode_frames(
        values
            .iter()
            .map(|&v| f64_frame(v, scale_f).ok_or(v.to_bits())),
    );
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
        for (p, &v) in values.iter().enumerate() {
            let demote = match f64_frame(v, scale_f) {
                Some(f) if f >= c.base && f - c.base <= mask => {
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

fn pfor_decode_f64(out: &mut [f64], c: &PforChunk, start: usize, _scratch: &mut Vec<u64>) {
    let n = out.len();
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
        unpack_map(out, &c.payload, c.lane, start, move |rel| {
            f64::from_bits(pre.wrapping_add(rel)) - CVT_MAGIC
        });
    } else if scale_u > 1 && pfor_f64_range_within(c.base, c.lane, (1 << 51) - 1) {
        // Double-product fast path; the encoder demoted any value this
        // expression would miss, so it is byte-exact here.
        let (hi, lo) = recip_split_for(scale_u as f64, c.base, c.lane);
        unpack_map(out, &c.payload, c.lane, start, move |rel| {
            let x = f64::from_bits(pre.wrapping_add(rel)) - CVT_MAGIC;
            x * hi + x * lo
        });
    } else {
        let base = c.base;
        let scale = scale_u as f64;
        unpack_map(out, &c.payload, c.lane, start, move |rel| {
            ((base.wrapping_add(rel) ^ SIGN) as i64) as f64 / scale
        });
    }
    let (pos, frames) = exc_window(&c.exc_pos, &c.exc_frames, start, n);
    for (&p, &f) in pos.iter().zip(frames) {
        out[p as usize - start] = f64::from_bits(f);
    }
}

macro_rules! pfor_instances {
    ($( $ty:ty : $comp:ident / $decomp:ident => $enc:ident / $dec:ident );* $(;)?) => {
        $(
            /// Macro-generated PFOR chunk compressor.
            pub fn $comp(values: &[$ty]) -> PforChunk {
                $enc(values)
            }

            /// Macro-generated PFOR chunk decompressor: writes values
            /// `[start, start + out.len())` of the chunk.
            pub fn $decomp(out: &mut [$ty], chunk: &PforChunk, start: usize, scratch: &mut Vec<u64>) {
                $dec(out, chunk, start, scratch)
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

/// Uniform PFOR-DELTA decode: replay positions `[seek, start + out.len())`
/// from `carry` (the accumulated frame in effect at `seek`), writing the
/// tail `[start, ...)` into `out`. Returns the carry after the last
/// decoded value, for cursor continuation.
fn pfordelta_decode_int<T: FrameValue>(
    out: &mut [T],
    c: &PforDeltaChunk,
    seek: usize,
    carry: u64,
    start: usize,
    scratch: &mut Vec<u64>,
) -> u64 {
    let end = start + out.len();
    let span = end - seek;
    scratch.resize(span, 0);
    unpack_frames(&mut scratch[..span], &c.payload, c.lane, c.base, seek);
    let (pos, frames) = exc_window(&c.exc_pos, &c.exc_frames, seek, span);
    for (&p, &d) in pos.iter().zip(frames) {
        scratch[p as usize - seek] = d;
    }
    let mut carry = carry;
    let skip = start - seek;
    for &d in &scratch[..skip] {
        carry = carry.wrapping_add(d);
    }
    for (o, &d) in out.iter_mut().zip(&scratch[skip..span]) {
        carry = carry.wrapping_add(d);
        *o = T::from_frame(carry);
    }
    carry
}

macro_rules! pfordelta_instances {
    ($( $ty:ty : $comp:ident / $decomp:ident );* $(;)?) => {
        $(
            /// Macro-generated PFOR-DELTA chunk compressor. Returns
            /// `None` when the values are not non-decreasing.
            pub fn $comp(values: &[$ty]) -> Option<PforDeltaChunk> {
                pfordelta_encode_int(values)
            }

            /// Macro-generated PFOR-DELTA chunk decompressor: replays
            /// from `seek`/`carry`, writes `[start, start + out.len())`,
            /// and returns the continuation carry.
            pub fn $decomp(
                out: &mut [$ty],
                chunk: &PforDeltaChunk,
                seek: usize,
                carry: u64,
                start: usize,
                scratch: &mut Vec<u64>,
            ) -> u64 {
                pfordelta_decode_int(out, chunk, seek, carry, start, scratch)
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

// ---------------------------------------------------------------------
// PDICT
// ---------------------------------------------------------------------

/// Catalog of the PDICT codec instances (hand-instantiated like the
/// irregular fetch kernels; the dictionary build lives in storage,
/// reusing the enum-encode machinery).
pub const PDICT_SIGNATURES: &[&str] = &[
    "compress_pdict_i32_col",
    "decompress_pdict_i32_col",
    "compress_pdict_i64_col",
    "decompress_pdict_i64_col",
    "compress_pdict_f64_col",
    "decompress_pdict_f64_col",
    "compress_pdict_str_col",
    "decompress_pdict_str_col",
];

/// Pack one code at the dictionary lane width (8 or 16 bits).
#[inline(always)]
fn push_code(payload: &mut Vec<u8>, lane: u32, code: usize) {
    if lane <= 8 {
        payload.push(code as u8);
    } else {
        payload.extend_from_slice(&(code as u16).to_le_bytes());
    }
}

/// Unpack dictionary codes `[start, start+out.len())`.
fn unpack_codes(out: &mut [u64], payload: &[u8], lane: u32, start: usize) {
    unpack_frames(out, payload, if lane <= 8 { 8 } else { 16 }, 0, start);
}

macro_rules! pdict_numeric {
    ($( $ty:ty : $comp:ident / $decomp:ident => $cmp:expr );* $(;)?) => {
        $(
            /// PDICT chunk compressor: looks every value up in the
            /// sorted dictionary and packs its code at `lane` bits.
            /// Returns `None` if a value is missing from the dictionary.
            pub fn $comp(values: &[$ty], dict: &[$ty], lane: u32) -> Option<Vec<u8>> {
                let mut payload = Vec::with_capacity(values.len() * (lane as usize / 8));
                for v in values {
                    let code = dict.binary_search_by(|d| ($cmp)(d, v)).ok()?;
                    push_code(&mut payload, lane, code);
                }
                Some(payload)
            }

            /// PDICT chunk decompressor: unpacks codes and gathers the
            /// dictionary values positionally.
            pub fn $decomp(
                out: &mut [$ty],
                payload: &[u8],
                lane: u32,
                start: usize,
                dict: &[$ty],
                scratch: &mut Vec<u64>,
            ) {
                let n = out.len();
                scratch.resize(n, 0);
                unpack_codes(&mut scratch[..n], payload, lane, start);
                for (o, &code) in out.iter_mut().zip(scratch.iter()) {
                    *o = dict[code as usize];
                }
            }
        )*
    };
}

pdict_numeric! {
    i32: compress_pdict_i32_col / decompress_pdict_i32_col => |d: &i32, v: &i32| d.cmp(v);
    i64: compress_pdict_i64_col / decompress_pdict_i64_col => |d: &i64, v: &i64| d.cmp(v);
    f64: compress_pdict_f64_col / decompress_pdict_f64_col => |d: &f64, v: &f64| d.total_cmp(v);
}

/// PDICT chunk compressor for strings: codes into a sorted [`StrVec`]
/// dictionary. Returns `None` if a value is missing.
pub fn compress_pdict_str_col(values: &StrVec, dict: &StrVec, lane: u32) -> Option<Vec<u8>> {
    let mut payload = Vec::with_capacity(values.len() * (lane as usize / 8));
    for i in 0..values.len() {
        // lint: allow-index-loop (StrVec exposes positional access only)
        let v = values.get(i);
        let code = str_dict_search(dict, v)?;
        push_code(&mut payload, lane, code);
    }
    Some(payload)
}

/// PDICT chunk decompressor for strings: appends the decoded values
/// (string vectors are append-only).
pub fn decompress_pdict_str_col(
    out: &mut StrVec,
    payload: &[u8],
    lane: u32,
    start: usize,
    n: usize,
    dict: &StrVec,
    scratch: &mut Vec<u64>,
) {
    scratch.resize(n, 0);
    unpack_codes(&mut scratch[..n], payload, lane, start);
    for &code in scratch.iter() {
        out.push(dict.get(code as usize));
    }
}

/// Binary search a sorted string dictionary.
fn str_dict_search(dict: &StrVec, v: &str) -> Option<usize> {
    let mut lo = 0usize;
    let mut hi = dict.len();
    while lo < hi {
        let mid = (lo + hi) / 2;
        match dict.get(mid).cmp(v) {
            std::cmp::Ordering::Less => lo = mid + 1,
            std::cmp::Ordering::Greater => hi = mid,
            std::cmp::Ordering::Equal => return Some(mid),
        }
    }
    None
}

// ---------------------------------------------------------------------
// Encoded-space selection and selective decode (compression-aware
// execution)
// ---------------------------------------------------------------------
//
// Pushdown half of the codec design: a comparison constant is
// translated into the chunk's frame (or code) domain once, the packed
// lanes are scanned *without* materializing values, and only the
// surviving positions are ever decoded — by the gather-style
// `decode_sel_*` kernels at the bottom of this section. Exceptions take
// a patched slow lane: the merged walk substitutes each exception's
// absolute payload at its position, so an all-exception chunk degrades
// to decode-then-select cost, never to wrong answers.

/// Merged single-pass selection over one PFOR window `[start, start+n)`:
/// dense slots test their packed *relative* frame against `dense` (an
/// inclusive range; `None` means no dense slot can match), exception
/// slots test their absolute payload via `exc_test`. Matching
/// *chunk-relative* positions append to `out` in ascending order.
fn pfor_select_walk<FE: Fn(u64) -> bool + Copy>(
    c: &PforChunk,
    start: usize,
    n: usize,
    dense: Option<(u64, u64)>,
    exc_test: FE,
    out: &mut Vec<u32>,
) {
    let (rlo, rhi) = dense.unwrap_or((1, 0));
    let (epos, efr) = exc_window(&c.exc_pos, &c.exc_frames, start, n);
    if epos.is_empty() {
        // No exceptions in the window: the selection is a pure range
        // test over packed relative frames. Run it branch-free in the
        // X100 style — unconditionally store the candidate position,
        // advance the cursor by the predicate bit — so the loop speed
        // is independent of selectivity and the compiler keeps the
        // whole body in registers.
        let Some((rlo, rhi)) = dense else { return };
        // Blocks of 32 slots fold their predicate bits into one u32
        // mask — the compare stays in the lane's *native* width so the
        // auto-vectorizer can pack a full register of lanes per packed
        // compare — and only the set bits pay for a position append. At
        // the selectivities pushdown targets, most blocks drain in a
        // couple of `trailing_zeros` steps.
        out.reserve(n);
        macro_rules! walk {
            ($t:ty, $w:expr, $load:expr) => {{
                let max = <$t>::MAX as u64;
                if rlo <= max {
                    let lo = rlo as $t;
                    let sp = (rhi.min(max) - rlo) as $t;
                    let bytes = &c.payload[start * $w..(start + n) * $w];
                    let mut i = 0usize;
                    let mut blocks = bytes.chunks_exact($w * 32);
                    for blk in blocks.by_ref() {
                        let mut mask = 0u32;
                        for (j, ch) in blk.chunks_exact($w).enumerate() {
                            let rel: $t = $load(ch);
                            mask |= ((rel.wrapping_sub(lo) <= sp) as u32) << j;
                        }
                        while mask != 0 {
                            let j = mask.trailing_zeros() as usize;
                            out.push((start + i + j) as u32);
                            mask &= mask - 1;
                        }
                        i += 32;
                    }
                    for (j, ch) in blocks.remainder().chunks_exact($w).enumerate() {
                        let rel: $t = $load(ch);
                        if rel.wrapping_sub(lo) <= sp {
                            out.push((start + i + j) as u32);
                        }
                    }
                }
            }};
        }
        match c.lane {
            0 => {
                if rlo == 0 {
                    out.extend((start..start + n).map(|p| p as u32));
                }
            }
            8 => walk!(u8, 1, |ch: &[u8]| ch[0]),
            16 => walk!(u16, 2, |ch: &[u8]| u16::from_le_bytes([ch[0], ch[1]])),
            32 => walk!(u32, 4, |ch: &[u8]| {
                u32::from_le_bytes([ch[0], ch[1], ch[2], ch[3]])
            }),
            _ => walk!(u64, 8, |ch: &[u8]| {
                let mut w = [0u8; 8];
                w.copy_from_slice(ch);
                u64::from_le_bytes(w)
            }),
        }
        return;
    }
    let mut exc = epos.iter().zip(efr.iter()).peekable();
    let mut test = |i: usize, rel: u64, out: &mut Vec<u32>| {
        let p = (start + i) as u32;
        if let Some(&(&ep, &ef)) = exc.peek() {
            if ep == p {
                exc.next();
                if exc_test(ef) {
                    out.push(p);
                }
                return;
            }
        }
        if rel >= rlo && rel <= rhi {
            out.push(p);
        }
    };
    match c.lane {
        0 => {
            for i in 0..n {
                // lint: allow-index-loop (lane-0 slots carry no payload)
                test(i, 0, out);
            }
        }
        8 => {
            for (i, &b) in c.payload[start..start + n].iter().enumerate() {
                test(i, b as u64, out);
            }
        }
        16 => {
            let bytes = &c.payload[start * 2..(start + n) * 2];
            for (i, ch) in bytes.chunks_exact(2).enumerate() {
                test(i, u16::from_le_bytes([ch[0], ch[1]]) as u64, out);
            }
        }
        32 => {
            let bytes = &c.payload[start * 4..(start + n) * 4];
            for (i, ch) in bytes.chunks_exact(4).enumerate() {
                test(
                    i,
                    u32::from_le_bytes([ch[0], ch[1], ch[2], ch[3]]) as u64,
                    out,
                );
            }
        }
        _ => {
            let bytes = &c.payload[start * 8..(start + n) * 8];
            for (i, ch) in bytes.chunks_exact(8).enumerate() {
                let mut w = [0u8; 8];
                w.copy_from_slice(ch);
                test(i, u64::from_le_bytes(w), out);
            }
        }
    }
}

/// Inclusive absolute-frame-range selection over one integer PFOR
/// window. Integer exceptions are stored as absolute frames, so dense
/// slots and exceptions share one order-preserving domain; an empty
/// range (`lo > hi`) matches nothing.
pub fn pfor_select_frames(
    c: &PforChunk,
    start: usize,
    n: usize,
    lo: u64,
    hi: u64,
    out: &mut Vec<u32>,
) {
    if lo > hi {
        return;
    }
    let dense = if hi < c.base {
        None
    } else {
        Some((lo.max(c.base) - c.base, hi - c.base))
    };
    pfor_select_walk(c, start, n, dense, move |f| lo <= f && f <= hi, out);
}

/// Smallest scaled frame `k` with `(k as f64) / scale >= v` (or `> v`
/// when `strict`). `v` must not be NaN. The rounded-multiply guess is
/// corrected against the *exact* division expression the decoder's
/// slow path uses (and that the encoder verified every dense frame
/// against), so the boundary agrees with decode-then-select
/// bit-for-bit; the correction walks a provably tiny plateau.
fn f64_scaled_lower(v: f64, scale: f64, strict: bool) -> i64 {
    let approx = (v * scale).floor();
    if !approx.is_finite() {
        return if v < 0.0 { i64::MIN } else { i64::MAX };
    }
    let mut k = approx.clamp(-9.3e18, 9.2e18) as i64;
    let ok = |k: i64| {
        let q = (k as f64) / scale;
        if strict {
            q > v
        } else {
            q >= v
        }
    };
    let mut up = 0;
    while up < 64 && !ok(k) && k < i64::MAX {
        k += 1;
        up += 1;
    }
    let mut down = 0;
    while down < 64 && k > i64::MIN && ok(k - 1) {
        k -= 1;
        down += 1;
    }
    k
}

/// Scaled-frame-range selection over one f64 PFOR window. Dense slots
/// compare in the scaled integer domain `[lo_k, hi_k]`; exceptions hold
/// raw `f64::to_bits` payloads and are compared as floats.
pub fn pfor_select_f64<FE: Fn(f64) -> bool + Copy>(
    c: &PforChunk,
    start: usize,
    n: usize,
    lo_k: i64,
    hi_k: i64,
    exc_test: FE,
    out: &mut Vec<u32>,
) {
    let (lo, hi) = ((lo_k as u64) ^ SIGN, (hi_k as u64) ^ SIGN);
    let dense = if lo_k > hi_k || hi < c.base {
        None
    } else {
        Some((lo.max(c.base) - c.base, hi - c.base))
    };
    pfor_select_walk(
        c,
        start,
        n,
        dense,
        move |bits| exc_test(f64::from_bits(bits)),
        out,
    );
}

macro_rules! cmp_pfor_int_instances {
    ($( $ty:ty : $eq:ident / $lt:ident / $le:ident / $gt:ident / $ge:ident / $bt:ident );* $(;)?) => {
        $(
            /// Encoded-space `==` over one PFOR window (no unpack).
            pub fn $eq(c: &PforChunk, start: usize, n: usize, v: $ty, out: &mut Vec<u32>) {
                let f = v.to_frame();
                pfor_select_frames(c, start, n, f, f, out);
            }

            /// Encoded-space `<` over one PFOR window.
            pub fn $lt(c: &PforChunk, start: usize, n: usize, v: $ty, out: &mut Vec<u32>) {
                if let Some(hi) = v.to_frame().checked_sub(1) {
                    pfor_select_frames(c, start, n, 0, hi, out);
                }
            }

            /// Encoded-space `<=` over one PFOR window.
            pub fn $le(c: &PforChunk, start: usize, n: usize, v: $ty, out: &mut Vec<u32>) {
                pfor_select_frames(c, start, n, 0, v.to_frame(), out);
            }

            /// Encoded-space `>` over one PFOR window.
            pub fn $gt(c: &PforChunk, start: usize, n: usize, v: $ty, out: &mut Vec<u32>) {
                if let Some(lo) = v.to_frame().checked_add(1) {
                    pfor_select_frames(c, start, n, lo, u64::MAX, out);
                }
            }

            /// Encoded-space `>=` over one PFOR window.
            pub fn $ge(c: &PforChunk, start: usize, n: usize, v: $ty, out: &mut Vec<u32>) {
                pfor_select_frames(c, start, n, v.to_frame(), u64::MAX, out);
            }

            /// Encoded-space inclusive `BETWEEN` over one PFOR window.
            pub fn $bt(c: &PforChunk, start: usize, n: usize, v: $ty, w: $ty, out: &mut Vec<u32>) {
                pfor_select_frames(c, start, n, v.to_frame(), w.to_frame(), out);
            }
        )*
    };
}

cmp_pfor_int_instances! {
    i8:  cmp_pfor_eq_i8_col_val / cmp_pfor_lt_i8_col_val / cmp_pfor_le_i8_col_val
        / cmp_pfor_gt_i8_col_val / cmp_pfor_ge_i8_col_val / cmp_pfor_between_i8_col_val_val;
    i16: cmp_pfor_eq_i16_col_val / cmp_pfor_lt_i16_col_val / cmp_pfor_le_i16_col_val
        / cmp_pfor_gt_i16_col_val / cmp_pfor_ge_i16_col_val / cmp_pfor_between_i16_col_val_val;
    i32: cmp_pfor_eq_i32_col_val / cmp_pfor_lt_i32_col_val / cmp_pfor_le_i32_col_val
        / cmp_pfor_gt_i32_col_val / cmp_pfor_ge_i32_col_val / cmp_pfor_between_i32_col_val_val;
    i64: cmp_pfor_eq_i64_col_val / cmp_pfor_lt_i64_col_val / cmp_pfor_le_i64_col_val
        / cmp_pfor_gt_i64_col_val / cmp_pfor_ge_i64_col_val / cmp_pfor_between_i64_col_val_val;
    u8:  cmp_pfor_eq_u8_col_val / cmp_pfor_lt_u8_col_val / cmp_pfor_le_u8_col_val
        / cmp_pfor_gt_u8_col_val / cmp_pfor_ge_u8_col_val / cmp_pfor_between_u8_col_val_val;
    u16: cmp_pfor_eq_u16_col_val / cmp_pfor_lt_u16_col_val / cmp_pfor_le_u16_col_val
        / cmp_pfor_gt_u16_col_val / cmp_pfor_ge_u16_col_val / cmp_pfor_between_u16_col_val_val;
    u32: cmp_pfor_eq_u32_col_val / cmp_pfor_lt_u32_col_val / cmp_pfor_le_u32_col_val
        / cmp_pfor_gt_u32_col_val / cmp_pfor_ge_u32_col_val / cmp_pfor_between_u32_col_val_val;
    u64: cmp_pfor_eq_u64_col_val / cmp_pfor_lt_u64_col_val / cmp_pfor_le_u64_col_val
        / cmp_pfor_gt_u64_col_val / cmp_pfor_ge_u64_col_val / cmp_pfor_between_u64_col_val_val;
}

/// Encoded-space `==` over one scaled-f64 PFOR window: the constant
/// translates to a (possibly empty) run of scaled frames; exceptions
/// compare as floats from their raw bit patterns.
pub fn cmp_pfor_eq_f64_col_val(c: &PforChunk, start: usize, n: usize, v: f64, out: &mut Vec<u32>) {
    if v.is_nan() {
        return;
    }
    let scale = c.scale.max(1) as f64;
    let lo = f64_scaled_lower(v, scale, false);
    let hi = f64_scaled_lower(v, scale, true).saturating_sub(1);
    pfor_select_f64(c, start, n, lo, hi, move |x| x == v, out);
}

/// Encoded-space `<` over one scaled-f64 PFOR window.
pub fn cmp_pfor_lt_f64_col_val(c: &PforChunk, start: usize, n: usize, v: f64, out: &mut Vec<u32>) {
    if v.is_nan() {
        return;
    }
    let scale = c.scale.max(1) as f64;
    let hi = f64_scaled_lower(v, scale, false).saturating_sub(1);
    pfor_select_f64(c, start, n, i64::MIN, hi, move |x| x < v, out);
}

/// Encoded-space `<=` over one scaled-f64 PFOR window.
pub fn cmp_pfor_le_f64_col_val(c: &PforChunk, start: usize, n: usize, v: f64, out: &mut Vec<u32>) {
    if v.is_nan() {
        return;
    }
    let scale = c.scale.max(1) as f64;
    let hi = f64_scaled_lower(v, scale, true).saturating_sub(1);
    pfor_select_f64(c, start, n, i64::MIN, hi, move |x| x <= v, out);
}

/// Encoded-space `>` over one scaled-f64 PFOR window.
pub fn cmp_pfor_gt_f64_col_val(c: &PforChunk, start: usize, n: usize, v: f64, out: &mut Vec<u32>) {
    if v.is_nan() {
        return;
    }
    let scale = c.scale.max(1) as f64;
    let lo = f64_scaled_lower(v, scale, true);
    pfor_select_f64(c, start, n, lo, i64::MAX, move |x| x > v, out);
}

/// Encoded-space `>=` over one scaled-f64 PFOR window.
pub fn cmp_pfor_ge_f64_col_val(c: &PforChunk, start: usize, n: usize, v: f64, out: &mut Vec<u32>) {
    if v.is_nan() {
        return;
    }
    let scale = c.scale.max(1) as f64;
    let lo = f64_scaled_lower(v, scale, false);
    pfor_select_f64(c, start, n, lo, i64::MAX, move |x| x >= v, out);
}

/// Encoded-space inclusive `BETWEEN` over one scaled-f64 PFOR window.
pub fn cmp_pfor_between_f64_col_val_val(
    c: &PforChunk,
    start: usize,
    n: usize,
    v: f64,
    w: f64,
    out: &mut Vec<u32>,
) {
    if v.is_nan() || w.is_nan() {
        return;
    }
    let scale = c.scale.max(1) as f64;
    let lo = f64_scaled_lower(v, scale, false);
    let hi = f64_scaled_lower(w, scale, true).saturating_sub(1);
    pfor_select_f64(c, start, n, lo, hi, move |x| v <= x && x <= w, out);
}

/// Catalog of the encoded-space PFOR selection kernels (registry +
/// `cargo xtask lint` rule 5).
pub const CMP_PFOR_SIGNATURES: &[&str] = &[
    "cmp_pfor_eq_i8_col_val",
    "cmp_pfor_lt_i8_col_val",
    "cmp_pfor_le_i8_col_val",
    "cmp_pfor_gt_i8_col_val",
    "cmp_pfor_ge_i8_col_val",
    "cmp_pfor_between_i8_col_val_val",
    "cmp_pfor_eq_i16_col_val",
    "cmp_pfor_lt_i16_col_val",
    "cmp_pfor_le_i16_col_val",
    "cmp_pfor_gt_i16_col_val",
    "cmp_pfor_ge_i16_col_val",
    "cmp_pfor_between_i16_col_val_val",
    "cmp_pfor_eq_i32_col_val",
    "cmp_pfor_lt_i32_col_val",
    "cmp_pfor_le_i32_col_val",
    "cmp_pfor_gt_i32_col_val",
    "cmp_pfor_ge_i32_col_val",
    "cmp_pfor_between_i32_col_val_val",
    "cmp_pfor_eq_i64_col_val",
    "cmp_pfor_lt_i64_col_val",
    "cmp_pfor_le_i64_col_val",
    "cmp_pfor_gt_i64_col_val",
    "cmp_pfor_ge_i64_col_val",
    "cmp_pfor_between_i64_col_val_val",
    "cmp_pfor_eq_u8_col_val",
    "cmp_pfor_lt_u8_col_val",
    "cmp_pfor_le_u8_col_val",
    "cmp_pfor_gt_u8_col_val",
    "cmp_pfor_ge_u8_col_val",
    "cmp_pfor_between_u8_col_val_val",
    "cmp_pfor_eq_u16_col_val",
    "cmp_pfor_lt_u16_col_val",
    "cmp_pfor_le_u16_col_val",
    "cmp_pfor_gt_u16_col_val",
    "cmp_pfor_ge_u16_col_val",
    "cmp_pfor_between_u16_col_val_val",
    "cmp_pfor_eq_u32_col_val",
    "cmp_pfor_lt_u32_col_val",
    "cmp_pfor_le_u32_col_val",
    "cmp_pfor_gt_u32_col_val",
    "cmp_pfor_ge_u32_col_val",
    "cmp_pfor_between_u32_col_val_val",
    "cmp_pfor_eq_u64_col_val",
    "cmp_pfor_lt_u64_col_val",
    "cmp_pfor_le_u64_col_val",
    "cmp_pfor_gt_u64_col_val",
    "cmp_pfor_ge_u64_col_val",
    "cmp_pfor_between_u64_col_val_val",
    "cmp_pfor_eq_f64_col_val",
    "cmp_pfor_lt_f64_col_val",
    "cmp_pfor_le_f64_col_val",
    "cmp_pfor_gt_f64_col_val",
    "cmp_pfor_ge_f64_col_val",
    "cmp_pfor_between_f64_col_val_val",
];

// -- PDICT predicate rewriting ----------------------------------------

/// A predicate rewritten into dictionary-code space: the predicate is
/// evaluated once over the (sorted) dictionary and each chunk then only
/// tests packed codes — values, and in particular strings, are never
/// materialized until output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DictSel {
    /// No dictionary code satisfies the predicate.
    None,
    /// Every code satisfies it.
    All,
    /// Exactly the codes `lo..=hi` satisfy it (range predicates over a
    /// sorted dictionary are contiguous in code space).
    Range(u32, u32),
    /// Arbitrary code set, one bit per code.
    Mask(Vec<u64>),
}

impl DictSel {
    /// Evaluate `pred` over every code and collapse to the cheapest
    /// representation (`None`/`All`/contiguous range/bitset).
    pub fn from_pred(len: usize, pred: impl Fn(usize) -> bool) -> DictSel {
        let mut first = usize::MAX;
        let mut last = 0usize;
        let mut count = 0usize;
        for c in 0..len {
            // lint: allow-index-loop (predicate is over code space itself)
            if pred(c) {
                if first == usize::MAX {
                    first = c;
                }
                last = c;
                count += 1;
            }
        }
        if count == 0 {
            return DictSel::None;
        }
        if count == len {
            return DictSel::All;
        }
        if count == last - first + 1 {
            return DictSel::Range(first as u32, last as u32);
        }
        let mut mask = vec![0u64; len.div_ceil(64)];
        for c in 0..len {
            // lint: allow-index-loop (bitset build over code space)
            if pred(c) {
                mask[c / 64] |= 1 << (c % 64);
            }
        }
        DictSel::Mask(mask)
    }

    /// Does `code` satisfy the rewritten predicate?
    #[inline(always)]
    pub fn matches(&self, code: u64) -> bool {
        match self {
            DictSel::None => false,
            DictSel::All => true,
            DictSel::Range(lo, hi) => *lo as u64 <= code && code <= *hi as u64,
            DictSel::Mask(m) => m
                .get((code / 64) as usize)
                .is_some_and(|w| (w >> (code % 64)) & 1 == 1),
        }
    }
}

/// Selection over one PDICT window `[start, start+n)`: tests each
/// packed code against the rewritten predicate, appending matching
/// chunk-relative positions in ascending order.
pub fn pdict_select_codes(
    payload: &[u8],
    lane: u32,
    start: usize,
    n: usize,
    sel: &DictSel,
    out: &mut Vec<u32>,
) {
    match sel {
        DictSel::None => {}
        DictSel::All => out.extend(start as u32..(start + n) as u32),
        DictSel::Range(lo, hi) => code_range_walk(payload, lane, start, n, *lo, *hi, out),
        DictSel::Mask(_) => code_walk(payload, lane, start, n, move |c| sel.matches(c), out),
    }
}

/// Per-lane packed-code walk shared by the PDICT selection forms.
/// Branch-free walk for a contiguous code range — the shape every
/// ordered-dictionary range rewrite collapses to. Compares stay in the
/// native lane width and fold into a 32-slot mask that is drained with
/// `trailing_zeros`, so the hot loop carries no data-dependent branch.
fn code_range_walk(
    payload: &[u8],
    lane: u32,
    start: usize,
    n: usize,
    lo: u32,
    hi: u32,
    out: &mut Vec<u32>,
) {
    out.reserve(n);
    macro_rules! walk {
        ($t:ty, $w:expr, $load:expr) => {{
            // Codes are bounded by the lane domain, so both bounds fit.
            let sp = (hi - lo) as $t;
            let lo = lo as $t;
            let bytes = &payload[start * $w..(start + n) * $w];
            let mut i = 0usize;
            let mut blocks = bytes.chunks_exact($w * 32);
            for blk in blocks.by_ref() {
                let mut mask = 0u32;
                for (j, ch) in blk.chunks_exact($w).enumerate() {
                    let c: $t = $load(ch);
                    mask |= ((c.wrapping_sub(lo) <= sp) as u32) << j;
                }
                while mask != 0 {
                    let j = mask.trailing_zeros() as usize;
                    out.push((start + i + j) as u32);
                    mask &= mask - 1;
                }
                i += 32;
            }
            for (j, ch) in blocks.remainder().chunks_exact($w).enumerate() {
                let c: $t = $load(ch);
                if c.wrapping_sub(lo) <= sp {
                    out.push((start + i + j) as u32);
                }
            }
        }};
    }
    if lane <= 8 {
        walk!(u8, 1, |ch: &[u8]| ch[0])
    } else {
        walk!(u16, 2, |ch: &[u8]| u16::from_le_bytes([ch[0], ch[1]]))
    }
}

fn code_walk<F: Fn(u64) -> bool + Copy>(
    payload: &[u8],
    lane: u32,
    start: usize,
    n: usize,
    f: F,
    out: &mut Vec<u32>,
) {
    if lane <= 8 {
        for (i, &b) in payload[start..start + n].iter().enumerate() {
            if f(b as u64) {
                out.push((start + i) as u32);
            }
        }
    } else {
        let bytes = &payload[start * 2..(start + n) * 2];
        for (i, ch) in bytes.chunks_exact(2).enumerate() {
            if f(u16::from_le_bytes([ch[0], ch[1]]) as u64) {
                out.push((start + i) as u32);
            }
        }
    }
}

macro_rules! cmp_pdict_numeric {
    ($( $ty:ty : $eq:ident / $ne:ident / $lt:ident / $le:ident / $gt:ident / $ge:ident
        => $eqf:expr, $ltf:expr );* $(;)?) => {
        $(
            /// Dictionary-code `==`: predicate evaluated once over the
            /// dictionary, then a pure code-space window scan.
            pub fn $eq(
                dict: &[$ty], payload: &[u8], lane: u32,
                start: usize, n: usize, v: $ty, out: &mut Vec<u32>,
            ) {
                let sel = DictSel::from_pred(dict.len(), |c| ($eqf)(dict[c], v));
                pdict_select_codes(payload, lane, start, n, &sel, out);
            }

            /// Dictionary-code `!=`.
            pub fn $ne(
                dict: &[$ty], payload: &[u8], lane: u32,
                start: usize, n: usize, v: $ty, out: &mut Vec<u32>,
            ) {
                let sel = DictSel::from_pred(dict.len(), |c| !($eqf)(dict[c], v));
                pdict_select_codes(payload, lane, start, n, &sel, out);
            }

            /// Dictionary-code `<`.
            pub fn $lt(
                dict: &[$ty], payload: &[u8], lane: u32,
                start: usize, n: usize, v: $ty, out: &mut Vec<u32>,
            ) {
                let sel = DictSel::from_pred(dict.len(), |c| ($ltf)(dict[c], v));
                pdict_select_codes(payload, lane, start, n, &sel, out);
            }

            /// Dictionary-code `<=`.
            pub fn $le(
                dict: &[$ty], payload: &[u8], lane: u32,
                start: usize, n: usize, v: $ty, out: &mut Vec<u32>,
            ) {
                let sel = DictSel::from_pred(dict.len(), |c| {
                    ($ltf)(dict[c], v) || ($eqf)(dict[c], v)
                });
                pdict_select_codes(payload, lane, start, n, &sel, out);
            }

            /// Dictionary-code `>`.
            pub fn $gt(
                dict: &[$ty], payload: &[u8], lane: u32,
                start: usize, n: usize, v: $ty, out: &mut Vec<u32>,
            ) {
                let sel = DictSel::from_pred(dict.len(), |c| {
                    !($ltf)(dict[c], v) && !($eqf)(dict[c], v)
                });
                pdict_select_codes(payload, lane, start, n, &sel, out);
            }

            /// Dictionary-code `>=`.
            pub fn $ge(
                dict: &[$ty], payload: &[u8], lane: u32,
                start: usize, n: usize, v: $ty, out: &mut Vec<u32>,
            ) {
                let sel = DictSel::from_pred(dict.len(), |c| !($ltf)(dict[c], v));
                pdict_select_codes(payload, lane, start, n, &sel, out);
            }
        )*
    };
}

cmp_pdict_numeric! {
    i32: cmp_pdict_eq_i32_col_val / cmp_pdict_ne_i32_col_val / cmp_pdict_lt_i32_col_val
        / cmp_pdict_le_i32_col_val / cmp_pdict_gt_i32_col_val / cmp_pdict_ge_i32_col_val
        => |d: i32, v: i32| d == v, |d: i32, v: i32| d < v;
    i64: cmp_pdict_eq_i64_col_val / cmp_pdict_ne_i64_col_val / cmp_pdict_lt_i64_col_val
        / cmp_pdict_le_i64_col_val / cmp_pdict_gt_i64_col_val / cmp_pdict_ge_i64_col_val
        => |d: i64, v: i64| d == v, |d: i64, v: i64| d < v;
    f64: cmp_pdict_eq_f64_col_val / cmp_pdict_ne_f64_col_val / cmp_pdict_lt_f64_col_val
        / cmp_pdict_le_f64_col_val / cmp_pdict_gt_f64_col_val / cmp_pdict_ge_f64_col_val
        => |d: f64, v: f64| d == v, |d: f64, v: f64| d < v;
}

macro_rules! cmp_pdict_str {
    ($( $name:ident => $pred:expr );* $(;)?) => {
        $(
            /// Dictionary-code string comparison: the predicate runs
            /// once over the dictionary; chunk scans never touch a
            /// [`StrVec`].
            pub fn $name(
                dict: &StrVec, payload: &[u8], lane: u32,
                start: usize, n: usize, v: &str, out: &mut Vec<u32>,
            ) {
                let sel = DictSel::from_pred(dict.len(), |c| ($pred)(dict.get(c), v));
                pdict_select_codes(payload, lane, start, n, &sel, out);
            }
        )*
    };
}

cmp_pdict_str! {
    cmp_pdict_eq_str_col_val => |d: &str, v: &str| d == v;
    cmp_pdict_ne_str_col_val => |d: &str, v: &str| d != v;
    cmp_pdict_lt_str_col_val => |d: &str, v: &str| d < v;
    cmp_pdict_le_str_col_val => |d: &str, v: &str| d <= v;
    cmp_pdict_gt_str_col_val => |d: &str, v: &str| d > v;
    cmp_pdict_ge_str_col_val => |d: &str, v: &str| d >= v;
}

/// Catalog of the dictionary-code selection kernels.
pub const CMP_PDICT_SIGNATURES: &[&str] = &[
    "cmp_pdict_eq_i32_col_val",
    "cmp_pdict_ne_i32_col_val",
    "cmp_pdict_lt_i32_col_val",
    "cmp_pdict_le_i32_col_val",
    "cmp_pdict_gt_i32_col_val",
    "cmp_pdict_ge_i32_col_val",
    "cmp_pdict_eq_i64_col_val",
    "cmp_pdict_ne_i64_col_val",
    "cmp_pdict_lt_i64_col_val",
    "cmp_pdict_le_i64_col_val",
    "cmp_pdict_gt_i64_col_val",
    "cmp_pdict_ge_i64_col_val",
    "cmp_pdict_eq_f64_col_val",
    "cmp_pdict_ne_f64_col_val",
    "cmp_pdict_lt_f64_col_val",
    "cmp_pdict_le_f64_col_val",
    "cmp_pdict_gt_f64_col_val",
    "cmp_pdict_ge_f64_col_val",
    "cmp_pdict_eq_str_col_val",
    "cmp_pdict_ne_str_col_val",
    "cmp_pdict_lt_str_col_val",
    "cmp_pdict_le_str_col_val",
    "cmp_pdict_gt_str_col_val",
    "cmp_pdict_ge_str_col_val",
];

// -- selective decode -------------------------------------------------

/// Random-access read of one packed relative frame.
#[inline(always)]
fn lane_rel(payload: &[u8], lane: u32, i: usize) -> u64 {
    // Single-slice reads keep each access down to one bounds check and
    // one aligned-width load instead of per-byte indexing.
    match lane {
        0 => 0,
        8 => payload[i] as u64,
        16 => {
            let s = &payload[i * 2..i * 2 + 2];
            u16::from_le_bytes([s[0], s[1]]) as u64
        }
        32 => {
            let s = &payload[i * 4..i * 4 + 4];
            u32::from_le_bytes([s[0], s[1], s[2], s[3]]) as u64
        }
        _ => {
            let s = &payload[i * 8..i * 8 + 8];
            u64::from_le_bytes([s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7]])
        }
    }
}

/// Gather-decode of an integer PFOR chunk: `out[i]` becomes the value
/// at chunk-relative position `sel[i]` (`sel` ascending), merging the
/// exception list in one pass. Only the selected positions are touched.
fn pfor_gather_int<T: FrameValue>(out: &mut [T], c: &PforChunk, sel: &[u32]) {
    debug_assert_eq!(out.len(), sel.len());
    let mut e = c
        .exc_pos
        .partition_point(|&p| p < sel.first().copied().unwrap_or(0));
    if e == c.exc_pos.len() || sel.last().is_none_or(|&l| c.exc_pos[e] > l) {
        // No exceptions under the selection: straight-line gather.
        for (o, &p) in out.iter_mut().zip(sel) {
            *o = T::from_frame(
                c.base
                    .wrapping_add(lane_rel(&c.payload, c.lane, p as usize)),
            );
        }
        return;
    }
    for (o, &p) in out.iter_mut().zip(sel) {
        while e < c.exc_pos.len() && c.exc_pos[e] < p {
            e += 1;
        }
        if e < c.exc_pos.len() && c.exc_pos[e] == p {
            *o = T::from_frame(c.exc_frames[e]);
        } else {
            *o = T::from_frame(
                c.base
                    .wrapping_add(lane_rel(&c.payload, c.lane, p as usize)),
            );
        }
    }
}

/// Gather-decode of a scaled-f64 PFOR chunk, byte-identical to the
/// dense decoder: the same three-way fast-path selection, with
/// exceptions restored from their raw bit patterns.
fn pfor_gather_f64(out: &mut [f64], c: &PforChunk, sel: &[u32]) {
    debug_assert_eq!(out.len(), sel.len());
    let scale_u = c.scale.max(1);
    let pre = (c.base ^ SIGN).wrapping_add(CVT_MAGIC_BITS);
    let within = pfor_f64_range_within(c.base, c.lane, (1 << 51) - 1);
    let (rhi, rlo) = if scale_u > 1 && within {
        recip_split_for(scale_u as f64, c.base, c.lane)
    } else {
        (0.0, 0.0)
    };
    let scale = scale_u as f64;
    let base = c.base;
    let dense = move |rel: u64| -> f64 {
        if scale_u == 1 && within {
            f64::from_bits(pre.wrapping_add(rel)) - CVT_MAGIC
        } else if scale_u > 1 && within {
            let x = f64::from_bits(pre.wrapping_add(rel)) - CVT_MAGIC;
            x * rhi + x * rlo
        } else {
            ((base.wrapping_add(rel) ^ SIGN) as i64) as f64 / scale
        }
    };
    let mut e = c
        .exc_pos
        .partition_point(|&p| p < sel.first().copied().unwrap_or(0));
    if e == c.exc_pos.len() || sel.last().is_none_or(|&l| c.exc_pos[e] > l) {
        // No exceptions under the selection: pick the decode expression
        // once and run a straight-line gather, instead of re-branching
        // on the chunk's fast-path eligibility for every element.
        if scale_u == 1 && within {
            for (o, &p) in out.iter_mut().zip(sel) {
                let rel = lane_rel(&c.payload, c.lane, p as usize);
                *o = f64::from_bits(pre.wrapping_add(rel)) - CVT_MAGIC;
            }
        } else if scale_u > 1 && within {
            for (o, &p) in out.iter_mut().zip(sel) {
                let rel = lane_rel(&c.payload, c.lane, p as usize);
                let x = f64::from_bits(pre.wrapping_add(rel)) - CVT_MAGIC;
                *o = x * rhi + x * rlo;
            }
        } else {
            for (o, &p) in out.iter_mut().zip(sel) {
                let rel = lane_rel(&c.payload, c.lane, p as usize);
                *o = ((base.wrapping_add(rel) ^ SIGN) as i64) as f64 / scale;
            }
        }
        return;
    }
    for (o, &p) in out.iter_mut().zip(sel) {
        while e < c.exc_pos.len() && c.exc_pos[e] < p {
            e += 1;
        }
        if e < c.exc_pos.len() && c.exc_pos[e] == p {
            *o = f64::from_bits(c.exc_frames[e]);
        } else {
            *o = dense(lane_rel(&c.payload, c.lane, p as usize));
        }
    }
}

macro_rules! decode_sel_pfor_instances {
    ($( $ty:ty : $name:ident );* $(;)?) => {
        $(
            /// Macro-generated selective PFOR decoder: decodes only the
            /// (ascending, chunk-relative) positions in `sel`, compacted.
            pub fn $name(out: &mut [$ty], chunk: &PforChunk, sel: &[u32]) {
                pfor_gather_int(out, chunk, sel)
            }
        )*
    };
}

decode_sel_pfor_instances! {
    i8:  decode_sel_pfor_i8_col;
    i16: decode_sel_pfor_i16_col;
    i32: decode_sel_pfor_i32_col;
    i64: decode_sel_pfor_i64_col;
    u8:  decode_sel_pfor_u8_col;
    u16: decode_sel_pfor_u16_col;
    u32: decode_sel_pfor_u32_col;
    u64: decode_sel_pfor_u64_col;
}

/// Selective PFOR decoder for scaled floats (see [`pfor_gather_f64`]).
pub fn decode_sel_pfor_f64_col(out: &mut [f64], chunk: &PforChunk, sel: &[u32]) {
    pfor_gather_f64(out, chunk, sel)
}

macro_rules! decode_sel_pdict_numeric {
    ($( $ty:ty : $name:ident );* $(;)?) => {
        $(
            /// Selective PDICT decoder: gathers dictionary values at the
            /// packed codes of the selected positions only.
            pub fn $name(out: &mut [$ty], payload: &[u8], lane: u32, dict: &[$ty], sel: &[u32]) {
                debug_assert_eq!(out.len(), sel.len());
                let lane = if lane <= 8 { 8 } else { 16 };
                for (o, &p) in out.iter_mut().zip(sel) {
                    *o = dict[lane_rel(payload, lane, p as usize) as usize];
                }
            }
        )*
    };
}

decode_sel_pdict_numeric! {
    i32: decode_sel_pdict_i32_col;
    i64: decode_sel_pdict_i64_col;
    f64: decode_sel_pdict_f64_col;
}

/// Selective PDICT decoder for strings: appends the dictionary value of
/// each selected position (string vectors are append-only). This is the
/// only point where a dictionary-predicate query touches a [`StrVec`].
pub fn decode_sel_pdict_str_col(
    out: &mut StrVec,
    payload: &[u8],
    lane: u32,
    dict: &StrVec,
    sel: &[u32],
) {
    let lane = if lane <= 8 { 8 } else { 16 };
    for &p in sel {
        out.push(dict.get(lane_rel(payload, lane, p as usize) as usize));
    }
}

/// Catalog of the selective-decode kernels; each has a dense
/// `decompress_*` twin (lint rule 5 checks the pairing).
pub const DECODE_SEL_SIGNATURES: &[&str] = &[
    "decode_sel_pfor_i8_col",
    "decode_sel_pfor_i16_col",
    "decode_sel_pfor_i32_col",
    "decode_sel_pfor_i64_col",
    "decode_sel_pfor_u8_col",
    "decode_sel_pfor_u16_col",
    "decode_sel_pfor_u32_col",
    "decode_sel_pfor_u64_col",
    "decode_sel_pfor_f64_col",
    "decode_sel_pdict_i32_col",
    "decode_sel_pdict_i64_col",
    "decode_sel_pdict_f64_col",
    "decode_sel_pdict_str_col",
];

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_pfor_i64(values: &[i64]) {
        let c = compress_pfor_i64_col(values);
        let mut out = vec![0i64; values.len()];
        let mut scratch = Vec::new();
        decompress_pfor_i64_col(&mut out, &c, 0, &mut scratch);
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
        let mut out = vec![0i64; 100];
        let mut scratch = Vec::new();
        // Mid-chunk window containing no exception.
        decompress_pfor_i64_col(&mut out, &c, 1000, &mut scratch);
        assert_eq!(out, v[1000..1100]);
        // Window straddling the second exception.
        decompress_pfor_i64_col(&mut out, &c, 4000, &mut scratch);
        assert_eq!(out, v[4000..4100]);
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
        let mut scratch = Vec::new();
        decompress_pfor_f64_col(&mut out, &c, 0, &mut scratch);
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
        let mut out = vec![0f64; 512];
        let mut scratch = Vec::new();
        decompress_pfor_f64_col(&mut out, &c, 1024, &mut scratch);
        for (a, b) in out.iter().zip(&v[1024..1536]) {
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
            decompress_pfor_f64_col(&mut out, &c, 0, &mut Vec::new());
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
        let mut scratch = Vec::new();
        decompress_pfor_f64_col(&mut out, &c, 0, &mut scratch);
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
        let mut scratch = Vec::new();
        // Aligned seek from a sync carry.
        let mut out = vec![0u32; 100];
        let seek = (4321 / DELTA_SYNC) * DELTA_SYNC;
        let carry = c.sync[4321 / DELTA_SYNC];
        decompress_pfordelta_u32_col(&mut out, &c, seek, carry, 4321, &mut scratch);
        assert_eq!(out, sorted[4321..4421]);
        // Sequential continuation from the returned carry.
        let carry2 = decompress_pfordelta_u32_col(&mut out, &c, seek, carry, 4321, &mut scratch);
        let mut out2 = vec![0u32; 50];
        decompress_pfordelta_u32_col(&mut out2, &c, 4421, carry2, 4421, &mut scratch);
        assert_eq!(out2, sorted[4421..4471]);
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
        let mut out = vec![0i64; 200];
        let mut scratch = Vec::new();
        let seek = (1400 / DELTA_SYNC) * DELTA_SYNC;
        decompress_pfordelta_i64_col(
            &mut out,
            &c,
            seek,
            c.sync[1400 / DELTA_SYNC],
            1400,
            &mut scratch,
        );
        assert_eq!(out, v[1400..1600]);
    }

    #[test]
    fn pdict_numeric_roundtrip() {
        let dict = vec![-5i64, 0, 17, 250];
        let v: Vec<i64> = (0..500).map(|i| dict[i % 4]).collect();
        let payload = compress_pdict_i64_col(&v, &dict, 8).expect("all in dict");
        let mut out = vec![0i64; 100];
        let mut scratch = Vec::new();
        decompress_pdict_i64_col(&mut out, &payload, 8, 250, &dict, &mut scratch);
        assert_eq!(out, v[250..350]);
        assert!(compress_pdict_i64_col(&[99], &dict, 8).is_none());
    }

    #[test]
    fn pdict_str_roundtrip() {
        let mut dict = StrVec::with_capacity(3, 4);
        for s in ["AIR", "RAIL", "SHIP"] {
            dict.push(s);
        }
        let mut v = StrVec::with_capacity(10, 4);
        for i in 0..10 {
            v.push(["RAIL", "AIR", "SHIP"][i % 3]);
        }
        let payload = compress_pdict_str_col(&v, &dict, 8).expect("all in dict");
        let mut out = StrVec::with_capacity(4, 4);
        let mut scratch = Vec::new();
        decompress_pdict_str_col(&mut out, &payload, 8, 3, 4, &dict, &mut scratch);
        for (i, want) in (3..7).enumerate() {
            assert_eq!(out.get(i), v.get(want));
        }
    }

    fn expect_sel<T: Copy>(v: &[T], start: usize, n: usize, pred: impl Fn(T) -> bool) -> Vec<u32> {
        (start..start + n)
            .filter(|&i| pred(v[i]))
            .map(|i| i as u32)
            .collect()
    }

    #[test]
    #[allow(clippy::type_complexity)]
    fn pfor_pushdown_matches_decode_then_select_i64() {
        let mut v: Vec<i64> = (0..5000).map(|i| 100 + (i % 50)).collect();
        v[17] = i64::MAX;
        v[140] = -3;
        v[4032] = i64::MIN;
        let c = compress_pfor_i64_col(&v);
        let (start, n) = (10, 4500);
        let t = 125i64;
        let kernels: [(
            fn(&PforChunk, usize, usize, i64, &mut Vec<u32>),
            fn(i64, i64) -> bool,
        ); 5] = [
            (cmp_pfor_eq_i64_col_val, |x, t| x == t),
            (cmp_pfor_lt_i64_col_val, |x, t| x < t),
            (cmp_pfor_le_i64_col_val, |x, t| x <= t),
            (cmp_pfor_gt_i64_col_val, |x, t| x > t),
            (cmp_pfor_ge_i64_col_val, |x, t| x >= t),
        ];
        for (kernel, pred) in kernels {
            let mut got = Vec::new();
            kernel(&c, start, n, t, &mut got);
            assert_eq!(got, expect_sel(&v, start, n, |x| pred(x, t)));
        }
        let mut got = Vec::new();
        cmp_pfor_between_i64_col_val_val(&c, start, n, 110, 130, &mut got);
        assert_eq!(got, expect_sel(&v, start, n, |x| (110..=130).contains(&x)));
        // Extreme thresholds exercise the empty-range edges.
        let mut got = Vec::new();
        cmp_pfor_lt_i64_col_val(&c, 0, v.len(), i64::MIN, &mut got);
        assert!(got.is_empty());
        let mut got = Vec::new();
        cmp_pfor_gt_i64_col_val(&c, 0, v.len(), i64::MAX, &mut got);
        assert!(got.is_empty());
    }

    #[test]
    #[allow(clippy::type_complexity)]
    fn pfor_pushdown_matches_decode_then_select_f64() {
        // Cents (scale 100) with float exceptions sprinkled in.
        let mut v: Vec<f64> = (0..4096).map(|i| (i % 3000) as f64 / 100.0).collect();
        v[7] = 0.005;
        v[99] = -1.0 / 3.0;
        v[3000] = f64::NAN;
        let c = compress_pfor_f64_col(&v);
        assert_eq!(c.scale, 100);
        assert!(!c.exc_pos.is_empty());
        let (start, n) = (3, 4000);
        for t in [14.99, 0.005, 15.0, -0.17, 29.994] {
            let kernels: [(
                fn(&PforChunk, usize, usize, f64, &mut Vec<u32>),
                fn(f64, f64) -> bool,
            ); 5] = [
                (cmp_pfor_eq_f64_col_val, |x, t| x == t),
                (cmp_pfor_lt_f64_col_val, |x, t| x < t),
                (cmp_pfor_le_f64_col_val, |x, t| x <= t),
                (cmp_pfor_gt_f64_col_val, |x, t| x > t),
                (cmp_pfor_ge_f64_col_val, |x, t| x >= t),
            ];
            for (kernel, pred) in kernels {
                let mut got = Vec::new();
                kernel(&c, start, n, t, &mut got);
                assert_eq!(got, expect_sel(&v, start, n, |x| pred(x, t)), "t={t}");
            }
        }
        let mut got = Vec::new();
        cmp_pfor_between_f64_col_val_val(&c, start, n, 0.005, 14.99, &mut got);
        assert_eq!(
            got,
            expect_sel(&v, start, n, |x| (0.005..=14.99).contains(&x))
        );
        // NaN constants match nothing.
        let mut got = Vec::new();
        cmp_pfor_lt_f64_col_val(&c, start, n, f64::NAN, &mut got);
        assert!(got.is_empty());
    }

    #[test]
    fn pfor_pushdown_all_exception_chunk() {
        let v: Vec<f64> = (0..64).map(|i| 0.1 + i as f64 * 1e-13).collect();
        let c = compress_pfor_f64_col(&v);
        assert_eq!(c.lane, 0);
        let mut got = Vec::new();
        cmp_pfor_ge_f64_col_val(&c, 0, v.len(), 0.1 + 32.0 * 1e-13, &mut got);
        assert_eq!(got, expect_sel(&v, 0, v.len(), |x| x >= 0.1 + 32.0 * 1e-13));
    }

    #[test]
    fn dict_sel_collapses_forms() {
        let dict = [10i64, 20, 30, 40];
        assert_eq!(
            DictSel::from_pred(4, |c| dict[c] == 30),
            DictSel::Range(2, 2)
        );
        assert_eq!(
            DictSel::from_pred(4, |c| dict[c] < 35),
            DictSel::Range(0, 2)
        );
        assert_eq!(DictSel::from_pred(4, |c| dict[c] > 99), DictSel::None);
        assert_eq!(DictSel::from_pred(4, |c| dict[c] > 0), DictSel::All);
        let ne = DictSel::from_pred(4, |c| dict[c] != 20);
        assert!(matches!(ne, DictSel::Mask(_)));
        assert!(ne.matches(0) && !ne.matches(1) && ne.matches(3));
    }

    #[test]
    #[allow(clippy::type_complexity)]
    fn pdict_pushdown_matches_decode_then_select() {
        let dict = vec![-5i64, 0, 17, 250];
        let v: Vec<i64> = (0..500).map(|i| dict[(i * 7) % 4]).collect();
        let payload = compress_pdict_i64_col(&v, &dict, 8).expect("all in dict");
        let (start, n) = (13, 400);
        let kernels: [(
            fn(&[i64], &[u8], u32, usize, usize, i64, &mut Vec<u32>),
            fn(i64, i64) -> bool,
        ); 6] = [
            (cmp_pdict_eq_i64_col_val, |x, t| x == t),
            (cmp_pdict_ne_i64_col_val, |x, t| x != t),
            (cmp_pdict_lt_i64_col_val, |x, t| x < t),
            (cmp_pdict_le_i64_col_val, |x, t| x <= t),
            (cmp_pdict_gt_i64_col_val, |x, t| x > t),
            (cmp_pdict_ge_i64_col_val, |x, t| x >= t),
        ];
        for t in [-5i64, 17, 99] {
            for (kernel, pred) in kernels {
                let mut got = Vec::new();
                kernel(&dict, &payload, 8, start, n, t, &mut got);
                assert_eq!(got, expect_sel(&v, start, n, |x| pred(x, t)), "t={t}");
            }
        }
    }

    #[test]
    fn pdict_str_pushdown_never_materializes() {
        let mut dict = StrVec::with_capacity(3, 4);
        for s in ["AIR", "RAIL", "SHIP"] {
            dict.push(s);
        }
        let mut v = StrVec::with_capacity(9, 4);
        let vals = ["RAIL", "AIR", "SHIP"];
        for i in 0..9 {
            v.push(vals[i % 3]);
        }
        let payload = compress_pdict_str_col(&v, &dict, 8).expect("all in dict");
        let mut got = Vec::new();
        cmp_pdict_eq_str_col_val(&dict, &payload, 8, 0, 9, "RAIL", &mut got);
        assert_eq!(got, vec![0, 3, 6]);
        got.clear();
        cmp_pdict_ge_str_col_val(&dict, &payload, 8, 2, 6, "RAIL", &mut got);
        let want: Vec<u32> = (2..8)
            .filter(|&i| v.get(i) >= "RAIL")
            .map(|i| i as u32)
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn decode_sel_matches_dense_decode() {
        let mut v: Vec<i64> = (0..5000).map(|i| 100 + (i % 50)).collect();
        v[17] = i64::MAX;
        v[4032] = i64::MIN;
        let c = compress_pfor_i64_col(&v);
        let sel: Vec<u32> = vec![0, 17, 18, 1000, 4031, 4032, 4999];
        let mut out = vec![0i64; sel.len()];
        decode_sel_pfor_i64_col(&mut out, &c, &sel);
        let want: Vec<i64> = sel.iter().map(|&p| v[p as usize]).collect();
        assert_eq!(out, want);

        let f: Vec<f64> = (0..4096).map(|i| (i % 3000) as f64 / 100.0).collect();
        let cf = compress_pfor_f64_col(&f);
        let sel: Vec<u32> = vec![0, 17, 18, 1000, 4031, 4095];
        let mut fout = vec![0f64; sel.len()];
        decode_sel_pfor_f64_col(&mut fout, &cf, &sel);
        let mut dense = vec![0f64; f.len()];
        let mut scratch = Vec::new();
        decompress_pfor_f64_col(&mut dense, &cf, 0, &mut scratch);
        for (o, &p) in fout.iter().zip(&sel) {
            assert_eq!(o.to_bits(), dense[p as usize].to_bits());
        }
    }

    #[test]
    fn decode_sel_pdict_gathers() {
        let dict = vec![-5i64, 0, 17, 250];
        let v: Vec<i64> = (0..500).map(|i| dict[(i * 3) % 4]).collect();
        let payload = compress_pdict_i64_col(&v, &dict, 8).expect("all in dict");
        let sel = vec![1u32, 7, 250, 499];
        let mut out = vec![0i64; sel.len()];
        decode_sel_pdict_i64_col(&mut out, &payload, 8, &dict, &sel);
        assert_eq!(out, sel.iter().map(|&p| v[p as usize]).collect::<Vec<_>>());

        let mut sdict = StrVec::with_capacity(2, 4);
        sdict.push("AA");
        sdict.push("BB");
        let mut sv = StrVec::with_capacity(6, 4);
        for i in 0..6 {
            sv.push(["AA", "BB"][i % 2]);
        }
        let spayload = compress_pdict_str_col(&sv, &sdict, 8).expect("all in dict");
        let mut sout = StrVec::with_capacity(3, 4);
        decode_sel_pdict_str_col(&mut sout, &spayload, 8, &sdict, &[0, 3, 4]);
        assert_eq!(sout.get(0), "AA");
        assert_eq!(sout.get(1), "BB");
        assert_eq!(sout.get(2), "AA");
    }
}
