//! The byte layer: the one place on-disk bytes become integers and back
//! (DESIGN.md §10, "Byte layer").
//!
//! Every container this repo writes — `XCPC` column streams, `XDCF`
//! column files, `XMAN` manifests, `XSPR` spill runs and their `XSPB`
//! blocks — is a **sealed frame**:
//!
//! ```text
//! magic[4] · version u8 · body_len u64 · body … · fold u8
//! ```
//!
//! built by a [`Writer`] (length fields back-patched, so nested sections
//! are serialized in place) and parsed through a [`Reader`], a
//! bounds-checked cursor that never allocates from a count the remaining
//! input could not hold. The trailer is the same 8-bit
//! [`fold_checksum`] compressed chunks carry. The raw value codec
//! ([`Writer::put_column`] / [`Reader::vector`]) is the single encoding
//! of "a typed array of values" shared by durable fragments, enum and
//! PDICT dictionaries and spill blocks.

use crate::column::ColumnData;
use std::io::Read;
use x100_vector::{ScalarType, StrVec, Vector};

/// Bytes a sealed frame adds around its body (magic, version, length,
/// fold trailer) — also the size of an empty frame.
pub const FRAME_OVERHEAD: usize = HEAD_BYTES + 1;
const HEAD_BYTES: usize = 4 + 1 + 8;

/// 8-bit fold of a byte block (torn-write detector, not crypto).
///
/// Folds eight bytes per step instead of one: a rotate/xor over 64-bit
/// words with a byte-wise tail, reduced to 8 bits by xoring the lanes
/// together. The whole pipeline is *linear* over GF(2) — rotates and
/// xors never cancel an injected difference against the original data —
/// so a single flipped bit anywhere in the block always flips the
/// checksum, exactly the guarantee the torn-write fault plan exercises.
/// Verification runs once per chunk per cursor, ahead of every decode
/// path; the word-at-a-time fold keeps that fixed cost from dominating
/// selective decodes that only touch a handful of rows per chunk.
pub(crate) fn byte_fold(acc: u8, bytes: &[u8]) -> u8 {
    // Four independent rotate/xor accumulators hide the serial
    // dependency of a single fold chain; distinct rotations at the
    // merge keep the combination linear but lane-position-sensitive.
    let mut l = [acc as u64, 0u64, 0u64, 0u64];
    let mut blocks = bytes.chunks_exact(32);
    for blk in blocks.by_ref() {
        for (j, ch) in blk.chunks_exact(8).enumerate() {
            l[j] = l[j].rotate_left(7) ^ u64::read(ch);
        }
    }
    let mut w = l[0].rotate_left(31) ^ l[1].rotate_left(19) ^ l[2].rotate_left(9) ^ l[3];
    for &b in blocks.remainder() {
        w = w.rotate_left(7) ^ b as u64;
    }
    let f = w ^ (w >> 32);
    let f = f ^ (f >> 16);
    (f ^ (f >> 8)) as u8
}

/// The fold with its standard seed: the trailer of every sealed frame
/// and the seed state of every chunk checksum.
pub fn fold_checksum(bytes: &[u8]) -> u8 {
    byte_fold(0xA5, bytes)
}

/// Continue a fold over the little-endian image of each value in turn
/// (how chunk checksums cover their patch and sync lists).
pub(crate) fn fold_values<T: Le>(acc: u8, values: &[T]) -> u8 {
    let mut b = [0u8; 8];
    values.iter().fold(acc, |a, v| {
        v.write(&mut b[..T::W]);
        byte_fold(a, &b[..T::W])
    })
}

/// A fixed-width scalar with a little-endian byte image.
pub trait Le: Copy {
    /// Encoded width in bytes.
    const W: usize;
    /// Write the image into `out` (exactly `W` bytes).
    fn write(self, out: &mut [u8]);
    /// Read a value back from exactly `W` bytes.
    fn read(b: &[u8]) -> Self;
}

macro_rules! le_scalars {
    ($($t:ty),*) => {$(
        impl Le for $t {
            const W: usize = std::mem::size_of::<$t>();
            #[inline(always)]
            fn write(self, out: &mut [u8]) {
                out.copy_from_slice(&self.to_le_bytes());
            }
            #[inline(always)]
            fn read(b: &[u8]) -> Self {
                <$t>::from_le_bytes(b.try_into().expect("caller slices exactly W bytes"))
            }
        }
    )*};
}
le_scalars!(i8, i16, i32, i64, u8, u16, u32, u64, f64);

impl Le for bool {
    const W: usize = 1;
    fn write(self, out: &mut [u8]) {
        out[0] = u8::from(self);
    }
    fn read(b: &[u8]) -> Self {
        b[0] != 0
    }
}

/// On-disk tag of each scalar type: its index in this table.
const TAGGED: [ScalarType; 11] = [
    ScalarType::I8,
    ScalarType::I16,
    ScalarType::I32,
    ScalarType::I64,
    ScalarType::U8,
    ScalarType::U16,
    ScalarType::U32,
    ScalarType::U64,
    ScalarType::F64,
    ScalarType::Str,
    ScalarType::Bool,
];

/// Builds one sealed frame in place.
#[derive(Debug)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Start a frame, reusing `buf`'s allocation (contents discarded).
    pub fn new(mut buf: Vec<u8>, magic: &[u8; 4], version: u8) -> Writer {
        buf.clear();
        buf.extend_from_slice(magic);
        buf.push(version);
        buf.extend_from_slice(&[0; 8]);
        Writer { buf }
    }

    /// Append one scalar.
    pub fn put<T: Le>(&mut self, v: T) {
        self.put_slice(&[v]);
    }

    /// Append a scalar type's tag.
    pub fn put_type(&mut self, ty: ScalarType) {
        let tag = TAGGED.iter().position(|&t| t == ty);
        self.put(tag.expect("every scalar type is tagged") as u8);
    }

    /// Append the images of `values` back to back (no count).
    pub fn put_slice<T: Le>(&mut self, values: &[T]) {
        let at = self.buf.len();
        self.buf.resize(at + values.len() * T::W, 0);
        for (v, out) in values.iter().zip(self.buf[at..].chunks_exact_mut(T::W)) {
            v.write(out);
        }
    }

    /// Append a `u32`-length-prefixed string.
    pub fn put_str(&mut self, s: &str) {
        self.put(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Append a `u64`-length-prefixed section written by `fill`; the
    /// length is patched in afterwards, so nothing is built aside and
    /// copied.
    pub fn section(&mut self, fill: impl FnOnce(&mut Writer)) {
        let at = self.buf.len();
        self.put(0u64);
        fill(self);
        self.patch_len(at);
    }

    fn patch_len(&mut self, at: usize) {
        let len = (self.buf.len() - at - 8) as u64;
        len.write(&mut self.buf[at..at + 8]);
    }

    /// The raw value codec: type tag, row count, then the values —
    /// fixed-width scalars as their images, strings length-prefixed.
    pub fn put_array<T: Le>(&mut self, ty: ScalarType, values: &[T]) {
        self.put_type(ty);
        self.put(values.len() as u64);
        self.put_slice(values);
    }

    /// The raw value codec over a column fragment.
    pub fn put_column(&mut self, data: &ColumnData) {
        match data {
            ColumnData::I8(v) => self.put_array(ScalarType::I8, v),
            ColumnData::I16(v) => self.put_array(ScalarType::I16, v),
            ColumnData::I32(v) => self.put_array(ScalarType::I32, v),
            ColumnData::I64(v) => self.put_array(ScalarType::I64, v),
            ColumnData::U8(v) => self.put_array(ScalarType::U8, v),
            ColumnData::U16(v) => self.put_array(ScalarType::U16, v),
            ColumnData::U32(v) => self.put_array(ScalarType::U32, v),
            ColumnData::U64(v) => self.put_array(ScalarType::U64, v),
            ColumnData::F64(v) => self.put_array(ScalarType::F64, v),
            ColumnData::Str(s) => {
                self.put_type(ScalarType::Str);
                self.put(s.len() as u64);
                s.iter().for_each(|x| self.put_str(x));
            }
        }
    }

    /// Patch the frame length and append the fold trailer.
    pub fn seal(mut self) -> Vec<u8> {
        self.patch_len(HEAD_BYTES - 8);
        self.buf.push(fold_checksum(&self.buf));
        self.buf
    }
}

/// Read one sealed frame from a stream into `buf`, refusing a declared
/// length that would run past `limit` bytes (what the caller knows is
/// left in the file) before allocating for it. The frame still has to
/// pass [`Reader::open`].
pub fn read_frame(src: &mut impl Read, limit: u64, buf: &mut Vec<u8>) -> std::io::Result<()> {
    buf.clear();
    buf.resize(HEAD_BYTES, 0);
    src.read_exact(buf)?;
    let total = u64::read(&buf[HEAD_BYTES - 8..]).checked_add(FRAME_OVERHEAD as u64);
    match total {
        Some(total) if total <= limit => {
            buf.resize(total as usize, 0);
            src.read_exact(&mut buf[HEAD_BYTES..])
        }
        _ => Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("frame length runs past the {limit} bytes left"),
        )),
    }
}

/// Bounds-checked cursor over untrusted bytes. Every read either
/// returns a value backed by input that exists or a description of what
/// was missing; nothing here can panic or over-allocate.
#[derive(Debug)]
pub struct Reader<'a> {
    b: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    /// Open a sealed frame: the fold trailer, magic, version and
    /// declared length must all match before any field is trusted.
    pub fn open(bytes: &'a [u8], magic: &[u8; 4], version: u8) -> Result<Reader<'a>, String> {
        let Some((&sum, framed)) = bytes.split_last() else {
            return Err("empty frame".into());
        };
        let got = fold_checksum(framed);
        if got != sum {
            return Err(format!(
                "frame checksum mismatch: trailer 0x{sum:02x}, bytes 0x{got:02x} (torn write)"
            ));
        }
        let mut r = Reader { b: framed, at: 0 };
        let name = String::from_utf8_lossy(magic);
        if r.take(4)? != magic {
            return Err(format!("bad {name} magic"));
        }
        let v = r.get::<u8>()?;
        if v != version {
            return Err(format!("unsupported {name} version {v}"));
        }
        let len = r.get::<u64>()?;
        if len != r.left() as u64 {
            return Err(format!(
                "{name} frame declares {len} bytes, holds {}",
                r.left()
            ));
        }
        Ok(r)
    }

    /// Bytes not yet consumed.
    pub fn left(&self) -> usize {
        self.b.len() - self.at
    }

    /// Consume `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        match self.at.checked_add(n).filter(|&end| end <= self.b.len()) {
            Some(end) => {
                let s = &self.b[self.at..end];
                self.at = end;
                Ok(s)
            }
            None => Err(format!(
                "truncated: need {n} bytes at {}, have {}",
                self.at,
                self.left()
            )),
        }
    }

    /// Consume one scalar.
    pub fn get<T: Le>(&mut self) -> Result<T, String> {
        Ok(T::read(self.take(T::W)?))
    }

    /// Consume a scalar type tag.
    pub fn get_type(&mut self) -> Result<ScalarType, String> {
        let tag = self.get::<u8>()?;
        let ty = TAGGED.get(tag as usize).copied();
        ty.ok_or_else(|| format!("unknown scalar tag {tag}"))
    }

    /// Consume an element count stored as a `T`, rejecting any count
    /// whose elements (each at least `min_elem_bytes` long) the
    /// remaining input cannot hold — so no allocation is ever sized by
    /// an unvalidated field.
    pub fn count<T: Le + Into<u64>>(&mut self, min_elem_bytes: usize) -> Result<usize, String> {
        let n: u64 = self.get::<T>()?.into();
        match n.checked_mul(min_elem_bytes.max(1) as u64) {
            Some(need) if need <= self.left() as u64 => Ok(n as usize),
            _ => Err(format!("count {n} exceeds the {} bytes left", self.left())),
        }
    }

    /// Consume `n` scalars written by [`Writer::put_slice`].
    pub fn slice<T: Le>(&mut self, n: usize) -> Result<Vec<T>, String> {
        let bytes = n.checked_mul(T::W).ok_or("length overflow")?;
        Ok(self.take(bytes)?.chunks_exact(T::W).map(T::read).collect())
    }

    /// Consume a `u32`-length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<&'a str, String> {
        let n = self.count::<u32>(1)?;
        std::str::from_utf8(self.take(n)?).map_err(|e| format!("non-UTF-8 string: {e}"))
    }

    /// Consume a `u64`-length-prefixed section as its own cursor.
    pub fn section(&mut self) -> Result<Reader<'a>, String> {
        let n = self.count::<u64>(1)?;
        Ok(Reader {
            b: self.take(n)?,
            at: 0,
        })
    }

    /// The raw value codec, decoded into a vector (the superset type:
    /// `Bool` has no column twin).
    pub fn vector(&mut self) -> Result<Vector, String> {
        let ty = self.get_type()?;
        let rows = self.count::<u64>(if ty == ScalarType::Str { 4 } else { ty.width() })?;
        Ok(match ty {
            ScalarType::I8 => Vector::I8(self.slice(rows)?),
            ScalarType::I16 => Vector::I16(self.slice(rows)?),
            ScalarType::I32 => Vector::I32(self.slice(rows)?),
            ScalarType::I64 => Vector::I64(self.slice(rows)?),
            ScalarType::U8 => Vector::U8(self.slice(rows)?),
            ScalarType::U16 => Vector::U16(self.slice(rows)?),
            ScalarType::U32 => Vector::U32(self.slice(rows)?),
            ScalarType::U64 => Vector::U64(self.slice(rows)?),
            ScalarType::F64 => Vector::F64(self.slice(rows)?),
            ScalarType::Bool => Vector::Bool(self.slice(rows)?),
            ScalarType::Str => {
                let mut s = StrVec::new();
                for _ in 0..rows {
                    s.push(self.str()?);
                }
                Vector::Str(s)
            }
        })
    }

    /// The raw value codec, decoded into a column fragment.
    pub fn column(&mut self) -> Result<ColumnData, String> {
        ColumnData::try_from(self.vector()?).map_err(|_| "bool columns are not storable".into())
    }

    /// Every byte must have been consumed: trailing bytes mean the
    /// writer and this parser disagree about the layout.
    pub fn finish(self) -> Result<(), String> {
        match self.left() {
            0 => Ok(()),
            n => Err(format!("{n} trailing bytes")),
        }
    }
}
