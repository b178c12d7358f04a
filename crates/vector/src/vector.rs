//! The `Vector`: a small, cache-resident vertical chunk of one column.
//!
//! Vectors are the unit of operation of X100 execution primitives
//! (paper §4, "Cache"). They are plain typed arrays — no per-value
//! null/overflow bookkeeping on the hot path — sized by the session's
//! `vector_size` (default 1024) so that all vectors of a query plan
//! fit the CPU cache together.

use crate::types::{ScalarType, Value};

/// Default number of values per vector — the paper's default and the
/// optimum of its Figure 10 sweep.
pub const DEFAULT_VECTOR_SIZE: usize = 1024;

/// Variable-length string column chunk: contiguous bytes + offsets.
///
/// Avoids one heap allocation per value; `offsets.len() == len + 1`.
#[derive(Debug, Clone, PartialEq)]
pub struct StrVec {
    offsets: Vec<u32>,
    bytes: Vec<u8>,
}

// Derived `Default` would start `offsets` empty, breaking the
// `offsets.len() == len + 1` invariant (`len()` would underflow on the
// first push's reader); route it through `new()` instead.
impl Default for StrVec {
    fn default() -> Self {
        StrVec::new()
    }
}

impl StrVec {
    /// New empty string vector.
    pub fn new() -> Self {
        StrVec {
            offsets: vec![0],
            bytes: Vec::new(),
        }
    }

    /// New with room for `n` strings of ~`avg` bytes.
    pub fn with_capacity(n: usize, avg: usize) -> Self {
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0);
        StrVec {
            offsets,
            bytes: Vec::with_capacity(n * avg),
        }
    }

    /// Number of strings stored.
    #[inline]
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// True if no strings are stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Append one string.
    #[inline]
    pub fn push(&mut self, s: &str) {
        self.bytes.extend_from_slice(s.as_bytes());
        self.offsets.push(self.bytes.len() as u32);
    }

    /// Get string `i`.
    ///
    /// # Panics
    /// Panics if `i >= len`.
    #[inline]
    pub fn get(&self, i: usize) -> &str {
        let lo = self.offsets[i] as usize;
        let hi = self.offsets[i + 1] as usize;
        // Contents were valid UTF-8 on push.
        std::str::from_utf8(&self.bytes[lo..hi]).expect("StrVec holds UTF-8")
    }

    /// The bytes of string `i` (no UTF-8 check: an equality test).
    ///
    /// # Panics
    /// Panics if `i >= len`.
    #[inline]
    pub fn get_bytes(&self, i: usize) -> &[u8] {
        &self.bytes[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Append string `i` of `src` as bytes: it was valid UTF-8 when `src`
    /// took it, so no check runs again.
    ///
    /// # Panics
    /// Panics if `i >= src.len()`.
    #[inline]
    pub fn push_from(&mut self, src: &StrVec, i: usize) {
        self.bytes.extend_from_slice(src.get_bytes(i));
        self.offsets.push(self.bytes.len() as u32);
    }

    /// Append empty strings until `len` strings are stored (one
    /// `resize` of the offsets; nothing when there are already that many).
    #[inline]
    pub fn pad_to(&mut self, len: usize) {
        let end = self.bytes.len() as u32;
        if len > self.len() {
            self.offsets.resize(len + 1, end);
        }
    }

    /// Remove all strings, keeping allocations.
    pub fn clear(&mut self) {
        self.offsets.truncate(1);
        self.bytes.clear();
    }

    /// Total payload bytes (offsets + content), for bandwidth accounting.
    pub fn byte_size(&self) -> usize {
        self.offsets.len() * 4 + self.bytes.len()
    }

    /// Iterate over all strings.
    pub fn iter(&self) -> impl Iterator<Item = &str> + '_ {
        (0..self.len()).map(move |i| self.get(i))
    }

    /// Append `src[start..start + rows]`: one copy of the bytes, the
    /// offsets shifted.
    ///
    /// # Panics
    /// Panics if the range is past the end of `src`.
    pub fn extend_range(&mut self, src: &StrVec, start: usize, rows: usize) {
        let lo = src.offsets[start];
        let hi = src.offsets[start + rows];
        let shift = self.bytes.len() as u32;
        self.bytes
            .extend_from_slice(&src.bytes[lo as usize..hi as usize]);
        self.offsets.extend(
            src.offsets[start + 1..=start + rows]
                .iter()
                .map(|&o| o - lo + shift),
        );
    }
}

impl<'a> FromIterator<&'a str> for StrVec {
    fn from_iter<I: IntoIterator<Item = &'a str>>(iter: I) -> Self {
        let mut v = StrVec::new();
        for s in iter {
            v.push(s);
        }
        v
    }
}

/// A typed vector of values — the dataflow unit between X100 operators,
/// and the buffer a stored column fragment lives in (`Bool` is
/// vector-only: storage refuses it).
#[derive(Debug, Clone, PartialEq)]
pub enum Vector {
    I8(Vec<i8>),
    I16(Vec<i16>),
    I32(Vec<i32>),
    I64(Vec<i64>),
    U8(Vec<u8>),
    U16(Vec<u16>),
    U32(Vec<u32>),
    U64(Vec<u64>),
    F64(Vec<f64>),
    Bool(Vec<bool>),
    Str(StrVec),
}

macro_rules! as_typed {
    ($get:ident, $get_mut:ident, $variant:ident, $ty:ty) => {
        /// Borrow this vector as a typed slice.
        ///
        /// # Panics
        /// Panics if the vector holds a different type.
        #[inline]
        pub fn $get(&self) -> &[$ty] {
            match self {
                Vector::$variant(v) => v,
                other => panic!(
                    concat!("expected ", stringify!($variant), " vector, got {:?}"),
                    other.scalar_type()
                ),
            }
        }

        /// Borrow this vector as a mutable typed `Vec`.
        ///
        /// # Panics
        /// Panics if the vector holds a different type.
        #[inline]
        pub fn $get_mut(&mut self) -> &mut Vec<$ty> {
            match self {
                Vector::$variant(v) => v,
                other => panic!(
                    concat!("expected ", stringify!($variant), " vector, got {:?}"),
                    other.scalar_type()
                ),
            }
        }
    };
}

/// `match` a pair of vectors holding the same fixed-width type, binding
/// their buffers as `$a`/`$b` in `$body` (one arm per type); any other
/// pair (strings, mixed types) takes `$other`.
macro_rules! same_fixed {
    (($x:expr, $y:expr), |$a:ident, $b:ident| $body:expr, $other:pat => $rest:expr) => {
        match ($x, $y) {
            (Vector::I8($a), Vector::I8($b)) => $body,
            (Vector::I16($a), Vector::I16($b)) => $body,
            (Vector::I32($a), Vector::I32($b)) => $body,
            (Vector::I64($a), Vector::I64($b)) => $body,
            (Vector::U8($a), Vector::U8($b)) => $body,
            (Vector::U16($a), Vector::U16($b)) => $body,
            (Vector::U32($a), Vector::U32($b)) => $body,
            (Vector::U64($a), Vector::U64($b)) => $body,
            (Vector::F64($a), Vector::F64($b)) => $body,
            (Vector::Bool($a), Vector::Bool($b)) => $body,
            $other => $rest,
        }
    };
}
pub(crate) use same_fixed;

impl Vector {
    /// Allocate an empty vector of `ty` with capacity `cap`.
    pub fn with_capacity(ty: ScalarType, cap: usize) -> Self {
        match ty {
            ScalarType::I8 => Vector::I8(Vec::with_capacity(cap)),
            ScalarType::I16 => Vector::I16(Vec::with_capacity(cap)),
            ScalarType::I32 => Vector::I32(Vec::with_capacity(cap)),
            ScalarType::I64 => Vector::I64(Vec::with_capacity(cap)),
            ScalarType::U8 => Vector::U8(Vec::with_capacity(cap)),
            ScalarType::U16 => Vector::U16(Vec::with_capacity(cap)),
            ScalarType::U32 => Vector::U32(Vec::with_capacity(cap)),
            ScalarType::U64 => Vector::U64(Vec::with_capacity(cap)),
            ScalarType::F64 => Vector::F64(Vec::with_capacity(cap)),
            ScalarType::Bool => Vector::Bool(Vec::with_capacity(cap)),
            ScalarType::Str => Vector::Str(StrVec::with_capacity(cap, 16)),
        }
    }

    /// Allocate a zero-filled vector of `ty` with length `n`.
    ///
    /// Used for primitive output buffers, which are written positionally.
    pub fn zeroed(ty: ScalarType, n: usize) -> Self {
        match ty {
            ScalarType::I8 => Vector::I8(vec![0; n]),
            ScalarType::I16 => Vector::I16(vec![0; n]),
            ScalarType::I32 => Vector::I32(vec![0; n]),
            ScalarType::I64 => Vector::I64(vec![0; n]),
            ScalarType::U8 => Vector::U8(vec![0; n]),
            ScalarType::U16 => Vector::U16(vec![0; n]),
            ScalarType::U32 => Vector::U32(vec![0; n]),
            ScalarType::U64 => Vector::U64(vec![0; n]),
            ScalarType::F64 => Vector::F64(vec![0.0; n]),
            ScalarType::Bool => Vector::Bool(vec![false; n]),
            ScalarType::Str => {
                let mut s = StrVec::with_capacity(n, 0);
                for _ in 0..n {
                    s.push("");
                }
                Vector::Str(s)
            }
        }
    }

    /// The scalar type this vector carries.
    pub fn scalar_type(&self) -> ScalarType {
        match self {
            Vector::I8(_) => ScalarType::I8,
            Vector::I16(_) => ScalarType::I16,
            Vector::I32(_) => ScalarType::I32,
            Vector::I64(_) => ScalarType::I64,
            Vector::U8(_) => ScalarType::U8,
            Vector::U16(_) => ScalarType::U16,
            Vector::U32(_) => ScalarType::U32,
            Vector::U64(_) => ScalarType::U64,
            Vector::F64(_) => ScalarType::F64,
            Vector::Bool(_) => ScalarType::Bool,
            Vector::Str(_) => ScalarType::Str,
        }
    }

    /// Number of values in the vector.
    pub fn len(&self) -> usize {
        match self {
            Vector::I8(v) => v.len(),
            Vector::I16(v) => v.len(),
            Vector::I32(v) => v.len(),
            Vector::I64(v) => v.len(),
            Vector::U8(v) => v.len(),
            Vector::U16(v) => v.len(),
            Vector::U32(v) => v.len(),
            Vector::U64(v) => v.len(),
            Vector::F64(v) => v.len(),
            Vector::Bool(v) => v.len(),
            Vector::Str(v) => v.len(),
        }
    }

    /// True if the vector holds no values.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Remove all values, keeping allocations (vector reuse across batches).
    pub fn clear(&mut self) {
        match self {
            Vector::I8(v) => v.clear(),
            Vector::I16(v) => v.clear(),
            Vector::I32(v) => v.clear(),
            Vector::I64(v) => v.clear(),
            Vector::U8(v) => v.clear(),
            Vector::U16(v) => v.clear(),
            Vector::U32(v) => v.clear(),
            Vector::U64(v) => v.clear(),
            Vector::F64(v) => v.clear(),
            Vector::Bool(v) => v.clear(),
            Vector::Str(v) => v.clear(),
        }
    }

    /// Resize to `n` values, zero-filling new slots (positional writes).
    pub fn resize_zeroed(&mut self, n: usize) {
        match self {
            Vector::I8(v) => v.resize(n, 0),
            Vector::I16(v) => v.resize(n, 0),
            Vector::I32(v) => v.resize(n, 0),
            Vector::I64(v) => v.resize(n, 0),
            Vector::U8(v) => v.resize(n, 0),
            Vector::U16(v) => v.resize(n, 0),
            Vector::U32(v) => v.resize(n, 0),
            Vector::U64(v) => v.resize(n, 0),
            Vector::F64(v) => v.resize(n, 0.0),
            Vector::Bool(v) => v.resize(n, false),
            Vector::Str(v) => {
                assert!(v.len() <= n, "StrVec cannot shrink positionally");
                while v.len() < n {
                    v.push("");
                }
            }
        }
    }

    /// Payload size in bytes, for bandwidth accounting (paper Tables 3 & 5).
    pub fn byte_size(&self) -> usize {
        match self {
            Vector::Str(v) => v.byte_size(),
            other => other.len() * other.scalar_type().width(),
        }
    }

    /// Copy `rows` values starting at `start` into `out`, replacing its
    /// contents — the explicit memory-to-cache routine of the paper's
    /// "RAM" layer (a scan's refill from a fragment or delta column).
    ///
    /// # Panics
    /// Panics on a type mismatch or a range past the end.
    pub fn read_into(&self, start: usize, rows: usize, out: &mut Vector) {
        out.clear();
        out.append_range(self, start, rows);
    }

    /// Append `src[start..start + rows]` (same type).
    ///
    /// # Panics
    /// Panics on a type mismatch or a range past the end.
    pub fn append_range(&mut self, src: &Vector, start: usize, rows: usize) {
        same_fixed!((self, src), |d, s| d.extend_from_slice(&s[start..start + rows]),
            (d, s) => match (d, s) {
                (Vector::Str(d), Vector::Str(s)) => d.extend_range(s, start, rows),
                (d, s) => panic!(
                    "append_range type mismatch: vector {:?}, source {:?}",
                    d.scalar_type(),
                    s.scalar_type()
                ),
            }
        )
    }

    /// Read value `i` as a boxed [`Value`] (slow path: result rendering only).
    pub fn get_value(&self, i: usize) -> Value {
        match self {
            Vector::I8(v) => Value::I8(v[i]),
            Vector::I16(v) => Value::I16(v[i]),
            Vector::I32(v) => Value::I32(v[i]),
            Vector::I64(v) => Value::I64(v[i]),
            Vector::U8(v) => Value::U8(v[i]),
            Vector::U16(v) => Value::U16(v[i]),
            Vector::U32(v) => Value::U32(v[i]),
            Vector::U64(v) => Value::U64(v[i]),
            Vector::F64(v) => Value::F64(v[i]),
            Vector::Bool(v) => Value::Bool(v[i]),
            Vector::Str(v) => Value::Str(v.get(i).to_owned()),
        }
    }

    /// Append a boxed [`Value`] (slow path: literals, tests).
    ///
    /// # Panics
    /// Panics on a type mismatch.
    pub fn push_value(&mut self, v: &Value) {
        match (self, v) {
            (Vector::I8(b), Value::I8(x)) => b.push(*x),
            (Vector::I16(b), Value::I16(x)) => b.push(*x),
            (Vector::I32(b), Value::I32(x)) => b.push(*x),
            (Vector::I64(b), Value::I64(x)) => b.push(*x),
            (Vector::U8(b), Value::U8(x)) => b.push(*x),
            (Vector::U16(b), Value::U16(x)) => b.push(*x),
            (Vector::U32(b), Value::U32(x)) => b.push(*x),
            (Vector::U64(b), Value::U64(x)) => b.push(*x),
            (Vector::F64(b), Value::F64(x)) => b.push(*x),
            (Vector::Bool(b), Value::Bool(x)) => b.push(*x),
            (Vector::Str(b), Value::Str(x)) => b.push(x),
            (this, v) => panic!(
                "push_value type mismatch: vector {:?}, value {:?}",
                this.scalar_type(),
                v.scalar_type()
            ),
        }
    }

    as_typed!(as_i8, as_i8_mut, I8, i8);
    as_typed!(as_i16, as_i16_mut, I16, i16);
    as_typed!(as_i32, as_i32_mut, I32, i32);
    as_typed!(as_i64, as_i64_mut, I64, i64);
    as_typed!(as_u8, as_u8_mut, U8, u8);
    as_typed!(as_u16, as_u16_mut, U16, u16);
    as_typed!(as_u32, as_u32_mut, U32, u32);
    as_typed!(as_u64, as_u64_mut, U64, u64);
    as_typed!(as_f64, as_f64_mut, F64, f64);
    as_typed!(as_bool, as_bool_mut, Bool, bool);

    /// Borrow as a string vector.
    ///
    /// # Panics
    /// Panics if the vector holds a different type.
    #[inline]
    pub fn as_str(&self) -> &StrVec {
        match self {
            Vector::Str(v) => v,
            other => panic!("expected Str vector, got {:?}", other.scalar_type()),
        }
    }

    /// Borrow as a mutable string vector.
    ///
    /// # Panics
    /// Panics if the vector holds a different type.
    #[inline]
    pub fn as_str_mut(&mut self) -> &mut StrVec {
        match self {
            Vector::Str(v) => v,
            other => panic!("expected Str vector, got {:?}", other.scalar_type()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strvec_basic() {
        let mut s = StrVec::new();
        assert!(s.is_empty());
        s.push("hello");
        s.push("");
        s.push("wörld");
        assert_eq!(s.len(), 3);
        assert_eq!(s.get(0), "hello");
        assert_eq!(s.get(1), "");
        assert_eq!(s.get(2), "wörld");
        let all: Vec<&str> = s.iter().collect();
        assert_eq!(all, vec!["hello", "", "wörld"]);
    }

    #[test]
    fn strvec_clear_keeps_allocation() {
        let mut s = StrVec::with_capacity(10, 8);
        for _ in 0..10 {
            s.push("12345678");
        }
        let bytes_cap = s.bytes.capacity();
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.bytes.capacity(), bytes_cap);
        s.push("after");
        assert_eq!(s.get(0), "after");
    }

    #[test]
    fn vector_types_and_len() {
        for ty in [
            ScalarType::I8,
            ScalarType::I16,
            ScalarType::I32,
            ScalarType::I64,
            ScalarType::U8,
            ScalarType::U16,
            ScalarType::U32,
            ScalarType::U64,
            ScalarType::F64,
            ScalarType::Bool,
            ScalarType::Str,
        ] {
            let v = Vector::zeroed(ty, 7);
            assert_eq!(v.scalar_type(), ty);
            assert_eq!(v.len(), 7);
            assert!(!v.is_empty());
        }
    }

    #[test]
    fn byte_size_accounting() {
        let v = Vector::zeroed(ScalarType::F64, 100);
        assert_eq!(v.byte_size(), 800);
        let v = Vector::zeroed(ScalarType::U8, 100);
        assert_eq!(v.byte_size(), 100);
    }

    #[test]
    fn byte_size_counts_string_offsets_and_bytes() {
        // A stored column's accounting: fixed-width payload, or for
        // strings one u32 offset per row (plus the leading 0) and the
        // content bytes.
        let v = Vector::I64(vec![0; 1000]);
        assert_eq!(v.byte_size(), 8000);
        let v = Vector::Str(["ab", "", "cde"].into_iter().collect());
        assert_eq!(v.byte_size(), 4 * 4 + 5);
        assert_eq!(Vector::Str(StrVec::new()).byte_size(), 4);
    }

    #[test]
    fn get_push_value_roundtrip() {
        let mut v = Vector::with_capacity(ScalarType::I32, 4);
        v.push_value(&Value::I32(10));
        v.push_value(&Value::I32(-3));
        assert_eq!(v.get_value(1), Value::I32(-3));
        assert_eq!(v.len(), 2);
    }

    #[test]
    #[should_panic]
    fn typed_accessor_mismatch_panics() {
        let v = Vector::zeroed(ScalarType::I32, 1);
        v.as_f64();
    }

    #[test]
    fn read_into_copies_range() {
        let col = Vector::F64((0..100).map(|i| i as f64).collect());
        let mut v = Vector::with_capacity(ScalarType::F64, 10);
        col.read_into(20, 10, &mut v);
        assert_eq!(v.len(), 10);
        assert_eq!(v.as_f64()[0], 20.0);
        assert_eq!(v.as_f64()[9], 29.0);
        // A re-read reuses the buffer.
        col.read_into(0, 5, &mut v);
        assert_eq!(v.as_f64(), &[0.0, 1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn append_range_strings() {
        let col: StrVec = ["x", "yy", "", "zzz"].into_iter().collect();
        let col = Vector::Str(col);
        let mut v = Vector::with_capacity(ScalarType::Str, 2);
        col.read_into(1, 2, &mut v);
        v.append_range(&col, 3, 1);
        v.append_range(&col, 0, 0);
        assert_eq!(v.as_str().iter().collect::<Vec<_>>(), vec!["yy", "", "zzz"]);
        assert_eq!(v.get_value(2), Value::Str("zzz".into()));
    }

    #[test]
    #[should_panic]
    fn read_into_type_mismatch_panics() {
        let col = Vector::I32(vec![1, 2, 3]);
        let mut v = Vector::with_capacity(ScalarType::F64, 3);
        col.read_into(0, 3, &mut v);
    }

    #[test]
    fn resize_zeroed_grows() {
        let mut v = Vector::with_capacity(ScalarType::F64, 0);
        v.resize_zeroed(5);
        assert_eq!(v.as_f64(), &[0.0; 5]);
        let mut s = Vector::with_capacity(ScalarType::Str, 0);
        s.resize_zeroed(3);
        assert_eq!(s.as_str().get(2), "");
    }
}
