//! Binary Association Tables (BATs).
//!
//! MonetDB stores each column in a BAT of `[oid, value]` pairs (paper
//! §3.2). When the head oids are densely ascending from 0 they are
//! *virtual* (`void`) and not stored — the BAT degenerates to an array.
//! All BATs this engine materializes are `BAT[void, T]`; the MIL
//! `reverse`/`mark` plumbing that MonetDB uses to renumber heads is
//! zero-cost there and implicit here.

use x100_vector::{ScalarType, Value, Vector};

/// A `BAT[void, T]`: dense virtual head, typed tail.
#[derive(Debug, Clone, PartialEq)]
pub enum Bat {
    /// `oid` tail (selection results, group ids).
    Oid(Vec<u32>),
    /// 8-bit unsigned tail (enum codes, chars).
    U8(Vec<u8>),
    /// 16-bit unsigned tail.
    U16(Vec<u16>),
    /// 32-bit signed tail (dates).
    I32(Vec<i32>),
    /// 64-bit signed tail.
    I64(Vec<i64>),
    /// Double tail.
    F64(Vec<f64>),
    /// String tail.
    Str(x100_vector::StrVec),
}

impl Bat {
    /// Number of tuples (BUNs) in the BAT.
    pub fn len(&self) -> usize {
        match self {
            Bat::Oid(v) => v.len(),
            Bat::U8(v) => v.len(),
            Bat::U16(v) => v.len(),
            Bat::I32(v) => v.len(),
            Bat::I64(v) => v.len(),
            Bat::F64(v) => v.len(),
            Bat::Str(v) => v.len(),
        }
    }

    /// True if the BAT holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Tail type.
    pub fn tail_type(&self) -> ScalarType {
        match self {
            Bat::Oid(_) => ScalarType::U32,
            Bat::U8(_) => ScalarType::U8,
            Bat::U16(_) => ScalarType::U16,
            Bat::I32(_) => ScalarType::I32,
            Bat::I64(_) => ScalarType::I64,
            Bat::F64(_) => ScalarType::F64,
            Bat::Str(_) => ScalarType::Str,
        }
    }

    /// Materialized size in bytes (Table 3's MB / bandwidth accounting).
    pub fn byte_size(&self) -> usize {
        match self {
            Bat::Str(v) => v.byte_size(),
            other => other.len() * other.tail_type().width(),
        }
    }

    /// Tail value at `i` (slow path).
    pub fn get(&self, i: usize) -> Value {
        match self {
            Bat::Oid(v) => Value::U32(v[i]),
            Bat::U8(v) => Value::U8(v[i]),
            Bat::U16(v) => Value::U16(v[i]),
            Bat::I32(v) => Value::I32(v[i]),
            Bat::I64(v) => Value::I64(v[i]),
            Bat::F64(v) => Value::F64(v[i]),
            Bat::Str(v) => Value::Str(v.get(i).to_owned()),
        }
    }

    /// Borrow the oid tail.
    ///
    /// # Panics
    /// Panics if the tail is not `Oid`.
    pub fn as_oid(&self) -> &[u32] {
        match self {
            Bat::Oid(v) => v,
            other => panic!("expected oid tail, got {}", other.tail_type()),
        }
    }

    /// Borrow the f64 tail.
    ///
    /// # Panics
    /// Panics if the tail is not `F64`.
    pub fn as_f64(&self) -> &[f64] {
        match self {
            Bat::F64(v) => v,
            other => panic!("expected f64 tail, got {}", other.tail_type()),
        }
    }

    /// Borrow the i64 tail.
    ///
    /// # Panics
    /// Panics if the tail is not `I64`.
    pub fn as_i64(&self) -> &[i64] {
        match self {
            Bat::I64(v) => v,
            other => panic!("expected i64 tail, got {}", other.tail_type()),
        }
    }

    /// Borrow the i32 tail.
    ///
    /// # Panics
    /// Panics if the tail is not `I32`.
    pub fn as_i32(&self) -> &[i32] {
        match self {
            Bat::I32(v) => v,
            other => panic!("expected i32 tail, got {}", other.tail_type()),
        }
    }

    /// Borrow the u8 tail.
    ///
    /// # Panics
    /// Panics if the tail is not `U8`.
    pub fn as_u8(&self) -> &[u8] {
        match self {
            Bat::U8(v) => v,
            other => panic!("expected u8 tail, got {}", other.tail_type()),
        }
    }

    /// Build a BAT view of a stored column (zero-copy conceptually; we
    /// copy once at load time because MonetDB shares the same memory).
    pub fn from_column(col: &Vector) -> Bat {
        match col {
            Vector::U8(v) => Bat::U8(v.clone()),
            Vector::U16(v) => Bat::U16(v.clone()),
            Vector::U32(v) => Bat::Oid(v.clone()),
            Vector::I32(v) => Bat::I32(v.clone()),
            Vector::I64(v) => Bat::I64(v.clone()),
            Vector::F64(v) => Bat::F64(v.clone()),
            Vector::Str(v) => Bat::Str(v.clone()),
            other => panic!("unsupported BAT source {:?}", other.scalar_type()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bat_basics() {
        let b = Bat::F64(vec![1.0, 2.0]);
        assert_eq!(b.len(), 2);
        assert!(!b.is_empty());
        assert_eq!(b.tail_type(), ScalarType::F64);
        assert_eq!(b.byte_size(), 16);
        assert_eq!(b.get(1), Value::F64(2.0));
    }

    #[test]
    fn from_column_roundtrip() {
        let col = Vector::I64(vec![5, 6]);
        let b = Bat::from_column(&col);
        assert_eq!(b.as_i64(), &[5, 6]);
    }

    #[test]
    #[should_panic]
    fn wrong_tail_access_panics() {
        Bat::F64(vec![1.0]).as_i64();
    }
}
