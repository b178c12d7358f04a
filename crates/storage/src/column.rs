//! Immutable vertical column fragments.
//!
//! MonetDB/X100 stores tables column-wise; each column is an immutable
//! array (`BAT[void,T]` in MonetDB terms: a densely ascending virtual oid
//! head plus a value tail, where the oid is *not stored*, §3.3 / §4.3).
//! Updates never touch these fragments — they go to delta structures
//! (see [`crate::table`]).

use x100_vector::{ScalarType, StrVec, Value, Vector};

/// Typed storage for one column fragment, at table scale.
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnData {
    I8(Vec<i8>),
    I16(Vec<i16>),
    I32(Vec<i32>),
    I64(Vec<i64>),
    U8(Vec<u8>),
    U16(Vec<u16>),
    U32(Vec<u32>),
    U64(Vec<u64>),
    F64(Vec<f64>),
    Str(StrVec),
}

impl ColumnData {
    /// Number of values stored.
    pub fn len(&self) -> usize {
        match self {
            ColumnData::I8(v) => v.len(),
            ColumnData::I16(v) => v.len(),
            ColumnData::I32(v) => v.len(),
            ColumnData::I64(v) => v.len(),
            ColumnData::U8(v) => v.len(),
            ColumnData::U16(v) => v.len(),
            ColumnData::U32(v) => v.len(),
            ColumnData::U64(v) => v.len(),
            ColumnData::F64(v) => v.len(),
            ColumnData::Str(v) => v.len(),
        }
    }

    /// True if no values are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The scalar type stored.
    pub fn scalar_type(&self) -> ScalarType {
        match self {
            ColumnData::I8(_) => ScalarType::I8,
            ColumnData::I16(_) => ScalarType::I16,
            ColumnData::I32(_) => ScalarType::I32,
            ColumnData::I64(_) => ScalarType::I64,
            ColumnData::U8(_) => ScalarType::U8,
            ColumnData::U16(_) => ScalarType::U16,
            ColumnData::U32(_) => ScalarType::U32,
            ColumnData::U64(_) => ScalarType::U64,
            ColumnData::F64(_) => ScalarType::F64,
            ColumnData::Str(_) => ScalarType::Str,
        }
    }

    /// Payload size in bytes (storage accounting; paper reports 0.8 GB
    /// for SF=1 with enumeration types).
    pub fn byte_size(&self) -> usize {
        match self {
            ColumnData::Str(v) => v.byte_size(),
            other => other.len() * other.scalar_type().width(),
        }
    }

    /// Allocate empty storage of type `ty`.
    pub fn new(ty: ScalarType) -> Self {
        match ty {
            ScalarType::I8 => ColumnData::I8(Vec::new()),
            ScalarType::I16 => ColumnData::I16(Vec::new()),
            ScalarType::I32 => ColumnData::I32(Vec::new()),
            ScalarType::I64 => ColumnData::I64(Vec::new()),
            ScalarType::U8 => ColumnData::U8(Vec::new()),
            ScalarType::U16 => ColumnData::U16(Vec::new()),
            ScalarType::U32 => ColumnData::U32(Vec::new()),
            ScalarType::U64 => ColumnData::U64(Vec::new()),
            ScalarType::F64 => ColumnData::F64(Vec::new()),
            ScalarType::Bool => panic!("Bool is a vector-only type; store as U8"),
            ScalarType::Str => ColumnData::Str(StrVec::new()),
        }
    }

    /// Read one value (slow path).
    pub fn get_value(&self, i: usize) -> Value {
        match self {
            ColumnData::I8(v) => Value::I8(v[i]),
            ColumnData::I16(v) => Value::I16(v[i]),
            ColumnData::I32(v) => Value::I32(v[i]),
            ColumnData::I64(v) => Value::I64(v[i]),
            ColumnData::U8(v) => Value::U8(v[i]),
            ColumnData::U16(v) => Value::U16(v[i]),
            ColumnData::U32(v) => Value::U32(v[i]),
            ColumnData::U64(v) => Value::U64(v[i]),
            ColumnData::F64(v) => Value::F64(v[i]),
            ColumnData::Str(v) => Value::Str(v.get(i).to_owned()),
        }
    }

    /// Append one value (loader slow path).
    ///
    /// # Panics
    /// Panics on type mismatch.
    pub fn push_value(&mut self, v: &Value) {
        match (self, v) {
            (ColumnData::I8(b), Value::I8(x)) => b.push(*x),
            (ColumnData::I16(b), Value::I16(x)) => b.push(*x),
            (ColumnData::I32(b), Value::I32(x)) => b.push(*x),
            (ColumnData::I64(b), Value::I64(x)) => b.push(*x),
            (ColumnData::U8(b), Value::U8(x)) => b.push(*x),
            (ColumnData::U16(b), Value::U16(x)) => b.push(*x),
            (ColumnData::U32(b), Value::U32(x)) => b.push(*x),
            (ColumnData::U64(b), Value::U64(x)) => b.push(*x),
            (ColumnData::F64(b), Value::F64(x)) => b.push(*x),
            (ColumnData::Str(b), Value::Str(x)) => b.push(x),
            (this, v) => {
                panic!(
                    "push_value type mismatch: column {:?}, value {:?}",
                    this.scalar_type(),
                    v.scalar_type()
                )
            }
        }
    }

    /// Copy `rows` values starting at `start` into the vector buffer `out`
    /// — the explicit memory-to-cache routine of the paper's "RAM" layer.
    ///
    /// `out` is cleared and refilled; its type must match.
    pub fn read_into(&self, start: usize, rows: usize, out: &mut Vector) {
        match (self, out) {
            (ColumnData::I8(src), Vector::I8(dst)) => {
                dst.clear();
                dst.extend_from_slice(&src[start..start + rows]);
            }
            (ColumnData::I16(src), Vector::I16(dst)) => {
                dst.clear();
                dst.extend_from_slice(&src[start..start + rows]);
            }
            (ColumnData::I32(src), Vector::I32(dst)) => {
                dst.clear();
                dst.extend_from_slice(&src[start..start + rows]);
            }
            (ColumnData::I64(src), Vector::I64(dst)) => {
                dst.clear();
                dst.extend_from_slice(&src[start..start + rows]);
            }
            (ColumnData::U8(src), Vector::U8(dst)) => {
                dst.clear();
                dst.extend_from_slice(&src[start..start + rows]);
            }
            (ColumnData::U16(src), Vector::U16(dst)) => {
                dst.clear();
                dst.extend_from_slice(&src[start..start + rows]);
            }
            (ColumnData::U32(src), Vector::U32(dst)) => {
                dst.clear();
                dst.extend_from_slice(&src[start..start + rows]);
            }
            (ColumnData::U64(src), Vector::U64(dst)) => {
                dst.clear();
                dst.extend_from_slice(&src[start..start + rows]);
            }
            (ColumnData::F64(src), Vector::F64(dst)) => {
                dst.clear();
                dst.extend_from_slice(&src[start..start + rows]);
            }
            (ColumnData::Str(src), Vector::Str(dst)) => {
                dst.clear();
                for i in start..start + rows {
                    dst.push(src.get(i));
                }
            }
            (this, out) => panic!(
                "read_into type mismatch: column {:?}, vector {:?}",
                this.scalar_type(),
                out.scalar_type()
            ),
        }
    }

    /// Gather arbitrary row ids into a vector buffer (positional fetch at
    /// storage level, used by `Fetch1Join` against a stored column).
    pub fn gather_into(&self, rowids: &[u32], out: &mut Vector) {
        out.clear();
        match (self, out) {
            (ColumnData::I8(src), Vector::I8(dst)) => {
                dst.extend(rowids.iter().map(|&r| src[r as usize]))
            }
            (ColumnData::I16(src), Vector::I16(dst)) => {
                dst.extend(rowids.iter().map(|&r| src[r as usize]))
            }
            (ColumnData::I32(src), Vector::I32(dst)) => {
                dst.extend(rowids.iter().map(|&r| src[r as usize]))
            }
            (ColumnData::I64(src), Vector::I64(dst)) => {
                dst.extend(rowids.iter().map(|&r| src[r as usize]))
            }
            (ColumnData::U8(src), Vector::U8(dst)) => {
                dst.extend(rowids.iter().map(|&r| src[r as usize]))
            }
            (ColumnData::U16(src), Vector::U16(dst)) => {
                dst.extend(rowids.iter().map(|&r| src[r as usize]))
            }
            (ColumnData::U32(src), Vector::U32(dst)) => {
                dst.extend(rowids.iter().map(|&r| src[r as usize]))
            }
            (ColumnData::U64(src), Vector::U64(dst)) => {
                dst.extend(rowids.iter().map(|&r| src[r as usize]))
            }
            (ColumnData::F64(src), Vector::F64(dst)) => {
                dst.extend(rowids.iter().map(|&r| src[r as usize]))
            }
            (ColumnData::Str(src), Vector::Str(dst)) => {
                for &r in rowids {
                    dst.push(src.get(r as usize));
                }
            }
            (this, out) => panic!(
                "gather_into type mismatch: column {:?}, vector {:?}",
                this.scalar_type(),
                out.scalar_type()
            ),
        }
    }

    /// Borrow as `&[i32]`. Panics on type mismatch.
    pub fn as_i32(&self) -> &[i32] {
        match self {
            ColumnData::I32(v) => v,
            other => panic!("expected I32 column, got {:?}", other.scalar_type()),
        }
    }

    /// Borrow as `&[i64]`. Panics on type mismatch.
    pub fn as_i64(&self) -> &[i64] {
        match self {
            ColumnData::I64(v) => v,
            other => panic!("expected I64 column, got {:?}", other.scalar_type()),
        }
    }

    /// Borrow as `&[f64]`. Panics on type mismatch.
    pub fn as_f64(&self) -> &[f64] {
        match self {
            ColumnData::F64(v) => v,
            other => panic!("expected F64 column, got {:?}", other.scalar_type()),
        }
    }

    /// Borrow as `&[u8]`. Panics on type mismatch.
    pub fn as_u8(&self) -> &[u8] {
        match self {
            ColumnData::U8(v) => v,
            other => panic!("expected U8 column, got {:?}", other.scalar_type()),
        }
    }

    /// Borrow as `&[u16]`. Panics on type mismatch.
    pub fn as_u16(&self) -> &[u16] {
        match self {
            ColumnData::U16(v) => v,
            other => panic!("expected U16 column, got {:?}", other.scalar_type()),
        }
    }

    /// Borrow as `&[u32]`. Panics on type mismatch.
    pub fn as_u32(&self) -> &[u32] {
        match self {
            ColumnData::U32(v) => v,
            other => panic!("expected U32 column, got {:?}", other.scalar_type()),
        }
    }

    /// Borrow as `&StrVec`. Panics on type mismatch.
    pub fn as_str(&self) -> &StrVec {
        match self {
            ColumnData::Str(v) => v,
            other => panic!("expected Str column, got {:?}", other.scalar_type()),
        }
    }
}

/// A vector becomes a fragment by move (same buffers). `Bool` is a
/// vector-only type and comes back as the error.
impl TryFrom<Vector> for ColumnData {
    type Error = Vec<bool>;

    fn try_from(v: Vector) -> Result<ColumnData, Vec<bool>> {
        Ok(match v {
            Vector::I8(d) => ColumnData::I8(d),
            Vector::I16(d) => ColumnData::I16(d),
            Vector::I32(d) => ColumnData::I32(d),
            Vector::I64(d) => ColumnData::I64(d),
            Vector::U8(d) => ColumnData::U8(d),
            Vector::U16(d) => ColumnData::U16(d),
            Vector::U32(d) => ColumnData::U32(d),
            Vector::U64(d) => ColumnData::U64(d),
            Vector::F64(d) => ColumnData::F64(d),
            Vector::Str(s) => ColumnData::Str(s),
            Vector::Bool(b) => return Err(b),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_into_copies_range() {
        let col = ColumnData::F64((0..100).map(|i| i as f64).collect());
        let mut v = Vector::with_capacity(ScalarType::F64, 10);
        col.read_into(20, 10, &mut v);
        assert_eq!(v.as_f64()[0], 20.0);
        assert_eq!(v.as_f64()[9], 29.0);
        assert_eq!(v.len(), 10);
        // Re-read reuses the buffer.
        col.read_into(0, 5, &mut v);
        assert_eq!(v.len(), 5);
        assert_eq!(v.as_f64(), &[0.0, 1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn gather_into_fetches_rowids() {
        let col = ColumnData::I64((0..50).map(|i| i * 10).collect());
        let mut v = Vector::with_capacity(ScalarType::I64, 3);
        col.gather_into(&[49, 0, 7], &mut v);
        assert_eq!(v.as_i64(), &[490, 0, 70]);
    }

    #[test]
    fn string_columns() {
        let mut col = ColumnData::new(ScalarType::Str);
        col.push_value(&Value::Str("x".into()));
        col.push_value(&Value::Str("yy".into()));
        assert_eq!(col.len(), 2);
        let mut v = Vector::with_capacity(ScalarType::Str, 2);
        col.read_into(0, 2, &mut v);
        assert_eq!(v.as_str().get(1), "yy");
        col.gather_into(&[1, 1], &mut v);
        assert_eq!(v.as_str().get(0), "yy");
    }

    #[test]
    fn byte_size() {
        let col = ColumnData::U8(vec![0; 1000]);
        assert_eq!(col.byte_size(), 1000);
        let col = ColumnData::F64(vec![0.0; 1000]);
        assert_eq!(col.byte_size(), 8000);
    }

    #[test]
    #[should_panic]
    fn read_into_type_mismatch_panics() {
        let col = ColumnData::I32(vec![1, 2, 3]);
        let mut v = Vector::with_capacity(ScalarType::F64, 3);
        col.read_into(0, 3, &mut v);
    }
}
