//! Enumeration types: lightweight dictionary compression (paper §4.3).
//!
//! A low-cardinality column is stored as a single-byte or two-byte
//! integer code referring to the `#rowId` of a *mapping table* holding
//! the distinct values. MonetDB/X100 "automatically adds a `Fetch1Join`
//! operation to retrieve the uncompressed value … when such columns are
//! used in a query"; the engine crate performs that rewrite, driven by
//! the [`EnumDict`] attached to a column here. Codes and dictionary
//! are plain [`Vector`]s, so decoding is the one gather
//! ([`x100_vector::fetch::gather_at`]) with the codes as positions.
//!
//! Enum columns come from two places: a table built with them
//! (`TableBuilder::enum_column` / `auto_enum_*`), and `Table::checkpoint`,
//! which turns a plain `i64`/`f64`/`str` column into one through
//! [`encode`] when a dictionary stores it smaller than any chunk format
//! (`compress::dictionary_wins`). This is the only dictionary encoding:
//! the checkpoint compresses the codes like any integer column.

use x100_vector::fetch::{gather_at, gather_rows};
use x100_vector::{ScalarType, StrVec, Value, Vector};

/// Maximum cardinality an enumeration type can hold (2-byte codes).
pub const MAX_ENUM_CARD: usize = u16::MAX as usize + 1;

/// The mapping table of an enumeration-typed column: distinct values in
/// code order (`code` = `#rowId` into this dictionary).
#[derive(Debug, Clone)]
pub struct EnumDict {
    values: Vector,
}

impl EnumDict {
    /// Wrap a dictionary column. `values.len()` must fit enum codes.
    pub fn new(values: Vector) -> Self {
        assert!(
            values.len() <= MAX_ENUM_CARD,
            "enum cardinality {} exceeds u16 codes",
            values.len()
        );
        EnumDict { values }
    }

    /// Cardinality of the enumeration.
    pub fn cardinality(&self) -> usize {
        self.values.len()
    }

    /// The decoded (logical) type of the column.
    pub fn value_type(&self) -> ScalarType {
        self.values.scalar_type()
    }

    /// The dictionary values as a column (the mapping table).
    pub fn values(&self) -> &Vector {
        &self.values
    }

    /// Decode one code (slow path).
    pub fn decode(&self, code: usize) -> Value {
        self.values.get_value(code)
    }

    /// Re-encode a column whose rows are `codes` (into this dictionary)
    /// followed by the logical values `tail`, without decoding `codes`:
    /// reorganize's dictionary merge.
    ///
    /// One pass over `codes` marks the entries still used; [`encode`]
    /// then runs over the short input "used entries ++ `tail`". The codes it gives the used entries form
    /// an old-code → new-code remap, and the merged codes are one
    /// [`gather_at`] through it (the dictionary-decode kernel) followed
    /// by the codes it gave `tail`.
    ///
    /// The distinct values of that input are the distinct values of the
    /// decoded column, so the result is exactly what encoding the decoded
    /// column would give: sorted distinct values (unused entries
    /// dropped), rank codes, `U8` up to 256 values and `U16` beyond. It is
    /// `None` in exactly the cases that encoding refuses — NaN or `-0.0`
    /// among the `f64` values, more than [`MAX_ENUM_CARD`] values — and
    /// for a dictionary type no `encode_*` helper covers.
    ///
    /// # Panics
    /// When `codes` are not `U8`/`U16` or name no entry, or `tail` is not
    /// of the dictionary's type.
    pub fn merge(&self, codes: &Vector, tail: &Vector) -> Option<Encoded> {
        let mut used = vec![false; self.cardinality()];
        match codes {
            Vector::U8(c) => c.iter().for_each(|&x| used[x as usize] = true),
            Vector::U16(c) => c.iter().for_each(|&x| used[x as usize] = true),
            other => panic!("enum codes of type {:?}", other.scalar_type()),
        }
        let live: Vec<u32> = (0..used.len() as u32)
            .filter(|&e| used[e as usize])
            .collect();
        let mut input = Vector::with_capacity(self.value_type(), live.len() + tail.len());
        assert!(
            gather_rows(&mut input, &self.values, &live, None),
            "used entries lie inside the dictionary"
        );
        input.append_range(tail, 0, tail.len());
        let enc = encode(&input)?;
        // Old code → new code; entries no row uses keep code 0 and are
        // never read.
        let mut remap = Vector::zeroed(enc.codes.scalar_type(), used.len());
        match (&mut remap, &enc.codes) {
            (Vector::U8(r), Vector::U8(c)) => {
                live.iter().zip(c).for_each(|(&e, &x)| r[e as usize] = x)
            }
            (Vector::U16(r), Vector::U16(c)) => {
                live.iter().zip(c).for_each(|(&e, &x)| r[e as usize] = x)
            }
            _ => unreachable!("encode_* emits U8 or U16 codes"),
        }
        let mut merged = Vector::with_capacity(enc.codes.scalar_type(), codes.len() + tail.len());
        assert!(
            gather_at(&mut merged, &remap, codes, None),
            "codes name dictionary entries"
        );
        merged.append_range(&enc.codes, live.len(), tail.len());
        Some(Encoded {
            codes: merged,
            dict: enc.dict,
        })
    }
}

/// Result of dictionary-encoding a column: code column + dictionary.
pub struct Encoded {
    /// `U8` codes if cardinality ≤ 256, else `U16` codes.
    pub codes: Vector,
    /// The mapping table.
    pub dict: EnumDict,
}

/// Dictionary-encode a column with the `encode_*` helper for its type:
/// `None` where that helper refuses, and for a type none covers.
pub fn encode(values: &Vector) -> Option<Encoded> {
    match values {
        Vector::Str(v) => encode_str(&v.iter().collect::<Vec<_>>()),
        Vector::F64(v) => encode_f64(v),
        Vector::I64(v) => encode_i64(v),
        _ => None,
    }
}

/// Dictionary-encode a string column if its cardinality allows.
///
/// Returns `None` if the column has more than [`MAX_ENUM_CARD`] distinct
/// values (then plain storage must be used). Codes are assigned in first
/// lexicographic order of the distinct values, making the encoding
/// deterministic and order-preserving (`code_a < code_b ⇔ val_a < val_b`),
/// which lets range predicates run directly on codes.
pub fn encode_str<S: AsRef<str>>(values: &[S]) -> Option<Encoded> {
    let mut distinct: Vec<&str> = values.iter().map(AsRef::as_ref).collect();
    distinct.sort_unstable();
    distinct.dedup();
    if distinct.len() > MAX_ENUM_CARD {
        return None;
    }
    let lookup = |s: &S| distinct.binary_search(&s.as_ref()).expect("value in dict");
    let codes = if distinct.len() <= 256 {
        Vector::U8(values.iter().map(|s| lookup(s) as u8).collect())
    } else {
        Vector::U16(values.iter().map(|s| lookup(s) as u16).collect())
    };
    let dict: StrVec = distinct.into_iter().collect();
    Some(Encoded {
        codes,
        dict: EnumDict::new(Vector::Str(dict)),
    })
}

/// Dictionary-encode an `f64` column (e.g. TPC-H `l_discount`, `l_tax`,
/// `l_quantity`, which the paper stores as enumerated types, §5.1).
///
/// Codes are order-preserving and decode bit-exactly, so a column
/// holding NaN (no order) or `-0.0` (equal to `+0.0`, one code for two
/// bit patterns) stays plain: `None`, as for too many distinct values.
pub fn encode_f64(values: &[f64]) -> Option<Encoded> {
    if values
        .iter()
        .any(|x| x.is_nan() || (*x == 0.0 && x.is_sign_negative()))
    {
        return None;
    }
    let mut distinct: Vec<f64> = values.to_vec();
    distinct.sort_unstable_by(f64::total_cmp);
    distinct.dedup();
    if distinct.len() > MAX_ENUM_CARD {
        return None;
    }
    let lookup = |x: f64| {
        distinct
            .binary_search_by(|d| d.total_cmp(&x))
            .expect("value in dict")
    };
    let codes = if distinct.len() <= 256 {
        Vector::U8(values.iter().map(|&x| lookup(x) as u8).collect())
    } else {
        Vector::U16(values.iter().map(|&x| lookup(x) as u16).collect())
    };
    Some(Encoded {
        codes,
        dict: EnumDict::new(Vector::F64(distinct)),
    })
}

/// Dictionary-encode an `i64` column.
pub fn encode_i64(values: &[i64]) -> Option<Encoded> {
    let mut distinct: Vec<i64> = values.to_vec();
    distinct.sort_unstable();
    distinct.dedup();
    if distinct.len() > MAX_ENUM_CARD {
        return None;
    }
    let lookup = |x: i64| distinct.binary_search(&x).expect("value in dict");
    let codes = if distinct.len() <= 256 {
        Vector::U8(values.iter().map(|&x| lookup(x) as u8).collect())
    } else {
        Vector::U16(values.iter().map(|&x| lookup(x) as u16).collect())
    };
    Some(Encoded {
        codes,
        dict: EnumDict::new(Vector::I64(distinct)),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_strings_u8() {
        let data = vec![
            "N".to_string(),
            "A".to_string(),
            "N".to_string(),
            "R".to_string(),
        ];
        let enc = encode_str(&data).expect("fits");
        assert_eq!(enc.dict.cardinality(), 3);
        assert_eq!(enc.dict.value_type(), ScalarType::Str);
        let codes = enc.codes.as_u8();
        // Codes decode back to the original values.
        for (i, s) in data.iter().enumerate() {
            assert_eq!(enc.dict.decode(codes[i] as usize), Value::Str(s.clone()));
        }
        // Order-preserving: A < N < R.
        assert!(codes[1] < codes[0] && codes[0] < codes[3]);
    }

    #[test]
    fn encode_f64_discounts() {
        let data: Vec<f64> = (0..100).map(|i| (i % 11) as f64 / 100.0).collect();
        let enc = encode_f64(&data).expect("fits");
        assert_eq!(enc.dict.cardinality(), 11);
        let codes = enc.codes.as_u8();
        let dict = enc.dict.values().as_f64();
        for (i, &x) in data.iter().enumerate() {
            assert_eq!(dict[codes[i] as usize], x);
        }
    }

    #[test]
    fn encode_f64_refuses_nan() {
        assert!(encode_f64(&[0.05, f64::NAN, 0.0]).is_none());
    }

    #[test]
    fn encode_f64_refuses_negative_zero() {
        // One code cannot decode to both bit patterns.
        assert!(encode_f64(&[0.0, -0.0, 0.05]).is_none());
        let enc = encode_f64(&[0.0, 0.05, 0.0]).expect("fits");
        assert_eq!(enc.dict.values().as_f64(), &[0.0, 0.05]);
    }

    #[test]
    fn wide_cardinality_uses_u16() {
        let data: Vec<i64> = (0..1000).map(|i| i % 500).collect();
        let enc = encode_i64(&data).expect("fits");
        assert_eq!(enc.codes.scalar_type(), ScalarType::U16);
        assert_eq!(enc.dict.cardinality(), 500);
    }

    #[test]
    fn over_cardinality_returns_none() {
        let data: Vec<i64> = (0..(MAX_ENUM_CARD as i64 + 1)).collect();
        assert!(encode_i64(&data).is_none());
    }

    #[test]
    fn merge_equals_encoding_the_decoded_column() {
        // Unsorted dictionary with unused entries; the tail brings 300
        // new values, so the merged codes widen to U16.
        let dict = EnumDict::new(Vector::I64(vec![50, -7, 999, 3, 12]));
        let codes = Vector::U8(vec![3, 1, 3, 0, 1]);
        let tail: Vec<i64> = (0..300).map(|i| i * 2).collect();
        let merged = dict
            .merge(&codes, &Vector::I64(tail.clone()))
            .expect("fits");
        let mut decoded: Vec<i64> = vec![3, -7, 3, 50, -7];
        decoded.extend(&tail);
        let fresh = encode_i64(&decoded).expect("fits");
        assert_eq!(merged.codes, fresh.codes);
        assert_eq!(merged.codes.scalar_type(), ScalarType::U16);
        assert_eq!(merged.dict.values(), fresh.dict.values());
        // A NaN among the new values refuses, as encoding would.
        let dict = EnumDict::new(Vector::F64(vec![0.5, 0.25]));
        let nan = Vector::F64(vec![f64::NAN]);
        assert!(dict.merge(&Vector::U8(vec![1, 0]), &nan).is_none());
    }

    #[test]
    fn compression_saves_space() {
        // 8-byte floats with 11 distinct values compress 8:1 to u8 codes.
        let data: Vec<f64> = (0..10_000).map(|i| (i % 11) as f64).collect();
        let plain = Vector::F64(data.clone());
        let enc = encode_f64(&data).expect("fits");
        let compressed = enc.codes.byte_size() + enc.dict.values().byte_size();
        assert!(
            compressed * 7 < plain.byte_size(),
            "{} vs {}",
            compressed,
            plain.byte_size()
        );
    }
}
