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
}

/// Result of dictionary-encoding a column: code column + dictionary.
pub struct Encoded {
    /// `U8` codes if cardinality ≤ 256, else `U16` codes.
    pub codes: Vector,
    /// The mapping table.
    pub dict: EnumDict,
}

/// Dictionary-encode a string column if its cardinality allows.
///
/// Returns `None` if the column has more than [`MAX_ENUM_CARD`] distinct
/// values (then plain storage must be used). Codes are assigned in first
/// lexicographic order of the distinct values, making the encoding
/// deterministic and order-preserving (`code_a < code_b ⇔ val_a < val_b`),
/// which lets range predicates run directly on codes.
pub fn encode_str(values: impl Iterator<Item = String> + Clone) -> Option<Encoded> {
    let mut distinct: Vec<String> = values.clone().collect();
    distinct.sort_unstable();
    distinct.dedup();
    if distinct.len() > MAX_ENUM_CARD {
        return None;
    }
    let lookup = |s: &str| {
        distinct
            .binary_search_by(|d| d.as_str().cmp(s))
            .expect("value in dict")
    };
    let codes = if distinct.len() <= 256 {
        Vector::U8(values.map(|s| lookup(&s) as u8).collect())
    } else {
        Vector::U16(values.map(|s| lookup(&s) as u16).collect())
    };
    let dict: StrVec = distinct.iter().map(String::as_str).collect();
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
        let enc = encode_str(data.clone().into_iter()).expect("fits");
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
