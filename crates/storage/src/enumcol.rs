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
//! a durable checkpoint compresses the codes like any integer column.

use std::collections::hash_map::RandomState;
use std::hash::BuildHasher;
use std::sync::OnceLock;
use x100_vector::fetch::{gather_at, gather_rows};
use x100_vector::{ScalarType, StrVec, Value, Vector};

/// Maximum cardinality an enumeration type can hold (2-byte codes).
pub const MAX_ENUM_CARD: usize = u16::MAX as usize + 1;

/// The mapping table of an enumeration-typed column: distinct values in
/// code order (`code` = `#rowId` into this dictionary).
///
/// A dictionary `encode` builds is *rank-ordered*: its entries ascend,
/// so codes compare as their values do. `Table::insert` appends a value
/// the dictionary lacks as a new code past those entries
/// (`EnumDict::push`), so an enum column's insert delta holds codes
/// too; equality, IN lists and grouping hold on every code, and a
/// reorganize renumbers the merged dictionary to rank codes again
/// ([`EnumDict::merge`]). No reader of codes relies on their order:
/// ordered comparisons and sorts read the decoded values.
#[derive(Clone)]
pub struct EnumDict {
    values: Vector,
    /// The entries by value, built by the first [`EnumDict::code_of`]
    /// and kept by [`EnumDict::push`].
    index: OnceLock<ValueIndex>,
}

/// The values only: the index is a cache, its layout drawn at random.
impl std::fmt::Debug for EnumDict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut d = f.debug_struct("EnumDict");
        d.field("values", &self.values).finish_non_exhaustive()
    }
}

impl EnumDict {
    /// Wrap a dictionary column. `values.len()` must fit enum codes.
    pub fn new(values: Vector) -> Self {
        assert!(
            values.len() <= MAX_ENUM_CARD,
            "enum cardinality {} exceeds u16 codes",
            values.len()
        );
        EnumDict {
            values,
            index: OnceLock::new(),
        }
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

    /// The code of `v`, if the dictionary holds it: one probe sequence of
    /// the value index, typed once per call. Floats match by their bits,
    /// so `-0.0` never finds `0.0`.
    ///
    /// # Panics
    /// When `v` is not of the dictionary's type.
    pub(crate) fn code_of(&self, v: &Value) -> Option<usize> {
        let ix = self.index.get_or_init(|| ValueIndex::build(&self.values));
        macro_rules! typed {
            ($($var:ident),*) => {
                match (&self.values, v) {
                    $((Vector::$var(d), Value::$var(x)) => {
                        ix.find(ix.word(*x as u64), |i| d[i] == *x)
                    })*
                    (Vector::F64(d), Value::F64(x)) => {
                        ix.find(ix.word(x.to_bits()), |i| d[i].to_bits() == x.to_bits())
                    }
                    (Vector::Str(d), Value::Str(x)) => {
                        ix.find(ix.str(x), |i| d.get_bytes(i) == x.as_bytes())
                    }
                    (d, v) => panic!(
                        "a {:?} value for a {:?} enum dictionary",
                        v.scalar_type(),
                        d.scalar_type()
                    ),
                }
            };
        }
        typed!(I8, I16, I32, I64, U8, U16, U32, U64)
    }

    /// Append `v`, which the dictionary lacks, as the next code past
    /// every entry, and return that code.
    ///
    /// # Panics
    /// When the dictionary is full ([`MAX_ENUM_CARD`]) or `v` is not of
    /// its type.
    pub(crate) fn push(&mut self, v: &Value) -> usize {
        let code = self.values.len();
        assert!(code < MAX_ENUM_CARD, "enum dictionary is full");
        self.values.push_value(v);
        match self.index.get_mut() {
            Some(ix) if 2 * (code + 1) < ix.slots.len() => ix.insert(&self.values, code),
            // Past half full, the next lookup builds a larger index.
            Some(_) => self.index = OnceLock::new(),
            None => {}
        }
        code
    }

    /// Re-encode a column whose rows are `codes` into this dictionary,
    /// without decoding them: reorganize's dictionary merge (the codes
    /// of the fragment's live rows, then of the insert delta's).
    ///
    /// One pass over `codes` marks the entries still used; [`encode`]
    /// then runs over the short input "used entries", in code order.
    /// The codes it gives them form an old-code → new-code remap, and the
    /// merged codes are one [`gather_at`] through it (the
    /// dictionary-decode kernel).
    ///
    /// The distinct values of that input are the distinct values of the
    /// decoded column, so the result is exactly what encoding the decoded
    /// column would give: sorted distinct values (unused entries
    /// dropped, appended ones ranked), rank codes, `U8` up to 256 values
    /// and `U16` beyond. It is `None` in exactly the cases that encoding
    /// refuses — NaN or `-0.0` among the `f64` values, which only a
    /// dictionary built by hand can hold — and for a dictionary type no
    /// `encode_*` helper covers.
    ///
    /// # Panics
    /// When `codes` are not `U8`/`U16` or name no entry.
    pub fn merge(&self, codes: &Vector) -> Option<Encoded> {
        let mut used = vec![false; self.cardinality()];
        match codes {
            Vector::U8(c) => c.iter().for_each(|&x| used[x as usize] = true),
            Vector::U16(c) => c.iter().for_each(|&x| used[x as usize] = true),
            other => panic!("enum codes of type {:?}", other.scalar_type()),
        }
        let live: Vec<u32> = (0..used.len() as u32)
            .filter(|&e| used[e as usize])
            .collect();
        let mut input = Vector::with_capacity(self.value_type(), live.len());
        assert!(
            gather_rows(&mut input, &self.values, &live, None),
            "used entries lie inside the dictionary"
        );
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
        let mut merged = Vector::with_capacity(enc.codes.scalar_type(), codes.len());
        assert!(
            gather_at(&mut merged, &remap, codes, None),
            "codes name dictionary entries"
        );
        Some(Encoded {
            codes: merged,
            dict: enc.dict,
        })
    }
}

/// An open-addressing index of a dictionary's entries by value: slot →
/// code + 1 (0 = empty), a power of two over twice the entries, linear
/// probing. The hash is multiplicative with an odd key drawn from the
/// process's random hasher state, so values chosen to collide cannot be
/// chosen without it.
#[derive(Clone)]
struct ValueIndex {
    slots: Vec<u32>,
    key: u64,
}

impl ValueIndex {
    /// The index over every entry of `values`.
    fn build(values: &Vector) -> ValueIndex {
        let mut ix = ValueIndex {
            slots: vec![0; (2 * values.len() + 2).next_power_of_two()],
            key: RandomState::new().hash_one(values.len()) | 1,
        };
        (0..values.len()).for_each(|i| ix.insert(values, i));
        ix
    }

    /// The hash of a fixed-width value's bits.
    fn word(&self, x: u64) -> u64 {
        x.wrapping_mul(self.key)
    }

    /// The hash of a string, eight bytes at a step.
    fn str(&self, s: &str) -> u64 {
        let mut words = s.as_bytes().chunks_exact(8);
        let mut h = s.len() as u64;
        for w in &mut words {
            h = self.word(h.rotate_left(5) ^ u64::from_le_bytes(w.try_into().expect("8 bytes")));
        }
        let tail = words.remainder().iter().rev();
        self.word(h.rotate_left(5) ^ tail.fold(0, |t, &b| t << 8 | u64::from(b)))
    }

    /// The hash of entry `i` of `values`, as [`EnumDict::code_of`]
    /// hashes a value.
    fn entry(&self, values: &Vector, i: usize) -> u64 {
        match values {
            Vector::I8(d) => self.word(d[i] as u64),
            Vector::I16(d) => self.word(d[i] as u64),
            Vector::I32(d) => self.word(d[i] as u64),
            Vector::I64(d) => self.word(d[i] as u64),
            Vector::U8(d) => self.word(u64::from(d[i])),
            Vector::U16(d) => self.word(u64::from(d[i])),
            Vector::U32(d) => self.word(u64::from(d[i])),
            Vector::U64(d) => self.word(d[i]),
            Vector::F64(d) => self.word(d[i].to_bits()),
            Vector::Str(d) => self.str(d.get(i)),
            Vector::Bool(_) => unreachable!("Bool is never stored"),
        }
    }

    /// The first slot of hash `h`'s probe sequence.
    fn home(&self, h: u64) -> usize {
        (h >> (64 - self.slots.len().trailing_zeros())) as usize
    }

    /// The next slot of a probe sequence.
    fn next(&self, at: usize) -> usize {
        (at + 1) & (self.slots.len() - 1)
    }

    /// Index entry `code` of `values`.
    fn insert(&mut self, values: &Vector, code: usize) {
        let mut at = self.home(self.entry(values, code));
        while self.slots[at] != 0 {
            at = self.next(at);
        }
        self.slots[at] = code as u32 + 1;
    }

    /// The entry `eq` accepts along hash `h`'s probe sequence.
    fn find(&self, h: u64, eq: impl Fn(usize) -> bool) -> Option<usize> {
        let mut at = self.home(h);
        loop {
            match self.slots[at] {
                0 => return None,
                e if eq(e as usize - 1) => return Some(e as usize - 1),
                _ => at = self.next(at),
            }
        }
    }
}

/// Whether an enum dictionary may hold `v`: every value but an `f64`
/// NaN (no order) or `-0.0` (equal to `0.0`, one code for two bit
/// patterns) — what [`encode_f64`] refuses.
pub(crate) fn holds(v: &Value) -> bool {
    !matches!(v, Value::F64(x) if x.is_nan() || (*x == 0.0 && x.is_sign_negative()))
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
/// values (then plain storage must be used). Codes are assigned in
/// lexicographic order of the distinct values, making the encoding
/// deterministic and rank-ordered (`code_a < code_b ⇔ val_a < val_b`)
/// until an insert appends a value (`EnumDict::push`).
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
        // Unsorted dictionary with unused entries, then 300 appended
        // values, so the merged codes widen to U16.
        let mut dict = EnumDict::new(Vector::I64(vec![50, -7, 999, 3, 12]));
        let tail: Vec<i64> = (0..300).map(|i| i * 2).collect();
        let mut codes = vec![3u16, 1, 3, 0, 1];
        for &x in &tail {
            let v = Value::I64(x);
            let code = dict.code_of(&v).unwrap_or_else(|| dict.push(&v));
            codes.push(code as u16);
        }
        let merged = dict.merge(&Vector::U16(codes)).expect("fits");
        let mut decoded: Vec<i64> = vec![3, -7, 3, 50, -7];
        decoded.extend(&tail);
        let fresh = encode_i64(&decoded).expect("fits");
        assert_eq!(merged.codes, fresh.codes);
        assert_eq!(merged.codes.scalar_type(), ScalarType::U16);
        assert_eq!(merged.dict.values(), fresh.dict.values());
        // A NaN in a dictionary built by hand refuses, as encoding would.
        let dict = EnumDict::new(Vector::F64(vec![0.5, f64::NAN]));
        assert!(dict.merge(&Vector::U8(vec![1, 0])).is_none());
    }

    #[test]
    fn code_of_finds_ranked_and_appended_entries() {
        let mut dict = encode_str(&["MAIL", "AIR", "SHIP"]).expect("fits").dict;
        let code = |d: &EnumDict, s: &str| d.code_of(&Value::Str(s.into()));
        assert_eq!(code(&dict, "AIR"), Some(0));
        assert_eq!(code(&dict, "SHIP"), Some(2));
        assert_eq!(code(&dict, "RAIL"), None);
        // Appended values take the next codes, whatever their rank, and
        // the index grows past half full.
        for (i, s) in ["RAIL", "FOB", "TRUCK", "REG AIR"].into_iter().enumerate() {
            assert_eq!(dict.push(&Value::Str(s.into())), 3 + i);
        }
        let all = ["AIR", "MAIL", "SHIP", "RAIL", "FOB", "TRUCK", "REG AIR"];
        for (i, s) in all.into_iter().enumerate() {
            assert_eq!(code(&dict, s), Some(i), "{s}");
        }
        assert_eq!(dict.decode(4), Value::Str("FOB".into()));
        // A dictionary built by hand out of order; floats match by bits.
        let dict = EnumDict::new(Vector::F64(vec![0.5, 0.25, 0.75, 0.0]));
        for (i, x) in [0.5, 0.25, 0.75, 0.0].into_iter().enumerate() {
            assert_eq!(dict.code_of(&Value::F64(x)), Some(i));
        }
        assert_eq!(dict.code_of(&Value::F64(-0.0)), None, "-0.0 is not 0.0");
        assert_eq!(dict.code_of(&Value::F64(f64::NAN)), None);
        let dict = EnumDict::new(Vector::I64((0..1000).map(|i| i * 7 - 3500).collect()));
        assert!((0..1000).all(|i| dict.code_of(&Value::I64(i * 7 - 3500)) == Some(i as usize)));
        assert_eq!(dict.code_of(&Value::I64(1)), None);
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
