//! Property-based tests for the storage layer.
//!
//! Key invariants:
//! * a table behaves like a simple row-store model under any sequence of
//!   inserts / deletes / updates / reorganizes;
//! * enum encoding roundtrips and is order-preserving;
//! * summary indices are always conservative.

use proptest::prelude::*;
use x100_storage::{
    choose_and_compress, compress_column_as, encode_i64, ChunkFormat, ColumnData, CompressedColumn,
    DecodeCursor, SummaryIndex, TableBuilder,
};
use x100_vector::{Value, Vector};

#[derive(Debug, Clone)]
enum Op {
    Insert(i64),
    Delete(usize),
    Update(usize, i64),
    Reorganize,
    Checkpoint,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (any::<i64>()).prop_map(Op::Insert),
        (0usize..64).prop_map(Op::Delete),
        (0usize..64, any::<i64>()).prop_map(|(i, v)| Op::Update(i, v)),
        Just(Op::Reorganize),
        Just(Op::Checkpoint),
    ]
}

/// Bit-level vector equality: floats compare by representation, so a
/// decode that flips even one mantissa bit fails (NaNs included).
fn bits_eq(a: &Vector, b: &Vector) -> bool {
    match (a, b) {
        (Vector::F64(x), Vector::F64(y)) => {
            x.len() == y.len() && x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits())
        }
        _ => a == b,
    }
}

/// Decode `cc` in refills of the (cycled) `sizes` and demand the result
/// is bit-identical to the physical column at every step — this drives
/// the per-chunk cursor across chunk boundaries exactly like a scan.
fn assert_decode_matches(cc: &CompressedColumn, data: &ColumnData, sizes: &[usize]) {
    let rows = data.len();
    let mut cursor = DecodeCursor::default();
    let mut scratch = Vec::new();
    let mut got = Vector::with_capacity(data.scalar_type(), 0);
    let mut want = Vector::with_capacity(data.scalar_type(), 0);
    let mut at = 0usize;
    let mut k = 0usize;
    while at < rows {
        let n = sizes[k % sizes.len()].clamp(1, rows - at);
        k += 1;
        cc.decode_range(at, n, &mut got, &mut cursor, &mut scratch)
            .expect("decode");
        data.read_into(at, n, &mut want);
        prop_assert!(
            bits_eq(&got, &want),
            "decode mismatch at rows [{at}, {})",
            at + n
        );
        at += n;
    }
}

proptest! {
    #[test]
    fn table_matches_row_model(init in prop::collection::vec(any::<i64>(), 0..40),
                               ops in prop::collection::vec(op_strategy(), 0..40)) {
        let mut table = TableBuilder::new("t")
            .column("v", ColumnData::I64(init.clone()))
            .build();
        // Model: live rows in #rowId order, as (value) list.
        let mut model: Vec<i64> = init.clone();
        // Map from live position -> rowid is implicit; we track rowids.
        let mut rowids: Vec<u32> = (0..init.len() as u32).collect();

        for op in ops {
            match op {
                Op::Insert(v) => {
                    let id = table.insert(&[Value::I64(v)]);
                    model.push(v);
                    rowids.push(id);
                }
                Op::Delete(pos) => {
                    if !model.is_empty() {
                        let pos = pos % model.len();
                        prop_assert!(table.delete(rowids[pos]));
                        model.remove(pos);
                        rowids.remove(pos);
                    }
                }
                Op::Update(pos, v) => {
                    if !model.is_empty() {
                        let pos = pos % model.len();
                        let new_id = table.update(rowids[pos], &[Value::I64(v)]).expect("live row");
                        model.remove(pos);
                        rowids.remove(pos);
                        model.push(v);
                        rowids.push(new_id);
                    }
                }
                Op::Reorganize => {
                    table.reorganize();
                    rowids = (0..model.len() as u32).collect();
                }
                Op::Checkpoint => {
                    table.checkpoint();
                }
            }
            prop_assert_eq!(table.live_rows(), model.len());
        }
        // Final check: every live row matches the model.
        for (pos, &id) in rowids.iter().enumerate() {
            prop_assert_eq!(table.get_row(id), vec![Value::I64(model[pos])]);
        }
        // Any checkpoint-compressed fragment must decode bit-identically
        // to the physical column it mirrors.
        let sc = table.column(0);
        if let Some(cc) = sc.compressed() {
            prop_assert_eq!(cc.rows(), sc.physical().len());
            assert_decode_matches(cc, sc.physical(), &[7, 1, 13]);
        }
    }

    #[test]
    fn enum_roundtrip_and_order(values in prop::collection::vec(-50i64..50, 1..300)) {
        let enc = encode_i64(&values).expect("small domain");
        let dict = enc.dict.values().as_i64();
        let decode = |i: usize| -> i64 {
            match &enc.codes {
                ColumnData::U8(c) => dict[c[i] as usize],
                ColumnData::U16(c) => dict[c[i] as usize],
                _ => unreachable!(),
            }
        };
        for (i, &v) in values.iter().enumerate() {
            prop_assert_eq!(decode(i), v);
        }
        // Order-preserving encoding.
        prop_assert!(dict.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn summary_always_conservative(col in prop::collection::vec(-1000i64..1000, 0..500),
                                   gran in 1usize..64,
                                   lo in -1000i64..1000,
                                   width in 0i64..500) {
        let idx = SummaryIndex::build_with_granularity(&col, gran);
        let hi = lo + width;
        let (s, e) = idx.range_candidates(Some(lo), Some(hi));
        prop_assert!(s <= e && e <= col.len());
        for (i, &v) in col.iter().enumerate() {
            if v >= lo && v <= hi {
                prop_assert!(s <= i && i < e, "qualifying row {i} outside [{s},{e})");
            }
        }
    }

    #[test]
    fn summary_sorted_pruning_is_tight(n in 1usize..2000, gran in 1usize..100, q in 0i64..2000) {
        let col: Vec<i64> = (0..n as i64).collect();
        let idx = SummaryIndex::build_with_granularity(&col, gran);
        let (s, e) = idx.range_candidates(Some(q), Some(q));
        if (q as usize) < n {
            // Candidate window around the hit is at most 2 granules wide.
            prop_assert!(e - s <= 2 * gran);
            prop_assert!(s <= q as usize && (q as usize) < e);
        } else {
            prop_assert_eq!(s, e);
        }
    }
}

/// PFOR round-trips for every integer column type: arbitrary values,
/// arbitrary refill sizes. `compress_column_as` must accept (PFOR has a
/// raw-exception escape hatch for any distribution).
macro_rules! pfor_int_roundtrip {
    ($($test:ident : $ty:ty => $variant:ident);* $(;)?) => {
        proptest! {
            $(
                #[test]
                fn $test(values in prop::collection::vec(any::<$ty>(), 1..300),
                         sizes in prop::collection::vec(1usize..80, 1..5)) {
                    let data = ColumnData::$variant(values);
                    let cc = compress_column_as(&data, ChunkFormat::Pfor)
                        .expect("pfor accepts any integer column");
                    assert_decode_matches(&cc, &data, &sizes);
                }
            )*
        }
    };
}

pfor_int_roundtrip! {
    pfor_roundtrip_i8:  i8  => I8;
    pfor_roundtrip_i16: i16 => I16;
    pfor_roundtrip_i32: i32 => I32;
    pfor_roundtrip_i64: i64 => I64;
    pfor_roundtrip_u8:  u8  => U8;
    pfor_roundtrip_u16: u16 => U16;
    pfor_roundtrip_u32: u32 => U32;
    pfor_roundtrip_u64: u64 => U64;
}

proptest! {
    /// PFOR over decimal-scaled floats (the TPC-H money shape): every
    /// value must survive the scaled round trip bit-exactly.
    #[test]
    fn pfor_roundtrip_f64_decimal(cents in prop::collection::vec(-2_000_000i64..2_000_000, 1..300),
                                  scale_idx in 0usize..5,
                                  sizes in prop::collection::vec(1usize..80, 1..5)) {
        let scale = [1i64, 10, 100, 1000, 10000][scale_idx];
        let values: Vec<f64> = cents.iter().map(|&c| c as f64 / scale as f64).collect();
        let data = ColumnData::F64(values);
        let cc = compress_column_as(&data, ChunkFormat::Pfor).expect("pfor accepts any f64 column");
        assert_decode_matches(&cc, &data, &sizes);
    }

    /// PFOR over arbitrary finite doubles: almost none are representable
    /// as scaled integers, so this exercises all-exception blocks — the
    /// payload is noise and every value rides the patch list.
    #[test]
    fn pfor_roundtrip_f64_all_exceptions(bits in prop::collection::vec(any::<u64>(), 1..200),
                                         sizes in prop::collection::vec(1usize..80, 1..5)) {
        let values: Vec<f64> = bits
            .iter()
            .map(|&b| {
                let v = f64::from_bits(b);
                if v.is_finite() { v } else { f64::from_bits(b & !(0x7ff << 52)) }
            })
            .collect();
        let data = ColumnData::F64(values);
        let cc = compress_column_as(&data, ChunkFormat::Pfor).expect("pfor accepts any f64 column");
        assert_decode_matches(&cc, &data, &sizes);
    }

    /// PFOR-DELTA round-trips over every integer type (sorted input is a
    /// precondition of the format; the chooser enforces it upstream).
    #[test]
    fn pfordelta_roundtrip_ints(deltas in prop::collection::vec(0u32..1000, 1..300),
                                start in -1_000_000i64..1_000_000,
                                sizes in prop::collection::vec(1usize..80, 1..5)) {
        let mut acc = start;
        let sorted: Vec<i64> = deltas.iter().map(|&d| { acc += d as i64; acc }).collect();
        let data = ColumnData::I64(sorted.clone());
        let cc = compress_column_as(&data, ChunkFormat::PforDelta)
            .expect("pfordelta accepts sorted input");
        assert_decode_matches(&cc, &data, &sizes);
        // Narrower physical types, same logical content.
        let data32 = ColumnData::I32(sorted.iter().map(|&v| (v % (1 << 20)) as i32).collect());
        if let Some(cc) = compress_column_as(&data32, ChunkFormat::PforDelta) {
            assert_decode_matches(&cc, &data32, &sizes);
        }
    }

    /// PFOR-DELTA decode must also be correct under *random seeks* (a
    /// pruned scan entering mid-chunk replays from the last sync point).
    #[test]
    fn pfordelta_random_seeks(deltas in prop::collection::vec(0u32..50, 50..400),
                              seeks in prop::collection::vec((0usize..400, 1usize..60), 1..12)) {
        let mut acc = 0i64;
        let sorted: Vec<i64> = deltas.iter().map(|&d| { acc += d as i64; acc }).collect();
        let data = ColumnData::I64(sorted.clone());
        let cc = compress_column_as(&data, ChunkFormat::PforDelta)
            .expect("pfordelta accepts sorted input");
        let mut cursor = DecodeCursor::default();
        let mut scratch = Vec::new();
        let mut got = Vector::with_capacity(data.scalar_type(), 0);
        let mut want = Vector::with_capacity(data.scalar_type(), 0);
        for (start, n) in seeks {
            let start = start % sorted.len();
            let n = n.min(sorted.len() - start).max(1);
            cc.decode_range(start, n, &mut got, &mut cursor, &mut scratch).expect("decode");
            data.read_into(start, n, &mut want);
            prop_assert!(bits_eq(&got, &want), "seek mismatch at [{start}, {})", start + n);
        }
    }

    /// PDICT round-trips for low-cardinality i64 / f64 / string columns.
    #[test]
    fn pdict_roundtrip(picks in prop::collection::vec(0usize..12, 1..300),
                       domain in prop::collection::vec(any::<i64>(), 12),
                       sizes in prop::collection::vec(1usize..80, 1..5)) {
        let ints: Vec<i64> = picks.iter().map(|&p| domain[p]).collect();
        let data = ColumnData::I64(ints.clone());
        let cc = compress_column_as(&data, ChunkFormat::Pdict).expect("low-cardinality i64");
        assert_decode_matches(&cc, &data, &sizes);

        let floats: Vec<f64> = picks.iter().map(|&p| domain[p] as f64 + 0.5).collect();
        let data = ColumnData::F64(floats);
        let cc = compress_column_as(&data, ChunkFormat::Pdict).expect("low-cardinality f64");
        assert_decode_matches(&cc, &data, &sizes);

        let mut strs = x100_vector::StrVec::default();
        for &p in &picks {
            strs.push(&format!("tag-{}", domain[p] % 16));
        }
        let data = ColumnData::Str(strs);
        let cc = compress_column_as(&data, ChunkFormat::Pdict).expect("low-cardinality str");
        assert_decode_matches(&cc, &data, &sizes);
    }

    /// The chooser must never pick a format that fails to round-trip,
    /// whatever the distribution thrown at it.
    #[test]
    fn chooser_roundtrip_any_distribution(values in prop::collection::vec(-5000i64..5000, 1..300),
                                          sort in any::<bool>(),
                                          sizes in prop::collection::vec(1usize..80, 1..5)) {
        let mut values = values;
        if sort {
            values.sort_unstable();
        }
        let data = ColumnData::I64(values);
        if let Some(cc) = choose_and_compress(&data) {
            assert_decode_matches(&cc, &data, &sizes);
        }
    }
}

// ---------------------------------------------------------------------------
// Encoded-space predicate pushdown: `select_range` + `decode_positions`
// must be observationally equivalent to decode-then-select, across
// codec × type × predicate × selectivity — including all-exception
// chunks and windowed refills that stride chunk boundaries.
// ---------------------------------------------------------------------------

use x100_storage::{PushOp, Pushdown};

/// Native-comparison reference: filter the raw column over
/// `[start, start + n)` exactly as a decode-then-select pipeline would,
/// returning window-relative positions.
fn ref_filter(data: &ColumnData, start: usize, n: usize, p: &Pushdown) -> Vec<u32> {
    fn keep<T: PartialOrd + Copy>(x: T, lo: T, hi: Option<T>, op: PushOp) -> bool {
        match op {
            PushOp::Eq => x == lo,
            PushOp::Ne => x != lo,
            PushOp::Lt => x < lo,
            PushOp::Le => x <= lo,
            PushOp::Gt => x > lo,
            PushOp::Ge => x >= lo,
            PushOp::Between => x >= lo && hi.is_some_and(|h| x <= h),
        }
    }
    macro_rules! f {
        ($b:expr, $vv:ident) => {{
            let lo = match p.lo() {
                Value::$vv(x) => *x,
                other => panic!("constant {other:?} on {} column", stringify!($vv)),
            };
            let hi = p.hi().map(|h| match h {
                Value::$vv(x) => *x,
                other => panic!("constant {other:?} on {} column", stringify!($vv)),
            });
            $b[start..start + n]
                .iter()
                .enumerate()
                .filter(|(_, &x)| keep(x, lo, hi, p.op()))
                .map(|(i, _)| i as u32)
                .collect()
        }};
    }
    match data {
        ColumnData::I32(b) => f!(b, I32),
        ColumnData::I64(b) => f!(b, I64),
        ColumnData::F64(b) => f!(b, F64),
        ColumnData::Str(b) => {
            let lo = match p.lo() {
                Value::Str(x) => x.as_str(),
                other => panic!("constant {other:?} on Str column"),
            };
            (0..n)
                .filter(|&i| keep(b.get(start + i), lo, None, p.op()))
                .map(|i| i as u32)
                .collect()
        }
        other => panic!("unexercised column type {:?}", other.scalar_type()),
    }
}

/// Drive `select_range` in refills of the (cycled) `sizes` — sharing
/// one cursor, exactly like a scan — and demand window-relative
/// positions identical to the reference filter; then decode only the
/// survivors via `decode_positions` and demand bit-identical values.
fn assert_pushdown_matches(
    cc: &CompressedColumn,
    data: &ColumnData,
    op: PushOp,
    lo: &Value,
    hi: Option<&Value>,
    sizes: &[usize],
) {
    let Some(p) = cc.compile_pushdown(op, lo, hi) else {
        return; // unsupported codec/op pair: binder falls back
    };
    let rows = data.len();
    let mut cursor = DecodeCursor::default();
    let (mut sel, mut tmp) = (Vec::new(), Vec::new());
    let mut got = Vector::with_capacity(data.scalar_type(), 0);
    let mut want = Vector::with_capacity(data.scalar_type(), 0);
    let (mut at, mut k) = (0usize, 0usize);
    while at < rows {
        let n = sizes[k % sizes.len()].clamp(1, rows - at);
        k += 1;
        sel.clear();
        cc.select_range(&p, at, n, &mut sel, &mut cursor)
            .expect("select_range");
        let expect = ref_filter(data, at, n, &p);
        prop_assert_eq!(
            &sel,
            &expect,
            "pushdown {} diverged in window [{}, {})",
            p.sig(),
            at,
            at + n
        );
        if cc.decode_sel_sig().is_some() && !sel.is_empty() {
            cc.decode_positions(at, &sel, &mut got, &mut tmp, &mut cursor)
                .expect("decode_positions");
            data.read_into(at, n, &mut want);
            let dense: Vec<Value> = sel.iter().map(|&i| want.get_value(i as usize)).collect();
            let lazy: Vec<Value> = (0..got.len()).map(|i| got.get_value(i)).collect();
            prop_assert_eq!(
                lazy,
                dense,
                "lazy decode diverged in window [{}, {})",
                at,
                at + n
            );
        }
        at += n;
    }
}

/// Predicate operators each codec claims to support.
const PFOR_OPS: [PushOp; 6] = [
    PushOp::Eq,
    PushOp::Lt,
    PushOp::Le,
    PushOp::Gt,
    PushOp::Ge,
    PushOp::Between,
];
const PDICT_OPS: [PushOp; 6] = [
    PushOp::Eq,
    PushOp::Ne,
    PushOp::Lt,
    PushOp::Le,
    PushOp::Gt,
    PushOp::Ge,
];

proptest! {
    /// PFOR i64 pushdown with patched exceptions: each value is either
    /// in-lane or an outlier, so chunks range from exception-free to
    /// all-exception. Constants drawn from the data (plus the random
    /// offset) sweep selectivity from ~0% to ~100%.
    #[test]
    fn pfor_pushdown_matches_decode_then_select(
        values in prop::collection::vec(
            (0i64..120, any::<bool>()).prop_map(|(v, wide)| {
                if wide { v * 1_000_000_007 } else { v }
            }),
            1..400,
        ),
        op_i in 0usize..6,
        lit_i in 0usize..400,
        off in -2i64..3,
        sizes in prop::collection::vec(1usize..90, 1..5),
    ) {
        let data = ColumnData::I64(values.clone());
        let cc = compress_column_as(&data, ChunkFormat::Pfor).expect("pfor i64");
        let lo = Value::I64(values[lit_i % values.len()] + off);
        let hi = Value::I64(values[(lit_i + 7) % values.len()].max(values[lit_i % values.len()] + off));
        assert_pushdown_matches(&cc, &data, PFOR_OPS[op_i], &lo, Some(&hi).filter(|_| PFOR_OPS[op_i] == PushOp::Between), &sizes);
    }

    /// Scaled-f64 PFOR: the encoded-space translation must honor the
    /// scale trick; quarter steps keep every value representable.
    #[test]
    fn pfor_f64_pushdown_matches(
        values in prop::collection::vec(-300i64..300, 1..300),
        op_i in 0usize..6,
        lit_i in 0usize..300,
        sizes in prop::collection::vec(1usize..90, 1..5),
    ) {
        let floats: Vec<f64> = values.iter().map(|&v| v as f64 * 0.25).collect();
        let data = ColumnData::F64(floats.clone());
        let cc = compress_column_as(&data, ChunkFormat::Pfor).expect("pfor f64");
        let lo = Value::F64(floats[lit_i % floats.len()]);
        let hi = Value::F64(floats[(lit_i + 3) % floats.len()].max(floats[lit_i % floats.len()]));
        assert_pushdown_matches(&cc, &data, PFOR_OPS[op_i], &lo, Some(&hi).filter(|_| PFOR_OPS[op_i] == PushOp::Between), &sizes);
    }

    /// PDICT pushdown evaluates the predicate once over the dictionary;
    /// i64, f64, and string domains, any comparison operator.
    #[test]
    fn pdict_pushdown_matches_decode_then_select(
        picks in prop::collection::vec(0usize..12, 1..300),
        domain in prop::collection::vec(any::<i64>(), 12),
        op_i in 0usize..6,
        lit_i in 0usize..300,
        sizes in prop::collection::vec(1usize..90, 1..5),
    ) {
        let op = PDICT_OPS[op_i];
        let ints: Vec<i64> = picks.iter().map(|&p| domain[p]).collect();
        let data = ColumnData::I64(ints.clone());
        let cc = compress_column_as(&data, ChunkFormat::Pdict).expect("low-cardinality i64");
        // In-dictionary and (likely) out-of-dictionary constants.
        for lo in [Value::I64(ints[lit_i % ints.len()]), Value::I64(domain[0].wrapping_add(1))] {
            assert_pushdown_matches(&cc, &data, op, &lo, None, &sizes);
        }

        let floats: Vec<f64> = picks.iter().map(|&p| (domain[p] % 1000) as f64 + 0.5).collect();
        let data = ColumnData::F64(floats.clone());
        let cc = compress_column_as(&data, ChunkFormat::Pdict).expect("low-cardinality f64");
        let lo = Value::F64(floats[lit_i % floats.len()]);
        assert_pushdown_matches(&cc, &data, op, &lo, None, &sizes);

        let mut strs = x100_vector::StrVec::default();
        for &p in &picks {
            strs.push(&format!("tag-{}", domain[p] % 16));
        }
        let data = ColumnData::Str(strs);
        let cc = compress_column_as(&data, ChunkFormat::Pdict).expect("low-cardinality str");
        let lo = Value::Str(format!("tag-{}", domain[lit_i % 12] % 16));
        assert_pushdown_matches(&cc, &data, op, &lo, None, &sizes);
    }

    /// `gather` (the positional sync-point seek path) agrees with the
    /// raw column for arbitrary rowid sequences — ascending runs,
    /// restarts, and duplicates — across every codec the chooser picks.
    #[test]
    fn gather_matches_raw_for_any_rowids(
        values in prop::collection::vec(-5000i64..5000, 1..400),
        sort in any::<bool>(),
        rowids in prop::collection::vec(0usize..400, 1..200),
    ) {
        let mut values = values;
        if sort {
            values.sort_unstable();
        }
        let data = ColumnData::I64(values.clone());
        if let Some(cc) = choose_and_compress(&data) {
            let rowids: Vec<u32> = rowids.iter().map(|&r| (r % values.len()) as u32).collect();
            let mut out = Vector::with_capacity(data.scalar_type(), 0);
            let (mut scratch, mut tmp) = (Vec::new(), Vec::new());
            let mut cursor = DecodeCursor::default();
            cc.gather(&rowids, &mut out, &mut scratch, &mut tmp, &mut cursor).expect("gather");
            let got = out.as_i64();
            for (i, &r) in rowids.iter().enumerate() {
                prop_assert_eq!(got[i], values[r as usize], "rowid {} at {}", r, i);
            }
        }
    }

    /// Codec capability matrix is exact: PFOR refuses `!=`, PDICT
    /// refuses `Between`, PFOR-DELTA refuses all pushdowns, and a
    /// mistyped constant never compiles.
    #[test]
    fn pushdown_capability_matrix(values in prop::collection::vec(0i64..100, 10..200)) {
        let data = ColumnData::I64(values.clone());
        let pfor = compress_column_as(&data, ChunkFormat::Pfor).expect("pfor");
        prop_assert!(pfor.compile_pushdown(PushOp::Ne, &Value::I64(5), None).is_none());
        prop_assert!(pfor.compile_pushdown(PushOp::Lt, &Value::I32(5), None).is_none());
        prop_assert!(pfor.compile_pushdown(PushOp::Lt, &Value::I64(5), None).is_some());
        prop_assert!(pfor
            .compile_pushdown(PushOp::Between, &Value::I64(2), Some(&Value::I64(7)))
            .is_some());
        let pdict = compress_column_as(&data, ChunkFormat::Pdict).expect("pdict");
        prop_assert!(pdict
            .compile_pushdown(PushOp::Between, &Value::I64(2), Some(&Value::I64(7)))
            .is_none());
        prop_assert!(pdict.compile_pushdown(PushOp::Ne, &Value::I64(5), None).is_some());
        let mut sorted = values;
        sorted.sort_unstable();
        let delta = compress_column_as(&ColumnData::I64(sorted), ChunkFormat::PforDelta)
            .expect("pfordelta");
        for op in PFOR_OPS {
            prop_assert!(delta.compile_pushdown(op, &Value::I64(5), Some(&Value::I64(9))).is_none());
            prop_assert!(delta.compile_pushdown(op, &Value::I64(5), None).is_none());
        }
    }
}

// ---------------------------------------------------------------------------
// Structure-aware mutation suite over the one decoder (`x100_storage::
// frame`): for a valid image of every container — `XCPC` column streams
// per codec × type, `XDCF` column files, `XMAN` manifests — truncate at
// every prefix, overwrite every field-sized span with {0, 1, MAX}, flip
// random bytes, and re-seal so the mutation reaches the parser. Every
// outcome must be a typed `Err`, or an `Ok` whose every decode path then
// runs to completion: never a panic, abort or out-of-bounds access.
// (The spill-block twin lives beside `engine/src/spill.rs`'s round-trip
// test.)
// ---------------------------------------------------------------------------

use x100_storage::frame::{Writer, FRAME_OVERHEAD};
use x100_storage::{fold_checksum, DurableError, DurableOptions, EnumDict, Table};

/// Stride of the exhaustive offset sweeps: every byte natively, a
/// sample under the (slow) miri interpreter.
const SWEEP_STRIDE: usize = if cfg!(miri) { 97 } else { 1 };

/// Recompute a mutated frame's fold trailer — and, when `len` is set,
/// its declared length — so it gets past the seal to the field parser.
fn reseal(mut image: Vec<u8>, len: bool) -> Vec<u8> {
    if image.len() >= FRAME_OVERHEAD {
        if len {
            let body = (image.len() - FRAME_OVERHEAD) as u64;
            image[5..13].copy_from_slice(&body.to_le_bytes());
        }
        let end = image.len() - 1;
        image[end] = fold_checksum(&image[..end]);
    }
    image
}

/// Every structural mutant of `image`, each already re-sealed: all
/// prefixes, and {0, 1, MAX, MAX − 3} written 1, 4 and 8 bytes wide at
/// every offset — whatever the layout, each header, count and length
/// field is hit at its own offset and width.
fn for_each_mutant(image: &[u8], mut check: impl FnMut(Vec<u8>)) {
    for cut in (0..image.len()).step_by(SWEEP_STRIDE) {
        check(image[..cut].to_vec());
        check(reseal(image[..cut].to_vec(), true));
    }
    for at in (0..image.len()).step_by(SWEEP_STRIDE) {
        for width in [1usize, 4, 8] {
            let Some(field) = image.get(at..at + width) else {
                continue;
            };
            for v in [0u64, 1, u64::MAX, u64::MAX - 3] {
                let bytes = &v.to_le_bytes()[..width];
                if bytes != field {
                    let mut m = image.to_vec();
                    m[at..at + width].copy_from_slice(bytes);
                    check(reseal(m, false));
                }
            }
        }
    }
}

/// Run every decode path of a parsed column to completion. Results may
/// be errors (a chunk refusing its checksum) — the point is that they
/// return.
fn drive_column(cc: &CompressedColumn) {
    let rows = cc.rows();
    let mut out = Vector::with_capacity(cc.physical_type(), 0);
    let mut cursor = DecodeCursor::default();
    let (mut scratch, mut tmp, mut sel) = (Vec::new(), Vec::new(), Vec::new());
    let mut first = None;
    // Windows deliberately misaligned with chunk and sync boundaries.
    for at in (0..rows).step_by(1000) {
        let n = (rows - at).min(1000);
        if cc
            .decode_range(at, n, &mut out, &mut cursor, &mut scratch)
            .is_ok()
            && first.is_none()
        {
            first = Some(out.get_value(0));
        }
    }
    let rowids: Vec<u32> = [0, rows / 3, rows / 2, rows.saturating_sub(1), 0]
        .iter()
        .filter(|&&r| r < rows)
        .map(|&r| r as u32)
        .collect();
    let _ = cc.gather(&rowids, &mut out, &mut scratch, &mut tmp, &mut cursor);
    let pushed = first.and_then(|v| cc.compile_pushdown(PushOp::Ge, &v, None));
    if let Some(p) = pushed {
        let n = rows.min(1500);
        if cc.select_range(&p, 0, n, &mut sel, &mut cursor).is_ok() {
            let _ = cc.decode_positions(0, &sel, &mut out, &mut tmp, &mut cursor);
        }
    }
}

/// One valid `XCPC` image per codec × type the chooser can produce,
/// patch lists and sync blocks populated, plus two multi-chunk images
/// small enough to sweep (lane-0 payloads).
fn column_images() -> &'static [(String, CompressedColumn)] {
    static IMAGES: std::sync::OnceLock<Vec<(String, CompressedColumn)>> =
        std::sync::OnceLock::new();
    IMAGES.get_or_init(build_column_images)
}

fn build_column_images() -> Vec<(String, CompressedColumn)> {
    let mut out = Vec::new();
    let mut add = |name: &str, data: ColumnData, format: ChunkFormat| {
        let cc = compress_column_as(&data, format).expect("format applies");
        out.push((format!("{name}/{}", format.name()), cc));
    };
    macro_rules! ints {
        ($($t:ty => $v:ident),*) => {$(
            // A tight cluster plus two outliers: dense lanes and a
            // non-empty exception list.
            let mut v: Vec<$t> = (0..150).map(|i| (i % 23) as $t).collect();
            v[7] = <$t>::MAX;
            v[90] = <$t>::MIN;
            add(stringify!($t), ColumnData::$v(v), ChunkFormat::Pfor);
            // Two sync intervals, one delta exception.
            let v: Vec<$t> = (0..1100u32).map(|i| (i / 10 + (i / 1000) * 20) as $t).collect();
            add(stringify!($t), ColumnData::$v(v), ChunkFormat::PforDelta);
        )*};
    }
    ints!(i8 => I8, i16 => I16, i32 => I32, i64 => I64, u8 => U8, u16 => U16, u32 => U32, u64 => U64);
    let cents: Vec<f64> = (0..150).map(|i| (i % 40) as f64 / 100.0).collect();
    let mut odd = cents.clone();
    odd[11] = std::f64::consts::PI;
    add("f64", ColumnData::F64(odd), ChunkFormat::Pfor);
    add("f64", ColumnData::F64(cents), ChunkFormat::Pdict);
    let i32s = (0..150).map(|i| (i % 9) * 1000).collect();
    add("i32", ColumnData::I32(i32s), ChunkFormat::Pdict);
    let i64s = (0..150).map(|i| (i % 9) * 1_000_000_007).collect();
    add("i64", ColumnData::I64(i64s), ChunkFormat::Pdict);
    let strs = (0..150)
        .map(|i| ["AIR", "MAIL", "RAIL", "SHIP"][i % 4])
        .collect();
    add("str", ColumnData::Str(strs), ChunkFormat::Pdict);
    let rows = x100_storage::CHUNK_ROWS + 5;
    add(
        "i64×2chunks",
        ColumnData::I64(vec![42; rows]),
        ChunkFormat::Pfor,
    );
    let stride = (0..rows as i64).map(|i| i * 3).collect();
    add(
        "i64×2chunks",
        ColumnData::I64(stride),
        ChunkFormat::PforDelta,
    );
    out
}

#[test]
fn column_stream_mutants_never_panic() {
    for (name, cc) in column_images() {
        let image = cc.to_bytes();
        // The untouched image round-trips, byte for byte.
        let back = CompressedColumn::from_bytes(&image).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(back.to_bytes(), image, "{name}");
        assert_eq!(back.compressed_bytes(), cc.compressed_bytes(), "{name}");
        drive_column(&back);
        // The seal alone refuses every single-byte flip.
        for at in (0..image.len()).step_by(SWEEP_STRIDE) {
            let mut m = image.clone();
            m[at] ^= 0x10;
            assert!(
                CompressedColumn::from_bytes(&m).is_err(),
                "{name} flip at {at}"
            );
        }
        for_each_mutant(&image, |m| {
            if let Ok(col) = CompressedColumn::from_bytes(&m) {
                drive_column(&col);
            }
        });
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: if cfg!(miri) { 4 } else { 256 },
        ..ProptestConfig::default()
    })]

    /// Random single-byte damage anywhere in a re-sealed image: parse
    /// errors, chunk-checksum errors or clean decodes — all return.
    #[test]
    fn column_stream_random_flips_never_panic(
        which in 0usize..64,
        at in any::<usize>(),
        mask in 1u16..256,
    ) {
        let images = column_images();
        let mut m = images[which % images.len()].1.to_bytes();
        let at = at % m.len();
        m[at] ^= mask as u8;
        if let Ok(col) = CompressedColumn::from_bytes(&reseal(m, false)) {
            drive_column(&col);
        }
    }
}

/// A small durably checkpointed table with one column of each stored
/// shape: PFOR-DELTA keys, PFOR decimals, an enum-coded string column.
fn durable_fixture(tag: &str, replicas: u32) -> (std::path::PathBuf, Vec<Vec<Value>>) {
    let dir = std::env::temp_dir().join(format!("x100-mutate-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let enc = x100_storage::encode_str((0..64).map(|i| format!("F{}", i % 5))).expect("enum");
    let mut t = TableBuilder::new("m")
        .column("id", ColumnData::I64((0..64).collect()))
        .column(
            "val",
            ColumnData::F64((0..64).map(|i| (i % 7) as f64 * 0.25).collect()),
        )
        .enum_column("flag", enc.codes, EnumDict::new(enc.dict.values().clone()))
        .build();
    t.checkpoint_durable(&dir, &DurableOptions::default().with_replicas(replicas))
        .expect("durable checkpoint");
    let rows = (0..64).map(|r| t.get_row(r)).collect();
    (dir, rows)
}

/// The `XMAN` layout, rebuilt with the public writer: the test both
/// pins the documented layout and can point a manifest at a mutated
/// column file (size and trailer are cross-checked at open).
fn manifest_image(replicas: u32, files: &[(&str, &[u8])]) -> Vec<u8> {
    let mut w = Writer::new(Vec::new(), b"XMAN", 2);
    w.put(1u64); // checkpoint version
    w.put(replicas);
    w.put_str("m");
    w.put(64u64); // fragment rows
    w.put(files.len() as u32);
    for (name, bytes) in files {
        w.put_str(name);
        w.put(bytes.len() as u64);
        w.put(bytes.last().copied().unwrap_or(0));
    }
    w.seal()
}

/// `Table::open` must return — a typed error, or a table every row of
/// which reads back and every compressed column of which decodes.
fn open_and_drive(dir: &std::path::Path) -> Result<Table, DurableError> {
    let t = Table::open(dir)?;
    for r in 0..t.fragment_rows() {
        let _ = t.get_row(r as u32);
    }
    for c in 0..t.num_columns() {
        if let Some(cc) = t.column(c).compressed() {
            drive_column(cc);
        }
    }
    Ok(t)
}

#[test]
fn durable_file_mutants_open_typed_or_readable() {
    let (dir, want) = durable_fixture("files", 1);
    let names = ["id", "val", "flag"];
    let paths: Vec<_> = (0..3)
        .map(|c| dir.join(format!("col{c:03}-v0000000001-r0.chunks")))
        .collect();
    let files: Vec<Vec<u8>> = paths
        .iter()
        .map(|p| std::fs::read(p).expect("file"))
        .collect();
    let manifest = dir.join("manifest-0000000001.xman");
    let entries = |files: &[Vec<u8>]| -> Vec<u8> {
        let e: Vec<_> = names
            .iter()
            .copied()
            .zip(files.iter().map(Vec::as_slice))
            .collect();
        manifest_image(1, &e)
    };
    assert_eq!(std::fs::read(&manifest).expect("manifest"), entries(&files));
    for c in 0..3 {
        for_each_mutant(&files[c], |m| {
            // Point the manifest at the mutant so the size and trailer
            // cross-checks pass and the damage reaches the file parser.
            let mut mutated = files.clone();
            mutated[c] = m;
            std::fs::write(&paths[c], &mutated[c]).expect("write mutant");
            std::fs::write(&manifest, entries(&mutated)).expect("write manifest");
            if let Ok(t) = open_and_drive(&dir) {
                assert_eq!(t.fragment_rows(), 64);
            }
        });
        std::fs::write(&paths[c], &files[c]).expect("restore");
    }
    // Manifest mutants over intact files.
    for_each_mutant(&entries(&files), |m| {
        std::fs::write(&manifest, m).expect("write manifest");
        let _ = open_and_drive(&dir);
    });
    std::fs::write(&manifest, entries(&files)).expect("restore manifest");
    let t = open_and_drive(&dir).expect("restored directory opens");
    assert_eq!((0..64).map(|r| t.get_row(r)).collect::<Vec<_>>(), want);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The probes of ISSUE 14: a wrapped section length whose tear keeps
/// the fold intact used to panic `Table::open`; with a second replica it
/// must now fall over and heal, without one it is a typed `Io`.
#[test]
fn wrapped_length_in_column_file_is_typed_and_heals_from_replica() {
    for replicas in [1u32, 2] {
        let (dir, want) = durable_fixture(&format!("wrap{replicas}"), replicas);
        let path = dir.join("col000-v0000000001-r0.chunks");
        let mut bytes = std::fs::read(&path).expect("replica 0");
        // The raw fragment's section length: head (13), col u32, rows
        // u64, logical tag, two flags.
        let at = 13 + 4 + 8 + 3;
        bytes[at..at + 8].copy_from_slice(&(u64::MAX - 3).to_le_bytes());
        // Re-tear a don't-care byte until the file's fold matches the
        // manifest again: only the parser can catch the damage now.
        let want_sum = *bytes.last().expect("trailer");
        let end = bytes.len() - 1;
        let fixed = (0..=255u8).any(|b| {
            bytes[end - 1] = b;
            fold_checksum(&bytes[..end]) == want_sum
        });
        assert!(fixed, "some byte value restores the 8-bit fold");
        std::fs::write(&path, &bytes).expect("write torn replica");
        match (replicas, open_and_drive(&dir)) {
            (1, Err(DurableError::Io { detail, .. })) => {
                assert!(detail.contains("all 1 replicas failed"), "{detail}")
            }
            (2, Ok(t)) => {
                assert_eq!((0..64).map(|r| t.get_row(r)).collect::<Vec<_>>(), want);
                assert_eq!(t.durable_source().expect("durable").heals(), 1);
            }
            (_, other) => panic!(
                "{replicas} replicas: unexpected {:?}",
                other.map(|t| t.name().to_owned())
            ),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
