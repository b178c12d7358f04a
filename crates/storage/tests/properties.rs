//! Property-based tests for the storage layer.
//!
//! Key invariants:
//! * a table behaves like a simple row-store model under any sequence of
//!   inserts / deletes / updates / reorganizes / checkpoints, including
//!   the checkpoint that turns a plain column into an enum column, and
//!   across a durable checkpoint and reopen; an insert delta holds an
//!   enum column's codes — values new to its dictionary, a `U8` column
//!   pushed past 256 entries, NaN / `-0.0` into an enum `f64` column —
//!   and a scan of fragment ++ delta reads the model's rows, within the
//!   column statistics;
//! * enum encoding roundtrips and is order-preserving;
//! * summary indices are always conservative.

use proptest::prelude::*;
use x100_storage::{
    choose_and_compress, compress_column_as, dictionary_wins, encode_i64, ChunkFormat, ColumnStats,
    CompressedColumn, DurableOptions, EnumDict, SummaryIndex, Table, TableBuilder,
};
use x100_vector::fetch::gather_at;
use x100_vector::{Value, Vector};

/// One row of the seven-column model table: plain `i64`, enum string,
/// enum `f64`, `i32` with a summary index, enum `i64`, and a plain
/// low-cardinality string and `f64` that a checkpoint enumerates.
type Row = (i64, String, f64, i32, i64, String, f64);

const MODES: [&str; 7] = ["", "AIR", "FOB", "MAIL", "RAIL", "SHIP", "TRUCK"];

/// The plain string column's common values.
const LOW: [&str; 4] = ["east", "north", "south", "west"];

/// Rows of one bulk insert: with the modes, more distinct strings than
/// one-byte codes hold, so a reorganize widens the codes to `U16`.
const BULK: std::ops::Range<usize> = 260..300;

/// Low-cardinality rows inserted before the checkpoint that must
/// enumerate the plain string and `f64` columns: enough that a
/// dictionary beats every chunk format on them.
const ENUM_ROWS: usize = 512;

fn row_strategy() -> impl Strategy<Value = Row> {
    (
        (any::<i64>(), 0usize..MODES.len(), 0u16..480, any::<i32>()),
        (-4i64..6, 0u16..40, 0u16..240),
    )
        .prop_map(|((v, s, f, d), (e, p, g))| {
            let (s, f, e) = (MODES[s].to_owned(), model_f64(f), e * 1000);
            (v, s, f, d, e, low_str(p), low_f64(g))
        })
}

/// Cents in `[-0.03, 0.08]`, and rarely a value no enum code may hold:
/// NaN (unordered) or `-0.0` (one code, two bit patterns).
fn model_f64(f: u16) -> f64 {
    match f {
        0 => f64::NAN,
        1 => -0.0,
        _ => ((f % 12) as f64 - 3.0) / 100.0,
    }
}

/// Mostly one of [`LOW`], one time in ten a value of its own.
fn low_str(p: u16) -> String {
    match p % 10 {
        9 => format!("p{p}"),
        _ => LOW[p as usize % LOW.len()].to_owned(),
    }
}

/// One of six square roots — no decimal scale makes them exact, so PFOR
/// patches every one and only a dictionary compresses them — and rarely
/// a NaN, which keeps the column plain.
fn low_f64(g: u16) -> f64 {
    match g {
        0 => f64::NAN,
        _ => ((g % 6) as f64 + 2.0).sqrt(),
    }
}

/// A row whose `f64` forces the enum `f64` column plain. The model keeps
/// such rows live: a reorganize never turns that column back into an
/// enum, so a fresh build matches only while they are there.
fn pinned(r: &Row) -> bool {
    r.2.is_nan() || r.2.to_bits() == (-0.0f64).to_bits()
}

/// The `k`-th row of a bulk insert: a string of its own.
fn bulk_row(k: usize) -> Row {
    let k64 = k as i64;
    (
        k64,
        format!("b{k:03}"),
        model_f64(2 + k as u16),
        -(k as i32),
        (k64 % 10 - 4) * 1000,
        LOW[k % LOW.len()].to_owned(),
        low_f64(1 + k as u16),
    )
}

fn row_values(r: &Row) -> Vec<Value> {
    vec![
        Value::I64(r.0),
        Value::Str(r.1.clone()),
        Value::F64(r.2),
        Value::I32(r.3),
        Value::I64(r.4),
        Value::Str(r.5.clone()),
        Value::F64(r.6),
    ]
}

/// Row values with floats as bit patterns: NaN equals itself and `-0.0`
/// differs from `0.0`.
fn row_bits(row: &[Value]) -> Vec<Value> {
    row.iter()
        .map(|v| match v {
            Value::F64(x) => Value::U64(x.to_bits()),
            v => v.clone(),
        })
        .collect()
}

/// Every live row of `table` (row ids `rowids`) reads as the model's.
fn assert_rows(table: &Table, model: &[Row], rowids: &[u32]) {
    for (r, &id) in model.iter().zip(rowids) {
        prop_assert_eq!(row_bits(&table.get_row(id)), row_bits(&row_values(r)));
    }
}

/// A scan of every column — its fragment then its insert delta, read as
/// stored and decoded through the dictionary as the engine's scan does —
/// reads the model's rows at their row ids, and the column statistics
/// are those of what it read as stored (codes for an enum column).
fn assert_scan(table: &Table, model: &[Row], rowids: &[u32]) {
    for i in 0..table.num_columns() {
        let sc = table.column(i);
        let mut stored = sc.physical().clone();
        let mut delta = Vector::with_capacity(stored.scalar_type(), 0);
        table.read_delta(i, 0, table.delta_rows(), &mut delta);
        prop_assert_eq!(delta.scalar_type(), stored.scalar_type());
        stored.append_range(&delta, 0, delta.len());
        prop_assert_eq!(table.column_stats(i), ColumnStats::compute(&stored));
        let values = match sc.dict() {
            None => stored,
            Some(d) => {
                let mut values = Vector::with_capacity(d.value_type(), stored.len());
                prop_assert!(gather_at(&mut values, d.values(), &stored, None));
                values
            }
        };
        for (r, &id) in model.iter().zip(rowids) {
            let want = &row_bits(&row_values(r))[i];
            prop_assert_eq!(&row_bits(&[values.get_value(id as usize)])[0], want);
        }
    }
}

/// The model's rows built fresh — what a reorganize must reproduce. The
/// columns a table may hold either way (`v`, `p`, `g`: plain until a
/// checkpoint enumerates them) are enum columns where `like` has one.
fn build_table(rows: &[Row], like: &Table) -> Table {
    let enumerated = |i: usize| like.column(i).dict().is_some();
    let b = TableBuilder::new("t");
    let v: Vec<i64> = rows.iter().map(|r| r.0).collect();
    let b = match enumerated(0) {
        true => b.auto_enum_i64("v", v),
        false => b.column("v", Vector::I64(v)),
    };
    let b = b
        .auto_enum_str("s", rows.iter().map(|r| r.1.clone()).collect())
        .auto_enum_f64("f", rows.iter().map(|r| r.2).collect())
        .column("d", Vector::I32(rows.iter().map(|r| r.3).collect()))
        .with_summary()
        .auto_enum_i64("e", rows.iter().map(|r| r.4).collect());
    let p: Vec<String> = rows.iter().map(|r| r.5.clone()).collect();
    let b = match enumerated(5) {
        true => b.auto_enum_str("p", p),
        false => b.column("p", Vector::Str(p.iter().map(String::as_str).collect())),
    };
    let g: Vec<f64> = rows.iter().map(|r| r.6).collect();
    match enumerated(6) {
        true => b.auto_enum_f64("g", g),
        false => b.column("g", Vector::F64(g)),
    }
    .build()
}

/// The starting table: as [`build_table`] with every column that may be
/// plain plain, except that the `i64` enum column is built by hand over
/// a dictionary that is unsorted (values descending) and holds entries
/// no row uses. The first reorganize must still give exactly the fresh
/// build.
fn build_initial(rows: &[Row]) -> Table {
    let mut values: Vec<i64> = rows.iter().map(|r| r.4).collect();
    values.sort_unstable_by(|a, b| b.cmp(a));
    values.dedup();
    let dict: Vec<i64> = std::iter::once(777)
        .chain(values)
        .chain(std::iter::once(-123))
        .collect();
    let codes = rows
        .iter()
        .map(|r| dict.iter().position(|&x| x == r.4).expect("in dict") as u8)
        .collect();
    TableBuilder::new("t")
        .column("v", Vector::I64(rows.iter().map(|r| r.0).collect()))
        .auto_enum_str("s", rows.iter().map(|r| r.1.clone()).collect())
        .auto_enum_f64("f", rows.iter().map(|r| r.2).collect())
        .column("d", Vector::I32(rows.iter().map(|r| r.3).collect()))
        .with_summary()
        .enum_column("e", Vector::U8(codes), EnumDict::new(Vector::I64(dict)))
        .column(
            "p",
            Vector::Str(rows.iter().map(|r| r.5.as_str()).collect()),
        )
        .column("g", Vector::F64(rows.iter().map(|r| r.6).collect()))
        .build()
}

#[derive(Debug, Clone)]
enum Op {
    Insert(Row),
    Delete(usize),
    Update(usize, Row),
    /// Insert [`BULK`]`.start + n` rows of distinct strings.
    Bulk(usize),
    /// Delete every row holding `MODES[i]`, so its entry falls out of
    /// the dictionary.
    DeleteValue(usize),
    /// Delete every bulk row, so the string codes narrow back to `U8`.
    DeleteBulk,
    /// Insert a row whose `f64`s no enum code may hold: NaN, or `-0.0`.
    Odd(bool),
    Reorganize,
    Checkpoint,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        row_strategy().prop_map(Op::Insert),
        (0usize..64).prop_map(Op::Delete),
        (0usize..64, row_strategy()).prop_map(|(i, r)| Op::Update(i, r)),
        (0usize..BULK.len()).prop_map(Op::Bulk),
        (0usize..MODES.len()).prop_map(Op::DeleteValue),
        Just(Op::DeleteBulk),
        any::<bool>().prop_map(Op::Odd),
        Just(Op::Reorganize),
        Just(Op::Checkpoint),
    ]
}

/// The model: live rows in `#rowId` order and their row ids, kept in
/// step with the table every operation runs on.
struct Model {
    rows: Vec<Row>,
    rowids: Vec<u32>,
}

impl Model {
    fn insert(&mut self, table: &mut Table, r: Row) {
        self.rowids.push(table.insert(&row_values(&r)));
        self.rows.push(r);
    }

    /// Delete every live row `gone` picks (pinned rows stay).
    fn delete_where(&mut self, table: &mut Table, gone: impl Fn(&Row) -> bool) {
        let mut kept = (Vec::new(), Vec::new());
        for (r, id) in self.rows.drain(..).zip(self.rowids.drain(..)) {
            if gone(&r) && !pinned(&r) {
                prop_assert!(table.delete(id));
            } else {
                kept.0.push(r);
                kept.1.push(id);
            }
        }
        (self.rows, self.rowids) = kept;
    }

    /// A reorganize re-densifies the row ids.
    fn reorganized(&mut self, table: &Table) {
        self.rowids = (0..self.rows.len() as u32).collect();
        assert_same_as_fresh(table, &self.rows);
    }

    fn apply(&mut self, table: &mut Table, op: Op) {
        match op {
            Op::Insert(r) => self.insert(table, r),
            Op::Delete(pos) => {
                if !self.rows.is_empty() && !pinned(&self.rows[pos % self.rows.len()]) {
                    let pos = pos % self.rows.len();
                    prop_assert!(table.delete(self.rowids[pos]));
                    self.rows.remove(pos);
                    self.rowids.remove(pos);
                }
            }
            Op::Update(pos, r) => {
                if !self.rows.is_empty() && !pinned(&self.rows[pos % self.rows.len()]) {
                    let pos = pos % self.rows.len();
                    let new_id = table
                        .update(self.rowids[pos], &row_values(&r))
                        .expect("live row");
                    self.rows.remove(pos);
                    self.rowids.remove(pos);
                    self.rows.push(r);
                    self.rowids.push(new_id);
                }
            }
            Op::Bulk(n) => {
                for r in (0..BULK.start + n).map(bulk_row) {
                    self.insert(table, r);
                }
            }
            Op::Odd(nan) => {
                let mut r = bulk_row(BULK.end);
                let odd = if nan { f64::NAN } else { -0.0 };
                (r.2, r.6) = (odd, odd);
                self.insert(table, r);
            }
            Op::DeleteValue(i) => self.delete_where(table, |r| r.1 == MODES[i]),
            Op::DeleteBulk => self.delete_where(table, |r| r.1.starts_with('b')),
            Op::Reorganize => {
                table.reorganize();
                self.reorganized(table);
            }
            Op::Checkpoint => {
                let before: Vec<bool> = (0..7).map(|i| table.column(i).dict().is_some()).collect();
                table.checkpoint();
                // Enumeration changes the storage, never a row; an enum
                // column stays one.
                for (i, was) in before.into_iter().enumerate() {
                    prop_assert!(!was || table.column(i).dict().is_some(), "column {i}");
                }
                assert_rows(table, &self.rows, &self.rowids);
            }
        }
        prop_assert_eq!(table.live_rows(), self.rows.len());
        assert_scan(table, &self.rows, &self.rowids);
        assert_rows(table, &self.rows, &self.rowids);
    }
}

/// Whether the `f64` fragment holds a value no enum code may hold.
fn has_unencodable(v: &Vector) -> bool {
    v.as_f64()
        .iter()
        .any(|x| x.is_nan() || x.to_bits() == (-0.0f64).to_bits())
}

/// A reorganized table equals a fresh build of its live rows column by
/// column: physical codes, dictionary, stats, summary index and the
/// columns `checkpoint()` enumerates.
fn assert_same_as_fresh(table: &Table, rows: &[Row]) {
    let fresh = build_table(rows, table);
    for i in 0..fresh.num_columns() {
        let (got, want) = (table.column(i), fresh.column(i));
        let name = &want.field().name;
        prop_assert!(bits_eq(got.physical(), want.physical()), "{name}: fragment");
        match (got.dict(), want.dict()) {
            (Some(g), Some(w)) => prop_assert!(bits_eq(g.values(), w.values()), "{name}: dict"),
            (g, w) => prop_assert_eq!(g.is_some(), w.is_some(), "{}: enum-ness", name),
        }
        prop_assert_eq!(got.stats(), want.stats(), "{}: stats", name);
        prop_assert_eq!(got.summary(), want.summary(), "{}: summary", name);
    }
    prop_assert_eq!(table.clone().checkpoint(), fresh.clone().checkpoint());
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

/// The whole-column decode `open` runs reproduces `data` bit for bit.
fn assert_decode_matches(cc: &CompressedColumn, data: &Vector) {
    prop_assert_eq!(cc.rows(), data.len());
    let got = cc.decode().expect("checksums verify");
    prop_assert!(bits_eq(&got, data), "decode mismatch");
}

/// A vector's bytes as the byte layer writes them: `f64` values as
/// their bit patterns, so NaN payloads and `-0.0` compare exactly.
fn image(v: &Vector) -> Vec<u8> {
    let mut w = x100_storage::frame::Writer::new(Vec::new(), b"IMAG", 1);
    w.put_column(v);
    w.seal()
}

/// A fresh directory for one durable checkpoint of the row model.
fn model_dir() -> std::path::PathBuf {
    static CASE: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
    let case = CASE.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
    let dir = std::env::temp_dir().join(format!("x100-model-{}-{case}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

proptest! {
    /// The row model through four phases: random operations; enough
    /// low-cardinality rows, a reorganize and the checkpoint that
    /// enumerates the plain string column and — unless a NaN sits in
    /// its fragment — the plain `f64` column; values those dictionaries
    /// lack, deletes and more random operations; then a reorganize, a
    /// durable checkpoint and `open`.
    #[test]
    fn table_matches_row_model(init in prop::collection::vec(row_strategy(), 0..40),
                               before in prop::collection::vec(op_strategy(), 0..24),
                               after in prop::collection::vec(op_strategy(), 0..16)) {
        let mut table = build_initial(&init);
        let mut model = Model { rows: init.clone(), rowids: (0..init.len() as u32).collect() };
        for op in before {
            model.apply(&mut table, op);
        }

        for k in 0..ENUM_ROWS {
            let mut r = bulk_row(k);
            r.1 = MODES[k % MODES.len()].to_owned();
            model.insert(&mut table, r);
        }
        model.apply(&mut table, Op::Reorganize);
        model.apply(&mut table, Op::Checkpoint);
        prop_assert!(table.column(5).dict().is_some(), "low-cardinality strings enumerate");
        let g = table.column(6);
        match g.dict() {
            Some(d) => prop_assert!(!has_unencodable(d.values())),
            None => prop_assert!(has_unencodable(g.physical()), "g stays plain only for a NaN"),
        }

        // Values neither dictionary holds, then deletes.
        for k in 0..3u16 {
            let mut r = bulk_row(k as usize);
            (r.5, r.6) = (format!("late{k}"), (1000.0 + k as f64).sqrt());
            model.insert(&mut table, r);
        }
        assert_scan(&table, &model.rows, &model.rowids);
        model.delete_where(&mut table, |r| r.5 == LOW[1]);
        for op in after {
            model.apply(&mut table, op);
        }
        model.apply(&mut table, Op::Reorganize);
        prop_assert!(table.column(5).dict().is_some(), "a string merge never refuses");

        let dir = model_dir();
        table
            .checkpoint_durable(&dir, &DurableOptions::default().with_replicas(1))
            .expect("durable checkpoint");
        let opened = Table::open(&dir).expect("reopen");
        let _ = std::fs::remove_dir_all(&dir);
        for i in 0..table.num_columns() {
            // Bit for bit: a fragment `open` rebuilt by decoding chunks
            // keeps every NaN payload and `-0.0`.
            let (got, want) = (opened.column(i), table.column(i));
            prop_assert_eq!(image(got.physical()), image(want.physical()), "column {}", i);
            prop_assert_eq!(
                got.dict().map(|d| image(d.values())),
                want.dict().map(|d| image(d.values()))
            );
        }
        assert_rows(&opened, &model.rows, &model.rowids);
        assert_same_as_fresh(&opened, &model.rows);

        // Final check: every live row matches the model.
        assert_rows(&table, &model.rows, &model.rowids);
    }

    #[test]
    fn enum_roundtrip_and_order(values in prop::collection::vec(-50i64..50, 1..300)) {
        let enc = encode_i64(&values).expect("small domain");
        let dict = enc.dict.values().as_i64();
        let decode = |i: usize| -> i64 {
            match &enc.codes {
                Vector::U8(c) => dict[c[i] as usize],
                Vector::U16(c) => dict[c[i] as usize],
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

/// PFOR round-trips for every integer column type: arbitrary values.
/// `compress_column_as` must accept (PFOR has a raw-exception escape
/// hatch for any distribution).
macro_rules! pfor_int_roundtrip {
    ($($test:ident : $ty:ty => $variant:ident);* $(;)?) => {
        proptest! {
            $(
                #[test]
                fn $test(values in prop::collection::vec(any::<$ty>(), 1..300)) {
                    let data = Vector::$variant(values);
                    let cc = compress_column_as(&data, ChunkFormat::Pfor)
                        .expect("pfor accepts any integer column");
                    assert_decode_matches(&cc, &data);
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
                                  scale_idx in 0usize..5) {
        let scale = [1i64, 10, 100, 1000, 10000][scale_idx];
        let values: Vec<f64> = cents.iter().map(|&c| c as f64 / scale as f64).collect();
        let data = Vector::F64(values);
        let cc = compress_column_as(&data, ChunkFormat::Pfor).expect("pfor accepts any f64 column");
        assert_decode_matches(&cc, &data);
    }

    /// PFOR over arbitrary finite doubles: almost none are representable
    /// as scaled integers, so this exercises all-exception blocks — the
    /// payload is noise and every value rides the patch list.
    #[test]
    fn pfor_roundtrip_f64_all_exceptions(bits in prop::collection::vec(any::<u64>(), 1..200)) {
        let values: Vec<f64> = bits
            .iter()
            .map(|&b| {
                let v = f64::from_bits(b);
                if v.is_finite() { v } else { f64::from_bits(b & !(0x7ff << 52)) }
            })
            .collect();
        let data = Vector::F64(values);
        let cc = compress_column_as(&data, ChunkFormat::Pfor).expect("pfor accepts any f64 column");
        assert_decode_matches(&cc, &data);
    }

    /// PFOR-DELTA round-trips over every integer type (sorted input is a
    /// precondition of the format; the chooser enforces it upstream).
    #[test]
    fn pfordelta_roundtrip_ints(deltas in prop::collection::vec(0u32..1000, 1..300),
                                start in -1_000_000i64..1_000_000) {
        let mut acc = start;
        let sorted: Vec<i64> = deltas.iter().map(|&d| { acc += d as i64; acc }).collect();
        let data = Vector::I64(sorted.clone());
        let cc = compress_column_as(&data, ChunkFormat::PforDelta)
            .expect("pfordelta accepts sorted input");
        assert_decode_matches(&cc, &data);
        // Narrower physical types, same logical content.
        let data32 = Vector::I32(sorted.iter().map(|&v| (v % (1 << 20)) as i32).collect());
        if let Some(cc) = compress_column_as(&data32, ChunkFormat::PforDelta) {
            assert_decode_matches(&cc, &data32);
        }
    }

    /// PFOR-DELTA over sorted keys with jumps, across chunk boundaries:
    /// the jumps ride the exception list, each chunk replays from its
    /// one carry, and the whole column decodes to its input.
    #[test]
    fn pfordelta_roundtrip_sorted_with_jumps(deltas in prop::collection::vec(0u32..50, 50..4000),
                                             jumps in prop::collection::vec((0usize..4000, any::<u32>()), 0..8),
                                             repeat in 1usize..40) {
        let mut d: Vec<u64> = deltas.iter().map(|&x| u64::from(x)).collect();
        for (at, by) in jumps {
            let at = at % d.len();
            d[at] += u64::from(by) << 8;
        }
        // Up to ~160 K rows: columns span one to three chunks.
        let mut acc = -(1i64 << 40);
        let sorted: Vec<i64> = (0..repeat)
            .flat_map(|_| d.iter())
            .map(|&x| { acc += x as i64; acc })
            .collect();
        let data = Vector::I64(sorted);
        let cc = compress_column_as(&data, ChunkFormat::PforDelta)
            .expect("pfordelta accepts sorted input");
        assert_decode_matches(&cc, &data);
    }

    /// The chooser must never pick a format that fails to round-trip,
    /// whatever the distribution thrown at it.
    #[test]
    fn chooser_roundtrip_any_distribution(values in prop::collection::vec(-5000i64..5000, 1..300),
                                          sort in any::<bool>()) {
        let mut values = values;
        if sort {
            values.sort_unstable();
        }
        let data = Vector::I64(values);
        if let Some(cc) = choose_and_compress(&data, &ColumnStats::compute(&data)) {
            assert_decode_matches(&cc, &data);
        }
    }
}

// ---------------------------------------------------------------------------
// Chooser agreement: `choose_and_compress` bounds each format before it
// encodes it, and must return exactly what encoding every format would.
// ---------------------------------------------------------------------------

/// What the checkpoint stores a column as: dictionary codes, a chunk
/// format, or the raw fragment.
#[derive(Debug, PartialEq)]
enum Verdict {
    Dictionary,
    Chunks(ChunkFormat, Vec<u8>),
    Raw,
}

/// The full sweep the chooser must agree with: every applicable chunk
/// format encoded and the dictionary candidate priced — a header per
/// chunk, a code per row (two bytes past 256 values), the dictionary —
/// the smallest kept (a chunk format on a tie), and raw unless it saves
/// at least 10% of the raw bytes.
fn full_sweep(data: &Vector) -> Verdict {
    let chunks = chunk_sweep(data);
    let raw = data.byte_size() as u64;
    let best = chunks
        .as_ref()
        .map_or(raw, CompressedColumn::compressed_bytes);
    match (dictionary_bytes(data), chunks) {
        (Some(d), _) if d * 10 <= raw * 9 && d < best => Verdict::Dictionary,
        (_, Some(c)) => Verdict::Chunks(c.format(), c.to_bytes()),
        (_, None) => Verdict::Raw,
    }
}

/// The dictionary candidate's size, from the distinct values counted
/// one by one: `None` for a type it does not cover or past the cap
/// (4096 numeric values, 65536 strings).
fn dictionary_bytes(data: &Vector) -> Option<u64> {
    use std::collections::BTreeSet;
    let (distinct, dict_bytes, cap) = match data {
        Vector::I64(v) => {
            let d: BTreeSet<i64> = v.iter().copied().collect();
            (d.len(), d.len() * 8, 4096)
        }
        Vector::F64(v) => {
            let d: BTreeSet<u64> = v.iter().map(|x| x.to_bits()).collect();
            (d.len(), d.len() * 8, 4096)
        }
        Vector::Str(v) => {
            let d: BTreeSet<&str> = v.iter().collect();
            let dict: Vector = Vector::Str(d.iter().copied().collect());
            (d.len(), dict.byte_size(), 65536)
        }
        _ => return None,
    };
    let chunks = data.len().div_ceil(x100_storage::CHUNK_ROWS);
    let code = if distinct <= 256 { 1 } else { 2 };
    (distinct <= cap)
        .then(|| (chunks * x100_storage::HEADER_BYTES + data.len() * code + dict_bytes) as u64)
}

/// The chunk formats alone: every applicable one encoded, the smallest
/// kept (the first on a tie), and `None` unless it saves at least 10%
/// of the raw bytes.
fn chunk_sweep(data: &Vector) -> Option<CompressedColumn> {
    macro_rules! non_decreasing {
        ($($variant:ident),*) => {
            match data {
                $(Vector::$variant(v) => v.windows(2).all(|w| w[0] <= w[1]),)*
                _ => false,
            }
        };
    }
    let sorted = non_decreasing!(I8, I16, I32, I64, U8, U16, U32, U64);
    [ChunkFormat::Pfor, ChunkFormat::PforDelta]
        .into_iter()
        .filter(|&f| f != ChunkFormat::PforDelta || sorted)
        .filter_map(|f| compress_column_as(data, f))
        .min_by_key(|c| c.compressed_bytes())
        .filter(|c| c.compressed_bytes() * 10 <= c.raw_bytes() * 9)
}

/// A column of stored type `ty` (an index into the ten stored types)
/// with `rows` rows drawn from `seed`. `shape` picks up to `card`
/// distinct values, a non-decreasing run, one value in twenty off a
/// dominant one, or any values; values have `64 - shift` random bits.
fn chooser_column(ty: usize, rows: usize, shape: u8, card: usize, shift: u32, seed: u64) -> Vector {
    let mut x = seed | 1;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let pool: Vec<u64> = (0..card).map(|_| next() >> shift).collect();
    let mut acc = next();
    let raw: Vec<u64> = (0..rows)
        .map(|_| match shape {
            0 => pool[(next() % pool.len() as u64) as usize],
            1 => {
                acc = acc.wrapping_add(next() % 4);
                acc
            }
            2 if next() % 20 != 0 => pool[0],
            _ => next() >> shift,
        })
        .collect();
    let cents = |r: u64| (r % 2_000_000) as f64 / 100.0;
    match ty {
        0 => Vector::I8(raw.iter().map(|&r| r as i8).collect()),
        1 => Vector::I16(raw.iter().map(|&r| r as i16).collect()),
        2 => Vector::I32(raw.iter().map(|&r| r as i32).collect()),
        3 => Vector::I64(raw.iter().map(|&r| r as i64).collect()),
        4 => Vector::U8(raw.iter().map(|&r| r as u8).collect()),
        5 => Vector::U16(raw.iter().map(|&r| r as u16).collect()),
        6 => Vector::U32(raw.iter().map(|&r| r as u32).collect()),
        7 => Vector::U64(raw),
        8 => Vector::F64(raw.iter().map(|&r| cents(r)).collect()),
        _ => {
            let mut s = x100_vector::StrVec::default();
            raw.iter()
                .for_each(|&r| s.push(&format!("v{}", r % 100_000)));
            Vector::Str(s)
        }
    }
}

proptest! {
    /// The chooser and the dictionary candidate decide as the full sweep
    /// — dictionary, or the same chunk format with the same bytes, or
    /// raw — over every stored type and value shapes on both sides of
    /// each bound: PFOR lane 0 against lane 8 on 1-byte codes, a
    /// dictionary over and under 256 values and over its cap, sorted
    /// columns for PFOR-DELTA.
    #[test]
    fn chooser_matches_full_sweep(ty in 0usize..10,
                                  rows in 1usize..10_000,
                                  shape in 0u8..4,
                                  card_bits in 0u32..13,
                                  width in 0usize..4,
                                  seed in any::<u64>()) {
        // Cardinalities spread evenly over powers of two up to 8192, and
        // values 64, 32, 16 or 8 bits wide.
        let card = (1usize << card_bits) + (seed as usize) % (1 << card_bits);
        let shift = [0, 32, 48, 56][width];
        let data = chooser_column(ty, rows, shape, card, shift, seed);
        let chunks = choose_and_compress(&data, &ColumnStats::compute(&data));
        let got = match (dictionary_wins(&data, chunks.as_ref()), chunks) {
            (true, _) => Verdict::Dictionary,
            (false, Some(c)) => Verdict::Chunks(c.format(), c.to_bytes()),
            (false, None) => Verdict::Raw,
        };
        let want = full_sweep(&data);
        prop_assert!(got == want, "{:?} against the full sweep's {:?}", kind(&got), kind(&want));
    }
}

/// A verdict without its bytes, for failure messages.
fn kind(v: &Verdict) -> Option<ChunkFormat> {
    match v {
        Verdict::Chunks(f, _) => Some(*f),
        _ => None,
    }
}

// ---------------------------------------------------------------------------
// Structure-aware mutation suite over the one decoder (`x100_storage::
// frame`): for a valid image of every container — `XCPC` column streams
// per codec × type, `XDCF` column frames, `XMAN` manifests — truncate at
// every prefix, overwrite every field-sized span with {0, 1, MAX}, flip
// random bytes, and re-seal so the mutation reaches the parser. Every
// outcome must be a typed `Err`, or an `Ok` whose every decode path then
// runs to completion: never a panic, abort or out-of-bounds access.
// (The spill-block twin lives beside `engine/src/spill.rs`'s round-trip
// test.)
// ---------------------------------------------------------------------------

use x100_storage::frame::{Writer, FRAME_OVERHEAD};
use x100_storage::{fold_checksum, DurableError};

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

/// Run the decode of a parsed column to completion. The result may be
/// an error (a chunk refusing its checksum) — the point is that it
/// returns.
fn drive_column(cc: &CompressedColumn) {
    let _ = cc.decode();
}

/// One valid `XCPC` image per codec × type the chooser can produce,
/// patch lists and carries populated, plus two multi-chunk images
/// small enough to sweep (lane-0 payloads).
fn column_images() -> &'static [(String, CompressedColumn)] {
    static IMAGES: std::sync::OnceLock<Vec<(String, CompressedColumn)>> =
        std::sync::OnceLock::new();
    IMAGES.get_or_init(build_column_images)
}

fn build_column_images() -> Vec<(String, CompressedColumn)> {
    let mut out = Vec::new();
    let mut add = |name: &str, data: Vector, format: ChunkFormat| {
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
            add(stringify!($t), Vector::$v(v), ChunkFormat::Pfor);
            // One delta exception.
            let v: Vec<$t> = (0..1100u32).map(|i| (i / 10 + (i / 1000) * 20) as $t).collect();
            add(stringify!($t), Vector::$v(v), ChunkFormat::PforDelta);
        )*};
    }
    ints!(i8 => I8, i16 => I16, i32 => I32, i64 => I64, u8 => U8, u16 => U16, u32 => U32, u64 => U64);
    let mut cents: Vec<f64> = (0..150).map(|i| (i % 40) as f64 / 100.0).collect();
    cents[11] = std::f64::consts::PI;
    add("f64", Vector::F64(cents), ChunkFormat::Pfor);
    let rows = x100_storage::CHUNK_ROWS + 5;
    add(
        "i64×2chunks",
        Vector::I64(vec![42; rows]),
        ChunkFormat::Pfor,
    );
    let stride = (0..rows as i64).map(|i| i * 3).collect();
    add("i64×2chunks", Vector::I64(stride), ChunkFormat::PforDelta);
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
    let flags: Vec<String> = (0..64).map(|i| format!("F{}", i % 5)).collect();
    let enc = x100_storage::encode_str(&flags).expect("enum");
    let mut t = TableBuilder::new("m")
        .column("id", Vector::I64((0..64).collect()))
        .column(
            "val",
            Vector::F64((0..64).map(|i| (i % 7) as f64 * 0.25).collect()),
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
/// column frame (each extent's trailer byte is cross-checked at open).
/// Extents lie back to back in the segment, in column order.
fn manifest_image(replicas: u32, frames: &[(&str, &[u8])]) -> Vec<u8> {
    let mut w = Writer::new(Vec::new(), b"XMAN", 3);
    w.put(1u64); // checkpoint version
    w.put(replicas);
    w.put_str("m");
    w.put(64u64); // fragment rows
    w.put(frames.len() as u32);
    let mut offset = 0u64;
    for (name, bytes) in frames {
        w.put_str(name);
        w.put(offset);
        w.put(bytes.len() as u64);
        w.put(bytes.last().copied().unwrap_or(0));
        offset += bytes.len() as u64;
    }
    w.seal()
}

/// `Table::open` must return — a typed error, or a table every row of
/// which reads back.
fn open_and_drive(dir: &std::path::Path) -> Result<Table, DurableError> {
    let t = Table::open(dir)?;
    for r in 0..t.fragment_rows() {
        let _ = t.get_row(r as u32);
    }
    Ok(t)
}

#[test]
fn durable_file_mutants_open_typed_or_readable() {
    let (dir, want) = durable_fixture("files", 1);
    let names = ["id", "val", "flag"];
    let segment = dir.join("seg-v0000000001-r0.seg");
    let whole = std::fs::read(&segment).expect("segment");
    let t = Table::open(&dir).expect("fixture opens");
    let ds = t.durable_source().expect("durable");
    let frames: Vec<Vec<u8>> = (0..3)
        .map(|c| {
            let (path, offset, len) = ds.extent(c, 0).expect("extent");
            assert_eq!(path, segment);
            whole[offset as usize..(offset + len) as usize].to_vec()
        })
        .collect();
    assert_eq!(frames.concat(), whole, "extents tile the segment");
    let manifest = dir.join("manifest-0000000001.xman");
    let entries = |frames: &[Vec<u8>]| -> Vec<u8> {
        let e: Vec<_> = names
            .iter()
            .copied()
            .zip(frames.iter().map(Vec::as_slice))
            .collect();
        manifest_image(1, &e)
    };
    assert_eq!(
        std::fs::read(&manifest).expect("manifest"),
        entries(&frames)
    );
    for c in 0..3 {
        for_each_mutant(&frames[c], |m| {
            // Point the manifest at the mutant so the extent and trailer
            // cross-checks pass and the damage reaches the frame parser.
            let mut mutated = frames.clone();
            mutated[c] = m;
            std::fs::write(&segment, mutated.concat()).expect("write mutant");
            std::fs::write(&manifest, entries(&mutated)).expect("write manifest");
            if let Ok(t) = open_and_drive(&dir) {
                assert_eq!(t.fragment_rows(), 64);
            }
        });
        std::fs::write(&segment, &whole).expect("restore");
    }
    // Manifest mutants over an intact segment.
    for_each_mutant(&entries(&frames), |m| {
        std::fs::write(&manifest, m).expect("write manifest");
        let _ = open_and_drive(&dir);
    });
    std::fs::write(&manifest, entries(&frames)).expect("restore manifest");
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
        let (path, offset, len) = Table::open(&dir)
            .expect("fixture opens")
            .durable_source()
            .expect("durable")
            .extent(0, 0)
            .expect("extent");
        let mut segment = std::fs::read(&path).expect("replica 0");
        let bytes = &mut segment[offset as usize..(offset + len) as usize];
        // The stored section's length (column 0's chunks): head (13),
        // col u32, rows u64, logical tag, two flags.
        let at = 13 + 4 + 8 + 3;
        bytes[at..at + 8].copy_from_slice(&(u64::MAX - 3).to_le_bytes());
        // Re-tear a don't-care byte until the frame's fold matches the
        // manifest again: only the parser can catch the damage now.
        let want_sum = *bytes.last().expect("trailer");
        let end = bytes.len() - 1;
        let fixed = (0..=255u8).any(|b| {
            bytes[end - 1] = b;
            fold_checksum(&bytes[..end]) == want_sum
        });
        assert!(fixed, "some byte value restores the 8-bit fold");
        std::fs::write(&path, &segment).expect("write torn replica");
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
