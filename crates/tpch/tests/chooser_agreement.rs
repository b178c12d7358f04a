//! The codec chooser on real columns: `choose_and_compress` prices each
//! chunk format with a lower bound before it encodes it, and
//! `dictionary_wins` bounds the dictionary candidate before it collects
//! a column's distinct values; together they must still decide exactly
//! as encoding every chunk format and pricing the dictionary would —
//! the dictionary, or the same chunk format with the same bytes, or raw
//! — on every column of the TPC-H tables and of the Q1-column
//! `lineitem` the write-path benchmark checkpoints. (Random vectors of
//! every stored type are x100-storage's `chooser_matches_full_sweep`.)

use std::collections::BTreeSet;
use tpch::gen::{generate, generate_lineitem_q1, GenConfig};
use x100_storage::{
    choose_and_compress, compress_column_as, dictionary_wins, ChunkFormat, ColumnStats,
    CompressedColumn, Table, CHUNK_ROWS, HEADER_BYTES,
};
use x100_vector::Vector;

/// What the checkpoint stores a column as: dictionary codes (an enum
/// column), a chunk format, or the raw fragment.
#[derive(Debug, PartialEq)]
enum Verdict {
    Dictionary,
    Chunks(ChunkFormat, Vec<u8>),
    Raw,
}

/// The full sweep: every applicable chunk format encoded and the
/// dictionary candidate priced, the smallest kept (a chunk format on a
/// tie), and raw unless it saves at least 10% of the raw bytes.
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

/// The dictionary candidate's size — a header per chunk, a code per row
/// (two bytes past 256 values), the dictionary — from the distinct
/// values counted one by one: `None` for a type it does not cover or
/// past the cap (4096 numeric values, 65536 strings).
fn dictionary_bytes(data: &Vector) -> Option<u64> {
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
            let dict = Vector::Str(d.iter().copied().collect());
            (d.len(), dict.byte_size(), 65536)
        }
        _ => return None,
    };
    let code = if distinct <= 256 { 1 } else { 2 };
    let headers = data.len().div_ceil(CHUNK_ROWS) * HEADER_BYTES;
    (distinct <= cap).then(|| (headers + data.len() * code + dict_bytes) as u64)
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

/// Every column of `t` gets the full sweep's verdict from the chooser
/// and the dictionary candidate. Returns how many columns take a chunk
/// format and the names of those a dictionary takes.
fn assert_agrees(t: &Table) -> (usize, Vec<String>) {
    let (mut compressed, mut dictionary) = (0, Vec::new());
    for i in 0..t.num_columns() {
        let col = t.column(i);
        let data = col.physical();
        let name = format!("{}.{}", t.name(), col.field().name);
        let chunks = choose_and_compress(data, &ColumnStats::compute(data));
        let got = match (dictionary_wins(data, chunks.as_ref()), chunks) {
            (true, _) => Verdict::Dictionary,
            (false, Some(c)) => Verdict::Chunks(c.format(), c.to_bytes()),
            (false, None) => Verdict::Raw,
        };
        let want = full_sweep(data);
        match (&got, &want) {
            (Verdict::Dictionary, Verdict::Dictionary) => dictionary.push(name),
            (Verdict::Chunks(gf, gb), Verdict::Chunks(wf, wb)) => {
                assert_eq!(gf, wf, "{name}: format");
                assert!(gb == wb, "{name}: chunk bytes");
                compressed += 1;
            }
            (Verdict::Raw, Verdict::Raw) => {}
            _ => panic!("{name}: chooser {got:?}, full sweep {want:?}"),
        }
    }
    (compressed, dictionary)
}

#[test]
fn chooser_matches_full_sweep_on_tpch_tables() {
    let db = tpch::build_x100_db(&generate(&GenConfig::new(0.01)));
    let names: Vec<String> = db.table_names().map(str::to_owned).collect();
    assert_eq!(names.len(), 8, "{names:?}");
    let (mut compressed, mut dictionary) = (0, Vec::new());
    for n in &names {
        let (c, d) = assert_agrees(&db.table(n).expect("registered"));
        compressed += c;
        dictionary.extend(d);
    }
    assert!(compressed > 10, "only {compressed} columns compress");
    // The one column a checkpoint turns into an enum column at this scale.
    assert_eq!(dictionary, ["part.p_name"]);
}

#[test]
fn chooser_matches_full_sweep_on_write_path_lineitem() {
    for seed in 1..=3 {
        let li = generate_lineitem_q1(&GenConfig { sf: 0.012, seed });
        let t = tpch::db::build_lineitem(&li);
        // l_extendedprice and l_shipdate compress; the enum codes do
        // not, and no plain column is worth a dictionary.
        assert_eq!(assert_agrees(&t), (2, Vec::new()), "seed {seed}");
    }
}
