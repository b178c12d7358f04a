//! The codec chooser on real columns: `choose_and_compress` prices each
//! format with a lower bound before it encodes it, and must still return
//! exactly what encoding every format would — same format, same chunk
//! bytes — on every column of the TPC-H tables and of the Q1-column
//! `lineitem` the write-path benchmark checkpoints. (Random vectors of
//! every stored type are x100-storage's `chooser_matches_full_sweep`.)

use tpch::gen::{generate, generate_lineitem_q1, GenConfig};
use x100_storage::{
    choose_and_compress, compress_column_as, ChunkFormat, ColumnStats, CompressedColumn, Table,
};
use x100_vector::Vector;

/// The full sweep: every applicable format encoded, the smallest kept
/// (the first on a tie), and raw (`None`) unless it saves at least 10%
/// of the raw bytes.
fn full_sweep(data: &Vector) -> Option<CompressedColumn> {
    macro_rules! non_decreasing {
        ($($variant:ident),*) => {
            match data {
                $(Vector::$variant(v) => v.windows(2).all(|w| w[0] <= w[1]),)*
                _ => false,
            }
        };
    }
    let sorted = non_decreasing!(I8, I16, I32, I64, U8, U16, U32, U64);
    [
        ChunkFormat::Pfor,
        ChunkFormat::PforDelta,
        ChunkFormat::Pdict,
    ]
    .into_iter()
    .filter(|&f| f != ChunkFormat::PforDelta || sorted)
    .filter_map(|f| compress_column_as(data, f))
    .min_by_key(|c| c.compressed_bytes())
    .filter(|c| c.compressed_bytes() * 10 <= c.raw_bytes() * 9)
}

/// Every column of `t` gets the full sweep's verdict from the chooser.
/// Returns how many columns compress.
fn assert_agrees(t: &Table) -> usize {
    let mut compressed = 0;
    for i in 0..t.num_columns() {
        let col = t.column(i);
        let data = col.physical();
        let name = format!("{}.{}", t.name(), col.field().name);
        let got = choose_and_compress(data, &ColumnStats::compute(data));
        match (got, full_sweep(data)) {
            (None, None) => {}
            (Some(g), Some(w)) => {
                assert_eq!(g.format(), w.format(), "{name}: format");
                assert!(g.to_bytes() == w.to_bytes(), "{name}: chunk bytes");
                compressed += 1;
            }
            (g, w) => panic!(
                "{name}: chooser {:?}, full sweep {:?}",
                g.map(|c| c.format()),
                w.map(|c| c.format())
            ),
        }
    }
    compressed
}

#[test]
fn chooser_matches_full_sweep_on_tpch_tables() {
    let db = tpch::build_x100_db(&generate(&GenConfig::new(0.01)));
    let names: Vec<String> = db.table_names().map(str::to_owned).collect();
    assert_eq!(names.len(), 8, "{names:?}");
    let compressed: usize = names
        .iter()
        .map(|n| assert_agrees(&db.table(n).expect("registered")))
        .sum();
    assert!(compressed > 10, "only {compressed} columns compress");
}

#[test]
fn chooser_matches_full_sweep_on_write_path_lineitem() {
    for seed in 1..=3 {
        let li = generate_lineitem_q1(&GenConfig { sf: 0.012, seed });
        let t = tpch::db::build_lineitem(&li);
        // l_extendedprice and l_shipdate compress; the enum codes do not.
        assert_eq!(assert_agrees(&t), 2, "seed {seed}");
    }
}
