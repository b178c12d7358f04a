//! The durable copy on TPC-H: all eight tables at SF 0.01, durably
//! checkpointed and reopened. A compressed column is stored as its
//! chunks alone and `open` rebuilds its fragment by decoding them, so
//! every reopened fragment must equal the in-memory one bit for bit
//! (`f64` compared as bit patterns), with the same dictionary, chunks
//! and statistics — and the 22 queries must answer over the reopened
//! tables exactly as over the raw ones.

use tpch::gen::{generate, GenConfig};
use tpch::queries::{all_specs, run_x100};
use x100_engine::session::{Database, ExecOptions};
use x100_storage::frame::Writer;
use x100_storage::{DurableOptions, Table};
use x100_vector::Vector;

/// A vector's bytes as the byte layer writes them: `f64` values as
/// their bit patterns, so NaN payloads and `-0.0` compare exactly.
fn image(v: &Vector) -> Vec<u8> {
    let mut w = Writer::new(Vec::new(), b"IMAG", 1);
    w.put_column(v);
    w.seal()
}

fn assert_reopened_equal(name: &str, got: &Table, want: &Table) {
    assert_eq!(got.num_columns(), want.num_columns(), "{name}");
    assert_eq!(got.fragment_rows(), want.fragment_rows(), "{name}");
    for i in 0..want.num_columns() {
        let (g, w) = (got.column(i), want.column(i));
        let col = format!("{name}.{}", w.field().name);
        assert_eq!(g.field(), w.field(), "{col}");
        assert_eq!(image(g.physical()), image(w.physical()), "{col}");
        assert_eq!(
            g.dict().map(|d| image(d.values())),
            w.dict().map(|d| image(d.values())),
            "{col}"
        );
        assert_eq!(
            g.compressed().map(|c| c.to_bytes()),
            w.compressed().map(|c| c.to_bytes()),
            "{col}"
        );
        assert_eq!(got.column_stats(i), want.column_stats(i), "{col}");
    }
}

#[test]
fn tpch_tables_reopen_bit_identical_and_answer_the_same() {
    let data = generate(&GenConfig::new(0.01));
    let raw = tpch::build_x100_db(&data);
    let root = std::env::temp_dir().join(format!("x100-tpch-durable-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);

    let mut reopened = Database::new();
    let mut chunked = 0;
    let names: Vec<String> = raw.table_names().map(str::to_owned).collect();
    assert_eq!(names.len(), 8);
    for name in &names {
        let mut t = (*raw.table(name).expect("listed table")).clone();
        let dir = root.join(name);
        t.checkpoint_durable(&dir, &DurableOptions::default())
            .expect("durable checkpoint");
        let back = Table::open(&dir).expect("reopen");
        assert_reopened_equal(name, &back, &t);
        chunked += (0..t.num_columns())
            .filter(|&i| t.column(i).compressed().is_some())
            .count();
        reopened.register(back);
    }
    assert!(chunked > 10, "most columns reopen from their chunks");
    let _ = std::fs::remove_dir_all(&root);

    let opts = ExecOptions::default();
    for (q, spec) in all_specs() {
        let want = run_x100(&raw, &spec, &opts).expect("raw");
        let got = run_x100(&reopened, &spec, &opts).expect("reopened");
        assert_eq!(got.row_strings(), want.row_strings(), "q{q}");
    }
}
