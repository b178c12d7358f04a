//! The durable copy on TPC-H: all eight tables at SF 0.01, durably
//! checkpointed and reopened. A compressed column is stored as its
//! chunks alone and `open` rebuilds its fragment by decoding them (and
//! keeps no chunks), so every reopened fragment must equal the
//! in-memory one bit for bit (`f64` compared as bit patterns), with the
//! same dictionary and statistics — and the 22 queries must answer over
//! the reopened tables exactly as over the raw ones. The codec's
//! decisions on these tables are pinned: which columns enumerate, what
//! each segment stores of each column, and the segments' lengths.

use tpch::gen::{generate, GenConfig};
use tpch::queries::{all_specs, run_x100};
use x100_engine::session::{Database, ExecOptions};
use x100_storage::frame::Writer;
use x100_storage::{ChunkFormat, DurableOptions, Table};
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
        assert!(g.compressed().is_none(), "{col}: no chunk stays resident");
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
        let verdicts = t
            .checkpoint_durable(&dir, &DurableOptions::default())
            .expect("durable checkpoint");
        let back = Table::open(&dir).expect("reopen");
        assert_reopened_equal(name, &back, &t);
        chunked += verdicts.iter().filter(|v| v.1 != ChunkFormat::Raw).count();
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

use ChunkFormat::{Pfor, PforDelta, Raw};

/// One table's pinned codec decisions: its enum columns after the
/// durable checkpoint, each column's stored form in the segment, and
/// the segment's length in bytes.
type Pinned = (
    &'static str,
    &'static [&'static str],
    &'static [(&'static str, ChunkFormat)],
    u64,
);

/// The decisions of the codec chooser on TPC-H SF 0.01 (seed 42), as
/// the chooser made them when it still ran inside `checkpoint()`: moving
/// the format sweep into the durable commit changed none of them. (The
/// segment lengths are that code's less one byte per column, the
/// verdict flag the frame no longer carries.)
const PINNED: [Pinned; 8] = [
    (
        "customer",
        &["c_mktsegment", "c_cntrycode"],
        &[
            ("c_custkey", PforDelta),
            ("c_name", Raw),
            ("c_nationkey", Pfor),
            ("c_nation_idx", Pfor),
            ("c_mktsegment", Raw),
            ("c_acctbal", Pfor),
            ("c_phone", Raw),
            ("c_cntrycode", Raw),
        ],
        74_321,
    ),
    (
        "lineitem",
        &[
            "l_quantity",
            "l_discount",
            "l_tax",
            "l_returnflag",
            "l_linestatus",
            "l_shipinstruct",
            "l_shipmode",
        ],
        &[
            ("l_orderkey", PforDelta),
            ("l_partkey", Pfor),
            ("l_suppkey", Pfor),
            ("l_linenumber", Pfor),
            ("l_quantity", Raw),
            ("l_extendedprice", Pfor),
            ("l_discount", Raw),
            ("l_tax", Raw),
            ("l_returnflag", Raw),
            ("l_linestatus", Raw),
            ("l_shipdate", Pfor),
            ("l_commitdate", Pfor),
            ("l_receiptdate", Pfor),
            ("l_shipinstruct", Raw),
            ("l_shipmode", Raw),
            ("li_order_idx", PforDelta),
            ("li_part_idx", Pfor),
            ("li_supp_idx", Pfor),
            ("li_ps_idx", Pfor),
        ],
        1_844_467,
    ),
    (
        "nation",
        &["n_name"],
        &[
            ("n_nationkey", PforDelta),
            ("n_name", Raw),
            ("n_regionkey", Pfor),
            ("n_region_idx", Pfor),
        ],
        700,
    ),
    (
        "orders",
        &["o_orderstatus", "o_orderpriority"],
        &[
            ("o_orderkey", PforDelta),
            ("o_custkey", Pfor),
            ("o_cust_idx", Pfor),
            ("o_orderstatus", Raw),
            ("o_totalprice", Pfor),
            ("o_orderdate", PforDelta),
            ("o_orderpriority", Raw),
            ("o_shippriority", Pfor),
            ("o_li_lo", PforDelta),
            ("o_li_cnt", Pfor),
            ("o_comment", Raw),
        ],
        645_656,
    ),
    (
        "part",
        &[
            "p_name",
            "p_name1",
            "p_brand",
            "p_type",
            "p_type1",
            "p_type2",
            "p_type3",
            "p_size",
            "p_container",
        ],
        &[
            ("p_partkey", PforDelta),
            ("p_name", Raw),
            ("p_name1", Raw),
            ("p_brand", Raw),
            ("p_type", Raw),
            ("p_type1", Raw),
            ("p_type2", Raw),
            ("p_type3", Raw),
            ("p_size", Raw),
            ("p_container", Raw),
            ("p_retailprice", Pfor),
        ],
        34_360,
    ),
    (
        "partsupp",
        &[],
        &[
            ("ps_partkey", PforDelta),
            ("ps_suppkey", Pfor),
            ("ps_rowid", PforDelta),
            ("ps_part_idx", PforDelta),
            ("ps_supp_idx", Pfor),
            ("ps_availqty", Pfor),
            ("ps_supplycost", Pfor),
        ],
        80_836,
    ),
    (
        "region",
        &["r_name"],
        &[("r_regionkey", Raw), ("r_name", Raw)],
        210,
    ),
    (
        "supplier",
        &[],
        &[
            ("s_suppkey", PforDelta),
            ("s_name", Raw),
            ("s_nationkey", Pfor),
            ("s_nation_idx", Pfor),
            ("s_acctbal", Pfor),
            ("s_comment", Raw),
        ],
        6_162,
    ),
];

#[test]
fn codec_decisions_on_tpch_tables_are_pinned() {
    let data = generate(&GenConfig::new(0.01));
    let raw = tpch::build_x100_db(&data);
    let root = std::env::temp_dir().join(format!("x100-tpch-pinned-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let names: Vec<&str> = raw.table_names().collect();
    assert_eq!(names, PINNED.map(|p| p.0));
    for (name, enums, stored, segment) in PINNED {
        let mut t = (*raw.table(name).expect("listed table")).clone();
        let verdicts = t
            .checkpoint_durable(&root.join(name), &DurableOptions::default())
            .expect("durable checkpoint");
        let got_enums: Vec<&str> = (0..t.num_columns())
            .filter(|&i| t.column(i).dict().is_some())
            .map(|i| t.column(i).field().name.as_str())
            .collect();
        assert_eq!(got_enums, enums, "{name}: enum columns");
        let got_stored: Vec<(&str, ChunkFormat)> =
            verdicts.iter().map(|(n, f, _)| (n.as_str(), *f)).collect();
        assert_eq!(got_stored, stored, "{name}: stored forms");
        let (path, _, _) = t
            .durable_source()
            .expect("durable")
            .extent(0, 0)
            .expect("segment");
        let len = std::fs::metadata(path).expect("segment").len();
        assert_eq!(len, segment, "{name}: segment bytes");
    }
    let _ = std::fs::remove_dir_all(&root);
}
