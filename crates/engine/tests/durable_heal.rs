//! Replicated self-healing end-to-end (DESIGN.md §14): a corrupt copy
//! of a durably checkpointed column on disk must never change query
//! results — `open` heals it from a good replica and counts the heal in
//! `DurableSource::heals` — and a chunk torn between encode and write
//! never becomes the only durable copy: the commit stores that column's
//! raw values.

use std::path::PathBuf;

use x100_engine::expr::*;
use x100_engine::plan::Plan;
use x100_engine::session::{execute, Database, ExecOptions};
use x100_engine::{DurableOptions, FaultPlan};
use x100_storage::{ChunkFormat, FaultState, Table, TableBuilder};
use x100_vector::{ScalarType, Value, Vector};

const N: i64 = 20_000;

/// Fresh scratch directory under the system temp dir.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("x100-durable-heal-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Same shape as the checkpointed-answers suite's fact table: a codec
/// per column.
fn fact_table() -> Table {
    TableBuilder::new("fact")
        .column("id", Vector::I64((0..N).collect()))
        .column("k", Vector::I64((0..N).map(|i| (i * 7) % 1000).collect()))
        .column("tag", {
            let mut c = Vector::with_capacity(ScalarType::Str, 0);
            for i in 0..N {
                let s = ["alpha", "beta", "gamma", "delta"][(i % 4) as usize];
                c.push_value(&Value::Str(s.into()));
            }
            c
        })
        .column(
            "qty",
            Vector::F64((0..N).map(|i| (i % 997) as f64 * 0.25).collect()),
        )
        .build()
}

fn opts() -> ExecOptions {
    ExecOptions::default().profiled()
}

fn test_plan() -> Plan {
    Plan::scan("fact", &["id", "k", "tag", "qty"]).select(lt(col("k"), lit_i64(500)))
}

/// Expected rows from a plain in-memory checkpoint (no durability).
fn clean_rows(plan: &Plan) -> Vec<String> {
    let mut t = fact_table();
    t.checkpoint();
    let mut db = Database::new();
    db.register(t);
    let (res, _) = execute(&db, plan, &opts()).expect("clean");
    res.row_strings()
}

#[test]
fn open_heals_corrupt_disk_replica_and_queries_match() {
    let dir = scratch("open");
    let plan = test_plan();
    let want = clean_rows(&plan);

    let mut t = fact_table();
    t.checkpoint_durable(&dir, &DurableOptions::default())
        .expect("durable checkpoint");
    let ds = t.durable_source().expect("durable").clone();
    let extent = |col: usize, r: u32| {
        let (path, offset, len) = ds.extent(col, r).expect("extent");
        let bytes = std::fs::read(path).expect("segment");
        bytes[offset as usize..(offset + len) as usize].to_vec()
    };
    let before: Vec<Vec<u8>> = (0..t.num_columns()).map(|c| extent(c, 0)).collect();
    drop(t);

    // Corrupt replica 0 of the predicate column (`k` is col 1), one
    // byte in the middle of its extent.
    let (seg0, offset, len) = ds.extent(1, 0).expect("extent");
    let mut bytes = std::fs::read(&seg0).expect("replica 0");
    bytes[(offset + len / 2) as usize] ^= 0x5a;
    std::fs::write(&seg0, &bytes).expect("corrupt replica 0");

    let rec = Table::open(&dir).expect("open heals from the other copy");
    let ds = rec.durable_source().expect("durable").clone();
    // The bad extent now equals replica 1's, byte for byte; every other
    // extent of replica 0 is as it was.
    assert_eq!(extent(1, 0), extent(1, 1));
    for (c, want) in before.iter().enumerate() {
        assert_eq!(&extent(c, 0), want, "extent {c}");
    }
    let mut db = Database::new();
    db.register(rec);

    let (got, _) = execute(&db, &plan, &opts()).expect("query after heal");
    assert_eq!(
        got.row_strings(),
        want,
        "healed table must be byte-identical"
    );
    assert!(ds.heals() >= 1, "open must have healed the bad replica");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_chunk_torn_before_the_durable_checkpoint_reopens_from_raw_values() {
    let dir = scratch("torn");
    let plan = test_plan();
    let want = clean_rows(&plan);
    let opts_d = DurableOptions::default();

    // The chunks are the only durable copy of a compressed column, so a
    // commit verifies what it encoded and stores a column whose chunks
    // were torn in between as its raw values instead.
    let mut t = fact_table();
    let fault = FaultState::new(FaultPlan::default().tear(1, 0, 13));
    let verdicts = t
        .try_checkpoint_durable(&dir, &opts_d, Some(&fault))
        .expect("a torn write does not fail the commit");
    assert_eq!(fault.injected(), 1);
    let formats: Vec<ChunkFormat> = verdicts.iter().map(|v| v.1).collect();
    assert_eq!(formats[0], ChunkFormat::PforDelta, "`id` keeps its chunks");
    assert_eq!(formats[1], ChunkFormat::Raw, "`k` is stored raw");
    drop(t);

    let rec = Table::open(&dir).expect("reopen");
    // Nothing is remembered: the next commit encodes `k` again, to the
    // clean table's bytes.
    let frame = |t: &mut Table, dir: &std::path::Path| {
        let v = t.checkpoint_durable(dir, &opts_d).expect("commit");
        let (path, offset, len) = t
            .durable_source()
            .expect("durable")
            .extent(1, 0)
            .expect("k");
        let bytes = std::fs::read(path).expect("segment");
        (
            v[1].1,
            bytes[offset as usize..(offset + len) as usize].to_vec(),
        )
    };
    let clean_dir = scratch("torn-clean");
    let again = frame(&mut rec.clone(), &dir);
    let clean = frame(&mut fact_table(), &clean_dir);
    assert_eq!(again.0, ChunkFormat::Pfor);
    assert_eq!(again, clean);
    let mut db = Database::new();
    db.register(rec);
    let (got, _) = execute(&db, &plan, &opts()).expect("query after reopen");
    assert_eq!(got.row_strings(), want);
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&clean_dir);
}
