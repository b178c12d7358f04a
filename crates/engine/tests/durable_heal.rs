//! Replicated self-healing end-to-end (DESIGN.md §14): a corrupt copy
//! of a durably checkpointed chunk — on disk or in memory — must never
//! change query results. Recovery order is retry → replica heal → raw
//! fragment, and a heal surfaces as the `chunk_heals` profile counter,
//! not as an error.

use std::path::PathBuf;

use x100_engine::expr::*;
use x100_engine::plan::Plan;
use x100_engine::session::{execute, Database, ExecOptions};
use x100_engine::DurableOptions;
use x100_storage::{ColumnData, Table, TableBuilder};
use x100_vector::{ScalarType, Value};

const N: i64 = 20_000;

/// Fresh scratch directory under the system temp dir.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("x100-durable-heal-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Same shape as the pushdown suite's fact table: a codec per column.
fn fact_table() -> Table {
    TableBuilder::new("fact")
        .column("id", ColumnData::I64((0..N).collect()))
        .column(
            "k",
            ColumnData::I64((0..N).map(|i| (i * 7) % 1000).collect()),
        )
        .column("tag", {
            let mut c = ColumnData::new(ScalarType::Str);
            for i in 0..N {
                let s = ["alpha", "beta", "gamma", "delta"][(i % 4) as usize];
                c.push_value(&Value::Str(s.into()));
            }
            c
        })
        .column(
            "qty",
            ColumnData::F64((0..N).map(|i| (i % 997) as f64 * 0.25).collect()),
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
    let version = t.durable_source().expect("durable").version();
    drop(t);

    // Corrupt replica 0 of the predicate column (`k` is col 1).
    let bad = dir.join(format!("col001-v{version:010}-r0.chunks"));
    let mut bytes = std::fs::read(&bad).expect("replica 0");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x5a;
    std::fs::write(&bad, &bytes).expect("corrupt replica 0");

    let rec = Table::open(&dir).expect("open heals from the other copy");
    let ds = rec.durable_source().expect("durable").clone();
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
fn mid_query_bit_rot_heals_from_disk_replica() {
    let dir = scratch("midquery");
    let plan = test_plan();
    let want = clean_rows(&plan);

    let mut t = fact_table();
    t.checkpoint_durable(&dir, &DurableOptions::default())
        .expect("durable checkpoint");
    // Rot one payload byte of `k`'s first chunk *in memory only* —
    // both disk replicas stay intact, so the scan can heal.
    assert!(t.corrupt_compressed_payload(1, 0, 13));
    let ds = t.durable_source().expect("durable").clone();
    let mut db = Database::new();
    db.register(t);

    let (got, prof) = execute(&db, &plan, &opts()).expect("query heals mid-flight");
    assert_eq!(got.row_strings(), want);
    assert!(
        prof.counter("chunk_heals").unwrap_or(0) >= 1,
        "heal must surface in the profile"
    );
    assert_eq!(ds.heals(), 1, "one corrupt column, one heal");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn concurrent_queries_heal_the_same_chunk_exactly_once() {
    let dir = scratch("concurrent");
    let plan = test_plan();
    let want = clean_rows(&plan);

    let mut t = fact_table();
    t.checkpoint_durable(&dir, &DurableOptions::default())
        .expect("durable checkpoint");
    assert!(t.corrupt_compressed_payload(1, 0, 13));
    let ds = t.durable_source().expect("durable").clone();
    let mut db = Database::new();
    db.register(t);

    // Two queries race into the same corrupt chunk; the healed-column
    // cache (held across the disk read) makes exactly one of them pay
    // for the heal, and both must return correct rows.
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let db = &db;
                let plan = &plan;
                s.spawn(move || {
                    let (res, _) = execute(db, plan, &opts()).expect("concurrent query");
                    res.row_strings()
                })
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().expect("thread"), want);
        }
    });
    assert_eq!(ds.heals(), 1, "concurrent damage heals exactly once");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn mid_query_rot_without_durable_copy_falls_back_to_raw() {
    // Control: the same bit rot on a non-durable table takes the raw
    // fragment fallback (PR 6 contract) — correct rows, a
    // `decode_recoveries` tick, and no heal counter.
    let plan = test_plan();
    let want = clean_rows(&plan);

    let mut t = fact_table();
    t.checkpoint();
    assert!(t.corrupt_compressed_payload(1, 0, 13));
    let mut db = Database::new();
    db.register(t);

    let (got, prof) = execute(&db, &plan, &opts()).expect("raw fallback");
    assert_eq!(got.row_strings(), want);
    assert!(prof.counter("decode_recoveries").unwrap_or(0) >= 1);
    assert_eq!(prof.counter("chunk_heals").unwrap_or(0), 0);
}

// ---------------------------------------------------------------------------
// The recovery ladder, site by site (DESIGN.md §10 "Byte layer"): every
// compressed read of the engine goes decode → heal → raw → `Io` through
// one function, so each site must show the same rungs.
// ---------------------------------------------------------------------------

const DIM: i64 = 5_000;

/// `fact` widened with a sorted join index (PFOR-DELTA, fetched through
/// `dim`) and an enum column whose two-byte *codes* compress (mostly
/// below 256: one-byte PFOR lanes plus a few exceptions), so the scan's
/// `Fetch1Join(ENUM)` arm reads compressed chunks too.
fn wide_fact() -> Table {
    TableBuilder::new("fact")
        // Ascending with uneven gaps: PFOR-DELTA with one-byte lanes.
        .column(
            "id",
            ColumnData::I64((0..N).map(|i| i * 10 + i % 7).collect()),
        )
        .column(
            "k",
            ColumnData::I64((0..N).map(|i| (i * 7) % 1000).collect()),
        )
        .column(
            "qty",
            ColumnData::F64((0..N).map(|i| (i % 997) as f64 * 0.25).collect()),
        )
        .column(
            "fk",
            ColumnData::U32((0..N).map(|i| (i * DIM / N) as u32).collect()),
        )
        .auto_enum_str(
            "grade",
            (0..N)
                .map(|i| {
                    if i % 50 == 0 {
                        256 + (i / 50) % 44
                    } else {
                        i % 256
                    }
                })
                .map(|g| format!("G{g:03}"))
                .collect(),
        )
        .build()
}

fn dim_table() -> Table {
    TableBuilder::new("dim")
        .column(
            "val",
            ColumnData::I64((0..DIM).map(|c| c * 3 % 1009).collect()),
        )
        .build()
}

/// One compressed-read site: the plan that reaches it and the
/// `(table, column)` whose first chunk is torn to trip it.
fn ladder_sites() -> Vec<(&'static str, Plan, (&'static str, usize))> {
    let pushed = || Plan::scan("fact", &["id", "k", "qty"]).select(lt(col("k"), lit_i64(500)));
    vec![
        ("scan plain", Plan::scan("fact", &["id", "k"]), ("fact", 1)),
        (
            "scan enum codes",
            Plan::scan("fact", &["grade"]),
            ("fact", 4),
        ),
        ("pushed select", pushed(), ("fact", 1)),
        ("pushed decode_positions", pushed(), ("fact", 2)),
        ("pushed gather", pushed(), ("fact", 0)),
        (
            "fetch gather",
            Plan::scan("fact", &["fk"]).fetch1("dim", col("fk"), &[("val", "val")]),
            ("dim", 0),
        ),
    ]
}

/// Both tables checkpointed (durably under `dir`, if given), one chunk
/// torn in memory.
fn ladder_db(dir: Option<&std::path::Path>, torn: Option<(&str, usize)>) -> Database {
    let mut db = Database::new();
    for mut t in [wide_fact(), dim_table()] {
        match dir {
            Some(d) => {
                t.checkpoint_durable(&d.join(t.name()), &DurableOptions::default())
                    .expect("durable checkpoint");
            }
            None => {
                t.checkpoint();
            }
        }
        for c in 0..t.num_columns() {
            assert!(
                t.column(c).compressed().is_some(),
                "{}.{c} compresses",
                t.name()
            );
        }
        if let Some((name, c)) = torn.filter(|(name, _)| *name == t.name()) {
            assert!(
                t.corrupt_compressed_payload(c, 0, 5),
                "{name}.{c} has payload"
            );
        }
        db.register(t);
    }
    db
}

#[test]
fn every_site_heals_once_from_the_replica_then_stays_compressed() {
    for (site, plan, torn) in ladder_sites() {
        let (want, _) = execute(&ladder_db(None, None), &plan, &opts()).expect("clean");
        let dir = scratch(&format!("site-{}", site.replace(' ', "-")));
        let db = ladder_db(Some(&dir), Some(torn));
        let (got, prof) = execute(&db, &plan, &opts()).expect("heals mid-flight");
        assert_eq!(got.row_strings(), want.row_strings(), "{site}");
        assert_eq!(prof.counter("chunk_heals"), Some(1), "{site}: one heal");
        assert_eq!(
            prof.counter("decode_recoveries").unwrap_or(0),
            0,
            "{site}: every window after the heal is served compressed"
        );
        // The plan really took the path the site is named for.
        let routed = match site.split(' ').next() {
            Some("pushed") => prof.counter("pushdown_vectors"),
            Some("fetch") => prof.counter("fetch_compressed_gathers"),
            _ => prof.counter("scan_bytes_compressed"),
        };
        assert!(routed.unwrap_or(0) > 0, "{site}: compressed path not taken");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn without_a_replica_every_site_falls_back_once_per_window() {
    for (site, plan, torn) in ladder_sites() {
        let (want, _) = execute(&ladder_db(None, None), &plan, &opts()).expect("clean");
        let (got, prof) = execute(&ladder_db(None, Some(torn)), &plan, &opts()).expect("raw rung");
        assert_eq!(got.row_strings(), want.row_strings(), "{site}");
        // One chunk per column at this scale: every vector of the scan
        // touches the torn chunk and takes the raw rung exactly once.
        let windows = (N as usize).div_ceil(opts().vector_size) as u64;
        assert_eq!(prof.counter("decode_recoveries"), Some(windows), "{site}");
        assert_eq!(prof.counter("chunk_heals").unwrap_or(0), 0, "{site}");
    }
}

#[cfg(feature = "fault-inject")]
#[test]
fn a_fault_on_the_raw_rung_is_the_unrecoverable_double_fault() {
    use x100_engine::{FaultPlan, FaultSite, PlanError};
    for (site, plan, torn) in ladder_sites() {
        // The ladder is the only caller of the `ChunkRead` site check
        // (no buffer manager attached), so its first check is the raw
        // fallback of the first torn window.
        let faulty = opts().with_fault_plan(FaultPlan::default().pin_site(FaultSite::ChunkRead, 0));
        match execute(&ladder_db(None, Some(torn)), &plan, &faulty) {
            Err(PlanError::Io {
                site: FaultSite::ChunkRead,
                unrecoverable: true,
                detail,
            }) => assert!(detail.contains("both failed"), "{site}: {detail}"),
            other => panic!("{site}: expected the double-fault Io, got {other:?}"),
        }
    }
}
