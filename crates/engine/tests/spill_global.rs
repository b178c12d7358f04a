//! Shared spill root: startup garbage collection of dead processes'
//! leftover dirs, and the process-wide disk budget across concurrent
//! queries. Kept in its own test binary (= its own process): the
//! global budget would interfere with the other spill suites.

use x100_engine::expr::*;
use x100_engine::ops::OrdExp;
use x100_engine::plan::Plan;
use x100_engine::session::{execute, Database, ExecOptions};
use x100_engine::{
    gc_stale_spill_dirs, global_spill_used, set_global_spill_budget, spill_root, AggExpr,
    EngineError,
};
use x100_storage::{ColumnData, TableBuilder};

fn db(n: i64) -> Database {
    let t = TableBuilder::new("lineitem")
        .column("id", ColumnData::I64((0..n).collect()))
        .column(
            "flag",
            ColumnData::I64((0..n).map(|i| (i * 7919) % 500).collect()),
        )
        .column(
            "qty",
            ColumnData::F64((0..n).map(|i| ((i * 31) % 400) as f64 * 0.25).collect()),
        )
        .build();
    let mut db = Database::new();
    db.register(t);
    db
}

fn q1_plan() -> Plan {
    Plan::scan("lineitem", &["flag", "qty"])
        .select(lt(col("flag"), lit_i64(450)))
        .aggr(
            vec![("flag", col("flag"))],
            vec![AggExpr::sum("sum_qty", col("qty")), AggExpr::count("n")],
        )
        .order(vec![OrdExp::asc("flag")])
}

/// A memory budget low enough that the aggregation must spill: 450
/// groups of (i64 key, f64 sum, count) hold ~18 KB of table.
fn pressured() -> ExecOptions {
    ExecOptions::default()
        .with_mem_budget(16 << 10)
        .with_spill_budget(256 << 20)
}

#[test]
fn gc_reclaims_dead_process_dirs_and_spares_live_ones() {
    let root = spill_root();
    // A dir a SIGKILLed process would have left behind: pid far above
    // any default pid_max, so it cannot belong to a live process.
    let dead = root.join("q-4000000-0");
    std::fs::create_dir_all(&dead).expect("dead dir");
    std::fs::write(dead.join("run-0.xspr"), b"orphan").expect("orphan file");
    // Our own pid: must survive even though the epoch is arbitrary.
    let own = root.join(format!("q-{}-9999", std::process::id()));
    std::fs::create_dir_all(&own).expect("own dir");
    // A name the parser rejects: left alone, never deleted.
    let junk = root.join("not-a-spill-dir");
    std::fs::create_dir_all(&junk).expect("junk dir");

    let removed = gc_stale_spill_dirs();
    assert!(removed >= 1, "dead dir not collected");
    assert!(!dead.exists(), "dead process dir survived GC");
    assert!(own.exists(), "GC deleted a live process's dir");
    assert!(junk.exists(), "GC deleted an unparseable dir");

    let _ = std::fs::remove_dir_all(own);
    let _ = std::fs::remove_dir_all(junk);
}

#[test]
fn global_budget_caps_concurrent_queries_and_releases_fully() {
    let database = db(400_000);
    let plan = q1_plan();
    let (want, _) = execute(&database, &plan, &ExecOptions::default()).expect("unbounded");
    let want = format!("{want:?}");

    // Generous global budget: spilling queries run as usual, and when
    // every run file is gone the global ledger reads zero again.
    set_global_spill_budget(Some(256 << 20));
    let (res, _) = execute(&database, &plan, &pressured()).expect("within global budget");
    assert_eq!(format!("{res:?}"), want);
    assert_eq!(
        global_spill_used(),
        0,
        "spill files gone, charge must be too"
    );

    // A global budget far below one query's spill volume: the typed
    // error names the global ledger, and the failed query refunds
    // every byte it charged.
    set_global_spill_budget(Some(4 << 10));
    match execute(&database, &plan, &pressured()) {
        Err(EngineError::ResourceExhausted { operator, .. }) => {
            assert!(
                operator.contains("global spill budget"),
                "operator was {operator:?}"
            );
        }
        other => panic!("expected ResourceExhausted, got {other:?}"),
    }
    assert_eq!(
        global_spill_used(),
        0,
        "failed query must refund its charge"
    );

    // Budget cleared: the same pressured query succeeds again.
    set_global_spill_budget(None);
    let (res, _) = execute(&database, &plan, &pressured()).expect("unlimited again");
    assert_eq!(format!("{res:?}"), want);
    assert_eq!(global_spill_used(), 0);
}
