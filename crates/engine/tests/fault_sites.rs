//! Fault injection at every storage site: delta-insert reads and enum
//! dictionary lookups each surface a typed `PlanError::Io` through the
//! governor when their retry budget is exhausted, and the spill and
//! durable sites fail independently (DESIGN.md §8).

use x100_engine::expr::*;
use x100_engine::plan::Plan;
use x100_engine::session::{execute, Database, ExecOptions};
use x100_engine::{FaultPlan, FaultSite, PlanError};
use x100_storage::{FaultState, TableBuilder};
use x100_vector::{Value, Vector};

fn db_with_delta_and_enum() -> Database {
    let n = 500i64;
    let mut db = Database::new();
    let mut t = TableBuilder::new("orders")
        .column("id", Vector::I64((0..n).collect()))
        .column("amount", Vector::F64((0..n).map(|i| i as f64).collect()))
        .auto_enum_str(
            "status",
            (0..n)
                .map(|i| ["NEW", "OPEN"][(i % 2) as usize].to_owned())
                .collect(),
        )
        .build();
    // A handful of uncheckpointed inserts so the scan has a delta tail.
    for i in 0..10 {
        t.insert(&[
            Value::I64(n + i),
            Value::F64(0.5),
            Value::Str("NEW".to_owned()),
        ]);
    }
    db.register(t);
    db
}

fn certain(site_rate: fn(FaultPlan) -> FaultPlan) -> FaultPlan {
    // Rate 1.0 with no backoff: the first access of the target site
    // exhausts its retries immediately and deterministically.
    site_rate(FaultPlan {
        max_retries: 2,
        backoff_base_us: 0,
        ..FaultPlan::default()
    })
}

#[test]
fn delta_read_fault_surfaces_typed_io() {
    let db = db_with_delta_and_enum();
    let plan = Plan::scan("orders", &["id", "amount"]).select(gt(col("amount"), lit_f64(-1.0)));
    let opts = ExecOptions::default().with_fault_plan(certain(|p| p.delta_rate(1.0)));
    match execute(&db, &plan, &opts) {
        Err(PlanError::Io { site, detail, .. }) => {
            assert_eq!(site, FaultSite::DeltaRead);
            assert!(detail.contains("delta read"), "message was: {detail}")
        }
        other => panic!("expected Io from the delta-read site, got {other:?}"),
    }
    // The same query with faults only on the (unused) dictionary path
    // completes: 510 fragment+delta rows survive the filter.
    let opts = ExecOptions::default().with_fault_plan(certain(|p| p.dict_rate(1.0)));
    let (res, _) = execute(&db, &plan, &opts).expect("no dict lookups in this plan");
    assert_eq!(res.num_rows(), 510);
}

#[test]
fn dict_lookup_fault_surfaces_typed_io() {
    let db = db_with_delta_and_enum();
    // Scanning `status` WITHOUT code mode forces the Fetch1Join(ENUM)
    // decode, i.e. a dictionary lookup per vector.
    let plan = Plan::scan("orders", &["id", "status"]);
    let opts = ExecOptions::default().with_fault_plan(certain(|p| p.dict_rate(1.0)));
    match execute(&db, &plan, &opts) {
        Err(PlanError::Io { site, detail, .. }) => {
            assert_eq!(site, FaultSite::DictLookup);
            assert!(
                detail.contains("dictionary lookup"),
                "message was: {detail}"
            )
        }
        other => panic!("expected Io from the dict-lookup site, got {other:?}"),
    }
}

#[test]
fn spill_write_fault_surfaces_typed_io() {
    let fs = FaultState::new(certain(|p| p.spill_write_rate(1.0)));
    assert!(fs.check_site(FaultSite::SpillRead, 0).is_ok());
    let err = fs.check_site(FaultSite::SpillWrite, 7).unwrap_err();
    assert_eq!(err.site, FaultSite::SpillWrite);
    assert_eq!(err.col, 7);
    assert_eq!(err.attempts, 3); // 1 initial + max_retries(2)
}

#[test]
fn spill_read_fault_surfaces_typed_io() {
    let fs = FaultState::new(certain(|p| p.spill_read_rate(1.0)));
    assert!(fs.check_site(FaultSite::SpillWrite, 0).is_ok());
    let err = fs.check_site(FaultSite::SpillRead, 2).unwrap_err();
    assert_eq!(err.site, FaultSite::SpillRead);
    assert_eq!(err.col, 2);
}

#[test]
fn site_rates_are_independent() {
    let fs = FaultState::new(certain(|p| p.dict_rate(1.0)));
    assert!(fs.check_site(FaultSite::DeltaRead, 0).is_ok());
    assert!(fs.check_site(FaultSite::SpillRead, 0).is_ok());
    assert!(fs.check_site(FaultSite::DictLookup, 0).is_err());
    // Counters aggregated across sites: 1 error = retries + final.
    assert_eq!(fs.injected(), 3);
    assert_eq!(fs.retries(), 2);
}

#[test]
fn durable_write_sites_surface_typed_io() {
    // The durable checkpoint's two write sites are independent: chunk
    // replica writes and the committing manifest write.
    let fs = FaultState::new(certain(|p| p.durable_write_rate(1.0)));
    assert!(fs.check_site(FaultSite::ManifestWrite, 0).is_ok());
    let err = fs.check_site(FaultSite::DurableChunkWrite, 4).unwrap_err();
    assert_eq!(err.site, FaultSite::DurableChunkWrite);
    assert_eq!(err.attempts, 3); // 1 initial + max_retries(2)

    let fs = FaultState::new(certain(|p| p.manifest_write_rate(1.0)));
    assert!(fs.check_site(FaultSite::DurableChunkWrite, 0).is_ok());
    let err = fs.check_site(FaultSite::ManifestWrite, 0).unwrap_err();
    assert_eq!(err.site, FaultSite::ManifestWrite);
}

#[test]
fn durable_read_sites_surface_typed_io() {
    let fs = FaultState::new(certain(|p| p.durable_read_rate(1.0)));
    assert!(fs.check_site(FaultSite::ManifestRead, 0).is_ok());
    let err = fs.check_site(FaultSite::DurableChunkRead, 1).unwrap_err();
    assert_eq!(err.site, FaultSite::DurableChunkRead);

    let fs = FaultState::new(certain(|p| p.manifest_read_rate(1.0)));
    assert!(fs.check_site(FaultSite::DurableChunkRead, 0).is_ok());
    let err = fs.check_site(FaultSite::ManifestRead, 0).unwrap_err();
    assert_eq!(err.site, FaultSite::ManifestRead);
}

#[test]
fn pinned_site_kill_fires_once_without_retry() {
    // `pin_site` models SIGKILL, not a transient error: exactly the
    // nth check of the site fails, with a single attempt.
    let fs = FaultState::new(FaultPlan::default().pin_site(FaultSite::DurableChunkWrite, 1));
    assert!(fs.check_site(FaultSite::DurableChunkWrite, 0).is_ok()); // #0
    let err = fs.check_site(FaultSite::DurableChunkWrite, 0).unwrap_err(); // #1
    assert_eq!(err.attempts, 1);
    assert_eq!(fs.retries(), 0);
    assert!(fs.check_site(FaultSite::DurableChunkWrite, 0).is_ok()); // #2
}
