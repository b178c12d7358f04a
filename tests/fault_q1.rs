//! Acceptance test for storage fault injection: TPC-H Q1 over a
//! lineitem with a pending insert delta, under a 5% delta-read fault
//! rate, must produce byte-identical results to the no-fault run —
//! faults are absorbed by bounded retry, never by dropping or
//! re-reading data incorrectly.

use monetdb_x100::engine::session::{execute, Database, ExecOptions};
use monetdb_x100::engine::FaultPlan;
use monetdb_x100::tpch;

/// Q1's lineitem at SF 0.01 (seeded), its first 20 000 rows inserted
/// again as pending inserts, so every scan reads about twenty delta
/// vectors per column — each delta read one draw of the fault plan.
fn q1_db_with_deltas(seed: u64) -> Database {
    let li = tpch::generate_lineitem_q1(&tpch::GenConfig { sf: 0.01, seed });
    let mut t = tpch::db::build_lineitem(&li);
    for r in 0..20_000 {
        let row = t.get_row(r);
        t.insert(&row);
    }
    let mut db = Database::new();
    db.register(t);
    db
}

fn delta_faults(seed: u64) -> FaultPlan {
    FaultPlan {
        max_retries: 32,
        backoff_base_us: 0,
        seed,
        ..FaultPlan::default().delta_rate(0.05)
    }
}

#[test]
fn q1_is_byte_identical_under_five_percent_delta_faults() {
    let db = q1_db_with_deltas(42);
    let plan = tpch::queries::q01::x100_plan();

    let (clean, _) = execute(&db, &plan, &ExecOptions::default()).expect("no-fault Q1");

    let opts = (ExecOptions::default().profiled()).with_fault_plan(delta_faults(0xC1D7_2005));
    let (faulted, prof) = execute(&db, &plan, &opts).expect("faulted Q1 retried clean");

    assert_eq!(clean.row_strings(), faulted.row_strings());
    let injected = prof.counter("io_faults_injected").unwrap_or(0);
    assert!(
        injected > 0,
        "5% rate over many delta reads must inject faults"
    );
    assert_eq!(prof.counter("io_retries"), Some(injected));
}

/// On morsel workers the answer under faults is the same run's answer
/// without them: morsels go to workers by index, so the f64 sums add up
/// in one order (it differs from the sequential order in the last ulp).
#[test]
fn q1_parallel_is_byte_identical_under_faults() {
    let db = q1_db_with_deltas(7);
    let plan = tpch::queries::q01::x100_plan();
    for threads in [2usize, 4, 8] {
        let opts = ExecOptions::default().parallel(threads);
        let (clean, _) = execute(&db, &plan, &opts).expect("no-fault parallel Q1");
        let faulty = opts.with_fault_plan(delta_faults(0xBEEF));
        let (faulted, _) = execute(&db, &plan, &faulty).expect("faulted parallel Q1");
        assert_eq!(
            clean.row_strings(),
            faulted.row_strings(),
            "threads={threads}"
        );
    }
}
