//! Acceptance test for storage fault injection (ISSUE 3): TPC-H Q1
//! under a 5% chunk-read fault rate must produce byte-identical results
//! to the no-fault run — faults are absorbed by bounded retry, never by
//! dropping or re-reading data incorrectly.
#![cfg(feature = "fault-inject")]

use std::sync::Arc;

use monetdb_x100::engine::session::{execute, ExecOptions};
use monetdb_x100::engine::FaultPlan;
use monetdb_x100::storage::ColumnBM;
use monetdb_x100::tpch;

#[test]
fn q1_is_byte_identical_under_five_percent_chunk_faults() {
    let li = tpch::generate_lineitem_q1(&tpch::GenConfig { sf: 0.01, seed: 42 });
    let mut db = tpch::build_x100_q1_db(&li);
    // Small chunks so the scan crosses many chunk boundaries and the 5%
    // rate injects plenty of faults even at this scale factor.
    db.attach_buffer_manager(Arc::new(ColumnBM::with_chunk_bytes(4096, 8 * 1024)));
    let plan = tpch::queries::q01::x100_plan();

    let (clean, _) = execute(&db, &plan, &ExecOptions::default()).expect("no-fault Q1");

    let fault = FaultPlan {
        max_retries: 32,
        backoff_base_us: 0,
        ..FaultPlan::with_rate(0.05, 0xC1D7_2005)
    };
    let opts = ExecOptions::default().profiled().with_fault_plan(fault);
    let (faulted, prof) = execute(&db, &plan, &opts).expect("faulted Q1 retried clean");

    assert_eq!(clean.row_strings(), faulted.row_strings());
    let injected = prof.counter("io_faults_injected").unwrap_or(0);
    assert!(injected > 0, "5% rate over many chunks must inject faults");
    assert_eq!(prof.counter("io_retries"), Some(injected));
}

#[test]
fn q1_parallel_matches_serial_under_faults() {
    let li = tpch::generate_lineitem_q1(&tpch::GenConfig { sf: 0.01, seed: 7 });
    let mut db = tpch::build_x100_q1_db(&li);
    db.attach_buffer_manager(Arc::new(ColumnBM::with_chunk_bytes(4096, 8 * 1024)));
    let plan = tpch::queries::q01::x100_plan();

    let (clean, _) = execute(&db, &plan, &ExecOptions::default()).expect("no-fault Q1");
    for threads in [2usize, 4, 8] {
        let fault = FaultPlan {
            max_retries: 32,
            backoff_base_us: 0,
            ..FaultPlan::with_rate(0.05, 0xBEEF)
        };
        let opts = ExecOptions::default()
            .parallel(threads)
            .with_fault_plan(fault);
        let (faulted, _) = execute(&db, &plan, &opts).expect("faulted parallel Q1");
        assert_eq!(
            clean.row_strings(),
            faulted.row_strings(),
            "threads={threads}"
        );
    }
}
