//! Resource-governor integration tests: memory budgets, cancellation,
//! deadlines, worker-panic containment, and (feature-gated) storage
//! fault injection — exercised through whole query pipelines.

use std::time::Duration;

use x100_engine::expr::*;
use x100_engine::ops::{JoinType, OrdExp};
use x100_engine::plan::Plan;
use x100_engine::session::{execute, Database, ExecOptions};
use x100_engine::{AggExpr, CancelToken, EngineError};
use x100_storage::{ColumnData, TableBuilder};

/// A numeric fact table big enough to span many vectors and morsels.
fn fact_db(n: i64) -> Database {
    let t = TableBuilder::new("fact")
        .column("k", ColumnData::I64((0..n).map(|i| i % 97).collect()))
        .column(
            "v",
            ColumnData::F64((0..n).map(|i| (i % 13) as f64).collect()),
        )
        .column("w", ColumnData::I64((0..n).collect()))
        .build();
    let d = TableBuilder::new("dim")
        .column("k", ColumnData::I64((0..97).collect()))
        .column("label", ColumnData::I64((0..97).map(|i| i * 10).collect()))
        .build();
    let mut db = Database::new();
    db.register(t);
    db.register(d);
    db
}

/// Every plan shape the governor must interrupt cleanly: scan, select,
/// hash-join build+probe, aggregation, and (under threads > 1) the
/// partial-aggregate merge.
fn stage_plans() -> Vec<(&'static str, Plan)> {
    let join = Plan::HashJoin {
        build: Box::new(Plan::scan("dim", &["k", "label"])),
        probe: Box::new(Plan::scan("fact", &["k", "v"])),
        build_keys: vec![col("k")],
        probe_keys: vec![col("k")],
        payload: vec![("label".into(), "label".into())],
        join_type: JoinType::Inner,
    };
    vec![
        ("scan", Plan::scan("fact", &["k", "v"])),
        (
            "select",
            Plan::scan("fact", &["k", "v"]).select(lt(col("k"), lit_i64(50))),
        ),
        ("join", join),
        (
            "aggr",
            Plan::scan("fact", &["k", "v"]).aggr(
                vec![("k", col("k"))],
                vec![AggExpr::sum("s", col("v")), AggExpr::count("n")],
            ),
        ),
        (
            "aggr-merge",
            Plan::scan("fact", &["k", "v"])
                .select(lt(col("k"), lit_i64(90)))
                .aggr(vec![("k", col("k"))], vec![AggExpr::sum("s", col("v"))])
                .order(vec![OrdExp::asc("k")]),
        ),
    ]
}

#[test]
fn pre_cancelled_queries_error_at_every_stage_and_thread_count() {
    let db = fact_db(20_000);
    for (stage, plan) in stage_plans() {
        for threads in [1usize, 2, 4, 8] {
            let token = CancelToken::new();
            token.cancel();
            let opts = ExecOptions::default()
                .parallel(threads)
                .with_morsel_size(1024)
                .with_cancel_token(token);
            let err = execute(&db, &plan, &opts)
                .map(|(r, _)| r.num_rows())
                .expect_err(&format!("{stage} x{threads} must not complete"));
            assert_eq!(
                err,
                EngineError::Cancelled,
                "{stage} x{threads}: wrong error"
            );
        }
    }
}

#[test]
fn expired_deadline_errors_at_every_stage_and_thread_count() {
    let db = fact_db(20_000);
    for (stage, plan) in stage_plans() {
        for threads in [1usize, 2, 4, 8] {
            let opts = ExecOptions::default()
                .parallel(threads)
                .with_morsel_size(1024)
                .with_timeout(Duration::ZERO);
            let err = execute(&db, &plan, &opts)
                .map(|(r, _)| r.num_rows())
                .expect_err(&format!("{stage} x{threads} must not complete"));
            // The first observer reports the deadline; a worker that
            // loses the race sees the cancellation it triggered. The
            // parallel driver prefers the root cause when it has one.
            assert!(
                matches!(err, EngineError::DeadlineExceeded | EngineError::Cancelled),
                "{stage} x{threads}: wrong error {err:?}"
            );
        }
    }
}

#[test]
fn mid_flight_cancellation_is_typed_not_partial() {
    // Cancel from another thread while the query runs; whatever the
    // timing, the result is either complete or a typed Cancelled error.
    let db = fact_db(200_000);
    let plan = Plan::scan("fact", &["k", "v"])
        .aggr(vec![("k", col("k"))], vec![AggExpr::sum("s", col("v"))]);
    for threads in [1usize, 4] {
        let token = CancelToken::new();
        let killer = {
            let token = token.clone();
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_micros(200));
                token.cancel();
            })
        };
        let opts = ExecOptions::default()
            .parallel(threads)
            .with_cancel_token(token);
        match execute(&db, &plan, &opts) {
            Ok((res, _)) => assert_eq!(res.num_rows(), 97),
            Err(e) => assert_eq!(e, EngineError::Cancelled),
        }
        killer.join().expect("killer thread");
    }
}

#[test]
fn join_build_respects_memory_budget() {
    let db = fact_db(50_000);
    let plan = Plan::HashJoin {
        // Build over the big fact side so the budget trips during build.
        build: Box::new(Plan::scan("fact", &["k", "w"])),
        probe: Box::new(Plan::scan("dim", &["k"])),
        build_keys: vec![col("k")],
        probe_keys: vec![col("k")],
        payload: vec![("w".into(), "w".into())],
        join_type: JoinType::Inner,
    };
    let opts = ExecOptions::default().with_mem_budget(64 * 1024);
    match execute(&db, &plan, &opts) {
        Err(EngineError::ResourceExhausted {
            operator,
            requested,
            budget,
        }) => {
            assert_eq!(operator, "hash-join build");
            assert!(requested > budget);
            assert_eq!(budget, 64 * 1024);
        }
        other => panic!("expected ResourceExhausted, got {other:?}"),
    }
    // The same join completes under an ample budget.
    let ample = ExecOptions::default().with_mem_budget(64 * 1024 * 1024);
    let (res, _) = execute(&db, &plan, &ample).expect("ample budget");
    assert!(res.num_rows() > 0);
}

#[test]
fn aggregation_respects_memory_budget() {
    let n = 50_000i64;
    let t = TableBuilder::new("wide")
        // One group per row, in no order: the hash table grows with
        // the input.
        .column("g", ColumnData::I64((0..n).map(|i| i * 7919 % n).collect()))
        .column("sorted_g", ColumnData::I64((0..n).collect()))
        .column("v", ColumnData::F64((0..n).map(|i| i as f64).collect()))
        .build();
    let mut db = Database::new();
    db.register(t);
    let by = |key: &str| {
        Plan::scan("wide", &[key, "v"])
            .aggr(vec![("g", col(key))], vec![AggExpr::sum("s", col("v"))])
    };
    let opts = ExecOptions::default().with_mem_budget(32 * 1024);
    match execute(&db, &by("g"), &opts) {
        Err(EngineError::ResourceExhausted { operator, .. }) => {
            assert_eq!(operator, "hash aggregation table");
        }
        other => panic!("expected ResourceExhausted, got {other:?}"),
    }
    // As many groups on a key proven sorted: the ordered aggregation
    // holds one vector of them at a time, and the budget is simply met.
    let (res, _) = execute(&db, &by("sorted_g"), &opts).expect("streams");
    assert_eq!(res.num_rows(), n as usize);
}

/// Rule `select-before-fetch` evaluates a predicate over the dimension
/// table into one byte per row, shared by every morsel worker: the
/// query is charged for it once, whatever the thread count.
#[test]
fn derived_fetch_column_is_charged_once_across_workers() {
    let (dim_rows, fact_rows) = (1u32 << 16, 1u32 << 19);
    let dim = TableBuilder::new("dim")
        .column("d", ColumnData::I64((0..dim_rows as i64).collect()))
        .build();
    let fact = TableBuilder::new("fact")
        .column(
            "rid",
            ColumnData::U32((0..fact_rows).map(|i| i * 31 % dim_rows).collect()),
        )
        .build();
    let mut db = Database::new();
    db.register(dim);
    db.register(fact);
    let plan = Plan::scan("fact", &["rid"])
        .fetch1("dim", col("rid"), &[("d", "d")])
        .select(lt(col("d"), lit_i64(1000)))
        .aggr(vec![], vec![AggExpr::count("n")]);
    let small = ExecOptions::with_vector_size(64).profiled();
    let mut counts = Vec::new();
    for threads in [1usize, 4] {
        let (res, prof) = execute(&db, &plan, &small.clone().parallel(threads)).expect("runs");
        let peak = prof.counter("gov_mem_peak").expect("tracked") as usize;
        let bytes = dim_rows as usize;
        assert!(
            (bytes..2 * bytes).contains(&peak),
            "threads {threads}: peak {peak} for a {bytes}-byte column"
        );
        counts.push(format!("{res:?}"));
    }
    assert_eq!(counts[0], counts[1]);
    // A budget the byte column does not fit in fails typed, on its name.
    let tight = small.with_mem_budget(dim_rows as usize / 2);
    match execute(&db, &plan, &tight) {
        Err(EngineError::ResourceExhausted { operator, .. }) => {
            assert_eq!(operator, "derived fetch column");
        }
        other => panic!("expected ResourceExhausted, got {other:?}"),
    }
}

#[test]
fn order_buffer_respects_memory_budget() {
    let db = fact_db(100_000);
    let plan = Plan::scan("fact", &["w", "v"]).order(vec![OrdExp::desc("w")]);
    let opts = ExecOptions::default().with_mem_budget(64 * 1024);
    match execute(&db, &plan, &opts) {
        Err(EngineError::ResourceExhausted { operator, .. }) => {
            assert_eq!(operator, "order/top-n buffer");
        }
        other => panic!("expected ResourceExhausted, got {other:?}"),
    }
}

#[test]
fn budget_errors_prefer_root_cause_over_sibling_cancellation() {
    // Parallel aggregation under a tiny budget: one worker trips the
    // budget and cancels the rest; the reported error must still be
    // ResourceExhausted, not the siblings' Cancelled.
    let n = 200_000i64;
    let t = TableBuilder::new("wide")
        .column("g", ColumnData::I64((0..n).collect()))
        .column("v", ColumnData::F64((0..n).map(|i| i as f64).collect()))
        .build();
    let mut db = Database::new();
    db.register(t);
    let plan = Plan::scan("wide", &["g", "v"])
        .aggr(vec![("g", col("g"))], vec![AggExpr::sum("s", col("v"))]);
    let opts = ExecOptions::default()
        .parallel(4)
        .with_mem_budget(64 * 1024);
    match execute(&db, &plan, &opts) {
        Err(EngineError::ResourceExhausted { .. }) => {}
        other => panic!("expected ResourceExhausted, got {other:?}"),
    }
}

#[test]
fn worker_panic_is_contained_and_typed_at_threads_8() {
    let db = fact_db(100_000);
    let plan = Plan::scan("fact", &["k", "v"])
        .aggr(vec![("k", col("k"))], vec![AggExpr::sum("s", col("v"))]);
    let opts = ExecOptions::default()
        .parallel(8)
        .with_morsel_size(1024)
        .with_panic_probe(3);
    // The panic unwinds one worker; catch_unwind turns it into a typed
    // error, cancellation stops the siblings, and *all* of them are
    // joined before execute returns (thread::scope guarantees no
    // stragglers outlive this call).
    match execute(&db, &plan, &opts) {
        Err(EngineError::WorkerPanic { worker, cause }) => {
            assert!(worker < 8, "worker index in range, got {worker}");
            assert!(
                cause.contains("panic probe"),
                "cause carries the panic message, got {cause:?}"
            );
        }
        other => panic!("expected WorkerPanic, got {other:?}"),
    }
    // The database stays usable after the contained panic.
    let (res, _) = execute(&db, &plan, &ExecOptions::default()).expect("clean rerun");
    assert_eq!(res.num_rows(), 97);
}

#[test]
fn governor_counters_are_published() {
    let db = fact_db(20_000);
    let plan = Plan::scan("fact", &["w", "v"]).order(vec![OrdExp::asc("w")]);
    let opts = ExecOptions::default().profiled().with_mem_budget(1 << 30);
    let (res, prof) = execute(&db, &plan, &opts).expect("runs");
    assert_eq!(res.num_rows(), 20_000);
    assert!(prof.counter("gov_cancel_checks").unwrap_or(0) > 0);
    assert!(prof.counter("gov_mem_peak").unwrap_or(0) > 0);
}

#[test]
fn governed_results_match_ungoverned_results() {
    // The governor must be observation-only on the happy path: same
    // rows with and without budget/timeout knobs, across thread counts.
    let db = fact_db(30_000);
    let plan = Plan::scan("fact", &["k", "v"])
        .select(lt(col("k"), lit_i64(80)))
        .aggr(vec![("k", col("k"))], vec![AggExpr::sum("s", col("v"))])
        .order(vec![OrdExp::asc("k")]);
    let (plain, _) = execute(&db, &plan, &ExecOptions::default()).expect("plain");
    for threads in [1usize, 2, 8] {
        let opts = ExecOptions::default()
            .parallel(threads)
            .with_mem_budget(1 << 30)
            .with_timeout(Duration::from_secs(3600));
        let (gov, _) = execute(&db, &plan, &opts).expect("governed");
        assert_eq!(plain.row_strings(), gov.row_strings(), "threads={threads}");
    }
}

/// Storage fault injection end-to-end: only meaningful with the
/// `fault-inject` cargo feature (otherwise `FaultPlan` is inert).
#[cfg(feature = "fault-inject")]
mod fault_inject {
    use super::*;
    use std::sync::Arc;
    use x100_engine::FaultPlan;
    use x100_storage::ColumnBM;

    /// `fact_db` with a ColumnBM attached so scans go through the
    /// (fault-injectable) chunk-read path. Small chunks make even a
    /// modest table span many chunk reads.
    fn fact_db_with_bm(n: i64) -> Database {
        let mut db = fact_db(n);
        db.attach_buffer_manager(Arc::new(ColumnBM::with_chunk_bytes(1024, 4 * 1024)));
        db
    }

    #[test]
    fn pinned_chunk_failing_twice_still_yields_correct_results() {
        let db = fact_db_with_bm(20_000);
        let plan = Plan::scan("fact", &["k", "v"])
            .aggr(vec![("k", col("k"))], vec![AggExpr::sum("s", col("v"))])
            .order(vec![OrdExp::asc("k")]);
        let (want, _) = execute(&db, &plan, &ExecOptions::default()).expect("no faults");
        let fault = FaultPlan {
            backoff_base_us: 0,
            ..FaultPlan::default()
        }
        .pin(0, 0, 2)
        .pin(1, 3, 2);
        let opts = ExecOptions::default().profiled().with_fault_plan(fault);
        let (got, prof) = execute(&db, &plan, &opts).expect("faults retried away");
        assert_eq!(want.row_strings(), got.row_strings());
        assert_eq!(prof.counter("io_faults_injected"), Some(4));
        assert_eq!(prof.counter("io_retries"), Some(4));
    }

    #[test]
    fn random_faults_under_retry_budget_do_not_change_results() {
        let db = fact_db_with_bm(50_000);
        let plan = Plan::scan("fact", &["k", "v"])
            .select(lt(col("k"), lit_i64(90)))
            .aggr(vec![("k", col("k"))], vec![AggExpr::sum("s", col("v"))])
            .order(vec![OrdExp::asc("k")]);
        let (want, _) = execute(&db, &plan, &ExecOptions::default()).expect("no faults");
        let fault = FaultPlan {
            max_retries: 20,
            backoff_base_us: 0,
            ..FaultPlan::with_rate(0.05, 0xDEC0DE)
        };
        let opts = ExecOptions::default().profiled().with_fault_plan(fault);
        let (got, prof) = execute(&db, &plan, &opts).expect("faults retried away");
        assert_eq!(want.row_strings(), got.row_strings());
        assert!(prof.counter("io_faults_injected").unwrap_or(0) > 0);
    }

    #[test]
    fn exhausted_retries_surface_a_typed_io_error() {
        let db = fact_db_with_bm(20_000);
        let plan = Plan::scan("fact", &["k", "v"]);
        // A pinned chunk failing more times than the retry budget allows.
        let fault = FaultPlan {
            max_retries: 2,
            backoff_base_us: 0,
            ..FaultPlan::default()
        }
        .pin(0, 0, 10);
        let opts = ExecOptions::default().with_fault_plan(fault);
        match execute(&db, &plan, &opts) {
            Err(EngineError::Io { site, detail, .. }) => {
                assert_eq!(site, x100_storage::FaultSite::ChunkRead);
                assert!(detail.contains("chunk"), "got {detail:?}");
            }
            other => panic!("expected Io error, got {other:?}"),
        }
    }

    #[test]
    fn concurrent_queries_have_independent_fault_state() {
        // Two governed runs with the same pinned plan each consume their
        // own failures — per-query FaultState, not global.
        let db = fact_db_with_bm(20_000);
        let plan = Plan::scan("fact", &["k"]);
        for _ in 0..2 {
            let fault = FaultPlan {
                backoff_base_us: 0,
                ..FaultPlan::default()
            }
            .pin(0, 0, 2);
            let opts = ExecOptions::default().profiled().with_fault_plan(fault);
            let (res, prof) = execute(&db, &plan, &opts).expect("runs");
            assert_eq!(res.num_rows(), 20_000);
            assert_eq!(prof.counter("io_faults_injected"), Some(2));
        }
    }
}
