//! Resource-governor integration tests: memory budgets, cancellation,
//! deadlines, worker-panic containment, and storage fault injection —
//! exercised through whole query pipelines.

use std::time::Duration;

use x100_engine::expr::*;
use x100_engine::ops::{JoinType, OrdExp};
use x100_engine::plan::Plan;
use x100_engine::session::{execute, execute_as_given, Database, ExecOptions};
use x100_engine::{AggExpr, CancelToken, EngineError};
use x100_storage::TableBuilder;
use x100_vector::Vector;

/// A numeric fact table big enough to span many vectors and morsels.
fn fact_db(n: i64) -> Database {
    let t = TableBuilder::new("fact")
        .column("k", Vector::I64((0..n).map(|i| i % 97).collect()))
        .column("v", Vector::F64((0..n).map(|i| (i % 13) as f64).collect()))
        .column("w", Vector::I64((0..n).collect()))
        .build();
    let d = TableBuilder::new("dim")
        .column("k", Vector::I64((0..97).collect()))
        .column("label", Vector::I64((0..97).map(|i| i * 10).collect()))
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
        .column("g", Vector::I64((0..n).map(|i| i * 7919 % n).collect()))
        .column("sorted_g", Vector::I64((0..n).collect()))
        .column("v", Vector::F64((0..n).map(|i| i as f64).collect()))
        .build();
    let mut db = Database::new();
    db.register(t);
    let by = |key: &str| {
        Plan::scan("wide", &[key, "v"])
            .aggr(vec![("g", col(key))], vec![AggExpr::sum("s", col("v"))])
    };
    let opts = ExecOptions::default().with_mem_budget(32 * 1024);
    match execute_as_given(&db, &by("g"), &opts) {
        Err(EngineError::ResourceExhausted { operator, .. }) => {
            assert_eq!(operator, "hash aggregation table");
        }
        other => panic!("expected ResourceExhausted, got {other:?}"),
    }
    // `g` is dense ([0, n) over n rows), so rule `dense-keys-direct-aggr`
    // groups it in a direct table: its fixed charge of a slot per key
    // value, made before the first row, is what exceeds the budget.
    match execute(&db, &by("g"), &opts) {
        Err(EngineError::ResourceExhausted {
            operator,
            requested,
            ..
        }) => {
            assert_eq!(operator, "direct aggregation table");
            assert!(requested >= n as usize * 20, "{requested}");
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
        .column("d", Vector::I64((0..dim_rows as i64).collect()))
        .build();
    let fact = TableBuilder::new("fact")
        .column(
            "rid",
            Vector::U32((0..fact_rows).map(|i| i * 31 % dim_rows).collect()),
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
    // ResourceExhausted, not the siblings' Cancelled. The keys are a
    // permutation: sorted ones would stream on one thread, unsplit.
    let n = 200_000i64;
    let t = TableBuilder::new("wide")
        .column("g", Vector::I64((0..n).map(|i| i * 7919 % n).collect()))
        .column("v", Vector::F64((0..n).map(|i| i as f64).collect()))
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

/// Storage fault injection end-to-end, at the two scan sites: the
/// dictionary lookup of an enum column read as values, and the read of
/// a pending insert delta.
mod fault_inject {
    use super::*;
    use x100_engine::{FaultPlan, FaultSite};
    use x100_vector::Value;

    /// `fact` with an enum column `tag` and, with `pending`, inserts
    /// waiting in its delta.
    fn tagged_db(n: i64, pending: i64) -> Database {
        let mut t = TableBuilder::new("fact")
            .column("k", Vector::I64((0..n).map(|i| i % 97).collect()))
            .column("v", Vector::F64((0..n).map(|i| (i % 13) as f64).collect()))
            .auto_enum_str(
                "tag",
                (0..n)
                    .map(|i| ["AIR", "MAIL", "SHIP"][(i % 3) as usize].into())
                    .collect(),
            )
            .build();
        for i in 0..pending {
            t.insert(&[
                Value::I64(i % 97),
                Value::F64(0.5),
                Value::Str("RAIL".into()),
            ]);
        }
        let mut db = Database::new();
        db.register(t);
        db
    }

    /// `tag` is read as values: every vector gathers through the
    /// dictionary (site `DictLookup`), fragment and delta alike.
    fn tagged_plan() -> Plan {
        Plan::scan("fact", &["k", "v", "tag"])
    }

    /// Faults at `rate` on one site, retried without sleeping.
    fn faults(site: FaultSite, rate: f64, max_retries: u32) -> FaultPlan {
        let plan = FaultPlan {
            max_retries,
            backoff_base_us: 0,
            seed: 0xDEC0DE,
            ..FaultPlan::default()
        };
        match site {
            FaultSite::DeltaRead => plan.delta_rate(rate),
            _ => plan.dict_rate(rate),
        }
    }

    #[test]
    fn dict_faults_within_the_budget_leave_answers_identical() {
        let db = tagged_db(20_000, 0);
        let (want, _) = execute(&db, &tagged_plan(), &ExecOptions::default()).expect("clean");
        let opts = (ExecOptions::default().profiled()).with_fault_plan(faults(
            FaultSite::DictLookup,
            0.3,
            20,
        ));
        let (got, prof) = execute(&db, &tagged_plan(), &opts).expect("faults retried away");
        assert_eq!(want.row_strings(), got.row_strings());
        // Every injected fault was retried away: none exhausted a budget.
        let injected = prof.counter("io_faults_injected").unwrap_or(0);
        assert!(injected > 0);
        assert_eq!(prof.counter("io_retries"), Some(injected));
    }

    #[test]
    fn random_delta_faults_under_retry_budget_do_not_change_results() {
        let db = tagged_db(50_000, 3_000);
        let plan = Plan::scan("fact", &["k", "v"])
            .select(lt(col("k"), lit_i64(90)))
            .aggr(vec![("k", col("k"))], vec![AggExpr::sum("s", col("v"))])
            .order(vec![OrdExp::asc("k")]);
        let (want, _) = execute(&db, &plan, &ExecOptions::default()).expect("clean");
        for threads in [1usize, 2] {
            let opts = (ExecOptions::default().profiled().parallel(threads))
                .with_fault_plan(faults(FaultSite::DeltaRead, 0.05, 20));
            let (got, prof) = execute(&db, &plan, &opts).expect("faults retried away");
            assert_eq!(want.row_strings(), got.row_strings(), "threads={threads}");
            assert!(prof.counter("io_faults_injected").unwrap_or(0) > 0);
        }
    }

    #[test]
    fn exhausted_retries_surface_a_typed_io_error() {
        for (site, pending, what) in [
            (FaultSite::DictLookup, 0, "dictionary lookup"),
            (FaultSite::DeltaRead, 10, "delta read"),
        ] {
            let db = tagged_db(20_000, pending);
            let opts = ExecOptions::default().with_fault_plan(faults(site, 1.0, 2));
            match execute(&db, &tagged_plan(), &opts) {
                Err(EngineError::Io {
                    site: got, detail, ..
                }) => {
                    assert_eq!(got, site);
                    assert!(detail.contains(what), "got {detail:?}");
                    assert!(detail.contains("after 3 attempts"), "got {detail:?}");
                }
                other => panic!("expected Io at {site}, got {other:?}"),
            }
        }
    }

    #[test]
    fn concurrent_queries_have_independent_fault_state() {
        // Queries with the same seeded plan each draw their own faults —
        // per-query FaultState, not global: run alone or side by side,
        // each injects exactly as many.
        let db = tagged_db(20_000, 0);
        let opts = (ExecOptions::default().profiled()).with_fault_plan(faults(
            FaultSite::DictLookup,
            0.3,
            20,
        ));
        let injected = || {
            let (res, prof) = execute(&db, &tagged_plan(), &opts).expect("runs");
            assert_eq!(res.num_rows(), 20_000);
            prof.counter("io_faults_injected").unwrap_or(0)
        };
        let alone = injected();
        assert!(alone > 0);
        std::thread::scope(|s| {
            let runs: Vec<_> = (0..2).map(|_| s.spawn(injected)).collect();
            for r in runs {
                assert_eq!(r.join().expect("query thread"), alone);
            }
        });
    }
}
