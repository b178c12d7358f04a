//! Spill-to-disk determinism and hygiene suite (DESIGN.md §12).
//!
//! Graceful degradation contract: a query that exceeds its memory
//! budget but holds a spill budget completes with *byte-identical*
//! results to the unbounded run, at every thread count; temp files
//! never outlive the query, whether it succeeds, is cancelled, or a
//! worker panics; and `ResourceExhausted` surfaces only when the spill
//! budget is exhausted too.
//!
//! The suite serializes through a file-local mutex: the zero-temp-file
//! assertions scan `temp_dir()` for this process's `x100-spill-<pid>-*`
//! directories, which would race against a concurrently spilling test
//! in the same binary.

use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Duration;

use x100_engine::expr::*;
use x100_engine::ops::OrdExp;
use x100_engine::plan::Plan;
use x100_engine::session::{execute, execute_as_given, Database, ExecOptions};
use x100_engine::{AggExpr, CancelToken, EngineError};
use x100_storage::TableBuilder;
use x100_vector::Vector;

const THREADS: [usize; 4] = [1, 2, 4, 8];

fn lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    // A poisoned lock only means another test failed; the temp-dir
    // scans are still valid.
    match LOCK.get_or_init(|| Mutex::new(())).lock() {
        Ok(g) => g,
        Err(p) => p.into_inner(),
    }
}

/// Spill directories this process currently holds open, under the
/// shared spill root (`$TMPDIR/x100-spill/q-{pid}-{epoch}`).
fn live_spill_dirs() -> Vec<String> {
    let prefix = format!("q-{}-", std::process::id());
    let Ok(rd) = std::fs::read_dir(x100_engine::spill_root()) else {
        return Vec::new();
    };
    rd.flatten()
        .filter_map(|e| e.file_name().into_string().ok())
        .filter(|n| n.starts_with(&prefix))
        .collect()
}

/// A Q1-style fact table. Every `f64` is a multiple of 0.25, so sums
/// and merges reassociate without rounding: byte-identity across
/// different merge orders is exact, not approximate.
fn db(n: i64) -> Database {
    let t = TableBuilder::new("lineitem")
        .column("id", Vector::I64((0..n).collect()))
        .column(
            "flag",
            Vector::I64((0..n).map(|i| (i * 7919) % 500).collect()),
        )
        .column(
            "qty",
            Vector::F64((0..n).map(|i| ((i * 31) % 400) as f64 * 0.25).collect()),
        )
        .column(
            "price",
            Vector::F64((0..n).map(|i| ((i * 17) % 800) as f64 * 0.25).collect()),
        )
        .build();
    let mut db = Database::new();
    db.register(t);
    db
}

/// Q1 shape: selection, grouped sums/count/min, deterministic output
/// order (the spilled aggregate emits partition-major, so ordering is
/// part of the query, as in TPC-H Q1 itself).
fn q1_plan() -> Plan {
    Plan::scan("lineitem", &["flag", "qty", "price"])
        .select(lt(col("flag"), lit_i64(450)))
        .aggr(
            vec![("flag", col("flag"))],
            vec![
                AggExpr::sum("sum_qty", col("qty")),
                AggExpr::sum("sum_price", col("price")),
                AggExpr::min("min_qty", col("qty")),
                AggExpr::count("n"),
            ],
        )
        .order(vec![OrdExp::asc("flag")])
}

fn render(res: &x100_engine::QueryResult) -> String {
    format!("{res:?}")
}

/// Budgets derived from the measured unbounded working set: generous
/// (2x, should rarely spill), pressured (0.5x), and hostile (0.1x).
fn budget_ladder(db: &Database, plan: &Plan) -> (String, Vec<(f64, usize)>) {
    let (base, prof) = execute(db, plan, &ExecOptions::default().profiled()).expect("unbounded");
    let peak = prof.counter("gov_mem_peak").expect("peak tracked") as f64;
    let ladder = [2.0, 0.5, 0.1]
        .iter()
        .map(|f| (*f, (peak * f) as usize))
        .collect();
    (render(&base), ladder)
}

#[test]
fn q1_aggregation_is_byte_identical_across_budgets_and_threads() {
    let _g = lock();
    let db = db(60_000);
    let plan = q1_plan();
    let (expected, ladder) = budget_ladder(&db, &plan);
    for (factor, budget) in ladder {
        for threads in THREADS {
            let opts = ExecOptions::default()
                .profiled()
                .parallel(threads)
                .with_mem_budget(budget)
                .with_spill_budget(256 << 20);
            let (res, prof) = execute(&db, &plan, &opts)
                .unwrap_or_else(|e| panic!("budget {factor}x threads {threads}: {e:?}"));
            assert_eq!(
                render(&res),
                expected,
                "budget {factor}x threads {threads} diverged"
            );
            if factor < 1.0 {
                assert!(
                    prof.counter("spill_runs").unwrap_or(0) > 0,
                    "budget {factor}x threads {threads} should have spilled"
                );
                assert!(prof.counter("spill_bytes_written").unwrap_or(0) > 0);
            }
        }
    }
    assert!(live_spill_dirs().is_empty(), "spill dirs leaked");
}

/// An aggregate list that interleaves everything the update pass
/// treats differently — f64 sums and averages (fused, and more of them
/// than one fused pass takes), an i64 sum, f64 and i64 MIN/MAX, COUNT —
/// against a scalar fold of the same rows, on one and two threads, in
/// memory and spilled.
#[test]
fn interleaved_aggregate_list_matches_a_scalar_fold() {
    use std::collections::BTreeMap;
    use x100_vector::Value;
    let _g = lock();
    let n = 60_000i64;
    let db = db(n);
    let qp = || add(col("qty"), col("price"));
    let plan = Plan::scan("lineitem", &["id", "flag", "qty", "price"])
        .aggr(
            vec![("flag", col("flag"))],
            vec![
                AggExpr::sum("sum_qty", col("qty")),
                AggExpr::sum("sum_id", col("id")),
                AggExpr::min("min_price", col("price")),
                AggExpr::avg("avg_qty", col("qty")),
                AggExpr::count("n"),
                AggExpr::max("max_id", col("id")),
                AggExpr::sum("sum_price", col("price")),
                AggExpr::avg("avg_price", col("price")),
                AggExpr::max("max_qty", col("qty")),
                AggExpr::sum("sum_qp", qp()),
                AggExpr::min("min_id", col("id")),
                AggExpr::sum("sum_qq", add(col("qty"), col("qty"))),
                AggExpr::avg("avg_qp", qp()),
                AggExpr::sum("sum_pp", add(col("price"), col("price"))),
                AggExpr::sum("sum_qqp", add(col("qty"), qp())),
                AggExpr::count("n_again"),
            ],
        )
        .order(vec![OrdExp::asc("flag")]);

    // (count, Σqty, Σprice, Σid, min/max price/qty/id) per flag; every
    // f64 is a multiple of 0.25, so any summation order is exact.
    #[derive(Clone, Copy)]
    struct Fold {
        n: i64,
        qty: f64,
        price: f64,
        id: i64,
        min_price: f64,
        max_qty: f64,
        min_id: i64,
        max_id: i64,
    }
    let mut want: BTreeMap<i64, Fold> = BTreeMap::new();
    for i in 0..n {
        let (qty, price) = (
            ((i * 31) % 400) as f64 * 0.25,
            ((i * 17) % 800) as f64 * 0.25,
        );
        let f = want.entry((i * 7919) % 500).or_insert(Fold {
            n: 0,
            qty: 0.0,
            price: 0.0,
            id: 0,
            min_price: f64::MAX,
            max_qty: f64::MIN,
            min_id: i64::MAX,
            max_id: i64::MIN,
        });
        f.n += 1;
        f.qty += qty;
        f.price += price;
        f.id += i;
        f.min_price = f.min_price.min(price);
        f.max_qty = f.max_qty.max(qty);
        f.min_id = f.min_id.min(i);
        f.max_id = f.max_id.max(i);
    }

    let (_, ladder) = budget_ladder(&db, &plan);
    let budgets = [None, Some(ladder[2].1)];
    for threads in [1, 2] {
        for budget in budgets {
            let mut opts = ExecOptions::default().profiled().parallel(threads);
            if let Some(b) = budget {
                opts = opts.with_mem_budget(b).with_spill_budget(256 << 20);
            }
            let (res, prof) = execute(&db, &plan, &opts)
                .unwrap_or_else(|e| panic!("threads {threads} budget {budget:?}: {e:?}"));
            if budget.is_some() {
                assert!(prof.counter("spill_runs").unwrap_or(0) > 0, "should spill");
            }
            assert_eq!(res.num_rows(), want.len());
            for (r, (flag, f)) in want.iter().enumerate() {
                let nf = f.n as f64;
                let expect = [
                    ("flag", Value::I64(*flag)),
                    ("sum_qty", Value::F64(f.qty)),
                    ("sum_id", Value::I64(f.id)),
                    ("min_price", Value::F64(f.min_price)),
                    ("avg_qty", Value::F64(f.qty / nf)),
                    ("n", Value::I64(f.n)),
                    ("max_id", Value::I64(f.max_id)),
                    ("sum_price", Value::F64(f.price)),
                    ("avg_price", Value::F64(f.price / nf)),
                    ("max_qty", Value::F64(f.max_qty)),
                    ("sum_qp", Value::F64(f.qty + f.price)),
                    ("min_id", Value::I64(f.min_id)),
                    ("sum_qq", Value::F64(f.qty + f.qty)),
                    ("avg_qp", Value::F64((f.qty + f.price) / nf)),
                    ("sum_pp", Value::F64(f.price + f.price)),
                    ("sum_qqp", Value::F64(f.qty + f.qty + f.price)),
                    ("n_again", Value::I64(f.n)),
                ];
                for (c, (name, value)) in expect.iter().enumerate() {
                    assert_eq!(res.col_index(name), Some(c), "column order");
                    assert_eq!(
                        &res.value(r, c),
                        value,
                        "{name} of flag {flag}, threads {threads}, budget {budget:?}"
                    );
                }
            }
        }
    }
    assert!(live_spill_dirs().is_empty(), "spill dirs leaked");
}

#[test]
fn order_and_topn_are_byte_identical_across_budgets_and_threads() {
    let _g = lock();
    let db = db(60_000);
    for plan in [
        Plan::scan("lineitem", &["id", "flag", "qty"]).order(vec![
            OrdExp::asc("flag"),
            OrdExp::desc("qty"),
            OrdExp::asc("id"),
        ]),
        Plan::scan("lineitem", &["id", "flag", "qty"])
            .topn(vec![OrdExp::asc("qty"), OrdExp::asc("id")], 211),
    ] {
        let (expected, ladder) = budget_ladder(&db, &plan);
        for (factor, budget) in ladder {
            for threads in THREADS {
                let opts = ExecOptions::default()
                    .profiled()
                    .parallel(threads)
                    .with_mem_budget(budget)
                    .with_spill_budget(256 << 20);
                let (res, prof) = execute(&db, &plan, &opts)
                    .unwrap_or_else(|e| panic!("budget {factor}x threads {threads}: {e:?}"));
                assert_eq!(
                    render(&res),
                    expected,
                    "budget {factor}x threads {threads} diverged"
                );
                if factor <= 0.1 {
                    assert!(
                        prof.counter("spill_runs").unwrap_or(0) > 0,
                        "budget {factor}x threads {threads} should have spilled"
                    );
                }
            }
        }
    }
    assert!(live_spill_dirs().is_empty(), "spill dirs leaked");
}

#[test]
fn multi_pass_merge_stays_byte_identical() {
    let _g = lock();
    // A budget tiny enough to force many short sorted runs — more than
    // the merge fan-in — so the external sort needs intermediate merge
    // passes, and those passes are themselves counted.
    let db = db(60_000);
    let plan =
        Plan::scan("lineitem", &["id", "flag"]).order(vec![OrdExp::asc("flag"), OrdExp::asc("id")]);
    let (base, _) = execute(&db, &plan, &ExecOptions::default()).expect("unbounded");
    let opts = ExecOptions::default()
        .profiled()
        .with_mem_budget(16 << 10)
        .with_spill_budget(256 << 20);
    let (res, prof) = execute(&db, &plan, &opts).expect("tight budget completes");
    assert_eq!(render(&res), render(&base));
    assert!(
        prof.counter("spill_runs").unwrap_or(0) > 8,
        "want many runs"
    );
    assert!(
        prof.counter("spill_merge_passes").unwrap_or(0) > 0,
        "fan-in exceeded: expected at least one intermediate merge pass"
    );
    assert!(live_spill_dirs().is_empty(), "spill dirs leaked");
}

#[test]
fn resource_exhausted_only_when_spill_budget_is_gone_too() {
    let _g = lock();
    let db = db(60_000);
    let plan = q1_plan();
    let mem = 48 << 10;
    // Ample disk: completes.
    let opts = ExecOptions::default()
        .with_mem_budget(mem)
        .with_spill_budget(256 << 20);
    execute(&db, &plan, &opts).expect("spill absorbs the pressure");
    // Starved disk: the governor reports the *spill* budget as the
    // exhausted resource, not the memory budget.
    let opts = ExecOptions::default()
        .with_mem_budget(mem)
        .with_spill_budget(2 << 10);
    match execute(&db, &plan, &opts) {
        Err(EngineError::ResourceExhausted { operator, .. }) => {
            assert!(
                operator.contains("(spill budget)"),
                "wrong resource blamed: {operator}"
            );
        }
        other => panic!("expected ResourceExhausted, got {other:?}"),
    }
    // No spill budget at all: the hash table the plan wrote gets the
    // original memory-budget error class.
    let opts = ExecOptions::default().with_mem_budget(mem);
    match execute_as_given(&db, &plan, &opts) {
        Err(EngineError::ResourceExhausted { operator, .. }) => {
            assert!(!operator.contains("(spill budget)"), "got {operator}");
        }
        other => panic!("expected ResourceExhausted, got {other:?}"),
    }
    // Rule `dense-keys-direct-aggr` groups the selected `flag < 450` in a
    // direct table instead: 450 slots fit the budget, so nothing is
    // exhausted and the answer is the unbounded one.
    let (want, _) = execute(&db, &plan, &ExecOptions::default()).expect("unbounded");
    let (got, _) = execute(&db, &plan, &opts).expect("direct table fits the budget");
    assert_eq!(format!("{got:?}"), format!("{want:?}"));
    assert!(live_spill_dirs().is_empty(), "spill dirs leaked");
}

#[test]
fn no_temp_files_survive_cancellation_or_worker_panic() {
    let _g = lock();
    let db = db(200_000);
    let plan = q1_plan();
    // Mid-flight cancellation while runs are on disk.
    for threads in [1usize, 4] {
        let token = CancelToken::new();
        let killer = {
            let token = token.clone();
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(2));
                token.cancel();
            })
        };
        let opts = ExecOptions::default()
            .parallel(threads)
            .with_mem_budget(48 << 10)
            .with_spill_budget(256 << 20)
            .with_cancel_token(token);
        match execute(&db, &plan, &opts) {
            Ok(_) => {}
            Err(e) => assert_eq!(e, EngineError::Cancelled),
        }
        killer.join().expect("killer thread");
        assert!(
            live_spill_dirs().is_empty(),
            "cancellation leaked spill dirs (threads={threads})"
        );
    }
    // Injected worker panic under spilling pressure: the unwinding
    // worker drops its runs (deleting their files) before the join.
    let opts = ExecOptions::default()
        .parallel(8)
        .with_mem_budget(48 << 10)
        .with_spill_budget(256 << 20)
        .with_panic_probe(5);
    match execute(&db, &plan, &opts) {
        Err(EngineError::WorkerPanic { .. }) => {}
        other => panic!("expected WorkerPanic, got {other:?}"),
    }
    assert!(
        live_spill_dirs().is_empty(),
        "worker panic leaked spill dirs"
    );
}

mod faults {
    use super::*;
    use x100_engine::FaultPlan;
    use x100_storage::FaultSite;

    #[test]
    fn query_recovers_from_5_percent_spill_faults() {
        let _g = lock();
        let db = db(60_000);
        // 5% of spill writes and reads fail transiently; the bounded
        // retry (deterministic seeded RNG, no real sleeps) absorbs them
        // and results stay byte-identical, sequential and with morsel
        // workers spilling concurrently. The external sort runs at a
        // hostile budget so the merge re-reads dozens of blocks — enough
        // IO volume that a 5% rate is certain to fire at least once.
        let mut total_retries = 0u64;
        for (plan, mem) in [
            (q1_plan(), 48usize << 10),
            (
                Plan::scan("lineitem", &["id", "flag"])
                    .order(vec![OrdExp::asc("flag"), OrdExp::asc("id")]),
                16 << 10,
            ),
        ] {
            let (base, _) = execute(&db, &plan, &ExecOptions::default()).expect("unbounded");
            for threads in [1, 4] {
                // Four workers share the budget; a quarter of it keeps
                // each one's share as tight as the sequential run's.
                let mem = mem / threads;
                let fp = FaultPlan {
                    max_retries: 6,
                    backoff_base_us: 0,
                    ..FaultPlan::default()
                }
                .spill_write_rate(0.05)
                .spill_read_rate(0.05);
                let opts = ExecOptions::default()
                    .profiled()
                    .parallel(threads)
                    .with_mem_budget(mem)
                    .with_spill_budget(256 << 20)
                    .with_fault_plan(fp);
                let (res, prof) = execute(&db, &plan, &opts).expect("faults are transient");
                assert_eq!(render(&res), render(&base), "threads {threads}");
                assert!(prof.counter("spill_runs").unwrap_or(0) > 0, "must spill");
                total_retries += prof.counter("spill_retries").unwrap_or(0);
            }
        }
        assert!(
            total_retries > 0,
            "5% rates over this many spill IOs must hit at least once"
        );
        assert!(live_spill_dirs().is_empty(), "spill dirs leaked");
    }

    #[test]
    fn unrecoverable_spill_faults_surface_typed_and_clean_up() {
        let _g = lock();
        let db = db(60_000);
        let plan = q1_plan();
        for (mk, site) in [
            (
                (|p: FaultPlan| p.spill_write_rate(1.0)) as fn(FaultPlan) -> FaultPlan,
                FaultSite::SpillWrite,
            ),
            (|p: FaultPlan| p.spill_read_rate(1.0), FaultSite::SpillRead),
        ] {
            let fp = mk(FaultPlan {
                max_retries: 2,
                backoff_base_us: 0,
                ..FaultPlan::default()
            });
            let opts = ExecOptions::default()
                .with_mem_budget(48 << 10)
                .with_spill_budget(256 << 20)
                .with_fault_plan(fp);
            match execute(&db, &plan, &opts) {
                Err(EngineError::Io {
                    site: got,
                    unrecoverable,
                    ..
                }) => {
                    assert_eq!(got, site);
                    assert!(!unrecoverable, "retryable class, budget exhausted");
                }
                other => panic!("expected Io at {site:?}, got {other:?}"),
            }
            assert!(
                live_spill_dirs().is_empty(),
                "failed spill leaked dirs ({site:?})"
            );
        }
    }
}
