//! Determinism suite for morsel-driven parallel execution.
//!
//! Parallel runs use static round-robin morsel assignment and merge
//! partials in worker-index order, so for a fixed `(threads,
//! morsel_size)` the result is deterministic. For integer aggregates
//! the result must be *exactly* the sequential result at every
//! `(threads, morsel_size)` combination; float sums may differ in the
//! last ulp (different addition order), so those are compared with a
//! tolerance.

use x100_engine::expr::*;
use x100_engine::ops::JoinType;
use x100_engine::plan::Plan;
use x100_engine::session::{execute, execute_as_given, run_operator, Database, ExecOptions};
use x100_engine::{check_plan, AggExpr, Profiler, QueryContext};
use x100_storage::TableBuilder;
use x100_vector::{Value, Vector};

/// The sweep required by the issue: threads {1,2,4,8} × morsel_size
/// {one vector, 4K rows, whole fragment (0 = unbounded)}.
const THREADS: [usize; 4] = [1, 2, 4, 8];
const MORSELS: [usize; 3] = [1024, 4096, 0];

fn sorted_rows(res: &x100_engine::QueryResult) -> Vec<String> {
    let mut rows = res.row_strings();
    rows.sort();
    rows
}

/// 10_000-row fact table: `k` cycles 0..97, `v` counts up, `f` is a
/// float derived from `v`.
fn facts_db() -> Database {
    let n = 10_000i64;
    let mut db = Database::new();
    let t = TableBuilder::new("facts")
        .column("k", Vector::I64((0..n).map(|i| i % 97).collect()))
        .column("v", Vector::I64((0..n).collect()))
        .column(
            "f",
            Vector::F64((0..n).map(|i| (i as f64) * 0.25 - 7.0).collect()),
        )
        .build();
    db.register(t);
    db
}

#[test]
fn grouped_integer_aggregates_match_sequential_exactly() {
    let db = facts_db();
    let plan = Plan::scan("facts", &["k", "v"])
        .select(lt(col("k"), lit_i64(90)))
        .aggr(
            vec![("k", col("k"))],
            vec![
                AggExpr::count("cnt"),
                AggExpr::sum("sv", col("v")),
                AggExpr::min("mn", col("v")),
                AggExpr::max("mx", col("v")),
            ],
        );
    let (seq, _) = execute(&db, &plan, &ExecOptions::default()).expect("sequential");
    let expected = sorted_rows(&seq);
    assert_eq!(seq.num_rows(), 90);
    for threads in THREADS {
        for morsel in MORSELS {
            let opts = ExecOptions::default()
                .parallel(threads)
                .with_morsel_size(morsel);
            let (par, _) = execute(&db, &plan, &opts).expect("parallel");
            assert_eq!(
                sorted_rows(&par),
                expected,
                "threads={threads} morsel_size={morsel} diverged from sequential"
            );
        }
    }
}

#[test]
fn float_aggregates_match_sequential_within_tolerance() {
    let db = facts_db();
    let plan = Plan::scan("facts", &["k", "f"]).aggr(
        vec![("k", col("k"))],
        vec![
            AggExpr::sum("sf", col("f")),
            AggExpr::avg("af", col("f")),
            AggExpr::count("cnt"),
        ],
    );
    let collect = |res: &x100_engine::QueryResult| {
        let mut m = std::collections::BTreeMap::new();
        for r in 0..res.num_rows() {
            let k = match res.value(r, res.col_index("k").expect("k")) {
                Value::I64(k) => k,
                other => panic!("unexpected key {other:?}"),
            };
            let f = |name: &str| match res.value(r, res.col_index(name).expect("col")) {
                Value::F64(x) => x,
                Value::I64(x) => x as f64,
                other => panic!("unexpected value {other:?}"),
            };
            m.insert(k, (f("sf"), f("af"), f("cnt")));
        }
        m
    };
    let (seq, _) = execute(&db, &plan, &ExecOptions::default()).expect("sequential");
    let expected = collect(&seq);
    for threads in THREADS {
        for morsel in MORSELS {
            let opts = ExecOptions::default()
                .parallel(threads)
                .with_morsel_size(morsel);
            let (par, _) = execute(&db, &plan, &opts).expect("parallel");
            let got = collect(&par);
            assert_eq!(
                got.len(),
                expected.len(),
                "group count at threads={threads}"
            );
            for (k, (sf, af, cnt)) in &expected {
                let (gsf, gaf, gcnt) = got[k];
                assert!(
                    (gsf - sf).abs() <= 1e-6 * sf.abs().max(1.0),
                    "sum(f) for k={k} at threads={threads} morsel={morsel}: {gsf} vs {sf}"
                );
                assert!(
                    (gaf - af).abs() <= 1e-6 * af.abs().max(1.0),
                    "avg(f) for k={k} at threads={threads} morsel={morsel}: {gaf} vs {af}"
                );
                assert_eq!(gcnt, *cnt, "count for k={k} at threads={threads}");
            }
        }
    }
}

#[test]
fn parallel_sees_deletes_and_insert_deltas() {
    let mut db = Database::new();
    let mut t = TableBuilder::new("t")
        .column("k", Vector::I64((0..1000).map(|i| i % 5).collect()))
        .column("v", Vector::I64((0..1000).collect()))
        .build();
    // Fragment deletes, a batch of insert deltas, and a deleted delta row.
    t.delete(0);
    t.delete(499);
    t.delete(999);
    for i in 0..57 {
        t.insert(&[Value::I64(i % 5), Value::I64(10_000 + i)]);
    }
    t.delete(1000); // first delta row
    db.register(t);

    let plan = Plan::scan("t", &["k", "v"]).aggr(
        vec![("k", col("k"))],
        vec![
            AggExpr::count("cnt"),
            AggExpr::sum("sv", col("v")),
            AggExpr::min("mn", col("v")),
            AggExpr::max("mx", col("v")),
        ],
    );
    let (seq, _) = execute(&db, &plan, &ExecOptions::default()).expect("sequential");
    let expected = sorted_rows(&seq);
    // Sanity: deltas actually contribute (max v comes from the delta tail).
    assert!(
        expected.iter().any(|r| r.contains("10056")),
        "delta rows missing: {expected:?}"
    );
    for threads in THREADS {
        for morsel in MORSELS {
            let opts = ExecOptions::default()
                .parallel(threads)
                .with_morsel_size(morsel);
            let (par, _) = execute(&db, &plan, &opts).expect("parallel");
            assert_eq!(
                sorted_rows(&par),
                expected,
                "threads={threads} morsel_size={morsel} diverged on delete/delta table"
            );
        }
    }
}

#[test]
fn parallel_enum_string_keys_with_deltas() {
    // Decoded enum keys (Str) group hash-wise; deltas must flow through.
    let names = ["ash", "birch", "cedar", "fir"];
    let mut db = Database::new();
    let mut t = TableBuilder::new("t")
        .auto_enum_str(
            "species",
            (0..400).map(|i| names[i % 4].to_owned()).collect(),
        )
        .column("v", Vector::I64((0..400).collect()))
        .build();
    t.delete(3);
    t.insert(&[Value::Str("cedar".into()), Value::I64(5000)]);
    t.insert(&[Value::Str("ash".into()), Value::I64(5001)]);
    db.register(t);

    let plan = Plan::scan("t", &["species", "v"]).aggr(
        vec![("species", col("species"))],
        vec![AggExpr::count("cnt"), AggExpr::sum("sv", col("v"))],
    );
    let (seq, _) = execute(&db, &plan, &ExecOptions::default()).expect("sequential");
    let expected = sorted_rows(&seq);
    assert_eq!(seq.num_rows(), 4);
    for threads in THREADS {
        for morsel in MORSELS {
            let opts = ExecOptions::default()
                .parallel(threads)
                .with_morsel_size(morsel);
            let (par, _) = execute(&db, &plan, &opts).expect("parallel");
            assert_eq!(
                sorted_rows(&par),
                expected,
                "threads={threads} morsel_size={morsel}"
            );
        }
    }
}

#[test]
fn parallel_direct_aggregation_on_enum_codes() {
    // Only the grouping reads `flag`: scanned as codes, grouped in the
    // direct table.
    let names = ["N", "R", "A"];
    let mut db = Database::new();
    let t = TableBuilder::new("t")
        .auto_enum_str("flag", (0..3000).map(|i| names[i % 3].to_owned()).collect())
        .column("v", Vector::I64((0..3000).collect()))
        .build();
    db.register(t);

    let plan = Plan::scan("t", &["flag", "v"]).aggr(
        vec![("flag", col("flag"))],
        vec![AggExpr::count("cnt"), AggExpr::sum("sv", col("v"))],
    );
    let (seq, prof) = execute(&db, &plan, &ExecOptions::default().profiled()).expect("sequential");
    assert!(
        prof.operators().any(|(op, _)| op.contains("DIRECT")),
        "expected direct aggregation in the sequential trace"
    );
    let expected = sorted_rows(&seq);
    for threads in THREADS {
        for morsel in MORSELS {
            let opts = ExecOptions::default()
                .parallel(threads)
                .with_morsel_size(morsel);
            let (par, _) = execute(&db, &plan, &opts).expect("parallel");
            assert_eq!(
                sorted_rows(&par),
                expected,
                "threads={threads} morsel_size={morsel}"
            );
        }
    }
}

#[test]
fn ungrouped_aggregate_and_empty_selection() {
    let db = facts_db();
    // Ungrouped over all rows.
    let all = Plan::scan("facts", &["v"]).aggr(
        vec![],
        vec![
            AggExpr::count("cnt"),
            AggExpr::sum("sv", col("v")),
            AggExpr::min("mn", col("v")),
            AggExpr::max("mx", col("v")),
        ],
    );
    // Ungrouped where the selection keeps nothing: both paths must
    // synthesize the same single row.
    let none = Plan::scan("facts", &["k", "v"])
        .select(lt(col("k"), lit_i64(-1)))
        .aggr(
            vec![],
            vec![AggExpr::count("cnt"), AggExpr::sum("sv", col("v"))],
        );
    for plan in [&all, &none] {
        let (seq, _) = execute(&db, plan, &ExecOptions::default()).expect("sequential");
        assert_eq!(seq.num_rows(), 1);
        let expected = seq.row_strings();
        for threads in THREADS {
            for morsel in MORSELS {
                let opts = ExecOptions::default()
                    .parallel(threads)
                    .with_morsel_size(morsel);
                let (par, _) = execute(&db, plan, &opts).expect("parallel");
                assert_eq!(
                    par.row_strings(),
                    expected,
                    "threads={threads} morsel_size={morsel}"
                );
            }
        }
    }
}

#[test]
fn order_and_topn_above_parallel_merge() {
    let db = facts_db();
    use x100_engine::ops::OrdExp;
    let ordered = Plan::scan("facts", &["k", "v"])
        .aggr(
            vec![("k", col("k"))],
            vec![AggExpr::sum("sv", col("v")), AggExpr::count("cnt")],
        )
        .order(vec![OrdExp::desc("sv"), OrdExp::asc("k")]);
    let top = Plan::scan("facts", &["k", "v"])
        .aggr(vec![("k", col("k"))], vec![AggExpr::sum("sv", col("v"))])
        .topn(vec![OrdExp::desc("sv")], 7);
    for plan in [&ordered, &top] {
        let (seq, _) = execute(&db, plan, &ExecOptions::default()).expect("sequential");
        // Ordered output: compare row-for-row, not sorted.
        let expected = seq.row_strings();
        for threads in THREADS {
            let opts = ExecOptions::default().parallel(threads);
            let (par, _) = execute(&db, plan, &opts).expect("parallel");
            assert_eq!(par.row_strings(), expected, "threads={threads}");
        }
    }
}

#[test]
fn projection_between_select_and_aggr() {
    let db = facts_db();
    let plan = Plan::scan("facts", &["k", "v", "f"])
        .select(ge(col("v"), lit_i64(100)))
        .project(vec![("k", col("k")), ("w", mul(col("f"), lit_f64(2.0)))])
        .aggr(
            vec![("k", col("k"))],
            vec![AggExpr::count("cnt"), AggExpr::max("mw", col("w"))],
        );
    let (seq, _) = execute(&db, &plan, &ExecOptions::default()).expect("sequential");
    let expected = sorted_rows(&seq);
    for threads in THREADS {
        for morsel in MORSELS {
            let opts = ExecOptions::default()
                .parallel(threads)
                .with_morsel_size(morsel);
            let (par, _) = execute(&db, &plan, &opts).expect("parallel");
            assert_eq!(
                sorted_rows(&par),
                expected,
                "threads={threads} morsel_size={morsel}"
            );
        }
    }
}

/// The walk-log lines of the `Exchange`s the check walk placed in `plan`.
fn exchanges(db: &Database, plan: &Plan, opts: &ExecOptions) -> Vec<String> {
    let walk = check_plan(db, plan, opts).expect("checks");
    let lines = walk
        .report
        .into_iter()
        .filter(|l| l.contains(": Exchange → "));
    lines.collect()
}

#[test]
fn threads_one_is_the_untouched_sequential_path() {
    let db = facts_db();
    let plan = Plan::scan("facts", &["k", "v"])
        .select(lt(col("k"), lit_i64(50)))
        .aggr(
            vec![("k", col("k"))],
            vec![AggExpr::count("cnt"), AggExpr::sum("sv", col("v"))],
        );
    // One thread is the tree without an Exchange; more threads put one
    // over the same aggregation.
    let small = ExecOptions::default().with_morsel_size(1024);
    assert!(exchanges(&db, &plan, &small).is_empty());
    assert_eq!(exchanges(&db, &plan, &small.clone().parallel(2)).len(), 1);
    let (a, pa) = execute(&db, &plan, &ExecOptions::default().profiled()).expect("default");
    let (b, pb) =
        execute(&db, &plan, &ExecOptions::default().profiled().parallel(1)).expect("threads=1");
    // Byte-identical rows in identical order, and identical profiler
    // structure (same primitives/operators, same call and tuple counts —
    // timings naturally differ).
    assert_eq!(a.row_strings(), b.row_strings());
    assert!(pa.workers().is_empty() && pb.workers().is_empty());
    let sig = |p: &x100_engine::Profiler| {
        p.primitives()
            .map(|(k, st)| (k.to_owned(), st.calls, st.tuples, st.bytes))
            .collect::<Vec<_>>()
    };
    assert_eq!(sig(&pa), sig(&pb));
    let ops = |p: &x100_engine::Profiler| {
        p.operators()
            .map(|(k, st)| (k.to_owned(), st.calls, st.tuples))
            .collect::<Vec<_>>()
    };
    assert_eq!(ops(&pa), ops(&pb));
}

#[test]
fn parallel_profiler_reports_worker_traces() {
    let db = facts_db();
    let plan = Plan::scan("facts", &["k", "v"])
        .aggr(vec![("k", col("k"))], vec![AggExpr::sum("sv", col("v"))]);
    let opts = ExecOptions::default()
        .profiled()
        .parallel(4)
        .with_morsel_size(1024);
    let (_, prof) = execute(&db, &plan, &opts).expect("parallel");
    assert!(
        !prof.workers().is_empty(),
        "profiled parallel run must record workers"
    );
    assert!(prof.workers().len() <= 4);
    let total: u64 = prof.workers().iter().map(|w| w.tuples).sum();
    assert_eq!(
        total, 10_000,
        "workers together must consume every row exactly once"
    );
    for (i, w) in prof.workers().iter().enumerate() {
        assert_eq!(w.label, format!("worker-{i}"));
    }
    assert!(prof.render_table5().contains("parallel worker"));
    // The merge stage shows up as its own operator.
    assert!(prof.operators().any(|(op, _)| op == "MergeAggr"));
    // An unprofiled parallel run keeps the worker list empty.
    let (_, quiet) =
        execute(&db, &plan, &ExecOptions::default().parallel(4)).expect("unprofiled parallel");
    assert!(quiet.workers().is_empty());
}

/// `Plan::bind` and `Plan::bind_governed` instantiate the same tree
/// `execute` runs, Exchange included — with the checker's facts handed
/// over in the context or checked afresh.
#[test]
fn bind_governed_runs_the_exchange() {
    let db = facts_db();
    let plan = Plan::scan("facts", &["k", "v"])
        .aggr(vec![("k", col("k"))], vec![AggExpr::sum("sv", col("v"))]);
    let opts = ExecOptions::default()
        .profiled()
        .parallel(4)
        .with_morsel_size(1024);
    let (want, _) = execute(&db, &plan, &ExecOptions::default()).expect("sequential");
    for provided in [false, true] {
        let ctx = QueryContext::unbounded();
        if provided {
            ctx.provide_plan_facts(check_plan(&db, &plan, &opts).expect("checks").facts);
        }
        let mut op = plan.bind_governed(&db, &opts, &ctx).expect("binds");
        let mut prof = Profiler::new(true);
        let got = run_operator(op.as_mut(), &mut prof).expect("runs");
        assert_eq!(sorted_rows(&got), sorted_rows(&want), "provided={provided}");
        assert_eq!(prof.workers().len(), 4, "provided={provided}");
        assert!(prof.operators().any(|(op, _)| op == "MergeAggr"));
    }
    let mut op = plan.bind(&db, &opts).expect("binds");
    let mut prof = Profiler::new(true);
    run_operator(op.as_mut(), &mut prof).expect("runs");
    assert_eq!(prof.workers().len(), 4);
}

#[test]
fn plans_without_an_aggregation_run_on_one_thread() {
    let db = facts_db();
    // No aggregation: plain scan+select gets no Exchange, but must still
    // run correctly with threads > 1.
    let plan = Plan::scan("facts", &["k", "v"]).select(lt(col("v"), lit_i64(10)));
    let opts = ExecOptions::default().profiled().parallel(8);
    assert!(exchanges(&db, &plan, &opts).is_empty());
    let (seq, _) = execute(&db, &plan, &ExecOptions::default()).expect("sequential");
    let (par, prof) = execute(&db, &plan, &opts).expect("threads 8");
    assert_eq!(par.row_strings(), seq.row_strings());
    assert!(prof.workers().is_empty(), "no Exchange, no workers");
}

/// The walk places no Exchange over a scan of at most one morsel: a
/// table no larger than `morsel_size`. A range the summary index cuts
/// (rule `summary-range-select`) keeps the table's morsels, clipped, so
/// it splits as the whole scan does — one worker's share is empty — and
/// each worker adds the rows it would add with the rules off.
#[test]
fn one_morsel_scan_gets_no_exchange() {
    let mut db = Database::new();
    let t = TableBuilder::new("t")
        .column("k", Vector::I64((0..100_000).map(|i| i % 7).collect()))
        .column("d", Vector::I64((0..100_000).collect()))
        .with_summary()
        .build();
    db.register(t);
    let per_k = |pred: Expr| {
        (Plan::scan("t", &["k", "d"]).select(pred))
            .aggr(vec![("k", col("k"))], vec![AggExpr::count("n")])
    };
    let pruned = per_k(and(
        ge(col("d"), lit_i64(50_000)),
        le(col("d"), lit_i64(50_099)),
    ));
    // `k` has no summary index: the scan stays whole.
    let whole = per_k(lt(col("k"), lit_i64(5)));
    let opts = ExecOptions::default().profiled().parallel(4);
    let whole_table = opts.clone().with_morsel_size(0);
    for plan in [&pruned, &whole] {
        let split = exchanges(&db, plan, &opts);
        assert_eq!(split.len(), 1, "{split:?}");
        assert!(split[0].contains("2 morsels"), "{split:?}");
        let (want, _) = execute(&db, plan, &ExecOptions::default()).expect("sequential");
        let (got, prof) = execute(&db, plan, &opts).expect("runs");
        assert_eq!(sorted_rows(&got), sorted_rows(&want));
        assert_eq!(prof.workers().len(), 2);
        let (as_given, _) = execute_as_given(&db, plan, &opts).expect("as given");
        assert_eq!(got.row_strings(), as_given.row_strings());
        assert!(exchanges(&db, plan, &whole_table).is_empty());
    }
}

/// Exchanges sit at any depth: on a hash join's build side (and over the
/// probe spine above it), and under another aggregation — each with its
/// own workers, every thread count answering what one thread does.
#[test]
fn build_side_and_nested_aggregations_run_under_exchanges() {
    let db = facts_db();
    let per_k = Plan::scan("facts", &["k", "v"]).aggr(
        vec![("k", col("k"))],
        vec![AggExpr::sum("sv", col("v")), AggExpr::count("n")],
    );
    let joined = Plan::HashJoin {
        build: Box::new(per_k.clone()),
        probe: Box::new(Plan::scan("facts", &["k", "v"])),
        build_keys: vec![col("k")],
        probe_keys: vec![col("k")],
        payload: vec![("sv".into(), "sv".into())],
        join_type: JoinType::Inner,
    }
    .aggr(
        vec![("k", col("k"))],
        vec![AggExpr::max("msv", col("sv")), AggExpr::sum("v", col("v"))],
    );
    let nested = per_k.aggr(
        vec![],
        vec![AggExpr::count("groups"), AggExpr::sum("total", col("sv"))],
    );
    for (plan, placed) in [(&joined, 2), (&nested, 1)] {
        let (seq, _) = execute(&db, plan, &ExecOptions::default()).expect("sequential");
        for threads in [2, 4, 8] {
            let opts = ExecOptions::default()
                .profiled()
                .parallel(threads)
                .with_morsel_size(1024);
            let lines = exchanges(&db, plan, &opts);
            assert_eq!(lines.len(), placed, "threads={threads}: {lines:?}");
            let (par, prof) = execute(&db, plan, &opts).expect("parallel");
            assert_eq!(sorted_rows(&par), sorted_rows(&seq), "threads={threads}");
            assert_eq!(prof.workers().len(), placed * threads, "threads={threads}");
            assert!(prof.operators().any(|(op, _)| op == "MergeAggr"));
        }
    }
}

#[test]
fn more_threads_than_morsels_is_fine() {
    let mut db = Database::new();
    let t = TableBuilder::new("tiny")
        .column("k", Vector::I64(vec![1, 2, 1, 2, 1]))
        .column("v", Vector::I64(vec![10, 20, 30, 40, 50]))
        .build();
    db.register(t);
    let plan = Plan::scan("tiny", &["k", "v"]).aggr(
        vec![("k", col("k"))],
        vec![AggExpr::sum("sv", col("v")), AggExpr::count("cnt")],
    );
    let (seq, _) = execute(&db, &plan, &ExecOptions::default()).expect("sequential");
    let opts = ExecOptions::default().parallel(8).with_morsel_size(0);
    let (par, _) = execute(&db, &plan, &opts).expect("parallel");
    assert_eq!(sorted_rows(&par), sorted_rows(&seq));
}

#[test]
fn enum_grouping_over_pending_deltas_answers() {
    let mut db = Database::new();
    let mut t = TableBuilder::new("t")
        .auto_enum_str("flag", vec!["A".into(), "B".into(), "A".into()])
        .column("v", Vector::I64(vec![1, 2, 3]))
        .build();
    t.insert(&[Value::Str("B".into()), Value::I64(4)]);
    t.delete(0);
    db.register(t);
    // The insert delta holds values, so `flag` is scanned decoded.
    let plan = Plan::scan("t", &["flag", "v"])
        .aggr(vec![("flag", col("flag"))], vec![AggExpr::count("cnt")]);
    for opts in [ExecOptions::default(), ExecOptions::default().parallel(4)] {
        let (res, _) = execute(&db, &plan, &opts).expect("answers over deltas");
        let rows = sorted_rows(&res);
        assert_eq!(rows, ["A|1", "B|2"]);
    }
}
