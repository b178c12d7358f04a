//! Soundness of the facts analyzer (`engine::facts`).
//!
//! The analyzer's contract is one-directional: whatever it claims must
//! hold on every row the query actually produces. These tests generate
//! random tables (raw and checkpoint-compressed, with delta inserts,
//! deletes, and enum columns) and random plans, then check the executed
//! output against the inferred facts: observed values inside the value
//! range, observed row counts under `rows_max`, and — the sharp edge —
//! that the `_unchecked` fetch twins never dispatch where the checked
//! twin would have trapped.

use proptest::prelude::*;
use x100_engine::check_plan;
use x100_engine::expr::*;
use x100_engine::plan::Plan;
use x100_engine::session::{execute, run_operator, Database, ExecOptions};
use x100_engine::{AggExpr, CheckViolation, PlanError, Profiler, QueryContext};
use x100_storage::{ColumnData, Table, TableBuilder};
use x100_vector::{ScalarType, Value};

/// Deterministic pseudo-data: spreads `i` over `[lo, lo+span]`.
fn keyed(i: usize, lo: i64, span: i64) -> i64 {
    lo + (i as i64).wrapping_mul(7919).rem_euclid(span + 1)
}

/// A table with an i64 key, an f64 measure, and a low-card string,
/// optionally checkpoint-compressed and mutated by delta ops.
fn gen_table(n: usize, lo: i64, span: i64, ckpt: bool, ndel: usize, nins: usize) -> Table {
    let mut t = TableBuilder::new("t")
        .column(
            "k",
            ColumnData::I64((0..n).map(|i| keyed(i, lo, span)).collect()),
        )
        .column(
            "v",
            ColumnData::F64((0..n).map(|i| (i % 997) as f64 * 0.5 - 100.0).collect()),
        )
        .column("tag", {
            let mut c = ColumnData::new(ScalarType::Str);
            for i in 0..n {
                c.push_value(&Value::Str(["a", "b", "c"][i % 3].into()));
            }
            c
        })
        .build();
    if ckpt {
        t.checkpoint();
    }
    for i in 0..nins {
        t.insert(&[
            Value::I64(keyed(n + i, lo, span) + 3), // may exceed the base range
            Value::F64(i as f64),
            Value::Str("b".into()),
        ]);
    }
    for i in 0..ndel {
        t.delete(((i * 13) % (n + nins)) as u32);
    }
    t
}

/// Every output value must sit inside the root node's inferred range
/// fact, and the output row count under `rows_max`.
fn assert_output_within_facts(db: &Database, plan: &Plan) {
    let opts = ExecOptions::default();
    let facts = check_plan(db, plan, &opts).expect("check").facts;
    let nf = facts.root().facts.clone();
    let (res, _) = execute(db, plan, &opts).expect("runs");
    if let Some(max) = nf.rows_max {
        assert!(
            (res.num_rows() as u64) <= max,
            "rows {} > rows_max {max}",
            res.num_rows()
        );
    }
    for (ci, cf) in nf.cols.iter().enumerate() {
        let Some(range) = &cf.range else { continue };
        for r in 0..res.num_rows() {
            let v = res.value(r, ci);
            assert!(
                range.contains_value(&v),
                "col {ci} row {r}: {v:?} outside {range:?}"
            );
        }
        if let Some(dmax) = cf.distinct_max {
            let mut seen: Vec<String> = (0..res.num_rows())
                .map(|r| format!("{:?}", res.value(r, ci)))
                .collect();
            seen.sort();
            seen.dedup();
            assert!(
                (seen.len() as u64) <= dmax,
                "col {ci}: {} distinct > bound {dmax}",
                seen.len()
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Scan → Select → (optional) Aggr over random mutated tables:
    /// observed values stay inside the inferred ranges.
    #[test]
    fn observed_values_within_facts(
        n in 1usize..300,
        lo in -500i64..500,
        span in 0i64..1500,
        ckpt in proptest::bool::ANY,
        ndel in 0usize..8,
        nins in 0usize..8,
        op in 0usize..5,
        litoff in -50i64..1600,
        aggr in proptest::bool::ANY,
    ) {
        let mut db = Database::new();
        db.register(gen_table(n, lo, span, ckpt, ndel, nins));
        let lit = lit_i64(lo + litoff);
        let pred = match op {
            0 => lt(col("k"), lit),
            1 => le(col("k"), lit),
            2 => gt(col("k"), lit),
            3 => ge(col("k"), lit),
            _ => eq(col("k"), lit),
        };
        let base = Plan::scan("t", &["k", "v", "tag"]).select(pred);
        let plan = if aggr {
            base.aggr(
                vec![("tag", col("tag"))],
                vec![
                    AggExpr::sum("sk", col("k")),
                    AggExpr::max("mx", col("v")),
                    AggExpr::min("mn", col("k")),
                    AggExpr::count("cnt"),
                ],
            )
        } else {
            base
        };
        assert_output_within_facts(&db, &plan);
    }

    /// Fetch-bounds proofs: a star join where the foreign key provably
    /// stays inside the dimension fragment must dispatch the
    /// `_unchecked` twins and return byte-identical rows; any delta on
    /// the dimension must defeat the proof (the twins read only the
    /// checkpointed fragment).
    #[test]
    fn unchecked_fetch_sound_and_byte_identical(
        dim_n in 4usize..200,
        fact_m in 1usize..400,
        dim_ins in 0usize..3,
        fact_ckpt in proptest::bool::ANY,
    ) {
        let mut dim = TableBuilder::new("dim")
            .column(
                "pay",
                ColumnData::I64((0..dim_n).map(|i| keyed(i, -50, 900)).collect()),
            )
            .build();
        for i in 0..dim_ins {
            dim.insert(&[Value::I64(2000 + i as i64)]);
        }
        let total = dim_n + dim_ins;
        let mut facts_t = TableBuilder::new("facts")
            .column(
                "fk",
                ColumnData::U32((0..fact_m).map(|i| ((i * 31) % total) as u32).collect()),
            )
            .column(
                "m",
                ColumnData::F64((0..fact_m).map(|i| i as f64 * 0.25).collect()),
            )
            .build();
        if fact_ckpt {
            facts_t.checkpoint();
        }
        let mut db = Database::new();
        db.register(dim);
        db.register(facts_t);
        let plan = Plan::scan("facts", &["fk", "m"]).fetch1("dim", col("fk"), &[("pay", "pay")]);

        let opts = ExecOptions::default().profiled();
        let facts = check_plan(&db, &plan, &opts).expect("check").facts;
        let proved = facts.root().fetch_proved();
        // Delta rows live outside the fragment, so any insert on the
        // dimension that the key can actually reach kills the proof.
        let fk_max = (0..fact_m).map(|i| (i * 31) % total).max().unwrap_or(0);
        if fk_max >= dim_n {
            prop_assert_eq!(proved, Some(false));
        } else {
            prop_assert_eq!(proved, Some(true));
        }

        let (fast, fp) = execute(&db, &plan, &opts).expect("unchecked run");
        let (slow, sp) = execute(
            &db,
            &plan,
            &ExecOptions::default().profiled().with_unchecked_fetch(false),
        )
        .expect("checked run");
        prop_assert_eq!(fast.row_strings(), slow.row_strings());
        prop_assert_eq!(sp.counter("fetch_unchecked_dispatches"), None);
        if proved == Some(true) && !fact_ckpt {
            // Raw scan of a proven plan must actually take the twins.
            prop_assert!(fp.counter("fetch_unchecked_dispatches").unwrap_or(0) > 0);
        }
        if proved != Some(true) {
            prop_assert_eq!(fp.counter("fetch_unchecked_dispatches"), None);
        }
    }
}

/// Always-true predicates fold to a pass-through, always-false to an
/// empty dataflow — both verdicts recorded and both byte-identical to
/// the semantics of actually evaluating the predicate.
#[test]
fn select_folds_are_exact() {
    let mut db = Database::new();
    // Deletes keep visible rows a subset of the fragment, so the stats
    // (and the fold verdicts) stay valid; pending inserts would widen
    // the source range to ⊤ and correctly suppress both verdicts.
    db.register(gen_table(500, 10, 90, true, 5, 0));
    let scan = || Plan::scan("t", &["k", "v", "tag"]);

    let all = execute(&db, &scan(), &ExecOptions::default())
        .expect("scan")
        .0;

    // k ∈ [10, 103]: `k >= 10` is provably always true.
    let t = scan().select(ge(col("k"), lit_i64(10)));
    let facts = check_plan(&db, &t, &ExecOptions::default())
        .expect("check")
        .facts;
    assert_eq!(facts.root().select_verdict(), Some(true));
    let (got, _) = execute(&db, &t, &ExecOptions::default()).expect("fold-true");
    assert_eq!(got.row_strings(), all.row_strings());

    // `k > 4000` is provably always false.
    let f = scan().select(gt(col("k"), lit_i64(4000)));
    let facts = check_plan(&db, &f, &ExecOptions::default())
        .expect("check")
        .facts;
    assert_eq!(facts.root().select_verdict(), Some(false));
    let (got, _) = execute(&db, &f, &ExecOptions::default()).expect("fold-false");
    assert_eq!(got.num_rows(), 0);

    // A genuinely data-dependent predicate gets no verdict.
    let d = scan().select(gt(col("k"), lit_i64(50)));
    let facts = check_plan(&db, &d, &ExecOptions::default())
        .expect("check")
        .facts;
    assert_eq!(facts.root().select_verdict(), None);
}

/// `--enforce-facts` turns a statically out-of-bounds fetch into a
/// bind-time `FactViolation` instead of a runtime trap.
#[test]
fn enforce_facts_rejects_certain_oob_fetch() {
    let dim = TableBuilder::new("dim")
        .column("pay", ColumnData::I64(vec![1, 2, 3]))
        .build();
    let facts_t = TableBuilder::new("facts")
        .column("fk", ColumnData::U32(vec![7, 8, 9])) // all ≥ dim.total_rows()
        .build();
    let mut db = Database::new();
    db.register(dim);
    db.register(facts_t);
    let plan = Plan::scan("facts", &["fk"]).fetch1("dim", col("fk"), &[("pay", "pay")]);

    // Without enforcement the plan checks (proof simply fails)…
    let summary = check_plan(&db, &plan, &ExecOptions::default()).expect("lenient");
    assert_eq!(summary.facts.root().fetch_proved(), Some(false));

    // …with enforcement it is rejected at bind time, node-precisely.
    let opts = ExecOptions::default().with_enforce_facts(true);
    match check_plan(&db, &plan, &opts) {
        Err(PlanError::PlanCheck {
            path,
            violation: CheckViolation::FactViolation { detail },
        }) => {
            assert!(path.contains("Fetch1Join"), "path: {path}");
            assert!(detail.contains("rowId"), "detail: {detail}");
        }
        other => panic!("expected FactViolation, got {other:?}"),
    }
}

/// A fetch-bounds proof is a statement about one table. Facts checked
/// against a catalog whose dimension holds 1000 fragment rows, handed to
/// `bind_governed` with a catalog whose same-named dimension holds 10
/// (the other 990 rows pending in its insert delta), must not reach the
/// `_unchecked` gather twins: they would read past the 10-row fragment
/// from safe code. The bind re-checks against the catalog it is given
/// and answers from it on the checked path.
#[test]
fn bind_governed_drops_proofs_made_for_another_catalog() {
    let fact_table = || {
        TableBuilder::new("facts")
            .column(
                "fk",
                ColumnData::U32((0..5000u32).map(|i| (i * 17) % 1000).collect()),
            )
            .build()
    };
    let mut db_big = Database::new();
    db_big.register(
        TableBuilder::new("dim")
            .column("pay", ColumnData::I64((0..1000).map(|i| i * 3).collect()))
            .build(),
    );
    db_big.register(fact_table());
    let mut small_dim = TableBuilder::new("dim")
        .column("pay", ColumnData::I64((0..10).map(|i| i * 5).collect()))
        .build();
    for i in 10..1000 {
        small_dim.insert(&[Value::I64(i * 5)]);
    }
    let mut db_small = Database::new();
    db_small.register(small_dim);
    db_small.register(fact_table());

    let plan = Plan::scan("facts", &["fk"]).fetch1("dim", col("fk"), &[("pay", "pay")]);
    let opts = ExecOptions::default();
    let ctx = QueryContext::unbounded();
    ctx.provide_plan_facts(check_plan(&db_big, &plan, &opts).expect("check").facts);
    let mut op = plan
        .bind_governed(&db_small, &opts, &ctx)
        .expect("binds against the small catalog");
    let mut prof = Profiler::new(true);
    let got = run_operator(op.as_mut(), &mut prof).expect("runs");
    assert_eq!(prof.counter("fetch_unchecked_dispatches").unwrap_or(0), 0);
    let (want, _) = execute(&db_small, &plan, &opts.with_unchecked_fetch(false)).expect("checked");
    assert_eq!(got.row_strings(), want.row_strings());
}

/// i32 arithmetic keeps its range fact only when the analyzer can prove
/// no overflow; a possibly-overflowing product widens to ⊤.
#[test]
fn i32_overflow_widens_to_top() {
    let mut db = Database::new();
    db.register(
        TableBuilder::new("t")
            .column("small", ColumnData::I32((0..100).collect()))
            .column(
                "big",
                ColumnData::I32((0..100).map(|i| i * 21_000_000).collect()),
            )
            .build(),
    );
    let opts = ExecOptions::default();

    let safe = Plan::scan("t", &["small"]).project(vec![("s2", add(col("small"), lit_i32(1)))]);
    let facts = check_plan(&db, &safe, &opts).expect("check").facts;
    let nf = &facts.root().facts;
    assert_eq!(
        nf.cols[0].range.as_ref().and_then(|r| r.as_int()),
        Some((1, 100)),
        "in-bounds i32 add keeps its range"
    );

    let unsafe_p = Plan::scan("t", &["big"]).project(vec![("b2", add(col("big"), col("big")))]);
    let facts = check_plan(&db, &unsafe_p, &opts).expect("check").facts;
    let nf = &facts.root().facts;
    assert!(
        nf.cols[0].range.is_none(),
        "possible i32 overflow must widen to ⊤, got {:?}",
        nf.cols[0].range
    );
    assert_output_within_facts(&db, &safe);
}

/// The unchecked twins behave identically under parallel morsel
/// execution — same proof, same bytes at every thread count.
#[test]
fn unchecked_fetch_parallel_byte_identical() {
    let dim = TableBuilder::new("dim")
        .column("pay", ColumnData::I64((0..1000).map(|i| i * 3).collect()))
        .build();
    let facts_t = TableBuilder::new("facts")
        .column(
            "fk",
            ColumnData::U32((0..20_000u32).map(|i| (i * 17) % 1000).collect()),
        )
        .column(
            "m",
            ColumnData::F64((0..20_000).map(|i| i as f64).collect()),
        )
        .build();
    let mut db = Database::new();
    db.register(dim);
    db.register(facts_t);
    let plan = Plan::scan("facts", &["fk", "m"])
        .fetch1("dim", col("fk"), &[("pay", "pay")])
        .aggr(
            vec![],
            vec![AggExpr::sum("s", col("pay")), AggExpr::count("c")],
        );
    let baseline = execute(
        &db,
        &plan,
        &ExecOptions::default().with_unchecked_fetch(false),
    )
    .expect("checked")
    .0
    .row_strings();
    for threads in [1, 2, 4, 8] {
        let opts = ExecOptions::default().parallel(threads).profiled();
        let (res, prof) = execute(&db, &plan, &opts).expect("parallel");
        assert_eq!(res.row_strings(), baseline, "threads={threads}");
        assert!(
            prof.counter("fetch_unchecked_dispatches").unwrap_or(0) > 0,
            "threads={threads}: unchecked twins never dispatched"
        );
    }
}
