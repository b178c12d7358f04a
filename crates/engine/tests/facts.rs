//! Soundness of the facts analyzer (`engine::facts`).
//!
//! The analyzer's contract is one-directional: whatever it claims must
//! hold on every row the query actually produces. These tests generate
//! random tables (raw and checkpoint-compressed, with delta inserts,
//! deletes, and enum columns) and random plans, then check the executed
//! output against the inferred facts: observed values inside the value
//! range, observed row counts under `rows_max`, and fetch-bounds
//! verdicts that hold. The gather kernel checks its own bounds, so a
//! fetch reaching into pending inserts must answer what a row loop
//! answers whatever the verdict says.

use proptest::prelude::*;
use x100_engine::check_plan;
use x100_engine::expr::*;
use x100_engine::plan::Plan;
use x100_engine::session::{execute, run_operator, Database, ExecOptions};
use x100_engine::{AggExpr, PlanError, Profiler, QueryContext};
use x100_storage::{Table, TableBuilder};
use x100_vector::{ScalarType, Value, Vector};

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
            Vector::I64((0..n).map(|i| keyed(i, lo, span)).collect()),
        )
        .column(
            "v",
            Vector::F64((0..n).map(|i| (i % 997) as f64 * 0.5 - 100.0).collect()),
        )
        .column("tag", {
            let mut c = Vector::with_capacity(ScalarType::Str, 0);
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

    /// A fetch into a dimension with 0–2 pending inserts answers what a
    /// row loop over the tables answers, at every thread count, and the
    /// gather takes its in-range path (`fetch_unchecked_dispatches`)
    /// exactly for the vectors that lie inside the dimension's fragment.
    /// Foreign keys before `split` stay inside the fragment; later ones
    /// may reach the inserts. The verdict says whether any key can.
    /// "Unchecked" names that in-range path: the kernel's one bounds
    /// check per vector, then a loop with none.
    #[test]
    fn unchecked_fetch_sound_and_byte_identical(
        (dim_n, dim_ins) in (4usize..200, 0usize..3),
        fact_m in 1usize..700,
        split in 0usize..700,
        fact_ckpt in proptest::bool::ANY,
    ) {
        const VS: usize = 64;
        let mut dim = TableBuilder::new("dim")
            .column(
                "pay",
                Vector::I64((0..dim_n).map(|i| keyed(i, -50, 900)).collect()),
            )
            .build();
        for i in 0..dim_ins {
            dim.insert(&[Value::I64(2000 + i as i64)]);
        }
        let pay = |r: usize| if r < dim_n { keyed(r, -50, 900) } else { 2000 + (r - dim_n) as i64 };
        let total = dim_n + dim_ins;
        let fk: Vec<u32> = (0..fact_m)
            .map(|i| ((i * 31) % if i < split { dim_n } else { total }) as u32)
            .collect();
        let mut facts_t = TableBuilder::new("facts")
            .column("fk", Vector::U32(fk.clone()))
            .column(
                "m",
                Vector::F64((0..fact_m).map(|i| i as f64 * 0.25).collect()),
            )
            .build();
        if fact_ckpt {
            facts_t.checkpoint();
        }
        let mut db = Database::new();
        db.register(dim);
        db.register(facts_t);
        let fetch = Plan::scan("facts", &["fk", "m"]).fetch1("dim", col("fk"), &[("pay", "pay")]);
        let summed = fetch.clone().aggr(
            vec![],
            vec![AggExpr::sum("s", col("pay")), AggExpr::count("c")],
        );

        let base = ExecOptions::with_vector_size(VS).profiled().with_morsel_size(2 * VS);
        let proved = check_plan(&db, &fetch, &base).expect("check").facts.root().fetch_proved();
        prop_assert_eq!(proved, Some(fk.iter().all(|&r| (r as usize) < dim_n)));
        let inside = fk
            .chunks(VS)
            .filter(|v| v.iter().all(|&r| (r as usize) < dim_n))
            .count() as u64;
        let want_sum: i64 = fk.iter().map(|&r| pay(r as usize)).sum();
        for threads in [1, 2, 4, 8] {
            let opts = base.clone().parallel(threads);
            let (res, prof) = execute(&db, &fetch, &opts).expect("fetch");
            prop_assert_eq!(res.num_rows(), fact_m);
            for (i, &r) in fk.iter().enumerate() {
                prop_assert_eq!(res.value(i, 2).as_i64(), pay(r as usize), "row {}", i);
            }
            prop_assert_eq!(prof.counter("fetch_unchecked_dispatches").unwrap_or(0), inside);
            let (res, prof) = execute(&db, &summed, &opts).expect("summed");
            prop_assert_eq!(res.value(0, 0).as_i64(), want_sum, "threads={}", threads);
            prop_assert_eq!(res.value(0, 1).as_i64(), fact_m as i64);
            prop_assert_eq!(
                prof.counter("fetch_unchecked_dispatches").unwrap_or(0),
                inside,
                "threads={}",
                threads
            );
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

/// A `#rowId` past the dimension's end is not a panic: the plan checks
/// (its fetch-bounds verdict is simply unproven) and the run fails with
/// a typed error naming the table, the column and the row id — for
/// `Fetch1Join` (values or enum codes) and `FetchNJoin` alike.
#[test]
fn out_of_range_rowid_is_a_typed_run_time_error() {
    let dim = TableBuilder::new("dim")
        .column("pay", Vector::I64(vec![1, 2, 3]))
        .auto_enum_str("tag", vec!["a".into(), "b".into(), "c".into()])
        .build();
    let facts_t = TableBuilder::new("facts")
        .column("fk", Vector::U32(vec![0, 1, 9]))
        .column("cnt", Vector::U32(vec![1, 1, 2]))
        .build();
    let mut db = Database::new();
    db.register(dim);
    db.register(facts_t);
    let fetch1 = Plan::scan("facts", &["fk"]).fetch1("dim", col("fk"), &[("pay", "pay")]);
    let summary = check_plan(&db, &fetch1, &ExecOptions::default()).expect("checks");
    assert_eq!(summary.facts.root().fetch_proved(), Some(false));
    // Row ids 0, 1, 9, 10.
    let fetchn = Plan::FetchNJoin {
        input: Box::new(Plan::scan("facts", &["fk", "cnt"])),
        table: "dim".into(),
        lo: col("fk"),
        cnt: col("cnt"),
        fetch: vec![("pay".into(), "pay".into())],
    };
    let codes =
        Plan::scan("facts", &["fk"]).fetch1_with_codes("dim", col("fk"), &[], &[("tag", "tag")]);
    for (plan, column, rowid) in [(fetch1, "pay", 9), (codes, "tag", 9), (fetchn, "pay", 10)] {
        match execute(&db, &plan, &ExecOptions::default()).map(|(r, _)| r.row_strings()) {
            Err(PlanError::Invalid(why)) => assert!(
                why.contains(&format!("`dim`.`{column}`"))
                    && why.contains(&format!("#rowId {rowid} ")),
                "{why}"
            ),
            other => panic!("expected a typed error, got {other:?}"),
        }
    }
}

/// A checked tree is a statement about one catalog. Facts checked
/// against a catalog whose dimension holds 1000 fragment rows, handed to
/// `bind_governed` with a catalog whose same-named dimension holds 10
/// (the other 990 rows pending in its insert delta), are not
/// instantiated: the bind re-checks against the catalog it is given and
/// answers from it. Every vector reaches into the inserts, so the
/// gather never takes its in-range path.
#[test]
fn bind_governed_drops_proofs_made_for_another_catalog() {
    let fact_table = || {
        TableBuilder::new("facts")
            .column(
                "fk",
                Vector::U32((0..5000u32).map(|i| (i * 17) % 1000).collect()),
            )
            .build()
    };
    let mut db_big = Database::new();
    db_big.register(
        TableBuilder::new("dim")
            .column("pay", Vector::I64((0..1000).map(|i| i * 3).collect()))
            .build(),
    );
    db_big.register(fact_table());
    let mut small_dim = TableBuilder::new("dim")
        .column("pay", Vector::I64((0..10).map(|i| i * 5).collect()))
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
    let (want, _) = execute(&db_small, &plan, &opts).expect("checked");
    assert_eq!(got.row_strings(), want.row_strings());
}

/// i32 arithmetic keeps its range fact only when the analyzer can prove
/// no overflow; a possibly-overflowing product widens to ⊤.
#[test]
fn i32_overflow_widens_to_top() {
    let mut db = Database::new();
    db.register(
        TableBuilder::new("t")
            .column("small", Vector::I32((0..100).collect()))
            .column(
                "big",
                Vector::I32((0..100).map(|i| i * 21_000_000).collect()),
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

/// The gather's in-range path behaves identically under parallel morsel
/// execution: every thread count takes it, and all answer the same bytes
/// as one thread and the same sum as a row loop.
#[test]
fn unchecked_fetch_parallel_byte_identical() {
    let fk = |i: u32| (i * 17) % 1000;
    let dim = TableBuilder::new("dim")
        .column("pay", Vector::I64((0..1000).map(|i| i * 3).collect()))
        .build();
    let facts_t = TableBuilder::new("facts")
        .column("fk", Vector::U32((0..20_000u32).map(fk).collect()))
        .column("m", Vector::F64((0..20_000).map(|i| i as f64).collect()))
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
    let want_sum: i64 = (0..20_000u32).map(|i| fk(i) as i64 * 3).sum();
    let baseline = execute(&db, &plan, &ExecOptions::default())
        .expect("serial")
        .0;
    assert_eq!(baseline.value(0, 0).as_i64(), want_sum);
    assert_eq!(baseline.value(0, 1).as_i64(), 20_000);
    for threads in [1, 2, 4, 8] {
        let opts = ExecOptions::default().parallel(threads).profiled();
        let (res, prof) = execute(&db, &plan, &opts).expect("parallel");
        assert_eq!(
            res.row_strings(),
            baseline.row_strings(),
            "threads={threads}"
        );
        assert!(
            prof.counter("fetch_unchecked_dispatches").unwrap_or(0) > 0,
            "threads={threads}: in-range path never taken"
        );
    }
}
