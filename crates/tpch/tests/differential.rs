//! Differential property testing: randomly composed plans over randomly
//! generated tables must produce identical results on the X100
//! vectorized engine (at several vector sizes) and on the MIL
//! column-at-a-time interpreter — and, for the random plans and all 22
//! TPC-H plans alike, from the tree the check walk's rewrite rules plan
//! (`x100_engine::RULES`: `select-before-fetch`,
//! `sorted-keys-ordered-aggr`, `dense-keys-direct-aggr`) and from the
//! tree as the plan wrote it.

use proptest::prelude::*;
use tpch::gen::{generate, GenConfig};
use tpch::milql;
use tpch::queries::{all_specs, QuerySpec};
use x100_engine::expr::{self};
use x100_engine::ops::OrdExp;
use x100_engine::plan::Plan;
use x100_engine::session::{execute, execute_as_given, Database, ExecOptions};
use x100_engine::{check_plan, check_plan_as_given};
use x100_storage::{Table, TableBuilder};
use x100_vector::{CmpOp, Value, Vector};

/// Rows of the dimension table `dim` that `t.rid` points into.
const DIM_ROWS: u32 = 5;

/// The dimension table: `d_val`, an enum `d_tag`, and `d_rid`, a
/// `#rowId` back into `dim` (a second fetch hop). `deltas` leaves it
/// with a pending insert and a pending delete, neither of a row any
/// `#rowId` points at.
fn make_dim(compress: bool, deltas: bool) -> Table {
    let tags = ["red", "green", "blue"];
    let n = DIM_ROWS as i64 + deltas as i64;
    let mut t = TableBuilder::new("dim")
        .column("d_val", Vector::I64((0..n).map(|i| i * 7 - 9).collect()))
        .auto_enum_str(
            "d_tag",
            (0..n).map(|i| tags[(i % 3) as usize].to_owned()).collect(),
        )
        .column(
            "d_rid",
            Vector::U32((0..n as u32).map(|i| (i * 3 + 1) % DIM_ROWS).collect()),
        )
        .build();
    if compress {
        t.checkpoint();
    }
    if deltas {
        t.delete(DIM_ROWS);
        t.insert(&[Value::I64(99), Value::Str("red".into()), Value::U32(0)]);
    }
    t
}

/// Build a random table: i64 key-ish column, f64 value, enum tag, a
/// sorted key `k` (runs of equal values) and `rid`, a `#rowId` into
/// `dim`. With `compress`, the tables are checkpointed first so scans
/// run over the compressed chunk store (PFOR/PDICT decode paths)
/// instead of the plain in-memory columns.
fn make_db_with(rows: &[(i64, f64, u8)], compress: bool, dim_deltas: bool) -> Database {
    let tags = ["red", "green", "blue"];
    let mut run = 0i64;
    let k = rows.iter().map(|r| {
        run += (r.2 % 4 == 0) as i64;
        run
    });
    let mut t = TableBuilder::new("t")
        .column("a", Vector::I64(rows.iter().map(|r| r.0).collect()))
        .column("x", Vector::F64(rows.iter().map(|r| r.1).collect()))
        .auto_enum_str(
            "tag",
            rows.iter()
                .map(|r| tags[(r.2 % 3) as usize].to_owned())
                .collect(),
        )
        .column("k", Vector::I64(k.collect()))
        .column(
            "rid",
            Vector::U32(rows.iter().map(|r| r.2 as u32 % DIM_ROWS).collect()),
        )
        .build();
    if compress {
        t.checkpoint();
    }
    let mut db = Database::new();
    db.register(t);
    db.register(make_dim(compress, dim_deltas));
    db
}

fn make_db_inner(rows: &[(i64, f64, u8)], compress: bool) -> Database {
    make_db_with(rows, compress, false)
}

fn make_db(rows: &[(i64, f64, u8)]) -> Database {
    make_db_inner(rows, false)
}

/// [`make_db`] with one insert pending on `t` (and none on `dim`).
fn make_db_with_fact_inserts(rows: &[(i64, f64, u8)]) -> Database {
    let db = make_db(rows);
    let mut t = (*db.table("t").expect("t")).clone();
    let k = t.total_rows() as i64;
    t.insert(&[
        Value::I64(0),
        Value::F64(0.5),
        Value::Str("blue".into()),
        Value::I64(k),
        Value::U32(0),
    ]);
    let mut out = Database::new();
    out.register(t);
    out.register(make_dim(false, false));
    out
}

#[derive(Debug, Clone)]
enum Step {
    SelectA(CmpOp, i64),
    SelectAFloat(CmpOp, i64), // i64 column vs x.5 float literal (promotion)
    SelectX(CmpOp, i64),      // compares x against a small integer literal
    SelectTag(bool, u8),      // eq/ne against one of the tags
    ProjectArith(u8),
    AggrByTag,
    AggrByA,
    OrderByA,
    /// Fetch `d_val`, `d_tag` and `d_rid` by `rid` (`d_tag` as codes
    /// where only code readers consume it).
    FetchDim,
    /// A second hop: `d_val` again, by the `d_rid` the first fetch brought.
    FetchDimAgain,
    SelectDVal(CmpOp, i64),
    SelectDTag(bool, u8),
    /// Reads one side of the fetch each: `a < d_val`.
    SelectAcrossFetch,
    /// Group by the sorted key.
    AggrByK,
    /// Group by an integer column and an enum column (a direct table
    /// when the rows cover the key domain).
    AggrByAAndTag,
    /// Group by the sorted key, reading only what the second hop brought
    /// (whose `#rowId` the first hop brought).
    SumSecondHopByK,
}

fn step_strategy() -> impl Strategy<Value = Step> {
    let cmp = prop_oneof![
        Just(CmpOp::Lt),
        Just(CmpOp::Le),
        Just(CmpOp::Gt),
        Just(CmpOp::Ge),
        Just(CmpOp::Eq),
        Just(CmpOp::Ne)
    ];
    prop_oneof![
        (cmp.clone(), -50i64..50).prop_map(|(c, v)| Step::SelectA(c, v)),
        (cmp.clone(), -50i64..50).prop_map(|(c, v)| Step::SelectAFloat(c, v)),
        (cmp.clone(), -50i64..50).prop_map(|(c, v)| Step::SelectX(c, v)),
        (any::<bool>(), 0u8..4).prop_map(|(e, t)| Step::SelectTag(e, t)),
        (0u8..4).prop_map(Step::ProjectArith),
        Just(Step::AggrByTag),
        Just(Step::AggrByA),
        Just(Step::OrderByA),
        Just(Step::FetchDim),
        Just(Step::FetchDim),
        Just(Step::FetchDimAgain),
        (cmp, -10i64..20).prop_map(|(c, v)| Step::SelectDVal(c, v)),
        (any::<bool>(), 0u8..4).prop_map(|(e, t)| Step::SelectDTag(e, t)),
        Just(Step::SelectAcrossFetch),
        Just(Step::AggrByK),
        Just(Step::AggrByAAndTag),
        Just(Step::SumSecondHopByK),
    ]
}

/// Compose the plan; returns `(plan, ordered)` where `ordered` says the
/// output order is deterministic (ends in Order).
fn build_plan(steps: &[Step]) -> (Plan, bool) {
    use expr::*;
    let mut plan = Plan::scan("t", &["a", "x", "tag", "k", "rid"]);
    // Track which columns survive (projections/aggregations reshape).
    let mut has = (true, true, true); // (a, x, tag)
    let mut scanned = true; // `k` and `rid` are still there
    let mut fetched = (false, false); // (first hop, second hop) done
    let mut ordered = false;
    for s in steps {
        ordered = false;
        match s {
            Step::SelectA(c, v) if has.0 => {
                plan = plan.select(cmp(*c, col("a"), lit_i64(*v)));
            }
            Step::SelectAFloat(c, v) if has.0 => {
                plan = plan.select(cmp(*c, col("a"), lit_f64(*v as f64 + 0.5)));
            }
            Step::SelectX(c, v) if has.1 => {
                plan = plan.select(cmp(*c, col("x"), lit_f64(*v as f64)));
            }
            Step::SelectTag(is_eq, t) if has.2 => {
                let lit = ["red", "green", "blue", "ABSENT"][(*t % 4) as usize];
                let e = if *is_eq {
                    eq(col("tag"), lit_str(lit))
                } else {
                    ne(col("tag"), lit_str(lit))
                };
                plan = plan.select(e);
            }
            Step::ProjectArith(k) if has.0 && has.1 => {
                let e = match k % 4 {
                    0 => add(col("x"), cast(x100_vector::ScalarType::F64, col("a"))),
                    1 => mul(sub(lit_f64(1.0), col("x")), col("x")),
                    2 => sub(col("a"), lit_i64(3)),
                    _ => mul(col("x"), lit_f64(2.0)),
                };
                let keep_tag = has.2;
                let mut exprs: Vec<(&str, Expr)> = vec![("a", col("a")), ("x", col("x")), ("y", e)];
                if keep_tag {
                    exprs.push(("tag", col("tag")));
                }
                plan = plan.project(exprs);
                (scanned, fetched) = (false, (false, false));
            }
            Step::AggrByTag if has.2 => {
                let mut aggs = vec![AggExpr::count("n")];
                if has.1 {
                    aggs.push(AggExpr::sum("sx", col("x")));
                    aggs.push(AggExpr::min("mnx", col("x")));
                    aggs.push(AggExpr::max("mxx", col("x")));
                }
                plan = plan.aggr(vec![("tag", col("tag"))], aggs);
                has = (false, false, true);
                (scanned, fetched) = (false, (false, false));
            }
            Step::AggrByA if has.0 => {
                let mut aggs = vec![AggExpr::count("n")];
                if has.1 {
                    aggs.push(AggExpr::sum("sx", col("x")));
                }
                plan = plan.aggr(vec![("a", col("a"))], aggs);
                has = (true, false, false);
                (scanned, fetched) = (false, (false, false));
            }
            Step::OrderByA if has.0 => {
                plan = plan.order(vec![OrdExp::asc("a")]);
                ordered = true;
            }
            Step::FetchDim if scanned && !fetched.0 => {
                let all = [("d_val", "d_val"), ("d_tag", "d_tag"), ("d_rid", "d_rid")];
                plan = plan.fetch1("dim", col("rid"), &all);
                fetched.0 = true;
            }
            Step::FetchDimAgain if fetched.0 && !fetched.1 => {
                plan = plan.fetch1("dim", col("d_rid"), &[("d_val", "d_val2")]);
                fetched.1 = true;
            }
            Step::SelectDVal(c, v) if fetched.0 => {
                let which = if fetched.1 { "d_val2" } else { "d_val" };
                plan = plan.select(cmp(*c, col(which), lit_i64(*v)));
            }
            Step::SelectDTag(is_eq, t) if fetched.0 => {
                let lit = ["red", "green", "blue", "ABSENT"][(*t % 4) as usize];
                let e = if *is_eq {
                    eq(col("d_tag"), lit_str(lit))
                } else {
                    ne(col("d_tag"), lit_str(lit))
                };
                plan = plan.select(e);
            }
            Step::SelectAcrossFetch if fetched.0 && has.0 => {
                plan = plan.select(lt(col("a"), col("d_val")));
            }
            Step::AggrByK if scanned => {
                let mut aggs = vec![AggExpr::count("n")];
                if has.1 {
                    aggs.push(AggExpr::sum("sx", col("x")));
                    aggs.push(AggExpr::avg("ax", col("x")));
                }
                plan = plan.aggr(vec![("a", col("k"))], aggs);
                has = (true, false, false);
                (scanned, fetched) = (false, (false, false));
            }
            Step::AggrByAAndTag if has.0 && has.2 => {
                let mut aggs = vec![AggExpr::count("n")];
                if has.1 {
                    aggs.push(AggExpr::sum("sx", col("x")));
                }
                plan = plan.aggr(vec![("a", col("a")), ("tag", col("tag"))], aggs);
                has = (true, false, true);
                (scanned, fetched) = (false, (false, false));
            }
            Step::SumSecondHopByK if scanned && fetched.1 => {
                let aggs = vec![AggExpr::count("n"), AggExpr::sum("sx", col("d_val2"))];
                plan = plan.aggr(vec![("a", col("k"))], aggs);
                has = (true, false, false);
                (scanned, fetched) = (false, (false, false));
            }
            _ => {} // step not applicable to current shape
        }
    }
    (plan, ordered)
}

/// Run `plan` through the rule list and as written and demand the same
/// rows in the same order, bit for bit (`Debug` prints an `f64` to
/// round-trip).
fn assert_rewritten_matches_as_given(db: &Database, plan: &Plan, opts: &ExecOptions, what: &str) {
    let outcome = |r: Result<(x100_engine::QueryResult, _), _>| match r {
        Ok((res, _)) => format!("{res:?}"),
        Err(err) => panic!("{what}: {err}"),
    };
    let rewritten = outcome(execute(db, plan, opts));
    let as_given = outcome(execute_as_given(db, plan, opts));
    assert_eq!(rewritten, as_given, "{what}: rewritten vs as given");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn random_plans_agree_across_engines(
        rows in prop::collection::vec((-50i64..50, -40i64..40, any::<u8>()), 0..200),
        steps in prop::collection::vec(step_strategy(), 0..5),
    ) {
        let rows: Vec<(i64, f64, u8)> = rows.into_iter().map(|(a, x, t)| (a, x as f64, t)).collect();
        let db = make_db(&rows);
        let (plan, ordered) = build_plan(&steps);

        let (base, _) = execute(&db, &plan, &ExecOptions::with_vector_size(1024)).expect("x100");
        let mut base_rows = base.row_strings();
        if !ordered {
            base_rows.sort();
        }
        // Vector-size invariance.
        for vs in [1usize, 7, 64] {
            let (r, _) = execute(&db, &plan, &ExecOptions::with_vector_size(vs)).expect("x100 vs");
            let mut rr = r.row_strings();
            if !ordered {
                rr.sort();
            }
            prop_assert_eq!(&rr, &base_rows, "vector size {} diverged", vs);
        }
        // Rule invariance: the tree the rule list plans and the tree as
        // the plan wrote it give the same rows in the same order — also
        // with pending deltas on the dimension table, where
        // `select-before-fetch` must keep the predicate on the stream.
        let ddb = make_db_with(&rows, false, true);
        for threads in [1usize, 2, 4, 8] {
            let o = ExecOptions::with_vector_size(64).parallel(threads).with_morsel_size(64);
            let what = format!("threads {threads}");
            assert_rewritten_matches_as_given(&db, &plan, &o, &what);
            assert_rewritten_matches_as_given(&ddb, &plan, &o, &format!("{what}, dim deltas"));
        }
        if let Ok(walk) = check_plan(&ddb, &plan, &ExecOptions::default()) {
            let walk = walk.render();
            prop_assert!(!walk.contains("predicate runs once"), "dimension side over deltas:\n{}", walk);
        }
        // Textual algebra round trip: render → parse → execute.
        let text = x100_engine::render_plan(&plan);
        let reparsed = x100_engine::parse_plan(&text)
            .unwrap_or_else(|e| panic!("render output failed to parse: {e}\n{text}"));
        let (r, _) = execute(&db, &reparsed, &ExecOptions::default()).expect("reparsed plan");
        let mut rr = r.row_strings();
        if !ordered {
            rr.sort();
        }
        prop_assert_eq!(&rr, &base_rows, "render/parse roundtrip diverged:\n{}", text);
        // Spill invariance: a hostile memory budget plus a spill budget
        // must degrade gracefully — buffering operators write runs to
        // disk and re-ingest them — with identical results. The tiny
        // vector size keeps per-batch charges under the budget so the
        // pressure lands on the *buffered* state, which can spill.
        let o = ExecOptions::with_vector_size(16)
            .with_mem_budget(1 << 10)
            .with_spill_budget(64 << 20);
        let (r, _) = execute(&db, &plan, &o).expect("spilled execution");
        let mut rr = r.row_strings();
        if !ordered {
            rr.sort();
        }
        prop_assert_eq!(&rr, &base_rows, "spilled execution diverged");
        // MIL column-at-a-time interpreter agreement.
        let (mil, _) = milql::run_plan(&db, &plan).expect("mil");
        let mut mm = mil.row_strings();
        if !ordered {
            mm.sort();
        }
        prop_assert_eq!(&mm, &base_rows, "MIL diverged");
        // Compressed-chunk invariance: checkpoint the table so scans
        // decode PFOR/PDICT chunks; small vector sizes force the decode
        // cursor to continue mid-chunk across refills.
        let cdb = make_db_inner(&rows, true);
        for vs in [3usize, 1024] {
            let (r, _) = execute(&cdb, &plan, &ExecOptions::with_vector_size(vs)).expect("x100 comp");
            let mut rr = r.row_strings();
            if !ordered {
                rr.sort();
            }
            prop_assert_eq!(&rr, &base_rows, "compressed scan (vs {}) diverged", vs);
        }
        for threads in [1usize, 2] {
            let o = ExecOptions::with_vector_size(64).parallel(threads).with_morsel_size(64);
            assert_rewritten_matches_as_given(&cdb, &plan, &o, &format!("checkpointed, threads {threads}"));
        }
    }
}

/// The walk-log lines of `rule` for `plan`.
fn rule_lines(db: &Database, plan: &Plan, opts: &ExecOptions, rule: &str) -> Vec<String> {
    let walk = check_plan(db, plan, opts).expect("checks");
    let tag = format!(": rule {rule}: ");
    let lines = walk.report.into_iter().filter(|l| l.contains(&tag));
    lines.collect()
}

/// The walk-log lines in which `rule` declines a node of `plan`.
fn refusals(db: &Database, plan: &Plan, opts: &ExecOptions, rule: &str) -> Vec<String> {
    let walk = check_plan(db, plan, opts).expect("checks");
    let tag = format!(": rule {rule} refused: ");
    let lines = walk.report.into_iter().filter(|l| l.contains(&tag));
    lines.collect()
}

/// Table-driven: what each rule needs to fire, one condition knocked
/// out per negative case (each fetches only what its predicate reads,
/// so there is nothing to fetch late either).
#[test]
fn rules_fire_on_their_conditions_only() {
    use expr::*;
    let rows: Vec<(i64, f64, u8)> = (0..120).map(|i| (i % 17, i as f64, i as u8)).collect();
    let db = make_db(&rows);
    let few = make_db(&rows[..30]); // 30 rows < 8 · |dim|
    let with_deltas = make_db_with(&rows, false, true);
    let opts = ExecOptions::default();
    let scan = || Plan::scan("t", &["a", "x", "k", "rid"]);
    let one_fetch = || scan().fetch1("dim", col("rid"), &[("d_val", "d_val")]);
    let on_dim = || one_fetch().select(gt(col("d_val"), lit_i64(0)));
    let two_hops = || {
        scan()
            .fetch1("dim", col("rid"), &[("d_val", "d_val"), ("d_rid", "d_rid")])
            .fetch1("dim", col("d_rid"), &[("d_val", "d_val2")])
    };

    let rule = "select-before-fetch";
    let fired = rule_lines(&db, &on_dim(), &opts, rule);
    assert!(
        fired.len() == 1 && fired[0].contains("predicate runs once over `dim`"),
        "{fired:?}"
    );
    // The second hop's predicate: the first hop still has to run below
    // the selection for its #rowId, `d_val` waits until after it.
    let hop = two_hops().select(lt(col("d_val2"), lit_i64(9)));
    let fired = rule_lines(&db, &hop, &opts, rule);
    assert!(
        fired.len() == 1 && fired[0].contains("[d_val, d_val2]"),
        "{fired:?}"
    );
    // Nothing to evaluate on the dimension side, one column to fetch late.
    let late = scan()
        .fetch1("dim", col("rid"), &[("d_val", "d_val"), ("d_rid", "d_rid")])
        .select(lt(col("a"), col("d_val")));
    let fired = rule_lines(&db, &late, &opts, rule);
    assert!(
        fired.len() == 1 && fired[0].ends_with("fetched after the selection: [d_rid]"),
        "{fired:?}"
    );
    // A late fetch whose #rowId an earlier late fetch brings in: both
    // hops run after the selection, in the plan's order, whatever the
    // nodes above read.
    let filtered = || two_hops().select(gt(col("a"), lit_i64(3)));
    for (what, plan) in [
        ("result", filtered()),
        (
            "Project",
            filtered().project(vec![("a", col("a")), ("v", col("d_val2"))]),
        ),
        (
            "Aggr",
            filtered().aggr(
                vec![("a", col("a"))],
                vec![AggExpr::sum("s", col("d_val2"))],
            ),
        ),
    ] {
        let fired = rule_lines(&db, &plan, &opts, rule);
        assert!(
            fired.len() == 1
                && fired[0].ends_with("fetched after the selection: [d_val, d_rid, d_val2]"),
            "{what} above: {fired:?}"
        );
        assert_rewritten_matches_as_given(&db, &plan, &opts, what);
    }
    for (why, db, plan) in [
        (
            "the predicate also reads a probe-side column",
            &db,
            one_fetch().select(lt(col("a"), col("d_val"))),
        ),
        (
            "two fetches feed the predicate",
            &db,
            two_hops().select(lt(col("d_val"), col("d_val2"))),
        ),
        (
            "the table is more than an eighth of the rows so far",
            &few,
            on_dim(),
        ),
        (
            "a fetch alias shadows a column of the input",
            &db,
            scan()
                .fetch1("dim", col("rid"), &[("d_val", "a"), ("d_rid", "d_rid")])
                .select(gt(col("x"), lit_f64(3.0))),
        ),
    ] {
        let fired = rule_lines(db, &plan, &opts, rule);
        assert!(fired.is_empty(), "{rule} fired although {why}: {fired:?}");
        assert_rewritten_matches_as_given(db, &plan, &opts, why);
    }
    // Pending deltas switch the dimension side off, and the walk says so.
    let fired = rule_lines(&with_deltas, &on_dim(), &opts, rule);
    assert!(
        fired.len() == 1 && fired[0].contains("pending deltas"),
        "{fired:?}"
    );
    assert_rewritten_matches_as_given(&with_deltas, &on_dim(), &opts, "dim deltas");

    let rule = "sorted-keys-ordered-aggr";
    let by = |keys: Vec<(&str, Expr)>| scan().aggr(keys, vec![AggExpr::sum("sx", col("x"))]);
    let fired = rule_lines(&db, &by(vec![("k", col("k"))]), &opts, rule);
    assert!(
        fired.len() == 1 && fired[0].ends_with("ordered aggregation"),
        "{fired:?}"
    );
    // `x` is 0.0, 1.0, …: sorted, but a sorted f64 column may interleave
    // 0.0 and -0.0, which group apart.
    for (why, keys) in [
        (
            "the keys are (sorted, unsorted)",
            vec![("k", col("k")), ("a", col("a"))],
        ),
        (
            "the key is computed",
            vec![("k", add(col("k"), lit_i64(1)))],
        ),
        ("the sorted key is an f64", vec![("x", col("x"))]),
        ("there is no key", vec![]),
    ] {
        let fired = rule_lines(&db, &by(keys.clone()), &opts, rule);
        assert!(fired.is_empty(), "{rule} fired although {why}: {fired:?}");
        assert_rewritten_matches_as_given(&db, &by(keys), &opts, why);
    }
    // A proven-sorted-key aggregation is never under an Exchange — as
    // the rule's `OrdAggr` nor as the `HashAggr` the plan wrote — and
    // runs `Aggr(ORDERED)` on one thread, at the top or under another
    // aggregation; the same scan grouped by an unsorted key is split.
    let two = ExecOptions::default()
        .parallel(2)
        .with_morsel_size(16)
        .profiled();
    let by_k = by(vec![("k", col("k"))]);
    let counted = by_k.clone().aggr(vec![], vec![AggExpr::count("groups")]);
    for (plan, sorted) in [
        (by_k, true),
        (counted, true),
        (by(vec![("a", col("a"))]), false),
    ] {
        let shown = x100_engine::render_plan(&plan);
        assert_eq!(
            rule_lines(&db, &plan, &two, rule).len(),
            usize::from(sorted)
        );
        for walk in [
            check_plan(&db, &plan, &two),
            check_plan_as_given(&db, &plan, &two),
        ] {
            let walk = walk.expect("checks").render();
            assert_eq!(walk.contains(": Exchange → "), !sorted, "{shown}{walk}");
        }
        let (_, prof) = execute(&db, &plan, &two).expect("runs");
        let ran = |op: &str| prof.operators().any(|(name, _)| name == op);
        assert_eq!(ran("Aggr(ORDERED)"), sorted, "{shown}");
        assert_eq!(ran("MergeAggr"), !sorted, "{shown}");
        assert_eq!(prof.workers().is_empty(), sorted, "{shown}");
        assert_rewritten_matches_as_given(&db, &plan, &two, "threads 2");
    }

    let rule = "dense-keys-direct-aggr";
    // `a` is 0..=16 and `tag` an enum only the grouping reads: 17 × 3
    // slots over 120 rows, `tag` scanned as codes, also under a
    // selection that does not read it.
    let tagged = || Plan::scan("t", &["a", "x", "tag", "k"]);
    let group =
        |input: Plan, keys: Vec<(&str, Expr)>| input.aggr(keys, vec![AggExpr::sum("sx", col("x"))]);
    let a_tag = || vec![("a", col("a")), ("tag", col("tag"))];
    let by_a_tag = || group(tagged(), a_tag());
    let filtered = group(tagged().select(gt(col("x"), lit_f64(3.0))), a_tag());
    for (what, plan) in [("scan", by_a_tag()), ("selection", filtered)] {
        let fired = rule_lines(&db, &plan, &opts, rule);
        assert!(
            fired.len() == 1
                && fired[0].contains("`a` in [0, 16] × `tag` code → direct table of 51 slots"),
            "{what}: {fired:?}"
        );
        assert!(refusals(&db, &plan, &opts, rule).is_empty());
        let (_, prof) = execute(&db, &plan, &opts.clone().profiled()).expect("runs");
        assert!(prof.operators().any(|(name, _)| name == "Aggr(DIRECT)"));
        for threads in [1, 2, 4] {
            let o = ExecOptions::default()
                .parallel(threads)
                .with_morsel_size(16);
            assert_rewritten_matches_as_given(
                &db,
                &plan,
                &o,
                &format!("{what}, threads {threads}"),
            );
        }
    }
    let spill = opts.clone().with_spill_budget(64 << 20);
    let inserts = make_db_with_fact_inserts(&rows);
    for (why, db, plan, o, reason) in [
        (
            "the key is sorted",
            &db,
            by(vec![("k", col("k"))]),
            &opts,
            "sorted-keys-ordered-aggr",
        ),
        (
            "the domain is larger than the input",
            &few,
            by_a_tag(),
            &opts,
            "51 slots exceed the input's 30 rows",
        ),
        ("spill is armed", &db, by_a_tag(), &spill, "spill budget"),
        (
            "the table has pending inserts (its enum column arrives as values)",
            &inserts,
            group(tagged(), vec![("tag", col("tag"))]),
            &opts,
            "key `tag` is str",
        ),
        (
            "the key is a float",
            &db,
            by(vec![("x", col("x"))]),
            &opts,
            "key `x` is f64",
        ),
    ] {
        let fired = rule_lines(db, &plan, o, rule);
        assert!(fired.is_empty(), "{rule} fired although {why}: {fired:?}");
        let refused = refusals(db, &plan, o, rule);
        assert!(
            refused.len() == 1 && refused[0].contains(reason),
            "{why}: {refused:?}"
        );
        assert_rewritten_matches_as_given(db, &plan, o, why);
    }
    // The sorted key keeps its ordered aggregation.
    let sorted = rule_lines(
        &db,
        &by(vec![("k", col("k"))]),
        &opts,
        "sorted-keys-ordered-aggr",
    );
    assert_eq!(sorted.len(), 1, "{sorted:?}");

    // As given, no rule leaves a line.
    let as_given = check_plan_as_given(&db, &on_dim(), &opts).expect("checks");
    assert!(!as_given.render().contains(": rule "));
    let as_given = check_plan_as_given(&db, &by_a_tag(), &opts).expect("checks");
    assert!(!as_given.render().contains(": rule "));
}

/// The benchmark's `hashagg` shape — `lineitem` grouped by ship date
/// and discount, an integer range times an enum only the grouping
/// reads — takes the direct table and answers exactly as the hash
/// table the plan wrote: the same rows in the same order, raw and
/// checkpointed, on one thread and under an Exchange.
#[test]
fn dense_ship_date_and_discount_groups_match_the_hash_table() {
    use expr::*;
    let li = tpch::gen::generate_lineitem_q1(&GenConfig { sf: 0.01, seed: 11 });
    let raw = tpch::db::build_lineitem(&li);
    let mut compressed = raw.clone();
    compressed.checkpoint();
    let plan = Plan::scan("lineitem", &["l_shipdate", "l_discount", "l_extendedprice"]).aggr(
        vec![
            ("l_shipdate", col("l_shipdate")),
            ("l_discount", col("l_discount")),
        ],
        vec![
            AggExpr::sum("revenue", col("l_extendedprice")),
            AggExpr::count("n"),
        ],
    );
    for (form, table) in [("raw", raw), ("checkpointed", compressed)] {
        let mut db = Database::new();
        db.register(table);
        let fired = rule_lines(
            &db,
            &plan,
            &ExecOptions::default(),
            "dense-keys-direct-aggr",
        );
        assert!(
            fired.len() == 1 && fired[0].contains("`l_discount` code"),
            "{form}: {fired:?}"
        );
        for threads in [1, 2, 4] {
            let o = ExecOptions::default()
                .parallel(threads)
                .with_morsel_size(4096);
            let (_, prof) = execute(&db, &plan, &o.clone().profiled()).expect("runs");
            assert!(prof.operators().any(|(name, _)| name == "Aggr(DIRECT)"));
            assert_rewritten_matches_as_given(
                &db,
                &plan,
                &o,
                &format!("{form}, threads {threads}"),
            );
        }
    }
}

/// `db` with `change` applied to a copy of every table.
fn each_table(db: &Database, change: impl Fn(&mut Table)) -> Database {
    let names: Vec<String> = db.table_names().map(str::to_owned).collect();
    let mut out = Database::new();
    for name in names {
        let mut t = (*db.table(&name).expect("listed table")).clone();
        change(&mut t);
        out.register(t);
    }
    out
}

/// The TPC-H corpus with every table checkpoint-compressed.
fn checkpointed(db: &Database) -> Database {
    each_table(db, |t| {
        t.checkpoint();
    })
}

/// The TPC-H corpus with a copy of each table's last row pending as an
/// insert.
fn pending_inserts(db: &Database) -> Database {
    each_table(db, |t| {
        let row = t.get_row(t.total_rows() as u32 - 1);
        t.insert(&row);
    })
}

/// All 22 TPC-H plans (both phases of the two-phase ones), as
/// `(query, plan)`.
fn tpch_plans(db: &Database) -> Vec<(u32, Plan)> {
    let opts = ExecOptions::default();
    let mut out = Vec::new();
    for (q, spec) in all_specs() {
        match spec {
            QuerySpec::Single(p) => out.push((q, p)),
            QuerySpec::TwoPhase(tp) => {
                let (r1, _) = execute(db, &tp.phase1, &opts).expect("phase 1");
                let scalar = r1.value(0, r1.col_index(tp.scalar_col).expect("scalar"));
                out.push((q, (tp.phase2)(scalar.as_f64())));
                out.push((q, tp.phase1));
            }
        }
    }
    out
}

#[test]
fn tpch_rewritten_matches_as_given_on_every_thread_count_and_storage_form() {
    let data = generate(&GenConfig { sf: 0.005, seed: 7 });
    let raw = tpch::build_x100_db(&data);
    let compressed = checkpointed(&raw);
    let plans = tpch_plans(&raw);
    for (form, db) in [("raw", &raw), ("checkpointed", &compressed)] {
        for threads in [1usize, 2, 4, 8] {
            let opts = ExecOptions::default()
                .parallel(threads)
                .with_morsel_size(4096);
            for (q, plan) in &plans {
                assert_rewritten_matches_as_given(
                    db,
                    plan,
                    &opts,
                    &format!("{form} q{q} threads {threads}"),
                );
            }
        }
    }
    // The rules are what the corpus' two slowest queries were waiting for.
    let opts = ExecOptions::default();
    let fired = |q: u32, rule: &str| -> usize {
        let plans = plans.iter().filter(|(pq, _)| *pq == q);
        plans
            .map(|(_, p)| rule_lines(&raw, p, &opts, rule).len())
            .sum()
    };
    assert!(
        fired(9, "select-before-fetch") > 0,
        "Q9's LIKE runs over `part`"
    );
    assert!(
        fired(18, "sorted-keys-ordered-aggr") > 0,
        "Q18 groups lineitem by its clustering key"
    );
    assert_eq!(
        fired(21, "sorted-keys-ordered-aggr"),
        2,
        "both of Q21's per-order aggregations"
    );
    assert!(
        fired(21, "select-before-fetch") > 0,
        "Q21 fetches s_name for the survivors"
    );
    assert!(
        fired(15, "dense-keys-direct-aggr") > 0,
        "Q15 groups revenue by supplier index"
    );
    assert!(
        fired(17, "dense-keys-direct-aggr") > 0,
        "Q17 averages quantity by part index"
    );
    for rule in x100_engine::RULES {
        let total: usize = (1..=22).map(|q| fired(q, rule)).sum();
        assert!(total > 0, "{rule} never fires on TPC-H");
    }
}

/// Q18 and Q21 group `lineitem` by the key it is clustered on. Under a
/// memory budget their hash tables did not fit in, the ordered
/// aggregation neither fails nor spills: it holds one vector of groups.
#[test]
fn sorted_key_aggregations_of_q18_and_q21_stream_under_a_memory_budget() {
    let data = generate(&GenConfig { sf: 0.01, seed: 7 });
    let db = tpch::build_x100_db(&data);
    let plans = tpch_plans(&db);
    let plan = |q: u32| {
        &plans
            .iter()
            .find(|(pq, _)| *pq == q)
            .expect("single-phase")
            .1
    };
    let peak =
        |prof: &x100_engine::Profiler| prof.counter("gov_mem_peak").expect("tracked") as usize;
    let profiled = ExecOptions::default().profiled();
    for q in [18, 21] {
        let (want, hashed) = execute_as_given(&db, plan(q), &profiled).expect("as given");
        let (_, streamed) = execute(&db, plan(q), &profiled).expect("rewritten");
        assert!(
            peak(&streamed) < peak(&hashed) / 2,
            "q{q}: {} vs {}",
            peak(&streamed),
            peak(&hashed)
        );
        // Between the two: the hash tables have to spill, the runs do not.
        let budget = (peak(&streamed) + peak(&hashed)) / 2;
        let tight = profiled
            .clone()
            .with_mem_budget(budget)
            .with_spill_budget(256 << 20);
        let (_, prof) = execute_as_given(&db, plan(q), &tight).expect("as given, spilling");
        assert!(
            prof.counter("spill_runs").unwrap_or(0) > 0,
            "q{q} as given should spill"
        );
        let (got, prof) = execute(&db, plan(q), &tight).expect("rewritten, in budget");
        assert_eq!(format!("{got:?}"), format!("{want:?}"));
        assert_eq!(
            prof.counter("spill_runs"),
            None,
            "q{q}: the spill directory was touched"
        );
        // Without a spill budget the same memory budget is simply met.
        let no_spill = profiled.clone().with_mem_budget(budget);
        let (got, _) = execute(&db, plan(q), &no_spill).expect("rewritten, no spill budget");
        assert_eq!(format!("{got:?}"), format!("{want:?}"));
    }
    // Q18 holds nothing else of size: its whole governed state is a few
    // vectors' worth, whatever the number of orders.
    let (_, prof) = execute(&db, plan(18), &profiled).expect("runs");
    let vs = profiled.vector_size;
    assert!(
        peak(&prof) <= 64 * vs,
        "Q18 peak {} for vector size {vs}",
        peak(&prof)
    );
}

/// Rows sorted, at display precision: how `parallel_q1` compares an
/// answer across thread counts (f64 sums differ in the last ulp).
fn sorted_rows(res: &x100_engine::QueryResult) -> Vec<String> {
    let mut rows = res.row_strings();
    rows.sort();
    rows
}

/// The TPC-H corpus over pending deltas. With a copy of each table's
/// last row pending as an insert, every plan answers exactly as over
/// the same tables reorganized on one thread, two threads agree with
/// one, and the rules change no answer. With each table's last row
/// deleted, every plan answers, and Q1 and Q6 (which read `lineitem`
/// alone) equal the reorganized table.
#[test]
fn tpch_answers_over_pending_inserts_and_deletes() {
    let data = generate(&GenConfig { sf: 0.005, seed: 7 });
    let raw = tpch::build_x100_db(&data);
    let one = ExecOptions::default();
    let two = ExecOptions::default().parallel(2).with_morsel_size(4096);
    let run = |db: &Database, plan: &Plan, opts: &ExecOptions, what: &str| {
        execute(db, plan, opts)
            .unwrap_or_else(|e| panic!("{what}: {e}"))
            .0
    };
    let inserts = pending_inserts(&raw);
    let merged = each_table(&inserts, Table::reorganize);
    for (q, plan) in &tpch_plans(&inserts) {
        let what = format!("q{q} over pending inserts");
        let got = run(&inserts, plan, &one, &what);
        let want = run(&merged, plan, &one, &what);
        assert_eq!(format!("{got:?}"), format!("{want:?}"), "{what}");
        let par = run(&inserts, plan, &two, &what);
        assert_eq!(sorted_rows(&par), sorted_rows(&got), "{what}: threads 2");
        for o in [&one, &two] {
            assert_rewritten_matches_as_given(&inserts, plan, o, &what);
        }
    }
    let deletes = each_table(&raw, |t| {
        t.delete(t.total_rows() as u32 - 1);
    });
    let trimmed = each_table(&deletes, Table::reorganize);
    for (q, plan) in &tpch_plans(&deletes) {
        let what = format!("q{q} over pending deletes");
        let got = run(&deletes, plan, &one, &what);
        if [1, 6].contains(q) {
            let want = run(&trimmed, plan, &one, &what);
            assert_eq!(format!("{got:?}"), format!("{want:?}"), "{what}");
        }
        assert_rewritten_matches_as_given(&deletes, plan, &one, &what);
    }
}

/// The enum columns each TPC-H plan named as codes when plans carried
/// that hint (scanned columns by name, fetched ones by alias; both
/// phases of Q22 named `c_cntrycode`).
const HINTED_CODES: [(u32, &[&str]); 18] = [
    (1, &["l_returnflag", "l_linestatus"]),
    (2, &["r_name", "p_type3"]),
    (3, &["c_mktsegment"]),
    (4, &["o_orderpriority"]),
    (5, &["n_name", "r_name"]),
    (7, &["supp_nation", "cust_nation"]),
    (8, &["p_type", "r_name", "supp_nation"]),
    (9, &["nation"]),
    (10, &["l_returnflag"]),
    (11, &["n_name"]),
    (12, &["l_shipmode", "o_orderpriority"]),
    (14, &["p_type1"]),
    (16, &["p_brand", "p_type", "p_type1", "p_type2"]),
    (17, &["p_brand", "p_container"]),
    (
        19,
        &["l_shipmode", "l_shipinstruct", "p_brand", "p_container"],
    ),
    (20, &["p_name1", "n_name"]),
    (21, &["o_orderstatus", "n_name"]),
    (22, &["c_cntrycode"]),
];

/// `(table, column)` for every column the walk log of `plan` says a
/// `Scan` or `Fetch1Join` reads as codes.
fn code_columns(db: &Database, plan: &Plan) -> Vec<(String, String)> {
    let walk = check_plan(db, plan, &ExecOptions::default()).expect("checks");
    let mut out = Vec::new();
    for line in &walk.report {
        let Some(at) = line
            .find(": Scan `")
            .or_else(|| line.find(": Fetch1Join `"))
        else {
            continue;
        };
        let table = line[at..].split('`').nth(1).expect("table name");
        let Some(list) = line.split(", codes [").nth(1) else {
            continue;
        };
        let list = list.split(']').next().expect("closed list");
        out.extend((list.split(", ")).map(|c| (table.to_owned(), c.to_owned())));
    }
    out
}

/// The check walk derives the code columns the plans used to name: over
/// raw and checkpointed tables every hinted column is still read as
/// codes, and no column of a table with pending inserts ever is.
#[test]
fn tpch_plans_read_their_enum_columns_as_codes() {
    let data = generate(&GenConfig { sf: 0.005, seed: 7 });
    let raw = tpch::build_x100_db(&data);
    for (form, db) in [("raw", &raw), ("checkpointed", &checkpointed(&raw))] {
        let plans = tpch_plans(db);
        for (q, hinted) in HINTED_CODES {
            let codes: Vec<String> = (plans.iter().filter(|(pq, _)| *pq == q))
                .flat_map(|(_, p)| code_columns(db, p))
                .map(|(_, c)| c)
                .collect();
            for c in hinted {
                assert!(
                    codes.iter().any(|got| got == c),
                    "{form} q{q}: `{c}` in {codes:?}"
                );
            }
        }
    }
    let inserts = pending_inserts(&raw);
    for (q, plan) in &tpch_plans(&inserts) {
        for (table, col) in code_columns(&inserts, plan) {
            let t = inserts.table(&table).expect("walked table");
            assert_eq!(t.delta_rows(), 0, "q{q}: `{table}.{col}` read as codes");
        }
    }
}
