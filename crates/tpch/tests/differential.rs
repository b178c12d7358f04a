//! Differential property testing: randomly composed plans over randomly
//! generated tables must produce identical results on the X100
//! vectorized engine (at several vector sizes) and on the MIL
//! column-at-a-time interpreter — and, for the random plans and all 22
//! TPC-H plans alike, from the tree the check walk's rewrite rules plan
//! (`x100_engine::RULES`: `select-before-fetch`,
//! `sorted-keys-ordered-aggr`, `dense-keys-direct-aggr`,
//! `sorted-inputs-merge-join`, `summary-range-select`,
//! `unread-not-fetched`) and from the tree as the plan wrote it.

use proptest::prelude::*;
use tpch::db::{each_table, pending_deletes, pending_inserts};
use tpch::gen::{generate, GenConfig};
use tpch::milql;
use tpch::queries::{all_specs, QuerySpec};
use x100_engine::expr::{self};
use x100_engine::ops::{JoinType, OrdExp};
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

/// `s`, sorted on `s_k` (keys 0..40, each twice but every fifth once,
/// so `t.k` has keys `s` lacks and the other way round), with a payload
/// `s_v` and a sorted f64 `s_x`.
fn make_sorted(compress: bool) -> Table {
    let keys: Vec<i64> = (0..40i64)
        .flat_map(|k| std::iter::repeat_n(k, 1 + usize::from(k % 5 != 0)))
        .collect();
    let n = keys.len() as i64;
    let mut t = TableBuilder::new("s")
        .column("s_k", Vector::I64(keys))
        .column("s_v", Vector::I64((0..n).map(|i| i * 3 % 11).collect()))
        .column("s_x", Vector::F64((0..n).map(|i| i as f64).collect()))
        .build();
    if compress {
        t.checkpoint();
    }
    t
}

/// Build a random table: i64 key-ish column, f64 value, enum tag, a
/// sorted key `k` (runs of equal values) and `rid`, a `#rowId` into
/// `dim`. With `compress`, the tables are checkpointed first, so the
/// columns a dictionary compresses best are enum columns.
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
    db.register(make_sorted(compress));
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
    out.register(make_sorted(false));
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
    /// Join `s` on the sorted key (`s_k = k`), inner / left-outer (both
    /// bringing `s_v`) / semi / anti: two sorted inputs.
    JoinSorted(u8),
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
        // Three times: the join needs `k` in scan order, which most
        // step lists lose before it comes up.
        (0u8..4).prop_map(Step::JoinSorted),
        (0u8..4).prop_map(Step::JoinSorted),
        (0u8..4).prop_map(Step::JoinSorted),
    ]
}

/// Compose the plan; returns `(plan, ordered, textual)` where `ordered`
/// says the output order is deterministic (ends in Order) and `textual`
/// that the plan survives the textual algebra (which has no hash join).
fn build_plan(steps: &[Step]) -> (Plan, bool, bool) {
    use expr::*;
    let mut plan = Plan::scan("t", &["a", "x", "tag", "k", "rid"]);
    // Track which columns survive (projections/aggregations reshape).
    let mut has = (true, true, true); // (a, x, tag)
    let mut scanned = true; // `k` and `rid` are still there
    let mut fetched = (false, false); // (first hop, second hop) done
    let mut joined = false;
    let mut reordered = false; // an Order put `k` out of scan order
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
                reordered = true;
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
            Step::JoinSorted(t) if scanned && !joined && !reordered => {
                let join_type = [
                    JoinType::Inner,
                    JoinType::LeftOuter,
                    JoinType::LeftSemi,
                    JoinType::LeftAnti,
                ][(*t % 4) as usize];
                let payload = match join_type {
                    JoinType::Inner | JoinType::LeftOuter => {
                        vec![("s_v".to_owned(), "s_v".to_owned())]
                    }
                    JoinType::LeftSemi | JoinType::LeftAnti => vec![],
                };
                plan = Plan::HashJoin {
                    build: Box::new(Plan::scan("s", &["s_k", "s_v"])),
                    probe: Box::new(plan),
                    build_keys: vec![col("s_k")],
                    probe_keys: vec![col("k")],
                    payload,
                    join_type,
                };
                joined = true;
            }
            _ => {} // step not applicable to current shape
        }
    }
    (plan, ordered, !joined)
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
        let (plan, ordered, textual) = build_plan(&steps);

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
        // with pending deltas on the dimension table, which
        // `select-before-fetch`'s dimension side scans whole.
        let ddb = make_db_with(&rows, false, true);
        for threads in [1usize, 2, 4, 8] {
            let o = ExecOptions::with_vector_size(64).parallel(threads).with_morsel_size(64);
            let what = format!("threads {threads}");
            assert_rewritten_matches_as_given(&db, &plan, &o, &what);
            assert_rewritten_matches_as_given(&ddb, &plan, &o, &format!("{what}, dim deltas"));
        }
        if let Ok(walk) = check_plan(&ddb, &plan, &ExecOptions::default()) {
            let walk = walk.render();
            // The join of `s` meets `t` in scan order: both sorted.
            prop_assert_eq!(walk.contains("→ merge join"), !textual, "{}", walk);
        }
        // Textual algebra round trip: render → parse → execute.
        if textual {
            let text = x100_engine::render_plan(&plan);
            let reparsed = x100_engine::parse_plan(&text)
                .unwrap_or_else(|e| panic!("render output failed to parse: {e}\n{text}"));
            let (r, _) = execute(&db, &reparsed, &ExecOptions::default()).expect("reparsed plan");
            let mut rr = r.row_strings();
            if !ordered {
                rr.sort();
            }
            prop_assert_eq!(&rr, &base_rows, "render/parse roundtrip diverged:\n{}", text);
        }
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
        // decode PFOR / PFOR-DELTA chunks; small vector sizes force the decode
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
    // hops run after the selection, in the plan's order. Rule
    // `unread-not-fetched` leaves out what the nodes above do not read,
    // but never the first hop's `d_rid`, which the second hop reads.
    let filtered = || two_hops().select(gt(col("a"), lit_i64(3)));
    for (what, plan, after, unread) in [
        ("result", filtered(), "[d_val, d_rid, d_val2]", None),
        (
            "Project",
            filtered().project(vec![("a", col("a")), ("v", col("d_val2"))]),
            "[d_rid, d_val2]",
            Some("not fetched: [d_val]"),
        ),
        (
            "Aggr",
            filtered().aggr(
                vec![("a", col("a"))],
                vec![AggExpr::sum("s", col("d_val2"))],
            ),
            "[d_rid, d_val2]",
            Some("not fetched: [d_val]"),
        ),
    ] {
        let fired = rule_lines(&db, &plan, &opts, rule);
        assert!(
            fired.len() == 1
                && fired[0].ends_with(&format!("fetched after the selection: {after}")),
            "{what} above: {fired:?}"
        );
        let fetched = rule_lines(&db, &plan, &opts, "unread-not-fetched");
        let fetched: Vec<&String> = fetched
            .iter()
            .filter(|l| l.contains("not fetched"))
            .collect();
        match unread {
            None => assert!(fetched.is_empty(), "{what} above: {fetched:?}"),
            Some(u) => assert!(
                fetched.len() == 1 && fetched[0].ends_with(u),
                "{what} above: {fetched:?}"
            ),
        }
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
    // Over pending deltas the predicate runs over fragment ++ delta,
    // deleted rows included: here `t` fetches a deleted `dim` row, whose
    // byte is the predicate over its values, as the fetch would see them.
    let mut addressed = (*with_deltas.table("dim").expect("dim")).clone();
    assert!(addressed.delete(2));
    let mut addressed_db = make_db(&rows);
    addressed_db.register(addressed);
    for (what, db) in [
        ("dim deltas", &with_deltas),
        ("a fetched row deleted", &addressed_db),
    ] {
        let fired = rule_lines(db, &on_dim(), &opts, rule);
        assert!(
            fired.len() == 1 && fired[0].contains("predicate runs once over `dim` (7 rows)"),
            "{what}: {fired:?}"
        );
        for threads in [1, 2, 4] {
            let o = ExecOptions::default()
                .parallel(threads)
                .with_morsel_size(16);
            assert_rewritten_matches_as_given(
                db,
                &on_dim(),
                &o,
                &format!("{what}, threads {threads}"),
            );
        }
    }

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
    // Over a pending insert `tag` still arrives as codes: the insert
    // delta holds them.
    let inserts = make_db_with_fact_inserts(&rows);
    for (what, db, plan) in [
        ("scan", &db, by_a_tag()),
        ("selection", &db, filtered),
        ("pending insert", &inserts, by_a_tag()),
    ] {
        let fired = rule_lines(db, &plan, &opts, rule);
        assert!(
            fired.len() == 1
                && fired[0].contains("`a` in [0, 16] × `tag` code → direct table of 51 slots"),
            "{what}: {fired:?}"
        );
        assert!(refusals(db, &plan, &opts, rule).is_empty());
        let (_, prof) = execute(db, &plan, &opts.clone().profiled()).expect("runs");
        assert!(prof.operators().any(|(name, _)| name == "Aggr(DIRECT)"));
        for threads in [1, 2, 4] {
            let o = ExecOptions::default()
                .parallel(threads)
                .with_morsel_size(16);
            assert_rewritten_matches_as_given(db, &plan, &o, &format!("{what}, threads {threads}"));
        }
    }
    let spill = opts.clone().with_spill_budget(64 << 20);
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

    let rule = "sorted-inputs-merge-join";
    // `s` and `t` are both sorted on their key: every join type merges,
    // raw and checkpointed, on any thread count, and answers as the
    // hash join the plan wrote.
    let joined = |probe_key: Expr, build_key: Expr, join_type: JoinType| {
        let payload = match join_type {
            JoinType::Inner | JoinType::LeftOuter => vec![("s_v".to_owned(), "s_v".to_owned())],
            JoinType::LeftSemi | JoinType::LeftAnti => vec![],
        };
        Plan::HashJoin {
            build: Box::new(Plan::scan("s", &["s_k", "s_v", "s_x"])),
            probe: Box::new(scan().select(gt(col("a"), lit_i64(2)))),
            build_keys: vec![build_key],
            probe_keys: vec![probe_key],
            payload,
            join_type,
        }
    };
    // The pending insert's key is above the fragment's: `k` stays sorted.
    let checkpointed_db = make_db_inner(&rows, true);
    for join_type in [
        JoinType::Inner,
        JoinType::LeftOuter,
        JoinType::LeftSemi,
        JoinType::LeftAnti,
    ] {
        let plan = joined(col("k"), col("s_k"), join_type);
        let forms = [
            ("raw", &db),
            ("checkpointed", &checkpointed_db),
            ("pending insert", &inserts),
        ];
        for (form, db) in forms {
            let fired = rule_lines(db, &plan, &opts, rule);
            assert!(
                fired.len() == 1
                    && fired[0].ends_with("keys `s_k` and `k` proven sorted → merge join"),
                "{join_type:?} {form}: {fired:?}"
            );
            for threads in [1, 2, 4] {
                let o = ExecOptions::default()
                    .parallel(threads)
                    .with_morsel_size(16);
                let what = format!("{join_type:?} {form} threads {threads}");
                assert_rewritten_matches_as_given(db, &plan, &o, &what);
                // Neither tree splits the merge join into morsels.
                let walk = check_plan(db, &plan, &o).expect("checks").render();
                assert!(!walk.contains(": Exchange → "), "{what}: {walk}");
            }
        }
        let (_, prof) = execute(&db, &plan, &opts.clone().profiled()).expect("runs");
        assert!(prof.operators().any(|(name, _)| name == "MergeJoin"));
    }
    for (why, db, plan, reason) in [
        (
            "the probe key is unsorted",
            &db,
            joined(col("a"), col("s_k"), JoinType::Inner),
            "the probe key `a` is not proven sorted",
        ),
        (
            "the build key is unsorted",
            &db,
            joined(col("k"), col("s_v"), JoinType::Inner),
            "the build key `s_v` is not proven sorted",
        ),
        (
            "the probe key is computed",
            &db,
            joined(add(col("k"), lit_i64(1)), col("s_k"), JoinType::LeftSemi),
            "the probe key computed is not proven sorted",
        ),
        (
            "the key is an f64",
            &db,
            joined(col("x"), col("s_x"), JoinType::LeftSemi),
            "the key is f64, not an integer",
        ),
    ] {
        let fired = rule_lines(db, &plan, &opts, rule);
        assert!(fired.is_empty(), "{rule} fired although {why}: {fired:?}");
        let refused = refusals(db, &plan, &opts, rule);
        assert!(
            refused.len() == 1 && refused[0].contains(reason),
            "{why}: {refused:?}"
        );
        for threads in [1, 2, 4] {
            let o = ExecOptions::default()
                .parallel(threads)
                .with_morsel_size(16);
            assert_rewritten_matches_as_given(db, &plan, &o, &format!("{why}, threads {threads}"));
        }
    }

    // As given, no rule leaves a line.
    let as_given = check_plan_as_given(&db, &on_dim(), &opts).expect("checks");
    assert!(!as_given.render().contains(": rule "));
    let as_given = check_plan_as_given(&db, &by_a_tag(), &opts).expect("checks");
    assert!(!as_given.render().contains(": rule "));
}

/// The `not fetched` / `not scanned` lists rule `unread-not-fetched`
/// logs for `plan`, one string per line.
fn unread_lists(db: &Database, plan: &Plan) -> Vec<String> {
    let lines = rule_lines(db, plan, &ExecOptions::default(), "unread-not-fetched");
    let lists = lines
        .iter()
        .map(|l| l.split(": rule unread-not-fetched: ").nth(1));
    lists.map(|l| l.expect("rule line").to_owned()).collect()
}

/// Rule `unread-not-fetched` on every kind of reader: a column read only
/// as a sort key, as hash-join build payload or as a `FetchNJoin` range
/// is gathered, one no node reads is not — a fetch left with nothing
/// does not run, a scan read for its row count alone keeps one column —
/// and the answers are the plan's as written, bit for bit, over raw,
/// checkpointed and pending-delta tables, at two vector sizes and two
/// thread counts.
#[test]
fn unread_columns_are_not_gathered_and_every_reader_keeps_its_own() {
    use expr::*;
    let rows: Vec<(i64, f64, u8)> = (0..150)
        .map(|i| (i % 13, i as f64 * 0.5, i as u8))
        .collect();
    let scan = || Plan::scan("t", &["a", "x", "k", "rid"]);
    let fetch = |cols: &[(&str, &str)]| scan().fetch1("dim", col("rid"), cols);
    let cases = [
        (
            "a fetch none of whose columns is read",
            fetch(&[("d_val", "d_val"), ("d_tag", "d_tag")])
                .aggr(vec![("k", col("k"))], vec![AggExpr::sum("sx", col("x"))])
                .order(vec![OrdExp::asc("k")]),
            &[
                "not scanned: [a, rid]",
                "not fetched: [d_val, d_tag]; the fetch of `dim` does not run",
            ][..],
        ),
        (
            "a count that reads no column",
            Plan::scan("t", &["a", "x", "tag"]).aggr(vec![], vec![AggExpr::count("n")]),
            &["not scanned: [a, x]"][..],
        ),
        (
            "a column read only as a TopN sort key",
            fetch(&[("d_val", "d_val"), ("d_rid", "d_rid")])
                .topn(vec![OrdExp::desc("d_val"), OrdExp::asc("x")], 7)
                .project(vec![("a", col("a")), ("x", col("x"))]),
            &["not scanned: [k]", "not fetched: [d_rid]"][..],
        ),
        (
            "a column read only as hash-join build payload",
            Plan::HashJoin {
                build: Box::new(fetch(&[("d_val", "d_val"), ("d_tag", "d_tag")])),
                probe: Box::new(Plan::scan("s", &["s_k", "s_v"])),
                build_keys: vec![col("k")],
                probe_keys: vec![col("s_k")],
                payload: vec![("d_val".into(), "pv".into())],
                join_type: JoinType::Inner,
            }
            .aggr(
                vec![],
                vec![AggExpr::sum("t", col("pv")), AggExpr::count("n")],
            ),
            &[
                "not scanned: [a, x]",
                "not fetched: [d_tag]",
                "not scanned: [s_v]",
            ][..],
        ),
        (
            "a column read only by a FetchNJoin range",
            Plan::FetchNJoin {
                input: Box::new(fetch(&[("d_rid", "d_rid"), ("d_val", "d_val")])),
                table: "s".into(),
                lo: col("rid"),
                cnt: col("d_rid"),
                fetch: vec![("s_v".into(), "s_v".into())],
            }
            .aggr(
                vec![],
                vec![AggExpr::sum("t", col("s_v")), AggExpr::count("n")],
            ),
            &["not scanned: [a, x, k]", "not fetched: [d_val]"][..],
        ),
    ];
    let forms = [
        ("raw", make_db(&rows)),
        ("checkpointed", make_db_inner(&rows, true)),
        ("dim deltas", make_db_with(&rows, false, true)),
        ("fact inserts", make_db_with_fact_inserts(&rows)),
    ];
    for (what, plan, want) in &cases {
        let mut lists = unread_lists(&forms[0].1, plan);
        lists.sort();
        let mut want: Vec<String> = want.iter().map(|w| w.to_string()).collect();
        want.sort();
        assert_eq!(lists, want, "{what}");
        for (form, db) in &forms {
            for (vs, threads) in [(7, 1), (7, 2), (1024, 1), (1024, 2)] {
                let o = ExecOptions::with_vector_size(vs)
                    .parallel(threads)
                    .with_morsel_size(64);
                let at = format!("{what}: {form}, vector size {vs}, threads {threads}");
                assert_rewritten_matches_as_given(db, plan, &o, &at);
            }
        }
    }
}

/// The two-hop chain `lineitem → orders → customer` under a filter on a
/// fact column: rule `select-before-fetch` moves both hops above the
/// selection, and no node above reads the first hop's `o_cust_idx` —
/// only the second hop's `#rowId` does. It is gathered; what no one
/// reads (`o_totalprice`, `l_quantity`) is not; and the answers are the
/// plan's as written over raw, pending-insert and checkpointed tables,
/// at vector sizes 7 and 1024 and at one and two threads.
#[test]
fn a_middle_rowid_read_only_by_the_next_hop_is_gathered() {
    use expr::*;
    let plan = Plan::scan(
        "lineitem",
        &["l_quantity", "l_extendedprice", "li_order_idx"],
    )
    .fetch1(
        "orders",
        col("li_order_idx"),
        &[
            ("o_cust_idx", "o_cust_idx"),
            ("o_totalprice", "o_totalprice"),
        ],
    )
    .fetch1(
        "customer",
        col("o_cust_idx"),
        &[("c_acctbal", "c_acctbal"), ("c_nation_idx", "c_nation_idx")],
    )
    .select(lt(col("l_extendedprice"), lit_f64(20000.0)))
    .aggr(
        vec![("c_nation_idx", col("c_nation_idx"))],
        vec![AggExpr::sum("bal", col("c_acctbal")), AggExpr::count("n")],
    )
    .order(vec![OrdExp::asc("c_nation_idx")]);
    let data = generate(&GenConfig { sf: 0.002, seed: 7 });
    let raw = tpch::build_x100_db(&data);
    let moved = rule_lines(&raw, &plan, &ExecOptions::default(), "select-before-fetch");
    assert!(
        moved.len() == 1
            && moved[0]
                .ends_with("fetched after the selection: [o_cust_idx, c_acctbal, c_nation_idx]"),
        "{moved:?}"
    );
    let mut lists = unread_lists(&raw, &plan);
    lists.sort();
    assert_eq!(
        lists,
        ["not fetched: [o_totalprice]", "not scanned: [l_quantity]"]
    );
    let (inserts, compressed) = (pending_inserts(&raw), checkpointed(&raw));
    for (form, db) in [
        ("raw", &raw),
        ("pending inserts", &inserts),
        ("checkpointed", &compressed),
    ] {
        assert_eq!(unread_lists(db, &plan), unread_lists(&raw, &plan), "{form}");
        for (vs, threads) in [(7, 1), (7, 2), (1024, 1), (1024, 2)] {
            let o = ExecOptions::with_vector_size(vs)
                .parallel(threads)
                .with_morsel_size(4096);
            let at = format!("{form}, vector size {vs}, threads {threads}");
            assert_rewritten_matches_as_given(db, &plan, &o, &at);
        }
    }
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

/// The rows the profiled `Scan`s of a run read.
fn scanned(prof: &x100_engine::Profiler) -> u64 {
    let scan = prof.operators().filter(|(name, _)| *name == "Scan");
    scan.map(|(_, s)| s.tuples).sum()
}

/// One compare of a range `Select` over `r.d` (whose value is its row
/// id): the values it passes (inclusive bounds) and the fragment rows
/// rule `summary-range-select` proves it for.
#[derive(Clone, Copy, Debug)]
struct RangeCmp {
    lo: Option<i64>,
    hi: Option<i64>,
    proven: Option<(usize, usize)>,
}

impl RangeCmp {
    fn passes(&self, d: i64) -> bool {
        self.lo.is_none_or(|lo| d >= lo) && self.hi.is_none_or(|hi| d <= hi)
    }
}

/// The fragment batches `[start, end)` a scan of `range` emits: vectors
/// of `vs` rows, inside morsels of `morsel` rows (the whole table's
/// boundaries, clipped) when an `Exchange` runs it.
fn fragment_batches(
    range: (usize, usize),
    vs: usize,
    morsel: Option<usize>,
) -> Vec<(usize, usize)> {
    let mut morsels = Vec::new();
    match morsel {
        None => morsels.push(range),
        Some(m) => {
            let mut b = range.0 / m * m;
            while b < range.1 {
                morsels.push((b.max(range.0), (b + m).min(range.1)));
                b += m;
            }
        }
    }
    let mut out = Vec::new();
    for (mut p, e) in morsels {
        while p < e {
            let n = (e - p).min(vs);
            out.push((p, p + n));
            p += n;
        }
    }
    out
}

/// The rows the select primitives of `compares` (run in order) read: a
/// compare reads the live rows earlier compares left, of every fragment
/// batch not wholly inside its proven rows, and of every delta row.
fn select_inputs(
    compares: &[RangeCmp],
    batches: &[(usize, usize)],
    deleted: &[usize],
    inserted: &[i64],
) -> u64 {
    let mut total = 0;
    for (k, c) in compares.iter().enumerate() {
        let reach = |d: i64| compares[..k].iter().all(|p| p.passes(d));
        for &(s, e) in batches {
            if c.proven.is_some_and(|(a, b)| a <= s && e <= b) {
                continue;
            }
            let live = (s..e).filter(|r| !deleted.contains(r) && reach(*r as i64));
            total += live.count() as u64;
        }
        total += inserted.iter().filter(|&&d| reach(d)).count() as u64;
    }
    total
}

/// Rule `summary-range-select`: a range `Select` over a summarized
/// column reads only the fragment rows the summary index leaves, skips
/// each compare on the vectors inside the rows the index proves it for,
/// and evaluates every pending delta row — inserts inside and outside
/// the proven rows' values, deletes inside them — answering as the
/// whole scan the plan wrote, bit for bit, at two vector sizes, on one
/// thread and under an Exchange, raw and checkpointed.
#[test]
fn summary_range_select_cuts_the_fragment_and_keeps_every_delta_row() {
    use expr::*;
    const N: i32 = 8_000;
    // `d` is the row id with rows 0 and 1 swapped: every granule's
    // bounds and every compare's passing rows are the row id's, but the
    // column is not sorted.
    let d = (0..N).map(|i| if i < 2 { 1 - i } else { i });
    let fresh = || {
        TableBuilder::new("r")
            .column("d", Vector::I32(d.clone().collect()))
            .with_summary()
            .column("g", Vector::I64((0..i64::from(N)).map(|i| i % 5).collect()))
            .column(
                "v",
                Vector::F64(
                    (0..N)
                        .map(|i| f64::from(i * 37 % 101) * 0.37 - 11.0)
                        .collect(),
                ),
            )
            .build()
    };
    // Inserts below, inside and above every range; deletes inside the
    // proven prefix (100), the proven suffix (7 900) and a cut (4 020).
    let (inserted, deleted) = ([4_050i64, 9_500, -3], [100usize, 4_020, 7_900]);
    let pending = |mut t: Table| {
        for d in inserted {
            let d = d as i32;
            t.insert(&[Value::I32(d), Value::I64(7), Value::F64(0.1 * f64::from(d))]);
        }
        for row in deleted {
            t.delete(row as u32);
        }
        t
    };
    let checkpointed = |mut t: Table| {
        t.checkpoint();
        t
    };
    let per_g = |pred: Expr| {
        (Plan::scan("r", &["d", "g", "v"]).select(pred)).aggr(
            vec![("g", col("g"))],
            vec![AggExpr::sum("s", col("v")), AggExpr::count("n")],
        )
    };
    let (le_4499, ge_3500) = (
        RangeCmp {
            lo: None,
            hi: Some(4_499),
            proven: Some((0, 4_000)),
        },
        RangeCmp {
            lo: Some(3_500),
            hi: None,
            proven: Some((4_000, 8_000)),
        },
    );
    // (predicate, the rows the scan reads, its compares in step order)
    let cases = [
        (le(col("d"), lit_i32(4_499)), (0, 5_000), vec![le_4499]),
        (lt(col("d"), lit_i32(4_500)), (0, 5_000), vec![le_4499]),
        (ge(col("d"), lit_i32(3_500)), (3_000, 8_000), vec![ge_3500]),
        (gt(col("d"), lit_i32(3_499)), (3_000, 8_000), vec![ge_3500]),
        (
            and(ge(col("d"), lit_i32(2_500)), lt(col("d"), lit_i32(5_500))),
            (2_000, 6_000),
            vec![
                RangeCmp {
                    lo: Some(2_500),
                    hi: None,
                    proven: Some((3_000, 6_000)),
                },
                RangeCmp {
                    lo: None,
                    hi: Some(5_499),
                    proven: Some((2_000, 5_000)),
                },
            ],
        ),
    ];
    let rule = "summary-range-select";
    let forms: [(&str, Table); 4] = [
        ("raw", fresh()),
        ("raw, pending deltas", pending(fresh())),
        ("checkpointed", checkpointed(fresh())),
        (
            "checkpointed, pending deltas",
            pending(checkpointed(fresh())),
        ),
    ];
    for (form, table) in forms {
        let with_deltas = table.delta_rows() > 0;
        let (inserted, deleted): (&[i64], &[usize]) = match with_deltas {
            true => (&inserted, &deleted),
            false => (&[], &[]),
        };
        let mut db = Database::new();
        db.register(table);
        for (pred, (start, end), steps) in &cases {
            let plan = per_g(pred.clone());
            let what = format!("{form}, `{}`", x100_engine::render_expr(pred));
            let compares = steps;
            let fired = rule_lines(&db, &plan, &ExecOptions::default(), rule);
            let line = fired.concat();
            assert!(
                fired.len() == 1 && line.contains(&format!("→ rows {start}..{end} of {N}")),
                "{what}: {fired:?}"
            );
            for c in compares {
                let (a, b) = c.proven.expect("every case proves its compares");
                let proven = format!("certain rows {a}..{b}");
                assert!(line.contains(&proven), "{what}: no `{proven}` in {line}");
            }
            let passes = |d: i64| compares.iter().all(|c| c.passes(d));
            let rows = (0..N as usize).filter(|r| !deleted.contains(r) && passes(*r as i64));
            let want = rows.count() + inserted.iter().filter(|&&d| passes(d)).count();
            for threads in [1, 2] {
                for vs in [7, 1024] {
                    let o = ExecOptions::with_vector_size(vs)
                        .parallel(threads)
                        .with_morsel_size(1024);
                    let what = format!("{what}, threads {threads}, vector size {vs}");
                    assert_rewritten_matches_as_given(&db, &plan, &o, &what);
                    let walk = check_plan(&db, &plan, &o).expect("checks");
                    let exchange = walk.report.iter().any(|l| l.contains(": Exchange → "));
                    let batches = fragment_batches((*start, *end), vs, exchange.then_some(1024));
                    let profiled = o.clone().profiled();
                    let (res, prof) = execute(&db, &plan, &profiled).expect("runs");
                    let n: i64 = res.column_by_name("n").as_i64().iter().sum();
                    assert_eq!(n as usize, want, "{what}");
                    let read: u64 = (prof.primitives())
                        .filter(|(sig, _)| sig.starts_with("select_"))
                        .map(|(_, s)| s.tuples)
                        .sum();
                    let expect = select_inputs(compares, &batches, deleted, inserted);
                    assert_eq!(read, expect, "{what}: select primitives' input rows");
                    let (_, whole) = execute_as_given(&db, &plan, &profiled).expect("runs");
                    assert_eq!(scanned(&prof), (end - start) as u64, "{what}");
                    assert_eq!(scanned(&whole), N as u64, "{what}: as given");
                }
            }
        }
    }
    // Nothing to cut or prove: a column without a summary, and a bound
    // the predicate does not refine.
    let mut db = Database::new();
    db.register(fresh());
    for (why, pred) in [
        ("`g` has no summary index", lt(col("g"), lit_i64(2))),
        (
            "the bound is a disjunction",
            or(lt(col("d"), lit_i32(10)), gt(col("d"), lit_i32(7_990))),
        ),
    ] {
        let plan = per_g(pred);
        let fired = rule_lines(&db, &plan, &ExecOptions::default(), rule);
        assert!(fired.is_empty(), "{rule} fired although {why}: {fired:?}");
        for threads in [1, 2] {
            let o = ExecOptions::default()
                .parallel(threads)
                .with_morsel_size(1024);
            assert_rewritten_matches_as_given(&db, &plan, &o, &format!("{why}, threads {threads}"));
        }
    }
    // A range the whole fragment falls in cuts nothing, but proves its
    // compare for every fragment row: only the other one runs there.
    let plan = per_g(and(ge(col("d"), lit_i32(-5)), gt(col("v"), lit_f64(0.0))));
    let fired = rule_lines(&db, &plan, &ExecOptions::default(), rule);
    assert!(
        fired.len() == 1
            && fired[0].ends_with("step[0] `select_ge_i32_col_val` certain rows 0..8000"),
        "{fired:?}"
    );
    let (_, prof) = execute(&db, &plan, &ExecOptions::default().profiled()).expect("runs");
    assert!(prof.primitive("select_ge_i32_col_val").is_none());
    assert_eq!(
        prof.primitive("select_gt_f64_col_val").map(|s| s.tuples),
        Some(N as u64)
    );
    for threads in [1, 2] {
        let o = ExecOptions::default()
            .parallel(threads)
            .with_morsel_size(1024);
        assert_rewritten_matches_as_given(
            &db,
            &plan,
            &o,
            &format!("whole range, threads {threads}"),
        );
    }
}

/// The TPC-H corpus with every table checkpointed.
fn checkpointed(db: &Database) -> Database {
    each_table(db, |t| {
        t.checkpoint();
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
    for q in [2, 9, 21] {
        assert!(
            fired(q, "unread-not-fetched") > 0,
            "Q{q} gathers columns no node reads"
        );
    }
    let rule = "sorted-inputs-merge-join";
    assert_eq!(fired(4, rule), 1, "Q4's semi-join of two order-key streams");
    assert_eq!(fired(18, rule), 1, "Q18's big orders against orders");
    assert_eq!(fired(21, rule), 2, "both of Q21's per-order joins");
    let q2 = plans.iter().filter(|(q, _)| *q == 2);
    let q2: Vec<String> = q2
        .flat_map(|(_, p)| refusals(&raw, p, &opts, rule))
        .collect();
    assert!(
        !q2.is_empty()
            && q2
                .iter()
                .all(|l| l.ends_with("2 keys; a merge join walks one")),
        "Q2 joins on two keys: {q2:?}"
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

/// Q18 and Q21 group `lineitem` by the key it is clustered on, and join
/// the groups to inputs sorted on it. Under a memory budget their hash
/// tables did not fit in, the ordered aggregation and the merge join
/// neither fail nor spill: they hold a vector of groups and the build
/// rows of the keys one probe vector matches.
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
        // At three quarters of its peak the plan as given completes by
        // spilling its hash aggregations; its hash-join builds, which
        // cannot spill, fit beside them.
        let spill = 256 << 20;
        let under = profiled
            .clone()
            .with_mem_budget(peak(&hashed) * 3 / 4)
            .with_spill_budget(spill);
        let (got, prof) = execute_as_given(&db, plan(q), &under).expect("as given, spilling");
        assert_eq!(format!("{got:?}"), format!("{want:?}"));
        assert!(
            prof.counter("spill_runs").unwrap_or(0) > 0,
            "q{q} as given should spill"
        );
        // Between the two peaks the rewritten plan neither spills nor
        // fails: the groups and runs fit.
        let budget = (peak(&streamed) + peak(&hashed)) / 2;
        let tight = profiled
            .clone()
            .with_mem_budget(budget)
            .with_spill_budget(spill);
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
    let deletes = pending_deletes(&raw);
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
/// codes, and over pending inserts every plan reads the same columns as
/// codes as over the raw tables (the insert delta holds codes).
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
    for (q, plan) in &tpch_plans(&raw) {
        let codes = code_columns(&inserts, plan);
        assert!(!codes.is_empty() || !HINTED_CODES.iter().any(|(h, _)| h == q));
        assert_eq!(codes, code_columns(&raw, plan), "q{q} over pending inserts");
    }
}

/// The `(path, rule id)` of every rule firing in the walk log of `plan`
/// (a refusal is no firing).
fn firings(db: &Database, plan: &Plan) -> Vec<(String, String)> {
    let walk = check_plan(db, plan, &ExecOptions::default()).expect("checks");
    let mut out = Vec::new();
    for line in &walk.report {
        let Some((path, rest)) = line.split_once(": rule ") else {
            continue;
        };
        let (id, _) = rest.split_once(':').expect("`rule <id>: <what>`");
        if !id.ends_with(" refused") {
            out.push((path.to_owned(), id.to_owned()));
        }
    }
    out
}

/// A pending insert is invisible to the check walk's choices: over one
/// pending insert per table (a copy of its last row), every TPC-H plan
/// logs the same rule firings, at the same paths, as over the raw
/// tables. No plan is an exception.
#[test]
fn tpch_rules_fire_over_pending_inserts_as_over_raw_tables() {
    let data = generate(&GenConfig { sf: 0.005, seed: 7 });
    let raw = tpch::build_x100_db(&data);
    let inserts = pending_inserts(&raw);
    let mut total = 0;
    for (q, plan) in &tpch_plans(&raw) {
        let want = firings(&raw, plan);
        assert_eq!(firings(&inserts, plan), want, "q{q}");
        total += want.len();
    }
    assert!(total > 30, "{total} firings over the corpus");
}
