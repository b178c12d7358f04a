//! Cross-engine correctness: every engine must compute identical TPC-H
//! answers, and each X100 plan must match its row-loop reference.

use tpch::gen::{generate, generate_lineitem_q1, GenConfig};
use tpch::queries::*;
use tpch::{build_volcano_lineitem, build_x100_db, build_x100_q1_db, mil_bats, Q1Row};
use x100_engine::session::{execute, ExecOptions};

fn close(a: f64, b: f64, what: &str) {
    let tol = 1e-6 * (1.0 + a.abs().max(b.abs()));
    assert!((a - b).abs() <= tol, "{what}: {a} vs {b}");
}

fn assert_q1_rows_eq(a: &[Q1Row], b: &[Q1Row], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: group count");
    for (x, y) in a.iter().zip(b.iter()) {
        assert_eq!(
            (x.returnflag, x.linestatus),
            (y.returnflag, y.linestatus),
            "{what}: keys"
        );
        close(x.sum_qty, y.sum_qty, what);
        close(x.sum_base_price, y.sum_base_price, what);
        close(x.sum_disc_price, y.sum_disc_price, what);
        close(x.sum_charge, y.sum_charge, what);
        close(x.avg_qty, y.avg_qty, what);
        close(x.avg_price, y.avg_price, what);
        close(x.avg_disc, y.avg_disc, what);
        assert_eq!(x.count_order, y.count_order, "{what}: count");
    }
}

#[test]
fn q1_all_four_engines_agree() {
    let li = generate_lineitem_q1(&GenConfig {
        sf: 0.003,
        seed: 11,
    });
    let hi = q01::q1_hi_date();
    // 1. Hard-coded UDF (the reference).
    let reference = tpch::run_hardcoded_q1(&li, hi);
    assert_eq!(reference.len(), 4, "Q1 yields 4 groups");
    // 2. X100 vectorized.
    let db = build_x100_q1_db(&li);
    let (res, _) = execute(&db, &q01::x100_plan(), &ExecOptions::default()).expect("x100 q1");
    let x100 = q01::rows_from_x100(&res);
    assert_q1_rows_eq(&x100, &reference, "x100 vs hard-coded");
    // 3. MonetDB/MIL (hand-written Table 3 plan).
    let bats = mil_bats(&li);
    let (mil, trace) = q01::mil_q1(&bats, hi);
    assert_q1_rows_eq(&mil, &reference, "mil vs hard-coded");
    assert!(trace.entries().len() >= 19, "Table 3 has ~20 statements");
    // 4. Volcano tuple-at-a-time.
    let vt = build_volcano_lineitem(&li);
    let (vol, counters) = q01::volcano_q1(&vt, hi);
    assert_q1_rows_eq(&vol, &reference, "volcano vs hard-coded");
    // Table 2's headline: work is a small fraction of all calls.
    assert!(
        counters.work_fraction() < 0.35,
        "work fraction {}",
        counters.work_fraction()
    );
}

#[test]
fn q1_via_mil_interpreter_matches_x100() {
    let li = generate_lineitem_q1(&GenConfig { sf: 0.002, seed: 5 });
    let db = build_x100_q1_db(&li);
    let plan = q01::x100_plan();
    let (res, _) = execute(&db, &plan, &ExecOptions::default()).expect("x100");
    let (mat, session) = tpch::milql::run_plan(&db, &plan).expect("mil interpreter");
    assert_eq!(mat.row_strings(), res.row_strings());
    assert!(session.total_bytes() > 0);
}

/// Generation + loading dominates; share one database per test binary.
fn full_db() -> &'static (tpch::TpchData, x100_engine::Database) {
    static DB: std::sync::OnceLock<(tpch::TpchData, x100_engine::Database)> =
        std::sync::OnceLock::new();
    DB.get_or_init(|| {
        let data = generate(&GenConfig { sf: 0.01, seed: 77 });
        let db = build_x100_db(&data);
        (data, db)
    })
}

#[test]
fn q3_matches_reference() {
    let (data, db) = {
        let t = full_db();
        (&t.0, &t.1)
    };
    let (res, _) = execute(db, &q03::x100_plan(), &ExecOptions::default()).expect("q3");
    let expect = q03::reference(data);
    assert_eq!(res.num_rows(), expect.len());
    let keys = res.column_by_name("l_orderkey").as_i64();
    let revs = res.column_by_name("revenue").as_f64();
    for (i, (k, r)) in expect.iter().enumerate() {
        assert_eq!(keys[i], *k, "q3 row {i} orderkey");
        close(revs[i], *r, "q3 revenue");
    }
}

#[test]
fn q4_matches_reference() {
    let (data, db) = {
        let t = full_db();
        (&t.0, &t.1)
    };
    let (res, _) = execute(db, &q04::x100_plan(), &ExecOptions::default()).expect("q4");
    let expect = q04::reference(data);
    assert_eq!(res.num_rows(), expect.len());
    for (i, (prio, cnt)) in expect.iter().enumerate() {
        assert_eq!(&res.value(i, 0).to_string(), prio, "q4 priority");
        assert_eq!(
            res.column_by_name("order_count").as_i64()[i],
            *cnt,
            "q4 count"
        );
    }
}

#[test]
fn q5_matches_reference() {
    let (data, db) = {
        let t = full_db();
        (&t.0, &t.1)
    };
    let (res, _) = execute(db, &q05::x100_plan(), &ExecOptions::default()).expect("q5");
    let expect = q05::reference(data);
    assert_eq!(res.num_rows(), expect.len());
    for (i, (nation, rev)) in expect.iter().enumerate() {
        assert_eq!(&res.value(i, 0).to_string(), nation, "q5 nation");
        close(
            res.column_by_name("revenue").as_f64()[i],
            *rev,
            "q5 revenue",
        );
    }
}

#[test]
fn q6_matches_reference() {
    let (data, db) = {
        let t = full_db();
        (&t.0, &t.1)
    };
    let (res, prof) =
        execute(db, &q06::x100_plan(), &ExecOptions::default().profiled()).expect("q6");
    assert_eq!(res.num_rows(), 1);
    close(
        res.column_by_name("revenue").as_f64()[0],
        q06::reference(data),
        "q6 revenue",
    );
    // Rule `summary-range-select` must have cut the scan down to ~1 year
    // of data.
    let scanned = prof
        .operators()
        .find(|(k, _)| *k == "Scan")
        .map(|(_, s)| s.tuples)
        .expect("scan");
    let total = db.table("lineitem").expect("t").fragment_rows() as u64;
    assert!(
        scanned < total * 2 / 3,
        "prune ineffective: {scanned}/{total}"
    );
}

#[test]
fn q10_matches_reference() {
    let (data, db) = {
        let t = full_db();
        (&t.0, &t.1)
    };
    let (res, _) = execute(db, &q10::x100_plan(), &ExecOptions::default()).expect("q10");
    let expect = q10::reference(data);
    assert_eq!(res.num_rows(), expect.len());
    let keys = res.column_by_name("c_custkey").as_i64();
    let revs = res.column_by_name("revenue").as_f64();
    for (i, (k, r)) in expect.iter().enumerate() {
        assert_eq!(keys[i], *k, "q10 custkey at {i}");
        close(revs[i], *r, "q10 revenue");
    }
}

#[test]
fn q12_matches_reference() {
    let (data, db) = {
        let t = full_db();
        (&t.0, &t.1)
    };
    let (res, _) = execute(db, &q12::x100_plan(), &ExecOptions::default()).expect("q12");
    let expect = q12::reference(data);
    assert_eq!(res.num_rows(), expect.len());
    for (i, (mode, high, low)) in expect.iter().enumerate() {
        assert_eq!(&res.value(i, 0).to_string(), mode);
        assert_eq!(res.column_by_name("high_line_count").as_i64()[i], *high);
        assert_eq!(res.column_by_name("low_line_count").as_i64()[i], *low);
    }
}

#[test]
fn q14_matches_reference() {
    let (data, db) = {
        let t = full_db();
        (&t.0, &t.1)
    };
    let (res, _) = execute(db, &q14::x100_plan(), &ExecOptions::default()).expect("q14");
    assert_eq!(res.num_rows(), 1);
    close(
        res.column_by_name("promo_revenue").as_f64()[0],
        q14::reference(data),
        "q14",
    );
}

#[test]
fn q19_matches_reference() {
    let (data, db) = {
        let t = full_db();
        (&t.0, &t.1)
    };
    let (res, _) = execute(db, &q19::x100_plan(), &ExecOptions::default()).expect("q19");
    assert_eq!(res.num_rows(), 1);
    close(
        res.column_by_name("revenue").as_f64()[0],
        q19::reference(data),
        "q19",
    );
}

#[test]
fn all_plans_run_on_mil_interpreter() {
    // Every Table 4 query must produce identical rows on the MIL
    // interpreter and the X100 engine.
    let db = &full_db().1;
    for (q, plan) in all_plans() {
        let (res, _) = execute(db, &plan, &ExecOptions::default())
            .unwrap_or_else(|e| panic!("x100 q{q}: {e}"));
        let (mat, _) = tpch::milql::run_plan(db, &plan).unwrap_or_else(|e| panic!("mil q{q}: {e}"));
        assert_eq!(mat.row_strings(), res.row_strings(), "q{q} MIL vs X100");
    }
}

#[test]
fn vector_size_invariance_on_q1_and_q3() {
    let db = &full_db().1;
    for plan in [q01::x100_plan(), q03::x100_plan()] {
        let (base, _) = execute(db, &plan, &ExecOptions::with_vector_size(1024)).expect("base");
        for vs in [1, 64, 4096] {
            let (r, _) = execute(db, &plan, &ExecOptions::with_vector_size(vs)).expect("run");
            assert_eq!(r.row_strings(), base.row_strings(), "vector size {vs}");
        }
    }
}

/// The plans carry no pruning hint: the walk derives each `Scan`'s row
/// range from its date `Select` (rule `summary-range-select`). On Q4's
/// `orders` side, Q6, Q14 and both phases of Q15 that is exactly the
/// range the date column's summary index gives for the query's bounds,
/// and the profiled scan reads exactly that range.
#[test]
fn date_selections_cut_the_scan_to_the_summary_range() {
    use x100_engine::plan::Plan;
    let db = &full_db().1;
    let opts = ExecOptions::default();
    let day = |y, m| i64::from(x100_vector::date::to_days(y, m, 1));
    // Q4 merges `orders` into `lineitem`, which it reads only as far as
    // the orders reach: profile its `orders` side alone.
    let Plan::Order { input, .. } = q04::x100_plan() else {
        panic!("Q4 ends in an Order")
    };
    let Plan::Aggr { input, .. } = *input else {
        panic!("Q4 orders an Aggr")
    };
    let Plan::HashJoin { probe: orders, .. } = *input else {
        panic!("Q4 aggregates a join")
    };
    let q15 = q15::x100_spec();
    let (r1, _) = execute(db, &q15.phase1, &opts).expect("q15 phase 1");
    let max_revenue = r1.column_by_name(q15.scalar_col).as_f64()[0];
    let shipped = ("lineitem", "l_shipdate");
    let cases = [
        (
            "q4",
            *orders,
            ("orders", "o_orderdate"),
            day(1993, 7),
            day(1993, 10),
        ),
        ("q6", q06::x100_plan(), shipped, day(1994, 1), day(1995, 1)),
        (
            "q14",
            q14::x100_plan(),
            shipped,
            day(1995, 9),
            day(1995, 10),
        ),
        (
            "q15 phase 1",
            q15.phase1,
            shipped,
            day(1996, 1),
            day(1996, 4),
        ),
        (
            "q15 phase 2",
            (q15.phase2)(max_revenue),
            shipped,
            day(1996, 1),
            day(1996, 4),
        ),
    ];
    for (what, plan, (table, col), lo, next) in cases {
        let hi = next - 1;
        let t = db.table(table).expect("table");
        let summary = t.column_by_name(col).summary().expect("summary index");
        let (start, end) = summary.range_candidates(Some(lo), Some(hi));
        let n = t.fragment_rows();
        assert!(end - start < n, "{what}: the summary cuts");
        let walk = x100_engine::explain_check(db, &plan, &opts);
        let line = format!(
            "rule summary-range-select: `{col}` in [{lo}, {hi}] → rows {start}..{end} of {n}"
        );
        assert!(walk.contains(&line), "{what}: no `{line}` in\n{walk}");
        let (_, prof) = execute(db, &plan, &opts.clone().profiled()).expect("runs");
        let scan = prof.operators().find(|(k, _)| *k == "Scan");
        let scanned = scan.map(|(_, s)| s.tuples).expect("scan traced");
        assert_eq!(scanned, (end - start) as u64, "{what}");
    }
}
