//! Correctness of the second query wave (Q2, Q7-Q9, Q11, Q13, Q15-Q18,
//! Q20-Q22): X100 vs row-loop references, and MIL-interpreter parity
//! for the complete suite.

use tpch::gen::{generate, GenConfig};
use tpch::queries::*;
use x100_engine::session::{Database, ExecOptions};

fn close(a: f64, b: f64, what: &str) {
    let tol = 1e-6 * (1.0 + a.abs().max(b.abs()));
    assert!((a - b).abs() <= tol, "{what}: {a} vs {b}");
}

/// Generation + loading is the dominant cost of these tests; share one
/// database across the whole test binary.
fn full_db() -> &'static (tpch::TpchData, Database) {
    static DB: std::sync::OnceLock<(tpch::TpchData, Database)> = std::sync::OnceLock::new();
    DB.get_or_init(|| {
        let data = generate(&GenConfig { sf: 0.01, seed: 77 });
        let db = tpch::build_x100_db(&data);
        (data, db)
    })
}

fn run(db: &Database, spec: &QuerySpec) -> x100_engine::QueryResult {
    run_x100(db, spec, &ExecOptions::default()).expect("x100 runs")
}

#[test]
fn q2_matches_reference() {
    let (data, db): (&tpch::TpchData, &Database) = {
        let t = full_db();
        (&t.0, &t.1)
    };
    let res = run(db, &QuerySpec::Single(q02::x100_plan()));
    let expect = q02::reference(data);
    assert_eq!(res.num_rows(), expect.len());
    let bals = res.column_by_name("s_acctbal").as_f64();
    let parts = res.column_by_name("p_partkey").as_i64();
    for (i, (bal, pk)) in expect.iter().enumerate() {
        close(bals[i], *bal, "q2 acctbal");
        assert_eq!(parts[i], *pk, "q2 partkey at {i}");
    }
}

#[test]
fn q7_matches_reference() {
    let (data, db): (&tpch::TpchData, &Database) = {
        let t = full_db();
        (&t.0, &t.1)
    };
    let res = run(db, &QuerySpec::Single(q07::x100_plan()));
    let expect = q07::reference(data);
    assert_eq!(res.num_rows(), expect.len());
    for (i, (s, c, y, v)) in expect.iter().enumerate() {
        assert_eq!(&res.value(i, 0).to_string(), s, "q7 supp_nation");
        assert_eq!(&res.value(i, 1).to_string(), c, "q7 cust_nation");
        assert_eq!(res.column_by_name("l_year").as_i32()[i], *y, "q7 year");
        close(res.column_by_name("revenue").as_f64()[i], *v, "q7 revenue");
    }
}

#[test]
fn q8_matches_reference() {
    let (data, db): (&tpch::TpchData, &Database) = {
        let t = full_db();
        (&t.0, &t.1)
    };
    let res = run(db, &QuerySpec::Single(q08::x100_plan()));
    let expect = q08::reference(data);
    assert_eq!(res.num_rows(), expect.len());
    for (i, (y, share)) in expect.iter().enumerate() {
        assert_eq!(res.column_by_name("o_year").as_i32()[i], *y);
        close(
            res.column_by_name("mkt_share").as_f64()[i],
            *share,
            "q8 share",
        );
    }
}

#[test]
fn q9_matches_reference() {
    let (data, db): (&tpch::TpchData, &Database) = {
        let t = full_db();
        (&t.0, &t.1)
    };
    let res = run(db, &QuerySpec::Single(q09::x100_plan()));
    let expect = q09::reference(data);
    assert_eq!(res.num_rows(), expect.len());
    for (i, (n, y, v)) in expect.iter().enumerate() {
        assert_eq!(&res.value(i, 0).to_string(), n, "q9 nation at {i}");
        assert_eq!(res.column_by_name("o_year").as_i32()[i], *y);
        close(
            res.column_by_name("sum_profit").as_f64()[i],
            *v,
            "q9 profit",
        );
    }
}

#[test]
fn q11_matches_reference() {
    let (data, db): (&tpch::TpchData, &Database) = {
        let t = full_db();
        (&t.0, &t.1)
    };
    let res = run(db, &QuerySpec::TwoPhase(q11::x100_spec()));
    let expect = q11::reference(data);
    assert_eq!(res.num_rows(), expect.len());
    for (i, (pk, v)) in expect.iter().enumerate() {
        assert_eq!(
            res.column_by_name("ps_partkey").as_i64()[i],
            *pk,
            "q11 partkey at {i}"
        );
        close(res.column_by_name("value").as_f64()[i], *v, "q11 value");
    }
}

#[test]
fn q13_matches_reference() {
    let (data, db): (&tpch::TpchData, &Database) = {
        let t = full_db();
        (&t.0, &t.1)
    };
    let res = run(db, &QuerySpec::Single(q13::x100_plan()));
    let expect = q13::reference(data);
    assert_eq!(res.num_rows(), expect.len());
    for (i, (cc, dist)) in expect.iter().enumerate() {
        assert_eq!(
            res.column_by_name("c_count").as_i64()[i],
            *cc,
            "q13 c_count at {i}"
        );
        assert_eq!(
            res.column_by_name("custdist").as_i64()[i],
            *dist,
            "q13 custdist at {i}"
        );
    }
}

#[test]
fn q15_matches_reference() {
    let (data, db): (&tpch::TpchData, &Database) = {
        let t = full_db();
        (&t.0, &t.1)
    };
    let res = run(db, &QuerySpec::TwoPhase(q15::x100_spec()));
    let expect = q15::reference(data);
    assert_eq!(res.num_rows(), expect.len());
    for (i, (sk, v)) in expect.iter().enumerate() {
        assert_eq!(res.column_by_name("s_suppkey").as_i64()[i], *sk);
        close(
            res.column_by_name("total_revenue").as_f64()[i],
            *v,
            "q15 revenue",
        );
    }
}

#[test]
fn q16_matches_reference() {
    let (data, db): (&tpch::TpchData, &Database) = {
        let t = full_db();
        (&t.0, &t.1)
    };
    let res = run(db, &QuerySpec::Single(q16::x100_plan()));
    let expect = q16::reference(data);
    assert_eq!(res.num_rows(), expect.len());
    for (i, (b, t, sz, cnt)) in expect.iter().enumerate() {
        assert_eq!(&res.value(i, 0).to_string(), b, "q16 brand at {i}");
        assert_eq!(&res.value(i, 1).to_string(), t, "q16 type at {i}");
        assert_eq!(res.column_by_name("p_size").as_i64()[i], *sz);
        assert_eq!(res.column_by_name("supplier_cnt").as_i64()[i], *cnt);
    }
}

#[test]
fn q17_matches_reference() {
    let (data, db): (&tpch::TpchData, &Database) = {
        let t = full_db();
        (&t.0, &t.1)
    };
    let res = run(db, &QuerySpec::Single(q17::x100_plan()));
    assert_eq!(res.num_rows(), 1);
    close(
        res.column_by_name("avg_yearly").as_f64()[0],
        q17::reference(data),
        "q17",
    );
}

#[test]
fn q18_matches_reference() {
    let (data, db): (&tpch::TpchData, &Database) = {
        let t = full_db();
        (&t.0, &t.1)
    };
    let res = run(db, &QuerySpec::Single(q18::x100_plan()));
    let expect = q18::reference(data);
    assert_eq!(res.num_rows(), expect.len());
    for (i, (ok, q)) in expect.iter().enumerate() {
        assert_eq!(
            res.column_by_name("o_orderkey").as_i64()[i],
            *ok,
            "q18 orderkey at {i}"
        );
        close(res.column_by_name("sum_qty").as_f64()[i], *q, "q18 qty");
    }
}

#[test]
fn q20_matches_reference() {
    let (data, db): (&tpch::TpchData, &Database) = {
        let t = full_db();
        (&t.0, &t.1)
    };
    let res = run(db, &QuerySpec::Single(q20::x100_plan()));
    let expect = q20::reference(data);
    assert_eq!(res.num_rows(), expect.len());
    for (i, name) in expect.iter().enumerate() {
        assert_eq!(&res.value(i, 0).to_string(), name, "q20 supplier at {i}");
    }
}

#[test]
fn q21_matches_reference() {
    let (data, db): (&tpch::TpchData, &Database) = {
        let t = full_db();
        (&t.0, &t.1)
    };
    let res = run(db, &QuerySpec::Single(q21::x100_plan()));
    let expect = q21::reference(data);
    assert_eq!(res.num_rows(), expect.len());
    for (i, (name, n)) in expect.iter().enumerate() {
        assert_eq!(&res.value(i, 0).to_string(), name, "q21 supplier at {i}");
        assert_eq!(res.column_by_name("numwait").as_i64()[i], *n, "q21 numwait");
    }
}

#[test]
fn q22_matches_reference() {
    let (data, db): (&tpch::TpchData, &Database) = {
        let t = full_db();
        (&t.0, &t.1)
    };
    let res = run(db, &QuerySpec::TwoPhase(q22::x100_spec()));
    let expect = q22::reference(data);
    // A third of the customers place no order (custkeys divisible by
    // three, as in dbgen), so the anti-join keeps some.
    assert!(!expect.is_empty(), "Q22 answers rows");
    assert_eq!(res.num_rows(), expect.len());
    let mil = run_mil(db, &QuerySpec::TwoPhase(q22::x100_spec())).expect("mil runs");
    assert_eq!(mil.row_strings(), res.row_strings(), "q22 MIL vs X100");
    for (i, (cc, n, total)) in expect.iter().enumerate() {
        assert_eq!(&res.value(i, 0).to_string(), cc, "q22 code at {i}");
        assert_eq!(res.column_by_name("numcust").as_i64()[i], *n);
        close(
            res.column_by_name("totacctbal").as_f64()[i],
            *total,
            "q22 total",
        );
    }
}

#[test]
fn full_suite_runs_on_mil_interpreter() {
    // Every one of the 22 queries must produce identical rows on the
    // MIL interpreter and the X100 engine.
    let db: &Database = &full_db().1;
    for (q, spec) in all_specs() {
        let x100 = run_x100(db, &spec, &ExecOptions::default())
            .unwrap_or_else(|e| panic!("x100 q{q}: {e}"));
        let mil = run_mil(db, &spec).unwrap_or_else(|e| panic!("mil q{q}: {e}"));
        assert_eq!(mil.row_strings(), x100.row_strings(), "q{q} MIL vs X100");
    }
}
