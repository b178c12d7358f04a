//! Cross-crate integration: the whole system through the façade crate.

use monetdb_x100::engine::expr::*;
use monetdb_x100::engine::plan::Plan;
use monetdb_x100::engine::session::{execute, Database, ExecOptions};
use monetdb_x100::engine::AggExpr;
use monetdb_x100::storage::TableBuilder;
use monetdb_x100::tpch;
use monetdb_x100::vector::{Value, Vector};

#[test]
fn facade_reexports_work_together() {
    let li = tpch::generate_lineitem_q1(&tpch::GenConfig { sf: 0.001, seed: 1 });
    let db = tpch::build_x100_q1_db(&li);
    let plan = tpch::queries::q01::x100_plan();
    let (res, _) = execute(&db, &plan, &ExecOptions::default()).expect("q1");
    assert_eq!(res.num_rows(), 4);
    let reference = tpch::run_hardcoded_q1(&li, tpch::queries::q01::q1_hi_date());
    let got = tpch::queries::q01::rows_from_x100(&res);
    for (a, b) in got.iter().zip(reference.iter()) {
        assert_eq!(a.count_order, b.count_order);
        assert!((a.sum_charge - b.sum_charge).abs() < 1e-6 * b.sum_charge.abs());
    }
}

#[test]
fn updates_flow_through_queries() {
    // Inserts/deletes made through the storage API are visible to the
    // vectorized engine without reorganization; reorganization must not
    // change query answers.
    let mut t = TableBuilder::new("t")
        .column("k", Vector::I64((0..100).collect()))
        .auto_enum_str(
            "tag",
            (0..100)
                .map(|i| {
                    if i % 2 == 0 {
                        "even".into()
                    } else {
                        "odd".into()
                    }
                })
                .collect(),
        )
        .build();
    t.delete(10);
    t.delete(11);
    t.insert(&[Value::I64(1000), Value::Str("even".into())]);
    let plan = Plan::scan("t", &["k", "tag"])
        .select(eq(col("tag"), lit_str("even")))
        .aggr(
            vec![],
            vec![AggExpr::sum("sum_k", col("k")), AggExpr::count("n")],
        );

    let mut db = Database::new();
    db.register(t.clone());
    let (before, _) = execute(&db, &plan, &ExecOptions::default()).expect("pre-reorg");

    t.reorganize();
    let mut db2 = Database::new();
    db2.register(t);
    let (after, _) = execute(&db2, &plan, &ExecOptions::default()).expect("post-reorg");
    assert_eq!(before.row_strings(), after.row_strings());
    // 50 evens, minus deleted k=10, plus inserted k=1000.
    assert_eq!(before.column_by_name("n").as_i64()[0], 50);
    let expect: i64 = (0..100).step_by(2).sum::<i64>() - 10 + 1000;
    assert_eq!(before.column_by_name("sum_k").as_i64()[0], expect);
}

#[test]
fn engines_cross_check_on_custom_data() {
    // Build the same dataset for MIL and X100 and cross-check an
    // aggregation (mirrors the TPC-H cross-checks on non-TPC-H data).
    let n = 5_000i64;
    let vals: Vec<f64> = (0..n).map(|i| ((i * 37) % 100) as f64).collect();
    let flags: Vec<String> = (0..n)
        .map(|i| ["x", "y", "z"][(i % 3) as usize].to_owned())
        .collect();

    let mut db = Database::new();
    db.register(
        TableBuilder::new("d")
            .auto_enum_str("flag", flags.clone())
            .column("v", Vector::F64(vals.clone()))
            .build(),
    );
    let plan = Plan::scan("d", &["flag", "v"])
        .select(lt(col("v"), lit_f64(50.0)))
        .aggr(
            vec![("flag", col("flag"))],
            vec![AggExpr::sum("s", col("v")), AggExpr::count("n")],
        )
        .order(vec![monetdb_x100::engine::ops::OrdExp::asc("flag")]);
    let (x100, _) = execute(&db, &plan, &ExecOptions::default()).expect("x100");
    let (mil, _) = tpch::milql::run_plan(&db, &plan).expect("mil");
    assert_eq!(x100.row_strings(), mil.row_strings());

    // And against a plain Rust loop.
    let mut sums = std::collections::BTreeMap::new();
    for (f, v) in flags.iter().zip(vals.iter()) {
        if *v < 50.0 {
            let e = sums.entry(f.clone()).or_insert((0.0, 0i64));
            e.0 += v;
            e.1 += 1;
        }
    }
    assert_eq!(x100.num_rows(), sums.len());
    for (i, (flag, (s, cnt))) in sums.iter().enumerate() {
        assert_eq!(&x100.value(i, 0).to_string(), flag);
        assert!((x100.column_by_name("s").as_f64()[i] - s).abs() < 1e-9);
        assert_eq!(x100.column_by_name("n").as_i64()[i], *cnt);
    }
}

#[test]
fn array_operator_feeds_pipeline() {
    // The paper's Array operator (RAM front-end): aggregate over the
    // coordinates of a 3-D array.
    let db = Database::new();
    let plan = Plan::Array {
        dims: vec![4, 5, 6],
    }
    .select(eq(col("d2"), lit_i64(3)))
    .aggr(vec![("d0", col("d0"))], vec![AggExpr::count("n")]);
    let (res, _) = execute(&db, &plan, &ExecOptions::default()).expect("array");
    assert_eq!(res.num_rows(), 4);
    for i in 0..4 {
        assert_eq!(res.column_by_name("n").as_i64()[i], 5);
    }
}
