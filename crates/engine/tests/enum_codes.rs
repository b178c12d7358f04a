//! Tests for enumeration-code execution paths: the check walk reads an
//! enum column as codes wherever only code readers consume it — the
//! string-literal → dictionary-code rewrite, pass-through columns and
//! grouping keys — in scans and `Fetch1Join`s alike (paper §4.3:
//! predicates and aggregation on enum columns should never decode).

use x100_engine::expr::*;
use x100_engine::plan::Plan;
use x100_engine::session::{execute, execute_as_given, Database, ExecOptions};
use x100_engine::{check_plan, AggExpr};
use x100_storage::{Table, TableBuilder};
use x100_vector::{ScalarType, Value, Vector};

fn db() -> Database {
    let mut db = Database::new();
    db.register(orders_table());
    db.register(dim());
    db
}

fn orders_table() -> Table {
    let n = 1000i64;
    TableBuilder::new("orders")
        .column("id", Vector::I64((0..n).collect()))
        .auto_enum_str(
            "status",
            (0..n)
                .map(|i| ["NEW", "OPEN", "SHIPPED"][(i % 3) as usize].to_owned())
                .collect(),
        )
        .column(
            "dim_idx",
            Vector::U32((0..n as u32).map(|i| i % 4).collect()),
        )
        .column("amount", Vector::F64((0..n).map(|i| i as f64).collect()))
        .build()
}

fn dim() -> Table {
    TableBuilder::new("dim")
        .column("k", Vector::I64(vec![0, 1, 2, 3]))
        .auto_enum_str(
            "grade",
            vec![
                "gold".into(),
                "silver".into(),
                "bronze".into(),
                "gold".into(),
            ],
        )
        .build()
}

#[test]
fn enum_predicate_runs_on_codes() {
    let db = db();
    // Only the predicate reads `status`: it stays codes.
    let plan = Plan::scan("orders", &["id", "status"])
        .select(eq(col("status"), lit_str("OPEN")))
        .project(vec![("id", col("id"))]);
    let (res, prof) = execute(&db, &plan, &ExecOptions::default().profiled()).expect("runs");
    // ids 1, 4, 7, … (i % 3 == 1)
    assert_eq!(res.num_rows(), 333);
    assert_eq!(res.column_by_name("id").as_i64()[0], 1);
    // The trace must show a code select, and no string machinery.
    assert!(
        prof.primitive("select_eq_u8_col_val").is_some(),
        "code select missing"
    );
    assert!(
        prof.primitive("select_eq_str_col_val").is_none(),
        "string select used"
    );
    assert!(
        prof.primitive("map_fetch_u8_col_str_col").is_none(),
        "column was decoded"
    );
}

#[test]
fn enum_ne_predicate_on_codes() {
    let db = db();
    let plan = Plan::scan("orders", &["id", "status"])
        .select(ne(col("status"), lit_str("NEW")))
        .project(vec![("id", col("id"))]);
    let (res, _) = execute(&db, &plan, &ExecOptions::default()).expect("runs");
    assert_eq!(res.num_rows(), 666);
}

#[test]
fn absent_literal_folds_statically() {
    let db = db();
    let eq_plan = Plan::scan("orders", &["id", "status"])
        .select(eq(col("status"), lit_str("NOT-A-STATUS")))
        .project(vec![("id", col("id"))]);
    let (res, _) = execute(&db, &eq_plan, &ExecOptions::default()).expect("runs");
    assert_eq!(res.num_rows(), 0, "= absent literal selects nothing");

    let ne_plan = Plan::scan("orders", &["id", "status"])
        .select(ne(col("status"), lit_str("NOT-A-STATUS")))
        .project(vec![("id", col("id"))]);
    let (res, _) = execute(&db, &ne_plan, &ExecOptions::default()).expect("runs");
    assert_eq!(res.num_rows(), 1000, "!= absent literal selects everything");
}

#[test]
fn decoded_columns_still_use_string_compare() {
    // A column the result carries decodes, and the string path runs;
    // results must agree with the code path.
    let db = db();
    let decoded =
        Plan::scan("orders", &["id", "status"]).select(eq(col("status"), lit_str("OPEN")));
    let coded = decoded.clone().project(vec![("id", col("id"))]);
    let (r1, p1) = execute(&db, &decoded, &ExecOptions::default().profiled()).expect("runs");
    let (r2, p2) = execute(&db, &coded, &ExecOptions::default().profiled()).expect("runs");
    assert!(p1.primitive("select_eq_str_col_val").is_some());
    assert!(p2.primitive("select_eq_u8_col_val").is_some());
    assert_eq!(
        r1.column_by_name("id").as_i64(),
        r2.column_by_name("id").as_i64()
    );
}

#[test]
fn fetched_codes_propagate_dictionary() {
    let db = db();
    // Grade is fetched as codes, filtered on and grouped on directly.
    let plan = Plan::scan("orders", &["dim_idx", "amount"])
        .fetch1("dim", col("dim_idx"), &[("grade", "grade")])
        .select(eq(col("grade"), lit_str("gold")))
        .aggr(
            vec![("grade", col("grade"))],
            vec![AggExpr::count("n"), AggExpr::sum("total", col("amount"))],
        );
    let (res, prof) = execute(&db, &plan, &ExecOptions::default().profiled()).expect("runs");
    // dim rows 0 and 3 are gold → dim_idx 0 or 3 → 500 rows, one group.
    assert_eq!(res.num_rows(), 1);
    assert_eq!(
        res.fields()[0].ty,
        ScalarType::Str,
        "group key decodes on emission"
    );
    assert_eq!(res.value(0, 0).to_string(), "gold");
    assert_eq!(res.column_by_name("n").as_i64()[0], 500);
    // The whole path ran on codes: direct aggregation, code select.
    let ops: Vec<&str> = prof.operators().map(|(k, _)| k).collect();
    assert!(ops.contains(&"Aggr(DIRECT)"), "{ops:?}");
    assert!(prof.primitive("select_eq_u8_col_val").is_some());
}

#[test]
fn pending_inserts_read_enum_columns_as_codes() {
    // The insert delta holds codes: with pending inserts in `dim` — one
    // of a value its dictionary lacks — and in `orders`, the fetch and
    // the scan still read `grade` and `status` as codes, and the plan
    // answers as over the same tables reorganized.
    let mut dim = dim();
    dim.insert(&[Value::I64(4), Value::Str("platinum".into())]);
    assert_eq!(dim.inserts().column(1), &Vector::U8(vec![3]));
    let mut orders = orders_table();
    orders.insert(&[
        Value::I64(1000),
        Value::Str("LOST".into()),
        Value::U32(4),
        Value::F64(0.5),
    ]);
    orders.insert(&[
        Value::I64(1001),
        Value::Str("OPEN".into()),
        Value::U32(4),
        Value::F64(1.5),
    ]);
    let plan = Plan::scan("orders", &["dim_idx", "status", "amount"])
        .fetch1("dim", col("dim_idx"), &[("grade", "grade")])
        .select(ne(col("status"), lit_str("NEW")))
        .aggr(
            vec![("grade", col("grade")), ("status", col("status"))],
            vec![AggExpr::count("n")],
        );
    let (mut pending, mut merged) = (Database::new(), Database::new());
    for t in [dim, orders] {
        let mut m = t.clone();
        m.reorganize();
        pending.register(t);
        merged.register(m);
    }
    let log = check_plan(&pending, &plan, &ExecOptions::default())
        .expect("checks")
        .render();
    // `amount` is read by no node, so it is not scanned.
    assert!(
        log.contains("Scan `orders` → 2 cols, codes [status]"),
        "{log}"
    );
    assert!(log.contains("not scanned: [amount]"), "{log}");
    assert!(log.contains("codes [grade]"), "{log}");
    let (got, _) = execute(&pending, &plan, &ExecOptions::default()).expect("runs");
    let (want, _) = execute(&merged, &plan, &ExecOptions::default()).expect("runs");
    assert_eq!(sorted_rows(&got), sorted_rows(&want));
    for row in ["platinum|LOST|1", "platinum|OPEN|1"] {
        assert!(sorted_rows(&got).contains(&row.to_owned()), "{row}");
    }
}

#[test]
fn rewrite_reaches_nested_expressions() {
    // Inside Project: arithmetic over a cast over an OR of enum equals.
    let db = db();
    let plan = Plan::scan("orders", &["status", "amount"])
        .project(vec![(
            "flagged",
            mul(
                cast(
                    ScalarType::F64,
                    or(
                        eq(col("status"), lit_str("NEW")),
                        eq(col("status"), lit_str("SHIPPED")),
                    ),
                ),
                col("amount"),
            ),
        )])
        .aggr(vec![], vec![AggExpr::sum("s", col("flagged"))]);
    let (res, prof) = execute(&db, &plan, &ExecOptions::default().profiled()).expect("runs");
    let expect: f64 = (0..1000).filter(|i| i % 3 != 1).map(|i| i as f64).sum();
    assert!((res.column_by_name("s").as_f64()[0] - expect).abs() < 1e-9);
    // Comparison ran as a u8 map, not a string map.
    assert!(prof.primitive("map_eq_u8_col_val").is_some());
    assert!(prof.primitive("map_eq_str_col_val").is_none());
}

/// The rows of `res`, rendered and sorted (hash order is arbitrary).
fn sorted_rows(res: &x100_engine::session::QueryResult) -> Vec<String> {
    let mut rows: Vec<String> = (0..res.num_rows())
        .map(|r| {
            (0..res.fields().len())
                .map(|c| res.value(r, c).to_string())
                .collect::<Vec<_>>()
                .join("|")
        })
        .collect();
    rows.sort();
    rows
}

#[test]
fn enum_literal_comparisons_outside_select_read_codes() {
    // `c = 'lit'` reads its column as codes wherever it sits: in an
    // aggregate argument (a CASE-style conditional sum), a computed
    // `Aggr` key, and a hash-join key on either side. Each
    // plan answers raw and checkpointed, with the rules on and as given.
    let open = || eq(col("status"), lit_str("OPEN"));
    let orders = || Plan::scan("orders", &["id", "status", "amount"]);
    let join = |build_keys: Vec<Expr>, probe_keys: Vec<Expr>| Plan::HashJoin {
        build: Box::new(Plan::scan("dim", &["k", "grade"])),
        probe: Box::new(orders()),
        build_keys,
        probe_keys,
        payload: vec![("k".into(), "dk".into())],
        join_type: x100_engine::ops::JoinType::Inner,
    };
    let cases: Vec<(&str, Plan, Vec<&str>)> = vec![
        (
            "aggregate argument",
            orders().aggr(
                vec![],
                vec![
                    AggExpr::sum("n_open", cast(ScalarType::I64, open())),
                    AggExpr::count("n"),
                ],
            ),
            vec!["333|1000"],
        ),
        (
            "computed Aggr key",
            orders().aggr(
                vec![("open", cast(ScalarType::I64, open()))],
                vec![AggExpr::count("n")],
            ),
            vec!["0|667", "1|333"],
        ),
        (
            "probe key",
            join(vec![col("k")], vec![cast(ScalarType::I64, open())])
                .aggr(vec![("dk", col("dk"))], vec![AggExpr::count("n")]),
            vec!["0|667", "1|333"],
        ),
        (
            "build key",
            join(
                vec![cast(ScalarType::I64, eq(col("grade"), lit_str("gold")))],
                vec![col("id")],
            )
            .aggr(vec![], vec![AggExpr::count("n")]),
            vec!["4"],
        ),
    ];
    for checkpointed in [false, true] {
        let mut db = Database::new();
        for mut t in [orders_table(), dim()] {
            if checkpointed {
                t.checkpoint();
            }
            db.register(t);
        }
        for (what, plan, want) in &cases {
            let opts = ExecOptions::default();
            let log = check_plan(&db, plan, &opts)
                .unwrap_or_else(|e| panic!("{what}: {e}"))
                .render();
            // The column the enum-literal comparison reads (the build
            // key compares `grade`; no node reads `status` there).
            let compared = if *what == "build key" {
                "grade"
            } else {
                "status"
            };
            assert!(
                log.contains(&format!("codes [{compared}]")),
                "{what}: {log}"
            );
            let (got, _) = execute(&db, plan, &opts).unwrap_or_else(|e| panic!("{what}: {e}"));
            let (given, _) = execute_as_given(&db, plan, &opts)
                .unwrap_or_else(|e| panic!("{what} as given: {e}"));
            assert_eq!(
                sorted_rows(&got),
                *want,
                "{what} (checkpointed {checkpointed})"
            );
            assert_eq!(sorted_rows(&given), *want, "{what} as given");
        }
    }
}
