//! Tests for enumeration-code execution paths: the binder's
//! string-literal → dictionary-code rewrite and `Fetch1Join` code
//! fetches (paper §4.3: predicates and aggregation on enum columns
//! should never decode).

use x100_engine::expr::*;
use x100_engine::plan::Plan;
use x100_engine::session::{execute, Database, ExecOptions};
use x100_engine::AggExpr;
use x100_storage::TableBuilder;
use x100_vector::{ScalarType, Vector};

fn db() -> Database {
    let n = 1000i64;
    let mut db = Database::new();
    db.register(
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
            .build(),
    );
    db.register(
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
            .build(),
    );
    db
}

#[test]
fn enum_predicate_runs_on_codes() {
    let db = db();
    let plan = Plan::scan_with_codes("orders", &["id", "status"], &["status"])
        .select(eq(col("status"), lit_str("OPEN")));
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
    let plan = Plan::scan_with_codes("orders", &["id", "status"], &["status"])
        .select(ne(col("status"), lit_str("NEW")));
    let (res, _) = execute(&db, &plan, &ExecOptions::default()).expect("runs");
    assert_eq!(res.num_rows(), 666);
}

#[test]
fn absent_literal_folds_statically() {
    let db = db();
    let eq_plan = Plan::scan_with_codes("orders", &["id", "status"], &["status"])
        .select(eq(col("status"), lit_str("NOT-A-STATUS")));
    let (res, _) = execute(&db, &eq_plan, &ExecOptions::default()).expect("runs");
    assert_eq!(res.num_rows(), 0, "= absent literal selects nothing");

    let ne_plan = Plan::scan_with_codes("orders", &["id", "status"], &["status"])
        .select(ne(col("status"), lit_str("NOT-A-STATUS")));
    let (res, _) = execute(&db, &ne_plan, &ExecOptions::default()).expect("runs");
    assert_eq!(res.num_rows(), 1000, "!= absent literal selects everything");
}

#[test]
fn decoded_columns_still_use_string_compare() {
    // Without scan_with_codes the column decodes and the string path runs;
    // results must agree with the code path.
    let db = db();
    let decoded =
        Plan::scan("orders", &["id", "status"]).select(eq(col("status"), lit_str("OPEN")));
    let coded = Plan::scan_with_codes("orders", &["id", "status"], &["status"])
        .select(eq(col("status"), lit_str("OPEN")));
    let (r1, p1) = execute(&db, &decoded, &ExecOptions::default().profiled()).expect("runs");
    let (r2, _) = execute(&db, &coded, &ExecOptions::default()).expect("runs");
    assert!(p1.primitive("select_eq_str_col_val").is_some());
    assert_eq!(
        r1.column_by_name("id").as_i64(),
        r2.column_by_name("id").as_i64()
    );
}

#[test]
fn fetch_codes_propagates_dictionary() {
    let db = db();
    // Fetch grade as codes, filter on it, group on it directly.
    let plan = Plan::scan("orders", &["dim_idx", "amount"])
        .fetch1_with_codes("dim", col("dim_idx"), &[], &[("grade", "grade")])
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
fn fetch_codes_rejects_plain_columns() {
    let db = db();
    let plan = Plan::scan("orders", &["dim_idx"]).fetch1_with_codes(
        "dim",
        col("dim_idx"),
        &[],
        &[("k", "k")],
    );
    assert!(
        execute(&db, &plan, &ExecOptions::default()).is_err(),
        "k is not enum-typed"
    );
}

#[test]
fn rewrite_reaches_nested_expressions() {
    // Inside Project: arithmetic over a cast over an OR of enum equals.
    let db = db();
    let plan = Plan::scan_with_codes("orders", &["status", "amount"], &["status"])
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
