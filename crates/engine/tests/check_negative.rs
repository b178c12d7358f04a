//! Negative corpus for the bind-time verifier (`engine::check`): one
//! test per rejected defect class, asserting the typed
//! `PlanError::PlanCheck` path. These plans must *never* reach a kernel
//! — before the verifier, each was a silent wrong answer or a panic
//! deep inside primitive dispatch.

use x100_engine::expr::*;
use x100_engine::plan::Plan;
use x100_engine::session::{execute, Database, ExecOptions};
use x100_engine::{check_plan, verify_program, CheckViolation, PlanError, QueryContext};
use x100_storage::TableBuilder;
use x100_vector::Vector;

fn db() -> Database {
    let n = 64i64;
    let mut db = Database::new();
    db.register(
        TableBuilder::new("t")
            .column("id", Vector::I64((0..n).collect()))
            .column("x", Vector::F64((0..n).map(|i| i as f64).collect()))
            .column("h1", Vector::U64((0..n as u64).collect()))
            .column("h2", Vector::U64((0..n as u64).rev().collect()))
            .auto_enum_str(
                "status",
                (0..n)
                    .map(|i| ["NEW", "OPEN", "SHIPPED"][(i % 3) as usize].to_owned())
                    .collect(),
            )
            .auto_enum_i64("grade", (0..n).map(|i| i % 4 * 10).collect())
            .build(),
    );
    db
}

fn expect_check(
    res: Result<(x100_engine::QueryResult, x100_engine::Profiler), PlanError>,
) -> (String, CheckViolation) {
    match res {
        Err(PlanError::PlanCheck { path, violation }) => (path, violation),
        Err(other) => panic!("expected PlanCheck, got other error: {other}"),
        Ok(_) => panic!("expected PlanCheck, plan executed"),
    }
}

/// Defect class 1: type mismatches. A non-boolean selection predicate
/// cannot drive a `select_*` primitive.
#[test]
fn rejects_type_mismatch() {
    let db = db();
    let plan = Plan::scan("t", &["id", "x"]).select(add(col("id"), lit_i64(1)));
    let (path, v) = expect_check(execute(&db, &plan, &ExecOptions::default()));
    assert!(path.contains("Select.pred"), "path was {path}");
    match v {
        CheckViolation::TypeMismatch { detail, .. } => {
            assert!(detail.contains("boolean"), "detail was {detail}")
        }
        other => panic!("expected TypeMismatch, got {other}"),
    }
}

/// Type mismatches are caught inside expression programs too: string
/// columns have no arithmetic.
#[test]
fn rejects_arithmetic_on_strings() {
    let db = db();
    let plan = Plan::scan("t", &["status"]).project(vec![("y", add(col("status"), lit_i64(1)))]);
    let (path, v) = expect_check(execute(&db, &plan, &ExecOptions::default()));
    assert!(path.contains("Project.expr[0]"), "path was {path}");
    assert!(
        matches!(v, CheckViolation::TypeMismatch { .. }),
        "expected TypeMismatch, got {v}"
    );
}

/// Defect class 2: selection-vector misuse. A dense-only
/// position-dependent primitive (here the group table's maintenance,
/// which inserts every position's key) must never run under a
/// `select_*` output.
#[test]
fn rejects_sel_vector_misuse() {
    let err = verify_program(["select_gt_i64_col_val", "aggr_hashtable_maintain"])
        .expect_err("a dense-only primitive under a selection must be rejected");
    match err {
        PlanError::PlanCheck { path, violation } => {
            assert_eq!(path, "program.instr[1]");
            match violation {
                CheckViolation::SelVectorMisuse { signature, .. } => {
                    assert_eq!(signature, "aggr_hashtable_maintain")
                }
                other => panic!("expected SelVectorMisuse, got {other}"),
            }
        }
        other => panic!("expected PlanCheck, got {other}"),
    }
    // The same chain through a sel-consuming primitive is fine.
    verify_program(["select_gt_f64_col_val", "map_add_f64_col_f64_col"])
        .expect("sel-aware map under a selection is legal");
}

/// Defect class 3, enum-code columns escaping without a
/// `Fetch1Join(ENUM)` decode, is one no plan reaches: the walk reads an
/// enum column as codes only for code readers, so arithmetic reads its
/// values (the guard's own test is a unit test of `check.rs`).
#[test]
fn arithmetic_on_an_enum_column_reads_its_values() {
    let db = db();
    let opts = ExecOptions::default();
    let plan =
        Plan::scan("t", &["id", "grade"]).project(vec![("y", add(col("grade"), lit_i64(1)))]);
    let walk = check_plan(&db, &plan, &opts).expect("arithmetic on values checks");
    assert!(!walk.render().contains("codes ["), "{}", walk.render());
    let (res, _) = execute(&db, &plan, &opts).expect("runs");
    assert_eq!(res.column_by_name("y").as_i64()[..4], [1, 11, 21, 31]);
    // A string enum's values take no arithmetic: a type error, not codes.
    let plan = Plan::scan("t", &["status"]).project(vec![("y", add(col("status"), lit_i64(1)))]);
    let (_, v) = expect_check(execute(&db, &plan, &opts));
    assert!(
        !matches!(v, CheckViolation::UndecodedEnumColumn { .. }),
        "{v}"
    );
}

/// Defect class 4: registry-unknown signatures — both synthetic ones
/// fed straight to [`verify_program`]…
#[test]
fn rejects_unknown_signature() {
    let err = verify_program(["map_frobnicate_q7_col"]).expect_err("nonsense signature");
    match err {
        PlanError::PlanCheck { path, violation } => {
            assert_eq!(path, "program.instr[0]");
            match violation {
                CheckViolation::UnknownSignature { signature } => {
                    assert_eq!(signature, "map_frobnicate_q7_col")
                }
                other => panic!("expected UnknownSignature, got {other}"),
            }
        }
        other => panic!("expected PlanCheck, got {other}"),
    }
}

/// …and real instances the expression compiler can emit but the kernel
/// dispatcher cannot execute: a u64 column-column equality lowers to
/// `map_eq_u64_col_col`, which has no kernel and used to panic at
/// runtime. The verifier now rejects it at bind time.
#[test]
fn rejects_undispatchable_cmp_instance() {
    let db = db();
    let plan = Plan::scan("t", &["id", "h1", "h2"]).select(eq(col("h1"), col("h2")));
    let (path, v) = expect_check(execute(&db, &plan, &ExecOptions::default()));
    assert!(path.contains("Select.pred"), "path was {path}");
    match v {
        CheckViolation::UnknownSignature { signature } => {
            assert_eq!(signature, "map_eq_u64_col_col")
        }
        other => panic!("expected UnknownSignature, got {other}"),
    }
}

/// The verifier runs ahead of `Plan::bind` as well as `execute`.
#[test]
fn bind_is_gated_too() {
    let db = db();
    let plan = Plan::scan("t", &["status"]).project(vec![("y", add(col("status"), lit_i64(1)))]);
    let err = plan
        .bind(&db, &ExecOptions::default())
        .err()
        .expect("bind must fail");
    assert!(matches!(err, PlanError::PlanCheck { .. }), "got {err}");
}

/// `Plan::bind_governed` is public too, and it takes whatever context
/// the caller built — with or without checked facts in it. It must be
/// the same static wall: every ill-typed plan of this corpus yields
/// exactly the `PlanCheck` that `check_plan` reports, never an operator.
#[test]
fn bind_governed_is_gated_too() {
    let db = db();
    let opts = ExecOptions::default();
    let status_plus_one = || ("y", add(col("status"), lit_i64(1)));
    for plan in [
        Plan::scan("t", &["id", "x"]).select(add(col("id"), lit_i64(1))),
        Plan::scan("t", &["status"]).project(vec![status_plus_one()]),
        Plan::scan("t", &["id", "h1", "h2"]).select(eq(col("h1"), col("h2"))),
    ] {
        let want = check_plan(&db, &plan, &opts).expect_err("ill-typed plan");
        assert!(matches!(want, PlanError::PlanCheck { .. }), "got {want}");
        let got = plan
            .bind_governed(&db, &opts, &QueryContext::unbounded())
            .err()
            .expect("bind_governed must fail");
        assert_eq!(got, want);
    }
}

/// A `PlanCheck` error renders with its class, path and detail.
#[test]
fn plan_check_error_display_is_precise() {
    let db = db();
    let plan = Plan::scan("t", &["id"]).select(add(col("id"), lit_i64(1)));
    let err = execute(&db, &plan, &ExecOptions::default()).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("plan check failed"), "msg was {msg}");
    assert!(msg.contains("root.Select.pred"), "msg was {msg}");
}
