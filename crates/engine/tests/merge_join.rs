//! The merge join equals the hash join it replaces.
//!
//! Rule `sorted-inputs-merge-join` plans a `HashJoin` whose one integer
//! key both inputs are proven sorted on as a `MergeJoinOp`. Each case
//! here runs a join through the rule list (`execute`) and as the plan
//! wrote it (`execute_as_given`, the hash join) and demands the same
//! rows in the same order: all four join types, vector sizes 7 and
//! 1024, build runs longer than a vector and across vector boundaries,
//! probe runs across vector boundaries, keys on one side only, empty
//! inputs, selections on either side. The run buffer is charged to the
//! query's governor and returned on `reset`. Where the rule refuses is
//! `tpch/tests/differential.rs`' business.

use std::sync::Arc;
use x100_engine::expr::*;
use x100_engine::ops::JoinType;
use x100_engine::plan::Plan;
use x100_engine::session::{execute, execute_as_given, run_operator, Database, ExecOptions};
use x100_engine::{check_plan, MemTracker, PlanError, Profiler, QueryContext};
use x100_storage::TableBuilder;
use x100_vector::Vector;

const RULE: &str = "sorted-inputs-merge-join";

/// Non-decreasing keys from per-key run lengths: key `k` repeats
/// `runs(k)` times (0: the key is absent).
fn sorted_keys(keys: std::ops::Range<i64>, runs: impl Fn(i64) -> usize) -> Vec<i64> {
    keys.flat_map(|k| std::iter::repeat_n(k, runs(k))).collect()
}

/// `b(bk, bv, bs, bx)` and `p(pk, pv)`, both sorted on their key alone
/// (`bv` and `pv` are not). Build
/// runs are 0–11 rows, key 40 repeats 1500 times (longer than either
/// vector size, across the 1024 boundary); probe runs are 0–3 rows, key
/// 41 repeats 30 times. Each side has keys the other lacks, the probe
/// side below and above every build key too.
fn db() -> Database {
    let bk = sorted_keys(0..200, |k| match k {
        40 => 1500,
        k if k % 5 == 0 => 0,
        k => (k * 7 % 12) as usize,
    });
    let pk = sorted_keys(-3..230, |k| match k {
        41 => 30,
        k => (k.rem_euclid(4)) as usize,
    });
    let n = bk.len() as i64;
    let names: Vec<String> = (0..n).map(|i| format!("s{}", i % 17)).collect();
    let b = TableBuilder::new("b")
        .column("bk", Vector::I64(bk))
        .column("bv", Vector::I64((0..n).map(|i| i * 7919 % 1000).collect()))
        .column(
            "bs",
            Vector::Str(names.iter().map(String::as_str).collect()),
        )
        .column("bx", Vector::F64((0..n).map(|i| i as f64 * 0.25).collect()))
        .build();
    let m = pk.len() as i64;
    let p = TableBuilder::new("p")
        .column("pk", Vector::I64(pk))
        .column("pv", Vector::I64((0..m).map(|i| i % 9).collect()))
        .build();
    let mut db = Database::new();
    db.register(b);
    db.register(p);
    db
}

fn join(build: Plan, probe: Plan, join_type: JoinType) -> Plan {
    let payload = match join_type {
        JoinType::Inner => vec![("bv", "bv"), ("bs", "bs"), ("bx", "bx")],
        JoinType::LeftOuter => vec![("bv", "bv"), ("bs", "bs")],
        JoinType::LeftSemi | JoinType::LeftAnti => vec![],
    };
    Plan::HashJoin {
        build: Box::new(build),
        probe: Box::new(probe),
        build_keys: vec![col("bk")],
        probe_keys: vec![col("pk")],
        payload: (payload.into_iter())
            .map(|(s, a)| (s.to_owned(), a.to_owned()))
            .collect(),
        join_type,
    }
}

fn build() -> Plan {
    Plan::scan("b", &["bk", "bv", "bs", "bx"])
}

fn probe() -> Plan {
    Plan::scan("p", &["pk", "pv"])
}

const TYPES: [JoinType; 4] = [
    JoinType::Inner,
    JoinType::LeftOuter,
    JoinType::LeftSemi,
    JoinType::LeftAnti,
];

/// The walk-log lines of the rule for `plan`, firings and refusals.
fn rule_lines(db: &Database, plan: &Plan) -> Vec<String> {
    let walk = check_plan(db, plan, &ExecOptions::default()).expect("checks");
    let tag = format!(": rule {RULE}");
    walk.report
        .into_iter()
        .filter(|l| l.contains(&tag))
        .collect()
}

/// Run `plan` merged and hashed at vector size `vs` and demand the same
/// rows in the same order, bit for bit; the walk must have planned the
/// merge join. Returns the row count.
fn merged_equals_hashed(db: &Database, plan: &Plan, vs: usize, what: &str) -> usize {
    let fired = rule_lines(db, plan);
    assert!(
        fired.len() == 1 && fired[0].contains("→ merge join"),
        "{what}: {fired:?}"
    );
    let walk = check_plan(db, plan, &ExecOptions::default()).expect("checks");
    let walk = walk.render();
    assert!(
        walk.contains(": MergeJoin → ") && !walk.contains(": HashJoin → "),
        "{what}: {walk}"
    );
    let opts = ExecOptions::with_vector_size(vs);
    let merged = execute(db, plan, &opts)
        .unwrap_or_else(|e| panic!("{what}: {e}"))
        .0;
    let (hashed, _) = execute_as_given(db, plan, &opts).unwrap_or_else(|e| panic!("{what}: {e}"));
    assert_eq!(
        format!("{merged:?}"),
        format!("{hashed:?}"),
        "{what}: merged vs hashed"
    );
    merged.row_strings().len()
}

#[test]
fn every_join_type_merges_as_it_hashes() {
    let db = db();
    for join_type in TYPES {
        for vs in [7, 1024] {
            let what = format!("{join_type:?} at vector size {vs}");
            let plan = join(build(), probe(), join_type);
            let rows = merged_equals_hashed(&db, &plan, vs, &what);
            assert!(rows > 0, "{what}: nothing joined");
            let opts = ExecOptions::with_vector_size(vs).profiled();
            let (_, prof) = execute(&db, &plan, &opts).expect("runs");
            let ran = |op: &str| prof.operators().any(|(name, _)| name.starts_with(op));
            assert!(ran("MergeJoin") && !ran("HashJoin"), "{what}");
            assert!(prof.primitives().any(|(sig, _)| sig == "merge_i64_col"));
        }
    }
}

/// Selections on either side: the cursors walk live positions only.
#[test]
fn selections_on_either_side() {
    let db = db();
    let odd_build = || build().select(ne(col("bv"), lit_i64(6)));
    let some_probe = || probe().select(lt(col("pv"), lit_i64(5)));
    for join_type in TYPES {
        for vs in [7, 1024] {
            for (side, plan) in [
                ("build", join(odd_build(), probe(), join_type)),
                ("probe", join(build(), some_probe(), join_type)),
                ("both", join(odd_build(), some_probe(), join_type)),
            ] {
                let what = format!("{join_type:?}, selection on {side}, vector size {vs}");
                merged_equals_hashed(&db, &plan, vs, &what);
            }
        }
    }
}

/// An input that produces no row — a selection nothing passes, which the
/// facts cannot fold away — on either side.
#[test]
fn empty_build_or_probe() {
    let db = db();
    let no_build = || build().select(lt(col("bv"), col("bv")));
    let no_probe = || probe().select(lt(col("pv"), col("pv")));
    for join_type in TYPES {
        for vs in [7, 1024] {
            let what = format!("{join_type:?}, empty build, vector size {vs}");
            let rows = merged_equals_hashed(&db, &join(no_build(), probe(), join_type), vs, &what);
            let probe_rows = match join_type {
                JoinType::LeftOuter | JoinType::LeftAnti => probe_count(&db),
                JoinType::Inner | JoinType::LeftSemi => 0,
            };
            assert_eq!(rows, probe_rows, "{what}");
            let what = format!("{join_type:?}, empty probe, vector size {vs}");
            let rows = merged_equals_hashed(&db, &join(build(), no_probe(), join_type), vs, &what);
            assert_eq!(rows, 0, "{what}");
        }
    }
}

fn probe_count(db: &Database) -> usize {
    let (res, _) = execute(db, &probe(), &ExecOptions::default()).expect("scan");
    res.row_strings().len()
}

/// The run buffer is governed: one run of 20 000 rows does not fit a
/// 64 KiB budget, and the join stops at the build vector that overflows
/// it rather than after the run; the charge a run took is held until
/// `reset`.
#[test]
fn the_run_buffer_is_charged_and_released_on_reset() {
    let n = 20_000i64;
    let mut db = Database::new();
    db.register(
        TableBuilder::new("b")
            .column("bk", Vector::I64(vec![1; n as usize]))
            .column("bv", Vector::I64((0..n).collect()))
            .column("bs", Vector::Str((0..n).map(|_| "x").collect()))
            .column("bx", Vector::F64(vec![0.5; n as usize]))
            .build(),
    );
    db.register(
        TableBuilder::new("p")
            .column("pk", Vector::I64(vec![0, 1, 2]))
            .column("pv", Vector::I64(vec![0, 1, 2]))
            .build(),
    );
    let plan = join(build(), probe(), JoinType::Inner);
    assert!(rule_lines(&db, &plan)[0].contains("→ merge join"));
    let tight = ExecOptions::default().with_mem_budget(64 << 10);
    match execute(&db, &plan, &tight) {
        Err(PlanError::ResourceExhausted { operator, .. }) => {
            assert_eq!(operator, "merge-join runs")
        }
        other => panic!("the run should overflow 64 KiB: {other:?}"),
    }
    // The build cursor passed only the rows taken before the overflow,
    // not the whole run.
    let ctx = Arc::new(QueryContext::new(
        Some(64 << 10),
        None,
        None,
        None,
        None,
        None,
    ));
    let mut op = plan
        .bind_governed(&db, &ExecOptions::default(), &ctx)
        .expect("binds");
    let mut prof = Profiler::new(true);
    assert!(run_operator(op.as_mut(), &mut prof).is_err());
    let passed = prof.primitive("merge_i64_col").expect("traced").tuples;
    assert!(passed < n as u64 / 4, "{passed} build rows taken first");

    let budget = 4 << 20;
    let opts = ExecOptions::default();
    let ctx = Arc::new(QueryContext::new(
        Some(budget),
        None,
        None,
        None,
        None,
        None,
    ));
    let mut op = plan.bind_governed(&db, &opts, &ctx).expect("binds");
    let res = run_operator(op.as_mut(), &mut Profiler::new(false)).expect("runs");
    assert_eq!(res.row_strings().len(), n as usize);
    // The run's ≈ 400 KB stay charged while the operator may still be
    // asked for rows; `reset` returns them.
    let mut other = MemTracker::new(ctx.clone(), "other");
    let rest = budget - (64 << 10);
    assert!(!other.try_ensure(rest), "the run buffer is not charged");
    op.reset();
    assert!(other.try_ensure(rest), "reset kept the run buffer's charge");
    other.release_all();
    // And the rewound join answers again.
    let again = run_operator(op.as_mut(), &mut Profiler::new(false)).expect("reruns");
    assert_eq!(format!("{again:?}"), format!("{res:?}"));
}
