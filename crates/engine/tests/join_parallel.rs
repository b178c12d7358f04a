//! Determinism suite for morsel-parallel hash-join pipelines.
//!
//! The build side materializes once into a shared table; workers probe
//! it over disjoint morsels and the partials merge in worker-index
//! order. For every thread count the result must therefore be *exactly*
//! the sequential result (integer aggregates — no float reassociation
//! in these plans).

use x100_engine::expr::*;
use x100_engine::ops::JoinType;
use x100_engine::plan::Plan;
use x100_engine::session::{execute, Database, ExecOptions};
use x100_engine::AggExpr;
use x100_storage::TableBuilder;
use x100_vector::{ScalarType, Value, Vector};

const THREADS: [usize; 4] = [1, 2, 4, 8];

fn sorted_rows(res: &x100_engine::QueryResult) -> Vec<String> {
    let mut rows = res.row_strings();
    rows.sort();
    rows
}

/// Fact table (8_000 rows, probe side) plus a 64-row dimension
/// (build side) with a string label per code.
fn star_db() -> Database {
    let n = 8_000i64;
    let mut db = Database::new();
    db.register(
        TableBuilder::new("facts")
            .column("k", Vector::I64((0..n).map(|i| i % 100).collect()))
            .column("v", Vector::I64((0..n).collect()))
            .column(
                "fk",
                Vector::U32((0..n).map(|i| (i % 100) as u32).collect()),
            )
            .build(),
    );
    db.register(
        TableBuilder::new("dim")
            .column("code", Vector::I64((0..64).collect()))
            .column("grp", Vector::I64((0..64).map(|i| i % 7).collect()))
            .column("label", {
                let mut c = Vector::with_capacity(ScalarType::Str, 0);
                for i in 0..64 {
                    c.push_value(&Value::Str(format!("label-{i:02}")));
                }
                c
            })
            .build(),
    );
    db
}

fn join_plan(join_type: JoinType, payload: &[(&str, &str)]) -> Plan {
    Plan::HashJoin {
        build: Box::new(Plan::scan("dim", &["code", "grp", "label"])),
        probe: Box::new(Plan::scan("facts", &["k", "v"])),
        build_keys: vec![col("code")],
        probe_keys: vec![col("k")],
        payload: payload
            .iter()
            .map(|(a, b)| (a.to_string(), b.to_string()))
            .collect(),
        join_type,
    }
}

fn sweep(db: &Database, plan: &Plan) {
    let (seq, _) = execute(db, plan, &ExecOptions::default()).expect("sequential");
    let expected = sorted_rows(&seq);
    for threads in THREADS {
        let opts = ExecOptions::default().parallel(threads);
        let (par, _) = execute(db, plan, &opts).expect("parallel");
        assert_eq!(
            sorted_rows(&par),
            expected,
            "threads={threads} diverged from sequential"
        );
    }
}

#[test]
fn inner_join_aggregate_matches_sequential() {
    let db = star_db();
    // Only codes 0..64 match (k cycles 0..100): the probe gets real
    // negative traffic.
    let plan = join_plan(JoinType::Inner, &[("grp", "g"), ("label", "lbl")]).aggr(
        vec![("g", col("g"))],
        vec![
            AggExpr::count("cnt"),
            AggExpr::sum("sv", col("v")),
            AggExpr::min("mn", col("v")),
            AggExpr::max("mx", col("v")),
        ],
    );
    sweep(&db, &plan);
}

#[test]
fn semi_and_anti_join_aggregates_match_sequential() {
    let db = star_db();
    for jt in [JoinType::LeftSemi, JoinType::LeftAnti] {
        let plan = join_plan(jt, &[]).aggr(
            vec![("k", col("k"))],
            vec![AggExpr::count("cnt"), AggExpr::sum("sv", col("v"))],
        );
        sweep(&db, &plan);
    }
}

#[test]
fn left_outer_join_groups_unmatched_rows_under_defaults() {
    let db = star_db();
    // Unmatched probe rows carry default payload (grp 0 / empty label):
    // they must land in the same groups on every path.
    let plan = join_plan(JoinType::LeftOuter, &[("grp", "g"), ("label", "lbl")]).aggr(
        vec![("g", col("g")), ("lbl", col("lbl"))],
        vec![AggExpr::count("cnt"), AggExpr::sum("sv", col("v"))],
    );
    let (seq, _) = execute(&db, &plan, &ExecOptions::default()).expect("sequential");
    // 64 labels + the default "" group for codes 64..100.
    assert_eq!(seq.num_rows(), 65);
    sweep(&db, &plan);
}

#[test]
fn select_and_project_between_join_and_aggregate() {
    let db = star_db();
    let plan = join_plan(JoinType::Inner, &[("grp", "g")])
        .select(lt(col("k"), lit_i64(50)))
        .project(vec![("g", col("g")), ("w", add(col("v"), lit_i64(1)))])
        .aggr(
            vec![("g", col("g"))],
            vec![AggExpr::count("cnt"), AggExpr::sum("sw", col("w"))],
        )
        .order(vec![x100_engine::ops::OrdExp::asc("g")]);
    // Ordered output above the merge: compare row-for-row.
    let (seq, _) = execute(&db, &plan, &ExecOptions::default()).expect("sequential");
    let expected = seq.row_strings();
    for threads in THREADS {
        let opts = ExecOptions::default().parallel(threads);
        let (par, _) = execute(&db, &plan, &opts).expect("parallel");
        assert_eq!(par.row_strings(), expected, "threads={threads}");
    }
}

#[test]
fn enum_string_keys_with_deletes_and_deltas() {
    // Join on decoded enum string keys; the probe table also carries
    // fragment deletes and insert deltas that must reach every worker.
    let species = ["ash", "birch", "cedar", "fir", "gum", "hazel"];
    let mut db = Database::new();
    let mut probe = TableBuilder::new("trees")
        .auto_enum_str(
            "species",
            (0..3000).map(|i| species[i % 6].to_owned()).collect(),
        )
        .column("v", Vector::I64((0..3000).collect()))
        .build();
    probe.delete(0);
    probe.delete(1500);
    for i in 0..41 {
        probe.insert(&[
            Value::Str(species[(i % 3) as usize].into()),
            Value::I64(90_000 + i),
        ]);
    }
    probe.delete(3000); // first delta row
    db.register(probe);
    db.register(
        TableBuilder::new("wood")
            .auto_enum_str(
                "species",
                vec!["ash".into(), "cedar".into(), "gum".into(), "oak".into()],
            )
            .column("density", Vector::I64(vec![67, 58, 80, 75]))
            .build(),
    );
    let plan = Plan::HashJoin {
        build: Box::new(Plan::scan("wood", &["species", "density"])),
        probe: Box::new(Plan::scan("trees", &["species", "v"])),
        build_keys: vec![col("species")],
        probe_keys: vec![col("species")],
        payload: vec![("density".into(), "d".into())],
        join_type: JoinType::Inner,
    }
    .aggr(
        vec![("d", col("d"))],
        vec![AggExpr::count("cnt"), AggExpr::sum("sv", col("v"))],
    );
    let (seq, _) = execute(&db, &plan, &ExecOptions::default()).expect("sequential");
    assert_eq!(seq.num_rows(), 3); // ash, cedar, gum match; oak never probed
    sweep(&db, &plan);
}

#[test]
fn fetch_join_above_hash_join_probe() {
    // Fetch1Join (positional decompression, enum codes included) stacked
    // on the probe spine above a HashJoin: both must ride the morsel
    // workers.
    let mut db = star_db();
    db.register(
        TableBuilder::new("side")
            .auto_enum_str("tag", (0..100).map(|i| format!("tag-{}", i % 9)).collect())
            .build(),
    );
    let plan = Plan::HashJoin {
        build: Box::new(Plan::scan("dim", &["code", "grp", "label"])),
        probe: Box::new(Plan::scan("facts", &["k", "v", "fk"])),
        build_keys: vec![col("code")],
        probe_keys: vec![col("k")],
        payload: vec![("grp".into(), "g".into())],
        join_type: JoinType::Inner,
    }
    .fetch1("side", col("fk"), &[("tag", "tag")])
    .aggr(
        vec![("tag", col("tag"))],
        vec![AggExpr::count("cnt"), AggExpr::sum("sv", col("v"))],
    );
    let (seq, _) = execute(&db, &plan, &ExecOptions::default()).expect("sequential");
    assert_eq!(seq.num_rows(), 9);
    sweep(&db, &plan);
}

#[test]
fn parallel_join_engages_workers() {
    let db = star_db();
    let plan = join_plan(JoinType::Inner, &[("grp", "g")]).aggr(
        vec![("g", col("g"))],
        vec![AggExpr::count("cnt"), AggExpr::sum("sv", col("v"))],
    );
    let opts = ExecOptions::default()
        .profiled()
        .parallel(4)
        .with_morsel_size(1024);
    let (_, prof) = execute(&db, &plan, &opts).expect("parallel");
    assert!(
        !prof.workers().is_empty(),
        "join pipeline must not fall back to sequential under threads>1"
    );
    let ops: Vec<String> = prof.operators().map(|(k, _)| k.to_owned()).collect();
    assert!(ops.iter().any(|o| o == "HashJoin(build)"), "{ops:?}");
    assert!(ops.iter().any(|o| o == "HashJoin(probe)"), "{ops:?}");
    // One build on the main thread, every fact row probed once.
    let stat = |name: &str| prof.operators().find(|(k, _)| *k == name).expect(name).1;
    assert_eq!(stat("HashJoin(build)").tuples, 64);
    assert_eq!(stat("HashJoin(probe)").tuples, 8_000);
}

#[test]
fn label_grouped_join_matches_sequential() {
    // The answer check of the retired partition-budget cases, folded
    // into the sweep.
    let db = star_db();
    let plan = join_plan(JoinType::Inner, &[("grp", "g"), ("label", "lbl")]).aggr(
        vec![("lbl", col("lbl"))],
        vec![AggExpr::count("cnt"), AggExpr::sum("sv", col("v"))],
    );
    sweep(&db, &plan);
}

#[test]
fn duplicate_build_keys_fan_out_identically_on_every_thread_count() {
    // Every dimension code appears three times on the build side, so the
    // shared table carries row chains and each matching fact row fans
    // out 1:3 (unmatched ones take the outer default once).
    let mut db = star_db();
    db.register(
        TableBuilder::new("dim3")
            .column("code", Vector::I64((0..192).map(|i| i % 64).collect()))
            .column("w", Vector::I64((0..192).collect()))
            .build(),
    );
    for jt in [JoinType::Inner, JoinType::LeftOuter] {
        let plan = Plan::HashJoin {
            build: Box::new(Plan::scan("dim3", &["code", "w"])),
            probe: Box::new(Plan::scan("facts", &["k", "v"])),
            build_keys: vec![col("code")],
            probe_keys: vec![col("k")],
            payload: vec![("w".into(), "w".into())],
            join_type: jt,
        }
        .aggr(
            vec![("k", col("k"))],
            vec![AggExpr::count("cnt"), AggExpr::sum("sw", col("w"))],
        );
        let (seq, _) = execute(&db, &plan, &ExecOptions::default()).expect("sequential");
        assert_eq!(seq.num_rows(), if jt == JoinType::Inner { 64 } else { 100 });
        sweep(&db, &plan);
    }
}
