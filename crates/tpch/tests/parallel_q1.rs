//! TPC-H determinism under morsel-driven parallel execution — the
//! contract of `x100_engine::ops::parallel`: an answer is a function of
//! (plan, data, threads, morsel size, budgets); every `(threads,
//! morsel_size)` combination reproduces the sequential answer, counts
//! exactly and float aggregates within last-ulp tolerance.

use tpch::gen::{generate, generate_lineitem_q1, GenConfig};
use tpch::queries::{all_specs, q01, QuerySpec};
use tpch::{build_x100_q1_db, Q1Row};
use x100_engine::session::{execute, ExecOptions};
use x100_vector::Vector;

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
fn q1_parallel_matches_sequential_across_threads_and_morsels() {
    let li = generate_lineitem_q1(&GenConfig {
        sf: 0.005,
        seed: 42,
    });
    let db = build_x100_q1_db(&li);
    let plan = q01::x100_plan();
    let (seq, _) = execute(&db, &plan, &ExecOptions::default()).expect("sequential q1");
    let reference = q01::rows_from_x100(&seq);
    assert_eq!(reference.len(), 4, "Q1 yields 4 groups");
    for threads in [1usize, 2, 4, 8] {
        for morsel in [1024usize, 4096, 0] {
            let opts = ExecOptions::default()
                .parallel(threads)
                .with_morsel_size(morsel);
            let (res, _) = execute(&db, &plan, &opts).expect("parallel q1");
            let rows = q01::rows_from_x100(&res);
            assert_q1_rows_eq(
                &rows,
                &reference,
                &format!("threads={threads} morsel_size={morsel}"),
            );
        }
    }
}

#[test]
fn q1_parallel_uses_workers_and_merge() {
    let li = generate_lineitem_q1(&GenConfig { sf: 0.002, seed: 7 });
    let db = build_x100_q1_db(&li);
    let plan = q01::x100_plan();
    let opts = ExecOptions::default()
        .profiled()
        .parallel(4)
        .with_morsel_size(1024);
    let (res, prof) = execute(&db, &plan, &opts).expect("parallel q1");
    assert_eq!(res.num_rows(), 4);
    assert!(
        !prof.workers().is_empty(),
        "profiled parallel Q1 must record worker traces"
    );
    assert!(prof.operators().any(|(op, _)| op == "MergeAggr"));
}

/// All 22 TPC-H queries on four threads: two runs give bit-identical
/// f64 columns (the same morsels, workers and merge order), and the
/// answer is one thread's at display precision.
#[test]
fn tpch_parallel_answers_are_deterministic() {
    let data = generate(&GenConfig { sf: 0.005, seed: 7 });
    let db = tpch::build_x100_db(&data);
    let one = ExecOptions::default();
    let four = ExecOptions::default().parallel(4).with_morsel_size(4096);
    let sorted = |res: &x100_engine::QueryResult| {
        let mut rows = res.row_strings();
        rows.sort();
        rows
    };
    let floats = |res: &x100_engine::QueryResult| -> Vec<Vec<u64>> {
        let cols = (0..res.fields().len()).map(|c| res.column(c));
        let bits = cols.filter_map(|v| match v {
            Vector::F64(x) => Some(x.iter().map(|f| f.to_bits()).collect()),
            _ => None,
        });
        bits.collect()
    };
    let mut plans = Vec::new();
    for (q, spec) in all_specs() {
        match spec {
            QuerySpec::Single(p) => plans.push((q, p)),
            QuerySpec::TwoPhase(tp) => {
                let (r1, _) = execute(&db, &tp.phase1, &one).expect("phase 1");
                let scalar = r1.value(0, r1.col_index(tp.scalar_col).expect("scalar"));
                plans.push((q, (tp.phase2)(scalar.as_f64())));
                plans.push((q, tp.phase1));
            }
        }
    }
    for (q, plan) in &plans {
        let (a, _) = execute(&db, plan, &four).expect("threads 4");
        let (b, _) = execute(&db, plan, &four).expect("threads 4, again");
        assert_eq!(floats(&a), floats(&b), "q{q}: f64 columns across runs");
        assert_eq!(a.row_strings(), b.row_strings(), "q{q}: rows across runs");
        let (seq, _) = execute(&db, plan, &one).expect("threads 1");
        assert_eq!(sorted(&a), sorted(&seq), "q{q}: threads 4 vs 1");
    }
}
