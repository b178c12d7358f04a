//! Ablation A3 — summary indices prune clustered range scans (paper
//! §4.3: coarse running-max / reverse-running-min indices derive
//! `#rowId` bounds for range predicates at no maintenance cost).
//!
//! One plan, two walks: `execute_as_given` runs it with the rewrite
//! rules off (the whole fragment), `execute` lets rule
//! `summary-range-select` derive the row range from the `Select`.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use x100_engine::expr::*;
use x100_engine::plan::Plan;
use x100_engine::session::{execute, execute_as_given, Database, ExecOptions};
use x100_engine::AggExpr;
use x100_storage::TableBuilder;
use x100_vector::Vector;

fn bench_summary(c: &mut Criterion) {
    const N: i64 = 1_000_000;
    // A clustered date-like column + a payload column.
    let mut db = Database::new();
    db.register(
        TableBuilder::new("t")
            .column("d", Vector::I32((0..N as i32).collect()))
            .with_summary()
            .column("v", Vector::F64((0..N).map(|i| (i % 97) as f64).collect()))
            .build(),
    );
    let pred = and(
        ge(col("d"), lit_i32(500_000)),
        lt(col("d"), lit_i32(510_000)),
    );
    let agg = vec![AggExpr::sum("s", col("v")), AggExpr::count("n")];

    let plan = Plan::scan("t", &["d", "v"]).select(pred).aggr(vec![], agg);
    let opts = ExecOptions::default();

    // Both must agree before we measure.
    let (r1, _) = execute_as_given(&db, &plan, &opts).expect("unpruned");
    let (r2, _) = execute(&db, &plan, &opts).expect("pruned");
    assert_eq!(r1.row_strings(), r2.row_strings());

    let mut g = c.benchmark_group("summary_index");
    g.sample_size(20);
    g.bench_function("range_scan/full", |bch| {
        bch.iter(|| execute_as_given(black_box(&db), black_box(&plan), &opts).expect("run"))
    });
    g.bench_function("range_scan/summary_pruned", |bch| {
        bch.iter(|| execute(black_box(&db), black_box(&plan), &opts).expect("run"))
    });
    g.finish();
}

criterion_group!(benches, bench_summary);
criterion_main!(benches);
