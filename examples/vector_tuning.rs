//! Vector-size tuning on your own workload (the paper's Figure 10
//! experiment, as an API walkthrough).
//!
//! The vector size trades interpretation overhead (too small) against
//! cache residency (too large). This example sweeps it for a custom
//! aggregation query and reports the sweet spot.
//!
//! ```sh
//! cargo run --release --example vector_tuning
//! ```

use monetdb_x100::engine::expr::*;
use monetdb_x100::engine::plan::Plan;
use monetdb_x100::engine::session::{execute, Database, ExecOptions};
use monetdb_x100::engine::AggExpr;
use monetdb_x100::storage::TableBuilder;
use monetdb_x100::vector::Vector;
use std::time::Instant;

fn main() {
    let n = 2_000_000i64;
    let mut db = Database::new();
    db.register(
        TableBuilder::new("events")
            .column("kind", Vector::U8((0..n).map(|i| (i % 17) as u8).collect()))
            .column(
                "a",
                Vector::F64((0..n).map(|i| (i % 1000) as f64).collect()),
            )
            .column(
                "b",
                Vector::F64((0..n).map(|i| ((i * 7) % 1000) as f64 / 10.0).collect()),
            )
            .build(),
    );
    let plan = Plan::scan("events", &["kind", "a", "b"])
        .select(lt(col("a"), lit_f64(900.0)))
        .project(vec![
            ("kind", col("kind")),
            ("score", mul(sub(lit_f64(1.0), col("b")), col("a"))),
        ])
        .aggr(
            vec![("kind", col("kind"))],
            vec![AggExpr::sum("total", col("score")), AggExpr::count("n")],
        );

    println!("{:>12} {:>10}", "vector size", "time (ms)");
    let mut best = (0usize, f64::MAX);
    for vs in [1usize, 16, 256, 1024, 4096, 65536, 1 << 20] {
        let opts = ExecOptions::with_vector_size(vs);
        // Warm-up, then best-of-3.
        let _ = execute(&db, &plan, &opts).expect("run");
        let mut t_best = f64::MAX;
        for _ in 0..3 {
            let t0 = Instant::now();
            let (res, _) = execute(&db, &plan, &opts).expect("run");
            assert_eq!(res.num_rows(), 17);
            t_best = t_best.min(t0.elapsed().as_secs_f64());
        }
        println!("{:>12} {:>10.2}", vs, t_best * 1e3);
        if t_best < best.1 {
            best = (vs, t_best);
        }
    }
    println!(
        "\nbest vector size for this workload: {} ({:.2} ms)",
        best.0,
        best.1 * 1e3
    );
    println!("(the paper's default of 1024 should be at or near the optimum)");
}
