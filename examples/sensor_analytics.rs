//! A realistic analytics scenario beyond TPC-H: IoT sensor telemetry.
//!
//! Shows the storage features of §4.3 working together on a
//! non-benchmark workload: enumeration-typed device columns, a summary
//! index over the (clustered) timestamp for range pruning, delta-based
//! updates, and reorganization — plus a vectorized dashboard query on
//! top.
//!
//! ```sh
//! cargo run --release --example sensor_analytics
//! ```

use monetdb_x100::engine::expr::*;
use monetdb_x100::engine::ops::OrdExp;
use monetdb_x100::engine::plan::Plan;
use monetdb_x100::engine::session::{execute, Database, ExecOptions};
use monetdb_x100::engine::AggExpr;
use monetdb_x100::storage::TableBuilder;
use monetdb_x100::vector::{Value, Vector};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    let mut rng = StdRng::seed_from_u64(2026);
    let n = 500_000usize;
    let devices = ["furnace-a", "furnace-b", "press-1", "press-2", "mixer"];

    // Readings arrive in timestamp order → the summary index prunes.
    let ts: Vec<i32> = (0..n as i32).collect();
    let device: Vec<String> = (0..n)
        .map(|_| devices[rng.gen_range(0..devices.len())].to_owned())
        .collect();
    let temperature: Vec<f64> = (0..n).map(|_| 20.0 + rng.gen_range(0.0..80.0)).collect();

    let mut table = TableBuilder::new("readings")
        .column("ts", Vector::I32(ts))
        .with_summary()
        .auto_enum_str("device", device)
        .column("temperature", Vector::F64(temperature))
        .build();

    // Late-arriving corrections: updates go to the delta structures;
    // the immutable fragments stay untouched (paper Fig. 8).
    table.delete(100);
    table.insert(&[
        Value::I32(n as i32),
        Value::Str("mixer".into()),
        Value::F64(99.5),
    ]);
    println!(
        "after updates: {} live rows, delta fraction {:.6}",
        table.live_rows(),
        table.delta_fraction()
    );
    // Periodic maintenance merges deltas back into fragments.
    table.reorganize();
    println!(
        "after reorganize: {} fragment rows, deltas empty\n",
        table.fragment_rows()
    );

    let mut db = Database::new();
    db.register(table);

    // Dashboard query: per-device temperature profile over one window,
    // hottest devices first.
    let (lo, hi) = (200_000, 300_000);
    // The check walk derives the pruned row range from the `ts` range.
    let plan = Plan::scan("readings", &["ts", "device", "temperature"])
        .select(and(ge(col("ts"), lit_i32(lo)), lt(col("ts"), lit_i32(hi))))
        .aggr(
            vec![("device", col("device"))],
            vec![
                AggExpr::count("readings"),
                AggExpr::avg("avg_temp", col("temperature")),
                AggExpr::max("max_temp", col("temperature")),
            ],
        )
        .order(vec![OrdExp::desc("max_temp")]);

    let (result, prof) =
        execute(&db, &plan, &ExecOptions::default().profiled()).expect("dashboard");
    println!("{}", result.to_table_string());

    let scanned = prof
        .operators()
        .find(|(k, _)| *k == "Scan")
        .map(|(_, s)| s.tuples)
        .expect("scan trace");
    println!("summary index pruned the scan to {scanned} of 500000 rows");
}
