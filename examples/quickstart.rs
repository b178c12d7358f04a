//! Quickstart: build a table, run a vectorized query, read the results.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use monetdb_x100::engine::expr::*;
use monetdb_x100::engine::plan::Plan;
use monetdb_x100::engine::session::{execute, Database, ExecOptions};
use monetdb_x100::engine::AggExpr;
use monetdb_x100::storage::TableBuilder;
use monetdb_x100::vector::Vector;

fn main() {
    // 1. Build a vertically fragmented table. Low-cardinality columns
    //    can be stored as enumeration types (dictionary codes).
    let n = 10_000i64;
    let table = TableBuilder::new("trades")
        .column("id", Vector::I64((0..n).collect()))
        .auto_enum_str(
            "symbol",
            (0..n)
                .map(|i| ["ABC", "MEGA", "TINY"][(i % 3) as usize].to_owned())
                .collect(),
        )
        .column(
            "price",
            Vector::F64((0..n).map(|i| 50.0 + (i % 100) as f64).collect()),
        )
        .column(
            "qty",
            Vector::F64((0..n).map(|i| (1 + i % 9) as f64).collect()),
        )
        .build();

    let mut db = Database::new();
    db.register(table);

    // 2. Compose an X100 algebra plan:
    //    SELECT symbol, SUM(price*qty) AS volume, COUNT(*) AS trades
    //    FROM trades WHERE price >= 100 GROUP BY symbol
    let plan = Plan::scan("trades", &["symbol", "price", "qty"])
        .select(ge(col("price"), lit_f64(100.0)))
        .aggr(
            vec![("symbol", col("symbol"))],
            vec![
                AggExpr::sum("volume", mul(col("price"), col("qty"))),
                AggExpr::count("trades"),
            ],
        );

    // 3. Execute: the pipeline runs vector-at-a-time (1024 values per
    //    vector by default), with zero-copy selection vectors.
    let (result, _) = execute(&db, &plan, &ExecOptions::default()).expect("query runs");
    println!("{}", result.to_table_string());

    // 4. Rerun with tracing to see the vectorized primitives at work.
    let (_, prof) = execute(&db, &plan, &ExecOptions::default().profiled()).expect("query runs");
    println!("--- primitive trace ---");
    println!("{}", prof.render_table5());
}
