//! TPC-H Query 11: the important stock identification query.
//!
//! Two-phase (scalar sub-query): phase 1 computes the total GERMANY
//! stock value; phase 2 keeps the parts whose value exceeds
//! `FRACTION ×` that total.
//!
//! The spec's fraction is `0.0001 / SF`; we fix `FRACTION = 0.0001`
//! since the harness runs at a single scale factor per invocation.
//!
//! The SQL being reproduced:
//!
//! ```sql
//! select ps_partkey, sum(ps_supplycost*ps_availqty) as value
//! from partsupp, supplier, nation
//! where ps_suppkey = s_suppkey and s_nationkey = n_nationkey
//!   and n_name = 'GERMANY'
//! group by ps_partkey
//! having sum(ps_supplycost*ps_availqty) >
//!   (select sum(ps_supplycost*ps_availqty) * 0.0001 from partsupp,
//!    supplier, nation where ps_suppkey = s_suppkey
//!    and s_nationkey = n_nationkey and n_name = 'GERMANY')
//! order by value desc
//! ```

use crate::gen::TpchData;
use crate::queries::TwoPhase;
use std::collections::HashMap;
use x100_engine::expr::*;
use x100_engine::ops::OrdExp;
use x100_engine::plan::Plan;
use x100_engine::AggExpr;

/// The significance fraction (spec: `0.0001/SF`).
pub const FRACTION: f64 = 0.0001;

fn germany_stock() -> Plan {
    Plan::scan(
        "partsupp",
        &["ps_partkey", "ps_availqty", "ps_supplycost", "ps_supp_idx"],
    )
    .fetch1(
        "supplier",
        col("ps_supp_idx"),
        &[("s_nation_idx", "s_nation_idx")],
    )
    .fetch1("nation", col("s_nation_idx"), &[("n_name", "n_name")])
    .select(eq(col("n_name"), lit_str("GERMANY")))
    .project(vec![
        ("ps_partkey", col("ps_partkey")),
        (
            "value",
            mul(
                col("ps_supplycost"),
                cast(x100_vector::ScalarType::F64, col("ps_availqty")),
            ),
        ),
    ])
}

/// The two-phase spec.
pub fn x100_spec() -> TwoPhase {
    TwoPhase {
        phase1: germany_stock().aggr(vec![], vec![AggExpr::sum("total", col("value"))]),
        scalar_col: "total",
        phase2: |total| {
            germany_stock()
                .aggr(
                    vec![("ps_partkey", col("ps_partkey"))],
                    vec![AggExpr::sum("value", col("value"))],
                )
                .select(gt(col("value"), lit_f64(total * FRACTION)))
                .order(vec![OrdExp::desc("value"), OrdExp::asc("ps_partkey")])
        },
    }
}

/// Reference: `(partkey, value)` rows above the threshold, sorted.
pub fn reference(data: &TpchData) -> Vec<(i64, f64)> {
    let ps = &data.partsupp;
    let mut per_part: HashMap<i64, f64> = HashMap::new();
    let mut total = 0.0;
    for i in 0..ps.partkey.len() {
        let nk = data.supplier.nationkey[(ps.suppkey[i] - 1) as usize] as usize;
        if data.nation.name[nk] != "GERMANY" {
            continue;
        }
        let v = ps.supplycost[i] * ps.availqty[i] as f64;
        *per_part.entry(ps.partkey[i]).or_insert(0.0) += v;
        total += v;
    }
    let mut rows: Vec<(i64, f64)> = per_part
        .into_iter()
        .filter(|&(_, v)| v > total * FRACTION)
        .collect();
    rows.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    rows
}
