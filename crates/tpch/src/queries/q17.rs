//! TPC-H Query 17: the small-quantity-order revenue query.
//!
//! The correlated `< 0.2 * avg(l_quantity)` sub-query becomes a
//! per-part AVG aggregation used as the build side of a hash join.
//!
//! The SQL being reproduced:
//!
//! ```sql
//! select sum(l_extendedprice) / 7.0 as avg_yearly
//! from lineitem, part
//! where p_partkey = l_partkey and p_brand = 'Brand#23'
//!   and p_container = 'MED BOX'
//!   and l_quantity < (select 0.2 * avg(l_quantity) from lineitem
//!                     where l_partkey = p_partkey)
//! ```

use crate::gen::TpchData;
use std::collections::HashMap;
use x100_engine::expr::*;
use x100_engine::ops::JoinType;
use x100_engine::plan::Plan;
use x100_engine::AggExpr;

/// The X100 plan; single output `avg_yearly`.
pub fn x100_plan() -> Plan {
    let per_part_avg = Plan::scan("lineitem", &["li_part_idx", "l_quantity"]).aggr(
        vec![("pk", col("li_part_idx"))],
        vec![AggExpr::avg("avg_qty", col("l_quantity"))],
    );
    let candidates = Plan::scan(
        "lineitem",
        &["li_part_idx", "l_quantity", "l_extendedprice"],
    )
    .fetch1(
        "part",
        col("li_part_idx"),
        &[("p_brand", "p_brand"), ("p_container", "p_container")],
    )
    .select(and(
        eq(col("p_brand"), lit_str("Brand#23")),
        eq(col("p_container"), lit_str("MED BOX")),
    ));
    Plan::HashJoin {
        build: Box::new(per_part_avg),
        probe: Box::new(candidates),
        build_keys: vec![col("pk")],
        probe_keys: vec![col("li_part_idx")],
        payload: vec![("avg_qty".into(), "avg_qty".into())],
        join_type: JoinType::Inner,
    }
    .select(lt(col("l_quantity"), mul(lit_f64(0.2), col("avg_qty"))))
    .aggr(
        vec![],
        vec![AggExpr::sum("sum_price", col("l_extendedprice"))],
    )
    .project(vec![("avg_yearly", div(col("sum_price"), lit_f64(7.0)))])
}

/// Reference: the `avg_yearly` scalar.
pub fn reference(data: &TpchData) -> f64 {
    let li = &data.lineitem;
    let mut sums: HashMap<u32, (f64, i64)> = HashMap::new();
    for i in 0..li.len() {
        let e = sums.entry(li.part_idx[i]).or_insert((0.0, 0));
        e.0 += li.quantity[i];
        e.1 += 1;
    }
    let mut total = 0.0;
    for i in 0..li.len() {
        let pi = li.part_idx[i] as usize;
        if data.part.brand[pi] != "Brand#23" || data.part.container[pi] != "MED BOX" {
            continue;
        }
        let (s, c) = sums[&li.part_idx[i]];
        if li.quantity[i] < 0.2 * (s / c as f64) {
            total += li.extendedprice[i];
        }
    }
    total / 7.0
}
