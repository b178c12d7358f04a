//! TPC-H Query 4: the order priority checking query.
//!
//! An EXISTS sub-query (orders with at least one late lineitem),
//! executed as a left-semi hash join — our extension beyond the paper's
//! operator list, exercising the selection-vector-only semi-join path.
//! The `o_orderdate` range is a plain `Select`: the check walk derives
//! from it which rows of the date-clustered `orders` fragment to scan
//! (rule `summary-range-select`, §4.3).
//!
//! The SQL being reproduced:
//!
//! ```sql
//! select o_orderpriority, count(*) as order_count from orders
//! where o_orderdate >= date '1993-07-01' and o_orderdate < date '1993-10-01'
//!   and exists (select * from lineitem where l_orderkey = o_orderkey
//!               and l_commitdate < l_receiptdate)
//! group by o_orderpriority order by o_orderpriority
//! ```

use crate::gen::TpchData;
use std::collections::{HashMap, HashSet};
use x100_engine::expr::*;
use x100_engine::ops::{JoinType, OrdExp};
use x100_engine::plan::Plan;
use x100_engine::AggExpr;
use x100_vector::date::to_days;

/// The X100 plan.
pub fn x100_plan() -> Plan {
    let lo = to_days(1993, 7, 1);
    let hi = to_days(1993, 10, 1);
    let late_lineitems = Plan::scan("lineitem", &["l_orderkey", "l_commitdate", "l_receiptdate"])
        .select(lt(col("l_commitdate"), col("l_receiptdate")));
    let orders =
        Plan::scan("orders", &["o_orderkey", "o_orderdate", "o_orderpriority"]).select(and(
            ge(col("o_orderdate"), lit_i32(lo)),
            lt(col("o_orderdate"), lit_i32(hi)),
        ));
    Plan::HashJoin {
        build: Box::new(late_lineitems),
        probe: Box::new(orders),
        build_keys: vec![col("l_orderkey")],
        probe_keys: vec![col("o_orderkey")],
        payload: vec![],
        join_type: JoinType::LeftSemi,
    }
    .aggr(
        vec![("o_orderpriority", col("o_orderpriority"))],
        vec![AggExpr::count("order_count")],
    )
    .order(vec![OrdExp::asc("o_orderpriority")])
}

/// Reference implementation: `(priority, count)` sorted by priority.
pub fn reference(data: &TpchData) -> Vec<(String, i64)> {
    let lo = to_days(1993, 7, 1);
    let hi = to_days(1993, 10, 1);
    let li = &data.lineitem;
    let late: HashSet<i64> = (0..li.len())
        .filter(|&i| li.commitdate[i] < li.receiptdate[i])
        .map(|i| li.orderkey[i])
        .collect();
    let o = &data.orders;
    let mut counts: HashMap<String, i64> = HashMap::new();
    for i in 0..o.orderkey.len() {
        if o.orderdate[i] >= lo && o.orderdate[i] < hi && late.contains(&o.orderkey[i]) {
            *counts.entry(o.orderpriority[i].clone()).or_insert(0) += 1;
        }
    }
    let mut rows: Vec<(String, i64)> = counts.into_iter().collect();
    rows.sort();
    rows
}
