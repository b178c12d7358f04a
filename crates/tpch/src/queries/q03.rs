//! TPC-H Query 3: the shipping priority query.
//!
//! customer ⨝ orders ⨝ lineitem with anti-correlated date predicates,
//! grouped per order, top-10 by revenue. The X100 plan follows the
//! paper's physical design: both foreign-key joins run as `Fetch1Join`s
//! over the precomputed join-index `#rowId` columns.
//!
//! The SQL being reproduced:
//!
//! ```sql
//! select l_orderkey, sum(l_extendedprice*(1-l_discount)) as revenue,
//!   o_orderdate, o_shippriority
//! from customer, orders, lineitem
//! where c_mktsegment = 'BUILDING' and c_custkey = o_custkey
//!   and l_orderkey = o_orderkey and o_orderdate < date '1995-03-15'
//!   and l_shipdate > date '1995-03-15'
//! group by l_orderkey, o_orderdate, o_shippriority
//! order by revenue desc, o_orderdate limit 10
//! ```

use crate::gen::TpchData;
use std::collections::HashMap;
use x100_engine::expr::*;
use x100_engine::ops::OrdExp;
use x100_engine::plan::Plan;
use x100_engine::AggExpr;
use x100_vector::date::to_days;

/// Cutoff date `1995-03-15`.
fn cutoff() -> i32 {
    to_days(1995, 3, 15)
}

/// The X100 plan.
pub fn x100_plan() -> Plan {
    Plan::scan(
        "lineitem",
        &[
            "l_orderkey",
            "l_extendedprice",
            "l_discount",
            "l_shipdate",
            "li_order_idx",
        ],
    )
    .select(gt(col("l_shipdate"), lit_i32(cutoff())))
    .fetch1(
        "orders",
        col("li_order_idx"),
        &[
            ("o_orderdate", "o_orderdate"),
            ("o_shippriority", "o_shippriority"),
            ("o_cust_idx", "o_cust_idx"),
        ],
    )
    .select(lt(col("o_orderdate"), lit_i32(cutoff())))
    .fetch1(
        "customer",
        col("o_cust_idx"),
        &[("c_mktsegment", "c_mktsegment")],
    )
    .select(eq(col("c_mktsegment"), lit_str("BUILDING")))
    .aggr(
        vec![
            ("l_orderkey", col("l_orderkey")),
            ("o_orderdate", col("o_orderdate")),
            ("o_shippriority", col("o_shippriority")),
        ],
        vec![AggExpr::sum(
            "revenue",
            mul(col("l_extendedprice"), sub(lit_f64(1.0), col("l_discount"))),
        )],
    )
    .topn(
        vec![
            OrdExp::desc("revenue"),
            OrdExp::asc("o_orderdate"),
            OrdExp::asc("l_orderkey"),
        ],
        10,
    )
}

/// Reference implementation: top-10 `(orderkey, revenue)` pairs.
pub fn reference(data: &TpchData) -> Vec<(i64, f64)> {
    let cut = cutoff();
    let li = &data.lineitem;
    let o = &data.orders;
    let c = &data.customer;
    let mut rev: HashMap<i64, (f64, i32)> = HashMap::new();
    for i in 0..li.len() {
        if li.shipdate[i] <= cut {
            continue;
        }
        let oi = li.order_idx[i] as usize;
        if o.orderdate[oi] >= cut {
            continue;
        }
        if c.mktsegment[(o.custkey[oi] - 1) as usize] != "BUILDING" {
            continue;
        }
        let e = rev.entry(li.orderkey[i]).or_insert((0.0, o.orderdate[oi]));
        e.0 += li.extendedprice[i] * (1.0 - li.discount[i]);
    }
    let mut rows: Vec<(i64, f64, i32)> = rev.into_iter().map(|(k, (r, d))| (k, r, d)).collect();
    rows.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.2.cmp(&b.2)).then(a.0.cmp(&b.0)));
    rows.truncate(10);
    rows.into_iter().map(|(k, r, _)| (k, r)).collect()
}
