//! TPC-H Query 10: the returned item reporting query.
//!
//! Revenue lost to returned items, per customer, top 20. Joins run as
//! `Fetch1Join`s; the `l_returnflag = 'R'` predicate is a string-equal
//! select over the enum-decoded flag column.
//!
//! The SQL being reproduced:
//!
//! ```sql
//! select c_custkey, c_name, sum(l_extendedprice*(1-l_discount)) as revenue,
//!   c_acctbal, n_name, ...
//! from customer, orders, lineitem, nation
//! where c_custkey = o_custkey and l_orderkey = o_orderkey
//!   and o_orderdate >= date '1993-10-01' and o_orderdate < date '1994-01-01'
//!   and l_returnflag = 'R' and c_nationkey = n_nationkey
//! group by c_custkey, c_name, c_acctbal, n_name, ...
//! order by revenue desc limit 20
//! ```

use crate::gen::TpchData;
use std::collections::HashMap;
use x100_engine::expr::*;
use x100_engine::ops::OrdExp;
use x100_engine::plan::Plan;
use x100_engine::AggExpr;
use x100_vector::date::to_days;

/// The X100 plan.
pub fn x100_plan() -> Plan {
    let lo = to_days(1993, 10, 1);
    let hi = to_days(1994, 1, 1);
    Plan::scan(
        "lineitem",
        &[
            "l_extendedprice",
            "l_discount",
            "l_returnflag",
            "li_order_idx",
        ],
    )
    .select(eq(col("l_returnflag"), lit_str("R")))
    .fetch1(
        "orders",
        col("li_order_idx"),
        &[("o_orderdate", "o_orderdate"), ("o_cust_idx", "o_cust_idx")],
    )
    .select(and(
        ge(col("o_orderdate"), lit_i32(lo)),
        lt(col("o_orderdate"), lit_i32(hi)),
    ))
    .fetch1(
        "customer",
        col("o_cust_idx"),
        &[
            ("c_custkey", "c_custkey"),
            ("c_name", "c_name"),
            ("c_acctbal", "c_acctbal"),
            ("c_nation_idx", "c_nation_idx"),
        ],
    )
    .fetch1("nation", col("c_nation_idx"), &[("n_name", "n_name")])
    .aggr(
        vec![
            ("c_custkey", col("c_custkey")),
            ("c_name", col("c_name")),
            ("c_acctbal", col("c_acctbal")),
            ("n_name", col("n_name")),
        ],
        vec![AggExpr::sum(
            "revenue",
            mul(col("l_extendedprice"), sub(lit_f64(1.0), col("l_discount"))),
        )],
    )
    .topn(vec![OrdExp::desc("revenue"), OrdExp::asc("c_custkey")], 20)
}

/// Reference implementation: `(custkey, revenue)` top 20.
pub fn reference(data: &TpchData) -> Vec<(i64, f64)> {
    let lo = to_days(1993, 10, 1);
    let hi = to_days(1994, 1, 1);
    let li = &data.lineitem;
    let o = &data.orders;
    let mut rev: HashMap<i64, f64> = HashMap::new();
    for i in 0..li.len() {
        if li.returnflag[i] != "R" {
            continue;
        }
        let oi = li.order_idx[i] as usize;
        if o.orderdate[oi] < lo || o.orderdate[oi] >= hi {
            continue;
        }
        *rev.entry(o.custkey[oi]).or_insert(0.0) += li.extendedprice[i] * (1.0 - li.discount[i]);
    }
    let mut rows: Vec<(i64, f64)> = rev.into_iter().collect();
    rows.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    rows.truncate(20);
    rows
}
