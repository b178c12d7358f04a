//! TPC-H Query 5: the local supplier volume query.
//!
//! A six-table join (customer, orders, lineitem, supplier, nation,
//! region) that the paper's physical design turns into a chain of
//! positional `Fetch1Join`s over join indices, with the
//! `c_nationkey = s_nationkey` condition as a column-column select.
//!
//! The SQL being reproduced:
//!
//! ```sql
//! select n_name, sum(l_extendedprice*(1-l_discount)) as revenue
//! from customer, orders, lineitem, supplier, nation, region
//! where c_custkey = o_custkey and l_orderkey = o_orderkey
//!   and l_suppkey = s_suppkey and c_nationkey = s_nationkey
//!   and s_nationkey = n_nationkey and n_regionkey = r_regionkey
//!   and r_name = 'ASIA'
//!   and o_orderdate >= date '1994-01-01' and o_orderdate < date '1995-01-01'
//! group by n_name order by revenue desc
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
    let lo = to_days(1994, 1, 1);
    let hi = to_days(1995, 1, 1);
    Plan::scan(
        "lineitem",
        &[
            "l_extendedprice",
            "l_discount",
            "li_order_idx",
            "li_supp_idx",
        ],
    )
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
        "supplier",
        col("li_supp_idx"),
        &[
            ("s_nationkey", "s_nationkey"),
            ("s_nation_idx", "s_nation_idx"),
        ],
    )
    .fetch1(
        "customer",
        col("o_cust_idx"),
        &[("c_nationkey", "c_nationkey")],
    )
    .select(eq(col("c_nationkey"), col("s_nationkey")))
    .fetch1(
        "nation",
        col("s_nation_idx"),
        &[("n_region_idx", "n_region_idx"), ("n_name", "n_name")],
    )
    .fetch1("region", col("n_region_idx"), &[("r_name", "r_name")])
    .select(eq(col("r_name"), lit_str("ASIA")))
    .aggr(
        vec![("n_name", col("n_name"))],
        vec![AggExpr::sum(
            "revenue",
            mul(col("l_extendedprice"), sub(lit_f64(1.0), col("l_discount"))),
        )],
    )
    .order(vec![OrdExp::desc("revenue")])
}

/// Reference implementation: `(nation, revenue)` by descending revenue.
pub fn reference(data: &TpchData) -> Vec<(String, f64)> {
    let lo = to_days(1994, 1, 1);
    let hi = to_days(1995, 1, 1);
    let li = &data.lineitem;
    let o = &data.orders;
    let mut rev: HashMap<usize, f64> = HashMap::new();
    for i in 0..li.len() {
        let oi = li.order_idx[i] as usize;
        if o.orderdate[oi] < lo || o.orderdate[oi] >= hi {
            continue;
        }
        let si = li.supp_idx[i] as usize;
        let s_nation = data.supplier.nationkey[si];
        let c_nation = data.customer.nationkey[(o.custkey[oi] - 1) as usize];
        if s_nation != c_nation {
            continue;
        }
        let region = data.nation.regionkey[s_nation as usize];
        if data.region.name[region as usize] != "ASIA" {
            continue;
        }
        *rev.entry(s_nation as usize).or_insert(0.0) +=
            li.extendedprice[i] * (1.0 - li.discount[i]);
    }
    let mut rows: Vec<(String, f64)> = rev
        .into_iter()
        .map(|(n, r)| (data.nation.name[n].clone(), r))
        .collect();
    rows.sort_by(|a, b| b.1.total_cmp(&a.1));
    rows
}
