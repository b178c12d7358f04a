//! TPC-H Query 9: the product type profit measure query.
//!
//! Profit on green parts by nation and year — exercises the
//! `contains()` (LIKE '%green%') primitive, the `li_ps_idx` join index
//! into partsupp, and a 5-way fetch-join chain.
//!
//! The SQL being reproduced:
//!
//! ```sql
//! select nation, o_year, sum(amount) as sum_profit
//! from (select n_name as nation, extract(year from o_orderdate) as o_year,
//!         l_extendedprice*(1-l_discount) - ps_supplycost*l_quantity as amount
//!       from part, supplier, lineitem, partsupp, orders, nation
//!       where s_suppkey = l_suppkey and ps_suppkey = l_suppkey
//!         and ps_partkey = l_partkey and p_partkey = l_partkey
//!         and o_orderkey = l_orderkey and s_nationkey = n_nationkey
//!         and p_name like '%green%') as profit
//! group by nation, o_year order by nation, o_year desc
//! ```

use crate::gen::TpchData;
use std::collections::HashMap;
use x100_engine::expr::*;
use x100_engine::ops::OrdExp;
use x100_engine::plan::Plan;
use x100_engine::AggExpr;
use x100_vector::date::from_days;

/// The X100 plan; output `(nation, o_year, sum_profit)`.
pub fn x100_plan() -> Plan {
    Plan::scan(
        "lineitem",
        &[
            "l_extendedprice",
            "l_discount",
            "l_quantity",
            "li_part_idx",
            "li_supp_idx",
            "li_order_idx",
            "li_ps_idx",
        ],
    )
    .fetch1("part", col("li_part_idx"), &[("p_name", "p_name")])
    .select(contains(col("p_name"), "green"))
    .fetch1(
        "partsupp",
        col("li_ps_idx"),
        &[("ps_supplycost", "ps_supplycost")],
    )
    .fetch1(
        "supplier",
        col("li_supp_idx"),
        &[("s_nation_idx", "s_nation_idx")],
    )
    .fetch1("nation", col("s_nation_idx"), &[("n_name", "nation")])
    .fetch1(
        "orders",
        col("li_order_idx"),
        &[("o_orderdate", "o_orderdate")],
    )
    .project(vec![
        ("nation", col("nation")),
        ("o_year", year(col("o_orderdate"))),
        (
            "amount",
            sub(
                mul(col("l_extendedprice"), sub(lit_f64(1.0), col("l_discount"))),
                mul(col("ps_supplycost"), col("l_quantity")),
            ),
        ),
    ])
    .aggr(
        vec![("nation", col("nation")), ("o_year", col("o_year"))],
        vec![AggExpr::sum("sum_profit", col("amount"))],
    )
    .order(vec![OrdExp::asc("nation"), OrdExp::desc("o_year")])
}

/// Reference: `(nation, year, profit)` sorted like the query.
pub fn reference(data: &TpchData) -> Vec<(String, i32, f64)> {
    let li = &data.lineitem;
    let mut acc: HashMap<(usize, i32), f64> = HashMap::new();
    for i in 0..li.len() {
        if !data.part.name[li.part_idx[i] as usize].contains("green") {
            continue;
        }
        let cost = data.partsupp.supplycost[li.ps_idx[i] as usize];
        let sn = data.supplier.nationkey[li.supp_idx[i] as usize] as usize;
        let y = from_days(data.orders.orderdate[li.order_idx[i] as usize]).0;
        let amount = li.extendedprice[i] * (1.0 - li.discount[i]) - cost * li.quantity[i];
        *acc.entry((sn, y)).or_insert(0.0) += amount;
    }
    let mut rows: Vec<(String, i32, f64)> = acc
        .into_iter()
        .map(|((n, y), v)| (data.nation.name[n].clone(), y, v))
        .collect();
    rows.sort_by(|a, b| a.0.cmp(&b.0).then(b.1.cmp(&a.1)));
    rows
}
