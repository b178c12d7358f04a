//! TPC-H Query 8: the national market share query.
//!
//! BRAZIL's share of AMERICA's ECONOMY ANODIZED STEEL market by order
//! year — conditional revenue via a boolean→f64 cast on nation codes.
//!
//! The SQL being reproduced:
//!
//! ```sql
//! select o_year, sum(case when nation = 'BRAZIL' then volume else 0 end)
//!          / sum(volume) as mkt_share
//! from (select extract(year from o_orderdate) as o_year,
//!         l_extendedprice*(1-l_discount) as volume, n2.n_name as nation
//!       from part, supplier, lineitem, orders, customer,
//!            nation n1, nation n2, region
//!       where p_partkey = l_partkey and s_suppkey = l_suppkey
//!         and l_orderkey = o_orderkey and o_custkey = c_custkey
//!         and c_nationkey = n1.n_nationkey and n1.n_regionkey = r_regionkey
//!         and r_name = 'AMERICA' and s_nationkey = n2.n_nationkey
//!         and o_orderdate between date '1995-01-01' and date '1996-12-31'
//!         and p_type = 'ECONOMY ANODIZED STEEL') as all_nations
//! group by o_year order by o_year
//! ```

use crate::gen::TpchData;
use std::collections::HashMap;
use x100_engine::expr::*;
use x100_engine::ops::OrdExp;
use x100_engine::plan::Plan;
use x100_engine::AggExpr;
use x100_vector::date::{from_days, to_days};
use x100_vector::ScalarType;

/// The X100 plan; output `(o_year, mkt_share)`.
pub fn x100_plan() -> Plan {
    let volume = mul(col("l_extendedprice"), sub(lit_f64(1.0), col("l_discount")));
    Plan::scan(
        "lineitem",
        &[
            "l_extendedprice",
            "l_discount",
            "li_part_idx",
            "li_supp_idx",
            "li_order_idx",
        ],
    )
    .fetch1("part", col("li_part_idx"), &[("p_type", "p_type")])
    .select(eq(col("p_type"), lit_str("ECONOMY ANODIZED STEEL")))
    .fetch1(
        "orders",
        col("li_order_idx"),
        &[("o_orderdate", "o_orderdate"), ("o_cust_idx", "o_cust_idx")],
    )
    .select(and(
        ge(col("o_orderdate"), lit_date(1995, 1, 1)),
        le(col("o_orderdate"), lit_date(1996, 12, 31)),
    ))
    .fetch1(
        "customer",
        col("o_cust_idx"),
        &[("c_nation_idx", "c_nation_idx")],
    )
    .fetch1(
        "nation",
        col("c_nation_idx"),
        &[("n_region_idx", "n_region_idx")],
    )
    .fetch1("region", col("n_region_idx"), &[("r_name", "r_name")])
    .select(eq(col("r_name"), lit_str("AMERICA")))
    .fetch1(
        "supplier",
        col("li_supp_idx"),
        &[("s_nation_idx", "s_nation_idx")],
    )
    .fetch1("nation", col("s_nation_idx"), &[("n_name", "supp_nation")])
    .project(vec![
        ("o_year", year(col("o_orderdate"))),
        ("volume", volume.clone()),
        (
            "brazil_volume",
            mul(
                volume,
                cast(ScalarType::F64, eq(col("supp_nation"), lit_str("BRAZIL"))),
            ),
        ),
    ])
    .aggr(
        vec![("o_year", col("o_year"))],
        vec![
            AggExpr::sum("brazil", col("brazil_volume")),
            AggExpr::sum("total", col("volume")),
        ],
    )
    .project(vec![
        ("o_year", col("o_year")),
        ("mkt_share", div(col("brazil"), col("total"))),
    ])
    .order(vec![OrdExp::asc("o_year")])
}

/// Reference: `(year, mkt_share)` sorted by year.
pub fn reference(data: &TpchData) -> Vec<(i32, f64)> {
    let lo = to_days(1995, 1, 1);
    let hi = to_days(1996, 12, 31);
    let li = &data.lineitem;
    let mut acc: HashMap<i32, (f64, f64)> = HashMap::new();
    for i in 0..li.len() {
        if data.part.typ[li.part_idx[i] as usize] != "ECONOMY ANODIZED STEEL" {
            continue;
        }
        let oi = li.order_idx[i] as usize;
        let od = data.orders.orderdate[oi];
        if od < lo || od > hi {
            continue;
        }
        let cn = data.customer.nationkey[(data.orders.custkey[oi] - 1) as usize];
        if data.region.name[data.nation.regionkey[cn as usize] as usize] != "AMERICA" {
            continue;
        }
        let v = li.extendedprice[i] * (1.0 - li.discount[i]);
        let sn = data.supplier.nationkey[li.supp_idx[i] as usize];
        let e = acc.entry(from_days(od).0).or_insert((0.0, 0.0));
        e.1 += v;
        if data.nation.name[sn as usize] == "BRAZIL" {
            e.0 += v;
        }
    }
    let mut rows: Vec<(i32, f64)> = acc.into_iter().map(|(y, (b, t))| (y, b / t)).collect();
    rows.sort_by_key(|a| a.0);
    rows
}
