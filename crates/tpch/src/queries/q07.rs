//! TPC-H Query 7: the volume shipping query.
//!
//! Bilateral trade FRANCE↔GERMANY by year: two nation fetches (supplier
//! side and customer side), a pair-disjunction predicate rewritten onto
//! codes, a `year()` projection, and hash aggregation whose code keys
//! decode only at emission.
//!
//! The SQL being reproduced:
//!
//! ```sql
//! select supp_nation, cust_nation, l_year, sum(volume) as revenue
//! from (select n1.n_name as supp_nation, n2.n_name as cust_nation,
//!         extract(year from l_shipdate) as l_year,
//!         l_extendedprice*(1-l_discount) as volume
//!       from supplier, lineitem, orders, customer, nation n1, nation n2
//!       where s_suppkey = l_suppkey and o_orderkey = l_orderkey
//!         and c_custkey = o_custkey and s_nationkey = n1.n_nationkey
//!         and c_nationkey = n2.n_nationkey
//!         and ((n1.n_name = 'FRANCE' and n2.n_name = 'GERMANY')
//!           or (n1.n_name = 'GERMANY' and n2.n_name = 'FRANCE'))
//!         and l_shipdate between date '1995-01-01' and date '1996-12-31')
//!       as shipping
//! group by supp_nation, cust_nation, l_year
//! order by supp_nation, cust_nation, l_year
//! ```

use crate::gen::TpchData;
use std::collections::HashMap;
use x100_engine::expr::*;
use x100_engine::ops::OrdExp;
use x100_engine::plan::Plan;
use x100_engine::AggExpr;
use x100_vector::date::{from_days, to_days};

/// The X100 plan.
pub fn x100_plan() -> Plan {
    let pair = |a: &str, b: &str| {
        and(
            eq(col("supp_nation"), lit_str(a)),
            eq(col("cust_nation"), lit_str(b)),
        )
    };
    Plan::scan(
        "lineitem",
        &[
            "l_shipdate",
            "l_extendedprice",
            "l_discount",
            "li_supp_idx",
            "li_order_idx",
        ],
    )
    .select(and(
        ge(col("l_shipdate"), lit_date(1995, 1, 1)),
        le(col("l_shipdate"), lit_date(1996, 12, 31)),
    ))
    .fetch1(
        "supplier",
        col("li_supp_idx"),
        &[("s_nation_idx", "s_nation_idx")],
    )
    .fetch1("nation", col("s_nation_idx"), &[("n_name", "supp_nation")])
    .fetch1(
        "orders",
        col("li_order_idx"),
        &[("o_cust_idx", "o_cust_idx")],
    )
    .fetch1(
        "customer",
        col("o_cust_idx"),
        &[("c_nation_idx", "c_nation_idx")],
    )
    .fetch1("nation", col("c_nation_idx"), &[("n_name", "cust_nation")])
    .select(or(pair("FRANCE", "GERMANY"), pair("GERMANY", "FRANCE")))
    .project(vec![
        ("supp_nation", col("supp_nation")),
        ("cust_nation", col("cust_nation")),
        ("l_year", year(col("l_shipdate"))),
        (
            "volume",
            mul(col("l_extendedprice"), sub(lit_f64(1.0), col("l_discount"))),
        ),
    ])
    .aggr(
        vec![
            ("supp_nation", col("supp_nation")),
            ("cust_nation", col("cust_nation")),
            ("l_year", col("l_year")),
        ],
        vec![AggExpr::sum("revenue", col("volume"))],
    )
    .order(vec![
        OrdExp::asc("supp_nation"),
        OrdExp::asc("cust_nation"),
        OrdExp::asc("l_year"),
    ])
}

/// Reference: `(supp_nation, cust_nation, year, revenue)` sorted.
pub fn reference(data: &TpchData) -> Vec<(String, String, i32, f64)> {
    let lo = to_days(1995, 1, 1);
    let hi = to_days(1996, 12, 31);
    let li = &data.lineitem;
    let mut acc: HashMap<(usize, usize, i32), f64> = HashMap::new();
    for i in 0..li.len() {
        if li.shipdate[i] < lo || li.shipdate[i] > hi {
            continue;
        }
        let sn = data.supplier.nationkey[li.supp_idx[i] as usize] as usize;
        let oi = li.order_idx[i] as usize;
        let cn = data.customer.nationkey[(data.orders.custkey[oi] - 1) as usize] as usize;
        let (sname, cname) = (&data.nation.name[sn], &data.nation.name[cn]);
        let franco_german =
            (sname == "FRANCE" && cname == "GERMANY") || (sname == "GERMANY" && cname == "FRANCE");
        if !franco_german {
            continue;
        }
        let y = from_days(li.shipdate[i]).0;
        *acc.entry((sn, cn, y)).or_insert(0.0) += li.extendedprice[i] * (1.0 - li.discount[i]);
    }
    let mut rows: Vec<(String, String, i32, f64)> = acc
        .into_iter()
        .map(|((s, c, y), v)| {
            (
                data.nation.name[s].clone(),
                data.nation.name[c].clone(),
                y,
                v,
            )
        })
        .collect();
    rows.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2)));
    rows
}
