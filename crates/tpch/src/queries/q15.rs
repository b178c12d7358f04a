//! TPC-H Query 15: the top supplier query.
//!
//! The `revenue` view becomes a per-supplier aggregation; the
//! `= (select max(total_revenue) …)` scalar is phase 1 of a two-phase
//! plan (an `Aggr` stacked on an `Aggr`). Both phases scan only the
//! `lineitem` rows the quarter's `l_shipdate` summary allows (rule
//! `summary-range-select`).
//!
//! The SQL being reproduced:
//!
//! ```sql
//! create view revenue as select l_suppkey as supplier_no,
//!   sum(l_extendedprice*(1-l_discount)) as total_revenue from lineitem
//!   where l_shipdate >= date '1996-01-01' and l_shipdate < date '1996-04-01'
//!   group by l_suppkey;
//! select s_suppkey, s_name, ..., total_revenue from supplier, revenue
//! where s_suppkey = supplier_no
//!   and total_revenue = (select max(total_revenue) from revenue)
//! order by s_suppkey
//! ```

use crate::gen::TpchData;
use crate::queries::TwoPhase;
use std::collections::HashMap;
use x100_engine::expr::*;
use x100_engine::ops::OrdExp;
use x100_engine::plan::Plan;
use x100_engine::AggExpr;
use x100_vector::date::to_days;

fn revenue_view() -> Plan {
    let lo = to_days(1996, 1, 1);
    let hi = to_days(1996, 4, 1);
    Plan::scan(
        "lineitem",
        &["l_shipdate", "l_extendedprice", "l_discount", "li_supp_idx"],
    )
    .select(and(
        ge(col("l_shipdate"), lit_i32(lo)),
        lt(col("l_shipdate"), lit_i32(hi)),
    ))
    .aggr(
        vec![("supplier_no", col("li_supp_idx"))],
        vec![AggExpr::sum(
            "total_revenue",
            mul(col("l_extendedprice"), sub(lit_f64(1.0), col("l_discount"))),
        )],
    )
}

/// The two-phase spec; output `(s_suppkey, s_name, total_revenue)`.
pub fn x100_spec() -> TwoPhase {
    TwoPhase {
        phase1: Plan::Aggr {
            input: Box::new(revenue_view()),
            keys: vec![],
            aggs: vec![AggExpr::max("max_revenue", col("total_revenue"))],
        },
        scalar_col: "max_revenue",
        phase2: |mx| {
            revenue_view()
                .select(ge(col("total_revenue"), lit_f64(mx)))
                .fetch1(
                    "supplier",
                    col("supplier_no"),
                    &[("s_suppkey", "s_suppkey"), ("s_name", "s_name")],
                )
                .project(vec![
                    ("s_suppkey", col("s_suppkey")),
                    ("s_name", col("s_name")),
                    ("total_revenue", col("total_revenue")),
                ])
                .order(vec![OrdExp::asc("s_suppkey")])
        },
    }
}

/// Reference: `(suppkey, revenue)` of the max-revenue supplier(s).
pub fn reference(data: &TpchData) -> Vec<(i64, f64)> {
    let lo = to_days(1996, 1, 1);
    let hi = to_days(1996, 4, 1);
    let li = &data.lineitem;
    let mut rev: HashMap<i64, f64> = HashMap::new();
    for i in 0..li.len() {
        if li.shipdate[i] >= lo && li.shipdate[i] < hi {
            *rev.entry(li.suppkey[i]).or_insert(0.0) +=
                li.extendedprice[i] * (1.0 - li.discount[i]);
        }
    }
    let mx = rev.values().cloned().fold(f64::MIN, f64::max);
    let mut rows: Vec<(i64, f64)> = rev.into_iter().filter(|&(_, v)| v >= mx).collect();
    rows.sort_by_key(|r| r.0);
    rows
}
