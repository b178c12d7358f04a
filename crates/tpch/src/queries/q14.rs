//! TPC-H Query 14: the promotion effect query.
//!
//! A ratio of conditional revenue over total revenue within one month.
//! The `p_type LIKE 'PROMO%'` test uses the part table's first type
//! word (`p_type1`, an enumeration) compared for equality, multiplied
//! into the revenue as a boolean→f64 cast. The one-month `l_shipdate`
//! range cuts the scan to the rows its summary index allows (rule
//! `summary-range-select`).
//!
//! The SQL being reproduced:
//!
//! ```sql
//! select 100.00 * sum(case when p_type like 'PROMO%'
//!     then l_extendedprice*(1-l_discount) else 0 end)
//!   / sum(l_extendedprice*(1-l_discount)) as promo_revenue
//! from lineitem, part
//! where l_partkey = p_partkey
//!   and l_shipdate >= date '1995-09-01' and l_shipdate < date '1995-10-01'
//! ```

use crate::gen::TpchData;
use x100_engine::expr::*;
use x100_engine::plan::Plan;
use x100_engine::AggExpr;
use x100_vector::date::to_days;
use x100_vector::ScalarType;

/// The X100 plan; the single output column is `promo_revenue` (%).
pub fn x100_plan() -> Plan {
    let lo = to_days(1995, 9, 1);
    let hi = to_days(1995, 10, 1);
    let rev = mul(col("l_extendedprice"), sub(lit_f64(1.0), col("l_discount")));
    let is_promo = cast(ScalarType::F64, eq(col("p_type1"), lit_str("PROMO")));
    Plan::scan(
        "lineitem",
        &["l_extendedprice", "l_discount", "l_shipdate", "li_part_idx"],
    )
    .select(and(
        ge(col("l_shipdate"), lit_i32(lo)),
        lt(col("l_shipdate"), lit_i32(hi)),
    ))
    .fetch1("part", col("li_part_idx"), &[("p_type1", "p_type1")])
    .project(vec![
        ("rev", rev.clone()),
        ("promo_rev", mul(rev, is_promo)),
    ])
    .aggr(
        vec![],
        vec![
            AggExpr::sum("sum_promo", col("promo_rev")),
            AggExpr::sum("sum_rev", col("rev")),
        ],
    )
    .project(vec![(
        "promo_revenue",
        div(mul(lit_f64(100.0), col("sum_promo")), col("sum_rev")),
    )])
}

/// Reference implementation: the promo revenue percentage.
pub fn reference(data: &TpchData) -> f64 {
    let lo = to_days(1995, 9, 1);
    let hi = to_days(1995, 10, 1);
    let li = &data.lineitem;
    let mut promo = 0.0;
    let mut total = 0.0;
    for i in 0..li.len() {
        if li.shipdate[i] < lo || li.shipdate[i] >= hi {
            continue;
        }
        let rev = li.extendedprice[i] * (1.0 - li.discount[i]);
        total += rev;
        if data.part.type1[li.part_idx[i] as usize] == "PROMO" {
            promo += rev;
        }
    }
    100.0 * promo / total
}
