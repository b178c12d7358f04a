//! TPC-H Query 6: the forecasting revenue change query.
//!
//! A pure scan-select-aggregate — the simplest bandwidth/selectivity
//! benchmark in the suite, and the cleanest showcase of selection
//! vectors plus summary-index pruning: the date predicate is a range on
//! the clustered `l_shipdate`, from which the check walk derives the
//! fragment rows to scan (rule `summary-range-select`, §4.3).
//!
//! The SQL being reproduced:
//!
//! ```sql
//! select sum(l_extendedprice*l_discount) as revenue from lineitem
//! where l_shipdate >= date '1994-01-01' and l_shipdate < date '1995-01-01'
//!   and l_discount between 0.05 and 0.07 and l_quantity < 24
//! ```

use crate::gen::TpchData;
use x100_engine::expr::*;
use x100_engine::plan::Plan;
use x100_engine::AggExpr;
use x100_vector::date::to_days;

/// The X100 plan.
pub fn x100_plan() -> Plan {
    let lo = to_days(1994, 1, 1);
    let hi = to_days(1995, 1, 1);
    Plan::scan(
        "lineitem",
        &["l_shipdate", "l_discount", "l_quantity", "l_extendedprice"],
    )
    .select(and(
        and(
            ge(col("l_shipdate"), lit_i32(lo)),
            lt(col("l_shipdate"), lit_i32(hi)),
        ),
        and(
            and(
                ge(col("l_discount"), lit_f64(0.05)),
                le(col("l_discount"), lit_f64(0.07)),
            ),
            lt(col("l_quantity"), lit_f64(24.0)),
        ),
    ))
    .aggr(
        vec![],
        vec![AggExpr::sum(
            "revenue",
            mul(col("l_extendedprice"), col("l_discount")),
        )],
    )
}

/// Reference implementation (row loop over the raw data).
pub fn reference(data: &TpchData) -> f64 {
    let lo = to_days(1994, 1, 1);
    let hi = to_days(1995, 1, 1);
    let li = &data.lineitem;
    let mut rev = 0.0;
    for i in 0..li.len() {
        if li.shipdate[i] >= lo
            && li.shipdate[i] < hi
            && li.discount[i] >= 0.05 - 1e-9
            && li.discount[i] <= 0.07 + 1e-9
            && li.quantity[i] < 24.0
        {
            rev += li.extendedprice[i] * li.discount[i];
        }
    }
    rev
}
