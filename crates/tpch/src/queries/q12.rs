//! TPC-H Query 12: the shipping modes and order priority query.
//!
//! Conditional aggregation (`CASE WHEN`) expressed as boolean-to-i64
//! casts, a date/ordering correlation predicate over three date
//! columns, and an `IN`-list as an OR of string-equality selects.
//!
//! The SQL being reproduced:
//!
//! ```sql
//! select l_shipmode,
//!   sum(case when o_orderpriority = '1-URGENT' or o_orderpriority = '2-HIGH'
//!       then 1 else 0 end) as high_line_count,
//!   sum(case when o_orderpriority <> '1-URGENT' and o_orderpriority <> '2-HIGH'
//!       then 1 else 0 end) as low_line_count
//! from orders, lineitem
//! where o_orderkey = l_orderkey and l_shipmode in ('MAIL', 'SHIP')
//!   and l_commitdate < l_receiptdate and l_shipdate < l_commitdate
//!   and l_receiptdate >= date '1994-01-01' and l_receiptdate < date '1995-01-01'
//! group by l_shipmode order by l_shipmode
//! ```

use crate::gen::TpchData;
use std::collections::HashMap;
use x100_engine::expr::*;
use x100_engine::ops::OrdExp;
use x100_engine::plan::Plan;
use x100_engine::AggExpr;
use x100_vector::date::to_days;
use x100_vector::ScalarType;

/// The X100 plan.
pub fn x100_plan() -> Plan {
    let lo = to_days(1994, 1, 1);
    let hi = to_days(1995, 1, 1);
    let high = cast(
        ScalarType::I64,
        or(
            eq(col("o_orderpriority"), lit_str("1-URGENT")),
            eq(col("o_orderpriority"), lit_str("2-HIGH")),
        ),
    );
    Plan::scan(
        "lineitem",
        &[
            "l_shipmode",
            "l_shipdate",
            "l_commitdate",
            "l_receiptdate",
            "li_order_idx",
        ],
    )
    .select(and(
        or(
            eq(col("l_shipmode"), lit_str("MAIL")),
            eq(col("l_shipmode"), lit_str("SHIP")),
        ),
        and(
            and(
                lt(col("l_commitdate"), col("l_receiptdate")),
                lt(col("l_shipdate"), col("l_commitdate")),
            ),
            and(
                ge(col("l_receiptdate"), lit_i32(lo)),
                lt(col("l_receiptdate"), lit_i32(hi)),
            ),
        ),
    ))
    .fetch1(
        "orders",
        col("li_order_idx"),
        &[("o_orderpriority", "o_orderpriority")],
    )
    .project(vec![
        ("l_shipmode", col("l_shipmode")),
        ("high", high.clone()),
        ("low", sub(lit_i64(1), high)),
    ])
    .aggr(
        vec![("l_shipmode", col("l_shipmode"))],
        vec![
            AggExpr::sum("high_line_count", col("high")),
            AggExpr::sum("low_line_count", col("low")),
        ],
    )
    .order(vec![OrdExp::asc("l_shipmode")])
}

/// Reference implementation: `(shipmode, high, low)` sorted by mode.
pub fn reference(data: &TpchData) -> Vec<(String, i64, i64)> {
    let lo = to_days(1994, 1, 1);
    let hi = to_days(1995, 1, 1);
    let li = &data.lineitem;
    let o = &data.orders;
    let mut acc: HashMap<String, (i64, i64)> = HashMap::new();
    for i in 0..li.len() {
        if !(li.shipmode[i] == "MAIL" || li.shipmode[i] == "SHIP") {
            continue;
        }
        if !(li.commitdate[i] < li.receiptdate[i] && li.shipdate[i] < li.commitdate[i]) {
            continue;
        }
        if li.receiptdate[i] < lo || li.receiptdate[i] >= hi {
            continue;
        }
        let prio = &o.orderpriority[li.order_idx[i] as usize];
        let e = acc.entry(li.shipmode[i].clone()).or_insert((0, 0));
        if prio == "1-URGENT" || prio == "2-HIGH" {
            e.0 += 1;
        } else {
            e.1 += 1;
        }
    }
    let mut rows: Vec<(String, i64, i64)> = acc.into_iter().map(|(m, (h, l))| (m, h, l)).collect();
    rows.sort();
    rows
}
