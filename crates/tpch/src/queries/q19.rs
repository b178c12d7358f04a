//! TPC-H Query 19: the discounted revenue query.
//!
//! A disjunction of three brand/container/quantity/size conjunctions —
//! the stress test for the general boolean expression path (`OR` trees
//! of string-equality and numeric range predicates over enum-decoded
//! part attributes).
//!
//! The SQL being reproduced:
//!
//! ```sql
//! select sum(l_extendedprice*(1-l_discount)) as revenue
//! from lineitem, part
//! where (p_partkey = l_partkey and p_brand = 'Brand#12'
//!     and p_container in ('SM CASE','SM BOX','SM PACK','SM PKG')
//!     and l_quantity >= 1 and l_quantity <= 11 and p_size between 1 and 5
//!     and l_shipmode in ('AIR','REG AIR')
//!     and l_shipinstruct = 'DELIVER IN PERSON')
//!   or (… Brand#23, MED …, quantity 10..20, size 1..10 …)
//!   or (… Brand#34, LG …, quantity 20..30, size 1..15 …)
//! ```

use crate::gen::TpchData;
use x100_engine::expr::*;
use x100_engine::plan::Plan;
use x100_engine::AggExpr;

fn in_list(c: &str, values: &[&str]) -> Expr {
    values
        .iter()
        .map(|v| eq(col(c), lit_str(*v)))
        .reduce(or)
        .expect("non-empty IN list")
}

fn branch(brand: &str, containers: &[&str], qty_lo: f64, size_hi: i64) -> Expr {
    and(
        and(
            eq(col("p_brand"), lit_str(brand)),
            in_list("p_container", containers),
        ),
        and(
            and(
                ge(col("l_quantity"), lit_f64(qty_lo)),
                le(col("l_quantity"), lit_f64(qty_lo + 10.0)),
            ),
            and(
                ge(col("p_size"), lit_i64(1)),
                le(col("p_size"), lit_i64(size_hi)),
            ),
        ),
    )
}

/// The X100 plan; single output `revenue`.
pub fn x100_plan() -> Plan {
    Plan::scan(
        "lineitem",
        &[
            "l_quantity",
            "l_extendedprice",
            "l_discount",
            "l_shipmode",
            "l_shipinstruct",
            "li_part_idx",
        ],
    )
    .select(and(
        in_list("l_shipmode", &["AIR", "REG AIR"]),
        eq(col("l_shipinstruct"), lit_str("DELIVER IN PERSON")),
    ))
    .fetch1(
        "part",
        col("li_part_idx"),
        &[
            ("p_size", "p_size"),
            ("p_brand", "p_brand"),
            ("p_container", "p_container"),
        ],
    )
    .select(or(
        or(
            branch(
                "Brand#12",
                &["SM CASE", "SM BOX", "SM PACK", "SM PKG"],
                1.0,
                5,
            ),
            branch(
                "Brand#23",
                &["MED BAG", "MED BOX", "MED PKG", "MED PACK"],
                10.0,
                10,
            ),
        ),
        branch(
            "Brand#34",
            &["LG CASE", "LG BOX", "LG PACK", "LG PKG"],
            20.0,
            15,
        ),
    ))
    .aggr(
        vec![],
        vec![AggExpr::sum(
            "revenue",
            mul(col("l_extendedprice"), sub(lit_f64(1.0), col("l_discount"))),
        )],
    )
}

/// Reference implementation of the revenue sum.
pub fn reference(data: &TpchData) -> f64 {
    let li = &data.lineitem;
    let p = &data.part;
    let mut rev = 0.0;
    for i in 0..li.len() {
        if !(li.shipmode[i] == "AIR" || li.shipmode[i] == "REG AIR") {
            continue;
        }
        if li.shipinstruct[i] != "DELIVER IN PERSON" {
            continue;
        }
        let pi = li.part_idx[i] as usize;
        let q = li.quantity[i];
        let size = p.size[pi];
        // Container lists differ per branch; enumerate them exactly.
        let c = p.container[pi].as_str();
        let b12 = p.brand[pi] == "Brand#12"
            && ["SM CASE", "SM BOX", "SM PACK", "SM PKG"].contains(&c)
            && (1.0..=11.0).contains(&q)
            && (1..=5).contains(&size);
        let b23 = p.brand[pi] == "Brand#23"
            && ["MED BAG", "MED BOX", "MED PKG", "MED PACK"].contains(&c)
            && (10.0..=20.0).contains(&q)
            && (1..=10).contains(&size);
        let b34 = p.brand[pi] == "Brand#34"
            && ["LG CASE", "LG BOX", "LG PACK", "LG PKG"].contains(&c)
            && (20.0..=30.0).contains(&q)
            && (1..=15).contains(&size);
        if b12 || b23 || b34 {
            rev += li.extendedprice[i] * (1.0 - li.discount[i]);
        }
    }
    rev
}
