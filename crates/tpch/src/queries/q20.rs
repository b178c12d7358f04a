//! TPC-H Query 20: the potential part promotion query.
//!
//! `ps_availqty > 0.5 × sum(shipped quantity)` joins the per-(part,
//! supplier) shipped-quantity aggregate (keyed by the `ps_rowid`
//! partsupp join index) against forest-part partsupp rows, then
//! semi-joins the surviving suppliers.
//!
//! The SQL being reproduced:
//!
//! ```sql
//! select s_name, s_address from supplier, nation
//! where s_suppkey in
//!   (select ps_suppkey from partsupp where ps_partkey in
//!      (select p_partkey from part where p_name like 'forest%')
//!    and ps_availqty > (select 0.5 * sum(l_quantity) from lineitem
//!      where l_partkey = ps_partkey and l_suppkey = ps_suppkey
//!      and l_shipdate >= date '1994-01-01' and l_shipdate < date '1995-01-01'))
//!   and s_nationkey = n_nationkey and n_name = 'CANADA'
//! order by s_name
//! ```

use crate::gen::TpchData;
use std::collections::{HashMap, HashSet};
use x100_engine::expr::*;
use x100_engine::ops::{JoinType, OrdExp};
use x100_engine::plan::Plan;
use x100_engine::AggExpr;
use x100_vector::date::to_days;
use x100_vector::ScalarType;

/// The X100 plan; output `(s_name,)` sorted.
pub fn x100_plan() -> Plan {
    let lo = to_days(1994, 1, 1);
    let hi = to_days(1995, 1, 1);
    // Quantity shipped in 1994 per partsupp row.
    let shipped = Plan::scan("lineitem", &["l_shipdate", "l_quantity", "li_ps_idx"])
        .select(and(
            ge(col("l_shipdate"), lit_i32(lo)),
            lt(col("l_shipdate"), lit_i32(hi)),
        ))
        .aggr(
            vec![("sh_ps", col("li_ps_idx"))],
            vec![AggExpr::sum("shipped_qty", col("l_quantity"))],
        );
    // Forest-part partsupp rows with enough stock.
    let qualifying = Plan::HashJoin {
        build: Box::new(shipped),
        probe: Box::new(
            Plan::scan(
                "partsupp",
                &["ps_rowid", "ps_availqty", "ps_part_idx", "ps_supp_idx"],
            )
            .fetch1("part", col("ps_part_idx"), &[("p_name1", "p_name1")])
            .select(eq(col("p_name1"), lit_str("forest"))),
        ),
        build_keys: vec![col("sh_ps")],
        probe_keys: vec![col("ps_rowid")],
        payload: vec![("shipped_qty".into(), "shipped_qty".into())],
        join_type: JoinType::Inner,
    }
    .select(gt(
        cast(ScalarType::F64, col("ps_availqty")),
        mul(lit_f64(0.5), col("shipped_qty")),
    ));
    // Suppliers (in CANADA) having at least one qualifying row.
    Plan::HashJoin {
        build: Box::new(qualifying),
        probe: Box::new(
            Plan::scan("supplier", &["s_suppkey", "s_name", "s_nation_idx"])
                .fetch1("nation", col("s_nation_idx"), &[("n_name", "n_name")])
                .select(eq(col("n_name"), lit_str("CANADA"))),
        ),
        build_keys: vec![cast(ScalarType::I64, col("ps_supp_idx"))],
        probe_keys: vec![sub(col("s_suppkey"), lit_i64(1))],
        payload: vec![],
        join_type: JoinType::LeftSemi,
    }
    .project(vec![("s_name", col("s_name"))])
    .order(vec![OrdExp::asc("s_name")])
}

/// Reference: sorted supplier names.
pub fn reference(data: &TpchData) -> Vec<String> {
    let lo = to_days(1994, 1, 1);
    let hi = to_days(1995, 1, 1);
    let li = &data.lineitem;
    let mut shipped: HashMap<u32, f64> = HashMap::new();
    for i in 0..li.len() {
        if li.shipdate[i] >= lo && li.shipdate[i] < hi {
            *shipped.entry(li.ps_idx[i]).or_insert(0.0) += li.quantity[i];
        }
    }
    let ps = &data.partsupp;
    let mut supps: HashSet<i64> = HashSet::new();
    for i in 0..ps.partkey.len() {
        if data.part.name1[(ps.partkey[i] - 1) as usize] != "forest" {
            continue;
        }
        let Some(&sq) = shipped.get(&(i as u32)) else {
            continue;
        };
        if ps.availqty[i] as f64 > 0.5 * sq {
            supps.insert(ps.suppkey[i]);
        }
    }
    let mut names: Vec<String> = supps
        .into_iter()
        .filter(|&sk| {
            data.nation.name[data.supplier.nationkey[(sk - 1) as usize] as usize] == "CANADA"
        })
        .map(|sk| data.supplier.name[(sk - 1) as usize].clone())
        .collect();
    names.sort();
    names
}
