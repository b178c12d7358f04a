//! TPC-H Query 2: the minimum cost supplier query.
//!
//! The correlated `= (select min(ps_supplycost) …)` sub-query becomes a
//! per-part MIN aggregation joined back against the qualifying partsupp
//! rows via a semi-join on `(partkey, supplycost)`.
//!
//! The SQL being reproduced:
//!
//! ```sql
//! select s_acctbal, s_name, n_name, p_partkey, ...
//! from part, supplier, partsupp, nation, region
//! where p_partkey = ps_partkey and s_suppkey = ps_suppkey
//!   and p_size = 15 and p_type like '%BRASS'
//!   and s_nationkey = n_nationkey and n_regionkey = r_regionkey
//!   and r_name = 'EUROPE'
//!   and ps_supplycost = (select min(ps_supplycost) from partsupp, supplier,
//!       nation, region where p_partkey = ps_partkey and s_suppkey = ps_suppkey
//!       and s_nationkey = n_nationkey and n_regionkey = r_regionkey
//!       and r_name = 'EUROPE')
//! order by s_acctbal desc, n_name, s_name, p_partkey limit 100
//! ```

use crate::gen::TpchData;
use std::collections::HashMap;
use x100_engine::expr::*;
use x100_engine::ops::{JoinType, OrdExp};
use x100_engine::plan::Plan;
use x100_engine::AggExpr;

/// Qualifying partsupp rows: suppliers in EUROPE, with supplier and
/// nation attributes attached.
fn europe_partsupp() -> Plan {
    Plan::scan(
        "partsupp",
        &["ps_partkey", "ps_supplycost", "ps_supp_idx", "ps_part_idx"],
    )
    .fetch1(
        "supplier",
        col("ps_supp_idx"),
        &[
            ("s_name", "s_name"),
            ("s_acctbal", "s_acctbal"),
            ("s_nation_idx", "s_nation_idx"),
        ],
    )
    .fetch1(
        "nation",
        col("s_nation_idx"),
        &[("n_region_idx", "n_region_idx"), ("n_name", "n_name")],
    )
    .fetch1("region", col("n_region_idx"), &[("r_name", "r_name")])
    .select(eq(col("r_name"), lit_str("EUROPE")))
}

/// The X100 plan.
pub fn x100_plan() -> Plan {
    let min_cost = Plan::Aggr {
        input: Box::new(europe_partsupp()),
        keys: vec![("mk_partkey".into(), col("ps_partkey"))],
        aggs: vec![AggExpr::min("min_cost", col("ps_supplycost"))],
    };
    let candidates = europe_partsupp()
        .fetch1("part", col("ps_part_idx"), &[("p_size", "p_size")])
        .fetch1("part", col("ps_part_idx"), &[("p_type3", "p_type3")])
        .select(and(
            eq(col("p_size"), lit_i64(15)),
            eq(col("p_type3"), lit_str("BRASS")),
        ));
    Plan::HashJoin {
        build: Box::new(min_cost),
        probe: Box::new(candidates),
        build_keys: vec![col("mk_partkey"), col("min_cost")],
        probe_keys: vec![col("ps_partkey"), col("ps_supplycost")],
        payload: vec![],
        join_type: JoinType::LeftSemi,
    }
    .project(vec![
        ("s_acctbal", col("s_acctbal")),
        ("s_name", col("s_name")),
        ("n_name", col("n_name")),
        ("p_partkey", col("ps_partkey")),
    ])
    .topn(
        vec![
            OrdExp::desc("s_acctbal"),
            OrdExp::asc("n_name"),
            OrdExp::asc("s_name"),
            OrdExp::asc("p_partkey"),
        ],
        100,
    )
}

/// Reference implementation: `(partkey, suppkey)` winners, top 100 by
/// the query's sort order, reduced to `(s_acctbal, partkey)`.
pub fn reference(data: &TpchData) -> Vec<(f64, i64)> {
    let ps = &data.partsupp;
    let in_europe = |suppkey: i64| {
        let nk = data.supplier.nationkey[(suppkey - 1) as usize];
        data.region.name[data.nation.regionkey[nk as usize] as usize] == "EUROPE"
    };
    // Min cost per part among EUROPE suppliers.
    let mut min_cost: HashMap<i64, f64> = HashMap::new();
    for i in 0..ps.partkey.len() {
        if in_europe(ps.suppkey[i]) {
            let e = min_cost.entry(ps.partkey[i]).or_insert(f64::MAX);
            *e = e.min(ps.supplycost[i]);
        }
    }
    let mut rows: Vec<(f64, String, String, i64)> = Vec::new();
    for i in 0..ps.partkey.len() {
        let pk = ps.partkey[i];
        let pi = (pk - 1) as usize;
        if data.part.size[pi] != 15 || data.part.type3[pi] != "BRASS" {
            continue;
        }
        if !in_europe(ps.suppkey[i]) {
            continue;
        }
        if ps.supplycost[i] != min_cost[&pk] {
            continue;
        }
        let si = (ps.suppkey[i] - 1) as usize;
        let nk = data.supplier.nationkey[si] as usize;
        rows.push((
            data.supplier.acctbal[si],
            data.nation.name[nk].clone(),
            data.supplier.name[si].clone(),
            pk,
        ));
    }
    rows.sort_by(|a, b| {
        b.0.total_cmp(&a.0)
            .then(a.1.cmp(&b.1))
            .then(a.2.cmp(&b.2))
            .then(a.3.cmp(&b.3))
    });
    rows.truncate(100);
    rows.into_iter().map(|(bal, _, _, pk)| (bal, pk)).collect()
}
