//! TPC-H Query 16: the parts/supplier relationship query.
//!
//! `count(distinct ps_suppkey)` becomes two stacked aggregations (the
//! inner one deduplicates); the complained-suppliers `NOT IN` becomes a
//! left-anti hash join.
//!
//! The SQL being reproduced:
//!
//! ```sql
//! select p_brand, p_type, p_size, count(distinct ps_suppkey) as supplier_cnt
//! from partsupp, part
//! where p_partkey = ps_partkey and p_brand <> 'Brand#45'
//!   and p_type not like 'MEDIUM POLISHED%'
//!   and p_size in (49, 14, 23, 45, 19, 3, 36, 9)
//!   and ps_suppkey not in (select s_suppkey from supplier
//!       where s_comment like '%Customer%Complaints%')
//! group by p_brand, p_type, p_size
//! order by supplier_cnt desc, p_brand, p_type, p_size
//! ```

use crate::gen::TpchData;
use std::collections::{HashMap, HashSet};
use x100_engine::expr::*;
use x100_engine::ops::{JoinType, OrdExp};
use x100_engine::plan::Plan;
use x100_engine::AggExpr;

/// The Q16 size IN-list.
const SIZES: [i64; 8] = [49, 14, 23, 45, 19, 3, 36, 9];

/// The X100 plan; output `(p_brand, p_type, p_size, supplier_cnt)`.
pub fn x100_plan() -> Plan {
    let size_in = SIZES
        .iter()
        .map(|&s| eq(col("p_size"), lit_i64(s)))
        .reduce(or)
        .expect("non-empty size list");
    let complainers = Plan::scan("supplier", &["s_suppkey", "s_comment"]).select(and(
        contains(col("s_comment"), "Customer"),
        contains(col("s_comment"), "Complaints"),
    ));
    let candidates = Plan::scan("partsupp", &["ps_suppkey", "ps_part_idx"])
        .fetch1(
            "part",
            col("ps_part_idx"),
            &[
                ("p_size", "p_size"),
                ("p_brand", "p_brand"),
                ("p_type", "p_type"),
                ("p_type1", "p_type1"),
                ("p_type2", "p_type2"),
            ],
        )
        .select(and(
            and(
                ne(col("p_brand"), lit_str("Brand#45")),
                not(and(
                    eq(col("p_type1"), lit_str("MEDIUM")),
                    eq(col("p_type2"), lit_str("POLISHED")),
                )),
            ),
            size_in,
        ));
    Plan::HashJoin {
        build: Box::new(complainers),
        probe: Box::new(candidates),
        build_keys: vec![col("s_suppkey")],
        probe_keys: vec![col("ps_suppkey")],
        payload: vec![],
        join_type: JoinType::LeftAnti,
    }
    // Distinct (brand, type, size, suppkey) …
    .aggr(
        vec![
            ("p_brand", col("p_brand")),
            ("p_type", col("p_type")),
            ("p_size", col("p_size")),
            ("ps_suppkey", col("ps_suppkey")),
        ],
        vec![],
    )
    // … then count suppliers per (brand, type, size).
    .aggr(
        vec![
            ("p_brand", col("p_brand")),
            ("p_type", col("p_type")),
            ("p_size", col("p_size")),
        ],
        vec![AggExpr::count("supplier_cnt")],
    )
    .order(vec![
        OrdExp::desc("supplier_cnt"),
        OrdExp::asc("p_brand"),
        OrdExp::asc("p_type"),
        OrdExp::asc("p_size"),
    ])
}

/// Reference: `(brand, type, size, supplier_cnt)` sorted like the query.
pub fn reference(data: &TpchData) -> Vec<(String, String, i64, i64)> {
    let complainers: HashSet<i64> = data
        .supplier
        .comment
        .iter()
        .enumerate()
        .filter(|(_, c)| c.contains("Customer") && c.contains("Complaints"))
        .map(|(i, _)| data.supplier.suppkey[i])
        .collect();
    let ps = &data.partsupp;
    let mut distinct: HashSet<(String, String, i64, i64)> = HashSet::new();
    for i in 0..ps.partkey.len() {
        let pi = (ps.partkey[i] - 1) as usize;
        if data.part.brand[pi] == "Brand#45" {
            continue;
        }
        if data.part.type1[pi] == "MEDIUM" && data.part.type2[pi] == "POLISHED" {
            continue;
        }
        if !SIZES.contains(&data.part.size[pi]) {
            continue;
        }
        if complainers.contains(&ps.suppkey[i]) {
            continue;
        }
        distinct.insert((
            data.part.brand[pi].clone(),
            data.part.typ[pi].clone(),
            data.part.size[pi],
            ps.suppkey[i],
        ));
    }
    let mut counts: HashMap<(String, String, i64), i64> = HashMap::new();
    for (b, t, s, _) in distinct {
        *counts.entry((b, t, s)).or_insert(0) += 1;
    }
    let mut rows: Vec<(String, String, i64, i64)> = counts
        .into_iter()
        .map(|((b, t, s), c)| (b, t, s, c))
        .collect();
    rows.sort_by(|a, b| {
        b.3.cmp(&a.3)
            .then(a.0.cmp(&b.0))
            .then(a.1.cmp(&b.1))
            .then(a.2.cmp(&b.2))
    });
    rows
}
