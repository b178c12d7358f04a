//! TPC-H Query 21: the suppliers who kept orders waiting query.
//!
//! The two correlated EXISTS / NOT EXISTS sub-queries decorrelate into
//! per-order supplier statistics:
//!
//! * `exists l2 (same order, other supplier)` ⟺ the order's overall
//!   `min(l_suppkey) ≠ max(l_suppkey)`;
//! * `not exists l3 (same order, other supplier, late)` ⟺ among the
//!   order's *late* lineitems, `min = max = l1.l_suppkey` (l1 itself is
//!   late, so the late set is non-empty).
//!
//! The SQL being reproduced:
//!
//! ```sql
//! select s_name, count(*) as numwait
//! from supplier, lineitem l1, orders, nation
//! where s_suppkey = l1.l_suppkey and o_orderkey = l1.l_orderkey
//!   and o_orderstatus = 'F' and l1.l_receiptdate > l1.l_commitdate
//!   and exists (select * from lineitem l2 where l2.l_orderkey = l1.l_orderkey
//!               and l2.l_suppkey <> l1.l_suppkey)
//!   and not exists (select * from lineitem l3
//!               where l3.l_orderkey = l1.l_orderkey
//!               and l3.l_suppkey <> l1.l_suppkey
//!               and l3.l_receiptdate > l3.l_commitdate)
//!   and s_nationkey = n_nationkey and n_name = 'SAUDI ARABIA'
//! group by s_name order by numwait desc, s_name limit 100
//! ```

use crate::gen::TpchData;
use std::collections::HashMap;
use x100_engine::expr::*;
use x100_engine::ops::{JoinType, OrdExp};
use x100_engine::plan::Plan;
use x100_engine::AggExpr;

fn late_lineitems() -> Plan {
    Plan::scan(
        "lineitem",
        &[
            "l_orderkey",
            "l_suppkey",
            "l_commitdate",
            "l_receiptdate",
            "li_order_idx",
            "li_supp_idx",
        ],
    )
    .select(gt(col("l_receiptdate"), col("l_commitdate")))
}

/// The X100 plan; output `(s_name, numwait)` top 100.
pub fn x100_plan() -> Plan {
    let all_supp = Plan::scan("lineitem", &["l_orderkey", "l_suppkey"]).aggr(
        vec![("ao_orderkey", col("l_orderkey"))],
        vec![
            AggExpr::min("mn", col("l_suppkey")),
            AggExpr::max("mx", col("l_suppkey")),
        ],
    );
    let late_supp = late_lineitems().aggr(
        vec![("lo_orderkey", col("l_orderkey"))],
        vec![
            AggExpr::min("lmn", col("l_suppkey")),
            AggExpr::max("lmx", col("l_suppkey")),
        ],
    );
    let probe = late_lineitems()
        .fetch1(
            "orders",
            col("li_order_idx"),
            &[("o_orderstatus", "o_orderstatus")],
        )
        .select(eq(col("o_orderstatus"), lit_str("F")))
        .fetch1(
            "supplier",
            col("li_supp_idx"),
            &[("s_name", "s_name"), ("s_nation_idx", "s_nation_idx")],
        )
        .fetch1("nation", col("s_nation_idx"), &[("n_name", "n_name")])
        .select(eq(col("n_name"), lit_str("SAUDI ARABIA")));
    let with_all = Plan::HashJoin {
        build: Box::new(all_supp),
        probe: Box::new(probe),
        build_keys: vec![col("ao_orderkey")],
        probe_keys: vec![col("l_orderkey")],
        payload: vec![("mn".into(), "mn".into()), ("mx".into(), "mx".into())],
        join_type: JoinType::Inner,
    }
    .select(ne(col("mn"), col("mx")));
    Plan::HashJoin {
        build: Box::new(late_supp),
        probe: Box::new(with_all),
        build_keys: vec![col("lo_orderkey")],
        probe_keys: vec![col("l_orderkey")],
        payload: vec![("lmn".into(), "lmn".into()), ("lmx".into(), "lmx".into())],
        join_type: JoinType::Inner,
    }
    .select(and(
        eq(col("lmn"), col("l_suppkey")),
        eq(col("lmx"), col("l_suppkey")),
    ))
    .aggr(
        vec![("s_name", col("s_name"))],
        vec![AggExpr::count("numwait")],
    )
    .topn(vec![OrdExp::desc("numwait"), OrdExp::asc("s_name")], 100)
}

/// Reference: `(s_name, numwait)` top 100.
pub fn reference(data: &TpchData) -> Vec<(String, i64)> {
    let li = &data.lineitem;
    // Per-order supplier stats.
    #[derive(Default, Clone)]
    struct Stat {
        mn: i64,
        mx: i64,
        lmn: i64,
        lmx: i64,
        has_late: bool,
    }
    let mut stats: HashMap<i64, Stat> = HashMap::new();
    for i in 0..li.len() {
        let e = stats.entry(li.orderkey[i]).or_insert(Stat {
            mn: i64::MAX,
            mx: i64::MIN,
            lmn: i64::MAX,
            lmx: i64::MIN,
            has_late: false,
        });
        e.mn = e.mn.min(li.suppkey[i]);
        e.mx = e.mx.max(li.suppkey[i]);
        if li.receiptdate[i] > li.commitdate[i] {
            e.has_late = true;
            e.lmn = e.lmn.min(li.suppkey[i]);
            e.lmx = e.lmx.max(li.suppkey[i]);
        }
    }
    let mut waits: HashMap<i64, i64> = HashMap::new();
    for i in 0..li.len() {
        if li.receiptdate[i] <= li.commitdate[i] {
            continue;
        }
        let oi = li.order_idx[i] as usize;
        if data.orders.orderstatus[oi] != "F" {
            continue;
        }
        let sk = li.suppkey[i];
        if data.nation.name[data.supplier.nationkey[(sk - 1) as usize] as usize] != "SAUDI ARABIA" {
            continue;
        }
        let st = &stats[&li.orderkey[i]];
        if st.mn == st.mx {
            continue; // no other supplier on the order
        }
        if !(st.lmn == sk && st.lmx == sk) {
            continue; // some other supplier was also late
        }
        *waits.entry(sk).or_insert(0) += 1;
    }
    let mut rows: Vec<(String, i64)> = waits
        .into_iter()
        .map(|(sk, n)| (data.supplier.name[(sk - 1) as usize].clone(), n))
        .collect();
    rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    rows.truncate(100);
    rows
}
