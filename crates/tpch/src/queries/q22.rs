//! TPC-H Query 22: the global sales opportunity query.
//!
//! Two-phase: phase 1 computes the average positive account balance of
//! the target country codes; phase 2 finds rich customers from those
//! codes with no orders (left-anti hash join), grouped by country code.
//!
//! `substring(c_phone, 1, 2)` is precomputed at load as the
//! enumeration-typed `c_cntrycode` column (the engine has no substring
//! primitive; see DESIGN.md substitutions).
//!
//! The SQL being reproduced:
//!
//! ```sql
//! select cntrycode, count(*) as numcust, sum(c_acctbal) as totacctbal
//! from (select substring(c_phone from 1 for 2) as cntrycode, c_acctbal
//!       from customer
//!       where substring(c_phone from 1 for 2) in
//!             ('13','31','23','29','30','18','17')
//!         and c_acctbal > (select avg(c_acctbal) from customer
//!              where c_acctbal > 0.00 and substring(c_phone from 1 for 2) in
//!                    ('13','31','23','29','30','18','17'))
//!         and not exists (select * from orders
//!              where o_custkey = c_custkey)) as custsale
//! group by cntrycode order by cntrycode
//! ```

use crate::gen::TpchData;
use crate::queries::TwoPhase;
use std::collections::{HashMap, HashSet};
use x100_engine::expr::*;
use x100_engine::ops::{JoinType, OrdExp};
use x100_engine::plan::Plan;
use x100_engine::AggExpr;

/// The Q22 country codes (nationkey + 10).
pub const CODES: [&str; 7] = ["13", "31", "23", "29", "30", "18", "17"];

fn code_in_list() -> Expr {
    CODES
        .iter()
        .map(|c| eq(col("c_cntrycode"), lit_str(*c)))
        .reduce(or)
        .expect("non-empty code list")
}

/// The two-phase spec; output `(cntrycode, numcust, totacctbal)`.
pub fn x100_spec() -> TwoPhase {
    TwoPhase {
        phase1: Plan::scan("customer", &["c_acctbal", "c_cntrycode"])
            .select(and(gt(col("c_acctbal"), lit_f64(0.0)), code_in_list()))
            .aggr(vec![], vec![AggExpr::avg("avgbal", col("c_acctbal"))]),
        scalar_col: "avgbal",
        phase2: |avgbal| {
            let rich = Plan::scan("customer", &["c_custkey", "c_acctbal", "c_cntrycode"])
                .select(and(gt(col("c_acctbal"), lit_f64(avgbal)), code_in_list()));
            Plan::HashJoin {
                build: Box::new(Plan::scan("orders", &["o_custkey"])),
                probe: Box::new(rich),
                build_keys: vec![col("o_custkey")],
                probe_keys: vec![col("c_custkey")],
                payload: vec![],
                join_type: JoinType::LeftAnti,
            }
            .aggr(
                vec![("cntrycode", col("c_cntrycode"))],
                vec![
                    AggExpr::count("numcust"),
                    AggExpr::sum("totacctbal", col("c_acctbal")),
                ],
            )
            .order(vec![OrdExp::asc("cntrycode")])
        },
    }
}

/// Reference: `(cntrycode, numcust, totacctbal)` sorted by code.
pub fn reference(data: &TpchData) -> Vec<(String, i64, f64)> {
    let c = &data.customer;
    let in_list = |i: usize| CODES.contains(&c.cntrycode[i].as_str());
    let (mut sum, mut n) = (0.0, 0i64);
    for i in 0..c.custkey.len() {
        if c.acctbal[i] > 0.0 && in_list(i) {
            sum += c.acctbal[i];
            n += 1;
        }
    }
    let avg = sum / n as f64;
    let with_orders: HashSet<i64> = data.orders.custkey.iter().copied().collect();
    let mut acc: HashMap<String, (i64, f64)> = HashMap::new();
    for i in 0..c.custkey.len() {
        if !in_list(i) || c.acctbal[i] <= avg || with_orders.contains(&c.custkey[i]) {
            continue;
        }
        let e = acc.entry(c.cntrycode[i].clone()).or_insert((0, 0.0));
        e.0 += 1;
        e.1 += c.acctbal[i];
    }
    let mut rows: Vec<(String, i64, f64)> = acc.into_iter().map(|(k, (n, s))| (k, n, s)).collect();
    rows.sort_by(|a, b| a.0.cmp(&b.0));
    rows
}
