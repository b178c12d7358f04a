//! TPC-H Query 1 on every engine (paper §3, §5.1).
//!
//! The pricing summary report: a 98%-selectivity scan of `lineitem`,
//! fixed-point arithmetic, and an aggregation onto 4 groups. The paper
//! uses it as its CPU-efficiency micro-benchmark (Tables 1, 2, 3, 5 and
//! Figure 10 are all Q1).
//!
//! The SQL being reproduced:
//!
//! ```sql
//! select l_returnflag, l_linestatus, sum(l_quantity) as sum_qty,
//!   sum(l_extendedprice) as sum_base_price,
//!   sum(l_extendedprice*(1-l_discount)) as sum_disc_price,
//!   sum(l_extendedprice*(1-l_discount)*(1+l_tax)) as sum_charge,
//!   avg(l_quantity) as avg_qty, avg(l_extendedprice) as avg_price,
//!   avg(l_discount) as avg_disc, count(*) as count_order
//! from lineitem where l_shipdate <= date '1998-09-02'
//! group by l_returnflag, l_linestatus order by l_returnflag, l_linestatus
//! ```

use crate::gen::RawLineitem;
use crate::hardcoded::Q1Row;
use monet_mil::{ops, Bat, MilArith, MilSession};
use std::collections::BTreeMap;
use x100_engine::expr::*;
use x100_engine::ops::OrdExp;
use x100_engine::plan::Plan;
use x100_engine::{AggExpr, QueryResult};
use x100_vector::{CmpOp, ScalarType, Value};

/// Q1's date predicate: `l_shipdate <= 1998-09-02`.
pub fn q1_hi_date() -> i32 {
    x100_vector::date::to_days(1998, 9, 2)
}

/// The X100 algebra plan of Figure 9, verbatim.
pub fn x100_plan() -> Plan {
    let discountprice = mul(sub(lit_f64(1.0), col("l_discount")), col("l_extendedprice"));
    let charge = mul(add(lit_f64(1.0), col("l_tax")), discountprice.clone());
    Plan::scan(
        "lineitem",
        &[
            "l_returnflag",
            "l_linestatus",
            "l_quantity",
            "l_extendedprice",
            "l_discount",
            "l_tax",
            "l_shipdate",
        ],
    )
    .select(le(col("l_shipdate"), lit_date(1998, 9, 2)))
    .aggr(
        vec![
            ("l_returnflag", col("l_returnflag")),
            ("l_linestatus", col("l_linestatus")),
        ],
        vec![
            AggExpr::sum("sum_qty", col("l_quantity")),
            AggExpr::sum("sum_base_price", col("l_extendedprice")),
            AggExpr::sum("sum_disc_price", discountprice),
            AggExpr::sum("sum_charge", charge),
            AggExpr::sum("sum_disc", col("l_discount")),
            AggExpr::count("count_order"),
        ],
    )
    .project(vec![
        ("l_returnflag", col("l_returnflag")),
        ("l_linestatus", col("l_linestatus")),
        ("sum_qty", col("sum_qty")),
        ("sum_base_price", col("sum_base_price")),
        ("sum_disc_price", col("sum_disc_price")),
        ("sum_charge", col("sum_charge")),
        (
            "avg_qty",
            div(col("sum_qty"), cast(ScalarType::F64, col("count_order"))),
        ),
        (
            "avg_price",
            div(
                col("sum_base_price"),
                cast(ScalarType::F64, col("count_order")),
            ),
        ),
        (
            "avg_disc",
            div(col("sum_disc"), cast(ScalarType::F64, col("count_order"))),
        ),
        ("count_order", col("count_order")),
    ])
    .order(vec![
        OrdExp::asc("l_returnflag"),
        OrdExp::asc("l_linestatus"),
    ])
}

/// Convert an X100 [`QueryResult`] of the plan above into [`Q1Row`]s.
pub fn rows_from_x100(res: &QueryResult) -> Vec<Q1Row> {
    let get = |name: &str| {
        res.col_index(name)
            .unwrap_or_else(|| panic!("missing {name}"))
    };
    (0..res.num_rows())
        .map(|r| {
            let ch = |c: usize| match res.value(r, c) {
                Value::Str(s) => s.chars().next().expect("one char"),
                other => panic!("expected char, got {other:?}"),
            };
            Q1Row {
                returnflag: ch(get("l_returnflag")),
                linestatus: ch(get("l_linestatus")),
                sum_qty: res.value(r, get("sum_qty")).as_f64(),
                sum_base_price: res.value(r, get("sum_base_price")).as_f64(),
                sum_disc_price: res.value(r, get("sum_disc_price")).as_f64(),
                sum_charge: res.value(r, get("sum_charge")).as_f64(),
                avg_qty: res.value(r, get("avg_qty")).as_f64(),
                avg_price: res.value(r, get("avg_price")).as_f64(),
                avg_disc: res.value(r, get("avg_disc")).as_f64(),
                count_order: res.value(r, get("count_order")).as_i64(),
            }
        })
        .collect()
}

/// The MonetDB/MIL plan of Table 3, statement by statement.
///
/// Returns the result rows plus the traced session (per-statement time,
/// bytes and bandwidth).
pub fn mil_q1(bats: &BTreeMap<&'static str, Bat>, hi_date: i32) -> (Vec<Q1Row>, MilSession) {
    let mut s = MilSession::new();
    let shipdate = &bats["l_shipdate"];
    let s0 = s.run("s0 := select(l_shipdate).mark", &[shipdate], || {
        ops::select_cmp(shipdate, CmpOp::Le, &Value::I32(hi_date))
    });
    let s1 = s.run(
        "s1 := join(s0,l_returnflag)",
        &[&s0, &bats["l_returnflag"]],
        || ops::join_fetch(&s0, &bats["l_returnflag"]),
    );
    let s2 = s.run(
        "s2 := join(s0,l_linestatus)",
        &[&s0, &bats["l_linestatus"]],
        || ops::join_fetch(&s0, &bats["l_linestatus"]),
    );
    let s3 = s.run(
        "s3 := join(s0,l_extprice)",
        &[&s0, &bats["l_extendedprice"]],
        || ops::join_fetch(&s0, &bats["l_extendedprice"]),
    );
    let s4 = s.run(
        "s4 := join(s0,l_discount)",
        &[&s0, &bats["l_discount"]],
        || ops::join_fetch(&s0, &bats["l_discount"]),
    );
    let s5 = s.run("s5 := join(s0,l_tax)", &[&s0, &bats["l_tax"]], || {
        ops::join_fetch(&s0, &bats["l_tax"])
    });
    let s6 = s.run(
        "s6 := join(s0,l_quantity)",
        &[&s0, &bats["l_quantity"]],
        || ops::join_fetch(&s0, &bats["l_quantity"]),
    );
    let mut n7 = 0usize;
    let s7 = s.run("s7 := group(s1)", &[&s1], || {
        let (g, n) = ops::group(&s1);
        n7 = n;
        g
    });
    let mut n8 = 0usize;
    let s8 = s.run("s8 := group(s7,s2)", &[&s7, &s2], || {
        let (g, n) = ops::group_refine(Some((&s7, n7)), &s2);
        n8 = n;
        g
    });
    let _s9 = s.run("s9 := unique(s8.mirror)", &[&s8], || ops::unique(n8));
    let r0 = s.run("r0 := [+](1.0,s5)", &[&s5], || {
        ops::multiplex_val_f64(MilArith::Add, 1.0, &s5)
    });
    let r1 = s.run("r1 := [-](1.0,s4)", &[&s4], || {
        ops::multiplex_val_f64(MilArith::Sub, 1.0, &s4)
    });
    let r2 = s.run("r2 := [*](s3,r1)", &[&s3, &r1], || {
        ops::multiplex_col_f64(MilArith::Mul, &s3, &r1)
    });
    let r3 = s.run("r3 := [*](r2,r0)", &[&r2, &r0], || {
        ops::multiplex_col_f64(MilArith::Mul, &r2, &r0)
    });
    let r4 = s.run("r4 := {sum}(r3,s8,s9)", &[&r3, &s8], || {
        ops::sum_grouped_f64(&r3, &s8, n8)
    });
    let r5 = s.run("r5 := {sum}(r2,s8,s9)", &[&r2, &s8], || {
        ops::sum_grouped_f64(&r2, &s8, n8)
    });
    let r6 = s.run("r6 := {sum}(s3,s8,s9)", &[&s3, &s8], || {
        ops::sum_grouped_f64(&s3, &s8, n8)
    });
    let r7 = s.run("r7 := {sum}(s4,s8,s9)", &[&s4, &s8], || {
        ops::sum_grouped_f64(&s4, &s8, n8)
    });
    let r8 = s.run("r8 := {sum}(s6,s8,s9)", &[&s6, &s8], || {
        ops::sum_grouped_f64(&s6, &s8, n8)
    });
    let r9 = s.run("r9 := {count}(s7,s8,s9)", &[&s8], || {
        ops::count_grouped(&s8, n8)
    });

    // Group-representative keys: first occurrence of each group id.
    let g = s8.as_oid();
    let mut first = vec![usize::MAX; n8];
    for (i, &gi) in g.iter().enumerate() {
        if first[gi as usize] == usize::MAX {
            first[gi as usize] = i;
        }
    }
    let counts = r9.as_i64();
    let mut rows: Vec<Q1Row> = (0..n8)
        .map(|gi| {
            let i = first[gi];
            Q1Row {
                returnflag: s1.as_u8()[i] as char,
                linestatus: s2.as_u8()[i] as char,
                sum_qty: r8.as_f64()[gi],
                sum_base_price: r6.as_f64()[gi],
                sum_disc_price: r5.as_f64()[gi],
                sum_charge: r4.as_f64()[gi],
                avg_qty: r8.as_f64()[gi] / counts[gi] as f64,
                avg_price: r6.as_f64()[gi] / counts[gi] as f64,
                avg_disc: r7.as_f64()[gi] / counts[gi] as f64,
                count_order: counts[gi],
            }
        })
        .collect();
    rows.sort_by_key(|r| (r.returnflag, r.linestatus));
    (rows, s)
}

/// Q1 on the tuple-at-a-time Volcano engine.
///
/// Returns the rows plus the routine call counters (Table 2).
pub fn volcano_q1(table: &volcano::RecordTable, hi_date: i32) -> (Vec<Q1Row>, volcano::Counters) {
    use volcano::exec::{AggKind, AggSpec, HashAggregate, ScanSelect};
    use volcano::item::{build, ItemCmpI32Field, ItemOp};
    let mut c = volcano::Counters::default();
    let f = |n: &str| {
        table
            .field_index(n)
            .unwrap_or_else(|| panic!("missing field {n}"))
    };
    let (rf, ls) = (f("l_returnflag"), f("l_linestatus"));
    let (qty, price, disc, tax, ship) = (
        f("l_quantity"),
        f("l_extendedprice"),
        f("l_discount"),
        f("l_tax"),
        f("l_shipdate"),
    );
    let disc_price = || {
        build::func(
            ItemOp::Mul,
            build::field(price),
            build::func(ItemOp::Minus, build::constant(1.0), build::field(disc)),
        )
    };
    let charge = build::func(
        ItemOp::Mul,
        disc_price(),
        build::func(ItemOp::Plus, build::constant(1.0), build::field(tax)),
    );
    let mut scan = ScanSelect::new(
        table,
        Some(Box::new(ItemCmpI32Field {
            op: CmpOp::Le,
            field: ship,
            value: hi_date,
        })),
    );
    let agg = HashAggregate::new(
        vec![rf, ls],
        vec![
            AggSpec {
                name: "sum_qty".into(),
                kind: AggKind::Sum,
                item: Some(build::field(qty)),
            },
            AggSpec {
                name: "sum_base_price".into(),
                kind: AggKind::Sum,
                item: Some(build::field(price)),
            },
            AggSpec {
                name: "sum_disc_price".into(),
                kind: AggKind::Sum,
                item: Some(disc_price()),
            },
            AggSpec {
                name: "sum_charge".into(),
                kind: AggKind::Sum,
                item: Some(charge),
            },
            AggSpec {
                name: "avg_qty".into(),
                kind: AggKind::Avg,
                item: Some(build::field(qty)),
            },
            AggSpec {
                name: "avg_price".into(),
                kind: AggKind::Avg,
                item: Some(build::field(price)),
            },
            AggSpec {
                name: "avg_disc".into(),
                kind: AggKind::Avg,
                item: Some(build::field(disc)),
            },
            AggSpec {
                name: "count".into(),
                kind: AggKind::Count,
                item: None,
            },
        ],
    );
    let res = agg.run(&mut scan, &mut c);
    let mut rows: Vec<Q1Row> = res
        .sorted_rows()
        .into_iter()
        .map(|(key, vals)| Q1Row {
            returnflag: key[0] as char,
            linestatus: key[1] as char,
            sum_qty: vals[0],
            sum_base_price: vals[1],
            sum_disc_price: vals[2],
            sum_charge: vals[3],
            avg_qty: vals[4],
            avg_price: vals[5],
            avg_disc: vals[6],
            count_order: vals[7] as i64,
        })
        .collect();
    rows.sort_by_key(|r| (r.returnflag, r.linestatus));
    (rows, c)
}

/// Reference implementation straight over the raw arrays (row loop,
/// used only for correctness cross-checks in tests).
pub fn reference_q1(li: &RawLineitem, hi_date: i32) -> Vec<Q1Row> {
    crate::hardcoded::run_hardcoded_q1(li, hi_date)
}
