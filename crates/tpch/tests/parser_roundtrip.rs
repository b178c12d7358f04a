//! The paper's Figure 9 Q1 plan, written in the textual X100 algebra
//! and parsed, must produce exactly the same answer as the programmatic
//! plan (and therefore as the hard-coded UDF); every TPC-H plan
//! round-trips through it.

use tpch::gen::{generate_lineitem_q1, GenConfig};
use tpch::queries::{q01, QuerySpec};
use x100_engine::parser::parse_plan;
use x100_engine::render_plan;
use x100_engine::session::{execute, ExecOptions};

/// Figure 9, adapted only in column naming (`l_*` as stored): the check
/// walk finds on its own that the grouping keys travel as codes.
const FIG9_Q1: &str = "
Order(
  Project(
    Aggr(
      Select(
        Scan(lineitem,
             [ l_returnflag, l_linestatus, l_quantity, l_extendedprice,
               l_discount, l_tax, l_shipdate ]),
        <=( l_shipdate, date('1998-09-02'))),
      [ l_returnflag, l_linestatus ],
      [ sum_qty = sum(l_quantity),
        sum_base_price = sum(l_extendedprice),
        sum_disc_price = sum( *( -( flt('1.0'), l_discount), l_extendedprice) ),
        sum_charge = sum( *( +( flt('1.0'), l_tax),
                             *( -( flt('1.0'), l_discount), l_extendedprice) ) ),
        sum_disc = sum(l_discount),
        count_order = count() ]),
    [ l_returnflag = l_returnflag, l_linestatus = l_linestatus,
      sum_qty = sum_qty, sum_base_price = sum_base_price,
      sum_disc_price = sum_disc_price, sum_charge = sum_charge,
      avg_qty = /( sum_qty, dbl(count_order)),
      avg_price = /( sum_base_price, dbl(count_order)),
      avg_disc = /( sum_disc, dbl(count_order)),
      count_order = count_order ]),
  [ l_returnflag ASC, l_linestatus ASC ])";

#[test]
fn figure9_text_equals_programmatic_plan() {
    let li = generate_lineitem_q1(&GenConfig { sf: 0.002, seed: 9 });
    let db = tpch::build_x100_q1_db(&li);
    let parsed = parse_plan(FIG9_Q1).expect("figure 9 parses");
    let opts = ExecOptions::default();
    let (from_text, _) = execute(&db, &parsed, &opts).expect("parsed plan runs");
    let (from_code, _) = execute(&db, &q01::x100_plan(), &opts).expect("programmatic plan runs");
    assert_eq!(from_text.row_strings(), from_code.row_strings());
    assert_eq!(from_text.num_rows(), 4);
    // And both agree with the hard-coded UDF.
    let reference = tpch::run_hardcoded_q1(&li, q01::q1_hi_date());
    let got = q01::rows_from_x100(&from_text);
    for (a, b) in got.iter().zip(reference.iter()) {
        assert_eq!(a.count_order, b.count_order);
        assert!((a.sum_charge - b.sum_charge).abs() < 1e-6 * b.sum_charge.abs());
    }
}

#[test]
fn parsed_plans_run_on_mil_interpreter_too() {
    let li = generate_lineitem_q1(&GenConfig {
        sf: 0.001,
        seed: 10,
    });
    let db = tpch::build_x100_q1_db(&li);
    let parsed = parse_plan(FIG9_Q1).expect("parses");
    let (x100, _) = execute(&db, &parsed, &ExecOptions::default()).expect("x100");
    let (mil, _) = tpch::milql::run_plan(&db, &parsed).expect("mil");
    assert_eq!(mil.row_strings(), x100.row_strings());
}

/// Every TPC-H plan survives render → parse unchanged and answers as
/// before, both phases of the two-phase queries included. The plans
/// carry no physical hint, so nothing is lost on the way.
#[test]
fn every_tpch_plan_roundtrips() {
    let data = tpch::gen::generate(&GenConfig {
        sf: 0.002,
        seed: 31,
    });
    let db = tpch::build_x100_db(&data);
    let opts = ExecOptions::default();
    let mut plans = Vec::new();
    for (q, spec) in tpch::queries::all_specs() {
        match spec {
            QuerySpec::Single(p) => plans.push((format!("q{q}"), p)),
            QuerySpec::TwoPhase(tp) => {
                let (r1, _) = execute(&db, &tp.phase1, &opts).expect("phase 1");
                let scalar = r1.column_by_name(tp.scalar_col).as_f64()[0];
                plans.push((format!("q{q} phase 2"), (tp.phase2)(scalar)));
                plans.push((format!("q{q} phase 1"), tp.phase1));
            }
        }
    }
    let mut checked = 0;
    for (what, plan) in &plans {
        let text = render_plan(plan);
        let back = parse_plan(&text).unwrap_or_else(|e| panic!("{what}: {e}\n{text}"));
        assert!(
            back == *plan,
            "{what}: the round trip changed the plan\n{text}"
        );
        let (want, _) = execute(&db, plan, &opts).expect("plan runs");
        let (got, _) = execute(&db, &back, &opts).expect("parsed plan runs");
        assert_eq!(got.row_strings(), want.row_strings(), "{what}");
        checked += 1;
    }
    assert_eq!(checked, 25, "22 queries, three of them in two phases");
}
