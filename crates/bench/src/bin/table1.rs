//! Table 1 — TPC-H Query 1 performance per engine.
//!
//! Reproduces the shape of the paper's Table 1: the tuple-at-a-time
//! interpreter is 1–2 orders of magnitude slower than MonetDB/X100;
//! MonetDB/MIL sits in between; the hard-coded UDF is the floor, with
//! X100 expected within a small factor of it.
//!
//! Usage: `table1 [--sf 0.05] [--reps 3]`

use tpch::gen::{generate_lineitem_q1, GenConfig};
use tpch::hardcoded::{collect_q1, tpch_query1, AggrT1};
use tpch::queries::q01;
use x100_bench::{arg_sf, arg_usize, secs, time_best_of};
use x100_engine::session::{execute, ExecOptions};

fn main() {
    let sf = arg_sf(0.05);
    let reps = arg_usize("--reps", 3);
    println!("TPC-H Query 1 Experiments (SF={sf}, best of {reps})\n");
    let li = generate_lineitem_q1(&GenConfig::new(sf));
    let hi = q01::q1_hi_date();
    println!("{:>10} lineitem tuples\n", li.len());

    let mut rows: Vec<(&str, f64, usize)> = Vec::new();

    // Tuple-at-a-time Volcano engine (the MySQL/DBMS "X" stand-in).
    let vt = tpch::build_volcano_lineitem(&li);
    let (d, (r, _)) = time_best_of(reps, || q01::volcano_q1(&vt, hi));
    rows.push(("volcano (tuple-at-a-time)", secs(d), r.len()));

    // MonetDB/MIL (column-at-a-time, full materialization).
    let bats = tpch::mil_bats(&li);
    let (d, (r, _)) = time_best_of(reps, || q01::mil_q1(&bats, hi));
    rows.push(("MonetDB/MIL", secs(d), r.len()));

    // MonetDB/X100 (vectorized in-cache execution).
    let db = tpch::build_x100_q1_db(&li);
    let plan = q01::x100_plan();
    let (d, r) = time_best_of(reps, || {
        let (res, _) = execute(&db, &plan, &ExecOptions::default()).expect("x100 q1");
        res
    });
    rows.push(("MonetDB/X100", secs(d), r.num_rows()));

    // Hard-coded UDF (Figure 4): the loop alone is timed, over columns
    // laid out as the UDF takes them and a table allocated up front —
    // what the other engines' load steps above also leave untimed.
    let first_byte = |v: &[String]| -> Vec<u8> { v.iter().map(|s| s.as_bytes()[0]).collect() };
    let (returnflag, linestatus) = (first_byte(&li.returnflag), first_byte(&li.linestatus));
    let mut slots = vec![AggrT1::default(); 65536];
    let (d, ()) = time_best_of(reps, || {
        slots.fill(AggrT1::default());
        tpch_query1(
            li.len(),
            hi,
            &returnflag,
            &linestatus,
            &li.quantity,
            &li.extendedprice,
            &li.discount,
            &li.tax,
            &li.shipdate,
            &mut slots,
        );
    });
    rows.push(("hard-coded", secs(d), collect_q1(&slots).len()));

    let x100_time = rows[2].1;
    println!(
        "{:<28} {:>10} {:>12} {:>10}",
        "engine", "time (s)", "sec/(SF=1)", "vs X100"
    );
    for (name, t, groups) in &rows {
        assert_eq!(*groups, 4, "{name} returned {groups} groups");
        println!(
            "{:<28} {:>10.4} {:>12.3} {:>9.1}x",
            name,
            t,
            t / sf,
            t / x100_time
        );
    }
    println!("\n(paper, AthlonMP @SF=1: MySQL 26.6s, DBMS \"X\" 28.1s, MIL 3.7s,");
    println!(" X100 0.50s, hard-coded 0.22s — expect the same ordering and");
    println!(" roughly the same ratios, not the same absolute numbers)");
}
