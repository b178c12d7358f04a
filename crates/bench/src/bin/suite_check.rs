//! Smoke-check: run every TPC-H query once (optionally profiled) and
//! print per-query wall time — quick health check of the whole stack.
//!
//! Usage: `suite_check [--sf 0.01] [--profile 1] [--explain-check 1]
//!                     [--explain-facts 1] [--pending-inserts 1]`
//!
//! With `--pending-inserts 1`, every table first gets a copy of its last
//! row pending as an insert (`tpch::db::pending_inserts`): the queries
//! then run, and are explained, over the insert deltas.
//!
//! With `--explain-check 1`, each query's bind-time verification walk
//! (`engine::check`) is rendered before it runs: one line per plan node
//! plus the program/instruction totals the verifier validated.
//!
//! With `--explain-facts 1`, the abstract-interpretation facts the same
//! walk inferred (`engine::facts`) are rendered instead: per node, each
//! output column's value range / distinct bound / sortedness, plus the
//! fetch-bound proofs and select-fold verdicts the binder will act on.

use std::time::Instant;
use tpch::gen::{generate, GenConfig};
use tpch::queries::{all_specs, QuerySpec};
use x100_bench::{arg_sf, arg_usize};
use x100_engine::session::{execute, ExecOptions};
use x100_engine::{explain_check, explain_facts};

fn main() {
    let sf = arg_sf(0.01);
    let profile = arg_usize("--profile", 0) != 0;
    let explain = arg_usize("--explain-check", 0) != 0;
    let facts = arg_usize("--explain-facts", 0) != 0;
    let pending = arg_usize("--pending-inserts", 0) != 0;
    let t0 = Instant::now();
    let data = generate(&GenConfig::new(sf));
    let mut db = tpch::build_x100_db(&data);
    if pending {
        db = tpch::db::pending_inserts(&db);
    }
    let deltas = if pending {
        ", one pending insert per table"
    } else {
        ""
    };
    println!("generate+load SF={sf}{deltas}: {:?}", t0.elapsed());
    let opts = if profile {
        ExecOptions::default().profiled()
    } else {
        ExecOptions::default()
    };
    let explain_plan = |q: u32, phase: &str, p: &x100_engine::plan::Plan| {
        if explain {
            println!("── q{q} plan check{phase} ──");
            print!("{}", explain_check(&db, p, &opts));
        }
        if facts {
            println!("── q{q} plan facts{phase} ──");
            print!("{}", explain_facts(&db, p, &opts));
        }
    };
    for (q, spec) in all_specs() {
        let t0 = Instant::now();
        let rows = match spec {
            QuerySpec::Single(p) => {
                explain_plan(q, "", &p);
                execute(&db, &p, &opts).expect("runs").0.num_rows()
            }
            QuerySpec::TwoPhase(tp) => {
                explain_plan(q, " (phase 1)", &tp.phase1);
                let (r1, _) = execute(&db, &tp.phase1, &opts).expect("phase 1");
                let scalar = r1
                    .value(0, r1.col_index(tp.scalar_col).expect("scalar"))
                    .as_f64();
                execute(&db, &(tp.phase2)(scalar), &opts)
                    .expect("phase 2")
                    .0
                    .num_rows()
            }
        };
        println!("q{q:<2} {:>10.2?}  ({rows} rows)", t0.elapsed());
    }
    println!("ALL OK");
}
