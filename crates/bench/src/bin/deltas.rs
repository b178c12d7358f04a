//! Pending deltas against raw tables (paper §4.3: immutable fragments
//! plus delta columns, merged now and then — a design that holds only if
//! a query over pending deltas costs about what it costs after the
//! merge).
//!
//! Runs the 22 TPC-H queries over three forms of one database: raw,
//! with one pending insert per table (a copy of its last row,
//! `tpch::db::pending_inserts`) and with one pending delete per table
//! (its last row, `tpch::db::pending_deletes`). Prints each query's
//! median time per form and its ratio to raw, then the sums over the
//! single-phase queries. The forms alternate within each repetition, so
//! they share the host's drift.
//!
//! Usage: `deltas [--sf 0.04] [--reps 15] [--warmup 3]`

use std::time::{Duration, Instant};
use tpch::db::{pending_deletes, pending_inserts};
use tpch::gen::{generate, GenConfig};
use tpch::queries::{all_specs, run_x100, QuerySpec};
use x100_bench::{arg_sf, arg_usize};
use x100_engine::session::{Database, ExecOptions};

fn median(mut xs: Vec<Duration>) -> f64 {
    xs.sort_unstable();
    xs[xs.len() / 2].as_secs_f64() * 1e3
}

fn main() {
    let sf = arg_sf(0.04);
    let reps = arg_usize("--reps", 15).max(1);
    let warmup = arg_usize("--warmup", 3);
    let data = generate(&GenConfig::new(sf));
    let raw = tpch::build_x100_db(&data);
    let (inserts, deletes) = (pending_inserts(&raw), pending_deletes(&raw));
    let forms = [raw, inserts, deletes];
    let opts = ExecOptions::default();
    println!("TPC-H over pending deltas (SF={sf}, ms, median of {reps} after {warmup} warm-ups)\n");
    println!(
        "{:>4} {:>10} {:>10} {:>7} {:>10} {:>7}",
        "Q", "raw", "inserts", "ratio", "deletes", "ratio"
    );
    let mut sums = [0.0f64; 3];
    for (q, spec) in all_specs() {
        let run = |db: &Database| run_x100(db, &spec, &opts).expect("runs").num_rows();
        for _ in 0..warmup {
            forms.iter().for_each(|db| {
                run(db);
            });
        }
        let mut times = vec![Vec::with_capacity(reps); forms.len()];
        for _ in 0..reps {
            for (k, db) in forms.iter().enumerate() {
                let t0 = Instant::now();
                run(db);
                times[k].push(t0.elapsed());
            }
        }
        let ms: Vec<f64> = times.into_iter().map(median).collect();
        if matches!(spec, QuerySpec::Single(_)) {
            sums.iter_mut().zip(&ms).for_each(|(s, m)| *s += m);
        }
        println!(
            "q{q:<3} {:>10.3} {:>10.3} {:>6.2}x {:>10.3} {:>6.2}x",
            ms[0],
            ms[1],
            ms[1] / ms[0],
            ms[2],
            ms[2] / ms[0]
        );
    }
    println!(
        "\nsingle-phase sum: raw {:.2} ms, inserts {:.2} ms ({:.2}x), deletes {:.2} ms ({:.2}x)",
        sums[0],
        sums[1],
        sums[1] / sums[0],
        sums[2],
        sums[2] / sums[0]
    );
}
