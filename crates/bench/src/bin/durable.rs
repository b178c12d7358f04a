//! Kill-and-restart durability smoke (CI).
//!
//! Three phases driven by `--phase`, sharing one checkpoint directory:
//!
//! * `seed`   — generate the Q1 lineitem columns, checkpoint them
//!   durably, reopen from disk, run TPC-H Q1 and write the rows to
//!   `<dir>/q1-baseline.txt`.
//! * `churn`  — re-checkpoint the same data in a loop, every durable
//!   write site failing at `--rate`. CI SIGKILLs this mid-commit: whatever
//!   instant the process dies at, the directory must keep a fully
//!   readable checkpoint.
//! * `verify` — after the kill: recover with `Table::open`, run Q1
//!   again, and byte-compare against the baseline. Exits non-zero on
//!   any difference.
//!
//! Usage: `durable --phase seed|churn|verify --dir PATH [--sf 0.01]
//!                 [--rate 0.05] [--iters 0]` (`--iters 0` = unbounded)

use tpch::gen::{generate_lineitem_q1, GenConfig};
use tpch::queries::{all_specs, QuerySpec};
use x100_bench::{arg_f64, arg_sf, arg_usize};
use x100_engine::session::{execute, Database, ExecOptions};
use x100_storage::{DurableOptions, FaultPlan, FaultState, Table};

fn arg_str(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn q1_plan() -> x100_engine::plan::Plan {
    match all_specs().into_iter().find(|(q, _)| *q == 1) {
        Some((_, QuerySpec::Single(p))) => p,
        _ => unreachable!("Q1 is a single-phase spec"),
    }
}

fn q1_rows(t: Table) -> Vec<String> {
    let mut db = Database::new();
    db.register(t);
    let (res, _) = execute(&db, &q1_plan(), &ExecOptions::default()).expect("Q1 runs");
    res.row_strings()
}

fn lineitem(sf: f64) -> Table {
    tpch::db::build_lineitem(&generate_lineitem_q1(&GenConfig::new(sf)))
}

fn main() {
    let phase = arg_str("--phase").expect("--phase seed|churn|verify");
    let dir = std::path::PathBuf::from(arg_str("--dir").expect("--dir PATH"));
    let sf = arg_sf(0.01);
    let baseline = dir.join("q1-baseline.txt");

    match phase.as_str() {
        "seed" => {
            let mut t = lineitem(sf);
            let verdicts = t
                .checkpoint_durable(&dir, &DurableOptions::default())
                .expect("seed checkpoint");
            println!("seeded {} columns into {}", verdicts.len(), dir.display());
            let rows = q1_rows(Table::open(&dir).expect("reopen seed"));
            std::fs::write(&baseline, rows.join("\n")).expect("write baseline");
            println!("baseline: {} Q1 rows", rows.len());
        }
        "churn" => {
            let rate = arg_f64("--rate", 0.05);
            let iters = arg_usize("--iters", 0);
            let data = generate_lineitem_q1(&GenConfig::new(sf));
            let mut i = 0usize;
            loop {
                // Fresh table per round: the checkpoint recompresses and
                // rewrites every segment, giving the kill plenty of
                // in-flight writes to land in.
                let mut t = tpch::db::build_lineitem(&data);
                let fault = FaultState::new(FaultPlan::default().durable_rates(rate));
                match t.try_checkpoint_durable(&dir, &DurableOptions::default(), Some(&fault)) {
                    Ok(_) => {
                        let v = t.durable_source().map(|s| s.version()).unwrap_or(0);
                        println!("churn {i}: committed v{v} ({} faults)", fault.injected());
                    }
                    // A retry budget exhausted mid-commit aborts this
                    // version; the previous one must stay readable.
                    Err(e) => println!("churn {i}: aborted ({e})"),
                }
                i += 1;
                if iters != 0 && i >= iters {
                    break;
                }
            }
        }
        "verify" => {
            let rec = Table::open(&dir).expect("recovery after kill");
            let heals = rec.durable_source().map(|s| s.heals()).unwrap_or(0);
            let rows = q1_rows(rec);
            let want = std::fs::read_to_string(&baseline).expect("baseline present");
            if rows.join("\n") != want {
                eprintln!("verify: Q1 rows differ from the pre-kill baseline");
                std::process::exit(1);
            }
            println!(
                "verify: Q1 byte-identical after restart ({} rows, {heals} heals)",
                rows.len()
            );
        }
        other => {
            eprintln!("unknown --phase {other} (want seed|churn|verify)");
            std::process::exit(2);
        }
    }
}
