//! The repository's benchmark: five workloads, seven end-to-end metrics,
//! a per-layer trace. It measures every layer from outside — by timing
//! the calls it makes into `tpch`, `x100_storage` and `x100_engine` and
//! by reading the `Profiler` the engine already returns — and adds no
//! code to the program. See README.md in this directory.

mod alloc;
mod answer;
mod compare;
mod harness;
mod json;
mod layers;
mod machine;
mod names;
mod run;
mod stats;
mod trace;
mod workloads;

use json::Json;
use names::{END_TO_END, PER_LAYER, WORKLOADS};
use run::{RunConfig, RunOutput};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use workloads::Scale;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// Length of the measured window when `--seconds` is not given; the
/// same as `run_seconds` in `BENCHMARK.json`.
pub const DEFAULT_SECONDS: f64 = 15.0;
/// `--smoke` must finish within this many seconds.
const SMOKE_LIMIT_S: f64 = 15.0;

const USAGE: &str = "usage:
  x100-benchmark --workload <name> [--seconds 15] [--seed 1] [--trace 0|1] [--out benchmark/out]
  x100-benchmark --smoke [--out DIR]
  x100-benchmark --compare <dirA> <dirB>
workloads: tpch_power scan_aggr scan_compressed scan_aggr_t2 write_path";

enum Command {
    Run(RunConfig),
    Smoke { out: PathBuf },
    Compare { a: PathBuf, b: PathBuf },
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Command, String> {
    let mut args = args.into_iter();
    let mut workload = None;
    let mut seconds = DEFAULT_SECONDS;
    let mut seed = 1u64;
    let mut trace = false;
    let mut out = PathBuf::from("benchmark/out");
    let mut smoke = false;
    let mut compare = None;
    while let Some(flag) = args.next() {
        let mut value = |what: &str| args.next().ok_or_else(|| format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => workload = Some(value("a workload name")?),
            "--seconds" => {
                let v = value("a number of seconds")?;
                seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0 && *s <= 3600.0)
                    .ok_or_else(|| {
                        format!("--seconds {v}: not a number of seconds in (0, 3600]")
                    })?;
            }
            "--seed" => {
                let v = value("a whole number")?;
                seed = v
                    .parse()
                    .map_err(|_| format!("--seed {v}: not a whole number"))?;
            }
            "--trace" => {
                trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace {v}: want 0 or 1")),
                }
            }
            "--out" => out = PathBuf::from(value("a directory")?),
            "--smoke" => smoke = true,
            "--compare" => {
                compare = Some((
                    PathBuf::from(value("two directories")?),
                    PathBuf::from(value("two directories")?),
                ))
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if let Some((a, b)) = compare {
        return Ok(Command::Compare { a, b });
    }
    if smoke {
        return Ok(Command::Smoke { out });
    }
    let workload = workload.ok_or("--workload is required")?;
    if !names::is_workload(&workload) {
        return Err(format!("unknown workload `{workload}`"));
    }
    Ok(Command::Run(RunConfig::full(
        workload, seed, seconds, trace, out,
    )))
}

/// Every metric by name with its value, unit and, for the end-to-end
/// ones, sample count and bound; then the counts; then the result line.
fn print_run(cfg: &RunConfig, output: &RunOutput) {
    let flag = |key: &str| {
        output
            .report
            .get(key)
            .and_then(Json::as_bool)
            .unwrap_or(false)
    };
    let number = |key: &str| output.report.get(key).and_then(Json::as_f64).unwrap_or(0.0);
    println!(
        "workload {} seed {} trace {} window {:.1} s passes {} nproc {} degraded {} disturbed {}",
        cfg.workload,
        cfg.seed,
        cfg.trace as u8,
        number("window_s"),
        number("passes"),
        number("nproc"),
        flag("degraded"),
        flag("disturbed"),
    );
    if let Some(w) = WORKLOADS.iter().find(|w| w.name == cfg.workload) {
        println!("why: {}", w.why);
    }
    println!(
        "{:<40} {:>16} {:<6} {:<6} {:>7} {:>6}",
        "metric", "value", "unit", "better", "samples", "bound"
    );
    for m in &output.metrics {
        // Every end-to-end metric is lower-is-better.
        let better = PER_LAYER
            .iter()
            .find(|p| p.name == m.name)
            .map_or("lower", |p| p.better.as_str());
        let detail = output.report.get("metrics").and_then(|all| all.get(m.name));
        let field = |key: &str| {
            detail
                .and_then(|d| d.get(key))
                .and_then(Json::as_f64)
                .map_or(String::new(), |v| v.to_string())
        };
        println!(
            "{:<40} {:>16.6} {:<6} {:<6} {:>7} {:>6}",
            m.name,
            m.value,
            m.unit,
            better,
            field("samples"),
            field("bound"),
        );
    }
    if let Some(Json::Obj(ops)) = output.report.get("ops") {
        for (name, op) in ops {
            let get = |key: &str| op.get(key).and_then(Json::as_f64).unwrap_or(0.0);
            println!(
                "op {:<20} quiet {:>10.4} ms  p50 {:>10.4} ms  p90 {:>10.4} ms  samples {}",
                name,
                get("quiet_ms"),
                get("p50_ms"),
                get("p90_ms"),
                get("samples")
            );
        }
    }
    println!("attempted {} failed {}", output.attempted, output.failed);
    if let Some(why) = output.report.get("first_failure").and_then(Json::as_str) {
        println!("first_failure {why}");
    }
    println!("{}", output.result_line());
}

/// All five workloads, untraced and traced, at small scale: every
/// metric name is present and finite, and the result line parses.
fn smoke(out: PathBuf) -> Result<(), String> {
    let t0 = Instant::now();
    for w in WORKLOADS {
        for trace in [false, true] {
            let cfg = RunConfig {
                scale: Scale::SMOKE,
                warmup_seconds: 0.0,
                warmup_passes: 2,
                setup_reps: 1,
                setup_seconds: 0.0,
                ..RunConfig::full(w.name.to_owned(), 1, 0.3, trace, out.clone())
            };
            let output = run::run(&cfg).map_err(|e| format!("{}: {e}", w.name))?;
            let context = format!("{} --trace {}", w.name, trace as u8);
            if !output.correct() {
                return Err(format!("{context}: {} ops failed", output.failed));
            }
            let line = Json::parse(&output.result_line()).map_err(|e| format!("{context}: {e}"))?;
            let metrics = line
                .get("metrics")
                .ok_or(format!("{context}: no metrics"))?;
            let expected: Vec<&str> = if trace {
                PER_LAYER.iter().map(|m| m.name).collect()
            } else {
                END_TO_END.iter().map(|m| m.name).collect()
            };
            let Json::Obj(fields) = metrics else {
                return Err(format!("{context}: metrics is not an object"));
            };
            if fields.len() != expected.len() {
                return Err(format!(
                    "{context}: {} metrics, expected {}",
                    fields.len(),
                    expected.len()
                ));
            }
            for name in expected {
                let valid = name
                    .bytes()
                    .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'));
                let value = metrics
                    .get(name)
                    .and_then(|m| m.get("value"))
                    .and_then(Json::as_f64);
                if !valid || value.is_none() {
                    return Err(format!(
                        "{context}: metric `{name}` is missing or not a number"
                    ));
                }
                if !trace && value.is_some_and(|v| v <= 0.0) {
                    return Err(format!(
                        "{context}: end-to-end metric `{name}` is not positive"
                    ));
                }
            }
            println!("smoke {context}: ok ({} ops)", output.attempted);
        }
    }
    let took = t0.elapsed().as_secs_f64();
    if took > SMOKE_LIMIT_S {
        return Err(format!("smoke took {took:.1} s, limit {SMOKE_LIMIT_S} s"));
    }
    println!("smoke OK in {took:.1} s");
    Ok(())
}

fn main() -> ExitCode {
    let command = match parse_args(std::env::args().skip(1)) {
        Ok(c) => c,
        Err(why) => {
            eprintln!("{why}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match command {
        Command::Run(cfg) => run::run(&cfg).map(|output| {
            print_run(&cfg, &output);
            output.correct()
        }),
        Command::Smoke { out } => smoke(out).map(|()| true),
        Command::Compare { a, b } => {
            compare::compare(&a, &b, "BENCHMARK.json".as_ref()).map(|(markdown, regressed)| {
                print!("{markdown}");
                !regressed
            })
        }
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(why) => {
            eprintln!("error: {why}");
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Command, String> {
        parse_args(args.iter().map(|s| (*s).to_owned()))
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let Ok(Command::Run(cfg)) = parse(&[
            "--workload",
            "write_path",
            "--seed",
            "7",
            "--seconds",
            "15",
            "--trace",
            "1",
        ]) else {
            panic!("expected a run");
        };
        assert_eq!(
            (cfg.workload.as_str(), cfg.seed, cfg.seconds, cfg.trace),
            ("write_path", 7, 15.0, true)
        );
        assert_eq!(cfg.setup_reps, 1);
    }

    #[test]
    fn bad_command_lines_are_refused() {
        for bad in [
            &["--workload", "nope"][..],
            &["--workload"],
            &["--seed", "x", "--workload", "scan_aggr"],
            &["--seconds", "0", "--workload", "scan_aggr"],
            &["--trace", "2", "--workload", "scan_aggr"],
            &["--compare", "a"],
            &["--frobnicate"],
            &[],
        ] {
            assert!(parse(bad).is_err(), "{bad:?}");
        }
    }
}
