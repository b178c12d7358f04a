//! # x100-bench — harness regenerating every table and figure
//!
//! One binary per experiment (see `src/bin/`):
//!
//! | binary   | paper artifact |
//! |----------|----------------|
//! | `table1` | Table 1 — Q1 time per engine |
//! | `table2` | Table 2 — tuple-at-a-time routine trace |
//! | `table3` | Table 3 — MIL statement trace, big vs cache-resident SF |
//! | `table4` | Table 4 — TPC-H suite, MIL vs X100 |
//! | `table5` | Table 5 — X100 per-primitive trace |
//! | `fig2`   | Figure 2 — branch vs predicated selection |
//! | `fig10`  | Figure 10 — Q1 time vs vector size |
//! | `durable` | beyond the paper — kill-and-restart durability smoke |
//! | `suite_check` | all 22 TPC-H queries once; `--explain-check` / `--explain-facts` / `--pending-inserts` |
//! | `deltas` | beyond the paper — the 22 queries raw vs over one pending insert / delete per table |
//!
//! plus Criterion micro-benchmarks (`benches/`) covering primitives and
//! the ablations called out in `DESIGN.md`.

use std::time::{Duration, Instant};

/// Parse `--sf <f64>` from argv, with a default.
pub fn arg_sf(default: f64) -> f64 {
    arg_f64("--sf", default)
}

/// Parse a named f64 argument.
pub fn arg_f64(name: &str, default: f64) -> f64 {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Parse a named usize argument.
pub fn arg_usize(name: &str, default: usize) -> usize {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Run `f` `reps` times, returning the best wall-clock duration and the
/// last result (best-of-N suppresses warmup and scheduler noise).
pub fn time_best_of<T>(reps: usize, mut f: impl FnMut() -> T) -> (Duration, T) {
    assert!(reps > 0);
    let mut best = Duration::MAX;
    let mut out = None;
    for _ in 0..reps {
        let t0 = Instant::now();
        let r = f();
        let dt = t0.elapsed();
        if dt < best {
            best = dt;
        }
        out = Some(r);
    }
    (best, out.expect("reps > 0"))
}

/// Seconds as the paper prints them.
pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_best_of_returns_result() {
        let (d, v) = time_best_of(3, || 41 + 1);
        assert_eq!(v, 42);
        assert!(d.as_nanos() < 1_000_000);
    }

    #[test]
    fn arg_parsing_defaults() {
        assert_eq!(arg_sf(0.5), 0.5);
        assert_eq!(arg_usize("--none", 7), 7);
    }
}
