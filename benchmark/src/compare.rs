//! `--compare <dirA> <dirB>`: two sets of run outputs against the
//! bounds in `BENCHMARK.json`, judged the way the guides ask — medians
//! and quartiles per workload × metric, the gap between the medians,
//! and `unresolved` where the run-to-run spread is wider than the bound.

use crate::json::Json;
use crate::stats::quartiles;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    Within,
    Regressed,
    /// Spread of either side wider than the bound: no verdict.
    Unresolved,
    /// The metric or the workload is absent from one side.
    Missing,
}

impl Class {
    fn as_str(self) -> &'static str {
        match self {
            Class::Within => "within",
            Class::Regressed => "regressed",
            Class::Unresolved => "unresolved",
            Class::Missing => "missing",
        }
    }
}

/// The untraced runs of one directory: workload → metric → values, and
/// per workload the seeds of the runs whose calibration drifted.
#[derive(Debug, Default)]
struct RunSet {
    values: BTreeMap<String, BTreeMap<String, Vec<f64>>>,
    runs: BTreeMap<String, usize>,
    disturbed: BTreeMap<String, Vec<u64>>,
}

fn read_runs(dir: &Path) -> Result<RunSet, String> {
    let mut set = RunSet::default();
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("run-") && n.ends_with("-trace0.json"))
        })
        .collect();
    paths.sort();
    for path in paths {
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let run = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let workload = run
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{}: no workload", path.display()))?;
        if run.get("disturbed").and_then(Json::as_bool) == Some(true) {
            let seed = run.get("seed").and_then(Json::as_f64).unwrap_or(0.0) as u64;
            set.disturbed
                .entry(workload.to_owned())
                .or_default()
                .push(seed);
        }
        *set.runs.entry(workload.to_owned()).or_default() += 1;
        let Some(Json::Obj(metrics)) = run.get("metrics") else {
            return Err(format!("{}: no metrics", path.display()));
        };
        let per_metric = set.values.entry(workload.to_owned()).or_default();
        for (name, m) in metrics {
            if let Some(v) = m.get("value").and_then(Json::as_f64) {
                per_metric.entry(name.clone()).or_default().push(v);
            }
        }
    }
    Ok(set)
}

/// Median, quartiles and (q3 − q1) ÷ median of one side. A single run
/// has no spread to show.
fn summarize(values: &[f64]) -> Option<([f64; 3], f64)> {
    match values {
        [] => None,
        [one] => Some(([*one; 3], 0.0)),
        many => {
            let q = quartiles(many)?;
            Some((
                q,
                if q[1] != 0.0 {
                    (q[2] - q[0]) / q[1].abs()
                } else {
                    0.0
                },
            ))
        }
    }
}

/// Verdict for one lower-is-better metric.
pub fn classify(a: &[f64], b: &[f64], bound: f64) -> (Class, Option<f64>) {
    let (Some((qa, spread_a)), Some((qb, spread_b))) = (summarize(a), summarize(b)) else {
        return (Class::Missing, None);
    };
    let gap = if qa[1] != 0.0 {
        (qb[1] - qa[1]) / qa[1].abs()
    } else {
        0.0
    };
    let class = if spread_a.max(spread_b) > bound {
        Class::Unresolved
    } else if gap > bound {
        Class::Regressed
    } else {
        Class::Within
    };
    (class, Some(gap))
}

/// The comparison as Markdown, and whether anything regressed.
pub fn compare(dir_a: &Path, dir_b: &Path, spec_path: &Path) -> Result<(String, bool), String> {
    let spec_text =
        std::fs::read_to_string(spec_path).map_err(|e| format!("{}: {e}", spec_path.display()))?;
    let spec = Json::parse(&spec_text).map_err(|e| format!("{}: {e}", spec_path.display()))?;
    let names = |key: &str| -> Result<Vec<&Json>, String> {
        Ok(spec
            .get(key)
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("{}: no `{key}`", spec_path.display()))?
            .iter()
            .collect())
    };
    let a = read_runs(dir_a)?;
    let b = read_runs(dir_b)?;

    let mut md = String::new();
    let mut regressed = false;
    // Per metric: worst |gap| and worst spread on any workload.
    let mut worst: BTreeMap<&str, (f64, f64)> = BTreeMap::new();
    writeln!(
        md,
        "A = `{}`, B = `{}`; gap = (median B − median A) ÷ median A, worse is positive;",
        dir_a.display(),
        dir_b.display()
    )
    .expect("write to String");
    writeln!(
        md,
        "spread = (q3 − q1) ÷ median as `statistics.quantiles(n=4)` gives them.\n"
    )
    .expect("write to String");
    writeln!(md, "| workload | metric | runs A/B | median A [q1, q3] | median B [q1, q3] | spread A / B | gap | bound | class |").expect("write to String");
    writeln!(md, "|---|---|---|---|---|---|---|---|---|").expect("write to String");
    for w in names("workloads")? {
        let workload = w.get("name").and_then(Json::as_str).unwrap_or("?");
        for m in names("end_to_end")? {
            let metric = m.get("name").and_then(Json::as_str).unwrap_or("?");
            let bound = m.get("bound").and_then(Json::as_f64).unwrap_or(0.0);
            let side = |set: &'_ RunSet| -> Vec<f64> {
                set.values
                    .get(workload)
                    .and_then(|ms| ms.get(metric))
                    .cloned()
                    .unwrap_or_default()
            };
            let (va, vb) = (side(&a), side(&b));
            let (class, gap) = classify(&va, &vb, bound);
            regressed |= class == Class::Regressed;
            let e = worst.entry(metric).or_default();
            e.0 = e.0.max(gap.map_or(0.0, f64::abs));
            for side in [&va, &vb] {
                e.1 = e.1.max(summarize(side).map_or(0.0, |(_, spread)| spread));
            }
            let cell = |v: &[f64]| match summarize(v) {
                Some((q, _)) => format!("{:.4} [{:.4}, {:.4}]", q[1], q[0], q[2]),
                None => "—".to_owned(),
            };
            let spread = |v: &[f64]| {
                summarize(v).map_or("—".to_owned(), |(_, s)| format!("{:.2}%", s * 100.0))
            };
            writeln!(
                md,
                "| {workload} | {metric} | {}/{} | {} | {} | {} / {} | {} | {:.0}% | {} |",
                va.len(),
                vb.len(),
                cell(&va),
                cell(&vb),
                spread(&va),
                spread(&vb),
                gap.map_or("—".to_owned(), |g| format!("{:+.2}%", g * 100.0)),
                bound * 100.0,
                class.as_str(),
            )
            .expect("write to String");
        }
    }
    writeln!(
        md,
        "\n| metric | worst \\|gap\\| on any workload | 2× that | worst spread | 3× that | bound |"
    )
    .expect("write to String");
    writeln!(md, "|---|---|---|---|---|---|").expect("write to String");
    for m in names("end_to_end")? {
        let metric = m.get("name").and_then(Json::as_str).unwrap_or("?");
        let bound = m.get("bound").and_then(Json::as_f64).unwrap_or(0.0);
        let (gap, spread) = worst.get(metric).copied().unwrap_or_default();
        writeln!(
            md,
            "| {metric} | {:.2}% | {:.2}% | {:.2}% | {:.2}% | {:.0}% |",
            gap * 100.0,
            gap * 200.0,
            spread * 100.0,
            spread * 300.0,
            bound * 100.0
        )
        .expect("write to String");
    }
    writeln!(md, "\nRuns marked `disturbed` (a calibration kernel moved by more than 5% between the start and the end of the run); they are pooled above and listed here:\n").expect("write to String");
    for (label, set) in [("A", &a), ("B", &b)] {
        for (workload, runs) in &set.runs {
            let seeds = set.disturbed.get(workload).cloned().unwrap_or_default();
            let list: Vec<String> = seeds.iter().map(u64::to_string).collect();
            writeln!(
                md,
                "- {label} `{workload}`: {} of {runs}{}",
                seeds.len(),
                if list.is_empty() {
                    String::new()
                } else {
                    format!(" (seeds {})", list.join(" "))
                },
            )
            .expect("write to String");
        }
    }
    Ok((md, regressed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classes_follow_gap_and_spread() {
        let steady = [100.0, 100.5, 101.0];
        assert_eq!(
            classify(&steady, &[101.0, 101.5, 102.0], 0.06).0,
            Class::Within
        );
        let (class, gap) = classify(&steady, &[110.0, 110.5, 111.0], 0.06);
        assert_eq!(class, Class::Regressed);
        assert!((gap.unwrap() - 0.0995).abs() < 1e-3);
        // A faster B is never a regression.
        assert_eq!(
            classify(&steady, &[80.0, 80.5, 81.0], 0.06).0,
            Class::Within
        );
        // Spread wider than the bound: no verdict either way.
        assert_eq!(
            classify(&[90.0, 100.0, 112.0], &[110.0, 110.5, 111.0], 0.06).0,
            Class::Unresolved
        );
        assert_eq!(classify(&steady, &[], 0.06).0, Class::Missing);
    }
}
