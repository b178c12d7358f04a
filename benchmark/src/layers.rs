//! Per-layer metrics of a traced run, from the benchmark's spans, the
//! engine's `Profiler` and the three interleaved pass modes.

use crate::harness::{Mode, PassInfo, ProfileAcc};
use crate::machine::{self, Calibration};
use crate::names::PER_LAYER;
use crate::run::Samples;
use crate::stats::{median, percentile, quiet};
use crate::trace::Span;
use crate::workloads::SetupParts;
use std::collections::BTreeMap;

pub struct LayerInputs<'a> {
    /// Spans of the measured window (warm-up excluded).
    pub spans: &'a [Span],
    /// Every pass of the process, by pass id.
    pub passes: &'a [PassInfo],
    /// One entry per profiled pass of the window, at the reference pace.
    pub profiles: &'a [ProfileAcc],
    /// Samples of the window, in the order of [`crate::harness::MODES`].
    pub by_mode: &'a [Samples],
    pub setup: SetupParts,
    pub before: &'a Calibration,
    pub after: &'a Calibration,
    /// What the workload measured itself.
    pub extra: &'a [(&'static str, f64)],
}

/// `Profiler` operator names behind each `ops.*_ms` metric.
const OPERATORS: &[(&str, &[&str])] = &[
    ("ops.scan_ms", &["Scan"]),
    ("ops.scan_delta_ms", &["Scan(delta)"]),
    ("ops.compressed_scan_select_ms", &["CompressedScanSelect"]),
    ("ops.select_ms", &["Select"]),
    ("ops.project_ms", &["Project"]),
    ("ops.fetch1join_ms", &["Fetch1Join", "Fetch1Join(ENUM)"]),
    ("ops.fetchnjoin_ms", &["FetchNJoin"]),
    (
        "ops.hashjoin_build_ms",
        &["HashJoin(build)", "HashJoin(partition)"],
    ),
    ("ops.hashjoin_probe_ms", &["HashJoin(probe)"]),
    ("ops.aggr_direct_ms", &["Aggr(DIRECT)"]),
    ("ops.aggr_hash_ms", &["Aggr(HASH)"]),
    ("ops.aggr_ordered_ms", &["Aggr(ORDERED)"]),
    ("ops.order_ms", &["Order"]),
    ("ops.merge_aggr_ms", &["MergeAggr"]),
];

/// `Profiler` counters reported per pass under an `ops.*` name.
const COUNTERS: &[(&str, &str)] = &[
    ("ops.scan_bytes_raw", "scan_bytes_raw"),
    ("ops.scan_bytes_compressed", "scan_bytes_compressed"),
    ("ops.pushdown_vectors", "pushdown_vectors"),
    ("ops.decode_skipped_values", "decode_skipped_values"),
    (
        "ops.fetch_unchecked_dispatches",
        "fetch_unchecked_dispatches",
    ),
    ("ops.decode_recoveries", "decode_recoveries"),
];

/// Primitive families by signature prefix; no signature starts with
/// the prefixes of two.
const PRIMITIVES: &[(&str, &[&str])] = &[
    ("prims.aggr_sum_f64_ns_per_tuple", &["aggr_sum_f64"]),
    ("prims.aggr_count_ns_per_tuple", &["aggr_count"]),
    ("prims.cmp_encoded_ns_per_tuple", &["cmp_pfor", "cmp_pdict"]),
    ("prims.decode_sel_ns_per_tuple", &["decode_sel_"]),
    ("prims.decompress_pfor_ns_per_tuple", &["decompress_pfor"]),
    ("prims.decompress_pdict_ns_per_tuple", &["decompress_pdict"]),
    (
        "prims.select_cmp_ns_per_tuple",
        &[
            "select_lt_",
            "select_le_",
            "select_gt_",
            "select_ge_",
            "select_eq_",
            "select_ne_",
        ],
    ),
    (
        "prims.map_arith_f64_ns_per_tuple",
        &[
            "map_add_f64",
            "map_sub_f64",
            "map_mul_f64",
            "map_div_f64",
            "map_fused_",
        ],
    ),
    ("prims.map_fetch_ns_per_tuple", &["map_fetch_"]),
    ("prims.map_hash_ns_per_tuple", &["map_hash_", "map_rehash_"]),
    (
        "prims.hashtable_maintain_ns_per_tuple",
        &["aggr_hashtable_maintain"],
    ),
    ("prims.bloom_test_ns_per_tuple", &["bloom_test"]),
];

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Every per-layer metric, in the order of [`PER_LAYER`]; what does not
/// apply to the workload reads 0. Times are taken the way the
/// end-to-end ones are: per pass, then the quiet percentile over the
/// passes of the mode that observed them.
pub fn per_layer(inp: &LayerInputs<'_>) -> Vec<f64> {
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    let samples = |mode: Mode| &inp.by_mode[mode as usize];
    let plain = samples(Mode::Plain);

    m.insert("pass_ms_p50", median(&plain.pass_raw_ms));
    m.insert(
        "pass_ms_p90",
        percentile(&plain.pass_raw_ms, 90.0).unwrap_or(0.0),
    );
    m.insert("machine.clock_vs_ref", median(&plain.pass_clock_scale));
    // Both sides at the reference pace: the clock is not a disturbance.
    let pass_ms: Vec<f64> = plain
        .pass_raw_ms
        .iter()
        .zip(&plain.pass_clock_scale)
        .map(|(ms, scale)| ms * scale)
        .collect();
    m.insert(
        "machine.disturbance_frac",
        ratio(median(&pass_ms), plain.pass_quiet_ms()) - 1.0,
    );
    m.insert("tpch.gen_s", inp.setup.gen_s);
    m.insert("tpch.build_db_s", inp.setup.build_s);
    m.insert(
        "baseline.mil_over_x100_geomean",
        inp.setup.mil_over_x100_geomean,
    );

    // Span milliseconds, at the reference pace, per (mode of the pass,
    // span name, pass).
    let mut span_ms: BTreeMap<(usize, &str), BTreeMap<u32, f64>> = BTreeMap::new();
    for s in inp.spans {
        let pass = inp.passes[s.pass as usize];
        *span_ms
            .entry((pass.mode as usize, s.name))
            .or_default()
            .entry(s.pass)
            .or_default() += (s.end_ns - s.start_ns) as f64 / 1e6 * pass.clock_scale;
    }
    let span_quiet_ms = |mode: Mode, name: &str| {
        span_ms.get(&(mode as usize, name)).map_or(0.0, |per_pass| {
            quiet(&per_pass.values().copied().collect::<Vec<_>>())
        })
    };
    let check = span_quiet_ms(Mode::Spans, "check");
    let bind = span_quiet_ms(Mode::Spans, "bind");
    // On more than one thread the whole of `execute` is the run span.
    let run = span_quiet_ms(Mode::Spans, "run") + span_quiet_ms(Mode::Spans, "execute");
    m.insert("engine.check_ms_per_pass", check);
    m.insert("engine.bind_ms_per_pass", bind);
    m.insert("engine.run_ms_per_pass", run);
    m.insert(
        "engine.plan_overhead_frac",
        ratio(check + bind, check + bind + run),
    );

    // Of a quantity every profiled pass has, the quiet value.
    let over_profiles =
        |f: &dyn Fn(&ProfileAcc) -> f64| quiet(&inp.profiles.iter().map(f).collect::<Vec<_>>());
    for (metric, names) in OPERATORS {
        let ms = |p: &ProfileAcc| names.iter().filter_map(|n| p.ops.get(*n)).sum::<f64>() / 1e6;
        m.insert(metric, over_profiles(&ms));
    }
    // Counters do not depend on the machine; any pass has them.
    let last = inp.profiles.last();
    let counter = |name: &str| last.map_or(0.0, |p| p.counter(name));
    for (metric, name) in COUNTERS {
        m.insert(metric, counter(name));
    }
    m.insert(
        "ops.join_bloom_reject_frac",
        ratio(counter("join_bloom_rejected"), counter("join_bloom_tested")),
    );
    m.insert(
        "govern.mem_peak_bytes",
        inp.profiles.iter().map(|p| p.mem_peak).max().unwrap_or(0) as f64,
    );

    for (metric, prefixes) in PRIMITIVES {
        let ns_per_tuple = |p: &ProfileAcc| {
            let (ns, tuples) = p
                .prims
                .iter()
                .filter(|(sig, _)| prefixes.iter().any(|pre| sig.starts_with(pre)))
                .fold((0.0, 0.0), |acc, (_, &(ns, tuples))| {
                    (acc.0 + ns, acc.1 + tuples)
                });
            ratio(ns, tuples)
        };
        m.insert(metric, over_profiles(&ns_per_tuple));
    }
    let prim_ns = |p: &ProfileAcc| p.prims.values().map(|&(ns, _)| ns).sum::<f64>();
    let top5_share = |p: &ProfileAcc| {
        let mut ns: Vec<f64> = p.prims.values().map(|&(ns, _)| ns).collect();
        ns.sort_by(|a, b| b.total_cmp(a));
        ratio(ns.iter().take(5).sum(), prim_ns(p))
    };
    m.insert("prims.top5_share", over_profiles(&top5_share));
    // Time of the run not spent inside a primitive. The profiler sums
    // primitive time over workers, so on a parallel run it is set
    // against operator time, summed the same way, not against wall time.
    let run_profiled = if span_ms.contains_key(&(Mode::Profiled as usize, "run")) {
        span_quiet_ms(Mode::Profiled, "run")
    } else {
        over_profiles(&|p: &ProfileAcc| p.ops.values().sum::<f64>() / 1e6)
    };
    if run_profiled > 0.0 {
        m.insert(
            "engine.interp_overhead_frac",
            1.0 - over_profiles(&|p: &ProfileAcc| prim_ns(p) / 1e6) / run_profiled,
        );
    }

    let pass_quiet = |mode: Mode| samples(mode).pass_quiet_ms();
    m.insert(
        "trace.overhead_frac",
        ratio(pass_quiet(Mode::Spans), pass_quiet(Mode::Plain)) - 1.0,
    );
    m.insert(
        "profile.overhead_frac",
        ratio(pass_quiet(Mode::Profiled), pass_quiet(Mode::Spans)) - 1.0,
    );
    m.insert(
        "parallel.cpu_over_wall",
        ratio(plain.pass_quiet_cpu_ms(), plain.pass_quiet_ms()),
    );

    m.insert("machine.calib_ms", inp.before.calib_ms);
    m.insert("machine.mem_bw_gb_s", inp.before.mem_bw_gb_s);
    m.insert(
        "machine.calib_drift_frac",
        machine::drift(inp.before, inp.after),
    );
    m.insert("machine.nproc", machine::nproc() as f64);

    for &(name, value) in inp.extra {
        m.insert(name, value);
    }
    debug_assert!(
        m.keys().all(|k| PER_LAYER.iter().any(|p| p.name == *k)),
        "a metric was computed under a name the table does not list"
    );
    PER_LAYER
        .iter()
        .map(|p| m.get(p.name).copied().unwrap_or(0.0))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_mapped_name_is_a_listed_metric() {
        let listed = |n: &str| PER_LAYER.iter().any(|p| p.name == n);
        for (name, _) in OPERATORS.iter().chain(PRIMITIVES) {
            assert!(listed(name), "{name}");
        }
        for (name, _) in COUNTERS {
            assert!(listed(name), "{name}");
        }
    }
}
