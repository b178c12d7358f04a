//! The names later issues cite: workloads, end-to-end metrics with
//! their bounds, per-layer metrics. `BENCHMARK.json` repeats this
//! table; a unit test holds the two together.

pub struct WorkloadName {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: &[WorkloadName] = &[
    WorkloadName {
        name: "tpch_power",
        why: "all 22 TPC-H queries (paper Table 4): joins, fetch-joins, hash aggregation, ordering and per-query check/bind overhead do the work; scan primitives are a small share",
    },
    WorkloadName {
        name: "scan_aggr",
        why: "Q1, Q6 and a 28K-group hash aggregation over a raw 1.5M-row lineitem (paper Tables 1/5): vector primitives and Aggr dominate; no decode, no joins, one thread",
    },
    WorkloadName {
        name: "scan_compressed",
        why: "the same three ops over the same rows after Table::checkpoint(): adds only chunk decode and encoded-space selection, so the gap to scan_aggr is the codec's read cost",
    },
    WorkloadName {
        name: "scan_aggr_t2",
        why: "scan_aggr on two threads: the morsel driver, pipeline clones and MergeAggr; same primitives, so a driver change moves this workload alone",
    },
    WorkloadName {
        name: "write_path",
        why: "insert, delete, query over deltas, reorganize, checkpoint, durable checkpoint, reopen, query: storage and the codecs the other way round (encode, write, validate)",
    },
];

/// Every end-to-end metric is lower-is-better.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        bound: 0.20,
    },
    EndToEnd {
        name: "pass_ms_quiet",
        unit: "ms",
        bound: 0.15,
    },
    EndToEnd {
        name: "op_ms_geomean",
        unit: "ms",
        bound: 0.15,
    },
    EndToEnd {
        name: "cpu_ms_per_pass",
        unit: "ms",
        bound: 0.15,
    },
    EndToEnd {
        name: "pass_heap_peak_mb",
        unit: "MB",
        bound: 0.02,
    },
    EndToEnd {
        name: "stored_bytes_per_user_byte",
        unit: "ratio",
        bound: 0.01,
    },
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lo(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn hi(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
    }
}

/// Grouped by layer, in the order README.md explains them. A metric
/// that does not apply to a workload reads 0 there.
pub const PER_LAYER: &[PerLayer] = &[
    // the whole pass as the machine's neighbours let it run
    lo("pass_ms_p50", "ms"),
    lo("pass_ms_p90", "ms"),
    // tpch (gen, db)
    lo("tpch.gen_s", "s"),
    lo("tpch.build_db_s", "s"),
    // engine::check + facts, plan/compile
    lo("engine.check_ms_per_pass", "ms"),
    lo("engine.bind_ms_per_pass", "ms"),
    lo("engine.run_ms_per_pass", "ms"),
    lo("engine.plan_overhead_frac", "ratio"),
    // engine::ops, Profiler operator self times per pass
    lo("ops.scan_ms", "ms"),
    lo("ops.scan_delta_ms", "ms"),
    lo("ops.compressed_scan_select_ms", "ms"),
    lo("ops.select_ms", "ms"),
    lo("ops.project_ms", "ms"),
    lo("ops.fetch1join_ms", "ms"),
    lo("ops.fetchnjoin_ms", "ms"),
    lo("ops.hashjoin_build_ms", "ms"),
    lo("ops.hashjoin_probe_ms", "ms"),
    lo("ops.aggr_direct_ms", "ms"),
    lo("ops.aggr_hash_ms", "ms"),
    lo("ops.aggr_ordered_ms", "ms"),
    lo("ops.order_ms", "ms"),
    lo("ops.merge_aggr_ms", "ms"),
    // engine::ops counters per pass
    lo("ops.scan_bytes_raw", "bytes"),
    lo("ops.scan_bytes_compressed", "bytes"),
    hi("ops.pushdown_vectors", "count"),
    hi("ops.decode_skipped_values", "count"),
    hi("ops.fetch_unchecked_dispatches", "count"),
    hi("ops.join_bloom_reject_frac", "ratio"),
    lo("ops.decode_recoveries", "count"),
    // engine::ops::parallel
    hi("parallel.speedup_t2", "ratio"),
    lo("parallel.worker_wall_skew", "ratio"),
    lo("parallel.cpu_over_wall", "ratio"),
    lo("parallel.overhead_us_per_morsel", "us"),
    // engine::govern, engine::spill
    lo("govern.mem_peak_bytes", "bytes"),
    lo("spill.hashagg_slowdown", "ratio"),
    lo("spill.bytes_written", "bytes"),
    lo("spill.runs", "count"),
    lo("spill.merge_passes", "count"),
    // engine::profile and the benchmark's own spans
    lo("profile.overhead_frac", "ratio"),
    lo("trace.overhead_frac", "ratio"),
    // x100-vector primitives
    lo("prims.aggr_sum_f64_ns_per_tuple", "ns"),
    lo("prims.aggr_count_ns_per_tuple", "ns"),
    lo("prims.select_cmp_ns_per_tuple", "ns"),
    lo("prims.map_arith_f64_ns_per_tuple", "ns"),
    lo("prims.map_fetch_ns_per_tuple", "ns"),
    lo("prims.map_hash_ns_per_tuple", "ns"),
    lo("prims.hashtable_maintain_ns_per_tuple", "ns"),
    lo("prims.bloom_test_ns_per_tuple", "ns"),
    lo("prims.decompress_pfor_ns_per_tuple", "ns"),
    lo("prims.decompress_pdict_ns_per_tuple", "ns"),
    lo("prims.cmp_encoded_ns_per_tuple", "ns"),
    lo("prims.decode_sel_ns_per_tuple", "ns"),
    hi("prims.top5_share", "ratio"),
    lo("engine.interp_overhead_frac", "ratio"),
    lo("vector.q1_over_hardcoded", "ratio"),
    hi("vector.q1_bw_frac", "ratio"),
    // storage::table + delta
    lo("storage.insert_us_per_row", "us"),
    lo("storage.delete_us_per_row", "us"),
    lo("storage.reorganize_ms", "ms"),
    lo("storage.query_deltas_ms", "ms"),
    // storage::compress
    hi("compress.encode_mb_per_s", "MB/s"),
    hi("compress.decode_mb_per_s", "MB/s"),
    lo("compress.ratio", "ratio"),
    lo("compress.codec_sweeps", "count"),
    // storage::durable
    hi("durable.write_mb_per_s", "MB/s"),
    lo("durable.bytes_written_per_user_byte", "ratio"),
    lo("durable.files_written", "count"),
    lo("durable.open_ms", "ms"),
    lo("durable.heals", "count"),
    // baselines, machine
    hi("baseline.mil_over_x100_geomean", "ratio"),
    lo("machine.calib_ms", "ms"),
    hi("machine.mem_bw_gb_s", "GB/s"),
    lo("machine.calib_drift_frac", "ratio"),
    lo("machine.disturbance_frac", "ratio"),
    hi("machine.clock_vs_ref", "ratio"),
    hi("machine.nproc", "count"),
];

pub fn is_workload(name: &str) -> bool {
    WORKLOADS.iter().any(|w| w.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use std::collections::BTreeSet;

    /// The object `BENCHMARK.json` must hold, built from the tables above.
    fn spec(run_seconds: u64) -> Json {
        Json::obj([
            (
                "command",
                Json::Arr(
                    [
                        "cargo",
                        "run",
                        "--release",
                        "--offline",
                        "--quiet",
                        "--manifest-path",
                        "benchmark/Cargo.toml",
                        "--",
                    ]
                    .into_iter()
                    .map(Json::str)
                    .collect(),
                ),
            ),
            ("paths", Json::Arr(vec![Json::str("benchmark")])),
            ("run_seconds", Json::Num(run_seconds as f64)),
            (
                "workloads",
                Json::Arr(
                    WORKLOADS
                        .iter()
                        .map(|w| {
                            Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))])
                        })
                        .collect(),
                ),
            ),
            (
                "end_to_end",
                Json::Arr(
                    END_TO_END
                        .iter()
                        .map(|m| {
                            Json::obj([
                                ("name", Json::str(m.name)),
                                ("unit", Json::str(m.unit)),
                                ("better", Json::str("lower")),
                                ("bound", Json::Num(m.bound)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "per_layer",
                Json::Arr(
                    PER_LAYER
                        .iter()
                        .map(|m| {
                            Json::obj([
                                ("name", Json::str(m.name)),
                                ("unit", Json::str(m.unit)),
                                ("better", Json::str(m.better.as_str())),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.as_bytes()[0].is_ascii_alphanumeric()
            && s.bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-'))
    }

    #[test]
    fn names_units_and_bounds_are_within_the_contract() {
        let mut seen = BTreeSet::new();
        for w in WORKLOADS {
            assert!(valid_name(w.name) && seen.insert(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in END_TO_END {
            assert!(valid_name(m.name) && seen.insert(m.name), "{}", m.name);
            assert!(valid_unit(m.unit), "{}", m.unit);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        for m in PER_LAYER {
            assert!(valid_name(m.name) && seen.insert(m.name), "{}", m.name);
            assert!(valid_unit(m.unit), "{}", m.unit);
        }
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert_eq!(setup.unit, "s");
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    #[test]
    fn benchmark_json_repeats_this_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let file = Json::parse(&text).expect("BENCHMARK.json parses");
        let want = spec(crate::DEFAULT_SECONDS as u64);
        assert_eq!(file, want, "BENCHMARK.json should read:\n{}", want.render());
    }
}
