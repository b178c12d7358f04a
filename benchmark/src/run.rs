//! One run: set a workload up, warm it, drive whole passes in a closed
//! loop from one client for the measured window, and turn the samples
//! into the named metrics.

use crate::harness::{Mode, Pass, PassInfo, ProfileAcc, Tally, MODES};
use crate::json::Json;
use crate::layers::{self, LayerInputs};
use crate::machine::{self, Calibration};
use crate::names::{END_TO_END, PER_LAYER};
use crate::stats::{geomean, median, percentile, quiet};
use crate::trace::{self, Tracer};
use crate::workloads::{self, Scale, SetupParts, TracedView, Workload};
use crate::{alloc, names};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Calibration drift above this marks the run `disturbed`.
const DISTURBED_DRIFT: f64 = 0.05;

#[derive(Debug, Clone)]
pub struct RunConfig {
    pub workload: String,
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    pub trace: bool,
    pub out: PathBuf,
    pub scale: Scale,
    /// Warm-up lasts at least this long and at least this many passes.
    pub warmup_seconds: f64,
    pub warmup_passes: usize,
    /// Set-up is repeated at least this many times and for at least
    /// this long in total; `setup_s` is the median. A set-up of a tenth
    /// of a second needs more than three repeats to give a steady median.
    pub setup_reps: usize,
    pub setup_seconds: f64,
}

impl RunConfig {
    pub fn full(workload: String, seed: u64, seconds: f64, trace: bool, out: PathBuf) -> Self {
        RunConfig {
            workload,
            seed,
            seconds,
            trace,
            out,
            scale: Scale::FULL,
            warmup_seconds: 2.0,
            warmup_passes: 10,
            // The traced run reports no `setup_s`; one set-up is enough.
            setup_reps: if trace { 1 } else { 3 },
            setup_seconds: if trace { 0.0 } else { 2.5 },
        }
    }
}

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

pub struct RunOutput {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Everything about the run, as written to `run-*.json`.
    pub report: Json,
}

impl RunOutput {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The one line the driver reads.
    pub fn result_line(&self) -> String {
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "metrics",
                Json::Obj(
                    self.metrics
                        .iter()
                        .map(|m| {
                            (
                                m.name.to_owned(),
                                Json::obj([
                                    ("value", Json::Num(m.value)),
                                    ("unit", Json::str(m.unit)),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
        ])
        .render()
    }
}

/// Times of the passes of one mode.
#[derive(Debug, Default)]
pub struct Samples {
    /// Of each pass in which no op failed: the sum of the op wall times
    /// as measured, and the clock scale of the pass.
    pub pass_raw_ms: Vec<f64>,
    pub pass_clock_scale: Vec<f64>,
    /// Per op, the wall times of its successful runs at the reference
    /// pace of the clock.
    pub op_ms: Vec<Vec<f64>>,
    /// Per op, the process CPU times of the same runs, likewise.
    pub op_cpu_ms: Vec<Vec<f64>>,
    /// The most the ops of any pass added to the heap it began with,
    /// bytes.
    pub heap_added: usize,
    /// Passes driven, failed ones included.
    pub passes: usize,
}

impl Samples {
    fn new(ops: usize) -> Self {
        Samples {
            op_ms: vec![Vec::new(); ops],
            op_cpu_ms: vec![Vec::new(); ops],
            ..Default::default()
        }
    }

    /// Each op's time on an undisturbed machine.
    pub fn op_quiet_ms(&self) -> Vec<f64> {
        self.op_ms.iter().map(|ms| quiet(ms)).collect()
    }

    /// The pass on an undisturbed machine: every op at its quiet time.
    pub fn pass_quiet_ms(&self) -> f64 {
        self.op_quiet_ms().iter().sum()
    }

    pub fn pass_quiet_cpu_ms(&self) -> f64 {
        self.op_cpu_ms.iter().map(|ms| quiet(ms)).sum()
    }
}

struct Driver<'a> {
    workload: &'a mut dyn Workload,
    tracer: Tracer,
    /// One entry per profiled pass.
    profiles: Vec<ProfileAcc>,
    tally: &'a mut Tally,
    /// Every pass driven so far, by pass id.
    passes: Vec<PassInfo>,
}

impl Driver<'_> {
    fn pass(&mut self, mode: Mode, verify: bool, into: &mut Samples) {
        self.tracer
            .start_pass(self.passes.len() as u32, mode != Mode::Plain);
        let mut profile = ProfileAcc::default();
        let span = self.tracer.begin("pass");
        let mut pass = Pass::new(
            mode,
            verify,
            self.workload.ops(),
            &mut self.tracer,
            &mut profile,
            self.tally,
        );
        self.workload.pass(&mut pass);
        let (times, heap_added) = pass.finish();
        self.tracer.end(span);
        into.heap_added = into.heap_added.max(heap_added);
        into.passes += 1;
        let done: Vec<_> = times.iter().flatten().collect();
        let clock_scale = if done.is_empty() {
            1.0
        } else {
            done.iter().map(|t| t.clock_scale).sum::<f64>() / done.len() as f64
        };
        self.passes.push(PassInfo { mode, clock_scale });
        if mode == Mode::Profiled {
            profile.scale_times(clock_scale);
            self.profiles.push(profile);
        }
        if done.len() == times.len() {
            into.pass_raw_ms
                .push(done.iter().map(|t| t.raw_wall_ms).sum());
            into.pass_clock_scale.push(clock_scale);
        }
        for (i, t) in times.iter().enumerate() {
            if let Some(t) = t {
                into.op_ms[i].push(t.wall_ms);
                into.op_cpu_ms[i].push(t.cpu_ms);
            }
        }
    }
}

/// Run `cfg` and report. `Err` means the benchmark itself could not
/// run; a workload whose answers are wrong is an `Ok` with `failed > 0`.
pub fn run(cfg: &RunConfig) -> Result<RunOutput, String> {
    if !names::is_workload(&cfg.workload) {
        return Err(format!("unknown workload `{}`", cfg.workload));
    }
    std::fs::create_dir_all(&cfg.out).map_err(|e| format!("{}: {e}", cfg.out.display()))?;
    let out = cfg
        .out
        .canonicalize()
        .map_err(|e| format!("{}: {e}", cfg.out.display()))?;
    // Everything this process writes besides its results — durable
    // checkpoints, and the engine's spill runs, which follow TMPDIR —
    // lives in one directory of the benchmark's own, removed at the end.
    let scratch = out.join(format!("scratch-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
    std::env::set_var("TMPDIR", &scratch);
    let result = run_in(cfg, &out, &scratch);
    let removed = std::fs::remove_dir_all(&scratch);
    let output = result?;
    removed.map_err(|e| format!("{}: {e}", scratch.display()))?;
    Ok(output)
}

fn run_in(cfg: &RunConfig, out: &Path, scratch: &Path) -> Result<RunOutput, String> {
    let before = machine::calibrate(cfg.scale.calib_bytes);
    let mut tally = Tally::default();

    let mut setup_s = Vec::new();
    let mut parts = Vec::new();
    let mut built: Option<Box<dyn Workload>> = None;
    // Heap the workload keeps once set up. The heap metric is this plus
    // the most a pass adds, so that the benchmark's own growing sample
    // vectors stay out of it and the same seed gives the same number.
    let mut resident = 0;
    while setup_s.len() < cfg.setup_reps.max(1) || setup_s.iter().sum::<f64>() < cfg.setup_seconds {
        drop(built.take()); // free the previous copy before building the next
        let heap_before = alloc::live_bytes();
        let (w, timing) = machine::timed(|| {
            workloads::build(
                &cfg.workload,
                cfg.seed,
                &cfg.scale,
                scratch,
                cfg.trace,
                &mut tally,
            )
        });
        let w = w?;
        resident = alloc::live_bytes().saturating_sub(heap_before);
        setup_s.push(timing.wall_ms / 1e3);
        parts.push(w.setup_parts());
        built = Some(w);
    }
    let mut workload = built.expect("set-up ran at least once");
    let ops = workload.ops();
    let modes: &[Mode] = if cfg.trace { &MODES } else { &MODES[..1] };

    let mut driver = Driver {
        workload: workload.as_mut(),
        tracer: Tracer::new(),
        profiles: Vec::new(),
        tally: &mut tally,
        passes: Vec::new(),
    };

    // Warm-up: caches fill, the allocator reaches its steady state, and
    // the first pass checks every answer. Nothing of it is kept.
    let t0 = Instant::now();
    let mut warmup_passes = 0;
    while warmup_passes < cfg.warmup_passes.max(1)
        || t0.elapsed().as_secs_f64() < cfg.warmup_seconds
    {
        let mode = modes[warmup_passes % modes.len()];
        driver.pass(mode, warmup_passes == 0, &mut Samples::new(ops.len()));
        warmup_passes += 1;
    }
    driver.profiles.clear();
    let warmup_spans = driver.tracer.spans().len();

    // The measured window. Traced, the three modes take turns pass by
    // pass so that drift of the machine cancels out of their ratios.
    let mut by_mode: Vec<Samples> = modes.iter().map(|_| Samples::new(ops.len())).collect();
    let t0 = Instant::now();
    let mut turn = 0;
    while t0.elapsed().as_secs_f64() < cfg.seconds {
        let slot = turn % modes.len();
        driver.pass(modes[slot], false, &mut by_mode[slot]);
        turn += 1;
    }
    // The last pass checks every answer again.
    driver.pass(Mode::Plain, true, &mut by_mode[0]);
    let window_s = t0.elapsed().as_secs_f64();

    let Driver {
        tracer,
        profiles,
        passes,
        ..
    } = driver;
    let plain = &by_mode[0];
    if plain.pass_raw_ms.is_empty() {
        return Err(format!(
            "no pass completed: {}",
            tally
                .first_failure
                .as_deref()
                .unwrap_or("no failure recorded")
        ));
    }

    let extra = if cfg.trace {
        workload.layer_metrics(&mut TracedView {
            op_quiet_ms: &plain.op_quiet_ms(),
            profiles: &profiles,
            machine: &before,
            tally: &mut tally,
        })
    } else {
        Vec::new()
    };
    let after = machine::calibrate(cfg.scale.calib_bytes);
    let metrics: Vec<Metric> = if cfg.trace {
        let values = layers::per_layer(&LayerInputs {
            spans: &tracer.spans()[warmup_spans..],
            passes: &passes,
            profiles: &profiles,
            by_mode: &by_mode,
            setup: median_parts(&parts),
            before: &before,
            after: &after,
            extra: &extra,
        });
        let trace_path = out.join(format!("trace-{}.json", cfg.workload));
        std::fs::write(
            &trace_path,
            trace::to_json(&cfg.workload, tracer.spans()).render(),
        )
        .map_err(|e| format!("{}: {e}", trace_path.display()))?;
        PER_LAYER
            .iter()
            .zip(values)
            .map(|(m, value)| Metric {
                name: m.name,
                unit: m.unit,
                value,
            })
            .collect()
    } else {
        let values = [
            ("setup_s", median(&setup_s)),
            ("pass_ms_quiet", plain.pass_quiet_ms()),
            (
                "op_ms_geomean",
                geomean(&plain.op_quiet_ms()).unwrap_or(0.0),
            ),
            ("cpu_ms_per_pass", plain.pass_quiet_cpu_ms()),
            (
                "pass_heap_peak_mb",
                (resident + plain.heap_added) as f64 / 1e6,
            ),
            (
                "stored_bytes_per_user_byte",
                workload.stored_bytes() as f64 / workload.user_bytes() as f64,
            ),
        ];
        END_TO_END
            .iter()
            .map(|m| {
                let (_, value) = values
                    .iter()
                    .find(|(name, _)| *name == m.name)
                    .expect("every end-to-end metric is computed");
                Metric {
                    name: m.name,
                    unit: m.unit,
                    value: *value,
                }
            })
            .collect()
    };

    let drift = machine::drift(&before, &after);
    let report = Json::obj([
        ("workload", Json::str(&cfg.workload)),
        ("seed", Json::Num(cfg.seed as f64)),
        ("trace", Json::Bool(cfg.trace)),
        ("seconds", Json::Num(cfg.seconds)),
        ("window_s", Json::Num(window_s)),
        (
            "loop",
            Json::str("closed, one client, whole passes back to back"),
        ),
        (
            "scale",
            Json::obj([
                ("tpch_sf", Json::Num(cfg.scale.tpch_sf)),
                ("scan_sf", Json::Num(cfg.scale.scan_sf)),
                ("write_sf", Json::Num(cfg.scale.write_sf)),
            ]),
        ),
        ("nproc", Json::Num(machine::nproc() as f64)),
        ("degraded", Json::Bool(workload.degraded())),
        ("disturbed", Json::Bool(drift > DISTURBED_DRIFT)),
        ("durable_fs", Json::str(machine::fs_type(out))),
        (
            "flush_policy",
            Json::str("every fsync the storage layer issues is waited for and timed"),
        ),
        ("clock_vs_ref", Json::Num(median(&plain.pass_clock_scale))),
        ("warmup_passes", Json::Num(warmup_passes as f64)),
        ("passes", Json::Num(plain.passes as f64)),
        ("attempted", Json::Num(tally.attempted as f64)),
        ("failed", Json::Num(tally.failed as f64)),
        (
            "first_failure",
            tally.first_failure.as_deref().map_or(Json::Null, Json::str),
        ),
        (
            "machine",
            Json::obj([
                ("before", calibration_json(&before)),
                ("after", calibration_json(&after)),
                ("calib_drift_frac", Json::Num(drift)),
            ]),
        ),
        (
            "setup_s",
            Json::Arr(setup_s.iter().map(|&s| Json::Num(s)).collect()),
        ),
        (
            "ops",
            Json::Obj(
                ops.iter()
                    .zip(&plain.op_ms)
                    .map(|(name, ms)| {
                        (
                            (*name).to_owned(),
                            Json::obj([
                                ("quiet_ms", Json::Num(quiet(ms))),
                                ("p50_ms", Json::Num(median(ms))),
                                ("p90_ms", Json::Num(percentile(ms, 90.0).unwrap_or(0.0))),
                                ("samples", Json::Num(ms.len() as f64)),
                                // Every sample, so that a run can be
                                // read again with another statistic.
                                ("ms", Json::Arr(ms.iter().map(|&v| Json::Num(v)).collect())),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
        (
            "metrics",
            Json::Obj(
                metrics
                    .iter()
                    .map(|m| {
                        let mut fields =
                            vec![("value", Json::Num(m.value)), ("unit", Json::str(m.unit))];
                        if let Some(e) = END_TO_END.iter().find(|e| e.name == m.name) {
                            fields.push(("bound", Json::Num(e.bound)));
                            fields.push(("samples", Json::Num(plain.pass_raw_ms.len() as f64)));
                        }
                        (m.name.to_owned(), Json::obj(fields))
                    })
                    .collect(),
            ),
        ),
    ]);
    let run_path = out.join(format!(
        "run-{}-seed{}-trace{}.json",
        cfg.workload, cfg.seed, cfg.trace as u8
    ));
    std::fs::write(&run_path, report.render())
        .map_err(|e| format!("{}: {e}", run_path.display()))?;

    Ok(RunOutput {
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        report,
    })
}

fn calibration_json(c: &Calibration) -> Json {
    Json::obj([
        ("calib_ms", Json::Num(c.calib_ms)),
        ("mem_bw_gb_s", Json::Num(c.mem_bw_gb_s)),
    ])
}

fn median_parts(parts: &[SetupParts]) -> SetupParts {
    let of = |f: fn(&SetupParts) -> f64| median(&parts.iter().map(f).collect::<Vec<_>>());
    SetupParts {
        gen_s: of(|p| p.gen_s),
        build_s: of(|p| p.build_s),
        mil_over_x100_geomean: of(|p| p.mil_over_x100_geomean),
    }
}
