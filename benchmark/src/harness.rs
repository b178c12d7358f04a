//! What a workload's pass is written against: timed ops, untimed
//! checks, and query execution that is plain `run_x100` when untraced
//! and the same steps taken one by one, each under a span, when traced.

use crate::alloc;
use crate::machine::{timed, Timing};
use crate::trace::Tracer;
use std::collections::BTreeMap;
use std::sync::Arc;
use tpch::queries::{run_x100, QuerySpec};
use x100_engine::plan::Plan;
use x100_engine::session::{execute, run_operator, Database, ExecOptions};
use x100_engine::{check_plan, PlanError, Profiler, QueryContext, QueryResult};

/// How much the benchmark observes during a pass. `mode as usize` is
/// its place in [`MODES`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Nothing: the end-to-end numbers come from these passes.
    Plain,
    /// Spans around every call into a layer.
    Spans,
    /// Spans, and the engine's own `Profiler` switched on.
    Profiled,
}

pub const MODES: [Mode; 3] = [Mode::Plain, Mode::Spans, Mode::Profiled];

/// What the spans and samples of a pass are read with.
#[derive(Debug, Clone, Copy)]
pub struct PassInfo {
    pub mode: Mode,
    /// Reference pace ÷ the pace the clock was probed at during the
    /// pass (mean over its ops).
    pub clock_scale: f64,
}

/// Operations attempted and failed since set-up began.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
}

impl Tally {
    /// Count one checked operation; `Err` is a failure.
    pub fn record(&mut self, what: &str, outcome: Result<(), String>) -> bool {
        self.attempted += 1;
        match outcome {
            Ok(()) => true,
            Err(why) => {
                self.failed += 1;
                self.first_failure
                    .get_or_insert_with(|| format!("{what}: {why}"));
                false
            }
        }
    }
}

/// `Profiler` output summed over the queries of one profiled pass.
#[derive(Debug, Default)]
pub struct ProfileAcc {
    /// Operator name → nanoseconds.
    pub ops: BTreeMap<String, f64>,
    /// Primitive signature → (nanoseconds, tuples).
    pub prims: BTreeMap<String, (f64, f64)>,
    /// Event counters, summed.
    pub counters: BTreeMap<String, u64>,
    /// Highest `gov_mem_peak` of any query.
    pub mem_peak: u64,
    /// Per parallel query: slowest worker's wall ÷ mean worker wall.
    pub worker_skews: Vec<f64>,
}

impl ProfileAcc {
    pub fn absorb(&mut self, prof: &Profiler) {
        for (name, stat) in prof.operators() {
            *self.ops.entry(name.to_owned()).or_default() += stat.nanos as f64;
        }
        for (sig, stat) in prof.primitives() {
            let e = self.prims.entry(sig.to_owned()).or_default();
            e.0 += stat.nanos as f64;
            e.1 += stat.tuples as f64;
        }
        for (name, n) in prof.counters() {
            if name == "gov_mem_peak" {
                self.mem_peak = self.mem_peak.max(n);
            } else {
                *self.counters.entry(name.to_owned()).or_default() += n;
            }
        }
        let walls: Vec<f64> = prof.workers().iter().map(|w| w.wall_nanos as f64).collect();
        if !walls.is_empty() {
            let mean = walls.iter().sum::<f64>() / walls.len() as f64;
            if mean > 0.0 {
                self.worker_skews
                    .push(walls.iter().copied().fold(0.0, f64::max) / mean);
            }
        }
    }

    /// Bring every time to the reference pace of the clock (see
    /// [`crate::machine::Timing`]).
    pub fn scale_times(&mut self, clock_scale: f64) {
        self.ops.values_mut().for_each(|ns| *ns *= clock_scale);
        self.prims
            .values_mut()
            .for_each(|(ns, _)| *ns *= clock_scale);
    }

    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0) as f64
    }
}

/// Query execution inside one op.
pub struct Exec<'a> {
    mode: Mode,
    tracer: &'a mut Tracer,
    profile: &'a mut ProfileAcc,
}

impl Exec<'_> {
    /// Run a query spec: untraced through `tpch::queries::run_x100`,
    /// traced through [`Exec::plan`] for each of its phases.
    pub fn query(
        &mut self,
        db: &Database,
        spec: &QuerySpec,
        opts: &ExecOptions,
    ) -> Result<QueryResult, String> {
        if self.mode == Mode::Plain {
            return run_x100(db, spec, opts).map_err(|e| e.to_string());
        }
        match spec {
            QuerySpec::Single(plan) => self.plan(db, plan, opts),
            QuerySpec::TwoPhase(tp) => {
                let r1 = self.plan(db, &tp.phase1, opts)?;
                let col = r1
                    .col_index(tp.scalar_col)
                    .filter(|_| r1.num_rows() == 1)
                    .ok_or("phase 1 must yield one row holding the scalar")?;
                self.plan(db, &(tp.phase2)(r1.value(0, col).as_f64()), opts)
            }
        }
    }

    /// Run one plan. Traced at one thread, this takes the steps of
    /// `x100_engine::execute` itself — check, bind against a context
    /// carrying the checker's facts, drain — with a span around each;
    /// on more threads the engine's parallel driver is private, so the
    /// whole of `execute` is one span.
    pub fn plan(
        &mut self,
        db: &Database,
        plan: &Plan,
        opts: &ExecOptions,
    ) -> Result<QueryResult, String> {
        let (result, prof) = self.staged(db, plan, opts).map_err(|e| e.to_string())?;
        if self.mode == Mode::Profiled {
            self.profile.absorb(&prof);
        }
        Ok(result)
    }

    fn staged(
        &mut self,
        db: &Database,
        plan: &Plan,
        opts: &ExecOptions,
    ) -> Result<(QueryResult, Profiler), PlanError> {
        if self.mode == Mode::Plain {
            return execute(db, plan, opts);
        }
        let mut opts = opts.clone();
        opts.profile = self.mode == Mode::Profiled;
        if opts.threads > 1 {
            let span = self.tracer.begin("execute");
            let out = execute(db, plan, &opts);
            self.tracer.end(span);
            return out;
        }
        let span = self.tracer.begin("check");
        let summary = check_plan(db, plan, &opts);
        self.tracer.end(span);
        let span = self.tracer.begin("bind");
        let ctx = Arc::new(QueryContext::new(
            opts.mem_budget,
            opts.spill_budget,
            opts.timeout,
            opts.cancel.clone(),
            opts.fault_plan.clone(),
            opts.panic_probe,
        ));
        let bound = summary.and_then(|s| {
            ctx.provide_plan_facts(s.facts);
            plan.bind_governed(db, &opts, &ctx)
        });
        self.tracer.end(span);
        let mut op = bound?;
        let mut prof = Profiler::new(opts.profile);
        let span = self.tracer.begin("run");
        let result = run_operator(op.as_mut(), &mut prof);
        self.tracer.end(span);
        ctx.publish(&mut prof);
        Ok((result?, prof))
    }
}

/// One pass: the workload calls [`Pass::op`] for each of its ops in
/// order and [`Pass::check`] on what they returned.
pub struct Pass<'a> {
    pub mode: Mode,
    /// Compare whole answers this pass (the warm-up pass and the last);
    /// row counts are compared on every pass.
    pub verify: bool,
    tracer: &'a mut Tracer,
    profile: &'a mut ProfileAcc,
    tally: &'a mut Tally,
    ops: &'static [&'static str],
    timings: Vec<Option<Timing>>,
    /// Live heap when the pass began, and the most any op raised it by.
    /// Only ops count: checking an answer allocates more than computing
    /// it, and that is the benchmark's heap, not the program's.
    heap_base: usize,
    heap_added: usize,
}

impl<'a> Pass<'a> {
    pub fn new(
        mode: Mode,
        verify: bool,
        ops: &'static [&'static str],
        tracer: &'a mut Tracer,
        profile: &'a mut ProfileAcc,
        tally: &'a mut Tally,
    ) -> Self {
        Pass {
            mode,
            verify,
            tracer,
            profile,
            tally,
            ops,
            timings: vec![None; ops.len()],
            heap_base: alloc::live_bytes(),
            heap_added: 0,
        }
    }

    /// Time op number `idx`. An `Err` counts as a failed op and its
    /// time is dropped.
    pub fn op<T>(
        &mut self,
        idx: usize,
        f: impl FnOnce(&mut Exec<'_>) -> Result<T, String>,
    ) -> Option<T> {
        let name = self.ops[idx];
        let span = self.tracer.begin(name);
        let mut exec = Exec {
            mode: self.mode,
            tracer: self.tracer,
            profile: self.profile,
        };
        alloc::reset_peak();
        let (out, timing) = timed(|| f(&mut exec));
        self.heap_added = self
            .heap_added
            .max(alloc::peak_bytes().saturating_sub(self.heap_base));
        self.tracer.end(span);
        match out {
            Ok(v) => {
                self.tally.attempted += 1;
                self.timings[idx] = Some(timing);
                Some(v)
            }
            Err(why) => {
                self.tally.record(name, Err(why));
                None
            }
        }
    }

    /// Untimed check on what op `idx` produced; a failed check turns
    /// the op into a failed one and drops its time.
    pub fn check(&mut self, idx: usize, outcome: Result<(), String>) {
        if let Err(why) = outcome {
            self.tally.failed += 1;
            self.tally
                .first_failure
                .get_or_insert_with(|| format!("{}: {why}", self.ops[idx]));
            self.timings[idx] = None;
        }
    }

    /// What each op took (`None` where the op failed), and the most the
    /// ops added to the heap the pass began with.
    pub fn finish(self) -> (Vec<Option<Timing>>, usize) {
        (self.timings, self.heap_added)
    }
}

/// `Ok` when the two counts agree.
pub fn same_count(what: &str, got: usize, want: usize) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!("{got} {what}, expected {want}"))
    }
}
