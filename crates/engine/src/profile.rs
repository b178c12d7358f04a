//! Tracing and profiling (paper §5.1, Table 5).
//!
//! "X100 implements detailed tracing and profiling support using
//! low-level CPU counters, to help analyze query performance."
//!
//! Our substitution: high-resolution wall-clock timing per primitive
//! invocation (the paper's absolute cycle counts were hardware
//! artifacts; what matters is per-primitive cost per tuple and
//! bandwidth). The profiler aggregates, per primitive signature and per
//! operator: input tuple counts, bytes touched, nanoseconds, and derives
//! MB/s and cycles/tuple at a nominal clock.
//!
//! Profiling is strictly opt-in: with `enabled == false` every record
//! call is a no-op and the timer is never read, so the Figure 10
//! vector-size sweep (where per-call overhead would dominate at vector
//! size 1) runs untraced.

use std::collections::BTreeMap;
use std::time::Instant;

/// Nominal clock frequency used to convert ns/tuple into the paper's
/// "cycles per tuple" unit (Table 5 ran on a 1.3 GHz Itanium2).
pub const NOMINAL_GHZ: f64 = 1.3;

/// Aggregated statistics for one primitive signature or operator.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TraceStat {
    /// Number of invocations (vectors processed).
    pub calls: u64,
    /// Total input tuples across invocations.
    pub tuples: u64,
    /// Total bytes touched (inputs + outputs).
    pub bytes: u64,
    /// Total elapsed nanoseconds.
    pub nanos: u64,
}

impl TraceStat {
    /// Average bandwidth in MB/s.
    pub fn mb_per_sec(&self) -> f64 {
        if self.nanos == 0 {
            0.0
        } else {
            (self.bytes as f64 / (1 << 20) as f64) / (self.nanos as f64 * 1e-9)
        }
    }

    /// Average nanoseconds per tuple.
    pub fn ns_per_tuple(&self) -> f64 {
        if self.tuples == 0 {
            0.0
        } else {
            self.nanos as f64 / self.tuples as f64
        }
    }

    /// The paper's "avg. cycles" per tuple at [`NOMINAL_GHZ`].
    pub fn cycles_per_tuple(&self) -> f64 {
        self.ns_per_tuple() * NOMINAL_GHZ
    }
}

/// Summary of one parallel worker's contribution to a query.
#[derive(Debug, Clone)]
pub struct WorkerTrace {
    /// Worker label (e.g. `worker-0`).
    pub label: String,
    /// Wall-clock nanoseconds the worker's pipeline ran.
    pub wall_nanos: u64,
    /// Tuples the worker's partial aggregation consumed.
    pub tuples: u64,
}

/// The session profiler. One per executed query.
#[derive(Debug, Default)]
pub struct Profiler {
    enabled: bool,
    prims: BTreeMap<String, TraceStat>,
    ops: BTreeMap<String, TraceStat>,
    /// Insertion order of first appearance, for paper-like trace listings.
    prim_order: Vec<String>,
    op_order: Vec<String>,
    /// Per-worker summaries of a parallel run (empty when sequential).
    workers: Vec<WorkerTrace>,
    /// Named event counters (pushed-down vectors, governor peaks, …).
    counters: BTreeMap<String, u64>,
    counter_order: Vec<String>,
    /// Counters with high-water-mark semantics (`max_counter`): worker
    /// merges take the max instead of summing.
    max_names: std::collections::BTreeSet<String>,
}

impl Profiler {
    /// A profiler; `enabled == false` makes all recording free.
    pub fn new(enabled: bool) -> Self {
        Profiler {
            enabled,
            ..Default::default()
        }
    }

    /// Whether recording is active.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Start a timing span (returns `None` when disabled).
    #[inline]
    pub fn start(&self) -> Option<Instant> {
        if self.enabled {
            Some(Instant::now())
        } else {
            None
        }
    }

    /// Record a primitive invocation against signature `sig`.
    #[inline]
    pub fn record_prim(
        &mut self,
        sig: &str,
        started: Option<Instant>,
        tuples: usize,
        bytes: usize,
    ) {
        if let Some(t0) = started {
            let nanos = t0.elapsed().as_nanos() as u64;
            if !self.prims.contains_key(sig) {
                self.prim_order.push(sig.to_owned());
            }
            let e = self.prims.entry(sig.to_owned()).or_default();
            e.calls += 1;
            e.tuples += tuples as u64;
            e.bytes += bytes as u64;
            e.nanos += nanos;
        }
    }

    /// Record time attributed to an operator (coarse level of Table 5).
    #[inline]
    pub fn record_op(&mut self, op: &str, started: Option<Instant>, tuples: usize) {
        if let Some(t0) = started {
            let nanos = t0.elapsed().as_nanos() as u64;
            if !self.ops.contains_key(op) {
                self.op_order.push(op.to_owned());
            }
            let e = self.ops.entry(op.to_owned()).or_default();
            e.calls += 1;
            e.tuples += tuples as u64;
            e.nanos += nanos;
        }
    }

    /// Add `n` to the named event counter (no-op when disabled). Counters
    /// record *event counts* with no timing attached — scanned bytes,
    /// pushed-down vectors, decode recoveries, chunk heals, injected
    /// faults.
    #[inline]
    pub fn add_counter(&mut self, name: &str, n: u64) {
        if self.enabled {
            if !self.counters.contains_key(name) {
                self.counter_order.push(name.to_owned());
            }
            *self.counters.entry(name.to_owned()).or_default() += n;
        }
    }

    /// Set the named counter to the maximum of its current value and `n`
    /// (for high-water marks like the largest partition).
    #[inline]
    pub fn max_counter(&mut self, name: &str, n: u64) {
        if self.enabled {
            if !self.counters.contains_key(name) {
                self.counter_order.push(name.to_owned());
            }
            self.max_names.insert(name.to_owned());
            let e = self.counters.entry(name.to_owned()).or_default();
            *e = (*e).max(n);
        }
    }

    /// Look up one counter's value.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.get(name).copied()
    }

    /// Named counters in first-appearance order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counter_order
            .iter()
            .map(move |k| (k.as_str(), self.counters[k]))
    }

    /// Primitive-level statistics in first-appearance order.
    pub fn primitives(&self) -> impl Iterator<Item = (&str, &TraceStat)> {
        self.prim_order
            .iter()
            .map(move |k| (k.as_str(), &self.prims[k]))
    }

    /// Operator-level statistics in first-appearance order.
    pub fn operators(&self) -> impl Iterator<Item = (&str, &TraceStat)> {
        self.op_order
            .iter()
            .map(move |k| (k.as_str(), &self.ops[k]))
    }

    /// Look up one primitive's stats.
    pub fn primitive(&self, sig: &str) -> Option<&TraceStat> {
        self.prims.get(sig)
    }

    /// Fold a parallel worker's profiler into this one: primitive and
    /// operator stats merge into the global tables (preserving
    /// first-appearance order), and a [`WorkerTrace`] summary is kept.
    /// Note the merged `nanos` are summed *CPU* time across workers —
    /// wall-clock speedup shows up in `wall_nanos` instead.
    pub fn absorb_worker(&mut self, label: impl Into<String>, wall_nanos: u64, worker: Profiler) {
        let mut tuples = 0u64;
        for (op, st) in worker.operators() {
            if op.starts_with("Aggr") {
                tuples += st.tuples;
            }
        }
        for sig in &worker.prim_order {
            let st = worker.prims[sig];
            if !self.prims.contains_key(sig) {
                self.prim_order.push(sig.clone());
            }
            let e = self.prims.entry(sig.clone()).or_default();
            e.calls += st.calls;
            e.tuples += st.tuples;
            e.bytes += st.bytes;
            e.nanos += st.nanos;
        }
        for op in &worker.op_order {
            let st = worker.ops[op];
            if !self.ops.contains_key(op) {
                self.op_order.push(op.clone());
            }
            let e = self.ops.entry(op.clone()).or_default();
            e.calls += st.calls;
            e.tuples += st.tuples;
            e.nanos += st.nanos;
        }
        for name in &worker.counter_order {
            if !self.counters.contains_key(name) {
                self.counter_order.push(name.clone());
            }
            let e = self.counters.entry(name.clone()).or_default();
            if worker.max_names.contains(name) {
                // High-water marks (largest partition, worst compression
                // ratio) stay maxima across workers; summing them would
                // scale with the thread count.
                self.max_names.insert(name.clone());
                *e = (*e).max(worker.counters[name]);
            } else {
                *e += worker.counters[name];
            }
        }
        self.workers.push(WorkerTrace {
            label: label.into(),
            wall_nanos,
            tuples,
        });
    }

    /// Per-worker summaries of a parallel run (empty when sequential).
    pub fn workers(&self) -> &[WorkerTrace] {
        &self.workers
    }

    /// Render a Table 5-style trace: per-primitive rows then per-operator
    /// rollup.
    pub fn render_table5(&self) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        writeln!(
            s,
            "{:>10} {:>8} {:>10} {:>8} {:>6}  X100 primitive",
            "input", "total", "time", "BW", "avg."
        )
        .expect("write to String");
        writeln!(
            s,
            "{:>10} {:>8} {:>10} {:>8} {:>6}",
            "count", "MB", "(us)", "MB/s", "cycles"
        )
        .expect("write to String");
        for (sig, st) in self.primitives() {
            writeln!(
                s,
                "{:>10} {:>8.1} {:>10.0} {:>8.0} {:>6.1}  {}",
                st.tuples,
                st.bytes as f64 / (1 << 20) as f64,
                st.nanos as f64 / 1000.0,
                st.mb_per_sec(),
                st.cycles_per_tuple(),
                sig
            )
            .expect("write to String");
        }
        writeln!(s, "\n{:>10} {:>10}  X100 operator", "tuples", "time (us)")
            .expect("write to String");
        for (op, st) in self.operators() {
            writeln!(
                s,
                "{:>10} {:>10.0}  {}",
                st.tuples,
                st.nanos as f64 / 1000.0,
                op
            )
            .expect("write to String");
        }
        if !self.counters.is_empty() {
            writeln!(s, "\n{:>10}  event counter", "count").expect("write to String");
            for (name, n) in self.counters() {
                writeln!(s, "{n:>10}  {name}").expect("write to String");
            }
        }
        if !self.workers.is_empty() {
            writeln!(s, "\n{:>10} {:>10}  parallel worker", "tuples", "wall (us)")
                .expect("write to String");
            for w in &self.workers {
                writeln!(
                    s,
                    "{:>10} {:>10.0}  {}",
                    w.tuples,
                    w.wall_nanos as f64 / 1000.0,
                    w.label
                )
                .expect("write to String");
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_profiler_records_nothing() {
        let mut p = Profiler::new(false);
        let t = p.start();
        assert!(t.is_none());
        p.record_prim("map_add_f64_col_f64_col", t, 1024, 8192);
        assert_eq!(p.primitives().count(), 0);
    }

    #[test]
    fn enabled_profiler_aggregates() {
        let mut p = Profiler::new(true);
        for _ in 0..3 {
            let t = p.start();
            std::hint::black_box(0);
            p.record_prim("map_mul_f64_col_f64_col", t, 1000, 24_000);
        }
        let st = p.primitive("map_mul_f64_col_f64_col").expect("recorded");
        assert_eq!(st.calls, 3);
        assert_eq!(st.tuples, 3000);
        assert_eq!(st.bytes, 72_000);
        assert!(st.ns_per_tuple() >= 0.0);
    }

    #[test]
    fn order_is_first_appearance() {
        let mut p = Profiler::new(true);
        for sig in ["z_prim", "a_prim", "z_prim"] {
            let t = p.start();
            p.record_prim(sig, t, 1, 1);
        }
        let order: Vec<&str> = p.primitives().map(|(k, _)| k).collect();
        assert_eq!(order, vec!["z_prim", "a_prim"]);
    }

    #[test]
    fn counters_aggregate_and_render() {
        let mut p = Profiler::new(true);
        p.add_counter("pushdown_vectors", 10);
        p.add_counter("pushdown_vectors", 5);
        p.max_counter("gov_mem_peak", 100);
        p.max_counter("gov_mem_peak", 40);
        assert_eq!(p.counter("pushdown_vectors"), Some(15));
        assert_eq!(p.counter("gov_mem_peak"), Some(100));
        // Worker counters fold in additively — except high-water marks,
        // which take the max (summing would scale with thread count).
        let mut w = Profiler::new(true);
        w.add_counter("pushdown_vectors", 7);
        w.max_counter("gov_mem_peak", 60);
        w.max_counter("compress_ratio", 65);
        p.absorb_worker("worker-0", 1, w);
        assert_eq!(p.counter("pushdown_vectors"), Some(22));
        assert_eq!(p.counter("gov_mem_peak"), Some(100));
        assert_eq!(p.counter("compress_ratio"), Some(65));
        let mut w2 = Profiler::new(true);
        w2.max_counter("compress_ratio", 65);
        p.absorb_worker("worker-1", 1, w2);
        assert_eq!(p.counter("compress_ratio"), Some(65), "max, not sum");
        let out = p.render_table5();
        assert!(out.contains("event counter"));
        assert!(out.contains("pushdown_vectors"));
    }

    #[test]
    fn disabled_profiler_skips_counters() {
        let mut p = Profiler::new(false);
        p.add_counter("pushdown_vectors", 3);
        assert_eq!(p.counter("pushdown_vectors"), None);
    }

    #[test]
    fn stat_derivations() {
        let st = TraceStat {
            calls: 1,
            tuples: 1000,
            bytes: 1 << 20,
            nanos: 1_000_000,
        };
        assert!((st.mb_per_sec() - 1000.0).abs() < 1e-9);
        assert!((st.ns_per_tuple() - 1000.0).abs() < 1e-9);
        assert!((st.cycles_per_tuple() - 1300.0).abs() < 1e-9);
        let empty = TraceStat::default();
        assert_eq!(empty.mb_per_sec(), 0.0);
        assert_eq!(empty.ns_per_tuple(), 0.0);
    }

    #[test]
    fn render_contains_rows() {
        let mut p = Profiler::new(true);
        let t = p.start();
        p.record_prim("map_add_f64_col_f64_col", t, 10, 80);
        let t = p.start();
        p.record_op("Scan", t, 10);
        let out = p.render_table5();
        assert!(out.contains("map_add_f64_col_f64_col"));
        assert!(out.contains("Scan"));
        assert!(out.contains("X100 primitive"));
    }
}
