//! Spans recorded by the benchmark around the calls it makes into each
//! layer: `pass` → op → `check` / `bind` / `run` (or `execute`). Kept
//! in memory, written out once at exit.

use crate::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that was open when this one began.
    pub parent: Option<u32>,
    /// Spans of one pass share its id.
    pub pass: u32,
}

/// Token for an open span; `None` while tracing is off.
pub type Open = Option<u32>;

#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    pass: u32,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            enabled: false,
            pass: 0,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Turn recording on or off for the pass with this id.
    pub fn start_pass(&mut self, pass: u32, enabled: bool) {
        self.pass = pass;
        self.enabled = enabled;
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return None;
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: self.now(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            pass: self.pass,
        });
        self.stack.push(id);
        Some(id)
    }

    /// Close a span and return its duration in nanoseconds.
    pub fn end(&mut self, open: Open) -> u64 {
        let Some(id) = open else {
            return 0;
        };
        let now = self.now();
        let popped = self.stack.pop();
        debug_assert_eq!(popped, Some(id), "spans close innermost first");
        let span = &mut self.spans[id as usize];
        span.end_ns = now;
        now - span.start_ns
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the part of it that its
/// child spans cover (overlapping children are counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p as usize].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(reach);
                let end = end.min(s.end_ns);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// The trace file: every span with its self time, and per span name the
/// count, total and self milliseconds.
pub fn to_json(workload: &str, spans: &[Span]) -> Json {
    let selfs = self_times(spans);
    let mut layers: BTreeMap<&str, (u64, u64, u64)> = BTreeMap::new();
    for (s, &self_ns) in spans.iter().zip(&selfs) {
        let e = layers.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.end_ns - s.start_ns;
        e.2 += self_ns;
    }
    Json::obj([
        ("workload", Json::str(workload)),
        (
            "layers",
            Json::Obj(
                layers
                    .into_iter()
                    .map(|(name, (count, total, self_ns))| {
                        (
                            name.to_owned(),
                            Json::obj([
                                ("count", Json::Num(count as f64)),
                                ("total_ms", Json::Num(total as f64 / 1e6)),
                                ("self_ms", Json::Num(self_ns as f64 / 1e6)),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
        (
            "spans",
            Json::Arr(
                spans
                    .iter()
                    .zip(&selfs)
                    .map(|(s, &self_ns)| {
                        Json::obj([
                            ("name", Json::str(s.name)),
                            ("start_ns", Json::Num(s.start_ns as f64)),
                            ("end_ns", Json::Num(s.end_ns as f64)),
                            (
                                "parent",
                                s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                            ),
                            ("pass", Json::Num(s.pass as f64)),
                            ("self_ns", Json::Num(self_ns as f64)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            pass: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        let spans = [
            span("pass", 0, 100, None),
            span("op", 10, 60, Some(0)),
            span("check", 10, 20, Some(1)),
            span("run", 25, 55, Some(1)),
            span("op", 70, 90, Some(0)),
        ];
        // pass: 100 - (50 + 20); first op: 50 - (10 + 30); leaves: all.
        assert_eq!(self_times(&spans), vec![30, 10, 10, 30, 20]);
    }

    #[test]
    fn overlapping_children_are_covered_once() {
        let spans = [
            span("execute", 0, 100, None),
            span("worker", 10, 60, Some(0)),
            span("worker", 40, 80, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 30);
    }

    #[test]
    fn tracer_nests_and_is_silent_when_off() {
        let mut t = Tracer::new();
        t.start_pass(1, false);
        let off = t.begin("op");
        assert_eq!(t.end(off), 0);
        assert!(t.spans().is_empty());
        t.start_pass(2, true);
        let outer = t.begin("pass");
        let inner = t.begin("op");
        t.end(inner);
        t.end(outer);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[1].pass, 2);
        assert!(t.spans()[0].end_ns >= t.spans()[1].end_ns);
    }
}
