//! `scan_aggr`, `scan_compressed`, `scan_aggr_t2`: the same three ops —
//! TPC-H Q1 (direct aggregation), Q6 (selective select into one sum)
//! and a hash aggregation with ~28K groups — over one Q1-column
//! `lineitem`, raw, checkpointed, or on two threads.

use super::{table_stored_bytes, table_user_bytes, SetupParts, TracedView, Workload};
use crate::answer::Answer;
use crate::harness::{same_count, Pass, Tally};
use crate::machine::{nproc, timed};
use crate::stats::{median, percentile, quiet, QUIET_PERCENTILE};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;
use tpch::gen::{generate_lineitem_q1, GenConfig, RawLineitem};
use tpch::hardcoded::{tpch_query1, AggrT1};
use tpch::queries::{q01, q06};
use tpch::Q1Row;
use x100_engine::expr::col;
use x100_engine::plan::Plan;
use x100_engine::session::{execute, Database, ExecOptions};
use x100_engine::{AggExpr, QueryResult};
use x100_storage::Table;

const OPS: &[&str] = &["q1", "q6", "hashagg"];
const Q1: usize = 0;
const HASHAGG: usize = 2;
const PROBE_REPS: usize = 7;
/// Disk the spill probe may use; far more than it needs.
const SPILL_BUDGET: usize = 1 << 30;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    Raw,
    Compressed,
    TwoThreads,
}

/// The Q1 columns as the hard-coded UDF of the paper's Figure 4 takes
/// them; kept only for the traced run's Table 1 ratio.
struct HardcodedInput {
    returnflag: Vec<u8>,
    linestatus: Vec<u8>,
    quantity: Vec<f64>,
    extendedprice: Vec<f64>,
    discount: Vec<f64>,
    tax: Vec<f64>,
    shipdate: Vec<i32>,
}

impl HardcodedInput {
    fn from(li: RawLineitem) -> Self {
        let first_byte = |v: &[String]| v.iter().map(|s| s.as_bytes()[0]).collect();
        HardcodedInput {
            returnflag: first_byte(&li.returnflag),
            linestatus: first_byte(&li.linestatus),
            quantity: li.quantity,
            extendedprice: li.extendedprice,
            discount: li.discount,
            tax: li.tax,
            shipdate: li.shipdate,
        }
    }

    fn run(&self, table: &mut [AggrT1]) {
        table.fill(AggrT1::default());
        tpch_query1(
            self.shipdate.len(),
            q01::q1_hi_date(),
            &self.returnflag,
            &self.linestatus,
            &self.quantity,
            &self.extendedprice,
            &self.discount,
            &self.tax,
            &self.shipdate,
            table,
        );
    }
}

pub struct Scan {
    variant: Variant,
    db: Database,
    table: Arc<Table>,
    plans: [Plan; 3],
    /// `scan_aggr`'s answers: one thread over the raw table.
    reference: Vec<Answer>,
    opts: ExecOptions,
    threads_wanted: usize,
    hardcoded: Option<HardcodedInput>,
    setup: SetupParts,
}

/// Group by (ship date, discount): ~2.5K days × 11 discounts.
fn hashagg_plan() -> Plan {
    Plan::scan("lineitem", &["l_shipdate", "l_discount", "l_extendedprice"]).aggr(
        vec![
            ("l_shipdate", col("l_shipdate")),
            ("l_discount", col("l_discount")),
        ],
        vec![
            AggExpr::sum("revenue", col("l_extendedprice")),
            AggExpr::count("n"),
        ],
    )
}

fn results(db: &Database, plans: &[Plan], opts: &ExecOptions) -> Result<Vec<QueryResult>, String> {
    plans
        .iter()
        .zip(OPS)
        .map(|(plan, name)| {
            execute(db, plan, opts)
                .map(|(result, _)| result)
                .map_err(|e| format!("{name}: {e}"))
        })
        .collect()
}

fn q1_rows_match(got: &[Q1Row], want: &[Q1Row]) -> Result<(), String> {
    same_count("groups", got.len(), want.len())?;
    let close = |a: f64, b: f64| (a - b).abs() <= 1e-6 + 1e-9 * a.abs().max(b.abs());
    for (g, w) in got.iter().zip(want) {
        let same = g.returnflag == w.returnflag
            && g.linestatus == w.linestatus
            && g.count_order == w.count_order
            && close(g.sum_qty, w.sum_qty)
            && close(g.sum_base_price, w.sum_base_price)
            && close(g.sum_disc_price, w.sum_disc_price)
            && close(g.sum_charge, w.sum_charge)
            && close(g.avg_qty, w.avg_qty)
            && close(g.avg_price, w.avg_price)
            && close(g.avg_disc, w.avg_disc);
        if !same {
            return Err(format!(
                "group {}{}: {g:?} != {w:?}",
                g.returnflag, g.linestatus
            ));
        }
    }
    Ok(())
}

impl Scan {
    pub fn build(
        variant: Variant,
        seed: u64,
        sf: f64,
        traced: bool,
        tally: &mut Tally,
    ) -> Result<Self, String> {
        let t0 = Instant::now();
        let li = generate_lineitem_q1(&GenConfig { sf, seed });
        let gen_s = t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        let table = tpch::db::build_lineitem(&li);
        let mut build_s = t0.elapsed().as_secs_f64();

        let plans = [q01::x100_plan(), q06::x100_plan(), hashagg_plan()];
        let sequential = ExecOptions::default();
        let mut db = Database::new();
        let mut table = db.register(table);
        let raw = results(&db, &plans, &sequential)?;
        tally.record(
            "q1 against the hard-coded UDF",
            q1_rows_match(
                &q01::rows_from_x100(&raw[Q1]),
                &tpch::run_hardcoded_q1(&li, q01::q1_hi_date()),
            ),
        );
        let reference: Vec<Answer> = raw.iter().map(Answer::from_result).collect();
        let hardcoded = traced.then(|| HardcodedInput::from(li));

        let threads_wanted = if variant == Variant::TwoThreads { 2 } else { 1 };
        let opts = ExecOptions::default().parallel(threads_wanted.min(nproc()));
        if variant == Variant::Compressed {
            drop(db);
            let mut owned = Arc::try_unwrap(table).map_err(|_| "lineitem is still shared")?;
            let t0 = Instant::now();
            owned.checkpoint();
            build_s += t0.elapsed().as_secs_f64();
            db = Database::new();
            table = db.register(owned);
        }
        if variant != Variant::Raw {
            for ((got, want), name) in results(&db, &plans, &opts)?.iter().zip(&reference).zip(OPS)
            {
                tally.record(name, Answer::from_result(got).matches(want));
            }
        }
        Ok(Scan {
            variant,
            db,
            table,
            plans,
            reference,
            opts,
            threads_wanted,
            hardcoded,
            setup: SetupParts {
                gen_s,
                build_s,
                mil_over_x100_geomean: 0.0,
            },
        })
    }

    /// Quiet milliseconds of `reps` runs of `plan` under `opts`.
    fn time_plan(&self, plan: &Plan, opts: &ExecOptions, reps: usize) -> Result<f64, String> {
        let mut ms = Vec::with_capacity(reps);
        for _ in 0..reps {
            let (out, timing) = timed(|| execute(&self.db, plan, opts));
            out.map_err(|e| e.to_string())?;
            ms.push(timing.wall_ms);
        }
        Ok(quiet(&ms))
    }

    /// Table 1: interpreted Q1 against the hard-coded loop, and the
    /// share of the machine's memory bandwidth Q1 reaches.
    fn vector_metrics(&self, view: &TracedView<'_>, out: &mut Vec<(&'static str, f64)>) {
        let q1_ms = view.op_quiet_ms[Q1];
        if let Some(input) = &self.hardcoded {
            let mut slots = vec![AggrT1::default(); 65536];
            let ms: Vec<f64> = (0..PROBE_REPS)
                .map(|_| {
                    let ((), timing) = timed(|| {
                        input.run(&mut slots);
                        black_box(&slots);
                    });
                    timing.wall_ms
                })
                .collect();
            out.push(("vector.q1_over_hardcoded", q1_ms / quiet(&ms)));
        }
        // Q1 reads every column of the Q1-column table.
        let bytes: usize = (0..self.table.num_columns())
            .map(|i| self.table.column(i).physical().byte_size())
            .sum();
        let gb_s = bytes as f64 / 1e9 / (q1_ms / 1e3);
        out.push(("vector.q1_bw_frac", gb_s / view.machine.mem_bw_gb_s));
    }

    /// `hashagg` once under a quarter of the memory it wants, with a
    /// spill budget: how much slower, how much written.
    fn spill_probe(
        &self,
        view: &mut TracedView<'_>,
        out: &mut Vec<(&'static str, f64)>,
    ) -> Result<(), String> {
        let plan = &self.plans[HASHAGG];
        let (_, free) =
            execute(&self.db, plan, &self.opts.clone().profiled()).map_err(|e| e.to_string())?;
        let peak = free.counter("gov_mem_peak").unwrap_or(0) as usize;
        let tight = self
            .opts
            .clone()
            .with_mem_budget((peak / 4).max(1))
            .with_spill_budget(SPILL_BUDGET);
        let (spilled, prof) =
            execute(&self.db, plan, &tight.clone().profiled()).map_err(|e| e.to_string())?;
        view.tally.record(
            "hashagg under a memory budget",
            Answer::from_result(&spilled).matches(&self.reference[HASHAGG]),
        );
        let slowdown = self.time_plan(plan, &tight, 3)? / self.time_plan(plan, &self.opts, 3)?;
        let counter = |name| prof.counter(name).unwrap_or(0) as f64;
        out.push(("spill.hashagg_slowdown", slowdown));
        out.push(("spill.bytes_written", counter("spill_bytes_written")));
        out.push(("spill.runs", counter("spill_runs")));
        out.push(("spill.merge_passes", counter("spill_merge_passes")));
        Ok(())
    }

    /// The morsel driver alone: one thread against two on every op, the
    /// spread between the workers, and the wall time one more morsel
    /// costs (one-vector morsels against the default size — a single
    /// whole-fragment morsel would leave the second worker idle).
    fn parallel_metrics(
        &self,
        view: &TracedView<'_>,
        out: &mut Vec<(&'static str, f64)>,
    ) -> Result<(), String> {
        let sequential = ExecOptions::default();
        let mut one = 0.0;
        let mut two = Vec::with_capacity(self.plans.len());
        for plan in &self.plans {
            one += self.time_plan(plan, &sequential, PROBE_REPS)?;
            two.push(self.time_plan(plan, &self.opts, PROBE_REPS)?);
        }
        out.push(("parallel.speedup_t2", one / two.iter().sum::<f64>()));
        out.push((
            "parallel.worker_wall_skew",
            median(
                &view
                    .profiles
                    .iter()
                    .flat_map(|p| p.worker_skews.iter().copied())
                    .collect::<Vec<_>>(),
            ),
        ));
        let rows = self.table.fragment_rows();
        let small = self.opts.vector_size;
        let large = self.opts.morsel_size;
        let t_small = self.time_plan(
            &self.plans[Q1],
            &self.opts.clone().with_morsel_size(small),
            PROBE_REPS,
        )?;
        let t_large = two[Q1];
        let extra_morsels = rows.div_ceil(small) as f64 - rows.div_ceil(large) as f64;
        if extra_morsels > 0.0 {
            out.push((
                "parallel.overhead_us_per_morsel",
                (t_small - t_large) * 1e3 / extra_morsels,
            ));
        }
        Ok(())
    }

    /// What the checkpoint stored and how fast the dense decode ran.
    fn compress_metrics(&self, view: &TracedView<'_>, out: &mut Vec<(&'static str, f64)>) {
        let (mut raw, mut packed) = (0u64, 0u64);
        for c in (0..self.table.num_columns()).filter_map(|i| self.table.column(i).compressed()) {
            raw += c.raw_bytes();
            packed += c.compressed_bytes();
        }
        if raw > 0 {
            out.push(("compress.ratio", packed as f64 / raw as f64));
        }
        out.push(("compress.codec_sweeps", self.table.codec_sweeps() as f64));
        // Per profiled pass: bytes the dense decode produced over the
        // self time of the `Scan` operator that ran it.
        let mb_per_s: Vec<f64> = view
            .profiles
            .iter()
            .filter_map(|p| {
                let ns = p.ops.get("Scan").copied().filter(|&ns| ns > 0.0)?;
                Some(p.counter("scan_bytes_raw") / 1e6 / (ns / 1e9))
            })
            .collect();
        out.push((
            "compress.decode_mb_per_s",
            percentile(&mb_per_s, 100.0 - QUIET_PERCENTILE).unwrap_or(0.0),
        ));
    }
}

impl Workload for Scan {
    fn ops(&self) -> &'static [&'static str] {
        OPS
    }

    fn pass(&mut self, pass: &mut Pass<'_>) {
        for (i, (plan, want)) in self.plans.iter().zip(&self.reference).enumerate() {
            let Some(result) = pass.op(i, |exec| exec.plan(&self.db, plan, &self.opts)) else {
                continue;
            };
            pass.check(
                i,
                if pass.verify {
                    Answer::from_result(&result).matches(want)
                } else {
                    same_count("rows", result.num_rows(), want.num_rows())
                },
            );
        }
    }

    fn stored_bytes(&self) -> u64 {
        table_stored_bytes(&self.table)
    }

    fn user_bytes(&self) -> u64 {
        table_user_bytes(&self.table)
    }

    fn setup_parts(&self) -> SetupParts {
        self.setup
    }

    fn degraded(&self) -> bool {
        nproc() < self.threads_wanted
    }

    fn layer_metrics(&mut self, view: &mut TracedView<'_>) -> Vec<(&'static str, f64)> {
        let mut out = Vec::new();
        self.vector_metrics(view, &mut out);
        let probed = match self.variant {
            Variant::Raw => self.spill_probe(view, &mut out),
            Variant::Compressed => {
                self.compress_metrics(view, &mut out);
                Ok(())
            }
            Variant::TwoThreads => self.parallel_metrics(view, &mut out),
        };
        if let Err(why) = probed {
            view.tally.record("per-layer probe", Err(why));
        }
        out
    }
}
