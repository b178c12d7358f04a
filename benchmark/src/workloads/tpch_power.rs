//! `tpch_power`: all 22 TPC-H queries, one after another, on the
//! default options (paper Table 4).

use super::{table_stored_bytes, table_user_bytes, SetupParts, TracedView, Workload};
use crate::answer::Answer;
use crate::harness::{same_count, Pass, Tally};
use crate::stats::geomean;
use std::time::Instant;
use tpch::gen::{generate, GenConfig};
use tpch::queries::{all_specs, run_mil, run_x100, QuerySpec};
use x100_engine::session::{Database, ExecOptions};

const OPS: &[&str] = &[
    "q01", "q02", "q03", "q04", "q05", "q06", "q07", "q08", "q09", "q10", "q11", "q12", "q13",
    "q14", "q15", "q16", "q17", "q18", "q19", "q20", "q21", "q22",
];

pub struct TpchPower {
    db: Database,
    specs: Vec<QuerySpec>,
    /// The MIL interpreter's answer to each query.
    reference: Vec<Answer>,
    opts: ExecOptions,
    setup: SetupParts,
}

impl TpchPower {
    pub fn build(seed: u64, sf: f64, tally: &mut Tally) -> Result<Self, String> {
        let t0 = Instant::now();
        let data = generate(&GenConfig { sf, seed });
        let gen_s = t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        let db = tpch::build_x100_db(&data);
        let build_s = t0.elapsed().as_secs_f64();
        drop(data);

        let opts = ExecOptions::default();
        let specs: Vec<QuerySpec> = all_specs().into_iter().map(|(_, spec)| spec).collect();
        if specs.len() != OPS.len() {
            return Err(format!(
                "{} query specs, expected {}",
                specs.len(),
                OPS.len()
            ));
        }
        let mut reference = Vec::with_capacity(specs.len());
        let mut ratios = Vec::with_capacity(specs.len());
        for (name, spec) in OPS.iter().zip(&specs) {
            let t0 = Instant::now();
            let mil = run_mil(&db, spec).map_err(|e| format!("{name} on MIL: {e}"))?;
            let mil_s = t0.elapsed().as_secs_f64();
            let t0 = Instant::now();
            let x100 = run_x100(&db, spec, &opts).map_err(|e| format!("{name}: {e}"))?;
            ratios.push(mil_s / t0.elapsed().as_secs_f64());
            let want = Answer::from_mil(&mil);
            tally.record(name, Answer::from_result(&x100).matches(&want));
            reference.push(want);
        }
        Ok(TpchPower {
            db,
            specs,
            reference,
            opts,
            setup: SetupParts {
                gen_s,
                build_s,
                mil_over_x100_geomean: geomean(&ratios).unwrap_or(0.0),
            },
        })
    }

    fn tables(&self) -> impl Iterator<Item = std::sync::Arc<x100_storage::Table>> + '_ {
        self.db
            .table_names()
            .filter_map(|name| self.db.table(name).ok())
    }
}

impl Workload for TpchPower {
    fn ops(&self) -> &'static [&'static str] {
        OPS
    }

    fn pass(&mut self, pass: &mut Pass<'_>) {
        for (i, (spec, want)) in self.specs.iter().zip(&self.reference).enumerate() {
            let Some(result) = pass.op(i, |exec| exec.query(&self.db, spec, &self.opts)) else {
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
        self.tables().map(|t| table_stored_bytes(&t)).sum()
    }

    fn user_bytes(&self) -> u64 {
        self.tables().map(|t| table_user_bytes(&t)).sum()
    }

    fn setup_parts(&self) -> SetupParts {
        self.setup
    }

    fn layer_metrics(&mut self, _view: &mut TracedView<'_>) -> Vec<(&'static str, f64)> {
        Vec::new()
    }
}
