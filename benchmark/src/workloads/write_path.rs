//! `write_path`: storage and the codecs the other way round. Every pass
//! takes a fresh clone of a Q1-column `lineitem` through insert,
//! delete, a query over the deltas, reorganize, checkpoint, durable
//! checkpoint, reopen and the same query on what was reopened.

use super::{table_user_bytes, SetupParts, SplitMix, TracedView, Workload};
use crate::answer::Answer;
use crate::harness::{same_count, Pass, Tally};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;
use tpch::gen::{generate_lineitem_q1, GenConfig};
use x100_engine::expr::{add, col, le, lit_date, lit_f64, mul, sub};
use x100_engine::plan::Plan;
use x100_engine::session::{Database, ExecOptions};
use x100_engine::AggExpr;
use x100_storage::{DurableOptions, Table};
use x100_vector::Value;

const OPS: &[&str] = &[
    "insert",
    "delete",
    "query_deltas",
    "reorganize",
    "checkpoint",
    "checkpoint_durable",
    "open",
    "query_reopened",
];
const INSERT: usize = 0;
const DELETE: usize = 1;
const QUERY_DELTAS: usize = 2;
const REORGANIZE: usize = 3;
const CHECKPOINT: usize = 4;
const CHECKPOINT_DURABLE: usize = 5;
const OPEN: usize = 6;
const QUERY_REOPENED: usize = 7;

/// One row inserted per this many stored, one deleted per that many
/// (20K and 5K at 300K rows).
const ROWS_PER_INSERT: usize = 15;
const ROWS_PER_DELETE: usize = 60;

/// What the last verified pass left behind, for the size metrics.
#[derive(Debug, Default, Clone, Copy)]
struct Written {
    dir_bytes: u64,
    files: u64,
    user_bytes: u64,
    fragment_bytes: u64,
    chunk_raw_bytes: u64,
    chunk_bytes: u64,
    codec_sweeps: u64,
}

pub struct WritePath {
    base: Table,
    inserts: Vec<Vec<Value>>,
    deletes: Vec<u32>,
    /// Q1 without raw-code scans, which insert deltas do not support.
    query: Plan,
    opts: ExecOptions,
    dir: PathBuf,
    written: Written,
    heals: u64,
    setup: SetupParts,
}

fn q1_over_deltas() -> Plan {
    let disc_price = mul(sub(lit_f64(1.0), col("l_discount")), col("l_extendedprice"));
    let charge = mul(add(lit_f64(1.0), col("l_tax")), disc_price.clone());
    Plan::scan(
        "lineitem",
        &[
            "l_returnflag",
            "l_linestatus",
            "l_quantity",
            "l_extendedprice",
            "l_discount",
            "l_tax",
            "l_shipdate",
        ],
    )
    .select(le(col("l_shipdate"), lit_date(1998, 9, 2)))
    .aggr(
        vec![
            ("l_returnflag", col("l_returnflag")),
            ("l_linestatus", col("l_linestatus")),
        ],
        vec![
            AggExpr::sum("sum_qty", col("l_quantity")),
            AggExpr::sum("sum_base_price", col("l_extendedprice")),
            AggExpr::sum("sum_disc_price", disc_price),
            AggExpr::sum("sum_charge", charge),
            AggExpr::sum("sum_disc", col("l_discount")),
            AggExpr::count("count_order"),
        ],
    )
}

fn dir_size(dir: &Path) -> std::io::Result<(u64, u64)> {
    let (mut bytes, mut files) = (0, 0);
    for entry in std::fs::read_dir(dir)? {
        bytes += entry?.metadata()?.len();
        files += 1;
    }
    Ok((bytes, files))
}

impl WritePath {
    pub fn build(seed: u64, sf: f64, scratch: &Path, tally: &mut Tally) -> Result<Self, String> {
        let t0 = Instant::now();
        let li = generate_lineitem_q1(&GenConfig { sf, seed });
        let gen_s = t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        let base = tpch::db::build_lineitem(&li);
        let build_s = t0.elapsed().as_secs_f64();
        drop(li);

        let rows = base.fragment_rows();
        if rows < ROWS_PER_DELETE {
            return Err(format!("{rows} rows are too few for write_path"));
        }
        let mut rng = SplitMix(seed);
        let mut pick = || (rng.next() % rows as u64) as u32;
        let inserts = (0..rows / ROWS_PER_INSERT)
            .map(|_| base.get_row(pick()))
            .collect();
        let mut chosen = BTreeSet::new();
        while chosen.len() < rows / ROWS_PER_DELETE {
            chosen.insert(pick());
        }
        let mut w = WritePath {
            base,
            inserts,
            deletes: chosen.into_iter().collect(),
            query: q1_over_deltas(),
            opts: ExecOptions::default(),
            dir: scratch.join("durable"),
            written: Written::default(),
            heals: 0,
            setup: SetupParts {
                gen_s,
                build_s,
                mil_over_x100_geomean: 0.0,
            },
        };
        // The reference answers of this workload are its own: one
        // verified pass, untimed, before anything is measured.
        let mut tracer = crate::trace::Tracer::new();
        let mut profile = crate::harness::ProfileAcc::default();
        let mut gate = Pass::new(
            crate::harness::Mode::Plain,
            true,
            OPS,
            &mut tracer,
            &mut profile,
            tally,
        );
        w.pass(&mut gate);
        Ok(w)
    }

    fn live_after(&self, inserted: bool, deleted: bool) -> usize {
        self.base.live_rows() + if inserted { self.inserts.len() } else { 0 }
            - if deleted { self.deletes.len() } else { 0 }
    }
}

impl Workload for WritePath {
    fn ops(&self) -> &'static [&'static str] {
        OPS
    }

    fn pass(&mut self, pass: &mut Pass<'_>) {
        let mut t = self.base.clone();
        if pass
            .op(INSERT, |_| {
                for row in &self.inserts {
                    t.insert(row);
                }
                Ok(())
            })
            .is_some()
        {
            pass.check(
                INSERT,
                same_count("live rows", t.live_rows(), self.live_after(true, false)),
            );
        }
        if pass
            .op(DELETE, |_| {
                let gone = self.deletes.iter().filter(|&&id| t.delete(id)).count();
                same_count("rows deleted", gone, self.deletes.len())
            })
            .is_some()
        {
            pass.check(
                DELETE,
                same_count("live rows", t.live_rows(), self.live_after(true, true)),
            );
        }

        let mut db = Database::new();
        let shared = db.register(t);
        let over_deltas = pass
            .op(QUERY_DELTAS, |exec| exec.plan(&db, &self.query, &self.opts))
            .map(|result| Answer::from_result(&result));
        drop(db);
        let Ok(mut t) = Arc::try_unwrap(shared) else {
            pass.check(QUERY_DELTAS, Err("the query kept the table".into()));
            return;
        };

        if pass
            .op(REORGANIZE, |_| {
                t.reorganize();
                Ok(())
            })
            .is_some()
        {
            pass.check(
                REORGANIZE,
                same_count("delta rows", t.delta_rows(), 0).and_then(|()| {
                    same_count(
                        "fragment rows",
                        t.fragment_rows(),
                        self.live_after(true, true),
                    )
                }),
            );
        }
        if pass
            .op(CHECKPOINT, |_| {
                t.checkpoint();
                Ok(())
            })
            .is_some()
        {
            pass.check(
                CHECKPOINT,
                same_count("live rows", t.live_rows(), self.live_after(true, true)),
            );
        }
        let committed = pass.op(CHECKPOINT_DURABLE, |_| {
            t.checkpoint_durable(&self.dir, &DurableOptions::default())
                .map(|_| ())
                .map_err(|e| e.to_string())
        });
        if committed.is_none() {
            return;
        }
        if pass.verify {
            match dir_size(&self.dir) {
                Ok((dir_bytes, files)) => {
                    let chunks = || (0..t.num_columns()).filter_map(|i| t.column(i).compressed());
                    self.written = Written {
                        dir_bytes,
                        files,
                        user_bytes: table_user_bytes(&t),
                        fragment_bytes: (0..t.num_columns())
                            .map(|i| t.column(i).physical().byte_size() as u64)
                            .sum(),
                        chunk_raw_bytes: chunks().map(|c| c.raw_bytes()).sum(),
                        chunk_bytes: chunks().map(|c| c.compressed_bytes()).sum(),
                        codec_sweeps: t.codec_sweeps(),
                    };
                }
                Err(e) => pass.check(CHECKPOINT_DURABLE, Err(e.to_string())),
            }
        }
        drop(t);

        let Some(reopened) = pass.op(OPEN, |_| Table::open(&self.dir).map_err(|e| e.to_string()))
        else {
            return;
        };
        pass.check(
            OPEN,
            same_count(
                "live rows",
                reopened.live_rows(),
                self.live_after(true, true),
            ),
        );
        self.heals += reopened.durable_source().map_or(0, |s| s.heals());
        let mut db = Database::new();
        db.register(reopened);
        let Some(result) = pass.op(QUERY_REOPENED, |exec| {
            exec.plan(&db, &self.query, &self.opts)
        }) else {
            return;
        };
        let Some(want) = over_deltas else {
            return;
        };
        pass.check(
            QUERY_REOPENED,
            if pass.verify {
                Answer::from_result(&result).matches(&want)
            } else {
                same_count("rows", result.num_rows(), want.num_rows())
            },
        );
    }

    fn stored_bytes(&self) -> u64 {
        self.written.dir_bytes
    }

    fn user_bytes(&self) -> u64 {
        self.written.user_bytes
    }

    fn setup_parts(&self) -> SetupParts {
        self.setup
    }

    fn layer_metrics(&mut self, view: &mut TracedView<'_>) -> Vec<(&'static str, f64)> {
        let ms = view.op_quiet_ms;
        let w = self.written;
        let per_row = |ms: f64, rows: usize| ms * 1e3 / rows as f64;
        let mb_per_s = |bytes: u64, ms: f64| bytes as f64 / 1e6 / (ms / 1e3);
        let mut out = vec![
            (
                "storage.insert_us_per_row",
                per_row(ms[INSERT], self.inserts.len()),
            ),
            (
                "storage.delete_us_per_row",
                per_row(ms[DELETE], self.deletes.len()),
            ),
            ("storage.reorganize_ms", ms[REORGANIZE]),
            ("storage.query_deltas_ms", ms[QUERY_DELTAS]),
            (
                "compress.encode_mb_per_s",
                mb_per_s(w.fragment_bytes, ms[CHECKPOINT]),
            ),
            ("compress.codec_sweeps", w.codec_sweeps as f64),
            (
                "durable.write_mb_per_s",
                mb_per_s(w.dir_bytes, ms[CHECKPOINT_DURABLE]),
            ),
            (
                "durable.bytes_written_per_user_byte",
                w.dir_bytes as f64 / w.user_bytes as f64,
            ),
            ("durable.files_written", w.files as f64),
            ("durable.open_ms", ms[OPEN]),
            ("durable.heals", self.heals as f64),
        ];
        if w.chunk_raw_bytes > 0 {
            out.push((
                "compress.ratio",
                w.chunk_bytes as f64 / w.chunk_raw_bytes as f64,
            ));
        }
        out
    }
}
