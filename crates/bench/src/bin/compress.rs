//! Lightweight compression sweep (beyond the paper, §5-adjacent):
//! vectorized in-cache decompression vs raw columnar scans.
//!
//! Two experiments, both written to `BENCH_compress.json`:
//!
//! 1. **Micro sweep** — one table per codec (PFOR over decimal f64,
//!    PFOR-DELTA over a sorted i64 key, PDICT over a low-cardinality
//!    f64), scanned through a `Select(k < t) → Aggr` pipeline across
//!    format × selectivity × vector size. Every cell checks the
//!    compressed answer against the raw twin's.
//! 2. **Q1-style headline** — a lineitem variant with *plain* f64
//!    `l_quantity` / `l_extendedprice` (the standard build enum-encodes
//!    quantity, which would hide the codec), low-selectivity shipdate
//!    filter, aggregates chosen to be bit-exact under any summation
//!    order (count / sum of integer-valued qty / min / max), swept over
//!    threads {1, 2, 4, 8} raw vs checkpoint-compressed.
//!
//! The aggregates are deliberately order-independent so
//! `matches_sequential` demands *byte-identical* results, not
//! tolerance-equal ones: decompression is exact or it is broken.
//!
//! Usage: `compress [--sf 1.0] [--reps 7] [--rows 2097152] [--smoke]`
//!
//! `--smoke` shrinks everything to a CI-sized correctness pass; it
//! still exercises every codec and thread count but makes no timing
//! claims.

use std::time::Instant;
use tpch::gen::{generate_lineitem_q1, GenConfig};
use x100_bench::{arg_f64, arg_flag, arg_usize, secs};
use x100_engine::expr::{col, lit_i64, lt, AggExpr};
use x100_engine::plan::Plan;
use x100_engine::session::{execute, Database, ExecOptions};
use x100_storage::{ColumnData, Table, TableBuilder};

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.total_cmp(b));
    xs[xs.len() / 2]
}

/// Deterministic xorshift so the sweep needs no rand dependency here.
struct Rng(u64);
impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }
}

/// One micro-sweep dataset: the codec-bearing value column `v`, plus a
/// uniform i64 `k` in `0..1000` that the selectivity predicate cuts.
struct MicroTable {
    name: &'static str,
    raw: Database,
    comp: Database,
    chosen: String,
    ratio_pct: u64,
    /// Multiplier mapping the per-mille threshold into the key domain:
    /// `k < t·pred_scale` keeps the same fraction of rows as `k' < t`
    /// over the unscaled key, so one selectivity axis serves every
    /// table regardless of how its key column is encoded.
    pred_scale: i64,
}

fn micro_table(name: &'static str, v: ColumnData, k: Vec<i64>, pred_scale: i64) -> MicroTable {
    let build = |checkpoint: bool| -> (Database, String, u64) {
        let mut t: Table = TableBuilder::new("t")
            .column("v", v.clone())
            .column("k", ColumnData::I64(k.clone()))
            .build();
        let (chosen, ratio) = if checkpoint {
            t.checkpoint();
            let c = t.column_by_name("v").compressed();
            (
                c.map_or("raw".to_owned(), |c| c.format().name().to_owned()),
                c.map_or(100, |c| c.ratio_pct()),
            )
        } else {
            ("raw".to_owned(), 100)
        };
        let mut db = Database::new();
        db.register(t);
        (db, chosen, ratio)
    };
    let (raw, _, _) = build(false);
    let (comp, chosen, ratio_pct) = build(true);
    MicroTable {
        name,
        raw,
        comp,
        chosen,
        ratio_pct,
        pred_scale,
    }
}

/// Build the four micro datasets (`rows` each).
fn micro_tables(rows: usize) -> Vec<MicroTable> {
    let mut rng = Rng(0x000C_0DEC_5EED);
    let k: Vec<i64> = (0..rows).map(|_| (rng.next() % 1000) as i64).collect();

    // PFOR: decimal-scaled f64 (cents), wide value range, a sprinkle of
    // outliers that must go to exception blocks.
    let pfor: Vec<f64> = (0..rows)
        .map(|i| {
            let cents =
                (rng.next() % 5_000_000) as i64 + if i % 5000 == 0 { 4_000_000_000 } else { 0 };
            (cents as f64) / 100.0
        })
        .collect();

    // PFOR-DELTA: non-decreasing i64 (an order-key-like column).
    let mut acc = 0i64;
    let pfordelta: Vec<i64> = (0..rows)
        .map(|_| {
            acc += (rng.next() % 8) as i64;
            acc
        })
        .collect();

    // PDICT: 128 distinct non-decimal doubles — PFOR cannot scale
    // these exactly, so the dictionary codec is the only candidate.
    let dict_vals: Vec<f64> = (0..128)
        .map(|_| (rng.next() as f64) / (u64::MAX as f64) + 0.1)
        .collect();
    let pdict: Vec<f64> = (0..rows)
        .map(|_| dict_vals[(rng.next() % 128) as usize])
        .collect();

    // PDICT *predicate* column: the same 1000-valued key stretched over
    // a ~1e12 range, so PFOR needs the full 64-bit lane (no savings)
    // and the dictionary codec wins. The selection then runs over
    // 16-bit codes via the rewritten dictionary predicate rather than
    // over packed PFOR lanes.
    const SPREAD: i64 = 1_000_000_007;
    let k_spread: Vec<i64> = k.iter().map(|&x| x * SPREAD).collect();
    let pfor_v: Vec<f64> = (0..rows)
        .map(|_| ((rng.next() % 5_000_000) as f64) / 100.0)
        .collect();

    vec![
        micro_table("pfor", ColumnData::F64(pfor), k.clone(), 1),
        micro_table("pfordelta", ColumnData::I64(pfordelta), k.clone(), 1),
        micro_table("pdict", ColumnData::F64(pdict), k, 1),
        micro_table("pdictkey", ColumnData::F64(pfor_v), k_spread, SPREAD),
    ]
}

/// `Select(k < t) → Aggr[count, min(v), max(v)]` — order-independent
/// aggregates, so raw and compressed answers must match byte for byte.
fn micro_plan(sel: f64, pred_scale: i64) -> Plan {
    let thresh = (sel * 1000.0).round() as i64 * pred_scale;
    Plan::scan("t", &["v", "k"])
        .select(lt(col("k"), lit_i64(thresh)))
        .aggr(
            vec![],
            vec![
                AggExpr::count("n"),
                AggExpr::min("mn", col("v")),
                AggExpr::max("mx", col("v")),
            ],
        )
}

/// The Q1-style lineitem variant: plain f64 quantity/extendedprice so
/// the scan decodes PFOR chunks rather than enum codes.
fn build_plain_lineitem(li: &tpch::gen::RawLineitem, checkpoint: bool) -> Database {
    // `l_extendedprice` is decimal(12,2) in TPC-H; the float generator
    // leaves product-rounding noise past the cents digit, so normalize
    // to the nearest exact-cents double (same data on both sides).
    let price: Vec<f64> = li
        .extendedprice
        .iter()
        .map(|&v| (v * 100.0).round() / 100.0)
        .collect();
    let mut t = TableBuilder::new("lineitem")
        .column("l_quantity", ColumnData::F64(li.quantity.clone()))
        .column("l_extendedprice", ColumnData::F64(price))
        .column("l_shipdate", ColumnData::I32(li.shipdate.clone()))
        .build();
    if checkpoint {
        t.checkpoint();
    }
    let mut db = Database::new();
    db.register(t);
    db
}

/// Bit-exact Q1-style aggregate over a low-selectivity shipdate filter.
fn q1_style_plan(date_cut: i32) -> Plan {
    Plan::scan("lineitem", &["l_quantity", "l_extendedprice", "l_shipdate"])
        .select(lt(col("l_shipdate"), lit_i64(date_cut as i64)))
        .aggr(
            vec![],
            vec![
                AggExpr::count("n"),
                AggExpr::sum("sum_qty", col("l_quantity")),
                AggExpr::min("min_price", col("l_extendedprice")),
                AggExpr::max("max_price", col("l_extendedprice")),
            ],
        )
}

#[allow(clippy::too_many_lines)]
fn main() {
    let smoke = arg_flag("--smoke");
    let sf = arg_f64("--sf", if smoke { 0.01 } else { 1.0 });
    let reps = arg_usize("--reps", if smoke { 1 } else { 7 });
    let micro_rows = arg_usize("--rows", if smoke { 1 << 16 } else { 1 << 21 });

    let selectivities: &[f64] = if smoke { &[0.02] } else { &[0.02, 0.5, 0.98] };
    let vector_sizes: &[usize] = if smoke { &[1024] } else { &[256, 1024, 4096] };
    let threads_axis: &[usize] = &[1, 2, 4, 8];

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    // Same contract as the other benches: every BENCH_*.json carries
    // `available_parallelism` + `degraded` so a consumer never has to
    // guess whether a flat thread-scaling curve is a regression.
    let degraded = cores == 1;
    if degraded {
        eprintln!(
            "warning: only 1 core available; thread sweeps will be flat and this run is marked \"degraded\": true"
        );
    }

    let mut json = String::new();
    json.push_str("{\n  \"bench\": \"compress\",\n");
    json.push_str(&format!("  \"smoke\": {smoke},\n"));
    json.push_str(&format!("  \"available_parallelism\": {cores},\n"));
    json.push_str(&format!("  \"degraded\": {degraded},\n"));

    // ---- Micro sweep: format × selectivity × vector size ----
    println!("micro sweep: {micro_rows} rows per codec table");
    println!(
        "{:>10} {:>10} {:>6} {:>6} {:>12} {:>12} {:>9}  check",
        "format", "chosen", "sel", "vsize", "raw (s)", "comp (s)", "speedup"
    );
    json.push_str(&format!("  \"micro_rows\": {micro_rows},\n"));
    json.push_str("  \"micro\": [\n");
    let tables = micro_tables(micro_rows);
    let mut first = true;
    let mut all_match = true;
    for mt in &tables {
        for &sel in selectivities {
            let plan = micro_plan(sel, mt.pred_scale);
            for &vs in vector_sizes {
                let opts = ExecOptions::with_vector_size(vs);
                let time = |db: &Database| -> (f64, Vec<String>) {
                    let mut times = Vec::with_capacity(reps);
                    let mut rows = Vec::new();
                    for _ in 0..reps {
                        let t0 = Instant::now();
                        let (r, _) = execute(db, &plan, &opts).expect("micro plan");
                        times.push(secs(t0.elapsed()));
                        rows = r.row_strings();
                    }
                    (median(times), rows)
                };
                let (raw_s, raw_rows) = time(&mt.raw);
                let (comp_s, comp_rows) = time(&mt.comp);
                let matches = raw_rows == comp_rows;
                all_match &= matches;
                let speedup = if comp_s > 0.0 { raw_s / comp_s } else { 0.0 };
                println!(
                    "{:>10} {:>10} {:>6} {:>6} {:>12.6} {:>12.6} {:>8.2}x  {}",
                    mt.name,
                    mt.chosen,
                    sel,
                    vs,
                    raw_s,
                    comp_s,
                    speedup,
                    if matches { "match" } else { "MISMATCH" }
                );
                if !first {
                    json.push_str(",\n");
                }
                first = false;
                json.push_str(&format!(
                    "    {{\"format\": \"{}\", \"chosen\": \"{}\", \"ratio_pct\": {}, \"selectivity\": {sel}, \"vector_size\": {vs}, \"raw_s\": {raw_s:.6}, \"comp_s\": {comp_s:.6}, \"speedup\": {speedup:.3}, \"matches\": {matches}}}",
                    mt.name, mt.chosen, mt.ratio_pct
                ));
            }
        }
    }
    json.push_str("\n  ],\n");

    // ---- Pushdown sweep: encoded-space selection vs decode-then-select ----
    // Same codec tables, same `Select(k < t) → Aggr` pipeline, but now
    // the interesting axis is *execution strategy* on the compressed
    // table: the fused `CompressedScanSelect` (predicate evaluated over
    // packed lanes / dictionary codes into a selection vector, the
    // predicate column never decoded) against the decode-then-select
    // ablation. Low selectivity is where skipping the `Select` pays;
    // every cell also checks the answer
    // against the raw table, and thread counts {1, 2, 4, 8} must agree
    // byte for byte.
    let push_sels: &[f64] = if smoke {
        &[0.02, 0.5]
    } else {
        &[0.02, 0.1, 0.5, 0.98]
    };
    println!("\npushdown sweep: fused encoded-space selection vs decode-then-select");
    println!(
        "{:>10} {:>10} {:>6} {:>12} {:>12} {:>9}  check",
        "format", "chosen", "sel", "ablated (s)", "pushed (s)", "speedup"
    );
    json.push_str("  \"pushdown\": [\n");
    let mut first = true;
    for mt in &tables {
        let kfmt = {
            let t = mt.comp.table("t").expect("t");
            t.column_by_name("k")
                .compressed()
                .map_or("raw".to_owned(), |c| c.format().name().to_owned())
        };
        for &sel in push_sels {
            let plan = micro_plan(sel, mt.pred_scale);
            let (reference, _) =
                execute(&mt.raw, &plan, &ExecOptions::default()).expect("raw reference");
            let reference = reference.row_strings();
            let time = |opts: &ExecOptions| -> (f64, Vec<String>) {
                let mut times = Vec::with_capacity(reps);
                let mut rows = Vec::new();
                for _ in 0..reps {
                    let t0 = Instant::now();
                    let (r, _) = execute(&mt.comp, &plan, opts).expect("pushdown plan");
                    times.push(secs(t0.elapsed()));
                    rows = r.row_strings();
                }
                (median(times), rows)
            };
            let (abl_s, abl_rows) = time(&ExecOptions::default().with_compressed_pushdown(false));
            let (push_s, push_rows) = time(&ExecOptions::default());
            let mut matches = abl_rows == reference && push_rows == reference;
            // Thread identity: the fused refill runs per morsel; every
            // worker count must reproduce the sequential answer.
            for &threads in threads_axis {
                let (r, _) = execute(&mt.comp, &plan, &ExecOptions::default().parallel(threads))
                    .expect("parallel pushdown");
                matches &= r.row_strings() == reference;
            }
            all_match &= matches;
            let speedup = if push_s > 0.0 { abl_s / push_s } else { 0.0 };
            println!(
                "{:>10} {:>10} {:>6} {:>12.6} {:>12.6} {:>8.2}x  {}",
                mt.name,
                kfmt,
                sel,
                abl_s,
                push_s,
                speedup,
                if matches { "match" } else { "MISMATCH" }
            );
            if !first {
                json.push_str(",\n");
            }
            first = false;
            json.push_str(&format!(
                "    {{\"format\": \"{}\", \"pred_col_format\": \"{kfmt}\", \"selectivity\": {sel}, \"ablated_s\": {abl_s:.6}, \"pushed_s\": {push_s:.6}, \"speedup\": {speedup:.3}, \"matches\": {matches}}}",
                mt.name
            ));
        }
    }
    json.push_str("\n  ],\n");

    // ---- Q1-style headline: raw vs compressed across threads ----
    let li = generate_lineitem_q1(&GenConfig::new(sf));
    let rows = li.len();
    // Low selectivity: the 2 % shipdate quantile. The scan still
    // decodes every row of all three columns; the filter only keeps
    // the aggregate out of the measurement.
    let mut dates = li.shipdate.clone();
    dates.sort_unstable();
    let date_cut = dates[rows / 50];
    let selectivity = li.shipdate.iter().filter(|&&d| d < date_cut).count() as f64 / rows as f64;

    let db_raw = build_plain_lineitem(&li, false);
    let db_comp = build_plain_lineitem(&li, true);
    let fmt_of = |db: &Database, name: &str| -> (String, u64) {
        let t = db.table("lineitem").expect("lineitem");
        let c = t.column_by_name(name).compressed();
        (
            c.map_or("raw".to_owned(), |c| c.format().name().to_owned()),
            c.map_or(100, |c| c.ratio_pct()),
        )
    };
    let plan = q1_style_plan(date_cut);
    let (reference, _) = execute(&db_raw, &plan, &ExecOptions::default()).expect("sequential ref");
    let reference = reference.row_strings();

    println!("\nQ1-style scan: SF {sf} ({rows} rows), selectivity {selectivity:.4}");
    for c in ["l_quantity", "l_extendedprice", "l_shipdate"] {
        let (f, r) = fmt_of(&db_comp, c);
        println!("  {c}: {f} ({r}% of raw)");
    }
    println!(
        "{:>8} {:>12} {:>12} {:>9}  check",
        "threads", "raw (s)", "comp (s)", "speedup"
    );

    json.push_str(&format!(
        "  \"q1_style\": {{\n    \"sf\": {sf},\n    \"rows\": {rows},\n    \"selectivity\": {selectivity:.6},\n"
    ));
    json.push_str("    \"formats\": {");
    for (i, c) in ["l_quantity", "l_extendedprice", "l_shipdate"]
        .iter()
        .enumerate()
    {
        let (f, r) = fmt_of(&db_comp, c);
        json.push_str(&format!(
            "{}\"{c}\": {{\"format\": \"{f}\", \"ratio_pct\": {r}}}",
            if i > 0 { ", " } else { "" }
        ));
    }
    json.push_str("},\n    \"runs\": [\n");

    let mut speedups = Vec::new();
    for (i, &threads) in threads_axis.iter().enumerate() {
        let opts = ExecOptions::default().parallel(threads);
        // Interleave raw/compressed reps so machine-speed drift over the
        // measurement window biases neither side.
        let mut raw_times = Vec::with_capacity(reps);
        let mut comp_times = Vec::with_capacity(reps);
        let mut raw_rows = Vec::new();
        let mut comp_rows = Vec::new();
        for _ in 0..reps {
            let t0 = Instant::now();
            let (r, _) = execute(&db_raw, &plan, &opts).expect("q1-style raw");
            raw_times.push(secs(t0.elapsed()));
            raw_rows = r.row_strings();
            let t0 = Instant::now();
            let (r, _) = execute(&db_comp, &plan, &opts).expect("q1-style comp");
            comp_times.push(secs(t0.elapsed()));
            comp_rows = r.row_strings();
        }
        let (raw_s, comp_s) = (median(raw_times), median(comp_times));
        // Order-independent aggregates: every thread count and both
        // storage formats must reproduce the reference byte for byte.
        let matches = raw_rows == reference && comp_rows == reference;
        all_match &= matches;
        let speedup = if comp_s > 0.0 { raw_s / comp_s } else { 0.0 };
        speedups.push(speedup);
        println!(
            "{threads:>8} {raw_s:>12.6} {comp_s:>12.6} {speedup:>8.2}x  {}",
            if matches { "match" } else { "MISMATCH" }
        );
        json.push_str(&format!(
            "      {{\"threads\": {threads}, \"raw_s\": {raw_s:.6}, \"comp_s\": {comp_s:.6}, \"speedup\": {speedup:.3}, \"matches_sequential\": {matches}}}{}\n",
            if i + 1 < threads_axis.len() { "," } else { "" }
        ));
    }
    let med_speedup = median(speedups);
    println!("median compressed-scan speedup: {med_speedup:.2}x");
    json.push_str("    ],\n");
    json.push_str(&format!(
        "    \"median_speedup\": {med_speedup:.3}\n  }}\n}}\n"
    ));

    std::fs::write("BENCH_compress.json", &json).expect("write BENCH_compress.json");
    println!("\nwrote BENCH_compress.json");

    if !all_match {
        eprintln!("MISMATCH between raw and compressed results");
        std::process::exit(1);
    }
}
