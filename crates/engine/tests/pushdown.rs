//! Compression-aware execution: fused `CompressedScanSelect` tests.
//!
//! Every test compares a plan over a checkpoint-compressed table, where
//! the predicate runs in encoded space, against the same plan over a
//! never-checkpointed copy of the same rows, which has no compressed
//! column and so runs the ordinary decode-then-select pipeline — the two
//! must be byte-identical in all circumstances: residual conjuncts,
//! deletes, predicates on the columns a checkpoint turns into enum
//! columns, parallel morsels, and torn chunk writes.

use x100_engine::check_plan;
use x100_engine::expr::*;
use x100_engine::ops::OrdExp;
use x100_engine::plan::Plan;
use x100_engine::session::{execute, Database, ExecOptions};
use x100_engine::AggExpr;
use x100_storage::{ChunkFormat, Table, TableBuilder};
use x100_vector::{ScalarType, Value, Vector};

const N: i64 = 50_000;

/// A fact table engineered so the checkpoint stores each column
/// differently: `id` sorted → PFOR-DELTA, `k` narrow unsorted → PFOR,
/// `grp` few wide values and `tag` low-card strings → enum columns,
/// `qty` → PFOR (scaled f64).
fn fact_table() -> Table {
    TableBuilder::new("fact")
        .column("id", Vector::I64((0..N).collect()))
        .column("k", Vector::I64((0..N).map(|i| (i * 7) % 1000).collect()))
        .column(
            "grp",
            Vector::I64(
                (0..N)
                    .map(|i| [1_000_000_007, 5, 123_456_789][(i % 3) as usize])
                    .collect(),
            ),
        )
        .column("tag", {
            let mut c = Vector::with_capacity(ScalarType::Str, 0);
            for i in 0..N {
                let s = ["alpha", "beta", "gamma", "delta"][(i % 4) as usize];
                c.push_value(&Value::Str(s.into()));
            }
            c
        })
        .column(
            "qty",
            Vector::F64((0..N).map(|i| (i % 9973) as f64 * 0.25).collect()),
        )
        .build()
}

/// `t` alone in a catalog.
fn db_of(t: Table) -> Database {
    let mut db = Database::new();
    db.register(t);
    db
}

/// The fact table, checkpoint-compressed or never (the oracle).
fn fact_table_as(checkpoint: bool) -> Table {
    let mut t = fact_table();
    if checkpoint {
        t.checkpoint();
    }
    t
}

/// The fact table, never checkpointed.
fn raw_db() -> Database {
    db_of(fact_table())
}

fn fact_db() -> Database {
    let mut t = fact_table();
    let verdicts = t.checkpoint();
    let fmt = |name: &str| {
        verdicts
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, f, _)| *f)
            .unwrap()
    };
    assert_eq!(fmt("id"), ChunkFormat::PforDelta, "{verdicts:?}");
    assert_eq!(fmt("k"), ChunkFormat::Pfor, "{verdicts:?}");
    assert_eq!(fmt("qty"), ChunkFormat::Pfor, "{verdicts:?}");
    for name in ["grp", "tag"] {
        assert!(t.column_by_name(name).dict().is_some(), "{name} enumerated");
    }
    db_of(t)
}

fn profiled() -> ExecOptions {
    ExecOptions::default().profiled()
}

/// Run `plan` over the raw copy and the compressed table; assert
/// identical rows and that the compressed run actually took the
/// pushdown path. Returns its profiler for extra counter assertions.
fn assert_fused_matches(raw: &Database, db: &Database, plan: &Plan) -> x100_engine::Profiler {
    let (want, rp) = execute(raw, plan, &profiled()).expect("raw");
    assert!(rp.counter("pushdown_vectors").is_none(), "raw scan pushed");
    let (got, fp) = execute(db, plan, &profiled()).expect("fused");
    assert_eq!(want.row_strings(), got.row_strings());
    assert!(
        fp.counter("pushdown_vectors").unwrap_or(0) > 0,
        "no pushdown"
    );
    fp
}

#[test]
fn pfor_predicates_match_ablation_per_operator() {
    let (raw, db) = (raw_db(), fact_db());
    let preds = [
        lt(col("k"), lit_i64(100)),
        le(col("k"), lit_i64(99)),
        gt(col("k"), lit_i64(900)),
        ge(col("k"), lit_i64(901)),
        eq(col("k"), lit_i64(7)),
        // Literal-on-the-left normalizes by flipping the operator.
        gt(lit_i64(50), col("k")),
    ];
    let windows = (N as usize).div_ceil(profiled().vector_size) as u64;
    for pred in preds {
        let plan = Plan::scan("fact", &["id", "k", "qty"]).select(pred.clone());
        let prof = assert_fused_matches(&raw, &db, &plan);
        // One encoded-space selection per refill; the columns then
        // refill as in any scan and report the same decode counters.
        assert_eq!(prof.counter("pushdown_vectors"), Some(windows), "{pred:?}");
        assert!(prof.counter("scan_bytes_compressed").unwrap_or(0) > 0);
        assert!(prof.counter("decode_exceptions").is_some());
        // One operator row covers select + refill.
        let ops: Vec<&str> = prof.operators().map(|(op, _)| op).collect();
        assert_eq!(ops, ["CompressedScanSelect"], "{pred:?}");
    }
}

#[test]
fn ge_lt_over_integers_fuses_as_one_between() {
    let (raw, db) = (raw_db(), fact_db());
    // `k >= 200 AND k < 251` is `k BETWEEN 200 AND 250`.
    let plan = Plan::scan("fact", &["id", "k"])
        .select(and(ge(col("k"), lit_i64(200)), lt(col("k"), lit_i64(251))));
    let prof = assert_fused_matches(&raw, &db, &plan);
    assert!(prof.primitive("cmp_pfor_between_i64_col_val_val").is_some());
    let log = check_plan(&db, &plan, &profiled())
        .expect("checks")
        .render();
    assert!(log.contains("residual []"), "no conjunct left above: {log}");
    // Below the type's minimum there is no `hi − 1`: the pair stays two
    // conjuncts (one pushed, one residual), and still selects nothing.
    let plan = Plan::scan("fact", &["id", "k"]).select(and(
        ge(col("k"), lit_i64(200)),
        lt(col("k"), lit_i64(i64::MIN)),
    ));
    let summary = check_plan(&db, &plan, &profiled()).expect("checks");
    assert!(
        !summary.render().contains("between"),
        "{}",
        summary.render()
    );
    let (got, _) = execute(&db, &plan, &profiled()).expect("runs");
    assert_eq!(got.num_rows(), 0);
}

#[test]
fn ge_le_conjunction_fuses_as_one_between() {
    let (raw, db) = (raw_db(), fact_db());
    let plan = Plan::scan("fact", &["id", "k"])
        .select(and(ge(col("k"), lit_i64(200)), le(col("k"), lit_i64(250))));
    let prof = assert_fused_matches(&raw, &db, &plan);
    assert!(
        prof.primitive("cmp_pfor_between_i64_col_val_val").is_some(),
        "range pair should collapse into a single encoded Between"
    );
}

#[test]
fn enum_column_predicates_match_the_raw_table() {
    let (raw, db) = (raw_db(), fact_db());
    for (pred, codes) in [
        (eq(col("tag"), lit_str("beta")), true),
        (ne(col("tag"), lit_str("gamma")), true),
        (lt(col("grp"), lit_i64(1_000_000)), false),
        (eq(col("grp"), lit_i64(123_456_789)), false),
    ] {
        let plan = Plan::scan("fact", &["id", "tag", "grp"]).select(pred.clone());
        let (want, _) = execute(&raw, &plan, &profiled()).expect("raw");
        let (got, prof) = execute(&db, &plan, &profiled()).expect("enum");
        assert_eq!(want.row_strings(), got.row_strings(), "{pred:?}");
        // An enum column is no pushdown target. Where only the predicate
        // reads it, a string literal becomes its dictionary code and the
        // select compares one-byte codes; any other predicate compares
        // decoded values.
        assert!(prof.counter("pushdown_vectors").is_none(), "{pred:?}");
        let ids = Plan::scan("fact", &["id", "tag", "grp"])
            .select(pred.clone())
            .project(vec![("id", col("id"))]);
        let log = check_plan(&db, &ids, &profiled()).expect("checks").render();
        assert_eq!(log.contains("_u8_col_val"), codes, "{pred:?}: {log}");
    }
}

/// One answer per storage form: string ordering is not a predicate the
/// engine runs, so `tag < 'c'` is the same typed error over the raw
/// table, the checkpointed one (`tag` an enum column there), and the
/// checkpointed one with a pending insert.
#[test]
fn string_ordering_is_refused_in_every_storage_form() {
    let plan = Plan::scan("fact", &["id", "tag"]).select(lt(col("tag"), lit_str("c")));
    let mut pending = fact_table_as(true);
    pending.insert(&[
        Value::I64(N),
        Value::I64(42),
        Value::I64(5),
        Value::Str("beta".into()),
        Value::F64(1.5),
    ]);
    for (form, db) in [
        ("raw", raw_db()),
        ("checkpointed", fact_db()),
        ("checkpointed + insert", db_of(pending)),
    ] {
        match execute(&db, &plan, &profiled()) {
            Err(x100_engine::PlanError::PlanCheck {
                violation: x100_engine::CheckViolation::TypeMismatch { signature, detail },
                ..
            }) => {
                assert_eq!(signature, "select_eq_str_col_val", "{form}");
                assert!(detail.contains("only = / !="), "{form}: {detail}");
            }
            other => panic!("{form}: {:?}", other.map(|(r, _)| r.num_rows())),
        }
    }
}

#[test]
fn int_literal_coerces_to_narrow_and_float_columns() {
    // `k` is I64 so this exercises same-type; `qty` is F64 and the
    // I64 literal must coerce rather than falling back.
    let plan = Plan::scan("fact", &["k", "qty"]).select(lt(col("qty"), lit_i64(10)));
    assert_fused_matches(&raw_db(), &fact_db(), &plan);
}

#[test]
fn residual_conjuncts_run_as_a_select_above_the_fused_scan() {
    // `qty * 2 < k` is not pushable (expression over two columns); it
    // must survive as a residual Select over compacted batches.
    let plan = Plan::scan("fact", &["id", "k", "qty"]).select(and(
        lt(col("k"), lit_i64(300)),
        lt(
            mul(col("qty"), lit_f64(2.0)),
            cast(ScalarType::F64, col("k")),
        ),
    ));
    assert_fused_matches(&raw_db(), &fact_db(), &plan);
}

#[test]
fn pushdown_under_aggregation_across_threads() {
    let db = fact_db();
    let plan = Plan::scan("fact", &["k", "grp", "qty"])
        .select(lt(col("k"), lit_i64(100)))
        .aggr(
            vec![("grp", col("grp"))],
            vec![AggExpr::sum("s", col("qty")), AggExpr::count("c")],
        )
        .order(vec![OrdExp::asc("grp")]);
    let (want, _) = execute(&raw_db(), &plan, &profiled()).expect("raw");
    for threads in [1usize, 2, 4, 8] {
        let (got, prof) = execute(&db, &plan, &profiled().parallel(threads)).expect("fused");
        assert_eq!(want.row_strings(), got.row_strings(), "threads={threads}");
        assert!(
            prof.counter("pushdown_vectors").unwrap_or(0) > 0,
            "threads={threads} skipped the pushdown"
        );
    }
}

#[test]
fn deletes_fold_into_the_encoded_selection() {
    // Delete a mix of rows that would and would not pass `k < 100`.
    let deleted = |checkpoint: bool| {
        let mut t = fact_table_as(checkpoint);
        for r in (0..N as u32).step_by(17) {
            assert!(t.delete(r));
        }
        db_of(t)
    };
    let plan = Plan::scan("fact", &["id", "k", "tag"]).select(lt(col("k"), lit_i64(100)));
    assert_fused_matches(&deleted(false), &deleted(true), &plan);
}

/// The pushed refill ≡ the raw table over the whole space its decisions
/// span: selectivity {0, one row, ~2 %, ~50 %, all} × predicate column
/// {PFOR i32, PFOR f64 with 22 % exceptions, enum i64, enum str} with
/// every other column riding along as a co-column (incl. PFOR-DELTA and
/// enum f64, aggregated under the select) × deletes × threads
/// {1, 2, 4, 8} × vector size {7, 1024}. Only the PFOR columns push
/// their predicate; the enum columns answer the same rows from codes.
mod matrix {
    use super::*;

    const ROWS: usize = 6_000;
    const ONE: usize = 4_321;

    /// `id` sorted → PFOR-DELTA; `p` even numbers, unsorted → PFOR i32;
    /// `f` Q1-shaped f64 → PFOR, two in nine values exceptions; `g` five
    /// wide values → enum i64; `s` four strings → enum str; `d` 97
    /// square roots, which no decimal scale makes exact → enum f64. Row
    /// `ONE` holds the one odd `p`, the maximum `f`, the one `g` = 42 and
    /// the one `s` = "zeta". Checkpointed or never (the oracle).
    fn table(deletes: bool, checkpoint: bool) -> Table {
        let gs = |i: usize| match i {
            ONE => 42,
            _ if i.is_multiple_of(50) => 5,
            _ if i.is_multiple_of(2) => 1_000_000_007,
            _ => 123_456_789i64,
        };
        let mut s = Vector::with_capacity(ScalarType::Str, 0);
        for i in 0..ROWS {
            let v = match i {
                ONE => "zeta",
                _ if i.is_multiple_of(50) => "beta",
                _ if i.is_multiple_of(2) => "alpha",
                _ => "gamma",
            };
            s.push_value(&Value::Str(v.into()));
        }
        let mut t = TableBuilder::new("m")
            .column("id", Vector::I64((0..ROWS as i64).collect()))
            .column("p", Vector::I32((0..ROWS).map(p_at).collect()))
            .column(
                "f",
                Vector::F64(
                    (0..ROWS)
                        .map(|i| match i % 9 {
                            _ if i == ONE => 1_000.5,
                            0 | 1 => (i as f64 * 0.731).sqrt(),
                            _ => (i % 5_000) as f64 / 100.0,
                        })
                        .collect(),
                ),
            )
            .column("g", Vector::I64((0..ROWS).map(gs).collect()))
            .column("s", s)
            .column(
                "d",
                Vector::F64((0..ROWS).map(|i| ((i % 97) as f64 + 2.0).sqrt()).collect()),
            )
            .build();
        if checkpoint {
            let verdicts = t.checkpoint();
            let want = [
                ("id", ChunkFormat::PforDelta),
                ("p", ChunkFormat::Pfor),
                ("f", ChunkFormat::Pfor),
            ];
            for (name, fmt) in want {
                let got = verdicts.iter().find(|(n, _, _)| n == name).map(|v| v.1);
                assert_eq!(got, Some(fmt), "{name}: {verdicts:?}");
            }
            for name in ["g", "s", "d"] {
                assert!(t.column_by_name(name).dict().is_some(), "{name} enumerated");
            }
        }
        if deletes {
            for r in (3..ROWS as u32).step_by(13) {
                assert!(t.delete(r));
            }
        }
        t
    }

    /// `p` of row `i`: distinct even numbers, but an odd one at `ONE`.
    fn p_at(i: usize) -> i32 {
        if i == ONE {
            7_777
        } else {
            2 * ((i * 7_919) % 10_007) as i32
        }
    }

    /// Per predicate column: predicates selecting no row, one row,
    /// ~2 %, ~50 % and every row. A predicate true on every row is
    /// folded away by the facts before it could be pushed, so "all" is
    /// every row but the one holding the extreme value.
    fn predicates() -> Vec<(&'static str, Expr)> {
        let p_max = (0..ROWS).map(p_at).max().expect("rows");
        vec![
            ("p none", eq(col("p"), lit_i32(5_001))),
            ("p one", eq(col("p"), lit_i32(7_777))),
            ("p 2%", lt(col("p"), lit_i32(400))),
            ("p 50%", lt(col("p"), lit_i32(10_007))),
            ("p all", lt(col("p"), lit_i32(p_max))),
            ("f none", eq(col("f"), lit_f64(12.345))),
            ("f one", gt(col("f"), lit_f64(500.0))),
            ("f 2%", lt(col("f"), lit_f64(1.0))),
            ("f 50%", lt(col("f"), lit_f64(25.0))),
            ("f all", lt(col("f"), lit_f64(1_000.0))),
            ("g none", eq(col("g"), lit_i64(6))),
            ("g one", eq(col("g"), lit_i64(42))),
            ("g 2%", eq(col("g"), lit_i64(5))),
            ("g 50%", eq(col("g"), lit_i64(123_456_789))),
            ("g all", ne(col("g"), lit_i64(42))),
            ("s none", eq(col("s"), lit_str("omega"))),
            ("s one", eq(col("s"), lit_str("zeta"))),
            ("s 2%", eq(col("s"), lit_str("beta"))),
            ("s 50%", eq(col("s"), lit_str("gamma"))),
            ("s all", ne(col("s"), lit_str("zeta"))),
        ]
    }

    #[test]
    fn pushed_refill_matches_ablation_across_the_matrix() {
        for deletes in [false, true] {
            let (raw, db) = (db_of(table(deletes, false)), db_of(table(deletes, true)));
            for (what, pred) in predicates() {
                let rows = Plan::scan("m", &["id", "p", "f", "g", "s", "d"]).select(pred.clone());
                let grouped = rows.clone().aggr(
                    vec![("s", col("s"))],
                    vec![
                        AggExpr::sum("fs", col("f")),
                        AggExpr::min("lo", col("id")),
                        AggExpr::max("hi", col("p")),
                        AggExpr::max("gm", col("g")),
                        AggExpr::min("dm", col("d")),
                        AggExpr::count("c"),
                    ],
                );
                let grouped = grouped.order(vec![OrdExp::asc("s")]);
                for vs in [7usize, 1024] {
                    for threads in [1usize, 2, 4, 8] {
                        let opts = ExecOptions::with_vector_size(vs)
                            .profiled()
                            .parallel(threads)
                            .with_morsel_size(1_000);
                        let case = format!("{what}, deletes {deletes}, vs {vs}, threads {threads}");
                        // Rows once per vector size; the grouped plan at
                        // every thread count.
                        let plans = if threads == 1 {
                            vec![&rows, &grouped]
                        } else {
                            vec![&grouped]
                        };
                        for plan in plans {
                            let (want, _) = execute(&raw, plan, &opts).expect("raw");
                            let (got, prof) = execute(&db, plan, &opts).expect("pushed");
                            assert_eq!(got.row_strings(), want.row_strings(), "{case}");
                            let pfor = what.starts_with('p') || what.starts_with('f');
                            assert_eq!(
                                prof.counter("pushdown_vectors").unwrap_or(0) > 0,
                                pfor,
                                "{case}: pushed only on a PFOR column"
                            );
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn delta_rows_disable_fusion_until_reorganize() {
    let inserted = |checkpoint: bool| {
        let mut t = fact_table_as(checkpoint);
        t.insert(&[
            Value::I64(N),
            Value::I64(42),
            Value::I64(5),
            Value::Str("beta".into()),
            Value::F64(1.5),
        ]);
        db_of(t)
    };
    let plan = Plan::scan("fact", &["id", "k"]).select(lt(col("k"), lit_i64(100)));
    let (want, _) = execute(&inserted(false), &plan, &profiled()).expect("raw");
    let (got, prof) = execute(&inserted(true), &plan, &profiled()).expect("fused opts");
    assert_eq!(want.row_strings(), got.row_strings());
    // Unfiltered delta rows must never leak: with pending inserts the
    // binder declines to fuse, and the walk log says so under the Select.
    assert!(prof.counter("pushdown_vectors").is_none());
    let walk = check_plan(&inserted(true), &plan, &profiled()).expect("checks");
    let at = walk
        .report
        .iter()
        .position(|l| l.starts_with("root: Select →"));
    assert_eq!(
        at.and_then(|i| walk.report.get(i + 1)).map(String::as_str),
        Some(
            "root: CompressedScanSelect `k` [cmp_pfor_lt_i64_col_val] declined: \
             pending inserts (1 rows) bypass the compressed fragment"
        ),
        "{:?}",
        walk.report
    );
    // Nothing to decline over a raw table.
    let walk = check_plan(&inserted(false), &plan, &profiled()).expect("checks");
    assert!(!walk.render().contains("declined"), "{}", walk.render());
}

#[test]
fn checker_reports_the_fused_operator() {
    let db = fact_db();
    let plan = Plan::scan("fact", &["id", "k", "qty"]).select(and(
        lt(col("k"), lit_i64(100)),
        lt(
            mul(col("qty"), lit_f64(2.0)),
            cast(ScalarType::F64, col("k")),
        ),
    ));
    let summary = check_plan(&db, &plan, &profiled()).expect("checks");
    let log = summary.render();
    assert!(log.contains("CompressedScanSelect"), "{log}");
    assert!(log.contains("cmp_pfor_lt_i64_col_val"), "{log}");
    // The raw table checks (and binds) the classic Scan→Select shape.
    let summary = check_plan(&raw_db(), &plan, &profiled()).expect("checks");
    let log = summary.render();
    assert!(!log.contains("CompressedScanSelect"), "{log}");
}

/// A star schema for the positional joins: the join-index `#rowId`
/// column is sorted so the chooser PFOR-DELTA-encodes it, and the
/// dimension's payload columns compress too — `name`, 300 strings
/// mostly among the first 256, as an enum column whose two-byte codes
/// take one-byte PFOR lanes. A fetch still gathers from the dimension's
/// resident fragment; its chunks serve scans only.
mod star {
    use super::*;

    const ROWS: i64 = 30_000;
    const DIM: u32 = 5_000;

    fn facts() -> Table {
        TableBuilder::new("facts")
            // Sorted join index → PFOR-DELTA.
            .column("fk", Vector::U32((0..ROWS).map(|i| i as u32 / 6).collect()))
            .column("v", Vector::I64((0..ROWS).map(|i| i % 311).collect()))
            .build()
    }

    fn dim() -> Table {
        TableBuilder::new("dim")
            .column(
                "val",
                Vector::I64((0..DIM as i64).map(|c| c * 3 % 1009).collect()),
            )
            .column("name", {
                let mut c = Vector::with_capacity(ScalarType::Str, 0);
                for i in 0..DIM {
                    let n = match i % 50 {
                        0 => 256 + (i / 50) % 44,
                        _ => i % 256,
                    };
                    c.push_value(&Value::Str(format!("N{n:03}")));
                }
                c
            })
            .build()
    }

    /// Orders each owning a contiguous `[olo, olo + ocnt)` range of
    /// `dim` rows (never checkpointed: only `dim` is fetched from).
    fn orders() -> Table {
        TableBuilder::new("orders")
            .column(
                "olo",
                Vector::U32((0..1000u32).map(|i| i * 5 % DIM).collect()),
            )
            .column("ocnt", Vector::U32((0..1000u32).map(|i| i % 4).collect()))
            .build()
    }

    /// The star, checkpointed or not; `tear` then flips a payload byte
    /// of every dimension column's chunk in memory.
    fn star_db(checkpoint: bool, tear: bool) -> Database {
        let (mut f, mut d) = (facts(), dim());
        if checkpoint {
            let vf = f.checkpoint();
            assert!(
                vf.iter()
                    .any(|(n, fmt, _)| n == "fk" && *fmt == ChunkFormat::PforDelta),
                "join index should PFOR-DELTA-encode: {vf:?}"
            );
            let vd = d.checkpoint();
            assert!(
                vd.iter().all(|(_, fmt, _)| *fmt != ChunkFormat::Raw),
                "dimension columns should compress: {vd:?}"
            );
        }
        if tear {
            for col in 0..2 {
                assert!(d.corrupt_compressed_payload(col, 0, 7), "column {col}");
            }
        }
        let mut db = Database::new();
        db.register(f);
        db.register(d);
        db.register(orders());
        db
    }

    fn fetch1_plan() -> Plan {
        Plan::scan("facts", &["fk", "v"]).fetch1(
            "dim",
            col("fk"),
            &[("val", "val"), ("name", "name")],
        )
    }

    fn fetchn_plan() -> Plan {
        Plan::FetchNJoin {
            input: Box::new(Plan::scan("orders", &["olo", "ocnt"])),
            table: "dim".into(),
            lo: col("olo"),
            cnt: col("ocnt"),
            fetch: vec![("val".into(), "val".into()), ("name".into(), "name".into())],
        }
    }

    #[test]
    fn fetch1join_gathers_from_compressed_chunks() {
        let plan = fetch1_plan();
        let (want, _) = execute(&star_db(false, false), &plan, &profiled()).expect("raw");
        let (got, _) = execute(&star_db(true, false), &plan, &profiled()).expect("compressed");
        assert_eq!(want.row_strings(), got.row_strings());
    }

    #[test]
    fn fetchnjoin_ranges_seek_from_sync_points() {
        let plan = fetchn_plan();
        let (want, _) = execute(&star_db(false, false), &plan, &profiled()).expect("raw");
        let (got, _) = execute(&star_db(true, false), &plan, &profiled()).expect("compressed");
        assert_eq!(want.row_strings(), got.row_strings());
    }

    /// A fetch never reads chunks: with every dimension chunk torn in
    /// memory, both fetch-joins return the never-checkpointed answer and
    /// the recovery ladder never runs — no recovery, no heal.
    #[test]
    fn fetches_never_read_torn_dimension_chunks() {
        for plan in [fetch1_plan(), fetchn_plan()] {
            let (want, _) = execute(&star_db(false, false), &plan, &profiled()).expect("raw");
            let (got, prof) = execute(&star_db(true, true), &plan, &profiled()).expect("torn");
            assert_eq!(want.row_strings(), got.row_strings());
            assert_eq!(prof.counter("decode_recoveries"), None);
            assert_eq!(prof.counter("chunk_heals"), None);
            assert!(prof.counter("fetch_unchecked_dispatches").unwrap_or(0) > 0);
        }
    }

    /// A dimension chunk torn by the checkpoint write itself: the fetch
    /// gathers from the fragment, so it never meets the torn chunk.
    #[cfg(feature = "fault-inject")]
    #[test]
    fn torn_checkpoint_write_never_reaches_a_fetch() {
        use x100_engine::FaultPlan;
        use x100_storage::FaultState;
        let plan = fetch1_plan();
        let (want, _) = execute(&star_db(false, false), &plan, &profiled()).expect("raw");
        let (mut f, mut d) = (facts(), dim());
        f.checkpoint();
        let fs = FaultState::new(FaultPlan::default().tear(0, 0, 7));
        d.try_checkpoint(Some(&fs))
            .expect("torn write appears to succeed");
        assert_eq!(fs.injected(), 1);
        let mut db = Database::new();
        db.register(f);
        db.register(d);
        let (got, prof) = execute(&db, &plan, &profiled()).expect("fetches");
        assert_eq!(want.row_strings(), got.row_strings());
        assert_eq!(prof.counter("decode_recoveries"), None);
    }
}

/// Torn-write fault mode end-to-end: a checkpoint whose compressed
/// chunk is silently corrupted must surface through the per-chunk
/// checksum and recover from the retained raw fragment — correct rows,
/// never wrong ones, with the recovery visible in the profile.
#[cfg(feature = "fault-inject")]
mod torn {
    use super::*;
    use x100_engine::FaultPlan;
    use x100_storage::FaultState;

    fn torn_db(col: u32, chunk: u32, byte: u32) -> Database {
        let mut t = fact_table();
        let fs = FaultState::new(FaultPlan::default().tear(col, chunk, byte));
        t.try_checkpoint(Some(&fs))
            .expect("torn write appears to succeed");
        assert_eq!(fs.injected(), 1);
        db_of(t)
    }

    #[test]
    fn torn_predicate_column_recovers_with_correct_rows() {
        let plan = Plan::scan("fact", &["id", "k", "tag"]).select(lt(col("k"), lit_i64(100)));
        let (want, _) = execute(&raw_db(), &plan, &profiled()).expect("clean");
        // Column 1 is `k`, the pushdown target (one chunk at 50k rows).
        let db = torn_db(1, 0, 13);
        let (got, prof) = execute(&db, &plan, &profiled()).expect("recovers");
        assert_eq!(want.row_strings(), got.row_strings());
        assert!(prof.counter("decode_recoveries").unwrap_or(0) > 0);
    }

    #[test]
    fn torn_payload_column_recovers_with_correct_rows() {
        let plan = Plan::scan("fact", &["id", "k", "qty"]).select(lt(col("k"), lit_i64(100)));
        let (want, _) = execute(&raw_db(), &plan, &profiled()).expect("clean");
        // Column 4 is `qty`, a lazily-decoded co-column.
        let db = torn_db(4, 0, 21);
        let (got, prof) = execute(&db, &plan, &profiled()).expect("recovers");
        assert_eq!(want.row_strings(), got.row_strings());
        assert!(prof.counter("decode_recoveries").unwrap_or(0) > 0);
    }

    #[test]
    fn torn_chunk_on_dense_scan_recovers_too() {
        let plan = Plan::scan("fact", &["id", "k", "qty"]);
        let (want, _) = execute(&raw_db(), &plan, &profiled()).expect("clean");
        let db = torn_db(4, 0, 3);
        let (got, prof) = execute(&db, &plan, &profiled()).expect("recovers");
        assert_eq!(want.row_strings(), got.row_strings());
        assert!(prof.counter("decode_recoveries").unwrap_or(0) > 0);
    }
}
