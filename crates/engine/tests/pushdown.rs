//! Checkpointed tables answer as raw ones.
//!
//! Every test compares a plan over a table in one of the storage forms
//! a checkpoint leaves — `Table::checkpoint` (low-cardinality columns
//! turned into enum columns) or a durable checkpoint reopened with
//! `Table::open` (every fragment decoded back from its PFOR or
//! PFOR-DELTA chunks, which are then dropped) — against the same plan
//! over a never-checkpointed copy of the same rows. The two must be
//! byte-identical in all circumstances: predicates per operator, enum
//! columns, deletes, parallel morsels, positional fetches, and chunks
//! torn between encode and write. A scan reads only the resident
//! fragment, whatever the form.

use std::sync::atomic::{AtomicUsize, Ordering};
use x100_engine::check_plan;
use x100_engine::expr::*;
use x100_engine::ops::OrdExp;
use x100_engine::plan::Plan;
use x100_engine::session::{execute, Database, ExecOptions};
use x100_engine::{AggExpr, DurableOptions, FaultPlan};
use x100_storage::{ChunkFormat, FaultState, Table, TableBuilder, Verdicts};
use x100_vector::{ScalarType, Value, Vector};

const N: i64 = 50_000;

/// A fact table engineered so the durable checkpoint stores each column
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

/// `t` durably checkpointed (under `fault`, if any) and reopened from
/// its segments, with the commit's verdicts.
fn reopened(mut t: Table, fault: Option<&FaultState>) -> (Table, Verdicts) {
    static CASE: AtomicUsize = AtomicUsize::new(0);
    let case = CASE.fetch_add(1, Ordering::SeqCst);
    let dir = std::env::temp_dir().join(format!("x100-reopened-{}-{case}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let verdicts = t
        .try_checkpoint_durable(&dir, &DurableOptions::default(), fault)
        .expect("durable checkpoint");
    let back = Table::open(&dir).expect("reopen");
    let _ = std::fs::remove_dir_all(&dir);
    (back, verdicts)
}

/// `name`'s format in `verdicts`.
fn format_of(verdicts: &Verdicts, name: &str) -> Option<ChunkFormat> {
    verdicts.iter().find(|(n, _, _)| n == name).map(|v| v.1)
}

/// The fact table, checkpointed (enumerated) or never (the oracle).
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

/// The fact table reopened from its durable checkpoint.
fn fact_db() -> Database {
    let (t, verdicts) = reopened(fact_table(), None);
    assert_eq!(
        format_of(&verdicts, "id"),
        Some(ChunkFormat::PforDelta),
        "{verdicts:?}"
    );
    assert_eq!(
        format_of(&verdicts, "k"),
        Some(ChunkFormat::Pfor),
        "{verdicts:?}"
    );
    assert_eq!(
        format_of(&verdicts, "qty"),
        Some(ChunkFormat::Pfor),
        "{verdicts:?}"
    );
    for name in ["grp", "tag"] {
        assert!(t.column_by_name(name).dict().is_some(), "{name} enumerated");
    }
    db_of(t)
}

fn profiled() -> ExecOptions {
    ExecOptions::default().profiled()
}

/// Run `plan` over the raw copy and the checkpointed table; assert
/// identical rows. Returns the checkpointed run's profiler.
fn assert_matches(raw: &Database, db: &Database, plan: &Plan) -> x100_engine::Profiler {
    let (want, _) = execute(raw, plan, &profiled()).expect("raw");
    let (got, prof) = execute(db, plan, &profiled()).expect("checkpointed");
    assert_eq!(want.row_strings(), got.row_strings());
    prof
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
    for pred in preds {
        let plan = Plan::scan("fact", &["id", "k", "qty"]).select(pred.clone());
        let prof = assert_matches(&raw, &db, &plan);
        // A plain scan of the fragment under an ordinary select.
        let mut ops: Vec<&str> = prof.operators().map(|(op, _)| op).collect();
        ops.sort_unstable();
        assert_eq!(ops, ["Scan", "Select"], "{pred:?}");
    }
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
        let (got, _) = execute(&db, &plan, &profiled()).expect("enum");
        assert_eq!(want.row_strings(), got.row_strings(), "{pred:?}");
        // Where only the predicate reads an enum column, a string
        // literal becomes its dictionary code and the select compares
        // one-byte codes; any other predicate compares decoded values.
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
        ("checkpointed", db_of(fact_table_as(true))),
        ("reopened", fact_db()),
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
    // `qty` is F64 (PFOR-encoded on disk): the I64 literal is promoted
    // by the select, as over the raw table.
    let plan = Plan::scan("fact", &["k", "qty"]).select(lt(col("qty"), lit_i64(10)));
    assert_matches(&raw_db(), &fact_db(), &plan);
}

/// A reopened table ≡ the raw table over the whole space a scan's
/// decisions span: selectivity {0, one row, ~2 %, ~50 %, all} ×
/// predicate column {PFOR i32, PFOR f64 with 22 % exceptions, enum i64,
/// enum str} with every other column riding along as a co-column (incl.
/// PFOR-DELTA and enum f64, aggregated under the select) × deletes ×
/// threads {1, 2, 4, 8} × vector size {7, 1024}. The enum columns
/// answer the same rows from codes.
mod matrix {
    use super::*;

    const ROWS: usize = 6_000;
    const ONE: usize = 4_321;

    /// `id` sorted → PFOR-DELTA; `p` even numbers, unsorted → PFOR i32;
    /// `f` Q1-shaped f64 → PFOR, two in nine values exceptions; `g` five
    /// wide values → enum i64; `s` four strings → enum str; `d` 97
    /// square roots, which no decimal scale makes exact → enum f64. Row
    /// `ONE` holds the one odd `p`, the maximum `f`, the one `g` = 42 and
    /// the one `s` = "zeta". Reopened from a durable checkpoint or
    /// never checkpointed (the oracle); deletes are pending.
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
            let verdicts;
            (t, verdicts) = reopened(t, None);
            let want = [
                ("id", ChunkFormat::PforDelta),
                ("p", ChunkFormat::Pfor),
                ("f", ChunkFormat::Pfor),
            ];
            for (name, fmt) in want {
                assert_eq!(
                    format_of(&verdicts, name),
                    Some(fmt),
                    "{name}: {verdicts:?}"
                );
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
    /// folded away by the facts before it runs, so "all" is every row
    /// but the one holding the extreme value.
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
    fn reopened_tables_match_raw_across_the_matrix() {
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
                            let (got, _) = execute(&db, plan, &opts).expect("reopened");
                            assert_eq!(got.row_strings(), want.row_strings(), "{case}");
                        }
                    }
                }
            }
        }
    }
}

/// A star schema for the positional joins: the join-index `#rowId`
/// column is sorted so the chooser PFOR-DELTA-encodes it, and the
/// dimension's payload columns compress too — `name`, 300 strings
/// mostly among the first 256, as an enum column whose two-byte codes
/// take one-byte PFOR lanes. A fetch gathers from the dimension's
/// resident fragment, which `open` decoded from those chunks.
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

    /// The star, reopened from durable checkpoints or never
    /// checkpointed; with `tear`, the dimension's commit flips a payload
    /// byte of each of its columns' first chunk between encode and write.
    fn star_db(checkpoint: bool, tear: bool) -> Database {
        let (mut f, mut d) = (facts(), dim());
        if checkpoint {
            let vf;
            (f, vf) = reopened(f, None);
            assert_eq!(format_of(&vf, "fk"), Some(ChunkFormat::PforDelta), "{vf:?}");
            let fault = FaultState::new(FaultPlan::default().tear(0, 0, 7).tear(1, 0, 7));
            let vd;
            (d, vd) = reopened(d, tear.then_some(&fault));
            let want = if tear {
                ChunkFormat::Raw
            } else {
                ChunkFormat::Pfor
            };
            assert!(vd.iter().all(|v| v.1 == want), "dimension columns: {vd:?}");
            assert_eq!(fault.injected(), if tear { 2 } else { 0 });
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
    fn fetchnjoin_ranges_read_the_reopened_fragment() {
        let plan = fetchn_plan();
        let (want, _) = execute(&star_db(false, false), &plan, &profiled()).expect("raw");
        let (got, _) = execute(&star_db(true, false), &plan, &profiled()).expect("compressed");
        assert_eq!(want.row_strings(), got.row_strings());
    }

    /// A fetch never reads chunks: with every dimension chunk torn on its
    /// way to disk, the commit stores raw values instead, and both
    /// fetch-joins return the never-checkpointed answer.
    #[test]
    fn fetches_never_read_torn_dimension_chunks() {
        for plan in [fetch1_plan(), fetchn_plan()] {
            let (want, _) = execute(&star_db(false, false), &plan, &profiled()).expect("raw");
            let (got, prof) = execute(&star_db(true, true), &plan, &profiled()).expect("torn");
            assert_eq!(want.row_strings(), got.row_strings());
            assert!(prof.counter("fetch_unchecked_dispatches").unwrap_or(0) > 0);
        }
    }
}
