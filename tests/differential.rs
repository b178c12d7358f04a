//! Differential property testing: the X100 vectorized engine against
//! the Volcano tuple-at-a-time baseline, **byte-for-byte**.
//!
//! Both engines evaluate the same IEEE-754 operations in the same
//! per-row order (X100's per-group accumulators update in scan order,
//! exactly like Volcano's per-tuple `update_field` calls), so float
//! aggregates must agree to the last bit — compared via `to_bits`, not
//! an epsilon. Every randomly composed plan is also asserted to pass
//! the bind-time checker (`check_plan`) before execution.
//!
//! Seeds are pinned: the proptest shim derives its RNG seed from the
//! test name, so failures replay identically run-to-run.

use monetdb_x100::engine::expr::*;
use monetdb_x100::engine::plan::Plan;
use monetdb_x100::engine::session::{execute, Database, ExecOptions};
use monetdb_x100::engine::{check_plan, AggExpr};
use monetdb_x100::storage::{DurableOptions, Table, TableBuilder};
use monetdb_x100::vector::{CmpOp, Vector};
use monetdb_x100::volcano::item::{ItemCmp, ItemCondAnd};
use monetdb_x100::volcano::{
    build, AggKind, AggSpec, Counters, FieldType, HashAggregate, ItemOp, RecordTable, ScanSelect,
};
use proptest::prelude::*;

/// One generated row: group key code, two small exact-in-f64 values.
type Row = (u8, f64, f64);

/// The same rows materialized for both engines: a columnar X100 table
/// (i64 key, f64 values) and an NSM `RecordTable` (char key, f64
/// values).
fn make_both(rows: &[Row]) -> (Database, RecordTable) {
    let t = TableBuilder::new("t")
        .column("k", Vector::I64(rows.iter().map(|r| r.0 as i64).collect()))
        .column("v", Vector::F64(rows.iter().map(|r| r.1).collect()))
        .column("w", Vector::F64(rows.iter().map(|r| r.2).collect()))
        .build();
    let mut db = Database::new();
    db.register(t);

    let mut rt = RecordTable::new(vec![
        ("k".into(), FieldType::Char),
        ("v".into(), FieldType::F64),
        ("w".into(), FieldType::F64),
    ]);
    for &(k, v, w) in rows {
        rt.append_row().set_char(0, k).set_f64(1, v).set_f64(2, w);
    }
    (db, rt)
}

/// A random conjunct: compare column `v` (field 1) or `w` (field 2)
/// against a small integer-valued literal.
#[derive(Debug, Clone, Copy)]
struct Pred {
    on_w: bool,
    op: CmpOp,
    lit: i8,
}

fn pred_strategy() -> impl Strategy<Value = Pred> {
    let op = prop_oneof![
        Just(CmpOp::Lt),
        Just(CmpOp::Le),
        Just(CmpOp::Gt),
        Just(CmpOp::Ge),
        Just(CmpOp::Eq),
        Just(CmpOp::Ne),
    ];
    (any::<bool>(), op, -4i8..5).prop_map(|(on_w, op, lit)| Pred { on_w, op, lit })
}

/// Comparable row: key code, count, then bit patterns of the float
/// aggregates (sum of `v*(1-w)`, avg of `v`).
type CmpRow = (u8, i64, u64, u64);

fn run_x100(db: &Database, preds: &[Pred]) -> Vec<CmpRow> {
    let mut plan = Plan::scan("t", &["k", "v", "w"]);
    for p in preds {
        let c = if p.on_w { col("w") } else { col("v") };
        plan = plan.select(cmp(p.op, c, lit_f64(p.lit as f64)));
    }
    plan = plan.aggr(
        vec![("k", col("k"))],
        vec![
            AggExpr::count("n"),
            AggExpr::sum("s", mul(col("v"), sub(lit_f64(1.0), col("w")))),
            AggExpr::avg("a", col("v")),
        ],
    );
    let opts = ExecOptions::default();
    // Every generated plan must be accepted by the bind-time verifier.
    let summary = check_plan(db, &plan, &opts).expect("generated plan must pass check_plan");
    assert!(summary.instrs > 0, "checker saw no instructions");
    let (res, _) = execute(db, &plan, &opts).expect("x100 execution");
    let k = res.column_by_name("k").as_i64();
    let n = res.column_by_name("n").as_i64();
    let s = res.column_by_name("s").as_f64();
    let a = res.column_by_name("a").as_f64();
    let mut rows: Vec<CmpRow> = (0..res.num_rows())
        .map(|i| (k[i] as u8, n[i], s[i].to_bits(), a[i].to_bits()))
        .collect();
    rows.sort_unstable();
    rows
}

fn run_volcano(rt: &RecordTable, preds: &[Pred]) -> Vec<CmpRow> {
    let cond: Option<Box<dyn monetdb_x100::volcano::CondItem>> = if preds.is_empty() {
        None
    } else {
        let items = preds
            .iter()
            .map(|p| {
                Box::new(ItemCmp {
                    op: p.op,
                    l: build::field(if p.on_w { 2 } else { 1 }),
                    r: build::constant(p.lit as f64),
                }) as Box<dyn monetdb_x100::volcano::CondItem>
            })
            .collect();
        Some(Box::new(ItemCondAnd { items }))
    };
    let aggs = vec![
        AggSpec {
            name: "n".into(),
            kind: AggKind::Count,
            item: None,
        },
        AggSpec {
            name: "s".into(),
            kind: AggKind::Sum,
            item: Some(build::func(
                ItemOp::Mul,
                build::field(1),
                build::func(ItemOp::Minus, build::constant(1.0), build::field(2)),
            )),
        },
        AggSpec {
            name: "a".into(),
            kind: AggKind::Avg,
            item: Some(build::field(1)),
        },
    ];
    let mut c = Counters::default();
    let mut scan = ScanSelect::new(rt, cond);
    let result = HashAggregate::new(vec![0], aggs).run(&mut scan, &mut c);
    let mut rows: Vec<CmpRow> = result
        .sorted_rows()
        .into_iter()
        .map(|(key, vals)| (key[0], vals[0] as i64, vals[1].to_bits(), vals[2].to_bits()))
        .collect();
    rows.sort_unstable();
    rows
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Random filtered group-by plans agree byte-for-byte between the
    /// vectorized engine and the tuple-at-a-time baseline.
    #[test]
    fn x100_matches_volcano_bit_for_bit(
        rows in prop::collection::vec(
            (0u8..6, -8i8..9, 0u8..4).prop_map(|(k, v, w)| {
                // w in exact quarters keeps every product representable,
                // though bit-equality would hold regardless: both engines
                // perform the identical op sequence per row.
                (k, v as f64, w as f64 * 0.25)
            }),
            0..300,
        ),
        preds in prop::collection::vec(pred_strategy(), 0..3),
    ) {
        let (db, rt) = make_both(&rows);
        let x100 = run_x100(&db, &preds);
        let volcano = run_volcano(&rt, &preds);
        prop_assert_eq!(x100, volcano, "engines diverged for preds {:?}", preds);
    }

    /// The byte-for-byte agreement is invariant under vector size: the
    /// accumulator update order never depends on how rows are batched.
    #[test]
    fn agreement_is_vector_size_invariant(
        rows in prop::collection::vec(
            (0u8..6, -8i8..9, 0u8..4).prop_map(|(k, v, w)| (k, v as f64, w as f64 * 0.25)),
            0..200,
        ),
        preds in prop::collection::vec(pred_strategy(), 0..2),
    ) {
        let (db, rt) = make_both(&rows);
        let volcano = run_volcano(&rt, &preds);
        for vs in [1usize, 13, 997] {
            let mut plan = Plan::scan("t", &["k", "v", "w"]);
            for p in &preds {
                let c = if p.on_w { col("w") } else { col("v") };
                plan = plan.select(cmp(p.op, c, lit_f64(p.lit as f64)));
            }
            plan = plan.aggr(
                vec![("k", col("k"))],
                vec![
                    AggExpr::count("n"),
                    AggExpr::sum("s", mul(col("v"), sub(lit_f64(1.0), col("w")))),
                    AggExpr::avg("a", col("v")),
                ],
            );
            let opts = ExecOptions::with_vector_size(vs);
            check_plan(&db, &plan, &opts).expect("plan passes the verifier");
            let (res, _) = execute(&db, &plan, &opts).expect("x100");
            let k = res.column_by_name("k").as_i64();
            let n = res.column_by_name("n").as_i64();
            let s = res.column_by_name("s").as_f64();
            let a = res.column_by_name("a").as_f64();
            let mut rows_x: Vec<CmpRow> = (0..res.num_rows())
                .map(|i| (k[i] as u8, n[i], s[i].to_bits(), a[i].to_bits()))
                .collect();
            rows_x.sort_unstable();
            prop_assert_eq!(&rows_x, &volcano, "vector size {} diverged", vs);
        }
    }
}

/// Build the columnar table durably *checkpointed* and reopened, so
/// scans read fragments `Table::open` decoded from their chunks (and
/// the columns a dictionary compresses best as enum columns).
fn make_compressed(rows: &[Row]) -> Database {
    static CASE: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
    let case = CASE.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
    let mut t = TableBuilder::new("t")
        .column("k", Vector::I64(rows.iter().map(|r| r.0 as i64).collect()))
        .column("v", Vector::F64(rows.iter().map(|r| r.1).collect()))
        .column("w", Vector::F64(rows.iter().map(|r| r.2).collect()))
        .build();
    let dir = std::env::temp_dir().join(format!("x100-diff-{}-{case}", std::process::id()));
    t.checkpoint_durable(&dir, &DurableOptions::default())
        .expect("durable checkpoint");
    let back = Table::open(&dir).expect("reopen");
    let _ = std::fs::remove_dir_all(&dir);
    let mut db = Database::new();
    db.register(back);
    db
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// The durable encoding joins the differential: any random plan
    /// over the table reopened from its chunks must agree bit-for-bit
    /// with the same plan over the never-checkpointed copy and with the
    /// tuple-at-a-time baseline.
    #[test]
    fn checkpointed_table_matches_raw_and_volcano_bit_for_bit(
        rows in prop::collection::vec(
            (0u8..6, -8i8..9, 0u8..4).prop_map(|(k, v, w)| (k, v as f64, w as f64 * 0.25)),
            1..300,
        ),
        preds in prop::collection::vec(pred_strategy(), 0..3),
    ) {
        let (raw, rt) = make_both(&rows);
        let reopened = run_x100(&make_compressed(&rows), &preds);
        prop_assert_eq!(&reopened, &run_x100(&raw, &preds), "reopened vs raw diverged");
        prop_assert_eq!(&reopened, &run_volcano(&rt, &preds), "reopened vs volcano diverged");
    }
}
