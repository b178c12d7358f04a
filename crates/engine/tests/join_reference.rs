//! `HashJoin` against the paper's default join, `Join` = `CartProd` +
//! `Select` (§4.1.2), on random inputs: every join type, key types
//! i32 / i64 / string / two columns, duplicate rates from "one key" to
//! "all distinct", a selection vector below the probe, empty sides,
//! vector sizes 8 and 1024, one and two threads.
//!
//! The nested loop compares the integers the keys are derived from
//! (expressions compare strings with constants only); a key is a
//! one-to-one image of its integer, so the two joins pair the same rows.

use proptest::prelude::*;
use std::collections::BTreeMap;
use x100_engine::expr::*;
use x100_engine::ops::JoinType;
use x100_engine::plan::Plan;
use x100_engine::session::{execute, Database, ExecOptions};
use x100_engine::AggExpr;
use x100_storage::{ColumnData, Table, TableBuilder};
use x100_vector::{ScalarType, Value};

/// One side's table: per row the two integers its keys derive from
/// (`<p>a`, `<p>b`), the typed keys, and a row id (`<p>v`, from 1 so the
/// outer join's default 0 is no row's).
fn side(name: &str, p: &str, rows: &[(u32, u32)], extra: Option<(&str, Vec<i64>)>) -> Table {
    let strs = |f: fn(&(u32, u32)) -> u32| {
        let mut c = ColumnData::new(ScalarType::Str);
        for r in rows {
            c.push_value(&Value::Str(format!("key-{}", f(r))));
        }
        c
    };
    let ints = |f: fn(&(u32, u32)) -> i64| ColumnData::I64(rows.iter().map(f).collect());
    let mut t = TableBuilder::new(name)
        .column(format!("{p}a"), ints(|r| r.0 as i64))
        .column(format!("{p}b"), ints(|r| r.1 as i64))
        .column(
            format!("{p}_i32"),
            ColumnData::I32(rows.iter().map(|r| r.0 as i32 - 7).collect()),
        )
        .column(format!("{p}_i64"), ints(|r| r.0 as i64 * 1_000_003))
        .column(format!("{p}_s"), strs(|r| r.0))
        .column(format!("{p}_s2"), strs(|r| r.1))
        .column(
            format!("{p}v"),
            ColumnData::I64((1..=rows.len() as i64).collect()),
        );
    if let Some((col, vals)) = extra {
        t = t.column(col, ColumnData::I64(vals));
    }
    t.build()
}

fn pairs_of(res: &x100_engine::QueryResult, a: &str, b: &str) -> Vec<(i64, i64)> {
    let (a, b) = (
        res.column_by_name(a).as_i64(),
        res.column_by_name(b).as_i64(),
    );
    a.iter().copied().zip(b.iter().copied()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    #[test]
    fn hash_join_matches_nested_loop_join(
        domain in prop_oneof![Just(1u32), Just(4u32), Just(50u32), Just(1000u32)],
        build_rows in prop_oneof![Just(0usize), 1usize..200],
        probe_rows in prop_oneof![Just(0usize), 1usize..200],
        seed in 0u32..1000,
        key in 0usize..4,
        // Probe rows with `f < cut` survive the selection below the join.
        cut in prop_oneof![Just(0i64), Just(3i64), Just(10i64)],
        big_vectors in prop::bool::ANY,
    ) {
        let draw = |i: usize, salt: u32| {
            let x = (i as u32 + 1).wrapping_mul(2_654_435_761).wrapping_add(seed * salt);
            (x >> 7) % domain
        };
        let rows = |n: usize, salt: u32| -> Vec<(u32, u32)> {
            (0..n).map(|i| (draw(i, salt), draw(i, salt + 1) % 3)).collect()
        };
        let f: Vec<i64> = (0..probe_rows).map(|i| draw(i, 9) as i64 % 10).collect();
        let mut db = Database::new();
        db.register(side("b", "b", &rows(build_rows, 3), None));
        db.register(side("p", "p", &rows(probe_rows, 5), Some(("f", f))));
        let (build_keys, probe_keys, two_columns) = match key {
            0 => (vec![col("b_i32")], vec![col("p_i32")], false),
            1 => (vec![col("b_i64")], vec![col("p_i64")], false),
            2 => (vec![col("b_s")], vec![col("p_s")], false),
            _ => (
                vec![col("b_i32"), col("b_s2")],
                vec![col("p_i32"), col("p_s2")],
                true,
            ),
        };
        let selected = |cols: &[&str]| Plan::scan("p", cols).select(lt(col("f"), lit_i64(cut)));
        let seq = ExecOptions::with_vector_size(if big_vectors { 1024 } else { 8 });

        // The reference: nested loop over the key integers, and the
        // probe rows the selection lets through.
        let same = eq(col("pa"), col("ba"));
        let nested = Plan::Join {
            input: Box::new(selected(&["pa", "pb", "pv", "f"])),
            table: "b".into(),
            pred: if two_columns { and(same, eq(col("pb"), col("bb"))) } else { same },
            fetch: ["ba", "bb", "bv"].map(|c| (c.to_string(), c.to_string())).to_vec(),
        };
        let (res, _) = execute(&db, &nested, &seq).expect("nested loop");
        let inner = pairs_of(&res, "pv", "bv");
        let (res, _) = execute(&db, &selected(&["pv", "f"]), &seq).expect("probe side");
        let probed: Vec<i64> = res.column_by_name("pv").as_i64().to_vec();
        let matched = |pv: &i64| inner.iter().any(|(p, _)| p == pv);

        for join_type in [
            JoinType::Inner,
            JoinType::LeftOuter,
            JoinType::LeftSemi,
            JoinType::LeftAnti,
        ] {
            let keeps_rows = matches!(join_type, JoinType::Inner | JoinType::LeftOuter);
            // (probe row, build row); semi/anti pair a survivor with 0.
            let mut want: Vec<(i64, i64)> = match join_type {
                JoinType::Inner => inner.clone(),
                JoinType::LeftOuter => {
                    let unmatched = probed.iter().filter(|pv| !matched(pv));
                    inner.iter().copied().chain(unmatched.map(|&pv| (pv, 0))).collect()
                }
                JoinType::LeftSemi => probed.iter().filter(|pv| matched(pv)).map(|&pv| (pv, 0)).collect(),
                JoinType::LeftAnti => probed.iter().filter(|pv| !matched(pv)).map(|&pv| (pv, 0)).collect(),
            };
            want.sort_unstable();
            let join = Plan::HashJoin {
                build: Box::new(Plan::scan("b", &["b_i32", "b_i64", "b_s", "b_s2", "bv"])),
                probe: Box::new(selected(&["p_i32", "p_i64", "p_s", "p_s2", "pv", "f"])),
                build_keys: build_keys.clone(),
                probe_keys: probe_keys.clone(),
                payload: if keeps_rows { vec![("bv".into(), "bv".into())] } else { vec![] },
                join_type,
            };
            let (res, _) = execute(&db, &join, &seq).expect("hash join");
            let mut got = if keeps_rows {
                pairs_of(&res, "pv", "bv")
            } else {
                pairs_of(&res, "pv", "pv").into_iter().map(|(pv, _)| (pv, 0)).collect()
            };
            got.sort_unstable();
            prop_assert_eq!(&got, &want, "{:?}, key shape {}", join_type, key);

            // Under an aggregation the morsel workers share one table.
            let mut per_probe_row: BTreeMap<i64, (i64, i64)> = BTreeMap::new();
            for (pv, bv) in &want {
                let e = per_probe_row.entry(*pv).or_default();
                *e = (e.0 + 1, e.1 + bv);
            }
            let sum_of = if keeps_rows { "bv" } else { "f" };
            let grouped = join.aggr(
                vec![("pv", col("pv"))],
                vec![AggExpr::count("n"), AggExpr::sum("s", col(sum_of))],
            );
            for threads in [1, 2] {
                let opts = seq.clone().parallel(threads).with_morsel_size(32);
                let (res, _) = execute(&db, &grouped, &opts).expect("grouped");
                let n = res.column_by_name("n").as_i64();
                let s = res.column_by_name("s").as_i64();
                let got: BTreeMap<i64, (i64, i64)> = res
                    .column_by_name("pv")
                    .as_i64()
                    .iter()
                    .enumerate()
                    .map(|(r, &pv)| (pv, (n[r], if keeps_rows { s[r] } else { 0 })))
                    .collect();
                prop_assert_eq!(&got, &per_probe_row, "{:?}, {} threads", join_type, threads);
            }
        }
    }
}
