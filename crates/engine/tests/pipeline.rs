//! End-to-end tests for the X100 operator pipeline.

use x100_engine::expr::*;
use x100_engine::ops::{JoinType, OrdExp};
use x100_engine::plan::Plan;
use x100_engine::session::{execute, Database, ExecOptions};
use x100_engine::{check_plan, AggExpr};
use x100_storage::TableBuilder;
use x100_vector::{CmpOp, ScalarType, Value, Vector};

/// A small "sales" table: 20 rows, enum-coded flag, plain numerics.
fn sales_db() -> Database {
    let n = 20i64;
    let t = TableBuilder::new("sales")
        .column("id", Vector::I64((0..n).collect()))
        .auto_enum_str(
            "flag",
            (0..n)
                .map(|i| if i % 3 == 0 { "A".into() } else { "B".into() })
                .collect(),
        )
        .column("qty", Vector::F64((0..n).map(|i| (i % 5) as f64).collect()))
        .column(
            "price",
            Vector::F64((0..n).map(|i| 10.0 + i as f64).collect()),
        )
        .column("day", Vector::I32((0..n as i32).collect()))
        .build();
    let mut db = Database::new();
    db.register(t);
    db
}

/// A tiny dimension table for join tests.
fn dim_db() -> Database {
    let mut db = sales_db();
    let d = TableBuilder::new("dim")
        .column("code", Vector::I64(vec![0, 1, 2, 3, 4]))
        .column("label", {
            let mut c = Vector::with_capacity(ScalarType::Str, 0);
            for s in ["zero", "one", "two", "three", "four"] {
                c.push_value(&Value::Str(s.into()));
            }
            c
        })
        .build();
    db.register(d);
    db
}

fn opts() -> ExecOptions {
    ExecOptions::default()
}

#[test]
fn scan_decodes_enum_columns() {
    let db = sales_db();
    let plan = Plan::scan("sales", &["id", "flag"]);
    let (res, _) = execute(&db, &plan, &opts()).expect("runs");
    assert_eq!(res.num_rows(), 20);
    assert_eq!(res.fields()[1].ty, ScalarType::Str);
    assert_eq!(res.value(0, 1), Value::Str("A".into()));
    assert_eq!(res.value(1, 1), Value::Str("B".into()));
}

#[test]
fn scan_surfaces_codes_to_code_readers() {
    let db = sales_db();
    // Only the predicate reads `flag`: the scan surfaces its codes.
    let plan = Plan::scan("sales", &["flag", "id"])
        .select(eq(col("flag"), lit_str("B")))
        .project(vec![("id", col("id"))]);
    let walk = check_plan(&db, &plan, &opts()).expect("checks");
    let select = &walk.facts.root().inputs()[0];
    let scan = &select.inputs()[0];
    assert_eq!(scan.fields()[0].ty, ScalarType::U8, "{}", walk.render());
    assert!(walk
        .render()
        .contains("Scan `sales` → 2 cols, codes [flag]"));
    let (res, _) = execute(&db, &plan, &opts()).expect("runs");
    assert_eq!(res.column_by_name("id").as_i64()[0], 1);
    // The result reads `flag` itself: the same scan decodes it.
    let shown = Plan::scan("sales", &["flag", "id"]).select(eq(col("flag"), lit_str("B")));
    let walk = check_plan(&db, &shown, &opts()).expect("checks");
    assert!(!walk.render().contains("codes ["), "{}", walk.render());
    let (res, _) = execute(&db, &shown, &opts()).expect("runs");
    assert_eq!(res.value(0, 0), Value::Str("B".into()));
}

#[test]
fn select_filters_without_copy() {
    let db = sales_db();
    let plan = Plan::scan("sales", &["id", "qty"]).select(lt(col("id"), lit_i64(5)));
    let (res, _) = execute(&db, &plan, &opts()).expect("runs");
    assert_eq!(res.num_rows(), 5);
    assert_eq!(res.column_by_name("id").as_i64(), &[0, 1, 2, 3, 4]);
}

#[test]
fn select_conjunction_refines() {
    let db = sales_db();
    let plan = Plan::scan("sales", &["id"])
        .select(and(ge(col("id"), lit_i64(5)), lt(col("id"), lit_i64(8))));
    let (res, _) = execute(&db, &plan, &opts()).expect("runs");
    assert_eq!(res.column_by_name("id").as_i64(), &[5, 6, 7]);
}

#[test]
fn select_disjunction_via_bool_path() {
    let db = sales_db();
    let plan = Plan::scan("sales", &["id"])
        .select(or(lt(col("id"), lit_i64(2)), ge(col("id"), lit_i64(18))));
    let (res, _) = execute(&db, &plan, &opts()).expect("runs");
    assert_eq!(res.column_by_name("id").as_i64(), &[0, 1, 18, 19]);
}

#[test]
fn select_on_strings() {
    let db = sales_db();
    let plan = Plan::scan("sales", &["id", "flag"]).select(eq(col("flag"), lit_str("A")));
    let (res, _) = execute(&db, &plan, &opts()).expect("runs");
    assert_eq!(res.num_rows(), 7); // ids 0,3,6,9,12,15,18
    assert_eq!(res.value(1, 0), Value::I64(3));
}

#[test]
fn project_computes_expressions() {
    let db = sales_db();
    let plan = Plan::scan("sales", &["qty", "price"]).project(vec![
        ("total", mul(col("qty"), col("price"))),
        ("qty", col("qty")),
    ]);
    let (res, _) = execute(&db, &plan, &opts()).expect("runs");
    assert_eq!(res.num_rows(), 20);
    let total = res.column_by_name("total").as_f64();
    assert_eq!(total[3], 3.0 * 13.0);
    assert_eq!(total[0], 0.0);
}

#[test]
fn project_after_select_honors_selection() {
    let db = sales_db();
    let plan = Plan::scan("sales", &["id", "price"])
        .select(ge(col("id"), lit_i64(18)))
        .project(vec![("double_price", mul(col("price"), lit_f64(2.0)))]);
    let (res, _) = execute(&db, &plan, &opts()).expect("runs");
    assert_eq!(res.column_by_name("double_price").as_f64(), &[56.0, 58.0]);
}

#[test]
fn hash_aggregation_groups_correctly() {
    let db = sales_db();
    let plan = Plan::scan("sales", &["id", "qty"]).aggr(
        vec![("bucket", col("qty"))],
        vec![
            AggExpr::count("cnt"),
            AggExpr::sum("sum_id", col("id")),
            AggExpr::min("min_id", col("id")),
            AggExpr::max("max_id", col("id")),
            AggExpr::avg("avg_id", col("id")),
        ],
    );
    let (res, _) = execute(&db, &plan, &opts()).expect("runs");
    assert_eq!(res.num_rows(), 5); // qty in {0..4}
                                   // Find bucket 0.0: ids 0,5,10,15.
    let buckets = res.column_by_name("bucket").as_f64();
    let i = buckets.iter().position(|&b| b == 0.0).expect("bucket 0");
    assert_eq!(res.column_by_name("cnt").as_i64()[i], 4);
    assert_eq!(res.column_by_name("sum_id").as_i64()[i], 30);
    assert_eq!(res.column_by_name("min_id").as_i64()[i], 0);
    assert_eq!(res.column_by_name("max_id").as_i64()[i], 15);
    assert_eq!(res.column_by_name("avg_id").as_f64()[i], 7.5);
}

#[test]
fn direct_aggregation_on_enum_codes() {
    let db = sales_db();
    // Group on the enum column: only the grouping reads it, so it is
    // scanned as codes and rule dense-keys-direct-aggr picks DirectAggr.
    let plan = Plan::scan("sales", &["flag", "qty"]).aggr(
        vec![("flag", col("flag"))],
        vec![AggExpr::count("cnt"), AggExpr::sum("sum_qty", col("qty"))],
    );
    let (res, prof) = execute(&db, &plan, &ExecOptions::default().profiled()).expect("runs");
    assert_eq!(res.num_rows(), 2);
    // Keys decode to logical strings.
    assert_eq!(res.fields()[0].ty, ScalarType::Str);
    let flags: Vec<String> = (0..2).map(|r| res.value(r, 0).to_string()).collect();
    assert!(flags.contains(&"A".to_string()) && flags.contains(&"B".to_string()));
    let a = flags.iter().position(|f| f == "A").expect("A group");
    assert_eq!(res.column_by_name("cnt").as_i64()[a], 7);
    // The trace must show direct aggregation, not hashing.
    let ops: Vec<String> = prof.operators().map(|(k, _)| k.to_owned()).collect();
    assert!(ops.iter().any(|o| o == "Aggr(DIRECT)"), "{ops:?}");
    assert!(!ops.iter().any(|o| o.starts_with("Aggr(HASH")), "{ops:?}");
}

#[test]
fn ordered_aggregation_on_clustered_input() {
    let db = sales_db();
    // `day` is proven sorted (its column statistics), so the walk
    // streams its groups in key order.
    let plan = Plan::scan("sales", &["day", "qty"]).aggr(
        vec![("day", col("day"))],
        vec![AggExpr::count("cnt"), AggExpr::sum("sum_qty", col("qty"))],
    );
    let (res, prof) = execute(&db, &plan, &opts().profiled()).expect("runs");
    let ops: Vec<&str> = prof.operators().map(|(name, _)| name).collect();
    assert!(ops.contains(&"Aggr(ORDERED)"), "{ops:?}");
    assert_eq!(res.num_rows(), 20);
    assert_eq!(
        res.column_by_name("day").as_i32(),
        &(0..20).collect::<Vec<_>>()[..]
    );
    assert_eq!(res.column_by_name("cnt").as_i64(), &[1; 20]);
    let qty: Vec<f64> = (0..20).map(|i| f64::from(i % 5)).collect();
    assert_eq!(res.column_by_name("sum_qty").as_f64(), &qty[..]);
}

/// A table clustered on `k`: one group of ten vectors' worth of rows,
/// then a run of `vector_size + 1` single-row groups (one more group
/// than an output vector holds), then short groups — with `m` to filter
/// on and `v` to sum.
fn clustered_db(vs: usize) -> (Database, Vec<i64>, Vec<f64>) {
    let mut k: Vec<i64> = vec![5; 10 * vs];
    k.extend((0..=vs as i64).map(|i| 6 + i));
    let top = *k.last().expect("non-empty");
    k.extend((0..3 * vs as i64).map(|i| top + 1 + i / 3));
    let v: Vec<f64> = (0..k.len()).map(|i| i as f64 * 0.5 + 0.1).collect();
    let m: Vec<i64> = (0..k.len() as i64).map(|i| i % 3).collect();
    let t = TableBuilder::new("c")
        .column("k", Vector::I64(k.clone()))
        .column("m", Vector::I64(m))
        .column("v", Vector::F64(v.clone()))
        .build();
    let mut db = Database::new();
    db.register(t);
    (db, k, v)
}

#[test]
fn ordered_aggregation_streams_long_groups_and_runs_of_single_rows() {
    for vs in [16usize, 1024] {
        let (db, k, v) = clustered_db(vs);
        let opts = ExecOptions::with_vector_size(vs).profiled();
        let aggs = || {
            vec![
                AggExpr::count("n"),
                AggExpr::sum("s", col("v")),
                AggExpr::min("lo", col("v")),
                AggExpr::avg("mean", col("v")),
            ]
        };
        for filtered in [false, true] {
            let mut input = Plan::scan("c", &["k", "m", "v"]);
            if filtered {
                input = input.select(ne(col("m"), lit_i64(0)));
            }
            // The same fold, tuple at a time, in arrival order.
            let mut want: Vec<(i64, i64, f64, f64)> = Vec::new();
            for i in (0..k.len()).filter(|i| !filtered || i % 3 != 0) {
                match want.last_mut() {
                    Some(g) if g.0 == k[i] => {
                        g.1 += 1;
                        g.2 += v[i];
                    }
                    _ => want.push((k[i], 1, v[i], v[i])),
                }
            }
            // `k` is proven sorted: the walk picks the ordered aggregation.
            let plan = input.aggr(vec![("k", col("k"))], aggs());
            let (res, prof) = execute(&db, &plan, &opts).expect("runs");
            let ops: Vec<&str> = prof.operators().map(|(name, _)| name).collect();
            assert!(ops.contains(&"Aggr(ORDERED)"), "{ops:?}");
            assert!(!ops.contains(&"Aggr(HASH)"), "{ops:?}");
            assert_eq!(res.num_rows(), want.len(), "vs {vs} filtered {filtered}");
            for (r, (key, n, sum, lo)) in want.iter().enumerate() {
                assert_eq!(res.column_by_name("k").as_i64()[r], *key);
                assert_eq!(res.column_by_name("n").as_i64()[r], *n);
                assert_eq!(res.column_by_name("s").as_f64()[r], *sum, "group {key}");
                assert_eq!(res.column_by_name("lo").as_f64()[r], *lo);
                assert_eq!(res.column_by_name("mean").as_f64()[r], sum / *n as f64);
            }
            // One vector of groups in flight, however many there are.
            let peak = prof.counter("gov_mem_peak").expect("tracked") as usize;
            assert!(peak <= (2 * vs + 2) * 8 * 4, "vs {vs}: peak {peak}");
        }
    }
}

#[test]
fn aggregation_without_groups() {
    let db = sales_db();
    let plan = Plan::scan("sales", &["qty"]).aggr(
        vec![],
        vec![AggExpr::sum("total", col("qty")), AggExpr::count("n")],
    );
    let (res, _) = execute(&db, &plan, &opts()).expect("runs");
    assert_eq!(res.num_rows(), 1);
    let expect: f64 = (0..20).map(|i| (i % 5) as f64).sum();
    assert_eq!(res.column_by_name("total").as_f64()[0], expect);
    assert_eq!(res.column_by_name("n").as_i64()[0], 20);
}

#[test]
fn fetch1join_by_rowid() {
    let db = dim_db();
    // qty is 0..4 — but Fetch1Join wants u32 rowids; qty is f64 so this
    // must fail; use a projected id instead. id % 5 would need mod —
    // use day (i32) cast is also rejected; so fetch via an actual u32
    // join-index column.
    let mut db2 = Database::new();
    let t = TableBuilder::new("facts")
        .column("fk", Vector::U32(vec![4, 3, 3, 0, 1]))
        .column("v", Vector::F64(vec![1.0, 2.0, 3.0, 4.0, 5.0]))
        .build();
    db2.register(t);
    db2.register_arc(db.table("dim").expect("dim"));
    let plan = Plan::scan("facts", &["fk", "v"]).fetch1("dim", col("fk"), &[("label", "label")]);
    let (res, _) = execute(&db2, &plan, &opts()).expect("runs");
    assert_eq!(res.num_rows(), 5);
    let labels: Vec<String> = (0..5).map(|r| res.value(r, 2).to_string()).collect();
    assert_eq!(labels, vec!["four", "three", "three", "zero", "one"]);
}

#[test]
fn fetch1join_after_select_is_positional() {
    let mut db = Database::new();
    let t = TableBuilder::new("facts")
        .column("fk", Vector::U32(vec![0, 1, 2, 3, 4]))
        .column("keep", Vector::I64(vec![0, 1, 0, 1, 0]))
        .build();
    db.register(t);
    let d = TableBuilder::new("dim")
        .column("val", Vector::I64(vec![100, 101, 102, 103, 104]))
        .build();
    db.register(d);
    let plan = Plan::scan("facts", &["fk", "keep"])
        .select(eq(col("keep"), lit_i64(1)))
        .fetch1("dim", col("fk"), &[("val", "val")]);
    let (res, _) = execute(&db, &plan, &opts()).expect("runs");
    assert_eq!(res.num_rows(), 2);
    assert_eq!(res.column_by_name("val").as_i64(), &[101, 103]);
}

#[test]
fn fetchnjoin_expands_ranges() {
    let mut db = Database::new();
    // "orders": each with a [lo, lo+cnt) range of lineitems.
    let t = TableBuilder::new("orders")
        .column("olo", Vector::U32(vec![0, 2, 5]))
        .column("ocnt", Vector::U32(vec![2, 3, 0]))
        .column("okey", Vector::I64(vec![10, 20, 30]))
        .build();
    db.register(t);
    let li = TableBuilder::new("items")
        .column("price", Vector::F64(vec![1.0, 2.0, 3.0, 4.0, 5.0]))
        .build();
    db.register(li);
    let plan = Plan::FetchNJoin {
        input: Box::new(Plan::scan("orders", &["olo", "ocnt", "okey"])),
        table: "items".into(),
        lo: col("olo"),
        cnt: col("ocnt"),
        fetch: vec![("price".into(), "price".into())],
    };
    let (res, _) = execute(&db, &plan, &opts()).expect("runs");
    assert_eq!(res.num_rows(), 5);
    assert_eq!(res.column_by_name("okey").as_i64(), &[10, 10, 20, 20, 20]);
    assert_eq!(
        res.column_by_name("price").as_f64(),
        &[1.0, 2.0, 3.0, 4.0, 5.0]
    );
}

/// A fetch reads a deleted dimension row's stored value whichever path
/// its vector takes: the kernel when every rowid is in the fragment, the
/// one-column value path when one reaches the insert delta.
#[test]
fn fetch_of_a_deleted_row_is_the_same_on_both_paths() {
    let mut dim = TableBuilder::new("dim")
        .column("pay", Vector::I64(vec![1, 2, 3]))
        .build();
    assert!(dim.delete(1));
    dim.insert(&[Value::I64(4)]);
    let mut db = Database::new();
    db.register(dim);
    for (fk, want) in [
        (vec![0, 1], vec!["0|1", "1|2"]),
        (vec![0, 1, 3], vec!["0|1", "1|2", "3|4"]),
    ] {
        db.register(
            TableBuilder::new("facts")
                .column("fk", Vector::U32(fk))
                .build(),
        );
        let plan = Plan::scan("facts", &["fk"]).fetch1("dim", col("fk"), &[("pay", "pay")]);
        let (res, _) = execute(&db, &plan, &opts()).expect("runs");
        assert_eq!(res.row_strings(), want);
    }
}

/// An enum string column, a plain string column and a plain `f64`,
/// fetched through `Fetch1Join` (under a selection, some vectors inside
/// the fragment, some reaching the insert delta) and through `CartProd`
/// over a dimension with pending inserts: every output row holds the
/// dimension row the row oracle (`Table::get_row`) reads at its rowid.
#[test]
fn enum_fetches_across_fragment_and_delta_match_the_row_oracle() {
    let modes = ["AIR", "MAIL", "SHIP"];
    let names: Vec<String> = (0..6).map(|i| format!("n{i}")).collect();
    let mut dim = TableBuilder::new("dim")
        .auto_enum_str("mode", (0..6).map(|i| modes[i % 3].to_owned()).collect())
        .column(
            "name",
            Vector::Str(names.iter().map(String::as_str).collect()),
        )
        .column(
            "price",
            Vector::F64((0..6).map(|i| i as f64 * 1.5).collect()),
        )
        .build();
    dim.insert(&[
        Value::Str("RAIL".into()),
        Value::Str("new".into()),
        Value::F64(-1.0),
    ]);
    dim.insert(&[
        Value::Str("AIR".into()),
        Value::Str(String::new()),
        Value::F64(2.5),
    ]);
    let oracle: Vec<Vec<Value>> = (0..8).map(|r| dim.get_row(r)).collect();
    let fetch = [("mode", "mode"), ("name", "name"), ("price", "price")];
    let mut db = Database::new();
    db.register(dim);
    // Each fk vector: all in the fragment, all in the delta, mixed.
    for fk in [
        vec![5, 0, 3, 3, 1],
        vec![7, 6, 7],
        vec![7, 0, 6, 3, 7, 1, 5, 6],
    ] {
        db.register(
            TableBuilder::new("facts")
                .column("fk", Vector::U32(fk.clone()))
                .build(),
        );
        // Dropping every fk = 3 row leaves a selection on the fetch.
        let plan = Plan::scan("facts", &["fk"])
            .select(ne(col("fk"), lit(Value::U32(3))))
            .fetch1("dim", col("fk"), &fetch);
        let (res, _) = execute(&db, &plan, &opts()).expect("fetch1 runs");
        let want: Vec<u32> = fk.iter().copied().filter(|&r| r != 3).collect();
        assert_eq!(res.num_rows(), want.len());
        for (i, &r) in want.iter().enumerate() {
            let got: Vec<Value> = (1..4).map(|c| res.value(i, c)).collect();
            assert_eq!(got, oracle[r as usize], "fetch1 of row {r}");
        }
    }
    // CartProd pairs each input row with all 8 dimension rows, fragment
    // and delta alike; a 3-row vector size makes vectors straddle the
    // fragment's end.
    let plan = Plan::CartProd {
        input: Box::new(Plan::scan("facts", &["fk"])),
        table: "dim".into(),
        fetch: fetch.iter().map(|&(a, b)| (a.into(), b.into())).collect(),
    };
    let (res, _) = execute(&db, &plan, &ExecOptions::with_vector_size(3)).expect("cartprod runs");
    assert_eq!(res.num_rows(), 8 * 8);
    for i in 0..res.num_rows() {
        let got: Vec<Value> = (1..4).map(|c| res.value(i, c)).collect();
        assert_eq!(got, oracle[i % 8], "cartprod row {i}");
    }
    // Pending deletes, of a fragment row and a delta row, drop out.
    let mut dim = (*db.table("dim").expect("registered")).clone();
    dim.delete(2);
    dim.delete(6);
    db.register(dim);
    let live: Vec<&Vec<Value>> = [0, 1, 3, 4, 5, 7].iter().map(|&r| &oracle[r]).collect();
    let (res, _) = execute(&db, &plan, &ExecOptions::with_vector_size(3)).expect("cartprod runs");
    assert_eq!(res.num_rows(), 8 * 6);
    for i in 0..res.num_rows() {
        let got: Vec<Value> = (1..4).map(|c| res.value(i, c)).collect();
        assert_eq!(&got, live[i % 6], "cartprod row {i} over deletes");
    }
    // A deleted last row ends each pass early; with every row deleted
    // the product is empty.
    let mut dim = (*db.table("dim").expect("registered")).clone();
    dim.delete(7);
    db.register(dim.clone());
    let (res, _) = execute(&db, &plan, &ExecOptions::with_vector_size(3)).expect("cartprod runs");
    assert_eq!(res.num_rows(), 8 * 5);
    for i in 0..res.num_rows() {
        let got: Vec<Value> = (1..4).map(|c| res.value(i, c)).collect();
        assert_eq!(
            &got,
            live[i % 5],
            "cartprod row {i} over a deleted last row"
        );
    }
    for r in [0, 1, 3, 4, 5] {
        dim.delete(r);
    }
    db.register(dim);
    let (res, _) = execute(&db, &plan, &ExecOptions::with_vector_size(3)).expect("cartprod runs");
    assert_eq!(res.num_rows(), 0);
}

#[test]
fn nested_loop_join_is_cartprod_plus_select() {
    let db = dim_db();
    let plan = Plan::Join {
        input: Box::new(Plan::scan("sales", &["id", "qty"]).select(lt(col("id"), lit_i64(3)))),
        table: "dim".into(),
        pred: eq(cast(ScalarType::F64, col("code")), col("qty")),
        fetch: vec![
            ("code".into(), "code".into()),
            ("label".into(), "label".into()),
        ],
    };
    let (res, prof) = execute(&db, &plan, &ExecOptions::default().profiled()).expect("runs");
    // Each of ids 0,1,2 matches exactly the dim row with code == qty.
    assert_eq!(res.num_rows(), 3);
    let ops: Vec<String> = prof.operators().map(|(k, _)| k.to_owned()).collect();
    assert!(ops.iter().any(|o| o == "CartProd"), "{ops:?}");
    assert!(ops.iter().any(|o| o == "Select"), "{ops:?}");
}

#[test]
fn hash_join_inner() {
    let db = dim_db();
    let plan = Plan::HashJoin {
        build: Box::new(Plan::scan("dim", &["code", "label"])),
        probe: Box::new(Plan::scan("sales", &["id", "qty"])),
        build_keys: vec![cast(ScalarType::F64, col("code"))],
        probe_keys: vec![col("qty")],
        payload: vec![("label".into(), "label".into())],
        join_type: JoinType::Inner,
    };
    let (res, _) = execute(&db, &plan, &opts()).expect("runs");
    assert_eq!(res.num_rows(), 20);
    // id 7 has qty 2 → label "two".
    let ids = res.column_by_name("id").as_i64();
    let r = ids.iter().position(|&i| i == 7).expect("id 7");
    assert_eq!(
        res.value(r, res.col_index("label").expect("label")),
        Value::Str("two".into())
    );
}

#[test]
fn hash_join_semi_and_anti() {
    let mut db = Database::new();
    let probe = TableBuilder::new("p")
        .column("k", Vector::I64(vec![1, 2, 3, 4, 5]))
        .build();
    let build = TableBuilder::new("b")
        .column("k", Vector::I64(vec![2, 4, 9]))
        .build();
    db.register(probe);
    db.register(build);
    let semi = Plan::HashJoin {
        build: Box::new(Plan::scan("b", &["k"])),
        probe: Box::new(Plan::scan("p", &["k"])),
        build_keys: vec![col("k")],
        probe_keys: vec![col("k")],
        payload: vec![],
        join_type: JoinType::LeftSemi,
    };
    let (res, _) = execute(&db, &semi, &opts()).expect("runs");
    assert_eq!(res.column_by_name("k").as_i64(), &[2, 4]);
    let anti = Plan::HashJoin {
        build: Box::new(Plan::scan("b", &["k"])),
        probe: Box::new(Plan::scan("p", &["k"])),
        build_keys: vec![col("k")],
        probe_keys: vec![col("k")],
        payload: vec![],
        join_type: JoinType::LeftAnti,
    };
    let (res, _) = execute(&db, &anti, &opts()).expect("runs");
    assert_eq!(res.column_by_name("k").as_i64(), &[1, 3, 5]);
}

#[test]
fn order_and_topn() {
    let db = sales_db();
    let sorted =
        Plan::scan("sales", &["id", "qty"]).order(vec![OrdExp::desc("qty"), OrdExp::asc("id")]);
    let (res, _) = execute(&db, &sorted, &opts()).expect("runs");
    assert_eq!(res.num_rows(), 20);
    assert_eq!(res.value(0, 1), Value::F64(4.0));
    assert_eq!(res.value(0, 0), Value::I64(4)); // smallest id with qty 4
    let top = Plan::scan("sales", &["id"]).topn(vec![OrdExp::desc("id")], 3);
    let (res, _) = execute(&db, &top, &opts()).expect("runs");
    assert_eq!(res.column_by_name("id").as_i64(), &[19, 18, 17]);
}

#[test]
fn array_coordinates_column_major() {
    let db = Database::new();
    let plan = Plan::Array { dims: vec![2, 3] };
    let (res, _) = execute(&db, &plan, &opts()).expect("runs");
    assert_eq!(res.num_rows(), 6);
    assert_eq!(res.column_by_name("d0").as_i64(), &[0, 1, 0, 1, 0, 1]);
    assert_eq!(res.column_by_name("d1").as_i64(), &[0, 0, 1, 1, 2, 2]);
}

#[test]
fn scan_sees_deltas_and_masks_deletes() {
    let mut db = Database::new();
    let mut t = TableBuilder::new("t")
        .column("v", Vector::I64((0..10).collect()))
        .build();
    t.delete(0);
    t.delete(5);
    t.insert(&[Value::I64(100)]);
    t.insert(&[Value::I64(101)]);
    t.delete(10); // delete the first inserted delta row
    db.register(t);
    let plan = Plan::scan("t", &["v"]);
    let (res, _) = execute(&db, &plan, &opts()).expect("runs");
    assert_eq!(
        res.column_by_name("v").as_i64(),
        &[1, 2, 3, 4, 6, 7, 8, 9, 101]
    );
}

#[test]
fn summary_prune_limits_scan() {
    let mut db = Database::new();
    let t = TableBuilder::new("t")
        .column("d", Vector::I32((0..100_000).collect()))
        .with_summary()
        .build();
    db.register(t);
    // The walk derives the row range from the `Select`.
    let plan = Plan::scan("t", &["d"]).select(and(
        ge(col("d"), lit_i32(50_000)),
        le(col("d"), lit_i32(50_099)),
    ));
    let (res, prof) = execute(&db, &plan, &ExecOptions::default().profiled()).expect("runs");
    assert_eq!(res.num_rows(), 100);
    // Scan touched ~2 granules, not 100k rows.
    let scanned = prof
        .operators()
        .find(|(k, _)| *k == "Scan")
        .map(|(_, s)| s.tuples)
        .expect("scan traced");
    assert!(scanned <= 2000, "scanned {scanned} rows despite prune");
}

#[test]
fn results_invariant_under_vector_size() {
    let db = sales_db();
    let plan = Plan::scan("sales", &["id", "qty", "price"])
        .select(lt(col("id"), lit_i64(17)))
        .project(vec![
            ("id", col("id")),
            ("rev", mul(sub(lit_f64(1.0), col("qty")), col("price"))),
        ])
        .aggr(
            vec![("id_parity_rev", col("rev"))],
            vec![AggExpr::count("c")],
        );
    let (base, _) = execute(&db, &plan, &ExecOptions::with_vector_size(1024)).expect("runs");
    let mut base_rows = base.row_strings();
    base_rows.sort();
    for vs in [1, 2, 3, 7, 16, 1000, 4096] {
        let (r, _) = execute(&db, &plan, &ExecOptions::with_vector_size(vs)).expect("runs");
        let mut rows = r.row_strings();
        rows.sort();
        assert_eq!(rows, base_rows, "vector size {vs} changed results");
    }
}

#[test]
fn profiler_traces_primitives_and_operators() {
    let db = sales_db();
    let plan = Plan::scan("sales", &["id", "qty", "price"])
        .select(lt(col("id"), lit_i64(10)))
        .project(vec![(
            "rev",
            mul(sub(lit_f64(1.0), col("qty")), col("price")),
        )]);
    let (_, prof) = execute(&db, &plan, &ExecOptions::default().profiled()).expect("runs");
    // The fused compound primitive fired.
    assert!(prof
        .primitive("map_fused_sub_f64_val_f64_col_mul_f64_col")
        .is_some());
    assert!(prof.primitive("select_lt_i64_col_val").is_some());
    let render = prof.render_table5();
    assert!(render.contains("Select"));
    assert!(render.contains("Project"));
}

/// The select primitives run predicated at every selectivity: runs of
/// 0 %, 50 % and 100 % several vectors long, on dense input, under an
/// earlier step's selection, column-vs-column and through `select_true`,
/// give the rows a scalar filter gives.
#[test]
fn predicated_selects_agree_with_a_scalar_filter_at_every_selectivity() {
    let n = 64 * 1024i64;
    let band = |i: i64| (i / 4096) % 3; // 4 vectors each of 0 / 50 / 100 %
    let a: Vec<i64> = (0..n)
        .map(|i| match band(i) {
            0 => 100,
            1 => i % 2,
            _ => 0,
        })
        .collect();
    let b: Vec<i64> = (0..n).map(|i| (i * 7) % 5).collect();
    let t = TableBuilder::new("t")
        .column("id", Vector::I64((0..n).collect()))
        .column("a", Vector::I64(a.clone()))
        .column("b", Vector::I64(b.clone()))
        .build();
    let mut db = Database::new();
    db.register(t);
    let plan = Plan::scan("t", &["id", "a", "b"])
        .select(lt(col("a"), lit_i64(1)))
        .select(and(
            lt(col("a"), col("b")),
            or(eq(col("b"), lit_i64(1)), eq(col("b"), lit_i64(3))),
        ));
    let (res, _) = execute(&db, &plan, &ExecOptions::default()).expect("runs");
    let want: Vec<i64> = (0..n)
        .filter(|&i| {
            let (a, b) = (a[i as usize], b[i as usize]);
            a < 1 && a < b && (b == 1 || b == 3)
        })
        .collect();
    assert!(want.len() > 1000);
    assert_eq!(res.column_by_name("id").as_i64(), &want[..]);
}

#[test]
fn binder_errors_are_reported() {
    let db = sales_db();
    let bad_col = Plan::scan("sales", &["nope"]);
    assert!(execute(&db, &bad_col, &opts()).is_err());
    let bad_table = Plan::scan("nope", &["id"]);
    assert!(execute(&db, &bad_table, &opts()).is_err());
    let bad_pred = Plan::scan("sales", &["flag"]).select(lt(col("flag"), lit_str("B")));
    assert!(execute(&db, &bad_pred, &opts()).is_err());
}

#[test]
fn direct_aggr_rejects_wide_domains() {
    let mut db = Database::new();
    let t = TableBuilder::new("t")
        .column("a", Vector::I32(vec![0, 1023, 0, 0]))
        .column("b", Vector::I32(vec![0, 2047, 0, 0]))
        .build();
    db.register(t);
    // 1024 × 2048 slots exceed the direct table: the hash table groups.
    let plan = Plan::scan("t", &["a", "b"]).aggr(
        vec![("a", col("a")), ("b", col("b"))],
        vec![AggExpr::count("n")],
    );
    let walk = check_plan(&db, &plan, &opts()).expect("checks").render();
    assert!(
        walk.contains(
            "rule dense-keys-direct-aggr refused: 2097152 slots exceed the direct table's 1048576"
        ),
        "{walk}"
    );
    assert!(walk.contains("HashAggr"), "{walk}");
    let (res, _) = execute(&db, &plan, &opts()).expect("runs");
    assert_eq!(res.num_rows(), 2);
}

#[test]
fn cmp_op_between_columns() {
    let db = sales_db();
    let plan = Plan::scan("sales", &["qty", "price"]).select(cmp(
        CmpOp::Gt,
        col("price"),
        mul(col("qty"), lit_f64(7.0)),
    ));
    let (res, _) = execute(&db, &plan, &opts()).expect("runs");
    // price = 10+i, qty = i%5: check a few survivors manually.
    for r in 0..res.num_rows() {
        let qty = res.value(r, 0).as_f64();
        let price = res.value(r, 1).as_f64();
        assert!(price > qty * 7.0);
    }
    assert!(res.num_rows() > 0);
}

#[test]
fn hash_join_left_outer_fills_defaults() {
    let mut db = Database::new();
    let probe = TableBuilder::new("p")
        .column("k", Vector::I64(vec![1, 2, 3, 4]))
        .build();
    let build = TableBuilder::new("b")
        .column("k", Vector::I64(vec![2, 4]))
        .column("v", Vector::F64(vec![20.0, 40.0]))
        .column("s", {
            let mut c = Vector::with_capacity(ScalarType::Str, 0);
            c.push_value(&Value::Str("two".into()));
            c.push_value(&Value::Str("four".into()));
            c
        })
        .build();
    db.register(probe);
    db.register(build);
    let plan = Plan::HashJoin {
        build: Box::new(Plan::scan("b", &["k", "v", "s"])),
        probe: Box::new(Plan::scan("p", &["k"])),
        build_keys: vec![col("k")],
        probe_keys: vec![col("k")],
        payload: vec![("v".into(), "v".into()), ("s".into(), "s".into())],
        join_type: JoinType::LeftOuter,
    };
    let (res, _) = execute(&db, &plan, &ExecOptions::default()).expect("runs");
    assert_eq!(res.num_rows(), 4);
    assert_eq!(res.column_by_name("k").as_i64(), &[1, 2, 3, 4]);
    // Unmatched rows get zero/empty defaults.
    assert_eq!(res.column_by_name("v").as_f64(), &[0.0, 20.0, 0.0, 40.0]);
    assert_eq!(res.value(0, 2), Value::Str("".into()));
    assert_eq!(res.value(1, 2), Value::Str("two".into()));
}

#[test]
fn year_and_contains_expressions() {
    let mut db = Database::new();
    use x100_vector::date::to_days;
    let t = TableBuilder::new("t")
        .column(
            "d",
            Vector::I32(vec![
                to_days(1995, 3, 14),
                to_days(1996, 12, 31),
                to_days(1995, 1, 1),
            ]),
        )
        .column("note", {
            let mut c = Vector::with_capacity(ScalarType::Str, 0);
            for s in ["urgent green order", "plain order", "forest green"] {
                c.push_value(&Value::Str(s.into()));
            }
            c
        })
        .build();
    db.register(t);
    let plan = Plan::scan("t", &["d", "note"])
        .select(contains(col("note"), "green"))
        .project(vec![("y", year(col("d")))]);
    let (res, _) = execute(&db, &plan, &ExecOptions::default()).expect("runs");
    assert_eq!(res.column_by_name("y").as_i32(), &[1995, 1995]);
}

#[test]
fn operators_reset_and_rerun() {
    // A bound pipeline must be rewindable: reset() replays the dataflow.
    let db = sales_db();
    let plan = Plan::scan("sales", &["id", "qty"])
        .select(lt(col("id"), lit_i64(10)))
        .aggr(vec![("bucket", col("qty"))], vec![AggExpr::count("n")]);
    let mut op = plan.bind(&db, &ExecOptions::default()).expect("binds");
    let mut prof = x100_engine::Profiler::new(false);
    let first = x100_engine::session::run_operator(op.as_mut(), &mut prof).expect("first run");
    op.reset();
    let second = x100_engine::session::run_operator(op.as_mut(), &mut prof).expect("second run");
    assert_eq!(first.row_strings(), second.row_strings());
    assert!(first.num_rows() > 0);
}

#[test]
fn parsed_plan_equals_built_plan() {
    let db = sales_db();
    let text = "Aggr(Select(Scan(sales, [id, qty]), <(id, 10)), [qty], [n = count(), s = sum(id)])";
    let parsed = x100_engine::parse_plan(text).expect("parses");
    let built = Plan::scan("sales", &["id", "qty"])
        .select(lt(col("id"), lit_i64(10)))
        .aggr(
            vec![("qty", col("qty"))],
            vec![AggExpr::count("n"), AggExpr::sum("s", col("id"))],
        );
    let (a, _) = execute(&db, &parsed, &ExecOptions::default()).expect("parsed runs");
    let (b, _) = execute(&db, &built, &ExecOptions::default()).expect("built runs");
    assert_eq!(a.row_strings(), b.row_strings());
}

#[test]
fn integer_column_vs_float_literal_select() {
    // Regression: the select fast path must not truncate a float literal
    // compared against an integer column (5.5 > 5, so ids 0..=5 pass).
    let db = sales_db();
    let plan = Plan::scan("sales", &["id"]).select(lt(col("id"), lit_f64(5.5)));
    let (res, _) = execute(&db, &plan, &opts()).expect("runs");
    assert_eq!(res.column_by_name("id").as_i64(), &[0, 1, 2, 3, 4, 5]);
    // And a literal that truncates the other way.
    let plan = Plan::scan("sales", &["id"]).select(ge(col("id"), lit_f64(4.5)));
    let (res, _) = execute(&db, &plan, &opts()).expect("runs");
    assert_eq!(res.column_by_name("id").as_i64()[0], 5);
}

#[test]
fn hash_aggr_survives_dense_new_groups_after_selection() {
    // Regression: a batch whose live tuples are almost all *new* groups
    // used to overfill the open-addressing table mid-batch (resize only
    // ran between batches), spinning the probe loop forever. Clustered
    // data + a range selection reproduces it: the selected region is
    // contiguous, so whole batches of distinct keys arrive at once.
    let n = 4000i64;
    let mut db = Database::new();
    db.register(
        TableBuilder::new("t")
            .column("k", Vector::I64((0..n).collect())) // all distinct
            .column("r", Vector::I32((0..n as i32).collect())) // clustered
            .build(),
    );
    // Select a contiguous region larger than the initial table capacity,
    // then group by the (distinct) key.
    let plan = Plan::scan("t", &["k", "r"])
        .select(and(ge(col("r"), lit_i32(500)), lt(col("r"), lit_i32(3000))))
        .aggr(vec![("k", col("k"))], vec![AggExpr::count("c")]);
    let (res, _) = execute(&db, &plan, &ExecOptions::with_vector_size(1024)).expect("runs");
    assert_eq!(res.num_rows(), 2500);
    assert!(res.column_by_name("c").as_i64().iter().all(|&c| c == 1));
}

#[test]
fn hash_join_empty_build_side() {
    // An empty build table: every probe key is absent, and each join
    // type must resolve that without a row to pair with.
    let mut db = Database::new();
    db.register(
        TableBuilder::new("p")
            .column("k", Vector::I64(vec![1, 2, 3]))
            .build(),
    );
    db.register(
        TableBuilder::new("b")
            .column("k", Vector::I64(vec![]))
            .column("v", Vector::I64(vec![]))
            .build(),
    );
    let mk = |join_type, payload: Vec<(String, String)>| Plan::HashJoin {
        build: Box::new(Plan::scan("b", &["k", "v"])),
        probe: Box::new(Plan::scan("p", &["k"])),
        build_keys: vec![col("k")],
        probe_keys: vec![col("k")],
        payload,
        join_type,
    };
    let pay = vec![("v".to_string(), "v".to_string())];
    let (res, _) = execute(&db, &mk(JoinType::Inner, pay.clone()), &opts()).expect("inner");
    assert_eq!(res.num_rows(), 0);
    let (res, _) = execute(&db, &mk(JoinType::LeftOuter, pay), &opts()).expect("outer");
    assert_eq!(res.column_by_name("k").as_i64(), &[1, 2, 3]);
    assert_eq!(res.column_by_name("v").as_i64(), &[0, 0, 0]);
    let (res, _) = execute(&db, &mk(JoinType::LeftSemi, vec![]), &opts()).expect("semi");
    assert_eq!(res.num_rows(), 0);
    let (res, _) = execute(&db, &mk(JoinType::LeftAnti, vec![]), &opts()).expect("anti");
    assert_eq!(res.column_by_name("k").as_i64(), &[1, 2, 3]);
}

#[test]
fn hash_join_build_side_of_many_vectors() {
    // A 20_000-row build side: the table grows through several
    // doublings while it is built, and every probe key still finds its
    // one row.
    let n = 20_000i64;
    let mut db = Database::new();
    db.register(
        TableBuilder::new("b")
            .column("k", Vector::I64((0..n).collect()))
            .column("v", Vector::I64((0..n).map(|i| i * 3).collect()))
            .build(),
    );
    db.register(
        TableBuilder::new("p")
            .column("k", Vector::I64((0..500).map(|i| i * 40).collect()))
            .build(),
    );
    let plan = Plan::HashJoin {
        build: Box::new(Plan::scan("b", &["k", "v"])),
        probe: Box::new(Plan::scan("p", &["k"])),
        build_keys: vec![col("k")],
        probe_keys: vec![col("k")],
        payload: vec![("v".into(), "v".into())],
        join_type: JoinType::Inner,
    };
    let (res, _) = execute(&db, &plan, &opts()).expect("runs");
    let keys: Vec<i64> = (0..500).map(|i| i * 40).collect();
    assert_eq!(res.column_by_name("k").as_i64(), keys);
    let tripled: Vec<i64> = keys.iter().map(|k| k * 3).collect();
    assert_eq!(res.column_by_name("v").as_i64(), tripled);
}

#[test]
fn hash_join_emits_at_most_one_vector_per_next() {
    // One build key with 5 000 duplicates: a probe vector's matches
    // are far more than a vector, and must arrive a vector at a time —
    // the pair expansion stops at `vector_size` and resumes where it
    // stopped on the next call.
    let dups = 5_000i64;
    let mut db = Database::new();
    db.register(
        TableBuilder::new("b")
            .column("k", Vector::I64(vec![7; dups as usize]))
            .column("id", Vector::I64((0..dups).collect()))
            .build(),
    );
    // Keys 7 (matches) and 8 (does not), three of each.
    db.register(
        TableBuilder::new("p")
            .column("k", Vector::I64(vec![7, 8, 7, 8, 8, 7]))
            .column("v", Vector::I64((0..6).collect()))
            .build(),
    );
    for join_type in [JoinType::Inner, JoinType::LeftOuter] {
        let plan = Plan::HashJoin {
            build: Box::new(Plan::scan("b", &["k", "id"])),
            probe: Box::new(Plan::scan("p", &["k", "v"])),
            build_keys: vec![col("k")],
            probe_keys: vec![col("k")],
            payload: vec![("id".into(), "id".into())],
            join_type,
        };
        let eopts = ExecOptions::with_vector_size(1024);
        let mut op = plan.bind(&db, &eopts).expect("binds");
        let mut prof = x100_engine::Profiler::new(false);
        let mut got: Vec<(i64, i64)> = Vec::new();
        while let Some(batch) = op.next(&mut prof).expect("no error") {
            assert!(batch.sel.is_none());
            assert!(
                (1..=1024).contains(&batch.len),
                "{join_type:?}: batch of {} rows",
                batch.len
            );
            let (v, id) = (batch.columns[1].as_i64(), batch.columns[2].as_i64());
            got.extend(v.iter().copied().zip(id.iter().copied()));
        }
        let mut expected: Vec<(i64, i64)> = Vec::new();
        for v in 0..6 {
            if v == 0 || v == 2 || v == 5 {
                expected.extend((0..dups).map(|id| (v, id)));
            } else if join_type == JoinType::LeftOuter {
                expected.push((v, 0)); // the default row
            }
        }
        // A probe row's matches arrive newest-first; the multiset is
        // what the join promises.
        got.sort_unstable();
        expected.sort_unstable();
        assert_eq!(got, expected, "{join_type:?}");
    }
}

#[test]
fn hash_join_first_duplicate_key_arrives_after_unique_vectors() {
    // While no build key has repeated the table keeps no row chains (a
    // group's one row is its id); the first duplicate, here in the
    // third 8-row build vector, makes it link every row seen so far.
    // Keys 0..20 once, then 3, 3 and 11 again.
    let mut build_keys: Vec<i64> = (0..20).collect();
    build_keys.extend([3, 3, 11]);
    let mut db = Database::new();
    db.register(
        TableBuilder::new("b")
            .column("k", Vector::I64(build_keys.clone()))
            .column("id", Vector::I64((100..123).collect()))
            .build(),
    );
    db.register(
        TableBuilder::new("p")
            .column("k", Vector::I64(vec![3, 50, 11, 19, 0]))
            .build(),
    );
    let mk = |join_type| Plan::HashJoin {
        build: Box::new(Plan::scan("b", &["k", "id"])),
        probe: Box::new(Plan::scan("p", &["k"])),
        build_keys: vec![col("k")],
        probe_keys: vec![col("k")],
        payload: vec![("id".into(), "id".into())],
        join_type,
    };
    let small = ExecOptions::with_vector_size(8);
    let (res, _) = execute(&db, &mk(JoinType::Inner), &small).expect("inner");
    // A key's rows newest first, probe rows in order.
    assert_eq!(res.column_by_name("k").as_i64(), &[3, 3, 3, 11, 11, 19, 0]);
    assert_eq!(
        res.column_by_name("id").as_i64(),
        &[121, 120, 103, 122, 111, 119, 100]
    );
    let (res, _) = execute(&db, &mk(JoinType::LeftOuter), &small).expect("outer");
    assert_eq!(
        res.column_by_name("k").as_i64(),
        &[3, 3, 3, 50, 11, 11, 19, 0]
    );
    assert_eq!(
        res.column_by_name("id").as_i64(),
        &[121, 120, 103, 0, 122, 111, 119, 100]
    );
}

#[test]
fn hash_join_semi_and_anti_on_string_keys_under_a_selection() {
    // The probe arrives under a selection vector; semi and anti refine
    // it without copying a column.
    let names = ["ash", "birch", "cedar", "fir", "gum", "hazel"];
    let strs = |vals: Vec<&str>| {
        let mut c = Vector::with_capacity(ScalarType::Str, 0);
        for v in vals {
            c.push_value(&Value::Str(v.into()));
        }
        c
    };
    let mut db = Database::new();
    db.register(
        TableBuilder::new("p")
            .column("name", strs((0..24).map(|i| names[i % 6]).collect()))
            .column("v", Vector::I64((0..24).collect()))
            .build(),
    );
    db.register(
        TableBuilder::new("b")
            .column("name", strs(vec!["cedar", "oak", "ash", "cedar"]))
            .build(),
    );
    let mk = |join_type| Plan::HashJoin {
        build: Box::new(Plan::scan("b", &["name"])),
        probe: Box::new(Plan::scan("p", &["name", "v"]).select(lt(col("v"), lit_i64(9)))),
        build_keys: vec![col("name")],
        probe_keys: vec![col("name")],
        payload: vec![],
        join_type,
    };
    let (res, _) = execute(&db, &mk(JoinType::LeftSemi), &opts()).expect("semi");
    assert_eq!(res.column_by_name("v").as_i64(), &[0, 2, 6, 8]);
    let (res, _) = execute(&db, &mk(JoinType::LeftAnti), &opts()).expect("anti");
    assert_eq!(res.column_by_name("v").as_i64(), &[1, 3, 4, 5, 7]);
}

#[test]
fn hash_join_reset_midstream_and_rerun() {
    // Abandon the probe mid-stream, reset(), and re-execute: the build
    // table is rebuilt and the replay must equal a fresh run.
    let mut db = Database::new();
    db.register(
        TableBuilder::new("p")
            .column("k", Vector::I64((0..100).map(|i| i % 10).collect()))
            .column("v", Vector::I64((0..100).collect()))
            .build(),
    );
    db.register(
        TableBuilder::new("b")
            .column("k", Vector::I64(vec![0, 2, 4, 6, 8]))
            .column("w", Vector::I64(vec![10, 12, 14, 16, 18]))
            .build(),
    );
    let plan = Plan::HashJoin {
        build: Box::new(Plan::scan("b", &["k", "w"])),
        probe: Box::new(Plan::scan("p", &["k", "v"])),
        build_keys: vec![col("k")],
        probe_keys: vec![col("k")],
        payload: vec![("w".into(), "w".into())],
        join_type: JoinType::Inner,
    };
    let eopts = ExecOptions::with_vector_size(16); // many probe batches
    let mut op = plan.bind(&db, &eopts).expect("binds");
    let mut prof = x100_engine::Profiler::new(false);
    assert!(
        op.next(&mut prof).expect("no error").is_some(),
        "first batch"
    );
    op.reset();
    let replay = x100_engine::session::run_operator(op.as_mut(), &mut prof).expect("replay");
    let (fresh, _) = execute(&db, &plan, &eopts).expect("fresh");
    assert_eq!(replay.row_strings(), fresh.row_strings());
    assert_eq!(replay.num_rows(), 50);
}

#[test]
fn hash_join_n_to_m_duplicates_across_vector_boundaries() {
    // Duplicate keys on both sides, with both dataflows spanning many
    // 8-row vectors: every (probe, build) pairing must surface exactly
    // once. Build: key 1 x3, key 2 x2 (plus noise); probe: 60 rows
    // cycling keys 0..5.
    let mut db = Database::new();
    let build_keys = [1i64, 9, 1, 7, 2, 1, 2, 5, 11, 13];
    db.register(
        TableBuilder::new("b")
            .column("k", Vector::I64(build_keys.to_vec()))
            .column("id", Vector::I64((0..build_keys.len() as i64).collect()))
            .build(),
    );
    let probe_keys: Vec<i64> = (0..60).map(|i| i % 5).collect();
    db.register(
        TableBuilder::new("p")
            .column("k", Vector::I64(probe_keys.clone()))
            .column("v", Vector::I64((0..60).collect()))
            .build(),
    );
    let plan = Plan::HashJoin {
        build: Box::new(Plan::scan("b", &["k", "id"])),
        probe: Box::new(Plan::scan("p", &["k", "v"])),
        build_keys: vec![col("k")],
        probe_keys: vec![col("k")],
        payload: vec![("id".into(), "id".into())],
        join_type: JoinType::Inner,
    };
    let (res, _) = execute(&db, &plan, &ExecOptions::with_vector_size(8)).expect("runs");
    // Expected multiset: each probe row pairs with every build row of
    // the same key.
    let mut expected = Vec::new();
    for (i, &pk) in probe_keys.iter().enumerate() {
        for (id, &bk) in build_keys.iter().enumerate() {
            if pk == bk {
                expected.push((i as i64, id as i64));
            }
        }
    }
    let mut got: Vec<(i64, i64)> = (0..res.num_rows())
        .map(|r| {
            let v = res.value(r, res.col_index("v").expect("v"));
            let id = res.value(r, res.col_index("id").expect("id"));
            match (v, id) {
                (Value::I64(v), Value::I64(id)) => (v, id),
                other => panic!("unexpected row {other:?}"),
            }
        })
        .collect();
    expected.sort_unstable();
    got.sort_unstable();
    assert_eq!(got, expected);
    assert_eq!(res.num_rows(), 12 * 3 + 12 * 2); // key1: 12x3, key2: 12x2
}

#[test]
fn left_outer_defaults_cover_every_payload_type() {
    // push_default regression: an unmatched outer row must supply a
    // zero/empty default for payload columns of every storable type.
    let mut db = Database::new();
    db.register(
        TableBuilder::new("p")
            .column("k", Vector::I64(vec![1, 2]))
            .build(),
    );
    db.register(
        TableBuilder::new("b")
            .column("k", Vector::I64(vec![2]))
            .column("c_i8", Vector::I8(vec![-8]))
            .column("c_i16", Vector::I16(vec![-16]))
            .column("c_i32", Vector::I32(vec![-32]))
            .column("c_i64", Vector::I64(vec![-64]))
            .column("c_u8", Vector::U8(vec![8]))
            .column("c_u16", Vector::U16(vec![16]))
            .column("c_u32", Vector::U32(vec![32]))
            .column("c_u64", Vector::U64(vec![64]))
            .column("c_f64", Vector::F64(vec![6.4]))
            .column("c_str", {
                let mut c = Vector::with_capacity(ScalarType::Str, 0);
                c.push_value(&Value::Str("match".into()));
                c
            })
            .build(),
    );
    let cols = [
        "c_i8", "c_i16", "c_i32", "c_i64", "c_u8", "c_u16", "c_u32", "c_u64", "c_f64", "c_str",
    ];
    let mut scan_cols = vec!["k"];
    scan_cols.extend(cols);
    let plan = Plan::HashJoin {
        build: Box::new(Plan::scan("b", &scan_cols)),
        probe: Box::new(Plan::scan("p", &["k"])),
        build_keys: vec![col("k")],
        probe_keys: vec![col("k")],
        payload: cols
            .iter()
            .map(|c| (c.to_string(), c.to_string()))
            .collect(),
        join_type: JoinType::LeftOuter,
    };
    let (res, _) = execute(&db, &plan, &opts()).expect("runs");
    assert_eq!(res.column_by_name("k").as_i64(), &[1, 2]);
    // Row 0 (k=1) is unmatched: all defaults. Row 1 (k=2) matched.
    let at = |r: usize, name: &str| res.value(r, res.col_index(name).expect(name));
    assert_eq!(at(0, "c_i8"), Value::I8(0));
    assert_eq!(at(0, "c_i16"), Value::I16(0));
    assert_eq!(at(0, "c_i32"), Value::I32(0));
    assert_eq!(at(0, "c_i64"), Value::I64(0));
    assert_eq!(at(0, "c_u8"), Value::U8(0));
    assert_eq!(at(0, "c_u16"), Value::U16(0));
    assert_eq!(at(0, "c_u32"), Value::U32(0));
    assert_eq!(at(0, "c_u64"), Value::U64(0));
    assert_eq!(at(0, "c_f64"), Value::F64(0.0));
    assert_eq!(at(0, "c_str"), Value::Str("".into()));
    assert_eq!(at(1, "c_i8"), Value::I8(-8));
    assert_eq!(at(1, "c_f64"), Value::F64(6.4));
    assert_eq!(at(1, "c_str"), Value::Str("match".into()));
}

/// A 20-row table whose every row has `a < b` although the column ranges
/// overlap (so no fact proves the comparison and a `Select` runs it),
/// except at `fail`, where `a == b`; `delete` is a pending delete.
fn pairs_db(fail: Option<i64>, delete: Option<u32>) -> Database {
    let n = 20i64;
    let b = (0..n).map(|i| if Some(i) == fail { i } else { i + 1 });
    let mut t = TableBuilder::new("t")
        .column("a", Vector::I64((0..n).collect()))
        .column("b", Vector::I64(b.collect()))
        .build();
    if let Some(row) = delete {
        t.delete(row);
    }
    let mut db = Database::new();
    db.register(t);
    db
}

/// The live positions of the first batch `plan` produces (`None`: the
/// batch is dense), and its length.
fn first_batch(db: &Database, plan: &Plan) -> (usize, Option<Vec<u32>>) {
    let mut op = plan.bind(db, &opts()).expect("binds");
    let mut prof = x100_engine::Profiler::new(false);
    let batch = op.next(&mut prof).expect("runs").expect("a batch");
    let sel = batch.sel_ref().map(|s| s.positions().to_vec());
    (batch.len, sel)
}

#[test]
fn a_select_every_row_passes_publishes_no_selection() {
    let plan = Plan::scan("t", &["a", "b"]).select(lt(col("a"), col("b")));
    assert_eq!(first_batch(&pairs_db(None, None), &plan), (20, None));
    // One failing row: a selection of the other 19.
    let (len, sel) = first_batch(&pairs_db(Some(7), None), &plan);
    let want: Vec<u32> = (0..20).filter(|&i| i != 7).collect();
    assert_eq!((len, sel), (20, Some(want)));
}

#[test]
fn a_select_keeps_the_selection_its_input_had() {
    // The scan's deletion mask is a selection; a select every live row
    // passes narrows nothing, and the selection still stands.
    let plan = Plan::scan("t", &["a", "b"]).select(lt(col("a"), col("b")));
    let (len, sel) = first_batch(&pairs_db(None, Some(3)), &plan);
    let want: Vec<u32> = (0..20).filter(|&i| i != 3).collect();
    assert_eq!((len, sel), (20, Some(want)));
}

#[test]
fn a_semi_join_whose_probe_vector_all_matches_goes_on_dense() {
    let n = 50i64;
    for (form, build) in [
        ("sorted keys (merge join)", (0..n).collect::<Vec<_>>()),
        ("unsorted keys (hash join)", (0..n).rev().collect()),
    ] {
        let mut db = Database::new();
        db.register(
            TableBuilder::new("b")
                .column("k", Vector::I64(build))
                .build(),
        );
        db.register(
            TableBuilder::new("p")
                .column("k", Vector::I64((0..n).map(|i| i / 2).collect()))
                .build(),
        );
        let semi = |probe: Plan| Plan::HashJoin {
            build: Box::new(Plan::scan("b", &["k"])),
            probe: Box::new(probe),
            build_keys: vec![col("k")],
            probe_keys: vec![col("k")],
            payload: vec![],
            join_type: JoinType::LeftSemi,
        };
        // Every probe key has a build row: the vector goes on dense.
        let whole = semi(Plan::scan("p", &["k"]));
        let walk = check_plan(&db, &whole, &opts()).expect("checks");
        let merged = (walk.report.iter()).any(|l| l.contains("rule sorted-inputs-merge-join:"));
        assert_eq!(
            merged,
            form.starts_with("sorted"),
            "{form}: {:?}",
            walk.report
        );
        assert_eq!(first_batch(&db, &whole), (50, None), "{form}");
        // Over a probe vector that had a selection, the selection stays.
        let narrowed = semi(Plan::scan("p", &["k"]).select(lt(col("k"), lit_i64(10))));
        let (len, sel) = first_batch(&db, &narrowed);
        assert_eq!((len, sel), (50, Some((0..20).collect())), "{form}");
    }
}
