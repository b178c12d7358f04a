//! Loaders: raw generated data → engine-specific storage.
//!
//! * [`build_x100_db`] — vertically fragmented [`x100_storage::Table`]s
//!   with the paper's §5 physical design: enumeration types where
//!   possible (`l_discount`, `l_tax`, `l_quantity`, flags, modes, …),
//!   summary indices on all date columns, and join-index `#rowId`
//!   columns over all foreign-key paths.
//! * [`build_volcano_lineitem`] — the NSM record table for the
//!   tuple-at-a-time baseline (Q1 columns).
//! * [`mil_bats`] — plain full-width BATs for the MonetDB/MIL baseline
//!   (MIL storage predates the enum compression).

use crate::gen::{RawLineitem, TpchData};
use monet_mil::Bat;
use std::collections::BTreeMap;
use x100_engine::Database;
use x100_storage::{Table, TableBuilder};
use x100_vector::{StrVec, Vector};

fn str_col(values: &[String]) -> Vector {
    let mut s = StrVec::with_capacity(values.len(), 12);
    for v in values {
        s.push(v);
    }
    Vector::Str(s)
}

/// Build the `lineitem` table (X100 physical design).
pub fn build_lineitem(li: &RawLineitem) -> Table {
    let mut b = TableBuilder::new("lineitem");
    if !li.orderkey.is_empty() {
        b = b.column("l_orderkey", Vector::I64(li.orderkey.clone()));
        b = b.column("l_partkey", Vector::I64(li.partkey.clone()));
        b = b.column("l_suppkey", Vector::I64(li.suppkey.clone()));
        b = b.column("l_linenumber", Vector::I64(li.linenumber.clone()));
    }
    b = b
        .auto_enum_f64("l_quantity", li.quantity.clone())
        .column("l_extendedprice", Vector::F64(li.extendedprice.clone()))
        .auto_enum_f64("l_discount", li.discount.clone())
        .auto_enum_f64("l_tax", li.tax.clone())
        .auto_enum_str("l_returnflag", li.returnflag.clone())
        .auto_enum_str("l_linestatus", li.linestatus.clone())
        .column("l_shipdate", Vector::I32(li.shipdate.clone()))
        .with_summary();
    if !li.commitdate.is_empty() {
        b = b
            .column("l_commitdate", Vector::I32(li.commitdate.clone()))
            .with_summary()
            .column("l_receiptdate", Vector::I32(li.receiptdate.clone()))
            .with_summary()
            .auto_enum_str("l_shipinstruct", li.shipinstruct.clone())
            .auto_enum_str("l_shipmode", li.shipmode.clone())
            .column("li_order_idx", Vector::U32(li.order_idx.clone()))
            .column("li_part_idx", Vector::U32(li.part_idx.clone()))
            .column("li_supp_idx", Vector::U32(li.supp_idx.clone()))
            .column("li_ps_idx", Vector::U32(li.ps_idx.clone()));
    }
    b.build()
}

/// Build the full X100 database with all eight tables + join indices.
pub fn build_x100_db(data: &TpchData) -> Database {
    let mut db = Database::new();
    db.register(
        TableBuilder::new("region")
            .column("r_regionkey", Vector::I64(data.region.regionkey.clone()))
            .auto_enum_str("r_name", data.region.name.clone())
            .build(),
    );
    db.register(
        TableBuilder::new("nation")
            .column("n_nationkey", Vector::I64(data.nation.nationkey.clone()))
            .auto_enum_str("n_name", data.nation.name.clone())
            .column("n_regionkey", Vector::I64(data.nation.regionkey.clone()))
            .column(
                "n_region_idx",
                Vector::U32(data.nation.regionkey.iter().map(|&r| r as u32).collect()),
            )
            .build(),
    );
    db.register(
        TableBuilder::new("supplier")
            .column("s_suppkey", Vector::I64(data.supplier.suppkey.clone()))
            .column("s_name", str_col(&data.supplier.name))
            .column("s_nationkey", Vector::I64(data.supplier.nationkey.clone()))
            .column(
                "s_nation_idx",
                Vector::U32(data.supplier.nationkey.iter().map(|&n| n as u32).collect()),
            )
            .column("s_acctbal", Vector::F64(data.supplier.acctbal.clone()))
            .column("s_comment", str_col(&data.supplier.comment))
            .build(),
    );
    db.register(
        TableBuilder::new("customer")
            .column("c_custkey", Vector::I64(data.customer.custkey.clone()))
            .column("c_name", str_col(&data.customer.name))
            .column("c_nationkey", Vector::I64(data.customer.nationkey.clone()))
            .column(
                "c_nation_idx",
                Vector::U32(data.customer.nationkey.iter().map(|&n| n as u32).collect()),
            )
            .auto_enum_str("c_mktsegment", data.customer.mktsegment.clone())
            .column("c_acctbal", Vector::F64(data.customer.acctbal.clone()))
            .column("c_phone", str_col(&data.customer.phone))
            .auto_enum_str("c_cntrycode", data.customer.cntrycode.clone())
            .build(),
    );
    db.register(
        TableBuilder::new("part")
            .column("p_partkey", Vector::I64(data.part.partkey.clone()))
            .column("p_name", str_col(&data.part.name))
            .auto_enum_str("p_name1", data.part.name1.clone())
            .auto_enum_str("p_brand", data.part.brand.clone())
            .auto_enum_str("p_type", data.part.typ.clone())
            .auto_enum_str("p_type1", data.part.type1.clone())
            .auto_enum_str("p_type2", data.part.type2.clone())
            .auto_enum_str("p_type3", data.part.type3.clone())
            .auto_enum_i64("p_size", data.part.size.clone())
            .auto_enum_str("p_container", data.part.container.clone())
            .column("p_retailprice", Vector::F64(data.part.retailprice.clone()))
            .build(),
    );
    db.register(
        TableBuilder::new("partsupp")
            .column("ps_partkey", Vector::I64(data.partsupp.partkey.clone()))
            .column("ps_suppkey", Vector::I64(data.partsupp.suppkey.clone()))
            .column(
                "ps_rowid",
                Vector::U32((0..data.partsupp.partkey.len() as u32).collect()),
            )
            .column(
                "ps_part_idx",
                Vector::U32(
                    data.partsupp
                        .partkey
                        .iter()
                        .map(|&p| (p - 1) as u32)
                        .collect(),
                ),
            )
            .column(
                "ps_supp_idx",
                Vector::U32(
                    data.partsupp
                        .suppkey
                        .iter()
                        .map(|&s| (s - 1) as u32)
                        .collect(),
                ),
            )
            .column("ps_availqty", Vector::I64(data.partsupp.availqty.clone()))
            .column(
                "ps_supplycost",
                Vector::F64(data.partsupp.supplycost.clone()),
            )
            .build(),
    );
    db.register(
        TableBuilder::new("orders")
            .column("o_orderkey", Vector::I64(data.orders.orderkey.clone()))
            .column("o_custkey", Vector::I64(data.orders.custkey.clone()))
            .column(
                "o_cust_idx",
                Vector::U32(
                    data.orders
                        .custkey
                        .iter()
                        .map(|&c| (c - 1) as u32)
                        .collect(),
                ),
            )
            .auto_enum_str("o_orderstatus", data.orders.orderstatus.clone())
            .column("o_totalprice", Vector::F64(data.orders.totalprice.clone()))
            .column("o_orderdate", Vector::I32(data.orders.orderdate.clone()))
            .with_summary()
            .auto_enum_str("o_orderpriority", data.orders.orderpriority.clone())
            .column(
                "o_shippriority",
                Vector::I64(data.orders.shippriority.clone()),
            )
            .column("o_li_lo", Vector::U32(data.orders.li_lo.clone()))
            .column("o_li_cnt", Vector::U32(data.orders.li_cnt.clone()))
            .column("o_comment", str_col(&data.orders.comment))
            .build(),
    );
    db.register(build_lineitem(&data.lineitem));
    db
}

/// `db` with `change` applied to a copy of every table.
pub fn each_table(db: &Database, change: impl Fn(&mut Table)) -> Database {
    let names: Vec<String> = db.table_names().map(str::to_owned).collect();
    let mut out = Database::new();
    for name in names {
        let mut t = (*db.table(&name).expect("listed table")).clone();
        change(&mut t);
        out.register(t);
    }
    out
}

/// `db` with a copy of each table's last row pending as an insert: the
/// smallest insert delta, over which every plan must answer as over the
/// tables reorganized.
pub fn pending_inserts(db: &Database) -> Database {
    each_table(db, |t| {
        let row = t.get_row(t.total_rows() as u32 - 1);
        t.insert(&row);
    })
}

/// `db` with each table's last row pending as a delete.
pub fn pending_deletes(db: &Database) -> Database {
    each_table(db, |t| {
        t.delete(t.total_rows() as u32 - 1);
    })
}

/// X100 database holding only the Q1 lineitem columns (large-SF runs).
pub fn build_x100_q1_db(li: &RawLineitem) -> Database {
    let mut db = Database::new();
    db.register(build_lineitem(li));
    db
}

/// NSM record table for the tuple-at-a-time baseline (the Q1 columns,
/// like the paper's hard-coded UDF signature).
pub fn build_volcano_lineitem(li: &RawLineitem) -> volcano::RecordTable {
    use volcano::FieldType;
    let mut t = volcano::RecordTable::new(vec![
        ("l_returnflag".into(), FieldType::Char),
        ("l_linestatus".into(), FieldType::Char),
        ("l_quantity".into(), FieldType::F64),
        ("l_extendedprice".into(), FieldType::F64),
        ("l_discount".into(), FieldType::F64),
        ("l_tax".into(), FieldType::F64),
        ("l_shipdate".into(), FieldType::I32),
    ]);
    for i in 0..li.len() {
        t.append_row()
            .set_char(0, li.returnflag[i].as_bytes()[0])
            .set_char(1, li.linestatus[i].as_bytes()[0])
            .set_f64(2, li.quantity[i])
            .set_f64(3, li.extendedprice[i])
            .set_f64(4, li.discount[i])
            .set_f64(5, li.tax[i])
            .set_i32(6, li.shipdate[i]);
    }
    t
}

/// Plain full-width BATs of the Q1 lineitem columns for MonetDB/MIL.
///
/// MIL stores chars as one-byte columns and numerics at full width — no
/// enumeration compression (the paper reports MIL at ~1 GB vs X100's
/// 0.8 GB for SF=1).
pub fn mil_bats(li: &RawLineitem) -> BTreeMap<&'static str, Bat> {
    let mut m = BTreeMap::new();
    m.insert("l_quantity", Bat::F64(li.quantity.clone()));
    m.insert("l_extendedprice", Bat::F64(li.extendedprice.clone()));
    m.insert("l_discount", Bat::F64(li.discount.clone()));
    m.insert("l_tax", Bat::F64(li.tax.clone()));
    m.insert(
        "l_returnflag",
        Bat::U8(li.returnflag.iter().map(|s| s.as_bytes()[0]).collect()),
    );
    m.insert(
        "l_linestatus",
        Bat::U8(li.linestatus.iter().map(|s| s.as_bytes()[0]).collect()),
    );
    m.insert("l_shipdate", Bat::I32(li.shipdate.clone()));
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate, generate_lineitem_q1, GenConfig};

    #[test]
    fn x100_db_has_all_tables() {
        let data = generate(&GenConfig { sf: 0.001, seed: 1 });
        let db = build_x100_db(&data);
        for t in [
            "region", "nation", "supplier", "customer", "part", "partsupp", "orders", "lineitem",
        ] {
            let tab = db.table(t).expect(t);
            assert!(tab.live_rows() > 0, "{t} empty");
        }
        let li = db.table("lineitem").expect("lineitem");
        // The paper's enum columns are enum-encoded.
        for c in [
            "l_quantity",
            "l_discount",
            "l_tax",
            "l_returnflag",
            "l_linestatus",
            "l_shipmode",
        ] {
            assert!(li.column_by_name(c).dict().is_some(), "{c} should be enum");
        }
        assert!(li.column_by_name("l_extendedprice").dict().is_none());
        assert!(li.column_by_name("l_shipdate").summary().is_some());
        let o = db.table("orders").expect("orders");
        assert!(o.column_by_name("o_orderdate").summary().is_some());
    }

    #[test]
    fn enum_compression_shrinks_storage() {
        // The paper: MIL ≈ 1 GB vs X100 ≈ 0.8 GB at SF=1 thanks to enums.
        let data = generate(&GenConfig { sf: 0.002, seed: 1 });
        let li = &data.lineitem;
        let table = build_lineitem(li);
        let q1_cols = [
            "l_quantity",
            "l_discount",
            "l_tax",
            "l_returnflag",
            "l_linestatus",
        ];
        let compressed: usize = q1_cols
            .iter()
            .map(|c| {
                let sc = table.column_by_name(c);
                sc.physical().byte_size() + sc.dict().map_or(0, |d| d.values().byte_size())
            })
            .sum();
        let n = li.len();
        let uncompressed = n * (8 + 8 + 8 + 1 + 1);
        assert!(
            compressed * 2 < uncompressed,
            "{compressed} vs {uncompressed}"
        );
    }

    #[test]
    fn volcano_table_matches_raw() {
        let li = generate_lineitem_q1(&GenConfig {
            sf: 0.0005,
            seed: 2,
        });
        let t = build_volcano_lineitem(&li);
        assert_eq!(t.num_rows(), li.len());
        let mut c = volcano::Counters::default();
        let r = t.row(7);
        assert_eq!(r.get_f64(2, &mut c), li.quantity[7]);
        assert_eq!(r.get_i32(6, &mut c), li.shipdate[7]);
    }

    #[test]
    fn mil_bats_match_raw() {
        let li = generate_lineitem_q1(&GenConfig {
            sf: 0.0005,
            seed: 2,
        });
        let bats = mil_bats(&li);
        assert_eq!(bats["l_quantity"].as_f64(), &li.quantity[..]);
        assert_eq!(
            bats["l_returnflag"].as_u8()[0],
            li.returnflag[0].as_bytes()[0]
        );
    }
}
