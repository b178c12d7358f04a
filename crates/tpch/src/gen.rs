//! Deterministic TPC-H data generator (dbgen equivalent).
//!
//! Generates the eight TPC-H tables with the benchmark's cardinalities
//! and the value distributions that matter for the reproduced queries:
//! dates, quantities, prices, discounts/taxes, return flags and line
//! statuses follow the TPC-H specification's formulas; free-text
//! columns (names, comments) are simplified synthetic strings, which no
//! reproduced query inspects beyond equality on enumerated prefixes.
//!
//! Matching the paper's §5 setup: `orders` is **sorted on date** and
//! `lineitem` is generated **clustered with it** (lineitems of an order
//! are contiguous, in order-date order), so date columns are almost
//! sorted and summary indices prune range predicates.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use x100_vector::date::to_days;

/// Scale-factor configuration.
#[derive(Debug, Clone, Copy)]
pub struct GenConfig {
    /// TPC-H scale factor (1.0 = 6M lineitems).
    pub sf: f64,
    /// RNG seed; same seed + sf → identical data.
    pub seed: u64,
}

impl GenConfig {
    /// Config at scale factor `sf` with the default seed.
    pub fn new(sf: f64) -> Self {
        GenConfig {
            sf,
            seed: 0x7c05_1915,
        }
    }

    fn scaled(&self, base: usize) -> usize {
        ((base as f64 * self.sf).round() as usize).max(1)
    }
}

/// The five TPC-H regions.
pub const REGIONS: [&str; 5] = ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"];

/// The 25 TPC-H nations with their region keys.
pub const NATIONS: [(&str, i64); 25] = [
    ("ALGERIA", 0),
    ("ARGENTINA", 1),
    ("BRAZIL", 1),
    ("CANADA", 1),
    ("EGYPT", 4),
    ("ETHIOPIA", 0),
    ("FRANCE", 3),
    ("GERMANY", 3),
    ("INDIA", 2),
    ("INDONESIA", 2),
    ("IRAN", 4),
    ("IRAQ", 4),
    ("JAPAN", 2),
    ("JORDAN", 4),
    ("KENYA", 0),
    ("MOROCCO", 0),
    ("MOZAMBIQUE", 0),
    ("PERU", 1),
    ("CHINA", 2),
    ("ROMANIA", 3),
    ("SAUDI ARABIA", 4),
    ("VIETNAM", 2),
    ("RUSSIA", 3),
    ("UNITED KINGDOM", 3),
    ("UNITED STATES", 1),
];

/// TPC-H market segments.
pub const SEGMENTS: [&str; 5] = [
    "AUTOMOBILE",
    "BUILDING",
    "FURNITURE",
    "HOUSEHOLD",
    "MACHINERY",
];

/// TPC-H order priorities.
pub const PRIORITIES: [&str; 5] = ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"];

/// TPC-H ship modes.
pub const SHIPMODES: [&str; 7] = ["AIR", "FOB", "MAIL", "RAIL", "REG AIR", "SHIP", "TRUCK"];

/// TPC-H ship instructions.
pub const SHIPINSTRUCTS: [&str; 4] = [
    "COLLECT COD",
    "DELIVER IN PERSON",
    "NONE",
    "TAKE BACK RETURN",
];

/// Type prefixes (`p_type` word 1) — `PROMO` drives Q14.
pub const TYPE_SYLL1: [&str; 6] = ["ECONOMY", "LARGE", "MEDIUM", "PROMO", "SMALL", "STANDARD"];
/// Type middles (`p_type` word 2).
pub const TYPE_SYLL2: [&str; 5] = ["ANODIZED", "BRUSHED", "BURNISHED", "PLATED", "POLISHED"];
/// Type suffixes (`p_type` word 3).
pub const TYPE_SYLL3: [&str; 5] = ["BRASS", "COPPER", "NICKEL", "STEEL", "TIN"];

/// Container sizes (`p_container` word 1).
pub const CONTAINER1: [&str; 5] = ["JUMBO", "LG", "MED", "SM", "WRAP"];
/// Container kinds (`p_container` word 2).
pub const CONTAINER2: [&str; 8] = ["BAG", "BOX", "CAN", "CASE", "DRUM", "JAR", "PACK", "PKG"];

/// region table.
#[derive(Debug, Clone, Default)]
pub struct RawRegion {
    /// `r_regionkey` (0..4).
    pub regionkey: Vec<i64>,
    /// `r_name`.
    pub name: Vec<String>,
}

/// nation table.
#[derive(Debug, Clone, Default)]
pub struct RawNation {
    /// `n_nationkey` (0..24).
    pub nationkey: Vec<i64>,
    /// `n_name`.
    pub name: Vec<String>,
    /// `n_regionkey`.
    pub regionkey: Vec<i64>,
}

/// supplier table.
#[derive(Debug, Clone, Default)]
pub struct RawSupplier {
    /// `s_suppkey` (1-based).
    pub suppkey: Vec<i64>,
    /// `s_name`.
    pub name: Vec<String>,
    /// `s_nationkey`.
    pub nationkey: Vec<i64>,
    /// `s_acctbal`.
    pub acctbal: Vec<f64>,
    /// `s_comment` (~0.05% contain "Customer Complaints", Q16).
    pub comment: Vec<String>,
}

/// customer table.
#[derive(Debug, Clone, Default)]
pub struct RawCustomer {
    /// `c_custkey` (1-based).
    pub custkey: Vec<i64>,
    /// `c_name`.
    pub name: Vec<String>,
    /// `c_nationkey`.
    pub nationkey: Vec<i64>,
    /// `c_mktsegment`.
    pub mktsegment: Vec<String>,
    /// `c_acctbal`.
    pub acctbal: Vec<f64>,
    /// `c_phone` (`CC-ddd-ddd-dddd`).
    pub phone: Vec<String>,
    /// The phone's two-char country code (Q22's `substring(c_phone,1,2)`
    /// precomputed at load — the engine has no substring primitive).
    pub cntrycode: Vec<String>,
}

/// part table.
#[derive(Debug, Clone, Default)]
pub struct RawPart {
    /// `p_partkey` (1-based).
    pub partkey: Vec<i64>,
    /// `p_name`.
    pub name: Vec<String>,
    /// `p_name`'s first word (prefix LIKEs in Q9/Q20 use containment
    /// over `p_name` or equality here).
    pub name1: Vec<String>,
    /// `p_brand` (`Brand#MN`).
    pub brand: Vec<String>,
    /// `p_type` (three words; word 1 = type class, e.g. `PROMO`).
    pub typ: Vec<String>,
    /// `p_type`'s first word (the class queried by Q14).
    pub type1: Vec<String>,
    /// `p_type`'s second word (Q16's `MEDIUM POLISHED%`).
    pub type2: Vec<String>,
    /// `p_type`'s third word (Q2's `%BRASS`).
    pub type3: Vec<String>,
    /// `p_size` (1..=50).
    pub size: Vec<i64>,
    /// `p_container` (two words).
    pub container: Vec<String>,
    /// `p_retailprice`.
    pub retailprice: Vec<f64>,
}

/// partsupp table.
#[derive(Debug, Clone, Default)]
pub struct RawPartSupp {
    /// `ps_partkey`.
    pub partkey: Vec<i64>,
    /// `ps_suppkey`.
    pub suppkey: Vec<i64>,
    /// `ps_availqty`.
    pub availqty: Vec<i64>,
    /// `ps_supplycost`.
    pub supplycost: Vec<f64>,
}

/// orders table (sorted on `o_orderdate`).
#[derive(Debug, Clone, Default)]
pub struct RawOrders {
    /// `o_orderkey`.
    pub orderkey: Vec<i64>,
    /// `o_custkey`.
    pub custkey: Vec<i64>,
    /// `o_orderstatus` (`F`/`O`/`P`).
    pub orderstatus: Vec<String>,
    /// `o_totalprice`.
    pub totalprice: Vec<f64>,
    /// `o_orderdate` (days since epoch; non-decreasing).
    pub orderdate: Vec<i32>,
    /// `o_orderpriority`.
    pub orderpriority: Vec<String>,
    /// `o_shippriority` (always 0).
    pub shippriority: Vec<i64>,
    /// `o_comment` (~1% contain "special requests", Q13).
    pub comment: Vec<String>,
    /// Join index: first lineitem `#rowId` of this order.
    pub li_lo: Vec<u32>,
    /// Join index: number of lineitems of this order.
    pub li_cnt: Vec<u32>,
}

/// lineitem table (clustered with orders).
#[derive(Debug, Clone, Default)]
pub struct RawLineitem {
    /// `l_orderkey`.
    pub orderkey: Vec<i64>,
    /// `l_partkey`.
    pub partkey: Vec<i64>,
    /// `l_suppkey`.
    pub suppkey: Vec<i64>,
    /// `l_linenumber` (1-based within order).
    pub linenumber: Vec<i64>,
    /// `l_quantity` (1..=50, stored as double like the paper's plan).
    pub quantity: Vec<f64>,
    /// `l_extendedprice`.
    pub extendedprice: Vec<f64>,
    /// `l_discount` (0.00..=0.10).
    pub discount: Vec<f64>,
    /// `l_tax` (0.00..=0.08).
    pub tax: Vec<f64>,
    /// `l_returnflag` (`A`/`N`/`R`).
    pub returnflag: Vec<String>,
    /// `l_linestatus` (`F`/`O`).
    pub linestatus: Vec<String>,
    /// `l_shipdate` (days since epoch).
    pub shipdate: Vec<i32>,
    /// `l_commitdate`.
    pub commitdate: Vec<i32>,
    /// `l_receiptdate`.
    pub receiptdate: Vec<i32>,
    /// `l_shipinstruct`.
    pub shipinstruct: Vec<String>,
    /// `l_shipmode`.
    pub shipmode: Vec<String>,
    /// Join index: `#rowId` of the owning order.
    pub order_idx: Vec<u32>,
    /// Join index: `#rowId` of the part (`partkey - 1`).
    pub part_idx: Vec<u32>,
    /// Join index: `#rowId` of the supplier (`suppkey - 1`).
    pub supp_idx: Vec<u32>,
    /// Join index: `#rowId` of the (partkey, suppkey) partsupp row.
    pub ps_idx: Vec<u32>,
}

impl RawLineitem {
    /// Number of lineitems. (`quantity` is filled by every generator,
    /// including the Q1-only one that skips key columns.)
    pub fn len(&self) -> usize {
        self.quantity.len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.quantity.is_empty()
    }
}

/// The generated database.
#[derive(Debug, Clone, Default)]
pub struct TpchData {
    /// region.
    pub region: RawRegion,
    /// nation.
    pub nation: RawNation,
    /// supplier.
    pub supplier: RawSupplier,
    /// customer.
    pub customer: RawCustomer,
    /// part.
    pub part: RawPart,
    /// partsupp.
    pub partsupp: RawPartSupp,
    /// orders (sorted on date).
    pub orders: RawOrders,
    /// lineitem (clustered with orders).
    pub lineitem: RawLineitem,
}

/// The TPC-H retail price formula.
fn retail_price(partkey: i64) -> f64 {
    (90000 + (partkey / 10) % 20001 + 100 * (partkey % 1000)) as f64 / 100.0
}

/// TPC-H date anchors.
mod dates {
    use super::to_days;

    pub fn start() -> i32 {
        to_days(1992, 1, 1)
    }

    /// Last order date: end of period minus 151 days.
    pub fn last_order() -> i32 {
        to_days(1998, 8, 2)
    }

    /// The `CURRENTDATE`-ish split used by returnflag/linestatus.
    pub fn split() -> i32 {
        to_days(1995, 6, 17)
    }
}

/// Generate the full database at `cfg`.
pub fn generate(cfg: &GenConfig) -> TpchData {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let n_supp = cfg.scaled(10_000);
    let n_cust = cfg.scaled(150_000);
    let n_part = cfg.scaled(200_000);
    let n_orders = cfg.scaled(1_500_000);

    let mut db = TpchData::default();

    // region & nation: fixed content.
    for (i, name) in REGIONS.iter().enumerate() {
        db.region.regionkey.push(i as i64);
        db.region.name.push((*name).to_owned());
    }
    for (i, (name, region)) in NATIONS.iter().enumerate() {
        db.nation.nationkey.push(i as i64);
        db.nation.name.push((*name).to_owned());
        db.nation.regionkey.push(*region);
    }

    // supplier.
    for k in 1..=n_supp as i64 {
        db.supplier.suppkey.push(k);
        db.supplier.name.push(format!("Supplier#{k:09}"));
        db.supplier.nationkey.push(rng.gen_range(0..25));
        db.supplier
            .acctbal
            .push(rng.gen_range(-99999..=999999) as f64 / 100.0);
        // TPC-H: a handful of suppliers have complaint comments.
        db.supplier.comment.push(if rng.gen_ratio(1, 2000) {
            format!("wait Customer slyly Complaints about supplier {k}")
        } else {
            format!("supplier {k} ships quickly")
        });
    }

    // customer.
    for k in 1..=n_cust as i64 {
        db.customer.custkey.push(k);
        db.customer.name.push(format!("Customer#{k:09}"));
        db.customer.nationkey.push(rng.gen_range(0..25));
        db.customer
            .mktsegment
            .push(SEGMENTS[rng.gen_range(0..SEGMENTS.len())].to_owned());
        db.customer
            .acctbal
            .push(rng.gen_range(-99999..=999999) as f64 / 100.0);
        // Phone country code = nationkey + 10 (TPC-H's formula).
        let cc = db.customer.nationkey.last().expect("just pushed") + 10;
        db.customer.cntrycode.push(format!("{cc}"));
        db.customer.phone.push(format!(
            "{cc}-{}-{}-{}",
            rng.gen_range(100..1000),
            rng.gen_range(100..1000),
            rng.gen_range(1000..10000)
        ));
    }

    // part.
    const P_WORDS: [&str; 12] = [
        "almond",
        "antique",
        "aquamarine",
        "azure",
        "beige",
        "bisque",
        "black",
        "blanched",
        "blue",
        "blush",
        "forest",
        "green",
    ];
    for k in 1..=n_part as i64 {
        db.part.partkey.push(k);
        let w1 = P_WORDS[rng.gen_range(0..P_WORDS.len())];
        let w2 = P_WORDS[rng.gen_range(0..P_WORDS.len())];
        db.part.name.push(format!("{w1} {w2}"));
        db.part.name1.push(w1.to_owned());
        let (m, n) = (rng.gen_range(1..=5), rng.gen_range(1..=5));
        db.part.brand.push(format!("Brand#{m}{n}"));
        let t1 = TYPE_SYLL1[rng.gen_range(0..TYPE_SYLL1.len())];
        let t2 = TYPE_SYLL2[rng.gen_range(0..TYPE_SYLL2.len())];
        let t3 = TYPE_SYLL3[rng.gen_range(0..TYPE_SYLL3.len())];
        db.part.typ.push(format!("{t1} {t2} {t3}"));
        db.part.type1.push(t1.to_owned());
        db.part.type2.push(t2.to_owned());
        db.part.type3.push(t3.to_owned());
        db.part.size.push(rng.gen_range(1..=50));
        let c1 = CONTAINER1[rng.gen_range(0..CONTAINER1.len())];
        let c2 = CONTAINER2[rng.gen_range(0..CONTAINER2.len())];
        db.part.container.push(format!("{c1} {c2}"));
        db.part.retailprice.push(retail_price(k));
    }

    // partsupp: 4 suppliers per part (TPC-H's PS_PER_PART). The spread
    // offsets s·⌊n/4⌋ are distinct modulo n for n ≥ 4, keeping
    // (part, supp) unique; tiny scale factors with fewer suppliers get
    // proportionally fewer rows.
    let per_part = 4.min(n_supp) as i64;
    let mut ps_lookup: std::collections::HashMap<(i64, i64), u32> =
        std::collections::HashMap::new();
    for k in 1..=n_part as i64 {
        for s in 0..per_part {
            let suppkey = (k - 1 + s * (n_supp as i64 / per_part)) % n_supp as i64 + 1;
            ps_lookup.insert((k, suppkey), db.partsupp.partkey.len() as u32);
            db.partsupp.partkey.push(k);
            db.partsupp.suppkey.push(suppkey);
            db.partsupp.availqty.push(rng.gen_range(1..=9999));
            db.partsupp
                .supplycost
                .push(rng.gen_range(100..=100000) as f64 / 100.0);
        }
    }

    // orders: draw dates, sort ascending (paper: "we sorted the orders
    // table on date"), then generate clustered lineitems.
    let mut order_dates: Vec<i32> = (0..n_orders)
        .map(|_| rng.gen_range(dates::start()..=dates::last_order()))
        .collect();
    order_dates.sort_unstable();

    let split = dates::split();
    let mut li_rowid: u32 = 0;
    for (oi, &odate) in order_dates.iter().enumerate() {
        let orderkey = (oi as i64) * 4 + 1; // sparse keys like dbgen

        // As dbgen: no order goes to a custkey divisible by three, so a
        // third of the customers have none (Q13's zero bucket, Q22's
        // answer). The k-th key that is no multiple of three is
        // k + (k - 1) / 2.
        let k = rng.gen_range(1..=(n_cust - n_cust / 3) as i64);
        let custkey = k + (k - 1) / 2;
        let nlines = rng.gen_range(1..=7usize);
        let mut total = 0.0f64;
        let mut all_f = true;
        let mut all_o = true;
        for ln in 0..nlines {
            let partkey = rng.gen_range(1..=n_part as i64);
            // TPC-H picks the supplier among the part's partsupp rows.
            let s = rng.gen_range(0..per_part);
            let suppkey = (partkey - 1 + s * (n_supp as i64 / per_part)) % n_supp as i64 + 1;
            let quantity = rng.gen_range(1..=50) as f64;
            let extprice = quantity * retail_price(partkey);
            let discount = rng.gen_range(0..=10) as f64 / 100.0;
            let tax = rng.gen_range(0..=8) as f64 / 100.0;
            let shipdate = odate + rng.gen_range(1..=121);
            let commitdate = odate + rng.gen_range(30..=90);
            let receiptdate = shipdate + rng.gen_range(1..=30);
            let returnflag = if receiptdate <= split {
                if rng.gen_bool(0.5) {
                    "R"
                } else {
                    "A"
                }
            } else {
                "N"
            };
            let linestatus = if shipdate > split { "O" } else { "F" };
            all_f &= linestatus == "F";
            all_o &= linestatus == "O";
            total += extprice * (1.0 - discount) * (1.0 + tax);

            let li = &mut db.lineitem;
            li.orderkey.push(orderkey);
            li.partkey.push(partkey);
            li.suppkey.push(suppkey);
            li.linenumber.push(ln as i64 + 1);
            li.quantity.push(quantity);
            li.extendedprice.push(extprice);
            li.discount.push(discount);
            li.tax.push(tax);
            li.returnflag.push(returnflag.to_owned());
            li.linestatus.push(linestatus.to_owned());
            li.shipdate.push(shipdate);
            li.commitdate.push(commitdate);
            li.receiptdate.push(receiptdate);
            li.shipinstruct
                .push(SHIPINSTRUCTS[rng.gen_range(0..SHIPINSTRUCTS.len())].to_owned());
            li.shipmode
                .push(SHIPMODES[rng.gen_range(0..SHIPMODES.len())].to_owned());
            li.order_idx.push(oi as u32);
            li.part_idx.push((partkey - 1) as u32);
            li.supp_idx.push((suppkey - 1) as u32);
            li.ps_idx.push(ps_lookup[&(partkey, suppkey)]);
        }
        let o = &mut db.orders;
        o.orderkey.push(orderkey);
        o.custkey.push(custkey);
        o.orderstatus.push(
            if all_f {
                "F"
            } else if all_o {
                "O"
            } else {
                "P"
            }
            .to_owned(),
        );
        o.totalprice.push((total * 100.0).round() / 100.0);
        o.orderdate.push(odate);
        o.orderpriority
            .push(PRIORITIES[rng.gen_range(0..PRIORITIES.len())].to_owned());
        o.shippriority.push(0);
        // TPC-H: ~1% of order comments mention "special requests".
        o.comment.push(if rng.gen_ratio(1, 100) {
            format!("the special packages wake requests {orderkey}")
        } else {
            format!("order {orderkey} sleeps quietly")
        });
        o.li_lo.push(li_rowid);
        o.li_cnt.push(nlines as u32);
        li_rowid += nlines as u32;
    }
    db
}

/// Generate only the seven Q1 lineitem columns (plus clustered
/// shipdates), for the Q1-focused experiments at larger scale.
pub fn generate_lineitem_q1(cfg: &GenConfig) -> RawLineitem {
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x9e37);
    let n = cfg.scaled(6_000_000);
    let split = dates::split();
    let mut li = RawLineitem::default();
    // Clustered, almost-sorted shipdates: walk order dates in order.
    let span = (dates::last_order() - dates::start()) as f64;
    for i in 0..n {
        let odate = dates::start() + ((i as f64 / n as f64) * span) as i32;
        let partkey = rng.gen_range(1..=200_000i64);
        let quantity = rng.gen_range(1..=50) as f64;
        let shipdate = odate + rng.gen_range(1..=121);
        let returnflag = if shipdate + 15 <= split {
            if rng.gen_bool(0.5) {
                "R"
            } else {
                "A"
            }
        } else {
            "N"
        };
        let linestatus = if shipdate > split { "O" } else { "F" };
        li.quantity.push(quantity);
        li.extendedprice.push(quantity * retail_price(partkey));
        li.discount.push(rng.gen_range(0..=10) as f64 / 100.0);
        li.tax.push(rng.gen_range(0..=8) as f64 / 100.0);
        li.returnflag.push(returnflag.to_owned());
        li.linestatus.push(linestatus.to_owned());
        li.shipdate.push(shipdate);
    }
    li
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> TpchData {
        generate(&GenConfig {
            sf: 0.001,
            seed: 42,
        })
    }

    #[test]
    fn cardinalities_scale() {
        let db = tiny();
        assert_eq!(db.region.regionkey.len(), 5);
        assert_eq!(db.nation.nationkey.len(), 25);
        assert_eq!(db.supplier.suppkey.len(), 10);
        assert_eq!(db.customer.custkey.len(), 150);
        assert_eq!(db.part.partkey.len(), 200);
        assert_eq!(db.partsupp.partkey.len(), 800);
        assert_eq!(db.orders.orderkey.len(), 1500);
        // ~4 lineitems per order on average.
        let n = db.lineitem.len();
        assert!((4500..=7500).contains(&n), "lineitems: {n}");
    }

    #[test]
    fn determinism() {
        let a = generate(&GenConfig { sf: 0.001, seed: 7 });
        let b = generate(&GenConfig { sf: 0.001, seed: 7 });
        assert_eq!(a.lineitem.extendedprice, b.lineitem.extendedprice);
        assert_eq!(a.orders.orderdate, b.orders.orderdate);
        let c = generate(&GenConfig { sf: 0.001, seed: 8 });
        assert_ne!(a.lineitem.extendedprice, c.lineitem.extendedprice);
    }

    #[test]
    fn orders_sorted_lineitem_clustered() {
        let db = tiny();
        assert!(
            db.orders.orderdate.windows(2).all(|w| w[0] <= w[1]),
            "orders sorted on date"
        );
        // li_lo/li_cnt partition the lineitem table contiguously.
        let mut expect = 0u32;
        for (lo, cnt) in db.orders.li_lo.iter().zip(db.orders.li_cnt.iter()) {
            assert_eq!(*lo, expect);
            expect += cnt;
        }
        assert_eq!(expect as usize, db.lineitem.len());
        // order_idx round-trips.
        for (i, &oi) in db.lineitem.order_idx.iter().enumerate() {
            assert_eq!(db.lineitem.orderkey[i], db.orders.orderkey[oi as usize]);
        }
    }

    #[test]
    fn value_domains() {
        let db = tiny();
        let li = &db.lineitem;
        assert!(li.quantity.iter().all(|&q| (1.0..=50.0).contains(&q)));
        assert!(li.discount.iter().all(|&d| (0.0..=0.10001).contains(&d)));
        assert!(li.tax.iter().all(|&t| (0.0..=0.08001).contains(&t)));
        assert!(li
            .returnflag
            .iter()
            .all(|f| ["A", "N", "R"].contains(&f.as_str())));
        assert!(li
            .linestatus
            .iter()
            .all(|s| ["F", "O"].contains(&s.as_str())));
        for i in 0..li.len() {
            assert!(li.shipdate[i] < li.receiptdate[i]);
            assert_eq!(
                li.extendedprice[i],
                li.quantity[i] * retail_price(li.partkey[i])
            );
        }
        // returnflag/linestatus correlation: N ⇒ receipt after split.
        let split = to_days(1995, 6, 17);
        for i in 0..li.len() {
            if li.returnflag[i] == "N" {
                assert!(li.receiptdate[i] > split);
            }
        }
    }

    #[test]
    fn q1_selectivity_matches_spec() {
        // Q1's predicate keeps ~98% of lineitems at the 1998-09-02 cutoff.
        let db = generate(&GenConfig { sf: 0.01, seed: 1 });
        let hi = to_days(1998, 9, 2);
        let kept = db.lineitem.shipdate.iter().filter(|&&d| d <= hi).count();
        let frac = kept as f64 / db.lineitem.len() as f64;
        assert!(frac > 0.95 && frac < 1.0, "selectivity {frac}");
    }

    #[test]
    fn join_keys_are_valid() {
        let db = tiny();
        let ncust = db.customer.custkey.len() as i64;
        assert!(db.orders.custkey.iter().all(|&c| (1..=ncust).contains(&c)));
        let npart = db.part.partkey.len() as u32;
        assert!(db.lineitem.part_idx.iter().all(|&p| p < npart));
        let nsupp = db.supplier.suppkey.len() as u32;
        assert!(db.lineitem.supp_idx.iter().all(|&s| s < nsupp));
        assert!(db.nation.regionkey.iter().all(|&r| (0..5).contains(&r)));
        // partsupp (part, supp) pairs are unique.
        let mut pairs: Vec<(i64, i64)> = db
            .partsupp
            .partkey
            .iter()
            .zip(db.partsupp.suppkey.iter())
            .map(|(&p, &s)| (p, s))
            .collect();
        pairs.sort_unstable();
        let before = pairs.len();
        pairs.dedup();
        assert_eq!(pairs.len(), before, "duplicate (part,supp) in partsupp");
    }

    #[test]
    fn q1_lineitem_generator() {
        let li = generate_lineitem_q1(&GenConfig { sf: 0.001, seed: 3 });
        assert_eq!(li.len(), 6000);
        // Almost sorted shipdates → summary index will prune.
        let sorted_violations = li.shipdate.windows(2).filter(|w| w[0] > w[1]).count();
        assert!(sorted_violations < li.len() / 2);
        assert!(li.orderkey.is_empty(), "q1 generator skips unused columns");
    }
}
