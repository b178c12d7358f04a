//! Property-based tests for the vectorized primitives.
//!
//! The central invariants:
//! 1. branch and predicated select shapes are observationally identical;
//! 2. a primitive run under a selection vector equals the dense run
//!    restricted to the selected positions;
//! 3. chained selects equal one conjunctive filter;
//! 4. fused compound primitives equal their chained expansions;
//! 5. the vectorized group table assigns the ids a tuple-at-a-time
//!    `HashMap` would, in first-seen order;
//! 6. the fused aggregate update equals N single-aggregate passes, bit
//!    for bit;
//! 7. the ordered-aggregation kernels number the runs of equal keys the
//!    way a tuple-at-a-time comparison with the previous tuple does;
//! 8. the gather kernel reads what a scalar loop reads when every read
//!    position is in range, and otherwise refuses the vector untouched —
//!    the string gather too, which writes only the selected strings.

use proptest::prelude::*;
use x100_vector::map::{self, CmpOp};
use x100_vector::select::select_cmp_col_val;
use x100_vector::{
    aggr, compound, fetch, hash, GroupTable, ProbeScratch, ScalarType, SelVec, StrVec, Vector,
};

/// Strategy: a data vector plus a valid ascending selection over it.
fn data_and_sel() -> impl Strategy<Value = (Vec<i64>, Vec<u32>)> {
    prop::collection::vec(-1000i64..1000, 0..300).prop_flat_map(|data| {
        let n = data.len();
        let mask = prop::collection::vec(prop::bool::ANY, n);
        (Just(data), mask).prop_map(|(data, mask)| {
            let sel = mask
                .iter()
                .enumerate()
                .filter_map(|(i, &b)| b.then_some(i as u32))
                .collect::<Vec<_>>();
            (data, sel)
        })
    })
}

/// Key column `ty` (index into the seven group-key types) from small
/// integer draws. The f64 domain starts with both zeroes and two NaNs:
/// four distinct keys under bit equality, the zeroes sharing a hash.
fn key_column(ty: usize, draws: &[u32]) -> Vector {
    const F64_EDGES: [u64; 4] = [
        0,                     // 0.0
        0x8000_0000_0000_0000, // -0.0
        0x7ff8_0000_0000_0000, // NaN
        0x7ff8_0000_0000_0001, // another NaN
    ];
    match ty {
        0 => Vector::U8(draws.iter().map(|&d| d as u8).collect()),
        1 => Vector::U16(draws.iter().map(|&d| d as u16).collect()),
        2 => Vector::U32(draws.to_vec()),
        3 => Vector::I32(draws.iter().map(|&d| d as i32 - 7).collect()),
        4 => Vector::I64(draws.iter().map(|&d| (d as i64 - 7) << 33).collect()),
        5 => Vector::F64(
            draws
                .iter()
                .map(|&d| match F64_EDGES.get(d as usize) {
                    Some(&bits) => f64::from_bits(bits),
                    None => d as f64 * 0.25,
                })
                .collect(),
        ),
        _ => Vector::Str(
            draws
                .iter()
                .map(|&d| format!("k{}", d % 97))
                .collect::<Vec<_>>()
                .iter()
                .map(String::as_str)
                .collect::<StrVec>(),
        ),
    }
}

/// The hash + rehash chain the engine runs over key columns.
fn hash_key_columns(keys: &[Vector], n: usize, sel: Option<&SelVec>) -> Vec<u64> {
    let mut h = vec![0u64; n];
    for (k, key) in keys.iter().enumerate() {
        match (key, k == 0) {
            (Vector::U8(v), true) => hash::map_hash_u8_col(&mut h, v, sel),
            (Vector::U8(v), false) => hash::map_rehash_u8_col(&mut h, v, sel),
            (Vector::U16(v), true) => hash::map_hash_u16_col(&mut h, v, sel),
            (Vector::U16(v), false) => hash::map_rehash_u16_col(&mut h, v, sel),
            (Vector::U32(v), true) => hash::map_hash_u32_col(&mut h, v, sel),
            (Vector::U32(v), false) => hash::map_rehash_u32_col(&mut h, v, sel),
            (Vector::I32(v), true) => hash::map_hash_i32_col(&mut h, v, sel),
            (Vector::I32(v), false) => hash::map_rehash_i32_col(&mut h, v, sel),
            (Vector::I64(v), true) => hash::map_hash_i64_col(&mut h, v, sel),
            (Vector::I64(v), false) => hash::map_rehash_i64_col(&mut h, v, sel),
            (Vector::F64(v), true) => hash::map_hash_f64_col(&mut h, v, sel),
            (Vector::F64(v), false) => hash::map_rehash_f64_col(&mut h, v, sel),
            (Vector::Str(v), true) => hash::map_hash_str_col(&mut h, v, sel),
            (Vector::Str(v), false) => hash::map_rehash_str_col(&mut h, v, sel),
            (other, _) => panic!("not a key type: {:?}", other.scalar_type()),
        }
    }
    h
}

/// What makes two keys the same group: the value's bits, or the string.
fn key_identity(keys: &[Vector], i: usize) -> Vec<(u64, String)> {
    keys.iter()
        .map(|k| match k {
            Vector::F64(v) => (v[i].to_bits(), String::new()),
            Vector::Str(v) => (0, v.get(i).to_owned()),
            other => match other.get_value(i) {
                x100_vector::Value::U8(x) => (x as u64, String::new()),
                x100_vector::Value::U16(x) => (x as u64, String::new()),
                x100_vector::Value::U32(x) => (x as u64, String::new()),
                x100_vector::Value::I32(x) => (x as u64, String::new()),
                x100_vector::Value::I64(x) => (x as u64, String::new()),
                v => panic!("not a key value: {v:?}"),
            },
        })
        .collect()
}

/// Value `i` of a key column, as a one-value column.
fn key_column_at(key: &Vector, i: usize) -> Vector {
    match key {
        Vector::Str(v) => Vector::Str([v.get(i)].into_iter().collect()),
        Vector::F64(v) => Vector::F64(vec![v[i]]),
        other => {
            let mut one = Vector::with_capacity(other.scalar_type(), 1);
            one.push_value(&other.get_value(i));
            one
        }
    }
}

/// One `aggr_ordered_boundaries_<ty>_col` call; `open` holds the key of
/// the group left open, as a one-value column.
fn ordered_boundaries(
    grp: &mut [u32],
    key: &Vector,
    open: Option<&Vector>,
    sel: Option<&SelVec>,
    first: bool,
) -> usize {
    match key {
        Vector::U8(k) => {
            hash::aggr_ordered_boundaries_u8_col(grp, k, open.map(|o| o.as_u8()[0]), sel, first)
        }
        Vector::U16(k) => {
            hash::aggr_ordered_boundaries_u16_col(grp, k, open.map(|o| o.as_u16()[0]), sel, first)
        }
        Vector::U32(k) => {
            hash::aggr_ordered_boundaries_u32_col(grp, k, open.map(|o| o.as_u32()[0]), sel, first)
        }
        Vector::I32(k) => {
            hash::aggr_ordered_boundaries_i32_col(grp, k, open.map(|o| o.as_i32()[0]), sel, first)
        }
        Vector::I64(k) => {
            hash::aggr_ordered_boundaries_i64_col(grp, k, open.map(|o| o.as_i64()[0]), sel, first)
        }
        Vector::F64(k) => {
            hash::aggr_ordered_boundaries_f64_col(grp, k, open.map(|o| o.as_f64()[0]), sel, first)
        }
        Vector::Str(k) => {
            let open = open.map(|o| o.as_str().get(0));
            hash::aggr_ordered_boundaries_str_col(grp, k, open, sel, first)
        }
        other => panic!("not a key column: {:?}", other.scalar_type()),
    }
}

/// A batch of a group-table run: three columns of draws, a selection
/// mask (`None` = dense).
type GroupBatch = (Vec<(u32, u32, u32)>, Option<Vec<bool>>);

fn group_batches() -> impl Strategy<Value = (u32, Vec<GroupBatch>)> {
    // Small domains repeat a new key inside one vector; the large one
    // outgrows the initial bucket array several times over.
    prop_oneof![Just(3u32), Just(40u32), Just(5000u32)].prop_flat_map(|domain| {
        let rows = prop::collection::vec((0..domain, 0..domain.min(7), 0..2u32), 0..400);
        let batch = rows.prop_flat_map(|rows| {
            let n = rows.len();
            let mask = prop_oneof![
                Just(None),
                prop::collection::vec(prop::bool::ANY, n).prop_map(Some)
            ];
            (Just(rows), mask)
        });
        (Just(domain), prop::collection::vec(batch, 1..7))
    })
}

/// Scalar oracle of `fetch::fetch` over `res`: the gathered vector, or
/// `None` when a position it must read — an index slot inside the
/// vector, or a base row — does not exist.
fn gather_oracle(res: &[i64], base: &[i64], idx: &[u32], sel: Option<&[u32]>) -> Option<Vec<i64>> {
    let n = res.len().min(idx.len());
    let read: Vec<usize> = match sel {
        None => (0..n).collect(),
        Some(pos) => pos.iter().map(|&i| i as usize).collect(),
    };
    let mut out = res.to_vec();
    for i in read {
        if i >= n {
            return None;
        }
        out[i] = *base.get(idx[i] as usize)?;
    }
    Some(out)
}

proptest! {
    // Small vectors and few cases under miri, which audits the kernel's
    // one `unsafe` block through this test.
    #![proptest_config(ProptestConfig {
        cases: if cfg!(miri) { 16 } else { 512 },
        ..ProptestConfig::default()
    })]

    #[test]
    fn fetch_kernel_matches_scalar_oracle(
        (base_len, n) in (0usize..40, 0usize..40),
        draws in prop::collection::vec(0u32..1000, 40),
        mask in prop::collection::vec(prop::bool::ANY, 40),
        case in 0usize..7,
    ) {
        let (base_len, n) = match case {
            0 => (base_len.max(1), n),    // all in range
            1 => (base_len, n.max(1)),    // one position equal to base.len()
            4 => (base_len, 0),           // empty vector
            5 => (0, n),                  // empty base
            _ => (base_len, n),
        };
        let base: Vec<i64> = (0..base_len as i64).map(|j| j * 10 + 1).collect();
        let len = base_len as u32;
        let mut idx: Vec<u32> = draws[..n].iter().map(|&d| d % len.max(1)).collect();
        let masked = || (0..n as u32).filter(|&i| mask[i as usize]).collect::<Vec<_>>();
        let mut sel = None;
        match case {
            1 => idx[draws[0] as usize % n] = len,
            2 => {
                // Unselected slots hold ids past the base (delta rows).
                for (i, j) in idx.iter_mut().enumerate() {
                    if !mask[i] {
                        *j = len + draws[i];
                    }
                }
                sel = Some(masked());
            }
            3 => {
                // A selected position past the vector.
                let mut pos = masked();
                pos.push(n as u32);
                sel = Some(pos);
            }
            4 => sel = mask[0].then(Vec::new),
            6 => {
                for (i, j) in idx.iter_mut().enumerate() {
                    *j = draws[i] % (len + 3);
                }
                sel = mask[39].then(masked);
            }
            _ => {}
        }
        let before = vec![-7i64; n];
        let mut res = before.clone();
        let sv = sel.clone().map(SelVec::from_positions);
        let gathered = fetch::fetch(&mut res, &base, &idx, sv.as_ref());
        match gather_oracle(&before, &base, &idx, sel.as_deref()) {
            Some(want) => {
                prop_assert!(gathered, "case {case}: refused an in-range vector");
                prop_assert_eq!(res, want);
            }
            None => {
                prop_assert!(!gathered, "case {case}: gathered out of range");
                prop_assert_eq!(res, before);
            }
        }
    }
}

/// The strings of `v`, in order.
fn strings(v: &StrVec) -> Vec<String> {
    v.iter().map(str::to_owned).collect()
}

proptest! {
    #[test]
    fn fetch_str_matches_the_per_position_reference(
        (base_len, n) in (1usize..30, 0usize..40),
        draws in prop::collection::vec(0u32..1000, 40),
        mask in prop::collection::vec(prop::bool::ANY, 40),
        case in 0usize..5,
    ) {
        // Multi-byte strings of several lengths, the empty one included.
        let owned: Vec<String> = (0..base_len).map(|j| "é".repeat(j % 4) + &"x".repeat(j % 3)).collect();
        let base: StrVec = owned.iter().map(String::as_str).collect();
        let len = base_len as u32;
        let mut idx: Vec<u32> = draws[..n].iter().map(|&d| d % len).collect();
        let every: Vec<u32> = (0..n as u32).collect();
        let sel: Option<Vec<u32>> = match case {
            0 => None,
            1 => Some(Vec::new()),
            2 => Some(every),
            3 => Some(every.last().copied().into_iter().collect()),
            _ => Some(every.into_iter().filter(|&i| mask[i as usize]).collect()),
        };
        let selected = |i: usize| sel.as_ref().is_none_or(|pos| pos.contains(&(i as u32)));
        // Unselected slots may hold any id (a delta row's).
        for (i, j) in idx.iter_mut().enumerate() {
            if !selected(i) {
                *j = len + draws[i];
            }
        }
        let sv = sel.clone().map(SelVec::from_positions);
        let mut res: StrVec = ["stale", "é"].into_iter().collect();
        prop_assert!(fetch::fetch_str(&mut res, &base, &idx, sv.as_ref()));
        let want: Vec<String> = (0..n)
            .map(|i| if selected(i) { owned[idx[i] as usize].clone() } else { String::new() })
            .collect();
        prop_assert_eq!(strings(&res), want);
        // One selected position out of range: refused, nothing written.
        if let Some(p) = (0..n).rev().find(|&i| selected(i)) {
            let before = strings(&res);
            idx[p] = len + draws[p] % 3;
            prop_assert!(!fetch::fetch_str(&mut res, &base, &idx, sv.as_ref()));
            prop_assert_eq!(strings(&res), before);
        }
    }
}

proptest! {
    #[test]
    fn group_table_matches_hashmap_oracle(
        types in prop::collection::vec(0usize..7, 1..4),
        (_, batches) in group_batches(),
        // 0 = real hashes; otherwise every hash is cut to this many
        // distinct values with equal high halves, so distinct keys
        // share home bucket *and* tag and only the key verify tells
        // them apart.
        collide in prop_oneof![Just(0u64), Just(0u64), Just(1u64), Just(5u64)],
    ) {
        let (types, collide): (Vec<usize>, u64) = (types, collide);
        let key_types: Vec<ScalarType> = types
            .iter()
            .map(|&t| key_column(t, &[]).scalar_type())
            .collect();
        let mut table = GroupTable::new(&key_types);
        let mut scratch = ProbeScratch::default();
        let mut oracle = std::collections::HashMap::new();
        let mut first_seen: Vec<Vec<(u64, String)>> = Vec::new();
        // Every batch as looked up, for the shared read-only pass.
        let mut seen = Vec::new();
        for (rows, mask) in &batches {
            let n = rows.len();
            let cols = [
                rows.iter().map(|r| r.0).collect::<Vec<_>>(),
                rows.iter().map(|r| r.1).collect(),
                rows.iter().map(|r| r.2).collect(),
            ];
            let keys: Vec<Vector> = types
                .iter()
                .zip(&cols)
                .map(|(&t, c)| key_column(t, c))
                .collect();
            let sel = mask.as_ref().map(|m| {
                SelVec::from_positions((0..n as u32).filter(|&i| m[i as usize]).collect())
            });
            let mut hashes = hash_key_columns(&keys, n, sel.as_ref());
            if collide > 0 {
                for h in &mut hashes {
                    *h %= collide;
                }
            }
            let refs: Vec<&Vector> = keys.iter().collect();
            let live = |i: usize| mask.as_ref().is_none_or(|m| m[i]);
            // `find` against the table as the batch meets it: the known
            // keys get their ids, the rest are reported absent in
            // ascending position, and nothing is inserted.
            let mut found = vec![77u32; n];
            let groups = table.len();
            let absent = table.find(&mut scratch, &mut found, &hashes, &refs, n, sel.as_ref());
            let mut want_absent = Vec::new();
            for i in (0..n).filter(|&i| live(i)) {
                match oracle.get(&key_identity(&keys, i)) {
                    Some(&g) => prop_assert_eq!(found[i], g, "find, row {} of {}", i, n),
                    None => {
                        prop_assert_eq!(found[i], GroupTable::ABSENT);
                        want_absent.push(i as u32);
                    }
                }
            }
            prop_assert_eq!(absent, &want_absent[..]);
            prop_assert_eq!(table.len(), groups, "find inserted");

            let mut grp = vec![u32::MAX; n];
            table.lookup(&mut scratch, &mut grp, &hashes, &refs, n, sel.as_ref());
            for i in 0..n {
                if !live(i) {
                    prop_assert_eq!(grp[i], u32::MAX, "unselected position written");
                    prop_assert_eq!(found[i], 77, "find wrote an unselected position");
                    continue;
                }
                let id = key_identity(&keys, i);
                let next = oracle.len() as u32;
                let want = *oracle.entry(id.clone()).or_insert_with(|| {
                    first_seen.push(id);
                    next
                });
                prop_assert_eq!(grp[i], want, "row {} of a batch of {}", i, n);
            }
            seen.push((keys, hashes, sel, grp));
        }
        // Two threads share the finished table, each with its own
        // scratch: every key is known now, and `find` agrees with what
        // `lookup` answered.
        let table = std::sync::Arc::new(table);
        let agree = |table: &GroupTable| {
            let mut scratch = ProbeScratch::default();
            seen.iter().all(|(keys, hashes, sel, grp)| {
                let refs: Vec<&Vector> = keys.iter().collect();
                let mut found = vec![u32::MAX; grp.len()];
                let sel = sel.as_ref();
                table
                    .find(&mut scratch, &mut found, hashes, &refs, grp.len(), sel)
                    .is_empty()
                    && found == *grp
            })
        };
        let both = std::thread::scope(|s| {
            let workers = [(); 2].map(|()| {
                let table = std::sync::Arc::clone(&table);
                s.spawn(move || agree(&table))
            });
            workers.map(|w| w.join().expect("no panic"))
        });
        prop_assert_eq!(both, [true, true]);
        // The stored keys are the first-seen keys, in id order.
        prop_assert_eq!(table.len(), first_seen.len());
        for (g, id) in first_seen.iter().enumerate() {
            prop_assert_eq!(&key_identity(table.keys(), g), id);
        }
    }

    #[test]
    fn ordered_boundaries_number_the_runs_of_equal_keys(
        types in prop::collection::vec(0usize..7, 1..4),
        (_, batches) in group_batches(),
        // Run length of the first key column: 1 is unclustered input
        // (every tuple may open a group), 400 spans whole batches.
        run in prop_oneof![Just(1usize), Just(4usize), Just(400usize)],
    ) {
        let (types, run): (Vec<usize>, usize) = (types, run);
        // The key of the group the previous batch left open (that of its
        // last live tuple) and how many groups have been opened so far.
        let mut open: Option<Vec<Vector>> = None;
        let mut opened = 0usize;
        for (rows, mask) in &batches {
            let n = rows.len();
            let cols = [
                (0..n).map(|i| rows[i - i % run].0).collect::<Vec<_>>(),
                rows.iter().map(|r| r.1 / 4).collect(),
                rows.iter().map(|r| r.2).collect(),
            ];
            let keys: Vec<Vector> = types
                .iter()
                .zip(&cols)
                .map(|(&t, c)| key_column(t, c))
                .collect();
            let sel = mask.as_ref().map(|m| {
                SelVec::from_positions((0..n as u32).filter(|&i| m[i as usize]).collect())
            });
            let sel = sel.as_ref();
            let mut grp = vec![u32::MAX; n];
            let mut in_use = 0;
            for (k, key) in keys.iter().enumerate() {
                let stored = open.as_ref().map(|o| &o[k]);
                in_use = ordered_boundaries(&mut grp, key, stored, sel, k == 0);
            }
            let mut starts = vec![77u32; 3];
            hash::aggr_ordered_starts_u32_col(&mut starts, &grp, sel, open.is_some());

            // Oracle: compare every live tuple with the one before it.
            let base = opened - open.is_some() as usize;
            let mut prev = open.as_ref().map(|o| key_identity(o, 0));
            let mut want_starts = Vec::new();
            let mut last = None;
            for i in 0..n {
                if mask.as_ref().is_some_and(|m| !m[i]) {
                    prop_assert_eq!(grp[i], u32::MAX, "unselected position written");
                    continue;
                }
                let id = key_identity(&keys, i);
                if prev.as_ref() != Some(&id) {
                    opened += 1;
                    want_starts.push(i as u32);
                    prev = Some(id);
                }
                prop_assert_eq!(grp[i] as usize + base, opened - 1, "row {} of {}", i, n);
                last = Some(i);
            }
            prop_assert_eq!(&starts, &want_starts);
            prop_assert_eq!(in_use, last.map_or(0, |i| grp[i] as usize + 1));
            if let Some(i) = last {
                open = Some(keys.iter().map(|k| key_column_at(k, i)).collect());
            }
        }
    }

    #[test]
    fn fused_update_equals_single_aggregate_passes(
        n_sums in 0usize..9,
        // Long same-group runs are the store-to-load chain the fused
        // pass must not reorder; run length 1 is random arrival.
        run in prop_oneof![Just(1usize), Just(5usize), Just(300usize)],
        draws in prop::collection::vec((0u32..6, -1.0e6f64..1.0e6), 0..700),
        keep_one_in in prop_oneof![Just(1u32), Just(2u32), Just(40u32)],
        track in prop::bool::ANY,
    ) {
        let draws: Vec<(u32, f64)> = draws;
        let (n, run, keep_one_in): (usize, usize, u32) = (draws.len(), run, keep_one_in);
        let grp: Vec<u32> = (0..n).map(|i| draws[i - i % run].0).collect();
        let vals: Vec<Vec<f64>> = (0..n_sums)
            .map(|k| draws.iter().map(|d| d.1 * (k as f64 + 0.1) + 1e-3).collect())
            .collect();
        let sel = (keep_one_in > 1).then(|| {
            SelVec::from_positions((0..n as u32).filter(|i| i % keep_one_in == 0).collect())
        });
        let sel = sel.as_ref();

        // Reference: the count pass and one sum pass per accumulator,
        // over two batches' worth of state (updates accumulate).
        let mut want_counts = vec![0i64; 6];
        let mut want_accs = vec![vec![0.0f64; 6]; n_sums];
        let mut want_occupied: Vec<u32> = Vec::new();
        let mut counts = vec![0i64; 6];
        let mut accs = vec![vec![0.0f64; 6]; n_sums];
        let mut occupied: Vec<u32> = Vec::new();
        for _ in 0..2 {
            let live: Vec<usize> = match sel {
                None => (0..n).collect(),
                Some(s) => s.iter().collect(),
            };
            for &i in &live {
                if want_counts[grp[i] as usize] == 0 && !want_occupied.contains(&grp[i]) {
                    want_occupied.push(grp[i]);
                }
            }
            aggr::aggr_count(&mut want_counts, &grp, sel);
            for (acc, val) in want_accs.iter_mut().zip(&vals) {
                aggr::aggr_sum_f64_col(acc, val, &grp, sel);
            }
            let mut acc_refs: Vec<&mut [f64]> = accs.iter_mut().map(|a| a.as_mut_slice()).collect();
            let val_refs: Vec<&[f64]> = vals.iter().map(|v| v.as_slice()).collect();
            aggr::fused_sum_f64(
                &mut acc_refs,
                &val_refs,
                &mut counts,
                track.then_some(&mut occupied),
                &grp,
                sel,
            );
        }
        prop_assert_eq!(&counts, &want_counts);
        for (acc, want) in accs.iter().zip(&want_accs) {
            let bits = |v: &Vec<f64>| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(acc), bits(want));
        }
        if track {
            prop_assert_eq!(occupied, want_occupied);
        }
    }

    /// The predicated select against the branching form written out:
    /// a scalar filter.
    #[test]
    fn branch_equals_predicated((data, _) in data_and_sel(), v in -1000i64..1000) {
        let mut s = SelVec::default();
        for op in [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge] {
            let want: Vec<u32> = (0..data.len() as u32)
                .filter(|&i| op.eval(data[i as usize], v))
                .collect();
            let n = select_cmp_col_val(&mut s, &data, v, op, None);
            prop_assert_eq!(n, want.len());
            prop_assert_eq!(s.positions(), &want[..]);
        }
    }

    #[test]
    fn selected_map_equals_dense_restriction((data, sel) in data_and_sel(), c in -100i64..100) {
        let n = data.len();
        let selvec = SelVec::from_positions(sel.clone());
        // Dense run.
        let mut dense = vec![0i64; n];
        map::map_add_i64_col_i64_val(&mut dense, &data, c, None);
        // Selected run over a poisoned output buffer.
        let mut sparse = vec![i64::MIN; n];
        map::map_add_i64_col_i64_val(&mut sparse, &data, c, Some(&selvec));
        for i in 0..n {
            if sel.contains(&(i as u32)) {
                prop_assert_eq!(sparse[i], dense[i]);
            } else {
                prop_assert_eq!(sparse[i], i64::MIN, "unselected position written");
            }
        }
    }

    #[test]
    fn chained_selects_equal_conjunction((data, _) in data_and_sel(), lo in -500i64..0, hi in 0i64..500) {
        // sel(ge lo) then refine with (lt hi)  ==  filter(lo <= x < hi)
        let mut s1 = SelVec::default();
        select_cmp_col_val(&mut s1, &data, lo, CmpOp::Ge, None);
        let mut s2 = SelVec::default();
        select_cmp_col_val(&mut s2, &data, hi, CmpOp::Lt, Some(&s1));
        let expect: Vec<u32> = data
            .iter()
            .enumerate()
            .filter_map(|(i, &x)| (x >= lo && x < hi).then_some(i as u32))
            .collect();
        prop_assert_eq!(s2.positions(), &expect[..]);
    }

    #[test]
    fn grouped_sum_equals_scalar_partition(vals in prop::collection::vec(-100i64..100, 1..200), ngroups in 1u32..8) {
        let grp: Vec<u32> = (0..vals.len() as u32).map(|i| i % ngroups).collect();
        let mut acc = vec![0i64; ngroups as usize];
        aggr::aggr_sum_i64_col(&mut acc, &vals, &grp, None);
        for g in 0..ngroups {
            let expect: i64 = vals
                .iter()
                .zip(grp.iter())
                .filter(|(_, &gg)| gg == g)
                .map(|(&v, _)| v)
                .sum();
            prop_assert_eq!(acc[g as usize], expect);
        }
    }

    #[test]
    fn fetch_is_index_map(base in prop::collection::vec(any::<i32>(), 1..100), picks in prop::collection::vec(0usize..99, 0..50)) {
        let idx: Vec<u32> = picks.iter().map(|&p| (p % base.len()) as u32).collect();
        let mut res = vec![0i32; idx.len()];
        prop_assert!(fetch::fetch(&mut res, &base, &idx, None));
        for (k, &j) in idx.iter().enumerate() {
            prop_assert_eq!(res[k], base[j as usize]);
        }
    }

    #[test]
    fn hash_equal_keys_collide_equal(keys in prop::collection::vec(0u32..50, 2..100)) {
        let mut h = vec![0u64; keys.len()];
        hash::map_hash_u32_col(&mut h, &keys, None);
        for i in 0..keys.len() {
            for j in 0..keys.len() {
                if keys[i] == keys[j] {
                    prop_assert_eq!(h[i], h[j]);
                }
            }
        }
    }

    #[test]
    fn directgrp_is_injective_on_domain(a in prop::collection::vec(0u8..7, 1..100), b in prop::collection::vec(0u8..5, 1..100)) {
        let n = a.len().min(b.len());
        let (a, b) = (&a[..n], &b[..n]);
        let mut g = vec![0u32; n];
        hash::map_uidx_u8_col(&mut g, a, None);
        hash::map_directgrp_uidx_col_u8_col(&mut g, b, 5, None);
        for i in 0..n {
            prop_assert_eq!(g[i], a[i] as u32 * 5 + b[i] as u32);
            prop_assert!(g[i] < 35);
        }
        // Distinct key pairs get distinct group slots.
        for i in 0..n {
            for j in 0..n {
                if (a[i], b[i]) != (a[j], b[j]) {
                    prop_assert_ne!(g[i], g[j]);
                }
            }
        }
    }

    #[test]
    fn fused_equals_chained(v in -10.0f64..10.0,
                            ab in prop::collection::vec((-100.0f64..100.0, -100.0f64..100.0), 1..128)) {
        let a: Vec<f64> = ab.iter().map(|p| p.0).collect();
        let b: Vec<f64> = ab.iter().map(|p| p.1).collect();
        let n = a.len();
        let mut fused = vec![0.0; n];
        compound::map_fused_sub_f64_val_f64_col_mul_f64_col(&mut fused, v, &a, &b, None);
        let mut tmp = vec![0.0; n];
        let mut chained = vec![0.0; n];
        map::map_sub_f64_val_f64_col(&mut tmp, v, &a, None);
        map::map_mul_f64_col_f64_col(&mut chained, &tmp, &b, None);
        for i in 0..n {
            prop_assert!((fused[i] - chained[i]).abs() <= 1e-9 * (1.0 + chained[i].abs()));
        }
    }

    #[test]
    fn date_roundtrip(days in -20000i32..40000) {
        let (y, m, d) = x100_vector::date::from_days(days);
        prop_assert_eq!(x100_vector::date::to_days(y, m, d), days);
        prop_assert!((1..=12).contains(&m));
        prop_assert!((1..=31).contains(&d));
    }
}
