//! `map_hash_*` primitives and the direct-grouping map.
//!
//! Hash-aggregation and hash-join first compute, per tuple, a position in
//! a hash table (paper Fig. 6: `map_hash_chr_col` → "position in hash
//! table"). These primitives vectorize that computation: one pass hashes a
//! whole key column; multi-column keys chain through `rehash` maps.
//!
//! `map_uidx_*` / `map_directgrp_uidx_col_*` implement the *direct
//! aggregation* trick of §4.1.2 / §3.3: for small-domain keys the
//! mixed-radix concatenation of the key digits (an enum code, or an
//! integer key's distance from its proven minimum) is itself the
//! aggregate-table slot (no hashing, no collision handling).
//!
//! `aggr_grouptable_*` are the vectorized lookup kernels of
//! [`crate::group::GroupTable`]: a probe round that gathers one tagged
//! bucket word per pending tuple and splits the tuples three ways
//! without branching, and one typed key-verify loop per key column.
//!
//! `aggr_ordered_*` are the kernels of ordered aggregation: run
//! boundaries of clustered keys become group ids, one typed pass per
//! key column.

use crate::sel::SelVec;

/// Multiplicative mixing constant (64-bit golden-ratio; same family as
/// FxHash / splitmix64 finalizers).
const K: u64 = 0x9E37_79B9_7F4A_7C15;

/// Mix one 64-bit word into a hash value.
#[inline(always)]
pub fn mix(h: u64, v: u64) -> u64 {
    let mut x = h ^ v.wrapping_mul(K);
    x ^= x >> 32;
    x = x.wrapping_mul(K);
    x ^= x >> 29;
    x
}

/// Hash one scalar from a clean seed.
#[inline(always)]
pub fn hash_one(v: u64) -> u64 {
    mix(0x5151_5151_5151_5151, v)
}

/// Hash a byte string (used for `str` group keys).
#[inline]
pub fn hash_bytes(mut h: u64, bytes: &[u8]) -> u64 {
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let mut word = [0u8; 8];
        word.copy_from_slice(c);
        h = mix(h, u64::from_le_bytes(word));
    }
    let rem = chunks.remainder();
    if !rem.is_empty() {
        let mut buf = [0u8; 8];
        buf[..rem.len()].copy_from_slice(rem);
        h = mix(h, u64::from_le_bytes(buf) ^ (rem.len() as u64) << 56);
    }
    h
}

macro_rules! hash_instance {
    ($hash:ident, $rehash:ident, $ty:ty) => {
        /// Macro-generated hash map instance: `res[i] = hash(col[i])`.
        #[inline]
        pub fn $hash(res: &mut [u64], col: &[$ty], sel: Option<&SelVec>) {
            crate::map::map1(res, col, sel, |x| hash_one(x as u64));
        }

        /// Macro-generated rehash instance: combine a further key column
        /// into existing hash values (`res[i] = mix(res[i], col[i])`).
        #[inline]
        pub fn $rehash(res: &mut [u64], col: &[$ty], sel: Option<&SelVec>) {
            match sel {
                None => {
                    for (r, &x) in res.iter_mut().zip(col.iter()) {
                        *r = mix(*r, x as u64);
                    }
                }
                Some(sel) => {
                    for i in sel.iter() {
                        res[i] = mix(res[i], col[i] as u64);
                    }
                }
            }
        }
    };
}

hash_instance!(map_hash_u8_col, map_rehash_u8_col, u8);
hash_instance!(map_hash_u16_col, map_rehash_u16_col, u16);
hash_instance!(map_hash_u32_col, map_rehash_u32_col, u32);
hash_instance!(map_hash_i32_col, map_rehash_i32_col, i32);
hash_instance!(map_hash_i64_col, map_rehash_i64_col, i64);

/// Hash an `f64` key column (bit pattern, normalizing `-0.0` to `0.0`).
#[inline]
pub fn map_hash_f64_col(res: &mut [u64], col: &[f64], sel: Option<&SelVec>) {
    crate::map::map1(res, col, sel, |x| {
        let x = if x == 0.0 { 0.0 } else { x };
        hash_one(x.to_bits())
    });
}

/// Rehash with an `f64` key column: combine the bit pattern of a further
/// `f64` key into existing hash values, normalizing `-0.0` to `0.0` so both
/// zeroes land in the same bucket (matching `map_hash_f64_col`).
#[inline]
pub fn map_rehash_f64_col(res: &mut [u64], col: &[f64], sel: Option<&SelVec>) {
    let bits = |x: f64| if x == 0.0 { 0.0f64 } else { x }.to_bits();
    match sel {
        None => {
            for (r, &x) in res.iter_mut().zip(col.iter()) {
                *r = mix(*r, bits(x));
            }
        }
        Some(sel) => {
            for i in sel.iter() {
                res[i] = mix(res[i], bits(col[i]));
            }
        }
    }
}

/// Hash a string key column.
#[inline]
pub fn map_hash_str_col(res: &mut [u64], col: &crate::StrVec, sel: Option<&SelVec>) {
    match sel {
        None => {
            for (i, r) in res.iter_mut().enumerate().take(col.len()) {
                *r = hash_bytes(0x5151_5151_5151_5151, col.get_bytes(i));
            }
        }
        Some(sel) => {
            for i in sel.iter() {
                res[i] = hash_bytes(0x5151_5151_5151_5151, col.get_bytes(i));
            }
        }
    }
}

/// Rehash with a string key column.
#[inline]
pub fn map_rehash_str_col(res: &mut [u64], col: &crate::StrVec, sel: Option<&SelVec>) {
    match sel {
        None => {
            for (i, r) in res.iter_mut().enumerate().take(col.len()) {
                *r = hash_bytes(*r, col.get_bytes(i));
            }
        }
        Some(sel) => {
            for i in sel.iter() {
                res[i] = hash_bytes(res[i], col.get_bytes(i));
            }
        }
    }
}

/// Direct-grouping start: slot = first key byte (paper `map_uidx_uchr_col`).
#[inline]
pub fn map_uidx_u8_col(res: &mut [u32], col: &[u8], sel: Option<&SelVec>) {
    crate::map::map1(res, col, sel, |x| x as u32);
}

/// Direct-grouping start over u16 codes.
#[inline]
pub fn map_uidx_u16_col(res: &mut [u32], col: &[u16], sel: Option<&SelVec>) {
    crate::map::map1(res, col, sel, |x| x as u32);
}

/// Direct-grouping chain: `res[i] = res[i] * card + code[i]`
/// (paper `map_directgrp_uidx_col_uchr_col`; §3.3's
/// `(returnflag << 8) + linestatus` is the `card = 256` case).
#[inline]
pub fn map_directgrp_uidx_col_u8_col(res: &mut [u32], col: &[u8], card: u32, sel: Option<&SelVec>) {
    match sel {
        None => {
            for (r, &x) in res.iter_mut().zip(col.iter()) {
                *r = *r * card + x as u32;
            }
        }
        Some(sel) => {
            for i in sel.iter() {
                res[i] = res[i] * card + col[i] as u32;
            }
        }
    }
}

/// Direct-grouping chain over u16 codes.
#[inline]
pub fn map_directgrp_uidx_col_u16_col(
    res: &mut [u32],
    col: &[u16],
    card: u32,
    sel: Option<&SelVec>,
) {
    match sel {
        None => {
            for (r, &x) in res.iter_mut().zip(col.iter()) {
                *r = *r * card + x as u32;
            }
        }
        Some(sel) => {
            for i in sel.iter() {
                res[i] = res[i] * card + col[i] as u32;
            }
        }
    }
}

/// The start and chain kernels of direct grouping on integer keys with
/// a known range `[lo, lo + card)`: the key's digit is its distance from
/// `lo`. The caller proves the range, so the distance fits the `u32`
/// slot (a value outside it wraps to a slot past the table, which the
/// accumulator update rejects).
macro_rules! directgrp_int_kernels {
    ($($ty:ty => $start:ident, $chain:ident;)*) => {$(
        #[doc = concat!("Direct-grouping start over `", stringify!($ty), "` keys: slot = key − `lo`.")]
        #[inline]
        pub fn $start(res: &mut [u32], col: &[$ty], lo: $ty, sel: Option<&SelVec>) {
            crate::map::map1(res, col, sel, |x| x.wrapping_sub(lo) as u32);
        }

        #[doc = concat!("Direct-grouping chain over `", stringify!($ty), "` keys: `res[i] = res[i] * card + (key[i] − lo)`.")]
        #[inline]
        pub fn $chain(res: &mut [u32], col: &[$ty], lo: $ty, card: u32, sel: Option<&SelVec>) {
            match sel {
                None => {
                    for (r, &x) in res.iter_mut().zip(col.iter()) {
                        *r = *r * card + x.wrapping_sub(lo) as u32;
                    }
                }
                Some(sel) => {
                    for i in sel.iter() {
                        res[i] = res[i] * card + col[i].wrapping_sub(lo) as u32;
                    }
                }
            }
        }
    )*};
}

directgrp_int_kernels! {
    i32 => map_uidx_i32_col_i32_val, map_directgrp_uidx_col_i32_col_i32_val;
    i64 => map_uidx_i64_col_i64_val, map_directgrp_uidx_col_i64_col_i64_val;
    u32 => map_uidx_u32_col_u32_val, map_directgrp_uidx_col_u32_col_u32_val;
}

/// Tag field of a bucket word for `hash` in a table of `1 << bits`
/// buckets: bits `32..64 - bits` of the hash, held above the `bits`
/// low bits that carry `group id + 1` (0 = empty bucket). The bucket
/// index uses the hash's low bits and the spill partition its top
/// four, so the tag is independent of both.
#[inline(always)]
pub fn bucket_tag(hash: u64, bits: u32) -> u32 {
    ((hash >> 32) as u32) << bits
}

/// Tuples a probe round resolved, per outcome.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProbeCounts {
    /// Tag matched: `grp` holds the candidate group, keys unverified.
    pub cand: usize,
    /// Reached an empty bucket: the key is not in the table.
    pub miss: usize,
    /// Occupied bucket with another tag: probe the next bucket.
    pub next: usize,
}

/// One probe round over `positions`: gather the bucket word `round`
/// buckets past each tuple's home bucket `hash & mask`, write the
/// word's group id to `grp`, and append the position to exactly one of
/// `cand` / `miss` / `next` by bumping three counters — no branch
/// depends on the data.
#[inline(always)]
#[allow(clippy::too_many_arguments)] // one flat kernel signature, like every primitive
fn probe_round(
    buckets: &[u32],
    bits: u32,
    hashes: &[u64],
    round: usize,
    positions: impl Iterator<Item = usize>,
    grp: &mut [u32],
    cand: &mut [u32],
    miss: &mut [u32],
    next: &mut [u32],
) -> ProbeCounts {
    let mask = buckets.len() - 1;
    let idmask = (1u32 << bits) - 1;
    let mut c = ProbeCounts::default();
    for i in positions {
        let hash = hashes[i];
        let word = buckets[(hash as usize).wrapping_add(round) & mask];
        let id = word & idmask;
        let occupied = id != 0;
        let hit = occupied & ((word ^ bucket_tag(hash, bits)) & !idmask == 0);
        grp[i] = id.wrapping_sub(1);
        cand[c.cand] = i as u32;
        c.cand += hit as usize;
        miss[c.miss] = i as u32;
        c.miss += !occupied as usize;
        next[c.next] = i as u32;
        c.next += (occupied & !hit) as usize;
    }
    c
}

/// First probe round of a group-table lookup: every live tuple probes
/// its home bucket. `buckets.len()` is `1 << bits`; `grp` is
/// positional, `cand` / `miss` / `next` need room for every live tuple.
#[inline]
#[allow(clippy::too_many_arguments)]
pub fn aggr_grouptable_probe_u64_col(
    buckets: &[u32],
    bits: u32,
    hashes: &[u64],
    sel: Option<&SelVec>,
    grp: &mut [u32],
    cand: &mut [u32],
    miss: &mut [u32],
    next: &mut [u32],
) -> ProbeCounts {
    match sel {
        None => probe_round(
            buckets,
            bits,
            hashes,
            0,
            0..hashes.len(),
            grp,
            cand,
            miss,
            next,
        ),
        Some(sel) => probe_round(buckets, bits, hashes, 0, sel.iter(), grp, cand, miss, next),
    }
}

/// Probe round `round` (≥ 1): every tuple at `pending` has been turned
/// away from `round` buckets — by a foreign tag or a failed key verify
/// — and probes the next one.
#[inline]
#[allow(clippy::too_many_arguments)]
pub fn aggr_grouptable_reprobe_u64_col(
    buckets: &[u32],
    bits: u32,
    hashes: &[u64],
    round: usize,
    pending: &[u32],
    grp: &mut [u32],
    cand: &mut [u32],
    miss: &mut [u32],
    next: &mut [u32],
) -> ProbeCounts {
    probe_round(
        buckets,
        bits,
        hashes,
        round,
        pending.iter().map(|&p| p as usize),
        grp,
        cand,
        miss,
        next,
    )
}

/// A fixed-width group key: equality is bit equality, the `total_cmp`
/// the engine groups by (`0.0` and `-0.0` are two groups, a NaN equals
/// the NaN with the same bits).
pub trait GroupKey: Copy {
    /// Whether two keys fall in the same group.
    fn same(self, other: Self) -> bool;
}

macro_rules! group_key {
    ($($ty:ty),*) => {$(
        impl GroupKey for $ty {
            #[inline(always)]
            fn same(self, other: Self) -> bool {
                self == other
            }
        }
    )*};
}
group_key!(u8, u16, u32, u64, i8, i16, i32, i64, bool);

impl GroupKey for f64 {
    #[inline(always)]
    fn same(self, other: Self) -> bool {
        self.to_bits() == other.to_bits()
    }
}

/// Key verify pattern: for each candidate tuple compare its key with
/// the stored key of its candidate group. `ne[i]` is set when they
/// differ (`first` overwrites, later key columns accumulate); returns
/// whether any candidate differed.
#[inline(always)]
fn verify_keys(
    cand: &[u32],
    grp: &[u32],
    ne: &mut [u8],
    first: bool,
    differ: impl Fn(usize, usize) -> bool,
) -> bool {
    let keep = if first { 0 } else { u8::MAX };
    let mut any = 0u8;
    for &p in cand {
        let i = p as usize;
        let d = differ(grp[i] as usize, i) as u8;
        ne[i] = (ne[i] & keep) | d;
        any |= d;
    }
    any != 0
}

/// Key verify over one fixed-width key column (the
/// `aggr_grouptable_verify_<ty>_col` instances): `ne[i]` is set where
/// `store[grp[i]]` and `key[i]` differ, for the candidate positions.
#[inline]
pub fn aggr_grouptable_verify_col<T: GroupKey>(
    store: &[T],
    key: &[T],
    grp: &[u32],
    cand: &[u32],
    ne: &mut [u8],
    first: bool,
) -> bool {
    verify_keys(cand, grp, ne, first, |g, i| !store[g].same(key[i]))
}

/// Key verify over string keys.
#[inline]
pub fn aggr_grouptable_verify_str_col(
    store: &crate::StrVec,
    key: &crate::StrVec,
    grp: &[u32],
    cand: &[u32],
    ne: &mut [u8],
    first: bool,
) -> bool {
    verify_keys(cand, grp, ne, first, |g, i| {
        store.get_bytes(g) != key.get_bytes(i)
    })
}

/// Ordered-aggregation group ids: walk the live positions in arrival
/// order and number the runs of equal keys, `grp[i] = grp[prev] +
/// (key differs)`. The tuple before the first live one is the group the
/// previous vector left open, id 0 — `head(i)` says whether the first
/// live tuple leaves it, `differs(p, i)` whether tuple `i` leaves the
/// group of the live tuple `p` before it. With `first = false` a
/// further key column is folded in: `grp` holds the ids the earlier
/// columns produced, and a boundary is one in either. Returns the
/// number of ids in use (0 without a live tuple).
#[inline(always)]
fn ordered_boundaries(
    grp: &mut [u32],
    mut positions: impl Iterator<Item = usize>,
    first: bool,
    head: impl FnOnce(usize) -> bool,
    differs: impl Fn(usize, usize) -> bool,
) -> usize {
    let Some(i0) = positions.next() else {
        return 0;
    };
    let earlier = |grp: &[u32], i: usize| if first { 0 } else { grp[i] };
    let mut was = earlier(grp, i0);
    let mut id = ((was != 0) | head(i0)) as u32;
    grp[i0] = id;
    let mut prev = i0;
    for i in positions {
        let old = earlier(grp, i);
        id += ((old != was) | differs(prev, i)) as u32;
        grp[i] = id;
        (prev, was) = (i, old);
    }
    id as usize + 1
}

/// Ordered-aggregation group ids over one fixed-width key column (the
/// `aggr_ordered_boundaries_<ty>_col` instances; see
/// [`ordered_boundaries`]). `open` is the key of the group the previous
/// vector left open (it keeps id 0); `None` lets the first live tuple
/// open group 0. Keys compare like [`GroupKey`]: by bits.
#[inline]
pub fn aggr_ordered_boundaries_col<T: GroupKey>(
    grp: &mut [u32],
    key: &[T],
    open: Option<T>,
    sel: Option<&SelVec>,
    first: bool,
) -> usize {
    let head = |i: usize| open.is_some_and(|o| !o.same(key[i]));
    let differs = |p: usize, i: usize| !key[p].same(key[i]);
    match sel {
        None => ordered_boundaries(grp, 0..key.len(), first, head, differs),
        Some(sel) => ordered_boundaries(grp, sel.iter(), first, head, differs),
    }
}

macro_rules! ordered_boundaries_instance {
    ($name:ident, $ty:ty) => {
        /// Macro-generated ordered-boundaries instance.
        #[inline]
        pub fn $name(
            grp: &mut [u32],
            key: &[$ty],
            open: Option<$ty>,
            sel: Option<&SelVec>,
            first: bool,
        ) -> usize {
            aggr_ordered_boundaries_col(grp, key, open, sel, first)
        }
    };
}

ordered_boundaries_instance!(aggr_ordered_boundaries_i8_col, i8);
ordered_boundaries_instance!(aggr_ordered_boundaries_i16_col, i16);
ordered_boundaries_instance!(aggr_ordered_boundaries_i32_col, i32);
ordered_boundaries_instance!(aggr_ordered_boundaries_i64_col, i64);
ordered_boundaries_instance!(aggr_ordered_boundaries_u8_col, u8);
ordered_boundaries_instance!(aggr_ordered_boundaries_u16_col, u16);
ordered_boundaries_instance!(aggr_ordered_boundaries_u32_col, u32);
ordered_boundaries_instance!(aggr_ordered_boundaries_u64_col, u64);
ordered_boundaries_instance!(aggr_ordered_boundaries_f64_col, f64);
ordered_boundaries_instance!(aggr_ordered_boundaries_bool_col, bool);

/// Ordered-aggregation group ids over a string key column.
#[inline]
pub fn aggr_ordered_boundaries_str_col(
    grp: &mut [u32],
    key: &crate::StrVec,
    open: Option<&str>,
    sel: Option<&SelVec>,
    first: bool,
) -> usize {
    let head = |i: usize| open.is_some_and(|o| o.as_bytes() != key.get_bytes(i));
    let differs = |p: usize, i: usize| key.get_bytes(p) != key.get_bytes(i);
    match sel {
        None => ordered_boundaries(grp, 0..key.len(), first, head, differs),
        Some(sel) => ordered_boundaries(grp, sel.iter(), first, head, differs),
    }
}

/// The positions whose tuple opens a group, given the ids an
/// `aggr_ordered_boundaries_*` chain assigned: the live positions where
/// the id steps up, plus the first live one when no group was `open`.
/// Branch-free, like a predicated select.
#[inline]
pub fn aggr_ordered_starts_u32_col(
    starts: &mut Vec<u32>,
    grp: &[u32],
    sel: Option<&SelVec>,
    open: bool,
) {
    #[inline(always)]
    fn run(
        starts: &mut Vec<u32>,
        grp: &[u32],
        live: usize,
        pos: impl Iterator<Item = usize>,
        open: bool,
    ) {
        starts.clear();
        starts.resize(live, 0);
        let mut prev = if open { 0 } else { u32::MAX };
        let mut j = 0usize;
        for i in pos {
            starts[j] = i as u32;
            j += (grp[i] != prev) as usize;
            prev = grp[i];
        }
        starts.truncate(j);
    }
    match sel {
        None => run(starts, grp, grp.len(), 0..grp.len(), open),
        Some(sel) => run(starts, grp, sel.len(), sel.iter(), open),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_is_deterministic_and_spread() {
        let h1 = hash_one(42);
        let h2 = hash_one(42);
        let h3 = hash_one(43);
        assert_eq!(h1, h2);
        assert_ne!(h1, h3);
        // Adjacent keys should not land in adjacent buckets for small tables.
        assert_ne!(h1 % 16, h3 % 16);
    }

    #[test]
    fn hash_column() {
        let col = [1u32, 2, 1];
        let mut res = [0u64; 3];
        map_hash_u32_col(&mut res, &col, None);
        assert_eq!(res[0], res[2]);
        assert_ne!(res[0], res[1]);
    }

    #[test]
    fn rehash_chains_keys() {
        // (1,2) and (2,1) must hash differently; (1,2) twice identically.
        let a = [1i64, 2, 1];
        let b = [2i64, 1, 2];
        let mut h = [0u64; 3];
        map_hash_i64_col(&mut h, &a, None);
        map_rehash_i64_col(&mut h, &b, None);
        assert_eq!(h[0], h[2]);
        assert_ne!(h[0], h[1]);
    }

    #[test]
    fn string_hash() {
        let v: crate::StrVec = ["abc", "abd", "abc", ""].into_iter().collect();
        let mut h = [0u64; 4];
        map_hash_str_col(&mut h, &v, None);
        assert_eq!(h[0], h[2]);
        assert_ne!(h[0], h[1]);
        assert_ne!(h[0], h[3]);
        // length-tagged: "a" vs "a\0" style collisions avoided
        let v2: crate::StrVec = ["a", "a\0"].into_iter().collect();
        let mut h2 = [0u64; 2];
        map_hash_str_col(&mut h2, &v2, None);
        assert_ne!(h2[0], h2[1]);
    }

    #[test]
    fn f64_negative_zero_normalized() {
        let mut h = [0u64; 2];
        map_hash_f64_col(&mut h, &[0.0, -0.0], None);
        assert_eq!(h[0], h[1]);
    }

    #[test]
    fn f64_rehash_chains_and_normalizes() {
        // (1, 2.5) and (2, 2.5) must differ; (1, 2.5) twice identical.
        let a = [1i64, 2, 1];
        let b = [2.5f64, 2.5, 2.5];
        let mut h = [0u64; 3];
        map_hash_i64_col(&mut h, &a, None);
        map_rehash_f64_col(&mut h, &b, None);
        assert_eq!(h[0], h[2]);
        assert_ne!(h[0], h[1]);
        // -0.0 chains like 0.0.
        let mut h2 = [0u64; 2];
        map_hash_i64_col(&mut h2, &[7, 7], None);
        map_rehash_f64_col(&mut h2, &[0.0, -0.0], None);
        assert_eq!(h2[0], h2[1]);
    }

    #[test]
    fn f64_rehash_respects_sel() {
        let sel = SelVec::from_positions(vec![1]);
        let mut h = [5u64, 5, 5];
        map_rehash_f64_col(&mut h, &[1.0, 2.0, 3.0], Some(&sel));
        assert_eq!(h[0], 5);
        assert_eq!(h[2], 5);
        assert_ne!(h[1], 5);
    }

    #[test]
    fn directgrp_matches_hardcoded_shift() {
        // The paper's UDF computes (returnflag << 8) + linestatus.
        let rf = [b'A', b'N', b'R'];
        let ls = [b'F', b'O', b'F'];
        let mut g = [0u32; 3];
        map_uidx_u8_col(&mut g, &rf, None);
        map_directgrp_uidx_col_u8_col(&mut g, &ls, 256, None);
        for i in 0..3 {
            assert_eq!(g[i], ((rf[i] as u32) << 8) + ls[i] as u32);
        }
    }

    #[test]
    fn directgrp_respects_sel() {
        let codes = [1u8, 2, 3];
        let sel = SelVec::from_positions(vec![1]);
        let mut g = [100u32, 100, 100];
        map_directgrp_uidx_col_u8_col(&mut g, &codes, 10, Some(&sel));
        assert_eq!(g, [100, 1002, 100]);
    }

    #[test]
    fn directgrp_u16_start_respects_sel() {
        let sel = SelVec::from_positions(vec![0, 2]);
        let mut g = [9u32; 3];
        map_uidx_u16_col(&mut g, &[300, 301, 302], Some(&sel));
        assert_eq!(g, [300, 9, 302]);
    }

    #[test]
    fn directgrp_int_keys_offset_by_their_smallest_value() {
        // Two keys: days in [-3, 1] (card 5), then u32 ids in [10, 12].
        let days = [-3i32, 1, 0, -3];
        let ids = [12u32, 10, 11, 10];
        let mut g = [0u32; 4];
        map_uidx_i32_col_i32_val(&mut g, &days, -3, None);
        map_directgrp_uidx_col_u32_col_u32_val(&mut g, &ids, 10, 3, None);
        assert_eq!(g, [2, 12, 10, 0]);
        // Under a selection only the selected slots move; i64 keys span
        // more than an i32 from zero.
        let sel = SelVec::from_positions(vec![1]);
        let big = [0i64, 1 << 40, 0];
        let mut g = [7u32; 3];
        map_uidx_i64_col_i64_val(&mut g, &big, (1 << 40) - 2, Some(&sel));
        assert_eq!(g, [7, 2, 7]);
        map_directgrp_uidx_col_i64_col_i64_val(&mut g, &big, 1 << 40, 4, Some(&sel));
        assert_eq!(g, [7, 8, 7]);
        map_directgrp_uidx_col_i32_col_i32_val(&mut g, &days[..3], -3, 5, None);
        assert_eq!(g, [35, 44, 38]);
    }

    #[test]
    fn probe_round_splits_three_ways_and_verify_flags_foreign_keys() {
        // Four buckets (bits = 2): group 0 sits in bucket 1, group 1 in
        // bucket 2; bucket 3 is empty.
        let bits = 2;
        let hash = |bucket: u64, tag: u64| tag << 32 | bucket;
        let (h0, h1) = (hash(1, 7), hash(2, 9));
        let buckets = [0, bucket_tag(h0, bits) | 1, bucket_tag(h1, bits) | 2, 0];
        // Position 0 finds group 0, 1 hits an empty bucket, 2 meets a
        // foreign tag, 3 matches group 1's tag with another key.
        let hashes = [h0, hash(3, 1), hash(1, 8), h1];
        let (mut grp, mut cand, mut miss, mut next) = ([0u32; 4], [0u32; 4], [0u32; 4], [0u32; 4]);
        let c = aggr_grouptable_probe_u64_col(
            &buckets, bits, &hashes, None, &mut grp, &mut cand, &mut miss, &mut next,
        );
        assert_eq!((c.cand, c.miss, c.next), (2, 1, 1));
        assert_eq!((&cand[..2], miss[0], next[0]), (&[0, 3][..], 1, 2));
        assert_eq!((grp[0], grp[3]), (0, 1));
        let mut ne = [0u8; 4];
        let store = [10i64, 11];
        let keys = [10i64, 0, 0, 12];
        assert!(aggr_grouptable_verify_col(
            &store,
            &keys,
            &grp,
            &cand[..2],
            &mut ne,
            true
        ));
        assert_eq!(ne, [0, 0, 0, 1]);
        // The turned-away tuple probes on: bucket 2 holds another tag too.
        let c = aggr_grouptable_reprobe_u64_col(
            &buckets,
            bits,
            &hashes,
            1,
            &[2],
            &mut grp,
            &mut cand,
            &mut miss,
            &mut next,
        );
        assert_eq!((c.cand, c.miss, c.next), (0, 0, 1));
    }

    #[test]
    fn hash_bytes_chunks() {
        // >8 byte strings exercise the chunked path.
        let a = hash_bytes(1, b"0123456789abcdef");
        let b = hash_bytes(1, b"0123456789abcdeg");
        assert_ne!(a, b);
        let c = hash_bytes(1, b"0123456789abcdef");
        assert_eq!(a, c);
    }
}
