//! The group table: key vectors + hashes → dense group ids.
//!
//! One open-addressing table under hash aggregation, the parallel
//! merge stage and the hash join. A bucket is one `u32` word: the low
//! `bits` bits hold `group id + 1` (0 = empty), the bits above a tag
//! cut from the hash ([`hash::bucket_tag`]), so a probe that lands on
//! another group's bucket is rejected from the word alone, without
//! touching the stored hashes or keys. `bits` is `log2(buckets)`, which always leaves room
//! for every id the load bound admits; a rebuild re-cuts the tags.
//!
//! [`GroupTable::find`] is vectorized the X100 way: probe rounds over a
//! shrinking pending list ([`hash::aggr_grouptable_probe_u64_col`]) and
//! one typed key-verify loop per key column. It only reads the table —
//! its working lists live in a caller-owned [`ProbeScratch`] — so
//! morsel workers probe one shared table, each with its own scratch.
//! [`GroupTable::lookup`] is `find` plus a scalar find-or-insert for
//! the tuples that reached an empty bucket. The rounds run against the
//! table as it stood when the vector arrived, so they find exactly the
//! tuples whose key was already present; the rest are inserted in
//! ascending position. Group ids are therefore dense in first-seen
//! order — what a tuple-at-a-time loop would assign.
//!
//! The rounds pay off when most keys are known. While a table is being
//! populated, or a clustered high-cardinality key brings each group's
//! few tuples in one vector, nearly every tuple would be turned away:
//! a vector whose tuples fell mostly in groups it created itself marks
//! the table *building*, and the next vector goes through the scalar
//! loop whole (which takes a tuple repeating the key before it without
//! probing), until a vector finds mostly known groups again.

use crate::hash::{self, bucket_tag, GroupKey, ProbeCounts};
use crate::sel::SelVec;
use crate::types::ScalarType;
use crate::vector::Vector;

const INITIAL_BITS: u32 = 10;

/// Highest bucket load a table is let reach before it doubles. Every
/// probe round costs a few kernel calls however short its pending list,
/// so the chain *tail* is what a lookup pays for: the benchmark's 28 K
/// groups need 1.37 probes per hit and 19 rounds at 42 % load, 1.13
/// probes and 8 rounds at 21 %, and the lookup is a third faster. A
/// freshly doubled table is 17.5 % full — 23 bucket bytes per group.
const MAX_LOAD_PCT: usize = 35;

/// Dispatch one key column pair to its typed instance.
macro_rules! with_key_column {
    ($store:expr, $key:expr, |$s:ident, $k:ident| $numeric:expr, |$ss:ident, $ks:ident| $string:expr) => {
        match ($store, $key) {
            (Vector::U8($s), Vector::U8($k)) => $numeric,
            (Vector::U16($s), Vector::U16($k)) => $numeric,
            (Vector::U32($s), Vector::U32($k)) => $numeric,
            (Vector::I32($s), Vector::I32($k)) => $numeric,
            (Vector::I64($s), Vector::I64($k)) => $numeric,
            (Vector::F64($s), Vector::F64($k)) => $numeric,
            (Vector::Str($ss), Vector::Str($ks)) => $string,
            (s, k) => panic!(
                "group key type mismatch: {:?} store, {:?} key",
                s.scalar_type(),
                k.scalar_type()
            ),
        }
    };
}

/// The working lists of one vector's probe rounds: positional mismatch
/// flags and position lists, O(vector size). Owned by whoever probes, so
/// a table shared read-only needs no interior state.
#[derive(Debug, Default)]
pub struct ProbeScratch {
    ne: Vec<u8>,
    pending: Vec<u32>,
    next: Vec<u32>,
    cand: Vec<u32>,
    miss: Vec<u32>,
}

/// Hash-group table: maps key tuples to dense first-seen group ids.
#[derive(Debug)]
pub struct GroupTable {
    buckets: Vec<u32>,
    /// `log2(buckets.len())`: width of a bucket word's id field.
    bits: u32,
    /// Per group: its hash (rebuilds, spill partitioning) and key.
    hashes: Vec<u64>,
    keys: Vec<Vector>,
    /// The last vector's tuples fell mostly in groups it created.
    building: bool,
}

impl GroupTable {
    /// What [`GroupTable::find`] leaves in `grp` where the key is not
    /// in the table.
    pub const ABSENT: u32 = u32::MAX;

    /// An empty table over keys of the given types.
    ///
    /// # Panics
    /// Panics on a key type no hash primitive covers.
    pub fn new(key_types: &[ScalarType]) -> Self {
        for ty in key_types {
            assert!(
                matches!(
                    ty,
                    ScalarType::U8
                        | ScalarType::U16
                        | ScalarType::U32
                        | ScalarType::I32
                        | ScalarType::I64
                        | ScalarType::F64
                        | ScalarType::Str
                ),
                "cannot group by {ty:?} keys"
            );
        }
        GroupTable {
            buckets: vec![0; 1 << INITIAL_BITS],
            bits: INITIAL_BITS,
            hashes: Vec::new(),
            keys: key_types
                .iter()
                .map(|&ty| Vector::with_capacity(ty, 16))
                .collect(),
            building: false,
        }
    }

    /// Number of groups.
    pub fn len(&self) -> usize {
        self.hashes.len()
    }

    /// True if no group has been seen.
    pub fn is_empty(&self) -> bool {
        self.hashes.is_empty()
    }

    /// The groups' key columns, indexed by group id.
    pub fn keys(&self) -> &[Vector] {
        &self.keys
    }

    /// The groups' hashes, indexed by group id.
    pub fn hashes(&self) -> &[u64] {
        &self.hashes
    }

    /// Bytes the table holds (buckets, hashes, keys).
    pub fn byte_size(&self) -> usize {
        self.buckets.len() * 4
            + self.hashes.len() * 8
            + self.keys.iter().map(|v| v.byte_size()).sum::<usize>()
    }

    /// Forget every group and release the table's memory.
    pub fn clear(&mut self) {
        self.take_keys();
    }

    /// Surrender the key columns, leaving the table empty.
    pub fn take_keys(&mut self) -> Vec<Vector> {
        let types: Vec<ScalarType> = self.keys.iter().map(|k| k.scalar_type()).collect();
        std::mem::replace(self, GroupTable::new(&types)).keys
    }

    /// Find or create the group of every live tuple: `grp[i]` receives
    /// the group id of the key at position `i` of `keys`, whose hash is
    /// `hashes[i]`. New groups get the next ids in ascending position
    /// of their first tuple.
    ///
    /// # Panics
    /// Panics if `keys` does not match the table's key types, or
    /// `hashes` / `grp` are shorter than `n`.
    pub fn lookup(
        &mut self,
        scratch: &mut ProbeScratch,
        grp: &mut [u32],
        hashes: &[u64],
        keys: &[&Vector],
        n: usize,
        sel: Option<&SelVec>,
    ) {
        let (hashes, grp) = (&hashes[..n], &mut grp[..n]);
        let live = sel.map_or(n, |s| s.len());
        let n_miss = if self.building {
            // The last vector brought mostly unknown keys: probing the
            // table as it stands would turn nearly every tuple away.
            assert_eq!(keys.len(), self.keys.len(), "group key arity");
            scratch.miss.clear();
            match sel {
                None => scratch.miss.extend(0..n as u32),
                Some(sel) => scratch.miss.extend_from_slice(sel.positions()),
            }
            live
        } else {
            self.find(scratch, grp, hashes, keys, n, sel).len()
        };
        let known = self.len() as u32;
        let mut found = live - n_miss;
        if n_miss > 0 {
            found += self.insert(&scratch.miss[..n_miss], grp, hashes, keys, known);
        }
        self.building = found * 2 < live;
    }

    /// Look every live tuple's key up without touching the table — the
    /// vectorized phase of [`GroupTable::lookup`], probe rounds and key
    /// verifies: `grp[i]` receives the key's group id, or
    /// [`GroupTable::ABSENT`]. Returns the positions whose key is
    /// absent, ascending.
    ///
    /// # Panics
    /// Like [`GroupTable::lookup`].
    pub fn find<'s>(
        &self,
        scratch: &'s mut ProbeScratch,
        grp: &mut [u32],
        hashes: &[u64],
        keys: &[&Vector],
        n: usize,
        sel: Option<&SelVec>,
    ) -> &'s [u32] {
        assert_eq!(keys.len(), self.keys.len(), "group key arity");
        let (hashes, grp) = (&hashes[..n], &mut grp[..n]);
        let live = sel.map_or(n, |s| s.len());
        scratch.ne.resize(n, 0);
        for list in [
            &mut scratch.pending,
            &mut scratch.next,
            &mut scratch.cand,
            &mut scratch.miss,
        ] {
            list.resize(live, 0);
        }
        let mut c = hash::aggr_grouptable_probe_u64_col(
            &self.buckets,
            self.bits,
            hashes,
            sel,
            grp,
            &mut scratch.cand,
            &mut scratch.miss,
            &mut scratch.next,
        );
        let in_order = c.miss;
        let mut n_miss = c.miss;
        let mut round = 0;
        loop {
            let n_pending = c.next + self.verify(scratch, keys, grp, c);
            if n_pending == 0 {
                break;
            }
            std::mem::swap(&mut scratch.pending, &mut scratch.next);
            round += 1;
            c = hash::aggr_grouptable_reprobe_u64_col(
                &self.buckets,
                self.bits,
                hashes,
                round,
                &scratch.pending[..n_pending],
                grp,
                &mut scratch.cand,
                &mut scratch.miss[n_miss..],
                &mut scratch.next,
            );
            n_miss += c.miss;
        }
        if in_order < n_miss {
            // Round 0 reports its misses in ascending position, later
            // rounds appended theirs: collect them all again, in order
            // (cheaper than sorting, and as branch-free as the rounds).
            let mut k = 0;
            let mut collect = |i: usize| {
                scratch.miss[k] = i as u32;
                k += (grp[i] == Self::ABSENT) as usize;
            };
            match sel {
                None => (0..n).for_each(&mut collect),
                Some(sel) => sel.iter().for_each(&mut collect),
            }
        }
        &scratch.miss[..n_miss]
    }

    /// Verify the keys of the round's candidates column by column;
    /// candidates whose key differs join `next` behind the round's own
    /// `c.next` entries. Returns how many were added.
    fn verify(
        &self,
        scratch: &mut ProbeScratch,
        keys: &[&Vector],
        grp: &[u32],
        c: ProbeCounts,
    ) -> usize {
        let cand = &scratch.cand[..c.cand];
        let mut differ = false;
        for (k, (store, key)) in self.keys.iter().zip(keys).enumerate() {
            let ne = &mut scratch.ne;
            differ |= with_key_column!(
                store,
                *key,
                |s, v| hash::aggr_grouptable_verify_col(s, v, grp, cand, ne, k == 0),
                |s, v| hash::aggr_grouptable_verify_str_col(s, v, grp, cand, ne, k == 0)
            );
        }
        if !differ {
            return 0;
        }
        let mut added = 0;
        for &p in cand {
            scratch.next[c.next + added] = p;
            added += (scratch.ne[p as usize] != 0) as usize;
        }
        added
    }

    /// Scalar find-or-insert of the positions `miss`, in order. A new
    /// key may repeat inside the vector, so every tuple probes the live
    /// table — unless it repeats the key of the tuple before it, the
    /// common case on clustered input.
    /// Returns how many tuples fell in a group below `known`.
    fn insert(
        &mut self,
        miss: &[u32],
        grp: &mut [u32],
        hashes: &[u64],
        keys: &[&Vector],
        known: u32,
    ) -> usize {
        self.reserve(self.len() + miss.len());
        let mask = self.buckets.len() - 1;
        let idmask = (1u32 << self.bits) - 1;
        let same_key = |stores: &[Vector], g: usize, i: usize| {
            stores.iter().zip(keys).all(|(store, key)| {
                with_key_column!(store, *key, |s, v| s[g].same(v[i]), |s, v| s.get(g)
                    == v.get(i))
            })
        };
        let mut found = 0;
        let mut last: Option<(u64, u32)> = None;
        for &p in miss {
            let i = p as usize;
            let h = hashes[i];
            let g = match last {
                Some((last_h, g)) if last_h == h && same_key(&self.keys, g as usize, i) => g,
                _ => {
                    let tag = bucket_tag(h, self.bits);
                    let mut b = h as usize & mask;
                    loop {
                        let word = self.buckets[b];
                        let id = word & idmask;
                        if id == 0 {
                            let g = self.hashes.len() as u32;
                            self.hashes.push(h);
                            for (store, key) in self.keys.iter_mut().zip(keys) {
                                with_key_column!(store, *key, |s, v| s.push(v[i]), |s, v| s
                                    .push(v.get(i)));
                            }
                            self.buckets[b] = tag | (g + 1);
                            break g;
                        }
                        if word & !idmask == tag && same_key(&self.keys, (id - 1) as usize, i) {
                            break id - 1;
                        }
                        b = (b + 1) & mask;
                    }
                }
            };
            last = Some((h, g));
            found += (g < known) as usize;
            grp[i] = g;
        }
        found
    }

    /// Grow the bucket array until `target` groups load it at most
    /// [`MAX_LOAD_PCT`] per cent, rebuilding it from the stored hashes.
    fn reserve(&mut self, target: usize) {
        let mut bits = self.bits;
        while (MAX_LOAD_PCT << bits) <= target * 100 {
            bits += 1;
        }
        if bits == self.bits {
            return;
        }
        assert!(bits < 32, "group table exceeds u32 group ids");
        let mask = (1usize << bits) - 1;
        let mut grown = vec![0u32; 1 << bits];
        for (g, &h) in self.hashes.iter().enumerate() {
            let mut b = h as usize & mask;
            while grown[b] != 0 {
                b = (b + 1) & mask;
            }
            grown[b] = bucket_tag(h, bits) | (g as u32 + 1);
        }
        self.buckets = grown;
        self.bits = bits;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::map_hash_i64_col;

    fn hashed(keys: &[i64]) -> (Vector, Vec<u64>) {
        let mut hashes = vec![0u64; keys.len()];
        map_hash_i64_col(&mut hashes, keys, None);
        (Vector::I64(keys.to_vec()), hashes)
    }

    #[test]
    fn find_on_an_empty_table_reports_every_live_position() {
        let table = GroupTable::new(&[ScalarType::I64]);
        let mut scratch = ProbeScratch::default();
        let (keys, hashes) = hashed(&[5, 6, 7, 8]);
        let sel = SelVec::from_positions(vec![1, 3]);
        let mut grp = [7u32; 4];
        let absent = table.find(&mut scratch, &mut grp, &hashes, &[&keys], 4, Some(&sel));
        assert_eq!(absent, &[1, 3]);
        assert_eq!(grp, [7, GroupTable::ABSENT, 7, GroupTable::ABSENT]);
        assert!(table.is_empty());
    }

    #[test]
    fn find_agrees_with_lookup_and_never_inserts() {
        let mut table = GroupTable::new(&[ScalarType::I64]);
        let mut scratch = ProbeScratch::default();
        let (keys, hashes) = hashed(&[10, 20, 10, 30]);
        let mut grp = [0u32; 4];
        table.lookup(&mut scratch, &mut grp, &hashes, &[&keys], 4, None);
        assert_eq!(grp, [0, 1, 0, 2]);
        let (probe, hashes) = hashed(&[30, 99, 10, 98, 20]);
        let mut found = [0u32; 5];
        let absent = table.find(&mut scratch, &mut found, &hashes, &[&probe], 5, None);
        assert_eq!(absent, &[1, 3]);
        assert_eq!(found, [2, GroupTable::ABSENT, 0, GroupTable::ABSENT, 1]);
        assert_eq!(table.len(), 3);
    }

    #[test]
    fn misses_of_later_rounds_come_back_in_position_order() {
        // Every hash equal: one bucket chain, one tag. Known keys are
        // found rounds apart, unknown ones miss only after walking the
        // whole chain — the absent list must still ascend.
        let mut table = GroupTable::new(&[ScalarType::I64]);
        let mut scratch = ProbeScratch::default();
        let known = Vector::I64((0..6).collect());
        let mut grp = [0u32; 6];
        table.lookup(&mut scratch, &mut grp, &[42; 6], &[&known], 6, None);
        let probe = Vector::I64(vec![77, 5, 88, 0, 99, 3, 66]);
        let mut found = [0u32; 7];
        let absent = table.find(&mut scratch, &mut found, &[42; 7], &[&probe], 7, None);
        assert_eq!(absent, &[0, 2, 4, 6]);
        assert_eq!([found[1], found[3], found[5]], [5, 0, 3]);
    }
}
