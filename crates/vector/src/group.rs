//! The group table: key vectors + hashes → dense group ids.
//!
//! One open-addressing table under hash aggregation and the parallel
//! merge stage. A bucket is one `u32` word: the low `bits` bits hold
//! `group id + 1` (0 = empty), the bits above a tag cut from the hash
//! ([`hash::bucket_tag`]), so a probe that lands on another group's
//! bucket is rejected from the word alone, without touching the stored
//! hashes or keys. `bits` is `log2(buckets)`, which always leaves room
//! for every id the load bound admits; a rebuild re-cuts the tags.
//!
//! [`GroupTable::lookup`] is vectorized the X100 way: probe rounds
//! over a shrinking pending list ([`hash::aggr_grouptable_probe_u64_col`]),
//! one typed key-verify loop per key column, and a scalar
//! find-or-insert only for the tuples that reached an empty bucket.
//! The rounds run against the table as it stood when the vector
//! arrived, so they find exactly the tuples whose key was already
//! present; the rest are inserted in ascending position. Group ids are
//! therefore dense in first-seen order — what a tuple-at-a-time loop
//! would assign.
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
    // Per-lookup scratch: positional mismatch flags and position lists.
    ne: Vec<u8>,
    pending: Vec<u32>,
    next: Vec<u32>,
    cand: Vec<u32>,
    miss: Vec<u32>,
}

impl GroupTable {
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
            ne: Vec::new(),
            pending: Vec::new(),
            next: Vec::new(),
            cand: Vec::new(),
            miss: Vec::new(),
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

    /// Bytes the table holds per its contents (buckets, hashes, keys);
    /// the per-vector scratch is bounded by the vector size.
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
        grp: &mut [u32],
        hashes: &[u64],
        keys: &[&Vector],
        n: usize,
        sel: Option<&SelVec>,
    ) {
        assert_eq!(keys.len(), self.keys.len(), "group key arity");
        let (hashes, grp) = (&hashes[..n], &mut grp[..n]);
        let live = sel.map_or(n, |s| s.len());
        self.miss.resize(live, 0);
        let n_miss = if self.building {
            // The last vector brought mostly unknown keys: probing the
            // table as it stands would turn nearly every tuple away.
            match sel {
                None => self.miss.iter_mut().zip(0..).for_each(|(m, i)| *m = i),
                Some(sel) => self.miss.copy_from_slice(sel.positions()),
            }
            live
        } else {
            self.probe(grp, hashes, keys, n, sel)
        };
        let known = self.len() as u32;
        let mut found = live - n_miss;
        if n_miss > 0 {
            found += self.insert(grp, hashes, keys, n_miss, known);
        }
        self.building = found * 2 < live;
    }

    /// The vectorized phase: probe rounds and key verifies against the
    /// table as it stands. Returns how many live tuples reached an
    /// empty bucket — their positions lead `self.miss`, ascending.
    fn probe(
        &mut self,
        grp: &mut [u32],
        hashes: &[u64],
        keys: &[&Vector],
        n: usize,
        sel: Option<&SelVec>,
    ) -> usize {
        let live = self.miss.len();
        self.ne.resize(n, 0);
        for list in [&mut self.pending, &mut self.next, &mut self.cand] {
            list.resize(live, 0);
        }
        let mut c = hash::aggr_grouptable_probe_u64_col(
            &self.buckets,
            self.bits,
            hashes,
            sel,
            grp,
            &mut self.cand,
            &mut self.miss,
            &mut self.next,
        );
        let mut n_miss = c.miss;
        let mut round = 0;
        loop {
            let n_pending = c.next + self.verify(keys, grp, c);
            if n_pending == 0 {
                break;
            }
            std::mem::swap(&mut self.pending, &mut self.next);
            round += 1;
            c = hash::aggr_grouptable_reprobe_u64_col(
                &self.buckets,
                self.bits,
                hashes,
                round,
                &self.pending[..n_pending],
                grp,
                &mut self.cand,
                &mut self.miss[n_miss..],
                &mut self.next,
            );
            n_miss += c.miss;
        }
        if round > 0 {
            // Round 0 reports its misses in ascending position, later
            // rounds append theirs: restore insertion order.
            self.miss[..n_miss].sort_unstable();
        }
        n_miss
    }

    /// Verify the keys of the round's candidates column by column;
    /// candidates whose key differs join `next` behind the round's own
    /// `c.next` entries. Returns how many were added.
    fn verify(&mut self, keys: &[&Vector], grp: &[u32], c: ProbeCounts) -> usize {
        let cand = &self.cand[..c.cand];
        let mut differ = false;
        for (k, (store, key)) in self.keys.iter().zip(keys).enumerate() {
            let ne = &mut self.ne;
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
            self.next[c.next + added] = p;
            added += (self.ne[p as usize] != 0) as usize;
        }
        added
    }

    /// Scalar find-or-insert of the first `n_miss` positions of
    /// `self.miss`, in order. A new key may repeat inside the vector, so
    /// every tuple probes the live table — unless it repeats the key
    /// of the tuple before it, the common case on clustered input.
    /// Returns how many tuples fell in a group below `known`.
    fn insert(
        &mut self,
        grp: &mut [u32],
        hashes: &[u64],
        keys: &[&Vector],
        n_miss: usize,
        known: u32,
    ) -> usize {
        self.reserve(self.len() + n_miss);
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
        for &p in &self.miss[..n_miss] {
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
