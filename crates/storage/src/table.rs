//! Tables: schemas, immutable fragments, deltas, and reorganization.
//!
//! A [`Table`] is a set of equally long vertical fragments — each an
//! [`x100_vector::Vector`], the same buffer type the operators consume —
//! optionally enum-compressed (built so, or turned so by a checkpoint)
//! and/or carrying a summary index, plus the
//! delta structures of §4.3: a deletion list and uncompressed insert
//! columns. `Bool` is vector-only: a table refuses it. Every table has a
//! virtual `#rowId` column — a densely ascending number from 0 (never
//! stored), which positional fetch-joins use as join key.

use crate::compress::{
    choose_and_compress, dictionary_beats, dictionary_bytes, ChunkFormat, CompressedColumn,
};
use crate::delta::{DeleteList, InsertDelta};
use crate::durable::{DurableError, DurableOptions, DurableSource};
use crate::enumcol::{self, encode, encode_f64, encode_i64, encode_str, EnumDict, MAX_ENUM_CARD};
use crate::fault::FaultState;
use crate::summary::SummaryIndex;
use std::path::Path;
use std::sync::Arc;
use x100_vector::fetch::{gather_at, gather_rows};
use x100_vector::{ScalarType, Value, Vector};

/// A durable checkpoint's per-column verdicts `(name, format,
/// ratio_pct)`: what its segment stores of each column (codes for an
/// enum column); a column stored raw reports `ChunkFormat::Raw` at 100%.
pub type Verdicts = Vec<(String, ChunkFormat, u64)>;

/// A named, typed column slot in a table schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Field {
    /// Column name.
    pub name: String,
    /// The *logical* type queries see (enum columns decode to this).
    pub logical: ScalarType,
}

/// Column statistics, harvested when a fragment is built
/// (`TableBuilder::build` / `Table::reorganize` / `Table::open`) — the
/// fragment is immutable in between, so the stats stay exact until the
/// next rebuild — and over the insert delta when asked. They
/// are the *source facts* of the engine's plan-level abstract
/// interpretation (`engine::facts`): value range and sortedness of the
/// physical data (codes for enum columns). A durable checkpoint's
/// chunks carry the same bounds per chunk (PFOR frame base/width);
/// these are the fragment-wide rollup.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnStats {
    /// Minimum physical value. `None` for string or empty fragments, or
    /// when a float fragment contains NaN.
    pub min: Option<Value>,
    /// Maximum physical value (same caveats as `min`).
    pub max: Option<Value>,
    /// Whether the fragment is non-decreasing.
    pub sorted: bool,
}

impl ColumnStats {
    /// Compute stats over one fragment in a single pass.
    pub fn compute(data: &Vector) -> ColumnStats {
        fn fold<T: Copy + PartialOrd>(v: &[T], mk: impl Fn(T) -> Value) -> ColumnStats {
            let Some(&first) = v.first() else {
                return ColumnStats {
                    min: None,
                    max: None,
                    sorted: true,
                };
            };
            let (mut mn, mut mx, mut sorted, mut prev) = (first, first, true, first);
            // Select expressions, not conditional stores: LLVM turns
            // these into vector min/max.
            for &x in &v[1..] {
                mn = if x < mn { x } else { mn };
                mx = if mx < x { x } else { mx };
                sorted &= prev <= x;
                prev = x;
            }
            ColumnStats {
                min: Some(mk(mn)),
                max: Some(mk(mx)),
                sorted,
            }
        }
        match data {
            Vector::I8(v) => fold(v, Value::I8),
            Vector::I16(v) => fold(v, Value::I16),
            Vector::I32(v) => fold(v, Value::I32),
            Vector::I64(v) => fold(v, Value::I64),
            Vector::U8(v) => fold(v, Value::U8),
            Vector::U16(v) => fold(v, Value::U16),
            Vector::U32(v) => fold(v, Value::U32),
            Vector::U64(v) => fold(v, Value::U64),
            // NaN poisons both the ordering and the range; the analyzer
            // treats the column as ⊤.
            Vector::F64(v) if v.iter().any(|x| x.is_nan()) => ColumnStats::unknown(),
            Vector::F64(v) => fold(v, Value::F64),
            // Strings carry no numeric range; lexicographic order is of
            // no use to the analyzer (and `Bool` is never stored).
            Vector::Str(_) | Vector::Bool(_) => ColumnStats::unknown(),
        }
    }

    /// No range and no order.
    fn unknown() -> ColumnStats {
        ColumnStats {
            min: None,
            max: None,
            sorted: false,
        }
    }

    /// The stats of these `n` rows followed by `next`'s `m`: the min of
    /// the minima, the max of the maxima, and sorted when both parts are
    /// and `next` starts at or above this part's maximum (a sorted
    /// part starts at its minimum).
    pub(crate) fn then(&self, n: usize, next: &ColumnStats, m: usize) -> ColumnStats {
        match (n, m) {
            (_, 0) => return self.clone(),
            (0, _) => return next.clone(),
            _ => {}
        }
        match (&self.min, &self.max, &next.min, &next.max) {
            (Some(a), Some(b), Some(c), Some(d)) => ColumnStats {
                min: Some(if lt(c, a) { c } else { a }.clone()),
                max: Some(if lt(b, d) { d } else { b }.clone()),
                sorted: self.sorted && next.sorted && !lt(c, b),
            },
            _ => ColumnStats::unknown(),
        }
    }
}

/// `a < b` for two numeric values of one type.
///
/// # Panics
/// On values of two types, or of a type without an order here.
fn lt(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::I8(a), Value::I8(b)) => a < b,
        (Value::I16(a), Value::I16(b)) => a < b,
        (Value::I32(a), Value::I32(b)) => a < b,
        (Value::I64(a), Value::I64(b)) => a < b,
        (Value::U8(a), Value::U8(b)) => a < b,
        (Value::U16(a), Value::U16(b)) => a < b,
        (Value::U32(a), Value::U32(b)) => a < b,
        (Value::U64(a), Value::U64(b)) => a < b,
        (Value::F64(a), Value::F64(b)) => a < b,
        (a, b) => panic!(
            "no order between {:?} and {:?}",
            a.scalar_type(),
            b.scalar_type()
        ),
    }
}

/// One stored column: physical data + optional dictionary + optional
/// summary index.
#[derive(Debug, Clone)]
pub struct StoredColumn {
    pub(crate) field: Field,
    /// Physical fragment: plain values, or `U8`/`U16` codes when `dict`
    /// is present.
    pub(crate) data: Vector,
    pub(crate) dict: Option<EnumDict>,
    pub(crate) summary: Option<SummaryIndex>,
    /// Fragment statistics, derived from `data` with it.
    pub(crate) stats: ColumnStats,
}

impl StoredColumn {
    /// A column named `name` over fragment `data` (codes when `dict` is
    /// given), with its derived data — the one
    /// place build, reorganize and open compute it: the fragment stats,
    /// and with `summary` the summary index over an `I32`/`I64` fragment
    /// (none over any other).
    pub(crate) fn new(
        name: String,
        data: Vector,
        dict: Option<EnumDict>,
        summary: bool,
    ) -> StoredColumn {
        let logical = dict
            .as_ref()
            .map_or(data.scalar_type(), EnumDict::value_type);
        let summary = match &data {
            _ if !summary => None,
            Vector::I32(v) => Some(SummaryIndex::build(v)),
            Vector::I64(v) => Some(SummaryIndex::build(v)),
            _ => None,
        };
        StoredColumn {
            field: Field { name, logical },
            stats: ColumnStats::compute(&data),
            data,
            dict,
            summary,
        }
    }

    /// The schema field.
    pub fn field(&self) -> &Field {
        &self.field
    }

    /// The physical fragment (codes for enum columns).
    pub fn physical(&self) -> &Vector {
        &self.data
    }

    /// The physical type stored in the fragment.
    pub fn physical_type(&self) -> ScalarType {
        self.data.scalar_type()
    }

    /// The enum dictionary, if this column is enumeration-typed.
    pub fn dict(&self) -> Option<&EnumDict> {
        self.dict.as_ref()
    }

    /// The summary index, if one was built.
    pub fn summary(&self) -> Option<&SummaryIndex> {
        self.summary.as_ref()
    }

    /// Always `None`: a column is resident once, as its fragment, and
    /// compressed chunks exist only inside a durable checkpoint's
    /// segments (`Table::checkpoint_durable` reports their formats).
    /// Kept for the callers that still ask; it goes with them.
    pub fn compressed(&self) -> Option<&CompressedColumn> {
        None
    }

    /// Fragment statistics (physical values; codes for enum columns).
    /// Prefer [`Table::column_stats`], which widens under pending deltas.
    pub fn stats(&self) -> &ColumnStats {
        &self.stats
    }

    /// Turn a plain `i64`/`f64`/`str` column without a summary index
    /// into an enumeration type — codes plus dictionary — when its
    /// dictionary candidate beats every chunk format ([`dictionary_beats`],
    /// the verdict `compress::dictionary_wins` gives), unless encoding
    /// refuses it (NaN or `-0.0` among `f64` values). The chunk formats
    /// are priced (one sweep, counted in `sweeps`) only for a column
    /// whose dictionary already pays against raw ([`dictionary_bytes`]).
    /// Returns whether the column was enumerated.
    fn enumerate(&mut self, sweeps: &mut u64) -> bool {
        if self.dict.is_some() || self.summary.is_some() {
            return false;
        }
        let Some(dict_bytes) = dictionary_bytes(&self.data) else {
            return false;
        };
        *sweeps += 1;
        if !dictionary_beats(
            dict_bytes,
            choose_and_compress(&self.data, &self.stats).as_ref(),
        ) {
            return false;
        }
        let Some(enc) = encode(&self.data) else {
            return false;
        };
        let name = std::mem::take(&mut self.field.name);
        *self = StoredColumn::new(name, enc.codes, Some(enc.dict), false);
        true
    }

    /// One physical value of this column — a fragment or delta row —
    /// in its logical form (slow path).
    fn logical(&self, v: Value) -> Value {
        match (&self.dict, v) {
            (Some(dict), Value::U8(code)) => dict.decode(code as usize),
            (Some(dict), Value::U16(code)) => dict.decode(code as usize),
            (_, v) => v,
        }
    }
}

/// A column added to a [`TableBuilder`], built into a [`StoredColumn`]
/// by [`TableBuilder::build`].
#[derive(Debug)]
struct PendingColumn {
    name: String,
    data: Vector,
    dict: Option<EnumDict>,
    summary: bool,
}

/// Builds a [`Table`] column by column.
#[derive(Debug, Default)]
pub struct TableBuilder {
    name: String,
    columns: Vec<PendingColumn>,
}

impl TableBuilder {
    /// Start a table named `name`.
    pub fn new(name: impl Into<String>) -> Self {
        TableBuilder {
            name: name.into(),
            columns: Vec::new(),
        }
    }

    /// Add a plain (uncompressed) column.
    ///
    /// # Panics
    /// Panics on a `Bool` vector: booleans are vector-only (store `U8`).
    pub fn column(mut self, name: impl Into<String>, data: Vector) -> Self {
        assert!(
            data.scalar_type() != ScalarType::Bool,
            "Bool is a vector-only type; store as U8"
        );
        self.columns.push(PendingColumn {
            name: name.into(),
            data,
            dict: None,
            summary: false,
        });
        self
    }

    /// Add an enumeration-typed column from pre-built codes + dictionary.
    pub fn enum_column(mut self, name: impl Into<String>, codes: Vector, dict: EnumDict) -> Self {
        assert!(
            matches!(codes.scalar_type(), ScalarType::U8 | ScalarType::U16),
            "enum codes must be U8 or U16"
        );
        self.columns.push(PendingColumn {
            name: name.into(),
            data: codes,
            dict: Some(dict),
            summary: false,
        });
        self
    }

    /// Try to enum-encode a string column; falls back to plain storage
    /// if the cardinality exceeds 2-byte codes.
    pub fn auto_enum_str(self, name: impl Into<String>, values: Vec<String>) -> Self {
        match encode_str(&values) {
            Some(enc) => self.enum_column(name, enc.codes, enc.dict),
            None => self.column(
                name,
                Vector::Str(values.iter().map(String::as_str).collect()),
            ),
        }
    }

    /// Try to enum-encode an `f64` column (falls back to plain storage).
    pub fn auto_enum_f64(self, name: impl Into<String>, values: Vec<f64>) -> Self {
        match encode_f64(&values) {
            Some(enc) => self.enum_column(name, enc.codes, enc.dict),
            None => self.column(name, Vector::F64(values)),
        }
    }

    /// Try to enum-encode an `i64` column (falls back to plain storage).
    pub fn auto_enum_i64(self, name: impl Into<String>, values: Vec<i64>) -> Self {
        match encode_i64(&values) {
            Some(enc) => self.enum_column(name, enc.codes, enc.dict),
            None => self.column(name, Vector::I64(values)),
        }
    }

    /// Build a summary index on the most recently added column (must be
    /// an integer-comparable plain column: `I32` dates or `I64`).
    pub fn with_summary(mut self) -> Self {
        let col = self
            .columns
            .last_mut()
            .expect("with_summary after a column");
        let ty = col.data.scalar_type();
        assert!(
            col.dict.is_none() && matches!(ty, ScalarType::I32 | ScalarType::I64),
            "summary index needs I32/I64 column, got {ty:?}"
        );
        col.summary = true;
        self
    }

    /// Finish the table.
    ///
    /// # Panics
    /// Panics if columns differ in length.
    pub fn build(self) -> Table {
        let rows = self.columns.first().map_or(0, |c| c.data.len());
        let columns: Vec<StoredColumn> = self
            .columns
            .into_iter()
            .map(|c| {
                assert_eq!(c.data.len(), rows, "column {} length mismatch", c.name);
                StoredColumn::new(c.name, c.data, c.dict, c.summary)
            })
            .collect();
        Table {
            name: self.name,
            inserts: empty_delta(&columns),
            columns,
            frag_rows: rows,
            deletes: DeleteList::default(),
            codec_sweeps: 0,
            durable: None,
        }
    }
}

/// An empty insert delta for `columns`: a column of each fragment's
/// physical type (codes for an enum column).
pub(crate) fn empty_delta(columns: &[StoredColumn]) -> InsertDelta {
    let types: Vec<ScalarType> = columns.iter().map(|c| c.data.scalar_type()).collect();
    InsertDelta::new(&types)
}

/// A vertically fragmented table with delta-based updates.
#[derive(Debug, Clone)]
pub struct Table {
    pub(crate) name: String,
    pub(crate) columns: Vec<StoredColumn>,
    pub(crate) frag_rows: usize,
    pub(crate) deletes: DeleteList,
    pub(crate) inserts: InsertDelta,
    /// Format sweeps the codec chooser has run ([`Table::codec_sweeps`]).
    pub(crate) codec_sweeps: u64,
    /// The on-disk checkpoint this table was opened from (or last
    /// committed to); `None` for purely in-memory tables, and reset by
    /// `reorganize()` (the disk copy no longer matches the fragments
    /// until the next durable checkpoint).
    pub(crate) durable: Option<Arc<DurableSource>>,
}

impl Table {
    /// The table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The schema fields, in column order.
    pub fn fields(&self) -> impl Iterator<Item = &Field> {
        self.columns.iter().map(|c| &c.field)
    }

    /// Number of columns.
    pub fn num_columns(&self) -> usize {
        self.columns.len()
    }

    /// Resolve a column index by name.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.field.name == name)
    }

    /// The stored column at index `i`.
    pub fn column(&self, i: usize) -> &StoredColumn {
        &self.columns[i]
    }

    /// The stored column named `name`.
    ///
    /// # Panics
    /// Panics if absent.
    pub fn column_by_name(&self, name: &str) -> &StoredColumn {
        let i = self
            .column_index(name)
            .unwrap_or_else(|| panic!("no column `{name}` in table `{}`", self.name));
        &self.columns[i]
    }

    /// Rows in the immutable fragments.
    pub fn fragment_rows(&self) -> usize {
        self.frag_rows
    }

    /// Rows in the insert delta.
    pub fn delta_rows(&self) -> usize {
        self.inserts.len()
    }

    /// Statistics of column `i` over every row id — fragment ++ insert
    /// delta (`ColumnStats::then`). The delta's are computed when asked:
    /// one vectorized pass over rows a scan of the column reads anyway,
    /// where folding each value in at insert would slow every insert.
    /// Deleted rows stay covered: the visible rows are a subset, so
    /// every claim still holds for them.
    pub fn column_stats(&self, i: usize) -> ColumnStats {
        let (frag, n) = (&self.columns[i].stats, self.inserts.len());
        match n {
            0 => frag.clone(),
            _ => frag.then(
                self.frag_rows,
                &ColumnStats::compute(self.inserts.column(i)),
                n,
            ),
        }
    }

    /// Total row id space (fragments + deltas, including deleted rows).
    pub fn total_rows(&self) -> usize {
        self.frag_rows + self.inserts.len()
    }

    /// Live (visible) rows.
    pub fn live_rows(&self) -> usize {
        self.total_rows() - self.deletes.len()
    }

    /// The deletion list.
    pub fn deletes(&self) -> &DeleteList {
        &self.deletes
    }

    /// The insert delta columns.
    pub fn inserts(&self) -> &InsertDelta {
        &self.inserts
    }

    /// Total storage bytes (fragments + dictionaries + deltas).
    pub fn byte_size(&self) -> usize {
        let frag: usize = self
            .columns
            .iter()
            .map(|c| c.data.byte_size() + c.dict.as_ref().map_or(0, |d| d.values().byte_size()))
            .sum();
        let delta: usize = (0..self.columns.len())
            .map(|i| self.inserts.column(i).byte_size())
            .sum();
        frag + delta
    }

    /// Insert a row (logical values). Returns its `#rowId`.
    ///
    /// An enum column stores the value's code (`EnumDict::code_of`),
    /// and a value its dictionary lacks is appended as the next code
    /// (`EnumDict::push`), so the delta holds codes of the fragment's
    /// width. Where that width cannot name the new entry — a 257th on
    /// `U8` codes — the column's codes widen to `U16` first; where no
    /// enum column can hold the value — a 65 537th entry, NaN or `-0.0`
    /// in an `f64` dictionary — the column turns plain. Either is done in
    /// place, fragment and delta alike (`Table::reform`).
    ///
    /// # Panics
    /// Panics if `row` arity or types mismatch.
    pub fn insert(&mut self, row: &[Value]) -> u32 {
        assert_eq!(row.len(), self.columns.len(), "row arity mismatch");
        let id = self.total_rows() as u32;
        for (i, v) in row.iter().enumerate() {
            let col = &self.columns[i];
            let code = match col.dict.as_ref().map(|d| d.code_of(v)) {
                None => None,
                Some(Some(code)) => Some(code),
                Some(None) => self.append_entry(i, v),
            };
            match code {
                None => self.inserts.push(i, v),
                Some(code) => self.inserts.push_code(i, code),
            }
        }
        self.inserts.end_row();
        id
    }

    /// Append `v`, which enum column `i`'s dictionary lacks, and return
    /// its code — `None` when the column had to turn plain for it.
    #[cold]
    fn append_entry(&mut self, i: usize, v: &Value) -> Option<usize> {
        let card = self.columns[i]
            .dict
            .as_ref()
            .map_or(0, EnumDict::cardinality);
        if !enumcol::holds(v) || card == MAX_ENUM_CARD {
            self.reform(i, false);
            return None;
        }
        if card == 256 && self.columns[i].data.scalar_type() == ScalarType::U8 {
            self.reform(i, true);
        }
        Some(
            self.columns[i]
                .dict
                .as_mut()
                .expect("an enum column")
                .push(v),
        )
    }

    /// Rebuild enum column `i`, fragment and insert delta, in another
    /// form with the same row ids: its `U8` codes widened to `U16`
    /// (`widen`), or decoded through the dictionary into a plain column.
    /// The result is what a reorganize would store or refuse to merge,
    /// and the durable source detaches, as after a reorganize.
    fn reform(&mut self, i: usize, widen: bool) {
        let col = &mut self.columns[i];
        let dict = col.dict.take().expect("an enum column");
        let reformed = |codes: &Vector| match widen {
            true => Vector::U16(codes.as_u8().iter().map(|&c| u16::from(c)).collect()),
            false => {
                let mut values = Vector::with_capacity(dict.value_type(), codes.len());
                assert!(
                    gather_at(&mut values, dict.values(), codes, None),
                    "codes name dictionary entries"
                );
                values
            }
        };
        let (data, delta) = (reformed(&col.data), reformed(self.inserts.column(i)));
        let name = std::mem::take(&mut col.field.name);
        *col = StoredColumn::new(name, data, widen.then_some(dict), false);
        self.inserts.replace_column(i, delta);
        self.durable = None;
    }

    /// Delete a row by `#rowId`. Returns `false` if it did not exist or
    /// was already deleted.
    pub fn delete(&mut self, rowid: u32) -> bool {
        if (rowid as usize) < self.total_rows() {
            self.deletes.delete(rowid)
        } else {
            false
        }
    }

    /// Update = delete + insert (paper §4.3). Returns the new `#rowId`,
    /// or `None` if `rowid` did not exist.
    pub fn update(&mut self, rowid: u32, row: &[Value]) -> Option<u32> {
        if self.delete(rowid) {
            Some(self.insert(row))
        } else {
            None
        }
    }

    /// Delta fraction: delta rows + deletes relative to total rows.
    /// The paper reorganizes "whenever their size exceeds a (small)
    /// percentile of the total table size".
    pub fn delta_fraction(&self) -> f64 {
        if self.total_rows() == 0 {
            0.0
        } else {
            (self.inserts.len() + self.deletes.len()) as f64 / self.total_rows() as f64
        }
    }

    /// Read one row's logical values (slow path; tests and row display).
    ///
    /// # Panics
    /// Panics if `rowid` is deleted or out of range.
    pub fn get_row(&self, rowid: u32) -> Vec<Value> {
        assert!(!self.deletes.contains(rowid), "row {rowid} is deleted");
        let r = rowid as usize;
        if r < self.frag_rows {
            let row = self.columns.iter().map(|c| c.logical(c.data.get_value(r)));
            row.collect()
        } else {
            let d = r - self.frag_rows;
            assert!(d < self.inserts.len(), "row {rowid} out of range");
            let row = self.columns.iter().enumerate();
            row.map(|(i, c)| c.logical(self.inserts.column(i).get_value(d)))
                .collect()
        }
    }

    /// Read a delta range of a column as stored: values, or the codes of
    /// an enum column. `start` is relative to the delta (0 = first
    /// inserted row).
    pub fn read_delta(&self, col: usize, start: usize, rows: usize, out: &mut Vector) {
        self.inserts.column(col).read_into(start, rows, out);
    }

    /// Checkpoint: turn every plain column a dictionary compresses best
    /// into an enumeration type (paper §4.3/§5 — "light-weight
    /// compression" applied when data is reorganized), pricing the chunk
    /// formats only where the dictionary pays against raw. A column
    /// with rows pending in its insert delta stays as it is (they hold
    /// values; a checkpoint after the reorganize that merges them
    /// decides again). Nothing else is rewritten: the chunk formats are
    /// chosen where their output is written, by
    /// [`Table::checkpoint_durable`]. Returns the names of the columns
    /// this checkpoint enumerated.
    pub fn checkpoint(&mut self) -> Vec<String> {
        let mut enumerated = Vec::new();
        let mut sweeps = 0;
        for (i, col) in self.columns.iter_mut().enumerate() {
            if self.inserts.column(i).is_empty() && col.enumerate(&mut sweeps) {
                // An enumerated column takes codes in its (empty) delta
                // from now on.
                let ty = col.data.scalar_type();
                self.inserts.replace_column(i, Vector::with_capacity(ty, 0));
                enumerated.push(col.field.name.clone());
            }
        }
        self.codec_sweeps += sweeps;
        enumerated
    }

    /// Format sweeps run so far: one per column per durable commit,
    /// plus one per dictionary candidate `checkpoint()` priced.
    pub fn codec_sweeps(&self) -> u64 {
        self.codec_sweeps
    }

    /// The durable checkpoint backing this table, if it was opened from
    /// disk or durably checkpointed since the last reorganize.
    pub fn durable_source(&self) -> Option<&Arc<DurableSource>> {
        self.durable.as_ref()
    }

    /// Durable checkpoint: enumerate (as [`Table::checkpoint`]), then
    /// persist every column to `dir` — the codec chooser runs once per
    /// column, straight into the segment buffer: its compressed chunks
    /// when they pay and verify (the fragment is their decode), its raw
    /// values otherwise, and its dictionary — as one segment file per
    /// replica ([`DurableOptions::replicas`]), committed by a versioned
    /// manifest written last. The chunks are dropped once written; the
    /// table keeps only its fragments. A crash at any point leaves the
    /// previous checkpoint fully readable; see [`Table::open`] for
    /// recovery. Returns per-column verdicts `(name, format, ratio_pct)`
    /// of what each segment stores (codes for enum columns); a column
    /// stored raw reports `ChunkFormat::Raw` at 100%.
    ///
    /// Pending deltas are merged first (`reorganize`) so the persisted
    /// state is the complete table.
    pub fn checkpoint_durable(
        &mut self,
        dir: &Path,
        opts: &DurableOptions,
    ) -> Result<Verdicts, DurableError> {
        self.try_checkpoint_durable(dir, opts, None)
    }

    /// Fallible durable checkpoint: every write step consults the fault
    /// plan (`FaultSite::DurableChunkWrite` per column extent per
    /// replica, before the segments' sync and after the directory's,
    /// `FaultSite::ManifestWrite` for the manifest temp-write and the
    /// committing rename) with bounded-backoff retry, and its torn
    /// writes flip chunk bytes between encode and verification (that
    /// column is then stored raw). On error the
    /// directory may hold orphan segments of the aborted version, but
    /// the previous manifest — and therefore the previous checkpoint —
    /// is untouched and fully readable.
    pub fn try_checkpoint_durable(
        &mut self,
        dir: &Path,
        opts: &DurableOptions,
        fault: Option<&FaultState>,
    ) -> Result<Verdicts, DurableError> {
        if !self.inserts.is_empty() || !self.deletes.is_empty() {
            self.reorganize();
        }
        self.checkpoint();
        let (source, verdicts) = crate::durable::commit_checkpoint(self, dir, opts, fault)?;
        self.codec_sweeps += self.columns.len() as u64;
        self.durable = Some(source);
        Ok(verdicts)
    }

    /// Recover a table from its durable checkpoint directory: the
    /// newest manifest that parses and checksums clean wins (a crash
    /// mid-checkpoint leaves its version uncommitted, so recovery falls
    /// back to the previous one), every column loads from the first
    /// replica whose extent passes its checksum and decodes, and bad
    /// extents are healed in place from a good copy.
    pub fn open(dir: &Path) -> Result<Table, DurableError> {
        Table::try_open(dir, None)
    }

    /// [`Table::open`] with fault injection: replica reads consult
    /// `FaultSite::DurableChunkRead` / `FaultSite::ManifestRead`
    /// and a read that exhausts its retry budget counts as a bad copy,
    /// falling over to the next replica. A typed error surfaces only
    /// when *all* copies of some column fail.
    pub fn try_open(dir: &Path, fault: Option<&FaultState>) -> Result<Table, DurableError> {
        crate::durable::open_table(dir, fault)
    }

    /// Reorganize when the deltas exceed `threshold` of the table
    /// (paper §4.3: "whenever their size exceeds a (small) percentile of
    /// the total table size, data storage should be reorganized").
    /// Returns whether a reorganization ran.
    pub fn maybe_reorganize(&mut self, threshold: f64) -> bool {
        if self.delta_fraction() > threshold {
            self.reorganize();
            true
        } else {
            false
        }
    }

    /// Rebuild the immutable fragments with all deltas applied: deleted
    /// rows vanish, inserted rows append, enum dictionaries merge,
    /// summary indices rebuild, and the delta structures empty (paper
    /// §4.3's "data storage should be reorganized").
    ///
    /// Column by column, in vectors: the live positions are computed
    /// once from the delete list, and each fragment and its insert delta
    /// are gathered at them — values, or an enum column's codes (the
    /// delta holds codes of the fragment's width). A column then takes
    /// one of two paths:
    /// - **plain**: the gathered values are the new fragment;
    /// - **dictionary merge** ([`EnumDict::merge`]): an enum column's
    ///   codes stay codes. Only the dictionary entries still used are
    ///   encoded, and the gathered codes are remapped through one
    ///   gather. The result is exactly the encoding of the decoded
    ///   column — sorted distinct live values, rank codes — so the table
    ///   equals a fresh build of its live rows. Where that encoding is
    ///   refused (a dictionary type no `encode_*` covers, or a NaN or
    ///   `-0.0` in a dictionary built by hand) the codes decode through
    ///   the dictionary and the column goes the plain path.
    ///
    /// Row ids are re-densified (0..live_rows); callers holding old row
    /// ids (e.g. join indices) must re-derive them.
    pub fn reorganize(&mut self) {
        // Live positions, split by region: fragment rows, then delta rows
        // relative to the delta (the delete list is sorted).
        let frag = self.frag_rows as u32;
        let (mut frag_live, mut delta_live) = (Vec::new(), Vec::new());
        let mut dels = self.deletes.ids().iter().peekable();
        for r in 0..self.total_rows() as u32 {
            if dels.next_if_eq(&&r).is_some() {
                continue;
            }
            match r.checked_sub(frag) {
                None => frag_live.push(r),
                Some(d) => delta_live.push(d),
            }
        }
        let live = frag_live.len() + delta_live.len();
        let columns = std::mem::take(&mut self.columns);
        for (i, old) in columns.into_iter().enumerate() {
            let mut gathered = Vector::with_capacity(old.data.scalar_type(), live);
            let mut tail = Vector::with_capacity(old.data.scalar_type(), delta_live.len());
            assert!(
                gather_rows(&mut gathered, &old.data, &frag_live, None)
                    && gather_rows(&mut tail, self.inserts.column(i), &delta_live, None),
                "live positions lie inside their region"
            );
            gathered.append_range(&tail, 0, tail.len());
            let (data, dict) = match &old.dict {
                None => (gathered, None),
                Some(d) => match d.merge(&gathered) {
                    Some(enc) => (enc.codes, Some(enc.dict)),
                    None => {
                        let mut values = Vector::with_capacity(d.value_type(), live);
                        assert!(
                            gather_at(&mut values, d.values(), &gathered, None),
                            "codes name dictionary entries"
                        );
                        (values, None)
                    }
                },
            };
            let col = StoredColumn::new(old.field.name, data, dict, old.summary.is_some());
            self.columns.push(col);
        }
        self.frag_rows = live;
        self.deletes.clear();
        self.inserts = empty_delta(&self.columns);
        // The disk checkpoint describes the *old* fragments. Detach
        // until the next durable checkpoint rewrites it.
        self.durable = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_table() -> Table {
        TableBuilder::new("t")
            .column("id", Vector::I64((0..10).collect()))
            .auto_enum_str(
                "flag",
                (0..10)
                    .map(|i| if i % 2 == 0 { "A".into() } else { "B".into() })
                    .collect(),
            )
            .column(
                "price",
                Vector::F64((0..10).map(|i| i as f64 * 1.5).collect()),
            )
            .build()
    }

    #[test]
    fn build_and_inspect() {
        let t = small_table();
        assert_eq!(t.num_columns(), 3);
        assert_eq!(t.fragment_rows(), 10);
        assert_eq!(t.live_rows(), 10);
        assert_eq!(t.column_index("price"), Some(2));
        assert_eq!(t.column_by_name("flag").physical_type(), ScalarType::U8);
        assert_eq!(t.column_by_name("flag").field().logical, ScalarType::Str);
        assert!(t.column_by_name("flag").dict().is_some());
    }

    #[test]
    fn insert_delete_update_lifecycle() {
        let mut t = small_table();
        let id = t.insert(&[Value::I64(100), Value::Str("C".into()), Value::F64(9.9)]);
        assert_eq!(id, 10);
        assert_eq!(t.live_rows(), 11);
        assert_eq!(
            t.get_row(10),
            vec![Value::I64(100), Value::Str("C".into()), Value::F64(9.9)]
        );

        assert!(t.delete(3));
        assert!(!t.delete(3));
        assert_eq!(t.live_rows(), 10);

        let new_id = t
            .update(
                10,
                &[Value::I64(101), Value::Str("D".into()), Value::F64(1.0)],
            )
            .expect("exists");
        assert_eq!(new_id, 11);
        assert_eq!(t.live_rows(), 10);
        assert!(t.update(99, &[]).is_none());
    }

    #[test]
    fn reorganize_applies_deltas() {
        let mut t = small_table();
        t.delete(0);
        t.delete(9);
        t.insert(&[Value::I64(77), Value::Str("B".into()), Value::F64(7.7)]);
        assert!(t.delta_fraction() > 0.0);
        t.reorganize();
        assert_eq!(t.fragment_rows(), 9);
        assert_eq!(t.delta_rows(), 0);
        assert_eq!(t.deletes().len(), 0);
        assert_eq!(t.delta_fraction(), 0.0);
        // Row ids are densified: first live row was old rowid 1.
        assert_eq!(t.get_row(0)[0], Value::I64(1));
        // The inserted row is last and re-encoded into the enum column.
        assert_eq!(
            t.get_row(8),
            vec![Value::I64(77), Value::Str("B".into()), Value::F64(7.7)]
        );
        assert!(
            t.column(1).dict().is_some(),
            "enum column stays enum after reorganize"
        );
    }

    #[test]
    fn reorganize_keeps_nan_and_negative_zero_bit_exact() {
        // An enum f64 column takes a NaN and a -0.0 from the insert
        // delta: no order-preserving, bit-exact code exists for them,
        // so the merged column is stored plain.
        for odd in [f64::NAN, -0.0] {
            let mut t = TableBuilder::new("t")
                .auto_enum_f64("x", vec![0.0, 0.05, 0.0])
                .build();
            assert!(t.column(0).dict().is_some());
            t.insert(&[Value::F64(0.05)]);
            t.insert(&[Value::F64(odd)]);
            // The insert turns the column plain at once, delta included.
            assert!(t.column(0).dict().is_none());
            assert_eq!(t.inserts().column(0).as_f64()[0], 0.05);
            t.reorganize();
            assert!(t.column(0).dict().is_none(), "stays plain");
            let bits: Vec<u64> = t
                .column(0)
                .physical()
                .as_f64()
                .iter()
                .map(|x| x.to_bits())
                .collect();
            assert_eq!(bits, [0.0, 0.05, 0.0, 0.05, odd].map(f64::to_bits));
        }
    }

    #[test]
    fn maybe_reorganize_thresholds() {
        let mut t = small_table();
        t.insert(&[Value::I64(100), Value::Str("A".into()), Value::F64(0.0)]);
        // 1 delta row of 11 total ≈ 9%.
        assert!(!t.maybe_reorganize(0.5), "below threshold: no reorganize");
        assert_eq!(t.delta_rows(), 1);
        assert!(t.maybe_reorganize(0.05), "above threshold: reorganizes");
        assert_eq!(t.delta_rows(), 0);
        assert_eq!(t.fragment_rows(), 11);
    }

    #[test]
    fn summary_survives_reorganize() {
        let mut t = TableBuilder::new("dates")
            .column("d", Vector::I32((0..5000).collect()))
            .with_summary()
            .build();
        assert!(t.column(0).summary().is_some());
        t.insert(&[Value::I32(5000)]);
        t.reorganize();
        let s = t.column(0).summary().expect("rebuilt");
        let (lo, hi) = s.range_candidates(Some(4999), None);
        assert!(lo >= 4000 && hi == 5001);
    }

    #[test]
    fn byte_size_counts_dict_and_deltas() {
        let mut t = small_table();
        let before = t.byte_size();
        t.insert(&[Value::I64(1), Value::Str("Q".into()), Value::F64(0.0)]);
        assert!(t.byte_size() > before);
    }

    /// A fresh directory for one test's durable checkpoint.
    fn scratch_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("x100-table-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn checkpoint_compresses_paying_columns() {
        let mut t = TableBuilder::new("t")
            .column("key", Vector::I64((0..100_000).collect()))
            .column(
                "price",
                Vector::F64((0..100_000).map(|i| (i % 9000) as f64 / 100.0).collect()),
            )
            .build();
        let dir = scratch_dir("compresses");
        let verdicts = t
            .checkpoint_durable(&dir, &DurableOptions::default())
            .expect("durable checkpoint");
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(verdicts.len(), 2);
        assert_eq!(verdicts[0].1, ChunkFormat::PforDelta, "sorted keys");
        assert_eq!(verdicts[1].1, ChunkFormat::Pfor, "cents");
        assert!(verdicts[1].2 < 50);
        // The chunks were the segment's; the table keeps its fragments.
        assert!(t.column(0).compressed().is_none());
        assert_eq!(t.column(1).physical().len(), t.fragment_rows());
    }

    #[test]
    fn checkpoint_enumerates_columns_a_dictionary_compresses_best() {
        let n = 20_000;
        let tags: Vec<&str> = (0..n).map(|i| ["AIR", "MAIL", "SHIP"][i % 3]).collect();
        let roots = |nan: bool| -> Vec<f64> {
            (0..n)
                .map(|i| match i {
                    7 if nan => f64::NAN,
                    _ => ((i % 5) as f64 + 2.0).sqrt(),
                })
                .collect()
        };
        let mut t = TableBuilder::new("t")
            .column("tag", Vector::Str(tags.iter().copied().collect()))
            .column("root", Vector::F64(roots(false)))
            .column("root_nan", Vector::F64(roots(true)))
            .column(
                "key",
                Vector::I64(
                    (0..n)
                        .map(|i| [1_000_000_007, 5, 123_456_789][i % 3])
                        .collect(),
                ),
            )
            .with_summary()
            .build();
        let want: Vec<Vec<Value>> = (0..n as u32).map(|r| t.get_row(r)).collect();
        assert_eq!(t.checkpoint(), ["tag", "root"]);
        // The chunk formats were priced for the three columns whose
        // dictionary pays against raw; the summary column has none.
        assert_eq!(t.codec_sweeps(), 3);
        let tag = t.column(0);
        assert_eq!(tag.physical_type(), ScalarType::U8);
        assert_eq!(tag.field().logical, ScalarType::Str);
        assert_eq!(tag.dict().expect("enumerated").cardinality(), 3);
        assert!(t.column(1).dict().is_some(), "six square roots enumerate");
        assert!(t.column(2).dict().is_none(), "a NaN keeps the column plain");
        assert!(t.column(3).dict().is_none(), "a summary column stays plain");
        let got: Vec<Vec<Value>> = (0..n as u32).map(|r| t.get_row(r)).collect();
        assert_eq!(format!("{got:?}"), format!("{want:?}"));
        // A second checkpoint enumerates nothing more; only the plain
        // column whose dictionary pays is priced again.
        assert!(t.checkpoint().is_empty());
        assert_eq!(t.codec_sweeps(), 4);
    }

    #[test]
    fn inserts_after_a_checkpoint_enumerates_a_column_store_codes() {
        let tags: Vec<&str> = (0..20_000)
            .map(|i| ["AIR", "MAIL", "SHIP"][i % 3])
            .collect();
        let mut t = TableBuilder::new("t")
            .column("tag", Vector::Str(tags.iter().copied().collect()))
            .build();
        // Pending inserts hold values: the checkpoint leaves the column
        // plain until the reorganize that merges them.
        t.insert(&[Value::Str("RAIL".into())]);
        t.checkpoint();
        assert!(t.column(0).dict().is_none());
        t.reorganize();
        t.checkpoint();
        assert!(t.column(0).dict().is_some(), "enumerated");
        t.insert(&[Value::Str("FOB".into())]);
        assert_eq!(t.inserts().column(0), &Vector::U8(vec![4]));
        assert_eq!(t.get_row(20_001)[0], Value::Str("FOB".into()));
    }

    #[test]
    fn codec_sweeps_count_one_per_column_per_durable_commit() {
        let mut t = TableBuilder::new("t")
            .column("key", Vector::I64((0..100_000).collect()))
            .column(
                "price",
                Vector::F64((0..100_000).map(|i| (i % 9000) as f64 / 100.0).collect()),
            )
            .build();
        // 9000 distinct prices: past the dictionary cap, nothing priced.
        assert!(t.checkpoint().is_empty());
        assert_eq!(t.codec_sweeps(), 0);
        let dir = scratch_dir("sweeps");
        let opts = DurableOptions::default();
        t.checkpoint_durable(&dir, &opts).expect("commit");
        assert_eq!(t.codec_sweeps(), 2, "one sweep per column");
        // Nothing is kept between commits: the next one sweeps again.
        t.insert(&[Value::I64(100_000), Value::F64(1.0)]);
        t.checkpoint_durable(&dir, &opts).expect("commit");
        assert_eq!(t.codec_sweeps(), 4);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reorganize_preserves_checkpoint() {
        // What a checkpoint leaves — enumerated columns — survives a
        // reorganize: the dictionary merges, the codes stay codes.
        let tags: Vec<&str> = (0..20_000)
            .map(|i| ["AIR", "MAIL", "SHIP"][i % 3])
            .collect();
        let mut t = TableBuilder::new("t")
            .column("id", Vector::I64((0..20_000).collect()))
            .column("tag", Vector::Str(tags.iter().copied().collect()))
            .build();
        assert_eq!(t.checkpoint(), ["tag"]);
        t.delete(0);
        t.insert(&[Value::I64(50), Value::Str("RAIL".into())]);
        t.reorganize();
        assert_eq!(t.delta_rows(), 0);
        let tag = t.column(1);
        assert_eq!(tag.physical_type(), ScalarType::U8);
        assert_eq!(tag.dict().expect("still enumerated").cardinality(), 4);
        assert_eq!(t.get_row(0)[1], Value::Str("MAIL".into()));
        assert_eq!(t.get_row(19_999)[1], Value::Str("RAIL".into()));
        // Never-checkpointed tables are not enumerated by a reorganize.
        let mut u = small_table();
        u.insert(&[Value::I64(11), Value::Str("B".into()), Value::F64(1.0)]);
        u.reorganize();
        assert!(u.column(0).dict().is_none());
    }

    #[test]
    fn stats_cover_fragment_and_delta() {
        let mut t = small_table();
        let id = t.column_stats(0);
        assert_eq!(id.min, Some(Value::I64(0)));
        assert_eq!(id.max, Some(Value::I64(9)));
        assert!(id.sorted);
        // Enum stats cover the physical codes ("A"/"B" → 0/1).
        let flag = t.column_stats(1);
        assert_eq!(flag.min, Some(Value::U8(0)));
        assert_eq!(flag.max, Some(Value::U8(1)));
        // Deletes change nothing: the visible rows are a subset.
        t.delete(3);
        assert_eq!(t.column_stats(0), id);
        // An appended key above the fragment's keeps the order.
        t.insert(&[Value::I64(999), Value::Str("C".into()), Value::F64(0.0)]);
        let id = t.column_stats(0);
        assert_eq!((&id.max, id.sorted), (&Some(Value::I64(999)), true));
        // The delta's code for "C" is past the fragment's.
        assert_eq!(t.column_stats(1).max, Some(Value::U8(2)));
        // One below it does not.
        t.insert(&[Value::I64(5), Value::Str("A".into()), Value::F64(0.0)]);
        let id = t.column_stats(0);
        assert_eq!((&id.max, id.sorted), (&Some(Value::I64(999)), false));
        // Reorganize merges deltas and recomputes the same bounds.
        t.reorganize();
        assert_eq!(t.column_stats(0), id);
    }

    #[test]
    fn inserts_store_enum_codes() {
        let mut t = small_table();
        t.insert(&[Value::I64(10), Value::Str("B".into()), Value::F64(1.0)]);
        // A value the dictionary lacks takes the next code.
        t.insert(&[Value::I64(11), Value::Str("AA".into()), Value::F64(1.0)]);
        assert_eq!(t.inserts().column(1), &Vector::U8(vec![1, 2]));
        assert_eq!(t.column(1).dict().expect("enum").cardinality(), 3);
        assert_eq!(t.get_row(11)[1], Value::Str("AA".into()));
        // The merge ranks it between "A" and "B".
        t.reorganize();
        let dict = t.column(1).dict().expect("enum");
        assert_eq!(
            dict.values(),
            &Vector::Str(["A", "AA", "B"].into_iter().collect())
        );
        assert_eq!(t.get_row(11)[1], Value::Str("AA".into()));
        assert_eq!(t.get_row(10)[1], Value::Str("B".into()));
    }

    #[test]
    fn a_257th_entry_widens_the_codes_in_place() {
        let tags = |n: usize| (0..n).map(|i| format!("t{i:03}")).collect::<Vec<_>>();
        let mut t = TableBuilder::new("t").auto_enum_str("s", tags(256)).build();
        t.checkpoint();
        t.insert(&[Value::Str("t000".into())]);
        assert_eq!(t.column(0).physical_type(), ScalarType::U8);
        t.insert(&[Value::Str("t256".into())]);
        assert_eq!(t.column(0).physical_type(), ScalarType::U16);
        assert_eq!(t.inserts().column(0), &Vector::U16(vec![0, 256]));
        assert_eq!(t.column_stats(0).max, Some(Value::U16(256)));
        assert_eq!(t.get_row(255)[0], Value::Str("t255".into()));
        assert_eq!(t.get_row(257)[0], Value::Str("t256".into()));
        t.reorganize();
        let mut all = tags(257);
        all.insert(256, "t000".into());
        let fresh = TableBuilder::new("t").auto_enum_str("s", all).build();
        assert_eq!(t.column(0).physical(), fresh.column(0).physical());
        assert_eq!(
            t.column(0).dict().map(EnumDict::values),
            fresh.column(0).dict().map(EnumDict::values)
        );
    }

    #[test]
    fn stats_edge_cases() {
        let empty = ColumnStats::compute(&Vector::I32(vec![]));
        assert_eq!(empty.min, None);
        assert!(empty.sorted);
        let nan = ColumnStats::compute(&Vector::F64(vec![1.0, f64::NAN]));
        assert_eq!(nan.min, None);
        assert!(!nan.sorted);
        let f = ColumnStats::compute(&Vector::F64(vec![2.5, 1.5, 3.5]));
        assert_eq!(f.min, Some(Value::F64(1.5)));
        assert_eq!(f.max, Some(Value::F64(3.5)));
        assert!(!f.sorted);
    }

    #[test]
    #[should_panic(expected = "vector-only")]
    fn bool_columns_are_refused() {
        TableBuilder::new("t").column("b", Vector::Bool(vec![true]));
    }

    #[test]
    #[should_panic]
    fn get_deleted_row_panics() {
        let mut t = small_table();
        t.delete(2);
        t.get_row(2);
    }
}
