//! Delta structures: updates without touching immutable fragments.
//!
//! Paper §4.3 / Figure 8: vertical fragments are immutable objects.
//! *Deletes* add the tuple id to a deletion list; *inserts* append to
//! separate, uncompressed delta columns (stored together chunk-wise,
//! which equates PAX — here: parallel [`Vector`] appenders); an
//! *update* is a delete followed by an insert. When the deltas exceed a
//! small percentile of the table, storage is reorganized
//! ([`crate::table::Table::reorganize`]) and the deltas become empty.
//!
//! A delta column holds what its fragment holds: values for a plain
//! column, and for an enum column its codes, of the fragment's width,
//! into the column's dictionary (`Table::insert` encodes each value as
//! it arrives). Codes are still uncompressed — one code per row, never
//! a chunk format.

use x100_vector::{ScalarType, Value, Vector};

/// The deletion list: row ids (into the *stable* row id space:
/// fragment rows first, then delta rows) that are deleted.
#[derive(Debug, Clone, Default)]
pub struct DeleteList {
    /// Sorted row ids.
    ids: Vec<u32>,
}

impl DeleteList {
    /// Mark `rowid` deleted. Returns `false` if it already was.
    pub fn delete(&mut self, rowid: u32) -> bool {
        match self.ids.binary_search(&rowid) {
            Ok(_) => false,
            Err(pos) => {
                self.ids.insert(pos, rowid);
                true
            }
        }
    }

    /// True if `rowid` is deleted.
    #[inline]
    pub fn contains(&self, rowid: u32) -> bool {
        self.ids.binary_search(&rowid).is_ok()
    }

    /// Number of deleted rows.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True if nothing is deleted.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The deleted row ids, sorted ascending.
    pub fn ids(&self) -> &[u32] {
        &self.ids
    }

    /// Count deleted row ids inside `[start, end)` and append their
    /// positions relative to `start` — used by scans to build the live
    /// selection for a vector-sized range.
    pub fn deleted_in_range(&self, start: u32, end: u32, out: &mut Vec<u32>) {
        let lo = self.ids.partition_point(|&id| id < start);
        let hi = self.ids.partition_point(|&id| id < end);
        out.extend(self.ids[lo..hi].iter().map(|&id| id - start));
    }

    /// Drop all entries (after a reorganize).
    pub fn clear(&mut self) {
        self.ids.clear();
    }
}

/// Append-only insert deltas: one uncompressed column per table column,
/// of the fragment's physical type.
///
/// Delta columns are never compressed (paper: "updates just go to the
/// delta columns (which are never compressed) and do not complicate the
/// compression scheme").
#[derive(Debug, Clone)]
pub struct InsertDelta {
    cols: Vec<Vector>,
    rows: usize,
}

impl InsertDelta {
    /// Empty deltas for a table with the given physical column types.
    ///
    /// # Panics
    /// Panics on `Bool`, a vector-only type (store it as `U8`).
    pub fn new(types: &[ScalarType]) -> Self {
        assert!(
            !types.contains(&ScalarType::Bool),
            "Bool is a vector-only type; store as U8"
        );
        InsertDelta {
            cols: types.iter().map(|&t| Vector::with_capacity(t, 0)).collect(),
            rows: 0,
        }
    }

    /// Append one row of physical values.
    ///
    /// # Panics
    /// Panics if `row` arity or types mismatch.
    pub fn append(&mut self, row: &[Value]) {
        assert_eq!(row.len(), self.cols.len(), "row arity mismatch");
        for (i, v) in row.iter().enumerate() {
            self.push(i, v);
        }
        self.end_row();
    }

    /// Append `v` to column `i` of the row being added.
    pub(crate) fn push(&mut self, i: usize, v: &Value) {
        self.cols[i].push_value(v);
    }

    /// Append enum code `code` to column `i` (of `U8` or `U16` codes) of
    /// the row being added.
    pub(crate) fn push_code(&mut self, i: usize, code: usize) {
        match &mut self.cols[i] {
            Vector::U8(c) => c.push(code as u8),
            Vector::U16(c) => c.push(code as u16),
            other => panic!("enum codes of type {:?}", other.scalar_type()),
        }
    }

    /// Close the row every column has had its value pushed for.
    pub(crate) fn end_row(&mut self) {
        self.rows += 1;
    }

    /// Number of delta rows.
    pub fn len(&self) -> usize {
        self.rows
    }

    /// True if no rows were inserted.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// The delta column for table column `i`.
    pub fn column(&self, i: usize) -> &Vector {
        &self.cols[i]
    }

    /// Replace column `i` by the same rows in another form (an enum
    /// column's codes widened or decoded).
    pub(crate) fn replace_column(&mut self, i: usize, col: Vector) {
        assert_eq!(col.len(), self.rows, "a delta column of every row");
        self.cols[i] = col;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delete_list_dedups_and_sorts() {
        let mut dl = DeleteList::default();
        assert!(dl.delete(5));
        assert!(dl.delete(1));
        assert!(!dl.delete(5));
        assert_eq!(dl.ids(), &[1, 5]);
        assert!(dl.contains(1));
        assert!(!dl.contains(2));
        assert_eq!(dl.len(), 2);
    }

    #[test]
    fn deleted_in_range_relative_positions() {
        let mut dl = DeleteList::default();
        for id in [3, 10, 11, 25] {
            dl.delete(id);
        }
        let mut out = Vec::new();
        dl.deleted_in_range(10, 20, &mut out);
        assert_eq!(out, vec![0, 1]);
        out.clear();
        dl.deleted_in_range(0, 5, &mut out);
        assert_eq!(out, vec![3]);
        out.clear();
        dl.deleted_in_range(26, 100, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn insert_delta_appends() {
        let mut d = InsertDelta::new(&[ScalarType::I32, ScalarType::Str]);
        d.append(&[Value::I32(1), Value::Str("a".into())]);
        d.append(&[Value::I32(2), Value::Str("b".into())]);
        assert_eq!(d.len(), 2);
        assert_eq!(d.column(0).get_value(1), Value::I32(2));
        assert_eq!(d.column(1).get_value(0), Value::Str("a".into()));
    }

    #[test]
    #[should_panic(expected = "vector-only")]
    fn bool_deltas_are_refused() {
        InsertDelta::new(&[ScalarType::I32, ScalarType::Bool]);
    }

    #[test]
    #[should_panic]
    fn arity_mismatch_panics() {
        let mut d = InsertDelta::new(&[ScalarType::I32]);
        d.append(&[Value::I32(1), Value::I32(2)]);
    }
}
