//! # x100-storage — vertically fragmented columnar storage
//!
//! The storage layer of the MonetDB/X100 reproduction (paper §4.3):
//!
//! * [`ColumnData`] — immutable vertical fragments (`BAT[void,T]`:
//!   virtual dense `#rowId` head, value tail).
//! * [`Table`] / [`TableBuilder`] — schemas over fragments, with
//!   delta-based updates: a [`DeleteList`] plus uncompressed
//!   [`InsertDelta`] columns, merged back by [`Table::reorganize`].
//! * [`EnumDict`] & the `encode_*` helpers — enumeration types: one- or
//!   two-byte codes referencing a mapping table, decompressed on use via
//!   an automatically inserted `Fetch1Join` (done by the engine crate).
//! * [`SummaryIndex`] — coarse running-max / reverse-running-min
//!   indices for `#rowId` range derivation on clustered columns.
//! * [`ColumnBM`] — a simulation of the chunked column buffer manager,
//!   accounting chunk loads, cache hits and bandwidth amplification.
#![deny(clippy::unwrap_used)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod column;
pub mod columnbm;
pub mod compress;
pub mod delta;
pub mod durable;
pub mod enumcol;
pub mod frame;
pub mod morsel;
pub mod summary;
pub mod table;

pub use column::ColumnData;
pub use columnbm::{
    retry_with_backoff, BmStats, ChunkReadError, ColumnBM, FaultPlan, FaultSite, FaultState,
    PinnedFault, StorageFaultError, TornWrite, DEFAULT_CHUNK_BYTES,
};
pub use compress::{
    choose_and_compress, compress_column_as, ChunkFormat, ChunkHeader, CompressedColumn,
    DecodeCursor, DecodeStats, PushOp, Pushdown, CHUNK_ROWS, HEADER_BYTES,
};
pub use delta::{DeleteList, InsertDelta};
pub use durable::{DurableError, DurableOptions, DurableSource};
pub use enumcol::{encode_f64, encode_i64, encode_str, Encoded, EnumDict, MAX_ENUM_CARD};
pub use frame::fold_checksum;
pub use morsel::{plan_morsels, Morsel};
pub use summary::{SummaryIndex, DEFAULT_GRANULARITY};
pub use table::{ColumnStats, Field, StoredColumn, Table, TableBuilder};
