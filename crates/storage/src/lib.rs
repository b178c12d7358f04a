//! # x100-storage — vertically fragmented columnar storage
//!
//! The storage layer of the MonetDB/X100 reproduction (paper §4.3):
//!
//! * [`Table`] / [`TableBuilder`] — schemas over immutable vertical
//!   fragments (`BAT[void,T]`: virtual dense `#rowId` head, value tail),
//!   with delta-based updates: a [`DeleteList`] plus uncompressed
//!   [`InsertDelta`] columns, merged back by [`Table::reorganize`].
//!   A fragment, a delta column and a dictionary are each an
//!   [`x100_vector::Vector`] — the operators' own buffer type, so
//!   storage and engine read them with the same gather
//!   ([`x100_vector::fetch::gather_rows`]); `Bool` is vector-only and
//!   never stored.
//! * [`EnumDict`] & the `encode_*` helpers — enumeration types: one- or
//!   two-byte codes referencing a mapping table, decompressed on use via
//!   an automatically inserted `Fetch1Join` (done by the engine crate).
//!   Built by hand, or by [`Table::checkpoint`] where a dictionary beats
//!   every chunk format.
//! * [`CompressedColumn`] & [`choose_and_compress`] — PFOR / PFOR-DELTA
//!   chunks, the durable encoding of a fragment: a durable checkpoint
//!   writes them into its segments and `open` decodes them back; no
//!   chunk stays resident.
//! * [`SummaryIndex`] — coarse running-max / reverse-running-min
//!   indices for `#rowId` range derivation on clustered columns.
//! * [`FaultPlan`] / [`FaultState`] — per-query fault injection at the
//!   storage sites ([`FaultSite`]) with bounded-backoff retry.
#![deny(clippy::unwrap_used)]
#![cfg_attr(test, allow(clippy::unwrap_used))]
#![forbid(unsafe_code)]

pub mod compress;
pub mod delta;
pub mod durable;
pub mod enumcol;
pub mod fault;
pub mod frame;
pub mod morsel;
pub mod summary;
pub mod table;

pub use compress::{
    choose_and_compress, compress_column_as, dictionary_beats, dictionary_bytes, dictionary_wins,
    ChunkFormat, ChunkHeader, CompressedColumn, CHUNK_ROWS, HEADER_BYTES,
};
pub use delta::{DeleteList, InsertDelta};
pub use durable::{DurableError, DurableOptions, DurableSource};
pub use enumcol::{encode, encode_f64, encode_i64, encode_str, Encoded, EnumDict, MAX_ENUM_CARD};
pub use fault::{
    retry_with_backoff, FaultPlan, FaultSite, FaultState, StorageFaultError, TornWrite,
};
pub use frame::fold_checksum;
pub use morsel::{plan_morsels, Morsel};
pub use summary::{SummaryIndex, DEFAULT_GRANULARITY};
pub use table::{ColumnStats, Field, StoredColumn, Table, TableBuilder, Verdicts};
