//! # monetdb-x100 — a Rust reproduction of *MonetDB/X100: Hyper-Pipelining
//! # Query Execution* (Boncz, Zukowski, Nes; CIDR 2005)
//!
//! This façade crate re-exports the workspace members:
//!
//! * [`vector`] — typed vectors, selection vectors, and vectorized
//!   execution primitives (`map_*`, `select_*`, `aggr_*`, fetch, hash,
//!   compound).
//! * [`storage`] — vertically fragmented columnar storage: immutable
//!   fragments, delta updates, enumeration types, summary indices and
//!   durable checkpoints whose segments hold compressed chunks.
//! * [`engine`] — the X100 query engine itself: relational algebra
//!   operators over a Volcano-style *vector-at-a-time* pipeline, an
//!   expression compiler targeting the primitives, and per-primitive
//!   profiling.
//! * [`mil`] — the MonetDB/MIL column-at-a-time baseline (full
//!   materialization, bandwidth tracing).
//! * [`volcano`] — the tuple-at-a-time baseline (NSM records, interpreted
//!   expressions, per-routine profiling).
//! * [`tpch`] — a deterministic TPC-H generator plus query plans for all
//!   engines, including the paper's hard-coded Q1 UDF.
//!
//! See `README.md` for a quickstart, `DESIGN.md` for the system
//! inventory, and `EXPERIMENTS.md` for paper-vs-measured results.

pub use monet_mil as mil;
pub use tpch;
pub use volcano;
pub use x100_engine as engine;
pub use x100_storage as storage;
pub use x100_vector as vector;
