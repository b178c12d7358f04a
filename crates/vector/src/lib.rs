//! # x100-vector — vectorized execution primitives
//!
//! The foundation of this MonetDB/X100 (CIDR 2005) reproduction: typed
//! [`Vector`]s, [`SelVec`] selection vectors, and the full family of
//! vectorized execution primitives the paper describes in §4.2 —
//! `map_*` (expression maps), `select_*` (predicates → selection
//! vectors, in both *branch* and *predicated* shapes, Fig. 2), `aggr_*`
//! (aggregate updates), `map_fetch_*` (positional gathers), hash /
//! direct-group maps, and fused *compound* primitives.
//!
//! Design rules, straight from the paper:
//!
//! 1. Primitives process a whole vector per call so the per-call overhead
//!    amortizes and the compiler can loop-pipeline / auto-vectorize the
//!    body (the Rust equivalent of `restrict` arrays: iterator zips over
//!    disjoint slices).
//! 2. Every primitive takes `Option<&SelVec>`; results are written **at
//!    the selected positions** of the output vector, so a selection never
//!    copies column data.
//! 3. Primitive *patterns* are generic functions; concrete instances are
//!    macro-generated per signature and cataloged in the
//!    [`PrimitiveRegistry`].
#![deny(clippy::unwrap_used)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod aggr;
pub mod compound;
pub mod compress;
pub mod fetch;
pub mod group;
pub mod hash;
pub mod map;
pub mod registry;
pub mod sel;
pub mod select;
pub mod types;
pub mod vector;

pub use group::{GroupTable, ProbeScratch};
pub use map::CmpOp;
pub use registry::{
    parse_signature, ArgTy, FactTransfer, OutTy, PrimitiveDesc, PrimitiveKind, PrimitiveRegistry,
    SigInfo, VecShape,
};
pub use sel::SelVec;
pub use select::SelectStrategy;
pub use types::{date, ScalarType, Value};
pub use vector::{StrVec, Vector, DEFAULT_VECTOR_SIZE};
