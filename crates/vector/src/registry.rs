//! The primitive registry: a catalog of all vectorized primitives.
//!
//! The paper's X100 generates "hundreds of vectorized primitives … from
//! primitive patterns" plus "signature requests", and dispatches on
//! signature strings like `map_add_flt_col_flt_col` (§4.2). This module
//! is the catalog side of that machinery: every primitive instance the
//! engine can emit is described here, so that
//!
//! * the engine's expression compiler can record which primitive each
//!   compiled instruction corresponds to (Table 5 traces),
//! * the engine's bind-time verifier (`engine::check`) can type-check
//!   every compiled primitive program against the catalog,
//! * extension developers can see the full primitive surface, and
//! * tests can verify that every instruction the engine emits maps to a
//!   registered primitive.
//!
//! Every descriptor carries machine-readable typing ([`SigInfo`]):
//! input types and shapes, output type, selection-vector behaviour, and
//! fusability. The typing is *derived from the signature string itself*
//! by [`parse_signature`] — the same grammar the kernel-instantiating
//! macros follow — so the catalog cannot drift from the code: a
//! signature that fails to parse panics at registry construction, and
//! `cargo xtask lint` cross-checks exported kernel symbols against the
//! catalog.

use crate::types::ScalarType;
use std::collections::BTreeMap;

/// The family a primitive belongs to (paper §4.2's `map_*`, `select_*`,
/// `aggr_*` groups, plus fetches and compounds).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum PrimitiveKind {
    /// Expression-calculation map (`map_*`).
    Map,
    /// Selection primitive producing a selection vector (`select_*`).
    Select,
    /// Aggregate update (`aggr_*`).
    Aggr,
    /// Positional gather (`map_fetch_*`).
    Fetch,
    /// Hash / rehash / direct-group maps.
    Hash,
    /// Fused compound primitive for an expression sub-tree.
    Compound,
    /// Chunk codec half: `compress_*` / `decompress_*` (PFOR, PDICT,
    /// PFOR-DELTA — paper §4.3/§5 lightweight compression).
    Compress,
}

/// Shape of one primitive argument: a full column vector or a broadcast
/// scalar constant (the paper's `_col` / `_val` signature suffixes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VecShape {
    /// One value per (selected) position.
    Col,
    /// A single constant broadcast over the vector.
    Val,
}

/// One typed argument of a primitive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArgTy {
    /// Element type.
    pub ty: ScalarType,
    /// Column or broadcast constant.
    pub shape: VecShape,
}

impl ArgTy {
    /// A column argument of type `ty`.
    pub fn col(ty: ScalarType) -> Self {
        ArgTy {
            ty,
            shape: VecShape::Col,
        }
    }

    /// A broadcast-constant argument of type `ty`.
    pub fn val(ty: ScalarType) -> Self {
        ArgTy {
            ty,
            shape: VecShape::Val,
        }
    }
}

/// What a primitive produces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutTy {
    /// A dense/positional result vector of the given type.
    Vec(ScalarType),
    /// A selection vector (positions of qualifying tuples).
    Sel,
    /// In-place state update (aggregate tables, compressed chunks) —
    /// no result vector flows downstream.
    State,
    /// Polymorphic output (e.g. `map_fill_const` broadcasts any type).
    Poly,
}

/// How a primitive transforms abstract value facts — the transfer
/// function `engine::facts` applies when it interprets a compiled
/// program over abstract column states (value ranges, sortedness,
/// distinct bounds). Declared here, in the same grammar-derived catalog
/// as the rest of [`SigInfo`], so the analyzer and the registry cannot
/// drift: `cargo xtask lint` (rule 7) requires every registered
/// primitive to either declare a modeled transfer or opt out by name
/// via [`FactTransfer::Opaque`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FactTransfer {
    /// Interval arithmetic over the operand ranges (add/sub/mul/div and
    /// the fused `(v ± a) * b` compounds). Potential overflow of the
    /// result type widens to ⊤.
    Interval,
    /// Comparison producing a boolean in `[0, 1]`; constant-folds when
    /// the operand ranges are disjoint or fully ordered.
    Compare,
    /// Boolean algebra over `[0, 1]` operands (and/or/not).
    Logic,
    /// Broadcast of a literal: a singleton range.
    Fill,
    /// Widening cast: the input range carries over to the target type.
    Cast,
    /// Monotone scalar map: the endpoints of the input range map to the
    /// endpoints of the output range (e.g. `map_year_i32_col`).
    Monotone,
    /// Positional gather: the output range is the gathered column's
    /// range (the index range is what the fetch-bounds proof checks).
    Fetch,
    /// Output covers the full domain of its type (hash / rehash).
    Domain,
    /// Valid-position output: a permutation or group index in
    /// `[0, n)` (sorts, direct grouping, group-table probes).
    Positions,
    /// Produces a selection vector: downstream facts are refined (a
    /// subset of positions survives), never widened.
    Refine,
    /// Codec round trip: values pass through unchanged (decompress and
    /// selective-decode gathers).
    Passthrough,
    /// Aggregate-state update: folded by the aggregation transfer at
    /// the plan node (sum/min/max/count range algebra).
    Aggregate,
    /// Side-effecting state sink (compress): no value facts flow
    /// downstream.
    Sink,
    /// Explicitly unmodeled: facts widen to ⊤. Every `Opaque` primitive
    /// must appear in the xtask lint allowlist — no silent defaults.
    Opaque,
}

/// Machine-readable typing of one primitive signature.
///
/// Derived from the signature grammar by [`parse_signature`]; stored on
/// every [`PrimitiveDesc`] so bind-time verification and the custom
/// lints need no second source of truth.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SigInfo {
    /// Typed inputs, in signature order.
    pub inputs: Vec<ArgTy>,
    /// Result kind.
    pub output: OutTy,
    /// Whether the kernel honors an incoming selection vector
    /// (`Option<&SelVec>` parameter). `false` marks *dense-only*
    /// position-dependent kernels (chunk codecs, sort permutation,
    /// hash-table maintenance) that must never run under a selection.
    pub consumes_sel: bool,
    /// Whether the kernel's output is a selection vector. Only a
    /// predicate root may produce one; the verifier rejects programs
    /// that feed a selection where a dense vector is required.
    pub produces_sel: bool,
    /// Whether the compound-fusion rewrite may absorb this primitive
    /// into a fused loop (§4.2).
    pub fusable: bool,
    /// Whether the operator state this primitive maintains can degrade
    /// to disk under memory pressure (`engine::spill`). Only stateful
    /// buffering kernels (hash-table maintenance, sort permutation)
    /// spill; streaming primitives are bounded by the vector size and
    /// never need to.
    pub spills: bool,
    /// The abstract transfer function `engine::facts` applies for this
    /// primitive (see [`FactTransfer`]).
    pub transfer: FactTransfer,
}

impl SigInfo {
    /// Number of inputs.
    pub fn arity(&self) -> usize {
        self.inputs.len()
    }
}

/// Description of one registered primitive instance.
#[derive(Debug, Clone)]
pub struct PrimitiveDesc {
    /// Unique signature, e.g. `map_add_f64_col_f64_col`.
    pub signature: &'static str,
    /// Family.
    pub kind: PrimitiveKind,
    /// One-line description.
    pub doc: &'static str,
    /// Machine-readable typing derived from the signature.
    pub info: SigInfo,
}

/// Parse a type token of the signature grammar.
fn ty_token(tok: &str) -> Option<ScalarType> {
    Some(match tok {
        "i8" => ScalarType::I8,
        "i16" => ScalarType::I16,
        "i32" => ScalarType::I32,
        "i64" => ScalarType::I64,
        "u8" => ScalarType::U8,
        "u16" => ScalarType::U16,
        "u32" => ScalarType::U32,
        "u64" => ScalarType::U64,
        "f64" => ScalarType::F64,
        "bool" => ScalarType::Bool,
        "str" => ScalarType::Str,
        // The paper's direct-group index type: a u32 group cursor.
        "uidx" => ScalarType::U32,
        _ => return None,
    })
}

fn shape_token(tok: &str) -> Option<VecShape> {
    match tok {
        "col" => Some(VecShape::Col),
        "val" => Some(VecShape::Val),
        _ => None,
    }
}

/// Parse a `<ty>_<shape>[_<shape>]…` suffix: a list of typed args where
/// a bare shape token reuses the preceding type (the generator's
/// shorthand `map_eq_u8_col_val` ≡ `map_eq_u8_col_u8_val`).
fn parse_args(toks: &[&str]) -> Result<Vec<ArgTy>, String> {
    let mut args = Vec::new();
    let mut i = 0;
    let mut last_ty: Option<ScalarType> = None;
    while i < toks.len() {
        let ty = match ty_token(toks[i]) {
            Some(t) => {
                i += 1;
                last_ty = Some(t);
                t
            }
            None => last_ty.ok_or_else(|| format!("expected type token, got `{}`", toks[i]))?,
        };
        let shape = toks.get(i).and_then(|t| shape_token(t)).ok_or_else(|| {
            format!(
                "missing col/val shape token after type in `{}`",
                toks.join("_")
            )
        })?;
        i += 1;
        args.push(ArgTy { ty, shape });
    }
    Ok(args)
}

const ARITH_OPS: [&str; 4] = ["add", "sub", "mul", "div"];
const CMP_OPS: [&str; 6] = ["eq", "ne", "lt", "le", "gt", "ge"];

/// Derive the machine-readable typing of a signature string.
///
/// This is the single definition of the signature grammar the primitive
/// generator follows. Regular families (arith / comparison / cast /
/// fetch / hash / aggregate-update signatures) parse structurally; the
/// small set of irregular kernel names (sorts, direct grouping,
/// compounds) is typed explicitly here.
/// Unknown shapes are an error — the registry panics on them at
/// construction, so a new primitive cannot be cataloged without also
/// extending the grammar.
pub fn parse_signature(sig: &str) -> Result<SigInfo, String> {
    let dense = |inputs: Vec<ArgTy>, output: OutTy, transfer: FactTransfer| SigInfo {
        inputs,
        output,
        consumes_sel: false,
        produces_sel: false,
        fusable: false,
        spills: false,
        transfer,
    };
    let selful = |inputs: Vec<ArgTy>, output: OutTy, transfer: FactTransfer| SigInfo {
        inputs,
        output,
        consumes_sel: true,
        produces_sel: output == OutTy::Sel,
        fusable: false,
        spills: false,
        transfer,
    };
    use FactTransfer as T;
    use ScalarType::*;

    // Irregular signatures first: explicit typing.
    match sig {
        "select_true_bool_col" => return Ok(selful(vec![ArgTy::col(Bool)], OutTy::Sel, T::Refine)),
        "select_eq_str_col_val" => {
            return Ok(selful(
                vec![ArgTy::col(Str), ArgTy::val(Str)],
                OutTy::Sel,
                T::Refine,
            ))
        }
        "map_and_bool_col" | "map_or_bool_col" => {
            return Ok(selful(
                vec![ArgTy::col(Bool), ArgTy::col(Bool)],
                OutTy::Vec(Bool),
                T::Logic,
            ))
        }
        "map_not_bool_col" => {
            return Ok(selful(vec![ArgTy::col(Bool)], OutTy::Vec(Bool), T::Logic))
        }
        "map_fill_const" => return Ok(selful(vec![], OutTy::Poly, T::Fill)),
        "map_year_i32_col" => {
            return Ok(selful(vec![ArgTy::col(I32)], OutTy::Vec(I32), T::Monotone))
        }
        "map_contains_str_col_val" => {
            return Ok(selful(
                vec![ArgTy::col(Str), ArgTy::val(Str)],
                OutTy::Vec(Bool),
                T::Compare,
            ))
        }
        "aggr_count_u32_col" => {
            return Ok(selful(vec![ArgTy::col(U32)], OutTy::State, T::Aggregate))
        }
        "aggr_avg_epilogue" => {
            // Opaque (allowlisted): the plan-level aggregation transfer
            // models avg directly; the epilogue kernel itself is not
            // interpreted abstractly.
            return Ok(dense(
                vec![ArgTy::col(F64), ArgTy::col(I64)],
                OutTy::Vec(F64),
                T::Opaque,
            ));
        }
        "aggr_hashtable_maintain" => {
            // Unbounded state: the table spills cold radix partitions
            // to disk runs when the memory budget is exhausted.
            let mut s = dense(vec![ArgTy::col(U64)], OutTy::State, T::Aggregate);
            s.spills = true;
            return Ok(s);
        }
        "aggr_ordered_starts_u32_col" => {
            // Group-id column in, the positions that open a group out.
            return Ok(selful(vec![ArgTy::col(U32)], OutTy::Vec(U32), T::Positions));
        }
        "sort_permutation" => {
            // Unbounded buffering: Order/TopN degrades to an external
            // merge sort over spilled sorted runs under pressure.
            let mut s = dense(vec![], OutTy::Vec(U32), T::Positions);
            s.spills = true;
            return Ok(s);
        }
        "map_uidx_u8_col" | "map_directgrp_u8_col" => {
            return Ok(selful(vec![ArgTy::col(U8)], OutTy::Vec(U32), T::Positions))
        }
        "map_uidx_u16_col" | "map_directgrp_u16_col" => {
            return Ok(selful(vec![ArgTy::col(U16)], OutTy::Vec(U32), T::Positions))
        }
        "aggr_grouptable_probe_u64_col" | "aggr_grouptable_reprobe_u64_col" => {
            // Hash column in, candidate group ids out; driven by
            // position lists, never by a selection vector.
            return Ok(dense(vec![ArgTy::col(U64)], OutTy::Vec(U32), T::Positions));
        }
        "map_directgrp_u8_chain" | "map_directgrp_uidx_col_u8_col" => {
            return Ok(selful(
                vec![ArgTy::col(U32), ArgTy::col(U8)],
                OutTy::Vec(U32),
                T::Positions,
            ))
        }
        "map_directgrp_u16_chain" | "map_directgrp_uidx_col_u16_col" => {
            return Ok(selful(
                vec![ArgTy::col(U32), ArgTy::col(U16)],
                OutTy::Vec(U32),
                T::Positions,
            ))
        }
        "map_fused_sub_f64_val_f64_col_mul_f64_col"
        | "map_fused_add_f64_val_f64_col_mul_f64_col" => {
            let mut s = selful(
                vec![ArgTy::val(F64), ArgTy::col(F64), ArgTy::col(F64)],
                OutTy::Vec(F64),
                T::Interval,
            );
            s.fusable = true;
            return Ok(s);
        }
        "map_fused_mahalanobis_f64_col" | "map_chained_mahalanobis_f64_col" => {
            // Opaque (allowlisted): the three-column benchmark compound
            // is not worth modeling — its result widens to ⊤.
            let mut s = selful(
                vec![ArgTy::col(F64), ArgTy::col(F64), ArgTy::col(F64)],
                OutTy::Vec(F64),
                T::Opaque,
            );
            s.fusable = sig.starts_with("map_fused");
            return Ok(s);
        }
        _ => {}
    }

    // Regular grammar: `<family>_<op>_<args…>`.
    let toks: Vec<&str> = sig.split('_').collect();
    if toks.len() < 3 {
        return Err(format!("signature `{sig}` too short"));
    }
    let (family, op, rest) = (toks[0], toks[1], &toks[2..]);
    match (family, op) {
        ("map", "cast") => {
            // map_cast_<from>_<to>_col
            let [from, to, shape] = rest else {
                return Err(format!("cast signature `{sig}` malformed"));
            };
            let from = ty_token(from).ok_or_else(|| format!("bad cast source in `{sig}`"))?;
            let to = ty_token(to).ok_or_else(|| format!("bad cast target in `{sig}`"))?;
            if shape_token(shape) != Some(VecShape::Col) {
                return Err(format!("cast signature `{sig}` must end in _col"));
            }
            Ok(selful(vec![ArgTy::col(from)], OutTy::Vec(to), T::Cast))
        }
        ("map", "fetch") => {
            // map_fetch_<idx>_col_<val>_col[_unchecked]: gathers `<val>`
            // by `<idx>` positions; the trailing pair names the *output*.
            // The `_unchecked` twin elides per-element bounds checks and
            // may only be dispatched when `engine::facts` proves the
            // index range in-bounds.
            let (rest, unchecked) = match rest.split_last() {
                Some((&"unchecked", head)) => (head, true),
                _ => (rest, false),
            };
            let args = parse_args(rest)?;
            let [idx, out] = args.as_slice() else {
                return Err(format!("fetch signature `{sig}` needs 2 typed args"));
            };
            if !idx.ty.is_integer() {
                return Err(format!("fetch index type must be integral in `{sig}`"));
            }
            if unchecked && (idx.ty != ScalarType::U32 || out.ty == Str) {
                return Err(format!(
                    "unchecked gathers are u32-indexed and numeric-valued: `{sig}`"
                ));
            }
            Ok(selful(vec![*idx], OutTy::Vec(out.ty), T::Fetch))
        }
        ("map", "hash") | ("map", "rehash") => {
            let args = parse_args(rest)?;
            let [key] = args.as_slice() else {
                return Err(format!("hash signature `{sig}` needs 1 typed arg"));
            };
            let mut inputs = vec![*key];
            if op == "rehash" {
                // Rehash folds a new key column into existing hashes.
                inputs.insert(0, ArgTy::col(ScalarType::U64));
            }
            Ok(selful(inputs, OutTy::Vec(ScalarType::U64), T::Domain))
        }
        ("map", a) if ARITH_OPS.contains(&a) => {
            let args = parse_args(rest)?;
            if args.len() != 2 || args[0].ty != args[1].ty {
                return Err(format!("arith signature `{sig}` needs 2 same-typed args"));
            }
            let mut s = selful(args.clone(), OutTy::Vec(args[0].ty), T::Interval);
            s.fusable = true;
            Ok(s)
        }
        ("map", c) if CMP_OPS.contains(&c) => {
            let args = parse_args(rest)?;
            if args.len() != 2 || args[0].ty != args[1].ty {
                return Err(format!("cmp signature `{sig}` needs 2 same-typed args"));
            }
            Ok(selful(args, OutTy::Vec(ScalarType::Bool), T::Compare))
        }
        ("select", c) if CMP_OPS.contains(&c) => {
            let args = parse_args(rest)?;
            if args.len() != 2 || args[0].ty != args[1].ty {
                return Err(format!("select signature `{sig}` needs 2 same-typed args"));
            }
            Ok(selful(args, OutTy::Sel, T::Refine))
        }
        ("compress", c) | ("decompress", c) if ["pfor", "pfordelta", "pdict"].contains(&c) => {
            // compress_<codec>_<ty>_col / decompress_<codec>_<ty>_col.
            // Compressors read one typed column chunk and produce codec
            // state (a self-describing compressed chunk); decompressors
            // are the inverse, expanding a positional window of that
            // state into a typed vector. Both are dense-only: chunk
            // codecs are position-defined and never run under a
            // selection (selections apply *after* decode, on the
            // cache-resident vector).
            let [ty, shape] = rest else {
                return Err(format!("codec signature `{sig}` malformed"));
            };
            let ty = ty_token(ty).ok_or_else(|| format!("bad codec type in `{sig}`"))?;
            if shape_token(shape) != Some(VecShape::Col) {
                return Err(format!("codec signature `{sig}` must end in _col"));
            }
            if c == "pfordelta" && !ty.is_integer() {
                return Err(format!("pfordelta only covers integer keys: `{sig}`"));
            }
            if family == "compress" {
                Ok(dense(vec![ArgTy::col(ty)], OutTy::State, T::Sink))
            } else {
                Ok(dense(vec![ArgTy::col(ty)], OutTy::Vec(ty), T::Passthrough))
            }
        }
        ("cmp", c) if ["pfor", "pdict"].contains(&c) => {
            // cmp_<codec>_<op>_<ty>_col_val[_val]: encoded-space
            // selection — the constant is translated into the codec's
            // frame (PFOR) or code (PDICT) domain once per chunk and the
            // packed lanes are scanned without decoding. `between`
            // (PFOR only) carries a second broadcast constant; `ne` over
            // a frame range is not contiguous, so PFOR omits it while
            // PDICT rewrites it as a code-set mask.
            let Some((cmp, args)) = rest.split_first() else {
                return Err(format!("pushdown signature `{sig}` malformed"));
            };
            let between = *cmp == "between";
            let known = if c == "pfor" {
                between || (CMP_OPS.contains(cmp) && *cmp != "ne")
            } else {
                CMP_OPS.contains(cmp)
            };
            if !known {
                return Err(format!("bad pushdown op in `{sig}`"));
            }
            let args = parse_args(args)?;
            let want = if between { 3 } else { 2 };
            if args.len() != want
                || args.iter().any(|a| a.ty != args[0].ty)
                || args[0].shape != VecShape::Col
                || args[1..].iter().any(|a| a.shape != VecShape::Val)
            {
                return Err(format!("pushdown signature `{sig}` needs col + val args"));
            }
            if c == "pdict" && !matches!(args[0].ty, I32 | I64 | F64 | Str) {
                return Err(format!("type not dictionary-codable in `{sig}`"));
            }
            if c == "pfor" && args[0].ty == Str {
                return Err(format!("PFOR pushdown is numeric-only: `{sig}`"));
            }
            Ok(selful(args, OutTy::Sel, T::Refine))
        }
        ("decode", "sel") => {
            // decode_sel_<codec>_<ty>_col: gather-style selective decode
            // — expands only the positions a pushdown selection
            // survived, compacted. Dense-only like its decompress twin.
            let [codec, ty, shape] = rest else {
                return Err(format!("decode_sel signature `{sig}` malformed"));
            };
            if !["pfor", "pdict"].contains(codec) {
                return Err(format!("bad decode_sel codec in `{sig}`"));
            }
            let ty = ty_token(ty).ok_or_else(|| format!("bad decode_sel type in `{sig}`"))?;
            if shape_token(shape) != Some(VecShape::Col) {
                return Err(format!("decode_sel signature `{sig}` must end in _col"));
            }
            if *codec == "pdict" && !matches!(ty, I32 | I64 | F64 | Str) {
                return Err(format!("type not dictionary-codable in `{sig}`"));
            }
            if *codec == "pfor" && ty == Str {
                return Err(format!("PFOR decode_sel is numeric-only: `{sig}`"));
            }
            Ok(dense(vec![ArgTy::col(ty)], OutTy::Vec(ty), T::Passthrough))
        }
        ("aggr", "grouptable") => {
            // aggr_grouptable_verify_<ty>_col: stored key column, probe
            // key column and candidate group ids in, a 0/1 mismatch
            // flag per candidate out.
            let ["verify", ty, "col"] = rest else {
                return Err(format!("group-table signature `{sig}` malformed"));
            };
            let ty = ty_token(ty).ok_or_else(|| format!("bad key type in `{sig}`"))?;
            if !matches!(ty, U8 | U16 | U32 | I32 | I64 | F64 | Str) {
                return Err(format!("type is not a group key in `{sig}`"));
            }
            Ok(dense(
                vec![ArgTy::col(ty), ArgTy::col(ty), ArgTy::col(U32)],
                OutTy::Vec(U8),
                T::Compare,
            ))
        }
        ("aggr", "ordered") => {
            // aggr_ordered_boundaries_<ty>_col: one clustered key column
            // in, the run number of each live tuple out — a group index
            // below the vector length, like direct grouping's. Streaming:
            // the state is one vector of groups, so it never spills.
            let ["boundaries", ty, "col"] = rest else {
                return Err(format!("ordered-aggregation signature `{sig}` malformed"));
            };
            // Any vector type compares for equality, so any can key.
            let ty = Some(*ty).filter(|t| *t != "uidx").and_then(ty_token);
            let ty = ty.ok_or_else(|| format!("bad key type in `{sig}`"))?;
            Ok(selful(vec![ArgTy::col(ty)], OutTy::Vec(U32), T::Positions))
        }
        ("aggr", "sum") if rest.get(1).is_some_and(|t| t.starts_with('x')) => {
            // aggr_sum_f64_x<N>_col_u32_col: the fused family — N f64
            // value columns and the group-id column update N sums and
            // the group's tuple count in one pass.
            let ["f64", width, "col", "u32", "col"] = rest else {
                return Err(format!("fused aggregate signature `{sig}` malformed"));
            };
            let n = width[1..]
                .parse::<usize>()
                .ok()
                .filter(|n| (1..=crate::aggr::FUSED_SUM_MAX).contains(n))
                .ok_or_else(|| format!("fused aggregate width out of range in `{sig}`"))?;
            let mut inputs = vec![ArgTy::col(F64); n];
            inputs.push(ArgTy::col(U32));
            Ok(selful(inputs, OutTy::State, T::Aggregate))
        }
        ("aggr", a) if ["sum", "min", "max"].contains(&a) => {
            // aggr_<agg>_<ty>_col_u32_col: value column + group-id column.
            let args = parse_args(rest)?;
            let [v, g] = args.as_slice() else {
                return Err(format!("aggregate signature `{sig}` needs 2 typed args"));
            };
            if g.ty != ScalarType::U32 || g.shape != VecShape::Col {
                return Err(format!("aggregate group arg must be u32_col in `{sig}`"));
            }
            Ok(selful(vec![*v, *g], OutTy::State, T::Aggregate))
        }
        _ => Err(format!("unrecognized signature `{sig}`")),
    }
}

/// The registry, keyed by signature.
#[derive(Debug, Default)]
pub struct PrimitiveRegistry {
    by_sig: BTreeMap<&'static str, PrimitiveDesc>,
}

impl PrimitiveRegistry {
    /// Build the registry with every built-in primitive registered.
    pub fn builtin() -> Self {
        let mut reg = PrimitiveRegistry::default();
        // Arithmetic instances: the signature list is emitted by the
        // *same* macro expansion that instantiates the kernels
        // (`arith_instances!` in `map.rs`), so catalog and code move
        // together by construction.
        for sig in crate::map::ARITH_SIGNATURES {
            reg.register(sig, PrimitiveKind::Map, "arithmetic map (generated)");
        }
        // Comparison maps and selects: generated per (op, type, shape).
        // Each list mirrors the exact dispatch surface of the engine's
        // interpreter (`compile::exec_instr`) and select runner
        // (`ops::select::run_select_val/_col`) — the catalog registers
        // precisely the instances the engine can actually execute, so
        // the bind-time verifier rejects signatures that would panic in
        // kernel dispatch (e.g. a `map_eq_u64_col_col` projection).
        const MAP_CMP_CV_TYS: [&str; 8] = ["i8", "i16", "i32", "i64", "u8", "u16", "u32", "f64"];
        const MAP_CMP_CC_TYS: [&str; 3] = ["i32", "i64", "f64"];
        const SEL_CMP_CV_TYS: [&str; 8] = ["i8", "i16", "i32", "i64", "u8", "u16", "u32", "f64"];
        const SEL_CMP_CC_TYS: [&str; 6] = ["i32", "i64", "f64", "u8", "u16", "u32"];
        for op in CMP_OPS {
            for ty in MAP_CMP_CV_TYS {
                reg.register_owned(
                    format!("map_{op}_{ty}_col_val"),
                    PrimitiveKind::Map,
                    "comparison map (generated)",
                );
            }
            for ty in MAP_CMP_CC_TYS {
                reg.register_owned(
                    format!("map_{op}_{ty}_col_col"),
                    PrimitiveKind::Map,
                    "comparison map (generated)",
                );
            }
            for ty in SEL_CMP_CV_TYS {
                reg.register_owned(
                    format!("select_{op}_{ty}_col_val"),
                    PrimitiveKind::Select,
                    "selection primitive (generated)",
                );
            }
            for ty in SEL_CMP_CC_TYS {
                reg.register_owned(
                    format!("select_{op}_{ty}_col_col"),
                    PrimitiveKind::Select,
                    "selection primitive (generated)",
                );
            }
        }
        reg.register(
            "select_true_bool_col",
            PrimitiveKind::Select,
            "select on boolean column",
        );
        reg.register(
            "select_eq_str_col_val",
            PrimitiveKind::Select,
            "string equality select",
        );
        for f in ["and", "or", "not"] {
            reg.register_owned(
                format!("map_{f}_bool_col"),
                PrimitiveKind::Map,
                "boolean logic map",
            );
        }
        for agg in ["sum", "min", "max"] {
            for ty in ["i32", "i64", "f64"] {
                reg.register_owned(
                    format!("aggr_{agg}_{ty}_col_u32_col"),
                    PrimitiveKind::Aggr,
                    "grouped aggregate update (generated)",
                );
            }
        }
        for n in 1..=crate::aggr::FUSED_SUM_MAX {
            reg.register_owned(
                format!("aggr_sum_f64_x{n}_col_u32_col"),
                PrimitiveKind::Aggr,
                "fused update: N f64 sums + group count in one pass (generated)",
            );
        }
        reg.register(
            "aggr_count_u32_col",
            PrimitiveKind::Aggr,
            "grouped count update",
        );
        reg.register(
            "aggr_avg_epilogue",
            PrimitiveKind::Aggr,
            "avg = sum/count epilogue",
        );
        for ty in ["i8", "i16", "i32", "i64", "u8", "u16", "u32", "f64", "str"] {
            reg.register_owned(
                format!("map_fetch_u32_col_{ty}_col"),
                PrimitiveKind::Fetch,
                "positional gather (generated)",
            );
            reg.register_owned(
                format!("map_fetch_u8_col_{ty}_col"),
                PrimitiveKind::Fetch,
                "1-byte enum decompression gather",
            );
            reg.register_owned(
                format!("map_fetch_u16_col_{ty}_col"),
                PrimitiveKind::Fetch,
                "2-byte enum decompression gather",
            );
        }
        // Unchecked gather twins: same kernels minus the per-element
        // bounds check. The engine dispatches them only when the facts
        // analyzer proves the row-id range within the fragment (see
        // `engine::facts`); string gathers stay checked (their slow path
        // is allocation-bound, not bounds-check-bound).
        for ty in ["i8", "i16", "i32", "i64", "u8", "u16", "u32", "f64"] {
            reg.register_owned(
                format!("map_fetch_u32_col_{ty}_col_unchecked"),
                PrimitiveKind::Fetch,
                "positional gather, bounds proven statically (generated)",
            );
        }
        for ty in ["u8", "u16", "u32", "i32", "i64", "f64", "str"] {
            reg.register_owned(
                format!("map_hash_{ty}_col"),
                PrimitiveKind::Hash,
                "hash map (generated)",
            );
            reg.register_owned(
                format!("map_rehash_{ty}_col"),
                PrimitiveKind::Hash,
                "rehash map (generated)",
            );
        }
        reg.register(
            "map_directgrp_u8_col",
            PrimitiveKind::Hash,
            "direct-group start",
        );
        reg.register(
            "map_directgrp_u16_col",
            PrimitiveKind::Hash,
            "direct-group start (u16)",
        );
        reg.register(
            "map_directgrp_u8_chain",
            PrimitiveKind::Hash,
            "direct-group chain",
        );
        reg.register(
            "map_directgrp_u16_chain",
            PrimitiveKind::Hash,
            "direct-group chain (u16)",
        );
        // Engine-side primitive instances: the operator kernels and the
        // extended maps the expression compiler can emit.
        reg.register(
            "map_uidx_u8_col",
            PrimitiveKind::Hash,
            "direct-group start (paper's map_uidx_uchr_col)",
        );
        reg.register(
            "map_uidx_u16_col",
            PrimitiveKind::Hash,
            "direct-group start (u16)",
        );
        reg.register(
            "map_directgrp_uidx_col_u8_col",
            PrimitiveKind::Hash,
            "direct-group chain (paper naming)",
        );
        reg.register(
            "map_directgrp_uidx_col_u16_col",
            PrimitiveKind::Hash,
            "direct-group chain (u16, paper naming)",
        );
        reg.register(
            "aggr_hashtable_maintain",
            PrimitiveKind::Aggr,
            "group-table lookup + insert (Fig. 6's 'hash table maintenance')",
        );
        reg.register(
            "aggr_grouptable_probe_u64_col",
            PrimitiveKind::Aggr,
            "group-table probe round from the home bucket",
        );
        reg.register(
            "aggr_grouptable_reprobe_u64_col",
            PrimitiveKind::Aggr,
            "group-table probe round over the pending list",
        );
        for ty in ["u8", "u16", "u32", "i32", "i64", "f64", "str"] {
            reg.register_owned(
                format!("aggr_grouptable_verify_{ty}_col"),
                PrimitiveKind::Aggr,
                "group-table key verify (generated)",
            );
        }
        for ty in [
            "i8", "i16", "i32", "i64", "u8", "u16", "u32", "u64", "f64", "bool", "str",
        ] {
            reg.register_owned(
                format!("aggr_ordered_boundaries_{ty}_col"),
                PrimitiveKind::Aggr,
                "ordered-aggregation run boundaries → group ids (generated)",
            );
        }
        reg.register(
            "aggr_ordered_starts_u32_col",
            PrimitiveKind::Aggr,
            "ordered-aggregation group-opening positions",
        );
        reg.register(
            "sort_permutation",
            PrimitiveKind::Map,
            "order-by permutation sort",
        );
        reg.register("map_fill_const", PrimitiveKind::Map, "constant broadcast");
        reg.register(
            "map_year_i32_col",
            PrimitiveKind::Map,
            "calendar year of days-since-epoch",
        );
        reg.register(
            "map_contains_str_col_val",
            PrimitiveKind::Map,
            "substring containment",
        );
        reg.register(
            "map_eq_str_col_val",
            PrimitiveKind::Map,
            "string equality map",
        );
        for ty in ["i8", "i16", "i32", "i64", "u8", "u16", "u32", "bool"] {
            for to in ["i32", "i64", "f64", "u32"] {
                if ty != to {
                    reg.register_owned(
                        format!("map_cast_{ty}_{to}_col"),
                        PrimitiveKind::Map,
                        "widening cast map (generated)",
                    );
                }
            }
        }
        reg.register(
            "map_chained_mahalanobis_f64_col",
            PrimitiveKind::Map,
            "chained (unfused) mahalanobis ablation",
        );
        reg.register(
            "map_fused_sub_f64_val_f64_col_mul_f64_col",
            PrimitiveKind::Compound,
            "fused (v - a) * b",
        );
        reg.register(
            "map_fused_add_f64_val_f64_col_mul_f64_col",
            PrimitiveKind::Compound,
            "fused (v + a) * b",
        );
        reg.register(
            "map_fused_mahalanobis_f64_col",
            PrimitiveKind::Compound,
            "fused ((a-b)^2)/c",
        );
        // Chunk codec instances: like the arithmetic maps, each signature
        // list is emitted by the same macro expansion that instantiates
        // the codec kernels (`pfor_instances!` / `pfordelta_instances!`
        // in `compress.rs`), so catalog and code move together.
        for sig in crate::compress::PFOR_SIGNATURES {
            reg.register(sig, PrimitiveKind::Compress, "PFOR chunk codec (generated)");
        }
        for sig in crate::compress::PFORDELTA_SIGNATURES {
            reg.register(
                sig,
                PrimitiveKind::Compress,
                "PFOR-DELTA chunk codec (generated)",
            );
        }
        for sig in crate::compress::PDICT_SIGNATURES {
            reg.register(sig, PrimitiveKind::Compress, "PDICT chunk codec");
        }
        // Compression-aware execution: encoded-space selections (typed
        // like any other select primitive, so the bind-time verifier can
        // reject codec/type mismatches) and their selective-decode
        // gathers. Signature lists are emitted next to the kernels in
        // `compress.rs`.
        for sig in crate::compress::CMP_PFOR_SIGNATURES {
            reg.register(
                sig,
                PrimitiveKind::Select,
                "encoded-space PFOR selection (generated)",
            );
        }
        for sig in crate::compress::CMP_PDICT_SIGNATURES {
            reg.register(
                sig,
                PrimitiveKind::Select,
                "dictionary-code selection (generated)",
            );
        }
        for sig in crate::compress::DECODE_SEL_SIGNATURES {
            reg.register(
                sig,
                PrimitiveKind::Compress,
                "selective decode gather (generated)",
            );
        }
        reg
    }

    /// Register a signature with a static name. Panics if the signature
    /// does not parse under the grammar or is a duplicate: the catalog
    /// is constructed from the kernel generator's output, so either
    /// condition means registry and code have drifted.
    fn register(&mut self, signature: &'static str, kind: PrimitiveKind, doc: &'static str) {
        let info = match parse_signature(signature) {
            Ok(i) => i,
            Err(e) => panic!("unparseable primitive signature `{signature}`: {e}"),
        };
        debug_assert!(
            (kind == PrimitiveKind::Select) == (info.output == OutTy::Sel),
            "kind/typing mismatch for `{signature}`"
        );
        let prev = self.by_sig.insert(
            signature,
            PrimitiveDesc {
                signature,
                kind,
                doc,
                info,
            },
        );
        assert!(
            prev.is_none(),
            "duplicate primitive signature `{signature}`"
        );
    }

    fn register_owned(&mut self, sig: String, kind: PrimitiveKind, doc: &'static str) {
        // Signatures are leaked once at registry construction; the registry
        // lives for the process lifetime (built once per session).
        let signature: &'static str = Box::leak(sig.into_boxed_str());
        self.register(signature, kind, doc);
    }

    /// Look up a primitive by signature.
    pub fn get(&self, signature: &str) -> Option<&PrimitiveDesc> {
        self.by_sig.get(signature)
    }

    /// True if `signature` is registered.
    pub fn contains(&self, signature: &str) -> bool {
        self.by_sig.contains_key(signature)
    }

    /// All registered primitives, ordered by signature.
    pub fn iter(&self) -> impl Iterator<Item = &PrimitiveDesc> {
        self.by_sig.values()
    }

    /// Number of registered primitives.
    pub fn len(&self) -> usize {
        self.by_sig.len()
    }

    /// True if the registry is empty (never for `builtin()`).
    pub fn is_empty(&self) -> bool {
        self.by_sig.is_empty()
    }

    /// Count primitives of a given kind.
    pub fn count_kind(&self, kind: PrimitiveKind) -> usize {
        self.by_sig.values().filter(|d| d.kind == kind).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_registry_is_large() {
        let reg = PrimitiveRegistry::builtin();
        // The paper: "X100 contains hundreds of vectorized primitives".
        assert!(reg.len() > 200, "only {} primitives registered", reg.len());
    }

    #[test]
    fn lookup_known_signatures() {
        let reg = PrimitiveRegistry::builtin();
        for sig in [
            "map_add_f64_col_f64_col",
            "select_lt_i32_col_val",
            "aggr_sum_f64_col_u32_col",
            "map_fetch_u8_col_f64_col",
            "map_hash_str_col",
            "map_rehash_f64_col",
            "aggr_grouptable_probe_u64_col",
            "map_fused_sub_f64_val_f64_col_mul_f64_col",
        ] {
            assert!(reg.contains(sig), "missing {sig}");
        }
        assert!(!reg.contains("map_frobnicate_q7_col"));
    }

    #[test]
    fn kinds_partition() {
        let reg = PrimitiveRegistry::builtin();
        let total: usize = [
            PrimitiveKind::Map,
            PrimitiveKind::Select,
            PrimitiveKind::Aggr,
            PrimitiveKind::Fetch,
            PrimitiveKind::Hash,
            PrimitiveKind::Compound,
            PrimitiveKind::Compress,
        ]
        .into_iter()
        .map(|k| reg.count_kind(k))
        .sum();
        assert_eq!(total, reg.len());
        assert!(reg.count_kind(PrimitiveKind::Select) >= 84);
        assert_eq!(reg.count_kind(PrimitiveKind::Compound), 3);
        // 9 PFOR pairs + 8 PFOR-DELTA pairs + 4 PDICT pairs, plus 13
        // selective-decode gathers (9 PFOR + 4 PDICT).
        assert_eq!(reg.count_kind(PrimitiveKind::Compress), 55);
    }

    #[test]
    fn every_compress_kernel_has_decompress_counterpart() {
        let reg = PrimitiveRegistry::builtin();
        for d in reg.iter().filter(|d| d.kind == PrimitiveKind::Compress) {
            // A selective-decode gather twins with the dense decoder of
            // the same codec/type; compress/decompress twin each other.
            let twin = if let Some(rest) = d.signature.strip_prefix("decode_sel_") {
                format!("decompress_{rest}")
            } else if let Some(rest) = d.signature.strip_prefix("de") {
                rest.to_string()
            } else {
                format!("de{}", d.signature)
            };
            assert!(
                reg.contains(&twin),
                "{} lacks its codec twin {twin}",
                d.signature
            );
        }
    }

    #[test]
    fn every_arith_signature_registered() {
        let reg = PrimitiveRegistry::builtin();
        for sig in crate::map::ARITH_SIGNATURES {
            assert!(reg.contains(sig));
        }
    }

    #[test]
    fn typed_metadata_matches_grammar() {
        let reg = PrimitiveRegistry::builtin();
        // Spot-check derived typing on each signature family.
        let add = reg.get("map_add_f64_col_f64_val").expect("registered");
        assert_eq!(
            add.info.inputs,
            vec![ArgTy::col(ScalarType::F64), ArgTy::val(ScalarType::F64)]
        );
        assert_eq!(add.info.output, OutTy::Vec(ScalarType::F64));
        assert!(add.info.consumes_sel && !add.info.produces_sel && add.info.fusable);

        let sel = reg.get("select_le_u16_col_val").expect("registered");
        assert_eq!(
            sel.info.inputs,
            vec![ArgTy::col(ScalarType::U16), ArgTy::val(ScalarType::U16)]
        );
        assert!(sel.info.produces_sel);

        let cast = reg.get("map_cast_u8_i32_col").expect("registered");
        assert_eq!(cast.info.inputs, vec![ArgTy::col(ScalarType::U8)]);
        assert_eq!(cast.info.output, OutTy::Vec(ScalarType::I32));

        let fetch = reg.get("map_fetch_u8_col_str_col").expect("registered");
        assert_eq!(fetch.info.inputs, vec![ArgTy::col(ScalarType::U8)]);
        assert_eq!(fetch.info.output, OutTy::Vec(ScalarType::Str));

        let aggr = reg.get("aggr_sum_i64_col_u32_col").expect("registered");
        assert_eq!(aggr.info.output, OutTy::State);
        assert_eq!(aggr.info.arity(), 2);

        // Dense-only position-dependent kernels never consume a selection.
        for dense in [
            "sort_permutation",
            "aggr_hashtable_maintain",
            "compress_pfor_i64_col",
        ] {
            assert!(
                !reg.get(dense).expect("registered").info.consumes_sel,
                "{dense} must be dense-only"
            );
        }
    }

    #[test]
    fn fact_transfers_derive_from_the_grammar() {
        let reg = PrimitiveRegistry::builtin();
        for (sig, want) in [
            ("map_add_i32_col_i32_val", FactTransfer::Interval),
            ("map_lt_i64_col_val", FactTransfer::Compare),
            ("map_and_bool_col", FactTransfer::Logic),
            ("map_fill_const", FactTransfer::Fill),
            ("map_cast_u16_u32_col", FactTransfer::Cast),
            ("map_year_i32_col", FactTransfer::Monotone),
            ("map_fetch_u32_col_f64_col", FactTransfer::Fetch),
            ("map_fetch_u32_col_f64_col_unchecked", FactTransfer::Fetch),
            ("map_hash_i64_col", FactTransfer::Domain),
            ("sort_permutation", FactTransfer::Positions),
            ("select_ge_i32_col_val", FactTransfer::Refine),
            ("cmp_pfor_le_i64_col_val", FactTransfer::Refine),
            ("decompress_pfor_i64_col", FactTransfer::Passthrough),
            ("decode_sel_pdict_str_col", FactTransfer::Passthrough),
            ("aggr_sum_f64_col_u32_col", FactTransfer::Aggregate),
            ("aggr_sum_f64_x5_col_u32_col", FactTransfer::Aggregate),
            ("aggr_grouptable_probe_u64_col", FactTransfer::Positions),
            ("aggr_grouptable_verify_f64_col", FactTransfer::Compare),
            ("aggr_ordered_boundaries_i64_col", FactTransfer::Positions),
            ("aggr_ordered_starts_u32_col", FactTransfer::Positions),
            ("compress_pdict_str_col", FactTransfer::Sink),
            ("aggr_avg_epilogue", FactTransfer::Opaque),
        ] {
            assert_eq!(
                reg.get(sig).expect("registered").info.transfer,
                want,
                "{sig}"
            );
        }
    }

    #[test]
    fn unchecked_twins_mirror_their_checked_gathers() {
        let reg = PrimitiveRegistry::builtin();
        for ty in ["i8", "i16", "i32", "i64", "u8", "u16", "u32", "f64"] {
            let twin = format!("map_fetch_u32_col_{ty}_col_unchecked");
            let checked = format!("map_fetch_u32_col_{ty}_col");
            let t = reg.get(&twin).expect("unchecked twin registered");
            let c = reg.get(&checked).expect("checked gather registered");
            assert_eq!(t.info, c.info, "{twin} typing drifted from {checked}");
        }
        // No unchecked string gather, and no unchecked enum-code index.
        assert!(!reg.contains("map_fetch_u32_col_str_col_unchecked"));
        assert!(parse_signature("map_fetch_u8_col_i64_col_unchecked").is_err());
    }

    #[test]
    fn exactly_the_buffering_kernels_advertise_spill() {
        let reg = PrimitiveRegistry::builtin();
        let spillers: Vec<&str> = reg
            .iter()
            .filter(|d| d.info.spills)
            .map(|d| d.signature)
            .collect();
        // Only the unbounded-state kernels may spill; every streaming
        // primitive is bounded by the vector size.
        assert_eq!(
            spillers,
            vec!["aggr_hashtable_maintain", "sort_permutation"]
        );
    }

    #[test]
    fn every_entry_parses_and_agrees_with_kind() {
        let reg = PrimitiveRegistry::builtin();
        for d in reg.iter() {
            let parsed = parse_signature(d.signature).expect("grammar covers catalog");
            assert_eq!(parsed, d.info, "{} drifted", d.signature);
            if d.kind == PrimitiveKind::Select {
                assert!(d.info.produces_sel, "{} must produce a SelVec", d.signature);
            }
        }
    }

    #[test]
    fn malformed_signatures_are_rejected() {
        for bad in [
            "map_frobnicate_q7_col",
            "map_add_f64_col_i32_col",           // mixed arith types
            "select_lt_f64",                     // missing shape
            "aggr_sum_f64_col_i64_col",          // group arg must be u32
            "aggr_sum_f64_x9_col_u32_col",       // fused family stops at 8
            "aggr_sum_i64_x2_col_u32_col",       // fused sums are f64
            "aggr_grouptable_verify_bool_col",   // not a group key type
            "aggr_ordered_boundaries_uidx_col",  // an alias, not a vector type
            "aggr_ordered_boundaries",           // the typed family replaced it
            "cmp_pfor_ne_i64_col_val",           // != is not a frame range
            "cmp_pfor_eq_str_col_val",           // PFOR is numeric-only
            "cmp_pdict_between_i64_col_val_val", // between is PFOR-only
            "cmp_pdict_eq_u8_col_val",           // not a dictionary-coded type
            "decode_sel_pfordelta_i64_col",      // prefix sums defeat gathers
        ] {
            assert!(parse_signature(bad).is_err(), "{bad} should not parse");
        }
    }
}
