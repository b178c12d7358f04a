//! Declarative X100 algebra plans (paper Fig. 7) and their binder.
//!
//! A [`Plan`] is the value-level form of the paper's algebra:
//!
//! ```text
//! Table(ID)                                          : Table
//! Scan(Table)                                        : Dataflow
//! Array(List<Exp<int>>)                              : Dataflow
//! Select(Dataflow, Exp<bool>)                        : Dataflow
//! Join(Dataflow, Table, Exp<bool>, List<Column>)     : Dataflow
//! CartProd(Dataflow, Table, List<Column>)
//! Fetch1Join(Dataflow, Table, Exp<int>, List<Column>)
//! FetchNJoin(Dataflow, Table, Exp<int>, Exp<int>, Column, List<Column>)
//! Project(Dataflow, List<Exp<*>>)                    : Dataflow
//! Aggr(Dataflow, List<Exp<*>>, List<AggrExp>)        : Dataflow
//! OrdAggr(…)
//! TopN(Dataflow, List<OrdExp>, List<Exp<*>>, int)    : Dataflow
//! Order(Table, List<OrdExp>, List<AggrExp>)          : Table
//! ```
//!
//! A plan is checked once ([`crate::check::check_plan`]): that walk
//! resolves table and column names against a
//! [`crate::session::Database`], makes every physical decision — which
//! enum columns travel as codes (those only code readers consume), and,
//! like the paper's (planned) optimizer, whether the generic `Aggr`
//! becomes a *direct* aggregation over small-domain keys, *ordered* when
//! every key is proven sorted, else *hash* — and returns the verified
//! tree. [`Plan::bind`] and [`CheckedNode::instantiate`] only construct
//! the operator pipeline from that tree. The planning helpers the walk
//! calls (predicate fusion, enum-literal rewriting, scan pruning) live
//! here, next to the algebra they rewrite.

use crate::check::{check_plan, CheckedNode, CheckedOp};
use crate::expr::{AggExpr, Expr};
use crate::facts::{conjunct_parts, flatten_conjuncts};
use crate::govern::QueryContext;
use crate::ops::{
    ArrayOp, BuildSide, CartProdOp, DirectAggrOp, EmptyOp, ExchangeOp, Fetch1JoinOp, FetchNJoinOp,
    HashAggrOp, HashJoinOp, JoinTable, JoinType, Operator, OrdAggrOp, OrdExp, OrderOp, ProjectOp,
    ScanOp, SelectOp,
};
use crate::session::{Database, ExecOptions};
use crate::PlanError;
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;
use x100_storage::{EnumDict, Morsel, Table};
use x100_vector::{CmpOp, ScalarType, Value};

/// Pre-built shared join tables, keyed by the path of the checked
/// `HashJoin` node they were built for. An `Exchange` builds each join
/// table of its spine once; worker instantiations look their node up
/// here and get a join that probes the shared table.
pub(crate) type SharedJoins<'a> = HashMap<&'a str, Arc<JoinTable>>;

/// Range pruning hint for `Scan`: restricts fragment rows via the
/// column's summary index (§4.3). Conservative — an exact `Select` above
/// is still required.
#[derive(Debug, Clone, PartialEq)]
pub struct RangePrune {
    /// Clustered column carrying a summary index.
    pub col: String,
    /// Lower bound (inclusive), widened to i64.
    pub lo: Option<i64>,
    /// Upper bound (inclusive), widened to i64.
    pub hi: Option<i64>,
}

/// A declarative plan tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Plan {
    /// Vector-at-a-time scan. The check walk surfaces an enum column as
    /// raw codes where only code readers consume it; elsewhere it
    /// decodes automatically via `Fetch1Join(ENUM)`.
    Scan {
        /// Table name in the database.
        table: String,
        /// Columns to scan (only these are touched).
        cols: Vec<String>,
        /// Optional summary-index pruning.
        prune: Option<RangePrune>,
    },
    /// Zero-copy selection.
    Select {
        /// Input dataflow.
        input: Box<Plan>,
        /// Boolean predicate.
        pred: Expr,
    },
    /// Expression calculation (no duplicate elimination).
    Project {
        /// Input dataflow.
        input: Box<Plan>,
        /// Named output expressions.
        exprs: Vec<(String, Expr)>,
    },
    /// Generic aggregation: the check walk picks direct or hash.
    Aggr {
        /// Input dataflow.
        input: Box<Plan>,
        /// Group-by keys (named expressions).
        keys: Vec<(String, Expr)>,
        /// Aggregates.
        aggs: Vec<AggExpr>,
    },
    /// Force ordered aggregation (input clustered on the keys).
    OrdAggr {
        /// Input dataflow.
        input: Box<Plan>,
        /// Group-by keys.
        keys: Vec<(String, Expr)>,
        /// Aggregates.
        aggs: Vec<AggExpr>,
    },
    /// Positional 1:1 join by `#rowId`.
    Fetch1Join {
        /// Input dataflow.
        input: Box<Plan>,
        /// Target table.
        table: String,
        /// Row-id expression (u32).
        rowid: Expr,
        /// `(target column, output alias)` pairs to fetch (an enum
        /// column as codes where only code readers consume it, like a
        /// scanned one).
        fetch: Vec<(String, String)>,
    },
    /// Positional 1:N join over a contiguous `#rowId` range.
    FetchNJoin {
        /// Input dataflow.
        input: Box<Plan>,
        /// Target table.
        table: String,
        /// Range start expression (u32).
        lo: Expr,
        /// Range length expression (u32).
        cnt: Expr,
        /// Columns to fetch.
        fetch: Vec<(String, String)>,
    },
    /// Cross product with a table.
    CartProd {
        /// Input dataflow.
        input: Box<Plan>,
        /// Target table.
        table: String,
        /// Columns to fetch.
        fetch: Vec<(String, String)>,
    },
    /// Nested-loop join = `CartProd` + `Select` (the paper's default).
    Join {
        /// Input dataflow.
        input: Box<Plan>,
        /// Target table.
        table: String,
        /// Join predicate over input + fetched columns.
        pred: Expr,
        /// Columns to fetch.
        fetch: Vec<(String, String)>,
    },
    /// Hash equi-join between two dataflows.
    HashJoin {
        /// Build side (fully materialized into the hash table).
        build: Box<Plan>,
        /// Probe side (streamed).
        probe: Box<Plan>,
        /// Build key expressions.
        build_keys: Vec<Expr>,
        /// Probe key expressions.
        probe_keys: Vec<Expr>,
        /// `(build column, alias)` payload (inner joins only).
        payload: Vec<(String, String)>,
        /// Join semantics.
        join_type: JoinType,
    },
    /// Bounded top-N by sort keys.
    TopN {
        /// Input dataflow.
        input: Box<Plan>,
        /// Sort keys.
        keys: Vec<OrdExp>,
        /// Row limit.
        limit: usize,
    },
    /// Materializing sort.
    Order {
        /// Input dataflow.
        input: Box<Plan>,
        /// Sort keys.
        keys: Vec<OrdExp>,
    },
    /// N-dimensional coordinate generator.
    Array {
        /// Dimension extents.
        dims: Vec<i64>,
    },
}

impl Plan {
    /// Check this plan against `db` and instantiate the verified tree as
    /// an executable pipeline with its own (unshared) governor context
    /// derived from `opts`.
    pub fn bind(&self, db: &Database, opts: &ExecOptions) -> Result<Box<dyn Operator>, PlanError> {
        self.bind_governed(db, opts, &opts.query_context())
    }

    /// Instantiate against an externally owned governor context (which a
    /// caller publishes counters from after the run). Only a tree that
    /// was checked for this plan, this catalog state and these options
    /// is ever instantiated: the one `ctx` carries
    /// ([`QueryContext::provide_plan_facts`]) when it is that, else a
    /// fresh [`check_plan`] — ill-formed plans never reach a kernel, and
    /// a proof never meets a table it was not proven against.
    pub fn bind_governed(
        &self,
        db: &Database,
        opts: &ExecOptions,
        ctx: &Arc<QueryContext>,
    ) -> Result<Box<dyn Operator>, PlanError> {
        let fresh;
        let checked = match ctx.plan_facts() {
            Some(f) if f.checked_for(db, self, opts) => f,
            _ => {
                fresh = check_plan(db, self, opts)?.facts;
                &fresh
            }
        };
        checked.root().instantiate(opts, None, None, ctx)
    }
}

impl CheckedNode {
    /// Construct this node's operator pipeline. Decision-free: every
    /// table, program and physical variant was fixed by the check walk.
    ///
    /// `morsels` restricts the leaf `Scan` on the probe spine (an
    /// `Exchange`'s workers instantiate one pipeline clone per disjoint
    /// morsel set); `HashJoin` nodes present in `shared` probe the
    /// pre-built table instead of building their own.
    pub(crate) fn instantiate(
        &self,
        opts: &ExecOptions,
        morsels: Option<&[Morsel]>,
        shared: Option<&SharedJoins>,
        ctx: &Arc<QueryContext>,
    ) -> Result<Box<dyn Operator>, PlanError> {
        let vs = opts.vector_size;
        let child = match &self.op {
            CheckedOp::Scan(spec) => {
                let scan = ScanOp::new(spec, &self.fields, morsels, vs, ctx.clone())?;
                return Ok(Box::new(scan));
            }
            CheckedOp::Array { dims, total } => {
                let array = ArrayOp::new(dims, *total, self.fields.clone(), vs);
                return Ok(Box::new(array));
            }
            CheckedOp::HashJoin(parts) => {
                let (build, probe) = (&self.inputs[0], &self.inputs[1]);
                // The morsel restriction flows into the probe side only;
                // the build side always materializes full-range.
                let b = match shared.and_then(|m| m.get(self.path.as_str())) {
                    Some(table) => BuildSide::Shared(table.clone()),
                    None => BuildSide::Input(build.instantiate(opts, None, shared, ctx)?),
                };
                let p = probe.instantiate(opts, morsels, shared, ctx)?;
                return Ok(Box::new(HashJoinOp::new(b, p, parts, vs, ctx.clone())));
            }
            CheckedOp::Exchange { merge } => {
                let (input, merge) = (self.inputs[0].clone(), merge.clone());
                return Ok(Box::new(ExchangeOp::new(
                    input,
                    merge,
                    opts.clone(),
                    ctx.clone(),
                )));
            }
            // Every other node streams over its one input.
            _ => self.inputs[0].instantiate(opts, morsels, shared, ctx)?,
        };
        let select = |child, steps| Box::new(SelectOp::new(child, steps, vs, ctx.clone()));
        let op: Box<dyn Operator> = match &self.op {
            CheckedOp::Select { steps, verdict, .. } => match verdict {
                Some(false) => Box::new(EmptyOp::new(self.fields.clone())),
                // Proven always-true, or wholly pushed into the scan.
                _ if steps.is_empty() => child,
                _ => select(child, steps),
            },
            CheckedOp::Project { exprs, .. } => Box::new(ProjectOp::new(
                child,
                exprs,
                self.fields.clone(),
                vs,
                ctx.clone(),
            )),
            CheckedOp::HashAggr {
                keys, aggs, merge, ..
            } => Box::new(HashAggrOp::new(
                child,
                keys,
                aggs,
                merge.clone(),
                vs,
                ctx.clone(),
            )),
            CheckedOp::DirectAggr { keys, aggs, .. } => Box::new(DirectAggrOp::new(
                child,
                keys.clone(),
                aggs,
                self.fields.clone(),
                vs,
                ctx.clone(),
            )),
            CheckedOp::OrdAggr { keys, aggs, .. } => Box::new(OrdAggrOp::new(
                child,
                keys,
                aggs,
                self.fields.clone(),
                vs,
                ctx.clone(),
            )),
            CheckedOp::Fetch1Join {
                table, rowid, cols, ..
            } => Box::new(Fetch1JoinOp::new(
                child,
                table.clone(),
                rowid,
                cols,
                self.fields.clone(),
                vs,
                ctx.clone(),
            )),
            CheckedOp::FetchNJoin {
                table,
                lo,
                cnt,
                cols,
                ..
            } => Box::new(FetchNJoinOp::new(
                child,
                table.clone(),
                lo,
                cnt,
                cols,
                self.fields.clone(),
                vs,
                ctx.clone(),
            )),
            CheckedOp::CartProd {
                table,
                fetch_cols,
                steps,
                ..
            } => {
                let cart = Box::new(CartProdOp::new(
                    child,
                    table.clone(),
                    fetch_cols.clone(),
                    self.fields.clone(),
                    vs,
                    ctx.clone(),
                ));
                match steps {
                    None => cart,
                    Some(steps) => select(cart, steps),
                }
            }
            CheckedOp::Sort { keys, limit, .. } => {
                Box::new(OrderOp::new(child, keys.clone(), *limit, vs, ctx.clone()))
            }
            CheckedOp::Scan(_)
            | CheckedOp::Array { .. }
            | CheckedOp::HashJoin(_)
            | CheckedOp::Exchange { .. } => unreachable!("instantiated above"),
        };
        Ok(op)
    }
}

/// A successful `Scan→Select` fusion decision: the encoded-space
/// predicate plus whatever conjuncts could not be pushed.
pub(crate) struct FusedPushdown {
    /// Scanned column the pushdown binds to.
    pub col: String,
    /// The compiled encoded-space predicate.
    pub push: x100_storage::Pushdown,
    /// The `col ⊙ literal` conjuncts the pushdown consumed.
    pub pushed: Vec<Expr>,
    /// Conjuncts left for a normal `Select` above the fused scan.
    pub residual: Option<Expr>,
}

/// Decide whether (part of) `pred` can run in encoded space over one of
/// the columns scanned from `t`. Conservative: any doubt — unknown
/// column, type mismatch, unsupported codec/op pair, pending deltas —
/// declines and the ordinary decode-then-select pipeline is planned
/// instead.
pub(crate) fn fuse_scan_select(t: &Table, cols: &[String], pred: &Expr) -> Option<FusedPushdown> {
    use x100_storage::{ChunkFormat, PushOp};
    // Delta rows bypass the compressed fragments; fusing would leave
    // them unfiltered, so decline until the table is reorganized.
    if t.delta_rows() > 0 {
        return None;
    }
    let mut conj: Vec<&Expr> = Vec::new();
    flatten_conjuncts(pred, &mut conj);
    struct Cand<'a> {
        i: usize,
        col: &'a str,
        op: PushOp,
        v: Value,
    }
    let mut cands: Vec<Cand> = Vec::new();
    for (i, e) in conj.iter().enumerate() {
        let Some((col, cmp, lit)) = conjunct_parts(e) else {
            continue;
        };
        if !cols.iter().any(|c| c == col) {
            continue;
        }
        let Some(ci) = t.column_index(col) else {
            continue;
        };
        let sc = t.column(ci);
        // Enum columns have their own rewrite (string literal →
        // dictionary code); the lane pushdown handles plain columns.
        if sc.dict().is_some() {
            continue;
        }
        let Some(cc) = sc.compressed() else {
            continue;
        };
        if !matches!(cc.format(), ChunkFormat::Pfor | ChunkFormat::Pdict) {
            continue;
        }
        let op = match cmp {
            CmpOp::Eq => PushOp::Eq,
            CmpOp::Ne => PushOp::Ne,
            CmpOp::Lt => PushOp::Lt,
            CmpOp::Le => PushOp::Le,
            CmpOp::Gt => PushOp::Gt,
            CmpOp::Ge => PushOp::Ge,
        };
        let Some(v) = coerce_lit(lit, sc.physical_type()) else {
            continue;
        };
        cands.push(Cand { i, col, op, v });
    }
    let cc_of = |col: &str| {
        let ci = t.column_index(col).expect("candidate column resolved");
        t.column(ci).compressed().expect("candidate is compressed")
    };
    let fused = |col: &str, push, used: &[usize]| FusedPushdown {
        col: col.to_owned(),
        push,
        pushed: used.iter().map(|&i| conj[i].clone()).collect(),
        residual: rebuild_residual(&conj, used),
    };
    // Prefer a range pair fused as one Between: `lo <= c AND c <= hi`,
    // or over integers `lo <= c AND c < hi` as `Between(lo, hi − 1)`.
    for a in &cands {
        for b in &cands {
            if a.i == b.i || a.col != b.col || a.op != PushOp::Ge {
                continue;
            }
            let hi = match b.op {
                PushOp::Le => Some(b.v.clone()),
                PushOp::Lt => int_below(&b.v),
                _ => None,
            };
            let Some(hi) = hi else {
                continue;
            };
            if let Some(p) = cc_of(a.col).compile_pushdown(PushOp::Between, &a.v, Some(&hi)) {
                return Some(fused(a.col, p, &[a.i, b.i]));
            }
        }
    }
    for c in &cands {
        if let Some(p) = cc_of(c.col).compile_pushdown(c.op, &c.v, None) {
            return Some(fused(c.col, p, &[c.i]));
        }
    }
    None
}

/// Coerce a comparison literal to the column's physical type, declining
/// when the value does not fit (no silent truncation — an out-of-range
/// literal stays on the decode-then-select path, whose map layer
/// promotes instead).
fn coerce_lit(v: &Value, ty: ScalarType) -> Option<Value> {
    if v.scalar_type() == ty {
        return Some(v.clone());
    }
    let as_i = match v {
        Value::I8(x) => *x as i64,
        Value::I16(x) => *x as i64,
        Value::I32(x) => *x as i64,
        Value::I64(x) => *x,
        Value::U8(x) => *x as i64,
        Value::U16(x) => *x as i64,
        Value::U32(x) => *x as i64,
        Value::U64(x) => i64::try_from(*x).ok()?,
        _ => return None,
    };
    match ty {
        ScalarType::I8 => i8::try_from(as_i).ok().map(Value::I8),
        ScalarType::I16 => i16::try_from(as_i).ok().map(Value::I16),
        ScalarType::I32 => i32::try_from(as_i).ok().map(Value::I32),
        ScalarType::I64 => Some(Value::I64(as_i)),
        ScalarType::U8 => u8::try_from(as_i).ok().map(Value::U8),
        ScalarType::U16 => u16::try_from(as_i).ok().map(Value::U16),
        ScalarType::U32 => u32::try_from(as_i).ok().map(Value::U32),
        ScalarType::U64 => u64::try_from(as_i).ok().map(Value::U64),
        // Integer literal against a float column is exact in f64 for
        // anything the PFOR scale trick can represent.
        ScalarType::F64 => Some(Value::F64(as_i as f64)),
        _ => None,
    }
}

/// The integer just below `v` — `c < v` is `c <= v − 1` — or `None` for
/// a non-integer or the type's minimum (nothing lies below it).
fn int_below(v: &Value) -> Option<Value> {
    Some(match v {
        Value::I8(x) => Value::I8(x.checked_sub(1)?),
        Value::I16(x) => Value::I16(x.checked_sub(1)?),
        Value::I32(x) => Value::I32(x.checked_sub(1)?),
        Value::I64(x) => Value::I64(x.checked_sub(1)?),
        Value::U8(x) => Value::U8(x.checked_sub(1)?),
        Value::U16(x) => Value::U16(x.checked_sub(1)?),
        Value::U32(x) => Value::U32(x.checked_sub(1)?),
        Value::U64(x) => Value::U64(x.checked_sub(1)?),
        _ => return None,
    })
}

/// Re-`And` the conjuncts not consumed by the pushdown.
fn rebuild_residual(conj: &[&Expr], used: &[usize]) -> Option<Expr> {
    let mut it = conj
        .iter()
        .enumerate()
        .filter(|(i, _)| !used.contains(i))
        .map(|(_, e)| (*e).clone());
    let first = it.next()?;
    Some(it.fold(first, |acc, e| Expr::And(Box::new(acc), Box::new(e))))
}

/// A `Scan`'s summary-index prune range over its (resolved) table: the
/// fragment rows that can hold qualifying values, `None` without a
/// prune hint.
pub(crate) fn scan_prune_range(
    t: &Table,
    prune: Option<&RangePrune>,
) -> Result<Option<(usize, usize)>, PlanError> {
    let Some(p) = prune else {
        return Ok(None);
    };
    let ci = t
        .column_index(&p.col)
        .ok_or_else(|| PlanError::UnknownColumn(p.col.clone()))?;
    let summary = t
        .column(ci)
        .summary()
        .ok_or_else(|| PlanError::Invalid(format!("column `{}` has no summary index", p.col)))?;
    Ok(Some(summary.range_candidates(p.lo, p.hi)))
}

/// The operator, column and string literal of an enum-literal
/// comparison — `c = 'lit'` or `c <> 'lit'`, the literal on either side:
/// the comparison [`rewrite_enum_literals`] runs on codes, and so the
/// one expression that reads its column as codes ([`value_reads`]).
fn enum_literal_cmp(e: &Expr) -> Option<(CmpOp, &String, &String)> {
    let Expr::Cmp(op @ (CmpOp::Eq | CmpOp::Ne), l, r) = e else {
        return None;
    };
    match (l.as_ref(), r.as_ref()) {
        (Expr::Col(c), Expr::Lit(Value::Str(s))) | (Expr::Lit(Value::Str(s)), Expr::Col(c)) => {
            Some((*op, c, s))
        }
        _ => None,
    }
}

/// Add to `out` the columns `e` reads as values: every column it names,
/// except the column of an enum-literal comparison wherever
/// [`rewrite_enum_literals`] reaches one.
pub(crate) fn value_reads(e: &Expr, out: &mut BTreeSet<String>) {
    if enum_literal_cmp(e).is_some() {
        return;
    }
    match e {
        Expr::And(l, r) | Expr::Or(l, r) | Expr::Arith(_, l, r) | Expr::Cmp(_, l, r) => {
            value_reads(l, out);
            value_reads(r, out);
        }
        Expr::Not(x) | Expr::Cast(_, x) => value_reads(x, out),
        other => out.extend(other.columns().into_iter().map(str::to_owned)),
    }
}

/// Rewrite string-literal equality comparisons on enum *code* columns
/// into comparisons on the dictionary code, so predicates never decode
/// (paper §4.3: enumeration types). Literals absent from the dictionary
/// fold to boolean constants.
pub(crate) fn rewrite_enum_literals(
    e: &Expr,
    fields: &[crate::batch::OutField],
    dicts: &[Option<Arc<EnumDict>>],
) -> Expr {
    let code_of = |name: &str, lit: &str| -> Option<Option<Value>> {
        // Outer None: not a code column. Inner: the code, if present.
        let i = fields.iter().position(|f| f.name == name)?;
        let dict = dicts.get(i)?.as_ref()?;
        if !matches!(fields[i].ty, ScalarType::U8 | ScalarType::U16) {
            return None;
        }
        let x100_vector::Vector::Str(d) = dict.values() else {
            return None;
        };
        let code = (0..d.len()).find(|&c| d.get(c) == lit);
        Some(code.map(|c| {
            if fields[i].ty == ScalarType::U8 {
                Value::U8(c as u8)
            } else {
                Value::U16(c as u16)
            }
        }))
    };
    if let Some((op, c, s)) = enum_literal_cmp(e) {
        // The literal moves to the right.
        return match code_of(c, s) {
            Some(Some(code)) => Expr::Cmp(
                op,
                Box::new(Expr::Col(c.clone())),
                Box::new(Expr::Lit(code)),
            ),
            Some(None) => Expr::Lit(Value::Bool(op == CmpOp::Ne)),
            None => e.clone(),
        };
    }
    let re = |x: &Expr| Box::new(rewrite_enum_literals(x, fields, dicts));
    match e {
        Expr::And(l, r) => Expr::And(re(l), re(r)),
        Expr::Or(l, r) => Expr::Or(re(l), re(r)),
        Expr::Not(x) => Expr::Not(re(x)),
        Expr::Cast(ty, x) => Expr::Cast(*ty, re(x)),
        Expr::Arith(op, l, r) => Expr::Arith(*op, re(l), re(r)),
        Expr::Cmp(op, l, r) => Expr::Cmp(*op, re(l), re(r)),
        other => other.clone(),
    }
}

/// Fluent constructors, so plans read like the paper's Fig. 9.
impl Plan {
    /// `Scan(table, cols)` with automatic enum decode.
    pub fn scan(table: impl Into<String>, cols: &[&str]) -> Plan {
        Plan::Scan {
            table: table.into(),
            cols: cols.iter().map(|s| s.to_string()).collect(),
            prune: None,
        }
    }

    /// Attach a summary-index range prune to a `Scan`.
    pub fn pruned(self, col: impl Into<String>, lo: Option<i64>, hi: Option<i64>) -> Plan {
        match self {
            Plan::Scan { table, cols, .. } => Plan::Scan {
                table,
                cols,
                prune: Some(RangePrune {
                    col: col.into(),
                    lo,
                    hi,
                }),
            },
            other => panic!("pruned() applies to Scan, got {other:?}"),
        }
    }

    /// `Select(self, pred)`.
    pub fn select(self, pred: Expr) -> Plan {
        Plan::Select {
            input: Box::new(self),
            pred,
        }
    }

    /// `Project(self, exprs)`.
    pub fn project(self, exprs: Vec<(&str, Expr)>) -> Plan {
        Plan::Project {
            input: Box::new(self),
            exprs: exprs.into_iter().map(|(n, e)| (n.to_owned(), e)).collect(),
        }
    }

    /// `Aggr(self, keys, aggs)` — the check walk picks the physical operator.
    pub fn aggr(self, keys: Vec<(&str, Expr)>, aggs: Vec<AggExpr>) -> Plan {
        Plan::Aggr {
            input: Box::new(self),
            keys: keys.into_iter().map(|(n, e)| (n.to_owned(), e)).collect(),
            aggs,
        }
    }

    /// `Fetch1Join(self, table, rowid, fetch)`.
    pub fn fetch1(self, table: impl Into<String>, rowid: Expr, fetch: &[(&str, &str)]) -> Plan {
        Plan::Fetch1Join {
            input: Box::new(self),
            table: table.into(),
            rowid,
            fetch: fetch
                .iter()
                .map(|(a, b)| (a.to_string(), b.to_string()))
                .collect(),
        }
    }

    /// `TopN(self, keys, limit)`.
    pub fn topn(self, keys: Vec<OrdExp>, limit: usize) -> Plan {
        Plan::TopN {
            input: Box::new(self),
            keys,
            limit,
        }
    }

    /// `Order(self, keys)`.
    pub fn order(self, keys: Vec<OrdExp>) -> Plan {
        Plan::Order {
            input: Box::new(self),
            keys,
        }
    }
}
