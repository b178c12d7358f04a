//! Expression compilation: binding names, lowering to primitive programs.
//!
//! An [`crate::expr::Expr`] is lowered into an [`ExprCode`]: a short
//! SSA-style instruction list over a typed register file. Each
//! instruction corresponds to exactly one vectorized primitive
//! invocation per batch, identified by its signature string (what the
//! paper's Table 5 traces per row). The code is immutable and compiled
//! once per query by the check walk ([`crate::check`]); every operator
//! that runs it — one per morsel worker in a parallel run — wraps the
//! shared code in its own [`ExprProg`], which owns the register vectors.
//!
//! The compiler also performs the paper's *compound primitive* rewrite
//! (§4.2): expression sub-trees matching a fused kernel — e.g.
//! `*( -(const, col), col)` — compile to a single fused instruction,
//! keeping intermediates in CPU registers. Fusion always applies; the
//! `compound` Criterion bench (ablation A1) times the fused kernels
//! against their chained expansions.

use crate::batch::{Batch, OutField};
use crate::expr::{ArithOp, Expr};
use crate::profile::Profiler;
use std::sync::Arc;
use x100_vector::{map, CmpOp, ScalarType, SelVec, Value, Vector};

/// A value source: an input column of the batch or a temp register.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Src {
    /// Batch column index.
    Col(u16),
    /// Register index (always lower than the consuming instruction's dst).
    Reg(u16),
}

/// One lowered instruction. `dst` is always a register strictly greater
/// than every `Reg` source, so the interpreter can split the register
/// file without aliasing.
#[derive(Debug, Clone)]
pub enum Instr {
    /// `dst = l ⊕ r` (column ⊕ column).
    ArithCC {
        op: ArithOp,
        ty: ScalarType,
        l: Src,
        r: Src,
        dst: u16,
    },
    /// `dst = l ⊕ v` (column ⊕ constant).
    ArithCV {
        op: ArithOp,
        ty: ScalarType,
        l: Src,
        v: Value,
        dst: u16,
    },
    /// `dst = v ⊕ r` (constant ⊕ column).
    ArithVC {
        op: ArithOp,
        ty: ScalarType,
        v: Value,
        r: Src,
        dst: u16,
    },
    /// `dst = l ⊙ r` (boolean result).
    CmpCC {
        op: CmpOp,
        ty: ScalarType,
        l: Src,
        r: Src,
        dst: u16,
    },
    /// `dst = l ⊙ v` (boolean result).
    CmpCV {
        op: CmpOp,
        ty: ScalarType,
        l: Src,
        v: Value,
        dst: u16,
    },
    /// `dst = (l == v)` or `!=` for string columns.
    StrEqCV {
        l: Src,
        v: String,
        negate: bool,
        dst: u16,
    },
    /// `dst = l AND r`.
    And { l: Src, r: Src, dst: u16 },
    /// `dst = l OR r`.
    Or { l: Src, r: Src, dst: u16 },
    /// `dst = NOT s`.
    Not { s: Src, dst: u16 },
    /// `dst = cast(s)`.
    Cast {
        from: ScalarType,
        to: ScalarType,
        s: Src,
        dst: u16,
    },
    /// `dst = v` broadcast.
    Fill { v: Value, dst: u16 },
    /// Compound: `dst = (v - a) * b` in one loop.
    FusedSubValMul { v: f64, a: Src, b: Src, dst: u16 },
    /// Compound: `dst = (v + a) * b` in one loop.
    FusedAddValMul { v: f64, a: Src, b: Src, dst: u16 },
    /// `dst = year(s)` over i32 days-since-epoch.
    YearOf { s: Src, dst: u16 },
    /// `dst = s.contains(needle)` over a string column.
    StrContainsCV { s: Src, needle: String, dst: u16 },
}

/// A compiled expression's immutable part: instructions, register
/// types and result source. Holds no vector buffers, so the checked
/// plan tree can keep it for the whole query and share it across
/// workers.
#[derive(Debug)]
pub struct ExprCode {
    instrs: Vec<(Instr, String)>,
    reg_types: Vec<ScalarType>,
    result: Src,
    ty: ScalarType,
}

/// One operator's runnable instance of an [`ExprCode`]: the shared code
/// plus a private register file.
#[derive(Debug)]
pub struct ExprProg {
    code: Arc<ExprCode>,
    regs: Vec<Vector>,
}

/// Errors from binding / lowering an expression against a dataflow
/// shape, or from the resource governor during execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanError {
    /// A referenced column is not in the input shape.
    UnknownColumn(String),
    /// Operation is not defined for the operand type(s).
    TypeMismatch(String),
    /// A table or plan-structure problem.
    Invalid(String),
    /// A stateful operator would exceed the query's memory budget.
    ResourceExhausted {
        /// Operator that requested the memory (e.g. `hash-join build`).
        operator: String,
        /// Bytes the operator wanted charged in total.
        requested: usize,
        /// The query's budget in bytes.
        budget: usize,
    },
    /// The query's cancel token was triggered.
    Cancelled,
    /// The query ran past its deadline.
    DeadlineExceeded,
    /// A morsel worker panicked; siblings were cancelled and joined.
    WorkerPanic {
        /// Index of the panicking worker.
        worker: usize,
        /// Stringified panic payload.
        cause: String,
    },
    /// A storage access kept failing after its retry budget (or, with
    /// `unrecoverable`, failed in a way no retry can mend — e.g. a
    /// spill run whose bytes are damaged, or a real write error).
    Io {
        /// The storage access path that failed.
        site: x100_storage::FaultSite,
        /// True when no retry can help: the failure is not the
        /// injector's transient class.
        unrecoverable: bool,
        /// Human-readable failure detail.
        detail: String,
    },
    /// The bind-time plan verifier rejected the compiled plan.
    PlanCheck {
        /// Path to the offending node, e.g. `root.Select.pred` or
        /// `root.Project.expr[2].instr[1]`.
        path: String,
        /// The defect class and details.
        violation: CheckViolation,
    },
}

/// Defect classes the bind-time verifier ([`crate::check`]) rejects.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckViolation {
    /// A primitive was fed operands whose types don't match its
    /// registered signature (or an expression cannot type at all).
    TypeMismatch {
        /// The signature or expression in question.
        signature: String,
        /// What went wrong.
        detail: String,
    },
    /// Selection-vector discipline violation: a `select_*` output fed
    /// where a dense vector is required, or a dense-only primitive run
    /// under a selection.
    SelVectorMisuse {
        /// The signature at the violation point.
        signature: String,
        /// What went wrong.
        detail: String,
    },
    /// An enum-code column escapes the plan in a decoded-value context
    /// without a `Fetch1Join` dictionary decode.
    UndecodedEnumColumn {
        /// The code-carrying column.
        column: String,
        /// Where it leaked (e.g. `arithmetic operand`, `cast operand`).
        context: String,
    },
    /// A compiled instruction's signature is not in the primitive
    /// registry.
    UnknownSignature {
        /// The unregistered signature.
        signature: String,
    },
    /// A spill budget is configured but a buffering operator's kernel
    /// does not advertise spill capability in the catalog
    /// (`SigInfo::spills`) — the budget could never be honored there.
    SpillUnsupported {
        /// The buffering kernel's signature.
        signature: String,
        /// The plan operator that relies on it.
        operator: String,
    },
}

impl std::fmt::Display for CheckViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckViolation::TypeMismatch { signature, detail } => {
                write!(f, "type mismatch in `{signature}`: {detail}")
            }
            CheckViolation::SelVectorMisuse { signature, detail } => {
                write!(f, "selection-vector misuse at `{signature}`: {detail}")
            }
            CheckViolation::UndecodedEnumColumn { column, context } => write!(
                f,
                "enum-code column `{column}` used as {context} without a Fetch1Join decode"
            ),
            CheckViolation::UnknownSignature { signature } => {
                write!(
                    f,
                    "signature `{signature}` is not in the primitive registry"
                )
            }
            CheckViolation::SpillUnsupported {
                signature,
                operator,
            } => write!(
                f,
                "spill budget set but `{operator}` relies on `{signature}`, \
                 which does not advertise spill capability"
            ),
        }
    }
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::UnknownColumn(c) => write!(f, "unknown column `{c}`"),
            PlanError::TypeMismatch(m) => write!(f, "type mismatch: {m}"),
            PlanError::Invalid(m) => write!(f, "invalid plan: {m}"),
            PlanError::ResourceExhausted {
                operator,
                requested,
                budget,
            } => write!(
                f,
                "resource exhausted: {operator} needs {requested} bytes, budget is {budget}"
            ),
            PlanError::Cancelled => write!(f, "query cancelled"),
            PlanError::DeadlineExceeded => write!(f, "query deadline exceeded"),
            PlanError::WorkerPanic { worker, cause } => {
                write!(f, "worker {worker} panicked: {cause}")
            }
            PlanError::Io {
                site,
                unrecoverable,
                detail,
            } => write!(
                f,
                "storage I/O error ({site}{}): {detail}",
                if *unrecoverable {
                    ", unrecoverable"
                } else {
                    ""
                }
            ),
            PlanError::PlanCheck { path, violation } => {
                write!(f, "plan check failed at {path}: {violation}")
            }
        }
    }
}

impl std::error::Error for PlanError {}

/// Numeric promotion rank (i32-class < i64-class < f64).
fn rank(ty: ScalarType) -> Option<u8> {
    match ty {
        ScalarType::I8 | ScalarType::I16 | ScalarType::I32 | ScalarType::U8 | ScalarType::U16 => {
            Some(1)
        }
        ScalarType::I64 | ScalarType::U32 => Some(2),
        ScalarType::F64 => Some(3),
        _ => None,
    }
}

/// The canonical arithmetic type at a promotion rank.
fn rank_type(r: u8) -> ScalarType {
    match r {
        1 => ScalarType::I32,
        2 => ScalarType::I64,
        _ => ScalarType::F64,
    }
}

struct Lowering<'a> {
    fields: &'a [OutField],
    instrs: Vec<(Instr, String)>,
    reg_types: Vec<ScalarType>,
}

impl<'a> Lowering<'a> {
    fn alloc(&mut self, ty: ScalarType) -> u16 {
        self.reg_types.push(ty);
        (self.reg_types.len() - 1) as u16
    }

    fn src_type(&self, s: Src) -> ScalarType {
        match s {
            Src::Col(i) => self.fields[i as usize].ty,
            Src::Reg(i) => self.reg_types[i as usize],
        }
    }

    /// Coerce `s` to exactly `ty`, inserting a cast if needed.
    fn coerce(&mut self, s: Src, ty: ScalarType) -> Result<Src, PlanError> {
        let from = self.src_type(s);
        if from == ty {
            return Ok(s);
        }
        let ok = matches!(
            (from, ty),
            (
                ScalarType::I8
                    | ScalarType::I16
                    | ScalarType::I32
                    | ScalarType::U8
                    | ScalarType::U16
                    | ScalarType::U32
                    | ScalarType::I64,
                ScalarType::I64
            ) | (
                ScalarType::I8
                    | ScalarType::I16
                    | ScalarType::I32
                    | ScalarType::U8
                    | ScalarType::U16,
                ScalarType::I32
            ) | (
                ScalarType::I8
                    | ScalarType::I16
                    | ScalarType::I32
                    | ScalarType::U8
                    | ScalarType::U16
                    | ScalarType::U32
                    | ScalarType::I64,
                ScalarType::F64
            ) | (ScalarType::U8 | ScalarType::U16, ScalarType::U32)
                | (ScalarType::Bool, ScalarType::I64 | ScalarType::F64)
        );
        if !ok {
            return Err(PlanError::TypeMismatch(format!(
                "cannot cast {from} to {ty}"
            )));
        }
        let dst = self.alloc(ty);
        self.instrs.push((
            Instr::Cast {
                from,
                to: ty,
                s,
                dst,
            },
            format!("map_cast_{}_{}_col", from.sig_name(), ty.sig_name()),
        ));
        Ok(Src::Reg(dst))
    }

    /// Coerce a literal to `ty`.
    fn coerce_value(v: &Value, ty: ScalarType) -> Result<Value, PlanError> {
        let out =
            match ty {
                ScalarType::F64 => Value::F64(v.as_f64()),
                ScalarType::I64 => Value::I64(v.as_i64()),
                ScalarType::I32 => Value::I32(i32::try_from(v.as_i64()).map_err(|_| {
                    PlanError::TypeMismatch(format!("literal {v} out of i32 range"))
                })?),
                other => {
                    if v.scalar_type() == other {
                        v.clone()
                    } else {
                        return Err(PlanError::TypeMismatch(format!(
                            "literal {v} is not {other}"
                        )));
                    }
                }
            };
        Ok(out)
    }

    fn lower(&mut self, e: &Expr) -> Result<(Lowered, ScalarType), PlanError> {
        match e {
            Expr::Col(name) => {
                let i = self
                    .fields
                    .iter()
                    .position(|f| &f.name == name)
                    .ok_or_else(|| PlanError::UnknownColumn(name.clone()))?;
                Ok((Lowered::Src(Src::Col(i as u16)), self.fields[i].ty))
            }
            Expr::Lit(v) => Ok((Lowered::Const(v.clone()), v.scalar_type())),
            Expr::Arith(op, l, r) => self.lower_arith(*op, l, r),
            Expr::Cmp(op, l, r) => self.lower_cmp(*op, l, r),
            Expr::And(l, r) | Expr::Or(l, r) => {
                let is_and = matches!(e, Expr::And(..));
                let ls = self.lower_bool(l)?;
                let rs = self.lower_bool(r)?;
                let dst = self.alloc(ScalarType::Bool);
                let (instr, sig) = if is_and {
                    (Instr::And { l: ls, r: rs, dst }, "map_and_bool_col")
                } else {
                    (Instr::Or { l: ls, r: rs, dst }, "map_or_bool_col")
                };
                self.instrs.push((instr, sig.to_owned()));
                Ok((Lowered::Src(Src::Reg(dst)), ScalarType::Bool))
            }
            Expr::Not(x) => {
                let s = self.lower_bool(x)?;
                let dst = self.alloc(ScalarType::Bool);
                self.instrs
                    .push((Instr::Not { s, dst }, "map_not_bool_col".to_owned()));
                Ok((Lowered::Src(Src::Reg(dst)), ScalarType::Bool))
            }
            Expr::Cast(ty, x) => {
                let (lx, xty) = self.lower(x)?;
                match lx {
                    Lowered::Const(v) => Ok((Lowered::Const(Self::coerce_value(&v, *ty)?), *ty)),
                    Lowered::Src(s) => {
                        let _ = xty;
                        let out = self.coerce(s, *ty)?;
                        Ok((Lowered::Src(out), *ty))
                    }
                }
            }
            Expr::Year(x) => {
                let (lx, xty) = self.lower(x)?;
                if xty != ScalarType::I32 {
                    return Err(PlanError::TypeMismatch(format!(
                        "year() expects i32 days-since-epoch, got {xty}"
                    )));
                }
                match lx {
                    Lowered::Const(v) => Ok((
                        Lowered::Const(Value::I32(
                            x100_vector::date::from_days(v.as_i64() as i32).0,
                        )),
                        ScalarType::I32,
                    )),
                    Lowered::Src(s) => {
                        let dst = self.alloc(ScalarType::I32);
                        self.instrs
                            .push((Instr::YearOf { s, dst }, "map_year_i32_col".to_owned()));
                        Ok((Lowered::Src(Src::Reg(dst)), ScalarType::I32))
                    }
                }
            }
            Expr::StrContains(x, needle) => {
                let (lx, xty) = self.lower(x)?;
                if xty != ScalarType::Str {
                    return Err(PlanError::TypeMismatch(format!(
                        "contains() expects a string column, got {xty}"
                    )));
                }
                match lx {
                    Lowered::Const(Value::Str(s)) => Ok((
                        Lowered::Const(Value::Bool(s.contains(needle))),
                        ScalarType::Bool,
                    )),
                    Lowered::Const(_) => unreachable!("typed as Str above"),
                    Lowered::Src(s) => {
                        let dst = self.alloc(ScalarType::Bool);
                        self.instrs.push((
                            Instr::StrContainsCV {
                                s,
                                needle: needle.clone(),
                                dst,
                            },
                            "map_contains_str_col_val".to_owned(),
                        ));
                        Ok((Lowered::Src(Src::Reg(dst)), ScalarType::Bool))
                    }
                }
            }
        }
    }

    fn lower_bool(&mut self, e: &Expr) -> Result<Src, PlanError> {
        let (l, ty) = self.lower(e)?;
        if ty != ScalarType::Bool {
            return Err(PlanError::TypeMismatch(format!(
                "expected boolean expression, got {ty}"
            )));
        }
        match l {
            Lowered::Src(s) => Ok(s),
            Lowered::Const(v) => {
                let dst = self.alloc(ScalarType::Bool);
                self.instrs
                    .push((Instr::Fill { v, dst }, "map_fill_const".to_owned()));
                Ok(Src::Reg(dst))
            }
        }
    }

    fn lower_arith(
        &mut self,
        op: ArithOp,
        l: &Expr,
        r: &Expr,
    ) -> Result<(Lowered, ScalarType), PlanError> {
        let (ll, lty) = self.lower(l)?;
        let (rl, rty) = self.lower(r)?;
        let lr = rank(lty).ok_or_else(|| PlanError::TypeMismatch(format!("{op:?} on {lty}")))?;
        let rr = rank(rty).ok_or_else(|| PlanError::TypeMismatch(format!("{op:?} on {rty}")))?;
        let mut ty = rank_type(lr.max(rr));
        if op == ArithOp::Div {
            ty = ScalarType::F64; // division is float-only
        }
        // Constant folding.
        if let (Lowered::Const(lv), Lowered::Const(rv)) = (&ll, &rl) {
            let folded = match ty {
                ScalarType::F64 => {
                    let (a, b) = (lv.as_f64(), rv.as_f64());
                    Value::F64(match op {
                        ArithOp::Add => a + b,
                        ArithOp::Sub => a - b,
                        ArithOp::Mul => a * b,
                        ArithOp::Div => a / b,
                    })
                }
                _ => {
                    let (a, b) = (lv.as_i64(), rv.as_i64());
                    let x = match op {
                        ArithOp::Add => a.wrapping_add(b),
                        ArithOp::Sub => a.wrapping_sub(b),
                        ArithOp::Mul => a.wrapping_mul(b),
                        ArithOp::Div => unreachable!("div folded as f64"),
                    };
                    if ty == ScalarType::I32 {
                        Value::I32(x as i32)
                    } else {
                        Value::I64(x)
                    }
                }
            };
            return Ok((Lowered::Const(folded), ty));
        }
        // Compound fusion: *( -(const, a), b ) and *( +(const, a), b ).
        if op == ArithOp::Mul && ty == ScalarType::F64 {
            if let Some((fused, sig)) = self.try_fuse(&ll, &rl)? {
                let dst = self.alloc(ScalarType::F64);
                let instr = match fused {
                    FusedShape::SubValMul { v, a, b } => Instr::FusedSubValMul { v, a, b, dst },
                    FusedShape::AddValMul { v, a, b } => Instr::FusedAddValMul { v, a, b, dst },
                };
                self.instrs.push((instr, sig));
                return Ok((Lowered::Src(Src::Reg(dst)), ScalarType::F64));
            }
        }
        let tyn = ty.sig_name();
        let opn = op.sig_name();
        // Coerce operands *before* allocating `dst`: the interpreter
        // requires every source register index to be below `dst`.
        let (instr_builder, sig): (Box<dyn FnOnce(u16) -> Instr>, String) = match (ll, rl) {
            (Lowered::Src(ls), Lowered::Src(rs)) => {
                let ls = self.coerce(ls, ty)?;
                let rs = self.coerce(rs, ty)?;
                (
                    Box::new(move |dst| Instr::ArithCC {
                        op,
                        ty,
                        l: ls,
                        r: rs,
                        dst,
                    }),
                    format!("map_{opn}_{tyn}_col_{tyn}_col"),
                )
            }
            (Lowered::Src(ls), Lowered::Const(rv)) => {
                let ls = self.coerce(ls, ty)?;
                let rv = Self::coerce_value(&rv, ty)?;
                (
                    Box::new(move |dst| Instr::ArithCV {
                        op,
                        ty,
                        l: ls,
                        v: rv,
                        dst,
                    }),
                    format!("map_{opn}_{tyn}_col_{tyn}_val"),
                )
            }
            (Lowered::Const(lv), Lowered::Src(rs)) => {
                let rs = self.coerce(rs, ty)?;
                let lv = Self::coerce_value(&lv, ty)?;
                (
                    Box::new(move |dst| Instr::ArithVC {
                        op,
                        ty,
                        v: lv,
                        r: rs,
                        dst,
                    }),
                    format!("map_{opn}_{tyn}_val_{tyn}_col"),
                )
            }
            (Lowered::Const(_), Lowered::Const(_)) => unreachable!("folded above"),
        };
        let dst = self.alloc(ty);
        self.instrs.push((instr_builder(dst), sig));
        Ok((Lowered::Src(Src::Reg(dst)), ty))
    }

    /// Detect the fusable shapes: the last emitted instruction produced
    /// one multiplicand as `const ± col`.
    fn try_fuse(
        &mut self,
        ll: &Lowered,
        rl: &Lowered,
    ) -> Result<Option<(FusedShape, String)>, PlanError> {
        // Only Src×Src shapes can fuse (a constant multiplicand folds anyway).
        let (Lowered::Src(ls), Lowered::Src(rs)) = (ll, rl) else {
            return Ok(None);
        };
        // Check whether ls (or rs) is the result of the *immediately
        // preceding* `ArithVC{Sub|Add, F64}` instruction; if so, replace it.
        let candidate = |s: &Src, instrs: &[(Instr, String)]| -> Option<(f64, Src, ArithOp)> {
            let Src::Reg(r) = s else { return None };
            let (
                Instr::ArithVC {
                    op,
                    ty: ScalarType::F64,
                    v,
                    r: inner,
                    dst,
                },
                _,
            ) = instrs.last()?
            else {
                return None;
            };
            if *dst == *r && matches!(op, ArithOp::Sub | ArithOp::Add) {
                Some((v.as_f64(), *inner, *op))
            } else {
                None
            }
        };
        for (side, other) in [(ls, rs), (rs, ls)] {
            if let Some((v, a, op)) = candidate(side, &self.instrs) {
                // `other` must not be the register being fused away
                // (e.g. `(1-a) * (1-a)` reuses the same result twice).
                let depends = matches!((*side, *other), (Src::Reg(d), Src::Reg(r)) if r == d);
                if depends {
                    continue;
                }
                self.instrs.pop(); // drop the simple sub/add
                let shape = match op {
                    ArithOp::Sub => FusedShape::SubValMul { v, a, b: *other },
                    ArithOp::Add => FusedShape::AddValMul { v, a, b: *other },
                    _ => unreachable!(),
                };
                let sig = match op {
                    ArithOp::Sub => "map_fused_sub_f64_val_f64_col_mul_f64_col",
                    _ => "map_fused_add_f64_val_f64_col_mul_f64_col",
                };
                return Ok(Some((shape, sig.to_owned())));
            }
        }
        Ok(None)
    }

    fn lower_cmp(
        &mut self,
        op: CmpOp,
        l: &Expr,
        r: &Expr,
    ) -> Result<(Lowered, ScalarType), PlanError> {
        let (ll, lty) = self.lower(l)?;
        let (rl, rty) = self.lower(r)?;
        // String equality special case.
        if lty == ScalarType::Str || rty == ScalarType::Str {
            let negate = match op {
                CmpOp::Eq => false,
                CmpOp::Ne => true,
                other => {
                    return Err(PlanError::TypeMismatch(format!(
                        "{other:?} not supported on strings"
                    )))
                }
            };
            let (s, v) = match (ll, rl) {
                (Lowered::Src(s), Lowered::Const(Value::Str(v)))
                | (Lowered::Const(Value::Str(v)), Lowered::Src(s)) => (s, v),
                _ => {
                    return Err(PlanError::TypeMismatch(
                        "string comparison requires column vs literal".to_owned(),
                    ))
                }
            };
            let dst = self.alloc(ScalarType::Bool);
            self.instrs.push((
                Instr::StrEqCV {
                    l: s,
                    v,
                    negate,
                    dst,
                },
                "map_eq_str_col_val".to_owned(),
            ));
            return Ok((Lowered::Src(Src::Reg(dst)), ScalarType::Bool));
        }
        // Numeric comparison: compare in the *native* shared type when the
        // two sides already agree, otherwise promote.
        let ty = if lty == rty {
            lty
        } else {
            let lr =
                rank(lty).ok_or_else(|| PlanError::TypeMismatch(format!("{op:?} on {lty}")))?;
            let rr =
                rank(rty).ok_or_else(|| PlanError::TypeMismatch(format!("{op:?} on {rty}")))?;
            rank_type(lr.max(rr))
        };
        if let (Lowered::Const(a), Lowered::Const(b)) = (&ll, &rl) {
            let res = if ty == ScalarType::F64 {
                op.eval(a.as_f64(), b.as_f64())
            } else {
                op.eval(a.as_i64(), b.as_i64())
            };
            return Ok((Lowered::Const(Value::Bool(res)), ScalarType::Bool));
        }
        let tyn = ty.sig_name();
        let opn = op.sig_name();
        // Coerce operands before allocating `dst` (interpreter invariant:
        // source register indices < dst).
        let (instr_builder, sig): (Box<dyn FnOnce(u16) -> Instr>, String) = match (ll, rl) {
            (Lowered::Src(ls), Lowered::Src(rs)) => {
                let ls = self.coerce(ls, ty)?;
                let rs = self.coerce(rs, ty)?;
                (
                    Box::new(move |dst| Instr::CmpCC {
                        op,
                        ty,
                        l: ls,
                        r: rs,
                        dst,
                    }),
                    format!("map_{opn}_{tyn}_col_col"),
                )
            }
            (Lowered::Src(ls), Lowered::Const(rv)) => {
                // Comparing a narrow column against a literal that fits its
                // type keeps the narrow type (enum-code predicates).
                let (ls, rv) = self.narrow_or_promote(ls, rv, ty)?;
                let sty = self.src_type(ls);
                (
                    Box::new(move |dst| Instr::CmpCV {
                        op,
                        ty: sty,
                        l: ls,
                        v: rv,
                        dst,
                    }),
                    format!("map_{opn}_{}_col_val", sty.sig_name()),
                )
            }
            (Lowered::Const(lv), Lowered::Src(rs)) => {
                // Flip `v ⊙ col` into `col ⊙' v`.
                let flipped = match op {
                    CmpOp::Eq => CmpOp::Eq,
                    CmpOp::Ne => CmpOp::Ne,
                    CmpOp::Lt => CmpOp::Gt,
                    CmpOp::Le => CmpOp::Ge,
                    CmpOp::Gt => CmpOp::Lt,
                    CmpOp::Ge => CmpOp::Le,
                };
                let (rs, lv) = self.narrow_or_promote(rs, lv, ty)?;
                let sty = self.src_type(rs);
                (
                    Box::new(move |dst| Instr::CmpCV {
                        op: flipped,
                        ty: sty,
                        l: rs,
                        v: lv,
                        dst,
                    }),
                    format!("map_{}_{}_col_val", flipped.sig_name(), sty.sig_name()),
                )
            }
            (Lowered::Const(_), Lowered::Const(_)) => unreachable!("folded above"),
        };
        let dst = self.alloc(ScalarType::Bool);
        self.instrs.push((instr_builder(dst), sig));
        Ok((Lowered::Src(Src::Reg(dst)), ScalarType::Bool))
    }

    /// For `col ⊙ literal`: keep the column's native type when the literal
    /// fits it (avoids casting 6M enum codes to compare against one value),
    /// else cast the column up to `ty`.
    fn narrow_or_promote(
        &mut self,
        s: Src,
        v: Value,
        ty: ScalarType,
    ) -> Result<(Src, Value), PlanError> {
        let sty = self.src_type(s);
        let fits = match sty {
            ScalarType::I8 => {
                i8::try_from(v.as_i64()).is_ok() && v.scalar_type() != ScalarType::F64
            }
            ScalarType::I16 => {
                i16::try_from(v.as_i64()).is_ok() && v.scalar_type() != ScalarType::F64
            }
            ScalarType::I32 => {
                v.scalar_type() != ScalarType::F64 && i32::try_from(v.as_i64()).is_ok()
            }
            ScalarType::I64 => v.scalar_type() != ScalarType::F64,
            ScalarType::U8 => {
                v.scalar_type() != ScalarType::F64 && u8::try_from(v.as_i64()).is_ok()
            }
            ScalarType::U16 => {
                v.scalar_type() != ScalarType::F64 && u16::try_from(v.as_i64()).is_ok()
            }
            ScalarType::U32 => {
                v.scalar_type() != ScalarType::F64 && u32::try_from(v.as_i64()).is_ok()
            }
            ScalarType::F64 => true,
            _ => false,
        };
        if fits {
            let lit = match sty {
                ScalarType::I8 => Value::I8(v.as_i64() as i8),
                ScalarType::I16 => Value::I16(v.as_i64() as i16),
                ScalarType::I32 => Value::I32(v.as_i64() as i32),
                ScalarType::I64 => Value::I64(v.as_i64()),
                ScalarType::U8 => Value::U8(v.as_i64() as u8),
                ScalarType::U16 => Value::U16(v.as_i64() as u16),
                ScalarType::U32 => Value::U32(v.as_i64() as u32),
                ScalarType::F64 => Value::F64(v.as_f64()),
                _ => unreachable!(),
            };
            Ok((s, lit))
        } else {
            let s = self.coerce(s, ty)?;
            Ok((s, Self::coerce_value(&v, ty)?))
        }
    }
}

enum Lowered {
    Src(Src),
    Const(Value),
}

enum FusedShape {
    SubValMul { v: f64, a: Src, b: Src },
    AddValMul { v: f64, a: Src, b: Src },
}

impl ExprProg {
    /// Compile `expr` against the input shape `fields`, fusing every
    /// sub-tree a compound kernel covers.
    pub fn compile(expr: &Expr, fields: &[OutField]) -> Result<Arc<ExprCode>, PlanError> {
        Self::compile_as(expr, fields, Ok)
    }

    /// Compile `expr` and coerce its result to the type `target` picks
    /// from the expression's natural result type (the cast, if any, is
    /// part of the same program — what `Cast(ty, expr)` would lower to).
    pub fn compile_as(
        expr: &Expr,
        fields: &[OutField],
        target: impl FnOnce(ScalarType) -> Result<ScalarType, PlanError>,
    ) -> Result<Arc<ExprCode>, PlanError> {
        let mut low = Lowering {
            fields,
            instrs: Vec::new(),
            reg_types: Vec::new(),
        };
        let (res, natural) = low.lower(expr)?;
        let ty = target(natural)?;
        let result = match res {
            Lowered::Src(s) => low.coerce(s, ty)?,
            Lowered::Const(v) => {
                // Pure-literal expression: broadcast per batch.
                let v = if ty == natural {
                    v
                } else {
                    Lowering::coerce_value(&v, ty)?
                };
                let dst = low.alloc(v.scalar_type());
                low.instrs
                    .push((Instr::Fill { v, dst }, "map_fill_const".to_owned()));
                Src::Reg(dst)
            }
        };
        Ok(Arc::new(ExprCode {
            instrs: low.instrs,
            reg_types: low.reg_types,
            result,
            ty,
        }))
    }

    /// A runnable instance of `code` with a register file pre-sized for
    /// `vector_size`-value batches.
    pub fn new(code: &Arc<ExprCode>, vector_size: usize) -> Self {
        let regs = code
            .reg_types
            .iter()
            .map(|&t| Vector::with_capacity(t, vector_size))
            .collect();
        ExprProg {
            code: code.clone(),
            regs,
        }
    }

    /// The result type of the expression.
    pub fn result_type(&self) -> ScalarType {
        self.code.ty
    }

    /// Swap the result register's buffer with `buf` (zero-copy handoff
    /// of a computed column into an output batch).
    ///
    /// # Panics
    /// Panics if the program is a bare column reference
    /// ([`ExprCode::as_col_ref`] returns `Some` in that case — share the
    /// input column instead).
    pub fn swap_result(&mut self, buf: &mut Vector) {
        match self.code.result {
            Src::Reg(i) => std::mem::swap(&mut self.regs[i as usize], buf),
            Src::Col(_) => panic!("swap_result on a column reference"),
        }
    }

    /// Evaluate over a batch under `sel`, returning the result vector.
    ///
    /// Results are positional: only selected positions are computed and
    /// valid. The returned reference borrows either the batch (bare
    /// column refs) or this program's register file.
    pub fn eval<'a>(
        &'a mut self,
        batch: &'a Batch,
        sel: Option<&SelVec>,
        prof: &mut Profiler,
    ) -> &'a Vector {
        let n = batch.len;
        for (instr, sig) in &self.code.instrs {
            let t0 = prof.start();
            let (tuples, bytes) = exec_instr(instr, batch, &mut self.regs, n, sel);
            prof.record_prim(sig, t0, tuples, bytes);
        }
        match self.code.result {
            Src::Col(i) => &batch.columns[i as usize],
            Src::Reg(i) => &self.regs[i as usize],
        }
    }
}

impl ExprCode {
    /// The result type of the expression.
    pub fn result_type(&self) -> ScalarType {
        self.ty
    }

    /// True if the program is a bare column reference (no instructions).
    pub fn as_col_ref(&self) -> Option<usize> {
        match (self.instrs.is_empty(), self.result) {
            (true, Src::Col(i)) => Some(i as usize),
            _ => None,
        }
    }

    /// Number of lowered instructions (tests / introspection).
    pub fn num_instrs(&self) -> usize {
        self.instrs.len()
    }

    /// The primitive signatures this program invokes, in order.
    pub fn signatures(&self) -> impl Iterator<Item = &str> {
        self.instrs.iter().map(|(_, s)| s.as_str())
    }

    /// The lowered instructions with their signatures, for bind-time
    /// verification ([`crate::check`]).
    pub fn instr_list(&self) -> &[(Instr, String)] {
        &self.instrs
    }

    /// Register types of the program's temp file (bind-time
    /// verification resolves `Src::Reg` operand types through this).
    pub fn reg_types(&self) -> &[ScalarType] {
        &self.reg_types
    }

    /// The source of the program's result (column pass-through or a
    /// register), for the abstract interpreter ([`crate::facts`]).
    pub fn result_src(&self) -> Src {
        self.result
    }
}

/// Resolve a source to a vector, given the register prefix below `dst`.
fn src_vec<'a>(batch: &'a Batch, head: &'a [Vector], s: Src) -> &'a Vector {
    match s {
        Src::Col(i) => &batch.columns[i as usize],
        Src::Reg(i) => &head[i as usize],
    }
}

/// Execute one instruction; returns (tuples, bytes touched) for tracing.
#[allow(clippy::needless_range_loop)] // positional writes under a selection
fn exec_instr(
    instr: &Instr,
    batch: &Batch,
    regs: &mut [Vector],
    n: usize,
    sel: Option<&SelVec>,
) -> (usize, usize) {
    let live = sel.map_or(n, |s| s.len());
    macro_rules! with_dst {
        ($dst:expr, |$d:ident, $head:ident| $body:expr) => {{
            let (head, tail) = regs.split_at_mut(*$dst as usize);
            let $d = &mut tail[0];
            $d.resize_zeroed(n);
            let $head = &*head;
            $body
        }};
    }
    match instr {
        Instr::ArithCC { op, ty, l, r, dst } => with_dst!(dst, |d, head| {
            let lv = src_vec(batch, head, *l);
            let rv = src_vec(batch, head, *r);
            let bytes = 3 * n * ty.width();
            match ty {
                ScalarType::F64 => arith_cc_f64(*op, d.as_f64_mut(), lv.as_f64(), rv.as_f64(), sel),
                ScalarType::I64 => arith_cc_i64(*op, d.as_i64_mut(), lv.as_i64(), rv.as_i64(), sel),
                ScalarType::I32 => arith_cc_i32(*op, d.as_i32_mut(), lv.as_i32(), rv.as_i32(), sel),
                other => panic!("arith on {other}"),
            }
            (live, bytes)
        }),
        Instr::ArithCV { op, ty, l, v, dst } => with_dst!(dst, |d, head| {
            let lv = src_vec(batch, head, *l);
            let bytes = 2 * n * ty.width();
            match ty {
                ScalarType::F64 => arith_cv_f64(*op, d.as_f64_mut(), lv.as_f64(), v.as_f64(), sel),
                ScalarType::I64 => arith_cv_i64(*op, d.as_i64_mut(), lv.as_i64(), v.as_i64(), sel),
                ScalarType::I32 => {
                    arith_cv_i32(*op, d.as_i32_mut(), lv.as_i32(), v.as_i64() as i32, sel)
                }
                other => panic!("arith on {other}"),
            }
            (live, bytes)
        }),
        Instr::ArithVC { op, ty, v, r, dst } => with_dst!(dst, |d, head| {
            let rv = src_vec(batch, head, *r);
            let bytes = 2 * n * ty.width();
            match ty {
                ScalarType::F64 => arith_vc_f64(*op, d.as_f64_mut(), v.as_f64(), rv.as_f64(), sel),
                ScalarType::I64 => arith_vc_i64(*op, d.as_i64_mut(), v.as_i64(), rv.as_i64(), sel),
                ScalarType::I32 => {
                    arith_vc_i32(*op, d.as_i32_mut(), v.as_i64() as i32, rv.as_i32(), sel)
                }
                other => panic!("arith on {other}"),
            }
            (live, bytes)
        }),
        Instr::CmpCC { op, ty, l, r, dst } => with_dst!(dst, |d, head| {
            let lv = src_vec(batch, head, *l);
            let rv = src_vec(batch, head, *r);
            let bytes = 2 * n * ty.width() + n;
            let o = d.as_bool_mut();
            match ty {
                ScalarType::F64 => map::map_cmp_col_col(o, lv.as_f64(), rv.as_f64(), *op, sel),
                ScalarType::I64 => map::map_cmp_col_col(o, lv.as_i64(), rv.as_i64(), *op, sel),
                ScalarType::I32 => map::map_cmp_col_col(o, lv.as_i32(), rv.as_i32(), *op, sel),
                other => panic!("cmp on {other}"),
            }
            (live, bytes)
        }),
        Instr::CmpCV { op, ty, l, v, dst } => with_dst!(dst, |d, head| {
            let lv = src_vec(batch, head, *l);
            let bytes = n * ty.width() + n;
            let o = d.as_bool_mut();
            match ty {
                ScalarType::F64 => map::map_cmp_col_val(o, lv.as_f64(), v.as_f64(), *op, sel),
                ScalarType::I64 => map::map_cmp_col_val(o, lv.as_i64(), v.as_i64(), *op, sel),
                ScalarType::I32 => {
                    map::map_cmp_col_val(o, lv.as_i32(), v.as_i64() as i32, *op, sel)
                }
                ScalarType::I16 => {
                    map::map_cmp_col_val(o, lv.as_i16(), v.as_i64() as i16, *op, sel)
                }
                ScalarType::I8 => map::map_cmp_col_val(o, lv.as_i8(), v.as_i64() as i8, *op, sel),
                ScalarType::U8 => map::map_cmp_col_val(o, lv.as_u8(), v.as_i64() as u8, *op, sel),
                ScalarType::U16 => {
                    map::map_cmp_col_val(o, lv.as_u16(), v.as_i64() as u16, *op, sel)
                }
                ScalarType::U32 => {
                    map::map_cmp_col_val(o, lv.as_u32(), v.as_i64() as u32, *op, sel)
                }
                other => panic!("cmp on {other}"),
            }
            (live, bytes)
        }),
        Instr::StrEqCV { l, v, negate, dst } => with_dst!(dst, |d, head| {
            let lv = src_vec(batch, head, *l).as_str();
            let o = d.as_bool_mut();
            match sel {
                None => {
                    for i in 0..n {
                        o[i] = (lv.get_bytes(i) == v.as_bytes()) != *negate;
                    }
                }
                Some(s) => {
                    for i in s.iter() {
                        o[i] = (lv.get_bytes(i) == v.as_bytes()) != *negate;
                    }
                }
            }
            (live, n * 16 + n)
        }),
        Instr::And { l, r, dst } => with_dst!(dst, |d, head| {
            let lv = src_vec(batch, head, *l);
            let rv = src_vec(batch, head, *r);
            map::map_and(d.as_bool_mut(), lv.as_bool(), rv.as_bool(), sel);
            (live, 3 * n)
        }),
        Instr::Or { l, r, dst } => with_dst!(dst, |d, head| {
            let lv = src_vec(batch, head, *l);
            let rv = src_vec(batch, head, *r);
            map::map_or(d.as_bool_mut(), lv.as_bool(), rv.as_bool(), sel);
            (live, 3 * n)
        }),
        Instr::Not { s, dst } => with_dst!(dst, |d, head| {
            let sv = src_vec(batch, head, *s);
            map::map_not(d.as_bool_mut(), sv.as_bool(), sel);
            (live, 2 * n)
        }),
        Instr::Cast { from, to, s, dst } => with_dst!(dst, |d, head| {
            let sv = src_vec(batch, head, *s);
            let bytes = n * (from.width() + to.width());
            cast_vec(*from, *to, sv, d, sel);
            (live, bytes)
        }),
        Instr::Fill { v, dst } => with_dst!(dst, |d, _head| {
            fill_vec(d, v, n);
            (n, n * v.scalar_type().width())
        }),
        Instr::FusedSubValMul { v, a, b, dst } => with_dst!(dst, |d, head| {
            let av = src_vec(batch, head, *a);
            let bv = src_vec(batch, head, *b);
            x100_vector::compound::map_fused_sub_f64_val_f64_col_mul_f64_col(
                d.as_f64_mut(),
                *v,
                av.as_f64(),
                bv.as_f64(),
                sel,
            );
            (live, 3 * n * 8)
        }),
        Instr::FusedAddValMul { v, a, b, dst } => with_dst!(dst, |d, head| {
            let av = src_vec(batch, head, *a);
            let bv = src_vec(batch, head, *b);
            x100_vector::compound::map_fused_add_f64_val_f64_col_mul_f64_col(
                d.as_f64_mut(),
                *v,
                av.as_f64(),
                bv.as_f64(),
                sel,
            );
            (live, 3 * n * 8)
        }),
        Instr::YearOf { s, dst } => with_dst!(dst, |d, head| {
            let sv = src_vec(batch, head, *s);
            map::map_year_i32_col(d.as_i32_mut(), sv.as_i32(), sel);
            (live, 2 * n * 4)
        }),
        Instr::StrContainsCV { s, needle, dst } => with_dst!(dst, |d, head| {
            let sv = src_vec(batch, head, *s).as_str();
            let o = d.as_bool_mut();
            match sel {
                None => {
                    for i in 0..n {
                        o[i] = sv.get(i).contains(needle.as_str());
                    }
                }
                Some(s) => {
                    for i in s.iter() {
                        o[i] = sv.get(i).contains(needle.as_str());
                    }
                }
            }
            (live, n * 16 + n)
        }),
    }
}

macro_rules! arith_impl {
    ($cc:ident, $cv:ident, $vc:ident, $ty:ty, $div:expr) => {
        fn $cc(op: ArithOp, d: &mut [$ty], l: &[$ty], r: &[$ty], sel: Option<&SelVec>) {
            match op {
                ArithOp::Add => map::map2_col_col(d, l, r, sel, |a, b| add_op(a, b)),
                ArithOp::Sub => map::map2_col_col(d, l, r, sel, |a, b| sub_op(a, b)),
                ArithOp::Mul => map::map2_col_col(d, l, r, sel, |a, b| mul_op(a, b)),
                ArithOp::Div => {
                    let f: fn($ty, $ty) -> $ty = $div;
                    map::map2_col_col(d, l, r, sel, f)
                }
            }
        }
        fn $cv(op: ArithOp, d: &mut [$ty], l: &[$ty], v: $ty, sel: Option<&SelVec>) {
            match op {
                ArithOp::Add => map::map2_col_val(d, l, v, sel, |a, b| add_op(a, b)),
                ArithOp::Sub => map::map2_col_val(d, l, v, sel, |a, b| sub_op(a, b)),
                ArithOp::Mul => map::map2_col_val(d, l, v, sel, |a, b| mul_op(a, b)),
                ArithOp::Div => {
                    let f: fn($ty, $ty) -> $ty = $div;
                    map::map2_col_val(d, l, v, sel, f)
                }
            }
        }
        fn $vc(op: ArithOp, d: &mut [$ty], v: $ty, r: &[$ty], sel: Option<&SelVec>) {
            match op {
                ArithOp::Add => map::map2_val_col(d, v, r, sel, |a, b| add_op(a, b)),
                ArithOp::Sub => map::map2_val_col(d, v, r, sel, |a, b| sub_op(a, b)),
                ArithOp::Mul => map::map2_val_col(d, v, r, sel, |a, b| mul_op(a, b)),
                ArithOp::Div => {
                    let f: fn($ty, $ty) -> $ty = $div;
                    map::map2_val_col(d, v, r, sel, f)
                }
            }
        }
    };
}

trait ArithScalar: Copy {
    fn add_s(self, o: Self) -> Self;
    fn sub_s(self, o: Self) -> Self;
    fn mul_s(self, o: Self) -> Self;
}

impl ArithScalar for f64 {
    fn add_s(self, o: Self) -> Self {
        self + o
    }
    fn sub_s(self, o: Self) -> Self {
        self - o
    }
    fn mul_s(self, o: Self) -> Self {
        self * o
    }
}

impl ArithScalar for i64 {
    fn add_s(self, o: Self) -> Self {
        self.wrapping_add(o)
    }
    fn sub_s(self, o: Self) -> Self {
        self.wrapping_sub(o)
    }
    fn mul_s(self, o: Self) -> Self {
        self.wrapping_mul(o)
    }
}

impl ArithScalar for i32 {
    fn add_s(self, o: Self) -> Self {
        self.wrapping_add(o)
    }
    fn sub_s(self, o: Self) -> Self {
        self.wrapping_sub(o)
    }
    fn mul_s(self, o: Self) -> Self {
        self.wrapping_mul(o)
    }
}

#[inline(always)]
fn add_op<T: ArithScalar>(a: T, b: T) -> T {
    a.add_s(b)
}
#[inline(always)]
fn sub_op<T: ArithScalar>(a: T, b: T) -> T {
    a.sub_s(b)
}
#[inline(always)]
fn mul_op<T: ArithScalar>(a: T, b: T) -> T {
    a.mul_s(b)
}

arith_impl!(arith_cc_f64, arith_cv_f64, arith_vc_f64, f64, |a, b| a / b);
arith_impl!(
    arith_cc_i64,
    arith_cv_i64,
    arith_vc_i64,
    i64,
    |_a, _b| panic!("integer division lowers to f64")
);
arith_impl!(
    arith_cc_i32,
    arith_cv_i32,
    arith_vc_i32,
    i32,
    |_a, _b| panic!("integer division lowers to f64")
);

fn cast_vec(from: ScalarType, to: ScalarType, s: &Vector, d: &mut Vector, sel: Option<&SelVec>) {
    use x100_vector::map::map1;
    match (from, to) {
        (ScalarType::I8, ScalarType::I32) => map1(d.as_i32_mut(), s.as_i8(), sel, |x| x as i32),
        (ScalarType::I16, ScalarType::I32) => map1(d.as_i32_mut(), s.as_i16(), sel, |x| x as i32),
        (ScalarType::U8, ScalarType::I32) => map1(d.as_i32_mut(), s.as_u8(), sel, |x| x as i32),
        (ScalarType::U16, ScalarType::I32) => map1(d.as_i32_mut(), s.as_u16(), sel, |x| x as i32),
        (ScalarType::I8, ScalarType::I64) => map1(d.as_i64_mut(), s.as_i8(), sel, |x| x as i64),
        (ScalarType::I16, ScalarType::I64) => map1(d.as_i64_mut(), s.as_i16(), sel, |x| x as i64),
        (ScalarType::I32, ScalarType::I64) => map1(d.as_i64_mut(), s.as_i32(), sel, |x| x as i64),
        (ScalarType::U8, ScalarType::I64) => map1(d.as_i64_mut(), s.as_u8(), sel, |x| x as i64),
        (ScalarType::U16, ScalarType::I64) => map1(d.as_i64_mut(), s.as_u16(), sel, |x| x as i64),
        (ScalarType::U32, ScalarType::I64) => map1(d.as_i64_mut(), s.as_u32(), sel, |x| x as i64),
        (ScalarType::I8, ScalarType::F64) => map1(d.as_f64_mut(), s.as_i8(), sel, |x| x as f64),
        (ScalarType::I16, ScalarType::F64) => map1(d.as_f64_mut(), s.as_i16(), sel, |x| x as f64),
        (ScalarType::I32, ScalarType::F64) => map1(d.as_f64_mut(), s.as_i32(), sel, |x| x as f64),
        (ScalarType::I64, ScalarType::F64) => map1(d.as_f64_mut(), s.as_i64(), sel, |x| x as f64),
        (ScalarType::U8, ScalarType::F64) => map1(d.as_f64_mut(), s.as_u8(), sel, |x| x as f64),
        (ScalarType::U16, ScalarType::F64) => map1(d.as_f64_mut(), s.as_u16(), sel, |x| x as f64),
        (ScalarType::U32, ScalarType::F64) => map1(d.as_f64_mut(), s.as_u32(), sel, |x| x as f64),
        (ScalarType::U8, ScalarType::U32) => map1(d.as_u32_mut(), s.as_u8(), sel, |x| x as u32),
        (ScalarType::U16, ScalarType::U32) => map1(d.as_u32_mut(), s.as_u16(), sel, |x| x as u32),
        (ScalarType::Bool, ScalarType::I64) => map1(d.as_i64_mut(), s.as_bool(), sel, |x| x as i64),
        (ScalarType::Bool, ScalarType::F64) => {
            map1(d.as_f64_mut(), s.as_bool(), sel, |x| x as u8 as f64)
        }
        (f, t) => panic!("unsupported cast {f} -> {t}"),
    }
}

fn fill_vec(d: &mut Vector, v: &Value, n: usize) {
    d.clear();
    match (d, v) {
        (Vector::F64(b), v) => b.resize(n, v.as_f64()),
        (Vector::I64(b), v) => b.resize(n, v.as_i64()),
        (Vector::I32(b), v) => b.resize(n, v.as_i64() as i32),
        (Vector::Bool(b), Value::Bool(x)) => b.resize(n, *x),
        (Vector::Str(b), Value::Str(x)) => {
            for _ in 0..n {
                b.push(x);
            }
        }
        (d, v) => panic!(
            "fill mismatch: {:?} <- {:?}",
            d.scalar_type(),
            v.scalar_type()
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::*;
    use std::rc::Rc;

    fn fields() -> Vec<OutField> {
        vec![
            OutField::new("a", ScalarType::F64),
            OutField::new("b", ScalarType::F64),
            OutField::new("n", ScalarType::I32),
            OutField::new("s", ScalarType::Str),
            OutField::new("code", ScalarType::U8),
        ]
    }

    fn batch() -> Batch {
        let mut b = Batch::new();
        b.columns
            .push(Rc::new(Vector::F64(vec![1.0, 2.0, 3.0, 4.0])));
        b.columns
            .push(Rc::new(Vector::F64(vec![10.0, 20.0, 30.0, 40.0])));
        b.columns.push(Rc::new(Vector::I32(vec![5, 6, 7, 8])));
        b.columns.push(Rc::new(Vector::Str(
            ["x", "y", "x", "z"].into_iter().collect(),
        )));
        b.columns.push(Rc::new(Vector::U8(vec![0, 1, 2, 3])));
        b.len = 4;
        b
    }

    fn run(e: &Expr) -> Vector {
        let f = fields();
        let mut prog = ExprProg::new(&ExprProg::compile(e, &f).expect("compiles"), 4);
        let b = batch();
        let mut prof = Profiler::new(false);
        prog.eval(&b, None, &mut prof).clone()
    }

    #[test]
    fn col_ref_is_zero_instr() {
        let f = fields();
        let prog = ExprProg::compile(&col("a"), &f).expect("compiles");
        assert_eq!(prog.num_instrs(), 0);
        assert_eq!(prog.as_col_ref(), Some(0));
        assert_eq!(prog.result_type(), ScalarType::F64);
    }

    #[test]
    fn arithmetic_eval() {
        let v = run(&add(col("a"), col("b")));
        assert_eq!(v.as_f64(), &[11.0, 22.0, 33.0, 44.0]);
        let v = run(&mul(col("a"), lit_f64(2.0)));
        assert_eq!(v.as_f64(), &[2.0, 4.0, 6.0, 8.0]);
        let v = run(&sub(lit_f64(1.0), col("a")));
        assert_eq!(v.as_f64(), &[0.0, -1.0, -2.0, -3.0]);
    }

    #[test]
    fn mixed_type_promotion() {
        // i32 column + f64 literal promotes to f64 via an inserted cast.
        let e = add(col("n"), lit_f64(0.5));
        let f = fields();
        let prog = ExprProg::compile(&e, &f).expect("compiles");
        assert_eq!(prog.result_type(), ScalarType::F64);
        let sigs: Vec<&str> = prog.signatures().collect();
        assert!(sigs.contains(&"map_cast_i32_f64_col"), "{sigs:?}");
        let v = run(&e);
        assert_eq!(v.as_f64(), &[5.5, 6.5, 7.5, 8.5]);
    }

    #[test]
    fn compile_as_lowers_like_an_explicit_cast() {
        // One program, same instructions as compiling `Cast(ty, e)`;
        // the identity target adds nothing.
        let f = fields();
        let sigs = |c: &ExprCode| c.signatures().map(str::to_owned).collect::<Vec<_>>();
        for e in [add(col("n"), lit_i32(1)), col("n"), lit_i32(7)] {
            let cast = Expr::Cast(ScalarType::F64, Box::new(e.clone()));
            let want = ExprProg::compile(&cast, &f).expect("compiles");
            let got = ExprProg::compile_as(&e, &f, |_| Ok(ScalarType::F64)).expect("compiles");
            assert_eq!(sigs(&got), sigs(&want));
            assert_eq!(got.result_type(), ScalarType::F64);
            let plain = ExprProg::compile(&e, &f).expect("compiles");
            let same = ExprProg::compile_as(&e, &f, Ok).expect("compiles");
            assert_eq!(sigs(&same), sigs(&plain));
        }
    }

    #[test]
    fn constant_folding() {
        let e = mul(add(lit_f64(1.0), lit_f64(2.0)), col("a"));
        let f = fields();
        let prog = ExprProg::compile(&e, &f).expect("compiles");
        // One instruction: 3.0 * a. No instruction for 1+2.
        assert_eq!(prog.num_instrs(), 1);
        let v = run(&e);
        assert_eq!(v.as_f64(), &[3.0, 6.0, 9.0, 12.0]);
    }

    #[test]
    fn compound_fusion_fires() {
        // Q1's discountprice shape: (1.0 - a) * b.
        let e = mul(sub(lit_f64(1.0), col("a")), col("b"));
        let f = fields();
        let fused = ExprProg::compile(&e, &f).expect("compiles");
        assert_eq!(fused.num_instrs(), 1);
        assert_eq!(
            fused.signatures().next(),
            Some("map_fused_sub_f64_val_f64_col_mul_f64_col")
        );
        assert_eq!(run(&e).as_f64(), &[0.0, -20.0, -60.0, -120.0]);
    }

    #[test]
    fn fusion_with_flipped_operands() {
        // b * (1.0 + a) also fuses.
        let e = mul(col("b"), add(lit_f64(1.0), col("a")));
        let f = fields();
        let prog = ExprProg::compile(&e, &f).expect("compiles");
        assert_eq!(prog.num_instrs(), 1);
        let v = run(&e);
        assert_eq!(v.as_f64(), &[20.0, 60.0, 120.0, 200.0]);
    }

    #[test]
    fn comparisons_and_logic() {
        let v = run(&lt(col("a"), lit_f64(2.5)));
        assert_eq!(v.as_bool(), &[true, true, false, false]);
        let v = run(&and(
            gt(col("a"), lit_f64(1.5)),
            lt(col("b"), lit_f64(35.0)),
        ));
        assert_eq!(v.as_bool(), &[false, true, true, false]);
        let v = run(&not(eq(col("s"), lit_str("x"))));
        assert_eq!(v.as_bool(), &[false, true, false, true]);
    }

    #[test]
    fn narrow_literal_comparison_keeps_code_type() {
        // u8 enum codes compared against a small literal: no cast emitted.
        let e = le(col("code"), lit_i64(1));
        let f = fields();
        let prog = ExprProg::compile(&e, &f).expect("compiles");
        let sigs: Vec<&str> = prog.signatures().collect();
        assert_eq!(sigs, vec!["map_le_u8_col_val"]);
        let v = run(&e);
        assert_eq!(v.as_bool(), &[true, true, false, false]);
    }

    #[test]
    fn flipped_constant_comparison() {
        // 2.5 > a  ≡  a < 2.5
        let v = run(&gt(lit_f64(2.5), col("a")));
        assert_eq!(v.as_bool(), &[true, true, false, false]);
    }

    #[test]
    fn selection_vector_limits_evaluation() {
        let f = fields();
        let code = ExprProg::compile(&div(col("b"), col("a")), &f).expect("compiles");
        let mut prog = ExprProg::new(&code, 4);
        let b = batch();
        let sel = SelVec::from_positions(vec![1, 3]);
        let mut prof = Profiler::new(false);
        let v = prog.eval(&b, Some(&sel), &mut prof);
        assert_eq!(v.as_f64()[1], 10.0);
        assert_eq!(v.as_f64()[3], 10.0);
    }

    #[test]
    fn unknown_column_errors() {
        let f = fields();
        let err = ExprProg::compile(&col("zz"), &f).expect_err("must fail");
        assert_eq!(err, PlanError::UnknownColumn("zz".into()));
    }

    #[test]
    fn string_range_comparison_rejected() {
        let f = fields();
        let err = ExprProg::compile(&lt(col("s"), lit_str("m")), &f).expect_err("must fail");
        assert!(matches!(err, PlanError::TypeMismatch(_)));
    }

    #[test]
    fn profiling_records_signatures() {
        let f = fields();
        let code =
            ExprProg::compile(&mul(sub(lit_f64(1.0), col("a")), col("b")), &f).expect("compiles");
        let mut prog = ExprProg::new(&code, 4);
        let b = batch();
        let mut prof = Profiler::new(true);
        prog.eval(&b, None, &mut prof);
        let st = prof
            .primitive("map_fused_sub_f64_val_f64_col_mul_f64_col")
            .expect("traced");
        assert_eq!(st.calls, 1);
        assert_eq!(st.tuples, 4);
    }

    #[test]
    fn literal_only_expression_broadcasts() {
        let v = run(&lit_f64(7.0));
        assert_eq!(v.as_f64(), &[7.0; 4]);
    }
}
