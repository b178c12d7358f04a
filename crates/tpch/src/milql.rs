//! MIL plan interpreter: column-at-a-time execution of X100 plans.
//!
//! To produce the MonetDB/MIL side of Table 4 for *every* implemented
//! query, this module executes the same declarative [`Plan`] trees the
//! X100 engine runs — but with MIL semantics (§3.2): every operator
//! consumes fully materialized BATs and materializes full result BATs.
//! A `Select` materializes an oid list and then *positionally joins
//! every live column* (the paper's six `join(s0, …)` statements);
//! every expression node materializes a full intermediate column; all
//! statements are traced through a [`MilSession`] with bytes and
//! bandwidth.
//!
//! MonetDB/MIL storage has no enumeration compression: enum columns are
//! decoded to full-width BATs at scan time.
#![allow(clippy::field_reassign_with_default)] // flows are built incrementally

use monet_mil::{ops, Bat, MilArith, MilSession};
use std::collections::HashMap;
use x100_engine::expr::{AggFunc, ArithOp, Expr};
use x100_engine::ops::SortOrder;
use x100_engine::plan::Plan;
use x100_engine::{Database, PlanError};
use x100_storage::Table;
use x100_vector::{CmpOp, Value, Vector};

/// A fully materialized dataflow: named BATs of equal length.
#[derive(Debug, Default)]
pub struct MatFlow {
    names: Vec<String>,
    cols: Vec<Bat>,
    rows: usize,
}

impl MatFlow {
    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.rows
    }

    /// Column names.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// Column by name.
    pub fn col(&self, name: &str) -> &Bat {
        let i = self
            .names
            .iter()
            .position(|n| n == name)
            .unwrap_or_else(|| panic!("no column `{name}` in materialized flow"));
        &self.cols[i]
    }

    fn idx(&self, name: &str) -> Result<usize, PlanError> {
        self.names
            .iter()
            .position(|n| n == name)
            .ok_or_else(|| PlanError::UnknownColumn(name.to_owned()))
    }

    /// Render rows as strings matching
    /// [`x100_engine::QueryResult::row_strings`] formatting.
    pub fn row_strings(&self) -> Vec<String> {
        (0..self.rows)
            .map(|r| {
                self.cols
                    .iter()
                    .map(|c| c.get(r).to_string())
                    .collect::<Vec<_>>()
                    .join("|")
            })
            .collect()
    }
}

/// Materialize a stored column as a full-width BAT (decoding enums).
fn column_to_bat(table: &Table, col: usize) -> Bat {
    let sc = table.column(col);
    match sc.dict() {
        None => Bat::from_column(sc.physical()),
        Some(dict) => {
            // MIL storage is uncompressed: decode fully.
            let codes: Vec<u32> = match sc.physical() {
                Vector::U8(c) => c.iter().map(|&x| x as u32).collect(),
                Vector::U16(c) => c.iter().map(|&x| x as u32).collect(),
                _ => unreachable!("enum codes are U8/U16"),
            };
            let oid = Bat::Oid(codes);
            let dict_bat = Bat::from_column(dict.values());
            ops::join_fetch(&oid, &dict_bat)
        }
    }
}

/// Evaluate an expression column-at-a-time, materializing every node.
fn eval_expr(e: &Expr, flow: &MatFlow, s: &mut MilSession) -> Result<Bat, PlanError> {
    match e {
        Expr::Col(name) => Ok(flow.cols[flow.idx(name)?].clone()),
        Expr::Lit(v) => {
            // Constants stay scalars until consumed by a multiplex op;
            // reaching here means a bare literal column is required.
            Ok(broadcast(v, flow.rows))
        }
        Expr::Arith(op, l, r) => {
            let mop = match op {
                ArithOp::Add => MilArith::Add,
                ArithOp::Sub => MilArith::Sub,
                ArithOp::Mul => MilArith::Mul,
                ArithOp::Div => MilArith::Div,
            };
            // Value-operand fast paths (the paper's `[-](1.0, tax)`).
            match (l.as_ref(), r.as_ref()) {
                (Expr::Lit(v), rr) => {
                    let rb = eval_expr(rr, flow, s)?;
                    // Integer arithmetic stays integer (Q12's 1 - high).
                    if let (Bat::I64(d), false) = (&rb, matches!(v, Value::F64(_))) {
                        let vi = v.as_i64();
                        let out = match mop {
                            MilArith::Add => d.iter().map(|&x| vi + x).collect(),
                            MilArith::Sub => d.iter().map(|&x| vi - x).collect(),
                            MilArith::Mul => d.iter().map(|&x| vi * x).collect(),
                            MilArith::Div => panic!("integer division lowers to f64"),
                        };
                        return Ok(s.run(
                            &format!("[{}]({vi},col)", mop_name(mop)),
                            &[&rb],
                            || Bat::I64(out),
                        ));
                    }
                    let rb = to_f64(rb);
                    let v = v.as_f64();
                    Ok(s.run(&format!("[{}]({v},col)", mop_name(mop)), &[&rb], || {
                        ops::multiplex_val_f64(mop, v, &rb)
                    }))
                }
                (ll, Expr::Lit(v)) => {
                    let lb0 = eval_expr(ll, flow, s)?;
                    // Integer arithmetic stays integer (join keys!).
                    if let (Bat::I64(d), false) = (&lb0, matches!(v, Value::F64(_))) {
                        let vi = v.as_i64();
                        let out = match mop {
                            MilArith::Add => d.iter().map(|&x| x + vi).collect(),
                            MilArith::Sub => d.iter().map(|&x| x - vi).collect(),
                            MilArith::Mul => d.iter().map(|&x| x * vi).collect(),
                            MilArith::Div => panic!("integer division lowers to f64"),
                        };
                        return Ok(s.run(
                            &format!("[{}](col,{vi})", mop_name(mop)),
                            &[&lb0],
                            || Bat::I64(out),
                        ));
                    }
                    let lb = to_f64(lb0);
                    let v = v.as_f64();
                    // col ⊕ const == flipped const-op for + and *; for -
                    // and / go through a broadcast.
                    match mop {
                        MilArith::Add | MilArith::Mul => {
                            Ok(s.run(&format!("[{}](col,{v})", mop_name(mop)), &[&lb], || {
                                ops::multiplex_val_f64(mop, v, &lb)
                            }))
                        }
                        MilArith::Sub | MilArith::Div => {
                            let vb = Bat::F64(vec![v; lb.len()]);
                            Ok(s.run(&format!("[{}](col,{v})", mop_name(mop)), &[&lb], || {
                                ops::multiplex_col_f64(mop, &lb, &vb)
                            }))
                        }
                    }
                }
                (ll, rr) => {
                    let lb = to_f64(eval_expr(ll, flow, s)?);
                    let rb = to_f64(eval_expr(rr, flow, s)?);
                    Ok(s.run(
                        &format!("[{}](col,col)", mop_name(mop)),
                        &[&lb, &rb],
                        || ops::multiplex_col_f64(mop, &lb, &rb),
                    ))
                }
            }
        }
        Expr::Cmp(op, l, r) => {
            let lb = eval_expr(l, flow, s)?;
            match r.as_ref() {
                Expr::Lit(v) => Ok(cmp_val_bool(&lb, *op, v, s)),
                _ => {
                    let rb = eval_expr(r, flow, s)?;
                    Ok(cmp_col_bool(&lb, *op, &rb, s))
                }
            }
        }
        Expr::And(l, r) => {
            let lb = eval_expr(l, flow, s)?;
            let rb = eval_expr(r, flow, s)?;
            Ok(s.run("[and](col,col)", &[&lb, &rb], || {
                Bat::U8(
                    lb.as_u8()
                        .iter()
                        .zip(rb.as_u8())
                        .map(|(&a, &b)| a & b)
                        .collect(),
                )
            }))
        }
        Expr::Or(l, r) => {
            let lb = eval_expr(l, flow, s)?;
            let rb = eval_expr(r, flow, s)?;
            Ok(s.run("[or](col,col)", &[&lb, &rb], || {
                Bat::U8(
                    lb.as_u8()
                        .iter()
                        .zip(rb.as_u8())
                        .map(|(&a, &b)| a | b)
                        .collect(),
                )
            }))
        }
        Expr::Not(x) => {
            let xb = eval_expr(x, flow, s)?;
            Ok(s.run("[not](col)", &[&xb], || {
                Bat::U8(xb.as_u8().iter().map(|&a| a ^ 1).collect())
            }))
        }
        Expr::Cast(ty, x) => {
            let xb = eval_expr(x, flow, s)?;
            let name = format!("[{ty}](col)");
            Ok(s.run(&name, &[&xb], || cast_bat(&xb, *ty)))
        }
        Expr::Year(x) => {
            let xb = eval_expr(x, flow, s)?;
            Ok(s.run("[year](col)", &[&xb], || {
                Bat::I32(
                    xb.as_i32()
                        .iter()
                        .map(|&d| x100_vector::date::from_days(d).0)
                        .collect(),
                )
            }))
        }
        Expr::StrContains(x, needle) => {
            let xb = eval_expr(x, flow, s)?;
            let Bat::Str(d) = &xb else {
                panic!("contains() on {}", xb.tail_type())
            };
            Ok(s.run(&format!("[contains](col,'{needle}')"), &[&xb], || {
                Bat::U8(
                    (0..d.len())
                        .map(|i| d.get(i).contains(needle.as_str()) as u8)
                        .collect(),
                )
            }))
        }
    }
}

fn mop_name(m: MilArith) -> &'static str {
    match m {
        MilArith::Add => "+",
        MilArith::Sub => "-",
        MilArith::Mul => "*",
        MilArith::Div => "/",
    }
}

fn broadcast(v: &Value, n: usize) -> Bat {
    match v {
        Value::F64(x) => Bat::F64(vec![*x; n]),
        Value::I64(x) => Bat::I64(vec![*x; n]),
        Value::I32(x) => Bat::I32(vec![*x; n]),
        other => panic!("cannot broadcast {other:?}"),
    }
}

fn to_f64(b: Bat) -> Bat {
    match b {
        Bat::F64(_) => b,
        Bat::I64(v) => Bat::F64(v.into_iter().map(|x| x as f64).collect()),
        Bat::I32(v) => Bat::F64(v.into_iter().map(|x| x as f64).collect()),
        Bat::U8(v) => Bat::F64(v.into_iter().map(|x| x as f64).collect()),
        other => panic!("cannot use {} in f64 arithmetic", other.tail_type()),
    }
}

fn cast_bat(b: &Bat, ty: x100_vector::ScalarType) -> Bat {
    use x100_vector::ScalarType as T;
    match (b, ty) {
        (Bat::U8(v), T::I64) => Bat::I64(v.iter().map(|&x| x as i64).collect()),
        (Bat::U8(v), T::F64) => Bat::F64(v.iter().map(|&x| x as f64).collect()),
        (Bat::I32(v), T::F64) => Bat::F64(v.iter().map(|&x| x as f64).collect()),
        (Bat::I32(v), T::I64) => Bat::I64(v.iter().map(|&x| x as i64).collect()),
        (Bat::I64(v), T::F64) => Bat::F64(v.iter().map(|&x| x as f64).collect()),
        (Bat::Oid(v), T::I64) => Bat::I64(v.iter().map(|&x| x as i64).collect()),
        (Bat::Oid(v), T::F64) => Bat::F64(v.iter().map(|&x| x as f64).collect()),
        (Bat::U16(v), T::I64) => Bat::I64(v.iter().map(|&x| x as i64).collect()),
        (Bat::U16(v), T::F64) => Bat::F64(v.iter().map(|&x| x as f64).collect()),
        (b, t) => panic!("unsupported MIL cast {} -> {t}", b.tail_type()),
    }
}

/// Boolean comparison against a literal, materializing a 0/1 column.
fn cmp_val_bool(b: &Bat, op: CmpOp, v: &Value, s: &mut MilSession) -> Bat {
    let stmt = format!("[{}](col,val)", op.sig_name());
    // Float literal vs integer column: promote the column (mirrors the
    // X100 compiler's promotion; a truncating cast of the literal would
    // change semantics).
    if matches!(v, Value::F64(_)) && !matches!(b, Bat::F64(_) | Bat::Str(_)) {
        let fb = to_f64(b.clone());
        let vf = v.as_f64();
        return s.run(&stmt, &[b], || {
            Bat::U8(fb.as_f64().iter().map(|&x| op.eval(x, vf) as u8).collect())
        });
    }
    macro_rules! go {
        ($data:expr, $v:expr) => {
            s.run(&stmt, &[b], || {
                Bat::U8($data.iter().map(|&x| op.eval(x, $v) as u8).collect())
            })
        };
    }
    match b {
        Bat::I32(d) => go!(d, v.as_i64() as i32),
        Bat::I64(d) => go!(d, v.as_i64()),
        Bat::F64(d) => go!(d, v.as_f64()),
        Bat::U8(d) => go!(d, v.as_i64() as u8),
        Bat::U16(d) => go!(d, v.as_i64() as u16),
        Bat::Oid(d) => go!(d, v.as_i64() as u32),
        Bat::Str(d) => {
            let Value::Str(vs) = v else {
                panic!("string compare needs string literal")
            };
            s.run(&stmt, &[b], || {
                Bat::U8(
                    (0..d.len())
                        .map(|i| op.eval(d.get(i), vs.as_str()) as u8)
                        .collect(),
                )
            })
        }
    }
}

/// Boolean column-column comparison.
fn cmp_col_bool(a: &Bat, op: CmpOp, b: &Bat, s: &mut MilSession) -> Bat {
    let stmt = format!("[{}](col,col)", op.sig_name());
    match (a, b) {
        (Bat::I32(x), Bat::I32(y)) => s.run(&stmt, &[a, b], || {
            Bat::U8(
                x.iter()
                    .zip(y)
                    .map(|(&p, &q)| op.eval(p, q) as u8)
                    .collect(),
            )
        }),
        (Bat::I64(x), Bat::I64(y)) => s.run(&stmt, &[a, b], || {
            Bat::U8(
                x.iter()
                    .zip(y)
                    .map(|(&p, &q)| op.eval(p, q) as u8)
                    .collect(),
            )
        }),
        (Bat::F64(x), Bat::F64(y)) => s.run(&stmt, &[a, b], || {
            Bat::U8(
                x.iter()
                    .zip(y)
                    .map(|(&p, &q)| op.eval(p, q) as u8)
                    .collect(),
            )
        }),
        (a, b) => panic!(
            "unsupported MIL compare {} vs {}",
            a.tail_type(),
            b.tail_type()
        ),
    }
}

/// Execute `plan` with MIL semantics against `db`.
pub fn run_plan(db: &Database, plan: &Plan) -> Result<(MatFlow, MilSession), PlanError> {
    let mut s = MilSession::new();
    let flow = exec(db, plan, &mut s)?;
    Ok((flow, s))
}

fn exec(db: &Database, plan: &Plan, s: &mut MilSession) -> Result<MatFlow, PlanError> {
    match plan {
        Plan::Scan { table, cols, .. } => {
            // MIL has no enum compression and no summary pruning: every
            // requested column materializes fully (decoded).
            let t = db.table(table)?;
            if t.delta_rows() > 0 || !t.deletes().is_empty() {
                return Err(PlanError::Invalid(
                    "MIL interpreter requires reorganized tables".into(),
                ));
            }
            let mut flow = MatFlow::default();
            flow.rows = t.fragment_rows();
            for c in cols {
                let ci = t
                    .column_index(c)
                    .ok_or_else(|| PlanError::UnknownColumn(c.clone()))?;
                let bat = s.run(&format!("{c} := bat(\"{table}\",\"{c}\")"), &[], || {
                    column_to_bat(&t, ci)
                });
                flow.names.push(c.clone());
                flow.cols.push(bat);
            }
            Ok(flow)
        }
        Plan::Select { input, pred } => {
            let flow = exec(db, input, s)?;
            // Predicate → oid list (fast path for simple comparisons),
            // then positional joins of every column (the paper's
            // "six join()s" pattern).
            let oids = match pred {
                Expr::Cmp(op, l, r) => match (l.as_ref(), r.as_ref()) {
                    // Fast path only when the literal's type is directly
                    // comparable; float-vs-integer goes through the
                    // promoting boolean path.
                    (Expr::Col(c), Expr::Lit(v))
                        if !matches!(v, Value::F64(_))
                            || matches!(&flow.cols[flow.idx(c)?], Bat::F64(_)) =>
                    {
                        let b = &flow.cols[flow.idx(c)?];
                        s.run(&format!("s := select({c}).mark"), &[b], || {
                            ops::select_cmp(b, *op, v)
                        })
                    }
                    _ => {
                        let bools = eval_expr(pred, &flow, s)?;
                        s.run("s := select(bools).mark", &[&bools], || {
                            ops::select_cmp(&bools, CmpOp::Eq, &Value::U8(1))
                        })
                    }
                },
                _ => {
                    let bools = eval_expr(pred, &flow, s)?;
                    s.run("s := select(bools).mark", &[&bools], || {
                        ops::select_cmp(&bools, CmpOp::Eq, &Value::U8(1))
                    })
                }
            };
            let mut out = MatFlow::default();
            out.rows = oids.len();
            for (name, colbat) in flow.names.iter().zip(flow.cols.iter()) {
                let joined = s.run(
                    &format!("{name} := join(s,{name})"),
                    &[&oids, colbat],
                    || ops::join_fetch(&oids, colbat),
                );
                out.names.push(name.clone());
                out.cols.push(joined);
            }
            Ok(out)
        }
        Plan::Project { input, exprs } => {
            let flow = exec(db, input, s)?;
            let mut out = MatFlow::default();
            out.rows = flow.rows;
            for (name, e) in exprs {
                let bat = eval_expr(e, &flow, s)?;
                out.names.push(name.clone());
                out.cols.push(bat);
            }
            Ok(out)
        }
        Plan::Aggr { input, keys, aggs } => {
            let flow = exec(db, input, s)?;
            exec_aggr(db, flow, keys, aggs, s)
        }
        Plan::Fetch1Join {
            input,
            table,
            rowid,
            fetch,
        } => {
            let mut flow = exec(db, input, s)?;
            let t = db.table(table)?;
            let rowids = match eval_expr(rowid, &flow, s)? {
                Bat::Oid(v) => Bat::Oid(v),
                other => panic!("MIL fetch join needs oid rowids, got {}", other.tail_type()),
            };
            // MIL storage has no enumeration types: fetches decode.
            for (src, alias) in fetch {
                let ci = t
                    .column_index(src)
                    .ok_or_else(|| PlanError::UnknownColumn(src.clone()))?;
                let base = s.run(&format!("{src} := bat(\"{table}\",\"{src}\")"), &[], || {
                    column_to_bat(&t, ci)
                });
                let joined = s.run(
                    &format!("{alias} := join(rowids,{src})"),
                    &[&rowids, &base],
                    || ops::join_fetch(&rowids, &base),
                );
                flow.names.push(alias.clone());
                flow.cols.push(joined);
            }
            Ok(flow)
        }
        Plan::HashJoin {
            build,
            probe,
            build_keys,
            probe_keys,
            payload,
            join_type,
        } => {
            use x100_engine::ops::JoinType;
            let bflow = exec(db, build, s)?;
            let pflow = exec(db, probe, s)?;
            // Key columns as comparable u64/string keys.
            let bkeys: Vec<Bat> = build_keys
                .iter()
                .map(|e| eval_expr(e, &bflow, s))
                .collect::<Result<_, _>>()?;
            let pkeys: Vec<Bat> = probe_keys
                .iter()
                .map(|e| eval_expr(e, &pflow, s))
                .collect::<Result<_, _>>()?;
            let key_of = |cols: &[Bat], i: usize| -> String {
                cols.iter()
                    .map(|c| c.get(i).to_string())
                    .collect::<Vec<_>>()
                    .join("\u{1}")
            };
            let mut table: HashMap<String, Vec<u32>> = HashMap::new();
            for i in 0..bflow.rows {
                table.entry(key_of(&bkeys, i)).or_default().push(i as u32);
            }
            let mut p_oids: Vec<u32> = Vec::new();
            let mut b_oids: Vec<u32> = Vec::new();
            for i in 0..pflow.rows {
                let hit = table.get(&key_of(&pkeys, i));
                match join_type {
                    JoinType::Inner | JoinType::LeftOuter => {
                        if let Some(rows) = hit {
                            for &r in rows {
                                p_oids.push(i as u32);
                                b_oids.push(r);
                            }
                        } else if *join_type == JoinType::LeftOuter {
                            p_oids.push(i as u32);
                            b_oids.push(u32::MAX);
                        }
                    }
                    JoinType::LeftSemi => {
                        if hit.is_some() {
                            p_oids.push(i as u32);
                        }
                    }
                    JoinType::LeftAnti => {
                        if hit.is_none() {
                            p_oids.push(i as u32);
                        }
                    }
                }
            }
            let p_sel = Bat::Oid(p_oids);
            let mut out = MatFlow::default();
            out.rows = p_sel.len();
            for (name, colbat) in pflow.names.iter().zip(pflow.cols.iter()) {
                let joined = s.run(
                    &format!("{name} := join(match,{name})"),
                    &[&p_sel, colbat],
                    || ops::join_fetch(&p_sel, colbat),
                );
                out.names.push(name.clone());
                out.cols.push(joined);
            }
            if matches!(join_type, JoinType::Inner | JoinType::LeftOuter) {
                let b_sel = Bat::Oid(b_oids);
                for (src, alias) in payload {
                    let ci = bflow.idx(src)?;
                    let joined = s.run(
                        &format!("{alias} := join(match,{src})"),
                        &[&b_sel, &bflow.cols[ci]],
                        || outer_join_fetch(&b_sel, &bflow.cols[ci]),
                    );
                    out.names.push(alias.clone());
                    out.cols.push(joined);
                }
            }
            Ok(out)
        }
        Plan::FetchNJoin {
            input,
            table,
            lo,
            cnt,
            fetch,
        } => {
            let flow = exec(db, input, s)?;
            let t = db.table(table)?;
            let lob = eval_expr(lo, &flow, s)?;
            let cntb = eval_expr(cnt, &flow, s)?;
            let (lo_v, cnt_v) = (lob.as_oid(), cntb.as_oid());
            let mut child_oid = Vec::new();
            let mut trow = Vec::new();
            for i in 0..flow.rows {
                for k in 0..cnt_v[i] {
                    child_oid.push(i as u32);
                    trow.push(lo_v[i] + k);
                }
            }
            let child_sel = Bat::Oid(child_oid);
            let target_sel = Bat::Oid(trow);
            let mut out = MatFlow::default();
            out.rows = child_sel.len();
            for (name, colbat) in flow.names.iter().zip(flow.cols.iter()) {
                let joined = s.run(
                    &format!("{name} := join(exp,{name})"),
                    &[&child_sel, colbat],
                    || ops::join_fetch(&child_sel, colbat),
                );
                out.names.push(name.clone());
                out.cols.push(joined);
            }
            for (src, alias) in fetch {
                let ci = t
                    .column_index(src)
                    .ok_or_else(|| PlanError::UnknownColumn(src.clone()))?;
                let base = column_to_bat(&t, ci);
                let joined = s.run(
                    &format!("{alias} := join(exp,{src})"),
                    &[&target_sel, &base],
                    || ops::join_fetch(&target_sel, &base),
                );
                out.names.push(alias.clone());
                out.cols.push(joined);
            }
            Ok(out)
        }
        Plan::TopN { input, keys, limit } => {
            let flow = exec(db, input, s)?;
            let sorted = sort_flow(flow, keys, s)?;
            let mut out = MatFlow::default();
            out.rows = sorted.rows.min(*limit);
            let keep = Bat::Oid((0..out.rows as u32).collect());
            for (name, colbat) in sorted.names.iter().zip(sorted.cols.iter()) {
                out.names.push(name.clone());
                out.cols.push(ops::join_fetch(&keep, colbat));
            }
            Ok(out)
        }
        Plan::Order { input, keys } => {
            let flow = exec(db, input, s)?;
            sort_flow(flow, keys, s)
        }
        Plan::CartProd { .. } | Plan::Join { .. } | Plan::Array { .. } => Err(PlanError::Invalid(
            "operator not supported by the MIL interpreter".to_owned(),
        )),
    }
}

fn exec_aggr(
    _db: &Database,
    flow: MatFlow,
    keys: &[(String, Expr)],
    aggs: &[x100_engine::AggExpr],
    s: &mut MilSession,
) -> Result<MatFlow, PlanError> {
    // Grouping chain over key columns.
    let mut grouping: Option<(Bat, usize)> = None;
    let mut key_bats: Vec<(String, Bat)> = Vec::new();
    for (name, e) in keys {
        let kb = eval_expr(e, &flow, s)?;
        let mut n = 0usize;
        let g = match &grouping {
            None => s.run(&format!("g := group({name})"), &[&kb], || {
                let (g, cnt) = ops::group(&kb);
                n = cnt;
                g
            }),
            Some((pg, pn)) => {
                let (pg, pn) = (pg.clone(), *pn);
                s.run(&format!("g := group(g,{name})"), &[&pg, &kb], || {
                    let (g, cnt) = ops::group_refine(Some((&pg, pn)), &kb);
                    n = cnt;
                    g
                })
            }
        };
        grouping = Some((g, n));
        key_bats.push((name.clone(), kb));
    }
    let (groups, n_groups) = match grouping {
        Some(g) => g,
        None => {
            // No keys: a single group.
            (
                Bat::Oid(vec![0; flow.rows]),
                usize::from(flow.rows > 0).max(1),
            )
        }
    };
    // Representative oid per group (first occurrence).
    let mut first = vec![u32::MAX; n_groups];
    for (i, &g) in groups.as_oid().iter().enumerate() {
        if first[g as usize] == u32::MAX {
            first[g as usize] = i as u32;
        }
    }
    let first = Bat::Oid(
        first
            .into_iter()
            .map(|x| if x == u32::MAX { 0 } else { x })
            .collect(),
    );

    let mut out = MatFlow::default();
    out.rows = n_groups;
    for (name, kb) in &key_bats {
        let rep = s.run(
            &format!("{name} := join(first,{name})"),
            &[&first, kb],
            || ops::join_fetch(&first, kb),
        );
        out.names.push(name.clone());
        out.cols.push(rep);
    }
    // Counts are shared by COUNT and AVG.
    let counts = s.run("cnt := {count}(g)", &[&groups], || {
        ops::count_grouped(&groups, n_groups)
    });
    for agg in aggs {
        use AggFunc::*;
        match agg.func {
            Count => {
                out.names.push(agg.name.clone());
                out.cols.push(counts.clone());
            }
            Sum | Avg => {
                let arg = agg.arg.as_ref().ok_or_else(|| {
                    PlanError::Invalid(format!("aggregate {} needs an argument", agg.name))
                })?;
                let vb = eval_expr(arg, &flow, s)?;
                let sums = match &vb {
                    Bat::I64(_) if agg.func == Sum => s.run(
                        &format!("{} := {{sum}}(col,g)", agg.name),
                        &[&vb, &groups],
                        || ops::sum_grouped_i64(&vb, &groups, n_groups),
                    ),
                    _ => {
                        let fb = to_f64(vb);
                        s.run(
                            &format!("{} := {{sum}}(col,g)", agg.name),
                            &[&fb, &groups],
                            || ops::sum_grouped_f64(&fb, &groups, n_groups),
                        )
                    }
                };
                let outcol = if agg.func == Avg {
                    s.run(
                        &format!("{} := [/](sum,cnt)", agg.name),
                        &[&sums, &counts],
                        || ops::div_f64_i64(&sums, &counts),
                    )
                } else {
                    sums
                };
                out.names.push(agg.name.clone());
                out.cols.push(outcol);
            }
            Min | Max => {
                let arg = agg.arg.as_ref().ok_or_else(|| {
                    PlanError::Invalid(format!("aggregate {} needs an argument", agg.name))
                })?;
                let vb = eval_expr(arg, &flow, s)?;
                let fname = if agg.func == Min { "min" } else { "max" };
                let outcol = match &vb {
                    Bat::I64(_) => s.run(
                        &format!("{} := {{{fname}}}(col,g)", agg.name),
                        &[&vb, &groups],
                        || {
                            if agg.func == Min {
                                ops::min_grouped_i64(&vb, &groups, n_groups)
                            } else {
                                ops::max_grouped_i64(&vb, &groups, n_groups)
                            }
                        },
                    ),
                    _ => {
                        let fb = to_f64(vb);
                        s.run(
                            &format!("{} := {{{fname}}}(col,g)", agg.name),
                            &[&fb, &groups],
                            || {
                                if agg.func == Min {
                                    ops::min_grouped_f64(&fb, &groups, n_groups)
                                } else {
                                    ops::max_grouped_f64(&fb, &groups, n_groups)
                                }
                            },
                        )
                    }
                };
                out.names.push(agg.name.clone());
                out.cols.push(outcol);
            }
        }
    }
    Ok(out)
}

fn sort_flow(
    flow: MatFlow,
    keys: &[x100_engine::ops::OrdExp],
    s: &mut MilSession,
) -> Result<MatFlow, PlanError> {
    let mut perm: Vec<u32> = (0..flow.rows as u32).collect();
    let key_cols: Vec<(usize, SortOrder)> = keys
        .iter()
        .map(|k| Ok((flow.idx(&k.col)?, k.order)))
        .collect::<Result<_, PlanError>>()?;
    perm.sort_by(|&a, &b| {
        for &(c, ord) in &key_cols {
            let cmpv = bat_cmp(&flow.cols[c], a as usize, b as usize);
            let cmpv = if ord == SortOrder::Desc {
                cmpv.reverse()
            } else {
                cmpv
            };
            if cmpv != std::cmp::Ordering::Equal {
                return cmpv;
            }
        }
        std::cmp::Ordering::Equal
    });
    let sel = Bat::Oid(perm);
    let mut out = MatFlow::default();
    out.rows = flow.rows;
    for (name, colbat) in flow.names.iter().zip(flow.cols.iter()) {
        let joined = s.run(
            &format!("{name} := join(sort,{name})"),
            &[&sel, colbat],
            || ops::join_fetch(&sel, colbat),
        );
        out.names.push(name.clone());
        out.cols.push(joined);
    }
    Ok(out)
}

/// `join_fetch` tolerating the `u32::MAX` outer-join no-match sentinel
/// (emits default values, matching the X100 engine's outer join).
fn outer_join_fetch(oids: &Bat, col: &Bat) -> Bat {
    let idx = oids.as_oid();
    if idx.iter().all(|&i| i != u32::MAX) {
        return ops::join_fetch(oids, col);
    }
    macro_rules! go {
        ($d:expr, $variant:ident, $default:expr) => {
            Bat::$variant(
                idx.iter()
                    .map(|&i| {
                        if i == u32::MAX {
                            $default
                        } else {
                            $d[i as usize]
                        }
                    })
                    .collect(),
            )
        };
    }
    match col {
        Bat::U8(d) => go!(d, U8, 0),
        Bat::U16(d) => go!(d, U16, 0),
        Bat::Oid(d) => go!(d, Oid, 0),
        Bat::I32(d) => go!(d, I32, 0),
        Bat::I64(d) => go!(d, I64, 0),
        Bat::F64(d) => go!(d, F64, 0.0),
        Bat::Str(d) => {
            let mut out = x100_vector::StrVec::with_capacity(idx.len(), 8);
            for &i in idx {
                out.push(if i == u32::MAX { "" } else { d.get(i as usize) });
            }
            Bat::Str(out)
        }
    }
}

fn bat_cmp(b: &Bat, i: usize, j: usize) -> std::cmp::Ordering {
    match b {
        Bat::Oid(v) => v[i].cmp(&v[j]),
        Bat::U8(v) => v[i].cmp(&v[j]),
        Bat::U16(v) => v[i].cmp(&v[j]),
        Bat::I32(v) => v[i].cmp(&v[j]),
        Bat::I64(v) => v[i].cmp(&v[j]),
        Bat::F64(v) => v[i].total_cmp(&v[j]),
        Bat::Str(v) => v.get(i).cmp(v.get(j)),
    }
}
