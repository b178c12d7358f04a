//! Plan and expression rendering: the inverse of [`crate::parser`].
//!
//! [`render_plan`] pretty-prints a [`Plan`] in the paper's textual X100
//! algebra (Figs. 6 & 9), indented like the paper's listings. The output
//! re-parses to an equivalent plan (`parse(render(p)) ≡ p`, enforced by
//! a property test), which makes it both an `EXPLAIN` facility and a
//! plan serialization format.

use crate::expr::{AggFunc, ArithOp, Expr};
use crate::ops::SortOrder;
use crate::plan::Plan;
use x100_vector::{date, CmpOp, Value};

/// Render a plan as indented textual X100 algebra.
pub fn render_plan(plan: &Plan) -> String {
    let mut out = String::new();
    render(plan, 0, &mut out);
    out
}

/// Render an expression in the prefix syntax.
pub fn render_expr(e: &Expr) -> String {
    match e {
        Expr::Col(c) => c.clone(),
        Expr::Lit(v) => render_lit(v),
        Expr::Arith(op, l, r) => {
            let sym = match op {
                ArithOp::Add => "+",
                ArithOp::Sub => "-",
                ArithOp::Mul => "*",
                ArithOp::Div => "/",
            };
            format!("{sym}({}, {})", render_expr(l), render_expr(r))
        }
        Expr::Cmp(op, l, r) => {
            let sym = match op {
                CmpOp::Eq => "==",
                CmpOp::Ne => "!=",
                CmpOp::Lt => "<",
                CmpOp::Le => "<=",
                CmpOp::Gt => ">",
                CmpOp::Ge => ">=",
            };
            format!("{sym}({}, {})", render_expr(l), render_expr(r))
        }
        Expr::And(l, r) => format!("and({}, {})", render_expr(l), render_expr(r)),
        Expr::Or(l, r) => format!("or({}, {})", render_expr(l), render_expr(r)),
        Expr::Not(x) => format!("not({})", render_expr(x)),
        Expr::Cast(ty, x) => format!("cast({}, {})", ty.sig_name(), render_expr(x)),
        Expr::Year(x) => format!("year({})", render_expr(x)),
        Expr::StrContains(x, needle) => format!("contains({}, '{needle}')", render_expr(x)),
    }
}

fn render_lit(v: &Value) -> String {
    match v {
        Value::F64(x) => format!("flt('{x}')"),
        Value::Str(s) => format!("str('{s}')"),
        // i32 literals come almost exclusively from date() in practice;
        // render the calendar form for readability.
        Value::I32(d) => format!("date('{}')", date::format(*d)),
        other => format!("{}", other.as_i64()),
    }
}

fn indent(depth: usize, out: &mut String) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

fn render(plan: &Plan, depth: usize, out: &mut String) {
    indent(depth, out);
    match plan {
        Plan::Scan { table, cols, prune } => {
            out.push_str(&format!("Scan({table}, [{}])", cols.join(", ")));
            if let Some(p) = prune {
                out.push_str(&format!(
                    " /* pruned on {} {:?}..{:?} */",
                    p.col, p.lo, p.hi
                ));
            }
        }
        Plan::Select { input, pred } => {
            out.push_str("Select(\n");
            render(input, depth + 1, out);
            out.push_str(",\n");
            indent(depth + 1, out);
            out.push_str(&render_expr(pred));
            out.push(')');
        }
        Plan::Project { input, exprs } => {
            out.push_str("Project(\n");
            render(input, depth + 1, out);
            out.push_str(",\n");
            indent(depth + 1, out);
            let items: Vec<String> = exprs
                .iter()
                .map(|(n, e)| format!("{n} = {}", render_expr(e)))
                .collect();
            out.push_str(&format!("[ {} ])", items.join(", ")));
        }
        Plan::Aggr { input, keys, aggs } | Plan::OrdAggr { input, keys, aggs } => {
            out.push_str(if matches!(plan, Plan::OrdAggr { .. }) {
                "OrdAggr(\n"
            } else {
                "Aggr(\n"
            });
            render(input, depth + 1, out);
            out.push_str(",\n");
            indent(depth + 1, out);
            let ks: Vec<String> = keys
                .iter()
                .map(|(n, e)| format!("{n} = {}", render_expr(e)))
                .collect();
            out.push_str(&format!("[ {} ],\n", ks.join(", ")));
            indent(depth + 1, out);
            let ags: Vec<String> = aggs
                .iter()
                .map(|a| {
                    let f = match a.func {
                        AggFunc::Sum => "sum",
                        AggFunc::Min => "min",
                        AggFunc::Max => "max",
                        AggFunc::Count => "count",
                        AggFunc::Avg => "avg",
                    };
                    match &a.arg {
                        Some(e) => format!("{} = {f}({})", a.name, render_expr(e)),
                        None => format!("{} = {f}()", a.name),
                    }
                })
                .collect();
            out.push_str(&format!("[ {} ])", ags.join(", ")));
        }
        Plan::Fetch1Join {
            input,
            table,
            rowid,
            fetch,
        } => {
            out.push_str("Fetch1Join(\n");
            render(input, depth + 1, out);
            out.push_str(",\n");
            indent(depth + 1, out);
            out.push_str(&format!(
                "{table}, {}, [{}])",
                render_expr(rowid),
                alias_list(fetch)
            ));
        }
        Plan::FetchNJoin {
            input,
            table,
            lo,
            cnt,
            fetch,
        } => {
            out.push_str("FetchNJoin(\n");
            render(input, depth + 1, out);
            out.push_str(",\n");
            indent(depth + 1, out);
            out.push_str(&format!(
                "{table}, {}, {}, [{}])",
                render_expr(lo),
                render_expr(cnt),
                alias_list(fetch)
            ));
        }
        Plan::CartProd {
            input,
            table,
            fetch,
        } => {
            out.push_str("CartProd(\n");
            render(input, depth + 1, out);
            out.push_str(",\n");
            indent(depth + 1, out);
            out.push_str(&format!("{table}, [{}])", alias_list(fetch)));
        }
        Plan::Join {
            input,
            table,
            pred,
            fetch,
        } => {
            out.push_str("Join(\n");
            render(input, depth + 1, out);
            out.push_str(",\n");
            indent(depth + 1, out);
            out.push_str(&format!(
                "{table}, {}, [{}])",
                render_expr(pred),
                alias_list(fetch)
            ));
        }
        Plan::HashJoin {
            build,
            probe,
            build_keys,
            probe_keys,
            payload,
            join_type,
        } => {
            // Not part of the paper's textual algebra; rendered in the
            // same style for EXPLAIN purposes (not re-parseable).
            out.push_str(&format!("HashJoin[{join_type:?}](\n"));
            render(build, depth + 1, out);
            out.push_str(",\n");
            render(probe, depth + 1, out);
            out.push_str(",\n");
            indent(depth + 1, out);
            let bk: Vec<String> = build_keys.iter().map(render_expr).collect();
            let pk: Vec<String> = probe_keys.iter().map(render_expr).collect();
            out.push_str(&format!(
                "[{}] = [{}], [{}])",
                bk.join(", "),
                pk.join(", "),
                alias_list(payload)
            ));
        }
        Plan::TopN { input, keys, limit } => {
            out.push_str("TopN(\n");
            render(input, depth + 1, out);
            out.push_str(",\n");
            indent(depth + 1, out);
            out.push_str(&format!("[{}], {limit})", ord_list(keys)));
        }
        Plan::Order { input, keys } => {
            out.push_str("Order(\n");
            render(input, depth + 1, out);
            out.push_str(",\n");
            indent(depth + 1, out);
            out.push_str(&format!("[{}])", ord_list(keys)));
        }
        Plan::Array { dims } => {
            let ds: Vec<String> = dims.iter().map(|d| d.to_string()).collect();
            out.push_str(&format!("Array([{}])", ds.join(", ")));
        }
    }
}

fn alias_list(items: &[(String, String)]) -> String {
    items
        .iter()
        .map(|(src, alias)| {
            if src == alias {
                src.clone()
            } else {
                format!("{src} as {alias}")
            }
        })
        .collect::<Vec<_>>()
        .join(", ")
}

fn ord_list(keys: &[crate::ops::OrdExp]) -> String {
    keys.iter()
        .map(|k| {
            format!(
                "{} {}",
                k.col,
                if k.order == SortOrder::Desc {
                    "DESC"
                } else {
                    "ASC"
                }
            )
        })
        .collect::<Vec<_>>()
        .join(", ")
}

/// Assert structural equality of plans while ignoring cosmetic literal
/// type differences the render→parse trip introduces (e.g. `Lit(I64)`
/// round-trips exactly, `Lit(F64)` via `flt('…')` exactly; `Lit(I32)`
/// renders as `date(…)` which parses back to `Lit(I32)`).
#[cfg(test)]
fn plans_equal(a: &Plan, b: &Plan) -> bool {
    // Debug formatting is a faithful structural rendering for these types.
    format!("{a:?}") == format!("{b:?}")
}

/// Expression and plan types that survive the textual round trip:
/// everything except `HashJoin` (EXPLAIN-only) and scan pruning hints
/// (comments).
#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{self, AggExpr};
    use crate::ops::OrdExp;
    use crate::parser::{parse_expr, parse_plan};
    use x100_vector::ScalarType;

    #[test]
    fn exprs_roundtrip() {
        let cases = [
            expr::mul(
                expr::sub(expr::lit_f64(1.0), expr::col("d")),
                expr::col("p"),
            ),
            expr::and(
                expr::le(expr::col("a"), expr::lit_date(1998, 9, 2)),
                expr::or(
                    expr::eq(expr::col("s"), expr::lit_str("X")),
                    expr::not(expr::gt(expr::col("b"), expr::lit_i64(3))),
                ),
            ),
            expr::cast(ScalarType::F64, expr::year(expr::col("d"))),
            expr::contains(expr::col("name"), "green"),
        ];
        for e in cases {
            let text = render_expr(&e);
            let back = parse_expr(&text).unwrap_or_else(|err| panic!("`{text}`: {err}"));
            assert_eq!(
                format!("{e:?}"),
                format!("{back:?}"),
                "roundtrip failed for `{text}`"
            );
        }
    }

    #[test]
    fn plans_roundtrip() {
        let plan = Plan::scan("lineitem", &["a", "b", "s"])
            .select(expr::lt(expr::col("a"), expr::lit_i64(10)))
            .project(vec![
                ("x", expr::mul(expr::col("a"), expr::col("b"))),
                ("s", expr::col("s")),
            ])
            .aggr(
                vec![("s", expr::col("s"))],
                vec![AggExpr::sum("t", expr::col("x")), AggExpr::count("n")],
            )
            .topn(vec![OrdExp::desc("t"), OrdExp::asc("s")], 5);
        let text = render_plan(&plan);
        let back = parse_plan(&text).unwrap_or_else(|e| panic!("{text}\n{e}"));
        assert!(
            plans_equal(&plan, &back),
            "\nrendered:\n{text}\nparsed:\n{back:#?}"
        );
    }

    #[test]
    fn fetch_joins_roundtrip() {
        let plan =
            Plan::scan("t", &["k"]).fetch1("dim", expr::col("k"), &[("v", "val"), ("tag", "tag")]);
        let text = render_plan(&plan);
        let back = parse_plan(&text).expect("parses");
        assert!(plans_equal(&plan, &back), "\n{text}");
        let plan = Plan::FetchNJoin {
            input: Box::new(Plan::scan("o", &["lo", "cnt"])),
            table: "items".into(),
            lo: expr::col("lo"),
            cnt: expr::col("cnt"),
            fetch: vec![("p".into(), "p".into())],
        };
        let text = render_plan(&plan);
        let back = parse_plan(&text).expect("parses");
        assert!(plans_equal(&plan, &back), "\n{text}");
    }

    #[test]
    fn hashjoin_renders_for_explain() {
        use crate::ops::JoinType;
        let plan = Plan::HashJoin {
            build: Box::new(Plan::scan("b", &["k"])),
            probe: Box::new(Plan::scan("p", &["k"])),
            build_keys: vec![expr::col("k")],
            probe_keys: vec![expr::col("k")],
            payload: vec![],
            join_type: JoinType::LeftSemi,
        };
        let text = render_plan(&plan);
        assert!(text.contains("HashJoin[LeftSemi]"), "{text}");
    }
}
