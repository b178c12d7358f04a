//! Parser for the textual X100 algebra (paper Fig. 5's "X100 Parser").
//!
//! The paper hand-translates SQL into a textual algebra (Figs. 6 & 9):
//!
//! ```text
//! Order(
//!   Project(
//!     Aggr(
//!       Select(
//!         Scan(lineitem, [l_returnflag, l_shipdate, ...]),
//!         <=(l_shipdate, date('1998-09-02'))),
//!       [ l_returnflag, l_linestatus ],
//!       [ sum_qty = sum(l_quantity), count_order = count() ]),
//!     [ l_returnflag, avg_qty = /(sum_qty, dbl(count_order)) ]),
//!   [ l_returnflag ASC, l_linestatus ASC ])
//! ```
//!
//! This module parses that syntax into a [`Plan`]. Expressions use the
//! paper's prefix notation (`+(a, b)`, `<(a, b)`); literals are
//! `flt('1.0')`, `date('1998-09-02')`, `str('BUILDING')`, and bare
//! integers. Extras beyond the paper's figures: `year(e)` and
//! `contains(e, 'x')`. Whether an enum column travels as codes is not
//! written in a plan: the check walk derives it ([`crate::check`]).

use crate::expr::{self, AggExpr, Expr};
use crate::ops::{OrdExp, SortOrder};
use crate::plan::Plan;
use crate::PlanError;
use x100_vector::date::to_days;
use x100_vector::{CmpOp, ScalarType, Value};

/// Parse a textual X100 algebra plan.
pub fn parse_plan(input: &str) -> Result<Plan, PlanError> {
    let mut p = Parser::new(input);
    let plan = p.plan()?;
    p.skip_ws();
    if !p.eof() {
        return Err(p.err("trailing input after plan"));
    }
    Ok(plan)
}

/// Parse a textual X100 expression (exposed for tests and tooling).
pub fn parse_expr(input: &str) -> Result<Expr, PlanError> {
    let mut p = Parser::new(input);
    let e = p.expr()?;
    p.skip_ws();
    if !p.eof() {
        return Err(p.err("trailing input after expression"));
    }
    Ok(e)
}

struct Parser<'a> {
    src: &'a str,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(src: &'a str) -> Self {
        Parser { src, pos: 0 }
    }

    fn err(&self, msg: &str) -> PlanError {
        let rest: String = self.src[self.pos..].chars().take(30).collect();
        PlanError::Invalid(format!(
            "parse error at byte {}: {msg} (near `{rest}`)",
            self.pos
        ))
    }

    fn eof(&self) -> bool {
        self.pos >= self.src.len()
    }

    fn peek(&self) -> Option<char> {
        self.src[self.pos..].chars().next()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek()?;
        self.pos += c.len_utf8();
        Some(c)
    }

    fn skip_ws(&mut self) {
        while let Some(c) = self.peek() {
            if c.is_whitespace() {
                self.bump();
            } else {
                break;
            }
        }
    }

    fn eat(&mut self, c: char) -> Result<(), PlanError> {
        self.skip_ws();
        if self.peek() == Some(c) {
            self.bump();
            Ok(())
        } else {
            Err(self.err(&format!("expected `{c}`")))
        }
    }

    fn eat_opt(&mut self, c: char) -> bool {
        self.skip_ws();
        if self.peek() == Some(c) {
            self.bump();
            true
        } else {
            false
        }
    }

    /// An identifier (or keyword).
    fn ident(&mut self) -> Result<String, PlanError> {
        self.skip_ws();
        let start = self.pos;
        while let Some(c) = self.peek() {
            if c.is_alphanumeric() || c == '_' {
                self.bump();
            } else {
                break;
            }
        }
        if self.pos == start {
            return Err(self.err("expected identifier"));
        }
        Ok(self.src[start..self.pos].to_owned())
    }

    /// A single-quoted string literal body.
    fn quoted(&mut self) -> Result<String, PlanError> {
        self.eat('\'')?;
        let start = self.pos;
        while let Some(c) = self.peek() {
            if c == '\'' {
                let s = self.src[start..self.pos].to_owned();
                self.bump();
                return Ok(s);
            }
            self.bump();
        }
        Err(self.err("unterminated string literal"))
    }

    // ---------------- plans ----------------

    fn plan(&mut self) -> Result<Plan, PlanError> {
        self.skip_ws();
        let head = self.ident()?;
        self.eat('(')?;
        let plan = match head.as_str() {
            "Scan" => self.scan()?,
            "Select" => {
                let input = self.plan()?;
                self.eat(',')?;
                let pred = self.expr()?;
                input.select(pred)
            }
            "Project" => {
                let input = self.plan()?;
                self.eat(',')?;
                let exprs = self.named_expr_list()?;
                Plan::Project {
                    input: Box::new(input),
                    exprs,
                }
            }
            "Aggr" => {
                let input = self.plan()?;
                self.eat(',')?;
                let keys = self.named_expr_list()?;
                self.eat(',')?;
                let aggs = self.agg_list()?;
                Plan::Aggr {
                    input: Box::new(input),
                    keys,
                    aggs,
                }
            }
            "OrdAggr" => {
                let input = self.plan()?;
                self.eat(',')?;
                let keys = self.named_expr_list()?;
                self.eat(',')?;
                let aggs = self.agg_list()?;
                Plan::OrdAggr {
                    input: Box::new(input),
                    keys,
                    aggs,
                }
            }
            "Fetch1Join" => {
                let input = self.plan()?;
                self.eat(',')?;
                let table = self.ident()?;
                self.eat(',')?;
                let rowid = self.expr()?;
                self.eat(',')?;
                let fetch = self.alias_list()?;
                Plan::Fetch1Join {
                    input: Box::new(input),
                    table,
                    rowid,
                    fetch,
                }
            }
            "FetchNJoin" => {
                let input = self.plan()?;
                self.eat(',')?;
                let table = self.ident()?;
                self.eat(',')?;
                let lo = self.expr()?;
                self.eat(',')?;
                let cnt = self.expr()?;
                self.eat(',')?;
                let fetch = self.alias_list()?;
                Plan::FetchNJoin {
                    input: Box::new(input),
                    table,
                    lo,
                    cnt,
                    fetch,
                }
            }
            "CartProd" => {
                let input = self.plan()?;
                self.eat(',')?;
                let table = self.ident()?;
                self.eat(',')?;
                let fetch = self.alias_list()?;
                Plan::CartProd {
                    input: Box::new(input),
                    table,
                    fetch,
                }
            }
            "Join" => {
                let input = self.plan()?;
                self.eat(',')?;
                let table = self.ident()?;
                self.eat(',')?;
                let pred = self.expr()?;
                self.eat(',')?;
                let fetch = self.alias_list()?;
                Plan::Join {
                    input: Box::new(input),
                    table,
                    pred,
                    fetch,
                }
            }
            "TopN" => {
                let input = self.plan()?;
                self.eat(',')?;
                let keys = self.ord_list()?;
                self.eat(',')?;
                let limit = self.integer()? as usize;
                Plan::TopN {
                    input: Box::new(input),
                    keys,
                    limit,
                }
            }
            "Order" => {
                let input = self.plan()?;
                self.eat(',')?;
                let keys = self.ord_list()?;
                Plan::Order {
                    input: Box::new(input),
                    keys,
                }
            }
            "Array" => {
                let dims = self.bracketed(|p| p.integer())?;
                Plan::Array { dims }
            }
            other => return Err(self.err(&format!("unknown operator `{other}`"))),
        };
        self.eat(')')?;
        Ok(plan)
    }

    fn scan(&mut self) -> Result<Plan, PlanError> {
        // Scan(table, [cols]) or Scan(Table(name), [cols]).
        self.skip_ws();
        let mut table = self.ident()?;
        if table == "Table" {
            self.eat('(')?;
            table = self.ident()?;
            self.eat(')')?;
        }
        self.eat(',')?;
        let cols = self.bracketed(|p| p.ident())?;
        Ok(Plan::Scan {
            table,
            cols,
            prune: None,
        })
    }

    /// `[a, b = expr, …]` — bare identifiers name themselves.
    fn named_expr_list(&mut self) -> Result<Vec<(String, Expr)>, PlanError> {
        self.bracketed(|p| {
            let save = p.pos;
            let name = p.ident()?;
            if p.eat_opt('=') {
                let e = p.expr()?;
                Ok((name, e))
            } else {
                p.pos = save;
                let e = p.expr()?;
                match &e {
                    Expr::Col(c) => Ok((c.clone(), e)),
                    _ => Err(p.err("computed list entries need `name = expr`")),
                }
            }
        })
    }

    /// `[name = sum(expr), n = count(), …]`.
    fn agg_list(&mut self) -> Result<Vec<AggExpr>, PlanError> {
        self.bracketed(|p| {
            let name = p.ident()?;
            p.eat('=')?;
            let func = p.ident()?;
            p.eat('(')?;
            let agg = match func.as_str() {
                "count" => AggExpr::count(name),
                "sum" => AggExpr::sum(name, p.expr()?),
                "min" => AggExpr::min(name, p.expr()?),
                "max" => AggExpr::max(name, p.expr()?),
                "avg" => AggExpr::avg(name, p.expr()?),
                other => return Err(p.err(&format!("unknown aggregate `{other}`"))),
            };
            p.eat(')')?;
            Ok(agg)
        })
    }

    /// `[src, src as alias, …]` for fetch lists.
    fn alias_list(&mut self) -> Result<Vec<(String, String)>, PlanError> {
        self.bracketed(|p| {
            let src = p.ident()?;
            p.skip_ws();
            let alias = if p.src[p.pos..].starts_with("as ") || p.src[p.pos..].starts_with("as\t") {
                p.ident()?; // the `as`
                p.ident()?
            } else {
                src.clone()
            };
            Ok((src, alias))
        })
    }

    /// `[col ASC, col DESC, …]`.
    fn ord_list(&mut self) -> Result<Vec<OrdExp>, PlanError> {
        self.bracketed(|p| {
            let c = p.ident()?;
            p.skip_ws();
            let save = p.pos;
            let order = match p.ident() {
                Ok(k) if k.eq_ignore_ascii_case("asc") => SortOrder::Asc,
                Ok(k) if k.eq_ignore_ascii_case("desc") => SortOrder::Desc,
                _ => {
                    p.pos = save;
                    SortOrder::Asc
                }
            };
            Ok(OrdExp { col: c, order })
        })
    }

    fn bracketed<T>(
        &mut self,
        mut item: impl FnMut(&mut Self) -> Result<T, PlanError>,
    ) -> Result<Vec<T>, PlanError> {
        self.eat('[')?;
        let mut out = Vec::new();
        if self.eat_opt(']') {
            return Ok(out);
        }
        loop {
            out.push(item(self)?);
            if self.eat_opt(']') {
                return Ok(out);
            }
            self.eat(',')?;
        }
    }

    fn integer(&mut self) -> Result<i64, PlanError> {
        self.skip_ws();
        let start = self.pos;
        if self.peek() == Some('-') {
            self.bump();
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.bump();
        }
        self.src[start..self.pos]
            .parse()
            .map_err(|_| self.err("expected integer"))
    }

    // ---------------- expressions ----------------

    fn expr(&mut self) -> Result<Expr, PlanError> {
        self.skip_ws();
        // Prefix operators: symbolic comparison / arithmetic heads.
        for (sym, kind) in [
            ("<=", Head::Cmp(CmpOp::Le)),
            (">=", Head::Cmp(CmpOp::Ge)),
            ("!=", Head::Cmp(CmpOp::Ne)),
            ("==", Head::Cmp(CmpOp::Eq)),
            ("<", Head::Cmp(CmpOp::Lt)),
            (">", Head::Cmp(CmpOp::Gt)),
            ("=", Head::Cmp(CmpOp::Eq)),
            ("+", Head::Arith(expr::ArithOp::Add)),
            ("-", Head::Arith(expr::ArithOp::Sub)),
            ("*", Head::Arith(expr::ArithOp::Mul)),
            ("/", Head::Arith(expr::ArithOp::Div)),
        ] {
            if self.src[self.pos..].starts_with(sym)
                && self.src[self.pos + sym.len()..]
                    .trim_start()
                    .starts_with('(')
            {
                self.pos += sym.len();
                self.eat('(')?;
                let l = self.expr()?;
                self.eat(',')?;
                let r = self.expr()?;
                self.eat(')')?;
                return Ok(match kind {
                    Head::Cmp(op) => Expr::Cmp(op, Box::new(l), Box::new(r)),
                    Head::Arith(op) => Expr::Arith(op, Box::new(l), Box::new(r)),
                });
            }
        }
        // Numeric literal.
        if matches!(self.peek(), Some(c) if c.is_ascii_digit() || c == '-') {
            return self.number();
        }
        // Identifier head: function or column.
        let name = self.ident()?;
        self.skip_ws();
        if self.peek() != Some('(') {
            return Ok(Expr::Col(name));
        }
        self.eat('(')?;
        let e = match name.as_str() {
            // `flt('1.0')` is a float literal; `dbl(expr)` is the paper's
            // cast-to-double (Fig. 9's `avg_qty = /(sum_qty, dbl(count_order))`).
            "flt" => {
                let body = self.quoted()?;
                let v: f64 = body.parse().map_err(|_| self.err("bad float literal"))?;
                Expr::Lit(Value::F64(v))
            }
            "dbl" => {
                self.skip_ws();
                if self.peek() == Some('\'') {
                    let body = self.quoted()?;
                    let v: f64 = body.parse().map_err(|_| self.err("bad float literal"))?;
                    Expr::Lit(Value::F64(v))
                } else {
                    Expr::Cast(ScalarType::F64, Box::new(self.expr()?))
                }
            }
            "str" => Expr::Lit(Value::Str(self.quoted()?)),
            "date" => {
                let body = self.quoted()?;
                let parts: Vec<&str> = body.split('-').collect();
                if parts.len() != 3 {
                    return Err(self.err("dates are 'YYYY-MM-DD'"));
                }
                let y: i32 = parts[0].parse().map_err(|_| self.err("bad year"))?;
                let m: u32 = parts[1].parse().map_err(|_| self.err("bad month"))?;
                let d: u32 = parts[2].parse().map_err(|_| self.err("bad day"))?;
                Expr::Lit(Value::I32(to_days(y, m, d)))
            }
            "and" => {
                let l = self.expr()?;
                self.eat(',')?;
                let r = self.expr()?;
                Expr::And(Box::new(l), Box::new(r))
            }
            "or" => {
                let l = self.expr()?;
                self.eat(',')?;
                let r = self.expr()?;
                Expr::Or(Box::new(l), Box::new(r))
            }
            "not" => Expr::Not(Box::new(self.expr()?)),
            "year" => Expr::Year(Box::new(self.expr()?)),
            "contains" => {
                let l = self.expr()?;
                self.eat(',')?;
                let needle = self.quoted()?;
                Expr::StrContains(Box::new(l), needle)
            }
            "cast" => {
                let ty = self.ident()?;
                let ty = match ty.as_str() {
                    "f64" | "dbl" => ScalarType::F64,
                    "i64" | "slng" => ScalarType::I64,
                    "i32" | "sint" => ScalarType::I32,
                    "u32" | "uidx" => ScalarType::U32,
                    other => return Err(self.err(&format!("unknown cast type `{other}`"))),
                };
                self.eat(',')?;
                Expr::Cast(ty, Box::new(self.expr()?))
            }
            other => return Err(self.err(&format!("unknown function `{other}`"))),
        };
        self.eat(')')?;
        Ok(e)
    }

    fn number(&mut self) -> Result<Expr, PlanError> {
        let start = self.pos;
        if self.peek() == Some('-') {
            self.bump();
        }
        let mut is_float = false;
        while let Some(c) = self.peek() {
            if c.is_ascii_digit() {
                self.bump();
            } else if c == '.' && !is_float {
                is_float = true;
                self.bump();
            } else {
                break;
            }
        }
        let text = &self.src[start..self.pos];
        if is_float {
            let v: f64 = text.parse().map_err(|_| self.err("bad float"))?;
            Ok(Expr::Lit(Value::F64(v)))
        } else {
            let v: i64 = text.parse().map_err(|_| self.err("bad integer"))?;
            Ok(Expr::Lit(Value::I64(v)))
        }
    }
}

enum Head {
    Cmp(CmpOp),
    Arith(expr::ArithOp),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_expressions() {
        assert_eq!(
            parse_expr("l_discount").expect("parses"),
            Expr::Col("l_discount".into())
        );
        let e = parse_expr("*( -( flt('1.0'), l_discount), l_extendedprice)").expect("parses");
        assert_eq!(
            e,
            expr::mul(
                expr::sub(expr::lit_f64(1.0), expr::col("l_discount")),
                expr::col("l_extendedprice")
            )
        );
        let e = parse_expr("<=(l_shipdate, date('1998-09-02'))").expect("parses");
        assert_eq!(
            e,
            expr::le(expr::col("l_shipdate"), expr::lit_date(1998, 9, 2))
        );
        let e = parse_expr("and(>(a, 1), contains(s, 'green'))").expect("parses");
        assert_eq!(
            e,
            expr::and(
                expr::gt(expr::col("a"), expr::lit_i64(1)),
                expr::contains(expr::col("s"), "green")
            )
        );
        let e = parse_expr("cast(f64, year(d))").expect("parses");
        assert_eq!(e, expr::cast(ScalarType::F64, expr::year(expr::col("d"))));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_expr("frobnicate(x, y)").is_err());
        assert!(parse_expr("+(a,)").is_err());
        assert!(parse_expr("a extra").is_err());
        assert!(parse_plan("Scan(t)").is_err());
        assert!(parse_plan("Nope(t, [a])").is_err());
    }

    #[test]
    fn parses_figure6_shape() {
        // The paper's Fig. 6 simplified Q1.
        let text = "
            Aggr(
              Project(
                Select(
                  Scan(lineitem, [shipdate, returnflag, discount, extendedprice]),
                  <(shipdate, date('1998-09-03'))),
                [ returnflag = returnflag,
                  discountprice = *( -( flt('1.0'), discount), extendedprice) ]),
              [ returnflag ],
              [ sum_disc_price = sum(discountprice) ])";
        let plan = parse_plan(text).expect("parses");
        match &plan {
            Plan::Aggr { keys, aggs, .. } => {
                assert_eq!(keys.len(), 1);
                assert_eq!(aggs.len(), 1);
                assert_eq!(aggs[0].name, "sum_disc_price");
            }
            other => panic!("unexpected plan {other:?}"),
        }
    }

    #[test]
    fn parses_order_and_topn() {
        let plan = parse_plan("TopN(Scan(t, [a, b]), [a DESC, b], 10)").expect("parses");
        match plan {
            Plan::TopN { keys, limit, .. } => {
                assert_eq!(limit, 10);
                assert_eq!(keys[0].order, SortOrder::Desc);
                assert_eq!(keys[1].order, SortOrder::Asc);
            }
            other => panic!("unexpected {other:?}"),
        }
        let plan = parse_plan("Order(Scan(t, [a]), [a ASC])").expect("parses");
        assert!(matches!(plan, Plan::Order { .. }));
    }

    #[test]
    fn parses_scan_and_fetch() {
        let plan = parse_plan(
            "Fetch1Join(Scan(lineitem, [li_order_idx]), orders, li_order_idx, [o_orderdate as od, o_orderpriority])",
        )
        .expect("parses");
        match plan {
            Plan::Fetch1Join {
                input,
                table,
                fetch,
                ..
            } => {
                assert_eq!(*input, Plan::scan("lineitem", &["li_order_idx"]));
                assert_eq!(table, "orders");
                assert_eq!(
                    fetch,
                    vec![
                        ("o_orderdate".to_owned(), "od".to_owned()),
                        ("o_orderpriority".to_owned(), "o_orderpriority".to_owned())
                    ]
                );
            }
            other => panic!("unexpected {other:?}"),
        }
        // A code hint is not part of the language.
        assert!(parse_plan("Scan(lineitem, [l_returnflag], codes=[l_returnflag])").is_err());
    }

    #[test]
    fn parses_array() {
        let plan = parse_plan("Array([2, 3, 4])").expect("parses");
        match plan {
            Plan::Array { dims } => assert_eq!(dims, vec![2, 3, 4]),
            other => panic!("unexpected {other:?}"),
        }
    }
}
