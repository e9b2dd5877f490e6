//! Recursive-descent parser for PSQL retrieve mappings.

use crate::ast::*;
use crate::error::PsqlError;
use crate::lexer::lex;
use crate::spatial::SpatialOp;
use crate::token::Token;
use pictorial_relational::{CompareOp, Value};
use rtree_geom::Rect;

/// Most levels a query may nest. Each parenthesis and each `not` in a
/// `where` expression is one level, and so is each `(select …)`
/// mapping in an `at` clause; a mapping's `where` starts at its
/// mapping's level. An `and` / `or` chain is joined into a balanced
/// tree, so its `n` terms spend about log2(n) levels: a flat list of
/// thousands of terms parses, while every path the later stages walk
/// recursively is at most this deep. Past it, [`parse_query`] fails with
/// a `Parse` error before its own recursion could exhaust a thread's
/// stack. Without a limit a debug build parsed 256 nested parentheses on
/// a 2 MiB stack and overflowed at 512, so 64 keeps a 4× margin.
pub const MAX_NESTING: usize = 64;

/// `level + 1`, or the `Parse` error past [`MAX_NESTING`].
fn deeper(level: usize) -> Result<usize, PsqlError> {
    if level < MAX_NESTING {
        Ok(level + 1)
    } else {
        Err(PsqlError::Parse(format!(
            "query nests deeper than {MAX_NESTING} levels"
        )))
    }
}

/// Joins a chain's terms, kept in order, pairwise into a balanced tree
/// of `join` nodes; each term comes with the deepest level it reaches,
/// and so does the result. `and` and `or` are associative and every
/// stage walks a tree left to right, so the tree answers, fails and
/// picks an index as the left-deep one would.
fn balanced(
    mut terms: Vec<(Expr, usize)>,
    join: fn(Box<Expr>, Box<Expr>) -> Expr,
) -> Result<(Expr, usize), PsqlError> {
    while terms.len() > 1 {
        let mut joined = Vec::with_capacity(terms.len().div_ceil(2));
        let mut rest = terms.into_iter();
        while let Some((a, a_depth)) = rest.next() {
            joined.push(match rest.next() {
                Some((b, b_depth)) => (
                    join(Box::new(a), Box::new(b)),
                    deeper(a_depth.max(b_depth))?,
                ),
                None => (a, a_depth),
            });
        }
        terms = joined;
    }
    Ok(terms.pop().expect("a chain has at least one term"))
}

/// Parses one PSQL query.
pub fn parse_query(input: &str) -> Result<Query, PsqlError> {
    let tokens = lex(input)?;
    let mut p = Parser::new(tokens);
    let q = p.query(0)?;
    p.end()?;
    Ok(q)
}

/// The token stream, consumed front to back: a token is moved out when
/// it is taken, never cloned.
struct Parser {
    tokens: std::iter::Peekable<std::vec::IntoIter<Token>>,
    /// Tokens taken so far.
    pos: usize,
}

impl Parser {
    fn new(tokens: Vec<Token>) -> Self {
        Parser {
            tokens: tokens.into_iter().peekable(),
            pos: 0,
        }
    }

    fn peek(&mut self) -> Option<&Token> {
        self.tokens.peek()
    }

    fn next(&mut self) -> Option<Token> {
        let t = self.tokens.next();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    /// Fails unless every token has been taken.
    fn end(&mut self) -> Result<(), PsqlError> {
        match self.tokens.peek() {
            None => Ok(()),
            Some(t) => Err(PsqlError::Parse(format!(
                "trailing input at token {}: {t}",
                self.pos
            ))),
        }
    }

    fn expect(&mut self, want: &Token) -> Result<(), PsqlError> {
        match self.next() {
            Some(t) if t == *want => Ok(()),
            Some(t) => Err(PsqlError::Parse(format!("expected {want}, found {t}"))),
            None => Err(PsqlError::Parse(format!(
                "expected {want}, found end of input"
            ))),
        }
    }

    fn ident(&mut self) -> Result<String, PsqlError> {
        match self.next() {
            Some(Token::Ident(s)) => Ok(s),
            Some(t) => Err(PsqlError::Parse(format!("expected identifier, found {t}"))),
            None => Err(PsqlError::Parse(
                "expected identifier, found end of input".into(),
            )),
        }
    }

    fn number(&mut self) -> Result<f64, PsqlError> {
        match self.next() {
            Some(Token::Number(n)) => Ok(n),
            Some(t) => Err(PsqlError::Parse(format!("expected number, found {t}"))),
            None => Err(PsqlError::Parse(
                "expected number, found end of input".into(),
            )),
        }
    }

    /// One retrieve mapping at nesting `level`.
    fn query(&mut self, level: usize) -> Result<Query, PsqlError> {
        self.expect(&Token::Select)?;
        let select = self.targets()?;
        self.expect(&Token::From)?;
        let from = self.name_list()?;
        let on = if self.peek() == Some(&Token::On) {
            self.next();
            self.name_list()?
        } else {
            Vec::new()
        };
        let (at, nearest) = if self.peek() == Some(&Token::At) {
            self.next();
            self.at_or_nearest_clause(level)?
        } else {
            (None, None)
        };
        let where_clause = if self.peek() == Some(&Token::Where) {
            self.next();
            Some(self.expr(level)?.0)
        } else {
            None
        };
        let order_by = if self.peek() == Some(&Token::Order) {
            self.next();
            self.expect(&Token::By)?;
            let column = self.column_ref()?;
            let ascending = match self.peek() {
                Some(Token::Asc) => {
                    self.next();
                    true
                }
                Some(Token::Desc) => {
                    self.next();
                    false
                }
                _ => true,
            };
            Some(OrderBy { column, ascending })
        } else {
            None
        };
        let limit = if self.peek() == Some(&Token::Limit) {
            self.next();
            let n = self.number()?;
            if n < 0.0 || n.fract() != 0.0 {
                return Err(PsqlError::Parse(
                    "limit must be a non-negative integer".into(),
                ));
            }
            Some(n as usize)
        } else {
            None
        };
        Ok(Query {
            select,
            from,
            on,
            at,
            nearest,
            where_clause,
            order_by,
            limit,
        })
    }

    fn targets(&mut self) -> Result<Vec<SelectItem>, PsqlError> {
        if self.peek() == Some(&Token::Star) {
            self.next();
            return Ok(vec![SelectItem::Star]);
        }
        let mut out = vec![self.target()?];
        while self.peek() == Some(&Token::Comma) {
            self.next();
            out.push(self.target()?);
        }
        Ok(out)
    }

    fn target(&mut self) -> Result<SelectItem, PsqlError> {
        let first = self.ident()?;
        match self.peek() {
            Some(Token::LParen) => {
                self.next();
                let arg = self.column_ref()?;
                self.expect(&Token::RParen)?;
                Ok(SelectItem::Function { name: first, arg })
            }
            Some(Token::Dot) => {
                self.next();
                let column = self.ident()?;
                Ok(SelectItem::Column(ColumnRef {
                    relation: Some(first),
                    column,
                }))
            }
            _ => Ok(SelectItem::Column(ColumnRef {
                relation: None,
                column: first,
            })),
        }
    }

    fn name_list(&mut self) -> Result<Vec<String>, PsqlError> {
        let mut out = vec![self.ident()?];
        while self.peek() == Some(&Token::Comma) {
            self.next();
            out.push(self.ident()?);
        }
        Ok(out)
    }

    fn column_ref(&mut self) -> Result<ColumnRef, PsqlError> {
        let first = self.ident()?;
        if self.peek() == Some(&Token::Dot) {
            self.next();
            let column = self.ident()?;
            Ok(ColumnRef {
                relation: Some(first),
                column,
            })
        } else {
            Ok(ColumnRef {
                relation: None,
                column: first,
            })
        }
    }

    fn spatial_op(&mut self) -> Result<SpatialOp, PsqlError> {
        match self.next() {
            Some(Token::Covering) => Ok(SpatialOp::Covering),
            Some(Token::CoveredBy) => Ok(SpatialOp::CoveredBy),
            Some(Token::Overlapping) => Ok(SpatialOp::Overlapping),
            Some(Token::Disjoined) => Ok(SpatialOp::Disjoined),
            Some(t) => Err(PsqlError::Parse(format!(
                "expected spatial operator, found {t}"
            ))),
            None => Err(PsqlError::Parse(
                "expected spatial operator, found end of input".into(),
            )),
        }
    }

    /// After the `at` keyword: either the classic spatial predicate
    /// `<loc> <op> <loc-term>` or the k-NN form
    /// `<loc> nearest <k> {x +- dx, y +- dy}` (the window's centre is
    /// the query point).
    fn at_or_nearest_clause(
        &mut self,
        level: usize,
    ) -> Result<(Option<AtClause>, Option<NearestClause>), PsqlError> {
        let lhs = self.column_ref()?;
        if self.peek() == Some(&Token::Nearest) {
            self.next();
            let n = self.number()?;
            if n < 1.0 || n.fract() != 0.0 {
                return Err(PsqlError::Parse(
                    "nearest count must be a positive integer".into(),
                ));
            }
            let point = self.window()?.center();
            return Ok((
                None,
                Some(NearestClause {
                    lhs,
                    k: n as usize,
                    point,
                }),
            ));
        }
        let op = self.spatial_op()?;
        let rhs = self.loc_term(level)?;
        Ok((Some(AtClause { lhs, op, rhs }), None))
    }

    /// The right side of an `at` clause in a mapping at nesting `level`.
    fn loc_term(&mut self, level: usize) -> Result<LocTerm, PsqlError> {
        match self.peek() {
            Some(Token::LBrace) => Ok(LocTerm::Window(self.window()?)),
            Some(Token::LParen) => {
                self.next();
                let q = self.query(deeper(level)?)?;
                self.expect(&Token::RParen)?;
                Ok(LocTerm::Subquery(Box::new(q)))
            }
            _ => Ok(LocTerm::Column(self.column_ref()?)),
        }
    }

    /// The paper's window notation: `{x +- dx, y +- dy}`.
    fn window(&mut self) -> Result<Rect, PsqlError> {
        self.expect(&Token::LBrace)?;
        let cx = self.number()?;
        self.expect(&Token::PlusMinus)?;
        let dx = self.number()?;
        self.expect(&Token::Comma)?;
        let cy = self.number()?;
        self.expect(&Token::PlusMinus)?;
        let dy = self.number()?;
        self.expect(&Token::RBrace)?;
        if dx < 0.0 || dy < 0.0 {
            return Err(PsqlError::Parse(
                "window half-extents must be non-negative".into(),
            ));
        }
        // Literals like `1e400` parse to infinity, and `inf - inf` is
        // NaN — reject anything whose computed bounds leave the finite
        // rectangles the geometry layer is defined over, instead of
        // handing the executor a degenerate window.
        let (min_x, max_x) = (cx - dx, cx + dx);
        let (min_y, max_y) = (cy - dy, cy + dy);
        if !(min_x.is_finite() && min_y.is_finite() && max_x.is_finite() && max_y.is_finite()) {
            return Err(PsqlError::Parse(
                "window bounds must be finite coordinates".into(),
            ));
        }
        Ok(Rect::new(min_x, min_y, max_x, max_y))
    }

    /// One `or` chain at nesting `level`; returns the expression and
    /// the deepest level it reaches.
    fn expr(&mut self, level: usize) -> Result<(Expr, usize), PsqlError> {
        let mut terms = vec![self.and_expr(level)?];
        while self.peek() == Some(&Token::Or) {
            self.next();
            terms.push(self.and_expr(level)?);
        }
        balanced(terms, Expr::Or)
    }

    fn and_expr(&mut self, level: usize) -> Result<(Expr, usize), PsqlError> {
        let mut terms = vec![self.unary_expr(level)?];
        while self.peek() == Some(&Token::And) {
            self.next();
            terms.push(self.unary_expr(level)?);
        }
        balanced(terms, Expr::And)
    }

    fn unary_expr(&mut self, level: usize) -> Result<(Expr, usize), PsqlError> {
        match self.peek() {
            Some(Token::Not) => {
                self.next();
                let (e, depth) = self.unary_expr(deeper(level)?)?;
                Ok((Expr::Not(Box::new(e)), depth))
            }
            Some(Token::LParen) => {
                self.next();
                let inner = self.expr(deeper(level)?)?;
                self.expect(&Token::RParen)?;
                Ok(inner)
            }
            _ => Ok((self.comparison()?, level)),
        }
    }

    fn comparison(&mut self) -> Result<Expr, PsqlError> {
        let first = self.ident()?;
        let lhs = match self.peek() {
            Some(Token::LParen) => {
                self.next();
                let arg = self.column_ref()?;
                self.expect(&Token::RParen)?;
                Operand::Function { name: first, arg }
            }
            Some(Token::Dot) => {
                self.next();
                let column = self.ident()?;
                Operand::Column(ColumnRef {
                    relation: Some(first),
                    column,
                })
            }
            _ => Operand::Column(ColumnRef {
                relation: None,
                column: first,
            }),
        };
        let op = match self.next() {
            Some(Token::Eq) => CompareOp::Eq,
            Some(Token::Ne) => CompareOp::Ne,
            Some(Token::Lt) => CompareOp::Lt,
            Some(Token::Le) => CompareOp::Le,
            Some(Token::Gt) => CompareOp::Gt,
            Some(Token::Ge) => CompareOp::Ge,
            Some(t) => return Err(PsqlError::Parse(format!("expected comparison, found {t}"))),
            None => {
                return Err(PsqlError::Parse(
                    "expected comparison, found end of input".into(),
                ))
            }
        };
        let rhs = match self.next() {
            Some(Token::Number(n)) => {
                if n.fract() == 0.0 && n.abs() < 9e15 {
                    Value::Int(n as i64)
                } else {
                    Value::Float(n)
                }
            }
            Some(Token::Str(s)) => Value::Str(s),
            Some(t) => return Err(PsqlError::Parse(format!("expected literal, found {t}"))),
            None => {
                return Err(PsqlError::Parse(
                    "expected literal, found end of input".into(),
                ))
            }
        };
        Ok(Expr::Compare { lhs, op, rhs })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_2_1_query() {
        let q = parse_query(
            "select city, state, population, loc from cities on us-map \
             at loc covered-by {4 +- 4, 11 +- 9} where population > 450000",
        )
        .unwrap();
        assert_eq!(q.select.len(), 4);
        assert_eq!(q.from, vec!["cities"]);
        assert_eq!(q.on, vec!["us-map"]);
        let at = q.at.unwrap();
        assert_eq!(at.op, SpatialOp::CoveredBy);
        assert_eq!(at.lhs, ColumnRef::plain("loc"));
        assert_eq!(at.rhs, LocTerm::Window(Rect::new(0.0, 2.0, 8.0, 20.0)));
        assert!(matches!(
            q.where_clause,
            Some(Expr::Compare {
                op: CompareOp::Gt,
                ..
            })
        ));
    }

    #[test]
    fn window_with_negative_centers() {
        // Centers left of / below the origin: `-5` must lex as one
        // negative number, not a stray minus.
        let q =
            parse_query("select city from cities on us-map at loc covered-by {-5 +- 2, -10 +- 3}")
                .unwrap();
        let at = q.at.unwrap();
        assert_eq!(at.rhs, LocTerm::Window(Rect::new(-7.0, -13.0, -3.0, -7.0)));
    }

    #[test]
    fn window_with_mixed_signs() {
        let q =
            parse_query("select city from cities on us-map at loc covered-by {-5 +- 2, 10 +- 3}")
                .unwrap();
        assert_eq!(
            q.at.unwrap().rhs,
            LocTerm::Window(Rect::new(-7.0, 7.0, -3.0, 13.0))
        );
    }

    #[test]
    fn window_negative_centers_tight_spacing() {
        // `+-` hugging the center and no blank after the comma must lex
        // identically to the spaced form.
        let q = parse_query("select city from cities on us-map at loc covered-by {-5+- 2,-10 +-3}")
            .unwrap();
        assert_eq!(
            q.at.unwrap().rhs,
            LocTerm::Window(Rect::new(-7.0, -13.0, -3.0, -7.0))
        );
    }

    #[test]
    fn window_negative_fractional_centers_with_sign_glyph() {
        let q = parse_query(
            "select city from cities on us-map at loc covered-by {-0.5 ± 0.25, 2.5 ± 0.5}",
        )
        .unwrap();
        assert_eq!(
            q.at.unwrap().rhs,
            LocTerm::Window(Rect::new(-0.75, 2.0, -0.25, 3.0))
        );
    }

    #[test]
    fn window_negative_half_extent_rejected() {
        // A negative center is meaningful; a negative half-extent is not.
        let err =
            parse_query("select city from cities on us-map at loc covered-by {-5 +- -2, 1 +- 1}")
                .unwrap_err();
        assert!(err.to_string().contains("half-extents"), "{err}");
    }

    #[test]
    fn figure_2_2_juxtaposition() {
        let q = parse_query(
            "select city, zone from cities, time-zones on us-map, time-zone-map \
             at cities.loc covered-by time-zones.loc",
        )
        .unwrap();
        assert_eq!(q.from, vec!["cities", "time-zones"]);
        assert_eq!(q.on, vec!["us-map", "time-zone-map"]);
        let at = q.at.unwrap();
        assert_eq!(at.lhs, ColumnRef::qualified("cities", "loc"));
        assert_eq!(
            at.rhs,
            LocTerm::Column(ColumnRef::qualified("time-zones", "loc"))
        );
    }

    #[test]
    fn nested_mapping() {
        let q = parse_query(
            "select lake, area, lakes.loc from lakes on lake-map \
             at lakes.loc covered-by \
             (select states.loc from states on state-map \
              at states.loc covered-by {4 +- 4, 11 +- 9})",
        )
        .unwrap();
        let at = q.at.unwrap();
        match at.rhs {
            LocTerm::Subquery(inner) => {
                assert_eq!(inner.from, vec!["states"]);
                assert!(inner.at.is_some());
            }
            other => panic!("expected subquery, got {other:?}"),
        }
    }

    #[test]
    fn star_and_functions() {
        let q = parse_query("select * from cities").unwrap();
        assert_eq!(q.select, vec![SelectItem::Star]);
        assert!(q.on.is_empty());
        assert!(q.at.is_none());

        let q2 = parse_query("select lake, area(loc) from lakes where area(loc) >= 5").unwrap();
        assert!(matches!(&q2.select[1], SelectItem::Function { name, .. } if name == "area"));
        assert!(matches!(
            q2.where_clause,
            Some(Expr::Compare {
                lhs: Operand::Function { .. },
                ..
            })
        ));
    }

    #[test]
    fn boolean_precedence() {
        // a AND b OR c parses as (a AND b) OR c.
        let q = parse_query("select x from r where a = 1 and b = 2 or c = 3").unwrap();
        assert!(matches!(q.where_clause, Some(Expr::Or(_, _))));
        // Parentheses override.
        let q2 = parse_query("select x from r where a = 1 and (b = 2 or c = 3)").unwrap();
        assert!(matches!(q2.where_clause, Some(Expr::And(_, _))));
        // NOT binds tightest.
        let q3 = parse_query("select x from r where not a = 1 and b = 2").unwrap();
        assert!(matches!(q3.where_clause, Some(Expr::And(_, _))));
    }

    #[test]
    fn string_literals_in_where() {
        let q = parse_query("select city from cities where state = 'MA'").unwrap();
        assert!(matches!(
            q.where_clause,
            Some(Expr::Compare {
                rhs: Value::Str(_),
                ..
            })
        ));
    }

    #[test]
    fn syntax_errors() {
        assert!(parse_query("select from cities").is_err());
        assert!(parse_query("select x").is_err());
        assert!(parse_query("select x from cities at loc {1 +- 1, 2 +- 2}").is_err());
        assert!(parse_query("select x from cities where population >").is_err());
        assert!(parse_query("select x from r where a = 1 extra").is_err());
        assert!(parse_query("select x from r at loc covered-by {1 +- -1, 2 +- 2}").is_err());
    }

    #[test]
    fn order_by_and_limit() {
        let q = parse_query(
            "select city, population from cities where population > 1000000 \
             order by population desc limit 5",
        )
        .unwrap();
        let ob = q.order_by.unwrap();
        assert_eq!(ob.column, ColumnRef::plain("population"));
        assert!(!ob.ascending);
        assert_eq!(q.limit, Some(5));
        // Default direction is ascending; limit standalone works.
        let q2 = parse_query("select city from cities order by city").unwrap();
        assert!(q2.order_by.unwrap().ascending);
        assert_eq!(q2.limit, None);
        let q3 = parse_query("select city from cities limit 3").unwrap();
        assert_eq!(q3.limit, Some(3));
        // Bad limits rejected.
        assert!(parse_query("select city from cities limit 2.5").is_err());
        assert!(parse_query("select city from cities limit -1").is_err());
        assert!(parse_query("select city from cities order population").is_err());
    }

    #[test]
    fn nearest_clause() {
        let q =
            parse_query("select city from cities on us-map at loc nearest 3 {50 +- 0, 25 +- 0}")
                .unwrap();
        assert!(q.at.is_none());
        let nearest = q.nearest.unwrap();
        assert_eq!(nearest.lhs, ColumnRef::plain("loc"));
        assert_eq!(nearest.k, 3);
        assert_eq!(nearest.point, rtree_geom::Point { x: 50.0, y: 25.0 });
        // Non-zero half-extents are tolerated; only the centre matters.
        let q2 =
            parse_query("select city from cities on us-map at loc nearest 1 {10 +- 5, 20 +- 5}")
                .unwrap();
        assert_eq!(
            q2.nearest.unwrap().point,
            rtree_geom::Point { x: 10.0, y: 20.0 }
        );
    }

    #[test]
    fn nearest_count_must_be_positive_integer() {
        for bad in ["nearest 0", "nearest 2.5", "nearest -1"] {
            let err = parse_query(&format!(
                "select city from cities on us-map at loc {bad} {{50 +- 0, 25 +- 0}}"
            ))
            .unwrap_err();
            assert!(err.to_string().contains("positive integer"), "{bad}: {err}");
        }
    }

    #[test]
    fn float_and_int_literals() {
        let q = parse_query("select x from r where a > 2.5").unwrap();
        assert!(matches!(
            q.where_clause,
            Some(Expr::Compare {
                rhs: Value::Float(_),
                ..
            })
        ));
        let q2 = parse_query("select x from r where a > 450000").unwrap();
        assert!(matches!(
            q2.where_clause,
            Some(Expr::Compare {
                rhs: Value::Int(450000),
                ..
            })
        ));
    }

    fn parens(n: usize) -> String {
        format!(
            "select city from cities where {}population > 1{}",
            "(".repeat(n),
            ")".repeat(n)
        )
    }

    fn nots(n: usize) -> String {
        format!(
            "select city from cities where {}population > 1",
            "not ".repeat(n)
        )
    }

    /// `n` mappings nested in `at` clauses.
    fn mappings(n: usize) -> String {
        format!(
            "select lake from lakes on lake-map at lakes.loc covered-by {}{{4 +- 4, 11 +- 9}}{}",
            "(select lakes.loc from lakes on lake-map at lakes.loc covered-by ".repeat(n),
            ")".repeat(n)
        )
    }

    /// A flat chain of `n` `or` terms, `population > 0` to
    /// `population > n - 1`.
    fn ors(n: usize) -> String {
        let terms: Vec<String> = (0..n).map(|i| format!("population > {i}")).collect();
        format!("select city from cities where {}", terms.join(" or "))
    }

    #[test]
    fn nesting_limit_parses_and_one_past_it_is_a_parse_error() {
        for (shape, text) in [
            ("parentheses", parens as fn(usize) -> String),
            ("not", nots),
            ("mappings", mappings),
        ] {
            parse_query(&text(MAX_NESTING)).unwrap_or_else(|e| panic!("{shape} at the limit: {e}"));
            match parse_query(&text(MAX_NESTING + 1)) {
                Err(PsqlError::Parse(m)) => assert!(m.contains("nests deeper"), "{shape}: {m}"),
                other => panic!("{shape} past the limit: {other:?}"),
            }
        }
        // Levels add up along one path, whatever spends them: a chain
        // of two terms spends one, of three two.
        let half = MAX_NESTING / 2;
        let mixed = |terms: usize| {
            format!(
                "select city from cities where {}{}population > 1{}{}",
                "(".repeat(half),
                "not ".repeat(half - 1),
                " and population > 1".repeat(terms - 1),
                ")".repeat(half)
            )
        };
        assert!(parse_query(&mixed(2)).is_ok());
        assert!(matches!(parse_query(&mixed(3)), Err(PsqlError::Parse(_))));
        // A mapping's `where` starts at its mapping's level: inside
        // `half` mappings, `half` parentheses fit and one more does not.
        let innermost_where = |parens: usize| {
            format!(
                "select lake from lakes on lake-map at lakes.loc covered-by {}{{4 +- 4, 11 +- 9}} \
                 where {}population > 1{}{}",
                "(select lakes.loc from lakes on lake-map at lakes.loc covered-by ".repeat(half),
                "(".repeat(parens),
                ")".repeat(parens),
                ")".repeat(half)
            )
        };
        assert!(parse_query(&innermost_where(half)).is_ok());
        assert!(matches!(
            parse_query(&innermost_where(half + 1)),
            Err(PsqlError::Parse(_))
        ));
    }

    /// The deepest path from `e` to a comparison, counting `and` /
    /// `or` nodes, and its comparisons' literals in order.
    fn shape(e: &Expr, depth: usize, leaves: &mut Vec<Value>) -> usize {
        match e {
            Expr::Or(a, b) | Expr::And(a, b) => {
                shape(a, depth + 1, leaves).max(shape(b, depth + 1, leaves))
            }
            Expr::Not(inner) => shape(inner, depth, leaves),
            Expr::Compare { rhs, .. } => {
                leaves.push(rhs.clone());
                depth
            }
        }
    }

    #[test]
    fn flat_chains_parse_as_balanced_trees_in_order() {
        for n in [1, 2, 3, 5, 64, 65, 10_000] {
            let q = parse_query(&ors(n)).unwrap_or_else(|e| panic!("{n} terms: {e}"));
            let mut leaves = Vec::new();
            let depth = shape(&q.where_clause.unwrap(), 0, &mut leaves);
            assert_eq!(
                depth,
                n.next_power_of_two().trailing_zeros() as usize,
                "{n} terms"
            );
            let want: Vec<Value> = (0..n as i64).map(Value::Int).collect();
            assert_eq!(leaves, want, "{n} terms keep their order");
        }
        // `and` binds tighter than `or` inside a balanced chain too.
        let q = parse_query("select x from r where a = 1 or b = 2 and c = 3 or d = 4").unwrap();
        match q.where_clause {
            Some(Expr::Or(ab, d)) => {
                assert!(matches!(*d, Expr::Compare { .. }));
                assert!(matches!(*ab, Expr::Or(_, ref bc) if matches!(**bc, Expr::And(_, _))));
            }
            other => panic!("{other:?}"),
        }
    }

    /// A text far past the limit is refused before the parser's own
    /// recursion can exhaust a 2 MiB thread stack, which 3 000 nested
    /// parentheses and 500 nested mappings did; a flat chain of 3 000
    /// terms parses into a shallow tree.
    #[test]
    fn deep_texts_fail_without_exhausting_the_stack() {
        let handle = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(|| {
                for text in [parens(10_000), nots(10_000), mappings(500)] {
                    assert!(matches!(parse_query(&text), Err(PsqlError::Parse(_))));
                }
                assert!(parse_query(&ors(3_000)).is_ok());
            })
            .expect("spawn");
        handle.join().expect("no stack overflow");
    }
}
