//! Recursive-descent parser for PSQL retrieve mappings.

use crate::ast::*;
use crate::error::PsqlError;
use crate::lexer::lex;
use crate::spatial::SpatialOp;
use crate::token::Token;
use pictorial_relational::{CompareOp, Value};
use rtree_geom::Rect;

/// Parses one PSQL query.
pub fn parse_query(input: &str) -> Result<Query, PsqlError> {
    let tokens = lex(input)?;
    let mut p = Parser::new(tokens);
    let q = p.query()?;
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

    fn query(&mut self) -> Result<Query, PsqlError> {
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
            self.at_or_nearest_clause()?
        } else {
            (None, None)
        };
        let where_clause = if self.peek() == Some(&Token::Where) {
            self.next();
            Some(self.expr()?)
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
        let rhs = self.loc_term()?;
        Ok((Some(AtClause { lhs, op, rhs }), None))
    }

    fn loc_term(&mut self) -> Result<LocTerm, PsqlError> {
        match self.peek() {
            Some(Token::LBrace) => Ok(LocTerm::Window(self.window()?)),
            Some(Token::LParen) => {
                self.next();
                let q = self.query()?;
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

    fn expr(&mut self) -> Result<Expr, PsqlError> {
        let mut lhs = self.and_expr()?;
        while self.peek() == Some(&Token::Or) {
            self.next();
            let rhs = self.and_expr()?;
            lhs = Expr::Or(Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn and_expr(&mut self) -> Result<Expr, PsqlError> {
        let mut lhs = self.unary_expr()?;
        while self.peek() == Some(&Token::And) {
            self.next();
            let rhs = self.unary_expr()?;
            lhs = Expr::And(Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn unary_expr(&mut self) -> Result<Expr, PsqlError> {
        match self.peek() {
            Some(Token::Not) => {
                self.next();
                Ok(Expr::Not(Box::new(self.unary_expr()?)))
            }
            Some(Token::LParen) => {
                self.next();
                let e = self.expr()?;
                self.expect(&Token::RParen)?;
                Ok(e)
            }
            _ => self.comparison(),
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
}
