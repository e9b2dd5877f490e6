//! Query planning: from AST to an executable plan.
//!
//! PSQL queries "are preprocessed and translated into ordinary SQL
//! entries" plus spatial-operator calls (§2.2); this module is that
//! preprocessor. It resolves every name the executor needs — columns,
//! the pictures `loc` columns point into, the `where` clause — picks
//! where relation 0's rows come from (direct spatial search through a
//! picture's R-tree, a juxtaposition, a nested mapping, a B-tree index
//! range, or a scan), and checks that the rows it yields carry one tuple
//! per `from`-relation. The executor only binds those names and runs.

use crate::ast::{
    AtClause, ColumnRef, Expr, LocTerm, NearestClause, Operand, OrderBy, Query, SelectItem,
};
use crate::database::PictorialDatabase;
use crate::error::PsqlError;
use crate::spatial::SpatialOp;
use pictorial_relational::{ColumnType, CompareOp, Schema, Value};
use rtree_geom::{Point, Rect};

/// A resolved column: which `from`-relation, which column index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ResolvedColumn {
    /// Index into [`Plan::relations`].
    pub(crate) rel: usize,
    /// Column index within that relation's schema.
    pub(crate) col: usize,
}

/// A `loc` column and the picture it points into.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Loc {
    pub(crate) column: ResolvedColumn,
    pub(crate) picture: String,
}

/// Where relation 0's candidate rows come from.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Source {
    /// Scan all tuples.
    FullScan,
    /// B-tree index range on an alphanumeric column: `lo == hi` for `=`,
    /// otherwise one-sided, so `lo ≤ hi` whenever both are set.
    IndexRange {
        /// Indexed column name.
        column: String,
        /// Inclusive lower bound.
        lo: Option<Value>,
        /// Inclusive upper bound.
        hi: Option<Value>,
    },
    /// Direct spatial search: relation 0's objects against a constant
    /// window, through the picture's packed R-tree.
    Window {
        loc: Loc,
        op: SpatialOp,
        window: Rect,
    },
    /// k-nearest-neighbour search: relation 0's objects ranked by
    /// distance from a query point, through the picture's R-tree
    /// (branch-and-bound best-first descent).
    Nearest { loc: Loc, k: usize, point: Point },
    /// Nested mapping: relation 0's objects against each location in
    /// `inner_loc` of the inner query's qualifying rows.
    Nested {
        loc: Loc,
        op: SpatialOp,
        inner: Box<Plan>,
        inner_loc: Loc,
    },
    /// Juxtaposition of relations 0 (`left`) and 1 (`right`) through
    /// both pictures' R-trees.
    Juxtapose {
        left: Loc,
        right: Loc,
        op: SpatialOp,
    },
}

/// A pictorial function applied to a `loc` column.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Call {
    pub(crate) function: String,
    pub(crate) column: ResolvedColumn,
    /// The picture `column` points into, or the error the first row the
    /// function is applied to reports.
    pub(crate) picture: Result<String, PsqlError>,
}

/// What a projected column or a `where` comparison reads from a row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Term {
    /// A plain column.
    Column(ResolvedColumn),
    /// A pictorial function: an index into [`Plan::calls`].
    Call(usize),
}

/// The `where` clause, resolved.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Filter {
    Compare(Term, CompareOp, Value),
    And(Box<Filter>, Box<Filter>),
    Or(Box<Filter>, Box<Filter>),
    Not(Box<Filter>),
}

/// One projected output.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Projection {
    /// Output name, e.g. `city` or `area(loc)`.
    pub(crate) name: String,
    pub(crate) term: Term,
}

/// A `loc` column of one of the plan's relations: every qualifying row
/// highlights the object it points at.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Highlight {
    pub(crate) loc: Loc,
    /// The first highlight pointing into the same picture: an object is
    /// highlighted once per picture, whichever column named it.
    pub(crate) slot: usize,
}

/// An executable PSQL plan, as [`plan`] built it: every name in it is
/// resolved, so executing it only binds those names to the database.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    /// The `from` relations (1 or 2); a row holds one tuple of each.
    pub(crate) relations: Vec<String>,
    pub(crate) source: Source,
    /// The `where` clause, applied to every candidate row.
    pub(crate) filter: Option<Filter>,
    /// The pictorial functions the filter and the projection apply.
    pub(crate) calls: Vec<Call>,
    pub(crate) projection: Vec<Projection>,
    /// The `loc` columns of the relations, in relation then
    /// association order.
    pub(crate) highlights: Vec<Highlight>,
    /// Optional ordering (resolved column, ascending).
    pub(crate) order_by: Option<(ResolvedColumn, bool)>,
    pub(crate) limit: Option<usize>,
}

impl Plan {
    /// One-line-per-operator explanation, for inspection and tests.
    pub fn explain(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("from: {}\n", self.relations.join(", ")));
        match &self.source {
            Source::FullScan => out.push_str("access: full scan\n"),
            Source::IndexRange { column, lo, hi } => out.push_str(&format!(
                "access: b+tree index on {column} range [{}, {}]\n",
                lo.as_ref().map(|v| v.to_string()).unwrap_or("-inf".into()),
                hi.as_ref().map(|v| v.to_string()).unwrap_or("+inf".into()),
            )),
            Source::Window { loc, op, window } => out.push_str(&format!(
                "spatial: r-tree search on {} ({op} {window})\n",
                loc.picture
            )),
            Source::Nested { loc, op, inner, .. } => {
                out.push_str(&format!(
                    "spatial: nested mapping on {} ({op})\n",
                    loc.picture
                ));
                for line in inner.explain().lines() {
                    out.push_str(&format!("  {line}\n"));
                }
            }
            Source::Nearest { loc, k, point } => out.push_str(&format!(
                "spatial: r-tree k-nn on {} ({k} nearest ({}, {}))\n",
                loc.picture, point.x, point.y
            )),
            Source::Juxtapose { left, right, op } => out.push_str(&format!(
                "spatial: juxtaposition {} x {} ({op}, simultaneous r-tree descent)\n",
                left.picture, right.picture
            )),
        }
        if self.filter.is_some() {
            out.push_str("filter: residual where-clause\n");
        }
        if let Some((_, asc)) = &self.order_by {
            out.push_str(&format!(
                "sort: order by ({})\n",
                if *asc { "asc" } else { "desc" }
            ));
        }
        if let Some(n) = self.limit {
            out.push_str(&format!("limit: {n}\n"));
        }
        out.push_str(&format!("project: {} columns\n", self.projection.len()));
        out
    }
}

/// Plans a parsed query against a database.
pub fn plan(db: &PictorialDatabase, query: &Query) -> Result<Plan, PsqlError> {
    if query.from.is_empty() {
        return Err(PsqlError::Semantic("empty from-clause".into()));
    }
    if query.from.len() > 2 {
        return Err(PsqlError::Semantic(
            "at most two relations are supported in from".into(),
        ));
    }
    let mut schemas = Vec::with_capacity(query.from.len());
    for r in &query.from {
        schemas.push(db.catalog().relation(r)?.schema());
    }
    // Validate pictures named in on exist ("nothing but the standard
    // string matching for identity is performed").
    for p in &query.on {
        db.picture(p)?;
    }

    let resolver = Resolver {
        db,
        from: &query.from,
        schemas,
    };

    let source = match (&query.at, &query.nearest) {
        // With no spatial restriction, try a B-tree index for the where
        // clause (single relation only).
        (None, None) if query.from.len() == 1 => {
            pick_index(db, &query.from[0], query.where_clause.as_ref())
        }
        (None, None) => Source::FullScan,
        (Some(at), _) => plan_at(db, query, &resolver, at)?,
        (None, Some(nearest)) => plan_nearest(query, &resolver, nearest)?,
    };

    // Resolve the projection.
    let mut calls = Vec::new();
    let mut projection = Vec::new();
    for item in &query.select {
        match item {
            SelectItem::Star => {
                for (rel_idx, (rel_name, schema)) in
                    query.from.iter().zip(&resolver.schemas).enumerate()
                {
                    for (col_idx, col) in schema.columns().iter().enumerate() {
                        let name = if query.from.len() > 1 {
                            format!("{rel_name}.{}", col.name)
                        } else {
                            col.name.clone()
                        };
                        let column = ResolvedColumn {
                            rel: rel_idx,
                            col: col_idx,
                        };
                        projection.push(Projection {
                            name,
                            term: Term::Column(column),
                        });
                    }
                }
            }
            SelectItem::Column(cr) => projection.push(Projection {
                name: cr.to_string(),
                term: Term::Column(resolver.resolve(cr)?),
            }),
            SelectItem::Function { name, arg } => projection.push(Projection {
                name: format!("{name}({arg})"),
                term: resolver.call(name, arg, &mut calls)?,
            }),
        }
    }

    let filter = match &query.where_clause {
        Some(expr) => Some(resolver.filter(expr, &mut calls)?),
        None => None,
    };

    let order_by = match &query.order_by {
        Some(OrderBy { column, ascending }) => Some((resolver.resolve(column)?, *ascending)),
        None => None,
    };

    // Rows carry one tuple per relation, and only a juxtaposition
    // produces pairs.
    let joined = match source {
        Source::Juxtapose { .. } => 2,
        _ => 1,
    };
    if query.from.len() != joined {
        return Err(PsqlError::Semantic(format!(
            "the query names {} from-relations but its at-clause yields rows over {joined}",
            query.from.len()
        )));
    }

    Ok(Plan {
        relations: query.from.clone(),
        source,
        filter,
        calls,
        projection,
        highlights: resolver.highlights(),
        order_by,
        limit: query.limit,
    })
}

fn plan_at(
    db: &PictorialDatabase,
    query: &Query,
    resolver: &Resolver<'_>,
    at: &AtClause,
) -> Result<Source, PsqlError> {
    let lhs = resolver.resolve(&at.lhs)?;
    resolver.require_pointer(&at.lhs, lhs)?;
    let lhs = resolver.loc(&at.lhs, lhs)?;
    check_on_list(query, &lhs.picture)?;

    match &at.rhs {
        LocTerm::Window(w) => {
            if lhs.column.rel != 0 {
                return Err(PsqlError::Semantic(
                    "window search must drive the first from-relation".into(),
                ));
            }
            if query.from.len() != 1 {
                return Err(PsqlError::Semantic(
                    "window at-clause supports a single relation".into(),
                ));
            }
            Ok(Source::Window {
                loc: lhs,
                op: at.op,
                window: *w,
            })
        }
        LocTerm::Column(rhs_ref) => {
            // An unqualified name that is not a column of any from-relation
            // may be a predefined location constant (§2.2).
            if rhs_ref.relation.is_none() && resolver.resolve(rhs_ref).is_err() {
                if let Some(window) = db.location(&rhs_ref.column) {
                    if lhs.column.rel != 0 || query.from.len() != 1 {
                        return Err(PsqlError::Semantic(
                            "window search must drive a single from-relation".into(),
                        ));
                    }
                    return Ok(Source::Window {
                        loc: lhs,
                        op: at.op,
                        window,
                    });
                }
            }
            let rhs = resolver.resolve(rhs_ref)?;
            resolver.require_pointer(rhs_ref, rhs)?;
            if query.from.len() != 2 || lhs.column.rel == rhs.rel {
                return Err(PsqlError::Semantic(
                    "juxtaposition needs two distinct from-relations".into(),
                ));
            }
            let rhs = resolver.loc(rhs_ref, rhs)?;
            check_on_list(query, &rhs.picture)?;
            // Normalize so that `left` is relation 0.
            if lhs.column.rel == 0 {
                Ok(Source::Juxtapose {
                    left: lhs,
                    right: rhs,
                    op: at.op,
                })
            } else {
                Ok(Source::Juxtapose {
                    left: rhs,
                    right: lhs,
                    op: at.op.flip(),
                })
            }
        }
        LocTerm::Subquery(inner_q) => {
            if query.from.len() != 1 {
                return Err(PsqlError::Semantic(
                    "nested mapping supports a single outer relation".into(),
                ));
            }
            let inner = plan(db, inner_q)?;
            // The inner projection must produce exactly one loc column.
            let [Projection {
                term: Term::Column(column),
                ..
            }] = inner.projection[..]
            else {
                return Err(PsqlError::Semantic(
                    "nested mapping must select exactly one loc column".into(),
                ));
            };
            let rel_name = &inner.relations[column.rel];
            let col_name = &db.catalog().relation(rel_name)?.schema().columns()[column.col].name;
            let picture = db.association(rel_name, col_name).ok_or_else(|| {
                PsqlError::Semantic(format!("{rel_name}.{col_name} has no picture"))
            })?;
            let inner_loc = Loc {
                column,
                picture: picture.to_owned(),
            };
            Ok(Source::Nested {
                loc: lhs,
                op: at.op,
                inner: Box::new(inner),
                inner_loc,
            })
        }
    }
}

fn plan_nearest(
    query: &Query,
    resolver: &Resolver<'_>,
    nearest: &NearestClause,
) -> Result<Source, PsqlError> {
    let lhs = resolver.resolve(&nearest.lhs)?;
    resolver.require_pointer(&nearest.lhs, lhs)?;
    let loc = resolver.loc(&nearest.lhs, lhs)?;
    check_on_list(query, &loc.picture)?;
    if lhs.rel != 0 || query.from.len() != 1 {
        return Err(PsqlError::Semantic(
            "nearest search supports a single from-relation".into(),
        ));
    }
    Ok(Source::Nearest {
        loc,
        k: nearest.k,
        point: nearest.point,
    })
}

fn check_on_list(query: &Query, picture: &str) -> Result<(), PsqlError> {
    if !query.on.is_empty() && !query.on.iter().any(|p| p == picture) {
        return Err(PsqlError::Semantic(format!(
            "picture {picture:?} used by the at-clause is not in the on-clause"
        )));
    }
    Ok(())
}

fn pick_index(db: &PictorialDatabase, relation: &str, where_clause: Option<&Expr>) -> Source {
    // Walk the top-level AND chain for an indexed comparison.
    fn find(db: &PictorialDatabase, relation: &str, expr: &Expr) -> Option<Source> {
        match expr {
            Expr::And(a, b) => find(db, relation, a).or_else(|| find(db, relation, b)),
            Expr::Compare {
                lhs: Operand::Column(cr),
                op,
                rhs,
            } if cr.relation.as_deref().is_none_or(|r| r == relation) => {
                db.catalog().index(relation, &cr.column)?;
                let (lo, hi) = match op {
                    CompareOp::Eq => (Some(rhs.clone()), Some(rhs.clone())),
                    CompareOp::Lt | CompareOp::Le => (None, Some(rhs.clone())),
                    CompareOp::Gt | CompareOp::Ge => (Some(rhs.clone()), None),
                    CompareOp::Ne => return None,
                };
                Some(Source::IndexRange {
                    column: cr.column.clone(),
                    lo,
                    hi,
                })
            }
            _ => None,
        }
    }
    where_clause
        .and_then(|e| find(db, relation, e))
        .unwrap_or(Source::FullScan)
}

/// Column-name resolution over the `from` list.
struct Resolver<'a> {
    db: &'a PictorialDatabase,
    from: &'a [String],
    /// The schema of each `from` relation.
    schemas: Vec<&'a Schema>,
}

impl Resolver<'_> {
    fn resolve(&self, cr: &ColumnRef) -> Result<ResolvedColumn, PsqlError> {
        match &cr.relation {
            Some(rel_name) => {
                let rel = self
                    .from
                    .iter()
                    .position(|r| r == rel_name)
                    .ok_or_else(|| {
                        PsqlError::Semantic(format!("relation {rel_name:?} not in from-clause"))
                    })?;
                let col = self.schemas[rel].index_of(&cr.column).ok_or_else(|| {
                    PsqlError::Semantic(format!("no column {} in {rel_name}", cr.column))
                })?;
                Ok(ResolvedColumn { rel, col })
            }
            None => {
                let mut found = None;
                for (rel, schema) in self.schemas.iter().enumerate() {
                    if let Some(col) = schema.index_of(&cr.column) {
                        if found.is_some() {
                            return Err(PsqlError::Semantic(format!(
                                "ambiguous column {:?}",
                                cr.column
                            )));
                        }
                        found = Some(ResolvedColumn { rel, col });
                    }
                }
                found.ok_or_else(|| {
                    PsqlError::Semantic(format!("no column {:?} in from-relations", cr.column))
                })
            }
        }
    }

    fn require_pointer(&self, cr: &ColumnRef, rc: ResolvedColumn) -> Result<(), PsqlError> {
        if self.schemas[rc.rel].columns()[rc.col].ty != ColumnType::Pointer {
            return Err(PsqlError::Semantic(format!(
                "{cr} must be a pictorial (pointer) column"
            )));
        }
        Ok(())
    }

    /// The `(relation, column)` names of a resolved column.
    fn names(&self, rc: ResolvedColumn) -> (&str, &str) {
        let column = &self.schemas[rc.rel].columns()[rc.col];
        (self.from[rc.rel].as_str(), column.name.as_str())
    }

    /// A loc column with the picture it is associated with.
    fn loc(&self, cr: &ColumnRef, column: ResolvedColumn) -> Result<Loc, PsqlError> {
        let (rel_name, col_name) = self.names(column);
        let picture = self.db.association(rel_name, col_name).ok_or_else(|| {
            PsqlError::Semantic(format!("{cr} is not associated with any picture"))
        })?;
        Ok(Loc {
            column,
            picture: picture.to_owned(),
        })
    }

    /// Appends pictorial function `function` over `arg` to `calls`.
    fn call(
        &self,
        function: &str,
        arg: &ColumnRef,
        calls: &mut Vec<Call>,
    ) -> Result<Term, PsqlError> {
        let column = self.resolve(arg)?;
        self.require_pointer(arg, column)?;
        let (rel_name, col_name) = self.names(column);
        let picture = self
            .db
            .association(rel_name, col_name)
            .map(str::to_owned)
            .ok_or_else(|| {
                PsqlError::Semantic(format!("{rel_name}.{col_name} has no picture association"))
            });
        calls.push(Call {
            function: function.to_owned(),
            column,
            picture,
        });
        Ok(Term::Call(calls.len() - 1))
    }

    /// Resolves a `where` expression; its function calls go to `calls`.
    fn filter(&self, expr: &Expr, calls: &mut Vec<Call>) -> Result<Filter, PsqlError> {
        Ok(match expr {
            Expr::Compare { lhs, op, rhs } => {
                let term = match lhs {
                    Operand::Column(cr) => Term::Column(self.resolve(cr)?),
                    Operand::Function { name, arg } => self.call(name, arg, calls)?,
                };
                Filter::Compare(term, *op, rhs.clone())
            }
            Expr::And(a, b) => Filter::And(
                Box::new(self.filter(a, calls)?),
                Box::new(self.filter(b, calls)?),
            ),
            Expr::Or(a, b) => Filter::Or(
                Box::new(self.filter(a, calls)?),
                Box::new(self.filter(b, calls)?),
            ),
            Expr::Not(e) => Filter::Not(Box::new(self.filter(e, calls)?)),
        })
    }

    /// The `loc` columns of the `from` relations, in relation then
    /// association order.
    fn highlights(&self) -> Vec<Highlight> {
        let mut highlights: Vec<Highlight> = Vec::new();
        for (rel, (rel_name, schema)) in self.from.iter().zip(&self.schemas).enumerate() {
            for (col_name, picture) in self.db.loc_columns(rel_name) {
                if let Some(col) = schema.index_of(col_name) {
                    let slot = highlights
                        .iter()
                        .position(|h| h.loc.picture == picture)
                        .unwrap_or(highlights.len());
                    highlights.push(Highlight {
                        loc: Loc {
                            column: ResolvedColumn { rel, col },
                            picture: picture.to_owned(),
                        },
                        slot,
                    });
                }
            }
        }
        highlights
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;

    fn db() -> PictorialDatabase {
        PictorialDatabase::with_us_map()
    }

    #[test]
    fn window_query_plans_spatial_search() {
        let db = db();
        let q =
            parse_query("select city from cities on us-map at loc covered-by {50 +- 50, 25 +- 25}")
                .unwrap();
        let p = plan(&db, &q).unwrap();
        assert!(matches!(p.source, Source::Window { .. }));
        assert!(p.explain().contains("r-tree search on us-map"));
    }

    #[test]
    fn index_picked_without_at_clause() {
        let db = db();
        let q = parse_query("select city from cities where population > 5000000").unwrap();
        let p = plan(&db, &q).unwrap();
        assert!(matches!(
            p.source,
            Source::IndexRange { ref column, .. } if column == "population"
        ));
        // Unindexed column → scan.
        let q2 = parse_query("select city from cities where state = 'TX'").unwrap();
        let p2 = plan(&db, &q2).unwrap();
        assert_eq!(p2.source, Source::FullScan);
    }

    #[test]
    fn juxtaposition_plan_normalizes_sides() {
        let db = db();
        let q = parse_query(
            "select city, zone from cities, time-zones on us-map, time-zone-map \
             at cities.loc covered-by time-zones.loc",
        )
        .unwrap();
        let p = plan(&db, &q).unwrap();
        match &p.source {
            Source::Juxtapose { left, op, .. } => {
                assert_eq!(left.column.rel, 0);
                assert_eq!(*op, SpatialOp::CoveredBy);
            }
            other => panic!("{other:?}"),
        }
        // Reversed operand order flips the operator.
        let q2 = parse_query(
            "select city, zone from cities, time-zones \
             at time-zones.loc covering cities.loc",
        )
        .unwrap();
        let p2 = plan(&db, &q2).unwrap();
        match &p2.source {
            Source::Juxtapose { left, op, .. } => {
                assert_eq!(left.column.rel, 0);
                assert_eq!(*op, SpatialOp::CoveredBy);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn nearest_plan() {
        let db = db();
        let q =
            parse_query("select city from cities on us-map at loc nearest 3 {50 +- 0, 25 +- 0}")
                .unwrap();
        let p = plan(&db, &q).unwrap();
        match &p.source {
            Source::Nearest { loc, k, point } => {
                assert_eq!(loc.picture, "us-map");
                assert_eq!(*k, 3);
                assert_eq!(*point, rtree_geom::Point { x: 50.0, y: 25.0 });
            }
            other => panic!("expected nearest strategy, got {other:?}"),
        }
        assert!(p.explain().contains("k-nn on us-map"));
        // Nearest over a join is unsupported.
        let q2 = parse_query(
            "select city, zone from cities, time-zones on us-map, time-zone-map \
             at time-zones.loc nearest 2 {50 +- 0, 25 +- 0}",
        )
        .unwrap();
        assert!(plan(&db, &q2).is_err());
    }

    #[test]
    fn nested_mapping_plan() {
        let db = db();
        let q = parse_query(
            "select lake from lakes on lake-map at lakes.loc covered-by \
             (select states.loc from states on state-map \
              at states.loc covered-by {80 +- 20, 25 +- 25})",
        )
        .unwrap();
        let p = plan(&db, &q).unwrap();
        assert!(matches!(p.source, Source::Nested { .. }));
        assert!(p.explain().contains("nested mapping"));
    }

    #[test]
    fn named_location_resolves_to_window() {
        let db = db();
        let q =
            parse_query("select city from cities on us-map at loc covered-by eastern-us").unwrap();
        let p = plan(&db, &q).unwrap();
        match &p.source {
            Source::Window { window, .. } => {
                assert_eq!(*window, rtree_workload::usmap::EASTERN_WINDOW);
            }
            other => panic!("expected window strategy, got {other:?}"),
        }
        // An unknown name is still an error.
        let q2 = parse_query("select city from cities at loc covered-by atlantis").unwrap();
        assert!(plan(&db, &q2).is_err());
    }

    #[test]
    fn semantic_errors() {
        let db = db();
        for bad in [
            "select city from nowhere",
            "select altitude from cities",
            "select city from cities on mars-map",
            "select city from cities at population covered-by {1 +- 1, 2 +- 2}",
            "select city from cities, states at cities.loc covered-by cities.loc",
            // at-picture not in on-list:
            "select city from cities on state-map at loc covered-by {1 +- 1, 2 +- 2}",
            // ambiguous unqualified column:
            "select state from cities, states at cities.loc covered-by states.loc",
            // nested query selecting more than a loc:
            "select lake from lakes at lakes.loc covered-by (select state, states.loc from states)",
        ] {
            let q = parse_query(bad).unwrap();
            assert!(plan(&db, &q).is_err(), "should fail: {bad}");
        }
    }

    #[test]
    fn where_clause_is_resolved_into_the_filter() {
        let db = db();
        let q = parse_query(
            "select lake, area(loc) from lakes where area(loc) >= 20 and not lake = 'Erie'",
        )
        .unwrap();
        let p = plan(&db, &q).unwrap();
        let lake = ResolvedColumn { rel: 0, col: 0 };
        let loc = ResolvedColumn { rel: 0, col: 3 };
        // One call for the projection, one for the filter, both over
        // `lakes.loc` and its picture.
        assert_eq!(p.calls.len(), 2);
        for call in &p.calls {
            assert_eq!(call.function, "area");
            assert_eq!(call.column, loc);
            assert_eq!(call.picture, Ok("lake-map".into()));
        }
        assert_eq!(p.projection[1].term, Term::Call(0));
        assert_eq!(
            p.filter,
            Some(Filter::And(
                Box::new(Filter::Compare(
                    Term::Call(1),
                    CompareOp::Ge,
                    Value::Int(20)
                )),
                Box::new(Filter::Not(Box::new(Filter::Compare(
                    Term::Column(lake),
                    CompareOp::Eq,
                    Value::str("Erie")
                )))),
            ))
        );
        assert!(p.explain().contains("filter: residual where-clause"));
        // A typo in the where clause fails the plan.
        let q2 = parse_query("select lake from lakes where depth > 3").unwrap();
        assert!(plan(&db, &q2).is_err());
    }

    #[test]
    fn nested_mapping_resolves_its_inner_loc() {
        let db = db();
        let q = parse_query(
            "select lake from lakes on lake-map at lakes.loc covered-by \
             (select states.loc from states on state-map where state <> 'NY')",
        )
        .unwrap();
        let p = plan(&db, &q).unwrap();
        match &p.source {
            Source::Nested {
                loc,
                inner,
                inner_loc,
                ..
            } => {
                assert_eq!(loc.picture, "lake-map");
                assert_eq!(inner_loc.picture, "state-map");
                assert_eq!(inner_loc.column, ResolvedColumn { rel: 0, col: 2 });
                assert!(inner.filter.is_some());
            }
            other => panic!("expected nested mapping, got {other:?}"),
        }
        // An inner column that points into no picture fails the plan.
        let q2 = parse_query(
            "select lake from lakes at lakes.loc covered-by (select states.state from states)",
        )
        .unwrap();
        assert_eq!(
            plan(&db, &q2),
            Err(PsqlError::Semantic("states.state has no picture".into()))
        );
    }

    #[test]
    fn rows_carry_one_tuple_per_relation() {
        let db = db();
        let q = parse_query("select city, zone from cities, time-zones").unwrap();
        assert_eq!(
            plan(&db, &q),
            Err(PsqlError::Semantic(
                "the query names 2 from-relations but its at-clause yields rows over 1".into()
            ))
        );
        // A juxtaposition pairs them, and both relations' loc columns
        // highlight, one slot per picture.
        let q2 = parse_query(
            "select city, zone from cities, time-zones at cities.loc covered-by time-zones.loc",
        )
        .unwrap();
        let p = plan(&db, &q2).unwrap();
        let pictures: Vec<(usize, &str, usize)> = p
            .highlights
            .iter()
            .map(|h| (h.loc.column.rel, h.loc.picture.as_str(), h.slot))
            .collect();
        assert_eq!(pictures, [(0, "us-map", 0), (1, "time-zone-map", 1)]);
    }

    #[test]
    fn star_projection_resolves_all_columns() {
        let db = db();
        let q = parse_query("select * from cities").unwrap();
        let p = plan(&db, &q).unwrap();
        assert_eq!(p.projection.len(), 4);
    }
}
