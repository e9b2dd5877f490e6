//! Query planning: from AST to an executable plan.
//!
//! PSQL queries "are preprocessed and translated into ordinary SQL
//! entries" plus spatial-operator calls (§2.2); this module is that
//! preprocessor. It resolves names, picks the access path (direct
//! spatial search through a picture's R-tree, a B-tree index range, or a
//! scan), and classifies the `at`-clause into window search,
//! juxtaposition, or a nested mapping.

use crate::ast::{
    AtClause, ColumnRef, Expr, LocTerm, NearestClause, Operand, OrderBy, Query, SelectItem,
};
use crate::database::PictorialDatabase;
use crate::error::PsqlError;
use crate::spatial::SpatialOp;
use pictorial_relational::{ColumnType, CompareOp, Value};
use rtree_geom::{Point, Rect};

/// A resolved column: which `from`-relation, which column index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResolvedColumn {
    /// Index into [`Plan::relations`].
    pub rel: usize,
    /// Column index within that relation's schema.
    pub col: usize,
}

/// How the driving relation's tuples are obtained when no spatial
/// strategy applies.
#[derive(Debug, Clone, PartialEq)]
pub enum Access {
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
}

/// The spatial part of the plan.
#[derive(Debug, Clone, PartialEq)]
pub enum SpatialStrategy {
    /// No `at`-clause.
    None,
    /// Direct spatial search: relation 0's objects against a constant
    /// window, through the picture's packed R-tree.
    Window {
        /// The `loc` column driving the search.
        column: ResolvedColumn,
        /// Picture whose R-tree is searched.
        picture: String,
        /// Spatial operator.
        op: SpatialOp,
        /// The window.
        window: Rect,
    },
    /// Nested mapping: relation 0's objects against each location
    /// produced by an inner query.
    Nested {
        /// The outer `loc` column.
        column: ResolvedColumn,
        /// Outer picture.
        picture: String,
        /// Spatial operator.
        op: SpatialOp,
        /// Plan of the inner query.
        inner: Box<Plan>,
    },
    /// k-nearest-neighbour search: relation 0's objects ranked by
    /// distance from a query point, through the picture's R-tree
    /// (branch-and-bound best-first descent).
    Nearest {
        /// The `loc` column driving the search.
        column: ResolvedColumn,
        /// Picture whose R-tree is searched.
        picture: String,
        /// Number of neighbours.
        k: usize,
        /// The query point.
        point: Point,
    },
    /// Juxtaposition of relations 0 and 1 through both pictures' R-trees.
    Juxtapose {
        /// Left `loc` column (relation 0).
        left: ResolvedColumn,
        /// Left picture.
        left_picture: String,
        /// Right `loc` column (relation 1).
        right: ResolvedColumn,
        /// Right picture.
        right_picture: String,
        /// Spatial operator.
        op: SpatialOp,
    },
}

/// One projected output.
#[derive(Debug, Clone, PartialEq)]
pub enum Projection {
    /// A plain column.
    Column {
        /// Resolved source.
        source: ResolvedColumn,
        /// Output name.
        name: String,
    },
    /// A pictorial function over a `loc` column.
    Function {
        /// Function name.
        function: String,
        /// Resolved `loc` argument.
        arg: ResolvedColumn,
        /// Output name, e.g. `area(loc)`.
        name: String,
    },
}

/// An executable PSQL plan.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    /// The `from` relations (1 or 2).
    pub relations: Vec<String>,
    /// Access path for relation 0 when `spatial` is `None`.
    pub access: Access,
    /// The spatial strategy.
    pub spatial: SpatialStrategy,
    /// The full `where` expression, applied residually.
    pub residual: Option<Expr>,
    /// The output columns.
    pub projection: Vec<Projection>,
    /// Optional ordering (resolved column + direction).
    pub order_by: Option<(ResolvedColumn, bool)>,
    /// Optional row limit.
    pub limit: Option<usize>,
}

impl Plan {
    /// One-line-per-operator explanation, for inspection and tests.
    pub fn explain(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("from: {}\n", self.relations.join(", ")));
        match &self.spatial {
            SpatialStrategy::None => match &self.access {
                Access::FullScan => out.push_str("access: full scan\n"),
                Access::IndexRange { column, lo, hi } => out.push_str(&format!(
                    "access: b+tree index on {column} range [{}, {}]\n",
                    lo.as_ref().map(|v| v.to_string()).unwrap_or("-inf".into()),
                    hi.as_ref().map(|v| v.to_string()).unwrap_or("+inf".into()),
                )),
            },
            SpatialStrategy::Window { picture, op, window, .. } => {
                out.push_str(&format!("spatial: r-tree search on {picture} ({op} {window})\n"))
            }
            SpatialStrategy::Nested { picture, op, inner, .. } => {
                out.push_str(&format!("spatial: nested mapping on {picture} ({op})\n"));
                for line in inner.explain().lines() {
                    out.push_str(&format!("  {line}\n"));
                }
            }
            SpatialStrategy::Nearest {
                picture, k, point, ..
            } => out.push_str(&format!(
                "spatial: r-tree k-nn on {picture} ({k} nearest ({}, {}))\n",
                point.x, point.y
            )),
            SpatialStrategy::Juxtapose {
                left_picture,
                right_picture,
                op,
                ..
            } => out.push_str(&format!(
                "spatial: juxtaposition {left_picture} x {right_picture} ({op}, simultaneous r-tree descent)\n"
            )),
        }
        if self.residual.is_some() {
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
    // Validate relations exist.
    for r in &query.from {
        db.catalog().relation(r)?;
    }
    // Validate pictures named in on exist ("nothing but the standard
    // string matching for identity is performed").
    for p in &query.on {
        db.picture(p)?;
    }

    let resolver = Resolver {
        db,
        from: &query.from,
    };

    let spatial = match (&query.at, &query.nearest) {
        (None, None) => SpatialStrategy::None,
        (Some(at), _) => plan_at(db, query, &resolver, at)?,
        (None, Some(nearest)) => plan_nearest(query, &resolver, nearest)?,
    };

    // With no spatial restriction, try a B-tree index for the where
    // clause (single relation only).
    let access = if matches!(spatial, SpatialStrategy::None) && query.from.len() == 1 {
        pick_index(db, &query.from[0], query.where_clause.as_ref())
    } else {
        Access::FullScan
    };

    // Resolve the projection.
    let mut projection = Vec::new();
    for item in &query.select {
        match item {
            SelectItem::Star => {
                for (rel_idx, rel_name) in query.from.iter().enumerate() {
                    let rel = db.catalog().relation(rel_name)?;
                    for (col_idx, col) in rel.schema().columns().iter().enumerate() {
                        let name = if query.from.len() > 1 {
                            format!("{rel_name}.{}", col.name)
                        } else {
                            col.name.clone()
                        };
                        projection.push(Projection::Column {
                            source: ResolvedColumn {
                                rel: rel_idx,
                                col: col_idx,
                            },
                            name,
                        });
                    }
                }
            }
            SelectItem::Column(cr) => {
                let source = resolver.resolve(cr)?;
                projection.push(Projection::Column {
                    source,
                    name: cr.to_string(),
                });
            }
            SelectItem::Function { name, arg } => {
                let source = resolver.resolve(arg)?;
                resolver.require_pointer(arg, source)?;
                projection.push(Projection::Function {
                    function: name.clone(),
                    arg: source,
                    name: format!("{name}({arg})"),
                });
            }
        }
    }

    // Resolve every column mentioned in where (fail early on typos).
    if let Some(expr) = &query.where_clause {
        validate_expr(&resolver, expr)?;
    }

    let order_by = match &query.order_by {
        Some(OrderBy { column, ascending }) => Some((resolver.resolve(column)?, *ascending)),
        None => None,
    };

    Ok(Plan {
        relations: query.from.clone(),
        access,
        spatial,
        residual: query.where_clause.clone(),
        projection,
        order_by,
        limit: query.limit,
    })
}

fn plan_at(
    db: &PictorialDatabase,
    query: &Query,
    resolver: &Resolver<'_>,
    at: &AtClause,
) -> Result<SpatialStrategy, PsqlError> {
    let lhs = resolver.resolve(&at.lhs)?;
    resolver.require_pointer(&at.lhs, lhs)?;
    let lhs_picture = resolver.picture_of(&at.lhs, lhs)?;
    check_on_list(query, &lhs_picture)?;

    match &at.rhs {
        LocTerm::Window(w) => {
            if lhs.rel != 0 {
                return Err(PsqlError::Semantic(
                    "window search must drive the first from-relation".into(),
                ));
            }
            if query.from.len() != 1 {
                return Err(PsqlError::Semantic(
                    "window at-clause supports a single relation".into(),
                ));
            }
            Ok(SpatialStrategy::Window {
                column: lhs,
                picture: lhs_picture,
                op: at.op,
                window: *w,
            })
        }
        LocTerm::Column(rhs_ref) => {
            // An unqualified name that is not a column of any from-relation
            // may be a predefined location constant (§2.2).
            if rhs_ref.relation.is_none() && resolver.resolve(rhs_ref).is_err() {
                if let Some(window) = db.location(&rhs_ref.column) {
                    if lhs.rel != 0 || query.from.len() != 1 {
                        return Err(PsqlError::Semantic(
                            "window search must drive a single from-relation".into(),
                        ));
                    }
                    return Ok(SpatialStrategy::Window {
                        column: lhs,
                        picture: lhs_picture,
                        op: at.op,
                        window,
                    });
                }
            }
            let rhs = resolver.resolve(rhs_ref)?;
            resolver.require_pointer(rhs_ref, rhs)?;
            if query.from.len() != 2 || lhs.rel == rhs.rel {
                return Err(PsqlError::Semantic(
                    "juxtaposition needs two distinct from-relations".into(),
                ));
            }
            let rhs_picture = resolver.picture_of(rhs_ref, rhs)?;
            check_on_list(query, &rhs_picture)?;
            // Normalize so that `left` is relation 0.
            if lhs.rel == 0 {
                Ok(SpatialStrategy::Juxtapose {
                    left: lhs,
                    left_picture: lhs_picture,
                    right: rhs,
                    right_picture: rhs_picture,
                    op: at.op,
                })
            } else {
                Ok(SpatialStrategy::Juxtapose {
                    left: rhs,
                    left_picture: rhs_picture,
                    right: lhs,
                    right_picture: lhs_picture,
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
            let loc_outputs = inner
                .projection
                .iter()
                .filter(|p| matches!(p, Projection::Column { .. }))
                .count();
            if loc_outputs != 1 || inner.projection.len() != 1 {
                return Err(PsqlError::Semantic(
                    "nested mapping must select exactly one loc column".into(),
                ));
            }
            Ok(SpatialStrategy::Nested {
                column: lhs,
                picture: lhs_picture,
                op: at.op,
                inner: Box::new(inner),
            })
        }
    }
}

fn plan_nearest(
    query: &Query,
    resolver: &Resolver<'_>,
    nearest: &NearestClause,
) -> Result<SpatialStrategy, PsqlError> {
    let lhs = resolver.resolve(&nearest.lhs)?;
    resolver.require_pointer(&nearest.lhs, lhs)?;
    let picture = resolver.picture_of(&nearest.lhs, lhs)?;
    check_on_list(query, &picture)?;
    if lhs.rel != 0 || query.from.len() != 1 {
        return Err(PsqlError::Semantic(
            "nearest search supports a single from-relation".into(),
        ));
    }
    Ok(SpatialStrategy::Nearest {
        column: lhs,
        picture,
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

fn pick_index(db: &PictorialDatabase, relation: &str, where_clause: Option<&Expr>) -> Access {
    // Walk the top-level AND chain for an indexed comparison.
    fn find(db: &PictorialDatabase, relation: &str, expr: &Expr) -> Option<Access> {
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
                Some(Access::IndexRange {
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
        .unwrap_or(Access::FullScan)
}

fn validate_expr(resolver: &Resolver<'_>, expr: &Expr) -> Result<(), PsqlError> {
    match expr {
        Expr::Compare { lhs, .. } => {
            match lhs {
                Operand::Column(cr) => {
                    resolver.resolve(cr)?;
                }
                Operand::Function { arg, .. } => {
                    let r = resolver.resolve(arg)?;
                    resolver.require_pointer(arg, r)?;
                }
            }
            Ok(())
        }
        Expr::And(a, b) | Expr::Or(a, b) => {
            validate_expr(resolver, a)?;
            validate_expr(resolver, b)
        }
        Expr::Not(e) => validate_expr(resolver, e),
    }
}

/// Column-name resolution over the `from` list.
pub(crate) struct Resolver<'a> {
    pub db: &'a PictorialDatabase,
    pub from: &'a [String],
}

impl Resolver<'_> {
    pub(crate) fn resolve(&self, cr: &ColumnRef) -> Result<ResolvedColumn, PsqlError> {
        match &cr.relation {
            Some(rel_name) => {
                let rel = self
                    .from
                    .iter()
                    .position(|r| r == rel_name)
                    .ok_or_else(|| {
                        PsqlError::Semantic(format!("relation {rel_name:?} not in from-clause"))
                    })?;
                let schema = self.db.catalog().relation(rel_name)?.schema();
                let col = schema.index_of(&cr.column).ok_or_else(|| {
                    PsqlError::Semantic(format!("no column {} in {rel_name}", cr.column))
                })?;
                Ok(ResolvedColumn { rel, col })
            }
            None => {
                let mut found = None;
                for (rel, rel_name) in self.from.iter().enumerate() {
                    let schema = self.db.catalog().relation(rel_name)?.schema();
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

    pub(crate) fn require_pointer(
        &self,
        cr: &ColumnRef,
        rc: ResolvedColumn,
    ) -> Result<(), PsqlError> {
        let rel_name = &self.from[rc.rel];
        let schema = self.db.catalog().relation(rel_name)?.schema();
        if schema.columns()[rc.col].ty != ColumnType::Pointer {
            return Err(PsqlError::Semantic(format!(
                "{cr} must be a pictorial (pointer) column"
            )));
        }
        Ok(())
    }

    /// Picture associated with a loc column.
    pub(crate) fn picture_of(
        &self,
        cr: &ColumnRef,
        rc: ResolvedColumn,
    ) -> Result<String, PsqlError> {
        let rel_name = &self.from[rc.rel];
        let schema = self.db.catalog().relation(rel_name)?.schema();
        let col_name = &schema.columns()[rc.col].name;
        self.db
            .association(rel_name, col_name)
            .map(str::to_owned)
            .ok_or_else(|| PsqlError::Semantic(format!("{cr} is not associated with any picture")))
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
        assert!(matches!(p.spatial, SpatialStrategy::Window { .. }));
        assert!(p.explain().contains("r-tree search on us-map"));
    }

    #[test]
    fn index_picked_without_at_clause() {
        let db = db();
        let q = parse_query("select city from cities where population > 5000000").unwrap();
        let p = plan(&db, &q).unwrap();
        assert!(matches!(
            p.access,
            Access::IndexRange { ref column, .. } if column == "population"
        ));
        // Unindexed column → scan.
        let q2 = parse_query("select city from cities where state = 'TX'").unwrap();
        let p2 = plan(&db, &q2).unwrap();
        assert_eq!(p2.access, Access::FullScan);
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
        match &p.spatial {
            SpatialStrategy::Juxtapose { left, op, .. } => {
                assert_eq!(left.rel, 0);
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
        match &p2.spatial {
            SpatialStrategy::Juxtapose { left, op, .. } => {
                assert_eq!(left.rel, 0);
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
        match &p.spatial {
            SpatialStrategy::Nearest {
                picture, k, point, ..
            } => {
                assert_eq!(picture, "us-map");
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
        assert!(matches!(p.spatial, SpatialStrategy::Nested { .. }));
        assert!(p.explain().contains("nested mapping"));
    }

    #[test]
    fn named_location_resolves_to_window() {
        let db = db();
        let q =
            parse_query("select city from cities on us-map at loc covered-by eastern-us").unwrap();
        let p = plan(&db, &q).unwrap();
        match &p.spatial {
            SpatialStrategy::Window { window, .. } => {
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
    fn star_projection_resolves_all_columns() {
        let db = db();
        let q = parse_query("select * from cities").unwrap();
        let p = plan(&db, &q).unwrap();
        assert_eq!(p.projection.len(), 4);
    }
}
