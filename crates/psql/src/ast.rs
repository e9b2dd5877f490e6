//! PSQL abstract syntax.

use crate::spatial::SpatialOp;
use pictorial_relational::{CompareOp, Value};
use rtree_geom::{Point, Rect};

/// A parsed PSQL retrieve mapping (§2.2):
///
/// ```text
/// select <attribute-target-list>
/// from   <relation-list>
/// on     <picture-list>
/// at     <area-specification>
/// where  <qualification>
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// Target list.
    pub select: Vec<SelectItem>,
    /// Relations queried.
    pub from: Vec<String>,
    /// Pictures named by the `on`-clause (positionally matched with
    /// `from` for juxtaposition).
    pub on: Vec<String>,
    /// The `at`-clause, if any.
    pub at: Option<AtClause>,
    /// The `at … nearest` clause, if any (mutually exclusive with `at`
    /// by the grammar: both grow from the `at` keyword).
    pub nearest: Option<NearestClause>,
    /// The `where`-clause, if any.
    pub where_clause: Option<Expr>,
    /// Optional `order by` (ascending unless `desc`).
    pub order_by: Option<OrderBy>,
    /// Optional `limit`.
    pub limit: Option<usize>,
}

/// An `order by` specification.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderBy {
    /// The sort column.
    pub column: ColumnRef,
    /// `true` for ascending (the default), `false` for `desc`.
    pub ascending: bool,
}

/// One entry of the target list.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// `*`: every column of every `from` relation.
    Star,
    /// A (possibly qualified) column: `population`, `cities.loc`.
    Column(ColumnRef),
    /// A pictorial function call: `area(loc)` (§2.1).
    Function {
        /// Function name.
        name: String,
        /// Argument column.
        arg: ColumnRef,
    },
}

/// A possibly relation-qualified column name.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnRef {
    /// Qualifying relation, if written.
    pub relation: Option<String>,
    /// Column name.
    pub column: String,
}

impl ColumnRef {
    /// Unqualified reference.
    pub fn plain(column: &str) -> Self {
        ColumnRef {
            relation: None,
            column: column.to_owned(),
        }
    }

    /// Qualified reference.
    pub fn qualified(relation: &str, column: &str) -> Self {
        ColumnRef {
            relation: Some(relation.to_owned()),
            column: column.to_owned(),
        }
    }
}

impl std::fmt::Display for ColumnRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.relation {
            Some(r) => write!(f, "{r}.{}", self.column),
            None => write!(f, "{}", self.column),
        }
    }
}

/// The `at`-clause: `<loc> <spatial-op> <loc-term>`.
#[derive(Debug, Clone, PartialEq)]
pub struct AtClause {
    /// Left operand — a `loc` column of a `from` relation.
    pub lhs: ColumnRef,
    /// The spatial comparison operator.
    pub op: SpatialOp,
    /// Right operand.
    pub rhs: LocTerm,
}

/// The k-nearest-neighbour `at`-clause:
/// `<loc> nearest <k> {x +- dx, y +- dy}`. The window's centre is the
/// query point (its half-extents play no role — `{x +- 0, y +- 0}` is
/// the idiomatic spelling).
#[derive(Debug, Clone, PartialEq)]
pub struct NearestClause {
    /// The `loc` column whose objects are ranked by distance.
    pub lhs: ColumnRef,
    /// How many neighbours to return.
    pub k: usize,
    /// The query point.
    pub point: Point,
}

/// The right operand of an `at`-clause.
#[derive(Debug, Clone, PartialEq)]
pub enum LocTerm {
    /// A constant window `{x +- dx, y +- dy}` entered "by coordinates or
    /// by a mouse".
    Window(Rect),
    /// Another relation's `loc` column — juxtaposition (§2.2).
    Column(ColumnRef),
    /// A nested mapping whose result locations bind this operand
    /// (the lakes-within-eastern-states example).
    Subquery(Box<Query>),
}

/// A `where`-clause expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// `column op constant` or `function(column) op constant`.
    Compare {
        /// Left side.
        lhs: Operand,
        /// Operator.
        op: CompareOp,
        /// Right side constant.
        rhs: Value,
    },
    /// Conjunction.
    And(Box<Expr>, Box<Expr>),
    /// Disjunction.
    Or(Box<Expr>, Box<Expr>),
    /// Negation.
    Not(Box<Expr>),
}

/// Left side of a comparison.
#[derive(Debug, Clone, PartialEq)]
pub enum Operand {
    /// A column reference.
    Column(ColumnRef),
    /// A pictorial function applied to a column.
    Function {
        /// Function name.
        name: String,
        /// Argument column.
        arg: ColumnRef,
    },
}
