//! Pictorial functions — the abstract-data-type operations of §2.1.
//!
//! "Pictorial domains also have functions defined on them which compute
//! some simple or aggregate attribute. A simple function for a region
//! object is **area** … any attempt to include all useful ones … would be
//! pointless. Instead, the language must have capabilities for
//! user-defined (application-defined) extensions." — [`FunctionRegistry`]
//! provides exactly that: the built-ins below plus
//! [`register`](FunctionRegistry::register) for application extensions.

use crate::error::PsqlError;
use pictorial_relational::Value;
use rtree_geom::{Rect, SpatialObject};
use std::collections::HashMap;

/// A pictorial function: object in, alphanumeric value out.
pub type PictorialFn = fn(&SpatialObject) -> Value;

/// An aggregate pictorial function: a *set* of objects in, one value out
/// — the paper's "aggregate function on a set of highway segments is
/// **northest** which finds the northest coordinates of any point in a
/// highway" (§2.1).
pub type AggregateFn = fn(&[SpatialObject]) -> Value;

/// Registry of pictorial functions callable from PSQL's `select` and
/// `where` clauses.
pub struct FunctionRegistry {
    functions: HashMap<String, PictorialFn>,
    aggregates: HashMap<String, AggregateFn>,
}

impl FunctionRegistry {
    /// Registry with the built-ins: `area`, `perimeter`, `class`, `x`,
    /// `y`, `northest` (the paper's example aggregate, here the
    /// northernmost extent of the object).
    pub fn with_builtins() -> Self {
        let mut reg = FunctionRegistry {
            functions: HashMap::new(),
            aggregates: HashMap::new(),
        };
        reg.register("area", |o| Value::Float(o.area()));
        reg.register("perimeter", |o| match o {
            SpatialObject::Region(r) => Value::Float(r.perimeter()),
            SpatialObject::Segment(s) => Value::Float(s.length()),
            SpatialObject::Point(_) => Value::Float(0.0),
        });
        reg.register("class", |o| Value::str(o.class()));
        reg.register("x", |o| Value::Float(o.representative().x));
        reg.register("y", |o| Value::Float(o.representative().y));
        reg.register("northest", |o| Value::Float(o.mbr().max_y));
        // Aggregates over object sets (§2.1's northest and friends).
        reg.register_aggregate("northest-of", |objs| {
            agg_mbr(objs).map_or(Value::Null, |m| Value::Float(m.max_y))
        });
        reg.register_aggregate("southest-of", |objs| {
            agg_mbr(objs).map_or(Value::Null, |m| Value::Float(m.min_y))
        });
        reg.register_aggregate("eastest-of", |objs| {
            agg_mbr(objs).map_or(Value::Null, |m| Value::Float(m.max_x))
        });
        reg.register_aggregate("westest-of", |objs| {
            agg_mbr(objs).map_or(Value::Null, |m| Value::Float(m.min_x))
        });
        reg.register_aggregate("count-of", |objs| Value::Int(objs.len() as i64));
        reg.register_aggregate("extent-of", |objs| {
            agg_mbr(objs).map_or(Value::Null, |m| Value::Float(m.area()))
        });
        reg.register_aggregate("total-area-of", |objs| {
            Value::Float(objs.iter().map(SpatialObject::area).sum())
        });
        reg
    }

    /// Registers (or replaces) a function.
    pub fn register(&mut self, name: &str, f: PictorialFn) {
        self.functions.insert(name.to_owned(), f);
    }

    /// Registers (or replaces) an aggregate function.
    pub fn register_aggregate(&mut self, name: &str, f: AggregateFn) {
        self.aggregates.insert(name.to_owned(), f);
    }

    /// Applies aggregate `name` to a set of objects.
    pub fn apply_aggregate(
        &self,
        name: &str,
        objects: &[SpatialObject],
    ) -> Result<Value, PsqlError> {
        let f = self
            .aggregates
            .get(name)
            .ok_or_else(|| PsqlError::Semantic(format!("no aggregate function {name:?}")))?;
        Ok(f(objects))
    }

    /// `true` if `name` is a registered aggregate.
    pub fn is_aggregate(&self, name: &str) -> bool {
        self.aggregates.contains_key(name)
    }

    /// Applies `name` to an object.
    pub fn apply(&self, name: &str, object: &SpatialObject) -> Result<Value, PsqlError> {
        Ok(self.function(name)?(object))
    }

    /// The function registered as `name`, for callers applying it to
    /// many objects.
    pub(crate) fn function(&self, name: &str) -> Result<PictorialFn, PsqlError> {
        self.functions
            .get(name)
            .copied()
            .ok_or_else(|| PsqlError::Semantic(format!("no pictorial function {name:?}")))
    }

    /// `true` if `name` is registered.
    pub fn contains(&self, name: &str) -> bool {
        self.functions.contains_key(name)
    }
}

impl Default for FunctionRegistry {
    fn default() -> Self {
        Self::with_builtins()
    }
}

/// MBR of a set of objects, `None` when empty.
fn agg_mbr(objects: &[SpatialObject]) -> Option<Rect> {
    Rect::mbr_of_rects(objects.iter().map(SpatialObject::mbr))
}

impl std::fmt::Debug for FunctionRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut names: Vec<&str> = self.functions.keys().map(String::as_str).collect();
        names.sort_unstable();
        write!(f, "FunctionRegistry({names:?})")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtree_geom::{Point, Rect, Region, Segment};

    #[test]
    fn builtin_area_and_class() {
        let reg = FunctionRegistry::with_builtins();
        let region = SpatialObject::Region(Region::rectangle(Rect::new(0.0, 0.0, 4.0, 3.0)));
        assert_eq!(reg.apply("area", &region).unwrap(), Value::Float(12.0));
        assert_eq!(reg.apply("class", &region).unwrap(), Value::str("region"));
        let point = SpatialObject::Point(Point::new(1.0, 2.0));
        assert_eq!(reg.apply("area", &point).unwrap(), Value::Float(0.0));
        assert_eq!(reg.apply("y", &point).unwrap(), Value::Float(2.0));
    }

    #[test]
    fn perimeter_per_class() {
        let reg = FunctionRegistry::with_builtins();
        let seg = SpatialObject::Segment(Segment::new(Point::new(0.0, 0.0), Point::new(3.0, 4.0)));
        assert_eq!(reg.apply("perimeter", &seg).unwrap(), Value::Float(5.0));
    }

    #[test]
    fn northest() {
        let reg = FunctionRegistry::with_builtins();
        let seg = SpatialObject::Segment(Segment::new(Point::new(0.0, 7.0), Point::new(3.0, 4.0)));
        assert_eq!(reg.apply("northest", &seg).unwrap(), Value::Float(7.0));
    }

    #[test]
    fn user_defined_extension() {
        let mut reg = FunctionRegistry::with_builtins();
        reg.register("width", |o| Value::Float(o.mbr().width()));
        let region = SpatialObject::Region(Region::rectangle(Rect::new(0.0, 0.0, 4.0, 3.0)));
        assert_eq!(reg.apply("width", &region).unwrap(), Value::Float(4.0));
    }

    #[test]
    fn aggregates() {
        let reg = FunctionRegistry::with_builtins();
        let objs = vec![
            SpatialObject::Segment(Segment::new(Point::new(0.0, 1.0), Point::new(4.0, 7.0))),
            SpatialObject::Segment(Segment::new(Point::new(4.0, 7.0), Point::new(9.0, 3.0))),
        ];
        assert_eq!(
            reg.apply_aggregate("northest-of", &objs).unwrap(),
            Value::Float(7.0)
        );
        assert_eq!(
            reg.apply_aggregate("westest-of", &objs).unwrap(),
            Value::Float(0.0)
        );
        assert_eq!(
            reg.apply_aggregate("count-of", &objs).unwrap(),
            Value::Int(2)
        );
        assert_eq!(
            reg.apply_aggregate("northest-of", &[]).unwrap(),
            Value::Null
        );
        assert!(reg.is_aggregate("northest-of"));
        assert!(!reg.is_aggregate("area"));
        assert!(reg.apply_aggregate("nope", &objs).is_err());
    }

    #[test]
    fn unknown_function_errors() {
        let reg = FunctionRegistry::with_builtins();
        let point = SpatialObject::Point(Point::ORIGIN);
        assert!(reg.apply("frobnicate", &point).is_err());
        assert!(reg.contains("area"));
        assert!(!reg.contains("frobnicate"));
    }
}
