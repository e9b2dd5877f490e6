//! Typed values, including the pictorial `pointer` type.

use std::cmp::Ordering;
use std::fmt;

/// A value of a relation column.
///
/// `Pointer` is the paper's backward identifier "of type pointer which
/// points to the area on the picture (to the leaf-node of the R-tree)"
/// (§2.1): it holds the object id that the picture's R-tree indexes.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// SQL NULL.
    Null,
    /// 64-bit integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// UTF-8 string.
    Str(String),
    /// Pointer into a picture's object table (the `loc` column).
    Pointer(u64),
}

impl Value {
    /// Convenience constructor from `&str`.
    pub fn str(s: &str) -> Value {
        Value::Str(s.to_owned())
    }

    /// The value's type, or `None` for NULL.
    pub fn column_type(&self) -> Option<crate::schema::ColumnType> {
        use crate::schema::ColumnType::*;
        match self {
            Value::Null => None,
            Value::Int(_) => Some(Int),
            Value::Float(_) => Some(Float),
            Value::Str(_) => Some(Str),
            Value::Pointer(_) => Some(Pointer),
        }
    }

    /// Numeric view (ints widen to float), `None` otherwise.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Pointer view.
    pub fn as_pointer(&self) -> Option<u64> {
        match self {
            Value::Pointer(p) => Some(*p),
            _ => None,
        }
    }

    /// String view.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The borrowed form, as a [`Row`](crate::Row) hands out a column.
    pub fn as_ref(&self) -> ValueRef<'_> {
        match self {
            Value::Null => ValueRef::Null,
            Value::Int(i) => ValueRef::Int(*i),
            Value::Float(f) => ValueRef::Float(*f),
            Value::Str(s) => ValueRef::Str(s),
            Value::Pointer(p) => ValueRef::Pointer(*p),
        }
    }
}

impl Eq for Value {}

/// Total order: NULL < numerics (ints and floats interleaved by value) <
/// strings < pointers. Floats order by `total_cmp`. This deterministic
/// cross-type order is what the catalog's indexes and sort operators
/// use. It is [`ValueRef`]'s order, so a borrowed value sorts as its
/// owned one does.
impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        self.as_ref().cmp(&other.as_ref())
    }
}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.as_ref().fmt(f)
    }
}

/// A [`Value`] borrowed from where it is stored: a string column's text
/// stays in its relation's byte buffer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ValueRef<'a> {
    /// SQL NULL.
    Null,
    /// 64-bit integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// UTF-8 string.
    Str(&'a str),
    /// Pointer into a picture's object table (the `loc` column).
    Pointer(u64),
}

impl ValueRef<'_> {
    /// The owned value.
    pub fn to_value(self) -> Value {
        match self {
            ValueRef::Null => Value::Null,
            ValueRef::Int(i) => Value::Int(i),
            ValueRef::Float(f) => Value::Float(f),
            ValueRef::Str(s) => Value::str(s),
            ValueRef::Pointer(p) => Value::Pointer(p),
        }
    }

    /// Pointer view.
    pub fn as_pointer(self) -> Option<u64> {
        match self {
            ValueRef::Pointer(p) => Some(p),
            _ => None,
        }
    }

    fn type_rank(self) -> u8 {
        match self {
            ValueRef::Null => 0,
            ValueRef::Int(_) => 1,
            ValueRef::Float(_) => 1, // numerics compare with each other
            ValueRef::Str(_) => 2,
            ValueRef::Pointer(_) => 3,
        }
    }
}

impl Eq for ValueRef<'_> {}

/// [`Value`]'s order.
impl Ord for ValueRef<'_> {
    fn cmp(&self, other: &Self) -> Ordering {
        match (*self, *other) {
            (ValueRef::Int(a), ValueRef::Int(b)) => a.cmp(&b),
            (ValueRef::Float(a), ValueRef::Float(b)) => a.total_cmp(&b),
            (ValueRef::Int(a), ValueRef::Float(b)) => (a as f64).total_cmp(&b),
            (ValueRef::Float(a), ValueRef::Int(b)) => a.total_cmp(&(b as f64)),
            (ValueRef::Str(a), ValueRef::Str(b)) => a.cmp(b),
            (ValueRef::Pointer(a), ValueRef::Pointer(b)) => a.cmp(&b),
            (ValueRef::Null, ValueRef::Null) => Ordering::Equal,
            (a, b) => a.type_rank().cmp(&b.type_rank()),
        }
    }
}

impl PartialOrd for ValueRef<'_> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Display for ValueRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValueRef::Null => f.write_str("NULL"),
            ValueRef::Int(i) => write!(f, "{i}"),
            ValueRef::Float(x) => write!(f, "{x}"),
            ValueRef::Str(s) => write!(f, "{s}"),
            ValueRef::Pointer(p) => write!(f, "loc@{p}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::str(v)
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numeric_cross_type_ordering() {
        assert!(Value::Int(2) < Value::Float(2.5));
        assert!(Value::Float(1.5) < Value::Int(2));
        assert_eq!(Value::Int(2).cmp(&Value::Float(2.0)), Ordering::Equal);
    }

    #[test]
    fn type_rank_ordering() {
        assert!(Value::Null < Value::Int(i64::MIN));
        assert!(Value::Int(i64::MAX) < Value::str("a"));
        assert!(Value::str("zzz") < Value::Pointer(0));
    }

    #[test]
    fn borrowed_values_order_round_trip_and_print() {
        let values = [
            Value::Null,
            Value::Int(i64::MIN),
            Value::Float(-0.0),
            Value::Int(0),
            Value::Float(0.0),
            Value::Float(2.5),
            Value::Int(3),
            Value::Float(f64::NAN),
            Value::str(""),
            Value::str("alpha"),
            Value::Pointer(0),
        ];
        for pair in values.windows(2) {
            assert!(pair[0].as_ref() <= pair[1].as_ref(), "{pair:?}");
        }
        assert!(Value::Float(-0.0).as_ref() < Value::Int(0).as_ref());
        for v in &values {
            assert_eq!(format!("{:?}", v.as_ref().to_value()), format!("{v:?}"));
            assert_eq!(v.as_ref().to_string(), v.to_string());
        }
    }

    #[test]
    fn string_ordering() {
        assert!(Value::str("alpha") < Value::str("beta"));
    }

    #[test]
    fn views() {
        assert_eq!(Value::Int(3).as_f64(), Some(3.0));
        assert_eq!(Value::Float(2.5).as_f64(), Some(2.5));
        assert_eq!(Value::str("x").as_f64(), None);
        assert_eq!(Value::Pointer(9).as_pointer(), Some(9));
        assert_eq!(Value::str("hi").as_str(), Some("hi"));
    }

    #[test]
    fn display() {
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::Pointer(4).to_string(), "loc@4");
        assert_eq!(Value::str("Boston").to_string(), "Boston");
    }
}
