//! Two-dimensional points.

use std::fmt;
use std::ops::{Add, Mul, Sub};

/// A point in the plane.
///
/// Points are one of the three spatial object classes the paper works with
/// ("points", "segments", "regions", §3). Cities on the US map of Figure 3.1
/// are points.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Point {
    /// Horizontal coordinate.
    pub x: f64,
    /// Vertical coordinate.
    pub y: f64,
}

impl Point {
    /// Creates a point from its coordinates.
    #[inline]
    pub const fn new(x: f64, y: f64) -> Self {
        Point { x, y }
    }

    /// The origin `(0, 0)`.
    pub const ORIGIN: Point = Point { x: 0.0, y: 0.0 };

    /// Squared Euclidean distance to `other`.
    ///
    /// Preferred over [`Point::distance`] in hot paths (nearest-neighbour
    /// selection in PACK) because it avoids the square root while inducing
    /// the same ordering.
    #[inline]
    pub fn distance_sq(&self, other: Point) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        dx * dx + dy * dy
    }

    /// Euclidean distance to `other`.
    #[inline]
    pub fn distance(&self, other: Point) -> f64 {
        self.distance_sq(other).sqrt()
    }

    /// Rotates the point counter-clockwise about the origin by `angle`
    /// radians.
    ///
    /// This is the transformation of Lemma 3.1: the paper rotates an entire
    /// point set to make all x-coordinates distinct.
    #[inline]
    pub fn rotated(&self, angle: f64) -> Point {
        let (sin, cos) = angle.sin_cos();
        Point {
            x: self.x * cos - self.y * sin,
            y: self.x * sin + self.y * cos,
        }
    }

    /// Midpoint of the segment from `self` to `other`.
    #[inline]
    pub fn midpoint(&self, other: Point) -> Point {
        Point {
            x: (self.x + other.x) / 2.0,
            y: (self.y + other.y) / 2.0,
        }
    }

    /// Z-component of the cross product, treating the points as vectors.
    ///
    /// Positive when `other` is counter-clockwise of `self`.
    #[inline]
    pub fn cross(&self, other: Point) -> f64 {
        self.x * other.y - self.y * other.x
    }

    /// Returns `true` if both coordinates are finite.
    #[inline]
    pub fn is_finite(&self) -> bool {
        self.x.is_finite() && self.y.is_finite()
    }
}

impl Add for Point {
    type Output = Point;
    #[inline]
    fn add(self, rhs: Point) -> Point {
        Point::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl Sub for Point {
    type Output = Point;
    #[inline]
    fn sub(self, rhs: Point) -> Point {
        Point::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl Mul<f64> for Point {
    type Output = Point;
    #[inline]
    fn mul(self, rhs: f64) -> Point {
        Point::new(self.x * rhs, self.y * rhs)
    }
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.3}, {:.3})", self.x, self.y)
    }
}

impl From<(f64, f64)> for Point {
    #[inline]
    fn from((x, y): (f64, f64)) -> Self {
        Point::new(x, y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_matches_squared_distance() {
        let a = Point::new(1.0, 2.0);
        let b = Point::new(4.0, 6.0);
        assert_eq!(a.distance(b), 5.0);
        assert_eq!(a.distance_sq(b), 25.0);
    }

    #[test]
    fn distance_is_symmetric() {
        let a = Point::new(-3.5, 0.25);
        let b = Point::new(7.0, -2.0);
        assert_eq!(a.distance(b), b.distance(a));
    }

    #[test]
    fn rotation_by_quarter_turn() {
        let p = Point::new(1.0, 0.0).rotated(std::f64::consts::FRAC_PI_2);
        assert!((p.x - 0.0).abs() < 1e-12);
        assert!((p.y - 1.0).abs() < 1e-12);
    }

    #[test]
    fn rotation_preserves_distance_to_origin() {
        let p = Point::new(3.0, 4.0);
        for i in 0..16 {
            let q = p.rotated(i as f64 * 0.3);
            assert!((q.distance(Point::ORIGIN) - 5.0).abs() < 1e-9);
        }
    }

    #[test]
    fn vector_arithmetic() {
        let a = Point::new(1.0, 2.0);
        let b = Point::new(3.0, -1.0);
        assert_eq!(a + b, Point::new(4.0, 1.0));
        assert_eq!(a - b, Point::new(-2.0, 3.0));
        assert_eq!(a * 2.0, Point::new(2.0, 4.0));
        assert_eq!(a.cross(b), -7.0);
    }

    #[test]
    fn midpoint_is_halfway() {
        let m = Point::new(0.0, 0.0).midpoint(Point::new(10.0, 4.0));
        assert_eq!(m, Point::new(5.0, 2.0));
    }
}
