//! Axis-aligned rectangles — the paper's minimal bounding rectangles (MBRs).
//!
//! # Edge-touching semantics
//!
//! Rectangles are **closed sets**: they include their boundaries, and
//! degenerate (zero-width/zero-height) rectangles are legal and represent
//! points and axis-parallel segments.  Three predicates with deliberately
//! different strengths live here:
//!
//! - [`Rect::intersects`] — shares *at least one point*.  Touching edges,
//!   touching corners, and coincident degenerate rects all count.  This is
//!   the paper's `INTERSECTS`, and it is the MBR-level meaning of PSQL's
//!   `overlapping` operator.
//! - [`Rect::disjoint`] — the exact complement of `intersects`; the
//!   MBR-level meaning of PSQL's `disjoined`.
//! - [`Rect::overlaps`] — *strictly stronger*: requires more than
//!   boundary contact (positive intersection area, or a degenerate rect
//!   interior to the other, or coincident degenerate rects).  Two rects
//!   sharing only an edge or corner — including a point-rect sitting on
//!   another rect's edge — intersect but do **not** overlap.
//!   This predicate is a packing-quality metric (used to certify the
//!   zero-overlap property of Theorem 3.2); it is **not** used to answer
//!   PSQL `overlapping` queries.
//!
//! Every query layer (geom object predicates, R-tree search, the PSQL
//! executor, and the differential oracle in `crates/oracle`) agrees on the
//! closed-set pair `intersects`/`disjoint`.

use crate::point::Point;
use std::fmt;

/// An axis-aligned rectangle, closed on all sides.
///
/// This is the paper's minimal bounding rectangle `I` stored in every R-tree
/// entry (`X1, X2, Y1, Y2` in the PASCAL declaration of §3). Degenerate
/// rectangles (zero width and/or height) are allowed and represent points
/// and axis-parallel segments.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rect {
    /// Smallest x coordinate (the paper's `X1`).
    pub min_x: f64,
    /// Smallest y coordinate (`Y1`).
    pub min_y: f64,
    /// Largest x coordinate (`X2`).
    pub max_x: f64,
    /// Largest y coordinate (`Y2`).
    pub max_y: f64,
}

impl Rect {
    /// Creates a rectangle from its extremes.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `min > max` on either axis or any
    /// coordinate is not finite.
    #[inline]
    pub fn new(min_x: f64, min_y: f64, max_x: f64, max_y: f64) -> Self {
        debug_assert!(min_x <= max_x, "min_x {min_x} > max_x {max_x}");
        debug_assert!(min_y <= max_y, "min_y {min_y} > max_y {max_y}");
        debug_assert!(
            min_x.is_finite() && min_y.is_finite() && max_x.is_finite() && max_y.is_finite(),
            "non-finite rect coordinate"
        );
        Rect {
            min_x,
            min_y,
            max_x,
            max_y,
        }
    }

    /// Creates the rectangle spanning two corner points (in any order).
    #[inline]
    pub fn from_corners(a: Point, b: Point) -> Self {
        Rect::new(a.x.min(b.x), a.y.min(b.y), a.x.max(b.x), a.y.max(b.y))
    }

    /// Degenerate rectangle covering a single point.
    #[inline]
    pub fn from_point(p: Point) -> Self {
        Rect::new(p.x, p.y, p.x, p.y)
    }

    /// Minimal bounding rectangle of a non-empty set of points — the
    /// `(P1, P2, …, Pn)` notation of §3.1.
    ///
    /// Returns `None` for an empty iterator.
    pub fn mbr_of_points<I: IntoIterator<Item = Point>>(points: I) -> Option<Rect> {
        let mut it = points.into_iter();
        let first = it.next()?;
        let mut r = Rect::from_point(first);
        for p in it {
            r = r.union_point(p);
        }
        Some(r)
    }

    /// Minimal bounding rectangle of a non-empty set of rectangles.
    ///
    /// Returns `None` for an empty iterator.
    pub fn mbr_of_rects<I: IntoIterator<Item = Rect>>(rects: I) -> Option<Rect> {
        let mut it = rects.into_iter();
        let first = it.next()?;
        Some(it.fold(first, |acc, r| acc.union(&r)))
    }

    /// Width of the rectangle.
    #[inline]
    pub fn width(&self) -> f64 {
        self.max_x - self.min_x
    }

    /// Height of the rectangle.
    #[inline]
    pub fn height(&self) -> f64 {
        self.max_y - self.min_y
    }

    /// Area. Zero for degenerate rectangles.
    #[inline]
    pub fn area(&self) -> f64 {
        self.width() * self.height()
    }

    /// Center point.
    #[inline]
    pub fn center(&self) -> Point {
        Point::new(
            (self.min_x + self.max_x) / 2.0,
            (self.min_y + self.max_y) / 2.0,
        )
    }

    /// Smallest rectangle containing both `self` and `other`.
    #[inline]
    pub fn union(&self, other: &Rect) -> Rect {
        Rect {
            min_x: self.min_x.min(other.min_x),
            min_y: self.min_y.min(other.min_y),
            max_x: self.max_x.max(other.max_x),
            max_y: self.max_y.max(other.max_y),
        }
    }

    /// Smallest rectangle containing `self` and the point `p`.
    #[inline]
    pub fn union_point(&self, p: Point) -> Rect {
        Rect {
            min_x: self.min_x.min(p.x),
            min_y: self.min_y.min(p.y),
            max_x: self.max_x.max(p.x),
            max_y: self.max_y.max(p.y),
        }
    }

    /// Intersection rectangle, or `None` if the rectangles are disjoint.
    ///
    /// Touching boundaries produce a degenerate (zero-area) intersection.
    #[inline]
    pub fn intersection(&self, other: &Rect) -> Option<Rect> {
        let min_x = self.min_x.max(other.min_x);
        let min_y = self.min_y.max(other.min_y);
        let max_x = self.max_x.min(other.max_x);
        let max_y = self.max_y.min(other.max_y);
        if min_x <= max_x && min_y <= max_y {
            Some(Rect {
                min_x,
                min_y,
                max_x,
                max_y,
            })
        } else {
            None
        }
    }

    /// Area of the intersection with `other` (zero when disjoint).
    ///
    /// Total on junk input: the result is always a non-negative,
    /// non-NaN number. NaN coordinates fall out of the `min`/`max`
    /// lattice (IEEE `min`/`max` ignore NaN) and the final guard keeps a
    /// degenerate axis from turning an unbounded one into `0 × ∞ = NaN`.
    #[inline]
    pub fn intersection_area(&self, other: &Rect) -> f64 {
        let w = (self.max_x.min(other.max_x) - self.min_x.max(other.min_x)).max(0.0);
        let h = (self.max_y.min(other.max_y) - self.min_y.max(other.min_y)).max(0.0);
        if w == 0.0 || h == 0.0 {
            0.0
        } else {
            w * h
        }
    }

    /// `true` if the rectangles share at least one point (the paper's
    /// `INTERSECTS`, used to decide whether to descend into a subtree
    /// during `SEARCH`, §3.1). Touching boundaries count.
    #[inline]
    pub fn intersects(&self, other: &Rect) -> bool {
        self.min_x <= other.max_x
            && other.min_x <= self.max_x
            && self.min_y <= other.max_y
            && other.min_y <= self.max_y
    }

    /// `true` if the rectangles share no point — PSQL's `disjoined`.
    #[inline]
    pub fn disjoint(&self, other: &Rect) -> bool {
        !self.intersects(other)
    }

    /// `true` if `other` lies entirely inside `self` — PSQL's `covering`
    /// viewed from `self`, and the paper's `WITHIN` with the roles swapped.
    #[inline]
    pub fn covers(&self, other: &Rect) -> bool {
        self.min_x <= other.min_x
            && self.min_y <= other.min_y
            && self.max_x >= other.max_x
            && self.max_y >= other.max_y
    }

    /// `true` if `self` lies entirely inside `other` — PSQL's `covered-by`
    /// and the `WITHIN` test of the paper's leaf-level search.
    #[inline]
    pub fn covered_by(&self, other: &Rect) -> bool {
        other.covers(self)
    }

    /// `true` if the rectangles share more than boundary contact —
    /// strictly stronger than [`Rect::intersects`].
    ///
    /// Per axis, the shared span must have positive length, or collapse
    /// to a value that is interior to (or the entirety of) *both* spans.
    /// So: positive-area intersection overlaps; a degenerate rect
    /// strictly inside another overlaps; coincident degenerate rects
    /// overlap; but a point-rect on another rect's edge, or two rects
    /// sharing only an edge or corner, merely intersect.
    ///
    /// This is a packing-quality metric (zero-overlap certification,
    /// Theorem 3.2), **not** the predicate behind PSQL's `overlapping`
    /// operator — that one is the closed-set [`Rect::intersects`]; see
    /// the module-level semantics note.
    pub fn overlaps(&self, other: &Rect) -> bool {
        fn span_overlap(a_lo: f64, a_hi: f64, b_lo: f64, b_hi: f64) -> bool {
            let lo = a_lo.max(b_lo);
            let hi = a_hi.min(b_hi);
            if lo > hi {
                return false;
            }
            if lo < hi {
                return true;
            }
            let interior = |l: f64, h: f64| l == h || (l < lo && lo < h);
            interior(a_lo, a_hi) && interior(b_lo, b_hi)
        }
        span_overlap(self.min_x, self.max_x, other.min_x, other.max_x)
            && span_overlap(self.min_y, self.max_y, other.min_y, other.max_y)
    }

    /// `true` if the point lies inside or on the boundary.
    #[inline]
    pub fn contains_point(&self, p: Point) -> bool {
        self.min_x <= p.x && p.x <= self.max_x && self.min_y <= p.y && p.y <= self.max_y
    }

    /// Additional area needed to enlarge `self` so that it covers `other`.
    ///
    /// This is the cost function of Guttman's `ChooseLeaf`: INSERT descends
    /// into the subtree whose MBR requires the *least enlargement* (§3.4).
    #[inline]
    pub fn enlargement(&self, other: &Rect) -> f64 {
        self.union(other).area() - self.area()
    }

    /// Minimum squared distance from the point `p` to this rectangle
    /// (zero if `p` is inside). Used by branch-and-bound kNN search.
    #[inline]
    pub fn min_distance_sq(&self, p: Point) -> f64 {
        let dx = (self.min_x - p.x).max(0.0).max(p.x - self.max_x);
        let dy = (self.min_y - p.y).max(0.0).max(p.y - self.max_y);
        dx * dx + dy * dy
    }

    /// The four corner points, counter-clockwise from the lower-left.
    #[inline]
    pub fn corners(&self) -> [Point; 4] {
        [
            Point::new(self.min_x, self.min_y),
            Point::new(self.max_x, self.min_y),
            Point::new(self.max_x, self.max_y),
            Point::new(self.min_x, self.max_y),
        ]
    }

    /// `true` if the rectangle has zero area.
    #[inline]
    pub fn is_degenerate(&self) -> bool {
        self.width() == 0.0 || self.height() == 0.0
    }
}

impl fmt::Display for Rect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{:.3},{:.3}]x[{:.3},{:.3}]",
            self.min_x, self.max_x, self.min_y, self.max_y
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(a: f64, b: f64, c: f64, d: f64) -> Rect {
        Rect::new(a, b, c, d)
    }

    #[test]
    fn area_and_center() {
        let x = r(0.0, 0.0, 4.0, 3.0);
        assert_eq!(x.area(), 12.0);
        assert_eq!(x.center(), Point::new(2.0, 1.5));
    }

    #[test]
    fn degenerate_point_rect() {
        let x = Rect::from_point(Point::new(2.0, 5.0));
        assert_eq!(x.area(), 0.0);
        assert!(x.is_degenerate());
        assert!(x.contains_point(Point::new(2.0, 5.0)));
        assert!(!x.contains_point(Point::new(2.0, 5.1)));
    }

    #[test]
    fn union_covers_both() {
        let a = r(0.0, 0.0, 1.0, 1.0);
        let b = r(2.0, -1.0, 3.0, 0.5);
        let u = a.union(&b);
        assert!(u.covers(&a) && u.covers(&b));
        assert_eq!(u, r(0.0, -1.0, 3.0, 1.0));
    }

    #[test]
    fn intersection_of_overlapping() {
        let a = r(0.0, 0.0, 2.0, 2.0);
        let b = r(1.0, 1.0, 3.0, 3.0);
        assert_eq!(a.intersection(&b), Some(r(1.0, 1.0, 2.0, 2.0)));
        assert_eq!(a.intersection_area(&b), 1.0);
        assert!(a.intersects(&b));
        assert!(a.overlaps(&b));
    }

    #[test]
    fn touching_rects_intersect_but_do_not_overlap() {
        let a = r(0.0, 0.0, 1.0, 1.0);
        let b = r(1.0, 0.0, 2.0, 1.0);
        assert!(a.intersects(&b));
        assert_eq!(a.intersection_area(&b), 0.0);
        assert!(!a.overlaps(&b));
        assert!(!a.disjoint(&b));
    }

    #[test]
    fn zero_area_rects_follow_closed_semantics() {
        // A point-rect on another rect's edge: intersects, not overlaps.
        let a = r(0.0, 0.0, 2.0, 2.0);
        let p = r(2.0, 1.0, 2.0, 1.0);
        assert!(a.intersects(&p));
        assert!(!a.disjoint(&p));
        assert!(!a.overlaps(&p));
        // A point-rect strictly inside: covered, hence overlaps too.
        let q = r(1.0, 1.0, 1.0, 1.0);
        assert!(a.intersects(&q));
        assert!(a.covers(&q));
        assert!(a.overlaps(&q));
        // Two coincident point-rects cover each other, so they overlap.
        assert!(q.intersects(&q));
        assert!(q.overlaps(&q));
        // Corner-only contact: intersects, never overlaps.
        let c = r(2.0, 2.0, 4.0, 4.0);
        assert!(a.intersects(&c));
        assert!(!a.overlaps(&c));
        assert!(!a.disjoint(&c));
    }

    #[test]
    fn disjoint_rects() {
        let a = r(0.0, 0.0, 1.0, 1.0);
        let b = r(2.0, 2.0, 3.0, 3.0);
        assert!(a.disjoint(&b));
        assert_eq!(a.intersection(&b), None);
        assert_eq!(a.intersection_area(&b), 0.0);
    }

    #[test]
    fn covers_is_reflexive_and_antisymmetric_on_distinct() {
        let a = r(0.0, 0.0, 4.0, 4.0);
        let b = r(1.0, 1.0, 2.0, 2.0);
        assert!(a.covers(&a));
        assert!(a.covers(&b));
        assert!(b.covered_by(&a));
        assert!(!b.covers(&a));
    }

    #[test]
    fn enlargement_cost() {
        let a = r(0.0, 0.0, 2.0, 2.0);
        let inside = r(0.5, 0.5, 1.0, 1.0);
        assert_eq!(a.enlargement(&inside), 0.0);
        let outside = r(3.0, 0.0, 4.0, 2.0);
        // union is [0,4]x[0,2] = 8; a.area = 4
        assert_eq!(a.enlargement(&outside), 4.0);
    }

    #[test]
    fn min_distance_to_point() {
        let a = r(0.0, 0.0, 2.0, 2.0);
        assert_eq!(a.min_distance_sq(Point::new(1.0, 1.0)), 0.0);
        assert_eq!(a.min_distance_sq(Point::new(5.0, 2.0)), 9.0);
        assert_eq!(a.min_distance_sq(Point::new(5.0, 6.0)), 25.0);
    }

    #[test]
    fn mbr_of_points_spans_all() {
        let pts = [
            Point::new(3.0, 1.0),
            Point::new(-1.0, 4.0),
            Point::new(2.0, -2.0),
        ];
        let m = Rect::mbr_of_points(pts).unwrap();
        assert_eq!(m, r(-1.0, -2.0, 3.0, 4.0));
        assert!(pts.iter().all(|&p| m.contains_point(p)));
        assert!(Rect::mbr_of_points(std::iter::empty()).is_none());
    }

    #[test]
    fn mbr_of_rects_spans_all() {
        let rs = [r(0.0, 0.0, 1.0, 1.0), r(5.0, -3.0, 6.0, 0.0)];
        let m = Rect::mbr_of_rects(rs).unwrap();
        assert_eq!(m, r(0.0, -3.0, 6.0, 1.0));
        assert!(Rect::mbr_of_rects(std::iter::empty()).is_none());
    }

    #[test]
    fn from_corners_normalizes() {
        let a = Rect::from_corners(Point::new(3.0, 1.0), Point::new(0.0, 4.0));
        assert_eq!(a, r(0.0, 1.0, 3.0, 4.0));
    }

    #[test]
    fn intersection_area_degenerate_rects() {
        let unit = r(0.0, 0.0, 1.0, 1.0);
        // A point rectangle inside, on the edge, and outside.
        let point = r(0.5, 0.5, 0.5, 0.5);
        assert_eq!(point.intersection_area(&unit), 0.0);
        assert_eq!(unit.intersection_area(&point), 0.0);
        assert_eq!(r(1.0, 0.5, 1.0, 0.5).intersection_area(&unit), 0.0);
        assert_eq!(r(2.0, 2.0, 2.0, 2.0).intersection_area(&unit), 0.0);
        // A zero-width line segment overlapping the interior.
        assert_eq!(r(0.5, -1.0, 0.5, 2.0).intersection_area(&unit), 0.0);
        // Degenerate-but-touching still counts as intersecting.
        assert!(point.intersects(&unit));
    }

    #[test]
    fn intersection_area_zero_times_infinity_is_zero() {
        // Regression: a zero-width intersection crossed with an unbounded
        // axis used to produce `0.0 × ∞ = NaN`. Unbounded rects can only
        // arise through the struct literal (Rect::new debug-asserts
        // finiteness), which is exactly how untrusted data enters.
        let line = Rect {
            min_x: 0.5,
            min_y: f64::NEG_INFINITY,
            max_x: 0.5,
            max_y: f64::INFINITY,
        };
        let tall = Rect {
            min_x: 0.0,
            min_y: f64::NEG_INFINITY,
            max_x: 1.0,
            max_y: f64::INFINITY,
        };
        let area = line.intersection_area(&tall);
        assert_eq!(area, 0.0, "got {area}");
        // Two unbounded rects legitimately intersect in infinite area.
        assert_eq!(tall.intersection_area(&tall), f64::INFINITY);
    }

    #[test]
    fn intersection_area_nan_inputs_never_return_nan() {
        let unit = r(0.0, 0.0, 1.0, 1.0);
        let cases = [
            Rect {
                min_x: f64::NAN,
                min_y: 0.0,
                max_x: 0.5,
                max_y: 1.0,
            },
            Rect {
                min_x: 0.0,
                min_y: 0.0,
                max_x: f64::NAN,
                max_y: 1.0,
            },
            Rect {
                min_x: f64::NAN,
                min_y: f64::NAN,
                max_x: f64::NAN,
                max_y: f64::NAN,
            },
        ];
        for (i, bad) in cases.iter().enumerate() {
            for (a, b) in [(bad, &unit), (&unit, bad)] {
                let area = a.intersection_area(b);
                assert!(!area.is_nan(), "case {i}: NaN leaked");
                assert!(area >= 0.0, "case {i}: negative area {area}");
            }
        }
    }
}
