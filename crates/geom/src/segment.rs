//! Line segments — the spatial class of highway sections (§2.1, §3).

use crate::point::Point;
use crate::rect::Rect;
use std::fmt;

/// A straight line segment between two endpoints.
///
/// The `highways(hwy-name, hwy-section, loc)` relation of §2.1 stores one
/// segment per tuple; aggregate functions such as `northest` operate on sets
/// of them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Segment {
    /// First endpoint.
    pub a: Point,
    /// Second endpoint.
    pub b: Point,
}

impl Segment {
    /// Creates a segment between two points.
    #[inline]
    pub const fn new(a: Point, b: Point) -> Self {
        Segment { a, b }
    }

    /// Minimal bounding rectangle of the segment.
    #[inline]
    pub fn mbr(&self) -> Rect {
        Rect::from_corners(self.a, self.b)
    }

    /// Length of the segment.
    #[inline]
    pub fn length(&self) -> f64 {
        self.a.distance(self.b)
    }

    /// Midpoint of the segment.
    #[inline]
    pub fn midpoint(&self) -> Point {
        self.a.midpoint(self.b)
    }

    /// `true` if the segment has any point inside or on the rectangle.
    ///
    /// This is the exact test behind direct spatial search over segment
    /// objects: the R-tree prunes by MBR, then the candidate segments are
    /// checked against the target window with this predicate.
    pub fn intersects_rect(&self, r: &Rect) -> bool {
        // Quick accept: either endpoint inside.
        if r.contains_point(self.a) || r.contains_point(self.b) {
            return true;
        }
        // Quick reject: MBRs disjoint.
        if !self.mbr().intersects(r) {
            return false;
        }
        // Otherwise the segment must cross one of the rectangle's edges.
        let c = r.corners();
        let edges = [
            Segment::new(c[0], c[1]),
            Segment::new(c[1], c[2]),
            Segment::new(c[2], c[3]),
            Segment::new(c[3], c[0]),
        ];
        edges.iter().any(|e| self.intersects_segment(e))
    }

    /// `true` if this segment shares at least one point with `other`.
    ///
    /// Uses the standard orientation test and handles collinear overlap.
    pub fn intersects_segment(&self, other: &Segment) -> bool {
        fn orient(p: Point, q: Point, r: Point) -> f64 {
            (q - p).cross(r - p)
        }
        fn on_segment(p: Point, q: Point, r: Point) -> bool {
            // Assuming collinearity, is q within the box of p..r?
            q.x >= p.x.min(r.x) && q.x <= p.x.max(r.x) && q.y >= p.y.min(r.y) && q.y <= p.y.max(r.y)
        }
        let (p1, q1, p2, q2) = (self.a, self.b, other.a, other.b);
        let d1 = orient(p1, q1, p2);
        let d2 = orient(p1, q1, q2);
        let d3 = orient(p2, q2, p1);
        let d4 = orient(p2, q2, q1);

        if ((d1 > 0.0 && d2 < 0.0) || (d1 < 0.0 && d2 > 0.0))
            && ((d3 > 0.0 && d4 < 0.0) || (d3 < 0.0 && d4 > 0.0))
        {
            return true;
        }
        (d1 == 0.0 && on_segment(p1, p2, q1))
            || (d2 == 0.0 && on_segment(p1, q2, q1))
            || (d3 == 0.0 && on_segment(p2, p1, q2))
            || (d4 == 0.0 && on_segment(p2, q1, q2))
    }

    /// `true` if `p` lies exactly on the segment (endpoints included).
    ///
    /// Uses the orientation test (`cross == 0` plus a bounding-box span
    /// check), not a point-to-segment distance: that goes through a
    /// division and a projection whose rounding can turn an exact hit
    /// into a tiny positive distance, and boundary predicates must not
    /// miss exact hits.
    pub fn contains_point(&self, p: Point) -> bool {
        (self.b - self.a).cross(p - self.a) == 0.0
            && p.x >= self.a.x.min(self.b.x)
            && p.x <= self.a.x.max(self.b.x)
            && p.y >= self.a.y.min(self.b.y)
            && p.y <= self.a.y.max(self.b.y)
    }
}

impl fmt::Display for Segment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} -- {}", self.a, self.b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(ax: f64, ay: f64, bx: f64, by: f64) -> Segment {
        Segment::new(Point::new(ax, ay), Point::new(bx, by))
    }

    #[test]
    fn mbr_and_length() {
        let seg = s(0.0, 3.0, 4.0, 0.0);
        assert_eq!(seg.length(), 5.0);
        assert_eq!(seg.mbr(), Rect::new(0.0, 0.0, 4.0, 3.0));
        assert_eq!(seg.midpoint(), Point::new(2.0, 1.5));
    }

    #[test]
    fn crossing_segments_intersect() {
        assert!(s(0.0, 0.0, 2.0, 2.0).intersects_segment(&s(0.0, 2.0, 2.0, 0.0)));
    }

    #[test]
    fn parallel_segments_do_not_intersect() {
        assert!(!s(0.0, 0.0, 2.0, 0.0).intersects_segment(&s(0.0, 1.0, 2.0, 1.0)));
    }

    #[test]
    fn collinear_overlapping_segments_intersect() {
        assert!(s(0.0, 0.0, 2.0, 0.0).intersects_segment(&s(1.0, 0.0, 3.0, 0.0)));
        assert!(!s(0.0, 0.0, 1.0, 0.0).intersects_segment(&s(2.0, 0.0, 3.0, 0.0)));
    }

    #[test]
    fn touching_at_endpoint_intersects() {
        assert!(s(0.0, 0.0, 1.0, 1.0).intersects_segment(&s(1.0, 1.0, 2.0, 0.0)));
    }

    #[test]
    fn segment_through_rect_interior() {
        // Neither endpoint inside, but the segment slices through.
        let seg = s(-1.0, 1.0, 3.0, 1.0);
        assert!(seg.intersects_rect(&Rect::new(0.0, 0.0, 2.0, 2.0)));
    }

    #[test]
    fn segment_endpoint_inside_rect() {
        let seg = s(1.0, 1.0, 9.0, 9.0);
        assert!(seg.intersects_rect(&Rect::new(0.0, 0.0, 2.0, 2.0)));
    }

    #[test]
    fn segment_missing_rect() {
        let seg = s(-1.0, -1.0, -1.0, 5.0);
        assert!(!seg.intersects_rect(&Rect::new(0.0, 0.0, 2.0, 2.0)));
        // MBRs overlap but the segment passes by the corner.
        let diag = s(3.0, 0.0, 0.0, 3.0);
        assert!(!diag.intersects_rect(&Rect::new(0.0, 0.0, 1.0, 1.0)));
    }
}
