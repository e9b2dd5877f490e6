//! The unified spatial-object type stored in pictorial relations.

use crate::point::Point;
use crate::rect::Rect;
use crate::region::Region;
use crate::segment::Segment;
use std::fmt;

/// Any of the paper's three spatial object classes (§3): a point, a line
/// segment, or a polygonal region.
///
/// "Since the leaf nodes of an R-tree contain pointers to tuples and not the
/// actual tuples themselves, points and regions may be freely intermixed
/// within any R-tree" — this enum is what those tuple-side `loc` values hold.
#[derive(Debug, Clone, PartialEq)]
pub enum SpatialObject {
    /// A point object, e.g. a city on the US map (Figure 3.1).
    Point(Point),
    /// A segment object, e.g. a highway section.
    Segment(Segment),
    /// A region object, e.g. a state (Figure 3.2), lake or time zone.
    Region(Region),
}

impl SpatialObject {
    /// Minimal bounding rectangle — the `I` of the R-tree leaf entry.
    pub fn mbr(&self) -> Rect {
        match self {
            SpatialObject::Point(p) => Rect::from_point(*p),
            SpatialObject::Segment(s) => s.mbr(),
            SpatialObject::Region(r) => r.mbr(),
        }
    }

    /// A representative point (the object itself, midpoint, or centroid),
    /// used for labeling in pictorial output and as the nearest-neighbour
    /// anchor when packing heterogeneous objects.
    pub fn representative(&self) -> Point {
        match self {
            SpatialObject::Point(p) => *p,
            SpatialObject::Segment(s) => s.midpoint(),
            SpatialObject::Region(r) => r.centroid(),
        }
    }

    /// Whether the object is its own MBR: a point, or a region that is
    /// a rectangle ([`Region::is_rectangle`]).
    fn is_rect(&self) -> bool {
        match self {
            SpatialObject::Point(_) => true,
            SpatialObject::Segment(_) => false,
            SpatialObject::Region(r) => r.is_rectangle(),
        }
    }

    /// The point itself, a segment's two ends, or a region's boundary
    /// vertices.
    fn vertices(&self) -> impl Iterator<Item = Point> + '_ {
        let (ends, boundary): ([Option<Point>; 2], &[Point]) = match self {
            SpatialObject::Point(p) => ([Some(*p), None], &[]),
            SpatialObject::Segment(s) => ([Some(s.a), Some(s.b)], &[]),
            SpatialObject::Region(r) => ([None, None], r.vertices()),
        };
        ends.into_iter().flatten().chain(boundary.iter().copied())
    }

    /// No edge for a point, the segment itself, or a region's boundary
    /// edges.
    fn edges(&self) -> impl Iterator<Item = Segment> + '_ {
        let (own, boundary) = match self {
            SpatialObject::Point(_) => (None, None),
            SpatialObject::Segment(s) => (Some(*s), None),
            SpatialObject::Region(r) => (None, Some(r.edges())),
        };
        own.into_iter().chain(boundary.into_iter().flatten())
    }

    /// Closed-set containment of one point: equality, on the segment,
    /// or in the region (its boundary included).
    fn contains_point(&self, p: Point) -> bool {
        match self {
            SpatialObject::Point(q) => *q == p,
            SpatialObject::Segment(s) => s.contains_point(p),
            SpatialObject::Region(r) => r.contains_point(p),
        }
    }

    /// Exact closed-set test: do the two objects share a point? PSQL's
    /// `overlapping`; a window is a [`Region::rectangle`].
    ///
    /// The MBRs must meet. When both operands are their own MBR (a
    /// point or a rectangle) that decides it, and no vertex is read.
    /// Otherwise a vertex of one lies in the other, or an edge of one
    /// crosses an edge of the other. The test is symmetric.
    pub fn intersects(&self, other: &SpatialObject) -> bool {
        if !self.mbr().intersects(&other.mbr()) {
            return false;
        }
        (self.is_rect() && other.is_rect())
            || self.vertices().any(|v| other.contains_point(v))
            || other.vertices().any(|v| self.contains_point(v))
            || self
                .edges()
                .any(|e| other.edges().any(|f| e.intersects_segment(&f)))
    }

    /// Does `self` contain every point of `other`? PSQL's `covering`;
    /// `covered-by` is this with the operands swapped, and the paper's
    /// `WITHIN` (§3.1) is this with a window on the left.
    ///
    /// `self`'s MBR must cover `other`'s. When `self` is its own MBR (a
    /// point or a rectangle) that decides it, and no vertex is read.
    /// Otherwise every vertex of `other` lies in `self`, which is exact
    /// for a convex `self` (every point, segment, rectangle and
    /// triangle): a convex set holding an object's vertices holds their
    /// hull.
    pub fn covers(&self, other: &SpatialObject) -> bool {
        self.mbr().covers(&other.mbr())
            && (self.is_rect() || other.vertices().all(|v| self.contains_point(v)))
    }

    /// Area of the object: 0 for points and segments, polygon area for
    /// regions — PSQL's `area` function (§2.1).
    pub fn area(&self) -> f64 {
        match self {
            SpatialObject::Point(_) | SpatialObject::Segment(_) => 0.0,
            SpatialObject::Region(r) => r.area(),
        }
    }

    /// Short class name for display: `point`, `segment` or `region`.
    pub fn class(&self) -> &'static str {
        match self {
            SpatialObject::Point(_) => "point",
            SpatialObject::Segment(_) => "segment",
            SpatialObject::Region(_) => "region",
        }
    }
}

impl fmt::Display for SpatialObject {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpatialObject::Point(p) => write!(f, "point {p}"),
            SpatialObject::Segment(s) => write!(f, "segment {s}"),
            SpatialObject::Region(r) => write!(f, "region({} vertices)", r.vertices().len()),
        }
    }
}

impl From<Point> for SpatialObject {
    fn from(p: Point) -> Self {
        SpatialObject::Point(p)
    }
}

impl From<Segment> for SpatialObject {
    fn from(s: Segment) -> Self {
        SpatialObject::Segment(s)
    }
}

impl From<Region> for SpatialObject {
    fn from(r: Region) -> Self {
        SpatialObject::Region(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mbr_per_class() {
        let p = SpatialObject::from(Point::new(1.0, 2.0));
        assert_eq!(p.mbr(), Rect::new(1.0, 2.0, 1.0, 2.0));
        let s = SpatialObject::from(Segment::new(Point::new(0.0, 0.0), Point::new(2.0, 3.0)));
        assert_eq!(s.mbr(), Rect::new(0.0, 0.0, 2.0, 3.0));
        let r = SpatialObject::from(Region::rectangle(Rect::new(0.0, 0.0, 5.0, 5.0)));
        assert_eq!(r.mbr(), Rect::new(0.0, 0.0, 5.0, 5.0));
    }

    fn window(x0: f64, y0: f64, x1: f64, y1: f64) -> SpatialObject {
        SpatialObject::from(Region::rectangle(Rect::new(x0, y0, x1, y1)))
    }

    #[test]
    fn point_window_tests() {
        let p = SpatialObject::from(Point::new(1.0, 1.0));
        let w = window(0.0, 0.0, 2.0, 2.0);
        assert!(p.intersects(&w));
        assert!(w.covers(&p));
        assert!(!p.intersects(&window(3.0, 3.0, 4.0, 4.0)));
    }

    #[test]
    fn region_window_containment_cases() {
        let region = window(2.0, 2.0, 6.0, 6.0);
        // Window inside the region: intersects but not within.
        let inner = window(3.0, 3.0, 4.0, 4.0);
        assert!(region.intersects(&inner));
        assert!(!inner.covers(&region));
        assert!(region.covers(&inner));
        // Window containing the region.
        assert!(window(0.0, 0.0, 10.0, 10.0).covers(&region));
        // Window crossing the boundary.
        assert!(region.intersects(&window(0.0, 3.0, 3.0, 4.0)));
        // Disjoint window.
        assert!(!region.intersects(&window(7.0, 7.0, 8.0, 8.0)));
    }

    #[test]
    fn segment_window_tests() {
        let s = SpatialObject::from(Segment::new(Point::new(0.0, 1.0), Point::new(4.0, 1.0)));
        assert!(s.intersects(&window(1.0, 0.0, 2.0, 2.0)));
        assert!(!s.intersects(&window(1.0, 2.0, 2.0, 3.0)));
        assert!(window(-1.0, 0.0, 5.0, 2.0).covers(&s));
    }

    /// Two triangles whose MBRs overlap but which share no point, and a
    /// segment passing a point inside its MBR.
    #[test]
    fn shapes_inside_each_others_mbr_do_not_meet() {
        let triangle = |v: [(f64, f64); 3]| {
            SpatialObject::from(Region::new(v.map(|(x, y)| Point::new(x, y)).to_vec()).unwrap())
        };
        let t1 = triangle([(0.0, 0.0), (10.0, 0.0), (0.0, 10.0)]);
        let t2 = triangle([(10.0, 10.0), (10.0, 1.0), (1.0, 10.0)]);
        assert!(t1.mbr().intersects(&t2.mbr()));
        assert!(!t1.intersects(&t2) && !t2.intersects(&t1));
        let seg = SpatialObject::from(Segment::new(Point::new(0.0, 10.0), Point::new(10.0, 0.0)));
        let p = SpatialObject::from(Point::new(9.0, 9.0));
        assert!(!seg.intersects(&p) && !p.intersects(&seg));
        assert!(seg.intersects(&t1) && t1.covers(&seg) && !t2.intersects(&seg));
        // A triangle covers the corners of a rectangle inside it.
        assert!(t1.covers(&window(1.0, 1.0, 4.0, 4.0)));
        assert!(!t1.covers(&window(1.0, 1.0, 6.0, 6.0)));
    }

    #[test]
    fn four_corners_in_order_make_a_rectangle() {
        let r = Rect::new(0.0, 0.0, 3.0, 2.0);
        let c = r.corners();
        for vertices in [
            c.to_vec(),
            vec![c[2], c[3], c[0], c[1]],
            vec![c[0], c[3], c[2], c[1]],
        ] {
            assert!(Region::new(vertices).unwrap().is_rectangle());
        }
        assert!(!Region::new(vec![c[0], c[2], c[1], c[3]])
            .unwrap()
            .is_rectangle());
        assert!(!Region::new(vec![c[0], c[1], c[2]]).unwrap().is_rectangle());
        assert!(Region::rectangle(r).is_rectangle());
    }

    #[test]
    fn area_function() {
        assert_eq!(SpatialObject::from(Point::new(0.0, 0.0)).area(), 0.0);
        let r = SpatialObject::from(Region::rectangle(Rect::new(0.0, 0.0, 3.0, 2.0)));
        assert_eq!(r.area(), 6.0);
    }

    #[test]
    fn representatives() {
        let s = SpatialObject::from(Segment::new(Point::new(0.0, 0.0), Point::new(2.0, 2.0)));
        assert_eq!(s.representative(), Point::new(1.0, 1.0));
        let r = SpatialObject::from(Region::rectangle(Rect::new(0.0, 0.0, 2.0, 2.0)));
        assert_eq!(r.representative(), Point::new(1.0, 1.0));
    }
}
