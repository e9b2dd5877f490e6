//! Polygonal regions — states, lakes and time zones (§2.1, Figure 3.2).

use crate::point::Point;
use crate::rect::Rect;
use crate::segment::Segment;
use std::fmt;

/// A simple polygon given by its vertices in order (either winding).
///
/// Regions are the third spatial class of §3. The R-tree stores only their
/// MBRs; the full boundary is kept with the object so that exact predicates
/// (`contains_point`, area) can refine the index's candidate set, exactly as
/// the paper prescribes: "the possibly non-atomic spatial objects stored at
/// the leaf level are considered atomic, as far as the search is concerned".
#[derive(Debug, Clone, PartialEq)]
pub struct Region {
    vertices: Vec<Point>,
    mbr: Rect,
    rectangle: bool,
}

/// Error returned when constructing a [`Region`] from fewer than 3 vertices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DegenerateRegion;

impl fmt::Display for DegenerateRegion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("a region needs at least three vertices")
    }
}

impl std::error::Error for DegenerateRegion {}

impl Region {
    /// Creates a region from its boundary vertices.
    ///
    /// # Errors
    ///
    /// Returns [`DegenerateRegion`] if fewer than three vertices are given.
    pub fn new(vertices: Vec<Point>) -> Result<Self, DegenerateRegion> {
        if vertices.len() < 3 {
            return Err(DegenerateRegion);
        }
        Ok(Region::bounding(vertices))
    }

    /// A region over at least one vertex, with its MBR, and whether the
    /// vertices are that MBR's corners in order, either winding from
    /// any corner: then the region is its MBR.
    fn bounding(vertices: Vec<Point>) -> Self {
        let mbr = Rect::mbr_of_points(vertices.iter().copied()).expect("non-empty");
        let corners = mbr.corners();
        let rectangle = vertices.len() == 4
            && (0..4).any(|from| {
                let walks =
                    |step: usize| (0..4).all(|i| vertices[i] == corners[(from + step * i) % 4]);
                walks(1) || walks(3)
            });
        Region {
            vertices,
            mbr,
            rectangle,
        }
    }

    /// Axis-aligned rectangular region.
    pub fn rectangle(r: Rect) -> Self {
        Region {
            vertices: r.corners().to_vec(),
            mbr: r,
            rectangle: true,
        }
    }

    /// The boundary vertices.
    #[inline]
    pub fn vertices(&self) -> &[Point] {
        &self.vertices
    }

    /// Minimal bounding rectangle (cached at construction).
    #[inline]
    pub fn mbr(&self) -> Rect {
        self.mbr
    }

    /// Whether the region is its own MBR, settled at construction: it
    /// was built by [`Region::rectangle`], or its four vertices are its
    /// MBR's corners in order.
    #[inline]
    pub(crate) fn is_rectangle(&self) -> bool {
        self.rectangle
    }

    /// The boundary edges, the closing one last.
    pub(crate) fn edges(&self) -> impl Iterator<Item = Segment> + '_ {
        let n = self.vertices.len();
        (0..n).map(move |i| Segment::new(self.vertices[i], self.vertices[(i + 1) % n]))
    }

    /// Signed area by the shoelace formula: positive for counter-clockwise
    /// winding, negative for clockwise.
    pub fn signed_area(&self) -> f64 {
        self.edges().fold(0.0, |acc, e| acc + e.a.cross(e.b)) / 2.0
    }

    /// Absolute area — PSQL's `area` pictorial function (§2.1).
    #[inline]
    pub fn area(&self) -> f64 {
        self.signed_area().abs()
    }

    /// Perimeter length of the boundary.
    pub fn perimeter(&self) -> f64 {
        self.edges().map(|e| e.length()).sum()
    }

    /// Centroid of the polygon (area-weighted).
    ///
    /// Falls back to the vertex average for (near-)zero-area polygons and
    /// for self-intersecting boundaries whose positive and negative loop
    /// areas nearly cancel (the weighted formula can then land outside
    /// the polygon's own bounding box).
    pub fn centroid(&self) -> Point {
        let vertex_average = {
            let n = self.vertices.len() as f64;
            let sum = self.vertices.iter().fold(Point::ORIGIN, |acc, &p| acc + p);
            Point::new(sum.x / n, sum.y / n)
        };
        let a = self.signed_area();
        if a.abs() < 1e-12 {
            return vertex_average;
        }
        let (mut cx, mut cy) = (0.0, 0.0);
        for Segment { a: p, b: q } in self.edges() {
            let w = p.cross(q);
            cx += (p.x + q.x) * w;
            cy += (p.y + q.y) * w;
        }
        let c = Point::new(cx / (6.0 * a), cy / (6.0 * a));
        if self.mbr.contains_point(c) {
            c
        } else {
            vertex_average
        }
    }

    /// Point-in-polygon by ray casting; boundary points count as inside.
    /// A rectangle answers by its MBR alone.
    pub fn contains_point(&self, p: Point) -> bool {
        if !self.mbr.contains_point(p) {
            return false;
        }
        // Boundary check first so that edge/vertex hits are deterministic.
        // `Segment::contains_point` is the exact orientation test — the
        // distance-based check loses exact edge hits to projection
        // rounding (e.g. a point on a vertical edge at a non-dyadic
        // fraction of its length).
        if self.rectangle || self.edges().any(|e| e.contains_point(p)) {
            return true;
        }
        let mut inside = false;
        for Segment { a, b } in self.edges() {
            if (a.y > p.y) != (b.y > p.y) {
                let x_cross = a.x + (p.y - a.y) / (b.y - a.y) * (b.x - a.x);
                if p.x < x_cross {
                    inside = !inside;
                }
            }
        }
        inside
    }

    /// Rotates every vertex counter-clockwise about the origin.
    pub fn rotated(&self, angle: f64) -> Region {
        Region::bounding(self.vertices.iter().map(|p| p.rotated(angle)).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit_square() -> Region {
        Region::rectangle(Rect::new(0.0, 0.0, 1.0, 1.0))
    }

    fn triangle() -> Region {
        Region::new(vec![
            Point::new(0.0, 0.0),
            Point::new(4.0, 0.0),
            Point::new(0.0, 3.0),
        ])
        .unwrap()
    }

    #[test]
    fn too_few_vertices_rejected() {
        assert_eq!(
            Region::new(vec![Point::new(0.0, 0.0), Point::new(1.0, 0.0)]),
            Err(DegenerateRegion)
        );
    }

    #[test]
    fn square_area_and_perimeter() {
        let sq = unit_square();
        assert_eq!(sq.area(), 1.0);
        assert_eq!(sq.perimeter(), 4.0);
        assert_eq!(sq.mbr(), Rect::new(0.0, 0.0, 1.0, 1.0));
    }

    #[test]
    fn triangle_area() {
        assert_eq!(triangle().area(), 6.0);
    }

    #[test]
    fn winding_flips_sign_not_area() {
        let ccw = triangle();
        let cw = Region::new(ccw.vertices().iter().rev().copied().collect()).unwrap();
        assert_eq!(ccw.signed_area(), -cw.signed_area());
        assert_eq!(ccw.area(), cw.area());
    }

    #[test]
    fn centroid_of_square() {
        let sq = unit_square();
        let c = sq.centroid();
        assert!((c.x - 0.5).abs() < 1e-12 && (c.y - 0.5).abs() < 1e-12);
    }

    #[test]
    fn point_in_polygon() {
        let t = triangle();
        assert!(t.contains_point(Point::new(1.0, 1.0)));
        assert!(!t.contains_point(Point::new(3.0, 3.0)));
        // Boundary points count as inside.
        assert!(t.contains_point(Point::new(2.0, 0.0)));
        assert!(t.contains_point(Point::new(0.0, 0.0)));
        // Outside the MBR entirely.
        assert!(!t.contains_point(Point::new(-1.0, -1.0)));
    }

    #[test]
    fn concave_polygon_containment() {
        // A "U" shape: points in the notch are outside.
        let u = Region::new(vec![
            Point::new(0.0, 0.0),
            Point::new(6.0, 0.0),
            Point::new(6.0, 4.0),
            Point::new(4.0, 4.0),
            Point::new(4.0, 2.0),
            Point::new(2.0, 2.0),
            Point::new(2.0, 4.0),
            Point::new(0.0, 4.0),
        ])
        .unwrap();
        assert!(u.contains_point(Point::new(1.0, 3.0)));
        assert!(u.contains_point(Point::new(5.0, 3.0)));
        assert!(!u.contains_point(Point::new(3.0, 3.5)));
        assert!(u.contains_point(Point::new(3.0, 1.0)));
    }

    #[test]
    fn rotation_preserves_area() {
        let t = triangle();
        let r = t.rotated(1.1);
        assert!((r.area() - 6.0).abs() < 1e-9);
    }
}
