//! The spatial comparison operators of §2.2.
//!
//! "The spatial operators are comparison predicates which receive two
//! area specifications … and return true or false depending on whether or
//! not the two argument locations satisfy the corresponding spatial
//! relation on the picture."
//!
//! # Edge-touching semantics
//!
//! Every PSQL operator is a *closed-set* predicate: locations include
//! their boundaries, so two locations that share only a boundary point
//! (a point on a region's edge, two rectangles sharing an edge or a
//! corner, a zero-area rect sitting on another's border) are
//! `overlapping` and therefore *not* `disjoined`.  `disjoined` is the
//! exact complement of `overlapping` for every operand class.  This
//! matches [`rtree_geom::Rect::intersects`]/[`rtree_geom::Rect::disjoint`]
//! and the closed predicates on [`SpatialObject`]; it is *not*
//! the positive-area notion measured by [`rtree_geom::Rect::overlaps`],
//! which exists only as a packing-quality metric (see the semantics
//! note in `rtree_geom::rect`).  The differential oracle
//! (`crates/oracle`) checks engine and reference against this single
//! definition.
//!
//! # Filter and refine
//!
//! Each operator's two steps are decided here only. The filter,
//! [`SpatialOp::traversal`] for a tree descent and
//! [`SpatialOp::mbr_filter`] for a join's pairs, is a necessary
//! condition of the exact test. `disjoined` has none: every source
//! lists every candidate for it and the exact test decides.
//!
//! The refine is [`SpatialOp::eval_objects`], one exact test per
//! operator for every pair of point, segment and region, whichever
//! source asks: a window query (the window is a rectangle region), a
//! nested mapping or a juxtaposition. `overlapping` and `disjoined` are
//! [`SpatialObject::intersects`] and its complement; `covering` and
//! `covered-by` are [`SpatialObject::covers`] from either side, which
//! is exact when the covering operand is convex (a point, a segment, a
//! rectangle, a triangle). Both methods let the MBR decide where it is
//! exact, so a point against a window costs one `Rect` comparison. So
//! `a op b ⇔ b op.flip() a`, and `disjoined` is the complement of
//! `overlapping`, for every pair of classes.

use rtree_geom::{Rect, SpatialObject};

/// PSQL's spatial comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpatialOp {
    /// `loc1 covering loc2`: loc1 contains loc2 entirely.
    Covering,
    /// `loc1 covered-by loc2`: loc1 lies entirely within loc2.
    CoveredBy,
    /// `loc1 overlapping loc2`: the locations share at least one point
    /// (closed sets — boundary contact counts, and one containing the
    /// other counts).
    Overlapping,
    /// `loc1 disjoined loc2`: the locations share no point; the exact
    /// complement of [`SpatialOp::Overlapping`].
    Disjoined,
}

impl SpatialOp {
    /// Operator with the argument roles swapped:
    /// `a op b ⇔ b op.flip() a`.
    pub fn flip(self) -> SpatialOp {
        match self {
            SpatialOp::Covering => SpatialOp::CoveredBy,
            SpatialOp::CoveredBy => SpatialOp::Covering,
            SpatialOp::Overlapping => SpatialOp::Overlapping,
            SpatialOp::Disjoined => SpatialOp::Disjoined,
        }
    }

    /// Evaluates the operator between two objects: the one refine step
    /// of every source. A window is a [`rtree_geom::Region::rectangle`].
    pub fn eval_objects(self, a: &SpatialObject, b: &SpatialObject) -> bool {
        match self {
            SpatialOp::Covering => a.covers(b),
            SpatialOp::CoveredBy => b.covers(a),
            SpatialOp::Overlapping => a.intersects(b),
            SpatialOp::Disjoined => !a.intersects(b),
        }
    }

    /// MBR-level filter: can `a op b` possibly hold given only bounding
    /// rectangles? A join keeps exactly the pairs that pass. Disjointness
    /// has no MBR rule, so every pair passes for `disjoined`.
    pub fn mbr_filter(self, a: &Rect, b: &Rect) -> bool {
        match self {
            SpatialOp::Covering => a.covers(b),
            SpatialOp::CoveredBy => b.covers(a),
            SpatialOp::Overlapping => a.intersects(b),
            SpatialOp::Disjoined => true,
        }
    }

    /// The tree traversal that produces `op`'s candidates: `Some(true)`
    /// for WITHIN at the leaves (the paper's SEARCH), `Some(false)` for
    /// INTERSECTS, `None` when no hierarchy of rectangles can prune and
    /// every object is a candidate.
    pub fn traversal(self) -> Option<bool> {
        match self {
            SpatialOp::CoveredBy => Some(true),
            SpatialOp::Overlapping | SpatialOp::Covering => Some(false),
            SpatialOp::Disjoined => None,
        }
    }

    /// The operator's name in PSQL syntax.
    pub fn name(self) -> &'static str {
        match self {
            SpatialOp::Covering => "covering",
            SpatialOp::CoveredBy => "covered-by",
            SpatialOp::Overlapping => "overlapping",
            SpatialOp::Disjoined => "disjoined",
        }
    }
}

impl std::fmt::Display for SpatialOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use rtree_geom::{Point, Region, Segment};

    fn point(x: f64, y: f64) -> SpatialObject {
        SpatialObject::Point(Point::new(x, y))
    }

    fn region(x0: f64, y0: f64, x1: f64, y1: f64) -> SpatialObject {
        SpatialObject::Region(Region::rectangle(Rect::new(x0, y0, x1, y1)))
    }

    /// A window, as every source refines against it.
    fn window(w: Rect) -> SpatialObject {
        SpatialObject::Region(Region::rectangle(w))
    }

    #[test]
    fn covered_by_window() {
        let w = window(Rect::new(0.0, 0.0, 10.0, 10.0));
        assert!(SpatialOp::CoveredBy.eval_objects(&point(5.0, 5.0), &w));
        assert!(!SpatialOp::CoveredBy.eval_objects(&point(15.0, 5.0), &w));
        assert!(SpatialOp::CoveredBy.eval_objects(&region(1.0, 1.0, 9.0, 9.0), &w));
        assert!(!SpatialOp::CoveredBy.eval_objects(&region(5.0, 5.0, 15.0, 9.0), &w));
    }

    #[test]
    fn covering_window() {
        let w = window(Rect::new(2.0, 2.0, 4.0, 4.0));
        assert!(SpatialOp::Covering.eval_objects(&region(0.0, 0.0, 10.0, 10.0), &w));
        assert!(!SpatialOp::Covering.eval_objects(&region(3.0, 3.0, 10.0, 10.0), &w));
        assert!(!SpatialOp::Covering.eval_objects(&point(3.0, 3.0), &w));
    }

    #[test]
    fn overlap_and_disjoint_window() {
        let w = window(Rect::new(0.0, 0.0, 10.0, 10.0));
        let crossing =
            SpatialObject::Segment(Segment::new(Point::new(-5.0, 5.0), Point::new(15.0, 5.0)));
        assert!(SpatialOp::Overlapping.eval_objects(&crossing, &w));
        assert!(!SpatialOp::Disjoined.eval_objects(&crossing, &w));
        let far = point(50.0, 50.0);
        assert!(SpatialOp::Disjoined.eval_objects(&far, &w));
    }

    #[test]
    fn point_covered_by_region_object() {
        let zone = region(0.0, 0.0, 20.0, 50.0);
        assert!(SpatialOp::CoveredBy.eval_objects(&point(10.0, 25.0), &zone));
        assert!(!SpatialOp::CoveredBy.eval_objects(&point(30.0, 25.0), &zone));
        // Flip: the zone covers the point.
        assert!(SpatialOp::Covering.eval_objects(&zone, &point(10.0, 25.0)));
    }

    #[test]
    fn region_region_relations() {
        let big = region(0.0, 0.0, 10.0, 10.0);
        let small = region(2.0, 2.0, 4.0, 4.0);
        let apart = region(20.0, 20.0, 30.0, 30.0);
        assert!(SpatialOp::CoveredBy.eval_objects(&small, &big));
        assert!(SpatialOp::Covering.eval_objects(&big, &small));
        assert!(SpatialOp::Overlapping.eval_objects(&small, &big));
        assert!(SpatialOp::Disjoined.eval_objects(&small, &apart));
        assert!(!SpatialOp::CoveredBy.eval_objects(&big, &small));
    }

    #[test]
    fn edge_touching_objects_overlap_and_are_not_disjoined() {
        // Rect regions sharing only an edge.
        let left = region(0.0, 0.0, 5.0, 5.0);
        let right = region(5.0, 0.0, 10.0, 5.0);
        assert!(SpatialOp::Overlapping.eval_objects(&left, &right));
        assert!(!SpatialOp::Disjoined.eval_objects(&left, &right));
        // Rect regions sharing only a corner.
        let corner = region(5.0, 5.0, 10.0, 10.0);
        assert!(SpatialOp::Overlapping.eval_objects(&left, &corner));
        assert!(!SpatialOp::Disjoined.eval_objects(&left, &corner));
        // A point on a region's boundary (zero-area MBR touching an edge).
        let on_edge = point(5.0, 2.5);
        assert!(SpatialOp::Overlapping.eval_objects(&on_edge, &left));
        assert!(SpatialOp::Overlapping.eval_objects(&left, &on_edge));
        assert!(!SpatialOp::Disjoined.eval_objects(&on_edge, &left));
        // Two coincident points: zero-area vs zero-area.
        assert!(SpatialOp::Overlapping.eval_objects(&point(1.0, 1.0), &point(1.0, 1.0)));
        assert!(SpatialOp::Disjoined.eval_objects(&point(1.0, 1.0), &point(1.0, 2.0)));
    }

    #[test]
    fn edge_touching_window_semantics_match_objects() {
        let w = window(Rect::new(0.0, 0.0, 5.0, 5.0));
        // Object touching the window's right edge only.
        let touching = region(5.0, 1.0, 8.0, 4.0);
        assert!(SpatialOp::Overlapping.eval_objects(&touching, &w));
        assert!(!SpatialOp::Disjoined.eval_objects(&touching, &w));
        // Point exactly on the window corner.
        assert!(SpatialOp::Overlapping.eval_objects(&point(5.0, 5.0), &w));
        assert!(!SpatialOp::Disjoined.eval_objects(&point(5.0, 5.0), &w));
    }

    #[test]
    fn disjoined_is_exact_complement_of_overlapping() {
        let objs = [
            point(0.0, 0.0),
            point(5.0, 5.0),
            region(0.0, 0.0, 5.0, 5.0),
            region(5.0, 5.0, 9.0, 9.0),
            region(2.0, 2.0, 3.0, 3.0),
            SpatialObject::Segment(Segment::new(Point::new(0.0, 5.0), Point::new(5.0, 0.0))),
        ];
        for a in &objs {
            for b in &objs {
                assert_ne!(
                    SpatialOp::Overlapping.eval_objects(a, b),
                    SpatialOp::Disjoined.eval_objects(a, b),
                    "{a:?} vs {b:?}"
                );
            }
        }
    }

    /// A point, segment, rectangle or triangle with corners on a 0..=8
    /// lattice, so that shapes often touch, nest and cross.
    fn lattice_object(rng: &mut StdRng) -> SpatialObject {
        let kind = rng.gen_range(0..4u32);
        let mut at = || {
            Point::new(
                rng.gen_range(0..=8u32) as f64,
                rng.gen_range(0..=8u32) as f64,
            )
        };
        match kind {
            0 => SpatialObject::Point(at()),
            1 => SpatialObject::Segment(Segment::new(at(), at())),
            2 => {
                let (a, b) = (at(), at());
                region(
                    a.x.min(b.x),
                    a.y.min(b.y),
                    a.x.max(b.x) + 1.0,
                    a.y.max(b.y) + 1.0,
                )
            }
            _ => {
                SpatialObject::Region(Region::new(vec![at(), at(), at()]).expect("three vertices"))
            }
        }
    }

    const OPS: [SpatialOp; 4] = [
        SpatialOp::Covering,
        SpatialOp::CoveredBy,
        SpatialOp::Overlapping,
        SpatialOp::Disjoined,
    ];

    /// The window rule every window query refined through before a
    /// window became a rectangle region for `eval_objects`: exact for
    /// every class, so window answers must not move from it.
    fn window_rule(op: SpatialOp, obj: &SpatialObject, w: &Rect) -> bool {
        let segment_meets = |s: &Segment| {
            let c = w.corners();
            w.contains_point(s.a)
                || w.contains_point(s.b)
                || (s.mbr().intersects(w)
                    && (0..4).any(|i| s.intersects_segment(&Segment::new(c[i], c[(i + 1) % 4]))))
        };
        let meets = match obj {
            SpatialObject::Point(p) => w.contains_point(*p),
            SpatialObject::Segment(s) => segment_meets(s),
            SpatialObject::Region(r) => {
                let v = r.vertices();
                r.mbr().intersects(w)
                    && (v.iter().any(|&p| w.contains_point(p))
                        || w.corners().iter().any(|&c| r.contains_point(c))
                        || (0..v.len())
                            .any(|i| segment_meets(&Segment::new(v[i], v[(i + 1) % v.len()]))))
            }
        };
        match op {
            SpatialOp::CoveredBy => w.covers(&obj.mbr()),
            SpatialOp::Covering => match obj {
                SpatialObject::Region(r) => {
                    r.mbr().covers(w) && w.corners().iter().all(|&c| r.contains_point(c))
                }
                SpatialObject::Point(p) => w.corners().iter().all(|&c| c == *p),
                SpatialObject::Segment(s) => w.corners().iter().all(|&c| s.contains_point(c)),
            },
            SpatialOp::Overlapping => meets,
            SpatialOp::Disjoined => !meets,
        }
    }

    #[test]
    fn operators_are_flip_symmetric_and_complementary_for_every_class() {
        let triangle = Region::new(vec![
            Point::new(0.0, 0.0),
            Point::new(10.0, 0.0),
            Point::new(0.0, 10.0),
        ])
        .expect("three vertices");
        // Outside the triangle, inside its MBR.
        let mut objects = vec![SpatialObject::Region(triangle), point(9.0, 9.0)];
        let mut rng = StdRng::seed_from_u64(1985);
        objects.extend((0..120).map(|_| lattice_object(&mut rng)));
        for a in &objects {
            for b in &objects {
                for op in OPS {
                    assert_eq!(
                        op.eval_objects(a, b),
                        op.flip().eval_objects(b, a),
                        "{a:?} {op} {b:?}"
                    );
                }
                assert_ne!(
                    SpatialOp::Overlapping.eval_objects(a, b),
                    SpatialOp::Disjoined.eval_objects(a, b),
                    "{a:?} vs {b:?}"
                );
            }
        }
        // Against every window on the lattice, degenerate ones included,
        // a window's rectangle region answers as the window rule did.
        let spans: Vec<(f64, f64)> = (0..=9u32)
            .flat_map(|lo| (lo..=9).map(move |hi| (lo as f64, hi as f64)))
            .collect();
        for &(x0, x1) in &spans {
            for &(y0, y1) in &spans {
                let w = Rect::new(x0, y0, x1, y1);
                for obj in &objects {
                    for op in OPS {
                        assert_eq!(
                            op.eval_objects(obj, &window(w)),
                            window_rule(op, obj, &w),
                            "{obj:?} {op} {w:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn flip_is_involutive() {
        for op in OPS {
            assert_eq!(op.flip().flip(), op);
        }
    }

    #[test]
    fn mbr_filter_is_necessary_condition() {
        let a = region(0.0, 0.0, 5.0, 5.0);
        let b = region(2.0, 2.0, 8.0, 8.0);
        for op in [
            SpatialOp::Covering,
            SpatialOp::CoveredBy,
            SpatialOp::Overlapping,
        ] {
            if op.eval_objects(&a, &b) {
                assert!(op.mbr_filter(&a.mbr(), &b.mbr()), "{op}");
            }
        }
    }
}
