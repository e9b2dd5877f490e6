//! Property-based tests for the geometry substrate.

use proptest::prelude::*;
use rtree_geom::rectset;
use rtree_geom::transform;
use rtree_geom::{Point, Rect};

fn arb_point() -> impl Strategy<Value = Point> {
    (-1000.0..1000.0f64, -1000.0..1000.0f64).prop_map(|(x, y)| Point::new(x, y))
}

fn arb_rect() -> impl Strategy<Value = Rect> {
    (arb_point(), arb_point()).prop_map(|(a, b)| Rect::from_corners(a, b))
}

proptest! {
    #[test]
    fn union_is_commutative_and_covering(a in arb_rect(), b in arb_rect()) {
        let u = a.union(&b);
        prop_assert_eq!(u, b.union(&a));
        prop_assert!(u.covers(&a));
        prop_assert!(u.covers(&b));
    }

    #[test]
    fn union_is_associative(a in arb_rect(), b in arb_rect(), c in arb_rect()) {
        let left = a.union(&b).union(&c);
        let right = a.union(&b.union(&c));
        prop_assert!((left.min_x - right.min_x).abs() < 1e-12);
        prop_assert!((left.max_x - right.max_x).abs() < 1e-12);
        prop_assert!((left.min_y - right.min_y).abs() < 1e-12);
        prop_assert!((left.max_y - right.max_y).abs() < 1e-12);
    }

    #[test]
    fn intersection_symmetric_and_within_both(a in arb_rect(), b in arb_rect()) {
        prop_assert_eq!(a.intersection(&b), b.intersection(&a));
        if let Some(i) = a.intersection(&b) {
            prop_assert!(a.covers(&i));
            prop_assert!(b.covers(&i));
            prop_assert!(a.intersects(&b));
        } else {
            prop_assert!(a.disjoint(&b));
        }
    }

    #[test]
    fn intersects_iff_positive_or_touching_intersection(a in arb_rect(), b in arb_rect()) {
        prop_assert_eq!(a.intersects(&b), a.intersection(&b).is_some());
    }

    #[test]
    fn enlargement_nonnegative(a in arb_rect(), b in arb_rect()) {
        prop_assert!(a.enlargement(&b) >= 0.0);
        prop_assert!(a.enlargement(&a) == 0.0);
    }

    #[test]
    fn covers_implies_intersects_and_area_order(a in arb_rect(), b in arb_rect()) {
        if a.covers(&b) {
            prop_assert!(a.intersects(&b));
            prop_assert!(a.area() >= b.area());
        }
    }

    #[test]
    fn mbr_of_points_contains_all(pts in prop::collection::vec(arb_point(), 1..50)) {
        let m = Rect::mbr_of_points(pts.iter().copied()).unwrap();
        for p in &pts {
            prop_assert!(m.contains_point(*p));
        }
    }

    #[test]
    fn rotation_preserves_pairwise_distances(
        pts in prop::collection::vec(arb_point(), 2..20),
        angle in 0.0..std::f64::consts::TAU,
    ) {
        let rotated = transform::rotate_all(&pts, angle);
        for i in 0..pts.len() {
            for j in (i + 1)..pts.len() {
                let before = pts[i].distance(pts[j]);
                let after = rotated[i].distance(rotated[j]);
                prop_assert!((before - after).abs() < 1e-6);
            }
        }
    }

    /// Lemma 3.1: a rotation giving all-distinct x-coordinates exists for
    /// any set of distinct points.
    #[test]
    fn lemma_3_1_rotation_exists(pts in prop::collection::vec(arb_point(), 1..40)) {
        let mut dedup = pts.clone();
        dedup.sort_by(|a, b| a.x.total_cmp(&b.x).then(a.y.total_cmp(&b.y)));
        dedup.dedup();
        let angle = transform::rotation_with_distinct_x(&dedup)
            .expect("lemma 3.1 guarantees an angle");
        prop_assert!(transform::all_x_distinct(&transform::rotate_all(&dedup, angle)));
    }

    #[test]
    fn union_area_bounds(rects in prop::collection::vec(arb_rect(), 0..25)) {
        let union = rectset::union_area(&rects);
        let total = rectset::total_area(&rects);
        let overlap = rectset::overlap_area(&rects);
        // 0 <= overlap <= union <= total (sum counts overlap multiply)
        prop_assert!(overlap >= -1e-9);
        prop_assert!(union <= total + 1e-6 * total.max(1.0));
        prop_assert!(overlap <= union + 1e-6 * union.max(1.0));
        if let Some(max_a) = rects.iter().map(|r| r.area()).max_by(f64::total_cmp) {
            prop_assert!(union >= max_a - 1e-6 * max_a.max(1.0));
        }
    }

    #[test]
    fn lattice_areas_equal_unit_cell_counts(
        corners in prop::collection::vec((0..=12u8, 0..=12u8, 0..=12u8, 0..=12u8), 0..20),
    ) {
        // Integer corners: every unit cell of the 12 × 12 lattice is
        // covered wholly or not at all, so counting cells by their centres
        // gives each area exactly, with no routine under test involved.
        let rects: Vec<Rect> = corners
            .iter()
            .map(|&(x0, y0, x1, y1)| {
                let p = |x: u8, y: u8| Point::new(f64::from(x), f64::from(y));
                Rect::from_corners(p(x0, y0), p(x1, y1))
            })
            .collect();
        let (mut once, mut twice) = (0.0, 0.0);
        for x in 0..12 {
            for y in 0..12 {
                let centre = Point::new(f64::from(x) + 0.5, f64::from(y) + 0.5);
                let covers = rects.iter().filter(|r| r.contains_point(centre)).count();
                once += f64::from(u8::from(covers >= 1));
                twice += f64::from(u8::from(covers >= 2));
            }
        }
        prop_assert_eq!(rectset::union_area(&rects), once);
        prop_assert_eq!(rectset::overlap_area(&rects), twice);
    }

    #[test]
    fn union_plus_disjointness(rects in prop::collection::vec(arb_rect(), 0..15)) {
        // union == total iff overlap area is ~0 for non-degenerate sets.
        let union = rectset::union_area(&rects);
        let total = rectset::total_area(&rects);
        let overlap = rectset::overlap_area(&rects);
        if overlap < 1e-9 {
            prop_assert!((union - total).abs() < 1e-6 * total.max(1.0));
        } else {
            prop_assert!(total > union - 1e-9);
        }
    }
}
