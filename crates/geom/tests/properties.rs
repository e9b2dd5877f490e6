//! Property-based tests for the geometry substrate.

use rand::{rngs::StdRng, Rng, SeedableRng};
use rtree_geom::rectset;
use rtree_geom::transform;
use rtree_geom::{Point, Rect};
use std::{panic, thread};

/// Runs `body` on `cases` generators seeded `1985 + k`; a failing case names its test and `k`.
fn for_cases(cases: u64, mut body: impl FnMut(&mut StdRng)) {
    for k in 0..cases {
        let mut rng = StdRng::seed_from_u64(1985 + k);
        if let Err(cause) = panic::catch_unwind(panic::AssertUnwindSafe(|| body(&mut rng))) {
            let test = thread::current();
            eprintln!("{}: case {k} failed", test.name().unwrap_or("?"));
            panic::resume_unwind(cause);
        }
    }
}

fn arb_point(rng: &mut StdRng) -> Point {
    Point::new(rng.gen_range(-1e3..1e3), rng.gen_range(-1e3..1e3))
}

fn arb_rect(rng: &mut StdRng) -> Rect {
    Rect::from_corners(arb_point(rng), arb_point(rng))
}

#[test]
fn union_is_commutative_and_covering() {
    for_cases(256, |rng| {
        let (a, b) = (arb_rect(rng), arb_rect(rng));
        let u = a.union(&b);
        assert_eq!(u, b.union(&a));
        assert!(u.covers(&a));
        assert!(u.covers(&b));
    });
}

#[test]
fn union_is_associative() {
    for_cases(256, |rng| {
        let (a, b, c) = (arb_rect(rng), arb_rect(rng), arb_rect(rng));
        let left = a.union(&b).union(&c);
        let right = a.union(&b.union(&c));
        assert!((left.min_x - right.min_x).abs() < 1e-12);
        assert!((left.max_x - right.max_x).abs() < 1e-12);
        assert!((left.min_y - right.min_y).abs() < 1e-12);
        assert!((left.max_y - right.max_y).abs() < 1e-12);
    });
}

#[test]
fn intersection_symmetric_and_within_both() {
    for_cases(256, |rng| {
        let (a, b) = (arb_rect(rng), arb_rect(rng));
        assert_eq!(a.intersection(&b), b.intersection(&a));
        if let Some(i) = a.intersection(&b) {
            assert!(a.covers(&i));
            assert!(b.covers(&i));
            assert!(a.intersects(&b));
        } else {
            assert!(a.disjoint(&b));
        }
    });
}

#[test]
fn intersects_iff_positive_or_touching_intersection() {
    for_cases(256, |rng| {
        let (a, b) = (arb_rect(rng), arb_rect(rng));
        assert_eq!(a.intersects(&b), a.intersection(&b).is_some());
    });
}

#[test]
fn enlargement_nonnegative() {
    for_cases(256, |rng| {
        let (a, b) = (arb_rect(rng), arb_rect(rng));
        assert!(a.enlargement(&b) >= 0.0);
        assert!(a.enlargement(&a) == 0.0);
    });
}

#[test]
fn covers_implies_intersects_and_area_order() {
    for_cases(256, |rng| {
        let (a, b) = (arb_rect(rng), arb_rect(rng));
        if a.covers(&b) {
            assert!(a.intersects(&b));
            assert!(a.area() >= b.area());
        }
    });
}

#[test]
fn mbr_of_points_contains_all() {
    for_cases(256, |rng| {
        let pts: Vec<Point> = (0..rng.gen_range(1..50)).map(|_| arb_point(rng)).collect();
        let m = Rect::mbr_of_points(pts.iter().copied()).unwrap();
        for p in &pts {
            assert!(m.contains_point(*p));
        }
    });
}

#[test]
fn rotation_preserves_pairwise_distances() {
    for_cases(256, |rng| {
        let pts: Vec<Point> = (0..rng.gen_range(2..20)).map(|_| arb_point(rng)).collect();
        let angle = rng.gen_range(0.0..std::f64::consts::TAU);
        let rotated = transform::rotate_all(&pts, angle);
        for i in 0..pts.len() {
            for j in (i + 1)..pts.len() {
                let before = pts[i].distance(pts[j]);
                let after = rotated[i].distance(rotated[j]);
                assert!((before - after).abs() < 1e-6);
            }
        }
    });
}

/// Lemma 3.1: a rotation giving all-distinct x-coordinates exists for
/// any set of distinct points.
#[test]
fn lemma_3_1_rotation_exists() {
    for_cases(256, |rng| {
        let mut dedup: Vec<Point> = (0..rng.gen_range(1..40)).map(|_| arb_point(rng)).collect();
        dedup.sort_by(|a, b| a.x.total_cmp(&b.x).then(a.y.total_cmp(&b.y)));
        dedup.dedup();
        let angle =
            transform::rotation_with_distinct_x(&dedup).expect("lemma 3.1 guarantees an angle");
        let rotated = transform::rotate_all(&dedup, angle);
        assert!(transform::all_x_distinct(&rotated));
    });
}

#[test]
fn union_area_bounds() {
    for_cases(256, |rng| {
        let rects: Vec<Rect> = (0..rng.gen_range(0..25)).map(|_| arb_rect(rng)).collect();
        let union = rectset::union_area(&rects);
        let total = rectset::total_area(&rects);
        let overlap = rectset::overlap_area(&rects);
        // 0 <= overlap <= union <= total (sum counts overlap multiply)
        assert!(overlap >= -1e-9);
        assert!(union <= total + 1e-6 * total.max(1.0));
        assert!(overlap <= union + 1e-6 * union.max(1.0));
        if let Some(max_a) = rects.iter().map(|r| r.area()).max_by(f64::total_cmp) {
            assert!(union >= max_a - 1e-6 * max_a.max(1.0));
        }
    });
}

#[test]
fn lattice_areas_equal_unit_cell_counts() {
    for_cases(256, |rng| {
        // Integer corners: every unit cell of the 12 × 12 lattice is
        // covered wholly or not at all, so counting cells by their centres
        // gives each area exactly, with no routine under test involved.
        let n = rng.gen_range(0..20);
        let mut c = || f64::from(rng.gen_range(0..=12u8));
        let rects: Vec<Rect> = (0..n)
            .map(|_| Rect::from_corners(Point::new(c(), c()), Point::new(c(), c())))
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
        assert_eq!(rectset::union_area(&rects), once);
        assert_eq!(rectset::overlap_area(&rects), twice);
    });
}

#[test]
fn union_plus_disjointness() {
    for_cases(256, |rng| {
        // union == total iff overlap area is ~0 for non-degenerate sets.
        let rects: Vec<Rect> = (0..rng.gen_range(0..15)).map(|_| arb_rect(rng)).collect();
        let union = rectset::union_area(&rects);
        let total = rectset::total_area(&rects);
        let overlap = rectset::overlap_area(&rects);
        if overlap < 1e-9 {
            assert!((union - total).abs() < 1e-6 * total.max(1.0));
        } else {
            assert!(total > union - 1e-9);
        }
    });
}
