//! Property tests on spatial objects: consistency of the exact predicates
//! that refine R-tree candidates.

use rand::{rngs::StdRng, Rng, SeedableRng};
use rtree_geom::{Point, Rect, Region, Segment, SpatialObject};
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
    Point::new(rng.gen_range(-100.0..100.0), rng.gen_range(-100.0..100.0))
}

fn arb_window(rng: &mut StdRng) -> Rect {
    Rect::from_corners(arb_point(rng), arb_point(rng))
}

/// A window as the object a query refines against.
fn rect_region(w: Rect) -> SpatialObject {
    SpatialObject::Region(Region::rectangle(w))
}

fn arb_vertices(rng: &mut StdRng) -> Vec<Point> {
    (0..rng.gen_range(3..8)).map(|_| arb_point(rng)).collect()
}

fn arb_object(rng: &mut StdRng) -> SpatialObject {
    match rng.gen_range(0..4) {
        0 => SpatialObject::Point(arb_point(rng)),
        1 => SpatialObject::Segment(Segment::new(arb_point(rng), arb_point(rng))),
        2 => SpatialObject::Region(Region::rectangle(arb_window(rng))),
        _ => (0..1000)
            .find_map(|_| Region::new(arb_vertices(rng)).ok())
            .map(SpatialObject::Region)
            .expect("1000 degenerate polygons in a row"),
    }
}

/// Containment is stronger than contact: `covers ⇒ intersects`, both
/// ways round, against a window and against another object.
#[test]
fn covers_implies_intersects() {
    for_cases(256, |rng| {
        let (obj, w) = (arb_object(rng), rect_region(arb_window(rng)));
        let other = arb_object(rng);
        for (a, b) in [(&w, &obj), (&obj, &w), (&obj, &other), (&other, &obj)] {
            if a.covers(b) {
                assert!(a.intersects(b), "{a} covers {b}");
            }
        }
    });
}

/// `intersects` is symmetric for every pair of classes.
#[test]
fn intersects_is_symmetric() {
    for_cases(256, |rng| {
        let (a, b) = (arb_object(rng), arb_object(rng));
        assert_eq!(a.intersects(&b), b.intersects(&a), "{a:?} vs {b:?}");
    });
}

/// The MBR is a sound filter: if the exact test says the object
/// touches the window, the MBR must intersect it too.
#[test]
fn mbr_filter_is_sound() {
    for_cases(256, |rng| {
        let (obj, w) = (arb_object(rng), arb_window(rng));
        if obj.intersects(&rect_region(w)) {
            assert!(obj.mbr().intersects(&w));
        }
    });
}

/// The MBR contains the representative point and every polygon vertex.
#[test]
fn mbr_contains_representative() {
    for_cases(256, |rng| {
        let obj = arb_object(rng);
        assert!(obj.mbr().contains_point(obj.representative()));
        if let SpatialObject::Region(r) = &obj {
            for &v in r.vertices() {
                assert!(obj.mbr().contains_point(v));
            }
        }
    });
}

/// Object covered by its own MBR.
#[test]
fn object_within_own_mbr() {
    for_cases(256, |rng| {
        let obj = arb_object(rng);
        assert!(rect_region(obj.mbr()).covers(&obj));
        assert!(obj.intersects(&rect_region(obj.mbr())));
    });
}

/// Window fully containing the MBR ⇒ within; disjoint MBR ⇒ not
/// intersecting (the two pruning directions R-tree search relies on).
#[test]
fn pruning_directions() {
    for_cases(256, |rng| {
        let (obj, w) = (arb_object(rng), arb_window(rng));
        if w.covers(&obj.mbr()) {
            assert!(rect_region(w).covers(&obj));
        }
        if !w.intersects(&obj.mbr()) {
            assert!(!obj.intersects(&rect_region(w)));
        }
    });
}

/// Segment/rect intersection is symmetric in the segment's endpoint
/// order.
#[test]
fn segment_direction_irrelevant() {
    for_cases(256, |rng| {
        let (a, b, w) = (arb_point(rng), arb_point(rng), rect_region(arb_window(rng)));
        let fwd = SpatialObject::Segment(Segment::new(a, b)).intersects(&w);
        let rev = SpatialObject::Segment(Segment::new(b, a)).intersects(&w);
        assert_eq!(fwd, rev);
    });
}

/// Region area is invariant under vertex rotation of the boundary
/// list, and contains_point is stable across it.
#[test]
fn region_vertex_rotation_invariance() {
    for_cases(256, |rng| {
        let (pts, probe, shift) = (arb_vertices(rng), arb_point(rng), rng.gen_range(0..8usize));
        if let Ok(region) = Region::new(pts.clone()) {
            let n = pts.len();
            let mut rotated = pts.clone();
            rotated.rotate_left(shift % n);
            let region2 = Region::new(rotated).expect("same vertex count");
            assert!((region.area() - region2.area()).abs() < 1e-9);
            assert_eq!(region.contains_point(probe), region2.contains_point(probe));
        }
    });
}
