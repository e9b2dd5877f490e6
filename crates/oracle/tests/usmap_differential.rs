//! Oracle-vs-engine differential run over the US-map workload: every
//! picture of [`PictorialDatabase::with_us_map`], all four spatial
//! operators, a sweep of windows — engine answers (stats path and
//! allocation-free scratch path) against the brute-force oracle, plus
//! deep structural validation of every picture's served index in both
//! its dynamic (as-inserted Guttman tree) and packed (the arena PACK
//! writes) states.

use psql::{PictorialDatabase, SpatialOp};
use rtree_geom::Rect;
use rtree_index::{SearchScratch, SearchStats};
use rtree_oracle::{reference, validate_deep, DeepChecks, TreeImage};

const PICTURES: [&str; 5] = [
    "us-map",
    "state-map",
    "time-zone-map",
    "lake-map",
    "highway-map",
];

const OPS: [SpatialOp; 4] = [
    SpatialOp::Covering,
    SpatialOp::CoveredBy,
    SpatialOp::Overlapping,
    SpatialOp::Disjoined,
];

/// A sweep of windows over the 100×50 frame: quadrants, thin slices,
/// degenerate lines and points, and windows straddling the frame edge.
fn windows() -> Vec<Rect> {
    let mut out = Vec::new();
    for i in 0..4 {
        for j in 0..2 {
            let x0 = 25.0 * i as f64;
            let y0 = 25.0 * j as f64;
            out.push(Rect::new(x0, y0, x0 + 25.0, y0 + 25.0));
        }
    }
    out.push(Rect::new(0.0, 0.0, 100.0, 50.0)); // whole frame
    out.push(Rect::new(40.0, 0.0, 60.0, 50.0)); // vertical band
    out.push(Rect::new(0.0, 20.0, 100.0, 30.0)); // horizontal band
    out.push(Rect::new(50.0, 0.0, 50.0, 50.0)); // degenerate line
    out.push(Rect::new(30.0, 25.0, 30.0, 25.0)); // degenerate point
    out.push(Rect::new(90.0, 40.0, 120.0, 60.0)); // straddles the frame
    out.push(Rect::new(101.0, 51.0, 110.0, 60.0)); // fully outside
    out
}

fn check_database(db: &PictorialDatabase, checks: DeepChecks, label: &str) {
    let mut scratch = SearchScratch::new();
    for name in PICTURES {
        let pic = db.picture(name).expect("picture exists");
        let objects: Vec<_> = pic
            .object_ids()
            .map(|id| pic.object(id).expect("id enumerated").into_owned())
            .collect();
        // A packed picture serves queries from the arena PACK wrote; its
        // `tree()` would be a fresh re-pack that no query reads.
        let image = match pic.frozen() {
            Some(arena) => TreeImage::of_frozen(arena),
            None => TreeImage::of_rtree(pic.tree()),
        };
        validate_deep(&image, checks)
            .unwrap_or_else(|e| panic!("{label}: picture {name} fails validate_deep: {e}"));
        for w in windows() {
            for op in OPS {
                let mut expect = reference::window_objects(&objects, op, &w);
                expect.sort_unstable();
                let mut stats = SearchStats::default();
                let mut got = pic.search_window(op, &w, &mut stats);
                got.sort_unstable();
                assert_eq!(
                    got, expect,
                    "{label}: picture {name}, op {op}, window {w:?}: stats path diverges"
                );
                let mut fast = pic.search_window_fast(op, &w, &mut scratch);
                fast.sort_unstable();
                assert_eq!(
                    fast, expect,
                    "{label}: picture {name}, op {op}, window {w:?}: scratch path diverges"
                );
            }
        }
    }
}

#[test]
fn usmap_engine_matches_oracle_dynamic_and_packed() {
    // As built: every picture tree grew through Guttman inserts.
    let mut db = PictorialDatabase::with_us_map();
    check_database(&db, DeepChecks::dynamic(), "dynamic");

    // After PACK: same answers, and the packed fullness invariant holds.
    db.pack_all();
    check_database(&db, DeepChecks::packed(), "packed");
}
