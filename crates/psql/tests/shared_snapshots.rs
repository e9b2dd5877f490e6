//! Structural sharing of `PictorialDatabase` clones: a clone shares the
//! packed generation, relations and backlinks with its original, a write
//! through either side copies only what it touches and never shows
//! through the other, and queries compose main + delta exactly.

use pictorial_relational::Value;
use psql::database::PictorialDatabase;
use psql::join::{picture_join, JoinStats};
use psql::picture::Picture;
use psql::SpatialOp;
use rtree_geom::{Point, Rect, Region, SpatialObject};
use rtree_index::{SearchScratch, SearchStats};

const OPS: [SpatialOp; 4] = [
    SpatialOp::CoveredBy,
    SpatialOp::Overlapping,
    SpatialOp::Covering,
    SpatialOp::Disjoined,
];

fn point(x: f64, y: f64) -> SpatialObject {
    SpatialObject::Point(Point::new(x, y))
}

fn all_objects(pic: &Picture) -> Vec<SpatialObject> {
    pic.object_ids()
        .map(|id| pic.object(id).expect("enumerated id").into_owned())
        .collect()
}

fn window_ids(pic: &Picture, op: SpatialOp, window: &Rect) -> Vec<u64> {
    let mut ids = pic.search_window(op, window, &mut SearchStats::default());
    ids.sort_unstable();
    ids
}

#[test]
fn clone_shares_the_packed_generation_and_copies_only_the_delta() {
    let original = PictorialDatabase::with_us_map();
    let everything = Rect::new(-10.0, -10.0, 200.0, 200.0);
    let before = window_ids(
        original.picture("us-map").unwrap(),
        SpatialOp::CoveredBy,
        &everything,
    );

    let mut clone = original.clone();
    let id = clone
        .add_object("us-map", point(51.0, 26.0), "Added")
        .unwrap();

    let (old, new) = (
        original.picture("us-map").unwrap(),
        clone.picture("us-map").unwrap(),
    );
    assert!(new.shares_packed_with(old), "add must not copy the pack");
    assert_eq!(new.len(), old.len() + 1);
    assert_eq!(new.delta_len(), 1);
    assert_eq!(new.label(id), Some("Added"));
    assert!(window_ids(new, SpatialOp::CoveredBy, &everything).contains(&id));
    // The original is untouched: length, partition and answers.
    assert_eq!(old.len(), before.len());
    assert_eq!(old.delta_len(), 0);
    assert!(old.object(id).is_none());
    assert_eq!(window_ids(old, SpatialOp::CoveredBy, &everything), before);
    // Untouched pictures are shared whole.
    assert!(clone
        .picture("lake-map")
        .unwrap()
        .shares_packed_with(original.picture("lake-map").unwrap()));

    // A pack on the clone starts a new generation there and only there.
    clone.pack_all();
    let new = clone.picture("us-map").unwrap();
    assert!(!new.shares_packed_with(old));
    assert_eq!((new.packed_len(), new.delta_len()), (old.len() + 1, 0));
    assert_eq!((old.packed_len(), old.delta_len()), (before.len(), 0));
    assert_eq!(window_ids(old, SpatialOp::CoveredBy, &everything), before);
}

#[test]
fn relation_writes_through_a_clone_never_show_through_the_original() {
    let original = PictorialDatabase::with_us_map();
    let cities = |db: &PictorialDatabase| db.catalog().relation("cities").unwrap().len();
    let boston = {
        let pic = original.picture("us-map").unwrap();
        pic.object_ids()
            .find(|&id| pic.label(id) == Some("Boston"))
            .unwrap()
    };
    let boston_tid = original.tuples_of_object("cities", "loc", boston)[0];

    let mut clone = original.clone();
    let obj = clone
        .add_object("us-map", point(50.0, 25.0), "Springfield")
        .unwrap();
    let tid = clone
        .insert(
            "cities",
            vec![
                "Springfield".into(),
                "IL".into(),
                600_000i64.into(),
                Value::Pointer(obj),
            ],
        )
        .unwrap();
    clone.delete("cities", boston_tid).unwrap();
    clone.catalog_mut().create_index("cities", "state").unwrap();

    // The clone sees its own writes: tuple, backlinks, both indexes.
    assert_eq!(cities(&clone), cities(&original));
    assert_eq!(clone.tuples_of_object("cities", "loc", obj), &[tid]);
    assert!(clone.tuples_of_object("cities", "loc", boston).is_empty());
    let by_population = |db: &PictorialDatabase| {
        db.catalog()
            .index("cities", "population")
            .unwrap()
            .get(&Value::Int(600_000))
            .cloned()
            .unwrap_or_default()
    };
    assert_eq!(by_population(&clone), vec![tid]);
    assert!(clone.catalog().index("cities", "state").is_some());

    // The original sees none of them.
    assert_eq!(cities(&original), 42);
    assert!(original.tuples_of_object("cities", "loc", obj).is_empty());
    assert_eq!(
        original.tuples_of_object("cities", "loc", boston),
        &[boston_tid]
    );
    assert!(original
        .catalog()
        .relation("cities")
        .unwrap()
        .get(boston_tid)
        .is_ok());
    assert!(by_population(&original).is_empty());
    assert!(original.catalog().index("cities", "state").is_none());
}

/// A 42-city packed picture with a delta on top: it serves its arena
/// like any packed picture, every entry point must answer exactly as a
/// scan of all the objects, and the counters are those of the picture's
/// own pointer tree plus the delta.
#[test]
fn small_packed_picture_with_a_delta_matches_brute_force() {
    let mut db = PictorialDatabase::with_us_map();
    for (i, (x, y)) in [(12.0, 8.0), (51.5, 25.5), (88.0, 44.0), (51.5, 25.5)]
        .into_iter()
        .enumerate()
    {
        db.add_object("us-map", point(x, y), &format!("d{i}"))
            .unwrap();
    }
    db.add_object(
        "us-map",
        SpatialObject::Region(Region::rectangle(Rect::new(40.0, 20.0, 60.0, 30.0))),
        "metro",
    )
    .unwrap();
    let pic = db.picture("us-map").unwrap();
    assert_eq!(pic.delta_len(), 5);
    assert!(pic.frozen().is_some(), "packed, so served from the arena");
    let objects = all_objects(pic);

    let windows = [
        Rect::new(0.0, 0.0, 100.0, 50.0),
        Rect::new(45.0, 20.0, 58.0, 31.0),
        Rect::new(51.5, 25.5, 51.5, 25.5),
        Rect::new(10.0, 5.0, 14.0, 9.0),
        Rect::new(200.0, 200.0, 210.0, 210.0),
    ];
    let mut scratch = SearchScratch::new();
    for w in &windows {
        for op in OPS {
            let target = SpatialObject::Region(Region::rectangle(*w));
            let expect: Vec<u64> = (0..objects.len() as u64)
                .filter(|&id| op.eval_objects(&objects[id as usize], &target))
                .collect();
            assert_eq!(window_ids(pic, op, w), expect, "{op} {w:?}");
            let mut fast = pic.search_window_fast(op, w, &mut scratch);
            fast.sort_unstable();
            assert_eq!(fast, expect, "fast {op} {w:?}");
            if op == SpatialOp::Disjoined {
                continue;
            }
            let (mut got, mut pointer, mut delta) =
                <(SearchStats, SearchStats, SearchStats)>::default();
            pic.search_window(op, w, &mut got);
            let (tree, delta_tree) = (pic.tree(), pic.delta_tree().unwrap());
            if op == SpatialOp::CoveredBy {
                tree.search_within(w, &mut pointer);
                delta_tree.search_within(w, &mut delta);
            } else {
                tree.search_intersecting(w, &mut pointer);
                delta_tree.search_intersecting(w, &mut delta);
            }
            // Two traversals, one logical query.
            pointer += delta;
            pointer.queries -= 1;
            assert_eq!(got, pointer, "counters {op} {w:?}");
        }
    }

    // k-NN: the distances of the answer are the k smallest there are.
    let knn: Vec<(Point, usize)> = vec![
        (Point::new(51.0, 25.0), 3),
        (Point::new(12.0, 8.0), 1),
        (Point::new(0.0, 0.0), 7),
        (Point::new(90.0, 45.0), objects.len() + 5),
    ];
    let distances = |p: Point, ids: &[u64]| -> Vec<f64> {
        ids.iter()
            .map(|&id| objects[id as usize].mbr().min_distance_sq(p))
            .collect()
    };
    for &(p, k) in &knn {
        let mut expect: Vec<f64> = objects.iter().map(|o| o.mbr().min_distance_sq(p)).collect();
        expect.sort_by(f64::total_cmp);
        expect.truncate(k);
        let got = pic.nearest(p, k, &mut SearchStats::default());
        assert_eq!(distances(p, &got), expect, "k-NN at {p:?} k={k}");
        assert_eq!(pic.nearest_fast(p, k, &mut scratch), got);
    }
}

/// Juxtaposition with a delta on *both* sides: main × main, main × delta,
/// delta × main and delta × delta together must be the pair set of a
/// nested loop over every object's MBR (every pair for `disjoined`).
#[test]
fn juxtaposition_with_deltas_on_both_sides_matches_brute_force() {
    let mut db = PictorialDatabase::with_us_map();
    db.add_object("us-map", point(51.5, 25.5), "d0").unwrap();
    db.add_object("us-map", point(3.0, 3.0), "d1").unwrap();
    db.add_object(
        "time-zone-map",
        SpatialObject::Region(Region::rectangle(Rect::new(50.0, 20.0, 55.0, 30.0))),
        "half-hour-zone",
    )
    .unwrap();
    db.add_object(
        "time-zone-map",
        SpatialObject::Region(Region::rectangle(Rect::new(0.0, 0.0, 5.0, 5.0))),
        "corner-zone",
    )
    .unwrap();
    let (lp, rp) = (
        db.picture("us-map").unwrap(),
        db.picture("time-zone-map").unwrap(),
    );
    assert!(lp.needs_merge() && rp.needs_merge());
    let (left, right) = (all_objects(lp), all_objects(rp));
    for op in OPS {
        let mut expect = Vec::new();
        for (l, lo) in left.iter().enumerate() {
            for (r, ro) in right.iter().enumerate() {
                let (a, b) = (lo.mbr(), ro.mbr());
                // `disjoined` has no MBR rule: every pair is a candidate.
                let keep =
                    op == SpatialOp::Disjoined || (a.intersects(&b) && op.mbr_filter(&a, &b));
                if keep {
                    expect.push((l as u64, r as u64));
                }
            }
        }
        let mut got: Vec<(u64, u64)> = picture_join(lp, rp, op, &mut JoinStats::default())
            .into_iter()
            .map(|(l, r)| (l.0, r.0))
            .collect();
        got.sort_unstable();
        assert_eq!(got, expect, "{op}");
    }
}

fn base_with_delta() -> PictorialDatabase {
    let mut base = PictorialDatabase::with_us_map();
    for i in 0..3 {
        base.add_object("us-map", point(30.0 + i as f64, 20.0), &format!("d{i}"))
            .unwrap();
    }
    base
}

#[test]
fn adopt_merge_keeps_writes_made_while_the_merge_packed() {
    let base = base_with_delta();
    let mut merged = base.clone();
    assert_eq!(merged.merge_deltas(), 1);

    // Meanwhile: one more object on the merged picture, one on another.
    let mut current = base.clone();
    let late = current
        .add_object("us-map", point(77.0, 33.0), "late")
        .unwrap();
    let lake = current
        .add_object("lake-map", point(60.0, 40.0), "pond")
        .unwrap();

    let mut next = current.clone();
    assert!(next.adopt_merge(&base, &merged));
    let pic = next.picture("us-map").unwrap();
    assert!(pic.shares_packed_with(merged.picture("us-map").unwrap()));
    assert_eq!(pic.packed_len(), base.picture("us-map").unwrap().len());
    assert_eq!((pic.len(), pic.delta_len()), (late as usize + 1, 1));
    assert_eq!(pic.label(late), Some("late"));
    // The merge concatenated the shared generation's store with the
    // delta and the catch-up re-added the rest: every object and label
    // is the current one, id for id.
    let now = current.picture("us-map").unwrap();
    assert_eq!(all_objects(pic), all_objects(now));
    assert!(pic.object_ids().all(|id| pic.label(id) == now.label(id)));
    assert!(window_ids(
        pic,
        SpatialOp::CoveredBy,
        &Rect::new(76.0, 32.0, 78.0, 34.0)
    )
    .contains(&late));
    // A picture the merge did not pack is the current one, writes and all.
    assert_eq!(next.picture("lake-map").unwrap().label(lake), Some("pond"));
}

/// A REPACK's rebuild is `pack_all`, which also packs pictures that held
/// no delta and pictures that were never packed. Those serve no
/// generation before or after, which must read as "unchanged".
#[test]
fn adopt_merge_installs_the_first_pack_of_a_never_packed_picture() {
    let mut base = base_with_delta();
    base.create_picture("raw", Rect::new(0.0, 0.0, 100.0, 100.0))
        .unwrap();
    for i in 0..50 {
        base.add_object("raw", point(i as f64, i as f64), &format!("r{i}"))
            .unwrap();
    }
    let mut rebuilt = base.clone();
    rebuilt.pack_all();

    let mut current = base.clone();
    let late = current.add_object("raw", point(7.5, 7.5), "late").unwrap();
    let mut next = current.clone();
    assert!(next.adopt_merge(&base, &rebuilt));
    let raw = next.picture("raw").unwrap();
    assert!(raw.shares_packed_with(rebuilt.picture("raw").unwrap()));
    assert_eq!((raw.packed_len(), raw.delta_len()), (50, 1));
    assert_eq!(raw.label(late), Some("late"));
    assert!(window_ids(raw, SpatialOp::CoveredBy, &Rect::new(7.0, 7.0, 8.0, 8.0)).contains(&late));
    // Every picture was replaced, the ones without a delta included.
    for pic in next.pictures() {
        assert!(pic.shares_packed_with(rebuilt.picture(pic.name()).unwrap()));
    }
    assert_eq!(next.picture("us-map").unwrap().delta_len(), 0);
}

#[test]
fn adopt_merge_discards_a_merge_overtaken_by_a_repack() {
    let base = base_with_delta();
    let mut merged = base.clone();
    merged.merge_deltas();

    let mut current = base.clone();
    current.pack_all();
    let mut next = current.clone();
    assert!(!next.adopt_merge(&base, &merged));
    let (kept, repacked) = (
        next.picture("us-map").unwrap(),
        current.picture("us-map").unwrap(),
    );
    assert!(kept.shares_packed_with(repacked), "stale merge was adopted");
    assert_eq!(kept.len(), repacked.len());
}
