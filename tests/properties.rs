//! Workspace-level property-based tests: randomized operation sequences
//! against brute-force models, spanning packing, dynamic updates, search
//! and the theorems.

use packed_rtree::geom::{Point, Rect};
use packed_rtree::index::{ItemId, NodeAccess, RTree, RTreeConfig, SearchStats, SplitPolicy};
use packed_rtree::pack::zero_overlap::zero_overlap_partition;
use packed_rtree::pack::PackStrategy::{NearestNeighbor, SortTileRecursive};
use packed_rtree::pack::{pack_with, PackStrategy};
use rand::{rngs::StdRng, Rng, SeedableRng};
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
    Point::new(rng.gen_range(0.0..1000.0), rng.gen_range(0.0..1000.0))
}

fn arb_items(rng: &mut StdRng, max: usize) -> Vec<(Rect, ItemId)> {
    (0..rng.gen_range(0..max))
        .map(|i| (Rect::from_point(arb_point(rng)), ItemId(i as u64)))
        .collect()
}

fn arb_window(rng: &mut StdRng) -> Rect {
    Rect::from_corners(arb_point(rng), arb_point(rng))
}

fn arb_config(rng: &mut StdRng) -> RTreeConfig {
    let m = rng.gen_range(2usize..12);
    let split = [SplitPolicy::Linear, SplitPolicy::Quadratic][rng.gen_range(0..2usize)];
    RTreeConfig::new(m.max(2), (m / 2).max(1), split)
}

/// Packing any point set with any strategy yields a valid tree
/// containing exactly the input items.
#[test]
fn packing_preserves_contents() {
    for_cases(64, |rng| {
        let items = arb_items(rng, 300);
        for strategy in PackStrategy::ALL {
            let tree = pack_with(items.clone(), RTreeConfig::PAPER, strategy);
            assert!(tree.validate_with(false).is_ok());
            let mut got: Vec<ItemId> = tree.items().into_iter().map(|(_, id)| id).collect();
            got.sort();
            let mut expect: Vec<ItemId> = items.iter().map(|&(_, id)| id).collect();
            expect.sort();
            assert_eq!(got, expect);
        }
    });
}

/// Window search on a packed tree equals brute force.
#[test]
fn packed_search_equals_brute_force() {
    for_cases(64, |rng| {
        let (items, window) = (arb_items(rng, 200), arb_window(rng));
        let tree = pack_with(items.clone(), RTreeConfig::PAPER, NearestNeighbor);
        let mut stats = SearchStats::default();
        let mut got = tree.search_within(&window, &mut stats);
        got.sort();
        let mut expect: Vec<ItemId> = items
            .iter()
            .filter(|(r, _)| r.covered_by(&window))
            .map(|&(_, id)| id)
            .collect();
        expect.sort();
        assert_eq!(got, expect);
    });
}

/// Dynamic insert/remove sequences keep the tree valid and searches
/// correct, at any branching factor and split policy.
#[test]
fn dynamic_ops_match_model() {
    for_cases(64, |rng| {
        let (config, items) = (arb_config(rng), arb_items(rng, 150));
        let removals: Vec<u64> = (0..rng.gen_range(0..50)).map(|_| rng.gen()).collect();
        let window = arb_window(rng);
        let mut tree = RTree::new(config);
        let mut model: Vec<(Rect, ItemId)> = Vec::new();
        for &(mbr, id) in &items {
            tree.insert(mbr, id);
            model.push((mbr, id));
        }
        for idx in removals {
            if model.is_empty() {
                break;
            }
            let k = (idx % model.len() as u64) as usize;
            let (mbr, id) = model.swap_remove(k);
            assert!(tree.remove(mbr, id));
        }
        assert!(tree.validate().is_ok(), "{:?}", tree.validate());
        assert_eq!(tree.len(), model.len());

        let mut stats = SearchStats::default();
        let mut got = tree.search_intersecting(&window, &mut stats);
        got.sort();
        let mut expect: Vec<ItemId> = model
            .iter()
            .filter(|(r, _)| r.intersects(&window))
            .map(|&(_, id)| id)
            .collect();
        expect.sort();
        assert_eq!(got, expect);
    });
}

/// kNN on a packed tree returns exactly the k smallest distances.
#[test]
fn knn_matches_brute_force() {
    for_cases(64, |rng| {
        let (items, q) = (arb_items(rng, 150), arb_point(rng));
        let k = rng.gen_range(1usize..20);
        let tree = pack_with(items.clone(), RTreeConfig::PAPER, SortTileRecursive);
        let mut stats = SearchStats::default();
        let got = tree.nearest_neighbors(q, k, &mut stats);
        let mut brute: Vec<f64> = items.iter().map(|(r, _)| r.min_distance_sq(q)).collect();
        brute.sort_by(f64::total_cmp);
        let expect: Vec<f64> = brute.into_iter().take(k).collect();
        let got_d: Vec<f64> = got.iter().map(|n| n.distance_sq).collect();
        assert_eq!(got_d, expect);
    });
}

/// Theorem 3.2 holds for arbitrary distinct point sets and group
/// sizes.
#[test]
fn zero_overlap_theorem() {
    for_cases(64, |rng| {
        let mut dedup: Vec<Point> = (0..rng.gen_range(1..80)).map(|_| arb_point(rng)).collect();
        let group = rng.gen_range(2usize..8);
        dedup.sort_by(|a, b| a.x.total_cmp(&b.x).then(a.y.total_cmp(&b.y)));
        dedup.dedup();
        let witness = zero_overlap_partition(&dedup, group).expect("distinct points");
        assert!(witness.is_disjoint());
        assert_eq!(witness.groups.len(), dedup.len().div_ceil(group));
    });
}

/// A packed tree never has more nodes than the dynamically built
/// tree over the same data (full occupancy ⇒ minimal node count).
/// A case with fewer than 8 items is skipped; at least half must run.
#[test]
fn pack_node_count_is_minimal() {
    let mut ran = 0;
    for_cases(64, |rng| {
        let items = arb_items(rng, 250);
        if items.len() < 8 {
            return;
        }
        ran += 1;
        let packed = pack_with(items.clone(), RTreeConfig::PAPER, NearestNeighbor);
        let mut dynamic = RTree::new(RTreeConfig::PAPER);
        for &(mbr, id) in &items {
            dynamic.insert(mbr, id);
        }
        assert!(packed.node_count() <= dynamic.node_count());
    });
    assert!(ran >= 32, "only {ran} of 64 cases had 8 or more items");
}
