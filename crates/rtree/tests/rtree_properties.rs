//! Property-based tests for the dynamic R-tree over *rectangle* items
//! (regions have positive area, which exercises different code paths
//! from the point workloads: overlapping entries, covers-based FindLeaf,
//! non-zero enlargements).

use rand::{rngs::StdRng, Rng, SeedableRng};
use rtree_geom::{Point, Rect};
use rtree_index::{ItemId, RTree, RTreeConfig, SearchStats, SplitPolicy};
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

fn arb_rect(rng: &mut StdRng) -> Rect {
    let (x, y) = (rng.gen_range(0.0..900.0), rng.gen_range(0.0..900.0));
    let (w, h) = (rng.gen_range(0.0..100.0), rng.gen_range(0.0..100.0));
    Rect::new(x, y, x + w, y + h)
}

fn arb_items(rng: &mut StdRng, max: usize) -> Vec<(Rect, ItemId)> {
    (0..rng.gen_range(0..max))
        .map(|i| (arb_rect(rng), ItemId(i as u64)))
        .collect()
}

fn arb_policy(rng: &mut StdRng) -> SplitPolicy {
    use SplitPolicy::{Exhaustive, Linear, Quadratic};
    [Linear, Quadratic, Exhaustive][rng.gen_range(0..3usize)]
}

/// Inserting overlapping rectangles keeps the tree valid under every
/// split policy and preserves intersection-search correctness.
#[test]
fn rect_inserts_valid_and_searchable() {
    for_cases(48, |rng| {
        let (items, policy, window) = (arb_items(rng, 120), arb_policy(rng), arb_rect(rng));
        let mut tree = RTree::new(RTreeConfig::new(4, 2, policy));
        for &(r, id) in &items {
            tree.insert(r, id);
        }
        assert!(tree.validate().is_ok(), "{:?}", tree.validate());

        let mut stats = SearchStats::default();
        let mut got = tree.search_intersecting(&window, &mut stats);
        got.sort();
        let mut expect: Vec<ItemId> = items
            .iter()
            .filter(|(r, _)| r.intersects(&window))
            .map(|&(_, id)| id)
            .collect();
        expect.sort();
        assert_eq!(got, expect);
    });
}

/// Point queries agree with brute force on rectangle data.
#[test]
fn rect_point_queries_match() {
    for_cases(48, |rng| {
        let items = arb_items(rng, 100);
        let (qx, qy) = (rng.gen_range(0.0..1000.0), rng.gen_range(0.0..1000.0));
        let mut tree = RTree::new(RTreeConfig::PAPER);
        for &(r, id) in &items {
            tree.insert(r, id);
        }
        let q = Point::new(qx, qy);
        let mut stats = SearchStats::default();
        let mut got = tree.point_query(q, &mut stats);
        got.sort();
        let mut expect: Vec<ItemId> = items
            .iter()
            .filter(|(r, _)| r.contains_point(q))
            .map(|&(_, id)| id)
            .collect();
        expect.sort();
        assert_eq!(got, expect);
    });
}

/// Removing every item in arbitrary order always succeeds and leaves
/// an empty, shallow tree — the CondenseTree stress test.
#[test]
fn full_removal_in_shuffled_order() {
    for_cases(48, |rng| {
        let (items, policy) = (arb_items(rng, 80), arb_policy(rng));
        let mut tree = RTree::new(RTreeConfig::new(4, 2, policy));
        for &(r, id) in &items {
            tree.insert(r, id);
        }
        let mut order: Vec<usize> = (0..items.len()).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.gen_range(0..=i));
        }
        for &k in &order {
            let (r, id) = items[k];
            assert!(tree.remove(r, id), "lost {id}");
            assert!(tree.validate().is_ok(), "{:?}", tree.validate());
        }
        assert!(tree.is_empty());
        assert_eq!(tree.depth(), 0);
        assert_eq!(tree.node_count(), 1);
    });
}

/// The search-stats node accounting is conservative: a window query
/// never visits more nodes than exist, and always visits at least
/// the root.
#[test]
fn stats_accounting_bounds() {
    for_cases(48, |rng| {
        let (items, window) = (arb_items(rng, 150), arb_rect(rng));
        let mut tree = RTree::new(RTreeConfig::PAPER);
        for &(r, id) in &items {
            tree.insert(r, id);
        }
        let mut stats = SearchStats::default();
        tree.search_within(&window, &mut stats);
        assert!(stats.nodes_visited >= 1);
        assert!(stats.nodes_visited as usize <= tree.node_count());
        assert!(stats.leaf_nodes_visited <= stats.nodes_visited);
        assert_eq!(stats.queries, 1);
    });
}

/// Tree metrics are internally consistent: overlap never exceeds
/// coverage, node count ≥ depth + 1, and items survive round trips.
#[test]
fn metrics_consistency() {
    for_cases(48, |rng| {
        let items = arb_items(rng, 150);
        let mut tree = RTree::new(RTreeConfig::PAPER);
        for &(r, id) in &items {
            tree.insert(r, id);
        }
        let m = tree.metrics();
        assert!(m.overlap <= m.coverage + 1e-9 * m.coverage.max(1.0));
        assert!(m.nodes > m.depth as usize);
        assert_eq!(m.items, items.len());
        let mut listed: Vec<ItemId> = tree.items().into_iter().map(|(_, id)| id).collect();
        listed.sort();
        let mut expect: Vec<ItemId> = items.iter().map(|&(_, id)| id).collect();
        expect.sort();
        assert_eq!(listed, expect);
    });
}
