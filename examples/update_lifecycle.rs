//! §3.4's update problem: a PACKed tree degrades gracefully under
//! Guttman INSERT/DELETE and recovers after re-packing — the paper's
//! proposed "dynamic invocation of the PACK algorithm".
//!
//! Run with: `cargo run --example update_lifecycle`

use packed_rtree::geom::Rect;
use packed_rtree::index::{ItemId, NodeAccess, RTree, RTreeConfig, SearchStats};
use packed_rtree::pack::{pack, pack_with, PackStrategy};
use packed_rtree::workload::{points, queries, rng, PAPER_UNIVERSE};

/// Reorganize after churn worth this share of the data.
const REPACK_FRACTION: f64 = 0.30;

fn repack(tree: &RTree) -> RTree {
    pack_with(tree.items(), tree.config(), PackStrategy::NearestNeighbor)
}

/// Counts one update and re-packs `tree` once the updates since its last
/// pack reach [`REPACK_FRACTION`] of its size.
fn note_update(tree: &mut RTree, updates: &mut usize, repacks: &mut usize) {
    *updates += 1;
    if *updates as f64 >= (tree.len() as f64 * REPACK_FRACTION).max(1.0) {
        *tree = repack(tree);
        *updates = 0;
        *repacks += 1;
    }
}

fn main() {
    let mut rng = rng(42);
    let pts = points::uniform(&mut rng, &PAPER_UNIVERSE, 600);
    let items = points::as_items(&pts);
    let query_points = queries::point_queries(&mut rng, &PAPER_UNIVERSE, 500);

    let mut tree = pack(items.clone(), RTreeConfig::PAPER);
    let (mut updates, mut repacks) = (0, 0);

    let cost = |t: &RTree| {
        let mut stats = SearchStats::default();
        for &q in &query_points {
            t.point_query(q, &mut stats);
        }
        stats.avg_nodes_visited()
    };

    println!("freshly packed:       A = {:.2} nodes/query", cost(&tree));

    // Churn: repeatedly delete the oldest tenth and insert fresh points.
    let mut next_id = 10_000u64;
    let mut live = items;
    for round in 1..=6 {
        // Delete 60 old points.
        for (mbr, id) in live.drain(..60) {
            assert!(tree.remove(mbr, id));
            note_update(&mut tree, &mut updates, &mut repacks);
        }
        // Insert 60 new ones.
        let fresh = points::uniform(&mut rng, &PAPER_UNIVERSE, 60);
        for p in fresh {
            let mbr = Rect::from_point(p);
            let id = ItemId(next_id);
            next_id += 1;
            tree.insert(mbr, id);
            note_update(&mut tree, &mut updates, &mut repacks);
            live.push((mbr, id));
        }
        println!(
            "after churn round {round}: A = {:.2} nodes/query  (repacks so far: {repacks})",
            cost(&tree),
        );
    }

    // Force a final reorganization and compare.
    tree = repack(&tree);
    println!("after final repack:   A = {:.2} nodes/query", cost(&tree));
    tree.validate_with(false).expect("valid tree");
    println!(
        "\ntree: {} items, {} nodes, depth {}",
        tree.len(),
        tree.node_count(),
        tree.depth()
    );
}
