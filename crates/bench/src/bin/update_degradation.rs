//! **EXT-4**: the update problem (§3.4) — how fast a packed tree decays
//! under Guttman INSERT/DELETE churn, and what periodic re-packing (§4's
//! proposed "dynamic invocation of PACK") recovers.
//!
//! Run with: `cargo run --release -p rtree-bench --bin update_degradation`

use packed_rtree_core::{pack, pack_with, PackStrategy};
use rtree_bench::experiment_seed;
use rtree_bench::report::{f, Table};
use rtree_geom::Rect;
use rtree_index::{ItemId, NodeAccess, RTree, RTreeConfig, SearchStats, TreeMetrics};
use rtree_workload::{points, queries, rng, PAPER_UNIVERSE};

fn query_cost(tree: &RTree, qs: &[rtree_geom::Point]) -> f64 {
    let mut stats = SearchStats::default();
    for &q in qs {
        tree.point_query(q, &mut stats);
    }
    stats.avg_nodes_visited()
}

fn main() {
    let seed = experiment_seed();
    let j = 1000;
    println!("EXT-4 — packed-tree degradation under churn and recovery by repack");
    println!("J={j}, churn rounds of 10% delete + 10% insert (seed {seed})\n");

    let mut data_rng = rng(seed);
    let pts = points::uniform(&mut data_rng, &PAPER_UNIVERSE, j);
    let mut live = points::as_items(&pts);
    let mut query_rng = rng(seed ^ 0x5eed_cafe);
    let qs = queries::point_queries(&mut query_rng, &PAPER_UNIVERSE, 1000);

    let mut tree = pack(live.clone(), RTreeConfig::PAPER);
    let fresh = query_cost(&tree, &qs);

    let mut table = Table::new([
        "churn (% of J)",
        "A (degraded)",
        "N",
        "A (repacked)",
        "N (repacked)",
    ]);
    let mut next_id = 100_000u64;
    let mut churned = 0usize;
    for round in 1..=10 {
        // Delete the 10% oldest, insert 10% fresh.
        let batch = j / 10;
        for (mbr, id) in live.drain(..batch) {
            assert!(tree.remove(mbr, id));
        }
        for p in points::uniform(&mut data_rng, &PAPER_UNIVERSE, batch) {
            let mbr = Rect::from_point(p);
            let id = ItemId(next_id);
            next_id += 1;
            tree.insert(mbr, id);
            live.push((mbr, id));
        }
        churned += 2 * batch;

        let degraded_a = query_cost(&tree, &qs);
        let degraded_n = TreeMetrics::measure(&tree).nodes;
        let repacked = pack_with(tree.items(), tree.config(), PackStrategy::NearestNeighbor);
        let repacked_a = query_cost(&repacked, &qs);
        let repacked_n = TreeMetrics::measure(&repacked).nodes;
        table.row([
            format!("{}", churned * 100 / j),
            f(degraded_a, 3),
            degraded_n.to_string(),
            f(repacked_a, 3),
            repacked_n.to_string(),
        ]);
        let _ = round;
    }
    println!("freshly packed: A = {:.3}\n", fresh);
    println!("{}", table.render());
    println!("The first insertions after packing must split (nodes are full), so");
    println!("decay is immediate but gradual; a repack restores fresh-pack cost.");
    println!("\"INSERT (and analogously DELETE) and PACK can complement each");
    println!("other … in the creation and maintenance of dynamic R-trees.\"");
}
