//! **Figure 3.3**: the overlap phenomenon — a window that intersects
//! every root entry defeats R-tree pruning.
//!
//! Builds a dynamically grown tree over uniform points (dynamic trees
//! have overlapping internal MBRs) and compares windows of identical
//! size placed where they intersect many vs few top-level entries,
//! reporting how pruning degrades with root-entry overlap.
//!
//! Run with: `cargo run -p rtree-bench --bin fig3_3`

use rtree_bench::report::{f, Table};
use rtree_bench::{build_insert, experiment_seed};
use rtree_geom::Rect;
use rtree_index::{Child, RTreeConfig, SearchStats, SplitPolicy};
use rtree_workload::{points, rng, PAPER_UNIVERSE};

fn main() {
    println!("Figure 3.3 — window position vs pruning effectiveness\n");
    let mut rng = rng(experiment_seed());
    let pts = points::uniform(&mut rng, &PAPER_UNIVERSE, 800);
    let tree = build_insert(
        &points::as_items(&pts),
        SplitPolicy::Linear,
        RTreeConfig::PAPER,
    );
    println!(
        "dynamic tree: {} points, {} nodes, depth {}",
        tree.len(),
        tree.node_count(),
        tree.depth()
    );
    let root = tree.node(tree.root());
    println!("root entries and their MBRs:");
    for e in &root.entries {
        if let Child::Node(_) = e.child {
            println!("  {}", e.mbr);
        }
    }

    // Sweep a fixed-size window over a grid of positions; for each,
    // record how many root entries it intersects and the search cost.
    let side = 120.0;
    let mut table = Table::new([
        "root entries hit",
        "windows",
        "avg nodes visited",
        "avg hits",
    ]);
    let mut by_root_hits: std::collections::BTreeMap<usize, (usize, u64, u64)> =
        std::collections::BTreeMap::new();
    for i in 0..9 {
        for j in 0..9 {
            let cx = 100.0 + i as f64 * 100.0;
            let cy = 100.0 + j as f64 * 100.0;
            let w = Rect::new(
                cx - side / 2.0,
                cy - side / 2.0,
                cx + side / 2.0,
                cy + side / 2.0,
            );
            let root_hits = root.entries.iter().filter(|e| e.mbr.intersects(&w)).count();
            let mut stats = SearchStats::default();
            let found = tree.search_within(&w, &mut stats);
            let entry = by_root_hits.entry(root_hits).or_insert((0, 0, 0));
            entry.0 += 1;
            entry.1 += stats.nodes_visited;
            entry.2 += found.len() as u64;
        }
    }
    let mut cost = Vec::new();
    for (root_hits, (count, visited, hits)) in by_root_hits {
        let avg_visited = visited as f64 / count as f64;
        cost.push((root_hits, avg_visited));
        table.row([
            root_hits.to_string(),
            count.to_string(),
            f(avg_visited, 1),
            f(hits as f64 / count as f64, 1),
        ]);
    }
    println!("\n{}", table.render());
    let (few, few_cost) = cost[0];
    let (most, most_cost) = cost[cost.len() - 1];
    let change = 100.0 * (most_cost / few_cost - 1.0);
    println!(
        "Windows that touch {most} of the {} root entries visit {}% {} nodes",
        root.entries.len(),
        f(change.abs(), 0),
        if change < 0.0 { "fewer" } else { "more" }
    );
    println!(
        "than windows of the same size that touch {few} ({} against {}).",
        f(most_cost, 1),
        f(few_cost, 1)
    );
    println!("The more root entries a window meets, the later its search is");
    println!("pruned (\"region W intersects all the root entries and the search");
    println!("cannot yet be pruned\"). If this overlap phenomenon occurs");
    println!("regularly, the R-tree advantage erodes; PACK minimizes it at");
    println!("construction time.");
}
