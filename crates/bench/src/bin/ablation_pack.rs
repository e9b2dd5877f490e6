//! **EXT-2**: packing-strategy ablation — the paper's NN-PACK against its
//! own sort criterion alone (x-sort) and its descendants (STR, Hilbert),
//! on uniform, clustered, skewed and diagonal data.
//!
//! Run with: `cargo run --release -p rtree-bench --bin ablation_pack`

use packed_rtree_core::PackStrategy;
use rtree_bench::report::{f, Table};
use rtree_bench::{build_pack, measure, SeededWorkload};
use rtree_geom::Point;
use rtree_index::RTreeConfig;
use rtree_workload::{points, PAPER_UNIVERSE};

fn main() {
    let workload = SeededWorkload::from_env();
    let seed = workload.seed;
    let j = 900;
    println!("EXT-2 — packing strategies at J={j}, M=4 (seed {seed})\n");

    // One sequential data stream across all four distributions (the
    // clustered/skewed/diagonal sets continue where uniform left off).
    let mut data_rng = workload.data_rng();
    let workloads: Vec<(&str, Vec<Point>)> = vec![
        (
            "uniform",
            points::uniform(&mut data_rng, &PAPER_UNIVERSE, j),
        ),
        (
            "clustered",
            points::clustered(&mut data_rng, &PAPER_UNIVERSE, j, 8, 40.0),
        ),
        (
            "skewed",
            points::skewed(&mut data_rng, &PAPER_UNIVERSE, j, 3.0),
        ),
        (
            "diagonal",
            points::diagonal(&mut data_rng, &PAPER_UNIVERSE, j, 60.0),
        ),
    ];
    let query_points = workload.point_queries(1000);

    // Per dataset: (x-sort's C < NN's, x-sort's O == 0, NN's O == 0,
    // x-sort's A < NN's).
    let mut tally = [0usize; 4];
    let datasets = workloads.len();
    for (name, pts) in workloads {
        let items = points::as_items(&pts);
        let mut table = Table::new(["strategy", "C", "O", "D", "N", "A"]);
        let mut rows = Vec::new();
        for strategy in [
            PackStrategy::NearestNeighbor,
            PackStrategy::XSort,
            PackStrategy::SortTileRecursive,
            PackStrategy::Hilbert,
        ] {
            let tree = build_pack(&items, strategy, RTreeConfig::PAPER);
            let row = measure(&tree, &query_points);
            table.row([
                strategy.name().to_string(),
                f(row.coverage, 0),
                f(row.overlap, 0),
                row.depth.to_string(),
                row.nodes.to_string(),
                f(row.avg_visited, 3),
            ]);
            rows.push(row);
        }
        println!("{name}:\n{}", table.render());
        let (nn, xsort) = (&rows[0], &rows[1]);
        for (count, holds) in tally.iter_mut().zip([
            xsort.coverage < nn.coverage,
            xsort.overlap == 0.0,
            nn.overlap == 0.0,
            xsort.avg_visited < nn.avg_visited,
        ]) {
            *count += usize::from(holds);
        }
    }
    let [c, xo, no, a] = tally;
    println!("pack-nn against its own sort criterion alone, dataset by dataset:");
    println!("pack-xsort has the lower C on {c} of {datasets}, O = 0 on {xo} of {datasets}");
    println!("(pack-nn on {no} of {datasets}) and the lower A on {a} of {datasets}.");
}
