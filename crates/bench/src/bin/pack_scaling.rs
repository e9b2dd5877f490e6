//! **EXT-8**: construction-cost scaling — the literal O(n²) PACK of the
//! paper's pseudocode vs the sweep nearest-neighbour search, vs the
//! sort-based packers and dynamic INSERT.
//!
//! The paper notes selecting all `M` group members simultaneously "could
//! be combinatorially explosive"; even its one-at-a-time NN is quadratic
//! when implemented naively. This sweep shows where the naive variant
//! stops being viable and that the sweep makes PACK's build cost
//! comparable to a sort. (Build cost at 1M points, sequential and
//! parallel, is `sysbench`'s `core.pack_ms` / `core.pack_parallel_ms`.)
//!
//! Run with: `cargo run --release -p rtree-bench --bin pack_scaling`

use packed_rtree_core::{pack_with, PackStrategy};
use rtree_bench::report::{f, Table};
use rtree_bench::{build_insert, experiment_seed, SeededWorkload};
use rtree_index::{RTreeConfig, SplitPolicy};
use std::time::Instant;

fn main() {
    let seed = experiment_seed();
    println!("EXT-8 — build-cost scaling, M=4 (seed {seed}); times in ms\n");

    let mut table = Table::new([
        "n",
        "pack-nn(sweep)",
        "pack-nn-naive",
        "pack-str",
        "pack-hilbert",
        "insert-quad",
    ]);
    for n in [1_000usize, 4_000, 16_000, 64_000] {
        let items = SeededWorkload::new(seed).uniform_items(n);

        let time = |f: &dyn Fn() -> usize| -> f64 {
            let start = Instant::now();
            let len = f();
            assert_eq!(len, n);
            start.elapsed().as_secs_f64() * 1000.0
        };
        let pack =
            |strategy| time(&|| pack_with(items.clone(), RTreeConfig::PAPER, strategy).len());

        let sweep = pack(PackStrategy::NearestNeighbor);
        // The naive O(n²) scan becomes painful quickly; cap it.
        let naive = if n <= 16_000 {
            f(pack(PackStrategy::NearestNeighborNaive), 1)
        } else {
            "(skipped)".to_string()
        };
        let str_t = pack(PackStrategy::SortTileRecursive);
        let hil = pack(PackStrategy::Hilbert);
        let ins = time(&|| build_insert(&items, SplitPolicy::Quadratic, RTreeConfig::PAPER).len());

        table.row([
            n.to_string(),
            f(sweep, 1),
            naive,
            f(str_t, 1),
            f(hil, 1),
            f(ins, 1),
        ]);
    }
    println!("{}", table.render());
    println!("The sweep NN keeps the paper's algorithm near sort cost (O(n log n)-ish);");
    println!("the pseudocode's literal NN scan grows quadratically and falls behind");
    println!("dynamic insertion well before 100k objects.");
}
