//! **EXT-10**: pointer tree vs frozen arena on the query hot path.
//!
//! A/B's the same packed tree in its two physical forms — the pointer
//! arena built by PACK and the contiguous breadth-first SoA layout of
//! [`FrozenRTree`] — on the Table-1 point-query workload and on a
//! 1M-point mix (window, point, k-NN, juxtaposition join). Both forms
//! must return bit-identical results with identical traversal counters:
//! the frozen layout is a memory-layout change, not an algorithm change,
//! so any divergence here is a bug, not noise.
//!
//! The tables go to stdout. The acceptance bar is a ≥25% ns/op reduction
//! on the 1M-point window-query scratch path relative to the pointer
//! tree measured in the same run. The figures `bench_guard` holds — its
//! one reader — are written to `BENCH_layout.json` in the working
//! directory (the repo root, to refresh the committed baseline).
//!
//! Run with: `cargo run --release -p rtree-bench --bin layout_bench`

use packed_rtree_core::PackStrategy;
use psql::join::{rtree_join, JoinStats};
use rtree_bench::report::{f, Table};
use rtree_bench::{
    best_of_three_ns as ns_per_op, build_pack, experiment_seed, page_path, row_pipeline,
    window_paths, SeededWorkload, WindowPaths, PAGE_PATH_FRAMES,
};
use rtree_index::{FrozenRTree, ItemId, RTreeConfig, SearchScratch, SearchStats};
use rtree_workload::{points, queries, PAPER_UNIVERSE};

use psql::SpatialOp;
use rtree_geom::Rect;

fn main() {
    let seed = experiment_seed();
    println!("EXT-10 — frozen SoA arena vs pointer tree (seed {seed}); M=4\n");

    table1_ab(seed);
    million_point_ab(seed);
}

/// The paper's Table-1 shape: J=900 uniform points, 1000 random
/// point-containment queries.
fn table1_ab(seed: u64) {
    let workload = SeededWorkload::new(seed);
    let items = workload.uniform_items(900);
    let tree = build_pack(&items, PackStrategy::NearestNeighbor, RTreeConfig::PAPER);
    let frozen = FrozenRTree::freeze(&tree);
    let probes = workload.point_queries(1000);

    let mut scratch = SearchScratch::new();
    let pointer_ns = ns_per_op(probes.len(), || {
        for &p in &probes {
            std::hint::black_box(tree.point_query_into(p, &mut scratch));
        }
    });
    let frozen_ns = ns_per_op(probes.len(), || {
        for &p in &probes {
            std::hint::black_box(frozen.point_query_into(p, &mut scratch));
        }
    });

    // Identity: results and counters.
    let mut ps = SearchStats::default();
    let mut fs = SearchStats::default();
    for &p in &probes {
        assert_eq!(
            tree.point_query(p, &mut ps),
            frozen.point_query(p, &mut fs),
            "table-1 point query diverged at {p:?}"
        );
    }
    assert_eq!(ps, fs, "table-1 traversal counters diverged");

    let mut t = Table::new(["table-1 (J=900, 1000 pt queries)", "ns/op", "A"]);
    t.row([
        "pointer".into(),
        f(pointer_ns, 0),
        f(ps.avg_nodes_visited(), 3),
    ]);
    t.row([
        "frozen".into(),
        f(frozen_ns, 0),
        f(fs.avg_nodes_visited(), 3),
    ]);
    println!("{}", t.render());
}

/// The 1M-point mix.
fn million_point_ab(seed: u64) {
    let n = 1_000_000usize;
    // --- window queries: the two paths `bench_guard` re-measures ------
    let WindowPaths {
        points: pts,
        tree,
        frozen,
        windows,
        query_rng: mut q_rng,
        pointer_scratch_ns_per_op: ptr_scratch_ns,
        frozen_scratch_ns_per_op: frz_scratch_ns,
    } = window_paths(n, seed);
    let items = points::as_items(&pts);
    let probes = queries::point_queries(&mut q_rng, &PAPER_UNIVERSE, 2_000);
    let knn_points = queries::point_queries(&mut q_rng, &PAPER_UNIVERSE, 500);
    let k = 10usize;

    // One pass takes the scratch buffers to their high-water marks; a
    // second must not grow them.
    let mut scratch = SearchScratch::new();
    for w in &windows {
        std::hint::black_box(frozen.search_within_into(w, &mut scratch));
    }
    let warm = scratch.capacities();
    for w in &windows {
        std::hint::black_box(frozen.search_within_into(w, &mut scratch));
    }
    assert_eq!(
        scratch.capacities(),
        warm,
        "frozen steady state reallocated"
    );

    let mut ptr_stats = SearchStats::default();
    let ptr_stats_ns = ns_per_op(windows.len(), || {
        ptr_stats = SearchStats::default();
        for w in &windows {
            std::hint::black_box(tree.search_within(w, &mut ptr_stats));
        }
    });
    let mut frz_stats = SearchStats::default();
    let frz_stats_ns = ns_per_op(windows.len(), || {
        frz_stats = SearchStats::default();
        for w in &windows {
            std::hint::black_box(frozen.search_within(w, &mut frz_stats));
        }
    });
    assert_eq!(ptr_stats, frz_stats, "window-query counters diverged");
    for w in &windows {
        let mut s1 = SearchStats::default();
        let mut s2 = SearchStats::default();
        assert_eq!(
            tree.search_within(w, &mut s1),
            frozen.search_within(w, &mut s2),
            "window result sets diverged at {w:?}"
        );
    }

    // --- point queries ----------------------------------------------
    let ptr_point_ns = ns_per_op(probes.len(), || {
        for &p in &probes {
            std::hint::black_box(tree.point_query_into(p, &mut scratch));
        }
    });
    let frz_point_ns = ns_per_op(probes.len(), || {
        for &p in &probes {
            std::hint::black_box(frozen.point_query_into(p, &mut scratch));
        }
    });
    for &p in &probes {
        assert_eq!(
            tree.point_query_into(p, &mut scratch).to_vec(),
            frozen.point_query_into(p, &mut scratch),
            "point query diverged at {p:?}"
        );
    }

    // --- k-NN --------------------------------------------------------
    let ptr_knn_ns = ns_per_op(knn_points.len(), || {
        for &p in &knn_points {
            std::hint::black_box(tree.nearest_neighbors_into(p, k, scratch.knn()));
        }
    });
    let frz_knn_ns = ns_per_op(knn_points.len(), || {
        for &p in &knn_points {
            std::hint::black_box(frozen.nearest_neighbors_into(p, k, scratch.knn()));
        }
    });
    for &p in &knn_points {
        assert_eq!(
            tree.nearest_neighbors_into(p, k, scratch.knn()).to_vec(),
            frozen.nearest_neighbors_into(p, k, scratch.knn()),
            "k-NN diverged at {p:?}"
        );
    }

    // --- juxtaposition join -----------------------------------------
    let join_n = 100_000usize;
    let a_items: Vec<(Rect, ItemId)> = items.iter().copied().take(2 * join_n).step_by(2).collect();
    let b_items: Vec<(Rect, ItemId)> = items
        .iter()
        .copied()
        .take(2 * join_n)
        .skip(1)
        .step_by(2)
        .collect();
    let tree_a = build_pack(&a_items, PackStrategy::NearestNeighbor, RTreeConfig::PAPER);
    let tree_b = build_pack(&b_items, PackStrategy::NearestNeighbor, RTreeConfig::PAPER);
    let frozen_a = FrozenRTree::freeze(&tree_a);
    let frozen_b = FrozenRTree::freeze(&tree_b);
    let mut ptr_js = JoinStats::default();
    let ptr_join_ms = ns_per_op(1, || {
        ptr_js = JoinStats::default();
        std::hint::black_box(rtree_join(
            &tree_a,
            &tree_b,
            SpatialOp::Overlapping,
            &mut ptr_js,
        ))
    }) / 1e6;
    let mut frz_js = JoinStats::default();
    let frz_join_ms = ns_per_op(1, || {
        frz_js = JoinStats::default();
        std::hint::black_box(rtree_join(
            &frozen_a,
            &frozen_b,
            SpatialOp::Overlapping,
            &mut frz_js,
        ))
    }) / 1e6;
    assert_eq!(ptr_js, frz_js, "join counters diverged");
    {
        let mut s1 = JoinStats::default();
        let mut s2 = JoinStats::default();
        assert_eq!(
            rtree_join(&tree_a, &tree_b, SpatialOp::Overlapping, &mut s1),
            rtree_join(&frozen_a, &frozen_b, SpatialOp::Overlapping, &mut s2),
            "join pair lists diverged"
        );
    }

    // --- the layer downstream of the tree ---------------------------
    // What the executor adds per answered row on the served shape;
    // `bench_guard` holds the same measurement against this entry.
    let rows = row_pipeline(&pts, seed ^ 0x5851f42d4c957f2d);

    // --- the layer under the disk tree ------------------------------
    // What a page costs in software, device aside; `bench_guard` holds
    // these too, plus a frames-independence check measured in its run.
    let pages = page_path(&pts, seed ^ 0x5851f42d4c957f2d);

    // --- report ------------------------------------------------------
    let reduction = 100.0 * (ptr_scratch_ns - frz_scratch_ns) / ptr_scratch_ns;
    let mut t = Table::new(["1M-point path", "pointer ns/op", "frozen ns/op", "delta"]);
    let delta = |p: f64, q: f64| format!("{:+.1}%", 100.0 * (q - p) / p);
    for (path, pointer, frozen, decimals) in [
        (
            "window (scratch)".to_string(),
            ptr_scratch_ns,
            frz_scratch_ns,
            0,
        ),
        ("window (stats)".into(), ptr_stats_ns, frz_stats_ns, 0),
        ("point".into(), ptr_point_ns, frz_point_ns, 0),
        (format!("k-NN (k={k})"), ptr_knn_ns, frz_knn_ns, 0),
        ("join (100k x 100k, ms)".into(), ptr_join_ms, frz_join_ms, 1),
    ] {
        t.row([
            path,
            f(pointer, decimals),
            f(frozen, decimals),
            delta(pointer, frozen),
        ]);
    }
    println!("{}", t.render());
    println!(
        "window scratch path: {reduction:.1}% reduction (acceptance >= 25%); \
         avg nodes visited {:.3} on both layouts",
        frz_stats.avg_nodes_visited()
    );
    println!();

    println!(
        "row pipeline: {:.0} ns per answered row ({:.1} rows per query, {} covered-by \
         windows through execute_plan_with_scratch, search included)\n",
        rows.execute_ns_per_row, rows.rows_per_query, rows.queries
    );
    println!(
        "page path: crc {:.0} ns/page; pool miss {:.0} ns/page at {PAGE_PATH_FRAMES} frames \
         ({:.0} at 64, {:.0} at 4096); disk search {:.0} ns/node ({:.1} nodes per window, \
         hit ratio {:.3}, {} points)\n",
        pages.crc_ns_per_page,
        pages.pool_miss_ns_per_page,
        pages.pool_miss_ns_at_64_frames,
        pages.pool_miss_ns_at_4096_frames,
        pages.disk_search_ns_per_node,
        pages.nodes_per_query,
        pages.pool_hit_ratio,
        pages.points
    );

    let json = format!(
        "{{\n  \"experiment\": \"frozen_layout_ab\",\n  \"seed\": {seed},\n  \"n\": {n},\n  \
         \"branching\": 4,\n  \"hardware_threads\": {hw},\n  \
         \"window_query\": {{\"queries\": {wn}, \"selectivity\": 0.0001, \
         \"pointer_scratch_ns_per_op\": {ptr_scratch_ns:.0}, \
         \"frozen_scratch_ns_per_op\": {frz_scratch_ns:.0}}},\n  \
         \"row_pipeline\": {{\"queries\": {rq}, \"rows_per_query\": {rpq:.1}, \
         \"execute_ns_per_row\": {row_ns:.0}}},\n  \
         \"page_path\": {{\"points\": {pp_n}, \"pool_frames\": {PAGE_PATH_FRAMES}, \
         \"crc_ns_per_page\": {pp_crc:.0}, \"pool_miss_ns_per_page\": {pp_miss:.0}, \
         \"disk_search_ns_per_node\": {pp_node:.0}}}\n}}\n",
        hw = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        wn = windows.len(),
        rq = rows.queries,
        rpq = rows.rows_per_query,
        row_ns = rows.execute_ns_per_row,
        pp_n = pages.points,
        pp_crc = pages.crc_ns_per_page,
        pp_miss = pages.pool_miss_ns_per_page,
        pp_node = pages.disk_search_ns_per_node,
    );
    match std::fs::write("BENCH_layout.json", &json) {
        Ok(()) => println!("wrote BENCH_layout.json"),
        Err(e) => println!("could not write BENCH_layout.json: {e}"),
    }
}
