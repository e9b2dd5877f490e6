//! **EXT-10**: pointer tree vs frozen arena on the query hot path.
//!
//! A/B's the same packed tree in its two physical forms — the pointer
//! arena built by PACK and the contiguous breadth-first SoA layout of
//! [`FrozenRTree`] — on the Table-1 point-query workload and on the
//! 1M-point mix (window, point, k-NN, juxtaposition join) that
//! `pack_scaling` uses for its baseline. Both forms must return
//! bit-identical results with identical traversal counters: the frozen
//! layout is a memory-layout change, not an algorithm change, so any
//! divergence here is a bug, not noise.
//!
//! Results are written to `BENCH_layout.json` at the repo root. The
//! acceptance bar is a ≥25% ns/op reduction on the 1M-point
//! window-query scratch path relative to the pointer tree measured in
//! the same run. `bench_guard` reads its baselines from this file.
//!
//! Run with: `cargo run --release -p rtree-bench --bin layout_bench`

use packed_rtree_core::{default_threads, pack_parallel_with, PackStrategy};
use psql::join::{rtree_join, JoinStats};
use rtree_bench::report::{f, Table};
use rtree_bench::{
    best_of_three_ns as ns_per_op, build_pack, experiment_seed, page_path, row_pipeline,
    PAGE_PATH_FRAMES,
};
use rtree_index::{BatchScratch, FrozenRTree, ItemId, RTreeConfig, SearchScratch, SearchStats};
use rtree_workload::{points, queries, rng, PAPER_UNIVERSE};

use psql::SpatialOp;
use rtree_geom::Rect;

fn main() {
    let seed = experiment_seed();
    println!("EXT-10 — frozen SoA arena vs pointer tree (seed {seed}); M=4\n");

    let table1 = table1_ab(seed);
    million_point_ab(seed, table1);
}

/// The paper's Table-1 shape: J=900 uniform points, 1000 random
/// point-containment queries. Returns `(pointer ns/op, frozen ns/op,
/// avg nodes visited)` for the JSON report.
fn table1_ab(seed: u64) -> (f64, f64, f64) {
    let j = 900usize;
    let mut data_rng = rng(seed);
    let pts = points::uniform(&mut data_rng, &PAPER_UNIVERSE, j);
    let items = points::as_items(&pts);
    let tree = build_pack(&items, PackStrategy::NearestNeighbor, RTreeConfig::PAPER);
    let frozen = FrozenRTree::freeze(&tree);

    let mut q_rng = rng(seed ^ rtree_bench::QUERY_SEED_SALT);
    let probes = queries::point_queries(&mut q_rng, &PAPER_UNIVERSE, 1000);

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
    (pointer_ns, frozen_ns, ps.avg_nodes_visited())
}

/// The 1M-point mix, RNG-compatible with `pack_scaling`'s baseline.
fn million_point_ab(seed: u64, table1: (f64, f64, f64)) {
    let n = 1_000_000usize;
    let mut data_rng = rng(seed ^ 0x9e3779b97f4a7c15);
    let pts = points::uniform(&mut data_rng, &PAPER_UNIVERSE, n);
    let items = points::as_items(&pts);
    let tree = pack_parallel_with(
        items.clone(),
        RTreeConfig::PAPER,
        PackStrategy::NearestNeighbor,
        default_threads(),
    );
    let frozen = FrozenRTree::freeze(&tree);

    let mut q_rng = rng(seed ^ 0x5851f42d4c957f2d);
    let windows = queries::window_queries(&mut q_rng, &PAPER_UNIVERSE, 2_000, 0.0001);
    let probes = queries::point_queries(&mut q_rng, &PAPER_UNIVERSE, 2_000);
    let knn_points = queries::point_queries(&mut q_rng, &PAPER_UNIVERSE, 500);
    let k = 10usize;

    // --- window queries ---------------------------------------------
    let mut scratch = SearchScratch::new();
    let ptr_scratch_ns = ns_per_op(windows.len(), || {
        for w in &windows {
            std::hint::black_box(tree.search_within_into(w, &mut scratch));
        }
    });
    let frz_scratch_ns = ns_per_op(windows.len(), || {
        for w in &windows {
            std::hint::black_box(frozen.search_within_into(w, &mut scratch));
        }
    });
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

    // --- batched windows sweep --------------------------------------
    // The same 2000-window workload pushed through the batch API in
    // packs of 1/8/64/512: Z-order grouping + the shared wavefront
    // traversal fetch each node once per pack and keep the frontier a
    // prefetch lookahead ahead of the pruning point, so bigger packs
    // amortize more of the memory-latency bill.
    let mut batch = BatchScratch::new();
    let mut batched_ns = Vec::new();
    for &bs in &[1usize, 8, 64, 512] {
        let ns = ns_per_op(windows.len(), || {
            for chunk in windows.chunks(bs) {
                std::hint::black_box(frozen.batch_windows(chunk, true, &mut batch));
            }
        });
        batched_ns.push((bs, ns));
    }
    // Identity: every batched slice equals the one-at-a-time answer.
    for chunk in windows.chunks(64) {
        let batched = frozen.batch_windows(chunk, true, &mut batch);
        for (i, w) in chunk.iter().enumerate() {
            assert_eq!(
                batched.get(i),
                frozen.search_within_into(w, &mut scratch),
                "batched window diverged at {w:?}"
            );
        }
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
    t.row([
        "window (scratch)".into(),
        f(ptr_scratch_ns, 0),
        f(frz_scratch_ns, 0),
        delta(ptr_scratch_ns, frz_scratch_ns),
    ]);
    t.row([
        "window (stats)".into(),
        f(ptr_stats_ns, 0),
        f(frz_stats_ns, 0),
        delta(ptr_stats_ns, frz_stats_ns),
    ]);
    t.row([
        "point".into(),
        f(ptr_point_ns, 0),
        f(frz_point_ns, 0),
        delta(ptr_point_ns, frz_point_ns),
    ]);
    t.row([
        format!("k-NN (k={k})"),
        f(ptr_knn_ns, 0),
        f(frz_knn_ns, 0),
        delta(ptr_knn_ns, frz_knn_ns),
    ]);
    t.row([
        "join (100k x 100k, ms)".into(),
        f(ptr_join_ms, 1),
        f(frz_join_ms, 1),
        delta(ptr_join_ms, frz_join_ms),
    ]);
    println!("{}", t.render());
    println!(
        "window scratch path: {reduction:.1}% reduction (acceptance >= 25%); \
         avg nodes visited {:.3} on both layouts",
        frz_stats.avg_nodes_visited()
    );
    println!();

    let mut bt = Table::new(["batched windows", "ns/op", "vs single frozen"]);
    for &(bs, ns) in &batched_ns {
        bt.row([
            format!("batch={bs}"),
            f(ns, 0),
            format!("{:.2}x", frz_scratch_ns / ns),
        ]);
    }
    println!("{}", bt.render());
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

    let (t1_ptr, t1_frz, t1_a) = table1;
    let json = format!(
        "{{\n  \"experiment\": \"frozen_layout_ab\",\n  \"seed\": {seed},\n  \"n\": {n},\n  \
         \"branching\": 4,\n  \"hardware_threads\": {hw},\n  \
         \"table1\": {{\n    \"j\": 900,\n    \"point_queries\": 1000,\n    \
         \"pointer_ns_per_op\": {t1_ptr:.0},\n    \"frozen_ns_per_op\": {t1_frz:.0},\n    \
         \"avg_nodes_visited\": {t1_a:.3}\n  }},\n  \
         \"window_query\": {{\n    \"queries\": {wn},\n    \"selectivity\": 0.0001,\n    \
         \"pointer_scratch_ns_per_op\": {ptr_scratch_ns:.0},\n    \
         \"frozen_scratch_ns_per_op\": {frz_scratch_ns:.0},\n    \
         \"pointer_stats_ns_per_op\": {ptr_stats_ns:.0},\n    \
         \"frozen_stats_ns_per_op\": {frz_stats_ns:.0},\n    \
         \"avg_nodes_visited\": {anv:.3},\n    \
         \"scratch_reduction_percent\": {reduction:.1}\n  }},\n  \
         \"point_query\": {{\"queries\": {pn}, \"pointer_ns_per_op\": {ptr_point_ns:.0}, \
         \"frozen_ns_per_op\": {frz_point_ns:.0}}},\n  \
         \"knn\": {{\"queries\": {kn}, \"k\": {k}, \"pointer_ns_per_op\": {ptr_knn_ns:.0}, \
         \"frozen_ns_per_op\": {frz_knn_ns:.0}}},\n  \
         \"batched_window\": {{\"queries\": {wn}, \
         \"batch_1_ns_per_op\": {b1:.0}, \"batch_8_ns_per_op\": {b8:.0}, \
         \"batch_64_ns_per_op\": {b64:.0}, \"batch_512_ns_per_op\": {b512:.0}, \
         \"speedup_vs_single_at_64\": {sp64:.2}, \
         \"speedup_vs_single_at_512\": {sp512:.2}}},\n  \
         \"join\": {{\"n_per_side\": {join_n}, \"op\": \"overlapping\", \
         \"pointer_ms\": {ptr_join_ms:.1}, \"frozen_ms\": {frz_join_ms:.1}, \
         \"node_pairs_visited\": {npv}}},\n  \
         \"row_pipeline\": {{\"n\": {n}, \"queries\": {rq}, \"rows_per_query\": {rpq:.1}, \
         \"execute_ns_per_row\": {row_ns:.0}, \"hardware_threads\": {hw}}},\n  \
         \"page_path\": {{\"points\": {pp_n}, \"pool_frames\": {PAGE_PATH_FRAMES}, \
         \"crc_ns_per_page\": {pp_crc:.0}, \"pool_miss_ns_per_page\": {pp_miss:.0}, \
         \"pool_miss_ns_at_64_frames\": {pp_miss64:.0}, \
         \"pool_miss_ns_at_4096_frames\": {pp_miss4096:.0}, \
         \"disk_search_ns_per_node\": {pp_node:.0}, \"nodes_per_query\": {pp_nodes:.1}, \
         \"pool_hit_ratio\": {pp_hit:.3}, \"hardware_threads\": {hw}}}\n}}\n",
        pp_n = pages.points,
        pp_crc = pages.crc_ns_per_page,
        pp_miss = pages.pool_miss_ns_per_page,
        pp_miss64 = pages.pool_miss_ns_at_64_frames,
        pp_miss4096 = pages.pool_miss_ns_at_4096_frames,
        pp_node = pages.disk_search_ns_per_node,
        pp_nodes = pages.nodes_per_query,
        pp_hit = pages.pool_hit_ratio,
        hw = default_threads(),
        rq = rows.queries,
        rpq = rows.rows_per_query,
        row_ns = rows.execute_ns_per_row,
        wn = windows.len(),
        anv = frz_stats.avg_nodes_visited(),
        pn = probes.len(),
        kn = knn_points.len(),
        b1 = batched_ns[0].1,
        b8 = batched_ns[1].1,
        b64 = batched_ns[2].1,
        b512 = batched_ns[3].1,
        sp64 = frz_scratch_ns / batched_ns[2].1,
        sp512 = frz_scratch_ns / batched_ns[3].1,
        npv = frz_js.node_pairs_visited,
    );
    match std::fs::write("BENCH_layout.json", &json) {
        Ok(()) => println!("wrote BENCH_layout.json"),
        Err(e) => println!("could not write BENCH_layout.json: {e}"),
    }
}
