//! **EXT-13 / EXT-15**: out-of-core external PACK scaling — wall time,
//! spill traffic and merge shape of the external packer across dataset
//! sizes and memory budgets, with the in-memory packer as the baseline.
//!
//! The external packer must produce the *same tree* the in-memory packer
//! does (that is its contract, checked by the differential suite); this
//! sweep measures what the streaming spill/merge pipeline costs to get
//! there when the run buffer is squeezed. Per configuration it reports:
//!
//! * build wall time, external vs in-memory;
//! * the merge and emit phases' wall time, which show where each budget
//!   pays (the full produce / sort / spill / merge / emit split at 1M is
//!   `sysbench`'s `extpack.*_ms` rows on `bulk_load`);
//! * spill bytes written and the initial/merged run counts (the merge
//!   fan-in shows how many passes the budget forced);
//! * peak accounted memory against the budget (the accounting hook);
//! * quality of the result: coverage `C`, overlap `O` (computed on the
//!   in-memory twin — identical by construction) and the Table 1 `A`
//!   (avg nodes visited per point query) measured on *both* trees, which
//!   must agree exactly.
//!
//! The run fails (a panic, exit code 101) if any row's peak exceeds its
//! budget, if `A` differs between the two trees, or if a 64 MiB row costs
//! more than 1.5× its 4 MiB sibling — CI reads the exit code.
//!
//! Default sweep is 200k and 1M items at three budgets. Set
//! `EXTPACK_BENCH_LARGE=1` to add a 10M-item run (several minutes).
//!
//! Run with: `cargo run --release -p rtree-bench --bin extpack_scaling`

use rtree_bench::report::{f, Table};
use rtree_bench::SeededWorkload;
use rtree_extpack::{pack_external, ExtPackConfig};
use rtree_index::{RTreeConfig, SearchStats, TreeMetrics};
use rtree_storage::{BufferPool, Pager};
use std::time::Instant;

fn main() {
    let workload = SeededWorkload::from_env();
    println!(
        "EXT-13 — out-of-core external PACK scaling, M=4 (seed {})\n",
        workload.seed
    );

    let mut sizes = vec![200_000usize, 1_000_000];
    if std::env::var("EXTPACK_BENCH_LARGE").is_ok_and(|v| v == "1") {
        sizes.push(10_000_000);
    }
    // 256KiB caps the merge fan-in hard enough to force intermediate
    // merge passes; the larger budgets stream every run in one pass.
    let budgets: &[(u64, &str)] = &[
        (256 << 10, "256KiB"),
        (4 << 20, "4MiB"),
        (64 << 20, "64MiB"),
    ];

    let mut table = Table::new([
        "n",
        "budget",
        "ext ms",
        "inmem ms",
        "spill MiB",
        "runs",
        "fan-in",
        "merges",
        "merge ms",
        "emit ms",
        "peak MiB",
        "A ext",
        "A mem",
    ]);
    // (n, budget, ext ms) of every row, for the check below.
    let mut timings = Vec::new();

    for &n in &sizes {
        let items = workload.uniform_items(n);
        let query_points = workload.point_queries(1000);

        // In-memory baseline, built once per size: wall time plus the
        // quality metrics the external tree must reproduce exactly.
        let start = Instant::now();
        let mem_tree = rtree_bench::build_pack(
            &items,
            packed_rtree_core::PackStrategy::NearestNeighbor,
            RTreeConfig::PAPER,
        );
        let inmem_ms = start.elapsed().as_secs_f64() * 1000.0;
        let TreeMetrics {
            coverage, overlap, ..
        } = TreeMetrics::measure(&mem_tree);
        let mut mem_stats = SearchStats::default();
        for &q in &query_points {
            mem_tree.point_query(q, &mut mem_stats);
        }
        let a_mem = mem_stats.avg_nodes_visited();
        println!("n = {n}: C = {coverage:.1}, O = {overlap:.1} (in-memory twin)");

        for &(budget, label) in budgets {
            // The 10M run is a capstone, not a sweep: one mid budget.
            if n >= 10_000_000 && budget != 4 << 20 {
                continue;
            }
            let dest = Pager::temp().expect("dest pager");
            let cfg = ExtPackConfig::new(budget);
            let start = Instant::now();
            let (disk, stats) =
                pack_external(items.iter().copied(), &cfg, &dest).expect("external pack");
            let ext_ms = start.elapsed().as_secs_f64() * 1000.0;
            assert_eq!(disk.len(), n);
            assert!(
                stats.peak_budget_bytes <= budget,
                "peak {} exceeded budget {budget}",
                stats.peak_budget_bytes
            );

            // `A` on the disk image: identical traversal counts prove
            // the external tree is the same tree, from cold pages.
            let pool = BufferPool::new(&dest, 4096);
            let mut disk_stats = SearchStats::default();
            for &q in &query_points {
                disk.point_query(&pool, q, &mut disk_stats)
                    .expect("disk point query");
            }
            let a_ext = disk_stats.avg_nodes_visited();
            assert_eq!(
                a_ext.to_bits(),
                a_mem.to_bits(),
                "external tree diverged at n={n} budget={label}"
            );

            table.row([
                n.to_string(),
                label.to_string(),
                f(ext_ms, 1),
                f(inmem_ms, 1),
                f(stats.spill_bytes as f64 / (1 << 20) as f64, 1),
                format!("{}", stats.initial_runs),
                format!("{}", stats.max_fan_in),
                format!("{}", stats.intermediate_merges),
                f(stats.merge_us as f64 / 1000.0, 0),
                f(stats.emit_us as f64 / 1000.0, 0),
                f(stats.peak_budget_bytes as f64 / (1 << 20) as f64, 2),
                f(a_ext, 2),
                f(a_mem, 2),
            ]);
            timings.push((n, budget, ext_ms));
        }
    }
    println!("{}", table.render());
    println!("A ext == A mem on every row: the budget changes how the tree is built,");
    println!("never what is built. Tighter budgets trade spill traffic + merge passes");
    println!("for bounded resident memory.\n");

    // The run-buffer cap keeps big budgets monotone-or-flat (the old
    // quadratic in-run ordering made them *slower*): at every n the
    // 64 MiB row may cost at most 1.5x the 4 MiB row.
    for &(n, budget, ms) in &timings {
        if budget != 64 << 20 {
            continue;
        }
        let &(.., small) = timings
            .iter()
            .find(|t| (t.0, t.1) == (n, 4 << 20))
            .expect("every swept size runs the 4 MiB budget");
        assert!(
            ms <= 1.5 * small,
            "64MiB budget regressed vs 4MiB at n={n}: {ms:.1} ms vs {small:.1} ms"
        );
    }
    println!("64MiB rows monotone-or-flat vs 4MiB");
}
