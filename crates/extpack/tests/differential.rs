//! Differential suite: the external packer must be **bit-identical** to
//! the in-memory packer — same logical tree (canonical [`TreeImage`]),
//! same query answers — at every memory budget, including degenerate
//! budgets that force one-record runs, while keeping peak accounted
//! memory within the budget (above the documented ~12.5 KiB floor of
//! two merge heads plus a reduce output head).

use packed_rtree_core::{effective_threads, pack_with, PackStrategy};
use rtree_extpack::{pack_external, ExtPackConfig, MERGE_HEAD_BYTES};
use rtree_geom::Rect;
use rtree_index::{ItemId, RTreeConfig, SearchStats};
use rtree_oracle::{validate_deep, DeepChecks, TreeImage};
use rtree_storage::{BufferPool, DiskRTree, Pager};

/// Smallest peak the packer can achieve regardless of budget: two merge
/// heads + a reduce pass's output head + one buffered record.
const FLOOR_BYTES: u64 = 3 * MERGE_HEAD_BYTES + 96;

/// Deterministic workload with uniform scatter, a dense cluster, and
/// deliberate duplicate centers (every 13th item reuses an earlier
/// rect), so the seq tiebreaker actually decides order.
fn workload(n: u64) -> Vec<(Rect, ItemId)> {
    let mut state = 0x9E3779B97F4A7C15u64;
    let mut items: Vec<(Rect, ItemId)> = Vec::with_capacity(n as usize);
    for i in 0..n {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let rect = if i % 13 == 12 {
            // Duplicate an earlier rect verbatim: identical sort center.
            items[(state % i) as usize].0
        } else if i % 5 == 0 {
            // Dense cluster near the origin.
            let x = (state >> 40) as f64 / 65536.0;
            let y = ((state >> 16) & 0xFFFFFF) as f64 / 65536.0;
            Rect::new(x, y, x + 0.5, y + 0.5)
        } else {
            let x = (state >> 40) as f64 / 16.0;
            let y = ((state >> 16) & 0xFFFFFF) as f64 / 16.0;
            Rect::new(x, y, x + 2.0, y + 2.0)
        };
        items.push((rect, ItemId(i)));
    }
    items
}

fn query_windows() -> Vec<Rect> {
    vec![
        Rect::new(0.0, 0.0, 200.0, 200.0),
        Rect::new(100.0, 100.0, 101.0, 101.0),
        Rect::new(0.0, 0.0, 1.0e6, 1.0e6),
        Rect::new(500.0, 10.0, 900.0, 800000.0),
        Rect::new(-5.0, -5.0, -1.0, -1.0),
    ]
}

/// Packs `items` both ways and asserts logical bit-identity, deep
/// validity, query equality, and the budget bound.
fn assert_identical(items: &[(Rect, ItemId)], strategy: PackStrategy, budget: u64) {
    let tree_cfg = RTreeConfig::PAPER;
    let mem = pack_with(items.to_vec(), tree_cfg, strategy);
    let mem_img = TreeImage::of_rtree(&mem).canonical();

    let dest = Pager::temp().expect("dest pager");
    let cfg = ExtPackConfig {
        strategy,
        tree: tree_cfg,
        ..ExtPackConfig::new(budget)
    };
    let (disk, stats) = pack_external(items.to_vec(), &cfg, &dest).expect("external pack");
    assert_eq!(disk.len(), items.len(), "item count");
    assert!(
        stats.peak_budget_bytes <= budget.max(FLOOR_BYTES),
        "peak {} exceeds budget {budget} (floor {FLOOR_BYTES}) [{strategy:?}]",
        stats.peak_budget_bytes,
    );

    let pool = BufferPool::new(&dest, 128);
    let disk_img =
        TreeImage::of_disk_tree(&disk, &pool, tree_cfg.max_entries, tree_cfg.min_entries)
            .expect("snapshot disk tree")
            .canonical();

    validate_deep(&disk_img, DeepChecks::packed())
        .unwrap_or_else(|e| panic!("invalid external tree [{strategy:?} b={budget}]: {e}"));
    assert_eq!(
        disk_img, mem_img,
        "external tree differs from in-memory pack [{strategy:?} b={budget}]"
    );

    // Same answers to every query (order-insensitive).
    for window in query_windows() {
        let mut s1 = SearchStats::default();
        let mut expected = mem.search_within(&window, &mut s1);
        let mut s2 = SearchStats::default();
        let mut got = disk
            .search_within(&pool, &window, &mut s2)
            .expect("disk search");
        expected.sort();
        got.sort();
        assert_eq!(got, expected, "window {window:?} [{strategy:?} b={budget}]");
    }

    // Reopening the destination file finds the same committed tree.
    let reopened = DiskRTree::open_default(&dest).expect("reopen");
    assert_eq!(reopened.root(), disk.root());
    assert_eq!(reopened.len(), disk.len());
}

#[test]
fn identical_at_10k_across_strategies_and_budgets() {
    let items = workload(10_000);
    for strategy in [
        PackStrategy::NearestNeighbor,
        PackStrategy::XSort,
        PackStrategy::SortTileRecursive,
    ] {
        for budget in [4 * 1024, 64 * 1024, 1 << 20, u64::MAX / 2] {
            assert_identical(&items, strategy, budget);
        }
    }
}

#[test]
fn identical_under_degenerate_one_record_runs() {
    // Budget 0 clamps to 1-record runs and 2-way merges: the slowest
    // possible configuration must still be bit-identical.
    let items = workload(2_000);
    for strategy in [PackStrategy::NearestNeighbor, PackStrategy::XSort] {
        assert_identical(&items, strategy, 0);
    }
}

#[test]
fn identical_at_100k() {
    let items = workload(100_000);
    assert_identical(&items, PackStrategy::NearestNeighbor, 256 * 1024);
}

#[test]
fn identical_across_thread_matrix() {
    // The *physical* destination file — every byte of every page — must
    // be identical at every run-sort thread count, for tiny, medium, and
    // huge budgets. This is stronger than logical tree equality: it pins
    // the page layout, the emission order, and the commit record.
    use rtree_storage::PageId;
    let items = workload(10_000);
    for budget in [FLOOR_BYTES, 256 * 1024, u64::MAX / 2] {
        let mut images: Vec<(usize, Vec<u8>)> = Vec::new();
        for threads in [1usize, 2, 4] {
            let dest = Pager::temp().expect("dest pager");
            let cfg = ExtPackConfig {
                memory_budget_bytes: budget,
                strategy: PackStrategy::NearestNeighbor,
                threads,
                tree: RTreeConfig::PAPER,
            };
            let (tree, stats) = pack_external(items.clone(), &cfg, &dest).expect("external pack");
            assert_eq!(tree.len(), items.len());
            assert_eq!(
                stats.threads_used as usize,
                effective_threads(threads, stats.run_capacity_records as usize),
                "the sort's workers are clamped like pack_parallel's"
            );
            assert!(
                stats.peak_budget_bytes <= budget.max(FLOOR_BYTES),
                "threads={threads} b={budget}: peak {} over budget",
                stats.peak_budget_bytes
            );
            let mut image = Vec::new();
            for p in 0..dest.page_count() {
                image.extend_from_slice(dest.read_page_raw(PageId(p)).expect("raw page").bytes());
            }
            images.push((threads, image));
        }
        for pair in images.windows(2) {
            assert_eq!(
                pair[0].1, pair[1].1,
                "budget {budget}: threads {} and {} produced different files",
                pair[0].0, pair[1].0
            );
        }
    }
}

#[test]
fn spills_and_stays_within_budget() {
    // Acceptance criterion: a dataset much larger than the budget packs
    // completely while peak accounted memory stays within the budget.
    let items = workload(50_000);
    let budget = 256 * 1024;
    let dest = Pager::temp().expect("dest pager");
    let (tree, stats) =
        pack_external(items, &ExtPackConfig::new(budget), &dest).expect("external pack");
    assert_eq!(tree.len(), 50_000);
    assert!(stats.initial_runs > 1, "dataset must not fit in one run");
    assert!(stats.spill_bytes > 0);
    assert!(
        stats.peak_budget_bytes <= budget,
        "peak {} exceeds budget {budget}",
        stats.peak_budget_bytes
    );
    // 50k records × 96 bytes ≈ 4.6 MiB of would-be resident state: the
    // budget forced it through the spill path.
    assert!(stats.spill_bytes as usize > 50_000 * 48 / 2);
}
