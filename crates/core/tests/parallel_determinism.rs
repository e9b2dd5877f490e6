//! Determinism guarantees of the parallel PACK pipeline.
//!
//! The contract is strict: `pack_parallel_with(items, cfg, strategy, t)`
//! must be **byte-identical** to the sequential `pack_with` for every
//! thread count, every strategy, and every n — including sizes that are
//! not multiples of `M` and sizes large enough that the parallel path
//! actually engages (the engine falls back to one thread below its
//! internal cutoff).

use packed_rtree_core::grouping::{self, PackStrategy, SlabPlan};
use packed_rtree_core::{pack, pack_naive, pack_parallel_with, pack_with};
use proptest::prelude::*;
use rtree_geom::{Point, Rect};
use rtree_index::{ItemId, RTreeConfig};

fn points(n: u64, seed: u64) -> Vec<(Rect, ItemId)> {
    let mut s = seed;
    (0..n)
        .map(|i| {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let x = ((s >> 33) % 1_000_000) as f64 / 1000.0;
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let y = ((s >> 33) % 1_000_000) as f64 / 1000.0;
            (Rect::from_point(Point::new(x, y)), ItemId(i))
        })
        .collect()
}

/// The headline guarantee: parallel output equals sequential output as a
/// value (`RTree: PartialEq` covers the arena, root, config and length —
/// i.e. the exact node layout), at thread counts above, at, and below the
/// slab count, with n chosen indivisible by M.
#[test]
fn parallel_equals_sequential_all_strategies_and_threads() {
    // 10_007 is prime: not divisible by M=4, bigger than the parallel
    // cutoff, and leaves a partial group on every level.
    let items = points(10_007, 42);
    for strategy in PackStrategy::ALL {
        let seq = pack_with(items.clone(), RTreeConfig::PAPER, strategy);
        seq.validate_with(false).unwrap();
        for threads in [1, 2, 4, 8] {
            let par = pack_parallel_with(items.clone(), RTreeConfig::PAPER, strategy, threads);
            assert_eq!(
                par, seq,
                "{strategy:?} at {threads} threads diverged from sequential"
            );
        }
    }
}

/// Same guarantee at a larger branching factor (fewer, fatter slabs) and
/// a small-n case that exercises the single-slab fast path.
#[test]
fn parallel_equals_sequential_other_configs() {
    for (n, m) in [(4_099u64, 64usize), (257, 4), (5_000, 16)] {
        let items = points(n, n);
        let config = RTreeConfig::with_branching(m);
        for strategy in PackStrategy::ALL {
            let seq = pack_with(items.clone(), config, strategy);
            for threads in [2, 8] {
                let par = pack_parallel_with(items.clone(), config, strategy, threads);
                assert_eq!(par, seq, "{strategy:?} n={n} M={m} t={threads}");
            }
        }
    }
}

/// Thread count does not leak into the plan: two parallel runs at
/// different thread counts agree with each other on a size straddling
/// several slabs.
#[test]
fn thread_count_is_invisible() {
    let items = points(20_011, 7);
    for strategy in [
        PackStrategy::XSort,
        PackStrategy::Hilbert,
        PackStrategy::SortTileRecursive,
    ] {
        let a = pack_parallel_with(items.clone(), RTreeConfig::PAPER, strategy, 3);
        let b = pack_parallel_with(items.clone(), RTreeConfig::PAPER, strategy, 7);
        assert_eq!(a, b, "{strategy:?}");
    }
}

fn arb_strategy() -> impl Strategy<Value = PackStrategy> {
    prop::sample::select(PackStrategy::ALL.to_vec())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Slab-boundary grouping preserves the partition invariant: the
    /// groups cover every input index exactly once, never exceed `m`,
    /// and the group count matches the plan's prediction — the property
    /// the parallel id pre-assignment rests on.
    #[test]
    fn slab_grouping_partitions(
        n in 1usize..600,
        m in 2usize..12,
        seed in 0u64..1_000,
    ) {
        let rects: Vec<Rect> = points(n as u64, seed).into_iter().map(|(r, _)| r).collect();
        for strategy in PackStrategy::ALL {
            let groups = grouping::group(strategy, &rects, m);
            let plan = SlabPlan::new(strategy, n, m);
            prop_assert_eq!(groups.len(), plan.total_groups(), "{:?}", strategy);
            prop_assert_eq!(groups.len(), n.div_ceil(m), "{:?}", strategy);
            let mut seen = vec![false; n];
            for g in &groups {
                prop_assert!(!g.is_empty() && g.len() <= m, "{:?}: group of {}", strategy, g.len());
                for &i in g {
                    prop_assert!(!seen[i], "{:?}: duplicate index {}", strategy, i);
                    seen[i] = true;
                }
            }
            prop_assert!(seen.iter().all(|&s| s), "{:?}: index dropped", strategy);
        }
    }

    /// The slab plan itself tiles `0..n`: ranges are contiguous,
    /// disjoint, exhaustive, and every slab but the last is a multiple
    /// of `m` long (the alignment that makes group ids predictable).
    #[test]
    fn slab_plan_tiles_input(
        n in 1usize..100_000,
        m in 2usize..65,
        strategy in arb_strategy(),
    ) {
        let plan = SlabPlan::new(strategy, n, m);
        let mut next = 0usize;
        let mut groups = 0usize;
        for k in 0..plan.slab_count() {
            let range = plan.slab_range(k);
            prop_assert_eq!(range.start, next);
            prop_assert!(!range.is_empty());
            if k + 1 < plan.slab_count() {
                prop_assert_eq!(range.len() % m, 0, "non-terminal slab misaligned");
            }
            prop_assert_eq!(plan.group_offset(k), groups);
            groups += plan.groups_in_slab(k);
            next = range.end;
        }
        prop_assert_eq!(next, n);
        prop_assert_eq!(groups, plan.total_groups());
        prop_assert_eq!(groups, n.div_ceil(m));
    }

    /// End-to-end determinism on arbitrary (duplicated, collinear,
    /// degenerate) point sets: parallel equals sequential.
    #[test]
    fn parallel_matches_sequential_on_arbitrary_inputs(
        coords in prop::collection::vec((0.0..100.0f64, 0.0..100.0f64), 0..300),
        strategy in arb_strategy(),
    ) {
        let items: Vec<(Rect, ItemId)> = coords
            .iter()
            .enumerate()
            .map(|(i, &(x, y))| (Rect::from_point(Point::new(x, y)), ItemId(i as u64)))
            .collect();
        let seq = pack_with(items.clone(), RTreeConfig::PAPER, strategy);
        let par = pack_parallel_with(items, RTreeConfig::PAPER, strategy, 4);
        prop_assert_eq!(par, seq);
    }

    /// The nearest-neighbour sweep breaks distance ties exactly as the
    /// literal scan does (lowest slab position), so `pack` equals
    /// `pack_naive` on inputs made of ties: points on a coarse grid
    /// (duplicates and collinear runs), optionally all on one horizontal
    /// or one vertical line.
    #[test]
    fn pack_equals_pack_naive_on_duplicated_and_collinear_inputs(
        coords in prop::collection::vec((0u8..12, 0u8..12), 1..400),
        line in 0u8..3,
    ) {
        let items: Vec<(Rect, ItemId)> = coords
            .iter()
            .enumerate()
            .map(|(i, &(x, y))| {
                let (x, y) = match line {
                    1 => (x, 5),
                    2 => (5, y),
                    _ => (x, y),
                };
                let p = Point::new(f64::from(x), f64::from(y));
                (Rect::from_point(p), ItemId(i as u64))
            })
            .collect();
        let naive = pack_naive(items.clone(), RTreeConfig::PAPER);
        prop_assert!(pack(items, RTreeConfig::PAPER) == naive);
    }
}
