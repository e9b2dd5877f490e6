//! Properties of PACK's level loop on arbitrary inputs: the slab plan
//! tiles a level, slab-local grouping partitions it into the plan's
//! group count, the nearest-neighbour sweep builds the same tree as the
//! pseudocode's literal scan on inputs made of ties, and the arena PACK
//! writes directly is the one `freeze` compiles from its pointer tree.

use packed_rtree_core::grouping::{self, PackStrategy, SlabPlan};
use packed_rtree_core::{pack, pack_frozen, pack_naive, pack_with};
use proptest::prelude::*;
use rtree_geom::{Point, Rect};
use rtree_index::{FrozenRTree, ItemId, RTreeConfig};

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

fn items_at(coords: impl IntoIterator<Item = (f64, f64)>) -> Vec<(Rect, ItemId)> {
    (0u64..)
        .zip(coords)
        .map(|(i, (x, y))| (Rect::from_point(Point::new(x, y)), ItemId(i)))
        .collect()
}

/// `FrozenRTree::freeze` of the pointer tree `pack_with` builds.
fn frozen_via_pointer_tree(
    items: &[(Rect, ItemId)],
    config: RTreeConfig,
    strategy: PackStrategy,
) -> FrozenRTree {
    FrozenRTree::freeze(&pack_with(items.to_vec(), config, strategy))
}

/// The arena PACK writes directly equals the one `freeze` compiles from
/// PACK's pointer tree, bit for bit: every strategy, the paper's fan-out
/// and a page's, sizes on every level boundary (empty, one item, one
/// full node, one over, a partial node on each level, ten leaf slabs),
/// and inputs made of ties.
#[test]
fn pack_frozen_equals_freeze_of_pack_with() {
    for m in [4usize, 102] {
        let config = RTreeConfig::with_branching(m);
        let mut inputs: Vec<(String, Vec<(Rect, ItemId)>)> = [0, 1, m, m + 1, 257, 20_011]
            .into_iter()
            .map(|n| (format!("n = {n}"), points(n as u64, 1985)))
            .collect();
        inputs.push(("duplicates".into(), items_at(vec![(5.0, 5.0); 1_000])));
        let xs = points(1_000, 7)
            .into_iter()
            .map(|(r, _)| (r.min_x * 4.0).round());
        inputs.push(("one line".into(), items_at(xs.map(|x| (x, 7.0)))));
        for strategy in PackStrategy::ALL {
            for (name, items) in &inputs {
                let direct = pack_frozen(items.clone(), config, strategy);
                assert!(
                    direct == frozen_via_pointer_tree(items, config, strategy),
                    "{strategy:?}, M = {m}, {name}: the arenas differ"
                );
            }
        }
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
    /// the node count a level declares before it is grouped rests on.
    #[test]
    fn slab_grouping_partitions(
        n in 1usize..600,
        m in 2usize..12,
        seed in 0u64..1_000,
    ) {
        let rects: Vec<Rect> = points(n as u64, seed).into_iter().map(|(r, _)| r).collect();
        for strategy in PackStrategy::ALL {
            let plan = SlabPlan::new(strategy, n, m);
            let ord = grouping::order(strategy, &rects);
            let mut groups = Vec::new();
            for k in 0..plan.slab_count() {
                let slab = grouping::slab_order(strategy, &rects, &ord[plan.slab_range(k)], &plan);
                groups.extend(slab.chunks(m).map(<[usize]>::to_vec));
            }
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
    /// of `m` long, so the slabs' groups add up to the plan's count.
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
            groups += range.len().div_ceil(m);
            next = range.end;
        }
        prop_assert_eq!(next, n);
        prop_assert_eq!(groups, plan.total_groups());
        prop_assert_eq!(groups, n.div_ceil(m));
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

    /// On small inputs of ties and at any fan-out, the arena PACK writes
    /// is the arena `freeze` compiles from its pointer tree.
    #[test]
    fn pack_frozen_equals_freeze_on_ties(
        coords in prop::collection::vec((0u8..12, 0u8..12), 0..300),
        m in 2usize..12,
        strategy in arb_strategy(),
    ) {
        let items = items_at(coords.iter().map(|&(x, y)| (f64::from(x), f64::from(y))));
        let config = RTreeConfig::with_branching(m);
        let direct = pack_frozen(items.clone(), config, strategy);
        prop_assert!(direct == frozen_via_pointer_tree(&items, config, strategy));
    }
}
