//! Properties of PACK's level loop on arbitrary inputs: the slab plan
//! tiles a level, slab-local grouping partitions it into the plan's
//! group count, the nearest-neighbour sweep builds the same tree as the
//! pseudocode's literal scan on inputs made of ties, and the arena PACK
//! writes directly is the one `freeze` compiles from its pointer tree.

use packed_rtree_core::grouping::{self, PackStrategy, SlabPlan};
use packed_rtree_core::{pack, pack_frozen, pack_naive, pack_with};
use rand::{rngs::StdRng, Rng, SeedableRng};
use rtree_geom::{Point, Rect};
use rtree_index::{FrozenRTree, ItemId, RTreeConfig};
use std::{panic, thread};

/// Runs `body` on `cases` generators seeded `1985 + k`; a failing case names its test and `k`.
fn for_cases(cases: u64, mut body: impl FnMut(&mut StdRng)) {
    for k in 0..cases {
        let mut rng = StdRng::seed_from_u64(1985 + k);
        if let Err(cause) = panic::catch_unwind(panic::AssertUnwindSafe(|| body(&mut rng))) {
            let test = thread::current();
            eprintln!("{}: case {k} failed", test.name().unwrap_or("?"));
            panic::resume_unwind(cause);
        }
    }
}

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

fn arb_strategy(rng: &mut StdRng) -> PackStrategy {
    PackStrategy::ALL[rng.gen_range(0..PackStrategy::ALL.len())]
}

/// Points on the 12 × 12 integer grid, as coordinate pairs.
fn arb_coords(rng: &mut StdRng, len: std::ops::Range<usize>) -> Vec<(u8, u8)> {
    (0..rng.gen_range(len))
        .map(|_| (rng.gen_range(0..12), rng.gen_range(0..12)))
        .collect()
}

/// Slab-boundary grouping preserves the partition invariant: the
/// groups cover every input index exactly once, never exceed `m`,
/// and the group count matches the plan's prediction — the property
/// the node count a level declares before it is grouped rests on.
#[test]
fn slab_grouping_partitions() {
    for_cases(64, |rng| {
        let (n, m) = (rng.gen_range(1usize..600), rng.gen_range(2usize..12));
        let seed = rng.gen_range(0u64..1_000);
        let rects: Vec<Rect> = points(n as u64, seed).into_iter().map(|(r, _)| r).collect();
        for strategy in PackStrategy::ALL {
            let plan = SlabPlan::new(strategy, n, m);
            let ord = grouping::order(strategy, &rects);
            let mut groups = Vec::new();
            for k in 0..plan.slab_count() {
                let slab = grouping::slab_order(strategy, &rects, &ord[plan.slab_range(k)], &plan);
                groups.extend(slab.chunks(m).map(<[usize]>::to_vec));
            }
            assert_eq!(groups.len(), plan.total_groups(), "{:?}", strategy);
            assert_eq!(groups.len(), n.div_ceil(m), "{:?}", strategy);
            let mut seen = vec![false; n];
            for g in &groups {
                let len = g.len();
                assert!(len > 0 && len <= m, "{strategy:?}: group of {len}");
                for &i in g {
                    assert!(!seen[i], "{:?}: duplicate index {}", strategy, i);
                    seen[i] = true;
                }
            }
            assert!(seen.iter().all(|&s| s), "{:?}: index dropped", strategy);
        }
    });
}

/// The slab plan itself tiles `0..n`: ranges are contiguous,
/// disjoint, exhaustive, and every slab but the last is a multiple
/// of `m` long, so the slabs' groups add up to the plan's count.
#[test]
fn slab_plan_tiles_input() {
    for_cases(64, |rng| {
        let (n, m) = (rng.gen_range(1usize..100_000), rng.gen_range(2usize..65));
        let strategy = arb_strategy(rng);
        let plan = SlabPlan::new(strategy, n, m);
        let mut next = 0usize;
        let mut groups = 0usize;
        for k in 0..plan.slab_count() {
            let range = plan.slab_range(k);
            assert_eq!(range.start, next);
            assert!(!range.is_empty());
            if k + 1 < plan.slab_count() {
                assert_eq!(range.len() % m, 0, "non-terminal slab misaligned");
            }
            groups += range.len().div_ceil(m);
            next = range.end;
        }
        assert_eq!(next, n);
        assert_eq!(groups, plan.total_groups());
        assert_eq!(groups, n.div_ceil(m));
    });
}

/// The nearest-neighbour sweep breaks distance ties exactly as the
/// literal scan does (lowest slab position), so `pack` equals
/// `pack_naive` on inputs made of ties: points on a coarse grid
/// (duplicates and collinear runs), optionally all on one horizontal
/// or one vertical line.
#[test]
fn pack_equals_pack_naive_on_duplicated_and_collinear_inputs() {
    for_cases(64, |rng| {
        let (coords, line) = (arb_coords(rng, 1..400), rng.gen_range(0u8..3));
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
        assert!(pack(items, RTreeConfig::PAPER) == naive);
    });
}

/// On small inputs of ties and at any fan-out, the arena PACK writes
/// is the arena `freeze` compiles from its pointer tree.
#[test]
fn pack_frozen_equals_freeze_on_ties() {
    for_cases(64, |rng| {
        let (coords, m) = (arb_coords(rng, 0..300), rng.gen_range(2usize..12));
        let strategy = arb_strategy(rng);
        let items = items_at(coords.iter().map(|&(x, y)| (f64::from(x), f64::from(y))));
        let config = RTreeConfig::with_branching(m);
        let direct = pack_frozen(items.clone(), config, strategy);
        assert!(direct == frozen_via_pointer_tree(&items, config, strategy));
    });
}
