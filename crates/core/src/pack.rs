//! Algorithm PACK (§3.3) and its packing variants.
//!
//! All packers share one loop: sort the current level's entries
//! ([`grouping::order`]), partition them into groups of at most `M`
//! slab by slab ([`SlabPlan`], [`grouping::slab_order`]), write one
//! node per group, and repeat on the node MBRs "working ever backwards,
//! until the root is finally reached and created". The loop writes into
//! a [`PackSink`] chosen at compile time: a pointer [`RTree`]
//! ([`pack_with`]) or the frozen arena ([`pack_frozen`]).

use crate::grouping::{self, PackStrategy, SlabPlan};
use rtree_geom::Rect;
use rtree_index::builder::{ArenaBuilder, BottomUpBuilder, PackSink};
use rtree_index::{FrozenRTree, ItemId, RTree, RTreeConfig};

/// Packs `items` into an R-tree with the paper's algorithm
/// (ascending-x order + nearest-neighbour grouping, each slab's
/// nearest-neighbour step a sweep along its longer extent).
///
/// The resulting tree has every node fully packed except possibly the last
/// node of each level, minimal depth `⌈log_M n⌉`-ish, and the
/// coverage/overlap characteristics of Table 1's PACK columns. It remains
/// a perfectly ordinary R-tree: Guttman INSERT/DELETE keep working on it
/// (§3.4).
pub fn pack(items: Vec<(Rect, ItemId)>, config: RTreeConfig) -> RTree {
    pack_with(items, config, PackStrategy::NearestNeighbor)
}

/// [`pack`]; `_threads` is ignored, because PACK is one thread of
/// control.
///
/// Kept only because the `sysbench` benchmark harness names it (its
/// `core.pack_parallel_ms` rows time this call beside [`pack`]).
pub fn pack_parallel(items: Vec<(Rect, ItemId)>, config: RTreeConfig, _threads: usize) -> RTree {
    pack(items, config)
}

/// PACK with the pseudocode's literal O(n²) nearest-neighbour scan.
///
/// Output is identical to [`pack`] on every input — both break distance
/// ties towards the lowest slab position; kept as the fidelity reference
/// and for the `pack_fidelity` tests.
pub fn pack_naive(items: Vec<(Rect, ItemId)>, config: RTreeConfig) -> RTree {
    pack_with(items, config, PackStrategy::NearestNeighborNaive)
}

/// PACK with an explicit [`PackStrategy`], written straight into the
/// frozen arena: no pointer tree is built. Equal, bit for bit, to
/// `FrozenRTree::freeze(&pack_with(items, config, strategy))`.
pub fn pack_frozen(
    items: impl IntoIterator<Item = (Rect, ItemId), IntoIter: ExactSizeIterator>,
    config: RTreeConfig,
    strategy: PackStrategy,
) -> FrozenRTree {
    pack_into::<ArenaBuilder>(items, config, strategy)
}

/// Packs with an explicit [`PackStrategy`], one level at a time from the
/// leaves up.
pub fn pack_with(
    items: impl IntoIterator<Item = (Rect, ItemId), IntoIter: ExactSizeIterator>,
    config: RTreeConfig,
    strategy: PackStrategy,
) -> RTree {
    pack_into::<BottomUpBuilder>(items, config, strategy)
}

/// The one level loop, writing into an `S`: the leaves over the items,
/// then each level over the MBRs of the one below. Each level opens in
/// the sink before its entries are read or sorted, so what the tree
/// keeps is allocated before any n-sized temporary.
pub fn pack_into<S: PackSink>(
    items: impl IntoIterator<Item = (Rect, ItemId), IntoIter: ExactSizeIterator>,
    config: RTreeConfig,
    strategy: PackStrategy,
) -> S::Output {
    let items = items.into_iter();
    let (mut sink, m, n) = (S::new(config), config.max_entries, items.len());
    if n == 0 {
        return sink.finish();
    }

    // Leaf level: entries point at the data items.
    sink.begin_level(n.div_ceil(m));
    let (rects, ids): (Vec<Rect>, Vec<u64>) = items.map(|(r, id)| (r, id.0)).unzip();
    let mut mbrs = build_level(&mut sink, strategy, m, &rects, |i| (rects[i], ids[i]));
    drop((rects, ids));

    // Internal levels, "working ever backwards, until the root is
    // finally reached and created" (§3.3): entries point at the level
    // below's nodes by group index.
    while mbrs.len() > 1 {
        let rects = mbrs;
        sink.begin_level(rects.len().div_ceil(m));
        mbrs = build_level(&mut sink, strategy, m, &rects, |i| (rects[i], i as u64));
    }
    sink.finish()
}

/// Builds the level the sink has open: sorts the entries and writes one
/// node per group of the level's [`SlabPlan`] in one pass over each
/// slab's `slab_order(..).chunks(m)`, entry `i` as `entry(i)`. Returns
/// the nodes' MBRs in group order (the next level's input).
fn build_level<S: PackSink>(
    sink: &mut S,
    strategy: PackStrategy,
    m: usize,
    rects: &[Rect],
    entry: impl Fn(usize) -> (Rect, u64),
) -> Vec<Rect> {
    let ord = grouping::order(strategy, rects);
    let plan = SlabPlan::new(strategy, rects.len(), m);
    let mut mbrs = Vec::with_capacity(plan.total_groups());
    for k in 0..plan.slab_count() {
        let order = grouping::slab_order(strategy, rects, &ord[plan.slab_range(k)], &plan);
        for group in order.chunks(m) {
            mbrs.push(sink.push(group.iter().map(|&i| entry(i))));
        }
    }
    mbrs
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtree_geom::Point;
    use rtree_index::{NodeAccess, SearchStats, SplitPolicy, TreeMetrics};

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

    #[test]
    fn empty_pack() {
        for strategy in PackStrategy::ALL {
            let t = pack_with(Vec::new(), RTreeConfig::PAPER, strategy);
            assert!(t.is_empty());
            t.assert_valid();
        }
    }

    #[test]
    fn single_item_pack() {
        let t = pack(points(1, 5), RTreeConfig::PAPER);
        assert_eq!(t.len(), 1);
        assert_eq!(t.depth(), 0);
        t.validate_with(false).unwrap();
    }

    #[test]
    fn all_strategies_build_valid_searchable_trees() {
        let items = points(333, 9);
        for strategy in PackStrategy::ALL {
            let t = pack_with(items.clone(), RTreeConfig::PAPER, strategy);
            t.validate_with(false)
                .unwrap_or_else(|e| panic!("{strategy:?}: {e}"));
            assert_eq!(t.len(), 333);
            // Every item findable by point query.
            let mut stats = SearchStats::default();
            for &(r, id) in items.iter().take(50) {
                let hits = t.point_query(r.center(), &mut stats);
                assert!(hits.contains(&id), "{strategy:?} lost {id}");
            }
        }
    }

    #[test]
    fn packed_depth_is_minimal() {
        // 256 items, M=4: 64 leaves (level 0), 16, 4, then the root —
        // depth 3, node count 64 + 16 + 4 + 1 = 85.
        let t = pack(points(256, 3), RTreeConfig::PAPER);
        assert_eq!(t.depth(), 3);
        assert_eq!(t.node_count(), 85);
    }

    #[test]
    fn packed_nodes_are_full() {
        let t = pack(points(256, 11), RTreeConfig::PAPER);
        // With n a power of M every node is exactly full.
        for (_, node) in t.iter_nodes() {
            assert_eq!(node.len(), 4);
        }
    }

    #[test]
    fn leftover_items_create_one_partial_node_per_level() {
        let t = pack(points(257, 11), RTreeConfig::PAPER);
        t.validate_with(false).unwrap();
        assert_eq!(t.len(), 257);
        let partial = t
            .iter_nodes()
            .filter(|(_, n)| n.is_leaf() && n.len() < 4)
            .count();
        assert!(partial <= 1, "at most one partial leaf, got {partial}");
    }

    #[test]
    fn pack_beats_insert_on_structure() {
        // The headline claims of Table 1 that are robust to the split
        // policy: PACK uses fewer nodes (full occupancy — the paper's
        // "savings in space"), never more depth, and — against the
        // linear split the 1985-era INSERT most resembles — less leaf
        // overlap.
        let items = points(900, 17);
        let packed = pack(items.clone(), RTreeConfig::PAPER);
        let mut dynamic = RTree::new(RTreeConfig::PAPER.with_split(SplitPolicy::Linear));
        for &(r, id) in &items {
            dynamic.insert(r, id);
        }
        let mp = TreeMetrics::measure(&packed);
        let md = TreeMetrics::measure(&dynamic);
        assert!(
            mp.overlap < md.overlap,
            "packed overlap {} !< dynamic {}",
            mp.overlap,
            md.overlap
        );
        assert!(mp.nodes < md.nodes, "{} !< {}", mp.nodes, md.nodes);
        assert!(mp.depth <= md.depth);
        // Full occupancy: ~n/4 leaves versus INSERT's ~n/2.4.
        assert!((mp.nodes as f64) < 0.75 * md.nodes as f64);
    }

    #[test]
    fn pack_beats_insert_on_point_query_cost() {
        let items = points(900, 23);
        let packed = pack(items.clone(), RTreeConfig::PAPER);
        let mut dynamic = RTree::new(RTreeConfig::PAPER.with_split(SplitPolicy::Linear));
        for &(r, id) in &items {
            dynamic.insert(r, id);
        }
        let mut sp = SearchStats::default();
        let mut sd = SearchStats::default();
        let queries = points(1000, 77);
        for &(r, _) in &queries {
            packed.point_query(r.center(), &mut sp);
            dynamic.point_query(r.center(), &mut sd);
        }
        assert!(
            sp.avg_nodes_visited() < sd.avg_nodes_visited(),
            "packed {} vs dynamic {}",
            sp.avg_nodes_visited(),
            sd.avg_nodes_visited()
        );
    }

    fn items_at(coords: &[(f64, f64)]) -> Vec<(Rect, ItemId)> {
        coords
            .iter()
            .enumerate()
            .map(|(i, &(x, y))| (Rect::from_point(Point::new(x, y)), ItemId(i as u64)))
            .collect()
    }

    #[test]
    fn pack_equals_pack_naive() {
        let random: Vec<(f64, f64)> = points(2_000, 31)
            .iter()
            .map(|(r, _)| (r.min_x, r.min_y))
            .collect();
        // A 50 × 50 lattice, fed in a scrambled order so input index and
        // slab position disagree: ties everywhere.
        let lattice: Vec<(f64, f64)> = (0..2_500u64)
            .map(|i| (i * 1_103) % 2_500)
            .map(|k| ((k % 50) as f64, (k / 50) as f64))
            .collect();
        let line: Vec<(f64, f64)> = random
            .iter()
            .map(|&(x, _)| ((x * 4.0).round(), 7.0))
            .collect();
        let column: Vec<(f64, f64)> = line.iter().map(|&(x, y)| (y, x)).collect();
        let mut far = random.clone();
        far.extend([(-1e6, -1e6), (1e6, 3.0), (5.0, 1e6)]);
        let inputs = [
            ("random", random),
            ("lattice", lattice),
            ("duplicates", vec![(5.0, 5.0); 1_000]),
            ("horizontal line", line),
            ("vertical line", column),
            ("one point", vec![(1.0, 2.0)]),
            ("far outside", far),
        ];
        for (name, coords) in inputs {
            let items = items_at(&coords);
            let a = pack(items.clone(), RTreeConfig::PAPER);
            let b = pack_naive(items, RTreeConfig::PAPER);
            a.validate_with(false).unwrap();
            assert!(a == b, "{name}: pack and pack_naive built different trees");
        }
    }

    #[test]
    fn search_equivalence_across_strategies() {
        let items = points(150, 41);
        let window = Rect::new(200.0, 200.0, 600.0, 700.0);
        let mut expect: Vec<ItemId> = items
            .iter()
            .filter(|(r, _)| r.covered_by(&window))
            .map(|&(_, id)| id)
            .collect();
        expect.sort();
        for strategy in PackStrategy::ALL {
            let t = pack_with(items.clone(), RTreeConfig::PAPER, strategy);
            let mut stats = SearchStats::default();
            let mut got = t.search_within(&window, &mut stats);
            got.sort();
            assert_eq!(got, expect, "{strategy:?}");
        }
    }

    #[test]
    fn big_branching_factor_pack() {
        let items = points(5000, 53);
        let t = pack(items, RTreeConfig::with_branching(64));
        t.validate_with(false).unwrap();
        assert_eq!(t.depth(), 2); // 5000 -> 79 -> 2 -> root
    }

    #[test]
    fn dynamic_updates_work_on_packed_tree() {
        // §3.4: INSERT/DELETE still apply after PACK.
        let items = points(100, 61);
        let mut t = pack(items.clone(), RTreeConfig::PAPER);
        t.insert(Rect::from_point(Point::new(500.0, 500.0)), ItemId(1000));
        assert!(t.remove(items[0].0, items[0].1));
        t.validate_with(false).unwrap();
        assert_eq!(t.len(), 100);
    }

    #[test]
    fn repack_restores_packed_quality() {
        let items = points(300, 1);
        let mut tree = pack(items.clone(), RTreeConfig::PAPER);
        let fresh = TreeMetrics::measure(&tree);
        // Degrade: churn 300 updates through Guttman INSERT/DELETE.
        let churn: Vec<(Rect, ItemId)> = points(300, 2)
            .into_iter()
            .map(|(r, id)| (r, ItemId(id.0 + 1000)))
            .collect();
        for &(r, id) in &churn {
            tree.insert(r, id);
        }
        for &(r, id) in items[..150].iter().chain(&churn[..150]) {
            assert!(tree.remove(r, id));
        }
        let degraded = TreeMetrics::measure(&tree);
        let repacked_tree = pack_with(tree.items(), tree.config(), PackStrategy::NearestNeighbor);
        let repacked = TreeMetrics::measure(&repacked_tree);
        // Repacking restores full occupancy (fewer nodes) and fresh-pack
        // quality: node count and depth back to packed levels, coverage on
        // the same scale as the original pack of a same-sized set.
        assert!(
            repacked.nodes < degraded.nodes,
            "{} !< {}",
            repacked.nodes,
            degraded.nodes
        );
        assert!(repacked.depth <= degraded.depth);
        assert!(repacked.coverage < fresh.coverage * 2.0);
        repacked_tree.validate_with(false).unwrap();
        assert_eq!(repacked_tree.len(), tree.len());
    }
}
