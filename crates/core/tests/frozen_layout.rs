//! The frozen arena's exact layout, pinned by digest.
//!
//! `FrozenRTree::freeze` fills every field of the arena: BFS node order,
//! the node-major coordinate planes with their NaN padding, the pointer
//! plane (child BFS index or item id, 0 in padding lanes), the per-node
//! counts, `leaf_start`, `depth` and `len`. This test reads all of them
//! back through the public surface — `node_planes` (padding bits
//! included), `NodeAccess` and the size accessors — and hashes them.
//! Each digest was written by the generic node-store compiler the direct
//! walk replaced, so a change to how the arena is built cannot move a
//! single bit unnoticed. `every_strategy_is_pinned` was written while
//! PACK still had a multi-threaded level engine beside its sequential
//! one, so it also pins the tree each packing strategy builds.

use packed_rtree_core::{pack, pack_with, PackStrategy};
use rtree_geom::{Point, Rect};
use rtree_index::{FrozenRTree, ItemId, NodeAccess, RTree, RTreeConfig};

/// 64-bit FNV-1a over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Every field `freeze` fills, in arena order.
fn digest(f: &FrozenRTree) -> u64 {
    let mut h = Fnv::new();
    let config = f.config();
    h.word(config.max_entries as u64);
    h.word(config.min_entries as u64);
    h.word(f.fanout() as u64);
    h.word(f.node_count() as u64);
    h.word(f.depth() as u64);
    h.word(f.len() as u64);
    h.word(f.approx_bytes() as u64);
    // Breadth-first from the root over `NodeAccess`: in the arena the
    // i-th node dequeued must be node i.
    let mut queue = std::collections::VecDeque::from([f.root()]);
    let mut visited = 0usize;
    while let Some(node) = queue.pop_front() {
        assert_eq!(node.index(), visited, "arena is not in BFS order");
        visited += 1;
        let leaf = f.is_leaf(node);
        h.word(leaf as u64);
        h.word(f.entry_count(node) as u64);
        let (x1, y1, x2, y2) = f.node_planes(node.index() as u32);
        for plane in [x1, y1, x2, y2] {
            assert_eq!(plane.len(), f.fanout());
            for v in plane {
                h.word(v.to_bits());
            }
        }
        for lane in 0..f.fanout() {
            let id = if leaf {
                f.child_item(node, lane).0
            } else {
                let child = f.child_node(node, lane);
                if lane < f.entry_count(node) {
                    queue.push_back(child);
                }
                child.index() as u64
            };
            h.word(id);
        }
    }
    assert_eq!(visited, f.node_count());
    h.0
}

/// `n` points from a fixed 64-bit LCG, ids in generation order.
fn points(n: u64) -> Vec<(Rect, ItemId)> {
    let mut s = 0x5EED_1985u64;
    let mut next = move || {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((s >> 33) % 1_000_000) as f64 / 1000.0
    };
    (0..n)
        .map(|i| {
            let x = next();
            let y = next();
            (Rect::from_point(Point::new(x, y)), ItemId(i))
        })
        .collect()
}

/// A Guttman tree whose arena has freed and then recycled slots: insert
/// 3 000 points, delete every third, insert 500 more.
fn guttman_after_deletes() -> RTree {
    let items = points(3_500);
    let mut tree = RTree::new(RTreeConfig::PAPER);
    for &(mbr, id) in &items[..3_000] {
        tree.insert(mbr, id);
    }
    for &(mbr, id) in items[..3_000].iter().step_by(3) {
        assert!(tree.remove(mbr, id));
    }
    for &(mbr, id) in &items[3_000..] {
        tree.insert(mbr, id);
    }
    tree.assert_valid();
    tree
}

fn check(name: &str, tree: &RTree, expect: u64) {
    let frozen = FrozenRTree::freeze(tree);
    assert_eq!(frozen.node_count(), tree.node_count(), "{name}");
    let got = digest(&frozen);
    assert_eq!(got, expect, "{name}: arena digest {got:#018x}");
}

#[test]
fn packed_m4_arena_is_pinned() {
    let tree = pack(points(10_007), RTreeConfig::PAPER);
    check("pack M=4", &tree, 0xf594_5639_a50a_8039);
}

#[test]
fn packed_m102_arena_is_pinned() {
    let tree = pack(points(10_007), RTreeConfig::with_branching(102));
    check("pack M=102", &tree, 0xc536_de29_4e91_b599);
}

#[test]
fn every_strategy_is_pinned() {
    // 20 011 points make ten slabs at the leaf level (2 048 entries a
    // slab at M = 4) and leave a partial group on every level. The two
    // nearest-neighbour providers build the same tree.
    let items = points(20_011);
    for (strategy, expect) in [
        (PackStrategy::NearestNeighbor, 0x62ad_07a0_a63a_ee69),
        (PackStrategy::NearestNeighborNaive, 0x62ad_07a0_a63a_ee69),
        (PackStrategy::XSort, 0x50f3_ddff_381a_d94f),
        (PackStrategy::SortTileRecursive, 0x9f76_b984_85d1_5aad),
        (PackStrategy::Hilbert, 0x961d_9866_9036_204d),
    ] {
        let tree = pack_with(items.clone(), RTreeConfig::PAPER, strategy);
        check(strategy.name(), &tree, expect);
    }
}

#[test]
fn guttman_arena_with_recycled_slots_is_pinned() {
    check(
        "guttman after deletes",
        &guttman_after_deletes(),
        0x6418_7bf4_6c16_f698,
    );
}

#[test]
fn empty_arena_is_pinned() {
    check(
        "empty",
        &RTree::new(RTreeConfig::PAPER),
        0x1874_e205_9d9b_e963,
    );
}
