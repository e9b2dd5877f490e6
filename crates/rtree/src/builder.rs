//! Bottom-up tree construction: the two places PACK's level loop (in
//! `packed-rtree-core`) writes a tree to.
//!
//! PACK decides *which* entries share a node; a [`PackSink`] turns each
//! group into a node, level by level, "working ever backwards, until the
//! root is finally reached and created" (§3.3). [`BottomUpBuilder`]
//! writes a pointer [`RTree`]; [`ArenaBuilder`] writes the
//! [`FrozenRTree`] arena directly, with no pointer tree in between.

use crate::config::RTreeConfig;
use crate::frozen::FrozenRTree;
use crate::node::{Entry, ItemId, Node, NodeId};
use crate::tree::RTree;
use rtree_geom::Rect;

/// Where PACK's level loop writes the tree: one node per
/// [`push`](Self::push), the leaves first and each level's nodes in
/// group order.
pub trait PackSink {
    /// The finished tree.
    type Output;

    /// Starts a tree with the given configuration.
    fn new(config: RTreeConfig) -> Self;

    /// Opens the next level up, the leaves first, which will hold exactly
    /// `nodes` nodes.
    fn begin_level(&mut self, nodes: usize);

    /// Writes the open level's next node from its `(mbr, id)` entries,
    /// where `id` is an item id at the leaves and the index of a node of
    /// the level below everywhere else; returns the node's MBR. Panics
    /// outside `1..=M` entries, or past the level's node count.
    fn push(&mut self, entries: impl ExactSizeIterator<Item = (Rect, u64)>) -> Rect;

    /// The finished tree: the empty tree if no level was opened, else the
    /// last level's one node is the root.
    fn finish(self) -> Self::Output;
}

/// Both sinks' checks on the open level's next node: `1..=max` entries,
/// and fewer than the `declared` nodes `pushed` before it.
fn check_push(entries: usize, max: usize, pushed: usize, declared: usize) {
    assert!((1..=max).contains(&entries), "{entries} entries, M = {max}");
    assert!(pushed < declared, "more than {declared} nodes");
}

/// Both sinks' check on a level before the next opens, or the tree
/// finishes: it holds the nodes it declared.
fn check_level_full(pushed: usize, declared: usize) {
    assert_eq!(pushed, declared, "nodes in a level, as declared");
}

/// The pointer sink: appends each level's nodes to an [`RTree`] arena in
/// group order, so ids are dense, level by level from slot 0, and a
/// node's entries name its children by arena id.
pub struct BottomUpBuilder {
    tree: RTree,
    items: usize,
    /// Levels opened so far; the open one is `levels - 1`.
    levels: u32,
    /// Arena ids of the open level's first node and of the level below's.
    start: u32,
    below: u32,
    /// Nodes the open level declared.
    nodes: usize,
}

impl BottomUpBuilder {
    fn pushed(&self) -> usize {
        self.tree.arena_len() - self.start as usize
    }
}

impl PackSink for BottomUpBuilder {
    type Output = RTree;

    fn new(config: RTreeConfig) -> Self {
        BottomUpBuilder {
            tree: RTree::empty_arena(config),
            items: 0,
            levels: 0,
            start: 0,
            below: 0,
            nodes: 0,
        }
    }

    fn begin_level(&mut self, nodes: usize) {
        check_level_full(self.pushed(), self.nodes);
        let start = u32::try_from(self.tree.arena_len()).expect("arena overflow");
        (self.below, self.start, self.nodes) = (self.start, start, nodes);
        self.levels += 1;
    }

    fn push(&mut self, entries: impl ExactSizeIterator<Item = (Rect, u64)>) -> Rect {
        let max = self.tree.config().max_entries;
        check_push(entries.len(), max, self.pushed(), self.nodes);
        let (level, below) = (self.levels - 1, self.below);
        let mut node = Node::new(level);
        node.entries = entries
            .map(|(mbr, id)| match level {
                0 => Entry::item(mbr, ItemId(id)),
                _ => Entry::node(mbr, NodeId(below + id as u32)),
            })
            .collect();
        if level == 0 {
            self.items += node.len();
        }
        let mbr = node.mbr().expect("non-empty node");
        self.tree.alloc(node);
        mbr
    }

    fn finish(mut self) -> RTree {
        if self.levels == 0 {
            let root = self.tree.alloc(Node::new(0));
            self.tree.set_root(root);
            return self.tree;
        }
        check_level_full(self.pushed(), 1);
        self.tree.set_root(NodeId(self.start));
        *self.tree.len_mut() = self.items;
        self.tree
    }
}

/// The arena sink: writes each node straight into its level's planes in
/// the [`FrozenRTree`] block layout, then lays the levels out
/// breadth-first in [`finish`](PackSink::finish).
///
/// The arena it finishes equals [`FrozenRTree::freeze`] of the tree
/// [`BottomUpBuilder`] builds from the same pushes, bit for bit.
pub struct ArenaBuilder {
    config: RTreeConfig,
    /// One entry per opened level, the leaves first.
    levels: Vec<LevelPlanes>,
    items: usize,
    /// The finished arena's planes, allocated when the leaves open for the
    /// levels PACK declares (`⌈n/M⌉` each up to the root), before PACK
    /// reads an item: older than every temporary of the pack.
    arena: LevelPlanes,
}

/// One level's nodes in group order, each an arena block: `4 * M`
/// coordinates (`[x1][y1][x2][y2]` lanes, NaN padding), `M` ids (item ids
/// at the leaves, group indices in the level below elsewhere, 0 padding)
/// and a count, all sized from the declared node count.
#[derive(Default)]
struct LevelPlanes {
    coords: Vec<f64>,
    ids: Vec<u64>,
    counts: Vec<u32>,
}

impl PackSink for ArenaBuilder {
    type Output = FrozenRTree;

    fn new(config: RTreeConfig) -> Self {
        ArenaBuilder {
            config,
            levels: Vec::new(),
            items: 0,
            arena: LevelPlanes::default(),
        }
    }

    fn begin_level(&mut self, nodes: usize) {
        let fanout = self.config.max_entries;
        if let Some(level) = self.levels.last() {
            check_level_full(level.counts.len(), level.ids.len() / fanout);
        } else {
            let up = |&k: &usize| (k > 1).then(|| k.div_ceil(fanout));
            let all: usize = std::iter::successors(Some(nodes), up).sum();
            self.arena = LevelPlanes {
                coords: Vec::with_capacity(all * 4 * fanout),
                ids: Vec::with_capacity(all * fanout),
                counts: Vec::with_capacity(all),
            };
        }
        self.levels.push(LevelPlanes {
            coords: vec![f64::NAN; nodes * 4 * fanout],
            ids: vec![0; nodes * fanout],
            counts: Vec::with_capacity(nodes),
        });
    }

    fn push(&mut self, entries: impl ExactSizeIterator<Item = (Rect, u64)>) -> Rect {
        let fanout = self.config.max_entries;
        let leaf = self.levels.len() == 1;
        let level = self.levels.last_mut().expect("push before begin_level");
        let (n, count) = (level.counts.len(), entries.len());
        check_push(count, fanout, n, level.ids.len() / fanout);
        let (block, lanes) = (n * 4 * fanout, n * fanout);
        let mut mbr: Option<Rect> = None;
        for (lane, (r, id)) in entries.enumerate() {
            for (plane, v) in [r.min_x, r.min_y, r.max_x, r.max_y].into_iter().enumerate() {
                level.coords[block + plane * fanout + lane] = v;
            }
            level.ids[lanes + lane] = id;
            mbr = Some(mbr.map_or(r, |acc| acc.union(&r)));
        }
        level.counts.push(count as u32);
        if leaf {
            self.items += count;
        }
        mbr.expect("non-empty node")
    }

    /// Lays the levels out as [`FrozenRTree::freeze`] does: breadth-first
    /// from the root, children in lane order. One top-down pass copies
    /// each node's block into place, rewrites an internal lane's group
    /// index as its child's BFS index, and drops each level's planes once
    /// they are copied.
    fn finish(mut self) -> FrozenRTree {
        let Some(mut level) = self.levels.pop() else {
            return FrozenRTree::freeze(&RTree::new(self.config));
        };
        check_level_full(level.counts.len(), 1);
        let fanout = self.config.max_entries;
        let depth = self.levels.len() as u32;
        let mut a = std::mem::take(&mut self.arena);
        // The open level's groups in BFS order, the root alone at first.
        let mut order = vec![0usize];
        loop {
            let leaf_start = a.counts.len() as u32;
            let mut below = Vec::with_capacity(self.levels.last().map_or(0, |l| l.counts.len()));
            let mut child = (a.counts.len() + order.len()) as u64;
            for &g in &order {
                let count = level.counts[g] as usize;
                a.counts.push(count as u32);
                a.coords
                    .extend_from_slice(&level.coords[g * 4 * fanout..(g + 1) * 4 * fanout]);
                let lanes = &level.ids[g * fanout..(g + 1) * fanout];
                if self.levels.is_empty() {
                    a.ids.extend_from_slice(lanes);
                    continue;
                }
                for &group in &lanes[..count] {
                    below.push(group as usize);
                    a.ids.push(child);
                    child += 1;
                }
                a.ids.resize(a.ids.len() + fanout - count, 0);
            }
            let Some(next) = self.levels.pop() else {
                let (c, items) = (self.config, self.items);
                return FrozenRTree::from_planes(
                    c, leaf_start, depth, items, a.coords, a.ids, a.counts,
                );
            };
            (level, order) = (next, below);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtree_geom::Point;

    fn pt(x: f64, y: f64) -> Rect {
        Rect::from_point(Point::new(x, y))
    }

    /// Writes two leaves of two items under one root into `sink`.
    fn two_leaves<S: PackSink>(mut sink: S) -> S::Output {
        let leaves = [
            [(pt(0.0, 0.0), 0), (pt(1.0, 1.0), 1)],
            [(pt(10.0, 10.0), 2), (pt(11.0, 11.0), 3)],
        ];
        sink.begin_level(leaves.len());
        let parents: Vec<Rect> = leaves
            .iter()
            .map(|l| sink.push(l.iter().copied()))
            .collect();
        assert_eq!(
            parents,
            [
                Rect::new(0.0, 0.0, 1.0, 1.0),
                Rect::new(10.0, 10.0, 11.0, 11.0)
            ]
        );
        sink.begin_level(1);
        sink.push(parents.into_iter().zip([0, 1]));
        sink.finish()
    }

    #[test]
    fn empty_build() {
        let t = BottomUpBuilder::new(RTreeConfig::PAPER).finish();
        assert!(t.is_empty());
        t.assert_valid();
        let arena = ArenaBuilder::new(RTreeConfig::PAPER).finish();
        assert!(arena == FrozenRTree::freeze(&t));
    }

    #[test]
    fn reserved_build_validates_and_searches() {
        let t = two_leaves(BottomUpBuilder::new(RTreeConfig::PAPER));
        assert_eq!((t.depth(), t.node_count(), t.len()), (1, 3, 4));
        t.validate().unwrap();
        // Dense ids in push order, the root last.
        assert_eq!(t.root(), NodeId(2));
        assert!(two_leaves(ArenaBuilder::new(RTreeConfig::PAPER)) == FrozenRTree::freeze(&t));
        let mut stats = crate::SearchStats::default();
        let mut hits = t.search_within(&Rect::new(-1.0, -1.0, 2.0, 2.0), &mut stats);
        hits.sort();
        assert_eq!(hits, vec![ItemId(0), ItemId(1)]);
        // Dynamic insert on a built tree keeps working (the paper's §3.4).
        let mut t = t;
        t.insert(pt(5.0, 5.0), ItemId(4));
        t.validate_with(false).unwrap();
        assert_eq!(t.len(), 5);
    }

    #[test]
    #[should_panic(expected = "5 entries, M = 4")]
    fn push_rejects_an_overfull_node() {
        let mut b = ArenaBuilder::new(RTreeConfig::PAPER);
        b.begin_level(1);
        b.push((0..5u32).map(|i| (pt(i.into(), 0.0), i.into())));
    }

    #[test]
    #[should_panic(expected = "more than 1 nodes")]
    fn push_rejects_a_node_past_the_level() {
        let mut b = BottomUpBuilder::new(RTreeConfig::PAPER);
        b.begin_level(1);
        b.push([(pt(0.0, 0.0), 0)].into_iter());
        b.push([(pt(1.0, 0.0), 1)].into_iter());
    }

    #[test]
    #[should_panic(expected = "nodes in a level, as declared")]
    fn a_level_left_short_is_rejected() {
        let mut b = ArenaBuilder::new(RTreeConfig::PAPER);
        b.begin_level(2);
        let mbr = b.push([(pt(0.0, 0.0), 0)].into_iter());
        b.begin_level(1);
        b.push([(mbr, 0)].into_iter());
    }
}
