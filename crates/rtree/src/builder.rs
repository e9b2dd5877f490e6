//! Bottom-up tree construction, the primitive under every packing
//! algorithm.
//!
//! `PACK` (and its descendants in `packed-rtree-core`) decide *which*
//! entries share a node; this builder turns those groupings into a
//! well-formed [`RTree`], level by level, "working ever backwards, until
//! the root is finally reached and created" (§3.3).

use crate::config::RTreeConfig;
use crate::node::{Node, NodeId};
use crate::tree::RTree;

/// Level-by-level bottom-up builder.
///
/// Usage: for each level, leaves first, [`reserve`](Self::reserve) one
/// arena slot per node, fill the slots through
/// [`reserved_slots_mut`](Self::reserved_slots_mut) (internal entries
/// point at the ids of the level below), and seal them with
/// [`commit_reserved`](Self::commit_reserved); then finish with
/// [`finish`](Self::finish) (single root) or
/// [`finish_empty`](Self::finish_empty).
pub struct BottomUpBuilder {
    tree: RTree,
    items: usize,
}

/// A contiguous range of arena slots handed out by
/// [`BottomUpBuilder::reserve`].
///
/// The node ids of the range are known before the nodes exist: a packer
/// that knows a level's group count from its slab plan reserves the
/// level once and fills the slots in group order.
#[derive(Debug, Clone, Copy)]
pub struct ReservedRange {
    start: u32,
    len: usize,
}

impl ReservedRange {
    /// The id of the `offset`-th slot of the range.
    ///
    /// # Panics
    ///
    /// Panics if `offset` is outside the range.
    #[inline]
    pub fn id(&self, offset: usize) -> NodeId {
        assert!(offset < self.len, "offset {offset} outside reserved range");
        NodeId(self.start + offset as u32)
    }

    /// Number of reserved slots.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if the range is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl BottomUpBuilder {
    /// Starts building a tree with the given configuration.
    pub fn new(config: RTreeConfig) -> Self {
        // Start from a completely empty arena: ids are handed out densely
        // from 0, level by level.
        BottomUpBuilder {
            tree: RTree::empty_arena(config),
            items: 0,
        }
    }

    /// Reserves `count` contiguous arena slots for one level's nodes and
    /// returns their id range.
    ///
    /// Fill every slot through
    /// [`reserved_slots_mut`](Self::reserved_slots_mut) and then seal the
    /// range with [`commit_reserved`](Self::commit_reserved). The ids are
    /// known up front, so a node's id never depends on when it is built.
    pub fn reserve(&mut self, count: usize) -> ReservedRange {
        let start = self.tree.arena_reserve(count);
        ReservedRange { start, len: count }
    }

    /// Mutable slice over a reserved range's slots, in offset order.
    ///
    /// Slot `i` of the slice corresponds to node id `range.id(i)`.
    pub fn reserved_slots_mut(&mut self, range: &ReservedRange) -> &mut [Option<Node>] {
        self.tree.arena_slice_mut(range.start, range.len)
    }

    /// Seals a reserved range after all slots have been filled with nodes
    /// of the given `level`, folding their items into the tree's count.
    ///
    /// # Panics
    ///
    /// Panics if any slot is still empty, holds a node of a different
    /// level, or violates the `1..=M` entry-count bounds.
    pub fn commit_reserved(&mut self, range: &ReservedRange, level: u32) {
        let max = self.tree.config().max_entries;
        let mut items = 0usize;
        for offset in 0..range.len {
            let slot = range.id(offset);
            let node = self.tree.node(slot);
            assert_eq!(node.level, level, "{slot}: wrong level in reserved range");
            assert!(
                !node.entries.is_empty() && node.len() <= max,
                "{slot}: {} entries outside 1..={max}",
                node.len()
            );
            if node.is_leaf() {
                items += node.len();
            }
        }
        self.items += items;
    }

    /// Finishes with `root` as the tree's root.
    ///
    /// # Panics
    ///
    /// Panics if `root` is not a live node of this builder.
    pub fn finish(mut self, root: NodeId) -> RTree {
        let _ = self.tree.node(root); // liveness check
        self.tree.set_root(root);
        *self.tree.len_mut() = self.items;
        self.tree
    }

    /// Finishes an empty tree (no leaves were committed).
    pub fn finish_empty(mut self) -> RTree {
        assert_eq!(self.items, 0, "items were added; call finish(root)");
        let root = self.tree.alloc(Node::new(0));
        self.tree.set_root(root);
        self.tree
    }

    /// The configuration being built against.
    pub fn config(&self) -> RTreeConfig {
        self.tree.config()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::{Entry, ItemId};
    use rtree_geom::{Point, Rect};

    fn pt(x: f64, y: f64) -> Rect {
        Rect::from_point(Point::new(x, y))
    }

    /// Reserves, fills and commits one level of `nodes`, returning the
    /// range.
    fn add_level(b: &mut BottomUpBuilder, level: u32, nodes: Vec<Vec<Entry>>) -> ReservedRange {
        let range = b.reserve(nodes.len());
        for (slot, entries) in b.reserved_slots_mut(&range).iter_mut().zip(nodes) {
            let mut node = Node::new(level);
            node.entries = entries;
            *slot = Some(node);
        }
        b.commit_reserved(&range, level);
        range
    }

    #[test]
    fn empty_build() {
        let t = BottomUpBuilder::new(RTreeConfig::PAPER).finish_empty();
        assert!(t.is_empty());
        t.assert_valid();
    }

    #[test]
    #[should_panic(expected = "stale or foreign NodeId")]
    fn commit_rejects_unfilled_slots() {
        let mut b = BottomUpBuilder::new(RTreeConfig::PAPER);
        let range = b.reserve(2);
        b.reserved_slots_mut(&range)[0] = Some({
            let mut n = Node::new(0);
            n.entries.push(Entry::item(pt(0.0, 0.0), ItemId(0)));
            n
        });
        b.commit_reserved(&range, 0); // slot 1 still empty
    }

    #[test]
    fn reserved_build_validates_and_searches() {
        let mut b = BottomUpBuilder::new(RTreeConfig::PAPER);
        let leaves = vec![
            vec![
                Entry::item(pt(0.0, 0.0), ItemId(0)),
                Entry::item(pt(1.0, 1.0), ItemId(1)),
            ],
            vec![
                Entry::item(pt(10.0, 10.0), ItemId(2)),
                Entry::item(pt(11.0, 11.0), ItemId(3)),
            ],
        ];
        let parents: Vec<Rect> = leaves
            .iter()
            .map(|l| Rect::mbr_of_rects(l.iter().map(|e| e.mbr)).unwrap())
            .collect();
        let leaf_range = add_level(&mut b, 0, leaves);
        let root_entries = parents
            .into_iter()
            .enumerate()
            .map(|(i, mbr)| Entry::node(mbr, leaf_range.id(i)))
            .collect();
        let root = add_level(&mut b, 1, vec![root_entries]).id(0);
        let t = b.finish(root);
        assert_eq!((t.depth(), t.node_count(), t.len()), (1, 3, 4));
        t.validate().unwrap();
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
}
