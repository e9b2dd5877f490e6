//! The R-tree proper: an arena of nodes plus a root pointer.

use crate::config::RTreeConfig;
use crate::node::{Child, Entry, Node, NodeId};
use rtree_geom::Rect;

/// A two-dimensional R-tree index from rectangles to [`ItemId`](crate::ItemId)s.
///
/// Nodes live in an arena (`Vec`), mirroring the paper's
/// `RTREE: array [1..MaxNodes] of NODE`; [`NodeId`]s are arena indices.
/// The tree can be grown dynamically with Guttman's
/// [`insert`](RTree::insert)/[`remove`](RTree::remove), or constructed
/// bottom-up by the packing algorithms of `packed-rtree-core` through
/// [`builder::BottomUpBuilder`](crate::builder::BottomUpBuilder).
///
/// # Example
///
/// ```
/// use rtree_index::{RTree, RTreeConfig, ItemId, SearchStats};
/// use rtree_geom::{Point, Rect};
///
/// let mut tree = RTree::new(RTreeConfig::PAPER);
/// for (i, &(x, y)) in [(1.0, 1.0), (2.0, 5.0), (9.0, 9.0)].iter().enumerate() {
///     tree.insert(Rect::from_point(Point::new(x, y)), ItemId(i as u64));
/// }
/// let mut stats = SearchStats::default();
/// let hits = tree.search_within(&Rect::new(0.0, 0.0, 3.0, 6.0), &mut stats);
/// assert_eq!(hits.len(), 2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RTree {
    nodes: Vec<Option<Node>>,
    free: Vec<NodeId>,
    root: NodeId,
    config: RTreeConfig,
    len: usize,
}

impl RTree {
    /// Creates an empty tree (root is an empty leaf).
    pub fn new(config: RTreeConfig) -> Self {
        let mut tree = RTree {
            nodes: Vec::new(),
            free: Vec::new(),
            root: NodeId(0),
            config,
            len: 0,
        };
        let root = tree.alloc(Node::new(0));
        tree.root = root;
        tree
    }

    /// The tree's configuration.
    #[inline]
    pub fn config(&self) -> RTreeConfig {
        self.config
    }

    /// The root node id (`RTREE[1]` in the paper's convention).
    #[inline]
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Number of indexed items.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if no items are indexed.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Depth `D` as reported in Table 1: the level of the root, i.e. the
    /// number of edges from root to leaf. A tree whose root is a leaf has
    /// depth 0.
    #[inline]
    pub fn depth(&self) -> u32 {
        self.node(self.root).level
    }

    /// Total number of live nodes `N` (Table 1), including the root.
    pub fn node_count(&self) -> usize {
        self.nodes.len() - self.free.len()
    }

    /// Approximate heap bytes of the node arena, from counts alone: one
    /// arena slot per node plus `M` entries for each live one (packed
    /// nodes are full; a Guttman node may hold fewer or, transiently,
    /// one more).
    pub fn approx_bytes(&self) -> usize {
        self.nodes.len() * std::mem::size_of::<Option<Node>>()
            + self.node_count() * self.config.max_entries * std::mem::size_of::<Entry>()
    }

    /// MBR of everything in the tree, `None` when empty.
    pub fn mbr(&self) -> Option<Rect> {
        self.node(self.root).mbr()
    }

    /// Borrows a node.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not refer to a live node of this tree.
    #[inline]
    pub fn node(&self, id: NodeId) -> &Node {
        self.nodes[id.index()]
            .as_ref()
            .expect("stale or foreign NodeId")
    }

    #[inline]
    pub(crate) fn node_mut(&mut self, id: NodeId) -> &mut Node {
        self.nodes[id.index()]
            .as_mut()
            .expect("stale or foreign NodeId")
    }

    /// An arena with no nodes at all, used by the bottom-up builder so
    /// that packed construction can hand out dense, contiguous ids from
    /// slot 0. The `root` field is a placeholder until `set_root`.
    pub(crate) fn empty_arena(config: RTreeConfig) -> Self {
        RTree {
            nodes: Vec::new(),
            free: Vec::new(),
            root: NodeId(0),
            config,
            len: 0,
        }
    }

    /// Arena slots, live and free: one past the largest [`NodeId`] index.
    pub(crate) fn arena_len(&self) -> usize {
        self.nodes.len()
    }

    pub(crate) fn alloc(&mut self, node: Node) -> NodeId {
        if let Some(id) = self.free.pop() {
            self.nodes[id.index()] = Some(node);
            id
        } else {
            let id = NodeId(u32::try_from(self.nodes.len()).expect("arena overflow"));
            self.nodes.push(Some(node));
            id
        }
    }

    pub(crate) fn dealloc(&mut self, id: NodeId) -> Node {
        let node = self.nodes[id.index()].take().expect("double free");
        self.free.push(id);
        node
    }

    pub(crate) fn set_root(&mut self, id: NodeId) {
        self.root = id;
    }

    pub(crate) fn len_mut(&mut self) -> &mut usize {
        &mut self.len
    }

    /// Iterates over all live `(NodeId, &Node)` pairs in arena order.
    pub fn iter_nodes(&self) -> impl Iterator<Item = (NodeId, &Node)> {
        self.nodes
            .iter()
            .enumerate()
            .filter_map(|(i, slot)| slot.as_ref().map(|n| (NodeId(i as u32), n)))
    }

    /// MBRs of all leaf nodes — the rectangles over which the paper defines
    /// coverage and overlap (§3.1). Empty leaves (only the empty root) are
    /// skipped.
    pub fn leaf_mbrs(&self) -> Vec<Rect> {
        self.iter_nodes()
            .filter(|(_, n)| n.is_leaf())
            .filter_map(|(_, n)| n.mbr())
            .collect()
    }

    /// The node MBRs at one level (level 0 = leaves), depth-first from
    /// the root, children in entry order.
    pub fn mbrs_at_level(&self, level: u32) -> Vec<Rect> {
        let mut out = Vec::new();
        let mut stack = vec![self.root];
        while let Some(id) = stack.pop() {
            let node = self.node(id);
            if node.level == level {
                out.extend(node.mbr());
            } else if node.level > level {
                stack.extend(node.entries.iter().rev().map(|e| e.child.expect_node()));
            }
        }
        out
    }

    /// Checks every structural invariant, returning a description of the
    /// first violation.
    ///
    /// Invariants checked:
    /// 1. the root is live; every child pointer refers to a live node;
    /// 2. every node's entry count is ≤ `M`, and ≥ `m` for non-roots
    ///    (unless the tree was built by a packer, which fills nodes fully
    ///    except possibly one per level — packed trees still satisfy this
    ///    because leftovers are ≥ 1 and merged when below `m` is allowed
    ///    only for the root path; see `builder`);
    /// 3. each internal entry's MBR equals the MBR of its child node
    ///    (minimality, not mere containment);
    /// 4. levels decrease by exactly 1 along every edge, leaves at level 0;
    /// 5. every arena slot is reachable exactly once (no leaks, no sharing);
    /// 6. the recorded item count matches the number of leaf entries.
    pub fn validate(&self) -> Result<(), String> {
        self.validate_with(true)
    }

    /// Like [`validate`](RTree::validate) but with the minimum-fill check
    /// optional; packed trees may legitimately leave the *last* node of a
    /// level under-filled ("one partially-filled node for leftover entries
    /// per level", §3.3).
    pub fn validate_with(&self, check_min_fill: bool) -> Result<(), String> {
        let mut seen = vec![false; self.nodes.len()];
        let mut leaf_items = 0usize;
        let mut stack = vec![(self.root, None::<Rect>, true)];
        while let Some((id, expected_mbr, is_root)) = stack.pop() {
            let slot = self
                .nodes
                .get(id.index())
                .ok_or_else(|| format!("{id}: out of bounds"))?;
            let node = slot
                .as_ref()
                .ok_or_else(|| format!("{id}: freed node reachable"))?;
            if seen[id.index()] {
                return Err(format!("{id}: reachable twice"));
            }
            seen[id.index()] = true;

            if node.len() > self.config.max_entries {
                return Err(format!(
                    "{id}: {} entries > M={}",
                    node.len(),
                    self.config.max_entries
                ));
            }
            if !is_root && check_min_fill && node.len() < self.config.min_entries {
                return Err(format!(
                    "{id}: {} entries < m={}",
                    node.len(),
                    self.config.min_entries
                ));
            }
            if is_root && node.level > 0 && node.len() < 2 {
                return Err(format!("{id}: non-leaf root with {} entries", node.len()));
            }
            if let Some(expect) = expected_mbr {
                match node.mbr() {
                    Some(actual) if actual == expect => {}
                    Some(actual) => {
                        return Err(format!(
                            "{id}: parent entry mbr {expect} != node mbr {actual}"
                        ))
                    }
                    None => return Err(format!("{id}: empty non-root node")),
                }
            }
            for e in &node.entries {
                match e.child {
                    Child::Node(c) => {
                        let child = self
                            .nodes
                            .get(c.index())
                            .and_then(|s| s.as_ref())
                            .ok_or_else(|| format!("{id}: dangling child {c}"))?;
                        if node.level != child.level + 1 {
                            return Err(format!(
                                "{id} (level {}) -> {c} (level {}): levels must step by 1",
                                node.level, child.level
                            ));
                        }
                        stack.push((c, Some(e.mbr), false));
                    }
                    Child::Item(_) => {
                        if !node.is_leaf() {
                            return Err(format!(
                                "{id}: item entry in non-leaf (level {})",
                                node.level
                            ));
                        }
                        leaf_items += 1;
                    }
                }
            }
        }
        // Leak check.
        for (i, slot) in self.nodes.iter().enumerate() {
            if slot.is_some() && !seen[i] {
                return Err(format!("n{i}: live but unreachable (leak)"));
            }
        }
        if leaf_items != self.len {
            return Err(format!(
                "item count {} != recorded len {}",
                leaf_items, self.len
            ));
        }
        Ok(())
    }

    /// Asserts validity, panicking with the violation (test helper).
    #[track_caller]
    pub fn assert_valid(&self) {
        if let Err(e) = self.validate() {
            panic!("invalid R-tree: {e}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::{Entry, ItemId};
    use rtree_geom::Point;

    #[test]
    fn empty_tree_is_valid() {
        let t = RTree::new(RTreeConfig::PAPER);
        t.assert_valid();
        assert!(t.is_empty());
        assert_eq!(t.depth(), 0);
        assert_eq!(t.node_count(), 1);
        assert_eq!(t.mbr(), None);
        assert!(t.leaf_mbrs().is_empty());
    }

    #[test]
    fn mbrs_at_level_partition_by_level() {
        let mut t = RTree::new(RTreeConfig::PAPER);
        for i in 0..100 {
            let p = Point::new((i * 17 % 101) as f64, (i * 29 % 97) as f64);
            t.insert(Rect::from_point(p), ItemId(i));
        }
        let mut total = 0;
        for level in 0..=t.depth() {
            total += t.mbrs_at_level(level).len();
        }
        assert_eq!(total, t.node_count());
        assert_eq!(
            t.mbrs_at_level(t.depth()),
            vec![t.mbr().unwrap()],
            "one root"
        );
    }

    #[test]
    fn arena_recycles_slots() {
        let mut t = RTree::new(RTreeConfig::PAPER);
        let id = t.alloc(Node::new(0));
        assert_eq!(t.node_count(), 2);
        t.dealloc(id);
        assert_eq!(t.node_count(), 1);
        let id2 = t.alloc(Node::new(0));
        assert_eq!(id, id2, "freed slot should be reused");
        t.dealloc(id2);
    }

    #[test]
    #[should_panic(expected = "stale or foreign NodeId")]
    fn stale_node_id_panics() {
        let mut t = RTree::new(RTreeConfig::PAPER);
        let id = t.alloc(Node::new(0));
        t.dealloc(id);
        let _ = t.node(id);
    }

    #[test]
    fn validate_catches_wrong_parent_mbr() {
        let mut t = RTree::new(RTreeConfig::PAPER);
        // Hand-build: root(level 1) -> leaf with one item, but lie about
        // the parent MBR.
        let mut leaf = Node::new(0);
        leaf.entries.push(Entry::item(
            Rect::from_point(Point::new(1.0, 1.0)),
            ItemId(0),
        ));
        leaf.entries.push(Entry::item(
            Rect::from_point(Point::new(2.0, 2.0)),
            ItemId(1),
        ));
        let leaf_id = t.alloc(leaf);
        let mut leaf2 = Node::new(0);
        leaf2.entries.push(Entry::item(
            Rect::from_point(Point::new(5.0, 5.0)),
            ItemId(2),
        ));
        leaf2.entries.push(Entry::item(
            Rect::from_point(Point::new(6.0, 6.0)),
            ItemId(3),
        ));
        let leaf2_id = t.alloc(leaf2);
        let old_root = t.root();
        t.dealloc(old_root);
        let mut root = Node::new(1);
        root.entries
            .push(Entry::node(Rect::new(0.0, 0.0, 9.0, 9.0), leaf_id)); // too big
        root.entries
            .push(Entry::node(Rect::new(5.0, 5.0, 6.0, 6.0), leaf2_id));
        let root_id = t.alloc(root);
        t.set_root(root_id);
        *t.len_mut() = 4;
        let err = t.validate().unwrap_err();
        assert!(err.contains("mbr"), "unexpected error: {err}");
    }
}
