//! Traversal iterators over tree structure.

use crate::node::{Child, Node, NodeId};
use crate::tree::RTree;
use rtree_geom::Rect;

/// Depth-first iterator over `(NodeId, &Node)` starting at the root.
pub struct DfsNodes<'a> {
    tree: &'a RTree,
    stack: Vec<NodeId>,
}

impl<'a> Iterator for DfsNodes<'a> {
    type Item = (NodeId, &'a Node);

    fn next(&mut self) -> Option<Self::Item> {
        let id = self.stack.pop()?;
        let node = self.tree.node(id);
        for e in node.entries.iter().rev() {
            if let Child::Node(c) = e.child {
                self.stack.push(c);
            }
        }
        Some((id, node))
    }
}

impl RTree {
    /// Depth-first traversal of all nodes.
    pub fn dfs(&self) -> DfsNodes<'_> {
        DfsNodes {
            tree: self,
            stack: vec![self.root()],
        }
    }

    /// Collects the node MBRs at a given level (level 0 = leaves).
    pub fn mbrs_at_level(&self, level: u32) -> Vec<Rect> {
        self.dfs()
            .filter(|(_, n)| n.level == level)
            .filter_map(|(_, n)| n.mbr())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RTreeConfig;
    use crate::node::ItemId;
    use rtree_geom::Point;

    fn build(n: u64) -> RTree {
        let mut t = RTree::new(RTreeConfig::PAPER);
        for i in 0..n {
            let x = (i * 17 % 101) as f64;
            let y = (i * 29 % 97) as f64;
            t.insert(Rect::from_point(Point::new(x, y)), ItemId(i));
        }
        t
    }

    #[test]
    fn dfs_visits_every_node_once() {
        let t = build(100);
        let visited: Vec<NodeId> = t.dfs().map(|(id, _)| id).collect();
        assert_eq!(visited.len(), t.node_count());
        let mut dedup = visited.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), visited.len());
    }

    #[test]
    fn mbrs_at_level_partition_by_level() {
        let t = build(100);
        let mut total = 0;
        for level in 0..=t.depth() {
            total += t.mbrs_at_level(level).len();
        }
        assert_eq!(total, t.node_count());
        assert_eq!(t.mbrs_at_level(t.depth()).len(), 1, "one root");
    }
}
