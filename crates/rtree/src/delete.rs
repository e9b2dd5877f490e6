//! Guttman's DELETE: FindLeaf, CondenseTree, orphan re-insertion.
//!
//! §3.4 observes that "INSERT (and analogously DELETE) and PACK can
//! complement each other … in the creation and maintenance of dynamic
//! R-trees"; this module provides the DELETE half.

use crate::node::{Child, Entry, ItemId, NodeId};
use crate::tree::RTree;
use rtree_geom::Rect;

impl RTree {
    /// Removes the entry with exactly this `mbr` and `item`, returning
    /// `true` if it was found.
    ///
    /// Implements Guttman's DELETE: locate the hosting leaf by descending
    /// only entries whose MBR covers `mbr` (FindLeaf); remove the entry;
    /// then CondenseTree — under-filled ancestors are dissolved and their
    /// surviving entries re-inserted at their original level; finally a
    /// single-child non-leaf root is shortened.
    pub fn remove(&mut self, mbr: Rect, item: ItemId) -> bool {
        // FindLeaf with an explicit stack of (node, next-child-index) so
        // the successful path is available for CondenseTree.
        let Some(path) = self.find_leaf_path(&mbr, item) else {
            return false;
        };
        let leaf = *path.last().expect("path includes leaf");
        let node = self.node_mut(leaf);
        let pos = node
            .entries
            .iter()
            .position(|e| e.mbr == mbr && e.child == Child::Item(item))
            .expect("find_leaf_path verified presence");
        node.entries.remove(pos);
        *self.len_mut() -= 1;

        self.condense_tree(&path);
        true
    }

    /// Returns root→leaf node path to a leaf containing the entry, or
    /// `None`.
    fn find_leaf_path(&self, mbr: &Rect, item: ItemId) -> Option<Vec<NodeId>> {
        let mut path = vec![self.root()];
        self.find_leaf_rec(self.root(), mbr, item, &mut path)
            .then_some(path)
    }

    fn find_leaf_rec(&self, id: NodeId, mbr: &Rect, item: ItemId, path: &mut Vec<NodeId>) -> bool {
        let node = self.node(id);
        if node.is_leaf() {
            return node
                .entries
                .iter()
                .any(|e| e.mbr == *mbr && e.child == Child::Item(item));
        }
        for e in &node.entries {
            if e.mbr.covers(mbr) {
                let child = e.child.expect_node();
                path.push(child);
                if self.find_leaf_rec(child, mbr, item, path) {
                    return true;
                }
                path.pop();
            }
        }
        false
    }

    /// CondenseTree over the recorded deletion path.
    fn condense_tree(&mut self, path: &[NodeId]) {
        // Walk from the leaf up to (but excluding) the root.
        let mut eliminated: Vec<(u32, Vec<Entry>)> = Vec::new();
        for window in (1..path.len()).rev() {
            let node_id = path[window];
            let parent_id = path[window - 1];
            let child_idx = self
                .node(parent_id)
                .entries
                .iter()
                .position(|e| e.child == Child::Node(node_id))
                .expect("path parent/child link");
            if self.node(node_id).len() < self.config().min_entries {
                // Eliminate the node; stash its entries for re-insertion.
                self.node_mut(parent_id).entries.remove(child_idx);
                let node = self.dealloc(node_id);
                if !node.entries.is_empty() {
                    eliminated.push((node.level, node.entries));
                }
            } else {
                // Tighten the parent's MBR.
                let mbr = self.node(node_id).mbr().expect("non-empty after check");
                self.node_mut(parent_id).entries[child_idx].mbr = mbr;
            }
        }

        // Re-insert orphaned entries at their original level so non-leaf
        // orphans re-attach whole subtrees. Leaf entries do not re-count
        // the item total (remove already adjusted it).
        for (level, entries) in eliminated {
            for entry in entries {
                // The tree may have shrunk below the orphan's level; in
                // that degenerate case re-insert the subtree's leaf
                // entries instead.
                if level <= self.depth() {
                    self.insert_entry_at_level(entry, level);
                } else {
                    self.reinsert_subtree_items(entry);
                }
            }
        }

        // Shorten a root with a single child.
        while !self.node(self.root()).is_leaf() && self.node(self.root()).len() == 1 {
            let old_root = self.root();
            let child = self.node(old_root).entries[0].child.expect_node();
            self.dealloc(old_root);
            self.set_root(child);
        }
    }

    /// Tears a subtree entry down to leaf entries and inserts each.
    fn reinsert_subtree_items(&mut self, entry: Entry) {
        match entry.child {
            Child::Item(_) => self.insert_entry_at_level(entry, 0),
            Child::Node(id) => {
                let node = self.dealloc(id);
                for e in node.entries {
                    self.reinsert_subtree_items(e);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RTreeConfig;
    use crate::stats::SearchStats;
    use rtree_geom::Point;

    fn pt(x: f64, y: f64) -> Rect {
        Rect::from_point(Point::new(x, y))
    }

    fn scatter(n: u64) -> Vec<(Rect, ItemId)> {
        let mut x = 42u64;
        (0..n)
            .map(|i| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let px = (x >> 33) as f64 % 1000.0;
                let py = (x >> 13) as f64 % 1000.0;
                (pt(px, py), ItemId(i))
            })
            .collect()
    }

    #[test]
    fn remove_missing_returns_false() {
        let mut t = RTree::new(RTreeConfig::PAPER);
        t.insert(pt(1.0, 1.0), ItemId(0));
        assert!(!t.remove(pt(2.0, 2.0), ItemId(0)));
        assert!(!t.remove(pt(1.0, 1.0), ItemId(9)));
        assert_eq!(t.len(), 1);
        t.assert_valid();
    }

    #[test]
    fn insert_then_remove_single() {
        let mut t = RTree::new(RTreeConfig::PAPER);
        t.insert(pt(1.0, 1.0), ItemId(0));
        assert!(t.remove(pt(1.0, 1.0), ItemId(0)));
        assert!(t.is_empty());
        t.assert_valid();
    }

    #[test]
    fn remove_all_in_insertion_order() {
        let items = scatter(120);
        let mut t = RTree::new(RTreeConfig::PAPER);
        for &(r, id) in &items {
            t.insert(r, id);
        }
        for &(r, id) in &items {
            assert!(t.remove(r, id), "missing {id}");
            t.assert_valid();
        }
        assert!(t.is_empty());
        assert_eq!(t.depth(), 0);
    }

    #[test]
    fn remove_all_in_reverse_order() {
        let items = scatter(120);
        let mut t = RTree::new(RTreeConfig::PAPER);
        for &(r, id) in &items {
            t.insert(r, id);
        }
        for &(r, id) in items.iter().rev() {
            assert!(t.remove(r, id));
        }
        t.assert_valid();
        assert!(t.is_empty());
    }

    #[test]
    fn interleaved_insert_remove() {
        let items = scatter(200);
        let mut t = RTree::new(RTreeConfig::PAPER);
        for chunk in items.chunks(20) {
            for &(r, id) in chunk {
                t.insert(r, id);
            }
            // Remove half of what we just added.
            for &(r, id) in &chunk[..10] {
                assert!(t.remove(r, id));
            }
            t.assert_valid();
        }
        assert_eq!(t.len(), 100);
        // Every surviving item is still findable.
        let mut stats = SearchStats::default();
        for chunk in items.chunks(20) {
            for &(r, id) in &chunk[10..] {
                let found = t.search_intersecting(&r, &mut stats);
                assert!(found.contains(&id), "{id} lost");
            }
        }
    }

    #[test]
    fn remove_one_of_duplicates() {
        let mut t = RTree::new(RTreeConfig::PAPER);
        for i in 0..10 {
            t.insert(pt(5.0, 5.0), ItemId(i));
        }
        assert!(t.remove(pt(5.0, 5.0), ItemId(3)));
        assert!(!t.remove(pt(5.0, 5.0), ItemId(3)));
        assert_eq!(t.len(), 9);
        t.assert_valid();
    }

    /// Delete-heavy randomized stress across seeds, branching factors and
    /// split policies, running the full invariant validator after every
    /// single removal. Exercises the CondenseTree edge cases: internal
    /// orphans re-attached at their original level, orphans whose level
    /// exceeds the (shrunken) tree depth, duplicate rectangles, and
    /// cascading eliminations from consecutive deletes.
    #[test]
    fn condense_orphan_stress_randomized() {
        use crate::config::SplitPolicy;
        let configs = [
            RTreeConfig::new(3, 1, SplitPolicy::Linear),
            RTreeConfig::new(4, 2, SplitPolicy::Quadratic),
            RTreeConfig::new(5, 2, SplitPolicy::Exhaustive),
            RTreeConfig::PAPER,
        ];
        for &seed in &[3u64, 17, 1985] {
            for config in configs {
                let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
                let mut next = move || {
                    s = s
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    s >> 33
                };
                let ctx = format!("seed {seed}, config {config:?}");
                let mut t = RTree::new(config);
                let mut live: Vec<(Rect, ItemId)> = Vec::new();
                let mut next_id = 0u64;
                for step in 0..600 {
                    // Grow first, then bias hard toward deletion so the
                    // tree repeatedly shrinks through underflow cascades.
                    let insert_pct = if step < 250 { 65 } else { 25 };
                    if live.is_empty() || next() % 100 < insert_pct {
                        // 1-in-4 inserts duplicate an existing rectangle,
                        // so FindLeaf must disambiguate by item id.
                        let rect = if !live.is_empty() && next() % 4 == 0 {
                            live[next() as usize % live.len()].0
                        } else {
                            pt((next() % 1000) as f64, (next() % 1000) as f64)
                        };
                        let id = ItemId(next_id);
                        next_id += 1;
                        t.insert(rect, id);
                        live.push((rect, id));
                    } else {
                        let (rect, id) = live.swap_remove(next() as usize % live.len());
                        assert!(t.remove(rect, id), "{ctx}: step {step}: {id:?} missing");
                        t.assert_valid();
                    }
                    assert_eq!(t.len(), live.len(), "{ctx}: step {step}");
                }
                // Drain to empty, validating the depth-shrink path (incl.
                // orphans above the new depth) on every removal.
                while let Some((rect, id)) = live.pop() {
                    assert!(t.remove(rect, id), "{ctx}: drain: {id:?} missing");
                    t.assert_valid();
                }
                assert!(t.is_empty(), "{ctx}");
                assert_eq!(t.depth(), 0, "{ctx}");
            }
        }
    }

    #[test]
    fn condense_shrinks_depth() {
        let items = scatter(200);
        let mut t = RTree::new(RTreeConfig::PAPER);
        for &(r, id) in &items {
            t.insert(r, id);
        }
        let deep = t.depth();
        for &(r, id) in &items[..190] {
            assert!(t.remove(r, id));
        }
        t.assert_valid();
        assert!(t.depth() < deep, "depth should shrink after mass deletion");
    }
}
