//! Node access — the one interface every traversal is written against.
//!
//! The paper has one `SEARCH` (§3.1) and one juxtaposition descent
//! (§2.2). A storage form of the tree (the pointer arena of [`RTree`],
//! the SoA arena of [`FrozenRTree`](crate::FrozenRTree), a future
//! backend) describes its nodes through [`NodeAccess`] and inherits the
//! window and k-NN traversals of this crate and the join of `psql` — the
//! same loops, visit order and counters for all. The point query is the
//! window search over the point's rectangle.

use crate::knn::{knn_traverse, KnnScratch, Neighbor};
use crate::node::{ItemId, Node, NodeId};
use crate::search::{window_traverse, NoStats, SearchScratch};
use crate::stats::SearchStats;
use crate::tree::RTree;
use rtree_geom::{Point, Rect};

/// Read access to an R-tree's nodes, entry by entry.
///
/// Entries of a node are numbered by **lane**, `0..entry_count(node)`.
/// Pruning asks for lanes 64 at a time: chunk `c` covers lanes
/// `[64 c, 64 c + 64)` and answers with a hit mask whose bit `i` stands
/// for lane `64 c + i`, so a traversal is a loop over
/// `fanout().div_ceil(64)` chunks whatever the branching factor (and
/// no loop at all, at compile time, for the usual single chunk). Each
/// layout evaluates a chunk its own way — a per-entry loop, a fold over
/// coordinate planes — and all must return the same bits and distances.
///
/// The trait is infallible: page-backed trees, whose node reads can
/// fail, share their own loop in `rtree-storage` instead.
pub trait NodeAccess {
    /// The root node.
    fn root(&self) -> NodeId;
    /// The branching factor: no node holds more entries.
    fn fanout(&self) -> usize;
    /// `true` if `node`'s entries point at items.
    fn is_leaf(&self, node: NodeId) -> bool;
    /// Valid entries of `node` (the paper's `VALID`).
    fn entry_count(&self, node: NodeId) -> usize;
    /// Rectangle of entry `lane`.
    fn lane_mbr(&self, node: NodeId, lane: usize) -> Rect;
    /// Child of internal entry `lane`.
    fn child_node(&self, node: NodeId, lane: usize) -> NodeId;
    /// Item of leaf entry `lane`.
    fn child_item(&self, node: NodeId, lane: usize) -> ItemId;

    /// Lanes of `chunk` `WITHIN` (covered by) `window`.
    fn mask_within(&self, node: NodeId, chunk: usize, window: &Rect) -> u64;
    /// Lanes of `chunk` that `INTERSECTS` `window`.
    fn mask_intersects(&self, node: NodeId, chunk: usize, window: &Rect) -> u64;
    /// `min_distance_sq(p)` of the first `out.len()` lanes of `chunk`,
    /// all of which must be valid — bit for bit what
    /// [`Rect::min_distance_sq`] returns.
    fn lane_distances(&self, node: NodeId, chunk: usize, p: Point, out: &mut [f64]);

    /// Minimal rectangle bounding `node`'s entries, `None` if it has
    /// none.
    fn node_mbr(&self, node: NodeId) -> Option<Rect> {
        Rect::mbr_of_rects((0..self.entry_count(node)).map(|lane| self.lane_mbr(node, lane)))
    }

    /// All `(mbr, item)` pairs at the leaf level. A depth-first walk
    /// that visits a node's children last lane first and reports a
    /// leaf's entries first lane first; the order depends only on the
    /// tree's shape, so every form of one tree lists its items alike.
    fn items(&self) -> Vec<(Rect, ItemId)> {
        let mut out = Vec::new();
        let mut stack = vec![self.root()];
        while let Some(node) = stack.pop() {
            for lane in 0..self.entry_count(node) {
                if self.is_leaf(node) {
                    out.push((self.lane_mbr(node, lane), self.child_item(node, lane)));
                } else {
                    stack.push(self.child_node(node, lane));
                }
            }
        }
        out
    }

    /// The paper's `SEARCH` (§3.1): descend entries that `INTERSECTS`
    /// `window`, report leaf entries `WITHIN` it (`within`) or
    /// intersecting it. Hits land in, and are borrowed from, `scratch`;
    /// `stats`, if given, accumulates the Table 1 counters.
    fn search_window<'s>(
        &self,
        window: &Rect,
        within: bool,
        scratch: &'s mut SearchScratch,
        stats: Option<&mut SearchStats>,
    ) -> &'s [ItemId] {
        let SearchScratch { frontier, out, .. } = scratch;
        match (self.fanout().div_ceil(64), stats) {
            (1, Some(stats)) => {
                window_traverse::<true, _, _>(self, window, within, frontier, stats, out)
            }
            (1, None) => {
                window_traverse::<true, _, _>(self, window, within, frontier, &mut NoStats, out)
            }
            (_, Some(stats)) => {
                window_traverse::<false, _, _>(self, window, within, frontier, stats, out)
            }
            (_, None) => {
                window_traverse::<false, _, _>(self, window, within, frontier, &mut NoStats, out)
            }
        }
        out
    }

    /// The `k` items nearest to `p`, ascending by distance — best-first
    /// branch and bound.
    fn search_nearest<'s>(
        &self,
        p: Point,
        k: usize,
        scratch: &'s mut KnnScratch,
        stats: Option<&mut SearchStats>,
    ) -> &'s [Neighbor] {
        let KnnScratch { heap, out } = scratch;
        match (self.fanout().div_ceil(64), stats) {
            (1, Some(stats)) => knn_traverse::<true, _, _>(self, p, k, stats, heap, out),
            (1, None) => knn_traverse::<true, _, _>(self, p, k, &mut NoStats, heap, out),
            (_, Some(stats)) => knn_traverse::<false, _, _>(self, p, k, stats, heap, out),
            (_, None) => knn_traverse::<false, _, _>(self, p, k, &mut NoStats, heap, out),
        }
        out
    }
}

/// The hit mask of one chunk of a pointer-tree node: the per-entry loop
/// of the paper's `SEARCH`. A branch per entry, not a branchless fold:
/// at 1M points, where every node is a cache miss, the fold made window
/// queries a quarter slower (the core cannot run ahead of a mask it has
/// to wait for; it can run ahead of a predicted branch).
#[inline(always)]
fn entry_mask(node: &Node, chunk: usize, hit: impl Fn(&Rect) -> bool) -> u64 {
    let lanes = node.entries.get(chunk * 64..).unwrap_or_default();
    let mut mask = 0;
    for (lane, e) in lanes.iter().take(64).enumerate() {
        if hit(&e.mbr) {
            mask |= 1 << lane;
        }
    }
    mask
}

impl NodeAccess for RTree {
    fn root(&self) -> NodeId {
        RTree::root(self)
    }

    fn fanout(&self) -> usize {
        self.config().max_entries
    }

    fn is_leaf(&self, node: NodeId) -> bool {
        self.node(node).is_leaf()
    }

    fn entry_count(&self, node: NodeId) -> usize {
        self.node(node).len()
    }

    fn lane_mbr(&self, node: NodeId, lane: usize) -> Rect {
        self.node(node).entries[lane].mbr
    }

    fn child_node(&self, node: NodeId, lane: usize) -> NodeId {
        self.node(node).entries[lane].child.expect_node()
    }

    fn child_item(&self, node: NodeId, lane: usize) -> ItemId {
        self.node(node).entries[lane].child.expect_item()
    }

    fn mask_within(&self, node: NodeId, chunk: usize, window: &Rect) -> u64 {
        entry_mask(self.node(node), chunk, |mbr| mbr.covered_by(window))
    }

    fn mask_intersects(&self, node: NodeId, chunk: usize, window: &Rect) -> u64 {
        entry_mask(self.node(node), chunk, |mbr| mbr.intersects(window))
    }

    fn lane_distances(&self, node: NodeId, chunk: usize, p: Point, out: &mut [f64]) {
        let lanes = self.node(node).entries[chunk * 64..].iter();
        for (d, e) in out.iter_mut().zip(lanes) {
            *d = e.mbr.min_distance_sq(p);
        }
    }
}
