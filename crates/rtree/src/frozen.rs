//! A frozen (immutable, cache-conscious) layout of a packed R-tree.
//!
//! The pointer tree ([`RTree`]) is logically optimal after PACK but
//! physically naive: every node owns its own `Vec<Entry>`, so a query
//! chases one heap pointer per node and the MBR comparisons load
//! interleaved `Rect` fields. [`FrozenRTree`] holds the same tree in one
//! contiguous arena, which PACK writes directly (`pack_frozen`, through
//! [`ArenaBuilder`](crate::ArenaBuilder)); [`FrozenRTree::freeze`]
//! compiles a Guttman tree, or the oracle for PACK, into it:
//!
//! * **Breadth-first, level-major node order.** Node 0 is the root, its
//!   children follow, then theirs — a query's working set is a dense
//!   prefix of the arena, and "node id" degenerates to an array index.
//! * **Node-major SoA coordinate planes.** Entry rectangles are split
//!   into four `f64` planes (`x1/y1/x2/y2` = min-x/min-y/max-x/max-y)
//!   of `fanout` lanes each, and a node's four planes are stored as
//!   one contiguous block (`[x1 lanes][y1 lanes][x2 lanes][y2 lanes]`,
//!   `4 * fanout` doubles). Window pruning is a branchless compare
//!   over contiguous lanes, folded into a hit mask, and one node visit
//!   touches two-to-three cache lines (128 bytes at `M = 4`) instead
//!   of the four half-used lines that tree-wide planes would cost.
//! * **NaN padding lanes.** Nodes with fewer than `fanout` entries pad
//!   the remaining lanes with `NaN` rectangles. Every query predicate in
//!   the engine (`INTERSECTS`, `WITHIN`, `contains_point`) is a pure
//!   conjunction of `<=`/`>=` comparisons, and every comparison against
//!   NaN is `false` — so padding lanes can never match *any* window,
//!   including NaN or degenerate ones, and never perturb a counter.
//!   (`±inf` sentinels would not be safe: an infinite query window
//!   would match them.)
//!
//! The arena implements [`NodeAccess`], so its queries are the very
//! traversals the pointer tree runs — window and point search descend
//! one level at a time, appending a node's matching children lowest-lane
//! first (window) or highest-lane first (point); k-NN keeps one
//! best-first heap discipline — and a frozen tree returns **identical
//! result sequences and identical [`SearchStats`] counters**, verified by
//! the `rtree-oracle` differential fuzzer's fourth execution level.
//! Breadth-first node order suits the level-order descent: a level's
//! visited nodes are independent loads that lie in one band of the
//! arena, so their cache misses overlap.

use crate::access::NodeAccess;
use crate::config::RTreeConfig;
use crate::knn::{KnnScratch, Neighbor};
use crate::node::{Child, ItemId, NodeId};
use crate::search::{BatchScratch, SearchScratch};
use crate::stats::SearchStats;
use crate::tree::RTree;
use rtree_geom::{Point, Rect};

/// An immutable R-tree compiled into one contiguous SoA arena.
///
/// Written by PACK directly, or compiled from a pointer [`RTree`] with
/// [`freeze`](FrozenRTree::freeze); answers the full query surface with
/// results and counters bit-identical to the pointer tree.
#[derive(Debug, Clone)]
pub struct FrozenRTree {
    config: RTreeConfig,
    /// Lanes per node — the branching factor `M` the tree was built with.
    fanout: usize,
    /// Nodes in the arena (BFS order, root first).
    num_nodes: u32,
    /// BFS index of the first leaf; level-major order puts all leaves in
    /// one contiguous suffix, so `index >= leaf_start` is the leaf test.
    leaf_start: u32,
    depth: u32,
    len: usize,
    /// Node-major SoA coordinate storage: node `n` owns the block
    /// `[n * 4 * fanout, (n + 1) * 4 * fanout)`, laid out as its four
    /// `fanout`-lane planes `[x1][y1][x2][y2]`; unused lanes hold NaN.
    coords: Vec<f64>,
    /// Per-lane pointer plane: child BFS index for internal lanes, raw
    /// [`ItemId`] for leaf lanes, 0 for padding.
    ids: Vec<u64>,
    /// Valid entries per node (the paper's `VALID`).
    counts: Vec<u32>,
}

/// Structural equality, bitwise on coordinates.
///
/// Derived `PartialEq` would be wrong here: padding lanes hold NaN, and
/// `NaN != NaN` would make every tree unequal to itself. Comparing
/// coordinate bits instead gives the equality the differential suites
/// actually assert — two arenas are equal iff every plane, pointer and
/// count is bit-for-bit the same.
impl PartialEq for FrozenRTree {
    fn eq(&self, other: &Self) -> bool {
        self.config == other.config
            && self.fanout == other.fanout
            && self.num_nodes == other.num_nodes
            && self.leaf_start == other.leaf_start
            && self.depth == other.depth
            && self.len == other.len
            && self.ids == other.ids
            && self.counts == other.counts
            && self.coords.len() == other.coords.len()
            && self
                .coords
                .iter()
                .zip(&other.coords)
                .all(|(a, b)| a.to_bits() == b.to_bits())
    }
}

impl Eq for FrozenRTree {}

impl FrozenRTree {
    /// Compiles a pointer tree into the frozen layout.
    ///
    /// Nodes are laid out breadth-first from the root, children enqueued
    /// in entry order, so siblings are adjacent and — the tree being
    /// height-balanced — levels form contiguous runs with the leaves last.
    ///
    /// # Panics
    ///
    /// Panics if a node holds more than `config().max_entries` entries or
    /// if a node is reached twice (the node graph is not a tree).
    pub fn freeze(tree: &RTree) -> FrozenRTree {
        let config = tree.config();
        let fanout = config.max_entries;
        // Pass 1: the BFS visit order, which doubles as the queue, and
        // each visited arena slot's BFS index.
        let mut order = vec![tree.root()];
        let mut bfs_index = vec![u32::MAX; tree.arena_len()];
        bfs_index[tree.root().index()] = 0;
        let mut head = 0;
        while let Some(&id) = order.get(head) {
            head += 1;
            let node = tree.node(id);
            assert!(
                node.len() <= fanout,
                "node {id} holds {} entries > branching factor {fanout}",
                node.len()
            );
            for e in &node.entries {
                if let Child::Node(c) = e.child {
                    let slot = &mut bfs_index[c.index()];
                    assert!(*slot == u32::MAX, "node {c} reached through two parents");
                    *slot = order.len() as u32;
                    order.push(c);
                }
            }
        }

        // Pass 2: fill the node-major SoA blocks, NaN-padding unused
        // lanes.
        let num_nodes = order.len() as u32;
        let lanes = order.len() * fanout;
        let mut coords = vec![f64::NAN; 4 * lanes];
        let mut ids = vec![0u64; lanes];
        let mut counts = vec![0u32; order.len()];
        let mut leaf_start = num_nodes.saturating_sub(1);
        for (n, &id) in order.iter().enumerate() {
            let node = tree.node(id);
            if node.is_leaf() {
                leaf_start = leaf_start.min(n as u32);
            }
            counts[n] = node.len() as u32;
            let block = n * 4 * fanout;
            for (lane, e) in node.entries.iter().enumerate() {
                coords[block + lane] = e.mbr.min_x;
                coords[block + fanout + lane] = e.mbr.min_y;
                coords[block + 2 * fanout + lane] = e.mbr.max_x;
                coords[block + 3 * fanout + lane] = e.mbr.max_y;
                ids[n * fanout + lane] = match e.child {
                    Child::Node(c) => bfs_index[c.index()] as u64,
                    Child::Item(item) => item.0,
                };
            }
        }

        FrozenRTree::from_planes(
            config,
            leaf_start,
            tree.depth(),
            tree.len(),
            coords,
            ids,
            counts,
        )
    }

    /// An arena from its finished planes, laid out as [`freeze`](Self::freeze)
    /// lays them: node-major blocks of `4 * M` coordinates and `M` ids, one
    /// count per node, BFS order with the leaves from `leaf_start` on.
    pub(crate) fn from_planes(
        config: RTreeConfig,
        leaf_start: u32,
        depth: u32,
        len: usize,
        coords: Vec<f64>,
        ids: Vec<u64>,
        counts: Vec<u32>,
    ) -> FrozenRTree {
        let fanout = config.max_entries;
        assert_eq!(ids.len(), counts.len() * fanout, "one id lane per slot");
        assert_eq!(coords.len(), 4 * ids.len(), "four coordinates per slot");
        FrozenRTree {
            config,
            fanout,
            num_nodes: u32::try_from(counts.len()).expect("arena overflow"),
            leaf_start,
            depth,
            len,
            coords,
            ids,
            counts,
        }
    }

    /// The configuration of the source tree.
    pub fn config(&self) -> RTreeConfig {
        self.config
    }

    /// Lanes per node — the branching factor the planes are padded to.
    pub fn fanout(&self) -> usize {
        self.fanout
    }

    /// Number of indexed items.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if no items are indexed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Root level — 0 for a single-leaf tree.
    pub fn depth(&self) -> u32 {
        self.depth
    }

    /// Number of nodes in the arena.
    pub fn node_count(&self) -> usize {
        self.num_nodes as usize
    }

    /// Heap bytes of the arena's planes.
    pub fn approx_bytes(&self) -> usize {
        std::mem::size_of_val(&self.coords[..])
            + std::mem::size_of_val(&self.ids[..])
            + std::mem::size_of_val(&self.counts[..])
    }

    /// The four `fanout()`-lane coordinate planes `(x1, y1, x2, y2)` of
    /// the node at `index` — contiguous slices of the node's SoA block;
    /// padding lanes hold NaN.
    #[inline(always)]
    pub fn node_planes(&self, index: u32) -> (&[f64], &[f64], &[f64], &[f64]) {
        let block = index as usize * 4 * self.fanout;
        let b = &self.coords[block..block + 4 * self.fanout];
        let (x1, rest) = b.split_at(self.fanout);
        let (y1, rest) = rest.split_at(self.fanout);
        let (x2, y2) = rest.split_at(self.fanout);
        (x1, y1, x2, y2)
    }

    /// Lanes `[64 chunk, end)` of `node`'s four planes, 64 at most. The
    /// `lanes` kernels fold them up to `fanout`, NaN padding included
    /// (padding lanes fail every comparison).
    #[inline(always)]
    fn chunk_planes(
        &self,
        node: NodeId,
        chunk: usize,
        end: usize,
    ) -> (&[f64], &[f64], &[f64], &[f64]) {
        let (x1, y1, x2, y2) = self.node_planes(node.0);
        let lo = chunk * 64;
        let hi = end.min(lo + 64);
        (&x1[lo..hi], &y1[lo..hi], &x2[lo..hi], &y2[lo..hi])
    }

    /// Minimal rectangle bounding everything indexed (the root's MBR).
    pub fn mbr(&self) -> Option<Rect> {
        self.node_mbr(self.root())
    }

    /// The paper's `SEARCH` (§3.1) on the frozen layout; results and
    /// counters are identical to [`RTree::search_within`].
    pub fn search_within(&self, window: &Rect, stats: &mut SearchStats) -> Vec<ItemId> {
        self.search_window(window, true, &mut SearchScratch::new(), Some(stats))
            .to_vec()
    }

    /// Intersection search; identical to [`RTree::search_intersecting`].
    pub fn search_intersecting(&self, window: &Rect, stats: &mut SearchStats) -> Vec<ItemId> {
        self.search_window(window, false, &mut SearchScratch::new(), Some(stats))
            .to_vec()
    }

    /// One window query per entry of `windows` (`WITHIN` when `within`,
    /// intersection otherwise), answered in input order. A plain loop
    /// over [`search_window`](NodeAccess::search_window), kept only
    /// because `sysbench`'s `rtree.batch_window_us` probe calls it.
    pub fn batch_windows(
        &self,
        windows: &[Rect],
        within: bool,
        scratch: &mut BatchScratch,
    ) -> Vec<Vec<ItemId>> {
        windows
            .iter()
            .map(|w| self.search_window(w, within, scratch, None).to_vec())
            .collect()
    }

    /// [`search_within`](Self::search_within) without statistics or
    /// per-call allocation.
    pub fn search_within_into<'s>(
        &self,
        window: &Rect,
        scratch: &'s mut SearchScratch,
    ) -> &'s [ItemId] {
        self.search_window(window, true, scratch, None)
    }

    /// [`search_intersecting`](Self::search_intersecting) without
    /// statistics or per-call allocation.
    pub fn search_intersecting_into<'s>(
        &self,
        window: &Rect,
        scratch: &'s mut SearchScratch,
    ) -> &'s [ItemId] {
        self.search_window(window, false, scratch, None)
    }

    /// The Table 1 point query; identical to [`RTree::point_query`].
    pub fn point_query(&self, p: Point, stats: &mut SearchStats) -> Vec<ItemId> {
        self.search_point(p, &mut SearchScratch::new(), Some(stats))
            .to_vec()
    }

    /// [`point_query`](Self::point_query) without statistics or per-call
    /// allocation.
    pub fn point_query_into<'s>(&self, p: Point, scratch: &'s mut SearchScratch) -> &'s [ItemId] {
        self.search_point(p, scratch, None)
    }

    /// Best-first k-NN; neighbours and counters are identical to
    /// [`RTree::nearest_neighbors`].
    pub fn nearest_neighbors(&self, p: Point, k: usize, stats: &mut SearchStats) -> Vec<Neighbor> {
        self.search_nearest(p, k, &mut KnnScratch::new(), Some(stats))
            .to_vec()
    }

    /// [`nearest_neighbors`](Self::nearest_neighbors) without statistics
    /// or per-call allocation.
    pub fn nearest_neighbors_into<'s>(
        &self,
        p: Point,
        k: usize,
        scratch: &'s mut KnnScratch,
    ) -> &'s [Neighbor] {
        self.search_nearest(p, k, scratch, None)
    }
}

/// Node ids are BFS arena indices. The mask and distance methods hand a
/// chunk of the node's coordinate planes to the `lanes` kernels (NaN
/// padding lanes never set a bit), so the shared traversals visit,
/// report and count exactly as on the pointer tree.
impl NodeAccess for FrozenRTree {
    fn root(&self) -> NodeId {
        NodeId(0)
    }

    fn fanout(&self) -> usize {
        self.fanout
    }

    #[inline(always)]
    fn is_leaf(&self, node: NodeId) -> bool {
        node.0 >= self.leaf_start
    }

    fn entry_count(&self, node: NodeId) -> usize {
        self.counts[node.index()] as usize
    }

    fn lane_mbr(&self, node: NodeId, lane: usize) -> Rect {
        debug_assert!(lane < self.entry_count(node));
        let block = node.index() * 4 * self.fanout;
        Rect::new(
            self.coords[block + lane],
            self.coords[block + self.fanout + lane],
            self.coords[block + 2 * self.fanout + lane],
            self.coords[block + 3 * self.fanout + lane],
        )
    }

    #[inline(always)]
    fn child_node(&self, node: NodeId, lane: usize) -> NodeId {
        debug_assert!(!self.is_leaf(node));
        NodeId(self.ids[node.index() * self.fanout + lane] as u32)
    }

    #[inline(always)]
    fn child_item(&self, node: NodeId, lane: usize) -> ItemId {
        debug_assert!(self.is_leaf(node));
        ItemId(self.ids[node.index() * self.fanout + lane])
    }

    #[inline(always)]
    fn mask_within(&self, node: NodeId, chunk: usize, window: &Rect) -> u64 {
        let (x1, y1, x2, y2) = self.chunk_planes(node, chunk, self.fanout);
        lanes::within(x1, y1, x2, y2, window)
    }

    #[inline(always)]
    fn mask_intersects(&self, node: NodeId, chunk: usize, window: &Rect) -> u64 {
        let (x1, y1, x2, y2) = self.chunk_planes(node, chunk, self.fanout);
        lanes::intersects(x1, y1, x2, y2, window)
    }

    #[inline(always)]
    fn mask_point(&self, node: NodeId, chunk: usize, p: Point) -> u64 {
        let (x1, y1, x2, y2) = self.chunk_planes(node, chunk, self.fanout);
        lanes::point(x1, y1, x2, y2, p)
    }

    fn lane_distances(&self, node: NodeId, chunk: usize, p: Point, out: &mut [f64]) {
        let (x1, y1, x2, y2) = self.chunk_planes(node, chunk, chunk * 64 + out.len());
        lanes::distances(x1, y1, x2, y2, p, out)
    }
}

/// The predicates of the paper's `SEARCH` over one node's coordinate
/// planes: query operand against plane operand, folded with `&`, so a
/// NaN padding lane fails every predicate. The mask functions take
/// equal-length slices of at most 64 lanes, and bit `i` of the mask is
/// set iff lane `i` satisfies the predicate.
mod lanes {
    use rtree_geom::{Point, Rect};

    /// `WITHIN`: lane rectangle covered by `w`
    /// (`w.min <= lane.min && lane.max <= w.max`, both axes).
    #[inline]
    pub(super) fn within(x1: &[f64], y1: &[f64], x2: &[f64], y2: &[f64], w: &Rect) -> u64 {
        let mut mask = 0u64;
        for lane in 0..x1.len() {
            let hit = (w.min_x <= x1[lane])
                & (w.min_y <= y1[lane])
                & (x2[lane] <= w.max_x)
                & (y2[lane] <= w.max_y);
            mask |= (hit as u64) << lane;
        }
        mask
    }

    /// `INTERSECTS`: lane rectangle shares at least a point with `w`.
    #[inline]
    pub(super) fn intersects(x1: &[f64], y1: &[f64], x2: &[f64], y2: &[f64], w: &Rect) -> u64 {
        let mut mask = 0u64;
        for lane in 0..x1.len() {
            let hit = (x1[lane] <= w.max_x)
                & (w.min_x <= x2[lane])
                & (y1[lane] <= w.max_y)
                & (w.min_y <= y2[lane]);
            mask |= (hit as u64) << lane;
        }
        mask
    }

    /// `contains_point`: lane rectangle contains `p`.
    #[inline]
    pub(super) fn point(x1: &[f64], y1: &[f64], x2: &[f64], y2: &[f64], p: Point) -> u64 {
        let mut mask = 0u64;
        for lane in 0..x1.len() {
            let hit = (x1[lane] <= p.x) & (p.x <= x2[lane]) & (y1[lane] <= p.y) & (p.y <= y2[lane]);
            mask |= (hit as u64) << lane;
        }
        mask
    }

    /// `min_distance_sq(p)` per lane, written into `out` (as long as the
    /// planes; may exceed 64) — [`Rect::min_distance_sq`] bit for bit.
    #[inline]
    pub(super) fn distances(
        x1: &[f64],
        y1: &[f64],
        x2: &[f64],
        y2: &[f64],
        p: Point,
        out: &mut [f64],
    ) {
        for lane in 0..out.len() {
            // `Rect::min_distance_sq` unrolled over the planes.
            let dx = (x1[lane] - p.x).max(0.0).max(p.x - x2[lane]);
            let dy = (y1[lane] - p.y).max(0.0).max(p.y - y2[lane]);
            out[lane] = dx * dx + dy * dy;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn pt(x: f64, y: f64) -> Rect {
        Rect::from_point(Point::new(x, y))
    }

    fn build(n: usize) -> RTree {
        let mut t = RTree::new(RTreeConfig::PAPER);
        for i in 0..n {
            let x = (i % 23) as f64 * 3.0 + (i as f64 * 0.01);
            let y = (i / 23) as f64 * 4.0;
            t.insert(pt(x, y), ItemId(i as u64));
        }
        t
    }

    #[test]
    fn planes_are_padded_to_fanout() {
        let tree = build(57);
        let f = FrozenRTree::freeze(&tree);
        let lanes = f.node_count() * f.fanout();
        // Every lane beyond a node's count is a NaN sentinel in all four
        // of the node's planes.
        let mut padding = 0;
        for n in 0..f.node_count() as u32 {
            let (x1, y1, x2, y2) = f.node_planes(n);
            assert_eq!(x1.len(), f.fanout());
            assert_eq!(y1.len(), f.fanout());
            assert_eq!(x2.len(), f.fanout());
            assert_eq!(y2.len(), f.fanout());
            for lane in f.entry_count(NodeId(n))..f.fanout() {
                assert!(
                    x1[lane].is_nan()
                        && y1[lane].is_nan()
                        && x2[lane].is_nan()
                        && y2[lane].is_nan()
                );
                padding += 1;
            }
        }
        assert_eq!(
            padding,
            lanes - tree.iter_nodes().map(|(_, n)| n.len()).sum::<usize>()
        );
    }

    #[test]
    fn bfs_order_is_level_major() {
        let tree = build(200);
        let f = FrozenRTree::freeze(&tree);
        // The defining BFS property: concatenating the child lists of
        // nodes 0, 1, 2, … yields exactly the indices 1..num_nodes in
        // order — siblings adjacent, levels in contiguous runs, leaves a
        // contiguous suffix.
        let mut expected = 1u32;
        for node in (0..f.node_count() as u32).map(NodeId) {
            if f.is_leaf(node) {
                continue;
            }
            for lane in 0..f.entry_count(node) {
                assert_eq!(f.child_node(node, lane), NodeId(expected));
                expected += 1;
            }
        }
        assert_eq!(expected as usize, f.node_count());
        assert_eq!(f.depth(), tree.depth());
        assert_eq!(f.node_count(), tree.node_count());
        assert_eq!(f.len(), tree.len());
        assert_eq!(f.mbr(), tree.mbr());
    }

    #[test]
    fn padding_lanes_never_match_any_window() {
        let tree = build(57);
        let f = FrozenRTree::freeze(&tree);
        let t_stats = &mut SearchStats::default();
        let f_stats = &mut SearchStats::default();
        // Regular, degenerate, infinite, and NaN windows (the
        // `intersection_area` NaN-guard vectors from the geometry
        // tests): a padding lane must never contribute a hit or a node
        // visit under any of them.
        // (Struct literals: `Rect::new` debug-asserts finiteness, but the
        // search predicates operate on raw fields and must stay safe for
        // any bit pattern.)
        let windows = [
            Rect::new(0.0, 0.0, 30.0, 30.0),
            Rect::new(5.0, 5.0, 5.0, 5.0),
            Rect {
                min_x: f64::NEG_INFINITY,
                min_y: f64::NEG_INFINITY,
                max_x: f64::INFINITY,
                max_y: f64::INFINITY,
            },
            Rect {
                min_x: f64::NAN,
                min_y: 0.0,
                max_x: 10.0,
                max_y: 10.0,
            },
            Rect {
                min_x: 0.0,
                min_y: 0.0,
                max_x: f64::NAN,
                max_y: f64::NAN,
            },
        ];
        for w in &windows {
            assert_eq!(f.search_within(w, f_stats), tree.search_within(w, t_stats));
            assert_eq!(
                f.search_intersecting(w, f_stats),
                tree.search_intersecting(w, t_stats)
            );
        }
        assert_eq!(f_stats, t_stats);
    }

    #[test]
    fn frozen_matches_pointer_tree_on_all_paths() {
        let tree = build(300);
        let f = FrozenRTree::freeze(&tree);
        let mut ts = SearchStats::default();
        let mut fs = SearchStats::default();
        let mut t_scratch = SearchScratch::new();
        let mut f_scratch = SearchScratch::new();
        for q in 0..40 {
            let g = q as f64;
            let w = Rect::new(g, g * 0.7, g + 15.0, g * 0.7 + 12.0);
            assert_eq!(
                f.search_within(&w, &mut fs),
                tree.search_within(&w, &mut ts)
            );
            assert_eq!(
                f.search_intersecting(&w, &mut fs),
                tree.search_intersecting(&w, &mut ts)
            );
            assert_eq!(
                f.search_within_into(&w, &mut f_scratch),
                tree.search_within_into(&w, &mut t_scratch)
            );
            let p = Point::new(g * 1.5, g);
            assert_eq!(f.point_query(p, &mut fs), tree.point_query(p, &mut ts));
            assert_eq!(
                f.point_query_into(p, &mut f_scratch),
                tree.point_query_into(p, &mut t_scratch)
            );
            let fk = f.nearest_neighbors(p, 9, &mut fs);
            let tk = tree.nearest_neighbors(p, 9, &mut ts);
            assert_eq!(fk, tk);
        }
        assert_eq!(fs, ts, "frozen counters diverged from pointer tree");
        assert_eq!(f.items(), tree.items());
    }

    /// Random planes with NaN padding sprinkled in.
    fn random_planes(rng: &mut StdRng, n: usize) -> (Vec<f64>, Vec<f64>, Vec<f64>, Vec<f64>) {
        let mut x1 = Vec::with_capacity(n);
        let mut y1 = Vec::with_capacity(n);
        let mut x2 = Vec::with_capacity(n);
        let mut y2 = Vec::with_capacity(n);
        for _ in 0..n {
            if rng.gen_bool(0.2) {
                x1.push(f64::NAN);
                y1.push(f64::NAN);
                x2.push(f64::NAN);
                y2.push(f64::NAN);
            } else {
                let ax = rng.gen_range(-100.0..100.0);
                let ay = rng.gen_range(-100.0..100.0);
                let w = rng.gen_range(0.0..30.0);
                let h = rng.gen_range(0.0..30.0);
                x1.push(ax);
                y1.push(ay);
                x2.push(ax + w);
                y2.push(ay + h);
            }
        }
        (x1, y1, x2, y2)
    }

    /// Regular, degenerate, infinite, and NaN query windows (struct
    /// literals: the predicates must stay safe for any bit pattern).
    fn query_windows() -> Vec<Rect> {
        vec![
            Rect::new(-20.0, -20.0, 40.0, 40.0),
            Rect::new(-50.0, -50.0, 50.0, 50.0),
            Rect::new(0.0, 0.0, 0.0, 0.0),
            Rect {
                min_x: f64::NEG_INFINITY,
                min_y: f64::NEG_INFINITY,
                max_x: f64::INFINITY,
                max_y: f64::INFINITY,
            },
            Rect {
                min_x: f64::NAN,
                min_y: 0.0,
                max_x: 10.0,
                max_y: 10.0,
            },
            Rect {
                min_x: -10.0,
                min_y: -10.0,
                max_x: f64::NAN,
                max_y: f64::NAN,
            },
        ]
    }

    /// Each lane kernel agrees with the `Rect` method it stands for, lane
    /// by lane, over odd widths up to a full chunk and every kind of
    /// window; a NaN padding lane never matches and is never measured.
    #[test]
    fn mask_predicates_match_rect_methods() {
        let mut rng = StdRng::seed_from_u64(0xAB_CD);
        for n in [1usize, 3, 4, 5, 13, 32, 64] {
            let (x1, y1, x2, y2) = random_planes(&mut rng, n);
            for w in &query_windows() {
                let p = Point::new(w.min_x, w.min_y);
                let within = lanes::within(&x1, &y1, &x2, &y2, w);
                let inter = lanes::intersects(&x1, &y1, &x2, &y2, w);
                let at = lanes::point(&x1, &y1, &x2, &y2, p);
                let mut dist = vec![0.0f64; n];
                lanes::distances(&x1, &y1, &x2, &y2, p, &mut dist);
                for lane in 0..n {
                    if x1[lane].is_nan() {
                        assert_eq!(within >> lane & 1, 0, "NaN lane {lane} matched within");
                        assert_eq!(inter >> lane & 1, 0, "NaN lane {lane} matched intersects");
                        assert_eq!(at >> lane & 1, 0, "NaN lane {lane} matched point");
                        continue;
                    }
                    let r = Rect::new(x1[lane], y1[lane], x2[lane], y2[lane]);
                    let at_lane = format!("n={n} lane {lane} w={w:?}");
                    assert_eq!(within >> lane & 1 == 1, r.covered_by(w), "{at_lane}");
                    assert_eq!(inter >> lane & 1 == 1, r.intersects(w), "{at_lane}");
                    assert_eq!(at >> lane & 1 == 1, r.contains_point(p), "{at_lane}");
                    assert_eq!(
                        dist[lane].to_bits(),
                        r.min_distance_sq(p).to_bits(),
                        "{at_lane}"
                    );
                }
            }
        }
    }

    #[test]
    fn mask_intersects_matches_per_lane_test() {
        let tree = build(150);
        let f = FrozenRTree::freeze(&tree);
        let w = Rect::new(10.0, 5.0, 45.0, 25.0);
        for node in (0..f.node_count() as u32).map(NodeId) {
            let mask = f.mask_intersects(node, 0, &w);
            for lane in 0..f.fanout() {
                let expect = lane < f.entry_count(node) && f.lane_mbr(node, lane).intersects(&w);
                assert_eq!(mask >> lane & 1 == 1, expect, "{node} lane {lane}");
            }
        }
    }

    /// Fan-out 102 — the branching factor of a disk page — spreads a
    /// node over two 64-lane chunks: every path must still agree with
    /// the pointer tree, order and counters included.
    #[test]
    fn wide_nodes_traverse_in_chunks() {
        let mut tree = RTree::new(RTreeConfig::with_branching(102));
        for i in 0..3_000 {
            let x = (i % 61) as f64 * 1.5 + (i as f64 * 0.003);
            let y = (i / 61) as f64 * 2.0;
            tree.insert(pt(x, y), ItemId(i as u64));
        }
        assert!(tree.depth() >= 1);
        let f = FrozenRTree::freeze(&tree);
        assert_eq!(f.fanout().div_ceil(64), 2);
        let (mut ts, mut fs) = <(SearchStats, SearchStats)>::default();
        let windows: Vec<Rect> = (0..40)
            .map(|q| {
                let g = q as f64;
                Rect::new(g * 2.0, g, g * 2.0 + 18.0, g + 22.0)
            })
            .collect();
        for within in [true, false] {
            for (i, w) in windows.iter().enumerate() {
                let (pointer, frozen) = if within {
                    (tree.search_within(w, &mut ts), f.search_within(w, &mut fs))
                } else {
                    (
                        tree.search_intersecting(w, &mut ts),
                        f.search_intersecting(w, &mut fs),
                    )
                };
                assert!(!pointer.is_empty(), "window {i} must hit something");
                assert_eq!(frozen, pointer, "window {i} within={within}");
            }
        }
        for w in &windows {
            let p = Point::new(w.min_x, w.min_y);
            let pointer = tree.point_query(p, &mut ts);
            assert_eq!(f.point_query(p, &mut fs), pointer);
            let pointer = tree.nearest_neighbors(p, 70, &mut ts);
            assert_eq!(f.nearest_neighbors(p, 70, &mut fs), pointer);
        }
        assert_eq!(fs, ts, "frozen counters diverged from pointer tree");
    }

    #[test]
    fn knn_ignores_padding_lanes_even_when_k_exceeds_population() {
        let tree = build(5);
        let f = FrozenRTree::freeze(&tree);
        let mut stats = SearchStats::default();
        let got = f.nearest_neighbors(Point::new(1.0, 1.0), 50, &mut stats);
        assert_eq!(got.len(), 5);
        assert!(got.iter().all(|n| n.distance_sq.is_finite()));
    }

    #[test]
    fn empty_tree_freezes_and_searches() {
        let tree = RTree::new(RTreeConfig::PAPER);
        let f = FrozenRTree::freeze(&tree);
        assert!(f.is_empty());
        assert_eq!(f.node_count(), 1);
        let mut fs = SearchStats::default();
        let mut ts = SearchStats::default();
        let w = Rect::new(0.0, 0.0, 10.0, 10.0);
        assert_eq!(
            f.search_within(&w, &mut fs),
            tree.search_within(&w, &mut ts)
        );
        assert!(f
            .nearest_neighbors(Point::new(0.0, 0.0), 3, &mut fs)
            .is_empty());
        assert!(tree
            .nearest_neighbors(Point::new(0.0, 0.0), 3, &mut ts)
            .is_empty());
        assert_eq!(fs, ts);
        assert_eq!(f.mbr(), None);
    }

    #[test]
    fn scratch_paths_are_allocation_free_after_warmup() {
        let tree = build(500);
        let f = FrozenRTree::freeze(&tree);
        let mut scratch = SearchScratch::new();
        let mut knn = KnnScratch::new();
        let windows: Vec<Rect> = (0..30)
            .map(|q| {
                let g = q as f64;
                Rect::new(g, g, g + 25.0, g + 25.0)
            })
            .collect();
        let probes: Vec<Point> = tree
            .items()
            .iter()
            .step_by(17)
            .map(|(r, _)| Point::new(r.min_x, r.min_y))
            .collect();
        let frame = f.mbr().expect("non-empty tree");
        // One round of every query path, the whole frame included: the
        // frontier holds each visited node once, so never more entries
        // than the tree has nodes, and all of them for the whole frame.
        let round = |scratch: &mut SearchScratch, knn: &mut KnnScratch| {
            for (w, &p) in windows.iter().zip(probes.iter().cycle()) {
                f.search_within_into(w, scratch);
                assert!(scratch.frontier.len() <= f.node_count());
                f.search_intersecting_into(w, scratch);
                assert!(!f.point_query_into(p, scratch).is_empty());
                assert!(scratch.frontier.len() <= f.node_count());
                f.nearest_neighbors_into(Point::new(w.min_x, w.min_y), 8, knn);
            }
            assert_eq!(f.search_within_into(&frame, scratch).len(), 500);
            assert_eq!(scratch.frontier.len(), f.node_count());
        };
        round(&mut scratch, &mut knn);
        let warm = (scratch.capacities(), knn.capacities());
        for _ in 0..5 {
            round(&mut scratch, &mut knn);
            assert_eq!((scratch.capacities(), knn.capacities()), warm);
        }
    }
}
