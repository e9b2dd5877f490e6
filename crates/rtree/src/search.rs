//! Direct spatial search — the paper's recursive `SEARCH` procedure (§3.1)
//! and its variants.

use crate::access::NodeAccess;
use crate::knn::KnnScratch;
use crate::node::{ItemId, NodeId};
use crate::stats::SearchStats;
use crate::tree::RTree;
use rtree_geom::{Point, Rect};

/// Reusable traversal state for the allocation-free query paths.
///
/// Window and point queries need two growable buffers: the frontier of
/// nodes to visit, level by level, and the result list. Owning them in a
/// scratch value and passing it to the `*_into` query methods means the
/// buffers are allocated once and reused — steady-state queries touch
/// the heap only while the buffers are still growing toward the
/// workload's high-water mark, after which they allocate nothing. The
/// frontier never holds more entries than the tree has nodes.
///
/// The scratch also embeds a [`KnnScratch`] so one per-worker value covers
/// the whole allocation-free query surface (window, point and k-NN).
#[derive(Debug, Default, Clone)]
pub struct SearchScratch {
    pub(crate) frontier: Vec<NodeId>,
    pub(crate) out: Vec<ItemId>,
    knn: KnnScratch,
}

impl SearchScratch {
    /// An empty scratch; buffers grow on first use and are then reused.
    pub fn new() -> Self {
        SearchScratch::default()
    }

    /// The hits of the most recent `*_into` query.
    pub fn hits(&self) -> &[ItemId] {
        &self.out
    }

    /// Current capacity of the two buffers `(frontier, results)` —
    /// stable capacities across queries demonstrate the zero-allocation
    /// steady state.
    pub fn capacities(&self) -> (usize, usize) {
        (self.frontier.capacity(), self.out.capacity())
    }

    /// The embedded k-NN scratch, for routing `nearest_neighbors_into`
    /// through the same per-worker state as the window paths.
    pub fn knn(&mut self) -> &mut KnnScratch {
        &mut self.knn
    }
}

/// The scratch of [`FrozenRTree::batch_windows`](crate::FrozenRTree::batch_windows):
/// a pack of queries runs one at a time over one [`SearchScratch`].
/// Kept only because `sysbench`'s probes name it.
pub type BatchScratch = SearchScratch;

/// Where traversal counters go. The statistics-free implementation is a
/// set of empty inlined methods, so the fast path pays nothing for the
/// instrumentation the paper's Table 1 experiments need.
pub(crate) trait Sink {
    fn query(&mut self) {}
    fn node(&mut self, _is_leaf: bool) {}
    fn item(&mut self) {}
}

/// The no-op sink of the `*_into` fast paths.
pub(crate) struct NoStats;

impl Sink for NoStats {}

impl Sink for SearchStats {
    #[inline]
    fn query(&mut self) {
        self.queries += 1;
    }

    #[inline]
    fn node(&mut self, is_leaf: bool) {
        self.nodes_visited += 1;
        if is_leaf {
            self.leaf_nodes_visited += 1;
        }
    }

    #[inline]
    fn item(&mut self) {
        self.items_reported += 1;
    }
}

impl RTree {
    /// The paper's `SEARCH` (§3.1): descend every entry whose MBR
    /// `INTERSECTS` the target window; at the leaves report entries
    /// `WITHIN` (entirely inside) the window.
    ///
    /// Answers "list all points and regions within target window" — the
    /// query form behind PSQL's `loc covered-by ⟨window⟩`.
    pub fn search_within(&self, window: &Rect, stats: &mut SearchStats) -> Vec<ItemId> {
        self.search_window(window, true, &mut SearchScratch::new(), Some(stats))
            .to_vec()
    }

    /// Reports leaf entries whose MBR intersects the window (the common
    /// window-query semantics; PSQL's `overlapping`/`covering` operators
    /// refine this candidate set with exact geometry).
    pub fn search_intersecting(&self, window: &Rect, stats: &mut SearchStats) -> Vec<ItemId> {
        self.search_window(window, false, &mut SearchScratch::new(), Some(stats))
            .to_vec()
    }

    /// [`search_within`](Self::search_within) without statistics or
    /// per-call allocation: results land in (and are borrowed from) the
    /// reusable `scratch`.
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

    /// The Table 1 query: "Is point (x, y) contained in the database?"
    ///
    /// Descends only entries whose MBR contains the point and reports leaf
    /// entries whose MBR contains it. Returns all matching items (multiple
    /// items may share a location).
    pub fn point_query(&self, p: Point, stats: &mut SearchStats) -> Vec<ItemId> {
        self.search_point(p, &mut SearchScratch::new(), Some(stats))
            .to_vec()
    }

    /// [`point_query`](Self::point_query) without statistics or per-call
    /// allocation.
    pub fn point_query_into<'s>(&self, p: Point, scratch: &'s mut SearchScratch) -> &'s [ItemId] {
        self.search_point(p, scratch, None)
    }
}

/// The 64-lane chunks a traversal walks per node. Nearly every tree's
/// nodes fit one (at most 64 entries), and a loop over a run-time count of
/// one still costs each visit 15–20 % on a cache-resident tree — so
/// every traversal is instantiated twice from its one body: `ONE_CHUNK`
/// folds the loop away, otherwise it runs in full.
#[inline(always)]
pub(crate) fn chunk_count<const ONE_CHUNK: bool>(tree: &(impl NodeAccess + ?Sized)) -> usize {
    if ONE_CHUNK {
        1
    } else {
        tree.fanout().div_ceil(64)
    }
}

/// The paper's `SEARCH` as one iterative loop, for every storage form,
/// visiting the tree one level at a time.
///
/// `frontier` is a queue: the nodes of one level sit side by side, and
/// visiting them appends the matching children, which form the next
/// level. The nodes of a level are independent loads, so their cache
/// misses overlap; a depth-first stack would make every visit wait for
/// the subtree before it. Pruning folds a node's lanes into hit masks,
/// 64 lanes to a chunk. Children are appended and leaf hits reported
/// lowest-lane-first. Every leaf sits at one depth, so leaves come out
/// left to right — the order the recursive formulation reaches them in —
/// and the results and counters are the recursion's.
pub(crate) fn window_traverse<const ONE_CHUNK: bool, T: NodeAccess + ?Sized, S: Sink>(
    tree: &T,
    window: &Rect,
    within: bool,
    frontier: &mut Vec<NodeId>,
    sink: &mut S,
    out: &mut Vec<ItemId>,
) {
    sink.query();
    out.clear();
    frontier.clear();
    frontier.push(tree.root());
    let chunks = chunk_count::<ONE_CHUNK>(tree);
    let mut head = 0;
    while let Some(&id) = frontier.get(head) {
        head += 1;
        let leaf = tree.is_leaf(id);
        sink.node(leaf);
        for chunk in 0..chunks {
            let mut mask = if !leaf {
                tree.mask_intersects(id, chunk, window) // the paper's INTERSECTS pruning
            } else if within {
                tree.mask_within(id, chunk, window) // the paper's WITHIN
            } else {
                tree.mask_intersects(id, chunk, window)
            };
            while mask != 0 {
                let lane = chunk * 64 + mask.trailing_zeros() as usize;
                mask &= mask - 1;
                if leaf {
                    sink.item();
                    out.push(tree.child_item(id, lane));
                } else {
                    frontier.push(tree.child_node(id, lane));
                }
            }
        }
    }
}

/// The Table 1 point query, level by level like
/// [`window_traverse`]. Children are appended highest-lane-first, so
/// leaves come out right to left, and each leaf's hits are reported
/// lowest-lane-first: the order the engine has always answered in.
/// PSQL has no point source, so only Table 1, the oracle's
/// `recursive_point_query` and `DiskRTree`'s golden see it.
pub(crate) fn point_traverse<const ONE_CHUNK: bool, T: NodeAccess + ?Sized, S: Sink>(
    tree: &T,
    p: Point,
    frontier: &mut Vec<NodeId>,
    sink: &mut S,
    out: &mut Vec<ItemId>,
) {
    sink.query();
    out.clear();
    frontier.clear();
    frontier.push(tree.root());
    let chunks = chunk_count::<ONE_CHUNK>(tree);
    let mut head = 0;
    while let Some(&id) = frontier.get(head) {
        head += 1;
        let leaf = tree.is_leaf(id);
        sink.node(leaf);
        if leaf {
            for chunk in 0..chunks {
                let mut mask = tree.mask_point(id, chunk, p);
                while mask != 0 {
                    let lane = chunk * 64 + mask.trailing_zeros() as usize;
                    mask &= mask - 1;
                    sink.item();
                    out.push(tree.child_item(id, lane));
                }
            }
        } else {
            for chunk in (0..chunks).rev() {
                let mut mask = tree.mask_point(id, chunk, p);
                while mask != 0 {
                    let bit = 63 - mask.leading_zeros() as usize;
                    mask &= !(1u64 << bit);
                    frontier.push(tree.child_node(id, chunk * 64 + bit));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RTreeConfig;

    fn pt(x: f64, y: f64) -> Rect {
        Rect::from_point(Point::new(x, y))
    }

    fn build(points: &[(f64, f64)]) -> RTree {
        let mut t = RTree::new(RTreeConfig::PAPER);
        for (i, &(x, y)) in points.iter().enumerate() {
            t.insert(pt(x, y), ItemId(i as u64));
        }
        t
    }

    #[test]
    fn empty_tree_search() {
        let t = RTree::new(RTreeConfig::PAPER);
        let mut stats = SearchStats::default();
        assert!(t
            .search_within(&Rect::new(0.0, 0.0, 10.0, 10.0), &mut stats)
            .is_empty());
        assert_eq!(stats.queries, 1);
        assert_eq!(stats.nodes_visited, 1); // root is still visited
    }

    #[test]
    fn within_vs_intersecting_on_rects() {
        let mut t = RTree::new(RTreeConfig::PAPER);
        t.insert(Rect::new(0.0, 0.0, 4.0, 4.0), ItemId(0)); // straddles window
        t.insert(Rect::new(1.0, 1.0, 2.0, 2.0), ItemId(1)); // inside window
        let window = Rect::new(0.5, 0.5, 3.0, 3.0);
        let mut stats = SearchStats::default();
        let within = t.search_within(&window, &mut stats);
        assert_eq!(within, vec![ItemId(1)]);
        let intersecting = t.search_intersecting(&window, &mut stats);
        assert_eq!(intersecting.len(), 2);
    }

    #[test]
    fn search_matches_brute_force() {
        let points: Vec<(f64, f64)> = (0..200)
            .map(|i| {
                let f = i as f64;
                ((f * 37.7) % 100.0, (f * 91.3) % 100.0)
            })
            .collect();
        let t = build(&points);
        let mut stats = SearchStats::default();
        for q in 0..50 {
            let f = q as f64;
            let x0 = (f * 13.3) % 80.0;
            let y0 = (f * 7.9) % 80.0;
            let window = Rect::new(x0, y0, x0 + 20.0, y0 + 20.0);
            let mut got = t.search_within(&window, &mut stats);
            got.sort();
            let mut expect: Vec<ItemId> = points
                .iter()
                .enumerate()
                .filter(|(_, &(x, y))| window.contains_point(Point::new(x, y)))
                .map(|(i, _)| ItemId(i as u64))
                .collect();
            expect.sort();
            assert_eq!(got, expect, "window {window}");
        }
        assert_eq!(stats.queries, 50);
        assert!(stats.nodes_visited >= 50);
    }

    #[test]
    fn point_query_finds_exact_points() {
        let points: Vec<(f64, f64)> = (0..100)
            .map(|i| ((i % 10) as f64, (i / 10) as f64))
            .collect();
        let t = build(&points);
        let mut stats = SearchStats::default();
        let hits = t.point_query(Point::new(3.0, 7.0), &mut stats);
        assert_eq!(hits, vec![ItemId(73)]);
        assert!(t.point_query(Point::new(3.5, 7.5), &mut stats).is_empty());
        assert_eq!(stats.queries, 2);
    }

    #[test]
    fn whole_space_window_returns_everything() {
        let points: Vec<(f64, f64)> = (0..64).map(|i| (i as f64, (i * 3 % 17) as f64)).collect();
        let t = build(&points);
        let mut stats = SearchStats::default();
        let all = t.search_within(&Rect::new(-1.0, -1.0, 100.0, 100.0), &mut stats);
        assert_eq!(all.len(), 64);
        // Full-space query visits every node.
        assert_eq!(stats.nodes_visited as usize, t.node_count());
    }

    #[test]
    fn fast_paths_match_stats_paths() {
        let points: Vec<(f64, f64)> = (0..300)
            .map(|i| {
                let f = i as f64;
                ((f * 37.7) % 100.0, (f * 91.3) % 100.0)
            })
            .collect();
        let t = build(&points);
        let mut stats = SearchStats::default();
        let mut scratch = SearchScratch::new();
        for q in 0..40 {
            let f = q as f64;
            let x0 = (f * 13.3) % 70.0;
            let y0 = (f * 7.9) % 70.0;
            let window = Rect::new(x0, y0, x0 + 25.0, y0 + 25.0);
            assert_eq!(
                t.search_within_into(&window, &mut scratch),
                t.search_within(&window, &mut stats).as_slice()
            );
            assert_eq!(
                t.search_intersecting_into(&window, &mut scratch),
                t.search_intersecting(&window, &mut stats).as_slice()
            );
            let p = Point::new(x0, y0);
            assert_eq!(
                t.point_query_into(p, &mut scratch),
                t.point_query(p, &mut stats).as_slice()
            );
        }
    }

    #[test]
    fn scratch_buffers_stop_growing() {
        // After a warm-up pass over the whole workload, repeating the
        // same queries must leave both scratch capacities untouched —
        // the zero-allocation steady state.
        let points: Vec<(f64, f64)> = (0..500)
            .map(|i| ((i % 25) as f64 * 4.0, (i / 25) as f64 * 5.0))
            .collect();
        let t = build(&points);
        let mut scratch = SearchScratch::new();
        let windows: Vec<Rect> = (0..30)
            .map(|q| {
                let f = q as f64;
                Rect::new(f, f, f + 30.0, f + 30.0)
            })
            .collect();
        for w in &windows {
            t.search_within_into(w, &mut scratch);
        }
        let warm = scratch.capacities();
        for _ in 0..5 {
            for w in &windows {
                t.search_within_into(w, &mut scratch);
                t.search_intersecting_into(w, &mut scratch);
            }
            assert_eq!(scratch.capacities(), warm, "scratch reallocated");
        }
    }

    #[test]
    fn scratch_hits_reflect_last_query() {
        let t = build(&[(1.0, 1.0), (2.0, 2.0), (50.0, 50.0)]);
        let mut scratch = SearchScratch::new();
        t.search_within_into(&Rect::new(0.0, 0.0, 10.0, 10.0), &mut scratch);
        assert_eq!(scratch.hits().len(), 2);
        t.search_within_into(&Rect::new(40.0, 40.0, 60.0, 60.0), &mut scratch);
        assert_eq!(scratch.hits(), &[ItemId(2)]);
    }

    #[test]
    fn stats_accumulate_across_queries() {
        let t = build(&[(1.0, 1.0), (2.0, 2.0)]);
        let mut stats = SearchStats::default();
        for _ in 0..10 {
            t.point_query(Point::new(1.0, 1.0), &mut stats);
        }
        assert_eq!(stats.queries, 10);
        assert_eq!(stats.avg_nodes_visited(), stats.nodes_visited as f64 / 10.0);
    }
}
