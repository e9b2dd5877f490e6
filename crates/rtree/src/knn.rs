//! Branch-and-bound k-nearest-neighbour search.
//!
//! Not part of the 1985 paper, but the natural extension Roussopoulos
//! himself published a decade later (Roussopoulos, Kelley & Vincent,
//! SIGMOD 1995); included because packed trees make it markedly cheaper
//! and the `knn` bench uses it as an ablation workload.

use crate::access::NodeAccess;
use crate::node::{ItemId, NodeId};
use crate::search::{chunk_count, Sink};
use crate::stats::SearchStats;
use crate::tree::RTree;
use rtree_geom::{Point, Rect};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A nearest-neighbour result: item, its MBR, and squared distance from
/// the query point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Neighbor {
    /// The matching item.
    pub item: ItemId,
    /// Its bounding rectangle.
    pub mbr: Rect,
    /// Squared distance from the query point to the MBR.
    pub distance_sq: f64,
}

/// Min-heap wrapper ordered by distance.
#[derive(Debug, Clone)]
pub(crate) struct HeapEntry {
    pub(crate) dist: f64,
    pub(crate) kind: HeapKind,
}

#[derive(Debug, Clone)]
pub(crate) enum HeapKind {
    Node(NodeId),
    Item(ItemId, Rect),
}

/// Reusable state for the allocation-free k-NN path: the best-first
/// priority queue and the result list, allocated once and reused across
/// [`nearest_neighbors_into`](RTree::nearest_neighbors_into) calls —
/// the k-NN analogue of [`SearchScratch`](crate::SearchScratch).
#[derive(Debug, Default, Clone)]
pub struct KnnScratch {
    pub(crate) heap: BinaryHeap<HeapEntry>,
    pub(crate) out: Vec<Neighbor>,
}

impl KnnScratch {
    /// An empty scratch; buffers grow on first use and are then reused.
    pub fn new() -> Self {
        KnnScratch::default()
    }

    /// Current capacity of the two buffers `(heap, results)` — stable
    /// capacities across queries demonstrate the zero-allocation steady
    /// state.
    pub fn capacities(&self) -> (usize, usize) {
        (self.heap.capacity(), self.out.capacity())
    }
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.dist == other.dist
    }
}
impl Eq for HeapEntry {}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse for a min-heap on distance.
        other.dist.total_cmp(&self.dist)
    }
}

impl RTree {
    /// Returns the `k` items whose MBRs are nearest to `p`: the `k`
    /// smallest `(distance, id)` pairs, in that order.
    ///
    /// Best-first branch and bound: a priority queue of nodes and items
    /// keyed by `min_distance_sq`; a node is expanded only if it could
    /// still contribute a closer result, so visited-node counts directly
    /// reflect how well the tree's MBRs cluster.
    pub fn nearest_neighbors(&self, p: Point, k: usize, stats: &mut SearchStats) -> Vec<Neighbor> {
        self.search_nearest(p, k, &mut KnnScratch::new(), Some(stats))
            .to_vec()
    }

    /// [`nearest_neighbors`](Self::nearest_neighbors) without statistics
    /// or per-call allocation: the heap and result list live in (and are
    /// borrowed from) the reusable `scratch`.
    pub fn nearest_neighbors_into<'s>(
        &self,
        p: Point,
        k: usize,
        scratch: &'s mut KnnScratch,
    ) -> &'s [Neighbor] {
        self.search_nearest(p, k, scratch, None)
    }
}

/// Best-first branch and bound over an explicit min-heap, for every
/// storage form: all report the `k` smallest `(distance, id)` pairs.
/// Entry expansion covers valid lanes only, 64 to a chunk, in lane
/// order; [`NodeAccess::lane_distances`] must reproduce
/// [`Rect::min_distance_sq`] bit for bit, so heap order is the same
/// whichever layout evaluates it.
pub(crate) fn knn_traverse<const ONE_CHUNK: bool, T: NodeAccess + ?Sized, S: Sink>(
    tree: &T,
    p: Point,
    k: usize,
    sink: &mut S,
    heap: &mut BinaryHeap<HeapEntry>,
    out: &mut Vec<Neighbor>,
) {
    sink.query();
    heap.clear();
    out.clear();
    let root = tree.root();
    if k == 0 || tree.entry_count(root) == 0 {
        return;
    }
    heap.push(HeapEntry {
        dist: 0.0,
        kind: HeapKind::Node(root),
    });
    let mut dists = [0.0f64; 64];
    while let Some(HeapEntry { dist, kind }) = heap.pop() {
        // Past the k-th item's distance nothing can join; up to it every
        // tie is taken, for the sort below to keep the smallest ids.
        if out
            .get(k - 1)
            .is_some_and(|kth| dist.total_cmp(&kth.distance_sq).is_gt())
        {
            break;
        }
        match kind {
            HeapKind::Item(item, mbr) => out.push(Neighbor {
                item,
                mbr,
                distance_sq: dist,
            }),
            HeapKind::Node(id) => {
                let leaf = tree.is_leaf(id);
                sink.node(leaf);
                let count = tree.entry_count(id);
                for chunk in 0..chunk_count::<ONE_CHUNK>(tree).min(count.div_ceil(64)) {
                    let base = chunk * 64;
                    let dists = &mut dists[..(count - base).min(64)];
                    tree.lane_distances(id, chunk, p, dists);
                    for (lane, &d) in (base..).zip(dists.iter()) {
                        let kind = if leaf {
                            HeapKind::Item(tree.child_item(id, lane), tree.lane_mbr(id, lane))
                        } else {
                            HeapKind::Node(tree.child_node(id, lane))
                        };
                        heap.push(HeapEntry { dist: d, kind });
                    }
                }
            }
        }
    }
    out.sort_by(|a, b| {
        a.distance_sq
            .total_cmp(&b.distance_sq)
            .then(a.item.cmp(&b.item))
    });
    out.truncate(k);
    out.iter().for_each(|_| sink.item());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RTreeConfig;

    fn build_grid(n: usize) -> RTree {
        let mut t = RTree::new(RTreeConfig::PAPER);
        for i in 0..n {
            let x = (i % 10) as f64 * 10.0;
            let y = (i / 10) as f64 * 10.0;
            t.insert(Rect::from_point(Point::new(x, y)), ItemId(i as u64));
        }
        t
    }

    #[test]
    fn empty_and_zero_k() {
        let t = RTree::new(RTreeConfig::PAPER);
        let mut stats = SearchStats::default();
        assert!(t
            .nearest_neighbors(Point::new(0.0, 0.0), 3, &mut stats)
            .is_empty());
        let t2 = build_grid(5);
        assert!(t2
            .nearest_neighbors(Point::new(0.0, 0.0), 0, &mut stats)
            .is_empty());
    }

    #[test]
    fn nearest_is_exact() {
        let t = build_grid(100);
        let mut stats = SearchStats::default();
        let n = t.nearest_neighbors(Point::new(34.0, 56.0), 1, &mut stats)[0];
        assert_eq!(n.item, ItemId(63)); // grid point (30, 60)
        assert_eq!(n.distance_sq, 16.0 + 16.0);
    }

    #[test]
    fn knn_matches_brute_force() {
        let t = build_grid(100);
        let items = t.items();
        let mut stats = SearchStats::default();
        for (qx, qy) in [(0.0, 0.0), (45.5, 45.5), (91.0, 2.0), (-10.0, 120.0)] {
            let q = Point::new(qx, qy);
            let got = t.nearest_neighbors(q, 7, &mut stats);
            assert_eq!(got.len(), 7);
            let mut brute: Vec<(f64, ItemId)> = items
                .iter()
                .map(|&(mbr, id)| (mbr.min_distance_sq(q), id))
                .collect();
            brute.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            // The grid ties at every query: ties leave by ascending id.
            for (i, n) in got.iter().enumerate() {
                assert_eq!((n.distance_sq, n.item), brute[i], "rank {i} at {q}");
            }
        }
    }

    #[test]
    fn k_larger_than_population() {
        let t = build_grid(5);
        let mut stats = SearchStats::default();
        let got = t.nearest_neighbors(Point::new(0.0, 0.0), 50, &mut stats);
        assert_eq!(got.len(), 5);
    }

    #[test]
    fn into_path_matches_stats_path() {
        let t = build_grid(100);
        let mut stats = SearchStats::default();
        let mut scratch = KnnScratch::new();
        for (qx, qy) in [(0.0, 0.0), (45.5, 45.5), (91.0, 2.0), (-10.0, 120.0)] {
            let q = Point::new(qx, qy);
            assert_eq!(
                t.nearest_neighbors_into(q, 7, &mut scratch),
                t.nearest_neighbors(q, 7, &mut stats).as_slice()
            );
        }
    }

    #[test]
    fn knn_scratch_stops_growing() {
        let t = build_grid(100);
        let mut scratch = KnnScratch::new();
        let queries: Vec<Point> = (0..20)
            .map(|i| Point::new((i * 7 % 90) as f64, (i * 13 % 90) as f64))
            .collect();
        for q in &queries {
            t.nearest_neighbors_into(*q, 10, &mut scratch);
        }
        let warm = scratch.capacities();
        for _ in 0..5 {
            for q in &queries {
                t.nearest_neighbors_into(*q, 10, &mut scratch);
            }
            assert_eq!(scratch.capacities(), warm, "knn scratch reallocated");
        }
    }

    #[test]
    fn knn_prunes_nodes() {
        let t = build_grid(100);
        let mut stats = SearchStats::default();
        t.nearest_neighbors(Point::new(5.0, 5.0), 1, &mut stats);
        // Best-first search should not touch every node for k=1.
        assert!(
            (stats.nodes_visited as usize) < t.node_count(),
            "visited {} of {}",
            stats.nodes_visited,
            t.node_count()
        );
    }
}
