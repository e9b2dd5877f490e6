//! Batched query execution on the frozen tree.
//!
//! A server answering many independent spatial queries pays the full
//! memory-latency bill per query: on a large arena each traversal is a
//! chain of dependent node fetches — the next node's planes cannot
//! load before the current mask says which child to pop — so the core
//! sits stalled on DRAM for most of a query. Batching breaks the
//! chain two ways:
//!
//! * **Spatial grouping.** The pack is sorted by the Z-order (Morton)
//!   key of each query's center, so spatially adjacent queries become
//!   temporally adjacent and share subtrees.
//! * **Shared wavefront traversal (windows).** The whole pack descends
//!   the arena as one breadth-first frontier. Each frame pairs a node
//!   with the subset of queries whose windows reach it, so a node's
//!   coordinate block is fetched from memory once per batch, however
//!   many queries prune against it. The frontier is a FIFO processed
//!   by index, which turns the pointer chase of a depth-first descent
//!   into a flat scan: the engine prefetches the node `WAVE_LOOKAHEAD`
//!   frames ahead of the one it is pruning, so by the time a frame is
//!   reached its lines have been filling from DRAM under many frames'
//!   worth of lane-kernel work — memory-level parallelism no single
//!   dependent traversal chain can reach. SIMD lane pruning (`simd`
//!   feature) compounds with both: the fetched lines are consumed four
//!   lanes per instruction.
//!
//! **Per-query equivalence.** Sharing is physical, not logical. A
//! query is active in exactly the nodes its own single-query traversal
//! would visit — the descent condition is the same lane mask the
//! single-query machine computes — so per-query counter contributions
//! are identical and accumulated [`SearchStats`] equal the sum of the
//! single-query stats. Results only surface at the leaf level, and a
//! breadth-first frontier that enqueues children in ascending lane
//! order visits the leaf level in lexicographic (path, lane) order —
//! exactly the order a depth-first descent with the same child order
//! reaches its leaves. With leaf lanes emitted lowest-first, every
//! query's result sequence is therefore bit-identical to the
//! one-at-a-time path (`search::window_traverse`); the
//! differential fuzzer's frozen level checks exactly that. Results are
//! handed back **in input order** regardless of execution order.
//!
//! The sort key is deterministic (quantized to a 16-bit grid over the
//! root MBR; NaN centers collapse to cell 0), ties are broken by input
//! position, and the traversal schedule is a pure function of the
//! sorted order, so batch execution order is itself reproducible.

use crate::access::NodeAccess;
use crate::knn::Neighbor;
use crate::node::{ItemId, NodeId};
use crate::search::{chunk_count, NoStats, SearchScratch, Sink};
use crate::stats::SearchStats;
use crate::FrozenRTree;
use rtree_geom::{Point, Rect};

/// How many frontier frames ahead of the one being pruned the window
/// engine prefetches. Thirty-two in-flight node fetches cover DRAM
/// latency against the per-frame mask work; much further ahead and
/// prefetched lines risk eviction before use.
const WAVE_LOOKAHEAD: usize = 32;

/// Reusable state for the batch paths: the spatial-sort order, the
/// shared traversal scratch, and the flat result arenas. Allocated once
/// and reused across batches — the batch analogue of
/// [`SearchScratch`].
#[derive(Debug, Default, Clone)]
pub struct BatchScratch {
    /// `(morton key, input index)` pairs, sorted to give execution order.
    order: Vec<(u32, u32)>,
    /// The shared single-query scratch every query in the batch reuses.
    scratch: SearchScratch,
    /// Flat item results; query `i` owns `ranges[i]`.
    items: Vec<ItemId>,
    /// Flat k-NN results; query `i` owns `ranges[i]`.
    neighbors: Vec<Neighbor>,
    /// Per input query: `(offset, len)` into the flat arena.
    ranges: Vec<(u32, u32)>,
    /// Wavefront frontier, FIFO by index: `(node, start, len)` — the
    /// node to visit and its active-query span inside `qlist`.
    frames: Vec<(NodeId, u32, u32)>,
    /// Active-query arena. Frames reference disjoint spans; spans are
    /// append-only within one batch and cleared between batches.
    qlist: Vec<u32>,
    /// Per-active-query lane masks of the frame being expanded.
    masks: Vec<u64>,
    /// Per input query result staging, flushed to `items` in input
    /// order once the shared traversal finishes.
    staging: Vec<Vec<ItemId>>,
}

impl BatchScratch {
    /// An empty scratch; buffers grow on first use and are then reused.
    pub fn new() -> Self {
        BatchScratch::default()
    }

    /// The embedded single-query scratch, for callers that mix batched
    /// and one-at-a-time execution over the same per-worker state.
    pub fn search(&mut self) -> &mut SearchScratch {
        &mut self.scratch
    }

    /// Current buffer capacities `(order, items, neighbors, ranges)` —
    /// stable capacities across batches demonstrate the zero-allocation
    /// steady state.
    pub fn capacities(&self) -> (usize, usize, usize, usize) {
        (
            self.order.capacity(),
            self.items.capacity(),
            self.neighbors.capacity(),
            self.ranges.capacity(),
        )
    }

    /// Sorts the batch into Z-order of query centers. `center(i)` maps
    /// an input index to the (possibly non-finite) query center.
    fn plan_order<C: Fn(usize) -> (f64, f64)>(&mut self, n: usize, frame: Option<Rect>, center: C) {
        self.order.clear();
        self.order.reserve(n);
        for i in 0..n {
            let (cx, cy) = center(i);
            self.order.push((morton_key(frame, cx, cy), i as u32));
        }
        // Unstable sort on the (key, input index) pair is deterministic:
        // the pair is unique per entry.
        self.order.sort_unstable();
        self.ranges.clear();
        self.ranges.resize(n, (0, 0));
        self.items.clear();
        self.neighbors.clear();
    }
}

/// Per-query item results of a batch, addressable by input index.
#[derive(Debug, Clone, Copy)]
pub struct ItemBatches<'s> {
    items: &'s [ItemId],
    ranges: &'s [(u32, u32)],
}

impl<'s> ItemBatches<'s> {
    /// Number of queries in the batch.
    pub fn len(&self) -> usize {
        self.ranges.len()
    }

    /// `true` for an empty batch.
    pub fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }

    /// The results of input query `i`, in the exact order the
    /// single-query path reports them.
    pub fn get(&self, i: usize) -> &'s [ItemId] {
        let (off, len) = self.ranges[i];
        &self.items[off as usize..off as usize + len as usize]
    }

    /// Iterates per-query result slices in input order.
    pub fn iter(&self) -> impl Iterator<Item = &'s [ItemId]> + '_ {
        (0..self.len()).map(|i| self.get(i))
    }
}

/// Per-query k-NN results of a batch, addressable by input index.
#[derive(Debug, Clone, Copy)]
pub struct NeighborBatches<'s> {
    neighbors: &'s [Neighbor],
    ranges: &'s [(u32, u32)],
}

impl<'s> NeighborBatches<'s> {
    /// Number of queries in the batch.
    pub fn len(&self) -> usize {
        self.ranges.len()
    }

    /// `true` for an empty batch.
    pub fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }

    /// The neighbours of input query `i`, ascending by distance.
    pub fn get(&self, i: usize) -> &'s [Neighbor] {
        let (off, len) = self.ranges[i];
        &self.neighbors[off as usize..off as usize + len as usize]
    }

    /// Iterates per-query neighbour slices in input order.
    pub fn iter(&self) -> impl Iterator<Item = &'s [Neighbor]> + '_ {
        (0..self.len()).map(|i| self.get(i))
    }
}

impl FrozenRTree {
    /// Executes a pack of window queries (the paper's `SEARCH` when
    /// `within`, intersection search otherwise), spatially grouped, and
    /// returns per-query results in input order. Equivalent to calling
    /// [`search_within_into`](Self::search_within_into) /
    /// [`search_intersecting_into`](Self::search_intersecting_into) per
    /// window — same results, same order per query — but executes the
    /// batch in Z-order of window centers over one shared scratch.
    pub fn batch_windows<'s>(
        &self,
        windows: &[Rect],
        within: bool,
        scratch: &'s mut BatchScratch,
    ) -> ItemBatches<'s> {
        self.batch_windows_opt(windows, within, scratch, None)
    }

    /// [`batch_windows`](Self::batch_windows) accumulating
    /// [`SearchStats`] across the whole batch: counter totals equal the
    /// sum of per-query stats of the one-at-a-time path.
    pub fn batch_windows_stats<'s>(
        &self,
        windows: &[Rect],
        within: bool,
        scratch: &'s mut BatchScratch,
        stats: &mut SearchStats,
    ) -> ItemBatches<'s> {
        self.batch_windows_opt(windows, within, scratch, Some(stats))
    }

    fn batch_windows_opt<'s>(
        &self,
        windows: &[Rect],
        within: bool,
        scratch: &'s mut BatchScratch,
        stats: Option<&mut SearchStats>,
    ) -> ItemBatches<'s> {
        match (self.fanout().div_ceil(64), stats) {
            (1, Some(stats)) => self.wavefront::<true, _>(windows, within, scratch, stats),
            (1, None) => self.wavefront::<true, _>(windows, within, scratch, &mut NoStats),
            (_, Some(stats)) => self.wavefront::<false, _>(windows, within, scratch, stats),
            (_, None) => self.wavefront::<false, _>(windows, within, scratch, &mut NoStats),
        }
    }

    fn wavefront<'s, const ONE_CHUNK: bool, S: Sink>(
        &self,
        windows: &[Rect],
        within: bool,
        scratch: &'s mut BatchScratch,
        sink: &mut S,
    ) -> ItemBatches<'s> {
        scratch.plan_order(windows.len(), self.mbr(), |i| {
            let w = &windows[i];
            ((w.min_x + w.max_x) * 0.5, (w.min_y + w.max_y) * 0.5)
        });
        let chunks = chunk_count::<ONE_CHUNK>(self);
        let BatchScratch {
            order,
            items,
            ranges,
            frames,
            qlist,
            masks,
            staging,
            ..
        } = scratch;
        if order.is_empty() {
            return ItemBatches { items, ranges };
        }
        if staging.len() < windows.len() {
            staging.resize_with(windows.len(), Vec::new);
        }
        frames.clear();
        qlist.clear();
        // Seed: every query starts at the root, active span in Z-order.
        for &(_, input) in order.iter() {
            sink.query();
            staging[input as usize].clear();
            qlist.push(input);
        }
        frames.push((self.root(), 0, order.len() as u32));
        let mut i = 0usize;
        while i < frames.len() {
            // Keep the frontier `WAVE_LOOKAHEAD` node fetches ahead of
            // the pruning point.
            if let Some(&(ahead, _, _)) = frames.get(i + WAVE_LOOKAHEAD) {
                self.prefetch_node(ahead.0);
            }
            let (id, start, len) = frames[i];
            i += 1;
            if self.is_leaf(id) {
                for pos in start..start + len {
                    let q = qlist[pos as usize] as usize;
                    sink.node(true);
                    for chunk in 0..chunks {
                        let mut mask = if within {
                            self.mask_within(id, chunk, &windows[q])
                        } else {
                            self.mask_intersects(id, chunk, &windows[q])
                        };
                        while mask != 0 {
                            let lane = chunk * 64 + mask.trailing_zeros() as usize;
                            mask &= mask - 1;
                            sink.item();
                            staging[q].push(self.child_item(id, lane));
                        }
                    }
                }
                continue;
            }
            for _ in 0..len {
                sink.node(false);
            }
            for chunk in 0..chunks {
                masks.clear();
                let mut reached = 0u64;
                for pos in start..start + len {
                    let mask =
                        self.mask_intersects(id, chunk, &windows[qlist[pos as usize] as usize]);
                    masks.push(mask);
                    reached |= mask;
                }
                // Children enqueue in ascending lane order so the
                // frontier walks each level lexicographically — the
                // order a depth-first descent reaches its leaves.
                while reached != 0 {
                    let bit = reached.trailing_zeros();
                    reached &= reached - 1;
                    let child_start = qlist.len() as u32;
                    for off in 0..len {
                        if masks[off as usize] >> bit & 1 != 0 {
                            qlist.push(qlist[(start + off) as usize]);
                        }
                    }
                    let child = self.child_node(id, chunk * 64 + bit as usize);
                    // A child that will be reached before the rolling
                    // lookahead gets there is prefetched at enqueue
                    // instead.
                    if frames.len() <= i + WAVE_LOOKAHEAD {
                        self.prefetch_node(child.0);
                    }
                    frames.push((child, child_start, qlist.len() as u32 - child_start));
                }
            }
        }
        for (q, out) in staging.iter_mut().enumerate().take(windows.len()) {
            let off = items.len() as u32;
            items.extend_from_slice(out);
            out.clear();
            ranges[q] = (off, items.len() as u32 - off);
        }
        ItemBatches { items, ranges }
    }

    /// Executes a pack of point queries (the Table 1 workload),
    /// spatially grouped; per-query results in input order, each
    /// bit-identical to [`point_query_into`](Self::point_query_into).
    pub fn batch_points<'s>(
        &self,
        points: &[Point],
        scratch: &'s mut BatchScratch,
    ) -> ItemBatches<'s> {
        self.batch_points_opt(points, scratch, None)
    }

    /// [`batch_points`](Self::batch_points) accumulating
    /// [`SearchStats`] across the whole batch.
    pub fn batch_points_stats<'s>(
        &self,
        points: &[Point],
        scratch: &'s mut BatchScratch,
        stats: &mut SearchStats,
    ) -> ItemBatches<'s> {
        self.batch_points_opt(points, scratch, Some(stats))
    }

    fn batch_points_opt<'s>(
        &self,
        points: &[Point],
        scratch: &'s mut BatchScratch,
        mut stats: Option<&mut SearchStats>,
    ) -> ItemBatches<'s> {
        scratch.plan_order(points.len(), self.mbr(), |i| (points[i].x, points[i].y));
        let BatchScratch {
            order,
            scratch: search,
            items,
            ranges,
            ..
        } = scratch;
        for &(_, input) in order.iter() {
            let off = items.len() as u32;
            let hits = self.search_point(points[input as usize], search, stats.as_deref_mut());
            items.extend_from_slice(hits);
            ranges[input as usize] = (off, items.len() as u32 - off);
        }
        ItemBatches { items, ranges }
    }

    /// Executes a pack of k-NN queries `(point, k)`, spatially grouped;
    /// per-query neighbours in input order, each bit-identical to
    /// [`nearest_neighbors_into`](Self::nearest_neighbors_into).
    pub fn batch_knn<'s>(
        &self,
        queries: &[(Point, usize)],
        scratch: &'s mut BatchScratch,
    ) -> NeighborBatches<'s> {
        self.batch_knn_opt(queries, scratch, None)
    }

    /// [`batch_knn`](Self::batch_knn) accumulating [`SearchStats`]
    /// across the whole batch.
    pub fn batch_knn_stats<'s>(
        &self,
        queries: &[(Point, usize)],
        scratch: &'s mut BatchScratch,
        stats: &mut SearchStats,
    ) -> NeighborBatches<'s> {
        self.batch_knn_opt(queries, scratch, Some(stats))
    }

    fn batch_knn_opt<'s>(
        &self,
        queries: &[(Point, usize)],
        scratch: &'s mut BatchScratch,
        mut stats: Option<&mut SearchStats>,
    ) -> NeighborBatches<'s> {
        scratch.plan_order(queries.len(), self.mbr(), |i| {
            (queries[i].0.x, queries[i].0.y)
        });
        let BatchScratch {
            order,
            scratch: search,
            neighbors,
            ranges,
            ..
        } = scratch;
        for &(_, input) in order.iter() {
            let (p, k) = queries[input as usize];
            let off = neighbors.len() as u32;
            neighbors.extend_from_slice(self.search_nearest(
                p,
                k,
                search.knn(),
                stats.as_deref_mut(),
            ));
            ranges[input as usize] = (off, neighbors.len() as u32 - off);
        }
        NeighborBatches { neighbors, ranges }
    }
}

/// Z-order key of a query center over the tree's root MBR: each axis is
/// quantized to 16 bits, the bits interleaved (x in the even positions).
/// Centers outside the frame clamp to its edge; NaN (e.g. a NaN query
/// window) quantizes to 0 via the saturating `as` cast, so the key is
/// total and deterministic for every bit pattern.
fn morton_key(frame: Option<Rect>, cx: f64, cy: f64) -> u32 {
    let Some(frame) = frame else {
        return 0;
    };
    let qx = quantize(cx, frame.min_x, frame.max_x);
    let qy = quantize(cy, frame.min_y, frame.max_y);
    interleave(qx) | (interleave(qy) << 1)
}

fn quantize(v: f64, lo: f64, hi: f64) -> u16 {
    let span = hi - lo;
    let t = if span > 0.0 { (v - lo) / span } else { 0.0 };
    // `as` saturates and maps NaN to 0.
    (t * 65535.0) as u16
}

/// Spreads the 16 bits of `v` into the even bit positions of a `u32`.
fn interleave(v: u16) -> u32 {
    let mut x = v as u32;
    x = (x | (x << 8)) & 0x00FF_00FF;
    x = (x | (x << 4)) & 0x0F0F_0F0F;
    x = (x | (x << 2)) & 0x3333_3333;
    x = (x | (x << 1)) & 0x5555_5555;
    x
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RTreeConfig;
    use crate::tree::RTree;

    fn build(n: usize) -> FrozenRTree {
        let mut t = RTree::new(RTreeConfig::PAPER);
        for i in 0..n {
            let x = (i % 29) as f64 * 3.5 + (i as f64 * 0.013);
            let y = (i / 29) as f64 * 2.5;
            t.insert(Rect::from_point(Point::new(x, y)), ItemId(i as u64));
        }
        FrozenRTree::freeze(&t)
    }

    fn windows(n: usize) -> Vec<Rect> {
        (0..n)
            .map(|q| {
                let g = (q * 13 % 80) as f64;
                let h = (q * 7 % 50) as f64;
                Rect::new(g, h, g + 12.0, h + 9.0)
            })
            .collect()
    }

    #[test]
    fn batched_windows_match_single_queries_and_stats() {
        let f = build(600);
        let ws = windows(37);
        let mut batch = BatchScratch::new();
        let mut single = SearchScratch::new();
        for within in [true, false] {
            let mut batch_stats = SearchStats::default();
            let mut single_stats = SearchStats::default();
            let got = f.batch_windows_stats(&ws, within, &mut batch, &mut batch_stats);
            assert_eq!(got.len(), ws.len());
            for (i, w) in ws.iter().enumerate() {
                let expect = if within {
                    f.search_within(w, &mut single_stats)
                } else {
                    f.search_intersecting(w, &mut single_stats)
                };
                assert_eq!(got.get(i), expect.as_slice(), "query {i} within={within}");
                // And the scratch path agrees too.
                let via_scratch = if within {
                    f.search_within_into(w, &mut single)
                } else {
                    f.search_intersecting_into(w, &mut single)
                };
                assert_eq!(got.get(i), via_scratch, "scratch path query {i}");
            }
            assert_eq!(batch_stats, single_stats, "within={within}");
        }
    }

    #[test]
    fn batched_points_and_knn_match_single_queries() {
        let f = build(500);
        let points: Vec<Point> = (0..50)
            .map(|i| Point::new((i * 11 % 90) as f64, (i * 5 % 40) as f64))
            .collect();
        let mut batch = BatchScratch::new();
        let mut batch_stats = SearchStats::default();
        let mut single_stats = SearchStats::default();
        let got = f.batch_points_stats(&points, &mut batch, &mut batch_stats);
        for (i, &p) in points.iter().enumerate() {
            assert_eq!(
                got.get(i),
                f.point_query(p, &mut single_stats).as_slice(),
                "point {i}"
            );
        }
        assert_eq!(batch_stats, single_stats);

        let knn_queries: Vec<(Point, usize)> = points
            .iter()
            .map(|&p| (p, 1 + (p.x as usize % 7)))
            .collect();
        let mut batch_stats = SearchStats::default();
        let mut single_stats = SearchStats::default();
        let got = f.batch_knn_stats(&knn_queries, &mut batch, &mut batch_stats);
        for (i, &(p, k)) in knn_queries.iter().enumerate() {
            assert_eq!(
                got.get(i),
                f.nearest_neighbors(p, k, &mut single_stats).as_slice(),
                "knn {i}"
            );
        }
        assert_eq!(batch_stats, single_stats);
    }

    #[test]
    fn results_come_back_in_input_order_not_execution_order() {
        let f = build(400);
        // Deliberately anti-sorted input: far corner first.
        let ws = vec![
            Rect::new(90.0, 30.0, 110.0, 45.0),
            Rect::new(0.0, 0.0, 15.0, 10.0),
            Rect::new(50.0, 20.0, 70.0, 32.0),
            Rect::new(0.0, 0.0, 15.0, 10.0),
        ];
        let mut batch = BatchScratch::new();
        let got = f.batch_windows(&ws, false, &mut batch);
        let mut stats = SearchStats::default();
        for (i, w) in ws.iter().enumerate() {
            assert_eq!(got.get(i), f.search_intersecting(w, &mut stats).as_slice());
        }
        // Identical queries at different positions get identical slices.
        assert_eq!(got.get(1), got.get(3));
    }

    #[test]
    fn empty_batches_and_empty_tree() {
        let f = build(100);
        let mut batch = BatchScratch::new();
        assert!(f.batch_windows(&[], true, &mut batch).is_empty());
        assert!(f.batch_points(&[], &mut batch).is_empty());
        assert!(f.batch_knn(&[], &mut batch).is_empty());

        let empty = FrozenRTree::freeze(&RTree::new(RTreeConfig::PAPER));
        let got = empty.batch_windows(&windows(5), true, &mut batch);
        for i in 0..5 {
            assert!(got.get(i).is_empty());
        }
        // k-NN on the empty tree returns empty per-query slices.
        let got = empty.batch_knn(&[(Point::new(0.0, 0.0), 3)], &mut batch);
        assert!(got.get(0).is_empty());
    }

    #[test]
    fn degenerate_and_nan_windows_are_batchable() {
        let f = build(300);
        let mut batch = BatchScratch::new();
        let ws = vec![
            Rect::new(5.0, 5.0, 5.0, 5.0),
            Rect {
                min_x: f64::NAN,
                min_y: f64::NAN,
                max_x: f64::NAN,
                max_y: f64::NAN,
            },
            Rect {
                min_x: f64::NEG_INFINITY,
                min_y: f64::NEG_INFINITY,
                max_x: f64::INFINITY,
                max_y: f64::INFINITY,
            },
            Rect::new(10.0, 0.0, 40.0, 30.0),
        ];
        let got = f.batch_windows(&ws, true, &mut batch);
        let mut stats = SearchStats::default();
        for (i, w) in ws.iter().enumerate() {
            assert_eq!(got.get(i), f.search_within(w, &mut stats).as_slice(), "{i}");
        }
    }

    #[test]
    fn batch_scratch_is_allocation_free_after_warmup() {
        let f = build(700);
        let ws = windows(64);
        let points: Vec<Point> = ws.iter().map(|w| Point::new(w.min_x, w.min_y)).collect();
        let knn: Vec<(Point, usize)> = points.iter().map(|&p| (p, 6)).collect();
        let mut batch = BatchScratch::new();
        f.batch_windows(&ws, true, &mut batch);
        f.batch_points(&points, &mut batch);
        f.batch_knn(&knn, &mut batch);
        let warm = batch.capacities();
        for _ in 0..5 {
            f.batch_windows(&ws, true, &mut batch);
            f.batch_points(&points, &mut batch);
            f.batch_knn(&knn, &mut batch);
            assert_eq!(batch.capacities(), warm, "batch scratch reallocated");
        }
    }

    #[test]
    fn morton_key_orders_a_grid_along_the_z_curve() {
        let frame = Some(Rect::new(0.0, 0.0, 100.0, 100.0));
        // The four quadrant centers follow the Z traversal order.
        let ll = morton_key(frame, 25.0, 25.0);
        let lr = morton_key(frame, 75.0, 25.0);
        let ul = morton_key(frame, 25.0, 75.0);
        let ur = morton_key(frame, 75.0, 75.0);
        assert!(ll < lr && lr < ul && ul < ur);
        // NaN and out-of-frame centers are total and deterministic.
        assert_eq!(morton_key(frame, f64::NAN, f64::NAN), 0);
        assert_eq!(morton_key(frame, -1e300, -5.0), morton_key(frame, 0.0, 0.0));
        assert_eq!(morton_key(None, 10.0, 10.0), 0);
    }
}
