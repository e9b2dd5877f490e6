//! Pictures: collections of spatial objects indexed by a packed R-tree.

use crate::spatial::SpatialOp;
use packed_rtree_core::pack;
use rtree_extpack::{ExtPackConfig, ExtPackError, ExtPackResult, ExtPackStats, NodeSink};
use rtree_geom::{Point, Rect, SpatialObject};
use rtree_index::{
    BatchScratch, BottomUpBuilder, FrozenChild, FrozenRTree, ItemId, KnnScratch, Neighbor,
    NodeAccess, NodeId, RTree, RTreeConfig, SearchScratch, SearchStats,
};
use rtree_storage::{codec, PageId, Pager};
use std::collections::HashMap;
use std::sync::Arc;

/// One packed generation of a picture: everything a pack produced,
/// immutable until the next pack and shared (behind an [`Arc`]) by
/// every snapshot published in between.
#[derive(Debug)]
struct PackedGeneration {
    /// Objects `[0, packed_len)`.
    objects: Vec<SpatialObject>,
    labels: Vec<String>,
    /// The packed pointer tree: what [`Picture::tree`] returns. No
    /// query reads it.
    tree: RTree,
    /// The SoA compilation of `tree`, which serves every query.
    frozen: FrozenRTree,
}

/// A picture: named spatial objects over a frame, indexed by an R-tree.
///
/// "Each pictorial domain element that corresponds to a tuple of the
/// relation appears on a leaf-node of the R-tree" (§2.1): object ids here
/// are the pointer values stored in relations' `loc` columns.
///
/// A picture is an immutable **packed generation** plus an owned
/// **delta**. [`pack`](Picture::pack) moves every object into a new
/// generation — objects, labels, the packed pointer tree and its
/// [`FrozenRTree`] compilation — covering ids `[0, packed_len)`. A
/// dynamic [`add`](Picture::add) after that (the §3.4 "update problem")
/// touches only the delta: the object/label tail `[packed_len, len)` and
/// a small in-memory Guttman tree over it. Every query composes *main +
/// delta*, whose candidate sets are disjoint by construction; the next
/// pack (an explicit REPACK or the server's background merge) folds the
/// delta into a fresh generation. Before the first pack there is no
/// generation and the Guttman tree indexes every object. DESIGN.md §14
/// describes the full write path, including the WAL that makes buffered
/// adds durable.
///
/// `Clone` shares the packed generation and copies the delta, so a
/// snapshot of a packed picture costs O(delta), not O(objects).
#[derive(Debug, Clone)]
pub struct Picture {
    name: String,
    frame: Rect,
    packed: Option<Arc<PackedGeneration>>,
    /// Objects in `packed` (0 before the first pack), kept beside the
    /// `Arc` so resolving an id needs no pointer chase.
    packed_len: usize,
    /// Objects and labels `[packed_len, len)`.
    objects: Vec<SpatialObject>,
    labels: Vec<String>,
    /// Guttman tree over the tail: the delta of a packed picture, the
    /// whole index of a never-packed one.
    delta: RTree,
    /// Heap bytes of all labels, and of the packed ones — running totals
    /// so [`estimated_bytes`](Picture::estimated_bytes) walks nothing.
    label_bytes: usize,
    packed_label_bytes: usize,
}

/// The tree traversal that produces `op`'s candidates: `Some(true)` for
/// WITHIN at the leaves (the paper's SEARCH), `Some(false)` for
/// INTERSECTS, `None` when no hierarchy of rectangles can prune.
fn traversal(op: SpatialOp) -> Option<bool> {
    match op {
        SpatialOp::CoveredBy => Some(true),
        SpatialOp::Overlapping | SpatialOp::Covering => Some(false),
        SpatialOp::Disjoined => None,
    }
}

fn neighbor_ids(neighbors: &[Neighbor]) -> Vec<u64> {
    neighbors.iter().map(|n| n.item.0).collect()
}

impl Picture {
    /// Creates an empty picture over `frame`.
    pub fn new(name: &str, frame: Rect, config: RTreeConfig) -> Self {
        Picture {
            name: name.to_owned(),
            frame,
            packed: None,
            packed_len: 0,
            objects: Vec::new(),
            labels: Vec::new(),
            delta: RTree::new(config),
            label_bytes: 0,
            packed_label_bytes: 0,
        }
    }

    /// Picture name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The picture's frame rectangle.
    pub fn frame(&self) -> Rect {
        self.frame
    }

    /// Number of objects.
    pub fn len(&self) -> usize {
        self.packed_len + self.objects.len()
    }

    /// `true` if the picture has no objects.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Adds an object (dynamically, via Guttman INSERT), returning its
    /// object id — the pointer value for `loc` columns. The packed
    /// generation is never written: the object joins the tail and the
    /// delta tree, and queries merge both.
    pub fn add(&mut self, object: SpatialObject, label: &str) -> u64 {
        let id = self.len() as u64;
        self.delta.insert(object.mbr(), ItemId(id));
        self.objects.push(object);
        self.labels.push(label.to_owned());
        self.label_bytes += label.len();
        id
    }

    /// Every object in id order: the packed prefix, then the tail.
    fn all_objects(&self) -> impl Iterator<Item = &SpatialObject> {
        let packed = self.packed.iter().flat_map(|g| &g.objects);
        packed.chain(&self.objects)
    }

    /// `(mbr, id)` of every object, in id order — the packers' input.
    fn items(&self) -> Vec<(Rect, ItemId)> {
        let mut items = Vec::with_capacity(self.len());
        items.extend(
            self.all_objects()
                .zip(0u64..)
                .map(|(object, id)| (object.mbr(), ItemId(id))),
        );
        items
    }

    /// Replaces the packed generation with `tree` + `frozen` over every
    /// object, leaving the delta empty. The old generation's vectors are
    /// extended in place when this picture is their only owner (the
    /// bulk-load path copies nothing); when snapshots still share them —
    /// a merge — they are copied once, off every lock.
    fn install_generation(&mut self, tree: RTree, frozen: impl FnOnce(&RTree) -> FrozenRTree) {
        // Everything superseded is released before the new arena is
        // built, so a pack's peak is two trees and one arena, not more.
        self.delta = RTree::new(tree.config());
        let tail_objects = std::mem::take(&mut self.objects);
        let tail_labels = std::mem::take(&mut self.labels);
        let (objects, labels) = match self.packed.take().map(Arc::try_unwrap) {
            None => (tail_objects, tail_labels),
            Some(previous) => {
                // An unshared previous generation drops its tree and
                // arena here.
                let (mut objects, mut labels) = match previous {
                    Ok(owned) => (owned.objects, owned.labels),
                    Err(shared) => {
                        let len = shared.objects.len() + tail_objects.len();
                        let mut objects = Vec::with_capacity(len);
                        objects.extend_from_slice(&shared.objects);
                        let mut labels = Vec::with_capacity(len);
                        labels.extend_from_slice(&shared.labels);
                        (objects, labels)
                    }
                };
                objects.extend(tail_objects);
                labels.extend(tail_labels);
                (objects, labels)
            }
        };
        let frozen = frozen(&tree);
        self.packed_len = objects.len();
        self.packed_label_bytes = self.label_bytes;
        self.packed = Some(Arc::new(PackedGeneration {
            objects,
            labels,
            tree,
            frozen,
        }));
    }

    /// Re-packs the picture's R-tree with the paper's PACK algorithm —
    /// the "initial packing" applied once the (static) picture is loaded
    /// — and compiles the result into the frozen SoA layout.
    pub fn pack(&mut self) {
        let tree = pack(self.items(), self.delta.config());
        self.install_generation(tree, FrozenRTree::freeze);
    }

    /// Re-packs the picture with the **out-of-core** external packer
    /// (`PACK EXTERNAL <picture> BUDGET <bytes> [THREADS <n>]` in PSQL):
    /// object MBRs stream through budget-bounded spill runs into packed
    /// disk pages — overlapped, multi-threaded, and partition-merged
    /// when `threads ≥ 2` — while a [`NodeSink`] rebuilds the pointer
    /// tree **and** the frozen SoA arena directly from the emission
    /// stream (no post-pack re-read of the destination, no separate
    /// freeze pass). Bit-identical to [`pack`](Picture::pack) at every
    /// budget and thread count, with peak resident buffer memory bounded
    /// by `memory_budget_bytes` instead of the dataset size. `threads`
    /// 0 selects the machine default. Returns the packer's counters; on
    /// an error the picture is unchanged.
    pub fn pack_external(
        &mut self,
        memory_budget_bytes: u64,
        threads: usize,
    ) -> ExtPackResult<ExtPackStats> {
        let config = self.delta.config();
        let dest = Pager::temp().map_err(ExtPackError::Io)?;
        let cfg = ExtPackConfig {
            tree: config,
            threads,
            ..ExtPackConfig::new(memory_budget_bytes)
        };
        let mut sink = RebuildSink {
            builder: BottomUpBuilder::new(config),
            nodes: HashMap::new(),
            by_page: HashMap::new(),
            root: None,
            root_page: 0,
            depth: 0,
        };
        let (_disk, stats) =
            rtree_extpack::pack_external_with_sink(self.items(), &cfg, &dest, &mut sink)?;
        if self.is_empty() {
            // The packer emits a single empty leaf page; the canonical
            // in-memory form of that is an empty tree, so discard the
            // sink state and build the empty forms directly.
            let tree = BottomUpBuilder::new(config).finish_empty();
            self.install_generation(tree, FrozenRTree::freeze);
        } else {
            let root = sink.root.expect("non-empty pack emits a root");
            let tree = sink.builder.finish(root);
            let (mut nodes, depth, root_page) = (sink.nodes, sink.depth, sink.root_page);
            let len = self.len();
            self.install_generation(tree, |tree| {
                FrozenRTree::from_nodes(tree.config(), depth, len, root_page, |key| {
                    nodes
                        .remove(&key)
                        .expect("every referenced page was emitted")
                })
            });
        }
        Ok(stats)
    }

    /// The object with id `id`.
    pub fn object(&self, id: u64) -> Option<&SpatialObject> {
        let id = usize::try_from(id).ok()?;
        match id.checked_sub(self.packed_len) {
            Some(tail) => self.objects.get(tail),
            None => self.packed.as_ref()?.objects.get(id),
        }
    }

    /// The label of object `id`.
    pub fn label(&self, id: u64) -> Option<&str> {
        let id = usize::try_from(id).ok()?;
        let label = match id.checked_sub(self.packed_len) {
            Some(tail) => self.labels.get(tail),
            None => self.packed.as_ref()?.labels.get(id),
        };
        label.map(String::as_str)
    }

    /// The picture's main R-tree: the packed pointer tree once packed
    /// (ids `[0, packed_len)`; later objects are in the delta), the
    /// Guttman tree over every object before the first pack.
    pub fn tree(&self) -> &RTree {
        match &self.packed {
            Some(generation) => &generation.tree,
            None => &self.delta,
        }
    }

    /// The frozen compilation of the tree, present since the last
    /// [`pack`](Picture::pack). It covers ids `[0, packed_len)`; objects
    /// added since live in the [`delta_tree`](Picture::delta_tree).
    pub fn frozen(&self) -> Option<&FrozenRTree> {
        self.packed.as_ref().map(|generation| &generation.frozen)
    }

    /// The in-memory Guttman delta tree over objects added since the
    /// last pack (ids `packed_len..len`), if there are any. `None` on a
    /// never-packed or freshly packed picture.
    pub fn delta_tree(&self) -> Option<&RTree> {
        (self.packed.is_some() && !self.delta.is_empty()).then_some(&self.delta)
    }

    /// Objects buffered in the delta tree since the last pack.
    pub fn delta_len(&self) -> usize {
        self.delta_tree().map_or(0, RTree::len)
    }

    /// Objects covered by the packed generation (prefix of the object
    /// id space). Zero on a never-packed picture.
    pub fn packed_len(&self) -> usize {
        self.packed_len
    }

    /// `true` when the picture has buffered dynamic writes the next
    /// merge-repack should fold into the main tree.
    pub fn needs_merge(&self) -> bool {
        self.delta_tree().is_some()
    }

    /// `true` when `self` and `other` serve the very same packed
    /// generation — what a snapshot clone must preserve and a pack must
    /// end. Two never-packed pictures share nothing.
    #[doc(hidden)]
    pub fn shares_packed_with(&self, other: &Picture) -> bool {
        matches!((&self.packed, &other.packed), (Some(a), Some(b)) if Arc::ptr_eq(a, b))
    }

    /// Estimated resident bytes of the `(packed generation, delta)`,
    /// computed from lengths alone: inline object and label sizes, label
    /// heap bytes, and each index's node arrays. Region and segment
    /// vertex storage and allocator overhead are not counted.
    pub fn estimated_bytes(&self) -> (usize, usize) {
        let per_object = std::mem::size_of::<SpatialObject>() + std::mem::size_of::<String>();
        let packed = self.packed.as_ref().map_or(0, |generation| {
            self.packed_len * per_object
                + self.packed_label_bytes
                + generation.tree.approx_bytes()
                + generation.frozen.approx_bytes()
        });
        let delta = self.objects.len() * per_object
            + (self.label_bytes - self.packed_label_bytes)
            + self.delta.approx_bytes();
        (packed, delta)
    }

    /// The picture's index: the frozen arena over ids `[0, packed_len)`
    /// if packed, and the Guttman tree over the rest if it holds any —
    /// or, before the first pack, over everything.
    pub(crate) fn index_parts(&self) -> (Option<&FrozenRTree>, Option<&RTree>) {
        let delta = (self.packed.is_none() || !self.delta.is_empty()).then_some(&self.delta);
        (self.frozen(), delta)
    }

    /// [`index_parts`](Self::index_parts) as the first structure a query
    /// searches and the second, if there is one.
    fn parts(&self) -> (&dyn NodeAccess, Option<&dyn NodeAccess>) {
        match self.index_parts() {
            (Some(frozen), delta) => (frozen, delta.map(|delta| delta as &dyn NodeAccess)),
            (None, _) => (&self.delta, None),
        }
    }

    /// All object ids.
    pub fn object_ids(&self) -> impl Iterator<Item = u64> {
        0..self.len() as u64
    }

    /// Merges two distance-ascending neighbour lists into the `k`
    /// nearest, preferring the main side on exact distance ties (its ids
    /// are smaller by construction).
    fn merge_neighbors(main: &[Neighbor], delta: &[Neighbor], k: usize) -> Vec<Neighbor> {
        let mut out = Vec::with_capacity(k.min(main.len() + delta.len()));
        let (mut i, mut j) = (0, 0);
        while out.len() < k {
            let from_main = match (main.get(i), delta.get(j)) {
                (Some(a), Some(b)) => a.distance_sq.total_cmp(&b.distance_sq).is_le(),
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => break,
            };
            if from_main {
                out.push(main[i]);
                i += 1;
            } else {
                out.push(delta[j]);
                j += 1;
            }
        }
        out
    }

    /// One logical window query over the picture's index: each part's
    /// candidates, refined with exact geometry, main first. The two
    /// parts hold disjoint ids; the second traversal's work is counted
    /// toward the same one query.
    fn window(
        &self,
        op: SpatialOp,
        window: &Rect,
        scratch: &mut SearchScratch,
        mut stats: Option<&mut SearchStats>,
    ) -> Vec<u64> {
        let Some(within) = traversal(op) else {
            if let Some(stats) = stats {
                stats.queries += 1;
            }
            return self.scan(op, window);
        };
        let (main, delta) = self.parts();
        let hits = main.search_window(window, within, scratch, stats.as_deref_mut());
        let mut out: Vec<u64> = self.refine(op, window, hits).collect();
        if let Some(delta) = delta {
            let hits = delta.search_window(window, within, scratch, stats.as_deref_mut());
            out.extend(self.refine(op, window, hits));
            if let Some(stats) = stats {
                stats.queries -= 1;
            }
        }
        out
    }

    /// One logical k-NN query: the `k` nearest over both index parts.
    fn knn(
        &self,
        p: Point,
        k: usize,
        scratch: &mut KnnScratch,
        mut stats: Option<&mut SearchStats>,
    ) -> Vec<u64> {
        let (main, delta) = self.parts();
        let Some(delta) = delta else {
            return neighbor_ids(main.search_nearest(p, k, scratch, stats));
        };
        // Both searches share the scratch, so the first is copied out.
        let near = main
            .search_nearest(p, k, scratch, stats.as_deref_mut())
            .to_vec();
        let extra = delta.search_nearest(p, k, scratch, stats.as_deref_mut());
        if let Some(stats) = stats {
            stats.queries -= 1;
        }
        neighbor_ids(&Self::merge_neighbors(&near, extra, k))
    }

    /// Direct spatial search: object ids satisfying `obj op window`,
    /// pruned through the R-tree and refined with exact geometry. The
    /// frozen arena and the delta tree (when the picture holds one) are
    /// both searched and their disjoint candidate sets merged; the
    /// delta's traversal counts toward the same one logical query.
    pub fn search_window(&self, op: SpatialOp, window: &Rect, stats: &mut SearchStats) -> Vec<u64> {
        self.window(op, window, &mut SearchScratch::new(), Some(stats))
    }

    /// [`search_window`](Self::search_window) without statistics: the
    /// executor's hot path. Tree traversal reuses `scratch`, so repeated
    /// queries (e.g. one per inner tuple of a nested mapping) allocate
    /// nothing once the scratch buffers have warmed up.
    pub fn search_window_fast(
        &self,
        op: SpatialOp,
        window: &Rect,
        scratch: &mut SearchScratch,
    ) -> Vec<u64> {
        self.window(op, window, scratch, None)
    }

    /// The `k` objects whose MBRs are nearest to `p`, ordered by
    /// ascending distance, with Table 1 counters.
    pub fn nearest(&self, p: Point, k: usize, stats: &mut SearchStats) -> Vec<u64> {
        self.knn(p, k, &mut KnnScratch::new(), Some(stats))
    }

    /// [`nearest`](Self::nearest) without statistics: the executor's
    /// `at … nearest` path. The branch-and-bound heap lives in the
    /// scratch's embedded [`KnnScratch`](rtree_index::KnnScratch), so
    /// repeated queries allocate nothing once warmed up.
    pub fn nearest_fast(&self, p: Point, k: usize, scratch: &mut SearchScratch) -> Vec<u64> {
        self.knn(p, k, scratch.knn(), None)
    }

    /// Batched [`search_window_fast`](Self::search_window_fast): executes
    /// a pack of window queries and returns per-query refined object ids
    /// **in input order**. Queries are partitioned by traversal kind
    /// (`within` for covered-by, `intersecting` for overlap/cover) and
    /// each partition runs through [`FrozenRTree::batch_windows`] —
    /// spatially grouped over one shared scratch — once the picture is
    /// packed; before that each query falls back to the one-at-a-time
    /// path. Per-query results are bit-identical to
    /// `search_window_fast` either way.
    pub fn search_windows_batch(
        &self,
        queries: &[(SpatialOp, Rect)],
        batch: &mut BatchScratch,
    ) -> Vec<Vec<u64>> {
        let Some(frozen) = self.frozen() else {
            return queries
                .iter()
                .map(|(op, window)| self.search_window_fast(*op, window, batch.search()))
                .collect();
        };
        let mut out: Vec<Vec<u64>> = vec![Vec::new(); queries.len()];
        // Disjointness enumerates; it gains nothing from tree batching.
        for (slot, (op, window)) in out.iter_mut().zip(queries) {
            if traversal(*op).is_none() {
                *slot = self.scan(*op, window);
            }
        }
        for within in [true, false] {
            let group: Vec<usize> = (0..queries.len())
                .filter(|&i| traversal(queries[i].0) == Some(within))
                .collect();
            if group.is_empty() {
                continue;
            }
            let windows: Vec<Rect> = group.iter().map(|&i| queries[i].1).collect();
            {
                let results = frozen.batch_windows(&windows, within, batch);
                for (slot, &i) in group.iter().enumerate() {
                    let (op, window) = &queries[i];
                    out[i] = self.refine(*op, window, results.get(slot)).collect();
                }
            }
            // Buffered delta objects merge in after the frozen batch
            // (the batch results borrow the scratch, so this is a
            // second pass once that borrow ends).
            if let Some(delta) = self.delta_tree() {
                for &i in &group {
                    let (op, window) = &queries[i];
                    let candidates = delta.search_window(window, within, batch.search(), None);
                    out[i].extend(self.refine(*op, window, candidates));
                }
            }
        }
        out
    }

    /// Batched [`nearest_fast`](Self::nearest_fast): the `k` nearest
    /// object ids per `(point, k)` query, in input order, via
    /// [`FrozenRTree::batch_knn`] once the picture is packed and the
    /// one-at-a-time path before.
    pub fn nearest_batch(
        &self,
        queries: &[(Point, usize)],
        batch: &mut BatchScratch,
    ) -> Vec<Vec<u64>> {
        let Some(frozen) = self.frozen() else {
            return queries
                .iter()
                .map(|&(p, k)| self.nearest_fast(p, k, batch.search()))
                .collect();
        };
        let Some(delta) = self.delta_tree() else {
            let results = frozen.batch_knn(queries, batch);
            return results.iter().map(neighbor_ids).collect();
        };
        // Copy the frozen batch out (it borrows the scratch), then merge
        // each query's delta neighbours in.
        let main: Vec<Vec<Neighbor>> = {
            let results = frozen.batch_knn(queries, batch);
            results.iter().map(<[Neighbor]>::to_vec).collect()
        };
        queries
            .iter()
            .zip(main)
            .map(|(&(p, k), near)| {
                let extra = delta.nearest_neighbors_into(p, k, batch.search().knn());
                neighbor_ids(&Self::merge_neighbors(&near, extra, k))
            })
            .collect()
    }

    /// Exact-geometry refinement of index candidates.
    fn refine<'a>(
        &'a self,
        op: SpatialOp,
        window: &'a Rect,
        candidates: &'a [ItemId],
    ) -> impl Iterator<Item = u64> + 'a {
        candidates.iter().map(|&ItemId(id)| id).filter(move |&id| {
            let object = self.object(id).expect("the index holds live ids only");
            op.eval_window(object, window)
        })
    }

    /// Every object satisfying `obj op window`, by walking the objects:
    /// the `Disjoined` path, which no bounding hierarchy can prune.
    fn scan(&self, op: SpatialOp, window: &Rect) -> Vec<u64> {
        self.all_objects()
            .zip(0u64..)
            .filter(|(object, _)| op.eval_window(object, window))
            .map(|(_, id)| id)
            .collect()
    }
}

/// Rebuilds the pointer tree **and** captures the node stream for the
/// frozen SoA arena during the external pack, straight from the packer's
/// [`NodeSink`] — no post-pack sweep of the destination file. The packer
/// emits nodes level-major (all leaves, then each internal level, root
/// last), so every child is observed before its parent and the pointer
/// tree assembles bottom-up. Emission order within a level is *run
/// order*, not the BFS sibling order the frozen layout wants (the NN
/// strategy reorders entries within a group), so the frozen arena is
/// compiled afterwards by [`FrozenRTree::from_nodes`], whose own
/// breadth-first walk over the buffered nodes reproduces exactly the
/// layout [`FrozenRTree::freeze`] would build from the rebuilt tree.
struct RebuildSink {
    builder: BottomUpBuilder,
    /// Emitted nodes by destination page id, fed to `from_nodes`.
    nodes: HashMap<u64, (u32, Vec<(Rect, FrozenChild)>)>,
    /// Destination page id → pointer-tree node, for parent resolution.
    by_page: HashMap<u64, NodeId>,
    /// Last node seen; the packer emits the root last.
    root: Option<NodeId>,
    /// Destination page of the root (last node emitted).
    root_page: u64,
    /// Root level — the pointer tree's `depth()`.
    depth: u32,
}

impl NodeSink for RebuildSink {
    fn node(&mut self, level: u32, page: PageId, entries: &[codec::DiskEntry]) {
        if entries.is_empty() {
            // Empty-picture pack: the packer still emits one empty root
            // leaf page, but the caller rebuilds the canonical empty
            // forms directly, so there is nothing to buffer.
            return;
        }
        let frozen_entries: Vec<(Rect, FrozenChild)> = entries
            .iter()
            .map(|e| {
                let child = if level == 0 {
                    FrozenChild::Item(ItemId(e.child))
                } else {
                    FrozenChild::Node(e.child)
                };
                (e.mbr, child)
            })
            .collect();
        self.nodes.insert(page.0 as u64, (level, frozen_entries));
        let (nid, _) = if level == 0 {
            self.builder
                .add_leaf(entries.iter().map(|e| (e.mbr, ItemId(e.child))).collect())
        } else {
            let children = entries
                .iter()
                .map(|e| {
                    let nid = *self
                        .by_page
                        .get(&e.child)
                        .expect("packer emits children before parents");
                    (nid, e.mbr)
                })
                .collect();
            self.builder.add_internal(level, children)
        };
        self.by_page.insert(page.0 as u64, nid);
        self.root = Some(nid);
        self.root_page = page.0 as u64;
        self.depth = level;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtree_geom::{Point, Region};

    fn sample() -> Picture {
        let mut pic = Picture::new(
            "test",
            Rect::new(0.0, 0.0, 100.0, 100.0),
            RTreeConfig::PAPER,
        );
        for i in 0..20 {
            let p = Point::new((i * 5) as f64, (i * 5) as f64);
            pic.add(SpatialObject::Point(p), &format!("pt{i}"));
        }
        pic.add(
            SpatialObject::Region(Region::rectangle(Rect::new(10.0, 10.0, 30.0, 30.0))),
            "zone",
        );
        pic
    }

    #[test]
    fn add_and_lookup() {
        let pic = sample();
        assert_eq!(pic.len(), 21);
        assert_eq!(pic.label(0), Some("pt0"));
        assert_eq!(pic.label(20), Some("zone"));
        assert!(pic.object(99).is_none());
    }

    #[test]
    fn pack_preserves_searchability() {
        let mut pic = sample();
        let mut stats = SearchStats::default();
        let before = pic.search_window(
            SpatialOp::CoveredBy,
            &Rect::new(0.0, 0.0, 26.0, 26.0),
            &mut stats,
        );
        pic.pack();
        pic.tree().validate_with(false).unwrap();
        let mut after = pic.search_window(
            SpatialOp::CoveredBy,
            &Rect::new(0.0, 0.0, 26.0, 26.0),
            &mut stats,
        );
        let mut before = before;
        before.sort_unstable();
        after.sort_unstable();
        assert_eq!(before, after);
        // pt0..pt5 (0,5,10,15,20,25) plus the zone region [10,30]? No:
        // the zone's max corner (30,30) exceeds 26, so only the points.
        assert_eq!(after, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn overlap_vs_covered_by() {
        let mut pic = sample();
        pic.pack();
        let mut stats = SearchStats::default();
        let window = Rect::new(5.0, 5.0, 26.0, 26.0);
        let covered = pic.search_window(SpatialOp::CoveredBy, &window, &mut stats);
        let overlapping = pic.search_window(SpatialOp::Overlapping, &window, &mut stats);
        // The zone region overlaps the window but is not covered by it.
        assert!(!covered.contains(&20));
        assert!(overlapping.contains(&20));
    }

    #[test]
    fn pack_freezes_and_add_opens_delta() {
        let mut pic = sample();
        assert!(pic.frozen().is_none());
        assert_eq!(pic.delta_len(), 0, "pre-pack adds bypass the delta");
        pic.pack();
        assert!(pic.frozen().is_some());
        assert_eq!(pic.packed_len(), pic.len());
        // Frozen and pointer paths agree on results and counters.
        let window = Rect::new(0.0, 0.0, 40.0, 40.0);
        let mut frozen_stats = SearchStats::default();
        let mut tree_stats = SearchStats::default();
        let via_frozen = pic.search_window(SpatialOp::Overlapping, &window, &mut frozen_stats);
        let via_tree: Vec<u64> = pic
            .tree()
            .search_intersecting(&window, &mut tree_stats)
            .into_iter()
            .map(|ItemId(id)| id)
            .collect();
        assert_eq!(via_frozen, via_tree);
        assert_eq!(frozen_stats, tree_stats);
        // A dynamic insert no longer drops the frozen arena: it buffers
        // in the delta tree and queries keep merging both.
        let late = pic.add(SpatialObject::Point(Point::new(1.0, 2.0)), "late");
        assert!(pic.frozen().is_some(), "add must not drop the frozen tree");
        assert!(pic.needs_merge());
        assert_eq!(pic.delta_len(), 1);
        let mut stats = SearchStats::default();
        let got = pic.search_window(SpatialOp::Overlapping, &window, &mut stats);
        assert!(got.contains(&late), "merged query must see the delta");
        // Re-packing folds the delta back into the main tree.
        pic.pack();
        assert!(!pic.needs_merge());
        assert_eq!(pic.packed_len(), pic.len());
        let mut stats = SearchStats::default();
        let after = pic.search_window(SpatialOp::Overlapping, &window, &mut stats);
        let mut got = got;
        got.sort_unstable();
        let mut after = after;
        after.sort_unstable();
        assert_eq!(got, after);
    }

    /// The delta path on a picture large enough to serve frozen queries:
    /// every query shape (window ops, k-NN, batched forms) must agree
    /// with a freshly packed copy of the same objects.
    #[test]
    fn delta_merge_is_equivalent_to_repacked() {
        let mut live = big_picture(16_000);
        for i in 0..300u64 {
            let x = (i.wrapping_mul(48271) % 100_000) as f64 / 100.0;
            let y = (i.wrapping_mul(69621) % 100_000) as f64 / 100.0;
            live.add(SpatialObject::Point(Point::new(x, y)), &format!("d{i}"));
        }
        assert_eq!(live.delta_len(), 300);
        assert!(
            live.frozen().is_some(),
            "delta writes must not knock queries off the frozen arena"
        );
        let mut repacked = live.clone();
        repacked.pack();

        let mut batch = BatchScratch::new();
        let windows: Vec<(SpatialOp, Rect)> = (0..30)
            .map(|i| {
                let x = (i * 97 % 800) as f64;
                let y = (i * 31 % 800) as f64;
                let op = match i % 4 {
                    0 => SpatialOp::CoveredBy,
                    1 => SpatialOp::Overlapping,
                    2 => SpatialOp::Covering,
                    _ => SpatialOp::Disjoined,
                };
                (op, Rect::new(x, y, x + 120.0, y + 120.0))
            })
            .collect();
        for (op, w) in &windows {
            let mut s1 = SearchStats::default();
            let mut s2 = SearchStats::default();
            let mut merged = live.search_window(*op, w, &mut s1);
            let mut packed = repacked.search_window(*op, w, &mut s2);
            merged.sort_unstable();
            packed.sort_unstable();
            assert_eq!(merged, packed, "{op:?} {w:?} diverged from repacked");
            let mut fast = live.search_window_fast(*op, w, batch.search());
            fast.sort_unstable();
            assert_eq!(fast, merged, "fast path diverged on {op:?}");
        }
        let batched = live.search_windows_batch(&windows, &mut batch);
        for (got, (op, w)) in batched.iter().zip(&windows) {
            let single = live.search_window_fast(*op, w, batch.search());
            assert_eq!(got, &single, "batched {op:?} {w:?} diverged");
        }

        // k-NN: distances must match the repacked picture (ties at the
        // cut-off make the identity of the k-th neighbour ambiguous).
        let dist = |pic: &Picture, p: Point, ids: &[u64]| -> Vec<f64> {
            ids.iter()
                .map(|&id| pic.object(id).unwrap().mbr().min_distance_sq(p))
                .collect()
        };
        let knn_queries: Vec<(Point, usize)> = (0..20)
            .map(|i| {
                let x = (i * 211 % 1000) as f64;
                let y = (i * 57 % 1000) as f64;
                (Point::new(x, y), 1 + i % 9)
            })
            .collect();
        for &(p, k) in &knn_queries {
            let mut s1 = SearchStats::default();
            let mut s2 = SearchStats::default();
            let merged = live.nearest(p, k, &mut s1);
            let packed = repacked.nearest(p, k, &mut s2);
            assert_eq!(merged.len(), packed.len());
            assert_eq!(dist(&live, p, &merged), dist(&repacked, p, &packed));
            let fast = live.nearest_fast(p, k, batch.search());
            assert_eq!(merged, fast, "k-NN fast path diverged at {p:?}");
        }
        let batched = live.nearest_batch(&knn_queries, &mut batch);
        for (got, &(p, k)) in batched.iter().zip(&knn_queries) {
            let single = live.nearest_fast(p, k, batch.search());
            assert_eq!(got, &single, "batched k-NN at {p:?} k={k} diverged");
        }
    }

    #[test]
    fn nearest_paths_agree() {
        let mut pic = sample();
        pic.pack();
        let mut stats = SearchStats::default();
        let mut scratch = SearchScratch::new();
        let p = Point::new(33.0, 12.0);
        let with_stats = pic.nearest(p, 5, &mut stats);
        let fast = pic.nearest_fast(p, 5, &mut scratch);
        assert_eq!(with_stats, fast);
        assert_eq!(with_stats.len(), 5);
        assert_eq!(stats.queries, 1);
    }

    fn big_picture(n: u64) -> Picture {
        let mut pic = Picture::new(
            "big",
            Rect::new(0.0, 0.0, 1000.0, 1000.0),
            RTreeConfig::PAPER,
        );
        for i in 0..n {
            // Deterministic pseudo-random scatter over the frame.
            let x = (i.wrapping_mul(2654435761) % 100_000) as f64 / 100.0;
            let y = (i.wrapping_mul(40503) % 100_000) as f64 / 100.0;
            pic.add(SpatialObject::Point(Point::new(x, y)), &format!("o{i}"));
        }
        pic.pack();
        pic
    }

    /// A packed picture answers from its arena whatever its size — a
    /// Table-1-scale one included — and the arena is invisible in the
    /// answers: results, order and counters equal the picture's own
    /// pointer tree.
    #[test]
    fn packed_pictures_serve_the_arena_at_every_size() {
        let mut small = sample();
        assert!(small.frozen().is_none(), "never packed: no arena");
        small.pack();
        for pic in [small, big_picture(16_000)] {
            assert!(pic.frozen().is_some());
            let ids = |items: Vec<ItemId>| -> Vec<u64> { items.iter().map(|i| i.0).collect() };
            for i in 0..20 {
                let x = (i * 43 % 900) as f64;
                let w = Rect::new(x, x * 0.5, x + 60.0, x * 0.5 + 45.0);
                let (mut ps, mut ts) = <(SearchStats, SearchStats)>::default();
                assert_eq!(
                    pic.search_window(SpatialOp::CoveredBy, &w, &mut ps),
                    ids(pic.tree().search_within(&w, &mut ts))
                );
                let p = Point::new(x, 100.0);
                let near = pic.tree().nearest_neighbors(p, 4, &mut ts);
                assert_eq!(
                    pic.nearest(p, 4, &mut ps),
                    ids(near.iter().map(|n| n.item).collect())
                );
                assert_eq!(ps, ts, "counters diverged from the pointer tree");
            }
        }
    }

    #[test]
    fn batched_window_queries_match_single_queries() {
        let mut batch = BatchScratch::new();
        for pic in [big_picture(16_000), {
            let mut small = sample();
            small.pack();
            small
        }] {
            let queries: Vec<(SpatialOp, Rect)> = (0..40)
                .map(|i| {
                    let x = (i * 23 % 900) as f64;
                    let y = (i * 41 % 900) as f64;
                    let op = match i % 4 {
                        0 => SpatialOp::CoveredBy,
                        1 => SpatialOp::Overlapping,
                        2 => SpatialOp::Covering,
                        _ => SpatialOp::Disjoined,
                    };
                    (op, Rect::new(x, y, x + 40.0, y + 40.0))
                })
                .collect();
            let batched = pic.search_windows_batch(&queries, &mut batch);
            for (got, (op, window)) in batched.iter().zip(&queries) {
                let single = pic.search_window_fast(*op, window, batch.search());
                assert_eq!(got, &single, "{op:?} {window:?} diverged");
            }
        }
    }

    #[test]
    fn batched_nearest_matches_single_queries() {
        let mut batch = BatchScratch::new();
        for pic in [big_picture(16_000), {
            let mut small = sample();
            small.pack();
            small
        }] {
            let queries: Vec<(Point, usize)> = (0..30)
                .map(|i| {
                    let x = (i * 137 % 1000) as f64;
                    let y = (i * 71 % 1000) as f64;
                    (Point::new(x, y), 1 + i % 7)
                })
                .collect();
            let batched = pic.nearest_batch(&queries, &mut batch);
            for (got, &(p, k)) in batched.iter().zip(&queries) {
                let single = pic.nearest_fast(p, k, batch.search());
                assert_eq!(got, &single, "k-NN at {p:?} k={k} diverged");
            }
        }
    }

    /// The out-of-core path must reconstruct the very same pointer tree
    /// (`RTree: PartialEq`, arena layout included) as the in-memory
    /// packer, and serve identical queries afterwards.
    #[test]
    fn pack_external_is_bit_identical_to_pack() {
        let in_memory = big_picture(5_000); // big_picture packs
        let mut external = in_memory.clone();
        // 32 KiB budget: far below the ~480 KiB the items occupy. Two
        // pipeline threads drive the overlapped produce/sort/spill path.
        let stats = external.pack_external(32 * 1024, 2).expect("external pack");
        assert!(stats.initial_runs > 1, "must have spilled: {stats:?}");
        assert!(stats.peak_budget_bytes <= 32 * 1024);
        assert_eq!(stats.threads_used, 2);
        assert_eq!(
            external.tree(),
            in_memory.tree(),
            "trees must be bit-identical"
        );
        assert_eq!(external.packed_len(), external.len());
        assert!(external.frozen().is_some());
        // The sink-built arena must equal a from-scratch freeze of the
        // rebuilt pointer tree (direct emission skipped that pass).
        assert_eq!(
            external.frozen().expect("frozen"),
            &FrozenRTree::freeze(external.tree()),
            "sink-built frozen arena diverged from freeze()"
        );
        assert!(!external.needs_merge());

        let window = Rect::new(100.0, 100.0, 400.0, 400.0);
        for op in [SpatialOp::CoveredBy, SpatialOp::Overlapping] {
            let mut s1 = SearchStats::default();
            let mut s2 = SearchStats::default();
            assert_eq!(
                external.search_window(op, &window, &mut s1),
                in_memory.search_window(op, &window, &mut s2),
                "{op:?} diverged"
            );
            assert_eq!(s1, s2, "{op:?} traversal counters diverged");
        }
        let mut s = SearchStats::default();
        assert_eq!(
            external.nearest(Point::new(500.0, 500.0), 7, &mut s),
            in_memory.nearest(Point::new(500.0, 500.0), 7, &mut SearchStats::default())
        );
    }

    #[test]
    fn pack_external_folds_delta_and_empty_picture() {
        let mut pic = sample();
        pic.pack();
        pic.add(SpatialObject::Point(Point::new(2.0, 3.0)), "late");
        assert!(pic.needs_merge());
        pic.pack_external(0, 1)
            .expect("degenerate budget still packs");
        assert!(!pic.needs_merge());
        assert_eq!(pic.packed_len(), pic.len());
        let mut twin = sample();
        twin.add(SpatialObject::Point(Point::new(2.0, 3.0)), "late");
        twin.pack();
        assert_eq!(pic.tree(), twin.tree());

        let mut empty = Picture::new("e", Rect::new(0.0, 0.0, 1.0, 1.0), RTreeConfig::PAPER);
        empty.pack_external(1 << 20, 4).expect("empty pack");
        assert!(empty.is_empty());
        assert!(empty.frozen().is_some());
    }

    #[test]
    fn disjoined_search() {
        let mut pic = sample();
        pic.pack();
        let mut stats = SearchStats::default();
        let window = Rect::new(0.0, 0.0, 26.0, 26.0);
        let mut disjoint = pic.search_window(SpatialOp::Disjoined, &window, &mut stats);
        disjoint.sort_unstable();
        // Points at 30.. and beyond (ids 6..19) are disjoint from the
        // window; zone intersects it.
        assert_eq!(disjoint, (6..20).collect::<Vec<u64>>());
    }
}
