//! Pictures: collections of spatial objects indexed by a packed R-tree.

use crate::spatial::SpatialOp;
use crate::store::ObjectStore;
use packed_rtree_core::{pack, pack_frozen, PackStrategy};
use rtree_geom::{Point, Rect, Region, SpatialObject};
use rtree_index::{
    FrozenRTree, ItemId, KnnScratch, Neighbor, NodeAccess, RTree, RTreeConfig, SearchScratch,
    SearchStats,
};
use std::borrow::Cow;
use std::sync::{Arc, OnceLock};

/// One packed generation of a picture: the store and the arena a pack
/// produced, immutable until the next pack and shared (behind an
/// [`Arc`]) by every snapshot published in between.
#[derive(Debug)]
struct PackedGeneration {
    /// Objects and labels `[0, packed_len)`.
    store: ObjectStore,
    /// The arena PACK wrote, which serves every query.
    frozen: FrozenRTree,
    /// PACK's pointer tree over `store`, built only when [`Picture::tree`]
    /// asks for it; no query reads it.
    tree: OnceLock<RTree>,
}

/// A picture: named spatial objects over a frame, indexed by an R-tree.
///
/// "Each pictorial domain element that corresponds to a tuple of the
/// relation appears on a leaf-node of the R-tree" (§2.1): object ids here
/// are the pointer values stored in relations' `loc` columns.
///
/// A picture is an immutable **packed generation** plus an owned
/// **delta**, both over one columnar store of objects and labels.
/// [`pack`](Picture::pack) moves every object into a new generation —
/// the store and the [`FrozenRTree`] arena PACK writes directly —
/// covering ids `[0, packed_len)`. The generation's pointer tree exists
/// only if [`tree`](Picture::tree) asks for it, which packs it again. A dynamic [`add`](Picture::add) after
/// that (the §3.4 "update problem") touches only the delta: the tail
/// `[packed_len, len)` and a small Guttman tree over it. Every query
/// composes *main + delta*, whose candidate sets are disjoint by
/// construction; the next pack (a REPACK or the server's background
/// merge) folds the delta into a fresh generation. Before the first pack
/// there is no generation, and no index until someone asks: loading only
/// appends, and the first query builds the Guttman tree over every object
/// — behind `&self`, in a write-once cell, the picture's one piece of
/// interior mutability. DESIGN.md §14 describes the full write path.
///
/// `Clone` shares the packed generation and copies the delta, so a
/// snapshot of a packed picture costs O(delta), not O(objects).
#[derive(Debug, Clone)]
pub struct Picture {
    name: String,
    frame: Rect,
    config: RTreeConfig,
    packed: Option<Arc<PackedGeneration>>,
    /// Objects in `packed` (0 before the first pack), kept beside the
    /// `Arc` so resolving an id needs no pointer chase.
    packed_len: usize,
    /// Objects and labels `[packed_len, len)`.
    tail: ObjectStore,
    /// Guttman tree over the tail: the delta of a packed picture, the
    /// whole index of a never-packed one. Every pack leaves it set; only
    /// a never-packed picture nobody has queried yet holds it unset.
    delta: OnceLock<RTree>,
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
            config,
            packed: None,
            packed_len: 0,
            tail: ObjectStore::default(),
            delta: OnceLock::new(),
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
        self.packed_len + self.tail.len()
    }

    /// `true` if the picture has no objects.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Adds an object, returning its object id — the pointer value for
    /// `loc` columns. It joins the tail, and the tail's tree (by Guttman
    /// INSERT) if that exists, as on a packed picture it always does.
    pub fn add(&mut self, object: SpatialObject, label: &str) -> u64 {
        let id = self.len() as u64;
        if let Some(tree) = self.delta.get_mut() {
            tree.insert(object.mbr(), ItemId(id));
        }
        self.tail.push(object, label);
        id
    }

    /// The Guttman tree over the tail, built — by the id-ordered INSERTs
    /// `add` would have made — when a never-packed picture first needs it.
    fn delta(&self) -> &RTree {
        self.delta.get_or_init(|| {
            let mut tree = RTree::new(self.config);
            for (mbr, id) in self.tail.mbrs().zip(self.packed_len as u64..) {
                tree.insert(mbr, ItemId(id));
            }
            tree
        })
    }

    /// Releases the indexes only this picture holds, for a pack to
    /// replace, leaving a never-packed, never-queried picture: the store
    /// folds back into the tail. A shared generation is left alone.
    fn release_owned_indexes(&mut self) {
        match self.packed.as_mut().map(Arc::get_mut) {
            Some(None) => return,
            Some(Some(owned)) => {
                owned.store.extend_from(&self.tail);
                self.tail = std::mem::take(&mut owned.store);
                (self.packed, self.packed_len) = (None, 0);
            }
            None => {}
        }
        self.delta.take();
    }

    /// Re-packs the picture's R-tree with the paper's PACK algorithm —
    /// the "initial packing" applied once the (static) picture is loaded
    /// — written straight into the frozen SoA layout: a new packed
    /// generation over every object, the delta left empty. The sole owner
    /// of a generation frees its arena and folds its store into the tail;
    /// when snapshots still share it — a merge — both are concatenated
    /// once. The store is allocated before PACK runs, and PACK reads its
    /// MBRs in place: what the generation keeps is older than any of
    /// PACK's temporaries. Whatever unwinds leaves a valid picture.
    pub fn pack(&mut self) {
        self.release_owned_indexes();
        let merged = self
            .packed
            .as_ref()
            .map(|g| g.store.followed_by(&self.tail));
        let store = merged.as_ref().unwrap_or(&self.tail);
        let items = store
            .mbrs()
            .enumerate()
            .map(|(id, mbr)| (mbr, ItemId(id as u64)));
        let frozen = pack_frozen(items, self.config, PackStrategy::NearestNeighbor);
        let store = merged.unwrap_or_else(|| std::mem::take(&mut self.tail));
        self.tail = ObjectStore::default();
        self.packed_len = store.len();
        self.delta = OnceLock::from(RTree::new(self.config));
        self.packed = Some(Arc::new(PackedGeneration {
            store,
            frozen,
            tree: OnceLock::new(),
        }));
    }

    /// The store holding object `id` and the object's position in it.
    fn locate(&self, id: u64) -> Option<(&ObjectStore, usize)> {
        let id = usize::try_from(id).ok()?;
        match id.checked_sub(self.packed_len) {
            Some(tail) => Some((&self.tail, tail)),
            None => Some((&self.packed.as_ref()?.store, id)),
        }
    }

    /// The object with id `id`, for use as a `&SpatialObject`: a point
    /// rebuilt from its slot or a side object borrowed, no allocation.
    pub fn object(&self, id: u64) -> Option<Cow<'_, SpatialObject>> {
        let (store, at) = self.locate(id)?;
        store.object(at)
    }

    /// The label of object `id`.
    pub fn label(&self, id: u64) -> Option<&str> {
        let (store, at) = self.locate(id)?;
        store.label(at)
    }

    /// The picture's main R-tree: once packed, the pointer tree PACK
    /// builds over ids `[0, packed_len)` (later objects are in the
    /// delta), packed again here on the first call; before, the Guttman
    /// tree over every object — built here if need be.
    pub fn tree(&self) -> &RTree {
        let Some(generation) = &self.packed else {
            return self.delta();
        };
        generation.tree.get_or_init(|| {
            let ids = (0u64..).map(ItemId);
            pack(generation.store.mbrs().zip(ids).collect(), self.config)
        })
    }

    /// `true` since the first pack, or the first query before it.
    pub fn is_indexed(&self) -> bool {
        self.delta.get().is_some()
    }

    /// The frozen compilation of the tree, present since the last
    /// [`pack`](Picture::pack). It covers ids `[0, packed_len)`; objects
    /// added since live in the [`delta_tree`](Picture::delta_tree).
    pub fn frozen(&self) -> Option<&FrozenRTree> {
        self.packed.as_ref().map(|generation| &generation.frozen)
    }

    /// The Guttman delta tree over the objects added since the last pack
    /// (ids `packed_len..len`); `None` without a pack or without any.
    pub fn delta_tree(&self) -> Option<&RTree> {
        self.needs_merge().then(|| self.delta())
    }

    /// Objects buffered in the delta tree since the last pack.
    pub fn delta_len(&self) -> usize {
        self.packed.as_ref().map_or(0, |_| self.tail.len())
    }

    /// Objects covered by the packed generation (prefix of the object
    /// id space). Zero on a never-packed picture.
    pub fn packed_len(&self) -> usize {
        self.packed_len
    }

    /// `true` when the picture has buffered dynamic writes the next
    /// merge-repack should fold into the main tree.
    pub fn needs_merge(&self) -> bool {
        self.delta_len() > 0
    }

    /// Which packed generation the picture serves, as an identity to
    /// compare while both pictures are alive: every pack makes a new one,
    /// a clone keeps it, and never-packed pictures all serve `None`.
    pub(crate) fn generation(&self) -> Option<*const ()> {
        self.packed
            .as_ref()
            .map(|packed| Arc::as_ptr(packed).cast())
    }

    /// `true` when `self` and `other` serve the very same packed
    /// generation — what a snapshot clone must preserve and a pack must
    /// end. Two never-packed pictures share nothing.
    #[doc(hidden)]
    pub fn shares_packed_with(&self, other: &Picture) -> bool {
        self.packed.is_some() && self.generation() == other.generation()
    }

    /// Estimated resident bytes of the `(packed generation, delta)`,
    /// from lengths alone: each store's planes, side table and vertex
    /// lists, each built index's node arrays. No allocator overhead.
    pub fn estimated_bytes(&self) -> (usize, usize) {
        let packed = self.packed.as_ref().map_or(0, |g| {
            g.store.bytes() + g.frozen.approx_bytes() + g.tree.get().map_or(0, RTree::approx_bytes)
        });
        let delta = self.tail.bytes() + self.delta.get().map_or(0, RTree::approx_bytes);
        (packed, delta)
    }

    /// The picture's index: the frozen arena over ids `[0, packed_len)`
    /// if packed, and the Guttman tree over the rest if it holds any —
    /// or, before the first pack, over everything.
    pub(crate) fn index_parts(&self) -> (Option<&FrozenRTree>, Option<&RTree>) {
        let delta = (self.packed.is_none() || !self.tail.is_empty()).then(|| self.delta());
        (self.frozen(), delta)
    }

    /// [`index_parts`](Self::index_parts) in the order a query searches.
    fn parts(&self) -> (&dyn NodeAccess, Option<&dyn NodeAccess>) {
        match self.index_parts() {
            (Some(frozen), delta) => (frozen, delta.map(|delta| delta as &dyn NodeAccess)),
            (None, _) => (self.delta(), None),
        }
    }

    /// All object ids.
    pub fn object_ids(&self) -> impl Iterator<Item = u64> {
        0..self.len() as u64
    }

    /// One logical window query: `op`'s candidates, refined with exact
    /// geometry against the window as a rectangle region.
    fn window(
        &self,
        op: SpatialOp,
        window: &Rect,
        scratch: &mut SearchScratch,
        stats: Option<&mut SearchStats>,
    ) -> Vec<u64> {
        let mut ids = self.candidates(op, window, scratch, stats);
        let window = SpatialObject::Region(Region::rectangle(*window));
        ids.retain(|&id| {
            let object = self.object(id).expect("the index holds live ids only");
            op.eval_objects(&object, &window)
        });
        ids
    }

    /// One logical k-NN query: the `k` smallest `(distance, id)` pairs
    /// over both index parts, in that order.
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
        let mut near = main
            .search_nearest(p, k, scratch, stats.as_deref_mut())
            .to_vec();
        near.extend_from_slice(delta.search_nearest(p, k, scratch, stats.as_deref_mut()));
        if let Some(stats) = stats {
            stats.queries -= 1;
        }
        near.sort_by(|a, b| {
            a.distance_sq
                .total_cmp(&b.distance_sq)
                .then(a.item.cmp(&b.item))
        });
        near.truncate(k);
        neighbor_ids(&near)
    }

    /// The filter step of a window query: ids whose MBRs pass `op`'s
    /// tree traversal against `window`, in traversal order, main part
    /// first, or every id for an operator with no MBR rule. A window query refines them
    /// against `window`, a nested mapping against the inner object that
    /// `window` bounds. The two parts hold disjoint ids; the second
    /// traversal's work is counted toward the same one query.
    pub fn candidates(
        &self,
        op: SpatialOp,
        window: &Rect,
        scratch: &mut SearchScratch,
        mut stats: Option<&mut SearchStats>,
    ) -> Vec<u64> {
        let Some(within) = op.traversal() else {
            if let Some(stats) = stats {
                stats.queries += 1;
            }
            return self.object_ids().collect();
        };
        let (main, delta) = self.parts();
        let hits = main.search_window(window, within, scratch, stats.as_deref_mut());
        let mut out: Vec<u64> = hits.iter().map(|&ItemId(id)| id).collect();
        if let Some(delta) = delta {
            let hits = delta.search_window(window, within, scratch, stats.as_deref_mut());
            out.extend(hits.iter().map(|&ItemId(id)| id));
            if let Some(stats) = stats {
                stats.queries -= 1;
            }
        }
        out
    }

    /// Direct spatial search: object ids satisfying `obj op window`,
    /// pruned through the R-tree and refined with exact geometry, in
    /// traversal order (the executor answers in id order). The frozen
    /// arena and the delta tree (when the picture holds one) are both
    /// searched and their disjoint candidate sets concatenated; the
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

    /// The `k` objects whose MBRs are nearest to `p` — the `k` smallest
    /// `(distance, id)` pairs, in that order — with Table 1 counters.
    pub fn nearest(&self, p: Point, k: usize, stats: &mut SearchStats) -> Vec<u64> {
        self.knn(p, k, &mut KnnScratch::new(), Some(stats))
    }

    /// [`nearest`](Self::nearest) without statistics: the executor's
    /// `at … nearest` path. The branch-and-bound heap lives in the
    /// scratch's embedded [`KnnScratch`], so
    /// repeated queries allocate nothing once warmed up.
    pub fn nearest_fast(&self, p: Point, k: usize, scratch: &mut SearchScratch) -> Vec<u64> {
        self.knn(p, k, scratch.knn(), None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtree_geom::{Point, Segment};
    use std::sync::Barrier;

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
        assert_eq!(
            pic.object(3).as_deref(),
            Some(&SpatialObject::Point(Point::new(15.0, 15.0)))
        );
        assert!(matches!(
            pic.object(20).as_deref(),
            Some(SpatialObject::Region(_))
        ));
        assert!(pic.object(99).is_none() && pic.label(99).is_none());
        assert!(pic.object(u64::MAX).is_none() && pic.label(u64::MAX).is_none());
        // Loading and looking up asked for no index, so there is none.
        assert!(!pic.is_indexed());
    }

    /// Points, segments and regions interleaved, empty and non-ASCII
    /// labels among theirs.
    fn mixed_objects(n: u64) -> Vec<(SpatialObject, String)> {
        (0..n)
            .map(|i| {
                let x = (i.wrapping_mul(2654435761) % 90_000) as f64 / 100.0;
                let y = (i.wrapping_mul(40503) % 90_000) as f64 / 100.0;
                let object = match i % 3 {
                    0 => SpatialObject::Point(Point::new(x, y)),
                    1 => SpatialObject::Segment(Segment::new(
                        Point::new(x, y),
                        Point::new(x + 7.0, y + 3.0),
                    )),
                    _ => {
                        SpatialObject::Region(Region::rectangle(Rect::new(x, y, x + 9.0, y + 5.0)))
                    }
                };
                let label = match i % 5 {
                    0 => String::new(),
                    1 => format!("Zürich-{i}-湖"),
                    _ => format!("o{i}"),
                };
                (object, label)
            })
            .collect()
    }

    fn mixed_picture(objects: &[(SpatialObject, String)]) -> Picture {
        let mut pic = Picture::new(
            "mixed",
            Rect::new(0.0, 0.0, 1000.0, 1000.0),
            RTreeConfig::PAPER,
        );
        for (object, label) in objects {
            pic.add(object.clone(), label);
        }
        pic
    }

    fn assert_round_trips(pic: &Picture, expect: &[(SpatialObject, String)]) {
        assert_eq!(pic.len(), expect.len());
        for (id, (object, label)) in (0u64..).zip(expect) {
            assert_eq!(pic.object(id).as_deref(), Some(object), "object {id}");
            assert_eq!(pic.label(id), Some(label.as_str()), "label {id}");
        }
        assert!(pic.object(expect.len() as u64).is_none());
        assert!(pic.label(expect.len() as u64).is_none());
    }

    /// Every query shape, in the order the picture answers it.
    fn answers(pic: &Picture) -> Vec<Vec<u64>> {
        let mut scratch = SearchScratch::new();
        let windows: Vec<(SpatialOp, Rect)> = (0..16)
            .map(|i| {
                let (x, y) = ((i * 97 % 800) as f64, (i * 31 % 800) as f64);
                let op = [
                    SpatialOp::CoveredBy,
                    SpatialOp::Overlapping,
                    SpatialOp::Covering,
                    SpatialOp::Disjoined,
                ][i % 4];
                (op, Rect::new(x, y, x + 150.0, y + 150.0))
            })
            .collect();
        let knn: Vec<(Point, usize)> = (0..8)
            .map(|i| {
                (
                    Point::new((i * 211 % 900) as f64, (i * 57 % 900) as f64),
                    1 + i,
                )
            })
            .collect();
        let mut out = Vec::new();
        for (op, w) in &windows {
            out.push(pic.search_window(*op, w, &mut SearchStats::default()));
            out.push(pic.search_window_fast(*op, w, &mut scratch));
        }
        for &(p, k) in &knn {
            out.push(pic.nearest(p, k, &mut SearchStats::default()));
            out.push(pic.nearest_fast(p, k, &mut scratch));
        }
        out
    }

    #[test]
    fn mixed_classes_round_trip_through_every_stage_of_a_picture() {
        let objects = mixed_objects(600);
        let (loaded, rest) = objects.split_at(400);
        let mut pic = mixed_picture(loaded);
        assert_round_trips(&pic, loaded);
        pic.pack();
        assert_round_trips(&pic, loaded);

        // Clone, then add to both copies: neither sees the other's.
        let mut copy = pic.clone();
        copy.add(rest[0].0.clone(), &rest[0].1);
        pic.add(rest[1].0.clone(), &rest[1].1);
        let mut in_copy = loaded.to_vec();
        in_copy.push(rest[0].clone());
        let mut in_pic = loaded.to_vec();
        in_pic.push(rest[1].clone());
        assert_round_trips(&copy, &in_copy);
        assert_round_trips(&pic, &in_pic);

        // A merge of the generation the copy still shares.
        for (object, label) in &rest[2..] {
            pic.add(object.clone(), label);
        }
        in_pic.extend_from_slice(&rest[2..]);
        assert!(pic.shares_packed_with(&copy));
        pic.pack();
        assert!(!pic.shares_packed_with(&copy));
        assert_eq!((pic.packed_len(), pic.delta_len()), (in_pic.len(), 0));
        assert_round_trips(&pic, &in_pic);
        assert_round_trips(&copy, &in_copy);

        // An owned repack, delta folded in.
        drop(copy);
        pic.add(rest[0].0.clone(), &rest[0].1);
        in_pic.push(rest[0].clone());
        pic.pack();
        assert_eq!((pic.packed_len(), pic.delta_len()), (in_pic.len(), 0));
        assert_round_trips(&pic, &in_pic);
        assert_eq!(
            answers(&pic),
            answers(&{
                let mut twin = mixed_picture(&in_pic);
                twin.pack();
                twin
            })
        );
    }

    /// The tree a never-packed picture builds at its first query is the
    /// tree eager INSERTs would have built, whenever that query comes.
    #[test]
    fn lazily_built_tree_equals_eager_inserts() {
        let objects = mixed_objects(500);
        let mut eager = RTree::new(RTreeConfig::PAPER);
        for (id, (object, _)) in (0u64..).zip(&objects) {
            eager.insert(object.mbr(), ItemId(id));
        }
        let window = Rect::new(100.0, 100.0, 600.0, 600.0);
        let window_region = SpatialObject::Region(Region::rectangle(window));
        for first_query_after in [0, objects.len() / 2, objects.len()] {
            let mut pic = mixed_picture(&objects[..first_query_after]);
            assert!(!pic.is_indexed(), "adds alone must build nothing");
            assert_eq!((pic.delta_len(), pic.needs_merge()), (0, false));
            assert!(!pic.is_indexed(), "delta_len / needs_merge must not build");
            pic.search_window_fast(SpatialOp::Overlapping, &window, &mut SearchScratch::new());
            assert!(pic.is_indexed());
            for (object, label) in &objects[first_query_after..] {
                pic.add(object.clone(), label);
            }
            assert_eq!(pic.tree(), &eager, "first query after {first_query_after}");
            // Same tree, so the same candidates in the same order.
            let (mut ps, mut ts) = <(SearchStats, SearchStats)>::default();
            let expect: Vec<u64> = eager
                .search_intersecting(&window, &mut ts)
                .into_iter()
                .map(|ItemId(id)| id)
                .filter(|&id| objects[id as usize].0.intersects(&window_region))
                .collect();
            assert_eq!(
                pic.search_window(SpatialOp::Overlapping, &window, &mut ps),
                expect
            );
            assert_eq!(ps, ts);
        }
    }

    #[test]
    fn racing_first_queries_build_one_tree() {
        let pic = Arc::new(mixed_picture(&mixed_objects(3_000)));
        let barrier = Barrier::new(8);
        let window = Rect::new(50.0, 50.0, 700.0, 700.0);
        let results: Vec<(Vec<u64>, usize)> = std::thread::scope(|scope| {
            let racers: Vec<_> = (0..8)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        let ids = pic.search_window(
                            SpatialOp::Overlapping,
                            &window,
                            &mut SearchStats::default(),
                        );
                        (ids, pic.tree() as *const RTree as usize)
                    })
                })
                .collect();
            racers
                .into_iter()
                .map(|racer| racer.join().expect("racer"))
                .collect()
        });
        assert!(results[0].0.len() > 100);
        assert!(results.iter().all(|r| r == &results[0]), "racers disagree");
        assert_eq!(pic.tree() as *const RTree as usize, results[0].1);
    }

    #[test]
    fn loading_and_packing_never_builds_the_guttman_tree() {
        let mut pic = Picture::new(
            "bulk",
            Rect::new(0.0, 0.0, 1000.0, 1000.0),
            RTreeConfig::PAPER,
        );
        for i in 0..50_000u64 {
            let x = (i.wrapping_mul(2654435761) % 100_000) as f64 / 100.0;
            let y = (i.wrapping_mul(40503) % 100_000) as f64 / 100.0;
            pic.add(SpatialObject::Point(Point::new(x, y)), &format!("o{i}"));
        }
        // What a loader and the server's gauges ask costs no index.
        assert_eq!(
            (pic.len(), pic.delta_len(), pic.packed_len()),
            (50_000, 0, 0)
        );
        assert!(!pic.needs_merge() && pic.frozen().is_none() && pic.delta_tree().is_none());
        assert_eq!(pic.label(49_999), Some("o49999"));
        let (packed, delta) = pic.estimated_bytes();
        assert_eq!(packed, 0);
        assert!(
            delta < 50_000 * 32,
            "an unbuilt tree counts nothing: {delta}"
        );
        assert!(!pic.is_indexed());
        pic.pack();
        // The cell a pack leaves is the empty delta, not a built tree.
        assert!(pic.is_indexed() && pic.delta_tree().is_none());
        assert_eq!(pic.delta.get().map(RTree::len), Some(0));
        pic.pack();
        assert_eq!(pic.delta.get().map(RTree::len), Some(0));
        assert_eq!(pic.tree().len(), 50_000);
    }

    /// A packed generation holds the store and the arena PACK wrote; its
    /// pointer tree costs nothing until `tree` asks for it, and then it is
    /// the tree `pack` builds over the same objects.
    #[test]
    fn packed_generation_builds_its_pointer_tree_only_when_asked() {
        let objects = mixed_objects(700);
        let mut pic = mixed_picture(&objects);
        pic.pack();
        let generation = pic.packed.as_ref().expect("packed");
        let (bytes, delta) = pic.estimated_bytes();
        assert_eq!(
            bytes,
            generation.store.bytes() + generation.frozen.approx_bytes()
        );
        assert!(
            generation.tree.get().is_none(),
            "a pack built a pointer tree"
        );
        let tree = pic.tree();
        assert_eq!(pic.estimated_bytes(), (bytes + tree.approx_bytes(), delta));
        let items = (0u64..)
            .zip(&objects)
            .map(|(id, (object, _))| (object.mbr(), ItemId(id)))
            .collect();
        assert_eq!(tree, &pack(items, RTreeConfig::PAPER));
        assert!(std::ptr::eq(tree, pic.tree()), "packed twice");
        assert!(pic.frozen() == Some(&FrozenRTree::freeze(tree)));
    }

    /// Step by step through what an owned repack does first: it passes
    /// through a never-packed picture that answers everything, so a pack
    /// that unwinds from there has lost nothing.
    #[test]
    fn releasing_an_owned_generation_leaves_a_valid_never_packed_picture() {
        let objects = mixed_objects(900);
        let mut pic = mixed_picture(&objects[..800]);
        pic.pack();
        for (object, label) in &objects[800..] {
            pic.add(object.clone(), label);
        }
        let before = answers(&pic);
        let sort = |mut answers: Vec<Vec<u64>>| {
            answers.iter_mut().for_each(|ids| ids.sort_unstable());
            answers
        };

        // Shared with a clone: nothing is released.
        let copy = pic.clone();
        pic.release_owned_indexes();
        assert!(pic.shares_packed_with(&copy));
        assert_eq!((pic.packed_len(), pic.delta_len()), (800, 100));
        drop(copy);

        pic.release_owned_indexes();
        assert!(pic.packed.is_none() && pic.frozen().is_none() && !pic.is_indexed());
        assert_eq!((pic.len(), pic.packed_len(), pic.delta_len()), (900, 0, 0));
        assert_round_trips(&pic, &objects);
        // k-NN ties may order differently between tree shapes; windows
        // hold the same ids.
        let windows = before.len() - 8 * 3;
        assert_eq!(
            sort(answers(&pic))[..windows],
            sort(before.clone())[..windows]
        );
        assert_eq!(pic.tree().len(), 900);

        pic.pack();
        assert_eq!((pic.packed_len(), pic.delta_len()), (900, 0));
        assert_round_trips(&pic, &objects);
    }

    /// A repack that frees its generation first (owned) and one that
    /// must leave it to a clone (shared) build the same picture, and the
    /// clone keeps answering from the generation it holds.
    #[test]
    fn owned_and_shared_repacks_agree_and_leave_clones_alone() {
        let objects = mixed_objects(1_200);
        let build = || {
            let mut pic = mixed_picture(&objects[..1_000]);
            pic.pack();
            for (object, label) in &objects[1_000..] {
                pic.add(object.clone(), label);
            }
            pic
        };
        let (mut owned, mut shared) = (build(), build());
        let holder = shared.clone();
        let held = answers(&holder);
        owned.pack();
        shared.pack();

        assert!(!shared.shares_packed_with(&holder));
        assert_eq!((holder.packed_len(), holder.delta_len()), (1_000, 200));
        assert_eq!(answers(&holder), held, "the clone's answers moved");
        assert_round_trips(&holder, &objects);

        assert_eq!(owned.tree(), shared.tree());
        assert_eq!(owned.frozen(), shared.frozen());
        assert_eq!(owned.estimated_bytes(), shared.estimated_bytes());
        assert_eq!(answers(&owned), answers(&shared));
        assert_round_trips(&owned, &objects);
        assert_round_trips(&shared, &objects);
        // Both equal a picture that was loaded whole and packed once.
        let mut fresh = mixed_picture(&objects);
        fresh.pack();
        assert_eq!(owned.tree(), fresh.tree());
        assert_eq!(owned.frozen(), fresh.frozen());
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
        assert!(!pic.is_indexed(), "nothing asked for an index yet");
        pic.pack();
        assert!(pic.frozen().is_some() && pic.is_indexed());
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
    /// every query shape (window ops, k-NN, both entry points) must agree
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

        let mut scratch = SearchScratch::new();
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
            let mut fast = live.search_window_fast(*op, w, &mut scratch);
            fast.sort_unstable();
            assert_eq!(fast, merged, "fast path diverged on {op:?}");
        }

        // k-NN: the repacked picture's `(distance, id)` order, ties
        // at the cut-off included.
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
            assert_eq!(merged, packed, "k-NN diverged from repacked at {p:?}");
            let fast = live.nearest_fast(p, k, &mut scratch);
            assert_eq!(merged, fast, "k-NN fast path diverged at {p:?}");
        }
    }

    /// A query over the arena and the delta tree is one logical query:
    /// its counters are the sum of both traversals with `queries == 1`.
    #[test]
    fn delta_traversal_counts_toward_the_same_query() {
        let mut pic = big_picture(2_000);
        for i in 0..40u64 {
            let p = Point::new((i * 23 % 1000) as f64, (i * 41 % 1000) as f64);
            pic.add(SpatialObject::Point(p), &format!("d{i}"));
        }
        let (frozen, delta) = (pic.frozen().unwrap(), pic.delta_tree().unwrap());
        let one_query = |main: SearchStats, extra: SearchStats| {
            let mut both = main;
            both += extra;
            both.queries = 1;
            both
        };

        let w = Rect::new(100.0, 200.0, 400.0, 500.0);
        let (mut stats, mut fs, mut ds) = <(SearchStats, SearchStats, SearchStats)>::default();
        pic.search_window(SpatialOp::CoveredBy, &w, &mut stats);
        frozen.search_within(&w, &mut fs);
        delta.search_within(&w, &mut ds);
        assert!(ds.nodes_visited > 0);
        assert_eq!(stats, one_query(fs, ds), "window");

        let p = Point::new(250.0, 750.0);
        let (mut stats, mut fs, mut ds) = <(SearchStats, SearchStats, SearchStats)>::default();
        pic.nearest(p, 5, &mut stats);
        frozen.nearest_neighbors(p, 5, &mut fs);
        delta.nearest_neighbors(p, 5, &mut ds);
        assert!(ds.nodes_visited > 0);
        assert_eq!(stats, one_query(fs, ds), "k-NN");
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
