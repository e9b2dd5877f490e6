//! A page-resident R-tree image with I/O-counted search.
//!
//! [`DiskRTree::store`] lays an in-memory [`RTree`] out one node per page
//! (children before parents, so a packed tree's pages are written in a
//! single sequential pass); searches then run through a [`BufferPool`],
//! so the `A` metric of Table 1 becomes real page requests and the pool's
//! hit/miss counters quantify "dealing with paging and disk I/O
//! buffering" (§1). Used by the EXT-5 `io_sweep` experiment.
//!
//! # Crash safety
//!
//! [`store_with_meta`](DiskRTree::store_with_meta) is a full commit:
//! node pages are appended to fresh pages (never overwriting a previous
//! image), synced, and only then does the two-slot meta pair (pages
//! 0–1, see [`meta`](crate::meta)) flip to the new epoch. A crash at any
//! point during the store leaves the previously committed tree — or, on
//! a fresh file, a cleanly detected "no valid meta" state — never a
//! half-written index that parses.

use crate::buffer::BufferPool;
use crate::codec::{self, DiskEntry, DiskNode, NodeView, MAX_ENTRIES_PER_PAGE};
use crate::error::{StorageError, StorageResult};
use crate::meta::{self, META_SLOTS};
use crate::node_writer::NodePageWriter;
use crate::page::PageId;
use crate::pager::PageStore;
use rtree_geom::{Point, Rect};
use rtree_index::{Child, ItemId, NodeId, RTree, SearchStats};
use std::collections::VecDeque;
use std::io;

/// Identifies a [`DiskRTree`] meta slot ("PRTREE85" little-endian).
const META_MAGIC: u64 = u64::from_le_bytes(*b"PRTREE85");

/// Node pages [`DiskRTree::store`] stages per store write (256 KiB).
const STORE_BATCH_PAGES: usize = 64;

/// Handle to an R-tree stored in a page file.
#[derive(Debug, Clone, Copy)]
pub struct DiskRTree {
    root: PageId,
    depth: u32,
    len: usize,
    pages: u32,
    epoch: u64,
}

impl DiskRTree {
    /// Writes `tree` into `store`, one node per page, and returns the
    /// handle. No meta record is written — the image is unreachable
    /// after a reopen until [`store_with_meta`](DiskRTree::store_with_meta)
    /// commits one.
    ///
    /// # Errors
    ///
    /// Fails on I/O errors, or if the tree's branching factor exceeds
    /// [`MAX_ENTRIES_PER_PAGE`].
    pub fn store(tree: &RTree, store: &dyn PageStore) -> StorageResult<DiskRTree> {
        if tree.config().max_entries > MAX_ENTRIES_PER_PAGE {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "branching factor {} exceeds page capacity {}",
                    tree.config().max_entries,
                    MAX_ENTRIES_PER_PAGE
                ),
            )
            .into());
        }
        let mut writer = NodePageWriter::new(store, STORE_BATCH_PAGES);
        let root = Self::store_node(tree, tree.root(), &mut writer)?;
        Ok(DiskRTree {
            root,
            depth: tree.depth(),
            len: tree.len(),
            pages: writer.finish()?,
            epoch: 0,
        })
    }

    /// Like [`store`](DiskRTree::store), but commits the image through
    /// the two-slot **meta pair** on pages 0–1 so the tree can be
    /// [`open`](DiskRTree::open)ed from the file later.
    ///
    /// On a fresh file the meta pair is allocated first (pages 0 and 1).
    /// On a file holding an earlier image this *replaces* it atomically:
    /// new nodes are appended to fresh pages, and the meta flip is the
    /// commit point — a crash anywhere during the store leaves the old
    /// tree intact (the old image's pages are not reclaimed; this is a
    /// rebuild-and-swap, not an in-place update).
    pub fn store_with_meta(tree: &RTree, store: &dyn PageStore) -> StorageResult<DiskRTree> {
        // Reserve the meta pair on a fresh (or degenerate) file.
        while store.page_count() < META_SLOTS {
            store.allocate();
        }
        let disk = Self::store(tree, store)?;
        Self::commit_external(store, disk.root, disk.depth, disk.len, disk.pages)
    }

    /// Commits a node image that was written into `store` by an
    /// *external* builder (the `rtree-extpack` streaming packer), which
    /// emits fully packed pages itself instead of serializing an
    /// in-memory [`RTree`]; [`store_with_meta`](DiskRTree::store_with_meta)
    /// commits through it too.
    ///
    /// The caller must have reserved the meta pair (pages 0–1) before
    /// writing any node page, and `root`/`depth`/`len`/`pages` must
    /// describe the emitted image. The meta flip performed here is the
    /// commit point: node pages are synced first (inside
    /// [`meta::commit`]), so a crash before the flip leaves the previous
    /// tree — or a cleanly detected "no valid meta" state — never a
    /// half-written index that opens.
    pub fn commit_external(
        store: &dyn PageStore,
        root: PageId,
        depth: u32,
        len: usize,
        pages: u32,
    ) -> StorageResult<DiskRTree> {
        while store.page_count() < META_SLOTS {
            store.allocate();
        }
        let prev_epoch = meta::load_newest(store, PageId(0), META_MAGIC)?
            .map(|(_, e)| e)
            .unwrap_or(0);
        let epoch = prev_epoch + 1;
        meta::commit(store, PageId(0), META_MAGIC, epoch, |b| {
            b[0..4].copy_from_slice(&root.0.to_le_bytes());
            b[4..8].copy_from_slice(&depth.to_le_bytes());
            b[8..16].copy_from_slice(&(len as u64).to_le_bytes());
            b[16..20].copy_from_slice(&pages.to_le_bytes());
        })?;
        Ok(DiskRTree {
            root,
            depth,
            len,
            pages,
            epoch,
        })
    }

    /// Reopens a tree previously committed by
    /// [`store_with_meta`](DiskRTree::store_with_meta), reading the meta
    /// pair whose first slot is `meta` (page 0 by default) and picking
    /// the newest slot that verifies.
    pub fn open(store: &dyn PageStore, meta: PageId) -> StorageResult<DiskRTree> {
        let Some((page, epoch)) = meta::load_newest(store, meta, META_MAGIC)? else {
            return Err(StorageError::corrupt(
                meta,
                "no valid packed-rtree meta slot (wrong magic or torn write)",
            ));
        };
        let b = &page.bytes()[meta::META_FIELDS..];
        Ok(DiskRTree {
            root: PageId(u32::from_le_bytes(b[0..4].try_into().expect("4"))),
            depth: u32::from_le_bytes(b[4..8].try_into().expect("4")),
            len: u64::from_le_bytes(b[8..16].try_into().expect("8")) as usize,
            pages: u32::from_le_bytes(b[16..20].try_into().expect("4")),
            epoch,
        })
    }

    /// [`open`](DiskRTree::open) with the conventional meta pair at
    /// pages 0–1.
    pub fn open_default(store: &dyn PageStore) -> StorageResult<DiskRTree> {
        Self::open(store, PageId(0))
    }

    fn store_node(
        tree: &RTree,
        id: NodeId,
        writer: &mut NodePageWriter<'_>,
    ) -> StorageResult<PageId> {
        let node = tree.node(id);
        let mut entries = Vec::with_capacity(node.len());
        for e in &node.entries {
            let child = match e.child {
                Child::Item(item) => item.0,
                Child::Node(c) => {
                    // Post-order: children are on disk before the parent.
                    Self::store_node(tree, c, writer)?.0 as u64
                }
            };
            entries.push(DiskEntry { mbr: e.mbr, child });
        }
        writer.push(node.level, &entries)
    }

    /// Root page of the stored tree.
    pub fn root(&self) -> PageId {
        self.root
    }

    /// Depth (root level), as in Table 1's `D`.
    pub fn depth(&self) -> u32 {
        self.depth
    }

    /// Number of indexed items.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if no items are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of pages the tree occupies (= node count).
    pub fn pages(&self) -> u32 {
        self.pages
    }

    /// Commit epoch this handle was stored/opened at (0 for an
    /// uncommitted [`store`](DiskRTree::store)).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The paper's `SEARCH` against the disk image: descend entries
    /// intersecting `window`, report leaf entries within it. Each node
    /// touched is one page request through `pool`.
    pub fn search_within(
        &self,
        pool: &BufferPool<'_>,
        window: &Rect,
        stats: &mut SearchStats,
    ) -> StorageResult<Vec<ItemId>> {
        let descend = |mbr: &Rect| mbr.intersects(window);
        let report = |mbr: &Rect| mbr.covered_by(window);
        self.search_pages(pool, descend, report, stats)
    }

    /// The Table 1 point query against the disk image.
    pub fn point_query(
        &self,
        pool: &BufferPool<'_>,
        p: Point,
        stats: &mut SearchStats,
    ) -> StorageResult<Vec<ItemId>> {
        let contains = |mbr: &Rect| mbr.contains_point(p);
        self.search_pages(pool, contains, contains, stats)
    }

    /// The page-resident `SEARCH` loop: from the root, follow the
    /// internal entries `descend` accepts and collect the leaf entries
    /// `report` accepts. Each node visited is one page request to `pool`
    /// — which can fail — and is read where it lies in the pool's frame,
    /// through a validated [`NodeView`]; no node is materialised.
    fn search_pages(
        &self,
        pool: &BufferPool<'_>,
        descend: impl Fn(&Rect) -> bool,
        report: impl Fn(&Rect) -> bool,
        stats: &mut SearchStats,
    ) -> StorageResult<Vec<ItemId>> {
        stats.queries += 1;
        let mut out = Vec::new();
        let mut stack = vec![self.root];
        while let Some(pid) = stack.pop() {
            stats.nodes_visited += 1;
            pool.with_page(pid, |page| {
                let node = NodeView::parse(page)?;
                if node.is_leaf() {
                    stats.leaf_nodes_visited += 1;
                    for e in node.entries().filter(|e| report(&e.mbr)) {
                        stats.items_reported += 1;
                        out.push(ItemId(e.child));
                    }
                } else {
                    stack.extend(
                        node.entries()
                            .filter(|e| descend(&e.mbr))
                            .map(|e| e.child_page()),
                    );
                }
                Ok(())
            })?
            .map_err(|reason: String| StorageError::corrupt(pid, reason))?;
        }
        Ok(out)
    }

    /// Decodes every reachable node, breadth-first from the root.
    ///
    /// This is the raw material for external structure checking (the
    /// differential oracle's `validate_deep`): each entry pairs the page
    /// id with its decoded [`DiskNode`], so a validator can rebuild the
    /// parent/child graph without this crate hardcoding any invariant
    /// policy.
    pub fn dump_nodes(&self, pool: &BufferPool<'_>) -> StorageResult<Vec<(PageId, DiskNode)>> {
        let mut out = Vec::new();
        let mut queue = VecDeque::from([self.root]);
        while let Some(pid) = queue.pop_front() {
            let node = pool
                .with_page(pid, codec::decode)?
                .map_err(|reason| StorageError::corrupt(pid, reason))?;
            if !node.is_leaf() {
                for i in 0..node.entries.len() {
                    queue.push_back(node.child_page(i));
                }
            }
            out.push((pid, node));
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::Page;
    use crate::pager::Pager;
    use rtree_index::RTreeConfig;

    fn sample_tree(n: u64) -> RTree {
        let mut t = RTree::new(RTreeConfig::PAPER);
        for i in 0..n {
            let x = (i * 37 % 1009) as f64;
            let y = (i * 91 % 997) as f64;
            t.insert(Rect::from_point(Point::new(x, y)), ItemId(i));
        }
        t
    }

    #[test]
    fn store_and_search_matches_memory() {
        let tree = sample_tree(300);
        let pager = Pager::temp().unwrap();
        let disk = DiskRTree::store(&tree, &pager).unwrap();
        assert_eq!(disk.pages() as usize, tree.node_count());
        assert_eq!(disk.depth(), tree.depth());
        assert_eq!(disk.len(), 300);

        let pool = BufferPool::new(&pager, 64);
        let window = Rect::new(100.0, 100.0, 600.0, 600.0);
        let mut mem_stats = SearchStats::default();
        let mut disk_stats = SearchStats::default();
        let mut expect = tree.search_within(&window, &mut mem_stats);
        let mut got = disk.search_within(&pool, &window, &mut disk_stats).unwrap();
        expect.sort();
        got.sort();
        assert_eq!(got, expect);
        // Same pruning → same nodes visited.
        assert_eq!(mem_stats.nodes_visited, disk_stats.nodes_visited);
    }

    #[test]
    fn point_query_matches_memory() {
        let tree = sample_tree(200);
        let pager = Pager::temp().unwrap();
        let disk = DiskRTree::store(&tree, &pager).unwrap();
        let pool = BufferPool::new(&pager, 32);
        let mut s1 = SearchStats::default();
        let mut s2 = SearchStats::default();
        for i in 0..50u64 {
            let p = Point::new((i * 37 % 1009) as f64, (i * 91 % 997) as f64);
            let mut a = tree.point_query(p, &mut s1);
            let mut b = disk.point_query(&pool, p, &mut s2).unwrap();
            a.sort();
            b.sort();
            assert_eq!(a, b, "query {i}");
        }
        assert_eq!(s1.nodes_visited, s2.nodes_visited);
    }

    #[test]
    fn small_pool_misses_large_pool_hits() {
        let tree = sample_tree(500);
        let pager = Pager::temp().unwrap();
        let disk = DiskRTree::store(&tree, &pager).unwrap();
        let queries: Vec<Point> = (0..200)
            .map(|i| Point::new((i * 13 % 1009) as f64, (i * 29 % 997) as f64))
            .collect();

        let run = |cap: usize| {
            let pool = BufferPool::new(&pager, cap);
            let mut stats = SearchStats::default();
            for &q in &queries {
                disk.point_query(&pool, q, &mut stats).unwrap();
            }
            pool.stats().hit_ratio()
        };
        let small = run(2);
        let large = run(tree.node_count() + 8);
        assert!(
            large > small,
            "bigger pool should hit more: {large} vs {small}"
        );
        assert!(large > 0.8, "full-tree pool should mostly hit: {large}");
    }

    #[test]
    fn empty_tree_roundtrip() {
        let tree = RTree::new(RTreeConfig::PAPER);
        let pager = Pager::temp().unwrap();
        let disk = DiskRTree::store(&tree, &pager).unwrap();
        let pool = BufferPool::new(&pager, 4);
        let mut stats = SearchStats::default();
        let hits = disk
            .search_within(&pool, &Rect::new(0.0, 0.0, 1.0, 1.0), &mut stats)
            .unwrap();
        assert!(hits.is_empty());
        assert!(disk.is_empty());
    }

    #[test]
    fn persistence_roundtrip_through_file() {
        let path =
            std::env::temp_dir().join(format!("packed-rtree-persist-{}.db", std::process::id()));
        let tree = sample_tree(250);
        let expected_window = Rect::new(100.0, 100.0, 500.0, 500.0);
        let expected = {
            let mut s = SearchStats::default();
            let mut v = tree.search_within(&expected_window, &mut s);
            v.sort();
            v
        };
        {
            let pager = Pager::create(&path).unwrap();
            let disk = DiskRTree::store_with_meta(&tree, &pager).unwrap();
            // Meta pair occupies pages 0–1; nodes are written
            // children-first, so the root lands on the last page.
            assert_eq!(disk.root(), PageId(tree.node_count() as u32 + 1));
            assert_eq!(disk.epoch(), 1);
        }
        // Reopen the file cold and search through the meta pair.
        {
            let pager = Pager::open(&path).unwrap();
            let disk = DiskRTree::open_default(&pager).unwrap();
            assert_eq!(disk.len(), 250);
            assert_eq!(disk.depth(), tree.depth());
            let pool = BufferPool::new(&pager, 32);
            let mut s = SearchStats::default();
            let mut got = disk.search_within(&pool, &expected_window, &mut s).unwrap();
            got.sort();
            assert_eq!(got, expected);
            // New allocations go past the existing pages.
            let fresh = pager.allocate();
            assert!(fresh.0 as usize > tree.node_count() + 1);
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn restore_replaces_image_atomically() {
        let pager = Pager::temp().unwrap();
        let a = sample_tree(100);
        let b = sample_tree(220);
        let disk_a = DiskRTree::store_with_meta(&a, &pager).unwrap();
        assert_eq!(disk_a.epoch(), 1);
        let disk_b = DiskRTree::store_with_meta(&b, &pager).unwrap();
        assert_eq!(disk_b.epoch(), 2);
        // Open resolves to the newest commit.
        let reopened = DiskRTree::open_default(&pager).unwrap();
        assert_eq!(reopened.len(), 220);
        assert_eq!(reopened.root(), disk_b.root());
        // The new image was appended past the old one.
        assert!(disk_b.root().0 > disk_a.root().0);
    }

    #[test]
    fn open_rejects_garbage_meta() {
        let pager = Pager::temp().unwrap();
        for _ in 0..2 {
            let id = pager.allocate();
            pager.write_page(id, &Page::zeroed()).unwrap();
        }
        let err = DiskRTree::open(&pager, PageId(0)).unwrap_err();
        assert!(err.is_corrupt(), "{err:?}");
    }

    #[test]
    fn oversized_branching_rejected() {
        let t = RTree::new(RTreeConfig::with_branching(200));
        let pager = Pager::temp().unwrap();
        assert!(DiskRTree::store(&t, &pager).is_err());
    }
}
