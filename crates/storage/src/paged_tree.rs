//! A fully dynamic page-resident R-tree: Guttman INSERT/DELETE/SEARCH
//! operating directly on disk pages through the buffer pool.
//!
//! [`DiskRTree`](crate::DiskRTree) is a read-only image; `PagedRTree` is
//! the read-write sibling a database would actually run: one node per
//! 4 KiB page, ChooseLeaf/AdjustTree walking pages, node splits via the
//! same Guttman algorithms as the in-memory tree
//! ([`rtree_index::split::split_rect_entries`]), CondenseTree with orphan
//! re-insertion, and a two-slot meta pair making the whole index
//! reopenable.
//!
//! This realizes the paper's deployment story end to end: PACK the
//! static picture once ([`PagedRTree::from_tree`] writes the packed tree
//! sequentially), then serve direct spatial search *and* occasional
//! updates from disk (§3.4).
//!
//! # Crash safety
//!
//! Updates buffer in the pool and in the in-memory header;
//! [`commit`](PagedRTree::commit) (also reachable as
//! [`flush`](PagedRTree::flush)) makes them durable: dirty node pages
//! are flushed, synced, and then the meta pair (see [`meta`](crate::meta))
//! flips to a new epoch. Operations since the last commit are lost on a
//! crash. Because node pages are updated **in place**, a crash while
//! dirty pages are being flushed can tear pages the previous commit
//! still references — such damage is *detected* (checksums surface it as
//! [`StorageError::Corrupt`]) but not rolled back; see DESIGN.md §9 for
//! the full contract. Finish with [`close`](PagedRTree::close) to
//! observe any final write error instead of relying on drop.

use crate::buffer::BufferPool;
use crate::codec::{self, DiskEntry, DiskNode, MAX_ENTRIES_PER_PAGE};
use crate::disk_tree::{dump_pages, read_node, search_pages};
use crate::error::{StorageError, StorageResult};
use crate::meta;
use crate::page::{PageId, PageType};
use crate::pager::PageStore;
use rtree_geom::{Point, Rect};
use rtree_index::split::split_rect_entries;
use rtree_index::{Child, ItemId, NodeId, RTree, RTreeConfig, SearchStats};
use std::io;

/// Magic for `PagedRTree` meta slots (distinct from the read-only
/// image's).
const META_MAGIC: u64 = u64::from_le_bytes(*b"PRTDYN85");

/// A mutable, page-resident R-tree over a [`PageStore`] + [`BufferPool`].
pub struct PagedRTree<'a> {
    pool: BufferPool<'a>,
    meta: PageId,
    root: PageId,
    depth: u32,
    len: usize,
    config: RTreeConfig,
    epoch: u64,
}

impl<'a> PagedRTree<'a> {
    /// Creates an empty paged tree: reserves the meta pair, allocates an
    /// empty leaf root, and commits epoch 1.
    ///
    /// # Errors
    ///
    /// Fails on I/O errors or if `config.max_entries` exceeds
    /// [`MAX_ENTRIES_PER_PAGE`].
    pub fn create(
        store: &'a dyn PageStore,
        config: RTreeConfig,
        pool_frames: usize,
    ) -> StorageResult<Self> {
        check_config(&config)?;
        let meta = store.allocate();
        store.allocate(); // second meta slot
        let root = store.allocate();
        let pool = BufferPool::new(store, pool_frames);
        let mut tree = PagedRTree {
            pool,
            meta,
            root,
            depth: 0,
            len: 0,
            config,
            epoch: 0,
        };
        tree.write_node(
            root,
            &DiskNode {
                level: 0,
                entries: Vec::new(),
            },
        )?;
        tree.commit()?;
        Ok(tree)
    }

    /// Converts an in-memory tree (typically freshly PACKed) into a paged
    /// tree, writing nodes children-first and committing epoch 1.
    pub fn from_tree(
        tree: &RTree,
        store: &'a dyn PageStore,
        pool_frames: usize,
    ) -> StorageResult<Self> {
        check_config(&tree.config())?;
        let meta = store.allocate();
        store.allocate(); // second meta slot
        let pool = BufferPool::new(store, pool_frames);
        let mut paged = PagedRTree {
            pool,
            meta,
            root: PageId(0), // fixed up below
            depth: tree.depth(),
            len: tree.len(),
            config: tree.config(),
            epoch: 0,
        };
        paged.root = paged.copy_node(tree, tree.root())?;
        paged.commit()?;
        Ok(paged)
    }

    fn copy_node(&mut self, tree: &RTree, id: NodeId) -> StorageResult<PageId> {
        let node = tree.node(id);
        let mut entries = Vec::with_capacity(node.len());
        for e in &node.entries {
            let child = match e.child {
                Child::Item(item) => item.0,
                Child::Node(c) => self.copy_node(tree, c)?.0 as u64,
            };
            entries.push(DiskEntry { mbr: e.mbr, child });
        }
        let page_id = self.store().allocate();
        self.write_node(
            page_id,
            &DiskNode {
                level: node.level,
                entries,
            },
        )?;
        Ok(page_id)
    }

    /// Reopens a paged tree from its meta pair (first slot at `meta`),
    /// picking the newest slot that verifies.
    pub fn open(store: &'a dyn PageStore, meta: PageId, pool_frames: usize) -> StorageResult<Self> {
        let Some((page, epoch)) = meta::load_newest(store, meta, META_MAGIC)? else {
            return Err(StorageError::corrupt(
                meta,
                "no valid PagedRTree meta slot (wrong magic or torn write)",
            ));
        };
        let b = &page.bytes()[meta::META_FIELDS..];
        let root = PageId(u32::from_le_bytes(b[0..4].try_into().expect("4")));
        let depth = u32::from_le_bytes(b[4..8].try_into().expect("4"));
        let len = u64::from_le_bytes(b[8..16].try_into().expect("8")) as usize;
        let max_entries = u32::from_le_bytes(b[16..20].try_into().expect("4")) as usize;
        let min_entries = u32::from_le_bytes(b[20..24].try_into().expect("4")) as usize;
        let split = match b[24] {
            0 => rtree_index::SplitPolicy::Linear,
            2 => rtree_index::SplitPolicy::Exhaustive,
            _ => rtree_index::SplitPolicy::Quadratic,
        };
        let config = RTreeConfig::new(max_entries, min_entries, split);
        Ok(PagedRTree {
            pool: BufferPool::new(store, pool_frames),
            meta,
            root,
            depth,
            len,
            config,
            epoch,
        })
    }

    /// Commits the current state: flushes dirty node pages, syncs, and
    /// flips the meta pair to a new epoch (sync-write-sync). On return,
    /// a reopen observes exactly this tree.
    pub fn commit(&mut self) -> StorageResult<()> {
        self.pool.flush()?;
        let epoch = self.epoch + 1;
        let (root, depth, len, config) = (self.root, self.depth, self.len, self.config);
        meta::commit(
            self.store(),
            self.meta,
            META_MAGIC,
            epoch,
            PageType::DynMeta,
            |b| {
                b[0..4].copy_from_slice(&root.0.to_le_bytes());
                b[4..8].copy_from_slice(&depth.to_le_bytes());
                b[8..16].copy_from_slice(&(len as u64).to_le_bytes());
                b[16..20].copy_from_slice(&(config.max_entries as u32).to_le_bytes());
                b[20..24].copy_from_slice(&(config.min_entries as u32).to_le_bytes());
                b[24] = match config.split {
                    rtree_index::SplitPolicy::Linear => 0,
                    rtree_index::SplitPolicy::Quadratic => 1,
                    rtree_index::SplitPolicy::Exhaustive => 2,
                };
            },
        )?;
        self.epoch = epoch;
        Ok(())
    }

    /// Alias for [`commit`](PagedRTree::commit), kept for callers that
    /// think in flush terms.
    pub fn flush(&mut self) -> StorageResult<()> {
        self.commit()
    }

    /// Commits and tears the tree down, reporting any write failure —
    /// the durability-correct way to finish (dropping instead leaves
    /// only the buffer pool's best-effort backstop, which cannot report
    /// errors and does not advance the commit epoch).
    pub fn close(mut self) -> StorageResult<()> {
        self.commit()?;
        let PagedRTree { pool, .. } = self;
        pool.close()
    }

    /// Number of indexed items.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Root level (Table 1's `D`).
    pub fn depth(&self) -> u32 {
        self.depth
    }

    /// The tree's configuration.
    pub fn config(&self) -> RTreeConfig {
        self.config
    }

    /// Commit epoch of the last successful [`commit`](PagedRTree::commit)
    /// (or the one this tree was opened at).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Buffer-pool statistics for the tree's page traffic.
    pub fn pool_stats(&self) -> crate::buffer::BufferStats {
        self.pool.stats()
    }

    fn read_node(&self, id: PageId) -> StorageResult<DiskNode> {
        read_node(&self.pool, id)
    }

    fn write_node(&self, id: PageId, node: &DiskNode) -> StorageResult<()> {
        self.pool.with_page_mut(id, |p| codec::encode(node, p))
    }

    /// Decodes every reachable node, breadth-first from the root.
    ///
    /// External structure checkers (the differential oracle's
    /// `validate_deep`) use this to rebuild the tree graph — including
    /// after a crash/reopen — without access to the private pool.
    pub fn dump_nodes(&self) -> StorageResult<Vec<(PageId, DiskNode)>> {
        dump_pages(self.root, |id| self.read_node(id))
    }

    /// Materializes the current tree as an in-memory
    /// [`rtree_index::FrozenRTree`] — the cache-conscious SoA layout —
    /// reading every reachable page once. Works on any committed state,
    /// including one freshly reopened after a crash.
    pub fn freeze(&self) -> StorageResult<rtree_index::FrozenRTree> {
        crate::disk_tree::frozen_from_dump(
            self.dump_nodes()?,
            self.config,
            self.depth,
            self.len,
            self.root,
        )
    }

    // ------------------------------------------------------------------
    // Search
    // ------------------------------------------------------------------

    /// The paper's `SEARCH` against pages.
    pub fn search_within(
        &self,
        window: &Rect,
        stats: &mut SearchStats,
    ) -> StorageResult<Vec<ItemId>> {
        let descend = |mbr: &Rect| mbr.intersects(window);
        let report = |mbr: &Rect| mbr.covered_by(window);
        search_pages(&self.pool, self.root, descend, report, stats)
    }

    /// The Table 1 point query against pages.
    pub fn point_query(&self, p: Point, stats: &mut SearchStats) -> StorageResult<Vec<ItemId>> {
        let contains = |mbr: &Rect| mbr.contains_point(p);
        search_pages(&self.pool, self.root, contains, contains, stats)
    }

    // ------------------------------------------------------------------
    // Insert
    // ------------------------------------------------------------------

    /// Guttman INSERT on pages. Buffered: durable at the next
    /// [`commit`](PagedRTree::commit).
    pub fn insert(&mut self, mbr: Rect, item: ItemId) -> StorageResult<()> {
        self.insert_entry_at_level(DiskEntry { mbr, child: item.0 }, 0)?;
        self.len += 1;
        Ok(())
    }

    fn insert_entry_at_level(&mut self, entry: DiskEntry, level: u32) -> StorageResult<()> {
        debug_assert!(level <= self.depth);
        // ChooseLeaf, recording the descent path.
        let mut path: Vec<(PageId, usize)> = Vec::new();
        let mut current = self.root;
        let mut node = self.read_node(current)?;
        while node.level > level {
            let chosen = choose_subtree(&node, &entry.mbr);
            path.push((current, chosen));
            current = node.child_page(chosen);
            node = self.read_node(current)?;
        }

        node.entries.push(entry);
        let mut split_off = self.split_if_overflowing(&mut node)?;
        self.write_node(current, &node)?;

        // AdjustTree.
        for (parent_id, child_idx) in path.into_iter().rev() {
            let mut parent = self.read_node(parent_id)?;
            let child_id = parent.child_page(child_idx);
            let child = self.read_node(child_id)?;
            parent.entries[child_idx].mbr = node_mbr(&child).expect("child not empty");
            if let Some((new_mbr, new_page)) = split_off.take() {
                parent.entries.push(DiskEntry {
                    mbr: new_mbr,
                    child: new_page.0 as u64,
                });
                split_off = self.split_if_overflowing(&mut parent)?;
            }
            self.write_node(parent_id, &parent)?;
        }

        // Root split: grow upward.
        if let Some((new_mbr, new_page)) = split_off {
            let old_root = self.root;
            let old = self.read_node(old_root)?;
            let new_root = DiskNode {
                level: old.level + 1,
                entries: vec![
                    DiskEntry {
                        mbr: node_mbr(&old).expect("root not empty"),
                        child: old_root.0 as u64,
                    },
                    DiskEntry {
                        mbr: new_mbr,
                        child: new_page.0 as u64,
                    },
                ],
            };
            let new_root_id = self.store().allocate();
            self.write_node(new_root_id, &new_root)?;
            self.root = new_root_id;
            self.depth = old.level + 1;
        }
        Ok(())
    }

    /// Splits `node` (already containing the overflow entry) if needed;
    /// returns the new sibling's MBR and page.
    fn split_if_overflowing(
        &mut self,
        node: &mut DiskNode,
    ) -> StorageResult<Option<(Rect, PageId)>> {
        if node.entries.len() <= self.config.max_entries {
            return Ok(None);
        }
        let entries = std::mem::take(&mut node.entries);
        let (a, b) = split_rect_entries(&self.config, entries, |e: &DiskEntry| e.mbr);
        node.entries = a;
        let sibling = DiskNode {
            level: node.level,
            entries: b,
        };
        let sibling_mbr = node_mbr(&sibling).expect("non-empty");
        let sibling_id = self.store().allocate();
        self.write_node(sibling_id, &sibling)?;
        Ok(Some((sibling_mbr, sibling_id)))
    }

    fn store(&self) -> &'a dyn PageStore {
        self.pool.store()
    }

    // ------------------------------------------------------------------
    // Delete
    // ------------------------------------------------------------------

    /// Guttman DELETE on pages: FindLeaf + CondenseTree with orphan
    /// re-insertion. Returns whether the entry existed. Buffered:
    /// durable at the next [`commit`](PagedRTree::commit).
    pub fn remove(&mut self, mbr: Rect, item: ItemId) -> StorageResult<bool> {
        let Some(path) = self.find_leaf_path(&mbr, item)? else {
            return Ok(false);
        };
        let leaf_id = *path.last().expect("path has leaf");
        let mut leaf = self.read_node(leaf_id)?;
        let pos = leaf
            .entries
            .iter()
            .position(|e| e.mbr == mbr && e.child == item.0)
            .expect("find_leaf_path verified");
        leaf.entries.remove(pos);
        self.write_node(leaf_id, &leaf)?;
        self.len -= 1;

        self.condense(&path)?;
        Ok(true)
    }

    fn find_leaf_path(&self, mbr: &Rect, item: ItemId) -> StorageResult<Option<Vec<PageId>>> {
        let mut path = vec![self.root];
        if self.find_leaf_rec(self.root, mbr, item, &mut path)? {
            Ok(Some(path))
        } else {
            Ok(None)
        }
    }

    fn find_leaf_rec(
        &self,
        id: PageId,
        mbr: &Rect,
        item: ItemId,
        path: &mut Vec<PageId>,
    ) -> StorageResult<bool> {
        let node = self.read_node(id)?;
        if node.is_leaf() {
            return Ok(node
                .entries
                .iter()
                .any(|e| e.mbr == *mbr && e.child == item.0));
        }
        for (i, e) in node.entries.iter().enumerate() {
            if e.mbr.covers(mbr) {
                let child = node.child_page(i);
                path.push(child);
                if self.find_leaf_rec(child, mbr, item, path)? {
                    return Ok(true);
                }
                path.pop();
            }
        }
        Ok(false)
    }

    fn condense(&mut self, path: &[PageId]) -> StorageResult<()> {
        let mut eliminated: Vec<(u32, Vec<DiskEntry>)> = Vec::new();
        for window in (1..path.len()).rev() {
            let node_id = path[window];
            let parent_id = path[window - 1];
            let node = self.read_node(node_id)?;
            let mut parent = self.read_node(parent_id)?;
            let child_idx = parent
                .entries
                .iter()
                .position(|e| e.child == node_id.0 as u64)
                .expect("path link");
            if node.entries.len() < self.config.min_entries {
                parent.entries.remove(child_idx);
                self.store().free(node_id);
                if !node.entries.is_empty() {
                    eliminated.push((node.level, node.entries));
                }
            } else {
                parent.entries[child_idx].mbr = node_mbr(&node).expect("non-empty");
            }
            self.write_node(parent_id, &parent)?;
        }

        for (level, entries) in eliminated {
            for entry in entries {
                if level <= self.depth {
                    self.insert_entry_at_level(entry, level)?;
                } else {
                    self.reinsert_subtree_items(entry, level)?;
                }
            }
        }

        // Shorten a single-child non-leaf root.
        loop {
            let root = self.read_node(self.root)?;
            if root.is_leaf() || root.entries.len() != 1 {
                break;
            }
            let child = root.child_page(0);
            self.store().free(self.root);
            self.root = child;
            self.depth = self.read_node(child)?.level;
        }
        Ok(())
    }

    fn reinsert_subtree_items(&mut self, entry: DiskEntry, level: u32) -> StorageResult<()> {
        if level == 0 {
            return self.insert_entry_at_level(entry, 0);
        }
        let page = PageId(u32::try_from(entry.child).expect("page id"));
        let node = self.read_node(page)?;
        self.store().free(page);
        for e in node.entries {
            self.reinsert_subtree_items(e, node.level)?;
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Validation (test support)
    // ------------------------------------------------------------------

    /// Structural validation mirroring [`RTree::validate`]; reads every
    /// page.
    pub fn validate(&self) -> StorageResult<Result<(), String>> {
        self.validate_with(true)
    }

    /// Like [`validate`](PagedRTree::validate) but with the minimum-fill
    /// check optional — packed images may carry one legitimately
    /// under-filled node per level (§3.3).
    pub fn validate_with(&self, check_min_fill: bool) -> StorageResult<Result<(), String>> {
        let mut leaf_items = 0usize;
        let mut stack = vec![(self.root, None::<Rect>, true)];
        while let Some((id, expected, is_root)) = stack.pop() {
            let node = self.read_node(id)?;
            if node.entries.len() > self.config.max_entries {
                return Ok(Err(format!("{id}: overflow")));
            }
            if !is_root && check_min_fill && node.entries.len() < self.config.min_entries {
                return Ok(Err(format!("{id}: underflow ({})", node.entries.len())));
            }
            if is_root && node.level != self.depth {
                return Ok(Err(format!(
                    "root level {} != recorded depth {}",
                    node.level, self.depth
                )));
            }
            if let Some(expect) = expected {
                match node_mbr(&node) {
                    Some(actual) if actual == expect => {}
                    other => return Ok(Err(format!("{id}: mbr mismatch {other:?} vs {expect}"))),
                }
            }
            if node.is_leaf() {
                leaf_items += node.entries.len();
            } else {
                for (i, e) in node.entries.iter().enumerate() {
                    stack.push((node.child_page(i), Some(e.mbr), false));
                }
            }
        }
        if leaf_items != self.len {
            return Ok(Err(format!("{leaf_items} items != len {}", self.len)));
        }
        Ok(Ok(()))
    }
}

fn check_config(config: &RTreeConfig) -> StorageResult<()> {
    if config.max_entries > MAX_ENTRIES_PER_PAGE {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!(
                "branching factor {} exceeds page capacity {}",
                config.max_entries, MAX_ENTRIES_PER_PAGE
            ),
        )
        .into());
    }
    Ok(())
}

fn node_mbr(node: &DiskNode) -> Option<Rect> {
    Rect::mbr_of_rects(node.entries.iter().map(|e| e.mbr))
}

/// ChooseLeaf criterion: least enlargement, ties by least area.
fn choose_subtree(node: &DiskNode, mbr: &Rect) -> usize {
    debug_assert!(!node.entries.is_empty());
    let mut best = 0usize;
    let mut best_enlargement = f64::INFINITY;
    let mut best_area = f64::INFINITY;
    for (i, e) in node.entries.iter().enumerate() {
        let enlargement = e.mbr.enlargement(mbr);
        let area = e.mbr.area();
        if enlargement < best_enlargement || (enlargement == best_enlargement && area < best_area) {
            best = i;
            best_enlargement = enlargement;
            best_area = area;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pager::Pager;

    fn pt(x: f64, y: f64) -> Rect {
        Rect::from_point(Point::new(x, y))
    }

    fn scatter(n: u64) -> Vec<(Rect, ItemId)> {
        let mut s = 7u64;
        (0..n)
            .map(|i| {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let x = ((s >> 33) % 1000) as f64;
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let y = ((s >> 33) % 1000) as f64;
                (pt(x, y), ItemId(i))
            })
            .collect()
    }

    #[test]
    fn insert_and_search_on_pages() {
        let pager = Pager::temp().unwrap();
        let mut tree = PagedRTree::create(&pager, RTreeConfig::PAPER, 32).unwrap();
        let items = scatter(200);
        for &(mbr, id) in &items {
            tree.insert(mbr, id).unwrap();
        }
        tree.validate().unwrap().unwrap();
        assert_eq!(tree.len(), 200);
        assert!(tree.depth() >= 3);

        let window = Rect::new(200.0, 200.0, 700.0, 700.0);
        let mut stats = SearchStats::default();
        let mut got = tree.search_within(&window, &mut stats).unwrap();
        got.sort();
        let mut expect: Vec<ItemId> = items
            .iter()
            .filter(|(r, _)| r.covered_by(&window))
            .map(|&(_, id)| id)
            .collect();
        expect.sort();
        assert_eq!(got, expect);
    }

    #[test]
    fn paged_matches_memory_tree_exactly() {
        // Same inserts, same config: the paged tree and the in-memory
        // tree must agree on every query (they share the split code).
        let pager = Pager::temp().unwrap();
        let mut paged = PagedRTree::create(&pager, RTreeConfig::PAPER, 64).unwrap();
        let mut memory = RTree::new(RTreeConfig::PAPER);
        let items = scatter(300);
        for &(mbr, id) in &items {
            paged.insert(mbr, id).unwrap();
            memory.insert(mbr, id);
        }
        assert_eq!(paged.depth(), memory.depth());
        let mut s1 = SearchStats::default();
        let mut s2 = SearchStats::default();
        for i in 0..50 {
            let q = Point::new((i * 37 % 1000) as f64, (i * 91 % 1000) as f64);
            let mut a = paged.point_query(q, &mut s1).unwrap();
            let mut b = memory.point_query(q, &mut s2);
            a.sort();
            b.sort();
            assert_eq!(a, b, "query {i}");
        }
        assert_eq!(s1.nodes_visited, s2.nodes_visited, "identical structure");
    }

    #[test]
    fn remove_all_on_pages() {
        let pager = Pager::temp().unwrap();
        let mut tree = PagedRTree::create(&pager, RTreeConfig::PAPER, 32).unwrap();
        let items = scatter(150);
        for &(mbr, id) in &items {
            tree.insert(mbr, id).unwrap();
        }
        for &(mbr, id) in &items {
            assert!(tree.remove(mbr, id).unwrap(), "missing {id}");
        }
        assert!(tree.is_empty());
        assert_eq!(tree.depth(), 0);
        tree.validate().unwrap().unwrap();
        assert!(!tree.remove(items[0].0, items[0].1).unwrap());
    }

    #[test]
    fn interleaved_updates_stay_valid() {
        let pager = Pager::temp().unwrap();
        let mut tree = PagedRTree::create(&pager, RTreeConfig::PAPER, 16).unwrap();
        let items = scatter(240);
        for chunk in items.chunks(40) {
            for &(mbr, id) in chunk {
                tree.insert(mbr, id).unwrap();
            }
            for &(mbr, id) in &chunk[..20] {
                assert!(tree.remove(mbr, id).unwrap());
            }
            tree.validate().unwrap().unwrap();
        }
        assert_eq!(tree.len(), 120);
    }

    /// The on-page mirror of `rtree-index`'s
    /// `condense_orphan_stress_randomized`: a delete-heavy randomized
    /// workload with the structural validator run after every removal,
    /// hitting CondenseTree's orphan re-insertion, page freeing, and
    /// root-shortening paths against real pages.
    #[test]
    fn paged_condense_orphan_stress_randomized() {
        for &seed in &[5u64, 23] {
            let pager = Pager::temp().unwrap();
            let config = RTreeConfig::new(4, 2, rtree_index::SplitPolicy::Quadratic);
            let mut tree = PagedRTree::create(&pager, config, 16).unwrap();
            let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            let mut next = move || {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                s >> 33
            };
            let mut live: Vec<(Rect, ItemId)> = Vec::new();
            let mut next_id = 0u64;
            for step in 0..300 {
                let insert_pct = if step < 120 { 65 } else { 25 };
                if live.is_empty() || next() % 100 < insert_pct {
                    let rect = if !live.is_empty() && next() % 4 == 0 {
                        live[next() as usize % live.len()].0
                    } else {
                        pt((next() % 500) as f64, (next() % 500) as f64)
                    };
                    let id = ItemId(next_id);
                    next_id += 1;
                    tree.insert(rect, id).unwrap();
                    live.push((rect, id));
                } else {
                    let (rect, id) = live.swap_remove(next() as usize % live.len());
                    assert!(
                        tree.remove(rect, id).unwrap(),
                        "seed {seed}: step {step}: {id:?} missing"
                    );
                    tree.validate().unwrap().unwrap();
                }
                assert_eq!(tree.len(), live.len(), "seed {seed}: step {step}");
            }
            while let Some((rect, id)) = live.pop() {
                assert!(tree.remove(rect, id).unwrap(), "seed {seed}: drain {id:?}");
                tree.validate().unwrap().unwrap();
            }
            assert!(tree.is_empty(), "seed {seed}");
            assert_eq!(tree.depth(), 0, "seed {seed}");
            tree.close().unwrap();
        }
    }

    #[test]
    fn from_packed_tree_and_reopen() {
        let path = std::env::temp_dir().join(format!("paged-rtree-{}.db", std::process::id()));
        let items = scatter(400);
        let packed = packed_tree(&items);
        {
            let pager = Pager::create(&path).unwrap();
            let mut paged = PagedRTree::from_tree(&packed, &pager, 32).unwrap();
            paged.validate_with(false).unwrap().unwrap();
            // A few dynamic updates on the packed image (§3.4).
            paged.insert(pt(1.5, 2.5), ItemId(9999)).unwrap();
            assert!(paged.remove(items[0].0, items[0].1).unwrap());
            paged.close().unwrap();
        }
        {
            let pager = Pager::open(&path).unwrap();
            let paged = PagedRTree::open(&pager, PageId(0), 32).unwrap();
            assert_eq!(paged.len(), 400);
            assert_eq!(
                paged.config(),
                RTreeConfig::PAPER,
                "config (incl. split policy) survives reopen"
            );
            assert!(paged.epoch() >= 2, "close() advanced the commit epoch");
            paged.validate_with(false).unwrap().unwrap();
            let mut stats = SearchStats::default();
            let hits = paged.point_query(Point::new(1.5, 2.5), &mut stats).unwrap();
            assert!(hits.contains(&ItemId(9999)));
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn uncommitted_ops_roll_back_on_reopen() {
        let path =
            std::env::temp_dir().join(format!("paged-rtree-rollback-{}.db", std::process::id()));
        {
            let pager = Pager::create(&path).unwrap();
            let mut tree = PagedRTree::create(&pager, RTreeConfig::PAPER, 32).unwrap();
            for &(mbr, id) in &scatter(50) {
                tree.insert(mbr, id).unwrap();
            }
            tree.commit().unwrap();
            // More inserts, never committed: the meta pair still points
            // at epoch 2's tree.
            for &(mbr, id) in &scatter(80)[50..] {
                tree.insert(mbr, id).unwrap();
            }
            drop(tree);
        }
        {
            let pager = Pager::open(&path).unwrap();
            let tree = PagedRTree::open(&pager, PageId(0), 32).unwrap();
            assert_eq!(tree.len(), 50, "uncommitted inserts must not be visible");
        }
        let _ = std::fs::remove_file(&path);
    }

    fn packed_tree(items: &[(Rect, ItemId)]) -> RTree {
        // Local bottom-up pack (avoids a dev-dependency cycle with
        // packed-rtree-core): plain x-sort runs.
        use rtree_index::builder::BottomUpBuilder;
        let mut sorted: Vec<(Rect, ItemId)> = items.to_vec();
        sorted.sort_by(|a, b| a.0.center().x.total_cmp(&b.0.center().x));
        let mut b = BottomUpBuilder::new(RTreeConfig::PAPER);
        let mut handles: Vec<(NodeId, Rect)> = sorted
            .chunks(4)
            .map(|chunk| b.add_leaf(chunk.to_vec()))
            .collect();
        let mut level = 1;
        while handles.len() > 1 {
            handles = handles
                .chunks(4)
                .map(|chunk| b.add_internal(level, chunk.to_vec()))
                .collect();
            level += 1;
        }
        b.finish(handles[0].0)
    }

    #[test]
    fn oversized_config_rejected() {
        let pager = Pager::temp().unwrap();
        assert!(PagedRTree::create(&pager, RTreeConfig::with_branching(500), 8).is_err());
    }
}
