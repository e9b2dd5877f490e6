//! The staged node-page writer: how packed node pages reach a store.
//!
//! Bulk builders ([`DiskRTree::store`](crate::DiskRTree::store), the
//! external packer's emitter) produce node pages in long runs of
//! consecutive page ids. [`NodePageWriter`] owns a fixed batch of page
//! buffers, encodes each node straight into the next one and hands a
//! full batch to [`PageStore::write_pages`] — one contiguous store write
//! per batch, and no page allocated or zeroed per node: a reused buffer
//! only has the bytes its previous node reached past the new one
//! cleared, so every page image equals a fresh zeroed page encoded once.

use crate::codec::{self, DiskEntry};
use crate::error::StorageResult;
use crate::page::{Page, PageId};
use crate::pager::PageStore;

/// Encodes node pages into a reused batch of buffers and writes them to
/// a store in contiguous runs.
pub struct NodePageWriter<'a> {
    store: &'a dyn PageStore,
    cap: usize,
    /// The batch's buffers (grown on first use up to `cap`, then reused)
    /// and how many payload bytes the node last encoded into each used.
    pages: Vec<Page>,
    used: Vec<usize>,
    /// `pages[..staged]` are pending, destined for `first..`.
    staged: usize,
    first: PageId,
    written: u32,
}

impl<'a> NodePageWriter<'a> {
    /// A writer into `store` that stages up to `batch_pages` pages
    /// (at least one) per store write.
    pub fn new(store: &'a dyn PageStore, batch_pages: usize) -> Self {
        let cap = batch_pages.max(1);
        NodePageWriter {
            store,
            cap,
            pages: Vec::with_capacity(cap),
            used: Vec::with_capacity(cap),
            staged: 0,
            first: PageId(0),
            written: 0,
        }
    }

    /// Allocates the node's page, encodes it into the batch and returns
    /// its id. The page reaches the store when the batch fills, when the
    /// store hands out a page that does not continue the run (possible
    /// only if it recycles freed pages), or at
    /// [`flush`](NodePageWriter::flush).
    ///
    /// # Panics
    ///
    /// Panics if `entries` exceed a page ([`codec::encode_entries`]).
    pub fn push(&mut self, level: u32, entries: &[DiskEntry]) -> StorageResult<PageId> {
        let id = self.store.allocate();
        if self.staged > 0 && self.first.0 + self.staged as u32 != id.0 {
            self.flush()?;
        }
        if self.staged == 0 {
            self.first = id;
        }
        if self.staged == self.pages.len() {
            self.pages.push(Page::zeroed());
            self.used.push(0);
        }
        let page = &mut self.pages[self.staged];
        let used = codec::encode_entries(level, entries, page);
        let stale = std::mem::replace(&mut self.used[self.staged], used);
        if stale > used {
            page.bytes_mut()[used..stale].fill(0);
        }
        self.staged += 1;
        if self.staged == self.cap {
            self.flush()?;
        }
        Ok(id)
    }

    /// Writes the pending run to the store.
    pub fn flush(&mut self) -> StorageResult<()> {
        if self.staged > 0 {
            self.store
                .write_pages(self.first, &self.pages[..self.staged])?;
            self.written += self.staged as u32;
            self.staged = 0;
        }
        Ok(())
    }

    /// Flushes and returns the number of pages written over the writer's
    /// lifetime.
    pub fn finish(mut self) -> StorageResult<u32> {
        self.flush()?;
        Ok(self.written)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultPager, FaultScript};
    use crate::pager::Pager;
    use rtree_geom::Rect;

    /// Nodes whose sizes go up and down, so reused buffers hold longer
    /// stale nodes behind shorter new ones.
    fn nodes() -> Vec<(u32, Vec<DiskEntry>)> {
        [4usize, 102, 0, 3, 57, 1, 102, 2, 4, 4, 0, 9, 80, 5]
            .iter()
            .enumerate()
            .map(|(k, &n)| {
                let entries = (0..n)
                    .map(|i| {
                        let x = (k * 1000 + i) as f64;
                        DiskEntry {
                            mbr: Rect::new(x, -x, x + 0.5, 1.0 - x),
                            child: (k * 7 + i) as u64 | 1 << 40,
                        }
                    })
                    .collect();
                ((k % 3) as u32, entries)
            })
            .collect()
    }

    fn file_image(pager: &Pager) -> Vec<u8> {
        (0..pager.page_count())
            .flat_map(|p| *pager.read_page_raw(PageId(p)).unwrap().bytes())
            .collect()
    }

    /// The image one `Page::zeroed()` + `encode` + `write_page` per node
    /// leaves: what every bulk builder wrote before the staged writer.
    fn one_page_at_a_time() -> Vec<u8> {
        let pager = Pager::temp().unwrap();
        for (level, entries) in nodes() {
            let mut page = Page::zeroed();
            codec::encode_entries(level, &entries, &mut page);
            pager.write_page(pager.allocate(), &page).unwrap();
        }
        file_image(&pager)
    }

    #[test]
    fn staged_image_equals_the_one_page_at_a_time_image() {
        let want = one_page_at_a_time();
        for batch in [1usize, 3, 5, 64] {
            let pager = Pager::temp().unwrap();
            let mut writer = NodePageWriter::new(&pager, batch);
            for (k, (level, entries)) in nodes().iter().enumerate() {
                assert_eq!(writer.push(*level, entries).unwrap(), PageId(k as u32));
            }
            assert_eq!(writer.finish().unwrap() as usize, nodes().len());
            assert!(file_image(&pager) == want, "batch of {batch}");
            assert_eq!(pager.stats().writes() as usize, nodes().len());
        }
    }

    #[test]
    fn recycled_page_ids_break_the_run_but_not_the_image() {
        // Free list [5, 1]: the store hands out 1, then 5, then fresh
        // ids from 8 — three runs, each written where it belongs.
        let pager = Pager::temp().unwrap();
        for _ in 0..8 {
            pager.allocate();
        }
        pager.free(PageId(5));
        pager.free(PageId(1));
        let mut writer = NodePageWriter::new(&pager, 64);
        let ids: Vec<PageId> = nodes()
            .iter()
            .take(5)
            .map(|(level, entries)| writer.push(*level, entries).unwrap())
            .collect();
        assert_eq!(ids, [1, 5, 8, 9, 10].map(PageId));
        assert_eq!(writer.finish().unwrap(), 5);
        for (id, (level, entries)) in ids.iter().zip(nodes()) {
            let node = codec::decode(&pager.read_page(*id).unwrap()).unwrap();
            assert_eq!((node.level, node.entries), (level, entries), "{id}");
        }
        assert!(pager.read_page(PageId(2)).unwrap().is_zeroed());
    }

    #[test]
    fn fault_wrappers_see_one_write_per_page_in_order() {
        let pager = Pager::temp().unwrap();
        let faulty = FaultPager::new(&pager, FaultScript::new());
        let mut writer = NodePageWriter::new(&faulty, 4);
        for (level, entries) in nodes().iter().take(6) {
            writer.push(*level, entries).unwrap();
        }
        assert_eq!(faulty.writes_seen(), 4, "one full batch so far");
        writer.flush().unwrap();
        assert_eq!(faulty.writes_seen(), 6);
        writer.flush().unwrap();
        assert_eq!(faulty.writes_seen(), 6, "nothing pending, nothing written");
    }
}
