//! The benchmark's own page store: pages held in memory, each trimmed to
//! the bytes it uses.
//!
//! At 1M objects and M = 4 the external tree is one node a page, 1.3 GB
//! of pages that are 95% zeroes. Written to a page file, four fifths of a
//! pack is the kernel taking those writes (and a single file of that size
//! dies of `SIGXFSZ` wherever a file size limit is set); a sandbox's page
//! cache is nobody's disk, so that time says nothing about the packer and
//! reads 40% apart from run to run. This store keeps what the storage
//! layer does to a page (seal on write, verify on read, the same page
//! ids as a `Pager` hands out) and leaves the device out: what is timed
//! is the packer, the node codec and the buffer pool, and the device
//! shows as exact counts of pages read and written.

use rtree_storage::{Page, PageId, PageStore, StorageError, StorageResult, PAYLOAD_SIZE};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

#[derive(Default)]
struct State {
    /// High-water mark and LIFO free list, as `Pager` allocates.
    next: u32,
    free: Vec<PageId>,
    /// A sealed page's payload up to its last non-zero byte, then its
    /// footer (type tag and checksum); `None` for a page never written.
    pages: Vec<Option<Box<[u8]>>>,
}

#[derive(Default)]
pub struct MemStore {
    state: Mutex<State>,
    reads: AtomicU64,
    writes: AtomicU64,
}

fn trimmed(page: &Page) -> Box<[u8]> {
    let mut sealed = page.clone();
    sealed.seal();
    let bytes = sealed.bytes();
    let used = bytes[..PAYLOAD_SIZE]
        .iter()
        .rposition(|&b| b != 0)
        .map_or(0, |last| last + 1);
    [&bytes[..used], &bytes[PAYLOAD_SIZE..]].concat().into()
}

impl MemStore {
    pub fn new() -> MemStore {
        MemStore::default()
    }

    /// Page reads so far.
    pub fn reads(&self) -> u64 {
        self.reads.load(Ordering::Relaxed)
    }

    /// Page writes so far.
    pub fn writes(&self) -> u64 {
        self.writes.load(Ordering::Relaxed)
    }

    pub fn reset_stats(&self) {
        self.reads.store(0, Ordering::Relaxed);
        self.writes.store(0, Ordering::Relaxed);
    }

    /// Bytes the stored pages take.
    pub fn stored_bytes(&self) -> usize {
        let st = self.state.lock().expect("store state");
        st.pages.iter().flatten().map(|p| p.len()).sum()
    }

    fn put(&self, first: PageId, images: Vec<Box<[u8]>>) {
        self.writes
            .fetch_add(images.len() as u64, Ordering::Relaxed);
        let mut st = self.state.lock().expect("store state");
        let end = first.0 as usize + images.len();
        if st.pages.len() < end {
            st.pages.resize_with(end, || None);
        }
        for (slot, image) in st.pages[first.0 as usize..end].iter_mut().zip(images) {
            *slot = Some(image);
        }
    }
}

impl PageStore for MemStore {
    fn allocate(&self) -> PageId {
        let mut st = self.state.lock().expect("store state");
        st.free.pop().unwrap_or_else(|| {
            let id = PageId(st.next);
            st.next += 1;
            id
        })
    }

    fn free(&self, id: PageId) {
        self.state.lock().expect("store state").free.push(id);
    }

    fn page_count(&self) -> u32 {
        self.state.lock().expect("store state").next
    }

    fn read_page(&self, id: PageId) -> StorageResult<Page> {
        self.reads.fetch_add(1, Ordering::Relaxed);
        let mut page = Page::zeroed();
        {
            let st = self.state.lock().expect("store state");
            // A page never written reads as zeroes, as a sparse file does.
            if let Some(Some(image)) = st.pages.get(id.0 as usize) {
                let used = image.len() - (page.bytes().len() - PAYLOAD_SIZE);
                page.bytes_mut()[..used].copy_from_slice(&image[..used]);
                page.bytes_mut()[PAYLOAD_SIZE..].copy_from_slice(&image[used..]);
            }
        }
        page.verify()
            .map_err(|reason| StorageError::corrupt(id, reason))?;
        Ok(page)
    }

    fn write_page(&self, id: PageId, page: &Page) -> StorageResult<()> {
        self.put(id, vec![trimmed(page)]);
        Ok(())
    }

    fn write_pages(&self, first: PageId, pages: &[Page]) -> StorageResult<()> {
        self.put(first, pages.iter().map(trimmed).collect());
        Ok(())
    }

    fn sync(&self) -> StorageResult<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtree_storage::{PageType, Pager, PAGE_SIZE};

    #[test]
    fn behaves_as_a_pager_does_and_keeps_only_used_bytes() {
        let mem = MemStore::new();
        // Beside the test binary, not in TMPDIR: another test moves that.
        let path = std::env::current_exe()
            .unwrap()
            .with_file_name(format!("memstore-test-{}.db", std::process::id()));
        let file = Pager::create(&path).unwrap();

        // Allocation: sequential, then LIFO reuse, as `Pager`.
        for _ in 0..8 {
            assert_eq!(mem.allocate(), file.allocate());
        }
        for id in [PageId(3), PageId(5)] {
            mem.free(id);
            file.free(id);
        }
        for _ in 0..3 {
            assert_eq!(mem.allocate(), file.allocate());
        }
        assert_eq!(mem.page_count(), file.page_count());

        // The same writes read back the same from both, byte for byte.
        let mut page = Page::zeroed();
        page.set_type(PageType::Node);
        let batch: Vec<Page> = (1..=4u8)
            .map(|i| {
                page.bytes_mut()[usize::from(i) * 100] = i;
                page.clone()
            })
            .collect();
        for store in [&mem as &dyn PageStore, &file] {
            store.write_pages(PageId(2), &batch).unwrap();
            store.write_page(PageId(7), &batch[0]).unwrap();
            store.write_page(PageId(2), &batch[3]).unwrap();
            store.sync().unwrap();
        }
        for id in (0..9).map(PageId) {
            let (a, b) = (mem.read_page(id).unwrap(), file.read_page(id).unwrap());
            assert_eq!(a.bytes()[..], b.bytes()[..], "{id:?}");
        }
        assert_eq!((mem.writes(), mem.reads()), (6, 9));
        assert_eq!(file.stats().writes(), 6);
        mem.reset_stats();
        assert_eq!((mem.writes(), mem.reads()), (0, 0));

        // Five pages of at most 401 used bytes and an 8-byte footer.
        assert!(mem.stored_bytes() <= 5 * 409, "{}", mem.stored_bytes());
        assert!(mem.stored_bytes() < PAGE_SIZE);
        std::fs::remove_file(&path).unwrap();
    }
}
