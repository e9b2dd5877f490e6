//! The pager: a file of fixed-size pages with allocation, raw I/O
//! counting, and checksum enforcement — plus the [`PageStore`] trait
//! that lets fault-injecting wrappers stand in for the real file.

use crate::error::{StorageError, StorageResult};
use crate::page::{Page, PageId};
use std::fs::{File, OpenOptions};
use std::io;
use std::os::unix::fs::FileExt;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// The interface the buffer pool, the page-resident tree and the WAL
/// program against: allocate/free page ids, read/write whole pages, and flush to
/// stable storage.
///
/// [`Pager`] is the real implementation;
/// [`FaultPager`](crate::FaultPager) wraps one to inject deterministic
/// faults for crash testing.
pub trait PageStore {
    /// Allocates a fresh (or recycled) page id.
    fn allocate(&self) -> PageId;
    /// Returns a page id to the free list.
    fn free(&self, id: PageId);
    /// Number of pages ever allocated (high-water mark).
    fn page_count(&self) -> u32;
    /// Reads page `id`, verifying its checksum.
    fn read_page(&self, id: PageId) -> StorageResult<Page>;
    /// Reads page `id` into a buffer the caller already owns, verifying
    /// its checksum; on error `page`'s contents are unspecified. The
    /// default forwards to [`read_page`](PageStore::read_page), so
    /// wrappers that only implement that keep observing every physical
    /// read; [`Pager`] overrides it to read straight into the buffer,
    /// which is what lets a buffer-pool miss reuse a frame instead of
    /// allocating a page.
    fn read_page_into(&self, id: PageId, page: &mut Page) -> StorageResult<()> {
        *page = self.read_page(id)?;
        Ok(())
    }
    /// Writes page `id`, stamping its checksum.
    fn write_page(&self, id: PageId, page: &Page) -> StorageResult<()>;
    /// Writes `pages.len()` consecutive pages starting at `first`,
    /// stamping each page's checksum. The default forwards to one
    /// [`write_page`](PageStore::write_page) per page, so fault-injecting
    /// wrappers keep observing (and faulting) every physical page write;
    /// [`Pager`] overrides it with a single positional write, which is
    /// what makes bulk emitters (the external packer's run spiller and
    /// node-page emitter) pay one syscall per batch instead of one per
    /// 4 KiB page.
    fn write_pages(&self, first: PageId, pages: &[Page]) -> StorageResult<()> {
        for (i, page) in pages.iter().enumerate() {
            self.write_page(PageId(first.0 + i as u32), page)?;
        }
        Ok(())
    }
    /// Flushes file contents to stable storage.
    fn sync(&self) -> StorageResult<()>;
}

/// A shared reference to any store is itself a store, so components that
/// own their store by value (e.g. [`Wal`](crate::wal::Wal)) can also
/// borrow one — the WAL crash matrix runs a `Wal<&FaultPager>` while the
/// test harness keeps inspecting the wrapper.
impl<S: PageStore + ?Sized> PageStore for &S {
    fn allocate(&self) -> PageId {
        (**self).allocate()
    }

    fn free(&self, id: PageId) {
        (**self).free(id)
    }

    fn page_count(&self) -> u32 {
        (**self).page_count()
    }

    fn read_page(&self, id: PageId) -> StorageResult<Page> {
        (**self).read_page(id)
    }

    fn read_page_into(&self, id: PageId, page: &mut Page) -> StorageResult<()> {
        (**self).read_page_into(id, page)
    }

    fn write_page(&self, id: PageId, page: &Page) -> StorageResult<()> {
        (**self).write_page(id, page)
    }

    fn write_pages(&self, first: PageId, pages: &[Page]) -> StorageResult<()> {
        (**self).write_pages(first, pages)
    }

    fn sync(&self) -> StorageResult<()> {
        (**self).sync()
    }
}

/// Raw disk traffic counters (physical page reads/writes issued to the
/// file, i.e. buffer-pool misses and flushes).
#[derive(Debug, Default)]
pub struct IoStats {
    reads: AtomicU64,
    writes: AtomicU64,
}

impl IoStats {
    /// Physical page reads so far.
    pub fn reads(&self) -> u64 {
        self.reads.load(Ordering::Relaxed)
    }

    /// Physical page writes so far.
    pub fn writes(&self) -> u64 {
        self.writes.load(Ordering::Relaxed)
    }
}

/// A page file: allocate, read, write, free.
///
/// All I/O is positional (`pread`/`pwrite`); a [`Mutex`] guards the
/// allocation state while data-path reads/writes go straight to the file,
/// which is safe because the buffer pool never issues concurrent accesses
/// to the same page frame.
///
/// Every [`write_page`](Pager::write_page) seals the page (footer CRC);
/// every [`read_page`](Pager::read_page) verifies it, surfacing torn
/// writes and bit rot as [`StorageError::Corrupt`].
pub struct Pager {
    file: File,
    state: Mutex<AllocState>,
    stats: IoStats,
}

#[derive(Debug, Default)]
struct AllocState {
    next: u32,
    free: Vec<PageId>,
}

impl Pager {
    /// A pager over `file` whose next fresh page id is `next`.
    fn over(file: File, next: u32) -> Self {
        Pager {
            file,
            state: Mutex::new(AllocState {
                next,
                free: Vec::new(),
            }),
            stats: IoStats::default(),
        }
    }

    /// Creates (truncating) a page file at `path`.
    pub fn create<P: AsRef<Path>>(path: P) -> io::Result<Self> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        Ok(Self::over(file, 0))
    }

    /// Opens an existing page file without truncating it; the allocation
    /// high-water mark resumes after the last full page on disk.
    pub fn open<P: AsRef<Path>>(path: P) -> io::Result<Self> {
        let file = OpenOptions::new().read(true).write(true).open(path)?;
        let len = file.metadata()?.len();
        let next = u32::try_from(len.div_ceil(crate::page::PAGE_SIZE as u64))
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "file too large"))?;
        Ok(Self::over(file, next))
    }

    /// Creates a pager backed by an anonymous temporary file in
    /// `std::env::temp_dir()`, deleted on drop.
    pub fn temp() -> io::Result<Self> {
        /// Per-process counter, so no two calls share a name.
        static NEXT_TEMP: AtomicU64 = AtomicU64::new(0);
        loop {
            let path = std::env::temp_dir().join(format!(
                "packed-rtree-pager-{}-{}.db",
                std::process::id(),
                NEXT_TEMP.fetch_add(1, Ordering::Relaxed)
            ));
            let opened = OpenOptions::new()
                .read(true)
                .write(true)
                .create_new(true)
                .open(&path);
            match opened {
                // A dead process's leftover under a recycled pid: never
                // share it, take the next name.
                Err(e) if e.kind() == io::ErrorKind::AlreadyExists => {}
                Err(e) => return Err(e),
                Ok(file) => {
                    // Unlink at once; the open fd keeps the file alive.
                    let _ = std::fs::remove_file(&path);
                    return Ok(Self::over(file, 0));
                }
            }
        }
    }

    /// Allocates a fresh (or recycled) page id.
    pub fn allocate(&self) -> PageId {
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(id) = st.free.pop() {
            id
        } else {
            let id = PageId(st.next);
            st.next += 1;
            id
        }
    }

    /// Returns a page id to the free list.
    pub fn free(&self, id: PageId) {
        self.state
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .free
            .push(id);
    }

    /// Number of pages ever allocated (high-water mark).
    pub fn page_count(&self) -> u32 {
        self.state.lock().unwrap_or_else(|e| e.into_inner()).next
    }

    /// Fills `page` with the file's bytes for `id`, unverified.
    fn read_raw_into(&self, id: PageId, page: &mut Page) -> io::Result<()> {
        let mut buf = &mut page.bytes_mut()[..];
        let mut off = id.offset();
        while !buf.is_empty() {
            match self.file.read_at(buf, off) {
                Ok(0) => break,
                Ok(n) => {
                    buf = &mut buf[n..];
                    off += n as u64;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        // Pages beyond EOF read as zeroes (sparse file semantics).
        buf.fill(0);
        self.stats.reads.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Reads page `id` from disk **without** checksum verification.
    ///
    /// Exists for recovery tooling and the fault-injection layer; normal
    /// code paths go through [`read_page`](Pager::read_page).
    pub fn read_page_raw(&self, id: PageId) -> io::Result<Page> {
        let mut page = Page::zeroed();
        self.read_raw_into(id, &mut page)?;
        Ok(page)
    }

    /// Reads page `id` from disk, verifying the footer checksum.
    pub fn read_page(&self, id: PageId) -> StorageResult<Page> {
        let mut page = Page::zeroed();
        self.read_page_into(id, &mut page)?;
        Ok(page)
    }

    /// [`read_page`](Pager::read_page) into a buffer the caller owns.
    pub fn read_page_into(&self, id: PageId, page: &mut Page) -> StorageResult<()> {
        self.read_raw_into(id, page)?;
        page.verify()
            .map_err(|reason| StorageError::corrupt(id, reason))
    }

    /// Writes page `id` to disk, sealing a fresh footer checksum over the
    /// current contents (the caller's copy is not modified).
    pub fn write_page(&self, id: PageId, page: &Page) -> StorageResult<()> {
        let mut sealed = page.clone();
        sealed.seal();
        self.write_page_raw(id, &sealed)?;
        Ok(())
    }

    /// Writes consecutive pages `first..first + pages.len()` with one
    /// positional write, sealing each page's checksum into a staging
    /// buffer first. Counts one physical write per page (the same file
    /// bytes move either way); the saving over per-page writes is the
    /// syscall amortization for bulk emitters.
    pub fn write_pages(&self, first: PageId, pages: &[Page]) -> StorageResult<()> {
        use crate::page::{CRC_OFFSET, PAGE_SIZE};
        if pages.is_empty() {
            return Ok(());
        }
        let mut staging = Vec::with_capacity(pages.len() * PAGE_SIZE);
        for page in pages {
            let at = staging.len();
            staging.extend_from_slice(&page.bytes()[..]);
            let crc = crate::crc::crc32(&staging[at..at + CRC_OFFSET]);
            staging[at + CRC_OFFSET..at + PAGE_SIZE].copy_from_slice(&crc.to_le_bytes());
        }
        self.file.write_all_at(&staging, first.offset())?;
        self.stats
            .writes
            .fetch_add(pages.len() as u64, Ordering::Relaxed);
        Ok(())
    }

    /// Writes a page image verbatim — no checksum stamping. Used by the
    /// fault layer to simulate torn/garbage writes; normal code paths go
    /// through [`write_page`](Pager::write_page).
    pub fn write_page_raw(&self, id: PageId, page: &Page) -> io::Result<()> {
        self.file.write_all_at(&page.bytes()[..], id.offset())?;
        self.stats.writes.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Writes only the first `len` bytes of `page` at `id`'s offset — a
    /// torn (partial) write, as a crash mid-`pwrite` would leave. Counts
    /// as one physical write.
    pub fn write_partial(&self, id: PageId, page: &Page, len: usize) -> io::Result<()> {
        let len = len.min(crate::page::PAGE_SIZE);
        self.file.write_all_at(&page.bytes()[..len], id.offset())?;
        self.stats.writes.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Raw I/O counters.
    pub fn stats(&self) -> &IoStats {
        &self.stats
    }

    /// Flushes file contents to stable storage.
    pub fn sync(&self) -> io::Result<()> {
        self.file.sync_data()
    }
}

impl PageStore for Pager {
    fn allocate(&self) -> PageId {
        Pager::allocate(self)
    }

    fn free(&self, id: PageId) {
        Pager::free(self, id)
    }

    fn page_count(&self) -> u32 {
        Pager::page_count(self)
    }

    fn read_page(&self, id: PageId) -> StorageResult<Page> {
        Pager::read_page(self, id)
    }

    fn read_page_into(&self, id: PageId, page: &mut Page) -> StorageResult<()> {
        Pager::read_page_into(self, id, page)
    }

    fn write_page(&self, id: PageId, page: &Page) -> StorageResult<()> {
        Pager::write_page(self, id, page)
    }

    fn write_pages(&self, first: PageId, pages: &[Page]) -> StorageResult<()> {
        Pager::write_pages(self, first, pages)
    }

    fn sync(&self) -> StorageResult<()> {
        Pager::sync(self)?;
        Ok(())
    }
}

impl std::fmt::Debug for Pager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pager")
            .field("pages", &self.page_count())
            .field("reads", &self.stats.reads())
            .field("writes", &self.stats.writes())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::PAGE_SIZE;

    #[test]
    fn allocate_sequential_and_recycle() {
        let pager = Pager::temp().unwrap();
        let a = pager.allocate();
        let b = pager.allocate();
        assert_eq!(a, PageId(0));
        assert_eq!(b, PageId(1));
        pager.free(a);
        assert_eq!(pager.allocate(), a);
        assert_eq!(pager.page_count(), 2);
    }

    #[test]
    fn temp_pagers_never_share_a_file() {
        // 1 000 temp pagers from four threads, made in waves the threads
        // enter together (200 files open at a time, whatever the fd
        // limit): every pager of a wave is stamped before any is read
        // back, so two that shared a file would read the later stamp.
        const THREADS: usize = 4;
        const WAVES: usize = 5;
        const PER_WAVE: usize = 50;
        let barrier = std::sync::Barrier::new(THREADS);
        std::thread::scope(|scope| {
            for thread in 0..THREADS {
                let barrier = &barrier;
                scope.spawn(move || {
                    for wave in 0..WAVES {
                        let stamp = |i: usize| ((thread * WAVES + wave) * PER_WAVE + i) as u16;
                        barrier.wait();
                        let pagers: Vec<Pager> =
                            (0..PER_WAVE).map(|_| Pager::temp().unwrap()).collect();
                        for (i, pager) in pagers.iter().enumerate() {
                            let mut page = Page::zeroed();
                            page.bytes_mut()[..2].copy_from_slice(&stamp(i).to_le_bytes());
                            pager.write_page(pager.allocate(), &page).unwrap();
                        }
                        barrier.wait();
                        for (i, pager) in pagers.iter().enumerate() {
                            let back = pager.read_page(PageId(0)).unwrap();
                            assert_eq!(back.bytes()[..2], stamp(i).to_le_bytes());
                            assert_eq!(pager.page_count(), 1);
                        }
                    }
                });
            }
        });
    }

    #[test]
    fn read_page_into_overwrites_the_whole_buffer() {
        // Reading into a used buffer must leave exactly the file's page:
        // a short file (here: none of page 1 exists) reads as zeroes, not
        // as whatever the buffer held.
        let pager = Pager::temp().unwrap();
        let a = pager.allocate();
        let b = pager.allocate();
        let mut page = Page::zeroed();
        page.bytes_mut().fill(0xEE);
        pager.write_page(a, &page).unwrap();
        let mut buf = Page::zeroed();
        pager.read_page_into(a, &mut buf).unwrap();
        assert_eq!(buf.bytes()[..100], [0xEE; 100]);
        pager.read_page_into(b, &mut buf).unwrap();
        assert!(buf.is_zeroed());
        assert_eq!(pager.stats().reads(), 2);
    }

    #[test]
    fn write_read_roundtrip() {
        let pager = Pager::temp().unwrap();
        let id = pager.allocate();
        let mut page = Page::zeroed();
        page.bytes_mut()[0] = 7;
        page.bytes_mut()[PAGE_SIZE - 9] = 9;
        pager.write_page(id, &page).unwrap();
        let back = pager.read_page(id).unwrap();
        assert_eq!(back.bytes()[0], 7);
        assert_eq!(back.bytes()[PAGE_SIZE - 9], 9);
        assert_eq!(pager.stats().reads(), 1);
        assert_eq!(pager.stats().writes(), 1);
    }

    #[test]
    fn write_pages_batch_matches_per_page_writes() {
        let pager = Pager::temp().unwrap();
        let first = pager.allocate();
        let mut batch = Vec::new();
        for i in 0..5u8 {
            if i > 0 {
                pager.allocate();
            }
            let mut page = Page::zeroed();
            page.bytes_mut()[0] = i + 1;
            page.bytes_mut()[PAGE_SIZE - 9] = 0xA0 | i;
            batch.push(page);
        }
        pager.write_pages(first, &batch).unwrap();
        assert_eq!(pager.stats().writes(), 5);
        // Every page reads back with a valid checksum and its payload.
        for (i, expect) in batch.iter().enumerate() {
            let got = pager.read_page(PageId(first.0 + i as u32)).unwrap();
            assert_eq!(got.bytes()[0], expect.bytes()[0], "page {i}");
            assert_eq!(got.bytes()[PAGE_SIZE - 9], expect.bytes()[PAGE_SIZE - 9]);
        }
        // Empty batch is a no-op.
        pager.write_pages(PageId(0), &[]).unwrap();
        assert_eq!(pager.stats().writes(), 5);
    }

    #[test]
    fn trait_default_write_pages_goes_through_write_page() {
        // The default impl must issue one observable write per page, so
        // fault wrappers (which rely on per-write counting) stay exact.
        let pager = Pager::temp().unwrap();
        let faulty = crate::FaultPager::new(&pager, crate::FaultScript::new());
        let first = PageStore::allocate(&faulty);
        PageStore::allocate(&faulty);
        let pages = vec![Page::zeroed(), Page::zeroed()];
        PageStore::write_pages(&faulty, first, &pages).unwrap();
        assert_eq!(faulty.writes_seen(), 2);
    }

    #[test]
    fn unwritten_page_reads_as_zero() {
        let pager = Pager::temp().unwrap();
        let id = pager.allocate();
        let page = pager.read_page(id).unwrap();
        assert!(page.bytes().iter().all(|&b| b == 0));
    }

    #[test]
    fn independent_pages_do_not_clobber() {
        let pager = Pager::temp().unwrap();
        let a = pager.allocate();
        let b = pager.allocate();
        let mut pa = Page::zeroed();
        pa.bytes_mut()[10] = 1;
        let mut pb = Page::zeroed();
        pb.bytes_mut()[10] = 2;
        pager.write_page(a, &pa).unwrap();
        pager.write_page(b, &pb).unwrap();
        assert_eq!(pager.read_page(a).unwrap().bytes()[10], 1);
        assert_eq!(pager.read_page(b).unwrap().bytes()[10], 2);
    }

    #[test]
    fn bit_flip_detected_as_corrupt() {
        let pager = Pager::temp().unwrap();
        let id = pager.allocate();
        let mut page = Page::zeroed();
        page.bytes_mut()[123] = 0xAA;
        pager.write_page(id, &page).unwrap();

        // Flip one bit behind the pager's back.
        let mut raw = pager.read_page_raw(id).unwrap();
        raw.bytes_mut()[123] ^= 0x10;
        pager.write_page_raw(id, &raw).unwrap();

        let err = pager.read_page(id).unwrap_err();
        assert!(err.is_corrupt(), "expected Corrupt, got {err:?}");
        match err {
            StorageError::Corrupt { page, reason } => {
                assert_eq!(page, id);
                assert!(reason.contains("checksum"), "{reason}");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn torn_write_detected_as_corrupt() {
        let pager = Pager::temp().unwrap();
        let id = pager.allocate();
        let mut page = Page::zeroed();
        for (i, b) in page.bytes_mut().iter_mut().enumerate() {
            *b = (i % 251) as u8;
        }
        pager.write_page(id, &page).unwrap();

        // A different image, torn halfway through.
        let mut torn = Page::zeroed();
        for b in torn.bytes_mut().iter_mut() {
            *b = 0xEE;
        }
        torn.seal();
        pager.write_partial(id, &torn, PAGE_SIZE / 2).unwrap();

        assert!(pager.read_page(id).unwrap_err().is_corrupt());
    }

    #[test]
    fn write_failures_propagate_as_errors() {
        // A pager opened on a read-only file must fail writes with an
        // io::Error, not panic — failure injection for the write path.
        let path = std::env::temp_dir().join(format!("pager-ro-{}.db", std::process::id()));
        {
            let pager = Pager::create(&path).unwrap();
            let id = pager.allocate();
            pager.write_page(id, &Page::zeroed()).unwrap();
        }
        let mut perms = std::fs::metadata(&path).unwrap().permissions();
        use std::os::unix::fs::PermissionsExt;
        perms.set_mode(0o444);
        std::fs::set_permissions(&path, perms).unwrap();

        // Read-only open still permits reads…
        let file = std::fs::OpenOptions::new().read(true).open(&path).unwrap();
        drop(file);
        if let Ok(pager) = Pager::open(&path) {
            // Some test environments run as root where 0o444 still allows
            // writes; only assert when the OS actually enforces it.
            let err = pager.write_page(PageId(0), &Page::zeroed());
            if err.is_err() {
                assert!(pager.read_page(PageId(0)).is_ok());
            }
        }
        let mut perms = std::fs::metadata(&path).unwrap().permissions();
        perms.set_mode(0o644);
        std::fs::set_permissions(&path, perms).unwrap();
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn open_resumes_high_water_mark() {
        let path = std::env::temp_dir().join(format!("pager-hwm-{}.db", std::process::id()));
        {
            let pager = Pager::create(&path).unwrap();
            for _ in 0..5 {
                let id = pager.allocate();
                pager.write_page(id, &Page::zeroed()).unwrap();
            }
        }
        let pager = Pager::open(&path).unwrap();
        assert_eq!(pager.page_count(), 5);
        assert_eq!(pager.allocate(), PageId(5));
        let _ = std::fs::remove_file(&path);
    }
}
