//! LRU buffer pool over a [`PageStore`].
//!
//! "R-trees … are better in dealing with paging and disk I/O buffering"
//! (§1): this pool is where that claim is measured. Fixed number of
//! frames, strict LRU eviction, write-back of dirty frames, and hit/miss
//! counters that the `io_sweep` experiment reads.
//!
//! # Replacement
//!
//! The frames sit on one doubly linked **recency list**, threaded
//! through the frame array by index (no allocation per access): a hit
//! moves its frame to the newest end, a miss on a full pool takes the
//! frame at the oldest end. Both are O(1) whatever the pool's size. A
//! miss reads into a spare page buffer first and only then writes the
//! victim back and swaps buffers with it, so a read that fails leaves
//! every frame as it was, a write-back that fails leaves the victim
//! resident and dirty, and in steady state no page is allocated.
//!
//! # Durability contract
//!
//! Callers that care about their writes must end with an explicit
//! [`close`](BufferPool::close) (or [`flush`](BufferPool::flush)) and
//! handle the error. `Drop` is only a best-effort backstop: it attempts
//! a flush and **logs** failures to stderr — it cannot report them, so
//! relying on it silently trades away write errors.

use crate::error::StorageResult;
use crate::page::{Page, PageId};
use crate::pager::PageStore;
use parking_lot::Mutex;
use std::collections::HashMap;

/// Buffer pool counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BufferStats {
    /// Page requests served from memory.
    pub hits: u64,
    /// Page requests that required a disk read.
    pub misses: u64,
    /// Frames evicted to make room.
    pub evictions: u64,
    /// Dirty frames written back.
    pub writebacks: u64,
}

impl BufferStats {
    /// Hit ratio in `[0, 1]`; 0 for no traffic.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// "No frame": the end of the recency list.
const NIL: u32 = u32::MAX;

struct Frame {
    page_id: PageId,
    page: Page,
    dirty: bool,
    /// Neighbours on the recency list ([`NIL`] at either end).
    newer: u32,
    older: u32,
}

struct PoolState {
    frames: Vec<Frame>,
    map: HashMap<PageId, u32>,
    /// Ends of the recency list ([`NIL`] while the pool is empty).
    newest: u32,
    oldest: u32,
    /// Where a miss lands before it owns a frame.
    incoming: Page,
    stats: BufferStats,
}

impl PoolState {
    /// Takes frame `idx` off the recency list.
    fn unlink(&mut self, idx: u32) {
        let Frame { newer, older, .. } = self.frames[idx as usize];
        match newer {
            NIL => self.newest = older,
            n => self.frames[n as usize].older = older,
        }
        match older {
            NIL => self.oldest = newer,
            o => self.frames[o as usize].newer = newer,
        }
    }

    /// Puts frame `idx` (not on the list) at its newest end.
    fn push_newest(&mut self, idx: u32) {
        let old = std::mem::replace(&mut self.newest, idx);
        let frame = &mut self.frames[idx as usize];
        frame.newer = NIL;
        frame.older = old;
        match old {
            NIL => self.oldest = idx,
            o => self.frames[o as usize].newer = idx,
        }
    }
}

/// A fixed-capacity LRU buffer pool.
pub struct BufferPool<'a> {
    store: &'a dyn PageStore,
    capacity: usize,
    state: Mutex<PoolState>,
}

impl<'a> BufferPool<'a> {
    /// Creates a pool of `capacity` frames over `store`.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(store: &'a dyn PageStore, capacity: usize) -> Self {
        assert!(capacity >= 1, "buffer pool needs at least one frame");
        assert!((capacity as u64) < NIL as u64, "frame indices are 32-bit");
        BufferPool {
            store,
            capacity,
            state: Mutex::new(PoolState {
                frames: Vec::with_capacity(capacity),
                map: HashMap::with_capacity(capacity),
                newest: NIL,
                oldest: NIL,
                incoming: Page::zeroed(),
                stats: BufferStats::default(),
            }),
        }
    }

    /// Runs `f` with read access to the page, faulting it in if needed.
    pub fn with_page<T>(&self, id: PageId, f: impl FnOnce(&Page) -> T) -> StorageResult<T> {
        let mut st = self.state.lock();
        let frame = self.fault(&mut st, id)?;
        Ok(f(&st.frames[frame].page))
    }

    /// Runs `f` with write access to the page, marking the frame dirty.
    pub fn with_page_mut<T>(&self, id: PageId, f: impl FnOnce(&mut Page) -> T) -> StorageResult<T> {
        let mut st = self.state.lock();
        let frame = self.fault(&mut st, id)?;
        st.frames[frame].dirty = true;
        Ok(f(&mut st.frames[frame].page))
    }

    /// Writes all dirty frames back to the store.
    ///
    /// On error, frames successfully written so far are marked clean; the
    /// failing frame stays dirty, so a later retry (or `close`) writes it
    /// again.
    pub fn flush(&self) -> StorageResult<()> {
        let mut st = self.state.lock();
        for frame in st.frames.iter_mut() {
            if frame.dirty {
                self.store.write_page(frame.page_id, &frame.page)?;
                frame.dirty = false;
            }
        }
        Ok(())
    }

    /// Flushes all dirty frames and consumes the pool, reporting any
    /// write failure. This is the durability-correct way to finish with
    /// a pool; dropping one without closing leaves only the best-effort
    /// backstop.
    pub fn close(self) -> StorageResult<()> {
        self.flush()
        // Drop then finds no dirty frames and is a no-op.
    }

    /// `true` if any frame holds unwritten changes.
    pub fn has_dirty_frames(&self) -> bool {
        self.state.lock().frames.iter().any(|f| f.dirty)
    }

    /// The underlying page store.
    pub fn store(&self) -> &'a dyn PageStore {
        self.store
    }

    /// Counter snapshot.
    pub fn stats(&self) -> BufferStats {
        self.state.lock().stats
    }

    /// Resets counters (not contents).
    pub fn reset_stats(&self) {
        self.state.lock().stats = BufferStats::default();
    }

    /// Drops every cached frame (writing back dirty ones), so the next
    /// accesses all miss — used between experiment phases for cold-cache
    /// measurements.
    pub fn clear(&self) -> StorageResult<()> {
        self.flush()?;
        let mut st = self.state.lock();
        st.frames.clear();
        st.map.clear();
        (st.newest, st.oldest) = (NIL, NIL);
        Ok(())
    }

    /// Ensures `id` is resident, makes it the most recently used page
    /// and returns its frame index.
    fn fault(&self, st: &mut PoolState, id: PageId) -> StorageResult<usize> {
        if let Some(&idx) = st.map.get(&id) {
            st.stats.hits += 1;
            if st.newest != idx {
                st.unlink(idx);
                st.push_newest(idx);
            }
            return Ok(idx as usize);
        }
        st.stats.misses += 1;
        self.store.read_page_into(id, &mut st.incoming)?;
        let idx = if st.frames.len() < self.capacity {
            // The page moves into a new frame; a fresh spare takes its
            // place (the pool allocates `capacity + 1` pages in all).
            let page = std::mem::take(&mut st.incoming);
            st.frames.push(Frame {
                page_id: id,
                page,
                dirty: false,
                newer: NIL,
                older: NIL,
            });
            st.frames.len() as u32 - 1
        } else {
            // Strict LRU victim; its frame is reused in place.
            let idx = st.oldest;
            st.stats.evictions += 1;
            let PoolState {
                frames,
                incoming,
                stats,
                ..
            } = &mut *st;
            let victim = &mut frames[idx as usize];
            if victim.dirty {
                self.store.write_page(victim.page_id, &victim.page)?;
                stats.writebacks += 1;
            }
            std::mem::swap(&mut victim.page, incoming);
            let old = std::mem::replace(&mut victim.page_id, id);
            victim.dirty = false;
            st.map.remove(&old);
            st.unlink(idx);
            idx
        };
        st.push_newest(idx);
        st.map.insert(id, idx);
        Ok(idx as usize)
    }
}

impl Drop for BufferPool<'_> {
    /// Best-effort backstop only: attempts a flush and logs failures.
    /// Use [`close`](BufferPool::close) to actually observe write errors.
    fn drop(&mut self) {
        if let Err(e) = self.flush() {
            eprintln!("warning: BufferPool dropped with unflushed dirty frames: {e}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pager::Pager;

    #[test]
    fn hit_after_first_access() {
        let pager = Pager::temp().unwrap();
        let id = pager.allocate();
        let pool = BufferPool::new(&pager, 4);
        pool.with_page(id, |_| ()).unwrap();
        pool.with_page(id, |_| ()).unwrap();
        let s = pool.stats();
        assert_eq!(s.misses, 1);
        assert_eq!(s.hits, 1);
        assert_eq!(s.hit_ratio(), 0.5);
    }

    #[test]
    fn writes_survive_eviction() {
        let pager = Pager::temp().unwrap();
        let ids: Vec<PageId> = (0..8).map(|_| pager.allocate()).collect();
        let pool = BufferPool::new(&pager, 2);
        for (i, &id) in ids.iter().enumerate() {
            pool.with_page_mut(id, |p| p.bytes_mut()[0] = i as u8 + 1)
                .unwrap();
        }
        // Re-read everything; early pages were evicted and written back.
        for (i, &id) in ids.iter().enumerate() {
            let v = pool.with_page(id, |p| p.bytes()[0]).unwrap();
            assert_eq!(v, i as u8 + 1);
        }
        let s = pool.stats();
        assert!(s.evictions > 0);
        assert!(s.writebacks > 0);
    }

    #[test]
    fn dirty_eviction_survives_cold_reopen() {
        // Fill a 2-frame pool, dirty a page, force its eviction purely by
        // pool pressure, then reopen the file cold: the evicted dirty
        // frame must have been written back at eviction time — the
        // durability path in `fault()`.
        let path = std::env::temp_dir().join(format!(
            "pool-evict-durability-{}-{:?}.db",
            std::process::id(),
            std::thread::current().id()
        ));
        {
            let pager = Pager::create(&path).unwrap();
            let a = pager.allocate();
            let b = pager.allocate();
            let c = pager.allocate();
            let pool = BufferPool::new(&pager, 2);
            pool.with_page_mut(a, |p| p.bytes_mut()[7] = 0xA7).unwrap();
            // Pressure: b fills the second frame, c evicts a (LRU).
            pool.with_page(b, |_| ()).unwrap();
            pool.with_page(c, |_| ()).unwrap();
            let s = pool.stats();
            assert_eq!(s.evictions, 1, "a must have been evicted");
            assert_eq!(s.writebacks, 1, "the evicted dirty frame was written");
            // Deliberately neither flush nor close: no dirty frames are
            // left (asserted above via `writebacks`), so the write-back
            // at eviction alone must have persisted the page.
            assert!(!pool.has_dirty_frames());
        }
        {
            let pager = Pager::open(&path).unwrap();
            let page = pager.read_page(PageId(0)).unwrap();
            assert_eq!(page.bytes()[7], 0xA7, "evicted dirty page lost");
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let pager = Pager::temp().unwrap();
        let a = pager.allocate();
        let b = pager.allocate();
        let c = pager.allocate();
        let pool = BufferPool::new(&pager, 2);
        pool.with_page(a, |_| ()).unwrap(); // a
        pool.with_page(b, |_| ()).unwrap(); // a b
        pool.with_page(a, |_| ()).unwrap(); // b a (a recent)
        pool.with_page(c, |_| ()).unwrap(); // evicts b
        pool.reset_stats();
        pool.with_page(a, |_| ()).unwrap(); // hit
        assert_eq!(pool.stats().hits, 1);
        pool.with_page(b, |_| ()).unwrap(); // miss
        assert_eq!(pool.stats().misses, 1);
    }

    #[test]
    fn flush_persists_dirty_pages() {
        let pager = Pager::temp().unwrap();
        let id = pager.allocate();
        {
            let pool = BufferPool::new(&pager, 2);
            pool.with_page_mut(id, |p| p.bytes_mut()[5] = 42).unwrap();
            pool.flush().unwrap();
        }
        assert_eq!(pager.read_page(id).unwrap().bytes()[5], 42);
    }

    #[test]
    fn close_reports_success() {
        let pager = Pager::temp().unwrap();
        let id = pager.allocate();
        let pool = BufferPool::new(&pager, 2);
        pool.with_page_mut(id, |p| p.bytes_mut()[5] = 42).unwrap();
        pool.close().unwrap();
        assert_eq!(pager.read_page(id).unwrap().bytes()[5], 42);
    }

    #[test]
    fn flush_failure_is_reported_and_retryable() {
        // Regression: BufferPool used to swallow flush errors in Drop
        // (`let _ = self.flush()`). With an injected write failure, the
        // explicit flush/close path must surface the error, keep the
        // frame dirty, and let a retry complete the write.
        use crate::fault::{FaultKind, FaultPager, FaultScript};
        let pager = Pager::temp().unwrap();
        let script = FaultScript::new().on_write(1, FaultKind::FailWrite, false);
        let faulty = FaultPager::new(&pager, script);
        let id = faulty.allocate();
        let pool = BufferPool::new(&faulty, 2);
        pool.with_page_mut(id, |p| p.bytes_mut()[0] = 9).unwrap();
        assert!(pool.flush().is_err(), "flush must report the write failure");
        assert!(pool.has_dirty_frames(), "failed frame must stay dirty");
        // The fault was one-shot: the retry inside close() succeeds.
        pool.close().unwrap();
        assert_eq!(pager.read_page(id).unwrap().bytes()[0], 9);
    }

    #[test]
    fn close_reports_persistent_write_failure() {
        use crate::fault::{FaultKind, FaultPager, FaultScript};
        let pager = Pager::temp().unwrap();
        // crash=true: every write after the first failure also fails, so
        // not even the Drop backstop can save the page — close() is the
        // only place the caller learns about the loss.
        let script = FaultScript::new().on_write(1, FaultKind::FailWrite, true);
        let faulty = FaultPager::new(&pager, script);
        let id = faulty.allocate();
        let pool = BufferPool::new(&faulty, 2);
        pool.with_page_mut(id, |p| p.bytes_mut()[0] = 9).unwrap();
        assert!(pool.close().is_err(), "close must surface the flush error");
        assert_eq!(
            pager.read_page(id).unwrap().bytes()[0],
            0,
            "nothing reached the file"
        );
    }

    #[test]
    fn clear_forces_cold_cache() {
        let pager = Pager::temp().unwrap();
        let id = pager.allocate();
        let pool = BufferPool::new(&pager, 2);
        pool.with_page(id, |_| ()).unwrap();
        pool.clear().unwrap();
        pool.reset_stats();
        pool.with_page(id, |_| ()).unwrap();
        assert_eq!(pool.stats().misses, 1);
    }

    #[test]
    #[should_panic(expected = "at least one frame")]
    fn zero_capacity_rejected() {
        let pager = Pager::temp().unwrap();
        let _ = BufferPool::new(&pager, 0);
    }

    // ------------------------------------------------------------------
    // Replacement: the recency list against a naive LRU
    // ------------------------------------------------------------------

    use std::collections::VecDeque;

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Io {
        Read(PageId),
        Write(PageId),
    }

    /// A pager that logs every physical read and write it is asked for.
    struct Recording {
        inner: Pager,
        log: Mutex<Vec<Io>>,
    }

    impl PageStore for Recording {
        fn allocate(&self) -> PageId {
            self.inner.allocate()
        }
        fn free(&self, id: PageId) {
            self.inner.free(id)
        }
        fn page_count(&self) -> u32 {
            self.inner.page_count()
        }
        fn read_page(&self, id: PageId) -> StorageResult<Page> {
            self.log.lock().push(Io::Read(id));
            self.inner.read_page(id)
        }
        fn write_page(&self, id: PageId, page: &Page) -> StorageResult<()> {
            self.log.lock().push(Io::Write(id));
            self.inner.write_page(id, page)
        }
        fn sync(&self) -> StorageResult<()> {
            Ok(self.inner.sync()?)
        }
    }

    /// The pool as the tick-scan implementation behaved, written the
    /// slow obvious way: frames in a `Vec` (a victim is replaced where
    /// it sits, `flush` walks them in index order), recency in a
    /// `VecDeque` of frame indices searched linearly.
    struct NaiveLru {
        capacity: usize,
        frames: Vec<(PageId, bool)>,
        recency: VecDeque<usize>,
        stats: BufferStats,
        log: Vec<Io>,
    }

    impl NaiveLru {
        fn access(&mut self, id: PageId, write: bool) {
            let frame = if let Some(at) = self.recency.iter().rposition(|&f| self.frames[f].0 == id)
            {
                self.stats.hits += 1;
                self.recency.remove(at).unwrap()
            } else {
                self.stats.misses += 1;
                self.log.push(Io::Read(id));
                if self.frames.len() < self.capacity {
                    self.frames.push((id, false));
                    self.frames.len() - 1
                } else {
                    let victim = self.recency.pop_front().unwrap();
                    self.stats.evictions += 1;
                    if self.frames[victim].1 {
                        self.log.push(Io::Write(self.frames[victim].0));
                        self.stats.writebacks += 1;
                    }
                    self.frames[victim] = (id, false);
                    victim
                }
            };
            self.frames[frame].1 |= write;
            self.recency.push_back(frame);
        }

        fn clear(&mut self) {
            for (id, dirty) in self.frames.drain(..) {
                if dirty {
                    self.log.push(Io::Write(id));
                }
            }
            self.recency.clear();
        }

        /// Resident pages, most recently used first, with dirtiness.
        fn resident(&self) -> Vec<(PageId, bool)> {
            self.recency.iter().rev().map(|&f| self.frames[f]).collect()
        }
    }

    /// The pool's resident pages, most recently used first, after
    /// checking that the list, its back links and the map agree.
    fn resident(pool: &BufferPool<'_>) -> Vec<(PageId, bool)> {
        let st = pool.state.lock();
        let mut out = Vec::new();
        let (mut at, mut newer) = (st.newest, NIL);
        while at != NIL {
            let f = &st.frames[at as usize];
            assert_eq!(f.newer, newer, "back link of frame {at}");
            assert_eq!(
                st.map.get(&f.page_id),
                Some(&at),
                "map entry of {}",
                f.page_id
            );
            out.push((f.page_id, f.dirty));
            (newer, at) = (at, f.older);
        }
        assert_eq!(st.oldest, newer, "oldest end");
        assert_eq!(out.len(), st.frames.len(), "every frame is on the list");
        assert_eq!(out.len(), st.map.len(), "one map entry per frame");
        out
    }

    #[test]
    fn replacement_matches_a_naive_lru_access_for_access() {
        const ACCESSES: u32 = 100_000;
        const CLEAR_AT: u32 = ACCESSES / 3;
        for capacity in [1usize, 2, 7, 1024] {
            let store = Recording {
                inner: Pager::temp().unwrap(),
                log: Mutex::new(Vec::new()),
            };
            // Three pools' worth of pages, a tenth of them hot.
            let pages = (capacity * 3 + 2) as u64;
            let hot = (pages / 10).max(2);
            for _ in 0..pages {
                store.allocate();
            }
            let pool = BufferPool::new(&store, capacity);
            let mut model = NaiveLru {
                capacity,
                frames: Vec::new(),
                recency: VecDeque::new(),
                stats: BufferStats::default(),
                log: Vec::new(),
            };
            // What each page holds: the number of the access that last
            // wrote it (0: never written).
            let mut holds = vec![0u32; pages as usize];
            let mut state = 0x1985_0000 + capacity as u64;
            let mut next = || {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                state >> 33
            };
            for access in 1..=ACCESSES {
                let r = next();
                let id = if r % 4 == 0 {
                    next() % pages
                } else {
                    next() % hot
                };
                let id = PageId(id as u32);
                let write = r % 3 == 0;
                model.access(id, write);
                let seen = if write {
                    pool.with_page_mut(id, |p| {
                        let b = &mut p.bytes_mut()[..4];
                        let before = u32::from_le_bytes((&*b).try_into().unwrap());
                        b.copy_from_slice(&access.to_le_bytes());
                        before
                    })
                } else {
                    pool.with_page(id, |p| {
                        u32::from_le_bytes(p.bytes()[..4].try_into().unwrap())
                    })
                }
                .unwrap();
                assert_eq!(
                    seen, holds[id.0 as usize],
                    "capacity {capacity}, access {access}"
                );
                if write {
                    holds[id.0 as usize] = access;
                }
                if access.is_multiple_of(10_000) || access == CLEAR_AT {
                    assert_eq!(resident(&pool), model.resident(), "capacity {capacity}");
                    assert_eq!(pool.stats(), model.stats, "capacity {capacity}");
                }
                if access == CLEAR_AT {
                    pool.clear().unwrap();
                    model.clear();
                    assert!(resident(&pool).is_empty());
                }
            }
            assert_eq!(
                *store.log.lock(),
                model.log,
                "capacity {capacity}: I/O sequence"
            );
            assert!(
                model.stats.evictions > 0 && model.stats.writebacks > 0 && model.stats.hits > 0
            );
        }
    }

    // ------------------------------------------------------------------
    // Faults on the miss path
    // ------------------------------------------------------------------

    /// Pages `a`, `b`, `c` holding 0xA1, 0xB1, 0xC1 on disk.
    fn three_pages(pager: &Pager) -> [PageId; 3] {
        [0xA1u8, 0xB1, 0xC1].map(|byte| {
            let id = pager.allocate();
            let mut page = Page::zeroed();
            page.bytes_mut()[0] = byte;
            pager.write_page(id, &page).unwrap();
            id
        })
    }

    #[test]
    fn failed_victim_writeback_leaves_the_victim_resident_and_dirty() {
        use crate::fault::{FaultKind, FaultPager, FaultScript};
        let pager = Pager::temp().unwrap();
        let [a, b, c] = three_pages(&pager);
        let faulty = FaultPager::new(
            &pager,
            FaultScript::new().on_write(1, FaultKind::FailWrite, false),
        );
        let pool = BufferPool::new(&faulty, 2);
        pool.with_page_mut(a, |p| p.bytes_mut()[0] = 0xA2).unwrap();
        pool.with_page(b, |_| ()).unwrap();

        // `c` misses, `a` is the victim, its write-back fails.
        assert!(pool.with_page(c, |_| ()).is_err());
        assert_eq!(resident(&pool), vec![(b, false), (a, true)]);
        let s = pool.stats();
        assert_eq!((s.misses, s.evictions, s.writebacks), (3, 1, 0));
        assert_eq!(
            pager.read_page(a).unwrap().bytes()[0],
            0xA1,
            "nothing written"
        );

        // The frames still hold what they are mapped to: both hit.
        assert_eq!(pool.with_page(b, |p| p.bytes()[0]).unwrap(), 0xB1);
        assert_eq!(pool.with_page(a, |p| p.bytes()[0]).unwrap(), 0xA2);
        assert_eq!(pool.stats().hits, 2);

        // The fault was one-shot: the retry evicts `b` (now the older),
        // and `a`'s change reaches the file when its turn comes.
        assert_eq!(pool.with_page(c, |p| p.bytes()[0]).unwrap(), 0xC1);
        assert_eq!(resident(&pool), vec![(c, false), (a, true)]);
        pool.close().unwrap();
        assert_eq!(pager.read_page(a).unwrap().bytes()[0], 0xA2);
    }

    #[test]
    fn failed_read_leaves_every_frame_as_it_was() {
        use crate::fault::{FaultKind, FaultPager, FaultScript};
        let pager = Pager::temp().unwrap();
        let [a, b, c] = three_pages(&pager);
        // Reads 1 and 2 fill the pool; read 3 (of `c`) comes back with
        // its tail zeroed and fails its checksum.
        let faulty = FaultPager::new(
            &pager,
            FaultScript::new().on_read(3, FaultKind::ShortRead, false),
        );
        let pool = BufferPool::new(&faulty, 2);
        pool.with_page_mut(a, |p| p.bytes_mut()[0] = 0xA2).unwrap();
        pool.with_page(b, |_| ()).unwrap();

        let err = pool.with_page(c, |_| ()).unwrap_err();
        assert!(err.is_corrupt(), "{err:?}");
        assert_eq!(resident(&pool), vec![(b, false), (a, true)]);
        let s = pool.stats();
        assert_eq!((s.misses, s.evictions, s.writebacks), (3, 0, 0));
        assert_eq!(
            faulty.writes_seen(),
            0,
            "no write-back for a read that failed"
        );

        // Nothing is mapped to the bytes the failed read left behind.
        assert_eq!(pool.with_page(a, |p| p.bytes()[0]).unwrap(), 0xA2);
        assert_eq!(pool.with_page(b, |p| p.bytes()[0]).unwrap(), 0xB1);
        assert_eq!(pool.with_page(c, |p| p.bytes()[0]).unwrap(), 0xC1);
        assert_eq!(resident(&pool), vec![(c, false), (b, false)]);
        assert_eq!(
            pager.read_page(a).unwrap().bytes()[0],
            0xA2,
            "a was written back"
        );
    }
}
