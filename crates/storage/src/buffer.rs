//! LRU buffer pool over a [`PageStore`]: a read-only page cache.
//!
//! "R-trees … are better in dealing with paging and disk I/O buffering"
//! (§1): this pool is where that claim is measured. Fixed number of
//! frames, strict LRU eviction, and hit/miss counters that the
//! `io_sweep` experiment reads. Nothing writes through the pool: pages
//! reach a store only through
//! [`NodePageWriter`](crate::NodePageWriter), the meta pair, the WAL and
//! the external packer's spill runs.
//!
//! # Replacement
//!
//! The frames sit on one doubly linked **recency list**, threaded
//! through the frame array by index (no allocation per access): a hit
//! moves its frame to the newest end, a miss on a full pool takes the
//! frame at the oldest end. Both are O(1) whatever the pool's size. A
//! miss reads into a spare page buffer first and only then swaps buffers
//! with the victim, so a read that fails leaves every frame as it was,
//! and in steady state no page is allocated.

use crate::error::StorageResult;
use crate::page::{Page, PageId};
use crate::pager::PageStore;
use std::collections::HashMap;
use std::sync::Mutex;

/// Buffer pool counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BufferStats {
    /// Page requests served from memory.
    pub hits: u64,
    /// Page requests that required a disk read.
    pub misses: u64,
    /// Frames evicted to make room.
    pub evictions: u64,
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
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        let frame = self.fault(&mut st, id)?;
        Ok(f(&st.frames[frame].page))
    }

    /// Counter snapshot.
    pub fn stats(&self) -> BufferStats {
        self.state.lock().unwrap_or_else(|e| e.into_inner()).stats
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
                newer: NIL,
                older: NIL,
            });
            st.frames.len() as u32 - 1
        } else {
            // Strict LRU victim; its frame is reused in place.
            let idx = st.oldest;
            st.stats.evictions += 1;
            let PoolState {
                frames, incoming, ..
            } = &mut *st;
            let victim = &mut frames[idx as usize];
            std::mem::swap(&mut victim.page, incoming);
            let old = std::mem::replace(&mut victim.page_id, id);
            st.map.remove(&old);
            st.unlink(idx);
            idx
        };
        st.push_newest(idx);
        st.map.insert(id, idx);
        Ok(idx as usize)
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
        let before = pool.stats();
        pool.with_page(a, |_| ()).unwrap(); // hit
        assert_eq!(pool.stats().hits, before.hits + 1);
        pool.with_page(b, |_| ()).unwrap(); // miss
        assert_eq!(pool.stats().misses, before.misses + 1);
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
            self.log
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .push(Io::Read(id));
            self.inner.read_page(id)
        }
        fn write_page(&self, id: PageId, page: &Page) -> StorageResult<()> {
            self.log
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .push(Io::Write(id));
            self.inner.write_page(id, page)
        }
        fn sync(&self) -> StorageResult<()> {
            Ok(self.inner.sync()?)
        }
    }

    /// The pool written the slow obvious way: frames in a `Vec` (a
    /// victim is replaced where it sits), recency in a `VecDeque` of
    /// frame indices searched linearly.
    struct NaiveLru {
        capacity: usize,
        frames: Vec<PageId>,
        recency: VecDeque<usize>,
        stats: BufferStats,
        log: Vec<Io>,
    }

    impl NaiveLru {
        fn access(&mut self, id: PageId) {
            let frame = if let Some(at) = self.recency.iter().rposition(|&f| self.frames[f] == id) {
                self.stats.hits += 1;
                self.recency.remove(at).unwrap()
            } else {
                self.stats.misses += 1;
                self.log.push(Io::Read(id));
                if self.frames.len() < self.capacity {
                    self.frames.push(id);
                    self.frames.len() - 1
                } else {
                    let victim = self.recency.pop_front().unwrap();
                    self.stats.evictions += 1;
                    self.frames[victim] = id;
                    victim
                }
            };
            self.recency.push_back(frame);
        }

        /// Resident pages, most recently used first.
        fn resident(&self) -> Vec<PageId> {
            self.recency.iter().rev().map(|&f| self.frames[f]).collect()
        }
    }

    /// The pool's resident pages, most recently used first, after
    /// checking that the list, its back links and the map agree.
    fn resident(pool: &BufferPool<'_>) -> Vec<PageId> {
        let st = pool.state.lock().unwrap_or_else(|e| e.into_inner());
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
            out.push(f.page_id);
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
        for capacity in [1usize, 2, 7, 1024] {
            let store = Recording {
                inner: Pager::temp().unwrap(),
                log: Mutex::new(Vec::new()),
            };
            // Three pools' worth of pages, a tenth of them hot; each
            // page holds its own id, written around the log.
            let pages = (capacity * 3 + 2) as u64;
            let hot = (pages / 10).max(2);
            for _ in 0..pages {
                let id = store.allocate();
                let mut page = Page::zeroed();
                page.bytes_mut()[..4].copy_from_slice(&id.0.to_le_bytes());
                store.inner.write_page(id, &page).unwrap();
            }
            let pool = BufferPool::new(&store, capacity);
            let mut model = NaiveLru {
                capacity,
                frames: Vec::new(),
                recency: VecDeque::new(),
                stats: BufferStats::default(),
                log: Vec::new(),
            };
            let mut state = 0x1985_0000 + capacity as u64;
            let mut next = || {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                state >> 33
            };
            for access in 1..=ACCESSES {
                let id = if next() % 4 == 0 {
                    next() % pages
                } else {
                    next() % hot
                };
                let id = PageId(id as u32);
                model.access(id);
                let seen = pool
                    .with_page(id, |p| {
                        u32::from_le_bytes(p.bytes()[..4].try_into().unwrap())
                    })
                    .unwrap();
                assert_eq!(seen, id.0, "capacity {capacity}, access {access}");
                if access.is_multiple_of(10_000) {
                    assert_eq!(resident(&pool), model.resident(), "capacity {capacity}");
                    assert_eq!(pool.stats(), model.stats, "capacity {capacity}");
                }
            }
            let log = store.log.lock().unwrap_or_else(|e| e.into_inner());
            assert_eq!(*log, model.log, "capacity {capacity}: I/O sequence");
            assert!(log.iter().all(|io| matches!(io, Io::Read(_))));
            assert!(model.stats.evictions > 0 && model.stats.hits > 0);
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
        pool.with_page(a, |_| ()).unwrap();
        pool.with_page(b, |_| ()).unwrap();

        let err = pool.with_page(c, |_| ()).unwrap_err();
        assert!(err.is_corrupt(), "{err:?}");
        assert_eq!(resident(&pool), vec![b, a]);
        let s = pool.stats();
        assert_eq!((s.misses, s.evictions), (3, 0));

        // Nothing is mapped to the bytes the failed read left behind.
        assert_eq!(pool.with_page(a, |p| p.bytes()[0]).unwrap(), 0xA1);
        assert_eq!(pool.with_page(b, |p| p.bytes()[0]).unwrap(), 0xB1);
        assert_eq!(pool.with_page(c, |p| p.bytes()[0]).unwrap(), 0xC1);
        assert_eq!(resident(&pool), vec![c, b]);
        assert_eq!(faulty.writes_seen(), 0, "a read-only pool writes nothing");
    }
}
