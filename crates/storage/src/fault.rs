//! Deterministic fault injection for crash testing.
//!
//! [`FaultPager`] wraps a real [`Pager`] and implements [`PageStore`], so
//! the buffer pool, the page-resident tree and the WAL run against it
//! unchanged.
//! A [`FaultScript`] names, by 1-based physical-operation index within
//! each class (writes counted separately from reads), exactly which
//! operations misbehave and how ([`FaultKind`]):
//!
//! * **FailWrite** — the write returns `EIO`; nothing reaches the file.
//! * **TornWrite** — only the first half of the (sealed) page reaches the
//!   file, then `EIO`: the on-disk image now fails its checksum, exactly
//!   what a crash mid-`pwrite` leaves behind.
//! * **ShortRead** — the read returns with its tail half zeroed, as a
//!   truncated file or short `pread` would; checksum verification turns
//!   it into [`StorageError::Corrupt`].
//! * **TransientRead** — the read fails once with `EIO`; a retry (the
//!   next read of any page) proceeds normally.
//!
//! A fault may additionally be marked as a **crash point**: after it
//! fires, every subsequent read, write, and sync fails, simulating the
//! process dying at that instant. The test then reopens the *underlying
//! file* with a fresh [`Pager`] and checks what recovery sees — the
//! `crash_matrix` bench bin scripts exactly that loop over many seeds.
//!
//! Everything is deterministic: the same script against the same
//! workload injects the same faults, so failures reproduce from a seed.

use crate::error::{StorageError, StorageResult};
use crate::page::{Page, PageId, PAGE_SIZE};
use crate::pager::{PageStore, Pager};
use std::io;
use std::sync::Mutex;

/// The kinds of injectable faults.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Write returns `EIO`; the file is untouched.
    FailWrite,
    /// Half the page reaches the file, then `EIO` (torn write).
    TornWrite,
    /// Read returns a page with its tail half zeroed (short read).
    ShortRead,
    /// Read fails once with `EIO`; retries succeed.
    TransientRead,
}

impl FaultKind {
    fn is_write(self) -> bool {
        matches!(self, FaultKind::FailWrite | FaultKind::TornWrite)
    }
}

/// One fault that actually fired, for assertions and logs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InjectedFault {
    /// What happened.
    pub kind: FaultKind,
    /// 1-based operation index within its class (write ops or read ops).
    pub op: u64,
    /// The page the operation targeted.
    pub page: PageId,
}

#[derive(Debug, Clone, Copy)]
struct Scripted {
    op: u64,
    kind: FaultKind,
    crash: bool,
}

/// A deterministic schedule of faults, by per-class operation index.
#[derive(Debug, Clone, Default)]
pub struct FaultScript {
    writes: Vec<Scripted>,
    reads: Vec<Scripted>,
}

impl FaultScript {
    /// An empty script (no faults).
    pub fn new() -> Self {
        FaultScript::default()
    }

    /// Schedules a write-class fault on the `nth` (1-based) physical
    /// write. If `crash` is set, the pager refuses all further I/O after
    /// the fault fires.
    ///
    /// # Panics
    ///
    /// Panics if `kind` is not a write-class fault.
    pub fn on_write(mut self, nth: u64, kind: FaultKind, crash: bool) -> Self {
        assert!(kind.is_write(), "{kind:?} is not a write fault");
        self.writes.push(Scripted {
            op: nth,
            kind,
            crash,
        });
        self
    }

    /// Schedules a read-class fault on the `nth` (1-based) physical read.
    ///
    /// # Panics
    ///
    /// Panics if `kind` is a write-class fault.
    pub fn on_read(mut self, nth: u64, kind: FaultKind, crash: bool) -> Self {
        assert!(!kind.is_write(), "{kind:?} is not a read fault");
        self.reads.push(Scripted {
            op: nth,
            kind,
            crash,
        });
        self
    }
}

struct FaultState {
    script: FaultScript,
    writes_seen: u64,
    reads_seen: u64,
    crashed: bool,
    injected: Vec<InjectedFault>,
}

/// A [`PageStore`] that injects scripted faults into a wrapped [`Pager`].
pub struct FaultPager<'a> {
    inner: &'a Pager,
    state: Mutex<FaultState>,
}

impl<'a> FaultPager<'a> {
    /// Wraps `inner`, injecting the faults `script` names.
    pub fn new(inner: &'a Pager, script: FaultScript) -> Self {
        FaultPager {
            inner,
            state: Mutex::new(FaultState {
                script,
                writes_seen: 0,
                reads_seen: 0,
                crashed: false,
                injected: Vec::new(),
            }),
        }
    }

    /// Faults that actually fired so far, in order.
    pub fn injected(&self) -> Vec<InjectedFault> {
        self.state
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .injected
            .clone()
    }

    /// `true` once a crash-point fault has fired; all subsequent I/O
    /// fails until the file is reopened with a fresh pager.
    pub fn crashed(&self) -> bool {
        self.state.lock().unwrap_or_else(|e| e.into_inner()).crashed
    }

    /// Physical writes observed (including faulted ones).
    pub fn writes_seen(&self) -> u64 {
        self.state
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .writes_seen
    }

    /// Physical reads observed (including faulted ones).
    pub fn reads_seen(&self) -> u64 {
        self.state
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .reads_seen
    }

    fn eio(what: &str) -> StorageError {
        StorageError::Io(io::Error::other(format!("injected {what}")))
    }

    /// Advances the class counter, firing at most one scripted fault.
    fn next_fault(&self, write: bool, page: PageId) -> Option<FaultKind> {
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if st.crashed {
            return Some(FaultKind::FailWrite); // sentinel: everything fails
        }
        let op = if write {
            st.writes_seen += 1;
            st.writes_seen
        } else {
            st.reads_seen += 1;
            st.reads_seen
        };
        let list = if write {
            &st.script.writes
        } else {
            &st.script.reads
        };
        let hit = list.iter().find(|s| s.op == op).copied();
        if let Some(s) = hit {
            st.injected.push(InjectedFault {
                kind: s.kind,
                op,
                page,
            });
            if s.crash {
                st.crashed = true;
            }
            return Some(s.kind);
        }
        None
    }
}

impl PageStore for FaultPager<'_> {
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
        if self.state.lock().unwrap_or_else(|e| e.into_inner()).crashed {
            return Err(Self::eio("post-crash read"));
        }
        match self.next_fault(false, id) {
            None => self.inner.read_page(id),
            Some(FaultKind::TransientRead) => Err(Self::eio("transient read error")),
            Some(FaultKind::ShortRead) => {
                let mut page = self.inner.read_page_raw(id)?;
                page.bytes_mut()[PAGE_SIZE / 2..].fill(0);
                page.verify()
                    .map_err(|reason| StorageError::corrupt(id, format!("short read: {reason}")))?;
                Ok(page)
            }
            Some(_) => Err(Self::eio("post-crash read")),
        }
    }

    fn write_page(&self, id: PageId, page: &Page) -> StorageResult<()> {
        if self.state.lock().unwrap_or_else(|e| e.into_inner()).crashed {
            return Err(Self::eio("post-crash write"));
        }
        match self.next_fault(true, id) {
            None => self.inner.write_page(id, page),
            Some(FaultKind::FailWrite) => Err(Self::eio("write failure")),
            Some(FaultKind::TornWrite) => {
                let mut sealed = page.clone();
                sealed.seal();
                self.inner.write_partial(id, &sealed, PAGE_SIZE / 2)?;
                Err(Self::eio("torn write"))
            }
            Some(_) => Err(Self::eio("post-crash write")),
        }
    }

    fn sync(&self) -> StorageResult<()> {
        if self.state.lock().unwrap_or_else(|e| e.into_inner()).crashed {
            return Err(Self::eio("post-crash sync"));
        }
        self.inner.sync()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_script_is_transparent() {
        let pager = Pager::temp().unwrap();
        let faulty = FaultPager::new(&pager, FaultScript::new());
        let id = faulty.allocate();
        let mut page = Page::zeroed();
        page.bytes_mut()[0] = 11;
        faulty.write_page(id, &page).unwrap();
        assert_eq!(faulty.read_page(id).unwrap().bytes()[0], 11);
        assert!(faulty.injected().is_empty());
        assert!(!faulty.crashed());
    }

    #[test]
    fn nth_write_fails_exactly_once() {
        let pager = Pager::temp().unwrap();
        let script = FaultScript::new().on_write(2, FaultKind::FailWrite, false);
        let faulty = FaultPager::new(&pager, script);
        let a = faulty.allocate();
        let b = faulty.allocate();
        faulty.write_page(a, &Page::zeroed()).unwrap();
        let err = faulty.write_page(b, &Page::zeroed()).unwrap_err();
        assert!(!err.is_corrupt(), "write failures are I/O errors: {err:?}");
        // Retry succeeds (op counter moved past the scripted index).
        faulty.write_page(b, &Page::zeroed()).unwrap();
        assert_eq!(faulty.injected().len(), 1);
        assert_eq!(faulty.injected()[0].page, b);
    }

    #[test]
    fn torn_write_leaves_detectable_corruption() {
        let pager = Pager::temp().unwrap();
        let script = FaultScript::new().on_write(2, FaultKind::TornWrite, false);
        let faulty = FaultPager::new(&pager, script);
        let id = faulty.allocate();
        let mut page = Page::zeroed();
        page.bytes_mut()[100] = 0xAB;
        page.bytes_mut()[PAGE_SIZE - 100] = 0xCD;
        faulty.write_page(id, &page).unwrap(); // intact epoch
        let mut newer = page.clone();
        newer.bytes_mut()[100] = 0xFF;
        assert!(faulty.write_page(id, &newer).is_err()); // torn
                                                         // The page is now half-new, half-old: checksum must not verify.
        let err = pager.read_page(id).unwrap_err();
        assert!(err.is_corrupt(), "{err:?}");
    }

    #[test]
    fn short_read_reports_corrupt() {
        let pager = Pager::temp().unwrap();
        let id = pager.allocate();
        // Data in both halves: the short read keeps the head but loses
        // the tail (and the checksum footer with it), so the surviving
        // half-page cannot be mistaken for a never-written zero page.
        let mut page = Page::zeroed();
        page.bytes_mut()[100] = 0x66;
        page.bytes_mut()[PAGE_SIZE - 20] = 0x77;
        pager.write_page(id, &page).unwrap();

        let script = FaultScript::new().on_read(1, FaultKind::ShortRead, false);
        let faulty = FaultPager::new(&pager, script);
        let err = faulty.read_page(id).unwrap_err();
        assert!(err.is_corrupt(), "{err:?}");
        // Second read is clean.
        assert_eq!(faulty.read_page(id).unwrap().bytes()[PAGE_SIZE - 20], 0x77);
    }

    #[test]
    fn transient_read_recovers_on_retry() {
        let pager = Pager::temp().unwrap();
        let id = pager.allocate();
        pager.write_page(id, &Page::zeroed()).unwrap();
        let script = FaultScript::new().on_read(1, FaultKind::TransientRead, false);
        let faulty = FaultPager::new(&pager, script);
        let err = faulty.read_page(id).unwrap_err();
        assert!(!err.is_corrupt(), "transient errors are I/O: {err:?}");
        faulty.read_page(id).unwrap();
    }

    #[test]
    fn crash_point_kills_all_subsequent_io() {
        let pager = Pager::temp().unwrap();
        let script = FaultScript::new().on_write(1, FaultKind::TornWrite, true);
        let faulty = FaultPager::new(&pager, script);
        let id = faulty.allocate();
        assert!(faulty.write_page(id, &Page::zeroed()).is_err());
        assert!(faulty.crashed());
        assert!(faulty.write_page(id, &Page::zeroed()).is_err());
        assert!(faulty.read_page(id).is_err());
        assert!(faulty.sync().is_err());
        // The underlying file is still usable through a direct pager —
        // that is the "reopen after crash" path.
        let _ = pager.read_page_raw(id).unwrap();
    }
}
