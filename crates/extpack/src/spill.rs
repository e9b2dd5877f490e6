//! Spill runs: the on-disk format of externally sorted record runs.
//!
//! A run is a sequence of [`SpillRecord`]s in pack-key order, stored in
//! CRC-framed [`PageType::Spill`] pages through the ordinary
//! [`PageStore`] write path (checksums stamped on write, verified on
//! read, so a torn spill write surfaces as typed corruption):
//!
//! ```text
//! offset 0   u32  record count in this page
//! offset 4   [u8; 4] reserved (zero)
//! offset 8   records, 48 bytes each:
//!            f64 min_x, f64 min_y, f64 max_x, f64 max_y   (the rect)
//!            u64 child                                    (item / page)
//!            u64 seq                                      (arrival order)
//! ```
//!
//! `seq` is the record's index in the level's arrival order. It makes
//! the merge comparator a total order that matches the in-memory
//! packer's sort exactly (ascending center-x, ties by center-y, then by
//! input index) — the keystone of bit-identity.

use rtree_geom::Rect;
use rtree_storage::{Page, PageId, PageStore, PageType, StorageError, StorageResult, PAYLOAD_SIZE};
use std::cmp::Ordering;

/// Bytes per spill record: rect (4 × f64) + child (u64) + seq (u64).
pub const RECORD_SIZE: usize = 48;

/// Bytes of spill-page header (count + reserved).
pub const SPILL_HEADER_SIZE: usize = 8;

/// Records per spill page (85 with 4 KiB pages).
pub const RECORDS_PER_PAGE: usize = (PAYLOAD_SIZE - SPILL_HEADER_SIZE) / RECORD_SIZE;

/// One record of a spill run: an entry awaiting packing. At level 0 the
/// rect is an item's MBR and `child` its [`ItemId`](rtree_index::ItemId);
/// at upper levels the rect is a group MBR and `child` the group's node
/// page.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpillRecord {
    /// The entry's bounding rectangle.
    pub rect: Rect,
    /// Item id (level 0) or child node page (levels ≥ 1).
    pub child: u64,
    /// Index in the level's arrival order (the sort tiebreaker).
    pub seq: u64,
}

impl SpillRecord {
    /// The record's pack sort key.
    pub fn key(&self) -> SortKey {
        let c = self.rect.center();
        SortKey {
            x: c.x,
            y: c.y,
            seq: self.seq,
        }
    }

    fn encode(&self, out: &mut [u8]) {
        out[0..8].copy_from_slice(&self.rect.min_x.to_le_bytes());
        out[8..16].copy_from_slice(&self.rect.min_y.to_le_bytes());
        out[16..24].copy_from_slice(&self.rect.max_x.to_le_bytes());
        out[24..32].copy_from_slice(&self.rect.max_y.to_le_bytes());
        out[32..40].copy_from_slice(&self.child.to_le_bytes());
        out[40..48].copy_from_slice(&self.seq.to_le_bytes());
    }

    fn decode(b: &[u8]) -> SpillRecord {
        let f = |o: usize| f64::from_le_bytes(b[o..o + 8].try_into().expect("8 bytes"));
        SpillRecord {
            rect: Rect::new(f(0), f(8), f(16), f(24)),
            child: u64::from_le_bytes(b[32..40].try_into().expect("8 bytes")),
            seq: u64::from_le_bytes(b[40..48].try_into().expect("8 bytes")),
        }
    }
}

/// The pack sort key: ascending center-x, ties by center-y, then by
/// arrival index — exactly the comparator of
/// [`packed_rtree_core::grouping::order`], where the final tiebreaker is
/// the index into the level's input (which is what `seq` records).
///
/// Within one tree level `seq` is unique, so the key is globally unique
/// and the merged order of a level's runs cannot depend on where the
/// run boundaries fell.
#[derive(Debug, Clone, Copy)]
pub struct SortKey {
    x: f64,
    y: f64,
    seq: u64,
}

impl PartialEq for SortKey {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for SortKey {}

impl PartialOrd for SortKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for SortKey {
    fn cmp(&self, other: &Self) -> Ordering {
        self.x
            .total_cmp(&other.x)
            .then(self.y.total_cmp(&other.y))
            .then(self.seq.cmp(&other.seq))
    }
}

/// A completed spill run: which pages hold it and how many records.
#[derive(Debug, Clone)]
pub struct Run {
    /// The run's pages, in record order (not necessarily contiguous —
    /// the spill store recycles pages freed by merged-away runs). Every
    /// page except the last holds exactly [`RECORDS_PER_PAGE`] records.
    pub pages: Vec<PageId>,
    /// Total records in the run.
    pub records: u64,
}

/// Streams records into a new spill run, one page buffer at a time.
pub struct RunWriter<'a> {
    store: &'a dyn PageStore,
    page: Page,
    in_page: usize,
    pages: Vec<PageId>,
    records: u64,
}

impl<'a> RunWriter<'a> {
    /// Starts a new run in `store`.
    pub fn new(store: &'a dyn PageStore) -> RunWriter<'a> {
        RunWriter {
            store,
            page: Page::zeroed(),
            in_page: 0,
            pages: Vec::new(),
            records: 0,
        }
    }

    /// Appends one record (records must arrive in run order).
    pub fn push(&mut self, rec: &SpillRecord) -> StorageResult<()> {
        let at = SPILL_HEADER_SIZE + self.in_page * RECORD_SIZE;
        rec.encode(&mut self.page.bytes_mut()[at..at + RECORD_SIZE]);
        self.in_page += 1;
        self.records += 1;
        if self.in_page == RECORDS_PER_PAGE {
            self.flush()?;
        }
        Ok(())
    }

    fn flush(&mut self) -> StorageResult<()> {
        if self.in_page == 0 {
            return Ok(());
        }
        self.page.bytes_mut()[0..4].copy_from_slice(&(self.in_page as u32).to_le_bytes());
        self.page.set_type(PageType::Spill);
        let id = self.store.allocate();
        self.store.write_page(id, &self.page)?;
        self.pages.push(id);
        self.page = Page::zeroed();
        self.in_page = 0;
        Ok(())
    }

    /// Flushes the tail page and returns the completed run.
    pub fn finish(mut self) -> StorageResult<Run> {
        self.flush()?;
        Ok(Run {
            pages: self.pages,
            records: self.records,
        })
    }
}

/// Streams a run's records back, holding one decoded page at a time
/// (the "merge head": ~one page of resident memory per open run). The
/// decode buffer is reused across pages, so steady-state reading is
/// allocation-free.
pub struct RunReader<'a> {
    store: &'a dyn PageStore,
    run: Run,
    next_page: usize,
    buf: Vec<SpillRecord>,
    buf_pos: usize,
    remaining: u64,
}

impl<'a> RunReader<'a> {
    /// Opens `run` for sequential reading from its first record.
    pub fn open(store: &'a dyn PageStore, run: Run) -> RunReader<'a> {
        let remaining = run.records;
        RunReader {
            store,
            run,
            next_page: 0,
            buf: Vec::new(),
            buf_pos: 0,
            remaining,
        }
    }

    /// The next record, or `None` at end of run.
    pub fn next_record(&mut self) -> StorageResult<Option<SpillRecord>> {
        if self.remaining == 0 {
            return Ok(None);
        }
        if self.buf_pos == self.buf.len() {
            self.load_page()?;
        }
        let rec = self.buf[self.buf_pos];
        self.buf_pos += 1;
        self.remaining -= 1;
        Ok(Some(rec))
    }

    fn load_page(&mut self) -> StorageResult<()> {
        let Some(&id) = self.run.pages.get(self.next_page) else {
            return Err(StorageError::corrupt(
                *self.run.pages.last().unwrap_or(&PageId(0)),
                format!("spill run ended with {} records missing", self.remaining),
            ));
        };
        self.next_page += 1;
        let page = self.store.read_page(id)?;
        decode_spill_page(&page, &mut self.buf)
            .map_err(|reason| StorageError::corrupt(id, reason))?;
        self.buf_pos = 0;
        Ok(())
    }

    /// Consumes the reader, returning the run (so its pages can be freed
    /// once a merge is done with them).
    pub fn into_run(self) -> Run {
        self.run
    }
}

/// Decodes one spill page into `out` (cleared first), validating tag and
/// count bounds.
fn decode_spill_page(page: &Page, out: &mut Vec<SpillRecord>) -> Result<(), String> {
    if page.tag() != PageType::Spill as u8 {
        return Err(format!("expected spill page, found tag {}", page.tag()));
    }
    let bytes = page.bytes();
    let count = u32::from_le_bytes(bytes[0..4].try_into().expect("4 bytes")) as usize;
    if count == 0 || count > RECORDS_PER_PAGE {
        return Err(format!(
            "spill record count {count} outside 1..={RECORDS_PER_PAGE}"
        ));
    }
    out.clear();
    out.extend((0..count).map(|i| {
        let at = SPILL_HEADER_SIZE + i * RECORD_SIZE;
        SpillRecord::decode(&bytes[at..at + RECORD_SIZE])
    }));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtree_geom::Point;
    use rtree_storage::Pager;

    fn rec(i: u64) -> SpillRecord {
        SpillRecord {
            rect: Rect::from_point(Point::new(i as f64 * 1.5, -(i as f64))),
            child: 1000 + i,
            seq: i,
        }
    }

    #[test]
    fn capacity_fills_the_page() {
        assert_eq!(RECORDS_PER_PAGE, 85);
        const { assert!(SPILL_HEADER_SIZE + RECORDS_PER_PAGE * RECORD_SIZE <= PAYLOAD_SIZE) }
    }

    #[test]
    fn roundtrip_multi_page_run() {
        let pager = Pager::temp().unwrap();
        let mut w = RunWriter::new(&pager);
        let n = RECORDS_PER_PAGE as u64 * 2 + 7; // 2 full pages + a tail
        for i in 0..n {
            w.push(&rec(i)).unwrap();
        }
        let run = w.finish().unwrap();
        assert_eq!(run.records, n);
        assert_eq!(run.pages.len(), 3);

        let mut r = RunReader::open(&pager, run);
        for i in 0..n {
            assert_eq!(r.next_record().unwrap(), Some(rec(i)), "record {i}");
        }
        assert_eq!(r.next_record().unwrap(), None);
    }

    #[test]
    fn empty_run_roundtrips() {
        let pager = Pager::temp().unwrap();
        let run = RunWriter::new(&pager).finish().unwrap();
        assert_eq!(run.records, 0);
        assert!(run.pages.is_empty());
        let mut r = RunReader::open(&pager, run);
        assert_eq!(r.next_record().unwrap(), None);
    }

    #[test]
    fn corrupt_spill_page_detected() {
        let pager = Pager::temp().unwrap();
        let mut w = RunWriter::new(&pager);
        for i in 0..10 {
            w.push(&rec(i)).unwrap();
        }
        let run = w.finish().unwrap();
        // Flip a byte behind the checksum's back.
        let id = run.pages[0];
        let mut raw = pager.read_page_raw(id).unwrap();
        raw.bytes_mut()[20] ^= 0xFF;
        pager.write_page_raw(id, &raw).unwrap();
        let mut r = RunReader::open(&pager, run);
        assert!(r.next_record().unwrap_err().is_corrupt());
    }

    #[test]
    fn wrong_tag_rejected() {
        let pager = Pager::temp().unwrap();
        let mut w = RunWriter::new(&pager);
        w.push(&rec(0)).unwrap();
        let run = w.finish().unwrap();
        let id = run.pages[0];
        let mut page = pager.read_page(id).unwrap();
        page.set_type(PageType::Node);
        pager.write_page(id, &page).unwrap();
        let mut r = RunReader::open(&pager, run);
        let err = r.next_record().unwrap_err();
        assert!(err.is_corrupt(), "{err:?}");
    }

    #[test]
    fn sort_key_matches_pack_comparator() {
        // Distinct centers order by x, then y; identical centers by seq.
        let a = SpillRecord {
            rect: Rect::new(0.0, 0.0, 2.0, 2.0),
            child: 0,
            seq: 5,
        };
        let b = SpillRecord {
            rect: Rect::new(1.0, 0.0, 3.0, 2.0),
            child: 0,
            seq: 1,
        };
        assert!(a.key() < b.key());
        let c = SpillRecord { seq: 6, ..a };
        assert!(a.key() < c.key());
        assert_eq!(a.key().cmp(&a.key()), Ordering::Equal);
    }
}
