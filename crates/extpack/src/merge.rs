//! K-way merge of spill runs in pack-key order.
//!
//! [`MergeCursor`] is a pull-based heap merge over any number of open
//! runs; the driver pumps it record by record straight into page
//! emission — no intermediate sorted copy is ever materialized. When the
//! number of runs exceeds what the memory budget allows to be open at
//! once, [`reduce_runs`] first merges **rounds of consecutive
//! fixed-size chunks** into longer runs — the classic multi-pass
//! external merge, with chunk boundaries a pure function of the queue
//! order and the fan-in.

use crate::budget::BudgetAccountant;
use crate::spill::{Run, RunReader, RunWriter, SortKey, SpillRecord};
use rtree_storage::{PageStore, StorageResult, PAGE_SIZE};
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

/// Accounted bytes per open merge head: one resident spill page plus the
/// reader's cursor bookkeeping.
pub const MERGE_HEAD_BYTES: u64 = PAGE_SIZE as u64 + 64;

/// One heap entry: the head record of run `src`.
struct HeapItem {
    key: SortKey,
    src: usize,
    rec: SpillRecord,
}

impl PartialEq for HeapItem {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for HeapItem {}

impl PartialOrd for HeapItem {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for HeapItem {
    fn cmp(&self, other: &Self) -> Ordering {
        // `src` tiebreak keeps the pop order deterministic; equal keys
        // cannot happen across runs (seq is unique per level) but the
        // heap should not rely on that.
        self.key.cmp(&other.key).then(self.src.cmp(&other.src))
    }
}

/// Pull-based k-way merge over a set of spill runs.
pub struct MergeCursor<'a> {
    readers: Vec<RunReader<'a>>,
    heap: BinaryHeap<Reverse<HeapItem>>,
}

impl<'a> MergeCursor<'a> {
    /// Opens every run and primes the heap with each run's head record.
    pub fn open(store: &'a dyn PageStore, runs: Vec<Run>) -> StorageResult<MergeCursor<'a>> {
        let mut readers: Vec<RunReader<'a>> = runs
            .into_iter()
            .map(|r| RunReader::open(store, r))
            .collect();
        let mut heap = BinaryHeap::with_capacity(readers.len());
        for (src, reader) in readers.iter_mut().enumerate() {
            if let Some(rec) = reader.next_record()? {
                heap.push(Reverse(HeapItem {
                    key: rec.key(),
                    src,
                    rec,
                }));
            }
        }
        Ok(MergeCursor { readers, heap })
    }

    /// The globally next record in pack-key order, or `None` when every
    /// run is exhausted.
    pub fn next_record(&mut self) -> StorageResult<Option<SpillRecord>> {
        let Some(Reverse(item)) = self.heap.pop() else {
            return Ok(None);
        };
        if let Some(rec) = self.readers[item.src].next_record()? {
            self.heap.push(Reverse(HeapItem {
                key: rec.key(),
                src: item.src,
                rec,
            }));
        }
        Ok(Some(item.rec))
    }

    /// Consumes the cursor, returning every input page to the spill
    /// store's free list for recycling.
    pub fn dispose(self, store: &dyn PageStore) {
        for reader in self.readers {
            for id in reader.into_run().pages {
                store.free(id);
            }
        }
    }
}

/// Counters from the run-reduction passes.
#[derive(Debug, Clone, Copy, Default)]
pub struct MergeStats {
    /// Intermediate (non-final) merges performed across all levels.
    pub intermediate_merges: u32,
    /// Largest number of runs merged at once.
    pub max_fan_in: u32,
    /// Spill pages written by intermediate merges.
    pub spill_pages: u64,
}

/// Merges one batch of runs into a single new run.
fn merge_batch(store: &dyn PageStore, batch: Vec<Run>) -> StorageResult<Run> {
    let mut cursor = MergeCursor::open(store, batch)?;
    let mut writer = RunWriter::new(store);
    while let Some(rec) = cursor.next_record()? {
        writer.push(&rec)?;
    }
    cursor.dispose(store);
    writer.finish()
}

/// Merges rounds of consecutive `fan_in`-run chunks until at most
/// `fan_in` runs remain.
///
/// Chunk boundaries are a pure function of the queue order and `fan_in`,
/// and merged chunks re-enter the queue in chunk order. The chunk being
/// merged charges `(fan_in + 1) · MERGE_HEAD_BYTES` (its heads plus the
/// output writer's page) against `budget` for the whole round.
pub fn reduce_runs(
    store: &dyn PageStore,
    runs: Vec<Run>,
    fan_in: usize,
    budget: &BudgetAccountant,
) -> StorageResult<(Vec<Run>, MergeStats)> {
    let fan_in = fan_in.max(2);
    let mut stats = MergeStats::default();
    let mut queue = runs;
    while queue.len() > fan_in {
        // One round: consecutive chunks of `fan_in` runs each collapse
        // into one; a short tail chunk of a single run passes through.
        let per_chunk = (fan_in as u64 + 1) * MERGE_HEAD_BYTES;
        budget.charge(per_chunk);
        let mut merged = Vec::with_capacity(queue.len().div_ceil(fan_in));
        let mut iter = queue.into_iter().peekable();
        while iter.peek().is_some() {
            let chunk: Vec<Run> = iter.by_ref().take(fan_in).collect();
            if chunk.len() == 1 {
                merged.extend(chunk);
                continue;
            }
            stats.intermediate_merges += 1;
            stats.max_fan_in = stats.max_fan_in.max(chunk.len() as u32);
            let run = merge_batch(store, chunk)?;
            // Pass-through chunks wrote nothing; count only freshly
            // merged runs' pages.
            stats.spill_pages += run.pages.len() as u64;
            merged.push(run);
        }
        budget.release(per_chunk);
        queue = merged;
    }
    Ok((queue, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spill::RunWriter;
    use rtree_geom::{Point, Rect};
    use rtree_storage::Pager;

    fn rec(seq: u64, x: f64) -> SpillRecord {
        SpillRecord {
            rect: Rect::from_point(Point::new(x, 0.0)),
            child: seq,
            seq,
        }
    }

    /// Writes `recs` (already in run order) as one run.
    fn write_run(store: &dyn PageStore, recs: &[SpillRecord]) -> Run {
        let mut w = RunWriter::new(store);
        for r in recs {
            w.push(r).unwrap();
        }
        w.finish().unwrap()
    }

    #[test]
    fn merges_interleaved_runs_in_key_order() {
        let pager = Pager::temp().unwrap();
        // Run A holds even xs, run B odd xs; merged output must zip them.
        let a = write_run(
            &pager,
            &(0..50).map(|i| rec(i, (2 * i) as f64)).collect::<Vec<_>>(),
        );
        let b = write_run(
            &pager,
            &(50..100)
                .map(|i| rec(i, (2 * (i - 50) + 1) as f64))
                .collect::<Vec<_>>(),
        );
        let mut cursor = MergeCursor::open(&pager, vec![a, b]).unwrap();
        let mut xs = Vec::new();
        while let Some(r) = cursor.next_record().unwrap() {
            xs.push(r.rect.center().x);
        }
        cursor.dispose(&pager);
        assert_eq!(xs.len(), 100);
        assert!(xs.windows(2).all(|w| w[0] < w[1]), "not sorted: {xs:?}");
    }

    #[test]
    fn equal_centers_break_ties_by_seq() {
        let pager = Pager::temp().unwrap();
        // Same center everywhere; arrival order must win.
        let a = write_run(&pager, &[rec(0, 7.0), rec(2, 7.0), rec(4, 7.0)]);
        let b = write_run(&pager, &[rec(1, 7.0), rec(3, 7.0)]);
        let mut cursor = MergeCursor::open(&pager, vec![a, b]).unwrap();
        let mut seqs = Vec::new();
        while let Some(r) = cursor.next_record().unwrap() {
            seqs.push(r.seq);
        }
        cursor.dispose(&pager);
        assert_eq!(seqs, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn reduce_runs_bounds_open_runs_and_recycles_pages() {
        let pager = Pager::temp().unwrap();
        let runs: Vec<Run> = (0..9)
            .map(|r| write_run(&pager, &[rec(r, r as f64), rec(r + 100, r as f64 + 0.5)]))
            .collect();
        let before = pager.page_count();
        let budget = BudgetAccountant::new(u64::MAX);
        let (reduced, stats) = reduce_runs(&pager, runs, 3, &budget).unwrap();
        assert!(reduced.len() <= 3, "got {} runs", reduced.len());
        assert_eq!(
            reduced.iter().map(|r| r.records).sum::<u64>(),
            18,
            "no records lost"
        );
        assert!(stats.intermediate_merges >= 1);
        assert_eq!(stats.max_fan_in, 3);
        // Freed input pages were recycled, so the file barely grew.
        assert!(
            pager.page_count() <= before + 3,
            "pages grew {} -> {}",
            before,
            pager.page_count()
        );
        assert_eq!(budget.current(), 0, "charges must be released");
        assert!(budget.peak() >= 4 * MERGE_HEAD_BYTES);
    }

    #[test]
    fn reduce_runs_merges_consecutive_chunks_in_queue_order() {
        // 23 runs at fan-in 4: round one merges runs 0..4, 4..8, …,
        // 20..23 into 6 runs; round two merges those as 0..4 and 4..6.
        // So the result is the merge of input runs 0..16, then of
        // 16..23, and each round charges one chunk's heads.
        let pager = Pager::temp().unwrap();
        let inputs: Vec<Vec<SpillRecord>> = (0..23)
            .map(|r| {
                (0..40)
                    .map(|i| rec(r * 40 + i, (i * 23 + r) as f64))
                    .collect()
            })
            .collect();
        let runs: Vec<Run> = inputs.iter().map(|recs| write_run(&pager, recs)).collect();
        let budget = BudgetAccountant::new(u64::MAX);
        let (reduced, stats) = reduce_runs(&pager, runs, 4, &budget).unwrap();
        let merged = |lo: usize, hi: usize| {
            let mut recs: Vec<SpillRecord> = inputs[lo..hi].concat();
            recs.sort_by_key(SpillRecord::key);
            recs
        };
        let contents: Vec<Vec<SpillRecord>> = reduced
            .iter()
            .map(|r| {
                let mut reader = RunReader::open(&pager, r.clone());
                let mut recs = Vec::new();
                while let Some(rec) = reader.next_record().unwrap() {
                    recs.push(rec);
                }
                recs
            })
            .collect();
        assert_eq!(contents, vec![merged(0, 16), merged(16, 23)]);
        assert_eq!(stats.intermediate_merges, 6 + 2);
        assert_eq!(stats.max_fan_in, 4);
        assert_eq!(budget.current(), 0);
        assert_eq!(budget.peak(), 5 * MERGE_HEAD_BYTES);
    }

    #[test]
    fn reduce_runs_noop_when_within_fan_in() {
        let pager = Pager::temp().unwrap();
        let runs = vec![write_run(&pager, &[rec(0, 0.0)])];
        let budget = BudgetAccountant::new(u64::MAX);
        let (reduced, stats) = reduce_runs(&pager, runs, 8, &budget).unwrap();
        assert_eq!(reduced.len(), 1);
        assert_eq!(stats.intermediate_merges, 0);
    }
}
