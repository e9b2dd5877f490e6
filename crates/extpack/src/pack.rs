//! The external PACK driver: stream → runs → merge → packed pages.
//!
//! Level 0 consumes the caller's item stream through budget-bounded,
//! double-buffered run production (with `threads ≥ 2`, a background
//! sorter sorts and spills run N while the producer fills run N+1);
//! every level above is the same pipeline applied to the group MBRs the
//! level below emitted, "working ever backwards, until the root is
//! finally reached" (§3.3). Each level's runs are k-way merged — split
//! into key-range partitions across worker threads when the budget
//! affords it — and the merged stream is cut into the in-memory packer's
//! deterministic slabs ([`SlabPlan`]), grouped with the identical
//! [`group_slab`] machinery, and written as fully packed node pages in
//! contiguous batches straight into the destination store.
//!
//! # Budget ledger
//!
//! All concurrent buffers are charged to one [`BudgetAccountant`]:
//!
//! * **Run production** — two run buffers resident (producer + sorter;
//!   both are reserved at every thread count so run boundaries never
//!   depend on `threads`), each capped at
//!   `budget / (2 · RUN_RECORD_FOOTPRINT)` records and at
//!   [`MAX_RUN_RECORDS`] — huge budgets keep cache-friendly sorts
//!   instead of degrading into giant buffers that pack *slower*.
//! * **Merging** — half the budget pays for merge heads: reduction
//!   rounds charge `(fan_in + 1)` heads per in-flight chunk; the final
//!   merge charges one head per open run per partition worker plus each
//!   worker's in-flight record chunks. Worker counts are clamped to what
//!   the headroom affords — over-subscribed `threads` degrade, never
//!   overshoot.
//! * **Next level** — a quarter of the budget bounds the next level's
//!   run buffer.
//! * **Emission** — an eighth of the budget buys the contiguous
//!   node-page write batch beyond its first (always-present) page, so
//!   node pages go to the destination in large sequential writes.

use crate::budget::BudgetAccountant;
use crate::guard::SpillDir;
use crate::merge::{
    clamp_workers, merge_range, partition_chunk_bytes, plan_partitions, reduce_runs, MergeCursor,
    MERGE_HEAD_BYTES, PARTITION_CHUNK_RECORDS,
};
use crate::spill::{Run, RunWriter, SpillRecord};
use packed_rtree_core::grouping::{group_slab, SlabPlan};
use packed_rtree_core::{par_sort_values, PackStrategy};
use rtree_geom::Rect;
use rtree_index::{ItemId, RTreeConfig};
use rtree_storage::codec::{self, MAX_ENTRIES_PER_PAGE};
use rtree_storage::{
    DiskRTree, NodePageWriter, PageId, PageStore, StorageError, StorageResult, PAGE_SIZE,
};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::time::Instant;

/// Accounted bytes per buffered run record: the 48-byte [`SpillRecord`]
/// plus the sort's worst-case scratch (the parallel merge cascade's
/// ping-pong copy of the buffer).
pub const RUN_RECORD_FOOTPRINT: u64 = 96;

/// Hard cap on records per run buffer. Past a few MiB of records a
/// bigger buffer stops helping: the sort loses cache locality (measured
/// as a 64 MiB budget packing *slower* than a 256 KiB one) while the
/// merge absorbs hundreds of runs in a single pass anyway.
pub const MAX_RUN_RECORDS: u64 = 65536;

/// Resident bytes per slab-buffer entry (record + rect copy + ord slot),
/// used only for the reported fixed-working-set figure.
const SLAB_ENTRY_BYTES: u64 = 88;

/// Largest node-page emission batch (pages written with one contiguous
/// store write).
const EMIT_BATCH_MAX_PAGES: u64 = 64;

/// Records one level-0 run buffer holds: half the budget (two buffers
/// are resident under double-buffering), capped at [`MAX_RUN_RECORDS`].
fn level0_run_capacity(budget: u64) -> u64 {
    (budget / (2 * RUN_RECORD_FOOTPRINT)).clamp(1, MAX_RUN_RECORDS)
}

/// Records per upper-level run buffer: these buffers are resident
/// *while* merge heads and the emission batch live, so they get a
/// quarter of the budget.
fn upper_run_capacity(budget: u64) -> u64 {
    ((budget / 4) / (2 * RUN_RECORD_FOOTPRINT)).clamp(1, MAX_RUN_RECORDS)
}

/// Open merge heads half the budget affords (floored at 2 — a merge
/// needs two inputs to make progress).
fn head_quota(budget: u64) -> usize {
    (((budget / 2) / MERGE_HEAD_BYTES) as usize).max(2)
}

/// Node pages per emission batch: the first page is part of the fixed
/// working set (exactly the single page the sequential emitter always
/// held); the budget's eighth buys the rest.
fn emit_batch_pages(budget: u64) -> usize {
    (1 + (budget / 8) / PAGE_SIZE as u64).clamp(1, EMIT_BATCH_MAX_PAGES) as usize
}

/// Partition workers for the final merge of a level with `open_runs`
/// runs: each worker holds one head per run plus its chunk buffers, all
/// paid out of the merge half of the budget. Below two affordable
/// workers the merge runs sequentially on the consumer thread (no
/// channels, no per-worker heads).
fn partition_count(budget: u64, threads: usize, open_runs: usize) -> usize {
    if threads <= 1 || open_runs == 0 {
        return 1;
    }
    let per_worker = open_runs as u64 * MERGE_HEAD_BYTES + partition_chunk_bytes();
    let p = clamp_workers(threads, budget / 2, per_worker);
    if p < 2 {
        1
    } else {
        p
    }
}

/// Configuration of an external pack.
#[derive(Debug, Clone, Copy)]
pub struct ExtPackConfig {
    /// Bound on resident run buffers + merge heads + partition chunks +
    /// emission batch, in bytes. Arbitrarily small values still work
    /// (clamped to one buffered record and a 2-way merge); the bound is
    /// asserted through [`BudgetAccountant`].
    pub memory_budget_bytes: u64,
    /// Packing strategy. [`PackStrategy::Hilbert`] is not supported
    /// (its sort key needs the global MBR, unknowable while streaming).
    pub strategy: PackStrategy,
    /// Worker threads for the pipeline: `≥ 2` enables the overlapped
    /// produce/sort/spill double-buffer, parallel reduction rounds, and
    /// the key-range-partitioned final merge (each clamped further by
    /// the budget). `0` selects the machine's default; `1` runs fully
    /// sequentially. The packed tree is bit-identical at every value.
    pub threads: usize,
    /// Tree parameters; `tree.max_entries` is the node fan-out `M`.
    pub tree: RTreeConfig,
}

impl ExtPackConfig {
    /// A config with the given memory budget, the default strategy, the
    /// machine's default thread count, and the paper's tree parameters.
    pub fn new(memory_budget_bytes: u64) -> ExtPackConfig {
        ExtPackConfig {
            memory_budget_bytes,
            strategy: PackStrategy::default(),
            threads: packed_rtree_core::default_threads(),
            tree: RTreeConfig::PAPER,
        }
    }
}

/// Errors from external packing.
#[derive(Debug)]
pub enum ExtPackError {
    /// A page-store error (I/O or detected corruption) in the spill or
    /// destination file.
    Storage(StorageError),
    /// Failed to create the spill scratch directory/file.
    Io(std::io::Error),
    /// The strategy cannot pack a stream (Hilbert needs the global MBR).
    UnsupportedStrategy(PackStrategy),
    /// `tree.max_entries` outside `2..=MAX_ENTRIES_PER_PAGE`.
    Branching(usize),
}

impl fmt::Display for ExtPackError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExtPackError::Storage(e) => write!(f, "storage error: {e}"),
            ExtPackError::Io(e) => write!(f, "spill dir error: {e}"),
            ExtPackError::UnsupportedStrategy(s) => {
                write!(f, "strategy {} cannot pack a stream", s.name())
            }
            ExtPackError::Branching(m) => {
                write!(f, "branching factor {m} outside 2..={MAX_ENTRIES_PER_PAGE}")
            }
        }
    }
}

impl std::error::Error for ExtPackError {}

impl From<StorageError> for ExtPackError {
    fn from(e: StorageError) -> ExtPackError {
        ExtPackError::Storage(e)
    }
}

impl From<std::io::Error> for ExtPackError {
    fn from(e: std::io::Error) -> ExtPackError {
        ExtPackError::Io(e)
    }
}

/// Result alias for external packing.
pub type ExtPackResult<T> = Result<T, ExtPackError>;

/// Counters describing one external pack.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExtPackStats {
    /// Items consumed from the stream.
    pub items: u64,
    /// Sorted runs spilled during level-0 run generation.
    pub initial_runs: u32,
    /// Records one level-0 run buffer holds under the budget.
    pub run_capacity_records: u64,
    /// Total spill pages written (initial runs + intermediate merges,
    /// all levels).
    pub spill_pages: u64,
    /// `spill_pages` in bytes.
    pub spill_bytes: u64,
    /// Intermediate (non-final) merge passes forced by the fan-in bound.
    pub intermediate_merges: u32,
    /// Largest number of runs merged at once.
    pub max_fan_in: u32,
    /// Tree levels built (1 = the root is a leaf).
    pub levels: u32,
    /// Node pages emitted into the destination store.
    pub node_pages: u32,
    /// High-water mark of budget-accounted bytes (run buffers, merge
    /// heads, partition chunks, emission batch); the acceptance bound is
    /// `peak_budget_bytes ≤ budget` (above the degenerate floor).
    pub peak_budget_bytes: u64,
    /// Fixed working set of the slab/grouping buffer, reported separately
    /// from the budget (it is a function of `M`, not of the budget).
    pub slab_buffer_bytes: u64,
    /// Worker threads the pipeline ran with (after `0 → default`).
    pub threads_used: u32,
    /// Largest partition count any level's final merge used (1 = the
    /// merge ran sequentially on the consumer thread).
    pub merge_partitions: u32,
    /// Microseconds the producer spent consuming the input stream
    /// (includes backpressure waits in overlapped mode).
    pub produce_us: u64,
    /// Microseconds spent sorting run buffers (summed across threads).
    pub sort_us: u64,
    /// Microseconds spent writing spill runs (summed across threads).
    pub spill_us: u64,
    /// Microseconds the level driver spent pulling the merged streams
    /// (net of emission and of inline sort/spill attributed above).
    pub merge_us: u64,
    /// Microseconds spent grouping slabs and writing node pages.
    pub emit_us: u64,
}

/// Per-phase busy-time accumulators, in microseconds. Updated from the
/// producer, sorter, and consumer threads; phases overlap under
/// pipelining, so the figures are per-phase busy time, not additive
/// wall-clock.
#[derive(Default)]
struct PhaseTimers {
    sort: AtomicU64,
    spill: AtomicU64,
}

impl PhaseTimers {
    fn add_sort(&self, t: Instant) {
        self.sort
            .fetch_add(t.elapsed().as_micros() as u64, Ordering::Relaxed);
    }

    fn add_spill(&self, t: Instant) {
        self.spill
            .fetch_add(t.elapsed().as_micros() as u64, Ordering::Relaxed);
    }

    fn snapshot(&self) -> (u64, u64) {
        (
            self.sort.load(Ordering::Relaxed),
            self.spill.load(Ordering::Relaxed),
        )
    }
}

/// Sorts one run buffer in pack-key order. Records arrive in `seq`
/// order, so this equals the in-memory packer's `(center.x, center.y,
/// input index)` permutation exactly; the comparator is tie-free, so the
/// result is also independent of `threads`.
fn sort_run_buffer(buf: &mut [SpillRecord], threads: usize, timers: &PhaseTimers) {
    let t = Instant::now();
    par_sort_values(buf, threads, |a, b| a.key().cmp(&b.key()));
    timers.add_sort(t);
}

/// Writes one sorted buffer as a spill run.
fn spill_run_buffer(
    spill: &(dyn PageStore + Sync),
    buf: &[SpillRecord],
    timers: &PhaseTimers,
) -> StorageResult<Run> {
    let t = Instant::now();
    let mut writer = RunWriter::new(spill);
    for rec in buf {
        writer.push(rec)?;
    }
    let run = writer.finish()?;
    timers.add_spill(t);
    Ok(run)
}

/// The background half of the double-buffer: receives full buffers,
/// sorts and spills each, releases its budget charge, and hands the
/// (cleared) buffer back for reuse.
fn sorter_loop(
    rx: Receiver<Vec<SpillRecord>>,
    reuse_tx: SyncSender<Vec<SpillRecord>>,
    spill: &(dyn PageStore + Sync),
    threads: usize,
    budget: &BudgetAccountant,
    timers: &PhaseTimers,
) -> StorageResult<Vec<Run>> {
    let mut runs = Vec::new();
    for mut buf in rx {
        sort_run_buffer(&mut buf, threads, timers);
        let run = spill_run_buffer(spill, &buf, timers)?;
        runs.push(run);
        budget.release(buf.len() as u64 * RUN_RECORD_FOOTPRINT);
        buf.clear();
        // The producer may already be gone (it errored); that's fine.
        let _ = reuse_tx.send(buf);
    }
    Ok(runs)
}

/// The error used when the overlapped pipeline's partner thread is gone;
/// always superseded by the partner's own error at join time.
fn pipeline_closed() -> ExtPackError {
    ExtPackError::Io(std::io::Error::other("run-sort pipeline closed early"))
}

/// The producer half of run production. In overlapped mode full buffers
/// are handed to the background sorter and recycled back — at most two
/// buffers ever exist, both reserved in the capacity planning at *every*
/// thread count, so run boundaries are thread-independent. In inline
/// mode each full buffer is sorted and spilled on the spot.
struct RunProducer<'env> {
    cap: u64,
    threads: usize,
    budget: &'env BudgetAccountant,
    timers: &'env PhaseTimers,
    buffer: Vec<SpillRecord>,
    count: u64,
    mode: ProducerMode<'env>,
}

enum ProducerMode<'env> {
    Inline {
        spill: &'env (dyn PageStore + Sync),
        runs: Vec<Run>,
    },
    Overlapped {
        tx: SyncSender<Vec<SpillRecord>>,
        reuse_rx: Receiver<Vec<SpillRecord>>,
        buffers_made: usize,
    },
}

impl<'env> RunProducer<'env> {
    fn inline(
        spill: &'env (dyn PageStore + Sync),
        cap: u64,
        threads: usize,
        budget: &'env BudgetAccountant,
        timers: &'env PhaseTimers,
    ) -> Self {
        RunProducer {
            cap,
            threads,
            budget,
            timers,
            buffer: Vec::new(),
            count: 0,
            mode: ProducerMode::Inline {
                spill,
                runs: Vec::new(),
            },
        }
    }

    fn overlapped(
        tx: SyncSender<Vec<SpillRecord>>,
        reuse_rx: Receiver<Vec<SpillRecord>>,
        cap: u64,
        threads: usize,
        budget: &'env BudgetAccountant,
        timers: &'env PhaseTimers,
    ) -> Self {
        RunProducer {
            cap,
            threads,
            budget,
            timers,
            buffer: Vec::new(),
            count: 0,
            mode: ProducerMode::Overlapped {
                tx,
                reuse_rx,
                buffers_made: 1,
            },
        }
    }

    fn push(&mut self, rec: SpillRecord) -> ExtPackResult<()> {
        self.budget.charge(RUN_RECORD_FOOTPRINT);
        self.buffer.push(rec);
        self.count += 1;
        if self.buffer.len() as u64 >= self.cap {
            self.hand_off()?;
        }
        Ok(())
    }

    fn hand_off(&mut self) -> ExtPackResult<()> {
        if self.buffer.is_empty() {
            return Ok(());
        }
        match &mut self.mode {
            ProducerMode::Inline { spill, runs } => {
                sort_run_buffer(&mut self.buffer, self.threads, self.timers);
                let run = spill_run_buffer(*spill, &self.buffer, self.timers)?;
                runs.push(run);
                self.budget
                    .release(self.buffer.len() as u64 * RUN_RECORD_FOOTPRINT);
                self.buffer.clear();
            }
            ProducerMode::Overlapped {
                tx,
                reuse_rx,
                buffers_made,
            } => {
                let full = std::mem::take(&mut self.buffer);
                if tx.send(full).is_err() {
                    return Err(pipeline_closed());
                }
                self.buffer = if *buffers_made < 2 {
                    *buffers_made += 1;
                    Vec::new()
                } else {
                    match reuse_rx.recv() {
                        Ok(buf) => buf,
                        Err(_) => return Err(pipeline_closed()),
                    }
                };
            }
        }
        Ok(())
    }

    /// Flushes the tail buffer; returns the runs in inline mode (the
    /// sorter owns them in overlapped mode) and the record count.
    fn finish(mut self) -> ExtPackResult<(Option<Vec<Run>>, u64)> {
        self.hand_off()?;
        match self.mode {
            ProducerMode::Inline { runs, .. } => Ok((Some(runs), self.count)),
            ProducerMode::Overlapped { tx, .. } => {
                drop(tx); // closes the channel; the sorter loop ends
                Ok((None, self.count))
            }
        }
    }
}

/// Consumes one level's merged stream: buffers a slab at a time, groups
/// it exactly as the in-memory packer would, writes every group as one
/// packed node page (batched), and feeds group
/// MBRs to the next level's [`RunProducer`]. Pages go through the
/// storage layer's staged [`NodePageWriter`]: one contiguous
/// [`PageStore::write_pages`] per batch, an early flush only if the
/// destination hands out a non-contiguous page (it recycles).
struct LevelBuilder<'a, 'env> {
    strategy: PackStrategy,
    plan: SlabPlan,
    level: u32,
    slab: Vec<SpillRecord>,
    group_seq: u64,
    emitter: NodePageWriter<'a>,
    next: Option<RunProducer<'env>>,
    last_page: Option<PageId>,
    entries_scratch: Vec<codec::DiskEntry>,
    emit_us: u64,
}

impl<'a, 'env> LevelBuilder<'a, 'env> {
    fn push(&mut self, rec: SpillRecord) -> ExtPackResult<()> {
        self.slab.push(rec);
        if self.slab.len() == self.plan.slab_len() {
            self.flush()?;
        }
        Ok(())
    }

    /// Groups the buffered slab and emits its node pages. The slab holds
    /// a contiguous chunk of the level's *globally sorted* order (the
    /// merge produced it), cut at the same `slab_len` boundaries as the
    /// in-memory packer — so grouping it with an identity `ord` is
    /// exactly [`group_slab`] on the corresponding global slab.
    fn flush(&mut self) -> ExtPackResult<()> {
        if self.slab.is_empty() {
            return Ok(());
        }
        let t = Instant::now();
        let rects: Vec<Rect> = self.slab.iter().map(|r| r.rect).collect();
        let ord: Vec<usize> = (0..rects.len()).collect();
        for group in group_slab(self.strategy, &rects, &ord, &self.plan) {
            let entries = &mut self.entries_scratch;
            entries.clear();
            entries.extend(group.iter().map(|&i| codec::DiskEntry {
                mbr: self.slab[i].rect,
                child: self.slab[i].child,
            }));
            let mbr =
                Rect::mbr_of_rects(entries.iter().map(|e| e.mbr)).expect("group is never empty");
            let pid = self.emitter.push(self.level, entries)?;
            self.last_page = Some(pid);
            if let Some(next) = &mut self.next {
                next.push(SpillRecord {
                    rect: mbr,
                    child: pid.0 as u64,
                    seq: self.group_seq,
                })?;
            }
            self.group_seq += 1;
        }
        self.emit_us += t.elapsed().as_micros() as u64;
        self.slab.clear();
        Ok(())
    }
}

/// Produces sorted runs from a record stream (`rec.seq` must equal the
/// stream index). Returns the runs and the record count.
fn produce_runs<I>(
    records: I,
    spill: &(dyn PageStore + Sync),
    cap: u64,
    threads: usize,
    budget: &BudgetAccountant,
    timers: &PhaseTimers,
) -> ExtPackResult<(Vec<Run>, u64)>
where
    I: Iterator<Item = SpillRecord>,
{
    if threads < 2 {
        let mut producer = RunProducer::inline(spill, cap, threads, budget, timers);
        for rec in records {
            producer.push(rec)?;
        }
        let (runs, count) = producer.finish()?;
        return Ok((runs.expect("inline mode returns runs"), count));
    }
    std::thread::scope(|scope| {
        let (tx, rx) = sync_channel::<Vec<SpillRecord>>(1);
        let (reuse_tx, reuse_rx) = sync_channel::<Vec<SpillRecord>>(2);
        let sorter = scope.spawn(move || sorter_loop(rx, reuse_tx, spill, threads, budget, timers));
        let produced = (|| -> ExtPackResult<u64> {
            let mut producer = RunProducer::overlapped(tx, reuse_rx, cap, threads, budget, timers);
            for rec in records {
                producer.push(rec)?;
            }
            let (_, count) = producer.finish()?;
            Ok(count)
        })();
        let sorted = sorter.join().expect("sorter thread panicked");
        // A sorter error explains any producer "pipeline closed" error.
        match (produced, sorted) {
            (_, Err(e)) => Err(e.into()),
            (Err(e), Ok(_)) => Err(e),
            (Ok(count), Ok(runs)) => Ok((runs, count)),
        }
    })
}

enum LevelOutcome {
    Root(PageId),
    Next { runs: Vec<Run>, count: u64 },
}

/// Merges one level's (already reduced) runs — partitioned by key range
/// across workers when affordable — and pumps the merged stream through
/// a [`LevelBuilder`]. Frees the level's spill pages when done.
#[allow(clippy::too_many_arguments)]
fn run_level(
    dest: &(dyn PageStore + Sync),
    spill: &(dyn PageStore + Sync),
    strategy: PackStrategy,
    plan: SlabPlan,
    level: u32,
    single: bool,
    runs_open: Vec<Run>,
    threads: usize,
    budget: &BudgetAccountant,
    timers: &PhaseTimers,
    stats: &mut ExtPackStats,
) -> ExtPackResult<LevelOutcome> {
    let bb = budget.budget();
    let all_pages: Vec<PageId> = runs_open
        .iter()
        .flat_map(|r| r.pages.iter().copied())
        .collect();
    let parts = partition_count(bb, threads, runs_open.len());
    stats.merge_partitions = stats.merge_partitions.max(parts as u32);

    // The staged batch's first page is part of the fixed working set;
    // the pages beyond it are charged to the budget while it lives.
    let batch_pages = emit_batch_pages(bb);
    let batch_charge = (batch_pages as u64 - 1) * PAGE_SIZE as u64;
    budget.charge(batch_charge);
    let emitter = NodePageWriter::new(dest, batch_pages);
    let next = (!single)
        .then(|| RunProducer::inline(spill, upper_run_capacity(bb), threads, budget, timers));
    let mut builder = LevelBuilder {
        strategy,
        plan,
        level,
        slab: Vec::new(),
        group_seq: 0,
        emitter,
        next,
        last_page: None,
        entries_scratch: Vec::new(),
        emit_us: 0,
    };

    let (sort0, spill0) = timers.snapshot();
    let t_level = Instant::now();
    if parts <= 1 {
        let heads = runs_open.len() as u64 * MERGE_HEAD_BYTES;
        budget.charge(heads);
        let mut cursor = MergeCursor::open(spill, runs_open)?;
        while let Some(rec) = cursor.next_record()? {
            builder.push(rec)?;
        }
        drop(cursor);
        budget.release(heads);
    } else {
        merge_partitioned(spill, runs_open, parts, budget, &mut builder)?;
    }
    builder.flush()?;
    for id in all_pages {
        spill.free(id);
    }

    let (sort1, spill1) = timers.snapshot();
    let inline_sort_spill = (sort1 - sort0) + (spill1 - spill0);
    stats.merge_us +=
        (t_level.elapsed().as_micros() as u64).saturating_sub(builder.emit_us + inline_sort_spill);
    stats.emit_us += builder.emit_us;

    let LevelBuilder {
        emitter,
        next,
        last_page,
        ..
    } = builder;
    stats.node_pages += emitter.finish()?;
    budget.release(batch_charge);

    match next {
        None => {
            let root = last_page
                .unwrap_or_else(|| unreachable!("single-group level always emits its root page"));
            Ok(LevelOutcome::Root(root))
        }
        Some(producer) => {
            let (runs, count) = producer.finish()?;
            Ok(LevelOutcome::Next {
                runs: runs.expect("inline mode returns runs"),
                count,
            })
        }
    }
}

/// The key-range-partitioned final merge: `parts` workers each merge one
/// key range of `runs` (seeked open, so no prefix scanning) and stream
/// fixed-size record chunks to the consumer, which drains the partitions
/// in key order — the stitched stream is record-for-record the global
/// merge, because keys are unique within a level.
fn merge_partitioned(
    spill: &(dyn PageStore + Sync),
    runs: Vec<Run>,
    parts: usize,
    budget: &BudgetAccountant,
    builder: &mut LevelBuilder<'_, '_>,
) -> ExtPackResult<()> {
    let per_worker = runs.len() as u64 * MERGE_HEAD_BYTES + partition_chunk_bytes();
    let charge = parts as u64 * per_worker;
    budget.charge(charge);
    let splits = match plan_partitions(spill, &runs, parts) {
        Ok(s) => s,
        Err(e) => {
            budget.release(charge);
            return Err(e.into());
        }
    };
    let result = std::thread::scope(|scope| -> ExtPackResult<()> {
        let mut rxs = Vec::with_capacity(parts);
        let mut handles = Vec::with_capacity(parts);
        for p in 0..parts {
            // Capacity 2 + the chunk being filled = CHUNKS_PER_WORKER in
            // flight per worker, matching the budget charge.
            let (tx, rx) = sync_channel::<Vec<SpillRecord>>(2);
            rxs.push(rx);
            let worker_runs = runs.clone();
            let lo = (p > 0).then(|| splits[p - 1]);
            let hi = (p + 1 < parts).then(|| splits[p]);
            handles.push(scope.spawn(move || -> StorageResult<()> {
                let mut chunk = Vec::with_capacity(PARTITION_CHUNK_RECORDS);
                let mut alive = true;
                merge_range(spill, worker_runs, lo.as_ref(), hi.as_ref(), &mut |rec| {
                    chunk.push(rec);
                    if chunk.len() == PARTITION_CHUNK_RECORDS {
                        let full = std::mem::replace(
                            &mut chunk,
                            Vec::with_capacity(PARTITION_CHUNK_RECORDS),
                        );
                        if tx.send(full).is_err() {
                            // Consumer stopped (it errored); wind down.
                            alive = false;
                            return false;
                        }
                    }
                    true
                })?;
                if alive && !chunk.is_empty() {
                    let _ = tx.send(chunk);
                }
                Ok(())
            }));
        }
        let mut consume_err: Option<ExtPackError> = None;
        'partitions: for rx in &rxs {
            for chunk in rx.iter() {
                for rec in chunk {
                    if let Err(e) = builder.push(rec) {
                        consume_err = Some(e);
                        break 'partitions;
                    }
                }
            }
        }
        drop(rxs); // unblocks workers still sending
        let mut worker_err: Option<StorageError> = None;
        for h in handles {
            if let Err(e) = h.join().expect("partition worker panicked") {
                worker_err.get_or_insert(e);
            }
        }
        if let Some(e) = worker_err {
            return Err(e.into());
        }
        if let Some(e) = consume_err {
            return Err(e);
        }
        Ok(())
    });
    budget.release(charge);
    result
}

/// Externally packs `items` into `dest`, spilling runs through `spill`.
///
/// `dest` must be a fresh file or one holding an earlier
/// [`DiskRTree`] image (the new image is appended and committed by meta
/// flip, exactly like [`DiskRTree::store_with_meta`]). The caller owns
/// `spill`'s lifecycle; [`pack_external`] wraps this with an RAII
/// [`SpillDir`] so spill files never outlive the pack.
pub fn pack_external_into<I>(
    items: I,
    cfg: &ExtPackConfig,
    dest: &(dyn PageStore + Sync),
    spill: &(dyn PageStore + Sync),
) -> ExtPackResult<(DiskRTree, ExtPackStats)>
where
    I: IntoIterator<Item = (Rect, ItemId)>,
{
    if cfg.strategy == PackStrategy::Hilbert {
        return Err(ExtPackError::UnsupportedStrategy(cfg.strategy));
    }
    let m = cfg.tree.max_entries;
    if !(2..=MAX_ENTRIES_PER_PAGE).contains(&m) {
        return Err(ExtPackError::Branching(m));
    }
    let threads = if cfg.threads == 0 {
        packed_rtree_core::default_threads()
    } else {
        cfg.threads
    };
    let bb = cfg.memory_budget_bytes;

    // Reserve the meta pair before any node page, so the commit layout
    // matches `store_with_meta` and a crash pre-commit is detectable.
    while dest.page_count() < rtree_storage::meta::META_SLOTS {
        dest.allocate();
    }

    let budget = BudgetAccountant::new(bb);
    let timers = PhaseTimers::default();
    let cap0 = level0_run_capacity(bb);
    let mut stats = ExtPackStats {
        run_capacity_records: cap0,
        threads_used: threads as u32,
        ..ExtPackStats::default()
    };

    // Level 0: run generation straight off the item stream, overlapped
    // with sorting/spilling when threads allow.
    let t_produce = Instant::now();
    let (runs0, n0) = produce_runs(
        items
            .into_iter()
            .enumerate()
            .map(|(i, (rect, item))| SpillRecord {
                rect,
                child: item.0,
                seq: i as u64,
            }),
        spill,
        cap0,
        threads,
        &budget,
        &timers,
    )?;
    let (sort0, spill0) = timers.snapshot();
    stats.produce_us = (t_produce.elapsed().as_micros() as u64).saturating_sub(sort0 + spill0);
    let mut runs = runs0;
    let mut n = n0;
    stats.items = n;
    stats.initial_runs = runs.len() as u32;
    stats.spill_pages = runs.iter().map(|r| r.pages.len() as u64).sum();

    if n == 0 {
        let mut emitter = NodePageWriter::new(dest, 1);
        let root = emitter.push(0, &[])?;
        stats.node_pages = emitter.finish()?;
        let tree = DiskRTree::commit_external(dest, root, 0, 0, 1)?;
        stats.levels = 1;
        stats.peak_budget_bytes = budget.peak();
        return Ok((tree, stats));
    }

    let mut level: u32 = 0;
    let (root, depth) = loop {
        let plan = SlabPlan::new(cfg.strategy, n as usize, m);
        let single = plan.total_groups() == 1;
        stats.slab_buffer_bytes = stats
            .slab_buffer_bytes
            .max(plan.slab_len().min(n as usize) as u64 * SLAB_ENTRY_BYTES);

        // Reduce to at most the head quota, in deterministic rounds
        // (parallel across chunks when budget and threads allow).
        let (runs_open, mstats) = reduce_runs(spill, runs, head_quota(bb), threads, &budget)?;
        stats.intermediate_merges += mstats.intermediate_merges;
        stats.max_fan_in = stats
            .max_fan_in
            .max(mstats.max_fan_in)
            .max(runs_open.len() as u32);
        stats.spill_pages += mstats.spill_pages;

        let outcome = run_level(
            dest,
            spill,
            cfg.strategy,
            plan,
            level,
            single,
            runs_open,
            threads,
            &budget,
            &timers,
            &mut stats,
        )?;

        match outcome {
            LevelOutcome::Root(root) => break (root, level),
            LevelOutcome::Next { runs: r, count } => {
                stats.spill_pages += r.iter().map(|run| run.pages.len() as u64).sum::<u64>();
                runs = r;
                n = count;
                level += 1;
            }
        }
    };

    stats.levels = depth + 1;
    stats.spill_bytes = stats.spill_pages * PAGE_SIZE as u64;
    let (sort_us, spill_us) = timers.snapshot();
    stats.sort_us = sort_us;
    stats.spill_us = spill_us;
    stats.peak_budget_bytes = budget.peak();
    let tree =
        DiskRTree::commit_external(dest, root, depth, stats.items as usize, stats.node_pages)?;
    Ok((tree, stats))
}

/// Externally packs `items` into `dest`, spilling runs through a
/// temporary [`SpillDir`] that is removed when the pack finishes —
/// whether it returns, errors, or unwinds.
pub fn pack_external<I>(
    items: I,
    cfg: &ExtPackConfig,
    dest: &(dyn PageStore + Sync),
) -> ExtPackResult<(DiskRTree, ExtPackStats)>
where
    I: IntoIterator<Item = (Rect, ItemId)>,
{
    let dir = SpillDir::create()?;
    let spill = dir.create_pager()?;
    pack_external_into(items, cfg, dest, &spill)
    // `spill` then `dir` drop here: fd closes, directory is removed.
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtree_storage::Pager;

    fn scatter(n: u64) -> Vec<(Rect, ItemId)> {
        // Deterministic LCG scatter, distinct centers.
        let mut state = 0x2545F4914F6CDD1Du64;
        (0..n)
            .map(|i| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let x = (state >> 40) as f64 / 256.0;
                let y = ((state >> 16) & 0xFFFFFF) as f64 / 4096.0;
                (Rect::new(x, y, x + 1.0, y + 1.0), ItemId(i))
            })
            .collect()
    }

    #[test]
    fn packs_within_tiny_budget_and_accounts_peak() {
        let dest = Pager::temp().unwrap();
        let cfg = ExtPackConfig {
            memory_budget_bytes: 16 * 1024,
            threads: 1,
            ..ExtPackConfig::new(0)
        };
        let (tree, stats) = pack_external(scatter(3000), &cfg, &dest).unwrap();
        assert_eq!(tree.len(), 3000);
        assert!(stats.initial_runs > 1, "{stats:?}");
        assert!(stats.spill_pages > 0);
        assert!(
            stats.peak_budget_bytes <= 16 * 1024,
            "peak {} exceeds budget",
            stats.peak_budget_bytes
        );
        // Reopens to the same tree.
        let reopened = DiskRTree::open_default(&dest).unwrap();
        assert_eq!(reopened.root(), tree.root());
        assert_eq!(reopened.len(), 3000);
    }

    #[test]
    fn zero_budget_clamps_to_degenerate_floor() {
        let dest = Pager::temp().unwrap();
        let cfg = ExtPackConfig {
            threads: 1,
            ..ExtPackConfig::new(0)
        };
        // One-record runs, 2-way merges: slow but correct.
        let (tree, stats) = pack_external(scatter(150), &cfg, &dest).unwrap();
        assert_eq!(tree.len(), 150);
        assert_eq!(stats.run_capacity_records, 1);
        assert_eq!(stats.initial_runs, 150);
        // Floor: two merge heads + output head + one buffered record.
        assert!(stats.peak_budget_bytes <= 4 * MERGE_HEAD_BYTES + RUN_RECORD_FOOTPRINT);
    }

    #[test]
    fn empty_stream_builds_empty_tree() {
        let dest = Pager::temp().unwrap();
        let (tree, stats) = pack_external(Vec::new(), &ExtPackConfig::new(1 << 20), &dest).unwrap();
        assert_eq!(tree.len(), 0);
        assert_eq!(tree.depth(), 0);
        assert_eq!(stats.node_pages, 1);
        let reopened = DiskRTree::open_default(&dest).unwrap();
        assert!(reopened.is_empty());
    }

    #[test]
    fn hilbert_and_bad_branching_rejected() {
        let dest = Pager::temp().unwrap();
        let spill = Pager::temp().unwrap();
        let cfg = ExtPackConfig {
            strategy: PackStrategy::Hilbert,
            ..ExtPackConfig::new(1 << 20)
        };
        assert!(matches!(
            pack_external_into(scatter(10), &cfg, &dest, &spill),
            Err(ExtPackError::UnsupportedStrategy(_))
        ));
        let mut cfg = ExtPackConfig::new(1 << 20);
        cfg.tree.max_entries = 1;
        assert!(matches!(
            pack_external_into(scatter(10), &cfg, &dest, &spill),
            Err(ExtPackError::Branching(1))
        ));
        cfg.tree.max_entries = MAX_ENTRIES_PER_PAGE + 1;
        assert!(matches!(
            pack_external_into(scatter(10), &cfg, &dest, &spill),
            Err(ExtPackError::Branching(_))
        ));
    }

    #[test]
    fn run_capacity_is_budget_driven_and_capped() {
        assert_eq!(level0_run_capacity(0), 1);
        assert_eq!(level0_run_capacity(4 << 20), 21845);
        // Huge budgets cap at MAX_RUN_RECORDS (the 64 MiB fix): 1M items
        // make ⌈1M / 65536⌉ = 16 runs, a single merge pass.
        assert_eq!(level0_run_capacity(64 << 20), MAX_RUN_RECORDS);
        assert_eq!(1_000_000u64.div_ceil(level0_run_capacity(64 << 20)), 16);
        assert!(upper_run_capacity(4 << 20) <= level0_run_capacity(4 << 20));
    }

    #[test]
    fn partition_count_respects_budget_and_threads() {
        // threads=1 or no runs → sequential.
        assert_eq!(partition_count(4 << 20, 1, 46), 1);
        assert_eq!(partition_count(4 << 20, 8, 0), 1);
        // 4 MiB, 46 open runs: each worker needs 46 heads + chunks
        // (~481 KiB); half the budget affords 4 workers.
        assert_eq!(partition_count(4 << 20, 8, 46), 4);
        // A tiny budget cannot afford even 2 workers → sequential.
        assert_eq!(partition_count(16 << 10, 8, 46), 1);
    }

    #[test]
    fn threaded_pack_is_bit_identical_to_sequential() {
        let items = scatter(5000);
        let mut images: Vec<Vec<u8>> = Vec::new();
        for threads in [1usize, 2, 4] {
            let dest = Pager::temp().unwrap();
            let cfg = ExtPackConfig {
                memory_budget_bytes: 64 * 1024,
                threads,
                ..ExtPackConfig::new(0)
            };
            let (tree, stats) = pack_external(items.clone(), &cfg, &dest).unwrap();
            assert_eq!(tree.len(), 5000);
            assert!(
                stats.peak_budget_bytes <= 64 * 1024,
                "threads={threads}: peak {} exceeds budget",
                stats.peak_budget_bytes
            );
            let mut image = Vec::new();
            for p in 0..dest.page_count() {
                image.extend_from_slice(dest.read_page_raw(PageId(p)).unwrap().bytes());
            }
            images.push(image);
        }
        for pair in images.windows(2) {
            assert_eq!(pair[0], pair[1], "thread count changed the packed image");
        }
    }
}
