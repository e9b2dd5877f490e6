//! The external PACK driver: stream → runs → merge → packed pages.
//!
//! One thread of control runs the whole pack, the way §3.3's PACK is one
//! sort-then-group loop. Level 0 consumes the caller's item stream into
//! budget-bounded run buffers; each full buffer is sorted (the only
//! parallel step: [`par_sort_values`] with up to `threads` workers) and
//! spilled before the next one fills. Every level above is the same
//! pipeline applied to the group MBRs the level below emitted, "working
//! ever backwards, until the root is finally reached" (§3.3). Each
//! level's runs are k-way merged, and the merged stream is cut into the
//! in-memory packer's deterministic slabs ([`SlabPlan`]), grouped with
//! the identical [`slab_order`], and written as fully packed node pages
//! in contiguous batches straight into the destination store.
//!
//! # Budget ledger
//!
//! Every resident buffer is charged to one [`BudgetAccountant`]:
//!
//! * **Run production** — one run buffer, capped at
//!   `budget / (2 · RUN_RECORD_FOOTPRINT)` records and at
//!   [`MAX_RUN_RECORDS`] — huge budgets keep cache-friendly sorts
//!   instead of degrading into giant buffers that pack *slower*.
//! * **Merging** — half the budget pays for merge heads: a reduction
//!   round charges `(fan_in + 1)` heads (its inputs plus the output
//!   run's page); the final merge charges one head per open run.
//! * **Next level** — a quarter of the budget bounds the next level's
//!   run buffer, which fills while the level's merge heads are open.
//! * **Emission** — an eighth of the budget buys the contiguous
//!   node-page write batch beyond its first (always-present) page, so
//!   node pages go to the destination in large sequential writes.

use crate::budget::BudgetAccountant;
use crate::guard::SpillDir;
use crate::merge::{reduce_runs, MergeCursor, MERGE_HEAD_BYTES};
use crate::spill::{Run, RunWriter, SpillRecord};
use packed_rtree_core::grouping::{slab_order, SlabPlan};
use packed_rtree_core::{par_sort_values, PackStrategy};
use rtree_geom::Rect;
use rtree_index::{ItemId, RTreeConfig};
use rtree_storage::codec::{self, MAX_ENTRIES_PER_PAGE};
use rtree_storage::{DiskRTree, NodePageWriter, PageId, PageStore, StorageError, PAGE_SIZE};
use std::cell::Cell;
use std::fmt;
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

/// Records one level-0 run buffer holds: half the budget, capped at
/// [`MAX_RUN_RECORDS`]. Run boundaries, and with them the spill traffic
/// and the merge shape, are a function of this formula alone.
fn level0_run_capacity(budget: u64) -> u64 {
    (budget / (2 * RUN_RECORD_FOOTPRINT)).clamp(1, MAX_RUN_RECORDS)
}

/// Records per upper-level run buffer: these buffers are resident
/// *while* merge heads and the emission batch live, so they get a
/// quarter of the budget, halved the way level 0's is.
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

/// Configuration of an external pack.
#[derive(Debug, Clone, Copy)]
pub struct ExtPackConfig {
    /// Bound on resident run buffers + merge heads + emission batch, in
    /// bytes. Arbitrarily small values still work
    /// (clamped to one buffered record and a 2-way merge); the bound is
    /// asserted through [`BudgetAccountant`].
    pub memory_budget_bytes: u64,
    /// Packing strategy. [`PackStrategy::Hilbert`] is not supported
    /// (its sort key needs the global MBR, unknowable while streaming).
    pub strategy: PackStrategy,
    /// Workers for sorting each run buffer, clamped like
    /// [`pack_parallel`](packed_rtree_core::pack_parallel)'s to the
    /// hardware threads and the run size. `0` selects the machine's
    /// default. Everything else runs on the calling thread; the packed
    /// tree is bit-identical at every value.
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
    /// heads, emission batch); the acceptance bound is
    /// `peak_budget_bytes ≤ budget` (above the degenerate floor).
    pub peak_budget_bytes: u64,
    /// Fixed working set of the slab/grouping buffer, reported separately
    /// from the budget (it is a function of `M`, not of the budget).
    pub slab_buffer_bytes: u64,
    /// Run-sort workers the pack ran with (after `0 → default` and the
    /// clamp).
    pub threads_used: u32,
    /// Microseconds spent consuming the input stream.
    pub produce_us: u64,
    /// Microseconds spent sorting run buffers.
    pub sort_us: u64,
    /// Microseconds spent writing spill runs.
    pub spill_us: u64,
    /// Microseconds the level driver spent pulling the merged streams
    /// (net of emission and of inline sort/spill attributed above).
    pub merge_us: u64,
    /// Microseconds spent grouping slabs and writing node pages.
    pub emit_us: u64,
}

/// Per-phase time accumulators, in microseconds, shared by the level-0
/// producer and each level's next-level producer.
#[derive(Default)]
struct PhaseTimers {
    sort: Cell<u64>,
    spill: Cell<u64>,
}

impl PhaseTimers {
    fn add(cell: &Cell<u64>, t: Instant) {
        cell.set(cell.get() + t.elapsed().as_micros() as u64);
    }

    fn snapshot(&self) -> (u64, u64) {
        (self.sort.get(), self.spill.get())
    }
}

/// Fills a run buffer from a record stream; each full buffer is sorted
/// in pack-key order and spilled as one run before the next one fills.
struct RunProducer<'a> {
    spill: &'a dyn PageStore,
    cap: u64,
    threads: usize,
    budget: &'a BudgetAccountant,
    timers: &'a PhaseTimers,
    buffer: Vec<SpillRecord>,
    count: u64,
    runs: Vec<Run>,
}

impl<'a> RunProducer<'a> {
    fn new(
        spill: &'a dyn PageStore,
        cap: u64,
        threads: usize,
        budget: &'a BudgetAccountant,
        timers: &'a PhaseTimers,
    ) -> Self {
        RunProducer {
            spill,
            cap,
            threads,
            budget,
            timers,
            buffer: Vec::new(),
            count: 0,
            runs: Vec::new(),
        }
    }

    fn push(&mut self, rec: SpillRecord) -> ExtPackResult<()> {
        self.budget.charge(RUN_RECORD_FOOTPRINT);
        self.buffer.push(rec);
        self.count += 1;
        if self.buffer.len() as u64 >= self.cap {
            self.spill_buffer()?;
        }
        Ok(())
    }

    /// Sorts the buffer and writes it as one run. Records arrive in
    /// `seq` order, so the sort equals the in-memory packer's `(center.x,
    /// center.y, input index)` permutation exactly; the comparator is
    /// tie-free, so the result is also independent of `threads`.
    fn spill_buffer(&mut self) -> ExtPackResult<()> {
        if self.buffer.is_empty() {
            return Ok(());
        }
        let t = Instant::now();
        par_sort_values(&mut self.buffer, self.threads, |a, b| a.key().cmp(&b.key()));
        PhaseTimers::add(&self.timers.sort, t);
        let t = Instant::now();
        let mut writer = RunWriter::new(self.spill);
        for rec in &self.buffer {
            writer.push(rec)?;
        }
        self.runs.push(writer.finish()?);
        PhaseTimers::add(&self.timers.spill, t);
        self.budget
            .release(self.buffer.len() as u64 * RUN_RECORD_FOOTPRINT);
        self.buffer.clear();
        Ok(())
    }

    /// Spills the tail buffer; returns the runs and the record count.
    fn finish(mut self) -> ExtPackResult<(Vec<Run>, u64)> {
        self.spill_buffer()?;
        Ok((self.runs, self.count))
    }
}

/// Consumes one level's merged stream: buffers a slab at a time, groups
/// it exactly as the in-memory packer would, writes every group as one
/// packed node page (batched), and feeds group
/// MBRs to the next level's [`RunProducer`]. Pages go through the
/// storage layer's staged [`NodePageWriter`]: one contiguous
/// [`PageStore::write_pages`] per batch, an early flush only if the
/// destination hands out a non-contiguous page (it recycles).
struct LevelBuilder<'a> {
    strategy: PackStrategy,
    plan: SlabPlan,
    level: u32,
    slab: Vec<SpillRecord>,
    group_seq: u64,
    emitter: NodePageWriter<'a>,
    next: Option<RunProducer<'a>>,
    last_page: Option<PageId>,
    entries_scratch: Vec<codec::DiskEntry>,
    emit_us: u64,
}

impl LevelBuilder<'_> {
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
    /// exactly [`slab_order`] on the corresponding global slab.
    fn flush(&mut self) -> ExtPackResult<()> {
        if self.slab.is_empty() {
            return Ok(());
        }
        let t = Instant::now();
        let rects: Vec<Rect> = self.slab.iter().map(|r| r.rect).collect();
        let ord: Vec<usize> = (0..rects.len()).collect();
        let order = slab_order(self.strategy, &rects, &ord, &self.plan);
        for group in order.chunks(self.plan.m()) {
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

enum LevelOutcome {
    Root(PageId),
    Next { runs: Vec<Run>, count: u64 },
}

/// Merges one level's (already reduced) runs and pumps the merged stream
/// through a [`LevelBuilder`]. Frees the level's spill pages when done.
#[allow(clippy::too_many_arguments)]
fn run_level(
    dest: &dyn PageStore,
    spill: &dyn PageStore,
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

    // The staged batch's first page is part of the fixed working set;
    // the pages beyond it are charged to the budget while it lives.
    let batch_pages = emit_batch_pages(bb);
    let batch_charge = (batch_pages as u64 - 1) * PAGE_SIZE as u64;
    budget.charge(batch_charge);
    let emitter = NodePageWriter::new(dest, batch_pages);
    let next =
        (!single).then(|| RunProducer::new(spill, upper_run_capacity(bb), threads, budget, timers));
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
    let heads = runs_open.len() as u64 * MERGE_HEAD_BYTES;
    budget.charge(heads);
    let mut cursor = MergeCursor::open(spill, runs_open)?;
    while let Some(rec) = cursor.next_record()? {
        builder.push(rec)?;
    }
    drop(cursor);
    budget.release(heads);
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
            Ok(LevelOutcome::Next { runs, count })
        }
    }
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
    dest: &dyn PageStore,
    spill: &dyn PageStore,
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
    let bb = cfg.memory_budget_bytes;
    let cap0 = level0_run_capacity(bb);
    // Clamped against the largest buffer the pack sorts: a pinned or
    // small pack starts no sort worker it cannot run.
    let threads = packed_rtree_core::effective_threads(
        if cfg.threads == 0 {
            packed_rtree_core::default_threads()
        } else {
            cfg.threads
        },
        cap0 as usize,
    );

    // Reserve the meta pair before any node page, so the commit layout
    // matches `store_with_meta` and a crash pre-commit is detectable.
    while dest.page_count() < rtree_storage::meta::META_SLOTS {
        dest.allocate();
    }

    let budget = BudgetAccountant::new(bb);
    let timers = PhaseTimers::default();
    let mut stats = ExtPackStats {
        run_capacity_records: cap0,
        threads_used: threads as u32,
        ..ExtPackStats::default()
    };

    // Level 0: run generation straight off the item stream.
    let t_produce = Instant::now();
    let mut producer = RunProducer::new(spill, cap0, threads, &budget, &timers);
    for (i, (rect, item)) in items.into_iter().enumerate() {
        producer.push(SpillRecord {
            rect,
            child: item.0,
            seq: i as u64,
        })?;
    }
    let (mut runs, mut n) = producer.finish()?;
    let (sort0, spill0) = timers.snapshot();
    stats.produce_us = (t_produce.elapsed().as_micros() as u64).saturating_sub(sort0 + spill0);
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

        // Reduce to at most the head quota, in deterministic rounds.
        let (runs_open, mstats) = reduce_runs(spill, runs, head_quota(bb), &budget)?;
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
    dest: &dyn PageStore,
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
}
