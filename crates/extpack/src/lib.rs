//! Out-of-core external PACK: bulk-load datasets that don't fit in RAM.
//!
//! The paper's `PACK` (§3.3) assumes the whole point set can be sorted
//! in memory. This crate removes that assumption with a classic external
//! merge sort **folded directly into packed page emission** — there is
//! no intermediate sorted copy of the data:
//!
//! 1. **Run generation** — the item stream fills a budget-bounded
//!    buffer; each full buffer is sorted in pack-key order (ascending
//!    center-x, ties by y then arrival, via the same comparator as the
//!    in-memory packer) and spilled as a CRC-framed run of
//!    [`PageType::Spill`](rtree_storage::PageType) pages before the next
//!    buffer fills.
//! 2. **Merge → emit** — the runs are k-way merged; the merged stream is
//!    cut into the *same* deterministic slabs as the in-memory packer
//!    ([`SlabPlan`](packed_rtree_core::grouping::SlabPlan)), each slab is
//!    grouped with [`slab_order`](packed_rtree_core::grouping::slab_order),
//!    and every group is written as one fully packed node page into the
//!    destination file in contiguous batches
//!    ([`PageStore::write_pages`](rtree_storage::PageStore::write_pages)).
//!    Group MBRs feed the next level through the same run machinery,
//!    "working ever backwards, until the root is finally reached" (§3.3).
//! 3. **Commit** — the two-slot meta pair flips only after every node
//!    page is durable
//!    ([`DiskRTree::commit_external`](rtree_storage::DiskRTree::commit_external)),
//!    so a crash at any point leaves the previous tree or a
//!    detectably-absent one.
//!
//! The pack is one thread of control: it runs on the calling thread.
//! Because run boundaries are contiguous arrival chunks whose size
//! depends only on the budget, the merge comparator (center-x,
//! center-y, arrival order) reproduces exactly the global sorted
//! permutation of the in-memory packer, and because the slab plan is a
//! pure function of `(strategy, n, m)`, the resulting tree is
//! **bit-identical** to [`pack`](fn@packed_rtree_core::pack) at any memory
//! budget — the differential suite asserts this down to budgets that
//! force one-record runs, and pins the raw destination file's bytes.
//!
//! Memory is governed by one knob,
//! [`ExtPackConfig::memory_budget_bytes`], which bounds run buffers,
//! merge heads, and the emission batch (asserted through the
//! [`BudgetAccountant`] hook). The slab buffer is a fixed working set of
//! ~`512·M` entries reported separately in [`ExtPackStats`]. See
//! `DESIGN.md` §15 and §17.
//!
//! # Quick start
//!
//! ```
//! use rtree_extpack::{pack_external, ExtPackConfig};
//! use rtree_geom::{Point, Rect};
//! use rtree_index::ItemId;
//! use rtree_storage::Pager;
//!
//! let items = (0..10_000u64).map(|i| {
//!     let p = Point::new((i % 101) as f64, (i / 101) as f64);
//!     (Rect::from_point(p), ItemId(i))
//! });
//! let dest = Pager::temp().unwrap();
//! // 64 KiB budget: far smaller than the 10k-item dataset.
//! let cfg = ExtPackConfig::new(64 * 1024);
//! let (tree, stats) = pack_external(items, &cfg, &dest).unwrap();
//! assert_eq!(tree.len(), 10_000);
//! assert!(stats.initial_runs > 1, "must have spilled");
//! assert!(stats.peak_budget_bytes <= 64 * 1024);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod budget;
pub mod guard;
pub mod merge;
pub mod pack;
pub mod spill;

pub use budget::BudgetAccountant;
pub use guard::SpillDir;
pub use merge::MERGE_HEAD_BYTES;
pub use pack::{
    pack_external, pack_external_into, ExtPackConfig, ExtPackError, ExtPackResult, ExtPackStats,
    MAX_RUN_RECORDS, RUN_RECORD_FOOTPRINT,
};
pub use spill::{SpillRecord, RECORDS_PER_PAGE, RECORD_SIZE};
