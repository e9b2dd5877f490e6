//! Simulated disk substrate: page files, an LRU buffer pool, and a
//! page-resident R-tree image with I/O accounting.
//!
//! The paper motivates R-trees over quad-trees partly because "the storage
//! organization of R-trees is based on B-trees, \[so\] they are better in
//! dealing with paging and disk I/O buffering" (§1), and notes that
//! practical branching factors are those "that fill a logical disk block"
//! (§3). The authors ran on 1985 hardware we do not have; this crate
//! substitutes a **simulated disk**: real files accessed in fixed 4 KiB
//! pages through a pinning LRU buffer pool, with read/write/hit/miss
//! counters. Node-per-page layout means pages touched ≈ nodes visited, so
//! the Table 1 `A` metric translates directly into I/O — the `io_sweep`
//! experiment (EXT-5) measures exactly that.
//!
//! # Layers
//!
//! * [`page`] — fixed-size page type and ids, with a per-page CRC32
//!   checksum footer and page-type tag;
//! * [`crc`] — the CRC-32 implementation (no external crates): a
//!   carry-less-multiply kernel where the CPU has one, slice-by-8
//!   everywhere else;
//! * [`error`] — [`StorageError`], separating I/O failures from detected
//!   corruption;
//! * [`pager`] — a file of pages with allocation and a free list, behind
//!   the [`PageStore`] trait (checksums stamped on write, verified on
//!   read);
//! * [`fault`] — [`FaultPager`], a deterministic fault-injecting
//!   `PageStore` wrapper for crash/corruption testing;
//! * [`buffer`] — the LRU buffer pool, a read-only page cache;
//! * [`codec`] — R-tree node ⇄ page serialization (fixed little-endian
//!   layout, no external serialization crates), including the borrowed
//!   [`NodeView`](codec::NodeView) searches read pages through;
//! * [`node_writer`] — [`NodePageWriter`], the staged batch through
//!   which bulk builders write node pages;
//! * [`meta`] — two-slot shadow meta pages for atomic commits;
//! * [`disk_tree`] — a page-resident R-tree image supporting the paper's
//!   searches with I/O counted;
//! * [`wal`] — an append-only, CRC-framed write-ahead log that makes
//!   dynamic inserts durable between repacks (DESIGN.md §14).
//!
//! The crash-safety model — what the checksums, the meta pair, and the
//! fault harness each guarantee — is documented in `DESIGN.md` §9.

#![warn(missing_docs)]
// The crate is `unsafe`-free except for the one call into the
// `PCLMULQDQ` checksum kernel inside `crc::clmul` (which carries a
// module-scoped `allow`); off x86_64 that module does not exist and the
// stronger `forbid` applies to the whole crate.
#![cfg_attr(not(target_arch = "x86_64"), forbid(unsafe_code))]
#![cfg_attr(target_arch = "x86_64", deny(unsafe_code))]

pub mod buffer;
pub mod codec;
pub mod crc;
pub mod disk_tree;
pub mod error;
pub mod fault;
pub mod meta;
pub mod node_writer;
pub mod page;
pub mod pager;
pub mod wal;

pub use buffer::{BufferPool, BufferStats};
pub use disk_tree::DiskRTree;
pub use error::{StorageError, StorageResult};
pub use fault::{FaultKind, FaultPager, FaultScript, InjectedFault};
pub use node_writer::NodePageWriter;
pub use page::{Page, PageId, PageType, PAGE_SIZE, PAYLOAD_SIZE};
pub use pager::{IoStats, PageStore, Pager};
pub use wal::{Wal, WAL_RECORD_MAX};
