//! Dynamic R-trees after Guttman (1984), instrumented with the metrics of
//! Roussopoulos & Leifker (SIGMOD 1985).
//!
//! This crate implements the paper's baseline and the shared machinery that
//! the PACK algorithm (in `packed-rtree-core`) builds on:
//!
//! * an arena node store mirroring the paper's
//!   `RTREE: array [1..MaxNodes] of NODE` declaration (§3);
//! * Guttman's **INSERT** (`ChooseLeaf` + `SplitNode` + `AdjustTree`) with
//!   three split policies — linear, quadratic, exhaustive (§3.2);
//! * **DELETE** (`FindLeaf` + `CondenseTree` with orphan re-insertion);
//! * **SEARCH** as the paper's recursive procedure (§3.1): descend
//!   entries that `INTERSECTS` the target window, report leaf entries
//!   `WITHIN` it — walked one level at a time so a level's node loads
//!   overlap, with the recursion's results, result order and visit
//!   counts — plus intersection search, point queries (the Table 1
//!   workload: the same search over the point's rectangle) and
//!   branch-and-bound nearest-neighbour search;
//! * per-query [`SearchStats`] (nodes visited — the `A` column of Table 1)
//!   and whole-tree [`TreeMetrics`] (coverage `C`, overlap `O`, depth `D`,
//!   node count `N`);
//! * the bottom-up [`builder`]s PACK writes a pointer tree or an arena to;
//! * a structural [`validate`](RTree::validate) invariant checker used
//!   heavily by tests.
//!
//! The index maps rectangles to opaque [`ItemId`]s; callers own the actual
//! spatial objects ("leaf nodes of an R-tree contain pointers to tuples and
//! not the actual tuples themselves", §3).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod access;
pub mod ascii;
pub mod builder;
pub mod config;
mod delete;
pub mod frozen;
mod insert;
pub mod knn;
pub mod metrics;
pub mod node;
pub mod search;
mod split;
pub mod stats;
pub mod tree;

pub use access::NodeAccess;
pub use builder::{ArenaBuilder, BottomUpBuilder, PackSink};
pub use config::{RTreeConfig, SplitPolicy};
pub use frozen::FrozenRTree;
pub use knn::{KnnScratch, Neighbor};
pub use metrics::TreeMetrics;
pub use node::{Child, Entry, ItemId, Node, NodeId};
pub use search::{BatchScratch, SearchScratch};
pub use stats::SearchStats;
pub use tree::RTree;
