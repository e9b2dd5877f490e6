//! The differential-testing oracle for the packed R-tree stack.
//!
//! Every query the engine answers through an R-tree has a trivially
//! correct — and trivially slow — answer: scan everything. This crate
//! holds those brute-force references ([`reference`](mod@reference)), a
//! structural validator that checks the deep R-tree invariants on all
//! three tree representations ([`invariant`] over [`image::TreeImage`]),
//! and a seeded differential fuzz driver ([`fuzz`]) that generates
//! random pictorial datasets and query streams, runs engine and oracle
//! side by side at four levels of the stack, and shrinks any divergence
//! to a minimal counterexample:
//!
//! 1. **Geometry** — the spatial-operator algebra on object pairs
//!    (complement, flip symmetry, and interval-arithmetic ground truth
//!    for point/rectangle operands).
//! 2. **Tree** — `search_within` / `search_intersecting` / `point_query`
//!    through both the instrumented stats path and the allocation-free
//!    [`SearchScratch`](rtree_index::SearchScratch) path, plus k-NN,
//!    joins, and the `avg_nodes_visited` accounting against a literal
//!    recursive implementation of the paper's `SEARCH` (§3.1).
//! 3. **PSQL** — query text end-to-end through the parser, planner, and
//!    `execute_with_scratch` (the entry point the concurrent query
//!    service uses), compared against direct evaluation of the operator
//!    over all objects.
//! 4. **Mixed read/write** — a prefix of the objects is loaded and
//!    packed (frozen main tree), the rest arrive as dynamic inserts
//!    buffered in the delta tree; both query paths (stats, scratch)
//!    must be bit-identical to brute force over packed ∪ delta, before
//!    and after the merge folds the delta back in.
//!
//! Reproduction is deterministic: every counterexample carries the seed
//! and case index that produced it (see `DESIGN.md` §11).

#![forbid(unsafe_code)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod fuzz;
pub mod image;
pub mod invariant;
pub mod reference;

pub use fuzz::{run_seeds, Divergence, FuzzConfig};
pub use image::TreeImage;
pub use invariant::{validate_deep, DeepChecks};
