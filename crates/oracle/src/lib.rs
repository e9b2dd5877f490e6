//! The differential-testing oracle for the packed R-tree stack.
//!
//! Every query the engine answers through an R-tree has a trivially
//! correct — and trivially slow — answer: scan everything. This crate
//! holds those brute-force references ([`reference`](mod@reference)), a
//! structural validator that checks the deep R-tree invariants on all
//! three tree representations ([`invariant`] over [`image::TreeImage`]),
//! and a seeded differential fuzz driver ([`fuzz`]) that generates
//! random pictorial datasets and query streams, runs engine and oracle
//! side by side at five levels of the stack, and shrinks any divergence
//! to a minimal counterexample:
//!
//! 1. **Geometry** — the spatial-operator algebra on object pairs
//!    (complement, flip symmetry) and every operator on every pair, and
//!    against every window, checked against separating-axis ground
//!    truth for points, segments and convex regions
//!    ([`reference::ref_holds`]).
//! 2. **Tree** — `search_within` / `search_intersecting` / `point_query`
//!    through both the instrumented stats path and the allocation-free
//!    [`SearchScratch`](rtree_index::SearchScratch) path, plus k-NN (the
//!    `k` smallest `(distance, id)` pairs, in order), joins, and the
//!    exact result order and `avg_nodes_visited` accounting against a
//!    literal recursive implementation of the paper's `SEARCH` (§3.1),
//!    on packed, Guttman and M = 102 trees; the frozen arena must answer
//!    bit for bit as the pointer tree it came from, and the disk tree
//!    with the same sets.
//! 3. **PSQL** — query text end-to-end through the parser, planner, and
//!    `execute_with_scratch` (the entry point the concurrent query
//!    service uses), compared against direct evaluation of the operator
//!    over all objects, rows in the order the answer comes: ascending
//!    object id.
//! 4. **Mixed read/write** — a prefix of the objects is loaded and
//!    packed (frozen main tree), the rest arrive as dynamic inserts
//!    buffered in the delta tree; both query paths (stats, scratch)
//!    must be bit-identical to brute force over packed ∪ delta (k-NN in
//!    `(distance, id)` order), before and after the merge folds the
//!    delta back in.
//! 5. **Mixed geometry** — points, segments, rectangles and triangles
//!    from a generator of their own: two pictures juxtaposed from both
//!    `from` orders and nested, and window queries over each, against
//!    the ground truth over every pair in answer order (a juxtaposition
//!    by the first `from` relation's ids), `overlapping` and `disjoined`
//!    partitioning the cross product, and each window query equal to
//!    the nested mapping over the window stored as a region.
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
