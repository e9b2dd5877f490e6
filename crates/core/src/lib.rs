//! The PACK algorithm of Roussopoulos & Leifker (SIGMOD 1985) — bulk
//! loading ("initial packing") of R-trees — together with the descendant
//! packing strategies it spawned and the paper's theoretical constructions.
//!
//! # The paper's algorithm
//!
//! [`pack()`](pack()) is a faithful implementation of §3.3's recursive `PACK`:
//! order the data objects by a spatial criterion (ascending x), then
//! repeatedly take the first remaining object `I1` and its `M − 1` nearest
//! neighbours (`NN(DLIST, I1)`, deleting as it selects) to fill one node;
//! recurse on the resulting MBRs until a single root remains. Nodes come
//! out fully packed, minimizing both *coverage* and *overlap* (§3.1), which
//! is what produces the order-of-magnitude search savings of Table 1.
//!
//! # Variants and extensions
//!
//! * [`pack_naive`] — same algorithm with the literal O(n²) nearest-
//!   neighbour scan of the pseudocode (the default sweeps each slab along
//!   its longer extent, and builds the same tree);
//! * [`pack_xsort`] — packing by pure ascending-x runs (the paper's sort
//!   criterion without the NN refinement);
//! * [`pack_str`] — Sort-Tile-Recursive (Leutenegger et al. 1997), the
//!   best-known descendant of this paper;
//! * [`pack_hilbert`] — Hilbert-curve-order packing (Kamel & Faloutsos
//!   1993);
//! * [`zero_overlap`] — the constructive proof of Theorem 3.2 (points can
//!   always be packed with zero leaf overlap, via Lemma 3.1's rotation);
//! * [`counterexample`] — Figure 3.6's pinwheel of skewed rectangles, for
//!   which Theorem 3.3 shows zero overlap is impossible;
//! * [`repack`] — §3.4/§4's "dynamic invocation of the PACK algorithm":
//!   amortized re-packing of a tree degraded by updates.
//!
//! # Example
//!
//! ```
//! use packed_rtree_core::pack;
//! use rtree_index::{ItemId, RTreeConfig, SearchStats};
//! use rtree_geom::{Point, Rect};
//!
//! let items: Vec<(Rect, ItemId)> = (0..100)
//!     .map(|i| {
//!         let p = Point::new((i % 10) as f64, (i / 10) as f64);
//!         (Rect::from_point(p), ItemId(i))
//!     })
//!     .collect();
//! let tree = pack(items, RTreeConfig::PAPER);
//! assert_eq!(tree.len(), 100);
//! let mut stats = SearchStats::default();
//! let hits = tree.search_within(&Rect::new(0.0, 0.0, 3.0, 3.0), &mut stats);
//! assert_eq!(hits.len(), 16);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod counterexample;
pub mod grouping;
pub mod hilbert;
pub mod nn;
pub mod pack;
pub mod repack;
pub mod zero_overlap;

pub use grouping::PackStrategy;
pub use pack::{pack, pack_hilbert, pack_naive, pack_parallel, pack_str, pack_with, pack_xsort};
pub use repack::AutoRepack;
