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
//! * [`pack_with`] — any [`PackStrategy`]: pure ascending-x runs (the
//!   paper's sort criterion without the NN refinement), Sort-Tile-Recursive
//!   (Leutenegger et al. 1997, the best-known descendant of this paper)
//!   or Hilbert-curve order (Kamel & Faloutsos 1993);
//! * [`pack_frozen`] — any strategy, written straight into the frozen
//!   arena that serves queries, with no pointer tree in between;
//! * [`zero_overlap`] — the constructive proof of Theorem 3.2 (points can
//!   always be packed with zero leaf overlap, via Lemma 3.1's rotation);
//! * [`counterexample`] — Figure 3.6's pinwheel of skewed rectangles, for
//!   which Theorem 3.3 shows zero overlap is impossible.
//!
//! §3.4/§4's "dynamic invocation of the PACK algorithm" needs no type of
//! its own: a packed tree stays an ordinary R-tree under Guttman's
//! INSERT/DELETE, and re-packing it is [`pack_with`] over its
//! [`items`](rtree_index::NodeAccess::items). The served system re-packs a
//! picture's delta once it passes the server's merge threshold.
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
pub mod zero_overlap;

pub use grouping::PackStrategy;
pub use pack::{pack, pack_frozen, pack_naive, pack_parallel, pack_with};
