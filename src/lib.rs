//! **packed-rtree** — a reproduction of *"Direct Spatial Search on
//! Pictorial Databases Using Packed R-trees"* (Roussopoulos & Leifker,
//! SIGMOD 1985) as a Rust workspace.
//!
//! This facade crate re-exports the workspace's public surface:
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`geom`] | `rtree-geom` | points, MBRs, segments, regions, exact coverage/overlap areas |
//! | [`index`] | `rtree-index` | Guttman R-tree: INSERT/DELETE/SEARCH, kNN, metrics, validation |
//! | [`pack`] | `packed-rtree-core` | the PACK algorithm and its descendants; Theorems 3.2/3.3 machinery |
//! | [`storage`] | `rtree-storage` | simulated disk: pager, read-only LRU buffer pool, a read-only disk tree image, a write-ahead log |
//! | [`relational`] | `pictorial-relational` | tuples, schemas, B-tree indexes, predicates |
//! | [`psql`] | `psql` | the pictorial query language: parser, planner, executor, ASCII monitor |
//! | [`workload`] | `rtree-workload` | paper + extension workload generators, synthetic US map |
//!
//! # Quick start
//!
//! ```
//! use packed_rtree::pack::pack;
//! use packed_rtree::index::{ItemId, RTreeConfig, SearchStats};
//! use packed_rtree::geom::{Point, Rect};
//!
//! // Bulk-load 1000 points with the paper's PACK algorithm…
//! let items: Vec<(Rect, ItemId)> = (0..1000)
//!     .map(|i| {
//!         let p = Point::new((i % 40) as f64, (i / 40) as f64);
//!         (Rect::from_point(p), ItemId(i))
//!     })
//!     .collect();
//! let tree = pack(items, RTreeConfig::PAPER);
//!
//! // …and run the paper's direct spatial search.
//! let mut stats = SearchStats::default();
//! let hits = tree.search_within(&Rect::new(0.0, 0.0, 10.0, 10.0), &mut stats);
//! assert_eq!(hits.len(), 121);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use packed_rtree_core as pack;
pub use pictorial_relational as relational;
pub use psql;
pub use rtree_geom as geom;
pub use rtree_index as index;
pub use rtree_storage as storage;
pub use rtree_workload as workload;
