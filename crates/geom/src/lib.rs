//! Geometry primitives for packed R-trees and pictorial databases.
//!
//! This crate is the geometric substrate of the packed R-tree reproduction
//! (Roussopoulos & Leifker, SIGMOD 1985). It provides:
//!
//! * [`Point`], [`Rect`] (minimal bounding rectangles), [`Segment`] and
//!   polygonal [`Region`] objects — the paper's "point", "line segment" and
//!   "region" spatial classes (§3);
//! * the spatial comparison predicates behind PSQL's operators
//!   (`covers`, `covered-by`, `overlaps`, `disjoined`, §2.2), exposed as
//!   [`SpatialObject`] methods and [`Rect`] predicates;
//! * rotation transforms used by Lemma 3.1 / Theorem 3.2
//!   ([`transform::rotation_with_distinct_x`]);
//! * exact union/overlap area computation over rectangle sets
//!   ([`rectset::union_area`], [`rectset::overlap_area`]) used for the
//!   paper's *coverage* and *overlap* metrics (§3.1, Table 1).
//!
//! All coordinates are `f64`. Rectangles are closed: boundaries touch.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod object;
pub mod point;
pub mod rect;
pub mod rectset;
pub mod region;
pub mod segment;
pub mod transform;

pub use object::SpatialObject;
pub use point::Point;
pub use rect::Rect;
pub use region::Region;
pub use segment::Segment;
