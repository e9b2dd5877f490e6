//! Alphanumeric relational substrate for the pictorial database.
//!
//! The paper's architecture (Figure 1.1) pairs a conventional
//! "alphanumeric data processor" with the pictorial processor; PSQL
//! "extends the power of SQL for retrieving alphanumeric data" (§2). This
//! crate is that conventional half, built from scratch:
//!
//! * typed [`Value`]s and [`Schema`]s — including the `pointer` type of
//!   the paper's `loc` columns ("an extra column named *loc* of type
//!   pointer which stores pointers to the picture", §2.1);
//! * column-organized [`Relation`]s — one typed plane per column,
//!   strings in one byte buffer — with stable [`TupleId`]s, handing out
//!   borrowed [`Row`]s of [`ValueRef`]s;
//! * [`CompareOp`]s, the `where`-clause's comparisons;
//! * a [`Catalog`] naming relations and their [`Index`]es on alphanumeric
//!   columns ("the relation columns that correspond to alphanumeric
//!   domains are indexed the usual way"): the usual way is a B-tree, and
//!   std's `BTreeMap` is one. R-trees being the B-tree's two-dimensional
//!   generalization is the paper's founding analogy.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod catalog;
pub mod error;
pub mod heap;
pub mod predicate;
pub mod schema;
pub mod value;

pub use catalog::{Catalog, Index};
pub use error::RelationalError;
pub use heap::{Relation, Row, TupleId};
pub use predicate::CompareOp;
pub use schema::{Column, ColumnType, Schema};
pub use value::{Value, ValueRef};
