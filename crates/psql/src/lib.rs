//! PSQL — the Pictorial Structured Query Language of Roussopoulos &
//! Leifker (§2), executed over packed R-trees.
//!
//! PSQL extends SQL's `select / from / where` with an `on`-clause naming
//! pictures and an `at`-clause performing **direct spatial search**:
//!
//! ```text
//! select city, state, population, loc
//! from   cities
//! on     us-map
//! at     loc covered-by {82.5 +- 17.5, 25 +- 20}
//! where  population > 450000
//! ```
//!
//! Supported, per the paper:
//!
//! * spatial comparison operators `covering`, `covered-by`,
//!   `overlapping`, `disjoined` (§2.2);
//! * window literals in the paper's `{x ± dx, y ± dy}` notation (spelled
//!   `+-`), plus named-column references `relation.loc`;
//! * **juxtaposition** — the "geographic join" of two pictures over the
//!   same area, executed as a simultaneous descent of both R-trees
//!   (`cities.loc covered-by time-zones.loc`, Figure 2.2);
//! * **nested mappings** — an inner `select` whose result locations bind
//!   the outer `at`-clause (the lakes-in-eastern-states example);
//! * pictorial functions (`area(loc)`, …) callable from `select` and
//!   `where` (§2.1's abstract-data-type view of pictorial domains);
//! * dual output channels: an alphanumeric [`ResultSet`] and the
//!   "graphics monitor" — an ASCII rendering of the picture with the
//!   qualifying objects highlighted ([`render`]).
//!
//! The engine plans direct spatial search through each picture's
//! **packed R-tree** and alphanumeric restrictions through B-tree indexes
//! when available.
//!
//! A query nests at most [`parser::MAX_NESTING`] (64) levels — each
//! parenthesis and `not` in a `where` expression and each `(select …)`
//! mapping in an `at` clause is one, and an `and` / `or` chain of `n`
//! terms, joined into a balanced tree, spends about log2(n) — so a
//! hostile text gets a `Parse` error instead of exhausting a thread's
//! stack.
//!
//! # Quick start
//!
//! ```
//! use psql::database::PictorialDatabase;
//! use psql::exec::execute;
//! use psql::parser::parse_query;
//!
//! let db = PictorialDatabase::with_us_map();
//! let q = parse_query(
//!     "select city, population from cities on us-map \
//!      at loc covered-by {82.5 +- 17.5, 25 +- 20} where population > 450000",
//! ).unwrap();
//! let result = execute(&db, &q).unwrap();
//! assert!(result.rows.iter().any(|r| r[0].to_string() == "New York"));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// Library code reports typed errors instead of panicking; unit tests
// (cfg(test)) may still unwrap.
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod ast;
pub mod database;
pub mod error;
pub mod exec;
pub mod functions;
pub mod join;
pub mod lexer;
pub mod parser;
pub mod picture;
pub mod plan;
pub mod render;
pub mod result;
pub mod spatial;
mod store;
pub mod token;
pub mod wal_record;

pub use database::PictorialDatabase;
pub use error::PsqlError;
pub use exec::execute;
pub use parser::parse_query;
pub use result::ResultSet;
pub use spatial::SpatialOp;
pub use wal_record::InsertRecord;
