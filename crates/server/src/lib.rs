//! A concurrent query service for PSQL over packed R-trees.
//!
//! The paper's front end (§2) is an interactive pictorial database
//! serving many users at once; this crate supplies the serving layer the
//! in-process engine lacks:
//!
//! * [`protocol`] — a length-prefixed binary wire protocol over TCP
//!   (request id + PSQL text in; typed result / typed error out), with
//!   defensive decoding: malformed input gets a typed `Protocol` error,
//!   never a panic.
//! * [`server`] — an event-driven connection core: one reactor thread
//!   multiplexes every connection over readiness notifications, with
//!   request pipelining, and owns each connection's bytes, kept in a
//!   machine with no socket. It answers each query in the turn that
//!   reads it and parks a `#sleep` query until it is due; the inserts it
//!   reads go to a fixed pool of worker threads over a *bounded* queue,
//!   which group-commit them and hand their answers back through one
//!   completion list. Per-request deadlines are answered with `Timeout`,
//!   a full queue or parked list at once with `Overloaded`
//!   (reject-with-retry backpressure; queries are otherwise held back by
//!   TCP), and graceful shutdown drains what is in flight.
//! * [`plan_cache`] — a bounded LRU cached-plan table keyed by query
//!   text: a compiled plan is reused while its snapshot epoch still
//!   matches.
//! * [`snapshot`] — the shared database: an `Arc`-swapped immutable
//!   [`snapshot::DatabaseSnapshot`] readers pin for one batch while the
//!   admin path (re-PACK / load picture) builds a replacement off-line
//!   and publishes it atomically. Readers never block on writers and
//!   never observe a half-built tree.
//! * [`metrics`] — a zero-dependency registry (counters, log₂ latency
//!   histograms) served by the protocol's `STATS` command beside the
//!   queue's own depth and high-water mark.
//! * [`client`] — a small blocking client used by tests, the CI smoke
//!   script, and `sysbench`'s served workloads.
//!
//! # Quick start
//!
//! ```
//! use psql::database::PictorialDatabase;
//! use psql_server::client::Client;
//! use psql_server::server::{Server, ServerConfig};
//!
//! let server = Server::start(
//!     PictorialDatabase::with_us_map(),
//!     "127.0.0.1:0",
//!     ServerConfig::default(),
//! )
//! .unwrap();
//! let mut client = Client::connect(server.local_addr()).unwrap();
//! let (epoch, result) = client
//!     .query_expect_result(
//!         "select city from cities on us-map at loc covered-by {82.5 +- 17.5, 25 +- 20}",
//!     )
//!     .unwrap();
//! assert_eq!(epoch, 1);
//! assert!(!result.is_empty());
//! server.stop();
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// Library code reports typed errors instead of panicking; unit tests
// (cfg(test)) may still unwrap.
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod client;
pub mod metrics;
pub mod plan_cache;
pub mod protocol;
pub mod queue;
mod reactor;
pub mod server;
#[cfg(test)]
mod sim;
pub mod snapshot;

pub use client::{Client, ClientError};
pub use metrics::Metrics;
pub use protocol::{ErrorKind, Request, Response};
pub use server::{Server, ServerConfig};
pub use snapshot::{DatabaseSnapshot, SnapshotCell};
