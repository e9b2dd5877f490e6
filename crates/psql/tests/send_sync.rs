//! Compile-time thread-safety audit of the shared read path.
//!
//! The concurrent query service shares one immutable [`PictorialDatabase`]
//! snapshot across worker threads, so every type on the read path must be
//! `Send + Sync` — which in turn requires that the search path holds no
//! unsynchronised interior mutability (no `Cell`/`RefCell`) and no
//! thread-bound handles (no `Rc`). The one piece of interior mutability
//! there is, is `Sync`: the write-once cell (`OnceLock`) in which a
//! never-packed [`Picture`] builds its tree at the first query. These
//! assertions are evaluated at compile time: if a future change
//! introduces anything thread-bound in the query path, this test file
//! stops building.
//!
//! [`SearchScratch`] is deliberately *not* required to be shared: it is
//! mutable per-thread buffer space. It must still be `Send` so a worker
//! pool can own one per thread.

use psql::database::PictorialDatabase;
use psql::functions::FunctionRegistry;
use psql::picture::Picture;
use psql::result::ResultSet;
use psql::PsqlError;
use rtree_index::{RTree, SearchScratch, SearchStats};
use std::sync::Arc;

fn assert_send_sync<T: Send + Sync>() {}
fn assert_send<T: Send>() {}

#[test]
fn shared_read_path_is_send_sync() {
    // The database snapshot shared by all sessions.
    assert_send_sync::<PictorialDatabase>();
    assert_send_sync::<Arc<PictorialDatabase>>();
    // Its pieces.
    assert_send_sync::<Picture>();
    assert_send_sync::<RTree>();
    assert_send_sync::<pictorial_relational::Catalog>();
    // The executor's inputs and outputs cross thread boundaries too: a
    // registry is shared by all workers, results travel back to
    // connection writers.
    assert_send_sync::<FunctionRegistry>();
    assert_send_sync::<ResultSet>();
    assert_send_sync::<PsqlError>();
    assert_send_sync::<SearchStats>();
}

#[test]
fn scratch_is_send_but_stays_thread_local() {
    // A worker pool moves each scratch into its thread once; it is never
    // shared, so `Sync` is not required (and not relied upon).
    assert_send::<SearchScratch>();
}

#[test]
fn executor_runs_against_a_shared_snapshot() {
    // Not just a trait check: actually query one snapshot from several
    // threads at once through the scratch-reusing entry point.
    let db = Arc::new(PictorialDatabase::with_us_map());
    let functions = Arc::new(FunctionRegistry::with_builtins());
    let query = psql::parse_query(
        "select city from cities on us-map at loc covered-by {82.5 +- 17.5, 25 +- 20}",
    )
    .unwrap();
    let query = Arc::new(query);
    let mut handles = Vec::new();
    for _ in 0..4 {
        let db = Arc::clone(&db);
        let functions = Arc::clone(&functions);
        let query = Arc::clone(&query);
        handles.push(std::thread::spawn(move || {
            let mut scratch = SearchScratch::new();
            let mut lens = Vec::new();
            for _ in 0..50 {
                let r = psql::exec::execute_with_scratch(&db, &query, &functions, &mut scratch)
                    .unwrap();
                lens.push(r.len());
            }
            lens
        }));
    }
    for h in handles {
        let lens = h.join().unwrap();
        assert!(lens.iter().all(|&n| n == lens[0]));
        assert!(lens[0] >= 10, "eastern window should hold many cities");
    }
}
