//! The concurrent query service: an event-driven I/O core feeding a
//! fixed worker pool over a bounded queue, with per-request deadlines,
//! backpressure, a cached-plan table, and graceful drain-on-shutdown.
//!
//! ## Threading model
//!
//! * One **reactor thread** (see [`crate::reactor`]) owns the listener
//!   and every connection: nonblocking accept into a slab, incremental
//!   frame reassembly per connection, and all socket writes. Cheap
//!   control requests (`PING`, `STATS`) are answered inline on the
//!   reactor; queries and inserts go to the bounded worker queue; a
//!   `REPACK` waits in a small bounded slot for the rebuild thread, so
//!   a long rebuild never stalls the queue or the loop. A full queue or
//!   slot is answered immediately with `Overloaded` — the reactor never
//!   blocks on the pool.
//! * `workers` **worker threads** dequeue whatever jobs are waiting, up
//!   to `max_batch` at once, and pin the current database snapshot for
//!   that batch, dropping it before they block again. The inserts among
//!   the jobs commit under one WAL sync and one publication; then each
//!   query is answered on its own through one function (deadline,
//!   cached plan, execution), and the jobs' response frames go onto the
//!   reactor's one completion list, tagged with their connections'
//!   tokens, for the reactor to write.
//! * One **rebuild thread** replaces packed generations: every
//!   picture's when a `REPACK` waits, the pictures holding a delta when
//!   the delta population passes `merge_threshold`. Either way it packs
//!   a clone under no lock and takes the writer lock only to catch up
//!   and publish, so no insert ever waits for a pack.
//!
//! There are *no per-connection threads*: ten thousand idle connections
//! cost ten thousand slab entries, not ten thousand stacks.
//!
//! Responses may interleave across requests of one connection (that is
//! what the request id is for): completion order, not submission order.
//! Each response frame is queued atomically, so frames never interleave
//! mid-frame.

use crate::metrics::{Metrics, PictureGauge};
use crate::plan_cache::PlanCache;
use crate::protocol::{decode_request, peek_request_id, ErrorKind, Request, Response};
use crate::queue::{BoundedQueue, PushError};
use crate::reactor::{reactor_loop, Notifier, Session};
use crate::snapshot::{DatabaseSnapshot, SnapshotCell};
use psql::database::PictorialDatabase;
use psql::functions::FunctionRegistry;
use psql::plan::Plan;
use psql::{InsertRecord, PsqlError, ResultSet};
use rtree_index::SearchScratch;
use rtree_storage::{Pager, Wal, WAL_RECORD_MAX};
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::os::fd::AsRawFd;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tuning knobs for [`Server::start`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Number of query worker threads.
    pub workers: usize,
    /// Bounded request-queue capacity; pushes beyond this are answered
    /// `Overloaded`.
    pub queue_capacity: usize,
    /// Deadline applied to queries that don't carry their own
    /// `timeout_ms`.
    pub default_deadline: Duration,
    /// Jobs a worker dequeues at once; the inserts among them share one
    /// WAL sync and one publication. Whatever backlog is already queued
    /// rides along (a worker never waits for more).
    pub max_batch: usize,
    /// Write-ahead-log file for dynamic inserts. When set, every insert
    /// is appended + fsynced (group commit per dequeued pack) *before* it
    /// is acknowledged, and startup replays the log into the delta trees.
    /// `None` keeps inserts memory-only (tests, ephemeral servers).
    pub wal_path: Option<PathBuf>,
    /// Delta-tree population that wakes the background merge: once this
    /// many objects sit in delta trees, the rebuild thread folds them
    /// into freshly packed + frozen main trees and publishes the result.
    /// `usize::MAX` disables background merging (admin `REPACK` still
    /// folds deltas).
    pub merge_threshold: usize,
    /// How often the rebuild thread polls the delta population.
    pub merge_interval: Duration,
    /// Entries in the cached-plan table (query text → epoch-stamped
    /// plan). `0` disables plan caching.
    pub plan_cache_capacity: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 4,
            queue_capacity: 64,
            default_deadline: Duration::from_secs(5),
            max_batch: 32,
            wal_path: None,
            merge_threshold: 128,
            merge_interval: Duration::from_millis(20),
            plan_cache_capacity: 256,
        }
    }
}

/// What a queued job asks the worker pool to do.
pub(crate) enum JobKind {
    /// Parse + execute PSQL text.
    Query(String),
    /// Durably insert one object into a picture.
    Insert(InsertRecord),
}

/// One queued request.
pub(crate) struct Job {
    id: u64,
    kind: JobKind,
    deadline: Instant,
    session: Arc<Session>,
}

/// One accepted `REPACK`, waiting for the rebuild that answers it.
pub(crate) struct Repack {
    id: u64,
    session: Arc<Session>,
}

pub(crate) struct Shared {
    pub(crate) config: ServerConfig,
    pub(crate) addr: SocketAddr,
    pub(crate) snapshots: Arc<SnapshotCell>,
    pub(crate) metrics: Arc<Metrics>,
    pub(crate) functions: FunctionRegistry,
    pub(crate) queue: BoundedQueue<Job>,
    /// `REPACK`s waiting for a rebuild. The rebuild thread drains the
    /// slot whole, so several waiting at once share one rebuild.
    pub(crate) repacks: BoundedQueue<Repack>,
    pub(crate) plans: PlanCache,
    pub(crate) notifier: Arc<Notifier>,
    pub(crate) shutting_down: AtomicBool,
    /// Set by the reactor once it has stopped interpreting new requests
    /// (shutdown observed) — the gate [`Server::wait`] needs before it
    /// may close the worker queue.
    pub(crate) reader_stopped: AtomicBool,
    /// Set by [`Server::wait`] after the workers are joined: every
    /// response that will ever exist is on the completion list, so the
    /// reactor may write what is left and exit.
    pub(crate) workers_done: AtomicBool,
    /// Serializes *writers* (insert batches, a rebuild's publication):
    /// each clones the latest snapshot, mutates, and publishes. Two
    /// concurrent clone-mutate-publish cycles would silently drop
    /// whichever published first, so every mutation holds this lock
    /// around its whole read-modify-publish. Readers never touch it. The
    /// WAL lives inside so "durable before published" is one critical
    /// section. A rebuild packs *outside* it and takes it only to
    /// re-apply what was written meanwhile and publish, so an insert
    /// never waits for a pack.
    write_lock: Mutex<Option<Wal<Pager>>>,
}

/// A running query service. Dropping the handle does *not* stop the
/// server; call [`Server::stop`] (or send the protocol `SHUTDOWN`
/// request and then [`Server::wait`]).
pub struct Server {
    shared: Arc<Shared>,
    reactor_thread: Option<JoinHandle<()>>,
    rebuild_thread: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port), serves
    /// `db` as the epoch-1 snapshot, and spawns the reactor plus the
    /// worker pool.
    ///
    /// When [`ServerConfig::wal_path`] is set, the log is opened (or
    /// created) first and every intact record is replayed into `db`'s
    /// delta trees before the snapshot is published — crash recovery for
    /// acknowledged dynamic writes.
    pub fn start(
        mut db: PictorialDatabase,
        addr: &str,
        config: ServerConfig,
    ) -> io::Result<Server> {
        assert!(config.workers >= 1);
        let metrics = Metrics::default();
        let wal = match &config.wal_path {
            Some(path) => {
                let pager = if path.exists() {
                    Pager::open(path)?
                } else {
                    Pager::create(path)?
                };
                let (wal, records) = Wal::open(pager)
                    .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
                let mut recovered = 0u64;
                for bytes in &records {
                    // The WAL layer only surfaces whole records, so a
                    // decode failure here means corruption beyond a torn
                    // tail — refuse to start on it.
                    let rec = InsertRecord::decode(bytes).map_err(|e| {
                        io::Error::new(
                            io::ErrorKind::InvalidData,
                            format!("undecodable WAL record: {e}"),
                        )
                    })?;
                    match db.add_object(&rec.picture, rec.object, &rec.label) {
                        Ok(_) => recovered += 1,
                        Err(e) => {
                            // A record for a picture the base database no
                            // longer has: skip, don't refuse service.
                            eprintln!("[psql-server] WAL replay skipped a record: {e}");
                        }
                    }
                }
                metrics.wal_recovered.store(recovered);
                if recovered > 0 {
                    eprintln!(
                        "[psql-server] WAL recovery replayed {recovered} insert(s) into delta trees"
                    );
                }
                Some(wal)
            }
            None => None,
        };

        let listener = TcpListener::bind(addr)?;
        // std's bind hard-codes a backlog of 128; a connection storm
        // overflows that into SYN retransmit stalls. Deepen it.
        let _ = epoll::listen_backlog(listener.as_raw_fd(), 4096);
        let local_addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            queue: BoundedQueue::new(config.queue_capacity),
            repacks: BoundedQueue::new(4),
            plans: PlanCache::new(config.plan_cache_capacity),
            notifier: Arc::new(Notifier::new()?),
            config,
            addr: local_addr,
            snapshots: Arc::new(SnapshotCell::new(db)),
            metrics: Arc::new(metrics),
            functions: FunctionRegistry::with_builtins(),
            shutting_down: AtomicBool::new(false),
            reader_stopped: AtomicBool::new(false),
            workers_done: AtomicBool::new(false),
            write_lock: Mutex::new(wal),
        });
        // The registry mirrors the published snapshot from the moment of
        // publication (not lazily at STATS time) — WAL-recovered deltas
        // are visible in the gauges immediately.
        refresh_snapshot_gauges(&shared);

        let mut workers = Vec::with_capacity(shared.config.workers);
        for i in 0..shared.config.workers {
            let shared = Arc::clone(&shared);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("psql-worker-{i}"))
                    .spawn(move || worker_loop(&shared))?,
            );
        }

        let rebuild_shared = Arc::clone(&shared);
        let rebuild_thread = std::thread::Builder::new()
            .name("psql-rebuild".into())
            .spawn(move || rebuild_loop(&rebuild_shared))?;

        let reactor_shared = Arc::clone(&shared);
        let reactor_thread = std::thread::Builder::new()
            .name("psql-reactor".into())
            .spawn(move || reactor_loop(listener, &reactor_shared))?;

        Ok(Server {
            shared,
            reactor_thread: Some(reactor_thread),
            rebuild_thread: Some(rebuild_thread),
            workers,
        })
    }

    /// The bound address (useful with ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// The snapshot publication point — the in-process admin interface
    /// (tests and embedders republish through this).
    pub fn snapshots(&self) -> Arc<SnapshotCell> {
        Arc::clone(&self.shared.snapshots)
    }

    /// The metrics registry.
    pub fn metrics(&self) -> Arc<Metrics> {
        Arc::clone(&self.shared.metrics)
    }

    /// Triggers graceful shutdown without waiting: stop accepting, let
    /// queued queries drain. Idempotent.
    pub fn begin_shutdown(&self) {
        begin_shutdown(&self.shared);
    }

    /// Blocks until the server has fully shut down (someone must have
    /// triggered it — [`Server::begin_shutdown`] or a protocol
    /// `SHUTDOWN`), joining every thread and draining in-flight queries.
    pub fn wait(mut self) {
        // The reactor observes the shutdown flag (waker poke or its
        // 100ms tick), stops interpreting new requests, and raises
        // `reader_stopped` — after which no new jobs can be produced.
        while !self.shared.reader_stopped.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(1));
        }
        self.shared.queue.close();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        // Closing the slot wakes the rebuild thread at once; `REPACK`s
        // it had accepted are still answered first.
        self.shared.repacks.close();
        if let Some(r) = self.rebuild_thread.take() {
            let _ = r.join();
        }
        // Every response that will ever exist is now queued; let the
        // reactor flush them out and exit.
        self.shared.workers_done.store(true, Ordering::SeqCst);
        self.shared.notifier.wake();
        if let Some(r) = self.reactor_thread.take() {
            let _ = r.join();
        }
    }

    /// [`Server::begin_shutdown`] + [`Server::wait`].
    pub fn stop(self) {
        self.begin_shutdown();
        self.wait();
    }
}

fn begin_shutdown(shared: &Shared) {
    if !shared.shutting_down.swap(true, Ordering::SeqCst) {
        // Poke the reactor out of its wait so it observes the flag now.
        shared.notifier.wake();
    }
}

/// Mirrors the published snapshot's write-path view (delta population,
/// frozen-tree invariant, per-picture sizes) into the metrics registry.
/// Called at every snapshot publication — insert batch or rebuild — so
/// the gauges are always as fresh as the snapshot itself. Everything is
/// computed from lengths; nothing walks the heap.
fn refresh_snapshot_gauges(shared: &Shared) {
    let snap = shared.snapshots.load();
    shared.metrics.delta_items.store(snap.db.delta_len() as u64);
    shared
        .metrics
        .serves_frozen_queries
        .store(snap.db.frozen_intact() as u64);
    let mut pictures: Vec<PictureGauge> = snap
        .db
        .pictures()
        .map(|pic| {
            let (packed_bytes, delta_bytes) = pic.estimated_bytes();
            PictureGauge {
                name: pic.name().to_owned(),
                packed_objects: pic.packed_len() as u64,
                delta_objects: pic.delta_len() as u64,
                packed_bytes: packed_bytes as u64,
                delta_bytes: delta_bytes as u64,
            }
        })
        .collect();
    pictures.sort_by(|a, b| a.name.cmp(&b.name));
    *shared
        .metrics
        .pictures
        .lock()
        .unwrap_or_else(|e| e.into_inner()) = pictures;
}

/// Handles one well-framed payload on the reactor thread. Returns
/// `false` when the connection should flush-and-close (shutdown
/// acknowledged).
pub(crate) fn handle_frame(payload: &[u8], session: &Arc<Session>, shared: &Arc<Shared>) -> bool {
    let request = match decode_request(payload) {
        Ok(r) => r,
        Err(message) => {
            // Malformed payload inside a well-delimited frame: typed
            // error, session stays up.
            shared.metrics.protocol_errors.incr();
            session.send(&Response::Error {
                id: peek_request_id(payload),
                kind: ErrorKind::Protocol,
                message,
            });
            return true;
        }
    };
    match request {
        Request::Ping { id } => {
            shared.metrics.control_requests.incr();
            session.send(&Response::Pong { id });
        }
        Request::Stats { id } => {
            shared.metrics.control_requests.incr();
            shared
                .metrics
                .plan_cache_entries
                .store(shared.plans.len() as u64);
            let json = shared.metrics.to_json(
                shared.snapshots.current_epoch(),
                shared.config.queue_capacity,
                shared.config.workers,
            );
            session.send(&Response::Stats { id, json });
        }
        Request::Repack { id } => {
            shared.metrics.control_requests.incr();
            let waiter = Repack {
                id,
                session: Arc::clone(session),
            };
            if let Err(refused) = shared.repacks.try_push(waiter) {
                refuse(shared, session, id, refused);
            }
        }
        Request::Shutdown { id } => {
            shared.metrics.control_requests.incr();
            session.send(&Response::Done {
                id,
                epoch: shared.snapshots.current_epoch(),
            });
            begin_shutdown(shared);
            return false;
        }
        Request::Query {
            id,
            timeout_ms,
            text,
        } => {
            shared.metrics.queries.incr();
            let budget = if timeout_ms == 0 {
                shared.config.default_deadline
            } else {
                Duration::from_millis(timeout_ms as u64)
            };
            enqueue(shared, id, JobKind::Query(text), budget, session);
        }
        Request::Insert {
            id,
            picture,
            label,
            object,
        } => {
            // Ingest rides the same worker pool and bounded queue as
            // queries: full queue → Overloaded, never an unbounded
            // buffer of pending writes.
            let record = InsertRecord {
                picture,
                label,
                object,
            };
            enqueue(
                shared,
                id,
                JobKind::Insert(record),
                shared.config.default_deadline,
                session,
            );
        }
    }
    true
}

/// Pushes one job onto the bounded queue, answering `Overloaded` /
/// shutdown errors inline.
fn enqueue(shared: &Arc<Shared>, id: u64, kind: JobKind, budget: Duration, session: &Arc<Session>) {
    let job = Job {
        id,
        kind,
        deadline: Instant::now() + budget,
        session: Arc::clone(session),
    };
    match shared.queue.try_push(job) {
        Ok(()) => shared.metrics.queue_depth.inc(),
        Err(refused) => refuse(shared, session, id, refused),
    }
}

/// Back-off hint carried in `Overloaded` responses.
const RETRY_AFTER_MS: u32 = 10;

/// Answers a request a bounded queue would not take: `Overloaded` from a
/// full one, the typed shutdown error from a closed one.
fn refuse<T>(shared: &Shared, session: &Session, id: u64, refused: PushError<T>) {
    match refused {
        PushError::Full(_) => {
            shared.metrics.overloads.incr();
            session.send(&Response::Overloaded {
                id,
                retry_after_ms: RETRY_AFTER_MS,
            });
        }
        PushError::Closed(_) => session.send(&shutting_down(id)),
    }
}

/// What a request accepted too late to be served is answered.
fn shutting_down(id: u64) -> Response {
    Response::Error {
        id,
        kind: ErrorKind::Internal,
        message: "server is shutting down".into(),
    }
}

fn worker_loop(shared: &Arc<Shared>) {
    let mut scratch = SearchScratch::new();
    let mut jobs: Vec<Job> = Vec::new();
    let max_batch = shared.config.max_batch.max(1);
    loop {
        jobs.clear();
        let n = shared.queue.pop_batch(&mut jobs, max_batch);
        if n == 0 {
            break;
        }
        shared.metrics.queue_depth.sub(n as i64);
        // Pinned for this pack only: the pin drops at the end of the
        // iteration, before the worker blocks again, so an idle worker
        // never keeps a superseded packed generation resident.
        let mut snapshot = shared.snapshots.load();

        // Ingest first: all inserts in the dequeued pack WAL-commit as a
        // group (one fsync) and publish as one snapshot, which the
        // pack's queries then read — writes ordered before reads that
        // were queued behind them.
        if jobs.iter().any(|j| matches!(j.kind, JobKind::Insert(_))) {
            ingest_batch(shared, &snapshot, &jobs);
            snapshot = shared.snapshots.load();
        }

        // Each query is answered on its own; the pack's responses leave
        // together once the last is built.
        let answers: Vec<(&Job, Response)> = jobs
            .iter()
            .filter_map(|job| match &job.kind {
                JobKind::Query(text) => {
                    Some((job, answer(shared, &snapshot, job, text, &mut scratch)))
                }
                JobKind::Insert(_) => None, // acknowledged by ingest_batch
            })
            .collect();
        for (job, response) in answers {
            job.session.send(&response);
        }
    }
}

/// Parses and plans one query text against a pinned snapshot, going
/// through the cached-plan table: a hit (plan stamped with this
/// snapshot's epoch) skips parse *and* plan; a miss, a stale stamp
/// included, prepares from scratch and stores the plan. Parse/plan
/// failures are never cached.
fn prepare(
    db: &PictorialDatabase,
    epoch: u64,
    text: &str,
    plans: &PlanCache,
    metrics: &Metrics,
) -> Result<Arc<Plan>, PsqlError> {
    if let Some(plan) = plans.get(text, epoch) {
        metrics.plan_cache_hits.incr();
        return Ok(plan);
    }
    metrics.plan_cache_misses.incr();
    let query = psql::parse_query(text)?;
    let plan = Arc::new(psql::plan::plan(db, &query)?);
    if plans.store(text, epoch, Arc::clone(&plan)) {
        metrics.plan_cache_evictions.incr();
    }
    Ok(plan)
}

/// Applies every insert in a dequeued pack as one group commit: validate
/// against the pinned snapshot, append all records to the WAL under one
/// fsync, publish one snapshot holding all of them, then acknowledge.
/// Nothing is acknowledged before it is durable (when a WAL is
/// configured) *and* published.
fn ingest_batch(shared: &Arc<Shared>, snapshot: &DatabaseSnapshot, jobs: &[Job]) {
    let mut accepted: Vec<(&Job, &InsertRecord, Vec<u8>)> = Vec::new();
    for job in jobs {
        let JobKind::Insert(rec) = &job.kind else {
            continue;
        };
        if Instant::now() > job.deadline {
            shared.metrics.timeouts.incr();
            job.session.send(&Response::Timeout { id: job.id });
            continue;
        }
        if let Err(e) = snapshot.db.picture(&rec.picture) {
            shared.metrics.query_errors.incr();
            job.session.send(&Response::Error {
                id: job.id,
                kind: ErrorKind::from(&e),
                message: e.to_string(),
            });
            continue;
        }
        match rec.encode() {
            Ok(bytes) if bytes.len() <= WAL_RECORD_MAX => accepted.push((job, rec, bytes)),
            Ok(bytes) => {
                shared.metrics.query_errors.incr();
                job.session.send(&Response::Error {
                    id: job.id,
                    kind: ErrorKind::Semantic,
                    message: format!(
                        "insert of {} bytes exceeds the WAL record limit {WAL_RECORD_MAX}",
                        bytes.len()
                    ),
                });
            }
            Err(e) => {
                shared.metrics.query_errors.incr();
                job.session.send(&Response::Error {
                    id: job.id,
                    kind: ErrorKind::from(&e),
                    message: e.to_string(),
                });
            }
        }
    }
    if accepted.is_empty() {
        return;
    }

    // The writer lock spans WAL commit *and* snapshot publication, so
    // the durable order and the published order can never diverge, and
    // no concurrent writer can publish a snapshot missing these records.
    let mut writer = shared.write_lock.lock().unwrap_or_else(|e| e.into_inner());
    if let Some(wal) = writer.as_mut() {
        let mut bytes_appended = 0u64;
        let committed = (|| {
            for (_, _, bytes) in &accepted {
                wal.append(bytes)?;
                bytes_appended += bytes.len() as u64;
            }
            wal.sync()
        })();
        match committed {
            Ok(()) => {
                shared.metrics.wal_appends.add(accepted.len() as u64);
                shared.metrics.wal_bytes.add(bytes_appended);
                shared.metrics.wal_syncs.incr();
            }
            Err(e) => {
                // Durability failed: acknowledge nothing, apply nothing.
                // (The WAL rolls back its in-memory framing on a failed
                // append, so the next batch starts from a clean tail.)
                drop(writer);
                shared.metrics.internal_errors.add(accepted.len() as u64);
                for (job, _, _) in &accepted {
                    job.session.send(&Response::Error {
                        id: job.id,
                        kind: ErrorKind::Internal,
                        message: format!("write-ahead log failure: {e}"),
                    });
                }
                return;
            }
        }
    }
    let publishing = Instant::now();
    let epoch = shared.snapshots.update(|db| {
        for (_, rec, _) in &accepted {
            let opens_delta = db
                .picture(&rec.picture)
                .map(|p| {
                    // A never-packed picture builds its tree behind
                    // `&self`. Build it here, while the published
                    // snapshot still shares the picture, or a reader
                    // builds it on every snapshot this writer has
                    // already copied.
                    if p.frozen().is_none() {
                        p.tree();
                    }
                    p.frozen().is_some() && p.delta_len() == 0
                })
                .unwrap_or(false);
            match db.add_object(&rec.picture, rec.object.clone(), &rec.label) {
                Ok(_) => {
                    if opens_delta {
                        eprintln!(
                            "[psql-server] picture {:?}: first dynamic write since pack — \
                             frozen tree retained, insert buffered in delta (merge pending)",
                            rec.picture
                        );
                    }
                }
                Err(e) => {
                    // Validated above against the same lineage; a failure
                    // here would be a picture vanishing mid-flight.
                    eprintln!("[psql-server] insert apply failed after WAL commit: {e}");
                }
            }
        }
    });
    shared.metrics.publish_latency.record(publishing.elapsed());
    drop(writer);
    refresh_snapshot_gauges(shared);
    shared.metrics.snapshots_published.incr();
    shared.metrics.inserts.add(accepted.len() as u64);
    for (job, _, _) in &accepted {
        shared.metrics.ok.incr();
        job.session.send(&Response::Done { id: job.id, epoch });
    }
}

/// The rebuild thread, the one place a packed generation is replaced. A
/// waiting `REPACK` rebuilds every picture; without one, a delta
/// population at or over `merge_threshold` rebuilds the pictures holding
/// a delta. Queries keep serving the old snapshot throughout, and so do
/// writers: the O(N) pack runs on a clone outside the writer lock
/// ([`pack_rebuild`]), which is then taken only for the O(delta) catch-up
/// and the swap ([`publish_rebuild`]). Every `REPACK` that waited is
/// answered with the epoch its rebuild published. The loop wakes when a
/// `REPACK` arrives, at each `merge_interval`, and when the slot closes —
/// which ends it once the `REPACK`s accepted before have been served.
fn rebuild_loop(shared: &Arc<Shared>) {
    let mut waiting: Vec<Repack> = Vec::new();
    let patience = shared.config.merge_interval;
    while shared
        .repacks
        .pop_batch_timeout(&mut waiting, usize::MAX, patience)
        .is_some()
    {
        let forced = !waiting.is_empty();
        if !forced && shared.snapshots.load().db.delta_len() < shared.config.merge_threshold {
            continue;
        }
        let epoch = finish_rebuild(shared, pack_rebuild(shared, forced));
        for Repack { id, session } in waiting.drain(..) {
            session.send(&match epoch {
                Some(epoch) => Response::Done { id, epoch },
                None => shutting_down(id),
            });
        }
    }
}

/// A rebuild between its two halves: packed, not yet published.
struct PendingRebuild {
    started: Instant,
    /// A `REPACK` waits on it: every picture was packed, not only those
    /// holding a delta, and a stale result is packed again.
    forced: bool,
    /// The snapshot the rebuild cloned.
    base: Arc<DatabaseSnapshot>,
    /// `base.db` with new packed generations and no delta in them.
    rebuilt: PictorialDatabase,
}

/// First half of a rebuild, under no lock: clone the current snapshot
/// (free) and re-pack — every picture when `forced`, else those holding
/// a delta. Inserts keep publishing meanwhile.
fn pack_rebuild(shared: &Shared, forced: bool) -> PendingRebuild {
    let started = Instant::now();
    let base = shared.snapshots.load();
    let mut rebuilt = base.db.clone();
    if forced {
        rebuilt.pack_all();
    } else {
        rebuilt.merge_deltas();
    }
    PendingRebuild {
        started,
        forced,
        base,
        rebuilt,
    }
}

/// Second half, under the writer lock: re-add the objects acknowledged
/// since `pack_rebuild` cloned its base into the new generations' deltas
/// and publish — or discard the rebuild if another pack was published in
/// between (through [`Server::snapshots`]; nothing in the server does).
/// Either way every acknowledged insert is in the published snapshot.
/// Returns the epoch published, if any.
fn publish_rebuild(shared: &Shared, rebuild: PendingRebuild) -> Option<u64> {
    let guard = shared.write_lock.lock().unwrap_or_else(|e| e.into_inner());
    let publishing = Instant::now();
    let mut next = shared.snapshots.load().db.clone();
    let epoch = next
        .adopt_merge(&rebuild.base.db, &rebuild.rebuilt)
        .then(|| shared.snapshots.publish(next));
    shared.metrics.publish_latency.record(publishing.elapsed());
    drop(guard);
    shared
        .metrics
        .admin_latency
        .record(rebuild.started.elapsed());
    let what = if rebuild.forced {
        "REPACK"
    } else {
        "background merge"
    };
    match epoch {
        Some(epoch) => {
            refresh_snapshot_gauges(shared);
            shared.metrics.merges.incr();
            shared.metrics.snapshots_published.incr();
            eprintln!(
                "[psql-server] {what} folded every delta into packed + frozen main trees \
                 (epoch {epoch}, {:?})",
                rebuild.started.elapsed()
            );
        }
        None => {
            shared.metrics.merges_discarded.incr();
            eprintln!(
                "[psql-server] {what} discarded: another pack was published while it packed \
                 ({:?})",
                rebuild.started.elapsed()
            );
        }
    }
    epoch
}

/// Publishes `rebuild`, packing again for as long as it turns out stale
/// and a `REPACK` waits on it. `None` when nothing was published: a
/// stale background merge (the next tick starts over), or a stale
/// `REPACK` at shutdown.
fn finish_rebuild(shared: &Shared, mut rebuild: PendingRebuild) -> Option<u64> {
    loop {
        let forced = rebuild.forced;
        let epoch = publish_rebuild(shared, rebuild);
        if epoch.is_some() || !forced || shared.shutting_down.load(Ordering::SeqCst) {
            return epoch;
        }
        rebuild = pack_rebuild(shared, true);
    }
}

/// Answers one query job: deadline check, prepare (through the plan
/// cache) + execute under `catch_unwind`, deadline re-check. One
/// expired, malformed or panicking job is answered alone; it never
/// touches its pack-mates.
fn answer(
    shared: &Shared,
    snapshot: &DatabaseSnapshot,
    job: &Job,
    text: &str,
    scratch: &mut SearchScratch,
) -> Response {
    if Instant::now() > job.deadline {
        // Expired while queued: answer without executing.
        shared.metrics.timeouts.incr();
        return Response::Timeout { id: job.id };
    }
    let started = Instant::now();
    let outcome = run_query(
        &snapshot.db,
        snapshot.epoch,
        text,
        &shared.functions,
        scratch,
        &shared.plans,
        &shared.metrics,
    );
    shared.metrics.query_latency.record(started.elapsed());
    if Instant::now() > job.deadline {
        // Finished, but past the promise: the client already moved
        // on, so report the timeout it observed.
        shared.metrics.timeouts.incr();
        return Response::Timeout { id: job.id };
    }
    match outcome {
        Ok(result) => {
            shared.metrics.ok.incr();
            Response::Result {
                id: job.id,
                epoch: snapshot.epoch,
                result,
            }
        }
        Err(QueryFailure::Psql(e)) => {
            shared.metrics.query_errors.incr();
            Response::Error {
                id: job.id,
                kind: ErrorKind::from(&e),
                message: e.to_string(),
            }
        }
        Err(QueryFailure::Panicked) => {
            shared.metrics.internal_errors.incr();
            Response::Error {
                id: job.id,
                kind: ErrorKind::Internal,
                message: "query execution panicked (contained; session unaffected)".into(),
            }
        }
    }
}

enum QueryFailure {
    Psql(PsqlError),
    Panicked,
}

/// Prepares (see [`prepare`]) and executes one query against a pinned
/// snapshot.
///
/// Supports one diagnostics directive: a query text of
/// `#sleep <millis>` (optionally followed by a query) sleeps before
/// executing — the deterministic way to exercise deadline enforcement
/// from tests and the CI smoke script.
#[allow(clippy::too_many_arguments)]
fn run_query(
    db: &PictorialDatabase,
    epoch: u64,
    text: &str,
    functions: &FunctionRegistry,
    scratch: &mut SearchScratch,
    plans: &PlanCache,
    metrics: &Metrics,
) -> Result<ResultSet, QueryFailure> {
    let mut text = text.trim();
    if let Some(rest) = text.strip_prefix("#sleep") {
        let rest = rest.trim_start();
        let (ms_str, remainder) = match rest.split_once(char::is_whitespace) {
            Some((ms, r)) => (ms, r.trim()),
            None => (rest, ""),
        };
        let ms: u64 = ms_str.parse().map_err(|_| {
            QueryFailure::Psql(PsqlError::Parse(format!(
                "#sleep wants milliseconds, got {ms_str:?}"
            )))
        })?;
        // Cap so a hostile client cannot park a worker for minutes.
        std::thread::sleep(Duration::from_millis(ms.min(10_000)));
        if remainder.is_empty() {
            return Ok(ResultSet::default());
        }
        text = remainder;
    }
    // Workers must survive any executor bug: contain panics and answer a
    // typed internal error instead. The snapshot is immutable, so no
    // broken invariants can leak out of an unwound execution.
    let result = catch_unwind(AssertUnwindSafe(|| {
        let plan = prepare(db, epoch, text, plans, metrics)?;
        psql::exec::execute_plan_with_scratch(db, &plan, functions, scratch)
    }));
    match result {
        Ok(Ok(rs)) => Ok(rs),
        Ok(Err(e)) => Err(QueryFailure::Psql(e)),
        Err(_) => Err(QueryFailure::Panicked),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use rtree_geom::{Point, SpatialObject};

    /// A server whose background merge never runs by itself, with three
    /// acknowledged inserts sitting in `us-map`'s delta, so the tests
    /// below can step a rebuild's two halves around other writers.
    fn server_with_delta() -> (Server, Client, usize) {
        let server = Server::start(
            PictorialDatabase::with_us_map(),
            "127.0.0.1:0",
            ServerConfig {
                merge_threshold: usize::MAX,
                ..ServerConfig::default()
            },
        )
        .expect("bind");
        let mut client =
            Client::connect_timeout(server.local_addr(), Duration::from_secs(30)).expect("connect");
        let baseline = server
            .shared
            .snapshots
            .load()
            .db
            .picture("us-map")
            .unwrap()
            .len();
        for i in 0..3 {
            let at = SpatialObject::Point(Point::new(30.0 + i as f64, 20.0));
            client
                .insert_expect_done("us-map", &format!("early-{i}"), at)
                .expect("insert acked");
        }
        (server, client, baseline)
    }

    /// Both triggers — the delta population and a REPACK — go through
    /// the same two halves, and an insert that gets in between them is
    /// acknowledged by a writer lock nobody holds and lands in the new
    /// generation's delta.
    #[test]
    fn insert_acknowledged_while_a_rebuild_packs_is_in_the_published_snapshot() {
        for forced in [false, true] {
            let (server, mut client, baseline) = server_with_delta();
            let before = server.shared.snapshots.load();
            let rebuild = pack_rebuild(&server.shared, forced);
            // The pack is done and unpublished; a writer gets in first.
            let late_epoch = client
                .insert_expect_done(
                    "us-map",
                    "late",
                    SpatialObject::Point(Point::new(77.0, 33.0)),
                )
                .expect("insert acked while the rebuild holds no lock");
            let epoch =
                publish_rebuild(&server.shared, rebuild).expect("nothing replaced the generation");
            assert!(epoch > late_epoch);

            let snap = server.shared.snapshots.load();
            assert_eq!(snap.epoch, epoch);
            let pic = snap.db.picture("us-map").unwrap();
            assert_eq!(
                pic.packed_len(),
                baseline + 3,
                "the rebuild folded the delta"
            );
            assert_eq!((pic.len(), pic.delta_len()), (baseline + 4, 1));
            assert_eq!(pic.label((baseline + 3) as u64), Some("late"));
            // Only a REPACK packs a picture that held no delta.
            let lakes = snap.db.picture("lake-map").unwrap();
            assert_eq!(
                lakes.shares_packed_with(before.db.picture("lake-map").unwrap()),
                !forced
            );
            let metrics = &server.shared.metrics;
            assert_eq!(metrics.merges.get(), 1);
            assert_eq!(metrics.merges_discarded.get(), 0);
            assert_eq!(metrics.delta_items.get(), 1, "gauges follow the rebuild");
            drop((before, snap));
            server.stop();
        }
    }

    /// Nothing in the server publishes a pack underneath a rebuild any
    /// more, but `Server::snapshots()` lets an embedder do it. The stale
    /// rebuild is never adopted; the background merge gives up until its
    /// next tick, and a REPACK — someone is waiting on it — packs again.
    #[test]
    fn rebuild_overtaken_by_a_published_pack_is_discarded_and_a_repack_packs_again() {
        for forced in [false, true] {
            let (server, _client, baseline) = server_with_delta();
            let stale = pack_rebuild(&server.shared, forced);
            let overtaking = server.snapshots().update(|db| db.pack_all());
            let epoch = finish_rebuild(&server.shared, stale);

            let snap = server.shared.snapshots.load();
            let metrics = &server.shared.metrics;
            assert_eq!(metrics.merges_discarded.get(), 1);
            if forced {
                assert_eq!(epoch, Some(snap.epoch));
                assert!(
                    snap.epoch > overtaking,
                    "the REPACK's own pack is published"
                );
                assert_eq!(metrics.merges.get(), 1);
            } else {
                assert_eq!(epoch, None);
                assert_eq!(snap.epoch, overtaking, "a stale merge publishes nothing");
                assert_eq!(metrics.merges.get(), 0);
            }
            // Whichever pack is being served, it lost nothing.
            for pic in snap.db.pictures() {
                assert!(pic.frozen().is_some() && pic.delta_len() == 0);
            }
            let pic = snap.db.picture("us-map").unwrap();
            assert_eq!(pic.packed_len(), baseline + 3);
            drop(snap);
            server.stop();
        }
    }

    #[test]
    fn sleep_directive_parses() {
        let db = PictorialDatabase::with_us_map();
        let functions = FunctionRegistry::with_builtins();
        let mut scratch = SearchScratch::new();
        let plans = PlanCache::new(16);
        let metrics = Metrics::default();
        let t0 = Instant::now();
        let r = run_query(
            &db,
            1,
            "#sleep 30",
            &functions,
            &mut scratch,
            &plans,
            &metrics,
        );
        assert!(t0.elapsed() >= Duration::from_millis(30));
        assert!(r.is_ok_and(|rs| rs.is_empty()));
        // Directive followed by a real query.
        let r = run_query(
            &db,
            1,
            "#sleep 1 select zone from time-zones",
            &functions,
            &mut scratch,
            &plans,
            &metrics,
        )
        .ok()
        .unwrap();
        assert_eq!(r.len(), 4);
        // The directive's trailing query went through the plan cache.
        assert_eq!(metrics.plan_cache_misses.get(), 1);
        // Bad millis is a parse error, not a hang.
        assert!(matches!(
            run_query(
                &db,
                1,
                "#sleep lots",
                &functions,
                &mut scratch,
                &plans,
                &metrics
            ),
            Err(QueryFailure::Psql(PsqlError::Parse(_)))
        ));
    }

    #[test]
    fn repeated_query_hits_the_plan_cache() {
        let db = PictorialDatabase::with_us_map();
        let functions = FunctionRegistry::with_builtins();
        let mut scratch = SearchScratch::new();
        let plans = PlanCache::new(16);
        let metrics = Metrics::default();
        let text = "select city from cities on us-map at loc covered-by {82.5 +- 17.5, 25 +- 20}";
        let first = run_query(&db, 1, text, &functions, &mut scratch, &plans, &metrics)
            .ok()
            .unwrap();
        let second = run_query(&db, 1, text, &functions, &mut scratch, &plans, &metrics)
            .ok()
            .unwrap();
        assert_eq!(first, second);
        assert_eq!(metrics.plan_cache_misses.get(), 1);
        assert_eq!(metrics.plan_cache_hits.get(), 1);
        // A new epoch is a miss, then re-stamps.
        let third = run_query(&db, 2, text, &functions, &mut scratch, &plans, &metrics)
            .ok()
            .unwrap();
        assert_eq!(first, third);
        assert_eq!(metrics.plan_cache_misses.get(), 2);
        let fourth = run_query(&db, 2, text, &functions, &mut scratch, &plans, &metrics)
            .ok()
            .unwrap();
        assert_eq!(first, fourth);
        assert_eq!(metrics.plan_cache_hits.get(), 2);
        // A REPACK replaces every tree the plan was compiled against and
        // publishes under a new epoch; the stamp alone retires the plan.
        let mut repacked = db.clone();
        repacked.pack_all();
        let fifth = run_query(
            &repacked,
            3,
            text,
            &functions,
            &mut scratch,
            &plans,
            &metrics,
        )
        .ok()
        .unwrap();
        assert_eq!(first, fifth);
        assert_eq!(metrics.plan_cache_misses.get(), 3, "a miss");
        assert_eq!(metrics.plan_cache_hits.get(), 2, "not a plan hit");
    }

    #[test]
    fn parse_errors_are_not_cached() {
        let db = PictorialDatabase::with_us_map();
        let functions = FunctionRegistry::with_builtins();
        let mut scratch = SearchScratch::new();
        let plans = PlanCache::new(16);
        let metrics = Metrics::default();
        for _ in 0..3 {
            assert!(matches!(
                run_query(
                    &db,
                    1,
                    "selectt nonsense",
                    &functions,
                    &mut scratch,
                    &plans,
                    &metrics
                ),
                Err(QueryFailure::Psql(_))
            ));
        }
        assert!(plans.is_empty());
        assert_eq!(metrics.plan_cache_misses.get(), 3);
    }
}
