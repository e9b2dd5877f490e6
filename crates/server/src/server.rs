//! The concurrent query service: an event-driven I/O core that answers
//! queries in the turn that reads them, a fixed pool of threads that
//! group-commit inserts over a bounded queue, per-request deadlines,
//! backpressure, a cached-plan table, and graceful drain-on-shutdown.
//!
//! ## Threading model
//!
//! * One **reactor thread** (the crate's `reactor` module) owns the
//!   listener and every connection: nonblocking accept into a slab,
//!   incremental frame reassembly per connection, and all socket writes.
//!   It answers every query itself, in the turn that reads it: the plan
//!   (cached or parsed), execution against the current snapshot, and the
//!   response frame encoded straight into the connection's unwritten
//!   bytes. `PING`, `STATS` and protocol errors are answered the same
//!   way. A query headed by `#sleep <ms>` is parked until its time is up
//!   and answered then; no thread sleeps on a client's behalf. The
//!   inserts one turn reads go onto the bounded queue in one push; a
//!   `REPACK` waits in a small bounded slot for the rebuild thread. A
//!   full queue, slot or parked list is answered at once with
//!   `Overloaded`; queries are otherwise held back by TCP alone, since
//!   the reactor reads one buffer per connection per turn. The reactor
//!   is the only producer of inserts and `REPACK`s, so when it stops
//!   reading — at shutdown, or when it fails — it closes the queue and
//!   the slot itself.
//! * `workers` **worker threads** each dequeue whatever inserts are
//!   waiting, up to `max_batch` at once, and commit them under one WAL
//!   sync and one publication.
//! * One **rebuild thread** replaces packed generations: every
//!   picture's when a `REPACK` waits, the pictures holding a delta when
//!   the delta population passes `merge_threshold`. Either way it packs
//!   a clone under no lock and takes the writer lock only to catch up
//!   and publish, so no insert ever waits for a pack.
//!
//! A query runs on the thread that owns every connection, so a long one
//! holds all of them until it ends; the reads of one process do not
//! spread over cores.
//!
//! There are *no per-connection threads*: ten thousand idle connections
//! cost ten thousand slab entries, not ten thousand stacks.
//! [`Server::wait`] only joins: the workers and the rebuild thread end
//! once the reactor has closed their intake and they have answered what
//! it accepted, and the reactor once it has answered its parked queries
//! and written what is left.
//!
//! ## The database side
//!
//! Below the transport the service is a handful of plain calls that take
//! no socket, queue handle or thread: `Shared::new` builds it,
//! `handle_frame` interprets one request frame and answers it into the
//! connection's machine, `Inline::end_turn` queues a turn's inserts and
//! answers the parked queries that are due, `serve` commits one dequeued
//! pack of inserts, `rebuild` is one wake of the rebuild thread and
//! `recover` replays the WAL. Answers made on other threads — insert
//! acknowledgements and `REPACK`s — leave through `Notifier::send`, onto
//! the one completion list the reactor hands to its connections. The
//! threads only loop over these calls, and a seeded simulation in the
//! crate's tests drives them directly in one thread, crashes included.
//!
//! The queries of one connection are answered in the order they arrive,
//! except parked ones; an insert or a `REPACK` is answered when it
//! completes, so the request id is the correlation. Each response frame
//! is queued whole, so frames never interleave mid-frame.

use crate::metrics::{Metrics, PictureGauge};
use crate::plan_cache::PlanCache;
use crate::protocol::{
    begin_frame, decode_request, encode_response_frame, end_frame, peek_request_id, ErrorKind,
    Request, Response, ResultWriter, MAX_FRAME_LEN,
};
use crate::queue::{BoundedQueue, PushError};
use crate::reactor::{reactor_loop, Conn, Notifier};
use crate::snapshot::{DatabaseSnapshot, SnapshotCell};
use psql::database::PictorialDatabase;
use psql::functions::FunctionRegistry;
use psql::{InsertRecord, PsqlError, ResultSet};
use rtree_index::SearchScratch;
use rtree_storage::{Pager, Wal, WAL_RECORD_MAX};
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::os::fd::AsRawFd;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tuning knobs for [`Server::start`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Number of worker threads committing inserts. Queries are answered
    /// on the reactor thread.
    pub workers: usize,
    /// Most inserts waiting for a worker, and most `#sleep` queries
    /// parked on the reactor; a request past either bound is answered
    /// `Overloaded`.
    pub queue_capacity: usize,
    /// Deadline applied to queries that don't carry their own
    /// `timeout_ms`, and to every insert.
    pub default_deadline: Duration,
    /// Inserts a worker dequeues at once, committed under one WAL sync
    /// and one publication. Whatever backlog is already queued rides
    /// along (a worker never waits for more).
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

/// A request waiting its turn, with the token of the connection it
/// answers: an insert waiting for a worker, or the text of a query
/// waiting out its `#sleep`.
pub(crate) struct Job<T = InsertRecord> {
    id: u64,
    token: u64,
    deadline: Instant,
    what: T,
}

/// One accepted `REPACK`, waiting for the rebuild that answers it.
pub(crate) struct Repack {
    id: u64,
    token: u64,
}

/// What the thread reading the connections owns of the database side, as
/// plain data: the reactor keeps one, and so does the simulation.
pub(crate) struct Inline {
    /// The clock of the current turn: a request read in it arrived then.
    pub(crate) now: Instant,
    scratch: SearchScratch,
    /// The cached-plan table every query is answered through.
    plans: PlanCache,
    /// Queries waiting out a `#sleep`, by due time (ties in arrival
    /// order).
    parked: Vec<(Instant, Job<String>)>,
    /// The inserts read this turn, queued together by
    /// [`Inline::end_turn`].
    inserts: Vec<Job>,
}

impl Inline {
    pub(crate) fn new(now: Instant, plan_cache_capacity: usize) -> Inline {
        Inline {
            now,
            scratch: SearchScratch::new(),
            plans: PlanCache::new(plan_cache_capacity),
            parked: Vec::new(),
            inserts: Vec::new(),
        }
    }

    /// When the first parked query is due, if any is parked.
    pub(crate) fn next_due(&self) -> Option<Instant> {
        self.parked.first().map(|(due, _)| *due)
    }

    /// Ends a turn at `now`: the inserts it read go onto the queue in one
    /// push, and every parked query due by `now` is answered through
    /// [`answer`], so one whose deadline passed while parked gets
    /// `Timeout`. `deliver` hands each answer to the connection whose
    /// token it carries, if that connection is still open, by calling
    /// it on the connection's machine.
    pub(crate) fn end_turn(
        &mut self,
        shared: &Shared,
        now: Instant,
        mut deliver: impl FnMut(u64, &mut dyn FnMut(&mut Conn)),
    ) {
        if !self.inserts.is_empty() {
            if let Err(refused) = shared.queue.try_push_all(&mut self.inserts) {
                let full = matches!(refused, PushError::Full(_));
                let (PushError::Full(jobs) | PushError::Closed(jobs)) = refused;
                for job in jobs {
                    let response = refusal(shared, job.id, full);
                    deliver(job.token, &mut |conn| conn.answer(&response));
                }
            }
        }
        let due = self.parked.partition_point(|(due, _)| *due <= now);
        if due > 0 {
            let snap = shared.snapshots.load();
            let (plans, scratch) = (&mut self.plans, &mut self.scratch);
            for (_, job) in self.parked.drain(..due) {
                let Job {
                    id,
                    token,
                    deadline,
                    what,
                } = job;
                deliver(token, &mut |conn| {
                    conn.answer_with(answer(shared, &snap, id, &what, deadline, plans, scratch));
                });
            }
        }
    }
}

/// The database side: everything but the sockets and the threads.
pub(crate) struct Shared {
    pub(crate) config: ServerConfig,
    pub(crate) snapshots: Arc<SnapshotCell>,
    pub(crate) metrics: Arc<Metrics>,
    pub(crate) functions: FunctionRegistry,
    /// Inserts waiting for a worker.
    pub(crate) queue: BoundedQueue<Job>,
    /// `REPACK`s waiting for a rebuild. The rebuild thread drains the
    /// slot whole, so several waiting at once share one rebuild.
    pub(crate) repacks: BoundedQueue<Repack>,
    /// Where the workers and the rebuild thread leave their answers.
    pub(crate) notifier: Notifier,
    pub(crate) shutting_down: AtomicBool,
    /// Set by [`Server::wait`] after the workers are joined: every
    /// answer another thread will ever make is on the completion list,
    /// so the reactor may answer its parked queries, write what is left
    /// and exit.
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

impl Shared {
    /// The database side serving `db` as the epoch-1 snapshot, with no
    /// listener, socket or thread. When `wal` is given, every insert is
    /// appended to it and synced before it is acknowledged.
    pub(crate) fn new(
        db: PictorialDatabase,
        config: ServerConfig,
        wal: Option<Wal<Pager>>,
        metrics: Metrics,
    ) -> io::Result<Shared> {
        let shared = Shared {
            queue: BoundedQueue::new(config.queue_capacity),
            repacks: BoundedQueue::new(4),
            notifier: Notifier::new()?,
            config,
            snapshots: Arc::new(SnapshotCell::new(db)),
            metrics: Arc::new(metrics),
            functions: FunctionRegistry::with_builtins(),
            shutting_down: AtomicBool::new(false),
            workers_done: AtomicBool::new(false),
            write_lock: Mutex::new(wal),
        };
        // The registry mirrors the published snapshot from the moment of
        // publication (not lazily at STATS time) — WAL-recovered deltas
        // are visible in the gauges immediately.
        refresh_snapshot_gauges(&shared);
        Ok(shared)
    }
}

/// Opens (or creates) the write-ahead log at `path` and replays every
/// intact record into `db`'s delta trees — crash recovery for
/// acknowledged inserts. Returns the log and the number of records
/// replayed.
pub(crate) fn recover(db: &mut PictorialDatabase, path: &Path) -> io::Result<(Wal<Pager>, u64)> {
    let pager = if path.exists() {
        Pager::open(path)?
    } else {
        Pager::create(path)?
    };
    let (wal, records) =
        Wal::open(pager).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    let mut recovered = 0u64;
    for bytes in &records {
        // The WAL layer only surfaces whole records, so a decode failure
        // here means corruption beyond a torn tail — refuse to start on
        // it.
        let rec = InsertRecord::decode(bytes).map_err(|e| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("undecodable WAL record: {e}"),
            )
        })?;
        match db.add_object(&rec.picture, rec.object, &rec.label) {
            Ok(_) => recovered += 1,
            Err(e) => {
                // A record for a picture the base database no longer
                // has: skip, don't refuse service.
                eprintln!("[psql-server] WAL replay skipped a record: {e}");
            }
        }
    }
    if recovered > 0 {
        eprintln!("[psql-server] WAL recovery replayed {recovered} insert(s) into delta trees");
    }
    Ok((wal, recovered))
}

/// A running query service. Dropping the handle does *not* stop the
/// server; call [`Server::stop`] (or send the protocol `SHUTDOWN`
/// request and then [`Server::wait`]).
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
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
                let (wal, recovered) = recover(&mut db, path)?;
                metrics.wal_recovered.store(recovered);
                Some(wal)
            }
            None => None,
        };

        let listener = TcpListener::bind(addr)?;
        // std's bind hard-codes a backlog of 128; a connection storm
        // overflows that into SYN retransmit stalls. Deepen it.
        let _ = epoll::listen_backlog(listener.as_raw_fd(), 4096);
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared::new(db, config, wal, metrics)?);

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
            addr,
            reactor_thread: Some(reactor_thread),
            rebuild_thread: Some(rebuild_thread),
            workers,
        })
    }

    /// The bound address (useful with ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
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
        // The reactor closes the queue and the REPACK slot once it stops
        // reading, so the workers and the rebuild thread end as soon as
        // they have answered everything it accepted.
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
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

/// Handles one well-framed payload read from the connection `token`
/// names, in the turn `inline.now` that read it. A query is answered
/// into `conn` at once, or parked when it opens with `#sleep`; so is
/// every control request but `REPACK`, which waits for the rebuild
/// thread. An insert waits in `inline` for the end of the turn. Returns
/// `false` when the connection should flush-and-close (shutdown
/// acknowledged).
pub(crate) fn handle_frame(
    payload: &[u8],
    token: u64,
    conn: &mut Conn,
    shared: &Shared,
    inline: &mut Inline,
) -> bool {
    let request = match decode_request(payload) {
        Ok(r) => r,
        Err(message) => {
            // Malformed payload inside a well-delimited frame: typed
            // error, session stays up.
            shared.metrics.protocol_errors.incr();
            let id = peek_request_id(payload);
            let kind = ErrorKind::Protocol;
            conn.answer(&Response::Error { id, kind, message });
            return true;
        }
    };
    let response = match request {
        Request::Ping { id } => {
            shared.metrics.control_requests.incr();
            Response::Pong { id }
        }
        Request::Stats { id } => {
            shared.metrics.control_requests.incr();
            shared
                .metrics
                .plan_cache_entries
                .store(inline.plans.len() as u64);
            let json = shared.metrics.to_json(
                shared.snapshots.current_epoch(),
                shared.queue.depth(),
                shared.config.queue_capacity,
                shared.config.workers,
            );
            Response::Stats { id, json }
        }
        Request::Repack { id } => {
            shared.metrics.control_requests.incr();
            match shared.repacks.try_push_all(&mut vec![Repack { id, token }]) {
                Ok(()) => return true,
                Err(refused) => refusal(shared, id, matches!(refused, PushError::Full(_))),
            }
        }
        Request::Shutdown { id } => {
            shared.metrics.control_requests.incr();
            let epoch = shared.snapshots.current_epoch();
            conn.answer(&Response::Done { id, epoch });
            begin_shutdown(shared);
            return false;
        }
        Request::Query {
            id,
            timeout_ms,
            text,
        } => {
            let budget = match timeout_ms {
                0 => shared.config.default_deadline,
                ms => Duration::from_millis(ms.into()),
            };
            let deadline = inline.now + budget;
            match sleep_directive(&text) {
                Ok(Some(_)) if inline.parked.len() >= shared.config.queue_capacity => {
                    shared.metrics.queries.incr();
                    refusal(shared, id, true)
                }
                Ok(Some((ms, _))) => {
                    let due = inline.now + Duration::from_millis(ms);
                    let at = inline.parked.partition_point(|(at, _)| *at <= due);
                    let job = Job {
                        id,
                        token,
                        deadline,
                        what: text,
                    };
                    inline.parked.insert(at, (due, job));
                    return true;
                }
                _ => {
                    let snapshot = shared.snapshots.load();
                    let (plans, scratch) = (&mut inline.plans, &mut inline.scratch);
                    conn.answer_with(answer(
                        shared, &snapshot, id, &text, deadline, plans, scratch,
                    ));
                    return true;
                }
            }
        }
        Request::Insert {
            id,
            picture,
            label,
            object,
        } => {
            let what = InsertRecord {
                picture,
                label,
                object,
            };
            let deadline = inline.now + shared.config.default_deadline;
            inline.inserts.push(Job {
                id,
                token,
                deadline,
                what,
            });
            return true;
        }
    };
    conn.answer(&response);
    true
}

/// Back-off hint carried in `Overloaded` responses.
const RETRY_AFTER_MS: u32 = 10;

/// What a request refused for want of room is answered: `Overloaded`
/// when its bound is `full`, else the typed shutdown error of an intake
/// that closed before the request was served.
fn refusal(shared: &Shared, id: u64, full: bool) -> Response {
    if full {
        shared.metrics.overloads.incr();
        let retry_after_ms = RETRY_AFTER_MS;
        return Response::Overloaded { id, retry_after_ms };
    }
    let (kind, message) = (ErrorKind::Internal, "server is shutting down".into());
    Response::Error { id, kind, message }
}

fn worker_loop(shared: &Shared) {
    let mut jobs: Vec<Job> = Vec::new();
    let max_batch = shared.config.max_batch.max(1);
    while shared.queue.pop_batch(&mut jobs, max_batch) > 0 {
        serve(shared, &jobs);
        jobs.clear();
    }
}

/// Commits one dequeued pack of inserts as one group, then hands its
/// answers to the completion list under one lock with one wake. The
/// snapshot is pinned for this call only, so a worker blocked on an
/// empty queue keeps no superseded packed generation resident.
pub(crate) fn serve(shared: &Shared, jobs: &[Job]) {
    let mut answers = Vec::with_capacity(jobs.len());
    commit(shared, jobs, &mut answers);
    shared.notifier.send(answers);
}

/// The group commit: validate against the pinned snapshot, append all
/// records to the WAL under one fsync, publish one snapshot holding all
/// of them, then acknowledge. Nothing is acknowledged before it is
/// durable (when a WAL is configured) *and* published.
fn commit(shared: &Shared, jobs: &[Job], answers: &mut Vec<(u64, Response)>) {
    let snapshot = shared.snapshots.load();
    let mut accepted: Vec<(&Job, Vec<u8>)> = Vec::new();
    for job in jobs {
        let rec = &job.what;
        if Instant::now() > job.deadline {
            shared.metrics.timeouts.incr();
            answers.push((job.token, Response::Timeout { id: job.id }));
            continue;
        }
        let refused = match snapshot.db.picture(&rec.picture).and_then(|_| rec.encode()) {
            Ok(bytes) if bytes.len() <= WAL_RECORD_MAX => {
                accepted.push((job, bytes));
                continue;
            }
            Ok(bytes) => (
                ErrorKind::Semantic,
                format!(
                    "insert of {} bytes exceeds the WAL record limit {WAL_RECORD_MAX}",
                    bytes.len()
                ),
            ),
            Err(e) => (ErrorKind::from(&e), e.to_string()),
        };
        shared.metrics.query_errors.incr();
        let (id, (kind, message)) = (job.id, refused);
        answers.push((job.token, Response::Error { id, kind, message }));
    }
    drop(snapshot);
    if accepted.is_empty() {
        return;
    }

    // The writer lock spans WAL commit *and* snapshot publication, so
    // the durable order and the published order can never diverge, and
    // no concurrent writer can publish a snapshot missing these records.
    let mut writer = shared.write_lock.lock().unwrap_or_else(|e| e.into_inner());
    if let Some(wal) = writer.as_mut() {
        let appended = accepted.iter().try_for_each(|(_, bytes)| wal.append(bytes));
        match appended.and_then(|()| wal.sync()) {
            Ok(()) => {
                let bytes = accepted.iter().map(|(_, bytes)| bytes.len() as u64);
                shared.metrics.wal_appends.add(accepted.len() as u64);
                shared.metrics.wal_bytes.add(bytes.sum());
                shared.metrics.wal_syncs.incr();
            }
            Err(e) => {
                // Durability failed: acknowledge nothing, apply nothing.
                // (The WAL rolls back its in-memory framing on a failed
                // append, so the next batch starts from a clean tail.)
                drop(writer);
                shared.metrics.internal_errors.add(accepted.len() as u64);
                for (job, _) in &accepted {
                    let (id, kind) = (job.id, ErrorKind::Internal);
                    let message = format!("write-ahead log failure: {e}");
                    answers.push((job.token, Response::Error { id, kind, message }));
                }
                return;
            }
        }
    }
    let publishing = Instant::now();
    let epoch = shared.snapshots.update(|db| {
        for (job, _) in &accepted {
            let rec = &job.what;
            let opens_delta = db.picture(&rec.picture).is_ok_and(|p| {
                // A never-packed picture builds its tree behind `&self`.
                // Build it here, while the published snapshot still
                // shares the picture, or a reader builds it on every
                // snapshot this writer has already copied.
                if p.frozen().is_none() {
                    p.tree();
                }
                p.frozen().is_some() && p.delta_len() == 0
            });
            match db.add_object(&rec.picture, rec.object.clone(), &rec.label) {
                Ok(_) if opens_delta => eprintln!(
                    "[psql-server] picture {:?}: first dynamic write since pack — \
                     frozen tree retained, insert buffered in delta (merge pending)",
                    rec.picture
                ),
                Ok(_) => {}
                // Validated above against the same lineage; a failure here
                // would be a picture vanishing mid-flight.
                Err(e) => eprintln!("[psql-server] insert apply failed after WAL commit: {e}"),
            }
        }
    });
    shared.metrics.publish_latency.record(publishing.elapsed());
    drop(writer);
    refresh_snapshot_gauges(shared);
    shared.metrics.snapshots_published.incr();
    shared.metrics.inserts.add(accepted.len() as u64);
    shared.metrics.ok.add(accepted.len() as u64);
    for (job, _) in &accepted {
        answers.push((job.token, Response::Done { id: job.id, epoch }));
    }
}

/// The rebuild thread, the one place a packed generation is replaced:
/// it wakes when a `REPACK` arrives, at each `merge_interval` and when
/// the slot closes, and hands what it drained to [`rebuild`]. The close
/// ends it once the `REPACK`s accepted before have been served.
fn rebuild_loop(shared: &Shared) {
    let mut waiting: Vec<Repack> = Vec::new();
    let patience = shared.config.merge_interval;
    while shared
        .repacks
        .pop_batch_timeout(&mut waiting, usize::MAX, patience)
        .is_some()
    {
        rebuild(shared, &mut waiting);
    }
}

/// One wake of the rebuild thread. A waiting `REPACK` rebuilds every
/// picture; without one, a delta population at or over `merge_threshold`
/// rebuilds the pictures holding a delta. Queries keep serving the old
/// snapshot throughout, and so do writers: the O(N) pack runs on a clone
/// outside the writer lock ([`pack_rebuild`]), which is then taken only
/// for the O(delta) catch-up and the swap ([`publish_rebuild`]). Every
/// `REPACK` in `waiting` is answered with the epoch its rebuild
/// published, all under one wake, and `waiting` is left empty.
pub(crate) fn rebuild(shared: &Shared, waiting: &mut Vec<Repack>) {
    let forced = !waiting.is_empty();
    if !forced && shared.snapshots.load().db.delta_len() < shared.config.merge_threshold {
        return;
    }
    let epoch = finish_rebuild(shared, pack_rebuild(shared, forced));
    let answers: Vec<(u64, Response)> = waiting
        .drain(..)
        .map(|Repack { id, token }| match epoch {
            Some(epoch) => (token, Response::Done { id, epoch }),
            None => (token, refusal(shared, id, false)),
        })
        .collect();
    shared.notifier.send(answers);
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

/// The milliseconds and the query after a `#sleep <millis>` head —
/// the deterministic way to exercise deadlines from tests and the CI
/// smoke script — or `None` for a text without one. Capped at ten
/// seconds, so a hostile client cannot park a request for minutes.
fn sleep_directive(text: &str) -> Result<Option<(u64, &str)>, PsqlError> {
    let Some(rest) = text.trim().strip_prefix("#sleep") else {
        return Ok(None);
    };
    let rest = rest.trim_start();
    let (ms, query) = rest.split_once(char::is_whitespace).unwrap_or((rest, ""));
    let ms: u64 = ms
        .parse()
        .map_err(|_| PsqlError::Parse(format!("#sleep wants milliseconds, got {ms:?}")))?;
    Ok(Some((ms.min(10_000), query.trim())))
}

/// Answers query `id` against a pinned snapshot: the returned encoder
/// appends one frame to its buffer through [`answer_frame`], the plan
/// through the cached-plan table, then execution straight into the
/// frame. A connection given up runs no encoder, so its query is
/// neither executed nor counted. One expired, malformed or panicking query is answered
/// alone; it never touches the requests around it.
///
/// A plan stamped with the snapshot's epoch skips parse *and* plan; a
/// miss, a stale stamp included, prepares from scratch and stores the
/// plan. Parse and plan failures are never cached. A `#sleep <millis>`
/// head is skipped, since its sleep was served parked (`handle_frame`);
/// a malformed one is a parse error, and a directive with no query
/// after it answers no rows.
pub(crate) fn answer<'a>(
    shared: &'a Shared,
    snapshot: &'a DatabaseSnapshot,
    id: u64,
    text: &'a str,
    deadline: Instant,
    plans: &'a mut PlanCache,
    scratch: &'a mut SearchScratch,
) -> impl FnOnce(&mut Vec<u8>) + 'a {
    move |out| {
        let metrics = &shared.metrics;
        let epoch = snapshot.epoch;
        answer_frame(out, metrics, id, epoch, deadline, |writer| {
            let text = match sleep_directive(text)? {
                Some((_, "")) => {
                    ResultSet::default().replay(writer);
                    return Ok(());
                }
                Some((_, query)) => query,
                None => text.trim(),
            };
            let plan = match plans.get(text, epoch) {
                Some(plan) => {
                    metrics.plan_cache_hits.incr();
                    plan
                }
                None => {
                    metrics.plan_cache_misses.incr();
                    let query = psql::parse_query(text)?;
                    let plan = Arc::new(psql::plan::plan(&snapshot.db, &query)?);
                    if plans.store(text, epoch, Arc::clone(&plan)) {
                        metrics.plan_cache_evictions.incr();
                    }
                    plan
                }
            };
            let db = &snapshot.db;
            psql::exec::execute_plan_into(db, &plan, &shared.functions, scratch, writer)
        });
    }
}

/// Appends the answer to query `id` to `out` as one whole frame, and
/// counts it in `metrics`: how every query the server answers is
/// encoded.
///
/// Past `deadline` already, the answer is `Timeout` and `execute` is
/// not called. Otherwise `execute` writes the result, stamped with
/// `epoch`, through a [`ResultWriter`] straight onto `out` as it is
/// gathered, with no `ResultSet` in between. When it returns an error,
/// panics, ends after `deadline`, or writes a frame longer than
/// [`MAX_FRAME_LEN`], whatever it wrote is cut off at the frame's start
/// and the `Error` or `Timeout` frame is written alone. Either way the
/// bytes past `out`'s old end are exactly one frame.
pub fn answer_frame(
    out: &mut Vec<u8>,
    metrics: &Metrics,
    id: u64,
    epoch: u64,
    deadline: Instant,
    execute: impl FnOnce(&mut ResultWriter<'_>) -> Result<(), PsqlError>,
) {
    metrics.queries.incr();
    if Instant::now() > deadline {
        // Expired while waiting: answer without executing.
        metrics.timeouts.incr();
        encode_response_frame(&Response::Timeout { id }, out);
        return;
    }
    let at = begin_frame(out);
    let started = Instant::now();
    // The reactor must survive any executor bug: contain panics and
    // answer a typed internal error instead. The snapshot is immutable,
    // so no broken invariants can leak out of an unwound execution.
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        execute(&mut ResultWriter::new(out, id, epoch))
    }));
    metrics.query_latency.record(started.elapsed());
    let response = if Instant::now() > deadline {
        // Finished, but past the promise: the client already moved on,
        // so report the timeout it observed.
        metrics.timeouts.incr();
        Response::Timeout { id }
    } else {
        match outcome {
            Ok(Ok(())) if out.len() - at - 4 <= MAX_FRAME_LEN as usize => {
                metrics.ok.incr();
                end_frame(out, at);
                return;
            }
            // No decoder would take the frame: answer in one that fits.
            Ok(Ok(())) => {
                metrics.query_errors.incr();
                Response::Error {
                    id,
                    kind: ErrorKind::Protocol,
                    message: format!(
                        "the answer exceeds the {MAX_FRAME_LEN}-byte frame limit; \
                         narrow the query or add a limit"
                    ),
                }
            }
            Ok(Err(e)) => {
                metrics.query_errors.incr();
                let message = e.to_string();
                let kind = ErrorKind::from(&e);
                Response::Error { id, kind, message }
            }
            Err(_) => {
                metrics.internal_errors.incr();
                Response::Error {
                    id,
                    kind: ErrorKind::Internal,
                    message: "query execution panicked (contained; session unaffected)".into(),
                }
            }
        }
    };
    out.truncate(at);
    encode_response_frame(&response, out);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use crate::protocol::{decode_response, FrameDecoder};
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

    /// The database side alone, with no listener, socket or thread, and
    /// the plan cache of the thread that answers its queries.
    fn database_side() -> (Shared, PlanCache) {
        let config = ServerConfig {
            plan_cache_capacity: 16,
            ..ServerConfig::default()
        };
        let plans = PlanCache::new(config.plan_cache_capacity);
        let db = PictorialDatabase::with_us_map();
        let shared = Shared::new(db, config, None, Metrics::default()).expect("eventfd");
        (shared, plans)
    }

    /// `answer` at `epoch` of `db` through `plans`, with a deadline far
    /// off: the one frame it writes, decoded.
    fn ask(
        shared: &Shared,
        plans: &mut PlanCache,
        db: &PictorialDatabase,
        epoch: u64,
        text: &str,
    ) -> Response {
        let snapshot = DatabaseSnapshot {
            epoch,
            db: db.clone(),
        };
        let deadline = Instant::now() + Duration::from_secs(60);
        let (scratch, mut out) = (&mut SearchScratch::new(), Vec::new());
        answer(shared, &snapshot, 7, text, deadline, plans, scratch)(&mut out);
        let mut frames = FrameDecoder::new();
        frames.extend(&out);
        let frame = frames.next_frame().expect("well framed").expect("a frame");
        assert!(!frames.mid_frame(), "one frame, whole");
        decode_response(&frame).expect("a response")
    }

    fn rows(response: Response) -> ResultSet {
        match response {
            Response::Result { result, .. } => result,
            other => panic!("expected a result, got {other:?}"),
        }
    }

    #[test]
    fn sleep_directive_parses() {
        assert_eq!(sleep_directive("select city from cities"), Ok(None));
        assert_eq!(
            sleep_directive("  #sleep 30  select zone from time-zones "),
            Ok(Some((30, "select zone from time-zones")))
        );
        assert_eq!(sleep_directive("#sleep 99999"), Ok(Some((10_000, ""))));
        let (shared, mut plans) = database_side();
        let db = PictorialDatabase::with_us_map();
        // `answer` skips the directive: its sleep was served parked.
        let t0 = Instant::now();
        let r = rows(ask(&shared, &mut plans, &db, 1, "#sleep 10000"));
        assert!(t0.elapsed() < Duration::from_secs(5), "answer slept");
        assert!(r.is_empty());
        // Directive followed by a real query.
        let r = rows(ask(
            &shared,
            &mut plans,
            &db,
            1,
            "#sleep 1 select zone from time-zones",
        ));
        assert_eq!(r.len(), 4);
        // The directive's trailing query went through the plan cache.
        assert_eq!(shared.metrics.plan_cache_misses.get(), 1);
        // Bad millis is a parse error, not a hang.
        assert!(matches!(
            ask(&shared, &mut plans, &db, 1, "#sleep lots"),
            Response::Error {
                kind: ErrorKind::Parse,
                ..
            }
        ));
    }

    #[test]
    fn repeated_query_hits_the_plan_cache() {
        let (shared, mut plans) = database_side();
        let db = PictorialDatabase::with_us_map();
        let metrics = &shared.metrics;
        let text = "select city from cities on us-map at loc covered-by {82.5 +- 17.5, 25 +- 20}";
        let first = rows(ask(&shared, &mut plans, &db, 1, text));
        let second = rows(ask(&shared, &mut plans, &db, 1, text));
        assert_eq!(first, second);
        assert_eq!(metrics.plan_cache_misses.get(), 1);
        assert_eq!(metrics.plan_cache_hits.get(), 1);
        // A new epoch is a miss, then re-stamps.
        let third = rows(ask(&shared, &mut plans, &db, 2, text));
        assert_eq!(first, third);
        assert_eq!(metrics.plan_cache_misses.get(), 2);
        let fourth = rows(ask(&shared, &mut plans, &db, 2, text));
        assert_eq!(first, fourth);
        assert_eq!(metrics.plan_cache_hits.get(), 2);
        // A REPACK replaces every tree the plan was compiled against and
        // publishes under a new epoch; the stamp alone retires the plan.
        let mut repacked = db.clone();
        repacked.pack_all();
        let fifth = rows(ask(&shared, &mut plans, &repacked, 3, text));
        assert_eq!(first, fifth);
        assert_eq!(metrics.plan_cache_misses.get(), 3, "a miss");
        assert_eq!(metrics.plan_cache_hits.get(), 2, "not a plan hit");
    }

    #[test]
    fn parse_errors_are_not_cached() {
        let (shared, mut plans) = database_side();
        let db = PictorialDatabase::with_us_map();
        for _ in 0..3 {
            assert!(matches!(
                ask(&shared, &mut plans, &db, 1, "selectt nonsense"),
                Response::Error {
                    kind: ErrorKind::Parse,
                    ..
                }
            ));
        }
        assert!(plans.is_empty());
        assert_eq!(shared.metrics.plan_cache_misses.get(), 3);
    }
}
