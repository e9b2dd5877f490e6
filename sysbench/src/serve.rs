//! The three `serve_*` workloads: a TCP server over the 1M-site
//! database, driven closed-loop by two client threads.
//!
//! * `serve_read`: two connections at depth 1, every query text unique.
//! * `serve_pipelined`: two connections each keeping 16 requests in
//!   flight, texts from a fixed pool of 128.
//! * `serve_mixed`: one reader (unique texts) beside one writer
//!   (`Client::insert`), over a WAL pre-seeded with 8 192 inserts.

use crate::dataset::{self, site_name, site_weight, Loaded, PICTURE};
use crate::gen::{self, stream, Query, SplitMix64, FRAME, KNN_K};
use crate::json::Json;
use crate::oracle::{self, Grid};
use crate::probes::{self, ServerStats};
use crate::report::{EndToEndValues, Layers, Tally};
use crate::stats::Recorder;
use crate::trace::Tracer;
use crate::workload::{self, ClientOp, Clock, Ctx, Phases, Run, VERIFIED_OPS};
use psql::{ResultSet, SpatialOp};
use psql_server::{Client, Response, Server};
use rtree_geom::{Point, Rect, SpatialObject};
use rtree_index::SearchStats;
use std::collections::HashMap;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Client connections of every `serve_*` workload.
const CONNECTIONS: u64 = 2;

/// Requests each `serve_pipelined` connection keeps in flight.
const DEPTH: usize = 16;

/// Texts in the `serve_pipelined` pool.
const POOL: usize = 128;

/// Insert records in the WAL `serve_mixed` starts over.
const SEEDED_INSERTS: usize = 8192;

/// Insert slots in a `serve_mixed` window: two inserts, 5 s apart in a
/// ten-second window. While one is in flight the server deep-copies its
/// database on the hardware thread the reader needs, for 0.5 to 3 s; the
/// reader's end-to-end figures come from the slices in between.
const WRITE_SLOTS: u64 = 2;

/// Ops the traced run replays through the layers.
const REPLAYED_OPS: usize = 512;

#[derive(Clone, Copy, PartialEq)]
pub enum Kind {
    Read,
    Pipelined,
    Mixed,
}

fn connect(addr: SocketAddr) -> Client {
    Client::connect_timeout(addr, Duration::from_secs(60)).expect("connect to own server")
}

/// Rows a correct answer to `query` holds, from the grid.
fn expected_rows(query: &Query, grid: &Grid, n: usize) -> usize {
    match query {
        Query::Small(w) | Query::Overlap(w) => grid.count(&w.rect()),
        Query::Nearest(_) => KNN_K.min(n),
    }
}

/// The row count of a reply, or why it is not a result.
fn rows_of(resp: &Response) -> Result<usize, String> {
    match resp {
        Response::Result { result, .. } => Ok(result.len()),
        other => Err(format!("not a result: {other:?}")),
    }
}

fn response_id(resp: &Response) -> u64 {
    match resp {
        Response::Result { id, .. }
        | Response::Error { id, .. }
        | Response::Timeout { id }
        | Response::Overloaded { id, .. }
        | Response::Pong { id }
        | Response::Stats { id, .. }
        | Response::Done { id, .. } => *id,
    }
}

/// Checks a full result set against a linear scan of the point array:
/// the exact `(site, weight)` rows for a window, the exact distances for
/// a nearest query.
fn verify_rows(query: &Query, result: &ResultSet, points: &[Point]) -> Result<(), String> {
    let mut got: Vec<(u64, i64)> = Vec::with_capacity(result.len());
    for row in &result.rows {
        let id = row
            .first()
            .and_then(|v| v.as_str())
            .and_then(|s| s.strip_prefix('s'))
            .and_then(|s| s.parse::<u64>().ok())
            .ok_or_else(|| format!("{query:?}: unreadable site in {row:?}"))?;
        let weight = row.get(1).and_then(|v| v.as_f64()).unwrap_or(-1.0) as i64;
        got.push((id, weight));
    }
    if let Some((id, w)) = got
        .iter()
        .find(|(id, w)| *id >= points.len() as u64 || *w != site_weight(*id))
    {
        return Err(format!(
            "{query:?}: row ({}, {w}) is not a loaded site",
            site_name(*id)
        ));
    }
    match query {
        Query::Small(w) | Query::Overlap(w) => {
            let mut ids: Vec<u64> = got.iter().map(|(id, _)| *id).collect();
            ids.sort_unstable();
            let want = oracle::scan_window(points, &w.rect());
            if ids == want {
                Ok(())
            } else {
                Err(format!(
                    "{query:?}: {} rows, the scan finds {}",
                    ids.len(),
                    want.len()
                ))
            }
        }
        Query::Nearest(w) => {
            let q = w.center();
            let mut d: Vec<f64> = got
                .iter()
                .map(|(id, _)| oracle::dist_sq(&points[*id as usize], &q))
                .collect();
            if oracle::same_distances(&mut d, &oracle::scan_knn(points, &q, KNN_K)) {
                Ok(())
            } else {
                Err(format!("{query:?}: neighbours differ from the scan's"))
            }
        }
    }
}

/// What one load thread brings back.
struct ClientRun {
    recorder: Recorder,
    tally: Tally,
    spans: Vec<ClientOp>,
}

impl ClientRun {
    fn new(clock: &Clock) -> ClientRun {
        ClientRun {
            recorder: clock.recorder(),
            tally: Tally::default(),
            spans: Vec::new(),
        }
    }

    fn done(&mut self, op: u64, started: u64, end: u64, ok: Result<(), String>, trace_from: u64) {
        self.recorder.timed(end, end - started);
        self.tally.check(ok.is_ok(), || ok.unwrap_err());
        if end >= trace_from {
            self.spans.push(ClientOp {
                op,
                start_ns: started,
                end_ns: end,
            });
        }
    }
}

/// Depth-1 closed loop of unique ~20-row windows on one connection.
fn read_unique(
    mut client: Client,
    seed: u64,
    connection: u64,
    grid: &Grid,
    clock: Clock,
    trace_from: u64,
) -> ClientRun {
    let mut run = ClientRun::new(&clock);
    let mut ops = SplitMix64::new(seed, stream::CONNECTION + connection);
    clock.wait_for_start();
    for i in 0u64.. {
        let query = gen::unique_window(&mut ops);
        let text = query.text();
        let started = clock.now_ns();
        let reply = client.query(&text);
        let end = clock.now_ns();
        let ok = match reply {
            Ok(resp) => rows_of(&resp).and_then(|rows| {
                let want = expected_rows(&query, grid, usize::MAX);
                if rows == want {
                    Ok(())
                } else {
                    Err(format!("{text}: {rows} rows, the grid counts {want}"))
                }
            }),
            Err(e) => Err(format!("{text}: {e}")),
        };
        run.done(i, started, end, ok, trace_from);
        if end >= clock.window_ns {
            break;
        }
    }
    run
}

/// Keeps [`DEPTH`] requests in flight on one connection, texts drawn
/// from the pool. Replies may come back in any order.
fn read_pipelined(
    mut client: Client,
    seed: u64,
    connection: u64,
    pool: &[(String, usize)],
    clock: Clock,
    trace_from: u64,
) -> ClientRun {
    let mut run = ClientRun::new(&clock);
    let mut draws = SplitMix64::new(seed, stream::CONNECTION + connection);
    // request id -> (op index, pool entry, send time)
    let mut in_flight: HashMap<u64, (u64, usize, u64)> = HashMap::with_capacity(DEPTH);
    let mut next_op = 0u64;
    clock.wait_for_start();
    loop {
        while in_flight.len() < DEPTH && clock.now_ns() < clock.window_ns {
            let entry = draws.below(pool.len() as u64) as usize;
            let started = clock.now_ns();
            match client.send_query(&pool[entry].0) {
                Ok(id) => {
                    in_flight.insert(id, (next_op, entry, started));
                }
                Err(e) => run.tally.check(false, || format!("send: {e}")),
            }
            next_op += 1;
        }
        if in_flight.is_empty() {
            break;
        }
        let reply = client.read_response();
        let end = clock.now_ns();
        match reply {
            Ok(resp) => match in_flight.remove(&response_id(&resp)) {
                Some((op, entry, started)) => {
                    let (text, want) = &pool[entry];
                    let ok = rows_of(&resp).and_then(|rows| {
                        if rows == *want {
                            Ok(())
                        } else {
                            Err(format!("{text}: {rows} rows, expected {want}"))
                        }
                    });
                    run.done(op, started, end, ok, trace_from);
                }
                None => run
                    .tally
                    .check(false, || format!("reply to no request: {resp:?}")),
            },
            Err(e) => {
                // The connection is gone; every request on it failed.
                for _ in in_flight.drain() {
                    run.tally.check(false, || format!("read: {e}"));
                }
                break;
            }
        }
    }
    run
}

/// One interactive writer: a `Client::insert` every [`WRITE_SLOTS`]th of
/// the window, each waited for before the next (an insert that overruns
/// its slot pushes the next one to the following slot). Returns the run
/// and how many inserts were acknowledged.
///
/// A writer that inserts back to back keeps the server deep-copying its
/// database without pause, and at 1M objects the handful of copy cycles
/// a window holds then overlap chaotically: the same code reads 40%
/// apart from run to run, reader and writer alike. Spaced inserts each
/// meet a quiet server and each measure one publication.
fn write_inserts(mut client: Client, inserts: &[Point], clock: Clock) -> (ClientRun, usize) {
    let mut run = ClientRun::new(&clock);
    let mut acked = 0;
    let slot_ns = clock.window_ns / WRITE_SLOTS;
    clock.wait_for_start();
    for (i, p) in inserts.iter().enumerate() {
        // Start a quarter into the next free slot.
        let now = clock.now_ns();
        let due = (now + slot_ns * 3 / 4) / slot_ns * slot_ns + slot_ns / 4;
        if due >= clock.window_ns {
            break;
        }
        std::thread::sleep(Duration::from_nanos(due - now));
        let started = clock.now_ns();
        let reply = client.insert(PICTURE, &format!("w{i}"), SpatialObject::Point(*p));
        let end = clock.now_ns();
        let ok = match reply {
            Ok(Response::Done { .. }) => {
                acked += 1;
                Ok(())
            }
            Ok(other) => Err(format!("insert w{i}: {other:?}")),
            Err(e) => Err(format!("insert w{i}: {e}")),
        };
        // Every insert keeps its interval: the reader's summary needs them.
        run.done(i as u64, started, end, ok, 0);
        if end >= clock.window_ns {
            break;
        }
    }
    (run, acked)
}

/// A started server with what starting it cost.
struct Served {
    server: Server,
    addr: SocketAddr,
    start_to_pong_s: f64,
    ready_s: f64,
}

/// Starts the server over `db` and waits for the first correct answer.
fn start_server(
    db: psql::PictorialDatabase,
    wal: Option<PathBuf>,
    first: &Query,
    grid: &Grid,
    tally: &mut Tally,
) -> Served {
    let t = Instant::now();
    let server =
        Server::start(db, "127.0.0.1:0", dataset::server_config(wal)).expect("start server");
    let addr = server.local_addr();
    let mut client = connect(addr);
    client.ping().expect("first ping");
    let start_to_pong_s = t.elapsed().as_secs_f64();
    let rows = client
        .query(&first.text())
        .map_err(|e| e.to_string())
        .and_then(|r| rows_of(&r));
    let ready_s = t.elapsed().as_secs_f64();
    let want = expected_rows(first, grid, usize::MAX);
    tally.check(rows == Ok(want), || {
        format!("first answer {rows:?}, expected {want} rows")
    });
    Served {
        server,
        addr,
        start_to_pong_s,
        ready_s,
    }
}

pub fn run(ctx: &Ctx, kind: Kind) -> Run {
    let mut layers = Layers::new();
    let mut tally = Tally::default();
    let mut tracer = ctx.trace.then(Tracer::new);
    let mut info = Json::obj();

    // Set-up: generate, load, pack, (seed the WAL,) start.
    let setup_from = Instant::now();
    let points = gen::points(ctx.seed, stream::DATASET, ctx.n);
    let generate_s = setup_from.elapsed().as_secs_f64();
    let grid = Grid::new(&points, FRAME);
    let Loaded {
        db,
        times,
        sample_tids,
    } = dataset::load(&points, &mut layers);

    let seeded = if kind == Kind::Mixed {
        SEEDED_INSERTS.min(ctx.n)
    } else {
        0
    };
    // Seeded and live inserts come from one stream: the WAL holds the
    // first `seeded`, the writer sends the rest in order.
    let inserts = gen::points(ctx.seed, stream::INSERTS, seeded + 4096);
    let wal_path = (kind == Kind::Mixed).then(|| ctx.dir.file("serve_mixed.wal"));
    let mut wal_seed_s = 0.0;
    if let Some(path) = &wal_path {
        wal_seed_s = dataset::write_wal(path, &inserts[..seeded], "seed", &mut layers);
    }

    let pool: Vec<Query> = gen::query_pool(ctx.seed, POOL);
    let first = match kind {
        Kind::Pipelined => pool[0],
        _ => gen::unique_window(&mut SplitMix64::new(ctx.seed, stream::PROBE)),
    };
    let Served {
        server,
        addr,
        start_to_pong_s,
        ready_s,
    } = start_server(db, wal_path.clone(), &first, &grid, &mut tally);
    let setup_s = generate_s + times.total_s() + wal_seed_s + ready_s;
    let setup = (setup_from, Instant::now());
    ctx.rss.mark();

    let mut control = connect(addr);
    let stats_before = ServerStats::fetch(&mut control);
    if kind == Kind::Mixed {
        let recovered = stats_before.get("write_path", "wal_recovered");
        tally.check(recovered == seeded as f64, || {
            format!("server recovered {recovered} WAL records, {seeded} were seeded")
        });
    }

    // The measured window.
    let pool_texts: Vec<(String, usize)> = pool
        .iter()
        .map(|q| (q.text(), expected_rows(q, &grid, ctx.n)))
        .collect();
    let clock = Clock::opening_soon(ctx.window);
    let trace_from = if ctx.trace {
        clock.traced_from_ns()
    } else {
        u64::MAX
    };
    let mut reads = clock.recorder();
    let mut writes = clock.recorder();
    let mut read_spans = Vec::new();
    let mut acked = 0usize;
    // When an insert was in flight, ns since the window opened.
    let mut publishing: Vec<(u64, u64)> = Vec::new();
    std::thread::scope(|scope| {
        let (grid, pool_texts, inserts) = (&grid, &pool_texts, &inserts);
        // Two connections: two readers, or on serve_mixed a reader and
        // the writer.
        let mut readers = Vec::new();
        let mut writer = None;
        for c in 0..CONNECTIONS {
            let client = connect(addr);
            let seed = ctx.seed;
            match kind {
                Kind::Pipelined => {
                    readers.push(scope.spawn(move || {
                        read_pipelined(client, seed, c, pool_texts, clock, trace_from)
                    }))
                }
                Kind::Mixed if c > 0 => {
                    writer =
                        Some(scope.spawn(move || write_inserts(client, &inserts[seeded..], clock)))
                }
                Kind::Read | Kind::Mixed => readers.push(
                    scope.spawn(move || read_unique(client, seed, c, grid, clock, trace_from)),
                ),
            }
        }
        for r in readers {
            let run = r.join().expect("reader thread");
            reads.absorb(run.recorder);
            tally.absorb(run.tally);
            read_spans.extend(run.spans);
        }
        if let Some(w) = writer {
            let (run, n) = w.join().expect("writer thread");
            writes.absorb(run.recorder);
            tally.absorb(run.tally);
            publishing = run.spans.iter().map(|o| (o.start_ns, o.end_ns)).collect();
            acked = n;
        }
    });
    let window = clock.span();
    let stats_after = ServerStats::fetch(&mut control);

    // Full answers of a sample of ops, replayed now, against a linear scan.
    let sampled: Vec<(u64, Query)> = match kind {
        Kind::Pipelined => pool
            .iter()
            .enumerate()
            .map(|(i, q)| (i as u64, *q))
            .collect(),
        _ => probes::sample_unique_ops(ctx.seed, 0, REPLAYED_OPS),
    };
    for (_, query) in sampled.iter().take(VERIFIED_OPS) {
        let verdict = match control.query(&query.text()) {
            Ok(Response::Result { result, .. }) => verify_rows(query, &result, &points),
            Ok(other) => Err(format!("{query:?}: {other:?}")),
            Err(e) => Err(format!("{query:?}: {e}")),
        };
        tally.check(verdict.is_ok(), || verdict.unwrap_err());
    }

    let snapshot = server.snapshots().load();
    if kind == Kind::Mixed {
        // Every acknowledged insert is in the served picture, findable
        // at its location under its label; nothing else was added.
        let picture = snapshot.db.picture(PICTURE).expect("served picture");
        let want_len = ctx.n + seeded + acked;
        tally.check(picture.len() == want_len, || {
            format!(
                "picture holds {} objects, expected {want_len}",
                picture.len()
            )
        });
        let mut stats = SearchStats::default();
        for (i, p) in inserts[seeded..seeded + acked].iter().enumerate() {
            let found = picture
                .search_window(SpatialOp::CoveredBy, &Rect::from_point(*p), &mut stats)
                .into_iter()
                .any(|id| picture.label(id) == Some(format!("w{i}").as_str()));
            tally.check(found, || {
                format!("acknowledged insert w{i} is not in the picture")
            });
        }
        let inserted = stats_after.get("write_path", "inserts");
        tally.check(inserted == acked as f64, || {
            format!("STATS counts {inserted} inserts, {acked} were acknowledged")
        });
    }

    // On serve_mixed the slice medians are the reader's between
    // publications; what a publication does to it is in the window rows.
    let read_summary = reads.summary_outside(&publishing);
    let write_summary = writes.summary();
    // Ingest is the bulk path on all three workloads. The online inserts
    // of serve_mixed are in the window.write_* rows only: back to back a
    // window holds three to ten of them at 0.4-3.3 s each, and no
    // statistic of so few (first, fastest, median, rate) repeated within
    // 25% over ten runs.
    let mut e2e = EndToEndValues {
        setup_s,
        ingest_items_s: ctx.n as f64 / times.pack_s,
        ..EndToEndValues::default()
    };
    workload::record_reads(&read_summary, &mut e2e, &mut layers);
    layers.set("server.ready_ms", ready_s * 1e3);
    layers.set("setup.generate_ms", generate_s * 1e3);
    layers.set("setup.wal_seed_ms", wal_seed_s * 1e3);
    layers.set("setup.start_to_pong_ms", start_to_pong_s * 1e3);
    layers.set("setup.first_answer_ms", (ready_s - start_to_pong_s) * 1e3);
    layers.set("server.start_ms", start_to_pong_s * 1e3);
    layers.set("core.pack_ms", times.pack_s * 1e3);
    if write_summary.samples > 0 {
        // Inserts per second of waiting for an acknowledgement.
        let busy_s = writes.sorted_latencies().iter().sum::<u64>() as f64 / 1e9;
        layers.set("window.write_ops_s", write_summary.samples as f64 / busy_s);
        layers.set("window.write_p50_us", write_summary.window_p50_us);
        layers.set("window.write_max_us", write_summary.max_us);
        layers.set("window.write_samples", write_summary.samples as f64);
    }
    stats_after.record(&stats_before, &mut layers);
    info.set("reads", workload::reads_info(&read_summary));
    info.set(
        "writes",
        Json::obj()
            .with("acknowledged", acked)
            .with("seeded_in_wal", seeded)
            .with(
                "latencies_ms",
                Json::Arr(
                    writes
                        .latencies_by_slice()
                        .iter()
                        .map(|&ns| (ns as f64 / 1e6).into())
                        .collect(),
                ),
            ),
    );
    info.set("verified_ops", sampled.len().min(VERIFIED_OPS));

    if let Some(t) = tracer.as_mut() {
        workload::push_client_spans(t, "client.read", read_spans, &clock);
        workload::record_trace_overhead(&reads, &mut layers);
        let sample_result = match control.query(&first.text()) {
            Ok(Response::Result { result, .. }) => result,
            other => panic!("sample query failed: {other:?}"),
        };
        probes::wire(&mut control, &sample_result, &first.text(), &mut layers);
        probes::replay_psql(&snapshot.db, &sampled, t, &mut layers);
        let picture = snapshot.db.picture(PICTURE).expect("served picture");
        probes::rtree(
            picture.frozen().expect("packed picture"),
            picture.tree(),
            &points,
            ctx.seed,
            &mut layers,
        );
        probes::tuple_fetch(&snapshot.db, &sample_tids, &mut layers);
        probes::db_clone(&snapshot.db, &mut layers);
        // What the client saw that no layer above accounts for.
        let attributed: f64 = [
            "server.ping_rtt_us",
            "server.codec_us",
            "psql.parse_us",
            "psql.plan_us",
            "psql.execute_us",
        ]
        .iter()
        .map(|m| layers.get(m))
        .sum();
        layers.set("server.unattributed_us", e2e.read_p50_us - attributed);
        // Last, because it changes the served database: one snapshot
        // publication, clone and all.
        let cell = server.snapshots();
        let started = Instant::now();
        cell.update(|db| {
            db.add_object(PICTURE, SpatialObject::Point(points[0]), "publish-probe")
                .expect("served picture");
        });
        layers.set("server.publish_us", started.elapsed().as_secs_f64() * 1e6);
        layers.set("trace.spans", t.len() as f64);
    }

    drop(snapshot);
    drop(control);
    server.stop();
    if let Some(path) = &wal_path {
        // Durability: the log holds exactly the seeded records plus the
        // acknowledged ones.
        let records = dataset::reopen_wal(path, &mut layers);
        let want = (seeded + acked) as u64;
        tally.check(records == want, || {
            format!("WAL holds {records} records, expected {want} (seeded + acknowledged)")
        });
    }

    Run {
        e2e,
        // The bulk pack is part of set-up.
        phases: Phases {
            setup,
            ingest: setup,
            window,
        },
        tally,
        layers,
        tracer,
        info,
    }
}
