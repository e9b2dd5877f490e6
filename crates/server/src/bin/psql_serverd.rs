//! `psql-serverd` — the concurrent PSQL query service daemon.
//!
//! Serves the synthetic US-map pictorial database over the length-
//! prefixed TCP protocol (see `psql_server::protocol`).
//!
//! ```text
//! psql-serverd [--addr HOST:PORT] [--workers N] [--queue N]
//!              [--deadline-ms N] [--wal PATH] [--smoke]
//! ```
//!
//! Queries are answered on the server's event-loop thread, in the turn
//! that reads them. `--workers N` is the number of threads that commit
//! inserts (default 4); `--queue N` bounds both the inserts waiting for
//! them and the `#sleep` queries parked on the event loop (default 64),
//! and a request past either bound is answered `Overloaded`.
//! `--deadline-ms N` is the deadline of a query that carries none, and of
//! every insert.
//!
//! `--wal PATH` makes dynamic inserts durable: each one is committed to
//! the write-ahead log at PATH before it is acknowledged, and a restart
//! on the same PATH replays acknowledged writes into the delta trees
//! (DESIGN.md §14).
//!
//! `--smoke` runs the CI smoke script instead of serving forever: it
//! starts the server on an ephemeral port, drives one scripted client
//! session (queries, a WAL-committed insert, a malformed frame, an
//! answer past the frame limit, a forced timeout, `STATS`), restarts on the same WAL to prove the insert
//! survives, then asks for graceful shutdown over the wire and waits for
//! the drain. Exit code 0 means every step behaved.

use pictorial_relational::{Column, ColumnType, Schema, Value};
use psql::database::PictorialDatabase;
use psql_server::client::Client;
use psql_server::protocol::{ErrorKind, Response};
use psql_server::server::{Server, ServerConfig};
use rtree_geom::{Point, Rect, SpatialObject};
use rtree_index::RTreeConfig;
use std::time::Duration;

fn main() {
    let mut addr = "127.0.0.1:5433".to_owned();
    let mut config = ServerConfig::default();
    let mut smoke = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .unwrap_or_else(|| panic!("{name} wants a value"))
        };
        match arg.as_str() {
            "--addr" => addr = value("--addr"),
            "--workers" => config.workers = value("--workers").parse().expect("workers"),
            "--queue" => config.queue_capacity = value("--queue").parse().expect("queue"),
            "--deadline-ms" => {
                config.default_deadline =
                    Duration::from_millis(value("--deadline-ms").parse().expect("deadline-ms"));
            }
            "--wal" => config.wal_path = Some(value("--wal").into()),
            "--smoke" => smoke = true,
            "--help" | "-h" => {
                println!(
                    "psql-serverd [--addr HOST:PORT] [--workers N] [--queue N] \
                     [--deadline-ms N] [--wal PATH] [--smoke]\n\
                     queries are answered on the event loop; --workers: threads committing inserts;\n\
                     --queue: most inserts waiting, and most #sleep queries parked"
                );
                return;
            }
            other => panic!("unknown argument {other:?}"),
        }
    }

    if smoke {
        run_smoke(config);
        return;
    }

    println!("loading us-map pictorial database …");
    let db = PictorialDatabase::with_us_map();
    let server = Server::start(db, &addr, config.clone()).expect("bind");
    println!(
        "psql-serverd listening on {} ({} insert workers, queue {}, default deadline {:?})",
        server.local_addr(),
        config.workers,
        config.queue_capacity,
        config.default_deadline
    );
    println!("send the protocol SHUTDOWN request to stop.");
    server.wait();
    println!("drained; bye.");
}

/// The scripted session CI runs: every assertion here is part of the
/// server's behavioural contract.
/// `n` points in a `sites(site, loc)` relation on a 1000 × 1000
/// `site-map`, packed.
fn sites_db(n: u64) -> PictorialDatabase {
    let mut db = PictorialDatabase::new(RTreeConfig::PAPER);
    db.create_picture("site-map", Rect::new(0.0, 0.0, 1000.0, 1000.0))
        .expect("fresh picture");
    let schema = Schema::new(vec![
        Column::new("site", ColumnType::Str),
        Column::new("loc", ColumnType::Pointer),
    ])
    .expect("valid schema");
    db.catalog_mut()
        .create_relation("sites", schema)
        .expect("fresh relation");
    db.associate("sites", "loc", "site-map").expect("assoc");
    for i in 0..n {
        let at = Point::new((i * 7919 % 1000) as f64, (i * 104_729 % 997) as f64);
        let object = db
            .add_object("site-map", SpatialObject::Point(at), &format!("o{i}"))
            .expect("picture exists");
        let tuple = vec![format!("s{i}").into(), Value::Pointer(object)];
        db.insert("sites", tuple).expect("valid tuple");
    }
    db.pack_all();
    db
}

fn run_smoke(mut config: ServerConfig) {
    config.workers = config.workers.max(2);
    if config.wal_path.is_none() {
        config.wal_path = Some(
            std::env::temp_dir().join(format!("psql-serverd-smoke-{}.wal", std::process::id())),
        );
    }
    let server = Server::start(
        PictorialDatabase::with_us_map(),
        "127.0.0.1:0",
        config.clone(),
    )
    .expect("bind ephemeral");
    let addr = server.local_addr();
    println!("[smoke] server on {addr}");

    let timeout = Duration::from_secs(10);
    let mut c = Client::connect_timeout(addr, timeout).expect("connect");

    // 1. Liveness.
    c.ping().expect("ping");
    println!("[smoke] ping ok");

    // 2. A real spatial query.
    let (epoch, result) = c
        .query_expect_result(
            "select city, population from cities on us-map \
             at loc covered-by {82.5 +- 17.5, 25 +- 20} where population > 450000",
        )
        .expect("query");
    assert_eq!(epoch, 1, "first snapshot is epoch 1");
    assert!(result.len() >= 3, "eastern cities expected, got {result:?}");
    println!(
        "[smoke] spatial query ok ({} rows, epoch {epoch})",
        result.len()
    );

    // 3. A juxtaposition (geographic join).
    let (_, join) = c
        .query_expect_result(
            "select city, zone from cities, time-zones on us-map, time-zone-map \
             at cities.loc covered-by time-zones.loc",
        )
        .expect("join query");
    assert_eq!(join.len(), 42, "every city joins exactly one zone");
    println!("[smoke] juxtaposition ok (42 rows)");

    // 4. A dynamic insert: WAL-committed before the Done, buffered in
    // the delta tree while the frozen main tree keeps serving.
    let insert_epoch = c
        .insert_expect_done(
            "us-map",
            "smoke-pt",
            SpatialObject::Point(Point::new(50.0, 25.0)),
        )
        .expect("insert");
    assert!(insert_epoch >= 2, "insert must publish a new snapshot");
    println!("[smoke] durable insert ok (epoch {insert_epoch})");

    // 5. A PSQL error comes back typed, session survives.
    match c.query("select frobnicate from").expect("error roundtrip") {
        Response::Error { kind, .. } => {
            assert!(
                matches!(
                    kind,
                    ErrorKind::Parse | ErrorKind::Lex | ErrorKind::Semantic
                ),
                "unexpected kind {kind:?}"
            );
        }
        other => panic!("expected typed error, got {other:?}"),
    }
    println!("[smoke] typed PSQL error ok");

    // 6. A malformed payload (junk opcode) gets a Protocol error and the
    // session keeps working.
    let mut junk = Vec::new();
    junk.extend_from_slice(&9u32.to_be_bytes()); // frame length
    junk.extend_from_slice(&77u64.to_be_bytes()); // request id
    junk.push(200); // no such opcode
    c.send_raw(&junk).expect("send junk");
    match c.read_response().expect("junk answered") {
        Response::Error { id, kind, .. } => {
            assert_eq!(id, 77);
            assert_eq!(kind, ErrorKind::Protocol);
        }
        other => panic!("expected protocol error, got {other:?}"),
    }
    c.ping().expect("session survived junk");
    println!("[smoke] malformed frame answered, session intact");

    // 6b. An answer longer than a frame may be (1 MiB) comes back as a
    // typed Protocol error, and the session's next request is answered.
    // The US map is too small for one, so a second server serves 60 000
    // sites, whose `select site, loc` is about 3 MB.
    let sites = Server::start(sites_db(60_000), "127.0.0.1:0", ServerConfig::default())
        .expect("bind sites");
    let mut s = Client::connect_timeout(sites.local_addr(), timeout).expect("connect sites");
    match s
        .query("select site, loc from sites")
        .expect("oversized roundtrip")
    {
        Response::Error { kind, message, .. } => {
            assert_eq!(kind, ErrorKind::Protocol, "{message}");
            assert!(message.contains("frame limit"), "{message}");
        }
        other => panic!("expected a protocol error, got {other:?}"),
    }
    s.ping().expect("session survived an oversized answer");
    sites.stop();
    println!("[smoke] oversized answer refused, session intact");

    // 7. Deadline enforcement: a query that sleeps past its budget.
    match c
        .query_with_timeout("#sleep 300 select city from cities", 50)
        .expect("timeout roundtrip")
    {
        Response::Timeout { .. } => {}
        other => panic!("expected timeout, got {other:?}"),
    }
    println!("[smoke] deadline timeout ok");

    // 8. Admin re-pack publishes a new snapshot …
    let epoch = c.repack().expect("repack");
    assert!(epoch >= 2);
    // … and queries now run against it.
    let (post_epoch, _) = c
        .query_expect_result("select zone from time-zones")
        .expect("post-repack query");
    assert_eq!(post_epoch, epoch);
    println!("[smoke] repack published epoch {epoch}");

    // 8b. No insert waits for a pack: one sent while a REPACK is in
    // flight is acknowledged, and the snapshot the two leave behind
    // holds it — packed if it beat the rebuild's clone, in the new
    // generation's delta if not.
    let mut admin = Client::connect_timeout(addr, timeout).expect("second connection");
    let (repacked, inserted) = std::thread::scope(|scope| {
        let repack = scope.spawn(|| admin.repack().expect("repack beside an insert"));
        let late = SpatialObject::Point(Point::new(51.0, 26.0));
        let inserted = c
            .insert_expect_done("us-map", "smoke-late", late)
            .expect("insert beside a repack");
        (repack.join().expect("repack thread"), inserted)
    });
    let epoch = repacked.max(inserted);
    let stats = c.stats().expect("stats");
    assert!(
        stats.contains("\"us-map\":{\"packed_objects\":44,\"delta_objects\":0,")
            || stats.contains("\"us-map\":{\"packed_objects\":43,\"delta_objects\":1,"),
        "{stats}"
    );
    println!("[smoke] insert beside a repack ok (epochs {inserted} and {repacked})");

    // 9. STATS reflects the session, write path included.
    let stats = c.stats().expect("stats");
    assert!(stats.contains("\"queries\":"), "{stats}");
    assert!(
        stats.contains(&format!("\"snapshot_epoch\":{epoch}")),
        "{stats}"
    );
    assert!(stats.contains("\"timeout\":1"), "{stats}");
    assert!(stats.contains("\"inserts\":2"), "{stats}");
    assert!(stats.contains("\"wal_appends\":2"), "{stats}");
    println!("[smoke] stats: {stats}");

    // 10. Graceful shutdown over the wire, then drain.
    c.shutdown_server().expect("shutdown");
    server.wait();
    println!("[smoke] clean shutdown");

    // 11. Restart on the same WAL: the acknowledged inserts are replayed
    // into the delta tree of a fresh base database.
    let server = Server::start(
        PictorialDatabase::with_us_map(),
        "127.0.0.1:0",
        config.clone(),
    )
    .expect("rebind");
    let mut c = Client::connect_timeout(server.local_addr(), timeout).expect("reconnect");
    let stats = c.stats().expect("post-restart stats");
    assert!(stats.contains("\"wal_recovered\":2"), "{stats}");
    assert!(stats.contains("\"delta_items\":2"), "{stats}");
    c.shutdown_server().expect("second shutdown");
    server.wait();
    if let Some(path) = &config.wal_path {
        let _ = std::fs::remove_file(path);
    }
    println!("[smoke] restart replayed the WAL inserts; all good");
}
