//! End-to-end checks of the sustained-write path: dynamic inserts must
//! keep the frozen main tree serving (the delta buffers them), the
//! background merge must fold deltas back into packed + frozen trees,
//! and a WAL-configured server must recover every acknowledged insert
//! after a restart.

use psql::database::PictorialDatabase;
use psql_server::client::Client;
use psql_server::protocol::Response;
use psql_server::server::{Server, ServerConfig};
use rtree_geom::{Point, SpatialObject};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// A unique throwaway WAL path per test (removed on a best-effort basis;
/// the OS temp dir reaps leftovers).
fn temp_wal_path(tag: &str) -> PathBuf {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "psql-server-wal-{tag}-{}-{n}.wal",
        std::process::id()
    ))
}

fn connect(server: &Server) -> Client {
    Client::connect_timeout(server.local_addr(), Duration::from_secs(30)).expect("connect")
}

/// Pulls a `"field":value` number out of the flat STATS JSON.
fn json_u64(json: &str, field: &str) -> u64 {
    let key = format!("\"{field}\":");
    let start = json
        .find(&key)
        .unwrap_or_else(|| panic!("{field} in {json}"))
        + key.len();
    json[start..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect::<String>()
        .parse()
        .expect("number")
}

#[test]
fn inserts_keep_frozen_serving_and_background_merge_folds_delta() {
    let server = Server::start(
        PictorialDatabase::with_us_map(),
        "127.0.0.1:0",
        ServerConfig {
            workers: 2,
            merge_threshold: 10,
            merge_interval: Duration::from_millis(5),
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let mut client = connect(&server);

    let baseline = server
        .snapshots()
        .load()
        .db
        .picture("us-map")
        .expect("picture")
        .len();

    // Acknowledged inserts publish fresh snapshots with monotone epochs.
    let mut last_epoch = 0;
    for i in 0..10 {
        let epoch = client
            .insert_expect_done(
                "us-map",
                &format!("new-city-{i}"),
                SpatialObject::Point(Point::new(30.0 + i as f64, 20.0 + i as f64)),
            )
            .expect("insert acked");
        assert!(epoch > last_epoch, "epoch went backwards");
        last_epoch = epoch;
    }

    // The writes are visible and the frozen compilation survived them —
    // the regression this PR fixes is `add` dropping it.
    {
        let snap = server.snapshots().load();
        let pic = snap.db.picture("us-map").expect("picture");
        assert_eq!(pic.len(), baseline + 10);
        assert!(pic.frozen().is_some(), "insert dropped the frozen tree");
        assert!(snap.db.frozen_intact());
    }

    // The background merge (threshold 10, the insert count, so the one
    // merge that can start folds all ten) folds the delta into a freshly
    // packed + frozen tree and publishes it.
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let snap = server.snapshots().load();
        let pic = snap.db.picture("us-map").expect("picture");
        if !pic.needs_merge() && pic.len() == baseline + 10 {
            assert_eq!(pic.packed_len(), baseline + 10);
            assert!(pic.frozen().is_some(), "merge lost the frozen tree");
            break;
        }
        assert!(Instant::now() < deadline, "background merge never ran");
        std::thread::sleep(Duration::from_millis(10));
    }

    // Post-merge STATS pins the whole story: merges ran, the delta is
    // empty again, and packed pictures still serve frozen queries.
    let stats = client.stats().expect("stats");
    assert!(json_u64(&stats, "merges") >= 1, "{stats}");
    assert_eq!(json_u64(&stats, "delta_items"), 0, "{stats}");
    assert_eq!(json_u64(&stats, "inserts"), 10, "{stats}");
    assert!(stats.contains("\"serves_frozen_queries\":true"), "{stats}");
    // No WAL configured: the write-path counters say so.
    assert_eq!(json_u64(&stats, "wal_appends"), 0, "{stats}");

    // Inserted objects answer spatial queries after the merge exactly
    // like loaded ones (they carry no relation tuple, so check through
    // the picture itself).
    {
        let snap = server.snapshots().load();
        let pic = snap.db.picture("us-map").expect("picture");
        let mut stats = rtree_index::SearchStats::default();
        let found = pic.search_window(
            psql::SpatialOp::CoveredBy,
            &rtree_geom::Rect::new(29.5, 19.5, 39.5, 29.5),
            &mut stats,
        );
        assert!(
            found.len() >= 10,
            "merged tree lost inserted objects: {found:?}"
        );
    }
    server.stop();
}

#[test]
fn snapshot_gauges_refresh_at_publication_not_stats_time() {
    // The regression: `delta_items` / `serves_frozen_queries` were only
    // mirrored into the registry while serving a STATS request, so an
    // embedder reading `server.metrics()` directly (or a scraper that
    // never sends STATS) saw stale zeros. They must track publication.
    let mut db = PictorialDatabase::with_us_map();
    // Beside the map, a picture big enough to read bytes per object off.
    db.create_picture("dense", rtree_geom::Rect::new(0.0, 0.0, 1000.0, 1000.0))
        .expect("fresh picture");
    for i in 0..10_000u64 {
        let x = (i.wrapping_mul(2654435761) % 100_000) as f64 / 100.0;
        let y = (i.wrapping_mul(40503) % 100_000) as f64 / 100.0;
        db.add_object(
            "dense",
            SpatialObject::Point(Point::new(x, y)),
            &format!("d{i:07}"),
        )
        .expect("picture exists");
    }
    db.pack_all();
    let server = Server::start(
        db,
        "127.0.0.1:0",
        ServerConfig {
            workers: 2,
            merge_threshold: usize::MAX,
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let metrics = server.metrics();
    // Fresh from startup publication: no deltas, frozen trees intact.
    assert_eq!(metrics.delta_items.get(), 0);
    assert_eq!(metrics.serves_frozen_queries.get(), 1);
    let gauge_of = |name: &str| {
        let pictures = metrics.pictures.lock().unwrap();
        assert_eq!(pictures.len(), 6, "one gauge per picture");
        pictures
            .iter()
            .find(|g| g.name == name)
            .unwrap_or_else(|| panic!("{name} gauge"))
            .clone()
    };
    // The gauge tells the truth about the columnar layout: beside its
    // arena (a packed picture holds no pointer tree), a packed point with
    // an 8-byte label is a 16-byte slot, the label's bytes and a 4-byte
    // offset — not an enum sized for a region and a `String` header
    // (≈ 85 B).
    {
        let dense = gauge_of("dense");
        assert_eq!((dense.packed_objects, dense.delta_objects), (10_000, 0));
        let snap = server.snapshots().load();
        let pic = snap.db.picture("dense").expect("picture");
        let arena = pic.frozen().expect("packed").approx_bytes();
        let store = dense.packed_bytes - arena as u64;
        assert_eq!(store, 10_000 * (16 + 8 + 4), "store bytes");
        assert!(store <= 10_000 * 40);
    }
    let us_map = || gauge_of("us-map");
    let loaded = us_map();
    assert_eq!((loaded.packed_objects, loaded.delta_objects), (42, 0));
    assert!(loaded.packed_bytes > 0);
    assert_eq!(metrics.publish_latency.count(), 0);

    let mut client = connect(&server);
    for i in 0..3u64 {
        client
            .insert_expect_done(
                "us-map",
                &format!("gauge-{i}"),
                SpatialObject::Point(Point::new(33.0 + i as f64, 21.0)),
            )
            .expect("insert acked");
        // No STATS request has been served; the gauge is fresh anyway.
        assert_eq!(
            metrics.delta_items.get(),
            i + 1,
            "delta gauge stale after insert publication"
        );
        // So are the per-picture sizes and the publication histogram:
        // the packed generation is shared and unchanged, the delta grew.
        let gauge = us_map();
        assert_eq!((gauge.packed_objects, gauge.delta_objects), (42, i + 1));
        assert_eq!(gauge.packed_bytes, loaded.packed_bytes);
        assert!(gauge.delta_bytes > loaded.delta_bytes);
        assert_eq!(metrics.publish_latency.count(), i + 1);
    }
    assert_eq!(metrics.serves_frozen_queries.get(), 1);
    let stats = client.stats().expect("stats");
    assert!(
        stats.contains("\"publish_latency_us\":{\"count\":3,"),
        "{stats}"
    );
    assert!(stats.contains("\"log2_buckets\":["), "{stats}");
    assert!(
        stats.contains("\"us-map\":{\"packed_objects\":42,\"delta_objects\":3,"),
        "{stats}"
    );

    // Repack folds the delta; the gauge follows at publication again.
    client.repack().expect("repack");
    assert_eq!(
        metrics.delta_items.get(),
        0,
        "delta gauge stale after repack publication"
    );
    assert_eq!(metrics.serves_frozen_queries.get(), 1);
    let repacked = us_map();
    assert_eq!((repacked.packed_objects, repacked.delta_objects), (45, 0));
    assert!(repacked.packed_bytes > loaded.packed_bytes);
    server.stop();
}

/// A never-packed picture builds its tree behind `&self`, at the first
/// query. Served, that must happen once per picture: a reader that
/// builds it on a snapshot the writer has already copied leaves the next
/// publication without it, and the next reader to build all of it again.
#[test]
fn served_never_packed_picture_builds_its_tree_once() {
    use rtree_geom::Rect;
    use rtree_index::{ItemId, RTree, RTreeConfig, SearchStats};

    let scatter = |i: u64| {
        let x = (i.wrapping_mul(2654435761) % 100_000) as f64 / 100.0;
        let y = (i.wrapping_mul(40503) % 100_000) as f64 / 100.0;
        Point::new(x, y)
    };
    let mut db = PictorialDatabase::new(RTreeConfig::PAPER);
    db.create_picture("raw", Rect::new(0.0, 0.0, 1000.0, 1000.0))
        .expect("fresh picture");
    let mut points: Vec<Point> = (0..3_000).map(scatter).collect();
    for (i, p) in points.iter().enumerate() {
        db.add_object("raw", SpatialObject::Point(*p), &format!("r{i}"))
            .expect("picture exists");
    }
    let server = Server::start(
        db,
        "127.0.0.1:0",
        ServerConfig {
            workers: 2,
            merge_threshold: usize::MAX,
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let mut client = connect(&server);
    let cell = server.snapshots();

    // The reader lags one snapshot behind the writer: it reads what was
    // current before the insert it has just seen acknowledged.
    let mut pinned = cell.load();
    assert!(
        !pinned.db.picture("raw").expect("picture").is_indexed(),
        "loading asked for no index"
    );
    for round in 0..40u64 {
        let p = scatter(1_000_000 + round);
        client
            .insert_expect_done("raw", &format!("w{round}"), SpatialObject::Point(p))
            .expect("insert acked");
        let pic = pinned.db.picture("raw").expect("picture");
        assert_eq!(pic.len(), points.len());
        // Only the snapshot the server started with may be found
        // unindexed; whoever builds its tree, every later one has it.
        assert!(
            pic.is_indexed() || pinned.epoch == 1,
            "round {round}: the snapshot of epoch {} was published without the tree",
            pinned.epoch
        );
        let window = Rect::new(
            10.0 * round as f64,
            5.0 * round as f64,
            10.0 * round as f64 + 300.0,
            5.0 * round as f64 + 300.0,
        );
        let mut got = pic.search_window(
            psql::SpatialOp::CoveredBy,
            &window,
            &mut SearchStats::default(),
        );
        got.sort_unstable();
        let expect: Vec<u64> = (0u64..)
            .zip(&points)
            .filter(|(_, p)| window.contains_point(**p))
            .map(|(id, _)| id)
            .collect();
        assert!(expect.len() > 50, "window {window:?} is too empty to tell");
        assert_eq!(got, expect, "round {round}");
        points.push(p);
        pinned = cell.load();
    }

    // One tree, built once and inserted into since: the one eager
    // INSERTs build.
    let mut eager = RTree::new(RTreeConfig::PAPER);
    for (id, p) in (0u64..).zip(&points) {
        eager.insert(Rect::from_point(*p), ItemId(id));
    }
    assert_eq!(pinned.db.picture("raw").expect("picture").tree(), &eager);
    server.stop();
}

#[test]
fn idle_workers_do_not_pin_superseded_snapshots() {
    // A worker that served a request and then found the queue empty used
    // to keep its snapshot pinned while blocked — after a merge, a whole
    // dead packed generation per idle worker. Every snapshot published
    // before the merge must be freed once the merge has published, with
    // the workers idle.
    let server = Server::start(
        PictorialDatabase::with_us_map(),
        "127.0.0.1:0",
        ServerConfig {
            workers: 2,
            merge_threshold: 4,
            merge_interval: Duration::from_millis(5),
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let mut client = connect(&server);
    let cell = server.snapshots();
    let mut superseded = vec![std::sync::Arc::downgrade(&cell.load())];

    // Two parked queries, answered against the first snapshot.
    let sleepers = [
        client.send_query("#sleep 100").expect("send"),
        client.send_query("#sleep 100").expect("send"),
    ];
    for _ in sleepers {
        match client.read_response().expect("response") {
            Response::Result { id, .. } => assert!(sleepers.contains(&id)),
            other => panic!("unexpected {other:?}"),
        }
    }
    for i in 0..4 {
        client
            .insert_expect_done(
                "us-map",
                &format!("pin-{i}"),
                SpatialObject::Point(Point::new(31.0 + i as f64, 21.0)),
            )
            .expect("insert acked");
        // The fourth insert arms the merge, whose snapshot may already
        // be the current one by the time this thread looks.
        if i < 3 {
            superseded.push(std::sync::Arc::downgrade(&cell.load()));
        }
    }

    let deadline = Instant::now() + Duration::from_secs(20);
    while server.metrics().merges.get() == 0 {
        assert!(Instant::now() < deadline, "background merge never ran");
        std::thread::sleep(Duration::from_millis(5));
    }
    // The merge thread drops its own pin of the base right after
    // publishing, and the reactor and a worker release theirs right
    // after each answer.
    while let Some(alive) = superseded.iter().find_map(|weak| weak.upgrade()) {
        let epoch = alive.epoch;
        drop(alive);
        assert!(
            Instant::now() < deadline,
            "snapshot of epoch {epoch} is still pinned with every worker idle"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    server.stop();
}

#[test]
fn insert_into_unknown_picture_is_a_typed_error() {
    let server = Server::start(
        PictorialDatabase::with_us_map(),
        "127.0.0.1:0",
        ServerConfig::default(),
    )
    .expect("bind");
    let mut client = connect(&server);
    match client
        .insert(
            "no-such-map",
            "x",
            SpatialObject::Point(Point::new(0.0, 0.0)),
        )
        .expect("roundtrip")
    {
        Response::Error { kind, message, .. } => {
            assert_eq!(kind, psql_server::ErrorKind::Semantic);
            assert!(message.contains("no-such-map"), "{message}");
        }
        other => panic!("expected typed error, got {other:?}"),
    }
    // The session survives and the database is untouched.
    client.ping().expect("ping after error");
    assert_eq!(server.snapshots().load().db.delta_len(), 0);
    server.stop();
}

#[test]
fn wal_recovery_replays_acknowledged_inserts_across_restarts() {
    let wal = temp_wal_path("recovery");
    let config = || ServerConfig {
        workers: 2,
        wal_path: Some(wal.clone()),
        // Merging must not be required for durability; disable it so the
        // test pins recovery itself.
        merge_threshold: usize::MAX,
        ..ServerConfig::default()
    };

    let baseline;
    {
        let server =
            Server::start(PictorialDatabase::with_us_map(), "127.0.0.1:0", config()).expect("bind");
        baseline = server
            .snapshots()
            .load()
            .db
            .picture("us-map")
            .expect("picture")
            .len();
        let mut client = connect(&server);
        for i in 0..5 {
            client
                .insert_expect_done(
                    "us-map",
                    &format!("durable-{i}"),
                    SpatialObject::Point(Point::new(40.0 + i as f64, 22.0)),
                )
                .expect("insert acked");
        }
        let stats = client.stats().expect("stats");
        assert_eq!(json_u64(&stats, "wal_appends"), 5, "{stats}");
        assert!(json_u64(&stats, "wal_syncs") >= 1, "{stats}");
        assert_eq!(json_u64(&stats, "delta_items"), 5, "{stats}");
        server.stop();
        // The server is gone; only the WAL file remembers the writes.
    }

    // A fresh process start from the same base database: replay must
    // rebuild the delta trees exactly.
    {
        let server = Server::start(PictorialDatabase::with_us_map(), "127.0.0.1:0", config())
            .expect("bind after restart");
        let snap = server.snapshots().load();
        let pic = snap.db.picture("us-map").expect("picture");
        assert_eq!(pic.len(), baseline + 5, "recovery lost inserts");
        assert_eq!(pic.delta_len(), 5);
        assert!(pic.frozen().is_some());
        let labels: Vec<_> = (baseline as u64..(baseline + 5) as u64)
            .map(|id| pic.label(id).expect("label").to_owned())
            .collect();
        assert_eq!(
            labels,
            (0..5).map(|i| format!("durable-{i}")).collect::<Vec<_>>()
        );

        let mut client = connect(&server);
        let stats = client.stats().expect("stats");
        assert_eq!(json_u64(&stats, "wal_recovered"), 5, "{stats}");

        // New writes append after the recovered tail.
        client
            .insert_expect_done(
                "us-map",
                "durable-5",
                SpatialObject::Point(Point::new(45.0, 22.0)),
            )
            .expect("insert after recovery");
        server.stop();
    }

    // Second restart sees all six.
    {
        let server = Server::start(PictorialDatabase::with_us_map(), "127.0.0.1:0", config())
            .expect("bind after second restart");
        let snap = server.snapshots().load();
        assert_eq!(
            snap.db.picture("us-map").expect("picture").len(),
            baseline + 6
        );
        let mut client = connect(&server);
        let stats = client.stats().expect("stats");
        assert_eq!(json_u64(&stats, "wal_recovered"), 6, "{stats}");
        server.stop();
    }
    let _ = std::fs::remove_file(&wal);
}

#[test]
fn pipelined_inserts_group_commit_under_one_fsync() {
    let wal = temp_wal_path("group-commit");
    let server = Server::start(
        PictorialDatabase::with_us_map(),
        "127.0.0.1:0",
        ServerConfig {
            // One worker: what waits while it syncs departs as one pack.
            workers: 1,
            max_batch: 32,
            wal_path: Some(wal.clone()),
            merge_threshold: usize::MAX,
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let mut client = connect(&server);

    // The sleeper is parked; the inserts one turn reads enter the queue
    // as one push, and those that arrive while the lone worker syncs
    // wait for its next pack, so the burst commits in groups.
    let sleep_id = client.send_query("#sleep 150").expect("send sleep");
    let mut ids = Vec::new();
    for i in 0..8 {
        ids.push(
            client
                .send_insert(
                    "us-map",
                    &format!("burst-{i}"),
                    SpatialObject::Point(Point::new(50.0 + i as f64, 30.0)),
                )
                .expect("pipeline insert"),
        );
    }
    let mut done = 0;
    for _ in 0..=ids.len() {
        match client.read_response().expect("response") {
            Response::Done { id, .. } => {
                assert!(ids.contains(&id));
                done += 1;
            }
            Response::Result { id, .. } => assert_eq!(id, sleep_id),
            other => panic!("unexpected {other:?}"),
        }
    }
    assert_eq!(done, ids.len());

    let stats = client.stats().expect("stats");
    assert_eq!(json_u64(&stats, "wal_appends"), 8, "{stats}");
    // Group commit: eight appends reached disk under very few fsyncs
    // (one per dequeued pack; the backlog may split across at most a
    // couple of pops, but never one fsync per insert).
    assert!(json_u64(&stats, "wal_syncs") < 8, "{stats}");
    server.stop();
    let _ = std::fs::remove_file(&wal);
}

/// A rebuild is adopted when the pictures it packed still serve the
/// generation it cloned — and a never-packed picture serves none, before
/// and after. A REPACK of one must read that as "unchanged", not as
/// "replaced underneath me", or it would pack again for ever.
#[test]
fn repack_packs_a_never_packed_picture_and_keeps_what_was_added_meanwhile() {
    use rtree_geom::Rect;
    use rtree_index::RTreeConfig;

    let scatter = |i: u64| {
        let x = (i.wrapping_mul(2654435761) % 100_000) as f64 / 100.0;
        let y = (i.wrapping_mul(40503) % 100_000) as f64 / 100.0;
        SpatialObject::Point(Point::new(x, y))
    };
    let mut db = PictorialDatabase::new(RTreeConfig::PAPER);
    db.create_picture("raw", Rect::new(0.0, 0.0, 1000.0, 1000.0))
        .expect("fresh picture");
    for i in 0..20_000 {
        db.add_object("raw", scatter(i), &format!("r{i}"))
            .expect("picture exists");
    }
    let server = Server::start(
        db,
        "127.0.0.1:0",
        ServerConfig {
            workers: 2,
            merge_threshold: usize::MAX,
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let mut admin = connect(&server);
    let mut writer = connect(&server);

    // Inserts keep arriving until the REPACK has been answered.
    let answered = std::sync::atomic::AtomicBool::new(false);
    let (epoch, added) = std::thread::scope(|scope| {
        let inserting = scope.spawn(|| {
            let mut added = 0u64;
            while !answered.load(Ordering::SeqCst) || added < 10 {
                writer
                    .insert_expect_done("raw", &format!("w{added}"), scatter(1_000_000 + added))
                    .expect("insert acked beside the repack");
                added += 1;
            }
            added
        });
        let epoch = admin
            .repack()
            .expect("a REPACK of a never-packed picture ends");
        answered.store(true, Ordering::SeqCst);
        (epoch, inserting.join().expect("writer"))
    });

    let snap = server.snapshots().load();
    assert!(snap.epoch >= epoch);
    let pic = snap.db.picture("raw").expect("picture");
    assert!(pic.frozen().is_some(), "REPACK left the picture unpacked");
    assert!(pic.packed_len() >= 20_000);
    assert_eq!(pic.len() as u64, 20_000 + added);
    for i in 0..added {
        assert_eq!(pic.label(20_000 + i), Some(format!("w{i}").as_str()));
        assert_eq!(
            pic.object(20_000 + i).as_deref(),
            Some(&scatter(1_000_000 + i))
        );
    }
    assert_eq!(server.metrics().merges_discarded.get(), 0);
    drop(snap);
    server.stop();
}

/// Every REPACK is answered exactly once, however many share a rebuild
/// and whenever the server stops: `Done` for one it accepted (or the
/// typed shutdown error), `Overloaded` for one the full slot turned away.
#[test]
fn every_repack_gets_exactly_one_answer_across_shutdown() {
    use psql_server::protocol::{encode_request, write_frame, ErrorKind, Request};
    use rtree_geom::Rect;

    // Big enough that the burst below outlasts the first rebuild.
    let mut db = PictorialDatabase::with_us_map();
    db.create_picture("dense", Rect::new(0.0, 0.0, 1000.0, 1000.0))
        .expect("fresh picture");
    for i in 0..30_000u64 {
        let x = (i.wrapping_mul(2654435761) % 100_000) as f64 / 100.0;
        let y = (i.wrapping_mul(40503) % 100_000) as f64 / 100.0;
        db.add_object("dense", SpatialObject::Point(Point::new(x, y)), "d")
            .expect("picture exists");
    }
    let server = Server::start(
        db,
        "127.0.0.1:0",
        ServerConfig {
            merge_threshold: usize::MAX,
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let mut admin = connect(&server);
    // One REPACK to start a rebuild, then nine in one write while it
    // packs: more than the slot holds at once. (The pause only makes that
    // interleaving likely; what is asserted holds for every one.)
    let frames = |ids: std::ops::Range<u64>| {
        let mut frames = Vec::new();
        for id in ids {
            write_frame(&mut frames, &encode_request(&Request::Repack { id })).expect("to memory");
        }
        frames
    };
    admin.send_raw(&frames(100..101)).expect("first sent");
    std::thread::sleep(Duration::from_millis(5));
    admin.send_raw(&frames(101..110)).expect("burst sent");
    // The server stops with some of them still waiting for a rebuild.
    connect(&server).shutdown_server().expect("shutdown");
    server.wait();

    let (mut answered, mut done) = (Vec::new(), 0);
    for _ in 0..10 {
        match admin.read_response().expect("one answer per request") {
            Response::Done { id, .. } => {
                done += 1;
                answered.push(id);
            }
            Response::Overloaded { id, .. } => answered.push(id),
            Response::Error { id, kind, message } => {
                assert_eq!(kind, ErrorKind::Internal, "{message}");
                assert!(message.contains("shutting down"), "{message}");
                answered.push(id);
            }
            other => panic!("unexpected {other:?}"),
        }
    }
    answered.sort_unstable();
    assert_eq!(answered, (100..110).collect::<Vec<u64>>());
    assert!(done >= 1, "the first REPACK at least was accepted");
    assert!(admin.read_response().is_err(), "an eleventh answer");
}
