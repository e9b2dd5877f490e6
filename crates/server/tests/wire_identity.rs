//! The served result frame is the `ResultSet`'s frame, byte for byte.
//!
//! The server encodes a query's result straight from the database into
//! the connection (`server::answer_frame` around
//! `psql::exec::execute_plan_into`); a library caller gets a
//! `ResultSet`, which `encode_response_frame` replays through the same
//! writer. Over two databases — the US map of §2 and a `sites`-shaped
//! one with NULLs, deleted tuples and delta objects — every query's
//! frame must come out the same both ways, written directly and served
//! over a socket by the whole `answer` path. And a query that fails
//! after its first rows were written, panics, or outlives its deadline
//! must leave exactly one `Error` or `Timeout` frame behind it, with no
//! byte of the rows it had written; so must an answer longer than one
//! frame may be, and the session goes on.

use pictorial_relational::{Column, ColumnType, Schema, Value};
use psql::database::PictorialDatabase;
use psql::exec::{execute_plan_into, execute_plan_with_scratch};
use psql::functions::FunctionRegistry;
use psql::plan::{plan, Plan};
use psql::{PsqlError, ResultSet};
use psql_server::client::Client;
use psql_server::metrics::Metrics;
use psql_server::protocol::{
    decode_response, encode_request, encode_response_frame, write_frame, ErrorKind, FrameDecoder,
    Request, Response,
};
use psql_server::server::{answer_frame, Server, ServerConfig};
use rtree_geom::{Point, Rect, SpatialObject};
use rtree_index::{RTreeConfig, SearchScratch};
use std::io::Read;
use std::net::TcpStream;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

const US_MAP: &[&str] = &[
    // Windows, all four operators.
    "select city, state, population, loc from cities on us-map \
     at loc covered-by {82.5 +- 17.5, 25 +- 20} where population > 450000",
    "select zone, hour-diff from time-zones on time-zone-map at loc overlapping {50 +- 10, 25 +- 25}",
    "select zone from time-zones on time-zone-map at loc covering {53 +- 1, 32 +- 1}",
    "select zone, loc from time-zones on time-zone-map at loc disjoined {10 +- 9, 25 +- 25}",
    "select city from cities on us-map at loc covered-by {0 +- 0.5, 0 +- 0.5}",
    // k-NN.
    "select city, loc from cities on us-map at loc nearest 7 {53 +- 0, 32 +- 0}",
    // Scans, an index range, order by and limit.
    "select * from time-zones",
    "select * from cities",
    "select city, population from cities where population >= 6000000",
    "select state, population-density from states order by population-density desc limit 5",
    "select lake, area, volume from lakes where area > 5.5 or volume < 100",
    // Juxtapositions in both `from` orders.
    "select city, zone, hour-diff from cities, time-zones on us-map, time-zone-map \
     at cities.loc covered-by time-zones.loc",
    "select zone, city from time-zones, cities on time-zone-map, us-map \
     at cities.loc covered-by time-zones.loc",
    "select city, zone from cities, time-zones on us-map, time-zone-map \
     at cities.loc covered-by time-zones.loc where population > 500000 \
     order by population desc limit 5",
    // Juxtapositions with no rows left: every row filtered out, and a
    // limit of 0, so the second relation's columns are gathered from
    // no tuples.
    "select city, zone from cities, time-zones on us-map, time-zone-map \
     at cities.loc covered-by time-zones.loc where population > 100000000",
    "select zone, city from time-zones, cities on time-zone-map, us-map \
     at cities.loc covered-by time-zones.loc limit 0",
    // A nested mapping.
    "select lake, loc from lakes on lake-map at lakes.loc covered-by \
     (select states.loc from states on state-map \
      at states.loc covered-by {78 +- 22, 25 +- 25})",
    // Aggregates and pictorial functions.
    "select northest-of(loc), count-of(loc) from highways where hwy-name = 'I-90'",
    "select count-of(loc) from cities on us-map at loc covered-by {0 +- 0.1, 0 +- 0.1}",
    "select lake, area(loc), class(loc) from lakes where area(loc) >= 20",
    "select hwy-name, hwy-section, perimeter(loc) from highways on highway-map \
     at loc overlapping {50 +- 10, 30 +- 12}",
];

const SITES: &[&str] = &[
    "select site, weight, score, loc from sites",
    "select site, score, loc from sites on site-map at loc covered-by {500 +- 60, 500 +- 60}",
    "select site, weight from sites on site-map at loc overlapping {200 +- 30, 800 +- 30}",
    "select site from sites on site-map at loc covering {500 +- 0, 500 +- 0}",
    "select site, weight from sites on site-map at loc disjoined {500 +- 450, 500 +- 450}",
    // The delta objects sit in this window.
    "select site, weight, loc from sites on site-map at loc covered-by {20 +- 20, 20 +- 20}",
    "select site, weight, loc from sites on site-map at loc nearest 40 {250 +- 0, 750 +- 0}",
    "select site, weight from sites where weight = 7",
    "select site, weight from sites where weight >= 990 and weight < 995.5",
    "select site, score from sites where score < 0 order by score desc limit 30",
    "select site, weight from sites order by site desc limit 50",
    "select site, score, weight from sites on site-map at loc covered-by {300 +- 80, 600 +- 80} \
     where weight < 500 order by score limit 15",
    "select northest-of(loc), count-of(loc) from sites on site-map \
     at loc covered-by {700 +- 40, 200 +- 40}",
    "select site, x(loc), y(loc) from sites on site-map \
     at loc covered-by {100 +- 30, 900 +- 30} where score > 4",
];

/// SplitMix64 of `i`.
fn mix(i: u64) -> u64 {
    let mut z = i.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// 3 001 `sites` with NULLs in every column and deleted tuples, packed;
/// then 40 more objects in the delta, near the origin, each carrying two
/// tuples.
fn sites_db() -> PictorialDatabase {
    let mut db = PictorialDatabase::new(RTreeConfig::PAPER);
    db.create_picture("site-map", Rect::new(0.0, 0.0, 1000.0, 1000.0))
        .unwrap();
    let schema = Schema::new(vec![
        Column::new("site", ColumnType::Str),
        Column::new("weight", ColumnType::Int),
        Column::new("score", ColumnType::Float),
        Column::new("loc", ColumnType::Pointer),
    ])
    .unwrap();
    db.catalog_mut().create_relation("sites", schema).unwrap();
    db.associate("sites", "loc", "site-map").unwrap();
    db.catalog_mut().create_index("sites", "weight").unwrap();
    let row = |i: u64, loc: Value| {
        let h = mix(i);
        let site = if i % 97 == 13 {
            Value::Null
        } else {
            format!("s{i}").into()
        };
        let weight = if i % 89 == 5 {
            Value::Null
        } else {
            ((i % 1000) as i64).into()
        };
        let score = match (h >> 40) % 1000 {
            _ if i % 83 == 7 => Value::Null,
            0 => Value::Float(-0.0),
            s => Value::Float(s as f64 / 97.0 - 0.5),
        };
        vec![site, weight, score, loc]
    };
    let mut tids = Vec::new();
    for i in 0..3001u64 {
        let h = mix(i);
        let p = Point::new(
            (h % 100_000) as f64 / 100.0,
            ((h >> 20) % 100_000) as f64 / 100.0,
        );
        let object = db
            .add_object("site-map", SpatialObject::Point(p), &format!("o{i}"))
            .unwrap();
        let loc = if i % 101 == 3 {
            Value::Null
        } else {
            Value::Pointer(object)
        };
        tids.push(db.insert("sites", row(i, loc)).unwrap());
    }
    for (i, &tid) in tids.iter().enumerate() {
        if i % 53 == 0 || i % 211 == 17 {
            db.delete("sites", tid).unwrap();
        }
    }
    db.pack_all();
    for i in 0..40u64 {
        let p = Point::new((i % 8) as f64 * 4.0 + 1.0, (i / 8) as f64 * 6.0 + 1.0);
        let object = db
            .add_object("site-map", SpatialObject::Point(p), &format!("d{i}"))
            .unwrap();
        for k in 0..2 {
            db.insert("sites", row(10_000 + 2 * i + k, Value::Pointer(object)))
                .unwrap();
        }
    }
    assert!(db.delta_len() == 40, "the late objects are in the delta");
    db
}

fn prepare(db: &PictorialDatabase, text: &str) -> Plan {
    let query = psql::parse_query(text).unwrap_or_else(|e| panic!("{text}: {e}"));
    plan(db, &query).unwrap_or_else(|e| panic!("{text}: {e}"))
}

/// The frame a library caller's `ResultSet` encodes to.
fn result_frame(id: u64, epoch: u64, result: ResultSet) -> Vec<u8> {
    let mut frame = Vec::new();
    encode_response_frame(&Response::Result { id, epoch, result }, &mut frame);
    frame
}

/// The one whole frame in `bytes`, decoded.
fn only_frame(bytes: &[u8]) -> Response {
    let mut frames = FrameDecoder::new();
    frames.extend(bytes);
    let frame = frames.next_frame().expect("well framed").expect("a frame");
    assert!(
        frames.next_frame().expect("well framed").is_none() && !frames.mid_frame(),
        "more than one frame"
    );
    decode_response(&frame).expect("a response")
}

fn far() -> Instant {
    Instant::now() + Duration::from_secs(3600)
}

/// Writes every query's answer with `answer_frame` behind some bytes
/// already unwritten, and compares it with the `ResultSet`'s frame.
fn direct(db: &PictorialDatabase, texts: &[&str]) {
    let functions = FunctionRegistry::with_builtins();
    let metrics = Metrics::default();
    let mut scratch = SearchScratch::new();
    for (n, text) in texts.iter().enumerate() {
        let (id, epoch) = (n as u64 * 7 + 1, 3);
        let plan = prepare(db, text);
        let result = execute_plan_with_scratch(db, &plan, &functions, &mut scratch)
            .unwrap_or_else(|e| panic!("{text}: {e}"));
        assert!(
            !result.columns.is_empty(),
            "{text}: a result with no columns shows little"
        );
        let expected = result_frame(id, epoch, result);
        let mut out = b"earlier answers".to_vec();
        answer_frame(&mut out, &metrics, id, epoch, far(), |writer| {
            execute_plan_into(db, &plan, &functions, &mut scratch, writer)
        });
        assert_eq!(&out[..15], b"earlier answers", "{text}");
        assert!(out[15..] == expected[..], "{text}: the frames differ");
    }
    assert_eq!(metrics.ok.get(), texts.len() as u64);
}

/// Serves `db` and compares the frame read off the socket for each
/// query with the `ResultSet`'s frame at the server's first epoch.
fn served(db: &PictorialDatabase, texts: &[&str]) {
    let config = ServerConfig {
        workers: 1,
        merge_threshold: usize::MAX,
        ..ServerConfig::default()
    };
    let server = Server::start(db.clone(), "127.0.0.1:0", config).expect("bind");
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let functions = FunctionRegistry::with_builtins();
    let mut scratch = SearchScratch::new();
    // Twice over: a plan-cache miss, then a hit.
    for round in 0..2u64 {
        for (n, text) in texts.iter().enumerate() {
            let id = round * 1000 + n as u64;
            let query = Request::Query {
                id,
                timeout_ms: 0,
                text: (*text).to_owned(),
            };
            write_frame(&mut stream, &encode_request(&query)).expect("send");
            let mut frame = vec![0; 4];
            stream.read_exact(&mut frame).expect("header");
            let len = u32::from_be_bytes(frame[..4].try_into().unwrap()) as usize;
            frame.resize(4 + len, 0);
            stream.read_exact(&mut frame[4..]).expect("payload");

            let plan = prepare(db, text);
            let result = execute_plan_with_scratch(db, &plan, &functions, &mut scratch).unwrap();
            assert!(
                frame == result_frame(id, 1, result),
                "{text}: the served frame differs"
            );
        }
    }
    let metrics = server.metrics();
    assert_eq!(metrics.plan_cache_hits.get(), texts.len() as u64);
    server.stop();
}

#[test]
fn us_map_frames_equal_result_set_frames() {
    let db = PictorialDatabase::with_us_map();
    direct(&db, US_MAP);
    served(&db, US_MAP);
}

#[test]
fn sites_frames_equal_result_set_frames() {
    let db = sites_db();
    direct(&db, SITES);
    served(&db, SITES);
}

/// Runs `text` with `functions` through `answer_frame` behind some
/// unwritten bytes, on a deadline `budget` away, after checking that a
/// `ResultSet` sink had rows by the time it ended; returns the one frame
/// written.
fn failing(
    db: &PictorialDatabase,
    functions: &FunctionRegistry,
    text: &str,
    budget: Duration,
) -> (Response, Metrics) {
    let plan = prepare(db, text);
    let mut scratch = SearchScratch::new();
    let mut partial = ResultSet::default();
    let ran = catch_unwind(AssertUnwindSafe(|| {
        execute_plan_into(db, &plan, functions, &mut scratch, &mut partial)
    }));
    assert!(
        partial.rows.len() >= 2,
        "{text}: {} rows written before it ended ({:?})",
        partial.rows.len(),
        ran.map(|r| r.err())
    );

    let metrics = Metrics::default();
    let mut out = b"earlier answers".to_vec();
    let deadline = Instant::now() + budget;
    answer_frame(&mut out, &metrics, 42, 3, deadline, |writer| {
        execute_plan_into(db, &plan, functions, &mut scratch, writer)
    });
    assert_eq!(&out[..15], b"earlier answers", "{text}");
    (only_frame(&out[15..]), metrics)
}

#[test]
fn a_query_failing_after_its_first_rows_leaves_one_error_frame() {
    let db = sites_db();
    // Tuple 3's `loc` is NULL; the rows before it are written first.
    let text = "select site, x(loc) from sites";
    let functions = FunctionRegistry::with_builtins();
    let (response, metrics) = failing(&db, &functions, text, Duration::from_secs(3600));
    match response {
        Response::Error {
            id: 42,
            kind: ErrorKind::Semantic,
            message,
        } => assert!(message.contains("NULL loc"), "{message}"),
        other => panic!("expected a semantic error, got {other:?}"),
    }
    assert_eq!(metrics.query_errors.get(), 1);
    assert_eq!(metrics.ok.get(), 0);
}

#[test]
fn a_contained_panic_leaves_one_error_frame() {
    let db = sites_db();
    let mut functions = FunctionRegistry::with_builtins();
    functions.register("boom", |object| {
        let at = object.representative();
        let on_grid = at.x.fract() == 0.0 && at.y.fract() == 0.0 && at.x < 40.0 && at.y < 40.0;
        assert!(!on_grid, "a delta object");
        Value::Float(at.x)
    });
    // Every object is in the window; the delta's are searched last.
    let text = "select site, boom(loc) from sites on site-map \
                at loc covered-by {500 +- 500, 500 +- 500}";
    let (response, metrics) = failing(&db, &functions, text, Duration::from_secs(3600));
    assert!(
        matches!(
            response,
            Response::Error {
                id: 42,
                kind: ErrorKind::Internal,
                ..
            }
        ),
        "{response:?}"
    );
    assert_eq!(metrics.internal_errors.get(), 1);
}

#[test]
fn a_deadline_passing_during_execution_leaves_one_timeout_frame() {
    let db = sites_db();
    let mut functions = FunctionRegistry::with_builtins();
    functions.register("slow", |object| {
        std::thread::sleep(Duration::from_millis(2));
        Value::Float(object.representative().x)
    });
    // About forty rows, two milliseconds each, on a 20 ms deadline.
    let text = "select site, slow(loc) from sites on site-map \
                at loc covered-by {500 +- 60, 500 +- 60}";
    let (response, metrics) = failing(&db, &functions, text, Duration::from_millis(20));
    assert_eq!(response, Response::Timeout { id: 42 });
    assert_eq!(metrics.timeouts.get(), 1);
    assert_eq!(metrics.ok.get(), 0);

    // A deadline already past is answered without executing.
    let mut out = Vec::new();
    let expired = Instant::now() - Duration::from_millis(1);
    answer_frame(
        &mut out,
        &metrics,
        43,
        3,
        expired,
        |_| -> Result<(), PsqlError> { panic!("executed past its deadline") },
    );
    assert_eq!(only_frame(&out), Response::Timeout { id: 43 });
}

#[test]
fn an_answer_past_the_frame_limit_is_an_error_and_the_session_goes_on() {
    // 60 000 sites: `select site, loc` is about 3 MB, three frame limits.
    let mut db = PictorialDatabase::new(RTreeConfig::PAPER);
    db.create_picture("site-map", Rect::new(0.0, 0.0, 1000.0, 1000.0))
        .unwrap();
    let schema = Schema::new(vec![
        Column::new("site", ColumnType::Str),
        Column::new("loc", ColumnType::Pointer),
    ])
    .unwrap();
    db.catalog_mut().create_relation("sites", schema).unwrap();
    db.associate("sites", "loc", "site-map").unwrap();
    for i in 0..60_000u64 {
        let h = mix(i);
        let p = Point::new((h % 1000) as f64, ((h >> 20) % 1000) as f64);
        let object = db
            .add_object("site-map", SpatialObject::Point(p), &format!("o{i}"))
            .unwrap();
        let tuple = vec![format!("s{i}").into(), Value::Pointer(object)];
        db.insert("sites", tuple).unwrap();
    }
    db.pack_all();

    let server = Server::start(db, "127.0.0.1:0", ServerConfig::default()).expect("bind");
    let mut client =
        Client::connect_timeout(server.local_addr(), Duration::from_secs(30)).expect("connect");
    match client
        .query("select site, loc from sites")
        .expect("an answer")
    {
        Response::Error {
            kind: ErrorKind::Protocol,
            message,
            ..
        } => assert!(message.contains("1048576-byte frame limit"), "{message}"),
        other => panic!("expected a protocol error, got {other:?}"),
    }
    // The frame was cut back, so the next request is answered in turn.
    client.ping().expect("the session goes on");
    let (_, few) = client
        .query_expect_result("select site from sites limit 3")
        .expect("a result");
    assert_eq!(few.len(), 3);
    let metrics = server.metrics();
    assert_eq!((metrics.query_errors.get(), metrics.ok.get()), (1, 1));
    server.stop();
}
