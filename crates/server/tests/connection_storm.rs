//! The acceptance-criterion test: a 4-worker server sustains ≥ 64
//! concurrent connections of mixed PSQL queries — zero panics, zero
//! wrong results — while the admin path republishes snapshots under the
//! load. Plus the backpressure contract: a full queue answers
//! `Overloaded` immediately instead of stalling the session.

use psql::database::PictorialDatabase;
use psql_server::client::{Client, ClientError};
use psql_server::protocol::{decode_response, encode_request, ErrorKind, Request, Response};
use psql_server::server::{Server, ServerConfig};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

const CONNECTIONS: usize = 64;
const QUERIES_PER_CONNECTION: usize = 12;

/// Runs a query, retrying on `Overloaded` per the backpressure contract.
fn query_retrying(c: &mut Client, text: &str) -> Result<Response, ClientError> {
    for _ in 0..200 {
        match c.query(text)? {
            Response::Overloaded { retry_after_ms, .. } => {
                std::thread::sleep(Duration::from_millis(retry_after_ms.max(1) as u64));
            }
            other => return Ok(other),
        }
    }
    Err(ClientError::Wire(
        "still overloaded after 200 retries".into(),
    ))
}

#[test]
fn sixty_four_connections_of_mixed_queries_with_concurrent_repack() {
    let config = ServerConfig {
        workers: 4,
        queue_capacity: 64,
        ..ServerConfig::default()
    };
    let server =
        Server::start(PictorialDatabase::with_us_map(), "127.0.0.1:0", config).expect("bind");
    let addr = server.local_addr();

    // Establish ground truth on epoch 1. Repack republishes the same
    // data, so these counts hold at every epoch.
    let mut probe = Client::connect_timeout(addr, Duration::from_secs(30)).expect("probe");
    let eastern = "select city, population from cities on us-map \
                   at loc covered-by {82.5 +- 17.5, 25 +- 20} where population > 450000";
    let juxtaposition = "select city, zone from cities, time-zones on us-map, time-zone-map \
                         at cities.loc covered-by time-zones.loc";
    let lakes = "select lake from lakes on lake-map at loc overlapping {60 +- 15, 35 +- 10}";
    let zones = "select zone, hour-diff from time-zones";
    let (_, r) = probe.query_expect_result(eastern).expect("ground truth");
    let expect_eastern = r.len();
    let (_, r) = probe
        .query_expect_result(juxtaposition)
        .expect("ground truth");
    let expect_juxta = r.len();
    assert_eq!(expect_juxta, 42);
    let (_, r) = probe.query_expect_result(lakes).expect("ground truth");
    let expect_lakes = r.len();
    assert!(expect_lakes >= 2, "window should catch the Great Lakes");

    let stop_admin = Arc::new(AtomicBool::new(false));
    let admin = {
        let stop = Arc::clone(&stop_admin);
        std::thread::spawn(move || {
            let mut c = Client::connect_timeout(addr, Duration::from_secs(30)).expect("admin");
            let mut published = 0u64;
            while !stop.load(Ordering::Relaxed) {
                published = c.repack().expect("repack under load");
                std::thread::sleep(Duration::from_millis(5));
            }
            published
        })
    };

    let clients: Vec<_> = (0..CONNECTIONS)
        .map(|n| {
            std::thread::spawn(move || {
                let mut c =
                    Client::connect_timeout(addr, Duration::from_secs(30)).expect("connect");
                let mut last_epoch = 0u64;
                for i in 0..QUERIES_PER_CONNECTION {
                    match (n + i) % 4 {
                        0 => match query_retrying(&mut c, eastern).expect("eastern") {
                            Response::Result { epoch, result, .. } => {
                                assert_eq!(result.len(), expect_eastern, "conn {n} query {i}");
                                assert!(epoch >= last_epoch, "epochs never go backwards");
                                last_epoch = epoch;
                            }
                            other => panic!("conn {n}: expected result, got {other:?}"),
                        },
                        1 => match query_retrying(&mut c, juxtaposition).expect("juxta") {
                            Response::Result { result, .. } => {
                                assert_eq!(result.len(), expect_juxta, "conn {n} query {i}")
                            }
                            other => panic!("conn {n}: expected result, got {other:?}"),
                        },
                        2 => match query_retrying(&mut c, lakes).expect("lakes") {
                            Response::Result { result, .. } => {
                                assert_eq!(result.len(), expect_lakes, "conn {n} query {i}")
                            }
                            other => panic!("conn {n}: expected result, got {other:?}"),
                        },
                        _ => {
                            // Mix in plain relational plus a typed error:
                            // broken clients must not degrade the pool.
                            match query_retrying(&mut c, zones).expect("zones") {
                                Response::Result { result, .. } => assert_eq!(result.len(), 4),
                                other => panic!("conn {n}: expected result, got {other:?}"),
                            }
                            match query_retrying(&mut c, "select broken from").expect("err") {
                                Response::Error { kind, .. } => assert!(matches!(
                                    kind,
                                    ErrorKind::Parse | ErrorKind::Lex | ErrorKind::Semantic
                                )),
                                other => panic!("conn {n}: expected error, got {other:?}"),
                            }
                        }
                    }
                }
                c.ping().expect("session healthy at the end");
            })
        })
        .collect();

    for (n, h) in clients.into_iter().enumerate() {
        if let Err(e) = h.join() {
            panic!("client thread {n} panicked: {e:?}");
        }
    }
    stop_admin.store(true, Ordering::Relaxed);
    let published = admin.join().expect("admin thread panicked");
    assert!(published >= 2, "repack ran under load");

    // Zero panics on the server side: contained worker panics would show
    // up here as internal errors.
    let stats = probe.stats().expect("stats");
    assert!(stats.contains("\"internal_error\":0"), "{stats}");
    assert!(stats.contains("\"queries\":"), "{stats}");
    server.stop();
}

/// Reads one whole frame off a blocking stream.
fn read_frame_blocking(stream: &mut TcpStream) -> Vec<u8> {
    let mut header = [0u8; 4];
    stream.read_exact(&mut header).expect("frame header");
    let len = u32::from_be_bytes(header) as usize;
    let mut payload = vec![0u8; len];
    stream.read_exact(&mut payload).expect("frame payload");
    payload
}

fn encode_frame(req: &Request) -> Vec<u8> {
    let payload = encode_request(req);
    let mut frame = (payload.len() as u32).to_be_bytes().to_vec();
    frame.extend_from_slice(&payload);
    frame
}

#[test]
fn storm_of_concurrent_connections_all_answered_and_correlated() {
    // The connection-storm contract at scale: N simultaneous live
    // connections, each held open across multiple request waves — zero
    // dropped connections, zero garbled or mis-correlated responses.
    // Default 1000 under `cargo test`; the full 10k storm (EXT-14) is
    //   STORM_CONNECTIONS=10000 cargo test --release -p psql-server \
    //     --test connection_storm storm
    let connections: usize = std::env::var("STORM_CONNECTIONS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1_000);
    // Each end of each connection is an fd in this one process.
    let _ = epoll::raise_nofile_limit((connections as u64) * 2 + 4_096);

    let server = Server::start(
        PictorialDatabase::with_us_map(),
        "127.0.0.1:0",
        ServerConfig {
            workers: 2,
            queue_capacity: 256,
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let addr = server.local_addr();

    const SHARDS: usize = 8;
    const WAVES: u64 = 3;
    let per_shard = connections.div_ceil(SHARDS);
    let shards: Vec<_> = (0..SHARDS)
        .map(|s| {
            std::thread::spawn(move || {
                let count = per_shard.min(connections.saturating_sub(s * per_shard));
                // Open every connection in the shard first — the storm
                // is N *simultaneous* connections, not N sequential ones.
                let mut conns: Vec<TcpStream> = (0..count)
                    .map(|i| {
                        let stream = TcpStream::connect(addr)
                            .unwrap_or_else(|e| panic!("shard {s} conn {i}: connect: {e}"));
                        stream.set_nodelay(true).expect("nodelay");
                        stream
                            .set_read_timeout(Some(Duration::from_secs(60)))
                            .expect("timeout");
                        stream
                    })
                    .collect();
                for wave in 0..WAVES {
                    // Write one request on every connection, then read one
                    // response from every connection: the whole shard is
                    // in flight at once.
                    for (i, stream) in conns.iter_mut().enumerate() {
                        let id = ((s * per_shard + i) as u64) * WAVES + wave + 1;
                        // Mostly pings (pure connection-scale traffic, answered
                        // on the reactor) with a sprinkle of real queries.
                        let frame = if i % 16 == 0 {
                            encode_frame(&Request::Query {
                                id,
                                timeout_ms: 30_000,
                                text: "select zone from time-zones".into(),
                            })
                        } else {
                            encode_frame(&Request::Ping { id })
                        };
                        stream.write_all(&frame).expect("write request");
                    }
                    for (i, stream) in conns.iter_mut().enumerate() {
                        let id = ((s * per_shard + i) as u64) * WAVES + wave + 1;
                        let payload = read_frame_blocking(stream);
                        let resp = decode_response(&payload).expect("decodable response");
                        match resp {
                            Response::Pong { id: got } => {
                                assert_eq!(got, id, "shard {s} conn {i}: wrong correlation")
                            }
                            Response::Result {
                                id: got, result, ..
                            } => {
                                assert_eq!(got, id, "shard {s} conn {i}: wrong correlation");
                                assert_eq!(result.len(), 4, "garbled result");
                            }
                            Response::Overloaded { id: got, .. } => {
                                // A bounced query is still a correlated answer.
                                assert_eq!(got, id, "shard {s} conn {i}: wrong correlation");
                            }
                            other => panic!("shard {s} conn {i}: unexpected {other:?}"),
                        }
                    }
                }
            })
        })
        .collect();
    for (s, h) in shards.into_iter().enumerate() {
        if let Err(e) = h.join() {
            panic!("storm shard {s} panicked: {e:?}");
        }
    }

    // The server saw the whole storm and survived it.
    let mut probe = Client::connect_timeout(addr, Duration::from_secs(30)).expect("probe");
    let stats = probe.stats().expect("stats");
    assert!(stats.contains("\"internal_error\":0"), "{stats}");
    server.stop();
}

#[test]
fn full_queue_answers_overloaded_with_retry_hint() {
    // `queue_capacity` 1 also bounds the `#sleep` queries the reactor
    // parks at one: the first sleeping query is parked, and every further
    // pipelined one must bounce with `Overloaded` at once instead of
    // waiting its turn.
    let config = ServerConfig {
        workers: 1,
        queue_capacity: 1,
        ..ServerConfig::default()
    };
    let server =
        Server::start(PictorialDatabase::with_us_map(), "127.0.0.1:0", config).expect("bind");
    let mut c =
        Client::connect_timeout(server.local_addr(), Duration::from_secs(10)).expect("connect");

    // Pipeline raw frames: 1 is parked, 2–8 find the parked list full.
    const FLOOD: u64 = 8;
    for id in 1..=FLOOD {
        let payload = encode_request(&Request::Query {
            id,
            timeout_ms: 2_000,
            text: "#sleep 400 select city from cities".into(),
        });
        let mut frame = (payload.len() as u32).to_be_bytes().to_vec();
        frame.extend_from_slice(&payload);
        c.send_raw(&frame).expect("pipeline");
    }

    let mut overloaded = 0;
    let mut served = 0;
    for _ in 0..FLOOD {
        match c.read_response().expect("every request is answered") {
            Response::Overloaded { retry_after_ms, .. } => {
                assert!(retry_after_ms > 0, "retry hint must be actionable");
                overloaded += 1;
            }
            Response::Result { .. } | Response::Timeout { .. } => served += 1,
            other => panic!("unexpected response {other:?}"),
        }
    }
    assert!(
        overloaded >= FLOOD - 2,
        "flood of {FLOOD} should mostly bounce, got {overloaded} overloaded / {served} served"
    );
    assert!(served >= 1, "the occupying query itself completes");

    // After the flood drains the session is fine and stats counted it.
    c.ping().expect("session survived the flood");
    let stats = c.stats().expect("stats");
    assert!(stats.contains("\"overloaded\":"), "{stats}");
    server.stop();
}
