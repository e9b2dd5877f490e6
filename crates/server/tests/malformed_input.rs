//! Malformed-input hardening: truncated frames, junk bytes, and invalid
//! UTF-8 must come back as typed protocol errors — never a panic, and
//! never collateral damage to other sessions.

use psql::database::PictorialDatabase;
use psql_server::client::Client;
use psql_server::protocol::{encode_request, ErrorKind, Request, Response};
use psql_server::server::{Server, ServerConfig};
use rtree_geom::{Point, Region, Segment, SpatialObject};
use std::io::Write;
use std::net::TcpStream;
use std::time::Duration;

fn start_server() -> Server {
    Server::start(
        PictorialDatabase::with_us_map(),
        "127.0.0.1:0",
        ServerConfig::default(),
    )
    .expect("bind")
}

fn connect(server: &Server) -> Client {
    Client::connect_timeout(server.local_addr(), Duration::from_secs(10)).expect("connect")
}

#[test]
fn truncated_frame_then_disconnect_leaves_server_healthy() {
    let server = start_server();
    // A bystander session that must stay unaffected throughout.
    let mut bystander = connect(&server);
    bystander.ping().expect("bystander alive");

    {
        // Claim a 100-byte frame, send 10, vanish.
        let mut raw = TcpStream::connect(server.local_addr()).unwrap();
        raw.write_all(&100u32.to_be_bytes()).unwrap();
        raw.write_all(b"ten bytes!").unwrap();
        // Drop: the server sees EOF mid-frame.
    }
    std::thread::sleep(Duration::from_millis(50));
    bystander
        .ping()
        .expect("bystander survived truncated frame");
    let (_, result) = bystander
        .query_expect_result("select zone from time-zones")
        .expect("bystander can still query");
    assert_eq!(result.len(), 4);
    server.stop();
}

#[test]
fn oversized_header_is_answered_then_connection_closed() {
    let server = start_server();
    let mut bystander = connect(&server);
    let mut evil = connect(&server);
    // 0xdeadbeef ≈ 3.5 GiB claimed frame length.
    evil.send_raw(&0xdead_beefu32.to_be_bytes()).unwrap();
    match evil.read_response().expect("typed answer before close") {
        Response::Error { kind, message, .. } => {
            assert_eq!(kind, ErrorKind::Protocol);
            assert!(message.contains("exceeds limit"), "{message}");
        }
        other => panic!("expected protocol error, got {other:?}"),
    }
    // That connection is gone (unrecoverable desync) …
    assert!(evil.ping().is_err(), "oversized header must close session");
    // … but nobody else noticed.
    bystander.ping().expect("bystander unaffected");
    server.stop();
}

#[test]
fn invalid_utf8_query_text_is_a_typed_error_and_session_survives() {
    let server = start_server();
    let mut c = connect(&server);
    // Hand-build a Query whose text bytes are not UTF-8.
    let mut payload = Vec::new();
    payload.extend_from_slice(&5u64.to_be_bytes()); // id
    payload.push(1); // OP_QUERY
    payload.extend_from_slice(&0u32.to_be_bytes()); // timeout
    payload.extend_from_slice(&4u32.to_be_bytes()); // text length
    payload.extend_from_slice(&[0xff, 0xfe, 0x80, 0x81]);
    let mut frame = (payload.len() as u32).to_be_bytes().to_vec();
    frame.extend_from_slice(&payload);
    c.send_raw(&frame).unwrap();
    match c.read_response().expect("answered") {
        Response::Error { id, kind, message } => {
            assert_eq!(id, 5, "error correlates to the bad request");
            assert_eq!(kind, ErrorKind::Protocol);
            assert!(message.contains("UTF-8"), "{message}");
        }
        other => panic!("expected protocol error, got {other:?}"),
    }
    // Same session keeps working.
    let (_, r) = c
        .query_expect_result("select city from cities where population > 5000000")
        .expect("session survived invalid UTF-8");
    assert!(!r.is_empty());
    server.stop();
}

#[test]
fn junk_opcode_and_truncated_payloads_get_typed_errors() {
    let server = start_server();
    let mut c = connect(&server);
    for payload in [
        vec![],        // empty payload
        vec![1, 2, 3], // shorter than an id
        {
            let mut p = 9u64.to_be_bytes().to_vec();
            p.push(250); // unknown opcode
            p
        },
        {
            let mut p = encode_request(&Request::Ping { id: 3 });
            p.extend_from_slice(b"trailing garbage");
            p
        },
        {
            // Query whose inner string length overruns the frame.
            let mut p = 11u64.to_be_bytes().to_vec();
            p.push(1);
            p.extend_from_slice(&0u32.to_be_bytes());
            p.extend_from_slice(&10_000u32.to_be_bytes());
            p.extend_from_slice(b"tiny");
            p
        },
    ] {
        let mut frame = (payload.len() as u32).to_be_bytes().to_vec();
        frame.extend_from_slice(&payload);
        c.send_raw(&frame).unwrap();
        match c.read_response().expect("each junk frame is answered") {
            Response::Error { kind, .. } => assert_eq!(kind, ErrorKind::Protocol),
            other => panic!("expected protocol error, got {other:?}"),
        }
    }
    c.ping().expect("session survived the junk parade");
    server.stop();
}

/// Opcode 7 was `PACK EXTERNAL` once. It is a junk opcode like any other
/// now: a frame that used to rebuild every picture is answered with the
/// typed error, under its own id, and the session goes on.
#[test]
fn retired_pack_external_opcode_is_an_unknown_opcode() {
    let server = start_server();
    let mut c = connect(&server);
    let mut payload = 21u64.to_be_bytes().to_vec(); // id
    payload.push(7); // the retired opcode
    payload.extend_from_slice(&(4u64 << 20).to_be_bytes()); // budget
    payload.extend_from_slice(&2u32.to_be_bytes()); // threads
    let mut frame = (payload.len() as u32).to_be_bytes().to_vec();
    frame.extend_from_slice(&payload);
    c.send_raw(&frame).unwrap();
    match c.read_response().expect("answered") {
        Response::Error { id, kind, message } => {
            assert_eq!(id, 21, "error correlates to the request");
            assert_eq!(kind, ErrorKind::Protocol);
            assert!(message.contains("unknown opcode 7"), "{message}");
        }
        other => panic!("expected protocol error, got {other:?}"),
    }
    assert_eq!(server.snapshots().current_epoch(), 1, "nothing was rebuilt");
    c.ping().expect("session survived");
    server.stop();
}

#[test]
fn fuzzish_random_frames_never_kill_the_server() {
    let server = start_server();
    let mut bystander = connect(&server);

    // Deterministic xorshift so failures reproduce.
    let mut state = 0x1985_cafe_f00d_u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };

    for round in 0..50 {
        let mut c = connect(&server);
        let len = (next() % 64) as usize;
        let payload: Vec<u8> = (0..len).map(|_| (next() & 0xff) as u8).collect();
        // Always frame correctly (unframed garbage is covered above) so
        // every blob exercises the payload decoder.
        let mut frame = (payload.len() as u32).to_be_bytes().to_vec();
        frame.extend_from_slice(&payload);
        c.send_raw(&frame).unwrap();
        match c.read_response() {
            Ok(Response::Error { kind, .. }) => assert_eq!(kind, ErrorKind::Protocol),
            // A blob can accidentally be a valid frame (e.g. a Ping);
            // any well-typed response is fine.
            Ok(_) => {}
            Err(e) => panic!("round {round}: server dropped a framed blob: {e}"),
        }
    }
    bystander.ping().expect("server healthy after fuzzing");
    let stats = bystander.stats().expect("stats still served");
    assert!(stats.contains("\"protocol_error\":"), "{stats}");
    server.stop();
}

#[test]
fn query_against_missing_relation_is_typed_not_fatal() {
    let server = start_server();
    let mut c = connect(&server);
    match c.query("select x from nonexistent").expect("answered") {
        Response::Error { kind, .. } => assert_eq!(kind, ErrorKind::Relational),
        other => panic!("expected semantic error, got {other:?}"),
    }
    c.ping().expect("alive");
    server.stop();
}

/// A query nested past the parser's limit is answered with a typed
/// parse error. 10 000 parentheses in a `where` (20 KB) and 500
/// mappings nested in `at` clauses (33 KB) each once overflowed the
/// worker's stack, which aborts the whole process: `catch_unwind`
/// cannot contain a stack overflow.
#[test]
fn deeply_nested_query_is_a_parse_error_and_session_survives() {
    let server = start_server();
    let mut c = connect(&server);
    let parens = format!(
        "select city from cities where {}population > 1{}",
        "(".repeat(10_000),
        ")".repeat(10_000)
    );
    let mappings = format!(
        "select lake from lakes on lake-map at lakes.loc covered-by {}{{4 +- 4, 11 +- 9}}{}",
        "(select lakes.loc from lakes on lake-map at lakes.loc covered-by ".repeat(500),
        ")".repeat(500)
    );
    for text in [parens, mappings] {
        match c.query(&text).expect("answered") {
            Response::Error { kind, message, .. } => {
                assert_eq!(kind, ErrorKind::Parse, "{message}");
            }
            other => panic!("expected a parse error, got {other:?}"),
        }
        c.ping().expect("alive");
    }
    server.stop();
}

/// An INSERT whose object has a NaN or infinite coordinate, in a point,
/// a segment or a region vertex, is refused where the frame is decoded
/// with a typed `Protocol` error: it reaches no worker, picture or WAL,
/// and the session goes on.
#[test]
fn non_finite_insert_coordinates_are_protocol_errors() {
    let server = start_server();
    let mut c = connect(&server);
    let before = server.snapshots().load().db.delta_len();
    // A finite stand-in, replaced in the encoded frame: a region cannot
    // be built around a non-finite vertex.
    const MARK: f64 = 12_345.0;
    let (a, b, mark) = (
        Point::new(10.0, 10.0),
        Point::new(20.0, 10.0),
        Point::new(MARK, 10.0),
    );
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        for object in [
            SpatialObject::Point(mark),
            SpatialObject::Segment(Segment::new(a, mark)),
            SpatialObject::Region(Region::new(vec![a, b, mark]).unwrap()),
        ] {
            let mut payload = encode_request(&Request::Insert {
                id: 31,
                picture: "us-map".into(),
                label: "bad".into(),
                object,
            });
            let at = payload
                .windows(8)
                .position(|w| w == MARK.to_be_bytes())
                .expect("the mark is encoded");
            payload[at..at + 8].copy_from_slice(&bad.to_be_bytes());
            let mut frame = (payload.len() as u32).to_be_bytes().to_vec();
            frame.extend_from_slice(&payload);
            c.send_raw(&frame).unwrap();
            match c.read_response().expect("answered") {
                Response::Error { id, kind, message } => {
                    assert_eq!((id, kind), (31, ErrorKind::Protocol), "{message}");
                    assert!(message.contains("non-finite"), "{message}");
                }
                other => panic!("expected a protocol error, got {other:?}"),
            }
            c.ping().expect("alive");
        }
    }
    c.insert_expect_done("us-map", "good", SpatialObject::Point(a))
        .expect("a valid insert is acknowledged");
    assert_eq!(server.snapshots().load().db.delta_len(), before + 1);
    server.stop();
}
