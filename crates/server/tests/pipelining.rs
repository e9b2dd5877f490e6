//! Pipelining semantics of the event-driven core: many requests in
//! flight on one connection, responses in *completion* order correlated
//! by request id; frames reassembled correctly however the bytes arrive;
//! a connection that never reads its responses holding them on the
//! server without stalling anybody else; and a client that half-closes
//! still getting every answer.

use psql::database::PictorialDatabase;
use psql_server::client::Client;
use psql_server::protocol::{
    decode_response, encode_request, write_frame, FrameDecoder, Request, Response,
};
use psql_server::server::{Server, ServerConfig};
use std::collections::HashSet;
use std::io::Read;
use std::net::{Shutdown, TcpStream};
use std::time::{Duration, Instant};

fn connect(server: &Server) -> Client {
    Client::connect_timeout(server.local_addr(), Duration::from_secs(30)).expect("connect")
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

#[test]
fn pipelined_responses_complete_out_of_order_and_correlate_by_id() {
    // The slow query is parked until its sleep is up while the fast
    // queries pipelined behind it are answered — so the fast responses
    // *must* overtake the slow one on the same connection.
    let server = Server::start(
        PictorialDatabase::with_us_map(),
        "127.0.0.1:0",
        ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let mut c = connect(&server);

    let slow_id = c
        .send_query("#sleep 600 select zone from time-zones")
        .expect("send slow");
    // Give the server a beat to read and park the sleeper before the
    // fast queries arrive.
    std::thread::sleep(Duration::from_millis(100));
    let fast_ids: Vec<u64> = (0..4)
        .map(|_| c.send_query("select zone from time-zones").expect("send"))
        .collect();

    let mut order = Vec::new();
    for _ in 0..=fast_ids.len() {
        let resp = c.read_response().expect("response");
        match &resp {
            Response::Result { result, .. } => assert_eq!(result.len(), 4),
            other => panic!("expected results, got {other:?}"),
        }
        order.push(response_id(&resp));
    }
    // Every id answered exactly once...
    let mut seen: Vec<u64> = order.clone();
    seen.sort_unstable();
    let mut expected: Vec<u64> = fast_ids.iter().copied().chain([slow_id]).collect();
    expected.sort_unstable();
    assert_eq!(seen, expected, "every request answered exactly once");
    // ...and the fast queries overtook the sleeper: completion order,
    // not submission order.
    assert_eq!(
        order.last(),
        Some(&slow_id),
        "slow request must finish last, got order {order:?}"
    );
    assert_ne!(order.first(), Some(&slow_id));
    server.stop();
}

#[test]
fn frames_survive_byte_at_a_time_and_coalesced_delivery() {
    let server = Server::start(
        PictorialDatabase::with_us_map(),
        "127.0.0.1:0",
        ServerConfig::default(),
    )
    .expect("bind");
    let mut c = connect(&server);

    // One request trickled a single byte per write: the server's
    // incremental decoder must reassemble it across many readiness
    // events.
    let payload = encode_request(&Request::Query {
        id: 7,
        timeout_ms: 0,
        text: "select zone from time-zones".into(),
    });
    let mut frame = (payload.len() as u32).to_be_bytes().to_vec();
    frame.extend_from_slice(&payload);
    for byte in &frame {
        c.send_raw(std::slice::from_ref(byte)).expect("one byte");
        std::thread::sleep(Duration::from_millis(1));
    }
    match c.read_response().expect("trickled frame answered") {
        Response::Result { id, result, .. } => {
            assert_eq!(id, 7);
            assert_eq!(result.len(), 4);
        }
        other => panic!("expected result, got {other:?}"),
    }

    // Three requests coalesced into one write: one readiness event must
    // yield three frames and three responses.
    let mut blob = Vec::new();
    for id in [21u64, 22, 23] {
        let payload = encode_request(&Request::Ping { id });
        blob.extend_from_slice(&(payload.len() as u32).to_be_bytes());
        blob.extend_from_slice(&payload);
    }
    c.send_raw(&blob).expect("coalesced frames");
    let mut ids = HashSet::new();
    for _ in 0..3 {
        match c.read_response().expect("pong") {
            Response::Pong { id } => assert!(ids.insert(id)),
            other => panic!("expected pong, got {other:?}"),
        }
    }
    assert_eq!(ids, HashSet::from([21, 22, 23]));
    server.stop();
}

#[test]
fn slow_reader_parks_responses_without_stalling_other_connections() {
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

    // Connection A floods pipelined queries and reads *nothing*: its
    // responses pile up in the kernel buffers and its server-side
    // outbox. (Some may bounce `Overloaded` — that is still a response
    // and must still correlate.)
    let mut slow = connect(&server);
    let mut pending = HashSet::new();
    for _ in 0..2_000 {
        let id = slow
            .send_query("select zone from time-zones")
            .expect("pipeline");
        assert!(pending.insert(id));
    }

    // Meanwhile connection B stays snappy: the reactor must not be
    // wedged trying to write to A.
    let mut probe = connect(&server);
    for _ in 0..20 {
        let t0 = Instant::now();
        probe.ping().expect("probe ping during flood");
        assert!(
            t0.elapsed() < Duration::from_secs(2),
            "probe stalled behind a slow reader"
        );
    }

    // Now A drains: every pipelined request answered exactly once.
    for _ in 0..2_000 {
        let resp = slow.read_response().expect("flood response");
        let id = response_id(&resp);
        assert!(pending.remove(&id), "duplicate or unknown id {id}");
        match resp {
            Response::Result { result, .. } => assert_eq!(result.len(), 4),
            Response::Overloaded { .. } => {}
            other => panic!("unexpected response {other:?}"),
        }
    }
    assert!(pending.is_empty(), "missing responses: {pending:?}");
    slow.ping().expect("slow connection still healthy");
    server.stop();
}

/// A client may write its requests, shut its write half and then read:
/// EOF ends the requests, not the answers. An answer made at once and
/// one still parked behind its `#sleep` when the EOF arrives both come
/// back before the server closes.
#[test]
fn half_closed_client_still_gets_its_answers() {
    let server = Server::start(
        PictorialDatabase::with_us_map(),
        "127.0.0.1:0",
        ServerConfig::default(),
    )
    .expect("bind");
    for (id, text) in [
        (1u64, "select city from cities"),
        (2, "#sleep 50 select city from cities"),
    ] {
        let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("read timeout");
        let payload = encode_request(&Request::Query {
            id,
            timeout_ms: 0,
            text: text.into(),
        });
        write_frame(&mut stream, &payload).expect("send");
        stream.shutdown(Shutdown::Write).expect("half-close");
        let mut wire = Vec::new();
        stream
            .read_to_end(&mut wire)
            .expect("read until the server closes");

        let mut decoder = FrameDecoder::new();
        decoder.extend(&wire);
        let frame = decoder
            .next_frame()
            .expect("well framed")
            .unwrap_or_else(|| panic!("{text:?}: no answer before the close"));
        match decode_response(&frame).expect("a response") {
            Response::Result {
                id: answered,
                result,
                ..
            } => {
                assert_eq!(answered, id);
                assert!(!result.is_empty(), "{text:?} found no city");
            }
            other => panic!("{text:?}: expected a result, got {other:?}"),
        }
        assert_eq!(decoder.next_frame(), Ok(None), "exactly one answer");
        assert!(!decoder.mid_frame());
    }
    server.stop();
}
