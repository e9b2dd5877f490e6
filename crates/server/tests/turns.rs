//! One connection's requests never hold up another's for long: a query
//! sleeping on connection A leaves connection B's query to be answered at
//! once, and a burst of 10 000 pipelined queries on A leaves B's ping to
//! be answered while A's answers are still coming.

use psql::database::PictorialDatabase;
use psql_server::client::Client;
use psql_server::protocol::{encode_request, FrameDecoder, Request, Response};
use psql_server::server::{Server, ServerConfig};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn connect(server: &Server) -> Client {
    Client::connect_timeout(server.local_addr(), Duration::from_secs(30)).expect("connect")
}

#[test]
fn a_sleeping_query_does_not_hold_up_another_connection() {
    let server = Server::start(
        PictorialDatabase::with_us_map(),
        "127.0.0.1:0",
        ServerConfig::default(),
    )
    .expect("bind");
    let mut a = connect(&server);
    let mut b = connect(&server);
    let slow = a
        .send_query("#sleep 500 select zone from time-zones")
        .expect("send the sleeper");
    // Let the sleeper be read before B asks.
    std::thread::sleep(Duration::from_millis(50));

    let asked = Instant::now();
    let (_, rows) = b
        .query_expect_result("select zone from time-zones")
        .expect("B's query");
    let waited = asked.elapsed();
    assert_eq!(rows.len(), 4);
    assert!(
        waited < Duration::from_millis(100),
        "B's query took {waited:?} while A's query slept"
    );

    match a.read_response().expect("the sleeper's answer") {
        Response::Result { id, result, .. } => {
            assert_eq!(id, slow);
            assert_eq!(result.len(), 4);
        }
        other => panic!("expected the sleeper's rows, got {other:?}"),
    }
    server.stop();
}

#[test]
fn a_pipelined_burst_does_not_hold_up_another_connections_ping() {
    const QUERIES: usize = 10_000;
    let server = Server::start(
        PictorialDatabase::with_us_map(),
        "127.0.0.1:0",
        ServerConfig {
            // Room for the whole burst wherever the server queues it.
            queue_capacity: 16_384,
            ..ServerConfig::default()
        },
    )
    .expect("bind");

    let mut burst = Vec::new();
    for id in 0..QUERIES as u64 {
        let payload = encode_request(&Request::Query {
            id,
            timeout_ms: 0,
            text: "select zone from time-zones".into(),
        });
        burst.extend_from_slice(&(payload.len() as u32).to_be_bytes());
        burst.extend_from_slice(&payload);
    }
    let mut a = TcpStream::connect(server.local_addr()).expect("connect A");
    a.set_read_timeout(Some(Duration::from_secs(120)))
        .expect("read timeout");
    let mut a_reader = a.try_clone().expect("A's read half");

    // A's answers are counted as they are read.
    let read = Arc::new(AtomicUsize::new(0));
    let counter = Arc::clone(&read);
    let reader = std::thread::spawn(move || {
        let mut decoder = FrameDecoder::new();
        let mut buf = vec![0u8; 64 * 1024];
        while counter.load(Ordering::SeqCst) < QUERIES {
            let n = a_reader.read(&mut buf).expect("A's answers");
            assert!(n > 0, "the server closed A");
            decoder.extend(&buf[..n]);
            while let Some(frame) = decoder.next_frame().expect("well framed") {
                let response = psql_server::protocol::decode_response(&frame).expect("a response");
                assert!(
                    matches!(&response, Response::Result { result, .. } if result.len() == 4),
                    "{response:?}"
                );
                counter.fetch_add(1, Ordering::SeqCst);
            }
        }
    });
    // The whole burst in one write.
    let writer = std::thread::spawn(move || a.write_all(&burst).expect("A's burst"));

    // B asks once the server has started answering A.
    let deadline = Instant::now() + Duration::from_secs(60);
    while read.load(Ordering::SeqCst) == 0 {
        assert!(Instant::now() < deadline, "A got no answer");
        std::thread::sleep(Duration::from_millis(1));
    }
    let mut b = connect(&server);
    b.ping().expect("B's ping");
    let at_pong = read.load(Ordering::SeqCst);
    println!("A had read {at_pong} of {QUERIES} answers when B's pong arrived");
    assert!(
        at_pong < QUERIES,
        "B's pong waited for all {QUERIES} of A's answers"
    );

    writer.join().expect("writer");
    reader.join().expect("reader");
    assert_eq!(read.load(Ordering::SeqCst), QUERIES);
    server.stop();
}
