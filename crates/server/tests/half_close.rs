//! A half-closed connection waiting for its answer costs the reactor
//! nothing. The socket of a peer that shut its write half polls readable
//! for as long as it is watched for reads, so a reactor that kept
//! watching it would spin a whole core until the answer came. This suite
//! is its own test binary, with one server, so the process's CPU time is
//! that server's alone.

mod common;

use common::cpu_time;
use psql::database::PictorialDatabase;
use psql_server::protocol::{encode_request, write_frame, Request};
use psql_server::server::{Server, ServerConfig};
use std::io::Read;
use std::net::{Shutdown, TcpStream};
use std::time::{Duration, Instant};

#[test]
fn half_closed_connection_idles_while_its_answer_is_computed() {
    let server = Server::start(
        PictorialDatabase::with_us_map(),
        "127.0.0.1:0",
        ServerConfig::default(),
    )
    .expect("bind");
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    let payload = encode_request(&Request::Query {
        id: 1,
        timeout_ms: 0,
        text: "#sleep 600 select city from cities".into(),
    });
    write_frame(&mut stream, &payload).expect("send");
    stream.shutdown(Shutdown::Write).expect("half-close");

    let (wall, cpu) = (Instant::now(), cpu_time());
    let mut wire = Vec::new();
    stream
        .read_to_end(&mut wire)
        .expect("read until the server closes");
    let (wall, cpu) = (wall.elapsed(), cpu_time() - cpu);
    assert!(!wire.is_empty(), "no answer before the close");
    assert!(wall >= Duration::from_millis(600));
    assert!(
        cpu * 3 < wall,
        "the server burned {cpu:?} of CPU in {wall:?} waiting on one sleeping query"
    );
    server.stop();
}
