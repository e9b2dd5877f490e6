//! A half-closed connection waiting for its answer costs the reactor
//! nothing. The socket of a peer that shut its write half polls readable
//! for as long as it is watched for reads, so a reactor that kept
//! watching it would spin a whole core until the answer came. This suite
//! is its own test binary, with one server, so the process's CPU time is
//! that server's alone.

use psql::database::PictorialDatabase;
use psql_server::protocol::{encode_request, write_frame, Request};
use psql_server::server::{Server, ServerConfig};
use std::io::Read;
use std::net::{Shutdown, TcpStream};
use std::time::{Duration, Instant};

/// User + system CPU time of this process so far.
fn cpu_time() -> Duration {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat");
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th fields, in clock ticks of 1/100 s.
    let rest = &stat[stat.rfind(')').expect("comm") + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks: u64 =
        fields[11].parse::<u64>().expect("utime") + fields[12].parse::<u64>().expect("stime");
    Duration::from_millis(ticks * 10)
}

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
