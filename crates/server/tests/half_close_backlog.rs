//! A half-closed connection whose answers back up costs the reactor
//! nothing while the client is not reading. The server's writes to it
//! block, so its socket is watched for writability only; a watch that
//! also asks for peer hang-up reports the half-close on every wait and
//! spins a core until the client reads. This suite is its own test
//! binary, with one server, so the process's CPU time is that server's
//! alone (and `half_close` stays the only server in its binary).

mod common;

use common::cpu_time;
use psql::database::PictorialDatabase;
use psql_server::protocol::{encode_request, write_frame, FrameDecoder, Request};
use psql_server::server::{Server, ServerConfig};
use std::io::{BufWriter, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::time::{Duration, Instant};

#[test]
fn half_closed_connection_with_a_blocked_backlog_idles() {
    const QUERIES: u64 = 20_000;
    let server = Server::start(
        PictorialDatabase::with_us_map(),
        "127.0.0.1:0",
        ServerConfig {
            queue_capacity: 32_768,
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("read timeout");
    {
        let mut out = BufWriter::new(&stream);
        for id in 0..QUERIES {
            let payload = encode_request(&Request::Query {
                id,
                timeout_ms: 0,
                text: "select city, state, population from cities".into(),
            });
            write_frame(&mut out, &payload).expect("send");
        }
        out.flush().expect("flush");
    }
    stream.shutdown(Shutdown::Write).expect("half-close");

    // Every answer exists; most of them wait behind a full socket.
    let metrics = server.metrics();
    let deadline = Instant::now() + Duration::from_secs(120);
    while metrics.ok.get() < QUERIES {
        assert!(Instant::now() < deadline, "answers never finished");
        std::thread::sleep(Duration::from_millis(10));
    }

    let (wall, cpu) = (Instant::now(), cpu_time());
    std::thread::sleep(Duration::from_secs(1));
    let (wall, cpu) = (wall.elapsed(), cpu_time() - cpu);
    assert!(
        cpu * 3 < wall,
        "the server burned {cpu:?} of CPU in {wall:?} while a half-closed client did not read"
    );

    // Reading resumes the writes: every answer arrives, then the close.
    let mut wire = Vec::new();
    stream
        .read_to_end(&mut wire)
        .expect("read until the server closes");
    let mut decoder = FrameDecoder::new();
    decoder.extend(&wire);
    let mut answers = 0;
    while decoder.next_frame().expect("well framed").is_some() {
        answers += 1;
    }
    assert_eq!(answers, QUERIES);
    server.stop();
}
