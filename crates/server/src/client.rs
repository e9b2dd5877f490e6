//! A small blocking client for the wire protocol — used by the load
//! generator, the CI smoke script, and the integration tests.

use crate::protocol::{
    decode_response, encode_request, write_frame, FrameDecoder, Request, Response,
};
use psql::ResultSet;
use rtree_geom::SpatialObject;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Read timeout applied by [`Client::connect`]. A server that accepts
/// the connection and then never answers must surface as a timeout
/// error, not a client that hangs forever — generous enough for any
/// legitimate query, finite so nothing wedges.
pub const DEFAULT_READ_TIMEOUT: Duration = Duration::from_secs(30);

/// Client-side failure.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure.
    Io(io::Error),
    /// The server sent something undecodable, or closed mid-frame.
    Wire(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io error: {e}"),
            ClientError::Wire(m) => write!(f, "wire error: {m}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// A blocking protocol client over one TCP connection.
///
/// Issues one request at a time and matches the response id against the
/// request id (the protocol itself allows pipelining; this client keeps
/// things simple).
pub struct Client {
    stream: TcpStream,
    /// Bytes read off the socket, reassembled into response frames.
    frames: FrameDecoder,
    /// Reused socket read buffer.
    chunk: Vec<u8>,
    next_id: u64,
    read_timeout: Option<Duration>,
}

impl Client {
    /// Connects to a server, applying [`DEFAULT_READ_TIMEOUT`] to
    /// responses (override with
    /// [`set_read_timeout`](Self::set_read_timeout)).
    pub fn connect(addr: SocketAddr) -> Result<Client, ClientError> {
        let stream = TcpStream::connect(addr)?;
        Client::finish(stream, DEFAULT_READ_TIMEOUT)
    }

    /// Connects with an explicit connect + read timeout.
    pub fn connect_timeout(addr: SocketAddr, timeout: Duration) -> Result<Client, ClientError> {
        let stream = TcpStream::connect_timeout(&addr, timeout)?;
        Client::finish(stream, timeout)
    }

    fn finish(stream: TcpStream, timeout: Duration) -> Result<Client, ClientError> {
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(timeout))?;
        Ok(Client {
            stream,
            frames: FrameDecoder::new(),
            chunk: vec![0; 16 * 1024],
            next_id: 1,
            read_timeout: Some(timeout),
        })
    }

    /// Changes the per-response read timeout (`None` waits forever).
    pub fn set_read_timeout(&mut self, timeout: Option<Duration>) -> Result<(), ClientError> {
        self.stream.set_read_timeout(timeout)?;
        self.read_timeout = timeout;
        Ok(())
    }

    /// The per-response read timeout in force.
    pub fn read_timeout(&self) -> Option<Duration> {
        self.read_timeout
    }

    fn roundtrip(&mut self, req: &Request) -> Result<Response, ClientError> {
        let payload = encode_request(req);
        write_frame(&mut self.stream, &payload)?;
        self.read_response()
    }

    /// Reads one response frame, honoring the read timeout as a
    /// per-response deadline: the socket's timeout wakes the read, and
    /// the deadline turns the wake into a hard stop (without it, each
    /// timeout tick would just re-poll forever). Bytes read before the
    /// deadline stay buffered for the next call.
    pub fn read_response(&mut self) -> Result<Response, ClientError> {
        let deadline = self.read_timeout.map(|t| Instant::now() + t);
        loop {
            match self.frames.next_frame() {
                Ok(Some(payload)) => return decode_response(&payload).map_err(ClientError::Wire),
                Ok(None) => {}
                Err(n) => return Err(ClientError::Wire(format!("oversized response ({n})"))),
            }
            match self.stream.read(&mut self.chunk) {
                Ok(0) if self.frames.mid_frame() => {
                    return Err(ClientError::Wire("truncated response frame".into()))
                }
                Ok(0) => return Err(ClientError::Wire("server closed the connection".into())),
                Ok(n) => self.frames.extend(&self.chunk[..n]),
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock
                            | io::ErrorKind::TimedOut
                            | io::ErrorKind::Interrupted
                    ) =>
                {
                    if deadline.is_some_and(|d| Instant::now() >= d) {
                        return Err(ClientError::Io(io::Error::new(
                            io::ErrorKind::TimedOut,
                            "timed out waiting for a response",
                        )));
                    }
                }
                Err(e) => return Err(ClientError::Io(e)),
            }
        }
    }

    fn take_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Executes a PSQL query with the server's default deadline.
    pub fn query(&mut self, text: &str) -> Result<Response, ClientError> {
        self.query_with_timeout(text, 0)
    }

    /// Executes a PSQL query with an explicit deadline in milliseconds
    /// (`0` = server default).
    pub fn query_with_timeout(
        &mut self,
        text: &str,
        timeout_ms: u32,
    ) -> Result<Response, ClientError> {
        let id = self.take_id();
        let resp = self.roundtrip(&Request::Query {
            id,
            timeout_ms,
            text: text.to_owned(),
        })?;
        self.expect_id(id, resp)
    }

    /// Sends a query *without* waiting for the response and returns its
    /// request id. Pipelining lets a backlog form on the server, which a
    /// worker then dequeues as one pack and answers query by query;
    /// collect the responses with [`read_response`](Self::read_response)
    /// and match them to ids (they may arrive in any order).
    pub fn send_query(&mut self, text: &str) -> Result<u64, ClientError> {
        self.send_query_with_timeout(text, 0)
    }

    /// [`send_query`](Self::send_query) with an explicit per-request
    /// deadline in milliseconds (`0` = server default).
    pub fn send_query_with_timeout(
        &mut self,
        text: &str,
        timeout_ms: u32,
    ) -> Result<u64, ClientError> {
        let id = self.take_id();
        let payload = encode_request(&Request::Query {
            id,
            timeout_ms,
            text: text.to_owned(),
        });
        write_frame(&mut self.stream, &payload)?;
        Ok(id)
    }

    /// Executes a query and insists on a result set (any other response
    /// becomes a `Wire` error) — the convenient form for tests/tools.
    pub fn query_expect_result(&mut self, text: &str) -> Result<(u64, ResultSet), ClientError> {
        match self.query(text)? {
            Response::Result { epoch, result, .. } => Ok((epoch, result)),
            other => Err(ClientError::Wire(format!("expected result, got {other:?}"))),
        }
    }

    /// Inserts one object into a picture and returns the raw response
    /// (`Done` on success; `Error`, `Timeout`, or `Overloaded` when the
    /// server declines).
    pub fn insert(
        &mut self,
        picture: &str,
        label: &str,
        object: SpatialObject,
    ) -> Result<Response, ClientError> {
        let id = self.take_id();
        let resp = self.roundtrip(&Request::Insert {
            id,
            picture: picture.to_owned(),
            label: label.to_owned(),
            object,
        })?;
        self.expect_id(id, resp)
    }

    /// [`insert`](Self::insert), insisting on acknowledgement; returns
    /// the snapshot epoch carrying the write.
    pub fn insert_expect_done(
        &mut self,
        picture: &str,
        label: &str,
        object: SpatialObject,
    ) -> Result<u64, ClientError> {
        match self.insert(picture, label, object)? {
            Response::Done { epoch, .. } => Ok(epoch),
            other => Err(ClientError::Wire(format!("expected done, got {other:?}"))),
        }
    }

    /// Sends an insert *without* waiting for the response and returns
    /// its request id — lets a backlog form so the worker pool group-
    /// commits the pack under one fsync.
    pub fn send_insert(
        &mut self,
        picture: &str,
        label: &str,
        object: SpatialObject,
    ) -> Result<u64, ClientError> {
        let id = self.take_id();
        let payload = encode_request(&Request::Insert {
            id,
            picture: picture.to_owned(),
            label: label.to_owned(),
            object,
        });
        write_frame(&mut self.stream, &payload)?;
        Ok(id)
    }

    /// Fetches the metrics registry as JSON.
    pub fn stats(&mut self) -> Result<String, ClientError> {
        let id = self.take_id();
        let resp = self.roundtrip(&Request::Stats { id })?;
        match self.expect_id(id, resp)? {
            Response::Stats { json, .. } => Ok(json),
            other => Err(ClientError::Wire(format!("expected stats, got {other:?}"))),
        }
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        let id = self.take_id();
        let resp = self.roundtrip(&Request::Ping { id })?;
        match self.expect_id(id, resp)? {
            Response::Pong { .. } => Ok(()),
            other => Err(ClientError::Wire(format!("expected pong, got {other:?}"))),
        }
    }

    /// Admin: re-pack every picture and publish a new snapshot. Returns
    /// the new epoch.
    pub fn repack(&mut self) -> Result<u64, ClientError> {
        let id = self.take_id();
        let resp = self.roundtrip(&Request::Repack { id })?;
        match self.expect_id(id, resp)? {
            Response::Done { epoch, .. } => Ok(epoch),
            other => Err(ClientError::Wire(format!("expected done, got {other:?}"))),
        }
    }

    /// Admin: ask the server to shut down gracefully.
    pub fn shutdown_server(&mut self) -> Result<(), ClientError> {
        let id = self.take_id();
        let resp = self.roundtrip(&Request::Shutdown { id })?;
        match self.expect_id(id, resp)? {
            Response::Done { .. } => Ok(()),
            other => Err(ClientError::Wire(format!("expected done, got {other:?}"))),
        }
    }

    fn expect_id(&self, id: u64, resp: Response) -> Result<Response, ClientError> {
        let got = match &resp {
            Response::Result { id, .. }
            | Response::Error { id, .. }
            | Response::Timeout { id }
            | Response::Overloaded { id, .. }
            | Response::Pong { id }
            | Response::Stats { id, .. }
            | Response::Done { id, .. } => *id,
        };
        // id 0 marks an error for a request the server could not parse.
        if got != id && got != 0 {
            return Err(ClientError::Wire(format!(
                "response id {got} does not match request id {id}"
            )));
        }
        Ok(resp)
    }

    /// Writes raw bytes on the wire — the malformed-input tests speak
    /// through this.
    pub fn send_raw(&mut self, bytes: &[u8]) -> Result<(), ClientError> {
        self.stream.write_all(bytes)?;
        self.stream.flush()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::encode_response;
    use std::net::TcpListener;
    use std::sync::mpsc;

    /// One response frame, as the server writes it.
    fn frame(resp: &Response) -> Vec<u8> {
        let mut wire = Vec::new();
        write_frame(&mut wire, &encode_response(resp)).unwrap();
        wire
    }

    /// A client of a fake server that writes `wire` on accepting, then
    /// closes the connection.
    fn client_reading(wire: Vec<u8>) -> Client {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            stream.write_all(&wire).unwrap();
        });
        Client::connect(addr).unwrap()
    }

    #[test]
    fn frame_eof_oversized_and_truncated_responses() {
        let error = |client: &mut Client| client.read_response().unwrap_err().to_string();
        let mut client = client_reading(frame(&Response::Pong { id: 1 }));
        assert_eq!(client.read_response().unwrap(), Response::Pong { id: 1 });
        assert_eq!(
            error(&mut client),
            "wire error: server closed the connection"
        );

        let mut client = client_reading(0xdead_beefu32.to_be_bytes().to_vec());
        assert_eq!(
            error(&mut client),
            "wire error: oversized response (3735928559)"
        );

        let mut wire = 100u32.to_be_bytes().to_vec();
        wire.extend_from_slice(b"only a little");
        let mut client = client_reading(wire);
        assert_eq!(error(&mut client), "wire error: truncated response frame");
    }

    #[test]
    fn bytes_read_before_a_timeout_stay_buffered() {
        // Half a frame, then silence past the read timeout, then the
        // rest: the first read times out, the second reads the whole
        // frame, including the half the first one consumed.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (timed_out, rest) = mpsc::channel::<()>();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let wire = frame(&Response::Pong { id: 1 });
            let (head, tail) = wire.split_at(wire.len() / 2);
            stream.write_all(head).unwrap();
            rest.recv().unwrap();
            stream.write_all(tail).unwrap();
        });

        let mut client = Client::connect(addr).unwrap();
        client
            .set_read_timeout(Some(Duration::from_millis(150)))
            .unwrap();
        let err = client
            .read_response()
            .expect_err("half a frame is no response");
        assert!(
            matches!(&err, ClientError::Io(e) if e.kind() == io::ErrorKind::TimedOut),
            "expected a timeout, got {err:?}"
        );
        timed_out.send(()).unwrap();
        assert_eq!(client.read_response().unwrap(), Response::Pong { id: 1 });
        server.join().unwrap();
    }

    #[test]
    fn connect_applies_a_default_read_timeout() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = Client::connect(listener.local_addr().unwrap()).unwrap();
        assert_eq!(client.read_timeout(), Some(DEFAULT_READ_TIMEOUT));
    }

    #[test]
    fn silent_server_times_out_instead_of_hanging() {
        // A "server" that accepts the connection and never replies: every
        // roundtrip must come back as a timeout error, bounded in time.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let hold = std::thread::spawn(move || listener.accept().map(|(s, _)| s));

        let mut client = Client::connect(addr).unwrap();
        client
            .set_read_timeout(Some(Duration::from_millis(120)))
            .unwrap();
        let started = Instant::now();
        let err = client.ping().expect_err("silent server must not succeed");
        assert!(
            matches!(&err, ClientError::Io(e) if e.kind() == io::ErrorKind::TimedOut),
            "expected a timeout, got {err:?}"
        );
        let waited = started.elapsed();
        assert!(
            waited >= Duration::from_millis(100) && waited < Duration::from_secs(5),
            "timeout fired after {waited:?}"
        );
        drop(hold.join());
    }
}
