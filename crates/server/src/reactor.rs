//! The readiness-driven I/O core: one event-loop thread owns the
//! listener and every byte of every connection.
//!
//! ## Shape
//!
//! A single reactor thread runs an epoll loop (via the vendored `epoll`
//! shim) over:
//!
//! * the **listener** — accepted nonblockingly until `WouldBlock`, each
//!   connection taking a slot in a generation-tagged slab;
//! * every **connection** — a `Slot`: the socket, its token and a
//!   `Conn`, which is the connection's bytes as a machine with no
//!   socket, no clock read and no lock. Bytes read go into
//!   `Conn::on_bytes`, which hands each complete frame to
//!   `handle_frame` (control answered inline, queries and inserts
//!   enqueued on the bounded worker queue); the socket is handed what
//!   `Conn::unsent` holds;
//! * a **waker eventfd** — every response, whether a worker, the rebuild
//!   thread or `handle_frame` built it, goes onto one completion list as
//!   a `(token, frame)` pair and pokes the waker. The reactor hands each
//!   frame to the slot whose token still matches and drops the rest, so
//!   a late answer for a closed connection never reaches a recycled
//!   slot.
//!
//! ## Pipelining and ordering
//!
//! A connection may have any number of requests in flight. Responses are
//! written back in *completion* order, the order they reach the list;
//! the request id is the correlation. Each entry on the list is one
//! whole frame, so frames never interleave mid-frame even though many
//! threads answer one connection.
//!
//! ## Backpressure and cleanup
//!
//! `WouldBlock` registers write interest and the flush resumes on the
//! next writable event, so one slow reader never blocks the loop or any
//! other connection. More than `MAX_CONN_BACKLOG_BYTES` unwritten gives
//! the connection up (the client is not consuming; buffering forever
//! would be an OOM handed to whoever pipelines fastest). A connection
//! that is closing — peer EOF, shutdown acknowledged or unrecoverable
//! framing — closes once every request it dispatched is answered and
//! every answer written, so a client that half-closes still reads its
//! answers.

use crate::protocol::{encode_response, ErrorKind, FrameDecoder, Response, MAX_FRAME_LEN};
use crate::server::{handle_frame, Shared};
use epoll::{Events, Interest, Poll, Waker};
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::Ordering;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Token reserved for the waker eventfd.
const WAKER_TOKEN: u64 = u64::MAX;
/// Token reserved for the listener.
const LISTENER_TOKEN: u64 = u64::MAX - 1;

/// Most bytes read from one connection per readiness event. The socket
/// stays level-triggered, so a firehose connection re-fires on the next
/// wait instead of starving its neighbours.
const READ_FAIRNESS_BYTES: usize = 256 * 1024;
/// How long the loop keeps writing answers once the workers have been
/// joined, before closing connections regardless.
const DRAIN_GRACE: Duration = Duration::from_secs(3);
/// Most bytes of unwritten responses held per connection before the
/// server cuts a non-consuming client loose.
const MAX_CONN_BACKLOG_BYTES: usize = 64 << 20;

/// The one completion list: response frames finished on any thread, each
/// tagged with the token of the connection it answers, in completion
/// order. Senders push and poke the eventfd; the reactor takes the whole
/// list every turn.
pub(crate) struct Notifier {
    done: Mutex<Vec<(u64, Vec<u8>)>>,
    waker: Waker,
}

impl Notifier {
    pub(crate) fn new() -> io::Result<Notifier> {
        Ok(Notifier {
            done: Mutex::new(Vec::new()),
            waker: Waker::new()?,
        })
    }

    /// Wakes the reactor with nothing to deliver — shutdown and drain
    /// phases.
    pub(crate) fn wake(&self) {
        self.waker.wake();
    }

    /// Queues one response frame for the connection `token` names.
    /// Atomic per frame; callable from any thread; never blocks on a
    /// socket.
    pub(crate) fn send(&self, token: u64, resp: &Response) {
        let frame = frame(resp);
        self.done
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push((token, frame));
        self.waker.wake();
    }

    /// Swaps the list with `into`, which the caller has emptied.
    pub(crate) fn take(&self, into: &mut Vec<(u64, Vec<u8>)>) {
        std::mem::swap(
            &mut *self.done.lock().unwrap_or_else(|e| e.into_inner()),
            into,
        );
    }
}

/// One response as a whole wire frame.
fn frame(resp: &Response) -> Vec<u8> {
    let payload = encode_response(resp);
    let mut frame = Vec::with_capacity(4 + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    frame.extend_from_slice(&payload);
    frame
}

/// One connection's bytes, with no socket, no clock read and no lock:
/// what was read and not yet framed, what is still to be written, and
/// whether the connection is done.
#[derive(Default)]
pub(crate) struct Conn {
    decoder: FrameDecoder,
    /// Response frames in delivery order; `out[sent..]` is unwritten.
    out: Vec<u8>,
    sent: usize,
    /// Requests dispatched and not yet answered.
    awaiting: usize,
    /// No more requests are read (peer EOF, shutdown acknowledged, or
    /// unrecoverable framing); the connection closes once everything
    /// dispatched is answered and written.
    closing: bool,
    /// Given up past the backlog cap: close now, write nothing more.
    dead: bool,
}

impl Conn {
    /// Feeds bytes read from the peer, handing each complete frame to
    /// `dispatch` in order; `dispatch` returns `false` to stop reading.
    /// A header past [`MAX_FRAME_LEN`] cannot be re-framed: it is
    /// answered here with a `Protocol` error of id 0, the connection
    /// closes, and the call returns `true` so the caller can count it.
    /// Bytes arriving once the connection is closing are ignored.
    pub(crate) fn on_bytes(
        &mut self,
        bytes: &[u8],
        mut dispatch: impl FnMut(&[u8]) -> bool,
    ) -> bool {
        if self.closing || self.dead {
            return false;
        }
        self.decoder.extend(bytes);
        loop {
            match self.decoder.next_frame() {
                Ok(Some(payload)) => {
                    self.awaiting += 1;
                    if !dispatch(&payload) {
                        self.closing = true;
                        return false;
                    }
                }
                Ok(None) => return false,
                Err(len) => {
                    self.queue(&frame(&Response::Error {
                        id: 0,
                        kind: ErrorKind::Protocol,
                        message: format!(
                            "frame of {len} bytes exceeds limit {MAX_FRAME_LEN}; closing connection"
                        ),
                    }));
                    self.closing = true;
                    return true;
                }
            }
        }
    }

    /// The peer closed its write half. Returns `true` when it did so
    /// mid-frame, a protocol violation.
    fn on_eof(&mut self) -> bool {
        self.closing = true;
        self.decoder.mid_frame()
    }

    /// Takes the response frame answering one dispatched request.
    pub(crate) fn on_frame(&mut self, frame: &[u8]) {
        self.awaiting = self.awaiting.saturating_sub(1);
        self.queue(frame);
    }

    fn queue(&mut self, frame: &[u8]) {
        if self.dead {
            return;
        }
        if self.unsent().len() + frame.len() > MAX_CONN_BACKLOG_BYTES {
            // The client stopped reading; cut it loose rather than
            // buffer without bound.
            self.dead = true;
            self.out = Vec::new();
            self.sent = 0;
            return;
        }
        // Compact once the written prefix dominates the buffer, as the
        // decoder compacts its read prefix, so a connection that always
        // lags a little doesn't accrete every frame it ever sent.
        if self.sent > 4096 && self.sent * 2 >= self.out.len() {
            self.out.drain(..self.sent);
            self.sent = 0;
        }
        self.out.extend_from_slice(frame);
    }

    /// The bytes still to be written, in order.
    pub(crate) fn unsent(&self) -> &[u8] {
        &self.out[self.sent..]
    }

    /// The socket took the first `n` bytes of [`Conn::unsent`].
    pub(crate) fn wrote(&mut self, n: usize) {
        self.sent += n;
        if self.sent == self.out.len() {
            // Keep a small buffer for the next answers; let a burst's go.
            if self.out.capacity() > 64 * 1024 {
                self.out = Vec::new();
            } else {
                self.out.clear();
            }
            self.sent = 0;
        }
    }

    /// Whether the connection is to be closed now.
    fn finished(&self) -> bool {
        self.dead || (self.closing && self.awaiting == 0 && self.unsent().is_empty())
    }
}

/// A connection as the reactor drives it: the machine, its socket, and
/// the readiness the socket is watched for.
struct Slot {
    conn: Conn,
    stream: TcpStream,
    token: u64,
    /// A write would block: writable readiness is watched.
    want_write: bool,
    /// The peer sent EOF, so the socket is no longer read.
    eof: bool,
}

impl Slot {
    /// Watches the socket for reads until EOF and for writes while one
    /// would block. A half-closed socket polls readable for good, so
    /// after EOF it is watched only while a write is blocked (for
    /// writability alone, which leaves the hang-up out), and the next
    /// answer delivered to it flushes it.
    fn watch(&mut self, poll: &Poll, eof: bool, want_write: bool) {
        if (eof, want_write) == (self.eof, self.want_write) {
            return;
        }
        let interest = |eof, want_write| match (eof, want_write) {
            (false, false) => Some(Interest::READABLE),
            (false, true) => Some(Interest::BOTH),
            (true, true) => Some(Interest::WRITABLE),
            (true, false) => None,
        };
        let was = interest(self.eof, self.want_write);
        (self.eof, self.want_write) = (eof, want_write);
        let fd = self.stream.as_raw_fd();
        let _ = match (was, interest(eof, want_write)) {
            (Some(_), Some(now)) => poll.reregister(fd, self.token, now),
            (None, Some(now)) => poll.register(fd, self.token, now),
            (Some(_), None) => poll.deregister(fd),
            (None, None) => Ok(()),
        };
    }

    /// Writes what the machine holds until the socket would block.
    /// Returns `false` when the connection is to be closed: finished, or
    /// the socket failed.
    fn flush(&mut self, poll: &Poll) -> bool {
        let blocked = loop {
            let unsent = self.conn.unsent();
            if unsent.is_empty() {
                break false;
            }
            match self.stream.write(unsent) {
                Ok(0) => return false,
                Ok(n) => self.conn.wrote(n),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break true,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        };
        self.watch(poll, self.eof, blocked);
        !self.conn.finished()
    }
}

/// Entry point of the reactor thread.
pub(crate) fn reactor_loop(listener: TcpListener, shared: &Shared) {
    if let Err(e) = run(listener, shared) {
        eprintln!("[psql-server] reactor failed: {e}");
    }
    // Whatever happened, no request is read any more.
    close_intake(shared);
}

/// Closes the worker queue and the `REPACK` slot, whose only producer is
/// the reactor: the workers and the rebuild thread answer what was
/// accepted, then end.
fn close_intake(shared: &Shared) {
    shared.queue.close();
    shared.repacks.close();
}

fn run(listener: TcpListener, shared: &Shared) -> io::Result<()> {
    listener.set_nonblocking(true)?;
    let poll = Poll::new()?;
    poll.register(shared.notifier.waker.fd(), WAKER_TOKEN, Interest::READABLE)?;
    poll.register(listener.as_raw_fd(), LISTENER_TOKEN, Interest::READABLE)?;

    let mut listener = Some(listener);
    let mut slots: Vec<Option<Slot>> = Vec::new();
    let mut free: Vec<usize> = Vec::new();
    let mut next_gen: u64 = 1;
    let mut events = Events::with_capacity(1024);
    let mut rbuf = vec![0u8; 16 * 1024];
    let mut done: Vec<(u64, Vec<u8>)> = Vec::new();
    let mut touched: Vec<usize> = Vec::new();
    let mut draining = false;
    let mut drain_deadline: Option<Instant> = None;

    loop {
        if !draining && shared.shutting_down.load(Ordering::SeqCst) {
            // Stop accepting and stop interpreting new requests; keep
            // writing answers to everything already dispatched.
            draining = true;
            if let Some(l) = listener.take() {
                let _ = poll.deregister(l.as_raw_fd());
            }
            close_intake(shared);
        }

        poll.wait(&mut events, Some(Duration::from_millis(100)))?;
        // Read before the list is taken: once the workers are joined,
        // every answer that will ever exist is on it.
        let workers_done = shared.workers_done.load(Ordering::SeqCst);
        let mut accept_ready = false;
        for ev in events.iter() {
            match ev.token {
                WAKER_TOKEN => shared.notifier.waker.drain(),
                LISTENER_TOKEN => accept_ready = true,
                token => {
                    let Some(idx) = live(&slots, token) else {
                        continue; // stale event for a recycled slot
                    };
                    if ev.is_error {
                        close_conn(&poll, &mut slots, &mut free, shared, idx);
                        continue;
                    }
                    let slot = slots[idx].as_mut().expect("live slot");
                    if ev.readable
                        && !slot.eof
                        && !on_readable(&poll, shared, slot, &mut rbuf, draining)
                    {
                        close_conn(&poll, &mut slots, &mut free, shared, idx);
                        continue;
                    }
                    touched.push(idx);
                }
            }
        }
        if accept_ready {
            accept_all(
                &poll,
                listener.as_ref(),
                &mut slots,
                &mut free,
                &mut next_gen,
                shared,
            );
        }
        // Deliver every finished answer, then flush each slot that got
        // one or saw an event this turn.
        shared.notifier.take(&mut done);
        for (token, frame) in done.drain(..) {
            if let Some(idx) = live(&slots, token) {
                slots[idx]
                    .as_mut()
                    .expect("live slot")
                    .conn
                    .on_frame(&frame);
                touched.push(idx);
            }
        }
        touched.sort_unstable();
        touched.dedup();
        for idx in touched.drain(..) {
            if slots[idx].as_mut().is_some_and(|slot| !slot.flush(&poll)) {
                close_conn(&poll, &mut slots, &mut free, shared, idx);
            }
        }

        if workers_done {
            let deadline = *drain_deadline.get_or_insert_with(|| Instant::now() + DRAIN_GRACE);
            let unsent = slots
                .iter()
                .flatten()
                .any(|slot| !slot.conn.unsent().is_empty());
            if !unsent || Instant::now() > deadline {
                break;
            }
        }
    }
    for idx in 0..slots.len() {
        close_conn(&poll, &mut slots, &mut free, shared, idx);
    }
    Ok(())
}

/// The slot `token` names, if its connection is still open: the token of
/// a closed connection never matches the slot's next tenant.
fn live(slots: &[Option<Slot>], token: u64) -> Option<usize> {
    let idx = (token & 0xffff_ffff) as usize;
    slots
        .get(idx)?
        .as_ref()
        .filter(|slot| slot.token == token)
        .map(|_| idx)
}

fn accept_all(
    poll: &Poll,
    listener: Option<&TcpListener>,
    slots: &mut Vec<Option<Slot>>,
    free: &mut Vec<usize>,
    next_gen: &mut u64,
    shared: &Shared,
) {
    let Some(listener) = listener else { return };
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            // Transient per-connection failures (ECONNABORTED, fd
            // exhaustion): skip this one, keep serving.
            Err(_) => break,
        };
        if stream.set_nonblocking(true).is_err() {
            continue;
        }
        let _ = stream.set_nodelay(true);
        let idx = free.pop().unwrap_or_else(|| {
            slots.push(None);
            slots.len() - 1
        });
        let token = (*next_gen << 32) | idx as u64;
        *next_gen += 1;
        if poll
            .register(stream.as_raw_fd(), token, Interest::READABLE)
            .is_err()
        {
            free.push(idx);
            continue;
        }
        slots[idx] = Some(Slot {
            conn: Conn::default(),
            stream,
            token,
            want_write: false,
            eof: false,
        });
        shared.metrics.connections_opened.incr();
    }
}

/// Reads until `WouldBlock`, EOF or the fairness cap, feeding the
/// machine. During the shutdown drain, bytes are read and discarded —
/// consuming readiness without interpreting new requests. Returns
/// `false` when the socket failed.
fn on_readable(
    poll: &Poll,
    shared: &Shared,
    slot: &mut Slot,
    rbuf: &mut [u8],
    draining: bool,
) -> bool {
    let mut total = 0usize;
    loop {
        match slot.stream.read(rbuf) {
            Ok(0) => {
                if slot.conn.on_eof() {
                    shared.metrics.protocol_errors.incr();
                }
                slot.watch(poll, true, slot.want_write);
                return true;
            }
            Ok(n) => {
                let token = slot.token;
                if !draining
                    && slot
                        .conn
                        .on_bytes(&rbuf[..n], |f| handle_frame(f, token, shared))
                {
                    shared.metrics.protocol_errors.incr();
                }
                total += n;
                if total >= READ_FAIRNESS_BYTES {
                    return true; // level-triggered: re-fires
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return true,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return false,
        }
    }
}

fn close_conn(
    poll: &Poll,
    slots: &mut [Option<Slot>],
    free: &mut Vec<usize>,
    shared: &Shared,
    idx: usize,
) {
    let Some(slot) = slots[idx].take() else {
        return;
    };
    let _ = poll.deregister(slot.stream.as_raw_fd());
    free.push(idx);
    shared.metrics.connections_closed.incr();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{decode_request, decode_response, encode_request, Request};
    use crate::sim::Rng;

    fn wire(payloads: &[Vec<u8>]) -> Vec<u8> {
        let mut wire = Vec::new();
        for payload in payloads {
            wire.extend_from_slice(&(payload.len() as u32).to_be_bytes());
            wire.extend_from_slice(payload);
        }
        wire
    }

    /// Feeds `bytes` in one call, collecting what is dispatched; every
    /// dispatch is accepted.
    fn feed(conn: &mut Conn, bytes: &[u8], got: &mut Vec<Vec<u8>>) -> bool {
        conn.on_bytes(bytes, |f| {
            got.push(f.to_vec());
            true
        })
    }

    /// The frames written so far, decoded.
    fn responses(bytes: &[u8]) -> Vec<Response> {
        let mut decoder = FrameDecoder::new();
        decoder.extend(bytes);
        let mut out = Vec::new();
        while let Some(f) = decoder.next_frame().expect("well framed") {
            out.push(decode_response(&f).expect("a response"));
        }
        assert!(!decoder.mid_frame(), "a torn frame");
        out
    }

    fn requests() -> Vec<Vec<u8>> {
        vec![
            encode_request(&Request::Ping { id: 1 }),
            encode_request(&Request::Query {
                id: 2,
                timeout_ms: 0,
                text: "select city from cities".into(),
            }),
            Vec::new(),
            vec![0xAB; 300],
            encode_request(&Request::Stats { id: 3 }),
        ]
    }

    #[test]
    fn bytes_one_at_a_time_dispatch_as_one_chunk_does() {
        let sent = requests();
        let bytes = wire(&sent);
        let (mut whole, mut whole_got) = (Conn::default(), Vec::new());
        assert!(!feed(&mut whole, &bytes, &mut whole_got));
        let (mut trickled, mut trickled_got) = (Conn::default(), Vec::new());
        for b in &bytes {
            assert!(!feed(
                &mut trickled,
                std::slice::from_ref(b),
                &mut trickled_got
            ));
        }
        assert_eq!(whole_got, sent);
        assert_eq!(trickled_got, sent);
        for conn in [&whole, &trickled] {
            assert_eq!(conn.awaiting, sent.len());
            assert!(!conn.closing && !conn.finished());
            assert!(conn.unsent().is_empty());
        }
    }

    #[test]
    fn nothing_is_dispatched_after_a_dispatch_refuses() {
        let sent = requests();
        let mut conn = Conn::default();
        let mut got = Vec::new();
        let stop = |f: &[u8], got: &mut Vec<Vec<u8>>| {
            got.push(f.to_vec());
            got.len() < 2
        };
        assert!(!conn.on_bytes(&wire(&sent), |f| stop(f, &mut got)));
        assert_eq!(got, sent[..2]);
        assert!(conn.closing);
        assert!(!conn.on_bytes(&wire(&sent), |f| stop(f, &mut got)));
        assert_eq!(got.len(), 2, "bytes after the refusal are ignored");
        // Closing, but both dispatched requests are still owed answers.
        assert_eq!(conn.awaiting, 2);
        assert!(!conn.finished());
    }

    #[test]
    fn oversized_header_is_answered_once_and_closes() {
        let mut conn = Conn::default();
        let mut got = Vec::new();
        let mut bytes = wire(&[encode_request(&Request::Ping { id: 9 })]);
        bytes.extend_from_slice(&(MAX_FRAME_LEN + 1).to_be_bytes());
        bytes.extend_from_slice(b"whatever follows");
        assert!(feed(&mut conn, &bytes, &mut got), "reported");
        assert_eq!(got.len(), 1, "the frame before the header is dispatched");
        assert!(conn.closing);
        let answered = responses(conn.unsent());
        assert_eq!(answered.len(), 1);
        assert!(matches!(
            &answered[0],
            Response::Error { id: 0, kind: ErrorKind::Protocol, message }
                if message.contains(&(MAX_FRAME_LEN + 1).to_string())
        ));
        // Later bytes, even well-framed ones, are ignored and not reported.
        let before = conn.unsent().to_vec();
        assert!(!feed(&mut conn, &wire(&requests()), &mut got));
        assert_eq!(got.len(), 1);
        assert_eq!(conn.unsent(), &before[..]);
        // Nothing is left mid-frame in a poisoned stream.
        assert!(!conn.on_eof());
        // It closes once the ping is answered and everything is written.
        conn.on_frame(&frame(&Response::Pong { id: 9 }));
        let n = conn.unsent().len();
        conn.wrote(n);
        assert!(conn.finished());
    }

    #[test]
    fn eof_mid_frame_is_reported_and_a_half_close_waits_for_its_answers() {
        let bytes = wire(&requests());
        for cut in [1, 3, 4, 5, bytes.len() - 1] {
            let mut conn = Conn::default();
            feed(&mut conn, &bytes[..cut], &mut Vec::new());
            assert!(conn.on_eof(), "EOF after {cut} bytes is mid-frame");
            assert!(conn.closing);
        }
        let mut conn = Conn::default();
        let mut got = Vec::new();
        feed(&mut conn, &bytes, &mut got);
        assert!(!conn.on_eof(), "EOF on a frame boundary is clean");
        // Half-closed: open until every dispatched request is answered
        // and every answer written.
        for i in 0..got.len() {
            assert!(!conn.finished(), "{} answers owed", got.len() - i);
            conn.on_frame(&frame(&Response::Pong { id: i as u64 }));
        }
        assert!(!conn.finished(), "answers unwritten");
        let all = conn.unsent().len();
        conn.wrote(all - 1);
        assert!(!conn.finished());
        conn.wrote(1);
        assert!(conn.finished());
    }

    #[test]
    fn partial_writes_keep_byte_order_while_frames_arrive() {
        let mut conn = Conn::default();
        let mut expected = Vec::new();
        let mut written = Vec::new();
        for i in 0..2_000u32 {
            let frame: Vec<u8> = (0..50 + i % 51).map(|j| (i + j) as u8).collect();
            conn.on_frame(&frame);
            expected.extend_from_slice(&frame);
            // The socket takes a little less than arrives, so a backlog
            // builds behind a long written prefix; now and then it
            // takes everything.
            let n = if i % 400 == 399 {
                conn.unsent().len()
            } else {
                conn.unsent().len().min(60 + (i % 7) as usize)
            };
            written.extend_from_slice(&conn.unsent()[..n]);
            conn.wrote(n);
            assert!(
                conn.out.len() <= 2 * conn.unsent().len() + 4096 + 100,
                "the written prefix was not compacted: {} bytes held for {} unsent",
                conn.out.len(),
                conn.unsent().len()
            );
        }
        written.extend_from_slice(conn.unsent());
        let n = conn.unsent().len();
        conn.wrote(n);
        assert_eq!(written, expected);
        assert!(conn.unsent().is_empty() && !conn.finished());
    }

    #[test]
    fn backlog_cap_gives_the_connection_up() {
        let mut conn = Conn::default();
        let half = vec![0u8; MAX_CONN_BACKLOG_BYTES / 2];
        conn.on_frame(&half);
        conn.on_frame(&half);
        assert!(!conn.dead, "exactly at the cap is still held");
        // Written bytes no longer count against the cap.
        conn.wrote(half.len());
        conn.on_frame(&half);
        assert!(!conn.dead);
        conn.on_frame(b"x");
        assert!(conn.dead, "one byte past the cap");
        assert!(conn.unsent().is_empty() && conn.out.capacity() == 0);
        assert!(conn.finished());
        // Answers after that are dropped.
        conn.on_frame(b"late");
        assert!(conn.unsent().is_empty());
    }

    fn random_request(rng: &mut Rng) -> Request {
        let id = rng.next();
        match rng.below(6) {
            0 => Request::Ping { id },
            1 => Request::Stats { id },
            2 => Request::Repack { id },
            3 => Request::Shutdown { id },
            4 => Request::Insert {
                id,
                picture: "us-map".into(),
                label: "x".into(),
                object: rtree_geom::SpatialObject::Point(rtree_geom::Point::new(1.0, 2.0)),
            },
            _ => Request::Query {
                id,
                timeout_ms: rng.next() as u32,
                text: String::from_utf8_lossy(&rng.bytes(40)).into_owned(),
            },
        }
    }

    /// Hostile bytes at fixed seeds: well-formed requests mixed with
    /// junk opcodes, truncated payloads, random payloads and oversized
    /// headers, cut at random chunk boundaries and fed through
    /// `on_bytes` with `decode_request` as the dispatch (a shutdown
    /// refuses further reading, as `handle_frame` does). Each
    /// well-delimited frame before the first oversized header or
    /// shutdown is dispatched once and in order, nothing after it, and
    /// nothing panics.
    #[test]
    fn hostile_bytes_at_fixed_seeds() {
        for seed in [1985u64, 2718, 3141, 4242] {
            let mut rng = Rng(seed);
            for case in 0..300 {
                let mut bytes = Vec::new();
                let mut expected = Vec::new();
                // Set once the stream stops being read: oversized header
                // (`true`) or a dispatched shutdown (`false`).
                let mut stopped: Option<bool> = None;
                for _ in 0..rng.below(16) {
                    let payload = match rng.below(20) {
                        0 => {
                            let len = MAX_FRAME_LEN as u64
                                + 1
                                + rng.next() % (u32::MAX - MAX_FRAME_LEN) as u64;
                            bytes.extend_from_slice(&(len as u32).to_be_bytes());
                            bytes.extend(rng.bytes(8));
                            stopped.get_or_insert(true);
                            continue;
                        }
                        1..=4 => {
                            // A junk opcode.
                            let mut p = rng.next().to_be_bytes().to_vec();
                            p.push(7 + rng.below(249) as u8);
                            p.extend(rng.bytes(16));
                            p
                        }
                        5..=8 => {
                            let p = encode_request(&random_request(&mut rng));
                            p[..rng.below(p.len())].to_vec()
                        }
                        9..=11 => rng.bytes(64),
                        _ => encode_request(&random_request(&mut rng)),
                    };
                    bytes.extend_from_slice(&(payload.len() as u32).to_be_bytes());
                    bytes.extend_from_slice(&payload);
                    if stopped.is_none() {
                        if matches!(decode_request(&payload), Ok(Request::Shutdown { .. })) {
                            stopped = Some(false);
                        }
                        expected.push(payload);
                    }
                }
                // Sometimes the peer dies mid-frame.
                let torn = rng.below(4) == 0;
                if torn {
                    bytes.extend_from_slice(&[0, 0, 0, 9, 1, 2]);
                }

                let mut conn = Conn::default();
                let mut got: Vec<Vec<u8>> = Vec::new();
                let mut reported = 0;
                let mut at = 0;
                while at < bytes.len() {
                    let widest = if rng.below(2) == 0 { 8 } else { 200 };
                    let step = 1 + rng.below(widest);
                    let chunk = &bytes[at..(at + step).min(bytes.len())];
                    at += chunk.len();
                    let poisoned = conn.on_bytes(chunk, |f| {
                        got.push(f.to_vec());
                        !matches!(decode_request(f), Ok(Request::Shutdown { .. }))
                    });
                    reported += usize::from(poisoned);
                }
                let context = format!("seed {seed} case {case}");
                assert_eq!(got, expected, "{context}");
                assert_eq!(conn.awaiting, expected.len(), "{context}");
                assert_eq!(conn.closing, stopped.is_some(), "{context}");
                assert_eq!(reported, usize::from(stopped == Some(true)), "{context}");
                let answered = responses(conn.unsent());
                assert_eq!(answered.len(), reported, "{context}");
                if stopped.is_none() {
                    assert_eq!(conn.on_eof(), torn, "{context}");
                }
            }
        }
    }
}
