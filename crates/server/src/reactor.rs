//! The readiness-driven I/O core: one event-loop thread owns the
//! listener and every connection, replacing the thread-per-socket model.
//!
//! ## Shape
//!
//! A single reactor thread runs an epoll loop (via the vendored `epoll`
//! shim) over:
//!
//! * the **listener** — accepted nonblockingly until `WouldBlock`, each
//!   connection taking a slot in a generation-tagged slab;
//! * every **connection** — readable events feed an incremental
//!   [`FrameDecoder`]; complete frames dispatch through the same
//!   `handle_frame` logic as before (control answered inline, queries
//!   and inserts enqueued on the bounded worker queue);
//! * a **waker eventfd** — workers finish jobs on their own threads and
//!   park encoded response frames in the connection's outbox, then poke
//!   the waker so the reactor flushes them.
//!
//! ## Pipelining and ordering
//!
//! A connection may have any number of requests in flight. Responses are
//! written back in *completion* order, not submission order — the
//! request id is the correlation. Each response frame is queued
//! atomically (the outbox holds whole frames), so frames never
//! interleave mid-frame even though many workers feed one connection.
//!
//! ## Backpressure and cleanup
//!
//! Writes go through a per-connection outbox drained by the reactor;
//! `WouldBlock` registers write interest and the flush resumes on the
//! next writable event, so one slow reader never blocks the loop or any
//! other connection. An outbox past `MAX_CONN_BACKLOG_BYTES` marks the
//! connection dead (the client is not consuming; buffering forever
//! would be an OOM handed to whoever pipelines fastest). Closed
//! connections poison their outbox so late worker responses become
//! no-ops instead of writes to a recycled slot.

use crate::protocol::{encode_response, FrameDecoder, Response, MAX_FRAME_LEN};
use crate::server::{handle_frame, Shared};
use epoll::{Events, Interest, Poll, Waker};
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Token reserved for the waker eventfd.
const WAKER_TOKEN: u64 = u64::MAX;
/// Token reserved for the listener.
const LISTENER_TOKEN: u64 = u64::MAX - 1;

/// Most bytes read from one connection per readiness event. The socket
/// stays level-triggered, so a firehose connection re-fires on the next
/// wait instead of starving its neighbours.
const READ_FAIRNESS_BYTES: usize = 256 * 1024;
/// Target size of the coalesced write buffer refilled from the outbox.
const WRITE_COALESCE_BYTES: usize = 64 * 1024;
/// How long the final drain keeps flushing queued responses after the
/// workers have been joined, before closing connections regardless.
const DRAIN_GRACE: Duration = Duration::from_secs(3);

/// Cross-thread "this connection has responses to flush" channel:
/// workers push the connection's token and poke the eventfd; the reactor
/// drains the list on wake.
pub(crate) struct Notifier {
    pending: Mutex<Vec<u64>>,
    waker: Waker,
}

impl Notifier {
    pub(crate) fn new() -> io::Result<Notifier> {
        Ok(Notifier {
            pending: Mutex::new(Vec::new()),
            waker: Waker::new()?,
        })
    }

    fn notify(&self, token: u64) {
        self.pending
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(token);
        self.waker.wake();
    }

    /// Wakes the reactor without a token — shutdown and drain phases.
    pub(crate) fn wake(&self) {
        self.waker.wake();
    }

    fn drain(&self) -> Vec<u64> {
        std::mem::take(&mut *self.pending.lock().unwrap_or_else(|e| e.into_inner()))
    }
}

struct Outbox {
    frames: VecDeque<Vec<u8>>,
    bytes: usize,
    /// Set when the connection closed (or overflowed): sends become
    /// no-ops so late worker responses can't write into a recycled slot.
    dead: bool,
}

/// The per-connection handle shared with workers: where responses go.
/// This replaces the old thread-per-session `Session` (a mutex over the
/// write half of the socket) — same `send` shape, but the actual socket
/// write happens on the reactor thread.
pub(crate) struct Session {
    token: u64,
    notifier: Arc<Notifier>,
    outbox: Mutex<Outbox>,
}

/// Most bytes of unread responses buffered per connection before the
/// server cuts a non-consuming client loose.
const MAX_CONN_BACKLOG_BYTES: usize = 64 << 20;

impl Session {
    /// Queues one response frame for the reactor to write. Atomic per
    /// frame; callable from any thread; never blocks on the socket.
    pub(crate) fn send(&self, resp: &Response) {
        let payload = encode_response(resp);
        let mut frame = Vec::with_capacity(4 + payload.len());
        frame.extend_from_slice(&(payload.len() as u32).to_be_bytes());
        frame.extend_from_slice(&payload);
        {
            let mut ob = self.outbox.lock().unwrap_or_else(|e| e.into_inner());
            if ob.dead {
                return;
            }
            if ob.bytes + frame.len() > MAX_CONN_BACKLOG_BYTES {
                // The client stopped reading; cut it loose rather than
                // buffer without bound. The reactor closes on flush.
                ob.dead = true;
                ob.frames.clear();
                ob.bytes = 0;
            } else {
                ob.bytes += frame.len();
                ob.frames.push_back(frame);
            }
        }
        self.notifier.notify(self.token);
    }
}

struct Conn {
    stream: TcpStream,
    token: u64,
    decoder: FrameDecoder,
    session: Arc<Session>,
    /// Coalesced write buffer (drained from `woff`), refilled from the
    /// session outbox.
    wbuf: Vec<u8>,
    woff: usize,
    /// Whether write interest is currently registered.
    want_write: bool,
    /// Flush whatever is queued, then close (shutdown acknowledged,
    /// unrecoverable input answered, or peer EOF).
    closing: bool,
}

impl Conn {
    fn has_unsent(&self) -> bool {
        self.woff < self.wbuf.len()
            || !self
                .session
                .outbox
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .frames
                .is_empty()
    }
}

enum Flush {
    Keep,
    Close,
}

/// Entry point of the reactor thread.
pub(crate) fn reactor_loop(listener: TcpListener, shared: &Arc<Shared>) {
    if let Err(e) = run(listener, shared) {
        eprintln!("[psql-server] reactor failed: {e}");
    }
    // Whatever happened, unblock Server::wait.
    shared.reader_stopped.store(true, Ordering::SeqCst);
}

fn run(listener: TcpListener, shared: &Arc<Shared>) -> io::Result<()> {
    listener.set_nonblocking(true)?;
    let poll = Poll::new()?;
    poll.register(shared.notifier.waker.fd(), WAKER_TOKEN, Interest::READABLE)?;
    poll.register(listener.as_raw_fd(), LISTENER_TOKEN, Interest::READABLE)?;

    let mut listener = Some(listener);
    let mut slots: Vec<Option<Conn>> = Vec::new();
    let mut free: Vec<usize> = Vec::new();
    let mut next_gen: u64 = 1;
    let mut events = Events::with_capacity(1024);
    let mut rbuf = vec![0u8; 16 * 1024];
    let mut draining = false;

    loop {
        if !draining && shared.shutting_down.load(Ordering::SeqCst) {
            // Stop accepting and stop interpreting new requests; keep
            // flushing responses for everything already queued.
            draining = true;
            if let Some(l) = listener.take() {
                let _ = poll.deregister(l.as_raw_fd());
            }
            shared.reader_stopped.store(true, Ordering::SeqCst);
        }
        if shared.workers_done.load(Ordering::SeqCst) {
            break;
        }

        poll.wait(&mut events, Some(Duration::from_millis(100)))?;
        let mut accept_ready = false;
        let mut touched: Vec<usize> = Vec::new();
        for ev in events.iter() {
            match ev.token {
                WAKER_TOKEN => shared.notifier.waker.drain(),
                LISTENER_TOKEN => accept_ready = true,
                token => {
                    let idx = (token & 0xffff_ffff) as usize;
                    let valid = slots
                        .get(idx)
                        .and_then(|s| s.as_ref())
                        .is_some_and(|c| c.token == token);
                    if !valid {
                        continue; // stale event for a recycled slot
                    }
                    if ev.is_error {
                        close_conn(&poll, &mut slots, &mut free, shared, idx);
                        continue;
                    }
                    if ev.readable {
                        let conn = slots[idx].as_mut().expect("validated above");
                        if let Flush::Close = on_readable(shared, conn, &mut rbuf, draining) {
                            close_conn(&poll, &mut slots, &mut free, shared, idx);
                            continue;
                        }
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
        // Flush every connection a worker finished a response for, plus
        // every one that saw a readable/writable event this round
        // (inline control responses, continued partial writes).
        for token in shared.notifier.drain() {
            let idx = (token & 0xffff_ffff) as usize;
            let valid = slots
                .get(idx)
                .and_then(|s| s.as_ref())
                .is_some_and(|c| c.token == token);
            if valid {
                touched.push(idx);
            }
        }
        touched.sort_unstable();
        touched.dedup();
        for idx in touched {
            let Some(conn) = slots[idx].as_mut() else {
                continue;
            };
            if let Flush::Close = flush_conn(&poll, conn) {
                close_conn(&poll, &mut slots, &mut free, shared, idx);
            }
        }
    }

    // Workers are joined: every response that will ever exist is queued.
    // Flush with a grace period, then close everything.
    let deadline = Instant::now() + DRAIN_GRACE;
    loop {
        let mut unsent = false;
        for idx in 0..slots.len() {
            let Some(conn) = slots[idx].as_mut() else {
                continue;
            };
            if let Flush::Close = flush_conn(&poll, conn) {
                close_conn(&poll, &mut slots, &mut free, shared, idx);
                continue;
            }
            if slots[idx].as_ref().is_some_and(Conn::has_unsent) {
                unsent = true;
            }
        }
        if !unsent || Instant::now() > deadline {
            break;
        }
        poll.wait(&mut events, Some(Duration::from_millis(20)))?;
    }
    for idx in 0..slots.len() {
        close_conn(&poll, &mut slots, &mut free, shared, idx);
    }
    Ok(())
}

fn accept_all(
    poll: &Poll,
    listener: Option<&TcpListener>,
    slots: &mut Vec<Option<Conn>>,
    free: &mut Vec<usize>,
    next_gen: &mut u64,
    shared: &Arc<Shared>,
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
        let session = Arc::new(Session {
            token,
            notifier: Arc::clone(&shared.notifier),
            outbox: Mutex::new(Outbox {
                frames: VecDeque::new(),
                bytes: 0,
                dead: false,
            }),
        });
        slots[idx] = Some(Conn {
            stream,
            token,
            decoder: FrameDecoder::new(),
            session,
            wbuf: Vec::new(),
            woff: 0,
            want_write: false,
            closing: false,
        });
        shared.metrics.connections_opened.incr();
    }
}

/// Reads until `WouldBlock` (or the fairness cap), feeding the decoder
/// and dispatching complete frames. During shutdown drain, bytes are
/// read and discarded — consuming readiness without interpreting new
/// requests.
fn on_readable(shared: &Arc<Shared>, conn: &mut Conn, rbuf: &mut [u8], draining: bool) -> Flush {
    let mut total = 0usize;
    loop {
        match conn.stream.read(rbuf) {
            Ok(0) => {
                // Peer EOF. Mid-frame it is a protocol violation; either
                // way, flush what is queued and close.
                if conn.decoder.mid_frame() {
                    shared.metrics.protocol_errors.incr();
                }
                conn.closing = true;
                return Flush::Keep;
            }
            Ok(n) => {
                if !draining && !conn.closing {
                    conn.decoder.extend(&rbuf[..n]);
                    loop {
                        match conn.decoder.next_frame() {
                            Ok(Some(payload)) => {
                                if !handle_frame(&payload, &conn.session, shared) {
                                    conn.closing = true;
                                    break;
                                }
                            }
                            Ok(None) => break,
                            Err(len) => {
                                // Unrecoverable framing: answer, then
                                // flush-and-close. Outbound framing is
                                // still intact.
                                shared.metrics.protocol_errors.incr();
                                conn.session.send(&Response::Error {
                                    id: 0,
                                    kind: crate::protocol::ErrorKind::Protocol,
                                    message: format!(
                                        "frame of {len} bytes exceeds limit {MAX_FRAME_LEN}; \
                                         closing connection"
                                    ),
                                });
                                conn.closing = true;
                                break;
                            }
                        }
                    }
                }
                total += n;
                if total >= READ_FAIRNESS_BYTES {
                    return Flush::Keep; // level-triggered: re-fires
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Flush::Keep,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return Flush::Close,
        }
    }
}

/// Writes as much of the outbox as the socket accepts. Registers write
/// interest on `WouldBlock`, drops it once drained, closes when a
/// `closing` connection runs dry (or the outbox was poisoned).
fn flush_conn(poll: &Poll, conn: &mut Conn) -> Flush {
    loop {
        if conn.woff == conn.wbuf.len() {
            conn.wbuf.clear();
            conn.woff = 0;
            {
                let mut ob = conn
                    .session
                    .outbox
                    .lock()
                    .unwrap_or_else(|e| e.into_inner());
                if ob.dead {
                    return Flush::Close;
                }
                while let Some(front) = ob.frames.front() {
                    if !conn.wbuf.is_empty() && conn.wbuf.len() + front.len() > WRITE_COALESCE_BYTES
                    {
                        break;
                    }
                    let frame = ob.frames.pop_front().expect("front checked");
                    ob.bytes -= frame.len();
                    conn.wbuf.extend_from_slice(&frame);
                }
            }
            if conn.wbuf.is_empty() {
                if conn.closing {
                    return Flush::Close;
                }
                if conn.want_write {
                    conn.want_write = false;
                    let _ =
                        poll.reregister(conn.stream.as_raw_fd(), conn.token, Interest::READABLE);
                }
                return Flush::Keep;
            }
        }
        match conn.stream.write(&conn.wbuf[conn.woff..]) {
            Ok(0) => return Flush::Close,
            Ok(n) => conn.woff += n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                if !conn.want_write {
                    conn.want_write = true;
                    let _ = poll.reregister(conn.stream.as_raw_fd(), conn.token, Interest::BOTH);
                }
                return Flush::Keep;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return Flush::Close,
        }
    }
}

fn close_conn(
    poll: &Poll,
    slots: &mut [Option<Conn>],
    free: &mut Vec<usize>,
    shared: &Arc<Shared>,
    idx: usize,
) {
    let Some(conn) = slots[idx].take() else {
        return;
    };
    let _ = poll.deregister(conn.stream.as_raw_fd());
    {
        let mut ob = conn
            .session
            .outbox
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        ob.dead = true;
        ob.frames.clear();
        ob.bytes = 0;
    }
    free.push(idx);
    shared.metrics.connections_closed.incr();
}
