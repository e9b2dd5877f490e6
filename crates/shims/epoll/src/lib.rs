//! Vendored readiness-I/O shim over Linux `epoll(7)`.
//!
//! The build environment has no crates.io access, so instead of `mio` or
//! `polling` this crate wraps the four syscalls an event loop actually
//! needs — `epoll_create1` / `epoll_ctl` / `epoll_wait` / `eventfd` —
//! behind a small safe API:
//!
//! * [`Poll`] — owns the epoll instance; register file descriptors with
//!   a `u64` token and an [`Interest`] (read / write), then [`Poll::wait`]
//!   for [`Events`]. Registration is **level-triggered**: a readiness
//!   condition keeps firing until it is consumed, which makes partial
//!   reads/writes impossible to lose.
//! * [`Waker`] — an `eventfd` that lets any thread poke a sleeping
//!   `wait` call (workers use it to tell the event loop "responses are
//!   queued").
//! * [`raise_nofile_limit`] / [`listen_backlog`] — the two capacity
//!   knobs a connection-storm needs (`RLIMIT_NOFILE` and a deeper accept
//!   backlog than std's fixed 128).
//!
//! The workspace's `unsafe` lives here, confined to the raw syscall
//! boundary, and in storage's `PCLMULQDQ` CRC kernel. Every wrapper
//! returns `io::Result` mapped from `errno`. The declarations are
//! `extern "C"` against the libc that std already links — no new
//! dependency.

#![cfg(target_os = "linux")]
#![deny(unsafe_op_in_unsafe_fn)]

use std::io;
use std::os::fd::RawFd;
use std::os::raw::{c_int, c_uint, c_void};
use std::time::Duration;

// ---------------------------------------------------------------------
// Raw syscall surface (the only unsafe in this crate)
// ---------------------------------------------------------------------

/// Linux `struct epoll_event`. Packed on x86-64 (the kernel ABI), C
/// layout elsewhere.
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    data: u64,
}

const EPOLL_CLOEXEC: c_int = 0o2000000;
const EPOLL_CTL_ADD: c_int = 1;
const EPOLL_CTL_DEL: c_int = 2;
const EPOLL_CTL_MOD: c_int = 3;

const EPOLLIN: u32 = 0x001;
const EPOLLOUT: u32 = 0x004;
const EPOLLERR: u32 = 0x008;
const EPOLLHUP: u32 = 0x010;
const EPOLLRDHUP: u32 = 0x2000;

const EFD_CLOEXEC: c_int = 0o2000000;
const EFD_NONBLOCK: c_int = 0o4000;

const RLIMIT_NOFILE: c_int = 7;

#[repr(C)]
struct RLimit {
    rlim_cur: u64,
    rlim_max: u64,
}

extern "C" {
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
    fn epoll_wait(epfd: c_int, events: *mut EpollEvent, maxevents: c_int, timeout: c_int) -> c_int;
    fn eventfd(initval: c_uint, flags: c_int) -> c_int;
    fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
    fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
    fn close(fd: c_int) -> c_int;
    fn listen(fd: c_int, backlog: c_int) -> c_int;
    fn getrlimit(resource: c_int, rlim: *mut RLimit) -> c_int;
    fn setrlimit(resource: c_int, rlim: *const RLimit) -> c_int;
}

fn cvt(ret: c_int) -> io::Result<c_int> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

// ---------------------------------------------------------------------
// Interest / Event
// ---------------------------------------------------------------------

/// What readiness a registration asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Wake when the fd is readable (or the peer hung up).
    pub readable: bool,
    /// Wake when the fd accepts more outgoing bytes.
    pub writable: bool,
}

impl Interest {
    /// Read readiness only.
    pub const READABLE: Interest = Interest {
        readable: true,
        writable: false,
    };
    /// Write readiness only.
    pub const WRITABLE: Interest = Interest {
        readable: false,
        writable: true,
    };
    /// Both directions.
    pub const BOTH: Interest = Interest {
        readable: true,
        writable: true,
    };

    /// Peer hang-up is asked for only with read readiness: a socket the
    /// peer half-closed reports it on every wait, which would spin a
    /// loop that watches it only for a blocked write.
    fn bits(self) -> u32 {
        let mut bits = 0;
        if self.readable {
            bits |= EPOLLIN | EPOLLRDHUP;
        }
        if self.writable {
            bits |= EPOLLOUT;
        }
        bits
    }
}

/// One readiness notification out of [`Poll::wait`].
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The token the fd was registered with.
    pub token: u64,
    /// Readable (includes peer hang-up so pending bytes/EOF get read).
    pub readable: bool,
    /// Writable.
    pub writable: bool,
    /// Error or hang-up condition on the fd.
    pub is_error: bool,
}

/// Reusable buffer of readiness notifications.
pub struct Events {
    raw: Vec<EpollEvent>,
    len: usize,
}

impl Events {
    /// A buffer receiving at most `capacity` events per wait.
    pub fn with_capacity(capacity: usize) -> Events {
        Events {
            raw: vec![EpollEvent { events: 0, data: 0 }; capacity.clamp(1, 4096)],
            len: 0,
        }
    }

    /// Iterates the events delivered by the last [`Poll::wait`].
    pub fn iter(&self) -> impl Iterator<Item = Event> + '_ {
        self.raw[..self.len].iter().map(|e| {
            // Copy out of the (possibly packed) struct before use.
            let bits = e.events;
            let token = e.data;
            Event {
                token,
                readable: bits & (EPOLLIN | EPOLLRDHUP | EPOLLHUP) != 0,
                writable: bits & EPOLLOUT != 0,
                is_error: bits & (EPOLLERR | EPOLLHUP) != 0,
            }
        })
    }

    /// Number of events delivered by the last wait.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the last wait delivered nothing (timeout).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

// ---------------------------------------------------------------------
// Poll
// ---------------------------------------------------------------------

/// An owned epoll instance.
#[derive(Debug)]
pub struct Poll {
    epfd: RawFd,
}

impl Poll {
    /// Creates the epoll instance (`EPOLL_CLOEXEC`).
    pub fn new() -> io::Result<Poll> {
        // SAFETY: plain syscall, no pointers.
        let epfd = cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
        Ok(Poll { epfd })
    }

    fn ctl(&self, op: c_int, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        let mut ev = EpollEvent {
            events: interest.bits(),
            data: token,
        };
        // SAFETY: `ev` outlives the call; the kernel copies it.
        cvt(unsafe { epoll_ctl(self.epfd, op, fd, &mut ev) })?;
        Ok(())
    }

    /// Starts watching `fd` (level-triggered) under `token`.
    pub fn register(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, token, interest)
    }

    /// Changes an existing registration's interest (token may change too).
    pub fn reregister(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, token, interest)
    }

    /// Stops watching `fd`.
    pub fn deregister(&self, fd: RawFd) -> io::Result<()> {
        let mut ev = EpollEvent { events: 0, data: 0 };
        // A non-null event pointer keeps pre-2.6.9 kernels happy; the
        // kernel ignores it for DEL.
        // SAFETY: as in `ctl`.
        cvt(unsafe { epoll_ctl(self.epfd, EPOLL_CTL_DEL, fd, &mut ev) })?;
        Ok(())
    }

    /// Blocks until at least one registered fd is ready or `timeout`
    /// elapses (`None` = wait forever). Returns the number of events
    /// written into `events`; `0` means timeout. `EINTR` is retried.
    pub fn wait(&self, events: &mut Events, timeout: Option<Duration>) -> io::Result<usize> {
        let timeout_ms: c_int = match timeout {
            None => -1,
            Some(d) => d.as_millis().min(c_int::MAX as u128) as c_int,
        };
        loop {
            // SAFETY: the buffer is sized to `raw.len()` entries and
            // lives across the call.
            let n = unsafe {
                epoll_wait(
                    self.epfd,
                    events.raw.as_mut_ptr(),
                    events.raw.len() as c_int,
                    timeout_ms,
                )
            };
            if n >= 0 {
                events.len = n as usize;
                return Ok(n as usize);
            }
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                events.len = 0;
                return Err(err);
            }
        }
    }
}

impl Drop for Poll {
    fn drop(&mut self) {
        // SAFETY: we own the fd and drop it exactly once.
        unsafe { close(self.epfd) };
    }
}

// ---------------------------------------------------------------------
// Waker
// ---------------------------------------------------------------------

/// A cross-thread wake-up for a sleeping [`Poll::wait`], backed by a
/// nonblocking `eventfd`. Register [`Waker::fd`] with read interest
/// under a reserved token; [`Waker::wake`] from any thread makes the fd
/// readable; [`Waker::drain`] resets it.
#[derive(Debug)]
pub struct Waker {
    fd: RawFd,
}

impl Waker {
    /// Creates the eventfd.
    pub fn new() -> io::Result<Waker> {
        // SAFETY: plain syscall.
        let fd = cvt(unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) })?;
        Ok(Waker { fd })
    }

    /// The fd to register with the poller (read interest).
    pub fn fd(&self) -> RawFd {
        self.fd
    }

    /// Makes the fd readable, waking the poller. Callable from any
    /// thread; never blocks (an already-pending wake is absorbed by the
    /// eventfd counter).
    pub fn wake(&self) {
        let one: u64 = 1;
        // SAFETY: writes 8 bytes from a stack value; eventfd writes of
        // 8 bytes are atomic. EAGAIN (counter at max) still leaves the
        // fd readable, which is all a wake needs.
        unsafe { write(self.fd, (&one as *const u64).cast(), 8) };
    }

    /// Consumes pending wakes so the fd stops polling readable.
    pub fn drain(&self) {
        let mut buf: u64 = 0;
        // SAFETY: reads 8 bytes into a stack value; the fd is
        // nonblocking, so this returns immediately either way.
        unsafe { read(self.fd, (&mut buf as *mut u64).cast(), 8) };
    }
}

impl Drop for Waker {
    fn drop(&mut self) {
        // SAFETY: we own the fd and drop it exactly once.
        unsafe { close(self.fd) };
    }
}

// ---------------------------------------------------------------------
// Capacity knobs
// ---------------------------------------------------------------------

/// Raises `RLIMIT_NOFILE` so one process can hold `target` descriptors.
/// Best-effort: unprivileged processes are clamped to their hard limit
/// (raising past it wants `CAP_SYS_RESOURCE`). Returns the soft limit
/// now in effect.
pub fn raise_nofile_limit(target: u64) -> io::Result<u64> {
    let mut lim = RLimit {
        rlim_cur: 0,
        rlim_max: 0,
    };
    // SAFETY: out-pointer to a stack struct of the kernel's layout.
    cvt(unsafe { getrlimit(RLIMIT_NOFILE, &mut lim) })?;
    if lim.rlim_cur >= target {
        return Ok(lim.rlim_cur);
    }
    let want = RLimit {
        rlim_cur: target,
        rlim_max: lim.rlim_max.max(target),
    };
    // SAFETY: in-pointer to a stack struct.
    if unsafe { setrlimit(RLIMIT_NOFILE, &want) } == 0 {
        return Ok(target);
    }
    // No privilege to raise the hard limit: settle for all of it.
    let capped = RLimit {
        rlim_cur: lim.rlim_max,
        rlim_max: lim.rlim_max,
    };
    // SAFETY: as above.
    cvt(unsafe { setrlimit(RLIMIT_NOFILE, &capped) })?;
    Ok(lim.rlim_max)
}

/// Re-issues `listen(2)` on an already-listening socket to deepen its
/// accept backlog (std's `TcpListener::bind` hard-codes 128, which a
/// connection storm overflows into SYN retransmits).
pub fn listen_backlog(fd: RawFd, backlog: i32) -> io::Result<()> {
    // SAFETY: plain syscall on a caller-owned fd.
    cvt(unsafe { listen(fd, backlog) })?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read as _, Write as _};
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;

    #[test]
    fn waker_wakes_and_drains() {
        let poll = Poll::new().unwrap();
        let waker = Waker::new().unwrap();
        poll.register(waker.fd(), 7, Interest::READABLE).unwrap();
        let mut events = Events::with_capacity(8);

        // No wake: timeout, zero events.
        let n = poll
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert_eq!(n, 0);
        assert!(events.is_empty());

        waker.wake();
        let n = poll
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert_eq!(n, 1);
        let ev = events.iter().next().unwrap();
        assert_eq!(ev.token, 7);
        assert!(ev.readable);

        // Level-triggered: still readable until drained.
        let n = poll
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert_eq!(n, 1);
        waker.drain();
        let n = poll
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert_eq!(n, 0);
    }

    #[test]
    fn socket_readiness_and_reregister() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let poll = Poll::new().unwrap();
        poll.register(listener.as_raw_fd(), 1, Interest::READABLE)
            .unwrap();

        let mut events = Events::with_capacity(8);
        // Nothing pending yet.
        assert_eq!(
            poll.wait(&mut events, Some(Duration::from_millis(10)))
                .unwrap(),
            0
        );

        let mut client = TcpStream::connect(addr).unwrap();
        let n = poll
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert_eq!(n, 1);
        assert_eq!(events.iter().next().unwrap().token, 1);

        let (mut accepted, _) = listener.accept().unwrap();
        accepted.set_nonblocking(true).unwrap();
        poll.register(accepted.as_raw_fd(), 2, Interest::BOTH)
            .unwrap();
        // A fresh socket is writable immediately.
        let n = poll
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(n >= 1);
        let ev = events.iter().find(|e| e.token == 2).unwrap();
        assert!(ev.writable && !ev.readable);

        // Drop write interest, send bytes: next event is read-only.
        poll.reregister(accepted.as_raw_fd(), 2, Interest::READABLE)
            .unwrap();
        client.write_all(b"ping").unwrap();
        let n = poll
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert_eq!(n, 1);
        let ev = events.iter().next().unwrap();
        assert!(ev.readable && !ev.writable);
        let mut buf = [0u8; 8];
        assert_eq!(accepted.read(&mut buf).unwrap(), 4);

        poll.deregister(accepted.as_raw_fd()).unwrap();
        client.write_all(b"more").unwrap();
        assert_eq!(
            poll.wait(&mut events, Some(Duration::from_millis(20)))
                .unwrap(),
            0,
            "deregistered fd must not fire"
        );
    }

    #[test]
    fn peer_hangup_reads_as_readable() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (accepted, _) = listener.accept().unwrap();
        let poll = Poll::new().unwrap();
        poll.register(accepted.as_raw_fd(), 3, Interest::READABLE)
            .unwrap();
        drop(client);
        let mut events = Events::with_capacity(4);
        let n = poll
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert_eq!(n, 1);
        assert!(
            events.iter().next().unwrap().readable,
            "EOF must wake reads"
        );
    }

    #[test]
    fn nofile_limit_is_queryable_and_monotone() {
        let before = raise_nofile_limit(64).unwrap();
        assert!(before >= 64);
        // Asking for less than we have is a no-op reporting the current.
        let again = raise_nofile_limit(32).unwrap();
        assert!(again >= before.min(64));
    }

    #[test]
    fn listen_backlog_accepts() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listen_backlog(listener.as_raw_fd(), 1024).unwrap();
        let addr = listener.local_addr().unwrap();
        let _c = TcpStream::connect(addr).unwrap();
        listener.accept().unwrap();
    }
}
