//! lss-reactor: a dependency-light epoll reactor and the one
//! framed-connection server built on it.
//!
//! One [`Poller`] owns an epoll instance plus a self-wake pipe (a
//! `UnixStream` pair — no extra syscall surface) and hands out
//! cloneable [`Waker`]s that any thread can nudge to break the reactor
//! out of `epoll_wait`. [`FramedConn`] packages a non-blocking TCP
//! stream with both-direction buffering for the workspace's
//! length-prefixed frame codec.
//!
//! [`FrameServer`] does the connection work once for every front end:
//! accept, frame reading, write-interest arming, handshake and idle
//! deadlines, parting closes and the teardown flush. A front end is a
//! [`Handler`]: two callbacks, one per decoded frame and one per lost
//! peer, with its protocol state in ordinary match statements. No
//! executor, no futures; the server runs on whichever thread calls
//! [`FrameServer::turn`] — the runtime master's own loop, or the serve
//! daemon's reactor thread.
//!
//! `unsafe` is confined to the three epoll prototypes in `sys`; the
//! rest of the crate — and every crate above it — is safe Rust.

#![deny(unsafe_code)]
#![warn(missing_docs)]

mod conn;
mod server;
mod sys;

pub use conn::{parting_flush, ConnError, FramedConn, MAX_FRAME_BYTES, PARTING_FLUSH_BUDGET};
pub use server::{Conn, FrameServer, Handler, HANDSHAKE_DEADLINE, SCAN_SLICE};

use std::io::{self, ErrorKind, Read, Write};
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::sync::Arc;
use std::time::Duration;

/// Token reserved for the poller's internal waker. User registrations
/// must stay below it.
pub const WAKE_TOKEN: u64 = u64::MAX;

/// Readiness flags for one registered fd, decoded from the kernel's
/// bit set into what a transport loop actually branches on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Readiness {
    /// The fd this event refers to, by registration token.
    pub token: u64,
    /// Bytes (or a pending accept) are waiting.
    pub readable: bool,
    /// The socket can take more outbound bytes.
    pub writable: bool,
    /// Error or hang-up: the connection is dead or dying. Always also
    /// attempt a read first — the peer may have sent final frames.
    pub closed: bool,
}

/// Interest set for [`Poller::register`] / [`Poller::rearm`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Watch for inbound readiness.
    pub read: bool,
    /// Watch for outbound readiness (arm only while bytes are queued,
    /// else level-triggered epoll spins hot).
    pub write: bool,
}

impl Interest {
    /// Read-only interest — the steady state of an idle connection.
    pub const READ: Interest = Interest { read: true, write: false };
    /// Read + write interest — while a flush left bytes queued.
    pub const READ_WRITE: Interest = Interest { read: true, write: true };

    fn bits(self) -> u32 {
        let mut events = sys::EPOLLRDHUP;
        if self.read {
            events |= sys::EPOLLIN;
        }
        if self.write {
            events |= sys::EPOLLOUT;
        }
        events
    }
}

/// A cloneable handle that interrupts [`Poller::wait`] from any thread.
#[derive(Clone)]
pub struct Waker {
    tx: Arc<UnixStream>,
}

impl Waker {
    /// Nudges the poller. Infallible from the caller's perspective: a
    /// full pipe already guarantees a pending wakeup, and a torn-down
    /// poller no longer needs one.
    pub fn wake(&self) {
        let _ = (&*self.tx).write(&[1]);
    }
}

/// The reactor core: an epoll instance plus the wake pipe.
pub struct Poller {
    epoll: sys::Epoll,
    wake_rx: UnixStream,
    wake_tx: Arc<UnixStream>,
}

impl Poller {
    /// Creates a poller with its waker pre-registered.
    pub fn new() -> io::Result<Poller> {
        let (wake_tx, wake_rx) = UnixStream::pair()?;
        wake_rx.set_nonblocking(true)?;
        wake_tx.set_nonblocking(true)?;
        let epoll = sys::Epoll::new()?;
        epoll.add(wake_rx.as_raw_fd(), sys::EPOLLIN, WAKE_TOKEN)?;
        Ok(Poller { epoll, wake_rx, wake_tx: Arc::new(wake_tx) })
    }

    /// A handle other threads use to interrupt [`Poller::wait`].
    pub fn waker(&self) -> Waker {
        Waker { tx: Arc::clone(&self.wake_tx) }
    }

    /// Starts watching `fd` under `token`. Tokens must be unique among
    /// live registrations and below [`WAKE_TOKEN`].
    pub fn register(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        debug_assert!(token < WAKE_TOKEN, "token {token} collides with the waker");
        self.epoll.add(fd, interest.bits(), token)
    }

    /// Updates the interest set of a watched fd (typically toggling
    /// write interest as the outbound queue fills and drains).
    pub fn rearm(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.epoll.modify(fd, interest.bits(), token)
    }

    /// Stops watching `fd`. Call before closing the socket so the
    /// interest list never holds a dangling descriptor.
    pub fn deregister(&self, fd: RawFd) -> io::Result<()> {
        self.epoll.delete(fd)
    }

    /// Waits for readiness, appending decoded events to `out`.
    /// Returns `true` if a [`Waker`] fired (the wake pipe is drained
    /// internally and never surfaced as an event). `None` timeout
    /// blocks until something happens.
    pub fn wait(&self, out: &mut Vec<Readiness>, timeout: Option<Duration>) -> io::Result<bool> {
        let timeout_ms = timeout.map(|d| {
            // Round up so a 100µs deadline doesn't become a hot loop of
            // zero-timeout polls.
            i32::try_from(d.as_millis().max(1)).unwrap_or(i32::MAX)
        });
        let mut raw = Vec::new();
        self.epoll.wait(&mut raw, timeout_ms)?;
        let mut woken = false;
        for ev in raw {
            let events = ev.events;
            let token = ev.data;
            if token == WAKE_TOKEN {
                woken = true;
                self.drain_waker();
                continue;
            }
            out.push(Readiness {
                token,
                readable: events & sys::EPOLLIN != 0,
                writable: events & sys::EPOLLOUT != 0,
                closed: events & (sys::EPOLLERR | sys::EPOLLHUP | sys::EPOLLRDHUP) != 0,
            });
        }
        Ok(woken)
    }

    /// Empties the wake pipe so level-triggered epoll quiets down until
    /// the next [`Waker::wake`].
    fn drain_waker(&self) {
        let mut buf = [0u8; 64];
        loop {
            match (&self.wake_rx).read(&mut buf) {
                Ok(0) => break,
                Ok(_) => continue,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};
    use std::time::Instant;

    #[test]
    fn waker_interrupts_an_indefinite_wait() {
        let poller = Poller::new().expect("poller");
        let waker = poller.waker();
        let handle = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            waker.wake();
        });
        let mut events = Vec::new();
        let start = Instant::now();
        let woken = poller.wait(&mut events, Some(Duration::from_secs(10))).expect("wait");
        assert!(woken, "wake() must surface as woken=true");
        assert!(events.is_empty(), "the wake pipe is not a user event");
        assert!(start.elapsed() < Duration::from_secs(5), "woke early, not on timeout");
        handle.join().expect("join");
    }

    #[test]
    fn timeout_expires_without_events() {
        let poller = Poller::new().expect("poller");
        let mut events = Vec::new();
        let woken = poller.wait(&mut events, Some(Duration::from_millis(20))).expect("wait");
        assert!(!woken);
        assert!(events.is_empty());
    }

    #[test]
    fn readable_socket_is_reported_under_its_token() {
        let poller = Poller::new().expect("poller");
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let mut client = TcpStream::connect(addr).expect("connect");
        let (server, _) = listener.accept().expect("accept");
        server.set_nonblocking(true).expect("nonblocking");
        poller.register(server.as_raw_fd(), 7, Interest::READ).expect("register");

        let mut events = Vec::new();
        let woken = poller.wait(&mut events, Some(Duration::from_millis(100))).expect("wait");
        assert!(!woken && events.is_empty(), "no data yet");

        std::io::Write::write_all(&mut client, b"x").expect("write");
        poller.wait(&mut events, Some(Duration::from_secs(5))).expect("wait");
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].token, 7);
        assert!(events[0].readable);
        poller.deregister(server.as_raw_fd()).expect("deregister");
    }

    #[test]
    fn peer_close_sets_the_closed_flag() {
        let poller = Poller::new().expect("poller");
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let client = TcpStream::connect(addr).expect("connect");
        let (server, _) = listener.accept().expect("accept");
        server.set_nonblocking(true).expect("nonblocking");
        poller.register(server.as_raw_fd(), 3, Interest::READ).expect("register");
        drop(client);
        let mut events = Vec::new();
        poller.wait(&mut events, Some(Duration::from_secs(5))).expect("wait");
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].token, 3);
        assert!(events[0].closed, "hang-up must surface as closed");
    }

    #[test]
    fn write_interest_fires_only_when_armed() {
        let poller = Poller::new().expect("poller");
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let _client = TcpStream::connect(addr).expect("connect");
        let (server, _) = listener.accept().expect("accept");
        server.set_nonblocking(true).expect("nonblocking");
        poller.register(server.as_raw_fd(), 1, Interest::READ).expect("register");

        let mut events = Vec::new();
        poller.wait(&mut events, Some(Duration::from_millis(50))).expect("wait");
        assert!(events.is_empty(), "read-only interest on an idle writable socket stays quiet");

        poller.rearm(server.as_raw_fd(), 1, Interest::READ_WRITE).expect("rearm");
        poller.wait(&mut events, Some(Duration::from_secs(5))).expect("wait");
        assert!(events.iter().any(|e| e.token == 1 && e.writable));
    }
}
