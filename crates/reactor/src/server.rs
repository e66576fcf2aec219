//! One framed-connection server: the connection work every front end
//! shares, with the protocol left to a [`Handler`].
//!
//! A [`FrameServer`] owns the [`Poller`], an optional listener and
//! every accepted [`Conn`]. One [`FrameServer::turn`] waits for
//! readiness, accepts until the backlog drains, reads frames (those
//! sent ahead of an EOF are handed over before the close), flushes
//! queued replies with `EPOLLOUT` armed only while bytes remain, closes
//! a parting connection once its farewell drains, and cuts connections
//! past their handshake or idle deadline. What a frame means, which
//! hello is valid and what a lost peer implies stay with the handler.

use std::collections::HashMap;
use std::io::{self, ErrorKind};
use std::net::TcpListener;
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

use crate::{parting_flush, ConnError, FramedConn, Interest, Poller, Readiness, Waker};

/// The listener's registration token; connections count up from 1.
const LISTENER_TOKEN: u64 = 0;

/// A connection that never completes its hello within this window is
/// cut.
pub const HANDSHAKE_DEADLINE: Duration = Duration::from_secs(10);

/// Upper bound on one `epoll_wait`, and the cadence of deadline scans:
/// a turn never sleeps past the next scan even when no fd stirs.
pub const SCAN_SLICE: Duration = Duration::from_millis(100);

/// The protocol running on a [`FrameServer`]; `S` is what a peer's
/// hello established about it.
pub trait Handler<S> {
    /// One complete frame arrived on `conn`. Replies are queued on
    /// `conn` and flushed once the event's frames are handled. Returns
    /// `false` to close the connection at once.
    fn on_frame(&mut self, conn: &mut Conn<S>, payload: &[u8]) -> bool;

    /// A connection whose peer said hello is gone (EOF, reset, a hard
    /// close or a deadline) without parting.
    fn on_close(&mut self, token: u64, peer: S);
}

/// One accepted connection and what the server tracks about it.
pub struct Conn<S> {
    token: u64,
    fc: FramedConn,
    peer: Option<S>,
    accepted: Instant,
    /// Whether write interest is armed (toggled only on change: an
    /// `epoll_ctl` per turn would be pure overhead).
    armed_write: bool,
    parting: bool,
}

impl<S> Conn<S> {
    /// The connection's token, unique for the server's lifetime.
    pub fn token(&self) -> u64 {
        self.token
    }

    /// What the peer's hello established; `None` until then.
    pub fn peer(&self) -> Option<&S> {
        self.peer.as_ref()
    }

    /// Records the hello: the connection now answers to the idle
    /// deadline instead of the handshake deadline, and its loss is
    /// reported through [`Handler::on_close`].
    pub fn set_peer(&mut self, peer: S) {
        self.peer = Some(peer);
    }

    /// Queues one frame for writing.
    pub fn queue(&mut self, payload: &[u8]) -> Result<(), ConnError> {
        self.fc.queue_frame(payload)
    }

    /// Closes the connection once its queued bytes (a farewell) have
    /// drained. A parting connection is never reported closed, and
    /// frames that reach it after the farewell are dropped.
    pub fn part(&mut self) {
        self.parting = true;
    }
}

/// The server: a poller, an optional listener and the token →
/// connection map.
pub struct FrameServer<S> {
    poller: Poller,
    listener: Option<TcpListener>,
    conns: HashMap<u64, Conn<S>>,
    next_token: u64,
    idle_deadline: Duration,
    next_scan: Instant,
    /// Reused across turns so a turn allocates nothing of its own.
    events: Vec<Readiness>,
    frames: Vec<Vec<u8>>,
}

impl<S> FrameServer<S> {
    /// A server around `listener` (none: only the waker can stir it).
    /// A connection that said hello and then stays silent for
    /// `idle_deadline` is cut as half-open.
    pub fn new(listener: Option<TcpListener>, idle_deadline: Duration) -> io::Result<Self> {
        let poller = Poller::new()?;
        if let Some(listener) = &listener {
            listener.set_nonblocking(true)?;
            poller.register(listener.as_raw_fd(), LISTENER_TOKEN, Interest::READ)?;
        }
        Ok(FrameServer {
            poller,
            listener,
            conns: HashMap::new(),
            next_token: LISTENER_TOKEN + 1,
            idle_deadline,
            next_scan: Instant::now() + SCAN_SLICE,
            events: Vec::new(),
            frames: Vec::new(),
        })
    }

    /// A handle other threads use to cut a [`FrameServer::turn`] short.
    pub fn waker(&self) -> Waker {
        self.poller.waker()
    }

    /// Whether the server still accepts connections.
    pub fn is_listening(&self) -> bool {
        self.listener.is_some()
    }

    /// Waits at most `timeout` for readiness, handles every event
    /// through `handler`, then cuts connections past their deadline
    /// when a scan is due.
    pub fn turn<H: Handler<S>>(&mut self, handler: &mut H, timeout: Duration) -> io::Result<()> {
        let until_scan = self.next_scan.saturating_duration_since(Instant::now());
        let mut events = std::mem::take(&mut self.events);
        let waited = self.poller.wait(&mut events, Some(timeout.min(until_scan)));
        for ev in events.drain(..) {
            if ev.token == LISTENER_TOKEN {
                self.accept_all();
            } else {
                self.ready(ev, handler);
            }
        }
        self.events = events;
        let now = Instant::now();
        if now >= self.next_scan {
            self.expire(now, handler);
            self.next_scan = now + SCAN_SLICE;
        }
        waited.map(drop)
    }

    /// Queues `payload` on connection `token` and flushes it without
    /// blocking: what the socket will not take now waits for
    /// `EPOLLOUT`. A connection that fails here is closed.
    pub fn send<H: Handler<S>>(&mut self, token: u64, payload: &[u8], handler: &mut H) {
        let Some(conn) = self.conns.get_mut(&token) else { return };
        if conn.queue(payload).is_err() || !settle(&self.poller, conn) {
            self.close(token, handler);
        }
    }

    /// Removes a connection. Unless it was parting, a peer that said
    /// hello is reported through [`Handler::on_close`].
    pub fn close<H: Handler<S>>(&mut self, token: u64, handler: &mut H) {
        let Some(conn) = self.conns.remove(&token) else { return };
        let _ = self.poller.deregister(conn.fc.stream().as_raw_fd());
        if let (false, Some(peer)) = (conn.parting, conn.peer) {
            handler.on_close(token, peer);
        }
    }

    /// Stops accepting, delivers every queued byte within
    /// [`crate::PARTING_FLUSH_BUDGET`], and drops every connection
    /// without reporting it: the server is the one leaving.
    pub fn shutdown(&mut self) {
        self.listener = None;
        parting_flush(self.conns.values_mut().map(|c| &mut c.fc));
        self.conns.clear();
    }

    /// Accepts until the backlog drains.
    fn accept_all(&mut self) {
        let Some(listener) = &self.listener else { return };
        loop {
            match listener.accept() {
                Ok((stream, _)) => {
                    let Ok(fc) = FramedConn::new(stream) else { continue };
                    let token = self.next_token;
                    self.next_token += 1;
                    if self.poller.register(fc.stream().as_raw_fd(), token, Interest::READ).is_err()
                    {
                        continue;
                    }
                    let conn = Conn {
                        token,
                        fc,
                        peer: None,
                        accepted: Instant::now(),
                        armed_write: false,
                        parting: false,
                    };
                    self.conns.insert(token, conn);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
    }

    /// Handles one connection's readiness: frames to the handler (the
    /// ones ahead of an EOF first), then a flush or the close.
    fn ready<H: Handler<S>>(&mut self, ev: Readiness, handler: &mut H) {
        let Some(conn) = self.conns.get_mut(&ev.token) else { return };
        let mut done = ev.closed;
        if ev.readable || ev.closed {
            done |= conn.fc.on_readable(&mut self.frames).is_err();
            for payload in self.frames.drain(..) {
                if conn.parting {
                    break;
                }
                if !handler.on_frame(conn, &payload) {
                    done = true;
                    break;
                }
            }
        }
        if done || !settle(&self.poller, conn) {
            self.close(ev.token, handler);
        }
    }

    /// Cuts connections past their handshake or idle deadline: no
    /// thread is parked anywhere, so a scan and a close is the whole
    /// answer to a half-open socket.
    fn expire<H: Handler<S>>(&mut self, now: Instant, handler: &mut H) {
        let idle = self.idle_deadline;
        let overdue: Vec<u64> = self
            .conns
            .values()
            .filter(|c| match c.peer {
                None => now.saturating_duration_since(c.accepted) >= HANDSHAKE_DEADLINE,
                Some(_) => c.fc.idle_for(now) >= idle,
            })
            .map(|c| c.token)
            .collect();
        for token in overdue {
            self.close(token, handler);
        }
    }
}

/// Flushes `conn`, keeping write interest armed exactly while bytes
/// remain. `false` once the connection is done: its flush failed, or
/// its farewell has drained.
fn settle<S>(poller: &Poller, conn: &mut Conn<S>) -> bool {
    match conn.fc.flush() {
        Ok(wants_write) if conn.parting && !wants_write => false,
        Ok(wants_write) => {
            if wants_write != conn.armed_write {
                conn.armed_write = wants_write;
                let interest = if wants_write { Interest::READ_WRITE } else { Interest::READ };
                let _ = poller.rearm(conn.fc.stream().as_raw_fd(), conn.token, interest);
            }
            true
        }
        Err(_) => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{SocketAddr, TcpStream};

    /// Records what the server hands over, in order. The first frame is
    /// the hello; a frame `b"part"` is answered with `b"bye"` and a
    /// parting close.
    #[derive(Default)]
    struct Recorder {
        log: Vec<String>,
    }

    impl Handler<()> for Recorder {
        fn on_frame(&mut self, conn: &mut Conn<()>, payload: &[u8]) -> bool {
            self.log.push(String::from_utf8_lossy(payload).into_owned());
            conn.set_peer(());
            if payload == b"part" {
                conn.part();
                return conn.queue(b"bye").is_ok();
            }
            true
        }

        fn on_close(&mut self, token: u64, (): ()) {
            self.log.push(format!("closed {token}"));
        }
    }

    fn server(idle: Duration) -> (FrameServer<()>, SocketAddr) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        (FrameServer::new(Some(listener), idle).expect("server"), addr)
    }

    fn frame(payload: &[u8]) -> Vec<u8> {
        let mut wire = (payload.len() as u32).to_be_bytes().to_vec();
        wire.extend_from_slice(payload);
        wire
    }

    /// Turns until `done` holds, failing after 5 s.
    fn turn_until(
        server: &mut FrameServer<()>,
        rec: &mut Recorder,
        mut done: impl FnMut(&FrameServer<()>, &Recorder) -> bool,
    ) {
        let t0 = Instant::now();
        while !done(server, rec) {
            assert!(t0.elapsed() < Duration::from_secs(5), "stalled; log {:?}", rec.log);
            server.turn(rec, Duration::from_millis(10)).expect("turn");
        }
    }

    #[test]
    fn frames_ahead_of_an_eof_come_before_the_close() {
        let (mut server, addr) = server(Duration::from_secs(30));
        let mut peer = TcpStream::connect(addr).expect("connect");
        let mut wire = frame(b"hello");
        wire.extend(frame(b"last words"));
        peer.write_all(&wire).expect("write");
        drop(peer);
        let mut rec = Recorder::default();
        turn_until(&mut server, &mut rec, |s, _| s.conns.is_empty() && s.next_token > 1);
        assert_eq!(rec.log, ["hello", "last words", "closed 1"]);
    }

    #[test]
    fn a_parting_connection_closes_once_its_farewell_drains_and_is_never_reported() {
        let (mut server, addr) = server(Duration::from_secs(30));
        let mut peer = TcpStream::connect(addr).expect("connect");
        let mut wire = frame(b"part");
        wire.extend(frame(b"after the farewell"));
        peer.write_all(&wire).expect("write");
        let mut rec = Recorder::default();
        turn_until(&mut server, &mut rec, |s, r| !r.log.is_empty() && s.conns.is_empty());
        let mut got = Vec::new();
        peer.read_to_end(&mut got).expect("read to EOF");
        assert_eq!(got, frame(b"bye"), "the farewell reaches the wire before the close");
        assert_eq!(rec.log, ["part"], "nothing is read after a farewell, nor reported lost");
    }

    #[test]
    fn the_handshake_deadline_cuts_a_silent_connection() {
        let (mut server, addr) = server(Duration::from_secs(30));
        let mut silent = TcpStream::connect(addr).expect("connect");
        let mut greeted = TcpStream::connect(addr).expect("connect");
        greeted.write_all(&frame(b"hello")).expect("write");
        let mut rec = Recorder::default();
        turn_until(&mut server, &mut rec, |s, _| {
            s.conns.len() == 2 && s.conns.values().any(|c| c.peer.is_some())
        });
        // Ten seconds on, only the connection that never said hello is
        // overdue: the greeted one answers to the 30 s idle deadline.
        server.expire(Instant::now() + HANDSHAKE_DEADLINE, &mut rec);
        assert_eq!(server.conns.len(), 1);
        assert!(server.conns.values().all(|c| c.peer.is_some()));
        let mut buf = [0u8; 1];
        assert_eq!(silent.read(&mut buf).expect("EOF"), 0, "the silent socket was closed");
        assert_eq!(rec.log, ["hello"], "a peer that never said hello is not reported");
        greeted.write_all(&frame(b"still here")).expect("write");
    }

    #[test]
    fn the_idle_deadline_cuts_a_silent_peer() {
        let (mut server, addr) = server(Duration::from_millis(200));
        let mut peer = TcpStream::connect(addr).expect("connect");
        peer.write_all(&frame(b"hello")).expect("write");
        let t0 = Instant::now();
        let mut rec = Recorder::default();
        turn_until(&mut server, &mut rec, |_, r| r.log.len() == 2);
        assert!(t0.elapsed() >= Duration::from_millis(200), "cut before its deadline");
        assert_eq!(rec.log, ["hello", "closed 1"]);
        let mut buf = [0u8; 1];
        assert_eq!(peer.read(&mut buf).expect("EOF"), 0);
    }

    #[test]
    fn a_peer_that_stops_reading_does_not_block_send() {
        // Enough 1 MiB frames to overrun the kernel's socket buffers,
        // however large they are tuned, up to 256 MiB.
        const MAX_FRAMES: usize = 256;
        const SIZE: usize = 1 << 20;
        let (mut server, addr) = server(Duration::from_secs(30));
        let mut peer = TcpStream::connect(addr).expect("connect");
        peer.write_all(&frame(b"hello")).expect("write");
        let mut rec = Recorder::default();
        turn_until(&mut server, &mut rec, |_, r| !r.log.is_empty());
        let token = *server.conns.keys().next().expect("one connection");

        let mut frames = 0;
        while !server.conns[&token].armed_write {
            assert!(frames < MAX_FRAMES, "{MAX_FRAMES} MiB left no bytes waiting for EPOLLOUT");
            let t0 = Instant::now();
            server.send(token, &vec![frames as u8; SIZE], &mut rec);
            assert!(t0.elapsed() < Duration::from_millis(500), "send waited for the reader");
            frames += 1;
        }

        // Only now does the peer read; the server's turns drain the rest.
        let reader = std::thread::spawn(move || {
            let mut got = vec![0u8; frames * (4 + SIZE)];
            peer.read_exact(&mut got).expect("every byte arrives");
            (got, peer)
        });
        turn_until(&mut server, &mut rec, |_, _| reader.is_finished());
        let (got, _peer) = reader.join().expect("reader");
        for (k, wire) in got.chunks(4 + SIZE).enumerate() {
            assert_eq!(wire[..4], (SIZE as u32).to_be_bytes());
            assert!(wire[4..].iter().all(|&b| b == k as u8), "frame {k} corrupted");
        }
        assert!(!server.conns[&token].armed_write, "write interest disarmed once drained");
        assert_eq!(rec.log, ["hello"]);
    }
}
