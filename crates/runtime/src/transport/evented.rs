//! The master's side of the TCP transport: one reactor thread, every
//! worker socket.
//!
//! Workers dial with [`super::tcp::TcpWorker`] and speak length-prefixed
//! frames carrying [`WireMsg`]. The master side holds all connections
//! in a single epoll loop (`lss-reactor`), so a thousand workers cost a
//! thousand map entries, not a thousand parked threads.
//!
//! Structure: the reactor thread owns the listener and every
//! [`FramedConn`]; decoded messages flow out through an mpsc inbox, in
//! arrival order, and replies flow in through a mutex-guarded outbox
//! plus a [`Waker`] nudge. Every connection carries a deadline:
//! handshakes get 10 s, established connections get an idle deadline,
//! so a half-open socket is cut and reported as
//! [`Inbound::Disconnected`] instead of being trusted forever. The
//! reactor keeps accepting for the master's whole lifetime, so a worker
//! whose connection died can redial and re-handshake under the same
//! worker id.

use std::collections::HashMap;
use std::io::ErrorKind;
use std::net::TcpListener;
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use lss_reactor::{FramedConn, Interest, Poller, Readiness, Waker};

use super::tcp::{tcp_listen_on, TcpListenerHandle};
use super::{Inbound, MasterTransport, TransportError};
use crate::protocol::{Reply, WireMsg};

/// The listener's registration token; connections count up from 1.
const LISTENER_TOKEN: u64 = 0;

/// How long an established connection may stay completely silent
/// before it is declared half-open and dropped. Workers heartbeat
/// every 100 ms while computing (the harness default), so a healthy
/// link is never remotely close to this.
pub const DEFAULT_IDLE_DEADLINE: Duration = Duration::from_secs(30);

/// A connection that never completes its hello within this window is
/// dropped.
const HANDSHAKE_DEADLINE: Duration = Duration::from_secs(10);

/// Upper bound on one `epoll_wait`: the reactor wakes at least this
/// often to scan handshake/idle deadlines even when no fd stirs.
const SCAN_SLICE: Duration = Duration::from_millis(100);

/// State shared between the master handle and the reactor thread.
struct EvShared {
    /// Replies queued by `send`, drained by the reactor after a wake.
    outbox: Mutex<Vec<(usize, Vec<u8>)>>,
    /// Whether each worker currently has a live connection — the
    /// fail-fast check behind `send`.
    connected_now: Mutex<Vec<bool>>,
    /// Count of distinct worker ids seen at least once, plus the
    /// condvar `accept_workers` waits on for the initial complement.
    complement: Mutex<usize>,
    complement_cv: Condvar,
    /// Set by shutdown/Drop; the reactor exits on its next wake.
    shutdown: AtomicBool,
}

/// Master endpoint running on the epoll reactor.
pub struct EventedTcpMaster {
    inbox: Receiver<Inbound>,
    shared: Arc<EvShared>,
    waker: Waker,
    /// The reactor thread, joined on shutdown so "shutdown complete"
    /// means the event loop has actually exited.
    reactor: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl EventedTcpMaster {
    /// Gracefully shuts the endpoint down: the reactor is woken (no
    /// inbound connection required — this is what the waker is for),
    /// flushes every reply `send` queued before this call within
    /// [`lss_reactor::PARTING_FLUSH_BUDGET`], then closes every socket
    /// and exits; this call joins it. Subsequent `send`s fail with
    /// [`TransportError::Disconnected`]. Dropping the master does the
    /// same implicitly.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.waker.wake();
        let handle = self.reactor.lock().expect("reactor lock").take();
        if let Some(h) = handle {
            let _ = h.join();
        }
    }
}

impl Drop for EventedTcpMaster {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl MasterTransport for EventedTcpMaster {
    fn recv(&mut self) -> Result<Inbound, TransportError> {
        self.inbox
            .recv()
            .map_err(|_| TransportError::Disconnected("all workers disconnected".into()))
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<Option<Inbound>, TransportError> {
        match self.inbox.recv_timeout(timeout) {
            Ok(ev) => Ok(Some(ev)),
            Err(RecvTimeoutError::Timeout) => Ok(None),
            Err(RecvTimeoutError::Disconnected) => {
                Err(TransportError::Disconnected("all workers disconnected".into()))
            }
        }
    }

    fn send(&mut self, worker: usize, reply: Reply) -> Result<(), TransportError> {
        if self.shared.shutdown.load(Ordering::SeqCst) {
            return Err(TransportError::Disconnected("master shut down".into()));
        }
        {
            let connected = self.shared.connected_now.lock().expect("connected lock");
            if worker >= connected.len() {
                return Err(TransportError::UnknownWorker(worker));
            }
            if !connected[worker] {
                return Err(TransportError::Disconnected(format!(
                    "worker {worker} not connected"
                )));
            }
        }
        self.shared
            .outbox
            .lock()
            .expect("outbox lock")
            .push((worker, reply.encode()));
        self.waker.wake();
        Ok(())
    }
}

/// Starts listening on an ephemeral localhost port for an evented
/// master; workers dial the handle's `addr` with
/// [`super::tcp::TcpWorker`].
pub fn evented_listen() -> Result<TcpListenerHandle, TransportError> {
    tcp_listen_on("127.0.0.1", 0)
}

impl TcpListenerHandle {
    /// Builds the evented master and waits until all `p` workers have
    /// connected and handshaken. The reactor keeps accepting for the
    /// master's lifetime, so workers may redial mid-run.
    pub fn accept_workers(self, p: usize) -> Result<EventedTcpMaster, TransportError> {
        self.accept_workers_within(p, Duration::from_secs(30))
    }

    /// [`TcpListenerHandle::accept_workers`] with an explicit deadline
    /// for the initial full complement.
    pub fn accept_workers_within(
        self,
        p: usize,
        timeout: Duration,
    ) -> Result<EventedTcpMaster, TransportError> {
        self.accept_workers_configured(p, timeout, DEFAULT_IDLE_DEADLINE)
    }

    /// Full-knobs variant: `idle_deadline` bounds how long an
    /// established connection may stay silent before it is treated as
    /// half-open.
    pub fn accept_workers_configured(
        self,
        p: usize,
        timeout: Duration,
        idle_deadline: Duration,
    ) -> Result<EventedTcpMaster, TransportError> {
        assert!(p >= 1, "need at least one worker");
        let io = |e: std::io::Error| TransportError::Io(e.to_string());
        let listener = self.into_listener();
        listener.set_nonblocking(true).map_err(io)?;
        let poller = Poller::new().map_err(io)?;
        poller
            .register(listener.as_raw_fd(), LISTENER_TOKEN, Interest::READ)
            .map_err(io)?;
        let waker = poller.waker();
        let (tx, rx) = channel::<Inbound>();
        let shared = Arc::new(EvShared {
            outbox: Mutex::new(Vec::new()),
            connected_now: Mutex::new(vec![false; p]),
            complement: Mutex::new(0),
            complement_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        let reactor = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || {
                Reactor {
                    poller,
                    listener,
                    p,
                    idle_deadline,
                    tx,
                    shared,
                    conns: HashMap::new(),
                    worker_conn: vec![None; p],
                    ever_connected: vec![false; p],
                    next_token: LISTENER_TOKEN + 1,
                }
                .run()
            })
        };
        // Wait for the full complement.
        let deadline = Instant::now() + timeout;
        let mut complement = shared.complement.lock().expect("complement lock");
        while *complement < p {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                let msg = format!("only {complement}/{p} workers connected within {timeout:?}");
                drop(complement);
                shared.shutdown.store(true, Ordering::SeqCst);
                waker.wake();
                let _ = reactor.join();
                return Err(TransportError::Io(msg));
            }
            let (guard, _timed_out) = shared
                .complement_cv
                .wait_timeout(complement, left.min(Duration::from_millis(50)))
                .expect("condvar wait");
            complement = guard;
        }
        drop(complement);
        Ok(EventedTcpMaster { inbox: rx, shared, waker, reactor: Mutex::new(Some(reactor)) })
    }
}

/// Per-connection protocol state inside the reactor.
enum ConnState {
    /// Accepted, awaiting the hello request.
    Handshaking {
        /// When the connection was accepted.
        since: Instant,
    },
    /// Hello complete; frames belong to this worker id.
    Worker {
        /// The identified worker.
        id: usize,
    },
}

struct Conn {
    fc: FramedConn,
    state: ConnState,
    /// Whether write interest is currently armed (toggled only on
    /// change — epoll_ctl per loop would be pure overhead).
    armed_write: bool,
}

/// The reactor thread's whole world.
struct Reactor {
    poller: Poller,
    listener: TcpListener,
    p: usize,
    idle_deadline: Duration,
    tx: Sender<Inbound>,
    shared: Arc<EvShared>,
    conns: HashMap<u64, Conn>,
    /// Token of each worker's *current* connection. The token acts as
    /// a connection generation: a stale connection dying later no
    /// longer matches and stays silent.
    worker_conn: Vec<Option<u64>>,
    ever_connected: Vec<bool>,
    next_token: u64,
}

impl Reactor {
    fn run(mut self) {
        let mut events: Vec<Readiness> = Vec::new();
        loop {
            events.clear();
            if self.poller.wait(&mut events, Some(SCAN_SLICE)).is_err() {
                break;
            }
            if self.shared.shutdown.load(Ordering::SeqCst) {
                // The master queued its last replies (the `Finished`
                // each worker is owed) before shutting down, often in
                // the same wake: deliver them within the parting
                // budget, then tear down.
                self.drain_outbox();
                lss_reactor::parting_flush(self.conns.values_mut().map(|c| &mut c.fc));
                break;
            }
            for ev in std::mem::take(&mut events) {
                self.handle_event(ev);
            }
            self.drain_outbox();
            self.scan_deadlines();
        }
        // Teardown: dropping the map closes every socket; dropping `tx`
        // lets the master's inbox observe disconnection.
    }

    fn handle_event(&mut self, ev: Readiness) {
        if ev.token == LISTENER_TOKEN {
            self.accept_all();
            return;
        }
        let mut dead = false;
        let mut frames = Vec::new();
        if ev.readable || ev.closed {
            if let Some(conn) = self.conns.get_mut(&ev.token) {
                // Final frames ahead of an EOF are still extracted; the
                // error only marks the connection for closing after
                // they are processed.
                if conn.fc.on_readable(&mut frames).is_err() {
                    dead = true;
                }
            } else {
                return;
            }
        }
        for payload in frames {
            if !self.process_frame(ev.token, &payload) {
                dead = true;
                break;
            }
        }
        if dead || ev.closed {
            self.close_conn(ev.token);
            return;
        }
        if ev.writable {
            self.flush_conn(ev.token);
        }
    }

    /// Accepts until the backlog drains (level-triggered: leftover
    /// pending connections re-trigger the listener event anyway, but
    /// draining now saves wakeups).
    fn accept_all(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    let Ok(fc) = FramedConn::new(stream) else { continue };
                    let token = self.next_token;
                    self.next_token += 1;
                    if self
                        .poller
                        .register(fc.stream().as_raw_fd(), token, Interest::READ)
                        .is_err()
                    {
                        continue;
                    }
                    self.conns.insert(
                        token,
                        Conn {
                            fc,
                            state: ConnState::Handshaking { since: Instant::now() },
                            armed_write: false,
                        },
                    );
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
    }

    /// Dispatches one decoded frame. Returns `false` when the
    /// connection must be closed (malformed traffic, a bad hello, or
    /// the master side has gone away).
    fn process_frame(&mut self, token: u64, payload: &[u8]) -> bool {
        let Some(msg) = WireMsg::decode(payload) else {
            return false;
        };
        let state_id = match self.conns.get(&token) {
            Some(Conn { state: ConnState::Worker { id }, .. }) => Some(*id),
            Some(Conn { state: ConnState::Handshaking { .. }, .. }) => None,
            None => return false,
        };
        match (state_id, msg) {
            // The hello: first frame must be a request naming a valid
            // worker id.
            (None, WireMsg::Request(req)) => {
                if req.worker >= self.p {
                    return false;
                }
                let id = req.worker;
                if let Some(conn) = self.conns.get_mut(&token) {
                    conn.state = ConnState::Worker { id };
                }
                // A redial replaces the old connection; close it
                // quietly (its token no longer matches, so no stale
                // disconnect notice fires).
                if let Some(old) = self.worker_conn[id].replace(token) {
                    if old != token {
                        self.close_conn(old);
                    }
                }
                self.shared.connected_now.lock().expect("connected lock")[id] = true;
                if self.ever_connected[id] {
                    if self.tx.send(Inbound::Reconnected(id)).is_err() {
                        return false;
                    }
                } else {
                    self.ever_connected[id] = true;
                    let mut complement = self.shared.complement.lock().expect("complement lock");
                    *complement += 1;
                    self.shared.complement_cv.notify_all();
                }
                // Deliver the hello through the inbox like any request.
                self.tx.send(Inbound::Request(req)).is_ok()
            }
            (Some(_), WireMsg::Request(req)) => self.tx.send(Inbound::Request(req)).is_ok(),
            (Some(_), WireMsg::Heartbeat { worker }) => {
                self.tx.send(Inbound::Heartbeat { worker }).is_ok()
            }
            // Anything else before the hello is protocol abuse.
            (None, _) => false,
        }
    }

    /// Moves queued replies onto their connections and flushes.
    fn drain_outbox(&mut self) {
        let pending = std::mem::take(&mut *self.shared.outbox.lock().expect("outbox lock"));
        if pending.is_empty() {
            return;
        }
        let mut touched: Vec<u64> = Vec::new();
        for (worker, payload) in pending {
            let Some(token) = self.worker_conn.get(worker).copied().flatten() else {
                // Raced with a disconnect after `send`'s check: the
                // reply is lost exactly as bytes in a dead socket's
                // buffer would be; the lease layer re-grants the work.
                continue;
            };
            if let Some(conn) = self.conns.get_mut(&token) {
                if conn.fc.queue_frame(&payload).is_err() {
                    self.close_conn(token);
                    continue;
                }
                if !touched.contains(&token) {
                    touched.push(token);
                }
            }
        }
        for token in touched {
            self.flush_conn(token);
        }
    }

    /// Flushes a connection's queue and keeps write interest armed
    /// exactly while bytes remain.
    fn flush_conn(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else { return };
        match conn.fc.flush() {
            Ok(wants_write) => {
                if wants_write != conn.armed_write {
                    conn.armed_write = wants_write;
                    let interest = if wants_write { Interest::READ_WRITE } else { Interest::READ };
                    let _ = self.poller.rearm(conn.fc.stream().as_raw_fd(), token, interest);
                }
            }
            Err(_) => self.close_conn(token),
        }
    }

    /// Cuts connections that blew their handshake or idle deadline —
    /// the reactor's answer to half-open sockets: no thread is parked
    /// anywhere, so a scan and a close is the entire cleanup.
    fn scan_deadlines(&mut self) {
        let now = Instant::now();
        let mut doomed: Vec<u64> = Vec::new();
        for (token, conn) in &self.conns {
            let overdue = match conn.state {
                ConnState::Handshaking { since } => {
                    now.saturating_duration_since(since) >= HANDSHAKE_DEADLINE
                }
                ConnState::Worker { .. } => conn.fc.idle_for(now) >= self.idle_deadline,
            };
            if overdue {
                doomed.push(*token);
            }
        }
        for token in doomed {
            self.close_conn(token);
        }
    }

    /// Removes a connection; if it was some worker's current link, the
    /// master hears `Disconnected` (stale links die silently).
    fn close_conn(&mut self, token: u64) {
        let Some(conn) = self.conns.remove(&token) else { return };
        let _ = self.poller.deregister(conn.fc.stream().as_raw_fd());
        if let ConnState::Worker { id } = conn.state {
            if self.worker_conn[id] == Some(token) {
                self.worker_conn[id] = None;
                self.shared.connected_now.lock().expect("connected lock")[id] = false;
                let _ = self.tx.send(Inbound::Disconnected(id));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::Request;
    use crate::transport::frame::write_frame;
    use crate::transport::tcp::TcpWorker;
    use crate::transport::WorkerTransport;
    use lss_core::chunk::Chunk;
    use lss_core::master::Assignment;
    use std::net::TcpStream;

    fn next_request(m: &mut EventedTcpMaster) -> Request {
        loop {
            if let Inbound::Request(r) = m.recv().unwrap() {
                return r;
            }
        }
    }

    #[test]
    fn evented_roundtrip_two_workers() {
        let handle = evented_listen().unwrap();
        let addr = handle.addr;
        let workers: Vec<_> = (0..2)
            .map(|i| {
                std::thread::spawn(move || {
                    let mut w = TcpWorker::connect(
                        addr,
                        Request { worker: i, q: 1, result: None },
                    )
                    .unwrap();
                    let r1 = w.recv_reply().unwrap();
                    if let Assignment::Chunk(c) = r1.assignment {
                        let values = vec![9; c.len as usize];
                        w.send_request(Request {
                            worker: i,
                            q: 2,
                            result: Some(crate::protocol::ChunkResult::new(c, values)),
                        })
                        .unwrap();
                    }
                    let r2 = w.recv_reply().unwrap();
                    (r1, r2)
                })
            })
            .collect();

        let mut master = handle.accept_workers(2).unwrap();
        for k in 0..2 {
            let req = next_request(&mut master);
            assert!(req.result.is_none());
            master
                .send(
                    req.worker,
                    crate::protocol::Reply {
                        assignment: Assignment::Chunk(Chunk::new(k * 10, 3)),
                    },
                )
                .unwrap();
        }
        for _ in 0..2 {
            let req = next_request(&mut master);
            let res = req.result.expect("piggy-backed result");
            assert_eq!(res.values, vec![9, 9, 9]);
            master
                .send(req.worker, crate::protocol::Reply { assignment: Assignment::Finished })
                .unwrap();
        }
        for w in workers {
            let (r1, r2) = w.join().unwrap();
            assert!(matches!(r1.assignment, Assignment::Chunk(_)));
            assert_eq!(r2.assignment, Assignment::Finished);
        }
    }

    #[test]
    fn evented_worker_reconnects_under_same_id() {
        let handle = evented_listen().unwrap();
        let addr = handle.addr;
        let t = std::thread::spawn(move || {
            let mut w =
                TcpWorker::connect(addr, Request { worker: 0, q: 1, result: None }).unwrap();
            let r1 = w.recv_reply().unwrap();
            w.reconnect(&Request { worker: 0, q: 5, result: None }).unwrap();
            let r2 = w.recv_reply().unwrap();
            (r1, r2)
        });
        let mut master = handle.accept_workers(1).unwrap();
        let req = next_request(&mut master);
        assert_eq!(req.q, 1);
        master
            .send(0, crate::protocol::Reply { assignment: Assignment::Retry })
            .unwrap();
        let req2 = loop {
            match master.recv().unwrap() {
                Inbound::Request(r) => break r,
                Inbound::Disconnected(0) | Inbound::Reconnected(0) => {}
                other => panic!("unexpected {other:?}"),
            }
        };
        assert_eq!(req2.q, 5, "hello of the new connection");
        master
            .send(0, crate::protocol::Reply { assignment: Assignment::Finished })
            .unwrap();
        let (r1, r2) = t.join().unwrap();
        assert_eq!(r1.assignment, Assignment::Retry);
        assert_eq!(r2.assignment, Assignment::Finished);
    }

    #[test]
    fn evented_half_open_worker_is_disconnected() {
        // Handshake, then silence → typed Disconnected via the idle
        // deadline, and no thread anywhere is stuck (the reactor keeps
        // looping).
        let handle = evented_listen().unwrap();
        let addr = handle.addr;
        let silent = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            let hello = WireMsg::Request(Request { worker: 0, q: 1, result: None }).encode();
            write_frame(&mut s, &hello).unwrap();
            std::thread::sleep(Duration::from_secs(4));
            drop(s);
        });
        let mut master = handle
            .accept_workers_configured(1, Duration::from_secs(5), Duration::from_millis(300))
            .unwrap();
        let _ = next_request(&mut master);
        let t0 = Instant::now();
        loop {
            match master.recv_timeout(Duration::from_millis(100)).unwrap() {
                Some(Inbound::Disconnected(0)) => break,
                Some(other) => panic!("unexpected {other:?}"),
                None => assert!(
                    t0.elapsed() < Duration::from_secs(3),
                    "half-open connection survived the idle deadline"
                ),
            }
        }
        silent.join().unwrap();
    }

    #[test]
    fn evented_shutdown_completes_without_inbound_connections() {
        // The waker — not a connection — unblocks the reactor: a
        // drained master must shut down with zero inbound dials.
        let handle = evented_listen().unwrap();
        let addr = handle.addr;
        let t = std::thread::spawn(move || {
            let mut w =
                TcpWorker::connect(addr, Request { worker: 0, q: 1, result: None }).unwrap();
            w.recv_reply()
        });
        let mut master = handle.accept_workers(1).unwrap();
        let _ = next_request(&mut master);
        let t0 = Instant::now();
        master.shutdown();
        assert!(t0.elapsed() < Duration::from_secs(5), "shutdown waited for a connection");
        // The reactor is joined: its listener is closed, redials fail.
        assert!(TcpStream::connect(addr).is_err());
        let err = t.join().unwrap().unwrap_err();
        assert!(err.is_disconnect(), "{err:?}");
        assert!(master.send(0, crate::protocol::Reply { assignment: Assignment::Retry }).is_err());
    }

    #[test]
    fn evented_shutdown_delivers_queued_replies() {
        // The master's last word is a `Finished` sent right before it
        // shuts down; the reactor usually wakes once for both, and the
        // queued reply must reach the wire before the socket closes.
        for _ in 0..20 {
            let handle = evented_listen().unwrap();
            let addr = handle.addr;
            let t = std::thread::spawn(move || {
                let mut w =
                    TcpWorker::connect(addr, Request { worker: 0, q: 1, result: None }).unwrap();
                w.recv_reply()
            });
            let mut master = handle.accept_workers(1).unwrap();
            let _ = next_request(&mut master);
            master
                .send(0, crate::protocol::Reply { assignment: Assignment::Finished })
                .unwrap();
            master.shutdown();
            let reply = t.join().unwrap().expect("queued Finished lost at shutdown");
            assert_eq!(reply.assignment, Assignment::Finished);
        }
    }

    #[test]
    fn evented_send_to_never_connected_worker_fails_cleanly() {
        let handle = evented_listen().unwrap();
        let addr = handle.addr;
        let t = std::thread::spawn(move || {
            let mut w =
                TcpWorker::connect(addr, Request { worker: 0, q: 1, result: None }).unwrap();
            w.recv_reply().unwrap()
        });
        let mut master = handle.accept_workers(1).unwrap();
        let _ = next_request(&mut master);
        assert!(matches!(
            master.send(5, crate::protocol::Reply { assignment: Assignment::Retry }),
            Err(TransportError::UnknownWorker(5))
        ));
        master
            .send(0, crate::protocol::Reply { assignment: Assignment::Finished })
            .unwrap();
        t.join().unwrap();
    }

    #[test]
    fn evented_accept_timeout_with_zero_connections_returns() {
        let handle = evented_listen().unwrap();
        let addr = handle.addr;
        let t0 = Instant::now();
        match handle.accept_workers_within(1, Duration::from_millis(200)) {
            Err(TransportError::Io(_)) => {}
            Err(other) => panic!("expected accept timeout, got {other:?}"),
            Ok(_) => panic!("accept should have timed out"),
        }
        assert!(t0.elapsed() < Duration::from_secs(5));
        assert!(TcpStream::connect(addr).is_err(), "reactor still alive after timeout teardown");
    }

    #[test]
    fn bad_handshake_id_is_ignored_but_good_one_accepted() {
        let handle = evented_listen().unwrap();
        let addr = handle.addr;
        let bad = std::thread::spawn(move || {
            // Claims worker id 9 but only 1 slot exists: the reactor
            // drops the connection and keeps serving.
            let _ = TcpWorker::connect(addr, Request { worker: 9, q: 1, result: None });
        });
        let good = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            let mut w =
                TcpWorker::connect(addr, Request { worker: 0, q: 1, result: None }).unwrap();
            w.recv_reply().unwrap()
        });
        let mut master = handle.accept_workers(1).unwrap();
        let req = next_request(&mut master);
        assert_eq!(req.worker, 0);
        master.send(0, Reply { assignment: Assignment::Finished }).unwrap();
        assert_eq!(good.join().unwrap().assignment, Assignment::Finished);
        bad.join().unwrap();
    }

    #[test]
    fn heartbeats_flow_to_master() {
        let handle = evented_listen().unwrap();
        let addr = handle.addr;
        let t = std::thread::spawn(move || {
            let mut w =
                TcpWorker::connect(addr, Request { worker: 0, q: 1, result: None }).unwrap();
            w.send_heartbeat(0).unwrap();
            w.recv_reply().unwrap()
        });
        let mut master = handle.accept_workers(1).unwrap();
        let mut saw_heartbeat = false;
        loop {
            match master.recv().unwrap() {
                Inbound::Heartbeat { worker } => {
                    assert_eq!(worker, 0);
                    saw_heartbeat = true;
                }
                Inbound::Request(_) => {
                    master.send(0, Reply { assignment: Assignment::Finished }).unwrap();
                    if saw_heartbeat {
                        break;
                    }
                }
                _ => {}
            }
            if saw_heartbeat {
                break;
            }
        }
        t.join().unwrap();
        assert!(saw_heartbeat);
    }

    #[test]
    fn reply_timeout_preserves_partial_frames() {
        let handle = evented_listen().unwrap();
        let addr = handle.addr;
        let t = std::thread::spawn(move || {
            let mut w =
                TcpWorker::connect(addr, Request { worker: 0, q: 1, result: None }).unwrap();
            // Nothing sent yet: timed wait returns None.
            assert_eq!(w.recv_reply_timeout(Duration::from_millis(20)).unwrap(), None);
            // Then a real reply arrives.
            let r = w.recv_reply_timeout(Duration::from_secs(5)).unwrap();
            r.unwrap()
        });
        let mut master = handle.accept_workers(1).unwrap();
        let _ = next_request(&mut master);
        std::thread::sleep(Duration::from_millis(40));
        master.send(0, Reply { assignment: Assignment::Finished }).unwrap();
        assert_eq!(t.join().unwrap().assignment, Assignment::Finished);
    }

    #[test]
    fn explicit_shutdown_unblocks_workers() {
        let handle = evented_listen().unwrap();
        let addr = handle.addr;
        let t = std::thread::spawn(move || {
            let mut w =
                TcpWorker::connect(addr, Request { worker: 0, q: 1, result: None }).unwrap();
            // Blocks until the master shuts down; must observe a typed
            // disconnect, not hang.
            w.recv_reply()
        });
        let mut master = handle.accept_workers(1).unwrap();
        let _ = next_request(&mut master);
        master.shutdown();
        let err = t.join().unwrap().unwrap_err();
        assert!(err.is_disconnect(), "{err:?}");
        // Sends after shutdown fail fast.
        assert!(master.send(0, Reply { assignment: Assignment::Retry }).is_err());
    }

    #[test]
    fn accept_timeout_tears_down_partial_connections() {
        let handle = evented_listen().unwrap();
        let addr = handle.addr;
        // One of two workers connects; the accept deadline expires.
        let t = std::thread::spawn(move || {
            let mut w =
                TcpWorker::connect(addr, Request { worker: 0, q: 1, result: None }).unwrap();
            w.recv_reply()
        });
        match handle.accept_workers_within(2, Duration::from_millis(200)) {
            Err(TransportError::Io(_)) => {}
            Err(other) => panic!("unexpected error {other:?}"),
            Ok(_) => panic!("accept should have timed out"),
        }
        // The teardown closed the connected worker's socket, so its
        // blocked read observes EOF instead of parking forever.
        assert!(t.join().unwrap().is_err());
    }
}
