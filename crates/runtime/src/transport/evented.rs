//! The master's side of the TCP transport: every worker socket, polled
//! on the master's own thread.
//!
//! Workers dial with [`super::tcp::TcpWorker`] and speak length-prefixed
//! frames carrying [`WireMsg`]. The master side is a protocol handler on
//! `lss-reactor`'s [`FrameServer`]: one epoll set holds the listener and
//! every connection, so a thousand workers cost a thousand map entries,
//! not a thousand parked threads — and no thread beyond the caller's.
//! [`MasterTransport::recv_timeout`] polls the sockets, decodes frames
//! into an arrival-ordered queue of [`Inbound`]s and expires deadlines;
//! [`MasterTransport::send`] queues a reply on the worker's current
//! connection and flushes it without blocking, leaving what the socket
//! will not take for a later poll.
//!
//! Every connection carries a deadline: handshakes get
//! [`lss_reactor::HANDSHAKE_DEADLINE`], established connections an idle
//! deadline, so a half-open socket is cut and reported as
//! [`Inbound::Disconnected`] instead of being trusted forever. The
//! listener stays open for the master's whole lifetime, so a worker
//! whose connection died can redial and re-handshake under the same
//! worker id.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use lss_reactor::{Conn, FrameServer, Handler, SCAN_SLICE};

use super::tcp::{tcp_listen_on, TcpListenerHandle};
use super::{Inbound, MasterTransport, TransportError};
use crate::protocol::{Reply, WireMsg};

/// How long an established connection may stay completely silent
/// before it is declared half-open and dropped. Workers heartbeat
/// every 100 ms while computing (the harness default), so a healthy
/// link is never remotely close to this.
pub const DEFAULT_IDLE_DEADLINE: Duration = Duration::from_secs(30);

/// Master endpoint: the worker protocol on a [`FrameServer`], driven by
/// whichever thread calls `recv`/`send`.
pub struct EventedTcpMaster {
    /// Listens for the master's whole lifetime: once it stops, the
    /// endpoint is shut down.
    server: FrameServer<usize>,
    workers: Workers,
}

impl EventedTcpMaster {
    /// Gracefully shuts the endpoint down: stops accepting, flushes
    /// every reply `send` queued before this call within
    /// [`lss_reactor::PARTING_FLUSH_BUDGET`], then closes every socket.
    /// Subsequent `send`s fail with [`TransportError::Disconnected`],
    /// and receives do once the events already decoded are consumed.
    /// Dropping the master does the same implicitly.
    pub fn shutdown(&mut self) {
        self.server.shutdown();
    }

    /// One poll of the sockets, then the quiet close of every
    /// connection a redial replaced.
    fn pump(&mut self, timeout: Duration) -> Result<(), TransportError> {
        self.server
            .turn(&mut self.workers, timeout)
            .map_err(|e| TransportError::Io(e.to_string()))?;
        while let Some(old) = self.workers.replaced.pop() {
            self.server.close(old, &mut self.workers);
        }
        Ok(())
    }
}

impl Drop for EventedTcpMaster {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl MasterTransport for EventedTcpMaster {
    fn recv(&mut self) -> Result<Inbound, TransportError> {
        loop {
            if let Some(ev) = self.recv_timeout(SCAN_SLICE)? {
                return Ok(ev);
            }
        }
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<Option<Inbound>, TransportError> {
        let deadline = Instant::now() + timeout;
        while self.workers.inbox.is_empty() {
            if !self.server.is_listening() {
                return Err(TransportError::Disconnected("all workers disconnected".into()));
            }
            self.pump(deadline.saturating_duration_since(Instant::now()))?;
            if Instant::now() >= deadline {
                break;
            }
        }
        Ok(self.workers.inbox.pop_front())
    }

    fn send(&mut self, worker: usize, reply: Reply) -> Result<(), TransportError> {
        if !self.server.is_listening() {
            return Err(TransportError::Disconnected("master shut down".into()));
        }
        let Some(&current) = self.workers.current.get(worker) else {
            return Err(TransportError::UnknownWorker(worker));
        };
        let Some(token) = current else {
            return Err(TransportError::Disconnected(format!("worker {worker} not connected")));
        };
        self.server.send(token, &reply.encode(), &mut self.workers);
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
    /// connected and handshaken. The listener stays open for the
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
    ///
    /// Polls until `p` distinct workers have said hello. Their hellos
    /// stay queued, in arrival order, for the master's first receives.
    pub fn accept_workers_configured(
        self,
        p: usize,
        timeout: Duration,
        idle_deadline: Duration,
    ) -> Result<EventedTcpMaster, TransportError> {
        assert!(p >= 1, "need at least one worker");
        let server = FrameServer::new(Some(self.into_listener()), idle_deadline)
            .map_err(|e| TransportError::Io(e.to_string()))?;
        let mut master = EventedTcpMaster { server, workers: Workers::new(p) };
        let deadline = Instant::now() + timeout;
        while master.workers.greeted < p {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                let greeted = master.workers.greeted;
                return Err(TransportError::Io(format!(
                    "only {greeted}/{p} workers connected within {timeout:?}"
                )));
            }
            master.pump(left)?;
        }
        Ok(master)
    }
}

/// The worker protocol on the server: hello validation, worker identity
/// across redials, and the arrival-ordered inbox.
struct Workers {
    inbox: VecDeque<Inbound>,
    /// Token of each worker's *current* connection. The token acts as a
    /// connection generation: a stale connection dying later no longer
    /// matches and stays silent.
    current: Vec<Option<u64>>,
    /// Whether each worker has said hello at least once.
    ever_greeted: Vec<bool>,
    /// How many workers have — the complement `accept_workers` awaits.
    greeted: usize,
    /// Connections a redial replaced, closed quietly after the poll.
    replaced: Vec<u64>,
}

impl Workers {
    fn new(p: usize) -> Self {
        Workers {
            inbox: VecDeque::new(),
            current: vec![None; p],
            ever_greeted: vec![false; p],
            greeted: 0,
            replaced: Vec::new(),
        }
    }
}

impl Handler<usize> for Workers {
    /// Decodes one frame into the inbox; `false` closes the connection
    /// (malformed traffic, a bad hello, or a connection a redial
    /// replaced).
    fn on_frame(&mut self, conn: &mut Conn<usize>, payload: &[u8]) -> bool {
        let Some(msg) = WireMsg::decode(payload) else {
            return false;
        };
        let token = conn.token();
        match (conn.peer().copied(), msg) {
            (Some(id), _) if self.current[id] != Some(token) => return false,
            (Some(_), WireMsg::Request(req)) => self.inbox.push_back(Inbound::Request(req)),
            (Some(_), WireMsg::Heartbeat { worker }) => {
                self.inbox.push_back(Inbound::Heartbeat { worker })
            }
            // The hello: the first frame must be a request naming a
            // valid worker id. It is delivered like any request.
            (None, WireMsg::Request(req)) if req.worker < self.current.len() => {
                let id = req.worker;
                conn.set_peer(id);
                if let Some(old) = self.current[id].replace(token) {
                    self.replaced.push(old);
                }
                if self.ever_greeted[id] {
                    self.inbox.push_back(Inbound::Reconnected(id));
                } else {
                    self.ever_greeted[id] = true;
                    self.greeted += 1;
                }
                self.inbox.push_back(Inbound::Request(req));
            }
            // Anything else before the hello is protocol abuse.
            (None, _) => return false,
        }
        true
    }

    /// The master hears `Disconnected` only for a worker's current
    /// link; stale links die silently.
    fn on_close(&mut self, token: u64, id: usize) {
        if self.current[id] == Some(token) {
            self.current[id] = None;
            self.inbox.push_back(Inbound::Disconnected(id));
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
        // deadline, and no thread anywhere is stuck (the master's own
        // polls keep expiring deadlines).
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
        // Shutdown waits for no inbound connection: a drained master
        // must shut down with zero inbound dials.
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
        // The listener is closed, so redials fail.
        assert!(TcpStream::connect(addr).is_err());
        let err = t.join().unwrap().unwrap_err();
        assert!(err.is_disconnect(), "{err:?}");
        assert!(master.send(0, crate::protocol::Reply { assignment: Assignment::Retry }).is_err());
    }

    #[test]
    fn evented_shutdown_delivers_queued_replies() {
        // The master's last word is a `Finished` sent right before it
        // shuts down, and the queued reply must reach the wire before
        // the socket closes.
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
            // Claims worker id 9 but only 1 slot exists: the master
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
