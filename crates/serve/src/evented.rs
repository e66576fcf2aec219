//! The serve daemon's TCP front end.
//!
//! One reactor thread owns the listener and every peer connection in
//! a single epoll loop (`lss-reactor`). Decoded frames flow into the
//! service's [`Event`] channel, the same one in-process links use, and
//! replies come back through a mutex-guarded [`EvOutbox`] keyed by
//! connection token, with a [`Waker`] nudge so the reactor picks them
//! up immediately.
//!
//! Protocol per connection: the first frame must be a hello (worker or
//! client) —
//! anything else, including a legacy unversioned frame, earns a typed
//! `Rejected` and a parting close. After the handshake, heartbeats
//! post without a reply and every other frame is a request; a
//! `Shutdown` reply closes the connection once it reaches the wire; a
//! worker connection dying by any other route raises
//! [`Event::WorkerGone`] so its leased chunks requeue.
//!
//! Half-open peers cost a map entry, not a parked thread: every
//! connection carries a deadline — 10 s to complete the handshake,
//! then [`crate::ServeConfig::idle_deadline`] of allowed silence — and
//! the reactor sweeps for violators on every scan slice.

use std::collections::HashMap;
use std::io::ErrorKind;
use std::net::TcpListener;
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use lss_reactor::{FramedConn, Interest, Poller, Readiness, Waker};
use lss_runtime::protocol::serve::ServeFrame;
use lss_runtime::transport::TransportError;

use crate::service::{Event, ReplyTo};

/// The listener's registration token; connections count up from 1.
const LISTENER_TOKEN: u64 = 0;

/// A connection that never completes its hello within this window is
/// dropped (same budget as the runtime transport's handshake read).
const HANDSHAKE_DEADLINE: Duration = Duration::from_secs(10);

/// Upper bound on one `epoll_wait`: the reactor wakes at least this
/// often to scan deadlines even when no fd stirs.
const SCAN_SLICE: Duration = Duration::from_millis(100);

/// Reply queue shared between the service thread and the reactor.
/// [`ReplyTo::Evented`] pushes here; the reactor drains after every
/// wake and moves the frames onto their connections.
pub(crate) struct EvOutbox {
    queue: Mutex<Vec<(u64, ServeFrame)>>,
    waker: Waker,
}

impl EvOutbox {
    /// Queues `frame` for the connection registered under `token` and
    /// wakes the reactor. Fire-and-forget: if the connection died in
    /// the meantime the frame is dropped, exactly as bytes buffered in
    /// a dead socket would be.
    pub(crate) fn reply(&self, token: u64, frame: ServeFrame) {
        self.queue.lock().expect("outbox lock").push((token, frame));
        self.waker.wake();
    }
}

/// The running reactor, as the service assembly code sees it.
pub(crate) struct EventedFrontEnd {
    /// Wakes the reactor (stop notification, reply pickup).
    pub(crate) waker: Waker,
    /// The reactor thread, joined for provable shutdown.
    pub(crate) thread: std::thread::JoinHandle<()>,
}

/// Spins up the reactor around an already-bound listener. `stop` is
/// polled after every wake; flag it and wake to tear the reactor down
/// (queued farewells are flushed first).
pub(crate) fn start(
    listener: TcpListener,
    tx: Sender<Event>,
    stop: Arc<AtomicBool>,
    idle_deadline: Duration,
) -> Result<EventedFrontEnd, TransportError> {
    let io = |e: std::io::Error| TransportError::Io(e.to_string());
    listener.set_nonblocking(true).map_err(io)?;
    let poller = Poller::new().map_err(io)?;
    poller.register(listener.as_raw_fd(), LISTENER_TOKEN, Interest::READ).map_err(io)?;
    let waker = poller.waker();
    let outbox = Arc::new(EvOutbox { queue: Mutex::new(Vec::new()), waker: waker.clone() });
    let thread = std::thread::spawn(move || {
        Reactor {
            poller,
            listener,
            tx,
            outbox,
            stop,
            idle_deadline,
            conns: HashMap::new(),
            next_token: LISTENER_TOKEN + 1,
        }
        .run()
    });
    Ok(EventedFrontEnd { waker, thread })
}

/// What a connection has told us about itself.
enum PeerState {
    /// Accepted, awaiting the hello frame.
    PreHello {
        /// When the connection was accepted.
        since: Instant,
    },
    /// `HelloWorker { worker }` seen; EOF now raises `WorkerGone`.
    Worker {
        /// The claimed worker id (validated by the service, not here —
        /// a bogus id gets a typed `Rejected` reply like any request).
        id: usize,
    },
    /// `HelloClient` seen.
    Client,
}

struct SConn {
    fc: FramedConn,
    state: PeerState,
    /// Whether write interest is currently armed (toggled only on
    /// change — an `epoll_ctl` per loop would be pure overhead).
    armed_write: bool,
    /// Close once the write queue drains: a farewell (`Shutdown` or a
    /// handshake rejection) has been queued. A parting connection never
    /// raises `WorkerGone`.
    parting: bool,
}

/// The reactor thread's whole world.
struct Reactor {
    poller: Poller,
    listener: TcpListener,
    tx: Sender<Event>,
    outbox: Arc<EvOutbox>,
    stop: Arc<AtomicBool>,
    idle_deadline: Duration,
    conns: HashMap<u64, SConn>,
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
            if self.stop.load(Ordering::SeqCst) {
                // The service exited after queueing its farewells (the
                // `Shutdown` each worker was promised): deliver them
                // within the parting budget, then tear down.
                self.drain_outbox();
                lss_reactor::parting_flush(self.conns.values_mut().map(|c| &mut c.fc));
                return;
            }
            for ev in std::mem::take(&mut events) {
                self.handle_event(ev);
            }
            self.drain_outbox();
            self.scan_deadlines();
        }
    }

    fn handle_event(&mut self, ev: Readiness) {
        if ev.token == LISTENER_TOKEN {
            self.accept_all();
            return;
        }
        let mut dead = false;
        let mut frames = Vec::new();
        if ev.readable || ev.closed {
            match self.conns.get_mut(&ev.token) {
                // Final frames ahead of an EOF are still extracted; the
                // error only marks the connection for closing after
                // they are processed.
                Some(conn) => {
                    if conn.fc.on_readable(&mut frames).is_err() {
                        dead = true;
                    }
                }
                None => return,
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

    /// Accepts until the backlog drains.
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
                        SConn {
                            fc,
                            state: PeerState::PreHello { since: Instant::now() },
                            armed_write: false,
                            parting: false,
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
    /// connection must be closed hard (mid-stream garbage, which raises
    /// `WorkerGone` for a worker connection).
    fn process_frame(&mut self, token: u64, payload: &[u8]) -> bool {
        let handshaking = match self.conns.get(&token) {
            Some(SConn { state: PeerState::PreHello { .. }, .. }) => true,
            Some(_) => false,
            None => return false,
        };
        if handshaking {
            match ServeFrame::decode(payload) {
                Ok(f @ (ServeFrame::HelloWorker { .. } | ServeFrame::HelloClient)) => {
                    let state = match &f {
                        ServeFrame::HelloWorker { worker, .. } => PeerState::Worker { id: *worker },
                        _ => PeerState::Client,
                    };
                    if let Some(conn) = self.conns.get_mut(&token) {
                        conn.state = state;
                    }
                    self.forward(token, f)
                }
                Ok(_) => {
                    self.part_with(
                        token,
                        ServeFrame::Rejected { reason: "handshake required".into() },
                    );
                    true
                }
                // A legacy (unversioned) or mis-versioned peer gets a
                // typed refusal it can surface, never a silent drop.
                Err(e) => {
                    self.part_with(token, ServeFrame::Rejected { reason: e.to_string() });
                    true
                }
            }
        } else {
            match ServeFrame::decode(payload) {
                Ok(f @ ServeFrame::Heartbeat { .. }) => {
                    let _ = self.tx.send(Event::Post(f));
                    true
                }
                Ok(f) => self.forward(token, f),
                Err(_) => false,
            }
        }
    }

    /// Sends one frame into the service; if the service has already
    /// exited, the peer is told to stop with a parting `Shutdown`.
    fn forward(&mut self, token: u64, frame: ServeFrame) -> bool {
        let reply = ReplyTo::Evented { token, outbox: Arc::clone(&self.outbox) };
        if self.tx.send(Event::Frame { frame, reply }).is_err() {
            self.part_with(token, ServeFrame::Shutdown);
        }
        true
    }

    /// Queues a farewell frame and marks the connection to close once
    /// the frame has been written out.
    fn part_with(&mut self, token: u64, frame: ServeFrame) {
        let Some(conn) = self.conns.get_mut(&token) else { return };
        conn.parting = true;
        if conn.fc.queue_frame(&frame.encode()).is_err() {
            self.close_conn(token);
            return;
        }
        self.flush_conn(token);
    }

    /// Moves queued replies onto their connections and flushes. A
    /// `Shutdown` reply is a farewell: the connection closes once the
    /// frame reaches the wire.
    fn drain_outbox(&mut self) {
        let pending = std::mem::take(&mut *self.outbox.queue.lock().expect("outbox lock"));
        if pending.is_empty() {
            return;
        }
        let mut touched: Vec<u64> = Vec::new();
        for (token, frame) in pending {
            let Some(conn) = self.conns.get_mut(&token) else {
                // Raced with a disconnect after the request was
                // forwarded; the lease layer re-grants the work.
                continue;
            };
            if matches!(frame, ServeFrame::Shutdown) {
                conn.parting = true;
            }
            if conn.fc.queue_frame(&frame.encode()).is_err() {
                self.close_conn(token);
                continue;
            }
            if !touched.contains(&token) {
                touched.push(token);
            }
        }
        for token in touched {
            self.flush_conn(token);
        }
    }

    /// Flushes a connection's queue, keeps write interest armed exactly
    /// while bytes remain, and completes a parting close when the
    /// farewell has drained.
    fn flush_conn(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else { return };
        match conn.fc.flush() {
            Ok(wants_write) => {
                if conn.parting && !wants_write {
                    self.close_conn(token);
                    return;
                }
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
    /// the half-open answer: no thread is parked anywhere, so a scan
    /// and a close (with its `WorkerGone` requeue) is the cleanup.
    fn scan_deadlines(&mut self) {
        let now = Instant::now();
        let mut doomed: Vec<u64> = Vec::new();
        for (token, conn) in &self.conns {
            let overdue = match conn.state {
                PeerState::PreHello { since } => {
                    now.saturating_duration_since(since) >= HANDSHAKE_DEADLINE
                }
                _ => conn.fc.idle_for(now) >= self.idle_deadline,
            };
            if overdue {
                doomed.push(*token);
            }
        }
        for token in doomed {
            self.close_conn(token);
        }
    }

    /// Removes a connection. A worker link dying for any reason other
    /// than a parting farewell tells the service, so leased chunks
    /// requeue; a redial re-enters via its own hello.
    fn close_conn(&mut self, token: u64) {
        let Some(conn) = self.conns.remove(&token) else { return };
        let _ = self.poller.deregister(conn.fc.stream().as_raw_fd());
        if conn.parting {
            return;
        }
        if let PeerState::Worker { id } = conn.state {
            let _ = self.tx.send(Event::WorkerGone(id));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::{serve_tcp, ServeConfig};
    use crate::worker::{run_serve_worker, ServeWorkerConfig};
    use crate::{ServeClient, TcpLink};
    use lss_core::master::SchemeKind;
    use lss_runtime::protocol::serve::{JobSpec, JobState, WorkloadSpec};
    use lss_runtime::transport::frame::{read_frame_blocking, write_frame};
    use std::net::TcpStream;

    fn uniform(priority: u32, iters: u64) -> JobSpec {
        JobSpec {
            workload: WorkloadSpec::Uniform { iters, cost: 5 },
            scheme: SchemeKind::Dtss,
            priority,
        }
    }

    /// The acceptance gate in miniature: jobs over TCP workers against
    /// the evented front end run to completion, with the same typed
    /// lifecycle in-process workers see.
    #[test]
    fn evented_jobs_run_to_completion_over_tcp() {
        let handle = serve_tcp(ServeConfig::new(4), "127.0.0.1", 0).expect("serve evented");
        let addr = handle.addr.expect("tcp service has an address");
        let workers: Vec<_> = (0..4)
            .map(|w| {
                std::thread::spawn(move || {
                    let mut link = TcpLink::connect(addr).expect("dial service");
                    run_serve_worker(&mut link, &ServeWorkerConfig::healthy(w))
                        .expect("worker loop failed")
                })
            })
            .collect();
        let mut client = ServeClient::connect(addr).expect("client connect");
        for (priority, iters) in [(1, 800), (2, 800), (4, 800)] {
            client.submit(uniform(priority, iters)).expect("submit");
        }
        client.drain().expect("drain");
        drop(client);
        let report = handle.join();
        for w in workers {
            w.join().expect("worker thread");
        }
        assert_eq!(report.jobs_completed, 3);
        for job in &report.jobs {
            assert_eq!(job.state, JobState::Done, "job {} not done", job.job);
            assert_eq!(job.completed, job.total);
        }
    }

    /// A half-open worker — hello, one grant taken, then silence — is
    /// cut by the idle deadline and its chunks finish elsewhere; the
    /// reactor thread itself never parks.
    #[test]
    fn evented_half_open_worker_is_cut_and_work_requeued() {
        let mut cfg = ServeConfig::new(2);
        cfg.idle_deadline = Duration::from_millis(400);
        let handle = serve_tcp(cfg, "127.0.0.1", 0).expect("serve evented");
        let addr = handle.addr.expect("tcp service has an address");
        // Worker 1 goes half-open: handshake by hand, swallow the
        // reply, then sit silent holding whatever it was granted.
        let silent = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).expect("dial");
            let hello = lss_runtime::protocol::serve::ServeFrame::HelloWorker { worker: 1, q: 1 };
            write_frame(&mut s, &hello.encode()).expect("hello");
            let _ = read_frame_blocking(&mut s);
            std::thread::sleep(Duration::from_secs(3));
            drop(s);
        });
        let mut client = ServeClient::connect(addr).expect("client connect");
        client.submit(uniform(1, 1500)).expect("submit");
        client.drain().expect("drain");
        drop(client);
        // Worker 0 alone must be able to finish the job — the silent
        // worker's leases expire and requeue when its link is cut.
        let healthy = std::thread::spawn(move || {
            let mut link = TcpLink::connect(addr).expect("dial service");
            run_serve_worker(&mut link, &ServeWorkerConfig::healthy(0))
                .expect("worker loop failed")
        });
        let report = handle.join();
        healthy.join().expect("healthy worker");
        silent.join().expect("silent worker");
        assert_eq!(report.jobs_completed, 1);
        assert_eq!(report.jobs[0].completed, report.jobs[0].total);
    }

    /// Service exit tears the reactor down without any inbound
    /// connection: the waker, not a dial, unblocks the loop, and the
    /// handle's join proves the reactor thread exited.
    #[test]
    fn evented_shutdown_completes_with_zero_inbound_connections() {
        let mut cfg = ServeConfig::new(1);
        cfg.exit_after_jobs = Some(0);
        let t0 = Instant::now();
        let handle = serve_tcp(cfg, "127.0.0.1", 0).expect("serve evented");
        let addr = handle.addr.expect("tcp service has an address");
        let report = handle.join();
        assert!(t0.elapsed() < Duration::from_secs(5), "shutdown waited for a connection");
        assert_eq!(report.jobs_completed, 0);
        // The reactor is joined: its listener is closed, dials fail.
        assert!(TcpStream::connect(addr).is_err(), "listener survived the join");
    }

    /// A legacy unversioned peer gets a typed `Rejected` frame, then the
    /// connection closes.
    #[test]
    fn evented_legacy_peer_gets_typed_rejection() {
        use lss_runtime::protocol::{Request, WireMsg};
        let mut cfg = ServeConfig::new(1);
        cfg.exit_after_jobs = Some(1);
        let handle = serve_tcp(cfg, "127.0.0.1", 0).expect("serve evented");
        let addr = handle.addr.expect("tcp service has an address");
        let mut stream = TcpStream::connect(addr).expect("legacy dial");
        let legacy = WireMsg::Request(Request { worker: 0, q: 1, result: None });
        write_frame(&mut stream, &legacy.encode()).expect("legacy hello");
        let reply = read_frame_blocking(&mut stream).expect("a reply frame");
        match lss_runtime::protocol::serve::ServeFrame::decode(&reply) {
            Ok(lss_runtime::protocol::serve::ServeFrame::Rejected { reason }) => {
                assert!(
                    reason.contains("legacy") || reason.contains("version"),
                    "reason should name the protocol mismatch: {reason}"
                );
            }
            other => panic!("expected a typed Rejected frame, got {other:?}"),
        }
        // Parting close: the next read sees EOF, not a hang.
        assert!(read_frame_blocking(&mut stream).is_err(), "connection should be closed");
        drop(stream);
        // Unblock the service: one real worker, one real job.
        let worker = std::thread::spawn(move || {
            let mut link = TcpLink::connect(addr).expect("dial service");
            run_serve_worker(&mut link, &ServeWorkerConfig::healthy(0))
                .expect("worker loop failed")
        });
        let mut client = ServeClient::connect(addr).expect("client connect");
        client.submit(uniform(1, 100)).expect("submit");
        drop(client);
        let report = handle.join();
        worker.join().expect("worker thread");
        assert_eq!(report.jobs_completed, 1);
    }
}
