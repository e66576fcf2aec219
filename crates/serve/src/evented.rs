//! The serve daemon's one event loop.
//!
//! One reactor thread owns the [`Service`], the listener (when serving
//! TCP) and every peer connection, in a single epoll loop
//! (`lss-reactor`). A decoded frame calls [`Service::handle`] and the
//! reply is queued on that connection's [`FramedConn`] and flushed
//! before the next `epoll_wait`, all on this one thread. In-process
//! links post [`Event`]s on an mpsc channel and wake the poller; the
//! loop drains that channel after every wake, so an in-process service
//! is this same loop with no listener.
//!
//! Protocol per connection: the first frame must be a hello (worker or
//! client) —
//! anything else, including a legacy unversioned frame, earns a typed
//! `Rejected` and a parting close. After the handshake, heartbeats
//! post without a reply and every other frame is a request; a
//! `Shutdown` reply closes the connection once it reaches the wire; a
//! worker connection dying by any other route calls
//! [`Service::worker_gone`] so its leased chunks requeue.
//!
//! Time is a deadline, not an idle gap: the service's lease tick runs
//! whenever [`crate::ServeConfig::poll_interval`] has passed since the
//! last one, however much traffic arrives, and `epoll_wait` sleeps no
//! longer than the time left to it. Half-open peers cost a map entry,
//! not a parked thread: every connection carries a deadline — 10 s to
//! complete the handshake, then [`crate::ServeConfig::idle_deadline`]
//! of allowed silence — swept on every tick.

use std::collections::HashMap;
use std::io::ErrorKind;
use std::net::TcpListener;
use std::os::fd::AsRawFd;
use std::sync::mpsc::{Receiver, TryRecvError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use lss_reactor::{FramedConn, Interest, Poller, Readiness, Waker};
use lss_runtime::protocol::serve::ServeFrame;
use lss_runtime::transport::TransportError;

use crate::service::{Event, ServeReport, Service};

/// The listener's registration token; connections count up from 1.
const LISTENER_TOKEN: u64 = 0;

/// A connection that never completes its hello within this window is
/// dropped (same budget as the runtime transport's handshake read).
const HANDSHAKE_DEADLINE: Duration = Duration::from_secs(10);

/// Upper bound on one `epoll_wait`.
const SCAN_SLICE: Duration = Duration::from_millis(100);

/// Spins up the service loop, around `listener` when serving TCP.
/// Returns the waker in-process links nudge after queueing an event,
/// and the thread, which yields the service's report when it exits.
pub(crate) fn start(
    service: Service,
    rx: Receiver<Event>,
    listener: Option<TcpListener>,
) -> Result<(Waker, JoinHandle<ServeReport>), TransportError> {
    let io = |e: std::io::Error| TransportError::Io(e.to_string());
    let poller = Poller::new().map_err(io)?;
    if let Some(listener) = &listener {
        listener.set_nonblocking(true).map_err(io)?;
        poller.register(listener.as_raw_fd(), LISTENER_TOKEN, Interest::READ).map_err(io)?;
    }
    let waker = poller.waker();
    let thread = std::thread::spawn(move || {
        Reactor {
            service,
            rx,
            poller,
            listener,
            conns: HashMap::new(),
            next_token: LISTENER_TOKEN + 1,
        }
        .run()
    });
    Ok((waker, thread))
}

/// What a connection has told us about itself.
enum PeerState {
    /// Accepted, awaiting the hello frame.
    PreHello {
        /// When the connection was accepted.
        since: Instant,
    },
    /// `HelloWorker { worker }` seen; EOF now requeues its work.
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
    /// handshake rejection) has been queued. A parting connection is
    /// never reported gone.
    parting: bool,
}

/// What draining the in-process channel found.
enum Inbox {
    /// Senders remain.
    Open,
    /// Every sender (the handle and all links) is gone.
    Closed,
    /// [`Event::Kill`] arrived.
    Killed,
}

/// The reactor thread's whole world.
struct Reactor {
    service: Service,
    rx: Receiver<Event>,
    poller: Poller,
    listener: Option<TcpListener>,
    conns: HashMap<u64, SConn>,
    next_token: u64,
}

impl Reactor {
    fn run(mut self) -> ServeReport {
        let tick_every = self.service.cfg.poll_interval;
        let mut next_tick = Instant::now() + tick_every;
        let mut events: Vec<Readiness> = Vec::new();
        loop {
            match self.drain_inbox() {
                Inbox::Open => {}
                // Simulated SIGKILL: cut every peer, skip the parting
                // checkpoint so recovery exercises the raw log.
                Inbox::Killed => return self.service.report(),
                // With no listener and no link left, nobody can ever
                // talk to the service again.
                Inbox::Closed if self.listener.is_none() => break,
                Inbox::Closed => {}
            }
            let now = Instant::now();
            if now >= next_tick {
                self.service.tick();
                self.scan_deadlines(now);
                next_tick = now + tick_every;
            }
            if self.service.finished() {
                break;
            }
            let timeout = SCAN_SLICE.min(next_tick.saturating_duration_since(now));
            if !self.turn(&mut events, timeout) {
                break;
            }
        }
        // A pool member that never dialed gets the parting budget to
        // hear `Shutdown` instead of a refused connection.
        let parting = Instant::now() + lss_reactor::PARTING_FLUSH_BUDGET;
        while self.listener.is_some() && self.service.pool_incomplete() {
            let left = parting.saturating_duration_since(Instant::now());
            if left.is_zero() || !self.turn(&mut events, left) {
                break;
            }
        }
        // Deliver the farewells (the `Shutdown` each worker was
        // promised) within the parting budget, then tear down.
        lss_reactor::parting_flush(self.conns.values_mut().map(|c| &mut c.fc));
        self.service.finish()
    }

    /// Waits at most `timeout` for readiness and handles every event;
    /// `false` if the poller failed.
    fn turn(&mut self, events: &mut Vec<Readiness>, timeout: Duration) -> bool {
        if self.poller.wait(events, Some(timeout)).is_err() {
            return false;
        }
        for ev in events.drain(..) {
            self.handle_event(ev);
        }
        true
    }

    /// Applies every queued in-process event.
    fn drain_inbox(&mut self) -> Inbox {
        loop {
            match self.rx.try_recv() {
                Ok(Event::Frame { frame, reply }) => {
                    let _ = reply.send(self.service.handle(frame));
                }
                Ok(Event::Post(frame)) => self.service.post(frame),
                Ok(Event::WorkerGone(worker)) => self.service.worker_gone(worker),
                Ok(Event::Kill) => return Inbox::Killed,
                Err(TryRecvError::Empty) => return Inbox::Open,
                Err(TryRecvError::Disconnected) => return Inbox::Closed,
            }
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
        } else {
            self.flush_conn(ev.token);
        }
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
    /// connection must be closed hard (mid-stream garbage, which counts
    /// as the worker's link dying).
    fn process_frame(&mut self, token: u64, payload: &[u8]) -> bool {
        let Some(conn) = self.conns.get_mut(&token) else { return false };
        let decoded = ServeFrame::decode(payload);
        if !matches!(conn.state, PeerState::PreHello { .. }) {
            match decoded {
                Ok(f @ ServeFrame::Heartbeat { .. }) => self.service.post(f),
                Ok(f) => self.answer(token, f),
                Err(_) => return false,
            }
            return true;
        }
        match decoded {
            Ok(f @ (ServeFrame::HelloWorker { .. } | ServeFrame::HelloClient)) => {
                conn.state = match f {
                    ServeFrame::HelloWorker { worker, .. } => PeerState::Worker { id: worker },
                    _ => PeerState::Client,
                };
                self.answer(token, f);
            }
            Ok(_) => {
                self.part_with(token, ServeFrame::Rejected { reason: "handshake required".into() })
            }
            // A legacy (unversioned) or mis-versioned peer gets a typed
            // refusal it can surface, never a silent drop.
            Err(e) => self.part_with(token, ServeFrame::Rejected { reason: e.to_string() }),
        }
        true
    }

    /// Runs one request through the service and queues the reply on
    /// the connection (flushed once the event's frames are handled). A
    /// `Shutdown` reply is a farewell: the connection closes once the
    /// frame reaches the wire.
    fn answer(&mut self, token: u64, frame: ServeFrame) {
        let reply = self.service.handle(frame);
        let Some(conn) = self.conns.get_mut(&token) else { return };
        conn.parting |= matches!(reply, ServeFrame::Shutdown);
        if conn.fc.queue_frame(&reply.encode()).is_err() {
            self.close_conn(token);
        }
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
    /// and a close (with its requeue) is the cleanup.
    fn scan_deadlines(&mut self, now: Instant) {
        let mut doomed: Vec<u64> = Vec::new();
        for (token, conn) in &self.conns {
            let overdue = match conn.state {
                PeerState::PreHello { since } => {
                    now.saturating_duration_since(since) >= HANDSHAKE_DEADLINE
                }
                _ => conn.fc.idle_for(now) >= self.service.cfg.idle_deadline,
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
            self.service.worker_gone(id);
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
