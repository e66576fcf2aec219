//! The serve daemon's one event loop.
//!
//! One reactor thread owns the [`Service`] and a `lss-reactor`
//! [`FrameServer`] around the listener (when serving TCP) and every
//! peer connection. The service is the server's protocol handler: a
//! decoded frame calls [`Service::handle`] and the reply is queued on
//! that connection and flushed before the next `epoll_wait`, all on
//! this one thread. In-process links post [`Event`]s on an mpsc channel
//! and wake the poller; the loop drains that channel after every wake,
//! so an in-process service is this same loop with no listener.
//!
//! Protocol per connection: the first frame must be a hello (worker or
//! client) — anything else, including a legacy unversioned frame, earns
//! a typed `Rejected` and a parting close. After the handshake,
//! heartbeats post without a reply and every other frame is a request;
//! a `Shutdown` reply closes the connection once it reaches the wire; a
//! worker connection dying by any other route calls
//! [`Service::worker_gone`] so its leased chunks requeue.
//!
//! Time is a deadline, not an idle gap: the service's lease tick runs
//! whenever [`crate::ServeConfig::poll_interval`] has passed since the
//! last one, however much traffic arrives, and `epoll_wait` sleeps no
//! longer than the time left to it. Half-open peers cost a map entry,
//! not a parked thread: the server cuts a connection that has not said
//! hello within [`lss_reactor::HANDSHAKE_DEADLINE`], or that then stays
//! silent for [`crate::ServeConfig::idle_deadline`].

use std::net::TcpListener;
use std::sync::mpsc::{Receiver, TryRecvError};
use std::thread::JoinHandle;
use std::time::Instant;

use lss_reactor::{Conn, FrameServer, Handler, Waker, SCAN_SLICE};
use lss_runtime::protocol::serve::ServeFrame;
use lss_runtime::transport::TransportError;

use crate::service::{Event, ServeReport, Service};

/// Spins up the service loop, around `listener` when serving TCP.
/// Returns the waker in-process links nudge after queueing an event,
/// and the thread, which yields the service's report when it exits.
pub(crate) fn start(
    service: Service,
    rx: Receiver<Event>,
    listener: Option<TcpListener>,
) -> Result<(Waker, JoinHandle<ServeReport>), TransportError> {
    let server = FrameServer::new(listener, service.cfg.idle_deadline)
        .map_err(|e| TransportError::Io(e.to_string()))?;
    let waker = server.waker();
    let thread = std::thread::spawn(move || Reactor { service, rx, server }.run());
    Ok((waker, thread))
}

/// What a connection's hello said it is.
enum Peer {
    /// `HelloWorker { worker }`: EOF now requeues its work. The id is
    /// validated by the service, not here — a bogus id gets a typed
    /// `Rejected` reply like any request.
    Worker(usize),
    /// `HelloClient`.
    Client,
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
    server: FrameServer<Peer>,
}

impl Reactor {
    fn run(mut self) -> ServeReport {
        let tick_every = self.service.cfg.poll_interval;
        let mut next_tick = Instant::now() + tick_every;
        loop {
            match self.drain_inbox() {
                Inbox::Open => {}
                // Simulated SIGKILL: cut every peer, skip the parting
                // checkpoint so recovery exercises the raw log.
                Inbox::Killed => return self.service.report(),
                // With no listener and no link left, nobody can ever
                // talk to the service again.
                Inbox::Closed if !self.server.is_listening() => break,
                Inbox::Closed => {}
            }
            let now = Instant::now();
            if now >= next_tick {
                self.service.tick();
                next_tick = now + tick_every;
            }
            if self.service.finished() {
                break;
            }
            let timeout = SCAN_SLICE.min(next_tick.saturating_duration_since(now));
            if self.server.turn(&mut self.service, timeout).is_err() {
                break;
            }
        }
        // A pool member that never dialed, or whose link dropped, gets
        // the parting budget to (re)dial and hear `Shutdown` instead of
        // a refused connection.
        let parting = Instant::now() + lss_reactor::PARTING_FLUSH_BUDGET;
        while self.server.is_listening() && self.service.pool_incomplete() {
            let left = parting.saturating_duration_since(Instant::now());
            if left.is_zero() || self.server.turn(&mut self.service, left).is_err() {
                break;
            }
        }
        // Deliver the farewells (the `Shutdown` each worker was
        // promised) within the parting budget, then tear down.
        self.server.shutdown();
        self.service.finish()
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
}

impl Handler<Peer> for Service {
    /// Dispatches one decoded frame. Returns `false` when the
    /// connection must be closed hard (mid-stream garbage, which counts
    /// as the worker's link dying).
    fn on_frame(&mut self, conn: &mut Conn<Peer>, payload: &[u8]) -> bool {
        let decoded = ServeFrame::decode(payload);
        if conn.peer().is_some() {
            return match decoded {
                Ok(f @ ServeFrame::Heartbeat { .. }) => {
                    self.post(f);
                    true
                }
                Ok(f) => answer(self, conn, f),
                Err(_) => false,
            };
        }
        match decoded {
            Ok(f @ (ServeFrame::HelloWorker { .. } | ServeFrame::HelloClient)) => {
                conn.set_peer(match f {
                    ServeFrame::HelloWorker { worker, .. } => Peer::Worker(worker),
                    _ => Peer::Client,
                });
                answer(self, conn, f)
            }
            Ok(_) => part_with(conn, ServeFrame::Rejected { reason: "handshake required".into() }),
            // A legacy (unversioned) or mis-versioned peer gets a typed
            // refusal it can surface, never a silent drop.
            Err(e) => part_with(conn, ServeFrame::Rejected { reason: e.to_string() }),
        }
    }

    /// A worker link dying for any reason other than a parting farewell
    /// tells the service, so leased chunks requeue; a redial re-enters
    /// via its own hello.
    fn on_close(&mut self, _token: u64, peer: Peer) {
        if let Peer::Worker(id) = peer {
            self.worker_gone(id);
        }
    }
}

/// Runs one request through the service and queues the reply. A
/// `Shutdown` reply is a farewell: the connection closes once the frame
/// reaches the wire.
fn answer(service: &mut Service, conn: &mut Conn<Peer>, frame: ServeFrame) -> bool {
    let reply = service.handle(frame);
    if matches!(reply, ServeFrame::Shutdown) {
        conn.part();
    }
    conn.queue(&reply.encode()).is_ok()
}

/// Queues a farewell frame; the connection closes once it has been
/// written out.
fn part_with(conn: &mut Conn<Peer>, frame: ServeFrame) -> bool {
    conn.part();
    conn.queue(&frame.encode()).is_ok()
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
    use std::time::Duration;

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

    /// A worker whose link dropped may redial after the work is done:
    /// the post-finish accept window keeps the port open for it, so it
    /// hears `Shutdown` rather than a refused connection.
    #[test]
    fn a_worker_whose_link_dropped_hears_shutdown_when_it_redials_late() {
        use lss_runtime::protocol::serve::ServeFrame;
        let handle = serve_tcp(ServeConfig::new(2), "127.0.0.1", 0).expect("serve evented");
        let addr = handle.addr.expect("tcp service has an address");
        let hello = ServeFrame::HelloWorker { worker: 1, q: 1 }.encode();
        let mut s = TcpStream::connect(addr).expect("dial");
        write_frame(&mut s, &hello).expect("hello");
        read_frame_blocking(&mut s).expect("hello reply");
        drop(s);
        let mut client = ServeClient::connect(addr).expect("client connect");
        client.submit(uniform(1, 200)).expect("submit");
        client.drain().expect("drain");
        drop(client);
        let mut link = TcpLink::connect(addr).expect("dial service");
        run_serve_worker(&mut link, &ServeWorkerConfig::healthy(0)).expect("worker loop");
        // Worker 0 heard `Shutdown`: the job is done. Worker 1 redials.
        let mut s = TcpStream::connect(addr).expect("redial after the jobs finished");
        write_frame(&mut s, &hello).expect("hello");
        let reply = read_frame_blocking(&mut s).expect("a reply, not a reset");
        assert!(matches!(ServeFrame::decode(&reply), Ok(ServeFrame::Shutdown)), "{reply:?}");
        assert_eq!(handle.join().jobs_completed, 1);
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
