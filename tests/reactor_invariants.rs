//! Reactor invariants: the evented runtime transport and serve front
//! end must satisfy their liveness contracts — connections may churn
//! (disconnect and redial) without losing or duplicating iterations,
//! half-open sockets are cut by the idle deadline instead of being
//! trusted forever, and shutdown completes even when no connection
//! ever arrives.

use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use loop_self_scheduling::prelude::*;
use lss_runtime::protocol::{Request, WireMsg};
use lss_runtime::transport::evented::evented_listen;
use lss_runtime::transport::frame::{read_frame_blocking, write_frame};
use lss_runtime::transport::{Inbound, MasterTransport};
use lss_serve::{
    run_serve_worker, serve_tcp, ServeClient, ServeConfig, ServeWorkerConfig, TcpLink,
};

fn verify_results<W: Workload>(out: &lss_runtime::harness::HarnessOutcome, w: &W) {
    assert_eq!(out.results.len(), w.len() as usize);
    for i in 0..w.len() {
        assert_eq!(out.results[i as usize], w.execute(i), "iteration {i}");
    }
}

/// Lease policy tight enough for sub-second chaos: healthy workers are
/// protected by 100 ms heartbeats, so only genuinely silent workers
/// lapse. Speculation is off to keep recovery on the deterministic
/// lease-expiry -> requeue path.
fn chaos_lease() -> LeaseConfig {
    LeaseConfig {
        base_ticks: 400_000_000,
        default_ticks_per_iter: 0,
        grace: 8.0,
        dead_after_ticks: 250_000_000,
        max_speculations: 0,
    }
}

/// Connection churn on the evented runtime transport: half the cluster
/// drops its link mid-run and redials, at staggered moments, while the
/// reactor keeps serving the workers that stayed up. Every iteration
/// must still be computed exactly once.
#[test]
fn evented_transport_survives_connection_churn() {
    let w = Arc::new(Mandelbrot::new(MandelbrotParams::paper_domain(192, 256)));
    // Two slow stable workers keep the loop alive long enough for the
    // four churning workers to drop their links and redial mid-run;
    // downtimes are a few milliseconds so every redial lands while the
    // loop is still running.
    let mut workers = vec![WorkerSpec::slow(); 2];
    for (chunks, down_ticks) in [(1, 1_000_000), (2, 2_000_000), (1, 1_000_000), (1, 3_000_000)] {
        workers.push(WorkerSpec::fast().with_fault(FaultPlan::reconnect_after(chunks, down_ticks)));
    }
    let mut cfg = HarnessConfig::new(SchemeKind::Fss, workers);
    cfg.transport = Transport::TcpEvented;
    cfg.lease = chaos_lease();
    let out = run_scheduled_loop(&cfg, Arc::clone(&w));
    verify_results(&out, w.as_ref());
    assert!(
        out.faults.count(FaultKind::Disconnected) > 0,
        "no disconnect recorded despite four redialling workers:\n{}",
        out.faults.render()
    );
    assert!(
        out.faults.count(FaultKind::Recovered) > 0,
        "no redial recorded:\n{}",
        out.faults.render()
    );
}

/// The full chaos acceptance scenario — crash, hang, redial — on the
/// evented transport, mirroring `eight_worker_chaos_over_channels`.
#[test]
fn eight_worker_chaos_over_evented_tcp() {
    let w = Arc::new(Mandelbrot::new(MandelbrotParams::paper_domain(96, 64)));
    let mut workers = vec![WorkerSpec::fast(); 5];
    workers.push(WorkerSpec::failing_after(1));
    workers.push(WorkerSpec::fast().with_fault(FaultPlan::hang_after(1)));
    workers.push(WorkerSpec::fast().with_fault(FaultPlan::reconnect_after(1, 150_000_000)));
    let mut cfg = HarnessConfig::new(SchemeKind::Fss, workers);
    cfg.transport = Transport::TcpEvented;
    cfg.lease = chaos_lease();
    let out = run_scheduled_loop(&cfg, Arc::clone(&w));
    verify_results(&out, w.as_ref());
    assert!(out.failed_workers.contains(&5), "crashed worker not reported: {:?}", out.failed_workers);
    assert!(out.failed_workers.contains(&6), "hung worker not reported: {:?}", out.failed_workers);
    assert!(
        out.faults.contains_sequence(&[FaultKind::LeaseExpired, FaultKind::Requeued]),
        "no lease-expiry -> requeue in:\n{}",
        out.faults.render()
    );
    assert_eq!(out.duplicates_dropped, 0, "dedup miscounted a single-copy run");
}

/// Drives the half-open regression against one runtime master: a peer
/// handshakes, then goes silent without FIN or RST. The master must
/// convert the silence into a typed `Disconnected` within the idle
/// deadline instead of parking the reactor forever.
fn assert_half_open_is_cut(addr: SocketAddr, mut master: impl MasterTransport, label: &str) {
    let t0 = Instant::now();
    let mut saw_hello = false;
    loop {
        match master.recv_timeout(Duration::from_millis(100)).expect(label) {
            Some(Inbound::Request(_)) => saw_hello = true,
            Some(Inbound::Disconnected(0)) => break,
            Some(other) => panic!("[{label}] unexpected {other:?}"),
            None => assert!(
                t0.elapsed() < Duration::from_secs(3),
                "[{label}] half-open connection at {addr} was not cut by the idle deadline"
            ),
        }
    }
    assert!(saw_hello, "[{label}] handshake never surfaced");
}

/// Half-open regression on the runtime master: the reactor keeps a
/// deadline on every connection, so a silent handshaken socket is cut,
/// never trusted forever.
#[test]
fn half_open_socket_is_cut_on_both_runtime_transports() {
    let h = evented_listen().expect("listen");
    let addr = h.addr;
    let silent = std::thread::spawn(move || {
        let mut s = TcpStream::connect(addr).expect("dial");
        let hello = WireMsg::Request(Request { worker: 0, q: 1, result: None }).encode();
        write_frame(&mut s, &hello).expect("hello");
        // Handshaken, now half-open: hold the socket, say nothing.
        std::thread::sleep(Duration::from_secs(3));
        drop(s);
    });
    let master = h
        .accept_workers_configured(1, Duration::from_secs(5), Duration::from_millis(300))
        .expect("accept");
    assert_half_open_is_cut(addr, master, "evented");
    silent.join().expect("silent peer thread");
}

fn uniform_job(priority: u32, iters: u64) -> lss_runtime::protocol::serve::JobSpec {
    lss_runtime::protocol::serve::JobSpec {
        workload: lss_runtime::protocol::serve::WorkloadSpec::Uniform { iters, cost: 5 },
        scheme: SchemeKind::Dtss,
        priority,
    }
}

/// Half-open regression at the serve layer: a worker that handshakes
/// and then sits silent holding a grant must not stall the job. The
/// reactor cuts the socket on the idle deadline, and the healthy worker
/// finishes everything.
#[test]
fn serve_half_open_worker_never_stalls_a_job_on_either_backend() {
    let mut cfg = ServeConfig::new(2);
    cfg.idle_deadline = Duration::from_millis(400);
    cfg.lease = chaos_lease();
    let handle = serve_tcp(cfg, "127.0.0.1", 0).expect("serve");
    let addr = handle.addr.expect("tcp service has an address");
    let silent = std::thread::spawn(move || {
        let mut s = TcpStream::connect(addr).expect("dial");
        let hello = lss_runtime::protocol::serve::ServeFrame::HelloWorker { worker: 1, q: 1 };
        write_frame(&mut s, &hello.encode()).expect("hello");
        let _ = read_frame_blocking(&mut s);
        std::thread::sleep(Duration::from_secs(3));
        drop(s);
    });
    let mut client = ServeClient::connect(addr).expect("client connect");
    client.submit(uniform_job(1, 1200)).expect("submit");
    client.drain().expect("drain");
    drop(client);
    let healthy = std::thread::spawn(move || {
        let mut link = TcpLink::connect(addr).expect("dial service");
        run_serve_worker(&mut link, &ServeWorkerConfig::healthy(0)).expect("worker loop")
    });
    let report = handle.join();
    healthy.join().expect("healthy worker");
    silent.join().expect("silent worker");
    assert_eq!(report.jobs_completed, 1);
    assert_eq!(report.jobs[0].completed, report.jobs[0].total);
}

/// Shutdown with zero inbound connections: the reactor is unblocked by
/// its waker, so no client ever needs to dial, and the join proves the
/// front-end thread exited (the listener is gone).
#[test]
fn serve_shutdown_completes_with_zero_inbound_connections_on_either_backend() {
    let mut cfg = ServeConfig::new(1);
    cfg.exit_after_jobs = Some(0);
    let t0 = Instant::now();
    let handle = serve_tcp(cfg, "127.0.0.1", 0).expect("serve");
    let addr = handle.addr.expect("tcp service has an address");
    let report = handle.join();
    assert!(
        t0.elapsed() < Duration::from_secs(5),
        "shutdown waited for a connection that never came"
    );
    assert_eq!(report.jobs_completed, 0);
    assert!(TcpStream::connect(addr).is_err(), "listener survived the join");
}
