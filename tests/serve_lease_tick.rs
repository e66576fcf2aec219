//! The serve daemon's lease tick is driven by a deadline, not by idle
//! gaps: a steady stream of requests must not postpone lease expiry.
//! A worker that hangs while holding a grant (connection open, nothing
//! sent) must lose that grant once its lease runs out, even while a
//! client polls the job table in a tight loop.

use std::net::TcpStream;
use std::time::{Duration, Instant};

use lss_core::master::SchemeKind;
use lss_core::LeaseConfig;
use lss_runtime::protocol::serve::{JobSpec, JobState, ServeFrame, WorkloadSpec};
use lss_runtime::transport::frame::{read_frame_blocking, write_frame};
use lss_serve::{
    run_serve_worker, serve_tcp, QuarantineConfig, ServeClient, ServeConfig, ServeWorkerConfig,
    TcpLink,
};

/// 200 ms leases; speculation off, so only lease expiry can free the
/// hung worker's chunk.
fn short_leases() -> LeaseConfig {
    LeaseConfig {
        base_ticks: 200_000_000,
        default_ticks_per_iter: 0,
        grace: 8.0,
        dead_after_ticks: 200_000_000,
        max_speculations: 0,
    }
}

#[test]
fn leases_expire_under_steady_client_traffic() {
    let mut cfg = ServeConfig::new(2);
    cfg.lease = short_leases();
    cfg.quarantine = QuarantineConfig::disabled();
    let handle = serve_tcp(cfg, "127.0.0.1", 0).expect("serve");
    let addr = handle.addr.expect("tcp service has an address");
    let mut client = ServeClient::connect(addr).expect("client connect");
    let job = client
        .submit(JobSpec {
            workload: WorkloadSpec::Uniform { iters: 2_000, cost: 5 },
            scheme: SchemeKind::Dtss,
            priority: 1,
        })
        .expect("submit");

    // Worker 1 takes a grant, then hangs: the connection stays open
    // (well inside the idle deadline) and nothing more is sent.
    let mut hung = TcpStream::connect(addr).expect("dial");
    write_frame(&mut hung, &ServeFrame::HelloWorker { worker: 1, q: 1 }.encode()).expect("hello");
    let reply = read_frame_blocking(&mut hung).expect("hello reply");
    assert!(
        matches!(ServeFrame::decode(&reply), Ok(ServeFrame::Grants(g)) if !g.is_empty()),
        "the hung worker must hold a grant"
    );
    let healthy = std::thread::spawn(move || {
        let mut link = TcpLink::connect(addr).expect("dial service");
        run_serve_worker(&mut link, &ServeWorkerConfig::healthy(0)).expect("worker loop failed")
    });

    // Poll without pause: the service never sees an idle gap.
    let t0 = Instant::now();
    let mut done = false;
    while !done && t0.elapsed() < Duration::from_secs(2) {
        let jobs = client.jobs().expect("jobs");
        done = jobs.iter().any(|j| j.job == job && j.state == JobState::Done);
    }
    let waited = t0.elapsed();
    drop(hung);
    client.drain().expect("drain");
    drop(client);
    let report = handle.join();
    healthy.join().expect("healthy worker");
    assert!(done, "the job was still open after {waited:?} of steady traffic");
    assert_eq!(report.jobs_completed, 1);
}
