//! Invariants of the multi-job scheduling service (`lss-serve`):
//!
//! - **Per-job exactly-once** — while several jobs share one worker
//!   pool and workers crash or reconnect mid-run, every job's
//!   iteration space is completed in an exact partition: the job's
//!   `Completed` trace events never overlap and their union covers
//!   `[0, total)`. Checked over in-process links and loopback TCP.
//! - **Fair share** — concurrently active jobs receive iterations in
//!   proportion to their priority weights (within 10%).
//! - **Typed admission control** — a full queue refuses submissions
//!   with a reason, never a dropped connection; a legacy (unversioned)
//!   worker dialing the serve port gets a typed rejection frame.

use lss_core::fault::FaultPlan;
use lss_core::master::SchemeKind;
use lss_core::power::AcpConfig;
use lss_runtime::protocol::serve::{
    JobChunkResult, JobSpec, JobState, ServeFrame, ServeRequest, WorkloadSpec,
};
use lss_runtime::protocol::ChunkResult;
use lss_serve::{
    run_serve_worker, serve, serve_tcp, LocalLink, QuarantineConfig, ServeConfig, ServeLink,
    ServeReport, ServeWorkerConfig, TcpLink,
};
use lss_trace::{EventKind, SharedSink, Trace};

fn uniform(priority: u32, iters: u64) -> JobSpec {
    JobSpec {
        workload: WorkloadSpec::Uniform { iters, cost: 40 },
        scheme: SchemeKind::Dtss,
        priority,
    }
}

/// Like [`uniform`] but with a 30× heavier loop body. Release-build
/// iterations at the light cost are so cheap that the quarantine
/// scorer's additive comm slack swallows even a 40× straggler's
/// batch; the heavier body keeps batch times in the regime where the
/// multiplicative slowdown dominates, in both debug and release.
fn uniform_heavy(priority: u32, iters: u64) -> JobSpec {
    JobSpec {
        workload: WorkloadSpec::Uniform { iters, cost: 1200 },
        scheme: SchemeKind::Dtss,
        priority,
    }
}

fn mandelbrot(priority: u32) -> JobSpec {
    JobSpec {
        workload: WorkloadSpec::Mandelbrot { width: 96, height: 64, sf: 8 },
        scheme: SchemeKind::Dtfss,
        priority,
    }
}

/// Proves per-job exactly-once from the job-scoped trace: `Completed`
/// chunk events form an exact partition of `[0, total)`.
fn assert_exactly_once(trace: &Trace, job: u64, total: u64) {
    let mut covered = vec![false; total as usize];
    for ev in trace.for_job(job) {
        if ev.kind != EventKind::Completed {
            continue;
        }
        let c = ev.chunk.unwrap_or_else(|| panic!("job {job}: completed event without chunk"));
        for i in c.start..c.start + c.len {
            assert!(
                i < total,
                "job {job}: completed iteration {i} outside [0, {total})"
            );
            assert!(
                !covered[i as usize],
                "job {job}: iteration {i} completed twice (overlapping chunks)"
            );
            covered[i as usize] = true;
        }
    }
    let missing = covered.iter().filter(|c| !**c).count();
    assert_eq!(missing, 0, "job {job}: {missing} of {total} iterations never completed");
}

/// Checks the full lifecycle trail and the exact partition for every
/// completed job in the report.
fn assert_report_exactly_once(report: &ServeReport) {
    let trace = report.trace.as_ref().expect("tracing was enabled");
    for job in &report.jobs {
        assert_eq!(job.state, JobState::Done, "job {} did not finish", job.job);
        assert_eq!(job.completed, job.total, "job {} progress mismatch", job.job);
        assert_exactly_once(trace, job.job, job.total);
        for kind in [EventKind::JobSubmitted, EventKind::JobAdmitted, EventKind::JobCompleted] {
            assert!(
                trace.for_job(job.job).any(|e| e.kind == kind),
                "job {}: no {kind:?} event in trace",
                job.job
            );
        }
    }
}

fn traced_config(workers: usize) -> ServeConfig {
    let mut cfg = ServeConfig::new(workers);
    cfg.trace = SharedSink::bounded(1 << 17);
    cfg
}

/// In-process chaos: 3 jobs over 8 workers; one worker crashes without
/// reporting its last batch (its chunks must be requeued and finished
/// by the others), exactly-once must hold per job.
#[test]
fn exactly_once_under_crash_local_links() {
    let handle = serve(traced_config(8));
    let workers: Vec<_> = (0..8)
        .map(|w| {
            let mut link = handle.worker_link(w);
            std::thread::spawn(move || {
                let mut cfg = ServeWorkerConfig::healthy(w);
                if w == 2 {
                    cfg.fault = FaultPlan::crash_after(2);
                }
                run_serve_worker(&mut link, &cfg).expect("worker loop failed")
            })
        })
        .collect();
    let mut client = handle.client();
    for (priority, iters) in [(1, 2000), (2, 2000), (4, 2000)] {
        client.submit(uniform(priority, iters)).expect("submit");
    }
    client.drain().expect("drain");
    drop(client);
    let report = handle.join();
    for w in workers {
        w.join().expect("worker thread");
    }
    assert_eq!(report.jobs_completed, 3);
    assert_report_exactly_once(&report);
}

/// Loopback-TCP chaos: 3 jobs over 8 socket workers; one crashes, one
/// disconnects with results pending and redials (re-sending those
/// results, which must dedup). Exactly-once must hold per job.
#[test]
fn exactly_once_under_crash_and_reconnect_tcp() {
    let mut cfg = traced_config(8);
    // Dedup is what's under test. Health scoring stays out of it: a
    // spuriously quarantined worker idles through the canary cooldown,
    // and on a loaded host that can starve the reconnect plan of the
    // two exchanges it needs to fire.
    cfg.quarantine = QuarantineConfig::disabled();
    let handle = serve_tcp(cfg, "127.0.0.1", 0).expect("serve_tcp");
    let addr = handle.addr.expect("tcp service has an address");
    let workers: Vec<_> = (0..8)
        .map(|w| {
            std::thread::spawn(move || {
                let mut link = TcpLink::connect(addr).expect("dial service");
                let mut cfg = ServeWorkerConfig::healthy(w);
                if w == 1 {
                    cfg.fault = FaultPlan::crash_after(2);
                }
                if w == 4 {
                    cfg.fault = FaultPlan::reconnect_after(2, 1_000_000);
                }
                run_serve_worker(&mut link, &cfg).expect("worker loop failed")
            })
        })
        .collect();
    let mut client = lss_serve::ServeClient::connect(addr).expect("client connect");
    // Deep enough that every worker cycles through several grant
    // rounds — with tiny jobs the first threads the OS schedules can
    // drain the queue before worker 4 reaches its disconnect trigger.
    for (priority, iters) in [(1, 20_000), (2, 20_000), (4, 20_000)] {
        client.submit(uniform(priority, iters)).expect("submit");
    }
    client.drain().expect("drain");
    drop(client);
    let report = handle.join();
    let mut reconnects = 0;
    for w in workers {
        reconnects += w.join().expect("worker thread").reconnects;
    }
    assert_eq!(reconnects, 1, "the reconnect plan must actually fire");
    assert_eq!(report.jobs_completed, 3);
    assert_report_exactly_once(&report);
}

/// The acceptance bar: one service, 16 concurrently submitted
/// Mandelbrot jobs over loopback TCP, per-job exactly-once accounting
/// verified from the job-scoped traces.
#[test]
fn sixteen_concurrent_mandelbrot_jobs_over_tcp() {
    let mut cfg = traced_config(8);
    cfg.max_active = 16;
    cfg.queue_capacity = 32;
    let handle = serve_tcp(cfg, "127.0.0.1", 0).expect("serve_tcp");
    let addr = handle.addr.expect("tcp service has an address");
    let workers: Vec<_> = (0..8)
        .map(|w| {
            std::thread::spawn(move || {
                let mut link = TcpLink::connect(addr).expect("dial service");
                run_serve_worker(&mut link, &ServeWorkerConfig::healthy(w))
                    .expect("worker loop failed")
            })
        })
        .collect();
    let mut client = lss_serve::ServeClient::connect(addr).expect("client connect");
    let mut ids = Vec::new();
    for i in 0..16u32 {
        ids.push(client.submit(mandelbrot(1 + i % 4)).expect("submit"));
    }
    assert_eq!(ids.len(), 16);
    client.drain().expect("drain");
    drop(client);
    let report = handle.join();
    for w in workers {
        w.join().expect("worker thread");
    }
    assert_eq!(report.jobs_completed, 16);
    assert_eq!(report.jobs.len(), 16);
    assert_report_exactly_once(&report);
}

/// Drives one in-process worker per link in lock-step rounds: each
/// round every still-running worker, in id order, reports the results
/// of its previous batch and computes the batch it is granted. Returns
/// once the service has told every worker to shut down.
fn run_lockstep_workers(links: &mut [LocalLink]) {
    let mut pending: Vec<Vec<JobChunkResult>> = vec![Vec::new(); links.len()];
    let mut running = vec![true; links.len()];
    let mut round = 0;
    while running.contains(&true) {
        for (w, link) in links.iter_mut().enumerate() {
            if !running[w] {
                continue;
            }
            let frame = if round == 0 {
                ServeFrame::HelloWorker { worker: w, q: 1 }
            } else {
                let results = std::mem::take(&mut pending[w]);
                ServeFrame::Request(ServeRequest { worker: w, q: 1, results })
            };
            match link.call(frame).expect("service reply") {
                ServeFrame::Grants(grants) => {
                    for grant in grants {
                        let workload = lss_serve::instantiate(&grant.workload);
                        let chunk = grant.chunk;
                        let values = (chunk.start..chunk.start + chunk.len)
                            .map(|i| workload.execute(i))
                            .collect();
                        let result = ChunkResult::new(chunk, values);
                        pending[w].push(JobChunkResult { job: grant.job, result });
                    }
                }
                ServeFrame::Retry => {}
                ServeFrame::Shutdown => running[w] = false,
                other => panic!("worker {w}: unexpected reply {other:?}"),
            }
        }
        round += 1;
    }
}

/// While jobs of priority 4, 2 and 1 compete for the pool, the
/// snapshot taken when the first job retires must show iteration
/// progress tracking the priority weights within 10%.
#[test]
fn fair_share_tracks_priorities_through_the_service() {
    let mut cfg = traced_config(8);
    // Pool scale divisible by 4+2+1 so integer apportionment is exact.
    cfg.acp = AcpConfig::new(700, 0);
    // This is a proportionality check: a spurious quarantine (8 worker
    // threads time-slicing a loaded host can deschedule one long
    // enough to look degraded) would redistribute the shares mid-run.
    cfg.quarantine = QuarantineConfig::disabled();
    let handle = serve(cfg);
    // Submit before any worker dials in, so all three jobs compete
    // from the first grant — this is a proportionality check, not a
    // head-start race.
    let mut client = handle.client();
    // Large enough that the 4:2:1 shares dominate the granularity of
    // the chunks each job is cut into.
    let low = client.submit(uniform(1, 40_000)).expect("submit low");
    let mid = client.submit(uniform(2, 40_000)).expect("submit mid");
    let high = client.submit(uniform(4, 40_000)).expect("submit high");
    client.drain().expect("drain");
    drop(client);
    // The workers step through the service in lock-step rounds from
    // this one thread, so which job retires first is decided by the
    // shares alone, never by which worker thread the OS runs.
    let mut links: Vec<_> = (0..8).map(|w| handle.worker_link(w)).collect();
    run_lockstep_workers(&mut links);
    drop(links);
    let report = handle.join();
    assert_eq!(report.jobs_completed, 3);
    let first = report.snapshots.first().expect("a completion snapshot");
    assert_eq!(first.completed_job, high, "highest priority job retires first");
    let progress = |job| {
        first
            .progress
            .iter()
            .find(|p| p.0 == job)
            .map(|p| p.2 as f64)
            .expect("job in snapshot")
    };
    let ratio = progress(mid) / progress(low);
    assert!(
        (ratio - 2.0).abs() / 2.0 < 0.10,
        "2:1 priority pair strayed {ratio:.3} (low={} mid={})",
        progress(low),
        progress(mid),
    );
}

/// A full queue answers `Rejected {{ reason }}`; so do nonsense specs.
#[test]
fn admission_control_is_typed_over_tcp() {
    let mut cfg = ServeConfig::new(2);
    cfg.max_active = 1;
    cfg.queue_capacity = 2;
    let handle = serve_tcp(cfg, "127.0.0.1", 0).expect("serve_tcp");
    let addr = handle.addr.expect("tcp service has an address");
    let mut client = lss_serve::ServeClient::connect(addr).expect("client connect");
    for _ in 0..3 {
        client.submit(uniform(1, 500)).expect("within capacity");
    }
    let err = client.submit(uniform(1, 500)).expect_err("queue full");
    match err {
        lss_serve::ServeError::Rejected(reason) => {
            assert!(reason.contains("queue full"), "reason: {reason}")
        }
        other => panic!("expected a typed rejection, got {other}"),
    }
    // The service survives rejections: attach workers and finish.
    let workers: Vec<_> = (0..2)
        .map(|w| {
            std::thread::spawn(move || {
                let mut link = TcpLink::connect(addr).expect("dial service");
                run_serve_worker(&mut link, &ServeWorkerConfig::healthy(w))
                    .expect("worker loop failed")
            })
        })
        .collect();
    client.drain().expect("drain");
    drop(client);
    let report = handle.join();
    for w in workers {
        w.join().expect("worker thread");
    }
    assert_eq!(report.jobs_completed, 3);
    assert_eq!(report.jobs_rejected, 1);
}

/// A legacy (pre-versioning) worker dialing the serve port must get a
/// typed `Rejected` frame it can decode as "not my protocol" — not a
/// deserialization panic, not a silent hang.
#[test]
fn legacy_worker_is_rejected_with_a_typed_frame() {
    use lss_runtime::protocol::{Request, WireMsg};
    use lss_runtime::transport::frame::{read_frame_blocking, write_frame};

    let mut cfg = ServeConfig::new(1);
    cfg.exit_after_jobs = Some(1);
    let handle = serve_tcp(cfg, "127.0.0.1", 0).expect("serve_tcp");
    let addr = handle.addr.expect("tcp service has an address");

    let mut stream = std::net::TcpStream::connect(addr).expect("legacy dial");
    let legacy = WireMsg::Request(Request { worker: 0, q: 1, result: None });
    write_frame(&mut stream, &legacy.encode()).expect("legacy hello");
    let reply = read_frame_blocking(&mut stream).expect("a reply frame");
    match ServeFrame::decode(&reply) {
        Ok(ServeFrame::Rejected { reason }) => {
            assert!(
                reason.contains("legacy") || reason.contains("version"),
                "reason should name the protocol mismatch: {reason}"
            );
        }
        other => panic!("expected a typed Rejected frame, got {other:?}"),
    }
    // The legacy side's own decoder refuses the frame cleanly too: no
    // panic, just None — the typed failure the versioning layer buys.
    assert_eq!(lss_runtime::protocol::Reply::decode(&reply), None);

    // Unblock the service: one real worker, one real job.
    let worker = std::thread::spawn(move || {
        let mut link = TcpLink::connect(addr).expect("dial service");
        run_serve_worker(&mut link, &ServeWorkerConfig::healthy(0)).expect("worker loop failed")
    });
    let mut client = lss_serve::ServeClient::connect(addr).expect("client connect");
    client.submit(uniform(1, 100)).expect("submit");
    drop(client);
    let report = handle.join();
    worker.join().expect("worker thread");
    assert_eq!(report.jobs_completed, 1);
}

/// The service handle works without any TCP at all — the in-process
/// path the benches use — and reports batched grants: with `k = 4` and
/// 4 concurrent jobs, round trips must be far fewer than chunks.
#[test]
fn batched_grants_reduce_round_trips() {
    let run = |batch_k: usize| -> ServeReport {
        let mut cfg = ServeConfig::new(4);
        cfg.batch_k = batch_k;
        let handle = serve(cfg);
        // All four jobs are live before the first request, so every
        // batch has four jobs' worth of chunks to draw from.
        let mut client = handle.client();
        for _ in 0..4 {
            client.submit(uniform(1, 3000)).expect("submit");
        }
        client.drain().expect("drain");
        drop(client);
        let workers: Vec<_> = (0..4)
            .map(|w| {
                let mut link = handle.worker_link(w);
                std::thread::spawn(move || {
                    run_serve_worker(&mut link, &ServeWorkerConfig::healthy(w))
                        .expect("worker loop failed")
                })
            })
            .collect();
        let report = handle.join();
        for w in workers {
            w.join().expect("worker thread");
        }
        report
    };
    let batched = run(4);
    let serial = run(1);
    assert_eq!(batched.jobs_completed, 4);
    assert_eq!(serial.jobs_completed, 4);
    // Same work, fewer round trips: each batched request can carry up
    // to 4 chunks, so requests-per-grant must drop measurably.
    let batched_rpg = batched.requests_served as f64 / batched.grants_sent as f64;
    let serial_rpg = serial.requests_served as f64 / serial.grants_sent as f64;
    assert!(
        batched_rpg < serial_rpg * 0.7,
        "batching should cut round trips per grant: k=4 {batched_rpg:.2} vs k=1 {serial_rpg:.2}"
    );
}

// ---------------------------------------------------------------------
// Crash recovery, quarantine, and the serve-event grammar (PR 6).
// ---------------------------------------------------------------------

/// The iterations a job's events of `kind` claim, as a bitmap.
fn event_bits(trace: &Trace, job: u64, total: u64, kind: EventKind) -> Vec<bool> {
    let mut bits = vec![false; total as usize];
    for ev in trace.for_job(job) {
        if ev.kind != kind {
            continue;
        }
        let c = ev.chunk.unwrap_or_else(|| panic!("job {job}: {kind:?} event without chunk"));
        for i in c.start..c.start + c.len {
            assert!(i < total, "job {job}: {kind:?} covers iteration {i} outside [0, {total})");
            assert!(
                !bits[i as usize],
                "job {job}: iteration {i} covered by two {kind:?} events"
            );
            bits[i as usize] = true;
        }
    }
    bits
}

/// Grammar of the serving layer's recovery and quarantine events:
/// quarantine/readmit strictly alternate per worker, a job is recovered
/// at most once, recovered-complete seeding happens only for recovered
/// jobs and strictly before any fresh completion of that job.
fn assert_serve_grammar(trace: &Trace, workers: usize) {
    use std::collections::HashSet;
    let mut quarantined = vec![false; workers];
    let mut recovered: HashSet<u64> = HashSet::new();
    let mut freshly_completed: HashSet<u64> = HashSet::new();
    for ev in trace.events() {
        match ev.kind {
            EventKind::WorkerQuarantined => {
                let w = ev.worker.expect("quarantine names a worker");
                assert!(!quarantined[w], "worker {w} quarantined twice without readmission");
                quarantined[w] = true;
            }
            EventKind::WorkerReadmitted => {
                let w = ev.worker.expect("readmission names a worker");
                assert!(quarantined[w], "worker {w} readmitted but never quarantined");
                quarantined[w] = false;
            }
            EventKind::JobRecovered => {
                let j = ev.job.expect("recovery names a job");
                assert!(recovered.insert(j), "job {j} recovered twice in one session");
                assert!(
                    !freshly_completed.contains(&j),
                    "job {j} recovered after it already completed work this session"
                );
            }
            EventKind::RecoveredComplete => {
                let j = ev.job.expect("recovered-complete names a job");
                assert!(
                    recovered.contains(&j),
                    "job {j}: recovered-complete without a job-recovered event"
                );
                assert!(
                    !freshly_completed.contains(&j),
                    "job {j}: bitmap seeding after fresh completions"
                );
            }
            EventKind::Completed => {
                if let Some(j) = ev.job {
                    freshly_completed.insert(j);
                }
            }
            _ => {}
        }
    }
}

/// Exactly-once for a job whose life spans a daemon crash: the
/// restart's `RecoveredComplete` seeding plus its fresh `Completed`
/// events must tile `[0, total)` with no overlap.
fn assert_exactly_once_across_crash(trace: &Trace, job: u64, total: u64) {
    let seeded = event_bits(trace, job, total, EventKind::RecoveredComplete);
    let fresh = event_bits(trace, job, total, EventKind::Completed);
    for i in 0..total as usize {
        assert!(
            !(seeded[i] && fresh[i]),
            "job {job}: iteration {i} both recovered and re-executed (done twice)"
        );
        assert!(
            seeded[i] || fresh[i],
            "job {job}: iteration {i} lost across the crash"
        );
    }
    // Intra-kind overlap (a chunk completed twice post-recovery, or a
    // doubly-seeded range) is rejected inside `event_bits` itself, so
    // the two checks above complete the exact-partition proof.
}

/// SIGKILL-style crash mid-run, restart with `--recover`: all 16 jobs
/// finish, and per job the union of recovered and fresh completions is
/// an exact partition — nothing redone, nothing lost.
fn crash_recovery_roundtrip(tcp: bool) {
    let dir = std::env::temp_dir().join(format!(
        "lss-serve-crash-{}-{}",
        if tcp { "tcp" } else { "local" },
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    const JOBS: u64 = 16;
    const ITERS: u64 = 60_000;
    const WORKERS: usize = 4;

    // ---- session 1: journal fresh, kill mid-run --------------------
    let mut cfg = traced_config(WORKERS);
    cfg.max_active = 8;
    cfg.queue_capacity = 32;
    cfg.journal = Some(lss_serve::JournalConfig::fresh(&dir));
    // Checkpoint often so the kill lands in a checkpoint+log mixture.
    if let Some(j) = &mut cfg.journal {
        j.checkpoint_every = 16;
    }
    let handle = if tcp {
        serve_tcp(cfg, "127.0.0.1", 0).expect("serve_tcp")
    } else {
        serve(cfg)
    };
    let addr = handle.addr;
    let workers1: Vec<_> = (0..WORKERS)
        .map(|w| match addr {
            Some(addr) => std::thread::spawn(move || {
                let mut link = TcpLink::connect(addr).expect("dial service");
                let _ = run_serve_worker(&mut link, &ServeWorkerConfig::healthy(w));
            }),
            None => {
                let mut link = handle.worker_link(w);
                std::thread::spawn(move || {
                    let _ = run_serve_worker(&mut link, &ServeWorkerConfig::healthy(w));
                })
            }
        })
        .collect();
    let mut client = match addr {
        Some(addr) => lss_serve::ServeClient::connect(addr).expect("client connect"),
        None => handle.client(),
    };
    for i in 0..JOBS {
        client.submit(uniform(1 + (i % 4) as u32, ITERS)).expect("submit");
    }
    // Wait for meaningful partial progress, then kill.
    loop {
        let jobs = client.jobs().expect("jobs query");
        let completed: u64 = jobs.iter().map(|j| j.completed).sum();
        if completed >= JOBS * ITERS / 10 {
            break;
        }
        std::thread::sleep(std::time::Duration::from_micros(300));
    }
    drop(client);
    let report1 = handle.kill();
    for w in workers1 {
        let _ = w.join();
    }
    let trace1 = report1.trace.as_ref().expect("session 1 trace");
    let done1: std::collections::HashSet<u64> = report1
        .jobs
        .iter()
        .filter(|j| j.state == JobState::Done)
        .map(|j| j.job)
        .collect();
    assert!(
        done1.len() < JOBS as usize,
        "kill landed too late: all jobs already finished, nothing to recover"
    );

    // ---- session 2: recover and run to completion ------------------
    let mut cfg = traced_config(WORKERS);
    cfg.max_active = 8;
    cfg.queue_capacity = 32;
    cfg.journal = Some(lss_serve::JournalConfig::recover(&dir));
    let handle = if tcp {
        serve_tcp(cfg, "127.0.0.1", 0).expect("serve_tcp recover")
    } else {
        serve(cfg)
    };
    let addr = handle.addr;
    let workers2: Vec<_> = (0..WORKERS)
        .map(|w| match addr {
            Some(addr) => std::thread::spawn(move || {
                let mut link = TcpLink::connect(addr).expect("dial service");
                run_serve_worker(&mut link, &ServeWorkerConfig::healthy(w))
                    .expect("recovered worker loop");
            }),
            None => {
                let mut link = handle.worker_link(w);
                std::thread::spawn(move || {
                    run_serve_worker(&mut link, &ServeWorkerConfig::healthy(w))
                        .expect("recovered worker loop");
                })
            }
        })
        .collect();
    let mut client = match addr {
        Some(addr) => lss_serve::ServeClient::connect(addr).expect("client connect"),
        None => handle.client(),
    };
    client.drain().expect("drain");
    drop(client);
    let report2 = handle.join();
    for w in workers2 {
        w.join().expect("worker thread");
    }
    let trace2 = report2.trace.as_ref().expect("session 2 trace");

    // Every job the crash left unfinished was recovered and finished.
    let recovered: std::collections::HashSet<u64> = trace2
        .events()
        .iter()
        .filter(|e| e.kind == EventKind::JobRecovered)
        .map(|e| e.job.expect("recovery names a job"))
        .collect();
    for id in 1..=JOBS {
        if done1.contains(&id) {
            assert!(
                !recovered.contains(&id),
                "job {id} finished before the crash but was re-admitted"
            );
        } else {
            assert!(recovered.contains(&id), "job {id} was lost across the crash");
        }
    }
    for job in &report2.jobs {
        assert_eq!(job.state, JobState::Done, "job {} did not finish after recovery", job.job);
        assert_eq!(job.completed, job.total);
    }
    assert_eq!(report2.jobs.len(), JOBS as usize - done1.len());

    // Exactly-once across the crash: what session 2 was seeded with is
    // exactly what session 1 completed, and seeded + fresh tiles the
    // iteration space with no overlap.
    for &id in &recovered {
        assert_exactly_once_across_crash(trace2, id, ITERS);
        let seeded = event_bits(trace2, id, ITERS, EventKind::RecoveredComplete);
        let before = event_bits(trace1, id, ITERS, EventKind::Completed);
        assert_eq!(
            seeded, before,
            "job {id}: recovered bitmap diverges from pre-crash completions"
        );
    }
    for &id in &done1 {
        assert_exactly_once(trace1, id, ITERS);
    }
    assert_serve_grammar(trace1, WORKERS);
    assert_serve_grammar(trace2, WORKERS);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn crash_recovery_exactly_once_local_links() {
    crash_recovery_roundtrip(false);
}

#[test]
fn crash_recovery_exactly_once_tcp() {
    crash_recovery_roundtrip(true);
}

/// A worker 40× slower than its peers is quarantined by latency
/// scoring, its held chunks are reclaimed and finished by healthy
/// workers, and every job still completes exactly once.
#[test]
fn degraded_worker_is_quarantined_and_work_reclaimed() {
    let mut cfg = traced_config(4);
    // On a time-sliced host the healthy pool's own median inflates
    // with contention, compressing the observed straggler-to-median
    // ratio well below the configured 40×. A lower factor still
    // clears honest jitter (healthy batches stay within ~3× of the
    // median here), and the deeper strike budget demands two
    // consecutive violating batches — a one-off descheduling spike
    // on a healthy worker resets, the straggler keeps violating.
    cfg.quarantine.latency_factor = 4.0;
    cfg.quarantine.min_samples = 6;
    let sink = cfg.trace.clone();
    let handle = serve(cfg);
    let workers: Vec<_> = (0..4)
        .map(|w| {
            let mut link = handle.worker_link(w);
            std::thread::spawn(move || {
                let mut cfg = ServeWorkerConfig::healthy(w);
                if w == 3 {
                    cfg.slowdown = 40;
                }
                let _ = run_serve_worker(&mut link, &cfg);
            })
        })
        .collect();
    let mut client = handle.client();
    let mut submitted = 0u64;
    for priority in [1, 2, 4] {
        client.submit(uniform_heavy(priority, 10_000)).expect("submit");
        submitted += 1;
    }
    // The straggler's first batch takes hundreds of milliseconds of
    // shared CPU to come back; the healthy pool must still hold work
    // when it does, or the run retires before the batch is ever
    // scored. Feed waves until the quarantine is observed in the live
    // trace (bounded — the asserts below catch a no-show). Wave jobs
    // are sized so the straggler's batches carry a few thousand
    // iterations: big enough that its elapsed time clears the comm
    // slack by a wide margin, small enough not to starve it of the
    // CPU it needs to finish the very batch that convicts it.
    for _ in 0..150 {
        if sink.any(|e| e.kind == EventKind::WorkerQuarantined) {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
        for priority in [1, 2, 4] {
            if client.submit(uniform_heavy(priority, 4_000)).is_ok() {
                submitted += 1;
            }
        }
    }
    client.drain().expect("drain");
    drop(client);
    let report = handle.join();
    for w in workers {
        let _ = w.join();
    }
    assert_eq!(report.jobs_completed, submitted);
    assert_report_exactly_once(&report);
    let trace = report.trace.as_ref().expect("trace");
    assert!(
        trace
            .events()
            .iter()
            .any(|e| e.kind == EventKind::WorkerQuarantined && e.worker == Some(3)),
        "the degraded worker was never quarantined"
    );
    assert!(
        !trace
            .events()
            .iter()
            .any(|e| e.kind == EventKind::WorkerQuarantined && e.worker != Some(3)),
        "a healthy worker was spuriously quarantined"
    );
    assert_serve_grammar(trace, 4);
}

// ---------------------------------------------------------------------------
// Decoder robustness: arbitrary bytes never panic, only typed errors.
// (The seeded structured fuzzer in `lss-verify` covers the same seams
// at 50k+ inputs; these property tests keep a small arbitrary-input
// net in tier-1.)
// ---------------------------------------------------------------------------

mod decoder_robustness {
    use lss_runtime::protocol::serve::{ServeDecodeError, ServeFrame};
    use lss_serve::journal::{decode_checkpoint, replay};
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Any byte string fed to the serve frame decoder yields a
        /// frame or a *typed* error — never a panic — and the error
        /// class follows the header bytes.
        #[test]
        fn serve_frame_decode_total_on_arbitrary_bytes(
            bytes in proptest::collection::vec(any::<u8>(), 0..192),
        ) {
            match ServeFrame::decode(&bytes) {
                Ok(frame) => {
                    // A decodable frame re-encodes to *some* canonical
                    // bytes (not necessarily the input: trailing junk
                    // is tolerated), and re-decodes to itself.
                    let canon = frame.encode();
                    prop_assert_eq!(ServeFrame::decode(&canon).unwrap(), frame);
                }
                Err(ServeDecodeError::Legacy) => {
                    prop_assert!(bytes.first().is_some_and(|b| *b != 0xA5));
                }
                Err(ServeDecodeError::Version(v)) => {
                    prop_assert_eq!(bytes.first().copied(), Some(0xA5));
                    prop_assert_eq!(bytes.get(1).copied(), Some(v));
                }
                Err(ServeDecodeError::Malformed) => {}
            }
        }

        /// Any byte string fed to the journal replay path (as log,
        /// checkpoint, or both) yields a well-formed recovered state —
        /// torn tails and corrupt checkpoints degrade, never panic.
        #[test]
        fn journal_replay_total_on_arbitrary_bytes(
            log in proptest::collection::vec(any::<u8>(), 0..256),
            ckpt in proptest::collection::vec(any::<u8>(), 0..128),
        ) {
            prop_assert!(decode_checkpoint(&ckpt).is_none() || !ckpt.is_empty());
            for state in [replay(None, &log), replay(Some(&ckpt), &log)] {
                prop_assert!(state.next_job >= 1);
                let mut prev = None;
                for job in &state.jobs {
                    prop_assert!(prev.is_none_or(|p| p < job.id));
                    prop_assert!(job.id < state.next_job);
                    let total = job.total();
                    prop_assert_eq!(job.words.len() as u64, total.div_ceil(64));
                    prop_assert!(job.completed_count() <= total);
                    prev = Some(job.id);
                }
            }
        }
    }
}
