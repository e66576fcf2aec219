//! End-to-end tests of the real threaded runtime: every iteration of a
//! real workload is executed exactly once and its result reaches the
//! master, across schemes, transports and live load changes.

use std::sync::Arc;
use std::time::Duration;

use loop_self_scheduling::prelude::*;

fn verify_results<W: Workload>(out: &lss_runtime::harness::HarnessOutcome, w: &W) {
    assert_eq!(out.results.len(), w.len() as usize);
    for i in 0..w.len() {
        assert_eq!(out.results[i as usize], w.execute(i), "iteration {i}");
    }
}

#[test]
fn mandelbrot_over_channels_all_schemes() {
    let w = Arc::new(SampledWorkload::new(
        Mandelbrot::new(MandelbrotParams::paper_domain(80, 60)),
        4,
    ));
    for scheme in [
        SchemeKind::Tss,
        SchemeKind::Fss,
        SchemeKind::Fiss { sigma: 3 },
        SchemeKind::Tfss,
        SchemeKind::Wf,
        SchemeKind::Dtss,
        SchemeKind::Dfss,
        SchemeKind::Dfiss { sigma: 3 },
        SchemeKind::Dtfss,
    ] {
        let cfg = HarnessConfig::paper_mix(scheme, 1, 2);
        let out = run_scheduled_loop(&cfg, Arc::clone(&w));
        verify_results(&out, w.as_ref());
        assert_eq!(
            out.report.iterations.iter().sum::<u64>(),
            80,
            "{} lost iterations",
            scheme.name()
        );
    }
}

#[test]
fn mandelbrot_over_tcp() {
    let w = Arc::new(Mandelbrot::new(MandelbrotParams::paper_domain(60, 40)));
    let mut cfg = HarnessConfig::paper_mix(SchemeKind::Dtss, 2, 1);
    cfg.transport = Transport::TcpEvented;
    let out = run_scheduled_loop(&cfg, Arc::clone(&w));
    verify_results(&out, w.as_ref());
}

#[test]
fn tcp_and_channels_agree_on_results() {
    let w = Arc::new(SyntheticWorkload::new((1..=64).collect()));
    let mut a = HarnessConfig::paper_mix(SchemeKind::Tfss, 2, 0);
    let b = HarnessConfig::paper_mix(SchemeKind::Tfss, 2, 0);
    a.transport = Transport::TcpEvented;
    let ra = run_scheduled_loop(&a, Arc::clone(&w));
    let rb = run_scheduled_loop(&b, Arc::clone(&w));
    assert_eq!(ra.results, rb.results);
}

#[test]
fn live_overload_shifts_iterations_away() {
    // Two equal workers; worker 1 becomes heavily loaded immediately.
    // DTSS must give it markedly less work.
    let w = Arc::new(UniformLoop::new(600, 3_000));
    let cfg = HarnessConfig::new(
        SchemeKind::Dtss,
        vec![
            WorkerSpec::fast(),
            WorkerSpec { load: LoadState::with_q(4), ..WorkerSpec::fast() },
        ],
    );
    let out = run_scheduled_loop(&cfg, Arc::clone(&w));
    verify_results(&out, w.as_ref());
    assert!(
        out.report.iterations[0] > out.report.iterations[1],
        "loaded worker should get less: {:?}",
        out.report.iterations
    );
}

#[test]
fn load_change_mid_run_is_survivable_for_every_distributed_scheme() {
    let w = Arc::new(UniformLoop::new(500, 2_000));
    for scheme in [
        SchemeKind::Dtss,
        SchemeKind::Dfss,
        SchemeKind::Dfiss { sigma: 3 },
        SchemeKind::Dtfss,
    ] {
        let cfg = HarnessConfig::paper_mix(scheme, 2, 2);
        let loads: Vec<LoadState> = cfg.workers.iter().map(|w| w.load.clone()).collect();
        let flipper = std::thread::spawn(move || {
            for (i, l) in loads.iter().enumerate() {
                std::thread::sleep(Duration::from_millis(3));
                l.set_q(1 + (i as u32 % 3));
            }
        });
        let out = run_scheduled_loop(&cfg, Arc::clone(&w));
        flipper.join().unwrap();
        verify_results(&out, w.as_ref());
    }
}

#[test]
fn worker_stats_are_populated() {
    let w = Arc::new(UniformLoop::new(200, 5_000));
    let cfg = HarnessConfig::paper_mix(SchemeKind::Fss, 2, 1);
    let out = run_scheduled_loop(&cfg, Arc::clone(&w));
    assert_eq!(out.worker_stats.len(), 3);
    let total_chunks: u64 = out.worker_stats.iter().map(|s| s.chunks).sum();
    assert_eq!(total_chunks, out.report.scheduling_steps);
    for s in &out.worker_stats {
        assert!(s.t_comp > Duration::ZERO || s.iterations == 0);
    }
}

#[test]
fn report_breakdowns_cover_wall_time_reasonably() {
    let w = Arc::new(UniformLoop::new(400, 10_000));
    let cfg = HarnessConfig::paper_mix(SchemeKind::Tss, 2, 2);
    let out = run_scheduled_loop(&cfg, Arc::clone(&w));
    for b in &out.report.per_pe {
        // Each worker's accounted time cannot exceed the wall time by
        // more than scheduling slop.
        assert!(b.total() <= out.report.t_p * 1.5 + 0.05, "{b:?} vs {}", out.report.t_p);
    }
}

#[test]
fn single_worker_cluster_works() {
    let w = Arc::new(SyntheticWorkload::new(vec![5; 40]));
    let cfg = HarnessConfig::paper_mix(SchemeKind::Gss { min_chunk: 1 }, 1, 0);
    let out = run_scheduled_loop(&cfg, Arc::clone(&w));
    verify_results(&out, w.as_ref());
    assert_eq!(out.report.iterations, vec![40]);
}

#[test]
fn empty_workload_is_fine() {
    let w = Arc::new(SyntheticWorkload::new(vec![]));
    let cfg = HarnessConfig::paper_mix(SchemeKind::Tfss, 1, 1);
    let out = run_scheduled_loop(&cfg, Arc::clone(&w));
    assert!(out.results.is_empty());
}

#[test]
fn crashed_worker_does_not_lose_iterations() {
    // Worker 2 dies after its second chunk; the survivors absorb its
    // requeued work and every result still reaches the master.
    let w = Arc::new(UniformLoop::new(400, 3_000));
    let cfg = HarnessConfig::new(
        SchemeKind::Fss,
        vec![
            WorkerSpec::fast(),
            WorkerSpec::slow(),
            WorkerSpec::failing_after(2),
        ],
    );
    let out = run_scheduled_loop(&cfg, Arc::clone(&w));
    assert_eq!(out.failed_workers, vec![2]);
    verify_results(&out, w.as_ref());
}

#[test]
fn multiple_crashes_are_survivable() {
    let w = Arc::new(UniformLoop::new(300, 2_000));
    for scheme in [SchemeKind::Tss, SchemeKind::Dtss, SchemeKind::Tfss] {
        let cfg = HarnessConfig::new(
            scheme,
            vec![
                WorkerSpec::fast(),
                WorkerSpec::failing_after(1),
                WorkerSpec::failing_after(0), // dies on its first chunk
                WorkerSpec::slow(),
            ],
        );
        let out = run_scheduled_loop(&cfg, Arc::clone(&w));
        let mut failed = out.failed_workers.clone();
        failed.sort_unstable();
        assert_eq!(failed, vec![1, 2], "{}", scheme.name());
        verify_results(&out, w.as_ref());
    }
}

#[test]
fn crash_over_tcp_is_survivable() {
    let w = Arc::new(UniformLoop::new(200, 2_000));
    let mut cfg = HarnessConfig::new(
        SchemeKind::Tfss,
        vec![WorkerSpec::fast(), WorkerSpec::failing_after(1)],
    );
    cfg.transport = Transport::TcpEvented;
    let out = run_scheduled_loop(&cfg, Arc::clone(&w));
    assert_eq!(out.failed_workers, vec![1]);
    verify_results(&out, w.as_ref());
}

/// Lease policy tight enough for sub-second chaos tests: healthy
/// workers are protected by 100 ms heartbeats (which extend a lease to
/// `now + base`), so only genuinely silent workers lapse.
fn chaos_lease() -> LeaseConfig {
    LeaseConfig {
        base_ticks: 400_000_000,
        default_ticks_per_iter: 0,
        grace: 8.0,
        dead_after_ticks: 250_000_000,
        // Keep recovery on the deterministic lease-expiry -> requeue
        // path (speculation has its own unit tests).
        max_speculations: 0,
    }
}

/// The acceptance scenario: an 8-worker cluster computing a real
/// Mandelbrot loop with one worker crashing, one hanging forever, and
/// one dropping its link mid-run and redialling. The loop must finish
/// with every column computed exactly once and the fault log must show
/// the lease-expiry -> requeue -> recovery chain.
fn eight_worker_chaos(transport: Transport) {
    let w = Arc::new(Mandelbrot::new(MandelbrotParams::paper_domain(96, 64)));
    let mut workers = vec![WorkerSpec::fast(); 5];
    // Workers 5 and 6 fail on their first grant, the one grant a worker
    // is sure of: the master starts only once every hello is queued, so
    // each hello is served before any second request. A fault planned
    // for a later grant could find the peers have drained the loop.
    workers.push(WorkerSpec::failing_after(0)); // worker 5: crash
    workers.push(WorkerSpec::fast().with_fault(FaultPlan::hang_after(0))); // worker 6: hang
    workers.push(WorkerSpec::fast().with_fault(FaultPlan::reconnect_after(1, 150_000_000))); // worker 7
    let mut cfg = HarnessConfig::new(SchemeKind::Fss, workers);
    cfg.transport = transport;
    cfg.lease = chaos_lease();
    let out = run_scheduled_loop(&cfg, Arc::clone(&w));
    verify_results(&out, w.as_ref());
    assert!(out.failed_workers.contains(&5), "crashed worker not reported: {:?}", out.failed_workers);
    assert!(out.failed_workers.contains(&6), "hung worker not reported: {:?}", out.failed_workers);
    assert!(!out.faults.is_empty(), "no fault events recorded");
    assert!(
        out.faults.contains_sequence(&[FaultKind::LeaseExpired, FaultKind::Requeued]),
        "no lease-expiry -> requeue in:\n{}",
        out.faults.render()
    );
    assert_eq!(out.duplicates_dropped, 0, "dedup miscounted a single-copy run");
}

#[test]
fn eight_worker_chaos_over_channels() {
    eight_worker_chaos(Transport::Channels);
}

#[test]
fn hung_worker_is_detected_and_its_chunk_requeued() {
    let w = Arc::new(UniformLoop::new(300, 3_000));
    let mut cfg = HarnessConfig::new(
        SchemeKind::Tss,
        vec![
            WorkerSpec::fast(),
            WorkerSpec::fast(),
            WorkerSpec::fast().with_fault(FaultPlan::hang_after(0)),
        ],
    );
    cfg.lease = chaos_lease();
    let out = run_scheduled_loop(&cfg, Arc::clone(&w));
    verify_results(&out, w.as_ref());
    assert_eq!(out.failed_workers, vec![2]);
    assert!(
        out.faults.contains_sequence(&[FaultKind::LeaseExpired, FaultKind::Requeued]),
        "{}",
        out.faults.render()
    );
}

#[test]
fn reconnecting_worker_rejoins_and_finishes() {
    // A short outage against a long enough loop that the master is
    // still running when the worker redials.
    let w = Arc::new(UniformLoop::new(1500, 60_000));
    let mut cfg = HarnessConfig::new(
        SchemeKind::Dtss,
        vec![
            WorkerSpec::fast(),
            WorkerSpec::fast().with_fault(FaultPlan::reconnect_after(1, 10_000_000)),
        ],
    );
    cfg.lease = chaos_lease();
    let out = run_scheduled_loop(&cfg, Arc::clone(&w));
    verify_results(&out, w.as_ref());
    let s = &out.worker_stats[1];
    assert!(s.reconnects >= 1, "worker never redialled: {s:?}");
}

#[test]
fn degraded_worker_sheds_load_to_healthy_peers() {
    let w = Arc::new(UniformLoop::new(600, 3_000));
    let cfg = HarnessConfig::new(
        SchemeKind::Fss,
        vec![
            WorkerSpec::fast(),
            WorkerSpec::fast().with_fault(FaultPlan::degrade_after(1, 8)),
        ],
    );
    let out = run_scheduled_loop(&cfg, Arc::clone(&w));
    verify_results(&out, w.as_ref());
    assert!(
        out.report.iterations[0] > out.report.iterations[1],
        "degraded worker kept equal share: {:?}",
        out.report.iterations
    );
}

#[test]
fn lossy_network_does_not_lose_iterations() {
    let w = Arc::new(SyntheticWorkload::new((1..=120).collect()));
    for seed in [1u64, 7, 1234] {
        let mut cfg = HarnessConfig::new(
            SchemeKind::Tfss,
            vec![
                WorkerSpec::fast().with_fault(
                    FaultPlan::healthy()
                        .with_net(NetFaults { drop_prob: 0.3, dup_prob: 0.2, delay_ticks: 1_000_000 })
                        .with_seed(seed),
                ),
                WorkerSpec::fast(),
            ],
        );
        cfg.lease = chaos_lease();
        let out = run_scheduled_loop(&cfg, Arc::clone(&w));
        verify_results(&out, w.as_ref());
    }
}

#[test]
fn chaos_random_crashes_never_lose_work() {
    // Randomized failure injection: any subset of workers (never all)
    // crashes at arbitrary points; as long as one worker survives,
    // every iteration's result must reach the master exactly once.
    let w = Arc::new(SyntheticWorkload::new((0..150).map(|i| i % 11 + 1).collect()));
    let mut rng_state = 0xDEADBEEFu64;
    let mut next = move || {
        rng_state = rng_state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        rng_state >> 33
    };
    for round in 0..12 {
        let p = 2 + (next() % 4) as usize; // 2..=5 workers
        let survivor = (next() as usize) % p;
        let workers: Vec<WorkerSpec> = (0..p)
            .map(|i| {
                if i == survivor {
                    WorkerSpec::fast()
                } else if next() % 2 == 0 {
                    WorkerSpec::failing_after(next() % 4)
                } else {
                    WorkerSpec::slow()
                }
            })
            .collect();
        let scheme = match next() % 3 {
            0 => SchemeKind::Tss,
            1 => SchemeKind::Fss,
            _ => SchemeKind::Dtfss,
        };
        let cfg = HarnessConfig::new(scheme, workers);
        let out = run_scheduled_loop(&cfg, Arc::clone(&w));
        verify_results(&out, w.as_ref());
        assert!(
            !out.failed_workers.contains(&survivor),
            "round {round}: survivor {survivor} reported failed"
        );
    }
}
