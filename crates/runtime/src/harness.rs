//! One-call end-to-end runs: spawn a master and `p` emulated-
//! heterogeneous workers, execute the loop for real, and report the
//! same metrics the simulator produces.
//!
//! Every harness run goes through the *resilient* master loop
//! ([`crate::master::run_resilient_master`]): chunk leases, heartbeat
//! liveness, speculative re-execution and first-result-wins dedup are
//! always armed. On a healthy cluster they never fire (the report's
//! fault log stays empty); with [`WorkerSpec::fault`] plans injected,
//! the run completes anyway and the log shows how.
//!
//! [`run_scheduled_loop`] (a central [`Master`]) and
//! [`crate::shard::run_sharded_loop`] (a [`ShardSet`]) share one
//! launcher: it builds the worker configs, wires up the transport,
//! holds the master until every worker's hello is queued, spawns and
//! joins the workers, and unwraps the results.

use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use lss_core::fault::{FaultPlan, LeaseConfig};
use lss_core::master::{Master, MasterConfig, SchemeKind};
use lss_core::power::{AcpConfig, VirtualPower};
use lss_metrics::breakdown::{RunReport, TimeBreakdown};
use lss_metrics::FaultLog;
use lss_shard::ShardSet;
use lss_trace::{ClockDomain, SharedSink, Trace, TraceMeta};
use lss_workloads::Workload;

use crate::backoff::BackoffPolicy;
use crate::load::LoadState;
use crate::master::{run_resilient_master, GrantBackend, ResilientOutcome};
use crate::protocol::Request;
use crate::transport::channels::channel_transport;
use crate::transport::evented::evented_listen;
use crate::transport::tcp::TcpWorker;
use crate::transport::WorkerTransport;
use crate::worker::{run_worker_loop, WorkerConfig, WorkerStats};

/// Which transport the harness wires up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    /// In-process channels (fast, default).
    Channels,
    /// Localhost TCP sockets with framed messages, the master's side
    /// one epoll set polled by the master loop's own thread.
    TcpEvented,
}

/// One emulated PE.
#[derive(Debug, Clone)]
pub struct WorkerSpec {
    /// Speed handicap (1 = fast PE, 3 ≈ the paper's slow PE).
    pub slowdown: u32,
    /// Shared, mutable run-queue state; keep a clone to change the
    /// load mid-run (the non-dedicated condition).
    pub load: LoadState,
    /// Chaos plan for this worker (default: healthy).
    pub fault: FaultPlan,
}

impl WorkerSpec {
    /// A dedicated fast PE.
    pub fn fast() -> Self {
        WorkerSpec {
            slowdown: 1,
            load: LoadState::dedicated(),
            fault: FaultPlan::healthy(),
        }
    }

    /// A dedicated slow PE (3× handicap, like the paper's US1 vs US10).
    pub fn slow() -> Self {
        WorkerSpec {
            slowdown: 3,
            load: LoadState::dedicated(),
            fault: FaultPlan::healthy(),
        }
    }

    /// A fast PE that crashes after computing `n` chunks (the original
    /// failure-injection knob, now a [`FaultPlan`] shorthand).
    pub fn failing_after(n: u64) -> Self {
        Self::fast().with_fault(FaultPlan::crash_after(n))
    }

    /// Attaches an arbitrary chaos plan.
    pub fn with_fault(mut self, fault: FaultPlan) -> Self {
        self.fault = fault;
        self
    }
}

/// Harness configuration.
#[derive(Debug, Clone)]
pub struct HarnessConfig {
    /// Scheme under test.
    pub scheme: SchemeKind,
    /// The emulated PEs.
    pub workers: Vec<WorkerSpec>,
    /// ACP rule for the distributed schemes.
    pub acp: AcpConfig,
    /// Worker pacing after a retry notice (capped exponential backoff
    /// with jitter — replaces the old fixed sleep).
    pub retry: BackoffPolicy,
    /// Worker pacing when redialling a dropped link.
    pub reconnect: BackoffPolicy,
    /// Transport to use.
    pub transport: Transport,
    /// Lease policy for the master's fault detector.
    pub lease: LeaseConfig,
    /// Heartbeat interval while computing (`None` = no heartbeats).
    pub heartbeat_every: Option<Duration>,
    /// Worker-side reply patience before retransmitting its request
    /// (`None` = block; lossy net plans then use a built-in default).
    pub reply_timeout: Option<Duration>,
    /// Master wake-up bound for lease polling.
    pub poll_interval: Duration,
    /// Trace sink: [`SharedSink::disabled`] (the default) records
    /// nothing; an enabled sink is shared by the master loop and every
    /// worker thread, and the run's [`Trace`] lands in
    /// [`HarnessOutcome::trace`].
    pub trace: SharedSink,
}

impl HarnessConfig {
    /// A channels-transport config over the given workers.
    pub fn new(scheme: SchemeKind, workers: Vec<WorkerSpec>) -> Self {
        HarnessConfig {
            scheme,
            workers,
            acp: AcpConfig::PAPER,
            retry: BackoffPolicy::retry_default(),
            reconnect: BackoffPolicy::reconnect_default(),
            transport: Transport::Channels,
            lease: LeaseConfig::RUNTIME_DEFAULT,
            heartbeat_every: Some(Duration::from_millis(100)),
            reply_timeout: None,
            poll_interval: Duration::from_millis(2),
            trace: SharedSink::disabled(),
        }
    }

    /// Turns on tracing with a fresh default-capacity sink.
    pub fn traced(mut self) -> Self {
        self.trace = SharedSink::recording();
        self
    }

    /// The paper's p-slave mix: fast PEs first, then slow (3 fast +
    /// 5 slow for `p = 8`, scaled down as in the figures).
    pub fn paper_mix(scheme: SchemeKind, fast: usize, slow: usize) -> Self {
        let mut workers = Vec::with_capacity(fast + slow);
        workers.extend(std::iter::repeat_with(WorkerSpec::fast).take(fast));
        workers.extend(std::iter::repeat_with(WorkerSpec::slow).take(slow));
        Self::new(scheme, workers)
    }

    /// Virtual powers implied by the slowdowns (slowest PE = 1.0).
    pub fn virtual_powers(&self) -> Vec<VirtualPower> {
        let max_slowdown = self.workers.iter().map(|w| w.slowdown).max().unwrap_or(1);
        self.workers
            .iter()
            .map(|w| VirtualPower::new(max_slowdown as f64 / w.slowdown as f64))
            .collect()
    }
}

/// Everything a run produced.
#[derive(Debug)]
pub struct HarnessOutcome {
    /// Table-style report (wall-clock times), fault log included.
    pub report: RunReport,
    /// Per-iteration results collected at the master (first result
    /// wins under speculation).
    pub results: Vec<u64>,
    /// Raw per-worker stats.
    pub worker_stats: Vec<WorkerStats>,
    /// Workers that never reached clean termination (crashed, hung, or
    /// declared dead).
    pub failed_workers: Vec<usize>,
    /// Fault-handling decisions, in time order (same data as
    /// `report.faults`).
    pub faults: FaultLog,
    /// Speculative re-executions granted near end-of-loop.
    pub speculative_grants: u64,
    /// Results dropped by first-result-wins dedup.
    pub duplicates_dropped: u64,
    /// The run's event timeline (`None` when tracing was off).
    pub trace: Option<Trace>,
}

/// Executes the full loop under the configured scheme and cluster.
///
/// # Panics
/// On internal errors (the master dying, a *healthy-plan* worker
/// failing) and when any iteration's result fails to arrive — the loop
/// is completable as long as one worker survives; a run where every
/// worker dies is a configuration bug in this harness's eyes.
pub fn run_scheduled_loop<W: Workload + 'static>(
    cfg: &HarnessConfig,
    workload: Arc<W>,
) -> HarnessOutcome {
    let p = cfg.workers.len();
    assert!(p >= 1, "need at least one worker");
    let initial_q: Vec<u32> = cfg.workers.iter().map(|w| w.load.q()).collect();
    let mut master = Master::new(MasterConfig {
        scheme: cfg.scheme,
        total: workload.len(),
        powers: cfg.virtual_powers(),
        initial_q,
        acp: cfg.acp,
    });
    master.set_lease_config(cfg.lease);

    let run = launch(cfg, &workload, &mut master, None, None);
    let t_p = run.wall.as_secs_f64();

    let per_pe: Vec<TimeBreakdown> = run
        .stats
        .iter()
        .map(|s| TimeBreakdown {
            t_com: s.t_com.as_secs_f64(),
            t_wait: s.t_wait.as_secs_f64(),
            t_comp: s.t_comp.as_secs_f64(),
        })
        .collect();
    let iterations: Vec<u64> = (0..p).map(|w| master.iterations_served(w)).collect();
    let report = RunReport::new(
        cfg.scheme.name(),
        per_pe,
        t_p,
        master.total_scheduling_steps(),
        iterations,
    )
    .with_faults(run.outcome.faults.clone());
    HarnessOutcome {
        report,
        results: run.results,
        worker_stats: run.stats,
        failed_workers: run.outcome.failed_workers,
        faults: run.outcome.faults,
        speculative_grants: run.outcome.speculative_grants,
        duplicates_dropped: run.outcome.duplicates_dropped,
        trace: run.trace,
    }
}

/// What [`launch`] produced.
pub(crate) struct Launched {
    /// Per-iteration results, every one present.
    pub(crate) results: Vec<u64>,
    /// The master loop's outcome.
    pub(crate) outcome: ResilientOutcome,
    /// Per-worker stats in id order (default for a failed faulty one).
    pub(crate) stats: Vec<WorkerStats>,
    /// The run's event timeline (`None` when tracing was off).
    pub(crate) trace: Option<Trace>,
    /// Wall time from spawning the workers to joining the last one.
    pub(crate) wall: Duration,
}

/// The launcher both harnesses share: spawns one thread per worker
/// spec, runs the master loop over `backend` on the calling thread, and
/// joins the workers. With `claims`, workers self-schedule fresh chunks
/// from that set's counters. `hello_delay` is a test hook: worker `.0`
/// sleeps `.1` before sending its hello.
///
/// The loop starts only once every worker's hello is queued: over TCP
/// `accept_workers` waits for them, over channels a barrier does. The
/// master then serves every hello before any second request, so a fault
/// planned for a worker's first grant always fires.
///
/// # Panics
/// When the master fails, a healthy-plan worker fails, or an
/// iteration's result never arrives.
pub(crate) fn launch<W: Workload + 'static, B: GrantBackend>(
    cfg: &HarnessConfig,
    workload: &Arc<W>,
    backend: B,
    claims: Option<&Arc<ShardSet>>,
    hello_delay: Option<(usize, Duration)>,
) -> Launched {
    let p = cfg.workers.len();
    // Per-thread state: config, workload, claim handle, pre-hello pause.
    let per_worker = cfg.workers.iter().enumerate().map(|(id, spec)| {
        let wcfg = WorkerConfig {
            id,
            slowdown: spec.slowdown,
            load: spec.load.clone(),
            retry: cfg.retry,
            reconnect: cfg.reconnect,
            fault: spec.fault.clone(),
            heartbeat_every: cfg.heartbeat_every,
            reply_timeout: cfg.reply_timeout,
            trace: cfg.trace.clone(),
        };
        let sw = claims.map(|set| set.self_worker(id));
        let delay = hello_delay.filter(|&(w, _)| w == id).map(|(_, d)| d);
        (wcfg, Arc::clone(workload), sw, delay)
    });

    let t0 = Instant::now();
    let (outcome, handles) = match cfg.transport {
        Transport::Channels => {
            let (mt, wts) = channel_transport(p);
            let all_hellos_queued = Arc::new(Barrier::new(p + 1));
            let handles: Vec<_> = wts
                .into_iter()
                .zip(per_worker)
                .map(|(mut wt, (wcfg, wl, sw, delay))| {
                    let barrier = Arc::clone(&all_hellos_queued);
                    std::thread::spawn(move || {
                        std::thread::sleep(delay.unwrap_or_default());
                        let hello = Request { worker: wcfg.id, q: wcfg.load.q(), result: None };
                        let hello = wt.send_request(hello);
                        barrier.wait();
                        let res = hello
                            .and_then(|()| run_worker_loop(wt, &wcfg, wl.as_ref(), true, sw));
                        (wcfg, res)
                    })
                })
                .collect();
            all_hellos_queued.wait();
            (run_resilient_master(mt, backend, cfg.poll_interval, cfg.trace.clone()), handles)
        }
        Transport::TcpEvented => {
            let listener = evented_listen().expect("listen failed");
            let addr = listener.addr;
            let handles: Vec<_> = per_worker
                .map(|(wcfg, wl, sw, delay)| {
                    std::thread::spawn(move || {
                        std::thread::sleep(delay.unwrap_or_default());
                        // The connect handshake doubles as the hello.
                        let hello = Request { worker: wcfg.id, q: wcfg.load.q(), result: None };
                        let res = TcpWorker::connect(addr, hello)
                            .and_then(|wt| run_worker_loop(wt, &wcfg, wl.as_ref(), true, sw));
                        (wcfg, res)
                    })
                })
                .collect();
            let mt = listener.accept_workers(p).expect("accept failed");
            (run_resilient_master(mt, backend, cfg.poll_interval, cfg.trace.clone()), handles)
        }
    };
    let outcome = outcome.expect("master failed");
    // A worker with an injected fault may legitimately end in a
    // transport error (e.g. it gave up redialling); a healthy worker
    // may not.
    let stats: Vec<WorkerStats> = handles
        .into_iter()
        .map(|h| match h.join().expect("worker panicked") {
            (_, Ok(stats)) => stats,
            (wcfg, Err(_)) if !wcfg.fault.is_healthy() => WorkerStats::default(),
            (wcfg, Err(e)) => panic!("healthy worker {} failed: {e}", wcfg.id),
        })
        .collect();
    let wall = t0.elapsed();

    let results: Vec<u64> = outcome
        .results
        .iter()
        .enumerate()
        .map(|(i, r)| {
            r.unwrap_or_else(|| {
                panic!(
                    "iteration {i} result missing (failed workers: {:?}; the loop \
                     is only completable while at least one worker survives)",
                    outcome.failed_workers
                )
            })
        })
        .collect();
    let trace = cfg.trace.enabled().then(|| {
        cfg.trace.take(TraceMeta {
            scheme: cfg.scheme.name().to_string(),
            workers: p,
            total_iterations: workload.len(),
            clock: ClockDomain::Monotonic,
        })
    });
    Launched { results, outcome, stats, trace, wall }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lss_workloads::{SyntheticWorkload, UniformLoop};

    #[test]
    fn channels_run_completes_and_results_match() {
        let w = Arc::new(UniformLoop::new(200, 500));
        let cfg = HarnessConfig::paper_mix(SchemeKind::Tfss, 2, 2);
        let out = run_scheduled_loop(&cfg, Arc::clone(&w));
        assert_eq!(out.results.len(), 200);
        for i in 0..200u64 {
            assert_eq!(out.results[i as usize], w.execute(i), "iteration {i}");
        }
        assert_eq!(out.report.iterations.iter().sum::<u64>(), 200);
        assert!(out.faults.is_empty(), "healthy run logged faults:\n{}", out.faults.render());
        assert!(!out.report.had_faults());
    }

    #[test]
    fn evented_tcp_run_completes() {
        let w = Arc::new(UniformLoop::new(60, 500));
        let mut cfg = HarnessConfig::paper_mix(SchemeKind::Fss, 2, 0);
        cfg.transport = Transport::TcpEvented;
        let out = run_scheduled_loop(&cfg, Arc::clone(&w));
        assert_eq!(out.results.len(), 60);
        for i in 0..60u64 {
            assert_eq!(out.results[i as usize], w.execute(i));
        }
        assert!(out.faults.is_empty(), "{}", out.faults.render());
    }

    #[test]
    fn evented_tcp_survives_a_crashing_worker() {
        let w = Arc::new(UniformLoop::new(120, 400));
        let mut cfg = HarnessConfig::paper_mix(SchemeKind::Css { k: 10 }, 2, 0);
        cfg.transport = Transport::TcpEvented;
        // Crash on the first grant. Over TCP this always fires:
        // `accept_workers` returns only after every worker's hello is
        // in, so the master serves worker 2's hello before either
        // peer's second request, and CSS k=10 has more chunks than
        // workers, so that hello is granted a chunk.
        cfg.workers.push(WorkerSpec::failing_after(0));
        let out = run_scheduled_loop(&cfg, Arc::clone(&w));
        assert_eq!(out.results.len(), 120);
        for i in 0..120u64 {
            assert_eq!(out.results[i as usize], w.execute(i));
        }
        assert_eq!(out.failed_workers, vec![2]);
        assert!(!out.faults.is_empty(), "crash must be visible in the log");
    }

    #[test]
    fn fast_workers_do_more_under_self_scheduling() {
        let w = Arc::new(UniformLoop::new(300, 8_000));
        let cfg = HarnessConfig::paper_mix(SchemeKind::Css { k: 5 }, 1, 1);
        let out = run_scheduled_loop(&cfg, w);
        assert!(
            out.report.iterations[0] > out.report.iterations[1],
            "fast should out-pull slow: {:?}",
            out.report.iterations
        );
    }

    #[test]
    fn distributed_scheme_runs_with_live_load_change() {
        let w = Arc::new(UniformLoop::new(400, 4_000));
        let cfg = HarnessConfig::paper_mix(SchemeKind::Dtss, 2, 2);
        let load = cfg.workers[0].load.clone();
        // Overload worker 0 shortly after the run starts.
        let flipper = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(5));
            load.set_q(4);
        });
        let out = run_scheduled_loop(&cfg, w);
        flipper.join().unwrap();
        assert_eq!(out.results.len(), 400);
    }

    #[test]
    fn every_scheme_completes_end_to_end() {
        let w = Arc::new(SyntheticWorkload::new((0..97).map(|i| i % 13 + 1).collect()));
        for scheme in [
            SchemeKind::Static,
            SchemeKind::Css { k: 4 },
            SchemeKind::Gss { min_chunk: 2 },
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
            assert_eq!(
                out.report.iterations.iter().sum::<u64>(),
                97,
                "{} dropped iterations",
                scheme.name()
            );
        }
    }

    #[test]
    fn traced_channels_run_reconciles_with_worker_stats() {
        let w = Arc::new(UniformLoop::new(200, 2_000));
        let cfg = HarnessConfig::paper_mix(SchemeKind::Tfss, 2, 2).traced();
        let out = run_scheduled_loop(&cfg, Arc::clone(&w));
        let trace = out.trace.expect("tracing was on");
        assert_eq!(trace.meta.clock, ClockDomain::Monotonic);
        assert_eq!(trace.meta.scheme, "TFSS");
        assert_eq!(trace.meta.workers, 4);
        assert_eq!(trace.dropped, 0, "paper-scale run must fit the ring");

        // Trace-derived breakdowns equal the workers' own stats. The
        // nanosecond sums are identical; only the final ns→s conversion
        // differs (Duration::as_secs_f64 vs ns/1e9), so compare at a
        // float-rounding tolerance.
        let derived = TimeBreakdown::all_from_trace(&trace);
        assert_eq!(derived.len(), 4);
        for (s, d) in out.worker_stats.iter().zip(&derived) {
            assert!((s.t_com.as_secs_f64() - d.t_com).abs() < 1e-6, "{s:?} vs {d:?}");
            assert!((s.t_wait.as_secs_f64() - d.t_wait).abs() < 1e-6, "{s:?} vs {d:?}");
            assert!((s.t_comp.as_secs_f64() - d.t_comp).abs() < 1e-6, "{s:?} vs {d:?}");
        }

        // Lifecycle completeness: every chunk the master served shows
        // up as a grant, and every worker connected exactly once.
        let grants = trace.count_kind(|k| matches!(k, lss_trace::EventKind::Granted { .. }));
        assert_eq!(grants as u64, out.report.scheduling_steps);
        let connects =
            trace.count_kind(|k| matches!(k, lss_trace::EventKind::WorkerConnected));
        assert_eq!(connects, 4);
        let completed = trace.count_kind(|k| matches!(k, lss_trace::EventKind::Completed));
        assert!(completed >= 1 && completed <= grants);

        // The timeline is monotone and reconstructable into lanes.
        let lanes = lss_trace::gantt(&trace);
        assert_eq!(lanes.len(), 4);
        assert_eq!(
            lanes.iter().map(|l| l.spans.len()).sum::<usize>(),
            completed,
            "every completion pairs with a start"
        );
        assert!(lanes.iter().all(|l| l.unfinished.is_empty()));
    }

    #[test]
    fn traced_tcp_run_produces_the_same_schema() {
        let w = Arc::new(UniformLoop::new(60, 500));
        let mut cfg = HarnessConfig::paper_mix(SchemeKind::Gss { min_chunk: 1 }, 2, 0).traced();
        cfg.transport = Transport::TcpEvented;
        let out = run_scheduled_loop(&cfg, Arc::clone(&w));
        let trace = out.trace.expect("tracing was on");
        assert_eq!(trace.meta.clock, ClockDomain::Monotonic);
        assert!(trace.count_kind(|k| matches!(k, lss_trace::EventKind::Granted { .. })) > 0);
        assert!(trace.count_kind(|k| matches!(k, lss_trace::EventKind::Completed)) > 0);
        // Same schema as the simulator: the Chrome exporter accepts it.
        let json = lss_trace::to_chrome_json(&trace);
        let n = lss_trace::validate_chrome_trace(&json).expect("valid Chrome trace");
        assert!(n > 0);
    }

    #[test]
    fn untraced_run_reports_no_trace() {
        let w = Arc::new(UniformLoop::new(40, 200));
        let cfg = HarnessConfig::paper_mix(SchemeKind::Css { k: 5 }, 1, 1);
        let out = run_scheduled_loop(&cfg, w);
        assert!(out.trace.is_none());
    }

    #[test]
    fn crashing_worker_does_not_stop_the_loop() {
        let w = Arc::new(UniformLoop::new(120, 400));
        let mut cfg = HarnessConfig::paper_mix(SchemeKind::Css { k: 10 }, 2, 0);
        // Crash on the first grant, the one grant a worker is sure of:
        // the master starts only once every hello is queued, so worker
        // 2's hello is served before any second request. A later crash
        // point could find the fast peers have drained the loop.
        cfg.workers.push(WorkerSpec::failing_after(0));
        let out = run_scheduled_loop(&cfg, Arc::clone(&w));
        assert_eq!(out.results.len(), 120);
        for i in 0..120u64 {
            assert_eq!(out.results[i as usize], w.execute(i));
        }
        assert_eq!(out.failed_workers, vec![2]);
        assert!(!out.faults.is_empty(), "crash must be visible in the log");
    }

    #[test]
    fn late_hello_still_gets_the_crashing_grant() {
        // Worker 2 sends its hello long after its peers could have
        // drained the loop; the start barrier still makes the master
        // serve it first, so its crash on the first grant fires.
        let w = Arc::new(UniformLoop::new(120, 400));
        let mut cfg = HarnessConfig::paper_mix(SchemeKind::Css { k: 10 }, 2, 0);
        cfg.workers.push(WorkerSpec::failing_after(0));
        let mut master = Master::new(MasterConfig::homogeneous(cfg.scheme, 120, 3));
        let late = Some((2, Duration::from_millis(200)));
        let run = launch(&cfg, &w, &mut master, None, late);
        assert_eq!(run.outcome.failed_workers, vec![2]);
        assert!((0..120).all(|i| run.results[i as usize] == w.execute(i)));
    }
}
