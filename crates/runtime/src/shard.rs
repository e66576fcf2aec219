//! Sharded master loop + harness: N master shards (work-stealing) or
//! worker self-calculated chunks, over channels and TCP.
//!
//! Two pieces live here:
//!
//! - [`run_sharded_master`] — the fault-tolerant master loop of
//!   [`crate::master::run_resilient_master`] re-targeted at an
//!   [`lss_shard::ShardSet`]: same inbound protocol, same fault log,
//!   same termination contract, but grants fan out across shards (with
//!   work-stealing) instead of funnelling through one dispenser.
//! - [`run_sharded_loop`] — the one-call harness: spawns the master
//!   and `p` emulated workers on channels or localhost TCP. In
//!   [`GrantMode::Sharded`] workers run the standard slave loop
//!   ([`crate::worker::run_worker`], full chaos support). In
//!   [`GrantMode::SelfSched`] workers claim fresh chunks lock-free
//!   from the shared counters ([`lss_shard::SelfWorker`]) and use the
//!   master connection only to deliver results and absorb recovered
//!   work. The in-process counter stands in for MPI passive-target
//!   RMA, which is why the set is shared directly while results still
//!   cross the real transport.

use std::sync::Arc;
use std::time::{Duration, Instant};

use lss_core::chunk::Chunk;
use lss_core::fault::{ChaosRng, LeaseConfig};
use lss_core::master::{Assignment, SchemeKind};
use lss_metrics::{FaultEvent, FaultKind, FaultLog};
use lss_shard::{GrantMode, SelfWorker, ShardSet, ShardSetConfig, ShardStats};
use lss_trace::{ClockDomain, EventKind, SharedSink, Trace, TraceEvent, TraceMeta};
use lss_workloads::Workload;

use crate::harness::{Transport, WorkerSpec};
use crate::master::ResilientOutcome;
use crate::protocol::{ChunkResult, Reply, Request};
use crate::transport::channels::channel_transport;
use crate::transport::evented::evented_listen;
use crate::transport::tcp::TcpWorker;
use crate::transport::{Inbound, MasterTransport, TransportError, WorkerTransport};
use crate::worker::{run_worker, WorkerConfig};

/// Appends to the fault log and mirrors the entry onto the trace
/// timeline (kinds the set already emits itself map to `None`).
fn log_fault(faults: &mut FaultLog, trace: &SharedSink, ev: FaultEvent) {
    if trace.enabled() {
        if let Some(t) = ev.to_trace() {
            trace.record(t);
        }
    }
    faults.push(ev);
}

/// Runs the sharded master until every iteration is complete and every
/// worker is finished, gone, or given up on — the same contract as
/// [`crate::master::run_resilient_master`], with grants served
/// by the [`ShardSet`] (home shard → steal → reclaim → speculate).
///
/// The set must have been built with the same `trace` sink, so shard
/// events (joins, steals, self-grants) and loop events share one
/// timeline.
pub fn run_sharded_master<T: MasterTransport>(
    mut transport: T,
    set: &ShardSet,
    poll_interval: Duration,
    trace: SharedSink,
) -> Result<ResilientOutcome, TransportError> {
    let p = set.workers();
    assert!(p >= 1, "need at least one worker");
    let epoch = Instant::now();
    let traced = trace.enabled();
    let now_ns = {
        let trace = trace.clone();
        move || {
            if traced {
                trace.now_ns()
            } else {
                epoch.elapsed().as_nanos() as u64
            }
        }
    };
    let secs = |ns: u64| ns as f64 / 1e9;
    let mut seen = vec![false; p];

    let mut results: Vec<Option<u64>> = vec![None; set.total() as usize];
    let mut requests_served = 0u64;
    let mut duplicates_dropped = 0u64;
    let mut done = vec![false; p]; // told Finished
    let mut link_down = vec![false; p];
    let mut last_seen = vec![0u64; p];
    let mut faults = FaultLog::new();
    let lease_cfg: LeaseConfig = *set.lease_config();
    let silence_limit = lease_cfg.base_ticks.saturating_add(lease_cfg.dead_after_ticks);

    loop {
        let now = now_ns();

        // Expire overdue leases on every shard; the set requeues and
        // emits the lifecycle trace events itself.
        for exp in set.poll(now) {
            let l = exp.lease;
            log_fault(&mut faults, &trace,
                FaultEvent::new(secs(now), FaultKind::LeaseExpired, "lease deadline passed")
                    .on_worker(l.worker)
                    .on_chunk(l.chunk.start, l.chunk.len),
            );
            if !set.ledger().chunk_fully_complete(l.chunk) {
                log_fault(&mut faults, &trace,
                    FaultEvent::new(secs(now), FaultKind::Requeued, "chunk returned to shard pool")
                        .on_worker(l.worker)
                        .on_chunk(l.chunk.start, l.chunk.len),
                );
            }
            if exp.holder_dead {
                log_fault(&mut faults, &trace,
                    FaultEvent::new(secs(now), FaultKind::WorkerDead, "silent past grace window")
                        .on_worker(l.worker),
                );
            }
        }

        // Termination: every iteration completed AND every worker is
        // finished, gone, or given up on.
        if set.all_complete()
            && (0..p).all(|w| {
                done[w]
                    || link_down[w]
                    || set.worker_is_dead(w)
                    || now.saturating_sub(last_seen[w]) > silence_limit
            })
        {
            break;
        }

        let timeout = match set.next_deadline() {
            Some(d) => poll_interval.min(Duration::from_nanos(d.saturating_sub(now).max(1))),
            None => poll_interval,
        };
        let event = match transport.recv_timeout(timeout) {
            Ok(ev) => ev,
            Err(e) if e.is_disconnect() => break, // every worker gone
            Err(e) => return Err(e),
        };

        match event {
            None => continue, // timeout: loop to poll leases
            Some(Inbound::Heartbeat { worker }) => {
                if worker >= p {
                    return Err(TransportError::UnknownWorker(worker));
                }
                let now = now_ns();
                last_seen[worker] = now;
                set.heartbeat(worker, now);
                if traced {
                    if !seen[worker] {
                        seen[worker] = true;
                        trace.record(
                            TraceEvent::new(now, EventKind::WorkerConnected).on_worker(worker),
                        );
                    }
                    trace.record(TraceEvent::new(now, EventKind::Heartbeat).on_worker(worker));
                }
            }
            Some(Inbound::Disconnected(w)) => {
                if w >= p {
                    return Err(TransportError::UnknownWorker(w));
                }
                if !done[w] && !link_down[w] {
                    let now = now_ns();
                    link_down[w] = true;
                    log_fault(&mut faults, &trace,
                        FaultEvent::new(secs(now), FaultKind::Disconnected, "link lost")
                            .on_worker(w),
                    );
                    for chunk in set.worker_disconnected(w, now) {
                        log_fault(&mut faults, &trace,
                            FaultEvent::new(
                                secs(now),
                                FaultKind::Requeued,
                                "chunk reclaimed from lost worker",
                            )
                            .on_worker(w)
                            .on_chunk(chunk.start, chunk.len),
                        );
                    }
                }
            }
            Some(Inbound::Reconnected(w)) => {
                if w >= p {
                    return Err(TransportError::UnknownWorker(w));
                }
                let now = now_ns();
                link_down[w] = false;
                last_seen[w] = now;
                set.worker_reconnected(w, now);
                log_fault(&mut faults, &trace,
                    FaultEvent::new(secs(now), FaultKind::Recovered, "worker reconnected")
                        .on_worker(w),
                );
            }
            Some(Inbound::Request(req)) => {
                let w = req.worker;
                if w >= p {
                    return Err(TransportError::UnknownWorker(w));
                }
                requests_served += 1;
                let now = now_ns();
                if traced && !seen[w] {
                    seen[w] = true;
                    trace.record(TraceEvent::new(now, EventKind::WorkerConnected).on_worker(w));
                }
                if set.worker_is_dead(w) {
                    log_fault(&mut faults, &trace,
                        FaultEvent::new(
                            secs(now),
                            FaultKind::Recovered,
                            "request from a worker declared dead",
                        )
                        .on_worker(w),
                    );
                }
                last_seen[w] = now;
                link_down[w] = false;

                if let Some(res) = &req.result {
                    if res.chunk.end() > set.total() {
                        return Err(TransportError::Malformed(format!(
                            "result for out-of-range chunk {:?}",
                            res.chunk
                        )));
                    }
                    // First result wins: write only still-empty slots.
                    for (offset, &v) in res.values.iter().enumerate() {
                        let idx = (res.chunk.start as usize) + offset;
                        if results[idx].is_none() {
                            results[idx] = Some(v);
                        }
                    }
                    let out = set.complete(w, res.chunk, now);
                    if out.duplicate {
                        duplicates_dropped += 1;
                        log_fault(&mut faults, &trace,
                            FaultEvent::new(
                                secs(now),
                                FaultKind::DuplicateDropped,
                                "iterations already completed elsewhere",
                            )
                            .on_worker(w)
                            .on_chunk(res.chunk.start, res.chunk.len),
                        );
                    }
                }

                let spec_before = set.speculative_grants();
                let assignment = set.grant(w, req.q, now);
                if set.speculative_grants() > spec_before {
                    if let Assignment::Chunk(c) = assignment {
                        log_fault(&mut faults, &trace,
                            FaultEvent::new(
                                secs(now),
                                FaultKind::Speculated,
                                "idle worker re-executes a straggler's chunk",
                            )
                            .on_worker(w)
                            .on_chunk(c.start, c.len),
                        );
                    }
                }
                if assignment == Assignment::Finished {
                    done[w] = true;
                }
                if transport.send(w, Reply { assignment }).is_err() {
                    // Vanished between request and reply: reclaim.
                    let now = now_ns();
                    done[w] = false;
                    link_down[w] = true;
                    log_fault(&mut faults, &trace,
                        FaultEvent::new(secs(now), FaultKind::Disconnected, "reply undeliverable")
                            .on_worker(w),
                    );
                    for chunk in set.worker_disconnected(w, now) {
                        log_fault(&mut faults, &trace,
                            FaultEvent::new(
                                secs(now),
                                FaultKind::Requeued,
                                "grant reclaimed after failed reply",
                            )
                            .on_worker(w)
                            .on_chunk(chunk.start, chunk.len),
                        );
                    }
                }
            }
        }
    }

    let failed_workers: Vec<usize> = (0..p).filter(|&w| !done[w]).collect();
    Ok(ResilientOutcome {
        results,
        requests_served,
        failed_workers,
        speculative_grants: set.speculative_grants(),
        duplicates_dropped,
        faults,
    })
}

/// Sharded-harness configuration.
#[derive(Debug, Clone)]
pub struct ShardHarnessConfig {
    /// Scheme under test (must have a closed-form formula).
    pub scheme: SchemeKind,
    /// Number of master shards.
    pub shards: usize,
    /// Fresh-chunk grant path.
    pub mode: GrantMode,
    /// The emulated PEs.
    pub workers: Vec<WorkerSpec>,
    /// Transport to wire up.
    pub transport: Transport,
    /// Lease policy for every shard.
    pub lease: LeaseConfig,
    /// Heartbeat interval while computing (`None` = no heartbeats).
    pub heartbeat_every: Option<Duration>,
    /// Master wake-up bound for lease polling.
    pub poll_interval: Duration,
    /// Trace sink shared by the set, the master loop and every worker.
    pub trace: SharedSink,
}

impl ShardHarnessConfig {
    /// Sharded (locked) grants over channels.
    pub fn new(scheme: SchemeKind, shards: usize, workers: Vec<WorkerSpec>) -> Self {
        ShardHarnessConfig {
            scheme,
            shards,
            mode: GrantMode::Sharded,
            workers,
            transport: Transport::Channels,
            lease: LeaseConfig::RUNTIME_DEFAULT,
            heartbeat_every: Some(Duration::from_millis(100)),
            poll_interval: Duration::from_millis(2),
            trace: SharedSink::disabled(),
        }
    }

    /// Self-scheduled grants over channels.
    pub fn self_sched(scheme: SchemeKind, shards: usize, workers: Vec<WorkerSpec>) -> Self {
        ShardHarnessConfig { mode: GrantMode::SelfSched, ..Self::new(scheme, shards, workers) }
    }

    /// Turns on tracing with a fresh default-capacity sink.
    pub fn traced(mut self) -> Self {
        self.trace = SharedSink::recording();
        self
    }
}

/// Everything a sharded run produced.
#[derive(Debug)]
pub struct ShardHarnessOutcome {
    /// Per-iteration results (first result wins under duplication).
    pub results: Vec<u64>,
    /// Workers that never reached clean termination.
    pub failed_workers: Vec<usize>,
    /// Fault-handling decisions, in time order.
    pub faults: FaultLog,
    /// Cross-shard steals performed.
    pub steals: u64,
    /// Chunks claimed over the lock-free self-scheduling path.
    pub self_grants: u64,
    /// Speculative re-executions granted.
    pub speculative_grants: u64,
    /// Results dropped by first-result-wins dedup.
    pub duplicates_dropped: u64,
    /// Iterations granted to each worker (all paths).
    pub iterations_served: Vec<u64>,
    /// Per-shard counters.
    pub shard_stats: Vec<ShardStats>,
    /// The run's event timeline (`None` when tracing was off).
    pub trace: Option<Trace>,
}

/// The self-scheduling slave loop: claim a chunk lock-free, compute
/// it, deliver the result over the transport, absorb any recovery
/// chunk the master hands back, repeat. Supports the crash-after-N-
/// chunks plan (the worker vanishes holding its claim); richer chaos
/// plans run the standard loop in [`GrantMode::Sharded`] instead.
fn run_self_sched_worker<T: WorkerTransport>(
    mut transport: T,
    mut sw: SelfWorker,
    cfg: &WorkerConfig,
    workload: &dyn Workload,
    first_request_sent: bool,
) -> Result<u64, TransportError> {
    let traced = cfg.trace.enabled();
    let epoch = Instant::now();
    // Claim timestamps only feed trace events, so a per-thread epoch is
    // fine when the shared (sink) clock is off.
    let now_ns =
        || if traced { cfg.trace.now_ns() } else { epoch.elapsed().as_nanos() as u64 };
    let mut rng = ChaosRng::new(cfg.fault.seed ^ (cfg.id as u64).wrapping_mul(0x9E37));
    let mut chunks = 0u64;
    let mut iters = 0u64;
    let mut pending: Option<ChunkResult> = None;
    let mut self_done = false;
    let mut skip_send = first_request_sent;
    let mut retry_attempt = 0u32;

    fn compute<T: WorkerTransport>(
        transport: &mut T,
        cfg: &WorkerConfig,
        workload: &dyn Workload,
        chunk: Chunk,
        iters: &mut u64,
    ) -> ChunkResult {
        if cfg.trace.enabled() {
            cfg.trace.record_now(
                TraceEvent::new(0, EventKind::Started)
                    .on_worker(cfg.id)
                    .on_chunk(chunk.start, chunk.len),
            );
        }
        let t0 = Instant::now();
        let reps = u64::from(cfg.slowdown) * u64::from(cfg.load.q());
        let mut last_hb = Instant::now();
        let values: Vec<u64> = chunk
            .iter()
            .map(|i| {
                let v = workload.execute(i);
                for _ in 1..reps {
                    std::hint::black_box(workload.execute(i));
                }
                if let Some(every) = cfg.heartbeat_every {
                    if last_hb.elapsed() >= every {
                        let _ = transport.send_heartbeat(cfg.id);
                        last_hb = Instant::now();
                    }
                }
                v
            })
            .collect();
        *iters += chunk.len;
        if cfg.trace.enabled() {
            let ns = t0.elapsed().as_nanos() as u64;
            cfg.trace.record_now(
                TraceEvent::new(0, EventKind::Comp { ns })
                    .on_worker(cfg.id)
                    .on_chunk(chunk.start, chunk.len),
            );
            cfg.trace.record_now(
                TraceEvent::new(0, EventKind::Completed)
                    .on_worker(cfg.id)
                    .on_chunk(chunk.start, chunk.len),
            );
        }
        ChunkResult::new(chunk, values)
    }

    loop {
        if !skip_send {
            // Hot path: claim and compute locally while the replicated
            // formulas still have fresh chunks. The ledger mark happens
            // at the master when the result lands (single marking
            // path), keeping the master's drain-reclaim window honest.
            if pending.is_none() && !self_done {
                match sw.next_chunk(now_ns()) {
                    Some((_, _, chunk)) => {
                        if cfg.fault.crash_after_chunks == Some(chunks) {
                            // Injected crash: vanish holding the claim;
                            // the master reclaims it by formula replay.
                            return Ok(iters);
                        }
                        pending = Some(compute(&mut transport, cfg, workload, chunk, &mut iters));
                        chunks += 1;
                    }
                    None => self_done = true,
                }
            }
            let t0 = Instant::now();
            transport.send_request(Request {
                worker: cfg.id,
                q: cfg.load.q(),
                result: pending.take(),
            })?;
            if traced {
                cfg.trace.record_now(
                    TraceEvent::new(0, EventKind::Comm { ns: t0.elapsed().as_nanos() as u64 })
                        .on_worker(cfg.id),
                );
            }
        } else {
            skip_send = false;
        }

        let t1 = Instant::now();
        let assignment = transport.recv_reply()?.assignment;
        if traced {
            cfg.trace.record_now(
                TraceEvent::new(0, EventKind::Wait { ns: t1.elapsed().as_nanos() as u64 })
                    .on_worker(cfg.id),
            );
        }
        match assignment {
            Assignment::Chunk(chunk) => {
                // Recovery work granted under a lease.
                if cfg.fault.crash_after_chunks == Some(chunks) {
                    return Ok(iters);
                }
                retry_attempt = 0;
                pending = Some(compute(&mut transport, cfg, workload, chunk, &mut iters));
                chunks += 1;
            }
            Assignment::Retry => {
                // Only pace down once local claims are exhausted —
                // until then every round trip carries a fresh result.
                if self_done && pending.is_none() {
                    let pause = cfg.retry.delay(retry_attempt, &mut rng);
                    retry_attempt = retry_attempt.saturating_add(1);
                    std::thread::sleep(pause);
                    if traced {
                        cfg.trace.record_now(
                            TraceEvent::new(0, EventKind::Wait { ns: pause.as_nanos() as u64 })
                                .on_worker(cfg.id),
                        );
                    }
                }
            }
            Assignment::Finished => return Ok(iters),
        }
    }
}

/// Dispatches one worker thread's body by grant mode.
fn drive_one<T: WorkerTransport>(
    wt: T,
    sw: Option<SelfWorker>,
    wcfg: &WorkerConfig,
    workload: &dyn Workload,
    first_request_sent: bool,
) -> Result<u64, TransportError> {
    match sw {
        Some(sw) => run_self_sched_worker(wt, sw, wcfg, workload, first_request_sent),
        None => run_worker(wt, wcfg, workload, first_request_sent).map(|s| s.iterations),
    }
}

/// Executes the full loop on a sharded master over the configured
/// transport and grant mode.
///
/// # Panics
/// On internal errors (master death, a healthy-plan worker failing,
/// a missing iteration result) and on unsupported configurations
/// (a scheme with no closed-form formula).
pub fn run_sharded_loop<W: Workload + 'static>(
    cfg: &ShardHarnessConfig,
    workload: Arc<W>,
) -> ShardHarnessOutcome {
    let p = cfg.workers.len();
    assert!(p >= 1, "need at least one worker");
    let set = Arc::new(
        ShardSet::new(
            ShardSetConfig {
                scheme: cfg.scheme,
                total: workload.len(),
                shards: cfg.shards,
                workers: p,
                mode: cfg.mode,
                lease: cfg.lease,
            },
            cfg.trace.clone(),
        )
        .expect("unsupported shard configuration"),
    );

    let worker_cfgs: Vec<WorkerConfig> = cfg
        .workers
        .iter()
        .enumerate()
        .map(|(id, spec)| WorkerConfig {
            id,
            slowdown: spec.slowdown,
            load: spec.load.clone(),
            retry: crate::backoff::BackoffPolicy::retry_default(),
            reconnect: crate::backoff::BackoffPolicy::reconnect_default(),
            fault: spec.fault.clone(),
            heartbeat_every: cfg.heartbeat_every,
            reply_timeout: None,
            trace: cfg.trace.clone(),
        })
        .collect();

    let (outcome, handles) = match cfg.transport {
        Transport::Channels => {
            let (mt, wts) = channel_transport(p);
            let handles: Vec<_> = wts
                .into_iter()
                .zip(worker_cfgs)
                .map(|(wt, wcfg)| {
                    let wl = Arc::clone(&workload);
                    let sw = matches!(cfg.mode, GrantMode::SelfSched)
                        .then(|| set.self_worker(wcfg.id));
                    std::thread::spawn(move || {
                        let id = wcfg.id;
                        (id, drive_one(wt, sw, &wcfg, wl.as_ref(), false))
                    })
                })
                .collect();
            let outcome = run_sharded_master(mt, &set, cfg.poll_interval, cfg.trace.clone())
                .expect("master failed");
            (outcome, handles)
        }
        Transport::TcpEvented => {
            let listener = evented_listen().expect("listen failed");
            let addr = listener.addr;
            let handles: Vec<_> = worker_cfgs
                .into_iter()
                .map(|wcfg| {
                    let wl = Arc::clone(&workload);
                    let sw = matches!(cfg.mode, GrantMode::SelfSched)
                        .then(|| set.self_worker(wcfg.id));
                    std::thread::spawn(move || {
                        let id = wcfg.id;
                        // The connect handshake doubles as the first
                        // request.
                        let first = Request { worker: id, q: wcfg.load.q(), result: None };
                        let res = TcpWorker::connect(addr, first)
                            .and_then(|wt| drive_one(wt, sw, &wcfg, wl.as_ref(), true));
                        (id, res)
                    })
                })
                .collect();
            let mt = listener.accept_workers(p).expect("accept failed");
            let outcome = run_sharded_master(mt, &set, cfg.poll_interval, cfg.trace.clone())
                .expect("master failed");
            (outcome, handles)
        }
    };
    // A worker with an injected fault may legitimately end in a
    // transport error; a healthy worker may not.
    for h in handles {
        if let (id, Err(e)) = h.join().expect("worker panicked") {
            assert!(!cfg.workers[id].fault.is_healthy(), "healthy worker {id} failed: {e}");
        }
    }

    let results: Vec<u64> = outcome
        .results
        .iter()
        .enumerate()
        .map(|(i, r)| {
            r.unwrap_or_else(|| {
                panic!(
                    "iteration {i} result missing (failed workers: {:?})",
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
    ShardHarnessOutcome {
        results,
        failed_workers: outcome.failed_workers,
        faults: outcome.faults,
        steals: set.steals(),
        self_grants: set.self_grants(),
        speculative_grants: set.speculative_grants(),
        duplicates_dropped: outcome.duplicates_dropped,
        iterations_served: (0..p).map(|w| set.iterations_served(w)).collect(),
        shard_stats: set.stats(),
        trace,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lss_workloads::UniformLoop;

    fn tight_lease() -> LeaseConfig {
        LeaseConfig {
            base_ticks: 50_000_000, // 50 ms
            default_ticks_per_iter: 0,
            grace: 8.0,
            dead_after_ticks: 30_000_000,
            max_speculations: 2,
        }
    }

    #[test]
    fn sharded_channels_run_completes() {
        let w = Arc::new(UniformLoop::new(300, 500));
        let cfg = ShardHarnessConfig::new(
            SchemeKind::Fss,
            4,
            vec![WorkerSpec::fast(), WorkerSpec::fast(), WorkerSpec::slow(), WorkerSpec::slow()],
        );
        let out = run_sharded_loop(&cfg, Arc::clone(&w));
        assert_eq!(out.results.len(), 300);
        for i in 0..300u64 {
            assert_eq!(out.results[i as usize], w.execute(i), "iteration {i}");
        }
        assert!(out.failed_workers.is_empty());
        assert!(out.faults.is_empty(), "{}", out.faults.render());
        assert_eq!(out.iterations_served.iter().sum::<u64>(), 300);
    }

    #[test]
    fn self_sched_channels_run_completes() {
        let w = Arc::new(UniformLoop::new(400, 300));
        let cfg = ShardHarnessConfig::self_sched(
            SchemeKind::Gss { min_chunk: 2 },
            2,
            vec![WorkerSpec::fast(), WorkerSpec::fast(), WorkerSpec::fast()],
        );
        let out = run_sharded_loop(&cfg, Arc::clone(&w));
        assert_eq!(out.results.len(), 400);
        for i in 0..400u64 {
            assert_eq!(out.results[i as usize], w.execute(i), "iteration {i}");
        }
        assert!(out.failed_workers.is_empty());
        assert!(out.self_grants > 0, "fresh chunks must come from the counters");
        assert_eq!(out.steals, 0, "self-sched roams counters instead of stealing");
    }

    #[test]
    fn sharded_tcp_run_completes() {
        let w = Arc::new(UniformLoop::new(120, 300));
        let mut cfg = ShardHarnessConfig::new(
            SchemeKind::Css { k: 10 },
            2,
            vec![WorkerSpec::fast(), WorkerSpec::fast()],
        );
        cfg.transport = Transport::TcpEvented;
        let out = run_sharded_loop(&cfg, Arc::clone(&w));
        assert_eq!(out.results.len(), 120);
        for i in 0..120u64 {
            assert_eq!(out.results[i as usize], w.execute(i));
        }
        assert!(out.faults.is_empty(), "{}", out.faults.render());
    }

    #[test]
    fn self_sched_tcp_run_completes() {
        let w = Arc::new(UniformLoop::new(150, 300));
        let mut cfg = ShardHarnessConfig::self_sched(
            SchemeKind::Tss,
            2,
            vec![WorkerSpec::fast(), WorkerSpec::fast()],
        );
        cfg.transport = Transport::TcpEvented;
        let out = run_sharded_loop(&cfg, Arc::clone(&w));
        assert_eq!(out.results.len(), 150);
        for i in 0..150u64 {
            assert_eq!(out.results[i as usize], w.execute(i));
        }
        assert!(out.self_grants > 0);
    }

    #[test]
    fn sharded_run_survives_a_crash() {
        let w = Arc::new(UniformLoop::new(200, 400));
        let mut cfg = ShardHarnessConfig::new(
            SchemeKind::Css { k: 10 },
            2,
            // Crash on the first grant, not the second: over channels
            // the master starts serving before every worker has asked,
            // so a later crash point lets the fast peers drain the loop
            // first.
            vec![WorkerSpec::fast(), WorkerSpec::fast(), WorkerSpec::failing_after(0)],
        );
        cfg.lease = tight_lease();
        let out = run_sharded_loop(&cfg, Arc::clone(&w));
        assert_eq!(out.results.len(), 200);
        for i in 0..200u64 {
            assert_eq!(out.results[i as usize], w.execute(i));
        }
        assert_eq!(out.failed_workers, vec![2]);
        assert!(!out.faults.is_empty(), "crash must be visible in the log");
    }

    #[test]
    fn self_sched_run_reclaims_a_crashed_claim() {
        let w = Arc::new(UniformLoop::new(200, 400));
        let mut cfg = ShardHarnessConfig::self_sched(
            SchemeKind::Css { k: 10 },
            2,
            // Crash on the first claim, not the second, so the crash
            // fires unless the fast peers claim every chunk before
            // worker 2 claims its first.
            vec![WorkerSpec::fast(), WorkerSpec::fast(), WorkerSpec::failing_after(0)],
        );
        cfg.lease = tight_lease();
        let out = run_sharded_loop(&cfg, Arc::clone(&w));
        assert_eq!(out.results.len(), 200);
        for i in 0..200u64 {
            assert_eq!(out.results[i as usize], w.execute(i), "iteration {i}");
        }
        assert_eq!(out.failed_workers, vec![2]);
    }

    #[test]
    fn traced_sharded_run_validates_and_carries_shard_events() {
        let w = Arc::new(UniformLoop::new(200, 300));
        let cfg = ShardHarnessConfig::new(
            SchemeKind::Fss,
            4,
            vec![WorkerSpec::fast(), WorkerSpec::fast()],
        )
        .traced();
        let out = run_sharded_loop(&cfg, Arc::clone(&w));
        let trace = out.trace.expect("tracing was on");
        assert!(trace.count_kind(|k| matches!(k, EventKind::ShardJoined { .. })) > 0);
        assert!(trace.count_kind(|k| matches!(k, EventKind::Granted { .. })) > 0);
        assert!(trace.count_kind(|k| matches!(k, EventKind::Completed)) > 0);
        // 2 workers homed on shards 0/1; shards 2/3 must be stolen from.
        assert!(out.steals > 0);
        assert!(trace.count_kind(|k| matches!(k, EventKind::ShardStole { .. })) > 0);
        let json = lss_trace::to_chrome_json(&trace);
        let n = lss_trace::validate_chrome_trace(&json).expect("valid Chrome trace");
        assert!(n > 0);
    }

    #[test]
    fn traced_self_sched_run_records_self_grants() {
        let w = Arc::new(UniformLoop::new(150, 300));
        let cfg = ShardHarnessConfig::self_sched(
            SchemeKind::Css { k: 5 },
            2,
            vec![WorkerSpec::fast(), WorkerSpec::fast()],
        )
        .traced();
        let out = run_sharded_loop(&cfg, Arc::clone(&w));
        let trace = out.trace.expect("tracing was on");
        let self_granted = trace.count_kind(|k| matches!(k, EventKind::SelfGranted { .. }));
        assert!(self_granted > 0);
        assert_eq!(self_granted as u64, out.self_grants);
        let json = lss_trace::to_chrome_json(&trace);
        assert!(lss_trace::validate_chrome_trace(&json).expect("valid") > 0);
    }
}
