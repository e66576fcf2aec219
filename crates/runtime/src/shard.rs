//! The sharded harness: N master shards (work-stealing) or worker
//! self-calculated chunks, over channels and TCP.
//!
//! [`run_sharded_loop`] is the one-call harness. It builds an
//! [`lss_shard::ShardSet`] and hands it to the same launcher and
//! master loop as [`crate::harness::run_scheduled_loop`]: `&ShardSet`
//! is one of the two [`crate::master::GrantBackend`]s of
//! [`crate::master::run_resilient_master`], so both harnesses share one
//! inbound protocol, fault log and termination contract. Workers run
//! the standard slave loop ([`crate::worker::run_worker`], full chaos
//! support) in both grant modes. In [`GrantMode::SelfSched`] that loop
//! claims fresh chunks lock-free from the shared counters
//! ([`lss_shard::SelfWorker`]) and uses the master connection only to
//! deliver results and absorb recovered work. The
//! in-process counter stands in for MPI passive-target RMA, which is
//! why the set is shared directly while results still cross the real
//! transport.

use std::sync::Arc;
use std::time::Duration;

use lss_core::fault::LeaseConfig;
use lss_core::master::SchemeKind;
use lss_metrics::FaultLog;
use lss_shard::{GrantMode, ShardSet, ShardSetConfig, ShardStats};
#[cfg(test)]
use lss_trace::EventKind;
use lss_trace::{SharedSink, Trace};
use lss_workloads::Workload;

use crate::harness::{launch, HarnessConfig, Transport, WorkerSpec};

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
    let harness = HarnessConfig {
        transport: cfg.transport,
        lease: cfg.lease,
        heartbeat_every: cfg.heartbeat_every,
        poll_interval: cfg.poll_interval,
        trace: cfg.trace.clone(),
        ..HarnessConfig::new(cfg.scheme, cfg.workers.clone())
    };
    let claims = matches!(cfg.mode, GrantMode::SelfSched).then_some(&set);
    let run = launch(&harness, &workload, set.as_ref(), claims, None);
    ShardHarnessOutcome {
        results: run.results,
        failed_workers: run.outcome.failed_workers,
        faults: run.outcome.faults,
        steals: set.steals(),
        self_grants: set.self_grants(),
        speculative_grants: set.speculative_grants(),
        duplicates_dropped: run.outcome.duplicates_dropped,
        iterations_served: (0..p).map(|w| set.iterations_served(w)).collect(),
        shard_stats: set.stats(),
        trace: run.trace,
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
