//! Property suite for the sharded master: whatever the scheme, shard
//! count, transport, or injected chaos, the N shards must dispense an
//! *exact partition* of `[0, I)` — every iteration computed, first
//! result wins, nothing lost across steals, crashes, or reconnects.
//!
//! Runs are real threaded executions over channels (and TCP for a
//! smaller sample — sockets are slower to spin up), so case counts are
//! deliberately low; each case is itself a whole-cluster run.

use std::sync::Arc;

use lss_core::fault::{FaultPlan, LeaseConfig};
use lss_core::SchemeKind;
use lss_runtime::{run_sharded_loop, ShardHarnessConfig, Transport, WorkerSpec};
use lss_trace::EventKind;
use lss_workloads::{UniformLoop, Workload};
use proptest::prelude::*;

/// Every closed-form scheme the replicas support, weighted evenly;
/// `knob` feeds the scheme's own parameter where it has one.
fn scheme_strategy() -> impl Strategy<Value = SchemeKind> {
    (0u64..7, 1u64..16).prop_map(|(pick, knob)| match pick {
        0 => SchemeKind::Pure,
        1 => SchemeKind::Css { k: knob },
        2 => SchemeKind::Gss { min_chunk: 1 + knob % 3 },
        3 => SchemeKind::Tss,
        4 => SchemeKind::Fss,
        5 => SchemeKind::Fiss { sigma: 2 + (knob % 3) as u32 },
        _ => SchemeKind::Tfss,
    })
}

/// Leases short enough that reclaim fires within a test run.
fn tight_lease() -> LeaseConfig {
    LeaseConfig {
        base_ticks: 50_000_000, // 50 ms
        default_ticks_per_iter: 0,
        grace: 8.0,
        dead_after_ticks: 30_000_000,
        max_speculations: 2,
    }
}

/// A mixed-speed cluster of `p` workers, every third one slow.
fn cluster(p: usize) -> Vec<WorkerSpec> {
    (0..p).map(|w| if w % 3 == 2 { WorkerSpec::slow() } else { WorkerSpec::fast() }).collect()
}

/// The invariant every run must uphold: `results` is exactly
/// `execute(0..I)` — each iteration computed once and kept once.
fn assert_exact_partition(out: &lss_runtime::ShardHarnessOutcome, w: &UniformLoop) {
    assert_eq!(out.results.len() as u64, w.len(), "result vector must cover [0, I)");
    for i in 0..w.len() {
        assert_eq!(out.results[i as usize], w.execute(i), "iteration {i} lost or corrupted");
    }
    let served: u64 = out.iterations_served.iter().sum();
    assert!(
        served >= w.len(),
        "served {served} < {} iterations: grants vanished",
        w.len()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Healthy cluster, arbitrary scheme/shards/workers, channels:
    /// the shards tile [0, I) exactly, and when workers cannot cover
    /// every shard by homing alone, work-stealing moves the rest.
    #[test]
    fn sharded_channels_partition_is_exact(
        scheme in scheme_strategy(),
        shards in 1usize..6,
        workers in 1usize..5,
        total in 40u64..320,
    ) {
        let w = Arc::new(UniformLoop::new(total, 200));
        let cfg = ShardHarnessConfig::new(scheme, shards, cluster(workers));
        let out = run_sharded_loop(&cfg, Arc::clone(&w));
        assert_exact_partition(&out, &w);
        prop_assert!(out.failed_workers.is_empty());
        prop_assert!(out.faults.is_empty(), "{}", out.faults.render());
        if shards > workers {
            // Some shards have no home worker: their chunks can only
            // flow out through steals.
            prop_assert!(out.steals > 0, "unhomed shards require steals");
        }
    }

    /// Self-scheduled grants (lock-free counter + replicated formula)
    /// partition [0, I) exactly too, with zero steals — workers roam
    /// counters instead.
    #[test]
    fn self_sched_partition_is_exact(
        scheme in scheme_strategy(),
        shards in 1usize..5,
        workers in 1usize..5,
        total in 40u64..320,
    ) {
        let w = Arc::new(UniformLoop::new(total, 200));
        let cfg = ShardHarnessConfig::self_sched(scheme, shards, cluster(workers));
        let out = run_sharded_loop(&cfg, Arc::clone(&w));
        assert_exact_partition(&out, &w);
        prop_assert!(out.failed_workers.is_empty());
        prop_assert!(out.self_grants > 0, "fresh chunks must come off the counters");
        prop_assert_eq!(out.steals, 0);
    }

    /// Crash chaos: one worker dies holding a claim. Lease expiry (or
    /// drain-reclaim on the self path) must requeue the orphaned chunk
    /// and survivors must still produce every iteration exactly once.
    #[test]
    fn crash_chaos_preserves_the_partition(
        scheme in scheme_strategy(),
        shards in 1usize..4,
        crash_after in 1u64..4,
        self_sched in any::<bool>(),
        total in 60u64..240,
    ) {
        let w = Arc::new(UniformLoop::new(total, 300));
        let workers = vec![
            WorkerSpec::fast(),
            WorkerSpec::fast(),
            WorkerSpec::fast().with_fault(FaultPlan::crash_after(crash_after)),
        ];
        let mut cfg = if self_sched {
            ShardHarnessConfig::self_sched(scheme, shards, workers)
        } else {
            ShardHarnessConfig::new(scheme, shards, workers)
        };
        cfg.lease = tight_lease();
        let out = run_sharded_loop(&cfg, Arc::clone(&w));
        assert_exact_partition(&out, &w);
        // Coarse schemes can finish the victim before its fuse burns;
        // when the crash does fire, only the planned victim may fail.
        prop_assert!(
            out.failed_workers.is_empty() || out.failed_workers == vec![2],
            "unplanned failures: {:?}",
            out.failed_workers
        );
    }

    /// Reconnect chaos: a worker drops its link mid-run and comes back.
    /// The shard must treat the outage like a lease loss, re-admit the
    /// worker, and keep the partition exact with first-result-wins
    /// absorbing any duplicated chunk.
    #[test]
    fn reconnect_chaos_preserves_the_partition(
        scheme in scheme_strategy(),
        shards in 1usize..4,
        drop_after in 1u64..4,
        total in 60u64..240,
    ) {
        let w = Arc::new(UniformLoop::new(total, 300));
        let workers = vec![
            WorkerSpec::fast(),
            WorkerSpec::fast().with_fault(FaultPlan::reconnect_after(drop_after, 0)),
            WorkerSpec::fast(),
        ];
        let mut cfg = ShardHarnessConfig::new(scheme, shards, workers);
        cfg.lease = tight_lease();
        let out = run_sharded_loop(&cfg, Arc::clone(&w));
        assert_exact_partition(&out, &w);
    }
}

proptest! {
    // TCP spins real sockets per case: keep the sample small.
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// The same exactness holds over TCP, on both grant paths.
    #[test]
    fn tcp_partition_is_exact(
        scheme in scheme_strategy(),
        shards in 1usize..4,
        self_sched in any::<bool>(),
        total in 40u64..160,
    ) {
        let w = Arc::new(UniformLoop::new(total, 200));
        let workers = cluster(2);
        let mut cfg = if self_sched {
            ShardHarnessConfig::self_sched(scheme, shards, workers)
        } else {
            ShardHarnessConfig::new(scheme, shards, workers)
        };
        cfg.transport = Transport::TcpEvented;
        let out = run_sharded_loop(&cfg, Arc::clone(&w));
        assert_exact_partition(&out, &w);
        prop_assert!(out.failed_workers.is_empty());
    }

    /// Traced sharded runs speak the same trace grammar as unsharded
    /// ones: the Chrome export validates, every worker joins a shard,
    /// and steal/self-grant counters agree with their events.
    #[test]
    fn traced_runs_validate_the_grammar(
        scheme in scheme_strategy(),
        shards in 2usize..5,
        self_sched in any::<bool>(),
        total in 40u64..160,
    ) {
        let workers = cluster(2);
        let p = workers.len();
        let w = Arc::new(UniformLoop::new(total, 200));
        let cfg = if self_sched {
            ShardHarnessConfig::self_sched(scheme, shards, workers)
        } else {
            ShardHarnessConfig::new(scheme, shards, workers)
        };
        let out = run_sharded_loop(&cfg.traced(), Arc::clone(&w));
        assert_exact_partition(&out, &w);
        let trace = out.trace.expect("tracing was on");
        let joined = trace.count_kind(|k| matches!(k, EventKind::ShardJoined { .. }));
        prop_assert!(joined >= p, "every worker must join its home shard");
        let stole = trace.count_kind(|k| matches!(k, EventKind::ShardStole { .. }));
        prop_assert_eq!(stole as u64, out.steals);
        let self_granted =
            trace.count_kind(|k| matches!(k, EventKind::SelfGranted { .. }));
        prop_assert_eq!(self_granted as u64, out.self_grants);
        let json = lss_trace::to_chrome_json(&trace);
        let events = lss_trace::validate_chrome_trace(&json).expect("valid Chrome trace");
        prop_assert!(events > 0);
    }
}
