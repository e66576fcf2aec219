//! Property-based invariants of the chunk-lifecycle trace: whatever
//! the scheme, the transport (simulator, in-process channels, or TCP)
//! and the fault plan, every recorded trace tells a well-formed story —
//! no chunk starts before it was granted, every iteration reaches
//! exactly one effective completion, and first-result-wins dedup fires
//! only once a duplicate was actually possible (a speculative, requeued
//! or retransmitted grant, or a second grant of the same interval).

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use loop_self_scheduling::prelude::*;
use loop_self_scheduling::trace::ChunkRef;
use proptest::prelude::*;

/// The paper's scheme families: the five reviewed simple schemes, the
/// new TFSS, weighted factoring, and the four distributed variants.
fn all_schemes() -> Vec<SchemeKind> {
    vec![
        SchemeKind::Css { k: 7 },
        SchemeKind::Gss { min_chunk: 1 },
        SchemeKind::Tss,
        SchemeKind::Fss,
        SchemeKind::Fiss { sigma: 3 },
        SchemeKind::Tfss,
        SchemeKind::Wf,
        SchemeKind::Dtss,
        SchemeKind::Dfss,
        SchemeKind::Dfiss { sigma: 3 },
        SchemeKind::Dtfss,
    ]
}

fn attributed(ev: &TraceEvent) -> Result<(usize, ChunkRef), String> {
    match (ev.worker, ev.chunk) {
        (Some(w), Some(c)) => Ok((w, c)),
        _ => Err(format!("lifecycle event missing attribution: {ev}")),
    }
}

/// Replays the event stream in time order and checks the lifecycle
/// grammar. `chaos = false` additionally demands the strict healthy-run
/// form: one grant, one start, one completion per interval and no
/// fault-recovery events at all.
fn check_lifecycle(trace: &Trace, chaos: bool) -> Result<(), String> {
    let total = trace.meta.total_iterations;
    let mut planned: HashSet<ChunkRef> = HashSet::new();
    let mut granted_pairs: HashSet<(usize, ChunkRef)> = HashSet::new();
    let mut grants: HashMap<ChunkRef, u32> = HashMap::new();
    let mut dup_possible: HashSet<ChunkRef> = HashSet::new();
    let mut started_pairs: HashSet<(usize, ChunkRef)> = HashSet::new();
    let mut completed: HashMap<ChunkRef, u32> = HashMap::new();
    let mut lapsed: HashSet<ChunkRef> = HashSet::new();
    let mut connected: HashSet<usize> = HashSet::new();
    let mut last_at = 0u64;
    for ev in trace.events() {
        if ev.at_ns < last_at {
            return Err(format!("events not time-ordered at {ev}"));
        }
        last_at = ev.at_ns;
        match ev.kind {
            TraceEventKind::Planned => {
                let c = ev.chunk.ok_or_else(|| format!("plan without chunk: {ev}"))?;
                if c.len == 0 || c.start + c.len > total {
                    return Err(format!("planned chunk out of bounds: {ev}"));
                }
                planned.insert(c);
            }
            TraceEventKind::Granted { speculative, requeued, retransmit } => {
                let (w, c) = attributed(ev)?;
                if !(speculative || requeued || retransmit || planned.contains(&c)) {
                    return Err(format!("fresh grant of an unplanned chunk: {ev}"));
                }
                let n = grants.entry(c).or_insert(0);
                *n += 1;
                if speculative || requeued || retransmit || *n >= 2 {
                    dup_possible.insert(c);
                }
                granted_pairs.insert((w, c));
            }
            TraceEventKind::Started => {
                let (w, c) = attributed(ev)?;
                if !granted_pairs.contains(&(w, c)) {
                    return Err(format!("started before any grant to this worker: {ev}"));
                }
                if !connected.contains(&w) {
                    return Err(format!("started on a never-connected worker: {ev}"));
                }
                started_pairs.insert((w, c));
            }
            TraceEventKind::Completed => {
                let (w, c) = attributed(ev)?;
                if !started_pairs.contains(&(w, c)) {
                    return Err(format!("completed without a start: {ev}"));
                }
                *completed.entry(c).or_insert(0) += 1;
            }
            TraceEventKind::Deduped => {
                let c = ev.chunk.ok_or_else(|| format!("dedup without chunk: {ev}"))?;
                // A duplicate result needs either a duplicate grant
                // (speculation, requeue, retransmit, second grant) or a
                // duplicate delivery of an interval already computed.
                if !dup_possible.contains(&c) && completed.get(&c).copied().unwrap_or(0) == 0 {
                    return Err(format!(
                        "dedup of a chunk granted and completed at most once: {ev}"
                    ));
                }
            }
            TraceEventKind::Lapsed => {
                let (_, c) = attributed(ev)?;
                lapsed.insert(c);
            }
            TraceEventKind::Requeued => {
                let (_, c) = attributed(ev)?;
                if !lapsed.contains(&c) {
                    return Err(format!("requeued without a lease lapse: {ev}"));
                }
            }
            TraceEventKind::WorkerConnected => {
                connected.insert(ev.worker.ok_or_else(|| format!("anonymous connect: {ev}"))?);
            }
            _ => {}
        }
    }
    let mut cover = vec![0u32; total as usize];
    for (c, n) in &completed {
        for i in c.start..c.start + c.len {
            cover[i as usize] += n;
        }
    }
    for (i, &n) in cover.iter().enumerate() {
        if n == 0 {
            return Err(format!("iteration {i} never completed"));
        }
        if !chaos && n != 1 {
            return Err(format!("iteration {i} completed {n} times in a healthy run"));
        }
    }
    if !chaos {
        for (label, count) in [
            ("deduped", trace.count_kind(|k| matches!(k, TraceEventKind::Deduped))),
            ("lapsed", trace.count_kind(|k| matches!(k, TraceEventKind::Lapsed))),
            ("requeued", trace.count_kind(|k| matches!(k, TraceEventKind::Requeued))),
            (
                "speculative grant",
                trace.count_kind(
                    |k| matches!(k, TraceEventKind::Granted { speculative: true, .. }),
                ),
            ),
        ] {
            if count != 0 {
                return Err(format!("healthy run recorded {count} {label} event(s)"));
            }
        }
    }
    Ok(())
}

/// An irregular loop body derived from the proptest seed.
fn irregular(total: u64, seed: u64) -> SyntheticWorkload {
    SyntheticWorkload::new(
        (0..total)
            .map(|i| 5_000 + (i.wrapping_mul(seed | 1).wrapping_mul(0x9E37_79B9)) % 45_000)
            .collect(),
    )
}

/// Decodes a fault plan from an arbitrary integer, as in
/// `fault_invariants.rs`: healthy, crash, hang, or a lossy link.
fn decode_plan(code: u64) -> FaultPlan {
    match code % 4 {
        0 => FaultPlan::healthy(),
        1 => FaultPlan::crash_after((code / 4) % 3),
        2 => FaultPlan::hang_after((code / 4) % 3),
        _ => FaultPlan::healthy()
            .with_net(NetFaults { drop_prob: 0.25, dup_prob: 0.25, delay_ticks: 0 })
            .with_seed(code),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Healthy simulator runs produce the strict lifecycle for every
    /// scheme family, cluster shape and load condition.
    #[test]
    fn sim_lifecycles_are_well_formed(
        total in 1u64..600,
        fast in 1usize..3,
        slow in 1usize..4,
        nondedicated in 0u8..2,
        seed in 0u64..1_000,
    ) {
        let workload = irregular(total, seed);
        let p = fast + slow;
        let mut loads = vec![LoadTrace::dedicated(); p];
        if nondedicated == 1 {
            loads[0] = LoadTrace::paper_overloaded();
        }
        for scheme in all_schemes() {
            let cfg = SimConfig::new(ClusterSpec::paper_mix(fast, slow), scheme)
                .with_jitter(SimTime::from_millis(5), seed);
            let (report, _spans, trace) = simulate_traced(&cfg, &workload, &loads);
            prop_assert_eq!(trace.dropped, 0);
            prop_assert_eq!(&trace.meta.scheme, scheme.name());
            prop_assert!(matches!(trace.meta.clock, ClockDomain::Logical));
            if let Err(e) = check_lifecycle(&trace, false) {
                prop_assert!(false, "{}: {e}", scheme.name());
            }
            // The trace also reconciles with the engine's accounting.
            let derived = TimeBreakdown::all_from_trace(&trace);
            for (d, r) in derived.iter().zip(&report.per_pe) {
                prop_assert_eq!(d.t_wait, r.t_wait);
            }
        }
    }

    /// Chaos runs (crashes, hangs, lossy links) may lapse, requeue,
    /// speculate and dedup — but only in grammar order, and every
    /// iteration still completes at least once.
    #[test]
    fn chaos_sim_lifecycles_stay_well_formed(
        total in 1u64..400,
        codes in prop::collection::vec(0u64..10_000, 1..4),
        seed in 0u64..500,
    ) {
        // Worker 0 is always healthy so completion stays reachable.
        let mut plans = vec![FaultPlan::healthy()];
        plans.extend(codes.iter().map(|&c| decode_plan(c)));
        let p = plans.len();
        let workload = irregular(total, seed);
        let loads = vec![LoadTrace::dedicated(); p];
        for scheme in all_schemes() {
            let cfg = SimConfig::new(ClusterSpec::paper_mix(1, p - 1), scheme)
                .with_faults(plans.clone());
            let (_report, _spans, trace) = simulate_traced(&cfg, &workload, &loads);
            if let Err(e) = check_lifecycle(&trace, true) {
                prop_assert!(false, "{}: {e}", scheme.name());
            }
        }
    }
}

proptest! {
    // Real threads are costlier than simulated ones: fewer cases, and
    // the scheme is drawn as an index instead of looping over all 11.
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The threaded runtime emits the same well-formed lifecycle over
    /// both transports — in-process channels and framed TCP.
    #[test]
    fn runtime_lifecycles_are_well_formed_on_both_transports(
        total in 40u64..200,
        scheme_ix in 0usize..11,
        unit in 5_000u64..40_000,
    ) {
        let scheme = all_schemes()[scheme_ix];
        for transport in [Transport::Channels, Transport::TcpEvented] {
            let mut cfg = HarnessConfig::paper_mix(scheme, 1, 2).traced();
            cfg.transport = transport;
            let workload = Arc::new(UniformLoop::new(total, unit));
            let out = run_scheduled_loop(&cfg, workload);
            prop_assert_eq!(out.results.len() as u64, total);
            let trace = out.trace.expect("tracing was enabled");
            prop_assert!(matches!(trace.meta.clock, ClockDomain::Monotonic));
            if let Err(e) = check_lifecycle(&trace, false) {
                prop_assert!(false, "{} over {transport:?}: {e}", scheme.name());
            }
        }
    }
}
