//! The slave loop — the paper's slave algorithm (§3.1) verbatim:
//!
//! 1. Obtain the run-queue length `Q_i` (here: sample the
//!    [`LoadState`]).
//! 2. Send a request (with `Q_i` and the previous chunk's piggy-backed
//!    results) to the master.
//! 3. Wait for a reply; if more tasks arrive, compute them and go to 1;
//!    on a retry notice back off and go to 1; else terminate.
//!
//! Heterogeneity emulation: a worker with `slowdown = s` executes every
//! iteration `s` times; non-dedication multiplies that by the current
//! run-queue length `Q` (the equal-share assumption made mechanical, so
//! a `Q = 3` worker really takes 3× longer per iteration).
//!
//! ## Chaos injection
//!
//! The loop interprets a [`FaultPlan`]: it can crash (vanish without a
//! word), hang (accept a chunk and never reply), degrade (iterations
//! slow by ×k mid-run), deliberately drop its link and redial after an
//! outage, and subject its own messages to seeded drop/duplication/
//! delay. Everything is driven by the plan's [`ChaosRng`], so a chaos
//! run replays exactly from its seed. Recovery mechanics — request
//! retransmission on reply timeout, capped exponential backoff with
//! jitter for retries and reconnects, heartbeats during long chunks —
//! are always active; with a healthy plan they simply never fire.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use lss_core::fault::{ChaosRng, FaultPlan};
use lss_core::master::Assignment;
use lss_shard::SelfWorker;
use lss_trace::{EventKind, SharedSink, TraceEvent};
use lss_workloads::Workload;

use crate::backoff::BackoffPolicy;
use crate::load::LoadState;
use crate::protocol::{ChunkResult, Reply, Request};
use crate::transport::{TransportError, WorkerTransport};

/// Default patience before retransmitting a request when message loss
/// is possible (lossy net faults active, or the caller asked for it).
const DEFAULT_REPLY_TIMEOUT: Duration = Duration::from_millis(250);

/// How often a hung worker polls its (ignored) reply stream, waiting
/// for the master to go away so its thread can be joined.
const HANG_POLL: Duration = Duration::from_millis(25);

/// Static configuration of one worker.
#[derive(Debug, Clone)]
pub struct WorkerConfig {
    /// Dense worker id.
    pub id: usize,
    /// Speed handicap: iterations are executed `slowdown` times
    /// (1 = fast PE; 3 ≈ the paper's slow UltraSPARC 1).
    pub slowdown: u32,
    /// Shared run-queue state.
    pub load: LoadState,
    /// Pacing of re-requests after a retry notice.
    pub retry: BackoffPolicy,
    /// Pacing of redial attempts after a dropped link.
    pub reconnect: BackoffPolicy,
    /// Chaos plan (default: healthy).
    pub fault: FaultPlan,
    /// Emit a liveness heartbeat at this interval while computing a
    /// chunk (`None` = no heartbeats).
    pub heartbeat_every: Option<Duration>,
    /// Wait at most this long for a reply before retransmitting the
    /// request. `None` = block forever unless the plan's net faults are
    /// active (then [`DEFAULT_REPLY_TIMEOUT`] applies).
    pub reply_timeout: Option<Duration>,
    /// Trace sink shared with the master loop (default: disabled). All
    /// threads of a run must share one sink so timestamps share one
    /// epoch.
    pub trace: SharedSink,
}

impl WorkerConfig {
    /// A dedicated full-speed worker with no faults.
    pub fn fast(id: usize) -> Self {
        WorkerConfig {
            id,
            slowdown: 1,
            load: LoadState::dedicated(),
            retry: BackoffPolicy::retry_default(),
            reconnect: BackoffPolicy::reconnect_default(),
            fault: FaultPlan::healthy(),
            heartbeat_every: None,
            reply_timeout: None,
            trace: SharedSink::disabled(),
        }
    }
}

/// Wall-clock accounting gathered by a worker, mirroring the tables'
/// `T_com / T_wait / T_comp`.
#[derive(Debug, Clone, Copy, Default)]
pub struct WorkerStats {
    /// Time in transport sends (requests + piggy-backed results).
    pub t_com: Duration,
    /// Time blocked on the master (reply latency + retry back-offs).
    pub t_wait: Duration,
    /// Time executing iterations.
    pub t_comp: Duration,
    /// Iterations executed.
    pub iterations: u64,
    /// Chunks received.
    pub chunks: u64,
    /// Requests retransmitted after a reply timeout.
    pub retransmits: u64,
    /// Successful mid-run reconnects.
    pub reconnects: u64,
}

/// Runs the slave loop to completion.
///
/// `first_request_sent` is true when the transport's connection
/// handshake already delivered the initial request (the TCP transport
/// does this); the loop then starts by awaiting the reply.
///
/// Returns `Ok` both on normal termination and on an *injected* crash
/// or hang (the stats describe what was done before the fault); a
/// transport failure the plan did not script surfaces as `Err`.
pub fn run_worker<T: WorkerTransport>(
    transport: T,
    cfg: &WorkerConfig,
    workload: &dyn Workload,
    first_request_sent: bool,
) -> Result<WorkerStats, TransportError> {
    run_worker_loop(transport, cfg, workload, first_request_sent, None)
}

/// The slave loop behind [`run_worker`], optionally self-scheduling.
/// With `claims`, fresh chunks come from lock-free claims on the shard
/// counters instead of round trips, and the master only takes results
/// and hands out recovered work. A claim is handled like a grant, chaos
/// plan included (a crash vanishes holding it; the master reclaims it
/// by formula replay). Once the formulas run dry it is the plain loop.
pub(crate) fn run_worker_loop<T: WorkerTransport>(
    mut transport: T,
    cfg: &WorkerConfig,
    workload: &dyn Workload,
    first_request_sent: bool,
    mut claims: Option<SelfWorker>,
) -> Result<WorkerStats, TransportError> {
    assert!(cfg.slowdown >= 1, "slowdown must be at least 1");
    let mut stats = WorkerStats::default();
    let mut pending_result: Option<ChunkResult> = None;
    let mut skip_send = first_request_sent;
    let mut rng = ChaosRng::new(cfg.fault.seed ^ (cfg.id as u64).wrapping_mul(0x9E37));
    let mut retry_attempt = 0u32;
    let mut last_request: Option<Request> = None;
    let mut disconnect_done = false;
    // Results of chunks already computed, by chunk start: a re-grant of
    // the same chunk (lost-reply retransmit, or a requeue that circles
    // back) is answered from here instead of recomputed. Values are
    // deterministic per iteration, so the cache is always valid.
    let mut computed: HashMap<u64, Vec<u64>> = HashMap::new();
    let reply_timeout = cfg
        .reply_timeout
        .or_else(|| cfg.fault.net.is_active().then_some(DEFAULT_REPLY_TIMEOUT));

    loop {
        // Self-scheduling hot path: a lock-free claim stands in for a
        // grant. The ledger mark happens at the master when the result
        // lands (single marking path), keeping its drain-reclaim window
        // honest.
        let mut claimed = None;
        if let Some(sw) = claims.as_mut().filter(|_| !skip_send && pending_result.is_none()) {
            claimed = sw.next_chunk(cfg.trace.now_ns()).map(|(_, _, chunk)| chunk);
            if claimed.is_none() {
                claims = None;
            }
        }
        let assignment = match claimed {
            Some(chunk) => Assignment::Chunk(chunk),
            None => {
                if !skip_send {
                    let q = cfg.load.q();
                    let req = Request { worker: cfg.id, q, result: pending_result.take() };
                    let t0 = Instant::now();
                    send_with_net_faults(&mut transport, &req, &cfg.fault, &mut rng)?;
                    let spent = t0.elapsed();
                    stats.t_com += spent;
                    if cfg.trace.enabled() {
                        cfg.trace.record_now(
                            TraceEvent::new(0, EventKind::Comm { ns: spent.as_nanos() as u64 })
                                .on_worker(cfg.id),
                        );
                    }
                    last_request = Some(req);
                } else {
                    skip_send = false;
                }

                let t1 = Instant::now();
                let assignment = match reply_timeout {
                    None => transport.recv_reply()?.assignment,
                    Some(timeout) => {
                        // Lossy links: wait, retransmit, wait again — the
                        // master's grants are idempotent, so retransmitted
                        // requests are safe.
                        loop {
                            match transport.recv_reply_timeout(timeout)? {
                                Some(Reply { assignment }) => break assignment,
                                None => {
                                    if let Some(req) = &last_request {
                                        stats.retransmits += 1;
                                        let fault = &cfg.fault;
                                        send_with_net_faults(&mut transport, req, fault, &mut rng)?;
                                    }
                                }
                            }
                        }
                    }
                };
                let waited = t1.elapsed();
                stats.t_wait += waited;
                if cfg.trace.enabled() {
                    cfg.trace.record_now(
                        TraceEvent::new(0, EventKind::Wait { ns: waited.as_nanos() as u64 })
                            .on_worker(cfg.id),
                    );
                }
                assignment
            }
        };

        match assignment {
            Assignment::Chunk(chunk) => {
                if cfg.fault.crash_after_chunks == Some(stats.chunks) {
                    // Injected crash: vanish mid-run without reporting.
                    // Dropping the transport is what the master sees.
                    return Ok(stats);
                }
                if cfg.fault.hang_after_chunks == Some(stats.chunks) {
                    return hang_forever(transport, stats);
                }
                retry_attempt = 0;
                let values = match computed.get(&chunk.start) {
                    Some(v) if v.len() == chunk.len as usize => v.clone(),
                    _ => {
                        if cfg.trace.enabled() {
                            cfg.trace.record_now(
                                TraceEvent::new(0, EventKind::Started)
                                    .on_worker(cfg.id)
                                    .on_chunk(chunk.start, chunk.len),
                            );
                        }
                        let t2 = Instant::now();
                        let reps = u64::from(cfg.slowdown)
                            * u64::from(cfg.load.q())
                            * u64::from(cfg.fault.degrade_factor(stats.chunks));
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
                                        // Fire-and-forget: a failed
                                        // heartbeat is not fatal.
                                        let _ = transport.send_heartbeat(cfg.id);
                                        last_hb = Instant::now();
                                    }
                                }
                                v
                            })
                            .collect();
                        let computed_for = t2.elapsed();
                        stats.t_comp += computed_for;
                        stats.iterations += chunk.len;
                        if cfg.trace.enabled() {
                            cfg.trace.record_now(
                                TraceEvent::new(
                                    0,
                                    EventKind::Comp { ns: computed_for.as_nanos() as u64 },
                                )
                                .on_worker(cfg.id)
                                .on_chunk(chunk.start, chunk.len),
                            );
                            cfg.trace.record_now(
                                TraceEvent::new(0, EventKind::Completed)
                                    .on_worker(cfg.id)
                                    .on_chunk(chunk.start, chunk.len),
                            );
                        }
                        computed.insert(chunk.start, values.clone());
                        values
                    }
                };
                stats.chunks += 1;
                pending_result = Some(ChunkResult::new(chunk, values));

                // Planned outage: drop the link, stay dark, redial.
                if let Some(plan) = cfg.fault.disconnect {
                    if !disconnect_done && stats.chunks >= plan.after_chunks.max(1) {
                        disconnect_done = true;
                        // The in-flight result is lost with the link
                        // (the master requeues via lease/disconnect).
                        pending_result = None;
                        transport.drop_link();
                        std::thread::sleep(Duration::from_nanos(plan.outage_ticks));
                        reconnect_with_backoff(&mut transport, cfg, &mut rng)?;
                        stats.reconnects += 1;
                        last_request = None;
                        skip_send = true; // the hello was the request
                    }
                }
            }
            // While claims remain, the next round trip carries a fresh
            // result: pace down only once they run dry.
            Assignment::Retry if claims.is_some() => {}
            Assignment::Retry => {
                let pause = cfg.retry.delay(retry_attempt, &mut rng);
                retry_attempt = retry_attempt.saturating_add(1);
                std::thread::sleep(pause);
                stats.t_wait += pause;
                if cfg.trace.enabled() {
                    cfg.trace.record_now(
                        TraceEvent::new(0, EventKind::Wait { ns: pause.as_nanos() as u64 })
                            .on_worker(cfg.id),
                    );
                }
            }
            Assignment::Finished => return Ok(stats),
        }
    }
}

/// Sends a request subject to the plan's network faults: possibly
/// delayed, possibly silently dropped, possibly delivered twice.
fn send_with_net_faults<T: WorkerTransport>(
    transport: &mut T,
    req: &Request,
    fault: &FaultPlan,
    rng: &mut ChaosRng,
) -> Result<(), TransportError> {
    let net = fault.net;
    if net.delay_ticks > 0 {
        std::thread::sleep(Duration::from_nanos(rng.below(net.delay_ticks)));
    }
    if net.drop_prob > 0.0 && rng.chance(net.drop_prob) {
        return Ok(()); // lost in flight; the reply timeout recovers
    }
    transport.send_request(req.clone())?;
    if net.dup_prob > 0.0 && rng.chance(net.dup_prob) {
        transport.send_request(req.clone())?;
    }
    Ok(())
}

/// The injected-hang terminal state: the worker accepted a chunk and
/// never speaks again — but its thread must stay joinable, so it idles
/// on the reply stream (ignoring everything) until the master side
/// disappears.
fn hang_forever<T: WorkerTransport>(
    mut transport: T,
    stats: WorkerStats,
) -> Result<WorkerStats, TransportError> {
    loop {
        match transport.recv_reply_timeout(HANG_POLL) {
            Ok(_) => {}            // swallow replies; never answer
            Err(_) => return Ok(stats), // master gone: unblock the join
        }
    }
}

/// Redials a dropped link with bounded, jittered backoff. The hello
/// request of the new connection carries no result (whatever was in
/// flight died with the old link). A spent budget surfaces as the typed
/// [`TransportError::RetriesExhausted`], not the final attempt's raw
/// error, so callers can distinguish "gone for good" from one bad dial.
fn reconnect_with_backoff<T: WorkerTransport>(
    transport: &mut T,
    cfg: &WorkerConfig,
    rng: &mut ChaosRng,
) -> Result<(), TransportError> {
    let hello = Request { worker: cfg.id, q: cfg.load.q(), result: None };
    let mut attempt = 0u32;
    loop {
        match transport.reconnect(&hello) {
            Ok(()) => return Ok(()),
            Err(e @ TransportError::Unsupported(_)) => return Err(e),
            Err(e) => {
                if !cfg.reconnect.allows(attempt + 1) {
                    return Err(TransportError::RetriesExhausted {
                        attempts: attempt + 1,
                        last: e.to_string(),
                    });
                }
                std::thread::sleep(cfg.reconnect.delay(attempt, rng));
                attempt += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::Reply;
    use lss_core::chunk::Chunk;
    use lss_workloads::UniformLoop;

    /// A scripted transport: hands out canned replies, records requests.
    struct Script {
        replies: Vec<Reply>,
        sent: Vec<Request>,
    }

    impl WorkerTransport for Script {
        fn send_request(&mut self, req: Request) -> Result<(), TransportError> {
            self.sent.push(req);
            Ok(())
        }
        fn recv_reply(&mut self) -> Result<Reply, TransportError> {
            if self.replies.is_empty() {
                return Err(TransportError::Disconnected("script exhausted".into()));
            }
            Ok(self.replies.remove(0))
        }
    }

    #[test]
    fn worker_computes_and_piggybacks() {
        let script = Script {
            replies: vec![
                Reply { assignment: Assignment::Chunk(Chunk::new(0, 3)) },
                Reply { assignment: Assignment::Finished },
            ],
            sent: Vec::new(),
        };
        let w = UniformLoop::new(10, 100);
        let cfg = WorkerConfig::fast(0);
        // Run through a transport we can inspect afterwards.
        let mut recorded = Vec::new();
        struct Tap<'a>(Script, &'a mut Vec<Request>);
        impl WorkerTransport for Tap<'_> {
            fn send_request(&mut self, req: Request) -> Result<(), TransportError> {
                self.1.push(req.clone());
                self.0.send_request(req)
            }
            fn recv_reply(&mut self) -> Result<Reply, TransportError> {
                self.0.recv_reply()
            }
        }
        let stats = run_worker(Tap(script, &mut recorded), &cfg, &w, false).unwrap();
        assert_eq!(stats.iterations, 3);
        assert_eq!(stats.chunks, 1);
        assert_eq!(recorded.len(), 2);
        assert!(recorded[0].result.is_none(), "first request carries no result");
        let res = recorded[1].result.as_ref().expect("piggy-backed result");
        assert_eq!(res.chunk, Chunk::new(0, 3));
        assert_eq!(res.values.len(), 3);
        assert_eq!(res.values[1], w.execute(1));
    }

    #[test]
    fn worker_retries_then_finishes() {
        let script = Script {
            replies: vec![
                Reply { assignment: Assignment::Retry },
                Reply { assignment: Assignment::Finished },
            ],
            sent: Vec::new(),
        };
        let w = UniformLoop::new(1, 1);
        let mut cfg = WorkerConfig::fast(0);
        cfg.retry = BackoffPolicy {
            base: Duration::from_millis(1),
            cap: Duration::from_millis(2),
            max_attempts: 0,
        };
        let stats = run_worker(script, &cfg, &w, false).unwrap();
        assert_eq!(stats.iterations, 0);
        assert!(stats.t_wait >= Duration::from_micros(500), "{:?}", stats.t_wait);
    }

    #[test]
    fn slowdown_multiplies_compute_time() {
        let w = UniformLoop::new(64, 20_000);
        let run = |slowdown| {
            let script = Script {
                replies: vec![
                    Reply { assignment: Assignment::Chunk(Chunk::new(0, 64)) },
                    Reply { assignment: Assignment::Finished },
                ],
                sent: Vec::new(),
            };
            let mut cfg = WorkerConfig::fast(0);
            cfg.slowdown = slowdown;
            run_worker(script, &cfg, &w, false).unwrap().t_comp
        };
        let fast = run(1);
        let slow = run(4);
        let ratio = slow.as_secs_f64() / fast.as_secs_f64().max(1e-9);
        assert!(ratio > 2.0, "slowdown 4 should be ≫ 1×, got {ratio:.2}");
    }

    #[test]
    fn degradation_multiplies_compute_time_mid_run() {
        let w = UniformLoop::new(128, 20_000);
        let run = |fault: FaultPlan| {
            let script = Script {
                replies: vec![
                    Reply { assignment: Assignment::Chunk(Chunk::new(0, 64)) },
                    Reply { assignment: Assignment::Chunk(Chunk::new(64, 64)) },
                    Reply { assignment: Assignment::Finished },
                ],
                sent: Vec::new(),
            };
            let mut cfg = WorkerConfig::fast(0);
            cfg.fault = fault;
            run_worker(script, &cfg, &w, false).unwrap().t_comp
        };
        let healthy = run(FaultPlan::healthy());
        // Degrades ×6 from the second chunk on.
        let degraded = run(FaultPlan::degrade_after(1, 6));
        let ratio = degraded.as_secs_f64() / healthy.as_secs_f64().max(1e-9);
        assert!(ratio > 1.8, "mid-run degradation should slow the run, got {ratio:.2}");
    }

    #[test]
    fn injected_crash_returns_cleanly() {
        let script = Script {
            replies: vec![
                Reply { assignment: Assignment::Chunk(Chunk::new(0, 4)) },
                Reply { assignment: Assignment::Chunk(Chunk::new(4, 4)) },
            ],
            sent: Vec::new(),
        };
        let w = UniformLoop::new(8, 10);
        let mut cfg = WorkerConfig::fast(0);
        cfg.fault = FaultPlan::crash_after(1);
        let stats = run_worker(script, &cfg, &w, false).unwrap();
        // Computed one chunk, crashed on receipt of the second.
        assert_eq!(stats.chunks, 1);
        assert_eq!(stats.iterations, 4);
    }

    #[test]
    fn regranted_chunk_is_answered_from_cache() {
        // The master re-grants chunk 0 (a lost-reply retransmit): the
        // worker resends the result without recomputing.
        let script = Script {
            replies: vec![
                Reply { assignment: Assignment::Chunk(Chunk::new(0, 4)) },
                Reply { assignment: Assignment::Chunk(Chunk::new(0, 4)) },
                Reply { assignment: Assignment::Finished },
            ],
            sent: Vec::new(),
        };
        let w = UniformLoop::new(4, 10);
        let cfg = WorkerConfig::fast(0);
        let mut recorded = Vec::new();
        struct Tap<'a>(Script, &'a mut Vec<Request>);
        impl WorkerTransport for Tap<'_> {
            fn send_request(&mut self, req: Request) -> Result<(), TransportError> {
                self.1.push(req.clone());
                self.0.send_request(req)
            }
            fn recv_reply(&mut self) -> Result<Reply, TransportError> {
                self.0.recv_reply()
            }
        }
        let stats = run_worker(Tap(script, &mut recorded), &cfg, &w, false).unwrap();
        assert_eq!(stats.iterations, 4, "computed once");
        assert_eq!(stats.chunks, 2, "but acknowledged twice");
        let second = recorded[2].result.as_ref().expect("re-sent result");
        assert_eq!(second.chunk, Chunk::new(0, 4));
    }

    #[test]
    fn traced_worker_mirrors_every_stats_accumulation() {
        let script = Script {
            replies: vec![
                Reply { assignment: Assignment::Chunk(Chunk::new(0, 8)) },
                Reply { assignment: Assignment::Retry },
                Reply { assignment: Assignment::Chunk(Chunk::new(8, 8)) },
                Reply { assignment: Assignment::Finished },
            ],
            sent: Vec::new(),
        };
        let w = UniformLoop::new(16, 2_000);
        let mut cfg = WorkerConfig::fast(0);
        cfg.retry = BackoffPolicy {
            base: Duration::from_millis(1),
            cap: Duration::from_millis(1),
            max_attempts: 0,
        };
        cfg.trace = SharedSink::recording();
        let sink = cfg.trace.clone();
        let stats = run_worker(script, &cfg, &w, false).unwrap();
        let trace = sink.take(lss_trace::TraceMeta {
            scheme: "CSS".into(),
            workers: 1,
            total_iterations: 16,
            clock: lss_trace::ClockDomain::Monotonic,
        });
        // Every stats accumulation has a matching accounting delta, so
        // the nanosecond sums agree exactly.
        let b = lss_trace::breakdowns(&trace)[0];
        assert_eq!(u128::from(b.com_ns), stats.t_com.as_nanos());
        assert_eq!(u128::from(b.wait_ns), stats.t_wait.as_nanos());
        assert_eq!(u128::from(b.comp_ns), stats.t_comp.as_nanos());
        // One Started + one Completed per computed chunk.
        assert_eq!(trace.count_kind(|k| matches!(k, EventKind::Started)), 2);
        assert_eq!(trace.count_kind(|k| matches!(k, EventKind::Completed)), 2);
        // Timestamps are monotone per worker (shared-epoch clock).
        let times: Vec<u64> = trace.events().iter().map(|e| e.at_ns).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn regranted_chunk_does_not_emit_a_second_completion() {
        // Cache-hit re-acknowledgement resends the result but computes
        // nothing — the timeline must show one compute span, not two.
        let script = Script {
            replies: vec![
                Reply { assignment: Assignment::Chunk(Chunk::new(0, 4)) },
                Reply { assignment: Assignment::Chunk(Chunk::new(0, 4)) },
                Reply { assignment: Assignment::Finished },
            ],
            sent: Vec::new(),
        };
        let w = UniformLoop::new(4, 10);
        let mut cfg = WorkerConfig::fast(0);
        cfg.trace = SharedSink::recording();
        let sink = cfg.trace.clone();
        let stats = run_worker(script, &cfg, &w, false).unwrap();
        assert_eq!(stats.chunks, 2);
        let trace = sink.take(lss_trace::TraceMeta {
            scheme: "CSS".into(),
            workers: 1,
            total_iterations: 4,
            clock: lss_trace::ClockDomain::Monotonic,
        });
        assert_eq!(trace.count_kind(|k| matches!(k, EventKind::Started)), 1);
        assert_eq!(trace.count_kind(|k| matches!(k, EventKind::Completed)), 1);
    }

    #[test]
    fn transport_failure_surfaces() {
        let script = Script { replies: vec![], sent: Vec::new() };
        let w = UniformLoop::new(1, 1);
        assert!(run_worker(script, &WorkerConfig::fast(0), &w, false).is_err());
    }

    #[test]
    fn spent_reconnect_budget_is_a_typed_error() {
        /// A transport whose master never comes back.
        struct DeadMaster {
            dials: u32,
        }
        impl WorkerTransport for DeadMaster {
            fn send_request(&mut self, _req: Request) -> Result<(), TransportError> {
                Ok(())
            }
            fn recv_reply(&mut self) -> Result<Reply, TransportError> {
                Err(TransportError::Disconnected("gone".into()))
            }
            fn reconnect(&mut self, _hello: &Request) -> Result<(), TransportError> {
                self.dials += 1;
                Err(TransportError::Io("connection refused".into()))
            }
        }
        let mut cfg = WorkerConfig::fast(0);
        cfg.reconnect = BackoffPolicy {
            base: Duration::from_micros(10),
            cap: Duration::from_micros(50),
            max_attempts: 4,
        };
        let mut t = DeadMaster { dials: 0 };
        let mut rng = ChaosRng::new(1);
        let err = reconnect_with_backoff(&mut t, &cfg, &mut rng).unwrap_err();
        match err {
            TransportError::RetriesExhausted { attempts, ref last } => {
                assert_eq!(attempts, 4);
                assert!(last.contains("connection refused"), "{last}");
            }
            other => panic!("expected RetriesExhausted, got {other:?}"),
        }
        assert_eq!(t.dials, 4, "budget of 4 means exactly 4 dials");
    }

    #[test]
    fn dropped_requests_are_retransmitted() {
        /// A transport that loses every request until `deliveries`
        /// attempts have been made, then replies Finished.
        struct Flaky {
            attempts: u32,
            needed: u32,
        }
        impl WorkerTransport for Flaky {
            fn send_request(&mut self, _req: Request) -> Result<(), TransportError> {
                self.attempts += 1;
                Ok(())
            }
            fn recv_reply(&mut self) -> Result<Reply, TransportError> {
                unreachable!("timeout path only")
            }
            fn recv_reply_timeout(
                &mut self,
                _timeout: Duration,
            ) -> Result<Option<Reply>, TransportError> {
                if self.attempts >= self.needed {
                    Ok(Some(Reply { assignment: Assignment::Finished }))
                } else {
                    Ok(None)
                }
            }
        }
        let w = UniformLoop::new(1, 1);
        let mut cfg = WorkerConfig::fast(0);
        cfg.reply_timeout = Some(Duration::from_millis(1));
        let stats = run_worker(Flaky { attempts: 0, needed: 3 }, &cfg, &w, false).unwrap();
        assert!(stats.retransmits >= 2, "{}", stats.retransmits);
    }
}
