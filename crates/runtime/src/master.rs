//! The master loop — serves requests in arrival order (§5: "the master
//! accepts requests from the slaves and services them in the order of
//! their arrival"), collecting piggy-backed results as they come in.
//!
//! [`run_resilient_master`] is the one master loop: chunk leases with
//! deadline-driven requeue, heartbeat liveness, speculative
//! re-execution near the end of the loop, first-result-wins dedup, and
//! reconnect handling — every recovery decision recorded in a typed
//! [`FaultLog`]. The paper's MPI implementation dies with any slave;
//! this loop finishes the loop as long as *one* worker survives.
//!
//! What computes the grants is a [`GrantBackend`], the split
//! Eleliemy & Ciorba draw between chunk *assignment* and chunk
//! *calculation*: `&mut` [`Master`] is one central dispenser that runs
//! every scheme, `&` [`ShardSet`] is N work-stealing shards or
//! worker-side self-calculation for the closed-form schemes. Both
//! backends see the same inbound protocol, fault log and termination
//! contract.

use std::time::{Duration, Instant};

use lss_core::chunk::Chunk;
use lss_core::fault::{ExpiredLease, LeaseConfig};
use lss_core::master::{Assignment, CompletionOutcome, Master};
use lss_metrics::{FaultEvent, FaultKind, FaultLog};
use lss_shard::ShardSet;
use lss_trace::{EventKind as TraceKind, SharedSink, TraceEvent};

use crate::protocol::Reply;
use crate::transport::{Inbound, MasterTransport, TransportError};

/// What the master loop asks of whatever computes its grants. Every
/// method is one call the loop makes; the backend owns leases,
/// requeues, speculation and the completion bitmap, and emits its own
/// chunk-lifecycle trace events.
pub trait GrantBackend {
    /// Number of workers `p` the backend serves.
    fn workers(&self) -> usize;
    /// Loop size `I`.
    fn total(&self) -> u64;
    /// The lease policy (also bounds how long a silent worker may hold
    /// up termination).
    fn lease_config(&self) -> LeaseConfig;
    /// Routes lifecycle events onto the loop's trace sink (called once,
    /// only when `trace` is enabled). The default suits a backend built
    /// with that sink.
    fn attach_trace(&mut self, _trace: &SharedSink) {}
    /// Expires overdue leases at `now`, requeueing incomplete chunks.
    fn poll_leases(&mut self, now: u64) -> Vec<ExpiredLease>;
    /// Whether every iteration of `chunk` has completed.
    fn chunk_fully_complete(&self, chunk: Chunk) -> bool;
    /// Whether every iteration of `[0, I)` has completed.
    fn all_complete(&self) -> bool;
    /// Whether `worker` is currently declared dead.
    fn worker_is_dead(&self, worker: usize) -> bool;
    /// The earliest outstanding lease deadline.
    fn next_deadline(&self) -> Option<u64>;
    /// Notes a heartbeat from `worker`.
    fn heartbeat(&mut self, worker: usize, now: u64);
    /// Handles a lost link: returns the chunks requeued from `worker`.
    fn disconnected(&mut self, worker: usize, now: u64) -> Vec<Chunk>;
    /// Handles a re-established link. The default does nothing: the
    /// worker's next request clears its dead flag.
    fn reconnected(&mut self, _worker: usize, _now: u64) {}
    /// Records a reported chunk, first result wins.
    fn complete(&mut self, worker: usize, chunk: Chunk, now: u64) -> CompletionOutcome;
    /// Serves one request under a lease.
    fn grant(&mut self, worker: usize, q: u32, now: u64) -> Assignment;
    /// Speculative grants handed out so far.
    fn speculative_grants(&self) -> u64;
}

/// The central dispenser: every scheme, one lease table.
impl GrantBackend for &mut Master {
    fn workers(&self) -> usize {
        Master::workers(self)
    }
    fn total(&self) -> u64 {
        Master::total(self)
    }
    fn lease_config(&self) -> LeaseConfig {
        *self.lease_table().config()
    }
    fn attach_trace(&mut self, trace: &SharedSink) {
        self.set_trace_sink(Box::new(trace.clone()));
    }
    fn poll_leases(&mut self, now: u64) -> Vec<ExpiredLease> {
        Master::poll_leases(self, now)
    }
    fn chunk_fully_complete(&self, chunk: Chunk) -> bool {
        Master::chunk_fully_complete(self, chunk)
    }
    fn all_complete(&self) -> bool {
        Master::all_complete(self)
    }
    fn worker_is_dead(&self, worker: usize) -> bool {
        Master::worker_is_dead(self, worker)
    }
    fn next_deadline(&self) -> Option<u64> {
        self.next_lease_deadline()
    }
    fn heartbeat(&mut self, worker: usize, now: u64) {
        self.note_heartbeat(worker, now);
    }
    fn disconnected(&mut self, worker: usize, _now: u64) -> Vec<Chunk> {
        self.worker_disconnected(worker).into_iter().collect()
    }
    fn complete(&mut self, worker: usize, chunk: Chunk, now: u64) -> CompletionOutcome {
        self.record_completion(worker, chunk, now)
    }
    fn grant(&mut self, worker: usize, q: u32, now: u64) -> Assignment {
        self.grant_with_lease(worker, q, now)
    }
    fn speculative_grants(&self) -> u64 {
        Master::speculative_grants(self)
    }
}

/// N master shards (work-stealing) or self-calculated chunks. The set
/// must have been built with the loop's trace sink, so shard events
/// and loop events share one timeline.
impl GrantBackend for &ShardSet {
    fn workers(&self) -> usize {
        ShardSet::workers(self)
    }
    fn total(&self) -> u64 {
        ShardSet::total(self)
    }
    fn lease_config(&self) -> LeaseConfig {
        *ShardSet::lease_config(self)
    }
    fn poll_leases(&mut self, now: u64) -> Vec<ExpiredLease> {
        self.poll(now)
    }
    fn chunk_fully_complete(&self, chunk: Chunk) -> bool {
        self.ledger().chunk_fully_complete(chunk)
    }
    fn all_complete(&self) -> bool {
        ShardSet::all_complete(self)
    }
    fn worker_is_dead(&self, worker: usize) -> bool {
        ShardSet::worker_is_dead(self, worker)
    }
    fn next_deadline(&self) -> Option<u64> {
        ShardSet::next_deadline(self)
    }
    fn heartbeat(&mut self, worker: usize, now: u64) {
        ShardSet::heartbeat(self, worker, now);
    }
    fn disconnected(&mut self, worker: usize, now: u64) -> Vec<Chunk> {
        self.worker_disconnected(worker, now)
    }
    fn reconnected(&mut self, worker: usize, now: u64) {
        self.worker_reconnected(worker, now);
    }
    fn complete(&mut self, worker: usize, chunk: Chunk, now: u64) -> CompletionOutcome {
        ShardSet::complete(self, worker, chunk, now)
    }
    fn grant(&mut self, worker: usize, q: u32, now: u64) -> Assignment {
        ShardSet::grant(self, worker, q, now)
    }
    fn speculative_grants(&self) -> u64 {
        ShardSet::speculative_grants(self)
    }
}

/// Appends to the fault log and mirrors the entry onto the trace
/// timeline. Kinds the backend already emits as first-class lifecycle
/// events map to `None` and are not mirrored (see
/// [`FaultEvent::to_trace`]).
fn log_fault(faults: &mut FaultLog, trace: &SharedSink, ev: FaultEvent) {
    if trace.enabled() {
        if let Some(t) = ev.to_trace() {
            trace.record(t);
        }
    }
    faults.push(ev);
}

/// Logs the loss of `w`'s link (`why[0]`) and every chunk the backend
/// reclaimed from it (`why[1]`).
fn link_lost<B: GrantBackend>(
    backend: &mut B,
    faults: &mut FaultLog,
    trace: &SharedSink,
    w: usize,
    now: u64,
    why: [&str; 2],
) {
    let at = now as f64 / 1e9;
    log_fault(faults, trace, FaultEvent::new(at, FaultKind::Disconnected, why[0]).on_worker(w));
    for chunk in backend.disconnected(w, now) {
        let ev = FaultEvent::new(at, FaultKind::Requeued, why[1]);
        log_fault(faults, trace, ev.on_worker(w).on_chunk(chunk.start, chunk.len));
    }
}

/// What the fault-tolerant master loop produced.
#[derive(Debug)]
pub struct ResilientOutcome {
    /// Collected per-iteration results, first result wins (`None` =
    /// never received — only possible when every worker died).
    pub results: Vec<Option<u64>>,
    /// Requests served, including retries and terminations.
    pub requests_served: u64,
    /// Workers that were never told to terminate (crashed, hung, or
    /// declared dead).
    pub failed_workers: Vec<usize>,
    /// Speculative (duplicate) grants handed out near end-of-loop.
    pub speculative_grants: u64,
    /// Results discarded by first-result-wins dedup.
    pub duplicates_dropped: u64,
    /// Every fault-handling decision, in time order.
    pub faults: FaultLog,
}

/// Runs the self-healing master loop over `backend`: grants carry
/// leases, expired leases requeue their chunks, silent workers are
/// declared dead, stragglers are speculatively re-executed, and
/// duplicate results are deduplicated first-result-wins. Completes as
/// long as the completion bitmap can be filled — i.e. as long as at
/// least one worker keeps making progress — and records every recovery
/// step in the returned [`FaultLog`].
///
/// `poll_interval` bounds how long the loop sleeps without checking
/// leases; the effective wake-up is the earlier of it and the next
/// lease deadline.
///
/// `trace` receives the full chunk lifecycle (grants, starts,
/// completions, lapses, requeues, dedups) plus worker membership and
/// heartbeats on one timeline; [`SharedSink::disabled`] runs untraced.
/// When `trace` is enabled its epoch becomes the loop's time base, so
/// master-side events share the clock of every worker thread stamping
/// through clones of the same sink, and the backend emits the
/// lease-path lifecycle events itself (see
/// [`GrantBackend::attach_trace`]).
pub fn run_resilient_master<T: MasterTransport, B: GrantBackend>(
    mut transport: T,
    mut backend: B,
    poll_interval: Duration,
    trace: SharedSink,
) -> Result<ResilientOutcome, TransportError> {
    let p = backend.workers();
    assert!(p >= 1, "need at least one worker");
    let epoch = Instant::now();
    let traced = trace.enabled();
    if traced {
        backend.attach_trace(&trace);
    }
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

    let mut results: Vec<Option<u64>> = vec![None; backend.total() as usize];
    let mut requests_served = 0u64;
    let mut duplicates_dropped = 0u64;
    let mut done = vec![false; p]; // told Finished
    let mut link_down = vec![false; p];
    let mut last_seen = vec![0u64; p];
    let mut faults = FaultLog::new();
    // A worker totally silent for this long is abandoned once all work
    // is complete (covers the hang-without-expirable-lease corner).
    let lease_cfg = backend.lease_config();
    let silence_limit = lease_cfg.base_ticks.saturating_add(lease_cfg.dead_after_ticks);

    loop {
        let now = now_ns();

        // Expire overdue leases: requeue what is still needed, declare
        // long-silent holders dead.
        for exp in backend.poll_leases(now) {
            let l = exp.lease;
            log_fault(&mut faults, &trace,
                FaultEvent::new(secs(now), FaultKind::LeaseExpired, "lease deadline passed")
                    .on_worker(l.worker)
                    .on_chunk(l.chunk.start, l.chunk.len),
            );
            if !backend.chunk_fully_complete(l.chunk) {
                log_fault(&mut faults, &trace,
                    FaultEvent::new(secs(now), FaultKind::Requeued, "chunk returned to pool")
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
        if backend.all_complete()
            && (0..p).all(|w| {
                done[w]
                    || link_down[w]
                    || backend.worker_is_dead(w)
                    || now.saturating_sub(last_seen[w]) > silence_limit
            })
        {
            break;
        }

        // Sleep until traffic, the poll interval, or the next lease
        // deadline — whichever comes first.
        let timeout = match backend.next_deadline() {
            Some(d) => poll_interval.min(Duration::from_nanos(d.saturating_sub(now).max(1))),
            None => poll_interval,
        };
        let event = match transport.recv_timeout(timeout) {
            Ok(ev) => ev,
            Err(e) if e.is_disconnect() => {
                // Every worker is gone. Whatever the bitmap says now is
                // all this run will ever produce.
                break;
            }
            Err(e) => return Err(e),
        };

        let Some(event) = event else {
            continue; // timeout: loop to poll leases
        };
        let w = match &event {
            Inbound::Heartbeat { worker: w }
            | Inbound::Disconnected(w)
            | Inbound::Reconnected(w) => *w,
            Inbound::Request(req) => req.worker,
        };
        if w >= p {
            return Err(TransportError::UnknownWorker(w));
        }
        match event {
            Inbound::Heartbeat { .. } => {
                let now = now_ns();
                last_seen[w] = now;
                backend.heartbeat(w, now);
                if traced {
                    if !seen[w] {
                        seen[w] = true;
                        trace.record(TraceEvent::new(now, TraceKind::WorkerConnected).on_worker(w));
                    }
                    trace.record(TraceEvent::new(now, TraceKind::Heartbeat).on_worker(w));
                }
            }
            Inbound::Disconnected(_) => {
                if !done[w] && !link_down[w] {
                    link_down[w] = true;
                    let why = ["link lost", "chunk reclaimed from lost worker"];
                    link_lost(&mut backend, &mut faults, &trace, w, now_ns(), why);
                }
            }
            Inbound::Reconnected(_) => {
                let now = now_ns();
                link_down[w] = false;
                last_seen[w] = now;
                backend.reconnected(w, now);
                log_fault(&mut faults, &trace,
                    FaultEvent::new(secs(now), FaultKind::Recovered, "worker reconnected")
                        .on_worker(w),
                );
            }
            Inbound::Request(req) => {
                requests_served += 1;
                let now = now_ns();
                if traced && !seen[w] {
                    seen[w] = true;
                    trace.record(TraceEvent::new(now, TraceKind::WorkerConnected).on_worker(w));
                }
                if backend.worker_is_dead(w) {
                    // Back from the dead (e.g. a hang that unwedged, or
                    // a reconnect after being declared lost).
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
                    if res.chunk.end() > backend.total() {
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
                    let out = backend.complete(w, res.chunk, now);
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

                let spec_before = backend.speculative_grants();
                let assignment = backend.grant(w, req.q, now);
                if backend.speculative_grants() > spec_before {
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
                    // Vanished between request and reply: reclaim the
                    // grant; the transport's disconnect notice (if any)
                    // is handled when it arrives.
                    done[w] = false;
                    link_down[w] = true;
                    let why = ["reply undeliverable", "grant reclaimed after failed reply"];
                    link_lost(&mut backend, &mut faults, &trace, w, now_ns(), why);
                }
            }
        }
    }

    let failed_workers: Vec<usize> = (0..p).filter(|&w| !done[w]).collect();
    Ok(ResilientOutcome {
        results,
        requests_served,
        failed_workers,
        speculative_grants: backend.speculative_grants(),
        duplicates_dropped,
        faults,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{ChunkResult, Request};
    use crate::transport::channels::channel_transport;
    use crate::transport::WorkerTransport;
    use lss_core::master::{MasterConfig, SchemeKind};
    use lss_core::Master;

    fn drive_worker(
        mut t: impl WorkerTransport + 'static,
        id: usize,
    ) -> std::thread::JoinHandle<u64> {
        std::thread::spawn(move || {
            let mut result = None;
            let mut iters = 0u64;
            loop {
                t.send_request(Request { worker: id, q: 1, result: result.take() }).unwrap();
                match t.recv_reply().unwrap().assignment {
                    Assignment::Chunk(c) => {
                        iters += c.len;
                        let values = c.iter().map(|x| x * 3).collect();
                        result = Some(ChunkResult::new(c, values));
                    }
                    Assignment::Retry => {
                        std::thread::sleep(Duration::from_micros(200));
                    }
                    Assignment::Finished => return iters,
                }
            }
        })
    }

    #[test]
    fn resilient_loop_completes_a_healthy_run_without_fault_events() {
        let (mt, workers) = channel_transport(3);
        let mut master =
            Master::new(MasterConfig::homogeneous(SchemeKind::Tss, 300, 3));
        let handles: Vec<_> = workers
            .into_iter()
            .enumerate()
            .map(|(i, w)| drive_worker(w, i))
            .collect();
        let out =
            run_resilient_master(mt, &mut master, Duration::from_millis(5), SharedSink::disabled())
                .unwrap();
        let total: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(total, 300, "no duplicated compute in a healthy run");
        assert!(out.failed_workers.is_empty());
        assert_eq!(out.speculative_grants, 0, "age gate keeps healthy runs clean");
        assert_eq!(out.duplicates_dropped, 0);
        assert!(out.faults.is_empty(), "{}", out.faults.render());
        for (i, r) in out.results.iter().enumerate() {
            assert_eq!(*r, Some(i as u64 * 3), "iteration {i}");
        }
    }

    #[test]
    fn resilient_loop_recovers_a_crashed_workers_chunk() {
        let (mt, mut workers) = channel_transport(2);
        let mut master =
            Master::new(MasterConfig::homogeneous(SchemeKind::Css { k: 10 }, 60, 2));
        let dying = workers.pop().unwrap();
        let d = std::thread::spawn(move || {
            let mut t = dying;
            t.send_request(Request { worker: 1, q: 1, result: None }).unwrap();
            let r = t.recv_reply().unwrap();
            assert!(matches!(r.assignment, Assignment::Chunk(_)));
            // Crash while holding the chunk.
        });
        let survivor = drive_worker(workers.pop().unwrap(), 0);
        let out =
            run_resilient_master(mt, &mut master, Duration::from_millis(2), SharedSink::disabled())
                .unwrap();
        d.join().unwrap();
        let iters = survivor.join().unwrap();
        assert_eq!(iters, 60, "survivor absorbed the crashed worker's chunk");
        assert_eq!(out.failed_workers, vec![1]);
        assert!(out.results.iter().all(|r| r.is_some()));
        assert!(out.faults.count(FaultKind::Disconnected) >= 1, "{}", out.faults.render());
        assert!(out.faults.count(FaultKind::Requeued) >= 1, "{}", out.faults.render());
    }

    #[test]
    fn resilient_loop_survives_all_workers_dying() {
        let (mt, workers) = channel_transport(1);
        let mut master =
            Master::new(MasterConfig::homogeneous(SchemeKind::Css { k: 5 }, 20, 1));
        let d = std::thread::spawn(move || {
            let mut t = workers.into_iter().next().unwrap();
            t.send_request(Request { worker: 0, q: 1, result: None }).unwrap();
            let _ = t.recv_reply();
        });
        let out =
            run_resilient_master(mt, &mut master, Duration::from_millis(2), SharedSink::disabled())
                .unwrap();
        d.join().unwrap();
        assert_eq!(out.failed_workers, vec![0]);
        assert!(out.results.iter().any(|r| r.is_none()), "partial results reported");
    }

    /// A thread-free transport: replays a fixed inbound script, records
    /// every reply, and reads as "every worker gone" once spent.
    struct Scripted(std::vec::IntoIter<Inbound>, std::sync::Arc<std::sync::Mutex<Vec<Reply>>>);

    impl MasterTransport for Scripted {
        fn recv(&mut self) -> Result<Inbound, TransportError> {
            self.0.next().ok_or_else(|| TransportError::Disconnected("script spent".into()))
        }
        fn recv_timeout(&mut self, _timeout: Duration) -> Result<Option<Inbound>, TransportError> {
            self.recv().map(Some)
        }
        fn send(&mut self, _worker: usize, reply: Reply) -> Result<(), TransportError> {
            self.1.lock().unwrap().push(reply);
            Ok(())
        }
    }

    type Replayed = (Result<ResilientOutcome, TransportError>, Vec<Reply>);

    fn replay<B: GrantBackend>(b: B, script: Vec<Inbound>) -> Replayed {
        let replies = std::sync::Arc::default();
        let t = Scripted(script.into_iter(), std::sync::Arc::clone(&replies));
        let out = run_resilient_master(t, b, Duration::from_millis(1), SharedSink::disabled());
        let replies = replies.lock().unwrap().clone();
        (out, replies)
    }

    fn req(worker: usize, done: Option<(u64, u64)>) -> Inbound {
        let result = done.map(|(start, len)| {
            let c = lss_core::Chunk::new(start, len);
            ChunkResult::new(c, c.iter().map(|i| i * 3).collect())
        });
        Inbound::Request(Request { worker, q: 1, result })
    }

    #[test]
    fn both_grant_backends_honour_one_contract() {
        let css = SchemeKind::Css { k: 10 };
        let backends = || {
            let set = lss_shard::ShardSet::new(
                lss_shard::ShardSetConfig::sharded(css, 40, 1, 2),
                SharedSink::disabled(),
            );
            (Master::new(MasterConfig::homogeneous(css, 40, 2)), set.unwrap())
        };
        let mut script = vec![
            req(0, None),           // hello: [0, 10)
            req(1, None),           // hello: [10, 20)
            req(0, Some((0, 10))),  // [20, 30)
            req(0, Some((0, 10))),  // duplicated: deduped, [20, 30) again
            Inbound::Disconnected(1), // held [10, 20): requeued
            Inbound::Reconnected(1),
            req(0, Some((20, 10))), // the requeued [10, 20)
            req(0, Some((10, 10))), // [30, 40)
            req(0, Some((30, 10))), // Finished
        ];
        // Worker 1 goes quiet after its reconnect: the central master
        // keeps a disconnected worker's dead flag until its next
        // request, which then logs a second `Recovered`, while the set
        // clears the flag on the reconnect itself.
        let (mut master, set) = backends();
        let (central, central_replies) = replay(&mut master, script.clone());
        let (sharded, sharded_replies) = replay(&set, script.clone());
        let (central, sharded) = (central.unwrap(), sharded.unwrap());
        assert_eq!(central_replies, sharded_replies);
        assert_eq!(central_replies.last().map(|r| r.assignment), Some(Assignment::Finished));
        let kinds =
            |o: &ResilientOutcome| o.faults.events().iter().map(|e| e.kind).collect::<Vec<_>>();
        use FaultKind::*;
        assert_eq!(kinds(&central), [DuplicateDropped, Disconnected, Requeued, Recovered]);
        assert_eq!(kinds(&central), kinds(&sharded));
        for out in [&central, &sharded] {
            assert_eq!((out.failed_workers.as_slice(), out.duplicates_dropped), (&[1][..], 1));
            assert!(out.results.iter().enumerate().all(|(i, r)| *r == Some(i as u64 * 3)));
        }

        // A result past the end of the loop is a protocol error on both.
        script.insert(6, req(0, Some((35, 10))));
        let (mut master, set) = backends();
        let central = replay(&mut master, script.clone()).0.unwrap_err();
        assert!(matches!(central, TransportError::Malformed(_)), "{central:?}");
        assert_eq!(central, replay(&set, script).0.unwrap_err());
    }
}
