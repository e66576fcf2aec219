//! The master loop — serves requests in arrival order (§5: "the master
//! accepts requests from the slaves and services them in the order of
//! their arrival"), collecting piggy-backed results as they come in.
//!
//! [`run_resilient_master`] is the self-healing loop: chunk leases with
//! deadline-driven requeue, heartbeat liveness, speculative
//! re-execution near the end of the loop, first-result-wins dedup, and
//! reconnect handling — every recovery decision recorded in a typed
//! [`FaultLog`]. The paper's MPI implementation dies with any slave;
//! this loop finishes the loop as long as *one* worker survives.

use std::time::{Duration, Instant};

use lss_core::master::{Assignment, Master};
use lss_metrics::{FaultEvent, FaultKind, FaultLog};
use lss_trace::{EventKind as TraceKind, SharedSink, TraceEvent};

use crate::protocol::Reply;
use crate::transport::{Inbound, MasterTransport, TransportError};

/// Appends to the fault log and mirrors the entry onto the trace
/// timeline. Kinds the traced core master already emits as first-class
/// lifecycle events map to `None` and are not mirrored (see
/// [`FaultEvent::to_trace`]).
fn log_fault(faults: &mut FaultLog, trace: &SharedSink, ev: FaultEvent) {
    if trace.enabled() {
        if let Some(t) = ev.to_trace() {
            trace.record(t);
        }
    }
    faults.push(ev);
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

/// Runs the self-healing master loop: grants carry leases, expired
/// leases requeue their chunks, silent workers are declared dead,
/// stragglers are speculatively re-executed, and duplicate results are
/// deduplicated first-result-wins. Completes as long as the completion
/// bitmap can be filled — i.e. as long as at least one worker keeps
/// making progress — and records every recovery step in the returned
/// [`FaultLog`].
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
/// through clones of the same sink; the core [`Master`] is given the
/// sink too and emits the lease-path lifecycle events itself.
pub fn run_resilient_master<T: MasterTransport>(
    mut transport: T,
    master: &mut Master,
    p: usize,
    poll_interval: Duration,
    trace: SharedSink,
) -> Result<ResilientOutcome, TransportError> {
    assert!(p >= 1, "need at least one worker");
    let epoch = Instant::now();
    let traced = trace.enabled();
    if traced {
        master.set_trace_sink(Box::new(trace.clone()));
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

    let mut results: Vec<Option<u64>> = vec![None; master.total() as usize];
    let mut requests_served = 0u64;
    let mut duplicates_dropped = 0u64;
    let mut done = vec![false; p]; // told Finished
    let mut link_down = vec![false; p];
    let mut last_seen = vec![0u64; p];
    let mut faults = FaultLog::new();
    // A worker totally silent for this long is abandoned once all work
    // is complete (covers the hang-without-expirable-lease corner).
    let lease_cfg = *master.lease_table().config();
    let silence_limit = lease_cfg.base_ticks.saturating_add(lease_cfg.dead_after_ticks);

    loop {
        let now = now_ns();

        // Expire overdue leases: requeue what is still needed, declare
        // long-silent holders dead.
        for exp in master.poll_leases(now) {
            let l = exp.lease;
            log_fault(&mut faults, &trace,
                FaultEvent::new(secs(now), FaultKind::LeaseExpired, "lease deadline passed")
                    .on_worker(l.worker)
                    .on_chunk(l.chunk.start, l.chunk.len),
            );
            let incomplete =
                (l.chunk.start..l.chunk.end()).any(|i| !master.iteration_completed(i));
            if incomplete {
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
        if master.all_complete()
            && (0..p).all(|w| {
                done[w]
                    || link_down[w]
                    || master.worker_is_dead(w)
                    || now.saturating_sub(last_seen[w]) > silence_limit
            })
        {
            break;
        }

        // Sleep until traffic, the poll interval, or the next lease
        // deadline — whichever comes first.
        let timeout = match master.next_lease_deadline() {
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

        match event {
            None => continue, // timeout: loop to poll leases
            Some(Inbound::Heartbeat { worker }) => {
                if worker >= p {
                    return Err(TransportError::UnknownWorker(worker));
                }
                let now = now_ns();
                last_seen[worker] = now;
                master.note_heartbeat(worker, now);
                if traced {
                    if !seen[worker] {
                        seen[worker] = true;
                        trace.record(
                            TraceEvent::new(now, TraceKind::WorkerConnected).on_worker(worker),
                        );
                    }
                    trace.record(TraceEvent::new(now, TraceKind::Heartbeat).on_worker(worker));
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
                    if let Some(chunk) = master.worker_disconnected(w) {
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
                    trace.record(TraceEvent::new(now, TraceKind::WorkerConnected).on_worker(w));
                }
                if master.worker_is_dead(w) {
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
                    if res.chunk.end() > master.total() {
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
                    let out = master.record_completion(w, res.chunk, now);
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

                let spec_before = master.speculative_grants();
                let assignment = master.grant_with_lease(w, req.q, now);
                if master.speculative_grants() > spec_before {
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
                    let now = now_ns();
                    done[w] = false;
                    link_down[w] = true;
                    log_fault(&mut faults, &trace,
                        FaultEvent::new(secs(now), FaultKind::Disconnected, "reply undeliverable")
                            .on_worker(w),
                    );
                    if let Some(chunk) = master.worker_disconnected(w) {
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
        speculative_grants: master.speculative_grants(),
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
            run_resilient_master(mt, &mut master, 3, Duration::from_millis(5), SharedSink::disabled())
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
            run_resilient_master(mt, &mut master, 2, Duration::from_millis(2), SharedSink::disabled())
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
            run_resilient_master(mt, &mut master, 1, Duration::from_millis(2), SharedSink::disabled())
                .unwrap();
        d.join().unwrap();
        assert_eq!(out.failed_workers, vec![0]);
        assert!(out.results.iter().any(|r| r.is_none()), "partial results reported");
    }
}
