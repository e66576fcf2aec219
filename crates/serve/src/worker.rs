//! The serve-protocol worker loop.
//!
//! Mirrors the one-shot runtime worker, generalized to batched,
//! job-tagged grants: one request carries every pending result and one
//! reply carries up to `k` chunks from up to `k` different jobs. The
//! worker keeps the materialized workloads of its current batch only
//! (specs travel with every grant, so a worker that joins mid-job needs
//! no side channel, and a job seen again is simply re-materialized).
//!
//! Fault injection reuses [`FaultPlan`]: crashes vanish without
//! reporting the last batch (the master's lease must recover the
//! chunks), and planned disconnects drop the link *while results are
//! pending*, redial, and re-hello — exercising the per-job dedup path
//! when the same results are then delivered over the new connection.

use std::collections::HashMap;
use std::time::Duration;

use lss_core::fault::FaultPlan;
use lss_runtime::protocol::serve::{JobChunkResult, JobGrant, ServeFrame, ServeRequest};
use lss_runtime::protocol::ChunkResult;
use lss_runtime::transport::TransportError;
use lss_workloads::Workload;

use crate::link::ServeLink;

/// Configuration of one serve worker.
#[derive(Debug, Clone)]
pub struct ServeWorkerConfig {
    /// Dense worker id within the pool.
    pub id: usize,
    /// The run-queue length this worker reports (its `Q_i`).
    pub q: u32,
    /// Execute every iteration this many times — a CPU-bound slowdown
    /// for heterogeneity experiments. `1` is a normal machine.
    pub slowdown: u32,
    /// What goes wrong, if anything.
    pub fault: FaultPlan,
}

impl ServeWorkerConfig {
    /// A healthy worker with unit run-queue.
    pub fn healthy(id: usize) -> Self {
        ServeWorkerConfig { id, q: 1, slowdown: 1, fault: FaultPlan::healthy() }
    }
}

/// What a serve worker did, for assertions and throughput accounting.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServeWorkerStats {
    /// Chunks computed (across all jobs).
    pub chunks: u64,
    /// Iterations executed.
    pub iterations: u64,
    /// Scheduling round trips (hello included).
    pub requests: u64,
    /// Planned reconnects performed.
    pub reconnects: u64,
}

/// Materialized workloads keyed by job id, trimmed to the jobs of the
/// latest batch so a long-lived worker holds at most `k` of them.
#[derive(Default)]
struct WorkloadCache(HashMap<u64, Box<dyn Workload>>);

impl WorkloadCache {
    fn get(&mut self, grant: &JobGrant) -> &dyn Workload {
        &**self.0.entry(grant.job).or_insert_with(|| crate::instantiate(&grant.workload))
    }

    /// Forgets every job `batch` did not grant.
    fn keep_only(&mut self, batch: &[JobGrant]) {
        self.0.retain(|job, _| batch.iter().any(|g| g.job == *job));
    }
}

/// Runs the worker loop until the service says `Shutdown` (or the link
/// dies, which after a service exit means the same thing).
///
/// Returns the stats on orderly shutdown; an admission-style
/// `Rejected` from the service (wrong protocol, unknown worker id)
/// surfaces as a typed transport error.
pub fn run_serve_worker<L: ServeLink>(
    link: &mut L,
    cfg: &ServeWorkerConfig,
) -> Result<ServeWorkerStats, TransportError> {
    let mut stats = ServeWorkerStats::default();
    let mut pending: Vec<JobChunkResult> = Vec::new();
    let mut cache = WorkloadCache::default();
    let mut retries: u32 = 0;

    stats.requests += 1;
    let mut reply = match link.call(ServeFrame::HelloWorker { worker: cfg.id, q: cfg.q }) {
        Ok(r) => r,
        Err(TransportError::Disconnected(_)) => return Ok(stats),
        Err(e) => return Err(e),
    };

    loop {
        match reply {
            ServeFrame::Shutdown => return Ok(stats),
            ServeFrame::Rejected { reason } => {
                return Err(TransportError::Io(format!("service rejected worker: {reason}")))
            }
            ServeFrame::Retry => {
                retries = retries.saturating_add(1);
                // Small exponential backoff, capped: the service said
                // "nothing for you right now", not "go away".
                let delay = Duration::from_micros(200u64 << retries.min(6));
                std::thread::sleep(delay);
            }
            ServeFrame::Grants(grants) => {
                retries = 0;
                cache.keep_only(&grants);
                for grant in &grants {
                    let workload = cache.get(grant);
                    let chunk = grant.chunk;
                    let mut values = Vec::with_capacity(chunk.len as usize);
                    for i in chunk.start..chunk.start + chunk.len {
                        let mut v = 0u64;
                        for _ in 0..cfg.slowdown.max(1) {
                            v = workload.execute(i);
                        }
                        values.push(v);
                    }
                    stats.iterations += chunk.len;
                    stats.chunks += 1;
                    pending.push(JobChunkResult {
                        job: grant.job,
                        result: ChunkResult::new(chunk, values),
                    });
                    if cfg
                        .fault
                        .crash_after_chunks
                        .is_some_and(|n| stats.chunks >= n.max(1))
                    {
                        // Vanish: computed results are never reported;
                        // the lease layer must re-grant these chunks.
                        return Ok(stats);
                    }
                }
                if let Some(plan) = cfg.fault.disconnect {
                    if stats.chunks >= plan.after_chunks.max(1) && stats.reconnects == 0 {
                        // Drop the link with results still pending, then
                        // redial: the retransmitted results exercise the
                        // per-job first-result-wins dedup.
                        std::thread::sleep(Duration::from_nanos(plan.outage_ticks.min(5_000_000)));
                        link.reconnect()?;
                        stats.reconnects += 1;
                        stats.requests += 1;
                        reply = match link
                            .call(ServeFrame::HelloWorker { worker: cfg.id, q: cfg.q })
                        {
                            Ok(r) => r,
                            Err(TransportError::Disconnected(_)) => return Ok(stats),
                            Err(e) => return Err(e),
                        };
                        continue;
                    }
                }
            }
            _ => {
                return Err(TransportError::Malformed(
                    "unexpected frame in worker loop".into(),
                ))
            }
        }

        stats.requests += 1;
        let req = ServeFrame::Request(ServeRequest {
            worker: cfg.id,
            q: cfg.q,
            results: std::mem::take(&mut pending),
        });
        reply = match link.call(req) {
            Ok(r) => r,
            // A dead link after the service exits is an implicit
            // shutdown, not an error worth failing a worker thread for.
            Err(TransportError::Disconnected(_)) => return Ok(stats),
            Err(e) => return Err(e),
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lss_core::Chunk;
    use lss_runtime::protocol::serve::WorkloadSpec;

    /// A worker that meets thousands of jobs holds only its current
    /// batch's workloads.
    #[test]
    fn workload_cache_stays_bounded_over_many_jobs() {
        let mut cache = WorkloadCache::default();
        let workload = WorkloadSpec::Uniform { iters: 8, cost: 1 };
        for first in 0..2_000u64 {
            let batch: Vec<JobGrant> = (first..first + 4)
                .map(|job| JobGrant { job, workload, chunk: Chunk::new(0, 8) })
                .collect();
            cache.keep_only(&batch);
            batch.iter().for_each(|grant| assert_eq!(cache.get(grant).len(), 8));
            assert!(cache.0.len() <= batch.len(), "cache grew to {}", cache.0.len());
        }
    }
}
