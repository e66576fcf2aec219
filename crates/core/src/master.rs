//! The transport-independent master of the master–slave model (§2.2).
//!
//! Idle slaves send a request (optionally piggy-backing their previous
//! result and their current run-queue length); the master answers with
//! an iteration interval. [`Master`] encapsulates *which* interval,
//! uniformly over every scheme family in the paper:
//!
//! - **simple** schemes ([`crate::scheme`]) ignore who is asking,
//! - **weighted factoring** scales by static per-worker weights,
//! - **distributed** schemes ([`crate::distributed`]) use the reported
//!   run-queue lengths (the ACP model) and re-plan on load changes.
//!
//! Both the discrete-event simulator (`lss-sim`) and the real threaded
//! runtime (`lss-runtime`) drive this same state machine, so a scheme's
//! behaviour is identical under simulation and real execution.

use crate::chunk::{Chunk, ChunkDispenser};
use crate::distributed::{DistKind, DistributedScheduler, Grant, WorkerId};
use crate::fault::{ExpiredLease, LeaseConfig, LeaseTable};
use crate::power::{AcpConfig, VirtualPower};
use crate::scheme::{
    ChunkSelfSched, ChunkSizer, FactoringSelfSched, FixedIncreaseSelfSched, GuidedSelfSched,
    PureSelfSched, StaticSched, TrapezoidFactoringSelfSched, TrapezoidSelfSched,
    WeightedFactoring,
};
use lss_trace::{EventKind, NoopSink, TraceEvent, TraceSink};

/// Every scheduling scheme in the paper, by name.
///
/// The first block are the *simple* schemes of §2 (they treat all PEs
/// as equals); `Wf` is the static-weight baseline; the `D*` block are
/// the *distributed* schemes of §3/§6 (ACP-aware and adaptive).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SchemeKind {
    /// Static block scheduling (`S`).
    Static,
    /// Pure self-scheduling (`SS`), chunk size 1.
    Pure,
    /// Chunk self-scheduling with fixed size `k`.
    Css {
        /// The fixed chunk size.
        k: u64,
    },
    /// Guided self-scheduling with a minimum chunk size (1 = plain GSS).
    Gss {
        /// Minimum chunk size (`GSS(k)`).
        min_chunk: u64,
    },
    /// Trapezoid self-scheduling.
    Tss,
    /// Trapezoid self-scheduling with explicit first/last chunk sizes
    /// (the paper's `L > 1` remedy for the many final synchronizations).
    TssWith {
        /// First chunk size `F`.
        first: u64,
        /// Last chunk size `L`.
        last: u64,
    },
    /// Factoring self-scheduling (α = 2).
    Fss,
    /// Factoring self-scheduling with Hummel et al.'s *computed* α,
    /// derived from the iteration-cost distribution.
    FssAdaptive {
        /// Mean iteration cost `μ`.
        mean_cost: f64,
        /// Standard deviation `σ` of iteration costs.
        std_dev: f64,
    },
    /// Fixed-increase self-scheduling with `σ` stages.
    Fiss {
        /// Planned number of stages.
        sigma: u32,
    },
    /// Trapezoid-factoring self-scheduling — the paper's new scheme.
    Tfss,
    /// Weighted factoring (static weights; *not* distributed per §6).
    Wf,
    /// Distributed trapezoid self-scheduling.
    Dtss,
    /// Distributed factoring self-scheduling.
    Dfss,
    /// Distributed fixed-increase self-scheduling with `σ` stages.
    Dfiss {
        /// Planned number of stages.
        sigma: u32,
    },
    /// Distributed trapezoid-factoring self-scheduling.
    Dtfss,
}

impl SchemeKind {
    /// Display name as used in the paper's tables.
    pub fn name(&self) -> &'static str {
        match self {
            SchemeKind::Static => "S",
            SchemeKind::Pure => "SS",
            SchemeKind::Css { .. } => "CSS",
            SchemeKind::Gss { .. } => "GSS",
            SchemeKind::Tss => "TSS",
            SchemeKind::TssWith { .. } => "TSS",
            SchemeKind::Fss => "FSS",
            SchemeKind::FssAdaptive { .. } => "FSS*",
            SchemeKind::Fiss { .. } => "FISS",
            SchemeKind::Tfss => "TFSS",
            SchemeKind::Wf => "WF",
            SchemeKind::Dtss => "DTSS",
            SchemeKind::Dfss => "DFSS",
            SchemeKind::Dfiss { .. } => "DFISS",
            SchemeKind::Dtfss => "DTFSS",
        }
    }

    /// Whether the scheme uses run-time load information (§6's
    /// definition of *distributed*).
    pub fn is_distributed(&self) -> bool {
        matches!(
            self,
            SchemeKind::Dtss | SchemeKind::Dfss | SchemeKind::Dfiss { .. } | SchemeKind::Dtfss
        )
    }

    /// Instantiates the scheme's *pure formula* as a boxed sizer over a
    /// loop of `total` iterations and `p` workers — the replicable part
    /// a master shard or a self-scheduling worker can evaluate locally
    /// (the certifier proves replicas match the production dispenser).
    /// Returns `None` for schemes whose chunk sizes depend on *who* is
    /// asking (WF's static weights, the distributed schemes' ACP
    /// state), which cannot be replicated as one shared formula.
    pub fn formula_sizer(&self, total: u64, p: u32) -> Option<Box<dyn ChunkSizer + Send>> {
        Some(match *self {
            SchemeKind::Static => Box::new(StaticSched::new(total, p)),
            SchemeKind::Pure => Box::new(PureSelfSched::new()),
            SchemeKind::Css { k } => Box::new(ChunkSelfSched::new(k)),
            SchemeKind::Gss { min_chunk } => {
                Box::new(GuidedSelfSched::with_min_chunk(p, min_chunk))
            }
            SchemeKind::Tss => Box::new(TrapezoidSelfSched::new(total, p)),
            SchemeKind::TssWith { first, last } => {
                Box::new(TrapezoidSelfSched::with_bounds(total, first, last))
            }
            SchemeKind::Fss => Box::new(FactoringSelfSched::new(p)),
            SchemeKind::FssAdaptive { mean_cost, std_dev } => {
                Box::new(FactoringSelfSched::adaptive(p, mean_cost, std_dev))
            }
            SchemeKind::Fiss { sigma } => {
                Box::new(FixedIncreaseSelfSched::new(total, p, sigma))
            }
            SchemeKind::Tfss => Box::new(TrapezoidFactoringSelfSched::new(total, p)),
            SchemeKind::Wf
            | SchemeKind::Dtss
            | SchemeKind::Dfss
            | SchemeKind::Dfiss { .. }
            | SchemeKind::Dtfss => return None,
        })
    }

    /// The adaptive simple schemes evaluated in Table 2 of the paper.
    /// FISS uses `σ = 3` — the stage count of the paper's own Table 1
    /// example (`50 83 117` with `X = 5`).
    pub fn table2_schemes() -> Vec<SchemeKind> {
        vec![
            SchemeKind::Tss,
            SchemeKind::Fss,
            SchemeKind::Fiss { sigma: 3 },
            SchemeKind::Tfss,
        ]
    }

    /// The distributed schemes evaluated in Table 3 of the paper.
    pub fn table3_schemes() -> Vec<SchemeKind> {
        vec![
            SchemeKind::Dtss,
            SchemeKind::Dfss,
            SchemeKind::Dfiss { sigma: 3 },
            SchemeKind::Dtfss,
        ]
    }
}

/// The master's answer to a slave request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Assignment {
    /// An interval of iterations to execute.
    Chunk(Chunk),
    /// The worker is currently unavailable (ACP 0 / below threshold);
    /// it should re-check its load and ask again.
    Retry,
    /// No work remains — terminate.
    Finished,
}

/// Configuration for a [`Master`].
#[derive(Debug, Clone)]
pub struct MasterConfig {
    /// Which scheduling scheme to run.
    pub scheme: SchemeKind,
    /// Total number of loop iterations `I`.
    pub total: u64,
    /// Virtual power of each worker (length = number of slaves `p`).
    pub powers: Vec<VirtualPower>,
    /// Initial run-queue length of each worker (1 = dedicated).
    pub initial_q: Vec<u32>,
    /// ACP derivation rule.
    pub acp: AcpConfig,
}

impl MasterConfig {
    /// Config for a dedicated cluster of `p` equal workers — what the
    /// simple schemes assume.
    pub fn homogeneous(scheme: SchemeKind, total: u64, p: usize) -> Self {
        MasterConfig {
            scheme,
            total,
            powers: vec![VirtualPower::new(1.0); p],
            initial_q: vec![1; p],
            acp: AcpConfig::PAPER,
        }
    }

    /// Config for a dedicated heterogeneous cluster.
    pub fn heterogeneous(scheme: SchemeKind, total: u64, powers: Vec<VirtualPower>) -> Self {
        let q = vec![1; powers.len()];
        MasterConfig {
            scheme,
            total,
            powers,
            initial_q: q,
            acp: AcpConfig::PAPER,
        }
    }
}

enum MasterInner {
    Simple(ChunkDispenser<Box<dyn ChunkSizer + Send>>),
    Wf(WeightedFactoring),
    Dist(DistributedScheduler),
}

/// What [`Master::record_completion`] did with a reported result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompletionOutcome {
    /// Iterations of the chunk that were completed for the *first*
    /// time by this report.
    pub newly_completed: u64,
    /// Whether any part of the chunk had already been completed by an
    /// earlier report (a speculative copy or a retransmitted result);
    /// those iterations are deduplicated, not double-counted.
    pub duplicate: bool,
}

/// The master state machine: owns the scheme, serves requests, and
/// keeps per-worker accounting.
pub struct Master {
    inner: MasterInner,
    scheme: SchemeKind,
    /// Iterations granted to each worker so far.
    served: Vec<u64>,
    /// Chunks granted to each worker so far.
    chunks_granted: Vec<u64>,
    total: u64,
    /// Chunks returned by [`Master::requeue`] (e.g. a worker died
    /// holding them); served before fresh scheme chunks.
    requeued: std::collections::VecDeque<Chunk>,
    /// Chunk leases plus per-worker liveness (fault-tolerant path).
    leases: LeaseTable,
    /// Completion bitmap over `[0, total)`: first-result-wins dedup.
    completed: Vec<u64>,
    /// Number of set bits in `completed`.
    completed_count: u64,
    /// Speculative grants handed out (re-executions of leased chunks).
    speculated: u64,
    /// Lifecycle event sink for the lease-aware (timestamped) path;
    /// [`NoopSink`] unless installed via [`Master::set_trace_sink`].
    trace: Box<dyn TraceSink + Send>,
}

impl Master {
    /// Builds the master for the given configuration.
    ///
    /// # Panics
    /// On inconsistent configuration (no workers, mismatched lengths).
    pub fn new(cfg: MasterConfig) -> Self {
        let p = cfg.powers.len();
        assert!(p >= 1, "need at least one worker");
        assert_eq!(p, cfg.initial_q.len(), "powers/initial_q length mismatch");
        let p32 = u32::try_from(p).expect("worker count fits u32");
        let inner = if let Some(sizer) = cfg.scheme.formula_sizer(cfg.total, p32) {
            MasterInner::Simple(ChunkDispenser::new(cfg.total, sizer))
        } else {
            match cfg.scheme {
            SchemeKind::Wf => {
                let weights: Vec<f64> = cfg.powers.iter().map(|v| v.get()).collect();
                MasterInner::Wf(WeightedFactoring::new(cfg.total, &weights))
            }
            SchemeKind::Dtss => MasterInner::Dist(DistributedScheduler::new(
                DistKind::Dtss,
                cfg.total,
                &cfg.powers,
                &cfg.initial_q,
                cfg.acp,
            )),
            SchemeKind::Dfss => MasterInner::Dist(DistributedScheduler::new(
                DistKind::Dfss,
                cfg.total,
                &cfg.powers,
                &cfg.initial_q,
                cfg.acp,
            )),
            SchemeKind::Dfiss { sigma } => MasterInner::Dist(DistributedScheduler::new(
                DistKind::Dfiss { sigma },
                cfg.total,
                &cfg.powers,
                &cfg.initial_q,
                cfg.acp,
            )),
            SchemeKind::Dtfss => MasterInner::Dist(DistributedScheduler::new(
                DistKind::Dtfss,
                cfg.total,
                &cfg.powers,
                &cfg.initial_q,
                cfg.acp,
            )),
            // Every non-WF, non-distributed scheme has a formula sizer
            // and was handled above.
            _ => unreachable!("scheme without formula sizer must be WF or distributed"),
            }
        };
        Master {
            inner,
            scheme: cfg.scheme,
            served: vec![0; p],
            chunks_granted: vec![0; p],
            total: cfg.total,
            requeued: std::collections::VecDeque::new(),
            leases: LeaseTable::new(p, LeaseConfig::RUNTIME_DEFAULT),
            completed: vec![0u64; (cfg.total as usize).div_ceil(64)],
            completed_count: 0,
            speculated: 0,
            trace: Box::new(NoopSink),
        }
    }

    /// Installs a trace sink. The master emits chunk-lifecycle events
    /// (`planned`, `granted`, `deduped`, `lapsed`, `requeued`,
    /// `worker-dead`, `replanned`) on the *timestamped* lease-aware
    /// path only — [`Master::handle_request`] takes no clock, so
    /// engines driving it emit their own grant events instead.
    pub fn set_trace_sink(&mut self, sink: Box<dyn TraceSink + Send>) {
        self.trace = sink;
    }

    fn trace_granted(
        &mut self,
        now: u64,
        worker: WorkerId,
        chunk: Chunk,
        speculative: bool,
        requeued: bool,
        retransmit: bool,
    ) {
        if self.trace.enabled() {
            self.trace.record(
                TraceEvent::new(now, EventKind::Granted { speculative, requeued, retransmit })
                    .on_worker(worker)
                    .on_chunk(chunk.start, chunk.len),
            );
        }
    }

    /// How many plans the distributed scheduler has made (0 for
    /// non-distributed schemes; 1 means only the initial plan).
    pub fn plans_made(&self) -> u32 {
        match &self.inner {
            MasterInner::Dist(d) => d.plans_made(),
            _ => 0,
        }
    }

    /// Adjusts the distributed re-plan threshold (fraction of changed
    /// ACPs that triggers recomputation; ≥ 1.0 disables re-planning).
    /// No-op for non-distributed schemes.
    pub fn set_replan_threshold(&mut self, t: f64) {
        if let MasterInner::Dist(d) = &mut self.inner {
            d.set_replan_threshold(t);
        }
    }

    /// Serves one slave request. `q` is the worker's freshly reported
    /// run-queue length (ignored by non-distributed schemes, exactly as
    /// in the paper where simple schemes treat all PEs alike).
    pub fn handle_request(&mut self, worker: WorkerId, q: u32) -> Assignment {
        assert!(worker < self.served.len(), "unknown worker {worker}");
        // Re-granted work (from failed workers) takes priority: it is
        // the oldest unfinished part of the loop.
        if let Some(chunk) = self.requeued.pop_front() {
            self.served[worker] += chunk.len;
            self.chunks_granted[worker] += 1;
            return Assignment::Chunk(chunk);
        }
        let assignment = match &mut self.inner {
            MasterInner::Simple(d) => match d.next_chunk() {
                Some(c) => Assignment::Chunk(c),
                None => Assignment::Finished,
            },
            MasterInner::Wf(wf) => match wf.next_chunk(worker) {
                Some(c) => Assignment::Chunk(c),
                None => Assignment::Finished,
            },
            MasterInner::Dist(d) => match d.request(worker, q) {
                Grant::Chunk(c) => Assignment::Chunk(c),
                Grant::Unavailable => Assignment::Retry,
                Grant::Finished => Assignment::Finished,
            },
        };
        if let Assignment::Chunk(c) = assignment {
            self.served[worker] += c.len;
            self.chunks_granted[worker] += 1;
        }
        assignment
    }

    /// Returns a granted chunk to the pool — used when the worker
    /// holding it is discovered dead. It will be re-granted (to any
    /// worker) before fresh scheme chunks.
    pub fn requeue(&mut self, chunk: Chunk) {
        assert!(chunk.end() <= self.total, "requeued chunk out of range");
        self.requeued.push_back(chunk);
    }

    /// Iterations not yet handed out (including requeued ones).
    pub fn remaining(&self) -> u64 {
        let fresh = match &self.inner {
            MasterInner::Simple(d) => d.remaining(),
            MasterInner::Wf(wf) => wf.remaining(),
            MasterInner::Dist(d) => d.remaining(),
        };
        fresh + self.requeued.iter().map(|c| c.len).sum::<u64>()
    }

    /// Whether every iteration has been assigned.
    pub fn is_finished(&self) -> bool {
        self.remaining() == 0
    }

    /// The scheme this master runs.
    pub fn scheme(&self) -> SchemeKind {
        self.scheme
    }

    /// Total loop size `I`.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Number of workers `p` this master serves.
    pub fn workers(&self) -> usize {
        self.served.len()
    }

    /// Iterations granted to `worker` so far.
    pub fn iterations_served(&self, worker: WorkerId) -> u64 {
        self.served[worker]
    }

    /// Chunks granted to `worker` so far.
    pub fn chunks_served(&self, worker: WorkerId) -> u64 {
        self.chunks_granted[worker]
    }

    /// Total number of scheduling steps (master round-trips) so far.
    pub fn total_scheduling_steps(&self) -> u64 {
        self.chunks_granted.iter().sum()
    }

    // ------------------------------------------------------------------
    // Fault-tolerant path: chunk leases, dedup, speculation.
    //
    // `handle_request` above is the paper's original fail-free protocol
    // and stays untouched; the methods below are the lease-aware variant
    // both engines use when faults are possible. Time is an abstract
    // `u64` tick count supplied by the caller (see [`crate::fault`]).
    // ------------------------------------------------------------------

    /// Replaces the lease policy (defaults to
    /// [`LeaseConfig::RUNTIME_DEFAULT`]).
    pub fn set_lease_config(&mut self, cfg: LeaseConfig) {
        self.leases.set_config(cfg);
    }

    /// Read access to the lease table (deadlines, liveness).
    pub fn lease_table(&self) -> &LeaseTable {
        &self.leases
    }

    /// The earliest outstanding lease deadline — the caller's next
    /// wake-up time for [`Master::poll_leases`].
    pub fn next_lease_deadline(&self) -> Option<u64> {
        self.leases.next_deadline()
    }

    /// Serves one request on the lease-aware path.
    ///
    /// Differences from [`Master::handle_request`]:
    /// - every grant is recorded as a lease expiring at a deadline
    ///   derived from the chunk size and the worker's observed pace;
    /// - a worker that still holds a lease is re-sent the *same* chunk
    ///   (its previous reply was lost in flight) without double
    ///   accounting — grants are idempotent;
    /// - requeued chunks whose iterations have all since been completed
    ///   (a speculative copy won) are silently dropped;
    /// - when the scheme is exhausted but leases are still outstanding,
    ///   an idle worker may be handed a *speculative* copy of a leased
    ///   chunk (first result wins) instead of `Finished`;
    /// - `Finished` is only returned once **every** iteration has been
    ///   completed, not merely assigned.
    pub fn grant_with_lease(&mut self, worker: WorkerId, q: u32, now: u64) -> Assignment {
        assert!(worker < self.served.len(), "unknown worker {worker}");
        self.leases.heard_from(worker, now);

        // Lost-reply retransmit: the worker still owes us this chunk.
        if let Some(held) = self.leases.held_by(worker) {
            if !self.chunk_fully_complete(held) {
                self.leases.grant(worker, held, now, q, false);
                self.trace_granted(now, worker, held, false, false, true);
                return Assignment::Chunk(held);
            }
            // A speculative copy already finished it; release and fall
            // through to a fresh grant.
            self.leases.revoke(worker);
        }

        // Re-granted work first — oldest unfinished part of the loop.
        while let Some(chunk) = self.requeued.pop_front() {
            if self.chunk_fully_complete(chunk) {
                continue;
            }
            self.served[worker] += chunk.len;
            self.chunks_granted[worker] += 1;
            self.leases.grant(worker, chunk, now, q, false);
            self.trace_granted(now, worker, chunk, false, true, false);
            return Assignment::Chunk(chunk);
        }

        let assignment = loop {
            let plans_before = self.plans_made();
            let assignment = match &mut self.inner {
                MasterInner::Simple(d) => match d.next_chunk() {
                    Some(c) => Assignment::Chunk(c),
                    None => Assignment::Finished,
                },
                MasterInner::Wf(wf) => match wf.next_chunk(worker) {
                    Some(c) => Assignment::Chunk(c),
                    None => Assignment::Finished,
                },
                MasterInner::Dist(d) => match d.request(worker, q) {
                    Grant::Chunk(c) => Assignment::Chunk(c),
                    Grant::Unavailable => Assignment::Retry,
                    Grant::Finished => Assignment::Finished,
                },
            };
            let plans_after = self.plans_made();
            if plans_after != plans_before && self.trace.enabled() {
                self.trace.record(
                    TraceEvent::new(now, EventKind::Replanned { plan: plans_after })
                        .on_worker(worker),
                );
            }
            // A fresh chunk every iteration of which was seeded from a
            // recovered bitmap is done work; dispense the next one.
            match assignment {
                Assignment::Chunk(c) if self.chunk_fully_complete(c) => continue,
                other => break other,
            }
        };
        match assignment {
            Assignment::Chunk(c) => {
                self.served[worker] += c.len;
                self.chunks_granted[worker] += 1;
                self.leases.grant(worker, c, now, q, false);
                if self.trace.enabled() {
                    self.trace.record(
                        TraceEvent::new(now, EventKind::Planned).on_chunk(c.start, c.len),
                    );
                }
                self.trace_granted(now, worker, c, false, false, false);
                Assignment::Chunk(c)
            }
            Assignment::Retry => Assignment::Retry,
            Assignment::Finished => {
                if self.all_complete() {
                    return Assignment::Finished;
                }
                // End-of-loop: everything is assigned but not all of it
                // has come back. Put this idle worker on a speculative
                // copy of the most-overdue outstanding chunk.
                if let Some(c) = self.leases.speculation_candidate(worker, now) {
                    self.speculated += 1;
                    self.leases.grant(worker, c, now, q, true);
                    self.trace_granted(now, worker, c, true, false, false);
                    return Assignment::Chunk(c);
                }
                // Nothing to speculate on (cap reached, or the worker
                // itself holds the straggler): ask again later.
                Assignment::Retry
            }
        }
    }

    /// Records a completed chunk reported by `worker`, with
    /// first-result-wins dedup against the completion bitmap.
    pub fn record_completion(&mut self, worker: WorkerId, chunk: Chunk, now: u64) -> CompletionOutcome {
        self.record_completion_ranges(worker, chunk, now).0
    }

    /// Like [`Master::record_completion`], but also returns the maximal
    /// sub-ranges of `chunk` completed for the *first* time by this
    /// report. A caller proving exact-partition coverage (the serving
    /// layer's per-job traces) emits one `Completed` event per returned
    /// range, so partial overlap with earlier results — possible when a
    /// master was re-seeded from a recovered bitmap — never produces
    /// overlapping or missing completion intervals.
    pub fn record_completion_ranges(
        &mut self,
        worker: WorkerId,
        chunk: Chunk,
        now: u64,
    ) -> (CompletionOutcome, Vec<Chunk>) {
        assert!(chunk.end() <= self.total, "completed chunk out of range");
        self.leases.complete(worker, chunk, now);
        let (newly, ranges) = self.mark_completed_ranges(chunk);
        let duplicate = newly < chunk.len;
        if duplicate && self.trace.enabled() {
            self.trace.record(
                TraceEvent::new(now, EventKind::Deduped)
                    .on_worker(worker)
                    .on_chunk(chunk.start, chunk.len),
            );
        }
        (CompletionOutcome { newly_completed: newly, duplicate }, ranges)
    }

    /// Marks `chunk` complete with no lease or trace bookkeeping — the
    /// recovery path, seeding a freshly built master from completion
    /// records journaled before a crash. The scheme will still dispense
    /// the full `[0, total)` tiling; grants covering seeded iterations
    /// are absorbed by the same first-result-wins dedup that handles
    /// speculative copies, and fully seeded chunks are skipped. Returns
    /// how many of the iterations were newly marked.
    pub fn seed_completed(&mut self, chunk: Chunk) -> u64 {
        assert!(chunk.end() <= self.total, "seeded chunk out of range");
        self.mark_completed(chunk)
    }

    /// The completion bitmap as 64-bit words, bit `i % 64` of word
    /// `i / 64` set when iteration `i` has completed. This is what a
    /// checkpoint persists and [`Master::seed_completed`] restores.
    pub fn completed_words(&self) -> &[u64] {
        &self.completed
    }

    /// Notes a heartbeat from `worker`: refreshes liveness and extends
    /// its lease deadline.
    pub fn note_heartbeat(&mut self, worker: WorkerId, now: u64) {
        self.leases.heartbeat(worker, now);
    }

    /// Expires overdue leases at `now`. Each expired chunk whose
    /// iterations are still incomplete is requeued; holders that have
    /// also gone silent past the grace window are flagged dead (see
    /// [`LeaseTable::is_dead`]). Returns what expired so the caller can
    /// log fault events.
    pub fn poll_leases(&mut self, now: u64) -> Vec<ExpiredLease> {
        let expired = self.leases.expire(now);
        for e in &expired {
            let c = e.lease.chunk;
            if self.trace.enabled() {
                self.trace.record(
                    TraceEvent::new(now, EventKind::Lapsed)
                        .on_worker(e.lease.worker)
                        .on_chunk(c.start, c.len),
                );
                if e.holder_dead {
                    self.trace
                        .record(TraceEvent::new(now, EventKind::WorkerDead).on_worker(e.lease.worker));
                }
            }
            if !self.chunk_fully_complete(c) {
                self.requeued.push_back(c);
                if self.trace.enabled() {
                    self.trace.record(
                        TraceEvent::new(now, EventKind::Requeued)
                            .on_worker(e.lease.worker)
                            .on_chunk(c.start, c.len),
                    );
                }
            }
        }
        expired
    }

    /// Handles an observed disconnect of `worker`: revokes its lease,
    /// requeues the chunk it held (if still incomplete) and marks the
    /// worker dead until it is heard from again. Returns the requeued
    /// chunk, if any.
    pub fn worker_disconnected(&mut self, worker: WorkerId) -> Option<Chunk> {
        self.leases.mark_dead(worker);
        let chunk = self.leases.revoke(worker)?;
        if self.chunk_fully_complete(chunk) {
            return None;
        }
        self.requeued.push_back(chunk);
        Some(chunk)
    }

    /// Whether `worker` is currently considered dead (disconnected, or
    /// lease-expired and silent). Any sign of life clears the flag.
    pub fn worker_is_dead(&self, worker: WorkerId) -> bool {
        self.leases.is_dead(worker)
    }

    /// Iterations completed (each counted once, regardless of how many
    /// copies were executed).
    pub fn iterations_completed(&self) -> u64 {
        self.completed_count
    }

    /// Whether every iteration in `[0, total)` has been completed at
    /// least once — the fault-tolerant termination condition.
    pub fn all_complete(&self) -> bool {
        self.completed_count == self.total
    }

    /// Speculative (duplicate) grants handed out so far.
    pub fn speculative_grants(&self) -> u64 {
        self.speculated
    }

    /// Whether iteration `i` has been completed.
    pub fn iteration_completed(&self, i: u64) -> bool {
        debug_assert!(i < self.total);
        self.completed[(i / 64) as usize] & (1u64 << (i % 64)) != 0
    }

    /// Whether *every* iteration of `chunk` has been completed — the
    /// requeue filter: fully-complete chunks are never granted again.
    pub fn chunk_fully_complete(&self, chunk: Chunk) -> bool {
        // Wordwise: compare 64 iterations per step instead of one —
        // big chunks at cluster scale make the per-bit walk visible.
        let (start, end) = (chunk.start, chunk.end());
        let mut i = start;
        while i < end {
            let word = (i / 64) as usize;
            let lo = i % 64;
            let span = (64 - lo).min(end - i);
            let mask = if span == 64 { u64::MAX } else { ((1u64 << span) - 1) << lo };
            if self.completed[word] & mask != mask {
                return false;
            }
            i += span;
        }
        true
    }

    fn mark_completed(&mut self, chunk: Chunk) -> u64 {
        self.mark_completed_ranges(chunk).0
    }

    /// Whether no iteration of `chunk` is completed yet (wordwise).
    fn chunk_fully_incomplete(&self, chunk: Chunk) -> bool {
        let (start, end) = (chunk.start, chunk.end());
        let mut i = start;
        while i < end {
            let word = (i / 64) as usize;
            let lo = i % 64;
            let span = (64 - lo).min(end - i);
            let mask = if span == 64 { u64::MAX } else { ((1u64 << span) - 1) << lo };
            if self.completed[word] & mask != 0 {
                return false;
            }
            i += span;
        }
        true
    }

    fn mark_completed_ranges(&mut self, chunk: Chunk) -> (u64, Vec<Chunk>) {
        // Fast path — the overwhelmingly common case is a chunk with no
        // prior completions (overlap only happens after speculation or
        // duplicated messages): set whole words at a time.
        if chunk.len > 0 && self.chunk_fully_incomplete(chunk) {
            let (start, end) = (chunk.start, chunk.end());
            let mut i = start;
            while i < end {
                let word = (i / 64) as usize;
                let lo = i % 64;
                let span = (64 - lo).min(end - i);
                let mask = if span == 64 { u64::MAX } else { ((1u64 << span) - 1) << lo };
                self.completed[word] |= mask;
                i += span;
            }
            self.completed_count += chunk.len;
            return (chunk.len, vec![chunk]);
        }
        let mut newly = 0;
        let mut ranges: Vec<Chunk> = Vec::new();
        let mut run_start: Option<u64> = None;
        for i in chunk.start..chunk.end() {
            let (word, bit) = ((i / 64) as usize, i % 64);
            if self.completed[word] & (1u64 << bit) == 0 {
                self.completed[word] |= 1u64 << bit;
                newly += 1;
                run_start.get_or_insert(i);
            } else if let Some(s) = run_start.take() {
                ranges.push(Chunk::new(s, i - s));
            }
        }
        if let Some(s) = run_start {
            ranges.push(Chunk::new(s, chunk.end() - s));
        }
        self.completed_count += newly;
        (newly, ranges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunk::validate_tiling;

    fn drain(master: &mut Master, p: usize) -> Vec<Chunk> {
        let mut chunks = Vec::new();
        let mut w = 0;
        loop {
            match master.handle_request(w % p, 1) {
                Assignment::Chunk(c) => chunks.push(c),
                Assignment::Retry => {}
                Assignment::Finished => break,
            }
            w += 1;
        }
        chunks
    }

    #[test]
    fn every_scheme_tiles_the_loop() {
        let schemes = [
            SchemeKind::Static,
            SchemeKind::Pure,
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
        ];
        for scheme in schemes {
            let mut m = Master::new(MasterConfig::homogeneous(scheme, 1000, 4));
            let chunks = drain(&mut m, 4);
            validate_tiling(&chunks, 1000)
                .unwrap_or_else(|e| panic!("{}: {e}", scheme.name()));
            assert!(m.is_finished());
            assert_eq!(m.total_scheduling_steps(), chunks.len() as u64);
        }
    }

    #[test]
    fn simple_schemes_ignore_reported_load() {
        let mut a = Master::new(MasterConfig::homogeneous(SchemeKind::Tss, 1000, 4));
        let mut b = Master::new(MasterConfig::homogeneous(SchemeKind::Tss, 1000, 4));
        let ca = a.handle_request(0, 1);
        let cb = b.handle_request(0, 99);
        assert_eq!(ca, cb);
    }

    #[test]
    fn distributed_schemes_respond_to_load() {
        let cfg = MasterConfig::heterogeneous(
            SchemeKind::Dtss,
            10_000,
            vec![VirtualPower::new(1.0), VirtualPower::new(1.0)],
        );
        let mut m = Master::new(cfg);
        let c_loaded = match m.handle_request(0, 5) {
            Assignment::Chunk(c) => c.len,
            a => panic!("{a:?}"),
        };
        let c_free = match m.handle_request(1, 1) {
            Assignment::Chunk(c) => c.len,
            a => panic!("{a:?}"),
        };
        assert!(c_free > c_loaded, "free {c_free} vs loaded {c_loaded}");
    }

    #[test]
    fn per_worker_accounting_sums_to_total() {
        let mut m = Master::new(MasterConfig::homogeneous(SchemeKind::Fss, 5000, 8));
        let _ = drain(&mut m, 8);
        let sum: u64 = (0..8).map(|w| m.iterations_served(w)).sum();
        assert_eq!(sum, 5000);
    }

    #[test]
    fn scheme_names_match_paper() {
        assert_eq!(SchemeKind::Tfss.name(), "TFSS");
        assert_eq!(SchemeKind::Dtfss.name(), "DTFSS");
        assert!(!SchemeKind::Wf.is_distributed());
        assert!(SchemeKind::Dfiss { sigma: 3 }.is_distributed());
    }

    #[test]
    fn retry_surfaces_unavailability() {
        let cfg = MasterConfig {
            scheme: SchemeKind::Dfss,
            total: 100,
            powers: vec![VirtualPower::new(1.0), VirtualPower::new(1.0)],
            initial_q: vec![1, 1],
            acp: AcpConfig::PAPER,
        };
        let mut m = Master::new(cfg);
        assert_eq!(m.handle_request(1, 1000), Assignment::Retry);
        assert!(matches!(m.handle_request(0, 1), Assignment::Chunk(_)));
    }
}

#[cfg(test)]
mod requeue_tests {
    use super::*;
    use crate::chunk::Chunk;

    #[test]
    fn requeued_chunk_served_first() {
        let mut m = Master::new(MasterConfig::homogeneous(SchemeKind::Css { k: 10 }, 100, 2));
        let first = match m.handle_request(0, 1) {
            Assignment::Chunk(c) => c,
            a => panic!("{a:?}"),
        };
        // Worker 0 dies holding `first`; it goes back to the pool.
        m.requeue(first);
        assert_eq!(m.remaining(), 100);
        // The next requester gets exactly that chunk again.
        match m.handle_request(1, 1) {
            Assignment::Chunk(c) => assert_eq!(c, first),
            a => panic!("{a:?}"),
        }
    }

    #[test]
    fn requeue_extends_a_finished_loop() {
        let mut m = Master::new(MasterConfig::homogeneous(SchemeKind::Css { k: 100 }, 100, 1));
        let c = match m.handle_request(0, 1) {
            Assignment::Chunk(c) => c,
            a => panic!("{a:?}"),
        };
        assert!(m.is_finished());
        m.requeue(c);
        assert!(!m.is_finished());
        assert_eq!(m.remaining(), 100);
        assert!(matches!(m.handle_request(0, 1), Assignment::Chunk(_)));
        assert!(m.is_finished());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn requeue_rejects_foreign_chunks() {
        let mut m = Master::new(MasterConfig::homogeneous(SchemeKind::Tss, 100, 2));
        m.requeue(Chunk::new(90, 20));
    }
}

#[cfg(test)]
mod lease_tests {
    use super::*;
    use crate::fault::LeaseConfig;

    const TIGHT: LeaseConfig = LeaseConfig {
        base_ticks: 100,
        default_ticks_per_iter: 0,
        grace: 2.0,
        dead_after_ticks: 50,
        max_speculations: 2,
    };

    fn master(scheme: SchemeKind, total: u64, p: usize) -> Master {
        let mut m = Master::new(MasterConfig::homogeneous(scheme, total, p));
        m.set_lease_config(TIGHT);
        m
    }

    fn chunk_of(a: Assignment) -> Chunk {
        match a {
            Assignment::Chunk(c) => c,
            other => panic!("expected chunk, got {other:?}"),
        }
    }

    #[test]
    fn lease_expiry_requeues_and_another_worker_finishes() {
        let mut m = master(SchemeKind::Css { k: 50 }, 100, 2);
        let c0 = chunk_of(m.grant_with_lease(0, 1, 0));
        // Worker 0 goes silent; its lease lapses and the chunk requeues.
        let expired = m.poll_leases(500);
        assert_eq!(expired.len(), 1);
        assert_eq!(expired[0].lease.chunk, c0);
        assert!(expired[0].holder_dead);
        assert!(m.worker_is_dead(0));
        // Worker 1 picks up the requeued chunk first.
        let c1 = chunk_of(m.grant_with_lease(1, 1, 600));
        assert_eq!(c1, c0);
        let out = m.record_completion(1, c1, 700);
        assert_eq!(out.newly_completed, 50);
        assert!(!out.duplicate);
        // Drain the rest through worker 1.
        loop {
            match m.grant_with_lease(1, 1, 800) {
                Assignment::Chunk(c) => {
                    m.record_completion(1, c, 900);
                }
                Assignment::Retry => {}
                Assignment::Finished => break,
            }
        }
        assert!(m.all_complete());
        assert_eq!(m.iterations_completed(), 100);
    }

    #[test]
    fn duplicate_results_are_deduplicated() {
        let mut m = master(SchemeKind::Css { k: 10 }, 20, 2);
        let c = chunk_of(m.grant_with_lease(0, 1, 0));
        let first = m.record_completion(0, c, 10);
        assert_eq!(first.newly_completed, 10);
        let again = m.record_completion(1, c, 20);
        assert_eq!(again.newly_completed, 0);
        assert!(again.duplicate);
        assert_eq!(m.iterations_completed(), 10);
    }

    #[test]
    fn retransmit_regrants_the_same_chunk_without_double_accounting() {
        let mut m = master(SchemeKind::Css { k: 10 }, 40, 1);
        let c = chunk_of(m.grant_with_lease(0, 1, 0));
        let served = m.iterations_served(0);
        let steps = m.total_scheduling_steps();
        // The reply got lost; the worker asks again without a result.
        let c2 = chunk_of(m.grant_with_lease(0, 1, 5));
        assert_eq!(c2, c);
        assert_eq!(m.iterations_served(0), served);
        assert_eq!(m.total_scheduling_steps(), steps);
    }

    #[test]
    fn end_of_loop_speculation_first_result_wins() {
        let mut m = master(SchemeKind::Css { k: 50 }, 100, 2);
        let c0 = chunk_of(m.grant_with_lease(0, 1, 0));
        let c1 = chunk_of(m.grant_with_lease(1, 1, 0));
        m.record_completion(1, c1, 50);
        // Scheme is exhausted; worker 1 is idle while worker 0 still
        // holds c0 → worker 1 gets a speculative copy of c0.
        let spec = chunk_of(m.grant_with_lease(1, 1, 60));
        assert_eq!(spec, c0);
        assert_eq!(m.speculative_grants(), 1);
        // The speculative copy lands first...
        let out = m.record_completion(1, spec, 80);
        assert_eq!(out.newly_completed, 50);
        // ...then the original straggler reports: pure duplicate.
        let dup = m.record_completion(0, c0, 90);
        assert_eq!(dup.newly_completed, 0);
        assert!(dup.duplicate);
        assert!(m.all_complete());
        assert_eq!(m.grant_with_lease(0, 1, 95), Assignment::Finished);
        assert_eq!(m.grant_with_lease(1, 1, 95), Assignment::Finished);
    }

    #[test]
    fn disconnect_revokes_and_requeues() {
        let mut m = master(SchemeKind::Css { k: 25 }, 100, 2);
        let c0 = chunk_of(m.grant_with_lease(0, 1, 0));
        assert_eq!(m.worker_disconnected(0), Some(c0));
        assert!(m.worker_is_dead(0));
        // The requeued chunk goes to the next requester.
        assert_eq!(chunk_of(m.grant_with_lease(1, 1, 10)), c0);
        // The worker reconnecting (any sign of life) clears the flag.
        let _ = m.grant_with_lease(0, 1, 20);
        assert!(!m.worker_is_dead(0));
    }

    #[test]
    fn requeued_chunk_already_completed_by_speculation_is_dropped() {
        let mut m = master(SchemeKind::Css { k: 50 }, 100, 3);
        let c0 = chunk_of(m.grant_with_lease(0, 1, 0));
        let c1 = chunk_of(m.grant_with_lease(1, 1, 0));
        m.record_completion(1, c1, 10);
        // Worker 1 speculates on c0 (past the age gate at half of c0's
        // lease window) and wins.
        let spec = chunk_of(m.grant_with_lease(1, 1, 60));
        assert_eq!(spec, c0);
        m.record_completion(1, spec, 70);
        // Worker 0's lease now lapses; c0 must NOT be requeued (done).
        let _ = m.poll_leases(10_000);
        assert_eq!(m.grant_with_lease(2, 1, 10_001), Assignment::Finished);
        assert!(m.all_complete());
    }

    #[test]
    fn finished_only_after_all_iterations_complete() {
        let mut m = master(SchemeKind::Css { k: 100 }, 100, 2);
        let c = chunk_of(m.grant_with_lease(0, 1, 0));
        // All work is assigned, but worker 1 cannot be told Finished.
        // Before the holder has burned half its lease the age gate
        // keeps the idle worker on Retry; after that it gets a
        // speculative copy of the outstanding chunk.
        assert_eq!(m.grant_with_lease(1, 1, 10), Assignment::Retry);
        let spec = chunk_of(m.grant_with_lease(1, 1, 60));
        assert_eq!(spec, c);
        m.record_completion(0, c, 80);
        assert!(m.all_complete());
        assert_eq!(m.grant_with_lease(1, 1, 90), Assignment::Finished);
    }

    #[test]
    fn lease_path_tiles_the_loop_for_every_scheme() {
        for scheme in [
            SchemeKind::Static,
            SchemeKind::Pure,
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
        ] {
            let mut m = master(scheme, 500, 4);
            let mut now = 0u64;
            let mut finished = [false; 4];
            while !finished.iter().all(|f| *f) {
                for (w, done) in finished.iter_mut().enumerate() {
                    if *done {
                        continue;
                    }
                    now += 1;
                    match m.grant_with_lease(w, 1, now) {
                        Assignment::Chunk(c) => {
                            now += 1;
                            m.record_completion(w, c, now);
                        }
                        Assignment::Retry => {}
                        Assignment::Finished => *done = true,
                    }
                }
            }
            assert!(m.all_complete(), "{}", scheme.name());
            assert_eq!(m.iterations_completed(), 500, "{}", scheme.name());
        }
    }
}
