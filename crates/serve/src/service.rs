//! The scheduler daemon: admission control, lifecycle, and the
//! state machine every peer talks to.
//!
//! [`Service`] owns all scheduling state ([`MultiJobScheduler`] +
//! [`JobQueue`]) and is driven by exactly one thread, the reactor loop
//! in [`crate::evented`]: a decoded TCP frame calls [`Service::handle`]
//! and the returned reply goes straight onto that connection, just as
//! the one-shot master serializes its transport inbox. An in-process
//! peer ([`crate::LocalLink`]) posts an [`Event`] on a channel and
//! wakes the same loop, which drains the channel after every wake —
//! one driver for channels and sockets, so the state machine never
//! knows which kind of peer sent a frame.
//!
//! Lifecycle: the service runs until asked to drain (client `Drain`
//! frame) and all work retires, or until `exit_after_jobs` jobs have
//! completed (the CI smoke-test knob). From then on every worker
//! request is answered with `Shutdown` and every submission with a
//! typed `Rejected`; the loop exits once each connected worker has
//! been told, so no thread is left parked on a socket.

use std::net::SocketAddr;
use std::sync::mpsc::{channel, Sender};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use lss_core::power::{AcpConfig, VirtualPower};
use lss_core::LeaseConfig;
use lss_runtime::protocol::serve::{
    JobState, JobStatus, ServeFrame, ServeRequest,
};
use lss_runtime::transport::tcp::{tcp_listen_on, TcpListenerHandle};
use lss_runtime::transport::TransportError;
use lss_trace::{ClockDomain, EventKind, SharedSink, Trace, TraceEvent, TraceMeta};

use lss_core::Chunk;
use lss_reactor::Waker;

use crate::client::ServeClient;
use crate::journal::{JobSnapshot, Journal, JournalConfig, RecoveredState};
use crate::link::LocalLink;
use crate::queue::{JobQueue, QueuedJob};
use crate::scheduler::{FairSnapshot, MultiJobScheduler, QuarantineConfig, SchedulerConfig};

/// Static configuration of the serving daemon.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Size of the worker pool (dense ids `0..workers`).
    pub workers: usize,
    /// Virtual power of each worker.
    pub powers: Vec<VirtualPower>,
    /// Bound on *waiting* jobs; a submission past it is rejected.
    pub queue_capacity: usize,
    /// Bound on concurrently *active* jobs.
    pub max_active: usize,
    /// Batched-grant bound `k`: chunks per round trip per worker.
    pub batch_k: usize,
    /// Pool-level ACP derivation (partitioned across jobs). The
    /// default scale is finer than the paper's 10 so fair shares keep
    /// their proportions after integer apportionment.
    pub acp: AcpConfig,
    /// Chunk-lease parameters for every job's master.
    pub lease: LeaseConfig,
    /// Period of the lease tick: lease expiry, the quarantine silence
    /// check, the retire sweep and journal compaction run whenever this
    /// long has passed since the last tick, however busy the daemon is.
    pub poll_interval: Duration,
    /// Trace sink; job lifecycle and every master's chunk events land
    /// here, job-tagged.
    pub trace: SharedSink,
    /// Exit automatically once this many jobs completed (`None` = run
    /// until drained).
    pub exit_after_jobs: Option<u64>,
    /// Worker-health scoring and straggler-quarantine policy.
    pub quarantine: QuarantineConfig,
    /// Durable job journal (`None` = in-memory only). With
    /// [`JournalConfig::recover`], unfinished jobs found in the
    /// directory are re-admitted with only their un-completed
    /// iterations left to schedule.
    pub journal: Option<JournalConfig>,
    /// How long the evented front end lets an established connection
    /// stay silent before treating it as half-open and closing it
    /// (workers hear a disconnect notice, so held chunks requeue).
    /// Generous by default: serve workers legitimately go quiet for a
    /// whole batch computation between requests.
    pub idle_deadline: Duration,
}

impl ServeConfig {
    /// Defaults for a pool of `workers` equal machines.
    pub fn new(workers: usize) -> Self {
        ServeConfig {
            workers,
            powers: vec![VirtualPower::new(1.0); workers],
            queue_capacity: 64,
            max_active: 8,
            batch_k: 4,
            acp: AcpConfig::new(1000, 0),
            lease: LeaseConfig::RUNTIME_DEFAULT,
            poll_interval: Duration::from_millis(5),
            trace: SharedSink::disabled(),
            exit_after_jobs: None,
            quarantine: QuarantineConfig::default(),
            journal: None,
            idle_deadline: Duration::from_secs(120),
        }
    }
}

/// The TCP front end [`serve_tcp_with`] runs. The epoll reactor is the
/// only one; the enum stays so existing callers of [`serve_tcp_with`]
/// keep compiling, and new code calls [`serve_tcp`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeBackend {
    /// One epoll reactor thread for every connection (`lss-reactor`).
    Evented,
}

/// What an in-process link hands the service loop.
pub(crate) enum Event {
    /// A frame expecting a reply on `reply`. Fire-and-forget: a peer
    /// that vanished mid-request simply never reads its reply.
    Frame {
        /// The frame.
        frame: ServeFrame,
        /// Where the reply goes.
        reply: Sender<ServeFrame>,
    },
    /// A frame with no reply (heartbeats).
    Post(ServeFrame),
    /// A worker's link was dropped.
    WorkerGone(usize),
    /// Die immediately — no drain, no farewells, and *no* final journal
    /// compaction (the crash-recovery analogue of SIGKILL).
    Kill,
}

/// Everything the service learned, returned by [`ServeHandle::join`].
#[derive(Debug)]
pub struct ServeReport {
    /// Final job table (done, active-at-exit, and queued-at-exit).
    pub jobs: Vec<JobStatus>,
    /// Cross-job progress at each job completion (fairness evidence).
    pub snapshots: Vec<FairSnapshot>,
    /// Worker scheduling round trips served (hellos included).
    pub requests_served: u64,
    /// Chunks granted across all batches.
    pub grants_sent: u64,
    /// Jobs that ran to completion.
    pub jobs_completed: u64,
    /// Submissions refused by admission control.
    pub jobs_rejected: u64,
    /// ACP partitions committed (initial one included).
    pub replans: u32,
    /// The job-tagged event stream, when tracing was enabled.
    pub trace: Option<Trace>,
}

/// A running service: the handle spawns clients and in-process worker
/// links, and joins the daemon for its report.
pub struct ServeHandle {
    tx: Sender<Event>,
    /// Wakes the service loop after an event is queued.
    waker: Waker,
    /// The service loop's thread (the reactor, when listening).
    thread: JoinHandle<ServeReport>,
    /// Dial address, when listening on TCP.
    pub addr: Option<SocketAddr>,
}

impl ServeHandle {
    /// An in-process client (submissions, job queries, drain).
    pub fn client(&self) -> ServeClient {
        ServeClient::local(LocalLink::new(self.tx.clone(), self.waker.clone(), None))
    }

    /// An in-process link for worker `id` — hand it to
    /// [`crate::run_serve_worker`].
    pub fn worker_link(&self, worker: usize) -> LocalLink {
        LocalLink::new(self.tx.clone(), self.waker.clone(), Some(worker))
    }

    /// Waits for the service to finish (drain requested and work
    /// retired, or the job limit reached) and returns its report. The
    /// loop's exit closes the listener, so once this returns no dial
    /// succeeds. A listening service keeps serving until then — joining
    /// must not refuse peers that have not dialed yet.
    pub fn join(self) -> ServeReport {
        let ServeHandle { tx, waker, thread, .. } = self;
        drop(tx);
        waker.wake();
        match thread.join() {
            Ok(report) => report,
            Err(_) => panic!("service loop panicked"),
        }
    }

    /// Kills the service abruptly: the event loop exits on the spot —
    /// active jobs stay unfinished, connected workers are cut off, and
    /// the journal is left exactly as the write-ahead log last wrote it
    /// (no parting checkpoint). This is the in-process analogue of
    /// SIGKILL, for crash-recovery tests; the returned report reflects
    /// the state at the moment of death.
    pub fn kill(self) -> ServeReport {
        let _ = self.tx.send(Event::Kill);
        self.join()
    }
}

/// Starts an in-process service (no sockets). Peers attach through
/// [`ServeHandle::client`] and [`ServeHandle::worker_link`].
///
/// Panics if the configured journal directory cannot be opened; use
/// [`try_serve`] to handle that as a typed error.
pub fn serve(cfg: ServeConfig) -> ServeHandle {
    match try_serve(cfg) {
        Ok(handle) => handle,
        Err(e) => panic!("failed to start service: {e}"),
    }
}

/// Starts an in-process service, surfacing journal-open failures as a
/// typed error instead of a panic.
pub fn try_serve(cfg: ServeConfig) -> Result<ServeHandle, TransportError> {
    launch(cfg, None)
}

/// Starts a service listening on TCP (`port` 0 = ephemeral). Workers
/// and clients dial the returned handle's `addr` and are told apart by
/// their hello frame; a peer speaking the legacy unversioned protocol
/// is refused with a typed `Rejected` frame.
///
/// Every connection is multiplexed onto the one reactor thread that
/// also runs the service, so a request is decoded, handled and answered
/// without leaving that thread.
pub fn serve_tcp(cfg: ServeConfig, host: &str, port: u16) -> Result<ServeHandle, TransportError> {
    launch(cfg, Some(tcp_listen_on(host, port)?))
}

/// Opens the journal and starts the service loop, around `listener`
/// when there is one.
fn launch(
    cfg: ServeConfig,
    listener: Option<TcpListenerHandle>,
) -> Result<ServeHandle, TransportError> {
    let service = Service::new(cfg)?;
    let (tx, rx) = channel();
    let addr = listener.as_ref().map(|l| l.addr);
    let listener = listener.map(TcpListenerHandle::into_listener);
    let (waker, thread) = crate::evented::start(service, rx, listener)?;
    Ok(ServeHandle { tx, waker, thread, addr })
}

/// [`serve_tcp`] with the front end named explicitly.
pub fn serve_tcp_with(
    cfg: ServeConfig,
    host: &str,
    port: u16,
    backend: ServeBackend,
) -> Result<ServeHandle, TransportError> {
    match backend {
        ServeBackend::Evented => serve_tcp(cfg, host, port),
    }
}

/// The single-threaded service state machine.
pub(crate) struct Service {
    pub(crate) cfg: ServeConfig,
    scheduler: MultiJobScheduler,
    queue: JobQueue,
    /// Crash-recovered jobs waiting for an active slot; drained before
    /// the regular queue so recovery finishes first.
    recovered_queue: Vec<JobSnapshot>,
    /// The durable journal, when configured. Dropped (degrading to
    /// in-memory scheduling) if an append ever fails — the daemon
    /// refuses to panic mid-run over a full disk.
    journal: Option<Journal>,
    epoch: Instant,
    next_job: u64,
    draining: bool,
    completed: u64,
    rejected: u64,
    requests: u64,
    seen: Vec<bool>,
    told_shutdown: Vec<bool>,
    total_iterations: u64,
}

impl Service {
    fn new(cfg: ServeConfig) -> Result<Self, TransportError> {
        let journal_state = match &cfg.journal {
            Some(jc) => Some(
                Journal::open(jc)
                    .map_err(|e| TransportError::Io(format!("journal open failed: {e}")))?,
            ),
            None => None,
        };
        let scheduler = MultiJobScheduler::new(
            SchedulerConfig {
                workers: cfg.workers,
                powers: cfg.powers.clone(),
                acp: cfg.acp,
                lease: cfg.lease,
                batch_k: cfg.batch_k,
                quarantine: cfg.quarantine,
            },
            cfg.trace.clone(),
        );
        let queue = JobQueue::new(cfg.queue_capacity);
        let workers = cfg.workers;
        let mut service = Service {
            cfg,
            scheduler,
            queue,
            recovered_queue: Vec::new(),
            journal: None,
            epoch: Instant::now(),
            next_job: 1,
            draining: false,
            completed: 0,
            rejected: 0,
            requests: 0,
            seen: vec![false; workers],
            told_shutdown: vec![false; workers],
            total_iterations: 0,
        };
        if let Some((journal, state)) = journal_state {
            service.journal = Some(journal);
            service.next_job = state.next_job.max(1);
            let now = service.now();
            for job in state.jobs {
                service.total_iterations += job.total();
                if service.scheduler.active_len() < service.cfg.max_active {
                    service.scheduler.activate_recovered(
                        job.id,
                        &job.spec,
                        job.submitted_ns,
                        &job.completed_ranges(),
                        now,
                    );
                } else {
                    service.recovered_queue.push(job);
                }
            }
        }
        Ok(service)
    }

    /// Service-epoch nanoseconds, aligned with the trace sink's epoch
    /// when tracing is on.
    fn now(&self) -> u64 {
        if self.cfg.trace.enabled() {
            self.cfg.trace.now_ns()
        } else {
            self.epoch.elapsed().as_nanos() as u64
        }
    }

    /// Whether the service has no more scheduling to do.
    fn done(&self) -> bool {
        let drained = self.draining
            && self.queue.is_empty()
            && self.recovered_queue.is_empty()
            && self.scheduler.is_idle();
        let limit = self.cfg.exit_after_jobs.is_some_and(|n| self.completed >= n);
        drained || limit
    }

    /// Done, and every worker that ever connected has been told.
    pub(crate) fn finished(&self) -> bool {
        self.done()
            && self
                .seen
                .iter()
                .zip(&self.told_shutdown)
                .all(|(seen, told)| !seen || *told)
    }

    /// Whether some pool member has not heard `Shutdown`: one that never
    /// said hello, or one whose link dropped. Either may still dial in,
    /// and should hear `Shutdown` rather than find the port closed.
    pub(crate) fn pool_incomplete(&self) -> bool {
        self.told_shutdown.contains(&false)
    }

    /// The lease tick: expires overdue leases, runs the quarantine
    /// silence check, sweeps for jobs that retired between requests,
    /// and compacts the journal when due.
    pub(crate) fn tick(&mut self) {
        let now = self.now();
        self.scheduler.poll(now);
        self.completed += self.scheduler_retired(now);
        self.maybe_checkpoint();
    }

    /// A frame that expects no reply: only heartbeats count.
    pub(crate) fn post(&mut self, frame: ServeFrame) {
        if let ServeFrame::Heartbeat { .. } = frame {
            self.handle(frame);
        }
    }

    /// A worker's link died: requeue what it held.
    pub(crate) fn worker_gone(&mut self, worker: usize) {
        if worker < self.cfg.workers {
            self.scheduler.worker_disconnected(worker);
            // No link left to say goodbye on: a gone worker must not
            // hold the service open waiting for a `Shutdown` it can
            // never receive. A redial re-enters via `Hello` and re-marks
            // `seen`; one that already heard `Shutdown` stays told.
            self.seen[worker] = false;
        }
    }

    /// Orderly exit: a final compaction so a restart re-admits nothing
    /// that already retired, then the report.
    pub(crate) fn finish(mut self) -> ServeReport {
        let state = self.journal_state();
        if let Some(journal) = &mut self.journal {
            let _ = journal.checkpoint(&state);
        }
        self.report()
    }

    /// The durable image of the service's current job table: every
    /// open job (active, recovered-waiting, queued) with its live
    /// completion bitmap.
    fn journal_state(&self) -> RecoveredState {
        let mut jobs = self.scheduler.journal_snapshot();
        jobs.extend(self.recovered_queue.iter().cloned());
        for qj in self.queue.iter() {
            jobs.push(JobSnapshot::empty(qj.id, qj.spec.clone(), qj.submitted_ns));
        }
        jobs.sort_by_key(|j| j.id);
        RecoveredState { next_job: self.next_job, jobs }
    }

    /// Compacts the journal when enough completions accumulated.
    fn maybe_checkpoint(&mut self) {
        if self.journal.as_ref().is_some_and(Journal::checkpoint_due) {
            let state = self.journal_state();
            if let Some(journal) = &mut self.journal {
                if journal.checkpoint(&state).is_err() {
                    self.journal = None;
                }
            }
        }
    }

    /// Write-ahead journals one reported chunk completion. An append
    /// failure permanently degrades to in-memory scheduling rather
    /// than panicking the daemon.
    fn journal_complete(&mut self, job: u64, chunk: Chunk) {
        if let Some(journal) = &mut self.journal {
            if journal.append_complete(job, chunk).is_err() {
                self.journal = None;
            }
        }
    }

    /// Journals retired job ids.
    fn journal_finish(&mut self, retired: &[u64]) {
        if let Some(journal) = &mut self.journal {
            for &id in retired {
                if journal.append_finish(id).is_err() {
                    self.journal = None;
                    return;
                }
            }
        }
    }

    /// Lease expiry alone cannot complete a job, but a requeued chunk
    /// re-granted and completed via a piggy-backed result can retire
    /// one between requests; sweep for completions after polls too.
    fn scheduler_retired(&mut self, now: u64) -> u64 {
        let retired = self.scheduler.record_results(usize::MAX, &[], now);
        self.journal_finish(&retired);
        let n = retired.len() as u64;
        if n > 0 {
            self.activate_from_queue();
        }
        n
    }

    /// Handles one request frame and returns its reply. Anything the
    /// reply acknowledges is journaled before this returns.
    pub(crate) fn handle(&mut self, frame: ServeFrame) -> ServeFrame {
        match frame {
            ServeFrame::HelloWorker { worker, q } => self.worker_request(worker, q, Vec::new()),
            ServeFrame::Request(ServeRequest { worker, q, results }) => {
                self.worker_request(worker, q, results)
            }
            ServeFrame::Heartbeat { worker } => {
                if worker < self.cfg.workers {
                    let now = self.now();
                    self.scheduler.heartbeat(worker, now);
                }
                ServeFrame::Ack
            }
            ServeFrame::Submit(spec) => self.submit(spec),
            ServeFrame::JobsQuery => ServeFrame::JobList(self.statuses()),
            ServeFrame::Drain => {
                self.draining = true;
                ServeFrame::Ack
            }
            ServeFrame::HelloClient => ServeFrame::Ack,
            _ => ServeFrame::Rejected { reason: "unexpected frame".into() },
        }
    }

    fn worker_request(
        &mut self,
        worker: usize,
        q: u32,
        results: Vec<lss_runtime::protocol::serve::JobChunkResult>,
    ) -> ServeFrame {
        if worker >= self.cfg.workers {
            return ServeFrame::Rejected {
                reason: format!("unknown worker {worker} (pool size {})", self.cfg.workers),
            };
        }
        self.seen[worker] = true;
        self.requests += 1;
        let now = self.now();
        // Write-ahead: completions hit the journal before the
        // scheduler, so anything the trace later claims complete is
        // recoverable. Replay ORs bits, so duplicates are harmless.
        for r in &results {
            self.journal_complete(r.job, r.result.chunk);
        }
        let retired = self.scheduler.record_results(worker, &results, now);
        self.journal_finish(&retired);
        self.completed += retired.len() as u64;
        self.activate_from_queue();
        if self.done() {
            self.told_shutdown[worker] = true;
            return ServeFrame::Shutdown;
        }
        let grants = self.scheduler.grants_for(worker, q, now);
        if grants.is_empty() {
            ServeFrame::Retry
        } else {
            ServeFrame::Grants(grants)
        }
    }

    fn submit(&mut self, spec: lss_runtime::protocol::serve::JobSpec) -> ServeFrame {
        let id = self.next_job;
        self.next_job += 1;
        let now = self.now();
        self.cfg
            .trace
            .record(TraceEvent::new(now, EventKind::JobSubmitted).on_job(id));
        let reject = |svc: &mut Service, reason: String| {
            svc.rejected += 1;
            svc.cfg
                .trace
                .record(TraceEvent::new(svc.now(), EventKind::JobRejected).on_job(id));
            ServeFrame::Rejected { reason }
        };
        if self.draining || self.done() {
            return reject(self, "service is draining; not accepting jobs".into());
        }
        if spec.priority == 0 {
            return reject(self, "priority must be at least 1".into());
        }
        if spec.workload.is_empty() {
            return reject(self, "empty loop: nothing to schedule".into());
        }
        let iters = spec.workload.len();
        if self.scheduler.active_len() < self.cfg.max_active {
            self.scheduler.activate(id, &spec, now);
        } else if let Err(reason) =
            self.queue.offer(QueuedJob { id, spec: spec.clone(), submitted_ns: now })
        {
            return reject(self, reason);
        }
        // Write-ahead relative to the acknowledgment: the admission is
        // durable before `Accepted` leaves the service, so a crash can
        // never lose a job the client was told it has.
        if let Some(journal) = &mut self.journal {
            if journal.append_admit(id, now, &spec).is_err() {
                self.journal = None;
            }
        }
        self.total_iterations += iters;
        self.cfg
            .trace
            .record(TraceEvent::new(self.now(), EventKind::JobAdmitted).on_job(id));
        ServeFrame::Accepted { job: id }
    }

    fn activate_from_queue(&mut self) {
        // Crash-recovered jobs first: they keep their completion
        // bitmaps and were admitted before anything still queued.
        while self.scheduler.active_len() < self.cfg.max_active {
            match self.recovered_queue.first() {
                Some(_) => {
                    let job = self.recovered_queue.remove(0);
                    let now = self.now();
                    self.scheduler.activate_recovered(
                        job.id,
                        &job.spec,
                        job.submitted_ns,
                        &job.completed_ranges(),
                        now,
                    );
                }
                None => break,
            }
        }
        while self.scheduler.active_len() < self.cfg.max_active {
            match self.queue.pop_highest() {
                Some(job) => self.scheduler.activate(job.id, &job.spec, job.submitted_ns),
                None => break,
            }
        }
    }

    fn statuses(&self) -> Vec<JobStatus> {
        let mut out: Vec<JobStatus> = self
            .queue
            .iter()
            .map(|qj| JobStatus {
                job: qj.id,
                priority: qj.spec.priority,
                total: qj.spec.workload.len(),
                completed: 0,
                state: JobState::Queued,
                submitted_ns: qj.submitted_ns,
                finished_ns: None,
            })
            .collect();
        out.extend(self.recovered_queue.iter().map(|js| JobStatus {
            job: js.id,
            priority: js.spec.priority,
            total: js.total(),
            completed: js.completed_count(),
            state: JobState::Recovering,
            submitted_ns: js.submitted_ns,
            finished_ns: None,
        }));
        out.extend(self.scheduler.statuses(self.draining));
        out.sort_by_key(|j| j.job);
        out
    }

    /// The report as of now.
    pub(crate) fn report(self) -> ServeReport {
        let trace = if self.cfg.trace.enabled() {
            Some(self.cfg.trace.take(TraceMeta {
                scheme: "serve".into(),
                workers: self.cfg.workers,
                total_iterations: self.total_iterations,
                clock: ClockDomain::Monotonic,
            }))
        } else {
            None
        };
        ServeReport {
            jobs: self.statuses(),
            snapshots: self.scheduler.snapshots().to_vec(),
            requests_served: self.requests,
            grants_sent: self.scheduler.grants_sent(),
            jobs_completed: self.completed,
            jobs_rejected: self.rejected,
            replans: self.scheduler.replans(),
            trace,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::worker::{run_serve_worker, ServeWorkerConfig};
    use lss_core::master::SchemeKind;
    use lss_runtime::protocol::serve::{JobSpec, WorkloadSpec};

    fn uniform(priority: u32, iters: u64) -> JobSpec {
        JobSpec {
            workload: WorkloadSpec::Uniform { iters, cost: 5 },
            scheme: SchemeKind::Dtss,
            priority,
        }
    }

    fn spawn_workers(handle: &ServeHandle, n: usize) -> Vec<std::thread::JoinHandle<()>> {
        (0..n)
            .map(|w| {
                let mut link = handle.worker_link(w);
                std::thread::spawn(move || {
                    let cfg = ServeWorkerConfig::healthy(w);
                    run_serve_worker(&mut link, &cfg).expect("worker failed");
                })
            })
            .collect()
    }

    #[test]
    fn in_process_jobs_run_to_completion() {
        let handle = serve(ServeConfig::new(4));
        let mut client = handle.client();
        let a = client.submit(uniform(1, 300)).expect("submit a");
        let b = client.submit(uniform(2, 300)).expect("submit b");
        let c = client.submit(uniform(4, 300)).expect("submit c");
        assert_eq!((a, b, c), (1, 2, 3), "service assigns dense job ids");
        let workers = spawn_workers(&handle, 4);
        client.drain().expect("drain");
        drop(client);
        let report = handle.join();
        for w in workers {
            w.join().expect("worker thread");
        }
        assert_eq!(report.jobs_completed, 3);
        assert_eq!(report.jobs.len(), 3);
        for job in &report.jobs {
            assert_eq!(job.state, JobState::Done, "job {} not done", job.job);
            assert_eq!(job.completed, job.total);
            assert!(job.finished_ns.is_some());
        }
        assert!(report.requests_served > 0);
        assert!(report.grants_sent >= 3, "at least one grant per job");
    }

    #[test]
    fn admission_control_rejects_when_full_with_typed_reason() {
        let mut cfg = ServeConfig::new(2);
        cfg.max_active = 1;
        cfg.queue_capacity = 1;
        let handle = serve(cfg);
        let mut client = handle.client();
        client.submit(uniform(1, 200)).expect("first fills the active slot");
        client.submit(uniform(1, 200)).expect("second fills the queue");
        let err = client.submit(uniform(1, 200)).expect_err("third must be rejected");
        match err {
            crate::ServeError::Rejected(reason) => {
                assert!(reason.contains("queue full"), "reason: {reason}")
            }
            other => panic!("expected Rejected, got {other}"),
        }
        // Invalid specs are rejected before touching the queue.
        let err = client.submit(uniform(0, 100)).expect_err("priority 0");
        assert!(matches!(err, crate::ServeError::Rejected(_)));
        let err = client.submit(uniform(1, 0)).expect_err("empty loop");
        assert!(matches!(err, crate::ServeError::Rejected(_)));
        let workers = spawn_workers(&handle, 2);
        client.drain().expect("drain");
        drop(client);
        let report = handle.join();
        for w in workers {
            w.join().expect("worker thread");
        }
        assert_eq!(report.jobs_completed, 2);
        assert_eq!(report.jobs_rejected, 3);
    }

    #[test]
    fn drain_refuses_new_jobs() {
        let handle = serve(ServeConfig::new(1));
        let mut client = handle.client();
        // Keep one job in flight so the draining service stays up long
        // enough to answer the refused submission with a typed reason.
        client.submit(uniform(1, 5000)).expect("submit before drain");
        client.drain().expect("drain");
        let err = client.submit(uniform(1, 10)).expect_err("draining");
        assert!(matches!(err, crate::ServeError::Rejected(_)));
        let workers = spawn_workers(&handle, 1);
        drop(client);
        let report = handle.join();
        for w in workers {
            w.join().expect("worker thread");
        }
        assert_eq!(report.jobs_completed, 1);
        assert_eq!(report.jobs_rejected, 1);
    }

    #[test]
    fn jobs_query_reports_queued_active_done() {
        let mut cfg = ServeConfig::new(1);
        cfg.max_active = 1;
        let handle = serve(cfg);
        let mut client = handle.client();
        client.submit(uniform(1, 100)).expect("submit 1");
        client.submit(uniform(1, 100)).expect("submit 2");
        let jobs = client.jobs().expect("jobs");
        assert_eq!(jobs.len(), 2);
        assert_eq!(jobs[0].state, JobState::Active);
        assert_eq!(jobs[1].state, JobState::Queued);
        let workers = spawn_workers(&handle, 1);
        client.drain().expect("drain");
        drop(client);
        handle.join();
        for w in workers {
            w.join().expect("worker thread");
        }
    }
}
