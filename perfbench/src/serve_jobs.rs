//! `serve-jobs`: the multi-job daemon on its evented TCP front end with
//! the journal on, two serve workers whose declared powers match their
//! slowdowns (3:1), and a seeded stream of small jobs.
//!
//! Each round starts a fresh daemon in a fresh journal directory and
//! runs over one client connection:
//! - backlog: one batch per scheme, in a seeded order, each batch's jobs
//!   submitted back to back (closed loop on the submit replies); a
//!   batch's time per job is the time from its first to its last job
//!   completion, both stamped by the daemon, over the jobs completed
//!   after the first;
//! - paced, in traced runs only (it feeds per-layer metrics): an open
//!   loop of seeded Poisson arrivals at [`PACED_RATE`]; each job's
//!   latency runs from its *intended* send time to its completion.
//!
//! The journal appends every record but compacts only when it opens and
//! when the daemon stops, never inside a timed batch
//! ([`CHECKPOINT_EVERY`]): a compaction ends in an `fsync`, whose
//! latency is the host's virtual disk, not the program.
//!
//! Straggler quarantine is off (`QuarantineConfig::disabled()`, the same
//! as `lss serve --no-quarantine`): with it on, a healthy worker is
//! sometimes quarantined and never readmitted, and the run collapses.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use lss_core::{SchemeKind, VirtualPower};
use lss_runtime::protocol::serve::{JobSpec, JobState, JobStatus, WorkloadSpec};
use lss_runtime::transport::TransportError;
use lss_serve::{
    run_serve_worker, serve_tcp_with, FairSnapshot, Journal, JournalConfig, QuarantineConfig,
    ServeBackend, ServeClient, ServeConfig, ServeHandle, ServeReport, ServeWorkerConfig,
    ServeWorkerStats, TcpLink,
};
use lss_trace::{EventKind, SharedSink};

use crate::checks;
use crate::util::{
    high_quartile, low_quartile, median, out_dir, percentile, Metrics, Rng, Spans, Tally,
};
use crate::{scheme_label, SCHEMES};

/// Jobs per backlog phase.
pub const BACKLOG_JOBS: usize = 2000;
/// Jobs per backlog batch: the phase runs one batch of each scheme.
const BATCH_JOBS: usize = BACKLOG_JOBS / SCHEMES.len();
/// Warm-up jobs the set-up runs through the first daemon: two
/// admission windows, so that lazy set-up in the daemon, the workers
/// and the client is done before the first timed batch.
const WARMUP_JOBS: usize = 4 * MAX_ACTIVE;
/// Jobs per paced phase (enough for ten samples beyond p99).
pub const PACED_JOBS: usize = 1000;
/// Paced arrival rate, jobs/s: about a quarter of the backlog
/// throughput measured on a 2-core machine with the daemon's default
/// grant batch (2,700–3,000 jobs/s at k = 4; about 4,100 at
/// [`BATCH_K`]), fixed so every run offers the same load. At half that throughput a stretch
/// of CPU steal on a shared host pushes capacity below the offered rate
/// and the open-loop queue grows without bound.
pub const PACED_RATE: f64 = 700.0;
/// Completion records between journal compactions: never within a
/// round. With the daemon's default (256) a 500-job batch compacts
/// about 23 times, each time snapshotting the whole job queue and
/// waiting on an `fsync` on the scheduler thread.
const CHECKPOINT_EVERY: u64 = u64::MAX;
/// Chunks a worker may be granted per round trip (`lss serve --batch
/// 16`; the daemon's default is 4). Each round trip is a chain of
/// cross-thread wake-ups (worker, reactor, scheduler thread and back),
/// and those are what CPU contention on a shared host delays most. On
/// a 2-vCPU machine, with one busy-looping process beside a 20-second
/// run, backlog time per job rose by up to 18 % at k = 4 and by at
/// most 5 % at k = 16, while the grant walk, journal appends and codec
/// still run once per chunk.
pub const BATCH_K: usize = 16;
/// Concurrently active jobs the daemon may hold.
pub const MAX_ACTIVE: usize = 64;
/// Declared virtual powers and actual slowdowns of the two workers.
const POWERS: [f64; 2] = [3.0, 1.0];
const SLOWDOWNS: [u32; 2] = [1, 3];
/// How often the client polls the job table while waiting. Between
/// polls it sleeps, so that it takes no CPU from the daemon and the
/// workers while they work through a backlog.
const POLL: Duration = Duration::from_millis(20);
/// The warm-up's poll: its end is the end of the timed set-up, so it
/// polls finely (the job table is small then).
const WARMUP_POLL: Duration = Duration::from_millis(1);
/// A phase that has not finished by then counts its open jobs failed.
const PHASE_DEADLINE: Duration = Duration::from_secs(60);

/// The seeded job stream: scheme `only`, or else drawn from the four
/// distributed schemes, priority 1–4, and seven in eight uniform loops
/// of cheap iterations; every eighth (in a shuffled order) a small
/// Mandelbrot window with irregular column costs. The Mandelbrot share
/// is exact, so two streams of one length carry comparable work.
pub fn job_stream(rng: &mut Rng, n: usize, only: Option<SchemeKind>) -> Vec<JobSpec> {
    let mut jobs: Vec<JobSpec> = (0..n)
        .map(|i| {
            let scheme =
                only.unwrap_or_else(|| SCHEMES[rng.range(0, SCHEMES.len() as u64 - 1) as usize]);
            let priority = rng.range(1, 4) as u32;
            let workload = if i % 8 == 0 {
                WorkloadSpec::Mandelbrot {
                    width: rng.range(48, 96) as u32,
                    height: 48,
                    sf: 4,
                }
            } else {
                WorkloadSpec::Uniform {
                    iters: rng.range(64, 512),
                    cost: 200,
                }
            };
            JobSpec {
                workload,
                scheme,
                priority,
            }
        })
        .collect();
    rng.shuffle(&mut jobs);
    jobs
}

pub fn scheduler_powers() -> Vec<VirtualPower> {
    POWERS.iter().map(|&p| VirtualPower::new(p)).collect()
}

/// A running daemon with its workers and one client.
struct Daemon {
    handle: ServeHandle,
    workers: Vec<JoinHandle<Result<ServeWorkerStats, TransportError>>>,
    client: ServeClient,
    dir: PathBuf,
}

fn start(dir: PathBuf, traced: bool, spans: &mut Spans, op: u64) -> Result<Daemon, String> {
    let _ = std::fs::remove_dir_all(&dir);
    let mut cfg = ServeConfig::new(POWERS.len());
    cfg.powers = scheduler_powers();
    cfg.queue_capacity = BACKLOG_JOBS + PACED_JOBS + 16;
    cfg.max_active = MAX_ACTIVE;
    cfg.batch_k = BATCH_K;
    cfg.quarantine = QuarantineConfig::disabled();
    cfg.journal = Some(JournalConfig {
        checkpoint_every: CHECKPOINT_EVERY,
        ..JournalConfig::fresh(&dir)
    });
    if traced {
        cfg.trace = SharedSink::bounded(1 << 22);
    }
    let handle = spans
        .time("lss-serve", "serve_tcp_with", op, || {
            serve_tcp_with(cfg, "127.0.0.1", 0, ServeBackend::Evented)
        })
        .map_err(|e| format!("daemon failed to start: {e}"))?;
    let addr = handle.addr.ok_or("daemon has no address")?;
    let mut workers = Vec::new();
    for (id, &slowdown) in SLOWDOWNS.iter().enumerate() {
        let mut link = spans
            .time("lss-serve", "TcpLink::connect", op, || {
                TcpLink::connect(addr)
            })
            .map_err(|e| format!("worker {id} dial: {e}"))?;
        let wcfg = ServeWorkerConfig {
            slowdown,
            ..ServeWorkerConfig::healthy(id)
        };
        workers.push(std::thread::spawn(move || {
            run_serve_worker(&mut link, &wcfg)
        }));
    }
    let client = spans
        .time("lss-serve", "ServeClient::connect", op, || {
            ServeClient::connect(addr)
        })
        .map_err(|e| format!("client dial: {e}"))?;
    Ok(Daemon {
        handle,
        workers,
        client,
        dir,
    })
}

/// The paced client waits for each send time by yielding, never by
/// sleeping: a sleep oversleeps by the timer slack, and on a virtual
/// machine a vCPU left idle pays the host's scheduling delay on every
/// wake-up. Measured on the
/// reference 2-core VM: with sleeps, a 30-second run accrued about
/// 2,400 ticks of CPU steal and its per-round paced medians ranged from
/// 1.8 ms to over a second; yielding, about 150 ticks and 1.3–2.3 ms.
fn yield_until(t: Instant) {
    while Instant::now() < t {
        std::thread::yield_now();
    }
}

/// One submitted job as the benchmark saw it.
struct Sent {
    id: u64,
    size: u64,
    /// Benchmark-clock nanoseconds: intended send, actual send, reply.
    due_ns: u64,
    sent_ns: u64,
    reply_ns: u64,
}

/// What the rounds of one run observed.
#[derive(Default)]
pub struct ServeRecord {
    pub tally: Tally,
    pub errors: Vec<String>,
    /// Backlog milliseconds per job, by scheme, one per batch.
    backlog_ms: Vec<(SchemeKind, f64)>,
    /// Backlog jobs over the summed batch spans, one per round.
    backlog_jobs_per_s: Vec<f64>,
    /// Paced latency from the intended send time, ms, by round.
    latency_ms: Vec<(u64, f64)>,
    late_ms: Vec<f64>,
    rtt_us: Vec<f64>,
    requests: u64,
    grants: u64,
    jobs_done: u64,
    queue_wait_ms: Vec<f64>,
    active_ms: Vec<f64>,
    share: ShareTally,
    trace_events: u64,
    trace_dropped: u64,
}

pub struct ServeBench {
    seed: u64,
    traced: bool,
    base: Instant,
    rounds: u64,
    /// The first round's daemon, started during set-up.
    ready: Option<Daemon>,
    /// The warm-up jobs, checked with the first round's.
    warmup: Vec<Sent>,
}

impl ServeBench {
    /// Set-up: starts the daemon, opens its journal, connects the
    /// workers and the client, and runs [`WARMUP_JOBS`] jobs through it.
    pub fn setup(seed: u64, traced: bool, spans: &mut Spans, rec: &mut ServeRecord) -> Self {
        let mut bench = ServeBench {
            seed,
            traced,
            base: Instant::now(),
            rounds: 0,
            ready: None,
            warmup: Vec::new(),
        };
        let mut d = match start(bench.journal_dir(), traced, spans, 0) {
            Ok(d) => d,
            Err(e) => {
                rec.errors.push(e);
                return bench;
            }
        };
        let span = spans.begin("lss-serve", "warm-up", 0);
        let jobs = job_stream(&mut Rng::new(seed, 0x3a7e), WARMUP_JOBS, None);
        rec.tally.attempted += jobs.len() as u64;
        let mut sent = Vec::with_capacity(jobs.len());
        for spec in jobs {
            let now = bench.now_ns();
            bench.submit(&mut d.client, spec, now, &mut sent, rec);
        }
        bench.wait_done(&mut d.client, &sent, WARMUP_POLL, rec);
        spans.end(span);
        bench.warmup = sent;
        bench.ready = Some(d);
        bench
    }

    fn journal_dir(&self) -> PathBuf {
        out_dir().join(format!("journal-{}-{}", std::process::id(), self.rounds))
    }

    fn now_ns(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }

    /// Jobs one round submits.
    fn round_jobs(&self) -> usize {
        BACKLOG_JOBS + if self.traced { PACED_JOBS } else { 0 }
    }

    /// One round: backlog phase, paced phase (traced runs), drain,
    /// checks.
    pub fn round(&mut self, rec: &mut ServeRecord, spans: &mut Spans) {
        let op = self.rounds;
        let mut rng = Rng::new(self.seed, 0x5e7e ^ (op << 8));
        let mut order = SCHEMES.to_vec();
        rng.shuffle(&mut order);
        let batches: Vec<(SchemeKind, Vec<JobSpec>)> = order
            .into_iter()
            .map(|s| (s, job_stream(&mut rng, BATCH_JOBS, Some(s))))
            .collect();
        rec.tally.attempted += self.round_jobs() as u64;
        let daemon = match self.ready.take() {
            Some(d) => Ok(d),
            None => start(self.journal_dir(), self.traced, spans, op),
        };
        self.rounds += 1;
        let mut d = match daemon {
            Ok(d) => d,
            Err(e) => {
                rec.tally.failed += self.round_jobs() as u64;
                rec.errors.push(e);
                return;
            }
        };

        // Backlog: one batch per scheme, each a closed loop on the
        // submit replies, timed by the daemon's own stamps.
        let span = spans.begin("lss-serve", "backlog", op);
        let mut sent_backlog = Vec::with_capacity(BACKLOG_JOBS);
        let mut backlog_table = None;
        let (mut jobs, mut span_ns) = (0usize, 0u64);
        for (scheme, batch) in batches {
            let mut sent = Vec::with_capacity(batch.len());
            for spec in batch {
                let now = self.now_ns();
                self.submit(&mut d.client, spec, now, &mut sent, rec);
            }
            backlog_table = self.wait_done(&mut d.client, &sent, POLL, rec);
            if let Some(ns) = backlog_table.as_ref().and_then(|t| batch_span_ns(t, &sent)) {
                let after_first = sent.len() - 1;
                rec.backlog_ms
                    .push((scheme, ns as f64 * 1e-6 / after_first as f64));
                jobs += after_first;
                span_ns += ns;
            }
            sent_backlog.extend(sent);
        }
        spans.end(span);
        if span_ns > 0 {
            rec.backlog_jobs_per_s
                .push(jobs as f64 / (span_ns as f64 * 1e-9));
        }

        let (sent_paced, paced_table) = if self.traced {
            let jobs = job_stream(&mut rng, PACED_JOBS, None);
            self.paced(&mut d.client, jobs, op, rec, spans)
        } else {
            (Vec::new(), None)
        };

        // Drain, stop, and check.
        let table = paced_table.or(backlog_table).unwrap_or_default();
        let _ = d.client.drain();
        let Daemon {
            handle,
            workers,
            client,
            dir,
        } = d;
        drop(client);
        let report = spans.time("lss-serve", "ServeHandle::join", op, || handle.join());
        let mut executed = 0u64;
        for (id, w) in workers.into_iter().enumerate() {
            match w.join() {
                Ok(Ok(stats)) => executed += stats.iterations,
                Ok(Err(e)) => rec.errors.push(format!("worker {id}: {e}")),
                Err(_) => rec.errors.push(format!("worker {id} panicked")),
            }
        }
        let generated: BTreeMap<u64, u64> = std::mem::take(&mut self.warmup)
            .iter()
            .chain(&sent_backlog)
            .chain(&sent_paced)
            .map(|s| (s.id, s.size))
            .collect();
        let statuses: Vec<JobStatus> = table.into_values().collect();
        let mut verdicts = vec![
            checks::check_jobs(&statuses, &generated),
            checks::check_worker_iterations(executed, generated.values().sum()),
        ];
        let max_id = generated.keys().max().copied().unwrap_or(0);
        verdicts.push(
            spans
                .time("lss-serve", "Journal::open(recover)", op, || {
                    Journal::open(&JournalConfig::recover(&dir))
                })
                .map_err(|e| format!("journal reopen: {e}"))
                .and_then(|(_, state)| checks::check_journal(&state, max_id)),
        );
        let _ = std::fs::remove_dir_all(&dir);
        self.observe(&report, &generated, rec, &mut verdicts);
        for v in verdicts {
            if let Err(e) = v {
                rec.errors.push(format!("round {op}: {e}"));
            }
        }
    }

    /// The paced phase: an open loop of Poisson arrivals, each job
    /// timed from its intended send time; client round trips sampled
    /// between sends.
    fn paced(
        &self,
        client: &mut ServeClient,
        jobs: Vec<JobSpec>,
        op: u64,
        rec: &mut ServeRecord,
        spans: &mut Spans,
    ) -> (Vec<Sent>, Option<BTreeMap<u64, JobStatus>>) {
        let span = spans.begin("lss-serve", "paced", op);
        let mut gaps = Rng::new(self.seed, 0x9ace ^ (op << 8));
        let mut sent_paced = Vec::with_capacity(PACED_JOBS);
        let mut due = self.now_ns() + 5_000_000;
        let mut next_rtt = due;
        for spec in jobs {
            due += (-gaps.unit().ln() / PACED_RATE * 1e9) as u64;
            if self.now_ns() >= next_rtt && self.now_ns() + 200_000 < due {
                let t = Instant::now();
                if client.jobs().is_ok() {
                    rec.rtt_us.push(t.elapsed().as_secs_f64() * 1e6);
                }
                next_rtt = self.now_ns() + 50_000_000;
            }
            yield_until(self.base + Duration::from_nanos(due));
            self.submit(client, spec, due, &mut sent_paced, rec);
        }
        let paced_table = self.wait_done(client, &sent_paced, POLL, rec);
        spans.end(span);
        for s in &sent_paced {
            rec.late_ms.push((s.sent_ns - s.due_ns) as f64 * 1e-6);
        }
        if let Some(table) = &paced_table {
            // Map the daemon's clock onto the benchmark's: the daemon
            // stamped each submission between its send and its reply.
            let offsets: Vec<f64> = sent_paced
                .iter()
                .filter_map(|s| {
                    let row = table.get(&s.id)?;
                    Some((s.sent_ns + s.reply_ns) as f64 / 2.0 - row.submitted_ns as f64)
                })
                .collect();
            if !offsets.is_empty() {
                let offset = median(&offsets);
                for s in &sent_paced {
                    if let Some(done) = table.get(&s.id).and_then(|r| r.finished_ns) {
                        let ms = (done as f64 + offset - s.due_ns as f64) * 1e-6;
                        rec.latency_ms.push((op, ms));
                    }
                }
            }
        }
        (sent_paced, paced_table)
    }

    fn submit(
        &self,
        client: &mut ServeClient,
        spec: JobSpec,
        due_ns: u64,
        sent: &mut Vec<Sent>,
        rec: &mut ServeRecord,
    ) {
        let size = spec.workload.len();
        let sent_ns = self.now_ns();
        match client.submit(spec) {
            Ok(id) => sent.push(Sent {
                id,
                size,
                due_ns,
                sent_ns,
                reply_ns: self.now_ns(),
            }),
            Err(e) => {
                rec.tally.failed += 1;
                rec.errors.push(format!("submit: {e}"));
            }
        }
    }

    /// Polls the job table every `poll` until every job in `sent` is
    /// done; jobs still open at the deadline count as failed.
    fn wait_done(
        &self,
        client: &mut ServeClient,
        sent: &[Sent],
        poll: Duration,
        rec: &mut ServeRecord,
    ) -> Option<BTreeMap<u64, JobStatus>> {
        let deadline = Instant::now() + PHASE_DEADLINE;
        loop {
            let table: BTreeMap<u64, JobStatus> = match client.jobs() {
                Ok(rows) => rows.into_iter().map(|r| (r.job, r)).collect(),
                Err(e) => {
                    rec.tally.failed += sent.len() as u64;
                    rec.errors.push(format!("job query: {e}"));
                    return None;
                }
            };
            let open = sent
                .iter()
                .filter(|s| table.get(&s.id).is_none_or(|r| r.state != JobState::Done))
                .count();
            if open == 0 {
                return Some(table);
            }
            if Instant::now() > deadline {
                rec.tally.failed += open as u64;
                rec.errors
                    .push(format!("{open} jobs still open after {PHASE_DEADLINE:?}"));
                return Some(table);
            }
            std::thread::sleep(poll);
        }
    }

    /// Counters from the daemon's report; traced rounds also check that
    /// every job's `Completed` chunks tile `[0, total)` and time each
    /// job's queue wait and active span.
    fn observe(
        &self,
        report: &ServeReport,
        generated: &BTreeMap<u64, u64>,
        rec: &mut ServeRecord,
        verdicts: &mut Vec<Result<(), String>>,
    ) {
        rec.requests += report.requests_served;
        rec.grants += report.grants_sent;
        rec.jobs_done += report.jobs_completed;
        rec.share.add(&report.snapshots);
        let Some(trace) = &report.trace else { return };
        rec.trace_events += trace.events().len() as u64;
        rec.trace_dropped += trace.dropped;
        let mut chunks: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
        let mut stamps: BTreeMap<u64, [Option<u64>; 3]> = BTreeMap::new();
        for e in trace.events() {
            let Some(job) = e.job else { continue };
            match e.kind {
                EventKind::Completed => {
                    if let Some(c) = e.chunk {
                        chunks.entry(job).or_default().push((c.start, c.len));
                    }
                }
                EventKind::JobSubmitted => stamps.entry(job).or_default()[0] = Some(e.at_ns),
                EventKind::JobAdmitted => stamps.entry(job).or_default()[1] = Some(e.at_ns),
                EventKind::JobCompleted => stamps.entry(job).or_default()[2] = Some(e.at_ns),
                _ => {}
            }
        }
        for [s, a, c] in stamps.values() {
            if let (Some(s), Some(a), Some(c)) = (s, a, c) {
                rec.queue_wait_ms.push(a.saturating_sub(*s) as f64 * 1e-6);
                rec.active_ms.push(c.saturating_sub(*a) as f64 * 1e-6);
            }
        }
        if trace.dropped == 0 {
            for (&job, &size) in generated {
                let got = chunks.get(&job).map_or(&[][..], Vec::as_slice);
                verdicts
                    .push(checks::check_tiling(got, size).map_err(|e| format!("job {job}: {e}")));
            }
        }
    }
}

/// Nanoseconds from the first to the last completion of the jobs in
/// `sent`, by the daemon's stamps; `None` unless all are done. Timing
/// from the first completion, not the first submission, leaves out the
/// workers' wake-up from their idle back-off (up to 12.8 ms) before
/// the batch's first grant.
fn batch_span_ns(table: &BTreeMap<u64, JobStatus>, sent: &[Sent]) -> Option<u64> {
    let done: Vec<u64> = sent
        .iter()
        .map(|s| table.get(&s.id)?.finished_ns)
        .collect::<Option<_>>()?;
    let first = done.iter().min()?;
    let last = done.iter().max()?;
    (sent.len() > 1 && last > first).then(|| last - first)
}

/// Achieved vs priority-proportional share per priority class, summed
/// over the intervals between completions in which every class had a
/// live job.
#[derive(Default)]
struct ShareTally {
    achieved: BTreeMap<u32, f64>,
    target: BTreeMap<u32, f64>,
    total: f64,
}

impl ShareTally {
    fn add(&mut self, snapshots: &[FairSnapshot]) {
        for pair in snapshots.windows(2) {
            let before: BTreeMap<u64, u64> = pair[0]
                .progress
                .iter()
                .map(|&(j, _, done)| (j, done))
                .collect();
            let live: Vec<(u32, u64)> = pair[1]
                .progress
                .iter()
                .filter_map(|&(j, prio, done)| Some((prio, done - before.get(&j)?)))
                .collect();
            let mut classes: Vec<u32> = live.iter().map(|&(p, _)| p).collect();
            classes.sort_unstable();
            classes.dedup();
            // Only intervals in which all four priority classes are live.
            if classes.len() < 4 {
                continue;
            }
            let delta: u64 = live.iter().map(|&(_, d)| d).sum();
            let weight: u64 = live.iter().map(|&(p, _)| u64::from(p)).sum();
            if delta == 0 {
                continue;
            }
            self.total += delta as f64;
            for &(p, d) in &live {
                *self.achieved.entry(p).or_default() += d as f64;
                *self.target.entry(p).or_default() += delta as f64 * f64::from(p) / weight as f64;
            }
        }
    }

    fn error(&self) -> f64 {
        self.achieved
            .iter()
            .map(|(p, a)| (a - self.target[p]).abs() / self.total)
            .fold(0.0, f64::max)
    }
}

impl ServeRecord {
    /// Per scheme, the lower quartile over rounds of the backlog
    /// milliseconds per job (see [`low_quartile`]).
    fn per_scheme_backlog(&self) -> Vec<(SchemeKind, f64)> {
        SCHEMES
            .iter()
            .filter_map(|&s| {
                let v: Vec<f64> = self
                    .backlog_ms
                    .iter()
                    .filter(|&&(k, _)| k == s)
                    .map(|&(_, ms)| ms)
                    .collect();
                (!v.is_empty()).then(|| (s, low_quartile(&v)))
            })
            .collect()
    }

    /// End-to-end: backlog time per job per scheme and backlog jobs per
    /// second.
    pub fn end_to_end(&self, m: &mut Metrics) {
        for (s, v) in self.per_scheme_backlog() {
            m.put(format!("op_ms.{}", scheme_label(s)), v, "ms");
        }
        if !self.backlog_jobs_per_s.is_empty() {
            m.put("ops_per_s", high_quartile(&self.backlog_jobs_per_s), "1/s");
        }
    }

    pub fn per_layer(&self, m: &mut Metrics) {
        let jobs = self.jobs_done.max(1) as f64;
        m.put(
            "serve.requests_per_job",
            self.requests as f64 / jobs,
            "1/job",
        );
        m.put("serve.grants_per_job", self.grants as f64 / jobs, "1/job");
        m.put(
            "serve.requests_per_grant",
            self.requests as f64 / self.grants.max(1) as f64,
            "ratio",
        );
        let all: Vec<f64> = self.latency_ms.iter().map(|&(_, ms)| ms).collect();
        let put = |m: &mut Metrics, name: &str, v: &[f64], f: &dyn Fn(&[f64]) -> f64, unit| {
            if !v.is_empty() {
                m.put(name, f(v), unit);
            }
        };
        put(m, "serve.latency_p50_ms", &all, &median, "ms");
        // p99 only with at least ten samples beyond it.
        if all.len() >= 1000 {
            m.put("serve.latency_p99_ms", percentile(&all, 0.99), "ms");
        }
        put(m, "serve.queue_wait_ms", &self.queue_wait_ms, &median, "ms");
        put(m, "serve.active_ms", &self.active_ms, &median, "ms");
        put(m, "serve.client_rtt_us", &self.rtt_us, &median, "us");
        put(
            m,
            "serve.generator_late_ms",
            &self.late_ms,
            &|v| percentile(v, 0.99),
            "ms",
        );
        if self.share.total > 0.0 {
            m.put("serve.share_error", self.share.error(), "ratio");
        }
    }

    pub fn trace_counts(&self) -> (u64, u64) {
        (self.trace_events, self.trace_dropped)
    }

    pub fn describe(&self) -> String {
        let per_job: Vec<String> = SCHEMES
            .iter()
            .map(|&s| {
                let v: Vec<String> = self
                    .backlog_ms
                    .iter()
                    .filter(|&&(k, _)| k == s)
                    .map(|&(_, ms)| format!("{ms:.3}"))
                    .collect();
                format!("{} [{}]", scheme_label(s), v.join(", "))
            })
            .collect();
        let tput: Vec<String> = self
            .backlog_jobs_per_s
            .iter()
            .map(|v| format!("{v:.0}"))
            .collect();
        let mut line = format!(
            "serve-jobs: backlog ms/job per round {}; backlog jobs/s per round [{}]",
            per_job.join(" "),
            tput.join(", "),
        );
        if !self.late_ms.is_empty() {
            let mut by_round: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
            for &(round, ms) in &self.latency_ms {
                by_round.entry(round).or_default().push(ms);
            }
            let rounds: Vec<String> = by_round
                .values()
                .map(|v| format!("{:.2}", median(v)))
                .collect();
            let late = percentile(&self.late_ms, 0.99);
            line += &format!(
                "; paced p50 ms per round [{}]; generator p99 late {late:.3} ms",
                rounds.join(", ")
            );
        }
        line
    }
}
