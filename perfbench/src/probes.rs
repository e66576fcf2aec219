//! Layer probes: each times one layer's public functions in isolation,
//! replaying the work a workload hands that layer. They run in traced
//! runs only.

use std::time::{Duration, Instant};

use lss_core::master::Assignment;
use lss_core::{AcpConfig, Chunk, LeaseConfig, Master, MasterConfig, SchemeKind, VirtualPower};
use lss_runtime::protocol::serve::{JobChunkResult, JobGrant, JobSpec, ServeFrame, ServeRequest};
use lss_runtime::protocol::{ChunkResult, Reply, Request};
use lss_serve::{Journal, JournalConfig, MultiJobScheduler, QuarantineConfig, SchedulerConfig};
use lss_trace::SharedSink;
use lss_workloads::Workload;

use crate::loop_mandelbrot::LoopWorkload;
use crate::serve_jobs::{self, BACKLOG_JOBS, MAX_ACTIVE};
use crate::util::{out_dir, Metrics, Rng, Spans};
use crate::SCHEMES;

/// Calls `f` until at least `budget` has passed; returns the elapsed
/// time and the number of calls.
fn repeat(budget: Duration, mut f: impl FnMut()) -> (Duration, u64) {
    let t = Instant::now();
    let mut n = 0;
    while t.elapsed() < budget || n == 0 {
        f();
        n += 1;
    }
    (t.elapsed(), n)
}

/// `lss-workloads`: time per `Workload::execute` over every fourth
/// column of the loop's window, sequentially.
pub fn column_kernel(w: &LoopWorkload, m: &mut Metrics, spans: &mut Spans) {
    let t = Instant::now();
    let mut n = 0u64;
    spans.time("lss-workloads", "Workload::execute", 0, || {
        for j in (0..w.len()).step_by(4) {
            std::hint::black_box(w.execute(std::hint::black_box(j)));
            n += 1;
        }
    });
    m.put(
        "workloads.mandelbrot.column_us",
        t.elapsed().as_secs_f64() * 1e6 / n as f64,
        "us",
    );
}

/// Grants and completions through one `Master` with zero compute:
/// workers take turns; each completes its chunk at once. Returns
/// (chunks, time spent inside the master).
fn replay_master(
    scheme: SchemeKind,
    total: u64,
    powers: &[f64],
    poll_every: u64,
) -> (u64, Duration) {
    let p = powers.len();
    let mut master = Master::new(MasterConfig {
        scheme,
        total,
        powers: powers.iter().map(|&v| VirtualPower::new(v)).collect(),
        initial_q: vec![1; p],
        acp: AcpConfig::PAPER,
    });
    master.set_lease_config(LeaseConfig::RUNTIME_DEFAULT);
    let mut done = vec![false; p];
    let mut live = p;
    let (mut now, mut chunks, mut w) = (0u64, 0u64, 0usize);
    let t = Instant::now();
    while live > 0 {
        if !done[w] {
            now += 1_000;
            match master.grant_with_lease(w, 1, now) {
                Assignment::Chunk(c) => {
                    master.record_completion(w, c, now + 500);
                    chunks += 1;
                    if poll_every > 0 && chunks % poll_every == 0 {
                        master.poll_leases(now + 500);
                    }
                }
                Assignment::Retry => {}
                Assignment::Finished => {
                    done[w] = true;
                    live -= 1;
                }
            }
        }
        w = (w + 1) % p;
    }
    (chunks, t.elapsed())
}

/// `lss-core`: ns per grant plus completion, at the loop's size and two
/// workers (powers 3:1), and at p = 10,000 with leases polled.
pub fn core_grants(loop_iters: u64, m: &mut Metrics, spans: &mut Spans) {
    let span = spans.begin("lss-core", "Master::grant_with_lease", 0);
    let (mut chunks, mut inside) = (0u64, Duration::ZERO);
    let t = Instant::now();
    while t.elapsed() < Duration::from_millis(300) || chunks == 0 {
        for &s in SCHEMES {
            let (c, d) = replay_master(s, loop_iters, &[3.0, 1.0], 0);
            chunks += c;
            inside += d;
        }
    }
    spans.end(span);
    m.put(
        "core.grant_ns",
        inside.as_nanos() as f64 / chunks as f64,
        "ns",
    );

    let span = spans.begin("lss-core", "Master::grant_with_lease.p10k", 0);
    let powers: Vec<f64> = (0..10_000).map(|i| 1.0 + f64::from(i % 3)).collect();
    let (mut chunks, mut inside) = (0u64, Duration::ZERO);
    for &s in SCHEMES {
        let (c, d) = replay_master(s, 50 * powers.len() as u64, &powers, 64);
        chunks += c;
        inside += d;
    }
    spans.end(span);
    m.put(
        "core.grant_ns.p10k",
        inside.as_nanos() as f64 / chunks as f64,
        "ns",
    );
}

/// `lss-runtime`: encode + decode of the loop's request (carrying a
/// chunk of results) and reply frames.
pub fn loop_codec(chunk_len: u64, m: &mut Metrics, spans: &mut Spans) {
    let chunk = Chunk::new(1000, chunk_len);
    let req = Request {
        worker: 1,
        q: 1,
        result: Some(ChunkResult::new(
            chunk,
            (0..chunk_len).map(|i| i * 0x9E37).collect(),
        )),
    };
    let reply = Reply {
        assignment: Assignment::Chunk(chunk),
    };
    let span = spans.begin("lss-runtime", "protocol codec", 0);
    let (d, n) = repeat(Duration::from_millis(100), || {
        let a = Request::decode(&std::hint::black_box(req.encode()));
        let b = Reply::decode(&std::hint::black_box(reply.encode()));
        assert!(a.is_some() && b.is_some(), "loop frames must round-trip");
    });
    spans.end(span);
    m.put(
        "runtime.codec.frame_ns",
        d.as_nanos() as f64 / n as f64,
        "ns",
    );
}

/// `lss-runtime` (serve protocol): encode + decode of a batched grant
/// frame and of the request carrying its results.
pub fn serve_codec(grants: &[JobGrant], m: &mut Metrics, spans: &mut Spans) {
    let grants_frame = ServeFrame::Grants(grants.to_vec());
    let request = ServeFrame::Request(ServeRequest {
        worker: 0,
        q: 1,
        results: grants
            .iter()
            .map(|g| JobChunkResult {
                job: g.job,
                result: ChunkResult::new(g.chunk, (0..g.chunk.len).map(|i| i ^ 0x5a).collect()),
            })
            .collect(),
    });
    let bytes = grants_frame.encode().len() + request.encode().len();
    let span = spans.begin("lss-runtime", "serve protocol codec", 0);
    let (d, n) = repeat(Duration::from_millis(100), || {
        let a = ServeFrame::decode(&std::hint::black_box(grants_frame.encode()));
        let b = ServeFrame::decode(&std::hint::black_box(request.encode()));
        assert!(a.is_ok() && b.is_ok(), "serve frames must round-trip");
    });
    spans.end(span);
    m.put(
        "runtime.codec.serve_frame_ns",
        d.as_nanos() as f64 / n as f64,
        "ns",
    );
    m.put(
        "runtime.codec.serve_bytes_per_grant",
        bytes as f64 / grants.len().max(1) as f64,
        "B",
    );
}

/// What the scheduler replay handed out, for the codec and journal
/// probes.
pub struct SchedulerReplay {
    /// A typical batch (the largest seen).
    pub batch: Vec<JobGrant>,
    /// Every granted (job, chunk), in order.
    pub granted: Vec<(u64, Chunk)>,
    pub jobs: Vec<JobSpec>,
}

/// `lss-serve`: `MultiJobScheduler::grants_for` plus `record_results`
/// per call, over the backlog job set, with two instant in-process
/// workers and at most [`MAX_ACTIVE`] live jobs.
pub fn scheduler(seed: u64, m: &mut Metrics, spans: &mut Spans) -> SchedulerReplay {
    let jobs = serve_jobs::job_stream(&mut Rng::new(seed, 0x5e7e), BACKLOG_JOBS, None);
    let mut sched = MultiJobScheduler::new(
        SchedulerConfig {
            workers: 2,
            powers: serve_jobs::scheduler_powers(),
            acp: AcpConfig::new(1000, 0),
            lease: LeaseConfig::RUNTIME_DEFAULT,
            batch_k: serve_jobs::BATCH_K,
            quarantine: QuarantineConfig::disabled(),
        },
        SharedSink::disabled(),
    );
    let mut queued = jobs.iter().enumerate().map(|(i, s)| (i as u64 + 1, s));
    let mut live = 0usize;
    let mut done = 0usize;
    let mut now = 0u64;
    let mut calls = 0u64;
    let mut inside = Duration::ZERO;
    let mut batch = Vec::new();
    let mut granted = Vec::new();
    let span = spans.begin("lss-serve", "MultiJobScheduler", 0);
    while done < jobs.len() && calls < 50_000_000 {
        while live < MAX_ACTIVE {
            let Some((id, spec)) = queued.next() else {
                break;
            };
            sched.activate(id, spec, now);
            live += 1;
        }
        let worker = (calls % 2) as usize;
        now += 10_000;
        let t = Instant::now();
        let grants = sched.grants_for(worker, 1, now);
        let results: Vec<JobChunkResult> = grants
            .iter()
            .map(|g| JobChunkResult {
                job: g.job,
                result: ChunkResult::zeroed(g.chunk),
            })
            .collect();
        let retired = sched.record_results(worker, &results, now + 5_000);
        inside += t.elapsed();
        calls += 1;
        granted.extend(grants.iter().map(|g| (g.job, g.chunk)));
        if grants.len() > batch.len() {
            batch = grants;
        }
        live -= retired.len();
        done += retired.len();
    }
    spans.end(span);
    m.put(
        "serve.scheduler.grant_us",
        inside.as_secs_f64() * 1e6 / calls as f64,
        "us",
    );
    SchedulerReplay {
        batch,
        granted,
        jobs,
    }
}

/// `lss-serve`: `Journal::append_*` replaying the backlog's record mix
/// (admit, every completion, finish) into a fresh directory.
pub fn journal(replay: &SchedulerReplay, m: &mut Metrics, spans: &mut Spans) {
    let dir = out_dir().join(format!("journal-probe-{}", std::process::id()));
    let mut cfg = JournalConfig::fresh(&dir);
    cfg.checkpoint_every = u64::MAX;
    let span = spans.begin("lss-serve", "Journal::append", 0);
    let (mut journal, _) = Journal::open(&cfg).expect("probe journal opens");
    let t = Instant::now();
    let mut appends = 0u64;
    for (i, spec) in replay.jobs.iter().enumerate() {
        journal
            .append_admit(i as u64 + 1, 0, spec)
            .expect("append admit");
        appends += 1;
    }
    for &(job, chunk) in &replay.granted {
        journal
            .append_complete(job, chunk)
            .expect("append complete");
        appends += 1;
    }
    for i in 0..replay.jobs.len() {
        journal.append_finish(i as u64 + 1).expect("append finish");
        appends += 1;
    }
    let elapsed = t.elapsed();
    drop(journal);
    spans.end(span);
    let bytes = std::fs::metadata(dir.join("journal.log")).map_or(0, |md| md.len());
    let _ = std::fs::remove_dir_all(&dir);
    m.put(
        "serve.journal.append_us",
        elapsed.as_secs_f64() * 1e6 / appends as f64,
        "us",
    );
    m.put(
        "serve.journal.bytes_per_job",
        bytes as f64 / replay.jobs.len() as f64,
        "B",
    );
}
