//! `loop-mandelbrot`: the paper's experiment. One Mandelbrot loop over
//! the paper's domain (`S_f = 4`) per operation, executed for real by
//! the runtime harness over loopback TCP on the epoll reactor, one fast
//! and one 3×-slow PE, under each distributed scheme in turn.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

use lss_core::SchemeKind;
use lss_runtime::{run_scheduled_loop, HarnessConfig, HarnessOutcome, Transport, WorkerSpec};
use lss_trace::{EventKind, SharedSink};
use lss_workloads::{Mandelbrot, MandelbrotParams, SampledWorkload};

use crate::checks;
use crate::util::{high_quartile, low_quartile, median, Metrics, Rng, Spans, Tally};
use crate::{scheme_label, SCHEMES};

/// The loop's window: the paper's domain at half the Table 3 window in
/// each direction, so a loop takes about 0.1 s on a 2-core machine and
/// a run holds dozens of loops per scheme.
pub const WIDTH: u32 = 2000;
pub const HEIGHT: u32 = 1000;
pub const SF: u32 = 4;

pub type LoopWorkload = SampledWorkload<Mandelbrot>;

pub fn build_workload() -> Arc<LoopWorkload> {
    Arc::new(SampledWorkload::new(
        Mandelbrot::new(MandelbrotParams::paper_domain(WIDTH, HEIGHT)),
        u64::from(SF),
    ))
}

/// One loop: its wall time and what the harness returned.
struct LoopRun {
    scheme: SchemeKind,
    wall_s: f64,
    out: HarnessOutcome,
}

/// Everything the rounds of one run observed.
#[derive(Default)]
pub struct LoopRecord {
    runs: Vec<LoopRun>,
    round_s: Vec<f64>,
    pub tally: Tally,
    pub errors: Vec<String>,
    trace_events: u64,
    trace_dropped: u64,
}

pub struct LoopBench {
    workload: Arc<LoopWorkload>,
    rng: Rng,
    traced: bool,
}

impl LoopBench {
    /// Set-up: builds the workload (its cost profile computes the whole
    /// fractal once).
    pub fn setup(seed: u64, traced: bool, spans: &mut Spans) -> Self {
        let workload = spans.time("lss-workloads", "Mandelbrot::new", 0, build_workload);
        LoopBench {
            workload,
            rng: Rng::new(seed, 0x100f),
            traced,
        }
    }

    pub fn workload(&self) -> &Arc<LoopWorkload> {
        &self.workload
    }

    /// One round: every scheme once, in a seeded order.
    pub fn round(&mut self, rec: &mut LoopRecord, spans: &mut Spans) {
        let mut order = SCHEMES.to_vec();
        self.rng.shuffle(&mut order);
        let t0 = Instant::now();
        for scheme in order {
            let mut cfg = HarnessConfig::new(scheme, vec![WorkerSpec::fast(), WorkerSpec::slow()]);
            cfg.transport = Transport::TcpEvented;
            if self.traced {
                cfg.trace = SharedSink::bounded(1 << 20);
            }
            let op = rec.tally.attempted;
            rec.tally.attempted += 1;
            let span = spans.begin("lss-runtime", "run_scheduled_loop", op);
            let start = Instant::now();
            let res = catch_unwind(AssertUnwindSafe(|| {
                run_scheduled_loop(&cfg, Arc::clone(&self.workload))
            }));
            let wall_s = start.elapsed().as_secs_f64();
            spans.end(span);
            match res {
                Ok(out) => rec.runs.push(LoopRun {
                    scheme,
                    wall_s,
                    out,
                }),
                Err(_) => {
                    rec.tally.failed += 1;
                    eprintln!("FAILED: {} loop {op} panicked", scheme.name());
                }
            }
        }
        rec.round_s.push(t0.elapsed().as_secs_f64());
    }

    /// Correctness of every loop that finished: checksums against the
    /// benchmark's own sequential reference, exactly-once coverage and
    /// execution accounting.
    pub fn check(&self, rec: &mut LoopRecord) {
        let reference = checks::reference_checksums(WIDTH, HEIGHT, SF);
        let total = u64::from(WIDTH);
        for run in &mut rec.runs {
            let name = run.scheme.name();
            let out = &mut run.out;
            let mut verdicts = vec![
                checks::check_loop_results(&out.results, &reference),
                checks::check_execution_accounting(
                    out.worker_stats.iter().map(|s| s.iterations).sum(),
                    total,
                    out.duplicates_dropped,
                ),
            ];
            if !out.failed_workers.is_empty() {
                verdicts.push(Err(format!("failed workers {:?}", out.failed_workers)));
            }
            if let Some(trace) = out.trace.take() {
                rec.trace_events += trace.events().len() as u64;
                rec.trace_dropped += trace.dropped;
                let deduped: Vec<(u64, u64)> = trace
                    .events()
                    .iter()
                    .filter(|e| e.kind == EventKind::Deduped)
                    .filter_map(|e| e.chunk.map(|c| (c.start, c.len)))
                    .collect();
                let mut completed: Vec<(u64, u64)> = trace
                    .events()
                    .iter()
                    .filter(|e| e.kind == EventKind::Completed)
                    .filter_map(|e| e.chunk.map(|c| (c.start, c.len)))
                    .collect();
                for d in &deduped {
                    if let Some(i) = completed.iter().position(|c| c == d) {
                        completed.swap_remove(i);
                    }
                }
                if trace.dropped == 0 {
                    verdicts.push(checks::check_tiling(&completed, total));
                }
            }
            for v in verdicts {
                if let Err(e) = v {
                    rec.errors.push(format!("{name}: {e}"));
                }
            }
        }
    }
}

impl LoopRecord {
    fn per_scheme(
        &self,
        agg: fn(&[f64]) -> f64,
        f: impl Fn(&LoopRun) -> f64,
    ) -> Vec<(SchemeKind, f64)> {
        SCHEMES
            .iter()
            .filter_map(|&s| {
                let v: Vec<f64> = self.runs.iter().filter(|r| r.scheme == s).map(&f).collect();
                (!v.is_empty()).then(|| (s, agg(&v)))
            })
            .collect()
    }

    /// End-to-end: T_p per scheme and loops per second.
    pub fn end_to_end(&self, m: &mut Metrics) {
        for (s, v) in self.per_scheme(low_quartile, |r| r.wall_s * 1e3) {
            m.put(format!("op_ms.{}", scheme_label(s)), v, "ms");
        }
        let per_round: Vec<f64> = self
            .round_s
            .iter()
            .map(|t| SCHEMES.len() as f64 / t)
            .collect();
        if !per_round.is_empty() {
            m.put("ops_per_s", high_quartile(&per_round), "1/s");
        }
    }

    /// Per-layer: chunks per loop and the workers' time breakdown.
    pub fn per_layer(&self, m: &mut Metrics) {
        for (s, v) in self.per_scheme(median, |r| r.out.report.scheduling_steps as f64) {
            m.put(format!("core.chunks.{}", scheme_label(s)), v, "count");
        }
        let sum = |r: &LoopRun, f: fn(&lss_runtime::worker::WorkerStats) -> f64| {
            r.out.worker_stats.iter().map(f).sum::<f64>()
        };
        for (s, v) in self.per_scheme(median, |r| sum(r, |w| w.t_comp.as_secs_f64())) {
            m.put(format!("runtime.comp_s.{}", scheme_label(s)), v, "s");
        }
        for (s, v) in self.per_scheme(median, |r| sum(r, |w| w.t_com.as_secs_f64())) {
            m.put(format!("runtime.comm_s.{}", scheme_label(s)), v, "s");
        }
        for (s, v) in self.per_scheme(median, |r| sum(r, |w| w.t_wait.as_secs_f64())) {
            m.put(format!("runtime.wait_s.{}", scheme_label(s)), v, "s");
        }
    }

    /// Mean iterations per granted chunk over every loop run.
    pub fn mean_chunk_len(&self) -> u64 {
        let chunks: u64 = self
            .runs
            .iter()
            .map(|r| r.out.report.scheduling_steps)
            .sum();
        (self.runs.len() as u64 * u64::from(WIDTH)) / chunks.max(1)
    }

    pub fn trace_counts(&self) -> (u64, u64) {
        (self.trace_events, self.trace_dropped)
    }

    /// Human-readable lines for stderr.
    pub fn describe(&self) -> String {
        let walls: Vec<String> = self
            .per_scheme(median, |r| r.wall_s * 1e3)
            .iter()
            .map(|(s, v)| format!("{}={v:.1}ms", scheme_label(*s)))
            .collect();
        let splits: Vec<String> = self
            .runs
            .iter()
            .map(|r| {
                let it: Vec<String> = r
                    .out
                    .worker_stats
                    .iter()
                    .map(|w| w.iterations.to_string())
                    .collect();
                format!(
                    "{}:{}:{:.0}",
                    scheme_label(r.scheme),
                    it.join("/"),
                    r.wall_s * 1e3
                )
            })
            .collect();
        format!(
            "loop-mandelbrot: {} loops in {} rounds; median T_p {}\n  iteration splits fast/slow: {}",
            self.runs.len(),
            self.round_s.len(),
            walls.join(" "),
            splits.join(" ")
        )
    }
}
