//! End-to-end and per-layer benchmark of the loop self-scheduling
//! system. See README.md for the workloads, the metrics and how to read
//! them.
//!
//! ```text
//! lss-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--repeat <n>]
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! Untraced runs report the end-to-end metrics; traced runs report the
//! per-layer metrics. `--repeat n` runs the workload n times in fresh
//! processes (seeds `seed..seed+n`) and prints each metric's median and
//! quartiles instead.

mod checks;
mod loop_mandelbrot;
mod probes;
mod serve_jobs;
mod sim_churn;
mod util;

use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use lss_core::SchemeKind;

use loop_mandelbrot::{LoopBench, LoopRecord};
use serve_jobs::{ServeBench, ServeRecord};
use sim_churn::{SimBench, SimRecord};
use util::{quartiles, Metrics, Spans, Tally};

/// The paper's distributed schemes (Table 3), run by every workload.
pub const SCHEMES: &[SchemeKind] = &[
    SchemeKind::Dtss,
    SchemeKind::Dfss,
    SchemeKind::Dfiss { sigma: 3 },
    SchemeKind::Dtfss,
];

/// Metric-name (and CLI) spelling of a scheme.
pub fn scheme_label(s: SchemeKind) -> &'static str {
    match s {
        SchemeKind::Dtss => "dtss",
        SchemeKind::Dfss => "dfss",
        SchemeKind::Dfiss { .. } => "dfiss",
        SchemeKind::Dtfss => "dtfss",
        other => panic!("{} is not one of the benchmark's schemes", other.name()),
    }
}

const WORKLOADS: &[&str] = &["loop-mandelbrot", "serve-jobs", "sim-churn-10k"];

/// Every untraced run prints exactly these.
const END_TO_END: &[&str] = &[
    "setup_s",
    "op_ms.dtss",
    "op_ms.dfss",
    "op_ms.dfiss",
    "op_ms.dtfss",
    "ops_per_s",
];

/// Every traced run prints exactly these.
const PER_LAYER: &[&str] = &[
    "workloads.mandelbrot.column_us",
    "core.chunks.dtss",
    "core.chunks.dfss",
    "core.chunks.dfiss",
    "core.chunks.dtfss",
    "core.grant_ns",
    "core.grant_ns.p10k",
    "runtime.comp_s.dtss",
    "runtime.comp_s.dfss",
    "runtime.comp_s.dfiss",
    "runtime.comp_s.dtfss",
    "runtime.comm_s.dtss",
    "runtime.comm_s.dfss",
    "runtime.comm_s.dfiss",
    "runtime.comm_s.dtfss",
    "runtime.wait_s.dtss",
    "runtime.wait_s.dfss",
    "runtime.wait_s.dfiss",
    "runtime.wait_s.dtfss",
    "runtime.codec.frame_ns",
    "runtime.codec.serve_frame_ns",
    "runtime.codec.serve_bytes_per_grant",
    "serve.requests_per_job",
    "serve.grants_per_job",
    "serve.requests_per_grant",
    "serve.scheduler.grant_us",
    "serve.journal.append_us",
    "serve.journal.bytes_per_job",
    "serve.queue_wait_ms",
    "serve.active_ms",
    "serve.client_rtt_us",
    "serve.generator_late_ms",
    "serve.share_error",
    "serve.latency_p50_ms",
    "serve.latency_p99_ms",
    "scenario.compile_ms",
    "sim.cell_s.dtss",
    "sim.cell_s.dfss",
    "sim.cell_s.dfiss",
    "sim.cell_s.dtfss",
    "sim.steps",
    "sim.plans",
    "sim.fault_events",
    "sim.ns_per_step",
    "trace.events",
    "trace.dropped",
];

#[derive(Debug, Clone)]
struct Opts {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    repeat: Option<u32>,
}

fn parse_args() -> Result<Opts, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut opts = Opts {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
        repeat: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => opts.workload = value.clone(),
            "--seed" => opts.seed = num()?,
            "--seconds" => opts.seconds = num()?.max(1),
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            "--repeat" => {
                opts.repeat = Some(u32::try_from(num()?).map_err(|_| "--repeat too large")?)
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&opts.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {WORKLOADS:?}, not {:?}",
            opts.workload
        ));
    }
    Ok(opts)
}

/// What one run hands back to `main`.
struct Outcome {
    tally: Tally,
    errors: Vec<String>,
    metrics: Metrics,
}

fn add(t: &mut Tally, o: Tally) {
    t.attempted += o.attempted;
    t.failed += o.failed;
}

/// Rounds of one workload until `budget` has passed (at least one).
fn rounds(budget: Duration, mut round: impl FnMut()) {
    let t = Instant::now();
    loop {
        round();
        if t.elapsed() >= budget {
            break;
        }
    }
}

/// An untraced run: cold set-up, then rounds for `seconds`, then the
/// correctness checks. Reports the end-to-end metrics.
fn run_untraced(opts: &Opts, process_start: Instant, spans: &mut Spans) -> Outcome {
    let budget = Duration::from_secs(opts.seconds);
    let mut m = Metrics::default();
    let (tally, errors) = match opts.workload.as_str() {
        "loop-mandelbrot" => {
            let mut rec = LoopRecord::default();
            let mut bench = LoopBench::setup(opts.seed, false, spans);
            m.put("setup_s", process_start.elapsed().as_secs_f64(), "s");
            rounds(budget, || bench.round(&mut rec, spans));
            bench.check(&mut rec);
            rec.end_to_end(&mut m);
            eprintln!("{}", rec.describe());
            (rec.tally, rec.errors)
        }
        "serve-jobs" => {
            let mut rec = ServeRecord::default();
            let mut bench = ServeBench::setup(opts.seed, false, spans, &mut rec);
            m.put("setup_s", process_start.elapsed().as_secs_f64(), "s");
            rounds(budget, || bench.round(&mut rec, spans));
            rec.end_to_end(&mut m);
            eprintln!("{}", rec.describe());
            (rec.tally, rec.errors)
        }
        _ => {
            let mut rec = SimRecord::default();
            let bench = SimBench::setup(opts.seed, spans, &mut rec);
            m.put("setup_s", process_start.elapsed().as_secs_f64(), "s");
            rounds(budget, || bench.round(&mut rec, spans));
            bench.check(&mut rec, spans);
            rec.end_to_end(&mut m);
            eprintln!("{}", rec.describe());
            (rec.tally, rec.errors)
        }
    };
    Outcome {
        tally,
        errors,
        metrics: m,
    }
}

/// A traced run: the named workload's rounds for `seconds` with the
/// program's trace recording on, one traced round of each other
/// workload, and the layer probes. Reports the per-layer metrics.
fn run_traced(opts: &Opts, spans: &mut Spans) -> Outcome {
    let budget = |w: &str| {
        if w == opts.workload {
            Duration::from_secs(opts.seconds)
        } else {
            Duration::ZERO
        }
    };
    let mut m = Metrics::default();
    let mut tally = Tally::default();
    let mut errors = Vec::new();

    let mut lrec = LoopRecord::default();
    let mut lbench = LoopBench::setup(opts.seed, true, spans);
    rounds(budget("loop-mandelbrot"), || lbench.round(&mut lrec, spans));
    lbench.check(&mut lrec);
    eprintln!("traced {}", lrec.describe());

    let mut srec = ServeRecord::default();
    let mut sbench = ServeBench::setup(opts.seed, true, spans, &mut srec);
    rounds(budget("serve-jobs"), || sbench.round(&mut srec, spans));
    eprintln!("traced {}", srec.describe());

    let mut mrec = SimRecord::default();
    let mbench = SimBench::setup(opts.seed, spans, &mut mrec);
    rounds(budget("sim-churn-10k"), || mbench.round(&mut mrec, spans));
    mbench.check(&mut mrec, spans);
    eprintln!("traced {}", mrec.describe());

    probes::column_kernel(lbench.workload(), &mut m, spans);
    lrec.per_layer(&mut m);
    let loop_iters = u64::from(loop_mandelbrot::WIDTH);
    probes::core_grants(loop_iters, &mut m, spans);
    probes::loop_codec(lrec.mean_chunk_len(), &mut m, spans);
    let replay = probes::scheduler(opts.seed, &mut m, spans);
    probes::serve_codec(&replay.batch, &mut m, spans);
    probes::journal(&replay, &mut m, spans);
    srec.per_layer(&mut m);
    mrec.per_layer(&mut m);
    let (le, ld) = lrec.trace_counts();
    let (se, sd) = srec.trace_counts();
    m.put("trace.events", (le + se) as f64, "count");
    m.put("trace.dropped", (ld + sd) as f64, "count");

    add(&mut tally, lrec.tally);
    add(&mut tally, srec.tally);
    add(&mut tally, mrec.tally);
    errors.extend(lrec.errors);
    errors.extend(srec.errors);
    errors.extend(mrec.errors);
    Outcome {
        tally,
        errors,
        metrics: m,
    }
}

/// `--repeat n`: n fresh processes, then each metric's median and
/// quartiles across them.
fn repeat(opts: &Opts, n: u32) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let mut values: Vec<(String, String, Vec<f64>)> = Vec::new();
    for i in 0..n {
        let seed = opts.seed + u64::from(i);
        let out = Command::new(&exe)
            .args(["--workload", &opts.workload, "--seed", &seed.to_string()])
            .args(["--seconds", &opts.seconds.to_string()])
            .args(["--trace", if opts.trace { "1" } else { "0" }])
            .stderr(std::process::Stdio::inherit())
            .output()
            .map_err(|e| format!("run {i}: {e}"))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        let line = stdout
            .lines()
            .last()
            .ok_or(format!("run {i} printed nothing"))?;
        println!("seed {seed}: {line}");
        let json = lss_trace::chrome::parse_json(line).map_err(|e| format!("run {i}: {e}"))?;
        if let Some(lss_trace::chrome::Json::Obj(metrics)) = json.get("metrics") {
            for (name, v) in metrics {
                let value = v.get("value").and_then(|x| x.as_num()).unwrap_or(f64::NAN);
                let unit = v
                    .get("unit")
                    .and_then(|x| x.as_str())
                    .unwrap_or("")
                    .to_string();
                match values.iter_mut().find(|(n, _, _)| n == name) {
                    Some((_, _, vs)) => vs.push(value),
                    None => values.push((name.clone(), unit, vec![value])),
                }
            }
        }
    }
    println!(
        "{:<40} {:>14} {:>14} {:>14} {:>8}  unit",
        "metric", "q1", "median", "q3", "iqr/med"
    );
    for (name, unit, vs) in &values {
        if vs.len() < 2 {
            println!("{name:<40} {:>14} {:>14.6} {:>14}  {unit}", "", vs[0], "");
            continue;
        }
        let (q1, q2, q3) = quartiles(vs);
        let spread = if q2 != 0.0 { (q3 - q1) / q2 } else { 0.0 };
        println!("{name:<40} {q1:>14.6} {q2:>14.6} {q3:>14.6} {spread:>8.4}  {unit}");
    }
    Ok(())
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("lss-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(n) = opts.repeat {
        return match repeat(&opts, n) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("lss-perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let mut spans = Spans::new(opts.trace, process_start);
    let mut out = if opts.trace {
        run_traced(&opts, &mut spans)
    } else {
        run_untraced(&opts, process_start, &mut spans)
    };
    let expected = if opts.trace { PER_LAYER } else { END_TO_END };
    let names = out.metrics.names();
    for want in expected {
        if !names.contains(want) {
            out.errors
                .push(format!("metric {want} could not be measured"));
        }
    }
    if let Some(extra) = names.iter().find(|n| !expected.contains(n)) {
        out.errors.push(format!("metric {extra} is not declared"));
    }
    if opts.trace {
        for (layer, (n, total, own)) in spans.summary() {
            eprintln!("span {layer:<14} {n:>6} calls {total:>10.4} s total {own:>10.4} s self");
        }
        let path = util::out_dir().join(format!("spans-{}-{}.jsonl", opts.workload, opts.seed));
        if let Err(e) = spans.write(&path) {
            eprintln!("lss-perfbench: writing {}: {e}", path.display());
        }
    }
    for e in &out.errors {
        eprintln!("CHECK FAILED: {e}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.errors.is_empty(),
        out.tally.attempted,
        out.tally.failed,
        out.metrics.to_json()
    );
    ExitCode::SUCCESS
}
