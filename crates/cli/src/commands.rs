//! The `lss` subcommands, factored for testability: every command
//! returns its output as a `String` (plus an exit-worthy error).

use std::sync::Arc;

use lss_core::master::{Assignment, Master, MasterConfig, SchemeKind};
use lss_core::power::{AcpConfig, VirtualPower};
use lss_metrics::table::TextTable;
use lss_runtime::harness::{run_scheduled_loop, HarnessConfig, Transport, WorkerSpec};
use lss_runtime::load::LoadState;
use lss_runtime::master::run_resilient_master;
use lss_runtime::protocol::Request;
use lss_runtime::transport::tcp::{tcp_listen_on, TcpWorker};
use lss_runtime::worker::{run_worker, WorkerConfig};
use lss_scenario::{run_sweep, validate_sweep_json, Scenario, SweepSpec};
use lss_sim::{
    simulate, simulate_sharded, simulate_traced, simulate_tree, ClusterSpec, LoadTrace,
    ShardSimConfig, SimConfig, TreeSimConfig,
};
use lss_workloads::{Mandelbrot, MandelbrotParams, SampledWorkload, UniformLoop, Workload};

use crate::args::{ArgError, Args};

/// Top-level usage text.
pub const USAGE: &str = "\
lss — loop self-scheduling for heterogeneous clusters (CLUSTER 2001)

USAGE:
  lss chunks <scheme> [--iters I] [--pes p | --powers a,b,c]
      Print the chunk sequence a scheme dispenses.
  lss simulate <scheme> [--width W] [--height H] [--sf S] [--fast F]
      [--slow S] [--nondedicated] [--seed N] [--scenario FILE]
      [--shards N [--self-sched]]
      Simulate a Mandelbrot run on the paper's cluster model, or — with
      --scenario — on a declarative .scn cluster (see scenarios/): node
      groups, speed distributions, load traces, churn and net faults.
      --shards N switches to the sharded-master grant model (N
      work-stealing grant servers); --self-sched additionally lets
      workers self-calculate fresh chunks from the replicated formula.
      (`lss sim` is an alias.)
  lss sweep --scenarios a.scn,b.scn --schemes s1,s2 [--iters-per-pe N]
      [--cost C] [--threads T] [--seed S] [--out FILE] [--md FILE]
      Run every scheme × scenario cell of the grid across threads with
      per-cell deterministic seeds; print a markdown comparison table
      (makespan, computation CoV, T_com share). --out writes the
      byte-stable SWEEP json artifact, --md the table.
  lss sweep --validate FILE
      Check that FILE is a well-formed lss-sweep-v1 artifact.
  lss run <scheme> [--width W] [--height H] [--sf S] [--fast F] [--slow S]
      [--tcp]
      Execute the loop for real on emulated-heterogeneous threads
      (--tcp: over loopback TCP instead of in-process channels).
  lss master --port P --workers N <scheme> [--width W] [--height H] [--sf S]
      Host the master for N separate worker *processes* over TCP; every
      worker connection is served by one epoll reactor thread.
  lss worker --connect HOST:PORT --id I [--slowdown K] [--width W]
      [--height H] [--sf S]
      Join a master as worker I (workload flags must match the master's).
  lss predict <scheme> [--iters I] [--pes p]
      Closed-form prediction: scheduling steps, chunk statistics.
  lss trace [--scheme S] [--workload mandelbrot|uniform] [--out FILE]
      [--format chrome|prom|summary] [--runtime] [--tcp] [--nondedicated]
      [--fast F] [--slow S] [--width W] [--height H] [--sf S] [--seed N]
      Record a run's chunk-lifecycle timeline (simulator by default,
      --runtime/--tcp for a real threaded run) and export it as a
      Chrome/Perfetto trace.json, Prometheus text, or an ASCII summary.
  lss trace --validate FILE
      Check that FILE is a well-formed Chrome trace.
  lss verify [--all | --certify | --explore | --lint] [--iters I]
      [--pes p] [--interleavings N] [--json FILE]
      Static verification: certify every scheme's chunk algebra over a
      bounded domain (default I<=4096, p<=16), explore bounded fault
      interleavings of the lease protocol, and run the repo lint rules.
      Default is --all. --json writes machine-readable certificates.
  lss verify --serve [--quick] [--histories H] [--interleavings N]
      [--inputs F] [--json [FILE]]
      Model-check the serve layer: enumerate journal crash points (torn
      tails, truncations, bit flips at every record and byte boundary)
      against a reference replay, explore bounded serve-scheduler
      interleavings (admit/grant/complete/strike/quarantine/canary/
      crash/recover) driving the real MultiJobScheduler, and fuzz the
      protocol frame and journal decoders with seeded structured
      mutations. --crash-points / --serve-explore / --fuzz run a single
      engine; --quick shrinks every grid for CI. --json FILE writes the
      combined machine-readable report; bare --json prints it.
  lss serve [--port P] [--workers N] [--local-workers] [--batch K]
      [--queue-cap Q] [--max-active M] [--jobs-limit J] [--trace-out FILE]
      [--journal DIR | --recover DIR] [--no-quarantine]
      Run the multi-job scheduling service over TCP: clients submit loop
      jobs (lss submit), the service fair-shares the worker pool across
      them by priority. --local-workers attaches N loopback worker
      threads; --jobs-limit exits after J completed jobs (otherwise
      `lss jobs --drain` stops it once work retires). --journal DIR
      writes a durable job journal (WAL + checkpoints); --recover DIR
      replays one after a crash, re-admitting unfinished jobs with only
      their un-completed iterations. --no-quarantine disables straggler
      quarantine (on by default). Every connection is multiplexed onto
      one epoll reactor thread.
  lss submit <scheme> --connect HOST:PORT [--priority W] [--count N]
      [--iters I --cost C | --width W --height H --sf S] [--wait]
      Submit N copies of a job (uniform loop when --iters is given,
      Mandelbrot otherwise). --wait polls until they finish and prints
      per-job latency.
  lss jobs --connect HOST:PORT [--drain]
      List the service's job table; --drain asks it to finish up & exit.
  lss schemes
      List every supported scheme name.

SCHEMES:
  s ss css:<k> gss gss:<k> tss fss fiss:<sigma> tfss wf
  dtss dfss dfiss:<sigma> dtfss trees trees-weighted
";

/// Parses a scheme name like `css:16` or `dtss`.
pub fn parse_scheme(s: &str) -> Result<SchemeKind, ArgError> {
    let (name, param) = match s.split_once(':') {
        Some((n, p)) => (n, Some(p)),
        None => (s, None),
    };
    let num = |default: u64| -> Result<u64, ArgError> {
        match param {
            None => Ok(default),
            Some(p) => p
                .parse()
                .map_err(|_| ArgError(format!("invalid scheme parameter {p:?}"))),
        }
    };
    Ok(match name {
        "s" => SchemeKind::Static,
        "ss" => SchemeKind::Pure,
        "css" => SchemeKind::Css { k: num(1)?.max(1) },
        "gss" => SchemeKind::Gss { min_chunk: num(1)?.max(1) },
        "tss" => SchemeKind::Tss,
        "fss" => SchemeKind::Fss,
        "fiss" => SchemeKind::Fiss { sigma: num(3)?.max(2) as u32 },
        "tfss" => SchemeKind::Tfss,
        "wf" => SchemeKind::Wf,
        "dtss" => SchemeKind::Dtss,
        "dfss" => SchemeKind::Dfss,
        "dfiss" => SchemeKind::Dfiss { sigma: num(3)?.max(2) as u32 },
        "dtfss" => SchemeKind::Dtfss,
        other => return Err(ArgError(format!("unknown scheme {other:?}; try `lss schemes`"))),
    })
}

/// `lss schemes`
pub fn cmd_schemes() -> String {
    let mut out = String::from("scheme  distributed  description\n");
    let rows: &[(&str, &str)] = &[
        ("s", "static equal blocks"),
        ("ss", "pure self-scheduling (chunk = 1)"),
        ("css:<k>", "fixed chunk size k"),
        ("gss[:k]", "guided: ceil(R/p), optional minimum k"),
        ("tss", "trapezoid: linear decrease"),
        ("fss", "factoring: stages of half-the-remaining"),
        ("fiss:<sigma>", "fixed increase over sigma stages"),
        ("tfss", "trapezoid factoring (the paper's new scheme)"),
        ("wf", "weighted factoring (static weights)"),
        ("dtss", "distributed TSS (ACP-aware)"),
        ("dfss", "distributed FSS"),
        ("dfiss:<sigma>", "distributed FISS"),
        ("dtfss", "distributed TFSS (the paper's new scheme)"),
        ("trees[-weighted]", "tree scheduling (simulate only)"),
    ];
    for (name, desc) in rows {
        out.push_str(&format!(
            "{name:18} {:11} {desc}\n",
            if name.starts_with('d') { "yes" } else { "no" }
        ));
    }
    out
}

/// `lss chunks <scheme> ...`
pub fn cmd_chunks(args: &Args) -> Result<String, ArgError> {
    let scheme_name = args
        .positional
        .first()
        .ok_or_else(|| ArgError("chunks: missing <scheme>".into()))?;
    let scheme = parse_scheme(scheme_name)?;
    let total: u64 = args.get_or("iters", 1000)?;
    let powers: Vec<VirtualPower> = match args.get_f64_list("powers")? {
        Some(list) => list.into_iter().map(VirtualPower::new).collect(),
        None => vec![VirtualPower::new(1.0); args.get_or("pes", 4usize)?],
    };
    let p = powers.len();
    if p == 0 {
        return Err(ArgError("need at least one PE (--pes ≥ 1 or a non-empty --powers)".into()));
    }
    let mut master = Master::new(MasterConfig {
        scheme,
        total,
        powers,
        initial_q: vec![1; p],
        acp: AcpConfig::PAPER,
    });
    let mut out = format!("{} over {total} iterations on {p} PEs:\n", scheme.name());
    let mut sizes = Vec::new();
    let mut per_pe = vec![0u64; p];
    let mut w = 0usize;
    loop {
        match master.handle_request(w % p, 1) {
            Assignment::Chunk(c) => {
                sizes.push(c.len.to_string());
                per_pe[w % p] += c.len;
            }
            Assignment::Retry => {}
            Assignment::Finished => break,
        }
        w += 1;
    }
    out.push_str(&sizes.join(" "));
    out.push('\n');
    out.push_str(&format!("scheduling steps: {}\n", sizes.len()));
    for (i, n) in per_pe.iter().enumerate() {
        out.push_str(&format!("PE{}: {n} iterations\n", i + 1));
    }
    Ok(out)
}

fn workload_from(
    args: &Args,
    default_width: u32,
    default_height: u32,
) -> Result<SampledWorkload<Mandelbrot>, ArgError> {
    let width: u32 = args.get_or("width", default_width)?;
    let height: u32 = args.get_or("height", default_height)?;
    let sf: u64 = args.get_or("sf", 4)?;
    if width == 0 || height == 0 {
        return Err(ArgError("window must be non-empty".into()));
    }
    Ok(SampledWorkload::new(
        Mandelbrot::new(MandelbrotParams::paper_domain(width, height)),
        sf.max(1),
    ))
}

/// `lss simulate <scheme> ...` (alias: `lss sim`)
pub fn cmd_simulate(args: &Args) -> Result<String, ArgError> {
    let scheme_name = args
        .positional
        .first()
        .ok_or_else(|| ArgError("simulate: missing <scheme>".into()))?;
    if let Some(path) = args.get("scenario") {
        if args.has("shards") {
            return Err(ArgError(
                "--shards conflicts with --scenario (the sharded model has no scenario knobs yet)"
                    .into(),
            ));
        }
        return simulate_scenario(args, scheme_name, path);
    }
    if args.has("shards") {
        return simulate_shards(args, scheme_name);
    }
    let fast: usize = args.get_or("fast", 3)?;
    let slow: usize = args.get_or("slow", 5)?;
    let p = fast + slow;
    if p == 0 {
        return Err(ArgError("need at least one slave".into()));
    }
    let workload = workload_from(args, 1200, 600)?;
    let cluster = ClusterSpec::paper_mix(fast, slow);
    let mut traces = vec![LoadTrace::dedicated(); p];
    if args.has("nondedicated") {
        traces[0] = LoadTrace::paper_overloaded();
        for t in traces.iter_mut().take((p / 2 + 1).min(p)).skip(p / 2) {
            *t = LoadTrace::paper_overloaded();
        }
    }
    let report = match scheme_name.as_str() {
        "trees" | "trees-weighted" => {
            let cfg = TreeSimConfig::new(cluster, scheme_name == "trees-weighted");
            simulate_tree(&cfg, &workload, &traces)
        }
        other => {
            let scheme = parse_scheme(other)?;
            let seed: u64 = args.get_or("seed", 0)?;
            let cfg = SimConfig::new(cluster, scheme)
                .with_jitter(lss_sim::SimTime::from_millis(20), seed);
            simulate(&cfg, &workload, &traces)
        }
    };
    Ok(render_report(&report, workload.len(), workload.total_cost()))
}

/// `lss simulate <scheme> --shards N [--self-sched]`: the sharded-
/// master grant model of `lss-shard`, isolating the grant ceiling
/// (N work-stealing grant servers, optional worker-side chunk
/// self-calculation from the replicated formula).
fn simulate_shards(args: &Args, scheme_name: &str) -> Result<String, ArgError> {
    if args.has("nondedicated") {
        return Err(ArgError(
            "--nondedicated is not modeled by --shards (use per-worker slowdowns via --fast/--slow)"
                .into(),
        ));
    }
    let shards: usize = args.get_or("shards", 1)?;
    if shards == 0 {
        return Err(ArgError("--shards must be at least 1".into()));
    }
    let scheme = parse_scheme(scheme_name)?;
    let fast: usize = args.get_or("fast", 3)?;
    let slow: usize = args.get_or("slow", 5)?;
    let p = fast + slow;
    if p == 0 {
        return Err(ArgError("need at least one slave".into()));
    }
    let workload = workload_from(args, 1200, 600)?;
    if scheme.formula_sizer(workload.len(), p as u32).is_none() {
        return Err(ArgError(format!(
            "{} has no closed-form chunk formula; sharding needs one (pick a replicable scheme)",
            scheme.name()
        )));
    }
    let mut cfg = ShardSimConfig::new(scheme, shards, p);
    // Paper mix: UltraSPARC 10 vs UltraSPARC 1 is roughly 1 : 1/3.
    for s in cfg.slowdowns.iter_mut().skip(fast) {
        *s = 3;
    }
    if args.has("self-sched") {
        cfg = cfg.self_sched();
    }
    let report = simulate_sharded(&cfg, &workload);
    let mut out = format!(
        "scheme {} | {} iterations | {p} workers ({fast} fast + {slow} slow) | {shards} shard{} | {} grant path\n",
        scheme.name(),
        workload.len(),
        if shards == 1 { "" } else { "s" },
        if args.has("self-sched") { "self-calculated" } else { "leased" },
    );
    out.push_str(&format!(
        "T_p = {:.3} s | shard requests = {} | self-grants = {} | steals = {} | duplicates = {}\n",
        report.makespan_ns as f64 / 1e9,
        report.requests,
        report.self_grants,
        report.steals,
        report.duplicates,
    ));
    for (i, n) in report.per_worker_iters.iter().enumerate() {
        out.push_str(&format!("PE{}: {n} iterations\n", i + 1));
    }
    Ok(out)
}

/// `lss simulate <scheme> --scenario FILE`: the cluster, load traces
/// and fault plans all come from the scenario; the paper-cluster flags
/// therefore conflict with it.
fn simulate_scenario(args: &Args, scheme_name: &str, path: &str) -> Result<String, ArgError> {
    for flag in ["fast", "slow", "nondedicated"] {
        if args.has(flag) {
            return Err(ArgError(format!(
                "--{flag} conflicts with --scenario (the scenario defines the cluster)"
            )));
        }
    }
    let scenario =
        Scenario::load(std::path::Path::new(path)).map_err(|e| ArgError(format!("{e}")))?;
    let compiled = scenario.compile();
    let workload = workload_from(args, 1200, 600)?;
    let report = match scheme_name {
        // Tree scheduling cannot honor churn/fault knobs: surface the
        // typed UnsupportedKnob instead of silently dropping them.
        "trees" | "trees-weighted" => {
            let cfg = compiled
                .tree_config(scheme_name == "trees-weighted")
                .map_err(|e| ArgError(format!("{path}: {e}")))?;
            simulate_tree(&cfg, &workload, &compiled.traces)
        }
        other => {
            let scheme = parse_scheme(other)?;
            let seed: u64 = args.get_or("seed", compiled.seed)?;
            let cfg = SimConfig::new(compiled.cluster.clone(), scheme)
                .with_jitter(lss_sim::SimTime::from_millis(20), seed)
                .with_faults(compiled.faults.clone());
            simulate(&cfg, &workload, &compiled.traces)
        }
    };
    let mut out = format!(
        "scenario {} ({} workers) from {path}\n",
        compiled.name,
        compiled.workers()
    );
    if compiled.workers() <= 32 {
        out.push_str(&render_report(&report, workload.len(), workload.total_cost()));
    } else {
        // A 10k-row per-PE table helps nobody; aggregate instead.
        let tcom: f64 = report.per_pe.iter().map(|b| b.t_com).sum();
        let total: f64 = report
            .per_pe
            .iter()
            .map(|b| b.t_com + b.t_wait + b.t_comp)
            .sum();
        out.push_str(&format!(
            "scheme {} | {} iterations | total cost {}\n\
             T_p = {:.3} s | steps = {} | comp imbalance = {:.3} | T_com share = {:.1}% | faults = {}\n",
            report.scheme,
            workload.len(),
            workload.total_cost(),
            report.t_p,
            report.scheduling_steps,
            report.comp_imbalance(),
            if total > 0.0 { 100.0 * tcom / total } else { 0.0 },
            report.faults.len(),
        ));
    }
    Ok(out)
}

/// `lss run <scheme> ...`
pub fn cmd_run(args: &Args) -> Result<String, ArgError> {
    let scheme_name = args
        .positional
        .first()
        .ok_or_else(|| ArgError("run: missing <scheme>".into()))?;
    let scheme = parse_scheme(scheme_name)?;
    let fast: usize = args.get_or("fast", 1)?;
    let slow: usize = args.get_or("slow", 2)?;
    if fast + slow == 0 {
        return Err(ArgError("need at least one worker".into()));
    }
    // Smaller default window for real execution than for simulation.
    let workload = Arc::new(workload_from(args, 600, 300)?);
    let mut cfg = HarnessConfig::paper_mix(scheme, fast, slow);
    if args.has("tcp") {
        cfg.transport = Transport::TcpEvented;
    }
    if let Some(q) = args.get("overload-worker0") {
        let q: u32 = q
            .parse()
            .map_err(|_| ArgError(format!("invalid --overload-worker0 {q:?}")))?;
        cfg.workers[0] = WorkerSpec {
            load: LoadState::with_q(q),
            ..cfg.workers[0].clone()
        };
    }
    let out = run_scheduled_loop(&cfg, Arc::clone(&workload));
    Ok(render_report(
        &out.report,
        workload.len(),
        workload.total_cost(),
    ))
}

fn render_report(report: &lss_metrics::RunReport, iters: u64, cost: u64) -> String {
    let mut t = TextTable::new(vec![
        "PE".into(),
        "T_com".into(),
        "T_wait".into(),
        "T_comp".into(),
        "iterations".into(),
    ]);
    for (i, (b, n)) in report.per_pe.iter().zip(&report.iterations).enumerate() {
        t.push_row(vec![
            format!("{}", i + 1),
            format!("{:.2}", b.t_com),
            format!("{:.2}", b.t_wait),
            format!("{:.2}", b.t_comp),
            n.to_string(),
        ]);
    }
    format!(
        "scheme {} | {iters} iterations | total cost {cost}\n{}\nT_p = {:.3} s | steps = {} | comp imbalance = {:.3}\n",
        report.scheme,
        t.render(),
        report.t_p,
        report.scheduling_steps,
        report.comp_imbalance()
    )
}

/// `lss sweep ...` — scheme-family × scenario grid through the
/// simulator, with per-cell deterministic seeds and a byte-stable
/// JSON artifact.
pub fn cmd_sweep(args: &Args) -> Result<String, ArgError> {
    if let Some(path) = args.get("validate") {
        let text = std::fs::read_to_string(path)
            .map_err(|e| ArgError(format!("cannot read {path}: {e}")))?;
        let cells = validate_sweep_json(&text).map_err(|e| ArgError(format!("{path}: {e}")))?;
        return Ok(format!("{path}: valid lss-sweep-v1 artifact, {cells} cells\n"));
    }
    let schemes: Vec<String> = args
        .get("schemes")
        .ok_or_else(|| ArgError("sweep: missing --schemes s1,s2,... (try `lss schemes`)".into()))?
        .split(',')
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .collect();
    let scenario_paths = args
        .get("scenarios")
        .ok_or_else(|| ArgError("sweep: missing --scenarios a.scn,b.scn,...".into()))?;
    let mut scenarios = Vec::new();
    for p in scenario_paths.split(',') {
        let p = p.trim();
        if p.is_empty() {
            continue;
        }
        scenarios
            .push(Scenario::load(std::path::Path::new(p)).map_err(|e| ArgError(format!("{e}")))?);
    }
    let mut spec = SweepSpec::new(schemes, scenarios);
    spec.iters_per_pe = args.get_or("iters-per-pe", spec.iters_per_pe)?;
    spec.unit_cost = args.get_or("cost", spec.unit_cost)?;
    spec.threads = args.get_or("threads", spec.threads)?;
    spec.base_seed = args.get_or("seed", spec.base_seed)?;
    let report = run_sweep(&spec).map_err(ArgError)?;
    let mut out = report.to_markdown();
    if let Some(path) = args.get("out") {
        std::fs::write(path, report.to_json())
            .map_err(|e| ArgError(format!("cannot write {path}: {e}")))?;
        out.push_str(&format!("\nwrote {path}\n"));
    }
    if let Some(path) = args.get("md") {
        std::fs::write(path, report.to_markdown())
            .map_err(|e| ArgError(format!("cannot write {path}: {e}")))?;
        out.push_str(&format!("wrote {path}\n"));
    }
    Ok(out)
}

/// `lss predict ...` — closed-form scheme analysis, no simulation.
pub fn cmd_predict(args: &Args) -> Result<String, ArgError> {
    use lss_core::analysis::{chunk_stats, predicted_steps};
    let scheme_name = args
        .positional
        .first()
        .ok_or_else(|| ArgError("predict: missing <scheme>".into()))?;
    let scheme = parse_scheme(scheme_name)?;
    let total: u64 = args.get_or("iters", 1000)?;
    let p: u32 = args.get_or("pes", 8)?;
    if p == 0 {
        return Err(ArgError("need at least one PE".into()));
    }
    let stats = chunk_stats(scheme, total, p);
    let mut out = format!("{} over {total} iterations on {p} PEs:\n", scheme.name());
    out.push_str(&format!(
        "  scheduling steps : {} (master round-trips)\n",
        stats.steps
    ));
    if let Some(n) = predicted_steps(scheme, total, p) {
        out.push_str(&format!("  closed-form steps: {n}\n"));
    }
    out.push_str(&format!(
        "  chunk sizes      : first {}, max {}, last (critical) {}, mean {:.1}\n",
        stats.first, stats.max, stats.last, stats.mean
    ));
    Ok(out)
}

/// `lss master ...` — hosts a TCP master for separate worker processes.
pub fn cmd_master(args: &Args) -> Result<String, ArgError> {
    let scheme_name = args
        .positional
        .first()
        .ok_or_else(|| ArgError("master: missing <scheme>".into()))?;
    let scheme = parse_scheme(scheme_name)?;
    let port: u16 = args.get_or("port", 0)?;
    let n: usize = args.get_or("workers", 2)?;
    if n == 0 {
        return Err(ArgError("need at least one worker".into()));
    }
    let workload = workload_from(args, 600, 300)?;
    let listener =
        tcp_listen_on("127.0.0.1", port).map_err(|e| ArgError(e.to_string()))?;
    eprintln!(
        "master: listening on {} for {n} workers (scheme {}, {} iterations)",
        listener.addr,
        scheme.name(),
        workload.len()
    );
    // Workers' relative speeds are unknown until they connect; treat
    // them as equals (the distributed schemes adapt through reported
    // run-queue lengths regardless).
    let mut master = Master::new(MasterConfig {
        scheme,
        total: workload.len(),
        powers: vec![VirtualPower::new(1.0); n],
        initial_q: vec![1; n],
        acp: AcpConfig::PAPER,
    });
    let transport = listener.accept_workers(n).map_err(|e| ArgError(e.to_string()))?;
    let t0 = std::time::Instant::now();
    let outcome = run_resilient_master(
        transport,
        &mut master,
        std::time::Duration::from_millis(2),
        lss_trace::SharedSink::disabled(),
    )
    .map_err(|e| ArgError(e.to_string()))?;
    let missing = outcome.results.iter().filter(|r| r.is_none()).count();
    let mut out = format!(
        "master: served {} requests in {:.3}s; failed workers {:?}; {} of {} results collected\n",
        outcome.requests_served,
        t0.elapsed().as_secs_f64(),
        outcome.failed_workers,
        outcome.results.len() - missing,
        outcome.results.len(),
    );
    for w in 0..n {
        out.push_str(&format!("  worker {w}: {} iterations\n", master.iterations_served(w)));
    }
    if !outcome.faults.is_empty() {
        out.push_str("fault log:\n");
        out.push_str(&outcome.faults.render());
    }
    Ok(out)
}

/// `lss worker ...` — joins a TCP master as one worker process.
pub fn cmd_worker(args: &Args) -> Result<String, ArgError> {
    let addr: std::net::SocketAddr = args
        .get("connect")
        .ok_or_else(|| ArgError("worker: missing --connect HOST:PORT".into()))?
        .parse()
        .map_err(|e| ArgError(format!("invalid --connect address: {e}")))?;
    let id: usize = args.get_or("id", 0)?;
    let slowdown: u32 = args.get_or("slowdown", 1)?;
    let workload = workload_from(args, 600, 300)?;
    let cfg = WorkerConfig {
        slowdown: slowdown.max(1),
        heartbeat_every: Some(std::time::Duration::from_millis(100)),
        ..WorkerConfig::fast(id)
    };
    let first = Request { worker: id, q: 1, result: None };
    let transport = TcpWorker::connect(addr, first).map_err(|e| ArgError(e.to_string()))?;
    let stats =
        run_worker(transport, &cfg, &workload, true).map_err(|e| ArgError(e.to_string()))?;
    Ok(format!(
        "worker {id}: {} iterations in {} chunks; comp {:.3}s, wait {:.3}s, com {:.3}s\n",
        stats.iterations,
        stats.chunks,
        stats.t_comp.as_secs_f64(),
        stats.t_wait.as_secs_f64(),
        stats.t_com.as_secs_f64(),
    ))
}

/// Records a trace from either engine, keeping the run report for the
/// reconciliation line.
fn record_trace<W: Workload + Send + Sync + 'static>(
    args: &Args,
    scheme: SchemeKind,
    fast: usize,
    slow: usize,
    workload: W,
) -> Result<(lss_metrics::RunReport, lss_trace::Trace), ArgError> {
    if args.has("runtime") || args.has("tcp") {
        let mut cfg = HarnessConfig::paper_mix(scheme, fast, slow).traced();
        if args.has("tcp") {
            cfg.transport = Transport::TcpEvented;
        }
        if args.has("nondedicated") {
            cfg.workers[0] = WorkerSpec {
                load: LoadState::with_q(3),
                ..cfg.workers[0].clone()
            };
        }
        let out = run_scheduled_loop(&cfg, Arc::new(workload));
        let trace = out.trace.expect("harness tracing was enabled");
        Ok((out.report, trace))
    } else {
        let p = fast + slow;
        let cluster = ClusterSpec::paper_mix(fast, slow);
        let mut loads = vec![LoadTrace::dedicated(); p];
        if args.has("nondedicated") {
            loads[0] = LoadTrace::paper_overloaded();
        }
        let seed: u64 = args.get_or("seed", 0)?;
        let cfg = SimConfig::new(cluster, scheme)
            .with_jitter(lss_sim::SimTime::from_millis(20), seed);
        let (report, _spans, trace) = simulate_traced(&cfg, &workload, &loads);
        Ok((report, trace))
    }
}

/// `lss trace ...` — records a run's event timeline and exports it.
pub fn cmd_trace(args: &Args) -> Result<String, ArgError> {
    if let Some(path) = args.get("validate") {
        let json = std::fs::read_to_string(path)
            .map_err(|e| ArgError(format!("cannot read {path}: {e}")))?;
        let n = lss_trace::validate_chrome_trace(&json).map_err(ArgError)?;
        return Ok(format!("{path}: well-formed Chrome trace, {n} events\n"));
    }

    let scheme = parse_scheme(args.get("scheme").unwrap_or("tfss"))?;
    let fast: usize = args.get_or("fast", 2)?;
    let slow: usize = args.get_or("slow", 2)?;
    if fast + slow == 0 {
        return Err(ArgError("need at least one worker".into()));
    }
    let (report, trace) = match args.get("workload").unwrap_or("mandelbrot") {
        "mandelbrot" => {
            let w = workload_from(args, 400, 200)?;
            record_trace(args, scheme, fast, slow, w)?
        }
        "uniform" => {
            let iters: u64 = args.get_or("iters", 1000)?;
            let cost: u64 = args.get_or("cost", 20_000)?;
            record_trace(args, scheme, fast, slow, UniformLoop::new(iters, cost))?
        }
        other => {
            return Err(ArgError(format!(
                "unknown workload {other:?} (expected mandelbrot or uniform)"
            )))
        }
    };

    let format = args.get("format").unwrap_or("chrome");
    let rendered = match format {
        "chrome" => lss_trace::to_chrome_json(&trace),
        "prom" => lss_trace::to_prometheus_text(&trace),
        "summary" => render_trace_summary(&report, &trace),
        other => {
            return Err(ArgError(format!(
                "unknown format {other:?} (expected chrome, prom or summary)"
            )))
        }
    };

    match args.get("out") {
        None => Ok(rendered),
        Some(path) => {
            std::fs::write(path, rendered.as_bytes())
                .map_err(|e| ArgError(format!("cannot write {path}: {e}")))?;
            let mut out = format!(
                "{}: {} events ({} clock, {} dropped) -> {path} [{format}]\n",
                trace.meta.scheme,
                trace.len(),
                trace.meta.clock.label(),
                trace.dropped,
            );
            if format == "chrome" {
                let n = lss_trace::validate_chrome_trace(&rendered).map_err(ArgError)?;
                out.push_str(&format!(
                    "validated: {n} Chrome trace events; open at https://ui.perfetto.dev\n"
                ));
            }
            Ok(out)
        }
    }
}

/// Human-readable trace digest: per-worker lanes, reconciled
/// breakdowns, idle gaps and the critical-path summary.
fn render_trace_summary(report: &lss_metrics::RunReport, trace: &lss_trace::Trace) -> String {
    use lss_metrics::breakdown::TimeBreakdown;
    let mut out = format!(
        "scheme {} | {} workers | {} iterations | {} events ({} clock)\n\n",
        trace.meta.scheme,
        trace.meta.workers,
        trace.meta.total_iterations,
        trace.len(),
        trace.meta.clock.label(),
    );
    out.push_str(&lss_trace::render_gantt(trace, 64));
    out.push('\n');

    let derived = TimeBreakdown::all_from_trace(trace);
    let mut t = TextTable::new(vec![
        "PE".into(),
        "T_com (trace/report)".into(),
        "T_wait (trace/report)".into(),
        "T_comp (trace/report)".into(),
    ]);
    for (i, d) in derived.iter().enumerate() {
        let r = report.per_pe.get(i).copied().unwrap_or_default();
        t.push_row(vec![
            format!("{}", i + 1),
            format!("{:.3}/{:.3}", d.t_com, r.t_com),
            format!("{:.3}/{:.3}", d.t_wait, r.t_wait),
            format!("{:.3}/{:.3}", d.t_comp, r.t_comp),
        ]);
    }
    out.push_str(&t.render());

    let cp = lss_trace::critical_path(trace);
    let imb = lss_trace::imbalance(trace);
    let gaps = lss_trace::idle_gaps(trace);
    let gap_total: u64 = gaps.iter().map(|g| g.dur_ns()).sum();
    out.push_str(&format!(
        "\nmakespan {:.3}s | serialized {:.3}s | busy CoV {:.3} | idle gaps {} ({:.3}s) | speculative {} | requeues {}\n",
        cp.makespan_s,
        cp.serialized_ns as f64 / 1e9,
        imb.cov,
        gaps.len(),
        gap_total as f64 / 1e9,
        cp.speculative_grants,
        cp.requeues,
    ));
    if let Some(s) = &cp.last_span {
        out.push_str(&format!(
            "last span: worker {} chunk {} ({:.3}s..{:.3}s)\n",
            s.worker,
            s.chunk,
            s.start_ns as f64 / 1e9,
            s.end_ns as f64 / 1e9,
        ));
    }
    out
}

/// `lss verify` — runs the static verification engines and renders a
/// human-readable summary (optionally writing JSON certificates).
pub fn cmd_verify(args: &Args) -> Result<String, ArgError> {
    use lss_verify::certify::Domain;
    use lss_verify::explore::ExploreConfig;
    use lss_verify::{CrashConfig, FuzzConfig, ServeExploreConfig};

    let run_crash = args.has("serve") || args.has("crash-points");
    let run_serve_explore = args.has("serve") || args.has("serve-explore");
    let run_fuzz = args.has("serve") || args.has("fuzz");
    let any_serve = run_crash || run_serve_explore || run_fuzz;
    let run_all = args.has("all")
        || !(args.has("certify") || args.has("explore") || args.has("lint") || any_serve);
    let quick = args.has("quick");
    let mut out = String::new();
    let mut failed = false;

    if run_all || args.has("certify") {
        let domain = Domain {
            max_iters: args.get_or("iters", Domain::PAPER.max_iters)?,
            max_p: args.get_or("pes", Domain::PAPER.max_p)?,
        };
        let certs = lss_verify::certify_all(&domain);
        let mut table = TextTable::new(vec![
            "scheme".into(),
            "verdict".into(),
            "configs".into(),
            "chunks".into(),
            "checks".into(),
            "properties".into(),
        ]);
        for cert in &certs {
            failed |= !cert.holds();
            table.push_row(vec![
                cert.scheme.to_string(),
                if cert.holds() { "certified".into() } else { "FAILED".into() },
                cert.configs.to_string(),
                cert.chunks.to_string(),
                cert.total_checks().to_string(),
                cert.properties.len().to_string(),
            ]);
        }
        out.push_str(&format!(
            "Scheme certification over I <= {}, p <= {}:\n{}",
            domain.max_iters,
            domain.max_p,
            table.render()
        ));
        for cert in &certs {
            for prop in &cert.properties {
                if prop.violations > 0 {
                    out.push_str(&format!(
                        "  {} / {}: {} violation(s), e.g. {}\n",
                        cert.scheme,
                        prop.name,
                        prop.violations,
                        prop.samples.first().map_or("<none>", |s| s.as_str())
                    ));
                }
            }
        }
        if let Some(path) = args.get("json") {
            let json = lss_verify::json_certificates(&certs);
            std::fs::write(path, json)
                .map_err(|e| ArgError(format!("cannot write {path}: {e}")))?;
            out.push_str(&format!("certificates written to {path}\n"));
        }
    }

    if run_all || args.has("explore") {
        let mut cfg = ExploreConfig::chaos_default();
        cfg.max_interleavings = args.get_or("interleavings", cfg.max_interleavings)?;
        let report = lss_verify::explore(&cfg);
        failed |= !report.holds();
        out.push_str(&format!(
            "\nInterleaving exploration ({} workers, I = {}, {}):\n  \
             {} schedules explored ({} terminal, {} depth-bounded), \
             {} assertions, {} trace events checked — {}\n",
            cfg.workers,
            cfg.total,
            cfg.scheme.name(),
            report.interleavings,
            report.terminal,
            report.depth_bounded,
            report.checks,
            report.events_checked,
            if report.holds() { "no violations" } else { "VIOLATIONS" },
        ));
        for v in &report.violations {
            out.push_str(&format!("  violation: {v}\n"));
        }
    }

    if run_all || args.has("lint") {
        let root = std::env::current_dir()
            .map_err(|e| ArgError(format!("cannot determine working directory: {e}")))?;
        match lss_verify::lint_repo(&root) {
            Ok(report) => {
                failed |= !report.holds();
                out.push_str(&format!(
                    "\nRepo lint ({}): {}\n",
                    report.rules.join(", "),
                    if report.holds() { "clean" } else { "VIOLATIONS" }
                ));
                for f in &report.findings {
                    out.push_str(&format!("  {f}\n"));
                }
            }
            Err(e) => out.push_str(&format!(
                "\nRepo lint skipped: {e} (run from the repo root to enable)\n"
            )),
        }
    }

    let mut crash_report = None;
    if run_crash {
        let mut cfg = if quick { CrashConfig::quick() } else { CrashConfig::full() };
        cfg.histories = args.get_or("histories", cfg.histories)?;
        let report = lss_verify::enumerate_crash_points(&cfg);
        failed |= !report.holds();
        out.push_str(&format!(
            "\nJournal crash-point enumeration ({} histories, {} records):\n  \
             {} crash points ({} torn tails, {} bit flips), {} assertions — {}\n",
            report.histories,
            report.records,
            report.crash_points,
            report.torn_points,
            report.bit_flips,
            report.checks,
            if report.holds() { "no violations" } else { "VIOLATIONS" },
        ));
        for v in &report.violations {
            out.push_str(&format!("  violation: {v}\n"));
        }
        crash_report = Some(report);
    }

    let mut serve_explore_report = None;
    if run_serve_explore {
        let mut cfg = if quick {
            ServeExploreConfig::quick()
        } else {
            ServeExploreConfig::full()
        };
        cfg.max_interleavings = args.get_or("interleavings", cfg.max_interleavings)?;
        let report = lss_verify::explore_serve(&cfg);
        failed |= !report.holds();
        out.push_str(&format!(
            "\nServe-scheduler interleaving exploration ({} workers, {} jobs):\n  \
             {} schedules explored ({} terminal, {} depth-bounded), \
             {} assertions, {} trace events checked — {}\n",
            cfg.workers,
            cfg.jobs.len(),
            report.interleavings,
            report.terminal,
            report.depth_bounded,
            report.checks,
            report.events_checked,
            if report.holds() { "no violations" } else { "VIOLATIONS" },
        ));
        for v in &report.violations {
            out.push_str(&format!("  violation: {v}\n"));
        }
        serve_explore_report = Some(report);
    }

    let mut fuzz_report = None;
    if run_fuzz {
        let mut cfg = if quick { FuzzConfig::quick() } else { FuzzConfig::full() };
        cfg.inputs = args.get_or("inputs", cfg.inputs)?;
        let report = lss_verify::fuzz_decoders(&cfg);
        failed |= !report.holds();
        out.push_str(&format!(
            "\nProtocol decode fuzzing:\n  {} inputs, {} panics, {} assertions — {}\n",
            report.inputs,
            report.panics,
            report.checks,
            if report.holds() { "no violations" } else { "VIOLATIONS" },
        ));
        for v in &report.violations {
            out.push_str(&format!("  violation: {v}\n"));
        }
        fuzz_report = Some(report);
    }

    if any_serve && args.has("json") {
        let json = match (&crash_report, &serve_explore_report, &fuzz_report) {
            (Some(c), Some(e), Some(f)) => lss_verify::json_serve(c, e, f),
            _ => {
                // A single engine (or subset) was requested: emit just
                // the parts that ran, same shape as the combined form.
                let mut parts = vec![format!("\"holds\": {}", !failed)];
                if let Some(c) = &crash_report {
                    parts.push(format!(
                        "\"crash_points\": {}",
                        lss_verify::json_crash_points(c).trim_end()
                    ));
                }
                if let Some(e) = &serve_explore_report {
                    parts.push(format!(
                        "\"interleavings\": {}",
                        lss_verify::json_serve_explore(e).trim_end()
                    ));
                }
                if let Some(f) = &fuzz_report {
                    parts.push(format!("\"fuzz\": {}", lss_verify::json_fuzz(f).trim_end()));
                }
                format!("{{{}}}\n", parts.join(", "))
            }
        };
        match args.get("json") {
            Some(path) => {
                std::fs::write(path, &json)
                    .map_err(|e| ArgError(format!("cannot write {path}: {e}")))?;
                out.push_str(&format!("serve verification report written to {path}\n"));
            }
            None => out.push_str(&json),
        }
    }

    if failed {
        return Err(ArgError(format!("{out}\nverification FAILED")));
    }
    out.push_str("\nverification OK\n");
    Ok(out)
}

/// Builds a [`WorkloadSpec`] from submit-style flags: a uniform loop
/// when `--iters` is given, the paper's Mandelbrot window otherwise.
fn workload_spec_from(args: &Args) -> Result<lss_runtime::protocol::serve::WorkloadSpec, ArgError> {
    use lss_runtime::protocol::serve::WorkloadSpec;
    if args.has("iters") {
        let iters: u64 = args.get_or("iters", 1000)?;
        let cost: u64 = args.get_or("cost", 20_000)?;
        Ok(WorkloadSpec::Uniform { iters, cost: cost.max(1) })
    } else {
        let width: u32 = args.get_or("width", 400)?;
        let height: u32 = args.get_or("height", 200)?;
        let sf: u64 = args.get_or("sf", 4)?;
        if width == 0 || height == 0 {
            return Err(ArgError("window must be non-empty".into()));
        }
        Ok(WorkloadSpec::Mandelbrot { width, height, sf: sf.max(1) })
    }
}

fn serve_addr_from(args: &Args, cmd: &str) -> Result<std::net::SocketAddr, ArgError> {
    args.get("connect")
        .ok_or_else(|| ArgError(format!("{cmd}: missing --connect HOST:PORT")))?
        .parse()
        .map_err(|e| ArgError(format!("invalid --connect address: {e}")))
}

/// `lss serve ...` — hosts the multi-job scheduling service.
pub fn cmd_serve(args: &Args) -> Result<String, ArgError> {
    use lss_serve::{run_serve_worker, ServeConfig, ServeWorkerConfig, TcpLink};

    let workers: usize = args.get_or("workers", 4)?;
    if workers == 0 {
        return Err(ArgError("need at least one worker".into()));
    }
    let port: u16 = args.get_or("port", 0)?;
    let mut cfg = ServeConfig::new(workers);
    cfg.batch_k = args.get_or("batch", cfg.batch_k)?.max(1);
    cfg.queue_capacity = args.get_or("queue-cap", cfg.queue_capacity)?;
    cfg.max_active = args.get_or("max-active", cfg.max_active)?.max(1);
    if let Some(limit) = args.get("jobs-limit") {
        let n: u64 = limit
            .parse()
            .map_err(|_| ArgError(format!("invalid --jobs-limit {limit:?}")))?;
        cfg.exit_after_jobs = Some(n.max(1));
    }
    let trace_out = args.get("trace-out").map(String::from);
    if trace_out.is_some() {
        cfg.trace = lss_trace::SharedSink::recording();
    }
    match (args.get("journal"), args.get("recover")) {
        (Some(_), Some(_)) => {
            return Err(ArgError("--journal and --recover are mutually exclusive".into()));
        }
        (Some(dir), None) => cfg.journal = Some(lss_serve::JournalConfig::fresh(dir)),
        (None, Some(dir)) => cfg.journal = Some(lss_serve::JournalConfig::recover(dir)),
        (None, None) => {}
    }
    if args.has("no-quarantine") {
        cfg.quarantine = lss_serve::QuarantineConfig::disabled();
    }
    let handle =
        lss_serve::serve_tcp(cfg, "127.0.0.1", port).map_err(|e| ArgError(e.to_string()))?;
    let addr = handle.addr.ok_or_else(|| ArgError("service has no address".into()))?;
    eprintln!("serve: listening on {addr} ({workers} workers)");

    let local: Vec<_> = if args.has("local-workers") {
        (0..workers)
            .map(|w| {
                std::thread::spawn(move || {
                    let mut link = TcpLink::connect(addr)?;
                    run_serve_worker(&mut link, &ServeWorkerConfig::healthy(w))
                })
            })
            .collect()
    } else {
        Vec::new()
    };

    let report = handle.join();
    for t in local {
        t.join()
            .map_err(|_| ArgError("local worker panicked".into()))?
            .map_err(|e| ArgError(e.to_string()))?;
    }

    let mut out = format!(
        "serve: {} jobs completed, {} rejected | {} requests, {} grants, {} replans\n",
        report.jobs_completed,
        report.jobs_rejected,
        report.requests_served,
        report.grants_sent,
        report.replans,
    );
    for job in &report.jobs {
        let latency = job
            .finished_ns
            .map(|f| format!("{:.3}s", f.saturating_sub(job.submitted_ns) as f64 / 1e9))
            .unwrap_or_else(|| "-".into());
        out.push_str(&format!(
            "  job {} [{}] priority {} — {}/{} iterations, latency {latency}\n",
            job.job,
            job.state.label(),
            job.priority,
            job.completed,
            job.total,
        ));
    }
    if let Some(path) = trace_out {
        let trace = report
            .trace
            .ok_or_else(|| ArgError("tracing was enabled but no trace returned".into()))?;
        let json = lss_trace::to_chrome_json(&trace);
        std::fs::write(&path, json.as_bytes())
            .map_err(|e| ArgError(format!("cannot write {path}: {e}")))?;
        out.push_str(&format!(
            "trace: {} events ({} jobs) -> {path}\n",
            trace.len(),
            trace.job_ids().len(),
        ));
    }
    Ok(out)
}

/// `lss submit ...` — submits jobs to a running service.
pub fn cmd_submit(args: &Args) -> Result<String, ArgError> {
    use lss_runtime::protocol::serve::{JobSpec, JobState};
    use lss_serve::ServeClient;

    let addr = serve_addr_from(args, "submit")?;
    let scheme = parse_scheme(args.positional.first().map_or("dtss", |s| s.as_str()))?;
    let priority: u32 = args.get_or("priority", 1)?;
    let count: usize = args.get_or("count", 1)?;
    if count == 0 {
        return Err(ArgError("--count must be at least 1".into()));
    }
    let workload = workload_spec_from(args)?;
    let mut client = ServeClient::connect(addr).map_err(|e| ArgError(e.to_string()))?;
    let mut out = String::new();
    let mut ids = Vec::with_capacity(count);
    for _ in 0..count {
        let spec = JobSpec { workload, scheme, priority };
        let id = client.submit(spec).map_err(|e| ArgError(e.to_string()))?;
        out.push_str(&format!(
            "submitted job {id}: {} x{} iterations, priority {priority}\n",
            scheme.name(),
            workload.len(),
        ));
        ids.push(id);
    }
    if args.has("wait") {
        loop {
            let jobs = match client.jobs() {
                Ok(jobs) => jobs,
                // A service that exits after its job limit closes the
                // link; everything we submitted is done by then.
                Err(lss_serve::ServeError::Transport(_)) => {
                    out.push_str("service exited while waiting (all jobs retired)\n");
                    break;
                }
                Err(e) => return Err(ArgError(e.to_string())),
            };
            let mine: Vec<_> =
                jobs.iter().filter(|j| ids.contains(&j.job)).collect();
            if mine.len() == ids.len() && mine.iter().all(|j| j.state == JobState::Done) {
                for j in mine {
                    out.push_str(&format!(
                        "job {} done: {} iterations in {:.3}s\n",
                        j.job,
                        j.completed,
                        j.finished_ns.unwrap_or(j.submitted_ns).saturating_sub(j.submitted_ns)
                            as f64
                            / 1e9,
                    ));
                }
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
    }
    Ok(out)
}

/// `lss jobs ...` — queries (and optionally drains) a running service.
pub fn cmd_jobs(args: &Args) -> Result<String, ArgError> {
    use lss_serve::ServeClient;

    let addr = serve_addr_from(args, "jobs")?;
    let mut client = ServeClient::connect(addr).map_err(|e| ArgError(e.to_string()))?;
    let jobs = client.jobs().map_err(|e| ArgError(e.to_string()))?;
    let mut t = TextTable::new(vec![
        "job".into(),
        "state".into(),
        "priority".into(),
        "progress".into(),
    ]);
    for j in &jobs {
        t.push_row(vec![
            j.job.to_string(),
            j.state.label().to_string(),
            j.priority.to_string(),
            format!("{}/{}", j.completed, j.total),
        ]);
    }
    let mut out = format!("{} job(s)\n{}", jobs.len(), t.render());
    if args.has("drain") {
        client.drain().map_err(|e| ArgError(e.to_string()))?;
        out.push_str("drain requested: service exits once remaining work retires\n");
    }
    Ok(out)
}

/// Dispatches a parsed command line.
pub fn dispatch(args: &Args) -> Result<String, ArgError> {
    match args.command.as_deref() {
        None | Some("help") => Ok(USAGE.to_string()),
        Some("schemes") => Ok(cmd_schemes()),
        Some("chunks") => cmd_chunks(args),
        Some("simulate") | Some("sim") => cmd_simulate(args),
        Some("sweep") => cmd_sweep(args),
        Some("run") => cmd_run(args),
        Some("master") => cmd_master(args),
        Some("worker") => cmd_worker(args),
        Some("predict") => cmd_predict(args),
        Some("trace") => cmd_trace(args),
        Some("verify") => cmd_verify(args),
        Some("serve") => cmd_serve(args),
        Some("submit") => cmd_submit(args),
        Some("jobs") => cmd_jobs(args),
        Some(other) => Err(ArgError(format!("unknown command {other:?}\n\n{USAGE}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Args {
        Args::parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parse_scheme_all_names() {
        assert_eq!(parse_scheme("tfss").unwrap().name(), "TFSS");
        assert_eq!(parse_scheme("css:32").unwrap(), SchemeKind::Css { k: 32 });
        assert_eq!(parse_scheme("fiss:5").unwrap(), SchemeKind::Fiss { sigma: 5 });
        assert_eq!(parse_scheme("dtss").unwrap(), SchemeKind::Dtss);
        assert!(parse_scheme("bogus").is_err());
        assert!(parse_scheme("css:bogus").is_err());
    }

    #[test]
    fn chunks_command_prints_table1_row() {
        let out = cmd_chunks(&args("chunks tfss --iters 1000 --pes 4")).unwrap();
        assert!(out.contains("113 113 113 113 81 81 81 81"), "{out}");
        assert!(out.contains("scheduling steps: 14"));
    }

    #[test]
    fn chunks_command_with_powers() {
        let out = cmd_chunks(&args("chunks dtss --iters 1000 --powers 2.65,1")).unwrap();
        assert!(out.contains("PE1"));
        assert!(out.contains("PE2"));
    }

    #[test]
    fn chunks_requires_scheme() {
        assert!(cmd_chunks(&args("chunks")).is_err());
    }

    #[test]
    fn simulate_small_run() {
        let out =
            cmd_simulate(&args("simulate dtss --width 200 --height 100 --fast 1 --slow 1"))
                .unwrap();
        assert!(out.contains("T_p ="), "{out}");
        assert!(out.contains("DTSS"));
    }

    #[test]
    fn simulate_sharded_grant_model() {
        let out = cmd_simulate(&args(
            "simulate fss --width 200 --height 100 --fast 2 --slow 2 --shards 4",
        ))
        .unwrap();
        assert!(out.contains("4 shards"), "{out}");
        assert!(out.contains("leased grant path"));
        assert!(out.contains("T_p ="));

        let selfs = cmd_simulate(&args(
            "simulate gss --width 200 --height 100 --fast 2 --slow 2 --shards 2 --self-sched",
        ))
        .unwrap();
        assert!(selfs.contains("self-calculated grant path"), "{selfs}");
        assert!(!selfs.contains("self-grants = 0"), "{selfs}");
    }

    #[test]
    fn simulate_sharded_rejects_bad_combos() {
        assert!(cmd_simulate(&args("simulate wf --shards 2")).is_err());
        assert!(cmd_simulate(&args("simulate fss --shards 0")).is_err());
        assert!(cmd_simulate(&args("simulate fss --shards 2 --nondedicated")).is_err());
        assert!(
            cmd_simulate(&args("simulate fss --shards 2 --scenario scenarios/x.scn")).is_err()
        );
    }

    #[test]
    fn simulate_trees() {
        let out = cmd_simulate(&args(
            "simulate trees-weighted --width 200 --height 100 --fast 1 --slow 1",
        ))
        .unwrap();
        assert!(out.contains("TreeS"), "{out}");
    }

    #[test]
    fn verify_serve_engines_report_clean_json() {
        // Tiny grids: the full-scale run belongs to the release CLI in
        // CI, not the debug-profile unit suite.
        let out = cmd_verify(&args(
            "verify --serve --quick --histories 1 --interleavings 50 --inputs 200 --json",
        ))
        .unwrap();
        assert!(out.contains("Journal crash-point enumeration"), "{out}");
        assert!(out.contains("Serve-scheduler interleaving exploration"));
        assert!(out.contains("Protocol decode fuzzing"));
        assert!(out.contains("\"holds\": true"));
        assert!(out.contains("verification OK"));
        // A single-engine run emits just that engine's section.
        let one = cmd_verify(&args("verify --fuzz --quick --inputs 100 --json")).unwrap();
        assert!(one.contains("\"fuzz\""), "{one}");
        assert!(!one.contains("crash_points"));
    }

    #[test]
    fn run_small_real_execution() {
        let out = cmd_run(&args("run tfss --width 120 --height 60 --fast 1 --slow 1")).unwrap();
        assert!(out.contains("TFSS"), "{out}");
        assert!(out.contains("T_p ="));
    }

    #[test]
    fn master_and_worker_processes_cooperate() {
        // Same code path the real processes use, driven by threads:
        // the master command blocks accepting; two worker commands dial
        // in, compute, and terminate.
        let port = {
            // Grab a free port, then release it for the master command.
            let l = std::net::TcpListener::bind(("127.0.0.1", 0)).unwrap();
            l.local_addr().unwrap().port()
        };
        let margs = args(&format!(
            "master tfss --port {port} --workers 2 --width 120 --height 60"
        ));
        let master = std::thread::spawn(move || cmd_master(&margs).unwrap());
        std::thread::sleep(std::time::Duration::from_millis(100));
        let workers: Vec<_> = (0..2)
            .map(|i| {
                let wargs = args(&format!(
                    "worker --connect 127.0.0.1:{port} --id {i} --slowdown {} --width 120 --height 60",
                    i + 1
                ));
                std::thread::spawn(move || cmd_worker(&wargs).unwrap())
            })
            .collect();
        let mout = master.join().unwrap();
        assert!(mout.contains("120 of 120 results collected"), "{mout}");
        for w in workers {
            let wout = w.join().unwrap();
            assert!(wout.contains("iterations"), "{wout}");
        }
    }

    #[test]
    fn predict_reports_stats() {
        let out = cmd_predict(&args("predict tfss --iters 1000 --pes 4")).unwrap();
        assert!(out.contains("scheduling steps : 14"), "{out}");
        assert!(out.contains("first 113"), "{out}");
        let out = cmd_predict(&args("predict tss --iters 1000 --pes 4")).unwrap();
        assert!(out.contains("closed-form steps: 16"), "{out}");
    }

    #[test]
    fn trace_sim_writes_a_valid_chrome_trace() {
        let dir = std::env::temp_dir().join(format!("lss-trace-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.json");
        let out = cmd_trace(&args(&format!(
            "trace --scheme tfss --workload mandelbrot --width 120 --height 60 --out {}",
            path.display()
        )))
        .unwrap();
        assert!(out.contains("TFSS"), "{out}");
        assert!(out.contains("validated:"), "{out}");
        // The validate mode accepts its own output.
        let check =
            cmd_trace(&args(&format!("trace --validate {}", path.display()))).unwrap();
        assert!(check.contains("well-formed Chrome trace"), "{check}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn trace_summary_reconciles_breakdowns() {
        let out = cmd_trace(&args(
            "trace --scheme gss --workload uniform --iters 200 --cost 10000 --format summary",
        ))
        .unwrap();
        assert!(out.contains("makespan"), "{out}");
        assert!(out.contains("T_com (trace/report)"), "{out}");
        // In the simulator the reconciliation is exact, so the two
        // halves of every cell render identically.
        for line in out.lines().filter(|l| l.contains('/') && l.contains('.')) {
            for cell in line.split_whitespace().filter(|c| c.contains('/')) {
                if let Some((a, b)) = cell.split_once('/') {
                    if a.parse::<f64>().is_ok() && b.parse::<f64>().is_ok() {
                        assert_eq!(a, b, "trace/report cells differ: {cell} in {line}");
                    }
                }
            }
        }
    }

    #[test]
    fn trace_runtime_emits_monotonic_clock() {
        let out = cmd_trace(&args(
            "trace --scheme css:8 --workload uniform --iters 60 --cost 200 --runtime \
             --fast 1 --slow 1 --format prom",
        ))
        .unwrap();
        assert!(out.contains("lss_trace_events_total"), "{out}");
        assert!(out.contains("clock=\"monotonic\"") || out.contains("monotonic"), "{out}");
    }

    #[test]
    fn trace_rejects_bad_flags() {
        assert!(cmd_trace(&args("trace --workload bogus")).is_err());
        assert!(cmd_trace(&args("trace --format bogus")).is_err());
        assert!(cmd_trace(&args("trace --validate /nonexistent/file.json")).is_err());
        assert!(cmd_trace(&args("trace --fast 0 --slow 0")).is_err());
    }

    #[test]
    fn worker_rejects_bad_address() {
        assert!(cmd_worker(&args("worker --connect nonsense --id 0")).is_err());
        assert!(cmd_worker(&args("worker --id 0")).is_err());
    }

    #[test]
    fn serve_submit_jobs_over_loopback_tcp() {
        let port = {
            let l = std::net::TcpListener::bind(("127.0.0.1", 0)).unwrap();
            l.local_addr().unwrap().port()
        };
        let sargs = args(&format!(
            "serve --port {port} --workers 2 --local-workers --jobs-limit 3 --batch 4"
        ));
        let server = std::thread::spawn(move || cmd_serve(&sargs).unwrap());
        std::thread::sleep(std::time::Duration::from_millis(150));
        let sout = cmd_submit(&args(&format!(
            "submit dtss --connect 127.0.0.1:{port} --iters 400 --cost 5 --count 3 --wait"
        )))
        .unwrap();
        assert!(sout.contains("submitted job 1"), "{sout}");
        assert!(sout.contains("submitted job 3"), "{sout}");
        let out = server.join().unwrap();
        assert!(out.contains("3 jobs completed"), "{out}");
        assert!(out.contains("job 1 [done]"), "{out}");
    }

    #[test]
    fn jobs_command_lists_and_drains() {
        let port = {
            let l = std::net::TcpListener::bind(("127.0.0.1", 0)).unwrap();
            l.local_addr().unwrap().port()
        };
        let sargs = args(&format!("serve --port {port} --workers 1 --local-workers"));
        let server = std::thread::spawn(move || cmd_serve(&sargs).unwrap());
        std::thread::sleep(std::time::Duration::from_millis(150));
        let connect = format!("127.0.0.1:{port}");
        cmd_submit(&args(&format!(
            "submit dtss --connect {connect} --iters 2000 --cost 5 --priority 3"
        )))
        .unwrap();
        let jout = cmd_jobs(&args(&format!("jobs --connect {connect}"))).unwrap();
        assert!(jout.contains("1 job(s)"), "{jout}");
        assert!(jout.contains('3'), "{jout}");
        let dout = cmd_jobs(&args(&format!("jobs --connect {connect} --drain"))).unwrap();
        assert!(dout.contains("drain requested"), "{dout}");
        let out = server.join().unwrap();
        assert!(out.contains("1 jobs completed"), "{out}");
    }

    #[test]
    fn submit_rejects_bad_flags() {
        assert!(cmd_submit(&args("submit dtss")).is_err(), "missing --connect");
        assert!(cmd_submit(&args("submit bogus --connect 127.0.0.1:1")).is_err());
        assert!(cmd_jobs(&args("jobs")).is_err(), "missing --connect");
    }

    #[test]
    fn dispatch_help_and_errors() {
        assert!(dispatch(&args("")).unwrap().contains("USAGE"));
        assert!(dispatch(&args("help")).unwrap().contains("USAGE"));
        assert!(dispatch(&args("schemes")).unwrap().contains("tfss"));
        assert!(dispatch(&args("frobnicate")).is_err());
    }
}

#[cfg(test)]
mod edge_tests {
    use super::*;

    fn args(s: &str) -> Args {
        Args::parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn chunks_zero_pes_is_a_clean_error() {
        let e = cmd_chunks(&args("chunks tss --pes 0")).unwrap_err();
        assert!(e.0.contains("at least one PE"), "{e}");
    }

    #[test]
    fn predict_zero_pes_is_a_clean_error() {
        assert!(cmd_predict(&args("predict tss --pes 0")).is_err());
    }
}
