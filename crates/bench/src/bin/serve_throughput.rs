//! Serving-layer throughput: one `lss-serve` service, a fixed worker
//! pool, and a stream of jobs. For each (concurrency, batch size)
//! point the harness measures jobs/sec and the p50/p99 of per-job
//! latency (submit to retire, from the service's own `JobStatus`
//! clock), plus scheduling round trips — the number batched grants
//! exist to cut. A second sweep runs the same service over real
//! loopback TCP (the epoll reactor front end) at 16 and 256 jobs, plus
//! a connection-scaling curve. Results land in
//! `results/BENCH_serve.json`.
//!
//! ```sh
//! cargo run --release -p lss-bench --bin serve_throughput
//! ```

use lss_bench::experiments::{quick_mode, write_artifact};
use lss_core::SchemeKind;
use lss_runtime::protocol::serve::{JobSpec, WorkloadSpec};
use lss_serve::{
    run_serve_worker, serve, serve_tcp, ServeClient, ServeConfig, ServeWorkerConfig, TcpLink,
};

const WORKERS: usize = 8;

struct Point {
    concurrency: usize,
    batch_k: usize,
    jobs: usize,
    wall_s: f64,
    latencies_ms: Vec<f64>,
    requests: u64,
    grants: u64,
}

fn percentile(sorted_ms: &[f64], p: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let idx = ((p / 100.0) * (sorted_ms.len() - 1) as f64).round() as usize;
    sorted_ms[idx.min(sorted_ms.len() - 1)]
}

fn run_point(concurrency: usize, batch_k: usize, jobs: usize, iters: u64) -> Point {
    let mut cfg = ServeConfig::new(WORKERS);
    cfg.max_active = concurrency;
    cfg.queue_capacity = jobs + 1;
    cfg.batch_k = batch_k;
    let handle = serve(cfg);
    let worker_threads: Vec<_> = (0..WORKERS)
        .map(|w| {
            let mut link = handle.worker_link(w);
            std::thread::spawn(move || {
                run_serve_worker(&mut link, &ServeWorkerConfig::healthy(w))
                    .expect("worker loop failed")
            })
        })
        .collect();
    let started = std::time::Instant::now();
    let mut client = handle.client();
    for i in 0..jobs {
        let spec = JobSpec {
            workload: WorkloadSpec::Uniform { iters, cost: 40 },
            scheme: SchemeKind::Dtss,
            priority: 1 + (i % 4) as u32,
        };
        client.submit(spec).expect("submit");
    }
    client.drain().expect("drain");
    drop(client);
    let report = handle.join();
    let wall_s = started.elapsed().as_secs_f64();
    for t in worker_threads {
        t.join().expect("worker thread");
    }
    assert_eq!(report.jobs_completed as usize, jobs, "all jobs must retire");
    let mut latencies_ms: Vec<f64> = report
        .jobs
        .iter()
        .map(|j| {
            let fin = j.finished_ns.expect("job finished");
            (fin - j.submitted_ns) as f64 / 1e6
        })
        .collect();
    latencies_ms.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    Point {
        concurrency,
        batch_k,
        jobs,
        wall_s,
        latencies_ms,
        requests: report.requests_served,
        grants: report.grants_sent,
    }
}

/// One (connections, jobs) point over real loopback TCP: `conns`
/// workers each dial the service on its own socket, `jobs` uniform
/// jobs stream through, and the figure of merit is retired jobs per
/// second of wall clock.
fn run_tcp_point(conns: usize, jobs: usize, iters: u64) -> f64 {
    let mut cfg = ServeConfig::new(conns);
    cfg.max_active = 4;
    cfg.batch_k = 4;
    cfg.queue_capacity = jobs + 1;
    let handle = serve_tcp(cfg, "127.0.0.1", 0).expect("serve over tcp");
    let addr = handle.addr.expect("tcp service has an address");
    let worker_threads: Vec<_> = (0..conns)
        .map(|w| {
            std::thread::spawn(move || {
                let mut link = TcpLink::connect(addr).expect("worker dial");
                run_serve_worker(&mut link, &ServeWorkerConfig::healthy(w))
                    .expect("worker loop failed")
            })
        })
        .collect();
    let started = std::time::Instant::now();
    let mut client = ServeClient::connect(addr).expect("client dial");
    for i in 0..jobs {
        let spec = JobSpec {
            workload: WorkloadSpec::Uniform { iters, cost: 40 },
            scheme: SchemeKind::Dtss,
            priority: 1 + (i % 4) as u32,
        };
        client.submit(spec).expect("submit");
    }
    client.drain().expect("drain");
    drop(client);
    let report = handle.join();
    let wall_s = started.elapsed().as_secs_f64();
    for t in worker_threads {
        t.join().expect("worker thread");
    }
    assert_eq!(report.jobs_completed as usize, jobs, "all jobs must retire");
    jobs as f64 / wall_s
}

/// Best-of-`n` throughput, so one unlucky scheduler quantum does not
/// decide a point.
fn best_tcp(conns: usize, jobs: usize, iters: u64, n: usize) -> f64 {
    (0..n).map(|_| run_tcp_point(conns, jobs, iters)).fold(0.0, f64::max)
}

fn main() {
    let (jobs, iters) = if quick_mode() { (8, 2_000) } else { (32, 20_000) };
    let mut points = Vec::new();
    println!(
        "{:>11} {:>7} {:>9} {:>9} {:>9} {:>9} {:>11}",
        "concurrency", "batch_k", "jobs/s", "p50(ms)", "p99(ms)", "requests", "req/grant"
    );
    for concurrency in [1usize, 4, 16] {
        for batch_k in [1usize, 4] {
            let p = run_point(concurrency, batch_k, jobs, iters);
            println!(
                "{:>11} {:>7} {:>9.2} {:>9.2} {:>9.2} {:>9} {:>11.3}",
                p.concurrency,
                p.batch_k,
                p.jobs as f64 / p.wall_s,
                percentile(&p.latencies_ms, 50.0),
                percentile(&p.latencies_ms, 99.0),
                p.requests,
                p.requests as f64 / p.grants as f64,
            );
            points.push(p);
        }
    }

    // The service over real TCP: the 16-job point, the 256-job
    // sustained point, then a connection-scaling curve.
    let (tcp_iters, reps) = if quick_mode() { (1_000, 2) } else { (5_000, 3) };
    println!("\n{:>9} {:>6} {:>6} {:>14}", "tcp", "conns", "jobs", "evented j/s");
    let mut tcp_points = Vec::new();
    for jobs in [16usize, 256] {
        let evented = best_tcp(WORKERS, jobs, tcp_iters, reps);
        println!("{:>9} {:>6} {:>6} {:>14.2}", "jobs", WORKERS, jobs, evented);
        tcp_points.push((jobs, evented));
    }
    let conn_counts: &[usize] = if quick_mode() { &[2, 8] } else { &[2, 8, 16, 32] };
    let scaling_jobs = 64usize;
    let mut scaling = Vec::new();
    for &conns in conn_counts {
        let evented = run_tcp_point(conns, scaling_jobs, tcp_iters);
        println!("{:>9} {:>6} {:>6} {:>14.2}", "scaling", conns, scaling_jobs, evented);
        scaling.push((conns, evented));
    }

    let mut json = String::from("{\n");
    json.push_str("  \"bench\": \"serve_throughput\",\n");
    json.push_str(&format!("  \"workers\": {WORKERS},\n"));
    json.push_str(&format!("  \"jobs_per_point\": {jobs},\n"));
    json.push_str(&format!("  \"iterations_per_job\": {iters},\n"));
    json.push_str("  \"scheme\": \"dtss\",\n");
    json.push_str("  \"tcp_backends\": {\n");
    json.push_str(&format!("    \"iterations_per_job\": {tcp_iters},\n"));
    for (jobs, evented) in &tcp_points {
        json.push_str(&format!(
            "    \"jobs_{jobs}\": {{\"evented_jobs_per_sec\": {evented:.3}}},\n"
        ));
    }
    json.push_str("    \"connection_scaling\": [\n");
    for (i, (conns, evented)) in scaling.iter().enumerate() {
        json.push_str(&format!(
            "      {{\"connections\": {conns}, \"jobs\": {scaling_jobs}, \
             \"evented_jobs_per_sec\": {evented:.3}}}{}\n",
            if i + 1 < scaling.len() { "," } else { "" },
        ));
    }
    json.push_str("    ]\n  },\n");
    json.push_str("  \"points\": [\n");
    for (i, p) in points.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"concurrency\": {}, \"batch_k\": {}, \"jobs_per_sec\": {:.3}, \
             \"latency_p50_ms\": {:.3}, \"latency_p99_ms\": {:.3}, \
             \"requests\": {}, \"grants\": {}, \"requests_per_grant\": {:.4}}}{}\n",
            p.concurrency,
            p.batch_k,
            p.jobs as f64 / p.wall_s,
            percentile(&p.latencies_ms, 50.0),
            percentile(&p.latencies_ms, 99.0),
            p.requests,
            p.grants,
            p.requests as f64 / p.grants as f64,
            if i + 1 < points.len() { "," } else { "" },
        ));
    }
    json.push_str("  ]\n}\n");
    write_artifact("BENCH_serve.json", json.as_bytes());
}
