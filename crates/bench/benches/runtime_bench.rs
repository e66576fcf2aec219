//! Benchmarks the real threaded runtime: end-to-end scheduled loops
//! over channels and TCP, plus the raw Mandelbrot column kernel the
//! workers execute.

use std::sync::Arc;

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use lss_core::master::SchemeKind;
use lss_runtime::harness::{run_scheduled_loop, HarnessConfig, Transport};
use lss_workloads::{Mandelbrot, MandelbrotParams, UniformLoop, Workload};

fn bench_end_to_end(c: &mut Criterion) {
    let w = Arc::new(UniformLoop::new(400, 2_000));
    let mut g = c.benchmark_group("runtime_end_to_end");
    g.sample_size(10);
    for scheme in [SchemeKind::Tss, SchemeKind::Tfss, SchemeKind::Dtss] {
        g.bench_function(format!("channels_{}", scheme.name()), |b| {
            b.iter(|| {
                let cfg = HarnessConfig::paper_mix(scheme, 2, 2);
                run_scheduled_loop(&cfg, Arc::clone(&w)).report.t_p
            })
        });
    }
    g.bench_function("tcp_TFSS", |b| {
        b.iter(|| {
            let mut cfg = HarnessConfig::paper_mix(SchemeKind::Tfss, 2, 0);
            cfg.transport = Transport::TcpEvented;
            run_scheduled_loop(&cfg, Arc::clone(&w)).report.t_p
        })
    });
    g.finish();
}

fn bench_mandelbrot_kernel(c: &mut Criterion) {
    let m = Mandelbrot::new(MandelbrotParams::paper_domain(256, 256));
    c.bench_function("mandelbrot_column", |b| {
        b.iter(|| m.execute(black_box(128)))
    });
    c.bench_function("mandelbrot_cost_profile_256", |b| {
        b.iter(|| Mandelbrot::new(MandelbrotParams::paper_domain(256, 64)).total_cost())
    });
}

criterion_group!(benches, bench_end_to_end, bench_mandelbrot_kernel);
criterion_main!(benches);
