//! `sim-churn-10k`: the simulator on one thread over the churn scenario
//! (10,000 simulated workers, crash and disconnect churn, a late-joining
//! group), one sweep cell per distributed scheme. The scenario is the
//! benchmark's own copy, so edits to the repository's `scenarios/` do
//! not change the workload. `BENCHMARK.json` does not gate it (its
//! memory-bound cell time drifts with the shared host; see README.md);
//! it runs by hand and as one round of every traced run.

use std::time::Instant;

use lss_core::SchemeKind;
use lss_scenario::sweep::CellMetrics;
use lss_scenario::{run_sweep, CompiledScenario, Scenario, SweepSpec};

use crate::checks;
use crate::util::{high_quartile, low_quartile, median, Metrics, Spans, Tally};
use crate::{scheme_label, SCHEMES};

pub const SCENARIO: &str = include_str!("../scenario/churn-10k.scn");

struct Cell {
    scheme: SchemeKind,
    wall_s: f64,
    metrics: CellMetrics,
}

#[derive(Default)]
pub struct SimRecord {
    pub tally: Tally,
    pub errors: Vec<String>,
    cells: Vec<Cell>,
    round_s: Vec<f64>,
    compile_ms: f64,
}

pub struct SimBench {
    scenario: Scenario,
    compiled: CompiledScenario,
    base_seed: u64,
}

impl SimBench {
    /// Set-up: parse and compile the scenario.
    pub fn setup(seed: u64, spans: &mut Spans, rec: &mut SimRecord) -> Self {
        let scenario = spans
            .time("lss-scenario", "Scenario::parse", 0, || {
                Scenario::parse(SCENARIO)
            })
            .expect("the benchmark's scenario copy parses");
        let t = Instant::now();
        let compiled = spans.time("lss-scenario", "Scenario::compile", 0, || {
            scenario.compile()
        });
        rec.compile_ms = t.elapsed().as_secs_f64() * 1e3;
        SimBench {
            scenario,
            compiled,
            base_seed: seed,
        }
    }

    fn spec(&self, scheme: SchemeKind) -> SweepSpec {
        let mut spec = SweepSpec::new(
            vec![scheme_label(scheme).to_string()],
            vec![self.scenario.clone()],
        );
        spec.threads = 1;
        spec.base_seed = self.base_seed;
        spec
    }

    /// Runs one cell through the sweep driver.
    fn cell(&self, scheme: SchemeKind, spans: &mut Spans, op: u64) -> Result<CellMetrics, String> {
        let spec = self.spec(scheme);
        let report = spans.time("lss-scenario", "run_sweep", op, || run_sweep(&spec))?;
        match report.cells.into_iter().next() {
            Some(cell) => cell.result,
            None => Err("sweep returned no cell".into()),
        }
    }

    /// One round: a cell per scheme.
    pub fn round(&self, rec: &mut SimRecord, spans: &mut Spans) {
        let t0 = Instant::now();
        for &scheme in SCHEMES {
            let op = rec.tally.attempted;
            rec.tally.attempted += 1;
            let t = Instant::now();
            let res = self.cell(scheme, spans, op);
            let wall_s = t.elapsed().as_secs_f64();
            match res {
                Ok(metrics) => rec.cells.push(Cell {
                    scheme,
                    wall_s,
                    metrics,
                }),
                Err(e) => {
                    rec.tally.failed += 1;
                    rec.errors.push(format!("{}: {e}", scheme.name()));
                }
            }
        }
        rec.round_s.push(t0.elapsed().as_secs_f64());
    }

    /// Every cell ran; makespans respect the work bound; every scripted
    /// crash is in the fault log; and one seed gives bit-identical
    /// metrics (across rounds, or on a re-run when there was one round).
    pub fn check(&self, rec: &mut SimRecord, spans: &mut Spans) {
        let spec = self.spec(SchemeKind::Dtss);
        let p = self.compiled.workers() as u64;
        let total_work = (spec.iters_per_pe * p * spec.unit_cost) as f64;
        let speed_sum: f64 = self.compiled.cluster.slaves.iter().map(|s| s.speed).sum();
        let crashes = self
            .compiled
            .faults
            .iter()
            .filter(|f| f.crash_after_chunks.is_some())
            .count();
        let mut verdicts = Vec::new();
        for c in &rec.cells {
            verdicts.push(checks::check_makespan(
                c.metrics.makespan_s,
                total_work,
                speed_sum,
            ));
            verdicts.push(checks::check_fault_events(
                c.metrics.fault_events,
                crashes as u64,
            ));
        }
        let mut repeated = false;
        for &s in SCHEMES {
            let runs: Vec<&Cell> = rec.cells.iter().filter(|c| c.scheme == s).collect();
            if let [first, rest @ ..] = runs.as_slice() {
                for r in rest {
                    repeated = true;
                    verdicts.push(checks::check_identical(&first.metrics, &r.metrics));
                }
            }
        }
        if !repeated {
            // One round only: re-run the cheapest cell (DFSS) once.
            if let Some(first) = rec.cells.iter().find(|c| c.scheme == SchemeKind::Dfss) {
                let again = self.cell(SchemeKind::Dfss, spans, u64::MAX);
                verdicts.push(again.and_then(|m| checks::check_identical(&first.metrics, &m)));
            }
        }
        rec.errors
            .extend(verdicts.into_iter().filter_map(Result::err));
    }
}

impl SimRecord {
    fn per_scheme(
        &self,
        agg: fn(&[f64]) -> f64,
        f: impl Fn(&Cell) -> f64,
    ) -> Vec<(SchemeKind, f64)> {
        SCHEMES
            .iter()
            .filter_map(|&s| {
                let v: Vec<f64> = self
                    .cells
                    .iter()
                    .filter(|c| c.scheme == s)
                    .map(&f)
                    .collect();
                (!v.is_empty()).then(|| (s, agg(&v)))
            })
            .collect()
    }

    /// End-to-end: wall time per cell and cells per second.
    pub fn end_to_end(&self, m: &mut Metrics) {
        for (s, v) in self.per_scheme(low_quartile, |c| c.wall_s * 1e3) {
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

    pub fn per_layer(&self, m: &mut Metrics) {
        m.put("scenario.compile_ms", self.compile_ms, "ms");
        for (s, v) in self.per_scheme(median, |c| c.wall_s) {
            m.put(format!("sim.cell_s.{}", scheme_label(s)), v, "s");
        }
        let first_round = &self.cells[..self.cells.len().min(SCHEMES.len())];
        let steps: u64 = first_round.iter().map(|c| c.metrics.steps).sum();
        m.put("sim.steps", steps as f64, "count");
        m.put(
            "sim.plans",
            first_round.iter().map(|c| f64::from(c.metrics.plans)).sum(),
            "count",
        );
        m.put(
            "sim.fault_events",
            first_round
                .iter()
                .map(|c| c.metrics.fault_events as f64)
                .sum(),
            "count",
        );
        let wall: f64 = self.cells.iter().map(|c| c.wall_s).sum();
        let all_steps: u64 = self.cells.iter().map(|c| c.metrics.steps).sum();
        m.put(
            "sim.ns_per_step",
            wall * 1e9 / all_steps.max(1) as f64,
            "ns",
        );
    }

    pub fn describe(&self) -> String {
        let cells: Vec<String> = self
            .per_scheme(median, |c| c.wall_s)
            .iter()
            .map(|(s, v)| format!("{}={v:.3}s", scheme_label(*s)))
            .collect();
        let all: Vec<String> = self
            .cells
            .iter()
            .map(|c| format!("{}:{:.3}", scheme_label(c.scheme), c.wall_s))
            .collect();
        format!(
            "sim-churn-10k: {} cells in {} rounds; median cell {}; compile {:.1} ms\n  cells: {}",
            self.cells.len(),
            self.round_s.len(),
            cells.join(" "),
            self.compile_ms,
            all.join(" ")
        )
    }
}
