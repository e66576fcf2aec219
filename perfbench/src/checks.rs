//! Correctness checks run on every benchmark run. Each is a pure
//! function of what the program returned, so the tests below can feed
//! it corrupted input and show that it fails.

use std::collections::BTreeMap;

use lss_runtime::protocol::serve::{JobState, JobStatus};
use lss_scenario::sweep::CellMetrics;
use lss_serve::RecoveredState;

/// The paper's domain and escape cap, restated here so the reference
/// does not come from the code under test.
const X_RANGE: (f64, f64) = (-2.0, 1.25);
const Y_RANGE: (f64, f64) = (-1.25, 1.25);
const MAX_ITER: u32 = 64;

/// The benchmark's own escape-time loop: the checksum of one column,
/// folded the way the workload documents it (`acc·31 + count`).
pub fn reference_column(width: u32, height: u32, col: u32) -> u64 {
    let step = |lo: f64, hi: f64, i: u32, n: u32| {
        if n > 1 {
            lo + (hi - lo) * f64::from(i) / f64::from(n - 1)
        } else {
            lo
        }
    };
    let cx = step(X_RANGE.0, X_RANGE.1, col, width);
    let mut acc = 0u64;
    for row in 0..height {
        let cy = step(Y_RANGE.0, Y_RANGE.1, row, height);
        let (mut x, mut y, mut n) = (0.0f64, 0.0f64, 0u32);
        while n < MAX_ITER {
            let (x2, y2) = (x * x, y * y);
            if x2 + y2 > 4.0 {
                break;
            }
            y = 2.0 * x * y + cy;
            x = x2 - y2 + cx;
            n += 1;
        }
        acc = acc.wrapping_mul(31).wrapping_add(u64::from(n));
    }
    acc
}

/// The `S_f` reordering (§2.1): residue 0 first, then residue 1, … —
/// entry `j` is the original column scheduled at position `j`.
pub fn sampled_columns(width: u32, sf: u32) -> Vec<u32> {
    (0..sf)
        .flat_map(|r| (r..width).step_by(sf as usize))
        .collect()
}

/// Expected result of every loop position, computed sequentially.
pub fn reference_checksums(width: u32, height: u32, sf: u32) -> Vec<u64> {
    sampled_columns(width, sf)
        .into_iter()
        .map(|c| reference_column(width, height, c))
        .collect()
}

/// Every iteration's checksum equals the reference one.
pub fn check_loop_results(results: &[u64], reference: &[u64]) -> Result<(), String> {
    if results.len() != reference.len() {
        return Err(format!(
            "{} results for {} iterations",
            results.len(),
            reference.len()
        ));
    }
    match results.iter().zip(reference).position(|(a, b)| a != b) {
        None => Ok(()),
        Some(j) => Err(format!(
            "iteration {j}: checksum {:#x}, reference {:#x}",
            results[j], reference[j]
        )),
    }
}

/// The iterations the workers executed equal the loop size plus what
/// the master dropped as duplicates (each dropped report re-executed
/// at least one iteration; with none dropped the counts are equal).
pub fn check_execution_accounting(
    executed: u64,
    total: u64,
    duplicate_reports: u64,
) -> Result<(), String> {
    let ok = if duplicate_reports == 0 {
        executed == total
    } else {
        executed >= total + duplicate_reports
    };
    if ok {
        Ok(())
    } else {
        Err(format!(
            "workers executed {executed} iterations for a loop of {total} with \
             {duplicate_reports} duplicate reports dropped"
        ))
    }
}

/// `chunks` (start, len) cover `[0, total)` exactly once.
pub fn check_tiling(chunks: &[(u64, u64)], total: u64) -> Result<(), String> {
    let mut sorted = chunks.to_vec();
    sorted.sort_unstable();
    let mut next = 0u64;
    for &(start, len) in &sorted {
        if start != next {
            return Err(if start < next {
                format!("iterations {start}..{next} completed twice")
            } else {
                format!("iterations {next}..{start} never completed")
            });
        }
        next = start + len;
    }
    if next != total {
        return Err(format!("completions end at {next}, loop has {total}"));
    }
    Ok(())
}

/// Every generated job (id → loop size) ended `Done` with
/// `completed == total == size`, and the daemon's Σ`completed` equals
/// the Σ of the sizes the benchmark generated.
pub fn check_jobs(statuses: &[JobStatus], generated: &BTreeMap<u64, u64>) -> Result<(), String> {
    let by_id: BTreeMap<u64, &JobStatus> = statuses.iter().map(|s| (s.job, s)).collect();
    for (&id, &size) in generated {
        let s = by_id
            .get(&id)
            .ok_or(format!("job {id} missing from the job table"))?;
        if s.state != JobState::Done {
            return Err(format!("job {id} ended {:?}", s.state));
        }
        if s.total != size || s.completed != size {
            return Err(format!(
                "job {id}: {} of {} completed, {size} submitted",
                s.completed, s.total
            ));
        }
    }
    let done: u64 = generated.keys().map(|id| by_id[id].completed).sum();
    let want: u64 = generated.values().sum();
    if done != want {
        return Err(format!(
            "daemon completed {done} iterations, benchmark submitted {want}"
        ));
    }
    Ok(())
}

/// The workers executed at least every submitted iteration.
pub fn check_worker_iterations(executed: u64, submitted: u64) -> Result<(), String> {
    if executed >= submitted {
        Ok(())
    } else {
        Err(format!(
            "workers executed {executed} iterations, {submitted} were submitted"
        ))
    }
}

/// A journal reopened after the daemon exits holds no unfinished job,
/// and would hand out ids above every one already used.
pub fn check_journal(state: &RecoveredState, max_id: u64) -> Result<(), String> {
    if let Some(job) = state.jobs.first() {
        return Err(format!(
            "journal recovered {} unfinished jobs (first: job {})",
            state.jobs.len(),
            job.id
        ));
    }
    if state.next_job <= max_id {
        return Err(format!(
            "journal next_job {} does not exceed job id {max_id}",
            state.next_job
        ));
    }
    Ok(())
}

/// No schedule finishes faster than the whole loop's work spread over
/// every PE's speed.
pub fn check_makespan(makespan_s: f64, total_work: f64, speed_sum: f64) -> Result<(), String> {
    let bound = total_work / speed_sum;
    if makespan_s >= bound {
        Ok(())
    } else {
        Err(format!(
            "makespan {makespan_s} s is below the work bound {bound} s"
        ))
    }
}

/// Every crash the scenario scripts shows up in the fault log.
pub fn check_fault_events(events: u64, crash_members: u64) -> Result<(), String> {
    if events >= crash_members {
        Ok(())
    } else {
        Err(format!(
            "{events} fault events for {crash_members} scripted crashes"
        ))
    }
}

/// Two executions of one cell with one seed agree bit for bit.
pub fn check_identical(a: &CellMetrics, b: &CellMetrics) -> Result<(), String> {
    let bits = |m: &CellMetrics| {
        (
            m.makespan_s.to_bits(),
            m.cov.to_bits(),
            m.tcom_share.to_bits(),
            m.steps,
            m.plans,
            m.fault_events,
        )
    };
    if bits(a) == bits(b) {
        Ok(())
    } else {
        Err(format!("same seed, different metrics: {a:?} vs {b:?}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lss_core::{Chunk, SchemeKind};
    use lss_runtime::protocol::serve::{JobSpec, WorkloadSpec};
    use lss_serve::{Journal, JournalConfig};
    use lss_workloads::{Mandelbrot, MandelbrotParams, SampledWorkload, Workload};

    #[test]
    fn reference_agrees_with_the_program_and_catches_a_flipped_checksum() {
        let (w, h) = (64, 40);
        let reference = reference_checksums(w, h, 4);
        let program =
            SampledWorkload::new(Mandelbrot::new(MandelbrotParams::paper_domain(w, h)), 4);
        let results: Vec<u64> = (0..u64::from(w)).map(|j| program.execute(j)).collect();
        assert_eq!(check_loop_results(&results, &reference), Ok(()));

        let mut corrupted = results.clone();
        corrupted[17] ^= 1;
        assert!(check_loop_results(&corrupted, &reference).is_err());
        assert!(check_loop_results(&results[1..], &reference).is_err());
    }

    #[test]
    fn accounting_and_tiling_catch_lost_or_doubled_work() {
        assert_eq!(check_execution_accounting(100, 100, 0), Ok(()));
        assert!(check_execution_accounting(99, 100, 0).is_err());
        assert!(check_execution_accounting(101, 100, 0).is_err());
        assert_eq!(check_execution_accounting(110, 100, 1), Ok(()));

        assert_eq!(check_tiling(&[(5, 5), (0, 5)], 10), Ok(()));
        assert!(check_tiling(&[(0, 5), (4, 6)], 10).is_err());
        assert!(check_tiling(&[(0, 5), (6, 4)], 10).is_err());
        assert!(check_tiling(&[(0, 5)], 10).is_err());
    }

    fn status(job: u64, total: u64, completed: u64, state: JobState) -> JobStatus {
        JobStatus {
            job,
            priority: 1,
            total,
            completed,
            state,
            submitted_ns: 0,
            finished_ns: Some(1),
        }
    }

    #[test]
    fn a_job_one_iteration_short_fails() {
        let generated: BTreeMap<u64, u64> = [(1, 100), (2, 50)].into_iter().collect();
        let good = vec![
            status(1, 100, 100, JobState::Done),
            status(2, 50, 50, JobState::Done),
        ];
        assert_eq!(check_jobs(&good, &generated), Ok(()));

        let short = vec![
            status(1, 100, 99, JobState::Done),
            status(2, 50, 50, JobState::Done),
        ];
        assert!(check_jobs(&short, &generated).is_err());
        let open = vec![
            status(1, 100, 100, JobState::Done),
            status(2, 50, 50, JobState::Active),
        ];
        assert!(check_jobs(&open, &generated).is_err());
        assert!(check_jobs(&good[..1], &generated).is_err());

        assert_eq!(check_worker_iterations(150, 150), Ok(()));
        assert!(check_worker_iterations(149, 150).is_err());
    }

    #[test]
    fn a_journal_holding_an_unfinished_job_fails() {
        let dir = crate::util::out_dir().join(format!("test-journal-{}", std::process::id()));
        let spec = JobSpec {
            workload: WorkloadSpec::Uniform { iters: 10, cost: 1 },
            scheme: SchemeKind::Dtss,
            priority: 1,
        };
        {
            let (mut j, _) = Journal::open(&JournalConfig::fresh(&dir)).unwrap();
            j.append_admit(1, 0, &spec).unwrap();
            j.append_complete(1, Chunk::new(0, 10)).unwrap();
            j.append_finish(1).unwrap();
            j.append_admit(2, 0, &spec).unwrap();
            j.append_complete(2, Chunk::new(0, 9)).unwrap();
        }
        let (_, unfinished) = Journal::open(&JournalConfig::recover(&dir)).unwrap();
        assert!(check_journal(&unfinished, 2).is_err());

        {
            let (mut j, _) = Journal::open(&JournalConfig::fresh(&dir)).unwrap();
            j.append_admit(1, 0, &spec).unwrap();
            j.append_complete(1, Chunk::new(0, 10)).unwrap();
            j.append_finish(1).unwrap();
        }
        let (_, clean) = Journal::open(&JournalConfig::recover(&dir)).unwrap();
        assert_eq!(check_journal(&clean, 1), Ok(()));
        assert!(check_journal(&clean, clean.next_job).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_makespan_below_the_work_bound_fails() {
        assert_eq!(check_makespan(2.0, 100.0, 50.0), Ok(()));
        assert!(check_makespan(1.99, 100.0, 50.0).is_err());
        assert_eq!(check_fault_events(200, 200), Ok(()));
        assert!(check_fault_events(199, 200).is_err());

        let m = CellMetrics {
            makespan_s: 1.0,
            cov: 0.1,
            tcom_share: 0.2,
            steps: 9,
            plans: 1,
            fault_events: 3,
        };
        assert_eq!(check_identical(&m, &m.clone()), Ok(()));
        let drifted = CellMetrics {
            makespan_s: 1.0 + f64::EPSILON,
            ..m
        };
        assert!(check_identical(&m, &drifted).is_err());
    }
}
