//! The untraced, timed runs behind the end-to-end metrics.
//!
//! One closed-loop client makes passes over the workload until
//! `--seconds` have passed. Each pass sets every kernel up from scratch
//! (caches start empty, as in the paper) and runs it on the plain
//! interpreter. On the kernel workloads it then runs the accelerated
//! system on the same input, alternating which of the two goes first; on
//! `table2_sweep` it runs the kernel's slice of the grid through
//! `run_sweep`. Only `Machine::run`, `System::run` and `run_sweep` are
//! timed, with no probe attached.
//!
//! Every kernel's job starts with the host-speed reference work
//! ([`crate::calib`]) on one thread and, before `run_sweep`, on as many
//! threads as the sweep's workers; its host times are taken in reference
//! seconds. A host time is the median of those samples, taken per kernel
//! and summed over kernels. Simulated totals are exact and must repeat on
//! every pass.

use crate::calib::{reference_work, to_reference};
use crate::kernel::{timed, Kernel};
use crate::metrics::{median, peak_rss_mb, Metrics, Tally};
use crate::plan::Plan;
use dim_sweep::{run_sweep, SweepOptions, SweepSpec};
use std::time::Instant;

/// Fewest passes a run makes, however short `--seconds` is.
const MIN_PASSES: usize = 3;

/// Exact totals of one kernel's job: the same on every pass.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct Exact {
    /// Instructions the interpreter run retired.
    interp_insts: u64,
    /// Instructions the accelerated runs retired (pipeline plus array).
    insts: u64,
    /// Simulated cycles of the accelerated runs on the plain pipeline.
    base_cycles: u64,
    /// Simulated cycles of the accelerated runs.
    accel_cycles: u64,
    /// Accelerated runs (sweep cells) completed and validated.
    cells: u64,
}

/// Host-time samples of one kernel's job, one per completed pass, in
/// seconds.
#[derive(Debug, Default, Clone)]
pub(crate) struct Job {
    /// Reference work done on one thread just before the job.
    reference: Vec<f64>,
    /// Reference work done just before the job on as many threads as
    /// its accelerated call uses.
    pool_reference: Vec<f64>,
    /// Set-up: build, seed, prove, load, `System::new`, install.
    setup: Vec<f64>,
    /// `Machine::run`.
    interp: Vec<f64>,
    /// `System::run`, or `run_sweep` over the kernel's cells.
    pub(crate) accel: Vec<f64>,
    /// The whole job, set-up to validation.
    wall: Vec<f64>,
    exact: Option<Exact>,
}

/// Median of `samples` in reference seconds, each scaled by the
/// reference work done next to it.
fn reference_median(samples: &[f64], reference: &[f64]) -> f64 {
    let scaled: Vec<f64> = samples
        .iter()
        .zip(reference)
        .map(|(&s, &r)| to_reference(s, r))
        .collect();
    median(&scaled)
}

impl Job {
    fn record(&mut self, exact: Exact, name: &str, tally: &mut Tally) {
        match self.exact {
            None => self.exact = Some(exact),
            Some(first) => tally.check(first == exact, || {
                format!("{name}: simulated totals differ between passes")
            }),
        }
    }
}

/// Runs `plan` for `seconds` and returns its end-to-end metrics.
pub fn run(plan: &Plan, seconds: f64, tally: &mut Tally) -> Metrics {
    let start = Instant::now();
    let mut jobs = vec![Job::default(); plan.kernels.len()];
    let mut passes = 0;
    while passes < MIN_PASSES || start.elapsed().as_secs_f64() < seconds {
        pass(plan, passes, &mut jobs, tally);
        passes += 1;
    }
    let reference: Vec<f64> = jobs
        .iter()
        .flat_map(|j| j.reference.iter().copied())
        .collect();
    eprintln!(
        "perfbench: {passes} passes; reference work took {:.3} ms (median), {:.3} ms on the reference host",
        median(&reference) * 1e3,
        crate::calib::REFERENCE_S * 1e3
    );
    end_to_end(plan, &jobs)
}

/// One pass over the plan's kernels, appending a sample per kernel to
/// `jobs`.
pub(crate) fn pass(plan: &Plan, pass: usize, jobs: &mut [Job], tally: &mut Tally) {
    for (k, (name, job)) in plan.kernels.iter().zip(jobs.iter_mut()).enumerate() {
        let reference = reference_work(1);
        let pool_reference = if plan.sweeps.is_empty() {
            reference
        } else {
            reference_work(plan.workers)
        };
        let job_start = Instant::now();
        let ((kernel, system), setup) = timed(|| {
            let kernel = Kernel::prepare(name, plan);
            let system = kernel.system(plan.config);
            (kernel, system)
        });
        let mut system = match system {
            Ok(system) => system,
            Err(e) => {
                tally.run(name, Err(e));
                continue;
            }
        };
        let mut interp = system.machine().clone();
        let max = kernel.built.max_steps;
        let (exact, itime, atime) = if let Some(sweep) = plan.sweeps.get(k) {
            let (halt, itime) = timed(|| interp.run(max));
            if !tally.run(&format!("{name} interpreter"), kernel.check(halt, &interp)) {
                continue;
            }
            let dir = plan.scratch.join(format!("sweep-{name}"));
            let Some((cells, accel_cycles, secs)) =
                sweep_cells(sweep, &dir, plan.workers, interp.stats.cycles, tally)
            else {
                continue;
            };
            // An accelerated run is architecturally the plain run, so each
            // cell retires the interpreter's instruction count.
            let exact = Exact {
                interp_insts: interp.stats.instructions,
                insts: cells * interp.stats.instructions,
                base_cycles: cells * interp.stats.cycles,
                accel_cycles,
                cells,
            };
            (exact, itime, secs)
        } else {
            let ((ihalt, itime), (ahalt, atime)) = if (pass + k).is_multiple_of(2) {
                let i = timed(|| interp.run(max));
                (i, timed(|| system.run(max)))
            } else {
                let a = timed(|| system.run(max));
                (timed(|| interp.run(max)), a)
            };
            let interp_ok = tally.run(&format!("{name} interpreter"), kernel.check(ihalt, &interp));
            let accel_ok = tally.run(
                &format!("{name} accelerated"),
                kernel.check(ahalt, system.machine()),
            );
            if !(interp_ok && accel_ok) {
                continue;
            }
            tally.check(
                system.total_instructions() == interp.stats.instructions,
                || format!("{name}: accelerated run retired a different instruction count"),
            );
            tally.check(
                system.cycle_breakdown().total() == system.total_cycles(),
                || format!("{name}: cycle attribution does not sum to total cycles"),
            );
            let exact = Exact {
                interp_insts: interp.stats.instructions,
                insts: system.total_instructions(),
                base_cycles: interp.stats.cycles,
                accel_cycles: system.total_cycles(),
                cells: 1,
            };
            (exact, itime, atime)
        };
        job.wall.push(job_start.elapsed().as_secs_f64());
        job.reference.push(reference);
        job.pool_reference.push(pool_reference);
        job.setup.push(setup);
        job.interp.push(itime);
        job.accel.push(atime);
        job.record(exact, name, tally);
    }
}

/// Runs `sweep` into a fresh `dir` with `workers` threads and reads back
/// every cell, whose baseline must be `base_cycles`. Returns the cells
/// read, their accelerated cycles and the seconds `run_sweep` took, or
/// `None` if it failed.
fn sweep_cells(
    sweep: &SweepSpec,
    dir: &std::path::Path,
    workers: usize,
    base_cycles: u64,
    tally: &mut Tally,
) -> Option<(u64, u64, f64)> {
    let _ = std::fs::remove_dir_all(dir);
    let opts = SweepOptions {
        jobs: workers,
        ..SweepOptions::new(dir.to_path_buf())
    };
    let (outcome, secs) = timed(|| run_sweep(sweep, &opts));
    let (mut cells, mut accel_cycles) = (0, 0);
    for cell in sweep.expand() {
        let result = read_cell(dir, &cell.id).and_then(|(base, accel)| {
            if base != base_cycles {
                return Err(format!("baseline {base} cycles, interpreter {base_cycles}"));
            }
            cells += 1;
            accel_cycles += accel;
            Ok(())
        });
        tally.run(&format!("cell {}", cell.id), result);
    }
    let _ = std::fs::remove_dir_all(dir);
    match outcome {
        Ok(_) => Some((cells, accel_cycles, secs)),
        Err(e) => {
            tally.problems.push(format!("run_sweep: {e}"));
            None
        }
    }
}

/// `(baseline_cycles, accel_cycles)` of one finished sweep cell.
fn read_cell(dir: &std::path::Path, id: &str) -> Result<(u64, u64), String> {
    let path = dir.join("cells").join(format!("{id}.json"));
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let value = dim_obs::parse_json(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let field = |k: &str| {
        value
            .get(k)
            .and_then(dim_obs::JsonValue::as_u64)
            .ok_or_else(|| format!("{}: no `{k}`", path.display()))
    };
    Ok((field("baseline_cycles")?, field("accel_cycles")?))
}

fn end_to_end(plan: &Plan, jobs: &[Job]) -> Metrics {
    // Single-threaded calls are scaled by the one-thread reference work,
    // `run_sweep` by the work done on all its worker threads.
    let time = |f: &dyn Fn(&Job) -> &[f64]| {
        jobs.iter()
            .map(|j| reference_median(f(j), &j.reference))
            .sum::<f64>()
    };
    let pool_time = |f: &dyn Fn(&Job) -> &[f64]| {
        jobs.iter()
            .map(|j| reference_median(f(j), &j.pool_reference))
            .sum::<f64>()
    };
    let exact = |f: &dyn Fn(&Exact) -> u64| {
        jobs.iter()
            .map(|j| j.exact.as_ref().map_or(0, f))
            .sum::<u64>()
    };
    let accel = pool_time(&|j| &j.accel);
    let accel_mips = exact(&|e| e.insts) as f64 / accel / 1e6;
    let interp_mips = exact(&|e| e.interp_insts) as f64 / time(&|j| &j.interp) / 1e6;
    // A sweep's cells complete inside `run_sweep`; a direct job completes
    // one accelerated run per kernel, set-up and interpreter run included.
    let cells_time = if plan.sweeps.is_empty() {
        time(&|j| &j.wall)
    } else {
        accel
    };
    let mut m = Metrics::default();
    m.put("accel_mips", accel_mips, "MIPS");
    m.put("interp_mips", interp_mips, "MIPS");
    m.ratio(
        "accel_vs_interp",
        accel_mips,
        interp_mips,
        "x",
        "interp_mips",
    );
    m.put(
        "cells_per_s",
        exact(&|e| e.cells) as f64 / cells_time,
        "1/s",
    );
    m.put("setup_s", time(&|j| &j.setup), "s");
    let accel_cycles = exact(&|e| e.accel_cycles);
    m.put("sim_cycles", accel_cycles as f64, "cycles");
    m.ratio(
        "speedup",
        exact(&|e| e.base_cycles) as f64,
        accel_cycles as f64,
        "x",
        "sim_cycles",
    );
    m.put("peak_rss_mb", peak_rss_mb(), "MiB");
    m
}
