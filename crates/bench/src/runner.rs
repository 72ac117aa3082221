//! Shared experiment runners: baseline vs accelerated runs with output
//! validation, and the standard parameter grid of the paper's Table 2.

use dim_cgra::ArrayShape;
use dim_core::{System, SystemConfig};
use dim_mips_sim::{HaltReason, Machine};
pub use dim_workloads::run_baseline;
use dim_workloads::{validate, BuiltBenchmark, Scale, WorkloadError};

/// The three array configurations of Table 1, by name.
#[allow(clippy::type_complexity)]
pub const SHAPES: [(&str, fn() -> ArrayShape); 3] = [
    ("#1", ArrayShape::config1),
    ("#2", ArrayShape::config2),
    ("#3", ArrayShape::config3),
];

/// The cache-slot axis of Table 2.
pub const CACHE_SLOTS: [usize; 3] = [16, 64, 256];

/// A finished accelerated run with its validated system state.
#[derive(Debug)]
pub struct AcceleratedRun {
    /// The coupled system after the run.
    pub system: System,
    /// Total cycles (processor + array).
    pub cycles: u64,
}

/// Runs the benchmark on the MIPS+DIM+array system and validates that the
/// accelerated run produced byte-identical results.
///
/// # Errors
///
/// Propagates simulation/validation failures.
pub fn run_accelerated(
    built: &BuiltBenchmark,
    config: SystemConfig,
) -> Result<AcceleratedRun, WorkloadError> {
    let mut system = System::new(Machine::load(&built.program), config);
    let halt = system.run(built.max_steps)?;
    check_accelerated(built, system, halt)
}

/// The checks [`run_accelerated`] applies once `System::run` returns
/// `halt`: the program exited within its step budget and produced the
/// reference output. For callers that time the run alone.
///
/// # Errors
///
/// [`WorkloadError::Timeout`] on a step-limit halt, or the validation
/// failure.
pub fn check_accelerated(
    built: &BuiltBenchmark,
    system: System,
    halt: HaltReason,
) -> Result<AcceleratedRun, WorkloadError> {
    match halt {
        HaltReason::StepLimit => {
            return Err(WorkloadError::Timeout {
                max_steps: built.max_steps,
            })
        }
        HaltReason::Exit(_) => {}
    }
    validate(system.machine(), built)?;
    let cycles = system.total_cycles();
    Ok(AcceleratedRun { system, cycles })
}

/// A validated accelerated run plus its region-level forensics.
#[derive(Debug)]
pub struct ExplainedRun {
    /// The run itself.
    pub run: AcceleratedRun,
    /// Per-region lifecycle and cycle attribution; the scalar bucket
    /// plus all region attributions equal [`AcceleratedRun::cycles`]
    /// exactly.
    pub explanation: dim_explain::Explanation,
}

/// Like [`run_accelerated`], but additionally traces the run through an
/// in-memory [`JsonlSink`](dim_obs::JsonlSink) and analyzes the trace
/// into a region-level [`Explanation`](dim_explain::Explanation) —
/// which regions accelerated, which translations were wasted, where
/// misspeculation ate the winnings.
///
/// # Errors
///
/// Propagates simulation/validation failures.
///
/// # Panics
///
/// Panics if the trace the run just wrote fails replay or the region
/// attribution does not conserve the cycle total — both are simulator
/// bugs, not workload conditions.
pub fn run_explained(
    built: &BuiltBenchmark,
    config: SystemConfig,
) -> Result<ExplainedRun, WorkloadError> {
    let mut system = System::new(Machine::load(&built.program), config);
    let mut sink = dim_obs::JsonlSink::new(Vec::new(), built.name, system.stored_bits_per_config());
    match system.run_probed(built.max_steps, &mut sink)? {
        HaltReason::StepLimit => {
            return Err(WorkloadError::Timeout {
                max_steps: built.max_steps,
            })
        }
        HaltReason::Exit(_) => {}
    }
    validate(system.machine(), built)?;
    let cycles = system.total_cycles();
    let (buf, io_error) = sink.into_inner();
    assert!(io_error.is_none(), "in-memory trace write cannot fail");
    let text = String::from_utf8(buf).expect("trace is UTF-8");
    let explanation = dim_explain::explain_text(&text)
        .unwrap_or_else(|e| panic!("self-written trace must replay: {e}"));
    assert_eq!(
        explanation.attributed_total(),
        cycles,
        "region attribution must account for every cycle"
    );
    Ok(ExplainedRun {
        run: AcceleratedRun { system, cycles },
        explanation,
    })
}

/// Computes the speedup of a configuration over the baseline cycle count.
pub fn speedup(baseline_cycles: u64, accelerated_cycles: u64) -> f64 {
    baseline_cycles as f64 / accelerated_cycles.max(1) as f64
}

/// The input scale named by the first process argument (`tiny`, `small`
/// or `full`), or `default` when it names none. Shared by every
/// table/figure binary so they all read the same positional argument.
pub fn scale_from_args(default: Scale) -> Scale {
    std::env::args()
        .nth(1)
        .and_then(|arg| arg.parse().ok())
        .unwrap_or(default)
}

/// Parses `--jobs N` from the process arguments (default 1 = serial).
/// Shared by every harness binary so they all accept the same flag.
pub fn jobs_from_args() -> usize {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == "--jobs")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(1)
}

/// Reports pool utilisation to stderr after a parallel harness run, so
/// the deterministic table on stdout stays clean.
pub fn report_pool(pool: &dim_sweep::PoolStats) {
    if pool.threads > 1 {
        eprintln!(
            "pool: {} workers, {} jobs, {} steals, mean job {:.0}us",
            pool.threads,
            pool.total_executed(),
            pool.total_steals(),
            pool.job_micros.mean()
        );
    }
}

/// One benchmark's full Table 2 row: speedups for every
/// (shape × speculation × cache-slot) point plus the two ideal columns.
#[derive(Debug, Clone)]
pub struct Table2Row {
    /// Benchmark name.
    pub name: &'static str,
    /// Baseline pipeline cycles.
    pub baseline_cycles: u64,
    /// `speedups[shape][spec][slots]` in the order of [`SHAPES`],
    /// `[false, true]`, [`CACHE_SLOTS`].
    pub speedups: [[[f64; 3]; 2]; 3],
    /// Ideal (infinite array + unbounded cache) without speculation.
    pub ideal_no_spec: f64,
    /// Ideal with speculation.
    pub ideal_spec: f64,
}

/// Runs the complete Table 2 grid for one built benchmark.
///
/// # Errors
///
/// Fails if any run diverges from the reference output — the grid is a
/// correctness gauntlet as much as a performance sweep.
pub fn table2_row(built: &BuiltBenchmark) -> Result<Table2Row, WorkloadError> {
    let base = run_baseline(built)?;
    let baseline_cycles = base.stats.cycles;
    let mut speedups = [[[0.0f64; 3]; 2]; 3];
    for (si, (_, shape_fn)) in SHAPES.iter().enumerate() {
        for (pi, spec) in [false, true].into_iter().enumerate() {
            for (ci, slots) in CACHE_SLOTS.into_iter().enumerate() {
                let run = run_accelerated(built, SystemConfig::new(shape_fn(), slots, spec))?;
                speedups[si][pi][ci] = speedup(baseline_cycles, run.cycles);
            }
        }
    }
    let ideal = |spec| -> Result<f64, WorkloadError> {
        let run = run_accelerated(
            built,
            SystemConfig::new(ArrayShape::infinite(), 1 << 20, spec),
        )?;
        Ok(speedup(baseline_cycles, run.cycles))
    };
    Ok(Table2Row {
        name: built.name,
        baseline_cycles,
        speedups,
        ideal_no_spec: ideal(false)?,
        ideal_spec: ideal(true)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dim_workloads::by_name;

    #[test]
    fn accelerated_crc32_is_valid_and_faster() {
        let built = (by_name("crc32").unwrap().build)(Scale::Tiny);
        let base = run_baseline(&built).unwrap();
        let run =
            run_accelerated(&built, SystemConfig::new(ArrayShape::config1(), 64, true)).unwrap();
        assert!(run.cycles < base.stats.cycles);
        assert!(run.system.stats().array_invocations > 0);
    }

    #[test]
    fn explained_run_conserves_cycles_and_finds_regions() {
        let built = (by_name("crc32").unwrap().build)(Scale::Tiny);
        let explained =
            run_explained(&built, SystemConfig::new(ArrayShape::config1(), 64, true)).unwrap();
        let ex = &explained.explanation;
        assert_eq!(ex.attributed_total(), explained.run.cycles);
        assert!(!ex.regions.is_empty(), "accelerated run must have regions");
        assert!(
            ex.regions.iter().any(|r| r.invocations > 0),
            "some region must have executed on the array"
        );
        assert_eq!(ex.schema_version, dim_obs::SCHEMA_VERSION);
    }

    #[test]
    fn speedup_math() {
        assert!((speedup(200, 100) - 2.0).abs() < 1e-12);
        assert!(speedup(100, 0) >= 100.0);
    }
}
