//! Capturing a baseline: run the matrix, collect every metric.

use crate::baseline::{
    Baseline, FabricSummary, HostTelemetry, RcacheCounters, RecordMatrix, RegionSummary,
    WorkloadRecord,
};
use crate::host::{peak_rss_bytes, sim_mips};
use crate::PerfError;
use dim_bench::{check_accelerated, run_baseline, run_explained, speedup};
use dim_cgra::{ArrayShape, ShapeChoice};
use dim_core::{System, SystemConfig};
use dim_mips_sim::Machine;
use dim_workloads::{by_name, Scale, WorkloadError};
use std::time::Instant;

/// How many regions a baseline embeds per workload.
const TOP_REGIONS: usize = 5;

/// What to record and under which system parameters.
#[derive(Debug, Clone)]
pub struct RecordOptions {
    /// Baseline name stamped into the file.
    pub name: String,
    /// Workloads to run, in order.
    pub workloads: Vec<String>,
    /// Input scale (`tiny`, `small`, `full`).
    pub scale: String,
    /// Array shape from Table 1 (1, 2 or 3).
    pub shape: u32,
    /// Reconfiguration-cache slots.
    pub cache_slots: u64,
    /// Branch speculation on/off.
    pub speculation: bool,
    /// Wall-clock repetitions per workload (min-of-N); clamped to >= 1.
    pub host_reps: u32,
}

impl RecordOptions {
    /// Options reconstructed from a stored matrix, so a gate re-records
    /// under exactly the parameters the reference was captured with.
    pub fn from_matrix(name: &str, matrix: &RecordMatrix) -> RecordOptions {
        RecordOptions {
            name: name.to_string(),
            workloads: matrix.workloads.clone(),
            scale: matrix.scale.clone(),
            shape: matrix.shape,
            cache_slots: matrix.cache_slots,
            speculation: matrix.speculation,
            host_reps: matrix.host_reps,
        }
    }

    fn matrix(&self) -> RecordMatrix {
        RecordMatrix {
            workloads: self.workloads.clone(),
            scale: self.scale.clone(),
            shape: self.shape,
            cache_slots: self.cache_slots,
            speculation: self.speculation,
            host_reps: self.host_reps.max(1),
        }
    }

    fn parse_scale(&self) -> Result<Scale, PerfError> {
        self.scale.parse().map_err(PerfError::Parse)
    }

    fn shape(&self) -> Result<ArrayShape, PerfError> {
        u8::try_from(self.shape)
            .ok()
            .and_then(ShapeChoice::table1)
            .map(ShapeChoice::shape)
            .ok_or_else(|| {
                PerfError::Parse(format!(
                    "unknown array shape `{}` (expected 1, 2 or 3)",
                    self.shape
                ))
            })
    }
}

/// Runs the matrix and captures a [`Baseline`].
///
/// The wall clock times `System::run` of `host_reps` plain accelerated
/// runs per workload and keeps the minimum, the standard trick for a
/// low-noise point estimate. Each run's system is built and loaded
/// before the clock starts, and checked and validated after it stops.
/// Simulated metrics come from the first of them (the simulator is
/// deterministic, repetitions cannot change them), plus one traced run
/// that reconstructs the per-region footprint; its reconfiguration
/// cache supplies the rcache counters.
///
/// # Errors
///
/// Fails on unknown workloads/scales/shapes, on a workload listed twice
/// (which [`Baseline::parse`] would reject) before anything runs, and
/// on any workload that does not run and validate — a baseline must
/// only ever hold correct runs.
pub fn record(opts: &RecordOptions) -> Result<Baseline, PerfError> {
    let scale = opts.parse_scale()?;
    let shape = opts.shape()?;
    if opts.workloads.is_empty() {
        return Err(PerfError::Parse("no workloads selected".into()));
    }
    for (i, name) in opts.workloads.iter().enumerate() {
        if opts.workloads[..i].contains(name) {
            return Err(PerfError::Parse(format!("duplicate workload `{name}`")));
        }
    }
    let reps = opts.host_reps.max(1);
    let mut workloads = Vec::new();
    for name in &opts.workloads {
        let spec = by_name(name).ok_or_else(|| PerfError::UnknownWorkload(name.clone()))?;
        let built = (spec.build)(scale);
        let base = run_baseline(&built)?;
        let scalar_cycles = base.stats.cycles;

        let config = SystemConfig::new(shape, opts.cache_slots as usize, opts.speculation);
        let mut first = None;
        let mut wall = Vec::with_capacity(reps as usize);
        for _ in 0..reps {
            let mut system = System::new(Machine::load(&built.program), config);
            let started = Instant::now();
            let halt = system.run(built.max_steps);
            wall.push(started.elapsed().as_nanos() as u64);
            let halt = halt.map_err(WorkloadError::from)?;
            first.get_or_insert(check_accelerated(&built, system, halt)?);
        }
        let run = first.expect("reps >= 1");
        let attribution = run.system.cycle_breakdown();

        let wall_min = wall.iter().copied().min().expect("reps >= 1");
        let wall_mean = wall.iter().sum::<u64>() as f64 / wall.len() as f64;
        let retired = run.system.machine().stats.instructions;

        // One traced run reconstructs the per-region footprint, and its
        // region attribution must account for every cycle. The simulator
        // is deterministic, so it sees exactly the run the metrics above
        // describe. Regions come back sorted by attributed cycles — keep
        // the top few.
        let explained = run_explained(&built, config)?;
        assert_eq!(explained.run.system.stats(), run.system.stats());
        let cache = explained.run.system.cache();
        let (hits, misses) = cache.hit_miss();
        let regions: Vec<RegionSummary> = explained
            .explanation
            .regions
            .iter()
            .take(TOP_REGIONS)
            .map(|r| RegionSummary {
                pc: r.pc,
                len: r.len,
                cycles: r.attributed_cycles(),
                invocations: r.invocations,
                mispredicts: r.mispredicts,
            })
            .collect();
        let heat = run.system.fabric_heat();
        let fabric = Some(FabricSummary {
            alu_busy_thirds: heat.busy_thirds[0],
            alu_capacity_thirds: heat.capacity_thirds[0],
            mult_busy_thirds: heat.busy_thirds[1],
            mult_capacity_thirds: heat.capacity_thirds[1],
            ldst_busy_thirds: heat.busy_thirds[2],
            ldst_capacity_thirds: heat.capacity_thirds[2],
            writeback_writes: heat.writeback_writes,
            writeback_slots: heat.writeback_slots,
        });
        workloads.push(WorkloadRecord {
            name: name.clone(),
            scalar_cycles,
            accel_cycles: run.cycles,
            speedup: speedup(scalar_cycles, run.cycles),
            retired,
            array_invocations: run.system.stats().array_invocations,
            attribution,
            rcache: RcacheCounters {
                hits,
                misses,
                inserts: cache.insertions(),
                evictions: cache.evictions(),
                flushes: cache.flushes(),
            },
            host: HostTelemetry {
                wall_nanos_min: wall_min,
                wall_nanos_mean: wall_mean,
                reps,
                sim_mips: sim_mips(run.system.total_instructions(), wall_min),
                peak_rss_bytes: peak_rss_bytes().unwrap_or(0),
            },
            regions,
            fabric,
        });
    }
    Ok(Baseline {
        schema_version: crate::BASELINE_SCHEMA_VERSION,
        name: opts.name.clone(),
        matrix: opts.matrix(),
        workloads,
    })
}
