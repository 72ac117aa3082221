//! The three workloads and everything a run derives from its seed.

use crate::inputs::shuffle;
use dim_cgra::ArrayShape;
use dim_core::SystemConfig;
use dim_sweep::SweepSpec;
use dim_workloads::Scale;
use std::path::PathBuf;

/// The dataflow end of Table 2: one hot loop per kernel, so rcache hits,
/// array replay and accounting dominate host time.
pub const KERNEL_LOOP: [&str; 6] = [
    "crc32",
    "sha",
    "bitcount",
    "gsm_enc",
    "rijndael_enc",
    "rijndael_dec",
];

/// The control-flow end of Table 2. Run against a 4-slot cache, so
/// rcache writes, translator observe and interpreter steps dominate.
pub const CONTROL_CHURN: [&str; 7] = [
    "quicksort",
    "rawaudio_enc",
    "rawaudio_dec",
    "patricia",
    "dijkstra",
    "stringsearch",
    "susan_edges",
];

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Six dataflow kernels at full scale, 64 slots, certificates installed.
    KernelLoop,
    /// Seven control-flow kernels at full scale against a 4-slot cache.
    ControlChurn,
    /// All 18 kernels over the paper's 3 × 2 × 3 grid through `run_sweep`.
    Table2Sweep,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::KernelLoop,
        Workload::ControlChurn,
        Workload::Table2Sweep,
    ];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::KernelLoop => "kernel_loop",
            Workload::ControlChurn => "control_churn",
            Workload::Table2Sweep => "table2_sweep",
        }
    }

    /// Parses a `--workload` value.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Everything one run of the benchmark does, fixed before timing starts.
#[derive(Debug, Clone)]
pub struct Plan {
    /// The workload.
    pub workload: Workload,
    /// The workload seed: it rewrites kernel inputs and orders kernels.
    pub seed: u64,
    /// Input scale of every kernel run.
    pub scale: Scale,
    /// Kernels in the seed's order.
    pub kernels: Vec<&'static str>,
    /// Accelerator setting of the directly driven runs.
    pub config: SystemConfig,
    /// Whether streaming certificates are proven and installed.
    pub certs: bool,
    /// Whether seeded inputs replace the kernels' built-in ones. The
    /// sweep builds its own kernels, so `table2_sweep` keeps them.
    pub seeded: bool,
    /// The grids `run_sweep` executes, one per kernel in the plan's
    /// order (`table2_sweep` only).
    pub sweeps: Vec<SweepSpec>,
    /// Sweep worker threads.
    pub workers: usize,
    /// Directory for sweep output and the span dump.
    pub scratch: PathBuf,
}

impl Plan {
    /// The plan for `workload` under `seed`, writing below `scratch`.
    pub fn new(workload: Workload, seed: u64, scratch: PathBuf) -> Plan {
        let (mut kernels, scale, slots): (Vec<&'static str>, _, _) = match workload {
            Workload::KernelLoop => (KERNEL_LOOP.to_vec(), Scale::Full, 64),
            Workload::ControlChurn => (CONTROL_CHURN.to_vec(), Scale::Full, 4),
            Workload::Table2Sweep => (
                dim_workloads::suite().iter().map(|s| s.name).collect(),
                Scale::Small,
                64,
            ),
        };
        shuffle(&mut kernels, seed);
        // The paper's Table 2 grid (3 shapes x 3 cache sizes x speculation),
        // one `run_sweep` per kernel so each timed sample stays short.
        let sweeps = if workload == Workload::Table2Sweep {
            kernels
                .iter()
                .map(|kernel| {
                    let text = format!(
                        "workloads = {kernel}\nscale = small\nshapes = 1, 2, 3\nslots = 16, 64, 256\nspeculation = off, on\n"
                    );
                    SweepSpec::parse(&text).expect("the Table 2 grid parses")
                })
                .collect()
        } else {
            Vec::new()
        };
        Plan {
            workload,
            seed,
            scale,
            kernels,
            config: SystemConfig::new(ArrayShape::config2(), slots, true),
            certs: workload == Workload::KernelLoop,
            seeded: workload != Workload::Table2Sweep,
            sweeps,
            workers: std::thread::available_parallelism().map_or(1, usize::from),
            scratch,
        }
    }

    /// Shrinks the plan to `scale` (the sweep grid too), for tests.
    pub fn at_scale(mut self, scale: Scale) -> Plan {
        self.scale = scale;
        for sweep in &mut self.sweeps {
            sweep.scale = scale;
        }
        self
    }
}
