//! # dim-bench
//!
//! Experiment harness for the DIM reproduction: shared runners
//! ([`run_baseline`], [`run_accelerated`], [`run_explained`],
//! [`table2_row`]) and argument helpers ([`scale_from_args`],
//! [`jobs_from_args`]) plus the binaries that regenerate every table
//! and figure of the paper (`fig3_characterization`, `table2_speedup`,
//! `fig4_summary`, `fig5_power`, `fig6_energy`, `table3_area`,
//! `ablations`). One more binary, `bench_overhead`, is the single
//! harness for the host cost of every instrumentation layer: a table
//! with a row per probe and the ≤5% gates CI enforces, written to
//! `BENCH_overhead.json`.
//!
//! ```
//! use dim_bench::{run_accelerated, run_baseline, speedup};
//! use dim_core::SystemConfig;
//! use dim_cgra::ArrayShape;
//! use dim_workloads::{by_name, Scale};
//!
//! let built = (by_name("crc32").expect("exists").build)(Scale::Tiny);
//! let base = run_baseline(&built)?;
//! let accel = run_accelerated(&built, SystemConfig::new(ArrayShape::config1(), 64, true))?;
//! assert!(speedup(base.stats.cycles, accel.cycles) > 1.0);
//! # Ok::<(), dim_workloads::WorkloadError>(())
//! ```

#![warn(missing_docs)]

mod report;
mod runner;

pub use report::{percent, ratio, TextTable};
pub use runner::{
    check_accelerated, jobs_from_args, report_pool, run_accelerated, run_baseline, run_explained,
    scale_from_args, speedup, table2_row, AcceleratedRun, ExplainedRun, Table2Row, CACHE_SLOTS,
    SHAPES,
};
