//! # dim-sweep
//!
//! Batch-execution and design-space-exploration engine for the DIM
//! reproduction. A declarative sweep spec (workloads × array shapes ×
//! cache sizes × speculation settings × …) is expanded into a
//! deterministic job list, executed on an in-crate work-stealing thread
//! pool, and aggregated into machine-readable results that are
//! byte-identical regardless of worker count or completion order.
//!
//! The engine is restartable: each finished cell is recorded in an
//! append-only journal next to an atomically-written result file, so a
//! killed sweep resumes without re-executing completed cells. When warm
//! starts are enabled, each cell also persists its reconfiguration-cache
//! snapshot (see [`dim_core::SNAPSHOT_MAGIC`]) so later sweeps over the
//! same grid skip the translation warm-up.
//!
//! Every cell is one [`run_checked`] run: warm start, simulation in
//! status-publishing chunks under the watchdog, then the halt,
//! watchdog, counter-law and validation checks. A failed run is
//! executed again from the same inputs under the flight recorder to
//! rebuild its flight window. `dim serve` runs its requests through
//! the same function.
//!
//! ```
//! use dim_sweep::{SweepSpec, SweepOptions, run_sweep};
//! let spec = SweepSpec::parse("
//!     workloads = crc32
//!     scale = tiny
//!     shapes = 1
//!     slots = 16
//!     speculation = on
//! ")?;
//! let dir = std::env::temp_dir().join(format!("dim-sweep-doc-{}", std::process::id()));
//! let outcome = run_sweep(&spec, &SweepOptions::new(dir.clone()))?;
//! assert!(outcome.complete);
//! std::fs::remove_dir_all(&dir).ok();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

mod engine;
mod journal;
mod panichook;
mod pool;
mod run;
mod spec;

pub use engine::{run_sweep, SweepError, SweepOptions, SweepOutcome, DEFAULT_FLIGHT_CAPACITY};
pub use journal::Journal;
pub use pool::{execute_jobs, PoolStats};
pub use run::{
    counter_laws, flight_guard, run_checked, run_plain, FinishedRun, RunFailure, RunSpec,
    StatusBoard, DEFAULT_STATUS_CYCLES,
};
pub use spec::{CellSpec, SpecError, SweepSpec};
