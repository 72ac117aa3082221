//! Performance tracking for the DIM reproduction.
//!
//! Three operations, mirroring the `dim perf` CLI verbs:
//!
//! - **record** ([`record`]) runs a workload matrix and captures, per
//!   workload, the simulated metrics (scalar/accelerated cycles,
//!   speedup, exact per-phase cycle attribution, reconfiguration-cache
//!   counters) and host telemetry (min-of-N wall clock, simulated-MIPS
//!   throughput, peak RSS) into a versioned [`Baseline`].
//! - **compare** ([`compare`]) diffs two baselines metric by metric,
//!   with an attribution waterfall showing *where* the cycles moved.
//! - **gate** ([`gate`]) checks a current baseline against a reference
//!   under a per-metric [`ToleranceSpec`] and reports regressions —
//!   tight (default zero) tolerances for deterministic simulated
//!   metrics, loose statistical ones for host wall-clock.
//!
//! Simulated metrics are bit-deterministic across hosts, so a committed
//! baseline gates CI on *any* cycle-count change; host metrics exist to
//! spot order-of-magnitude harness regressions, not single percents.

mod baseline;
mod compare;
mod gate;
mod host;
mod record;

pub use baseline::{
    Baseline, FabricSummary, HostTelemetry, RcacheCounters, RecordMatrix, WorkloadRecord,
    BASELINE_SCHEMA_VERSION,
};
pub use compare::{compare, Comparison, MetricDelta, WorkloadDiff};
pub use gate::{gate, GateFinding, GateOutcome, ToleranceSpec};
pub use host::{peak_rss_bytes, sim_mips};
pub use record::{record, RecordOptions};

use std::fmt;

/// Errors from recording, parsing, or gating.
#[derive(Debug)]
pub enum PerfError {
    /// A workload failed to run or validate (fatal: the simulator or a
    /// kernel is broken, not merely slow).
    Workload(dim_workloads::WorkloadError),
    /// A requested workload name does not exist in the suite.
    UnknownWorkload(String),
    /// A baseline file or tolerance spec failed to parse or validate.
    Parse(String),
}

impl fmt::Display for PerfError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PerfError::Workload(e) => write!(f, "workload failed: {e}"),
            PerfError::UnknownWorkload(name) => {
                let suite: Vec<&str> = dim_workloads::suite().iter().map(|s| s.name).collect();
                write!(
                    f,
                    "unknown workload `{name}` (the suite's workloads: {})",
                    suite.join(", ")
                )
            }
            PerfError::Parse(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for PerfError {}

impl From<dim_workloads::WorkloadError> for PerfError {
    fn from(e: dim_workloads::WorkloadError) -> PerfError {
        PerfError::Workload(e)
    }
}
