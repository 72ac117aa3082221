//! Steady-state host-performance benchmark for the DIM reproduction.
//!
//! One closed-loop client drives the simulator through its public API
//! and times each call from outside. `--trace 0` measures the
//! end-to-end metrics ([`steady`]); `--trace 1` makes a separate traced
//! run that splits host time and simulated events by layer
//! ([`traced`]). Every simulated run is validated against the kernels'
//! reference models. See `perfbench/README.md` for the metrics, the
//! workloads and which layer metric should move which end-to-end one.

pub mod calib;
pub mod inputs;
pub mod kernel;
pub mod metrics;
pub mod plan;
pub mod replay;
pub mod spans;
pub mod steady;
pub mod traced;
