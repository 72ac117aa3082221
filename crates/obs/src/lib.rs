//! # dim-obs
//!
//! The unified instrumentation layer of the DIM reproduction: every
//! component of the simulated system — the MIPS pipeline, the binary
//! translator, the reconfiguration cache, the reconfigurable array —
//! emits structured [`ProbeEvent`]s into a [`Probe`]. Probes are
//! monomorphized into the simulation loops, and the default
//! [`NullProbe`] advertises `ENABLED = false`, so an uninstrumented run
//! pays nothing: every emit site is guarded by `if P::ENABLED` and
//! compiles away.
//!
//! Three sinks are built on the probe:
//!
//! * [`JsonlSink`] — a versioned, machine-readable JSONL event trace
//!   (`dim run --trace-out t.jsonl`), replayable via [`replay`];
//! * [`MetricsRegistry`] — log-scaled [`LogHistogram`]s of config
//!   coverage, speculation depth, rcache reuse distance and invocation
//!   cycles, plus the translator's region opens and partial commits:
//!   what no run counter holds (`dim accel --metrics` reads the
//!   totals from the system);
//! * [`CycleProfiler`] — rolls every simulated cycle into one of
//!   {pipeline, i-stall, d-stall, reconfig-stall, array-exec,
//!   write-back-tail} per static basic block (`dim profile`).
//!
//! Always-on observability adds three more pieces (`dim-flight`):
//!
//! * [`FlightRecorder`] — a fixed-capacity, allocation-free ring of the
//!   last N events with per-kind drop accounting, dumpable as a valid
//!   schema-v3 trace at any moment;
//! * [`Watchdog`] — an online invariant checker (cycle conservation,
//!   rcache occupancy, hit-without-insert) that latches a precise
//!   [`Violation`]; [`FlightGuard`] pairs the
//!   two so the first trip snapshots the black box automatically;
//! * [`status`] — the atomically-replaced, checksummed live status file
//!   (`status.dimstat`) that `dim top` tails.
//!
//! The event schema is versioned ([`SCHEMA_VERSION`]); see
//! `docs/observability.md` for the compatibility policy and a worked
//! example of diffing two runs.

#![warn(missing_docs)]

pub mod clock;
mod event;
mod flight;
pub mod frame;
mod hash;
mod json;
mod jsonl;
mod metrics;
mod probe;
mod profile;
pub mod replay;
pub mod span;
pub mod status;
mod watchdog;

pub use clock::{Clock, FakeClock, MonotonicClock, SharedClock};
pub use event::{
    ArrayInvoke, FabricUtil, ProbeEvent, RetireKind, EVENT_KINDS, EVENT_KIND_NAMES, SCHEMA_VERSION,
};
pub use flight::{FlightGuard, FlightRecorder};
pub use hash::fnv1a64;
pub use json::{parse as parse_json, write_escaped, JsonValue, ObjectWriter};
pub use jsonl::JsonlSink;
pub use metrics::{LogHistogram, MetricsRegistry};
pub use probe::{NullProbe, Probe, RecordingProbe};
pub use profile::{AttributionKind, BlockCycles, CycleProfile, CycleProfiler};
pub use span::{
    HostBucket, HostSplit, SpanFile, SpanForest, SpanGuard, SpanId, SpanSheet, SPAN_FILE_NAME,
    SPAN_MAGIC, SPAN_VERSION,
};
pub use watchdog::{Violation, Watchdog};
