//! One checked accelerated run, shared by sweep cells and served
//! requests.
//!
//! [`run_checked`] is the whole per-run sequence: build the system and
//! warm-start it, simulate under the always-on black box (flight
//! recorder + invariant watchdog), an optional explain trace and a live
//! [`StatusPulse`], then apply the halt, watchdog and validation
//! checks. Its hosts keep only their own I/O: where a warm snapshot
//! comes from, and where results and flight dumps go.
//!
//! Every run records the same stages under its host's parent span:
//! `warm_start`, `simulate` (carrying the engine's sampled host-time
//! split, even when a later check fails) and `validate`.

use crate::fsio::atomic_write;
use crate::panichook::capture_panics;
use dim_core::{System, SystemConfig};
use dim_explain::Explanation;
use dim_mips_sim::{HaltReason, Machine, SimError};
use dim_obs::status::{write_status, StatusEntry, StatusFile, StatusPulse};
use dim_obs::{FlightGuard, JsonlSink, Probe as _, SharedClock, SpanId, SpanSheet};
use dim_workloads::{validate, BuiltBenchmark};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// Default live-status publish cadence (simulated cycles).
pub const DEFAULT_PULSE_CYCLES: u64 = 250_000;

/// The live-status board of one sweep or daemon: entry 0 aggregates
/// the host, entries `1..=workers` track workers. Every mutation
/// atomically republishes `status.dimstat` when the board has a path;
/// write errors are swallowed because status is advisory host-side
/// output.
#[derive(Debug)]
pub struct StatusBoard {
    path: Option<PathBuf>,
    entries: Mutex<Vec<StatusEntry>>,
}

impl StatusBoard {
    /// A board headed by `aggregate`, with `workers` idle worker
    /// entries after it.
    pub fn new(path: Option<PathBuf>, aggregate: StatusEntry, workers: usize) -> StatusBoard {
        let mut entries = vec![aggregate];
        entries.extend((0..workers).map(|w| StatusEntry {
            source: format!("worker-{w}"),
            state: "idle".into(),
            ..Default::default()
        }));
        StatusBoard {
            path,
            entries: Mutex::new(entries),
        }
    }

    /// Applies `f` to the entries, then republishes them.
    pub fn update(&self, f: impl FnOnce(&mut [StatusEntry])) {
        let mut entries = self.entries.lock().expect("status board lock");
        f(&mut entries);
        if let Some(path) = &self.path {
            // Serialized under the lock so concurrent workers never
            // interleave temp-file writes.
            let _ = write_status(
                path,
                &StatusFile {
                    entries: entries.clone(),
                },
            );
        }
    }
}

/// Everything one checked run needs.
#[derive(Debug)]
pub struct RunSpec<'a> {
    /// Names the run in its flight dump, explain trace and status entry.
    pub label: &'a str,
    /// The workload to run and validate.
    pub built: &'a BuiltBenchmark,
    /// The system to build.
    pub config: SystemConfig,
    /// Instruction budget; exhausting it fails the run.
    pub max_steps: u64,
    /// An rcache snapshot to warm-start from.
    pub warm: Option<&'a [u8]>,
    /// Flight-recorder window in events; 0 runs without the recorder
    /// and the watchdog.
    pub flight_capacity: usize,
    /// Also trace the run and explain it region by region.
    pub explain: bool,
    /// Status publish cadence in simulated cycles; 0 keeps
    /// [`DEFAULT_PULSE_CYCLES`].
    pub pulse_interval: u64,
    /// Host clock of the status pulse and the engine's host-time split.
    pub clock: &'a SharedClock,
    /// The board this run publishes to, and its worker index there.
    pub board: (&'a StatusBoard, usize),
    /// The span sheet and the parent of this run's stage spans; `None`
    /// records neither spans nor the host-time split.
    pub spans: Option<(&'a SpanSheet, SpanId)>,
}

/// A run that halted, passed the watchdog and validated.
#[derive(Debug)]
pub struct FinishedRun {
    /// The system after the run.
    pub system: System,
    /// The region-level forensics, when the run was explained.
    pub explanation: Option<Explanation>,
}

/// Why a run failed, with the black box to preserve.
#[derive(Debug)]
pub struct RunFailure {
    /// What went wrong.
    pub reason: String,
    /// The flight window: the dump captured at a watchdog trip, or else
    /// the window as of the failure. `None` when no recorder ran.
    pub flight: Option<String>,
}

impl RunFailure {
    /// Writes the flight window (if there is one and a `path`) and
    /// returns the reason with the dump's path, or the write error,
    /// appended.
    pub fn dump_to(self, path: Option<&Path>) -> String {
        let (Some(flight), Some(path)) = (self.flight, path) else {
            return self.reason;
        };
        match atomic_write(path, flight.as_bytes()) {
            Ok(()) => format!("{}; flight dump: {}", self.reason, path.display()),
            Err(e) => format!("{}; flight dump write failed: {e}", self.reason),
        }
    }
}

/// A flight guard for `system`: a `capacity`-event window and a
/// watchdog sized to its cache. Configurations already resident (a
/// warm start) were inserted before probing began, so they are seeded,
/// or the first legitimate hit would trip hit-without-insert.
pub fn flight_guard(label: &str, capacity: usize, system: &System) -> FlightGuard {
    let mut guard = FlightGuard::new(
        label,
        capacity,
        system.config().cache_slots,
        system.stored_bits_per_config(),
    );
    for config in system.cache().iter() {
        guard.watchdog_mut().seed_resident(config.entry_pc);
    }
    guard
}

/// The failure reason for a captured run that did not exit normally.
fn check_halt(
    run: Result<Result<HaltReason, SimError>, String>,
    max_steps: u64,
) -> Result<(), String> {
    match run {
        Ok(Ok(HaltReason::Exit(_))) => Ok(()),
        Ok(Ok(HaltReason::StepLimit)) => {
            Err(format!("did not halt within {max_steps} instructions"))
        }
        Ok(Err(e)) => Err(format!("simulation failed: {e}")),
        Err(panic_msg) => Err(format!("worker panic: {panic_msg}")),
    }
}

/// Runs `spec` to completion and checks it: the program must exit
/// within its budget, the watchdog must stay quiet and the output must
/// validate.
///
/// # Errors
///
/// A [`RunFailure`] naming the first failed check (a warm snapshot
/// that does not load, a panic, the step limit, a simulation error, a
/// watchdog trip, a validation mismatch, or a trace that does not
/// explain), with the flight window when the recorder ran.
pub fn run_checked(spec: &RunSpec<'_>) -> Result<FinishedRun, RunFailure> {
    let fail = |reason: String| RunFailure {
        reason,
        flight: None,
    };
    let stage = |name| spec.spans.map(|(sheet, parent)| sheet.guard(name, parent));
    let mut system = System::new(Machine::load(&spec.built.program), spec.config);
    if spec.spans.is_some() {
        system.enable_host_split(Arc::clone(spec.clock));
    }
    {
        let _warm_start = stage("warm_start");
        if let Some(bytes) = spec.warm {
            system
                .load_rcache(bytes)
                .map_err(|e| fail(format!("warm snapshot rejected: {e}")))?;
        }
    }

    let mut guard =
        (spec.flight_capacity > 0).then(|| flight_guard(spec.label, spec.flight_capacity, &system));
    let mut sink = spec
        .explain
        .then(|| JsonlSink::new(Vec::new(), spec.label, system.stored_bits_per_config()));
    let (board, worker) = spec.board;
    let entry = StatusEntry {
        source: format!("worker-{worker}"),
        label: spec.label.to_string(),
        state: "running".into(),
        total: 1,
        ..Default::default()
    };
    let interval = match spec.pulse_interval {
        0 => DEFAULT_PULSE_CYCLES,
        n => n,
    };
    let mut pulse = StatusPulse::with_clock(
        entry,
        interval,
        Arc::clone(spec.clock),
        |e: &StatusEntry| board.update(|entries| entries[worker + 1] = e.clone()),
    );

    let simulate = spec.spans.map_or(SpanId::NONE, |(sheet, parent)| {
        sheet.begin("simulate", parent)
    });
    let halt = {
        let mut probe = (sink.as_mut(), (guard.as_mut(), &mut pulse));
        capture_panics(|| {
            let halt = system.run_probed(spec.max_steps, &mut probe);
            probe.finish();
            halt
        })
    };
    if let Some((sheet, _)) = spec.spans {
        if let Some(split) = system.host_split() {
            sheet.attr(simulate, split);
        }
        sheet.end(simulate);
    }

    let black_box = |reason: String| RunFailure {
        reason,
        flight: guard
            .as_ref()
            .map(|g| g.trip_dump().map_or_else(|| g.dump(), str::to_string)),
    };
    check_halt(halt, spec.max_steps).map_err(black_box)?;
    if let Some(violation) = guard.as_ref().and_then(FlightGuard::violation) {
        return Err(black_box(format!("watchdog tripped: {violation}")));
    }
    {
        let _validate = stage("validate");
        validate(system.machine(), spec.built)
            .map_err(|e| black_box(format!("validation failed: {e}")))?;
    }

    // The trace is JSON text in a `Vec`, whose writes cannot fail.
    let explanation = sink
        .map(|sink| dim_explain::explain_text(&String::from_utf8_lossy(&sink.into_inner().0)))
        .transpose()
        .map_err(|e| fail(format!("explain failed: {e}")))?;
    Ok(FinishedRun {
        system,
        explanation,
    })
}

/// The plain-pipeline counterpart of [`run_checked`] (serve's `run`
/// command): the same `simulate` and `validate` stages and failure
/// reasons, without the DIM system or its probes.
///
/// # Errors
///
/// The failure reason, worded as [`run_checked`] words it.
pub fn run_plain(
    built: &BuiltBenchmark,
    max_steps: u64,
    spans: Option<(&SpanSheet, SpanId)>,
) -> Result<Machine, String> {
    let stage = |name| spans.map(|(sheet, parent)| sheet.guard(name, parent));
    let mut machine = Machine::load(&built.program);
    {
        let _simulate = stage("simulate");
        check_halt(capture_panics(|| machine.run(max_steps)), max_steps)?;
    }
    let _validate = stage("validate");
    validate(&machine, built).map_err(|e| format!("validation failed: {e}"))?;
    Ok(machine)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dim_cgra::ArrayShape;
    use dim_obs::MonotonicClock;

    #[test]
    fn a_run_past_its_budget_fails_with_a_replayable_flight_window() {
        let built =
            (dim_workloads::by_name("crc32").expect("crc32").build)(dim_workloads::Scale::Tiny);
        let clock = MonotonicClock::shared();
        let board = StatusBoard::new(None, StatusEntry::default(), 1);
        let sheet = SpanSheet::new(Arc::clone(&clock), 16);
        let root = sheet.begin_root("cell", "crc32", 0);
        let max_steps = 500;
        let failure = run_checked(&RunSpec {
            label: "crc32-short",
            built: &built,
            config: SystemConfig::new(ArrayShape::config2(), 64, true),
            max_steps,
            warm: None,
            flight_capacity: 256,
            explain: false,
            pulse_interval: 0,
            clock: &clock,
            board: (&board, 0),
            spans: Some((&sheet, root)),
        })
        .expect_err("500 instructions cannot finish crc32");
        assert_eq!(
            failure.reason,
            format!("did not halt within {max_steps} instructions")
        );
        let window = failure.flight.expect("the recorder ran");
        let trace = dim_obs::replay::read_trace(&window).expect("the flight window replays");
        assert!(!trace.records.is_empty());
        // The stages ended even though the run failed: `validate` never
        // opened, and `simulate` carries the host-time split.
        sheet.end(root);
        let file = dim_obs::SpanFile::parse(&sheet.render()).expect("span dump parses");
        let forest = dim_obs::SpanForest::build(&file);
        assert_eq!(forest.check_laws(), Vec::<String>::new());
        let stages: Vec<&str> = forest.children[forest.roots[0]]
            .iter()
            .map(|&c| forest.spans[c].stage.as_str())
            .collect();
        assert_eq!(stages, ["warm_start", "simulate"]);
        let simulate = forest.children[forest.roots[0]][1];
        assert!(file.attr_for(forest.spans[simulate].id).is_some());
    }
}
