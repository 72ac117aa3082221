//! One checked accelerated run, shared by sweep cells and served
//! requests.
//!
//! [`run_checked`] is the whole per-run sequence: build the system and
//! warm-start it, simulate it in chunks under the online invariant
//! watchdog (and an optional explain trace), publishing the worker's
//! status entry from the system's counters between chunks, then apply
//! the halt, watchdog, counter-law and validation checks. No flight
//! recorder rides along: the simulator is deterministic, so a run that
//! fails is executed again from the same inputs (program, system
//! configuration, warm snapshot bytes and step budget) under a
//! [`FlightGuard`], whose window is the one a recorder on the first
//! execution would have held. Its hosts keep only their own I/O: where
//! a warm snapshot comes from, and where results and flight dumps go.
//!
//! Every run records the same stages under its host's parent span:
//! `warm_start`, `simulate` (ended even when a later check fails) and
//! `validate`. Runs do not enable the engine's sampled host-time split
//! (`HostSplit`): its clock reads would cost every cell and request, and
//! perfbench's traced mode is where it is read.

use crate::panichook::capture_panics;
use dim_core::{System, SystemConfig};
use dim_explain::Explanation;
use dim_mips_sim::{HaltReason, Machine, SimError};
use dim_obs::frame::atomic_write;
use dim_obs::status::{write_status, StatusEntry, StatusFile};
use dim_obs::{FlightGuard, JsonlSink, Probe, SharedClock, SpanId, SpanSheet, Watchdog};
use dim_workloads::{validate, BuiltBenchmark};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Default live-status publish cadence (simulated cycles).
pub const DEFAULT_STATUS_CYCLES: u64 = 250_000;

/// How old `status.dimstat` must be before a board mutation rewrites
/// it.
const STATUS_REWRITE_NANOS: u64 = 100_000_000;

/// The live-status board of one sweep or daemon: entry 0 aggregates
/// the host, entries `1..=workers` track workers. Every mutation
/// applies in memory. When the board has a path, `status.dimstat` is
/// atomically rewritten by a mutation that finds the last write at
/// least 100 ms old (half of the 200-ms poll of `dim top --follow`),
/// and always by [`finish`](StatusBoard::finish) and by a
/// [`flush`](StatusBoard::flush) that finds mutations held back. Write
/// errors are swallowed because status is advisory host-side output.
#[derive(Debug)]
pub struct StatusBoard {
    path: Option<PathBuf>,
    clock: SharedClock,
    board: Mutex<Board>,
}

#[derive(Debug)]
struct Board {
    entries: Vec<StatusEntry>,
    /// Clock reading at the last file write; `None` before the first.
    written: Option<u64>,
    /// A mutation since the last write is not in the file yet.
    dirty: bool,
}

impl StatusBoard {
    /// A board headed by `aggregate`, with `workers` idle worker
    /// entries after it, timing its rewrites on `clock`.
    pub fn new(
        path: Option<PathBuf>,
        aggregate: StatusEntry,
        workers: usize,
        clock: SharedClock,
    ) -> StatusBoard {
        let mut entries = vec![aggregate];
        entries.extend((0..workers).map(|w| StatusEntry {
            source: format!("worker-{w}"),
            state: "idle".into(),
            ..Default::default()
        }));
        StatusBoard {
            path,
            clock,
            board: Mutex::new(Board {
                entries,
                written: None,
                dirty: false,
            }),
        }
    }

    /// Applies `f` to the entries, then rewrites the file if its last
    /// write is at least 100 ms old.
    pub fn update(&self, f: impl FnOnce(&mut [StatusEntry])) {
        self.apply(f, false);
    }

    /// Applies `f` to the entries, then rewrites the file: for the
    /// final state, which a reader must see.
    pub fn finish(&self, f: impl FnOnce(&mut [StatusEntry])) {
        self.apply(f, true);
    }

    /// Rewrites the file if a mutation since the last write was held
    /// back: for a host going idle, whose next mutation (the one that
    /// would write it) may be far off.
    pub fn flush(&self) {
        let mut board = self.board.lock().expect("status board lock");
        if board.dirty {
            self.write(&mut board, self.clock.now_nanos());
        }
    }

    fn apply(&self, f: impl FnOnce(&mut [StatusEntry]), force: bool) {
        let mut board = self.board.lock().expect("status board lock");
        f(&mut board.entries);
        board.dirty = true;
        let now = self.clock.now_nanos();
        if force
            || board
                .written
                .is_none_or(|t| now.saturating_sub(t) >= STATUS_REWRITE_NANOS)
        {
            self.write(&mut board, now);
        }
    }

    /// Writes the entries at clock reading `now`. Serialized under the
    /// board's lock so concurrent workers never interleave temp-file
    /// writes.
    fn write(&self, board: &mut Board, now: u64) {
        if let Some(path) = &self.path {
            let _ = write_status(
                path,
                &StatusFile {
                    entries: board.entries.clone(),
                },
            );
        }
        board.written = Some(now);
        board.dirty = false;
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
    /// Flight window in events, rebuilt by re-executing a failed run; 0
    /// runs without the watchdog and does not re-execute.
    pub flight_capacity: usize,
    /// Also trace the run and explain it region by region.
    pub explain: bool,
    /// Status publish cadence in simulated cycles; 0 keeps
    /// [`DEFAULT_STATUS_CYCLES`].
    pub status_interval: u64,
    /// Host clock of the status entry.
    pub clock: &'a SharedClock,
    /// The board this run publishes to, and its worker index there.
    pub board: (&'a StatusBoard, usize),
    /// The span sheet and the parent of this run's stage spans.
    pub spans: (&'a SpanSheet, SpanId),
}

/// A run that halted, passed the watchdog and the counter laws, and
/// validated.
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
    /// The flight window of the run's re-execution: the dump captured
    /// at a watchdog trip, or else the window where the run stopped.
    /// `None` when `flight_capacity` is 0 or the run failed before
    /// (warm start) or after (explain) simulating.
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
/// watchdog sized to its cache and seeded with its resident set.
pub fn flight_guard(label: &str, capacity: usize, system: &System) -> FlightGuard {
    let mut guard = FlightGuard::new(
        label,
        capacity,
        system.config().cache_slots,
        system.stored_bits_per_config(),
    );
    seed_resident(guard.watchdog_mut(), system);
    guard
}

/// Configurations already resident (a warm start) were inserted before
/// probing began, so they are seeded, or the first legitimate hit would
/// trip hit-without-insert.
fn seed_resident(watchdog: &mut Watchdog, system: &System) {
    for config in system.cache().iter() {
        watchdog.seed_resident(config.entry_pc);
    }
}

/// The run-end counter laws: quantities the system counts in two places
/// must agree, and the cache must hold no more than its slots.
///
/// # Errors
///
/// The first broken law, named.
pub fn counter_laws(system: &System) -> Result<(), String> {
    let stats = system.stats();
    let broken = |law: &str, detail: String| Err(format!("counter law `{law}` broken: {detail}"));
    let (resident, slots) = (system.cache().len(), system.config().cache_slots);
    if resident > slots {
        return broken(
            "rcache-occupancy",
            format!("{resident} configurations resident in {slots} slots"),
        );
    }
    if stats.config_flushes != system.cache().flushes() {
        return broken(
            "config-flushes",
            format!(
                "{} flushes counted, the rcache counted {}",
                stats.config_flushes,
                system.cache().flushes()
            ),
        );
    }
    if stats.configs_built != system.cache().insertions() {
        return broken(
            "configs-built",
            format!(
                "{} configurations built, the rcache stored {}",
                stats.configs_built,
                system.cache().insertions()
            ),
        );
    }
    let heat = system.fabric_heat().invocations;
    if heat != stats.array_invocations {
        return broken(
            "fabric-invocations",
            format!(
                "fabric heat saw {heat} invocations, the stats {}",
                stats.array_invocations
            ),
        );
    }
    Ok(())
}

/// Copies `system`'s progress counters into `entry`.
fn read_counters(entry: &mut StatusEntry, system: &System) {
    let stats = system.stats();
    let heat = system.fabric_heat();
    (entry.rcache_hits, entry.rcache_misses) = system.cache().hit_miss();
    entry.retired = system.machine().stats.instructions;
    entry.array_retired = stats.array_instructions;
    entry.sim_cycles = system.total_cycles();
    entry.invocations = stats.array_invocations;
    entry.misspeculations = stats.misspeculations;
    entry.fabric_busy_thirds = heat.total_busy_thirds();
    entry.fabric_capacity_thirds = heat.total_capacity_thirds();
}

/// Runs `system` on a budget of `max_steps` in chunks of about
/// `interval` simulated cycles, calling `between` after every chunk
/// that neither halted nor used up the budget. The budget counts
/// instructions, so a chunk's share of it is `interval` scaled by the
/// budget spent per cycle so far (`interval` itself for the first
/// chunk). Each chunk gets at most what the earlier ones left, so the
/// run stops where one `run_probed(max_steps)` call stops.
fn run_chunked<P: Probe>(
    system: &mut System,
    max_steps: u64,
    interval: u64,
    probe: &mut P,
    between: impl Fn(&System),
) -> Result<HaltReason, SimError> {
    let mut left = max_steps;
    let mut chunk = interval;
    loop {
        let halt = system.run_probed(left.min(chunk), probe)?;
        left = left.saturating_sub(system.budget_used());
        if halt != HaltReason::StepLimit || left == 0 {
            return Ok(halt);
        }
        between(system);
        // The next chunk's budget: `interval` cycles at the run's rate.
        let budget = u128::from(interval) * u128::from(max_steps - left)
            / u128::from(system.total_cycles().max(1));
        chunk = u64::try_from(budget).unwrap_or(u64::MAX).max(1);
    }
}

/// The production probe as the run sees it: unchanged, except in this
/// crate's tests, which apply a fault to both executions of a run.
#[cfg(not(test))]
fn seam<P: Probe>(probe: P) -> P {
    probe
}

#[cfg(test)]
use tests::seam;

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

/// Executes `spec` again from its inputs under a flight guard and
/// returns the guard's dump: the window captured at a watchdog trip, or
/// else the window where the run stopped. The simulator is
/// deterministic, so this is the window a guard running alongside the
/// first execution would have held. `None` when `flight_capacity` is 0.
fn flight_window(spec: &RunSpec<'_>) -> Option<String> {
    if spec.flight_capacity == 0 {
        return None;
    }
    let mut system = System::new(Machine::load(&spec.built.program), spec.config);
    if let Some(bytes) = spec.warm {
        // These bytes loaded before the first execution.
        system.load_rcache(bytes).ok()?;
    }
    let mut guard = flight_guard(spec.label, spec.flight_capacity, &system);
    // The failure being rebuilt may be a panic; it was reported already.
    let _ = capture_panics(|| system.run_probed(spec.max_steps, &mut seam(&mut guard)));
    Some(
        guard
            .trip_dump()
            .map_or_else(|| guard.dump(), str::to_string),
    )
}

/// Runs `spec` to completion and checks it: the program must exit
/// within its budget, the watchdog must stay quiet, the counter laws
/// must hold and the output must validate.
///
/// # Errors
///
/// A [`RunFailure`] naming the first failed check (a warm snapshot
/// that does not load, a panic, the step limit, a simulation error, a
/// watchdog trip, a broken counter law, a validation mismatch, or a
/// trace that does not explain), with the flight window of a
/// re-execution when the run failed a check after simulating.
pub fn run_checked(spec: &RunSpec<'_>) -> Result<FinishedRun, RunFailure> {
    let fail = |reason: String| RunFailure {
        reason,
        flight: None,
    };
    let (sheet, parent) = spec.spans;
    let mut system = System::new(Machine::load(&spec.built.program), spec.config);
    {
        let _warm_start = sheet.guard("warm_start", parent);
        if let Some(bytes) = spec.warm {
            system
                .load_rcache(bytes)
                .map_err(|e| fail(format!("warm snapshot rejected: {e}")))?;
        }
    }

    let mut watchdog = (spec.flight_capacity > 0).then(|| {
        let mut watchdog = Watchdog::new(spec.config.cache_slots);
        seed_resident(&mut watchdog, &system);
        watchdog
    });
    let mut sink = spec
        .explain
        .then(|| JsonlSink::new(Vec::new(), spec.label, system.stored_bits_per_config()));
    let (board, worker) = spec.board;
    let started = spec.clock.now_nanos();
    board.update(|entries| {
        entries[worker + 1] = StatusEntry {
            source: format!("worker-{worker}"),
            label: spec.label.to_string(),
            state: "running".into(),
            total: 1,
            ..Default::default()
        };
    });
    let publish = |system: &System| {
        board.update(|entries| {
            let entry = &mut entries[worker + 1];
            read_counters(entry, system);
            entry.host_nanos = spec.clock.now_nanos().saturating_sub(started);
        });
    };
    let interval = match spec.status_interval {
        0 => DEFAULT_STATUS_CYCLES,
        n => n,
    };

    let simulate = sheet.begin("simulate", parent);
    let halt = capture_panics(|| {
        let mut probe = seam((sink.as_mut(), watchdog.as_mut()));
        let halt = run_chunked(&mut system, spec.max_steps, interval, &mut probe, publish);
        probe.finish();
        halt
    });
    publish(&system);
    sheet.end(simulate);

    let checked = check_halt(halt, spec.max_steps)
        .and_then(|()| match watchdog.as_ref().and_then(Watchdog::violation) {
            Some(violation) => Err(format!("watchdog tripped: {violation}")),
            None => Ok(()),
        })
        .and_then(|()| counter_laws(&system))
        .and_then(|()| {
            let _validate = sheet.guard("validate", parent);
            validate(system.machine(), spec.built).map_err(|e| format!("validation failed: {e}"))
        });
    if let Err(reason) = checked {
        return Err(RunFailure {
            reason,
            flight: flight_window(spec),
        });
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
    (sheet, parent): (&SpanSheet, SpanId),
) -> Result<Machine, String> {
    let mut machine = Machine::load(&built.program);
    {
        let _simulate = sheet.guard("simulate", parent);
        check_halt(capture_panics(|| machine.run(max_steps)), max_steps)?;
    }
    let _validate = sheet.guard("validate", parent);
    validate(&machine, built).map_err(|e| format!("validation failed: {e}"))?;
    Ok(machine)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dim_cgra::ArrayShape;
    use dim_obs::status::{read_status, STATUS_FILE_NAME};
    use dim_obs::{FakeClock, MonotonicClock, NullProbe, ProbeEvent};
    use dim_workloads::Scale;
    use std::cell::Cell;
    use std::sync::Arc;

    /// A fault applied to the event stream of both executions of a run.
    #[derive(Debug, Clone, Copy)]
    enum Fault {
        None,
        /// Panic right after forwarding the first retire at or past the
        /// n-th event (1-based), where the window still replays.
        PanicAt(u64),
        /// Move the first `rcache_hit` to a PC no insert made resident,
        /// which trips the watchdog.
        MisnameFirstHit,
    }

    thread_local! {
        static FAULT: Cell<Fault> = const { Cell::new(Fault::None) };
    }

    /// The seam's probe: forwards to `inner` through this thread's fault.
    pub(super) struct Faulted<P> {
        inner: P,
        fault: Fault,
        seen: u64,
    }

    pub(super) fn seam<P: Probe>(inner: P) -> Faulted<P> {
        Faulted {
            inner,
            fault: FAULT.get(),
            seen: 0,
        }
    }

    impl<P: Probe> Probe for Faulted<P> {
        const ENABLED: bool = P::ENABLED;

        fn emit(&mut self, event: ProbeEvent) {
            self.seen += 1;
            match self.fault {
                Fault::MisnameFirstHit => match event {
                    ProbeEvent::RcacheHit { pc, len } => {
                        self.fault = Fault::None;
                        self.inner.emit(ProbeEvent::RcacheHit { pc: pc + 2, len });
                    }
                    _ => self.inner.emit(event),
                },
                Fault::PanicAt(n)
                    if self.seen >= n && matches!(event, ProbeEvent::Retire { .. }) =>
                {
                    self.inner.emit(event);
                    panic!("injected fault at event #{}", self.seen);
                }
                _ => self.inner.emit(event),
            }
        }

        fn finish(&mut self) {
            self.inner.finish();
        }
    }

    fn build(name: &str) -> BuiltBenchmark {
        (dim_workloads::by_name(name)
            .expect("bundled workload")
            .build)(Scale::Tiny)
    }

    /// What a flight guard running alongside the first execution holds:
    /// the same chunks, the same fault, no re-execution.
    fn guard_alongside(spec: &RunSpec<'_>) -> String {
        let mut system = System::new(Machine::load(&spec.built.program), spec.config);
        if let Some(bytes) = spec.warm {
            system.load_rcache(bytes).expect("snapshot loads");
        }
        let mut guard = flight_guard(spec.label, spec.flight_capacity, &system);
        let interval = match spec.status_interval {
            0 => DEFAULT_STATUS_CYCLES,
            n => n,
        };
        let _ = capture_panics(|| {
            run_chunked(
                &mut system,
                spec.max_steps,
                interval,
                &mut seam(&mut guard),
                |_| {},
            )
        });
        guard
            .trip_dump()
            .map_or_else(|| guard.dump(), str::to_string)
    }

    #[test]
    fn a_run_past_its_budget_fails_with_a_replayable_flight_window() {
        let built = build("crc32");
        let clock = MonotonicClock::shared();
        let board = StatusBoard::new(None, StatusEntry::default(), 1, Arc::clone(&clock));
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
            status_interval: 0,
            clock: &clock,
            board: (&board, 0),
            spans: (&sheet, root),
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
        // opened.
        sheet.end(root);
        let file = dim_obs::SpanFile::parse(&sheet.render()).expect("span dump parses");
        let forest = dim_obs::SpanForest::build(&file);
        assert_eq!(forest.check_laws(), Vec::<String>::new());
        let stages: Vec<&str> = forest.children[forest.roots[0]]
            .iter()
            .map(|&c| forest.spans[c].stage.as_str())
            .collect();
        assert_eq!(stages, ["warm_start", "simulate"]);
    }

    #[test]
    fn a_reexecuted_flight_window_equals_a_guard_alongside_the_first_run() {
        let clock = MonotonicClock::shared();
        let board = StatusBoard::new(None, StatusEntry::default(), 1, Arc::clone(&clock));
        let sheet = SpanSheet::new(Arc::clone(&clock), 64);
        for name in ["crc32", "quicksort"] {
            let built = build(name);
            let mut wrong = built.clone();
            wrong.expected[0].bytes[0] ^= 1;
            let half = {
                let mut system = System::new(
                    Machine::load(&built.program),
                    SystemConfig::new(ArrayShape::config2(), 4, true),
                );
                system.run(built.max_steps).expect("runs");
                system.total_instructions() / 2
            };
            // (case, workload build, slots, budget, window, chunk, fault)
            let cases = [
                ("step limit", &built, 64, 500, 256, 97, Fault::None),
                ("step limit", &built, 4, half, 4096, 0, Fault::None),
                (
                    "validation",
                    &wrong,
                    16,
                    built.max_steps,
                    512,
                    1_000,
                    Fault::None,
                ),
                (
                    "panic",
                    &built,
                    16,
                    built.max_steps,
                    64,
                    97,
                    Fault::PanicAt(300),
                ),
                (
                    "watchdog",
                    &built,
                    16,
                    built.max_steps,
                    128,
                    97,
                    Fault::MisnameFirstHit,
                ),
            ];
            for (case, workload, slots, max_steps, window, chunk, fault) in cases {
                let label = format!("{name}-{case}");
                let spec = RunSpec {
                    label: &label,
                    built: workload,
                    config: SystemConfig::new(ArrayShape::config2(), slots, true),
                    max_steps,
                    warm: None,
                    flight_capacity: window,
                    explain: false,
                    status_interval: chunk,
                    clock: &clock,
                    board: (&board, 0),
                    spans: (&sheet, SpanId::NONE),
                };
                FAULT.set(fault);
                let failure = run_checked(&spec).expect_err(&label);
                let alongside = guard_alongside(&spec);
                FAULT.set(Fault::None);
                let reason_prefix = match case {
                    "step limit" => format!("did not halt within {max_steps} instructions"),
                    "validation" => "validation failed: ".to_string(),
                    "panic" => "worker panic: injected fault at event #3".to_string(),
                    _ => "watchdog tripped: invariant `rcache-hit-without-insert`".to_string(),
                };
                assert!(
                    failure.reason.starts_with(&reason_prefix),
                    "{label}: {}",
                    failure.reason
                );
                let flight = failure.flight.expect("re-executed");
                assert!(flight == alongside, "{label}: the windows differ");
                dim_obs::replay::read_trace(&flight)
                    .unwrap_or_else(|e| panic!("{label}: dump does not replay: {e}"));
            }
        }
    }

    #[test]
    fn a_run_without_a_window_fails_without_reexecuting() {
        let built = build("crc32");
        let clock = MonotonicClock::shared();
        let board = StatusBoard::new(None, StatusEntry::default(), 1, Arc::clone(&clock));
        let sheet = SpanSheet::new(Arc::clone(&clock), 4);
        let failure = run_checked(&RunSpec {
            label: "crc32-bare",
            built: &built,
            config: SystemConfig::new(ArrayShape::config2(), 64, true),
            max_steps: 500,
            warm: None,
            flight_capacity: 0,
            explain: false,
            status_interval: 0,
            clock: &clock,
            board: (&board, 0),
            spans: (&sheet, SpanId::NONE),
        })
        .expect_err("500 instructions cannot finish crc32");
        assert_eq!(failure.reason, "did not halt within 500 instructions");
        assert!(failure.flight.is_none());
    }

    /// A cache without slots stores nothing: a checked run on one passes
    /// the watchdog and the counter laws, with nothing built or stored.
    #[test]
    fn a_zero_slot_run_passes_its_checks() {
        let built = build("crc32");
        let clock = MonotonicClock::shared();
        let board = StatusBoard::new(None, StatusEntry::default(), 1, Arc::clone(&clock));
        let sheet = SpanSheet::new(Arc::clone(&clock), 4);
        let run = run_checked(&RunSpec {
            label: "crc32-0-slots",
            built: &built,
            config: SystemConfig::new(ArrayShape::config2(), 0, true),
            max_steps: built.max_steps,
            warm: None,
            flight_capacity: 256,
            explain: false,
            status_interval: 0,
            clock: &clock,
            board: (&board, 0),
            spans: (&sheet, SpanId::NONE),
        })
        .unwrap_or_else(|f| panic!("{}", f.reason));
        assert_eq!(run.system.stats().configs_built, 0);
        assert_eq!(run.system.cache().insertions(), 0);
        assert_eq!(run.system.stats().array_invocations, 0);
    }

    /// Neither a sweep cell nor a served request runs the engine's
    /// sampled host-time split; both still record their stages.
    #[test]
    fn checked_runs_leave_the_host_split_off() {
        let built = build("crc32");
        let clock = MonotonicClock::shared();
        let board = StatusBoard::new(None, StatusEntry::default(), 1, Arc::clone(&clock));
        let sheet = SpanSheet::new(Arc::clone(&clock), 16);
        let spec = |label, warm, explain, parent| RunSpec {
            label,
            built: &built,
            config: SystemConfig::new(ArrayShape::config2(), 64, true),
            max_steps: built.max_steps,
            warm,
            flight_capacity: crate::DEFAULT_FLIGHT_CAPACITY,
            explain,
            status_interval: 0,
            clock: &clock,
            board: (&board, 0),
            spans: (&sheet, parent),
        };
        // A sweep cell: cold, under its `cell` root.
        let cell = sheet.begin_root("cell", "crc32", 0);
        let mut cold = run_checked(&spec("cell", None, false, cell))
            .unwrap_or_else(|f| panic!("{}", f.reason));
        sheet.end(cell);
        // A served request: warm from the cell's cache, explained, under
        // its `exec` span.
        let snapshot = cold.system.save_rcache();
        let request = sheet.begin_root("request", "tenant", 1);
        let exec = sheet.begin("exec", request);
        let served = run_checked(&spec("request", Some(&snapshot), true, exec))
            .unwrap_or_else(|f| panic!("{}", f.reason));
        sheet.end(exec);
        sheet.end(request);
        assert!(served.explanation.is_some());
        for run in [&cold, &served] {
            assert!(run.system.host_split().is_none());
        }
        let file = dim_obs::SpanFile::parse(&sheet.render()).expect("span dump parses");
        let forest = dim_obs::SpanForest::build(&file);
        assert_eq!(forest.check_laws(), Vec::<String>::new());
        let simulated = file.spans.iter().filter(|s| s.stage == "simulate");
        assert_eq!(simulated.count(), 2);
    }

    /// Everything a run leaves behind that a budget split could move.
    fn end_state(system: &mut System, built: &BuiltBenchmark) -> String {
        let snapshot = system.save_rcache();
        let cache = system.cache();
        format!(
            "{:?} {:?} {:?} {:?} {:?} {:?} {} {} {} {} {:?} {:?}",
            system.machine().cpu,
            system.machine().stats,
            system.stats(),
            system.cycle_breakdown(),
            system.fabric_heat(),
            cache.hit_miss(),
            cache.insertions(),
            cache.evictions(),
            cache.flushes(),
            cache.len(),
            snapshot,
            validate(system.machine(), built).map_err(|e| e.to_string()),
        )
    }

    #[test]
    fn a_chunked_run_stops_where_one_call_stops() {
        for workload in dim_workloads::suite() {
            let built = (workload.build)(Scale::Tiny);
            let fresh = || {
                System::new(
                    Machine::load(&built.program),
                    SystemConfig::new(ArrayShape::config2(), 16, true),
                )
            };
            let mut whole = fresh();
            let halt = whole.run(built.max_steps).expect("runs");
            assert!(matches!(halt, HaltReason::Exit(_)), "{}", workload.name);
            let finish = whole.budget_used();
            for budget in [finish - 1, finish, finish + 1] {
                let mut one = fresh();
                let halt = one.run(budget).expect("runs");
                assert_eq!(
                    matches!(halt, HaltReason::Exit(_)),
                    budget >= finish,
                    "{} at {budget}",
                    workload.name
                );
                for interval in [97, 997, 4_096] {
                    let mut chunked = fresh();
                    let chunks = Cell::new(0u64);
                    let chunked_halt =
                        run_chunked(&mut chunked, budget, interval, &mut NullProbe, |_| {
                            chunks.set(chunks.get() + 1);
                        })
                        .expect("runs");
                    let what = format!("{} at {budget} in chunks of {interval}", workload.name);
                    // About `interval` cycles a chunk, whatever the
                    // run's instructions per cycle.
                    let per_interval = one.total_cycles() / interval;
                    assert!(
                        (per_interval / 2..=per_interval * 2 + 1).contains(&chunks.get()),
                        "{what}: {} chunks over {} cycles",
                        chunks.get(),
                        one.total_cycles()
                    );
                    assert_eq!(chunked_halt, halt, "{what}");
                    assert_eq!(
                        end_state(&mut chunked, &built),
                        end_state(&mut one, &built),
                        "{what}"
                    );
                }
            }
        }
    }

    #[test]
    fn the_status_file_is_rewritten_at_most_every_100_ms_and_always_at_the_end() {
        let dir = std::env::temp_dir().join(format!("dim-board-{}", std::process::id()));
        let path = dir.join(STATUS_FILE_NAME);
        let clock = FakeClock::shared(7);
        let board = StatusBoard::new(
            Some(path.clone()),
            StatusEntry::default(),
            1,
            Arc::clone(&clock) as SharedClock,
        );
        let on_disk = || read_status(&path).expect("status file").entries[0].done;
        board.update(|e| e[0].done = 1);
        assert_eq!(on_disk(), 1, "the first update writes");
        clock.advance(STATUS_REWRITE_NANOS - 1);
        board.update(|e| e[0].done = 2);
        assert_eq!(on_disk(), 1, "too soon after the last write");
        clock.advance(1);
        board.update(|e| e[0].done = 3);
        assert_eq!(on_disk(), 3, "the last write is 100 ms old");
        board.update(|e| e[0].done = 4);
        assert_eq!(on_disk(), 3, "just written");
        board.finish(|e| e[0].done = 5);
        assert_eq!(on_disk(), 5, "a final state is always written");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_flush_writes_only_what_the_throttle_held_back() {
        let dir = std::env::temp_dir().join(format!("dim-board-flush-{}", std::process::id()));
        let path = dir.join(STATUS_FILE_NAME);
        let clock = FakeClock::shared(7);
        let board = StatusBoard::new(
            Some(path.clone()),
            StatusEntry::default(),
            1,
            Arc::clone(&clock) as SharedClock,
        );
        let on_disk = || read_status(&path).expect("status file").entries[0].done;
        board.update(|e| e[0].done = 1);
        board.update(|e| e[0].done = 2);
        assert_eq!(on_disk(), 1, "held back by the throttle");
        board.flush();
        assert_eq!(on_disk(), 2, "a flush writes a held-back mutation at once");
        std::fs::remove_file(&path).expect("status file");
        board.flush();
        assert!(!path.exists(), "nothing held back, nothing written");
        clock.advance(STATUS_REWRITE_NANOS - 1);
        board.update(|e| e[0].done = 3);
        assert!(!path.exists(), "a flush's write starts a new 100-ms window");
        clock.advance(1);
        board.update(|e| e[0].done = 4);
        assert_eq!(on_disk(), 4);
        std::fs::remove_dir_all(&dir).ok();
    }
}
