//! # dim-cli
//!
//! Library backing the `dim` command-line tool: assemble, disassemble,
//! run and transparently accelerate MIPS programs from the shell.
//!
//! ```
//! let mut out = Vec::new();
//! dim_cli::dispatch(&["help".into()], &mut out)?;
//! assert!(String::from_utf8(out)?.contains("usage"));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

mod debugger;
mod spans;

pub use debugger::debug_session;

use dim_cgra::{ArrayShape, ShapeChoice, StreamingCert};
use dim_core::{System, SystemConfig};
use dim_mips::asm::{assemble, Program};
use dim_mips::{disassemble_labeled, image};
use dim_mips_sim::{HaltReason, Machine, Profiler};
use dim_obs::status::{read_status, StatusEntry, STATUS_FILE_NAME};
use dim_obs::{
    ArrayInvoke, CycleProfiler, FlightRecorder, JsonlSink, MetricsRegistry, Probe, ProbeEvent,
};
use dim_workloads::Scale;
use std::fmt;
use std::io::{BufWriter, Write};
use std::path::Path;

/// CLI failure: carries the message shown to the user.
#[derive(Debug)]
pub struct CliError(String);

impl CliError {
    fn new(msg: impl Into<String>) -> CliError {
        CliError(msg.into())
    }
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for CliError {}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError(e.to_string())
    }
}

const USAGE: &str = "\
usage: dim <command> [options]

commands:
  asm    <in.s> [-o <out.dimg>]      assemble to a program image
  disasm <file>                      disassemble an image or source file
  run    <file> [--max-steps N] [--profile] [--caches] [--trace-out <t.jsonl>]
                [--telemetry-interval N]
                                     run on the plain MIPS simulator
  accel  <file> [--config 1|2|3|ideal] [--slots N] [--no-spec] [--compare]
                [--dump-configs] [--trace] [--trace-out <t.jsonl>] [--metrics]
                [--rcache-save <f.dimrc>] [--rcache-load <f.dimrc>]
                [--telemetry-interval N] [--flight N] [--watchdog]
                [--flight-out <f.jsonl>] [--certs <f.jsonl>]
                                     run with the DIM accelerator attached;
                                     rcache snapshots warm-start later runs;
                                     --flight keeps a last-N-events ring,
                                     --watchdog checks stream invariants live
                                     and fails (with a flight dump) on a trip,
                                     --flight-out always dumps the window,
                                     --certs installs `dim prove` streaming
                                     certificates so matching commits tag
                                     their rcache entries stream_ok(K)
  profile <file> [--config 1|2|3|ideal] [--slots N] [--no-spec] [--caches]
                 [--top N] [--json] [--max-steps N]
                                     per-block cycle attribution of an
                                     accelerated run
  trace  <t.jsonl> [--stats]         validate a trace and print its summary
                                     (--stats adds per-kind record counts and,
                                     for flight dumps, per-kind drop totals)
  heat   <t.jsonl | file> [--json] [--rows N] [--chrome-out <f.json>]
                [--config 1|2|3|ideal] [--slots N] [--no-spec] [--max-steps N]
                                     per-unit fabric utilization heatmap: from a
                                     schema-v4 trace (aggregate + traversal
                                     depth profile, Chrome counter export) or by
                                     running a workload (exact per-row per-class
                                     occupancy, reconciled against the cycle
                                     breakdown)
  explain <t.jsonl> [--top N] [--json] [--chrome-out <f.json>]
                    [--folded-out <f.folded>]
                                     region-level acceleration forensics over a
                                     trace: lifecycle table, missed-speedup
                                     ranking, Chrome-trace timeline and
                                     collapsed-stack flamegraph exports
  compare <file> [--max-steps N]     cycles on scalar / 2-wide superscalar /
                                     DIM configs #1..#3 side by side
  suite  [--scale tiny|small|full]   run + validate the MiBench-like suite
  sweep  <spec> [--jobs N] [--out <dir>] [--limit N] [--warm on|off]
                [--bench-out <dir>] [--explain] [--flight N]
                [--telemetry-interval N]
                                     expand a sweep spec and run the grid on a
                                     work-stealing pool (resumable; see
                                     docs/sweeps.md for the spec format); live
                                     status lands in <dir>/status.dimstat and
                                     failing cells dump their flight window to
                                     <dir>/flight/ (--flight 0 disables)
  top    <dir-or-status-file> [--follow]
                                     render the live telemetry published by a
                                     running sweep or accel: per-worker state,
                                     progress, rcache hit rate, sim-MIPS, and —
                                     for serving daemons — p99 request latency
                                     and queue depth
                                     (--follow polls until the run finishes)
  perf   record --out <f.json> [--name N] [--workloads a,b,c] [--scale S]
                [--shape 1|2|3] [--slots N] [--no-spec] [--reps N]
                [--bench-out <dir>]
                                     run the workload matrix and write a
                                     versioned performance baseline
  perf   compare <base> <current> [--json]
                                     diff two baselines metric by metric with
                                     a cycle-attribution waterfall
  perf   gate --baseline <f.json> [--current <f.json>]
              [--tolerance-spec <f.toml>] [--json]
                                     re-record (or load --current) and fail on
                                     regressions beyond per-metric tolerances
  lint   <file> [--allow C1,C2] [--json] [--candidates] [--config 1|2|3]
                                     static CFG/dataflow analysis of a workload
                                     binary; --candidates adds the static set
                                     of DIM-accelerable regions
  lint   --suite [--scale tiny|small|full] [--json]
                                     lint all bundled workloads with their
                                     per-workload allowlists applied
  verify <f.dimrc> [--json]          structurally verify every configuration
                                     in an rcache snapshot
  prove  <file> [--json] [--cert-out <f.jsonl>]
                                     static stride/alias prover: classify every
                                     memory access of every self-loop, run the
                                     cross-iteration alias test, and emit
                                     streaming-eligibility certificates for
                                     regions that pass
  prove  --suite [--scale tiny|small|full] [--json] [--cert-out <f.jsonl>]
                                     prove all bundled workloads
  prove  --check <f.jsonl>           re-validate a certificate file (version,
                                     checksum, structural invariants)
  serve  --socket <path> [--jobs N] [--queue N] [--tenant-quota N]
         [--shard-dir <dir>] [--status-dir <dir>] [--flight N]
         [--telemetry-interval N]
                                     persistent acceleration daemon on a Unix
                                     socket: bounded request queue with busy
                                     backpressure, per-tenant quotas, and
                                     shared verifier-gated warm rcache shards
                                     that warm-start from and drain to
                                     <shard-dir>/*.dimrc; live telemetry in
                                     <status-dir>/status.dimstat (dim top) and
                                     a wall-clock span dump in
                                     <status-dir>/spans.dimspan at drain
                                     (dim spans)
  serve  --selftest [--jobs N] [--clients N] [--requests N] [--bench-out <dir>]
                                     in-process load generator against a real
                                     daemon: cold-vs-warm ramp, latency
                                     percentiles, and span-derived stage
                                     breakdowns -> BENCH_serve.json (the span
                                     dump lands beside it)
  submit <socket> <request.file> [--json]
                                     send one request file to a running daemon
                                     and print the reply (see docs/serving.md)
  spans  <spans.dimspan> [--json] [--chrome-out <f.json>]
                                     analyze a wall-clock span dump from serve
                                     or sweep: per-stage latency percentiles,
                                     per-tenant aggregation, the slowest
                                     request's waterfall + critical path, and
                                     engine host-time attribution; exits
                                     non-zero on span-law violations
  debug  <file> [--script <cmds>]    scriptable debugger (stdin by default)
  help                               show this text

<file> may be assembly source (.s) or a `dim asm` image (.dimg).
";

/// Loads a program from either assembly source or an image file,
/// deciding by content (image magic) rather than extension.
fn load_program(path: &str) -> Result<Program, CliError> {
    let bytes =
        std::fs::read(Path::new(path)).map_err(|e| CliError::new(format!("{path}: {e}")))?;
    if bytes.starts_with(b"DIM1") {
        return image::load(&bytes).map_err(|e| CliError::new(format!("{path}: {e}")));
    }
    let src = String::from_utf8(bytes)
        .map_err(|_| CliError::new(format!("{path}: not UTF-8 assembly source")))?;
    assemble(&src).map_err(|e| CliError::new(format!("{path}:{e}")))
}

/// Strict argument validation: every flag must be known, flags taking a
/// value must have one (another of the command's flags is not a value),
/// no flag may repeat, and at most `positionals` non-flag arguments are
/// accepted. A typo like `--slot 16` must fail loudly rather than
/// silently run with defaults. Returns the positional arguments in
/// order: a command takes its inputs from them, never from `args`, so a
/// flag before the input or a flag's value is never read as the input.
fn check_flags<'a>(
    cmd: &str,
    args: &'a [String],
    value_flags: &[&str],
    bool_flags: &[&str],
    positionals: usize,
) -> Result<Vec<&'a str>, CliError> {
    let mut seen: Vec<&str> = Vec::new();
    let mut found = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let arg = args[i].as_str();
        if arg.starts_with('-') {
            if seen.contains(&arg) {
                return Err(CliError::new(format!(
                    "{cmd}: `{arg}` given more than once"
                )));
            }
            if value_flags.contains(&arg) {
                match args.get(i + 1).map(String::as_str) {
                    Some(v) if !value_flags.contains(&v) && !bool_flags.contains(&v) => {}
                    _ => return Err(CliError::new(format!("{arg} requires a value"))),
                }
                i += 1;
            } else if !bool_flags.contains(&arg) {
                return Err(CliError::new(format!(
                    "{cmd}: unknown flag `{arg}` (see `dim help`)"
                )));
            }
            seen.push(arg);
        } else {
            if found.len() == positionals {
                return Err(CliError::new(format!("{cmd}: unexpected argument `{arg}`")));
            }
            found.push(arg);
        }
        i += 1;
    }
    Ok(found)
}

fn parse_flag_value<'a>(args: &'a [String], flag: &str) -> Result<Option<&'a str>, CliError> {
    match args.iter().position(|a| a == flag) {
        None => Ok(None),
        Some(i) => args
            .get(i + 1)
            .map(std::string::String::as_str)
            .map(Some)
            .ok_or_else(|| CliError::new(format!("{flag} requires a value"))),
    }
}

/// Parses a numeric `--flag N`, naming the flag when `N` is not a
/// number. `None` when the flag is absent.
fn parse_num_flag<T: std::str::FromStr>(
    args: &[String],
    flag: &str,
) -> Result<Option<T>, CliError> {
    parse_flag_value(args, flag)?
        .map(|v| {
            v.parse()
                .map_err(|_| CliError::new(format!("{flag}: not a number")))
        })
        .transpose()
}

/// Parses a named `--flag NAME` (a scale or a Table 1 shape name),
/// naming the flag when `NAME` is unknown. `None` when the flag is
/// absent.
fn parse_name_flag<T: std::str::FromStr>(
    args: &[String],
    flag: &str,
) -> Result<Option<T>, CliError> {
    parse_flag_value(args, flag)?
        .map(|v| {
            v.parse()
                .map_err(|_| CliError::new(format!("{flag}: unknown `{v}`")))
        })
        .transpose()
}

/// Flight-recorder window `dim accel` uses when `--watchdog` or
/// `--flight-out` asks for a recorder without `--flight` sizing one.
const DEFAULT_ACCEL_FLIGHT: usize = 65_536;

/// Array invocations `dim accel --trace` prints.
const TRACE_WINDOW: usize = 64;

/// `dim accel --trace`: a flight recorder that keeps only array
/// invocations, so its window holds the last [`TRACE_WINDOW`] of them.
struct InvocationWindow(FlightRecorder);

impl Probe for InvocationWindow {
    fn emit(&mut self, event: ProbeEvent) {
        if let ProbeEvent::ArrayInvoke(_) = event {
            self.0.emit(event);
        }
    }
}

/// One `--trace` line.
fn invocation_line(inv: &ArrayInvoke) -> String {
    format!(
        "array @ {:#010x}: {} instrs, depth {}, {} cycles -> {:#010x}{}",
        inv.entry_pc,
        inv.covered,
        inv.spec_depth,
        inv.total_cycles(),
        inv.exit_pc,
        if inv.misspeculated {
            "  [misspeculated]"
        } else {
            ""
        },
    )
}

/// Renders an [`InvocationWindow`]: how many earlier invocations fell
/// out of it, then one line per retained invocation, oldest first.
fn render_invocations(window: &FlightRecorder, out: &mut impl Write) -> Result<(), CliError> {
    if window.total_dropped() > 0 {
        writeln!(
            out,
            "... {} earlier invocations dropped ...",
            window.total_dropped()
        )?;
    }
    for event in window.events() {
        if let ProbeEvent::ArrayInvoke(inv) = event {
            writeln!(out, "{}", invocation_line(&inv))?;
        }
    }
    Ok(())
}

/// Shared parsing for `--telemetry-interval`, used identically by
/// `run`, `accel` and `sweep`: a positive cycle count. 0 is rejected
/// rather than silently meaning "off" — omitting the flag means off.
fn parse_telemetry_interval(args: &[String]) -> Result<Option<u64>, CliError> {
    let interval: Option<u64> = parse_num_flag(args, "--telemetry-interval")?;
    if interval == Some(0) {
        return Err(CliError::new(
            "--telemetry-interval: must be at least 1 cycle (omit the flag to disable)",
        ));
    }
    Ok(interval)
}

type FileSink = JsonlSink<BufWriter<std::fs::File>>;

fn open_trace_sink(path: &str, workload: &str, bits_per_config: u64) -> Result<FileSink, CliError> {
    let file = std::fs::File::create(path)
        .map_err(|e| CliError::new(format!("--trace-out {path}: {e}")))?;
    Ok(JsonlSink::new(
        BufWriter::new(file),
        workload,
        bits_per_config,
    ))
}

fn close_trace_sink(mut sink: FileSink, path: &str, out: &mut impl Write) -> Result<(), CliError> {
    sink.finish();
    let events = sink.events();
    let (_, io_err) = sink.into_inner();
    if let Some(e) = io_err {
        return Err(CliError::new(format!("--trace-out {path}: {e}")));
    }
    writeln!(out, "trace: {events} events -> {path}")?;
    Ok(())
}

fn attach_caches(machine: &mut Machine) {
    use dim_mips_sim::{CacheConfig, CacheSim};
    machine.icache = Some(CacheSim::new(CacheConfig::icache_4k()));
    machine.dcache = Some(CacheSim::new(CacheConfig::dcache_4k()));
}

fn report_halt(out: &mut impl Write, halt: HaltReason) -> Result<(), CliError> {
    match halt {
        HaltReason::Exit(code) => writeln!(out, "program exited (code {code})")?,
        HaltReason::StepLimit => writeln!(out, "step limit reached before the program halted")?,
    }
    Ok(())
}

fn cmd_asm(args: &[String], out: &mut impl Write) -> Result<(), CliError> {
    let input = check_flags("asm", args, &["-o"], &[], 1)?
        .first()
        .copied()
        .ok_or_else(|| CliError::new("asm: missing input file"))?;
    let program = load_program(input)?;
    let default_out = format!("{}.dimg", input.strip_suffix(".s").unwrap_or(input));
    let output = parse_flag_value(args, "-o")?.unwrap_or(&default_out);
    std::fs::write(output, image::save(&program))?;
    writeln!(
        out,
        "{}: {} instructions, {} data bytes -> {}",
        input,
        program.text.len(),
        program.data.len(),
        output
    )?;
    Ok(())
}

fn cmd_disasm(args: &[String], out: &mut impl Write) -> Result<(), CliError> {
    let input = check_flags("disasm", args, &[], &[], 1)?
        .first()
        .copied()
        .ok_or_else(|| CliError::new("disasm: missing input file"))?;
    let program = load_program(input)?;
    write!(
        out,
        "{}",
        disassemble_labeled(program.text_base, &program.text)
    )?;
    Ok(())
}

fn cmd_run(args: &[String], out: &mut impl Write) -> Result<(), CliError> {
    let input = check_flags(
        "run",
        args,
        &["--max-steps", "--trace-out", "--telemetry-interval"],
        &["--profile", "--caches"],
        1,
    )?
    .first()
    .copied()
    .ok_or_else(|| CliError::new("run: missing input file"))?;
    let program = load_program(input)?;
    let max_steps: u64 = parse_num_flag(args, "--max-steps")?.unwrap_or(100_000_000);
    let mut machine = Machine::load(&program);
    if args.iter().any(|a| a == "--caches") {
        attach_caches(&mut machine);
    }
    let trace_out = parse_flag_value(args, "--trace-out")?;
    let telemetry = parse_telemetry_interval(args)?;
    if telemetry.is_some() && trace_out.is_none() {
        return Err(CliError::new(
            "run: --telemetry-interval requires --trace-out (it sets the \
             trace's telemetry cadence)",
        ));
    }
    let halt = if let Some(path) = trace_out {
        if args.iter().any(|a| a == "--profile") {
            return Err(CliError::new(
                "run: --profile and --trace-out are mutually exclusive",
            ));
        }
        // A plain pipeline run has no reconfiguration cache, so the
        // header records 0 bits per configuration.
        let mut sink = open_trace_sink(path, input, 0)?;
        if let Some(interval) = telemetry {
            sink.set_telemetry_interval(interval);
        }
        let halt = machine
            .run_probed(max_steps, &mut sink)
            .map_err(|e| CliError::new(e.to_string()))?;
        close_trace_sink(sink, path, out)?;
        halt
    } else if args.iter().any(|a| a == "--profile") {
        let mut profiler = Profiler::new();
        let halt = machine
            .run_with(max_steps, |i| profiler.observe(i))
            .map_err(|e| CliError::new(e.to_string()))?;
        let profile = profiler.finish();
        writeln!(out, "basic blocks: {}", profile.block_count())?;
        writeln!(
            out,
            "instructions/branch: {:.2}",
            profile.instructions_per_branch()
        )?;
        for (frac, n) in profile.coverage_curve(&[0.5, 0.9, 0.99]) {
            writeln!(out, "blocks for {:.0}% coverage: {n}", frac * 100.0)?;
        }
        halt
    } else {
        machine
            .run(max_steps)
            .map_err(|e| CliError::new(e.to_string()))?
    };
    if !machine.output.is_empty() {
        writeln!(out, "--- program output ---")?;
        out.write_all(&machine.output)?;
        writeln!(out, "\n----------------------")?;
    }
    writeln!(
        out,
        "{} instructions, {} cycles (IPC {:.2})",
        machine.stats.instructions,
        machine.stats.cycles,
        machine.stats.ipc()
    )?;
    if let Some(d) = &machine.dcache {
        writeln!(
            out,
            "dcache miss rate: {:.2}%",
            100.0 * d.stats().miss_rate()
        )?;
    }
    report_halt(out, halt)
}

fn cmd_accel(args: &[String], out: &mut impl Write) -> Result<(), CliError> {
    let input = check_flags(
        "accel",
        args,
        &[
            "--config",
            "--slots",
            "--max-steps",
            "--trace-out",
            "--rcache-save",
            "--rcache-load",
            "--telemetry-interval",
            "--flight",
            "--flight-out",
            "--certs",
        ],
        &[
            "--no-spec",
            "--compare",
            "--dump-configs",
            "--trace",
            "--metrics",
            "--watchdog",
        ],
        1,
    )?
    .first()
    .copied()
    .ok_or_else(|| CliError::new("accel: missing input file"))?;
    let program = load_program(input)?;
    let choice = parse_name_flag(args, "--config")?.unwrap_or(ShapeChoice::Config1);
    let slots: usize = parse_num_flag(args, "--slots")?.unwrap_or(64);
    let speculation = !args.iter().any(|a| a == "--no-spec");
    let max_steps: u64 = parse_num_flag(args, "--max-steps")?.unwrap_or(100_000_000);
    let rcache_load = parse_flag_value(args, "--rcache-load")?;
    let rcache_save = parse_flag_value(args, "--rcache-save")?;
    if (rcache_load.is_some() || rcache_save.is_some()) && choice == ShapeChoice::Ideal {
        return Err(CliError::new(
            "accel: rcache snapshots are not supported with --config ideal \
             (the idealized array has no finite cache to persist)",
        ));
    }

    let mut system = System::new(
        Machine::load(&program),
        SystemConfig::new(choice.shape(), slots, speculation),
    );
    if let Some(path) = rcache_load {
        let bytes =
            std::fs::read(path).map_err(|e| CliError::new(format!("--rcache-load {path}: {e}")))?;
        system.load_rcache(&bytes).map_err(|e| {
            CliError::new(format!(
                "--rcache-load {path}: {e}\n\
                 hint: a snapshot only loads into a system with the same \
                 --config, --slots and speculation settings it was saved from"
            ))
        })?;
        writeln!(
            out,
            "rcache: loaded {} configuration(s) from {path}",
            system.cache().len()
        )?;
    }
    let certs_path = parse_flag_value(args, "--certs")?;
    if let Some(path) = certs_path {
        let text = std::fs::read_to_string(path)
            .map_err(|e| CliError::new(format!("--certs {path}: {e}")))?;
        let mut certs = Vec::new();
        for (i, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            certs.push(
                StreamingCert::parse_json(line)
                    .map_err(|e| CliError::new(format!("--certs {path}:{}: {e}", i + 1)))?,
            );
        }
        let installed = system
            .install_stream_certs(certs)
            .map_err(|e| CliError::new(format!("--certs {path}: {e}")))?;
        writeln!(
            out,
            "stream: installed {installed} certificate(s) from {path}"
        )?;
    }
    let mut window = args
        .iter()
        .any(|a| a == "--trace")
        .then(|| InvocationWindow(FlightRecorder::new(TRACE_WINDOW)));
    let trace_out = parse_flag_value(args, "--trace-out")?;
    let telemetry = parse_telemetry_interval(args)?;
    let want_metrics = args.iter().any(|a| a == "--metrics");
    let flight_out = parse_flag_value(args, "--flight-out")?;
    let want_watchdog = args.iter().any(|a| a == "--watchdog");
    let flight_capacity: Option<usize> = parse_num_flag(args, "--flight")?;
    if flight_capacity == Some(0) {
        return Err(CliError::new(
            "--flight: capacity must be at least 1 event \
             (omit the flag to disable the recorder)",
        ));
    }
    // --watchdog and --flight-out imply a recorder; give it a roomy
    // default window when --flight didn't size one explicitly.
    let flight_capacity = flight_capacity
        .or_else(|| (want_watchdog || flight_out.is_some()).then_some(DEFAULT_ACCEL_FLIGHT));

    if telemetry.is_some() && trace_out.is_none() {
        return Err(CliError::new(
            "accel: --telemetry-interval requires --trace-out (it sets the \
             trace's telemetry cadence)",
        ));
    }

    let mut metrics = want_metrics.then(MetricsRegistry::new);
    let mut sink: Option<FileSink> = match trace_out {
        Some(path) => {
            let mut s = open_trace_sink(path, input, system.stored_bits_per_config())?;
            if let Some(interval) = telemetry {
                s.set_telemetry_interval(interval);
            }
            Some(s)
        }
        None => None,
    };
    let mut guard =
        flight_capacity.map(|capacity| dim_sweep::flight_guard(input, capacity, &system));

    let halt = if metrics.is_some() || sink.is_some() || guard.is_some() || window.is_some() {
        let mut probe = (
            sink.as_mut(),
            (metrics.as_mut(), (guard.as_mut(), window.as_mut())),
        );
        let halt = system
            .run_probed(max_steps, &mut probe)
            .map_err(|e| CliError::new(e.to_string()))?;
        probe.finish();
        halt
    } else {
        system
            .run(max_steps)
            .map_err(|e| CliError::new(e.to_string()))?
    };
    if let Some(sink) = sink.take() {
        close_trace_sink(sink, trace_out.unwrap_or_default(), out)?;
    }

    if let Some(g) = &guard {
        let tripped = g.violation().is_some();
        // A forced dump always lands at --flight-out; a watchdog trip
        // with no destination still dumps, next to the input.
        let dump_path: Option<String> = match flight_out {
            Some(path) => Some(path.to_string()),
            None if tripped => Some(format!("{input}.flight.jsonl")),
            None => None,
        };
        if let Some(path) = &dump_path {
            let text = g.trip_dump().map_or_else(|| g.dump(), str::to_string);
            std::fs::write(path, text)
                .map_err(|e| CliError::new(format!("--flight-out {path}: {e}")))?;
            writeln!(
                out,
                "flight: {} of {} event(s) retained ({} dropped) -> {path}",
                g.recorder().retained(),
                g.recorder().total(),
                g.recorder().total_dropped(),
            )?;
        }
        if let Some(v) = g.violation() {
            return Err(CliError::new(format!(
                "accel: watchdog {v}{}",
                dump_path
                    .map(|p| format!(" (flight dump: {p})"))
                    .unwrap_or_default()
            )));
        }
    }
    if !system.machine().output.is_empty() {
        writeln!(out, "--- program output ---")?;
        out.write_all(&system.machine().output)?;
        writeln!(out, "\n----------------------")?;
    }
    writeln!(out, "{}", system.report())?;
    if certs_path.is_some() {
        writeln!(
            out,
            "stream: {} commit(s) tagged stream_ok, {} rcache entry(ies) tagged now",
            system.stream_tags_applied(),
            system.cache().stream_tag_count()
        )?;
    }
    if let Some(metrics) = &metrics {
        render_metrics(&system, metrics, out)?;
    }
    if let Some(InvocationWindow(window)) = &window {
        writeln!(out, "--- last array invocations ---")?;
        render_invocations(window, out)?;
    }
    if args.iter().any(|a| a == "--dump-configs") {
        for config in system.cache().iter() {
            write!(out, "{}", dim_cgra::render_occupancy(config))?;
        }
    }
    if args.iter().any(|a| a == "--compare") {
        let mut baseline = Machine::load(&program);
        baseline
            .run(max_steps)
            .map_err(|e| CliError::new(e.to_string()))?;
        writeln!(
            out,
            "baseline {} cycles -> speedup {:.2}x",
            baseline.stats.cycles,
            baseline.stats.cycles as f64 / system.total_cycles().max(1) as f64
        )?;
    }
    if let Some(path) = rcache_save {
        let bytes = system.save_rcache();
        dim_sweep::atomic_write(Path::new(path), &bytes)
            .map_err(|e| CliError::new(format!("--rcache-save {path}: {e}")))?;
        writeln!(
            out,
            "rcache: saved {} configuration(s) ({} bytes) to {path}",
            system.cache().len(),
            bytes.len()
        )?;
    }
    report_halt(out, halt)
}

/// `dim accel --metrics`: the run's totals, read from the counters the
/// system keeps, then what only the registry measured.
fn render_metrics(
    system: &System,
    metrics: &MetricsRegistry,
    out: &mut impl Write,
) -> Result<(), CliError> {
    let cycles = system.cycle_breakdown();
    let stats = system.stats();
    let cache = system.cache();
    let (hits, misses) = cache.hit_miss();
    writeln!(out, "--- metrics ---")?;
    writeln!(
        out,
        "pipeline: {} retired, {} base + {} i-stall + {} d-stall cycles",
        system.machine().stats.instructions,
        cycles.pipeline,
        cycles.i_stall,
        cycles.d_stall
    )?;
    writeln!(
        out,
        "translator: {} regions, {} commits ({} partial)",
        metrics.trans_begins, stats.configs_built, metrics.trans_partials
    )?;
    writeln!(
        out,
        "rcache: {hits} hits / {misses} misses, {} inserts ({} evictions: {} live, {} dead), {} flushes",
        cache.insertions(),
        cache.evictions(),
        cache.evictions_live(),
        cache.evictions_dead(),
        cache.flushes()
    )?;
    writeln!(
        out,
        "array: {} invocations ({} misspeculated), {} cycles",
        stats.array_invocations,
        stats.misspeculations,
        stats.total_array_cycles()
    )?;
    write!(out, "{}", metrics.render())?;
    Ok(())
}

fn cmd_sweep(args: &[String], out: &mut impl Write) -> Result<(), CliError> {
    use dim_sweep::{bench_compare, run_sweep, SweepOptions, SweepSpec};
    let input = check_flags(
        "sweep",
        args,
        &[
            "--jobs",
            "--out",
            "--limit",
            "--bench-out",
            "--warm",
            "--flight",
            "--telemetry-interval",
        ],
        &["--explain"],
        1,
    )?
    .first()
    .copied()
    .ok_or_else(|| CliError::new("sweep: missing spec file"))?;
    let text = std::fs::read_to_string(Path::new(input))
        .map_err(|e| CliError::new(format!("{input}: {e}")))?;
    let spec = SweepSpec::parse(&text).map_err(|e| CliError::new(format!("{input}: {e}")))?;
    let jobs: usize = parse_num_flag(args, "--jobs")?.unwrap_or(1);
    if jobs == 0 {
        return Err(CliError::new("--jobs: must be at least 1"));
    }
    let limit: Option<usize> = parse_num_flag(args, "--limit")?;
    let warm = parse_flag_value(args, "--warm")?
        .map(|v| match v {
            "on" => Ok(true),
            "off" => Ok(false),
            other => Err(CliError::new(format!(
                "--warm: expected on|off, got `{other}`"
            ))),
        })
        .transpose()?;

    if let Some(bench_out) = parse_flag_value(args, "--bench-out")? {
        if limit.is_some() {
            return Err(CliError::new(
                "sweep: --limit and --bench-out are mutually exclusive \
                 (a truncated run cannot be compared)",
            ));
        }
        let compare = bench_compare(&spec, Path::new(bench_out), jobs)
            .map_err(|e| CliError::new(e.to_string()))?;
        writeln!(
            out,
            "bench: {} cells, serial {:.3}s, parallel({}) {:.3}s, speedup {:.2}x, identical: {}",
            compare.cells,
            compare.serial_seconds,
            compare.jobs,
            compare.parallel_seconds,
            compare.speedup,
            compare.identical
        )?;
        writeln!(
            out,
            "wrote {}",
            Path::new(bench_out).join("BENCH_sweep.json").display()
        )?;
        if !compare.identical {
            return Err(CliError::new(
                "sweep: parallel results diverged from serial — this is an engine bug",
            ));
        }
        return Ok(());
    }

    let out_dir = parse_flag_value(args, "--out")?.unwrap_or("sweep-out");
    let mut opts = SweepOptions::new(Path::new(out_dir).to_path_buf());
    opts.jobs = jobs;
    opts.limit = limit;
    opts.warm_rcache = warm;
    opts.explain = args.iter().any(|a| a == "--explain");
    // Unlike accel's, sweep's recorder is on by default; `--flight 0`
    // switches the per-worker recorder + watchdog off.
    if let Some(capacity) = parse_num_flag(args, "--flight")? {
        opts.flight_capacity = capacity;
    }
    opts.telemetry_interval = parse_telemetry_interval(args)?.unwrap_or(0);
    let outcome = run_sweep(&spec, &opts).map_err(|e| CliError::new(e.to_string()))?;
    if opts.explain && outcome.executed > 0 {
        writeln!(
            out,
            "forensics: per-cell explain reports under {}",
            opts.out_dir.join("explain").display()
        )?;
    }
    writeln!(
        out,
        "telemetry: {} (watch with `dim top {} --follow`)",
        opts.out_dir.join(STATUS_FILE_NAME).display(),
        opts.out_dir.display()
    )?;
    writeln!(
        out,
        "sweep: {} cells ({} executed, {} skipped) in {:.3}s with {} worker(s), {} steal(s)",
        outcome.total_cells,
        outcome.executed,
        outcome.skipped,
        outcome.wall_seconds,
        outcome.pool.threads,
        outcome.pool.total_steals()
    )?;
    if outcome.complete {
        writeln!(
            out,
            "complete: report at {}",
            opts.out_dir.join("report.txt").display()
        )?;
    } else {
        writeln!(
            out,
            "incomplete ({} cells remain): rerun the same command to resume",
            outcome.total_cells - outcome.executed - outcome.skipped
        )?;
    }
    Ok(())
}

fn cmd_profile(args: &[String], out: &mut impl Write) -> Result<(), CliError> {
    let input = check_flags(
        "profile",
        args,
        &["--config", "--slots", "--max-steps", "--top"],
        &["--no-spec", "--caches", "--json"],
        1,
    )?
    .first()
    .copied()
    .ok_or_else(|| CliError::new("profile: missing input file"))?;
    let program = load_program(input)?;
    let shape = parse_name_flag(args, "--config")?
        .unwrap_or(ShapeChoice::Config1)
        .shape();
    let slots: usize = parse_num_flag(args, "--slots")?.unwrap_or(64);
    let speculation = !args.iter().any(|a| a == "--no-spec");
    let max_steps: u64 = parse_num_flag(args, "--max-steps")?.unwrap_or(100_000_000);
    let top: usize = parse_num_flag(args, "--top")?.unwrap_or(20);

    let mut system = System::new(
        Machine::load(&program),
        SystemConfig::new(shape, slots, speculation),
    );
    if args.iter().any(|a| a == "--caches") {
        attach_caches(system.machine_mut());
    }
    let mut profiler = CycleProfiler::new();
    let halt = system
        .run_probed(max_steps, &mut profiler)
        .map_err(|e| CliError::new(e.to_string()))?;
    let profile = profiler.into_profile();
    if profile.total_cycles() != system.total_cycles() {
        return Err(CliError::new(format!(
            "cycle attribution mismatch: profile accounts for {} cycles, run took {} — \
             this is a simulator bug",
            profile.total_cycles(),
            system.total_cycles()
        )));
    }
    if args.iter().any(|a| a == "--json") {
        writeln!(out, "{}", profile.to_json())?;
        return Ok(());
    }
    write!(out, "{}", profile.render(top))?;
    report_halt(out, halt)
}

fn cmd_trace(args: &[String], out: &mut impl Write) -> Result<(), CliError> {
    let input = check_flags("trace", args, &[], &["--stats"], 1)?
        .first()
        .copied()
        .ok_or_else(|| CliError::new("trace: missing trace file"))?;
    let text = std::fs::read_to_string(Path::new(input))
        .map_err(|e| CliError::new(format!("{input}: {e}")))?;
    let trace =
        dim_obs::replay::read_trace(&text).map_err(|e| CliError::new(format!("{input}: {e}")))?;
    let s = &trace.summary;
    writeln!(
        out,
        "valid trace: workload `{}`, schema v{}, {} records",
        trace.header.workload,
        trace.header.schema_version,
        trace.records.len()
    )?;
    writeln!(
        out,
        "  pipeline: {} retired, {} cycles",
        s.retired, s.pipeline_cycles
    )?;
    writeln!(
        out,
        "  array:    {} invocations, {} instructions, {} cycles, {} misspeculations",
        s.array_invocations,
        s.array_instructions,
        s.array_exec_cycles + s.reconfig_stall_cycles + s.writeback_tail_cycles,
        s.misspeculations
    )?;
    writeln!(
        out,
        "  rcache:   {} hits, {} misses, {} built, {} flushed",
        s.rcache_hits, s.rcache_misses, s.configs_built, s.config_flushes
    )?;
    writeln!(out, "  total:    {} cycles", s.total_cycles())?;
    if args.iter().any(|a| a == "--stats") {
        writeln!(out, "  records by kind:")?;
        for (kind, count) in trace.record_stats() {
            writeln!(out, "    {kind:<14} {count:>10}")?;
        }
        if !trace.header.dropped.is_empty() {
            let total: u64 = trace.header.dropped.iter().map(|(_, n)| *n).sum();
            writeln!(out, "  dropped by kind (flight window, {total} total):")?;
            for (kind, count) in &trace.header.dropped {
                writeln!(out, "    {kind:<14} {count:>10}")?;
            }
        }
    }
    Ok(())
}

/// Percentage with one decimal, or `-` when the denominator is unknown.
fn heat_pct(num: u64, den: u64) -> String {
    if den == 0 {
        "-".to_string()
    } else {
        format!("{:.1}%", 100.0 * num as f64 / den as f64)
    }
}

/// A `#` bar scaled so the largest value fills `width` columns.
fn heat_bar(value: u64, max: u64, width: usize) -> String {
    if max == 0 {
        return String::new();
    }
    let filled = ((value as f64 / max as f64) * width as f64).round() as usize;
    "#".repeat(filled.min(width))
}

fn cmd_heat(args: &[String], out: &mut impl Write) -> Result<(), CliError> {
    let input = check_flags(
        "heat",
        args,
        &[
            "--config",
            "--slots",
            "--max-steps",
            "--chrome-out",
            "--rows",
        ],
        &["--json", "--no-spec"],
        1,
    )?
    .first()
    .copied()
    .ok_or_else(|| CliError::new("heat: missing trace or workload file"))?;
    let bytes =
        std::fs::read(Path::new(input)).map_err(|e| CliError::new(format!("{input}: {e}")))?;
    let want_json = args.iter().any(|a| a == "--json");
    let row_limit: usize = parse_num_flag(args, "--rows")?.unwrap_or(32);
    // A JSONL trace opens with its `{"type":"header",...}` line; anything
    // else (assembly source, image magic) is a workload to run.
    if bytes.starts_with(b"{") {
        for flag in ["--config", "--slots", "--max-steps", "--no-spec"] {
            if args.iter().any(|a| a == flag) {
                return Err(CliError::new(format!(
                    "heat: `{flag}` only applies when running a workload; `{input}` is a trace"
                )));
            }
        }
        let text = String::from_utf8(bytes)
            .map_err(|_| CliError::new(format!("{input}: not UTF-8 JSONL")))?;
        heat_from_trace(
            input,
            &text,
            want_json,
            parse_flag_value(args, "--chrome-out")?,
            row_limit,
            out,
        )
    } else {
        if parse_flag_value(args, "--chrome-out")?.is_some() {
            return Err(CliError::new(
                "heat: --chrome-out needs per-invocation samples, which only a trace \
                 carries — record one with `dim accel <file> --trace-out <t.jsonl>` \
                 and point `dim heat` at it",
            ));
        }
        heat_from_run(input, args, want_json, row_limit, out)
    }
}

/// Runs `input` accelerated and renders the per-row fabric heat the
/// system accumulated, after checking the accounting reconciles exactly
/// with the cycle breakdown.
fn heat_from_run(
    input: &str,
    args: &[String],
    want_json: bool,
    row_limit: usize,
    out: &mut impl Write,
) -> Result<(), CliError> {
    use dim_cgra::{UNIT_CLASSES, UNIT_CLASS_NAMES};
    use dim_mips::FuClass;

    let program = load_program(input)?;
    let choice = parse_name_flag(args, "--config")?.unwrap_or(ShapeChoice::Config1);
    let shape = choice.shape();
    let slots: usize = parse_num_flag(args, "--slots")?.unwrap_or(64);
    let speculation = !args.iter().any(|a| a == "--no-spec");
    let max_steps: u64 = parse_num_flag(args, "--max-steps")?.unwrap_or(100_000_000);
    let mut system = System::new(
        Machine::load(&program),
        SystemConfig::new(shape, slots, speculation),
    );
    let halt = system
        .run(max_steps)
        .map_err(|e| CliError::new(e.to_string()))?;
    let heat = system.fabric_heat();
    let breakdown = system.cycle_breakdown();
    if heat.exec_cycles + heat.residual_cycles != breakdown.array_exec {
        return Err(CliError::new(format!(
            "fabric accounting mismatch: heat accounts for {} + {} cycles, the run \
             charged {} array-exec cycles — this is a simulator bug",
            heat.exec_cycles, heat.residual_cycles, breakdown.array_exec
        )));
    }
    if want_json {
        writeln!(out, "{}", dim_core::fabric_heat_json(heat))?;
        return Ok(());
    }
    writeln!(
        out,
        "fabric heat: `{input}`, config {}, {} invocation(s)",
        choice
            .number()
            .map_or_else(|| "ideal".to_string(), |n| n.to_string()),
        heat.invocations
    )?;
    let busy = heat.total_busy_thirds();
    writeln!(
        out,
        "  util: {} of unit capacity (alu {}, mult {}, ldst {})",
        heat_pct(busy, heat.total_capacity_thirds()),
        heat_pct(heat.busy_thirds[0], heat.capacity_thirds[0]),
        heat_pct(heat.busy_thirds[1], heat.capacity_thirds[1]),
        heat_pct(heat.busy_thirds[2], heat.capacity_thirds[2]),
    )?;
    let issued: u64 = heat.issued_ops.iter().sum();
    writeln!(
        out,
        "  ops: {} issued, {} squashed ({} of configured)",
        issued,
        heat.squashed_ops,
        heat_pct(heat.squashed_ops, issued + heat.squashed_ops),
    )?;
    writeln!(
        out,
        "  exec: {} cycle(s) in rows + {} residual (stall/misspec) = {} array-exec",
        heat.exec_cycles, heat.residual_cycles, breakdown.array_exec
    )?;
    writeln!(
        out,
        "  writeback: {} write(s) into {} port-slot(s) ({} saturated)",
        heat.writeback_writes,
        heat.writeback_slots,
        heat_pct(heat.writeback_writes, heat.writeback_slots),
    )?;
    // Per-row heatmap: busy% per class against that row's physical units
    // over the same traversal windows.
    let per_row_units: [u64; UNIT_CLASSES] = [
        shape.units_per_row(FuClass::Alu) as u64,
        shape.units_per_row(FuClass::Multiplier) as u64,
        shape.units_per_row(FuClass::LoadStore) as u64,
    ];
    let shown = heat.rows().iter().take(row_limit);
    let max_traversals = heat.rows().iter().map(|r| r.traversals).max().unwrap_or(0);
    writeln!(
        out,
        "  {:>7} {:>10} {:>7} {:>7} {:>7}  traversals",
        "row", "trav", UNIT_CLASS_NAMES[0], UNIT_CLASS_NAMES[1], UNIT_CLASS_NAMES[2]
    )?;
    for (i, row) in shown.enumerate() {
        if row.traversals == 0 {
            continue;
        }
        let class_pct =
            |c: usize| heat_pct(row.busy_thirds[c], per_row_units[c] * row.active_thirds);
        writeln!(
            out,
            "  row {:>3} {:>10} {:>7} {:>7} {:>7}  {}",
            i,
            row.traversals,
            class_pct(0),
            class_pct(1),
            class_pct(2),
            heat_bar(row.traversals, max_traversals, 32),
        )?;
    }
    if heat.rows().len() > row_limit || heat.overflow_row().traversals > 0 {
        let hidden: u64 = heat
            .rows()
            .iter()
            .skip(row_limit)
            .map(|r| r.traversals)
            .sum::<u64>()
            + heat.overflow_row().traversals;
        writeln!(
            out,
            "  ... deeper rows: {hidden} traversal(s) (raise --rows to see them)"
        )?;
    }
    report_halt(out, halt)
}

/// Summarizes the schema-v4 `fabric` records of an existing trace, with
/// optional Chrome counter-track export sampled per invocation.
fn heat_from_trace(
    input: &str,
    text: &str,
    want_json: bool,
    chrome_out: Option<&str>,
    row_limit: usize,
    out: &mut impl Write,
) -> Result<(), CliError> {
    use dim_obs::replay::{read_trace, TraceRecord};
    use dim_obs::{ObjectWriter, ProbeEvent};

    let trace = read_trace(text).map_err(|e| CliError::new(format!("{input}: {e}")))?;
    let s = trace.summary;
    // Traversal-depth profile (how many invocations reached each row)
    // and, when exporting, one counter sample per invocation on the
    // cumulative simulated-cycle clock.
    let mut depth: Vec<u64> = Vec::new();
    let mut counters: Vec<String> = Vec::new();
    let mut clock: u64 = 0;
    for rec in &trace.records {
        match rec {
            TraceRecord::RetireBatch {
                base_cycles,
                i_stall,
                d_stall,
                ..
            } => clock += base_cycles + i_stall + d_stall,
            TraceRecord::Event(ProbeEvent::Fabric(f)) => {
                for r in 0..f.rows as usize {
                    if r >= depth.len() {
                        depth.resize(r + 1, 0);
                    }
                    depth[r] += 1;
                }
                if chrome_out.is_some() {
                    let mut o = ObjectWriter::new();
                    o.field_str("ph", "C");
                    o.field_u64("pid", 1);
                    o.field_str("name", "fabric busy thirds");
                    o.field_u64("ts", clock);
                    let mut args = ObjectWriter::new();
                    args.field_u64("alu", f.alu_busy_thirds as u64);
                    args.field_u64("mult", f.mult_busy_thirds as u64);
                    args.field_u64("ldst", f.ldst_busy_thirds as u64);
                    o.field_raw("args", &args.finish());
                    counters.push(o.finish());
                    if f.capacity_thirds > 0 {
                        let mut o = ObjectWriter::new();
                        o.field_str("ph", "C");
                        o.field_u64("pid", 1);
                        o.field_str("name", "fabric util %");
                        o.field_u64("ts", clock);
                        let mut args = ObjectWriter::new();
                        args.field_f64(
                            "util",
                            100.0 * f.busy_thirds() as f64 / f.capacity_thirds as f64,
                        );
                        o.field_raw("args", &args.finish());
                        counters.push(o.finish());
                    }
                }
            }
            TraceRecord::Event(ProbeEvent::ArrayInvoke(inv)) => clock += inv.total_cycles(),
            _ => {}
        }
    }
    if let Some(path) = chrome_out {
        let mut export = String::from("{\"traceEvents\":[");
        export.push_str(&counters.join(","));
        export.push_str("],\"displayTimeUnit\":\"ms\"}");
        std::fs::write(path, export)
            .map_err(|e| CliError::new(format!("--chrome-out {path}: {e}")))?;
        writeln!(
            out,
            "chrome counters -> {path} (load in ui.perfetto.dev or chrome://tracing)"
        )?;
    }
    if want_json {
        let busy = s.fabric_alu_busy_thirds + s.fabric_mult_busy_thirds + s.fabric_ldst_busy_thirds;
        let mut o = ObjectWriter::new();
        o.field_str("workload", &trace.header.workload);
        o.field_u64("schema_version", trace.header.schema_version as u64);
        o.field_u64("fabric_records", s.fabric_records);
        o.field_u64("rows", s.fabric_rows);
        o.field_u64("exec_thirds", s.fabric_exec_thirds);
        o.field_u64("capacity_thirds", s.fabric_capacity_thirds);
        let mut classes = ObjectWriter::new();
        classes.field_u64("alu", s.fabric_alu_busy_thirds);
        classes.field_u64("mult", s.fabric_mult_busy_thirds);
        classes.field_u64("ldst", s.fabric_ldst_busy_thirds);
        o.field_raw("busy_thirds", &classes.finish());
        if s.fabric_capacity_thirds > 0 {
            o.field_f64("fabric_util", busy as f64 / s.fabric_capacity_thirds as f64);
        } else {
            o.field_raw("fabric_util", "null");
        }
        o.field_u64("issued_ops", s.fabric_issued_ops);
        o.field_u64("squashed_ops", s.fabric_squashed_ops);
        o.field_u64("residual_cycles", s.fabric_residual_cycles);
        o.field_u64("writeback_writes", s.fabric_writeback_writes);
        o.field_u64("writeback_slots", s.fabric_writeback_slots);
        if s.fabric_writeback_slots > 0 {
            o.field_f64(
                "writeback_saturation",
                s.fabric_writeback_writes as f64 / s.fabric_writeback_slots as f64,
            );
        } else {
            o.field_raw("writeback_saturation", "null");
        }
        o.field_u64("array_exec_cycles", s.array_exec_cycles);
        writeln!(out, "{}", o.finish())?;
        return Ok(());
    }
    writeln!(
        out,
        "fabric heat: workload `{}`, schema v{}, {} fabric record(s)",
        trace.header.workload, trace.header.schema_version, s.fabric_records
    )?;
    if s.fabric_records == 0 {
        writeln!(
            out,
            "  no fabric records — re-record with a schema-v4 `dim accel --trace-out` \
             to capture per-invocation fabric occupancy"
        )?;
        return Ok(());
    }
    let busy = s.fabric_alu_busy_thirds + s.fabric_mult_busy_thirds + s.fabric_ldst_busy_thirds;
    writeln!(
        out,
        "  util: {} of unit capacity (busy share: alu {}, mult {}, ldst {})",
        heat_pct(busy, s.fabric_capacity_thirds),
        heat_pct(s.fabric_alu_busy_thirds, busy),
        heat_pct(s.fabric_mult_busy_thirds, busy),
        heat_pct(s.fabric_ldst_busy_thirds, busy),
    )?;
    writeln!(
        out,
        "  rows: {} traversed ({:.1} mean/invocation)",
        s.fabric_rows,
        s.fabric_rows as f64 / s.fabric_records.max(1) as f64
    )?;
    writeln!(
        out,
        "  ops: {} issued, {} squashed ({} of configured)",
        s.fabric_issued_ops,
        s.fabric_squashed_ops,
        heat_pct(
            s.fabric_squashed_ops,
            s.fabric_issued_ops + s.fabric_squashed_ops
        ),
    )?;
    writeln!(
        out,
        "  residual: {} cycle(s) outside the row model ({} of array-exec)",
        s.fabric_residual_cycles,
        heat_pct(s.fabric_residual_cycles, s.array_exec_cycles),
    )?;
    writeln!(
        out,
        "  writeback: {} write(s) into {} port-slot(s) ({} saturated)",
        s.fabric_writeback_writes,
        s.fabric_writeback_slots,
        heat_pct(s.fabric_writeback_writes, s.fabric_writeback_slots),
    )?;
    writeln!(out, "  traversal depth profile:")?;
    let max_depth = depth.first().copied().unwrap_or(0);
    for (i, n) in depth.iter().take(row_limit).enumerate() {
        writeln!(
            out,
            "    row {:>3} {:>10}  {}",
            i,
            n,
            heat_bar(*n, max_depth, 32)
        )?;
    }
    if depth.len() > row_limit {
        writeln!(
            out,
            "    ... {} deeper row(s) (raise --rows to see them)",
            depth.len() - row_limit
        )?;
    }
    Ok(())
}

/// One aligned table row per status entry; live rates are derived, not
/// stored, so a stale snapshot still renders consistently.
fn render_status(entries: &[StatusEntry], out: &mut impl Write) -> Result<(), CliError> {
    writeln!(
        out,
        "{:<10} {:<8} {:>9}  {:<24} {:>12} {:>14} {:>6} {:>6} {:>9} {:>8} {:>5}",
        "source",
        "state",
        "done",
        "label",
        "retired",
        "sim cycles",
        "hit%",
        "fab%",
        "sim-MIPS",
        "p99-us",
        "queue"
    )?;
    for e in entries {
        let lookups = e.rcache_hits + e.rcache_misses;
        let hit_pct = if lookups == 0 {
            "-".to_string()
        } else {
            format!("{:.1}", 100.0 * e.rcache_hits as f64 / lookups as f64)
        };
        // Fabric utilization: zero capacity means an infinite shape or a
        // pre-fabric (status v1) producer — render `-`, not 0.
        let fab_pct = if e.fabric_capacity_thirds == 0 {
            "-".to_string()
        } else {
            format!(
                "{:.1}",
                100.0 * e.fabric_busy_thirds as f64 / e.fabric_capacity_thirds as f64
            )
        };
        let sim_mips = if e.host_nanos == 0 {
            "-".to_string()
        } else {
            // Pipeline and array instructions per host second, in
            // millions: (retired + array_retired) / (host_nanos / 1e9)
            // / 1e6, the count `System::total_instructions` gives.
            let instructions = e.retired + e.array_retired;
            format!("{:.1}", instructions as f64 * 1000.0 / e.host_nanos as f64)
        };
        // Request-latency columns only apply to serving aggregates
        // (and to status v2 files they default to 0) — render `-`.
        let p99 = if e.latency_p99_micros == 0 {
            "-".to_string()
        } else {
            e.latency_p99_micros.to_string()
        };
        let queue = if e.queue_depth == 0 && e.latency_p99_micros == 0 {
            "-".to_string()
        } else {
            e.queue_depth.to_string()
        };
        writeln!(
            out,
            "{:<10} {:<8} {:>9}  {:<24} {:>12} {:>14} {:>6} {:>6} {:>9} {:>8} {:>5}",
            e.source,
            e.state,
            format!("{}/{}", e.done, e.total),
            e.label,
            e.retired,
            e.sim_cycles,
            hit_pct,
            fab_pct,
            sim_mips,
            p99,
            queue
        )?;
    }
    Ok(())
}

/// How `dim top --follow` polls and how hard it tries when the status
/// file is missing or torn. Injectable so tests can run in milliseconds.
struct FollowPolicy {
    /// Delay between successful renders.
    poll: std::time::Duration,
    /// First retry delay after a failed read.
    backoff_start: std::time::Duration,
    /// Retry delay ceiling (doubles up to this).
    backoff_cap: std::time::Duration,
    /// Consecutive failed reads tolerated before giving up.
    max_misses: u32,
}

impl Default for FollowPolicy {
    fn default() -> FollowPolicy {
        FollowPolicy {
            poll: std::time::Duration::from_millis(200),
            backoff_start: std::time::Duration::from_millis(50),
            backoff_cap: std::time::Duration::from_millis(800),
            max_misses: 25,
        }
    }
}

fn run_top(
    path: &Path,
    follow: bool,
    policy: &FollowPolicy,
    out: &mut impl Write,
) -> Result<(), CliError> {
    let mut misses: u32 = 0;
    let mut backoff = policy.backoff_start;
    loop {
        match read_status(path) {
            Ok(status) => {
                misses = 0;
                backoff = policy.backoff_start;
                render_status(&status.entries, out)?;
                let finished = status
                    .entries
                    .first()
                    .is_none_or(|e| e.state == "done" || e.state == "failed");
                if !follow || finished {
                    return Ok(());
                }
                writeln!(out)?;
                std::thread::sleep(policy.poll);
            }
            // Following a live producer: the file may not exist yet (a
            // sweep still warming up), may read torn mid-rewrite, or may
            // vanish and reappear when a daemon restarts or re-publishes.
            // Every error kind is transient while following — retry with
            // bounded doubling backoff, and only give up after a run of
            // consecutive misses with nothing rendered in between.
            Err(e) if follow => {
                misses += 1;
                if misses > policy.max_misses {
                    return Err(CliError::new(format!(
                        "{}: gave up after {} attempts: {e}",
                        path.display(),
                        policy.max_misses
                    )));
                }
                std::thread::sleep(backoff);
                backoff = (backoff * 2).min(policy.backoff_cap);
            }
            Err(e) => return Err(CliError::new(format!("{}: {e}", path.display()))),
        }
    }
}

fn cmd_top(args: &[String], out: &mut impl Write) -> Result<(), CliError> {
    let target = check_flags("top", args, &[], &["--follow"], 1)?
        .first()
        .copied()
        .ok_or_else(|| CliError::new("top: missing status file or sweep output directory"))?;
    let mut path = Path::new(target).to_path_buf();
    if path.is_dir() {
        path = path.join(STATUS_FILE_NAME);
    }
    let follow = args.iter().any(|a| a == "--follow");
    run_top(&path, follow, &FollowPolicy::default(), out)
}

fn cmd_explain(args: &[String], out: &mut impl Write) -> Result<(), CliError> {
    let input = check_flags(
        "explain",
        args,
        &["--chrome-out", "--folded-out", "--top"],
        &["--json"],
        1,
    )?
    .first()
    .copied()
    .ok_or_else(|| CliError::new("explain: missing trace file"))?;
    let text = std::fs::read_to_string(Path::new(input))
        .map_err(|e| CliError::new(format!("{input}: {e}")))?;
    let ex =
        dim_explain::explain_text(&text).map_err(|e| CliError::new(format!("{input}: {e}")))?;
    let top: usize = parse_num_flag(args, "--top")?.unwrap_or(10);
    if let Some(path) = parse_flag_value(args, "--chrome-out")? {
        std::fs::write(path, ex.chrome_trace())
            .map_err(|e| CliError::new(format!("--chrome-out {path}: {e}")))?;
        writeln!(
            out,
            "chrome trace -> {path} (load in ui.perfetto.dev or chrome://tracing)"
        )?;
    }
    if let Some(path) = parse_flag_value(args, "--folded-out")? {
        std::fs::write(path, ex.folded())
            .map_err(|e| CliError::new(format!("--folded-out {path}: {e}")))?;
        writeln!(
            out,
            "folded stacks -> {path} (feed to flamegraph.pl or speedscope)"
        )?;
    }
    if args.iter().any(|a| a == "--json") {
        writeln!(out, "{}", ex.to_json())?;
        return Ok(());
    }
    write!(out, "{}", ex.render(top))?;
    Ok(())
}

fn cmd_suite(args: &[String], out: &mut impl Write) -> Result<(), CliError> {
    use dim_workloads::{run_baseline, suite};
    check_flags("suite", args, &["--scale"], &[], 0)?;
    let scale = parse_name_flag(args, "--scale")?.unwrap_or(Scale::Small);
    for spec in suite() {
        let built = (spec.build)(scale);
        let machine =
            run_baseline(&built).map_err(|e| CliError::new(format!("{}: {e}", spec.name)))?;
        let mut sys = System::new(
            Machine::load(&built.program),
            SystemConfig::new(ArrayShape::config2(), 64, true),
        );
        sys.run(built.max_steps)
            .map_err(|e| CliError::new(e.to_string()))?;
        dim_workloads::validate(sys.machine(), &built)
            .map_err(|e| CliError::new(format!("{} (accelerated): {e}", spec.name)))?;
        writeln!(
            out,
            "{:16} [{}] ok: {:>9} cycles baseline, {:>9} accelerated ({:.2}x)",
            spec.name,
            spec.category,
            machine.stats.cycles,
            sys.total_cycles(),
            machine.stats.cycles as f64 / sys.total_cycles().max(1) as f64,
        )?;
    }
    Ok(())
}

fn cmd_compare(args: &[String], out: &mut impl Write) -> Result<(), CliError> {
    use dim_mips_sim::{SuperscalarConfig, SuperscalarModel};
    let input = check_flags("compare", args, &["--max-steps"], &[], 1)?
        .first()
        .copied()
        .ok_or_else(|| CliError::new("compare: missing input file"))?;
    let program = load_program(input)?;
    let max_steps: u64 = parse_num_flag(args, "--max-steps")?.unwrap_or(100_000_000);

    let mut machine = Machine::load(&program);
    let mut ss = SuperscalarModel::new(SuperscalarConfig::default());
    machine
        .run_with(max_steps, |i| ss.observe(i))
        .map_err(|e| CliError::new(e.to_string()))?;
    let scalar = machine.stats.cycles;
    let superscalar = ss.finish();
    writeln!(
        out,
        "{:<24} {:>12} {:>9}",
        "organization", "cycles", "speedup"
    )?;
    writeln!(out, "{:<24} {:>12} {:>9}", "scalar MIPS", scalar, "1.00")?;
    writeln!(
        out,
        "{:<24} {:>12} {:>9.2}",
        "2-wide superscalar",
        superscalar,
        scalar as f64 / superscalar.max(1) as f64
    )?;
    for (name, shape) in [
        ("DIM config #1", ArrayShape::config1()),
        ("DIM config #2", ArrayShape::config2()),
        ("DIM config #3", ArrayShape::config3()),
    ] {
        let mut sys = System::new(Machine::load(&program), SystemConfig::new(shape, 64, true));
        sys.run(max_steps)
            .map_err(|e| CliError::new(e.to_string()))?;
        writeln!(
            out,
            "{:<24} {:>12} {:>9.2}",
            name,
            sys.total_cycles(),
            scalar as f64 / sys.total_cycles().max(1) as f64
        )?;
    }
    Ok(())
}

fn perf_read_baseline(path: &str) -> Result<dim_perf::Baseline, CliError> {
    let text = std::fs::read_to_string(Path::new(path))
        .map_err(|e| CliError::new(format!("{path}: {e}")))?;
    dim_perf::Baseline::parse(&text).map_err(|e| CliError::new(format!("{path}: {e}")))
}

fn cmd_perf_record(args: &[String], out: &mut impl Write) -> Result<(), CliError> {
    use dim_perf::{bench_perf_json, record, RecordOptions};
    check_flags(
        "perf record",
        args,
        &[
            "--out",
            "--name",
            "--workloads",
            "--scale",
            "--shape",
            "--slots",
            "--reps",
            "--bench-out",
        ],
        &["--no-spec"],
        0,
    )?;
    let out_path = parse_flag_value(args, "--out")?
        .ok_or_else(|| CliError::new("perf record: --out <file> is required"))?;
    let workloads: Vec<String> = match parse_flag_value(args, "--workloads")? {
        Some(list) => list.split(',').map(|s| s.trim().to_string()).collect(),
        None => dim_workloads::suite()
            .iter()
            .map(|s| s.name.to_string())
            .collect(),
    };
    let opts = RecordOptions {
        name: parse_flag_value(args, "--name")?.unwrap_or("local").into(),
        workloads,
        scale: parse_flag_value(args, "--scale")?.unwrap_or("tiny").into(),
        shape: match parse_name_flag(args, "--shape")?.map(ShapeChoice::number) {
            None => 2,
            Some(Some(number)) => number.into(),
            Some(None) => return Err(CliError::new("--shape: unknown `ideal`")),
        },
        cache_slots: parse_num_flag(args, "--slots")?.unwrap_or(64),
        speculation: !args.iter().any(|a| a == "--no-spec"),
        host_reps: parse_num_flag(args, "--reps")?.unwrap_or(3),
    };
    let baseline = record(&opts).map_err(|e| CliError::new(e.to_string()))?;
    if let Some(parent) = Path::new(out_path).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)
                .map_err(|e| CliError::new(format!("--out {out_path}: {e}")))?;
        }
    }
    std::fs::write(out_path, baseline.to_json())
        .map_err(|e| CliError::new(format!("--out {out_path}: {e}")))?;
    for w in &baseline.workloads {
        writeln!(
            out,
            "{:16} {:>10} cycles ({:.2}x), wall {:.3} ms, {:.1} sim-MIPS",
            w.name,
            w.accel_cycles,
            w.speedup,
            w.host.wall_nanos_min as f64 / 1e6,
            w.host.sim_mips
        )?;
    }
    writeln!(
        out,
        "baseline `{}`: {} workload(s) -> {out_path}",
        baseline.name,
        baseline.workloads.len()
    )?;
    if let Some(dir) = parse_flag_value(args, "--bench-out")? {
        let dir = Path::new(dir);
        std::fs::create_dir_all(dir).map_err(|e| CliError::new(format!("--bench-out: {e}")))?;
        let path = dir.join("BENCH_perf.json");
        std::fs::write(&path, bench_perf_json(&baseline))
            .map_err(|e| CliError::new(format!("{}: {e}", path.display())))?;
        writeln!(out, "wrote {}", path.display())?;
    }
    Ok(())
}

fn cmd_perf_compare(args: &[String], out: &mut impl Write) -> Result<(), CliError> {
    let files = check_flags("perf compare", args, &[], &["--json"], 2)?;
    let [base_path, cur_path] = files[..] else {
        return Err(CliError::new(
            "perf compare: expected two baseline files (base, current)",
        ));
    };
    let base = perf_read_baseline(base_path)?;
    let cur = perf_read_baseline(cur_path)?;
    let cmp = dim_perf::compare(&base, &cur);
    if args.iter().any(|a| a == "--json") {
        writeln!(out, "{}", cmp.to_json())?;
    } else {
        write!(out, "{}", cmp.render())?;
    }
    Ok(())
}

fn cmd_perf_gate(args: &[String], out: &mut impl Write) -> Result<(), CliError> {
    use dim_perf::{gate, record, RecordOptions, ToleranceSpec};
    check_flags(
        "perf gate",
        args,
        &["--baseline", "--current", "--tolerance-spec"],
        &["--json"],
        0,
    )?;
    let base_path = parse_flag_value(args, "--baseline")?
        .ok_or_else(|| CliError::new("perf gate: --baseline <file> is required"))?;
    let base = perf_read_baseline(base_path)?;
    let spec = match parse_flag_value(args, "--tolerance-spec")? {
        Some(path) => {
            let text = std::fs::read_to_string(Path::new(path))
                .map_err(|e| CliError::new(format!("{path}: {e}")))?;
            ToleranceSpec::parse(&text).map_err(|e| CliError::new(format!("{path}: {e}")))?
        }
        None => ToleranceSpec::strict(),
    };
    let cur = match parse_flag_value(args, "--current")? {
        Some(path) => perf_read_baseline(path)?,
        None => {
            // Re-record under exactly the parameters the reference was
            // captured with, so the matrices are guaranteed to match.
            let opts = RecordOptions::from_matrix("current", &base.matrix);
            record(&opts).map_err(|e| CliError::new(e.to_string()))?
        }
    };
    let outcome = gate(&base, &cur, &spec);
    if args.iter().any(|a| a == "--json") {
        writeln!(out, "{}", outcome.to_json())?;
    } else {
        write!(out, "{}", outcome.render())?;
    }
    if !outcome.ok() {
        return Err(CliError::new(format!(
            "perf gate: {} regression(s) beyond tolerance (baseline {base_path})",
            outcome.violations.len()
        )));
    }
    Ok(())
}

fn cmd_perf(args: &[String], out: &mut impl Write) -> Result<(), CliError> {
    match args.first().map(String::as_str) {
        Some("record") => cmd_perf_record(&args[1..], out),
        Some("compare") => cmd_perf_compare(&args[1..], out),
        Some("gate") => cmd_perf_gate(&args[1..], out),
        Some(other) => Err(CliError::new(format!(
            "perf: unknown subcommand `{other}` (expected record, compare or gate)"
        ))),
        None => Err(CliError::new(
            "perf: missing subcommand (expected record, compare or gate)",
        )),
    }
}

fn lint_one(
    name: &str,
    program: &Program,
    allow: Vec<String>,
    json: bool,
    out: &mut impl Write,
) -> Result<bool, CliError> {
    use dim_lint::report::{render_human, render_json};
    let report = dim_lint::lint_program(program, &dim_lint::LintOptions { allow });
    if json {
        writeln!(out, "{}", render_json(name, &report))?;
    } else {
        write!(out, "{}", render_human(name, &report))?;
    }
    Ok(report.is_clean())
}

fn cmd_lint(args: &[String], out: &mut impl Write) -> Result<(), CliError> {
    let inputs = check_flags(
        "lint",
        args,
        &["--allow", "--scale", "--config"],
        &["--suite", "--json", "--candidates"],
        1,
    )?;
    let json = args.iter().any(|a| a == "--json");

    if args.iter().any(|a| a == "--suite") {
        for flag in ["--allow", "--candidates", "--config"] {
            if args.iter().any(|a| a == flag) {
                return Err(CliError::new(format!(
                    "lint: `{flag}` does not apply to --suite \
                     (suite allowlists live in dim-workloads)"
                )));
            }
        }
        if !inputs.is_empty() {
            return Err(CliError::new("lint: --suite takes no input file"));
        }
        let scale = parse_name_flag(args, "--scale")?.unwrap_or(Scale::Tiny);
        let mut unclean = Vec::new();
        for spec in dim_workloads::suite() {
            let built = (spec.build)(scale);
            let allow: Vec<String> = dim_workloads::lint_allowlist(spec.name)
                .iter()
                .map(|(code, _)| (*code).to_string())
                .collect();
            if !lint_one(spec.name, &built.program, allow, json, out)? {
                unclean.push(spec.name);
            }
        }
        if !unclean.is_empty() {
            return Err(CliError::new(format!(
                "lint: {} workload(s) failed the gate: {}",
                unclean.len(),
                unclean.join(", ")
            )));
        }
        return Ok(());
    }

    let input = *inputs
        .first()
        .ok_or_else(|| CliError::new("lint: missing input file"))?;
    let program = load_program(input)?;
    let allow: Vec<String> = parse_flag_value(args, "--allow")?
        .map(|v| v.split(',').map(str::to_string).collect())
        .unwrap_or_default();
    let clean = lint_one(input, &program, allow, json, out)?;
    if args.iter().any(|a| a == "--candidates") {
        use dim_lint::report::{render_candidates_human, render_candidates_json};
        let shape = match parse_name_flag(args, "--config")?.unwrap_or(ShapeChoice::Config2) {
            ShapeChoice::Ideal => return Err(CliError::new("--config: unknown `ideal`")),
            choice => choice.shape(),
        };
        let opts = dim_core::TranslatorOptions::new(shape);
        let set = dim_lint::candidates::compute_candidates(&program, &opts);
        if json {
            writeln!(out, "{}", render_candidates_json(&set))?;
        } else {
            write!(out, "{}", render_candidates_human(&set))?;
        }
    }
    if !clean {
        return Err(CliError::new(format!("lint: {input} failed the gate")));
    }
    Ok(())
}

fn cmd_verify(args: &[String], out: &mut impl Write) -> Result<(), CliError> {
    use dim_core::SnapshotContents;
    let input = check_flags("verify", args, &[], &["--json"], 1)?
        .first()
        .copied()
        .ok_or_else(|| CliError::new("verify: missing snapshot file"))?;
    let json = args.iter().any(|a| a == "--json");
    let bytes = std::fs::read(input).map_err(|e| CliError::new(format!("{input}: {e}")))?;
    let contents =
        SnapshotContents::parse(&bytes).map_err(|e| CliError::new(format!("{input}: {e}")))?;

    let mut total_violations = 0usize;
    let mut findings = Vec::new();
    for config in &contents.configs {
        let violations = dim_cgra::verify::verify_config(config);
        total_violations += violations.len();
        findings.push((config, violations));
    }

    if json {
        let shape = &contents.shape;
        let mut doc = format!(
            "{{\"snapshot\":\"{}\",\"shape\":{{\"rows\":{},\"alus\":{},\"mults\":{},\"ldsts\":{}}},\"slots\":{},\"speculation\":{},\"max_spec_blocks\":{},\"predictor_entries\":{},\"strikes\":{},\"configs\":[",
            dim_lint::report::json_escape(input),
            shape.rows,
            shape.alus_per_row,
            shape.mults_per_row,
            shape.ldsts_per_row,
            contents.cache_slots,
            contents.speculation,
            contents.max_spec_blocks,
            contents.predictor.len(),
            contents.strikes.len(),
        );
        for (i, (config, violations)) in findings.iter().enumerate() {
            if i > 0 {
                doc.push(',');
            }
            doc.push_str(&format!(
                "{{\"entry\":{},\"ops\":{},\"rows\":{},\"segments\":{},\"violations\":[",
                config.entry_pc,
                config.instruction_count(),
                config.rows_used(),
                config.segments().len()
            ));
            for (j, v) in violations.iter().enumerate() {
                if j > 0 {
                    doc.push(',');
                }
                doc.push_str(&format!(
                    "{{\"kind\":\"{}\",\"detail\":\"{}\"}}",
                    v.kind,
                    dim_lint::report::json_escape(&v.to_string())
                ));
            }
            doc.push_str("]}");
        }
        doc.push_str(&format!("],\"ok\":{}}}", total_violations == 0));
        writeln!(out, "{doc}")?;
    } else {
        writeln!(
            out,
            "{input}: {} rows x {}a/{}m/{}l array, {} slots, speculation {} ({} blocks), {} predictor entries, {} strikes",
            contents.shape.rows,
            contents.shape.alus_per_row,
            contents.shape.mults_per_row,
            contents.shape.ldsts_per_row,
            contents.cache_slots,
            if contents.speculation { "on" } else { "off" },
            contents.max_spec_blocks,
            contents.predictor.len(),
            contents.strikes.len(),
        )?;
        for (config, violations) in &findings {
            writeln!(
                out,
                "  {:#010x}: {} ops, {} rows, {} segment(s) — {}",
                config.entry_pc,
                config.instruction_count(),
                config.rows_used(),
                config.segments().len(),
                if violations.is_empty() {
                    "ok".to_string()
                } else {
                    format!("{} violation(s)", violations.len())
                }
            )?;
            for v in violations {
                writeln!(out, "    {v}")?;
            }
        }
    }
    if total_violations > 0 {
        return Err(CliError::new(format!(
            "verify: {input}: {total_violations} violation(s) across {} configuration(s)",
            findings.iter().filter(|(_, v)| !v.is_empty()).count()
        )));
    }
    if !json {
        writeln!(
            out,
            "verify: {} configuration(s) structurally valid",
            findings.len()
        )?;
    }
    Ok(())
}

fn cmd_prove(args: &[String], out: &mut impl Write) -> Result<(), CliError> {
    use dim_lint::prove::prove_program;
    use dim_lint::report::render_prove_human;
    let inputs = check_flags(
        "prove",
        args,
        &["--scale", "--cert-out", "--check"],
        &["--suite", "--json"],
        1,
    )?;
    let json = args.iter().any(|a| a == "--json");

    if let Some(path) = parse_flag_value(args, "--check")? {
        for flag in ["--suite", "--json", "--scale", "--cert-out"] {
            if args.iter().any(|a| a == flag) {
                return Err(CliError::new(format!(
                    "prove: `{flag}` does not combine with --check"
                )));
            }
        }
        if !inputs.is_empty() {
            return Err(CliError::new("prove: --check takes no input file"));
        }
        let text =
            std::fs::read_to_string(path).map_err(|e| CliError::new(format!("{path}: {e}")))?;
        let mut count = 0usize;
        for (i, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            StreamingCert::parse_json(line)
                .map_err(|e| CliError::new(format!("{path}:{}: {e}", i + 1)))?;
            count += 1;
        }
        writeln!(out, "prove: {count} certificate(s) valid in {path}")?;
        return Ok(());
    }

    let mut reports = Vec::new();
    if args.iter().any(|a| a == "--suite") {
        if !inputs.is_empty() {
            return Err(CliError::new("prove: --suite takes no input file"));
        }
        let scale = parse_name_flag(args, "--scale")?.unwrap_or(Scale::Tiny);
        for spec in dim_workloads::suite() {
            let built = (spec.build)(scale);
            reports.push(prove_program(&built.program, spec.name));
        }
    } else {
        if args.iter().any(|a| a == "--scale") {
            return Err(CliError::new("prove: --scale applies to --suite only"));
        }
        let input = *inputs
            .first()
            .ok_or_else(|| CliError::new("prove: missing input file"))?;
        let program = load_program(input)?;
        reports.push(prove_program(&program, input));
    }

    for report in &reports {
        if json {
            writeln!(out, "{}", report.to_json())?;
        } else {
            write!(out, "{}", render_prove_human(report))?;
        }
    }
    let total_certs: usize = reports
        .iter()
        .map(dim_lint::prove::ProveReport::cert_count)
        .sum();
    if let Some(path) = parse_flag_value(args, "--cert-out")? {
        let mut doc = String::new();
        for report in &reports {
            for cert in report.certs() {
                doc.push_str(&cert.to_json());
                doc.push('\n');
            }
        }
        std::fs::write(path, doc).map_err(|e| CliError::new(format!("--cert-out {path}: {e}")))?;
        writeln!(out, "prove: {total_certs} certificate(s) -> {path}")?;
    } else if !json {
        writeln!(
            out,
            "prove: {total_certs} certificate(s) across {} program(s)",
            reports.len()
        )?;
    }
    Ok(())
}

/// Parses a `--flag N` positive integer, rejecting 0 with a message
/// naming the flag — serve's counts (jobs, queue, quota, clients,
/// requests) all share the "at least 1" rule.
fn parse_positive(args: &[String], flag: &str) -> Result<Option<u64>, CliError> {
    let value: Option<u64> = parse_num_flag(args, flag)?;
    if value == Some(0) {
        return Err(CliError::new(format!("{flag}: must be at least 1")));
    }
    Ok(value)
}

fn cmd_serve(args: &[String], out: &mut impl Write) -> Result<(), CliError> {
    check_flags(
        "serve",
        args,
        &[
            "--socket",
            "--jobs",
            "--queue",
            "--tenant-quota",
            "--shard-dir",
            "--status-dir",
            "--flight",
            "--telemetry-interval",
            "--clients",
            "--requests",
            "--bench-out",
        ],
        &["--selftest"],
        0,
    )?;
    let selftest = args.iter().any(|a| a == "--selftest");
    let daemon_only = [
        "--socket",
        "--queue",
        "--tenant-quota",
        "--shard-dir",
        "--status-dir",
        "--flight",
        "--telemetry-interval",
    ];
    let selftest_only = ["--clients", "--requests", "--bench-out"];
    if selftest {
        if let Some(flag) = daemon_only
            .iter()
            .find(|f| args.contains(&(**f).to_string()))
        {
            return Err(CliError::new(format!(
                "serve: `{flag}` does not apply to --selftest"
            )));
        }
    } else if let Some(flag) = selftest_only
        .iter()
        .find(|f| args.contains(&(**f).to_string()))
    {
        return Err(CliError::new(format!(
            "serve: `{flag}` requires --selftest"
        )));
    }
    let jobs = parse_positive(args, "--jobs")?;

    if selftest {
        let mut opts = dim_serve::SelftestOptions::default();
        if let Some(jobs) = jobs {
            opts.jobs = jobs as usize;
        }
        if let Some(clients) = parse_positive(args, "--clients")? {
            opts.clients = clients as usize;
        }
        if let Some(requests) = parse_positive(args, "--requests")? {
            opts.requests_per_client = requests as usize;
        }
        if let Some(dir) = parse_flag_value(args, "--bench-out")? {
            opts.bench_out = Path::new(dir).to_path_buf();
        }
        let report =
            dim_serve::run_selftest(&opts).map_err(|e| CliError::new(format!("serve: {e}")))?;
        writeln!(
            out,
            "selftest: {}/{} requests completed, {} busy retries, {:.1} req/s",
            report.completed, report.requests_total, report.busy_retries, report.throughput_rps
        )?;
        writeln!(
            out,
            "selftest: ramp cold {} cycles -> warm {} cycles",
            report.cold_cycles, report.warm_cycles
        )?;
        writeln!(
            out,
            "selftest: simulate stage cold {}ns -> warm {}ns, span laws {}",
            report.cold_sim_nanos,
            report.warm_sim_nanos,
            if report.span_laws_ok {
                "ok"
            } else {
                "VIOLATED"
            }
        )?;
        writeln!(out, "selftest: bench -> {}", report.bench_path.display())?;
        if !report.ok {
            return Err(CliError::new(
                "serve: selftest failed (incomplete requests, warm shard did not beat cold start, or span gate tripped)",
            ));
        }
        return Ok(());
    }

    let socket = parse_flag_value(args, "--socket")?
        .ok_or_else(|| CliError::new("serve: missing --socket (or use --selftest)"))?;
    let mut opts = dim_serve::ServeOptions::new(Path::new(socket).to_path_buf());
    if let Some(jobs) = jobs {
        opts.jobs = jobs as usize;
    }
    if let Some(queue) = parse_positive(args, "--queue")? {
        opts.queue_capacity = queue as usize;
    }
    if let Some(quota) = parse_positive(args, "--tenant-quota")? {
        opts.tenant_quota = quota as usize;
    }
    if let Some(dir) = parse_flag_value(args, "--shard-dir")? {
        opts.shard_dir = Some(Path::new(dir).to_path_buf());
    }
    if let Some(dir) = parse_flag_value(args, "--status-dir")? {
        opts.out_dir = Some(Path::new(dir).to_path_buf());
    }
    if let Some(flight) = parse_num_flag(args, "--flight")? {
        opts.flight_capacity = flight;
    }
    if let Some(interval) = parse_telemetry_interval(args)? {
        opts.telemetry_interval = interval;
    }
    writeln!(out, "serve: listening on {socket} ({} workers)", opts.jobs)?;
    out.flush()?;
    let summary = dim_serve::serve(&opts).map_err(|e| CliError::new(e.to_string()))?;
    for err in &summary.import_errors {
        writeln!(out, "serve: warning: shard import skipped: {err}")?;
    }
    if summary.shards_imported > 0 {
        writeln!(
            out,
            "serve: warm-started {} shard(s) from disk",
            summary.shards_imported
        )?;
    }
    writeln!(
        out,
        "serve: drained: {} submitted, {} completed, {} failed, {} busy-rejected, {} shard(s) snapshotted",
        summary.submitted, summary.completed, summary.failed, summary.busy_rejected, summary.shards
    )?;
    Ok(())
}

fn cmd_submit(args: &[String], out: &mut impl Write) -> Result<(), CliError> {
    let positionals = check_flags("submit", args, &[], &["--json"], 2)?;
    let json = args.iter().any(|a| a == "--json");
    let socket = *positionals
        .first()
        .ok_or_else(|| CliError::new("submit: missing socket path"))?;
    let request_file = *positionals
        .get(1)
        .ok_or_else(|| CliError::new("submit: missing request file"))?;
    let socket_path = Path::new(socket);
    if !socket_path.exists() {
        return Err(CliError::new(format!(
            "submit: {socket}: no such socket (is the daemon running?)"
        )));
    }
    let text = std::fs::read_to_string(request_file)
        .map_err(|e| CliError::new(format!("{request_file}: {e}")))?;
    let request = dim_serve::parse_request(&text)
        .map_err(|e| CliError::new(format!("{request_file}: {e}")))?;
    let replies = dim_serve::submit(socket_path, std::slice::from_ref(&request))
        .map_err(|e| CliError::new(e.to_string()))?;
    match replies.into_iter().next() {
        Some(dim_serve::Reply::Ok { json: reply_json }) => {
            if json {
                writeln!(out, "{reply_json}")?;
                return Ok(());
            }
            // The human-readable view: the embedded report when the
            // command produced one, the raw object otherwise.
            let report = dim_obs::parse_json(&reply_json)
                .ok()
                .as_ref()
                .and_then(|v| v.get("report"))
                .and_then(|v| v.as_str())
                .map(str::to_string);
            match report {
                Some(report) => write!(out, "{report}")?,
                None => writeln!(out, "{reply_json}")?,
            }
            Ok(())
        }
        Some(dim_serve::Reply::Busy {
            retry_after_ms,
            reason,
        }) => Err(CliError::new(format!(
            "submit: server busy: {reason} (retry after {retry_after_ms}ms)"
        ))),
        Some(dim_serve::Reply::Error { message }) => {
            Err(CliError::new(format!("submit: {message}")))
        }
        None => Err(CliError::new("submit: server sent no reply")),
    }
}

fn cmd_debug(args: &[String], out: &mut impl Write) -> Result<(), CliError> {
    let input = check_flags("debug", args, &["--script"], &[], 1)?
        .first()
        .copied()
        .ok_or_else(|| CliError::new("debug: missing input file"))?;
    let program = load_program(input)?;
    match parse_flag_value(args, "--script")? {
        Some(path) => {
            let file =
                std::fs::File::open(path).map_err(|e| CliError::new(format!("{path}: {e}")))?;
            debugger::debug_session(&program, std::io::BufReader::new(file), out)
        }
        None => {
            let stdin = std::io::stdin();
            debugger::debug_session(&program, stdin.lock(), out)
        }
    }
}

/// Runs one CLI invocation. `args` excludes the binary name.
///
/// # Errors
///
/// [`CliError`] with the user-facing message.
pub fn dispatch(args: &[String], out: &mut impl Write) -> Result<(), CliError> {
    match args.first().map(String::as_str) {
        Some("asm") => cmd_asm(&args[1..], out),
        Some("disasm") => cmd_disasm(&args[1..], out),
        Some("run") => cmd_run(&args[1..], out),
        Some("accel") => cmd_accel(&args[1..], out),
        Some("profile") => cmd_profile(&args[1..], out),
        Some("trace") => cmd_trace(&args[1..], out),
        Some("heat") => cmd_heat(&args[1..], out),
        Some("top") => cmd_top(&args[1..], out),
        Some("explain") => cmd_explain(&args[1..], out),
        Some("suite") => cmd_suite(&args[1..], out),
        Some("sweep") => cmd_sweep(&args[1..], out),
        Some("perf") => cmd_perf(&args[1..], out),
        Some("lint") => cmd_lint(&args[1..], out),
        Some("verify") => cmd_verify(&args[1..], out),
        Some("prove") => cmd_prove(&args[1..], out),
        Some("serve") => cmd_serve(&args[1..], out),
        Some("spans") => spans::cmd_spans(&args[1..], out),
        Some("submit") => cmd_submit(&args[1..], out),
        Some("debug") => cmd_debug(&args[1..], out),
        Some("compare") => cmd_compare(&args[1..], out),
        Some("help") | None => {
            check_flags("help", args.get(1..).unwrap_or_default(), &[], &[], 0)?;
            write!(out, "{USAGE}")?;
            Ok(())
        }
        Some(other) => Err(CliError::new(format!("unknown command `{other}`\n{USAGE}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_file(name: &str, contents: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("dim-cli-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        std::fs::write(&path, contents).unwrap();
        path
    }

    const PROGRAM: &str = "
        main: li $s0, 40
              li $v0, 0
        loop: addu $v0, $v0, $s0
              xor  $t0, $v0, $s0
              addu $v0, $v0, $t0
              addiu $s0, $s0, -1
              bnez $s0, loop
              li  $a0, 1
              li  $v0, 11
              syscall
              break 0";

    fn run_cli(args: &[&str]) -> Result<String, CliError> {
        let args: Vec<String> = args.iter().map(std::string::ToString::to_string).collect();
        let mut out = Vec::new();
        dispatch(&args, &mut out)?;
        Ok(String::from_utf8(out).unwrap())
    }

    #[test]
    fn help_prints_usage() {
        assert!(run_cli(&["help"]).unwrap().contains("usage"));
        assert!(run_cli(&[]).unwrap().contains("usage"));
    }

    #[test]
    fn unknown_command_errors() {
        assert!(run_cli(&["frobnicate"]).is_err());
    }

    #[test]
    fn asm_then_disasm_then_run_image() {
        let src = tmp_file("t1.s", PROGRAM);
        let img = std::env::temp_dir().join("dim-cli-tests/t1.dimg");
        let out = run_cli(&["asm", src.to_str().unwrap(), "-o", img.to_str().unwrap()]).unwrap();
        assert!(out.contains("instructions"));

        let listing = run_cli(&["disasm", img.to_str().unwrap()]).unwrap();
        assert!(listing.contains("addu $v0, $v0, $s0"));

        let report = run_cli(&["run", img.to_str().unwrap()]).unwrap();
        assert!(report.contains("cycles"));
        assert!(report.contains("exited"));
    }

    #[test]
    fn run_with_profile_and_caches() {
        let src = tmp_file("t2.s", PROGRAM);
        let report = run_cli(&["run", src.to_str().unwrap(), "--profile", "--caches"]).unwrap();
        assert!(report.contains("instructions/branch"));
        assert!(report.contains("dcache miss rate"));
    }

    #[test]
    fn accel_compare_reports_speedup() {
        let src = tmp_file("t3.s", PROGRAM);
        let report = run_cli(&[
            "accel",
            src.to_str().unwrap(),
            "--config",
            "2",
            "--slots",
            "16",
            "--compare",
        ])
        .unwrap();
        assert!(report.contains("speedup"));
        assert!(report.contains("configurations:"));
    }

    #[test]
    fn accel_dump_configs_prints_grids() {
        let src = tmp_file("t5.s", PROGRAM);
        let report = run_cli(&["accel", src.to_str().unwrap(), "--dump-configs"]).unwrap();
        assert!(report.contains("row  0"), "{report}");
    }

    /// `--trace` prints the run's last recorded array invocations: the
    /// tail of the `array_invoke` records a `--trace-out` trace of the
    /// same run holds, after a count of the ones that fell out.
    #[test]
    fn accel_trace_prints_invocations() {
        let src = tmp_file("t7.s", &PROGRAM.replace("li $s0, 40", "li $s0, 400"));
        let trace = std::env::temp_dir().join("dim-cli-tests/t7.jsonl");
        let report = run_cli(&[
            "accel",
            src.to_str().unwrap(),
            "--trace",
            "--trace-out",
            trace.to_str().unwrap(),
        ])
        .unwrap();
        let text = std::fs::read_to_string(&trace).unwrap();
        let recorded: Vec<ArrayInvoke> = dim_obs::replay::read_trace(&text)
            .unwrap()
            .records
            .iter()
            .filter_map(|r| match r {
                dim_obs::replay::TraceRecord::Event(ProbeEvent::ArrayInvoke(inv)) => Some(*inv),
                _ => None,
            })
            .collect();
        assert!(
            recorded.len() > TRACE_WINDOW,
            "{} invocations",
            recorded.len()
        );
        let dropped = recorded.len() - TRACE_WINDOW;

        let mut printed = report
            .lines()
            .skip_while(|l| *l != "--- last array invocations ---")
            .skip(1);
        assert_eq!(
            printed.next(),
            Some(format!("... {dropped} earlier invocations dropped ...").as_str()),
            "{report}"
        );
        for inv in &recorded[dropped..] {
            let line = printed.next().unwrap_or_default();
            let head = format!(
                "array @ {:#010x}: {} instrs, depth {}, ",
                inv.entry_pc, inv.covered, inv.spec_depth
            );
            assert!(line.starts_with(&head), "{line:?} vs {head:?}");
            assert_eq!(line, invocation_line(inv));
        }
        assert!(
            !printed.next().unwrap_or("").starts_with("array @"),
            "{report}"
        );
    }

    #[test]
    fn invocation_line_renders_every_field() {
        let mut inv = ArrayInvoke {
            entry_pc: 0x0040_0100,
            exit_pc: 0x0040_0114,
            covered: 5,
            executed: 5,
            loads: 1,
            stores: 0,
            rows: 3,
            spec_depth: 1,
            misspeculated: true,
            flushed: false,
            stall_cycles: 2,
            exec_cycles: 3,
            tail_cycles: 1,
        };
        assert_eq!(
            invocation_line(&inv),
            "array @ 0x00400100: 5 instrs, depth 1, 6 cycles -> 0x00400114  [misspeculated]"
        );
        inv.misspeculated = false;
        assert_eq!(
            invocation_line(&inv),
            "array @ 0x00400100: 5 instrs, depth 1, 6 cycles -> 0x00400114"
        );
    }

    #[test]
    fn run_trace_out_writes_valid_jsonl() {
        let src = tmp_file("t9.s", PROGRAM);
        let trace = std::env::temp_dir().join("dim-cli-tests/t9.jsonl");
        let report = run_cli(&[
            "run",
            src.to_str().unwrap(),
            "--trace-out",
            trace.to_str().unwrap(),
        ])
        .unwrap();
        assert!(report.contains("trace:"), "{report}");
        let text = std::fs::read_to_string(&trace).unwrap();
        let replayed = dim_obs::replay::read_trace(&text).unwrap();
        assert_eq!(replayed.summary.array_invocations, 0);
        assert!(replayed.summary.retired > 0);

        let summary = run_cli(&["trace", trace.to_str().unwrap()]).unwrap();
        assert!(summary.contains("valid trace"), "{summary}");
    }

    #[test]
    fn accel_trace_out_replays_to_reported_cycles() {
        let src = tmp_file("t10.s", PROGRAM);
        let trace = std::env::temp_dir().join("dim-cli-tests/t10.jsonl");
        let report = run_cli(&[
            "accel",
            src.to_str().unwrap(),
            "--trace-out",
            trace.to_str().unwrap(),
            "--metrics",
        ])
        .unwrap();
        assert!(report.contains("trace:"), "{report}");
        assert!(report.contains("--- metrics ---"), "{report}");
        let text = std::fs::read_to_string(&trace).unwrap();
        let replayed = dim_obs::replay::read_trace(&text).unwrap();
        assert!(replayed.summary.array_invocations > 0);

        let summary = run_cli(&["trace", trace.to_str().unwrap()]).unwrap();
        assert!(summary.contains("valid trace"), "{summary}");
    }

    /// `--metrics` counter lines are read from the system: on 100
    /// distinct loops through a 4-slot cache they show FIFO thrash
    /// split into live and dead evictions.
    #[test]
    fn accel_metrics_reads_the_system_counters() {
        let mut src = String::from("main: li $v0, 0\n");
        for k in 0..100 {
            src.push_str(&format!(
                "      li $s0, 12\n\
                 loop{k}: addu $v0, $v0, $s0\n\
                 sll $t0, $v0, {}\n\
                 xor $v0, $v0, $t0\n\
                 addiu $v0, $v0, {k}\n\
                 addu $v0, $v0, $s0\n\
                 addiu $s0, $s0, -1\n\
                 bnez $s0, loop{k}\n",
                k % 31 + 1
            ));
        }
        src.push_str("break 0\n");
        let path = tmp_file("t11.s", &src);
        let args = [
            "accel",
            path.to_str().unwrap(),
            "--config",
            "2",
            "--slots",
            "4",
        ];
        let report = run_cli(&[&args[..], &["--metrics"]].concat()).unwrap();
        let counters: Vec<&str> = report
            .lines()
            .skip_while(|l| *l != "--- metrics ---")
            .skip(1)
            .take(4)
            .collect();
        assert_eq!(
            counters,
            [
                "pipeline: 3102 retired, 3702 base + 0 i-stall + 0 d-stall cycles",
                "translator: 400 regions, 200 commits (0 partial)",
                "rcache: 300 hits / 3102 misses, 200 inserts (196 evictions: 98 live, 98 dead), 0 flushes",
                "array: 300 invocations (100 misspeculated), 1600 cycles",
            ],
            "{report}"
        );
        // Each loop's first hit comes one lookup after its insertion,
        // and each later hit two lookups after the one before.
        let distances = "rcache reuse distance (lookups): n=300 min=1 mean=1.7 max=2\n             1 |        100 ";
        assert!(report.contains(distances), "{report}");
        // Without the metrics block the report is the plain run's.
        let plain = run_cli(&args).unwrap();
        let (head, tail) = report.split_once("--- metrics ---\n").unwrap();
        let exit = tail.find("program exited").unwrap();
        assert_eq!(format!("{head}{}", &tail[exit..]), plain);
    }

    #[test]
    fn trace_stats_lists_record_kinds() {
        let src = tmp_file("t20.s", PROGRAM);
        let trace = std::env::temp_dir().join("dim-cli-tests/t20.jsonl");
        run_cli(&[
            "accel",
            src.to_str().unwrap(),
            "--trace-out",
            trace.to_str().unwrap(),
        ])
        .unwrap();
        let summary = run_cli(&["trace", trace.to_str().unwrap(), "--stats"]).unwrap();
        assert!(summary.contains("records by kind:"), "{summary}");
        assert!(summary.contains("retire"), "{summary}");
        assert!(summary.contains("array_invoke"), "{summary}");
        assert!(summary.contains("fabric"), "{summary}");

        let plain = run_cli(&["trace", trace.to_str().unwrap()]).unwrap();
        assert!(!plain.contains("records by kind:"), "{plain}");
        let err = run_cli(&["trace", trace.to_str().unwrap(), "--stat"]).unwrap_err();
        assert!(err.to_string().contains("unknown flag"), "{err}");
    }

    #[test]
    fn heat_run_mode_reports_utilization_and_reconciles() {
        let src = tmp_file("t30.s", PROGRAM);
        let report = run_cli(&["heat", src.to_str().unwrap(), "--config", "2"]).unwrap();
        assert!(report.contains("fabric heat:"), "{report}");
        assert!(report.contains("util:"), "{report}");
        assert!(report.contains("row "), "{report}");
        assert!(report.contains("array-exec"), "{report}");

        let json = run_cli(&["heat", src.to_str().unwrap(), "--config", "2", "--json"]).unwrap();
        let v = dim_obs::parse_json(&json).unwrap();
        let get = |k: &str| v.get(k).and_then(dim_obs::JsonValue::as_u64).unwrap();
        assert!(get("invocations") > 0);
        assert_eq!(
            get("exec_cycles") + get("residual_cycles"),
            // The same kernel under the same parameters is
            // deterministic, so a fresh accelerated run charges exactly
            // the cycles the heat JSON accounts for.
            {
                let program = load_program(src.to_str().unwrap()).unwrap();
                let mut sys = System::new(
                    Machine::load(&program),
                    SystemConfig::new(ArrayShape::config2(), 64, true),
                );
                sys.run(100_000_000).unwrap();
                sys.cycle_breakdown().array_exec
            }
        );
        let busy = v.get("busy_thirds").unwrap();
        let cap = v.get("capacity_thirds").unwrap();
        for class in ["alu", "mult", "ldst"] {
            let b = busy
                .get(class)
                .and_then(dim_obs::JsonValue::as_u64)
                .unwrap();
            let c = cap.get(class).and_then(dim_obs::JsonValue::as_u64).unwrap();
            assert!(b <= c, "{class}: busy {b} > capacity {c}");
        }
    }

    #[test]
    fn heat_trace_mode_summarizes_and_exports_chrome_counters() {
        let src = tmp_file("t31.s", PROGRAM);
        let trace = std::env::temp_dir().join("dim-cli-tests/t31.jsonl");
        run_cli(&[
            "accel",
            src.to_str().unwrap(),
            "--trace-out",
            trace.to_str().unwrap(),
        ])
        .unwrap();

        let report = run_cli(&["heat", trace.to_str().unwrap()]).unwrap();
        assert!(report.contains("fabric record(s)"), "{report}");
        assert!(report.contains("util:"), "{report}");
        assert!(report.contains("traversal depth"), "{report}");

        let json = run_cli(&["heat", trace.to_str().unwrap(), "--json"]).unwrap();
        let v = dim_obs::parse_json(&json).unwrap();
        assert!(
            v.get("fabric_records")
                .and_then(dim_obs::JsonValue::as_u64)
                .unwrap()
                > 0
        );

        let chrome = std::env::temp_dir().join("dim-cli-tests/t31.chrome.json");
        let report = run_cli(&[
            "heat",
            trace.to_str().unwrap(),
            "--chrome-out",
            chrome.to_str().unwrap(),
        ])
        .unwrap();
        assert!(report.contains("chrome counters"), "{report}");
        let exported = std::fs::read_to_string(&chrome).unwrap();
        let v = dim_obs::parse_json(&exported).unwrap();
        let events = v.get("traceEvents").unwrap().as_array().unwrap();
        assert!(!events.is_empty());
        assert!(exported.contains("fabric busy thirds"), "{exported}");
    }

    #[test]
    fn heat_rejects_mode_mismatched_flags() {
        let src = tmp_file("t32.s", PROGRAM);
        let trace = std::env::temp_dir().join("dim-cli-tests/t32.jsonl");
        run_cli(&[
            "accel",
            src.to_str().unwrap(),
            "--trace-out",
            trace.to_str().unwrap(),
        ])
        .unwrap();
        let err = run_cli(&["heat", trace.to_str().unwrap(), "--config", "2"]).unwrap_err();
        assert!(err.to_string().contains("only applies"), "{err}");
        let err = run_cli(&["heat", src.to_str().unwrap(), "--chrome-out", "x.json"]).unwrap_err();
        assert!(err.to_string().contains("only a trace"), "{err}");
        let err = run_cli(&["heat", src.to_str().unwrap(), "--config", "9"]).unwrap_err();
        assert!(err.to_string().contains("unknown"), "{err}");
    }

    #[test]
    fn telemetry_interval_is_validated_everywhere() {
        let src = tmp_file("t30.s", PROGRAM);
        let path = src.to_str().unwrap();
        for cmd in ["run", "accel"] {
            let err = run_cli(&[cmd, path, "--telemetry-interval", "0"]).unwrap_err();
            assert!(err.to_string().contains("at least 1 cycle"), "{cmd}: {err}");
            let err = run_cli(&[cmd, path, "--telemetry-interval", "x"]).unwrap_err();
            assert!(err.to_string().contains("not a number"), "{cmd}: {err}");
        }
        let spec = tmp_file(
            "t30.spec",
            "workloads = crc32\nscale = tiny\nshapes = 1\nslots = 16\nspeculation = on\n",
        );
        let err =
            run_cli(&["sweep", spec.to_str().unwrap(), "--telemetry-interval", "0"]).unwrap_err();
        assert!(err.to_string().contains("at least 1 cycle"), "{err}");
        // Without a trace, run and accel have nothing to stamp.
        for cmd in ["run", "accel"] {
            let err = run_cli(&[cmd, path, "--telemetry-interval", "500"]).unwrap_err();
            assert!(
                err.to_string().contains("requires --trace-out"),
                "{cmd}: {err}"
            );
        }
    }

    #[test]
    fn telemetry_interval_stamps_run_and_accel_traces() {
        let src = tmp_file("t31.s", PROGRAM);
        let path = src.to_str().unwrap();
        for cmd in ["run", "accel"] {
            let trace = std::env::temp_dir().join(format!("dim-cli-tests/t31-{cmd}.jsonl"));
            run_cli(&[
                cmd,
                path,
                "--trace-out",
                trace.to_str().unwrap(),
                "--telemetry-interval",
                "100",
            ])
            .unwrap();
            let text = std::fs::read_to_string(&trace).unwrap();
            assert!(text.contains("\"type\":\"telemetry\""), "{cmd}: {text}");
            dim_obs::replay::read_trace(&text).unwrap();
        }
    }

    #[test]
    fn accel_flight_out_dumps_a_validating_window_with_drop_accounting() {
        let src = tmp_file("t32.s", PROGRAM);
        let path = src.to_str().unwrap();
        let dump = std::env::temp_dir().join("dim-cli-tests/t32.flight.jsonl");
        let report = run_cli(&[
            "accel",
            path,
            "--flight",
            "16",
            "--watchdog",
            "--flight-out",
            dump.to_str().unwrap(),
        ])
        .unwrap();
        assert!(report.contains("flight:"), "{report}");
        assert!(report.contains("retained"), "{report}");

        // The dump is a valid schema trace and `dim trace` accepts it.
        let summary = run_cli(&["trace", dump.to_str().unwrap(), "--stats"]).unwrap();
        assert!(summary.contains("valid trace"), "{summary}");
        // This workload retires far more than 16 events, so the window
        // wrapped and the header carries per-kind drop totals.
        assert!(summary.contains("dropped by kind"), "{summary}");
        assert!(summary.contains("retire"), "{summary}");

        let text = std::fs::read_to_string(&dump).unwrap();
        let replayed = dim_obs::replay::read_trace(&text).unwrap();
        assert!(!replayed.header.dropped.is_empty());

        // Flag validation: a zero-capacity ring is a contradiction.
        let err = run_cli(&["accel", path, "--flight", "0"]).unwrap_err();
        assert!(err.to_string().contains("at least 1 event"), "{err}");
    }

    #[test]
    fn accel_watchdog_passes_cleanly_on_a_healthy_run() {
        let src = tmp_file("t33.s", PROGRAM);
        let report = run_cli(&["accel", src.to_str().unwrap(), "--watchdog"]).unwrap();
        assert!(report.contains("configurations:"), "{report}");
        // No violation -> no dump file is left behind.
        assert!(!std::path::Path::new(&format!("{}.flight.jsonl", src.to_str().unwrap())).exists());
    }

    #[test]
    fn top_renders_sweep_status_and_rejects_missing_files() {
        let spec = tmp_file(
            "t34.spec",
            "workloads = crc32\nscale = tiny\nshapes = 1, 3\nslots = 16\nspeculation = on\n",
        );
        let out_dir = std::env::temp_dir().join("dim-cli-tests/t34-sweep");
        std::fs::remove_dir_all(&out_dir).ok();
        let report = run_cli(&[
            "sweep",
            spec.to_str().unwrap(),
            "--out",
            out_dir.to_str().unwrap(),
            "--jobs",
            "2",
        ])
        .unwrap();
        assert!(report.contains("telemetry:"), "{report}");

        // Both the directory and the file itself are accepted targets.
        for target in [
            out_dir.to_path_buf(),
            out_dir.join(dim_obs::status::STATUS_FILE_NAME),
        ] {
            let table = run_cli(&["top", target.to_str().unwrap()]).unwrap();
            assert!(table.contains("source"), "{table}");
            assert!(table.contains("sweep"), "{table}");
            assert!(table.contains("done"), "{table}");
            assert!(table.contains("2/2"), "{table}");
            assert!(table.contains("worker-1"), "{table}");
            // Request-latency columns exist but render `-` for sweep
            // entries, which never serve requests.
            assert!(table.contains("p99-us"), "{table}");
            assert!(table.contains("queue"), "{table}");
        }

        let err = run_cli(&["top", "/nonexistent/status.dimstat"]).unwrap_err();
        assert!(!err.to_string().is_empty());
        let err = run_cli(&["top"]).unwrap_err();
        assert!(err.to_string().contains("missing status file"), "{err}");
        std::fs::remove_dir_all(&out_dir).ok();
    }

    /// A version-3 file has no `array_retired`: it still renders, and
    /// its sim-MIPS counts the pipeline's instructions alone.
    #[test]
    fn top_renders_a_version_3_status_file() {
        let body = "{\"source\":\"sweep\",\"label\":\"v3\",\"state\":\"done\",\
                    \"done\":1,\"total\":1,\"retired\":2000,\"sim_cycles\":3000,\
                    \"invocations\":0,\"rcache_hits\":0,\"rcache_misses\":0,\
                    \"misspeculations\":0,\"host_nanos\":1000000,\"fabric_busy_thirds\":0,\
                    \"fabric_capacity_thirds\":0,\"latency_p99_micros\":0,\"queue_depth\":0}\n";
        let text = format!(
            "{{\"type\":\"status_header\",\"magic\":\"DIMSTAT\",\"version\":3,\
             \"entries\":1,\"body_fnv64\":\"{:016x}\"}}\n{body}",
            dim_obs::fnv1a64(body.as_bytes())
        );
        let path = tmp_file("v3.dimstat", &text);
        let table = run_cli(&["top", path.to_str().unwrap()]).unwrap();
        let row = table.lines().find(|l| l.contains("v3")).expect("a row");
        // 2000 instructions in 1 ms of host time.
        assert!(row.contains(" 2.0 "), "{table}");

        // The same entry at version 4 adds the array's instructions.
        let mut status = dim_obs::status::StatusFile::parse(&text).unwrap();
        status.entries[0].array_retired = 6000;
        let path = tmp_file("v4.dimstat", &status.render());
        let table = run_cli(&["top", path.to_str().unwrap()]).unwrap();
        let row = table.lines().find(|l| l.contains("v3")).expect("a row");
        assert!(row.contains(" 8.0 "), "{table}");
    }

    #[test]
    fn sweep_flight_zero_disables_the_flight_dir() {
        let spec = tmp_file(
            "t35.spec",
            "workloads = crc32\nscale = tiny\nshapes = 1\nslots = 16\nspeculation = on\n",
        );
        let out_dir = std::env::temp_dir().join("dim-cli-tests/t35-sweep");
        std::fs::remove_dir_all(&out_dir).ok();
        run_cli(&[
            "sweep",
            spec.to_str().unwrap(),
            "--out",
            out_dir.to_str().unwrap(),
            "--flight",
            "0",
        ])
        .unwrap();
        assert!(!out_dir.join("flight").exists());
        std::fs::remove_dir_all(&out_dir).ok();
    }

    #[test]
    fn explain_exports_chrome_and_folded_and_ranks_regions() {
        let src = tmp_file("t21.s", PROGRAM);
        let trace = std::env::temp_dir().join("dim-cli-tests/t21.jsonl");
        run_cli(&[
            "accel",
            src.to_str().unwrap(),
            "--trace-out",
            trace.to_str().unwrap(),
        ])
        .unwrap();

        let chrome = std::env::temp_dir().join("dim-cli-tests/t21-chrome.json");
        let folded = std::env::temp_dir().join("dim-cli-tests/t21.folded");
        let report = run_cli(&[
            "explain",
            trace.to_str().unwrap(),
            "--chrome-out",
            chrome.to_str().unwrap(),
            "--folded-out",
            folded.to_str().unwrap(),
        ])
        .unwrap();
        assert!(report.contains("top"), "{report}");
        assert!(report.contains("0x"), "{report}");
        assert!(report.contains("chrome trace ->"), "{report}");
        assert!(report.contains("folded stacks ->"), "{report}");

        // The Chrome export is valid JSON with a traceEvents array; the
        // folded export is non-empty and frame-structured.
        let chrome_text = std::fs::read_to_string(&chrome).unwrap();
        let parsed = dim_obs::parse_json(&chrome_text).unwrap();
        assert!(parsed
            .get("traceEvents")
            .and_then(|v| v.as_array())
            .is_some_and(|events| !events.is_empty()));
        let folded_text = std::fs::read_to_string(&folded).unwrap();
        assert!(!folded_text.trim().is_empty());
        assert!(folded_text.lines().all(|l| l.rsplit_once(' ').is_some()));

        // JSON mode emits the machine-readable analysis instead.
        let json = run_cli(&["explain", trace.to_str().unwrap(), "--json"]).unwrap();
        let v = dim_obs::parse_json(&json).unwrap();
        assert!(
            v.get("total_cycles")
                .and_then(dim_obs::JsonValue::as_u64)
                .unwrap()
                > 0
        );

        // Flag validation stays strict.
        let err = run_cli(&["explain", trace.to_str().unwrap(), "--chrome"]).unwrap_err();
        assert!(err.to_string().contains("unknown flag"), "{err}");
        let err = run_cli(&["explain", trace.to_str().unwrap(), "--top"]).unwrap_err();
        assert!(err.to_string().contains("requires a value"), "{err}");
        assert!(run_cli(&["explain"]).is_err());
    }

    #[test]
    fn sweep_explain_writes_per_cell_forensics() {
        let spec = tmp_file(
            "t22.spec",
            "workloads = crc32\nscale = tiny\nshapes = 1\nslots = 16\nspeculation = on\n",
        );
        let out_dir = std::env::temp_dir().join("dim-cli-tests/t22-sweep");
        std::fs::remove_dir_all(&out_dir).ok();
        let report = run_cli(&[
            "sweep",
            spec.to_str().unwrap(),
            "--out",
            out_dir.to_str().unwrap(),
            "--explain",
        ])
        .unwrap();
        assert!(report.contains("forensics:"), "{report}");
        let explain_dir = out_dir.join("explain");
        let entries: Vec<_> = std::fs::read_dir(&explain_dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        assert_eq!(entries.len(), 1);
        let text = std::fs::read_to_string(&entries[0]).unwrap();
        let parsed = dim_obs::parse_json(&text).unwrap();
        assert!(parsed.get("regions").is_some());
        std::fs::remove_dir_all(&out_dir).ok();
    }

    #[test]
    fn profile_prints_exact_attribution_table() {
        let src = tmp_file("t11.s", PROGRAM);
        let report = run_cli(&["profile", src.to_str().unwrap(), "--caches"]).unwrap();
        assert!(report.contains("block"), "{report}");
        assert!(report.contains("total"), "{report}");

        let json = run_cli(&["profile", src.to_str().unwrap(), "--json"]).unwrap();
        assert!(json.trim_start().starts_with('{'), "{json}");
    }

    #[test]
    fn trace_rejects_garbage() {
        let bad = tmp_file("t12.jsonl", "not json\n");
        assert!(run_cli(&["trace", bad.to_str().unwrap()]).is_err());
    }

    #[test]
    fn accel_rejects_bad_config() {
        let src = tmp_file("t4.s", PROGRAM);
        assert!(run_cli(&["accel", src.to_str().unwrap(), "--config", "9"]).is_err());
    }

    #[test]
    fn accel_rejects_unknown_and_malformed_flags() {
        let src = tmp_file("t13.s", PROGRAM);
        let path = src.to_str().unwrap();
        let err = run_cli(&["accel", path, "--slot", "16"]).unwrap_err();
        assert!(err.to_string().contains("unknown flag `--slot`"), "{err}");
        let err = run_cli(&["accel", path, "--slots"]).unwrap_err();
        assert!(err.to_string().contains("requires a value"), "{err}");
        let err = run_cli(&["accel", path, "--compare", "--compare"]).unwrap_err();
        assert!(err.to_string().contains("more than once"), "{err}");
        let err = run_cli(&["accel", path, "stray.s"]).unwrap_err();
        assert!(err.to_string().contains("unexpected argument"), "{err}");
    }

    /// A command's own flag is never taken as another flag's value.
    #[test]
    fn a_flag_is_not_another_flags_value() {
        let src = tmp_file("t14.s", PROGRAM);
        let path = src.to_str().unwrap();
        let err = run_cli(&["accel", path, "--trace-out", "--metrics"]).unwrap_err();
        assert_eq!(err.to_string(), "--trace-out requires a value");
        assert!(!Path::new("--metrics").exists());
        let err = run_cli(&["accel", path, "--slots", "--config", "2"]).unwrap_err();
        assert_eq!(err.to_string(), "--slots requires a value");
        let err = run_cli(&["lint", "--allow", "--json", path]).unwrap_err();
        assert_eq!(err.to_string(), "--allow requires a value");
    }

    /// Every command with one input reads it from the positionals, so a
    /// flag before the input and a flag's value are never read as it.
    #[test]
    fn single_input_commands_take_flags_on_either_side() {
        let dir = std::env::temp_dir().join("dim-cli-tests/t15");
        std::fs::create_dir_all(&dir).unwrap();
        let at = |name: &str| dir.join(name).to_str().unwrap().to_string();
        let src = tmp_file("t15/prog.s", PROGRAM);
        let src = src.to_str().unwrap();
        let (trace, snapshot, sweep_out) = (at("t.jsonl"), at("s.dimrc"), at("sweep"));
        run_cli(&[
            "accel",
            src,
            "--trace-out",
            &trace,
            "--rcache-save",
            &snapshot,
        ])
        .unwrap();
        let script = tmp_file("t15/script", "step 3\nregs\n");
        let spec = tmp_file(
            "t15/grid.spec",
            "workloads = crc32\nscale = tiny\nshapes = 1\nslots = 16\nspeculation = on\n",
        );
        let spans = fake_span_dump("t15.dimspan");
        let status_dir = at("status");
        run_cli(&["sweep", spec.to_str().unwrap(), "--out", &status_dir]).unwrap();
        let cases: [(&str, &str, &[&str]); 15] = [
            ("asm", src, &["-o", &at("prog.dimg")]),
            ("run", src, &["--caches"]),
            ("accel", src, &["--no-spec"]),
            ("profile", src, &["--top", "3"]),
            ("trace", &trace, &["--stats"]),
            ("heat", src, &["--config", "2"]),
            ("explain", &trace, &["--top", "3"]),
            ("compare", src, &["--max-steps", "100000"]),
            ("lint", src, &["--allow", "W001"]),
            ("verify", &snapshot, &["--json"]),
            ("prove", src, &["--cert-out", &at("c.jsonl")]),
            ("debug", src, &["--script", script.to_str().unwrap()]),
            ("spans", spans.to_str().unwrap(), &["--json"]),
            ("sweep", spec.to_str().unwrap(), &["--out", &sweep_out]),
            ("top", &status_dir, &["--follow"]),
        ];
        for (cmd, input, flags) in cases {
            let outputs = [true, false].map(|flags_first| {
                std::fs::remove_dir_all(&sweep_out).ok();
                let mut args = vec![cmd];
                if flags_first {
                    args.extend_from_slice(flags);
                    args.push(input);
                } else {
                    args.push(input);
                    args.extend_from_slice(flags);
                }
                let out = run_cli(&args).unwrap_or_else(|e| panic!("{args:?}: {e}"));
                // A sweep's summary line carries its wall time.
                out.lines()
                    .filter(|l| !l.starts_with("sweep:"))
                    .collect::<Vec<_>>()
                    .join("\n")
            });
            assert_eq!(outputs[0], outputs[1], "{cmd} {flags:?}");
            assert!(!outputs[0].is_empty(), "{cmd}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn every_command_rejects_an_unknown_flag() {
        let commands = [
            "asm",
            "disasm",
            "run",
            "accel",
            "profile",
            "trace",
            "heat",
            "explain",
            "compare",
            "suite",
            "sweep",
            "top",
            "perf record",
            "perf compare",
            "perf gate",
            "lint",
            "verify",
            "prove",
            "serve",
            "submit",
            "spans",
            "debug",
            "help",
        ];
        // The list covers every command the usage text documents.
        for line in USAGE.lines() {
            if let Some(name) = line.strip_prefix("  ").and_then(|l| l.split(' ').next()) {
                assert!(
                    name.is_empty() || commands.iter().any(|c| c.split(' ').next() == Some(name)),
                    "`{name}` is missing from the list"
                );
            }
        }
        for command in commands {
            let mut args: Vec<&str> = command.split(' ').collect();
            args.push("--bogus");
            let err = run_cli(&args).expect_err(command);
            assert!(
                err.to_string().contains("unknown flag `--bogus`"),
                "{command}: {err}"
            );
        }
    }

    #[test]
    fn accel_rejects_rcache_with_ideal_array() {
        let src = tmp_file("t14.s", PROGRAM);
        let err = run_cli(&[
            "accel",
            src.to_str().unwrap(),
            "--config",
            "ideal",
            "--rcache-save",
            "/tmp/x.dimrc",
        ])
        .unwrap_err();
        assert!(err.to_string().contains("not supported"), "{err}");
    }

    #[test]
    fn accel_rcache_save_then_load_roundtrip() {
        let src = tmp_file("t15.s", PROGRAM);
        let path = src.to_str().unwrap();
        let snap = std::env::temp_dir().join("dim-cli-tests/t15.dimrc");
        let snap = snap.to_str().unwrap();

        let saved = run_cli(&["accel", path, "--config", "2", "--rcache-save", snap]).unwrap();
        assert!(saved.contains("rcache: saved"), "{saved}");

        let loaded = run_cli(&["accel", path, "--config", "2", "--rcache-load", snap]).unwrap();
        assert!(loaded.contains("rcache: loaded"), "{loaded}");

        // A snapshot from config 2 must not load into a config 3 system,
        // and the error must say why.
        let err = run_cli(&["accel", path, "--config", "3", "--rcache-load", snap]).unwrap_err();
        assert!(err.to_string().contains("hint"), "{err}");
    }

    #[test]
    fn lint_clean_file_reports_and_passes() {
        let src = tmp_file("t20.s", PROGRAM);
        let out = run_cli(&["lint", src.to_str().unwrap()]).unwrap();
        assert!(out.contains("0 errors"), "{out}");
        assert!(out.contains("blocks"), "{out}");
    }

    #[test]
    fn lint_dirty_file_fails_and_allow_suppresses() {
        let src = tmp_file(
            "t21.s",
            "main: j end
             dead: li $t0, 1
             end:  break 0",
        );
        let path = src.to_str().unwrap();
        let err = run_cli(&["lint", path]).unwrap_err();
        assert!(err.to_string().contains("failed the gate"), "{err}");

        let out = run_cli(&["lint", path, "--allow", "W101"]).unwrap();
        assert!(out.contains("suppressed"), "{out}");
    }

    #[test]
    fn lint_json_and_candidates() {
        let src = tmp_file("t22.s", PROGRAM);
        let path = src.to_str().unwrap();
        let out = run_cli(&["lint", path, "--json", "--candidates"]).unwrap();
        assert!(out.contains("\"clean\":true"), "{out}");
        assert!(out.contains("\"entries\":["), "{out}");
        let human = run_cli(&["lint", path, "--candidates"]).unwrap();
        assert!(human.contains("viable region entries"), "{human}");
    }

    #[test]
    fn lint_suite_is_clean_with_allowlists() {
        let out = run_cli(&["lint", "--suite"]).unwrap();
        assert!(out.contains("crc32"), "{out}");
        assert!(out.contains("dijkstra"), "{out}");
        // Flag combinations that cannot mean anything must fail loudly.
        assert!(run_cli(&["lint", "--suite", "--candidates"]).is_err());
        assert!(run_cli(&["lint"]).is_err());
    }

    /// A counted byte-scan loop: one affine load, no stores — prime
    /// streaming-certificate material.
    const STREAM_PROGRAM: &str = "
        main: li $s0, 64
              li $s1, 0x2000
        loop: lbu $t0, 0($s1)
              addu $v0, $v0, $t0
              addiu $s1, $s1, 1
              addiu $s0, $s0, -1
              bnez $s0, loop
              break 0";

    #[test]
    fn prove_certifies_stream_loop_and_json_is_schema_stamped() {
        let src = tmp_file("t40.s", STREAM_PROGRAM);
        let path = src.to_str().unwrap();
        let human = run_cli(&["prove", path]).unwrap();
        assert!(human.contains("CERTIFIED"), "{human}");
        assert!(human.contains("affine stride +1"), "{human}");
        assert!(human.contains("1 certificate"), "{human}");

        let js = run_cli(&["prove", path, "--json"]).unwrap();
        assert!(js.contains("\"type\":\"prove_report\""), "{js}");
        assert!(js.contains("\"schema\":1"), "{js}");
        assert!(js.contains("\"status\":\"certified\""), "{js}");
        assert!(js.contains("\"checksum\":"), "{js}");
    }

    #[test]
    fn prove_rejects_syscall_loop() {
        // PROGRAM's loop is store- and load-free; a syscall variant
        // must be rejected with the reason named.
        let src = tmp_file(
            "t41.s",
            "main: li $s0, 4
             loop: lbu $t0, 0($s1)
                   syscall
                   addiu $s1, $s1, 1
                   addiu $s0, $s0, -1
                   bnez $s0, loop
                   break 0",
        );
        let out = run_cli(&["prove", src.to_str().unwrap()]).unwrap();
        assert!(out.contains("syscall in body"), "{out}");
        assert!(out.contains("0 certificate(s)"), "{out}");
    }

    #[test]
    fn prove_cert_out_round_trips_through_check_and_rejects_flips() {
        let src = tmp_file("t42.s", STREAM_PROGRAM);
        let path = src.to_str().unwrap();
        let certs = std::env::temp_dir().join("dim-cli-tests/t42.certs.jsonl");
        let certs = certs.to_str().unwrap();
        let out = run_cli(&["prove", path, "--cert-out", certs]).unwrap();
        assert!(out.contains("1 certificate(s) ->"), "{out}");

        let ok = run_cli(&["prove", "--check", certs]).unwrap();
        assert!(ok.contains("1 certificate(s) valid"), "{ok}");
        let err = run_cli(&["prove", "--check", certs, path]).unwrap_err();
        assert!(err.to_string().contains("takes no input file"), "{err}");

        // Flip one payload byte: the checksum must catch it, with the
        // line number in the error.
        let text = std::fs::read_to_string(certs).unwrap();
        let flipped_text = text.replacen("\"burst\":16", "\"burst\":15", 1);
        assert_ne!(flipped_text, text, "{text}");
        let flipped = std::env::temp_dir().join("dim-cli-tests/t42-flipped.jsonl");
        std::fs::write(&flipped, flipped_text).unwrap();
        let err = run_cli(&["prove", "--check", flipped.to_str().unwrap()]).unwrap_err();
        assert!(err.to_string().contains("checksum"), "{err}");
        assert!(err.to_string().contains(":1:"), "{err}");
    }

    #[test]
    fn prove_suite_emits_certs_on_streaming_workloads() {
        let out = run_cli(&["prove", "--suite"]).unwrap();
        assert!(out.contains("crc32"), "{out}");
        assert!(out.contains("CERTIFIED"), "{out}");
        // Flag hygiene mirrors lint.
        assert!(run_cli(&["prove"]).is_err());
        assert!(run_cli(&["prove", "--suite", "extra.s"]).is_err());
    }

    #[test]
    fn accel_with_certs_tags_matching_commits() {
        let src = tmp_file("t43.s", STREAM_PROGRAM);
        let path = src.to_str().unwrap();
        let certs = std::env::temp_dir().join("dim-cli-tests/t43.certs.jsonl");
        let certs = certs.to_str().unwrap();
        run_cli(&["prove", path, "--cert-out", certs]).unwrap();

        // Without speculation the committed region stays inside the
        // loop body, so the certificate covers every placed op.
        let out = run_cli(&["accel", path, "--no-spec", "--certs", certs]).unwrap();
        assert!(out.contains("stream: installed 1 certificate(s)"), "{out}");
        assert!(out.contains("1 commit(s) tagged stream_ok"), "{out}");
        assert!(out.contains("1 rcache entry(ies) tagged now"), "{out}");

        // A corrupted certificate file must refuse to install.
        let text = std::fs::read_to_string(certs).unwrap();
        let bad = std::env::temp_dir().join("dim-cli-tests/t43-bad.jsonl");
        std::fs::write(&bad, text.replacen("\"len\":", "\"len \":", 1)).unwrap();
        let err =
            run_cli(&["accel", path, "--no-spec", "--certs", bad.to_str().unwrap()]).unwrap_err();
        assert!(err.to_string().contains("--certs"), "{err}");
    }

    #[test]
    fn verify_accepts_good_snapshot_and_rejects_doctored_one() {
        let src = tmp_file("t23.s", PROGRAM);
        let path = src.to_str().unwrap();
        let snap = std::env::temp_dir().join("dim-cli-tests/t23.dimrc");
        let snap = snap.to_str().unwrap();
        run_cli(&["accel", path, "--config", "2", "--rcache-save", snap]).unwrap();

        let ok = run_cli(&["verify", snap]).unwrap();
        assert!(ok.contains("structurally valid"), "{ok}");
        let js = run_cli(&["verify", snap, "--json"]).unwrap();
        assert!(js.contains("\"ok\":true"), "{js}");

        // Doctor the snapshot: drop a writeback from the first
        // configuration and re-encode (valid checksum, invalid contents).
        let bytes = std::fs::read(snap).unwrap();
        let mut contents = dim_core::SnapshotContents::parse(&bytes).unwrap();
        let loc = contents.configs[0].writebacks().next().unwrap().0;
        contents.configs[0].remove_writeback(loc);
        let doctored = std::env::temp_dir().join("dim-cli-tests/t23-doctored.dimrc");
        std::fs::write(&doctored, contents.encode()).unwrap();

        let err = run_cli(&["verify", doctored.to_str().unwrap()]).unwrap_err();
        assert!(err.to_string().contains("violation"), "{err}");

        // The accelerator must refuse to warm-start from it, naming the
        // failing region.
        let err = run_cli(&[
            "accel",
            path,
            "--config",
            "2",
            "--rcache-load",
            doctored.to_str().unwrap(),
        ])
        .unwrap_err();
        assert!(err.to_string().contains("failed verification"), "{err}");
    }

    #[test]
    fn verify_rejects_bit_flip() {
        let src = tmp_file("t24.s", PROGRAM);
        let path = src.to_str().unwrap();
        let snap = std::env::temp_dir().join("dim-cli-tests/t24.dimrc");
        let snap = snap.to_str().unwrap();
        run_cli(&["accel", path, "--config", "2", "--rcache-save", snap]).unwrap();

        let mut bytes = std::fs::read(snap).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        let flipped = std::env::temp_dir().join("dim-cli-tests/t24-flipped.dimrc");
        std::fs::write(&flipped, &bytes).unwrap();
        let err = run_cli(&["verify", flipped.to_str().unwrap()]).unwrap_err();
        assert!(!err.to_string().is_empty());
    }

    #[test]
    fn sweep_runs_resumes_and_validates_flags() {
        let spec = tmp_file(
            "t16.spec",
            "workloads = crc32\nscale = tiny\nshapes = 1, 3\nslots = 16\nspeculation = on\n",
        );
        let spec_path = spec.to_str().unwrap();
        let out_dir = std::env::temp_dir().join("dim-cli-tests/t16-sweep");
        std::fs::remove_dir_all(&out_dir).ok();
        let out_path = out_dir.to_str().unwrap();

        let first = run_cli(&["sweep", spec_path, "--out", out_path, "--limit", "1"]).unwrap();
        assert!(first.contains("incomplete"), "{first}");

        let second = run_cli(&["sweep", spec_path, "--out", out_path, "--jobs", "2"]).unwrap();
        assert!(second.contains("1 skipped"), "{second}");
        assert!(second.contains("complete: report"), "{second}");

        let err = run_cli(&["sweep", spec_path, "--jobs", "0"]).unwrap_err();
        assert!(err.to_string().contains("at least 1"), "{err}");
        let err = run_cli(&["sweep", spec_path, "--job", "2"]).unwrap_err();
        assert!(err.to_string().contains("unknown flag"), "{err}");

        let bad_spec = tmp_file("t16-bad.spec", "workloads = crc32\nshapes = 9\n");
        let err = run_cli(&["sweep", bad_spec.to_str().unwrap()]).unwrap_err();
        assert!(err.to_string().contains("unknown shape"), "{err}");

        std::fs::remove_dir_all(&out_dir).ok();
    }

    #[test]
    fn sweep_bench_compare_writes_json() {
        let spec = tmp_file(
            "t17.spec",
            "workloads = crc32\nscale = tiny\nshapes = 1\nslots = 16\nspeculation = on\n",
        );
        let base = std::env::temp_dir().join("dim-cli-tests/t17-bench");
        std::fs::remove_dir_all(&base).ok();
        let report = run_cli(&[
            "sweep",
            spec.to_str().unwrap(),
            "--jobs",
            "2",
            "--bench-out",
            base.to_str().unwrap(),
        ])
        .unwrap();
        assert!(report.contains("identical: true"), "{report}");
        assert!(base.join("BENCH_sweep.json").exists());
        std::fs::remove_dir_all(&base).ok();
    }

    #[test]
    fn perf_record_compare_gate_roundtrip() {
        let dir = std::env::temp_dir().join("dim-cli-tests/t18-perf");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let base = dir.join("base.json");
        let base_path = base.to_str().unwrap();

        let report = run_cli(&[
            "perf",
            "record",
            "--out",
            base_path,
            "--workloads",
            "crc32,sha",
            "--shape",
            "1",
            "--reps",
            "1",
            "--bench-out",
            dir.to_str().unwrap(),
        ])
        .unwrap();
        assert!(
            report.contains("baseline `local`: 2 workload(s)"),
            "{report}"
        );
        assert!(dir.join("BENCH_perf.json").exists());

        // Gate re-records under the stored matrix; the simulator is
        // deterministic, so the strict default passes.
        let gated = run_cli(&["perf", "gate", "--baseline", base_path]).unwrap();
        assert!(gated.contains("gate PASSED"), "{gated}");

        // Comparing the baseline against itself shows no movement.
        let cmp = run_cli(&["perf", "compare", base_path, base_path]).unwrap();
        assert!(cmp.contains("crc32"), "{cmp}");
        let json = run_cli(&["perf", "compare", base_path, base_path, "--json"]).unwrap();
        assert!(json.trim_start().starts_with('{'), "{json}");

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn perf_gate_fails_on_doctored_baseline() {
        let dir = std::env::temp_dir().join("dim-cli-tests/t19-perf");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let base = dir.join("base.json");
        let base_path = base.to_str().unwrap();
        run_cli(&[
            "perf",
            "record",
            "--out",
            base_path,
            "--workloads",
            "crc32",
            "--shape",
            "1",
            "--reps",
            "1",
        ])
        .unwrap();

        // Hand-inject a simulated-cycle regression into a copy, keeping
        // the attribution invariant intact, and gate the copy as current.
        let mut doctored =
            dim_perf::Baseline::parse(&std::fs::read_to_string(&base).unwrap()).unwrap();
        let w = &mut doctored.workloads[0];
        let extra = w.accel_cycles / 10 + 1;
        w.accel_cycles += extra;
        w.attribution.pipeline += extra;
        w.speedup = w.scalar_cycles as f64 / w.accel_cycles as f64;
        let cur = dir.join("cur.json");
        std::fs::write(&cur, doctored.to_json()).unwrap();

        let err = run_cli(&[
            "perf",
            "gate",
            "--baseline",
            base_path,
            "--current",
            cur.to_str().unwrap(),
        ])
        .unwrap_err();
        assert!(err.to_string().contains("regression"), "{err}");

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn perf_rejects_bad_usage() {
        let err = run_cli(&["perf"]).unwrap_err();
        assert!(err.to_string().contains("missing subcommand"), "{err}");
        let err = run_cli(&["perf", "frobnicate"]).unwrap_err();
        assert!(err.to_string().contains("unknown subcommand"), "{err}");
        let err = run_cli(&["perf", "record"]).unwrap_err();
        assert!(err.to_string().contains("--out"), "{err}");
        let err = run_cli(&["perf", "gate"]).unwrap_err();
        assert!(err.to_string().contains("--baseline"), "{err}");
        let err = run_cli(&["perf", "compare", "only-one.json"]).unwrap_err();
        assert!(err.to_string().contains("two baseline files"), "{err}");
        let err = run_cli(&["perf", "record", "--out", "/tmp/x.json", "--rep", "1"]).unwrap_err();
        assert!(err.to_string().contains("unknown flag"), "{err}");
    }

    #[test]
    fn debug_with_script_file() {
        let src = tmp_file("t6.s", PROGRAM);
        let script = tmp_file(
            "t6.dbg",
            "step 3
regs
quit
",
        );
        let report = run_cli(&[
            "debug",
            src.to_str().unwrap(),
            "--script",
            script.to_str().unwrap(),
        ])
        .unwrap();
        assert!(report.contains("debugging:"), "{report}");
        assert!(report.contains("$zero"), "{report}");
    }

    #[test]
    fn compare_lists_all_organizations() {
        let src = tmp_file("t8.s", PROGRAM);
        let report = run_cli(&["compare", src.to_str().unwrap()]).unwrap();
        assert!(report.contains("scalar MIPS"), "{report}");
        assert!(report.contains("2-wide superscalar"), "{report}");
        assert!(report.contains("DIM config #3"), "{report}");
    }

    #[test]
    fn suite_tiny_validates_everything() {
        let report = run_cli(&["suite", "--scale", "tiny"]).unwrap();
        assert_eq!(report.lines().count(), 18);
        assert!(report.contains("crc32"));
        assert!(report.contains("rijndael_enc"));
    }

    #[test]
    fn missing_file_reported() {
        let err = run_cli(&["run", "/nonexistent/x.s"]).unwrap_err();
        assert!(err.to_string().contains("/nonexistent/x.s"));
    }

    fn status_file_with_state(state: &str) -> dim_obs::status::StatusFile {
        dim_obs::status::StatusFile {
            entries: vec![StatusEntry {
                source: "sweep".into(),
                label: "restart-test".into(),
                state: state.into(),
                ..Default::default()
            }],
        }
    }

    fn tiny_follow_policy(max_misses: u32) -> FollowPolicy {
        FollowPolicy {
            poll: std::time::Duration::from_millis(5),
            backoff_start: std::time::Duration::from_millis(2),
            backoff_cap: std::time::Duration::from_millis(10),
            max_misses,
        }
    }

    #[test]
    fn top_follow_survives_status_file_restart() {
        use dim_obs::status::write_status;
        let dir = std::env::temp_dir().join(format!("dim-top-restart-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(STATUS_FILE_NAME);
        write_status(&path, &status_file_with_state("running")).unwrap();

        // A producer that vanishes mid-follow (file deleted) and then
        // reappears finished — the follower must ride it out.
        let writer = {
            let path = path.clone();
            std::thread::spawn(move || {
                std::thread::sleep(std::time::Duration::from_millis(20));
                std::fs::remove_file(&path).unwrap();
                std::thread::sleep(std::time::Duration::from_millis(40));
                write_status(&path, &status_file_with_state("done")).unwrap();
            })
        };
        let mut out = Vec::new();
        run_top(&path, true, &tiny_follow_policy(100), &mut out).unwrap();
        writer.join().unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("running"), "{text}");
        assert!(text.contains("done"), "{text}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn top_follow_gives_up_after_bounded_misses() {
        let path = std::env::temp_dir().join("dim-top-never-appears/status.dimstat");
        let mut out = Vec::new();
        let err = run_top(&path, true, &tiny_follow_policy(3), &mut out).unwrap_err();
        assert!(
            err.to_string().contains("gave up after 3 attempts"),
            "{err}"
        );
    }

    #[test]
    fn serve_flags_are_validated_strictly() {
        for (args, needle) in [
            (vec!["serve"], "missing --socket"),
            (vec!["serve", "--jobs", "0"], "--jobs: must be at least 1"),
            (
                vec!["serve", "--socket", "/tmp/x.sock", "--queue", "0"],
                "--queue: must be at least 1",
            ),
            (
                vec!["serve", "--socket", "/tmp/x.sock", "--clients", "4"],
                "requires --selftest",
            ),
            (
                vec!["serve", "--selftest", "--socket", "/tmp/x.sock"],
                "does not apply to --selftest",
            ),
            (vec!["serve", "--frobnicate"], "unknown flag"),
            (vec!["submit"], "missing socket path"),
            (vec!["submit", "/tmp/x.sock"], "missing request file"),
            (
                vec!["submit", "/nonexistent/dim.sock", "/nonexistent/req.toml"],
                "no such socket",
            ),
        ] {
            let err = run_cli(&args).unwrap_err();
            assert!(err.to_string().contains(needle), "{args:?} → {err}");
        }
    }

    #[test]
    fn serve_daemon_accepts_a_submitted_request_file() {
        let dir = std::env::temp_dir().join(format!("dim-cli-serve-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let socket = dir.join("dim.sock");
        let server = {
            let socket = socket.to_str().unwrap().to_string();
            std::thread::spawn(move || run_cli(&["serve", "--socket", &socket, "--jobs", "1"]))
        };
        for _ in 0..200 {
            if socket.exists() {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        assert!(socket.exists(), "daemon socket never appeared");

        let req = tmp_file("serve-req.toml", "workload = bitcount\ncommand = accel\n");
        let report = run_cli(&["submit", socket.to_str().unwrap(), req.to_str().unwrap()]).unwrap();
        assert!(report.contains("cycles"), "{report}");

        let status_req = tmp_file("serve-status.toml", "command = status\n");
        let status = run_cli(&[
            "submit",
            socket.to_str().unwrap(),
            status_req.to_str().unwrap(),
            "--json",
        ])
        .unwrap();
        assert!(status.contains("\"completed\":1"), "{status}");

        let shutdown_req = tmp_file("serve-shutdown.toml", "command = shutdown\n");
        run_cli(&[
            "submit",
            socket.to_str().unwrap(),
            shutdown_req.to_str().unwrap(),
        ])
        .unwrap();
        let summary = server.join().unwrap().unwrap();
        assert!(
            summary.contains("drained: 1 submitted, 1 completed"),
            "{summary}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Writes a two-request span dump driven by a fake clock, so every
    /// expected duration below is exact.
    fn fake_span_dump(name: &str) -> std::path::PathBuf {
        use dim_obs::{FakeClock, SharedClock, SpanSheet};
        let clock = FakeClock::shared(1_000);
        let sheet = SpanSheet::new(std::sync::Arc::clone(&clock) as SharedClock, 16);
        for (seq, tenant) in [(1u64, "alpha"), (2u64, "beta")] {
            let root = sheet.begin_root("request", tenant, seq);
            let queue = sheet.begin("queue_wait", root);
            clock.advance(2_000);
            sheet.end(queue);
            let exec = sheet.begin("exec", root);
            clock.advance(seq * 10_000);
            sheet.end(exec);
            sheet.end(root);
        }
        tmp_file(name, &sheet.render())
    }

    #[test]
    fn spans_analyzes_a_dump_and_exports_chrome_trace() {
        let dump = fake_span_dump("t60.dimspan");
        let text = run_cli(&["spans", dump.to_str().unwrap()]).unwrap();
        assert!(text.contains("2 request tree(s)"), "{text}");
        assert!(text.contains("laws: ok"), "{text}");
        assert!(text.contains("per-stage latency"), "{text}");
        assert!(text.contains("queue_wait"), "{text}");
        // The slowest request is beta's (20 ms exec vs alpha's 10 ms).
        assert!(text.contains("tenant `beta` seq 2"), "{text}");
        assert!(text.contains("critical path: request -> exec"), "{text}");

        let json = run_cli(&["spans", dump.to_str().unwrap(), "--json"]).unwrap();
        let v = dim_obs::parse_json(&json).unwrap();
        assert_eq!(
            v.get("laws_ok").and_then(dim_obs::JsonValue::as_bool),
            Some(true)
        );
        let exec = v.get("stages").and_then(|s| s.get("exec")).unwrap();
        assert_eq!(
            exec.get("count").and_then(dim_obs::JsonValue::as_u64),
            Some(2)
        );
        assert_eq!(
            exec.get("max_nanos").and_then(dim_obs::JsonValue::as_u64),
            Some(20_000)
        );
        let beta = v.get("tenants").and_then(|t| t.get("beta")).unwrap();
        assert_eq!(
            beta.get("requests").and_then(dim_obs::JsonValue::as_u64),
            Some(1)
        );

        let chrome = tmp_file("t60-chrome.json", "");
        run_cli(&[
            "spans",
            dump.to_str().unwrap(),
            "--chrome-out",
            chrome.to_str().unwrap(),
        ])
        .unwrap();
        let trace = std::fs::read_to_string(&chrome).unwrap();
        let v = dim_obs::parse_json(&trace).unwrap();
        let events = v.get("traceEvents").unwrap().as_array().unwrap();
        // 2 thread_name metadata events + 6 span events.
        assert_eq!(events.len(), 8, "{trace}");
        assert!(trace.contains("\"ph\":\"X\""), "{trace}");
        assert!(trace.contains("beta #2"), "{trace}");
    }

    #[test]
    fn spans_flags_law_violations_and_bad_files() {
        use dim_obs::{FakeClock, SharedClock, SpanSheet};
        // A dump with an un-ended child trips the text-mode exit and is
        // reported (not hidden) in --json.
        let clock = FakeClock::shared(0);
        let sheet = SpanSheet::new(std::sync::Arc::clone(&clock) as SharedClock, 4);
        let root = sheet.begin_root("request", "t", 1);
        let _leak = sheet.begin("exec", root);
        clock.advance(500);
        sheet.end(root);
        let dump = tmp_file("t61.dimspan", &sheet.render());
        let err = run_cli(&["spans", dump.to_str().unwrap()]).unwrap_err();
        assert!(err.to_string().contains("law violation"), "{err}");
        let json = run_cli(&["spans", dump.to_str().unwrap(), "--json"]).unwrap();
        assert!(json.contains("\"laws_ok\":false"), "{json}");
        assert!(json.contains("never ended"), "{json}");

        let err = run_cli(&["spans", "/nonexistent/spans.dimspan"]).unwrap_err();
        assert!(!err.to_string().is_empty());
        let garbage = tmp_file("t61-garbage.dimspan", "not a span frame\n");
        let err = run_cli(&["spans", garbage.to_str().unwrap()]).unwrap_err();
        assert!(!err.to_string().is_empty());
        let err = run_cli(&["spans"]).unwrap_err();
        assert!(err.to_string().contains("missing"), "{err}");
    }
}
