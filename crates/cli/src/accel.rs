//! Programs on the DIM system: `accel` and `profile`.

use crate::flags::Flags;
use crate::lint::read_certs;
use crate::program::{
    attach_caches, close_trace_sink, load_program, open_trace_sink, report_halt, report_output,
};
use crate::CliError;
use dim_cgra::ShapeChoice;
use dim_core::System;
use dim_mips_sim::Machine;
use dim_obs::{ArrayInvoke, CycleProfiler, FlightRecorder, MetricsRegistry, Probe, ProbeEvent};
use std::io::Write;
use std::path::Path;

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

pub(crate) fn cmd_accel(args: &[String], out: &mut impl Write) -> Result<(), CliError> {
    let flags = Flags::parse(
        "accel",
        args,
        "--config= --slots= --max-steps= --trace-out= --rcache-save= --rcache-load= \
         --flight= --flight-out= --certs= \
         --no-spec --compare --dump-configs --trace --metrics --watchdog",
        1,
    )?;
    let input = flags.input("input file")?;
    let program = load_program(input)?;
    let (choice, config, max_steps) = flags.system()?;
    let rcache_load = flags.value("--rcache-load");
    let rcache_save = flags.value("--rcache-save");
    if (rcache_load.is_some() || rcache_save.is_some()) && choice == ShapeChoice::Ideal {
        return Err(CliError::new(
            "accel: rcache snapshots are not supported with --config ideal \
             (the idealized array has no finite cache to persist)",
        ));
    }

    let mut system = System::new(Machine::load(&program), config);
    if let Some(path) = rcache_load {
        let bytes = std::fs::read(path).map_err(CliError::at(format!("--rcache-load {path}")))?;
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
    let certs_path = flags.value("--certs");
    if let Some(path) = certs_path {
        let what = format!("--certs {path}");
        let installed = system
            .install_stream_certs(read_certs(path, &what)?)
            .map_err(CliError::at(what))?;
        writeln!(
            out,
            "stream: installed {installed} certificate(s) from {path}"
        )?;
    }
    let mut window = flags
        .has("--trace")
        .then(|| InvocationWindow(FlightRecorder::new(TRACE_WINDOW)));
    let trace_out = flags.value("--trace-out");
    let flight_out = flags.value("--flight-out");
    let flight_capacity: Option<usize> = flags.num("--flight")?;
    if flight_capacity == Some(0) {
        return Err(CliError::new(
            "--flight: capacity must be at least 1 event \
             (omit the flag to disable the recorder)",
        ));
    }
    // --watchdog and --flight-out imply a recorder; give it a roomy
    // default window when --flight didn't size one explicitly.
    let flight_capacity = flight_capacity.or_else(|| {
        (flags.has("--watchdog") || flight_out.is_some()).then_some(DEFAULT_ACCEL_FLIGHT)
    });

    let mut metrics = flags.has("--metrics").then(MetricsRegistry::new);
    let mut sink = match trace_out {
        Some(path) => Some(open_trace_sink(
            path,
            input,
            system.stored_bits_per_config(),
        )?),
        None => None,
    };
    let mut guard =
        flight_capacity.map(|capacity| dim_sweep::flight_guard(input, capacity, &system));

    let halt = if metrics.is_some() || sink.is_some() || guard.is_some() || window.is_some() {
        let mut probe = (
            sink.as_mut(),
            (metrics.as_mut(), (guard.as_mut(), window.as_mut())),
        );
        let halt = system.run_probed(max_steps, &mut probe)?;
        probe.finish();
        halt
    } else {
        system.run(max_steps)?
    };
    if let (Some(sink), Some(path)) = (sink, trace_out) {
        close_trace_sink(sink, path, out)?;
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
            std::fs::write(path, text).map_err(CliError::at(format!("--flight-out {path}")))?;
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
    report_output(out, system.machine())?;
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
    if flags.has("--dump-configs") {
        for config in system.cache().iter() {
            write!(out, "{}", dim_cgra::render_occupancy(config))?;
        }
    }
    if flags.has("--compare") {
        let mut baseline = Machine::load(&program);
        baseline.run(max_steps)?;
        writeln!(
            out,
            "baseline {} cycles -> speedup {:.2}x",
            baseline.stats.cycles,
            baseline.stats.cycles as f64 / system.total_cycles().max(1) as f64
        )?;
    }
    if let Some(path) = rcache_save {
        let bytes = system.save_rcache();
        dim_obs::frame::atomic_write(Path::new(path), &bytes)
            .map_err(CliError::at(format!("--rcache-save {path}")))?;
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
        metrics.trans_begins,
        metrics.trans_commits(),
        metrics.trans_partials
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

pub(crate) fn cmd_profile(args: &[String], out: &mut impl Write) -> Result<(), CliError> {
    let flags = Flags::parse(
        "profile",
        args,
        "--config= --slots= --max-steps= --top= --no-spec --caches --json",
        1,
    )?;
    let program = load_program(flags.input("input file")?)?;
    let (_, config, max_steps) = flags.system()?;
    let top: usize = flags.num("--top")?.unwrap_or(20);

    let mut system = System::new(Machine::load(&program), config);
    if flags.has("--caches") {
        attach_caches(system.machine_mut());
    }
    let mut profiler = CycleProfiler::new();
    let halt = system.run_probed(max_steps, &mut profiler)?;
    let profile = profiler.into_profile();
    if profile.total_cycles() != system.total_cycles() {
        return Err(CliError::new(format!(
            "cycle attribution mismatch: profile accounts for {} cycles, run took {} — \
             this is a simulator bug",
            profile.total_cycles(),
            system.total_cycles()
        )));
    }
    if flags.has("--json") {
        writeln!(out, "{}", profile.to_json())?;
        return Ok(());
    }
    write!(out, "{}", profile.render(top))?;
    report_halt(out, halt)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::{run_cli, tmp_file, PROGRAM, STREAM_PROGRAM};

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
        // A 0-slot cache stores nothing, but the translator still commits
        // every region it closes: one per config-coverage sample.
        let args = [&args[..4], &["--slots", "0", "--metrics"]].concat();
        let report = run_cli(&args).unwrap();
        let counters: Vec<&str> = report
            .lines()
            .skip_while(|l| *l != "--- metrics ---")
            .skip(1)
            .take(4)
            .collect();
        assert_eq!(
            counters,
            [
                "pipeline: 8502 retired, 9602 base + 0 i-stall + 0 d-stall cycles",
                "translator: 500 regions, 500 commits (0 partial)",
                "rcache: 0 hits / 8502 misses, 0 inserts (0 evictions: 0 live, 0 dead), 0 flushes",
                "array: 0 invocations (0 misspeculated), 0 cycles",
            ],
            "{report}"
        );
        assert!(
            report.contains("config coverage (instructions): n=500 "),
            "{report}"
        );
    }

    #[test]
    fn accel_flight_out_dumps_a_validating_window_with_drop_accounting() {
        let src = tmp_file("t38.s", PROGRAM);
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

    #[test]
    fn accel_rejects_rcache_with_ideal_array() {
        let src = tmp_file("t28.s", PROGRAM);
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
    fn profile_prints_exact_attribution_table() {
        let src = tmp_file("t25.s", PROGRAM);
        let report = run_cli(&["profile", src.to_str().unwrap(), "--caches"]).unwrap();
        assert!(report.contains("block"), "{report}");
        assert!(report.contains("total"), "{report}");

        let json = run_cli(&["profile", src.to_str().unwrap(), "--json"]).unwrap();
        assert!(json.trim_start().starts_with('{'), "{json}");
    }
}
