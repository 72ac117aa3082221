//! Programs on the plain pipeline and side by side: `asm`, `disasm`,
//! `run`, `compare`, `suite` and `debug`, and the loading and reporting
//! helpers the other commands share.

use crate::flags::Flags;
use crate::CliError;
use dim_cgra::ArrayShape;
use dim_core::{System, SystemConfig};
use dim_mips::asm::{assemble, Program};
use dim_mips::{disassemble_labeled, image};
use dim_mips_sim::{HaltReason, Machine, Profiler};
use dim_obs::{JsonlSink, Probe};
use dim_workloads::Scale;
use std::io::{BufWriter, Write};

/// Loads a program from either assembly source or an image file,
/// deciding by content (image magic) rather than extension.
pub(crate) fn load_program(path: &str) -> Result<Program, CliError> {
    let bytes = std::fs::read(path).map_err(CliError::at(path))?;
    if bytes.starts_with(b"DIM1") {
        return image::load(&bytes).map_err(CliError::at(path));
    }
    let src = String::from_utf8(bytes)
        .map_err(|_| CliError::new(format!("{path}: not UTF-8 assembly source")))?;
    assemble(&src).map_err(|e| CliError::new(format!("{path}:{e}")))
}

type FileSink = JsonlSink<BufWriter<std::fs::File>>;

pub(crate) fn open_trace_sink(
    path: &str,
    workload: &str,
    bits_per_config: u64,
) -> Result<FileSink, CliError> {
    let file = std::fs::File::create(path).map_err(CliError::at(format!("--trace-out {path}")))?;
    Ok(JsonlSink::new(
        BufWriter::new(file),
        workload,
        bits_per_config,
    ))
}

pub(crate) fn close_trace_sink(
    mut sink: FileSink,
    path: &str,
    out: &mut impl Write,
) -> Result<(), CliError> {
    sink.finish();
    let events = sink.events();
    if let (_, Some(e)) = sink.into_inner() {
        return Err(CliError::new(format!("--trace-out {path}: {e}")));
    }
    writeln!(out, "trace: {events} events -> {path}")?;
    Ok(())
}

pub(crate) fn attach_caches(machine: &mut Machine) {
    use dim_mips_sim::{CacheConfig, CacheSim};
    machine.icache = Some(CacheSim::new(CacheConfig::icache_4k()));
    machine.dcache = Some(CacheSim::new(CacheConfig::dcache_4k()));
}

/// The program's own output, when it printed any.
pub(crate) fn report_output(out: &mut impl Write, machine: &Machine) -> Result<(), CliError> {
    if !machine.output.is_empty() {
        writeln!(out, "--- program output ---")?;
        out.write_all(&machine.output)?;
        writeln!(out, "\n----------------------")?;
    }
    Ok(())
}

pub(crate) fn report_halt(out: &mut impl Write, halt: HaltReason) -> Result<(), CliError> {
    match halt {
        HaltReason::Exit(code) => writeln!(out, "program exited (code {code})")?,
        HaltReason::StepLimit => writeln!(out, "step limit reached before the program halted")?,
    }
    Ok(())
}

pub(crate) fn cmd_asm(args: &[String], out: &mut impl Write) -> Result<(), CliError> {
    let flags = Flags::parse("asm", args, "-o=", 1)?;
    let input = flags.input("input file")?;
    let program = load_program(input)?;
    let default_out = format!("{}.dimg", input.strip_suffix(".s").unwrap_or(input));
    let output = flags.value("-o").unwrap_or(&default_out);
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

pub(crate) fn cmd_disasm(args: &[String], out: &mut impl Write) -> Result<(), CliError> {
    let flags = Flags::parse("disasm", args, "", 1)?;
    let program = load_program(flags.input("input file")?)?;
    write!(
        out,
        "{}",
        disassemble_labeled(program.text_base, &program.text)
    )?;
    Ok(())
}

pub(crate) fn cmd_run(args: &[String], out: &mut impl Write) -> Result<(), CliError> {
    let flags = Flags::parse(
        "run",
        args,
        "--max-steps= --trace-out= --profile --caches",
        1,
    )?;
    let input = flags.input("input file")?;
    let program = load_program(input)?;
    let max_steps = flags.max_steps()?;
    let mut machine = Machine::load(&program);
    if flags.has("--caches") {
        attach_caches(&mut machine);
    }
    let halt = if let Some(path) = flags.value("--trace-out") {
        if flags.has("--profile") {
            return Err(CliError::new(
                "run: --profile and --trace-out are mutually exclusive",
            ));
        }
        // A plain pipeline run has no reconfiguration cache, so the
        // header records 0 bits per configuration.
        let mut sink = open_trace_sink(path, input, 0)?;
        let halt = machine.run_probed(max_steps, &mut sink)?;
        close_trace_sink(sink, path, out)?;
        halt
    } else if flags.has("--profile") {
        let mut profiler = Profiler::new();
        let halt = machine.run_with(max_steps, |i| profiler.observe(i))?;
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
        machine.run(max_steps)?
    };
    report_output(out, &machine)?;
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

pub(crate) fn cmd_suite(args: &[String], out: &mut impl Write) -> Result<(), CliError> {
    use dim_workloads::{run_baseline, suite};
    let flags = Flags::parse("suite", args, "--scale=", 0)?;
    let scale = flags.name("--scale")?.unwrap_or(Scale::Small);
    for spec in suite() {
        let built = (spec.build)(scale);
        let machine = run_baseline(&built).map_err(CliError::at(spec.name))?;
        let mut sys = System::new(
            Machine::load(&built.program),
            SystemConfig::new(ArrayShape::config2(), 64, true),
        );
        sys.run(built.max_steps)?;
        dim_workloads::validate(sys.machine(), &built)
            .map_err(CliError::at(format!("{} (accelerated)", spec.name)))?;
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

pub(crate) fn cmd_compare(args: &[String], out: &mut impl Write) -> Result<(), CliError> {
    use dim_mips_sim::{SuperscalarConfig, SuperscalarModel};
    let flags = Flags::parse("compare", args, "--max-steps=", 1)?;
    let program = load_program(flags.input("input file")?)?;
    let max_steps = flags.max_steps()?;

    let mut machine = Machine::load(&program);
    let mut ss = SuperscalarModel::new(SuperscalarConfig::default());
    machine.run_with(max_steps, |i| ss.observe(i))?;
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
        sys.run(max_steps)?;
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

/// `dim debug <file> [--script <cmds>]`: a session over the script's
/// commands, or over stdin's.
pub(crate) fn cmd_debug(args: &[String], out: &mut impl Write) -> Result<(), CliError> {
    let flags = Flags::parse("debug", args, "--script=", 1)?;
    let program = load_program(flags.input("input file")?)?;
    match flags.value("--script") {
        Some(path) => {
            let file = std::fs::File::open(path).map_err(CliError::at(path))?;
            crate::debug_session(&program, std::io::BufReader::new(file), out)
        }
        None => crate::debug_session(&program, std::io::stdin().lock(), out),
    }
}

#[cfg(test)]
mod tests {
    use crate::tests::{run_cli, tmp_file, PROGRAM};

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
}
