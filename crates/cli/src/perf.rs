//! `perf`: record a performance baseline, compare two, and gate a
//! fresh recording against one.

use crate::flags::Flags;
use crate::CliError;
use dim_cgra::ShapeChoice;
use std::io::Write;
use std::path::Path;

pub(crate) fn cmd_perf(args: &[String], out: &mut impl Write) -> Result<(), CliError> {
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

fn read_baseline(path: &str) -> Result<dim_perf::Baseline, CliError> {
    let text = std::fs::read_to_string(path).map_err(CliError::at(path))?;
    dim_perf::Baseline::parse(&text).map_err(CliError::at(path))
}

fn cmd_perf_record(args: &[String], out: &mut impl Write) -> Result<(), CliError> {
    use dim_perf::{record, RecordOptions};
    let flags = Flags::parse(
        "perf record",
        args,
        "--out= --name= --workloads= --scale= --shape= --slots= --reps= --no-spec",
        0,
    )?;
    let out_path = flags
        .value("--out")
        .ok_or_else(|| CliError::new("perf record: --out <file> is required"))?;
    let workloads: Vec<String> = match flags.value("--workloads") {
        Some(list) => list.split(',').map(|s| s.trim().to_string()).collect(),
        None => dim_workloads::suite()
            .iter()
            .map(|s| s.name.to_string())
            .collect(),
    };
    let opts = RecordOptions {
        name: flags.value("--name").unwrap_or("local").into(),
        workloads,
        scale: flags.value("--scale").unwrap_or("tiny").into(),
        shape: match flags.name("--shape")?.map(ShapeChoice::number) {
            None => 2,
            Some(Some(number)) => number.into(),
            Some(None) => return Err(CliError::new("--shape: unknown `ideal`")),
        },
        cache_slots: flags.num("--slots")?.unwrap_or(64),
        speculation: !flags.has("--no-spec"),
        host_reps: flags.num("--reps")?.unwrap_or(3),
    };
    let baseline = record(&opts)?;
    if let Some(parent) = Path::new(out_path).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent).map_err(CliError::at(format!("--out {out_path}")))?;
        }
    }
    std::fs::write(out_path, baseline.to_json())
        .map_err(CliError::at(format!("--out {out_path}")))?;
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
    Ok(())
}

fn cmd_perf_compare(args: &[String], out: &mut impl Write) -> Result<(), CliError> {
    let flags = Flags::parse("perf compare", args, "--json", 2)?;
    let [base_path, cur_path] = flags.positionals()[..] else {
        return Err(CliError::new(
            "perf compare: expected two baseline files (base, current)",
        ));
    };
    let cmp = dim_perf::compare(&read_baseline(base_path)?, &read_baseline(cur_path)?);
    if flags.has("--json") {
        writeln!(out, "{}", cmp.to_json())?;
    } else {
        write!(out, "{}", cmp.render())?;
    }
    Ok(())
}

fn cmd_perf_gate(args: &[String], out: &mut impl Write) -> Result<(), CliError> {
    use dim_perf::{gate, record, RecordOptions, ToleranceSpec};
    let flags = Flags::parse(
        "perf gate",
        args,
        "--baseline= --current= --tolerance-spec= --json",
        0,
    )?;
    let base_path = flags
        .value("--baseline")
        .ok_or_else(|| CliError::new("perf gate: --baseline <file> is required"))?;
    let base = read_baseline(base_path)?;
    let spec = match flags.value("--tolerance-spec") {
        Some(path) => {
            let text = std::fs::read_to_string(path).map_err(CliError::at(path))?;
            ToleranceSpec::parse(&text).map_err(CliError::at(path))?
        }
        None => ToleranceSpec::strict(),
    };
    let cur = match flags.value("--current") {
        Some(path) => read_baseline(path)?,
        // Re-record under exactly the parameters the reference was
        // captured with, so the matrices are guaranteed to match.
        None => record(&RecordOptions::from_matrix("current", &base.matrix))?,
    };
    let outcome = gate(&base, &cur, &spec);
    if flags.has("--json") {
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

#[cfg(test)]
mod tests {
    use crate::tests::run_cli;

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
        ])
        .unwrap();
        assert!(
            report.contains("baseline `local`: 2 workload(s)"),
            "{report}"
        );

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

    /// An unknown workload is answered with the suite's workload names.
    #[test]
    fn perf_record_names_the_suite_on_an_unknown_workload() {
        let out = std::env::temp_dir().join("dim-cli-tests/t27-perf.json");
        let out = out.to_str().unwrap();
        let err = run_cli(&[
            "perf",
            "record",
            "--out",
            out,
            "--workloads",
            "crc32,nosuch",
        ])
        .unwrap_err()
        .to_string();
        let names: Vec<&str> = dim_workloads::suite().iter().map(|s| s.name).collect();
        assert_eq!(
            err,
            format!(
                "unknown workload `nosuch` (the suite's workloads: {})",
                names.join(", ")
            )
        );
        assert!(!std::path::Path::new(out).exists());
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
}
