//! Static checks: `lint` analyzes a workload binary, `verify` checks
//! every configuration of an rcache snapshot, and `prove` certifies
//! self-loops for streaming.

use crate::flags::Flags;
use crate::program::load_program;
use crate::CliError;
use dim_cgra::{ShapeChoice, StreamingCert};
use dim_mips::asm::Program;
use dim_obs::ObjectWriter;
use dim_workloads::Scale;
use std::io::Write;

/// The streaming certificates in the JSONL file at `path`, one per
/// non-blank line; an error names `what` (and the line).
pub(crate) fn read_certs(path: &str, what: &str) -> Result<Vec<StreamingCert>, CliError> {
    let text = std::fs::read_to_string(path).map_err(CliError::at(what))?;
    text.lines()
        .enumerate()
        .filter(|(_, line)| !line.trim().is_empty())
        .map(|(i, line)| {
            StreamingCert::parse_json(line).map_err(CliError::at(format!("{what}:{}", i + 1)))
        })
        .collect()
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

pub(crate) fn cmd_lint(args: &[String], out: &mut impl Write) -> Result<(), CliError> {
    let flags = Flags::parse(
        "lint",
        args,
        "--allow= --scale= --config= --suite --json --candidates",
        1,
    )?;
    let json = flags.has("--json");

    if flags.has("--suite") {
        for flag in ["--allow", "--candidates", "--config"] {
            if flags.has(flag) {
                return Err(CliError::new(format!(
                    "lint: `{flag}` does not apply to --suite \
                     (suite allowlists live in dim-workloads)"
                )));
            }
        }
        if !flags.positionals().is_empty() {
            return Err(CliError::new("lint: --suite takes no input file"));
        }
        let scale = flags.name("--scale")?.unwrap_or(Scale::Tiny);
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

    let input = flags.input("input file")?;
    let program = load_program(input)?;
    let allow: Vec<String> = flags
        .value("--allow")
        .map(|v| v.split(',').map(str::to_string).collect())
        .unwrap_or_default();
    let clean = lint_one(input, &program, allow, json, out)?;
    if flags.has("--candidates") {
        use dim_lint::report::{render_candidates_human, render_candidates_json};
        let shape = match flags.name("--config")?.unwrap_or(ShapeChoice::Config2) {
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

pub(crate) fn cmd_verify(args: &[String], out: &mut impl Write) -> Result<(), CliError> {
    use dim_core::SnapshotContents;
    let flags = Flags::parse("verify", args, "--json", 1)?;
    let input = flags.input("snapshot file")?;
    let json = flags.has("--json");
    let bytes = std::fs::read(input).map_err(CliError::at(input))?;
    let contents = SnapshotContents::parse(&bytes).map_err(CliError::at(input))?;

    let mut total_violations = 0usize;
    let mut findings = Vec::new();
    for config in &contents.configs {
        let violations = dim_cgra::verify::verify_config(config);
        total_violations += violations.len();
        findings.push((config, violations));
    }

    if json {
        let mut shape = ObjectWriter::new();
        shape
            .field_u64("rows", contents.shape.rows as u64)
            .field_u64("alus", contents.shape.alus_per_row as u64)
            .field_u64("mults", contents.shape.mults_per_row as u64)
            .field_u64("ldsts", contents.shape.ldsts_per_row as u64);
        let configs: Vec<String> = findings
            .iter()
            .map(|(config, violations)| {
                let violations: Vec<String> = violations
                    .iter()
                    .map(|v| {
                        let mut o = ObjectWriter::new();
                        o.field_str("kind", &v.kind.to_string())
                            .field_str("detail", &v.to_string());
                        o.finish()
                    })
                    .collect();
                let mut o = ObjectWriter::new();
                o.field_u64("entry", config.entry_pc.into())
                    .field_u64("ops", config.instruction_count() as u64)
                    .field_u64("rows", config.rows_used() as u64)
                    .field_u64("segments", config.segments().len() as u64)
                    .field_raw("violations", &format!("[{}]", violations.join(",")));
                o.finish()
            })
            .collect();
        let mut doc = ObjectWriter::new();
        doc.field_str("snapshot", input)
            .field_raw("shape", &shape.finish())
            .field_u64("slots", contents.cache_slots as u64)
            .field_bool("speculation", contents.speculation)
            .field_u64("max_spec_blocks", contents.max_spec_blocks as u64)
            .field_u64("predictor_entries", contents.predictor.len() as u64)
            .field_u64("strikes", contents.strikes.len() as u64)
            .field_raw("configs", &format!("[{}]", configs.join(",")))
            .field_bool("ok", total_violations == 0);
        writeln!(out, "{}", doc.finish())?;
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

pub(crate) fn cmd_prove(args: &[String], out: &mut impl Write) -> Result<(), CliError> {
    use dim_lint::prove::prove_program;
    use dim_lint::report::render_prove_human;
    let flags = Flags::parse(
        "prove",
        args,
        "--scale= --cert-out= --check= --suite --json",
        1,
    )?;
    let json = flags.has("--json");

    if let Some(path) = flags.value("--check") {
        for flag in ["--suite", "--json", "--scale", "--cert-out"] {
            if flags.has(flag) {
                return Err(CliError::new(format!(
                    "prove: `{flag}` does not combine with --check"
                )));
            }
        }
        if !flags.positionals().is_empty() {
            return Err(CliError::new("prove: --check takes no input file"));
        }
        let count = read_certs(path, path)?.len();
        writeln!(out, "prove: {count} certificate(s) valid in {path}")?;
        return Ok(());
    }

    let mut reports = Vec::new();
    if flags.has("--suite") {
        if !flags.positionals().is_empty() {
            return Err(CliError::new("prove: --suite takes no input file"));
        }
        let scale = flags.name("--scale")?.unwrap_or(Scale::Tiny);
        for spec in dim_workloads::suite() {
            let built = (spec.build)(scale);
            reports.push(prove_program(&built.program, spec.name));
        }
    } else {
        if flags.has("--scale") {
            return Err(CliError::new("prove: --scale applies to --suite only"));
        }
        let input = flags.input("input file")?;
        reports.push(prove_program(&load_program(input)?, input));
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
    if let Some(path) = flags.value("--cert-out") {
        let mut doc = String::new();
        for report in &reports {
            for cert in report.certs() {
                doc.push_str(&cert.to_json());
                doc.push('\n');
            }
        }
        std::fs::write(path, doc).map_err(CliError::at(format!("--cert-out {path}")))?;
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

#[cfg(test)]
mod tests {
    use crate::tests::{run_cli, tmp_file, PROGRAM, STREAM_PROGRAM};

    #[test]
    fn lint_clean_file_reports_and_passes() {
        let src = tmp_file("t29.s", PROGRAM);
        let out = run_cli(&["lint", src.to_str().unwrap()]).unwrap();
        assert!(out.contains("0 errors"), "{out}");
        assert!(out.contains("blocks"), "{out}");
    }

    #[test]
    fn lint_dirty_file_fails_and_allow_suppresses() {
        let src = tmp_file(
            "t26.s",
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

        let bytes = std::fs::read(snap).unwrap();
        let doctored = std::env::temp_dir().join("dim-cli-tests/t23-doctored.dimrc");
        let doctored = doctored.to_str().unwrap();
        let load = || run_cli(&["accel", path, "--config", "2", "--rcache-load", doctored]);

        // Drop a write-back from the first configuration and re-encode
        // (valid checksum): decoding derives the write-backs from its
        // ops, so neither command gets past parsing the snapshot.
        let mut contents = dim_core::SnapshotContents::parse(&bytes).unwrap();
        let named = format!("configuration at {:#x}", contents.configs[0].entry_pc);
        let loc = contents.configs[0].writebacks().next().unwrap().0;
        contents.configs[0].remove_writeback(loc);
        std::fs::write(doctored, contents.encode()).unwrap();
        for err in [run_cli(&["verify", doctored]), load()] {
            let err = err.unwrap_err().to_string();
            assert!(err.contains(&named), "{err}");
        }

        // Retarget the exit of a configuration's last, branchless
        // segment: it parses, `dim verify` reports the violation, and
        // the accelerator refuses to warm-start, naming the region.
        let mut contents = dim_core::SnapshotContents::parse(&bytes).unwrap();
        let index = contents
            .configs
            .iter()
            .position(|c| c.segments().last().is_some_and(|s| s.branch.is_none()))
            .expect("a region that ends without a branch");
        let victim = &contents.configs[index];
        let mut retargeted = dim_cgra::Configuration::new(victim.entry_pc, *victim.shape());
        let last = victim.segments().len() - 1;
        for (k, segment) in victim.segments().iter().enumerate() {
            for op in victim.segment_ops(segment) {
                retargeted
                    .place(op.pc, op.inst, op.depth, op.row as usize)
                    .unwrap();
            }
            let moved = if k == last { 8 } else { 0 };
            retargeted.finish_segment(segment.depth, segment.branch, segment.exit_pc + moved);
        }
        let region = format!(
            "region at {:#x} ({} instructions) failed verification",
            victim.entry_pc,
            victim.instruction_count()
        );
        contents.configs[index] = retargeted;
        std::fs::write(doctored, contents.encode()).unwrap();
        let err = run_cli(&["verify", doctored]).unwrap_err();
        assert!(err.to_string().contains("violation"), "{err}");
        let err = load().unwrap_err().to_string();
        assert!(err.contains(&region), "{err}");
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
}
