//! Rendering: human-readable listings and machine-readable JSON for the
//! `dim lint` / `dim verify` / `dim prove` subcommands.

use crate::candidates::CandidateSet;
use crate::prove::{ProveReport, RegionOutcome};
use crate::LintReport;
use dim_obs::ObjectWriter;
use std::fmt::Write as _;

/// Schema version stamped into every `dim lint --json` document.
/// Consumers must reject documents carrying a different version — field
/// meanings may shift between schemas.
pub const LINT_SCHEMA_VERSION: u32 = 1;

/// Validates the `schema` stamp of a machine-readable lint document,
/// rejecting unknown versions (and pre-versioning documents that lack
/// the field entirely).
pub fn check_lint_schema(doc: &str) -> Result<(), String> {
    let value = dim_obs::parse_json(doc).map_err(|e| format!("not valid JSON: {e:?}"))?;
    match value.get("schema").and_then(dim_obs::JsonValue::as_u64) {
        Some(v) if v == LINT_SCHEMA_VERSION as u64 => Ok(()),
        Some(v) => Err(format!(
            "lint schema version {v} (this build understands {LINT_SCHEMA_VERSION})"
        )),
        None => Err("missing `schema` field".to_string()),
    }
}

/// Renders a lint report as plain text, one diagnostic per line.
pub fn render_human(name: &str, report: &LintReport) -> String {
    let mut out = String::new();
    for d in &report.diagnostics {
        let _ = writeln!(out, "{d}");
    }
    let _ = writeln!(
        out,
        "{name}: {} instructions, {} blocks ({} reachable) — {} error{}, {} warning{}, {} note{}{}",
        report.instructions,
        report.blocks,
        report.reachable_blocks,
        report.error_count(),
        plural(report.error_count()),
        report.warning_count(),
        plural(report.warning_count()),
        report.note_count(),
        plural(report.note_count()),
        if report.suppressed > 0 {
            format!(" ({} suppressed)", report.suppressed)
        } else {
            String::new()
        }
    );
    out
}

fn plural(n: usize) -> &'static str {
    if n == 1 {
        ""
    } else {
        "s"
    }
}

/// Renders a lint report as a JSON object.
pub fn render_json(name: &str, report: &LintReport) -> String {
    let diagnostics: Vec<String> = report
        .diagnostics
        .iter()
        .map(|d| {
            let mut o = ObjectWriter::new();
            o.field_str("code", d.code)
                .field_str("severity", &d.severity.to_string())
                .field_opt_u64("pc", d.pc.map(u64::from))
                .field_str("message", &d.message);
            o.finish()
        })
        .collect();
    let mut o = ObjectWriter::new();
    o.field_u64("schema", LINT_SCHEMA_VERSION.into())
        .field_str("workload", name)
        .field_u64("instructions", report.instructions as u64)
        .field_u64("blocks", report.blocks as u64)
        .field_u64("reachable_blocks", report.reachable_blocks as u64)
        .field_u64("errors", report.error_count() as u64)
        .field_u64("warnings", report.warning_count() as u64)
        .field_u64("notes", report.note_count() as u64)
        .field_u64("suppressed", report.suppressed as u64)
        .field_bool("clean", report.is_clean())
        .field_raw("diagnostics", &format!("[{}]", diagnostics.join(",")));
    o.finish()
}

/// Renders the static candidate set as plain text.
pub fn render_candidates_human(set: &CandidateSet) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{} viable region entries:", set.len());
    for (entry, paths) in &set.candidates {
        let longest = paths.iter().map(Vec::len).max().unwrap_or(0);
        let _ = writeln!(
            out,
            "  {entry:#010x}: {} path{}, longest merges {} instruction{}",
            paths.len(),
            plural(paths.len()),
            longest,
            plural(longest)
        );
    }
    out
}

/// Renders a prove report as plain text: one line per region with the
/// verdict, plus the stride table of every certified region.
pub fn render_prove_human(report: &ProveReport) -> String {
    let mut out = String::new();
    if report.regions.is_empty() {
        let _ = writeln!(out, "{}: no self-loop regions", report.workload);
        return out;
    }
    for region in &report.regions {
        match &region.outcome {
            RegionOutcome::Certified(cert) => {
                let _ = writeln!(
                    out,
                    "{}: {:#010x} len {:>3}  CERTIFIED  burst {} {}",
                    report.workload,
                    region.entry_pc,
                    region.len,
                    cert.burst,
                    match cert.trip_bound {
                        Some(t) => format!("(trip bound {t})"),
                        None => "(trip unbounded)".to_string(),
                    }
                );
                for a in &cert.accesses {
                    let _ = writeln!(
                        out,
                        "    {:#010x} {:>5} w{} {}",
                        a.pc,
                        a.kind.name(),
                        a.width,
                        match a.class {
                            dim_cgra::StreamClass::Affine { stride } =>
                                format!("affine stride {stride:+}"),
                            dim_cgra::StreamClass::Invariant => "invariant".to_string(),
                            dim_cgra::StreamClass::Unknown => "unknown".to_string(),
                        }
                    );
                }
            }
            RegionOutcome::Rejected { reason } => {
                let _ = writeln!(
                    out,
                    "{}: {:#010x} len {:>3}  rejected   {}",
                    report.workload, region.entry_pc, region.len, reason
                );
            }
        }
    }
    let _ = writeln!(
        out,
        "{}: {} region{}, {} certificate{}",
        report.workload,
        report.regions.len(),
        plural(report.regions.len()),
        report.cert_count(),
        plural(report.cert_count())
    );
    out
}

/// Renders the static candidate set as a JSON object.
pub fn render_candidates_json(set: &CandidateSet) -> String {
    let entries: Vec<String> = set
        .candidates
        .iter()
        .map(|(entry, paths)| {
            let paths: Vec<String> = paths
                .iter()
                .map(|path| {
                    let pcs: Vec<String> = path.iter().map(u32::to_string).collect();
                    format!("[{}]", pcs.join(","))
                })
                .collect();
            let mut o = ObjectWriter::new();
            o.field_u64("entry", (*entry).into())
                .field_raw("paths", &format!("[{}]", paths.join(",")));
            o.finish()
        })
        .collect();
    let mut o = ObjectWriter::new();
    o.field_raw("entries", &format!("[{}]", entries.join(",")));
    o.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{lint_program, LintOptions};
    use dim_mips::asm::assemble;

    fn sample_json() -> String {
        let program = assemble(
            "main: addu $v0, $a0, $a1
                   break 0",
        )
        .expect("assembles");
        let report = lint_program(&program, &LintOptions::default());
        render_json("sample", &report)
    }

    #[test]
    fn lint_json_is_schema_stamped() {
        let doc = sample_json();
        assert!(doc.starts_with("{\"schema\":1,"), "{doc}");
        check_lint_schema(&doc).expect("current schema accepted");
    }

    #[test]
    fn unknown_schema_version_is_rejected() {
        let doc = sample_json();
        let skewed = doc.replacen("\"schema\":1", "\"schema\":2", 1);
        let err = check_lint_schema(&skewed).expect_err("future schema rejected");
        assert!(err.contains("schema version 2"), "{err}");
        let missing = doc.replacen("\"schema\":1,", "", 1);
        check_lint_schema(&missing).expect_err("pre-versioning document rejected");
    }

    #[test]
    fn prove_human_render_names_verdicts() {
        let program = assemble(
            "main: li $s0, 8
                   li $s1, 0x2000
             loop: lbu $t0, 0($s1)
                   addiu $s1, $s1, 1
                   addiu $s0, $s0, -1
                   bnez $s0, loop
                   break 0",
        )
        .expect("assembles");
        let report = crate::prove::prove_program(&program, "unit");
        let text = render_prove_human(&report);
        assert!(text.contains("CERTIFIED"), "{text}");
        assert!(text.contains("affine stride +1"), "{text}");
        assert!(text.contains("1 certificate"), "{text}");
    }
}
