//! Reading recorded traces: `trace` validates one and prints its
//! summary, `explain` ranks its regions and exports timelines.

use crate::flags::Flags;
use crate::CliError;
use std::io::Write;

pub(crate) fn cmd_trace(args: &[String], out: &mut impl Write) -> Result<(), CliError> {
    let flags = Flags::parse("trace", args, "--stats", 1)?;
    let input = flags.input("trace file")?;
    let text = std::fs::read_to_string(input).map_err(CliError::at(input))?;
    let trace = dim_obs::replay::read_trace(&text).map_err(CliError::at(input))?;
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
    if flags.has("--stats") {
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

pub(crate) fn cmd_explain(args: &[String], out: &mut impl Write) -> Result<(), CliError> {
    let flags = Flags::parse(
        "explain",
        args,
        "--chrome-out= --folded-out= --top= --json",
        1,
    )?;
    let input = flags.input("trace file")?;
    let text = std::fs::read_to_string(input).map_err(CliError::at(input))?;
    let ex = dim_explain::explain_text(&text).map_err(CliError::at(input))?;
    let top: usize = flags.num("--top")?.unwrap_or(10);
    if let Some(path) = flags.value("--chrome-out") {
        std::fs::write(path, ex.chrome_trace())
            .map_err(CliError::at(format!("--chrome-out {path}")))?;
        writeln!(
            out,
            "chrome trace -> {path} (load in ui.perfetto.dev or chrome://tracing)"
        )?;
    }
    if let Some(path) = flags.value("--folded-out") {
        std::fs::write(path, ex.folded()).map_err(CliError::at(format!("--folded-out {path}")))?;
        writeln!(
            out,
            "folded stacks -> {path} (feed to flamegraph.pl or speedscope)"
        )?;
    }
    if flags.has("--json") {
        writeln!(out, "{}", ex.to_json())?;
        return Ok(());
    }
    write!(out, "{}", ex.render(top))?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use crate::tests::{run_cli, tmp_file, PROGRAM};

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
    fn trace_rejects_garbage() {
        let bad = tmp_file("t12.jsonl", "not json\n");
        assert!(run_cli(&["trace", bad.to_str().unwrap()]).is_err());
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
}
