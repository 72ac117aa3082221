//! `heat`: per-unit fabric utilization, from a trace or from a fresh
//! run.

use crate::flags::Flags;
use crate::program::{load_program, report_halt};
use crate::CliError;
use dim_core::System;
use dim_mips_sim::Machine;
use std::io::Write;

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

pub(crate) fn cmd_heat(args: &[String], out: &mut impl Write) -> Result<(), CliError> {
    let flags = Flags::parse(
        "heat",
        args,
        "--config= --slots= --max-steps= --chrome-out= --rows= --json --no-spec",
        1,
    )?;
    let input = flags.input("trace or workload file")?;
    let bytes = std::fs::read(input).map_err(CliError::at(input))?;
    let want_json = flags.has("--json");
    let row_limit: usize = flags.num("--rows")?.unwrap_or(32);
    let chrome_out = flags.value("--chrome-out");
    // A JSONL trace opens with its `{"type":"header",...}` line; anything
    // else (assembly source, image magic) is a workload to run.
    if bytes.starts_with(b"{") {
        for flag in ["--config", "--slots", "--max-steps", "--no-spec"] {
            if flags.has(flag) {
                return Err(CliError::new(format!(
                    "heat: `{flag}` only applies when running a workload; `{input}` is a trace"
                )));
            }
        }
        let text = String::from_utf8(bytes)
            .map_err(|_| CliError::new(format!("{input}: not UTF-8 JSONL")))?;
        heat_from_trace(input, &text, want_json, chrome_out, row_limit, out)
    } else {
        if chrome_out.is_some() {
            return Err(CliError::new(
                "heat: --chrome-out needs per-invocation samples, which only a trace \
                 carries — record one with `dim accel <file> --trace-out <t.jsonl>` \
                 and point `dim heat` at it",
            ));
        }
        heat_from_run(input, &flags, want_json, row_limit, out)
    }
}

/// Runs `input` accelerated and renders the per-row fabric heat the
/// system accumulated, after checking the accounting reconciles exactly
/// with the cycle breakdown.
fn heat_from_run(
    input: &str,
    flags: &Flags,
    want_json: bool,
    row_limit: usize,
    out: &mut impl Write,
) -> Result<(), CliError> {
    use dim_cgra::{UNIT_CLASSES, UNIT_CLASS_NAMES};
    use dim_mips::FuClass;

    let program = load_program(input)?;
    let (choice, config, max_steps) = flags.system()?;
    let shape = choice.shape();
    let mut system = System::new(Machine::load(&program), config);
    let halt = system.run(max_steps)?;
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

    let trace = read_trace(text).map_err(CliError::at(input))?;
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
        std::fs::write(path, export).map_err(CliError::at(format!("--chrome-out {path}")))?;
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::{run_cli, tmp_file, PROGRAM};
    use dim_cgra::ArrayShape;
    use dim_core::SystemConfig;

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
}
