//! `dim spans`: offline analyzer for wall-clock span dumps
//! (`spans.dimspan`) written by `dim serve` and `dim sweep`.
//!
//! The analyzer never re-times anything — it works purely from the
//! recorded monotonic-clock intervals: per-stage latency percentiles,
//! per-tenant aggregation, and the slowest request's waterfall with its
//! critical path.
//! `--json` emits the same aggregates machine-readably; `--chrome-out`
//! exports every tree as Chrome trace events (one track per request).

use crate::flags::Flags;
use crate::CliError;
use dim_obs::span::{percentile_nanos, read_span_file, ParsedSpan, SpanFile, SpanForest};
use dim_obs::{write_escaped, ObjectWriter};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;

/// Entry point for `dim spans <file> [--json] [--chrome-out <f.json>]`.
pub(crate) fn cmd_spans(args: &[String], out: &mut impl Write) -> Result<(), CliError> {
    let flags = Flags::parse("spans", args, "--chrome-out= --json", 1)?;
    let path = flags.input("<spans.dimspan> file")?;
    let file = read_span_file(Path::new(path)).map_err(CliError::at(format!("spans: {path}")))?;
    let forest = SpanForest::build(&file);
    let laws = forest.check_laws();

    if let Some(chrome_path) = flags.value("--chrome-out") {
        std::fs::write(chrome_path, chrome_trace(&forest))
            .map_err(CliError::at(format!("--chrome-out {chrome_path}")))?;
        writeln!(out, "chrome trace -> {chrome_path}")?;
    }

    if flags.has("--json") {
        writeln!(out, "{}", render_json(path, &file, &forest, &laws))?;
        return Ok(());
    }
    render_text(path, &file, &forest, &laws, out)?;
    if laws.is_empty() {
        Ok(())
    } else {
        Err(CliError::new(format!(
            "spans: {} law violation(s) (see above)",
            laws.len()
        )))
    }
}

/// Micros with millisecond-style precision for human output.
fn fmt_micros(nanos: u64) -> String {
    format!("{:.1}", nanos as f64 / 1_000.0)
}

/// Roots grouped by tenant, each with its sorted wall durations.
fn tenant_walls(forest: &SpanForest) -> BTreeMap<&str, Vec<u64>> {
    let mut map: BTreeMap<&str, Vec<u64>> = BTreeMap::new();
    for &root in &forest.roots {
        let span = &forest.spans[root];
        map.entry(span.tenant.as_str())
            .or_default()
            .push(span.duration_nanos());
    }
    for walls in map.values_mut() {
        walls.sort_unstable();
    }
    map
}

fn slowest_root(forest: &SpanForest) -> Option<usize> {
    forest
        .roots
        .iter()
        .copied()
        .max_by_key(|&r| forest.spans[r].duration_nanos())
}

fn render_text(
    path: &str,
    file: &SpanFile,
    forest: &SpanForest,
    laws: &[String],
    out: &mut impl Write,
) -> Result<(), CliError> {
    writeln!(
        out,
        "{path}: {} span(s), {} request tree(s), {} orphan(s) trimmed, {} dropped",
        file.spans.len(),
        forest.roots.len(),
        forest.orphans_trimmed,
        file.dropped
    )?;
    if laws.is_empty() {
        writeln!(out, "laws: ok")?;
    } else {
        for v in laws {
            writeln!(out, "law violation: {v}")?;
        }
    }

    writeln!(out, "\nper-stage latency (us):")?;
    writeln!(
        out,
        "  {:<12} {:>8} {:>10} {:>10} {:>10} {:>10}",
        "stage", "count", "p50", "p90", "p99", "max"
    )?;
    for (stage, mut nanos) in forest.stage_durations() {
        nanos.sort_unstable();
        writeln!(
            out,
            "  {:<12} {:>8} {:>10} {:>10} {:>10} {:>10}",
            stage,
            nanos.len(),
            fmt_micros(percentile_nanos(&nanos, 50)),
            fmt_micros(percentile_nanos(&nanos, 90)),
            fmt_micros(percentile_nanos(&nanos, 99)),
            fmt_micros(nanos.last().copied().unwrap_or(0)),
        )?;
    }

    writeln!(out, "\nper-tenant requests (us):")?;
    writeln!(
        out,
        "  {:<16} {:>8} {:>10} {:>10} {:>12}",
        "tenant", "count", "p50", "p99", "total"
    )?;
    for (tenant, walls) in tenant_walls(forest) {
        let label = if tenant.is_empty() { "(none)" } else { tenant };
        writeln!(
            out,
            "  {:<16} {:>8} {:>10} {:>10} {:>12}",
            label,
            walls.len(),
            fmt_micros(percentile_nanos(&walls, 50)),
            fmt_micros(percentile_nanos(&walls, 99)),
            fmt_micros(walls.iter().sum()),
        )?;
    }

    if let Some(root) = slowest_root(forest) {
        let span = &forest.spans[root];
        writeln!(
            out,
            "\nslowest request: tenant `{}` seq {} — {} us wall",
            span.tenant,
            span.seq,
            fmt_micros(span.duration_nanos())
        )?;
        render_waterfall(forest, root, root, 0, out)?;
        let (cp, cp_nanos) = forest.critical_path(root);
        let stages: Vec<&str> = cp.iter().map(|&i| forest.spans[i].stage.as_str()).collect();
        writeln!(
            out,
            "critical path: {} ({} us of {} us wall)",
            stages.join(" -> "),
            fmt_micros(cp_nanos),
            fmt_micros(span.duration_nanos()),
        )?;
    }
    Ok(())
}

/// One indented line per span in the slowest tree, with a 32-column
/// bar placing the span inside the root's wall interval.
fn render_waterfall(
    forest: &SpanForest,
    root: usize,
    index: usize,
    depth: usize,
    out: &mut impl Write,
) -> Result<(), CliError> {
    const BAR: usize = 32;
    let root_span = &forest.spans[root];
    let span = &forest.spans[index];
    let wall = root_span.duration_nanos().max(1);
    let offset = span.start_nanos.saturating_sub(root_span.start_nanos);
    let lead = (offset as usize).saturating_mul(BAR) / (wall as usize).max(1);
    let len = ((span.duration_nanos() as usize).saturating_mul(BAR) / (wall as usize).max(1))
        .clamp(1, BAR.saturating_sub(lead).max(1));
    let mut bar = " ".repeat(lead.min(BAR.saturating_sub(1)));
    bar.push_str(&"#".repeat(len));
    writeln!(
        out,
        "  {:<24} [{bar:<BAR$}] +{:>9} us, {:>9} us",
        format!("{}{}", "  ".repeat(depth), span.stage),
        fmt_micros(offset),
        fmt_micros(span.duration_nanos()),
    )?;
    for &child in &forest.children[index] {
        render_waterfall(forest, root, child, depth + 1, out)?;
    }
    Ok(())
}

/// `{"key":value,...}` from already serialized values.
fn json_map<K: AsRef<str>>(entries: impl IntoIterator<Item = (K, String)>) -> String {
    let mut out = String::from("{");
    for (i, (key, value)) in entries.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_escaped(&mut out, key.as_ref());
        out.push(':');
        out.push_str(&value);
    }
    out.push('}');
    out
}

/// `["a","b",...]`.
fn json_strings<S: AsRef<str>>(items: impl IntoIterator<Item = S>) -> String {
    let mut out = String::from("[");
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_escaped(&mut out, item.as_ref());
    }
    out.push(']');
    out
}

fn render_json(path: &str, file: &SpanFile, forest: &SpanForest, laws: &[String]) -> String {
    let stages = json_map(
        forest
            .stage_durations()
            .into_iter()
            .map(|(stage, mut nanos)| {
                nanos.sort_unstable();
                let mut o = ObjectWriter::new();
                o.field_u64("count", nanos.len() as u64)
                    .field_u64("p50_nanos", percentile_nanos(&nanos, 50))
                    .field_u64("p90_nanos", percentile_nanos(&nanos, 90))
                    .field_u64("p99_nanos", percentile_nanos(&nanos, 99))
                    .field_u64("max_nanos", nanos.last().copied().unwrap_or(0))
                    .field_u64("total_nanos", nanos.iter().sum());
                (stage, o.finish())
            }),
    );
    let tenants = json_map(tenant_walls(forest).into_iter().map(|(tenant, walls)| {
        let mut o = ObjectWriter::new();
        o.field_u64("requests", walls.len() as u64)
            .field_u64("p50_nanos", percentile_nanos(&walls, 50))
            .field_u64("p99_nanos", percentile_nanos(&walls, 99))
            .field_u64("total_nanos", walls.iter().sum());
        (tenant, o.finish())
    }));
    let mut w = ObjectWriter::new();
    w.field_str("file", path)
        .field_u64("spans", file.spans.len() as u64)
        .field_u64("roots", forest.roots.len() as u64)
        .field_u64("orphans_trimmed", forest.orphans_trimmed as u64)
        .field_u64("dropped", file.dropped)
        .field_bool("laws_ok", laws.is_empty())
        .field_raw("laws", &json_strings(laws))
        .field_raw("stages", &stages)
        .field_raw("tenants", &tenants);
    if let Some(root) = slowest_root(forest) {
        let span = &forest.spans[root];
        let (cp, cp_nanos) = forest.critical_path(root);
        let mut o = ObjectWriter::new();
        o.field_str("tenant", &span.tenant)
            .field_u64("seq", span.seq)
            .field_u64("wall_nanos", span.duration_nanos())
            .field_raw(
                "critical_path",
                &json_strings(cp.iter().map(|&i| &forest.spans[i].stage)),
            )
            .field_u64("critical_nanos", cp_nanos);
        w.field_raw("slowest", &o.finish());
    }
    w.finish()
}

/// Chrome trace-event export (`{"traceEvents":[...]}`), loadable in
/// `chrome://tracing` or Perfetto: one complete (`ph:X`) event per
/// span, one track (tid) per request tree, named after its tenant/seq.
fn chrome_trace(forest: &SpanForest) -> String {
    let mut events: Vec<String> = Vec::new();
    for (track, &root) in forest.roots.iter().enumerate() {
        let tid = track as u64 + 1;
        let span = &forest.spans[root];
        let mut meta = ObjectWriter::new();
        let mut args = ObjectWriter::new();
        args.field_str("name", &format!("{} #{}", span.tenant, span.seq));
        meta.field_str("name", "thread_name")
            .field_str("ph", "M")
            .field_u64("pid", 1)
            .field_u64("tid", tid)
            .field_raw("args", &args.finish());
        events.push(meta.finish());
        push_tree_events(forest, root, tid, &mut events);
    }
    let mut out = String::from("{\"traceEvents\":[");
    out.push_str(&events.join(","));
    out.push_str("],\"displayTimeUnit\":\"ms\"}");
    out
}

fn push_tree_events(forest: &SpanForest, index: usize, tid: u64, events: &mut Vec<String>) {
    let span: &ParsedSpan = &forest.spans[index];
    let mut o = ObjectWriter::new();
    let mut args = ObjectWriter::new();
    args.field_u64("span_id", span.id)
        .field_u64("self_nanos", forest.self_nanos(index));
    o.field_str("name", &span.stage)
        .field_str("cat", "span")
        .field_str("ph", "X")
        .field_f64("ts", span.start_nanos as f64 / 1_000.0)
        .field_f64("dur", span.duration_nanos() as f64 / 1_000.0)
        .field_u64("pid", 1)
        .field_u64("tid", tid)
        .field_raw("args", &args.finish());
    events.push(o.finish());
    for &child in &forest.children[index] {
        push_tree_events(forest, child, tid, events);
    }
}

#[cfg(test)]
mod tests {
    use crate::tests::{fake_span_dump, run_cli, tmp_file};

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
        // Dumps carry stage timings only.
        assert!(v.get("host_split").is_none(), "{json}");

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
