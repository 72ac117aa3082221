//! Named metrics, the result line, and order statistics.

use std::fmt::Write as _;

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// For a ratio, the metric holding its denominator.
    pub base: Option<&'static str>,
}

/// The metrics of one run, in report order.
#[derive(Debug, Clone, Default)]
pub struct Metrics(Vec<Metric>);

impl Metrics {
    /// Records a plain value.
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name,
            value,
            unit,
            base: None,
        });
    }

    /// Records a count.
    pub fn count(&mut self, name: &'static str, value: u64) {
        self.put(name, value as f64, "count");
    }

    /// Records `num / den` and names the metric that reports `den`
    /// (0 when `den` is 0: the base then shows why).
    pub fn ratio(
        &mut self,
        name: &'static str,
        num: f64,
        den: f64,
        unit: &'static str,
        base: &'static str,
    ) {
        let value = if den == 0.0 { 0.0 } else { num / den };
        self.0.push(Metric {
            name,
            value,
            unit,
            base: Some(base),
        });
    }

    /// Records a ratio computed elsewhere and names the metric that
    /// reports its base.
    pub fn derived(
        &mut self,
        name: &'static str,
        value: f64,
        unit: &'static str,
        base: &'static str,
    ) {
        self.0.push(Metric {
            name,
            value,
            unit,
            base: Some(base),
        });
    }

    /// All metrics.
    pub fn all(&self) -> &[Metric] {
        &self.0
    }

    /// The value of `name`, if recorded.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }

    /// Ratios whose base metric was not recorded.
    pub fn missing_bases(&self) -> Vec<&'static str> {
        self.0
            .iter()
            .filter(|m| m.base.is_some_and(|b| self.get(b).is_none()))
            .map(|m| m.name)
            .collect()
    }

    /// A human-readable table: name, value, unit, and the base of ratios.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for m in &self.0 {
            let base = m.base.map(|b| format!("  (base {b})")).unwrap_or_default();
            let _ = writeln!(out, "{:<34} {:>18.6} {}{base}", m.name, m.value, m.unit);
        }
        out
    }
}

/// Formats a number for JSON. Non-finite values have no JSON form; they
/// are reported as problems by [`Tally::check_finite`] and written as 0.
fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".into()
    }
}

/// Runs attempted, runs failed, and every self-check that did not hold.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    /// Simulated runs or sweep cells attempted.
    pub attempted: u64,
    /// Those that errored, timed out or failed reference validation.
    pub failed: u64,
    /// Failed runs and self-checks, one line each.
    pub problems: Vec<String>,
}

impl Tally {
    /// Counts one run; `Err` counts it as failed.
    pub fn run(&mut self, what: &str, result: Result<(), String>) -> bool {
        self.attempted += 1;
        match result {
            Ok(()) => true,
            Err(reason) => {
                self.failed += 1;
                self.problems.push(format!("{what}: {reason}"));
                false
            }
        }
    }

    /// Records a self-check that must hold (it does not count as a run).
    pub fn check(&mut self, holds: bool, what: impl FnOnce() -> String) {
        if !holds {
            self.problems.push(what());
        }
    }

    /// Records a self-check that reports its own failure.
    pub fn check_result(&mut self, what: &str, result: Result<(), String>) {
        if let Err(reason) = result {
            self.problems.push(format!("{what}: {reason}"));
        }
    }

    /// Flags every non-finite metric.
    pub fn check_finite(&mut self, metrics: &Metrics) {
        for m in metrics.all() {
            self.check(m.value.is_finite(), || format!("{} is not finite", m.name));
        }
    }

    /// Whether every run validated and every self-check held.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }
}

/// The result line: one JSON object with `correct`, `attempted`,
/// `failed` and every metric with its unit.
pub fn result_line(tally: &Tally, metrics: &Metrics) -> String {
    let mut body = String::new();
    for (i, m) in metrics.all().iter().enumerate() {
        if i > 0 {
            body.push_str(", ");
        }
        let _ = write!(
            body,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            json_number(m.value),
            m.unit
        );
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
        tally.correct(),
        tally.attempted.max(1),
        tally.failed,
    )
}

/// The fastest-decile statistic of host-time samples: the 10th
/// percentile, interpolated between neighbouring samples (0 for none).
/// Interference from other tenants only ever slows a sample down, so the
/// low tail repeats from run to run where the median does not.
pub fn p10(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = 0.1 * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = (lo + 1).min(v.len() - 1);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `values`, interpolated between the middle two of an
/// even count (0 for none).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Host time left for the layers no outside replay covers — array replay
/// plus accounting — per array-retired instruction: the core's measured
/// time minus the outside estimates for pipeline, translator and rcache.
/// Noise can make it negative; it is reported as measured, not clamped.
pub fn residual_ns_per_array_inst(
    core_ns: f64,
    pipeline_ns: f64,
    translator_ns: f64,
    rcache_ns: f64,
    array_instructions: u64,
) -> f64 {
    if array_instructions == 0 {
        return 0.0;
    }
    (core_ns - pipeline_ns - translator_ns - rcache_ns) / array_instructions as f64
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
