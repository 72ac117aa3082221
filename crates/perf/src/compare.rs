//! Diffing two baselines: per-metric deltas and attribution waterfalls.

use crate::baseline::{Baseline, RegionSummary, WorkloadRecord};
use dim_obs::ObjectWriter;

/// Whether growth or shrinkage of a metric is the regression direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Direction {
    /// Regressions grow the metric (cycles, stalls, misses, wall time).
    HigherIsWorse,
    /// Regressions shrink the metric (speedup, throughput, hits).
    LowerIsWorse,
}

/// One comparable metric of a [`WorkloadRecord`].
pub(crate) struct Metric {
    /// Stable name, also the tolerance-spec key.
    pub name: &'static str,
    /// Extracts the value from a record.
    pub extract: fn(&WorkloadRecord) -> f64,
    /// Host-side (non-deterministic) rather than simulated.
    pub host: bool,
    /// Which direction is a regression.
    pub direction: Direction,
    /// Whether the record carries the metric at all. Fabric metrics are
    /// absent from baselines recorded before fabric observability; the
    /// gate skips a check when either side lacks it rather than
    /// reporting a phantom regression against zero.
    pub present: fn(&WorkloadRecord) -> bool,
}

macro_rules! metric {
    ($name:literal, $host:expr, $dir:ident, |$w:ident| $body:expr) => {
        metric!($name, $host, $dir, |$w| $body, present | _w | true)
    };
    ($name:literal, $host:expr, $dir:ident, |$w:ident| $body:expr,
     present |$p:ident| $pbody:expr) => {
        Metric {
            name: $name,
            extract: |$w: &WorkloadRecord| $body,
            host: $host,
            direction: Direction::$dir,
            present: |$p: &WorkloadRecord| $pbody,
        }
    };
}

/// `100 * num / den`, 0 when the denominator is 0.
fn fabric_pct(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        100.0 * num as f64 / den as f64
    }
}

/// Every metric of the baseline schema, simulated first.
pub(crate) const METRICS: &[Metric] = &[
    metric!("scalar_cycles", false, HigherIsWorse, |w| w.scalar_cycles
        as f64),
    metric!("accel_cycles", false, HigherIsWorse, |w| w.accel_cycles
        as f64),
    metric!("speedup", false, LowerIsWorse, |w| w.speedup),
    metric!("retired", false, HigherIsWorse, |w| w.retired as f64),
    metric!(
        "array_invocations",
        false,
        LowerIsWorse,
        |w| w.array_invocations as f64
    ),
    metric!(
        "attribution.pipeline",
        false,
        HigherIsWorse,
        |w| w.attribution.pipeline as f64
    ),
    metric!(
        "attribution.i_stall",
        false,
        HigherIsWorse,
        |w| w.attribution.i_stall as f64
    ),
    metric!(
        "attribution.d_stall",
        false,
        HigherIsWorse,
        |w| w.attribution.d_stall as f64
    ),
    metric!(
        "attribution.reconfig_stall",
        false,
        HigherIsWorse,
        |w| w.attribution.reconfig_stall as f64
    ),
    metric!(
        "attribution.array_exec",
        false,
        HigherIsWorse,
        |w| w.attribution.array_exec as f64
    ),
    metric!(
        "attribution.writeback_tail",
        false,
        HigherIsWorse,
        |w| w.attribution.writeback_tail as f64
    ),
    metric!("rcache_hits", false, LowerIsWorse, |w| w.rcache.hits as f64),
    metric!("rcache_misses", false, HigherIsWorse, |w| w.rcache.misses
        as f64),
    metric!("rcache_inserts", false, HigherIsWorse, |w| w.rcache.inserts
        as f64),
    metric!(
        "rcache_evictions",
        false,
        HigherIsWorse,
        |w| w.rcache.evictions as f64
    ),
    metric!("rcache_flushes", false, HigherIsWorse, |w| w.rcache.flushes
        as f64),
    metric!(
        "fabric_util_pct",
        false,
        LowerIsWorse,
        |w| w
            .fabric
            .map_or(0.0, |f| fabric_pct(f.busy_total(), f.capacity_total())),
        present | w | w.fabric.is_some()
    ),
    metric!(
        "fabric_alu_busy_pct",
        false,
        LowerIsWorse,
        |w| w.fabric.map_or(0.0, |f| fabric_pct(
            f.alu_busy_thirds,
            f.alu_capacity_thirds
        )),
        present | w | w.fabric.is_some()
    ),
    metric!(
        "fabric_mult_busy_pct",
        false,
        LowerIsWorse,
        |w| w.fabric.map_or(0.0, |f| fabric_pct(
            f.mult_busy_thirds,
            f.mult_capacity_thirds
        )),
        present | w | w.fabric.is_some()
    ),
    metric!(
        "fabric_ldst_busy_pct",
        false,
        LowerIsWorse,
        |w| w.fabric.map_or(0.0, |f| fabric_pct(
            f.ldst_busy_thirds,
            f.ldst_capacity_thirds
        )),
        present | w | w.fabric.is_some()
    ),
    metric!(
        "writeback_saturation_pct",
        false,
        HigherIsWorse,
        |w| w
            .fabric
            .map_or(0.0, |f| fabric_pct(f.writeback_writes, f.writeback_slots)),
        present | w | w.fabric.is_some()
    ),
    metric!(
        "wall_nanos_min",
        true,
        HigherIsWorse,
        |w| w.host.wall_nanos_min as f64
    ),
    metric!("sim_mips", true, LowerIsWorse, |w| w.host.sim_mips),
    metric!(
        "peak_rss_bytes",
        true,
        HigherIsWorse,
        |w| w.host.peak_rss_bytes as f64
    ),
];

/// Looks up a metric by its tolerance-spec key.
pub(crate) fn metric_by_name(name: &str) -> Option<&'static Metric> {
    METRICS.iter().find(|m| m.name == name)
}

/// Relative change from `base` to `cur`: positive means grew.
///
/// A zero base with a nonzero current reports infinity — rendered as
/// "new" — so divisions never poison a report with NaN.
pub(crate) fn rel_delta(base: f64, cur: f64) -> f64 {
    if base == 0.0 {
        if cur == 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (cur - base) / base
    }
}

/// One metric's before/after pair.
#[derive(Debug, Clone)]
pub struct MetricDelta {
    /// Metric name.
    pub metric: &'static str,
    /// Value in the reference baseline.
    pub base: f64,
    /// Value in the current baseline.
    pub cur: f64,
    /// `(cur - base) / base`.
    pub rel: f64,
    /// Host-side metric (expected to vary between machines).
    pub host: bool,
}

/// All deltas for one workload present in both baselines.
#[derive(Debug, Clone)]
pub struct WorkloadDiff {
    /// Workload name.
    pub name: String,
    /// Every metric's delta, in baseline-schema order (simulated first).
    pub deltas: Vec<MetricDelta>,
    /// Attribution waterfall: `(category, base, cur)` cycles.
    pub waterfall: Vec<(&'static str, u64, u64)>,
    /// Per-region cycle movement, `(region id, base, cur)` — empty
    /// unless both baselines embed region tables. A region missing from
    /// one side's table counts 0 cycles there.
    pub region_moves: Vec<(String, u64, u64)>,
}

/// The full diff of two baselines.
#[derive(Debug, Clone)]
pub struct Comparison {
    /// Name of the reference baseline.
    pub base_name: String,
    /// Name of the current baseline.
    pub cur_name: String,
    /// Workloads only the reference has.
    pub only_in_base: Vec<String>,
    /// Workloads only the current has.
    pub only_in_cur: Vec<String>,
    /// Per-workload diffs, in reference order.
    pub workloads: Vec<WorkloadDiff>,
}

/// Diffs `cur` against the reference `base`.
pub fn compare(base: &Baseline, cur: &Baseline) -> Comparison {
    let mut workloads = Vec::new();
    let mut only_in_base = Vec::new();
    for b in &base.workloads {
        let Some(c) = cur.workload(&b.name) else {
            only_in_base.push(b.name.clone());
            continue;
        };
        let deltas = METRICS
            .iter()
            .map(|m| {
                let bv = (m.extract)(b);
                let cv = (m.extract)(c);
                MetricDelta {
                    metric: m.name,
                    base: bv,
                    cur: cv,
                    rel: rel_delta(bv, cv),
                    host: m.host,
                }
            })
            .collect();
        let waterfall = b
            .attribution
            .named()
            .iter()
            .zip(c.attribution.named().iter())
            .map(|(&(name, bn), &(_, cn))| (name, bn, cn))
            .collect();
        workloads.push(WorkloadDiff {
            name: b.name.clone(),
            deltas,
            waterfall,
            region_moves: region_moves(&b.regions, &c.regions),
        });
    }
    let only_in_cur = cur
        .workloads
        .iter()
        .filter(|c| base.workload(&c.name).is_none())
        .map(|c| c.name.clone())
        .collect();
    Comparison {
        base_name: base.name.clone(),
        cur_name: cur.name.clone(),
        only_in_base,
        only_in_cur,
        workloads,
    }
}

/// Joins two region tables on `(pc, len)`, ordered by the base table's
/// ranking with current-only regions appended. Empty unless both sides
/// recorded regions, so diffs against pre-forensics baselines stay
/// quiet rather than reporting everything as "new".
fn region_moves(base: &[RegionSummary], cur: &[RegionSummary]) -> Vec<(String, u64, u64)> {
    if base.is_empty() || cur.is_empty() {
        return Vec::new();
    }
    let cycles_in = |table: &[RegionSummary], pc: u32, len: u32| {
        table
            .iter()
            .find(|r| r.pc == pc && r.len == len)
            .map_or(0, |r| r.cycles)
    };
    let mut moves = Vec::new();
    for r in base {
        moves.push((
            format!("0x{:x}[{}]", r.pc, r.len),
            r.cycles,
            cycles_in(cur, r.pc, r.len),
        ));
    }
    for r in cur {
        if !base.iter().any(|b| b.pc == r.pc && b.len == r.len) {
            moves.push((format!("0x{:x}[{}]", r.pc, r.len), 0, r.cycles));
        }
    }
    moves
}

fn fmt_rel(rel: f64) -> String {
    if rel.is_infinite() {
        "new".to_string()
    } else {
        format!("{:+.2}%", rel * 100.0)
    }
}

impl Comparison {
    /// Renders the diff for humans: changed metrics plus a per-workload
    /// attribution waterfall showing where the cycles moved.
    pub fn render(&self) -> String {
        let mut s = format!("comparing `{}` -> `{}`\n", self.base_name, self.cur_name);
        for name in &self.only_in_base {
            s.push_str(&format!("  {name}: missing from current baseline\n"));
        }
        for name in &self.only_in_cur {
            s.push_str(&format!("  {name}: new in current baseline\n"));
        }
        for w in &self.workloads {
            let changed: Vec<&MetricDelta> = w
                .deltas
                .iter()
                .filter(|d| d.rel != 0.0 && !d.host)
                .collect();
            s.push_str(&format!("{}:\n", w.name));
            if changed.is_empty() {
                s.push_str("  simulated metrics identical\n");
            }
            for d in &changed {
                s.push_str(&format!(
                    "  {:<28} {:>14} -> {:>14}  {}\n",
                    d.metric,
                    trim_float(d.base),
                    trim_float(d.cur),
                    fmt_rel(d.rel)
                ));
            }
            let total_base: u64 = w.waterfall.iter().map(|&(_, b, _)| b).sum();
            let total_cur: u64 = w.waterfall.iter().map(|&(_, _, c)| c).sum();
            if total_base != total_cur {
                s.push_str("  attribution waterfall (cycles):\n");
                for &(cat, b, c) in &w.waterfall {
                    let delta = c as i128 - b as i128;
                    s.push_str(&format!(
                        "    {:<16} {:>12} -> {:>12}  {:>+8}\n",
                        cat, b, c, delta
                    ));
                }
                s.push_str(&format!(
                    "    {:<16} {:>12} -> {:>12}  {:>+8}\n",
                    "total",
                    total_base,
                    total_cur,
                    total_cur as i128 - total_base as i128
                ));
            }
            let moved: Vec<_> = w.region_moves.iter().filter(|(_, b, c)| b != c).collect();
            if !moved.is_empty() {
                s.push_str("  region movement (attributed cycles):\n");
                for (id, b, c) in moved {
                    s.push_str(&format!(
                        "    {:<16} {:>12} -> {:>12}  {:>+8}\n",
                        id,
                        b,
                        c,
                        *c as i128 - *b as i128
                    ));
                }
            }
            for d in w.deltas.iter().filter(|d| d.host && d.rel != 0.0) {
                s.push_str(&format!(
                    "  {:<28} {:>14} -> {:>14}  {} (host, informational)\n",
                    d.metric,
                    trim_float(d.base),
                    trim_float(d.cur),
                    fmt_rel(d.rel)
                ));
            }
        }
        s
    }

    /// Serializes the full diff as one JSON object.
    pub fn to_json(&self) -> String {
        let mut workloads = String::from("[");
        for (i, w) in self.workloads.iter().enumerate() {
            if i > 0 {
                workloads.push(',');
            }
            let mut deltas = String::from("[");
            for (j, d) in w.deltas.iter().enumerate() {
                if j > 0 {
                    deltas.push(',');
                }
                let mut o = ObjectWriter::new();
                o.field_str("metric", d.metric);
                o.field_f64("base", d.base);
                o.field_f64("cur", d.cur);
                o.field_f64("rel", d.rel);
                o.field_bool("host", d.host);
                deltas.push_str(&o.finish());
            }
            deltas.push(']');
            let mut waterfall = String::from("[");
            for (j, &(cat, b, c)) in w.waterfall.iter().enumerate() {
                if j > 0 {
                    waterfall.push(',');
                }
                let mut o = ObjectWriter::new();
                o.field_str("category", cat);
                o.field_u64("base", b);
                o.field_u64("cur", c);
                waterfall.push_str(&o.finish());
            }
            waterfall.push(']');
            let mut regions = String::from("[");
            for (j, (id, b, c)) in w.region_moves.iter().enumerate() {
                if j > 0 {
                    regions.push(',');
                }
                let mut o = ObjectWriter::new();
                o.field_str("region", id);
                o.field_u64("base", *b);
                o.field_u64("cur", *c);
                regions.push_str(&o.finish());
            }
            regions.push(']');
            let mut o = ObjectWriter::new();
            o.field_str("name", &w.name);
            o.field_raw("deltas", &deltas);
            o.field_raw("waterfall", &waterfall);
            o.field_raw("region_moves", &regions);
            workloads.push_str(&o.finish());
        }
        workloads.push(']');
        let mut only_base = String::from("[");
        for (i, n) in self.only_in_base.iter().enumerate() {
            if i > 0 {
                only_base.push(',');
            }
            dim_obs::write_escaped(&mut only_base, n);
        }
        only_base.push(']');
        let mut only_cur = String::from("[");
        for (i, n) in self.only_in_cur.iter().enumerate() {
            if i > 0 {
                only_cur.push(',');
            }
            dim_obs::write_escaped(&mut only_cur, n);
        }
        only_cur.push(']');
        let mut o = ObjectWriter::new();
        o.field_str("base", &self.base_name);
        o.field_str("cur", &self.cur_name);
        o.field_raw("only_in_base", &only_base);
        o.field_raw("only_in_cur", &only_cur);
        o.field_raw("workloads", &workloads);
        o.finish()
    }
}

fn trim_float(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v:.3}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::{Baseline, HostTelemetry, RcacheCounters, RecordMatrix, WorkloadRecord};
    use dim_core::CycleBreakdown;

    fn sample() -> Baseline {
        Baseline {
            schema_version: crate::BASELINE_SCHEMA_VERSION,
            name: "a".into(),
            matrix: RecordMatrix {
                workloads: vec!["crc32".into()],
                scale: "tiny".into(),
                shape: 1,
                cache_slots: 64,
                speculation: true,
                host_reps: 1,
            },
            workloads: vec![WorkloadRecord {
                name: "crc32".into(),
                scalar_cycles: 1000,
                accel_cycles: 600,
                speedup: 1000.0 / 600.0,
                retired: 400,
                array_invocations: 10,
                attribution: CycleBreakdown {
                    pipeline: 500,
                    i_stall: 0,
                    d_stall: 0,
                    reconfig_stall: 40,
                    array_exec: 50,
                    writeback_tail: 10,
                },
                rcache: RcacheCounters {
                    hits: 9,
                    misses: 1,
                    inserts: 1,
                    evictions: 0,
                    flushes: 0,
                },
                host: HostTelemetry {
                    wall_nanos_min: 1000,
                    wall_nanos_mean: 1100.0,
                    reps: 1,
                    sim_mips: 10.0,
                    peak_rss_bytes: 0,
                },
                regions: vec![],
                fabric: None,
            }],
        }
    }

    #[test]
    fn identical_baselines_diff_clean() {
        let a = sample();
        let cmp = compare(&a, &a);
        assert!(cmp.workloads[0].deltas.iter().all(|d| d.rel == 0.0));
        assert!(cmp.render().contains("simulated metrics identical"));
        dim_obs::parse_json(&cmp.to_json()).unwrap();
    }

    #[test]
    fn regression_shows_in_waterfall() {
        let a = sample();
        let mut b = sample();
        b.name = "b".into();
        b.workloads[0].accel_cycles = 660;
        b.workloads[0].attribution.pipeline = 560; // +60 all in pipeline
        b.workloads[0].speedup = 1000.0 / 660.0;
        let cmp = compare(&a, &b);
        let accel = cmp.workloads[0]
            .deltas
            .iter()
            .find(|d| d.metric == "accel_cycles")
            .unwrap();
        assert!((accel.rel - 0.1).abs() < 1e-12);
        let rendered = cmp.render();
        assert!(rendered.contains("attribution waterfall"), "{rendered}");
        assert!(rendered.contains("+60"), "{rendered}");
    }

    #[test]
    fn region_movement_names_the_shifted_region() {
        use crate::baseline::RegionSummary;
        let mut a = sample();
        a.workloads[0].regions = vec![RegionSummary {
            pc: 0x400,
            len: 7,
            cycles: 80,
            invocations: 8,
            mispredicts: 0,
        }];
        let mut b = sample();
        b.name = "b".into();
        b.workloads[0].regions = vec![
            RegionSummary {
                pc: 0x400,
                len: 7,
                cycles: 120,
                invocations: 8,
                mispredicts: 4,
            },
            RegionSummary {
                pc: 0x500,
                len: 3,
                cycles: 15,
                invocations: 2,
                mispredicts: 0,
            },
        ];
        let cmp = compare(&a, &b);
        let rendered = cmp.render();
        assert!(rendered.contains("region movement"), "{rendered}");
        assert!(rendered.contains("0x400[7]"), "{rendered}");
        assert!(rendered.contains("+40"), "{rendered}");
        assert!(rendered.contains("0x500[3]"), "{rendered}");
        let v = dim_obs::parse_json(&cmp.to_json()).unwrap();
        let moves = v.get("workloads").unwrap().as_array().unwrap()[0]
            .get("region_moves")
            .unwrap()
            .as_array()
            .unwrap()
            .len();
        assert_eq!(moves, 2);

        // Against a pre-forensics baseline (no regions) the section is
        // suppressed entirely.
        let old = sample();
        let cmp = compare(&old, &b);
        assert!(cmp.workloads[0].region_moves.is_empty());
        assert!(!cmp.render().contains("region movement"));
    }

    #[test]
    fn disjoint_workloads_are_reported() {
        let a = sample();
        let mut b = sample();
        b.workloads[0].name = "sha".into();
        let cmp = compare(&a, &b);
        assert_eq!(cmp.only_in_base, vec!["crc32".to_string()]);
        assert_eq!(cmp.only_in_cur, vec!["sha".to_string()]);
        assert!(cmp.workloads.is_empty());
    }

    #[test]
    fn rel_delta_handles_zero_base() {
        assert_eq!(rel_delta(0.0, 0.0), 0.0);
        assert!(rel_delta(0.0, 5.0).is_infinite());
        assert!((rel_delta(100.0, 110.0) - 0.1).abs() < 1e-12);
    }
}
