//! Log-scaled histograms, and the [`MetricsRegistry`] probe that fills
//! them with what no run counter measures.

use crate::event::ProbeEvent;
use crate::json::ObjectWriter;
use crate::probe::Probe;
use std::collections::HashMap;
use std::fmt;

/// Number of buckets in a [`LogHistogram`]: one for zero plus one per
/// power of two up to `u64::MAX`.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A power-of-two histogram of `u64` samples.
///
/// Bucket 0 counts zero-valued samples; bucket `i >= 1` counts samples
/// in `[2^(i-1), 2^i)`. Alongside the buckets it tracks count, sum,
/// min and max so means stay exact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogHistogram {
    buckets: [u64; HISTOGRAM_BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for LogHistogram {
    fn default() -> LogHistogram {
        LogHistogram::new()
    }
}

impl LogHistogram {
    /// An empty histogram.
    pub fn new() -> LogHistogram {
        LogHistogram {
            buckets: [0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Bucket index for a value: 0 for 0, `ilog2(v) + 1` otherwise.
    pub fn bucket_index(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            value.ilog2() as usize + 1
        }
    }

    /// Lower bound (inclusive) of bucket `i`.
    pub fn bucket_low(i: usize) -> u64 {
        match i {
            0 => 0,
            1 => 1,
            i => 1u64 << (i - 1),
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.buckets[Self::bucket_index(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest sample, or 0 when empty.
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest sample, or 0 when empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Arithmetic mean, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The raw bucket counts.
    pub fn buckets(&self) -> &[u64; HISTOGRAM_BUCKETS] {
        &self.buckets
    }

    /// `(bucket_low, count)` for every non-empty bucket, low to high.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, &n)| (Self::bucket_low(i), n))
    }

    /// Serializes the histogram as a JSON object fragment.
    pub fn to_json(&self) -> String {
        let mut buckets = String::from("[");
        for (i, (low, n)) in self.nonzero_buckets().enumerate() {
            if i > 0 {
                buckets.push(',');
            }
            buckets.push_str(&format!("[{low},{n}]"));
        }
        buckets.push(']');
        let mut o = ObjectWriter::new();
        o.field_u64("count", self.count());
        o.field_u64("sum", self.sum());
        o.field_u64("min", self.min());
        o.field_u64("max", self.max());
        o.field_f64("mean", self.mean());
        o.field_raw("buckets", &buckets);
        o.finish()
    }
}

impl fmt::Display for LogHistogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.count == 0 {
            return writeln!(f, "(empty)");
        }
        writeln!(
            f,
            "n={} min={} mean={:.1} max={}",
            self.count,
            self.min(),
            self.mean(),
            self.max
        )?;
        let widest = self.buckets.iter().copied().max().unwrap_or(1).max(1);
        for (low, n) in self.nonzero_buckets() {
            let bar = "#".repeat(((n * 40).div_ceil(widest)) as usize);
            writeln!(f, "  {low:>12} | {n:>10} {bar}")?;
        }
        Ok(())
    }
}

/// A [`Probe`] that keeps what the system's own counters do not: four
/// per-event distributions and the translator's region opens, commits
/// and partial commits. Run totals (retires, cycles, rcache traffic,
/// invocations) are read from the system itself, which counts each of
/// them once.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    /// Translator regions opened.
    pub trans_begins: u64,
    /// Committed configurations that were interrupted prefixes.
    pub trans_partials: u64,

    /// Instructions covered per committed configuration.
    pub config_coverage: LogHistogram,
    /// Speculation depth actually executed per invocation.
    pub spec_depth: LogHistogram,
    /// Lookups from a configuration's insertion to its first hit, and
    /// between its consecutive hits.
    pub rcache_reuse_distance: LogHistogram,
    /// Total cycles per invocation.
    pub invocation_cycles: LogHistogram,

    /// Lookup serial of each resident PC's insertion or last hit.
    last_lookup: HashMap<u32, u64>,
    lookup_serial: u64,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Configurations the translator committed, partials included: one
    /// per `TransCommit`, each of which `config_coverage` records. A
    /// commit the cache cannot store (0 slots) still counts.
    pub fn trans_commits(&self) -> u64 {
        self.config_coverage.count()
    }

    /// Renders the four histograms, one titled block each.
    pub fn render(&self) -> String {
        let mut s = String::new();
        for (name, h) in [
            ("config coverage (instructions)", &self.config_coverage),
            ("speculation depth", &self.spec_depth),
            (
                "rcache reuse distance (lookups)",
                &self.rcache_reuse_distance,
            ),
            ("invocation cycles", &self.invocation_cycles),
        ] {
            s.push_str(&format!("{name}: {h}"));
        }
        s
    }
}

impl Probe for MetricsRegistry {
    fn emit(&mut self, event: ProbeEvent) {
        match event {
            ProbeEvent::TransBegin { .. } => self.trans_begins += 1,
            ProbeEvent::TransCommit {
                instructions,
                partial,
                ..
            } => {
                if partial {
                    self.trans_partials += 1;
                }
                self.config_coverage.record(instructions as u64);
            }
            ProbeEvent::RcacheHit { pc, .. } => {
                self.lookup_serial += 1;
                // A hit on an entry whose insert this registry never saw
                // (a warm-started one) has no distance yet; it starts
                // one for the next hit.
                if let Some(prev) = self.last_lookup.insert(pc, self.lookup_serial) {
                    self.rcache_reuse_distance.record(self.lookup_serial - prev);
                }
            }
            ProbeEvent::RcacheMiss { .. } => self.lookup_serial += 1,
            ProbeEvent::RcacheInsert { pc, .. } => {
                self.last_lookup.insert(pc, self.lookup_serial);
            }
            ProbeEvent::RcacheFlush { pc, .. } | ProbeEvent::RcacheEvict { pc, .. } => {
                self.last_lookup.remove(&pc);
            }
            ProbeEvent::ArrayInvoke(inv) => {
                self.spec_depth.record(inv.spec_depth as u64);
                self.invocation_cycles.record(inv.total_cycles());
            }
            ProbeEvent::Retire { .. }
            | ProbeEvent::SpecMispredict { .. }
            | ProbeEvent::Fabric(_)
            | ProbeEvent::StreamTag { .. } => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::ArrayInvoke;

    #[test]
    fn bucket_edges() {
        assert_eq!(LogHistogram::bucket_index(0), 0);
        assert_eq!(LogHistogram::bucket_index(1), 1);
        assert_eq!(LogHistogram::bucket_index(2), 2);
        assert_eq!(LogHistogram::bucket_index(3), 2);
        assert_eq!(LogHistogram::bucket_index(4), 3);
        assert_eq!(LogHistogram::bucket_index(7), 3);
        assert_eq!(LogHistogram::bucket_index(8), 4);
        assert_eq!(LogHistogram::bucket_index(u64::MAX), 64);
        assert_eq!(LogHistogram::bucket_low(0), 0);
        assert_eq!(LogHistogram::bucket_low(1), 1);
        assert_eq!(LogHistogram::bucket_low(4), 8);
    }

    #[test]
    fn histogram_stats() {
        let mut h = LogHistogram::new();
        assert_eq!(h.min(), 0);
        for v in [0, 1, 3, 8] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 12);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 8);
        assert_eq!(h.buckets()[0], 1);
        assert_eq!(h.buckets()[2], 1);
        assert_eq!(h.buckets()[4], 1);
        assert_eq!(h.nonzero_buckets().count(), 4);
        h.record(u64::MAX);
        assert_eq!(h.sum(), u64::MAX); // saturated, not wrapped
    }

    #[test]
    fn empty_histogram_serializes_and_renders() {
        let v = crate::json::parse(&LogHistogram::new().to_json()).unwrap();
        for key in ["count", "min", "max"] {
            assert_eq!(
                v.get(key).and_then(crate::json::JsonValue::as_u64),
                Some(0),
                "{key}"
            );
        }
        let rendered = MetricsRegistry::new().render();
        assert_eq!(rendered.lines().count(), 4, "{rendered}");
        assert!(rendered.lines().all(|l| l.ends_with(": (empty)")));
    }

    #[test]
    fn reuse_distance_counts_lookups_between_hits() {
        let mut m = MetricsRegistry::new();
        // A hit on an entry inserted before the registry started (a
        // warm start) has no distance.
        m.emit(ProbeEvent::RcacheHit { pc: 0x10, len: 4 });
        m.emit(ProbeEvent::RcacheMiss { pc: 0x20 });
        m.emit(ProbeEvent::RcacheMiss { pc: 0x24 });
        m.emit(ProbeEvent::RcacheHit { pc: 0x10, len: 4 }); // 3 lookups since the last hit
        assert_eq!(m.rcache_reuse_distance.count(), 1);
        assert_eq!(m.rcache_reuse_distance.max(), 3);

        // A first hit counts from the insertion, and an eviction ends
        // the entry's history.
        m.emit(ProbeEvent::RcacheInsert {
            pc: 0x20,
            len: 4,
            evicted: None,
        });
        m.emit(ProbeEvent::RcacheMiss { pc: 0x24 });
        m.emit(ProbeEvent::RcacheHit { pc: 0x20, len: 4 }); // 2 lookups since the insert
        m.emit(ProbeEvent::RcacheEvict {
            pc: 0x20,
            len: 4,
            uses: 1,
        });
        m.emit(ProbeEvent::RcacheHit { pc: 0x20, len: 4 });
        assert_eq!(m.rcache_reuse_distance.count(), 2);
        assert_eq!(m.rcache_reuse_distance.min(), 2);
    }

    #[test]
    fn registry_counts_translations_and_invocations() {
        let mut m = MetricsRegistry::new();
        m.emit(ProbeEvent::TransBegin { pc: 4 });
        for partial in [false, true] {
            m.emit(ProbeEvent::TransCommit {
                entry_pc: 4,
                instructions: 9,
                rows: 3,
                spec_blocks: 1,
                partial,
            });
        }
        assert_eq!((m.trans_begins, m.trans_partials), (1, 1));
        assert_eq!(m.config_coverage.count(), 2);
        assert_eq!(m.trans_commits(), 2);
        m.emit(ProbeEvent::ArrayInvoke(ArrayInvoke {
            entry_pc: 4,
            exit_pc: 8,
            covered: 10,
            executed: 10,
            loads: 0,
            stores: 0,
            rows: 2,
            spec_depth: 2,
            misspeculated: true,
            flushed: false,
            stall_cycles: 1,
            exec_cycles: 5,
            tail_cycles: 2,
        }));
        assert_eq!(m.spec_depth.max(), 2);
        assert_eq!(m.invocation_cycles.sum(), 8);
    }
}
