//! Streaming JSONL trace sink.
//!
//! One JSON object per line. The first line is a `header` record
//! carrying [`SCHEMA_VERSION`] plus run metadata; the last (written by
//! [`Probe::finish`]) is a `footer` with event totals so truncated
//! traces are detectable. Consecutive pipeline events ([`Retire`] and
//! the [`RcacheMiss`] that precedes each fetch) are coalesced into
//! `retire_batch` records — a trace stays one line per array-invocation
//! region instead of one line per instruction.
//!
//! The sink writes no `telemetry` records; the reader still accepts
//! them in traces of schema version 2 and later (see
//! [`crate::replay`]).
//!
//! [`Retire`]: ProbeEvent::Retire
//! [`RcacheMiss`]: ProbeEvent::RcacheMiss

use crate::event::{ProbeEvent, RetireKind, SCHEMA_VERSION};
use crate::json::ObjectWriter;
use crate::probe::Probe;
use std::io::{self, Write};

/// Maximum retires coalesced into one `retire_batch` record.
const BATCH_CAP: u64 = 4096;

const KIND_ORDER: [RetireKind; 7] = [
    RetireKind::Alu,
    RetireKind::Load,
    RetireKind::Store,
    RetireKind::Branch,
    RetireKind::Jump,
    RetireKind::MulDiv,
    RetireKind::System,
];

#[derive(Debug, Default)]
struct Batch {
    count: u64,
    base_cycles: u64,
    i_stall: u64,
    d_stall: u64,
    rcache_misses: u64,
    kinds: [u64; 7],
}

impl Batch {
    fn is_empty(&self) -> bool {
        self.count == 0 && self.rcache_misses == 0
    }
}

/// A [`Probe`] that serializes every event as one JSON object per line.
///
/// Writing never panics: the first I/O error is latched, subsequent
/// events are dropped, and the error is reported by [`JsonlSink::take_error`]
/// (or by [`JsonlSink::into_inner`]).
#[derive(Debug)]
pub struct JsonlSink<W: Write> {
    out: W,
    batch: Batch,
    /// Events emitted (batched retires count individually).
    events: u64,
    finished: bool,
    error: Option<io::Error>,
}

impl<W: Write> JsonlSink<W> {
    /// Creates a sink and immediately writes the `header` record.
    ///
    /// `workload` names the traced program; `bits_per_config` is the
    /// stored size of one cache entry, recorded so replay can
    /// reconstruct the cache-bit energy counters.
    pub fn new(out: W, workload: &str, bits_per_config: u64) -> JsonlSink<W> {
        JsonlSink::with_header_extra(out, workload, bits_per_config, &[])
    }

    /// Like [`JsonlSink::new`], but appends extra raw-JSON fields to the
    /// `header` record (each value must already be valid JSON). Readers
    /// ignore unknown header fields per the schema compatibility policy;
    /// the flight recorder uses this to annotate dumps with drop
    /// accounting without a schema bump.
    pub fn with_header_extra(
        out: W,
        workload: &str,
        bits_per_config: u64,
        extra: &[(&str, String)],
    ) -> JsonlSink<W> {
        let mut sink = JsonlSink {
            out,
            batch: Batch::default(),
            events: 0,
            finished: false,
            error: None,
        };
        let mut o = ObjectWriter::new();
        o.field_str("type", "header");
        o.field_u64("schema_version", SCHEMA_VERSION as u64);
        o.field_str("workload", workload);
        o.field_u64("bits_per_config", bits_per_config);
        for (name, raw) in extra {
            o.field_raw(name, raw);
        }
        sink.write_line(&o.finish());
        sink
    }

    /// The first write error, if any occurred (clears it).
    pub fn take_error(&mut self) -> Option<io::Error> {
        self.error.take()
    }

    /// Total events observed so far.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Finishes the trace and returns the writer and any latched error.
    pub fn into_inner(mut self) -> (W, Option<io::Error>) {
        self.finish();
        (self.out, self.error)
    }

    fn write_line(&mut self, line: &str) {
        if self.error.is_some() {
            return;
        }
        let res = self
            .out
            .write_all(line.as_bytes())
            .and_then(|()| self.out.write_all(b"\n"));
        if let Err(e) = res {
            self.error = Some(e);
        }
    }

    fn flush_batch(&mut self) {
        if self.batch.is_empty() {
            return;
        }
        let batch = std::mem::take(&mut self.batch);
        let mut kinds = ObjectWriter::new();
        for (kind, &n) in KIND_ORDER.iter().zip(batch.kinds.iter()) {
            if n > 0 {
                kinds.field_u64(kind.name(), n);
            }
        }
        let mut o = ObjectWriter::new();
        o.field_str("type", "retire_batch");
        o.field_u64("count", batch.count);
        o.field_u64("base_cycles", batch.base_cycles);
        o.field_u64("i_stall", batch.i_stall);
        o.field_u64("d_stall", batch.d_stall);
        o.field_u64("rcache_misses", batch.rcache_misses);
        o.field_raw("kinds", &kinds.finish());
        self.write_line(&o.finish());
    }

    fn write_event(&mut self, event: &ProbeEvent) {
        let mut o = ObjectWriter::new();
        o.field_str("type", event.type_name());
        match *event {
            ProbeEvent::Retire { .. } | ProbeEvent::RcacheMiss { .. } => {
                unreachable!("batched before write_event")
            }
            ProbeEvent::TransBegin { pc } => {
                o.field_u64("pc", pc as u64);
            }
            ProbeEvent::TransCommit {
                entry_pc,
                instructions,
                rows,
                spec_blocks,
                partial,
            } => {
                o.field_u64("entry_pc", entry_pc as u64);
                o.field_u64("instructions", instructions as u64);
                o.field_u64("rows", rows as u64);
                o.field_u64("spec_blocks", spec_blocks as u64);
                o.field_bool("partial", partial);
            }
            ProbeEvent::RcacheHit { pc, len } => {
                o.field_u64("pc", pc as u64);
                o.field_u64("len", len as u64);
            }
            ProbeEvent::RcacheInsert { pc, len, evicted } => {
                o.field_u64("pc", pc as u64);
                o.field_u64("len", len as u64);
                o.field_opt_u64("evicted", evicted.map(|pc| pc as u64));
            }
            ProbeEvent::RcacheFlush { pc, len } => {
                o.field_u64("pc", pc as u64);
                o.field_u64("len", len as u64);
            }
            ProbeEvent::RcacheEvict { pc, len, uses } => {
                o.field_u64("pc", pc as u64);
                o.field_u64("len", len as u64);
                o.field_u64("uses", uses);
            }
            ProbeEvent::SpecMispredict {
                region_pc,
                region_len,
                branch_pc,
                penalty_cycles,
            } => {
                o.field_u64("region_pc", region_pc as u64);
                o.field_u64("region_len", region_len as u64);
                o.field_u64("branch_pc", branch_pc as u64);
                o.field_u64("penalty_cycles", penalty_cycles as u64);
            }
            ProbeEvent::ArrayInvoke(inv) => {
                o.field_u64("entry_pc", inv.entry_pc as u64);
                o.field_u64("exit_pc", inv.exit_pc as u64);
                o.field_u64("covered", inv.covered as u64);
                o.field_u64("executed", inv.executed as u64);
                o.field_u64("loads", inv.loads as u64);
                o.field_u64("stores", inv.stores as u64);
                o.field_u64("rows", inv.rows as u64);
                o.field_u64("spec_depth", inv.spec_depth as u64);
                o.field_bool("misspeculated", inv.misspeculated);
                o.field_bool("flushed", inv.flushed);
                o.field_u64("stall_cycles", inv.stall_cycles as u64);
                o.field_u64("exec_cycles", inv.exec_cycles as u64);
                o.field_u64("tail_cycles", inv.tail_cycles as u64);
            }
            ProbeEvent::Fabric(fab) => {
                o.field_u64("entry_pc", fab.entry_pc as u64);
                o.field_u64("rows", fab.rows as u64);
                o.field_u64("exec_thirds", fab.exec_thirds as u64);
                o.field_u64("capacity_thirds", fab.capacity_thirds as u64);
                o.field_u64("alu_busy_thirds", fab.alu_busy_thirds as u64);
                o.field_u64("mult_busy_thirds", fab.mult_busy_thirds as u64);
                o.field_u64("ldst_busy_thirds", fab.ldst_busy_thirds as u64);
                o.field_u64("issued_ops", fab.issued_ops as u64);
                o.field_u64("squashed_ops", fab.squashed_ops as u64);
                o.field_u64("residual_cycles", fab.residual_cycles as u64);
                o.field_u64("writeback_writes", fab.writeback_writes as u64);
                o.field_u64("writeback_slots", fab.writeback_slots as u64);
            }
            ProbeEvent::StreamTag { pc, len, burst } => {
                o.field_u64("pc", pc as u64);
                o.field_u64("len", len as u64);
                o.field_u64("burst", burst as u64);
            }
        }
        self.write_line(&o.finish());
    }
}

impl<W: Write> Probe for JsonlSink<W> {
    fn emit(&mut self, event: ProbeEvent) {
        self.events += 1;
        match event {
            ProbeEvent::Retire {
                kind,
                base_cycles,
                i_stall,
                d_stall,
                ..
            } => {
                self.batch.count += 1;
                self.batch.base_cycles += base_cycles as u64;
                self.batch.i_stall += i_stall as u64;
                self.batch.d_stall += d_stall as u64;
                let slot = KIND_ORDER
                    .iter()
                    .position(|k| *k == kind)
                    .expect("known kind");
                self.batch.kinds[slot] += 1;
                if self.batch.count >= BATCH_CAP {
                    self.flush_batch();
                }
            }
            ProbeEvent::RcacheMiss { .. } => {
                self.batch.rcache_misses += 1;
            }
            other => {
                self.flush_batch();
                self.write_event(&other);
            }
        }
    }

    fn finish(&mut self) {
        if self.finished {
            return;
        }
        self.finished = true;
        self.flush_batch();
        let mut o = ObjectWriter::new();
        o.field_str("type", "footer");
        o.field_u64("events", self.events);
        self.write_line(&o.finish());
        if self.error.is_none() {
            if let Err(e) = self.out.flush() {
                self.error = Some(e);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::ArrayInvoke;
    use crate::json;

    fn retire(pc: u32, kind: RetireKind) -> ProbeEvent {
        ProbeEvent::Retire {
            pc,
            kind,
            base_cycles: 1,
            i_stall: 0,
            d_stall: 2,
            ends_block: false,
        }
    }

    fn invoke() -> ProbeEvent {
        ProbeEvent::ArrayInvoke(ArrayInvoke {
            entry_pc: 0x400000,
            exit_pc: 0x400020,
            covered: 8,
            executed: 6,
            loads: 1,
            stores: 1,
            rows: 3,
            spec_depth: 1,
            misspeculated: false,
            flushed: false,
            stall_cycles: 0,
            exec_cycles: 4,
            tail_cycles: 1,
        })
    }

    #[test]
    fn batches_consecutive_retires() {
        let mut sink = JsonlSink::new(Vec::new(), "t", 128);
        sink.emit(ProbeEvent::RcacheMiss { pc: 0x100 });
        sink.emit(retire(0x100, RetireKind::Alu));
        sink.emit(ProbeEvent::RcacheMiss { pc: 0x104 });
        sink.emit(retire(0x104, RetireKind::Load));
        sink.emit(ProbeEvent::RcacheHit { pc: 0x108, len: 8 });
        sink.emit(invoke());
        let (bytes, err) = sink.into_inner();
        assert!(err.is_none());
        let text = String::from_utf8(bytes).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        // header, retire_batch, rcache_hit, array_invoke, footer
        assert_eq!(lines.len(), 5, "{text}");
        let batch = json::parse(lines[1]).unwrap();
        assert_eq!(batch.get("type").unwrap().as_str(), Some("retire_batch"));
        assert_eq!(batch.get("count").unwrap().as_u64(), Some(2));
        assert_eq!(batch.get("rcache_misses").unwrap().as_u64(), Some(2));
        assert_eq!(batch.get("d_stall").unwrap().as_u64(), Some(4));
        assert_eq!(
            batch.get("kinds").unwrap().get("alu").unwrap().as_u64(),
            Some(1)
        );
        let footer = json::parse(lines[4]).unwrap();
        assert_eq!(footer.get("events").unwrap().as_u64(), Some(6));
    }

    #[test]
    fn every_line_is_valid_json() {
        let mut sink = JsonlSink::new(Vec::new(), "weird \"name\"\n", 0);
        sink.emit(ProbeEvent::TransBegin { pc: 4 });
        sink.emit(ProbeEvent::TransCommit {
            entry_pc: 4,
            instructions: 5,
            rows: 2,
            spec_blocks: 1,
            partial: true,
        });
        sink.emit(ProbeEvent::RcacheInsert {
            pc: 4,
            len: 5,
            evicted: Some(8),
        });
        sink.emit(ProbeEvent::RcacheEvict {
            pc: 8,
            len: 9,
            uses: 3,
        });
        sink.emit(ProbeEvent::SpecMispredict {
            region_pc: 4,
            region_len: 5,
            branch_pc: 16,
            penalty_cycles: 2,
        });
        sink.emit(ProbeEvent::RcacheFlush { pc: 4, len: 5 });
        let (bytes, err) = sink.into_inner();
        assert!(err.is_none());
        for line in String::from_utf8(bytes).unwrap().lines() {
            json::parse(line).unwrap_or_else(|e| panic!("{line}: {e}"));
        }
    }

    #[test]
    fn batch_cap_splits_long_runs() {
        let mut sink = JsonlSink::new(Vec::new(), "t", 0);
        for i in 0..(BATCH_CAP + 10) {
            sink.emit(retire(i as u32 * 4, RetireKind::Alu));
        }
        let (bytes, _) = sink.into_inner();
        let text = String::from_utf8(bytes).unwrap();
        let batches = text.lines().filter(|l| l.contains("retire_batch")).count();
        assert_eq!(batches, 2);
    }
}
