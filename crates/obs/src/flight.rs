//! The flight recorder and its watchdog-armed guard.
//!
//! A [`FlightRecorder`] is a fixed-capacity, allocation-free ring
//! buffer of [`ProbeEvent`]s. In steady state it remembers the last
//! `capacity` events and counts what it forgot, per event kind, so a
//! post-mortem knows both *what led up to* a failure and *how much*
//! history the window could not hold. [`FlightRecorder::dump`] replays
//! the retained window through the ordinary [`JsonlSink`], producing a
//! schema-v3 trace that the `dim trace` validator accepts unchanged.
//!
//! [`FlightGuard`] pairs a recorder with a [`Watchdog`]: the moment an
//! invariant trips, the guard snapshots a dump — the black box is
//! written while the wreckage is still warm, even if the simulation
//! then carries on or panics.

use crate::event::{ProbeEvent, EVENT_KINDS, EVENT_KIND_NAMES};
use crate::jsonl::JsonlSink;
use crate::probe::Probe;
use crate::watchdog::{Violation, Watchdog};

/// Fixed-capacity ring buffer of probe events with per-kind drop
/// accounting.
///
/// All storage is reserved at construction; `emit` never allocates, so
/// the recorder can run always-on at near-[`NullProbe`] cost.
///
/// [`NullProbe`]: crate::NullProbe
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    /// Event storage; grows by push until `capacity` (pre-reserved),
    /// then becomes a pure ring.
    ring: Vec<ProbeEvent>,
    /// Index of the oldest retained event once the ring is full.
    start: usize,
    /// Ring capacity (≥ 1).
    capacity: usize,
    /// Overwritten (forgotten) events, indexed by
    /// [`ProbeEvent::type_index`].
    dropped: [u64; EVENT_KINDS],
}

impl FlightRecorder {
    /// A recorder retaining the last `capacity` events (clamped to at
    /// least 1).
    pub fn new(capacity: usize) -> FlightRecorder {
        let capacity = capacity.max(1);
        FlightRecorder {
            ring: Vec::with_capacity(capacity),
            start: 0,
            capacity,
            dropped: [0; EVENT_KINDS],
        }
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Events ever emitted (retained + dropped).
    pub fn total(&self) -> u64 {
        self.ring.len() as u64 + self.total_dropped()
    }

    /// Events currently retained.
    pub fn retained(&self) -> usize {
        self.ring.len()
    }

    /// Per-kind counts of events the ring forgot, indexed by
    /// [`ProbeEvent::type_index`].
    pub fn dropped(&self) -> &[u64; EVENT_KINDS] {
        &self.dropped
    }

    /// Total events the ring forgot.
    pub fn total_dropped(&self) -> u64 {
        self.dropped.iter().sum()
    }

    /// Retained events, oldest first.
    pub fn events(&self) -> Vec<ProbeEvent> {
        let len = self.ring.len();
        (0..len)
            .map(|i| self.ring[(self.start + i) % len.max(1)])
            .collect()
    }

    /// Renders the retained window as a schema-v3 JSONL trace.
    ///
    /// The header carries the standard fields plus flight metadata
    /// (`flight_capacity`, `flight_total`, `flight_trimmed`, and a
    /// per-kind `dropped` object), so `dim trace` can report how much
    /// history the window lost. Events are replayed through the
    /// ordinary [`JsonlSink`], so batching, footer accounting, and the
    /// validator's pairing laws all hold.
    ///
    /// Truncation can behead an emission group — an `rcache_evict`
    /// whose displacing insert was forgotten, or a flush/invoke whose
    /// leading records were. Such orphans only ever appear at the very
    /// front of the window (retention is a contiguous suffix), so they
    /// are trimmed here and counted in `flight_trimmed`.
    pub fn dump(&self, workload: &str, bits_per_config: u64) -> String {
        let mut events = self.events();
        let mut trimmed = 0u64;
        while let Some(first) = events.first() {
            let orphan = match first {
                // Its displacing insert fell off the ring.
                ProbeEvent::RcacheEvict { .. } => true,
                // Its mispredict record fell off the ring.
                ProbeEvent::RcacheFlush { .. } => true,
                // Its fabric record (and for misspeculated runs the
                // mispredict and possibly flush too) fell off the ring.
                ProbeEvent::ArrayInvoke(_) => true,
                // A fabric record with its invoke still in the window is
                // whole — unless that invoke misspeculated or flushed, in
                // which case the mispredict/flush records that preceded
                // the fabric fell off and the whole pair must go.
                ProbeEvent::Fabric(_) => matches!(
                    events.get(1),
                    Some(ProbeEvent::ArrayInvoke(inv)) if inv.misspeculated || inv.flushed
                ),
                _ => false,
            };
            if !orphan {
                break;
            }
            events.remove(0);
            trimmed += 1;
        }

        let mut dropped_obj = String::from("{");
        let mut first_field = true;
        for (i, &count) in self.dropped.iter().enumerate() {
            if count == 0 {
                continue;
            }
            if !first_field {
                dropped_obj.push(',');
            }
            first_field = false;
            dropped_obj.push_str(&format!("\"{}\":{count}", EVENT_KIND_NAMES[i]));
        }
        dropped_obj.push('}');

        let extra = [
            ("flight_capacity", format!("{}", self.capacity)),
            ("flight_total", format!("{}", self.total())),
            ("flight_trimmed", format!("{trimmed}")),
            ("dropped", dropped_obj),
        ];
        let mut sink = JsonlSink::with_header_extra(Vec::new(), workload, bits_per_config, &extra);
        for event in events {
            sink.emit(event);
        }
        let (bytes, error) = sink.into_inner();
        debug_assert!(error.is_none(), "writing to a Vec cannot fail");
        String::from_utf8(bytes).expect("JSONL output is UTF-8")
    }
}

impl Probe for FlightRecorder {
    #[inline]
    fn emit(&mut self, event: ProbeEvent) {
        if self.ring.len() < self.capacity {
            self.ring.push(event);
            return;
        }
        let slot = &mut self.ring[self.start];
        self.dropped[slot.type_index()] += 1;
        *slot = event;
        self.start += 1;
        if self.start == self.capacity {
            self.start = 0;
        }
    }
}

/// A flight recorder armed with an online [`Watchdog`].
///
/// Every event feeds the recorder first, then the watchdog; at the
/// first invariant trip the guard captures a dump of the window — which
/// necessarily ends with the offending event — before anything else can
/// disturb it.
#[derive(Debug, Clone)]
pub struct FlightGuard {
    recorder: FlightRecorder,
    watchdog: Watchdog,
    workload: String,
    bits_per_config: u64,
    trip_dump: Option<String>,
}

impl FlightGuard {
    /// A guard for `workload` with a `capacity`-event window and a
    /// watchdog sized to `cache_slots` reconfiguration-cache entries.
    /// `bits_per_config` stamps the dump header, like any trace.
    pub fn new(
        workload: &str,
        capacity: usize,
        cache_slots: usize,
        bits_per_config: u64,
    ) -> FlightGuard {
        FlightGuard {
            recorder: FlightRecorder::new(capacity),
            watchdog: Watchdog::new(cache_slots),
            workload: workload.to_string(),
            bits_per_config,
            trip_dump: None,
        }
    }

    /// The underlying recorder.
    pub fn recorder(&self) -> &FlightRecorder {
        &self.recorder
    }

    /// The underlying watchdog (e.g. to [`seed_resident`] warm-start
    /// entries).
    ///
    /// [`seed_resident`]: Watchdog::seed_resident
    pub fn watchdog_mut(&mut self) -> &mut Watchdog {
        &mut self.watchdog
    }

    /// The first invariant violation, if any.
    pub fn violation(&self) -> Option<&Violation> {
        self.watchdog.violation()
    }

    /// The dump captured at the moment of the first trip.
    pub fn trip_dump(&self) -> Option<&str> {
        self.trip_dump.as_deref()
    }

    /// A dump of the window as retained right now (trip or not).
    pub fn dump(&self) -> String {
        self.recorder.dump(&self.workload, self.bits_per_config)
    }
}

impl Probe for FlightGuard {
    #[inline]
    fn emit(&mut self, event: ProbeEvent) {
        self.recorder.emit(event);
        if self.trip_dump.is_some() {
            return;
        }
        self.watchdog.emit(event);
        if self.watchdog.tripped() {
            self.trip_dump = Some(self.recorder.dump(&self.workload, self.bits_per_config));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::RetireKind;
    use crate::replay::read_trace;

    fn retire(pc: u32) -> ProbeEvent {
        ProbeEvent::Retire {
            pc,
            kind: RetireKind::Alu,
            base_cycles: 1,
            i_stall: 0,
            d_stall: 0,
            ends_block: false,
        }
    }

    #[test]
    fn retains_everything_below_capacity() {
        let mut rec = FlightRecorder::new(8);
        for pc in 0..5u32 {
            rec.emit(retire(pc * 4));
        }
        assert_eq!(rec.total(), 5);
        assert_eq!(rec.retained(), 5);
        assert_eq!(rec.total_dropped(), 0);
        let events = rec.events();
        assert!(matches!(events[0], ProbeEvent::Retire { pc: 0, .. }));
        assert!(matches!(events[4], ProbeEvent::Retire { pc: 16, .. }));
    }

    #[test]
    fn wraps_keeping_the_newest_window() {
        let mut rec = FlightRecorder::new(3);
        for pc in 0..10u32 {
            rec.emit(retire(pc));
        }
        assert_eq!(rec.total(), 10);
        assert_eq!(rec.retained(), 3);
        assert_eq!(rec.total_dropped(), 7);
        assert_eq!(rec.dropped()[0], 7); // all drops were retires
        let pcs: Vec<u32> = rec
            .events()
            .iter()
            .map(|e| match e {
                ProbeEvent::Retire { pc, .. } => *pc,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(pcs, vec![7, 8, 9]);
    }

    #[test]
    fn zero_capacity_clamps_to_one() {
        let mut rec = FlightRecorder::new(0);
        rec.emit(retire(0));
        rec.emit(retire(4));
        assert_eq!(rec.capacity(), 1);
        assert_eq!(rec.retained(), 1);
        assert_eq!(rec.total_dropped(), 1);
    }

    #[test]
    fn dump_is_a_valid_trace_with_flight_header() {
        let mut rec = FlightRecorder::new(4);
        for pc in 0..9u32 {
            rec.emit(retire(0x100 + pc * 4));
        }
        rec.emit(ProbeEvent::RcacheMiss { pc: 0x200 });
        let dump = rec.dump("unit", 256);
        let trace = read_trace(&dump).expect("dump validates");
        assert_eq!(trace.header.workload, "unit");
        assert!(dump.contains("\"flight_capacity\":4"), "{dump}");
        assert!(dump.contains("\"flight_total\":10"), "{dump}");
        assert!(dump.contains("\"dropped\":{\"retire\":6}"), "{dump}");
    }

    #[test]
    fn dump_trims_front_orphans() {
        // A full mispredict → flush → fabric → invoke group, then a
        // retire to push the mispredict and flush off a small ring. The
        // surviving fabric/invoke pair is orphaned (its flush is gone)
        // and must be trimmed too.
        let group = [
            ProbeEvent::SpecMispredict {
                region_pc: 0x100,
                region_len: 4,
                branch_pc: 0x108,
                penalty_cycles: 2,
            },
            ProbeEvent::RcacheFlush { pc: 0x100, len: 4 },
            ProbeEvent::Fabric(crate::event::FabricUtil {
                entry_pc: 0x100,
                rows: 1,
                exec_thirds: 3,
                capacity_thirds: 33,
                alu_busy_thirds: 2,
                mult_busy_thirds: 0,
                ldst_busy_thirds: 0,
                issued_ops: 2,
                squashed_ops: 2,
                residual_cycles: 3,
                writeback_writes: 1,
                writeback_slots: 16,
            }),
            ProbeEvent::ArrayInvoke(crate::event::ArrayInvoke {
                entry_pc: 0x100,
                exit_pc: 0x120,
                covered: 4,
                executed: 2,
                loads: 0,
                stores: 0,
                rows: 1,
                spec_depth: 1,
                misspeculated: true,
                flushed: true,
                stall_cycles: 1,
                exec_cycles: 4,
                tail_cycles: 0,
            }),
        ];
        let mut rec = FlightRecorder::new(3);
        for e in group {
            rec.emit(e);
        }
        // Push the mispredict and flush off: window = [fabric, invoke,
        // retire].
        rec.emit(retire(0x200));
        let dump = rec.dump("unit", 256);
        let trace = read_trace(&dump).expect("trimmed dump validates");
        assert!(dump.contains("\"flight_trimmed\":2"), "{dump}");
        assert_eq!(trace.summary.array_invocations, 0);
    }

    #[test]
    fn watchdog_drill_trips_and_captures_offending_event() {
        // Satellite 5: synthesize the violation the online watchdog
        // exists to catch — an rcache hit for a PC no insert (and no
        // warm-start seed) ever made resident — by driving the guard
        // through the probe interface directly, exactly as an
        // instrumented System would.
        let mut guard = FlightGuard::new("drill", 16, 4, 256);
        guard.emit(retire(0x100));
        guard.emit(ProbeEvent::RcacheInsert {
            pc: 0x100,
            len: 4,
            evicted: None,
        });
        guard.emit(ProbeEvent::RcacheHit { pc: 0xdead, len: 4 });
        guard.emit(retire(0x104)); // post-trip traffic must not disturb the dump

        let violation = guard.violation().expect("watchdog tripped");
        assert_eq!(violation.invariant, "rcache-hit-without-insert");
        assert!(
            violation.detail.contains("0x0000dead"),
            "{}",
            violation.detail
        );
        assert!(matches!(
            violation.event,
            ProbeEvent::RcacheHit { pc: 0xdead, .. }
        ));

        let dump = guard.trip_dump().expect("auto-dump captured at trip");
        let trace = read_trace(dump).expect("auto-dump validates");
        // The offending event is the last record before the footer.
        let hit_line = dump
            .lines()
            .rev()
            .find(|l| l.contains("\"type\":\"rcache_hit\""))
            .expect("offending hit present in dump");
        assert!(hit_line.contains("\"pc\":57005"), "{hit_line}"); // 0xdead
        assert_eq!(trace.header.workload, "drill");
    }

    #[test]
    fn guard_without_violation_reports_none() {
        let mut guard = FlightGuard::new("quiet", 8, 4, 256);
        guard.emit(retire(0x100));
        guard.emit(ProbeEvent::RcacheMiss { pc: 0x100 });
        assert!(guard.violation().is_none());
        assert!(guard.trip_dump().is_none());
        let dump = guard.dump();
        assert!(read_trace(&dump).is_ok());
    }

    #[test]
    fn seeded_guard_accepts_warm_start_hits() {
        let mut guard = FlightGuard::new("warm", 8, 4, 256);
        guard.watchdog_mut().seed_resident(0x100);
        guard.emit(ProbeEvent::RcacheHit { pc: 0x100, len: 4 });
        assert!(guard.violation().is_none());
    }
}
