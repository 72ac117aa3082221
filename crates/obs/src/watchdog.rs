//! Online invariant checking over the probe stream.
//!
//! A [`Watchdog`] is a [`Probe`] that evaluates a small set of system
//! invariants *incrementally*, event by event, instead of waiting for a
//! post-hoc trace replay. The first violation is latched as a
//! [`Violation`] naming the invariant, the offending event, and its
//! position in the stream; everything after the trip is ignored so the
//! report stays precise.
//!
//! Invariants checked:
//!
//! * **`cycle-conservation`** — an invocation never claims more
//!   executed instructions than its configuration covers. The event
//!   stream's cycles are checked against the system's own count after a
//!   run, by `dim explain`'s conservation law.
//! * **`rcache-occupancy`** — the resident-configuration set implied by
//!   insert/evict/flush events never exceeds the cache's slot count,
//!   and evictions/flushes always name a resident entry (each
//!   displacing insert is followed by exactly one matching
//!   `rcache_evict`).
//! * **`rcache-hit-without-insert`** — a lookup hit names a PC that a
//!   prior insert (or a seeded warm-start entry, see
//!   [`Watchdog::seed_resident`]) made resident.

use crate::event::ProbeEvent;
use crate::probe::Probe;
use std::collections::HashSet;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

/// Hashes a PC with one multiply, in place of SipHash on a set probed
/// by every `rcache_hit`. A served program chooses its PCs, but the set
/// never holds more than the cache's slots plus the one insert that
/// trips the occupancy law, so even PCs that all collide cost at most
/// a scan of that many.
#[derive(Debug, Clone, Copy, Default)]
struct PcHasher(u64);

impl PcHasher {
    /// An odd constant with well-spread bits (from `rustc-hash`).
    const K: u64 = 0xf135_7aea_2e62_a9c5;
}

impl Hasher for PcHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 = self
                .0
                .wrapping_add(u64::from(byte))
                .wrapping_mul(PcHasher::K);
        }
    }

    fn write_u32(&mut self, pc: u32) {
        self.0 = self.0.wrapping_add(u64::from(pc)).wrapping_mul(PcHasher::K);
    }

    fn finish(&self) -> u64 {
        // The product's best-mixed bits are its high ones; the table
        // indexes by the low ones.
        self.0.rotate_left(26)
    }
}

/// A set of PCs hashed by [`PcHasher`].
type PcSet = HashSet<u32, BuildHasherDefault<PcHasher>>;

/// A latched invariant violation: which law broke, on which event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Stable name of the tripped invariant.
    pub invariant: &'static str,
    /// Human-readable specifics (PCs, counts, capacities).
    pub detail: String,
    /// The offending event.
    pub event: ProbeEvent,
    /// Zero-based position of the offending event in the probe stream.
    pub event_index: u64,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invariant `{}` tripped at event #{} ({}): {}",
            self.invariant,
            self.event_index,
            self.event.type_name(),
            self.detail
        )
    }
}

/// An incremental invariant checker over the probe stream.
#[derive(Debug, Clone)]
pub struct Watchdog {
    /// Reconfiguration-cache slot capacity the occupancy law checks
    /// against.
    capacity: u64,
    /// Entry PCs currently resident in the reconfiguration cache.
    resident: PcSet,
    /// Victim announced by a displacing insert, awaiting its
    /// `rcache_evict` record.
    pending_evict: Option<u32>,
    /// Events observed so far.
    seen: u64,
    violation: Option<Violation>,
}

impl Watchdog {
    /// A watchdog for a system whose reconfiguration cache holds
    /// `cache_slots` configurations.
    pub fn new(cache_slots: usize) -> Watchdog {
        Watchdog {
            capacity: cache_slots as u64,
            resident: PcSet::default(),
            pending_evict: None,
            seen: 0,
            violation: None,
        }
    }

    /// Marks `pc` resident without an insert event — required when the
    /// observed system warm-starts from an rcache snapshot, whose
    /// entries were inserted before probing began.
    pub fn seed_resident(&mut self, pc: u32) {
        self.resident.insert(pc);
    }

    /// Whether an invariant has tripped.
    pub fn tripped(&self) -> bool {
        self.violation.is_some()
    }

    /// The first violation, if any.
    pub fn violation(&self) -> Option<&Violation> {
        self.violation.as_ref()
    }

    /// Resident configurations implied by the event stream so far.
    pub fn resident_len(&self) -> usize {
        self.resident.len()
    }

    fn trip(&mut self, invariant: &'static str, detail: String, event: ProbeEvent) {
        if self.violation.is_none() {
            self.violation = Some(Violation {
                invariant,
                detail,
                event,
                event_index: self.seen - 1,
            });
        }
    }

    fn check(&mut self, event: ProbeEvent) {
        match event {
            ProbeEvent::RcacheHit { pc, .. } if !self.resident.contains(&pc) => {
                self.trip(
                    "rcache-hit-without-insert",
                    format!("hit for {pc:#010x}, which no insert made resident"),
                    event,
                );
            }
            ProbeEvent::RcacheInsert { pc, evicted, .. } => {
                if let Some(prev) = self.pending_evict {
                    self.trip(
                        "rcache-occupancy",
                        format!(
                            "insert of {pc:#010x} before the eviction of {prev:#010x} \
                             was recorded"
                        ),
                        event,
                    );
                    return;
                }
                if let Some(victim) = evicted {
                    if !self.resident.remove(&victim) {
                        self.trip(
                            "rcache-occupancy",
                            format!("insert of {pc:#010x} evicts non-resident {victim:#010x}"),
                            event,
                        );
                        return;
                    }
                    self.pending_evict = Some(victim);
                }
                self.resident.insert(pc);
                if self.resident.len() as u64 > self.capacity {
                    self.trip(
                        "rcache-occupancy",
                        format!(
                            "{} configurations resident but the cache holds {}",
                            self.resident.len(),
                            self.capacity
                        ),
                        event,
                    );
                }
            }
            ProbeEvent::RcacheEvict { pc, .. } => match self.pending_evict.take() {
                Some(victim) if victim == pc => {}
                Some(victim) => self.trip(
                    "rcache-occupancy",
                    format!(
                        "evict record names {pc:#010x} but the insert displaced {victim:#010x}"
                    ),
                    event,
                ),
                None => self.trip(
                    "rcache-occupancy",
                    format!("evict record for {pc:#010x} without a displacing insert"),
                    event,
                ),
            },
            ProbeEvent::RcacheFlush { pc, .. } if !self.resident.remove(&pc) => {
                self.trip(
                    "rcache-occupancy",
                    format!("flush of non-resident {pc:#010x}"),
                    event,
                );
            }
            ProbeEvent::ArrayInvoke(inv) if inv.executed > inv.covered => {
                self.trip(
                    "cycle-conservation",
                    format!(
                        "invocation at {:#010x} executed {} of {} covered instructions",
                        inv.entry_pc, inv.executed, inv.covered
                    ),
                    event,
                );
            }
            _ => {}
        }
    }
}

impl Probe for Watchdog {
    fn emit(&mut self, event: ProbeEvent) {
        if self.violation.is_some() {
            return;
        }
        self.seen += 1;
        self.check(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{ArrayInvoke, RetireKind};

    fn retire(cycles: u32) -> ProbeEvent {
        ProbeEvent::Retire {
            pc: 0x100,
            kind: RetireKind::Alu,
            base_cycles: cycles,
            i_stall: 0,
            d_stall: 0,
            ends_block: false,
        }
    }

    fn insert(pc: u32, evicted: Option<u32>) -> ProbeEvent {
        ProbeEvent::RcacheInsert {
            pc,
            len: 4,
            evicted,
        }
    }

    #[test]
    fn clean_stream_never_trips() {
        let mut dog = Watchdog::new(2);
        dog.emit(retire(3));
        dog.emit(insert(0x100, None));
        dog.emit(insert(0x200, None));
        dog.emit(ProbeEvent::RcacheHit { pc: 0x100, len: 4 });
        dog.emit(insert(0x300, Some(0x100)));
        dog.emit(ProbeEvent::RcacheEvict {
            pc: 0x100,
            len: 4,
            uses: 1,
        });
        dog.emit(ProbeEvent::RcacheFlush { pc: 0x200, len: 4 });
        assert!(!dog.tripped(), "{:?}", dog.violation());
        assert_eq!(dog.resident_len(), 1);
    }

    #[test]
    fn hit_without_insert_trips_and_latches() {
        let mut dog = Watchdog::new(4);
        dog.emit(insert(0x100, None));
        dog.emit(ProbeEvent::RcacheHit { pc: 0x999, len: 4 });
        dog.emit(ProbeEvent::RcacheHit { pc: 0x100, len: 4 }); // post-trip: ignored
        let v = dog.violation().expect("tripped");
        assert_eq!(v.invariant, "rcache-hit-without-insert");
        assert_eq!(v.event_index, 1);
        assert!(matches!(v.event, ProbeEvent::RcacheHit { pc: 0x999, .. }));
    }

    #[test]
    fn seeded_resident_pcs_hit_cleanly() {
        let mut dog = Watchdog::new(4);
        dog.seed_resident(0xabc);
        dog.emit(ProbeEvent::RcacheHit { pc: 0xabc, len: 4 });
        assert!(!dog.tripped());
    }

    #[test]
    fn occupancy_over_capacity_trips() {
        let mut dog = Watchdog::new(1);
        dog.emit(insert(0x100, None));
        dog.emit(insert(0x200, None));
        let v = dog.violation().expect("tripped");
        assert_eq!(v.invariant, "rcache-occupancy");
    }

    #[test]
    fn unmatched_evict_record_trips() {
        let mut dog = Watchdog::new(4);
        dog.emit(ProbeEvent::RcacheEvict {
            pc: 0x100,
            len: 4,
            uses: 0,
        });
        assert_eq!(dog.violation().unwrap().invariant, "rcache-occupancy");
    }

    #[test]
    fn flush_of_non_resident_trips() {
        let mut dog = Watchdog::new(4);
        dog.emit(ProbeEvent::RcacheFlush { pc: 0x500, len: 2 });
        assert_eq!(dog.violation().unwrap().invariant, "rcache-occupancy");
    }

    #[test]
    fn over_executed_invocation_trips_conservation() {
        let mut dog = Watchdog::new(4);
        dog.emit(ProbeEvent::ArrayInvoke(ArrayInvoke {
            entry_pc: 0x100,
            exit_pc: 0x120,
            covered: 4,
            executed: 9,
            loads: 0,
            stores: 0,
            rows: 1,
            spec_depth: 0,
            misspeculated: false,
            flushed: false,
            stall_cycles: 0,
            exec_cycles: 4,
            tail_cycles: 0,
        }));
        assert_eq!(dog.violation().unwrap().invariant, "cycle-conservation");
    }

    #[test]
    fn violation_display_names_everything() {
        let mut dog = Watchdog::new(4);
        dog.emit(ProbeEvent::RcacheHit { pc: 0x40, len: 1 });
        let text = dog.violation().unwrap().to_string();
        assert!(text.contains("rcache-hit-without-insert"), "{text}");
        assert!(text.contains("event #0"), "{text}");
        assert!(text.contains("rcache_hit"), "{text}");
    }
}
