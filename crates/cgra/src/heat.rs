//! Fabric utilization accounting ("heat").
//!
//! [`FabricHeat`] is an allocation-free-in-steady-state accumulator of
//! per-row and per-unit-class activity across array invocations.
//! [`FabricHeat::record`] derives one invocation's [`FabricSample`] from
//! the same row state and timing queries the cycle model charges for,
//! so the accounting reconciles *exactly* with `exec_cycles`. The
//! coupled system records each (configuration, stop segment) once, into
//! a fresh accumulator frozen with the configuration, and adds it per
//! hit: its run loop counts the hits and folds each count in with
//! [`FabricHeat::merge_times`] when a tally slot is reused and when the
//! run call returns or unwinds, so the run's accumulator is exact
//! between calls.
//!
//! **Conservation law.** For every invocation executed to `upto_depth`:
//!
//! * `sample.exec_cycles == config.exec_cycles(timing, upto_depth)` —
//!   the per-row thirds summed here round to the cycles the system
//!   charges, so across a run
//!   `heat.exec_cycles + heat.residual_cycles` equals the system's
//!   array-execution attribution exactly.
//! * `busy_thirds[c] <= capacity_thirds[c]` for every unit class on
//!   finite shapes: a row's occupied units can never exceed the row's
//!   physical units, and both sides integrate over the same row
//!   windows.
//!
//! Row-window model: row `r` of a traversal contributes a window of
//! `timing.row_thirds(kind(r))` thirds (zero for empty rows). A unit in
//! row `r` is *busy* for that window when occupied, and *available* for
//! that window always; units outside the traversed span contribute
//! nothing. Fabric utilization is `Σ busy / Σ capacity` over all
//! classes.

use dim_mips::FuClass;
use dim_obs::FabricUtil;

use crate::config::Configuration;
use crate::timing::ArrayTiming;

/// Number of unit classes tracked ([`UNIT_CLASS_NAMES`]).
pub const UNIT_CLASSES: usize = 3;

/// Dense names for the tracked unit classes, indexed by
/// [`unit_class_index`].
pub const UNIT_CLASS_NAMES: [&str; UNIT_CLASSES] = ["alu", "mult", "ldst"];

/// Rows tracked individually; activity in deeper rows (no Table 1 shape
/// exceeds 150) folds into one overflow bucket so the accumulator stays
/// bounded.
pub const FABRIC_TRACKED_ROWS: usize = 256;

/// Dense index of a functional-unit class, `None` for
/// [`FuClass::Unsupported`] (which never appears in a placed op).
pub fn unit_class_index(class: FuClass) -> Option<usize> {
    match class {
        FuClass::Alu | FuClass::Branch => Some(0),
        FuClass::Multiplier => Some(1),
        FuClass::LoadStore => Some(2),
        FuClass::Unsupported => None,
    }
}

/// Accumulated activity of one fabric row across invocations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RowHeat {
    /// Invocations whose traversed span included this row.
    pub traversals: u64,
    /// Σ row-window thirds over those traversals (0 while the row was
    /// empty).
    pub active_thirds: u64,
    /// Σ occupied-unit × window thirds per class.
    pub busy_thirds: [u64; UNIT_CLASSES],
    /// Operations issued (confirmed, depth ≤ executed depth) per class.
    pub issued: [u64; UNIT_CLASSES],
    /// Operations configured but squashed by misspeculation.
    pub squashed: u64,
}

/// `acc + times × value`, saturating like every heat counter.
fn add_times(acc: &mut u64, value: u64, times: u64) {
    *acc = acc.saturating_add(value.saturating_mul(times));
}

impl RowHeat {
    fn merge_times(&mut self, other: &RowHeat, times: u64) {
        add_times(&mut self.traversals, other.traversals, times);
        add_times(&mut self.active_thirds, other.active_thirds, times);
        for c in 0..UNIT_CLASSES {
            add_times(&mut self.busy_thirds[c], other.busy_thirds[c], times);
            add_times(&mut self.issued[c], other.issued[c], times);
        }
        add_times(&mut self.squashed, other.squashed, times);
    }
}

/// One invocation's worth of fabric activity, as recorded into a
/// [`FabricHeat`] — also the payload of the schema-v4 `fabric` trace
/// record (`dim_obs::FabricUtil`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FabricSample {
    /// Rows traversed (`last_row + 1`; 0 when nothing executed).
    pub rows: u32,
    /// Σ row-window thirds over the traversed span.
    pub exec_thirds: u64,
    /// `exec_thirds` rounded up to cycles — equals
    /// `Configuration::exec_cycles` for the same depth by construction.
    pub exec_cycles: u64,
    /// Σ physical-unit × window thirds over the traversed span, all
    /// classes; 0 on infinite shapes (utilization undefined there).
    pub capacity_thirds: u64,
    /// Σ occupied-unit × window thirds per class.
    pub busy_thirds: [u64; UNIT_CLASSES],
    /// Operations confirmed (depth ≤ executed depth).
    pub issued_ops: u32,
    /// Operations configured but squashed by misspeculation.
    pub squashed_ops: u32,
    /// Array-execution cycles charged outside the row model this
    /// invocation: memory stalls + misspeculation penalty.
    pub residual_cycles: u64,
    /// Write-backs performed (depth ≤ executed depth).
    pub writeback_writes: u32,
    /// Write-back port-slots available: `rf_write_ports × (exec + tail)`
    /// cycles. `writes ≤ slots` always, so saturation stays in `[0, 1]`.
    pub writeback_slots: u64,
}

impl FabricSample {
    /// The sample as the `fabric` trace record of the invocation of the
    /// configuration at `entry_pc`.
    pub fn to_util(&self, entry_pc: u32) -> FabricUtil {
        FabricUtil {
            entry_pc,
            rows: self.rows,
            exec_thirds: self.exec_thirds as u32,
            capacity_thirds: self.capacity_thirds as u32,
            alu_busy_thirds: self.busy_thirds[0] as u32,
            mult_busy_thirds: self.busy_thirds[1] as u32,
            ldst_busy_thirds: self.busy_thirds[2] as u32,
            issued_ops: self.issued_ops,
            squashed_ops: self.squashed_ops,
            residual_cycles: self.residual_cycles as u32,
            writeback_writes: self.writeback_writes,
            writeback_slots: self.writeback_slots as u32,
        }
    }
}

/// Run-level fabric utilization accumulator, owned by the coupled
/// system next to `DimStats`. All counters saturate; `merge` combines
/// shards the same way `DimStats::merge` does for sweep aggregation.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FabricHeat {
    rows: Vec<RowHeat>,
    overflow: RowHeat,
    /// Deepest row index ever traversed (for display; may exceed the
    /// tracked range).
    pub max_row: u64,
    /// Array invocations recorded.
    pub invocations: u64,
    /// Σ per-invocation `exec_thirds`.
    pub exec_thirds: u64,
    /// Σ per-invocation `exec_cycles` (post-rounding, so it reconciles
    /// exactly with the system's array-exec attribution minus
    /// `residual_cycles`).
    pub exec_cycles: u64,
    /// Σ per-invocation residual (memory stall + misspeculation
    /// penalty) cycles.
    pub residual_cycles: u64,
    /// Σ busy unit-thirds per class.
    pub busy_thirds: [u64; UNIT_CLASSES],
    /// Σ available unit-thirds per class (0 on infinite shapes).
    pub capacity_thirds: [u64; UNIT_CLASSES],
    /// Operations confirmed per class.
    pub issued_ops: [u64; UNIT_CLASSES],
    /// Operations squashed by misspeculation.
    pub squashed_ops: u64,
    /// Write-backs performed.
    pub writeback_writes: u64,
    /// Write-back port-slots available.
    pub writeback_slots: u64,
}

impl FabricHeat {
    /// Fresh, empty accumulator.
    pub fn new() -> FabricHeat {
        FabricHeat::default()
    }

    /// Tracked per-row heat, index = row; activity beyond
    /// [`FABRIC_TRACKED_ROWS`] is in [`overflow`](FabricHeat::overflow_row).
    pub fn rows(&self) -> &[RowHeat] {
        &self.rows
    }

    /// Folded activity of rows ≥ [`FABRIC_TRACKED_ROWS`].
    pub fn overflow_row(&self) -> &RowHeat {
        &self.overflow
    }

    fn row_mut(&mut self, row: usize) -> &mut RowHeat {
        if row < FABRIC_TRACKED_ROWS {
            if row >= self.rows.len() {
                self.rows.resize(row + 1, RowHeat::default());
            }
            &mut self.rows[row]
        } else {
            &mut self.overflow
        }
    }

    /// Records one array invocation executed to `upto_depth`, deriving
    /// occupancy from the same placement state the cycle model charges
    /// for. `residual_cycles` is the invocation's array-exec time not
    /// produced by the row model (memory stalls + misspeculation
    /// penalty).
    pub fn record(
        &mut self,
        config: &Configuration,
        timing: &ArrayTiming,
        upto_depth: u8,
        residual_cycles: u64,
    ) -> FabricSample {
        let mut sample = FabricSample {
            residual_cycles,
            ..FabricSample::default()
        };
        let shape = *config.shape();
        let finite = !shape.is_infinite();
        let per_row_capacity: [u64; UNIT_CLASSES] = if finite {
            [
                shape.units_per_row(FuClass::Alu) as u64,
                shape.units_per_row(FuClass::Multiplier) as u64,
                shape.units_per_row(FuClass::LoadStore) as u64,
            ]
        } else {
            [0; UNIT_CLASSES]
        };

        if let Some(last_row) = config.last_row_at_depth(upto_depth) {
            sample.rows = (last_row + 1) as u32;
            for occ in config.row_occupancy().take(last_row + 1) {
                let window = occ.kind.map_or(0, |k| timing.row_thirds(k));
                sample.exec_thirds += window;
                let busy = [occ.alus as u64, occ.mults as u64, occ.ldsts as u64];
                for c in 0..UNIT_CLASSES {
                    sample.busy_thirds[c] += busy[c] * window;
                    sample.capacity_thirds += per_row_capacity[c] * window;
                }
                let heat = self.row_mut(occ.row as usize);
                heat.traversals = heat.traversals.saturating_add(1);
                heat.active_thirds = heat.active_thirds.saturating_add(window);
                for (c, &b) in busy.iter().enumerate() {
                    heat.busy_thirds[c] = heat.busy_thirds[c].saturating_add(b * window);
                }
            }
            self.max_row = self.max_row.max(last_row as u64);
        }
        sample.exec_cycles = timing.thirds_to_cycles(sample.exec_thirds);

        for op in config.ops() {
            let Some(c) = unit_class_index(op.class) else {
                continue;
            };
            let heat = self.row_mut(op.row as usize);
            if op.depth <= upto_depth {
                sample.issued_ops += 1;
                heat.issued[c] = heat.issued[c].saturating_add(1);
                self.issued_ops[c] = self.issued_ops[c].saturating_add(1);
            } else {
                sample.squashed_ops += 1;
                heat.squashed = heat.squashed.saturating_add(1);
            }
        }

        sample.writeback_writes = config
            .writebacks()
            .filter(|&(_, d)| d <= upto_depth)
            .count() as u32;
        let tail = config.writeback_tail_cycles(timing, upto_depth);
        sample.writeback_slots = (shape.rf_write_ports.max(1) as u64) * (sample.exec_cycles + tail);

        self.invocations = self.invocations.saturating_add(1);
        self.exec_thirds = self.exec_thirds.saturating_add(sample.exec_thirds);
        self.exec_cycles = self.exec_cycles.saturating_add(sample.exec_cycles);
        self.residual_cycles = self.residual_cycles.saturating_add(residual_cycles);
        for (c, &cap) in per_row_capacity.iter().enumerate() {
            self.busy_thirds[c] = self.busy_thirds[c].saturating_add(sample.busy_thirds[c]);
            self.capacity_thirds[c] =
                self.capacity_thirds[c].saturating_add(cap * sample.exec_thirds);
        }
        self.squashed_ops = self.squashed_ops.saturating_add(sample.squashed_ops as u64);
        self.writeback_writes = self
            .writeback_writes
            .saturating_add(sample.writeback_writes as u64);
        self.writeback_slots = self.writeback_slots.saturating_add(sample.writeback_slots);
        sample
    }

    /// Folds `other` into `self` (sweep shard aggregation). Saturating,
    /// like `DimStats::merge`.
    pub fn merge(&mut self, other: &FabricHeat) {
        self.merge_times(other, 1);
    }

    /// Folds `other` into `self` `times` times: equal to `times` calls of
    /// [`merge`](FabricHeat::merge), each counter gaining `times ×` its
    /// `other` value (saturating both ways). The run loop folds its
    /// per-(configuration, stop segment) hit tally this way.
    pub fn merge_times(&mut self, other: &FabricHeat, times: u64) {
        if times == 0 {
            return;
        }
        for (row, heat) in other.rows.iter().enumerate() {
            self.row_mut(row).merge_times(heat, times);
        }
        self.overflow.merge_times(&other.overflow, times);
        self.max_row = self.max_row.max(other.max_row);
        add_times(&mut self.invocations, other.invocations, times);
        add_times(&mut self.exec_thirds, other.exec_thirds, times);
        add_times(&mut self.exec_cycles, other.exec_cycles, times);
        add_times(&mut self.residual_cycles, other.residual_cycles, times);
        for c in 0..UNIT_CLASSES {
            add_times(&mut self.busy_thirds[c], other.busy_thirds[c], times);
            add_times(
                &mut self.capacity_thirds[c],
                other.capacity_thirds[c],
                times,
            );
            add_times(&mut self.issued_ops[c], other.issued_ops[c], times);
        }
        add_times(&mut self.squashed_ops, other.squashed_ops, times);
        add_times(&mut self.writeback_writes, other.writeback_writes, times);
        add_times(&mut self.writeback_slots, other.writeback_slots, times);
    }

    /// Total busy unit-thirds across classes.
    pub fn total_busy_thirds(&self) -> u64 {
        self.busy_thirds.iter().sum()
    }

    /// Total available unit-thirds across classes (0 when every
    /// invocation ran on an infinite shape).
    pub fn total_capacity_thirds(&self) -> u64 {
        self.capacity_thirds.iter().sum()
    }

    /// Whole-fabric utilization in `[0, 1]`; `None` when capacity is
    /// unknown (infinite shape or nothing executed).
    pub fn fabric_util(&self) -> Option<f64> {
        ratio(self.total_busy_thirds(), self.total_capacity_thirds())
    }

    /// Per-class utilization in `[0, 1]`; `None` as for
    /// [`fabric_util`](FabricHeat::fabric_util).
    pub fn class_util(&self, class: usize) -> Option<f64> {
        ratio(self.busy_thirds[class], self.capacity_thirds[class])
    }

    /// Fraction of write-back port-slots actually used, in `[0, 1]`;
    /// `None` before any invocation.
    pub fn writeback_saturation(&self) -> Option<f64> {
        ratio(self.writeback_writes, self.writeback_slots)
    }
}

fn ratio(num: u64, den: u64) -> Option<f64> {
    if den == 0 {
        None
    } else {
        Some(num as f64 / den as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shape::ArrayShape;
    use dim_mips::{AluOp, Instruction, Reg};

    fn alu_inst() -> Instruction {
        Instruction::Alu {
            op: AluOp::Addu,
            rd: Reg::T0,
            rs: Reg::T0,
            rt: Reg::A1,
        }
    }

    fn sample_config(shape: ArrayShape) -> Configuration {
        let mut c = Configuration::new(0x100, shape);
        // Three dependent ALU ops forced into distinct rows via min_row.
        for i in 0..3u32 {
            c.place(0x100 + 4 * i, alu_inst(), 0, i as usize).unwrap();
        }
        c.finish_segment(0, None, 0x10c);
        c
    }

    #[test]
    fn record_matches_exec_cycles_and_caps_busy() {
        let timing = ArrayTiming::default();
        let shape = ArrayShape::config1();
        let c = sample_config(shape);
        let mut heat = FabricHeat::new();
        let sample = heat.record(&c, &timing, 0, 0);
        assert_eq!(sample.exec_cycles, c.exec_cycles(&timing, 0));
        assert_eq!(sample.rows, 3);
        assert_eq!(sample.issued_ops, 3);
        assert_eq!(sample.squashed_ops, 0);
        // 3 rows × 1 third each, one ALU busy per row.
        assert_eq!(sample.exec_thirds, 3);
        assert_eq!(sample.busy_thirds, [3, 0, 0]);
        for c in 0..UNIT_CLASSES {
            assert!(heat.busy_thirds[c] <= heat.capacity_thirds[c]);
        }
        assert_eq!(heat.exec_cycles + heat.residual_cycles, sample.exec_cycles);
        assert_eq!(sample.writeback_writes, 1);
        assert!(u64::from(sample.writeback_writes) <= sample.writeback_slots);
        assert_eq!(heat.rows().len(), 3);
        assert_eq!(heat.rows()[0].traversals, 1);
        assert_eq!(heat.rows()[0].issued, [1, 0, 0]);
    }

    #[test]
    fn infinite_shape_has_no_capacity() {
        let timing = ArrayTiming::default();
        let c = sample_config(ArrayShape::infinite());
        let mut heat = FabricHeat::new();
        let sample = heat.record(&c, &timing, 0, 0);
        assert_eq!(sample.capacity_thirds, 0);
        assert_eq!(heat.fabric_util(), None);
        assert!(sample.exec_cycles > 0);
    }

    #[test]
    fn merge_matches_sequential_record() {
        let timing = ArrayTiming::default();
        let c = sample_config(ArrayShape::config1());
        let mut a = FabricHeat::new();
        a.record(&c, &timing, 0, 2);
        a.record(&c, &timing, 0, 0);
        let mut b1 = FabricHeat::new();
        b1.record(&c, &timing, 0, 2);
        let mut b2 = FabricHeat::new();
        b2.record(&c, &timing, 0, 0);
        b1.merge(&b2);
        assert_eq!(a, b1);
    }

    #[test]
    fn merge_times_equals_repeated_merge() {
        let timing = ArrayTiming::default();
        let c = sample_config(ArrayShape::config1());
        let mut one = FabricHeat::new();
        one.record(&c, &timing, 0, 3);
        for times in [0u64, 1, 2, 7] {
            let mut base = FabricHeat::new();
            base.record(&c, &timing, 0, 1);
            let mut folded = base.clone();
            folded.merge_times(&one, times);
            let mut repeated = base;
            for _ in 0..times {
                repeated.merge(&one);
            }
            assert_eq!(folded, repeated, "times = {times}");
        }
        // Zero times leaves even an empty accumulator untouched: no rows
        // appear and `max_row` stays put.
        let mut empty = FabricHeat::new();
        empty.merge_times(&one, 0);
        assert_eq!(empty, FabricHeat::new());
    }

    #[test]
    fn merge_times_saturates_like_repeated_merge() {
        let timing = ArrayTiming::default();
        let c = sample_config(ArrayShape::config1());
        let mut one = FabricHeat::new();
        one.record(&c, &timing, 0, 0);
        one.residual_cycles = u64::MAX / 2;
        one.row_mut(1).active_thirds = u64::MAX / 3;
        let mut folded = FabricHeat::new();
        folded.residual_cycles = 5;
        let mut repeated = folded.clone();
        folded.merge_times(&one, 3);
        for _ in 0..3 {
            repeated.merge(&one);
        }
        assert_eq!(folded, repeated);
        assert_eq!(folded.residual_cycles, u64::MAX);
        assert_eq!(folded.rows()[1].active_thirds, u64::MAX);
        // A multiplier past u64 saturates too.
        let mut huge = FabricHeat::new();
        huge.merge_times(&one, u64::MAX);
        assert_eq!(huge.invocations, u64::MAX);
        assert_eq!(huge.max_row, one.max_row);
    }

    #[test]
    fn overflow_bucket_catches_deep_rows() {
        let mut heat = FabricHeat::new();
        heat.row_mut(FABRIC_TRACKED_ROWS + 5).traversals = 7;
        assert_eq!(heat.overflow_row().traversals, 7);
        assert!(heat.rows().len() <= FABRIC_TRACKED_ROWS);
    }
}
