//! The DIM binary-translation engine (paper §4.2).
//!
//! The translator watches the retiring instruction stream. Translation
//! starts at the first instruction after a control transfer and stops at
//! an unsupported instruction or — without speculation — at a branch.
//! With speculation, a branch whose bimodal counter is saturated is
//! itself translated into the configuration as a gating compare and
//! collection continues into the next basic block (up to three blocks).
//! A configuration is handed to the reconfiguration cache only when it
//! merged more than three instructions.

use crate::predictor::BimodalPredictor;
use crate::tables::{live_in_sources, DependenceTable};
use dim_cgra::{ArrayShape, Configuration, PlaceError, SegmentBranch};
use dim_mips::FuClass;
use dim_mips_sim::{Effect, StepInfo};
use dim_obs::{NullProbe, Probe, ProbeEvent};

/// The commit event for a finished configuration.
fn commit_event(config: &Configuration, partial: bool) -> ProbeEvent {
    ProbeEvent::TransCommit {
        entry_pc: config.entry_pc,
        instructions: config.instruction_count() as u32,
        rows: config.rows_used() as u32,
        spec_blocks: config.segments().len().min(u8::MAX as usize) as u8,
        partial,
    }
}

/// Translation policy knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TranslatorOptions {
    /// Array geometry translations are placed against.
    pub shape: ArrayShape,
    /// Whether branches may be speculated over.
    pub speculation: bool,
    /// Maximum basic blocks merged into one configuration when
    /// speculating (the paper evaluates "up to three basic blocks").
    pub max_spec_blocks: u8,
    /// Whether the array's ALUs include shifters. The CCA the paper
    /// compares against (§2.2) "does not support memory operations or
    /// shifts"; setting this false (together with a shape without LD/ST
    /// units and multipliers) reproduces that restriction.
    pub support_shifts: bool,
}

impl TranslatorOptions {
    /// Default policy for a shape: speculation on, three blocks.
    pub fn new(shape: ArrayShape) -> TranslatorOptions {
        TranslatorOptions {
            shape,
            speculation: true,
            max_spec_blocks: 3,
            support_shifts: true,
        }
    }
}

/// The region under detection. One candidate lives as long as its
/// translator and is reset in place whenever a region opens, so opening
/// and dropping a region allocates nothing.
#[derive(Debug, Clone)]
struct Candidate {
    config: Configuration,
    table: DependenceTable,
    depth: u8,
}

impl Candidate {
    fn reset(&mut self, entry_pc: u32) {
        self.config.reset(entry_pc);
        self.table = DependenceTable::new();
        self.depth = 0;
    }
}

/// The detection/translation state machine.
///
/// Feed it every instruction the *processor* retires via
/// [`observe`](Translator::observe); it returns a finished
/// [`Configuration`] when a translation region closes and is worth
/// caching.
#[derive(Debug, Clone)]
pub struct Translator {
    opts: TranslatorOptions,
    candidate: Candidate,
    /// Whether `candidate` holds an in-flight region.
    open: bool,
    /// Whether the next observed instruction is a valid region start
    /// (i.e. it is the first instruction after a control transfer).
    boundary: bool,
    observed: u64,
}

impl Translator {
    /// Creates a translator; the first observed instruction may start a
    /// region (program entry counts as a boundary).
    pub fn new(opts: TranslatorOptions) -> Translator {
        Translator {
            opts,
            candidate: Candidate {
                config: Configuration::new(0, opts.shape),
                table: DependenceTable::new(),
                depth: 0,
            },
            open: false,
            boundary: true,
            observed: 0,
        }
    }

    /// The policy in effect.
    pub fn options(&self) -> &TranslatorOptions {
        &self.opts
    }

    /// Total instructions examined by the detection hardware (drives the
    /// BT energy account).
    pub fn observed_instructions(&self) -> u64 {
        self.observed
    }

    /// Marks a region boundary without an observed instruction — the
    /// coupled system calls this after the array executes, since the
    /// processor resumes at a fresh basic block.
    pub fn note_boundary(&mut self) {
        self.boundary = true;
    }

    /// Drops any in-flight detection region and marks a boundary — the
    /// snapshot save/load path. A warm-started translator begins with no
    /// candidate, so the snapshotting system must discard its own to
    /// leave both sides in identical states; otherwise the saved run and
    /// its warm restart would translate (and cache) different regions.
    pub fn abandon_region(&mut self) {
        self.open = false;
        self.boundary = true;
    }

    /// Finalizes and returns the in-flight candidate, if it is worth
    /// caching, using `exit_pc` as its sequential exit. Called by the
    /// coupled system when a cache hit interrupts collection.
    ///
    /// Interrupted prefixes shorter than twice the normal threshold are
    /// discarded: caching every tiny fragment in front of an existing
    /// configuration splinters hot regions into overhead-dominated
    /// slivers (each invocation pays reconfiguration and write-back).
    pub fn take_partial(&mut self, exit_pc: u32) -> Option<Configuration> {
        self.take_partial_probed(exit_pc, &mut NullProbe)
    }

    /// Like [`take_partial`](Translator::take_partial), additionally
    /// emitting a partial [`ProbeEvent::TransCommit`] when the prefix is
    /// kept.
    pub fn take_partial_probed<P: Probe>(
        &mut self,
        exit_pc: u32,
        probe: &mut P,
    ) -> Option<Configuration> {
        if !self.open || self.candidate.config.instruction_count() < 8 {
            self.open = false;
            return None;
        }
        let result = self.close(exit_pc);
        if P::ENABLED {
            if let Some(config) = &result {
                probe.emit(commit_event(config, true));
            }
        }
        result
    }

    /// Closes the in-flight region at `exit_pc`, returning an exact-size
    /// copy of it if it is worth caching.
    fn close(&mut self, exit_pc: u32) -> Option<Configuration> {
        self.open = false;
        let cand = &mut self.candidate;
        if !cand.config.worth_caching() {
            return None;
        }
        cand.config.finish_segment(cand.depth, None, exit_pc);
        Some(cand.config.clone())
    }

    /// Feeds one retired instruction. Returns a finished configuration
    /// when this instruction closed a region that merged more than three
    /// instructions.
    pub fn observe(
        &mut self,
        info: &StepInfo,
        predictor: &BimodalPredictor,
    ) -> Option<Configuration> {
        self.observe_probed(info, predictor, &mut NullProbe)
    }

    /// Like [`observe`](Translator::observe), additionally emitting
    /// [`ProbeEvent::TransBegin`] when a detection region opens and
    /// [`ProbeEvent::TransCommit`] when one closes worth caching.
    pub fn observe_probed<P: Probe>(
        &mut self,
        info: &StepInfo,
        predictor: &BimodalPredictor,
        probe: &mut P,
    ) -> Option<Configuration> {
        let was_open = self.open;
        let result = self.observe_impl(info, predictor);
        if P::ENABLED {
            if !was_open && self.open {
                probe.emit(ProbeEvent::TransBegin {
                    pc: self.candidate.config.entry_pc,
                });
            }
            if let Some(config) = &result {
                probe.emit(commit_event(config, false));
            }
        }
        result
    }

    fn observe_impl(
        &mut self,
        info: &StepInfo,
        predictor: &BimodalPredictor,
    ) -> Option<Configuration> {
        self.observed += 1;
        let was_boundary = self.boundary;
        self.boundary = info.inst.is_control() || !matches!(info.effect, Effect::None);

        if !self.open {
            if !was_boundary {
                return None;
            }
            self.candidate.reset(info.pc);
            self.open = true;
        }
        let cand = &mut self.candidate;

        let shift_excluded = !self.opts.support_shifts
            && matches!(
                info.inst,
                dim_mips::Instruction::Shift { .. } | dim_mips::Instruction::ShiftVar { .. }
            );
        match info.inst.fu_class() {
            _ if shift_excluded => self.close(info.pc),
            FuClass::Unsupported => self.close(info.pc),
            FuClass::Branch => {
                let taken = info.taken.expect("branches report an outcome");
                let extend = self.opts.speculation
                    && cand.depth + 1 < self.opts.max_spec_blocks
                    && predictor.saturated_direction(info.pc) == Some(taken);
                if !extend {
                    return self.close(info.pc);
                }
                // Translate the branch as a gating compare in the array.
                let min_row = cand.table.min_row(&info.inst) as usize;
                match cand.config.place(info.pc, info.inst, cand.depth, min_row) {
                    Ok(_) => {
                        for src in live_in_sources(&cand.table, &info.inst) {
                            cand.config.note_live_in(src);
                        }
                        let taken_pc = info
                            .inst
                            .branch_target(info.pc)
                            .expect("branch has a target");
                        let branch = SegmentBranch {
                            pc: info.pc,
                            inst: info.inst,
                            predicted_taken: taken,
                            taken_pc,
                            fall_pc: info.pc.wrapping_add(4),
                        };
                        let depth = cand.depth;
                        cand.config
                            .finish_segment(depth, Some(branch), branch.predicted_pc());
                        cand.depth += 1;
                        None
                    }
                    Err(_) => self.close(info.pc),
                }
            }
            _ => {
                let min_row = cand.table.min_row(&info.inst) as usize;
                match cand.config.place(info.pc, info.inst, cand.depth, min_row) {
                    Ok((row, _col)) => {
                        for src in live_in_sources(&cand.table, &info.inst) {
                            cand.config.note_live_in(src);
                        }
                        cand.table.record(&info.inst, row);
                        let depth = cand.depth;
                        for dst in info.inst.writes().iter() {
                            cand.config.note_writeback(dst, depth);
                        }
                        None
                    }
                    Err(PlaceError::Full) | Err(PlaceError::Unsupported) => self.close(info.pc),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dim_mips::{AluOp, BranchCond, Instruction, Reg};

    fn step(pc: u32, inst: Instruction, taken: Option<bool>) -> StepInfo {
        let next_pc = match (taken, inst.branch_target(pc)) {
            (Some(true), Some(t)) => t,
            _ => pc.wrapping_add(4),
        };
        StepInfo {
            pc,
            inst,
            next_pc,
            taken,
            mem_addr: None,
            effect: Effect::None,
        }
    }

    fn add(rd: Reg, rs: Reg, rt: Reg) -> Instruction {
        Instruction::Alu {
            op: AluOp::Addu,
            rd,
            rs,
            rt,
        }
    }

    fn branch(offset: i16) -> Instruction {
        Instruction::Branch {
            cond: BranchCond::Ne,
            rs: Reg::T0,
            rt: Reg::ZERO,
            offset,
        }
    }

    fn no_spec() -> Translator {
        let mut opts = TranslatorOptions::new(ArrayShape::config1());
        opts.speculation = false;
        Translator::new(opts)
    }

    #[test]
    fn straightline_region_closed_by_branch() {
        let mut t = no_spec();
        let p = BimodalPredictor::new();
        for i in 0..5u32 {
            assert!(t
                .observe(
                    &step(0x100 + 4 * i, add(Reg::T0, Reg::T0, Reg::A0), None),
                    &p
                )
                .is_none());
        }
        let cfg = t.observe(&step(0x114, branch(-6), Some(true)), &p).unwrap();
        assert_eq!(cfg.entry_pc, 0x100);
        assert_eq!(cfg.instruction_count(), 5);
        assert_eq!(cfg.segments().len(), 1);
        assert_eq!(cfg.segments()[0].exit_pc, 0x114); // branch runs on the CPU
                                                      // Dependent adds serialize into distinct rows.
        assert_eq!(cfg.rows_used(), 5);
    }

    #[test]
    fn too_short_regions_are_discarded() {
        let mut t = no_spec();
        let p = BimodalPredictor::new();
        for i in 0..3u32 {
            t.observe(
                &step(0x100 + 4 * i, add(Reg::T0, Reg::T0, Reg::A0), None),
                &p,
            );
        }
        assert!(t
            .observe(&step(0x10c, branch(-4), Some(true)), &p)
            .is_none());
    }

    #[test]
    fn translation_restarts_after_boundary() {
        let mut t = no_spec();
        let p = BimodalPredictor::new();
        t.observe(&step(0x100, branch(4), Some(true)), &p);
        // Next instruction is a region start.
        for i in 0..4u32 {
            t.observe(
                &step(0x200 + 4 * i, add(Reg::T1, Reg::T1, Reg::A1), None),
                &p,
            );
        }
        let cfg = t
            .observe(&step(0x210, branch(-5), Some(false)), &p)
            .unwrap();
        assert_eq!(cfg.entry_pc, 0x200);
        assert_eq!(cfg.instruction_count(), 4);
    }

    #[test]
    fn mid_block_start_not_taken() {
        let mut t = no_spec();
        let p = BimodalPredictor::new();
        // No boundary: the stream starts mid-block after a non-control op
        // was consumed with boundary=true, then a candidate closes; ops
        // after a plain add (non-boundary) must not start a region.
        t.observe(&step(0x100, add(Reg::T0, Reg::T0, Reg::A0), None), &p);
        // candidate open; close via unsupported:
        t.observe(&step(0x104, Instruction::Syscall, None), &p);
        // syscall sets boundary → next starts.
        assert!(!t.open);
    }

    #[test]
    fn unsupported_closes_region() {
        let mut t = no_spec();
        let p = BimodalPredictor::new();
        for i in 0..4u32 {
            t.observe(
                &step(0x100 + 4 * i, add(Reg::T2, Reg::T2, Reg::A2), None),
                &p,
            );
        }
        let cfg = t
            .observe(&step(0x110, Instruction::Jr { rs: Reg::RA }, None), &p)
            .unwrap();
        assert_eq!(cfg.instruction_count(), 4);
        assert_eq!(cfg.segments()[0].exit_pc, 0x110);
    }

    #[test]
    fn speculation_extends_over_saturated_branch() {
        let mut t = Translator::new(TranslatorOptions::new(ArrayShape::config1()));
        let mut p = BimodalPredictor::new();
        p.update(0x110, true);
        p.update(0x110, true); // saturate taken
        for i in 0..4u32 {
            t.observe(
                &step(0x100 + 4 * i, add(Reg::T0, Reg::T0, Reg::A0), None),
                &p,
            );
        }
        // Branch taken, counter saturated-taken: speculate across.
        assert!(t
            .observe(&step(0x110, branch(10), Some(true)), &p)
            .is_none());
        // Continue collecting in the next block (at the taken target).
        let target = 0x110 + 4 + 40;
        for i in 0..3u32 {
            t.observe(
                &step(target + 4 * i, add(Reg::T1, Reg::T1, Reg::A1), None),
                &p,
            );
        }
        let cfg = t
            .observe(&step(target + 12, Instruction::Syscall, None), &p)
            .unwrap();
        assert_eq!(cfg.segments().len(), 2);
        assert!(cfg.segments()[0].branch.unwrap().predicted_taken);
        assert_eq!(cfg.max_depth(), 1);
        // 4 adds + branch + 3 adds
        assert_eq!(cfg.instruction_count(), 8);
    }

    #[test]
    fn speculation_depth_bounded() {
        let mut opts = TranslatorOptions::new(ArrayShape::config3());
        opts.max_spec_blocks = 2;
        let mut t = Translator::new(opts);
        let mut p = BimodalPredictor::new();
        for pc in [0x110u32, 0x130] {
            p.update(pc, true);
            p.update(pc, true);
        }
        for i in 0..4u32 {
            t.observe(
                &step(0x100 + 4 * i, add(Reg::T0, Reg::T0, Reg::A0), None),
                &p,
            );
        }
        assert!(t.observe(&step(0x110, branch(1), Some(true)), &p).is_none());
        for i in 0..3u32 {
            t.observe(
                &step(0x118 + 4 * i, add(Reg::T1, Reg::T1, Reg::A1), None),
                &p,
            );
        }
        // Second branch: depth limit (2 blocks) reached → region closes.
        let cfg = t.observe(&step(0x130, branch(1), Some(true)), &p).unwrap();
        assert_eq!(cfg.segments().len(), 2);
        assert_eq!(cfg.segments()[1].exit_pc, 0x130);
    }

    #[test]
    fn unsaturated_branch_closes_region_even_with_speculation() {
        let mut t = Translator::new(TranslatorOptions::new(ArrayShape::config1()));
        let p = BimodalPredictor::new();
        for i in 0..4u32 {
            t.observe(
                &step(0x100 + 4 * i, add(Reg::T0, Reg::T0, Reg::A0), None),
                &p,
            );
        }
        let cfg = t.observe(&step(0x110, branch(1), Some(true)), &p).unwrap();
        assert_eq!(cfg.segments().len(), 1);
    }

    #[test]
    fn live_ins_and_writebacks_tracked() {
        let mut t = no_spec();
        let p = BimodalPredictor::new();
        t.observe(&step(0x100, add(Reg::T0, Reg::A0, Reg::A1), None), &p);
        t.observe(&step(0x104, add(Reg::T1, Reg::T0, Reg::A2), None), &p);
        t.observe(&step(0x108, add(Reg::T0, Reg::T1, Reg::A0), None), &p);
        t.observe(&step(0x10c, add(Reg::T2, Reg::T0, Reg::T1), None), &p);
        let cfg = t
            .observe(&step(0x110, Instruction::Syscall, None), &p)
            .unwrap();
        // Live-ins: a0, a1, a2 (t0/t1 produced internally).
        assert_eq!(cfg.live_in_count(), 3);
        // Writebacks: t0 (depth 0, last write), t1, t2.
        assert_eq!(cfg.writeback_count(), 3);
    }

    #[test]
    fn short_interrupted_partials_are_discarded() {
        let mut t = no_spec();
        let p = BimodalPredictor::new();
        for i in 0..5u32 {
            t.observe(
                &step(0x100 + 4 * i, add(Reg::T0, Reg::T0, Reg::A0), None),
                &p,
            );
        }
        // 5 < 8: not worth splintering the region.
        assert!(t.take_partial(0x114).is_none());
        t.note_boundary();
        for i in 0..9u32 {
            t.observe(
                &step(0x300 + 4 * i, add(Reg::T0, Reg::T0, Reg::A0), None),
                &p,
            );
        }
        let cfg = t.take_partial(0x324).unwrap();
        assert_eq!(cfg.instruction_count(), 9);
    }

    #[test]
    fn cca_mode_rejects_shifts() {
        let mut opts = TranslatorOptions::new(ArrayShape::cca_like());
        opts.support_shifts = false;
        opts.speculation = false;
        let mut t = Translator::new(opts);
        let p = BimodalPredictor::new();
        for i in 0..4u32 {
            t.observe(
                &step(0x100 + 4 * i, add(Reg::T0, Reg::T0, Reg::A0), None),
                &p,
            );
        }
        // A shift ends the region just like an unsupported instruction.
        let shift = Instruction::Shift {
            op: dim_mips::ShiftOp::Sll,
            rd: Reg::T1,
            rt: Reg::T0,
            shamt: 2,
        };
        let cfg = t.observe(&step(0x110, shift, None), &p).unwrap();
        assert_eq!(cfg.instruction_count(), 4);
        assert_eq!(cfg.segments()[0].exit_pc, 0x110);
    }

    #[test]
    fn translated_configs_validate() {
        let mut t = Translator::new(TranslatorOptions::new(ArrayShape::config2()));
        let mut p = BimodalPredictor::new();
        p.update(0x110, true);
        p.update(0x110, true);
        for i in 0..4u32 {
            t.observe(
                &step(0x100 + 4 * i, add(Reg::T0, Reg::T0, Reg::A0), None),
                &p,
            );
        }
        t.observe(&step(0x110, branch(10), Some(true)), &p);
        let target = 0x110 + 4 + 40;
        for i in 0..3u32 {
            t.observe(
                &step(target + 4 * i, add(Reg::T1, Reg::T1, Reg::A1), None),
                &p,
            );
        }
        let cfg = t.take_partial(target + 12).unwrap();
        cfg.validate().expect("structurally sound");
    }

    #[test]
    fn observed_instruction_counter() {
        let mut t = no_spec();
        let p = BimodalPredictor::new();
        for i in 0..7u32 {
            t.observe(
                &step(0x100 + 4 * i, add(Reg::T0, Reg::T0, Reg::A0), None),
                &p,
            );
        }
        assert_eq!(t.observed_instructions(), 7);
    }
}
