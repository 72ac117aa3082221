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
//!
//! The simulated hardware detects a region again every time it opens,
//! and every observed instruction is counted as detection work. The
//! host does not have to place it again: a region's outcome is a pure
//! function of its observed steps (PC, instruction, and each branch's
//! speculation decision and outcome) under fixed options, so the
//! translator remembers the [`VARIANTS`] most recently used outcomes
//! per entry PC. A region that opens at a remembered PC follows the
//! most recent one step by step; when that outcome does not predict the
//! next step, it switches to another with the same matched prefix that
//! does. A full match hands back the record committed then. Only when
//! no outcome matches is the matched prefix placed and the region
//! continued live; its outcome then replaces the least recently used.

use crate::pctable::PcTable;
use crate::predictor::BimodalPredictor;
use crate::rcache::ReplayRecord;
use crate::tables::DependenceTable;
use dim_cgra::{ArrayShape, Configuration, PlaceError, SegmentBranch};
use dim_mips::{FuClass, Instruction};
use dim_mips_sim::{Effect, StepInfo};
use dim_obs::{NullProbe, Probe, ProbeEvent};
use std::sync::Arc;

/// Interrupted prefixes with fewer ops are dropped (see
/// [`Translator::take_partial`]).
const MIN_PARTIAL_OPS: usize = 8;

/// Outcomes remembered per entry PC. Control-flow regions switch among
/// a few paths from one entry. On perfbench's `control_churn`, 8 read
/// about 11% faster than 4 at the same peak memory, and 16 no faster
/// than 8. `translator_reuse.rs` gives one entry more paths than this.
const VARIANTS: usize = 8;

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

    /// The decision for a branch observed at speculation depth `depth`:
    /// `Some(taken)` to translate it as a gating compare and collect on
    /// along its outcome, `None` to close the region there. `None` for
    /// every other instruction.
    fn speculate(&self, info: &StepInfo, depth: u8, predictor: &BimodalPredictor) -> Option<bool> {
        if !info.inst.is_branch() {
            return None;
        }
        let taken = info.taken.expect("branches report an outcome");
        let extend = self.speculation
            && depth + 1 < self.max_spec_blocks
            && predictor.saturated_direction(info.pc) == Some(taken);
        extend.then_some(taken)
    }
}

/// One observed instruction of a region: everything placement and the
/// close decision read from it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Step {
    pc: u32,
    inst: Instruction,
    /// For a branch speculated over, its outcome
    /// ([`TranslatorOptions::speculate`]).
    spec: Option<bool>,
}

/// How a remembered region ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum End {
    /// Its last step closed it.
    Closed,
    /// A cache hit at this PC interrupted it after its last step.
    Hit(u32),
}

/// One remembered outcome of a region opened at an entry PC.
#[derive(Debug, Clone)]
struct Outcome {
    steps: Vec<Step>,
    end: End,
    /// The committed record, `None` for a dropped region.
    record: Option<Arc<ReplayRecord>>,
}

/// How far the open region has matched one of its entry's outcomes.
#[derive(Debug, Clone, Copy)]
struct Follow {
    /// The followed outcome's index in its entry's list.
    variant: usize,
    matched: usize,
    /// Speculated branches among the matched steps.
    depth: u8,
}

/// The outcome in `outcomes` that shares the first `matched` steps of
/// `outcomes[followed]` and `fits`, checking the followed one first.
fn switch(
    outcomes: &[Outcome],
    followed: usize,
    matched: usize,
    fits: impl Fn(&Outcome) -> bool,
) -> Option<usize> {
    if fits(&outcomes[followed]) {
        return Some(followed);
    }
    let prefix = &outcomes[followed].steps[..matched];
    outcomes
        .iter()
        .position(|outcome| fits(outcome) && outcome.steps.get(..matched) == Some(prefix))
}

/// Moves `outcomes[index]` to the front and returns its record: a full
/// match.
fn reuse(outcomes: &mut [Outcome], index: usize) -> Option<Arc<ReplayRecord>> {
    outcomes[..=index].rotate_right(1);
    outcomes[0].record.clone()
}

/// The region under detection. One candidate lives as long as its
/// translator and is reset in place whenever a region is placed, so
/// placing and dropping a region allocates nothing.
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

    /// Places one step, returning `false` when the step closes the
    /// region instead.
    fn place(&mut self, opts: &TranslatorOptions, step: &Step) -> bool {
        let inst = step.inst;
        let shift_excluded = !opts.support_shifts
            && matches!(
                inst,
                Instruction::Shift { .. } | Instruction::ShiftVar { .. }
            );
        match inst.fu_class() {
            _ if shift_excluded => false,
            FuClass::Unsupported => false,
            FuClass::Branch => {
                let Some(taken) = step.spec else {
                    return false;
                };
                // Translate the branch as a gating compare in the array.
                let min_row = self.table.min_row(&inst) as usize;
                if self
                    .config
                    .place(step.pc, inst, self.depth, min_row)
                    .is_err()
                {
                    return false;
                }
                let branch = SegmentBranch {
                    pc: step.pc,
                    inst,
                    predicted_taken: taken,
                    taken_pc: inst.branch_target(step.pc).expect("branch has a target"),
                    fall_pc: step.pc.wrapping_add(4),
                };
                self.config
                    .finish_segment(self.depth, Some(branch), branch.predicted_pc());
                self.depth += 1;
                true
            }
            _ => {
                let min_row = self.table.min_row(&inst) as usize;
                match self.config.place(step.pc, inst, self.depth, min_row) {
                    Ok((row, _col)) => {
                        self.table.record(&inst, row);
                        true
                    }
                    Err(PlaceError::Full) | Err(PlaceError::Unsupported) => false,
                }
            }
        }
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
    /// Whether a region is open.
    open: bool,
    /// Entry PC of the open (or last) region.
    entry: u32,
    /// Whether the next observed instruction is a valid region start
    /// (i.e. it is the first instruction after a control transfer).
    boundary: bool,
    observed: u64,
    /// The outcomes of regions opened at each entry PC, most recently
    /// used first, at most [`VARIANTS`]. Host state only: it never
    /// changes what a region produces, so it stays out of snapshots.
    memo: PcTable<Vec<Outcome>>,
    /// `Some` while the open region matches one of its entry's
    /// outcomes, which then stands in for the candidate.
    follow: Option<Follow>,
    /// Steps of the open region placed on the candidate, for the memo.
    log: Vec<Step>,
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
            entry: 0,
            boundary: true,
            observed: 0,
            memo: PcTable::default(),
            follow: None,
            log: Vec::new(),
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
    /// The memo keeps what it holds: a dropped region has no outcome.
    pub fn abandon_region(&mut self) {
        self.open = false;
        self.follow = None;
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
            .map(|record| record.config().clone())
    }

    /// Like [`take_partial`](Translator::take_partial), additionally
    /// emitting a partial [`ProbeEvent::TransCommit`] when the prefix is
    /// kept, and handing back the shared record, which a repeated region
    /// reuses.
    pub fn take_partial_probed<P: Probe>(
        &mut self,
        exit_pc: u32,
        probe: &mut P,
    ) -> Option<Arc<ReplayRecord>> {
        let result = self.take_partial_impl(exit_pc);
        if P::ENABLED {
            if let Some(record) = &result {
                probe.emit(commit_event(record.config(), true));
            }
        }
        result
    }

    fn take_partial_impl(&mut self, exit_pc: u32) -> Option<Arc<ReplayRecord>> {
        if !self.open {
            return None;
        }
        self.open = false;
        let end = End::Hit(exit_pc);
        if let Some(follow) = self.follow.take() {
            let outcomes = self.memo.get_mut(self.entry).expect("followed entry");
            let hit =
                |outcome: &Outcome| outcome.steps.len() == follow.matched && outcome.end == end;
            if let Some(index) = switch(outcomes, follow.variant, follow.matched, hit) {
                return reuse(outcomes, index);
            }
            self.unfollow(follow);
            if self.log.len() >= MIN_PARTIAL_OPS {
                self.place_log();
            }
        }
        let result = if self.log.len() < MIN_PARTIAL_OPS {
            None
        } else {
            self.close(exit_pc)
        };
        self.remember(end, result.clone());
        result
    }

    /// Closes the in-flight region at `exit_pc`, returning a record of
    /// an exact-size copy of it if it is worth caching.
    fn close(&mut self, exit_pc: u32) -> Option<Arc<ReplayRecord>> {
        self.open = false;
        let cand = &mut self.candidate;
        if !cand.config.worth_caching() {
            return None;
        }
        cand.config.finish_segment(cand.depth, None, exit_pc);
        Some(Arc::new(ReplayRecord::new(cand.config.clone())))
    }

    /// Stores the region just placed as its entry's most recent
    /// outcome, dropping the least recently used one if the entry has
    /// [`VARIANTS`].
    fn remember(&mut self, end: End, record: Option<Arc<ReplayRecord>>) {
        let outcomes = self
            .memo
            .get_or_insert_with(self.entry, || Vec::with_capacity(1));
        let mut outcome = if outcomes.len() == VARIANTS {
            outcomes.pop().expect("a full entry")
        } else {
            Outcome {
                steps: Vec::new(),
                end,
                record: None,
            }
        };
        outcome.steps.clear();
        outcome.steps.extend_from_slice(&self.log);
        outcome.end = end;
        outcome.record = record;
        outcomes.insert(0, outcome);
    }

    /// Leaves a follow: the followed outcome's matched steps become the
    /// open region's log.
    fn unfollow(&mut self, follow: Follow) {
        let outcomes = self.memo.get(self.entry).expect("followed entry");
        self.log.clear();
        self.log
            .extend_from_slice(&outcomes[follow.variant].steps[..follow.matched]);
    }

    /// Places the logged steps on the candidate, which the region then
    /// continues live from.
    fn place_log(&mut self) {
        self.candidate.reset(self.entry);
        for step in &self.log {
            let placed = self.candidate.place(&self.opts, step);
            assert!(placed, "a remembered step closed its region early");
        }
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
            .map(|record| record.config().clone())
    }

    /// Like [`observe`](Translator::observe), additionally emitting
    /// [`ProbeEvent::TransBegin`] when a detection region opens and
    /// [`ProbeEvent::TransCommit`] when one closes worth caching, and
    /// handing back the shared record, which a repeated region reuses.
    pub fn observe_probed<P: Probe>(
        &mut self,
        info: &StepInfo,
        predictor: &BimodalPredictor,
        probe: &mut P,
    ) -> Option<Arc<ReplayRecord>> {
        let was_open = self.open;
        let result = self.observe_impl(info, predictor);
        if P::ENABLED {
            if !was_open && self.open {
                probe.emit(ProbeEvent::TransBegin { pc: self.entry });
            }
            if let Some(record) = &result {
                probe.emit(commit_event(record.config(), false));
            }
        }
        result
    }

    fn observe_impl(
        &mut self,
        info: &StepInfo,
        predictor: &BimodalPredictor,
    ) -> Option<Arc<ReplayRecord>> {
        self.observed += 1;
        let was_boundary = self.boundary;
        self.boundary = info.inst.is_control() || !matches!(info.effect, Effect::None);

        if !self.open {
            if !was_boundary {
                return None;
            }
            self.open = true;
            self.entry = info.pc;
            if self.memo.get(info.pc).is_some() {
                self.follow = Some(Follow {
                    variant: 0,
                    matched: 0,
                    depth: 0,
                });
            } else {
                self.candidate.reset(info.pc);
                self.log.clear();
            }
        }

        let depth = self
            .follow
            .map_or(self.candidate.depth, |follow| follow.depth);
        let step = Step {
            pc: info.pc,
            inst: info.inst,
            spec: self.opts.speculate(info, depth, predictor),
        };
        if let Some(follow) = &mut self.follow {
            let outcomes = self.memo.get_mut(self.entry).expect("followed entry");
            let next = |outcome: &Outcome| outcome.steps.get(follow.matched) == Some(&step);
            if let Some(index) = switch(outcomes, follow.variant, follow.matched, next) {
                follow.variant = index;
                follow.matched += 1;
                follow.depth += u8::from(step.spec.is_some());
                let outcome = &outcomes[index];
                if follow.matched == outcome.steps.len() && outcome.end == End::Closed {
                    self.open = false;
                    self.follow = None;
                    return reuse(outcomes, index);
                }
                return None;
            }
            let follow = *follow;
            self.follow = None;
            self.unfollow(follow);
            self.place_log();
        }

        self.log.push(step);
        if self.candidate.place(&self.opts, &step) {
            return None;
        }
        let result = self.close(info.pc);
        self.remember(End::Closed, result.clone());
        result
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
        assert_eq!(dim_cgra::verify::verify_config(&cfg), []);
    }

    /// Feeds five dependent adds from 0x100 after a boundary, the
    /// fourth replaced by `fourth`, and closes the region with `last`.
    fn five_adds(
        t: &mut Translator,
        fourth: Instruction,
        last: Option<(Instruction, Option<bool>)>,
    ) -> Option<Arc<ReplayRecord>> {
        let p = BimodalPredictor::new();
        t.note_boundary();
        for i in 0..5u32 {
            let inst = if i == 3 {
                fourth
            } else {
                add(Reg::T0, Reg::T0, Reg::A0)
            };
            let done = t.observe_probed(&step(0x100 + 4 * i, inst, None), &p, &mut NullProbe);
            assert!(done.is_none());
        }
        let (inst, taken) = last?;
        t.observe_probed(&step(0x114, inst, taken), &p, &mut NullProbe)
    }

    /// A region that repeats its entry's last outcome hands back the
    /// record it committed then; one that departs from it commits a new
    /// record, which the next repeat reuses.
    #[test]
    fn a_repeated_region_reuses_its_record() {
        let mut t = no_spec();
        let same = add(Reg::T0, Reg::T0, Reg::A0);
        let other = add(Reg::T1, Reg::T0, Reg::A1);
        let close = Some((branch(-6), Some(true)));
        let first = five_adds(&mut t, same, close).expect("committed");
        let again = five_adds(&mut t, same, close).expect("committed");
        assert!(Arc::ptr_eq(&first, &again));
        let departed = five_adds(&mut t, other, close).expect("committed");
        assert!(!Arc::ptr_eq(&first, &departed));
        assert_ne!(first.config(), departed.config());
        let repeat = five_adds(&mut t, other, close).expect("committed");
        assert!(Arc::ptr_eq(&departed, &repeat));
        let fresh = five_adds(&mut no_spec(), other, close).expect("committed");
        assert_eq!(departed.config(), fresh.config());
        assert_eq!(t.observed_instructions(), 4 * 6);
    }

    /// A hit at the remembered PC after the remembered steps is a
    /// repeat; a hit elsewhere closes the same prefix at another exit.
    #[test]
    fn a_hit_repeats_only_at_the_remembered_pc() {
        let mut t = no_spec();
        let p = BimodalPredictor::new();
        let nine = |t: &mut Translator, exit_pc: u32| {
            t.note_boundary();
            for i in 0..9u32 {
                t.observe(
                    &step(0x300 + 4 * i, add(Reg::T0, Reg::T0, Reg::A0), None),
                    &p,
                );
            }
            t.take_partial_probed(exit_pc, &mut NullProbe)
                .expect("nine ops are kept")
        };
        let first = nine(&mut t, 0x324);
        assert!(Arc::ptr_eq(&first, &nine(&mut t, 0x324)));
        let elsewhere = nine(&mut t, 0x500);
        assert!(!Arc::ptr_eq(&first, &elsewhere));
        assert_eq!(elsewhere.config().segments()[0].exit_pc, 0x500);
        assert_eq!(
            elsewhere.config().ops(),
            first.config().ops(),
            "same prefix"
        );
        // A region abandoned mid-follow leaves the memo as it was.
        t.note_boundary();
        t.observe(&step(0x300, add(Reg::T0, Reg::T0, Reg::A0), None), &p);
        t.abandon_region();
        assert!(Arc::ptr_eq(&elsewhere, &nine(&mut t, 0x500)));
    }

    /// Five adds whose fourth is `addiu $t0, $t0, imm`, closed by a
    /// branch: one distinct outcome per `imm`.
    fn nth_outcome(t: &mut Translator, imm: u16) -> Arc<ReplayRecord> {
        let fourth = Instruction::AluImm {
            op: dim_mips::AluImmOp::Addiu,
            rt: Reg::T0,
            rs: Reg::T0,
            imm,
        };
        five_adds(t, fourth, Some((branch(-6), Some(true)))).expect("committed")
    }

    /// An entry that alternates among three outcomes switches to the one
    /// that matches and hands back its record on every repeat.
    #[test]
    fn an_entry_alternating_among_three_outcomes_reuses_every_record() {
        let mut t = no_spec();
        let first: Vec<_> = (0..3).map(|imm| nth_outcome(&mut t, imm)).collect();
        for round in 0..3 {
            for imm in [2, 0, 1, 1, 0, 2] {
                let again = nth_outcome(&mut t, imm);
                assert!(
                    Arc::ptr_eq(&first[imm as usize], &again),
                    "round {round}, outcome {imm}"
                );
            }
        }
        for (imm, record) in first.iter().enumerate() {
            let fresh = nth_outcome(&mut no_spec(), imm as u16);
            assert_eq!(record.config(), fresh.config());
        }
    }

    /// One outcome more than an entry keeps drops its least recently used
    /// one, which is detected from scratch when it comes back.
    #[test]
    fn an_outcome_past_the_limit_drops_the_least_recently_used() {
        let mut t = no_spec();
        let first: Vec<_> = (0..=VARIANTS as u16)
            .map(|imm| nth_outcome(&mut t, imm))
            .collect();
        for imm in 1..=VARIANTS as u16 {
            assert!(Arc::ptr_eq(&first[imm as usize], &nth_outcome(&mut t, imm)));
        }
        // Outcome 0 was dropped when outcome VARIANTS came; bringing it
        // back drops outcome 1, now the least recently used.
        for imm in [0, 1] {
            let back = nth_outcome(&mut t, imm);
            assert!(!Arc::ptr_eq(&first[imm as usize], &back), "outcome {imm}");
            assert_eq!(back.config(), nth_outcome(&mut no_spec(), imm).config());
        }
        assert!(Arc::ptr_eq(
            &first[VARIANTS],
            &nth_outcome(&mut t, VARIANTS as u16)
        ));
    }

    /// A prefix a hit interrupted and a longer region through the same
    /// steps are both kept: a hit at the short one's exit returns its
    /// record although the follow starts on the longer one.
    #[test]
    fn a_short_hit_prefix_and_its_longer_sibling_coexist() {
        let mut t = no_spec();
        let p = BimodalPredictor::new();
        let region = |t: &mut Translator, ops: u32| {
            t.note_boundary();
            for i in 0..ops {
                let done = t.observe(
                    &step(0x300 + 4 * i, add(Reg::T0, Reg::T0, Reg::A0), None),
                    &p,
                );
                assert!(done.is_none());
            }
            t.take_partial_probed(0x300 + 4 * ops, &mut NullProbe)
                .expect("eight or more ops are kept")
        };
        let short = region(&mut t, 9);
        let long = region(&mut t, 12);
        assert_eq!(long.config().instruction_count(), 12);
        for _ in 0..2 {
            assert!(Arc::ptr_eq(&short, &region(&mut t, 9)));
            assert!(Arc::ptr_eq(&long, &region(&mut t, 12)));
        }
        assert_eq!(short.config(), region(&mut no_spec(), 9).config());
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
