//! Standalone configuration verifier: proves a [`Configuration`] is
//! executable on its array shape without running it.
//!
//! Every loader of a `.dimrc` snapshot runs this pass after the decoder
//! has rebuilt each configuration, and so does the translation-commit
//! hook `SystemConfig::verify_configs`. Everything is re-derived from the
//! placed ops — the shape, the segment table, the declared live-in set
//! and the declared write-back map are all checked *against* the
//! instruction window instead of being trusted. [`Configuration::place`]
//! derives the live-ins and write-backs as it places each op, so the
//! interface pass is an independent second derivation that cross-checks
//! it.

use crate::{ArrayShape, Configuration, PlacedOp, Segment};
use dim_mips::{DataLoc, FuClass};
use std::collections::BTreeMap;
use std::fmt;

/// The class of invariant a configuration broke.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ViolationKind {
    /// An op sits outside the shape: bad row, bad column, wrong or
    /// unsupported unit class.
    Bounds,
    /// An operand is read at or before the row that produces it, or
    /// memory operations are reordered against program order.
    DependencyOrder,
    /// Two results contend for the same output port: two ops assigned
    /// to one physical functional unit.
    WritePortConflict,
    /// The declared live-in set or write-back map disagrees with what
    /// the source instruction window actually reads and writes.
    WritebackMismatch,
    /// The segment table does not partition the ops, or its branch
    /// metadata contradicts the placed instructions.
    SegmentStructure,
}

impl fmt::Display for ViolationKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ViolationKind::Bounds => "bounds",
            ViolationKind::DependencyOrder => "dependency-order",
            ViolationKind::WritePortConflict => "write-port-conflict",
            ViolationKind::WritebackMismatch => "writeback-mismatch",
            ViolationKind::SegmentStructure => "segment-structure",
        };
        f.write_str(s)
    }
}

/// One broken invariant, anchored to the op that exposed it when there
/// is one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Invariant class.
    pub kind: ViolationKind,
    /// PC of the offending op, when the violation is op-local.
    pub pc: Option<u32>,
    /// Human-readable description.
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.pc {
            Some(pc) => write!(f, "[{}] at {:#x}: {}", self.kind, pc, self.detail),
            None => write!(f, "[{}] {}", self.kind, self.detail),
        }
    }
}

fn unit_group(class: FuClass) -> Option<(usize, &'static str)> {
    match class {
        // Branches occupy ALU slots (gating compares).
        FuClass::Alu | FuClass::Branch => Some((0, "alu")),
        FuClass::Multiplier => Some((1, "mult")),
        FuClass::LoadStore => Some((2, "ldst")),
        FuClass::Unsupported => None,
    }
}

/// Verifies every invariant class over `config`, returning all broken
/// ones (empty = the configuration is provably executable on its shape).
pub fn verify_config(config: &Configuration) -> Vec<Violation> {
    let mut out = Vec::new();
    check_segments(config, &mut out);
    check_bounds(config.shape(), config.ops(), &mut out);
    check_ports(config.ops(), &mut out);
    check_dependences(config.ops(), &mut out);
    check_interface(config, &mut out);
    out
}

fn push(out: &mut Vec<Violation>, kind: ViolationKind, pc: Option<u32>, detail: String) {
    out.push(Violation { kind, pc, detail });
}

/// Segment table partitions the ops; branch metadata matches the source
/// instruction window.
fn check_segments(config: &Configuration, out: &mut Vec<Violation>) {
    use ViolationKind::SegmentStructure;
    let ops = config.ops();
    let segments = config.segments();
    if let Some(first) = ops.first() {
        if first.pc != config.entry_pc {
            push(
                out,
                SegmentStructure,
                Some(first.pc),
                format!("first op disagrees with entry pc {:#x}", config.entry_pc),
            );
        }
    }
    if ops.is_empty() {
        // Replay would leave the PC at the entry, and the next lookup
        // would hit the same configuration again.
        push(
            out,
            SegmentStructure,
            None,
            "configuration covers no ops".to_string(),
        );
    }
    let mut covered = 0usize;
    let mut last_depth = 0u8;
    for (k, seg) in segments.iter().enumerate() {
        if seg.start != covered || seg.start + seg.len > ops.len() {
            push(
                out,
                SegmentStructure,
                None,
                format!(
                    "segment {k} spans ops {}..{} but {covered} are covered of {}",
                    seg.start,
                    seg.start + seg.len,
                    ops.len()
                ),
            );
            return; // Indexing below would be unreliable.
        }
        covered += seg.len;
        if k > 0 && seg.depth < last_depth {
            push(
                out,
                SegmentStructure,
                None,
                format!(
                    "segment {k} depth {} decreases below {last_depth}",
                    seg.depth
                ),
            );
        }
        last_depth = seg.depth;
        for op in config.segment_ops(seg) {
            if op.depth != seg.depth {
                push(
                    out,
                    SegmentStructure,
                    Some(op.pc),
                    format!(
                        "op depth {} inside segment of depth {}",
                        op.depth, seg.depth
                    ),
                );
            }
        }
        check_segment_exit(config, k, seg, segments.get(k + 1), out);
        if seg.branch.is_none() && k + 1 < segments.len() {
            push(
                out,
                SegmentStructure,
                None,
                format!("interior segment {k} has no terminating branch"),
            );
        }
    }
    if covered != ops.len() {
        push(
            out,
            SegmentStructure,
            None,
            format!("segments cover {covered} ops of {}", ops.len()),
        );
    }
}

/// Branch placement/metadata and exit-pc consistency for one segment.
fn check_segment_exit(
    config: &Configuration,
    k: usize,
    seg: &Segment,
    next: Option<&Segment>,
    out: &mut Vec<Violation>,
) {
    use ViolationKind::SegmentStructure;
    let ops = config.ops();
    match seg.branch {
        Some(branch) => {
            let last = if seg.len > 0 {
                ops.get(seg.start + seg.len - 1)
            } else {
                None
            };
            match last {
                Some(op) if op.pc == branch.pc && op.inst.is_branch() => {
                    if op.inst.branch_target(op.pc) != Some(branch.taken_pc) {
                        push(
                            out,
                            SegmentStructure,
                            Some(op.pc),
                            format!(
                                "branch taken pc {:#x} disagrees with the instruction",
                                branch.taken_pc
                            ),
                        );
                    }
                    if branch.fall_pc != branch.pc.wrapping_add(4) {
                        push(
                            out,
                            SegmentStructure,
                            Some(op.pc),
                            format!("branch fall-through pc {:#x} is not pc+4", branch.fall_pc),
                        );
                    }
                }
                _ => push(
                    out,
                    SegmentStructure,
                    Some(branch.pc),
                    format!("segment {k}: branch is not the last op"),
                ),
            }
            if seg.exit_pc != branch.predicted_pc() {
                push(
                    out,
                    SegmentStructure,
                    Some(branch.pc),
                    format!(
                        "segment {k} exit {:#x} is not the predicted path {:#x}",
                        seg.exit_pc,
                        branch.predicted_pc()
                    ),
                );
            }
            // The next segment continues on the predicted path.
            if let Some(next) = next {
                if next.len > 0 {
                    if let Some(op) = ops.get(next.start) {
                        if op.pc != branch.predicted_pc() {
                            push(
                                out,
                                SegmentStructure,
                                Some(op.pc),
                                format!(
                                    "segment {} does not start at the predicted path {:#x}",
                                    k + 1,
                                    branch.predicted_pc()
                                ),
                            );
                        }
                    }
                }
            }
        }
        None => {
            // A branchless segment exits sequentially after its last op.
            if seg.len > 0 {
                if let Some(op) = ops.get(seg.start + seg.len - 1) {
                    if seg.exit_pc != op.pc.wrapping_add(4) {
                        push(
                            out,
                            SegmentStructure,
                            Some(op.pc),
                            format!(
                                "segment {k} exit {:#x} is not sequential after its last op",
                                seg.exit_pc
                            ),
                        );
                    }
                }
            } else if k > 0 {
                // An empty one closes its region on the first instruction
                // of the predicted path, where the segment before exits.
                let prev = &config.segments()[k - 1];
                if seg.exit_pc != prev.exit_pc {
                    push(
                        out,
                        SegmentStructure,
                        None,
                        format!(
                            "empty segment {k} exit {:#x} is not the predicted path {:#x}",
                            seg.exit_pc, prev.exit_pc
                        ),
                    );
                }
            }
        }
    }
}

/// Every op occupies a real unit of the right class inside the shape.
fn check_bounds(shape: &ArrayShape, ops: &[PlacedOp], out: &mut Vec<Violation>) {
    use ViolationKind::Bounds;
    for op in ops {
        if op.class != op.inst.fu_class() {
            push(
                out,
                Bounds,
                Some(op.pc),
                format!(
                    "recorded class {:?} disagrees with the instruction",
                    op.class
                ),
            );
            continue;
        }
        let cap = shape.units_per_row(op.class);
        if op.class == FuClass::Unsupported || cap == 0 {
            push(
                out,
                Bounds,
                Some(op.pc),
                format!("instruction class {:?} has no unit in this shape", op.class),
            );
            continue;
        }
        if !shape.is_infinite() && op.row as usize >= shape.rows {
            push(
                out,
                Bounds,
                Some(op.pc),
                format!("row {} outside shape of {} rows", op.row, shape.rows),
            );
        }
        if op.col as usize >= cap {
            push(
                out,
                Bounds,
                Some(op.pc),
                format!(
                    "column {} outside the row's {cap} {:?} units",
                    op.col, op.class
                ),
            );
        }
    }
}

/// No two results contend for one output port: every placed op occupies
/// its own functional unit. Same-row writes to one *location* are legal
/// — the context's write-back bus takes them in program order, so the
/// later writer simply wins (the translator produces this for WAW
/// chains) — but two ops on one physical unit can never both execute.
fn check_ports(ops: &[PlacedOp], out: &mut Vec<Violation>) {
    use ViolationKind::WritePortConflict;
    // (row, unit group, col) -> pc of first occupant.
    let mut units: BTreeMap<(u32, usize, u32), u32> = BTreeMap::new();
    for op in ops {
        let Some((group, label)) = unit_group(op.class) else {
            continue; // Reported by the bounds pass.
        };
        if let Some(&prev) = units.get(&(op.row, group, op.col)) {
            push(
                out,
                WritePortConflict,
                Some(op.pc),
                format!(
                    "{label} unit {} in row {} already assigned to op at {prev:#x}",
                    op.col, op.row
                ),
            );
        } else {
            units.insert((op.row, group, op.col), op.pc);
        }
    }
}

/// Operand routing respects row order: values flow strictly downward and
/// memory operations keep program order.
fn check_dependences(ops: &[PlacedOp], out: &mut Vec<Violation>) {
    use ViolationKind::DependencyOrder;
    let mut producer_row: [Option<u32>; DataLoc::COUNT] = [None; DataLoc::COUNT];
    let mut last_mem_row: Option<u32> = None;
    for op in ops {
        for src in op.inst.reads().iter() {
            if let Some(p) = producer_row[src.dense_index()] {
                if p >= op.row {
                    push(
                        out,
                        DependencyOrder,
                        Some(op.pc),
                        format!("row {} reads {src} produced in row {p}", op.row),
                    );
                }
            }
        }
        if op.inst.is_mem() {
            if let Some(m) = last_mem_row {
                if op.row < m {
                    push(
                        out,
                        DependencyOrder,
                        Some(op.pc),
                        format!(
                            "memory op in row {} behind an earlier one in row {m}",
                            op.row
                        ),
                    );
                }
            }
            last_mem_row = Some(last_mem_row.map_or(op.row, |m| m.max(op.row)));
        }
        for dst in op.inst.writes().iter() {
            producer_row[dst.dense_index()] = Some(op.row);
        }
    }
}

/// The declared live-in set and write-back map are exactly what the
/// source instruction window reads and writes.
fn check_interface(config: &Configuration, out: &mut Vec<Violation>) {
    use ViolationKind::WritebackMismatch;
    let mut produced = [false; DataLoc::COUNT];
    let mut required_live_ins: Vec<DataLoc> = Vec::new();
    let mut required_wb: BTreeMap<DataLoc, u8> = BTreeMap::new();
    for op in config.ops() {
        for src in op.inst.reads().iter() {
            if !produced[src.dense_index()] && !required_live_ins.contains(&src) {
                required_live_ins.push(src);
            }
        }
        for dst in op.inst.writes().iter() {
            produced[dst.dense_index()] = true;
            required_wb
                .entry(dst)
                .and_modify(|d| *d = (*d).min(op.depth))
                .or_insert(op.depth);
        }
    }
    let declared_live: Vec<DataLoc> = config.live_ins().collect();
    for loc in &required_live_ins {
        if !declared_live.contains(loc) {
            push(
                out,
                WritebackMismatch,
                None,
                format!("live-in {loc} read by the window but not declared"),
            );
        }
    }
    for loc in &declared_live {
        if !required_live_ins.contains(loc) {
            push(
                out,
                WritebackMismatch,
                None,
                format!("declared live-in {loc} is never read before being produced"),
            );
        }
    }
    let declared_wb: BTreeMap<DataLoc, u8> = config.writebacks().collect();
    for (loc, depth) in &required_wb {
        match declared_wb.get(loc) {
            None => push(
                out,
                WritebackMismatch,
                None,
                format!("window writes {loc} but it is not in the write-back map"),
            ),
            Some(d) if d != depth => push(
                out,
                WritebackMismatch,
                None,
                format!("write-back {loc} pending at depth {d}, window writes it at {depth}"),
            ),
            Some(_) => {}
        }
    }
    for loc in declared_wb.keys() {
        if !required_wb.contains_key(loc) {
            push(
                out,
                WritebackMismatch,
                None,
                format!("write-back {loc} is never written by the window"),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ArrayShape;
    use dim_mips::{AluOp, BranchCond, Instruction, Reg};

    fn alu(rd: Reg, rs: Reg, rt: Reg) -> Instruction {
        Instruction::Alu {
            op: AluOp::Addu,
            rd,
            rs,
            rt,
        }
    }

    /// A small well-formed two-segment configuration:
    ///   0x1000: addu $t0, $a0, $a1
    ///   0x1004: addu $t1, $t0, $a2
    ///   0x1008: bne  $t1, $zero, +N   (predicted taken)
    ///   taken:  addu $t2, $t1, $a3
    fn sample() -> Configuration {
        let mut c = Configuration::new(0x1000, ArrayShape::config2());
        c.place(0x1000, alu(Reg::T0, Reg::A0, Reg::A1), 0, 0)
            .unwrap();
        c.place(0x1004, alu(Reg::T1, Reg::T0, Reg::A2), 0, 1)
            .unwrap();
        let branch = Instruction::Branch {
            cond: BranchCond::Ne,
            rs: Reg::T1,
            rt: Reg::ZERO,
            offset: 3,
        };
        c.place(0x1008, branch, 0, 2).unwrap();
        let taken_pc = branch.branch_target(0x1008).unwrap();
        c.finish_segment(
            0,
            Some(crate::SegmentBranch {
                pc: 0x1008,
                inst: branch,
                predicted_taken: true,
                taken_pc,
                fall_pc: 0x100c,
            }),
            taken_pc,
        );
        c.place(taken_pc, alu(Reg::T2, Reg::T1, Reg::A3), 1, 3)
            .unwrap();
        c.finish_segment(1, None, taken_pc + 4);
        c
    }

    #[test]
    fn well_formed_config_passes() {
        let c = sample();
        assert_eq!(verify_config(&c), vec![]);
    }

    #[test]
    fn rejects_bounds_violation() {
        let mut c = sample();
        let rows = c.shape().rows as u32;
        c.ops_mut()[1].row = rows + 7;
        let kinds: Vec<_> = verify_config(&c).into_iter().map(|v| v.kind).collect();
        assert!(kinds.contains(&ViolationKind::Bounds), "{kinds:?}");
    }

    #[test]
    fn rejects_column_bounds_violation() {
        let mut c = sample();
        c.ops_mut()[0].col = 10_000;
        let kinds: Vec<_> = verify_config(&c).into_iter().map(|v| v.kind).collect();
        assert!(kinds.contains(&ViolationKind::Bounds), "{kinds:?}");
    }

    #[test]
    fn rejects_dependency_order_violation() {
        let mut c = sample();
        // The consumer of $t0 hoisted into its producer's row.
        c.ops_mut()[1].row = 0;
        let found = verify_config(&c);
        let kinds: Vec<_> = found.iter().map(|v| v.kind).collect();
        assert!(kinds.contains(&ViolationKind::DependencyOrder), "{kinds:?}");
    }

    #[test]
    fn rejects_write_port_conflict() {
        let mut c = sample();
        // Two ops forced onto one ALU unit of row 0.
        c.ops_mut()[1].row = 0;
        c.ops_mut()[1].col = 0;
        let kinds: Vec<_> = verify_config(&c).into_iter().map(|v| v.kind).collect();
        assert!(
            kinds.contains(&ViolationKind::WritePortConflict),
            "{kinds:?}"
        );
    }

    #[test]
    fn rejects_writeback_mismatch() {
        let mut c = sample();
        assert_eq!(c.remove_writeback(DataLoc::Gpr(Reg::T2)), Some(1));
        let kinds: Vec<_> = verify_config(&c).into_iter().map(|v| v.kind).collect();
        assert!(
            kinds.contains(&ViolationKind::WritebackMismatch),
            "{kinds:?}"
        );
    }

    #[test]
    fn rejects_missing_live_in() {
        let mut c = sample();
        assert!(c.remove_live_in(DataLoc::Gpr(Reg::A2)));
        let kinds: Vec<_> = verify_config(&c).into_iter().map(|v| v.kind).collect();
        assert!(
            kinds.contains(&ViolationKind::WritebackMismatch),
            "{kinds:?}"
        );
    }

    #[test]
    fn rejects_segment_structure_violation() {
        let mut c = sample();
        // The deeper segment claims depth 0 for a depth-1 op.
        c.ops_mut()[3].depth = 0;
        let kinds: Vec<_> = verify_config(&c).into_iter().map(|v| v.kind).collect();
        assert!(
            kinds.contains(&ViolationKind::SegmentStructure),
            "{kinds:?}"
        );
    }

    #[test]
    fn rejects_retargeted_branch_metadata() {
        let mut c = sample();
        // Rewrite the branch op so its encoded target no longer matches
        // the segment's recorded taken pc.
        if let Instruction::Branch { offset, .. } = &mut c.ops_mut()[2].inst {
            *offset += 1;
        } else {
            panic!("op 2 is the branch");
        }
        let kinds: Vec<_> = verify_config(&c).into_iter().map(|v| v.kind).collect();
        assert!(
            kinds.contains(&ViolationKind::SegmentStructure),
            "{kinds:?}"
        );
    }

    #[test]
    fn violation_display_carries_pc() {
        let mut c = sample();
        c.ops_mut()[1].row = 0;
        let v = verify_config(&c)
            .into_iter()
            .find(|v| v.kind == ViolationKind::DependencyOrder)
            .unwrap();
        let text = v.to_string();
        assert!(text.contains("dependency-order"), "{text}");
        assert!(text.contains("0x1004"), "{text}");
    }
}
