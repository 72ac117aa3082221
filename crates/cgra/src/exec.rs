//! Functional dataflow execution of a configuration from its *placement*.
//!
//! The coupled system (`dim-core`) replays covered instructions in
//! program order, which is trivially correct; rows there only drive the
//! cycle model. This module is the other half of the story: it executes
//! a configuration the way the hardware would — level by level, operands
//! bound through renamed value versions (the paper's bus lines), memory
//! ports issuing in program order within a row, speculative write-backs
//! and stores gated by their segment's branch. Equivalence between the
//! two executions is what proves the placement machinery correct, and is
//! enforced by property tests.

use crate::Configuration;
use dim_mips::{DataLoc, Instruction, MemWidth};
use std::collections::HashMap;
use std::fmt;

/// Byte-addressable memory as seen by the array's LD/ST units.
pub trait ExecMemory {
    /// Reads one byte.
    fn read_u8(&self, addr: u32) -> u8;
    /// Writes one byte.
    fn write_u8(&mut self, addr: u32, value: u8);
}

impl ExecMemory for HashMap<u32, u8> {
    fn read_u8(&self, addr: u32) -> u8 {
        *self.get(&addr).unwrap_or(&0)
    }

    fn write_u8(&mut self, addr: u32, value: u8) {
        self.insert(addr, value);
    }
}

/// Architectural context at configuration entry: the values fetched from
/// the register bank during reconfiguration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EntryContext {
    /// General-purpose registers.
    pub regs: [u32; 32],
    /// HI special register.
    pub hi: u32,
    /// LO special register.
    pub lo: u32,
}

impl EntryContext {
    /// Reads one architectural location.
    pub fn read(&self, loc: DataLoc) -> u32 {
        match loc {
            DataLoc::Gpr(r) => self.regs[r.index()],
            DataLoc::Hi => self.hi,
            DataLoc::Lo => self.lo,
        }
    }

    /// Writes one architectural location (`$zero` writes are dropped).
    pub fn write(&mut self, loc: DataLoc, value: u32) {
        match loc {
            DataLoc::Gpr(r) => {
                if !r.is_zero() {
                    self.regs[r.index()] = value;
                }
            }
            DataLoc::Hi => self.hi = value,
            DataLoc::Lo => self.lo = value,
        }
    }
}

/// Errors from dataflow execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecError {
    /// A halfword/word access was not naturally aligned.
    Misaligned {
        /// Faulting address.
        addr: u32,
        /// Required alignment.
        width: u32,
    },
    /// An op class that can never be placed appeared in the config.
    UnsupportedOp,
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::Misaligned { addr, width } => {
                write!(f, "unaligned {width}-byte array access at {addr:#010x}")
            }
            ExecError::UnsupportedOp => write!(f, "unsupported operation in configuration"),
        }
    }
}

impl std::error::Error for ExecError {}

/// Result of a dataflow execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DataflowOutcome {
    /// Deepest segment whose ops were architecturally committed.
    pub executed_depth: u8,
    /// Whether a speculated branch resolved against its prediction.
    pub misspeculated: bool,
    /// Where execution continues.
    pub exit_pc: u32,
}

/// One op's bound dataflow operands (value-version indices).
/// `None` stands for the hard-wired `$zero` (reads as 0, writes vanish).
struct BoundOp {
    /// Index into `Configuration::ops`.
    index: usize,
    srcs: [Option<usize>; 2],
    dsts: [Option<usize>; 2],
}

/// The (up to two) source locations of an instruction, in evaluation
/// order, and its (up to two) destinations. `None` encodes `$zero`.
fn operand_locs(inst: &Instruction) -> ([Option<DataLoc>; 2], [Option<DataLoc>; 2]) {
    use Instruction::*;
    let gpr = |r: dim_mips::Reg| {
        if r.is_zero() {
            None
        } else {
            Some(DataLoc::Gpr(r))
        }
    };
    match *inst {
        Alu { rd, rs, rt, .. } => ([gpr(rs), gpr(rt)], [gpr(rd), None]),
        AluImm { rt, rs, .. } => ([gpr(rs), None], [gpr(rt), None]),
        Shift { rd, rt, .. } => ([gpr(rt), None], [gpr(rd), None]),
        ShiftVar { rd, rt, rs, .. } => ([gpr(rt), gpr(rs)], [gpr(rd), None]),
        Lui { rt, .. } => ([None, None], [gpr(rt), None]),
        MulDiv { rs, rt, .. } => ([gpr(rs), gpr(rt)], [Some(DataLoc::Hi), Some(DataLoc::Lo)]),
        Mfhi { rd } => ([Some(DataLoc::Hi), None], [gpr(rd), None]),
        Mflo { rd } => ([Some(DataLoc::Lo), None], [gpr(rd), None]),
        Mthi { rs } => ([gpr(rs), None], [Some(DataLoc::Hi), None]),
        Mtlo { rs } => ([gpr(rs), None], [Some(DataLoc::Lo), None]),
        Load { rt, base, .. } => ([gpr(base), None], [gpr(rt), None]),
        Store { rt, base, .. } => ([gpr(rt), gpr(base)], [None, None]),
        Branch { rs, rt, cond, .. } => {
            let b = if cond.uses_rt() { gpr(rt) } else { None };
            ([gpr(rs), b], [None, None])
        }
        _ => ([None, None], [None, None]),
    }
}

/// Executes `config` against `ctx`/`mem` exactly as the array would.
///
/// `ctx` is updated with the configuration's gated write-backs and `mem`
/// with its gated stores; the outcome reports the committed speculation
/// depth and exit PC.
///
/// # Errors
///
/// [`ExecError::Misaligned`] for unaligned LD/ST addresses.
pub fn execute_dataflow(
    config: &Configuration,
    ctx: &mut EntryContext,
    mem: &mut dyn ExecMemory,
) -> Result<DataflowOutcome, ExecError> {
    let ops = config.ops();

    // --- Pass 1 (program order): bind operands to value versions -------
    // Version 0..34 are the entry-context locations; each write mints a
    // fresh version. This is the renaming the paper's bus lines provide.
    let mut current: [usize; DataLoc::COUNT] = std::array::from_fn(|i| i);
    let mut n_values = DataLoc::COUNT;
    let mut bound: Vec<BoundOp> = Vec::with_capacity(ops.len());
    // Program-order version of every location at the END of each segment
    // depth, for gated write-back.
    let mut final_version_at_depth: Vec<HashMap<DataLoc, usize>> = Vec::new();
    let mut cur_depth = 0u8;
    for (index, op) in ops.iter().enumerate() {
        if op.depth != cur_depth {
            final_version_at_depth.push(snapshot(&current));
            cur_depth = op.depth;
        }
        let (src_locs, dst_locs) = operand_locs(&op.inst);
        let srcs = src_locs.map(|l| l.map(|loc| current[loc.dense_index()]));
        let dsts = dst_locs.map(|l| {
            l.map(|loc| {
                let v = n_values;
                n_values += 1;
                current[loc.dense_index()] = v;
                v
            })
        });
        bound.push(BoundOp { index, srcs, dsts });
    }
    final_version_at_depth.push(snapshot(&current));
    // A trailing segment may be empty (e.g. a region finalized right
    // after a speculated branch opened the next block); its end-of-depth
    // context equals the previous depth's.
    while final_version_at_depth.len() <= config.max_depth() as usize {
        let last = final_version_at_depth
            .last()
            .expect("at least one snapshot")
            .clone();
        final_version_at_depth.push(last);
    }

    // --- Pass 2 (row order): evaluate --------------------------------
    let mut values: Vec<u32> = vec![0; n_values];
    for (i, loc_val) in values.iter_mut().take(DataLoc::COUNT).enumerate() {
        *loc_val = read_dense(ctx, i);
    }
    // Stores are buffered byte-wise with their depth: loads forward from
    // the buffer (program order among memory ops is preserved by the
    // non-decreasing-row rule + in-row port order, which matches our
    // (row, program-index) evaluation order).
    let mut store_shadow: HashMap<u32, (u8, u8)> = HashMap::new(); // addr -> (byte, depth)
    let mut eval_order: Vec<usize> = (0..bound.len()).collect();
    eval_order.sort_by_key(|&bi| (ops[bound[bi].index].row, bound[bi].index));

    // Branch outcomes keyed by *op index*: a loop merged across
    // iterations contains the same static branch once per segment, so a
    // PC key would alias them.
    let mut branch_outcomes: Vec<Option<bool>> = vec![None; ops.len()];
    for &bi in &eval_order {
        let b = &bound[bi];
        let op = &ops[b.index];
        let src = |k: usize| b.srcs[k].map_or(0, |v| values[v]);
        let mut out0 = None;
        let mut out1 = None;
        use Instruction::*;
        match op.inst {
            Alu { op: alu, .. } => out0 = Some(alu.eval(src(0), src(1))),
            AluImm { op: alu, imm, .. } => out0 = Some(alu.eval(src(0), imm)),
            Shift { op: sh, shamt, .. } => out0 = Some(sh.eval(src(0), shamt as u32)),
            ShiftVar { op: sh, .. } => out0 = Some(sh.eval(src(0), src(1))),
            Lui { imm, .. } => out0 = Some((imm as u32) << 16),
            MulDiv { op: md, .. } => {
                let (hi, lo) = md.eval(src(0), src(1));
                out0 = Some(hi);
                out1 = Some(lo);
            }
            Mfhi { .. } | Mflo { .. } | Mthi { .. } | Mtlo { .. } => out0 = Some(src(0)),
            Load {
                width,
                signed,
                offset,
                ..
            } => {
                let addr = src(0).wrapping_add(offset as i32 as u32);
                out0 = Some(load_value(mem, &store_shadow, addr, width, signed)?);
            }
            Store { width, offset, .. } => {
                let addr = src(1).wrapping_add(offset as i32 as u32);
                store_value(&mut store_shadow, addr, src(0), width, op.depth)?;
            }
            Branch { cond, .. } => {
                branch_outcomes[b.index] = Some(cond.eval(src(0), src(1)));
            }
            _ => return Err(ExecError::UnsupportedOp),
        }
        if let (Some(v), Some(slot)) = (out0, b.dsts[0]) {
            values[slot] = v;
        }
        if let (Some(v), Some(slot)) = (out1, b.dsts[1]) {
            values[slot] = v;
        }
    }

    // --- Resolve speculation -----------------------------------------
    let mut executed_depth = 0u8;
    let mut misspeculated = false;
    let mut exit_pc = config.entry_pc;
    for segment in config.segments() {
        executed_depth = segment.depth;
        match segment.branch {
            Some(branch) => {
                // The branch is the last op of its segment by construction.
                let branch_index = segment.start + segment.len - 1;
                let taken = branch_outcomes[branch_index]
                    .expect("segment-ending op is an evaluated branch");
                if taken == branch.predicted_taken {
                    exit_pc = branch.predicted_pc();
                } else {
                    exit_pc = branch.mispredicted_pc();
                    misspeculated = true;
                    break;
                }
            }
            None => exit_pc = segment.exit_pc,
        }
    }

    // --- Gated commit --------------------------------------------------
    for (loc, depth) in config.writebacks() {
        if depth <= executed_depth {
            let version = final_version_at_depth[executed_depth as usize][&loc];
            ctx.write(loc, values[version]);
        }
    }
    let mut committed: Vec<(u32, u8)> = store_shadow
        .into_iter()
        .filter(|&(_, (_, d))| d <= executed_depth)
        .map(|(addr, (byte, _))| (addr, byte))
        .collect();
    committed.sort_unstable();
    for (addr, byte) in committed {
        mem.write_u8(addr, byte);
    }

    Ok(DataflowOutcome {
        executed_depth,
        misspeculated,
        exit_pc,
    })
}

fn snapshot(current: &[usize; DataLoc::COUNT]) -> HashMap<DataLoc, usize> {
    let mut out = HashMap::new();
    for r in dim_mips::Reg::all() {
        out.insert(DataLoc::Gpr(r), current[r.index()]);
    }
    out.insert(DataLoc::Hi, current[DataLoc::Hi.dense_index()]);
    out.insert(DataLoc::Lo, current[DataLoc::Lo.dense_index()]);
    out
}

fn read_dense(ctx: &EntryContext, dense: usize) -> u32 {
    if dense < 32 {
        ctx.regs[dense]
    } else if dense == DataLoc::Hi.dense_index() {
        ctx.hi
    } else {
        ctx.lo
    }
}

fn check_align(addr: u32, width: u32) -> Result<(), ExecError> {
    if !addr.is_multiple_of(width) {
        Err(ExecError::Misaligned { addr, width })
    } else {
        Ok(())
    }
}

fn shadow_read(mem: &dyn ExecMemory, shadow: &HashMap<u32, (u8, u8)>, addr: u32) -> u8 {
    shadow
        .get(&addr)
        .map_or_else(|| mem.read_u8(addr), |&(b, _)| b)
}

fn load_value(
    mem: &dyn ExecMemory,
    shadow: &HashMap<u32, (u8, u8)>,
    addr: u32,
    width: MemWidth,
    signed: bool,
) -> Result<u32, ExecError> {
    check_align(addr, width.bytes())?;
    let mut bytes = [0u8; 4];
    for (i, byte) in bytes.iter_mut().take(width.bytes() as usize).enumerate() {
        *byte = shadow_read(mem, shadow, addr + i as u32);
    }
    Ok(match (width, signed) {
        (MemWidth::Byte, true) => bytes[0] as i8 as i32 as u32,
        (MemWidth::Byte, false) => bytes[0] as u32,
        (MemWidth::Half, true) => i16::from_le_bytes([bytes[0], bytes[1]]) as i32 as u32,
        (MemWidth::Half, false) => u16::from_le_bytes([bytes[0], bytes[1]]) as u32,
        (MemWidth::Word, _) => u32::from_le_bytes(bytes),
    })
}

fn store_value(
    shadow: &mut HashMap<u32, (u8, u8)>,
    addr: u32,
    value: u32,
    width: MemWidth,
    depth: u8,
) -> Result<(), ExecError> {
    check_align(addr, width.bytes())?;
    for (i, byte) in value
        .to_le_bytes()
        .iter()
        .take(width.bytes() as usize)
        .enumerate()
    {
        shadow.insert(addr + i as u32, (*byte, depth));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ArrayShape;
    use dim_mips::{AluOp, Reg};

    fn ctx() -> EntryContext {
        let mut c = EntryContext {
            regs: [0; 32],
            hi: 0,
            lo: 0,
        };
        c.regs[Reg::A0.index()] = 10;
        c.regs[Reg::A1.index()] = 3;
        c
    }

    #[test]
    fn war_hazard_resolved_by_renaming() {
        // i1 (row 1, reads A0 late): t0 = a0 + a1
        // i2 (row 0, writes A0 early): a0 = a1 + a1
        // Row order runs i2 before i1, but renaming must give i1 the OLD
        // a0 (10), not the new one (6).
        let mut config = Configuration::new(0x100, ArrayShape::config1());
        // Force i1 into row 1 via min_row; the translator would do this
        // only for RAW, so we emulate a pathological placement directly.
        config
            .place(
                0x100,
                Instruction::Alu {
                    op: AluOp::Addu,
                    rd: Reg::T0,
                    rs: Reg::A0,
                    rt: Reg::A1,
                },
                0,
                1,
            )
            .unwrap();
        config
            .place(
                0x104,
                Instruction::Alu {
                    op: AluOp::Addu,
                    rd: Reg::A0,
                    rs: Reg::A1,
                    rt: Reg::A1,
                },
                0,
                0,
            )
            .unwrap();
        config.finish_segment(0, None, 0x108);

        let mut c = ctx();
        let mut mem: HashMap<u32, u8> = HashMap::new();
        let out = execute_dataflow(&config, &mut c, &mut mem).unwrap();
        assert_eq!(out.exit_pc, 0x108);
        assert_eq!(c.regs[Reg::T0.index()], 13, "i1 must read the pre-i2 $a0");
        assert_eq!(c.regs[Reg::A0.index()], 6);
    }

    #[test]
    fn store_load_forwarding_and_alignment() {
        let mut config = Configuration::new(0x200, ArrayShape::config1());
        // sw a0, 0(a1-as-base)... use a0 as value, a1 as base (=3? must
        // align; set a1 to 4 below).
        config
            .place(
                0x200,
                Instruction::Store {
                    width: MemWidth::Word,
                    rt: Reg::A0,
                    base: Reg::A1,
                    offset: 0,
                },
                0,
                0,
            )
            .unwrap();
        config
            .place(
                0x204,
                Instruction::Load {
                    width: MemWidth::Byte,
                    signed: false,
                    rt: Reg::T1,
                    base: Reg::A1,
                    offset: 0,
                },
                0,
                0,
            )
            .unwrap();
        config.finish_segment(0, None, 0x208);

        let mut c = ctx();
        c.regs[Reg::A1.index()] = 4;
        let mut mem: HashMap<u32, u8> = HashMap::new();
        execute_dataflow(&config, &mut c, &mut mem).unwrap();
        assert_eq!(
            c.regs[Reg::T1.index()],
            10,
            "load must see the in-config store"
        );
        assert_eq!(mem.read_u8(4), 10, "committed store visible in memory");

        // Misaligned store errors.
        let mut c2 = ctx();
        c2.regs[Reg::A1.index()] = 5;
        let mut mem2: HashMap<u32, u8> = HashMap::new();
        assert_eq!(
            execute_dataflow(&config, &mut c2, &mut mem2),
            Err(ExecError::Misaligned { addr: 5, width: 4 })
        );
    }

    #[test]
    fn speculative_stores_are_squashed_on_misspeculation() {
        use dim_mips::BranchCond;
        let mut config = Configuration::new(0x300, ArrayShape::config1());
        // Segment 0: t0 = a0 + a1 (= 18 with the a1 = 8 below); branch
        // beq t0, a0 predicted taken resolves not-taken (18 != 10), so
        // segment 1 is squashed.
        config
            .place(
                0x300,
                Instruction::Alu {
                    op: AluOp::Addu,
                    rd: Reg::T0,
                    rs: Reg::A0,
                    rt: Reg::A1,
                },
                0,
                0,
            )
            .unwrap();
        let branch = Instruction::Branch {
            cond: BranchCond::Eq,
            rs: Reg::T0,
            rt: Reg::A0,
            offset: 16,
        };
        config.place(0x304, branch, 0, 1).unwrap();
        let sb = crate::SegmentBranch {
            pc: 0x304,
            inst: branch,
            predicted_taken: true,
            taken_pc: 0x304 + 4 + 64,
            fall_pc: 0x308,
        };
        config.finish_segment(0, Some(sb), sb.predicted_pc());
        // Segment 1 (speculative): a store and a register write.
        config
            .place(
                0x348,
                Instruction::Store {
                    width: MemWidth::Word,
                    rt: Reg::A0,
                    base: Reg::A1,
                    offset: 0,
                },
                1,
                2,
            )
            .unwrap();
        config
            .place(
                0x34c,
                Instruction::Alu {
                    op: AluOp::Addu,
                    rd: Reg::S0,
                    rs: Reg::A0,
                    rt: Reg::A0,
                },
                1,
                2,
            )
            .unwrap();
        config.finish_segment(1, None, 0x350);

        let mut c = ctx();
        c.regs[Reg::A1.index()] = 8;
        let mut mem: HashMap<u32, u8> = HashMap::new();
        let out = execute_dataflow(&config, &mut c, &mut mem).unwrap();
        assert!(out.misspeculated);
        assert_eq!(out.executed_depth, 0);
        assert_eq!(out.exit_pc, 0x308, "fall through on mispredicted-taken");
        assert_eq!(c.regs[Reg::T0.index()], 18, "depth-0 write-back committed");
        assert_eq!(c.regs[Reg::S0.index()], 0, "depth-1 write-back squashed");
        assert_eq!(mem.read_u8(8), 0, "speculative store squashed");
    }
}
