//! Architectural CPU state and the functional interpreter.

use crate::{Memory, SimError};
use dim_mips::{Instruction, MemWidth, Reg};

/// Architectural state of the MIPS core: 32 GPRs, HI/LO, and the PC.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cpu {
    regs: [u32; 32],
    /// HI special register.
    pub hi: u32,
    /// LO special register.
    pub lo: u32,
    /// Program counter.
    pub pc: u32,
}

impl Default for Cpu {
    fn default() -> Self {
        Cpu::new()
    }
}

/// What a single executed instruction did, as observed by the retiring
/// stage — this is exactly the interface the DIM detection hardware taps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepInfo {
    /// Address of the executed instruction.
    pub pc: u32,
    /// The instruction itself.
    pub inst: Instruction,
    /// PC after the instruction (branch/jump target when taken).
    pub next_pc: u32,
    /// `Some(taken)` when the instruction was a conditional branch.
    pub taken: Option<bool>,
    /// Effective address for loads/stores.
    pub mem_addr: Option<u32>,
    /// Control-service effect, if any.
    pub effect: Effect,
}

/// Control effects that must be handled outside the CPU proper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Effect {
    /// Ordinary instruction.
    None,
    /// A `syscall` executed; the runtime should inspect `$v0`/`$a0`.
    Syscall,
    /// A `break` executed with the given code (used as a halt).
    Break(u32),
}

/// `count` low bits set (0 -> 0, 32 -> all ones).
fn low_mask(bits: u32) -> u32 {
    if bits >= 32 {
        u32::MAX
    } else {
        (1u32 << bits) - 1
    }
}

impl Cpu {
    /// Creates a CPU with all registers zero and the PC at zero.
    pub fn new() -> Cpu {
        Cpu {
            regs: [0; 32],
            hi: 0,
            lo: 0,
            pc: 0,
        }
    }

    /// Reads a GPR (`$zero` always reads 0).
    pub fn reg(&self, r: Reg) -> u32 {
        self.regs[r.index()]
    }

    /// Writes a GPR (writes to `$zero` are discarded).
    pub fn set_reg(&mut self, r: Reg, value: u32) {
        if !r.is_zero() {
            self.regs[r.index()] = value;
        }
    }

    /// Executes one instruction functionally, updating state and memory.
    ///
    /// The caller supplies the decoded instruction for the current PC
    /// (fetch/decode live in [`Machine`](crate::Machine), which predecodes
    /// the text segment). Data instructions go through
    /// [`execute_data`](Cpu::execute_data); this adds the PC update and
    /// the control instructions and partial-word accesses.
    ///
    /// # Errors
    ///
    /// Propagates [`SimError::Misaligned`] from memory accesses.
    pub fn execute(&mut self, inst: Instruction, mem: &mut Memory) -> Result<StepInfo, SimError> {
        use Instruction::*;
        let pc = self.pc;
        let mut next_pc = pc.wrapping_add(4);
        let mut taken = None;
        let mut mem_addr = None;
        let mut effect = Effect::None;
        match inst {
            LoadUnaligned {
                left,
                rt,
                base,
                offset,
            } => {
                let addr = self.reg(base).wrapping_add(offset as i32 as u32);
                mem_addr = Some(addr);
                let aligned = addr & !3;
                let word = mem.read_u32(aligned)?;
                let n = addr & 3;
                let old = self.reg(rt);
                // Little-endian semantics (the simulator's byte order):
                // LWL merges bytes aligned..=addr into the high end of rt;
                // LWR merges bytes addr..aligned_end into the low end.
                let v = if left {
                    let keep = (3 - n) * 8;
                    (word << keep) | (old & low_mask(keep))
                } else {
                    let drop = n * 8;
                    (old & !low_mask(32 - drop)) | (word >> drop)
                };
                self.set_reg(rt, v);
            }
            StoreUnaligned {
                left,
                rt,
                base,
                offset,
            } => {
                let addr = self.reg(base).wrapping_add(offset as i32 as u32);
                mem_addr = Some(addr);
                let aligned = addr & !3;
                let word = mem.read_u32(aligned)?;
                let n = addr & 3;
                let v = self.reg(rt);
                // SWL stores the high n+1 bytes of rt into bytes
                // aligned..=addr; SWR stores the low 4-n bytes into
                // bytes addr..aligned_end.
                let merged = if left {
                    let keep = (3 - n) * 8;
                    let mask = low_mask(32 - keep);
                    (word & !mask) | ((v >> keep) & mask)
                } else {
                    let drop = n * 8;
                    (word & low_mask(drop)) | (v << drop)
                };
                mem.write_u32(aligned, merged)?;
            }
            Branch { cond, rs, rt, .. } => {
                let t = cond.eval(self.reg(rs), self.reg(rt));
                taken = Some(t);
                if t {
                    next_pc = inst.branch_target(pc).expect("Branch always has a target");
                }
            }
            J { .. } => next_pc = inst.jump_target(pc).expect("J has target"),
            Jal { .. } => {
                self.set_reg(Reg::RA, pc.wrapping_add(4));
                next_pc = inst.jump_target(pc).expect("Jal has target");
            }
            Jr { rs } => next_pc = self.reg(rs),
            Jalr { rd, rs } => {
                // Read rs before the link write in case rd == rs.
                let target = self.reg(rs);
                self.set_reg(rd, pc.wrapping_add(4));
                next_pc = target;
            }
            Syscall => effect = Effect::Syscall,
            Break { code } => effect = Effect::Break(code),
            _ => mem_addr = self.execute_data(inst, mem)?,
        }
        self.pc = next_pc;
        Ok(StepInfo {
            pc,
            inst,
            next_pc,
            taken,
            mem_addr,
            effect,
        })
    }

    /// Executes one data instruction: the ALU, immediate and shift ops,
    /// `lui`, mult/div, the HI/LO moves, and the aligned loads and
    /// stores. The PC is left alone. Returns a load's or store's
    /// effective address.
    ///
    /// This is the one definition of those instructions' semantics:
    /// [`execute`](Cpu::execute) runs them through it, and so does the
    /// array's replay of a configuration. Any other instruction (a
    /// control transfer, `syscall`, `break`, `lwl`/`lwr`/`swl`/`swr`) is
    /// not a data instruction: it changes nothing and returns
    /// `Ok(None)`.
    ///
    /// # Errors
    ///
    /// Propagates [`SimError::Misaligned`] from memory accesses, before
    /// any register is written.
    #[inline]
    pub fn execute_data(
        &mut self,
        inst: Instruction,
        mem: &mut Memory,
    ) -> Result<Option<u32>, SimError> {
        use Instruction::*;
        match inst {
            Alu { op, rd, rs, rt } => {
                let v = op.eval(self.reg(rs), self.reg(rt));
                self.set_reg(rd, v);
            }
            AluImm { op, rt, rs, imm } => {
                let v = op.eval(self.reg(rs), imm);
                self.set_reg(rt, v);
            }
            Shift { op, rd, rt, shamt } => {
                let v = op.eval(self.reg(rt), shamt as u32);
                self.set_reg(rd, v);
            }
            ShiftVar { op, rd, rt, rs } => {
                let v = op.eval(self.reg(rt), self.reg(rs));
                self.set_reg(rd, v);
            }
            Lui { rt, imm } => self.set_reg(rt, (imm as u32) << 16),
            MulDiv { op, rs, rt } => {
                let (hi, lo) = op.eval(self.reg(rs), self.reg(rt));
                self.hi = hi;
                self.lo = lo;
            }
            Mfhi { rd } => self.set_reg(rd, self.hi),
            Mflo { rd } => self.set_reg(rd, self.lo),
            Mthi { rs } => self.hi = self.reg(rs),
            Mtlo { rs } => self.lo = self.reg(rs),
            Load {
                width,
                signed,
                rt,
                base,
                offset,
            } => {
                let addr = self.reg(base).wrapping_add(offset as i32 as u32);
                let v = match (width, signed) {
                    (MemWidth::Byte, true) => mem.read_u8(addr) as i8 as i32 as u32,
                    (MemWidth::Byte, false) => mem.read_u8(addr) as u32,
                    (MemWidth::Half, true) => mem.read_u16(addr)? as i16 as i32 as u32,
                    (MemWidth::Half, false) => mem.read_u16(addr)? as u32,
                    (MemWidth::Word, _) => mem.read_u32(addr)?,
                };
                self.set_reg(rt, v);
                return Ok(Some(addr));
            }
            Store {
                width,
                rt,
                base,
                offset,
            } => {
                let addr = self.reg(base).wrapping_add(offset as i32 as u32);
                let v = self.reg(rt);
                match width {
                    MemWidth::Byte => mem.write_u8(addr, v as u8),
                    MemWidth::Half => mem.write_u16(addr, v as u16)?,
                    MemWidth::Word => mem.write_u32(addr, v)?,
                }
                return Ok(Some(addr));
            }
            LoadUnaligned { .. }
            | StoreUnaligned { .. }
            | Branch { .. }
            | J { .. }
            | Jal { .. }
            | Jr { .. }
            | Jalr { .. }
            | Syscall
            | Break { .. } => {}
        }
        Ok(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dim_mips::{AluImmOp, AluOp, BranchCond, MulDivOp};

    fn cpu_at(pc: u32) -> (Cpu, Memory) {
        let mut c = Cpu::new();
        c.pc = pc;
        (c, Memory::new())
    }

    #[test]
    fn zero_register_is_hardwired() {
        let (mut c, mut m) = cpu_at(0);
        c.execute(
            Instruction::AluImm {
                op: AluImmOp::Addiu,
                rt: Reg::ZERO,
                rs: Reg::ZERO,
                imm: 42,
            },
            &mut m,
        )
        .unwrap();
        assert_eq!(c.reg(Reg::ZERO), 0);
    }

    #[test]
    fn alu_and_pc_advance() {
        let (mut c, mut m) = cpu_at(0x400000);
        c.set_reg(Reg::T0, 7);
        c.set_reg(Reg::T1, 5);
        let info = c
            .execute(
                Instruction::Alu {
                    op: AluOp::Sub,
                    rd: Reg::T2,
                    rs: Reg::T0,
                    rt: Reg::T1,
                },
                &mut m,
            )
            .unwrap();
        assert_eq!(c.reg(Reg::T2), 2);
        assert_eq!(info.next_pc, 0x400004);
        assert_eq!(c.pc, 0x400004);
    }

    #[test]
    fn branch_taken_and_not_taken() {
        let b = Instruction::Branch {
            cond: BranchCond::Eq,
            rs: Reg::T0,
            rt: Reg::T1,
            offset: 3,
        };
        let (mut c, mut m) = cpu_at(0x1000);
        let info = c.execute(b, &mut m).unwrap();
        assert_eq!(info.taken, Some(true)); // both zero
        assert_eq!(c.pc, 0x1000 + 4 + 12);

        let (mut c, mut m) = cpu_at(0x1000);
        c.set_reg(Reg::T0, 1);
        let info = c.execute(b, &mut m).unwrap();
        assert_eq!(info.taken, Some(false));
        assert_eq!(c.pc, 0x1004);
    }

    #[test]
    fn jal_links_and_jumps() {
        let (mut c, mut m) = cpu_at(0x0040_0100);
        c.execute(
            Instruction::Jal {
                target: 0x0040_0200 >> 2,
            },
            &mut m,
        )
        .unwrap();
        assert_eq!(c.reg(Reg::RA), 0x0040_0104);
        assert_eq!(c.pc, 0x0040_0200);
    }

    #[test]
    fn jalr_same_register_uses_old_value() {
        let (mut c, mut m) = cpu_at(0x100);
        c.set_reg(Reg::T0, 0x2000);
        c.execute(
            Instruction::Jalr {
                rd: Reg::T0,
                rs: Reg::T0,
            },
            &mut m,
        )
        .unwrap();
        assert_eq!(c.pc, 0x2000);
        assert_eq!(c.reg(Reg::T0), 0x104);
    }

    #[test]
    fn load_store_roundtrip_with_sign_extension() {
        let (mut c, mut m) = cpu_at(0);
        c.set_reg(Reg::T0, 0x1000_0000);
        c.set_reg(Reg::T1, 0xfedc_ba98);
        c.execute(
            Instruction::Store {
                width: MemWidth::Word,
                rt: Reg::T1,
                base: Reg::T0,
                offset: 0,
            },
            &mut m,
        )
        .unwrap();
        c.execute(
            Instruction::Load {
                width: MemWidth::Byte,
                signed: true,
                rt: Reg::T2,
                base: Reg::T0,
                offset: 0,
            },
            &mut m,
        )
        .unwrap();
        assert_eq!(c.reg(Reg::T2), 0xffff_ff98);
        c.execute(
            Instruction::Load {
                width: MemWidth::Half,
                signed: false,
                rt: Reg::T3,
                base: Reg::T0,
                offset: 2,
            },
            &mut m,
        )
        .unwrap();
        assert_eq!(c.reg(Reg::T3), 0xfedc);
    }

    #[test]
    fn muldiv_updates_hi_lo() {
        let (mut c, mut m) = cpu_at(0);
        c.set_reg(Reg::A0, 6);
        c.set_reg(Reg::A1, 7);
        c.execute(
            Instruction::MulDiv {
                op: MulDivOp::Mult,
                rs: Reg::A0,
                rt: Reg::A1,
            },
            &mut m,
        )
        .unwrap();
        assert_eq!((c.hi, c.lo), (0, 42));
        c.execute(Instruction::Mflo { rd: Reg::V0 }, &mut m)
            .unwrap();
        assert_eq!(c.reg(Reg::V0), 42);
    }

    #[test]
    fn unaligned_load_idiom_all_offsets() {
        // The classic little-endian unaligned word load:
        //   lwr rt, 0(x) ; lwl rt, 3(x)
        for off in 0u32..4 {
            let (mut c, mut m) = cpu_at(0);
            m.write_bytes(0x1000, &[0x10, 0x32, 0x54, 0x76, 0x98, 0xba, 0xdc, 0xfe]);
            c.set_reg(Reg::A0, 0x1000 + off);
            c.execute(
                Instruction::LoadUnaligned {
                    left: false,
                    rt: Reg::T0,
                    base: Reg::A0,
                    offset: 0,
                },
                &mut m,
            )
            .unwrap();
            c.execute(
                Instruction::LoadUnaligned {
                    left: true,
                    rt: Reg::T0,
                    base: Reg::A0,
                    offset: 3,
                },
                &mut m,
            )
            .unwrap();
            let expected = u32::from_le_bytes([
                m.read_u8(0x1000 + off),
                m.read_u8(0x1001 + off),
                m.read_u8(0x1002 + off),
                m.read_u8(0x1003 + off),
            ]);
            assert_eq!(c.reg(Reg::T0), expected, "offset {off}");
        }
    }

    #[test]
    fn unaligned_store_idiom_all_offsets() {
        // swr rt, 0(x) ; swl rt, 3(x) stores an unaligned word.
        for off in 0u32..4 {
            let (mut c, mut m) = cpu_at(0);
            m.write_bytes(0x1000, &[0xaa; 8]);
            c.set_reg(Reg::A0, 0x1000 + off);
            c.set_reg(Reg::T0, 0x7654_3210);
            c.execute(
                Instruction::StoreUnaligned {
                    left: false,
                    rt: Reg::T0,
                    base: Reg::A0,
                    offset: 0,
                },
                &mut m,
            )
            .unwrap();
            c.execute(
                Instruction::StoreUnaligned {
                    left: true,
                    rt: Reg::T0,
                    base: Reg::A0,
                    offset: 3,
                },
                &mut m,
            )
            .unwrap();
            assert_eq!(
                m.read_bytes(0x1000 + off, 4),
                vec![0x10, 0x32, 0x54, 0x76],
                "offset {off}"
            );
            // Neighbouring bytes untouched.
            if off > 0 {
                assert_eq!(m.read_u8(0x1000 + off - 1), 0xaa);
            }
            assert_eq!(m.read_u8(0x1004 + off), 0xaa);
        }
    }

    #[test]
    fn aligned_lwl_lwr_load_full_word() {
        let (mut c, mut m) = cpu_at(0);
        m.write_u32(0x2000, 0xdead_beef).unwrap();
        c.set_reg(Reg::A0, 0x2000);
        // lwl at addr+3 (n=3) alone loads the whole word.
        c.execute(
            Instruction::LoadUnaligned {
                left: true,
                rt: Reg::T1,
                base: Reg::A0,
                offset: 3,
            },
            &mut m,
        )
        .unwrap();
        assert_eq!(c.reg(Reg::T1), 0xdead_beef);
        // lwr at addr (n=0) alone loads the whole word.
        c.execute(
            Instruction::LoadUnaligned {
                left: false,
                rt: Reg::T2,
                base: Reg::A0,
                offset: 0,
            },
            &mut m,
        )
        .unwrap();
        assert_eq!(c.reg(Reg::T2), 0xdead_beef);
    }

    #[test]
    fn execute_data_leaves_the_pc_and_returns_access_addresses() {
        let (mut c, mut m) = cpu_at(0x40_0000);
        c.set_reg(Reg::T0, 0x1000_0000);
        c.set_reg(Reg::T1, 0x1234_5678);
        let sw = Instruction::Store {
            width: MemWidth::Word,
            rt: Reg::T1,
            base: Reg::T0,
            offset: 8,
        };
        assert_eq!(c.execute_data(sw, &mut m), Ok(Some(0x1000_0008)));
        let lw = Instruction::Load {
            width: MemWidth::Word,
            signed: false,
            rt: Reg::T2,
            base: Reg::T0,
            offset: 8,
        };
        assert_eq!(c.execute_data(lw, &mut m), Ok(Some(0x1000_0008)));
        assert_eq!(c.reg(Reg::T2), 0x1234_5678);
        let addu = Instruction::Alu {
            op: AluOp::Addu,
            rd: Reg::T3,
            rs: Reg::T1,
            rt: Reg::T2,
        };
        assert_eq!(c.execute_data(addu, &mut m), Ok(None));
        assert_eq!(c.reg(Reg::T3), 0x2468_acf0);
        assert_eq!(c.pc, 0x40_0000);
    }

    #[test]
    fn execute_data_faults_before_writing_a_register() {
        let (mut c, mut m) = cpu_at(0x40_0000);
        c.set_reg(Reg::T0, 0x1000_0002);
        c.set_reg(Reg::T2, 7);
        let before = c.clone();
        let lw = Instruction::Load {
            width: MemWidth::Word,
            signed: false,
            rt: Reg::T2,
            base: Reg::T0,
            offset: 0,
        };
        assert_eq!(
            c.execute_data(lw, &mut m),
            Err(SimError::Misaligned {
                addr: 0x1000_0002,
                width: 4
            })
        );
        assert_eq!(c, before);
    }

    #[test]
    fn execute_data_leaves_non_data_instructions_alone() {
        let others = [
            Instruction::Branch {
                cond: BranchCond::Eq,
                rs: Reg::ZERO,
                rt: Reg::ZERO,
                offset: 4,
            },
            Instruction::J { target: 0x100 },
            Instruction::Jal { target: 0x100 },
            Instruction::Jr { rs: Reg::T0 },
            Instruction::Jalr {
                rd: Reg::RA,
                rs: Reg::T0,
            },
            Instruction::Syscall,
            Instruction::Break { code: 3 },
            Instruction::LoadUnaligned {
                left: true,
                rt: Reg::T1,
                base: Reg::T0,
                offset: 3,
            },
            Instruction::StoreUnaligned {
                left: false,
                rt: Reg::T1,
                base: Reg::T0,
                offset: 0,
            },
        ];
        for inst in others {
            let (mut c, mut m) = cpu_at(0x40_0000);
            c.set_reg(Reg::T0, 0x1000_0000);
            c.set_reg(Reg::T1, 0xdead_beef);
            let before = c.clone();
            assert_eq!(c.execute_data(inst, &mut m), Ok(None), "{inst:?}");
            assert_eq!(c, before, "{inst:?}");
            assert_eq!(m.read_u32(0x1000_0000), Ok(0), "{inst:?}");
        }
    }

    #[test]
    fn break_and_syscall_effects() {
        let (mut c, mut m) = cpu_at(0);
        let i = c.execute(Instruction::Break { code: 9 }, &mut m).unwrap();
        assert_eq!(i.effect, Effect::Break(9));
        let i = c.execute(Instruction::Syscall, &mut m).unwrap();
        assert_eq!(i.effect, Effect::Syscall);
    }
}
