//! Cycle-cost model of the scalar five-stage pipeline.
//!
//! The baseline processor is a Minimips-class R3000: single issue, one
//! instruction per cycle when nothing stalls. The model charges the
//! classic penalties — a load-use interlock bubble, a flush on taken
//! control transfers, and multi-cycle multiply/divide — and assumes
//! perfect instruction/data caches with single-cycle hits, exactly like
//! the paper ("the operations that depend on the result of a load are
//! allocated considering a cache hit as the total load delay").

use dim_mips::Instruction;

/// Per-event cycle costs of the scalar pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipelineCosts {
    /// Cycles charged to every instruction.
    pub base: u64,
    /// Bubble when an instruction consumes the value loaded by the
    /// immediately preceding load.
    pub load_use_stall: u64,
    /// Flush penalty for a taken branch.
    pub taken_branch_penalty: u64,
    /// Flush penalty for unconditional jumps (j/jal/jr/jalr).
    pub jump_penalty: u64,
    /// Extra cycles (beyond `base`) for a multiply.
    pub mult_extra: u64,
    /// Extra cycles (beyond `base`) for a divide.
    pub div_extra: u64,
}

impl Default for PipelineCosts {
    fn default() -> Self {
        PipelineCosts {
            base: 1,
            load_use_stall: 1,
            taken_branch_penalty: 1,
            jump_penalty: 1,
            mult_extra: 3,
            div_extra: 15,
        }
    }
}

impl PipelineCosts {
    /// Cycles for one instruction.
    ///
    /// `taken` is the branch outcome (for conditional branches) and
    /// `load_use_hazard` whether the previous instruction was a load whose
    /// destination this instruction reads.
    pub fn cycles(&self, inst: &Instruction, taken: Option<bool>, load_use_hazard: bool) -> u64 {
        let mut c = self.base;
        if load_use_hazard {
            c += self.load_use_stall;
        }
        match inst {
            Instruction::MulDiv { op, .. } => {
                c += if op.is_div() {
                    self.div_extra
                } else {
                    self.mult_extra
                };
            }
            Instruction::Branch { .. } if taken == Some(true) => {
                c += self.taken_branch_penalty;
            }
            Instruction::J { .. }
            | Instruction::Jal { .. }
            | Instruction::Jr { .. }
            | Instruction::Jalr { .. } => {
                c += self.jump_penalty;
            }
            _ => {}
        }
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dim_mips::{AluOp, BranchCond, Reg};

    #[test]
    fn default_costs_match_r3000_expectations() {
        let c = PipelineCosts::default();
        let add = Instruction::Alu {
            op: AluOp::Addu,
            rd: Reg::T0,
            rs: Reg::T1,
            rt: Reg::T2,
        };
        assert_eq!(c.cycles(&add, None, false), 1);
        assert_eq!(c.cycles(&add, None, true), 2);

        let br = Instruction::Branch {
            cond: BranchCond::Eq,
            rs: Reg::T0,
            rt: Reg::T1,
            offset: 1,
        };
        assert_eq!(c.cycles(&br, Some(false), false), 1);
        assert_eq!(c.cycles(&br, Some(true), false), 2);

        let mult = Instruction::MulDiv {
            op: dim_mips::MulDivOp::Mult,
            rs: Reg::T0,
            rt: Reg::T1,
        };
        assert_eq!(c.cycles(&mult, None, false), 4);
        let div = Instruction::MulDiv {
            op: dim_mips::MulDivOp::Div,
            rs: Reg::T0,
            rt: Reg::T1,
        };
        assert_eq!(c.cycles(&div, None, false), 16);

        let jr = Instruction::Jr { rs: Reg::RA };
        assert_eq!(c.cycles(&jr, None, false), 2);
    }
}
