//! The DIM detection tables (paper §4.2).
//!
//! The hardware keeps, per array row, a bitmap of target registers (the
//! *dependence table*): an incoming instruction's sources are compared
//! against the bitmaps to find the first row where it can be allocated
//! without violating a RAW dependence. We model the same information as
//! the latest producing row per architectural location, which answers the
//! allocation query in O(sources) — bit-for-bit equivalent to scanning
//! the bitmaps.
//!
//! Memory ordering: addresses are unknown at translation time, so memory
//! operations keep program order — each memory op is allocated at or
//! below the row of the previous one, and the LD/ST units of one row
//! (the memory ports) issue their accesses in program order within that
//! row's cycle. Loads therefore always observe earlier stores, without
//! serializing one row per access.

use dim_mips::{DataLoc, Instruction};

/// Per-candidate-configuration dependence state.
#[derive(Debug, Clone)]
pub struct DependenceTable {
    /// Row of the most recent producer of each dense location, if any.
    producer_row: [Option<u32>; DataLoc::COUNT],
    /// Row of the most recent memory operation (program-order fence).
    last_mem_row: Option<u32>,
}

impl Default for DependenceTable {
    fn default() -> Self {
        DependenceTable::new()
    }
}

impl DependenceTable {
    /// Creates an empty table (no producers).
    pub fn new() -> DependenceTable {
        DependenceTable {
            producer_row: [None; DataLoc::COUNT],
            last_mem_row: None,
        }
    }

    /// The earliest row `inst` may be allocated to, given RAW
    /// dependences on its register sources and memory ordering.
    pub fn min_row(&self, inst: &Instruction) -> u32 {
        let mut row = 0;
        for src in inst.reads().iter() {
            if let Some(p) = self.producer_row[src.dense_index()] {
                row = row.max(p + 1);
            }
        }
        if inst.is_mem() {
            if let Some(m) = self.last_mem_row {
                // Same row allowed: the row's memory ports issue in
                // program order within the cycle.
                row = row.max(m);
            }
        }
        row
    }

    /// Records that `inst` was allocated at `row`, updating producer rows
    /// for its writes and the memory-ordering fences.
    pub fn record(&mut self, inst: &Instruction, row: u32) {
        for dst in inst.writes().iter() {
            self.producer_row[dst.dense_index()] = Some(row);
        }
        if inst.is_mem() {
            self.last_mem_row = Some(self.last_mem_row.map_or(row, |m| m.max(row)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dim_mips::{AluOp, MemWidth, Reg};

    fn add(rd: Reg, rs: Reg, rt: Reg) -> Instruction {
        Instruction::Alu {
            op: AluOp::Addu,
            rd,
            rs,
            rt,
        }
    }

    fn lw(rt: Reg, base: Reg) -> Instruction {
        Instruction::Load {
            width: MemWidth::Word,
            signed: false,
            rt,
            base,
            offset: 0,
        }
    }

    fn sw(rt: Reg, base: Reg) -> Instruction {
        Instruction::Store {
            width: MemWidth::Word,
            rt,
            base,
            offset: 0,
        }
    }

    #[test]
    fn raw_dependence_pushes_down() {
        let mut t = DependenceTable::new();
        let i1 = add(Reg::T0, Reg::A0, Reg::A1);
        assert_eq!(t.min_row(&i1), 0);
        t.record(&i1, 0);
        let i2 = add(Reg::T1, Reg::T0, Reg::A1); // reads T0
        assert_eq!(t.min_row(&i2), 1);
        t.record(&i2, 1);
        let i3 = add(Reg::T2, Reg::A2, Reg::A3); // independent
        assert_eq!(t.min_row(&i3), 0);
    }

    #[test]
    fn war_and_waw_do_not_constrain() {
        let mut t = DependenceTable::new();
        t.record(&add(Reg::T0, Reg::A0, Reg::A1), 3);
        // WAW on T0 and WAR on A0: false dependencies are renamed away.
        let waw = add(Reg::T0, Reg::A2, Reg::A3);
        assert_eq!(t.min_row(&waw), 0);
    }

    #[test]
    fn memory_ops_keep_program_order_by_row() {
        let mut t = DependenceTable::new();
        let l1 = lw(Reg::T0, Reg::A0);
        t.record(&l1, 0);
        let l2 = lw(Reg::T1, Reg::A1);
        assert_eq!(t.min_row(&l2), 0); // may share the row (ports ordered)
        t.record(&l2, 0);
        let s1 = sw(Reg::T2, Reg::A2);
        assert_eq!(t.min_row(&s1), 0); // still row 0: issued after by port order
        t.record(&s1, 3); // placed further down by a RAW elsewhere
        let l3 = lw(Reg::T3, Reg::A3);
        assert_eq!(t.min_row(&l3), 3); // never above an earlier memory op
                                       // RAW on the loaded value still forces the next row.
        t.record(&l3, 3);
        let use_load = add(Reg::T5, Reg::T3, Reg::A0);
        assert_eq!(t.min_row(&use_load), 4);
    }

    #[test]
    fn hi_lo_tracked_like_registers() {
        let mut t = DependenceTable::new();
        let mult = Instruction::MulDiv {
            op: dim_mips::MulDivOp::Mult,
            rs: Reg::A0,
            rt: Reg::A1,
        };
        t.record(&mult, 2);
        let mflo = Instruction::Mflo { rd: Reg::T0 };
        assert_eq!(t.min_row(&mflo), 3);
        assert_eq!(t.min_row(&Instruction::Mfhi { rd: Reg::T1 }), 3);
    }
}
