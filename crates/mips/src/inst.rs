//! Decoded MIPS-I instruction model and dataflow classification helpers.

use crate::Reg;
use std::fmt;

/// A storage location read or written by an instruction.
///
/// The multiply/divide unit results live in the dedicated `HI`/`LO`
/// registers, which the binary-translation engine treats as two extra
/// context-bus lines next to the 32 general-purpose registers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DataLoc {
    /// A general-purpose register.
    Gpr(Reg),
    /// The HI special register (upper multiply result / division remainder).
    Hi,
    /// The LO special register (lower multiply result / division quotient).
    Lo,
}

impl DataLoc {
    /// A dense index in `0..34` used for dependence bitmaps
    /// (GPRs at their own index, HI at 32, LO at 33).
    pub fn dense_index(self) -> usize {
        match self {
            DataLoc::Gpr(r) => r.index(),
            DataLoc::Hi => 32,
            DataLoc::Lo => 33,
        }
    }

    /// Total number of dense indices (32 GPRs + HI + LO).
    pub const COUNT: usize = 34;

    /// The inverse of [`dense_index`](DataLoc::dense_index): recovers the
    /// location from its dense index, or `None` when out of range. Used
    /// by the snapshot wire format to round-trip live-in/write-back sets.
    pub fn from_dense_index(index: usize) -> Option<DataLoc> {
        match index {
            0..=31 => Reg::new(index as u8).map(DataLoc::Gpr),
            32 => Some(DataLoc::Hi),
            33 => Some(DataLoc::Lo),
            _ => None,
        }
    }
}

impl fmt::Display for DataLoc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataLoc::Gpr(r) => write!(f, "{r}"),
            DataLoc::Hi => write!(f, "$hi"),
            DataLoc::Lo => write!(f, "$lo"),
        }
    }
}

/// A small fixed-capacity list of [`DataLoc`]s (an instruction touches at
/// most three locations: e.g. `div` writes HI and LO; `sw` reads two GPRs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Locs {
    buf: [Option<DataLoc>; 3],
    len: u8,
}

impl Locs {
    /// An empty list.
    pub fn empty() -> Locs {
        Locs::default()
    }

    fn push(&mut self, loc: DataLoc) {
        // `$zero` never participates in dataflow: reads are constant zero and
        // writes are discarded, so dependence analysis must ignore it.
        if loc == DataLoc::Gpr(Reg::ZERO) {
            return;
        }
        self.buf[self.len as usize] = Some(loc);
        self.len += 1;
    }

    fn of(locs: &[DataLoc]) -> Locs {
        let mut out = Locs::default();
        for &l in locs {
            out.push(l);
        }
        out
    }

    /// Number of locations in the list.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterates over the locations.
    pub fn iter(&self) -> impl Iterator<Item = DataLoc> + '_ {
        self.buf.iter().take(self.len as usize).map(|l| l.unwrap())
    }

    /// Whether `loc` is present in the list.
    pub fn contains(&self, loc: DataLoc) -> bool {
        self.iter().any(|l| l == loc)
    }
}

impl IntoIterator for Locs {
    type Item = DataLoc;
    type IntoIter = std::iter::Flatten<std::iter::Take<std::array::IntoIter<Option<DataLoc>, 3>>>;

    fn into_iter(self) -> Self::IntoIter {
        self.buf.into_iter().take(self.len as usize).flatten()
    }
}

impl<'a> IntoIterator for &'a Locs {
    type Item = DataLoc;
    type IntoIter = std::iter::Map<
        std::iter::Take<std::slice::Iter<'a, Option<DataLoc>>>,
        fn(&'a Option<DataLoc>) -> DataLoc,
    >;

    fn into_iter(self) -> Self::IntoIter {
        self.buf.iter().take(self.len as usize).map(|l| l.unwrap())
    }
}

/// Three-operand register ALU operations (`R`-format, rd ← rs op rt).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AluOp {
    /// Signed addition (traps on overflow in real hardware; modelled wrapping).
    Add,
    /// Unsigned (non-trapping) addition.
    Addu,
    /// Signed subtraction.
    Sub,
    /// Unsigned (non-trapping) subtraction.
    Subu,
    /// Bitwise AND.
    And,
    /// Bitwise OR.
    Or,
    /// Bitwise XOR.
    Xor,
    /// Bitwise NOR.
    Nor,
    /// Set on less than (signed).
    Slt,
    /// Set on less than (unsigned).
    Sltu,
}

impl AluOp {
    /// Evaluates the operation on two 32-bit operands.
    pub fn eval(self, a: u32, b: u32) -> u32 {
        match self {
            AluOp::Add | AluOp::Addu => a.wrapping_add(b),
            AluOp::Sub | AluOp::Subu => a.wrapping_sub(b),
            AluOp::And => a & b,
            AluOp::Or => a | b,
            AluOp::Xor => a ^ b,
            AluOp::Nor => !(a | b),
            AluOp::Slt => ((a as i32) < (b as i32)) as u32,
            AluOp::Sltu => (a < b) as u32,
        }
    }

    /// The canonical mnemonic.
    pub fn mnemonic(self) -> &'static str {
        match self {
            AluOp::Add => "add",
            AluOp::Addu => "addu",
            AluOp::Sub => "sub",
            AluOp::Subu => "subu",
            AluOp::And => "and",
            AluOp::Or => "or",
            AluOp::Xor => "xor",
            AluOp::Nor => "nor",
            AluOp::Slt => "slt",
            AluOp::Sltu => "sltu",
        }
    }
}

/// Immediate ALU operations (`I`-format, rt ← rs op imm).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AluImmOp {
    /// Add immediate, signed semantics (modelled wrapping).
    Addi,
    /// Add immediate unsigned (non-trapping); the immediate is still
    /// sign-extended.
    Addiu,
    /// Set on less than immediate (signed compare with sign-extended imm).
    Slti,
    /// Set on less than immediate unsigned (unsigned compare with
    /// sign-extended imm).
    Sltiu,
    /// AND with zero-extended immediate.
    Andi,
    /// OR with zero-extended immediate.
    Ori,
    /// XOR with zero-extended immediate.
    Xori,
}

impl AluImmOp {
    /// Evaluates the operation given the register operand and the raw
    /// 16-bit immediate field.
    pub fn eval(self, a: u32, imm: u16) -> u32 {
        let sext = imm as i16 as i32 as u32;
        let zext = imm as u32;
        match self {
            AluImmOp::Addi | AluImmOp::Addiu => a.wrapping_add(sext),
            AluImmOp::Slti => ((a as i32) < (sext as i32)) as u32,
            AluImmOp::Sltiu => (a < sext) as u32,
            AluImmOp::Andi => a & zext,
            AluImmOp::Ori => a | zext,
            AluImmOp::Xori => a ^ zext,
        }
    }

    /// The canonical mnemonic.
    pub fn mnemonic(self) -> &'static str {
        match self {
            AluImmOp::Addi => "addi",
            AluImmOp::Addiu => "addiu",
            AluImmOp::Slti => "slti",
            AluImmOp::Sltiu => "sltiu",
            AluImmOp::Andi => "andi",
            AluImmOp::Ori => "ori",
            AluImmOp::Xori => "xori",
        }
    }
}

/// Shift operations; the shift amount is an immediate (`Sll`..) or a
/// register (`Sllv`..).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ShiftOp {
    /// Shift left logical.
    Sll,
    /// Shift right logical.
    Srl,
    /// Shift right arithmetic.
    Sra,
}

impl ShiftOp {
    /// Evaluates the shift. Only the low five bits of `amount` are used,
    /// matching hardware behaviour.
    pub fn eval(self, value: u32, amount: u32) -> u32 {
        let sh = amount & 0x1f;
        match self {
            ShiftOp::Sll => value << sh,
            ShiftOp::Srl => value >> sh,
            ShiftOp::Sra => ((value as i32) >> sh) as u32,
        }
    }

    /// The canonical mnemonic for the immediate form.
    pub fn mnemonic(self) -> &'static str {
        match self {
            ShiftOp::Sll => "sll",
            ShiftOp::Srl => "srl",
            ShiftOp::Sra => "sra",
        }
    }

    /// The canonical mnemonic for the register (variable) form.
    pub fn variable_mnemonic(self) -> &'static str {
        match self {
            ShiftOp::Sll => "sllv",
            ShiftOp::Srl => "srlv",
            ShiftOp::Sra => "srav",
        }
    }
}

/// Multiply/divide unit operations writing HI/LO.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MulDivOp {
    /// Signed 32×32→64 multiply.
    Mult,
    /// Unsigned 32×32→64 multiply.
    Multu,
    /// Signed division (LO = quotient, HI = remainder).
    Div,
    /// Unsigned division.
    Divu,
}

impl MulDivOp {
    /// Evaluates the operation, returning `(hi, lo)`.
    ///
    /// Division by zero leaves unspecified results on hardware; we return
    /// `(a, 0xffff_ffff)`-style values matching common implementations so
    /// behaviour is deterministic.
    pub fn eval(self, a: u32, b: u32) -> (u32, u32) {
        match self {
            MulDivOp::Mult => {
                let p = (a as i32 as i64).wrapping_mul(b as i32 as i64) as u64;
                ((p >> 32) as u32, p as u32)
            }
            MulDivOp::Multu => {
                let p = (a as u64) * (b as u64);
                ((p >> 32) as u32, p as u32)
            }
            MulDivOp::Div => {
                if b == 0 {
                    (a, if (a as i32) < 0 { 1 } else { u32::MAX })
                } else if a == 0x8000_0000 && b == u32::MAX {
                    // i32::MIN / -1 overflows; hardware leaves MIN, 0.
                    (0, 0x8000_0000)
                } else {
                    let (q, r) = ((a as i32) / (b as i32), (a as i32) % (b as i32));
                    (r as u32, q as u32)
                }
            }
            MulDivOp::Divu => {
                if b == 0 {
                    (a, u32::MAX)
                } else {
                    (a % b, a / b)
                }
            }
        }
    }

    /// Whether this is a division.
    pub fn is_div(self) -> bool {
        matches!(self, MulDivOp::Div | MulDivOp::Divu)
    }

    /// The canonical mnemonic.
    pub fn mnemonic(self) -> &'static str {
        match self {
            MulDivOp::Mult => "mult",
            MulDivOp::Multu => "multu",
            MulDivOp::Div => "div",
            MulDivOp::Divu => "divu",
        }
    }
}

/// Memory access widths.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemWidth {
    /// One byte.
    Byte,
    /// Two bytes (halfword).
    Half,
    /// Four bytes (word).
    Word,
}

impl MemWidth {
    /// Access size in bytes.
    pub fn bytes(self) -> u32 {
        match self {
            MemWidth::Byte => 1,
            MemWidth::Half => 2,
            MemWidth::Word => 4,
        }
    }
}

/// Branch comparison conditions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BranchCond {
    /// `beq` — rs == rt.
    Eq,
    /// `bne` — rs != rt.
    Ne,
    /// `blez` — rs <= 0 (signed).
    Lez,
    /// `bgtz` — rs > 0 (signed).
    Gtz,
    /// `bltz` — rs < 0 (signed).
    Ltz,
    /// `bgez` — rs >= 0 (signed).
    Gez,
}

impl BranchCond {
    /// Evaluates the condition. `b` is ignored for the compare-with-zero
    /// conditions.
    pub fn eval(self, a: u32, b: u32) -> bool {
        match self {
            BranchCond::Eq => a == b,
            BranchCond::Ne => a != b,
            BranchCond::Lez => (a as i32) <= 0,
            BranchCond::Gtz => (a as i32) > 0,
            BranchCond::Ltz => (a as i32) < 0,
            BranchCond::Gez => (a as i32) >= 0,
        }
    }

    /// Whether the condition compares two registers (`beq`/`bne`).
    pub fn uses_rt(self) -> bool {
        matches!(self, BranchCond::Eq | BranchCond::Ne)
    }

    /// The canonical mnemonic.
    pub fn mnemonic(self) -> &'static str {
        match self {
            BranchCond::Eq => "beq",
            BranchCond::Ne => "bne",
            BranchCond::Lez => "blez",
            BranchCond::Gtz => "bgtz",
            BranchCond::Ltz => "bltz",
            BranchCond::Gez => "bgez",
        }
    }
}

/// A decoded MIPS-I instruction.
///
/// This is the form produced by the [decoder](crate::decode) and the
/// [assembler](crate::asm), consumed by the simulator and by the DIM
/// binary-translation engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Instruction {
    /// Register-register ALU operation: `rd ← rs op rt`.
    Alu {
        /// Operation.
        op: AluOp,
        /// Destination.
        rd: Reg,
        /// First source.
        rs: Reg,
        /// Second source.
        rt: Reg,
    },
    /// Immediate ALU operation: `rt ← rs op imm`.
    AluImm {
        /// Operation.
        op: AluImmOp,
        /// Destination.
        rt: Reg,
        /// Source.
        rs: Reg,
        /// Raw 16-bit immediate (sign/zero extension depends on `op`).
        imm: u16,
    },
    /// Constant-amount shift: `rd ← rt shift shamt`.
    Shift {
        /// Shift kind.
        op: ShiftOp,
        /// Destination.
        rd: Reg,
        /// Value to shift.
        rt: Reg,
        /// Shift amount in `0..32`.
        shamt: u8,
    },
    /// Register-amount shift: `rd ← rt shift rs`.
    ShiftVar {
        /// Shift kind.
        op: ShiftOp,
        /// Destination.
        rd: Reg,
        /// Value to shift.
        rt: Reg,
        /// Register holding the shift amount (low 5 bits used).
        rs: Reg,
    },
    /// Load upper immediate: `rt ← imm << 16`.
    Lui {
        /// Destination.
        rt: Reg,
        /// Immediate placed in the upper halfword.
        imm: u16,
    },
    /// Multiply/divide writing HI and LO.
    MulDiv {
        /// Operation.
        op: MulDivOp,
        /// First operand.
        rs: Reg,
        /// Second operand.
        rt: Reg,
    },
    /// Move from HI: `rd ← HI`.
    Mfhi {
        /// Destination.
        rd: Reg,
    },
    /// Move from LO: `rd ← LO`.
    Mflo {
        /// Destination.
        rd: Reg,
    },
    /// Move to HI: `HI ← rs`.
    Mthi {
        /// Source.
        rs: Reg,
    },
    /// Move to LO: `LO ← rs`.
    Mtlo {
        /// Source.
        rs: Reg,
    },
    /// Memory load: `rt ← mem[rs + offset]`.
    Load {
        /// Access width.
        width: MemWidth,
        /// Whether sub-word loads sign-extend (`lb`/`lh`) or zero-extend
        /// (`lbu`/`lhu`). Ignored for word loads.
        signed: bool,
        /// Destination.
        rt: Reg,
        /// Base address register.
        base: Reg,
        /// Signed byte offset.
        offset: i16,
    },
    /// Unaligned-load helper (`lwl`/`lwr`): merges part of a word into
    /// `rt`. Note these *read* `rt` as well.
    LoadUnaligned {
        /// `true` for `lwl`, `false` for `lwr`.
        left: bool,
        /// Destination (and merge source).
        rt: Reg,
        /// Base address register.
        base: Reg,
        /// Signed byte offset.
        offset: i16,
    },
    /// Unaligned-store helper (`swl`/`swr`): stores part of `rt`.
    StoreUnaligned {
        /// `true` for `swl`, `false` for `swr`.
        left: bool,
        /// Value register.
        rt: Reg,
        /// Base address register.
        base: Reg,
        /// Signed byte offset.
        offset: i16,
    },
    /// Memory store: `mem[rs + offset] ← rt`.
    Store {
        /// Access width.
        width: MemWidth,
        /// Value register.
        rt: Reg,
        /// Base address register.
        base: Reg,
        /// Signed byte offset.
        offset: i16,
    },
    /// Conditional branch. `offset` is in instructions (words) relative to
    /// the instruction after the branch, as encoded.
    Branch {
        /// Condition.
        cond: BranchCond,
        /// First compared register.
        rs: Reg,
        /// Second compared register (`$zero` for compare-with-zero forms).
        rt: Reg,
        /// Encoded word offset.
        offset: i16,
    },
    /// Unconditional jump to `(pc & 0xf000_0000) | (target << 2)`.
    J {
        /// 26-bit word target field.
        target: u32,
    },
    /// Jump and link (`$ra ← return address`).
    Jal {
        /// 26-bit word target field.
        target: u32,
    },
    /// Jump to register.
    Jr {
        /// Register holding the target address.
        rs: Reg,
    },
    /// Jump to register and link into `rd`.
    Jalr {
        /// Link destination (usually `$ra`).
        rd: Reg,
        /// Register holding the target address.
        rs: Reg,
    },
    /// System call (service selected via `$v0` by convention).
    Syscall,
    /// Breakpoint with a 20-bit code field.
    Break {
        /// Code field (used by the runtime as a halt reason).
        code: u32,
    },
}

/// The functional-unit class an instruction needs in the reconfigurable
/// array, or the reason it cannot be mapped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FuClass {
    /// Simple ALU / shifter / comparator operation (one array "level").
    Alu,
    /// Multiplier (multi-cycle unit).
    Multiplier,
    /// Load/store unit (memory-port limited).
    LoadStore,
    /// Branches end a basic block; with speculation they become gating
    /// compares inside the array.
    Branch,
    /// Not mappable to the array (div, jumps, syscall, ...).
    Unsupported,
}

impl Instruction {
    /// Canonical no-operation (`sll $zero, $zero, 0`).
    pub const NOP: Instruction = Instruction::Shift {
        op: ShiftOp::Sll,
        rd: Reg::ZERO,
        rt: Reg::ZERO,
        shamt: 0,
    };

    /// Locations read by this instruction (excluding `$zero`).
    pub fn reads(&self) -> Locs {
        use Instruction::*;
        match *self {
            Alu { rs, rt, .. } => Locs::of(&[DataLoc::Gpr(rs), DataLoc::Gpr(rt)]),
            AluImm { rs, .. } => Locs::of(&[DataLoc::Gpr(rs)]),
            Shift { rt, .. } => Locs::of(&[DataLoc::Gpr(rt)]),
            ShiftVar { rt, rs, .. } => Locs::of(&[DataLoc::Gpr(rt), DataLoc::Gpr(rs)]),
            Lui { .. } => Locs::empty(),
            MulDiv { rs, rt, .. } => Locs::of(&[DataLoc::Gpr(rs), DataLoc::Gpr(rt)]),
            Mfhi { .. } => Locs::of(&[DataLoc::Hi]),
            Mflo { .. } => Locs::of(&[DataLoc::Lo]),
            Mthi { rs } | Mtlo { rs } => Locs::of(&[DataLoc::Gpr(rs)]),
            Load { base, .. } => Locs::of(&[DataLoc::Gpr(base)]),
            // lwl/lwr merge into rt, so they read it too.
            LoadUnaligned { rt, base, .. } => Locs::of(&[DataLoc::Gpr(rt), DataLoc::Gpr(base)]),
            Store { rt, base, .. } | StoreUnaligned { rt, base, .. } => {
                Locs::of(&[DataLoc::Gpr(rt), DataLoc::Gpr(base)])
            }
            Branch { cond, rs, rt, .. } => {
                if cond.uses_rt() {
                    Locs::of(&[DataLoc::Gpr(rs), DataLoc::Gpr(rt)])
                } else {
                    Locs::of(&[DataLoc::Gpr(rs)])
                }
            }
            J { .. } | Jal { .. } | Syscall | Break { .. } => Locs::empty(),
            Jr { rs } | Jalr { rs, .. } => Locs::of(&[DataLoc::Gpr(rs)]),
        }
    }

    /// Locations written by this instruction (excluding `$zero`).
    pub fn writes(&self) -> Locs {
        use Instruction::*;
        match *self {
            Alu { rd, .. }
            | Shift { rd, .. }
            | ShiftVar { rd, .. }
            | Mfhi { rd }
            | Mflo { rd }
            | Jalr { rd, .. } => Locs::of(&[DataLoc::Gpr(rd)]),
            AluImm { rt, .. } | Lui { rt, .. } | Load { rt, .. } | LoadUnaligned { rt, .. } => {
                Locs::of(&[DataLoc::Gpr(rt)])
            }
            MulDiv { .. } => Locs::of(&[DataLoc::Hi, DataLoc::Lo]),
            Mthi { .. } => Locs::of(&[DataLoc::Hi]),
            Mtlo { .. } => Locs::of(&[DataLoc::Lo]),
            Jal { .. } => Locs::of(&[DataLoc::Gpr(Reg::RA)]),
            Store { .. }
            | StoreUnaligned { .. }
            | Branch { .. }
            | J { .. }
            | Jr { .. }
            | Syscall
            | Break { .. } => Locs::empty(),
        }
    }

    /// Whether this instruction transfers control (branch or jump).
    pub fn is_control(&self) -> bool {
        use Instruction::*;
        matches!(
            self,
            Branch { .. } | J { .. } | Jal { .. } | Jr { .. } | Jalr { .. }
        )
    }

    /// Whether this is a conditional branch.
    pub fn is_branch(&self) -> bool {
        matches!(self, Instruction::Branch { .. })
    }

    /// Whether this is a memory access.
    pub fn is_mem(&self) -> bool {
        matches!(
            self,
            Instruction::Load { .. }
                | Instruction::Store { .. }
                | Instruction::LoadUnaligned { .. }
                | Instruction::StoreUnaligned { .. }
        )
    }

    /// The functional-unit class needed to execute this instruction in the
    /// reconfigurable array.
    pub fn fu_class(&self) -> FuClass {
        use Instruction::*;
        match self {
            Alu { .. }
            | AluImm { .. }
            | Shift { .. }
            | ShiftVar { .. }
            | Lui { .. }
            | Mfhi { .. }
            | Mflo { .. }
            | Mthi { .. }
            | Mtlo { .. } => FuClass::Alu,
            MulDiv { op, .. } => {
                if op.is_div() {
                    // The array has no divider (paper §4.1: ALUs, shifters,
                    // multipliers and LD/ST units only).
                    FuClass::Unsupported
                } else {
                    FuClass::Multiplier
                }
            }
            Load { .. } | Store { .. } => FuClass::LoadStore,
            // The array's LD/ST units handle whole accesses only; the
            // partial-word merges stay on the processor.
            LoadUnaligned { .. } | StoreUnaligned { .. } => FuClass::Unsupported,
            Branch { .. } => FuClass::Branch,
            J { .. } | Jal { .. } | Jr { .. } | Jalr { .. } | Syscall | Break { .. } => {
                FuClass::Unsupported
            }
        }
    }

    /// For PC-relative branches, the absolute target given the branch's own
    /// address. Returns `None` for non-branches.
    pub fn branch_target(&self, pc: u32) -> Option<u32> {
        match self {
            Instruction::Branch { offset, .. } => Some(
                pc.wrapping_add(4)
                    .wrapping_add(((*offset as i32) << 2) as u32),
            ),
            _ => None,
        }
    }

    /// For absolute jumps (`j`/`jal`), the target address given the jump's
    /// own address.
    pub fn jump_target(&self, pc: u32) -> Option<u32> {
        match self {
            Instruction::J { target } | Instruction::Jal { target } => {
                Some((pc.wrapping_add(4) & 0xf000_0000) | (target << 2))
            }
            _ => None,
        }
    }

    /// The *encoded* destination register, including `$zero`. Unlike
    /// [`writes`](Instruction::writes) — which models architectural
    /// effect and therefore drops `$zero` — this reports what the
    /// instruction word says, so static analyzers can flag suspicious
    /// writes to the hardwired zero register. `jal`'s implicit `$ra` and
    /// HI/LO destinations are not encoded register fields and return
    /// `None`.
    pub fn dest_gpr(&self) -> Option<Reg> {
        use Instruction::*;
        match *self {
            Alu { rd, .. }
            | Shift { rd, .. }
            | ShiftVar { rd, .. }
            | Mfhi { rd }
            | Mflo { rd }
            | Jalr { rd, .. } => Some(rd),
            AluImm { rt, .. } | Lui { rt, .. } | Load { rt, .. } | LoadUnaligned { rt, .. } => {
                Some(rt)
            }
            _ => None,
        }
    }

    /// Whether this is the canonical no-op (`sll $zero, $zero, 0`).
    pub fn is_nop(&self) -> bool {
        *self == Instruction::NOP
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_register_never_in_dataflow() {
        let i = Instruction::Alu {
            op: AluOp::Addu,
            rd: Reg::ZERO,
            rs: Reg::ZERO,
            rt: Reg::T0,
        };
        assert_eq!(i.writes().len(), 0);
        let reads: Vec<_> = i.reads().iter().collect();
        assert_eq!(reads, vec![DataLoc::Gpr(Reg::T0)]);
    }

    #[test]
    fn muldiv_writes_hi_and_lo() {
        let i = Instruction::MulDiv {
            op: MulDivOp::Mult,
            rs: Reg::A0,
            rt: Reg::A1,
        };
        assert!(i.writes().contains(DataLoc::Hi));
        assert!(i.writes().contains(DataLoc::Lo));
        assert_eq!(i.fu_class(), FuClass::Multiplier);
    }

    #[test]
    fn div_is_unsupported_in_array() {
        let i = Instruction::MulDiv {
            op: MulDivOp::Div,
            rs: Reg::A0,
            rt: Reg::A1,
        };
        assert_eq!(i.fu_class(), FuClass::Unsupported);
    }

    #[test]
    fn alu_eval_matches_semantics() {
        assert_eq!(AluOp::Add.eval(2, 3), 5);
        assert_eq!(AluOp::Sub.eval(2, 3), u32::MAX);
        assert_eq!(AluOp::Slt.eval(u32::MAX, 0), 1); // -1 < 0 signed
        assert_eq!(AluOp::Sltu.eval(u32::MAX, 0), 0);
        assert_eq!(AluOp::Nor.eval(0, 0), u32::MAX);
    }

    #[test]
    fn imm_ops_extend_correctly() {
        assert_eq!(AluImmOp::Addiu.eval(10, 0xffff), 9); // -1 sign-extended
        assert_eq!(AluImmOp::Ori.eval(0, 0xffff), 0xffff); // zero-extended
        assert_eq!(AluImmOp::Slti.eval(0, 0xffff), 0); // 0 < -1 is false
        assert_eq!(AluImmOp::Sltiu.eval(0, 0xffff), 1); // 0 < 0xffffffff
    }

    #[test]
    fn shift_masks_amount() {
        assert_eq!(ShiftOp::Sll.eval(1, 33), 2);
        assert_eq!(ShiftOp::Sra.eval(0x8000_0000, 31), u32::MAX);
        assert_eq!(ShiftOp::Srl.eval(0x8000_0000, 31), 1);
    }

    #[test]
    fn muldiv_eval_div_by_zero_is_deterministic() {
        assert_eq!(MulDivOp::Divu.eval(7, 0), (7, u32::MAX));
        assert_eq!(MulDivOp::Div.eval(0x8000_0000, u32::MAX), (0, 0x8000_0000));
        assert_eq!(MulDivOp::Div.eval(7, 2), (1, 3));
        assert_eq!(
            MulDivOp::Div.eval((-7i32) as u32, 2),
            ((-1i32) as u32, (-3i32) as u32)
        );
    }

    #[test]
    fn mult_eval_full_width() {
        let (hi, lo) = MulDivOp::Multu.eval(0xffff_ffff, 2);
        assert_eq!((hi, lo), (1, 0xffff_fffe));
        let (hi, lo) = MulDivOp::Mult.eval((-3i32) as u32, 4);
        assert_eq!(((hi as i64) << 32 | lo as i64), -12);
    }

    #[test]
    fn branch_target_computation() {
        let b = Instruction::Branch {
            cond: BranchCond::Eq,
            rs: Reg::T0,
            rt: Reg::T1,
            offset: -2,
        };
        assert_eq!(b.branch_target(0x100), Some(0x100 + 4 - 8));
    }

    #[test]
    fn jump_target_uses_region_bits() {
        let j = Instruction::J { target: 0x40 };
        assert_eq!(j.jump_target(0x1000_0000), Some(0x1000_0100));
    }

    #[test]
    fn branch_cond_eval() {
        assert!(BranchCond::Lez.eval(0, 0));
        assert!(BranchCond::Lez.eval((-5i32) as u32, 0));
        assert!(!BranchCond::Gtz.eval(0, 0));
        assert!(BranchCond::Gez.eval(0, 0));
        assert!(BranchCond::Ltz.eval(0x8000_0000, 0));
        assert!(BranchCond::Ne.eval(1, 2));
    }

    #[test]
    fn nop_constant_is_inert() {
        assert_eq!(Instruction::NOP.reads().len(), 0);
        assert_eq!(Instruction::NOP.writes().len(), 0);
        assert_eq!(Instruction::NOP.fu_class(), FuClass::Alu);
    }
}
