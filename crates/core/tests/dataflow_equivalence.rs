//! Placement-correctness property: for random instruction sequences,
//! translating them with the DIM engine and then executing the resulting
//! configuration *from its placement* (row by row, renamed operands,
//! gated stores — `dim_cgra::execute_dataflow`) must produce exactly the
//! state sequential execution produces. This is the test that would
//! catch a dependence-table or placement bug even though the coupled
//! system's replay path wouldn't care.

use dim_cgra::{execute_dataflow, ArrayShape, EntryContext, ExecError, ExecMemory};
use dim_core::{BimodalPredictor, Translator, TranslatorOptions};
use dim_mips::Instruction::{Alu, AluImm, Load, Lui, Mfhi, Mflo, MulDiv, Shift, Store};
use dim_mips::{AluImmOp, AluOp, DataLoc, Instruction, MemWidth, MulDivOp, Reg, ShiftOp};
use dim_mips_sim::{Effect, StepInfo};
use proptest::prelude::*;
use std::collections::HashMap;

/// Scratch memory base; generated addresses stay inside one page.
const MEM_BASE: u32 = 0x1000_0000;

fn any_reg() -> impl Strategy<Value = Reg> {
    (0u8..32).prop_map(|i| Reg::new(i).unwrap())
}

/// Destination registers exclude `$k0`, which the harness pins to the
/// scratch page base so memory ops stay aligned and in range.
fn dst_reg() -> impl Strategy<Value = Reg> {
    (0u8..31).prop_map(|i| Reg::new(if i >= 26 { i + 1 } else { i }).unwrap())
}

fn any_inst() -> impl Strategy<Value = Instruction> {
    let alu = prop_oneof![
        Just(AluOp::Addu),
        Just(AluOp::Subu),
        Just(AluOp::And),
        Just(AluOp::Or),
        Just(AluOp::Xor),
        Just(AluOp::Nor),
        Just(AluOp::Slt),
        Just(AluOp::Sltu)
    ];
    let alui = prop_oneof![
        Just(AluImmOp::Addiu),
        Just(AluImmOp::Andi),
        Just(AluImmOp::Ori),
        Just(AluImmOp::Xori),
        Just(AluImmOp::Slti)
    ];
    let shift = prop_oneof![Just(ShiftOp::Sll), Just(ShiftOp::Srl), Just(ShiftOp::Sra)];
    prop_oneof![
        (alu, dst_reg(), any_reg(), any_reg()).prop_map(|(op, rd, rs, rt)| Instruction::Alu {
            op,
            rd,
            rs,
            rt
        }),
        (alui, dst_reg(), any_reg(), any::<u16>())
            .prop_map(|(op, rt, rs, imm)| Instruction::AluImm { op, rt, rs, imm }),
        (shift, dst_reg(), any_reg(), 0u8..32).prop_map(|(op, rd, rt, shamt)| Instruction::Shift {
            op,
            rd,
            rt,
            shamt
        }),
        (dst_reg(), any::<u16>()).prop_map(|(rt, imm)| Instruction::Lui { rt, imm }),
        (
            prop_oneof![Just(MulDivOp::Mult), Just(MulDivOp::Multu)],
            any_reg(),
            any_reg()
        )
            .prop_map(|(op, rs, rt)| Instruction::MulDiv { op, rs, rt }),
        dst_reg().prop_map(|rd| Instruction::Mflo { rd }),
        dst_reg().prop_map(|rd| Instruction::Mfhi { rd }),
        // Memory ops against a fixed page: base is overwritten to a safe
        // register ($gp-like $k0) by the test harness below.
        (0u32..64, dst_reg()).prop_map(|(slot, rt)| Instruction::Load {
            width: MemWidth::Word,
            signed: false,
            rt,
            base: Reg::K0,
            offset: (slot * 4) as i16,
        }),
        (0u32..64, any_reg()).prop_map(|(slot, rt)| Instruction::Store {
            width: MemWidth::Word,
            rt,
            base: Reg::K0,
            offset: (slot * 4) as i16,
        }),
        (0u32..64, dst_reg()).prop_map(|(slot, rt)| Instruction::Load {
            width: MemWidth::Byte,
            signed: true,
            rt,
            base: Reg::K0,
            offset: (slot * 4) as i16,
        }),
    ]
}

/// Sequential reference: execute in program order over a context + map
/// memory (same semantics as the CPU, restricted to the generated ops).
/// Stops at the first access that is not naturally aligned, as the CPU
/// would; generated ops never make one, since `$k0` is never a
/// destination, but a recorded case overwrites `$k0` with a loaded word.
fn sequential(
    insts: &[Instruction],
    ctx: &EntryContext,
    mem: &HashMap<u32, u8>,
) -> Result<(EntryContext, HashMap<u32, u8>), ExecError> {
    let mut c = ctx.clone();
    let mut m = mem.clone();
    let aligned = |addr: u32, width: MemWidth| {
        let width = width.bytes();
        if addr.is_multiple_of(width) {
            Ok(addr)
        } else {
            Err(ExecError::Misaligned { addr, width })
        }
    };
    for inst in insts {
        use Instruction::*;
        match *inst {
            Alu { op, rd, rs, rt } => {
                let v = op.eval(c.read(DataLoc::Gpr(rs)), c.read(DataLoc::Gpr(rt)));
                c.write(DataLoc::Gpr(rd), v);
            }
            AluImm { op, rt, rs, imm } => {
                let v = op.eval(c.read(DataLoc::Gpr(rs)), imm);
                c.write(DataLoc::Gpr(rt), v);
            }
            Shift { op, rd, rt, shamt } => {
                let v = op.eval(c.read(DataLoc::Gpr(rt)), shamt as u32);
                c.write(DataLoc::Gpr(rd), v);
            }
            Lui { rt, imm } => c.write(DataLoc::Gpr(rt), (imm as u32) << 16),
            MulDiv { op, rs, rt } => {
                let (hi, lo) = op.eval(c.read(DataLoc::Gpr(rs)), c.read(DataLoc::Gpr(rt)));
                c.write(DataLoc::Hi, hi);
                c.write(DataLoc::Lo, lo);
            }
            Mfhi { rd } => {
                let value = c.read(DataLoc::Hi);
                c.write(DataLoc::Gpr(rd), value);
            }
            Mflo { rd } => {
                let value = c.read(DataLoc::Lo);
                c.write(DataLoc::Gpr(rd), value);
            }
            Load {
                width,
                signed,
                rt,
                base,
                offset,
            } => {
                let addr = c
                    .read(DataLoc::Gpr(base))
                    .wrapping_add(offset as i32 as u32);
                let addr = aligned(addr, width)?;
                let v = match (width, signed) {
                    (MemWidth::Byte, true) => m.read_u8(addr) as i8 as i32 as u32,
                    (MemWidth::Byte, false) => m.read_u8(addr) as u32,
                    (MemWidth::Word, _) => u32::from_le_bytes([
                        m.read_u8(addr),
                        m.read_u8(addr + 1),
                        m.read_u8(addr + 2),
                        m.read_u8(addr + 3),
                    ]),
                    _ => unreachable!("generator emits bytes and words only"),
                };
                c.write(DataLoc::Gpr(rt), v);
            }
            Store {
                width,
                rt,
                base,
                offset,
            } => {
                let addr = c
                    .read(DataLoc::Gpr(base))
                    .wrapping_add(offset as i32 as u32);
                let addr = aligned(addr, width)?;
                let v = c.read(DataLoc::Gpr(rt));
                let n = width.bytes() as usize;
                for (i, byte) in v.to_le_bytes().iter().take(n).enumerate() {
                    m.write_u8(addr + i as u32, *byte);
                }
            }
            _ => unreachable!("generator emits supported ops only"),
        }
    }
    Ok((c, m))
}

/// Translates `insts` as one region, executes the configuration from
/// its placement, and checks the result against sequential execution
/// from the entry state `seeds` (32 GPRs, then HI and LO).
fn check_placement_execution(seeds: &[u32], insts: &[Instruction]) {
    // Build the configuration exactly the way the DIM engine does.
    let mut translator = Translator::new(TranslatorOptions::new(ArrayShape::config3()));
    let predictor = BimodalPredictor::new();
    for (k, &inst) in insts.iter().enumerate() {
        let info = StepInfo {
            pc: 0x400000 + 4 * k as u32,
            inst,
            next_pc: 0x400000 + 4 * (k as u32 + 1),
            taken: None,
            mem_addr: None,
            effect: Effect::None,
        };
        prop_assert!(translator.observe(&info, &predictor).is_none());
    }
    let exit_pc = 0x400000 + 4 * insts.len() as u32;
    let Some(config) = translator.take_partial(exit_pc) else {
        // Fewer than the caching threshold: nothing to check.
        return;
    };
    prop_assert_eq!(config.instruction_count(), insts.len());
    prop_assert_eq!(dim_cgra::verify::verify_config(&config), vec![]);

    // Shared random entry state.
    let mut ctx = EntryContext {
        regs: [0; 32],
        hi: seeds[32],
        lo: seeds[33],
    };
    for (i, &v) in seeds.iter().take(32).enumerate() {
        ctx.regs[i] = v;
    }
    ctx.regs[0] = 0;
    ctx.regs[Reg::K0.index()] = MEM_BASE; // memory page base
    let mut mem: HashMap<u32, u8> = HashMap::new();
    for slot in 0..64u32 {
        for b in 0..4 {
            mem.write_u8(MEM_BASE + 4 * slot + b, (slot * 7 + b) as u8);
        }
    }

    // Reference vs dataflow-from-placement. Memory ops keep program
    // order across rows, so both stop at the same faulting access.
    let reference = sequential(insts, &ctx, &mem);
    let outcome = execute_dataflow(&config, &mut ctx, &mut mem);
    let (ref_ctx, ref_mem) = match reference {
        Ok(state) => state,
        Err(fault) => {
            prop_assert_eq!(outcome.err(), Some(fault));
            return;
        }
    };
    let outcome = outcome.expect("executes whenever sequential execution does");
    prop_assert_eq!(outcome.exit_pc, exit_pc);
    prop_assert!(!outcome.misspeculated);

    // Registers named in the write-back set must match; untouched
    // registers keep their entry values in both.
    for r in Reg::all() {
        prop_assert_eq!(
            ctx.regs[r.index()],
            ref_ctx.regs[r.index()],
            "register {} differs",
            r
        );
    }
    prop_assert_eq!(ctx.hi, ref_ctx.hi, "HI differs");
    prop_assert_eq!(ctx.lo, ref_ctx.lo, "LO differs");
    for slot in 0..64u32 {
        for b in 0..4 {
            let addr = MEM_BASE + 4 * slot + b;
            prop_assert_eq!(mem.read_u8(addr), ref_mem.read_u8(addr), "byte {:#x}", addr);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn placement_execution_equals_sequential(
        seeds in prop::collection::vec(any::<u32>(), 34),
        insts in prop::collection::vec(any_inst(), 1..48),
    ) {
        check_placement_execution(&seeds, &insts);
    }
}

fn r(index: u8) -> Reg {
    Reg::new(index).expect("register index")
}

// Cases the property once failed on, replayed by name (the offline
// proptest shim does not read `*.proptest-regressions` files).

/// A recorded failure: three `mult`s feeding two `mfhi`s around a signed
/// byte load and two word stores, so HI is both a live-in and a
/// write-back.
#[rustfmt::skip]
#[test]
fn regression_mult_mfhi_with_byte_load_and_stores() {
    let seeds = [
        0, 0, 0, 0, 0, 0, 0, 0,
        0, 0, 0, 0, 0, 0, 0, 0,
        7854, 3814885982, 396371908, 2445999726, 3171667394, 317197509, 3305309980, 3209098834,
        793650981, 1207603803, 1533631885, 2206140388, 1756409427, 3973052851, 1317396927, 618658371,
        1426274668, 1267809236,
    ];
    let insts = [
        MulDiv { op: MulDivOp::Mult, rs: r(11), rt: r(20) },
        Shift { op: ShiftOp::Sra, rd: r(27), rt: r(12), shamt: 27 },
        MulDiv { op: MulDivOp::Mult, rs: r(23), rt: r(15) },
        Lui { rt: r(15), imm: 28419 },
        MulDiv { op: MulDivOp::Mult, rs: r(25), rt: r(11) },
        Lui { rt: r(23), imm: 26582 },
        Mfhi { rd: r(13) },
        Shift { op: ShiftOp::Sll, rd: r(19), rt: r(17), shamt: 15 },
        Load { width: MemWidth::Byte, signed: true, rt: r(5), base: r(26), offset: 220 },
        Lui { rt: r(3), imm: 14067 },
        Store { width: MemWidth::Word, rt: r(29), base: r(26), offset: 236 },
        Store { width: MemWidth::Word, rt: r(20), base: r(26), offset: 48 },
        AluImm { op: AluImmOp::Slti, rt: r(29), rs: r(12), imm: 760 },
        Shift { op: ShiftOp::Sra, rd: r(13), rt: r(0), shamt: 5 },
        AluImm { op: AluImmOp::Andi, rt: r(19), rs: r(9), imm: 11000 },
        Load { width: MemWidth::Word, signed: false, rt: r(14), base: r(26), offset: 28 },
        AluImm { op: AluImmOp::Slti, rt: r(25), rs: r(14), imm: 46031 },
        Mfhi { rd: r(22) },
    ];
    check_placement_execution(&seeds, &insts);
}

/// A recorded failure: `mfhi` before any `mult` (HI live-in), `mult`
/// and `multu` results read by `mflo`/`mfhi`, byte and word loads, and
/// a load that overwrites `$k0`, the base of every later memory op, so
/// a later word store misaligns on both sides.
#[rustfmt::skip]
#[test]
fn regression_k0_reloaded_between_loads_and_stores() {
    let seeds = [
        0, 0, 0, 0, 0, 0, 0, 0,
        0, 0, 0, 0, 0, 0, 0, 0,
        0, 232240659, 3280463551, 2590395488, 4124622682, 567141566, 1341594063, 448534573,
        1656808044, 2006960707, 2764855762, 2779428044, 1591063482, 3808918004, 1703852933, 1590534389,
        638674684, 626550964,
    ];
    let insts = [
        AluImm { op: AluImmOp::Xori, rt: r(23), rs: r(12), imm: 57786 },
        Load { width: MemWidth::Word, signed: false, rt: r(7), base: r(26), offset: 212 },
        Load { width: MemWidth::Byte, signed: true, rt: r(27), base: r(26), offset: 188 },
        Mfhi { rd: r(30) },
        MulDiv { op: MulDivOp::Multu, rs: r(10), rt: r(24) },
        MulDiv { op: MulDivOp::Mult, rs: r(1), rt: r(21) },
        Load { width: MemWidth::Word, signed: false, rt: r(26), base: r(26), offset: 236 },
        MulDiv { op: MulDivOp::Multu, rs: r(7), rt: r(22) },
        Lui { rt: r(18), imm: 26021 },
        Alu { op: AluOp::Slt, rd: r(24), rs: r(26), rt: r(13) },
        Mflo { rd: r(14) },
        Load { width: MemWidth::Byte, signed: true, rt: r(10), base: r(26), offset: 172 },
        Store { width: MemWidth::Word, rt: r(0), base: r(26), offset: 0 },
        Shift { op: ShiftOp::Srl, rd: r(14), rt: r(21), shamt: 21 },
        Load { width: MemWidth::Byte, signed: true, rt: r(22), base: r(26), offset: 172 },
        Shift { op: ShiftOp::Sra, rd: r(18), rt: r(0), shamt: 15 },
        Alu { op: AluOp::And, rd: r(14), rs: r(1), rt: r(12) },
        Load { width: MemWidth::Byte, signed: true, rt: r(4), base: r(26), offset: 80 },
        Load { width: MemWidth::Byte, signed: true, rt: r(10), base: r(26), offset: 184 },
        MulDiv { op: MulDivOp::Mult, rs: r(15), rt: r(24) },
        AluImm { op: AluImmOp::Ori, rt: r(19), rs: r(0), imm: 21103 },
        Load { width: MemWidth::Byte, signed: true, rt: r(3), base: r(26), offset: 72 },
        Load { width: MemWidth::Word, signed: false, rt: r(20), base: r(26), offset: 176 },
        Load { width: MemWidth::Word, signed: false, rt: r(31), base: r(26), offset: 228 },
        Shift { op: ShiftOp::Srl, rd: r(14), rt: r(9), shamt: 26 },
        AluImm { op: AluImmOp::Addiu, rt: r(30), rs: r(29), imm: 35995 },
        Load { width: MemWidth::Byte, signed: true, rt: r(15), base: r(26), offset: 32 },
        AluImm { op: AluImmOp::Andi, rt: r(22), rs: r(6), imm: 40969 },
        MulDiv { op: MulDivOp::Multu, rs: r(19), rt: r(15) },
        Mfhi { rd: r(10) },
        Store { width: MemWidth::Word, rt: r(0), base: r(26), offset: 20 },
        Alu { op: AluOp::Sltu, rd: r(21), rs: r(12), rt: r(8) },
        Alu { op: AluOp::Sltu, rd: r(9), rs: r(26), rt: r(10) },
    ];
    check_placement_execution(&seeds, &insts);
}
