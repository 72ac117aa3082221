//! Property tests for configuration placement and timing.

use dim_cgra::{ArrayShape, ArrayTiming, Configuration, PlaceError};
use dim_mips::{AluOp, FuClass, Instruction, MemWidth, MulDivOp, Reg};
use proptest::prelude::*;

fn any_placeable_inst() -> impl Strategy<Value = Instruction> {
    let reg = (0u8..32).prop_map(|i| Reg::new(i).unwrap());
    prop_oneof![
        (reg.clone(), reg.clone(), reg.clone()).prop_map(|(rd, rs, rt)| Instruction::Alu {
            op: AluOp::Addu,
            rd,
            rs,
            rt
        }),
        (reg.clone(), reg.clone()).prop_map(|(rs, rt)| Instruction::MulDiv {
            op: MulDivOp::Mult,
            rs,
            rt
        }),
        (reg.clone(), reg.clone()).prop_map(|(rt, base)| Instruction::Load {
            width: MemWidth::Word,
            signed: false,
            rt,
            base,
            offset: 0
        }),
        (reg.clone(), reg).prop_map(|(rt, base)| Instruction::Store {
            width: MemWidth::Word,
            rt,
            base,
            offset: 0
        }),
    ]
}

fn small_shape() -> impl Strategy<Value = ArrayShape> {
    (1usize..12, 1usize..6, 1usize..3, 1usize..4).prop_map(|(rows, alus, mults, ldsts)| {
        ArrayShape {
            rows,
            alus_per_row: alus,
            mults_per_row: mults,
            ldsts_per_row: ldsts,
            rf_read_ports: 4,
            rf_write_ports: 4,
        }
    })
}

/// Places `insts` (each with its minimum row) into an empty
/// configuration of `shape` and checks every placement against the
/// shape's rows and per-row unit counts.
fn check_placement_respects_shape(shape: ArrayShape, insts: &[(Instruction, usize)]) {
    let mut config = Configuration::new(0x400000, shape);
    for (i, (inst, min_row)) in insts.iter().enumerate() {
        match config.place(0x400000 + 4 * i as u32, *inst, 0, *min_row) {
            Ok((row, col)) => {
                prop_assert!((row as usize) < shape.rows);
                prop_assert!(row as usize >= *min_row);
                prop_assert!((col as usize) < shape.units_per_row(inst.fu_class()));
            }
            Err(PlaceError::Full) => {
                // Acceptable whenever capacity below `min_row` ran out.
            }
            Err(PlaceError::Unsupported) => {
                prop_assert_eq!(inst.fu_class(), FuClass::Unsupported);
            }
        }
    }
    prop_assert!(config.rows_used() <= shape.rows);
    // Per-row capacity was never exceeded: recount from placed ops.
    let mut counts = vec![(0usize, 0usize, 0usize); config.rows_used()];
    for op in config.ops() {
        let c = &mut counts[op.row as usize];
        match op.class {
            FuClass::Alu | FuClass::Branch => c.0 += 1,
            FuClass::Multiplier => c.1 += 1,
            FuClass::LoadStore => c.2 += 1,
            FuClass::Unsupported => unreachable!(),
        }
    }
    for (alus, mults, ldsts) in counts {
        prop_assert!(alus <= shape.alus_per_row);
        prop_assert!(mults <= shape.mults_per_row);
        prop_assert!(ldsts <= shape.ldsts_per_row);
    }
}

proptest! {
    #[test]
    fn placement_respects_shape(
        shape in small_shape(),
        insts in prop::collection::vec((any_placeable_inst(), 0usize..8), 1..64),
    ) {
        check_placement_respects_shape(shape, &insts);
    }

    #[test]
    fn cycles_monotone_in_depth_and_composition(
        shape in small_shape(),
        insts in prop::collection::vec((any_placeable_inst(), 0u8..3), 1..48),
    ) {
        let timing = ArrayTiming::default();
        let mut config = Configuration::new(0, shape);
        let mut max_depth = 0;
        for (i, (inst, depth)) in insts.iter().enumerate() {
            let _ = config.place(4 * i as u32, *inst, *depth, 0);
            max_depth = max_depth.max(*depth);
        }
        let mut prev = 0;
        for d in 0..=max_depth {
            let c = config.exec_cycles(&timing, d);
            prop_assert!(c >= prev, "exec cycles must grow with depth");
            prev = c;
            prop_assert!(config.total_cycles(&timing, d) >= c);
        }
    }

    #[test]
    fn encoding_bits_positive_and_monotone(rows in 1usize..256, alus in 1usize..16) {
        let mk = |rows, alus| ArrayShape {
            rows,
            alus_per_row: alus,
            mults_per_row: 1,
            ldsts_per_row: 2,
            rf_read_ports: 4,
            rf_write_ports: 4,
        };
        let params = dim_cgra::EncodingParams::default();
        let small = dim_cgra::encoding_breakdown(&mk(rows, alus), &params).stored_bits();
        let bigger = dim_cgra::encoding_breakdown(&mk(rows + 1, alus + 1), &params).stored_bits();
        prop_assert!(small > 0);
        prop_assert!(bigger > small);
        prop_assert!(dim_cgra::cache_bytes(&mk(rows, alus), &params, 2)
            < dim_cgra::cache_bytes(&mk(rows, alus), &params, 4));
    }
}

/// A recorded failure: an op whose minimum row lies below a one-row
/// shape must be refused as full, leaving no row occupied.
#[test]
fn regression_min_row_below_a_one_row_shape() {
    let shape = ArrayShape {
        rows: 1,
        alus_per_row: 1,
        mults_per_row: 1,
        ldsts_per_row: 1,
        rf_read_ports: 4,
        rf_write_ports: 4,
    };
    let add = Instruction::Alu {
        op: AluOp::Addu,
        rd: Reg::ZERO,
        rs: Reg::ZERO,
        rt: Reg::ZERO,
    };
    check_placement_respects_shape(shape, &[(add, 2)]);
}
