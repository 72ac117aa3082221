//! Property-based differential testing: random programs (straight-line
//! blocks, loops, memory traffic, mult/div, data-dependent branches) must
//! produce identical architectural state on the plain pipeline and on the
//! accelerated system, for arbitrary accelerator parameters.

use dim_accel::prelude::*;
use proptest::prelude::*;

/// Registers the generator plays with (avoiding $sp/$ra/$at conventions).
const REGS: [&str; 8] = ["$t0", "$t1", "$t2", "$t3", "$s0", "$s1", "$v0", "$v1"];

#[derive(Debug, Clone)]
enum Op {
    Alu3(&'static str, usize, usize, usize),
    AluImm(&'static str, usize, usize, i16),
    Shift(&'static str, usize, usize, u8),
    MulDiv(&'static str, usize, usize),
    Load(&'static str, usize, usize),
    Store(&'static str, usize, usize),
}

fn any_op() -> impl Strategy<Value = Op> {
    let r = 0usize..REGS.len();
    prop_oneof![
        (
            prop_oneof![
                Just("addu"),
                Just("subu"),
                Just("and"),
                Just("or"),
                Just("xor"),
                Just("nor"),
                Just("slt"),
                Just("sltu")
            ],
            r.clone(),
            r.clone(),
            r.clone()
        )
            .prop_map(|(m, a, b, c)| Op::Alu3(m, a, b, c)),
        (
            prop_oneof![Just("addiu"), Just("slti"), Just("sltiu")],
            r.clone(),
            r.clone(),
            any::<i16>()
        )
            .prop_map(|(m, a, b, i)| Op::AluImm(m, a, b, i)),
        (
            prop_oneof![Just("sll"), Just("srl"), Just("sra")],
            r.clone(),
            r.clone(),
            0u8..32
        )
            .prop_map(|(m, a, b, s)| Op::Shift(m, a, b, s)),
        (
            prop_oneof![Just("mult"), Just("multu"), Just("div"), Just("divu")],
            r.clone(),
            r.clone()
        )
            .prop_map(|(m, a, b)| Op::MulDiv(m, a, b)),
        (
            prop_oneof![Just("lw"), Just("lbu"), Just("lb"), Just("lhu"), Just("lh")],
            r.clone(),
            0usize..16
        )
            .prop_map(|(m, a, s)| Op::Load(m, a, s)),
        (
            prop_oneof![Just("sw"), Just("sb"), Just("sh")],
            r.clone(),
            0usize..16
        )
            .prop_map(|(m, a, s)| Op::Store(m, a, s)),
    ]
}

/// Renders a generated op. Memory ops go through a scratch buffer with
/// aligned slots so no access can fault.
fn render(op: &Op) -> String {
    match op {
        Op::Alu3(m, a, b, c) => format!("{m} {}, {}, {}", REGS[*a], REGS[*b], REGS[*c]),
        Op::AluImm(m, a, b, i) => format!("{m} {}, {}, {}", REGS[*a], REGS[*b], i),
        Op::Shift(m, a, b, s) => format!("{m} {}, {}, {}", REGS[*a], REGS[*b], s),
        Op::MulDiv(m, a, b) => {
            format!(
                "{m} {}, {}\n mflo {}\n mfhi {}",
                REGS[*a], REGS[*b], REGS[*a], REGS[*b]
            )
        }
        Op::Load(m, a, slot) => format!("{m} {}, {}($gp)", REGS[*a], slot * 4),
        Op::Store(m, a, slot) => format!("{m} {}, {}($gp)", REGS[*a], slot * 4),
    }
}

/// Builds a program: init registers, a counted outer loop whose body is
/// the random op sequence plus a data-dependent inner branch, then halt.
fn build_program(seed_vals: &[u32], body: &[Op], iterations: u32) -> String {
    let mut src = String::from(".data\nscratch: .space 64\n.text\nmain:\n la $gp, scratch\n");
    for (i, v) in seed_vals.iter().enumerate() {
        src.push_str(&format!(" li {}, {}\n", REGS[i], *v as i32));
    }
    src.push_str(&format!(" li $s7, {iterations}\nouter:\n"));
    for op in body {
        src.push_str(&format!(" {}\n", render(op)));
    }
    // A data-dependent diamond to exercise speculation.
    src.push_str(
        " andi $t7, $v0, 1\n beqz $t7, skip\n addiu $v0, $v0, 13\n xor $v1, $v1, $v0\nskip:\n",
    );
    src.push_str(" addiu $s7, $s7, -1\n bnez $s7, outer\n break 0\n");
    src
}

fn run_and_compare(src: &str) {
    let program = assemble(src).expect("generated program assembles");
    let mut baseline = Machine::load(&program);
    let halt = baseline.run(4_000_000).expect("baseline runs");
    assert!(matches!(halt, HaltReason::Exit(_)));

    let grid = [
        (ArrayShape::config1(), 4usize, true),
        (ArrayShape::config2(), 64, true),
        (ArrayShape::config1(), 16, false),
        (ArrayShape::infinite(), 1 << 16, true),
    ];
    for (shape, slots, spec) in grid {
        let mut sys = System::new(
            Machine::load(&program),
            SystemConfig::new(shape, slots, spec),
        );
        let halt = sys.run(4_000_000).expect("accelerated runs");
        assert!(matches!(halt, HaltReason::Exit(_)));
        for r in Reg::all() {
            assert_eq!(
                sys.machine().cpu.reg(r),
                baseline.cpu.reg(r),
                "register {r} differs (slots={slots}, spec={spec})\n{src}"
            );
        }
        // Scratch memory must match byte for byte.
        let base = program.symbol("scratch").unwrap();
        assert_eq!(
            sys.machine().mem.read_bytes(base, 64),
            baseline.mem.read_bytes(base, 64),
            "scratch memory differs (slots={slots}, spec={spec})\n{src}"
        );
        // Correctness is absolute; performance is only *bounded*: on
        // adversarial tiny regions (e.g. div-terminated two-op bodies)
        // the array's reconfigure/write-back overhead can cost a few
        // percent, which the real hardware would pay too.
        assert!(
            sys.total_cycles() as f64 <= 1.15 * baseline.stats.cycles as f64 + 50.0,
            "accelerated {} vs baseline {}",
            sys.total_cycles(),
            baseline.stats.cycles
        );
        assert_eq!(sys.total_instructions(), baseline.stats.instructions);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn random_loop_programs_accelerate_exactly(
        seeds in prop::collection::vec(any::<u32>(), REGS.len()),
        body in prop::collection::vec(any_op(), 1..24),
        iterations in 1u32..40,
    ) {
        let src = build_program(&seeds, &body, iterations);
        run_and_compare(&src);
    }

    #[test]
    fn random_straightline_programs_accelerate_exactly(
        seeds in prop::collection::vec(any::<u32>(), REGS.len()),
        body in prop::collection::vec(any_op(), 1..64),
    ) {
        // Straight-line: a single huge basic block, executed twice via
        // one backward branch so the translated configuration actually
        // runs from the cache.
        let src = build_program(&seeds, &body, 2);
        run_and_compare(&src);
    }
}

/// A recorded failure: a byte load and a byte store around a `div` the
/// array cannot run, three times round the loop, from all-zero
/// registers (so the `div` divides by zero).
#[test]
fn regression_byte_memory_around_a_div_by_zero() {
    let body = [
        Op::Load("lbu", 4, 2),
        Op::Store("sb", 1, 14),
        Op::MulDiv("div", 4, 0),
        Op::Alu3("subu", 5, 3, 0),
        Op::Alu3("slt", 4, 7, 3),
    ];
    run_and_compare(&build_program(&[0; REGS.len()], &body, 3));
}
