//! Edge-case and failure-injection tests for the coupled system: jumps
//! into the middle of cached regions, minimal-size regions, error
//! propagation, and other corners the happy-path suites never touch.

use dim_accel::prelude::*;
use dim_accel::sim::SimError;

fn run_both(src: &str) -> (Machine, System) {
    let program = assemble(src).expect("assembles");
    let mut baseline = Machine::load(&program);
    baseline.run(1_000_000).expect("baseline runs");
    let mut sys = System::new(
        Machine::load(&program),
        SystemConfig::new(ArrayShape::config1(), 16, true),
    );
    sys.run(1_000_000).expect("accelerated runs");
    for r in Reg::all() {
        assert_eq!(sys.machine().cpu.reg(r), baseline.cpu.reg(r), "{r} differs");
    }
    (baseline, sys)
}

/// Jumping into the *middle* of a region that has a cached configuration
/// must not trigger the configuration (it is keyed by its entry PC) and
/// must stay architecturally exact.
#[test]
fn jump_into_middle_of_cached_region() {
    let (_, sys) = run_both(
        "
        main:   li   $s0, 60
                li   $s1, 0
        outer:  andi $t0, $s0, 3
                beqz $t0, midway_entry
        body:   addu $s1, $s1, $s0
                xor  $t1, $s1, $s0
                addu $s1, $s1, $t1
                sll  $t2, $s1, 1
        mid:    srl  $t3, $t2, 2
                addu $s1, $s1, $t3
                addiu $s0, $s0, -1
                bnez $s0, outer
                break 0
        midway_entry:
                # Enter the hot block at `mid`, skipping its first half.
                li   $t2, 12
                b    mid
        ",
    );
    assert!(
        sys.stats().array_invocations > 0,
        "the hot path must still accelerate"
    );
}

/// The minimal cacheable region (4 instructions) round-trips correctly
/// and actually executes from the cache.
#[test]
fn minimal_four_instruction_region() {
    let (_, sys) = run_both(
        "
        main:  li $s0, 50
        loop:  addu $v0, $v0, $s0
               xor  $v1, $v0, $s0
               sll  $t0, $v1, 1
               addiu $s0, $s0, -1
               bnez $s0, loop
               break 0
        ",
    );
    // Speculation merges up to three loop iterations per configuration,
    // so the invocation count is roughly iterations / 3.
    assert!(sys.stats().array_invocations >= 10);
    let covered = sys.stats().array_instructions as f64
        / (sys.stats().array_instructions + sys.machine().stats.instructions) as f64;
    assert!(covered > 0.7, "array coverage {covered:.2}");
}

/// Three-instruction bodies are below the paper's `> 3` threshold: with
/// speculation off, the body alone can never be cached (speculation can
/// legitimately merge several iterations past the bar, so it is
/// disabled here).
#[test]
fn sub_threshold_region_never_cached() {
    let src = "
        main:  li $s0, 50
        loop:  addu $v0, $v0, $s0
               addiu $s0, $s0, -1
               bnez $s0, loop
               break 0";
    let program = assemble(src).expect("assembles");
    let mut baseline = Machine::load(&program);
    baseline.run(1_000_000).expect("baseline runs");
    let mut sys = System::new(
        Machine::load(&program),
        SystemConfig::new(ArrayShape::config1(), 16, false),
    );
    sys.run(1_000_000).expect("accelerated runs");
    assert_eq!(sys.machine().cpu.reg(Reg::V0), baseline.cpu.reg(Reg::V0));
    // Only the run-once prologue region (li + first iteration) clears the
    // "> 3 instructions" bar, and its entry PC is never revisited.
    assert!(sys.stats().configs_built <= 1);
    assert_eq!(sys.stats().array_invocations, 0);
}

/// A region ending because of a `div` (unsupported in the array) still
/// accelerates its prefix, and the div executes on the core.
#[test]
fn div_terminated_region() {
    let (baseline, sys) = run_both(
        "
        main:  li $s0, 40
               li $v0, 1000000
               li $t9, 3
        loop:  addu $t0, $v0, $s0
               xor  $t1, $t0, $s0
               addu $t2, $t1, $t0
               sll  $t3, $t2, 1
               div  $v0, $t2, $t9
               addiu $s0, $s0, -1
               bnez $s0, loop
               break 0
        ",
    );
    assert!(sys.stats().array_invocations > 0);
    // Divisions are processor-side work.
    assert!(sys.machine().stats.divs > 0);
    assert_eq!(sys.machine().stats.divs, baseline.stats.divs);
}

/// Misaligned accesses fault identically with and without acceleration.
#[test]
fn misaligned_fault_propagates_identically() {
    let src = "
        main:  li $t0, 0x10000001
               li $s0, 10
        loop:  addu $v0, $v0, $s0
               xor  $v1, $v0, $s0
               addu $v0, $v0, $v1
               addiu $s0, $s0, -1
               bnez $s0, loop
               lw   $t1, 0($t0)
               break 0";
    let program = assemble(src).unwrap();
    let mut baseline = Machine::load(&program);
    let base_err = baseline.run(1_000_000).unwrap_err();
    let mut sys = System::new(
        Machine::load(&program),
        SystemConfig::new(ArrayShape::config1(), 16, true),
    );
    let sys_err = sys.run(1_000_000).unwrap_err();
    assert_eq!(base_err, sys_err);
    assert!(matches!(
        base_err,
        SimError::Misaligned {
            addr: 0x1000_0001,
            width: 4
        }
    ));
}

/// A hot configuration whose `sw` turns misaligned mid-segment faults
/// on the array exactly where the interpreter faults: the same error,
/// and the whole CPU (the ops before the store retired, the PC at the
/// store) and memory as the interpreter leaves them.
#[test]
fn hot_store_turning_misaligned_faults_like_the_interpreter() {
    // `sltiu` adds 1 to the store pointer once `$s0` drops below 20, so
    // the store of the next iteration is the first misaligned one.
    let src = "
        .data
        buf:   .space 512
        .text
        main:  la   $s1, buf
               li   $s0, 60
        loop:  addu $v0, $v0, $s0
               xor  $t1, $v0, $s0
               sw   $v0, 0($s1)
               addu $v0, $v0, $t1
               sltiu $t3, $s0, 20
               addiu $s1, $s1, 4
               addu $s1, $s1, $t3
               addiu $s0, $s0, -1
               bnez $s0, loop
               break 0";
    let program = assemble(src).unwrap();
    let buf = program.data_base;
    let mut baseline = Machine::load(&program);
    let base_err = baseline.run(1_000_000).unwrap_err();
    let store_pc = baseline.cpu.pc;
    assert!(matches!(base_err, SimError::Misaligned { width: 4, .. }));
    for (name, shape, slots, spec) in [
        ("c1", ArrayShape::config1(), 64, false),
        ("c2", ArrayShape::config2(), 64, true),
        ("ideal", ArrayShape::infinite(), 1024, true),
    ] {
        let label = format!("{name}/{slots} spec={spec}");
        let mut sys = System::new(
            Machine::load(&program),
            SystemConfig::new(shape, slots, spec),
        );
        let sys_err = sys.run(1_000_000).unwrap_err();
        let stats = sys.stats();
        // The faulting invocation is counted, but it neither completed
        // nor misspeculated: the fault happened on the array.
        assert!(stats.array_invocations > 1, "{label}: never hot");
        assert_eq!(
            stats.array_invocations,
            stats.full_hits + stats.misspeculations + 1,
            "{label}: the fault was not raised by a replay"
        );
        assert_eq!(sys_err, base_err, "{label}");
        assert_eq!(sys.machine().cpu, baseline.cpu, "{label}");
        assert_eq!(sys.machine().cpu.pc, store_pc, "{label}");
        assert_eq!(
            sys.machine().mem.read_bytes(buf, 512),
            baseline.mem.read_bytes(buf, 512),
            "{label}: stored bytes differ"
        );
    }
}

/// A `jr` through a register that leaves the text segment errors out the
/// same way on both paths.
#[test]
fn wild_jump_faults_identically() {
    let src = "
        main:  li $t9, 0x00300000
               li $s0, 8
        loop:  addu $v0, $v0, $s0
               xor  $v1, $v0, $s0
               addu $v0, $v0, $v1
               addiu $s0, $s0, -1
               bnez $s0, loop
               jr   $t9";
    let program = assemble(src).unwrap();
    let mut baseline = Machine::load(&program);
    let base_err = baseline.run(1_000_000).unwrap_err();
    let mut sys = System::new(
        Machine::load(&program),
        SystemConfig::new(ArrayShape::config2(), 64, true),
    );
    let sys_err = sys.run(1_000_000).unwrap_err();
    assert_eq!(base_err, sys_err);
    assert!(matches!(
        base_err,
        SimError::PcOutOfRange { pc: 0x0030_0000 }
    ));
}

/// Stepping a halted machine is reported as an error, not a silent no-op.
#[test]
fn stepping_after_halt_errors() {
    let program = assemble("main: break 0").unwrap();
    let mut machine = Machine::load(&program);
    machine.run(10).unwrap();
    assert!(machine.step().is_err());
}

/// A store inside a configuration followed (in the same configuration)
/// by a load of the same address must forward correctly — program order
/// is preserved through the array's memory ports.
#[test]
fn store_to_load_forwarding_inside_region() {
    let (_, sys) = run_both(
        "
        .data
        cell: .word 0
        .text
        main:  li $s0, 30
               la $s1, cell
        loop:  addu $t0, $v0, $s0
               sw  $t0, 0($s1)
               lw  $t1, 0($s1)
               addu $v0, $t1, $s0
               addiu $s0, $s0, -1
               bnez $s0, loop
               break 0
        ",
    );
    assert!(sys.stats().array_loads > 0 && sys.stats().array_stores > 0);
}

/// Zero-iteration dynamic paths: a loop whose body never executes (the
/// guard fails immediately) still translates and never corrupts state.
#[test]
fn zero_iteration_loop() {
    run_both(
        "
        main:  li $s0, 0
               beqz $s0, done
        loop:  addu $v0, $v0, $s0
               xor  $v1, $v0, $s0
               addu $v0, $v0, $v1
               addiu $s0, $s0, -1
               bnez $s0, loop
        done:  li $v1, 77
               break 0
        ",
    );
}

/// HI/LO live across a region boundary: a mult inside a configuration,
/// mflo consumed after a branch in the *next* region.
#[test]
fn hi_lo_cross_region() {
    run_both(
        "
        main:  li $s0, 25
        loop:  mult $v0, $s0
               addiu $t0, $s0, 3
               xor  $t1, $t0, $s0
               addu $t2, $t1, $t0
               bnez $t2, consume
        consume:
               mflo $t3
               addu $v0, $v0, $t3
               mfhi $t4
               xor  $v0, $v0, $t4
               addiu $s0, $s0, -1
               bnez $s0, loop
               break 0
        ",
    );
}
