//! Fabric-heat conservation laws, enforced end-to-end:
//!
//! * `heat.exec_cycles + heat.residual_cycles` equals the system's
//!   array-exec cycle attribution **exactly** — the row-window model
//!   and the cycle model charge from the same state;
//! * per unit class, busy thirds never exceed capacity thirds on a
//!   finite shape, run-level and row-level;
//! * per-row heat sums back to the run totals (nothing lost to the
//!   overflow bucket or double-counted);
//! * confirmed operations equal the instructions retired through the
//!   array.
//!
//! Checked property-style on a parameterized synthetic kernel and
//! exhaustively on all 18 bundled workloads. The run loop tallies hits
//! and folds them into the accumulator; the last tests pin that the
//! accumulator a caller reads is the one per-hit merging would give.

use dim_cgra::{ArrayShape, FabricHeat, UNIT_CLASSES};
use dim_core::{System, SystemConfig};
use dim_mips::asm::assemble;
use dim_mips_sim::Machine;
use dim_obs::{Probe, ProbeEvent};
use dim_workloads::{suite, validate, Scale};
use proptest::prelude::*;
use std::collections::HashSet;
use std::panic::{self, AssertUnwindSafe};

const MAX_INSTRUCTIONS: u64 = 10_000_000;

/// Every conservation law the heat accumulator promises, against the
/// system that fed it.
fn assert_heat_laws(system: &System, label: &str) {
    let heat: &FabricHeat = system.fabric_heat();
    let breakdown = system.cycle_breakdown();
    let stats = system.stats();

    // Exact reconciliation with the cycle model.
    assert_eq!(
        heat.exec_cycles + heat.residual_cycles,
        breakdown.array_exec,
        "{label}: heat cycles diverge from the charged array-exec span"
    );
    assert_eq!(
        heat.invocations, stats.array_invocations,
        "{label}: heat missed an invocation"
    );

    // Busy can never exceed capacity, per class and in total — on
    // finite shapes; the infinite shape records capacity 0 (utilization
    // undefined) while busy thirds still accumulate.
    let shape = system.config().shape;
    if !shape.is_infinite() {
        for c in 0..UNIT_CLASSES {
            assert!(
                heat.busy_thirds[c] <= heat.capacity_thirds[c],
                "{label}: class {c} busy {} exceeds capacity {}",
                heat.busy_thirds[c],
                heat.capacity_thirds[c]
            );
        }
    }
    if let Some(util) = heat.fabric_util() {
        assert!(
            (0.0..=1.0).contains(&util),
            "{label}: util {util} out of range"
        );
    }
    if let Some(sat) = heat.writeback_saturation() {
        assert!(
            (0.0..=1.0).contains(&sat),
            "{label}: wb sat {sat} out of range"
        );
    }

    // Row-level heat reconciles with the run totals: summed busy thirds
    // and issued ops per class match, including the overflow bucket,
    // and no row is busier than its physical units over its windows.
    let per_row_units: [u64; UNIT_CLASSES] = [
        shape.units_per_row(dim_mips::FuClass::Alu) as u64,
        shape.units_per_row(dim_mips::FuClass::Multiplier) as u64,
        shape.units_per_row(dim_mips::FuClass::LoadStore) as u64,
    ];
    let mut busy = [0u64; UNIT_CLASSES];
    let mut issued = [0u64; UNIT_CLASSES];
    let mut squashed = 0u64;
    for row in heat
        .rows()
        .iter()
        .chain(std::iter::once(heat.overflow_row()))
    {
        for c in 0..UNIT_CLASSES {
            busy[c] += row.busy_thirds[c];
            issued[c] += row.issued[c];
            if !shape.is_infinite() {
                assert!(
                    row.busy_thirds[c] <= per_row_units[c] * row.active_thirds,
                    "{label}: row busy exceeds its physical units over its windows"
                );
            }
        }
        squashed += row.squashed;
    }
    assert_eq!(busy, heat.busy_thirds, "{label}: per-row busy loses thirds");
    assert_eq!(issued, heat.issued_ops, "{label}: per-row issued loses ops");
    assert_eq!(
        squashed, heat.squashed_ops,
        "{label}: per-row squash count drifts"
    );

    // Confirmed operations are exactly the instructions the array
    // retired on the system's behalf.
    assert_eq!(
        issued.iter().sum::<u64>(),
        stats.array_instructions,
        "{label}: issued ops disagree with array-retired instructions"
    );
}

/// A loop with a data-dependent branch, memory traffic, and a multiply,
/// parameterized for proptest (same shape as the observability tests).
fn workload_src(iters: u32, mask: u32, stride: u32) -> String {
    format!(
        "
        .data
        buf: .space 2048
        .text
        main: li $s0, {iters}
              la $s1, buf
              li $v0, 0
        loop: andi $t1, $s0, {mask}
              beqz $t1, skip
              addiu $v0, $v0, 3
              xor  $t2, $v0, $s0
              addu $v0, $v0, $t2
        skip: andi $t3, $s0, 127
              sll  $t4, $t3, 2
              addu $t5, $s1, $t4
              sw   $v0, 0($t5)
              lw   $t6, 0($t5)
              mul  $t7, $t6, $s0
              addu $v0, $v0, $t7
              addiu $s0, $s0, -{stride}
              bgtz $s0, loop
              break 0"
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Conservation holds for arbitrary dynamic behavior across shapes,
    /// cache pressure, and speculation settings — including the
    /// infinite shape, where capacity is 0 and utilization undefined.
    #[test]
    fn heat_conserves_on_synthetic_kernels(
        iters in 1u32..200,
        mask in prop_oneof![Just(0u32), Just(1), Just(3), Just(7)],
        stride in 1u32..3,
        slots in prop_oneof![Just(1usize), Just(16), Just(64)],
        spec in any::<bool>(),
        shape in prop_oneof![
            Just(ArrayShape::config1()),
            Just(ArrayShape::config2()),
            Just(ArrayShape::config3()),
            Just(ArrayShape::infinite()),
        ],
    ) {
        let src = workload_src(iters, mask, stride);
        let program = assemble(&src).expect("assembles");
        let mut system = System::new(
            Machine::load(&program),
            SystemConfig::new(shape, slots, spec),
        );
        system.run(MAX_INSTRUCTIONS).expect("runs");
        assert_heat_laws(&system, "synthetic");
        if shape.is_infinite() {
            prop_assert_eq!(system.fabric_heat().total_capacity_thirds(), 0);
            prop_assert_eq!(system.fabric_heat().fabric_util(), None);
        }
    }
}

/// The conservation laws hold on every bundled workload, and each
/// accelerated run still validates against its reference model.
#[test]
fn heat_conserves_on_all_bundled_workloads() {
    let mut exercised = 0;
    for spec in suite() {
        let built = (spec.build)(Scale::Tiny);
        let mut system = System::new(
            Machine::load(&built.program),
            SystemConfig::new(ArrayShape::config2(), 64, true),
        );
        system.run(built.max_steps).expect(spec.name);
        validate(system.machine(), &built).expect(spec.name);
        assert_heat_laws(&system, spec.name);
        if system.stats().array_invocations > 0 {
            exercised += 1;
        }
    }
    assert!(
        exercised >= 16,
        "only {exercised} workloads invoked the array — heat barely exercised"
    );
}

/// Merging per-shard accumulators (the sweep aggregation path) is
/// equivalent to accumulating in one.
#[test]
fn heat_merge_equals_single_accumulator() {
    let build = |iters| {
        let program = assemble(&workload_src(iters, 3, 1)).unwrap();
        let mut system = System::new(
            Machine::load(&program),
            SystemConfig::new(ArrayShape::config2(), 64, true),
        );
        system.run(MAX_INSTRUCTIONS).unwrap();
        system
    };
    let a = build(60);
    let b = build(90);
    let mut merged = a.fabric_heat().clone();
    merged.merge(b.fabric_heat());
    assert_eq!(
        merged.exec_cycles + merged.residual_cycles,
        a.cycle_breakdown().array_exec + b.cycle_breakdown().array_exec
    );
    assert_eq!(
        merged.invocations,
        a.stats().array_invocations + b.stats().array_invocations
    );
    for c in 0..UNIT_CLASSES {
        assert!(merged.busy_thirds[c] <= merged.capacity_thirds[c]);
        assert_eq!(
            merged.busy_thirds[c],
            a.fabric_heat().busy_thirds[c] + b.fabric_heat().busy_thirds[c]
        );
    }
}

/// 100 distinct loops of 12 iterations: at config 2 with speculation
/// they commit 200 configurations, more than the run loop's heat tally
/// has slots.
fn hundred_loops() -> String {
    let mut src = String::from("main: li $v0, 0\n");
    for k in 0..100 {
        src += &format!(
            "      li $s0, 12
loop{k}: addu $v0, $v0, $s0
      sll $t0, $v0, {shift}
      xor $v0, $v0, $t0
      addiu $v0, $v0, {k}
      addu $v0, $v0, $s0
      addiu $s0, $s0, -1
      bnez $s0, loop{k}
",
            shift = k % 31 + 1
        );
    }
    src + "      break 0\n"
}

fn hundred_loops_system() -> System {
    let program = assemble(&hundred_loops()).expect("assembles");
    System::new(
        Machine::load(&program),
        SystemConfig::new(ArrayShape::config2(), 64, true),
    )
}

/// Collects the entry PCs of the array invocations it sees, and panics
/// on the `panic_at`-th one when asked to.
#[derive(Default)]
struct InvokeProbe {
    entries: HashSet<u32>,
    invokes: u64,
    panic_at: Option<u64>,
}

impl Probe for InvokeProbe {
    fn emit(&mut self, event: ProbeEvent) {
        if let ProbeEvent::ArrayInvoke(invoke) = event {
            self.entries.insert(invoke.entry_pc);
            self.invokes += 1;
            if self.panic_at == Some(self.invokes) {
                panic!("probe drill: array_invoke #{}", self.invokes);
            }
        }
    }
}

/// One `run` call over a run that hits more configurations than the
/// tally has slots (so it folds mid-run) ends with the heat, stats and
/// cycle breakdown of the same run made in 1-instruction calls, each of
/// which folds at most one hit.
#[test]
fn one_run_call_folds_heat_like_single_instruction_calls() {
    let mut whole = hundred_loops_system();
    let mut probe = InvokeProbe::default();
    whole
        .run_probed(MAX_INSTRUCTIONS, &mut probe)
        .expect("runs");
    assert!(
        probe.entries.len() > 64,
        "only {} configurations were hit; the tally never had to fold mid-run",
        probe.entries.len()
    );
    assert!(whole.stats().configs_built > 64);

    let mut stepped = hundred_loops_system();
    while stepped.machine().halted().is_none() {
        stepped.run(1).expect("runs");
    }
    assert_eq!(whole.fabric_heat(), stepped.fabric_heat());
    assert_eq!(whole.stats(), stepped.stats());
    assert_eq!(whole.cycle_breakdown(), stepped.cycle_breakdown());
    assert_heat_laws(&whole, "hundred loops");
}

/// A probe that panics inside a run leaves the heat exact: the hit
/// whose event panicked is counted, and the pending tally is folded
/// while the panic unwinds.
#[test]
fn a_panicking_probe_leaves_heat_as_single_instruction_calls_do() {
    for k in [1, 70, 250] {
        let drill = || InvokeProbe {
            panic_at: Some(k),
            ..InvokeProbe::default()
        };
        let mut whole = hundred_loops_system();
        let mut probe = drill();
        let caught = panic::catch_unwind(AssertUnwindSafe(|| {
            whole.run_probed(MAX_INSTRUCTIONS, &mut probe)
        }));
        assert!(caught.is_err(), "k = {k}: the drill never fired");

        let mut stepped = hundred_loops_system();
        let mut probe = drill();
        let caught = panic::catch_unwind(AssertUnwindSafe(|| loop {
            stepped.run_probed(1, &mut probe).expect("runs");
        }));
        assert!(caught.is_err(), "k = {k}: the drill never fired");

        assert_eq!(whole.fabric_heat().invocations, k, "k = {k}");
        assert_eq!(whole.fabric_heat(), stepped.fabric_heat(), "k = {k}");
    }
}
