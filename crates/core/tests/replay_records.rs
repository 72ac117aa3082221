//! The reconfiguration cache's replay records against the live
//! derivation.
//!
//! A cache hit charges its invocation from the record's per-stop-segment
//! costs instead of calling `Configuration::invocation_cycles` and
//! `FabricHeat::record` itself. These tests pin that the frozen costs
//! equal those calls:
//!
//! * for every configuration the translator commits on all 18 workloads
//!   (`tiny`, configs #1/#2/#3 with speculation) and every segment
//!   replay can stop after;
//! * for the records the system itself froze while running, which must
//!   carry the system's timing — checked under the default timing and
//!   under the ablations' one-ALU-row-per-cycle timing, where a record
//!   frozen with the wrong timing gets different spans and heat;
//! * and, on two hand-counted programs, in the `ArrayInvoke` events a
//!   run reports: a configuration whose last segment is empty, and one
//!   that misspeculates at depth 0.

use dim_cgra::{ArrayShape, ArrayTiming, Configuration, FabricHeat};
use dim_core::{ReplayRecord, StopCost, System, SystemConfig};
use dim_mips::asm::{assemble, Program};
use dim_mips::{Instruction, Reg};
use dim_mips_sim::Machine;
use dim_obs::{ArrayInvoke, ProbeEvent, RecordingProbe};
use dim_workloads::{suite, validate, Scale};

/// Derives one stop segment's cost the long way: ops selected by their
/// own depth tags rather than by segment bounds, spans and heat from the
/// configuration's timing queries on a fresh accumulator.
fn live_cost(config: &Configuration, timing: &ArrayTiming, stop: usize) -> StopCost {
    let depth = config.segments().get(stop).map_or(0, |s| s.depth);
    let replayed = || {
        config
            .ops()
            .iter()
            .filter(move |op| !config.segments().is_empty() && op.depth <= depth)
    };
    let count = |pred: fn(&Instruction) -> bool| replayed().filter(|op| pred(&op.inst)).count();
    let spans = config.invocation_cycles(timing, depth);
    let mut heat = FabricHeat::new();
    let sample = heat.record(config, timing, depth, 0);
    StopCost {
        spans,
        invoke: ArrayInvoke {
            entry_pc: config.entry_pc,
            exit_pc: 0,
            covered: config.instruction_count() as u32,
            executed: replayed().count() as u32,
            loads: count(|i| matches!(i, Instruction::Load { .. })) as u32,
            stores: count(|i| matches!(i, Instruction::Store { .. })) as u32,
            rows: config.rows_used() as u32,
            spec_depth: depth,
            misspeculated: false,
            flushed: false,
            stall_cycles: spans.stall as u32,
            exec_cycles: spans.exec as u32,
            tail_cycles: spans.tail as u32,
        },
        fabric: sample.to_util(config.entry_pc),
        heat,
    }
}

/// Checks every stop segment of `costs` against the live derivation,
/// and that folding a stop's heat plus a residual into an accumulator
/// matches recording the invocation into a twin of it.
fn check_costs(
    label: &str,
    config: &Configuration,
    timing: &ArrayTiming,
    costs: &[StopCost],
    live_acc: &mut FabricHeat,
    frozen_acc: &mut FabricHeat,
) {
    assert_eq!(
        costs.len(),
        config.segments().len().max(1),
        "{label} @ {:#x}: one cost per stop segment",
        config.entry_pc
    );
    for (stop, cost) in costs.iter().enumerate() {
        let live = live_cost(config, timing, stop);
        assert_eq!(
            cost, &live,
            "{label} @ {:#x}: stop segment {stop} diverges from the live derivation",
            config.entry_pc
        );
        let residual = stop as u64 + 1;
        live_acc.record(config, timing, live.invoke.spec_depth, residual);
        frozen_acc.merge(&cost.heat);
        frozen_acc.residual_cycles += residual;
        assert_eq!(
            live_acc, frozen_acc,
            "{label} @ {:#x}: merged heat diverges at stop segment {stop}",
            config.entry_pc
        );
    }
}

fn run_and_check(shape: ArrayShape, timing: ArrayTiming, label: &str) -> (usize, usize) {
    let (mut commits, mut frozen) = (0, 0);
    for spec in suite() {
        let built = (spec.build)(Scale::Tiny);
        let mut config = SystemConfig::new(shape, 64, true);
        config.timing = timing;
        let mut system = System::new(Machine::load(&built.program), config);
        system.enable_commit_log();
        system.run(built.max_steps).expect(spec.name);
        validate(system.machine(), &built).expect(spec.name);
        let label = format!("{label}/{}", spec.name);

        let (mut live_acc, mut frozen_acc) = (FabricHeat::new(), FabricHeat::new());
        for committed in system.commit_log() {
            let record = ReplayRecord::new(committed.clone());
            assert!(record.frozen().is_none(), "freezing is lazy");
            let costs = record.costs(&timing);
            check_costs(
                &label,
                committed,
                &timing,
                costs,
                &mut live_acc,
                &mut frozen_acc,
            );
            commits += 1;
        }
        // The records the run froze on their first hit carry its timing.
        for record in system.cache().records() {
            if let Some((frozen_under, costs)) = record.frozen() {
                assert_eq!(
                    frozen_under, &timing,
                    "{label}: frozen under another timing"
                );
                check_costs(
                    &label,
                    record.config(),
                    &timing,
                    costs,
                    &mut live_acc,
                    &mut frozen_acc,
                );
                frozen += 1;
            }
        }
    }
    (commits, frozen)
}

#[test]
fn frozen_costs_equal_the_live_derivation_on_all_workloads() {
    let ablation = ArrayTiming {
        alu_rows_per_cycle: 1,
        ..ArrayTiming::default()
    };
    for (timing, timing_name) in [(ArrayTiming::default(), "default"), (ablation, "alu1")] {
        for (shape, shape_name) in [
            (ArrayShape::config1(), "c1"),
            (ArrayShape::config2(), "c2"),
            (ArrayShape::config3(), "c3"),
        ] {
            let label = format!("{shape_name}/{timing_name}");
            let (commits, frozen) = run_and_check(shape, timing, &label);
            assert!(commits > 100, "{label}: only {commits} commits checked");
            assert!(frozen > 50, "{label}: only {frozen} frozen records checked");
        }
    }
}

/// Runs `src` accelerated (config #2, 64 slots, speculation) and checks
/// it against a plain run; returns the invocations at `label`'s address,
/// the system and the program.
fn invocations_at(src: &str, label: &str) -> (Vec<ArrayInvoke>, System, Program) {
    let program = assemble(src).expect("assembles");
    let entry = program.symbol(label).expect("label exists");
    let mut system = System::new(
        Machine::load(&program),
        SystemConfig::new(ArrayShape::config2(), 64, true),
    );
    let mut probe = RecordingProbe::new();
    system.run_probed(1_000_000, &mut probe).expect("runs");
    let mut plain = Machine::load(&program);
    plain.run(1_000_000).expect("runs");
    for r in Reg::all() {
        assert_eq!(system.machine().cpu.reg(r), plain.cpu.reg(r), "{r} differs");
    }
    let invokes = probe
        .events
        .iter()
        .filter_map(|e| match e {
            ProbeEvent::ArrayInvoke(a) if a.entry_pc == entry => Some(*a),
            _ => None,
        })
        .collect();
    (invokes, system, program)
}

/// The always-taken `beq` saturates on the second pass, so the loop's
/// translation speculates over it and then stops at the `div` the array
/// cannot run: its last segment is empty. Replay completes that empty
/// segment, so every invocation reports depth 1 for the 6 ops of
/// segment 0 (addiu, xor, sw, lw, addu, beq: one load, one store).
#[test]
fn empty_last_segment_reports_its_depth() {
    let src = "
        .data
        buf: .space 16
        .text
        main: li $s0, 40
              la $s1, buf
              li $t3, 7
        loop: addiu $v0, $v0, 1
              xor   $t1, $v0, $s0
              sw    $t1, 0($s1)
              lw    $t2, 0($s1)
              addu  $v0, $v0, $t2
              beq   $zero, $zero, cont
        cont: div   $s0, $t3
              addiu $s0, $s0, -1
              bnez  $s0, loop
              break 0";
    let (invokes, system, program) = invocations_at(src, "loop");
    let loop_pc = program.symbol("loop").expect("label");
    let config = system.cache().peek(loop_pc).expect("loop cached");
    let last = config.segments().last().expect("segments");
    assert_eq!((last.depth, last.len), (1, 0), "last segment is empty");
    // Iterations 1 and 2 run on the pipeline while the loop translates;
    // the remaining 38 hit.
    assert_eq!(invokes.len(), 38);
    for inv in &invokes {
        assert_eq!(
            (
                inv.executed,
                inv.loads,
                inv.stores,
                inv.spec_depth,
                inv.misspeculated
            ),
            (6, 1, 1, 1, false)
        );
        assert_eq!(inv.exit_pc, program.symbol("cont").expect("label"));
    }
}

/// The loop's translation speculates over two of its back-edges and so
/// covers three iterations (segments of 6, 6 and 5 ops; one load and
/// one store per iteration). Iterations 1–4 run on the pipeline; each
/// hit replays iterations 5+3j … 7+3j, so the last iteration (20) falls
/// in segment 0 of the sixth hit, whose back-edge is not taken:
/// misspeculation at depth 0 after 6 ops.
#[test]
fn misspeculation_at_depth_zero_reports_segment_zero() {
    let src = "
        .data
        buf: .space 16
        .text
        main: li $s0, 20
              la $s1, buf
        loop: addiu $v0, $v0, 1
              sw    $v0, 0($s1)
              lw    $t1, 0($s1)
              addu  $v0, $v0, $t1
              addiu $s0, $s0, -1
              bnez  $s0, loop
              break 0";
    let (invokes, _, _) = invocations_at(src, "loop");
    let fields = |inv: &ArrayInvoke| {
        (
            inv.executed,
            inv.loads,
            inv.stores,
            inv.spec_depth,
            inv.misspeculated,
        )
    };
    assert_eq!(invokes.len(), 6);
    for inv in &invokes[..5] {
        assert_eq!(fields(inv), (17, 3, 3, 2, false));
    }
    assert_eq!(fields(&invokes[5]), (6, 1, 1, 0, true));
}
