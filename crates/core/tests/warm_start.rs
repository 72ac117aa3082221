//! The warm-start contract of rcache snapshots: restoring a snapshot
//! into a fresh system that resumes from the saved machine state
//! produces, counter for counter, exactly the continuation the original
//! system executed after the save.
//!
//! The snapshot may be taken at *any* instruction boundary — including
//! mid-loop and mid-translation — so these tests sweep the save point,
//! the cache capacity (down to a single slot, where warm-up state is
//! dominated by evictions) and the speculation policy.

use dim_cgra::ArrayShape;
use dim_core::{DimStats, SnapshotError, System, SystemConfig};
use dim_mips::asm::{assemble, Program};
use dim_mips_sim::{HaltReason, Machine};
use dim_workloads::{validate, Scale};
use proptest::prelude::*;

/// Two hot loops with distinct bodies, parameterized by trip counts so
/// the save point can land in either loop or the glue between them.
fn two_loop_program(iters1: u32, iters2: u32) -> Program {
    let src = format!(
        "
        main: li $s0, {iters1}
              li $v0, 0
        l1:   addu $v0, $v0, $s0
              xor  $t1, $v0, $s0
              addu $v0, $v0, $t1
              addiu $s0, $s0, -1
              bnez $s0, l1
              li $s1, {iters2}
        l2:   sll $t2, $v0, 2
              addu $v0, $v0, $t2
              srl  $t3, $v0, 3
              xor  $v0, $v0, $t3
              addiu $s1, $s1, -1
              bnez $s1, l2
              break 0"
    );
    assemble(&src).unwrap()
}

/// Field-wise `a - b`; panics on underflow, which would itself signal
/// that the warm run did work the cold continuation never did.
fn stats_delta(a: &DimStats, b: &DimStats) -> DimStats {
    DimStats {
        array_invocations: a.array_invocations - b.array_invocations,
        array_instructions: a.array_instructions - b.array_instructions,
        array_exec_cycles: a.array_exec_cycles - b.array_exec_cycles,
        reconfig_stall_cycles: a.reconfig_stall_cycles - b.reconfig_stall_cycles,
        writeback_tail_cycles: a.writeback_tail_cycles - b.writeback_tail_cycles,
        array_loads: a.array_loads - b.array_loads,
        array_stores: a.array_stores - b.array_stores,
        full_hits: a.full_hits - b.full_hits,
        misspeculations: a.misspeculations - b.misspeculations,
        config_flushes: a.config_flushes - b.config_flushes,
        configs_built: a.configs_built - b.configs_built,
        translated_instructions: a.translated_instructions - b.translated_instructions,
        cache_bits_read: a.cache_bits_read - b.cache_bits_read,
        cache_bits_written: a.cache_bits_written - b.cache_bits_written,
        array_occupied_rows: a.array_occupied_rows - b.array_occupied_rows,
    }
}

/// The rcache's own live/dead eviction split: the one place it is
/// counted.
fn eviction_split(system: &System) -> (u64, u64) {
    let cache = system.cache();
    (cache.evictions_live(), cache.evictions_dead())
}

const BUDGET: u64 = 10_000_000;

/// What of the cache's evictions a warm restart must reproduce.
#[derive(Debug, Clone, Copy)]
enum Evictions {
    /// The live/dead split.
    Split,
    /// Only their number. Snapshots do not carry per-entry hit counts,
    /// so an entry hit before the save and evicted after it without
    /// another hit counts as live in the cold continuation and as dead
    /// in the warm restart.
    Total,
}

/// Runs the property for one parameter point and returns an error string
/// on the first divergence.
fn check_warm_matches_cold(
    iters1: u32,
    iters2: u32,
    warmup: u64,
    slots: usize,
    speculation: bool,
) -> Result<(), String> {
    let program = two_loop_program(iters1, iters2);
    let config = SystemConfig::new(ArrayShape::config1(), slots, speculation);
    check_warm_matches_cold_on(&program, config, warmup, BUDGET, Evictions::Split).map(drop)
}

/// Saves `program`'s run under `config` after `warmup` instructions,
/// then compares the cold continuation with a warm restart, both run
/// for up to `budget` more. Returns the warm system on agreement.
fn check_warm_matches_cold_on(
    program: &Program,
    config: SystemConfig,
    warmup: u64,
    budget: u64,
    evictions: Evictions,
) -> Result<System, String> {
    let (slots, speculation) = (config.cache_slots, config.speculation);

    // Cold run to the save point.
    let mut cold = System::new(Machine::load(program), config);
    cold.run(warmup).map_err(|e| e.to_string())?;
    let mark = *cold.stats();
    let (live_mark, dead_mark) = eviction_split(&cold);
    let machine_at_mark = cold.machine().clone();
    let bytes = cold.save_rcache();

    // Cold continuation to completion.
    cold.run(budget).map_err(|e| e.to_string())?;
    let cold_delta = stats_delta(cold.stats(), &mark);
    let (live, dead) = eviction_split(&cold);
    let cold_split = (live - live_mark, dead - dead_mark);

    // Warm restart: fresh system, saved machine state, loaded snapshot.
    let mut warm = System::new(machine_at_mark, config);
    warm.load_rcache(&bytes).map_err(|e| e.to_string())?;
    warm.run(budget).map_err(|e| e.to_string())?;

    if &cold_delta != warm.stats() {
        return Err(format!(
            "DimStats diverged after warmup={warmup} slots={slots} \
             spec={speculation}:\ncold delta {cold_delta:#?}\nwarm {:#?}",
            warm.stats()
        ));
    }
    // A warm start seeds the cache without touching its counters, so
    // the warm cache counts exactly the continuation's evictions.
    let warm_split = eviction_split(&warm);
    let agree = match evictions {
        Evictions::Split => cold_split == warm_split,
        Evictions::Total => cold_split.0 + cold_split.1 == warm_split.0 + warm_split.1,
    };
    if !agree {
        return Err(format!(
            "eviction split diverged after warmup={warmup} slots={slots} \
             spec={speculation}: cold delta {cold_split:?}, warm {:?}",
            eviction_split(&warm)
        ));
    }
    if cold.machine().cpu != warm.machine().cpu {
        return Err(format!(
            "final CPU state diverged after warmup={warmup} slots={slots} spec={speculation}"
        ));
    }
    if cold.machine().stats.cycles != warm.machine().stats.cycles {
        return Err(format!(
            "processor cycles diverged: cold {} vs warm {}",
            cold.machine().stats.cycles,
            warm.machine().stats.cycles
        ));
    }
    Ok(warm)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A warm-started run produces DimStats identical to the equivalent
    /// cold run's post-save continuation, and the two executions retire
    /// the same instructions into the same final machine state.
    #[test]
    fn warm_restart_matches_cold_continuation(
        iters1 in 8u32..48,
        iters2 in 8u32..48,
        warmup in 1u64..600,
        slots in prop_oneof![Just(1usize), Just(2), Just(4), Just(64)],
        speculation in any::<bool>(),
    ) {
        if let Err(msg) = check_warm_matches_cold(iters1, iters2, warmup, slots, speculation) {
            prop_assert!(false, "{}", msg);
        }
    }
}

/// The deterministic edge cases the sweep above may not pin: saving
/// before anything was translated, and saving after the program halted.
#[test]
fn warm_restart_matches_at_trivial_save_points() {
    // Save at instruction 1: the snapshot is essentially empty.
    check_warm_matches_cold(16, 16, 1, 64, true).unwrap();
    // Save after completion: the continuation is empty on both sides.
    check_warm_matches_cold(16, 16, BUDGET, 64, true).unwrap();
}

/// Real kernels under cache pressure. At 4 slots the translator keeps
/// detecting regions the cache has evicted, so the cold continuation
/// runs with a well-filled memo of region outcomes while the warm
/// restart starts with an empty one; the two must still agree, at save
/// points a quarter, half and three quarters of the way through. Only
/// the number of evictions is compared ([`Evictions::Total`]): saved a
/// quarter of the way through, rawaudio_enc's cold continuation splits
/// its evictions 93 live / 26 dead and the warm restart 91 / 28.
#[test]
fn warm_restart_matches_on_kernels_under_cache_pressure() {
    let config = SystemConfig::new(ArrayShape::config2(), 4, true);
    for name in ["quicksort", "patricia", "rawaudio_enc", "susan_edges"] {
        let spec = dim_workloads::by_name(name).expect("workload exists");
        let built = (spec.build)(Scale::Tiny);
        let mut whole = System::new(Machine::load(&built.program), config);
        whole.run(built.max_steps).expect(name);
        let retired = whole.total_instructions();
        assert!(whole.cache().evictions() > 0, "{name}: no cache pressure");
        for quarter in 1..=3 {
            let warmup = retired * quarter / 4;
            let warm = check_warm_matches_cold_on(
                &built.program,
                config,
                warmup,
                built.max_steps,
                Evictions::Total,
            )
            .unwrap_or_else(|err| panic!("{name} saved at {warmup}: {err}"));
            validate(warm.machine(), &built).expect(name);
        }
    }
}

/// A snapshot only loads into the program it was taken from. The scale
/// changes a kernel's text (input sizes and data addresses are
/// assembled into immediates), so a `tiny` snapshot offered to the
/// `small` build is rejected with the first foreign PC; loaded anyway,
/// each of these ran to `Exit(0)` with wrong output. Into its own
/// program the same snapshot still loads, round-trips byte for byte and
/// warm-starts a run that validates.
#[test]
fn snapshots_load_only_into_the_program_they_came_from() {
    let config = SystemConfig::new(ArrayShape::config2(), 64, true);
    for name in ["crc32", "bitcount", "sha", "quicksort", "gsm_enc"] {
        let spec = dim_workloads::by_name(name).expect("workload exists");
        let tiny = (spec.build)(Scale::Tiny);
        let mut donor = System::new(Machine::load(&tiny.program), config);
        donor.run(tiny.max_steps).expect(name);
        let bytes = donor.save_rcache();
        assert!(!donor.cache().is_empty(), "{name}: nothing cached");

        let small = (spec.build)(Scale::Small);
        let mut foreign = System::new(Machine::load(&small.program), config);
        match foreign.load_rcache(&bytes) {
            Err(err @ SnapshotError::ProgramMismatch { .. }) => {
                assert!(err.to_string().contains("0x"), "{name}: {err}");
            }
            other => panic!("{name}: tiny snapshot into the small build gave {other:?}"),
        }
        assert!(
            foreign.cache().is_empty(),
            "{name}: a rejected load restores nothing"
        );

        let mut same = System::new(Machine::load(&tiny.program), config);
        same.load_rcache(&bytes).expect(name);
        assert_eq!(same.save_rcache(), bytes, "{name}: same-program round trip");
        assert!(matches!(same.run(tiny.max_steps), Ok(HaltReason::Exit(_))));
        validate(same.machine(), &tiny).expect(name);
    }
}
