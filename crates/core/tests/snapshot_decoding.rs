//! Snapshots are untrusted bytes: `dim verify`, `dim accel
//! --rcache-load`, a warm sweep's `rcache/<id>.dimrc` and `dim serve`'s
//! shard import all decode and verify one before a run may use it. A
//! snapshot must either be rejected, or warm-start a run that ends as a
//! cold run does.

use dim_cgra::snapshot::WireError;
use dim_cgra::{ArrayShape, Configuration};
use dim_core::{frame, SnapshotContents, SnapshotError, System, SystemConfig, SNAPSHOT_FRAME};
use dim_mips_sim::{HaltReason, Machine};
use dim_workloads::{validate, BuiltBenchmark, Scale};
use proptest::prelude::*;
use std::sync::OnceLock;

fn build(name: &str) -> BuiltBenchmark {
    let spec = dim_workloads::by_name(name).expect("workload exists");
    (spec.build)(Scale::Tiny)
}

/// Runs `built` under `config` for `steps` instructions, then saves a
/// snapshot. Returns the machine state at the save and the snapshot.
fn save_after(built: &BuiltBenchmark, config: SystemConfig, steps: u64) -> (Machine, Vec<u8>) {
    let mut system = System::new(Machine::load(&built.program), config);
    system.run(steps).expect(built.name);
    let bytes = system.save_rcache();
    (system.machine().clone(), bytes)
}

/// Loads `bytes` into a fresh system resuming from `machine`.
fn warm(machine: &Machine, config: SystemConfig, bytes: &[u8]) -> Result<System, SnapshotError> {
    let mut system = System::new(machine.clone(), config);
    system.load_rcache(bytes)?;
    Ok(system)
}

/// `config` with its last segment exiting at `exit_pc`, rebuilt through
/// the same calls the decoder makes.
fn with_last_exit(config: &Configuration, exit_pc: u32) -> Configuration {
    let mut copy = Configuration::new(config.entry_pc, *config.shape());
    let segments = config.segments();
    for (k, segment) in segments.iter().enumerate() {
        for op in config.segment_ops(segment) {
            copy.place(op.pc, op.inst, op.depth, op.row as usize)
                .expect("the recorded placement replays");
        }
        let exit = if k + 1 == segments.len() {
            exit_pc
        } else {
            segment.exit_pc
        };
        copy.finish_segment(segment.depth, segment.branch, exit);
    }
    copy
}

/// An op row far past the rows in use, under the ideal shape (which
/// allows any row): the decoder used to hand it to placement, which grew
/// its row table to match and aborted the process on a 45-GB
/// allocation. It is corrupt input, and every loader rejects it.
#[test]
fn a_row_past_the_occupied_rows_is_rejected_before_placement() {
    let built = build("crc32");
    let config = SystemConfig::new(ArrayShape::infinite(), 64, true);
    let (machine, bytes) = save_after(&built, config, built.max_steps);
    let mut contents = SnapshotContents::parse(&bytes).expect("a saved snapshot parses");
    let target = contents
        .configs
        .iter_mut()
        .find(|config| config.instruction_count() > 1)
        .expect("a configuration with two ops");
    target.ops_mut()[1].row = 0xE000_0000;
    let crafted = contents.encode();
    match SnapshotContents::parse(&crafted) {
        Err(SnapshotError::Wire(WireError::Corrupt(what))) => {
            assert!(what.contains("row 3758096384"), "{what}");
        }
        other => panic!("a row no placement reaches gave {other:?}"),
    }
    assert!(warm(&machine, config, &crafted).is_err());
}

/// A region that closes on the first instruction after a speculated
/// branch ends with an empty branchless segment, and replay moves the
/// PC to its exit. Exiting anywhere but the predicted path (where the
/// segment before it exits) used to pass verification, and the warm run
/// then left the text.
#[test]
fn an_empty_segment_must_exit_on_the_predicted_path() {
    let built = build("bitcount");
    let config = SystemConfig::new(ArrayShape::config2(), 16, true);
    let (machine, bytes) = save_after(&built, config, built.max_steps / 3);
    let mut contents = SnapshotContents::parse(&bytes).expect("a saved snapshot parses");
    let index = contents
        .configs
        .iter()
        .position(|config| {
            let segments = config.segments();
            segments.len() > 1 && segments.last().is_some_and(|s| s.len == 0)
        })
        .expect("a configuration ending with an empty segment");
    let original = &contents.configs[index];
    let exit = original.segments().last().expect("segments").exit_pc;
    let retargeted = with_last_exit(original, exit + 0x100);
    assert!(dim_cgra::verify::verify_config(original).is_empty());
    let violations = dim_cgra::verify::verify_config(&retargeted);
    assert!(
        violations
            .iter()
            .any(|v| v.to_string().contains("is not the predicted path")),
        "{violations:?}"
    );
    contents.configs[index] = retargeted;
    match warm(&machine, config, &contents.encode()) {
        Err(SnapshotError::InvalidConfig { pc, .. }) => {
            assert_eq!(pc, contents.configs[index].entry_pc);
        }
        other => panic!("a retargeted empty segment gave {:?}", other.err()),
    }

    let mut untouched = warm(&machine, config, &bytes).expect("the saved snapshot loads");
    assert!(matches!(
        untouched.run(built.max_steps),
        Ok(HaltReason::Exit(_))
    ));
    validate(untouched.machine(), &built).expect("the warm run validates");
}

/// A configuration without ops would leave the PC at its entry, where
/// the next lookup hits it again: a run that never retires another
/// instruction. The translator never commits one, and loading rejects it.
#[test]
fn a_configuration_without_ops_is_rejected() {
    let built = build("crc32");
    let config = SystemConfig::new(ArrayShape::config2(), 16, true);
    let (machine, bytes) = save_after(&built, config, 1000);
    let mut contents = SnapshotContents::parse(&bytes).expect("a saved snapshot parses");
    let entry = contents.configs[0].entry_pc;
    let mut empty = Configuration::new(entry, config.shape);
    empty.finish_segment(0, None, entry);
    for crafted in [Configuration::new(entry, config.shape), empty] {
        contents.configs[0] = crafted;
        match warm(&machine, config, &contents.encode()) {
            Err(SnapshotError::InvalidConfig { pc, len: 0, detail }) => {
                assert_eq!(pc, entry);
                assert!(detail.contains("covers no ops"), "{detail}");
            }
            other => panic!("a configuration without ops gave {:?}", other.err()),
        }
    }
}

/// A run saved a third of the way through, with its snapshot's payload.
struct Donor {
    built: BuiltBenchmark,
    config: SystemConfig,
    machine: Machine,
    payload: Vec<u8>,
}

/// Donors from four kernels under three settings, the ideal shape
/// included, each saved a third of the way through its run (a third of
/// the step budget is past the end of some of these runs). Built once
/// for every case.
fn donors() -> &'static [Donor] {
    static DONORS: OnceLock<Vec<Donor>> = OnceLock::new();
    DONORS.get_or_init(|| {
        let configs = [
            SystemConfig::new(ArrayShape::config2(), 16, true),
            SystemConfig::new(ArrayShape::infinite(), 64, true),
            SystemConfig::new(ArrayShape::config1(), 4, false),
        ];
        let mut donors = Vec::new();
        for name in ["crc32", "bitcount", "quicksort", "patricia"] {
            let built = build(name);
            for config in configs {
                let mut whole = System::new(Machine::load(&built.program), config);
                whole.run(built.max_steps).expect(name);
                let third = whole.total_instructions() / 3;
                let (machine, bytes) = save_after(&built, config, third);
                assert!(machine.halted().is_none(), "{name}: saved after the run");
                let (_, payload) =
                    frame::decode_frame(SNAPSHOT_FRAME, &bytes).expect("a saved snapshot frames");
                donors.push(Donor {
                    built: built.clone(),
                    config,
                    machine,
                    payload: payload.to_vec(),
                });
            }
        }
        donors
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4000))]

    /// Flips 1–3 payload bytes of a saved snapshot and re-frames it, so
    /// the checksum holds: loading either rejects it, or the warm run
    /// from the saved machine state exits and validates. Nothing panics
    /// or aborts.
    #[test]
    fn no_snapshot_that_loads_breaks_a_run(
        donor in 0usize..12,
        flips in prop::collection::vec((any::<u32>(), 1u8..=255), 1..=3),
    ) {
        let donor = &donors()[donor];
        let mut payload = donor.payload.clone();
        for &(at, mask) in &flips {
            let len = payload.len();
            payload[at as usize % len] ^= mask;
        }
        let bytes = frame::encode_frame(SNAPSHOT_FRAME, &payload);
        if let Ok(mut system) = warm(&donor.machine, donor.config, &bytes) {
            let halt = system.run(donor.built.max_steps);
            prop_assert!(
                matches!(halt, Ok(HaltReason::Exit(_))),
                "{}: accepted snapshot ran to {:?}",
                donor.built.name,
                halt
            );
            let checked = validate(system.machine(), &donor.built);
            prop_assert!(
                checked.is_ok(),
                "{}: accepted snapshot ran wrong: {:?}",
                donor.built.name,
                checked
            );
        }
    }
}
