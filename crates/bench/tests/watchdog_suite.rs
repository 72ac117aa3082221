//! Whole-suite watchdog drill: every bundled workload, at every array
//! shape, both cache sizes and both speculation settings, must run to
//! completion, validate, keep the online invariant watchdog silent and
//! hold the run-end counter laws that every production run checks. A
//! trip here means the simulator's probe stream or its counters
//! violated one of its own conservation laws — a bug worth the test
//! time to catch early.

use dim_cgra::ArrayShape;
use dim_core::{System, SystemConfig};
use dim_mips_sim::Machine;
use dim_obs::FlightGuard;
use dim_sweep::counter_laws;
use dim_workloads::{suite, validate, Scale};

/// A roomy cache, and a 4-slot one where a hit's partial insert can
/// evict the very configuration being replayed before a misspeculation
/// flushes it (rawaudio_enc and dijkstra do this at tiny scale).
const SLOTS: [usize; 2] = [64, 4];

#[test]
fn every_workload_runs_clean_under_the_watchdog() {
    let suite = suite();
    assert_eq!(suite.len(), 18, "suite size changed; update this drill");
    let shapes = [
        ("c1", ArrayShape::config1()),
        ("c2", ArrayShape::config2()),
        ("c3", ArrayShape::config3()),
        ("ideal", ArrayShape::infinite()),
    ];
    for spec in &suite {
        let built = (spec.build)(Scale::Tiny);
        for (shape_name, shape) in shapes {
            for slots in SLOTS {
                for speculation in [true, false] {
                    let name = format!(
                        "{} @ {shape_name}, {slots} slots, speculation {speculation}",
                        spec.name
                    );
                    let mut system = System::new(
                        Machine::load(&built.program),
                        SystemConfig::new(shape, slots, speculation),
                    );
                    let mut guard =
                        FlightGuard::new(spec.name, 4096, slots, system.stored_bits_per_config());
                    system
                        .run_probed(built.max_steps, &mut guard)
                        .unwrap_or_else(|e| panic!("{name}: {e}"));
                    validate(system.machine(), &built).unwrap_or_else(|e| panic!("{name}: {e}"));
                    assert!(
                        guard.violation().is_none(),
                        "{name}: watchdog tripped: {}",
                        guard.violation().expect("just checked")
                    );
                    counter_laws(&system).unwrap_or_else(|e| panic!("{name}: {e}"));
                    assert!(
                        guard.recorder().total() > 0,
                        "{name}: recorder saw no events"
                    );
                    // The retained window must replay through the trace
                    // validator.
                    dim_obs::replay::read_trace(&guard.dump())
                        .unwrap_or_else(|e| panic!("{name}: dump did not validate: {e}"));
                }
            }
        }
    }
}
