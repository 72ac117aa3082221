//! The cardinal integration test: every benchmark, across a grid of
//! accelerator settings, must produce byte-identical results to the plain
//! processor — acceleration may only change cycle counts.

use dim_accel::prelude::*;
use dim_accel::workloads::{validate, BuiltBenchmark};

fn check_grid(built: &BuiltBenchmark) {
    let mut baseline = Machine::load(&built.program);
    let halt = baseline.run(built.max_steps).expect("baseline runs");
    assert!(
        matches!(halt, HaltReason::Exit(_)),
        "{}: no halt",
        built.name
    );
    validate(&baseline, built).expect("baseline validates");

    let grid = [
        (ArrayShape::config1(), 16, false),
        (ArrayShape::config1(), 64, true),
        (ArrayShape::config2(), 64, true),
        (ArrayShape::config3(), 256, true),
        (ArrayShape::infinite(), 1 << 20, true),
    ];
    for (i, (shape, slots, spec)) in grid.into_iter().enumerate() {
        let mut machine = Machine::load(&built.program);
        if i == 1 {
            // One grid point runs with realistic caches attached: they
            // must change timing only, never results.
            use dim_accel::sim::{CacheConfig, CacheSim};
            machine.icache = Some(CacheSim::new(CacheConfig::icache_4k()));
            machine.dcache = Some(CacheSim::new(CacheConfig::dcache_4k()));
        }
        let mut config = SystemConfig::new(shape, slots, spec);
        // Every point checks each committed configuration statically and
        // each array invocation against the placement-level dataflow
        // executor (both panic on a violation or divergence).
        config.verify_configs = true;
        config.cross_check = true;
        if i == 0 {
            // And one runs the LRU replacement policy.
            config.cache_policy = dim_accel::dim::ReplacementPolicy::Lru;
        }
        let mut sys = System::new(machine, config);
        let halt = sys
            .run(built.max_steps)
            .unwrap_or_else(|e| panic!("{}: accelerated run failed: {e}", built.name));
        assert!(
            matches!(halt, HaltReason::Exit(_)),
            "{}: accelerated run hit the step limit",
            built.name
        );
        validate(sys.machine(), built).unwrap_or_else(|e| {
            panic!(
                "{} diverged under shape rows={} slots={slots} spec={spec}: {e}",
                built.name,
                sys.config().shape.rows
            )
        });
        // Architectural state equality, not just output regions.
        for r in Reg::all() {
            assert_eq!(
                sys.machine().cpu.reg(r),
                baseline.cpu.reg(r),
                "{}: register {r} differs (slots={slots}, spec={spec})",
                built.name
            );
        }
        if i != 1 {
            assert!(
                sys.total_cycles() <= baseline.stats.cycles,
                "{}: acceleration made things slower ({} > {})",
                built.name,
                sys.total_cycles(),
                baseline.stats.cycles
            );
        }
        assert_eq!(
            sys.total_instructions(),
            baseline.stats.instructions,
            "{}: retired-instruction count not conserved",
            built.name
        );
    }
}

// One test per benchmark so failures are attributable and runs parallel.
macro_rules! differential {
    ($($test:ident => $name:literal),+ $(,)?) => {
        $(
            #[test]
            fn $test() {
                let spec = by_name($name).expect("benchmark exists");
                check_grid(&(spec.build)(Scale::Tiny));
            }
        )+
    };
}

differential! {
    diff_rijndael_enc => "rijndael_enc",
    diff_rijndael_dec => "rijndael_dec",
    diff_gsm_enc => "gsm_enc",
    diff_jpeg_enc => "jpeg_enc",
    diff_sha => "sha",
    diff_susan_smoothing => "susan_smoothing",
    diff_crc32 => "crc32",
    diff_jpeg_dec => "jpeg_dec",
    diff_patricia => "patricia",
    diff_susan_corners => "susan_corners",
    diff_susan_edges => "susan_edges",
    diff_dijkstra => "dijkstra",
    diff_gsm_dec => "gsm_dec",
    diff_bitcount => "bitcount",
    diff_stringsearch => "stringsearch",
    diff_quicksort => "quicksort",
    diff_rawaudio_enc => "rawaudio_enc",
    diff_rawaudio_dec => "rawaudio_dec",
}
