//! Unit tests of the benchmark's own parts: seeded inputs, metric
//! bookkeeping, and tiny end-to-end runs of every workload.

use dim_mips_sim::HaltReason;
use dim_perfbench::calib::{to_reference, REFERENCE_S};
use dim_perfbench::inputs::{build, built_in_input, input_label, load, reference, SeededInput};
use dim_perfbench::metrics::{median, p10, residual_ns_per_array_inst, Metrics, Tally};
use dim_perfbench::plan::{Plan, Workload, KERNEL_LOOP};
use dim_perfbench::spans::Spans;
use dim_perfbench::{steady, traced};
use dim_workloads::{validate, Scale};
use std::path::PathBuf;

const SEEDED: [&str; 6] = [
    "crc32",
    "sha",
    "bitcount",
    "quicksort",
    "rawaudio_enc",
    "rawaudio_dec",
];

fn scratch(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name)
}

#[test]
fn reference_reproduces_built_in_outputs() {
    // The label extent and the reference model are right exactly when
    // the model, fed the built-in buffer, predicts the kernel's own oracle.
    for kernel in SEEDED {
        for scale in [Scale::Tiny, Scale::Full] {
            let (built, _) = build(kernel, scale, None);
            let label = input_label(kernel).expect("seeded kernel");
            let input = built_in_input(&built.program, label).expect("label in .data");
            assert_eq!(
                reference(kernel, &input).expect("public reference"),
                built.expected,
                "{kernel} at {scale:?}"
            );
        }
    }
}

#[test]
fn seeded_inputs_repeat_differ_and_validate() {
    for kernel in SEEDED {
        let (_, a) = build(kernel, Scale::Tiny, Some(7));
        let (_, again) = build(kernel, Scale::Tiny, Some(7));
        let (built, b) = build(kernel, Scale::Tiny, Some(8));
        let (a, b) = (a.expect("seeded"), b.expect("seeded"));
        assert_eq!(Some(&a), again.as_ref(), "{kernel}: same seed, same bytes");
        assert_ne!(a.bytes, b.bytes, "{kernel}: another seed, other bytes");
        assert_eq!(built.expected, b.expected);

        let mut machine = load(&built, Some(&b));
        assert!(matches!(
            machine.run(built.max_steps),
            Ok(HaltReason::Exit(_))
        ));
        validate(&machine, &built).unwrap_or_else(|e| panic!("{kernel}: {e}"));
    }
}

#[test]
fn kernels_without_a_public_reference_keep_their_input() {
    let (built, input) = build("patricia", Scale::Tiny, Some(7));
    assert!(input.is_none());
    assert!(SeededInput::draw(&built, 7).is_none());
}

#[test]
fn seed_orders_kernels() {
    let plan = |seed| Plan::new(Workload::KernelLoop, seed, scratch("order")).kernels;
    assert_eq!(plan(1), plan(1));
    let mut sorted = plan(1);
    sorted.sort_unstable();
    let mut expected = KERNEL_LOOP.to_vec();
    expected.sort_unstable();
    assert_eq!(sorted, expected);
    assert!((2..10).any(|seed| plan(seed) != plan(1)));
}

#[test]
fn ratios_carry_their_base() {
    let mut m = Metrics::default();
    m.ratio("hit_rate", 1.0, 0.0, "ratio", "lookups");
    assert_eq!(m.get("hit_rate"), Some(0.0));
    assert_eq!(m.missing_bases(), vec!["hit_rate"]);
    m.count("lookups", 0);
    assert!(m.missing_bases().is_empty());
}

#[test]
fn residual_is_reported_as_measured() {
    // Estimates larger than the measured core time leave a negative
    // residual, which must not be clamped to zero.
    assert_eq!(
        residual_ns_per_array_inst(100.0, 80.0, 30.0, 10.0, 10),
        -2.0
    );
    assert_eq!(residual_ns_per_array_inst(100.0, 50.0, 20.0, 10.0, 10), 2.0);
}

#[test]
fn p10_interpolates_the_fastest_decile() {
    assert_eq!(p10(&[]), 0.0);
    assert_eq!(p10(&[3.0]), 3.0);
    assert!((p10(&[5.0, 1.0, 3.0, 2.0, 4.0]) - 1.4).abs() < 1e-12);
}

#[test]
fn median_interpolates_an_even_count() {
    assert_eq!(median(&[]), 0.0);
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
}

#[test]
fn reference_seconds_scale_with_host_speed() {
    // On the reference host a sample reads as measured; on a host that
    // takes twice as long for the reference work, it reads half.
    assert_eq!(to_reference(0.5, REFERENCE_S), 0.5);
    assert!((to_reference(0.5, 2.0 * REFERENCE_S) - 0.25).abs() < 1e-12);
}

/// `(name, unit)` of every metric `BENCHMARK.json` lists under `key`.
fn listed(key: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
    let json = dim_obs::parse_json(&text).expect("valid JSON");
    let Some(dim_obs::JsonValue::Array(items)) = json.get(key) else {
        panic!("no `{key}` list");
    };
    items
        .iter()
        .map(|m| {
            let field = |k| {
                m.get(k)
                    .and_then(dim_obs::JsonValue::as_str)
                    .unwrap()
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn reported(metrics: &Metrics) -> Vec<(String, String)> {
    metrics
        .all()
        .iter()
        .map(|m| (m.name.to_string(), m.unit.to_string()))
        .collect()
}

#[test]
fn every_workload_reports_every_listed_metric() {
    for workload in Workload::ALL {
        let plan = Plan::new(workload, 3, scratch(workload.name())).at_scale(Scale::Tiny);

        let mut tally = Tally::default();
        let e2e = steady::run(&plan, 0.0, &mut tally);
        assert!(tally.correct(), "{}: {:?}", workload.name(), tally.problems);
        assert_eq!(reported(&e2e), listed("end_to_end"));
        assert!(e2e.missing_bases().is_empty());

        let mut tally = Tally::default();
        let layers = traced::run(&plan, 1, &mut tally, &mut Spans::default());
        assert!(tally.correct(), "{}: {:?}", workload.name(), tally.problems);
        assert_eq!(reported(&layers), listed("per_layer"));
        assert!(layers.missing_bases().is_empty());
        let base = layers
            .all()
            .iter()
            .find(|m| m.name == "core.residual_ns_per_array_inst")
            .and_then(|m| m.base);
        assert_eq!(base, Some("core.array_instructions"));

        // The traced run simulates exactly what the timed runs did.
        if workload != Workload::Table2Sweep {
            let cycles: f64 = layers
                .all()
                .iter()
                .filter(|m| m.name.starts_with("cycles."))
                .map(|m| m.value)
                .sum();
            assert_eq!(Some(cycles), e2e.get("sim_cycles"), "{}", workload.name());
        }
    }
}
