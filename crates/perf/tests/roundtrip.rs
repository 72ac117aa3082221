//! End-to-end: record a real baseline, round-trip it through the file
//! format, and gate it — including the injected-regression drill the CI
//! gate's usefulness rests on.

use dim_perf::{compare, gate, record, Baseline, RecordOptions, ToleranceSpec};

fn tiny_options() -> RecordOptions {
    RecordOptions {
        name: "test".into(),
        workloads: vec!["crc32".into(), "sha".into()],
        scale: "tiny".into(),
        shape: 1,
        cache_slots: 64,
        speculation: true,
        host_reps: 2,
    }
}

#[test]
fn record_roundtrips_and_gates_green() {
    let opts = tiny_options();
    let baseline = record(&opts).expect("record succeeds");
    assert_eq!(baseline.workloads.len(), 2);
    for w in &baseline.workloads {
        // The core schema invariant: attribution accounts for every
        // simulated cycle, exactly.
        assert_eq!(w.attribution.total(), w.accel_cycles);
        assert!(w.speedup > 1.0, "{} should accelerate", w.name);
        assert!(w.host.wall_nanos_min > 0);
        assert!(w.host.reps == 2);
    }

    for w in &baseline.workloads {
        // Fabric utilization is always captured on fresh recordings,
        // with busy never exceeding the provisioned capacity.
        let f = w.fabric.expect("fabric counters recorded");
        assert!(f.capacity_total() > 0, "{} never used the array", w.name);
        assert!(f.busy_total() <= f.capacity_total());
        assert!(f.writeback_writes <= f.writeback_slots);
    }

    // File-format round trip preserves everything.
    let parsed = Baseline::parse(&baseline.to_json()).expect("parses");
    assert_eq!(parsed, baseline);

    // Recording again is deterministic on the simulated side, so the
    // strict gate (host checks off) passes against the fresh record.
    let again = record(&opts).expect("re-record succeeds");
    let outcome = gate(&baseline, &again, &ToleranceSpec::strict());
    assert!(outcome.ok(), "{}", outcome.render());

    // And the comparison agrees nothing simulated moved.
    let cmp = compare(&baseline, &again);
    for w in &cmp.workloads {
        for d in w.deltas.iter().filter(|d| !d.host) {
            assert_eq!(d.rel, 0.0, "{} {} moved", w.name, d.metric);
        }
    }
}

#[test]
fn injected_regression_fails_the_gate() {
    let baseline = record(&tiny_options()).expect("record succeeds");
    let mut regressed = baseline.clone();
    // Inject a >=5% simulated-cycle regression into one workload,
    // keeping the attribution invariant intact.
    let w = &mut regressed.workloads[0];
    let extra = w.accel_cycles / 20 + 1; // just over 5%
    w.accel_cycles += extra;
    w.attribution.pipeline += extra;
    w.speedup = w.scalar_cycles as f64 / w.accel_cycles as f64;

    // Even a 4.9% tolerance must flag it...
    let spec = ToleranceSpec::parse(
        "[simulated]\n\
         accel_cycles = 0.049\n",
    )
    .unwrap();
    let outcome = gate(&baseline, &regressed, &spec);
    assert!(!outcome.ok(), "gate must catch the regression");
    assert!(outcome
        .violations
        .iter()
        .any(|v| v.metric == "accel_cycles" && v.rel >= 0.05));

    // ...and the strict default certainly does.
    assert!(!gate(&baseline, &regressed, &ToleranceSpec::strict()).ok());

    // The doctored file still passes schema validation (the attribution
    // invariant was preserved), so it is the gate, not the parser, that
    // catches it.
    Baseline::parse(&regressed.to_json()).expect("still schema-valid");
}

#[test]
fn unknown_workload_is_rejected() {
    let mut opts = tiny_options();
    opts.workloads = vec!["not-a-kernel".into()];
    let err = record(&opts).unwrap_err();
    assert!(err.to_string().contains("unknown workload"), "{err}");
}

#[test]
fn repeated_workload_is_rejected_before_anything_runs() {
    let mut opts = tiny_options();
    // The unknown name sits between the two, so an error about it would
    // mean crc32 had already run.
    opts.workloads = vec!["crc32".into(), "not-a-kernel".into(), "crc32".into()];
    let err = record(&opts).unwrap_err();
    assert!(matches!(err, dim_perf::PerfError::Parse(_)), "{err:?}");
    assert_eq!(err.to_string(), "duplicate workload `crc32`");
}
