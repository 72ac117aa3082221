//! End-to-end sweep engine tests: parallel/serial byte-identity,
//! kill-and-resume via `--limit`, and rcache warm-start reuse.

use dim_sweep::{run_sweep, SweepOptions, SweepSpec};
use std::fs;
use std::path::{Path, PathBuf};

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dim-sweep-it-{}-{name}", std::process::id()));
    fs::remove_dir_all(&dir).ok();
    dir
}

fn tiny_spec() -> SweepSpec {
    SweepSpec::parse(
        "workloads = crc32, bitcount\n\
         scale = tiny\n\
         shapes = 1, 3\n\
         slots = 16\n\
         speculation = on\n",
    )
    .unwrap()
}

fn read_cells(dir: &Path, spec: &SweepSpec) -> Vec<(String, Vec<u8>)> {
    spec.expand()
        .into_iter()
        .map(|c| {
            let path = dir.join("cells").join(format!("{}.json", c.id));
            (
                c.id,
                fs::read(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display())),
            )
        })
        .collect()
}

#[test]
fn parallel_results_byte_identical_to_serial() {
    let spec = tiny_spec();
    let serial_dir = scratch("det-serial");
    let parallel_dir = scratch("det-parallel");

    let serial = run_sweep(&spec, &SweepOptions::new(serial_dir.clone())).unwrap();
    let mut opts = SweepOptions::new(parallel_dir.clone());
    opts.jobs = 4;
    let parallel = run_sweep(&spec, &opts).unwrap();

    assert!(serial.complete && parallel.complete);
    assert_eq!(serial.executed, 4);
    assert_eq!(parallel.executed, 4);
    assert_eq!(
        read_cells(&serial_dir, &spec),
        read_cells(&parallel_dir, &spec)
    );
    assert_eq!(
        fs::read(serial_dir.join("report.txt")).unwrap(),
        fs::read(parallel_dir.join("report.txt")).unwrap()
    );

    // The per-cell fabric heat summaries share the byte-identity
    // guarantee, and each one is valid JSON obeying the conservation
    // law busy ≤ capacity per class.
    for cell in spec.expand() {
        let name = format!("{}.json", cell.id);
        let a = fs::read(serial_dir.join("heat").join(&name)).unwrap();
        let b = fs::read(parallel_dir.join("heat").join(&name)).unwrap();
        assert_eq!(a, b, "heat summary for `{}` diverged", cell.id);
        let v = dim_obs::parse_json(std::str::from_utf8(&a).unwrap()).unwrap();
        let class = |obj: &str, key: &str| {
            v.get(obj)
                .and_then(|o| o.get(key))
                .and_then(dim_obs::JsonValue::as_u64)
                .unwrap()
        };
        for k in ["alu", "mult", "ldst"] {
            assert!(
                class("busy_thirds", k) <= class("capacity_thirds", k),
                "{}: {k} busy exceeds capacity",
                cell.id
            );
        }
        assert!(v.get("invocations").and_then(dim_obs::JsonValue::as_u64) > Some(0));
    }

    // Both runs dump a wall-clock span file: one well-formed root per
    // cell with a simulate child. The timings differ run to run — spans
    // sit outside the determinism contract — but the tree shape is
    // fixed.
    for dir in [&serial_dir, &parallel_dir] {
        let file = dim_obs::span::read_span_file(&dir.join(dim_obs::SPAN_FILE_NAME)).unwrap();
        let forest = dim_obs::SpanForest::build(&file);
        assert_eq!(forest.roots.len(), 4, "one span root per executed cell");
        assert_eq!(forest.orphans_trimmed, 0);
        assert_eq!(forest.check_laws(), Vec::<String>::new());
        for &root in &forest.roots {
            assert_eq!(forest.spans[root].stage, "cell");
            assert!(
                forest.children[root]
                    .iter()
                    .any(|&c| forest.spans[c].stage == "simulate"),
                "every cell has a simulate span"
            );
        }
    }

    fs::remove_dir_all(&serial_dir).ok();
    fs::remove_dir_all(&parallel_dir).ok();
}

#[test]
fn limit_interrupt_then_resume_skips_done_cells() {
    let spec = tiny_spec();
    let dir = scratch("resume");

    // "Kill" after two cells.
    let mut first = SweepOptions::new(dir.clone());
    first.limit = Some(2);
    let outcome = run_sweep(&spec, &first).unwrap();
    assert_eq!(outcome.executed, 2);
    assert!(!outcome.complete);
    assert!(!dir.join("report.txt").exists());
    let journal_after_first = fs::read_to_string(dir.join("journal.txt")).unwrap();
    assert_eq!(journal_after_first.lines().count(), 2);

    // Resume: only the remaining two cells execute.
    let resumed = run_sweep(&spec, &SweepOptions::new(dir.clone())).unwrap();
    assert_eq!(resumed.skipped, 2);
    assert_eq!(resumed.executed, 2);
    assert!(resumed.complete);
    assert!(dir.join("report.txt").exists());

    // A third invocation is a no-op.
    let noop = run_sweep(&spec, &SweepOptions::new(dir.clone())).unwrap();
    assert_eq!(noop.executed, 0);
    assert_eq!(noop.skipped, 4);
    assert!(noop.complete);

    fs::remove_dir_all(&dir).ok();
}

/// The out-dir's top-level entries, directories marked with a `/`.
fn entries(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = fs::read_dir(dir)
        .unwrap()
        .map(|entry| {
            let entry = entry.unwrap();
            let name = entry.file_name().into_string().unwrap();
            if entry.file_type().unwrap().is_dir() {
                name + "/"
            } else {
                name
            }
        })
        .collect();
    names.sort();
    names
}

/// A sweep writes only its documented outputs, whether it runs to
/// completion at once or is resumed: each cell's wall time lives in
/// `spans.dimspan` and the invocation's throughput in `summary.json`,
/// and nothing else repeats them.
#[test]
fn a_sweep_writes_only_its_documented_outputs() {
    let spec = SweepSpec::parse(
        "workloads = crc32, bitcount\n\
         scale = tiny\n\
         shapes = 1, 3\n\
         slots = 16\n\
         speculation = on\n\
         warm_rcache = on\n",
    )
    .unwrap();
    let documented = [
        "cells/",
        "heat/",
        "journal.txt",
        "rcache/",
        "report.txt",
        "spans.dimspan",
        "status.dimstat",
        "summary.json",
    ];

    let complete = scratch("outputs-complete");
    assert!(
        run_sweep(&spec, &SweepOptions::new(complete.clone()))
            .unwrap()
            .complete
    );
    assert_eq!(entries(&complete), documented);

    let resumed = scratch("outputs-resumed");
    let mut first = SweepOptions::new(resumed.clone());
    first.limit = Some(2);
    assert!(!run_sweep(&spec, &first).unwrap().complete);
    assert!(
        run_sweep(&spec, &SweepOptions::new(resumed.clone()))
            .unwrap()
            .complete
    );
    assert_eq!(entries(&resumed), documented);

    fs::remove_dir_all(&complete).ok();
    fs::remove_dir_all(&resumed).ok();
}

#[test]
fn corrupt_result_file_is_rerun_on_resume() {
    let spec = tiny_spec();
    let dir = scratch("corrupt");
    run_sweep(&spec, &SweepOptions::new(dir.clone())).unwrap();

    // Tamper with one result: the journal checksum no longer matches,
    // so exactly that cell must re-execute.
    let victim = dir
        .join("cells")
        .join(format!("{}.json", spec.expand()[0].id));
    let good = fs::read(&victim).unwrap();
    fs::write(&victim, b"{}\n").unwrap();

    let resumed = run_sweep(&spec, &SweepOptions::new(dir.clone())).unwrap();
    assert_eq!(resumed.executed, 1);
    assert_eq!(resumed.skipped, 3);
    assert!(resumed.complete);
    assert_eq!(fs::read(&victim).unwrap(), good);

    fs::remove_dir_all(&dir).ok();
}

#[test]
fn warm_rcache_snapshots_persist_and_reload() {
    let spec = SweepSpec::parse(
        "workloads = crc32\nscale = tiny\nshapes = 1\nslots = 16\n\
         speculation = on\nwarm_rcache = on",
    )
    .unwrap();
    let dir = scratch("warm");
    run_sweep(&spec, &SweepOptions::new(dir.clone())).unwrap();

    let cell = &spec.expand()[0];
    let snapshot = dir.join("rcache").join(format!("{}.dimrc", cell.id));
    assert!(snapshot.exists(), "snapshot written for warm sweep");
    let cold_json = fs::read(dir.join("cells").join(format!("{}.json", cell.id))).unwrap();
    assert!(String::from_utf8_lossy(&cold_json).contains("\"warm_loaded\":false"));

    // Force re-execution of the same grid in the same directory: the
    // cell must load the snapshot this time.
    fs::remove_file(dir.join("journal.txt")).unwrap();
    run_sweep(&spec, &SweepOptions::new(dir.clone())).unwrap();
    let warm_json = fs::read(dir.join("cells").join(format!("{}.json", cell.id))).unwrap();
    let warm_text = String::from_utf8_lossy(&warm_json);
    assert!(warm_text.contains("\"warm_loaded\":true"), "{warm_text}");

    // Warm start must not change the architectural outcome: baseline
    // and accel cycle counts both stay self-consistent fields.
    let parsed = dim_obs::parse_json(&warm_text).unwrap();
    assert!(
        parsed
            .get("accel_cycles")
            .and_then(dim_obs::JsonValue::as_u64)
            .unwrap()
            > 0
    );

    fs::remove_dir_all(&dir).ok();
}

#[test]
fn explain_sweep_writes_forensics_without_perturbing_results() {
    let spec = tiny_spec();
    let plain_dir = scratch("explain-plain");
    let explain_dir = scratch("explain-on");

    run_sweep(&spec, &SweepOptions::new(plain_dir.clone())).unwrap();
    let mut opts = SweepOptions::new(explain_dir.clone());
    opts.explain = true;
    run_sweep(&spec, &opts).unwrap();

    // The determinism contract is unaffected: cell results and the
    // report are byte-identical with or without forensics.
    assert_eq!(
        read_cells(&plain_dir, &spec),
        read_cells(&explain_dir, &spec)
    );
    assert_eq!(
        fs::read(plain_dir.join("report.txt")).unwrap(),
        fs::read(explain_dir.join("report.txt")).unwrap()
    );

    // Every cell gained a parseable forensics report with attribution
    // that covers the cell's full cycle count.
    for cell in spec.expand() {
        let path = explain_dir
            .join("explain")
            .join(format!("{}.json", cell.id));
        let text = fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("missing forensics {}: {e}", path.display()));
        let parsed = dim_obs::parse_json(&text).unwrap();
        assert_eq!(
            parsed.get("workload").and_then(|v| v.as_str()),
            Some(cell.id.as_str())
        );
        let total = parsed
            .get("total_cycles")
            .and_then(dim_obs::JsonValue::as_u64)
            .unwrap();
        assert!(total > 0, "{}", cell.id);
        assert!(parsed
            .get("regions")
            .and_then(|v| v.as_array())
            .is_some_and(|r| !r.is_empty()));
        assert!(!plain_dir.join("explain").exists());
    }

    fs::remove_dir_all(&plain_dir).ok();
    fs::remove_dir_all(&explain_dir).ok();
}

#[test]
fn status_file_is_published_and_valid_but_outside_the_contract() {
    use dim_obs::status::{read_status, STATUS_FILE_NAME};

    let spec = tiny_spec();
    let dir = scratch("status");
    let mut opts = SweepOptions::new(dir.clone());
    opts.jobs = 2;
    let outcome = run_sweep(&spec, &opts).unwrap();
    assert!(outcome.complete);

    // The board parses back with a verified checksum: one aggregate
    // entry plus one per worker, with the aggregate settled on "done".
    let status = read_status(&dir.join(STATUS_FILE_NAME)).unwrap();
    assert_eq!(status.entries.len(), 1 + 2);
    let agg = &status.entries[0];
    assert_eq!(agg.source, "sweep");
    assert_eq!(agg.state, "done");
    assert_eq!(agg.done, 4);
    assert_eq!(agg.total, 4);
    assert!(agg.retired > 0);
    assert!(agg.sim_cycles > 0);
    assert!(agg.host_nanos > 0);
    assert!(status.entries[1..]
        .iter()
        .all(|e| e.source.starts_with("worker-")));

    // Like spans.dimspan, status.dimstat is host-side output: the
    // deterministic artifacts must be byte-identical with the flight
    // recorder and status publishing disabled entirely.
    let bare_dir = scratch("status-bare");
    let mut bare = SweepOptions::new(bare_dir.clone());
    bare.flight_capacity = 0;
    run_sweep(&spec, &bare).unwrap();
    assert_eq!(read_cells(&dir, &spec), read_cells(&bare_dir, &spec));
    assert_eq!(
        fs::read(dir.join("report.txt")).unwrap(),
        fs::read(bare_dir.join("report.txt")).unwrap()
    );

    fs::remove_dir_all(&dir).ok();
    fs::remove_dir_all(&bare_dir).ok();
}

/// The board reads every run's counters from its system, so a
/// finished sweep's aggregate is the sum of what its cells' systems
/// count, the array's instructions included.
#[test]
fn a_finished_sweeps_aggregate_is_the_sum_of_its_cells() {
    use dim_core::System;
    use dim_mips_sim::Machine;
    use dim_obs::status::{read_status, StatusEntry, STATUS_FILE_NAME};

    let spec = SweepSpec::parse(
        "workloads = crc32, quicksort\n\
         scale = tiny\n\
         shapes = 1, 3\n\
         ideal = on\n\
         slots = 4, 64\n\
         speculation = on, off\n",
    )
    .unwrap();
    let dir = scratch("aggregate");
    let mut opts = SweepOptions::new(dir.clone());
    opts.jobs = 2;
    assert!(run_sweep(&spec, &opts).unwrap().complete);
    let agg = read_status(&dir.join(STATUS_FILE_NAME)).unwrap().entries[0].clone();

    let mut sum = StatusEntry::default();
    let mut instructions = 0;
    for cell in spec.expand() {
        let built = (dim_workloads::by_name(&cell.workload).unwrap().build)(cell.scale);
        let mut system = System::new(Machine::load(&built.program), cell.system_config());
        system.run(built.max_steps).unwrap();
        let (hits, misses) = system.cache().hit_miss();
        instructions += system.total_instructions();
        sum.retired += system.machine().stats.instructions;
        sum.array_retired += system.stats().array_instructions;
        sum.sim_cycles += system.total_cycles();
        sum.invocations += system.stats().array_invocations;
        sum.misspeculations += system.stats().misspeculations;
        sum.rcache_hits += hits;
        sum.rcache_misses += misses;
        sum.fabric_busy_thirds += system.fabric_heat().total_busy_thirds();
        sum.fabric_capacity_thirds += system.fabric_heat().total_capacity_thirds();
    }
    assert_eq!(agg.retired + agg.array_retired, instructions);
    assert!(agg.array_retired > 0);
    assert_eq!(agg.done, spec.expand().len() as u64);
    assert_eq!(
        StatusEntry {
            source: agg.source.clone(),
            label: agg.label.clone(),
            state: agg.state.clone(),
            done: agg.done,
            total: agg.total,
            host_nanos: agg.host_nanos,
            ..sum
        },
        agg
    );
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn watchdog_stays_quiet_across_warm_resume_sweeps() {
    // Warm-start snapshots seed the watchdog's resident set; a second
    // sweep over the same grid must not trip hit-without-insert.
    let spec = SweepSpec::parse(
        "workloads = crc32\nscale = tiny\nshapes = 1\nslots = 16\nspeculation = on\nwarm_rcache = true",
    )
    .unwrap();
    let dir = scratch("warm-watchdog");
    run_sweep(&spec, &SweepOptions::new(dir.clone())).unwrap();
    // Force re-execution by clearing the journal but keeping snapshots.
    fs::remove_file(dir.join("journal.txt")).unwrap();
    for cell in spec.expand() {
        fs::remove_file(dir.join("cells").join(format!("{}.json", cell.id))).ok();
    }
    let second = run_sweep(&spec, &SweepOptions::new(dir.clone())).unwrap();
    assert!(second.complete);
    assert_eq!(second.executed, 1);
    assert!(
        !dir.join("flight").exists(),
        "no flight dumps expected from a clean warm resume"
    );
    fs::remove_dir_all(&dir).ok();
}
