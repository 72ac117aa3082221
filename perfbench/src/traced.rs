//! The traced run behind the per-layer metrics.
//!
//! Separate from the timed runs. For every kernel of the plan it times,
//! each `reps` times, the public calls into each layer — `BenchmarkSpec::build`,
//! `Machine::load`, `prove_program`, `Machine::run`, `System::run`, and
//! `System::run_probed` under the sweep's `FlightGuard` — keeping a span
//! around each. One more run with `HostSplit` reads the in-program
//! sampler, and one with a [`Capture`] probe records the rcache and
//! translator streams, which are then replayed to time those layers on
//! their own. Exact simulated counters come from the plain runs, and
//! must agree between every run of a kernel. Last comes the job layer:
//! on `table2_sweep`, `run_sweep` runs each kernel's slice of the grid
//! once, next to direct runs of the same cells; on the kernel workloads,
//! one pass of their own closed loop.

use crate::kernel::{timed, Kernel};
use crate::metrics::{p10, residual_ns_per_array_inst, Metrics, Tally};
use crate::plan::Plan;
use crate::replay::{Capture, Streams};
use crate::spans::{SpanId, Spans};
use dim_core::{CycleBreakdown, DimStats, System};
use dim_mips_sim::Machine;
use dim_obs::{FlightGuard, MonotonicClock, Probe as _};
use dim_sweep::{run_sweep, SweepOptions, DEFAULT_FLIGHT_CAPACITY};

/// Sums over kernels. Times are per-kernel fastest deciles ([`p10`]), in
/// seconds.
#[derive(Debug, Default)]
struct Totals {
    build: f64,
    load: f64,
    prove: f64,
    certs: u64,
    interp: f64,
    interp_insts: u64,
    base_cycles: u64,
    core: f64,
    flight: f64,
    capture: f64,
    hostsplit_est: f64,
    hostsplit_wall: f64,
    cache_all: f64,
    cache_inserts: f64,
    translator: f64,
    pipeline_est: f64,
    lookups: u64,
    inserts: u64,
    observes: u64,
    insts: u64,
    stats: DimStats,
    cycles: CycleBreakdown,
    hits: u64,
    evictions_live: u64,
    evictions_dead: u64,
    flushes: u64,
    stream_tags: u64,
    capacity_thirds: u64,
    busy_thirds: u64,
    writeback_writes: u64,
    writeback_slots: u64,
    watchdog_trips: u64,
}

/// What the sweep layer measured.
#[derive(Debug, Default)]
struct SweepLayer {
    wall: f64,
    workers: usize,
    direct: f64,
    cells: u64,
    steals: u64,
    job_us_mean: f64,
}

/// Runs the traced measurement of `plan`, repeating each timed call
/// `reps` times and keeping a span around each in `spans`.
pub fn run(plan: &Plan, reps: usize, tally: &mut Tally, spans: &mut Spans) -> Metrics {
    let root = spans.begin("workload", plan.workload.name(), None);
    let mut totals = Totals::default();
    for name in &plan.kernels {
        let parent = spans.begin("kernel", name, Some(root));
        if let Err(e) = kernel_layers(name, plan, reps, &mut totals, tally, spans, parent) {
            tally.problems.push(format!("{name}: {e}"));
        }
        spans.end(parent);
    }
    let sweep = if plan.sweeps.is_empty() {
        closed_loop_layer(plan, tally, spans, root)
    } else {
        sweep_layer(plan, tally, spans, root)
    };
    spans.end(root);
    per_layer(&totals, &sweep)
}

/// Adds `b` to `total`, field by field.
fn add_cycles(total: &mut CycleBreakdown, b: CycleBreakdown) {
    total.pipeline += b.pipeline;
    total.i_stall += b.i_stall;
    total.d_stall += b.d_stall;
    total.reconfig_stall += b.reconfig_stall;
    total.array_exec += b.array_exec;
    total.writeback_tail += b.writeback_tail;
}

/// Times every layer of one kernel and adds its counters to `t`.
fn kernel_layers(
    name: &'static str,
    plan: &Plan,
    reps: usize,
    t: &mut Totals,
    tally: &mut Tally,
    spans: &mut Spans,
    parent: SpanId,
) -> Result<(), String> {
    let p = Some(parent);
    let spec = dim_workloads::by_name(name).ok_or("unknown kernel")?;

    // Set-up layers.
    let (mut build, mut load, mut prove) = (Vec::new(), Vec::new(), Vec::new());
    let mut built = None;
    let mut report = None;
    for _ in 0..reps {
        let (b, secs) = spans.time("BenchmarkSpec::build", name, p, || (spec.build)(plan.scale));
        build.push(secs);
        let (_, secs) = spans.time("Machine::load", name, p, || Machine::load(&b.program));
        load.push(secs);
        let (r, secs) = spans.time("prove_program", name, p, || {
            dim_lint::prove::prove_program(&b.program, name)
        });
        prove.push(secs);
        built = Some(b);
        report = Some(r);
    }
    let (built, report) = (
        built.ok_or("no repetitions")?,
        report.ok_or("no repetitions")?,
    );
    t.build += p10(&build);
    t.load += p10(&load);
    t.prove += p10(&prove);
    t.certs += report.cert_count() as u64;
    let (built, input) = crate::inputs::seed(built, plan.seeded.then_some(plan.seed));
    let kernel = Kernel {
        built,
        input,
        certs: if plan.certs {
            report.certs().cloned().collect()
        } else {
            Vec::new()
        },
    };
    let max = kernel.built.max_steps;
    let system = |spans: &mut Spans| {
        spans
            .time("System::new", name, p, || kernel.system(plan.config))
            .0
    };

    // Interpreter, plain accelerated and flight-recorded runs, interleaved.
    let (mut interp, mut core, mut flight) = (Vec::new(), Vec::new(), Vec::new());
    let mut reference: Option<System> = None;
    let mut interp_insts = 0;
    let mut trips = 0;
    for _ in 0..reps {
        let mut machine = kernel.machine();
        let (halt, secs) = spans.time("Machine::run", name, p, || machine.run(max));
        if tally.run(&format!("{name} interpreter"), kernel.check(halt, &machine)) {
            interp.push(secs);
            if interp.len() == 1 {
                interp_insts = machine.stats.instructions;
                t.interp_insts += interp_insts;
                t.base_cycles += machine.stats.cycles;
            }
        }

        let mut s = system(spans)?;
        let (halt, secs) = spans.time("System::run", name, p, || s.run(max));
        if tally.run(
            &format!("{name} accelerated"),
            kernel.check(halt, s.machine()),
        ) {
            core.push(secs);
            tally.check(s.cycle_breakdown().total() == s.total_cycles(), || {
                format!("{name}: cycle attribution does not sum to total cycles")
            });
            same_stats(name, "repeated", &s, reference.as_ref(), tally);
            if reference.is_none() {
                reference = Some(s);
            }
        }

        let mut s = system(spans)?;
        let mut guard = FlightGuard::new(
            name,
            DEFAULT_FLIGHT_CAPACITY,
            plan.config.cache_slots,
            s.stored_bits_per_config(),
        );
        let (halt, secs) = spans.time("System::run_probed(FlightGuard)", name, p, || {
            let halt = s.run_probed(max, &mut guard);
            guard.finish();
            halt
        });
        if tally.run(
            &format!("{name} flight-recorded"),
            kernel.check(halt, s.machine()),
        ) {
            flight.push(secs);
            same_stats(name, "flight-recorded", &s, reference.as_ref(), tally);
            // A trip is the watchdog's verdict on the event stream of a
            // run that validated; it is reported, not counted as a failure.
            if let Some(violation) = guard.violation() {
                if trips == 0 {
                    eprintln!("perfbench: {name}: {violation}");
                }
                trips += 1;
            }
        }
    }
    let reference = reference.ok_or("no accelerated run validated")?;
    let interp_s = p10(&interp);
    let core_s = p10(&core);
    t.interp += interp_s;
    t.core += core_s;
    t.flight += p10(&flight);
    t.watchdog_trips += trips;

    // The in-program host-time sampler, read against the wall time of
    // the same run.
    let mut s = system(spans)?;
    s.enable_host_split(MonotonicClock::shared());
    let (halt, secs) = spans.time("System::run(HostSplit)", name, p, || s.run(max));
    if tally.run(
        &format!("{name} host-split"),
        kernel.check(halt, s.machine()),
    ) {
        same_stats(name, "host-split", &s, Some(&reference), tally);
        t.hostsplit_wall += secs;
        t.hostsplit_est += s
            .host_split()
            .map_or(0, dim_obs::HostSplit::total_estimated_nanos) as f64
            / 1e9;
    }

    // The captured run, and the outside-in replays of its streams.
    let mut s = system(spans)?;
    s.enable_commit_log();
    let mut capture = Capture::default();
    let (halt, secs) = spans.time("System::run_probed(Capture)", name, p, || {
        s.run_probed(max, &mut capture)
    });
    if !tally.run(&format!("{name} captured"), kernel.check(halt, s.machine())) {
        return Ok(());
    }
    same_stats(name, "captured", &s, Some(&reference), tally);
    t.capture += secs;
    let streams = Streams::build(capture, &s)?;
    let (mut all, mut inserts, mut trans) = (Vec::new(), Vec::new(), Vec::new());
    for rep in 0..reps {
        let ((secs, cache), _) = spans.time("ReconfCache::lookup+insert", name, p, || {
            streams.replay_cache(true)
        });
        all.push(secs);
        let ((secs, _), _) = spans.time("ReconfCache::insert", name, p, || {
            streams.replay_cache(false)
        });
        inserts.push(secs);
        let ((secs, built), _) = spans.time("Translator::observe", name, p, || {
            streams.replay_translator()
        });
        trans.push(secs);
        if rep == 0 {
            tally.check_result(name, streams.check_cache(&cache, &s));
            tally.check_result(name, streams.check_translator(&built));
        }
    }
    t.cache_all += p10(&all);
    t.cache_inserts += p10(&inserts);
    t.translator += p10(&trans);
    t.lookups += streams.lookups;
    t.inserts += streams.inserts;
    t.observes += streams.observes;

    // Exact counters, from the plain run.
    let r = &reference;
    let pipe_insts = r.machine().stats.instructions;
    if interp_insts > 0 {
        t.pipeline_est += pipe_insts as f64 * interp_s / interp_insts as f64;
    }
    tally.check(
        streams.observes == r.stats().translated_instructions,
        || format!("{name}: replay observed a different instruction count"),
    );
    t.insts += r.total_instructions();
    t.stats.merge(r.stats());
    add_cycles(&mut t.cycles, r.cycle_breakdown());
    let cache = r.cache();
    t.hits += cache.hit_miss().0;
    t.evictions_live += cache.evictions_live();
    t.evictions_dead += cache.evictions_dead();
    t.flushes += cache.flushes();
    t.stream_tags += r.stream_tags_applied();
    let heat = r.fabric_heat();
    t.capacity_thirds += heat.total_capacity_thirds();
    t.busy_thirds += heat.total_busy_thirds();
    t.writeback_writes += heat.writeback_writes;
    t.writeback_slots += heat.writeback_slots;
    Ok(())
}

/// Checks that a run of the same kernel simulated exactly what the first
/// plain run did.
fn same_stats(name: &str, what: &str, s: &System, reference: Option<&System>, tally: &mut Tally) {
    if let Some(r) = reference {
        tally.check(
            s.cycle_breakdown() == r.cycle_breakdown() && s.stats() == r.stats(),
            || format!("{name}: {what} run simulated different statistics"),
        );
    }
}

/// Runs each kernel's slice of the grid through `run_sweep` once, then
/// the same cells directly, one after another.
fn sweep_layer(plan: &Plan, tally: &mut Tally, spans: &mut Spans, root: SpanId) -> SweepLayer {
    let mut layer = SweepLayer {
        workers: plan.workers,
        ..SweepLayer::default()
    };
    let (mut job_micros, mut jobs) = (0, 0);
    for (name, sweep) in plan.kernels.iter().zip(&plan.sweeps) {
        let dir = plan.scratch.join(format!("sweep-traced-{name}"));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = SweepOptions {
            jobs: plan.workers,
            ..SweepOptions::new(dir.clone())
        };
        let (outcome, wall) = spans.time("run_sweep", name, Some(root), || run_sweep(sweep, &opts));
        let _ = std::fs::remove_dir_all(&dir);
        match outcome {
            Ok(outcome) => {
                layer.wall += wall;
                layer.steals += outcome.pool.total_steals();
                job_micros += outcome.pool.job_micros.sum();
                jobs += outcome.pool.job_micros.count();
            }
            Err(e) => tally.problems.push(format!("run_sweep {name}: {e}")),
        }
        let direct = spans.begin("sweep cells, direct", name, Some(root));
        for cell in sweep.expand() {
            let (built, _) = crate::inputs::build(&cell.workload, cell.scale, None);
            let kernel = Kernel {
                built,
                input: None,
                certs: Vec::new(),
            };
            let mut system = System::new(kernel.machine(), cell.system_config());
            let (halt, secs) = timed(|| system.run(kernel.built.max_steps));
            if tally.run(
                &format!("cell {} direct", cell.id),
                kernel.check(halt, system.machine()),
            ) {
                layer.direct += secs;
                layer.cells += 1;
            }
        }
        spans.end(direct);
    }
    if jobs > 0 {
        layer.job_us_mean = job_micros as f64 / jobs as f64;
    }
    layer
}

/// The job layer of a kernel workload: one pass of its own closed loop,
/// a single worker running one job (set-up, interpreter and accelerated
/// run) per kernel.
fn closed_loop_layer(
    plan: &Plan,
    tally: &mut Tally,
    spans: &mut Spans,
    root: SpanId,
) -> SweepLayer {
    let mut jobs = vec![crate::steady::Job::default(); plan.kernels.len()];
    let (_, wall) = spans.time("closed loop", plan.workload.name(), Some(root), || {
        crate::steady::pass(plan, 0, &mut jobs, tally);
    });
    let cells = jobs.iter().map(|j| j.accel.len() as u64).sum::<u64>();
    SweepLayer {
        wall,
        workers: 1,
        direct: jobs.iter().flat_map(|j| &j.accel).sum(),
        cells,
        steals: 0,
        job_us_mean: if cells == 0 {
            0.0
        } else {
            wall * 1e6 / cells as f64
        },
    }
}

fn per_layer(t: &Totals, sweep: &SweepLayer) -> Metrics {
    let mut m = Metrics::default();
    let ms = 1e3;
    let ns = 1e9;
    m.put("workloads.build_ms", t.build * ms, "ms");
    m.put("mips-sim.load_ms", t.load * ms, "ms");
    m.put("lint.prove_ms", t.prove * ms, "ms");
    m.count("lint.certs", t.certs);

    m.count("mips-sim.instructions", t.interp_insts);
    m.ratio(
        "mips-sim.ns_per_inst",
        t.interp * ns,
        t.interp_insts as f64,
        "ns",
        "mips-sim.instructions",
    );
    m.put("mips-sim.cycles", t.base_cycles as f64, "cycles");

    let s = &t.stats;
    m.count("core.instructions", t.insts);
    m.count("core.array_instructions", s.array_instructions);
    m.ratio(
        "core.ns_per_inst",
        t.core * ns,
        t.insts as f64,
        "ns",
        "core.instructions",
    );
    m.ratio(
        "core.array_share",
        s.array_instructions as f64,
        t.insts as f64,
        "ratio",
        "core.instructions",
    );
    m.derived(
        "core.residual_ns_per_array_inst",
        residual_ns_per_array_inst(
            t.core * ns,
            t.pipeline_est * ns,
            t.translator * ns,
            t.cache_all * ns,
            s.array_instructions,
        ),
        "ns",
        "core.array_instructions",
    );
    m.count("core.misspeculations", s.misspeculations);
    m.count("core.config_flushes", s.config_flushes);
    m.count("core.full_hits", s.full_hits);
    m.count("core.stream_tags", t.stream_tags);

    m.count("rcache.lookups", t.lookups);
    m.ratio(
        "rcache.hit_rate",
        t.hits as f64,
        t.lookups as f64,
        "ratio",
        "rcache.lookups",
    );
    m.count("rcache.inserts", t.inserts);
    m.count("rcache.evictions_live", t.evictions_live);
    m.count("rcache.evictions_dead", t.evictions_dead);
    m.count("rcache.flushes", t.flushes);
    m.ratio(
        "rcache.lookup_ns",
        (t.cache_all - t.cache_inserts) * ns,
        t.lookups as f64,
        "ns",
        "rcache.lookups",
    );
    m.ratio(
        "rcache.insert_ns",
        t.cache_inserts * ns,
        t.inserts as f64,
        "ns",
        "rcache.inserts",
    );

    m.count("translator.observed", s.translated_instructions);
    m.count("translator.configs_built", s.configs_built);
    m.ratio(
        "translator.observe_ns",
        t.translator * ns,
        t.observes as f64,
        "ns",
        "translator.observed",
    );

    m.count("cgra.invocations", s.array_invocations);
    m.ratio(
        "cgra.mean_rows",
        s.array_occupied_rows as f64,
        s.array_invocations as f64,
        "rows",
        "cgra.invocations",
    );
    m.count("cgra.capacity_thirds", t.capacity_thirds);
    m.ratio(
        "cgra.fabric_util",
        t.busy_thirds as f64,
        t.capacity_thirds as f64,
        "ratio",
        "cgra.capacity_thirds",
    );
    m.count("cgra.writeback_slots", t.writeback_slots);
    m.ratio(
        "cgra.writeback_saturation",
        t.writeback_writes as f64,
        t.writeback_slots as f64,
        "ratio",
        "cgra.writeback_slots",
    );
    let c = &t.cycles;
    m.put("cycles.pipeline", c.pipeline as f64, "cycles");
    m.put("cycles.i_stall", c.i_stall as f64, "cycles");
    m.put("cycles.d_stall", c.d_stall as f64, "cycles");
    m.put("cycles.reconfig_stall", c.reconfig_stall as f64, "cycles");
    m.put("cycles.array_exec", c.array_exec as f64, "cycles");
    m.put("cycles.writeback_tail", c.writeback_tail as f64, "cycles");

    m.ratio(
        "obs.flight_ns_per_inst",
        (t.flight - t.core) * ns,
        t.insts as f64,
        "ns",
        "core.instructions",
    );
    m.count("obs.watchdog_trips", t.watchdog_trips);
    m.put("obs.hostsplit_wall_ms", t.hostsplit_wall * ms, "ms");
    m.ratio(
        "obs.hostsplit_est_over_wall",
        t.hostsplit_est,
        t.hostsplit_wall,
        "ratio",
        "obs.hostsplit_wall_ms",
    );
    m.put("trace.untraced_ms", t.core * ms, "ms");
    m.ratio(
        "trace.overhead",
        t.capture,
        t.core,
        "ratio",
        "trace.untraced_ms",
    );

    let worker_s = sweep.wall * sweep.workers as f64;
    m.count("sweep.cells", sweep.cells);
    m.put("sweep.wall_ms", sweep.wall * ms, "ms");
    m.put("sweep.worker_ms", worker_s * ms, "ms");
    m.put("sweep.direct_ms", sweep.direct * ms, "ms");
    m.ratio(
        "sweep.engine_share",
        sweep.direct,
        worker_s,
        "ratio",
        "sweep.worker_ms",
    );
    m.count("sweep.steals", sweep.steals);
    m.derived("sweep.job_us_mean", sweep.job_us_mean, "us", "sweep.cells");
    m
}
