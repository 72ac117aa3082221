//! Steady-state cost of every instrumentation layer, in one table.
//!
//! Runs two workloads under each probe — uninstrumented, `run_probed`
//! with [`NullProbe`], the always-on [`FlightRecorder`] at the
//! `dim accel` default window, a host-side fabric-heat observer, the
//! request-level spans a server records, those spans plus the engine's
//! [`HostSplit`](dim_obs::HostSplit) attribution, a [`RecordingProbe`] and a
//! [`CycleProfiler`] — and keeps each row's minimum wall time over
//! [`DEFAULT_REPS`] repetitions. Rows are interleaved within every
//! repetition, so a slow phase of the host lands on all of them alike,
//! and each repetition starts one row later than the one before, so no
//! row always runs first.
//!
//! Three rows are gated at 5% aggregate overhead (exit 1 beyond): the
//! flight recorder and the heat observer against `NullProbe`, and the
//! spans a sweep cell or served request records against the
//! uninstrumented run. Production runs do not enable `HostSplit`, so
//! its row is priced but not gated. The table and the gates land in
//! `BENCH_overhead.json` so CI archives the trend.
//!
//! Usage: `bench_overhead [--out <dir>] [--reps N]`

use dim_bench::{run_baseline, TextTable};
use dim_cgra::ArrayShape;
use dim_core::{System, SystemConfig};
use dim_mips_sim::Machine;
use dim_obs::{
    CycleProfiler, FlightRecorder, HostBucket, MonotonicClock, NullProbe, ObjectWriter, Probe,
    ProbeEvent, RecordingProbe, SharedClock, SpanSheet,
};
use dim_workloads::{by_name, BuiltBenchmark, Scale};
use std::sync::Arc;
use std::time::Instant;

const WORKLOADS: [&str; 2] = ["crc32", "sha"];
const SCALE: Scale = Scale::Tiny;
const THRESHOLD_PCT: f64 = 5.0;
/// A `tiny` run takes 0.1–0.6 ms, so a minimum needs many samples to
/// settle: at 7 repetitions the flight row read +1.6…+7.7% over
/// `NullProbe` on a 2-vCPU host, at 200 it read +2.7…+4.8% (about 1.7 s
/// per invocation).
const DEFAULT_REPS: u32 = 200;
/// Same window `dim accel --watchdog` uses by default.
const FLIGHT_CAPACITY: usize = 65_536;
/// Matches the serve-side default sheet size.
const SPAN_CAPACITY: usize = 16_384;

/// One instrumentation setting: a row of the table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Row {
    Uninstrumented,
    NullProbe,
    Flight,
    Heat,
    Spans,
    SpansHostSplit,
    Recording,
    Profiler,
}

impl Row {
    const ALL: [Row; 8] = [
        Row::Uninstrumented,
        Row::NullProbe,
        Row::Flight,
        Row::Heat,
        Row::Spans,
        Row::SpansHostSplit,
        Row::Recording,
        Row::Profiler,
    ];

    fn name(self) -> &'static str {
        match self {
            Row::Uninstrumented => "uninstrumented",
            Row::NullProbe => "NullProbe",
            Row::Flight => "FlightRecorder",
            Row::Heat => "fabric-heat observer",
            Row::Spans => "spans",
            Row::SpansHostSplit => "spans + HostSplit",
            Row::Recording => "RecordingProbe",
            Row::Profiler => "CycleProfiler",
        }
    }
}

/// A gated row: its aggregate overhead over `baseline` must stay
/// within [`THRESHOLD_PCT`].
struct Gate {
    name: &'static str,
    probe: Row,
    baseline: Row,
}

const GATES: [Gate; 3] = [
    Gate {
        name: "flight",
        probe: Row::Flight,
        baseline: Row::NullProbe,
    },
    Gate {
        name: "heat",
        probe: Row::Heat,
        baseline: Row::NullProbe,
    },
    Gate {
        name: "span",
        probe: Row::Spans,
        baseline: Row::Uninstrumented,
    },
];

/// Host-side fabric aggregation, shaped like the `dim heat` trace
/// consumer: every `Fabric` sample folds into running busy/capacity
/// totals.
#[derive(Default)]
struct HeatProbe {
    fabric_events: u64,
    busy_thirds: u64,
    capacity_thirds: u64,
    issued_ops: u64,
}

impl Probe for HeatProbe {
    fn emit(&mut self, event: ProbeEvent) {
        if let ProbeEvent::Fabric(f) = event {
            self.fabric_events += 1;
            self.busy_thirds += u64::from(f.alu_busy_thirds)
                + u64::from(f.mult_busy_thirds)
                + u64::from(f.ldst_busy_thirds);
            self.capacity_thirds += u64::from(f.capacity_thirds);
            self.issued_ops += u64::from(f.issued_ops);
        }
    }
}

/// The span sheet the span rows record into, as a serving worker would.
struct Spans {
    clock: SharedClock,
    sheet: SpanSheet,
    seq: u64,
}

/// Runs `built` once under `row`, loading included, and returns the
/// wall time with what the instrumentation observed: events for the
/// flight recorder and the recording probe, fabric samples for the heat
/// observer, clock samples for `HostSplit`, profiled blocks for the
/// profiler, 0 otherwise.
fn run_once(row: Row, built: &BuiltBenchmark, spans: &mut Spans) -> (u64, u64) {
    let config = SystemConfig::new(ArrayShape::config2(), 64, true);
    let max = built.max_steps;
    let start = Instant::now();
    let request = matches!(row, Row::Spans | Row::SpansHostSplit).then(|| {
        spans.seq += 1;
        let root = spans.sheet.begin_root("request", "bench", spans.seq);
        (root, spans.sheet.begin("exec", root))
    });
    let mut sys = System::new(Machine::load(&built.program), config);
    if row == Row::SpansHostSplit {
        sys.enable_host_split(Arc::clone(&spans.clock));
    }
    let observed = match row {
        Row::Uninstrumented | Row::Spans | Row::SpansHostSplit => {
            sys.run(max).expect("runs");
            sys.host_split().map_or(0, |split| {
                HostBucket::ALL.iter().map(|&b| split.sampled(b)).sum()
            })
        }
        Row::NullProbe => {
            sys.run_probed(max, &mut NullProbe).expect("runs");
            0
        }
        Row::Flight => {
            let mut recorder = FlightRecorder::new(FLIGHT_CAPACITY);
            sys.run_probed(max, &mut recorder).expect("runs");
            recorder.total()
        }
        Row::Heat => {
            let mut probe = HeatProbe::default();
            sys.run_probed(max, &mut probe).expect("runs");
            // The probe's aggregate must agree with the in-system
            // accumulator — observing through the seam loses nothing.
            let heat = sys.fabric_heat();
            assert_eq!(probe.busy_thirds, heat.total_busy_thirds());
            assert_eq!(probe.capacity_thirds, heat.total_capacity_thirds());
            assert_eq!(probe.fabric_events, heat.invocations);
            std::hint::black_box(probe.issued_ops);
            probe.fabric_events
        }
        Row::Recording => {
            let mut probe = RecordingProbe::new();
            sys.run_probed(max, &mut probe).expect("runs");
            probe.events.len() as u64
        }
        Row::Profiler => {
            let mut profiler = CycleProfiler::new();
            sys.run_probed(max, &mut profiler).expect("runs");
            let profile = profiler.into_profile();
            assert_eq!(profile.total_cycles(), sys.total_cycles());
            profile.blocks.len() as u64
        }
    };
    if let Some((root, exec)) = request {
        spans.sheet.end(exec);
        spans.sheet.end(root);
    }
    std::hint::black_box(sys.total_cycles());
    let nanos = start.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
    (nanos, observed)
}

fn overhead_pct(baseline: u64, candidate: u64) -> f64 {
    if baseline == 0 {
        return 0.0;
    }
    100.0 * (candidate as f64 - baseline as f64) / baseline as f64
}

fn arg_value(flag: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}

fn main() {
    let out_dir = arg_value("--out").unwrap_or_else(|| "bench-out".to_string());
    let reps: u32 =
        arg_value("--reps").map_or(DEFAULT_REPS, |v| v.parse().expect("--reps: not a number"));

    let built: Vec<BuiltBenchmark> = WORKLOADS
        .iter()
        .map(|name| {
            let built = (by_name(name).expect("workload exists").build)(SCALE);
            run_baseline(&built).expect("baseline validates");
            built
        })
        .collect();
    let clock = MonotonicClock::shared();
    let mut spans = Spans {
        sheet: SpanSheet::new(Arc::clone(&clock), SPAN_CAPACITY),
        clock,
        seq: 0,
    };

    // nanos[row][workload]: the minimum over repetitions.
    let mut nanos = [[u64::MAX; WORKLOADS.len()]; Row::ALL.len()];
    let mut observed = [[0u64; WORKLOADS.len()]; Row::ALL.len()];
    for rep in 0..reps.max(1) as usize {
        for (w, b) in built.iter().enumerate() {
            for offset in 0..Row::ALL.len() {
                let r = (rep + offset) % Row::ALL.len();
                let (ns, seen) = run_once(Row::ALL[r], b, &mut spans);
                nanos[r][w] = nanos[r][w].min(ns);
                observed[r][w] = seen;
            }
        }
    }
    let total = |row: Row| -> u64 {
        let r = Row::ALL.iter().position(|&x| x == row).expect("listed");
        nanos[r].iter().sum()
    };

    let mut header = vec!["probe".to_string()];
    header.extend(WORKLOADS.iter().map(|w| format!("{w} ms")));
    header.extend(["vs NullProbe", "observed"].map(String::from));
    let mut table = TextTable::new(header);
    let mut rows_json = String::from("[");
    for (r, &row) in Row::ALL.iter().enumerate() {
        let vs_null = overhead_pct(total(Row::NullProbe), total(row));
        let mut cells = vec![row.name().to_string()];
        cells.extend(nanos[r].iter().map(|&ns| format!("{:.3}", ns as f64 / 1e6)));
        cells.push(format!("{vs_null:+.2}%"));
        cells.push(observed[r].iter().sum::<u64>().to_string());
        table.row(cells);

        let mut per = String::from("[");
        for (w, name) in WORKLOADS.iter().enumerate() {
            if w > 0 {
                per.push(',');
            }
            let mut o = ObjectWriter::new();
            o.field_str("name", name)
                .field_u64("nanos_min", nanos[r][w])
                .field_u64("observed", observed[r][w]);
            per.push_str(&o.finish());
        }
        per.push(']');
        if r > 0 {
            rows_json.push(',');
        }
        let mut o = ObjectWriter::new();
        o.field_str("probe", row.name())
            .field_u64("total_nanos_min", total(row))
            .field_f64("overhead_vs_null_pct", vs_null)
            .field_raw("workloads", &per);
        rows_json.push_str(&o.finish());
    }
    rows_json.push(']');
    print!("{}", table.render());

    let mut ok = true;
    let mut gates_json = String::from("[");
    for (i, gate) in GATES.iter().enumerate() {
        let pct = overhead_pct(total(gate.baseline), total(gate.probe));
        let pass = pct <= THRESHOLD_PCT;
        ok &= pass;
        println!(
            "gate {}: {} {pct:+.2}% vs {} (threshold {THRESHOLD_PCT}%) {}",
            gate.name,
            gate.probe.name(),
            gate.baseline.name(),
            if pass { "ok" } else { "FAILED" }
        );
        if i > 0 {
            gates_json.push(',');
        }
        let mut o = ObjectWriter::new();
        o.field_str("name", gate.name)
            .field_str("probe", gate.probe.name())
            .field_str("baseline", gate.baseline.name())
            .field_f64("overhead_pct", pct)
            .field_f64("threshold_pct", THRESHOLD_PCT)
            .field_bool("ok", pass);
        gates_json.push_str(&o.finish());
    }
    gates_json.push(']');

    let mut doc = ObjectWriter::new();
    doc.field_str("bench", "overhead")
        .field_str("scale", SCALE.name())
        .field_u64("reps", u64::from(reps))
        .field_u64("flight_capacity", FLIGHT_CAPACITY as u64)
        .field_u64("span_capacity", SPAN_CAPACITY as u64)
        .field_raw("rows", &rows_json)
        .field_raw("gates", &gates_json)
        .field_bool("ok", ok);
    std::fs::create_dir_all(&out_dir).expect("create --out dir");
    let path = std::path::Path::new(&out_dir).join("BENCH_overhead.json");
    std::fs::write(&path, format!("{}\n", doc.finish())).expect("write BENCH_overhead.json");
    println!("-> {}", path.display());
    if !ok {
        eprintln!("bench_overhead: overhead beyond threshold");
        std::process::exit(1);
    }
}
