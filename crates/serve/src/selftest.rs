//! `dim serve --selftest`: an in-process load generator that stands up
//! a real server on a temp socket, drives it through the real client,
//! and writes `BENCH_serve.json`.
//!
//! Two phases. The **ramp** sends sequential shared-shard accel
//! requests for one workload and records the simulated cycle count of
//! each; the first request is a cold start (empty shard) and the last
//! is fully warm, so `warm_cycles < cold_cycles` is the headline gate —
//! shared shards must actually buy cycles, not just exist. The **load**
//! phase runs concurrent client threads (distinct tenants, rotating
//! workloads) with busy-retry, and reports throughput plus wall-clock
//! latency percentiles.
//!
//! The server runs with span tracing on and dumps
//! `spans.dimspan` into `bench_out` at drain; the selftest parses it
//! back and folds span-derived stage breakdowns (queue-wait /
//! warm-start / exec percentiles) into `BENCH_serve.json`. The
//! cold-vs-warm gate additionally asserts the warm ramp request's
//! simulate stage took less *host* time than the cold one — the warm
//! shard must buy wall-clock, not just simulated cycles.

use crate::client::submit;
use crate::proto::{Command, Reply, Request};
use crate::server::{serve, ServeOptions};
use dim_obs::frame::atomic_write;
use dim_obs::span::{percentile_nanos, read_span_file, SpanForest};
use dim_obs::{parse_json, Clock as _, MonotonicClock, ObjectWriter, SPAN_FILE_NAME};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

/// Knobs for the load generator.
#[derive(Debug, Clone)]
pub struct SelftestOptions {
    /// Server worker threads.
    pub jobs: usize,
    /// Concurrent client threads in the load phase.
    pub clients: usize,
    /// Requests each client sends.
    pub requests_per_client: usize,
    /// Directory receiving `BENCH_serve.json` and `spans.dimspan`.
    pub bench_out: PathBuf,
}

impl Default for SelftestOptions {
    fn default() -> SelftestOptions {
        SelftestOptions {
            jobs: 2,
            clients: 4,
            requests_per_client: 6,
            bench_out: PathBuf::from("bench-out"),
        }
    }
}

/// What the selftest measured; `ok` is the CI gate.
#[derive(Debug, Clone)]
pub struct SelftestReport {
    /// All requests completed, the warm shard beat the cold start in
    /// both simulated cycles and simulate-stage host time, and the
    /// span trees passed the well-formedness laws.
    pub ok: bool,
    /// Simulated cycles of the first (cold) ramp request.
    pub cold_cycles: u64,
    /// Simulated cycles of the last (warm) ramp request.
    pub warm_cycles: u64,
    /// Simulate-stage host nanoseconds of the cold ramp request.
    pub cold_sim_nanos: u64,
    /// Best simulate-stage host nanoseconds across the warm ramp
    /// requests (min-of-N to ride out scheduler jitter).
    pub warm_sim_nanos: u64,
    /// Whether every span tree passed the well-formedness laws.
    pub span_laws_ok: bool,
    /// Load-phase requests that completed with `Ok`.
    pub completed: u64,
    /// Load-phase requests attempted.
    pub requests_total: u64,
    /// `Busy` replies absorbed by client-side retry.
    pub busy_retries: u64,
    /// Load-phase throughput in requests per second.
    pub throughput_rps: f64,
    /// Where `BENCH_serve.json` landed.
    pub bench_path: PathBuf,
}

const RAMP_WORKLOAD: &str = "crc32";
const RAMP_LEN: usize = 5;
const LOAD_WORKLOADS: &[&str] = &["crc32", "bitcount", "quicksort"];
/// Span stages surfaced as percentile breakdowns in the bench file.
const BREAKDOWN_STAGES: &[&str] = &["queue_wait", "schedule", "exec", "warm_start", "simulate"];

fn accel_request(tenant: &str, workload: &str) -> Request {
    Request {
        tenant: tenant.to_string(),
        command: Command::Accel,
        workload: workload.to_string(),
        shared_shard: true,
        ..Request::default()
    }
}

fn accel_cycles(reply: &Reply) -> Result<u64, String> {
    match reply {
        Reply::Ok { json } => parse_json(json)
            .ok()
            .as_ref()
            .and_then(|v| v.get("accel_cycles"))
            .and_then(dim_obs::JsonValue::as_u64)
            .ok_or_else(|| "reply json missing accel_cycles".to_string()),
        Reply::Busy { reason, .. } => Err(format!("unexpected Busy during ramp: {reason}")),
        Reply::Error { message } => Err(format!("ramp request failed: {message}")),
    }
}

/// Sends one request, absorbing `Busy` with the server's retry hint.
fn submit_with_retry(
    socket: &Path,
    request: &Request,
    busy_retries: &AtomicU64,
) -> Result<Reply, String> {
    for _ in 0..64 {
        let reply = submit(socket, std::slice::from_ref(request))
            .map_err(|e| e.to_string())?
            .pop()
            .ok_or_else(|| "empty reply batch".to_string())?;
        match reply {
            Reply::Busy { retry_after_ms, .. } => {
                busy_retries.fetch_add(1, Ordering::SeqCst);
                thread::sleep(Duration::from_millis(u64::from(retry_after_ms.min(500))));
            }
            other => return Ok(other),
        }
    }
    Err("request still busy after 64 retries".into())
}

/// What the client threads observed, before span analysis.
struct DriveStats {
    ramp_cycles: Vec<u64>,
    latencies_micros: Vec<u64>,
    completed: u64,
    failed: u64,
    requests_total: u64,
    busy_retries: u64,
    throughput_rps: f64,
}

/// Span-derived stage breakdowns extracted from the server's dump.
struct SpanStats {
    laws_ok: bool,
    /// stage name → ascending durations in nanoseconds.
    stage_nanos: Vec<(String, Vec<u64>)>,
    cold_sim_nanos: u64,
    warm_sim_nanos: u64,
}

/// Runs the selftest end to end and writes `BENCH_serve.json`.
///
/// # Errors
///
/// A human-readable message when the server cannot start, a ramp
/// request fails, the span dump is missing or malformed, or the
/// benchmark file cannot be written.
pub fn run_selftest(opts: &SelftestOptions) -> Result<SelftestReport, String> {
    let socket =
        std::env::temp_dir().join(format!("dim-serve-selftest-{}.sock", std::process::id()));
    let mut serve_opts = ServeOptions::new(socket.clone());
    serve_opts.jobs = opts.jobs.max(1);
    serve_opts.queue_capacity = (opts.clients * 2).max(4);
    serve_opts.tenant_quota = 8;
    // Spans land in bench_out next to BENCH_serve.json (so does the
    // live status file — both are advisory host-side artifacts).
    serve_opts.out_dir = Some(opts.bench_out.clone());
    let server = {
        let serve_opts = serve_opts.clone();
        thread::spawn(move || serve(&serve_opts))
    };
    for _ in 0..100 {
        if socket.exists() {
            break;
        }
        thread::sleep(Duration::from_millis(10));
    }
    if !socket.exists() {
        return Err("server socket never appeared".into());
    }

    let result = drive(&socket, opts);

    // Always shut the server down, even if the drive failed.
    let _ = submit(
        &socket,
        &[Request {
            command: Command::Shutdown,
            workload: String::new(),
            ..Request::default()
        }],
    );
    match server.join() {
        Ok(Ok(_summary)) => {}
        Ok(Err(e)) => return Err(format!("server failed: {e}")),
        Err(_) => return Err("server thread panicked".into()),
    }
    let stats = result?;
    let spans = analyze_spans(&opts.bench_out.join(SPAN_FILE_NAME))?;
    write_report(opts, &stats, &spans)
}

fn drive(socket: &Path, opts: &SelftestOptions) -> Result<DriveStats, String> {
    // Ramp: same shard, sequential, cold → warm.
    let mut ramp_cycles = Vec::with_capacity(RAMP_LEN);
    let busy_retries = Arc::new(AtomicU64::new(0));
    for _ in 0..RAMP_LEN {
        let reply =
            submit_with_retry(socket, &accel_request("ramp", RAMP_WORKLOAD), &busy_retries)?;
        ramp_cycles.push(accel_cycles(&reply)?);
    }

    // Load: concurrent tenants, rotating workloads, busy-retry.
    let completed = Arc::new(AtomicU64::new(0));
    let failed = Arc::new(AtomicU64::new(0));
    let clock = MonotonicClock::new();
    let load_start = clock.now_nanos();
    let mut latencies_micros: Vec<u64> = Vec::new();
    let mut handles = Vec::new();
    for c in 0..opts.clients {
        let socket = socket.to_path_buf();
        let completed = Arc::clone(&completed);
        let failed = Arc::clone(&failed);
        let busy_retries = Arc::clone(&busy_retries);
        let requests_per_client = opts.requests_per_client;
        let clock = clock.clone();
        handles.push(thread::spawn(move || {
            let tenant = format!("client-{c}");
            let mut local: Vec<u64> = Vec::with_capacity(requests_per_client);
            for r in 0..requests_per_client {
                let workload = LOAD_WORKLOADS[(c + r) % LOAD_WORKLOADS.len()];
                let start = clock.now_nanos();
                match submit_with_retry(&socket, &accel_request(&tenant, workload), &busy_retries) {
                    Ok(Reply::Ok { .. }) => {
                        completed.fetch_add(1, Ordering::SeqCst);
                        local.push(clock.now_nanos().saturating_sub(start) / 1_000);
                    }
                    _ => {
                        failed.fetch_add(1, Ordering::SeqCst);
                    }
                }
            }
            local
        }));
    }
    for handle in handles {
        latencies_micros.extend(handle.join().map_err(|_| "client thread panicked")?);
    }
    let elapsed = (clock.now_nanos().saturating_sub(load_start) as f64 / 1e9).max(1e-9);
    latencies_micros.sort_unstable();

    let requests_total = (opts.clients * opts.requests_per_client) as u64;
    let completed = completed.load(Ordering::SeqCst);
    Ok(DriveStats {
        ramp_cycles,
        latencies_micros,
        completed,
        failed: failed.load(Ordering::SeqCst),
        requests_total,
        busy_retries: busy_retries.load(Ordering::SeqCst),
        throughput_rps: completed as f64 / elapsed,
    })
}

/// Finds the duration of the `simulate` child under a root's `exec`
/// child; 0 when absent.
fn simulate_nanos(forest: &SpanForest, root: usize) -> u64 {
    for &child in &forest.children[root] {
        if forest.spans[child].stage == "exec" {
            for &grandchild in &forest.children[child] {
                if forest.spans[grandchild].stage == "simulate" {
                    return forest.spans[grandchild].duration_nanos();
                }
            }
        }
    }
    0
}

fn analyze_spans(path: &Path) -> Result<SpanStats, String> {
    let file = read_span_file(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let forest = SpanForest::build(&file);
    let laws_ok = forest.orphans_trimmed == 0 && forest.check_laws().is_empty();

    let mut stage_nanos: Vec<(String, Vec<u64>)> = Vec::new();
    let durations = forest.stage_durations();
    for stage in BREAKDOWN_STAGES {
        let mut nanos = durations.get(*stage).cloned().unwrap_or_default();
        nanos.sort_unstable();
        stage_nanos.push(((*stage).to_string(), nanos));
    }

    // Ramp trees in submission order: the cold request has the lowest
    // sequence number, the warm one the highest.
    let mut ramp_roots: Vec<usize> = forest
        .roots
        .iter()
        .copied()
        .filter(|&r| forest.spans[r].tenant == "ramp")
        .collect();
    ramp_roots.sort_by_key(|&r| forest.spans[r].seq);
    let cold_sim_nanos = ramp_roots
        .first()
        .map_or(0, |&r| simulate_nanos(&forest, r));
    // Host wall time jitters far more than simulated cycles do, so a
    // single warm sample can lose to the cold one on scheduler noise
    // alone. Take the best warm request — the cold request structurally
    // pays for translation inside `simulate`, and min-of-N is how the
    // bench gates beat the same noise.
    let warm_sim_nanos = ramp_roots
        .iter()
        .skip(1)
        .map(|&r| simulate_nanos(&forest, r))
        .min()
        .unwrap_or(0);

    Ok(SpanStats {
        laws_ok,
        stage_nanos,
        cold_sim_nanos,
        warm_sim_nanos,
    })
}

fn write_report(
    opts: &SelftestOptions,
    stats: &DriveStats,
    spans: &SpanStats,
) -> Result<SelftestReport, String> {
    let cold_cycles = stats.ramp_cycles[0];
    let warm_cycles = *stats.ramp_cycles.last().expect("ramp is non-empty");
    let warm_stage_shrank = spans.warm_sim_nanos < spans.cold_sim_nanos;
    let ok = stats.completed == stats.requests_total
        && stats.failed == 0
        && warm_cycles < cold_cycles
        && spans.laws_ok
        && warm_stage_shrank;

    let mut latency = ObjectWriter::new();
    latency
        .field_u64("p50", percentile_nanos(&stats.latencies_micros, 50))
        .field_u64("p90", percentile_nanos(&stats.latencies_micros, 90))
        .field_u64("p99", percentile_nanos(&stats.latencies_micros, 99))
        .field_u64("max", stats.latencies_micros.last().copied().unwrap_or(0));
    let cycles_json = format!(
        "[{}]",
        stats
            .ramp_cycles
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join(",")
    );
    let mut ramp = ObjectWriter::new();
    ramp.field_str("workload", RAMP_WORKLOAD)
        .field_raw("cycles", &cycles_json)
        .field_u64("cold_cycles", cold_cycles)
        .field_u64("warm_cycles", warm_cycles)
        .field_f64(
            "warm_speedup",
            cold_cycles as f64 / warm_cycles.max(1) as f64,
        )
        .field_u64("cold_sim_stage_nanos", spans.cold_sim_nanos)
        .field_u64("warm_sim_stage_nanos", spans.warm_sim_nanos)
        .field_bool("warm_stage_shrank", warm_stage_shrank);
    // Per-stage wall-clock percentiles derived from the span dump:
    // {"queue_wait":{"count":..,"p50_micros":..,...},...}
    let mut stages = String::from("{");
    for (i, (stage, nanos)) in spans.stage_nanos.iter().enumerate() {
        if i > 0 {
            stages.push(',');
        }
        let mut s = ObjectWriter::new();
        s.field_u64("count", nanos.len() as u64)
            .field_u64("p50_micros", percentile_nanos(nanos, 50) / 1_000)
            .field_u64("p90_micros", percentile_nanos(nanos, 90) / 1_000)
            .field_u64("p99_micros", percentile_nanos(nanos, 99) / 1_000);
        dim_obs::write_escaped(&mut stages, stage);
        stages.push(':');
        stages.push_str(&s.finish());
    }
    stages.push('}');
    let mut o = ObjectWriter::new();
    o.field_str("bench", "serve_selftest")
        .field_u64("jobs", opts.jobs as u64)
        .field_u64("clients", opts.clients as u64)
        .field_u64("requests_total", stats.requests_total)
        .field_u64("completed", stats.completed)
        .field_u64("busy_retries", stats.busy_retries)
        .field_f64("throughput_rps", stats.throughput_rps)
        .field_raw("latency_micros", &latency.finish())
        .field_raw("ramp", &ramp.finish())
        .field_raw("stages", &stages)
        .field_bool("span_laws_ok", spans.laws_ok)
        .field_bool("ok", ok);
    let bench_path = opts.bench_out.join("BENCH_serve.json");
    atomic_write(&bench_path, o.finish().as_bytes())
        .map_err(|e| format!("writing {}: {e}", bench_path.display()))?;

    Ok(SelftestReport {
        ok,
        cold_cycles,
        warm_cycles,
        cold_sim_nanos: spans.cold_sim_nanos,
        warm_sim_nanos: spans.warm_sim_nanos,
        span_laws_ok: spans.laws_ok,
        completed: stats.completed,
        requests_total: stats.requests_total,
        busy_retries: stats.busy_retries,
        throughput_rps: stats.throughput_rps,
        bench_path,
    })
}
