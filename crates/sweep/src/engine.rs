//! Sweep execution: expansion → (resume filtering) → parallel run →
//! deterministic aggregation.
//!
//! Determinism contract: everything under `cells/` and `heat/` and the
//! final `report.txt` depends only on the spec and the simulators —
//! never on wall-clock, worker count or completion order — so a
//! parallel sweep is byte-identical to `--jobs 1`. Host-dependent
//! material is confined to `summary.json` (wall time, steal counts, the
//! per-job time histogram), `spans.dimspan` (each cell's wall time is
//! its root span), the live `status.dimstat` board and the `flight/`
//! failure dumps — never `cells/`, `heat/` or `report.txt`.

use crate::journal::{cell_is_done, Journal};
use crate::pool::{execute_jobs, PoolStats};
use crate::run::{run_checked, FinishedRun, RunSpec, StatusBoard};
use crate::spec::{policy_key, CellSpec, SweepSpec};
use dim_core::fnv1a64;
use dim_obs::frame::atomic_write;
use dim_obs::status::{StatusEntry, STATUS_FILE_NAME};
use dim_obs::{MonotonicClock, ObjectWriter, SharedClock, SpanId, SpanSheet, SPAN_FILE_NAME};
use dim_workloads::{run_baseline, BuiltBenchmark};
use std::collections::HashMap;
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Sweep failure.
#[derive(Debug)]
pub enum SweepError {
    /// Filesystem trouble.
    Io(io::Error),
    /// A cell failed to simulate or validate. Completed cells stay
    /// journaled; rerunning the sweep retries only the failures.
    Cell {
        /// The failing cell's id.
        id: String,
        /// What went wrong.
        reason: String,
    },
}

impl fmt::Display for SweepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SweepError::Io(e) => write!(f, "sweep I/O error: {e}"),
            SweepError::Cell { id, reason } => write!(f, "cell `{id}` failed: {reason}"),
        }
    }
}

impl std::error::Error for SweepError {}

impl From<io::Error> for SweepError {
    fn from(e: io::Error) -> Self {
        SweepError::Io(e)
    }
}

/// Execution options orthogonal to the spec.
#[derive(Debug, Clone)]
pub struct SweepOptions {
    /// Output directory (journal, cell results, report, summary).
    pub out_dir: PathBuf,
    /// Worker threads; 1 = serial.
    pub jobs: usize,
    /// Run at most this many pending cells this invocation (used to
    /// exercise resume deterministically; `None` = all).
    pub limit: Option<usize>,
    /// Overrides the spec's `warm_rcache` setting when set.
    pub warm_rcache: Option<bool>,
    /// Also trace each cell and write a per-region forensics report to
    /// `explain/<id>.json`. Host-convenience output: like the status
    /// board it sits outside the determinism contract (`cells/` and
    /// `report.txt` stay byte-identical with or without it).
    pub explain: bool,
    /// Flight-recorder window (events) for failed cells. Every cell
    /// runs under the invariant watchdog; a cell that fails (panic,
    /// step limit, simulation error, watchdog trip, broken counter law
    /// or validation mismatch) is executed again from the same inputs
    /// under the recorder, and its window is dumped to
    /// `flight/<id>.jsonl`. 0 disables the watchdog and the
    /// re-execution. Probes are cycle-neutral, so cell results are
    /// byte-identical either way.
    pub flight_capacity: usize,
    /// Live-status publish interval in simulated cycles. 0 keeps the
    /// default cadence.
    pub telemetry_interval: u64,
}

/// Default flight-recorder window per worker (events).
pub const DEFAULT_FLIGHT_CAPACITY: usize = 4096;

impl SweepOptions {
    /// Serial execution into `out_dir` with spec-default warm behaviour,
    /// the watchdog on and the default flight window for failures.
    pub fn new(out_dir: PathBuf) -> SweepOptions {
        SweepOptions {
            out_dir,
            jobs: 1,
            limit: None,
            warm_rcache: None,
            explain: false,
            flight_capacity: DEFAULT_FLIGHT_CAPACITY,
            telemetry_interval: 0,
        }
    }
}

/// What one invocation did.
#[derive(Debug)]
pub struct SweepOutcome {
    /// Cells in the expanded grid.
    pub total_cells: usize,
    /// Cells executed by this invocation.
    pub executed: usize,
    /// Cells skipped because the journal + result checksum proved them
    /// already done.
    pub skipped: usize,
    /// Whether every cell in the grid now has a valid result (false
    /// after a `limit`-truncated run).
    pub complete: bool,
    /// Wall-clock for this invocation's execution phase.
    pub wall_seconds: f64,
    /// Pool statistics for this invocation.
    pub pool: PoolStats,
}

fn cell_result_path(out_dir: &Path, id: &str) -> PathBuf {
    out_dir.join("cells").join(format!("{id}.json"))
}

fn cell_snapshot_path(out_dir: &Path, id: &str) -> PathBuf {
    out_dir.join("rcache").join(format!("{id}.dimrc"))
}

fn cell_explain_path(out_dir: &Path, id: &str) -> PathBuf {
    out_dir.join("explain").join(format!("{id}.json"))
}

fn cell_flight_path(out_dir: &Path, id: &str) -> PathBuf {
    out_dir.join("flight").join(format!("{id}.jsonl"))
}

fn cell_heat_path(out_dir: &Path, id: &str) -> PathBuf {
    out_dir.join("heat").join(format!("{id}.json"))
}

/// What every cell of one invocation shares.
struct CellCtx<'a> {
    opts: &'a SweepOptions,
    warm: bool,
    clock: &'a SharedClock,
    board: &'a StatusBoard,
    /// Wall-clock spans: host-side material that, like the status
    /// board, never influences the deterministic cell result.
    spans: &'a SpanSheet,
}

/// Runs one cell of the workload `built` on `worker` under the span
/// `root` and writes its snapshot, `heat/` and `explain/` files;
/// returns its deterministic result JSON. A failed run's flight window
/// goes to `flight/<id>.jsonl`.
fn run_cell(
    cell: &CellSpec,
    built: &BuiltBenchmark,
    baseline_cycles: u64,
    ctx: &CellCtx<'_>,
    worker: usize,
    root: SpanId,
) -> Result<String, String> {
    let out_dir = &ctx.opts.out_dir;
    let snapshot_path = cell_snapshot_path(out_dir, &cell.id);
    let warm = if ctx.warm {
        std::fs::read(&snapshot_path).ok()
    } else {
        None
    };
    let FinishedRun {
        mut system,
        explanation,
    } = run_checked(&RunSpec {
        label: &cell.id,
        built,
        config: cell.system_config(),
        max_steps: built.max_steps,
        warm: warm.as_deref(),
        flight_capacity: ctx.opts.flight_capacity,
        explain: ctx.opts.explain,
        status_interval: ctx.opts.telemetry_interval,
        clock: ctx.clock,
        board: (ctx.board, worker),
        spans: (ctx.spans, root),
    })
    .map_err(|failure| failure.dump_to(Some(&cell_flight_path(out_dir, &cell.id))))?;

    let persist_span = ctx.spans.guard("persist", root);
    if let Some(ex) = explanation {
        let mut json = ex.to_json();
        json.push('\n');
        atomic_write(&cell_explain_path(out_dir, &cell.id), json.as_bytes())
            .map_err(|e| format!("explain write failed: {e}"))?;
    }

    if ctx.warm {
        let bytes = system.save_rcache();
        atomic_write(&snapshot_path, &bytes).map_err(|e| format!("snapshot write failed: {e}"))?;
    }

    // Per-cell fabric heat summary for `heat/<id>.json`. Derived from
    // the deterministic heat counters alone, so serial and parallel
    // sweeps write byte-identical files.
    let mut heat_json = dim_core::fabric_heat_json(system.fabric_heat());
    heat_json.push('\n');
    atomic_write(&cell_heat_path(out_dir, &cell.id), heat_json.as_bytes())
        .map_err(|e| format!("heat write failed: {e}"))?;
    drop(persist_span);

    let accel_cycles = system.total_cycles();
    let stats = system.stats();
    let (hits, misses) = system.cache().hit_miss();
    let mut dim = ObjectWriter::new();
    dim.field_u64("array_invocations", stats.array_invocations)
        .field_u64("array_instructions", stats.array_instructions)
        .field_u64("array_exec_cycles", stats.array_exec_cycles)
        .field_u64("reconfig_stall_cycles", stats.reconfig_stall_cycles)
        .field_u64("writeback_tail_cycles", stats.writeback_tail_cycles)
        .field_u64("full_hits", stats.full_hits)
        .field_u64("misspeculations", stats.misspeculations)
        .field_u64("config_flushes", stats.config_flushes)
        .field_u64("configs_built", stats.configs_built)
        .field_u64("translated_instructions", stats.translated_instructions);
    let mut cache = ObjectWriter::new();
    cache
        .field_u64("hits", hits)
        .field_u64("misses", misses)
        .field_u64("insertions", system.cache().insertions())
        .field_u64("evictions", system.cache().evictions())
        .field_u64("flushes", system.cache().flushes())
        .field_u64("resident", system.cache().len() as u64);

    let speedup = if accel_cycles == 0 {
        0.0
    } else {
        baseline_cycles as f64 / accel_cycles as f64
    };
    let mut w = ObjectWriter::new();
    w.field_u64("index", cell.index as u64)
        .field_str("id", &cell.id)
        .field_str("workload", &cell.workload)
        .field_str("shape", cell.shape_key())
        .field_u64("slots", cell.slots as u64)
        .field_bool("speculation", cell.speculation)
        .field_u64("max_spec_blocks", cell.max_spec_blocks as u64)
        .field_u64("flush_threshold", cell.flush_threshold as u64)
        .field_str("policy", policy_key(cell.policy))
        .field_bool("warm_loaded", warm.is_some())
        .field_u64("baseline_cycles", baseline_cycles)
        .field_u64("accel_cycles", accel_cycles)
        .field_f64("speedup", speedup)
        .field_raw("dim", &dim.finish())
        .field_raw("cache", &cache.finish());
    let mut json = w.finish();
    json.push('\n');
    Ok(json)
}

/// Runs (or resumes) a sweep.
///
/// # Errors
///
/// I/O failures, or the first failing cell (already-finished cells stay
/// journaled either way, so rerunning retries only the remainder).
pub fn run_sweep(spec: &SweepSpec, opts: &SweepOptions) -> Result<SweepOutcome, SweepError> {
    let cells = spec.expand();
    let warm = opts.warm_rcache.unwrap_or(spec.warm_rcache);
    let out_dir = &opts.out_dir;
    std::fs::create_dir_all(out_dir)?;

    let journal_path = out_dir.join("journal.txt");
    let done = Journal::read(&journal_path)?;
    let mut pending: Vec<&CellSpec> = cells
        .iter()
        .filter(|c| !cell_is_done(&done, &c.id, &cell_result_path(out_dir, &c.id)))
        .collect();
    let skipped = cells.len() - pending.len();
    if let Some(limit) = opts.limit {
        pending.truncate(limit);
    }

    // The grid only varies accelerator parameters, so each workload is
    // built and its baseline run once, serially, up front; every cell
    // of the workload borrows that build.
    let mut workloads: HashMap<&str, (BuiltBenchmark, u64)> = HashMap::new();
    for cell in &pending {
        if !workloads.contains_key(cell.workload.as_str()) {
            let spec = dim_workloads::by_name(&cell.workload).expect("validated at parse");
            let built = (spec.build)(cell.scale);
            let machine = run_baseline(&built).map_err(|e| SweepError::Cell {
                id: format!("{}-baseline", cell.workload),
                reason: e.to_string(),
            })?;
            let cycles = machine.stats.cycles;
            workloads.insert(cell.workload.as_str(), (built, cycles));
        }
    }

    let journal = Journal::open_append(&journal_path)?;
    let threads = opts.jobs.max(1);
    let clock: SharedClock = MonotonicClock::shared();
    let board = StatusBoard::new(
        Some(out_dir.join(STATUS_FILE_NAME)),
        StatusEntry {
            source: "sweep".into(),
            label: format!("{} cells", cells.len()),
            state: "running".into(),
            done: skipped as u64,
            total: cells.len() as u64,
            ..Default::default()
        },
        threads,
        Arc::clone(&clock),
    );
    board.update(|_| {});
    // Wall-clock span tracing: one root per cell (tenant = workload,
    // seq = grid index) with warm_start / simulate / validate / persist
    // children. Sized so a full run never drops: 5 spans per cell.
    let spans = SpanSheet::new(Arc::clone(&clock), pending.len() * 5 + 8);
    let ctx = CellCtx {
        opts,
        warm,
        clock: &clock,
        board: &board,
        spans: &spans,
    };
    let start_nanos = clock.now_nanos();
    let jobs: Vec<_> = pending
        .iter()
        .map(|cell| {
            let cell = (*cell).clone();
            let (built, baseline) = &workloads[cell.workload.as_str()];
            let journal = &journal;
            let ctx = &ctx;
            move |w: usize| -> Result<(), SweepError> {
                let cell_started = ctx.clock.now_nanos();
                let root = ctx
                    .spans
                    .begin_root("cell", &cell.workload, cell.index as u64);
                let result = run_cell(&cell, built, *baseline, ctx, w, root);
                ctx.spans.end(root);
                let json = result.map_err(|reason| {
                    ctx.board.update(|entries| {
                        entries[w + 1].state = "failed".into();
                        entries[w + 1].label = cell.id.clone();
                    });
                    SweepError::Cell {
                        id: cell.id.clone(),
                        reason,
                    }
                })?;
                let path = cell_result_path(out_dir, &cell.id);
                atomic_write(&path, json.as_bytes())?;
                journal.record(&cell.id, fnv1a64(json.as_bytes()))?;
                let cell_nanos = ctx.clock.now_nanos().saturating_sub(cell_started);
                // The run left the cell's final counters in this
                // worker's entry; fold them into the aggregate.
                ctx.board.update(|entries| {
                    let (agg, workers) = entries.split_first_mut().expect("aggregate entry");
                    let worker = &mut workers[w];
                    worker.state = "idle".into();
                    worker.done = 1;
                    worker.host_nanos = cell_nanos;
                    agg.done += 1;
                    agg.retired += worker.retired;
                    agg.array_retired += worker.array_retired;
                    agg.sim_cycles += worker.sim_cycles;
                    agg.invocations += worker.invocations;
                    agg.rcache_hits += worker.rcache_hits;
                    agg.rcache_misses += worker.rcache_misses;
                    agg.misspeculations += worker.misspeculations;
                    agg.fabric_busy_thirds += worker.fabric_busy_thirds;
                    agg.fabric_capacity_thirds += worker.fabric_capacity_thirds;
                    agg.host_nanos = ctx.clock.now_nanos().saturating_sub(start_nanos);
                });
                Ok(())
            }
        })
        .collect();
    let executed = jobs.len();
    let (results, pool) = execute_jobs(jobs, opts.jobs);
    let wall_seconds = clock.now_nanos().saturating_sub(start_nanos) as f64 / 1e9;
    let mut failure = None;
    for result in results {
        if let Err(e) = result {
            failure = Some(e);
            break;
        }
    }
    let final_state = if failure.is_some() { "failed" } else { "done" };
    board.finish(|entries| {
        entries[0].state = final_state.into();
        entries[0].host_nanos = clock.now_nanos().saturating_sub(start_nanos);
    });
    // Dump whatever spans were recorded even when a cell failed — the
    // waterfall up to the failure is exactly what a postmortem wants.
    if executed > 0 {
        atomic_write(&out_dir.join(SPAN_FILE_NAME), spans.render().as_bytes())?;
    }
    if let Some(e) = failure {
        return Err(e);
    }

    let complete = skipped + executed == cells.len();
    if complete {
        let report = render_report(spec, &cells, out_dir)?;
        atomic_write(&out_dir.join("report.txt"), report.as_bytes())?;
    }

    let outcome = SweepOutcome {
        total_cells: cells.len(),
        executed,
        skipped,
        complete,
        wall_seconds,
        pool,
    };
    let mut w = ObjectWriter::new();
    w.field_u64("total_cells", outcome.total_cells as u64)
        .field_u64("executed", outcome.executed as u64)
        .field_u64("skipped", outcome.skipped as u64)
        .field_bool("complete", outcome.complete)
        .field_u64("jobs", opts.jobs.max(1) as u64)
        .field_bool("warm_rcache", warm)
        .field_str("scale", spec.scale_key())
        .field_f64("wall_seconds", outcome.wall_seconds)
        .field_raw("pool", &outcome.pool.to_json());
    let mut summary = w.finish();
    summary.push('\n');
    atomic_write(&out_dir.join("summary.json"), summary.as_bytes())?;
    Ok(outcome)
}

/// Renders the deterministic cross-cell report from the on-disk cell
/// results (index order, fixed-width columns).
fn render_report(
    spec: &SweepSpec,
    cells: &[CellSpec],
    out_dir: &Path,
) -> Result<String, SweepError> {
    let id_width = cells.iter().map(|c| c.id.len()).max().unwrap_or(2).max(2);
    let mut out = format!(
        "DIM sweep: {} cells, scale {}\n\n{:<id_width$}  {:>12}  {:>12}  {:>8}\n",
        cells.len(),
        spec.scale_key(),
        "id",
        "baseline",
        "accel",
        "speedup",
    );
    for cell in cells {
        let bytes = std::fs::read(cell_result_path(out_dir, &cell.id))?;
        let text = String::from_utf8_lossy(&bytes);
        let value = dim_obs::parse_json(&text).map_err(|e| SweepError::Cell {
            id: cell.id.clone(),
            reason: format!("unreadable result file: {e}"),
        })?;
        let field = |k: &str| {
            value
                .get(k)
                .and_then(dim_obs::JsonValue::as_u64)
                .unwrap_or(0)
        };
        let baseline = field("baseline_cycles");
        let accel = field("accel_cycles");
        let speedup = if accel == 0 {
            0.0
        } else {
            baseline as f64 / accel as f64
        };
        out.push_str(&format!(
            "{:<id_width$}  {baseline:>12}  {accel:>12}  {speedup:>8.3}\n",
            cell.id,
        ));
    }
    Ok(out)
}
