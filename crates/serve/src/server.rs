//! The `dim serve` daemon: accept loop, bounded request queue, wave
//! scheduling onto the dim-sweep work-stealing pool, shared warm shards,
//! live status, and graceful drain.
//!
//! Life of a request: a connection thread reads one request-batch frame,
//! answers `status`/`shutdown` inline, and tries to queue the rest.
//! Queueing is where backpressure lives — a full queue or an exhausted
//! tenant quota earns an immediate [`Reply::Busy`] with a retry hint;
//! the server never buffers without bound. The dispatcher drains the
//! queue in waves and runs each wave on `dim_sweep::execute_jobs`; each
//! accel or explain request is one [`run_checked`] run, the same checked
//! run as a sweep cell (warm start, watchdog, status from the system's
//! counters, halt, counter-law and validate checks, and a re-execution
//! under the flight recorder when it fails). Workers send replies back
//! through per-request channels; the connection thread writes the reply
//! batch in request order.
//!
//! Graceful shutdown (`shutdown` request): stop accepting, refuse new
//! work, drain in-flight waves, flush replies, snapshot every shard to
//! `--shard-dir`, publish a final `done` status, remove the socket.

use crate::proto::{encode_reply_batch, Command, Reply, Request, MAX_FRAME_PAYLOAD, WIRE_FRAME};
use crate::request::validate_request;
use crate::shard::{shard_id, ShardManager};
use dim_cgra::ShapeChoice;
use dim_core::SystemConfig;
use dim_obs::frame::{atomic_write, read_frame, write_frame};
use dim_obs::span::percentile_nanos;
use dim_obs::status::{StatusEntry, STATUS_FILE_NAME};
use dim_obs::{MonotonicClock, ObjectWriter, SharedClock, SpanId, SpanSheet, SPAN_FILE_NAME};
use dim_sweep::{
    execute_jobs, run_checked, run_plain, FinishedRun, RunSpec, StatusBoard,
    DEFAULT_FLIGHT_CAPACITY,
};
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::io;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread;
use std::time::Duration;

/// Accept-loop poll interval while waiting for connections or drain.
/// This bounds both connection-setup latency and shutdown reaction
/// time, so it is deliberately short.
const ACCEPT_POLL: Duration = Duration::from_millis(5);
/// How long the drain waits for final replies to reach their sockets.
const REPLY_FLUSH_TIMEOUT: Duration = Duration::from_secs(3);
/// Span-sheet capacity (spans, not requests; a request tree is
/// typically 6–7 spans). Spans dump to `out_dir/spans.dimspan` at
/// drain.
const SPAN_CAPACITY: usize = 16_384;
/// Recent request latencies kept for the live p99 column.
const LATENCY_WINDOW: usize = 1_024;

/// Everything `dim serve` needs to run.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Unix socket path to listen on (a stale file is replaced).
    pub socket: PathBuf,
    /// Worker threads per dispatch wave.
    pub jobs: usize,
    /// Bounded queue capacity; beyond it requests earn `Busy`.
    pub queue_capacity: usize,
    /// Maximum queued-or-running requests per tenant.
    pub tenant_quota: usize,
    /// Shard warm-start/drain directory (`<id>.dimrc` per shard).
    pub shard_dir: Option<PathBuf>,
    /// Directory for `status.dimstat` and `flight/` failure dumps.
    pub out_dir: Option<PathBuf>,
    /// Flight-recorder window of a failed request's re-execution (0
    /// disables the watchdog and the re-execution).
    pub flight_capacity: usize,
    /// Status publish cadence in simulated cycles; 0 keeps the default
    /// cadence.
    pub telemetry_interval: u64,
}

impl ServeOptions {
    /// Defaults for everything but the socket path.
    pub fn new(socket: PathBuf) -> ServeOptions {
        ServeOptions {
            socket,
            jobs: 2,
            queue_capacity: 64,
            tenant_quota: 16,
            shard_dir: None,
            out_dir: None,
            flight_capacity: DEFAULT_FLIGHT_CAPACITY,
            telemetry_interval: 0,
        }
    }
}

/// Why the server could not start or finish cleanly.
#[derive(Debug)]
pub enum ServeError {
    /// Socket or filesystem trouble.
    Io(io::Error),
    /// Anything else, human-readable.
    Msg(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "serve: {e}"),
            ServeError::Msg(m) => write!(f, "serve: {m}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<io::Error> for ServeError {
    fn from(e: io::Error) -> ServeError {
        ServeError::Io(e)
    }
}

/// What a finished server did, for logs and tests.
#[derive(Debug, Clone, Default)]
pub struct ServeSummary {
    /// Requests accepted into the queue.
    pub submitted: u64,
    /// Requests that completed with `Ok`.
    pub completed: u64,
    /// Requests that completed with `Error`.
    pub failed: u64,
    /// Requests refused with `Busy`.
    pub busy_rejected: u64,
    /// Shards alive at drain.
    pub shards: usize,
    /// Shard images imported at start.
    pub shards_imported: usize,
    /// Import failures (file name: reason), server kept going.
    pub import_errors: Vec<String>,
}

#[derive(Debug, Default, Clone)]
struct TenantStats {
    outstanding: u64,
    submitted: u64,
    completed: u64,
    failed: u64,
    busy: u64,
}

struct Pending {
    seq: u64,
    request: Request,
    reply_tx: mpsc::Sender<Reply>,
    /// Root of this request's span tree (opened at enqueue, closed in
    /// `finish_request`); `SpanId::NONE` when the sheet is full.
    root_span: SpanId,
    /// The currently open stage child (`queue_wait`, then `schedule`).
    stage_span: SpanId,
    /// Clock reading at enqueue, for end-to-end latency.
    enqueue_nanos: u64,
}

/// Fixed window of recent request latencies (microseconds) feeding the
/// live p99 column; overwrites oldest-first once full.
#[derive(Debug, Default)]
struct LatencyRing {
    samples: Vec<u64>,
    next: usize,
}

impl LatencyRing {
    fn record(&mut self, micros: u64) {
        if self.samples.len() < LATENCY_WINDOW {
            self.samples.push(micros);
        } else {
            self.samples[self.next] = micros;
            self.next = (self.next + 1) % LATENCY_WINDOW;
        }
    }

    fn p99(&self) -> u64 {
        if self.samples.is_empty() {
            return 0;
        }
        let mut sorted = self.samples.clone();
        sorted.sort_unstable();
        percentile_nanos(&sorted, 99)
    }
}

struct ServerState {
    opts: ServeOptions,
    clock: SharedClock,
    /// Wall-clock span sheet shared by listener, dispatcher and
    /// workers.
    spans: SpanSheet,
    latencies: Mutex<LatencyRing>,
    queue: Mutex<VecDeque<Pending>>,
    queue_cv: Condvar,
    draining: AtomicBool,
    seq: AtomicU64,
    /// Request batches currently being read/executed/written by
    /// connection threads; the drain waits for zero so the last reply
    /// reaches its socket before the process exits.
    batches_in_flight: AtomicI64,
    /// Per-tenant request counts: the one count of submitted,
    /// completed, failed and refused requests, which every total sums.
    tenants: Mutex<BTreeMap<String, TenantStats>>,
    shards: ShardManager,
    board: StatusBoard,
}

impl ServerState {
    /// Every tenant's counts summed.
    fn totals(&self) -> TenantStats {
        let tenants = self.tenants.lock().expect("tenant lock");
        tenants
            .values()
            .fold(TenantStats::default(), |sum, t| TenantStats {
                outstanding: sum.outstanding + t.outstanding,
                submitted: sum.submitted + t.submitted,
                completed: sum.completed + t.completed,
                failed: sum.failed + t.failed,
                busy: sum.busy + t.busy,
            })
    }

    /// Sets the board's aggregate request counts from the tenant map.
    /// Called under the board's lock after every count change, so the
    /// last update always reads the final counts.
    fn aggregate(&self, entry: &mut StatusEntry) {
        let totals = self.totals();
        entry.total = totals.submitted;
        entry.done = totals.completed + totals.failed;
    }

    fn status_json(&self) -> String {
        let queue_depth = self.queue.lock().expect("queue lock").len() as u64;
        let mut tenants_json = String::from("[");
        {
            let tenants = self.tenants.lock().expect("tenant lock");
            for (i, (name, t)) in tenants.iter().enumerate() {
                if i > 0 {
                    tenants_json.push(',');
                }
                let mut o = ObjectWriter::new();
                o.field_str("tenant", name)
                    .field_u64("outstanding", t.outstanding)
                    .field_u64("submitted", t.submitted)
                    .field_u64("completed", t.completed)
                    .field_u64("failed", t.failed)
                    .field_u64("busy_rejected", t.busy);
                tenants_json.push_str(&o.finish());
            }
        }
        tenants_json.push(']');
        let mut shards_json = String::from("[");
        for (i, s) in self.shards.stats().iter().enumerate() {
            if i > 0 {
                shards_json.push(',');
            }
            let mut o = ObjectWriter::new();
            o.field_str("id", &s.id)
                .field_u64("resident", s.resident)
                .field_u64("admissions", s.admissions)
                .field_u64("admitted_configs", s.admitted_configs)
                .field_u64("duplicates", s.duplicates)
                .field_u64("evictions", s.evictions)
                .field_u64("rejected", s.rejected)
                .field_u64("warm_loads", s.warm_loads);
            shards_json.push_str(&o.finish());
        }
        shards_json.push(']');
        let totals = self.totals();
        let mut o = ObjectWriter::new();
        o.field_str("command", "status")
            .field_bool("draining", self.draining.load(Ordering::SeqCst))
            .field_u64("queue_depth", queue_depth)
            .field_u64("queue_capacity", self.opts.queue_capacity as u64)
            .field_u64("jobs", self.opts.jobs as u64)
            .field_u64("submitted", totals.submitted)
            .field_u64("completed", totals.completed)
            .field_u64("failed", totals.failed)
            .field_u64("busy_rejected", totals.busy)
            .field_raw("tenants", &tenants_json)
            .field_raw("shards", &shards_json);
        o.finish()
    }

    /// Handles one request at enqueue time. `Some(reply)` answers it
    /// immediately (inline command, backpressure, or validation error);
    /// `None` means it was queued and will reply through `reply_tx`.
    fn immediate_or_enqueue(
        self: &Arc<ServerState>,
        request: Request,
        reply_tx: &mpsc::Sender<Reply>,
    ) -> Option<Reply> {
        match request.command {
            Command::Status => {
                return Some(Reply::Ok {
                    json: self.status_json(),
                })
            }
            Command::Shutdown => {
                self.draining.store(true, Ordering::SeqCst);
                self.queue_cv.notify_all();
                let mut o = ObjectWriter::new();
                o.field_str("command", "shutdown")
                    .field_bool("draining", true);
                return Some(Reply::Ok { json: o.finish() });
            }
            Command::Run | Command::Accel | Command::Explain => {}
        }
        if let Err(message) = validate_request(&request) {
            return Some(Reply::Error {
                message: format!("invalid request: {message}"),
            });
        }
        if dim_workloads::by_name(&request.workload).is_none() {
            return Some(Reply::Error {
                message: format!("unknown workload `{}`", request.workload),
            });
        }
        let mut queue = self.queue.lock().expect("queue lock");
        if self.draining.load(Ordering::SeqCst) {
            return Some(Reply::Error {
                message: "server is draining (shutdown in progress)".into(),
            });
        }
        if queue.len() >= self.opts.queue_capacity {
            self.bump_tenant(&request.tenant, |t| t.busy += 1);
            return Some(Reply::Busy {
                retry_after_ms: self.retry_hint(queue.len()),
                reason: format!("queue full ({}/{})", queue.len(), self.opts.queue_capacity),
            });
        }
        {
            let mut tenants = self.tenants.lock().expect("tenant lock");
            let t = tenants.entry(request.tenant.clone()).or_default();
            if t.outstanding >= self.opts.tenant_quota as u64 {
                t.busy += 1;
                drop(tenants);
                return Some(Reply::Busy {
                    retry_after_ms: self.retry_hint(queue.len()),
                    reason: format!(
                        "tenant `{}` quota exhausted ({}/{})",
                        request.tenant, self.opts.tenant_quota, self.opts.tenant_quota
                    ),
                });
            }
            t.outstanding += 1;
            t.submitted += 1;
        }
        let seq = self.seq.fetch_add(1, Ordering::SeqCst);
        // The span tree starts the moment the request is accepted:
        // root "request" plus its first stage child "queue_wait".
        let root_span = self.spans.begin_root("request", &request.tenant, seq);
        let stage_span = self.spans.begin("queue_wait", root_span);
        let enqueue_nanos = self.clock.now_nanos();
        queue.push_back(Pending {
            seq,
            request,
            reply_tx: reply_tx.clone(),
            root_span,
            stage_span,
            enqueue_nanos,
        });
        let depth = queue.len() as u64;
        drop(queue);
        self.board.update(|entries| {
            self.aggregate(&mut entries[0]);
            entries[0].queue_depth = depth;
        });
        self.queue_cv.notify_all();
        None
    }

    fn retry_hint(&self, queue_len: usize) -> u32 {
        // Rough time for the backlog to clear one wave: deeper queue,
        // longer hint. Clamped so clients never stall for long.
        let per_job = (queue_len / self.opts.jobs.max(1)) as u32;
        (100 + per_job * 50).min(2_000)
    }

    fn bump_tenant(&self, tenant: &str, f: impl FnOnce(&mut TenantStats)) {
        let mut tenants = self.tenants.lock().expect("tenant lock");
        f(tenants.entry(tenant.to_string()).or_default());
    }

    fn finish_request(&self, pending: &Pending, reply: Reply) {
        // Close the tree first so bookkeeping below (board I/O) does
        // not inflate the recorded wall time.
        self.spans.end(pending.root_span);
        let latency_micros = self.clock.now_nanos().saturating_sub(pending.enqueue_nanos) / 1_000;
        let p99 = {
            let mut ring = self.latencies.lock().expect("latency lock");
            ring.record(latency_micros);
            ring.p99()
        };
        let depth = self.queue.lock().expect("queue lock").len() as u64;
        let ok = matches!(reply, Reply::Ok { .. });
        self.bump_tenant(&pending.request.tenant, |t| {
            t.outstanding = t.outstanding.saturating_sub(1);
            if ok {
                t.completed += 1;
            } else {
                t.failed += 1;
            }
        });
        self.board.update(|entries| {
            self.aggregate(&mut entries[0]);
            entries[0].latency_p99_micros = p99;
            entries[0].queue_depth = depth;
        });
        // A dropped receiver (client gone) just discards the reply.
        let _ = pending.reply_tx.send(reply);
    }
}

fn system_config(request: &Request) -> SystemConfig {
    let shape = ShapeChoice::table1(request.shape).unwrap_or(ShapeChoice::Ideal);
    SystemConfig::new(shape.shape(), request.slots as usize, request.speculation)
}

/// Executes one queued request on worker `worker`; returns the reply.
/// `exec_span` (open for the duration of this call) parents the run's
/// stage spans and `shard_admit`.
fn run_one(state: &ServerState, pending: &Pending, worker: usize, exec_span: SpanId) -> Reply {
    let request = &pending.request;
    let fail = |message: String| Reply::Error { message };
    let Some(spec) = dim_workloads::by_name(&request.workload) else {
        return fail(format!("unknown workload `{}`", request.workload));
    };
    let built = (spec.build)(request.scale);
    let max_steps = if request.max_steps > 0 {
        request.max_steps
    } else {
        built.max_steps
    };
    let spans = (&state.spans, exec_span);

    if request.command == Command::Run {
        let machine = match run_plain(&built, max_steps, spans) {
            Ok(machine) => machine,
            Err(message) => return fail(message),
        };
        let mut o = ObjectWriter::new();
        o.field_str("command", "run")
            .field_str("workload", &request.workload)
            .field_str("scale", request.scale.name())
            .field_u64("retired", machine.stats.instructions)
            .field_u64("cycles", machine.stats.cycles);
        return Reply::Ok { json: o.finish() };
    }

    // Warm-start from the shared shard. The shard image already passed
    // the trust boundary at admission, and `load_rcache` re-verifies —
    // defense in depth around shared state.
    let config = system_config(request);
    let id = shard_id(
        &request.workload,
        request.scale,
        request.shape,
        request.slots,
        request.speculation,
    );
    let warm = if request.shared_shard {
        state.shards.warm_bytes(&id)
    } else {
        None
    };
    let label = format!("req-{}__{}", pending.seq, request.workload);
    let run = run_checked(&RunSpec {
        label: &label,
        built: &built,
        config,
        max_steps,
        warm: warm.as_deref(),
        flight_capacity: state.opts.flight_capacity,
        explain: request.command == Command::Explain,
        status_interval: state.opts.telemetry_interval,
        clock: &state.clock,
        board: (&state.board, worker),
        spans,
    });
    let FinishedRun {
        mut system,
        explanation,
    } = match run {
        Ok(run) => run,
        Err(failure) => {
            let dump = state.opts.out_dir.as_ref().map(|dir| {
                dir.join("flight")
                    .join(format!("req-{}.jsonl", pending.seq))
            });
            return fail(failure.dump_to(dump.as_deref()));
        }
    };

    // Offer the warmed cache back to the shard. Self-produced snapshots
    // re-cross the trust boundary like everyone else's.
    let mut shard_json = None;
    let admit_guard = state.spans.guard("shard_admit", exec_span);
    if request.shared_shard {
        let bytes = system.save_rcache();
        match state.shards.admit(&id, &config, &bytes) {
            Ok(outcome) => {
                let mut o = ObjectWriter::new();
                o.field_str("id", &id)
                    .field_u64("admitted", u64::from(outcome.admitted))
                    .field_u64("duplicates", u64::from(outcome.duplicates))
                    .field_u64("evicted", u64::from(outcome.evicted));
                shard_json = Some(o.finish());
            }
            Err(e) => return fail(format!("shard admission failed: {e}")),
        }
    }
    drop(admit_guard);

    let (hits, misses) = system.cache().hit_miss();
    let stats = system.stats();
    let mut cache = ObjectWriter::new();
    cache
        .field_u64("hits", hits)
        .field_u64("misses", misses)
        .field_u64("resident", system.cache().len() as u64)
        .field_u64("configs_built", stats.configs_built);
    let mut o = ObjectWriter::new();
    o.field_str("command", request.command.name())
        .field_str("workload", &request.workload)
        .field_str("scale", request.scale.name())
        .field_u64("shape", u64::from(request.shape))
        .field_u64("slots", u64::from(request.slots))
        .field_bool("speculation", request.speculation)
        .field_bool("shared_shard", request.shared_shard)
        .field_bool("warm_loaded", warm.is_some())
        .field_u64("retired", system.total_instructions())
        .field_u64("accel_cycles", system.total_cycles())
        .field_u64("invocations", stats.array_invocations)
        .field_raw("rcache", &cache.finish());
    if let Some(shard) = shard_json {
        o.field_raw("shard", &shard);
    }
    if let Some(ex) = explanation {
        o.field_raw("explain", &ex.to_json());
    }
    o.field_str("report", &system.report().to_string());
    Reply::Ok { json: o.finish() }
}

/// The dispatcher: drains the queue in waves and runs each wave on the
/// dim-sweep pool. Returns once draining is set and the queue is empty.
fn dispatcher(state: &Arc<ServerState>) {
    loop {
        let (wave, depth): (Vec<Pending>, u64) = {
            let mut queue = state.queue.lock().expect("queue lock");
            loop {
                if !queue.is_empty() {
                    break;
                }
                if state.draining.load(Ordering::SeqCst) {
                    return;
                }
                let (guard, _timeout) = state
                    .queue_cv
                    .wait_timeout(queue, Duration::from_millis(200))
                    .expect("queue lock");
                queue = guard;
                if queue.is_empty() {
                    // Idle: no update is coming to write what the
                    // status throttle held back.
                    state.board.flush();
                }
            }
            let take = queue.len().min(state.opts.jobs.max(1) * 4);
            let wave = queue.drain(..take).collect();
            (wave, queue.len() as u64)
        };
        state.board.update(|entries| entries[0].queue_depth = depth);
        let jobs: Vec<_> = wave
            .into_iter()
            .map(|mut pending| {
                // Queue wait ends when the wave drains; the request is
                // now scheduled, waiting for a free worker.
                state.spans.end(pending.stage_span);
                pending.stage_span = state.spans.begin("schedule", pending.root_span);
                let state = Arc::clone(state);
                move |worker: usize| {
                    state.spans.end(pending.stage_span);
                    let exec_span = state.spans.begin("exec", pending.root_span);
                    let reply = run_one(&state, &pending, worker, exec_span);
                    state.spans.end(exec_span);
                    state.finish_request(&pending, reply);
                    state.board.update(|entries| {
                        entries[worker + 1].state = "idle".into();
                    });
                }
            })
            .collect();
        let threads = state.opts.jobs;
        let _ = execute_jobs(jobs, threads);
    }
}

enum Slot {
    Now(Reply),
    Later(mpsc::Receiver<Reply>),
}

/// Serves one client connection until EOF, protocol error, or drain.
fn connection(state: &Arc<ServerState>, mut stream: UnixStream) {
    loop {
        let payload = match read_frame(WIRE_FRAME, &mut stream, MAX_FRAME_PAYLOAD) {
            Ok(Some(payload)) => payload,
            Ok(None) => return,
            Err(_) => return,
        };
        state.batches_in_flight.fetch_add(1, Ordering::SeqCst);
        let requests = crate::proto::decode_request_batch(&payload);
        let replies: Vec<Reply> = match requests {
            Err(e) => vec![Reply::Error {
                message: format!("malformed request batch: {e}"),
            }],
            Ok(requests) => {
                let slots: Vec<Slot> = requests
                    .into_iter()
                    .map(|request| {
                        let (tx, rx) = mpsc::channel();
                        match state.immediate_or_enqueue(request, &tx) {
                            Some(reply) => Slot::Now(reply),
                            None => Slot::Later(rx),
                        }
                    })
                    .collect();
                slots
                    .into_iter()
                    .map(|slot| match slot {
                        Slot::Now(reply) => reply,
                        Slot::Later(rx) => rx.recv().unwrap_or(Reply::Error {
                            message: "worker dropped before replying".into(),
                        }),
                    })
                    .collect()
            }
        };
        let wrote = write_frame(WIRE_FRAME, &mut stream, &encode_reply_batch(&replies));
        state.batches_in_flight.fetch_sub(1, Ordering::SeqCst);
        if wrote.is_err() {
            return;
        }
    }
}

fn import_shards(state: &ServerState, summary: &mut ServeSummary) {
    let Some(dir) = &state.opts.shard_dir else {
        return;
    };
    let Ok(entries) = std::fs::read_dir(dir) else {
        return; // Directory appears on drain.
    };
    let mut paths: Vec<PathBuf> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|ext| ext == "dimrc"))
        .collect();
    paths.sort();
    for path in paths {
        let id = path
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_default();
        let outcome = std::fs::read(&path)
            .map_err(|e| e.to_string())
            .and_then(|bytes| state.shards.import(&id, &bytes).map_err(|e| e.to_string()));
        match outcome {
            Ok(_) => summary.shards_imported += 1,
            Err(e) => summary
                .import_errors
                .push(format!("{}: {e}", path.display())),
        }
    }
}

fn export_shards(state: &ServerState) -> io::Result<usize> {
    let Some(dir) = &state.opts.shard_dir else {
        return Ok(0);
    };
    let drained = state.shards.export_all();
    let count = drained.len();
    for (id, bytes) in drained {
        atomic_write(&dir.join(format!("{id}.dimrc")), &bytes)?;
    }
    Ok(count)
}

/// Runs the daemon to completion: binds the socket, serves until a
/// `shutdown` request, drains, snapshots shards, and cleans up.
///
/// # Errors
///
/// [`ServeError`] when the socket cannot be bound or the drain cannot
/// persist its artifacts.
pub fn serve(opts: &ServeOptions) -> Result<ServeSummary, ServeError> {
    if opts.jobs == 0 {
        return Err(ServeError::Msg("--jobs must be at least 1".into()));
    }
    if opts.queue_capacity == 0 {
        return Err(ServeError::Msg("--queue must be at least 1".into()));
    }
    if opts.socket.exists() {
        std::fs::remove_file(&opts.socket)?;
    }
    let listener = UnixListener::bind(&opts.socket)?;
    listener.set_nonblocking(true)?;

    let status_path = opts.out_dir.as_ref().map(|dir| dir.join(STATUS_FILE_NAME));
    let label = opts.socket.display().to_string();
    let clock: SharedClock = MonotonicClock::shared();
    let state = Arc::new(ServerState {
        opts: opts.clone(),
        spans: SpanSheet::new(Arc::clone(&clock), SPAN_CAPACITY),
        clock: Arc::clone(&clock),
        latencies: Mutex::new(LatencyRing::default()),
        queue: Mutex::new(VecDeque::new()),
        queue_cv: Condvar::new(),
        draining: AtomicBool::new(false),
        seq: AtomicU64::new(0),
        batches_in_flight: AtomicI64::new(0),
        tenants: Mutex::new(BTreeMap::new()),
        shards: ShardManager::new(),
        board: StatusBoard::new(
            status_path,
            StatusEntry {
                source: "serve".into(),
                label,
                state: "running".into(),
                ..Default::default()
            },
            opts.jobs,
            clock,
        ),
    });
    let mut summary = ServeSummary::default();
    import_shards(&state, &mut summary);
    state.board.update(|_| {}); // Publish the initial board.

    let dispatcher_handle = {
        let state = Arc::clone(&state);
        thread::spawn(move || dispatcher(&state))
    };
    // Accept loop: nonblocking so the drain flag is honored promptly.
    // Connection threads are detached; they refuse new work once
    // draining and exit on client EOF.
    while !state.draining.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _addr)) => {
                let state = Arc::clone(&state);
                thread::spawn(move || connection(&state, stream));
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => thread::sleep(ACCEPT_POLL),
            Err(_) => thread::sleep(ACCEPT_POLL),
        }
    }
    dispatcher_handle
        .join()
        .map_err(|_| ServeError::Msg("dispatcher panicked".into()))?;

    // Let connection threads flush the final replies before exiting.
    let flush_deadline = state.clock.now_nanos() + REPLY_FLUSH_TIMEOUT.as_nanos() as u64;
    while state.batches_in_flight.load(Ordering::SeqCst) > 0
        && state.clock.now_nanos() < flush_deadline
    {
        thread::sleep(Duration::from_millis(10));
    }

    // Span dump: host-side output outside the determinism contract,
    // written once at drain like the final status.
    if let Some(dir) = &opts.out_dir {
        atomic_write(&dir.join(SPAN_FILE_NAME), state.spans.render().as_bytes())?;
    }

    summary.shards = export_shards(&state)?;
    let totals = state.totals();
    summary.submitted = totals.submitted;
    summary.completed = totals.completed;
    summary.failed = totals.failed;
    summary.busy_rejected = totals.busy;
    state.board.finish(|entries| {
        entries[0].state = "done".into();
        for entry in entries.iter_mut().skip(1) {
            entry.state = "done".into();
        }
    });
    let _ = std::fs::remove_file(&opts.socket);
    Ok(summary)
}
