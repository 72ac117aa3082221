//! End-to-end tests against a live daemon on a temp socket: protocol
//! round-trips, backpressure, warm-shard reuse, graceful drain to
//! `.dimrc`, and the acceptance criterion that a served accel request
//! is byte-identical to the equivalent one-shot run.

use dim_cgra::ArrayShape;
use dim_core::{SnapshotContents, System, SystemConfig};
use dim_mips_sim::{HaltReason, Machine};
use dim_obs::parse_json;
use dim_obs::status::{read_status, STATUS_FILE_NAME};
use dim_serve::{serve, submit, Command, Reply, Request, ServeOptions, ServeSummary};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::thread;
use std::time::{Duration, Instant};

static NEXT_DIR: AtomicU64 = AtomicU64::new(0);

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let dir = std::env::temp_dir().join(format!(
            "dim-serve-test-{tag}-{}-{}",
            std::process::id(),
            NEXT_DIR.fetch_add(1, Ordering::SeqCst)
        ));
        std::fs::create_dir_all(&dir).expect("create temp dir");
        TempDir(dir)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Starts a daemon, waits for the socket, runs `f`, sends `shutdown`,
/// and returns (f's result, the server's summary).
fn with_server<T>(opts: ServeOptions, f: impl FnOnce(&Path) -> T) -> (T, ServeSummary) {
    let socket = opts.socket.clone();
    let server = thread::spawn(move || serve(&opts));
    for _ in 0..200 {
        if socket.exists() {
            break;
        }
        thread::sleep(Duration::from_millis(10));
    }
    assert!(socket.exists(), "server socket never appeared");
    let out = f(&socket);
    let shutdown = Request {
        command: Command::Shutdown,
        workload: String::new(),
        ..Request::default()
    };
    let replies = submit(&socket, &[shutdown]).expect("shutdown submit");
    assert!(matches!(replies[0], Reply::Ok { .. }), "{:?}", replies[0]);
    let summary = server
        .join()
        .expect("server thread")
        .expect("server result");
    (out, summary)
}

fn accel_request(workload: &str, shared: bool) -> Request {
    Request {
        command: Command::Accel,
        workload: workload.to_string(),
        shared_shard: shared,
        ..Request::default()
    }
}

fn ok_json(reply: &Reply) -> dim_obs::JsonValue {
    match reply {
        Reply::Ok { json } => parse_json(json).expect("reply json parses"),
        other => panic!("expected Ok, got {other:?}"),
    }
}

#[test]
fn served_accel_is_byte_identical_to_one_shot() {
    let dir = TempDir::new("identity");
    let opts = ServeOptions::new(dir.path().join("dim.sock"));
    let ((), _summary) = with_server(opts, |socket| {
        let replies = submit(socket, &[accel_request("bitcount", false)]).expect("submit");
        let json = ok_json(&replies[0]);
        let served_report = json
            .get("report")
            .and_then(|v| v.as_str())
            .unwrap()
            .to_string();

        // The equivalent one-shot run: same workload, scale, shape,
        // slots, speculation — exactly what `dim accel bitcount` does.
        let spec = dim_workloads::by_name("bitcount").unwrap();
        let built = (spec.build)(dim_workloads::Scale::Tiny);
        let config = SystemConfig::new(ArrayShape::config2(), 64, true);
        let mut system = System::new(Machine::load(&built.program), config);
        let halt = system.run(built.max_steps).expect("one-shot run");
        assert!(matches!(halt, HaltReason::Exit(_)));
        let direct_report = system.report().to_string();

        assert_eq!(
            served_report, direct_report,
            "server-mode report must be byte-identical to a one-shot run"
        );
        assert_eq!(
            json.get("accel_cycles")
                .and_then(dim_obs::JsonValue::as_u64)
                .unwrap(),
            system.total_cycles()
        );
    });
}

#[test]
fn warm_shard_is_reused_across_requests_and_drains_to_dimrc() {
    let dir = TempDir::new("warm");
    let shard_dir = dir.path().join("shards");
    let mut opts = ServeOptions::new(dir.path().join("dim.sock"));
    opts.shard_dir = Some(shard_dir.clone());
    let ((cold, warm), summary) = with_server(opts, |socket| {
        let first = submit(socket, &[accel_request("crc32", true)]).expect("submit");
        let second = submit(socket, &[accel_request("crc32", true)]).expect("submit");
        let cold = ok_json(&first[0]);
        let warm = ok_json(&second[0]);
        (cold, warm)
    });
    assert_eq!(
        cold.get("warm_loaded")
            .and_then(dim_obs::JsonValue::as_bool),
        Some(false)
    );
    assert_eq!(
        warm.get("warm_loaded")
            .and_then(dim_obs::JsonValue::as_bool),
        Some(true)
    );
    let cold_cycles = cold
        .get("accel_cycles")
        .and_then(dim_obs::JsonValue::as_u64)
        .unwrap();
    let warm_cycles = warm
        .get("accel_cycles")
        .and_then(dim_obs::JsonValue::as_u64)
        .unwrap();
    assert!(
        warm_cycles < cold_cycles,
        "warm start must save cycles: cold {cold_cycles}, warm {warm_cycles}"
    );

    // The drained shard is an ordinary verifiable snapshot.
    assert_eq!(summary.shards, 1);
    let path = shard_dir.join("crc32__tiny_c2_s64_spec.dimrc");
    let bytes = std::fs::read(&path).expect("drained shard exists");
    let contents = SnapshotContents::parse(&bytes).expect("drained shard parses");
    contents
        .verify()
        .expect("drained shard passes the verifier");
    assert!(!contents.configs.is_empty());
}

/// The scale changes a kernel's text (crc32 assembles its buffer
/// length as an immediate), so a `tiny` request's shard must not
/// warm-start a `small` one: the `small` request runs cold on a shard of
/// its own, and both validate.
#[test]
fn shards_are_keyed_by_scale() {
    let dir = TempDir::new("scales");
    let shard_dir = dir.path().join("shards");
    let mut opts = ServeOptions::new(dir.path().join("dim.sock"));
    opts.shard_dir = Some(shard_dir.clone());
    let small = Request {
        scale: dim_workloads::Scale::Small,
        ..accel_request("crc32", true)
    };
    let (replies, summary) = with_server(opts, |socket| {
        let tiny = submit(socket, &[accel_request("crc32", true)]).expect("submit");
        let small = submit(socket, &[small]).expect("submit");
        (ok_json(&tiny[0]), ok_json(&small[0]))
    });
    for (json, scale) in [(&replies.0, "tiny"), (&replies.1, "small")] {
        assert_eq!(
            json.get("warm_loaded")
                .and_then(dim_obs::JsonValue::as_bool),
            Some(false),
            "{scale}: a shard of another scale must not warm-start it"
        );
    }
    assert_eq!(summary.shards, 2);
    for id in ["crc32__tiny_c2_s64_spec", "crc32__small_c2_s64_spec"] {
        let bytes = std::fs::read(shard_dir.join(format!("{id}.dimrc"))).expect("drained shard");
        SnapshotContents::parse(&bytes)
            .and_then(|contents| contents.verify())
            .expect("drained shard verifies");
    }
}

#[test]
fn warm_start_from_imported_shard_dir() {
    let dir = TempDir::new("import");
    let shard_dir = dir.path().join("shards");

    // First server run populates the shard dir on drain.
    let mut opts = ServeOptions::new(dir.path().join("a.sock"));
    opts.shard_dir = Some(shard_dir.clone());
    let ((), _summary) = with_server(opts, |socket| {
        let replies = submit(socket, &[accel_request("crc32", true)]).expect("submit");
        ok_json(&replies[0]);
    });

    // Second server run imports it; the very first request is warm.
    let mut opts = ServeOptions::new(dir.path().join("b.sock"));
    opts.shard_dir = Some(shard_dir);
    let (json, summary) = with_server(opts, |socket| {
        let replies = submit(socket, &[accel_request("crc32", true)]).expect("submit");
        ok_json(&replies[0])
    });
    assert_eq!(summary.shards_imported, 1);
    assert!(
        summary.import_errors.is_empty(),
        "{:?}",
        summary.import_errors
    );
    assert_eq!(
        json.get("warm_loaded")
            .and_then(dim_obs::JsonValue::as_bool),
        Some(true)
    );
}

#[test]
fn poisoned_shard_file_is_rejected_at_import() {
    let dir = TempDir::new("poison");
    let shard_dir = dir.path().join("shards");

    let mut opts = ServeOptions::new(dir.path().join("a.sock"));
    opts.shard_dir = Some(shard_dir.clone());
    let ((), _summary) = with_server(opts, |socket| {
        let replies = submit(socket, &[accel_request("crc32", true)]).expect("submit");
        ok_json(&replies[0]);
    });

    // Corrupt the drained image: flip a payload byte mid-file.
    let path = shard_dir.join("crc32__tiny_c2_s64_spec.dimrc");
    let mut bytes = std::fs::read(&path).expect("shard exists");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&path, &bytes).expect("write poisoned shard");

    let mut opts = ServeOptions::new(dir.path().join("b.sock"));
    opts.shard_dir = Some(shard_dir);
    let (json, summary) = with_server(opts, |socket| {
        let replies = submit(socket, &[accel_request("crc32", true)]).expect("submit");
        ok_json(&replies[0])
    });
    // The poisoned file is rejected at the trust boundary, the server
    // keeps going, and the request simply runs cold.
    assert_eq!(summary.shards_imported, 0);
    assert_eq!(summary.import_errors.len(), 1);
    assert_eq!(
        json.get("warm_loaded")
            .and_then(dim_obs::JsonValue::as_bool),
        Some(false)
    );
}

#[test]
fn invalid_requests_and_backpressure_reply_without_work() {
    let dir = TempDir::new("reject");
    let mut opts = ServeOptions::new(dir.path().join("dim.sock"));
    opts.tenant_quota = 1;
    let ((), summary) = with_server(opts, |socket| {
        // Unknown workload → Error.
        let replies = submit(socket, &[accel_request("no-such-workload", false)]).expect("submit");
        let Reply::Error { message } = &replies[0] else {
            panic!("expected Error, got {:?}", replies[0]);
        };
        assert!(message.contains("unknown workload"), "{message}");

        // Invalid combination (hand-rolled wire request) → Error.
        let mut bad = accel_request("crc32", true);
        bad.shape = 0;
        let replies = submit(socket, &[bad]).expect("submit");
        let Reply::Error { message } = &replies[0] else {
            panic!("expected Error, got {:?}", replies[0]);
        };
        assert!(message.contains("ideal"), "{message}");

        // Quota of 1: a batch of three same-tenant requests must see
        // Busy for the overflow, with a retry hint.
        let batch = vec![
            accel_request("crc32", false),
            accel_request("crc32", false),
            accel_request("crc32", false),
        ];
        let replies = submit(socket, &batch).expect("submit");
        let busy = replies
            .iter()
            .filter(|r| matches!(r, Reply::Busy { .. }))
            .count();
        assert!(busy >= 1, "expected at least one Busy, got {replies:?}");
        for reply in &replies {
            if let Reply::Busy {
                retry_after_ms,
                reason,
            } = reply
            {
                assert!(*retry_after_ms > 0);
                assert!(reason.contains("quota"), "{reason}");
            }
        }

        // Status reflects the rejections, and each of its totals is the
        // sum of that count over its tenants.
        let status = Request {
            command: Command::Status,
            workload: String::new(),
            ..Request::default()
        };
        let replies = submit(socket, &[status]).expect("submit");
        let json = ok_json(&replies[0]);
        let count = |v: &dim_obs::JsonValue, key: &str| {
            v.get(key)
                .and_then(dim_obs::JsonValue::as_u64)
                .unwrap_or_else(|| panic!("missing `{key}`"))
        };
        assert!(count(&json, "busy_rejected") >= 1);
        let tenants = json
            .get("tenants")
            .and_then(dim_obs::JsonValue::as_array)
            .expect("tenants array");
        assert!(!tenants.is_empty());
        for key in ["submitted", "completed", "failed", "busy_rejected"] {
            let sum: u64 = tenants.iter().map(|t| count(t, key)).sum();
            assert_eq!(count(&json, key), sum, "`{key}` total");
        }
    });
    // Invalid requests were refused at enqueue, so they never count as
    // submitted or failed; only the quota overflow shows up as Busy.
    assert!(summary.busy_rejected >= 1);
    assert_eq!(summary.failed, 0);
    assert_eq!(summary.submitted, summary.completed);
}

#[test]
fn every_request_yields_one_complete_span_tree() {
    let dir = TempDir::new("spans");
    let mut opts = ServeOptions::new(dir.path().join("dim.sock"));
    opts.out_dir = Some(dir.path().to_path_buf());
    let ((), summary) = with_server(opts, |socket| {
        let mut alpha = accel_request("crc32", true);
        alpha.tenant = "alpha".into();
        let mut beta = accel_request("bitcount", false);
        beta.tenant = "beta".into();
        let run = Request {
            command: Command::Run,
            workload: "bitcount".into(),
            tenant: "beta".into(),
            ..Request::default()
        };
        for req in [alpha, beta, run] {
            let replies = submit(socket, &[req]).expect("submit");
            ok_json(&replies[0]);
        }
    });
    assert_eq!(summary.completed, 3);

    let file = dim_obs::span::read_span_file(&dir.path().join(dim_obs::SPAN_FILE_NAME))
        .expect("span dump parses");
    let forest = dim_obs::SpanForest::build(&file);
    assert_eq!(file.dropped, 0);
    assert_eq!(forest.orphans_trimmed, 0);
    assert_eq!(
        forest.roots.len(),
        3,
        "exactly one span tree per completed request"
    );
    assert_eq!(forest.check_laws(), Vec::<String>::new());

    for &root in &forest.roots {
        let span = &forest.spans[root];
        assert_eq!(span.stage, "request");
        assert!(span.tenant == "alpha" || span.tenant == "beta", "{span:?}");
        let stage_of = |name: &str| {
            forest.children[root]
                .iter()
                .copied()
                .find(|&c| forest.spans[c].stage == name)
        };
        // The request's lifecycle stages are all present and, being
        // begun back to back, reconcile with the request's wall time.
        let stages = ["queue_wait", "schedule", "exec"];
        let mut stage_sum = 0u64;
        for name in stages {
            let index = stage_of(name).unwrap_or_else(|| panic!("missing `{name}` stage"));
            stage_sum += forest.spans[index].duration_nanos();
        }
        let wall = span.duration_nanos();
        assert!(stage_sum <= wall, "stages {stage_sum} exceed wall {wall}");
        assert!(
            wall - stage_sum < 10_000_000,
            "stages {stage_sum} ns leave an implausible gap inside {wall} ns"
        );

        // Every request, accel and run alike, simulates under `exec`.
        let exec = stage_of("exec").unwrap();
        assert!(
            forest.children[exec]
                .iter()
                .any(|&c| forest.spans[c].stage == "simulate"),
            "no `simulate` under `exec`"
        );
    }
}

#[test]
fn an_idle_daemons_status_file_catches_up() {
    let dir = TempDir::new("idle-status");
    let mut opts = ServeOptions::new(dir.path().join("dim.sock"));
    opts.out_dir = Some(dir.path().to_path_buf());
    let status = dir.path().join(STATUS_FILE_NAME);
    let ((), summary) = with_server(opts, |socket| {
        let replies = submit(socket, &[accel_request("crc32", false)]).expect("submit");
        ok_json(&replies[0]);
        // The request's own board updates can all fall inside one
        // 100-ms rewrite window; the idle daemon must still write them.
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let file = read_status(&status).expect("status file");
            let idle = file.entries[1..].iter().all(|e| e.state == "idle");
            if file.entries[0].done == 1 && idle {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "status file still stale while idle: {:?}",
                file.entries
            );
            thread::sleep(Duration::from_millis(20));
        }
    });
    assert_eq!(summary.completed, 1);
}

#[test]
fn run_and_explain_commands_work_end_to_end() {
    let dir = TempDir::new("commands");
    let opts = ServeOptions::new(dir.path().join("dim.sock"));
    let ((), _summary) = with_server(opts, |socket| {
        let run = Request {
            command: Command::Run,
            workload: "bitcount".into(),
            ..Request::default()
        };
        let explain = Request {
            command: Command::Explain,
            workload: "bitcount".into(),
            ..Request::default()
        };
        let replies = submit(socket, &[run, explain]).expect("submit");
        let run_json = ok_json(&replies[0]);
        assert_eq!(
            run_json.get("command").and_then(|v| v.as_str()),
            Some("run")
        );
        assert!(
            run_json
                .get("cycles")
                .and_then(dim_obs::JsonValue::as_u64)
                .unwrap()
                > 0
        );
        let explain_json = ok_json(&replies[1]);
        assert_eq!(
            explain_json.get("command").and_then(|v| v.as_str()),
            Some("explain")
        );
        let nested = explain_json.get("explain").expect("nested explain object");
        assert_eq!(
            nested.get("workload").and_then(|v| v.as_str()),
            Some("req-1__bitcount")
        );
    });
}

#[test]
fn a_sweep_cell_and_a_served_request_give_one_result() {
    let dir = TempDir::new("one-path");
    let spec = dim_sweep::SweepSpec::parse(
        "workloads = crc32\nscale = tiny\nshapes = 2\nslots = 64\nspeculation = on\n",
    )
    .expect("spec parses");
    let cells = spec.expand();
    assert_eq!(cells.len(), 1);
    let sweep_dir = dir.path().join("sweep");
    dim_sweep::run_sweep(&spec, &dim_sweep::SweepOptions::new(sweep_dir.clone()))
        .expect("sweep runs");
    let cell_path = sweep_dir
        .join("cells")
        .join(format!("{}.json", cells[0].id));
    let cell = parse_json(&std::fs::read_to_string(cell_path).expect("cell file")).unwrap();

    let opts = ServeOptions::new(dir.path().join("dim.sock"));
    let (reply, _summary) = with_server(opts, |socket| {
        let replies = submit(socket, &[accel_request("crc32", false)]).expect("submit");
        ok_json(&replies[0])
    });

    let num = |v: &dim_obs::JsonValue, path: &[&str]| {
        path.iter()
            .try_fold(v, |v, key| v.get(key))
            .and_then(dim_obs::JsonValue::as_u64)
            .unwrap_or_else(|| panic!("missing {path:?}"))
    };
    assert_eq!(
        num(&cell, &["accel_cycles"]),
        num(&reply, &["accel_cycles"])
    );
    assert_eq!(
        num(&cell, &["dim", "array_invocations"]),
        num(&reply, &["invocations"])
    );
    assert_eq!(
        num(&cell, &["cache", "hits"]),
        num(&reply, &["rcache", "hits"])
    );
    assert_eq!(
        num(&cell, &["cache", "misses"]),
        num(&reply, &["rcache", "misses"])
    );
    assert!(num(&reply, &["invocations"]) > 0);
}
