//! Many runs at once: `sweep` runs a grid on a worker pool, `serve`
//! keeps a daemon, `submit` sends it one request, and `top` renders the
//! live status either one publishes.

use crate::flags::Flags;
use crate::CliError;
use dim_obs::status::{read_status, StatusEntry, STATUS_FILE_NAME};
use std::io::Write;
use std::path::{Path, PathBuf};

pub(crate) fn cmd_sweep(args: &[String], out: &mut impl Write) -> Result<(), CliError> {
    use dim_sweep::{run_sweep, SweepOptions, SweepSpec};
    let flags = Flags::parse(
        "sweep",
        args,
        "--jobs= --out= --limit= --warm= --flight= --telemetry-interval= --explain",
        1,
    )?;
    let input = flags.input("spec file")?;
    let text = std::fs::read_to_string(input).map_err(CliError::at(input))?;
    let spec = SweepSpec::parse(&text).map_err(CliError::at(input))?;
    let warm = match flags.value("--warm") {
        None => None,
        Some("on") => Some(true),
        Some("off") => Some(false),
        Some(other) => {
            return Err(CliError::new(format!(
                "--warm: expected on|off, got `{other}`"
            )))
        }
    };

    let mut opts = SweepOptions::new(flags.value("--out").unwrap_or("sweep-out").into());
    opts.jobs = flags.positive("--jobs")?.unwrap_or(1) as usize;
    opts.limit = flags.num("--limit")?;
    opts.warm_rcache = warm;
    opts.explain = flags.has("--explain");
    // Unlike accel's, sweep's recorder is on by default; `--flight 0`
    // switches the per-worker recorder + watchdog off.
    if let Some(capacity) = flags.num("--flight")? {
        opts.flight_capacity = capacity;
    }
    opts.telemetry_interval = flags.telemetry_interval()?.unwrap_or(0);
    let outcome = run_sweep(&spec, &opts)?;
    if opts.explain && outcome.executed > 0 {
        writeln!(
            out,
            "forensics: per-cell explain reports under {}",
            opts.out_dir.join("explain").display()
        )?;
    }
    writeln!(
        out,
        "telemetry: {} (watch with `dim top {} --follow`)",
        opts.out_dir.join(STATUS_FILE_NAME).display(),
        opts.out_dir.display()
    )?;
    writeln!(
        out,
        "sweep: {} cells ({} executed, {} skipped) in {:.3}s with {} worker(s), {} steal(s)",
        outcome.total_cells,
        outcome.executed,
        outcome.skipped,
        outcome.wall_seconds,
        outcome.pool.threads,
        outcome.pool.total_steals()
    )?;
    if outcome.complete {
        writeln!(
            out,
            "complete: report at {}",
            opts.out_dir.join("report.txt").display()
        )?;
    } else {
        writeln!(
            out,
            "incomplete ({} cells remain): rerun the same command to resume",
            outcome.total_cells - outcome.executed - outcome.skipped
        )?;
    }
    Ok(())
}

/// `dim serve` flags that only the daemon takes, and those that only
/// `--selftest` takes.
const DAEMON_ONLY: &str =
    "--socket --queue --tenant-quota --shard-dir --status-dir --flight --telemetry-interval";
const SELFTEST_ONLY: &str = "--clients --requests --bench-out";

pub(crate) fn cmd_serve(args: &[String], out: &mut impl Write) -> Result<(), CliError> {
    let flags = Flags::parse(
        "serve",
        args,
        "--socket= --jobs= --queue= --tenant-quota= --shard-dir= --status-dir= --flight= \
         --telemetry-interval= --clients= --requests= --bench-out= --selftest",
        0,
    )?;
    let selftest = flags.has("--selftest");
    let (misplaced, rule) = if selftest {
        (DAEMON_ONLY, "does not apply to --selftest")
    } else {
        (SELFTEST_ONLY, "requires --selftest")
    };
    if let Some(flag) = misplaced.split_whitespace().find(|f| flags.has(f)) {
        return Err(CliError::new(format!("serve: `{flag}` {rule}")));
    }
    let jobs = flags.positive("--jobs")?;

    if selftest {
        let mut opts = dim_serve::SelftestOptions::default();
        if let Some(jobs) = jobs {
            opts.jobs = jobs as usize;
        }
        if let Some(clients) = flags.positive("--clients")? {
            opts.clients = clients as usize;
        }
        if let Some(requests) = flags.positive("--requests")? {
            opts.requests_per_client = requests as usize;
        }
        if let Some(dir) = flags.value("--bench-out") {
            opts.bench_out = dir.into();
        }
        let report = dim_serve::run_selftest(&opts).map_err(CliError::at("serve"))?;
        writeln!(
            out,
            "selftest: {}/{} requests completed, {} busy retries, {:.1} req/s",
            report.completed, report.requests_total, report.busy_retries, report.throughput_rps
        )?;
        writeln!(
            out,
            "selftest: ramp cold {} cycles -> warm {} cycles",
            report.cold_cycles, report.warm_cycles
        )?;
        writeln!(
            out,
            "selftest: simulate stage cold {}ns -> warm {}ns, span laws {}",
            report.cold_sim_nanos,
            report.warm_sim_nanos,
            if report.span_laws_ok {
                "ok"
            } else {
                "VIOLATED"
            }
        )?;
        writeln!(out, "selftest: bench -> {}", report.bench_path.display())?;
        if !report.ok {
            return Err(CliError::new(
                "serve: selftest failed (incomplete requests, warm shard did not beat cold start, or span gate tripped)",
            ));
        }
        return Ok(());
    }

    let socket = flags
        .value("--socket")
        .ok_or_else(|| CliError::new("serve: missing --socket (or use --selftest)"))?;
    let mut opts = dim_serve::ServeOptions::new(socket.into());
    if let Some(jobs) = jobs {
        opts.jobs = jobs as usize;
    }
    if let Some(queue) = flags.positive("--queue")? {
        opts.queue_capacity = queue as usize;
    }
    if let Some(quota) = flags.positive("--tenant-quota")? {
        opts.tenant_quota = quota as usize;
    }
    opts.shard_dir = flags.value("--shard-dir").map(PathBuf::from);
    opts.out_dir = flags.value("--status-dir").map(PathBuf::from);
    if let Some(flight) = flags.num("--flight")? {
        opts.flight_capacity = flight;
    }
    if let Some(interval) = flags.telemetry_interval()? {
        opts.telemetry_interval = interval;
    }
    writeln!(out, "serve: listening on {socket} ({} workers)", opts.jobs)?;
    out.flush()?;
    let summary = dim_serve::serve(&opts)?;
    for err in &summary.import_errors {
        writeln!(out, "serve: warning: shard import skipped: {err}")?;
    }
    if summary.shards_imported > 0 {
        writeln!(
            out,
            "serve: warm-started {} shard(s) from disk",
            summary.shards_imported
        )?;
    }
    writeln!(
        out,
        "serve: drained: {} submitted, {} completed, {} failed, {} busy-rejected, {} shard(s) snapshotted",
        summary.submitted, summary.completed, summary.failed, summary.busy_rejected, summary.shards
    )?;
    Ok(())
}

pub(crate) fn cmd_submit(args: &[String], out: &mut impl Write) -> Result<(), CliError> {
    let flags = Flags::parse("submit", args, "--json", 2)?;
    let socket = flags.input("socket path")?;
    let request_file = *flags
        .positionals()
        .get(1)
        .ok_or_else(|| CliError::new("submit: missing request file"))?;
    let socket_path = Path::new(socket);
    if !socket_path.exists() {
        return Err(CliError::new(format!(
            "submit: {socket}: no such socket (is the daemon running?)"
        )));
    }
    let text = std::fs::read_to_string(request_file).map_err(CliError::at(request_file))?;
    let request = dim_serve::parse_request(&text).map_err(CliError::at(request_file))?;
    let replies = dim_serve::submit(socket_path, std::slice::from_ref(&request))?;
    match replies.into_iter().next() {
        Some(dim_serve::Reply::Ok { json: reply_json }) => {
            if flags.has("--json") {
                writeln!(out, "{reply_json}")?;
                return Ok(());
            }
            // The human-readable view: the embedded report when the
            // command produced one, the raw object otherwise.
            let report = dim_obs::parse_json(&reply_json)
                .ok()
                .as_ref()
                .and_then(|v| v.get("report"))
                .and_then(|v| v.as_str())
                .map(str::to_string);
            match report {
                Some(report) => write!(out, "{report}")?,
                None => writeln!(out, "{reply_json}")?,
            }
            Ok(())
        }
        Some(dim_serve::Reply::Busy {
            retry_after_ms,
            reason,
        }) => Err(CliError::new(format!(
            "submit: server busy: {reason} (retry after {retry_after_ms}ms)"
        ))),
        Some(dim_serve::Reply::Error { message }) => {
            Err(CliError::new(format!("submit: {message}")))
        }
        None => Err(CliError::new("submit: server sent no reply")),
    }
}

/// `scale * num / den` with one decimal, or `-` when `den` is 0.
fn per(num: u64, den: u64, scale: f64) -> String {
    if den == 0 {
        "-".to_string()
    } else {
        format!("{:.1}", scale * num as f64 / den as f64)
    }
}

/// One aligned table row per status entry; live rates are derived, not
/// stored, so a stale snapshot still renders consistently.
fn render_status(entries: &[StatusEntry], out: &mut impl Write) -> Result<(), CliError> {
    writeln!(
        out,
        "{:<10} {:<8} {:>9}  {:<24} {:>12} {:>14} {:>6} {:>6} {:>9} {:>8} {:>5}",
        "source",
        "state",
        "done",
        "label",
        "retired",
        "sim cycles",
        "hit%",
        "fab%",
        "sim-MIPS",
        "p99-us",
        "queue"
    )?;
    for e in entries {
        // Request-latency columns only apply to serving aggregates (and
        // to status v2 files they default to 0) — render `-`.
        let serving = e.latency_p99_micros > 0;
        writeln!(
            out,
            "{:<10} {:<8} {:>9}  {:<24} {:>12} {:>14} {:>6} {:>6} {:>9} {:>8} {:>5}",
            e.source,
            e.state,
            format!("{}/{}", e.done, e.total),
            e.label,
            e.retired,
            e.sim_cycles,
            per(e.rcache_hits, e.rcache_hits + e.rcache_misses, 100.0),
            // Zero capacity means an infinite shape or a pre-fabric
            // (status v1) producer: `-`, not 0.
            per(e.fabric_busy_thirds, e.fabric_capacity_thirds, 100.0),
            // Pipeline and array instructions per host second, in
            // millions: (retired + array_retired) / (host_nanos / 1e9)
            // / 1e6, the count `System::total_instructions` gives.
            per(e.retired + e.array_retired, e.host_nanos, 1000.0),
            if serving {
                e.latency_p99_micros.to_string()
            } else {
                "-".into()
            },
            if serving || e.queue_depth > 0 {
                e.queue_depth.to_string()
            } else {
                "-".into()
            },
        )?;
    }
    Ok(())
}

/// How `dim top --follow` polls and how hard it tries when the status
/// file is missing or torn. Injectable so tests can run in milliseconds.
struct FollowPolicy {
    /// Delay between successful renders.
    poll: std::time::Duration,
    /// First retry delay after a failed read.
    backoff_start: std::time::Duration,
    /// Retry delay ceiling (doubles up to this).
    backoff_cap: std::time::Duration,
    /// Consecutive failed reads tolerated before giving up.
    max_misses: u32,
}

impl Default for FollowPolicy {
    fn default() -> FollowPolicy {
        FollowPolicy {
            poll: std::time::Duration::from_millis(200),
            backoff_start: std::time::Duration::from_millis(50),
            backoff_cap: std::time::Duration::from_millis(800),
            max_misses: 25,
        }
    }
}

fn run_top(
    path: &Path,
    follow: bool,
    policy: &FollowPolicy,
    out: &mut impl Write,
) -> Result<(), CliError> {
    let mut misses: u32 = 0;
    let mut backoff = policy.backoff_start;
    loop {
        match read_status(path) {
            Ok(status) => {
                misses = 0;
                backoff = policy.backoff_start;
                render_status(&status.entries, out)?;
                let finished = status
                    .entries
                    .first()
                    .is_none_or(|e| e.state == "done" || e.state == "failed");
                if !follow || finished {
                    return Ok(());
                }
                writeln!(out)?;
                std::thread::sleep(policy.poll);
            }
            // Following a live producer: the file may not exist yet (a
            // sweep still warming up), may read torn mid-rewrite, or may
            // vanish and reappear when a daemon restarts or re-publishes.
            // Every error kind is transient while following — retry with
            // bounded doubling backoff, and only give up after a run of
            // consecutive misses with nothing rendered in between.
            Err(e) if follow => {
                misses += 1;
                if misses > policy.max_misses {
                    return Err(CliError::new(format!(
                        "{}: gave up after {} attempts: {e}",
                        path.display(),
                        policy.max_misses
                    )));
                }
                std::thread::sleep(backoff);
                backoff = (backoff * 2).min(policy.backoff_cap);
            }
            Err(e) => return Err(CliError::new(format!("{}: {e}", path.display()))),
        }
    }
}

pub(crate) fn cmd_top(args: &[String], out: &mut impl Write) -> Result<(), CliError> {
    let flags = Flags::parse("top", args, "--follow", 1)?;
    let mut path = PathBuf::from(flags.input("status file or sweep output directory")?);
    if path.is_dir() {
        path = path.join(STATUS_FILE_NAME);
    }
    run_top(&path, flags.has("--follow"), &FollowPolicy::default(), out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::{run_cli, tmp_file};

    #[test]
    fn sweep_runs_resumes_and_validates_flags() {
        let spec = tmp_file(
            "t16.spec",
            "workloads = crc32\nscale = tiny\nshapes = 1, 3\nslots = 16\nspeculation = on\n",
        );
        let spec_path = spec.to_str().unwrap();
        let out_dir = std::env::temp_dir().join("dim-cli-tests/t16-sweep");
        std::fs::remove_dir_all(&out_dir).ok();
        let out_path = out_dir.to_str().unwrap();

        let first = run_cli(&["sweep", spec_path, "--out", out_path, "--limit", "1"]).unwrap();
        assert!(first.contains("incomplete"), "{first}");

        let second = run_cli(&["sweep", spec_path, "--out", out_path, "--jobs", "2"]).unwrap();
        assert!(second.contains("1 skipped"), "{second}");
        assert!(second.contains("complete: report"), "{second}");

        let err = run_cli(&["sweep", spec_path, "--jobs", "0"]).unwrap_err();
        assert!(err.to_string().contains("at least 1"), "{err}");
        let err = run_cli(&["sweep", spec_path, "--job", "2"]).unwrap_err();
        assert!(err.to_string().contains("unknown flag"), "{err}");

        let bad_spec = tmp_file("t16-bad.spec", "workloads = crc32\nshapes = 9\n");
        let err = run_cli(&["sweep", bad_spec.to_str().unwrap()]).unwrap_err();
        assert!(err.to_string().contains("unknown shape"), "{err}");

        std::fs::remove_dir_all(&out_dir).ok();
    }

    /// `--telemetry-interval` is a positive status cadence on the two
    /// commands that take it; omitting the flag keeps the default.
    #[test]
    fn telemetry_interval_must_be_positive() {
        let spec = tmp_file(
            "t30.spec",
            "workloads = crc32\nscale = tiny\nshapes = 1\nslots = 16\nspeculation = on\n",
        );
        let socket = std::env::temp_dir().join("dim-cli-tests/t30.sock");
        let (spec, socket_path) = (spec.to_str().unwrap(), socket.to_str().unwrap());
        for command in [&["sweep", spec][..], &["serve", "--socket", socket_path]] {
            for (value, want) in [("0", "at least 1 cycle"), ("x", "not a number")] {
                let args = [command, &["--telemetry-interval", value]].concat();
                let err = run_cli(&args).unwrap_err();
                assert!(err.to_string().contains(want), "{args:?}: {err}");
            }
        }
        assert!(!socket.exists());
    }

    #[test]
    fn sweep_flight_zero_disables_the_flight_dir() {
        let spec = tmp_file(
            "t35.spec",
            "workloads = crc32\nscale = tiny\nshapes = 1\nslots = 16\nspeculation = on\n",
        );
        let out_dir = std::env::temp_dir().join("dim-cli-tests/t35-sweep");
        std::fs::remove_dir_all(&out_dir).ok();
        run_cli(&[
            "sweep",
            spec.to_str().unwrap(),
            "--out",
            out_dir.to_str().unwrap(),
            "--flight",
            "0",
        ])
        .unwrap();
        assert!(!out_dir.join("flight").exists());
        std::fs::remove_dir_all(&out_dir).ok();
    }

    #[test]
    fn sweep_explain_writes_per_cell_forensics() {
        let spec = tmp_file(
            "t22.spec",
            "workloads = crc32\nscale = tiny\nshapes = 1\nslots = 16\nspeculation = on\n",
        );
        let out_dir = std::env::temp_dir().join("dim-cli-tests/t22-sweep");
        std::fs::remove_dir_all(&out_dir).ok();
        let report = run_cli(&[
            "sweep",
            spec.to_str().unwrap(),
            "--out",
            out_dir.to_str().unwrap(),
            "--explain",
        ])
        .unwrap();
        assert!(report.contains("forensics:"), "{report}");
        let explain_dir = out_dir.join("explain");
        let entries: Vec<_> = std::fs::read_dir(&explain_dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        assert_eq!(entries.len(), 1);
        let text = std::fs::read_to_string(&entries[0]).unwrap();
        let parsed = dim_obs::parse_json(&text).unwrap();
        assert!(parsed.get("regions").is_some());
        std::fs::remove_dir_all(&out_dir).ok();
    }

    #[test]
    fn top_renders_sweep_status_and_rejects_missing_files() {
        let spec = tmp_file(
            "t34.spec",
            "workloads = crc32\nscale = tiny\nshapes = 1, 3\nslots = 16\nspeculation = on\n",
        );
        let out_dir = std::env::temp_dir().join("dim-cli-tests/t34-sweep");
        std::fs::remove_dir_all(&out_dir).ok();
        let report = run_cli(&[
            "sweep",
            spec.to_str().unwrap(),
            "--out",
            out_dir.to_str().unwrap(),
            "--jobs",
            "2",
        ])
        .unwrap();
        assert!(report.contains("telemetry:"), "{report}");

        // Both the directory and the file itself are accepted targets.
        for target in [
            out_dir.to_path_buf(),
            out_dir.join(dim_obs::status::STATUS_FILE_NAME),
        ] {
            let table = run_cli(&["top", target.to_str().unwrap()]).unwrap();
            assert!(table.contains("source"), "{table}");
            assert!(table.contains("sweep"), "{table}");
            assert!(table.contains("done"), "{table}");
            assert!(table.contains("2/2"), "{table}");
            assert!(table.contains("worker-1"), "{table}");
            // Request-latency columns exist but render `-` for sweep
            // entries, which never serve requests.
            assert!(table.contains("p99-us"), "{table}");
            assert!(table.contains("queue"), "{table}");
        }

        let err = run_cli(&["top", "/nonexistent/status.dimstat"]).unwrap_err();
        assert!(!err.to_string().is_empty());
        let err = run_cli(&["top"]).unwrap_err();
        assert!(err.to_string().contains("missing status file"), "{err}");
        std::fs::remove_dir_all(&out_dir).ok();
    }

    /// A version-3 file has no `array_retired`: it still renders, and
    /// its sim-MIPS counts the pipeline's instructions alone.
    #[test]
    fn top_renders_a_version_3_status_file() {
        let body = "{\"source\":\"sweep\",\"label\":\"v3\",\"state\":\"done\",\
                    \"done\":1,\"total\":1,\"retired\":2000,\"sim_cycles\":3000,\
                    \"invocations\":0,\"rcache_hits\":0,\"rcache_misses\":0,\
                    \"misspeculations\":0,\"host_nanos\":1000000,\"fabric_busy_thirds\":0,\
                    \"fabric_capacity_thirds\":0,\"latency_p99_micros\":0,\"queue_depth\":0}\n";
        let text = format!(
            "{{\"type\":\"status_header\",\"magic\":\"DIMSTAT\",\"version\":3,\
             \"entries\":1,\"body_fnv64\":\"{:016x}\"}}\n{body}",
            dim_obs::fnv1a64(body.as_bytes())
        );
        let path = tmp_file("v3.dimstat", &text);
        let table = run_cli(&["top", path.to_str().unwrap()]).unwrap();
        let row = table.lines().find(|l| l.contains("v3")).expect("a row");
        // 2000 instructions in 1 ms of host time.
        assert!(row.contains(" 2.0 "), "{table}");

        // The same entry at version 4 adds the array's instructions.
        let mut status = dim_obs::status::StatusFile::parse(&text).unwrap();
        status.entries[0].array_retired = 6000;
        let path = tmp_file("v4.dimstat", &status.render());
        let table = run_cli(&["top", path.to_str().unwrap()]).unwrap();
        let row = table.lines().find(|l| l.contains("v3")).expect("a row");
        assert!(row.contains(" 8.0 "), "{table}");
    }

    fn status_file_with_state(state: &str) -> dim_obs::status::StatusFile {
        dim_obs::status::StatusFile {
            entries: vec![StatusEntry {
                source: "sweep".into(),
                label: "restart-test".into(),
                state: state.into(),
                ..Default::default()
            }],
        }
    }

    fn tiny_follow_policy(max_misses: u32) -> FollowPolicy {
        FollowPolicy {
            poll: std::time::Duration::from_millis(5),
            backoff_start: std::time::Duration::from_millis(2),
            backoff_cap: std::time::Duration::from_millis(10),
            max_misses,
        }
    }

    #[test]
    fn top_follow_survives_status_file_restart() {
        use dim_obs::status::write_status;
        let dir = std::env::temp_dir().join(format!("dim-top-restart-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(STATUS_FILE_NAME);
        write_status(&path, &status_file_with_state("running")).unwrap();

        // A producer that vanishes mid-follow (file deleted) and then
        // reappears finished — the follower must ride it out.
        let writer = {
            let path = path.clone();
            std::thread::spawn(move || {
                std::thread::sleep(std::time::Duration::from_millis(20));
                std::fs::remove_file(&path).unwrap();
                std::thread::sleep(std::time::Duration::from_millis(40));
                write_status(&path, &status_file_with_state("done")).unwrap();
            })
        };
        let mut out = Vec::new();
        run_top(&path, true, &tiny_follow_policy(100), &mut out).unwrap();
        writer.join().unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("running"), "{text}");
        assert!(text.contains("done"), "{text}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn top_follow_gives_up_after_bounded_misses() {
        let path = std::env::temp_dir().join("dim-top-never-appears/status.dimstat");
        let mut out = Vec::new();
        let err = run_top(&path, true, &tiny_follow_policy(3), &mut out).unwrap_err();
        assert!(
            err.to_string().contains("gave up after 3 attempts"),
            "{err}"
        );
    }

    #[test]
    fn serve_flags_are_validated_strictly() {
        for (args, needle) in [
            (vec!["serve"], "missing --socket"),
            (vec!["serve", "--jobs", "0"], "--jobs: must be at least 1"),
            (
                vec!["serve", "--socket", "/tmp/x.sock", "--queue", "0"],
                "--queue: must be at least 1",
            ),
            (
                vec!["serve", "--socket", "/tmp/x.sock", "--clients", "4"],
                "requires --selftest",
            ),
            (
                vec!["serve", "--selftest", "--socket", "/tmp/x.sock"],
                "does not apply to --selftest",
            ),
            (vec!["serve", "--frobnicate"], "unknown flag"),
            (vec!["submit"], "missing socket path"),
            (vec!["submit", "/tmp/x.sock"], "missing request file"),
            (
                vec!["submit", "/nonexistent/dim.sock", "/nonexistent/req.toml"],
                "no such socket",
            ),
        ] {
            let err = run_cli(&args).unwrap_err();
            assert!(err.to_string().contains(needle), "{args:?} → {err}");
        }
    }

    #[test]
    fn serve_daemon_accepts_a_submitted_request_file() {
        let dir = std::env::temp_dir().join(format!("dim-cli-serve-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let socket = dir.join("dim.sock");
        let server = {
            let socket = socket.to_str().unwrap().to_string();
            std::thread::spawn(move || run_cli(&["serve", "--socket", &socket, "--jobs", "1"]))
        };
        for _ in 0..200 {
            if socket.exists() {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        assert!(socket.exists(), "daemon socket never appeared");

        let req = tmp_file("serve-req.toml", "workload = bitcount\ncommand = accel\n");
        let report = run_cli(&["submit", socket.to_str().unwrap(), req.to_str().unwrap()]).unwrap();
        assert!(report.contains("cycles"), "{report}");

        let status_req = tmp_file("serve-status.toml", "command = status\n");
        let status = run_cli(&[
            "submit",
            socket.to_str().unwrap(),
            status_req.to_str().unwrap(),
            "--json",
        ])
        .unwrap();
        assert!(status.contains("\"completed\":1"), "{status}");

        let shutdown_req = tmp_file("serve-shutdown.toml", "command = shutdown\n");
        run_cli(&[
            "submit",
            socket.to_str().unwrap(),
            shutdown_req.to_str().unwrap(),
        ])
        .unwrap();
        let summary = server.join().unwrap().unwrap();
        assert!(
            summary.contains("drained: 1 submitted, 1 completed"),
            "{summary}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
