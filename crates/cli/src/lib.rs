//! # dim-cli
//!
//! Library backing the `dim` command-line tool: assemble, disassemble,
//! run and transparently accelerate MIPS programs from the shell.
//!
//! ```
//! let mut out = Vec::new();
//! dim_cli::dispatch(&["help".into()], &mut out)?;
//! assert!(String::from_utf8(out)?.contains("usage"));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! Each command group lives in its own module and reads its arguments
//! from one strict parse (`Flags`, in `flags.rs`).

#![warn(missing_docs)]

mod accel;
mod batch;
mod debugger;
mod flags;
mod heat;
mod lint;
mod perf;
mod program;
mod spans;
mod trace;

pub use debugger::debug_session;

use std::fmt;
use std::io::{self, Write};

/// CLI failure: carries the message shown to the user and, when an I/O
/// error is passed on as it is, that error's kind.
#[derive(Debug)]
pub struct CliError {
    msg: String,
    kind: Option<io::ErrorKind>,
}

impl CliError {
    fn new(msg: impl Into<String>) -> CliError {
        CliError {
            msg: msg.into(),
            kind: None,
        }
    }

    /// A `map_err` adapter naming what failed: `{what}: {error}`.
    fn at<E: fmt::Display>(what: impl fmt::Display) -> impl FnOnce(E) -> CliError {
        move |e| CliError::new(format!("{what}: {e}"))
    }

    /// The kind of the I/O error this failure passes on, if any.
    /// `BrokenPipe` means the reader of the output went away.
    pub fn io_kind(&self) -> Option<io::ErrorKind> {
        self.kind
    }
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.msg)
    }
}

impl std::error::Error for CliError {}

impl From<io::Error> for CliError {
    fn from(e: io::Error) -> Self {
        CliError {
            msg: e.to_string(),
            kind: Some(e.kind()),
        }
    }
}

/// Errors whose own message is the one shown to the user.
macro_rules! shown_as_is {
    ($($error:ty),*) => {$(
        impl From<$error> for CliError {
            fn from(e: $error) -> Self {
                CliError::new(e.to_string())
            }
        }
    )*};
}

shown_as_is!(
    dim_mips_sim::SimError,
    dim_sweep::SweepError,
    dim_perf::PerfError,
    dim_serve::ServeError,
    dim_serve::ClientError
);

const USAGE: &str = "\
usage: dim <command> [options]

commands:
  asm    <in.s> [-o <out.dimg>]      assemble to a program image
  disasm <file>                      disassemble an image or source file
  run    <file> [--max-steps N] [--profile] [--caches] [--trace-out <t.jsonl>]
                                     run on the plain MIPS simulator
  accel  <file> [--config 1|2|3|ideal] [--slots N] [--no-spec] [--compare]
                [--dump-configs] [--trace] [--trace-out <t.jsonl>] [--metrics]
                [--rcache-save <f.dimrc>] [--rcache-load <f.dimrc>]
                [--flight N] [--watchdog] [--flight-out <f.jsonl>]
                [--certs <f.jsonl>]
                                     run with the DIM accelerator attached;
                                     rcache snapshots warm-start later runs;
                                     --flight keeps a last-N-events ring,
                                     --watchdog checks stream invariants live
                                     and fails (with a flight dump) on a trip,
                                     --flight-out always dumps the window,
                                     --certs installs `dim prove` streaming
                                     certificates so matching commits tag
                                     their rcache entries stream_ok(K)
  profile <file> [--config 1|2|3|ideal] [--slots N] [--no-spec] [--caches]
                 [--top N] [--json] [--max-steps N]
                                     per-block cycle attribution of an
                                     accelerated run
  trace  <t.jsonl> [--stats]         validate a trace and print its summary
                                     (--stats adds per-kind record counts and,
                                     for flight dumps, per-kind drop totals)
  heat   <t.jsonl | file> [--json] [--rows N] [--chrome-out <f.json>]
                [--config 1|2|3|ideal] [--slots N] [--no-spec] [--max-steps N]
                                     per-unit fabric utilization heatmap: from a
                                     schema-v4 trace (aggregate + traversal
                                     depth profile, Chrome counter export) or by
                                     running a workload (exact per-row per-class
                                     occupancy, reconciled against the cycle
                                     breakdown)
  explain <t.jsonl> [--top N] [--json] [--chrome-out <f.json>]
                    [--folded-out <f.folded>]
                                     region-level acceleration forensics over a
                                     trace: lifecycle table, missed-speedup
                                     ranking, Chrome-trace timeline and
                                     collapsed-stack flamegraph exports
  compare <file> [--max-steps N]     cycles on scalar / 2-wide superscalar /
                                     DIM configs #1..#3 side by side
  suite  [--scale tiny|small|full]   run + validate the MiBench-like suite
  sweep  <spec> [--jobs N] [--out <dir>] [--limit N] [--warm on|off]
                [--explain] [--flight N] [--telemetry-interval N]
                                     expand a sweep spec and run the grid on a
                                     work-stealing pool (resumable; see
                                     docs/sweeps.md for the spec format); live
                                     status lands in <dir>/status.dimstat and
                                     failing cells dump their flight window to
                                     <dir>/flight/ (--flight 0 disables)
  top    <dir-or-status-file> [--follow]
                                     render the live telemetry published by a
                                     running sweep or accel: per-worker state,
                                     progress, rcache hit rate, sim-MIPS, and —
                                     for serving daemons — p99 request latency
                                     and queue depth
                                     (--follow polls until the run finishes)
  perf   record --out <f.json> [--name N] [--workloads a,b,c] [--scale S]
                [--shape 1|2|3] [--slots N] [--no-spec] [--reps N]
                                     run the workload matrix and write a
                                     versioned performance baseline
  perf   compare <base> <current> [--json]
                                     diff two baselines metric by metric with
                                     a cycle-attribution waterfall
  perf   gate --baseline <f.json> [--current <f.json>]
              [--tolerance-spec <f.toml>] [--json]
                                     re-record (or load --current) and fail on
                                     regressions beyond per-metric tolerances
  lint   <file> [--allow C1,C2] [--json] [--candidates] [--config 1|2|3]
                                     static CFG/dataflow analysis of a workload
                                     binary; --candidates adds the static set
                                     of DIM-accelerable regions
  lint   --suite [--scale tiny|small|full] [--json]
                                     lint all bundled workloads with their
                                     per-workload allowlists applied
  verify <f.dimrc> [--json]          structurally verify every configuration
                                     in an rcache snapshot
  prove  <file> [--json] [--cert-out <f.jsonl>]
                                     static stride/alias prover: classify every
                                     memory access of every self-loop, run the
                                     cross-iteration alias test, and emit
                                     streaming-eligibility certificates for
                                     regions that pass
  prove  --suite [--scale tiny|small|full] [--json] [--cert-out <f.jsonl>]
                                     prove all bundled workloads
  prove  --check <f.jsonl>           re-validate a certificate file (version,
                                     checksum, structural invariants)
  serve  --socket <path> [--jobs N] [--queue N] [--tenant-quota N]
         [--shard-dir <dir>] [--status-dir <dir>] [--flight N]
         [--telemetry-interval N]
                                     persistent acceleration daemon on a Unix
                                     socket: bounded request queue with busy
                                     backpressure, per-tenant quotas, and
                                     shared verifier-gated warm rcache shards
                                     that warm-start from and drain to
                                     <shard-dir>/*.dimrc; live telemetry in
                                     <status-dir>/status.dimstat (dim top) and
                                     a wall-clock span dump in
                                     <status-dir>/spans.dimspan at drain
                                     (dim spans)
  serve  --selftest [--jobs N] [--clients N] [--requests N] [--bench-out <dir>]
                                     in-process load generator against a real
                                     daemon: cold-vs-warm ramp, latency
                                     percentiles, and span-derived stage
                                     breakdowns -> BENCH_serve.json (the span
                                     dump lands beside it)
  submit <socket> <request.file> [--json]
                                     send one request file to a running daemon
                                     and print the reply (see docs/serving.md)
  spans  <spans.dimspan> [--json] [--chrome-out <f.json>]
                                     analyze a wall-clock span dump from serve
                                     or sweep: per-stage latency percentiles,
                                     per-tenant aggregation, the slowest
                                     request's waterfall + critical path, and
                                     engine host-time attribution; exits
                                     non-zero on span-law violations
  debug  <file> [--script <cmds>]    scriptable debugger (stdin by default)
  help                               show this text

<file> may be assembly source (.s) or a `dim asm` image (.dimg).
";

/// Runs one CLI invocation. `args` excludes the binary name.
///
/// # Errors
///
/// [`CliError`] with the user-facing message.
pub fn dispatch(args: &[String], out: &mut impl Write) -> Result<(), CliError> {
    let rest = args.get(1..).unwrap_or_default();
    match args.first().map(String::as_str) {
        Some("asm") => program::cmd_asm(rest, out),
        Some("disasm") => program::cmd_disasm(rest, out),
        Some("run") => program::cmd_run(rest, out),
        Some("accel") => accel::cmd_accel(rest, out),
        Some("profile") => accel::cmd_profile(rest, out),
        Some("trace") => trace::cmd_trace(rest, out),
        Some("heat") => heat::cmd_heat(rest, out),
        Some("top") => batch::cmd_top(rest, out),
        Some("explain") => trace::cmd_explain(rest, out),
        Some("suite") => program::cmd_suite(rest, out),
        Some("sweep") => batch::cmd_sweep(rest, out),
        Some("perf") => perf::cmd_perf(rest, out),
        Some("lint") => lint::cmd_lint(rest, out),
        Some("verify") => lint::cmd_verify(rest, out),
        Some("prove") => lint::cmd_prove(rest, out),
        Some("serve") => batch::cmd_serve(rest, out),
        Some("spans") => spans::cmd_spans(rest, out),
        Some("submit") => batch::cmd_submit(rest, out),
        Some("debug") => program::cmd_debug(rest, out),
        Some("compare") => program::cmd_compare(rest, out),
        Some("help") | None => {
            flags::Flags::parse("help", rest, "", 0)?;
            write!(out, "{USAGE}")?;
            Ok(())
        }
        Some(other) => Err(CliError::new(format!("unknown command `{other}`\n{USAGE}"))),
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::path::Path;

    pub(crate) fn tmp_file(name: &str, contents: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("dim-cli-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        std::fs::write(&path, contents).unwrap();
        path
    }

    pub(crate) const PROGRAM: &str = "
        main: li $s0, 40
              li $v0, 0
        loop: addu $v0, $v0, $s0
              xor  $t0, $v0, $s0
              addu $v0, $v0, $t0
              addiu $s0, $s0, -1
              bnez $s0, loop
              li  $a0, 1
              li  $v0, 11
              syscall
              break 0";

    pub(crate) fn run_cli(args: &[&str]) -> Result<String, CliError> {
        let args: Vec<String> = args.iter().map(std::string::ToString::to_string).collect();
        let mut out = Vec::new();
        dispatch(&args, &mut out)?;
        Ok(String::from_utf8(out).unwrap())
    }

    /// A counted byte-scan loop: one affine load, no stores — prime
    /// streaming-certificate material.
    pub(crate) const STREAM_PROGRAM: &str = "
        main: li $s0, 64
              li $s1, 0x2000
        loop: lbu $t0, 0($s1)
              addu $v0, $v0, $t0
              addiu $s1, $s1, 1
              addiu $s0, $s0, -1
              bnez $s0, loop
              break 0";

    /// Writes a two-request span dump driven by a fake clock, so every
    /// expected duration below is exact.
    pub(crate) fn fake_span_dump(name: &str) -> std::path::PathBuf {
        use dim_obs::{FakeClock, SharedClock, SpanSheet};
        let clock = FakeClock::shared(1_000);
        let sheet = SpanSheet::new(std::sync::Arc::clone(&clock) as SharedClock, 16);
        for (seq, tenant) in [(1u64, "alpha"), (2u64, "beta")] {
            let root = sheet.begin_root("request", tenant, seq);
            let queue = sheet.begin("queue_wait", root);
            clock.advance(2_000);
            sheet.end(queue);
            let exec = sheet.begin("exec", root);
            clock.advance(seq * 10_000);
            sheet.end(exec);
            sheet.end(root);
        }
        tmp_file(name, &sheet.render())
    }

    #[test]
    fn help_prints_usage() {
        assert!(run_cli(&["help"]).unwrap().contains("usage"));
        assert!(run_cli(&[]).unwrap().contains("usage"));
    }

    #[test]
    fn unknown_command_errors() {
        assert!(run_cli(&["frobnicate"]).is_err());
    }

    /// A command's own flag is never taken as another flag's value.
    #[test]
    fn a_flag_is_not_another_flags_value() {
        let src = tmp_file("t14.s", PROGRAM);
        let path = src.to_str().unwrap();
        let err = run_cli(&["accel", path, "--trace-out", "--metrics"]).unwrap_err();
        assert_eq!(err.to_string(), "--trace-out requires a value");
        assert!(!Path::new("--metrics").exists());
        let err = run_cli(&["accel", path, "--slots", "--config", "2"]).unwrap_err();
        assert_eq!(err.to_string(), "--slots requires a value");
        let err = run_cli(&["lint", "--allow", "--json", path]).unwrap_err();
        assert_eq!(err.to_string(), "--allow requires a value");
    }

    /// Every command with one input reads it from the positionals, so a
    /// flag before the input and a flag's value are never read as it.
    #[test]
    fn single_input_commands_take_flags_on_either_side() {
        let dir = std::env::temp_dir().join("dim-cli-tests/t15");
        std::fs::create_dir_all(&dir).unwrap();
        let at = |name: &str| dir.join(name).to_str().unwrap().to_string();
        let src = tmp_file("t15/prog.s", PROGRAM);
        let src = src.to_str().unwrap();
        let (trace, snapshot, sweep_out) = (at("t.jsonl"), at("s.dimrc"), at("sweep"));
        run_cli(&[
            "accel",
            src,
            "--trace-out",
            &trace,
            "--rcache-save",
            &snapshot,
        ])
        .unwrap();
        let script = tmp_file("t15/script", "step 3\nregs\n");
        let spec = tmp_file(
            "t15/grid.spec",
            "workloads = crc32\nscale = tiny\nshapes = 1\nslots = 16\nspeculation = on\n",
        );
        let spans = fake_span_dump("t15.dimspan");
        let status_dir = at("status");
        run_cli(&["sweep", spec.to_str().unwrap(), "--out", &status_dir]).unwrap();
        let cases: [(&str, &str, &[&str]); 15] = [
            ("asm", src, &["-o", &at("prog.dimg")]),
            ("run", src, &["--caches"]),
            ("accel", src, &["--no-spec"]),
            ("profile", src, &["--top", "3"]),
            ("trace", &trace, &["--stats"]),
            ("heat", src, &["--config", "2"]),
            ("explain", &trace, &["--top", "3"]),
            ("compare", src, &["--max-steps", "100000"]),
            ("lint", src, &["--allow", "W001"]),
            ("verify", &snapshot, &["--json"]),
            ("prove", src, &["--cert-out", &at("c.jsonl")]),
            ("debug", src, &["--script", script.to_str().unwrap()]),
            ("spans", spans.to_str().unwrap(), &["--json"]),
            ("sweep", spec.to_str().unwrap(), &["--out", &sweep_out]),
            ("top", &status_dir, &["--follow"]),
        ];
        for (cmd, input, flags) in cases {
            let outputs = [true, false].map(|flags_first| {
                std::fs::remove_dir_all(&sweep_out).ok();
                let mut args = vec![cmd];
                if flags_first {
                    args.extend_from_slice(flags);
                    args.push(input);
                } else {
                    args.push(input);
                    args.extend_from_slice(flags);
                }
                let out = run_cli(&args).unwrap_or_else(|e| panic!("{args:?}: {e}"));
                // A sweep's summary line carries its wall time.
                out.lines()
                    .filter(|l| !l.starts_with("sweep:"))
                    .collect::<Vec<_>>()
                    .join("\n")
            });
            assert_eq!(outputs[0], outputs[1], "{cmd} {flags:?}");
            assert!(!outputs[0].is_empty(), "{cmd}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn every_command_rejects_an_unknown_flag() {
        let commands = [
            "asm",
            "disasm",
            "run",
            "accel",
            "profile",
            "trace",
            "heat",
            "explain",
            "compare",
            "suite",
            "sweep",
            "top",
            "perf record",
            "perf compare",
            "perf gate",
            "lint",
            "verify",
            "prove",
            "serve",
            "submit",
            "spans",
            "debug",
            "help",
        ];
        // The list covers every command the usage text documents.
        for line in USAGE.lines() {
            if let Some(name) = line.strip_prefix("  ").and_then(|l| l.split(' ').next()) {
                assert!(
                    name.is_empty() || commands.iter().any(|c| c.split(' ').next() == Some(name)),
                    "`{name}` is missing from the list"
                );
            }
        }
        for command in commands {
            let mut args: Vec<&str> = command.split(' ').collect();
            args.push("--bogus");
            let err = run_cli(&args).expect_err(command);
            assert!(
                err.to_string().contains("unknown flag `--bogus`"),
                "{command}: {err}"
            );
        }
        // `--bench-out` belongs to `serve --selftest` alone, and
        // `--telemetry-interval` to `sweep` and `serve`.
        for (command, flag) in [
            ("sweep", "--bench-out"),
            ("perf record", "--bench-out"),
            ("run", "--telemetry-interval"),
            ("accel", "--telemetry-interval"),
        ] {
            let mut args: Vec<&str> = command.split(' ').collect();
            args.extend([flag, "1"]);
            let err = run_cli(&args).expect_err(command);
            assert!(
                err.to_string().contains(&format!("unknown flag `{flag}`")),
                "{command}: {err}"
            );
        }
    }

    /// Output whose reader has gone away, as a pipe into `head` is once
    /// `head` exits.
    struct ClosedPipe;

    impl Write for ClosedPipe {
        fn write(&mut self, _: &[u8]) -> io::Result<usize> {
            Err(io::ErrorKind::BrokenPipe.into())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// A closed output reaches `main` as `BrokenPipe`, which it treats
    /// as success; other failures carry no I/O kind.
    #[test]
    fn a_closed_output_fails_with_broken_pipe() {
        let src = tmp_file("t62.s", PROGRAM);
        let src = src.to_str().unwrap();
        for args in [
            vec!["help"],
            vec!["disasm", src],
            vec!["accel", src, "--slots", "1", "--trace"],
        ] {
            let args: Vec<String> = args.iter().map(std::string::ToString::to_string).collect();
            let err = dispatch(&args, &mut ClosedPipe).expect_err("nothing can be written");
            assert_eq!(
                err.io_kind(),
                Some(io::ErrorKind::BrokenPipe),
                "{args:?}: {err}"
            );
        }
        let err = run_cli(&["disasm", "no-such-file.s"]).unwrap_err();
        assert_eq!(err.io_kind(), None, "{err}");
        assert_eq!(run_cli(&["frobnicate"]).unwrap_err().io_kind(), None);
    }
}
