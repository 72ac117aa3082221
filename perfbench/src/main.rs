//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints every metric as a table, then, as the last line of standard
//! output, one JSON object with `correct`, `attempted`, `failed` and the
//! metrics: the end-to-end ones with `--trace 0`, the per-layer ones
//! with `--trace 1`. Sweep output and the span dump go to `.bench_out/`
//! in the working directory.

use dim_perfbench::metrics::{result_line, Tally};
use dim_perfbench::plan::{Plan, Workload};
use dim_perfbench::spans::Spans;
use dim_perfbench::{steady, traced};
use std::process::ExitCode;

/// Repetitions of each timed call in the traced run.
const TRACE_REPS: usize = 9;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let i = args
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        args.get(i + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let workload = value("--workload")?;
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    Ok(Args {
        workload: Workload::parse(workload)
            .ok_or(format!("unknown workload `{workload}` (one of {names:?})"))?,
        seed: value("--seed")?
            .parse()
            .map_err(|e| format!("--seed: {e}"))?,
        seconds: value("--seconds")?
            .parse::<f64>()
            .ok()
            .filter(|s| s.is_finite() && *s > 0.0)
            .ok_or("--seconds must be a positive number")?,
        trace: match value("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not `{other}`")),
        },
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let scratch = std::path::PathBuf::from(".bench_out");
    let plan = Plan::new(args.workload, args.seed, scratch.clone());
    let mut tally = Tally::default();
    let metrics = if args.trace {
        let mut spans = Spans::default();
        let metrics = traced::run(&plan, TRACE_REPS, &mut tally, &mut spans);
        let path = scratch.join(format!(
            "spans-{}-{}.jsonl",
            plan.workload.name(),
            plan.seed
        ));
        if let Err(e) = spans.write(&path) {
            eprintln!("perfbench: writing {}: {e}", path.display());
        }
        metrics
    } else {
        steady::run(&plan, args.seconds, &mut tally)
    };
    tally.check_finite(&metrics);
    for base in metrics.missing_bases() {
        tally
            .problems
            .push(format!("{base}: ratio without its base"));
    }
    for problem in &tally.problems {
        eprintln!("perfbench: {problem}");
    }
    print!("{}", metrics.table());
    println!("{}", result_line(&tally, &metrics));
    ExitCode::SUCCESS
}
