//! `jobbench`: the JOB benchmark of this repository.
//!
//! ```text
//! jobbench --workload <job-exec|serve-mix|ingest> --seed <n>
//!          --seconds <s> --trace <0|1>
//! jobbench compare <base.trace.json> <new.trace.json>
//! ```
//!
//! Every workload is a closed loop through the crates' public APIs; every
//! answer is checked against a reference computed outside the timed
//! region.  Untraced runs report the end-to-end metrics, traced runs the
//! per-layer metrics and a Chrome trace file under `jobbench/.out/`.  See
//! `jobbench/README.md`.

mod data;
mod ingest;
mod job;
mod layers;
mod report;
mod serve;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use report::Report;

/// The parsed command line of a run.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Seed of the inputs.
    pub seed: u64,
    /// Length of the measured window.
    pub window: Duration,
    /// Traced (per-layer) run.
    pub trace: bool,
    /// The `qob` CLI binary serve-mix starts (`JOBBENCH_QOB`, set by
    /// `run.sh`).
    pub qob: Option<PathBuf>,
}

/// Whether to time another set-up: at least three per run, then more while
/// they are cheap (until a second of set-up has been timed, at most
/// fifteen), so that `setup_s`, their median, rests on more samples when a
/// single set-up is short.
pub fn more_setups(timed: &[f64]) -> bool {
    timed.len() < 3 || (timed.len() < 15 && timed.iter().sum::<f64>() < 1.0)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("prepare") => data::prepare_main(&args[1..]).map(|()| ExitCode::SUCCESS),
        Some("compare") => compare_main(&args[1..]),
        _ => parse_args(&args).map(run),
    };
    result.unwrap_or_else(|message| {
        eprintln!("jobbench: {message}");
        ExitCode::from(2)
    })
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: String::new(),
        seed: 42,
        window: Duration::from_secs(20),
        trace: false,
        qob: std::env::var_os("JOBBENCH_QOB").map(PathBuf::from),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => parsed.workload = value.clone(),
            "--seed" => parsed.seed = value.parse().map_err(|_| "--seed takes an integer")?,
            "--seconds" => {
                let secs: f64 = value.parse().map_err(|_| "--seconds takes a number")?;
                parsed.window = Duration::from_secs_f64(secs.max(0.1));
            }
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(parsed)
}

fn run(args: Args) -> ExitCode {
    let mut report = Report::default();
    let outcome = match args.workload.as_str() {
        "job-exec" => job::run(&args, &mut report),
        "serve-mix" => serve::run(&args, &mut report),
        "ingest" => ingest::run(&args, &mut report),
        other => {
            eprintln!("jobbench: unknown workload `{other}` (job-exec, serve-mix, ingest)");
            return ExitCode::from(2);
        }
    };
    if let Err(message) = outcome {
        report.error = Some(message);
    }
    report.print(&args.workload, args.trace);
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `jobbench compare A B`: self time and counts per span name of two
/// traced runs, each with its base.
fn compare_main(args: &[String]) -> Result<ExitCode, String> {
    let [base, change] = args else {
        return Err("usage: jobbench compare <base.trace.json> <new.trace.json>".into());
    };
    let read = |path: &String| {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        jobbench::trace::from_chrome(&text).map_err(|e| format!("{path}: {e}"))
    };
    print!("{}", jobbench::trace::compare(&read(base)?, &read(change)?));
    Ok(ExitCode::SUCCESS)
}
