//! The dwcp benchmark: three user scenarios, each one workload.
//!
//! * `estate-hes` — the nightly estate relearn: a generated HES-daily
//!   estate scanned cold into a fresh sharded repository, then again an
//!   hour later when every job reuses its stored champion.
//! * `paper-auto` — the paper's per-database pipeline: `Pipeline::run`
//!   with `--method auto` on every hourly metric × instance series of
//!   Experiments One (OLAP) and Two (OLTP).
//! * `serve-storm` — the resident daemon under an open-loop push/read mix,
//!   a steady phase of frozen re-scores, then a storm in which every
//!   tenant crosses the one-week staleness age in the same round.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload estate-hes --seed 1 --seconds 40 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. With `--trace 0` the metrics are
//! every end-to-end metric, measured untraced;
//! with `--trace 1` they are every per-layer metric (layers the workload
//! bypasses read 0), from a separate traced run whose spans are written to
//! `.perfbench/trace-<workload>-<seed>.jsonl`. An output check that fails
//! makes the run exit with code 1.

mod estate;
mod paper;
mod report;
mod serve_storm;
mod stats;
mod trace;

use report::Outcome;
use std::path::PathBuf;
use std::time::Instant;

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// Worker threads, client threads and connections each stay at the
/// `nproc` of the 2-vCPU machine the benchmark is tuned on.
pub const THREADS: usize = 2;

/// Scratch space inside the working directory for repositories and
/// trace files; removed (apart from traces) when the run ends.
pub fn scratch_dir() -> PathBuf {
    PathBuf::from(".perfbench")
}

/// Pause between identical set-up repetitions, so that their samples
/// spread over a few seconds of the host's changing pace.
pub const SETUP_GAP: std::time::Duration = std::time::Duration::from_millis(40);

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed must be an integer")?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| "--seconds must be a number")?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".to_string()),
                })
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(40.0f64).max(1.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("error: {message}");
            eprintln!(
                "usage: perfbench --workload estate-hes|paper-auto|serve-storm \
                 --seed N --seconds S --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    let started = Instant::now();
    let result: Result<Outcome, Box<dyn std::error::Error>> = match args.workload.as_str() {
        "estate-hes" => estate::run(&args),
        "paper-auto" => paper::run(&args),
        "serve-storm" => serve_storm::run(&args),
        other => Err(format!("unknown workload {other}").into()),
    };
    let _ = std::fs::remove_dir_all(scratch_dir().join("tmp"));
    let mut outcome = match result {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };
    outcome.set("peak_rss_mb", report::peak_rss_mb());
    eprintln!(
        "{} seed {} ({}): {:.1}s wall",
        args.workload,
        args.seed,
        if args.trace { "traced" } else { "untraced" },
        started.elapsed().as_secs_f64()
    );
    match report::result_line(&outcome, args.trace) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
    if !outcome.problems.is_empty() || outcome.failed > 0 {
        std::process::exit(1);
    }
}
