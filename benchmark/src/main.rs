//! Command-line entry point of the FastFrame benchmark.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     [--workload flights_mem|flights_seg|progressive_fine] [--seed N] \
//!     [--seconds S] [--trace 0|1] [--rows N]
//! ```
//!
//! Without `--workload`, all three workloads run in this one process with
//! the same seed, and the `flights_mem` and `flights_seg` answers are
//! compared bit for bit. Human-readable lines come first; the last line of
//! standard output is one JSON object with `correct`, `attempted`, `failed`
//! and `metrics` (end-to-end metrics, or per-layer metrics with
//! `--trace 1`). Run records, digests and spans go to `.bench_out/` under
//! the working directory.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use fastframe_benchmark::gate;
use fastframe_benchmark::report::{self, Env};
use fastframe_benchmark::run::{self, Outcome, Tables};
use fastframe_benchmark::workload::{Workload, DEFAULT_ROWS};

const OUT_DIR: &str = ".bench_out";

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    rows: usize,
    write_segment: Option<PathBuf>,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 1,
        seconds: 40.0,
        trace: false,
        rows: DEFAULT_ROWS,
        write_segment: None,
    };
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => {
                parsed.workload =
                    Some(Workload::parse(&value).ok_or_else(|| bad(&"unknown workload"))?)
            }
            "--seed" => parsed.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                parsed.seconds = value.parse().map_err(|e| bad(&e))?;
                if !(parsed.seconds > 0.0 && parsed.seconds <= 600.0) {
                    return Err(bad(&"must lie in (0, 600]"));
                }
            }
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                }
            }
            "--rows" => {
                parsed.rows = value.parse().map_err(|e| bad(&e))?;
                // Smaller tables fit in one 40 000-row round, leaving no
                // gaps between snapshots to measure.
                if parsed.rows < 100_000 {
                    return Err(bad(&"must be at least 100000"));
                }
            }
            "--write-segment" => parsed.write_segment = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(parsed)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: fastframe-benchmark [--workload NAME] [--seed N] [--seconds S] \
                 [--trace 0|1] [--rows N]"
            );
            return ExitCode::from(2);
        }
    };
    if let Some(path) = &args.write_segment {
        return match run::write_segment_file(path, args.rows) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    // The variable selects the scalar oracle path of the engine; a run
    // under it would measure the oracle, not the production path.
    if std::env::var_os("FASTFRAME_VECTORIZE").is_some() {
        eprintln!("error: FASTFRAME_VECTORIZE is set; unset it to benchmark the production path");
        return ExitCode::from(2);
    }
    match bench(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs the requested workloads and returns the final JSON line.
fn bench(args: &Args) -> Result<String, String> {
    let out_dir = Path::new(OUT_DIR);
    std::fs::create_dir_all(out_dir).map_err(|e| format!("creating {OUT_DIR}: {e}"))?;
    let env = Env::detect(
        Path::new("."),
        args.rows,
        args.seed,
        args.seconds,
        args.trace,
    );
    let workloads = args.workload.map_or(Workload::ALL.to_vec(), |w| vec![w]);
    let mut tables = Tables::new(args.rows, out_dir);
    let mut outcomes = Vec::new();
    for workload in workloads {
        let outcome = run::run(workload, &mut tables, args.seed, args.seconds, args.trace)
            .map_err(|e| format!("{}: {e}", workload.name()))?;
        report::print_outcome(&env, &outcome);
        report::write_files(out_dir, &env, &outcome)
            .map_err(|e| format!("writing the run record: {e}"))?;
        outcomes.push(outcome);
    }
    drop(tables);

    let backings_agree = compare_backings(out_dir, &env, &outcomes);
    let correct = backings_agree && outcomes.iter().all(|o| o.failed == 0);
    let attempted = outcomes.iter().map(|o| o.attempted).sum();
    let failed = outcomes.iter().map(|o| o.failed).sum();
    let single = outcomes.len() == 1;
    let metrics: Vec<_> = outcomes
        .iter()
        .flat_map(|o| {
            o.metrics.iter().map(move |m| {
                let name = if single {
                    m.name.to_string()
                } else {
                    format!("{}.{}", o.workload.name(), m.name)
                };
                (name, m)
            })
        })
        .collect();
    Ok(report::result_line(correct, attempted, failed, &metrics))
}

/// Checks that `flights_mem` and `flights_seg` gave bit-identical answers
/// to the same stream: within this process when both ran, otherwise
/// against the other workload's digests from an earlier run with the same
/// seed and table size, when there is one.
fn compare_backings(out_dir: &Path, env: &Env, outcomes: &[Outcome]) -> bool {
    let digests = |w: Workload| -> Option<Vec<u64>> {
        match outcomes.iter().find(|o| o.workload == w) {
            Some(o) => Some(o.digests.clone()),
            None => report::read_digests(&out_dir.join(report::digests_file(w.name(), env))),
        }
    };
    let ran = |w: Workload| outcomes.iter().any(|o| o.workload == w);
    if !ran(Workload::FlightsMem) && !ran(Workload::FlightsSeg) {
        return true;
    }
    match (digests(Workload::FlightsMem), digests(Workload::FlightsSeg)) {
        (Some(mem), Some(seg)) => match gate::compare_prefix(&mem, &seg) {
            Ok(n) => {
                println!("# flights_mem and flights_seg answers agree on {n} queries");
                true
            }
            Err(e) => {
                println!("# flights_mem and flights_seg answers differ: {e}");
                false
            }
        },
        _ => true,
    }
}
