//! Micro-benchmarks for the error bounders: per-value streaming update cost,
//! per-call confidence-interval cost, and the cost of a whole per-round
//! schedule — the OptStop loop's pattern of a batch of new values, a settle
//! and an interval each round.
//!
//! These support the paper's observation (§5.4.1) that "all error bounders
//! incur additional overhead", with the Bernstein-based bounders costing the
//! most per CI recomputation — the reason FastFrame recomputes intervals only
//! once per OptStop round rather than per tuple.
//!
//! Run with `cargo bench -p fastframe-bench --bench bounders`.
//! Environment: `FASTFRAME_BENCH_RUNS` (default 1; the **median** wall time
//! across runs is reported).

use std::hint::black_box;
use std::time::{Duration, Instant};

use fastframe_bench::{bench_runs, print_header, print_row};
use fastframe_core::bounder::{BoundContext, BounderKind};
use fastframe_workloads::synthetic::SyntheticDistribution;

/// Values fed to every estimator.
const VALUES: usize = 100_000;

/// Interval computations repeat for at least this long per run (one alone
/// is too short to time); the run reports the mean per call.
const INTERVAL_WINDOW: Duration = Duration::from_millis(50);

/// Values fed through each per-round schedule.
const SCHEDULE_VALUES: usize = 1_000_000;

/// Round counts of the per-round schedules. A bounder whose round costs grow
/// with the retained sample shows it as superlinear growth along this row.
const SCHEDULE_ROUNDS: [usize; 3] = [6, 101, 1_001];

/// The median over `bench_runs()` runs of `run`, which returns one run's
/// timing.
fn median_of_runs(mut run: impl FnMut() -> Duration) -> Duration {
    let mut walls: Vec<Duration> = (0..bench_runs()).map(|_| run()).collect();
    walls.sort();
    walls[walls.len() / 2]
}

/// One run of the per-round schedule: `values` split into `rounds` nearly
/// equal batches, each fed with `observe_batch`, then a `settle` and an
/// `interval`, as the engine does for one view per OptStop round.
fn schedule(kind: BounderKind, values: &[f64], rounds: usize, ctx: &BoundContext) -> Duration {
    let start = Instant::now();
    let mut est = kind.make_estimator();
    for round in 0..rounds {
        let batch = &values[round * values.len() / rounds..(round + 1) * values.len() / rounds];
        est.observe_batch(black_box(batch));
        est.settle();
        black_box(est.interval(black_box(ctx)));
    }
    start.elapsed()
}

fn main() {
    let (a, b) = SyntheticDistribution::HeavyTail.support();
    let ctx = BoundContext::new(a, b, 10_000_000, 1e-15).expect("valid context");
    let update_values = SyntheticDistribution::HeavyTail.generate(VALUES, 42);
    let interval_values = SyntheticDistribution::HeavyTail.generate(VALUES, 7);

    println!(
        "## bounders — {VALUES} heavy-tailed values, median of {} run(s)",
        bench_runs()
    );
    print_header(&["bounder", "update_state", "ns/value", "us/interval"]);
    for kind in BounderKind::ALL {
        let update = median_of_runs(|| {
            let start = Instant::now();
            let mut est = kind.make_estimator();
            for &v in &update_values {
                est.observe(black_box(v));
            }
            black_box(est.count());
            start.elapsed()
        });
        // Pre-populate and settle an estimator once, as the engine does at
        // a round boundary; time only the CI computation.
        let mut est = kind.make_estimator();
        for &v in &interval_values {
            est.observe(v);
        }
        est.settle();
        let interval = median_of_runs(|| {
            let start = Instant::now();
            let mut calls = 0u32;
            // Read the clock once per batch of calls, so its own cost stays
            // out of the per-call figure.
            while start.elapsed() < INTERVAL_WINDOW {
                for _ in 0..16 {
                    black_box(est.interval(black_box(&ctx)));
                }
                calls += 16;
            }
            start.elapsed() / calls
        });
        print_row(&[
            kind.label().to_string(),
            format!("{:.3}ms", update.as_secs_f64() * 1e3),
            format!("{:.2}", update.as_nanos() as f64 / VALUES as f64),
            format!("{:.3}", interval.as_nanos() as f64 / 1e3),
        ]);
    }

    let schedule_values = SyntheticDistribution::HeavyTail.generate(SCHEDULE_VALUES, 11);
    println!(
        "\n## bounders per round — {SCHEDULE_VALUES} values, observe_batch + settle + interval \
         per round, median of {} run(s)",
        bench_runs()
    );
    let mut header = vec!["bounder".to_string()];
    header.extend(SCHEDULE_ROUNDS.iter().map(|r| format!("{r} rounds")));
    print_header(&header.iter().map(String::as_str).collect::<Vec<_>>());
    for kind in BounderKind::ALL {
        let mut row = vec![kind.label().to_string()];
        for rounds in SCHEDULE_ROUNDS {
            let wall = median_of_runs(|| schedule(kind, &schedule_values, rounds, &ctx));
            row.push(format!("{:.3}s", wall.as_secs_f64()));
        }
        print_row(&row);
    }
}
