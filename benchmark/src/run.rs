//! One benchmark run: set up the table, drive the workload's query stream
//! from a single closed-loop client for the requested time, check every
//! answer, and summarize the metrics.
//!
//! An untraced run uses only the public `Session` surface and reports the
//! end-to-end metrics. A traced run executes each query twice, untraced and
//! traced, in alternating order: the traced execution goes through
//! [`TimedSource`] and `execute_progressive` and yields the per-layer
//! metrics, and the difference between the two answer times is the tracing
//! overhead.

use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use fastframe_core::bounder::BounderKind;
use fastframe_engine::executor::execute_progressive;
use fastframe_engine::progressive::{Budget, ProgressiveResult, RoundControl, Snapshot};
use fastframe_engine::result::QueryResult;
use fastframe_engine::session::Session;
use fastframe_store::persist::{write_segment, SegmentReader};
use fastframe_workloads::flights::{columns, FlightsDataset};

use crate::gate;
use crate::stats::{geometric_mean, median, Summary, TAIL_BEYOND};
use crate::trace::{Replay, StoreAccount, TimedSource};
use crate::workload::{
    airports_by_popularity, flights_config, QueryStream, StreamQuery, Workload, DELTA, TABLE,
};

/// Set-up repetitions per run; set-up metrics report their median.
const SETUP_REPS: usize = 7;
/// Cycles every run completes, so that at least ten of its 45 queries lie
/// beyond the [`QUERY_TAIL`] percentile.
const MIN_CYCLES: usize = 5;
/// Tail percentile of per-query timings. Fixed rather than derived from the
/// sample count, so a run that completes more cycles reports the same
/// percentile.
const QUERY_TAIL: f64 = 75.0;
/// Failure messages kept for the report.
const FAILURES_SHOWN: usize = 5;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
    /// How the value was obtained (sample count, tail percentile).
    pub detail: String,
}

impl Metric {
    fn new(name: &'static str, unit: &'static str, value: f64, detail: impl Into<String>) -> Self {
        Self {
            name,
            unit,
            value,
            detail: detail.into(),
        }
    }
}

/// The outcome of one workload run.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// The workload run.
    pub workload: Workload,
    /// Approximate queries attempted.
    pub attempted: u64,
    /// Queries that errored, missed the exact answer, or failed the trace
    /// accounting.
    pub failed: u64,
    /// The first failure messages.
    pub failures: Vec<String>,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
    pub metrics: Vec<Metric>,
    /// Metrics printed and recorded with the run but left out of its result
    /// line: the absolute timings. On a shared host they move with the
    /// host's speed, which drifts by up to 1.8 times over minutes, more
    /// than any regression bound could allow.
    pub reported_only: Vec<Metric>,
    /// Per-query result digests, in stream order (0 for a query that
    /// errored).
    pub digests: Vec<u64>,
    /// Trace spans as JSON lines (traced run only).
    pub spans: Vec<String>,
    /// Breakdowns printed with the report.
    pub notes: Vec<String>,
}

impl Outcome {
    fn fail(&mut self, index: usize, template: &str, message: impl std::fmt::Display) {
        self.failed += 1;
        if self.failures.len() < FAILURES_SHOWN {
            self.failures
                .push(format!("query {index} ({template}): {message}"));
        }
    }
}

/// The benchmark tables, built on first use and shared across the
/// workloads of one process.
pub struct Tables {
    rows: usize,
    out_dir: PathBuf,
    memory: Option<FlightsDataset>,
    segment: Option<SegmentFile>,
}

impl Tables {
    /// Tables of `rows` rows; scratch files go to `out_dir`.
    pub fn new(rows: usize, out_dir: &Path) -> Self {
        Self {
            rows,
            out_dir: out_dir.to_path_buf(),
            memory: None,
            segment: None,
        }
    }

    fn memory(&mut self) -> Result<&FlightsDataset, String> {
        if self.memory.is_none() {
            let dataset = FlightsDataset::generate(flights_config(self.rows))
                .map_err(|e| format!("generating the Flights table: {e}"))?;
            self.memory = Some(dataset);
        }
        Ok(self.memory.as_ref().expect("generated above"))
    }

    fn segment(&mut self) -> Result<&SegmentFile, String> {
        if self.segment.is_none() {
            self.segment = Some(SegmentFile::create(&self.out_dir, self.rows)?);
        }
        Ok(self.segment.as_ref().expect("created above"))
    }
}

/// A scramble segment written by a child process, removed on drop.
///
/// The child generates the table, builds its scramble and saves it, so this
/// process never holds the table in memory and its peak RSS is that of a
/// segment-serving session.
struct SegmentFile {
    path: PathBuf,
    build_ms: f64,
}

impl SegmentFile {
    fn create(dir: &Path, rows: usize) -> Result<Self, String> {
        let path = dir.join(format!("flights-{rows}-{}.seg", std::process::id()));
        let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark: {e}"))?;
        let output = std::process::Command::new(exe)
            .arg("--write-segment")
            .arg(&path)
            .arg("--rows")
            .arg(rows.to_string())
            .stderr(std::process::Stdio::inherit())
            .output()
            .map_err(|e| format!("starting the segment writer: {e}"))?;
        // Own the file from here on, so it is removed whatever happens next.
        let mut file = Self {
            path,
            build_ms: f64::NAN,
        };
        if !output.status.success() {
            return Err(format!("segment writer failed: {}", output.status));
        }
        let stdout = String::from_utf8_lossy(&output.stdout);
        file.build_ms = stdout
            .lines()
            .find_map(|l| l.strip_prefix("scramble_build_ms "))
            .and_then(|v| v.trim().parse().ok())
            .ok_or_else(|| format!("segment writer printed no build time: {stdout:?}"))?;
        Ok(file)
    }
}

impl Drop for SegmentFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// The child side of [`SegmentFile::create`]: generates the table, builds
/// its scramble, writes it to `path`, and prints the build time.
///
/// # Errors
///
/// Generation, scramble or write errors.
pub fn write_segment_file(path: &Path, rows: usize) -> Result<(), String> {
    let dataset = FlightsDataset::generate(flights_config(rows))
        .map_err(|e| format!("generating the Flights table: {e}"))?;
    let start = Instant::now();
    let scramble = dataset
        .scramble()
        .map_err(|e| format!("building the scramble: {e}"))?;
    let build_ms = ms(start.elapsed());
    write_segment(&scramble, path).map_err(|e| format!("writing the segment: {e}"))?;
    println!("scramble_build_ms {build_ms}");
    Ok(())
}

/// Runs whole cycles of `workload`'s stream for `seed` until its
/// approximate queries have taken `seconds` seconds.
///
/// # Errors
///
/// Set-up failures, which leave nothing to measure. Failures of single
/// queries are counted in the [`Outcome`] instead.
pub fn run(
    workload: Workload,
    tables: &mut Tables,
    seed: u64,
    seconds: f64,
    traced: bool,
) -> Result<Outcome, String> {
    let (session, setup) = set_up(workload, tables, traced)?;
    let airports =
        airports_by_popularity().map_err(|e| format!("listing the Flights airports: {e}"))?;
    let mut outcome = Outcome {
        workload,
        attempted: 0,
        failed: 0,
        failures: Vec::new(),
        metrics: Vec::new(),
        reported_only: Vec::new(),
        digests: Vec::new(),
        spans: Vec::new(),
        notes: Vec::new(),
    };
    let mut stream = QueryStream::new(workload, seed, airports);
    let mut client = Client {
        session: &session,
        budget: workload.budget(),
        cache_exact: workload.segment_backed(),
        exact: HashMap::new(),
        exact_ms: Vec::new(),
        cycle: 0,
    };
    let start = Instant::now();
    if traced {
        let source = session.source(TABLE).map_err(|e| e.to_string())?;
        let replay = Replay::from_source(source, columns::DEP_DELAY)
            .map_err(|e| format!("building the replay pool: {e}"))?;
        let mut trace = TraceRun::default();
        while client.measuring(start, seconds) {
            for sq in stream.next_cycle() {
                trace.query(&mut client, &replay, &sq, &mut outcome);
            }
            client.cycle += 1;
        }
        outcome.metrics = trace.metrics(&setup, &client.exact_ms);
        outcome.spans = trace.spans;
    } else {
        let mut e2e = EndToEnd::default();
        while client.measuring(start, seconds) {
            for sq in stream.next_cycle() {
                e2e.query(&mut client, &sq, &mut outcome);
            }
            e2e.end_cycle();
            client.cycle += 1;
        }
        (outcome.metrics, outcome.reported_only) = e2e.metrics(&setup, &client.exact_ms)?;
        outcome.notes = e2e.by_template(&client.exact_ms);
    }
    Ok(outcome)
}

/// Set-up timings, in milliseconds per repetition.
#[derive(Debug, Default)]
struct Setup {
    /// `register` or `open_table` (untraced run).
    session_ms: Vec<f64>,
    /// `Scramble::build_with` (traced run; in the segment writer for the
    /// segment backing).
    build_ms: Vec<f64>,
    /// `SegmentReader::open` (traced run).
    open_ms: Vec<f64>,
}

fn set_up(
    workload: Workload,
    tables: &mut Tables,
    traced: bool,
) -> Result<(Session, Setup), String> {
    let mut setup = Setup::default();
    let mut session = Session::new();
    if workload.segment_backed() {
        let segment = tables.segment()?;
        if traced {
            setup.build_ms.push(segment.build_ms);
            for _ in 0..SETUP_REPS {
                let start = Instant::now();
                SegmentReader::open(&segment.path).map_err(|e| e.to_string())?;
                setup.open_ms.push(ms(start.elapsed()));
            }
            session
                .open_table(TABLE, &segment.path)
                .map_err(|e| e.to_string())?;
        } else {
            for _ in 0..SETUP_REPS {
                session = Session::new();
                let start = Instant::now();
                session
                    .open_table(TABLE, &segment.path)
                    .map_err(|e| e.to_string())?;
                setup.session_ms.push(ms(start.elapsed()));
            }
        }
    } else {
        let out_dir = tables.out_dir.clone();
        let dataset = tables.memory()?;
        if traced {
            let mut scramble = None;
            for _ in 0..SETUP_REPS {
                // Free the previous copy first, so at most one is resident.
                drop(scramble.take());
                let start = Instant::now();
                scramble = Some(dataset.scramble().map_err(|e| e.to_string())?);
                setup.build_ms.push(ms(start.elapsed()));
            }
            let scramble = scramble.expect("SETUP_REPS > 0");
            let path = out_dir.join(format!("open-probe-{}.seg", std::process::id()));
            let opened = write_segment(&scramble, &path).and_then(|()| {
                (0..SETUP_REPS)
                    .map(|_| {
                        let start = Instant::now();
                        SegmentReader::open(&path).map(|_| ms(start.elapsed()))
                    })
                    .collect::<Result<Vec<_>, _>>()
            });
            let _ = std::fs::remove_file(&path);
            setup.open_ms = opened.map_err(|e| e.to_string())?;
            session
                .register_scramble(TABLE, scramble)
                .map_err(|e| e.to_string())?;
        } else {
            for _ in 0..SETUP_REPS {
                session = Session::new();
                let start = Instant::now();
                dataset
                    .register_into(&mut session, TABLE)
                    .map_err(|e| e.to_string())?;
                setup.session_ms.push(ms(start.elapsed()));
            }
        }
    }
    Ok((session, setup))
}

/// The closed-loop client: runs one query at a time and checks each answer
/// against the exact answer of its instance.
struct Client<'s> {
    session: &'s Session,
    budget: Budget,
    /// Whether an instance's exact answer is computed once and reused.
    /// Only on the segment backing, where every `execute_exact` call decodes
    /// the whole file (about 1 s). In memory every query gets a fresh call
    /// right after it, so a query and its exact baseline run at the same
    /// host speed.
    cache_exact: bool,
    /// Exact answer and `execute_exact` time (ms) per instance name.
    exact: HashMap<String, (QueryResult, f64)>,
    /// One sample per `execute_exact` call, with the query's template.
    exact_ms: Vec<(&'static str, f64)>,
    /// Cycles completed.
    cycle: usize,
}

/// An approximate answer with the client-side times of its snapshots.
struct Answer {
    result: ProgressiveResult,
    /// Time from the query call to each snapshot.
    snapshot_at: Vec<Duration>,
    /// Time from the query call to the final result.
    answer: Duration,
}

impl Client<'_> {
    /// Whether the run goes on with another cycle: until `seconds` have
    /// passed since `start`, exact checks included, and at least
    /// [`MIN_CYCLES`] cycles are done. A run whose queries stall still
    /// ends, at four times `seconds`.
    fn measuring(&self, start: Instant, seconds: f64) -> bool {
        let elapsed = start.elapsed().as_secs_f64();
        (self.cycle < MIN_CYCLES || elapsed < seconds) && elapsed < 4.0 * seconds
    }

    /// Runs `sq` through `prepare` and `stream`, timing from the call.
    fn ask(&mut self, sq: &StreamQuery) -> Result<Answer, String> {
        let start = Instant::now();
        let mut snapshot_at = Vec::new();
        let result = self
            .session
            .prepare(TABLE, &sq.query)
            .map(|p| {
                p.with_config(sq.config.clone())
                    .with_budget(self.budget.clone())
            })
            .and_then(|p| {
                p.stream(|_| {
                    snapshot_at.push(start.elapsed());
                    RoundControl::Continue
                })
            });
        let answer = start.elapsed();
        Ok(Answer {
            result: result.map_err(|e| e.to_string())?,
            snapshot_at,
            answer,
        })
    }

    /// Checks `result` against the exact answer of `sq`'s instance, and
    /// returns the time `execute_exact` took for that instance.
    fn check(&mut self, sq: &StreamQuery, result: &ProgressiveResult) -> Result<f64, String> {
        if !(self.cache_exact && self.exact.contains_key(&sq.query.name)) {
            let prepared = self
                .session
                .prepare(TABLE, &sq.query)
                .map_err(|e| e.to_string())?;
            let start = Instant::now();
            let exact = prepared
                .execute_exact()
                .map_err(|e| format!("exact baseline: {e}"))?;
            let took = ms(start.elapsed());
            self.exact_ms.push((sq.template, took));
            self.exact.insert(sq.query.name.clone(), (exact, took));
        }
        let (exact, took) = &self.exact[&sq.query.name];
        gate::check(result, exact).map(|()| *took)
    }
}

/// Accumulators of the untraced run.
#[derive(Debug, Default)]
struct EndToEnd {
    ttfs_ms: Vec<f64>,
    answer_ms: Vec<f64>,
    round_ms: Vec<f64>,
    /// `(ttfs, answer)` samples per template, for the report.
    by_template: BTreeMap<&'static str, (Vec<f64>, Vec<f64>)>,
    /// Per checked query, its instance's exact time over its time to first
    /// snapshot, over its answer time, and over its median round gap (the
    /// last only for queries with at least two snapshots).
    ttfs_speedup: Vec<f64>,
    answer_speedup: Vec<f64>,
    rounds_per_exact: Vec<f64>,
    answered: u64,
    blocks: u64,
    cycle_round_ms: Vec<f64>,
    /// Each cycle's highest round gap with [`TAIL_BEYOND`] gaps beyond it.
    cycle_round_tails: Vec<f64>,
    cycle_rows: u64,
    cycle_answer_s: f64,
    /// Rows scanned per second of answer time, one sample per cycle.
    cycle_rates: Vec<f64>,
}

impl EndToEnd {
    fn query(&mut self, client: &mut Client<'_>, sq: &StreamQuery, outcome: &mut Outcome) {
        outcome.attempted += 1;
        let answer = match client.ask(sq) {
            Ok(a) => a,
            Err(e) => {
                outcome.digests.push(0);
                return outcome.fail(sq.index, sq.template, e);
            }
        };
        outcome.digests.push(gate::digest(&answer.result.result));
        self.record(sq.template, &answer);
        let Some(&first) = answer.snapshot_at.first() else {
            return outcome.fail(sq.index, sq.template, "no snapshot");
        };
        match client.check(sq, &answer.result) {
            Ok(exact_ms) => {
                self.ttfs_speedup.push(exact_ms / ms(first));
                self.answer_speedup.push(exact_ms / ms(answer.answer));
                let gaps: Vec<f64> = answer
                    .snapshot_at
                    .windows(2)
                    .map(|w| ms(w[1] - w[0]))
                    .collect();
                self.rounds_per_exact
                    .extend(median(&gaps).map(|gap| exact_ms / gap));
            }
            Err(e) => outcome.fail(sq.index, sq.template, e),
        }
    }

    fn record(&mut self, template: &'static str, a: &Answer) {
        let samples = self.by_template.entry(template).or_default();
        if let Some(first) = a.snapshot_at.first() {
            self.ttfs_ms.push(ms(*first));
            samples.0.push(ms(*first));
        }
        samples.1.push(ms(a.answer));
        self.cycle_round_ms
            .extend(a.snapshot_at.windows(2).map(|w| ms(w[1] - w[0])));
        self.answer_ms.push(ms(a.answer));
        self.answered += 1;
        self.blocks += a.result.result.metrics.blocks_fetched();
        self.cycle_rows += a.result.result.metrics.rows_decoded();
        self.cycle_answer_s += a.answer.as_secs_f64();
    }

    /// Median time to first snapshot, to answer and of the exact baseline,
    /// per template.
    fn by_template(&self, exact_ms: &[(&'static str, f64)]) -> Vec<String> {
        self.by_template
            .iter()
            .map(|(template, (ttfs, answer))| {
                let exact: Vec<f64> = exact_ms
                    .iter()
                    .filter(|(t, _)| t == template)
                    .map(|&(_, v)| v)
                    .collect();
                format!(
                    "{template}: ttfs p50 {:.3} ms, answer p50 {:.3} ms over {} queries; \
                     exact p50 {:.3} ms over {} calls",
                    median(ttfs).unwrap_or(f64::NAN),
                    median(answer).unwrap_or(f64::NAN),
                    answer.len(),
                    median(&exact).unwrap_or(f64::NAN),
                    exact.len()
                )
            })
            .collect()
    }

    /// Closes a cycle of the stream: its scan rate is one sample of
    /// `scan_rows_per_s`, and its highest round gap with ten gaps beyond it
    /// one sample of `round_tail_ms`.
    ///
    /// Taking the round tail per cycle and reporting the median over cycles
    /// keeps one slow query or a burst of host preemption from setting it.
    fn end_cycle(&mut self) {
        let mut gaps = std::mem::take(&mut self.cycle_round_ms);
        gaps.sort_by(|a, b| b.total_cmp(a));
        if let Some(&tail) = gaps.get(TAIL_BEYOND).or(gaps.last()) {
            self.cycle_round_tails.push(tail);
        }
        self.round_ms.append(&mut gaps);
        if self.cycle_answer_s > 0.0 {
            self.cycle_rates
                .push(self.cycle_rows as f64 / self.cycle_answer_s);
        }
        self.cycle_rows = 0;
        self.cycle_answer_s = 0.0;
    }

    /// The end-to-end metrics, and the timings reported alongside them.
    fn metrics(
        &self,
        setup: &Setup,
        exact_ms: &[(&'static str, f64)],
    ) -> Result<(Vec<Metric>, Vec<Metric>), String> {
        let exact_ms: Vec<f64> = exact_ms.iter().map(|&(_, v)| v).collect();
        let summary = |name: &str, v: &[f64], tail: f64| {
            Summary::of(v, tail).ok_or_else(|| format!("no {name} samples in the run"))
        };
        let p50 = |name: &str, v: &[f64]| summary(name, v, 50.0);
        let gmean = |name: &'static str, unit: &'static str, v: &[f64]| {
            geometric_mean(v)
                .map(|value| {
                    let detail = format!("geometric mean over {} queries", v.len());
                    Metric::new(name, unit, value, detail)
                })
                .ok_or_else(|| format!("no {name} samples in the run"))
        };
        let median_of = |s: &Summary| format!("median of {} samples", s.samples);
        let setup_s = p50("set-up", &setup.session_ms)?;
        let ttfs = summary("snapshot", &self.ttfs_ms, QUERY_TAIL)?;
        let answer = summary("answer", &self.answer_ms, QUERY_TAIL)?;
        let round = p50("round", &self.round_ms)?;
        let round_tail = p50("round tail", &self.cycle_round_tails)?;
        let exact = p50("exact", &exact_ms)?;
        let rate = p50("scan rate", &self.cycle_rates)?;
        let metrics = vec![
            Metric::new("setup_s", "s", setup_s.p50 / 1e3, median_of(&setup_s)),
            gmean("ttfs_speedup", "x", &self.ttfs_speedup)?,
            gmean("answer_speedup", "x", &self.answer_speedup)?,
            gmean("rounds_per_exact", "rounds", &self.rounds_per_exact)?,
            Metric::new(
                "blocks_per_query",
                "blocks",
                self.blocks as f64 / self.answered as f64,
                format!("mean over {} queries", self.answered),
            ),
            Metric::new("peak_rss_mb", "MB", peak_rss_mb()?, "VmHWM at exit"),
        ];
        let timings = vec![
            Metric::new("ttfs_p50_ms", "ms", ttfs.p50, median_of(&ttfs)),
            Metric::new("ttfs_tail_ms", "ms", ttfs.tail, ttfs.describe_tail()),
            Metric::new("answer_p50_ms", "ms", answer.p50, median_of(&answer)),
            Metric::new("answer_tail_ms", "ms", answer.tail, answer.describe_tail()),
            Metric::new("round_p50_ms", "ms", round.p50, median_of(&round)),
            Metric::new(
                "round_tail_ms",
                "ms",
                round_tail.p50,
                format!(
                    "median over {} cycles of the cycle's {}th-largest round gap",
                    round_tail.samples,
                    TAIL_BEYOND + 1
                ),
            ),
            Metric::new("exact_p50_ms", "ms", exact.p50, median_of(&exact)),
            Metric::new(
                "scan_rows_per_s",
                "rows/s",
                rate.p50,
                format!("median over {} cycles of rows / answer time", rate.samples),
            ),
        ];
        Ok((metrics, timings))
    }
}

/// Accumulators of the traced run.
#[derive(Debug, Default)]
struct TraceRun {
    traced: u64,
    store: StoreAccount,
    index_checks: u64,
    blocks_fetched: u64,
    blocks_skipped: u64,
    rows_decoded: u64,
    rows_selected: u64,
    rows_matched: u64,
    rounds: u64,
    partitions: u64,
    round_ms: Vec<f64>,
    prepare_ms: Vec<f64>,
    untraced_answer_ms: Vec<f64>,
    traced_answer_ms: Vec<f64>,
    /// Replay cost and query count per bounder kind, in `BounderKind::ALL`
    /// order.
    replay: [(Duration, Duration, u64); 6],
    spans: Vec<String>,
}

impl TraceRun {
    fn query(
        &mut self,
        client: &mut Client<'_>,
        replay: &Replay,
        sq: &StreamQuery,
        outcome: &mut Outcome,
    ) {
        outcome.attempted += 1;
        // Alternate which execution goes first, so neither always runs on
        // caches the other warmed.
        let (untraced, traced) = if sq.index.is_multiple_of(2) {
            let u = client.ask(sq);
            (u, self.traced_run(client, sq))
        } else {
            let t = self.traced_run(client, sq);
            (client.ask(sq), t)
        };
        let (untraced, (traced, account)) = match (untraced, traced) {
            (Ok(u), Ok(t)) => (u, t),
            (Err(e), _) | (_, Err(e)) => {
                outcome.digests.push(0);
                return outcome.fail(sq.index, sq.template, e);
            }
        };
        let digest = gate::digest(&traced.result.result);
        outcome.digests.push(digest);
        if digest != gate::digest(&untraced.result.result) {
            return outcome.fail(sq.index, sq.template, "tracing changed the answer");
        }
        self.untraced_answer_ms.push(ms(untraced.answer));
        self.traced_answer_ms.push(ms(traced.answer));
        self.record(sq, &traced, &account, replay);
        if let Err(e) = account
            .check()
            .and_then(|()| client.check(sq, &traced.result).map(|_| ()))
        {
            outcome.fail(sq.index, sq.template, e);
        }
    }

    /// Runs `sq` through the timing wrapper. Snapshot times are measured
    /// from the start of `execute_progressive`; the answer time adds the
    /// `prepare` call, like an untraced answer.
    fn traced_run(
        &mut self,
        client: &Client<'_>,
        sq: &StreamQuery,
    ) -> Result<(Answer, StoreAccount), String> {
        let start = Instant::now();
        client
            .session
            .prepare(TABLE, &sq.query)
            .map_err(|e| e.to_string())?;
        let prepare = start.elapsed();
        self.prepare_ms.push(ms(prepare));
        let source = TimedSource::new(client.session.source(TABLE).map_err(|e| e.to_string())?);
        let mut marks = Vec::new();
        let begin = source.now_ns();
        let result = execute_progressive(
            &source,
            &sq.query,
            &sq.config,
            &client.budget,
            &mut |_: &Snapshot| {
                marks.push(source.now_ns());
                RoundControl::Continue
            },
        )
        .map_err(|e| e.to_string())?;
        let end = source.now_ns();
        let account = source.account(begin, end);
        let snapshot_at = marks
            .iter()
            .map(|&m| Duration::from_nanos(m - begin))
            .collect();
        Ok((
            Answer {
                result,
                snapshot_at,
                answer: prepare + Duration::from_nanos(end - begin),
            },
            account,
        ))
    }

    fn record(&mut self, sq: &StreamQuery, a: &Answer, account: &StoreAccount, replay: &Replay) {
        let q = sq.index;
        let metrics = &a.result.result.metrics;
        self.traced += 1;
        self.store.span_ns += account.span_ns;
        self.store.store_covered_ns += account.store_covered_ns;
        self.store.read_calls += account.read_calls;
        self.store.read_busy_ns += account.read_busy_ns;
        self.store.read_rows += account.read_rows;
        self.store.enumerate_calls += account.enumerate_calls;
        self.store.enumerate_ns += account.enumerate_ns;
        self.store.index_lookups += account.index_lookups;
        self.index_checks += metrics.scan.index_checks;
        self.blocks_fetched += metrics.scan.blocks_fetched;
        self.blocks_skipped += metrics.scan.blocks_skipped;
        self.rows_decoded += metrics.rows_decoded();
        self.rows_selected += metrics.rows_selected();
        self.rows_matched += metrics.rows_sampled;
        self.rounds += a.result.snapshots.len() as u64;
        self.partitions += metrics.exec.partitions;
        self.round_ms
            .extend(a.snapshot_at.windows(2).map(|w| ms(w[1] - w[0])));

        let kind = sq.config.bounder;
        let cost = replay.run(kind, &a.result.snapshots, DELTA);
        let slot = &mut self.replay[kind_index(kind)];
        slot.0 += cost.observe;
        slot.1 += cost.interval;
        slot.2 += 1;

        let us = |ns: u64| ns as f64 / 1e3;
        self.spans.push(format!(
            r#"{{"query":{q},"span":"engine.query","template":"{}","name":"{}","start_us":0,"end_us":{}}}"#,
            sq.template,
            sq.query.name,
            us(account.span_ns)
        ));
        let mut from = 0.0;
        for (k, at) in a.snapshot_at.iter().enumerate() {
            let to = at.as_secs_f64() * 1e6;
            self.spans.push(format!(
                r#"{{"query":{q},"span":"engine.round","parent":"engine.query","round":{},"start_us":{from},"end_us":{to}}}"#,
                k + 1
            ));
            from = to;
        }
        self.spans.push(format!(
            r#"{{"query":{q},"span":"store.source","parent":"engine.query","covered_us":{},"read_calls":{},"read_busy_us":{},"enumerate_calls":{},"enumerate_us":{},"index_lookups":{}}}"#,
            us(account.store_covered_ns),
            account.read_calls,
            us(account.read_busy_ns),
            account.enumerate_calls,
            us(account.enumerate_ns),
            account.index_lookups
        ));
        self.spans.push(format!(
            r#"{{"query":{q},"span":"engine.self","parent":"engine.query","self_us":{}}}"#,
            us(account.engine_self_ns())
        ));
        self.spans.push(format!(
            r#"{{"query":{q},"span":"core.bounder","kind":"{}","observe_us":{},"interval_us":{}}}"#,
            kind.label(),
            cost.observe.as_secs_f64() * 1e6,
            cost.interval.as_secs_f64() * 1e6
        ));
    }

    fn metrics(&self, setup: &Setup, exact_ms: &[(&'static str, f64)]) -> Vec<Metric> {
        let exact_ms: Vec<f64> = exact_ms.iter().map(|&(_, v)| v).collect();
        let q = self.traced.max(1) as f64;
        let per_query = |v: f64| v / q;
        let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        let med = |v: &[f64]| median(v).unwrap_or(0.0);
        let s = &self.store;
        let ms_ns = |ns: u64| ns as f64 / 1e6;
        let (observe, interval, _) = self
            .replay
            .iter()
            .fold((Duration::ZERO, Duration::ZERO, 0), |acc, r| {
                (acc.0 + r.0, acc.1 + r.1, acc.2 + r.2)
            });
        let kinds: Vec<String> = BounderKind::ALL
            .iter()
            .zip(&self.replay)
            .filter(|(_, r)| r.2 > 0)
            .map(|(k, r)| {
                format!(
                    "{} {:.3}/{:.3} ms",
                    k.label(),
                    ms(r.0) / r.2 as f64,
                    ms(r.1) / r.2 as f64
                )
            })
            .collect();
        let kinds = format!(
            "per kind (observe/interval per query): {}",
            kinds.join(", ")
        );
        let n = format!("mean over {} traced queries", self.traced);
        let untraced = med(&self.untraced_answer_ms);
        let traced = med(&self.traced_answer_ms);
        vec![
            Metric::new(
                "store.source.enumerate_ms",
                "ms/query",
                per_query(ms_ns(s.enumerate_ns)),
                &n,
            ),
            Metric::new(
                "store.source.enumerate_calls",
                "calls/query",
                per_query(s.enumerate_calls as f64),
                &n,
            ),
            Metric::new(
                "store.source.read_calls",
                "calls/query",
                per_query(s.read_calls as f64),
                &n,
            ),
            Metric::new(
                "store.source.read_busy_ms",
                "ms/query",
                per_query(ms_ns(s.read_busy_ns)),
                "summed across scan workers",
            ),
            Metric::new(
                "store.source.read_us_per_block",
                "us/block",
                ratio(s.read_busy_ns, s.read_calls) / 1e3,
                "",
            ),
            Metric::new(
                "store.source.rows_decoded",
                "rows/query",
                per_query(s.read_rows as f64),
                &n,
            ),
            Metric::new(
                "store.source.index_lookups",
                "lookups/query",
                per_query(s.index_lookups as f64),
                &n,
            ),
            Metric::new(
                "store.source.covered_ms",
                "ms/query",
                per_query(ms_ns(s.store_covered_ns)),
                "union of store spans",
            ),
            Metric::new(
                "store.bitmap.index_checks",
                "checks/query",
                per_query(self.index_checks as f64),
                &n,
            ),
            Metric::new(
                "store.predicate.selectivity",
                "ratio",
                ratio(self.rows_selected, self.rows_decoded),
                "rows selected / decoded",
            ),
            Metric::new(
                "engine.sampling.blocks_skipped",
                "blocks/query",
                per_query(self.blocks_skipped as f64),
                &n,
            ),
            Metric::new(
                "engine.sampling.skip_ratio",
                "ratio",
                ratio(
                    self.blocks_skipped,
                    self.blocks_skipped + self.blocks_fetched,
                ),
                "skipped / considered",
            ),
            Metric::new(
                "engine.view.match_ratio",
                "ratio",
                ratio(self.rows_matched, self.rows_selected),
                "rows matched / selected",
            ),
            Metric::new(
                "engine.executor.rounds",
                "rounds/query",
                per_query(self.rounds as f64),
                &n,
            ),
            Metric::new(
                "engine.executor.round_ms",
                "ms",
                med(&self.round_ms),
                format!("median of {} round spans", self.round_ms.len()),
            ),
            Metric::new(
                "engine.parallel.partitions_per_round",
                "partitions/round",
                ratio(self.partitions, self.rounds),
                "",
            ),
            Metric::new(
                "engine.executor.self_ms",
                "ms/query",
                per_query(ms_ns(s.engine_self_ns())),
                "query span minus store spans",
            ),
            Metric::new(
                "engine.query.span_ms",
                "ms/query",
                per_query(ms_ns(s.span_ns)),
                &n,
            ),
            Metric::new(
                "core.bounder.observe_ms",
                "ms/query",
                per_query(ms(observe)),
                &kinds,
            ),
            Metric::new(
                "core.bounder.interval_ms",
                "ms/query",
                per_query(ms(interval)),
                &kinds,
            ),
            Metric::new(
                "engine.session.prepare_ms",
                "ms",
                med(&self.prepare_ms),
                "median",
            ),
            Metric::new(
                "engine.exact.ms",
                "ms",
                med(&exact_ms),
                format!("median of {} calls", exact_ms.len()),
            ),
            Metric::new(
                "store.scramble.build_ms",
                "ms",
                med(&setup.build_ms),
                format!("median of {}", setup.build_ms.len()),
            ),
            Metric::new(
                "store.persist.open_ms",
                "ms",
                med(&setup.open_ms),
                format!("median of {}", setup.open_ms.len()),
            ),
            Metric::new(
                "trace.overhead_ms",
                "ms",
                traced - untraced,
                format!("traced {traced:.3} ms - untraced {untraced:.3} ms answer median"),
            ),
        ]
    }
}

fn kind_index(kind: BounderKind) -> usize {
    BounderKind::ALL
        .iter()
        .position(|&k| k == kind)
        .expect("ALL lists every kind")
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The process's peak resident set size, from `/proc/self/status`.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading peak RSS: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}
