//! Output: the human-readable report, the final JSON line, and the files
//! each run leaves in the output directory.

use std::fmt::Write as _;
use std::path::Path;

use crate::run::{Metric, Outcome};
use crate::workload::THREADS;

/// What a result was measured on, recorded with every result.
#[derive(Debug, Clone)]
pub struct Env {
    /// Host parallelism (`available_parallelism`).
    pub nproc: usize,
    /// Scan threads every query is pinned to.
    pub threads: usize,
    /// Table rows.
    pub rows: usize,
    /// Workload seed.
    pub seed: u64,
    /// Requested measuring time per workload.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Git revision of the checkout, when it is a git checkout.
    pub git: String,
}

impl Env {
    /// The environment of this process, run from the checkout root `root`.
    pub fn detect(root: &Path, rows: usize, seed: u64, seconds: f64, trace: bool) -> Self {
        Self {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            threads: THREADS,
            rows,
            seed,
            seconds,
            trace,
            git: git_revision(root).unwrap_or_else(|| "unknown".to_string()),
        }
    }

    fn describe(&self) -> String {
        format!(
            "nproc={} threads={} rows={} seed={} seconds={} trace={} git={}",
            self.nproc,
            self.threads,
            self.rows,
            self.seed,
            self.seconds,
            u8::from(self.trace),
            self.git
        )
    }

    fn json(&self) -> String {
        format!(
            r#"{{"nproc":{},"threads":{},"rows":{},"seed":{},"seconds":{},"trace":{},"git":"{}"}}"#,
            self.nproc, self.threads, self.rows, self.seed, self.seconds, self.trace, self.git
        )
    }
}

/// The commit `root/.git/HEAD` points at, read without running git (the
/// benchmark reads nothing outside its checkout).
fn git_revision(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return Some(rev.trim().to_string());
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()?
        .lines()
        .find_map(|l| {
            l.strip_suffix(reference)?
                .strip_suffix(' ')
                .map(str::to_string)
        })
}

/// Prints the human-readable report of one workload.
pub fn print_outcome(env: &Env, outcome: &Outcome) {
    let w = outcome.workload.name();
    println!("# {w}: {}", env.describe());
    for m in &outcome.metrics {
        println!(
            "{w:<17} {:<38} {:>16.4} {:<16} {}",
            m.name, m.value, m.unit, m.detail
        );
    }
    for m in &outcome.reported_only {
        println!(
            "{w:<17} {:<38} {:>16.4} {:<16} {} (reported only)",
            m.name, m.value, m.unit, m.detail
        );
    }
    println!(
        "{w:<17} {:<38} {:>16.4} {:<16} {} failed of {} attempted",
        "failed_ratio",
        outcome.failed as f64 / outcome.attempted.max(1) as f64,
        "ratio",
        outcome.failed,
        outcome.attempted
    );
    println!(
        "{w:<17} {:<38} {:>16x} {:<16} over {} queries",
        "result_digest",
        crate::gate::fold(&outcome.digests),
        "fnv64",
        outcome.digests.len()
    );
    for note in &outcome.notes {
        println!("{w:<17} {note}");
    }
    for f in &outcome.failures {
        println!("{w:<17} FAILED {f}");
    }
}

/// The final JSON line: `correct`, `attempted`, `failed` and `metrics`,
/// with metric names as given.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, &Metric)],
) -> String {
    let mut out = format!(
        r#"{{"correct": {correct}, "attempted": {attempted}, "failed": {failed}, "metrics": {{"#
    );
    for (i, (name, m)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            r#"{sep}"{name}": {{"value": {}, "unit": "{}"}}"#,
            json_number(m.value),
            m.unit
        );
    }
    out.push_str("}}");
    out
}

/// A finite number as JSON; a value that could not be measured becomes
/// `null`, which no reader mistakes for a measurement.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Writes the run's record — environment, metrics, failures and digests —
/// and, for a traced run, its spans, under `dir`.
///
/// # Errors
///
/// I/O errors.
pub fn write_files(dir: &Path, env: &Env, outcome: &Outcome) -> std::io::Result<()> {
    let w = outcome.workload.name();
    let stem = format!("{w}-seed{}-trace{}", env.seed, u8::from(env.trace));
    let mut record = format!(
        r#"{{"workload":"{w}","env":{},"attempted":{},"failed":{},"digest":"{:016x}","metrics":{{"#,
        env.json(),
        outcome.attempted,
        outcome.failed,
        crate::gate::fold(&outcome.digests)
    );
    for (i, m) in outcome
        .metrics
        .iter()
        .chain(&outcome.reported_only)
        .enumerate()
    {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            record,
            r#"{sep}"{}":{{"value":{},"unit":"{}","detail":"{}"}}"#,
            m.name,
            json_number(m.value),
            m.unit,
            m.detail.replace('"', "'")
        );
    }
    record.push_str("}}\n");
    std::fs::write(dir.join(format!("result-{stem}.json")), record)?;
    let digests: String = outcome
        .digests
        .iter()
        .map(|d| format!("{d:016x}\n"))
        .collect();
    std::fs::write(dir.join(digests_file(w, env)), digests)?;
    if env.trace {
        let mut spans = outcome.spans.join("\n");
        spans.push('\n');
        std::fs::write(dir.join(format!("spans-{stem}.jsonl")), spans)?;
    }
    Ok(())
}

/// Name of the per-query digest file of workload `w` for `env`'s seed and
/// table size (traced and untraced runs share it: tracing must not change
/// answers).
pub fn digests_file(w: &str, env: &Env) -> String {
    format!("digests-{w}-seed{}-rows{}.txt", env.seed, env.rows)
}

/// Reads a digest file written by [`write_files`], if there is one.
pub fn read_digests(path: &Path) -> Option<Vec<u64>> {
    let text = std::fs::read_to_string(path).ok()?;
    text.lines()
        .map(|l| u64::from_str_radix(l.trim(), 16).ok())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_result_line_has_the_four_keys() {
        let m = Metric {
            name: "setup_s",
            unit: "s",
            value: 0.5,
            detail: String::new(),
        };
        let line = result_line(true, 3, 0, &[("setup_s".to_string(), &m)]);
        assert_eq!(
            line,
            r#"{"correct": true, "attempted": 3, "failed": 0, "metrics": {"setup_s": {"value": 0.5, "unit": "s"}}}"#
        );
        assert_eq!(json_number(f64::NAN), "null");
    }
}
