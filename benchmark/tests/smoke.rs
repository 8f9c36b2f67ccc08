//! Reduced-size passes of every workload through the benchmark binary: each
//! must succeed and emit exactly the metrics `BENCHMARK.json` names, with
//! their units.

use std::path::Path;
use std::process::Command;

const ROWS: &str = "200000";

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let spec =
        std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"))
            .expect("BENCHMARK.json sits at the repository root");
    let start = spec
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &spec[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    body.split('{')
        .skip(1)
        .map(|object| {
            let field = |key: &str| {
                let at = object.find(&format!("\"{key}\"")).expect("metric field");
                let rest = &object[at + key.len() + 2..];
                let rest = &rest[rest.find('"').expect("string value") + 1..];
                rest[..rest.find('"').expect("closing quote")].to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn run(workload: &str, trace: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_fastframe-benchmark"))
        .args(["--workload", workload, "--seed", "5", "--seconds", "0.5"])
        .args(["--trace", trace, "--rows", ROWS])
        .env_remove("FASTFRAME_VECTORIZE")
        .output()
        .expect("the benchmark starts");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} trace {trace} failed: {}\n{stdout}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout.lines().last().expect("a result line").to_string()
}

fn assert_emits(line: &str, metrics: &[(String, String)]) {
    assert!(
        line.starts_with(r#"{"correct": true, "attempted": "#),
        "{line}"
    );
    assert!(line.contains(r#""failed": 0, "#), "{line}");
    for (name, unit) in metrics {
        let at = line
            .find(&format!("\"{name}\": {{\"value\": "))
            .unwrap_or_else(|| panic!("{name} missing from {line}"));
        let rest = &line[at..];
        let entry = &rest[..rest.find('}').expect("entry closes")];
        assert!(entry.ends_with(&format!("\"unit\": \"{unit}\"")), "{entry}");
        assert!(!entry.contains("null"), "{name} was not measured: {entry}");
    }
    assert_eq!(line.matches("\"value\"").count(), metrics.len(), "{line}");
}

#[test]
fn every_workload_emits_every_declared_metric() {
    let end_to_end = declared("end_to_end");
    let per_layer = declared("per_layer");
    assert!(end_to_end.iter().any(|(n, u)| n == "setup_s" && u == "s"));
    for workload in ["flights_mem", "flights_seg", "progressive_fine"] {
        assert_emits(&run(workload, "0"), &end_to_end);
        assert_emits(&run(workload, "1"), &per_layer);
    }
}

#[test]
fn the_scalar_oracle_path_is_refused() {
    let out = Command::new(env!("CARGO_BIN_EXE_fastframe-benchmark"))
        .args([
            "--workload",
            "flights_mem",
            "--seconds",
            "1",
            "--rows",
            ROWS,
        ])
        .env("FASTFRAME_VECTORIZE", "0")
        .output()
        .expect("the benchmark starts");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty(), "no result may be printed");
}
