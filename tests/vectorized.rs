//! End-to-end determinism tests for the batch execution pipeline.
//!
//! Every scan runs through one pipeline: columnar predicate kernels over
//! selection vectors, projection pushdown, per-view `observe_batch`. Its
//! bit-identity with a row-at-a-time scan is checked at the partition, by
//! the reference-loop oracle in the engine's `parallel` module. These tests
//! check the end-to-end contract on top of it: the backing and the thread
//! count are invisible in every observable output —
//!
//! * per-group estimates and CI bounds **bit-for-bit** identical,
//! * identical `ScanStats` (blocks fetched/skipped, rows scanned, rows
//!   selected, rows matched, index checks, rounds),
//! * identical group order, selections and convergence,
//!
//! for random predicates × sampling strategies × group-bys × aggregates,
//! on the in-memory and the segment backing at `threads = 1` and
//! `threads = 4`.

use proptest::prelude::*;

use fastframe_core::bounder::BounderKind;
use fastframe_engine::config::{EngineConfig, SamplingStrategy};
use fastframe_engine::session::Session;
use fastframe_engine::QueryResult;
use fastframe_store::column::Column;
use fastframe_store::expr::Expr;
use fastframe_store::predicate::Predicate;
use fastframe_store::table::Table;

/// A synthetic table exercising every kernel: a float target, an int filter
/// column, a group column, and a second categorical for multi-column
/// group-bys and categorical filters.
fn table(rows: usize) -> Table {
    let mut values = Vec::with_capacity(rows);
    let mut times = Vec::with_capacity(rows);
    let mut groups = Vec::with_capacity(rows);
    let mut flags = Vec::with_capacity(rows);
    for i in 0..rows {
        let group = match i % 4 {
            0 | 1 => "alpha",
            2 => "beta",
            _ => "gamma",
        };
        let base = match group {
            "alpha" => 5.0,
            "beta" => 20.0,
            _ => 40.0,
        };
        let noise = ((i * 2_654_435_761) % 1000) as f64 / 100.0 - 5.0;
        values.push(base + noise);
        times.push(600 + (i as i64 % 1200));
        groups.push(group.to_string());
        flags.push(if i % 3 == 0 { "on" } else { "off" }.to_string());
    }
    Table::new(vec![
        Column::float("v", values),
        Column::int("time", times),
        Column::categorical("g", &groups),
        Column::categorical("flag", &flags),
    ])
    .unwrap()
}

fn temp_path(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!(
        "fastframe_vectorized_{tag}_{}.ffseg",
        std::process::id()
    ))
}

/// A session with the table under both backings: `mem` (in-memory scramble)
/// and `disk` (segment-backed, lazily decoded).
fn dual_backing_session(rows: usize, path: &std::path::Path) -> Session {
    let mut s = Session::new();
    s.register("mem", &table(rows)).unwrap();
    s.save_table("mem", path).unwrap();
    s.open_table("disk", path).unwrap();
    s
}

/// One of a fixed zoo of predicate shapes, covering every leaf kernel and
/// every boolean combinator (including nesting under Or/Not, which the
/// selection algebra must handle with union/difference).
fn predicate(idx: usize) -> Predicate {
    match idx % 7 {
        0 => Predicate::True,
        1 => Predicate::cat_eq("flag", "on"),
        2 => Predicate::num_gt("time", 1_000.0),
        3 => Predicate::NumBetween {
            column: "v".into(),
            low: 3.0,
            high: 30.0,
        },
        4 => Predicate::And(vec![
            Predicate::cat_eq("flag", "off"),
            Predicate::num_lt("time", 1_500.0),
        ]),
        5 => Predicate::Or(vec![
            Predicate::cat_eq("g", "beta"),
            Predicate::num_gt("v", 35.0),
        ]),
        _ => Predicate::Not(Box::new(Predicate::And(vec![
            Predicate::cat_eq("flag", "on"),
            Predicate::num_gt("time", 900.0),
        ]))),
    }
}

fn config(threads: usize, seed: u64, strategy: SamplingStrategy) -> EngineConfig {
    config_with(BounderKind::BernsteinRangeTrim, threads, seed, strategy)
}

fn config_with(
    bounder: BounderKind,
    threads: usize,
    seed: u64,
    strategy: SamplingStrategy,
) -> EngineConfig {
    EngineConfig::builder()
        .bounder(bounder)
        .strategy(strategy)
        .delta(1e-9)
        .round_rows(700)
        .seed(seed)
        .threads(threads)
        .build()
}

/// The (backing, threads) cells each compared with the in-memory
/// single-threaded run.
const OTHER_CELLS: [(&str, usize); 3] = [("mem", 4), ("disk", 1), ("disk", 4)];

/// Bit-level identity over everything the determinism contract covers:
/// group order, estimate/CI bits, samples, selections, convergence and the
/// full `ScanStats` (which includes `rows_selected`).
fn assert_identical(a: &QueryResult, b: &QueryResult, what: &str) {
    assert_eq!(a.groups.len(), b.groups.len(), "{what}: group count");
    for (ga, gb) in a.groups.iter().zip(&b.groups) {
        assert_eq!(ga.key, gb.key, "{what}: group order");
        assert_eq!(
            ga.estimate.map(f64::to_bits),
            gb.estimate.map(f64::to_bits),
            "{what}: estimate bits for {}",
            ga.key.display()
        );
        assert_eq!(
            ga.ci.lo.to_bits(),
            gb.ci.lo.to_bits(),
            "{what}: ci.lo bits for {}",
            ga.key.display()
        );
        assert_eq!(
            ga.ci.hi.to_bits(),
            gb.ci.hi.to_bits(),
            "{what}: ci.hi bits for {}",
            ga.key.display()
        );
        assert_eq!(ga.samples, gb.samples, "{what}: samples");
        assert_eq!(ga.exact, gb.exact, "{what}: exactness");
    }
    assert_eq!(
        a.selected_labels(),
        b.selected_labels(),
        "{what}: selection"
    );
    assert_eq!(a.converged, b.converged, "{what}: convergence");
    assert_eq!(a.metrics.scan, b.metrics.scan, "{what}: ScanStats");
    assert_eq!(a.metrics.rounds, b.metrics.rounds, "{what}: rounds");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// The headline invariant: for random queries, every backing × thread
    /// count cell is bit-identical to the in-memory single-threaded run.
    /// The bounder is drawn too, so the Anderson/DKW kinds — whose retained
    /// samples are settled once per round after the partition merges — run
    /// across many merges and rounds in every cell.
    #[test]
    fn backings_and_thread_counts_agree_bit_for_bit(
        seed in 0u64..1_000,
        strategy_idx in 0usize..3,
        pred_idx in 0usize..7,
        agg in 0usize..3,
        grouping in 0usize..3,
        bounder_idx in 0usize..BounderKind::ALL.len(),
    ) {
        let path = temp_path(&format!(
            "prop_{seed}_{strategy_idx}_{pred_idx}_{agg}_{grouping}_{bounder_idx}"
        ));
        let s = dual_backing_session(5_000, &path);
        let strategy = SamplingStrategy::ALL[strategy_idx];
        let bounder = BounderKind::ALL[bounder_idx];
        let run = |table_name: &str, threads: usize| {
            let mut q = s.query(table_name);
            q = match agg {
                0 => q.avg(Expr::col("v")),
                1 => q.sum(Expr::col("v")),
                _ => q.count(),
            };
            q = match grouping {
                0 => q,
                1 => q.group_by("g"),
                // Two group columns exercise the Multi lookup on both paths.
                _ => q.group_by("g").group_by("flag"),
            };
            q.filter(predicate(pred_idx))
                .relative_error(0.2)
                .config(config_with(bounder, threads, seed, strategy))
                .execute()
                .unwrap()
        };
        let reference = run("mem", 1);
        for (backing, threads) in OTHER_CELLS {
            assert_identical(
                &run(backing, threads),
                &reference,
                &format!("{bounder}, {backing}/threads={threads}"),
            );
        }
        std::fs::remove_file(&path).ok();
    }
}

/// A composite-expression target (the Appendix-B shape) must also be
/// bit-identical across backings and thread counts: composite expressions
/// are evaluated per selected row rather than gathered from a column.
#[test]
fn composite_target_expression_is_bit_identical() {
    let path = temp_path("composite");
    let s = dual_backing_session(6_000, &path);
    let expr = || {
        Expr::lit(2.0)
            .mul(Expr::col("v"))
            .sub(Expr::lit(1.0))
            .pow(2)
    };
    let run = |backing: &str, threads: usize| {
        s.query(backing)
            .avg(expr())
            .filter(Predicate::num_gt("time", 800.0))
            .group_by("g")
            .relative_error(0.25)
            .config(config(threads, 11, SamplingStrategy::Scan))
            .execute()
            .unwrap()
    };
    let reference = run("mem", 1);
    for (backing, threads) in OTHER_CELLS {
        assert_identical(
            &run(backing, threads),
            &reference,
            &format!("{backing}/threads={threads}"),
        );
    }
    std::fs::remove_file(&path).ok();
}

/// A full pass (unsatisfiable stopping condition) must agree too — that is
/// where every block, including the final ragged one, flows through the
/// kernels — and the selection funnel counters must be consistent.
#[test]
fn full_pass_and_funnel_counters_agree() {
    let path = temp_path("fullpass");
    let s = dual_backing_session(4_000, &path);
    let run = |backing: &str, threads: usize| {
        s.query(backing)
            .avg(Expr::col("v"))
            .filter(Predicate::cat_eq("flag", "on"))
            .group_by("g")
            .absolute_width(0.0)
            .config(config(threads, 3, SamplingStrategy::Scan))
            .execute()
            .unwrap()
    };
    let reference = run("mem", 1);
    for (backing, threads) in OTHER_CELLS {
        let result = run(backing, threads);
        assert_identical(&result, &reference, &format!("{backing}/threads={threads}"));
        // Funnel sanity: decoded ≥ selected ≥ matched, with a filter that
        // selects roughly a third of the rows.
        let m = &result.metrics;
        assert!(m.rows_decoded() > 0);
        assert!(m.rows_selected() > 0);
        assert!(m.rows_selected() < m.rows_decoded());
        assert_eq!(m.scan.rows_selected, m.exec.rows_selected);
        assert!(m.scan.rows_matched <= m.scan.rows_selected);
        // Every selected row routes to a view here (all groups exist and
        // the target is a plain column), so selected == matched.
        assert_eq!(m.scan.rows_matched, m.scan.rows_selected);
    }
    std::fs::remove_file(&path).ok();
}
