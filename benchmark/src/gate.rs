//! The correctness gate: every approximate answer is checked against the
//! exact answer of the same query instance, and its result bits are folded
//! into a digest so two backings can be compared bit for bit.

use fastframe_engine::progressive::ProgressiveResult;
use fastframe_engine::result::QueryResult;

/// Relative slack allowed when an interval is checked against the exact
/// value. An exhausted scan collapses an interval onto the running mean,
/// whose summation order differs from the exact executor's, so the two can
/// differ in the last bits.
const CONTAINMENT_SLACK: f64 = 1e-9;

/// Checks one approximate answer against the exact answer of its query.
///
/// * Every group with rows must carry a final interval that contains the
///   exact value.
/// * An answer that was not cut short by a budget must select the same
///   groups as the exact answer (the check of `assert_same_selection`). A
///   budget-cancelled answer is only promised valid intervals, not a
///   decided selection, so its selection is not compared.
///
/// # Errors
///
/// A description of the first violation found.
pub fn check(approx: &ProgressiveResult, exact: &QueryResult) -> Result<(), String> {
    let result = &approx.result;
    for truth in &exact.groups {
        let Some(value) = truth.estimate else {
            continue;
        };
        let group = result
            .groups
            .iter()
            .find(|g| g.key == truth.key)
            .ok_or_else(|| format!("group {} missing from the answer", truth.key.display()))?;
        let slack = CONTAINMENT_SLACK * value.abs().max(1.0);
        if !(group.ci.lo - slack <= value && value <= group.ci.hi + slack) {
            return Err(format!(
                "group {}: interval [{}, {}] misses the exact value {value}",
                truth.key.display(),
                group.ci.lo,
                group.ci.hi
            ));
        }
    }
    if approx.cancellation.is_none() {
        let mut got = result.selected_labels();
        let mut want = exact.selected_labels();
        got.sort();
        want.sort();
        if got != want {
            return Err(format!("selected {got:?}, exact selects {want:?}"));
        }
    }
    Ok(())
}

/// FNV-1a over the bits of an answer: every group's key, estimate,
/// interval and sample count, the selection, convergence, and the blocks
/// fetched. Timings are left out, so equal digests mean bit-identical
/// answers.
pub fn digest(result: &QueryResult) -> u64 {
    let mut h = Fnv::default();
    h.write_str(&result.query_name);
    h.write_u64(u64::from(result.converged));
    h.write_u64(result.metrics.blocks_fetched());
    for group in &result.groups {
        for &code in &group.key.codes {
            h.write_u64(u64::from(code));
        }
        h.write_u64(group.estimate.map_or(u64::MAX, f64::to_bits));
        h.write_u64(group.ci.lo.to_bits());
        h.write_u64(group.ci.hi.to_bits());
        h.write_u64(group.samples);
    }
    for &i in &result.selected {
        h.write_u64(i as u64);
    }
    h.0
}

/// Folds a sequence of per-query digests into one.
pub fn fold(digests: &[u64]) -> u64 {
    let mut h = Fnv::default();
    for &d in digests {
        h.write_u64(d);
    }
    h.0
}

/// Compares the per-query digests of two runs of the same stream over their
/// common prefix (runs stop after different numbers of cycles).
///
/// # Errors
///
/// The index of the first query whose digests differ.
pub fn compare_prefix(a: &[u64], b: &[u64]) -> Result<usize, String> {
    let common = a.len().min(b.len());
    match (0..common).find(|&i| a[i] != b[i]) {
        Some(i) => Err(format!(
            "query {i} differs ({:016x} vs {:016x})",
            a[i], b[i]
        )),
        None => Ok(common),
    }
}

struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    fn write_u64(&mut self, v: u64) {
        for byte in v.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn write_str(&mut self, s: &str) {
        for &byte in s.as_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.write_u64(s.len() as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastframe_engine::prelude::*;
    use fastframe_store::prelude::*;

    fn session() -> Session {
        let n = 6_000;
        let table = Table::new(vec![
            Column::float("v", (0..n).map(|i| (i % 3) as f64 * 10.0).collect()),
            Column::categorical(
                "g",
                &(0..n).map(|i| format!("g{}", i % 3)).collect::<Vec<_>>(),
            ),
        ])
        .unwrap();
        let mut s = Session::with_defaults(
            EngineConfig::builder()
                .delta(1e-9)
                .round_rows(500)
                .threads(2)
                .build(),
        );
        s.register("t", &table).unwrap();
        s
    }

    fn answers(s: &Session) -> (ProgressiveResult, QueryResult) {
        let q = || {
            s.query("t")
                .avg(Expr::col("v"))
                .group_by("g")
                .having_gt(5.0)
        };
        (q().progressive().unwrap(), q().execute_exact().unwrap())
    }

    #[test]
    fn a_correct_answer_passes() {
        let s = session();
        let (approx, exact) = answers(&s);
        assert_eq!(check(&approx, &exact), Ok(()));
        assert_eq!(digest(&approx.result), digest(&approx.result.clone()));
    }

    #[test]
    fn a_perturbed_exact_value_fails_the_gate() {
        let s = session();
        let (approx, mut exact) = answers(&s);
        let g = exact
            .groups
            .iter_mut()
            .find(|g| g.estimate == Some(20.0))
            .unwrap();
        g.estimate = Some(20.0 + 1_000.0);
        let err = check(&approx, &exact).unwrap_err();
        assert!(err.contains("misses the exact value"), "{err}");
    }

    #[test]
    fn a_perturbed_exact_selection_fails_the_gate() {
        let s = session();
        let (approx, mut exact) = answers(&s);
        exact.selected.pop();
        let err = check(&approx, &exact).unwrap_err();
        assert!(err.contains("selected"), "{err}");
    }

    #[test]
    fn prefixes_compare_over_the_shorter_run() {
        assert_eq!(compare_prefix(&[1, 2, 3], &[1, 2]), Ok(2));
        assert!(compare_prefix(&[1, 2, 3], &[1, 5, 3]).is_err());
        assert_ne!(fold(&[1, 2]), fold(&[2, 1]));
    }
}
