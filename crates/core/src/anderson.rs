//! The Anderson/DKW error bounder (Algorithm 3).
//!
//! Anderson (1969) showed how to turn a high-probability confidence *band*
//! around the CDF into confidence bounds on the mean, using the identity
//! `µ = b − ∫_a^b F(x) dx` (Lemma 2). The band itself comes from the
//! Dvoretzky–Kiefer–Wolfowitz inequality with Massart's tight constant
//! (Lemma 3): with probability at least `1 − δ`, the empirical CDF deviates
//! from the true CDF by at most `ε = sqrt(log(1/δ) / (2m))` everywhere.
//!
//! Theorem 1 of the paper shows DKW continues to hold when the sample is
//! drawn *without replacement* from a finite dataset, so the bounder is valid
//! in the FastFrame setting as well.
//!
//! The resulting lower bound drops the `ε`-fraction largest observed points
//! and re-allocates their mass to the lower range bound `a`:
//!
//! ```text
//! Lbound = ε·a + (1 − ε)·AVG({ x ∈ S : F̂(x) ≤ 1 − ε })
//! ```
//!
//! This bounder exhibits **PMA** (the re-allocated mass is pinned to `a`
//! regardless of what was observed) but **not PHOS** (the lower bound never
//! consults `b`), the mirror image of Bernstein's profile — see Table 2.
//! Unlike the other bounders it must retain the full sample, so its memory
//! footprint is `O(m)`.
//!
//! Both bounds read the sample in ascending order. The state keeps it sorted
//! incrementally: updates and merges append to an unsorted *fresh* tail in
//! O(k), and [`ErrorBounder::settle`] — which the engine calls once per AVG
//! or SUM view at each OptStop round boundary — sorts the tail and merges it
//! into the *settled* ascending prefix in place. A round with `k` new values
//! on a sample of `m` therefore costs O(m + k log k) instead of two full
//! sorts, and a round with no new value costs no settle work. The settled order is
//! exactly the stable sort of the arrival-order sample (equal values keep
//! their arrival order), so the trimmed sums, and with them every bound, are
//! the same bits whether or not `settle` ran. What remains per round is the
//! two trimmed sums, O(m) each and sequential to keep their bits; the
//! two-sided [`ErrorBounder::interval`] folds both in one pass.

use std::borrow::Cow;

use crate::bounder::{BoundContext, Ci, ErrorBounder};

/// The number of values `<= v` in the ascending, NaN-free `sorted`, found
/// by galloping back from its end: O(log g) for the `g` values above `v`.
fn count_at_most(sorted: &[f64], v: f64) -> usize {
    let end = sorted.len();
    let mut step = 1;
    while step <= end && sorted[end - step] > v {
        step *= 2;
    }
    // Every value from `end - step / 2` on is above `v`; the one at
    // `end - step`, if any, is not.
    let lo = end.saturating_sub(step);
    let hi = end - step / 2;
    lo + sorted[lo..hi].partition_point(|&x| x <= v)
}

/// Streaming state for [`AndersonDkw`]: the retained sample (O(m) memory).
///
/// The sample is held in two parts: a *settled* prefix in ascending order,
/// and a *fresh* tail of the values folded in since the last
/// [`Self::settle`], in arrival order.
#[derive(Debug, Clone, Default)]
pub struct AndersonState {
    /// The settled prefix (ascending; equal values in arrival order), then
    /// the fresh tail. Equal values in the tail are in arrival order, which
    /// is all the stable sort in `settle` needs.
    sample: Vec<f64>,
    /// Length of the settled prefix.
    settled: usize,
    /// Running sum (for the point estimate), in arrival order.
    sum: f64,
}

impl AndersonState {
    /// Folds a batch of values in slice order — bit-identical to pushing the
    /// values one at a time (the running sum accumulates in slice order).
    pub fn push_batch(&mut self, values: &[f64]) {
        self.sample.extend_from_slice(values);
        for &v in values {
            self.sum += v;
        }
    }

    /// Merges another partial state into this one by appending its retained
    /// values — settled prefix, then fresh tail — to this state's fresh
    /// tail, and summing the running sums in merge order. The settled prefix
    /// of `other` keeps its equal values in arrival order, so the next
    /// [`Self::settle`] yields the stable sort of the concatenated arrival
    /// orders, as if one scan had seen both partitions in turn.
    pub fn merge(&mut self, other: &AndersonState) {
        self.sample.extend_from_slice(&other.sample);
        self.sum += other.sum;
    }

    /// The retained values: the settled prefix in ascending order, then the
    /// fresh tail in the order it was folded in.
    pub fn sample(&self) -> &[f64] {
        &self.sample
    }

    /// Sorts the fresh tail and merges it into the settled prefix, so the
    /// whole sample is ascending. Costs O(m + k log k) for `m` settled and
    /// `k` fresh values, and nothing when no value arrived since the last
    /// call. On equal values the older one stays first.
    ///
    /// # Panics
    ///
    /// If the sample holds a NaN and at least one other value.
    pub fn settle(&mut self) {
        let settled = std::mem::replace(&mut self.settled, self.sample.len());
        if settled == self.sample.len() {
            return;
        }
        self.sample[settled..]
            .sort_by(|x, y| x.partial_cmp(y).expect("sample values must not be NaN"));
        if settled == 0 {
            return;
        }
        // A sort of two or more values compares each of them, so a NaN among
        // them has panicked already. A lone value on either side has never
        // been compared: check it here, as the merge below compares plainly.
        assert!(
            !(self.sample[0].is_nan() || self.sample[settled].is_nan()),
            "sample values must not be NaN"
        );
        // Merge from the back: each fresh value, largest first, moves the
        // settled values greater than it up as one block, so every value
        // moves at most once and those below the smallest fresh value never.
        let fresh = self.sample[settled..].to_vec();
        let (mut i, mut j) = (settled, fresh.len());
        while j > 0 {
            let v = fresh[j - 1];
            let p = count_at_most(&self.sample[..i], v);
            self.sample.copy_within(p..i, p + j);
            j -= 1;
            self.sample[p + j] = v;
            i = p;
        }
    }

    /// The whole sample in ascending order: the sample itself when it is
    /// settled, else a settled copy.
    fn sorted(&self) -> Cow<'_, [f64]> {
        if self.settled == self.sample.len() {
            return Cow::Borrowed(&self.sample);
        }
        let mut copy = self.clone();
        copy.settle();
        Cow::Owned(copy.sample)
    }
}

impl crate::partial::PartialState for AndersonState {
    fn merge(&mut self, other: &Self) {
        AndersonState::merge(self, other);
    }
}

/// The Anderson/DKW error bounder (Algorithm 3 in the paper).
#[derive(Debug, Clone, Copy, Default)]
pub struct AndersonDkw;

impl AndersonDkw {
    /// Creates the bounder.
    pub fn new() -> Self {
        Self
    }

    /// The DKW band half-width `ε = sqrt(log(1/δ) / (2m))`.
    pub fn band_epsilon(m: u64, delta: f64) -> f64 {
        if m == 0 {
            return f64::INFINITY;
        }
        ((1.0 / delta).ln() / (2.0 * m as f64)).sqrt()
    }

    /// The band half-width and the number of values each bound keeps for a
    /// sample of `m` at `delta`, or `None` when the bound is the range end
    /// itself (no sample, `ε ≥ 1`, or nothing kept).
    fn trim(m: usize, delta: f64) -> Option<(f64, usize)> {
        let eps = Self::band_epsilon(m as u64, delta);
        if eps >= 1.0 {
            return None;
        }
        // F̂(x) for the i-th smallest (0-based) value is (i+1)/m; keep values
        // with F̂(x) <= 1 - eps, i.e. the smallest `keep` values where
        // keep = floor((1 - eps) * m).
        let keep = ((1.0 - eps) * m as f64).floor() as usize;
        (keep > 0).then_some((eps, keep))
    }

    /// `ε·edge + (1−ε)·AVG(kept)`, the kept values' sum given.
    fn reallocate(eps: f64, edge: f64, kept_sum: f64, keep: usize) -> f64 {
        eps * edge + (1.0 - eps) * (kept_sum / keep as f64)
    }

    /// Core of Algorithm 3's `Lbound`: computes
    /// `ε·a + (1−ε)·AVG({x ∈ sorted : F̂(x) ≤ 1 − ε})` for an already-sorted
    /// sample.
    fn lbound_sorted(sorted: &[f64], a: f64, delta: f64) -> f64 {
        match Self::trim(sorted.len(), delta) {
            None => a,
            Some((eps, keep)) => Self::reallocate(eps, a, sorted[..keep].iter().sum(), keep),
        }
    }

    /// Direct form of Algorithm 3's `Rbound`.
    ///
    /// Algorithm 3 defines `Rbound(S, a, b, N, δ) = (a+b) − Lbound((a+b) − S,
    /// a, b, N, δ)`. Expanding the reflection, the `a` terms cancel exactly
    /// and the bound equals `ε·b + (1−ε)·AVG(top keep values)`; computing it
    /// in this direct form avoids catastrophic cancellation for extreme range
    /// bounds and makes the absence of PHOS (no dependence on `a`) explicit.
    fn rbound_sorted(sorted: &[f64], b: f64, delta: f64) -> f64 {
        let m = sorted.len();
        match Self::trim(m, delta) {
            None => b,
            Some((eps, keep)) => Self::reallocate(eps, b, sorted[m - keep..].iter().sum(), keep),
        }
    }
}

impl ErrorBounder for AndersonDkw {
    type State = AndersonState;

    fn init_state(&self) -> Self::State {
        AndersonState::default()
    }

    #[inline]
    fn update_state(&self, state: &mut Self::State, v: f64) {
        state.sample.push(v);
        state.sum += v;
    }

    fn update_batch(&self, state: &mut Self::State, values: &[f64]) {
        state.push_batch(values);
    }

    fn settle(&self, state: &mut Self::State) {
        state.settle();
    }

    fn lbound(&self, state: &Self::State, ctx: &BoundContext) -> f64 {
        if state.sample.is_empty() {
            return ctx.a;
        }
        Self::lbound_sorted(&state.sorted(), ctx.a, ctx.delta).max(ctx.a)
    }

    fn rbound(&self, state: &Self::State, ctx: &BoundContext) -> f64 {
        if state.sample.is_empty() {
            return ctx.b;
        }
        Self::rbound_sorted(&state.sorted(), ctx.b, ctx.delta).min(ctx.b)
    }

    /// Both bounds of the two-sided interval run at `δ/2` on the same
    /// sample, so they keep the same number of values from opposite ends.
    /// One pass folds both trimmed sums, each in the order `lbound` and
    /// `rbound` add it — the same bits as the two calls — while the two
    /// independent chains of additions overlap instead of running in turn.
    fn interval(&self, state: &Self::State, ctx: &BoundContext) -> Ci {
        let sorted = state.sorted();
        let m = sorted.len();
        let (lo, hi) = match Self::trim(m, ctx.delta * 0.5) {
            None => (ctx.a, ctx.b),
            Some((eps, keep)) => {
                // `-0.0` is the additive identity `Iterator::sum` starts from.
                let (low, high) = sorted[..keep]
                    .iter()
                    .zip(&sorted[m - keep..])
                    .fold((-0.0, -0.0), |(low, high), (x, y)| (low + x, high + y));
                (
                    Self::reallocate(eps, ctx.a, low, keep),
                    Self::reallocate(eps, ctx.b, high, keep),
                )
            }
        };
        let (lo, hi) = (lo.max(ctx.a), hi.min(ctx.b));
        Ci::new(lo.min(hi), hi.max(lo)).clamp_to(ctx.a, ctx.b)
    }

    fn observed(&self, state: &Self::State) -> u64 {
        state.sample.len() as u64
    }

    fn estimate(&self, state: &Self::State) -> Option<f64> {
        (!state.sample.is_empty()).then(|| state.sum / state.sample.len() as f64)
    }

    fn name(&self) -> &'static str {
        "anderson-dkw"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounder::BoundContext;
    use crate::partial::PartialState;
    use crate::range_trim::RangeTrim;
    use proptest::prelude::*;

    fn ctx(a: f64, b: f64, n: u64, delta: f64) -> BoundContext {
        BoundContext::new(a, b, n, delta).unwrap()
    }

    fn feed(values: &[f64]) -> AndersonState {
        let b = AndersonDkw::new();
        let mut st = b.init_state();
        for &v in values {
            b.update_state(&mut st, v);
        }
        st
    }

    #[test]
    fn empty_state_returns_range_bounds() {
        let b = AndersonDkw::new();
        let st = b.init_state();
        let c = ctx(0.0, 1.0, 100, 0.05);
        assert_eq!(b.lbound(&st, &c), 0.0);
        assert_eq!(b.rbound(&st, &c), 1.0);
    }

    #[test]
    fn band_epsilon_closed_form() {
        let eps = AndersonDkw::band_epsilon(200, 0.05);
        assert!((eps - ((1.0f64 / 0.05).ln() / 400.0).sqrt()).abs() < 1e-12);
        assert!(AndersonDkw::band_epsilon(0, 0.05).is_infinite());
    }

    #[test]
    fn estimate_is_sample_mean() {
        let b = AndersonDkw::new();
        let st = feed(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(b.observed(&st), 4);
        assert!((b.estimate(&st).unwrap() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn interval_contains_true_mean_of_uniform_data() {
        let values: Vec<f64> = (0..5000).map(|i| (i % 100) as f64 / 100.0).collect();
        let mean = values.iter().sum::<f64>() / values.len() as f64;
        let b = AndersonDkw::new();
        let st = feed(&values);
        let c = ctx(0.0, 1.0, 1_000_000, 1e-9);
        let ci = b.interval(&st, &c);
        assert!(ci.contains(mean), "{ci:?} should contain {mean}");
    }

    #[test]
    fn interval_shrinks_with_more_samples() {
        let small: Vec<f64> = (0..200).map(|i| (i % 10) as f64).collect();
        let large: Vec<f64> = (0..20_000).map(|i| (i % 10) as f64).collect();
        let b = AndersonDkw::new();
        let c = ctx(0.0, 10.0, 10_000_000, 1e-9);
        let w_small = b.interval(&feed(&small), &c).width();
        let w_large = b.interval(&feed(&large), &c).width();
        assert!(w_large < w_small);
    }

    #[test]
    fn lower_bound_ignores_upper_range_bound() {
        // No PHOS: widening b must not change the lower bound.
        let values: Vec<f64> = (0..1000).map(|i| 10.0 + (i % 5) as f64).collect();
        let b = AndersonDkw::new();
        let st = feed(&values);
        let narrow = ctx(0.0, 100.0, 1_000_000, 1e-9);
        let wide = ctx(0.0, 1_000_000.0, 1_000_000, 1e-9);
        assert_eq!(b.lbound(&st, &narrow), b.lbound(&st, &wide));
    }

    #[test]
    fn upper_bound_ignores_lower_range_bound() {
        let values: Vec<f64> = (0..1000).map(|i| 10.0 + (i % 5) as f64).collect();
        let b = AndersonDkw::new();
        let st = feed(&values);
        let narrow = ctx(0.0, 100.0, 1_000_000, 1e-9);
        let wide = ctx(-1_000_000.0, 100.0, 1_000_000, 1e-9);
        let r_narrow = b.rbound(&st, &narrow);
        let r_wide = b.rbound(&st, &wide);
        assert!(
            (r_narrow - r_wide).abs() < 1e-9,
            "rbound must not depend on a: {r_narrow} vs {r_wide}"
        );
    }

    #[test]
    fn lower_bound_exhibits_pma() {
        // PMA: raising the *smallest* observed values (while keeping them in
        // the dropped/retained structure comparable) does not tighten the
        // lower bound width contribution from the re-allocated mass, because
        // that mass is always pinned to `a`. We verify the characteristic
        // symptom: the lower bound for data far above `a` is dragged down by
        // the ε·a term.
        let values = vec![500.0; 1000];
        let b = AndersonDkw::new();
        let st = feed(&values);
        let c = ctx(0.0, 1000.0, 1_000_000, 1e-9);
        let lb = b.lbound(&st, &c);
        let eps = AndersonDkw::band_epsilon(1000, 1e-9);
        // All retained values are 500, so Lbound = (1-ε)·500 exactly.
        assert!((lb - (1.0 - eps) * 500.0).abs() < 1e-9);
        assert!(lb < 500.0 - 10.0, "mass pinned to a drags the bound down");
    }

    #[test]
    fn tiny_sample_returns_range_bound() {
        // With m = 1 and small delta, ε ≥ 1 so the bound degenerates to a.
        let b = AndersonDkw::new();
        let st = feed(&[5.0]);
        let c = ctx(0.0, 10.0, 100, 1e-9);
        assert_eq!(b.lbound(&st, &c), 0.0);
        assert_eq!(b.rbound(&st, &c), 10.0);
    }

    #[test]
    fn bounds_clamped_to_range() {
        let values: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let b = AndersonDkw::new();
        let st = feed(&values);
        let c = ctx(0.0, 99.0, 10_000, 1e-15);
        let ci = b.interval(&st, &c);
        assert!(ci.lo >= 0.0 && ci.hi <= 99.0);
    }

    #[test]
    fn reflection_symmetry() {
        // Algorithm 3's definition: Rbound of data x equals
        // (a+b) − Lbound of the reflected data (a+b) − x. The direct
        // implementation must agree with the reflection form.
        let values: Vec<f64> = (0..2000).map(|i| (i % 37) as f64).collect();
        let reflected: Vec<f64> = values.iter().map(|v| 100.0 - v).collect();
        let b = AndersonDkw::new();
        let c = ctx(0.0, 100.0, 1_000_000, 1e-6);
        let r = b.rbound(&feed(&values), &c);
        let l = b.lbound(&feed(&reflected), &c);
        assert!(
            (r - (100.0 - l)).abs() < 1e-9,
            "r = {r}, 100 - l = {}",
            100.0 - l
        );
    }

    #[test]
    fn settle_merges_fresh_values_into_ascending_order() {
        let b = AndersonDkw::new();
        let mut st = feed(&[3.0, 1.0, 2.0]);
        b.settle(&mut st);
        assert_eq!(st.sample(), [1.0, 2.0, 3.0]);
        b.update_batch(&mut st, &[2.0, 0.5, 9.0]);
        assert_eq!(st.sample(), [1.0, 2.0, 3.0, 2.0, 0.5, 9.0]);
        b.settle(&mut st);
        assert_eq!(st.sample(), [0.5, 1.0, 2.0, 2.0, 3.0, 9.0]);
        // Settling again with nothing new leaves the sample as it is.
        b.settle(&mut st);
        assert_eq!(st.sample().len(), 6);
        assert!((b.estimate(&st).unwrap() - 17.5 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn settle_keeps_older_zeros_first() {
        // -0.0 and +0.0 compare equal, so only a stable order tells them
        // apart; the settled sample keeps them in arrival order.
        let b = AndersonDkw::new();
        let mut st = feed(&[0.0, 1.0]);
        b.settle(&mut st);
        b.update_batch(&mut st, &[-0.0, 0.0, -1.0]);
        b.settle(&mut st);
        let bits: Vec<u64> = st.sample().iter().map(|v| v.to_bits()).collect();
        let expected: Vec<u64> = [-1.0, 0.0, -0.0, 0.0, 1.0]
            .iter()
            .map(|v: &f64| v.to_bits())
            .collect();
        assert_eq!(bits, expected);
    }

    #[test]
    #[should_panic(expected = "sample values must not be NaN")]
    fn settle_rejects_nan() {
        let b = AndersonDkw::new();
        let mut st = feed(&[1.0, 2.0]);
        b.settle(&mut st);
        b.update_state(&mut st, f64::NAN);
        b.settle(&mut st);
    }

    /// The state before incremental settling, kept as the oracle: the
    /// arrival-order sample, which every bound clones and stably sorts.
    #[derive(Debug, Clone, Default)]
    struct ReferenceState {
        sample: Vec<f64>,
        sum: f64,
    }

    impl PartialState for ReferenceState {
        fn merge(&mut self, other: &Self) {
            self.sample.extend_from_slice(&other.sample);
            self.sum += other.sum;
        }
    }

    /// Anderson/DKW with clone-and-sort bounds.
    #[derive(Debug, Clone, Copy)]
    struct ReferenceAnderson;

    fn reference_sorted(sample: &[f64]) -> Vec<f64> {
        let mut sorted = sample.to_vec();
        sorted.sort_by(|x, y| x.partial_cmp(y).expect("sample values must not be NaN"));
        sorted
    }

    impl ErrorBounder for ReferenceAnderson {
        type State = ReferenceState;

        fn init_state(&self) -> ReferenceState {
            ReferenceState::default()
        }

        fn update_state(&self, state: &mut ReferenceState, v: f64) {
            state.sample.push(v);
            state.sum += v;
        }

        fn lbound(&self, state: &ReferenceState, ctx: &BoundContext) -> f64 {
            if state.sample.is_empty() {
                return ctx.a;
            }
            AndersonDkw::lbound_sorted(&reference_sorted(&state.sample), ctx.a, ctx.delta)
                .max(ctx.a)
        }

        fn rbound(&self, state: &ReferenceState, ctx: &BoundContext) -> f64 {
            if state.sample.is_empty() {
                return ctx.b;
            }
            AndersonDkw::rbound_sorted(&reference_sorted(&state.sample), ctx.b, ctx.delta)
                .min(ctx.b)
        }

        fn observed(&self, state: &ReferenceState) -> u64 {
            state.sample.len() as u64
        }

        fn estimate(&self, state: &ReferenceState) -> Option<f64> {
            (!state.sample.is_empty()).then(|| state.sum / state.sample.len() as f64)
        }

        fn name(&self) -> &'static str {
            "anderson-dkw-reference"
        }
    }

    /// Heavy ties, both zeros, and a few distinct values.
    const PALETTE: [f64; 9] = [-0.0, 0.0, 0.0, -0.0, 1.0, 1.0, 2.5, -3.0, 4.0];

    #[derive(Debug, Clone)]
    enum Op {
        /// One `update_state` per value.
        Observe(Vec<f64>),
        /// One `update_batch`.
        Batch(Vec<f64>),
        /// Merges a partial fed `head`, optionally settled, then fed `tail`.
        Merge {
            head: Vec<f64>,
            settle_head: bool,
            tail: Vec<f64>,
        },
        Settle,
    }

    fn op() -> impl Strategy<Value = Op> {
        let values = || proptest::collection::vec(0..PALETTE.len(), 0..6);
        (0usize..4, values(), values(), any::<bool>()).prop_map(|(kind, a, b, flag)| {
            let a: Vec<f64> = a.into_iter().map(|i| PALETTE[i]).collect();
            let b: Vec<f64> = b.into_iter().map(|i| PALETTE[i]).collect();
            match kind {
                0 => Op::Observe(a),
                1 => Op::Batch(a),
                2 => Op::Merge {
                    head: a,
                    settle_head: flag,
                    tail: b,
                },
                _ => Op::Settle,
            }
        })
    }

    fn apply<B: ErrorBounder>(bounder: &B, state: &mut B::State, op: &Op) {
        match op {
            Op::Observe(values) => {
                for &v in values {
                    bounder.update_state(state, v);
                }
            }
            Op::Batch(values) => bounder.update_batch(state, values),
            Op::Merge {
                head,
                settle_head,
                tail,
            } => {
                let mut other = bounder.init_state();
                bounder.update_batch(&mut other, head);
                if *settle_head {
                    bounder.settle(&mut other);
                }
                bounder.update_batch(&mut other, tail);
                bounder.merge_state(state, &other);
            }
            Op::Settle => bounder.settle(state),
        }
    }

    /// Contexts whose range ends are signed zeros let a zero's sign reach
    /// the bound; the deltas span ε ≥ 1 down to small ε for these sizes.
    fn contexts() -> Vec<BoundContext> {
        let mut out = Vec::new();
        for (a, b) in [(-0.0, 4.0), (-4.0, 0.0), (-3.0, 4.0)] {
            for n in [50, 100_000] {
                for delta in [0.9, 0.2, 1e-3] {
                    out.push(ctx(a, b, n, delta));
                }
            }
        }
        out
    }

    /// Runs `ops` through the bounder under test and the reference, and
    /// checks every observable output bit for bit after each step.
    fn check_against_reference<B: ErrorBounder, R: ErrorBounder>(
        bounder: &B,
        reference: &R,
        ops: &[Op],
    ) {
        let contexts = contexts();
        let mut state = bounder.init_state();
        let mut oracle = reference.init_state();
        for (step, op) in ops.iter().enumerate() {
            apply(bounder, &mut state, op);
            apply(reference, &mut oracle, op);
            let at = || format!("{} after step {step} ({op:?}) of {ops:?}", bounder.name());
            assert_eq!(
                bounder.observed(&state),
                reference.observed(&oracle),
                "{}",
                at()
            );
            assert_eq!(
                bounder.estimate(&state).map(f64::to_bits),
                reference.estimate(&oracle).map(f64::to_bits),
                "estimate: {}",
                at()
            );
            for c in &contexts {
                let bits = |lo: f64, hi: f64| (lo.to_bits(), hi.to_bits());
                assert_eq!(
                    bits(bounder.lbound(&state, c), bounder.rbound(&state, c)),
                    bits(reference.lbound(&oracle, c), reference.rbound(&oracle, c)),
                    "bounds at {c:?}: {}",
                    at()
                );
                let (ci, ref_ci) = (bounder.interval(&state, c), reference.interval(&oracle, c));
                assert_eq!(
                    bits(ci.lo, ci.hi),
                    bits(ref_ci.lo, ref_ci.hi),
                    "interval at {c:?}: {}",
                    at()
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        /// Settling is invisible: for any interleaving of updates, batches,
        /// merges (of partials with and without a settled part) and
        /// settles, the plain and the RangeTrim-wrapped bounder give the
        /// same bits as clone-and-sort bounds over the arrival order.
        #[test]
        fn settled_bounds_match_clone_and_sort_bit_for_bit(
            ops in proptest::collection::vec(op(), 1..24),
        ) {
            check_against_reference(&AndersonDkw::new(), &ReferenceAnderson, &ops);
            check_against_reference(
                &RangeTrim::new(AndersonDkw::new()),
                &RangeTrim::new(ReferenceAnderson),
                &ops,
            );
        }
    }
}
