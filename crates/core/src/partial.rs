//! Mergeable partial accumulator state for partitioned (multi-threaded)
//! scans.
//!
//! The engine's parallel pipeline partitions each OptStop round's block list
//! into contiguous, *thread-count-independent* partitions, accumulates one
//! partial state per partition on whichever worker picks it up, and then
//! merges the partials back into the master state **in block-id (partition)
//! order**. Because the partition boundaries and the merge order depend only
//! on the planned block list — never on how many workers existed or how they
//! were scheduled — the merged state, and therefore every estimate, variance
//! and CI bound derived from it, is bit-for-bit identical regardless of
//! thread count.
//!
//! [`PartialState`] is the contract that makes this work: a state that can be
//! sent to a worker (`Send`) and folded back deterministically (`merge`). It
//! is implemented by every accumulator on the engine's hot path — the running
//! moments behind the variance/sum paths
//! ([`RunningMoments`](crate::variance::RunningMoments)), the
//! Hoeffding/Anderson bounder states, the
//! [`RangeTrim`](crate::range_trim::RangeTrim) wrapper state, and the
//! selectivity tracker behind the COUNT path
//! ([`SelectivityTracker`](crate::count::SelectivityTracker)).
//!
//! ## Statistical validity of merged states
//!
//! For the purely additive states (counts, sums, Welford moments, Anderson's
//! retained sample) a merge reconstructs exactly the state a single pass
//! over the concatenated partitions would have built, up to floating-point
//! summation order — which the fixed merge order pins down. The one subtle
//! case is [`RangeTrim`](crate::range_trim::RangeTrim), whose inner states
//! are fed values clipped against the *prefix* running min/max: a partition
//! clips against its partition-local prefix extremes, which are at most as
//! extreme as the global prefix extremes a sequential scan would have used.
//! Clipping harder can only lower the left (lower-bound) state's values and
//! raise the right state's, and each partition additionally withholds its
//! own first observation from the inner states — both effects only *widen*
//! the resulting interval, so merged RangeTrim bounds remain valid
//! (conservative), and they are still deterministic for a fixed partition
//! layout.

/// A partial accumulator that a scan worker can build independently and the
/// merge step can fold back deterministically.
///
/// Implementations must be:
///
/// * **associative over partitions**: merging `[p0, p1, p2]` left-to-right
///   must equal merging `merge(p0, p1)` then `p2`;
/// * **deterministic**: the merged state must be a pure function of the
///   operand states (no randomness, clocks or global state), so a fixed
///   partition layout yields bit-identical results at any thread count;
/// * **identity-respecting**: merging an empty (freshly initialized) state
///   must leave the other operand's observable statistics unchanged.
pub trait PartialState: Send {
    /// Folds `other` (the partial accumulated over the *later* partition)
    /// into `self` (the earlier one, or the running master state).
    fn merge(&mut self, other: &Self);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::anderson::AndersonState;
    use crate::hoeffding::HoeffdingState;
    use crate::variance::RunningMoments;

    /// Merging a chain of per-partition partials left-to-right must be
    /// independent of how the partitions were grouped (associativity), which
    /// is what lets workers finish in any order.
    #[test]
    fn moments_partition_merge_is_associative() {
        let values: Vec<f64> = (0..999).map(|i| ((i * 37) % 100) as f64 / 7.0).collect();
        let partials: Vec<RunningMoments> = values
            .chunks(100)
            .map(|chunk| {
                let mut m = RunningMoments::new();
                for &v in chunk {
                    m.push(v);
                }
                m
            })
            .collect();

        // Left fold.
        let mut left = RunningMoments::new();
        for p in &partials {
            PartialState::merge(&mut left, p);
        }
        // Pairwise tree fold of the same sequence.
        let mut tree = partials.clone();
        while tree.len() > 1 {
            let mut next = Vec::new();
            for pair in tree.chunks(2) {
                let mut acc = pair[0];
                if let Some(rhs) = pair.get(1) {
                    PartialState::merge(&mut acc, rhs);
                }
                next.push(acc);
            }
            tree = next;
        }
        assert_eq!(left.count(), tree[0].count());
        assert!((left.mean() - tree[0].mean()).abs() < 1e-9);
        assert!((left.variance() - tree[0].variance()).abs() < 1e-9);
    }

    #[test]
    fn hoeffding_merge_matches_weighted_mean() {
        let mut a = HoeffdingState::default();
        let mut b = HoeffdingState::default();
        for v in [1.0, 2.0, 3.0] {
            a.m += 1;
            a.mean += (v - a.mean) / a.m as f64;
        }
        for v in [10.0, 20.0] {
            b.m += 1;
            b.mean += (v - b.mean) / b.m as f64;
        }
        PartialState::merge(&mut a, &b);
        assert_eq!(a.m, 5);
        assert!((a.mean - (1.0 + 2.0 + 3.0 + 10.0 + 20.0) / 5.0).abs() < 1e-12);
    }

    #[test]
    fn merging_empty_is_identity() {
        let mut a = HoeffdingState { m: 4, mean: 2.5 };
        PartialState::merge(&mut a, &HoeffdingState::default());
        assert_eq!(a.m, 4);
        assert_eq!(a.mean, 2.5);

        let mut empty = HoeffdingState::default();
        PartialState::merge(&mut empty, &a);
        assert_eq!(empty.m, 4);
        assert_eq!(empty.mean, 2.5);

        let bounder = crate::anderson::AndersonDkw::new();
        let mut anderson = AndersonState::default();
        let mut other = AndersonState::default();
        for v in [5.0, 7.0] {
            crate::bounder::ErrorBounder::update_state(&bounder, &mut other, v);
        }
        PartialState::merge(&mut anderson, &other);
        assert_eq!(anderson.sample(), [5.0, 7.0]);
        assert_eq!(
            crate::bounder::ErrorBounder::estimate(&bounder, &anderson),
            Some(6.0)
        );

        // Merging an empty state into a non-empty one keeps both values, and
        // a later partial's values follow the earlier ones in merge order.
        PartialState::merge(&mut anderson, &AndersonState::default());
        assert_eq!(anderson.sample(), [5.0, 7.0]);
        let mut later = AndersonState::default();
        crate::bounder::ErrorBounder::update_state(&bounder, &mut later, 1.0);
        PartialState::merge(&mut anderson, &later);
        assert_eq!(anderson.sample(), [5.0, 7.0, 1.0]);
        assert_eq!(
            crate::bounder::ErrorBounder::estimate(&bounder, &anderson),
            Some(13.0 / 3.0)
        );
    }

    /// The same partial merged in the same order always produces bitwise
    /// identical floats — the engine's determinism guarantee leans on this.
    #[test]
    fn merge_is_bitwise_deterministic() {
        let build = || {
            let mut m = RunningMoments::new();
            let mut parts = Vec::new();
            for chunk in 0..7 {
                let mut p = RunningMoments::new();
                for i in 0..53 {
                    p.push(((chunk * 53 + i) as f64).sin() * 1e3);
                }
                parts.push(p);
            }
            for p in &parts {
                PartialState::merge(&mut m, p);
            }
            (m.mean().to_bits(), m.variance().to_bits(), m.count())
        };
        assert_eq!(build(), build());
    }
}
