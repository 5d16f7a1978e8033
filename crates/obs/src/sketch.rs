//! A mergeable streaming quantile sketch with a guaranteed relative
//! error bound (DDSketch-style log bucketing, pure-integer mapping).
//!
//! [`LogHistogram`](crate::LogHistogram) stops being enough once
//! summaries reach into the far tail: its 32 sub-buckets per octave
//! give ~3% error, fine for p50/p99 but coarse for p99.9/p99.99, and
//! its dense `Vec` is sized for one run, not for rolling thousands of
//! per-window partials together. `QuantileSketch` trades a sparse
//! store for four times the resolution:
//!
//! * 128 linear sub-buckets per power-of-two octave, so any reported
//!   quantile (the bucket *midpoint* of the exact order statistic's
//!   bucket) is within [`QuantileSketch::MAX_RELATIVE_ERROR`] = 1/256
//!   (≈0.4%) of the true value on either side — values below 128 are
//!   exact.
//! * Deterministic, exactly commutative and associative merges: the
//!   whole `u64` range maps to fewer than 7 500 bucket indices, so no
//!   bucket collapsing is ever needed and a merge is a plain sum of
//!   sparse count lists. Two sketches built from the same multiset of
//!   samples are `==` whatever the recording or merge order, which is
//!   what lets per-thread and per-node partials roll up byte-stably.
//! * Exact `count`, `sum`, `min` and `max`, so the extreme statistics
//!   are never quantized (and `quantile(1.0)` is the true maximum).

/// Sub-bucket resolution: 2^7 = 128 linear sub-buckets per octave.
const SUB_BITS: u32 = 7;
const SUBS: u64 = 1 << SUB_BITS;

/// Bucket index of a value (values below [`SUBS`] map to themselves).
fn index_of(v: u64) -> u32 {
    if v < SUBS {
        return v as u32;
    }
    let msb = 63 - v.leading_zeros();
    let octave = msb - SUB_BITS + 1;
    let sub = ((v >> (octave - 1)) - SUBS) as u32;
    octave * SUBS as u32 + sub
}

/// Inclusive lower bound of a bucket.
fn low_of(index: u32) -> u64 {
    let index = u64::from(index);
    if index < SUBS {
        return index;
    }
    let octave = index / SUBS;
    let sub = index % SUBS;
    (SUBS + sub) << (octave - 1)
}

/// The value a bucket reports: its midpoint, so the error is two-sided
/// (half a bucket width each way) instead of a full width one-sided.
/// Buckets below [`SUBS`] hold a single value and report it exactly.
fn mid_of(index: u32) -> u64 {
    let i = u64::from(index);
    if i < SUBS {
        return i;
    }
    let octave = (i / SUBS) as u32;
    // Every sub-bucket of octave `o` spans 2^(o-1) values.
    low_of(index) + (1u64 << (octave - 1)) / 2
}

/// A sparse, mergeable log-bucketed quantile sketch of `u64` samples
/// (nanoseconds in this workspace, but unit-agnostic).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuantileSketch {
    /// `(bucket index, count)` pairs, sorted by index, counts > 0.
    buckets: Vec<(u32, u64)>,
    total: u64,
    sum: u128,
    min: u64,
    max: u64,
}

/// `default()` is [`QuantileSketch::new`]. (A derived `Default` would
/// zero the `min` sentinel that `new` pins to `u64::MAX`, making every
/// later `min()` report 0 — so the empty states must coincide for
/// sketches reached through `Default`, e.g. inside `entry().or_default()`
/// accumulators, to behave.)
impl Default for QuantileSketch {
    fn default() -> Self {
        Self::new()
    }
}

impl QuantileSketch {
    /// Worst-case relative error of any reported quantile against the
    /// exact order statistic it targets: half a sub-bucket width over
    /// the bucket's lower bound, `1 / (2 * 128)`.
    pub const MAX_RELATIVE_ERROR: f64 = 1.0 / 256.0;

    /// An empty sketch.
    #[must_use]
    pub fn new() -> Self {
        Self {
            buckets: Vec::new(),
            total: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Record one sample.
    pub fn record(&mut self, v: u64) {
        let idx = index_of(v);
        match self.buckets.binary_search_by_key(&idx, |&(i, _)| i) {
            Ok(pos) => self.buckets[pos].1 += 1,
            Err(pos) => self.buckets.insert(pos, (idx, 1)),
        }
        self.total += 1;
        self.sum += u128::from(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of recorded samples.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Whether no samples were recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Exact smallest sample, or 0 when empty.
    #[must_use]
    pub fn min(&self) -> u64 {
        if self.total == 0 {
            0
        } else {
            self.min
        }
    }

    /// Exact largest sample, or 0 when empty.
    #[must_use]
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Exact mean of the samples, or 0.0 when empty.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// Exact sum of the samples.
    #[must_use]
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// The value at quantile `q` in `[0, 1]`: the midpoint of the
    /// bucket holding the `ceil(q * count)`-th smallest sample (the
    /// same rank convention as [`LogHistogram::percentile`]), clamped
    /// to the exact min/max. Within [`Self::MAX_RELATIVE_ERROR`] of the
    /// exact order statistic on either side; 0 for an empty sketch.
    ///
    /// [`LogHistogram::percentile`]: crate::LogHistogram::percentile
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.total as f64).ceil() as u64).max(1);
        if rank >= self.total {
            return self.max;
        }
        let mut seen = 0u64;
        for &(idx, c) in &self.buckets {
            seen += c;
            if seen >= rank {
                return mid_of(idx).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Merge another sketch into this one. Exactly commutative and
    /// associative: the result is the sketch that would have recorded
    /// the combined sample multiset directly, so any merge tree over
    /// any partition of the samples yields `==` sketches.
    pub fn merge(&mut self, other: &QuantileSketch) {
        if other.total == 0 {
            return;
        }
        let mut merged = Vec::with_capacity(self.buckets.len() + other.buckets.len());
        let (mut a, mut b) = (
            self.buckets.iter().peekable(),
            other.buckets.iter().peekable(),
        );
        loop {
            match (a.peek(), b.peek()) {
                (Some(&&(ia, ca)), Some(&&(ib, cb))) => {
                    if ia < ib {
                        merged.push((ia, ca));
                        a.next();
                    } else if ib < ia {
                        merged.push((ib, cb));
                        b.next();
                    } else {
                        merged.push((ia, ca + cb));
                        a.next();
                        b.next();
                    }
                }
                (Some(&&x), None) => {
                    merged.push(x);
                    a.next();
                }
                (None, Some(&&x)) => {
                    merged.push(x);
                    b.next();
                }
                (None, None) => break,
            }
        }
        self.buckets = merged;
        self.total += other.total;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Non-empty buckets as `(lower bound, count)` pairs, ascending.
    pub fn buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets.iter().map(|&(i, c)| (low_of(i), c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LogHistogram;
    use proptest::prelude::*;

    #[test]
    fn small_values_are_exact() {
        let mut s = QuantileSketch::new();
        for v in 0..SUBS {
            s.record(v);
            assert_eq!(u64::from(index_of(v)), v);
            assert_eq!(mid_of(v as u32), v);
        }
        assert_eq!(s.count(), SUBS);
        assert_eq!(s.min(), 0);
        assert_eq!(s.max(), SUBS - 1);
        // Every quantile of 0..=127 is the exact order statistic.
        for step in 1..=10 {
            let q = f64::from(step) / 10.0;
            let rank = ((q * SUBS as f64).ceil() as u64).max(1);
            assert_eq!(s.quantile(q), rank - 1, "q={q}");
        }
    }

    #[test]
    fn empty_sketch_is_zeroed() {
        let s = QuantileSketch::new();
        assert!(s.is_empty());
        assert_eq!(s.min(), 0);
        assert_eq!(s.max(), 0);
        assert_eq!(s.quantile(0.999), 0);
        assert_eq!(s.mean(), 0.0);
    }

    #[test]
    fn tail_quantiles_on_known_distribution() {
        let mut s = QuantileSketch::new();
        for v in 1..=10_000u64 {
            s.record(v * 1_000);
        }
        for (q, exact) in [
            (0.5, 5_000_000.0),
            (0.999, 9_990_000.0),
            (0.9999, 9_999_000.0),
        ] {
            let got = s.quantile(q) as f64;
            let err = (got - exact).abs() / exact;
            assert!(
                err <= QuantileSketch::MAX_RELATIVE_ERROR,
                "q={q}: got {got}, exact {exact}, err {err}"
            );
        }
        assert_eq!(s.quantile(1.0), 10_000_000);
        assert_eq!(s.max(), 10_000_000);
    }

    proptest! {
        /// The reported value of every bucket is within 1/256 of every
        /// value the bucket can hold — the sketch's error bound, checked
        /// directly on the mapping under adversarial values.
        #[test]
        fn bucket_midpoint_error_bounded(v in 1u64..u64::MAX / 2) {
            let idx = index_of(v);
            let low = low_of(idx);
            prop_assert!(low <= v, "low({idx}) = {low} > {v}");
            let mid = mid_of(idx);
            let err = (v as f64 - mid as f64).abs() / v as f64;
            prop_assert!(
                err <= QuantileSketch::MAX_RELATIVE_ERROR,
                "err {err} for {v} (mid {mid})"
            );
        }

        /// Quantiles stay within the bound against the exact order
        /// statistic under adversarial inputs spanning many octaves.
        #[test]
        fn quantile_error_bounded_adversarially(
            mut samples in prop::collection::vec(1u64..u64::MAX / 4, 1..200),
        ) {
            let mut s = QuantileSketch::new();
            for &v in &samples {
                s.record(v);
            }
            samples.sort_unstable();
            for step in 0..=20 {
                let q = f64::from(step) / 20.0;
                let rank = ((q * samples.len() as f64).ceil() as usize).max(1);
                let exact = samples[rank - 1] as f64;
                let got = s.quantile(q) as f64;
                let err = (got - exact).abs() / exact;
                prop_assert!(
                    err <= QuantileSketch::MAX_RELATIVE_ERROR,
                    "q={q}: got {got}, exact {exact}, err {err}"
                );
            }
            prop_assert_eq!(s.quantile(1.0), *samples.last().unwrap());
            prop_assert_eq!(s.min(), samples[0]);
        }

        /// Merge is exactly commutative and associative, and any merge
        /// grouping equals direct recording — the determinism callers
        /// rely on when rolling per-node or per-cell partials up.
        #[test]
        fn merge_commutative_and_associative(
            xs in prop::collection::vec(0u64..u64::MAX / 4, 0..100),
            ys in prop::collection::vec(0u64..u64::MAX / 4, 0..100),
            zs in prop::collection::vec(0u64..u64::MAX / 4, 0..100),
        ) {
            let of = |vals: &[u64]| {
                let mut s = QuantileSketch::new();
                for &v in vals {
                    s.record(v);
                }
                s
            };
            let (a, b, c) = (of(&xs), of(&ys), of(&zs));

            let mut ab = a.clone();
            ab.merge(&b);
            let mut ba = b.clone();
            ba.merge(&a);
            prop_assert_eq!(&ab, &ba);

            let mut ab_c = ab.clone();
            ab_c.merge(&c);
            let mut bc = b.clone();
            bc.merge(&c);
            let mut a_bc = a.clone();
            a_bc.merge(&bc);
            prop_assert_eq!(&ab_c, &a_bc);

            let mut all: Vec<u64> = xs.clone();
            all.extend(&ys);
            all.extend(&zs);
            let direct = of(&all);
            prop_assert_eq!(&ab_c, &direct);
            prop_assert_eq!(ab_c.count(), all.len() as u64);
            prop_assert_eq!(
                ab_c.sum(),
                all.iter().map(|&v| u128::from(v)).sum::<u128>()
            );
        }

        /// Quantile is monotone in q and bounded by the exact extremes.
        #[test]
        fn quantile_monotone(samples in prop::collection::vec(0u64..10_000_000, 1..200)) {
            let mut s = QuantileSketch::new();
            for &v in &samples {
                s.record(v);
            }
            let mut last = 0u64;
            for step in 0..=20 {
                let q = f64::from(step) / 20.0;
                let v = s.quantile(q);
                prop_assert!(v >= last, "quantile not monotone at q={q}");
                prop_assert!(v >= s.min() && v <= s.max());
                last = v;
            }
        }

        /// Cross-check against `LogHistogram::quantile`: both report
        /// the same order statistic under the same rank convention, so
        /// on identical samples they agree to within the *sum* of their
        /// error bounds (1/64 + 1/256), and each stays within its own
        /// bound of the exact statistic.
        #[test]
        fn agrees_with_loghistogram_quantile(
            mut samples in prop::collection::vec(1u64..100_000_000, 1..150),
        ) {
            let mut s = QuantileSketch::new();
            let mut h = LogHistogram::new();
            for &v in &samples {
                s.record(v);
                h.record(v);
            }
            samples.sort_unstable();
            for step in 1..=20 {
                let q = f64::from(step) / 20.0;
                let rank = ((q * samples.len() as f64).ceil() as usize).max(1);
                let exact = samples[rank - 1] as f64;
                let from_sketch = s.quantile(q) as f64;
                let from_hist = h.quantile(q) as f64;
                prop_assert!(
                    (from_sketch - exact).abs() / exact <= 1.0 / 256.0,
                    "sketch q={q}: {from_sketch} vs {exact}"
                );
                prop_assert!(
                    (from_hist - exact).abs() / exact <= 1.0 / 64.0,
                    "hist q={q}: {from_hist} vs {exact}"
                );
                prop_assert!(
                    (from_sketch - from_hist).abs() / exact <= 1.0 / 64.0 + 1.0 / 256.0,
                    "q={q}: sketch {from_sketch} vs hist {from_hist}"
                );
            }
        }
    }
}
