//! The incremental two-sample Kolmogorov-Smirnov test over paired sliding
//! windows.
//!
//! The paper's streaming deployment (Section 6.1.1) tests the last `w`
//! observations (the test window) against the `w` before them (the
//! reference window). [`SlidingKs`] keeps exactly that: one ring of the
//! last `2w` raw observations and one [`WeightedTreap`] over their values,
//! so the KS decision on every push costs `O(log w)` instead of a full
//! `O(w log w)` recomputation.
//!
//! ### How
//!
//! Give each reference observation weight `+1` and each test observation
//! weight `-1` in the treap. With both windows full (`n = m = w`), the
//! prefix sum at sorted position `x` is
//!
//! ```text
//! |{r <= x}| - |{t <= x}| = w·(F_R(x) - F_T(x))
//! ```
//!
//! so `D = max_x |prefix(x)| / w`, read at the treap root. One slide is
//! three weight updates: the oldest reference point leaves (`-1`), the
//! oldest test point is promoted to the reference window (`-1 → +1`), and
//! the new observation enters the test window (`-1`). While the windows
//! fill, pushes only append to the ring; the push that fills them builds
//! the treap in one sort and a linear pass.
//!
//! The treap is keyed by `value + 0.0`, which maps `-0.0` onto `0.0`: the
//! batch statistic ([`moche_core::ks_statistic`]) treats the two zeros as
//! one tied value, and so must the prefix sums. The ring keeps the raw
//! values, so window contents, snapshots and explanations see the
//! observations exactly as pushed.

use crate::treap::WeightedTreap;
use moche_core::{KsConfig, KsOutcome};
use std::collections::VecDeque;

/// Paired sliding windows of width `w` with an `O(log w)` KS statistic.
///
/// The first `w` observations pushed fill the reference window, the next
/// `w` the test window; every later push slides both windows by one.
///
/// # Examples
///
/// ```
/// use moche_stream::SlidingKs;
///
/// let mut ks = SlidingKs::new(50);
/// for i in 0..100 {
///     ks.push(f64::from(i % 10));
/// }
/// assert_eq!(ks.statistic(), Some(0.0)); // identical distributions
///
/// // One outlying observation slides in: O(log w).
/// ks.push(99.0);
/// assert!(ks.statistic().unwrap() > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct SlidingKs {
    window: usize,
    /// The last `≤ 2w` raw observations, oldest first: `[..w]` is the
    /// reference window, `[w..]` the test window.
    ring: VecDeque<f64>,
    /// `+1` per reference and `-1` per test observation, keyed by the
    /// canonical value (see the module docs); empty until the ring is full.
    treap: WeightedTreap,
}

/// The treap key of an observation: `-0.0` and `0.0` tie, as in the batch
/// statistic.
#[inline]
fn key(value: f64) -> f64 {
    value + 0.0
}

impl SlidingKs {
    /// Empty windows of width `window`.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn new(window: usize) -> Self {
        assert!(window > 0, "sliding windows need at least one point each");
        Self {
            window,
            ring: VecDeque::with_capacity(2 * window),
            treap: WeightedTreap::new(0x1C5B),
        }
    }

    /// Observations currently held (at most `2w`).
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Whether no observation is held.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Whether both windows are full, i.e. a KS decision is available.
    pub fn is_full(&self) -> bool {
        self.ring.len() == 2 * self.window
    }

    /// Admits one observation: fills the reference window, then the test
    /// window, then slides both. `O(1)` while filling, `O(w log w)` for the
    /// push that fills the windows, `O(log w)` expected per slide.
    ///
    /// # Panics
    ///
    /// Panics on non-finite values (the windows are left unchanged).
    pub fn push(&mut self, value: f64) {
        assert!(value.is_finite(), "observations must be finite");
        if !self.is_full() {
            self.ring.push_back(value);
            if self.is_full() {
                self.build_treap();
            }
            return;
        }
        let w = self.window;
        if let Some(oldest) = self.ring.pop_front() {
            // After the pop, the oldest test point sits at index w - 1.
            let promoted = self.ring[w - 1];
            self.treap.update(key(oldest), -1, -1);
            self.treap.update(key(promoted), 2, 0);
            self.treap.update(key(value), -1, 1);
        }
        self.ring.push_back(value);
    }

    /// Builds the treap over the full ring: one sort, one linear pass.
    fn build_treap(&mut self) {
        let w = self.window;
        let mut items: Vec<(f64, i64)> = self
            .ring
            .iter()
            .enumerate()
            .map(|(i, &v)| (key(v), if i < w { 1 } else { -1 }))
            .collect();
        items.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
        self.treap.rebuild_sorted(&items);
    }

    /// Empties both windows, keeping every allocation for reuse.
    pub fn clear(&mut self) {
        self.ring.clear();
        self.treap.clear();
    }

    /// The KS statistic `D(R, T)`, or `None` until both windows are full:
    /// the integer `k = max_x |#{r <= x} - #{t <= x}|` divided by `w`,
    /// rounded once.
    pub fn statistic(&self) -> Option<f64> {
        self.is_full().then(|| self.treap.max_abs_prefix() as f64 / self.window as f64)
    }

    /// The KS decision at the configured significance level, or `None`
    /// until both windows are full.
    pub fn outcome(&self, cfg: &KsConfig) -> Option<KsOutcome> {
        let statistic = self.statistic()?;
        let w = self.window;
        Some(KsOutcome {
            statistic,
            threshold: cfg.threshold(w, w),
            rejected: cfg.rejects(statistic, w, w),
            n: w,
            m: w,
        })
    }

    /// The reference window, oldest first.
    pub fn reference(&self) -> impl Iterator<Item = f64> + '_ {
        self.ring.range(..self.ring.len().min(self.window)).copied()
    }

    /// The test window, oldest first.
    pub fn test(&self) -> impl Iterator<Item = f64> + '_ {
        self.ring.range(self.ring.len().min(self.window)..).copied()
    }

    /// Both windows as contiguous slices `(reference, test)`. Rotates the
    /// ring in place when it wraps (`O(w)`, no allocation).
    pub fn windows(&mut self) -> (&[f64], &[f64]) {
        let split = self.ring.len().min(self.window);
        self.ring.make_contiguous().split_at(split)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moche_core::ks_statistic;

    /// Pushes `series` and checks the statistic against the batch value of
    /// the last `2w` observations after every push that fills the windows.
    fn check_against_batch(w: usize, series: &[f64]) {
        let mut ks = SlidingKs::new(w);
        for (i, &v) in series.iter().enumerate() {
            ks.push(v);
            if i + 1 < 2 * w {
                assert_eq!(ks.statistic(), None, "i = {i}");
                continue;
            }
            let lo = i + 1 - 2 * w;
            let batch = ks_statistic(&series[lo..lo + w], &series[lo + w..=i]).unwrap();
            let inc = ks.statistic().unwrap();
            assert!((inc - batch).abs() <= f64::EPSILON, "i = {i}: {inc} vs {batch}");
        }
    }

    #[test]
    fn slide_keeps_statistic_exact() {
        let series: Vec<f64> = (0..200).map(|i| ((i * 29) % 23) as f64 * 0.5).collect();
        check_against_batch(40, &series);
        check_against_batch(2, &series);
    }

    #[test]
    fn statistic_is_max_prefix_over_w() {
        // Disjoint windows: every reference point below every test point.
        let mut ks = SlidingKs::new(3);
        for v in [1.0, 2.0, 3.0, 4.0, 5.0, 6.0] {
            ks.push(v);
        }
        assert_eq!(ks.statistic(), Some(1.0));
        ks.push(0.5); // R = {2, 3, 4}, T = {5, 6, 0.5}
        assert_eq!(ks.statistic().unwrap().to_bits(), (2.0f64 / 3.0).to_bits());
    }

    #[test]
    fn outcome_matches_config_decision() {
        let cfg = KsConfig::new(0.05).unwrap();
        let mut ks = SlidingKs::new(100);
        assert!(ks.outcome(&cfg).is_none(), "no decision while warming");
        for i in 0..100 {
            ks.push(f64::from(i % 10));
        }
        for i in 0..100 {
            ks.push(f64::from(i % 10) + 6.0);
        }
        let o = ks.outcome(&cfg).unwrap();
        assert!(o.rejected, "disjoint-ish samples must fail");
        assert_eq!((o.n, o.m), (100, 100));
        assert_eq!(o.threshold.to_bits(), cfg.threshold(100, 100).to_bits());
    }

    #[test]
    fn duplicate_values_are_fine() {
        let mut ks = SlidingKs::new(20);
        for _ in 0..60 {
            ks.push(5.0);
        }
        assert_eq!(ks.statistic(), Some(0.0));
    }

    #[test]
    fn signed_zeros_tie_like_the_batch_statistic() {
        let mut ks = SlidingKs::new(2);
        for v in [-0.0, -0.0, 0.0, 0.0] {
            ks.push(v);
        }
        assert_eq!(ks_statistic(&[-0.0, -0.0], &[0.0, 0.0]).unwrap(), 0.0);
        assert_eq!(ks.statistic(), Some(0.0));
        // The ring keeps the raw bits.
        let bits: Vec<u64> = ks.reference().chain(ks.test()).map(f64::to_bits).collect();
        assert_eq!(bits, [(-0.0f64).to_bits(), (-0.0f64).to_bits(), 0, 0]);
    }

    #[test]
    fn windows_split_the_ring_and_clear_empties_it() {
        let mut ks = SlidingKs::new(3);
        for i in 0..11 {
            ks.push(f64::from(i));
        }
        let (r, t) = ks.windows();
        assert_eq!((r, t), (&[5.0, 6.0, 7.0][..], &[8.0, 9.0, 10.0][..]));
        assert_eq!(ks.reference().collect::<Vec<_>>(), [5.0, 6.0, 7.0]);
        assert_eq!(ks.test().collect::<Vec<_>>(), [8.0, 9.0, 10.0]);
        ks.clear();
        assert!(ks.is_empty() && !ks.is_full());
        ks.push(1.0);
        assert_eq!(ks.windows(), (&[1.0][..], &[][..]));
        assert_eq!(ks.len(), 1);
    }

    #[test]
    fn filling_build_equals_slide_by_slide_updates() {
        // The treap built in bulk when the windows fill must equal the one
        // the same multiset reaches through slides.
        let values: Vec<f64> =
            (0..60).map(|i| [0.0, -0.0, 1.5, 2.0][i % 4] + (i % 7) as f64).collect();
        let mut slid = SlidingKs::new(6);
        for (i, &v) in values.iter().enumerate() {
            slid.push(v);
            if i + 1 < 12 {
                assert!(slid.treap.is_empty(), "no treap while filling");
                continue;
            }
            let mut built = SlidingKs::new(6);
            for &v in &values[i + 1 - 12..=i] {
                built.push(v);
            }
            assert_eq!(built.treap.to_sorted_vec(), slid.treap.to_sorted_vec(), "i = {i}");
        }
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn push_rejects_non_finite() {
        SlidingKs::new(4).push(f64::NAN);
    }
}
