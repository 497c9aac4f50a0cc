//! Latency summaries. A timing is reported as its median and the highest
//! percentile that still has at least ten samples beyond it, always with
//! the sample count, so a tail figure never rests on one or two samples.

/// The percentiles a tail may be reported at, highest first.
const TAIL_LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples that must lie beyond a reported percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// The 1-based nearest rank of percentile `p` among `n` samples,
/// `ceil(p/100 * n)`, immune to the product landing a hair above an
/// integer (0.999 * 10000 is 9990.000000000002 in `f64`).
fn rank(n: usize, p: f64) -> usize {
    let exact = (p / 100.0) * n as f64;
    ((exact - 1e-9 * exact.max(1.0)).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank percentile of ascending-sorted `sorted` (`p` in 0..=100).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), p) - 1]
}

/// Whether `n` samples support reporting percentile `p`: at least
/// [`TAIL_MIN_BEYOND`] samples lie strictly beyond its rank.
pub fn supports(n: usize, p: f64) -> bool {
    n >= 1 && n - rank(n, p) >= TAIL_MIN_BEYOND
}

/// The highest percentile of [`TAIL_LADDER`] that `n` samples support.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER.into_iter().find(|&p| supports(n, p))
}

/// A summarized latency distribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    pub p99: f64,
    /// Whether `n` supports p99 under the ten-beyond rule.
    pub p99_supported: bool,
    /// The highest supported percentile and its value.
    pub tail: Option<(f64, f64)>,
    pub max: f64,
}

/// Summarizes `samples` (any order). `None` for an empty sample.
pub fn summarize(samples: &[f64]) -> Option<Summary> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    Some(Summary {
        n,
        p50: percentile(&sorted, 50.0),
        p99: percentile(&sorted, 99.0),
        p99_supported: supports(n, 99.0),
        tail: tail_percentile(n).map(|p| (p, percentile(&sorted, p))),
        max: sorted[n - 1],
    })
}

/// Median of a small set (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        0.5 * (v[mid - 1] + v[mid])
    }
}

/// Completion rates over `slices` equal slices of `[0, total]`, reading
/// the count between points by linear
/// interpolation. `points` are ascending `(seconds, count)` pairs.
pub fn slice_rates(points: &[(f64, f64)], total: f64, slices: usize) -> Vec<f64> {
    let at = |t: f64| -> f64 {
        let i = points.partition_point(|p| p.0 <= t);
        match (i.checked_sub(1).map(|j| points[j]), points.get(i)) {
            (Some((ta, fa)), Some(&(tb, fb))) if tb > ta => fa + (fb - fa) * (t - ta) / (tb - ta),
            (Some((_, fa)), _) => fa,
            (None, Some(&(_, fb))) => fb,
            (None, None) => 0.0,
        }
    };
    let slices = slices.max(1);
    let width = total / slices as f64;
    if width <= 0.0 {
        return vec![0.0];
    }
    (0..slices)
        .map(|k| {
            let (a, b) = (k as f64 * width, (k + 1) as f64 * width);
            (at(b) - at(a)) / width
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 99.0), 99.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
        assert_eq!(percentile(&xs, 0.0), 1.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // p99 of 1000 samples has exactly ten beyond it; 999 do not.
        assert!(supports(1000, 99.0));
        assert!(!supports(999, 99.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(0), None);
    }

    #[test]
    fn summary_reports_count_and_tail() {
        let xs: Vec<f64> = (0..1000).rev().map(f64::from).collect();
        let s = summarize(&xs).unwrap();
        assert_eq!(s.n, 1000);
        assert_eq!(s.p50, 499.0);
        assert_eq!(s.p99, 989.0);
        assert!(s.p99_supported);
        assert_eq!(s.tail, Some((99.0, 989.0)));
        assert_eq!(s.max, 999.0);
        assert!(summarize(&[]).is_none());
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn slice_rates_interpolate_between_output_points() {
        let points = [(0.0, 0.0), (0.5, 50.0), (1.0, 100.0), (2.0, 150.0)];
        assert_eq!(slice_rates(&points, 2.0, 2), vec![100.0, 50.0]);
        assert_eq!(slice_rates(&points, 2.0, 1), vec![75.0]);
        assert_eq!(slice_rates(&points, 1.0, 4), vec![100.0; 4]);
    }
}
