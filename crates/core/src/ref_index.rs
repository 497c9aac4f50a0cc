//! The precomputed reference rank index: amortizing the reference side of
//! the base-vector build across many test windows.
//!
//! The drift-monitoring deployment the paper targets (Section 6.1.1) tests
//! one large reference sample `R` against thousands of small sliding
//! windows `T`. [`BaseVector::build`] re-merges `R ∪ T` per window —
//! `O(n + m)` comparisons each time even though `R` never changes — and
//! every Phase-1 probe and the Phase-2 walk then scan all `n + m`
//! coordinates although only the `m` test points differ between windows.
//! A [`ReferenceIndex`] does the reference-side work once: it stores the
//! distinct reference values together with their cumulative rank counts,
//! so a per-window build only has to *splice* the window's `O(q_T)`
//! distinct values into the precomputed structure.
//!
//! [`BaseVector::build_with_index`] runs in `O(m log m)` to sort the
//! window and `O(q_T log q_R)` to locate the splice points, and emits a
//! *contracted* base vector: of each maximal run of reference-only values
//! between two test values it keeps only the run's first and last
//! coordinates, read straight from the index, so the vector has at most
//! `3 q_T + 2` coordinates however large `R` is. Inside such a run `C_T`
//! is constant and `C_R` only grows, so its two ends decide every bound,
//! verdict and statistic the explain path computes (the monotone-run note
//! in [`crate::bounds`]): explanations, sizes and every Phase-1/Phase-2
//! counter are identical to the merged build's (enforced by
//! `tests/proptest_indexed.rs`).

use crate::base_vector::{validate_test, BaseVector, RecycledBuffers, SortedReference};
use crate::error::{MocheError, SetKind};
use crate::ks::validate_finite;

mod sealed {
    /// Seals [`super::RankSource`]: the splice consumes the crate-internal
    /// cumulative-count plane, which outside implementations cannot
    /// produce consistently.
    pub trait Sealed {}
}

/// A read-only *rank source* over a reference sample: the distinct sorted
/// values and their cumulative rank counts, in the exact layout the
/// base-vector splice ([`BaseVector::build_with_index`]) consumes.
///
/// [`ReferenceIndex`] (built by sorting) is the one implementation; the
/// splice is generic over the trait so the layout stays an implementation
/// detail. The trait is sealed: an implementation must hold exactly what
/// `ReferenceIndex::new` holds on the same multiset.
pub trait RankSource: sealed::Sealed {
    /// Total reference size `n` (with multiplicities).
    fn n(&self) -> usize;
    /// The distinct reference values, ascending.
    fn distinct(&self) -> &[f64];
    /// The cumulative counts as `f64`; implementation detail of the splice.
    #[doc(hidden)]
    fn cum_f64(&self) -> &[f64];
}

impl sealed::Sealed for ReferenceIndex {}

impl RankSource for ReferenceIndex {
    #[inline]
    fn n(&self) -> usize {
        ReferenceIndex::n(self)
    }

    #[inline]
    fn distinct(&self) -> &[f64] {
        ReferenceIndex::distinct(self)
    }

    #[inline]
    fn cum_f64(&self) -> &[f64] {
        ReferenceIndex::cum_f64(self)
    }
}

/// A reference sample preprocessed for repeated base-vector builds: the
/// distinct sorted values of `R` and their cumulative counts.
///
/// Build once per reference (`O(n log n)`), then construct per-window base
/// vectors with [`BaseVector::build_with_index`]. Shareable read-only
/// across worker threads (see [`crate::batch`] and [`crate::streaming`]).
///
/// # Examples
///
/// ```
/// use moche_core::{BaseVector, ReferenceIndex};
///
/// let reference = vec![14.0, 14.0, 14.0, 14.0, 20.0, 20.0, 20.0, 20.0];
/// let index = ReferenceIndex::new(&reference).unwrap();
/// assert_eq!(index.n(), 8);
/// assert_eq!(index.q_r(), 2); // distinct values 14 and 20
///
/// // No reference-only run here is longer than one value, so nothing is
/// // dropped and the splice equals the merged build.
/// let test = vec![13.0, 13.0, 12.0, 20.0];
/// let indexed = BaseVector::build_with_index(&index, &test).unwrap();
/// assert_eq!(indexed, BaseVector::build(&reference, &test).unwrap());
///
/// // A run of reference-only values keeps its two ends: of 1..=9 only 1
/// // and 9 remain between the test values 0 and 10.
/// let wide = ReferenceIndex::new(&(1..=9).map(f64::from).collect::<Vec<_>>()).unwrap();
/// let contracted = BaseVector::build_with_index(&wide, &[0.0, 10.0]).unwrap();
/// assert_eq!(contracted.values(), &[0.0, 1.0, 9.0, 10.0]);
/// assert_eq!(contracted.distinct_count(), 11); // all of R ∪ T
/// assert_eq!(contracted.statistic(), 0.5);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ReferenceIndex {
    /// Distinct reference values, ascending.
    distinct: Vec<f64>,
    /// `cum_f64[j] = |{x in R : x <= distinct[j - 1]}|` (`cum_f64[0] = 0`),
    /// stored as `f64` so the splice reads the [`BaseVector`] f64 plane
    /// entries directly instead of converting them per window. Lossless:
    /// counts are integers `< 2^53`, and the integer consumers
    /// ([`rank`](Self::rank)) recover the exact `u64` with a cast — same
    /// argument as the `BaseVector` planes.
    cum_f64: Vec<f64>,
    /// Total reference size `n` (with multiplicities).
    n: usize,
}

impl ReferenceIndex {
    /// Validates, sorts and indexes a reference sample.
    ///
    /// # Errors
    ///
    /// Returns an error if the sample is empty or contains non-finite
    /// values.
    pub fn new(reference: &[f64]) -> Result<Self, MocheError> {
        Self::from_vec(reference.to_vec())
    }

    /// [`new`](Self::new) from an owned sample, sorting it in place —
    /// callers that already hold a `Vec` (e.g. a collected sliding window)
    /// skip the defensive copy.
    ///
    /// # Errors
    ///
    /// As for [`new`](Self::new).
    pub fn from_vec(mut reference: Vec<f64>) -> Result<Self, MocheError> {
        if reference.is_empty() {
            return Err(MocheError::EmptyReference);
        }
        validate_finite(SetKind::Reference, &reference)?;
        reference.sort_unstable_by(f64::total_cmp);
        Ok(Self::from_sorted_values(&reference))
    }

    /// Indexes an already-validated [`SortedReference`] in `O(n)`.
    pub fn from_sorted(reference: &SortedReference) -> Self {
        Self::from_sorted_values(reference.as_sorted())
    }

    fn from_sorted_values(sorted: &[f64]) -> Self {
        let mut index = Self { distinct: Vec::new(), cum_f64: Vec::new(), n: 0 };
        index.fill_from_sorted_values(sorted);
        index
    }

    /// Clears and refills every buffer from a sorted sample, retaining the
    /// allocations (the in-place rebuild path behind
    /// [`rebuild_from`](Self::rebuild_from)).
    fn fill_from_sorted_values(&mut self, sorted: &[f64]) {
        self.distinct.clear();
        self.distinct.reserve(sorted.len());
        self.cum_f64.clear();
        self.cum_f64.reserve(sorted.len() + 1);
        self.cum_f64.push(0.0f64);
        let mut i = 0usize;
        while i < sorted.len() {
            // The representative of a duplicate run is its first element in
            // total_cmp order, matching the merge in `BaseVector::build`.
            let v = sorted[i];
            let mut j = i + 1;
            while j < sorted.len() && sorted[j] <= v {
                j += 1;
            }
            self.distinct.push(v);
            self.cum_f64.push(j as f64);
            i = j;
        }
        self.n = sorted.len();
    }

    /// Rebuilds this index in place from a fresh (unsorted) reference
    /// sample, reusing every internal buffer plus the caller's sort scratch.
    /// A warm `(index, scratch)` pair re-indexes with zero heap allocations
    /// once the buffers have grown to the working size — the alarm path of
    /// a sliding-window monitor, where the reference changes per alarm.
    ///
    /// # Errors
    ///
    /// As for [`new`](Self::new); on error the index is left unchanged.
    pub fn rebuild_from(
        &mut self,
        reference: &[f64],
        sort_scratch: &mut Vec<f64>,
    ) -> Result<(), MocheError> {
        if reference.is_empty() {
            return Err(MocheError::EmptyReference);
        }
        validate_finite(SetKind::Reference, reference)?;
        sort_scratch.clear();
        sort_scratch.extend_from_slice(reference);
        sort_scratch.sort_unstable_by(f64::total_cmp);
        self.fill_from_sorted_values(sort_scratch);
        Ok(())
    }

    /// Total reference size `n` (with multiplicities).
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of distinct reference values `q_R`.
    #[inline]
    pub fn q_r(&self) -> usize {
        self.distinct.len()
    }

    /// Always `false`: construction rejects empty samples.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.distinct.is_empty()
    }

    /// The distinct reference values, ascending.
    #[inline]
    pub fn distinct(&self) -> &[f64] {
        &self.distinct
    }

    /// The rank of `v` in the reference: `|{x in R : x <= v}|`, in
    /// `O(log q_R)`.
    pub fn rank(&self, v: f64) -> u64 {
        let pos = self.distinct.partition_point(|&u| u <= v);
        self.cum_f64[pos] as u64 // exact: counts are integers < 2^53
    }

    /// The cumulative counts as `f64` (see the field docs) — what the
    /// splice reads into the [`BaseVector`] `C_R` plane.
    #[inline]
    pub(crate) fn cum_f64(&self) -> &[f64] {
        &self.cum_f64
    }
}

impl BaseVector {
    /// Builds the *contracted* base vector against a precomputed
    /// [`RankSource`] (canonically a [`ReferenceIndex`]): every coordinate
    /// holding a test value is kept, and of each maximal run of
    /// reference-only values only the run's first and last coordinates, so
    /// the result has at most `3 q_T + 2` coordinates (`q_T` distinct test
    /// values) however large `R` is.
    ///
    /// `O(m log m + q_T log q_R)`. Every kept coordinate carries the same
    /// value and counts as in [`BaseVector::build`], and
    /// [`distinct_count`](Self::distinct_count) is the full build's `q`;
    /// the dropped interior coordinates cannot change any verdict, bound or
    /// statistic the explain path reads (the monotone-run note in
    /// [`crate::bounds`]).
    ///
    /// # Errors
    ///
    /// Returns an error if the test sample is empty or contains non-finite
    /// values.
    pub fn build_with_index<S: RankSource + ?Sized>(
        index: &S,
        test: &[f64],
    ) -> Result<Self, MocheError> {
        validate_test(test)?;
        Ok(Self::splice(index, test, RecycledBuffers::default(), &mut Vec::new()))
    }

    /// [`build_with_index`](Self::build_with_index), rebuilding `out` in
    /// place: the splice writes into `out`'s existing buffers, so a caller
    /// looping over windows of similar size allocates them once.
    /// Start from [`BaseVector::empty`] (or any previous build).
    ///
    /// # Errors
    ///
    /// As for [`build_with_index`](Self::build_with_index); on error `out`
    /// is left unchanged.
    pub fn build_with_index_into<S: RankSource + ?Sized>(
        index: &S,
        test: &[f64],
        out: &mut Self,
    ) -> Result<(), MocheError> {
        let mut sort_scratch = Vec::new();
        Self::build_with_index_into_using(index, test, out, &mut sort_scratch)
    }

    /// [`build_with_index_into`](Self::build_with_index_into) with a
    /// caller-owned sort buffer for the window: the only remaining per-call
    /// allocation of the splice (the sorted copy of `test`) is recycled, so
    /// a warm caller rebuilds base vectors with **zero** heap allocations.
    /// `sort_scratch` is an opaque scratch area; its contents are
    /// overwritten on every call.
    ///
    /// # Errors
    ///
    /// As for [`build_with_index_into`](Self::build_with_index_into); on
    /// error `out` is left unchanged.
    pub fn build_with_index_into_using<S: RankSource + ?Sized>(
        index: &S,
        test: &[f64],
        out: &mut Self,
        sort_scratch: &mut Vec<f64>,
    ) -> Result<(), MocheError> {
        validate_test(test)?;
        let buffers = out.take_buffers();
        *out = Self::splice(index, test, buffers, sort_scratch);
        Ok(())
    }

    /// The contracted splice over a validated window, into `buffers`.
    fn splice<S: RankSource + ?Sized>(
        index: &S,
        test: &[f64],
        mut buffers: RecycledBuffers,
        sort_scratch: &mut Vec<f64>,
    ) -> Self {
        sort_scratch.clear();
        sort_scratch.extend_from_slice(test);
        sort_scratch.sort_unstable_by(f64::total_cmp);
        let t_sorted: &[f64] = sort_scratch;
        let distinct = index.distinct();
        let cum_f64 = index.cum_f64();

        // At most 3 q_T + 2 <= 3m + 2 coordinates, and never more than the
        // full q <= q_R + m.
        let cap = (3 * test.len() + 2).min(distinct.len() + test.len());
        let b = &mut buffers;
        b.values.clear();
        b.c_r_f64.clear();
        b.c_t_f64.clear();
        b.spans.clear();
        b.t_pos.clear();
        b.values.reserve(cap);
        b.c_r_f64.reserve(cap + 1);
        b.c_t_f64.reserve(cap + 1);
        b.spans.reserve(cap + 1);
        b.t_pos.reserve(test.len());
        b.c_r_f64.push(0.0f64);
        b.c_t_f64.push(0.0f64);
        b.spans.push(1);

        // The reference-only run `distinct[lo..hi]`, where C_T is `c_t`:
        // keep its first and last coordinates, the first spanning the
        // dropped interior.
        let push_run = |b: &mut RecycledBuffers, lo: usize, hi: usize, c_t: f64| {
            if hi > lo {
                b.push(distinct[lo], cum_f64[lo + 1], c_t, (hi - lo - 1).max(1) as u64);
            }
            if hi > lo + 1 {
                b.push(distinct[hi - 1], cum_f64[hi], c_t, 1);
            }
        };

        let mut distinct_count = distinct.len();
        let mut rpos = 0usize; // next reference-distinct index to emit
        let mut consumed_t = 0u64;
        let mut gi = 0usize;
        while gi < t_sorted.len() {
            // One distinct test value per iteration; its representative is
            // the first element of the duplicate run, as in the merge.
            let tv = t_sorted[gi];
            let mut ge = gi + 1;
            while ge < t_sorted.len() && t_sorted[ge] <= tv {
                ge += 1;
            }

            let splice = rpos + distinct[rpos..].partition_point(|&u| u < tv);
            push_run(b, rpos, splice, consumed_t as f64);
            rpos = splice;

            consumed_t += (ge - gi) as u64;
            let value = if rpos < distinct.len() && distinct[rpos] == tv {
                // Shared value: same min-of-heads selection as the merge
                // (only observable for signed zeros).
                let shared = distinct[rpos].min(tv);
                rpos += 1;
                shared
            } else {
                distinct_count += 1;
                tv
            };
            b.push(value, cum_f64[rpos], consumed_t as f64, 1);
            gi = ge;
        }
        push_run(b, rpos, distinct.len(), consumed_t as f64);

        let values = &b.values;
        b.t_pos.extend(test.iter().map(|&v| {
            let lt = values.partition_point(|&u| u < v);
            debug_assert!(values[lt] == v);
            lt + 1
        }));

        Self::from_raw_parts(buffers, distinct_count, index.n(), test.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_example() -> (Vec<f64>, Vec<f64>) {
        (vec![14.0, 14.0, 14.0, 14.0, 20.0, 20.0, 20.0, 20.0], vec![13.0, 13.0, 12.0, 20.0])
    }

    #[test]
    fn index_summarizes_the_reference() {
        let (r, _) = paper_example();
        let index = ReferenceIndex::new(&r).unwrap();
        assert_eq!(index.n(), 8);
        assert_eq!(index.q_r(), 2);
        assert!(!index.is_empty());
        assert_eq!(index.distinct(), &[14.0, 20.0]);
        assert_eq!(index.rank(13.0), 0);
        assert_eq!(index.rank(14.0), 4);
        assert_eq!(index.rank(19.0), 4);
        assert_eq!(index.rank(20.0), 8);
        assert_eq!(index.rank(99.0), 8);
    }

    #[test]
    fn from_sorted_and_from_vec_match_new() {
        let (r, _) = paper_example();
        let shared = SortedReference::new(&r).unwrap();
        assert_eq!(ReferenceIndex::from_sorted(&shared), ReferenceIndex::new(&r).unwrap());
        assert_eq!(ReferenceIndex::from_vec(r.clone()).unwrap(), ReferenceIndex::new(&r).unwrap());
        assert_eq!(ReferenceIndex::from_vec(Vec::new()).unwrap_err(), MocheError::EmptyReference);
    }

    /// The merged vector minus the interior of every reference-only run,
    /// with the spans of the dropped values: what the splice must emit.
    fn contract(full: &BaseVector) -> BaseVector {
        let q = full.q();
        let ref_only = |i: usize| (1..=q).contains(&i) && full.t_mult(i) == 0;
        let keep: Vec<usize> =
            (1..=q).filter(|&i| !(ref_only(i - 1) && ref_only(i) && ref_only(i + 1))).collect();
        let mut b = RecycledBuffers::default();
        b.c_r_f64.push(0.0);
        b.c_t_f64.push(0.0);
        // spans[j] = full position of kept coordinate j + 1 minus that of j.
        let next = |j: usize| keep.get(j).map_or(q + 1, |&i| i);
        b.spans.push(next(0) as u64);
        for (j, &i) in keep.iter().enumerate() {
            b.push(
                full.value(i),
                full.c_r_plane()[i],
                full.c_t_plane()[i],
                (next(j + 1) - i) as u64,
            );
        }
        b.t_pos.extend(
            (0..full.m()).map(|t| keep.binary_search(&full.test_point_index(t)).unwrap() + 1),
        );
        BaseVector::from_raw_parts(b, q, full.n(), full.m())
    }

    /// `indexed` is the contraction of the merged build, bit for bit, and
    /// within the `3 q_T + 2` bound.
    fn assert_contracts(indexed: &BaseVector, r: &[f64], t: &[f64]) {
        let merged = BaseVector::build(r, t).unwrap();
        let expected = contract(&merged);
        assert_eq!(indexed, &expected, "test window {t:?}");
        let bits = |b: &BaseVector| b.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(indexed), bits(&expected), "bitwise value mismatch for {t:?}");
        let q_t = (1..=merged.q()).filter(|&i| merged.t_mult(i) > 0).count();
        assert!(indexed.q() <= 3 * q_t + 2, "{} coordinates for q_T = {q_t}", indexed.q());
        assert_eq!(indexed.distinct_count(), merged.q());
    }

    #[test]
    fn indexed_build_contracts_merged_on_the_paper_example() {
        let (r, t) = paper_example();
        let index = ReferenceIndex::new(&r).unwrap();
        let indexed = BaseVector::build_with_index(&index, &t).unwrap();
        assert_contracts(&indexed, &r, &t);
        // Nothing to drop here (the only reference-only run is `14`), so
        // the contraction is the merged build itself.
        assert_eq!(indexed, BaseVector::build(&r, &t).unwrap());
    }

    #[test]
    fn indexed_build_contracts_merged_on_overlap_patterns() {
        // Every interleaving shape: test below, inside, between, equal to
        // and above the reference values, with duplicates everywhere.
        let r = vec![1.0, 1.0, 3.0, 5.0, 5.0, 5.0, 9.0];
        let index = ReferenceIndex::new(&r).unwrap();
        let tests: Vec<Vec<f64>> = vec![
            vec![0.0, 0.0],                 // all below
            vec![10.0, 11.0],               // all above
            vec![1.0, 5.0, 9.0],            // all shared
            vec![2.0, 4.0, 6.0],            // all between
            vec![0.0, 1.0, 4.0, 5.0, 12.0], // mixed
            vec![5.0, 5.0, 5.0, 5.0],       // one shared value, duplicated
            vec![3.0],                      // single shared point
            vec![-2.5],                     // single outside point
        ];
        for t in tests {
            let indexed = BaseVector::build_with_index(&index, &t).unwrap();
            assert_contracts(&indexed, &r, &t);
        }
    }

    #[test]
    fn indexed_build_contracts_merged_with_signed_zeros() {
        let r = vec![-0.0, 0.0, 1.0, 2.0, 3.0];
        let index = ReferenceIndex::new(&r).unwrap();
        for t in [vec![0.0, 4.0], vec![-0.0, 4.0], vec![-0.0, 0.0], vec![-1.0, -0.0]] {
            let indexed = BaseVector::build_with_index(&index, &t).unwrap();
            assert_contracts(&indexed, &r, &t);
        }
    }

    #[test]
    fn contracted_runs_keep_their_ends_and_span_the_interior() {
        // One reference-only run of ten values between two test values.
        let r: Vec<f64> = (1..=10).map(f64::from).collect();
        let index = ReferenceIndex::new(&r).unwrap();
        let b = BaseVector::build_with_index(&index, &[0.0, 11.0]).unwrap();
        assert_eq!(b.values(), &[0.0, 1.0, 10.0, 11.0]);
        assert_eq!(b.c_r_plane(), &[0.0, 0.0, 1.0, 10.0, 10.0]);
        assert_eq!(b.c_t_plane(), &[0.0, 1.0, 1.0, 1.0, 2.0]);
        assert_eq!((0..=b.q()).map(|i| b.span(i)).collect::<Vec<_>>(), vec![1, 1, 9, 1, 1]);
        assert_eq!((b.q(), b.distinct_count()), (4, 12));
        assert_eq!(b.statistic(), BaseVector::build(&r, &[0.0, 11.0]).unwrap().statistic());
    }

    #[test]
    fn rebuild_in_place_recycles_buffers_and_contracts() {
        let r = vec![1.0, 1.0, 3.0, 5.0, 5.0, 5.0, 9.0];
        let index = ReferenceIndex::new(&r).unwrap();
        let mut out = BaseVector::empty();
        for t in [vec![2.0, 4.0], vec![0.0, 5.0, 12.0], vec![9.0, 9.0, 9.0], vec![0.0]] {
            BaseVector::build_with_index_into(&index, &t, &mut out).unwrap();
            assert_contracts(&out, &r, &t);
        }
        // Validation errors leave the previous contents untouched.
        let before = out.clone();
        assert_eq!(
            BaseVector::build_with_index_into(&index, &[], &mut out).unwrap_err(),
            MocheError::EmptyTest
        );
        assert!(BaseVector::build_with_index_into(&index, &[f64::NAN], &mut out).is_err());
        assert_eq!(out, before);
    }

    #[test]
    fn rebuild_from_matches_fresh_index_and_recycles() {
        let mut index = ReferenceIndex::new(&[1.0, 2.0]).unwrap();
        let mut sort_scratch = Vec::new();
        let references: [&[f64]; 3] =
            [&[5.0, 1.0, 5.0, 3.0], &[-0.0, 0.0, 2.0], &[7.0, 7.0, 7.0, 7.0, 7.0]];
        for r in references {
            index.rebuild_from(r, &mut sort_scratch).unwrap();
            assert_eq!(index, ReferenceIndex::new(r).unwrap(), "reference {r:?}");
        }
        // A warm rebuild of a same-size reference must not grow any buffer.
        index.rebuild_from(&[9.0, 1.0, 4.0, 4.0, 2.0], &mut sort_scratch).unwrap();
        let caps = (index.distinct.capacity(), index.cum_f64.capacity());
        index.rebuild_from(&[8.0, 2.0, 3.0, 3.0, 1.0], &mut sort_scratch).unwrap();
        assert_eq!(
            (index.distinct.capacity(), index.cum_f64.capacity()),
            caps,
            "warm rebuild must reuse the buffers"
        );
        // Errors leave the previous contents untouched.
        let before = index.clone();
        assert_eq!(
            index.rebuild_from(&[], &mut sort_scratch).unwrap_err(),
            MocheError::EmptyReference
        );
        assert!(index.rebuild_from(&[f64::NAN], &mut sort_scratch).is_err());
        assert_eq!(index, before);
    }

    #[test]
    fn indexed_build_rejects_bad_test_input() {
        let index = ReferenceIndex::new(&[1.0, 2.0]).unwrap();
        assert_eq!(BaseVector::build_with_index(&index, &[]).unwrap_err(), MocheError::EmptyTest);
        assert!(BaseVector::build_with_index(&index, &[f64::NAN]).is_err());
    }

    #[test]
    fn index_rejects_bad_reference() {
        assert_eq!(ReferenceIndex::new(&[]).unwrap_err(), MocheError::EmptyReference);
        assert!(ReferenceIndex::new(&[1.0, f64::INFINITY]).is_err());
    }

    #[test]
    fn indexed_statistic_matches_direct() {
        let r: Vec<f64> = (0..500).map(|i| f64::from(i % 23)).collect();
        let t: Vec<f64> = (0..80).map(|i| f64::from(i % 17) + 3.5).collect();
        let index = ReferenceIndex::new(&r).unwrap();
        let b = BaseVector::build_with_index(&index, &t).unwrap();
        let direct = crate::ks::ks_statistic(&r, &t).unwrap();
        assert!((b.statistic() - direct).abs() < 1e-15);
    }
}
