//! Equivalence properties for the indexed-reference paths: on random
//! instances, base vectors spliced into a [`ReferenceIndex`] must be the
//! merged [`BaseVector::build`] minus the interior of every reference-only
//! run, and the Phase-1 size `k`, the final explanations (every counter
//! included) and the streaming engine's output must all be identical to
//! the merged path's.

use moche_core::base_vector::BaseVector;
use moche_core::batch::{BatchExplainer, ReferenceMode};
use moche_core::ks::KsConfig;
use moche_core::moche::{ConstructionStrategy, Moche};
use moche_core::preference::PreferenceList;
use moche_core::{
    ExplainEngine, ExplanationArena, ReferenceIndex, SortedReference, StreamMode,
    StreamingBatchExplainer, WindowReport,
};
use proptest::prelude::*;

/// Random samples with duplicates and overlap: integer-valued grids plus a
/// shift, plus occasional fractional values so shared-and-disjoint value
/// mixes are both common.
fn instance() -> impl Strategy<Value = (Vec<f64>, Vec<f64>)> {
    let r_value = 0i32..12;
    let t_value = 0i32..12;
    (
        proptest::collection::vec(r_value, 6..40),
        proptest::collection::vec(t_value, 4..16),
        0i32..8,
        0i32..2,
    )
        .prop_map(|(r, t, shift, halves)| {
            let scale = if halves == 1 { 0.5 } else { 1.0 };
            (
                r.into_iter().map(|v| f64::from(v) * scale).collect(),
                t.into_iter().map(|v| (f64::from(v + shift)) * scale).collect(),
            )
        })
}

/// The paper's shape in miniature: a large reference with many distinct
/// values (long reference-only runs between the window's values) and a
/// small window shifted up. Window values are drawn from four pools: the
/// shifted grid, reference values themselves (shared coordinates that end
/// or start a run), reference values nudged by a quarter step (a run split
/// one value from its end), and signed zeros, which the reference carries
/// too.
fn wide_instance() -> impl Strategy<Value = (Vec<f64>, Vec<f64>)> {
    (
        proptest::collection::vec(-400i32..400, 150..400),
        proptest::collection::vec((0u8..4, 0usize..1000, -40i32..400), 6..40),
        0i32..3,
    )
        .prop_map(|(r, picks, zeros)| {
            let mut r: Vec<f64> = r.into_iter().map(|v| f64::from(v) * 0.5).collect();
            for z in 0..zeros {
                r.push(if z % 2 == 0 { -0.0 } else { 0.0 });
            }
            let t = picks
                .into_iter()
                .map(|(pool, at, grid)| match pool {
                    0 => f64::from(grid) * 0.5 + 60.0,
                    1 => r[at % r.len()],
                    2 => r[at % r.len()] + 0.25,
                    _ => [-0.0, 0.0][at % 2],
                })
                .collect();
            (r, t)
        })
}

/// What the splice must emit, read through the merged build's public
/// view: `(value bits, C_R, C_T)` of every coordinate not strictly inside
/// a run of reference-only values, and each test point's position among
/// them.
fn expected_contraction(full: &BaseVector) -> (Vec<(u64, f64, f64)>, Vec<usize>) {
    let q = full.q();
    let ref_only = |i: usize| (1..=q).contains(&i) && full.t_mult(i) == 0;
    let keep: Vec<usize> =
        (1..=q).filter(|&i| !(ref_only(i - 1) && ref_only(i) && ref_only(i + 1))).collect();
    let coords =
        keep.iter().map(|&i| (full.value(i).to_bits(), full.c_r_plane()[i], full.c_t_plane()[i]));
    let t_pos = (0..full.m())
        .map(|t| keep.binary_search(&full.test_point_index(t)).expect("test values are kept") + 1);
    (coords.collect(), t_pos.collect())
}

fn observed_contraction(b: &BaseVector) -> (Vec<(u64, f64, f64)>, Vec<usize>) {
    let coords = (1..=b.q()).map(|i| (b.value(i).to_bits(), b.c_r_plane()[i], b.c_t_plane()[i]));
    (coords.collect(), (0..b.m()).map(|t| b.test_point_index(t)).collect())
}

/// The splice against the merged build: the same coordinates minus run
/// interiors, at most `3 q_T + 2` of them, the same `n`, `m` and
/// distinct count, and rank queries that agree with the merged `C_R`.
fn check_contraction(r: &[f64], t: &[f64]) -> Result<(), TestCaseError> {
    let index = ReferenceIndex::new(r).unwrap();
    let merged = BaseVector::build(r, t).unwrap();
    let indexed = BaseVector::build_with_index(&index, t).unwrap();
    prop_assert_eq!(observed_contraction(&indexed), expected_contraction(&merged));
    let q_t = (1..=merged.q()).filter(|&i| merged.t_mult(i) > 0).count();
    prop_assert!(indexed.q() <= 3 * q_t + 2, "{} coordinates, q_T = {}", indexed.q(), q_t);
    prop_assert_eq!(
        (indexed.n(), indexed.m(), indexed.distinct_count()),
        (merged.n(), merged.m(), merged.q())
    );
    prop_assert_eq!(indexed.c_r_plane()[0], 0.0);
    prop_assert_eq!(indexed.c_t_plane()[0], 0.0);
    for (i, &v) in merged.values().iter().enumerate() {
        prop_assert_eq!(index.rank(v), merged.c_r(i + 1));
    }
    Ok(())
}

fn alphas() -> impl Strategy<Value = f64> {
    prop_oneof![Just(0.05), Just(0.1), Just(0.2), Just(0.25)]
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 128,
        max_global_rejects: 8192,
        ..ProptestConfig::default()
    })]

    // The splice invariant: `build_with_index` is the merged `build`
    // minus the interior of every reference-only run, on any valid input
    // (no KS-failure assumption needed — this is pure construction).
    #[test]
    fn indexed_base_vector_contracts_merged((r, t) in instance()) {
        check_contraction(&r, &t)?;
    }

    #[test]
    fn indexed_base_vector_contracts_merged_on_wide_references((r, t) in wide_instance()) {
        check_contraction(&r, &t)?;
    }

    // The whole `Explanation` — indices, value bits, both KS outcomes,
    // Phase-1 and Phase-2 counters, `n`, `m`, `q` — is the same through the
    // contracted vector as through the merged full vector, for both
    // construction strategies and the arena path; so is the size-only
    // answer.
    #[test]
    fn indexed_explanation_equals_merged_explanation(
        (r, t) in wide_instance(),
        alpha in alphas(),
        seed in 0u64..1000,
    ) {
        let cfg = KsConfig::new(alpha).unwrap();
        let base = BaseVector::build(&r, &t).unwrap();
        prop_assume!(base.outcome(&cfg).rejected);

        let index = ReferenceIndex::new(&r).unwrap();
        let pref = PreferenceList::random(t.len(), seed);
        let bits = |vs: &[f64]| vs.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for strategy in [ConstructionStrategy::Incremental, ConstructionStrategy::Reference] {
            let mut engine = ExplainEngine::new(alpha).unwrap().construction(strategy);
            let merged = engine.explain(&r, &t, &pref).unwrap();
            let indexed = engine.explain_with_index(&index, &t, &pref).unwrap();
            let mut arena = ExplanationArena::new();
            let in_arena = engine.explain_with_index_in(&index, &t, &pref, &mut arena).unwrap();
            for got in [&indexed, &in_arena] {
                prop_assert_eq!(got, &merged, "{:?}", strategy);
                prop_assert_eq!(bits(got.values()), bits(merged.values()));
                prop_assert_eq!(
                    got.outcome_before.statistic.to_bits(),
                    merged.outcome_before.statistic.to_bits()
                );
                prop_assert_eq!(
                    got.outcome_after.statistic.to_bits(),
                    merged.outcome_after.statistic.to_bits()
                );
            }
        }

        let size = ExplainEngine::new(alpha).unwrap().size_with_index(&index, &t).unwrap();
        prop_assert_eq!(size, Moche::new(alpha).unwrap().explanation_size(&r, &t).unwrap());
    }

    // Phase-1 `k` (and `k_hat`) computed through the index equals the
    // merged path's.
    #[test]
    fn indexed_phase1_size_is_identical((r, t) in instance(), alpha in alphas()) {
        let cfg = KsConfig::new(alpha).unwrap();
        let base = BaseVector::build(&r, &t).unwrap();
        prop_assume!(base.outcome(&cfg).rejected);

        let expected = Moche::new(alpha).unwrap().explanation_size(&r, &t).unwrap();
        let index = ReferenceIndex::new(&r).unwrap();
        let mut engine = ExplainEngine::new(alpha).unwrap();
        let got = engine.size_with_index(&index, &t).unwrap();
        prop_assert_eq!(got, expected);
    }

    // Full explanations through the indexed engine path and the Indexed
    // batch mode equal the paper-faithful Reference construction.
    #[test]
    fn indexed_explanations_are_byte_identical(
        (r, t) in instance(),
        alpha in alphas(),
        seed in 0u64..1000,
    ) {
        let cfg = KsConfig::new(alpha).unwrap();
        let base = BaseVector::build(&r, &t).unwrap();
        prop_assume!(base.outcome(&cfg).rejected);

        let pref = PreferenceList::random(t.len(), seed);
        let reference = Moche::new(alpha).unwrap().construction(ConstructionStrategy::Reference);
        let expected = reference.explain(&r, &t, &pref).unwrap();

        let index = ReferenceIndex::new(&r).unwrap();
        let mut engine = ExplainEngine::new(alpha).unwrap();
        let got = engine.explain_with_index(&index, &t, &pref).unwrap();
        prop_assert_eq!(got.indices(), expected.indices());
        prop_assert_eq!(got.values(), expected.values());
        prop_assert_eq!(got.phase1, expected.phase1);
        prop_assert_eq!(&got.outcome_after, &expected.outcome_after);

        let shared = SortedReference::new(&r).unwrap();
        let windows = [t.clone()];
        let prefs = [pref];
        let batch = BatchExplainer::new(alpha)
            .unwrap()
            .threads(2)
            .reference_mode(ReferenceMode::Indexed);
        let results = batch.explain_windows(&shared, &windows, Some(&prefs));
        let batched = results[0].as_ref().unwrap();
        prop_assert_eq!(batched.indices(), expected.indices());
        prop_assert_eq!(&batched.phase1, &expected.phase1);
    }

    // Arena-backed explains (recycled output buffers) are byte-identical
    // to the allocating path, across every entry point and with the arena
    // reused across calls.
    #[test]
    fn arena_explanations_are_byte_identical(
        (r, t) in instance(),
        alpha in alphas(),
        seed in 0u64..1000,
    ) {
        let cfg = KsConfig::new(alpha).unwrap();
        let base = BaseVector::build(&r, &t).unwrap();
        prop_assume!(base.outcome(&cfg).rejected);

        let pref = PreferenceList::random(t.len(), seed);
        let mut allocating = ExplainEngine::new(alpha).unwrap();
        let expected_direct = allocating.explain(&r, &t, &pref).unwrap();
        let index = ReferenceIndex::new(&r).unwrap();
        let expected_indexed = allocating.explain_with_index(&index, &t, &pref).unwrap();
        let shared = SortedReference::new(&r).unwrap();

        let mut engine = ExplainEngine::new(alpha).unwrap();
        let mut arena = ExplanationArena::new();
        // Two rounds: the second one runs entirely on recycled storage.
        for round in 0..2 {
            for (entry, expected) in [
                (engine.explain_in(&r, &t, &pref, &mut arena), &expected_direct),
                (
                    engine.explain_with_reference_in(&shared, &t, &pref, &mut arena),
                    &expected_direct,
                ),
                (engine.explain_with_index_in(&index, &t, &pref, &mut arena), &expected_indexed),
            ] {
                let got = entry.unwrap();
                prop_assert_eq!(got.indices(), expected.indices(), "round {}", round);
                // PartialEq on f64 treats -0.0 == 0.0; pin the raw bits.
                let bits = |vs: &[f64]| vs.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                prop_assert_eq!(bits(got.values()), bits(expected.values()));
                prop_assert_eq!(&got.phase1, &expected.phase1);
                prop_assert_eq!(&got.phase2, &expected.phase2);
                prop_assert_eq!(&got.outcome_before, &expected.outcome_before);
                prop_assert_eq!(&got.outcome_after, &expected.outcome_after);
                prop_assert_eq!((got.n, got.m, got.q), (expected.n, expected.m, expected.q));
                arena.recycle(got);
            }
        }
    }

    // The streaming engine delivers, in order, exactly what the batch
    // engine computes — explanations and sizes alike.
    #[test]
    fn streaming_matches_batch(
        (r, t) in instance(),
        alpha in alphas(),
        threads in 1usize..4,
    ) {
        let cfg = KsConfig::new(alpha).unwrap();
        let base = BaseVector::build(&r, &t).unwrap();
        prop_assume!(base.outcome(&cfg).rejected);

        let mut t2 = t.clone();
        t2.rotate_left(t.len() / 2);
        let windows = vec![t.clone(), t2, r.clone(), t.clone()];
        let shared = SortedReference::new(&r).unwrap();
        let expected = BatchExplainer::new(alpha).unwrap().explain_windows(&shared, &windows, None);

        let index = ReferenceIndex::new(&r).unwrap();
        let streamer =
            StreamingBatchExplainer::new(alpha).unwrap().threads(threads).buffer(2);
        let mut results = Vec::new();
        let summary =
            streamer.explain_stream(&index, windows.clone(), None, |res| results.push(res));
        prop_assert_eq!(summary.windows, windows.len());
        for (i, (res, exp)) in results.iter().zip(&expected).enumerate() {
            prop_assert_eq!(res.window, i);
            match (&res.result, exp) {
                (Ok(WindowReport::Explained(a)), Ok(b)) => prop_assert_eq!(a, b),
                (Err(a), Err(b)) => prop_assert_eq!(a, b),
                other => prop_assert!(false, "divergence at window {}: {:?}", i, other),
            }
        }

        // Size-only agrees with the full explanations' Phase 1.
        let mut sizes = Vec::new();
        streamer.mode(StreamMode::SizeOnly).explain_stream(
            &index,
            windows.clone(),
            None,
            |res| sizes.push(res),
        );
        for (res, exp) in sizes.iter().zip(&expected) {
            match (&res.result, exp) {
                (Ok(WindowReport::Size(k)), Ok(e)) => prop_assert_eq!(k, &e.phase1),
                (Err(a), Err(b)) => prop_assert_eq!(a, b),
                other => prop_assert!(false, "size divergence: {:?}", other),
            }
        }
    }
}

/// 1000 windows through a tiny buffer bound: the stream must complete, in
/// order, and agree with the sequential engine — the bounded-memory claim
/// exercised at length. (Plain `#[test]`: no random shrinking wanted here.)
#[test]
fn streaming_1k_windows_with_tiny_buffer() {
    let reference: Vec<f64> = (0..400u32).map(|i| f64::from(i % 16)).collect();
    let windows: Vec<Vec<f64>> = (0..1000u32)
        .map(|w| (0..24).map(|i| f64::from((i + w) % 16) * 0.5 + 8.0 + f64::from(w % 5)).collect())
        .collect();
    let index = ReferenceIndex::new(&reference).unwrap();

    let sequential = StreamingBatchExplainer::new(0.05).unwrap().threads(1).buffer(1);
    let mut expected = Vec::new();
    sequential.explain_stream(&index, windows.clone(), None, |r| expected.push(r));

    let parallel = StreamingBatchExplainer::new(0.05).unwrap().threads(3).buffer(2);
    let mut got = Vec::new();
    let summary = parallel.explain_stream(&index, windows.clone(), None, |r| got.push(r));

    assert_eq!(summary.windows, 1000);
    assert_eq!(summary.explained + summary.passing + summary.errors, 1000);
    assert!(summary.explained > 0, "the shifted windows must mostly fail the KS test");
    assert_eq!(got.len(), expected.len());
    for (i, (a, b)) in got.iter().zip(&expected).enumerate() {
        assert_eq!(a.window, i, "window {i} out of order");
        assert_eq!(a, b, "window {i} diverges from the sequential run");
    }
}
