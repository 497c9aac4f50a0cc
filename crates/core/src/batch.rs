//! Parallel batch explanation: many failed KS tests, explained at once.
//!
//! The deployment shape the ROADMAP targets is a monitoring service: one or
//! few reference distributions, thousands of test windows arriving per
//! evaluation tick, an explanation wanted for every window that fails the
//! KS test. Explaining them one [`crate::Moche::explain`] call at a time
//! leaves cores idle and re-does shared work (sorting and validating the
//! same reference, reallocating identical scratch buffers) per window.
//!
//! [`BatchExplainer`] fixes both:
//!
//! * **Parallelism.** Jobs are distributed over a pool of scoped worker
//!   threads (`std::thread::scope` — no dependencies, no unsafe code). Each
//!   worker owns one [`ExplainEngine`], so scratch buffers are allocated
//!   once per thread, not once per job. Work is claimed from a shared
//!   atomic counter, which load-balances jobs of uneven cost (explanation
//!   cost varies with `k` and `q`).
//! * **The shared-reference mode.** [`explain_windows`]
//!   (one `R`, many `T` windows) validates and sorts the reference once
//!   into a [`SortedReference`] and reuses it for every window's base-vector
//!   build, cutting the per-window cost from `O((n + m) log(n + m))` to
//!   `O(n + m log m)` — significant when `n >> m`, the common monitoring
//!   regime.
//!
//! The batch API materializes every result, so output buffers cannot be
//! recycled here; for unbounded runs that consume results one at a time in
//! constant memory (windows *and* outputs recycled), use
//! [`crate::streaming::StreamingBatchExplainer::explain_source`].
//!
//! Results are returned in job order and are byte-identical to sequential
//! [`crate::Moche::explain`] calls (enforced by `tests/proptest_engine.rs`).
//! Failed tests yield `Ok(Explanation)`; windows that pass the test, or
//! invalid inputs, yield the same `Err` the sequential API produces, so a
//! caller can distinguish "nothing to explain" from real failures per job.
//!
//! [`explain_windows`]: BatchExplainer::explain_windows
//!
//! # Examples
//!
//! ```
//! use moche_core::batch::{BatchExplainer, BatchJob};
//! use moche_core::{PreferenceList, SortedReference};
//!
//! let reference: Vec<f64> = (0..64).map(|i| f64::from(i % 8)).collect();
//! let windows: Vec<Vec<f64>> = (0..16)
//!     .map(|w| (0..32).map(|i| f64::from((i + w) % 8) + 4.0).collect())
//!     .collect();
//!
//! let explainer = BatchExplainer::new(0.05).unwrap();
//! let shared = SortedReference::new(&reference).unwrap();
//! let results = explainer.explain_windows(&shared, &windows, None);
//! assert_eq!(results.len(), windows.len());
//! for result in &results {
//!     let e = result.as_ref().unwrap();
//!     assert!(e.outcome_after.passes());
//! }
//! ```

use crate::base_vector::SortedReference;
use crate::engine::ExplainEngine;
use crate::error::MocheError;
use crate::ks::KsConfig;
use crate::moche::Explanation;
use crate::preference::PreferenceList;
use crate::ref_index::ReferenceIndex;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

/// How the shared reference is prepared for per-window base-vector builds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReferenceMode {
    /// Re-merge the sorted reference with each window
    /// ([`crate::BaseVector::build_with_reference`]): `O(n + m)` per
    /// window, and every bound probe scans all `n + m` coordinates. Kept as
    /// the full-vector oracle for [`ReferenceMode::Indexed`].
    Merged,
    /// Splice each window into a precomputed [`ReferenceIndex`]
    /// ([`crate::BaseVector::build_with_index`]): the index is built once
    /// per call and each window becomes a contracted base vector of at
    /// most `3m + 2` coordinates, so the per-window work no longer grows
    /// with `n`. Explanations are identical to [`ReferenceMode::Merged`]'s.
    #[default]
    Indexed,
}

/// A per-window preference scorer `(window index, window) -> preference`,
/// evaluated inside worker threads (see [`WindowPreferences::Scored`] and
/// [`crate::streaming`]).
pub type ScoreFn<'a> = &'a (dyn Fn(usize, &[f64]) -> Result<PreferenceList, MocheError> + Sync);

/// The recycled-output scorer shape: `(window index, window, preference
/// slot)`, overwriting a worker-owned [`PreferenceList`] in place (see
/// [`PreferenceList::fill_from_scores_desc`]) instead of allocating a fresh
/// list per window. This is what extends the zero-allocation guarantee to
/// scored streams ([`WindowPreferences::ScoredInto`] and
/// [`crate::streaming::StreamingBatchExplainer::explain_source_scored`]).
pub type ScoreIntoFn<'a> =
    &'a (dyn Fn(usize, &[f64], &mut PreferenceList) -> Result<(), MocheError> + Sync);

/// How per-window preference lists are supplied to the worker threads.
#[derive(Clone, Copy)]
pub enum WindowPreferences<'a> {
    /// Every window is explained under the identity order.
    Identity,
    /// One precomputed list per window, in window order.
    PerWindow(&'a [PreferenceList]),
    /// Derive each window's preference *inside the worker thread* from the
    /// window index and contents — this parallelizes expensive scoring
    /// (e.g. Spectral Residual) along with the explanation itself. A
    /// returned error is reported in that window's result slot.
    Scored(ScoreFn<'a>),
    /// [`Scored`](Self::Scored) with the preference written into a
    /// worker-recycled list instead of allocated per window — the
    /// steady-state zero-allocation form.
    ScoredInto(ScoreIntoFn<'a>),
}

impl std::fmt::Debug for WindowPreferences<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WindowPreferences::Identity => f.write_str("Identity"),
            WindowPreferences::PerWindow(lists) => {
                f.debug_tuple("PerWindow").field(&lists.len()).finish()
            }
            WindowPreferences::Scored(_) => f.write_str("Scored(..)"),
            WindowPreferences::ScoredInto(_) => f.write_str("ScoredInto(..)"),
        }
    }
}

/// One independent `(reference, test, preference)` explanation request.
#[derive(Debug, Clone, Copy)]
pub struct BatchJob<'a> {
    /// The reference sample `R`.
    pub reference: &'a [f64],
    /// The test sample `T`.
    pub test: &'a [f64],
    /// Preference order over `T`; `None` means the identity order.
    pub preference: Option<&'a PreferenceList>,
}

/// Per-worker recycled state: the engine (which owns every internal scratch
/// buffer) plus a preference list reused by the identity and scored-into
/// paths, so neither allocates per window in steady state.
struct WorkerScratch {
    engine: ExplainEngine,
    pref: PreferenceList,
}

impl WorkerScratch {
    fn new(cfg: KsConfig) -> Self {
        Self { engine: ExplainEngine::with_config(cfg), pref: PreferenceList::identity(0) }
    }
}

/// A parallel explainer over many failed KS tests.
///
/// Cheap to construct (two scalars); holds no buffers itself — per-thread
/// [`ExplainEngine`]s are created inside each call.
#[derive(Debug, Clone, Copy)]
pub struct BatchExplainer {
    cfg: KsConfig,
    threads: usize,
    reference_mode: ReferenceMode,
}

impl BatchExplainer {
    /// Creates a batch explainer for significance level `alpha`, using all
    /// available cores.
    ///
    /// # Errors
    ///
    /// Returns [`MocheError::InvalidAlpha`] unless `0 < alpha < 1`.
    pub fn new(alpha: f64) -> Result<Self, MocheError> {
        Ok(Self::with_config(KsConfig::new(alpha)?))
    }

    /// Creates a batch explainer from an existing [`KsConfig`].
    pub fn with_config(cfg: KsConfig) -> Self {
        Self { cfg, threads: 0, reference_mode: ReferenceMode::default() }
    }

    /// Caps the worker-thread count. `0` (the default) means "one per
    /// available core".
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Selects how [`explain_windows`](Self::explain_windows) builds each
    /// window's base vector (merged vs indexed reference — identical
    /// results, different constant factors).
    #[must_use]
    pub fn reference_mode(mut self, mode: ReferenceMode) -> Self {
        self.reference_mode = mode;
        self
    }

    /// The KS configuration in use.
    #[inline]
    pub fn config(&self) -> &KsConfig {
        &self.cfg
    }

    /// The number of worker threads a call with `jobs` jobs would actually
    /// use: the configured cap (or the core count for `0`), bounded by the
    /// job count. On a single-core box this is 1 — the batch silently
    /// serializes — so CLI consumers report this number instead of the
    /// requested cap.
    pub fn effective_threads(&self, jobs: usize) -> usize {
        self.worker_count(jobs)
    }

    fn worker_count(&self, jobs: usize) -> usize {
        let hw = std::thread::available_parallelism().map_or(1, |n| n.get());
        let cap = if self.threads == 0 { hw } else { self.threads };
        cap.min(jobs).max(1)
    }

    /// Explains every job, in parallel, returning results in job order.
    ///
    /// Per-job errors (passing test, bad preference, invalid input) are
    /// reported in the corresponding slot; one bad job never poisons the
    /// batch.
    pub fn explain_jobs(&self, jobs: &[BatchJob<'_>]) -> Vec<Result<Explanation, MocheError>> {
        self.run(jobs, |scratch, job| match job.preference {
            Some(pref) => scratch.engine.explain(job.reference, job.test, pref),
            None => {
                scratch.pref.fill_identity(job.test.len());
                scratch.engine.explain(job.reference, job.test, &scratch.pref)
            }
        })
    }

    /// The shared-reference mode: one reference, many test windows. The
    /// reference's cumulative structures are prepared once (see
    /// [`SortedReference`]) and shared read-only by every worker.
    ///
    /// `preferences`, when given, supplies one list per window (in order);
    /// `None` explains every window under the identity order.
    ///
    /// # Errors
    ///
    /// If `preferences` is `Some` but its length differs from `windows`',
    /// no window/preference pairing exists and every result slot carries
    /// [`MocheError::PreferenceCountMismatch`]. (With zero windows the
    /// result is empty either way — there are no slots to report into.)
    pub fn explain_windows<W: AsRef<[f64]> + Sync>(
        &self,
        reference: &SortedReference,
        windows: &[W],
        preferences: Option<&[PreferenceList]>,
    ) -> Vec<Result<Explanation, MocheError>> {
        let prefs = match preferences {
            Some(lists) => WindowPreferences::PerWindow(lists),
            None => WindowPreferences::Identity,
        };
        self.explain_windows_with(reference, windows, prefs)
    }

    /// [`explain_windows`](Self::explain_windows) with the full preference
    /// vocabulary: identity, precomputed per-window lists, or a score
    /// callback evaluated inside the worker threads (see
    /// [`WindowPreferences`]).
    ///
    /// Under [`ReferenceMode::Indexed`] a [`ReferenceIndex`] is built once
    /// from `reference` (an `O(n)` pass over the already-sorted values) and
    /// every window is spliced into it.
    ///
    /// # Errors
    ///
    /// If [`WindowPreferences::PerWindow`] supplies a different number of
    /// lists than `windows`, every result slot carries
    /// [`MocheError::PreferenceCountMismatch`] — the inputs are unusable as
    /// a whole, but the one-result-per-window shape is preserved for
    /// callers that tally per-window outcomes.
    pub fn explain_windows_with<W: AsRef<[f64]> + Sync>(
        &self,
        reference: &SortedReference,
        windows: &[W],
        preferences: WindowPreferences<'_>,
    ) -> Vec<Result<Explanation, MocheError>> {
        if let WindowPreferences::PerWindow(prefs) = preferences {
            if prefs.len() != windows.len() {
                let err = MocheError::PreferenceCountMismatch {
                    windows: windows.len(),
                    preferences: prefs.len(),
                };
                return windows.iter().map(|_| Err(err.clone())).collect();
            }
        }
        let index = match self.reference_mode {
            ReferenceMode::Merged => None,
            ReferenceMode::Indexed => Some(ReferenceIndex::from_sorted(reference)),
        };
        let jobs: Vec<usize> = (0..windows.len()).collect();
        self.run(&jobs, |scratch, &i| {
            let window = windows[i].as_ref();
            let owned_pref;
            let pref = match preferences {
                WindowPreferences::Identity => {
                    scratch.pref.fill_identity(window.len());
                    &scratch.pref
                }
                WindowPreferences::PerWindow(prefs) => &prefs[i],
                WindowPreferences::Scored(score) => {
                    owned_pref = score(i, window)?;
                    &owned_pref
                }
                WindowPreferences::ScoredInto(score) => {
                    score(i, window, &mut scratch.pref)?;
                    &scratch.pref
                }
            };
            match &index {
                Some(index) => scratch.engine.explain_with_index(index, window, pref),
                None => scratch.engine.explain_with_reference(reference, window, pref),
            }
        })
    }

    /// The worker pool: claim-by-atomic-counter over `items`, one scratch
    /// set (engine + recycled preference list) per worker, results
    /// collected in item order.
    ///
    /// Every job runs under [`run_one`](Self::run_one)'s `catch_unwind`, so
    /// a panicking job (a buggy score callback, an injected fault) yields
    /// [`MocheError::WorkerPanicked`] in its own slot and nothing else: the
    /// worker rebuilds its scratch and keeps claiming jobs, and sibling
    /// workers never observe the panic.
    fn run<T, F>(&self, items: &[T], f: F) -> Vec<Result<Explanation, MocheError>>
    where
        T: Sync,
        F: Fn(&mut WorkerScratch, &T) -> Result<Explanation, MocheError> + Sync,
    {
        let n = items.len();
        let workers = self.worker_count(n);
        if workers <= 1 {
            // The sequential fast path (single core, or one job) must give
            // the same isolation guarantee as the pool.
            let mut scratch = WorkerScratch::new(self.cfg);
            return (0..n).map(|i| self.run_one(&mut scratch, &f, items, i)).collect();
        }

        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<Result<Explanation, MocheError>>>> =
            (0..n).map(|_| Mutex::new(None)).collect();
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| {
                    let mut scratch = WorkerScratch::new(self.cfg);
                    loop {
                        // lint:allow(relaxed): work-claim index — the RMW's
                        // atomicity alone partitions jobs; job inputs are
                        // published by the scoped-thread spawn, not this add.
                        // lint:allow(relaxed): monotonic stats counter; no cross-thread handoff rides on it
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        let result = self.run_one(&mut scratch, &f, items, i);
                        // Each slot is written by exactly one claimant and
                        // read only after the scope joins; a poisoned flag
                        // can only be the residue of an already-reported
                        // panic, so recover the value rather than cascade.
                        *slots[i].lock().unwrap_or_else(PoisonError::into_inner) = Some(result);
                    }
                });
            }
        });
        slots
            .into_iter()
            .enumerate()
            .map(|(i, slot)| {
                slot.into_inner().unwrap_or_else(PoisonError::into_inner).unwrap_or_else(|| {
                    // Unreachable while claiming is exhaustive; reported as
                    // a per-window error rather than trusted with a panic.
                    Err(MocheError::WorkerPanicked {
                        window: i,
                        message: "result slot was never filled".to_string(),
                    })
                })
            })
            .collect()
    }

    /// Runs one job under `catch_unwind`. On a caught panic the scratch
    /// (engine buffers, preference list) may be mid-mutation, so it is
    /// rebuilt before the worker continues; the panic itself becomes
    /// [`MocheError::WorkerPanicked`] carrying the payload's message.
    fn run_one<T, F>(
        &self,
        scratch: &mut WorkerScratch,
        f: &F,
        items: &[T],
        i: usize,
    ) -> Result<Explanation, MocheError>
    where
        T: Sync,
        F: Fn(&mut WorkerScratch, &T) -> Result<Explanation, MocheError> + Sync,
    {
        let attempt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            crate::fault::failpoint("batch.worker");
            f(scratch, &items[i])
        }));
        match attempt {
            Ok(result) => result,
            Err(payload) => {
                *scratch = WorkerScratch::new(self.cfg);
                Err(MocheError::WorkerPanicked {
                    window: i,
                    message: crate::fault::panic_message(payload.as_ref()),
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::moche::{ConstructionStrategy, Moche};

    fn windows_against(reference_mod: u32, count: usize, len: usize) -> (Vec<f64>, Vec<Vec<f64>>) {
        let reference: Vec<f64> = (0..200u32).map(|i| f64::from(i % reference_mod)).collect();
        let windows: Vec<Vec<f64>> = (0..count)
            .map(|w| {
                (0..len).map(|i| f64::from(((i + w) % 7) as u32) + 5.0 + (w % 3) as f64).collect()
            })
            .collect();
        (reference, windows)
    }

    #[test]
    fn jobs_match_sequential_reference_path() {
        let (r, windows) = windows_against(10, 12, 60);
        let moche = Moche::new(0.05).unwrap().construction(ConstructionStrategy::Reference);
        let jobs: Vec<BatchJob<'_>> =
            windows.iter().map(|w| BatchJob { reference: &r, test: w, preference: None }).collect();
        for threads in [1, 4] {
            let batch = BatchExplainer::new(0.05).unwrap().threads(threads);
            let results = batch.explain_jobs(&jobs);
            assert_eq!(results.len(), windows.len());
            for (w, result) in windows.iter().zip(&results) {
                let pref = PreferenceList::identity(w.len());
                let expected = moche.explain(&r, w, &pref).unwrap();
                let got = result.as_ref().unwrap();
                assert_eq!(got.indices(), expected.indices());
                assert_eq!(got.phase1, expected.phase1);
            }
        }
    }

    #[test]
    fn shared_reference_matches_independent_jobs() {
        let (r, windows) = windows_against(10, 16, 50);
        let shared = SortedReference::new(&r).unwrap();
        let batch = BatchExplainer::new(0.05).unwrap().threads(4);
        let jobs: Vec<BatchJob<'_>> =
            windows.iter().map(|w| BatchJob { reference: &r, test: w, preference: None }).collect();
        let a = batch.explain_jobs(&jobs);
        let b = batch.explain_windows(&shared, &windows, None);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.as_ref().unwrap(), y.as_ref().unwrap());
        }
    }

    #[test]
    fn per_window_preferences_are_honoured() {
        let (r, windows) = windows_against(10, 6, 40);
        let shared = SortedReference::new(&r).unwrap();
        let prefs: Vec<PreferenceList> =
            windows.iter().map(|w| PreferenceList::reversed(w.len())).collect();
        let batch = BatchExplainer::new(0.05).unwrap().threads(2);
        let results = batch.explain_windows(&shared, &windows, Some(&prefs));
        let moche = Moche::new(0.05).unwrap();
        for ((w, pref), result) in windows.iter().zip(&prefs).zip(&results) {
            let expected = moche.explain(&r, w, pref).unwrap();
            assert_eq!(result.as_ref().unwrap().indices(), expected.indices());
        }
    }

    #[test]
    fn indexed_mode_matches_merged_mode() {
        let (r, windows) = windows_against(10, 16, 50);
        let shared = SortedReference::new(&r).unwrap();
        for threads in [1, 4] {
            let merged = BatchExplainer::new(0.05)
                .unwrap()
                .threads(threads)
                .reference_mode(ReferenceMode::Merged);
            let indexed = merged.reference_mode(ReferenceMode::Indexed);
            let a = merged.explain_windows(&shared, &windows, None);
            let b = indexed.explain_windows(&shared, &windows, None);
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.as_ref().unwrap(), y.as_ref().unwrap());
            }
        }
    }

    #[test]
    fn scored_preferences_run_in_workers_and_match_precomputed() {
        let (r, windows) = windows_against(10, 8, 40);
        let shared = SortedReference::new(&r).unwrap();
        let prefs: Vec<PreferenceList> =
            windows.iter().map(|w| PreferenceList::reversed(w.len())).collect();
        let batch = BatchExplainer::new(0.05).unwrap().threads(3);
        let precomputed = batch.explain_windows(&shared, &windows, Some(&prefs));
        let scored = batch.explain_windows_with(
            &shared,
            &windows,
            WindowPreferences::Scored(&|_, w| Ok(PreferenceList::reversed(w.len()))),
        );
        for (a, b) in precomputed.iter().zip(&scored) {
            assert_eq!(a.as_ref().unwrap(), b.as_ref().unwrap());
        }
    }

    #[test]
    fn scored_into_matches_scored() {
        let (r, windows) = windows_against(10, 8, 40);
        let shared = SortedReference::new(&r).unwrap();
        let batch = BatchExplainer::new(0.05).unwrap().threads(3);
        let owning = batch.explain_windows_with(
            &shared,
            &windows,
            WindowPreferences::Scored(&|_, w| Ok(PreferenceList::reversed(w.len()))),
        );
        let recycled = batch.explain_windows_with(
            &shared,
            &windows,
            WindowPreferences::ScoredInto(&|_, w, pref| {
                let scores: Vec<f64> = (0..w.len()).map(|i| i as f64).collect();
                pref.fill_from_scores_desc(&scores)
            }),
        );
        for (a, b) in owning.iter().zip(&recycled) {
            assert_eq!(a.as_ref().unwrap(), b.as_ref().unwrap());
        }
    }

    #[test]
    fn scored_preference_errors_land_in_the_window_slot() {
        let (r, windows) = windows_against(10, 3, 40);
        let shared = SortedReference::new(&r).unwrap();
        let batch = BatchExplainer::new(0.05).unwrap().threads(2);
        let results = batch.explain_windows_with(
            &shared,
            &windows,
            WindowPreferences::Scored(&|i, w| {
                if i == 1 {
                    // A wrong-length preference is the canonical score bug.
                    Ok(PreferenceList::identity(w.len() - 1))
                } else {
                    Ok(PreferenceList::identity(w.len()))
                }
            }),
        );
        assert!(results[0].is_ok());
        assert!(matches!(results[1], Err(MocheError::PreferenceLengthMismatch { .. })));
        assert!(results[2].is_ok());
    }

    #[test]
    fn effective_threads_reports_the_real_worker_count() {
        let batch = BatchExplainer::new(0.05).unwrap().threads(8);
        assert_eq!(batch.effective_threads(3), 3); // bounded by job count
        assert_eq!(batch.effective_threads(100), 8); // bounded by the cap
        assert_eq!(batch.effective_threads(0), 1); // never zero
        let auto = BatchExplainer::new(0.05).unwrap();
        let hw = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(auto.effective_threads(1000), hw.min(1000));
    }

    #[test]
    fn bad_jobs_do_not_poison_the_batch() {
        let (r, windows) = windows_against(10, 4, 40);
        let passing = r.clone();
        let jobs = vec![
            BatchJob { reference: &r, test: &windows[0], preference: None },
            BatchJob { reference: &r, test: &passing, preference: None }, // passes
            BatchJob { reference: &r, test: &windows[1], preference: None },
        ];
        let results = BatchExplainer::new(0.05).unwrap().threads(2).explain_jobs(&jobs);
        assert!(results[0].is_ok());
        assert!(matches!(results[1], Err(MocheError::TestAlreadyPasses { .. })));
        assert!(results[2].is_ok());
    }

    #[test]
    fn mismatched_preference_count_is_a_structured_error() {
        let (r, windows) = windows_against(10, 3, 40);
        let shared = SortedReference::new(&r).unwrap();
        let prefs = vec![PreferenceList::identity(40)];
        let results =
            BatchExplainer::new(0.05).unwrap().explain_windows(&shared, &windows, Some(&prefs));
        assert_eq!(results.len(), windows.len(), "the per-window shape is preserved");
        for result in &results {
            assert_eq!(
                result.as_ref().unwrap_err(),
                &MocheError::PreferenceCountMismatch { windows: 3, preferences: 1 }
            );
        }
    }

    #[test]
    fn panicking_scorer_is_isolated_to_its_window() {
        let (r, windows) = windows_against(10, 5, 40);
        let shared = SortedReference::new(&r).unwrap();
        for threads in [1, 4] {
            let batch = BatchExplainer::new(0.05).unwrap().threads(threads);
            let results = batch.explain_windows_with(
                &shared,
                &windows,
                WindowPreferences::Scored(&|i, w| {
                    if i == 2 {
                        panic!("scorer bug at window {i}");
                    }
                    Ok(PreferenceList::identity(w.len()))
                }),
            );
            for (i, result) in results.iter().enumerate() {
                if i == 2 {
                    match result {
                        Err(MocheError::WorkerPanicked { window, message }) => {
                            assert_eq!(*window, 2);
                            assert!(message.contains("scorer bug"), "{message}");
                        }
                        other => panic!("expected WorkerPanicked, got {other:?}"),
                    }
                } else {
                    assert!(result.is_ok(), "window {i} must be unaffected ({threads} threads)");
                }
            }
        }
    }

    #[test]
    fn worker_recovers_after_a_caught_panic() {
        // The same worker that caught a panic keeps explaining later
        // windows correctly: force a single thread so every window after
        // the panicking one exercises the rebuilt scratch.
        let (r, windows) = windows_against(10, 6, 40);
        let shared = SortedReference::new(&r).unwrap();
        let batch = BatchExplainer::new(0.05).unwrap().threads(1);
        let clean = batch.explain_windows(&shared, &windows, None);
        let faulted = batch.explain_windows_with(
            &shared,
            &windows,
            WindowPreferences::Scored(&|i, w| {
                if i == 0 {
                    panic!("first window panics");
                }
                Ok(PreferenceList::identity(w.len()))
            }),
        );
        assert!(matches!(faulted[0], Err(MocheError::WorkerPanicked { .. })));
        for i in 1..windows.len() {
            assert_eq!(
                faulted[i].as_ref().unwrap(),
                clean[i].as_ref().unwrap(),
                "window {i} must match the clean run exactly"
            );
        }
    }

    #[test]
    fn empty_batch_is_fine() {
        let batch = BatchExplainer::new(0.05).unwrap();
        assert!(batch.explain_jobs(&[]).is_empty());
        let shared = SortedReference::new(&[1.0, 2.0]).unwrap();
        let no_windows: Vec<Vec<f64>> = Vec::new();
        assert!(batch.explain_windows(&shared, &no_windows, None).is_empty());
    }
}
