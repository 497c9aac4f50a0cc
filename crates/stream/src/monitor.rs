//! A push-based drift monitor: paired sliding windows, the incremental KS
//! test in steady state, and MOCHE explanations on every alarm.
//!
//! This is the deployment shape the paper motivates (model monitoring,
//! database intrusion detection, change detection): observations stream in
//! one at a time; the last `2w` of them form a reference window (older
//! half) and a test window (newer half); a failed KS test raises a drift
//! alarm, and the monitor answers *which points caused it* with the most
//! comprehensible counterfactual explanation.
//!
//! Steady-state cost per observation is `O(log w)`: three weight updates
//! in one KS treap ([`SlidingKs`]) and an `O(1)` decision at its root.
//! An alarm sorts the reference window once (`O(w log w)`), splices the
//! test window into it, and constructs the explanation — with **zero**
//! heap allocations once warm (gated by `tests/alloc_count.rs`). Bad input
//! never panics the monitor: route untrusted streams through
//! [`DriftMonitor::try_push`].
//!
//! ## One series vs. a fleet
//!
//! [`DriftMonitor`] is the single-series convenience: it owns both halves
//! of the machinery. Internally those halves are separate types so a
//! multi-series deployment ([`crate::MonitorFleet`]) can pool the
//! expensive one:
//!
//! * [`MonitorState`] — the per-series sliding windows (one ring and one
//!   KS treap) and counters. This is the part that *must* exist once per
//!   series (`O(w)` memory each).
//! * [`MonitorScratch`] — the reference index, explain engine, arena,
//!   Spectral-Residual FFT planes, and preference buffers. This part is
//!   only touched while answering an alarm, so one scratch can serve
//!   thousands of series on a worker (`O(w)` memory once per worker, not
//!   per series).

use crate::incremental::SlidingKs;
use moche_core::{
    ExplainEngine, Explanation, ExplanationArena, KsConfig, KsOutcome, MocheError, PreferenceList,
    ReferenceIndex, SizeSearch,
};
use moche_sigproc::{SaliencyScratch, SpectralResidual};

/// Monitor configuration.
#[derive(Debug, Clone, Copy)]
pub struct MonitorConfig {
    /// Window size `w` (`|R| = |T| = w`).
    pub window: usize,
    /// KS significance level.
    pub alpha: f64,
    /// Compute a MOCHE explanation on every alarm (using Spectral-Residual
    /// preference over the test window).
    pub explain_on_drift: bool,
    /// Report only the Phase-1 explanation *size* on alarms — "how bad is
    /// the drift" — skipping Phase 2 entirely. Overrides
    /// `explain_on_drift`'s Phase-2 work: when both are set, alarms carry a
    /// size but no explanation.
    pub size_only: bool,
    /// After an alarm, drop both windows and refill from scratch (prevents
    /// one drift from alarming `w` times as it traverses the window).
    pub reset_on_drift: bool,
    /// Spectral-Residual average-filter size (`q` in the SR paper) used
    /// when ranking test points for explanations. Must be ≥ 1.
    pub sr_filter_window: usize,
    /// Spectral-Residual trailing-average window (`z` in the SR paper)
    /// used to turn saliency into outlier scores. Must be ≥ 1.
    pub sr_score_window: usize,
}

impl MonitorConfig {
    /// A reasonable default: explain and reset on drift, with the SR
    /// paper's reference preference parameters (`q = 3`, `z = 21`).
    pub fn new(window: usize, alpha: f64) -> Self {
        let sr = SpectralResidual::default();
        Self {
            window,
            alpha,
            explain_on_drift: true,
            size_only: false,
            reset_on_drift: true,
            sr_filter_window: sr.filter_window,
            sr_score_window: sr.score_window,
        }
    }

    /// The Spectral-Residual transform this configuration ranks test
    /// points with (extension parameters stay at the SR paper's defaults).
    pub fn spectral_residual(&self) -> SpectralResidual {
        SpectralResidual {
            filter_window: self.sr_filter_window,
            score_window: self.sr_score_window,
            ..SpectralResidual::default()
        }
    }
}

/// What a [`DriftMonitor::push`] call observed.
#[derive(Debug, Clone)]
#[allow(clippy::large_enum_variant)] // Drift carries the full Explanation by design
pub enum MonitorEvent {
    /// Still filling the initial `2w` observations.
    Warming {
        /// Observations seen so far.
        seen: usize,
        /// Observations needed before testing starts.
        needed: usize,
    },
    /// Windows full; the KS test passes.
    Stable {
        /// The passing outcome.
        outcome: KsOutcome,
    },
    /// The KS test failed: distribution drift.
    Drift {
        /// The failing outcome.
        outcome: KsOutcome,
        /// The most comprehensible counterfactual explanation of the
        /// failure, when enabled and computable.
        explanation: Option<Explanation>,
        /// The Phase-1 explanation size, when
        /// [`MonitorConfig::size_only`] is set and computable.
        size: Option<SizeSearch>,
    },
}

/// What an alarm asks of [`MonitorScratch::answer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AlarmJob {
    /// The full MOCHE explanation.
    Explain,
    /// The Phase-1 size only.
    Size,
}

impl AlarmJob {
    /// The job an alarm under `cfg` runs, if any.
    pub(crate) fn for_config(cfg: &MonitorConfig) -> Option<Self> {
        if cfg.size_only {
            Some(Self::Size)
        } else if cfg.explain_on_drift {
            Some(Self::Explain)
        } else {
            None
        }
    }
}

/// What [`MonitorScratch::answer`] produced for one window pair.
#[derive(Debug, Default)]
pub(crate) struct AlarmAnswer {
    pub(crate) explanation: Option<Explanation>,
    pub(crate) size: Option<SizeSearch>,
    /// An explanation was produced with the identity-preference fallback.
    pub(crate) degraded: bool,
}

/// The alarm-answering working set, separate from per-series state so a
/// fleet worker can share one across all the series it owns: the
/// rebuildable reference index and its sort buffer, the explain engine
/// (bounds workspace, base-vector splice buffers), the recycled
/// explanation arena, the Spectral-Residual FFT planes, and the
/// score/preference buffers. Only touched while explaining, never while
/// pushing, so sharing it costs nothing on the fast path.
#[derive(Debug, Clone)]
pub struct MonitorScratch {
    /// The reference window's rank index, re-sorted in place per alarm
    /// (`None` until the first alarm).
    ref_index: Option<ReferenceIndex>,
    /// Sort buffer for [`ReferenceIndex::rebuild_from`].
    sort_scratch: Vec<f64>,
    /// Scratch-reusing explainer: alarm N reuses the buffers of alarm N-1.
    engine: ExplainEngine,
    /// Recycled output storage: callers that hand consumed explanations
    /// back via [`recycle`](Self::recycle) make alarms allocation-free on
    /// the output side too.
    arena: ExplanationArena,
    /// The Spectral Residual working set (FFT spectrum, saliency planes)...
    sr_scratch: SaliencyScratch,
    /// ...the outlier scores derived from it...
    score_scratch: Vec<f64>,
    /// ...and the preference list refilled from those scores.
    pref_scratch: PreferenceList,
}

impl MonitorScratch {
    /// An empty scratch bound to a KS configuration (the engine's `α`).
    /// All series sharing a scratch must use the same significance level.
    pub fn with_config(ks_cfg: KsConfig) -> Self {
        Self {
            ref_index: None,
            sort_scratch: Vec::new(),
            engine: ExplainEngine::with_config(ks_cfg),
            arena: ExplanationArena::new(),
            sr_scratch: SaliencyScratch::new(),
            score_scratch: Vec::new(),
            pref_scratch: PreferenceList::identity(0),
        }
    }

    /// An empty scratch for significance level `alpha`.
    ///
    /// # Errors
    ///
    /// [`MocheError::InvalidAlpha`] outside `(0, 1)`.
    pub fn new(alpha: f64) -> Result<Self, MocheError> {
        Ok(Self::with_config(KsConfig::new(alpha)?))
    }

    /// Hands a consumed explanation's output buffers back for reuse (see
    /// [`moche_core::ExplanationArena`]).
    pub fn recycle(&mut self, explanation: Explanation) {
        self.arena.recycle(explanation);
    }

    /// Answers one alarm window pair — the only alarm path, shared by the
    /// monitor's inline alarms and the fleet's deferred queue: re-sorts
    /// `reference` into the index, then either ranks `test` with `sr`
    /// (identity fallback on breakdown) and constructs the explanation
    /// into the arena, or runs Phase 1 only.
    pub(crate) fn answer(
        &mut self,
        job: AlarmJob,
        sr: &SpectralResidual,
        reference: &[f64],
        test: &[f64],
    ) -> AlarmAnswer {
        let degraded = job == AlarmJob::Explain && self.fill_preference(sr, test);
        let Some(index) = rebuild_index(&mut self.ref_index, &mut self.sort_scratch, reference)
        else {
            return AlarmAnswer::default();
        };
        match job {
            AlarmJob::Size => AlarmAnswer {
                size: self.engine.size_with_index(index, test).ok(),
                ..AlarmAnswer::default()
            },
            AlarmJob::Explain => {
                let explanation = self
                    .engine
                    .explain_with_index_in(index, test, &self.pref_scratch, &mut self.arena)
                    .ok();
                // Count the degradation only when an explanation was
                // actually produced with the fallback ranking.
                let degraded = degraded && explanation.is_some();
                AlarmAnswer { explanation, size: None, degraded }
            }
        }
    }

    /// Fills the preference scratch for `test` by Spectral-Residual score
    /// (falling back to the identity order on numerical breakdown or short
    /// windows) and reports whether it degraded.
    fn fill_preference(&mut self, sr: &SpectralResidual, test: &[f64]) -> bool {
        let m = test.len();
        if m >= 4 {
            let scored =
                sr.scores_into(test, &mut self.sr_scratch, &mut self.score_scratch).is_ok()
                    && self.pref_scratch.fill_from_scores_desc(&self.score_scratch).is_ok();
            if scored {
                return false;
            }
            // A rejected scoring must not silently drop the whole
            // explanation: degrade to the neutral identity order
            // (matching the short-window branch).
            self.pref_scratch.fill_identity(m);
            return true;
        }
        self.pref_scratch.fill_identity(m);
        false
    }
}

/// Re-sorts `reference` into the index in `slot` (building it on first
/// use), reusing its buffers. `None` for an empty or non-finite reference.
fn rebuild_index<'a>(
    slot: &'a mut Option<ReferenceIndex>,
    sort_scratch: &mut Vec<f64>,
    reference: &[f64],
) -> Option<&'a ReferenceIndex> {
    match slot {
        Some(index) => {
            index.rebuild_from(reference, sort_scratch).ok()?;
            Some(index)
        }
        None => Some(slot.insert(ReferenceIndex::new(reference).ok()?)),
    }
}

/// Recycled buffers holding a point-in-time copy of both windows, taken at
/// alarm time by [`MonitorState::try_push_deferred`] so the explanation
/// can be computed later (possibly after the windows have slid on or been
/// reset) without blocking the push path. A warm capture of the same
/// window size refills without allocating.
#[derive(Debug, Clone, Default)]
pub struct WindowCapture {
    /// Reference window contents at alarm time, oldest first.
    pub reference: Vec<f64>,
    /// Test window contents at alarm time, oldest first.
    pub test: Vec<f64>,
}

impl WindowCapture {
    /// An empty capture; the first alarm through it allocates, later ones
    /// of the same (or smaller) window size reuse both buffers.
    pub fn new() -> Self {
        Self::default()
    }
}

/// How alarm-time explanation work is handled by a push.
enum AlarmWork<'a> {
    /// Compute inline through the given scratch (the [`DriftMonitor`]
    /// behaviour: the push call returns the finished explanation).
    Inline(&'a mut MonitorScratch),
    /// Copy the windows into recycled capture buffers and return
    /// immediately; the caller explains later (the fleet's alarm queue).
    Defer(&'a mut WindowCapture),
}

/// The per-series half of a drift monitor: the sliding windows with their
/// KS treap ([`SlidingKs`]) and counters — everything that must exist once
/// per monitored series. All alarm-answering buffers live in a separate
/// [`MonitorScratch`] passed into the methods, so a fleet worker can own
/// one scratch and thousands of states.
#[derive(Debug, Clone)]
pub struct MonitorState {
    cfg: MonitorConfig,
    ks_cfg: KsConfig,
    ks: SlidingKs,
    pushes: u64,
    alarms: u64,
    degraded_preferences: u64,
}

impl MonitorState {
    /// Creates the per-series state.
    ///
    /// # Errors
    ///
    /// Returns [`MocheError::InvalidAlpha`] for a bad significance level
    /// and [`MocheError::WindowTooSmall`] if `window < 2` (paired sliding
    /// windows need at least two points each) or either Spectral-Residual
    /// window is zero.
    pub fn new(cfg: MonitorConfig) -> Result<Self, MocheError> {
        if cfg.window < 2 {
            return Err(MocheError::WindowTooSmall { window: cfg.window, min: 2 });
        }
        if cfg.sr_filter_window < 1 {
            return Err(MocheError::WindowTooSmall { window: cfg.sr_filter_window, min: 1 });
        }
        if cfg.sr_score_window < 1 {
            return Err(MocheError::WindowTooSmall { window: cfg.sr_score_window, min: 1 });
        }
        let ks_cfg = KsConfig::new(cfg.alpha)?;
        Ok(Self {
            cfg,
            ks_cfg,
            ks: SlidingKs::new(cfg.window),
            pushes: 0,
            alarms: 0,
            degraded_preferences: 0,
        })
    }

    /// The configuration this state was built with.
    pub fn config(&self) -> &MonitorConfig {
        &self.cfg
    }

    /// Total observations pushed.
    pub fn pushes(&self) -> u64 {
        self.pushes
    }

    /// Total drift alarms raised.
    pub fn alarms(&self) -> u64 {
        self.alarms
    }

    /// Identity-fallback explanations produced (see
    /// [`DriftMonitor::degraded_preferences`]).
    pub fn degraded_preferences(&self) -> u64 {
        self.degraded_preferences
    }

    /// Counts a degraded preference produced outside the inline path (the
    /// fleet's deferred explain queue ranks with the same fallback).
    pub(crate) fn note_degraded(&mut self) {
        self.degraded_preferences += 1;
    }

    /// The current reference window contents, oldest first.
    pub fn reference_window(&self) -> Vec<f64> {
        self.ks.reference().collect()
    }

    /// The current test window contents, oldest first.
    pub fn test_window(&self) -> Vec<f64> {
        self.ks.test().collect()
    }

    /// Feeds one observation, answering alarms inline through `scratch` —
    /// see [`DriftMonitor::try_push`] for the event contract.
    ///
    /// # Errors
    ///
    /// [`MocheError::NonFiniteObservation`] for NaN or infinite input; the
    /// state is untouched.
    pub fn try_push(
        &mut self,
        value: f64,
        scratch: &mut MonitorScratch,
    ) -> Result<MonitorEvent, MocheError> {
        self.try_push_impl(value, AlarmWork::Inline(scratch))
    }

    /// Feeds one observation with alarm explanation **deferred**: on drift
    /// the windows are copied into `capture` (recycled buffers, no
    /// allocation when warm) and the event carries no explanation or size.
    /// The caller explains later from the capture — the fleet's
    /// alarm-queue path, where a slow explain must never block the next
    /// push.
    ///
    /// # Errors
    ///
    /// As for [`try_push`](Self::try_push).
    pub fn try_push_deferred(
        &mut self,
        value: f64,
        capture: &mut WindowCapture,
    ) -> Result<MonitorEvent, MocheError> {
        self.try_push_impl(value, AlarmWork::Defer(capture))
    }

    fn try_push_impl(
        &mut self,
        value: f64,
        work: AlarmWork<'_>,
    ) -> Result<MonitorEvent, MocheError> {
        if !value.is_finite() {
            return Err(MocheError::NonFiniteObservation { accepted: self.pushes, value });
        }
        self.pushes += 1;
        self.ks.push(value);
        let Some(outcome) = self.ks.outcome(&self.ks_cfg) else {
            return Ok(MonitorEvent::Warming { seen: self.ks.len(), needed: 2 * self.cfg.window });
        };
        if !outcome.rejected {
            return Ok(MonitorEvent::Stable { outcome });
        }

        self.alarms += 1;
        let (explanation, size) = match work {
            AlarmWork::Inline(scratch) => match AlarmJob::for_config(&self.cfg) {
                Some(job) => {
                    let answer = self.answer_current(scratch, job);
                    (answer.explanation, answer.size)
                }
                None => (None, None),
            },
            AlarmWork::Defer(capture) => {
                capture.reference.clear();
                capture.reference.extend(self.ks.reference());
                capture.test.clear();
                capture.test.extend(self.ks.test());
                (None, None)
            }
        };
        if self.cfg.reset_on_drift {
            self.ks.clear();
        }
        Ok(MonitorEvent::Drift { outcome, explanation, size })
    }

    /// Explains the current window pair through `scratch` — see
    /// [`DriftMonitor::explain_current`] for the full contract.
    pub fn explain_in(&mut self, scratch: &mut MonitorScratch) -> Option<Explanation> {
        if !self.currently_rejected() {
            // Still warming, or passing windows with nothing to explain:
            // deciding that here costs O(1) (the statistic is sitting at
            // the treap root) instead of paying the sort, the SR transform
            // and the base-vector build just to learn the same.
            return None;
        }
        self.answer_current(scratch, AlarmJob::Explain).explanation
    }

    /// Phase 1 only through `scratch` — see [`DriftMonitor::size_current`].
    pub fn size_in(&mut self, scratch: &mut MonitorScratch) -> Option<SizeSearch> {
        if !self.currently_rejected() {
            return None; // see explain_in
        }
        self.answer_current(scratch, AlarmJob::Size).size
    }

    /// Whether the monitor's KS decision — the same one that raises
    /// alarms — currently rejects the window pair. `O(1)`.
    fn currently_rejected(&self) -> bool {
        self.ks.outcome(&self.ks_cfg).is_some_and(|outcome| outcome.rejected)
    }

    /// Answers the current window pair straight from the ring, counting a
    /// degraded preference.
    fn answer_current(&mut self, scratch: &mut MonitorScratch, job: AlarmJob) -> AlarmAnswer {
        let sr = self.cfg.spectral_residual();
        let (reference, test) = self.ks.windows();
        let answer = scratch.answer(job, &sr, reference, test);
        if answer.degraded {
            self.degraded_preferences += 1;
        }
        answer
    }

    /// Captures the restorable state — see [`DriftMonitor::snapshot`].
    pub fn snapshot(&self) -> crate::snapshot::MonitorSnapshot {
        crate::snapshot::MonitorSnapshot {
            window: self.cfg.window,
            alpha: self.cfg.alpha,
            explain_on_drift: self.cfg.explain_on_drift,
            size_only: self.cfg.size_only,
            reset_on_drift: self.cfg.reset_on_drift,
            sr_filter_window: self.cfg.sr_filter_window,
            sr_score_window: self.cfg.sr_score_window,
            pushes: self.pushes,
            alarms: self.alarms,
            degraded_preferences: self.degraded_preferences,
            reference: self.reference_window(),
            test: self.test_window(),
        }
    }

    /// Rebuilds per-series state from a snapshot — see
    /// [`DriftMonitor::restore`] for the equivalence guarantee.
    ///
    /// # Errors
    ///
    /// As for [`DriftMonitor::restore`].
    pub fn restore(
        snapshot: &crate::snapshot::MonitorSnapshot,
    ) -> Result<Self, crate::snapshot::SnapshotError> {
        snapshot.validate()?;
        let cfg = MonitorConfig {
            window: snapshot.window,
            alpha: snapshot.alpha,
            explain_on_drift: snapshot.explain_on_drift,
            size_only: snapshot.size_only,
            reset_on_drift: snapshot.reset_on_drift,
            sr_filter_window: snapshot.sr_filter_window,
            sr_score_window: snapshot.sr_score_window,
        };
        let mut state = Self::new(cfg)?;
        // `validate` guarantees the warm-up order (a test window only
        // behind a full reference window), so refilling the ring in order
        // rebuilds both windows exactly.
        for &value in snapshot.reference.iter().chain(&snapshot.test) {
            state.ks.push(value);
        }
        state.pushes = snapshot.pushes;
        state.alarms = snapshot.alarms;
        state.degraded_preferences = snapshot.degraded_preferences;
        Ok(state)
    }
}

/// The push-based drift monitor.
///
/// # Examples
///
/// ```
/// use moche_stream::{DriftMonitor, MonitorConfig, MonitorEvent};
///
/// let mut monitor = DriftMonitor::new(MonitorConfig::new(40, 0.05)).unwrap();
/// let mut drifted = false;
/// for i in 0..400 {
///     // Level shift at t = 200.
///     let x = f64::from(i % 8) + if i < 200 { 0.0 } else { 25.0 };
///     if let MonitorEvent::Drift { explanation, .. } = monitor.push(x) {
///         let e = explanation.expect("explanations enabled by default");
///         assert!(e.outcome_after.passes());
///         drifted = true;
///         break;
///     }
/// }
/// assert!(drifted);
/// ```
#[derive(Debug, Clone)]
pub struct DriftMonitor {
    state: MonitorState,
    scratch: MonitorScratch,
}

impl DriftMonitor {
    /// Creates a monitor.
    ///
    /// # Errors
    ///
    /// Returns [`MocheError::InvalidAlpha`] for a bad significance level
    /// and [`MocheError::WindowTooSmall`] if `window < 2` (paired sliding
    /// windows need at least two points each) or either Spectral-Residual
    /// window is zero.
    pub fn new(cfg: MonitorConfig) -> Result<Self, MocheError> {
        let state = MonitorState::new(cfg)?;
        let scratch = MonitorScratch::with_config(state.ks_cfg);
        Ok(Self { state, scratch })
    }

    /// Total observations pushed.
    pub fn pushes(&self) -> u64 {
        self.state.pushes()
    }

    /// Total drift alarms raised.
    pub fn alarms(&self) -> u64 {
        self.state.alarms()
    }

    /// How many explanations were produced with the identity-preference
    /// fallback because Spectral-Residual scoring rejected the window
    /// (numerical breakdown on extreme values). Each counted explanation
    /// is still valid — just ranked neutrally — and this counter surfaces
    /// the degradation; calls that produce no explanation at all (e.g. an
    /// on-demand [`explain_current`](Self::explain_current) while the
    /// test currently passes) are never counted.
    pub fn degraded_preferences(&self) -> u64 {
        self.state.degraded_preferences()
    }

    /// The current reference window contents, oldest first.
    pub fn reference_window(&self) -> Vec<f64> {
        self.state.reference_window()
    }

    /// The current test window contents, oldest first.
    pub fn test_window(&self) -> Vec<f64> {
        self.state.test_window()
    }

    /// Feeds one observation and reports what happened — the thin
    /// asserting wrapper over [`try_push`](Self::try_push), for trusted
    /// streams.
    ///
    /// # Panics
    ///
    /// Panics on non-finite observations (monitor state stays valid). Use
    /// [`try_push`](Self::try_push) for untrusted input — a data file fed
    /// straight into the monitor should degrade to an error report, not
    /// abort the process.
    pub fn push(&mut self, value: f64) -> MonitorEvent {
        match self.try_push(value) {
            Ok(event) => event,
            // lint:allow(panic): the documented contract of `push` — the
            // fallible twin is `try_push`, which this forwards to
            Err(_) => panic!("observations must be finite (got {value}); see try_push"),
        }
    }

    /// Feeds one observation and reports what happened, rejecting bad
    /// input instead of panicking.
    ///
    /// # Errors
    ///
    /// Returns [`MocheError::NonFiniteObservation`] for a NaN or infinite
    /// observation; the monitor state is untouched, so the caller can skip
    /// the observation and keep streaming. The reported position is the
    /// number of observations accepted so far.
    pub fn try_push(&mut self, value: f64) -> Result<MonitorEvent, MocheError> {
        self.state.try_push(value, &mut self.scratch)
    }

    /// Explains the current window pair with MOCHE, ranking test points by
    /// Spectral-Residual outlier score — the alarm path, public so callers
    /// can also ask for an explanation *between* alarms (e.g. on demand
    /// for a dashboard). Returns `None` while the windows are still
    /// warming, or when the KS test currently passes (nothing to explain).
    ///
    /// The windows are read straight from the ring; the reference window
    /// is sorted once into the index (`O(w log w)`), the base-vector
    /// splice is `O(m log w)` into a contracted vector of at most
    /// `min(2w, 3 q_T + 2)` coordinates, and every buffer — index,
    /// sort buffer, FFT planes, preference, bounds workspace, and (after
    /// [`recycle`](Self::recycle)) the output itself — is recycled scratch
    /// refilled in place: a warm alarm performs **zero** heap allocations.
    ///
    /// If Spectral-Residual scoring rejects the window (numerical
    /// breakdown on extreme values, or fewer than 4 points), the
    /// explanation falls back to the identity preference instead of being
    /// dropped, and [`degraded_preferences`](Self::degraded_preferences)
    /// counts the degradation. The transform itself is configurable via
    /// [`MonitorConfig::sr_filter_window`] and
    /// [`MonitorConfig::sr_score_window`].
    pub fn explain_current(&mut self) -> Option<Explanation> {
        self.state.explain_in(&mut self.scratch)
    }

    /// Hands a consumed alarm explanation's output buffers back to the
    /// monitor, so the next alarm writes into recycled storage instead of
    /// allocating (see [`moche_core::ExplanationArena`]). Entirely
    /// optional — a dropped explanation simply costs the next alarm two
    /// allocations.
    pub fn recycle(&mut self, explanation: Explanation) {
        self.scratch.recycle(explanation);
    }

    /// Phase 1 only on the current window pair: the explanation size,
    /// without constructing the explanation — the
    /// [`MonitorConfig::size_only`] alarm path, public like
    /// [`explain_current`](Self::explain_current). Returns `None` while
    /// warming or when the test currently passes.
    pub fn size_current(&mut self) -> Option<SizeSearch> {
        self.state.size_in(&mut self.scratch)
    }

    /// Captures the monitor's restorable state: configuration, both
    /// window contents, and the alarm/degradation counters. Derived
    /// structures (the KS treap, the alarm scratch) are rebuilt on
    /// [`restore`](Self::restore), so the
    /// snapshot stays small and format-stable. See
    /// [`crate::snapshot::MonitorSnapshot`] for the serialized form and
    /// the byte-identity guarantee.
    pub fn snapshot(&self) -> crate::snapshot::MonitorSnapshot {
        self.state.snapshot()
    }

    /// Rebuilds a monitor from a snapshot. The window values are pushed
    /// back into the ring and KS treap `try_push` maintains, so the
    /// restored monitor's future behaviour is
    /// observably identical to the captured one's — including
    /// byte-identical alarm explanations (the KS decision is exact
    /// integer arithmetic over the window multisets, independent of
    /// internal insertion history; pinned by `tests/snapshot_roundtrip.rs`).
    ///
    /// # Errors
    ///
    /// [`crate::snapshot::SnapshotError::Invalid`] if the snapshot
    /// violates the monitor's structural invariants (window lengths,
    /// warm-up order, finite values) and
    /// [`crate::snapshot::SnapshotError::Moche`] if the embedded
    /// configuration is itself invalid.
    pub fn restore(
        snapshot: &crate::snapshot::MonitorSnapshot,
    ) -> Result<Self, crate::snapshot::SnapshotError> {
        let state = MonitorState::restore(snapshot)?;
        let scratch = MonitorScratch::with_config(state.ks_cfg);
        Ok(Self { state, scratch })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn warms_up_then_stabilizes_on_stationary_stream() {
        let mut mon = DriftMonitor::new(MonitorConfig::new(50, 0.05)).unwrap();
        let mut stable = 0;
        for i in 0..400 {
            let x = ((i * 31) % 17) as f64;
            match mon.push(x) {
                MonitorEvent::Warming { seen, needed } => {
                    assert!(seen <= needed);
                    assert!(i < 100, "warming past 2w at i = {i}");
                }
                MonitorEvent::Stable { outcome } => {
                    assert!(outcome.passes());
                    stable += 1;
                }
                MonitorEvent::Drift { .. } => {
                    panic!("stationary periodic stream must not alarm (i = {i})")
                }
            }
        }
        assert!(stable > 0);
        assert_eq!(mon.alarms(), 0);
        assert_eq!(mon.pushes(), 400);
    }

    #[test]
    fn detects_a_level_shift_and_explains_it() {
        let mut mon = DriftMonitor::new(MonitorConfig::new(60, 0.05)).unwrap();
        let mut drift_at = None;
        for i in 0..600 {
            let x = if i < 300 { ((i * 13) % 11) as f64 } else { ((i * 13) % 11) as f64 + 20.0 };
            if let MonitorEvent::Drift { outcome, explanation, size } = mon.push(x) {
                assert!(outcome.rejected);
                assert!(size.is_none(), "size_only is off by default");
                drift_at = Some(i);
                let e = explanation.expect("explanation enabled");
                assert!(e.outcome_after.passes());
                // The shifted points dominate the explanation.
                assert!(e.values().iter().all(|&v| v >= 20.0), "values = {:?}", e.values());
                break;
            }
        }
        let at = drift_at.expect("the level shift must be detected");
        assert!((300..420).contains(&at), "detected at {at}");
    }

    #[test]
    fn repeated_alarms_reuse_recycled_scratch() {
        // Without reset_on_drift one level shift alarms repeatedly as it
        // traverses the window; every alarm must rebuild the scratch index
        // and preference in place and still explain correctly.
        let mut cfg = MonitorConfig::new(40, 0.05);
        cfg.reset_on_drift = false;
        let mut mon = DriftMonitor::new(cfg).unwrap();
        let mut alarms = 0usize;
        for i in 0..400 {
            let x = if i < 200 { ((i * 13) % 11) as f64 } else { ((i * 13) % 11) as f64 + 20.0 };
            if let MonitorEvent::Drift { explanation, .. } = mon.push(x) {
                let e = explanation.expect("explanations enabled");
                assert!(e.outcome_after.passes(), "alarm {alarms} must verify");
                alarms += 1;
                mon.recycle(e);
                if alarms >= 5 {
                    break;
                }
            }
        }
        assert!(alarms >= 5, "the shift must alarm repeatedly, got {alarms}");
        assert_eq!(mon.alarms(), alarms as u64);
    }

    #[test]
    fn reset_on_drift_requires_rewarming() {
        let mut mon = DriftMonitor::new(MonitorConfig::new(30, 0.05)).unwrap();
        for i in 0..200 {
            let x = if i < 100 { 0.0 + (i % 5) as f64 } else { 50.0 + (i % 5) as f64 };
            if let MonitorEvent::Drift { .. } = mon.push(x) {
                // The very next push must be a warming event.
                match mon.push(1.0) {
                    MonitorEvent::Warming { seen, .. } => assert_eq!(seen, 1),
                    other => panic!("expected warming after reset, got {other:?}"),
                }
                return;
            }
        }
        panic!("drift never detected");
    }

    #[test]
    fn no_reset_keeps_sliding() {
        let mut cfg = MonitorConfig::new(30, 0.05);
        cfg.reset_on_drift = false;
        cfg.explain_on_drift = false;
        let mut mon = DriftMonitor::new(cfg).unwrap();
        let mut alarms = 0;
        for i in 0..300 {
            let x = if i < 150 { (i % 7) as f64 } else { (i % 7) as f64 + 30.0 };
            if let MonitorEvent::Drift { explanation, .. } = mon.push(x) {
                assert!(explanation.is_none(), "explanations disabled");
                alarms += 1;
            }
        }
        // Without reset the drift alarms repeatedly while traversing.
        assert!(alarms > 1, "expected repeated alarms, got {alarms}");
        assert_eq!(mon.alarms(), alarms);
    }

    #[test]
    fn size_only_reports_k_without_an_explanation() {
        let mut full_cfg = MonitorConfig::new(60, 0.05);
        full_cfg.reset_on_drift = false;
        let mut size_cfg = full_cfg;
        size_cfg.size_only = true;
        let mut full = DriftMonitor::new(full_cfg).unwrap();
        let mut sized = DriftMonitor::new(size_cfg).unwrap();
        let series: Vec<f64> = (0..600)
            .map(|i| if i < 300 { ((i * 13) % 11) as f64 } else { ((i * 13) % 11) as f64 + 20.0 })
            .collect();
        let mut checked = 0;
        for &x in &series {
            let (a, b) = (full.push(x), sized.push(x));
            if let (
                MonitorEvent::Drift { explanation: Some(e), .. },
                MonitorEvent::Drift { explanation, size: Some(k), .. },
            ) = (a, b)
            {
                // Same windows, same alarm: the size-only path must agree
                // with the full explanation's Phase 1 and skip Phase 2.
                assert!(explanation.is_none(), "size_only must not build an explanation");
                assert_eq!(k, e.phase1);
                checked += 1;
            }
        }
        assert!(checked > 0, "the level shift must alarm both monitors");
    }

    #[test]
    fn tiny_windows_error_instead_of_panicking() {
        for window in [0usize, 1] {
            match DriftMonitor::new(MonitorConfig::new(window, 0.05)) {
                Err(MocheError::WindowTooSmall { window: w, min: 2 }) => assert_eq!(w, window),
                other => panic!("expected WindowTooSmall for window {window}, got {other:?}"),
            }
        }
        assert!(DriftMonitor::new(MonitorConfig::new(2, 0.05)).is_ok());
    }

    #[test]
    fn zero_sr_windows_error_instead_of_panicking() {
        let mut cfg = MonitorConfig::new(20, 0.05);
        cfg.sr_filter_window = 0;
        assert!(matches!(
            DriftMonitor::new(cfg),
            Err(MocheError::WindowTooSmall { window: 0, min: 1 })
        ));
        let mut cfg = MonitorConfig::new(20, 0.05);
        cfg.sr_score_window = 0;
        assert!(matches!(
            DriftMonitor::new(cfg),
            Err(MocheError::WindowTooSmall { window: 0, min: 1 })
        ));
    }

    #[test]
    fn custom_sr_config_changes_the_ranking_it_is_told_to() {
        // The configurable SR transform must actually reach the alarm
        // path: explanations under a custom (filter_window, score_window)
        // must equal a one-shot MOCHE run ranked by that same transform.
        let mut cfg = MonitorConfig::new(40, 0.05);
        cfg.reset_on_drift = false;
        cfg.sr_filter_window = 5;
        cfg.sr_score_window = 9;
        let mut mon = DriftMonitor::new(cfg).unwrap();
        let mut checked = 0;
        for i in 0..400 {
            let x = if i < 200 { ((i * 13) % 11) as f64 } else { ((i * 13) % 11) as f64 + 20.0 };
            if let MonitorEvent::Drift { explanation: Some(e), .. } = mon.push(x) {
                let sr = SpectralResidual {
                    filter_window: 5,
                    score_window: 9,
                    ..SpectralResidual::default()
                };
                let pref =
                    PreferenceList::from_scores_desc(&sr.scores(&mon.test_window())).unwrap();
                let moche = moche_core::Moche::new(0.05).unwrap();
                let expected =
                    moche.explain(&mon.reference_window(), &mon.test_window(), &pref).unwrap();
                assert_eq!(e, expected, "i = {i}");
                mon.recycle(e);
                checked += 1;
                if checked >= 3 {
                    break;
                }
            }
        }
        assert!(checked > 0, "the level shift must alarm");
        assert_eq!(mon.snapshot().sr_filter_window, 5);
        assert_eq!(mon.snapshot().sr_score_window, 9);
    }

    #[test]
    fn deferred_push_captures_the_alarm_windows() {
        // try_push_deferred must alarm at the same pushes as the inline
        // path, capture exactly the windows the inline path explained,
        // and (with reset_on_drift) still reset afterwards.
        let cfg = MonitorConfig::new(30, 0.05);
        let w = cfg.window;
        let mut inline = DriftMonitor::new(cfg).unwrap();
        let mut deferred = MonitorState::new(cfg).unwrap();
        let mut capture = WindowCapture::new();
        // Shadow model: the values accepted since the last reset — the
        // decision windows are always its last 2w entries.
        let mut since_reset: Vec<f64> = Vec::new();
        let mut alarms = 0;
        for i in 0..400 {
            let x = if i % 120 < 60 { (i % 5) as f64 } else { (i % 5) as f64 + 25.0 };
            since_reset.push(x);
            let a = inline.push(x);
            let b = deferred.try_push_deferred(x, &mut capture).unwrap();
            match (a, b) {
                (
                    MonitorEvent::Drift { outcome: oa, explanation, .. },
                    MonitorEvent::Drift { outcome: ob, explanation: none, size },
                ) => {
                    assert!(none.is_none() && size.is_none(), "deferred pushes never explain");
                    assert_eq!(oa.statistic.to_bits(), ob.statistic.to_bits());
                    let n = since_reset.len();
                    assert!(n >= 2 * w, "drift before the windows were full");
                    assert_eq!(capture.reference, since_reset[n - 2 * w..n - w]);
                    assert_eq!(capture.test, since_reset[n - w..]);
                    since_reset.clear(); // reset_on_drift is on
                    if let Some(e) = explanation {
                        inline.recycle(e);
                    }
                    alarms += 1;
                }
                (MonitorEvent::Warming { .. }, MonitorEvent::Warming { .. })
                | (MonitorEvent::Stable { .. }, MonitorEvent::Stable { .. }) => {}
                (a, b) => panic!("event divergence at i = {i}: {a:?} vs {b:?}"),
            }
        }
        assert!(alarms > 0, "the alternating shift must alarm");
        assert_eq!(inline.alarms(), deferred.alarms());
    }

    #[test]
    fn recycled_alarms_match_unrecycled_ones() {
        let mut cfg = MonitorConfig::new(40, 0.05);
        cfg.reset_on_drift = false;
        let mut recycling = DriftMonitor::new(cfg).unwrap();
        let mut plain = DriftMonitor::new(cfg).unwrap();
        let series: Vec<f64> = (0..400)
            .map(|i| if i < 200 { ((i * 13) % 11) as f64 } else { ((i * 13) % 11) as f64 + 20.0 })
            .collect();
        let mut alarms = 0;
        for &x in &series {
            let a = recycling.push(x);
            let b = plain.push(x);
            if let (
                MonitorEvent::Drift { explanation: Some(ea), .. },
                MonitorEvent::Drift { explanation: Some(eb), .. },
            ) = (a, b)
            {
                assert_eq!(ea, eb, "arena reuse must not change explanations");
                alarms += 1;
                recycling.recycle(ea); // alarm N+1 reuses alarm N's buffers
            }
        }
        assert!(alarms > 1, "need repeated alarms to exercise the recycled path");
    }

    #[test]
    fn try_push_rejects_non_finite_without_corrupting_state() {
        let mut cfg = MonitorConfig::new(30, 0.05);
        cfg.reset_on_drift = false;
        let mut mon = DriftMonitor::new(cfg).unwrap();
        let mut clean = DriftMonitor::new(cfg).unwrap();
        let series: Vec<f64> = (0..300)
            .map(|i| if i < 150 { (i % 7) as f64 } else { (i % 7) as f64 + 30.0 })
            .collect();
        let mut rejected = 0;
        for (i, &x) in series.iter().enumerate() {
            // Inject garbage between every real observation: each must be
            // rejected with the monitor untouched — a regression guard for
            // the panic `push` used to hit on bad data files.
            for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                match mon.try_push(bad) {
                    Err(MocheError::NonFiniteObservation { accepted, value }) => {
                        assert_eq!(accepted, i as u64, "position counts accepted observations");
                        assert_eq!(value.to_bits(), bad.to_bits());
                        rejected += 1;
                    }
                    other => panic!("expected NonFiniteObservation, got {other:?}"),
                }
            }
            let a = format!("{:?}", mon.try_push(x).unwrap());
            let b = format!("{:?}", clean.push(x));
            assert_eq!(a, b, "rejected observations must leave no trace (t = {i})");
        }
        assert_eq!(rejected, 3 * series.len());
        assert_eq!(mon.pushes(), clean.pushes());
        assert_eq!(mon.alarms(), clean.alarms());
        assert!(mon.alarms() > 0, "the level shift must still alarm");
    }

    #[test]
    #[should_panic(expected = "must be finite")]
    fn push_keeps_the_asserting_contract() {
        let mut mon = DriftMonitor::new(MonitorConfig::new(10, 0.05)).unwrap();
        mon.push(f64::NAN);
    }

    #[test]
    fn sr_rejection_degrades_to_identity_instead_of_dropping() {
        // Near-f64::MAX test values overflow the Spectral Residual FFT, so
        // scoring rejects the window. The alarm must still carry an
        // explanation (identity-ranked) and count the degradation.
        let mut cfg = MonitorConfig::new(20, 0.05);
        cfg.reset_on_drift = false;
        let mut mon = DriftMonitor::new(cfg).unwrap();
        let mut degraded_alarms = 0;
        for i in 0..200 {
            let x = if i < 100 { (i % 5) as f64 } else { 1.5e308 };
            if let MonitorEvent::Drift { explanation, .. } = mon.push(x) {
                let e = explanation
                    .expect("SR rejection must fall back to identity, not drop the explanation");
                assert!(e.outcome_after.passes());
                assert!(e.values().iter().all(|&v| v > 1.0e308), "the huge points explain it");
                degraded_alarms += 1;
                mon.recycle(e);
            }
        }
        assert!(degraded_alarms > 0, "the shift to huge values must alarm");
        assert_eq!(
            mon.degraded_preferences(),
            degraded_alarms,
            "every alarm on the overflowing window degrades its preference"
        );
        // A healthy monitor never increments the counter.
        let mut healthy = DriftMonitor::new(MonitorConfig::new(20, 0.05)).unwrap();
        for i in 0..200 {
            let x = if i < 100 { (i % 5) as f64 } else { (i % 5) as f64 + 40.0 };
            if let MonitorEvent::Drift { explanation: Some(e), .. } = healthy.push(x) {
                healthy.recycle(e);
            }
        }
        assert!(healthy.alarms() > 0);
        assert_eq!(healthy.degraded_preferences(), 0);
    }

    #[test]
    fn passing_windows_never_count_phantom_degradations() {
        // Both windows hold the same extreme values: the KS test passes,
        // SR scoring overflows, and an on-demand explain_current() poll
        // returns None — without registering a degraded preference, since
        // no explanation was produced.
        let mut cfg = MonitorConfig::new(10, 0.05);
        cfg.reset_on_drift = false;
        let mut mon = DriftMonitor::new(cfg).unwrap();
        for i in 0..40 {
            match mon.push(if i % 2 == 0 { 1.5e308 } else { 1.2e308 }) {
                MonitorEvent::Drift { .. } => panic!("identical distributions must not alarm"),
                MonitorEvent::Stable { .. } | MonitorEvent::Warming { .. } => {}
            }
        }
        for _ in 0..5 {
            assert!(mon.explain_current().is_none(), "passing windows have nothing to explain");
        }
        assert_eq!(mon.degraded_preferences(), 0, "no explanation, no degradation");
    }

    #[test]
    fn ring_and_treap_stay_in_sync_with_the_windows() {
        // Slides, alarms, rejected pushes and resets: after every accepted
        // observation the windows must be the last 2w accepted values since
        // the last reset, and the KS statistic (when full) the batch value.
        for reset in [true, false] {
            let mut cfg = MonitorConfig::new(15, 0.05);
            cfg.reset_on_drift = reset;
            let w = cfg.window;
            let mut mon = DriftMonitor::new(cfg).unwrap();
            let mut since_reset: Vec<f64> = Vec::new();
            for i in 0..240u32 {
                if i % 7 == 0 {
                    assert!(mon.try_push(f64::NAN).is_err());
                }
                let x = f64::from(i % 11) + if (i / 60) % 2 == 0 { 0.0 } else { 25.0 };
                since_reset.push(x);
                let tail = &since_reset[since_reset.len().saturating_sub(2 * w)..];
                let (r, t) = tail.split_at(tail.len().min(w));
                let (r, t) = (r.to_vec(), t.to_vec());
                match mon.push(x) {
                    MonitorEvent::Drift { outcome, explanation, .. } => {
                        let batch = moche_core::ks_statistic(&r, &t).unwrap();
                        assert!((outcome.statistic - batch).abs() <= f64::EPSILON, "i = {i}");
                        if let Some(e) = explanation {
                            mon.recycle(e);
                        }
                        if reset {
                            since_reset.clear();
                            assert!(mon.reference_window().is_empty(), "reset empties the ring");
                            continue;
                        }
                    }
                    MonitorEvent::Stable { outcome } => {
                        let batch = moche_core::ks_statistic(&r, &t).unwrap();
                        assert!((outcome.statistic - batch).abs() <= f64::EPSILON, "i = {i}");
                    }
                    MonitorEvent::Warming { seen, .. } => assert_eq!(seen, r.len() + t.len()),
                }
                assert_eq!(mon.reference_window(), r, "i = {i}, reset = {reset}");
                assert_eq!(mon.test_window(), t, "i = {i}, reset = {reset}");
            }
        }
    }

    /// Feeds `series` to a monitor and, in parallel, to a from-scratch
    /// `ks_test` replay over the last `2w` values since the last reset;
    /// returns both alarm position lists.
    fn alarms_vs_replay(cfg: MonitorConfig, series: &[f64]) -> (Vec<usize>, Vec<usize>) {
        let ks_cfg = KsConfig::new(cfg.alpha).unwrap();
        let w = cfg.window;
        let mut mon = DriftMonitor::new(cfg).unwrap();
        let (mut got, mut want) = (Vec::new(), Vec::new());
        let mut since_reset: Vec<f64> = Vec::new();
        for (i, &x) in series.iter().enumerate() {
            if let MonitorEvent::Drift { explanation, .. } = mon.push(x) {
                got.push(i);
                if let Some(e) = explanation {
                    assert!(e.outcome_after.passes(), "i = {i}");
                    mon.recycle(e);
                }
            }
            since_reset.push(x);
            let n = since_reset.len();
            if n >= 2 * w {
                let window = &since_reset[n - 2 * w..];
                if moche_core::ks_test(&window[..w], &window[w..], &ks_cfg).unwrap().rejected {
                    want.push(i);
                    if cfg.reset_on_drift {
                        since_reset.clear();
                    }
                }
            }
        }
        (got, want)
    }

    #[test]
    fn signed_zeros_never_raise_a_spurious_alarm() {
        // -0.0 and 0.0 are one tied value to the KS test: eight of each is
        // the same distribution, not a drift with D = 1.
        let series: Vec<f64> = [-0.0; 8].into_iter().chain([0.0; 8]).chain([-0.0; 8]).collect();
        let (got, want) = alarms_vs_replay(MonitorConfig::new(8, 0.05), &series);
        assert!(want.is_empty());
        assert_eq!(got, want, "no alarm on signed zeros");
    }

    #[test]
    fn signed_zero_streams_alarm_exactly_like_a_batch_replay() {
        // Stretches of zeros, in blocks of eight -0.0 then eight 0.0,
        // alternate with shifted stretches that still hold a -0.0 every
        // eighth point, under both reset modes.
        let series: Vec<f64> = (0..400usize)
            .map(|i| match (i / 50) % 2 {
                0 if (i / 8).is_multiple_of(2) => -0.0,
                0 => 0.0,
                _ if i.is_multiple_of(8) => -0.0,
                _ => (i % 4) as f64,
            })
            .collect();
        for reset in [true, false] {
            let mut cfg = MonitorConfig::new(8, 0.05);
            cfg.reset_on_drift = reset;
            let (got, want) = alarms_vs_replay(cfg, &series);
            assert!(!want.is_empty(), "the shifts must alarm (reset = {reset})");
            assert_eq!(got, want, "reset = {reset}");
        }
    }

    #[test]
    fn explain_current_on_demand_matches_the_alarm_path() {
        let mut cfg = MonitorConfig::new(40, 0.05);
        cfg.reset_on_drift = false;
        cfg.explain_on_drift = false; // alarms carry no explanation...
        let mut mon = DriftMonitor::new(cfg).unwrap();
        assert!(mon.explain_current().is_none(), "nothing to explain while warming");
        assert!(mon.size_current().is_none());
        let mut checked = 0;
        for i in 0..400 {
            let x = if i < 200 { ((i * 13) % 11) as f64 } else { ((i * 13) % 11) as f64 + 20.0 };
            match mon.push(x) {
                MonitorEvent::Drift { explanation, .. } => {
                    assert!(explanation.is_none());
                    // ...but the public method explains the same windows on
                    // demand, matching a one-shot MOCHE run exactly.
                    let e = mon.explain_current().expect("failing windows must explain");
                    let moche = moche_core::Moche::new(0.05).unwrap();
                    let pref = {
                        let t = mon.test_window();
                        let sr = SpectralResidual::default();
                        PreferenceList::from_scores_desc(&sr.scores(&t)).unwrap()
                    };
                    let expected =
                        moche.explain(&mon.reference_window(), &mon.test_window(), &pref).unwrap();
                    assert_eq!(e, expected, "i = {i}");
                    assert_eq!(mon.size_current().unwrap(), e.phase1);
                    mon.recycle(e);
                    checked += 1;
                    if checked >= 3 {
                        return;
                    }
                }
                MonitorEvent::Stable { .. } => {
                    assert!(mon.explain_current().is_none(), "passing windows have no explanation");
                }
                MonitorEvent::Warming { .. } => {}
            }
        }
        assert!(checked > 0, "the level shift must alarm");
    }

    #[test]
    fn windows_track_the_last_2w_points() {
        let w = 20;
        let mut cfg = MonitorConfig::new(w, 0.001); // tiny alpha: never alarm
        cfg.reset_on_drift = false;
        let mut mon = DriftMonitor::new(cfg).unwrap();
        let series: Vec<f64> = (0..100).map(|i| f64::from(i % 13)).collect();
        for &x in &series {
            mon.push(x);
        }
        assert_eq!(mon.reference_window(), series[100 - 2 * w..100 - w].to_vec());
        assert_eq!(mon.test_window(), series[100 - w..].to_vec());
    }

    #[test]
    fn monitor_statistic_matches_batch() {
        let w = 25;
        let mut cfg = MonitorConfig::new(w, 0.001);
        cfg.reset_on_drift = false;
        let mut mon = DriftMonitor::new(cfg).unwrap();
        let series: Vec<f64> = (0..120).map(|i| ((i * 37) % 19) as f64 * 0.7).collect();
        for (i, &x) in series.iter().enumerate() {
            let event = mon.push(x);
            if i + 1 >= 2 * w {
                let stat = match event {
                    MonitorEvent::Stable { outcome } | MonitorEvent::Drift { outcome, .. } => {
                        outcome.statistic
                    }
                    MonitorEvent::Warming { .. } => panic!("past warm-up"),
                };
                let lo = i + 1 - 2 * w;
                let batch =
                    moche_core::ks_statistic(&series[lo..lo + w], &series[lo + w..i + 1]).unwrap();
                assert!((stat - batch).abs() < 1e-12, "i = {i}: {stat} vs {batch}");
            }
        }
    }
}
