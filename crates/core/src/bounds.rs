//! The bound recursions behind MOCHE's fast existence checks
//! (Lemma 1, Theorem 1 and Theorem 2 of the paper).
//!
//! For a removal size `h`, define
//!
//! ```text
//! Ω(h)    = c_α * sqrt((m - h) + (m - h)^2 / n)
//! Γ(i, h) = C_T[i] - ((m - h) / n) * C_R[i]
//! M(i, h) = max_{1 <= j <= i} Γ(j, h)
//! ```
//!
//! Lemma 1 shows that `S` (with `|S| = h`) is *qualified* — removing it
//! reverses the failed KS test — iff its cumulative vector satisfies, for
//! every `i`,
//!
//! ```text
//! max(⌈Γ(i,h) - Ω(h)⌉, h - m + C_T[i], C_S[i-1])                 <= C_S[i]
//! C_S[i] <= min(⌊Γ(i,h) + Ω(h)⌋, C_T[i] - C_T[i-1] + C_S[i-1], h)
//! ```
//!
//! Iterating these with `C_S[i-1]` replaced by its own bound yields, per
//! coordinate, a lower bound `l_i^h` and an upper bound `u_i^h`; Theorem 1
//! states that a qualified `h`-subset exists **iff** `l_i^h <= u_i^h` for all
//! `i` — an `O(n + m)` check that replaces `C(m, h)` explicit KS tests.
//!
//! Theorem 2 relaxes Theorem 1 into a *necessary* condition that is monotone
//! in `h`, enabling the binary search of Phase 1 (see [`crate::phase1`]).
//!
//! ### A note on the paper's Example 4
//!
//! The intermediate `(l, u)` pairs printed in the paper's Example 4 are
//! inconsistent with its own Equations 4a/4b (and with Example 6, which uses
//! `l_3^2 = 2` where Example 4 printed `1`). This implementation follows the
//! equations and the proofs; the *conclusions* of Examples 4–6 (no qualified
//! 1-subset, a qualified 2-subset exists, `k̂ = k = 2`, and the constructed
//! explanation `{t_3, t_2}`) all hold and are asserted in tests.

use crate::base_vector::BaseVector;
use crate::cumulative::CumulativeVector;
use crate::ks::KsConfig;

/// `⌈x⌉` with a tolerance: values that are integers up to `eps` rounding
/// noise are not bumped to the next integer.
#[inline]
pub(crate) fn ceil_eps(x: f64, eps: f64) -> i64 {
    (x - eps).ceil() as i64
}

/// `⌊x⌋` with a tolerance, symmetric to [`ceil_eps`].
#[inline]
pub(crate) fn floor_eps(x: f64, eps: f64) -> i64 {
    (x + eps).floor() as i64
}

/// Chunk length for the streaming probe kernels. The per-coordinate loops
/// are written branchless (violations latch into a flag instead of
/// returning) so they auto-vectorize; the early-exit check is hoisted to
/// chunk boundaries, costing at most one extra chunk of work over the
/// per-element exit.
const PROBE_CHUNK: usize = 256;

/// Maximum number of removal sizes one fused
/// [`BoundsContext::necessary_condition_multi`] pass can evaluate.
pub const MAX_WAVEFRONT: usize = 32;

// ### Why the probe kernels may compare in the f64 domain
//
// The rounding path (`BoundsContext::compute`) works on i64 bounds via
// `ceil_eps`/`floor_eps`. The verdict-only kernels below replace those
// per-element round-and-convert steps with direct f64 comparisons. The two
// are *exactly* equivalent, not approximately:
//
// 1. For any real `y` and integer `h`, `⌈y⌉ > h ⟺ y > h` and
//    `⌊y⌋ < 0 ⟺ y < 0`. So `ceil_eps(x, ε) > h ⟺ (x - ε) > h` and
//    `floor_eps(x, ε) < 0 ⟺ (x + ε) < 0`, provided the comparisons use the
//    *same rounded intermediate* `x ∓ ε` the rounding path computes (the
//    kernels keep the identical association order). The `as i64` casts
//    saturate, which preserves both comparisons' verdicts.
//
// 2. Where a kernel keeps the l/u recursion (Theorem 1), the bounds are
//    integer-valued and bounded by ±4(n + m): every candidate — the
//    ⌈·⌉/⌊·⌋ results, `h - m + C_T[i]`, `C_T[i] - C_T[i-1] + u`, `h` — is
//    an integer of magnitude ≤ 4(n + m) < 2^53 (the samples live in
//    memory, so n + m < 2^48), hence exactly representable in f64. f64
//    max/min/compare on exactly-representable integers agree with their
//    i64 counterparts, and f64::ceil/floor are exact operations, so
//    inductively the whole recursion is bit-equivalent to the i64 one.
//
// Equivalence is pinned by `compute_into_matches_compute`,
// `compute_and_exists_qualified_agree` and the `proptest_phase1.rs` suite
// (signed zeros, duplicates, near-eps boundaries).

// ### Why a contracted base vector gives the same answers
//
// `BaseVector::build_with_index` drops the interior of every maximal run
// `a..=b` of reference-only coordinates (see `crate::ref_index`). Inside
// such a run `C_T` is a constant `c` (no test value lies there) and `C_R`
// strictly grows. Every quantity below is computed in IEEE f64 by
// operations that are monotone in their inputs (`scale * C_R` with
// `scale >= 0`, subtraction, `± Ω ± ε`, ceil, floor, division by `n`),
// so on the run:
//
// 1. `Γ(i, h) = c - scale·C_R[i]` is non-increasing, hence so are
//    `⌈Γ - Ω - ε⌉` and `⌊Γ + Ω + ε⌋`.
// 2. `l_i = max(⌈Γ - Ω - ε⌉, h - m + c, l_{i-1})` is constant from `a` on:
//    its candidates only shrink after `a`. `u_i = min(⌊Γ + Ω + ε⌋,
//    0 + u_{i-1}, h)` is a running minimum of a non-increasing sequence,
//    so `u_b` is the same whether or not the interior was visited, and
//    `l ≤ u` can first fail only at `b`. Theorem 1's verdict and the kept
//    `l`/`u` are unchanged, and so is the state handed past `b`.
// 3. `M(i, h)` is a running maximum of a non-increasing `Γ`, so it is
//    fixed at `a`; (5b) therefore reads the same at every run coordinate,
//    and (5a)/(5c) are tightest at `b`. Theorem 2's verdict is unchanged.
// 4. Phase 2's `ū_{i-1} = min(u_{i-1}, ū_i - d_i)` has `d_i = 0` in the
//    run and `u` non-increasing, so `ū` is constant on `a..=b` and equal
//    to `ū_b`; Theorem 3's check `l ≤ ū` reads the same everywhere in the
//    run. The incremental walk thus never stops strictly inside a run: it
//    either stops at `b` or passes the whole interior, which
//    `BaseVector::span` of coordinate `a` counts.
// 5. `|C_R/n - C_T/m|` (and its after-removal form, whose removed count is
//    constant on the run) is the absolute value of a monotone sequence, so
//    its maximum over the run is attained at `a` or `b`: both KS
//    statistics are the same f64.
//
// Pinned by the whole-`Explanation` equality properties of
// `tests/proptest_indexed.rs` (merged vs contracted, every counter).

/// Per-coordinate lower and upper bounds `l_i^h`, `u_i^h` for the elements of
/// any qualified `h`-cumulative vector (indices `0..=q`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HBounds {
    /// The removal size these bounds are for.
    pub h: usize,
    /// `l_i^h` for `0 <= i <= q`.
    pub lower: Vec<i64>,
    /// `u_i^h` for `0 <= i <= q`.
    pub upper: Vec<i64>,
    /// Whether `l_i^h <= u_i^h` holds for every `i` (Theorem 1's condition).
    pub feasible: bool,
}

/// Reusable scratch space for the explain hot path.
///
/// [`BoundsContext::compute`] heap-allocates two fresh `(q + 1)`-length
/// vectors per call; on the workloads the ROADMAP targets (one reference
/// distribution probed against thousands of test windows) those transient
/// allocations dominate the Phase-2 profile. A `BoundsWorkspace` owns every
/// buffer the bound machinery and the Phase-2 construction need and is
/// reused across `h` probes, constructions, alphas and whole explain calls
/// (see [`crate::engine::ExplainEngine`] and [`crate::batch`]).
///
/// The `l`/`u` vectors are fused into one interleaved buffer
/// (`lu[2i] = l_i`, `lu[2i + 1] = u_i`) so each recursion step touches one
/// cache line instead of two.
#[derive(Debug, Clone, Default)]
pub struct BoundsWorkspace {
    /// Interleaved bounds, `lu[2i] = l_i^h`, `lu[2i + 1] = u_i^h`.
    pub(crate) lu: Vec<i64>,
    /// Theorem-3 backward-tightened upper bounds `ū_i` for the current
    /// Phase-2 selection (length `q + 1` while a construction is running).
    pub(crate) ubar: Vec<i64>,
    /// Multiplicities `d_i` of the current Phase-2 selection.
    pub(crate) d: Vec<u64>,
    /// `(index, value)` staging buffer for incremental `ū` propagation.
    pub(crate) scratch: Vec<(usize, i64)>,
    h: usize,
    q: usize,
    feasible: bool,
}

impl BoundsWorkspace {
    /// Creates an empty workspace; buffers grow on first use and are then
    /// retained.
    pub fn new() -> Self {
        Self::default()
    }

    /// The removal size the current bounds were computed for.
    #[inline]
    pub fn h(&self) -> usize {
        self.h
    }

    /// `q` of the base vector the current bounds were computed over.
    #[inline]
    pub fn q(&self) -> usize {
        self.q
    }

    /// Theorem 1's verdict for the current bounds.
    #[inline]
    pub fn feasible(&self) -> bool {
        self.feasible
    }

    /// `l_i^h` for `0 <= i <= q`.
    #[inline]
    pub fn lower(&self, i: usize) -> i64 {
        self.lu[2 * i]
    }

    /// `u_i^h` for `0 <= i <= q`.
    #[inline]
    pub fn upper(&self, i: usize) -> i64 {
        self.lu[2 * i + 1]
    }

    /// Copies the current bounds into the allocating [`HBounds`] form
    /// (diagnostics and tests; the hot path never calls this).
    ///
    /// # Panics
    ///
    /// Panics if no bounds have been computed into this workspace yet
    /// (see [`BoundsContext::compute_into`]).
    pub fn to_hbounds(&self) -> HBounds {
        assert!(!self.lu.is_empty(), "no bounds computed into this workspace yet");
        HBounds {
            h: self.h,
            lower: (0..=self.q).map(|i| self.lower(i)).collect(),
            upper: (0..=self.q).map(|i| self.upper(i)).collect(),
            feasible: self.feasible,
        }
    }
}

/// Evaluator for Ω, Γ and the Theorem-1/Theorem-2 conditions over one
/// `(R, T)` pair.
#[derive(Debug, Clone, Copy)]
pub struct BoundsContext<'a> {
    base: &'a BaseVector,
    c_alpha: f64,
    eps: f64,
}

impl<'a> BoundsContext<'a> {
    /// Creates a context for the given base vector and KS configuration.
    pub fn new(base: &'a BaseVector, cfg: &KsConfig) -> Self {
        Self { base, c_alpha: cfg.critical_value(), eps: cfg.eps() }
    }

    /// The underlying base vector.
    #[inline]
    pub fn base(&self) -> &'a BaseVector {
        self.base
    }

    /// Re-points this context at a different KS configuration (new alpha
    /// and/or eps) while keeping the base vector. This is what lets
    /// [`Moche::size_profile`](crate::Moche::size_profile) sweep many alphas
    /// over one context instead of rebuilding it per level.
    #[inline]
    pub fn set_config(&mut self, cfg: &KsConfig) {
        self.c_alpha = cfg.critical_value();
        self.eps = cfg.eps();
    }

    /// `Ω(h) = c_α * sqrt((m - h) + (m - h)^2 / n)`.
    ///
    /// This is the per-coordinate slack that the KS threshold allows between
    /// `(m - h) * F_R(x_i)`-scaled counts; it equals
    /// `(m - h) * c_α * sqrt((n + m - h) / (n (m - h)))`.
    #[inline]
    pub fn omega(&self, h: usize) -> f64 {
        let rem = (self.base.m() - h) as f64;
        let n = self.base.n() as f64;
        self.c_alpha * (rem + rem * rem / n).sqrt()
    }

    /// `Γ(i, h) = C_T[i] - ((m - h) / n) * C_R[i]`.
    #[inline]
    pub fn gamma(&self, i: usize, h: usize) -> f64 {
        let rem = (self.base.m() - h) as f64;
        let n = self.base.n() as f64;
        self.base.c_t_plane()[i] - rem / n * self.base.c_r_plane()[i]
    }

    /// Computes the full bound vectors for removal size `h`
    /// (`1 <= h <= m - 1`), following the recursions in the proof of
    /// Theorem 1:
    ///
    /// ```text
    /// l_0 = u_0 = 0
    /// l_i = max(⌈Γ(i,h) - Ω(h)⌉, h - m + C_T[i], l_{i-1})
    /// u_i = min(⌊Γ(i,h) + Ω(h)⌋, C_T[i] - C_T[i-1] + u_{i-1}, h)
    /// ```
    ///
    /// The recursion continues past an infeasible coordinate so the returned
    /// vectors are complete; use [`HBounds::feasible`] for the Theorem-1
    /// verdict, or [`exists_qualified`](Self::exists_qualified) for the
    /// early-exit version.
    pub fn compute(&self, h: usize) -> HBounds {
        let q = self.base.q();
        debug_assert!(h >= 1 && h < self.base.m(), "h must be in 1..m");
        let omega = self.omega(h);
        let h_i = h as i64;
        let m_i = self.base.m() as i64;
        let ct_plane = self.base.c_t_plane();
        let mut lower = Vec::with_capacity(q + 1);
        let mut upper = Vec::with_capacity(q + 1);
        lower.push(0i64);
        upper.push(0i64);
        let mut feasible = true;
        for i in 1..=q {
            let gamma = self.gamma(i, h);
            // The plane-to-i64 casts are exact: counts are integers < 2^53.
            let ct = ct_plane[i] as i64;
            let ct_prev = ct_plane[i - 1] as i64;
            let l = ceil_eps(gamma - omega, self.eps).max(h_i - m_i + ct).max(lower[i - 1]);
            let u = floor_eps(gamma + omega, self.eps).min(ct - ct_prev + upper[i - 1]).min(h_i);
            if l > u {
                feasible = false;
            }
            lower.push(l);
            upper.push(u);
        }
        HBounds { h, lower, upper, feasible }
    }

    /// [`compute`](Self::compute) without the allocations: fills `ws`'s
    /// interleaved buffer in place, returning Theorem 1's verdict. The
    /// buffers are reused verbatim across calls, so a workspace that has
    /// seen one `(q, h)` probe never allocates for any later probe with the
    /// same or smaller `q`.
    pub fn compute_into(&self, h: usize, ws: &mut BoundsWorkspace) -> bool {
        let q = self.base.q();
        debug_assert!(h >= 1 && h < self.base.m(), "h must be in 1..m");
        let omega = self.omega(h);
        let scale = (self.base.m() - h) as f64 / self.base.n() as f64;
        let h_f = h as f64;
        let hm = h_f - self.base.m() as f64; // h - m, exact (see module note)
        let eps = self.eps;
        let ct_plane = &self.base.c_t_plane()[1..];
        let cr_plane = &self.base.c_r_plane()[1..];
        ws.h = h;
        ws.q = q;
        ws.lu.clear();
        ws.lu.reserve(2 * (q + 1));
        ws.lu.push(0i64); // l_0
        ws.lu.push(0i64); // u_0
                          // The recursion runs on exactly-integer f64 bounds (bit-equivalent
                          // to the i64 recursion of `compute`, per the f64-domain note above)
                          // and keeps the ceil_eps/floor_eps rounding path — this method must
                          // emit the integer bound vectors, not just a verdict.
        let (mut l_prev, mut u_prev) = (0.0f64, 0.0f64);
        let mut ct_prev = 0.0f64;
        let mut feasible = true;
        for (&ct, &cr) in ct_plane.iter().zip(cr_plane) {
            let gamma = ct - scale * cr;
            let l = ((gamma - omega) - eps).ceil().max(hm + ct).max(l_prev);
            let u = ((gamma + omega) + eps).floor().min((ct - ct_prev) + u_prev).min(h_f);
            feasible &= l <= u;
            ws.lu.push(l as i64);
            ws.lu.push(u as i64);
            l_prev = l;
            u_prev = u;
            ct_prev = ct;
        }
        ws.feasible = feasible;
        feasible
    }

    /// Theorem 1: whether a qualified `h`-cumulative vector (equivalently, a
    /// qualified `h`-subset) exists. `O(n + m)` time, `O(1)` extra space —
    /// this streaming path never materializes the bound vectors. The
    /// recursion is branchless over the f64 planes (violations latch,
    /// early exit at chunk boundaries); verdicts are identical to
    /// [`compute`](Self::compute) per the f64-domain note above.
    pub fn exists_qualified(&self, h: usize) -> bool {
        let q = self.base.q();
        debug_assert!(h >= 1 && h < self.base.m(), "h must be in 1..m");
        let omega = self.omega(h);
        let scale = (self.base.m() - h) as f64 / self.base.n() as f64;
        let h_f = h as f64;
        let hm = h_f - self.base.m() as f64; // h - m, exact
        let eps = self.eps;
        let ct_plane = &self.base.c_t_plane()[1..];
        let cr_plane = &self.base.c_r_plane()[1..];
        let mut l_prev = 0.0f64;
        let mut u_prev = 0.0f64;
        let mut ct_prev = 0.0f64;
        let mut infeasible = false;
        let mut start = 0usize;
        while start < q {
            let end = (start + PROBE_CHUNK).min(q);
            for (&ct, &cr) in ct_plane[start..end].iter().zip(&cr_plane[start..end]) {
                let gamma = ct - scale * cr;
                let l = ((gamma - omega) - eps).ceil().max(hm + ct).max(l_prev);
                let u = ((gamma + omega) + eps).floor().min((ct - ct_prev) + u_prev).min(h_f);
                infeasible |= l > u;
                l_prev = l;
                u_prev = u;
                ct_prev = ct;
            }
            // Once some coordinate violated, no later coordinate can clear
            // it — the scalar early exit, hoisted to the chunk boundary.
            if infeasible {
                return false;
            }
            start = end;
        }
        true
    }

    /// Theorem 2: the relaxed *necessary* condition for the existence of a
    /// qualified `h`-cumulative vector:
    ///
    /// ```text
    /// (5a)  0 <= ⌊Γ(i,h) + Ω(h)⌋
    /// (5b)  ⌈M(i,h) - Ω(h)⌉ <= h
    /// (5c)  M(i,h) - Ω(h) <= Γ(i,h) + Ω(h)
    /// ```
    ///
    /// If `h` satisfies the condition then so does `h + 1` (monotonicity),
    /// which is what makes the Phase-1 binary search and the wavefront
    /// search ([`crate::phase1::lower_bound_wavefront`]) sound.
    ///
    /// The loop is branchless over the f64 planes: since the condition only
    /// needs a verdict, (5a) and (5b) compare directly in the f64 domain —
    /// `⌊y⌋ < 0 ⟺ y < 0` and `⌈y⌉ > h ⟺ y > h` — instead of rounding per
    /// element (see the f64-domain note above for the exact-equivalence
    /// argument).
    pub fn necessary_condition(&self, h: usize) -> bool {
        let q = self.base.q();
        debug_assert!(h >= 1 && h < self.base.m(), "h must be in 1..m");
        let omega = self.omega(h);
        let scale = (self.base.m() - h) as f64 / self.base.n() as f64;
        let h_f = h as f64;
        let eps = self.eps;
        let ct_plane = &self.base.c_t_plane()[1..];
        let cr_plane = &self.base.c_r_plane()[1..];
        let mut m_run = f64::NEG_INFINITY; // M(i, h), running max of Γ
        let mut fail = false;
        let mut start = 0usize;
        while start < q {
            let end = (start + PROBE_CHUNK).min(q);
            for (&ct, &cr) in ct_plane[start..end].iter().zip(&cr_plane[start..end]) {
                let gamma = ct - scale * cr;
                m_run = if gamma > m_run { gamma } else { m_run };
                // `ge` and `mo` reproduce the rounding path's intermediates
                // with the identical association: (Γ + Ω) + ε and M - Ω.
                let ge = (gamma + omega) + eps;
                let mo = m_run - omega;
                fail |= ge < 0.0; // (5a): ⌊Γ + Ω + ε⌋ < 0
                fail |= mo - eps > h_f; // (5b): ⌈M - Ω - ε⌉ > h
                fail |= mo > ge; // (5c)
            }
            // A latched failure never clears — the scalar early exit,
            // hoisted to the chunk boundary.
            if fail {
                return false;
            }
            start = end;
        }
        true
    }

    /// [`necessary_condition`](Self::necessary_condition) for up to
    /// [`MAX_WAVEFRONT`] removal sizes in a *single* pass over `C_T`/`C_R`:
    /// one traversal evaluates every lane's predicate simultaneously, so
    /// the memory traffic and the per-coordinate loads are amortized across
    /// all probes and the per-lane arithmetic auto-vectorizes. `ok[j]` is
    /// set to the exact verdict `necessary_condition(hs[j])` would return.
    ///
    /// This is the kernel behind the Phase-1 wavefront size search
    /// ([`crate::phase1::lower_bound_wavefront`]).
    ///
    /// # Panics
    ///
    /// Panics if `hs` is empty, longer than [`MAX_WAVEFRONT`], or not the
    /// same length as `ok`.
    pub fn necessary_condition_multi(&self, hs: &[usize], ok: &mut [bool]) {
        assert!(!hs.is_empty() && hs.len() <= MAX_WAVEFRONT, "1..=MAX_WAVEFRONT probes required");
        assert_eq!(hs.len(), ok.len(), "one verdict slot per probe");
        // Monomorphic lane widths keep the per-element inner loop a
        // fixed-trip-count, fully unrollable body at every probe count.
        match hs.len() {
            1..=4 => self.necessary_condition_lanes::<4>(hs, ok),
            5..=8 => self.necessary_condition_lanes::<8>(hs, ok),
            9..=16 => self.necessary_condition_lanes::<16>(hs, ok),
            _ => self.necessary_condition_lanes::<32>(hs, ok),
        }
    }

    /// The fixed-width wavefront kernel: `B` lanes of the branchless
    /// [`necessary_condition`](Self::necessary_condition) loop, evaluated
    /// per coordinate. The lane loop is a fixed trip count over plain
    /// `f64`/`bool` arrays, which the auto-vectorizer maps onto SIMD lanes;
    /// small `B` keeps all lane state in registers (large `B` spills — see
    /// [`crate::phase1::WAVEFRONT_PROBES`]). Unused lanes duplicate the
    /// last probe; their verdicts are computed and discarded.
    fn necessary_condition_lanes<const B: usize>(&self, hs: &[usize], ok: &mut [bool]) {
        let q = self.base.q();
        let m = self.base.m();
        let n_f = self.base.n() as f64;
        let eps = self.eps;
        let count = hs.len();
        let mut scale = [0.0f64; B];
        let mut omega = [0.0f64; B];
        let mut h_f = [0.0f64; B];
        for l in 0..B {
            let h = hs[l.min(count - 1)];
            debug_assert!(h >= 1 && h < m, "h must be in 1..m");
            scale[l] = (m - h) as f64 / n_f;
            omega[l] = self.omega(h);
            h_f[l] = h as f64;
        }
        let ct_plane = &self.base.c_t_plane()[1..];
        let cr_plane = &self.base.c_r_plane()[1..];
        let mut m_run = [f64::NEG_INFINITY; B];
        let mut fail = [false; B];
        let mut start = 0usize;
        while start < q {
            let end = (start + PROBE_CHUNK).min(q);
            for (&ct, &cr) in ct_plane[start..end].iter().zip(&cr_plane[start..end]) {
                for l in 0..B {
                    let gamma = ct - scale[l] * cr;
                    m_run[l] = if gamma > m_run[l] { gamma } else { m_run[l] };
                    let ge = (gamma + omega[l]) + eps;
                    let mo = m_run[l] - omega[l];
                    fail[l] = fail[l] | (ge < 0.0) | (mo - eps > h_f[l]) | (mo > ge);
                }
            }
            // A latched failure never clears, so once every lane failed the
            // remaining coordinates cannot change any verdict.
            if fail.iter().all(|&f| f) {
                break;
            }
            start = end;
        }
        for (o, &f) in ok.iter_mut().zip(&fail) {
            *o = !f;
        }
    }

    /// Constructs *some* qualified `h`-cumulative vector as in the
    /// sufficiency proof of Theorem 1: start from `C[q] = u_q^h` and walk
    /// down with `C[i-1] = min(u_{i-1}^h, C[i])`.
    ///
    /// Returns `None` if no qualified `h`-cumulative vector exists.
    pub fn construct_witness(&self, h: usize) -> Option<CumulativeVector> {
        let b = self.compute(h);
        if !b.feasible {
            return None;
        }
        let q = self.base.q();
        let mut c = vec![0i64; q + 1];
        c[q] = b.upper[q];
        for i in (1..=q).rev() {
            c[i - 1] = b.upper[i - 1].min(c[i]);
        }
        debug_assert!(c.iter().all(|&x| x >= 0));
        Some(CumulativeVector::new(c.into_iter().map(|x| x as u64).collect()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_setup() -> (Vec<f64>, Vec<f64>, KsConfig) {
        let r = vec![14.0, 14.0, 14.0, 14.0, 20.0, 20.0, 20.0, 20.0];
        let t = vec![13.0, 13.0, 12.0, 20.0];
        (r, t, KsConfig::new(0.3).unwrap())
    }

    #[test]
    fn ceil_floor_eps_handle_float_noise() {
        let eps = 1e-9;
        assert_eq!(ceil_eps(3.0 + 1e-12, eps), 3);
        assert_eq!(ceil_eps(3.0 + 1e-6, eps), 4);
        assert_eq!(ceil_eps(2.3, eps), 3);
        assert_eq!(floor_eps(3.0 - 1e-12, eps), 3);
        assert_eq!(floor_eps(3.0 - 1e-6, eps), 2);
        assert_eq!(floor_eps(2.7, eps), 2);
        assert_eq!(ceil_eps(-0.978, eps), 0);
    }

    #[test]
    fn omega_matches_threshold_scaling() {
        // Ω(h) must equal (m - h) * threshold(n, m - h) / 1, since
        // threshold = c_α sqrt((n + m - h)/(n (m - h))).
        let (r, t, cfg) = paper_setup();
        let base = BaseVector::build(&r, &t).unwrap();
        let ctx = BoundsContext::new(&base, &cfg);
        for h in 1..t.len() {
            let rem = t.len() - h;
            let direct = rem as f64 * cfg.threshold(r.len(), rem);
            assert!((ctx.omega(h) - direct).abs() < 1e-12, "h = {h}");
        }
    }

    #[test]
    fn example_4_no_qualified_1_subset() {
        let (r, t, cfg) = paper_setup();
        let base = BaseVector::build(&r, &t).unwrap();
        let ctx = BoundsContext::new(&base, &cfg);
        // Example 4: l_2^1 > u_2^1, so no qualified 1-subset exists.
        let b = ctx.compute(1);
        assert!(!b.feasible);
        assert!(b.lower[2] > b.upper[2], "bounds = {b:?}");
        assert!(!ctx.exists_qualified(1));
    }

    #[test]
    fn example_4_qualified_2_subset_exists() {
        let (r, t, cfg) = paper_setup();
        let base = BaseVector::build(&r, &t).unwrap();
        let ctx = BoundsContext::new(&base, &cfg);
        let b = ctx.compute(2);
        assert!(b.feasible, "bounds = {b:?}");
        assert!(ctx.exists_qualified(2));
        // The first coordinate's bounds match the paper: (l_1, u_1) = (0, 1).
        assert_eq!((b.lower[1], b.upper[1]), (0, 1));
        // C_S[q] is pinned to h for any qualified vector.
        assert_eq!((b.lower[4], b.upper[4]), (2, 2));
    }

    #[test]
    fn compute_into_matches_compute() {
        let r: Vec<f64> = (0..60).map(|i| f64::from(i % 10)).collect();
        let t: Vec<f64> = (0..40).map(|i| f64::from(i % 4) + 5.0).collect();
        let base = BaseVector::build(&r, &t).unwrap();
        let cfg = KsConfig::new(0.05).unwrap();
        let ctx = BoundsContext::new(&base, &cfg);
        let mut ws = BoundsWorkspace::new();
        for h in 1..t.len() {
            let reference = ctx.compute(h);
            let feasible = ctx.compute_into(h, &mut ws);
            assert_eq!(feasible, reference.feasible, "h = {h}");
            assert_eq!(ws.to_hbounds(), reference, "h = {h}");
            assert_eq!(ws.h(), h);
            assert_eq!(ws.q(), base.q());
        }
    }

    #[test]
    fn workspace_buffers_are_reused_across_probes() {
        let (r, t, cfg) = paper_setup();
        let base = BaseVector::build(&r, &t).unwrap();
        let ctx = BoundsContext::new(&base, &cfg);
        let mut ws = BoundsWorkspace::new();
        ctx.compute_into(2, &mut ws);
        let cap = ws.lu.capacity();
        for h in 1..t.len() {
            ctx.compute_into(h, &mut ws);
        }
        assert_eq!(ws.lu.capacity(), cap, "probe loop must not grow the buffer");
    }

    #[test]
    fn set_config_matches_fresh_context() {
        let (r, t, _) = paper_setup();
        let base = BaseVector::build(&r, &t).unwrap();
        let loose = KsConfig::new(0.3).unwrap();
        let strict = KsConfig::new(0.05).unwrap();
        let mut ctx = BoundsContext::new(&base, &loose);
        ctx.set_config(&strict);
        let fresh = BoundsContext::new(&base, &strict);
        for h in 1..t.len() {
            assert_eq!(ctx.compute(h), fresh.compute(h), "h = {h}");
            assert_eq!(ctx.necessary_condition(h), fresh.necessary_condition(h));
        }
    }

    #[test]
    fn compute_and_exists_qualified_agree() {
        let (r, t, cfg) = paper_setup();
        let base = BaseVector::build(&r, &t).unwrap();
        let ctx = BoundsContext::new(&base, &cfg);
        for h in 1..t.len() {
            assert_eq!(ctx.compute(h).feasible, ctx.exists_qualified(h), "h = {h}");
        }
    }

    #[test]
    fn witness_is_a_qualified_subset() {
        let (r, t, cfg) = paper_setup();
        let base = BaseVector::build(&r, &t).unwrap();
        let ctx = BoundsContext::new(&base, &cfg);
        assert!(ctx.construct_witness(1).is_none());
        let w = ctx.construct_witness(2).expect("h = 2 is feasible");
        assert_eq!(w.subset_size(), 2);
        assert!(w.is_subset_of_test(&base));
        // Removing the witness reverses the failed test.
        let counts = w.counts();
        let outcome = base.outcome_after_removal(counts.as_slice(), &cfg);
        assert!(outcome.passes(), "outcome = {outcome:?}");
    }

    #[test]
    fn example_5_necessary_condition() {
        let (r, t, cfg) = paper_setup();
        let base = BaseVector::build(&r, &t).unwrap();
        let ctx = BoundsContext::new(&base, &cfg);
        // Example 5: h = 2 satisfies Theorem 2, h = 1 does not.
        assert!(ctx.necessary_condition(2));
        assert!(!ctx.necessary_condition(1));
    }

    #[test]
    fn multi_probe_matches_scalar_necessary_condition() {
        // Instances large enough to cross several PROBE_CHUNK boundaries,
        // and tiny ones; every lane width (1..=MAX_WAVEFRONT) exercised.
        let instances: Vec<(Vec<f64>, Vec<f64>)> = vec![
            (
                (0..1200).map(|i| f64::from(i % 37)).collect(),
                (0..900).map(|i| f64::from(i % 19) + 9.0).collect(),
            ),
            (vec![14.0, 14.0, 14.0, 14.0, 20.0, 20.0, 20.0, 20.0], vec![13.0, 13.0, 12.0, 20.0]),
        ];
        for (r, t) in instances {
            let base = BaseVector::build(&r, &t).unwrap();
            let cfg = KsConfig::new(0.1).unwrap();
            let ctx = BoundsContext::new(&base, &cfg);
            let m = base.m();
            for width in 1..=MAX_WAVEFRONT {
                let hs: Vec<usize> = (0..width).map(|j| 1 + j * (m - 2) / width).collect();
                let mut ok = vec![false; width];
                ctx.necessary_condition_multi(&hs, &mut ok);
                for (&h, &got) in hs.iter().zip(&ok) {
                    assert_eq!(got, ctx.necessary_condition(h), "width {width}, h = {h}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "one verdict slot per probe")]
    fn multi_probe_rejects_mismatched_outputs() {
        let (r, t, cfg) = paper_setup();
        let base = BaseVector::build(&r, &t).unwrap();
        let ctx = BoundsContext::new(&base, &cfg);
        let mut ok = [false; 3];
        ctx.necessary_condition_multi(&[1, 2], &mut ok);
    }

    #[test]
    fn necessary_condition_is_monotone_in_h() {
        let (r, t, cfg) = paper_setup();
        let base = BaseVector::build(&r, &t).unwrap();
        let ctx = BoundsContext::new(&base, &cfg);
        let mut seen_true = false;
        for h in 1..t.len() {
            let ok = ctx.necessary_condition(h);
            if seen_true {
                assert!(ok, "monotonicity violated at h = {h}");
            }
            seen_true |= ok;
        }
        assert!(seen_true);
    }

    #[test]
    fn theorem1_implies_theorem2() {
        // The necessary condition must hold whenever Theorem 1 holds.
        let (r, t, cfg) = paper_setup();
        let base = BaseVector::build(&r, &t).unwrap();
        let ctx = BoundsContext::new(&base, &cfg);
        for h in 1..t.len() {
            if ctx.exists_qualified(h) {
                assert!(ctx.necessary_condition(h), "h = {h}");
            }
        }
    }

    #[test]
    fn gamma_at_q_equals_removed_count_offset() {
        // Γ(q, h) = m - (m - h)/n * n = h.
        let (r, t, cfg) = paper_setup();
        let base = BaseVector::build(&r, &t).unwrap();
        let ctx = BoundsContext::new(&base, &cfg);
        for h in 1..t.len() {
            assert!((ctx.gamma(base.q(), h) - h as f64).abs() < 1e-12);
        }
    }

    #[test]
    fn bounds_are_monotone_lower_and_bounded_by_h() {
        let r: Vec<f64> = (0..60).map(|i| f64::from(i % 10)).collect();
        let t: Vec<f64> = (0..40).map(|i| f64::from(i % 4) + 5.0).collect();
        let base = BaseVector::build(&r, &t).unwrap();
        let cfg = KsConfig::new(0.05).unwrap();
        let ctx = BoundsContext::new(&base, &cfg);
        for h in [1usize, 5, 10, 20, 39] {
            let b = ctx.compute(h);
            for i in 1..=base.q() {
                assert!(b.lower[i] >= b.lower[i - 1], "l must be non-decreasing");
                assert!(b.upper[i] <= h as i64, "u must be <= h");
                assert!(b.lower[i] >= 0);
            }
            if b.feasible {
                assert_eq!(b.lower[base.q()], h as i64, "C_S[q] pinned to h (lower)");
                assert_eq!(b.upper[base.q()], h as i64, "C_S[q] pinned to h (upper)");
            }
        }
    }

    #[test]
    fn witness_valid_on_random_style_instance() {
        let r: Vec<f64> = (0..60).map(|i| f64::from(i % 10)).collect();
        let t: Vec<f64> = (0..40).map(|i| f64::from(i % 4) + 5.0).collect();
        let base = BaseVector::build(&r, &t).unwrap();
        let cfg = KsConfig::new(0.05).unwrap();
        let ctx = BoundsContext::new(&base, &cfg);
        assert!(base.outcome(&cfg).rejected, "instance should fail the KS test");
        let mut found = false;
        for h in 1..t.len() {
            if let Some(w) = ctx.construct_witness(h) {
                found = true;
                assert!(w.is_subset_of_test(&base), "witness at h = {h} not a subset");
                let outcome = base.outcome_after_removal(w.counts().as_slice(), &cfg);
                assert!(outcome.passes(), "witness at h = {h} does not reverse the test");
            }
        }
        assert!(found, "some h must admit a qualified subset");
    }
}
