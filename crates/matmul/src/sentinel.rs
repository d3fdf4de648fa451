//! Numerical-health sentinel: cheap runtime validation of APA products.
//!
//! APA algorithms trade accuracy for rank, and the trade can silently go
//! wrong — a mis-tuned λ, one recursive step too many, or a corrupted
//! buffer turns the predicted 2^(−dσ/(σ+sφ)) error (§2.3) into garbage
//! that flows straight into training. The sentinel checks every product
//! against two detectors, both O(n²) against the O(n³) multiply:
//!
//! * a **Freivalds-style randomized residual probe**: with a random ±1
//!   vector `x`, compare `C·x` against `A·(B·x)` in f64 and relate the
//!   residual to the error-model budget for the active (σ, φ, λ, s).
//!   Sampled at a configurable rate ([`SentinelConfig::probe_every`]).
//! * a **non-finite check** of the output. On probed calls it is read off
//!   the `C·x` projection itself: with `x = ±1` a row holding a NaN or ∞
//!   projects to a non-finite value, so only a non-finite projection
//!   triggers the exact count ([`scan_nonfinite`]); a finite overflow of
//!   the projection counts zero and falls through to the residual test,
//!   which rejects it. On calls where the probe is skipped the standalone
//!   scan runs, so NaN/Inf can never slip through unobserved.
//!
//! **Cost.** Every projection is one streaming pass over its operand.
//! Each output sums its terms in sixteen f64 partial sums (term `j` in
//! lane `j mod 16`, each lane in `j` order from zero, the lanes reduced in
//! a fixed pairwise tree), and a plain operand is swept four rows per
//! pass (one load of `x` for all four, independent add chains), so the
//! pass runs near memory bandwidth instead of at one dependent add per
//! element: 0.12–0.13× a `gemm_st` of the batch-64 forward shape, 0.06×
//! at 1024³. A transposed operand is swept a contiguous column at a time
//! into per-lane accumulators — the same partial sums in the same order,
//! so the probe's verdict (observed residual included) is bitwise
//! independent of operand orientation and of run, thread and machine.
//!
//! All probe arithmetic accumulates in f64, so the check itself never
//! contributes to the error it is measuring. Scratch vectors live in a
//! reusable [`ProbeScratch`] arena — warm checks allocate nothing,
//! preserving the engine's zero-allocation steady state.
//!
//! The sentinel only *detects*; [`crate::fallback`] decides what to do
//! about a violation.

use apa_core::error_model;
use apa_gemm::{MatRef, Scalar};

/// The ABFT checksum tier of the sentinel: Huang–Abraham row/column
/// checksums verified inside **every** gemm leaf of every rung execution
/// (see [`apa_gemm::abft`]). Unlike the sampled Freivalds probe this
/// tier, when enabled, is always on: it detects silent data corruption
/// at the `MC×NR` tile that took the hit and repairs it in place with a
/// scalar-tier recompute (bitwise identical by the cross-tier kernel
/// contract). The degradation ladder only hears about it —
/// [`crate::fallback::GuardedApaMatmul`] demotes the rung — when a
/// repair fails its re-verification or a shape keeps re-offending.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum AbftMode {
    /// Gemm leaves run unchecked; the Freivalds probe and the non-finite
    /// scans are the only sentinels.
    Off,
    /// Checksums verified on every gemm leaf of every guarded call.
    On {
        /// Multiplier on the leaf residual envelope
        /// `ε·√(kc + mc|nc)·magnitude` (see [`apa_gemm::DEFAULT_SLACK`]).
        /// The leaves are *exact* gemms — the APA framework's λ-scaled
        /// approximation error lives in the operand/output combinations
        /// *between* leaves, and the magnitude normalization absorbs the
        /// `1/λ^d` coefficient scaling — so this budget is pure rounding
        /// growth, independent of the rung's (σ, φ, λ, steps).
        slack: f64,
        /// Escalate to rung demotion after this many consecutive
        /// corruption-detecting calls on one shape, even when every
        /// flagged region repaired clean (a lane that keeps taking hits
        /// is hardware-suspect). `0` disables streak escalation; a call
        /// that ends with an *unrepaired* region always escalates.
        escalate_after: u32,
    },
}

impl Default for AbftMode {
    fn default() -> Self {
        AbftMode::On {
            slack: apa_gemm::DEFAULT_SLACK,
            escalate_after: 3,
        }
    }
}

/// Tunable knobs of the sentinel.
#[derive(Clone, Copy, Debug)]
pub struct SentinelConfig {
    /// Run the Freivalds residual probe on every Nth call per shape
    /// (1 = every call, 0 = never; the non-finite scan always runs).
    pub probe_every: u64,
    /// Multiplier on the model's predicted error to form the violation
    /// budget: the probe measures one random projection of the error, so
    /// headroom is needed to avoid false positives on healthy calls.
    pub slack: f64,
    /// Floor on the budget — keeps exact rules (model error = 2^−23) from
    /// flagging ordinary f32 roundoff accumulated over large inner dims.
    pub min_budget: f64,
    /// Seed mixed into the per-call probe vector derivation, so runs are
    /// deterministic yet successive probes use fresh random projections.
    pub seed: u64,
    /// The ABFT checksum tier below the probe (on by default).
    pub abft: AbftMode,
}

impl Default for SentinelConfig {
    fn default() -> Self {
        Self {
            probe_every: 1,
            slack: 64.0,
            min_budget: 1e-4,
            seed: 0x5EED_CAFE_F00D_D00D,
            abft: AbftMode::default(),
        }
    }
}

impl SentinelConfig {
    /// Violation budget for an algorithm with validation order `sigma`
    /// (None/0 = exact rule), roundoff parameter `phi`, at `steps`
    /// recursion levels: `slack`× the §2.3 model bound, floored at
    /// `min_budget`. Single-precision `d` — the NN stack the sentinel
    /// guards is f32 end to end.
    pub fn budget(&self, sigma: Option<u32>, phi: u32, steps: u32) -> f64 {
        let model = match sigma {
            Some(s) if s > 0 => {
                error_model::error_bound(s, phi, error_model::D_SINGLE, steps.max(1))
            }
            _ => error_model::error_bound(0, 0, error_model::D_SINGLE, 1),
        };
        (self.slack * model).max(self.min_budget)
    }
}

/// Outcome of one sentinel check.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Verdict {
    /// Output finite, residual within budget (or probe skipped).
    Healthy,
    /// The output contains NaN or ±Inf entries.
    NonFinite { count: usize },
    /// The Freivalds residual exceeded the error-model budget.
    ResidualExceeded { observed: f64, budget: f64 },
}

impl Verdict {
    pub fn is_healthy(&self) -> bool {
        matches!(self, Verdict::Healthy)
    }
}

/// Number of f64 partial sums per projected output (see the module docs):
/// four 4-wide vector chains, enough independent adds to keep a streaming
/// pass memory-bound.
const LANES: usize = 16;

/// Reusable probe scratch: the four O(n) vectors a Freivalds check needs
/// (`x`, `B·x`, `A·(B·x)`, `C·x`), kept in f64 whatever the operand type,
/// plus the per-lane accumulators of a transposed operand's column sweep.
/// Grows to the high-water mark of the shapes it has seen and is then
/// allocation-free.
#[derive(Debug, Default)]
pub struct ProbeScratch {
    x: Vec<f64>,
    bx: Vec<f64>,
    abx: Vec<f64>,
    cx: Vec<f64>,
    lanes: Vec<f64>,
}

impl ProbeScratch {
    pub fn new() -> Self {
        Self::default()
    }

    /// Grow the scratch to fit an `m × k · k × n` probe up front, so the
    /// first sampled Freivalds check on a pre-warmed shape allocates
    /// nothing (see [`crate::GuardedApaMatmul::warm`]).
    pub fn reserve(&mut self, m: usize, k: usize, n: usize) {
        self.ensure(m, k, n);
    }

    fn ensure(&mut self, m: usize, k: usize, n: usize) {
        let grow = |v: &mut Vec<f64>, len: usize| {
            if v.len() < len {
                v.resize(len, 0.0);
            }
        };
        grow(&mut self.x, n);
        grow(&mut self.bx, k);
        grow(&mut self.abx, m);
        grow(&mut self.cx, m);
        // Sized for any orientation: a projection's output is m or k long.
        grow(&mut self.lanes, LANES * m.max(k));
    }

    /// Bytes currently held by the scratch vectors.
    pub fn footprint_bytes(&self) -> usize {
        (self.x.len() + self.bx.len() + self.abx.len() + self.cx.len() + self.lanes.len())
            * std::mem::size_of::<f64>()
    }
}

/// splitmix64 — the same tiny deterministic generator the rest of the
/// repo uses for reproducible probes.
#[inline]
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Whether the AVX2 twins of the probe sweeps may run. They compile the
/// same generic bodies under a wider target (no FMA: every product and
/// sum rounds separately on both paths), so the results are bitwise
/// those of the portable build.
#[inline]
fn wide() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Count the non-finite entries of `c` (the standalone scan used on calls
/// where the Freivalds probe is not sampled, and the exact count behind a
/// non-finite projection).
pub fn scan_nonfinite<T: Scalar>(c: MatRef<'_, T>) -> usize {
    // The count does not depend on the order: scan a transposed view's
    // storage as the plain view it transposes.
    let c = if c.is_transposed() { c.t() } else { c };
    #[cfg(target_arch = "x86_64")]
    if wide() {
        // SAFETY: avx2 presence was verified at runtime.
        return unsafe { scan_nonfinite_avx2(c) };
    }
    scan_plain(c)
}

/// # Safety
/// CPU must support avx2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn scan_nonfinite_avx2<T: Scalar>(c: MatRef<'_, T>) -> usize {
    scan_plain(c)
}

#[inline(always)]
fn scan_plain<T: Scalar>(c: MatRef<'_, T>) -> usize {
    (0..c.rows())
        .map(|i| {
            // A branch-free count (no early exit), so the row vectorizes.
            c.row(i)
                .iter()
                .map(|&v| u32::from(!v.to_f64().is_finite()))
                .sum::<u32>() as usize
        })
        .sum()
}

/// The fixed pairwise reduction tree of a projection's lane partial sums.
#[inline(always)]
fn reduce(l: &[f64; LANES]) -> f64 {
    let q = |i: usize| (l[i] + l[i + 1]) + (l[i + 2] + l[i + 3]);
    (q(0) + q(4)) + (q(8) + q(12))
}

/// `Σ_j row[j]·x[j]` for each of `R` rows, in [`LANES`] partial sums per
/// row (lane `j mod LANES`). Every row's sums are independent of the
/// others; several rows per pass only share each load of `x` and overlap
/// their add chains.
#[inline(always)]
fn dot_rows<T: Scalar, const R: usize>(rows: [&[T]; R], x: &[f64]) -> [f64; R] {
    let n = x.len();
    let rows = rows.map(|row| &row[..n]);
    let full = n - n % LANES;
    let mut acc = [[0.0f64; LANES]; R];
    if !dot_lanes_wide(rows.map(|row| &row[..full]), &x[..full], &mut acc) {
        for (j, xv) in x[..full].chunks_exact(LANES).enumerate() {
            for (row, acc) in rows.iter().zip(acc.iter_mut()) {
                for l in 0..LANES {
                    acc[l] += row[j * LANES + l].to_f64() * xv[l];
                }
            }
        }
    }
    for (row, acc) in rows.iter().zip(acc.iter_mut()) {
        for (l, (&v, &xv)) in row[full..].iter().zip(&x[full..]).enumerate() {
            acc[l] += v.to_f64() * xv;
        }
    }
    acc.map(|lanes| reduce(&lanes))
}

/// The full-chunk body of [`dot_rows`] in explicit AVX2 for f32/f64 (the
/// generic lane loop does not vectorize cleanly): the same products and
/// the same per-lane adds, four lanes to a register. Returns `false` when
/// it did not run.
#[inline(always)]
fn dot_lanes_wide<T: Scalar, const R: usize>(
    rows: [&[T]; R],
    x: &[f64],
    acc: &mut [[f64; LANES]; R],
) -> bool {
    #[cfg(target_arch = "x86_64")]
    if wide() {
        use std::any::TypeId;
        debug_assert!(x.len().is_multiple_of(LANES));
        debug_assert!(rows.iter().all(|row| row.len() == x.len()));
        if TypeId::of::<T>() == TypeId::of::<f32>() {
            // SAFETY: T is f32 (same layout); avx2 verified at runtime;
            // every row holds the same whole number of lane chunks as x.
            unsafe { simd::lanes(rows.map(|r| r.as_ptr() as *const f32), x, acc) };
            return true;
        }
        if TypeId::of::<T>() == TypeId::of::<f64>() {
            // SAFETY: as above, for f64.
            unsafe { simd::lanes(rows.map(|r| r.as_ptr() as *const f64), x, acc) };
            return true;
        }
    }
    let _ = (rows, x, acc);
    false
}

#[cfg(target_arch = "x86_64")]
mod simd {
    use super::LANES;
    use core::arch::x86_64::*;

    /// Four f64 lanes of an f32 or f64 row, widened.
    pub(super) trait Load4: Copy {
        /// # Safety
        /// CPU must support avx2; `p` must be readable for 4 elements.
        unsafe fn load4(p: *const Self) -> __m256d;
    }

    impl Load4 for f32 {
        #[inline(always)]
        unsafe fn load4(p: *const f32) -> __m256d {
            _mm256_cvtps_pd(_mm_loadu_ps(p))
        }
    }

    impl Load4 for f64 {
        #[inline(always)]
        unsafe fn load4(p: *const f64) -> __m256d {
            _mm256_loadu_pd(p)
        }
    }

    /// `acc[r][l] += rows[r][j]·x[j]` over whole lane chunks,
    /// `l = j mod LANES`.
    ///
    /// # Safety
    /// CPU must support avx2; every row must be readable for `x.len()`
    /// elements, a multiple of `LANES`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn lanes<E: Load4, const R: usize>(
        rows: [*const E; R],
        x: &[f64],
        acc: &mut [[f64; LANES]; R],
    ) {
        let xp = x.as_ptr();
        let mut a = [[_mm256_setzero_pd(); LANES / 4]; R];
        for j in (0..x.len()).step_by(LANES) {
            for q in 0..LANES / 4 {
                let xv = _mm256_loadu_pd(xp.add(j + 4 * q));
                for (row, ar) in rows.iter().zip(a.iter_mut()) {
                    let p = _mm256_mul_pd(E::load4(row.add(j + 4 * q)), xv);
                    ar[q] = _mm256_add_pd(ar[q], p);
                }
            }
        }
        for (ar, acc) in a.iter().zip(acc.iter_mut()) {
            for (q, aq) in ar.iter().enumerate() {
                _mm256_storeu_pd(acc.as_mut_ptr().add(4 * q), *aq);
            }
        }
    }
}

/// `out ← M·x` in f64 (see the module docs for the lane order). A
/// transposed `M` is swept a contiguous column at a time into `lanes`
/// (`LANES·rows` accumulators); every `out[i]` still adds its terms in the
/// same lanes in the same order, so the projection — and the verdict — is
/// bitwise the one for the materialized transpose.
fn project<T: Scalar>(mat: MatRef<'_, T>, x: &[f64], out: &mut [f64], lanes: &mut [f64]) {
    #[cfg(target_arch = "x86_64")]
    if wide() {
        // SAFETY: avx2 presence was verified at runtime.
        return unsafe { project_avx2(mat, x, out, lanes) };
    }
    project_body(mat, x, out, lanes)
}

/// # Safety
/// CPU must support avx2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn project_avx2<T: Scalar>(
    mat: MatRef<'_, T>,
    x: &[f64],
    out: &mut [f64],
    lanes: &mut [f64],
) {
    project_body(mat, x, out, lanes)
}

#[inline(always)]
fn project_body<T: Scalar>(mat: MatRef<'_, T>, x: &[f64], out: &mut [f64], lanes: &mut [f64]) {
    let (m, n) = (mat.rows(), mat.cols());
    let (x, out) = (&x[..n], &mut out[..m]);
    if mat.is_transposed() {
        let lanes = &mut lanes[..LANES * m];
        lanes.fill(0.0);
        for (j, &xj) in x.iter().enumerate() {
            let acc = &mut lanes[(j % LANES) * m..][..m];
            for (a, &v) in acc.iter_mut().zip(mat.col(j)) {
                *a += v.to_f64() * xj;
            }
        }
        for (i, o) in out.iter_mut().enumerate() {
            *o = reduce(&std::array::from_fn(|l| lanes[l * m + i]));
        }
        return;
    }
    // Four rows per pass (see `dot_rows`); the last m mod 4 one at a time.
    let mut quads = out.chunks_exact_mut(4);
    for (i, o) in quads.by_ref().enumerate() {
        let r = |q: usize| mat.row(4 * i + q);
        o.copy_from_slice(&dot_rows([r(0), r(1), r(2), r(3)], x));
    }
    let rest = quads.into_remainder();
    let done = m - rest.len();
    for (i, o) in rest.iter_mut().enumerate() {
        *o = dot_rows([mat.row(done + i)], x)[0];
    }
}

/// Freivalds-style residual probe with projection-based non-finite
/// detection.
///
/// Draws a deterministic ±1 vector `x` from `seed`, forms `C·x`, then
/// `A·(B·x)`, and compares `‖C·x − A·(B·x)‖₂ / ‖A·(B·x)‖₂` against
/// `budget`. All accumulation is f64. A non-finite `C·x` entry — the only
/// place a NaN or ∞ of `C` can show — triggers the exact
/// [`scan_nonfinite`] count. A non-finite anywhere else in the pipeline
/// (poisoned *inputs*, which make the reference projection meaningless,
/// or a finite overflow) reports unhealthy through the residual.
pub fn check_product<T: Scalar>(
    a: MatRef<'_, T>,
    b: MatRef<'_, T>,
    c: MatRef<'_, T>,
    budget: f64,
    seed: u64,
    scratch: &mut ProbeScratch,
) -> Verdict {
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    debug_assert_eq!(k, b.rows());
    debug_assert_eq!((m, n), (c.rows(), c.cols()));
    scratch.ensure(m, k, n);
    let ProbeScratch {
        x,
        bx,
        abx,
        cx,
        lanes,
    } = scratch;
    let (x, bx, abx, cx) = (&mut x[..n], &mut bx[..k], &mut abx[..m], &mut cx[..m]);

    let mut state = seed ^ 0xD1B5_4A32_D192_ED03;
    for xi in x.iter_mut() {
        *xi = if splitmix(&mut state) & 1 == 0 {
            1.0
        } else {
            -1.0
        };
    }

    project(c, x, cx, lanes);
    if cx.iter().any(|v| !v.is_finite()) {
        let count = scan_nonfinite(c);
        if count > 0 {
            return Verdict::NonFinite { count };
        }
    }

    // B·x, then A·(B·x) — the f64 reference projection.
    project(b, x, bx, lanes);
    project(a, bx, abx, lanes);

    let mut num = 0.0f64;
    let mut den = 0.0f64;
    for (&ci, &ai) in cx.iter().zip(abx.iter()) {
        let d = ci - ai;
        num += d * d;
        den += ai * ai;
    }
    let observed = (num / den.max(f64::MIN_POSITIVE)).sqrt();
    // Poisoned inputs yield a NaN residual: `observed > budget` would be
    // false, so test the healthy condition and default to violation.
    if observed.is_finite() && observed <= budget {
        Verdict::Healthy
    } else {
        Verdict::ResidualExceeded { observed, budget }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apa_gemm::{matmul_naive, Mat};

    fn probe_mat(rows: usize, cols: usize, seed: u64) -> Mat<f32> {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        Mat::from_fn(rows, cols, |_, _| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (((state >> 32) as u32 as f64 / (1u64 << 31) as f64) - 1.0) as f32
        })
    }

    #[test]
    fn exact_product_is_healthy() {
        let a = probe_mat(40, 30, 1);
        let b = probe_mat(30, 35, 2);
        let c = matmul_naive(a.as_ref(), b.as_ref());
        let mut scratch = ProbeScratch::new();
        let v = check_product(a.as_ref(), b.as_ref(), c.as_ref(), 1e-4, 7, &mut scratch);
        assert_eq!(v, Verdict::Healthy);
    }

    #[test]
    fn corrupted_block_is_flagged() {
        let a = probe_mat(40, 30, 3);
        let b = probe_mat(30, 35, 4);
        let mut c = matmul_naive(a.as_ref(), b.as_ref());
        for i in 0..4 {
            for j in 0..4 {
                c.set(i, j, c.at(i, j) * 1e6);
            }
        }
        let mut scratch = ProbeScratch::new();
        match check_product(a.as_ref(), b.as_ref(), c.as_ref(), 1e-3, 7, &mut scratch) {
            Verdict::ResidualExceeded { observed, budget } => {
                assert!(observed > budget, "observed {observed} budget {budget}")
            }
            v => panic!("expected residual violation, got {v:?}"),
        }
    }

    #[test]
    fn nan_in_output_is_caught_by_fused_scan() {
        let a = probe_mat(20, 20, 5);
        let b = probe_mat(20, 20, 6);
        let mut c = matmul_naive(a.as_ref(), b.as_ref());
        c.set(7, 9, f32::NAN);
        c.set(0, 0, f32::INFINITY);
        let mut scratch = ProbeScratch::new();
        let v = check_product(a.as_ref(), b.as_ref(), c.as_ref(), 1e-3, 7, &mut scratch);
        assert_eq!(v, Verdict::NonFinite { count: 2 });
        assert_eq!(scan_nonfinite(c.as_ref()), 2);

        // n = 21: column 7 is the last lane of the first chunk, 15 the last
        // lane of the second, 20 sits in the ragged tail (21 mod 8 = 5).
        let b = probe_mat(20, 21, 16);
        let clean = matmul_naive(a.as_ref(), b.as_ref());
        for (i, j, v) in [
            (3, 7, f32::NAN),
            (11, 15, f32::NEG_INFINITY),
            (19, 20, f32::INFINITY),
        ] {
            let mut c = clean.clone();
            c.set(i, j, v);
            c.set(0, 20, f32::NAN);
            let c_st = c.as_ref().t().to_owned();
            for cv in [c.as_ref(), c_st.as_ref().t()] {
                let got = check_product(a.as_ref(), b.as_ref(), cv, 1e-3, 7, &mut scratch);
                assert_eq!(got, Verdict::NonFinite { count: 2 }, "({i},{j})");
            }
        }
    }

    #[test]
    fn finite_projection_overflow_is_a_residual_violation() {
        // C = A·B is finite, but the ±1 projections of its near-max rows
        // overflow f64: the verdict must come from the residual test, not
        // claim non-finite entries that are not there.
        let big = f64::MAX * 0.95;
        let a = Mat::<f64>::from_fn(16, 1, |_, _| big);
        let b = Mat::<f64>::from_fn(1, 64, |_, _| 1.0);
        let c = matmul_naive(a.as_ref(), b.as_ref());
        assert_eq!(scan_nonfinite(c.as_ref()), 0);
        let mut scratch = ProbeScratch::new();
        let v = check_product(a.as_ref(), b.as_ref(), c.as_ref(), 1e-3, 7, &mut scratch);
        assert!(
            scratch.cx[..16].iter().any(|v| !v.is_finite()),
            "the projection was meant to overflow"
        );
        assert!(
            matches!(v, Verdict::ResidualExceeded { .. }),
            "finite overflow reported as {v:?}"
        );
    }

    #[test]
    fn transposed_operands_give_the_same_verdict() {
        // The probe of `Xᵀ·dZ` / `dZ·Wᵀ` on transposed views must be the
        // probe of the materialized transposes, observed residual included.
        let a = probe_mat(40, 30, 12);
        let b = probe_mat(30, 35, 13);
        let (a_st, b_st) = (a.as_ref().t().to_owned(), b.as_ref().t().to_owned());
        let mut c = matmul_naive(a.as_ref(), b.as_ref());
        let mut scratch = ProbeScratch::new();
        // 0: clean, 1: one scaled entry, 2: plus a NaN and an ∞.
        for corrupt in 0..3 {
            match corrupt {
                1 => c.set(3, 4, c.at(3, 4) * 1e3),
                2 => {
                    c.set(7, 0, f32::NAN);
                    c.set(39, 34, f32::INFINITY);
                }
                _ => {}
            }
            let want = check_product(a.as_ref(), b.as_ref(), c.as_ref(), 1e-4, 9, &mut scratch);
            assert_eq!(want.is_healthy(), corrupt == 0);
            // C as a transposed view too (the probe takes any view).
            let c_st = c.as_ref().t().to_owned();
            assert_eq!(
                scan_nonfinite(c_st.as_ref().t()),
                scan_nonfinite(c.as_ref())
            );
            for (av, bv, cv) in [
                (a_st.as_ref().t(), b.as_ref(), c.as_ref()),
                (a.as_ref(), b_st.as_ref().t(), c.as_ref()),
                (a_st.as_ref().t(), b_st.as_ref().t(), c.as_ref()),
                (a.as_ref(), b.as_ref(), c_st.as_ref().t()),
            ] {
                let got = check_product(av, bv, cv, 1e-4, 9, &mut scratch);
                assert_eq!(got, want, "corrupt={corrupt}");
            }
        }
    }

    #[test]
    fn poisoned_inputs_report_unhealthy() {
        let mut a = probe_mat(16, 16, 8);
        a.set(3, 3, f32::NAN);
        let b = probe_mat(16, 16, 9);
        let c = Mat::<f32>::zeros(16, 16); // finite output, garbage inputs
        let mut scratch = ProbeScratch::new();
        let v = check_product(a.as_ref(), b.as_ref(), c.as_ref(), 1e-3, 7, &mut scratch);
        assert!(!v.is_healthy(), "NaN inputs must not pass: {v:?}");
    }

    #[test]
    fn probe_is_deterministic_and_allocation_free_when_warm() {
        let a = probe_mat(24, 18, 10);
        let b = probe_mat(18, 21, 11);
        let c = matmul_naive(a.as_ref(), b.as_ref());
        let mut scratch = ProbeScratch::new();
        let v1 = check_product(a.as_ref(), b.as_ref(), c.as_ref(), 1e-4, 42, &mut scratch);
        let bytes = scratch.footprint_bytes();
        let v2 = check_product(a.as_ref(), b.as_ref(), c.as_ref(), 1e-4, 42, &mut scratch);
        assert_eq!(v1, v2);
        assert_eq!(
            scratch.footprint_bytes(),
            bytes,
            "warm probe must not grow scratch"
        );
    }

    #[test]
    fn budget_tracks_the_error_model() {
        let cfg = SentinelConfig::default();
        // bini322: σ = 1, φ = 1 → model 2^-11.5 ≈ 3.5e-4, × slack 64.
        let apa = cfg.budget(Some(1), 1, 1);
        assert!((apa - 64.0 * (2.0_f64).powf(-11.5)).abs() < 1e-9);
        // Exact rules bottom out at the floor.
        assert_eq!(cfg.budget(None, 0, 1), cfg.min_budget);
        assert_eq!(cfg.budget(Some(0), 0, 1), cfg.min_budget);
        // More steps → looser budget.
        assert!(cfg.budget(Some(1), 1, 2) > apa);
    }
}
