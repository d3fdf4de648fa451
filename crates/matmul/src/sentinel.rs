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
//! * a **non-finite scan** of the output, fused into the probe's `C·x`
//!   pass (the scan shares the single traversal of `C`); on calls where
//!   the probe is skipped, a standalone scan still runs, so NaN/Inf can
//!   never slip through unobserved.
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

/// Reusable probe scratch: the four O(n) vectors a Freivalds check needs
/// (`x`, `B·x`, `A·(B·x)`, `C·x`), kept in f64 whatever the operand type.
/// Grows to the high-water mark of the shapes it has seen and is then
/// allocation-free.
#[derive(Debug, Default)]
pub struct ProbeScratch {
    x: Vec<f64>,
    bx: Vec<f64>,
    abx: Vec<f64>,
    cx: Vec<f64>,
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
        if self.x.len() < n {
            self.x.resize(n, 0.0);
        }
        if self.bx.len() < k {
            self.bx.resize(k, 0.0);
        }
        if self.abx.len() < m {
            self.abx.resize(m, 0.0);
        }
        if self.cx.len() < m {
            self.cx.resize(m, 0.0);
        }
    }

    /// Bytes currently held by the scratch vectors.
    pub fn footprint_bytes(&self) -> usize {
        (self.x.len() + self.bx.len() + self.abx.len() + self.cx.len()) * std::mem::size_of::<f64>()
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

/// Count the non-finite entries of `c` (the standalone scan used on calls
/// where the Freivalds probe is not sampled).
pub fn scan_nonfinite<T: Scalar>(c: MatRef<'_, T>) -> usize {
    // The count does not depend on the order: scan a transposed view's
    // storage as the plain view it transposes.
    let c = if c.is_transposed() { c.t() } else { c };
    let mut count = 0usize;
    for i in 0..c.rows() {
        for &v in c.row(i) {
            if !v.to_f64().is_finite() {
                count += 1;
            }
        }
    }
    count
}

/// `out ← M·x` in f64, each `out[i]` summed from 0 in column order. A
/// transposed `M` is swept a contiguous column at a time; every `out[i]`
/// still adds its terms in the same order, so the projection — and the
/// verdict — is bitwise the one for the materialized transpose.
fn project<T: Scalar>(mat: MatRef<'_, T>, x: &[f64], out: &mut [f64]) {
    if mat.is_transposed() {
        out.fill(0.0);
        for (j, &xj) in x.iter().enumerate() {
            for (o, &v) in out.iter_mut().zip(mat.col(j)) {
                *o += v.to_f64() * xj;
            }
        }
        return;
    }
    for (i, o) in out.iter_mut().enumerate() {
        let mut acc = 0.0f64;
        for (j, &v) in mat.row(i).iter().enumerate() {
            acc += v.to_f64() * x[j];
        }
        *o = acc;
    }
}

/// Freivalds-style residual probe with a fused non-finite scan.
///
/// Draws a deterministic ±1 vector `x` from `seed`, forms `C·x` (scanning
/// `C` for NaN/Inf in the same pass), then `A·(B·x)`, and compares
/// `‖C·x − A·(B·x)‖₂ / ‖A·(B·x)‖₂` against `budget`. All accumulation is
/// f64. A non-finite anywhere in the pipeline (including poisoned *inputs*,
/// which make the reference projection meaningless) reports unhealthy.
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

    let mut state = seed ^ 0xD1B5_4A32_D192_ED03;
    for xi in &mut scratch.x[..n] {
        *xi = if splitmix(&mut state) & 1 == 0 {
            1.0
        } else {
            -1.0
        };
    }

    // C·x, with the non-finite scan fused into the same pass over C (a
    // transposed C takes the column-wise projection and a separate scan).
    let mut nonfinite = 0usize;
    if c.is_transposed() {
        project(c, &scratch.x[..n], &mut scratch.cx[..m]);
        nonfinite = scan_nonfinite(c);
    } else {
        for i in 0..m {
            let mut acc = 0.0f64;
            for (j, &v) in c.row(i).iter().enumerate() {
                let v = v.to_f64();
                if !v.is_finite() {
                    nonfinite += 1;
                }
                acc += v * scratch.x[j];
            }
            scratch.cx[i] = acc;
        }
    }
    if nonfinite > 0 {
        return Verdict::NonFinite { count: nonfinite };
    }

    // B·x, then A·(B·x) — the f64 reference projection.
    project(b, &scratch.x[..n], &mut scratch.bx[..k]);
    project(a, &scratch.bx[..k], &mut scratch.abx[..m]);

    let mut num = 0.0f64;
    let mut den = 0.0f64;
    for i in 0..m {
        let d = scratch.cx[i] - scratch.abx[i];
        num += d * d;
        den += scratch.abx[i] * scratch.abx[i];
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
