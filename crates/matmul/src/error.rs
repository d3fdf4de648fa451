//! Empirical error measurement (the paper's Fig. 1 metric).
//!
//! Relative Frobenius-norm error ‖C − Ĉ‖_F / ‖C‖_F, where Ĉ is the fast
//! algorithm's single-precision result and C the classical double-precision
//! reference — exactly the paper's §2.3 protocol.

use crate::peel::{run_chain, PeelMode};
use crate::plan::ExecPlan;
use crate::schedule::{FusionPolicy, Strategy};
use crate::workspace::{ExecConfig, Workspace};
use apa_core::BilinearAlgorithm;
use apa_gemm::{matmul, Mat};

/// Typed errors for the `multiply_into` family.
///
/// The engine's internal invariants stay `debug_assert`s, but *operand*
/// mismatches are caller bugs that must fail loudly in release builds too —
/// silently mis-partitioning a wrongly-shaped operand would corrupt the
/// output (or read out of bounds) with no diagnostic. `try_multiply_into`
/// surfaces these as values; the panicking entry points format them.
///
/// Execution failures are also typed: a panicked worker lane unwinds
/// cleanly out of the pool barrier and reaches the caller as
/// [`MatmulError::WorkerPanicked`]; a multiply that blew through the
/// configured watchdog deadline surfaces as [`MatmulError::LaneTimeout`].
/// Either way the instance stays usable — the next multiply succeeds.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MatmulError {
    /// `A` is `m×k` but `B` is `k'×n` with `k ≠ k'`.
    InnerDimMismatch {
        a: (usize, usize),
        b: (usize, usize),
    },
    /// `C` storage does not match the `m×n` product shape.
    OutputShapeMismatch {
        expected: (usize, usize),
        got: (usize, usize),
    },
    /// A gemm worker lane panicked during this multiply. The pool drained
    /// and was rebuilt; `C` may be partially written.
    WorkerPanicked { detail: String },
    /// The multiply exceeded the watchdog deadline (milliseconds shown)
    /// on every rung it was allowed to try.
    LaneTimeout { deadline_ms: u64 },
    /// The ABFT checksum tier found corruption in the classical floor's
    /// product that the scalar-tier recompute could not repair (the
    /// re-verification still failed) — there is no rung below to retry
    /// on and the output buffer cannot be trusted.
    SilentCorruption { regions: u64 },
}

impl std::fmt::Display for MatmulError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MatmulError::InnerDimMismatch { a, b } => write!(
                f,
                "inner dimensions must match: A is {}x{}, B is {}x{}",
                a.0, a.1, b.0, b.1
            ),
            MatmulError::OutputShapeMismatch { expected, got } => write!(
                f,
                "output shape mismatch: product is {}x{}, C is {}x{}",
                expected.0, expected.1, got.0, got.1
            ),
            MatmulError::WorkerPanicked { detail } => {
                write!(f, "worker lane panicked: {detail}")
            }
            MatmulError::LaneTimeout { deadline_ms } => {
                write!(
                    f,
                    "multiply exceeded the {deadline_ms} ms watchdog deadline"
                )
            }
            MatmulError::SilentCorruption { regions } => {
                write!(
                    f,
                    "silent data corruption in {regions} region(s) of the classical \
                     floor's product could not be repaired"
                )
            }
        }
    }
}

impl std::error::Error for MatmulError {}

/// Validate the `(A, B, C)` operand shapes of a `C ← A·B` call.
pub(crate) fn check_operands(
    a: (usize, usize),
    b: (usize, usize),
    c: (usize, usize),
) -> Result<(), MatmulError> {
    if a.1 != b.0 {
        return Err(MatmulError::InnerDimMismatch { a, b });
    }
    if c != (a.0, b.1) {
        return Err(MatmulError::OutputShapeMismatch {
            expected: (a.0, b.1),
            got: c,
        });
    }
    Ok(())
}

/// Deterministic uniform(-1, 1) matrix (paper: "uniform random inputs").
pub fn uniform_mat_f32(rows: usize, cols: usize, seed: u64) -> Mat<f32> {
    let mut state = seed
        .wrapping_mul(0x9E3779B97F4A7C15)
        .wrapping_add(0xD1B54A32D192ED03);
    Mat::from_fn(rows, cols, |_, _| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (((state >> 32) as u32 as f64 / (1u64 << 31) as f64) - 1.0) as f32
    })
}

/// Run `alg` at `lambda` on random n×n f32 inputs and return the relative
/// Frobenius error against the f64 classical reference.
pub fn measure_error(alg: &BilinearAlgorithm, lambda: f64, n: usize, steps: u32, seed: u64) -> f64 {
    let plan = ExecPlan::compile(alg, lambda);
    let a = uniform_mat_f32(n, n, seed);
    let b = uniform_mat_f32(n, n, seed.wrapping_add(1));

    let chain = vec![&plan; steps as usize];
    let config = ExecConfig {
        strategy: Strategy::Seq,
        threads: 1,
        peel: PeelMode::Dynamic,
        fusion: FusionPolicy::Auto,
    };
    let mut ws = Workspace::for_chain(&chain, n, n, n, config);
    let mut c_hat = Mat::<f32>::zeros(n, n);
    run_chain(&chain, a.as_ref(), b.as_ref(), c_hat.as_mut(), &mut ws);

    // f64 classical reference (blocked kernel, double precision).
    let a64 = Mat::<f64>::from_fn(n, n, |i, j| a.at(i, j) as f64);
    let b64 = Mat::<f64>::from_fn(n, n, |i, j| b.at(i, j) as f64);
    let c_ref = matmul(a64.as_ref(), b64.as_ref());

    let mut num = 0.0f64;
    let mut den = 0.0f64;
    for i in 0..n {
        for j in 0..n {
            let d = c_hat.at(i, j) as f64 - c_ref.at(i, j);
            num += d * d;
            den += c_ref.at(i, j) * c_ref.at(i, j);
        }
    }
    (num / den.max(f64::MIN_POSITIVE)).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use apa_core::{catalog, error_model};

    #[test]
    fn operand_checks_catch_both_mismatch_kinds() {
        assert_eq!(check_operands((3, 4), (4, 5), (3, 5)), Ok(()));
        assert_eq!(
            check_operands((3, 4), (7, 5), (3, 5)),
            Err(MatmulError::InnerDimMismatch {
                a: (3, 4),
                b: (7, 5)
            })
        );
        assert_eq!(
            check_operands((3, 4), (4, 5), (3, 6)),
            Err(MatmulError::OutputShapeMismatch {
                expected: (3, 5),
                got: (3, 6)
            })
        );
        let msg = check_operands((3, 4), (7, 5), (3, 5))
            .unwrap_err()
            .to_string();
        assert!(msg.contains("3x4") && msg.contains("7x5"), "{msg}");
    }

    #[test]
    fn classical_baseline_error_is_single_precision() {
        // gemm f32 vs f64 reference on n=64: error near 2^-23·√n growth.
        let alg = catalog::classical(apa_core::Dims::new(2, 2, 2));
        let e = measure_error(&alg, 0.0, 64, 0, 7);
        assert!(e > 1e-9 && e < 1e-5, "e = {e}");
    }

    #[test]
    fn bini_error_near_table1_prediction() {
        // Paper Table 1: ⟨3,2,2⟩ predicted error 3.5e-4 at the optimal λ.
        let alg = catalog::bini322();
        let lambda = error_model::optimal_lambda(1, 1, error_model::D_SINGLE, 1);
        let e = measure_error(&alg, lambda, 60, 1, 11);
        assert!(
            e > 1e-6 && e < 3.5e-3,
            "expected error within an order of the 3.5e-4 bound, got {e}"
        );
    }

    #[test]
    fn exact_fast_rules_stay_at_machine_precision() {
        let e = measure_error(&catalog::fast444(), 0.0, 64, 1, 13);
        assert!(e < 1e-5, "e = {e}");
    }

    #[test]
    fn lambda_too_small_amplifies_roundoff() {
        // λ far below optimal: the λ⁻¹ output scaling amplifies f32
        // roundoff, so error should exceed the tuned-λ error.
        let alg = catalog::bini322();
        let tuned = measure_error(&alg, 2.0_f64.powf(-11.5), 60, 1, 17);
        let tiny = measure_error(&alg, 2.0_f64.powi(-21), 60, 1, 17);
        assert!(
            tiny > tuned,
            "roundoff regime should dominate: tuned {tuned}, tiny-λ {tiny}"
        );
    }

    #[test]
    fn lambda_too_large_amplifies_truncation() {
        let alg = catalog::bini322();
        let tuned = measure_error(&alg, 2.0_f64.powf(-11.5), 60, 1, 19);
        let huge = measure_error(&alg, 2.0_f64.powi(-3), 60, 1, 19);
        assert!(
            huge > tuned * 10.0,
            "approximation regime should dominate: tuned {tuned}, huge-λ {huge}"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let alg = catalog::bini322();
        let e1 = measure_error(&alg, 1e-3, 30, 1, 23);
        let e2 = measure_error(&alg, 1e-3, 30, 1, 23);
        assert_eq!(e1, e2);
    }
}
