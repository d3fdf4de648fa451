//! `APA_KERNEL_TIER=scalar` must pin dispatch to the portable scalar
//! tier — the escape hatch for masked/buggy SIMD and the lever
//! `scripts/tier1.sh` uses to run the whole suite through the scalar
//! path. Lives in its own integration-test binary because tier selection
//! is a process-wide `OnceLock`: the env var has to be set before the
//! first kernel use, and nothing else in this process may have touched
//! dispatch first.

use apa_gemm::{gemm_st, kernel_spec, matmul_naive, selected_tier, KernelTier, Mat};

#[test]
fn force_scalar_env_pins_dispatch_and_stays_correct() {
    // Set before the first dispatch query anywhere in this process; this
    // is the only test in this binary, so nothing has raced dispatch.
    std::env::set_var("APA_KERNEL_TIER", "scalar");

    assert_eq!(selected_tier(), KernelTier::Scalar);
    let spec = kernel_spec::<f32>();
    assert_eq!(spec.tier, KernelTier::Scalar);

    // The scalar path must still compute a correct product.
    let (m, k, n) = (37, 29, 41);
    let a = Mat::<f32>::from_fn(m, k, |i, j| ((i * 7 + j) % 13) as f32 * 0.1 - 0.5);
    let b = Mat::<f32>::from_fn(k, n, |i, j| ((i + 11 * j) % 17) as f32 * 0.1 - 0.7);
    let mut c = Mat::<f32>::zeros(m, n);
    gemm_st(1.0, a.as_ref(), b.as_ref(), 0.0, c.as_mut());
    let want = matmul_naive(a.as_ref(), b.as_ref());
    for i in 0..m {
        for j in 0..n {
            assert!(
                (c.at(i, j) - want.at(i, j)).abs() <= 1e-4,
                "forced-scalar gemm wrong at ({i},{j})"
            );
        }
    }
}
