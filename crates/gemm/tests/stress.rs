//! GEMM stress tests: exhaustive small shapes, awkward strides, and
//! proptest-driven randomized checks against the naive oracle.

use apa_gemm::{gemm, gemm_st, matmul_naive, Mat, Par, Scalar};
use proptest::prelude::*;

fn rand_mat<T: Scalar>(rows: usize, cols: usize, seed: u64) -> Mat<T> {
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
    Mat::from_fn(rows, cols, |_, _| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        T::from_f64(((state >> 32) as u32 as f64 / (1u64 << 31) as f64) - 1.0)
    })
}

#[test]
fn exhaustive_tiny_shapes_f32() {
    // Every (m, k, n) in 1..=10 — covers all microkernel edge paths.
    for m in 1..=10usize {
        for k in 1..=10usize {
            for n in 1..=10usize {
                let a = rand_mat::<f32>(m, k, (m * 100 + k * 10 + n) as u64);
                let b = rand_mat::<f32>(k, n, (m * 7 + k * 5 + n * 3) as u64);
                let mut c = Mat::<f32>::zeros(m, n);
                gemm_st(1.0, a.as_ref(), b.as_ref(), 0.0, c.as_mut());
                let expect = matmul_naive(a.as_ref(), b.as_ref());
                let err = c.rel_frobenius_error(&expect);
                assert!(err < 1e-5, "({m},{k},{n}): {err}");
            }
        }
    }
}

#[test]
fn register_tile_boundary_shapes_f64() {
    // Shapes straddling MR=4 / NR=8 boundaries for f64.
    for &(m, n) in &[(3, 7), (4, 8), (5, 9), (8, 16), (9, 17), (12, 24), (13, 25)] {
        let k = 33;
        let a = rand_mat::<f64>(m, k, 1);
        let b = rand_mat::<f64>(k, n, 2);
        let mut c = Mat::<f64>::zeros(m, n);
        gemm_st(1.0, a.as_ref(), b.as_ref(), 0.0, c.as_mut());
        let expect = matmul_naive(a.as_ref(), b.as_ref());
        assert!(c.rel_frobenius_error(&expect) < 1e-13, "({m},{n})");
    }
}

#[test]
fn deep_k_accumulation() {
    // k much larger than KC: many rank-k update rounds with beta chaining.
    let a = rand_mat::<f32>(16, 2000, 3);
    let b = rand_mat::<f32>(2000, 16, 4);
    let mut c = Mat::<f32>::zeros(16, 16);
    gemm_st(1.0, a.as_ref(), b.as_ref(), 0.0, c.as_mut());
    let expect = matmul_naive(a.as_ref(), b.as_ref());
    assert!(c.rel_frobenius_error(&expect) < 1e-4);
}

#[test]
fn repeated_accumulation_is_linear() {
    let a = rand_mat::<f64>(24, 24, 5);
    let b = rand_mat::<f64>(24, 24, 6);
    let mut c = Mat::<f64>::zeros(24, 24);
    for _ in 0..5 {
        gemm(1.0, a.as_ref(), b.as_ref(), 1.0, c.as_mut(), Par::Seq);
    }
    let expect = matmul_naive(a.as_ref(), b.as_ref());
    for i in 0..24 {
        for j in 0..24 {
            assert!((c.at(i, j) - 5.0 * expect.at(i, j)).abs() < 1e-10);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_shapes_match_naive(
        m in 1usize..80, k in 1usize..80, n in 1usize..80, seed in 0u64..10_000
    ) {
        let a = rand_mat::<f32>(m, k, seed);
        let b = rand_mat::<f32>(k, n, seed ^ 0xFFFF);
        let mut c = Mat::<f32>::zeros(m, n);
        gemm_st(1.0, a.as_ref(), b.as_ref(), 0.0, c.as_mut());
        let expect = matmul_naive(a.as_ref(), b.as_ref());
        prop_assert!(c.rel_frobenius_error(&expect) < 1e-4);
    }

    #[test]
    fn parallel_equals_sequential(
        m in 1usize..60, k in 1usize..60, n in 1usize..60, threads in 2usize..5
    ) {
        let a = rand_mat::<f64>(m, k, 11);
        let b = rand_mat::<f64>(k, n, 13);
        let mut seq = Mat::<f64>::zeros(m, n);
        let mut par = Mat::<f64>::zeros(m, n);
        gemm_st(1.0, a.as_ref(), b.as_ref(), 0.0, seq.as_mut());
        gemm(1.0, a.as_ref(), b.as_ref(), 0.0, par.as_mut(), Par::Threads(threads));
        // Same stripe-internal order ⇒ bitwise equality per stripe.
        prop_assert!(par.rel_frobenius_error(&seq) < 1e-14);
    }

    #[test]
    fn alpha_beta_algebra(
        m in 1usize..30, k in 1usize..30, n in 1usize..30,
        alpha in -2.0f64..2.0, beta in -2.0f64..2.0
    ) {
        let a = rand_mat::<f64>(m, k, 17);
        let b = rand_mat::<f64>(k, n, 19);
        let c0 = rand_mat::<f64>(m, n, 23);
        let mut c = c0.clone();
        gemm_st(alpha, a.as_ref(), b.as_ref(), beta, c.as_mut());
        let ab = matmul_naive(a.as_ref(), b.as_ref());
        for i in 0..m {
            for j in 0..n {
                let expect = alpha * ab.at(i, j) + beta * c0.at(i, j);
                prop_assert!((c.at(i, j) - expect).abs() < 1e-10 * (1.0 + expect.abs()));
            }
        }
    }
}
