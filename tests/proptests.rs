//! Property-based tests (proptest) on the core invariants:
//! Laurent algebra, view/splitting laws, GEMM linearity, APA error bounds
//! and transformation correctness on randomized inputs.

use apa_repro::core::{brent, catalog, transform, Dims, Laurent};
use apa_repro::gemm::{combine, gemm, gemm_st, matmul, matmul_naive, Mat, Par};
use apa_repro::matmul::{ApaMatmul, Strategy as ExecStrategy};
use proptest::prelude::*;

fn laurent_strategy() -> impl Strategy<Value = Laurent> {
    proptest::collection::vec((-3i32..=3, -4.0f64..4.0), 0..5).prop_map(Laurent::from_terms)
}

fn mat_strategy(max: usize) -> impl Strategy<Value = (usize, usize, Vec<f32>)> {
    (1..=max, 1..=max).prop_flat_map(|(r, c)| {
        proptest::collection::vec(-2.0f32..2.0, r * c).prop_map(move |v| (r, c, v))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // ---------------- Laurent algebra ----------------

    #[test]
    fn laurent_add_commutes(a in laurent_strategy(), b in laurent_strategy()) {
        prop_assert_eq!(a.add(&b), b.add(&a));
    }

    #[test]
    fn laurent_mul_matches_eval(a in laurent_strategy(), b in laurent_strategy()) {
        let x = 0.73_f64;
        let lhs = a.mul(&b).eval(x);
        let rhs = a.eval(x) * b.eval(x);
        prop_assert!((lhs - rhs).abs() <= 1e-9 * (1.0 + rhs.abs()));
    }

    #[test]
    fn laurent_sub_self_is_zero(a in laurent_strategy()) {
        prop_assert!(a.sub(&a).is_zero());
    }

    #[test]
    fn laurent_display_parse_roundtrip(a in laurent_strategy()) {
        if a.is_zero() { return Ok(()); }
        let s = a.to_string();
        let b = Laurent::parse(&s).map_err(|e| TestCaseError::fail(format!("{e}: {s}")))?;
        let diff = a.sub(&b);
        prop_assert!(diff.max_abs_coeff() < 1e-9, "{} != {}", a, b);
    }

    // ---------------- GEMM ----------------

    #[test]
    fn gemm_matches_naive((m, k, av) in mat_strategy(24), n in 1usize..24) {
        let a = Mat::from_vec(m, k, av);
        let b = Mat::from_fn(k, n, |i, j| ((i * 31 + j * 7) % 11) as f32 * 0.2 - 1.0);
        let got = matmul(a.as_ref(), b.as_ref());
        let expect = matmul_naive(a.as_ref(), b.as_ref());
        prop_assert!(got.rel_frobenius_error(&expect) < 1e-4);
    }

    #[test]
    fn gemm_is_linear_in_alpha((m, k, av) in mat_strategy(16), alpha in -3.0f32..3.0) {
        let a = Mat::from_vec(m, k, av);
        let b = Mat::from_fn(k, 8, |i, j| (i + j) as f32 * 0.1);
        let mut c1 = Mat::zeros(m, 8);
        let mut c2 = Mat::zeros(m, 8);
        gemm_st(alpha, a.as_ref(), b.as_ref(), 0.0, c1.as_mut());
        gemm_st(1.0, a.as_ref(), b.as_ref(), 0.0, c2.as_mut());
        for i in 0..m {
            for j in 0..8 {
                let expect = alpha * c2.at(i, j);
                prop_assert!((c1.at(i, j) - expect).abs() < 1e-3 * (1.0 + expect.abs()));
            }
        }
    }

    #[test]
    fn combine_is_additive((m, k, av) in mat_strategy(20), c1 in -2.0f32..2.0, c2 in -2.0f32..2.0) {
        let x = Mat::from_vec(m, k, av);
        let y = Mat::from_fn(m, k, |i, j| (i as f32 - j as f32) * 0.3);
        let mut combined = Mat::zeros(m, k);
        combine(combined.as_mut(), false, &[(c1, x.as_ref()), (c2, y.as_ref())]);
        for i in 0..m {
            for j in 0..k {
                let expect = c1 * x.at(i, j) + c2 * y.at(i, j);
                prop_assert!((combined.at(i, j) - expect).abs() < 1e-4);
            }
        }
    }

    // ---------------- APA execution ----------------

    #[test]
    fn apa_multiply_close_to_naive_any_shape(
        m in 1usize..40, k in 1usize..40, n in 1usize..40, seed in 0u64..1000
    ) {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (((state >> 32) as u32 as f64 / (1u64 << 31) as f64) - 1.0) as f32
        };
        let a = Mat::from_fn(m, k, |_, _| next());
        let b = Mat::from_fn(k, n, |_, _| next());
        let expect = matmul_naive(a.as_ref(), b.as_ref());
        let mm = ApaMatmul::new(catalog::bini322()).strategy(ExecStrategy::Seq);
        let got = mm.multiply(a.as_ref(), b.as_ref());
        prop_assert!(got.rel_frobenius_error(&expect) < 1e-2);
    }

    #[test]
    fn workspace_reuse_is_bitwise_identical_to_allocate_per_call(
        m in 1usize..36, k in 1usize..36, n in 1usize..36,
        seed in 0u64..1000, strat in 0usize..4, threads in 1usize..4, steps in 0u32..2
    ) {
        let strategy = [ExecStrategy::Seq, ExecStrategy::Dfs, ExecStrategy::Bfs, ExecStrategy::Hybrid][strat];
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(7);
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (((state >> 32) as u32 as f64 / (1u64 << 31) as f64) - 1.0) as f32
        };
        let a = Mat::from_fn(m, k, |_, _| next());
        let b = Mat::from_fn(k, n, |_, _| next());
        let mm = ApaMatmul::new(catalog::bini322()).steps(steps).strategy(strategy).threads(threads);
        let mut fresh = Mat::zeros(m, n);
        mm.multiply_into_uncached(a.as_ref(), b.as_ref(), fresh.as_mut());
        if steps == 0 {
            // Depth 0 is the gemm leaf itself, at the strategy's parallelism.
            let par = if strategy == ExecStrategy::Seq || threads == 1 {
                Par::Seq
            } else {
                Par::Threads(threads)
            };
            let mut leaf = Mat::zeros(m, n);
            gemm(1.0, a.as_ref(), b.as_ref(), 0.0, leaf.as_mut(), par);
            for i in 0..m {
                for j in 0..n {
                    prop_assert_eq!(fresh.at(i, j).to_bits(), leaf.at(i, j).to_bits());
                }
            }
        }
        let mut cached = Mat::zeros(m, n);
        // Twice through the cached path: the second call runs on a warm
        // (reused) workspace and must still match bit for bit.
        for round in 0..2 {
            mm.multiply_into(a.as_ref(), b.as_ref(), cached.as_mut());
            for i in 0..m {
                for j in 0..n {
                    prop_assert_eq!(
                        cached.at(i, j).to_bits(), fresh.at(i, j).to_bits(),
                        "round {} at ({}, {}) under {:?}, steps {}", round, i, j, strategy, steps
                    );
                }
            }
        }
    }

    // ---------------- Transformations ----------------

    #[test]
    fn rotation_preserves_validity_and_rank(m in 1usize..4, k in 1usize..4, n in 1usize..4) {
        let alg = catalog::classical(Dims::new(m, k, n));
        let rot = transform::rotate(&alg);
        prop_assert_eq!(rot.dims, Dims::new(k, n, m));
        prop_assert_eq!(rot.rank(), alg.rank());
        prop_assert!(brent::validate(&rot).unwrap().exact);
    }

    #[test]
    fn direct_sums_add_ranks(m1 in 1usize..3, m2 in 1usize..3, k in 1usize..3, n in 1usize..3) {
        let p = catalog::classical(Dims::new(m1, k, n));
        let q = catalog::classical(Dims::new(m2, k, n));
        let s = transform::direct_sum_m(&p, &q);
        prop_assert_eq!(s.rank(), p.rank() + q.rank());
        prop_assert_eq!(s.dims, Dims::new(m1 + m2, k, n));
        prop_assert!(brent::validate(&s).unwrap().exact);
    }

    #[test]
    fn tensor_multiplies_ranks(m in 1usize..3, k in 1usize..3, n in 1usize..3) {
        let p = catalog::strassen();
        let q = catalog::classical(Dims::new(m, k, n));
        let t = transform::tensor(&p, &q);
        prop_assert_eq!(t.rank(), 7 * m * k * n);
        prop_assert_eq!(t.dims, Dims::new(2 * m, 2 * k, 2 * n));
        prop_assert!(brent::validate(&t).unwrap().exact);
    }

    // ---------------- Data pipeline ----------------

    #[test]
    fn dataset_gather_is_faithful(n in 2usize..40, seed in 0u64..100) {
        use apa_repro::nn::synthetic_mnist;
        let ds = synthetic_mnist(n, seed);
        let idx = ds.shuffled_indices(seed + 1);
        let (x, labels) = ds.gather(&idx);
        prop_assert_eq!(x.rows(), n);
        for (row, &orig) in idx.iter().enumerate() {
            prop_assert_eq!(labels[row], ds.labels()[orig]);
            let got = &x.as_slice()[row * 784..row * 784 + 8];
            let want = &ds.images().as_slice()[orig * 784..orig * 784 + 8];
            prop_assert_eq!(got, want);
        }
    }
}
