//! Property tests for fused execution: pack-time operand combination
//! against the materialized reference (`FusionPolicy::Never`).
//!
//! The contracts under test (documented in `apa-matmul`'s `exec` module):
//!
//! * **Pack fusion is bitwise exact.** `gemm_combined` over `(coeff, src)`
//!   term lists must equal combine-into-scratch followed by plain `gemm`,
//!   bit for bit, because the combined packers mirror `combine`'s
//!   arity-specialized FMA chains.
//! * **`Auto` is `Never`, bit for bit, on every rule.** Pack fusion is the
//!   only fusion, so `Never` doubles as a bitwise regression sentinel.

use apa_core::catalog;
use apa_gemm::{combine_par, gemm, gemm_combined, Mat, MatRef, Par};
use apa_matmul::{ApaMatmul, FusionPolicy, PeelMode, Strategy};
use proptest::prelude::*;

fn rand_mat<T: apa_gemm::Scalar>(rows: usize, cols: usize, seed: u64, f: fn(f64) -> T) -> Mat<T> {
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
    Mat::from_fn(rows, cols, |_, _| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        f(((state >> 32) as u32 as f64 / (1u64 << 31) as f64) - 1.0)
    })
}

fn coeffs(arity: usize, seed: u64) -> Vec<f32> {
    (0..arity)
        .map(|i| 0.75 * ((seed.wrapping_add(i as u64 * 37) % 17) as f32 - 8.0) / 8.0 - 0.1)
        .collect()
}

fn assert_bitwise_f32(got: &Mat<f32>, want: &Mat<f32>, what: &str) -> Result<(), TestCaseError> {
    for i in 0..got.rows() {
        for j in 0..got.cols() {
            prop_assert_eq!(
                got.at(i, j).to_bits(),
                want.at(i, j).to_bits(),
                "{} diverged at ({},{})",
                what,
                i,
                j
            );
        }
    }
    Ok(())
}

fn assert_bitwise_f64(got: &Mat<f64>, want: &Mat<f64>, what: &str) -> Result<(), TestCaseError> {
    for i in 0..got.rows() {
        for j in 0..got.cols() {
            prop_assert_eq!(
                got.at(i, j).to_bits(),
                want.at(i, j).to_bits(),
                "{} diverged at ({},{})",
                what,
                i,
                j
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Pack-time combination is bitwise identical to materializing the
    /// combined operands first, for every arity the inline stage handles,
    /// ragged shapes included, sequential and parallel.
    #[test]
    fn gemm_combined_matches_materialize_then_gemm(
        m in 1usize..40, k in 1usize..40, n in 1usize..40,
        arity_a in 1usize..5, arity_b in 1usize..5,
        threads in 1usize..4, seed in 0u64..1000
    ) {
        let a_srcs: Vec<Mat<f32>> = (0..arity_a)
            .map(|t| rand_mat(m, k, seed + t as u64, |x| x as f32))
            .collect();
        let b_srcs: Vec<Mat<f32>> = (0..arity_b)
            .map(|t| rand_mat(k, n, seed + 100 + t as u64, |x| x as f32))
            .collect();
        let ca = coeffs(arity_a, seed);
        let cb = coeffs(arity_b, seed + 5);
        let a_terms: Vec<(f32, MatRef<'_, f32>)> =
            ca.iter().zip(&a_srcs).map(|(&c, s)| (c, s.as_ref())).collect();
        let b_terms: Vec<(f32, MatRef<'_, f32>)> =
            cb.iter().zip(&b_srcs).map(|(&c, s)| (c, s.as_ref())).collect();
        let par = if threads > 1 { Par::Threads(threads) } else { Par::Seq };
        let alpha = 1.25f32;

        // Reference: materialize S and T, then plain gemm.
        let mut s = Mat::<f32>::zeros(m, k);
        let mut t = Mat::<f32>::zeros(k, n);
        combine_par(s.as_mut(), false, &a_terms, par);
        combine_par(t.as_mut(), false, &b_terms, par);
        let mut c_ref = rand_mat(m, n, seed + 300, |x| x as f32);
        gemm(alpha, s.as_ref(), t.as_ref(), 0.5f32, c_ref.as_mut(), par);

        // Fused: same terms straight into the pack sweep.
        let mut c_fused = rand_mat(m, n, seed + 300, |x| x as f32);
        gemm_combined(alpha, &a_terms, &b_terms, 0.5f32, c_fused.as_mut(), par);

        assert_bitwise_f32(&c_fused, &c_ref, "pack fusion")?;
    }

    /// `Auto` on the classical rule stays within the f64 rounding bound of
    /// the materialized combine path, across strategies, thread counts and
    /// ragged shapes (the catalog property below pins it bitwise).
    #[test]
    fn epilogue_fusion_within_ulp_bound_of_materialized(
        m in 2usize..48, k in 2usize..48, n in 2usize..48,
        threads in 1usize..5, seed in 0u64..1000
    ) {
        let a = rand_mat(m, k, seed, |x| x);
        let b = rand_mat(k, n, seed + 9, |x| x);
        let strategy = match seed % 3 {
            0 => Strategy::Seq,
            1 => Strategy::Dfs,
            _ => Strategy::Hybrid,
        };
        let base = ApaMatmul::new(catalog::classical(apa_core::Dims::new(2, 2, 2)))
            .strategy(strategy)
            .threads(threads);
        let fused = base.clone().fusion(FusionPolicy::Auto).multiply(a.as_ref(), b.as_ref());
        let mat = base.fusion(FusionPolicy::Never).multiply(a.as_ref(), b.as_ref());
        // (n_w + 1)·ε per element; 1e-13 is orders above that for n_w ≤ 4
        // in f64 while still catching any real reordering bug.
        let err = fused.rel_frobenius_error(&mat);
        prop_assert!(err < 1e-13, "classical Auto drifted from Never: {} ({strategy:?}, {threads}t)", err);
    }

    /// A transposed operand is a view the packers (fused combinations),
    /// `combine` (`Never`, CSE temps, recursion) and the peel/pad rims read
    /// in place: bini322 on `.t()` views of stored transposes is bitwise
    /// bini322 on the plain operands — under `Auto` and `Never`, with and
    /// without CSE (whose temps mix plain and transposed terms), one or two
    /// steps, divisible and peeled/padded shapes, cached and uncached.
    #[test]
    fn transposed_views_match_materialized_transposes(
        mult in 1usize..4, m_rim in 0usize..3, k_rim in 0usize..3, n_rim in 0usize..3,
        steps in 1u32..3, flags in 0u32..64, seed in 0u64..1000
    ) {
        let flag = |bit: u32| flags & (1 << bit) != 0;
        let (a_t, b_t, never, cse, pad, cached) =
            (flag(0), flag(1), flag(2), flag(3), flag(4), flag(5));
        // Multiples of bini322's ⟨3,2,2⟩ (and of its square at two steps)
        // plus a rim of 0..2 that the peel or the pad must handle.
        let d = if steps == 2 { (9, 4, 4) } else { (3, 2, 2) };
        let (m, k, n) = (d.0 * mult + m_rim, d.1 * mult * 3 + k_rim, d.2 * mult * 3 + n_rim);
        let a = rand_mat(m, k, seed, |x| x as f32);
        let b = rand_mat(k, n, seed + 7, |x| x as f32);
        let (a_st, b_st) = (a.as_ref().t().to_owned(), b.as_ref().t().to_owned());
        let av = if a_t { a_st.as_ref().t() } else { a.as_ref() };
        let bv = if b_t { b_st.as_ref().t() } else { b.as_ref() };
        let mm = ApaMatmul::new(catalog::bini322())
            .steps(steps)
            .cse(cse)
            .peel_mode(if pad { PeelMode::Pad } else { PeelMode::Dynamic })
            .fusion(if never { FusionPolicy::Never } else { FusionPolicy::Auto });
        // `cached` runs the transposed views on the workspace the plain
        // operands warmed; otherwise on a cold clone's fresh workspace.
        let mut want = Mat::<f32>::zeros(m, n);
        mm.multiply_into(a.as_ref(), b.as_ref(), want.as_mut());
        let mut got = Mat::<f32>::zeros(m, n);
        if cached {
            mm.multiply_into(av, bv, got.as_mut());
        } else {
            mm.clone().multiply_into(av, bv, got.as_mut());
        }
        assert_bitwise_f32(&got, &want, "transposed views vs plain operands")?;
    }

    /// Strassen under `Auto` and `Never` agrees bitwise — cached,
    /// uncached, any strategy, any shape, either peel mode.
    #[test]
    fn auto_is_bitwise_never_when_no_epilogue_fuses(
        m in 1usize..40, k in 1usize..40, n in 1usize..40,
        threads in 1usize..5, seed in 0u64..1000
    ) {
        let a = rand_mat(m, k, seed, |x| x);
        let b = rand_mat(k, n, seed + 11, |x| x);
        let strategy = match seed % 4 {
            0 => Strategy::Seq,
            1 => Strategy::Dfs,
            2 => Strategy::Bfs,
            _ => Strategy::Hybrid,
        };
        let peel = if seed % 2 == 0 { PeelMode::Dynamic } else { PeelMode::Pad };
        let base = ApaMatmul::new(catalog::strassen())
            .strategy(strategy)
            .threads(threads)
            .peel_mode(peel);
        let auto = base.clone().fusion(FusionPolicy::Auto).multiply(a.as_ref(), b.as_ref());
        let never = base.fusion(FusionPolicy::Never).multiply(a.as_ref(), b.as_ref());
        assert_bitwise_f64(&auto, &never, "Auto vs Never (strassen)")?;
    }

    /// `Auto` and `Never` agree bitwise on every catalog rule, one or two
    /// steps (one for the rank-1000 Bini cube), under every strategy at
    /// 1–4 threads, on plain or transposed operand views, on shapes that
    /// divide the rule or leave a rim for the Dynamic peel or the Pad
    /// mode. Auto's workspace is warmed first, so the checked call runs
    /// cached.
    #[test]
    fn auto_is_bitwise_never_across_catalog(
        mult in 0usize..3, m_rim in 0usize..3, k_rim in 0usize..3, n_rim in 0usize..3,
        two_steps in 0u32..2, strategy in 0usize..4, threads in 1usize..5,
        flags in 0u32..8, seed in 0u64..1000
    ) {
        let flag = |bit: u32| flags & (1 << bit) != 0;
        let (a_t, b_t, pad) = (flag(0), flag(1), flag(2));
        let strategy = [Strategy::Seq, Strategy::Dfs, Strategy::Bfs, Strategy::Hybrid][strategy];
        let peel = if pad { PeelMode::Pad } else { PeelMode::Dynamic };
        for alg in catalog::all() {
            let steps = if two_steps == 1 && alg.rank() <= 100 { 2 } else { 1 };
            let d = alg.dims;
            let dim = |base: usize, rim: usize| (base.pow(steps) * mult + rim).max(1);
            let (m, k, n) = (dim(d.m, m_rim), dim(d.k, k_rim), dim(d.n, n_rim));
            let a = rand_mat(m, k, seed, |x| x);
            let b = rand_mat(k, n, seed + 11, |x| x);
            let (a_st, b_st) = (a.as_ref().t().to_owned(), b.as_ref().t().to_owned());
            let av = if a_t { a_st.as_ref().t() } else { a.as_ref() };
            let bv = if b_t { b_st.as_ref().t() } else { b.as_ref() };
            let base = ApaMatmul::new(alg.clone())
                .steps(steps)
                .strategy(strategy)
                .threads(threads)
                .peel_mode(peel);
            let auto = base.clone().fusion(FusionPolicy::Auto);
            let _ = auto.multiply(av, bv);
            let got = auto.multiply(av, bv);
            let want = base.fusion(FusionPolicy::Never).multiply(av, bv);
            let what = format!(
                "{} steps={steps} {m}×{k}×{n} {strategy:?}/{threads}t {peel:?} a_t={a_t} b_t={b_t}",
                alg.name
            );
            assert_bitwise_f64(&got, &want, &what)?;
        }
    }
}
