//! ABFT behavior at the gemm layer: fault-free transparency (bitwise
//! identity and zero detections), and — under `--features fault-inject` —
//! detection plus bitwise-exact in-place repair of injected single-bit
//! flips in the packed panels and the output tiles — with each operand
//! plain and as the transposed view (`MatRef::t`) of its stored transpose.
//!
//! Sessions are process-global, so every test serializes on one mutex.

use apa_gemm::abft;
#[cfg(feature = "fault-inject")]
use apa_gemm::AbftConfig;
use apa_gemm::{
    available_tiers, gemm_combined_st, gemm_st, spec_for_tier, AbftSession, Mat, Scalar,
};
use std::sync::{Arc, Mutex, OnceLock};

fn lock() -> std::sync::MutexGuard<'static, ()> {
    static M: OnceLock<Mutex<()>> = OnceLock::new();
    M.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|p| p.into_inner())
}

fn rand_mat<T: Scalar>(rows: usize, cols: usize, seed: u64) -> Mat<T> {
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
    Mat::from_fn(rows, cols, |_, _| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        T::from_f64(((state >> 32) as u32 as f64 / (1u64 << 31) as f64) - 1.0)
    })
}

/// Transposed storage of `m`: pass `.as_ref().t()` for the same operand.
fn stored_t<T: Scalar>(m: &Mat<T>) -> Mat<T> {
    m.as_ref().t().to_owned()
}

fn assert_bitwise_eq<T: Scalar>(got: &Mat<T>, want: &Mat<T>, ctx: &str) {
    for i in 0..want.rows() {
        for j in 0..want.cols() {
            assert_eq!(
                got.at(i, j).to_f64().to_bits(),
                want.at(i, j).to_f64().to_bits(),
                "{ctx}: mismatch at ({i},{j}): {} vs {}",
                got.at(i, j),
                want.at(i, j),
            );
        }
    }
}

/// Plain gemm (each side plain or transposed), then the fused-operand
/// path with a 2-term A list against a B list of each arity in
/// `b_arities` (both sides plain, then both transposed): checked ≡
/// unchecked plain bitwise, zero detections.
fn check_fault_free_identity<T: Scalar>(
    m: usize,
    k: usize,
    n: usize,
    beta: T,
    b_arities: &[usize],
) {
    let a = rand_mat::<T>(m, k, 11);
    let b = rand_mat::<T>(k, n, 12);
    let c0 = rand_mat::<T>(m, n, 13);

    let mut plain = c0.clone();
    gemm_st(
        T::from_f64(1.25),
        a.as_ref(),
        b.as_ref(),
        beta,
        plain.as_mut(),
    );

    let (at, bt) = (stored_t(&a), stored_t(&b));
    for (av, bv, tag) in [
        (a.as_ref(), b.as_ref(), ""),
        (at.as_ref().t(), b.as_ref(), " Aᵀ"),
        (a.as_ref(), bt.as_ref().t(), " Bᵀ"),
        (at.as_ref().t(), bt.as_ref().t(), " AᵀBᵀ"),
    ] {
        let session = Arc::new(AbftSession::default());
        let mut checked = c0.clone();
        {
            let _g = abft::scoped(session.clone());
            gemm_st(T::from_f64(1.25), av, bv, beta, checked.as_mut());
        }
        assert_bitwise_eq(&checked, &plain, &format!("plain ({m},{k},{n}){tag}"));

        let counts = session.stats.snapshot();
        assert!(counts.checks > 0, "no checks ran ({m},{k},{n}){tag}");
        assert_eq!(counts.detected, 0, "false positive ({m},{k},{n}){tag}");
        assert_eq!(counts.repaired + counts.unrepaired, 0);
    }

    let a2 = rand_mat::<T>(m, k, 21);
    let (a_st, a2_st) = (stored_t(&a), stored_t(&a2));
    let a_coeffs = [T::from_f64(0.5), T::from_f64(-1.5)];
    let a_terms = [(a_coeffs[0], a.as_ref()), (a_coeffs[1], a2.as_ref())];
    let a_terms_t = [
        (a_coeffs[0], a_st.as_ref().t()),
        (a_coeffs[1], a2_st.as_ref().t()),
    ];
    for &arity in b_arities {
        let b_srcs: Vec<Mat<T>> = (0..arity as u64).map(|t| rand_mat(k, n, 22 + t)).collect();
        let b_st: Vec<Mat<T>> = b_srcs.iter().map(stored_t).collect();
        let b_coeff = |t: usize| T::from_f64([2.0, 0.25, -0.75][t % 3]);
        let b_terms: Vec<_> = b_srcs
            .iter()
            .enumerate()
            .map(|(t, s)| (b_coeff(t), s.as_ref()))
            .collect();
        let b_terms_t: Vec<_> = b_st
            .iter()
            .enumerate()
            .map(|(t, s)| (b_coeff(t), s.as_ref().t()))
            .collect();
        let mut plain_f = c0.clone();
        gemm_combined_st(T::ONE, &a_terms, &b_terms, beta, plain_f.as_mut());
        for (a_side, b_side, tag) in [
            (&a_terms[..], &b_terms[..], ""),
            (&a_terms_t[..], &b_terms_t[..], " AᵀBᵀ"),
        ] {
            let session_f = Arc::new(AbftSession::default());
            let mut checked_f = c0.clone();
            {
                let _g = abft::scoped(session_f.clone());
                gemm_combined_st(T::ONE, a_side, b_side, beta, checked_f.as_mut());
            }
            let ctx = format!("fused ({m},{k},{n}) B arity {arity}{tag}");
            assert_bitwise_eq(&checked_f, &plain_f, &ctx);
            let counts_f = session_f.stats.snapshot();
            assert!(counts_f.checks > 0, "{ctx}");
            assert_eq!(counts_f.detected, 0, "false positive: {ctx}");
        }
    }
}

#[test]
fn fault_free_abft_is_bitwise_transparent() {
    let _g = lock();
    for &(m, k, n) in &[
        (1, 1, 1),
        (7, 9, 5),
        (64, 64, 64),
        (129, 257, 63),
        (150, 40, 130),
    ] {
        // B lists of 32 terms fill the AVX2 checksum stage of the B
        // packer; 33 spill to its portable sweep.
        check_fault_free_identity::<f32>(m, k, n, 0.0, &[2, 32, 33]);
        check_fault_free_identity::<f32>(m, k, n, -0.75, &[2]);
        check_fault_free_identity::<f64>(m, k, n, 0.0, &[2, 32, 33]);
        check_fault_free_identity::<f64>(m, k, n, 0.5, &[2]);
    }
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(16))]

    /// Property form of the transparency contract: on arbitrary ragged
    /// shapes (both precisions, plain and fused paths via the shared
    /// checker), a checked gemm is bit-for-bit the unchecked gemm and the
    /// checksum tier reports zero detections.
    #[test]
    fn fault_free_identity_on_random_ragged_shapes(
        m in 1usize..120, k in 1usize..120, n in 1usize..120, beta_sel in 0usize..3
    ) {
        let _g = lock();
        let beta = [0.0f64, 0.5, -1.25][beta_sel];
        check_fault_free_identity::<f32>(m, k, n, beta as f32, &[2]);
        check_fault_free_identity::<f64>(m, k, n, beta, &[2]);
    }
}

#[test]
fn fault_free_across_forced_tiers() {
    let _g = lock();
    let (m, k, n) = (70, 85, 60);
    let a = rand_mat::<f32>(m, k, 31);
    let b = rand_mat::<f32>(k, n, 32);
    for tier in available_tiers() {
        let Some(spec) = spec_for_tier::<f32>(*tier) else {
            continue;
        };
        let mut plain = Mat::<f32>::zeros(m, n);
        let mut scratch = apa_gemm::Scratch::new();
        apa_gemm::gemm_st_with_spec(
            &spec,
            1.0,
            a.as_ref(),
            b.as_ref(),
            0.0,
            plain.as_mut(),
            &mut scratch,
        );
        let session = Arc::new(AbftSession::default());
        let mut checked = Mat::<f32>::zeros(m, n);
        {
            let _s = abft::scoped(session.clone());
            apa_gemm::gemm_st_with_spec(
                &spec,
                1.0,
                a.as_ref(),
                b.as_ref(),
                0.0,
                checked.as_mut(),
                &mut scratch,
            );
        }
        assert_bitwise_eq(&checked, &plain, &format!("tier {tier:?}"));
        assert_eq!(session.stats.snapshot().detected, 0, "tier {tier:?}");
    }
}

#[test]
fn scratch_grows_only_across_checked_calls() {
    let _g = lock();
    let session = Arc::new(AbftSession::default());
    let _s = abft::scoped(session);
    let a = rand_mat::<f32>(96, 80, 41);
    let b = rand_mat::<f32>(80, 72, 42);
    let mut c = Mat::<f32>::zeros(96, 72);
    let mut scratch = apa_gemm::Scratch::new();
    let spec = apa_gemm::kernel_spec::<f32>();
    let (a, b) = (a.as_ref(), b.as_ref());
    apa_gemm::gemm_st_with_spec(&spec, 1.0, a, b, 1.0, c.as_mut(), &mut scratch);
    let bytes = scratch.capacity_bytes();
    for _ in 0..4 {
        apa_gemm::gemm_st_with_spec(&spec, 1.0, a, b, 1.0, c.as_mut(), &mut scratch);
    }
    assert_eq!(
        scratch.capacity_bytes(),
        bytes,
        "checked steady state must not grow scratch"
    );
}

#[cfg(feature = "fault-inject")]
mod injected {
    use super::*;
    use apa_gemm::abft::sdc::{self, FlipSpec, FlipTarget};

    /// Run one plain gemm with a flip armed at (`target`, `index`, `bit`)
    /// and assert it is detected and repaired bitwise-exactly — once on
    /// plain operands, once on transposed views of stored transposes
    /// (the packed panels are the same, so is the flipped element).
    fn drill_plain<T: Scalar>(
        m: usize,
        k: usize,
        n: usize,
        beta: T,
        target: FlipTarget,
        index: usize,
        bit: u32,
    ) {
        let a = rand_mat::<T>(m, k, 51);
        let b = rand_mat::<T>(k, n, 52);
        let c0 = rand_mat::<T>(m, n, 53);

        let mut want = c0.clone();
        gemm_st(
            T::from_f64(1.5),
            a.as_ref(),
            b.as_ref(),
            beta,
            want.as_mut(),
        );

        let (at, bt) = (stored_t(&a), stored_t(&b));
        for (av, bv, tag) in [
            (a.as_ref(), b.as_ref(), ""),
            (at.as_ref().t(), bt.as_ref().t(), " AᵀBᵀ"),
        ] {
            let session = Arc::new(AbftSession::default());
            let mut got = c0.clone();
            let fired_before = sdc::injected();
            {
                let _s = abft::scoped(session.clone());
                sdc::arm(FlipSpec { target, index, bit });
                gemm_st(T::from_f64(1.5), av, bv, beta, got.as_mut());
            }
            sdc::disarm();
            assert_eq!(sdc::injected(), fired_before + 1, "flip did not fire");
            let counts = session.stats.snapshot();
            let ctx = format!("{target:?} idx {index} bit {bit} ({m},{k},{n}){tag}");
            assert!(counts.detected > 0, "undetected: {ctx}");
            assert!(counts.repaired > 0, "unrepaired: {ctx}");
            assert_eq!(counts.unrepaired, 0, "repair failed: {ctx}");
            assert_bitwise_eq(&got, &want, &ctx);
        }
    }

    #[test]
    fn exponent_flips_detected_and_repaired_all_targets() {
        let _g = lock();
        // Exponent MSB: f32 bit 30, f64 bit 62 — the canonical
        // high-impact SDC. Swept over targets, indices and shapes
        // (single-block, multi-block, ragged edges).
        for &(m, k, n) in &[(33, 47, 29), (129, 257, 63), (150, 300, 90)] {
            for target in [FlipTarget::PackA, FlipTarget::PackB, FlipTarget::Output] {
                for index in [0usize, 7, 1234] {
                    drill_plain::<f32>(m, k, n, 0.0, target, index, 30);
                    drill_plain::<f64>(m, k, n, 0.0, target, index, 62);
                }
            }
        }
    }

    #[test]
    fn flips_repaired_with_nonzero_beta() {
        let _g = lock();
        for target in [FlipTarget::PackA, FlipTarget::PackB, FlipTarget::Output] {
            drill_plain::<f32>(96, 120, 80, -0.5, target, 17, 30);
            drill_plain::<f64>(96, 120, 80, 1.0, target, 17, 62);
        }
    }

    #[test]
    fn sign_flips_detected_on_moderate_blocks() {
        let _g = lock();
        // Sign flips shift one element by 2|v| — detectable whenever the
        // element is not deep in the roundoff floor.
        for target in [FlipTarget::PackA, FlipTarget::PackB, FlipTarget::Output] {
            drill_plain::<f32>(48, 56, 40, 0.0, target, 5, 31);
            drill_plain::<f64>(48, 56, 40, 0.0, target, 5, 63);
        }
    }

    #[test]
    fn fused_path_flips_detected_and_repaired() {
        let _g = lock();
        let (m, k, n) = (90, 110, 70);
        let a1 = rand_mat::<f32>(m, k, 61);
        let a2 = rand_mat::<f32>(m, k, 62);
        let b1 = rand_mat::<f32>(k, n, 63);
        let b2 = rand_mat::<f32>(k, n, 64);
        let a_terms = [(0.75f32, a1.as_ref()), (-1.25f32, a2.as_ref())];
        let b_terms = [(1.5f32, b1.as_ref()), (0.5f32, b2.as_ref())];
        let st = [&a1, &a2, &b1, &b2].map(stored_t);
        let a_terms_t = [
            (0.75f32, st[0].as_ref().t()),
            (-1.25f32, st[1].as_ref().t()),
        ];
        let b_terms_t = [(1.5f32, st[2].as_ref().t()), (0.5f32, st[3].as_ref().t())];
        let mut want = Mat::<f32>::zeros(m, n);
        gemm_combined_st(1.0, &a_terms, &b_terms, 0.0, want.as_mut());
        for (a_side, b_side, tag) in [(&a_terms, &b_terms, ""), (&a_terms_t, &b_terms_t, " AᵀBᵀ")]
        {
            for target in [FlipTarget::PackA, FlipTarget::PackB, FlipTarget::Output] {
                let session = Arc::new(AbftSession::default());
                let mut got = Mat::<f32>::zeros(m, n);
                {
                    let _s = abft::scoped(session.clone());
                    sdc::arm(FlipSpec {
                        target,
                        index: 42,
                        bit: 30,
                    });
                    gemm_combined_st(1.0, a_side, b_side, 0.0, got.as_mut());
                }
                sdc::disarm();
                let counts = session.stats.snapshot();
                assert!(counts.detected > 0, "fused undetected: {target:?}{tag}");
                assert!(
                    counts.repaired > 0 && counts.unrepaired == 0,
                    "{target:?}{tag}"
                );
                assert_bitwise_eq(&got, &want, &format!("fused {target:?}{tag}"));
            }
        }
    }

    #[test]
    fn repair_disabled_detects_but_leaves_corruption() {
        let _g = lock();
        let (m, k, n) = (64, 64, 64);
        let a = rand_mat::<f32>(m, k, 71);
        let b = rand_mat::<f32>(k, n, 72);
        let mut want = Mat::<f32>::zeros(m, n);
        gemm_st(1.0, a.as_ref(), b.as_ref(), 0.0, want.as_mut());
        let session = Arc::new(AbftSession::new(AbftConfig {
            repair: false,
            ..AbftConfig::default()
        }));
        let mut got = Mat::<f32>::zeros(m, n);
        {
            let _s = abft::scoped(session.clone());
            sdc::arm(FlipSpec {
                target: FlipTarget::Output,
                index: 100,
                bit: 30,
            });
            gemm_st(1.0, a.as_ref(), b.as_ref(), 0.0, got.as_mut());
        }
        sdc::disarm();
        let counts = session.stats.snapshot();
        assert!(counts.detected > 0);
        assert_eq!(counts.repaired, 0);
        let differs = (0..m).any(|i| (0..n).any(|j| got.at(i, j) != want.at(i, j)));
        assert!(differs, "corruption should remain without repair");
    }

    #[test]
    fn unarmed_runs_see_no_injection() {
        let _g = lock();
        let before = sdc::injected();
        let a = rand_mat::<f32>(20, 20, 81);
        let b = rand_mat::<f32>(20, 20, 82);
        let mut c = Mat::<f32>::zeros(20, 20);
        gemm_st(1.0, a.as_ref(), b.as_ref(), 0.0, c.as_mut());
        assert_eq!(sdc::injected(), before);
    }
}
