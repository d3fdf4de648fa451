//! Dispatch matrix: every SIMD tier the host exposes must agree
//! **bitwise** with the portable scalar tier, for both element types,
//! both β classes, and every operand arity from the unit list `[(1, x)]`
//! (a plain matrix, packed by the copy sweeps) to 4-term combinations —
//! drawn independently for A and B — across ragged shapes that exercise
//! full tiles, edge tiles and single-row/column slivers of every tier's
//! MR×NR geometry — and every operand orientation: each side is passed
//! either plain or as the transposed view (`MatRef::t`) of its stored
//! transpose, which must pack to the very same panels.
//!
//! Bitwise (not tolerance-based) agreement is the contract that makes
//! runtime dispatch invisible: results must not depend on which CPU the
//! binary landed on. The kernels uphold it by running the same FMA chain
//! per C element in every tier; this suite is the fence around that
//! property.

use apa_gemm::{
    available_tiers, gemm_combined_st_with_spec, gemm_st_with_spec, spec_for_tier, KernelTier, Mat,
    MatRef, Scalar, Scratch,
};

/// Ragged (m, n, k) triples: smaller than one tile, exactly one tile,
/// edge-remainder and multi-block shapes for every tier's MR/NR
/// (scalar 8×8 / 4×8, AVX2 6×16 / 6×8, AVX-512 14×32 / 14×16).
const SHAPES: [(usize, usize, usize); 12] = [
    (1, 1, 1),
    (1, 33, 5),
    (3, 5, 7),
    (6, 16, 17),
    (8, 8, 8),
    (13, 17, 19),
    (14, 32, 33),
    (15, 33, 31),
    (16, 48, 48),
    (31, 29, 40),
    (97, 65, 33),
    (130, 70, 129),
];

/// Term coefficients by position; a list of arity 1 is the unit list.
const A_COEFFS: [f64; 4] = [1.0, -0.5, 0.25, 2.0];
const B_COEFFS: [f64; 4] = [1.0, 2.0, -1.5, 0.125];

/// The first `arity` terms over `srcs`, each source passed as the `.t()`
/// view of its stored transpose when `t_view`.
fn terms<'a, T: Scalar>(
    coeffs: &[f64; 4],
    srcs: &'a [Mat<T>],
    arity: usize,
    t_view: bool,
) -> Vec<(T, MatRef<'a, T>)> {
    (0..arity)
        .map(|t| {
            let v = if t_view {
                srcs[t].as_ref().t()
            } else {
                srcs[t].as_ref()
            };
            (T::from_f64(coeffs[t]), v)
        })
        .collect()
}

macro_rules! dispatch_matrix_for {
    ($ty:ty, $name:ident) => {
        #[test]
        fn $name() {
            let scalar = spec_for_tier::<$ty>(KernelTier::Scalar).unwrap();
            let mut scratch = Scratch::new();
            for &tier in available_tiers() {
                let Some(spec) = spec_for_tier::<$ty>(tier) else {
                    panic!("available tier {tier:?} has no {} spec", stringify!($ty));
                };
                for &(m, n, k) in &SHAPES {
                    let a_srcs: Vec<Mat<$ty>> = (0..4)
                        .map(|s| {
                            Mat::from_fn(m, k, |i, j| {
                                ((i * (7 + s) + j * 3) % (23 - 2 * s)) as $ty * 0.11 - 1.2
                            })
                        })
                        .collect();
                    let b_srcs: Vec<Mat<$ty>> = (0..4)
                        .map(|s| {
                            Mat::from_fn(k, n, |i, j| {
                                ((i * 5 + j * (1 + s)) % (19 - 2 * s)) as $ty * 0.07 - 0.6
                            })
                        })
                        .collect();
                    // The same operands stored transposed, passed as `.t()` views.
                    let stored_t = |srcs: &[Mat<$ty>]| -> Vec<Mat<$ty>> {
                        srcs.iter().map(|s| s.as_ref().t().to_owned()).collect()
                    };
                    let (a_stored_t, b_stored_t) = (stored_t(&a_srcs), stored_t(&b_srcs));
                    let init = Mat::<$ty>::from_fn(m, n, |i, j| ((i + j) % 9) as $ty * 0.3 - 1.0);
                    for (a_arity, b_arity) in (1..=4).flat_map(|x| (1..=4).map(move |y| (x, y))) {
                        let a_terms = terms(&A_COEFFS, &a_srcs, a_arity, false);
                        let b_terms = terms(&B_COEFFS, &b_srcs, b_arity, false);
                        for beta in [0.0 as $ty, 1.0] {
                            let mut want = init.clone();
                            gemm_combined_st_with_spec(
                                &scalar,
                                1.25,
                                &a_terms,
                                &b_terms,
                                beta,
                                want.as_mut(),
                                &mut scratch,
                            );
                            for (a_t, b_t) in
                                [(false, false), (true, false), (false, true), (true, true)]
                            {
                                let a_side = if a_t {
                                    terms(&A_COEFFS, &a_stored_t, a_arity, true)
                                } else {
                                    a_terms.clone()
                                };
                                let b_side = if b_t {
                                    terms(&B_COEFFS, &b_stored_t, b_arity, true)
                                } else {
                                    b_terms.clone()
                                };
                                let mut got = init.clone();
                                gemm_combined_st_with_spec(
                                    &spec,
                                    1.25,
                                    &a_side,
                                    &b_side,
                                    beta,
                                    got.as_mut(),
                                    &mut scratch,
                                );
                                for (g, w) in got.as_slice().iter().zip(want.as_slice()) {
                                    assert_eq!(
                                        g.to_bits(),
                                        w.to_bits(),
                                        "tier {tier:?} diverges from scalar at ({m},{n},{k}) \
                                         arity {a_arity}x{b_arity} β={beta} A{} B{}",
                                        if a_t { "ᵀ" } else { "" },
                                        if b_t { "ᵀ" } else { "" },
                                    );
                                }
                            }
                        }
                    }
                }
            }
        }
    };
}

dispatch_matrix_for!(f32, tiers_agree_bitwise_f32);
dispatch_matrix_for!(f64, tiers_agree_bitwise_f64);

/// The scalar tier is always present and always first, so the suite above
/// is never vacuous — on a machine with no SIMD it still pins the scalar
/// path against itself and the naive reference below.
#[test]
fn scalar_tier_always_available() {
    let tiers = available_tiers();
    assert_eq!(tiers.first(), Some(&KernelTier::Scalar));
}

/// Anchor the whole matrix to ground truth: the scalar tier must match a
/// naive triple loop to tight tolerance (bitwise equality between tiers
/// would otherwise allow all tiers to be identically wrong).
#[test]
fn scalar_tier_matches_naive_reference() {
    let scalar = spec_for_tier::<f64>(KernelTier::Scalar).unwrap();
    let mut scratch = Scratch::new();
    for &(m, n, k) in &SHAPES {
        let a = Mat::<f64>::from_fn(m, k, |i, j| ((i * 7 + j * 3) % 23) as f64 * 0.11 - 1.2);
        let b = Mat::<f64>::from_fn(k, n, |i, j| ((i * 5 + j) % 19) as f64 * 0.07 - 0.6);
        let mut got = Mat::<f64>::zeros(m, n);
        gemm_st_with_spec(
            &scalar,
            1.0,
            a.as_ref(),
            b.as_ref(),
            0.0,
            got.as_mut(),
            &mut scratch,
        );
        let want = apa_gemm::matmul_naive(a.as_ref(), b.as_ref());
        for i in 0..m {
            for j in 0..n {
                assert!(
                    (got.at(i, j) - want.at(i, j)).abs() <= 1e-12 * k as f64,
                    "scalar tier wrong at ({i},{j}) for shape ({m},{n},{k})"
                );
            }
        }
    }
}
