//! 2D-parallel gemm contract (ISSUE 10): the cooperative-packing
//! multithreaded driver is **bitwise identical** to the single-threaded
//! blocked kernel — any operand arity from the unit list (a plain matrix)
//! to 4-term combinations, drawn independently per side, f32 and f64,
//! ragged shapes, any thread count, either side passed as the transposed
//! view (`MatRef::t`) of its stored transpose — and the sequential path
//! stays entirely outside the pool's claim machinery.
//!
//! The proptests force multi-cell grids with small explicit block sizes
//! (via the `parallel::hooks` test seam); the public entry points use the
//! same driver with the tuned blocking.

use apa_gemm::blocked::BlockSizes;
use apa_gemm::parallel::hooks;
use apa_gemm::{gemm, gemm_st, matmul_naive_f64, Mat, MatRef, Par, Scalar};
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

/// Tiny blocking that turns even 64×64 shapes into many MC×NC cells and
/// several KC slabs, exercising panel sharing, stealing and beta chaining.
const SMALL: BlockSizes = BlockSizes {
    mc: 24,
    kc: 16,
    nc: 24,
};

fn assert_bitwise<T: Scalar + Bits>(par: &Mat<T>, seq: &Mat<T>, ctx: &str) {
    for i in 0..seq.rows() {
        for j in 0..seq.cols() {
            assert!(
                par.at(i, j).to_bits_u64() == seq.at(i, j).to_bits_u64(),
                "{ctx}: C[{i},{j}] differs: {:?} vs {:?}",
                par.at(i, j),
                seq.at(i, j)
            );
        }
    }
}

/// Bit-pattern access without requiring new Scalar API in the test.
trait Bits: Copy {
    fn to_bits_u64(self) -> u64;
}
impl Bits for f32 {
    fn to_bits_u64(self) -> u64 {
        self.to_bits() as u64
    }
}
impl Bits for f64 {
    fn to_bits_u64(self) -> u64 {
        self.to_bits()
    }
}

/// Term coefficients by position; a list of arity 1 is the unit list.
const A_COEFFS: [f64; 4] = [1.0, -0.25, 0.125, 2.0];
const B_COEFFS: [f64; 4] = [1.0, 2.0, -1.5, 0.5];

fn sources<T: Scalar>(rows: usize, cols: usize, arity: usize, seed: u64) -> Vec<Mat<T>> {
    (0..arity as u64)
        .map(|t| rand_mat(rows, cols, seed ^ (0x11 * t)))
        .collect()
}

fn terms<'a, T: Scalar>(coeffs: &[f64; 4], srcs: &'a [Mat<T>]) -> Vec<(T, MatRef<'a, T>)> {
    srcs.iter()
        .zip(coeffs)
        .map(|(s, &c)| (T::from_f64(c), s.as_ref()))
        .collect()
}

/// The same sources stored transposed, to be passed as [`t_terms`] views.
fn stored_t<T: Scalar>(srcs: &[Mat<T>]) -> Vec<Mat<T>> {
    srcs.iter().map(|s| s.as_ref().t().to_owned()).collect()
}

/// [`terms`] over stored transposes, as `.t()` views: the same operand.
fn t_terms<'a, T: Scalar>(coeffs: &[f64; 4], stored: &'a [Mat<T>]) -> Vec<(T, MatRef<'a, T>)> {
    stored
        .iter()
        .zip(coeffs)
        .map(|(s, &c)| (T::from_f64(c), s.as_ref().t()))
        .collect()
}

/// The unit list of a plain operand.
fn unit<T: Scalar>(m: &Mat<T>) -> [(T, MatRef<'_, T>); 1] {
    [(T::ONE, m.as_ref())]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(60))]

    #[test]
    fn f32_parallel_is_bitwise_st(
        m in 1usize..90, k in 1usize..90, n in 1usize..90,
        a_arity in 1usize..=4, b_arity in 1usize..=4,
        threads in 1usize..=8, seed in 0u64..1_000, orient in 0usize..4
    ) {
        let (a_t, b_t) = (orient & 1 != 0, orient & 2 != 0);
        let a_srcs = sources::<f32>(m, k, a_arity, seed);
        let b_srcs = sources::<f32>(k, n, b_arity, seed ^ 0xABCD);
        let (a_terms, b_terms) = (terms(&A_COEFFS, &a_srcs), terms(&B_COEFFS, &b_srcs));
        let (a_st, b_st) = (stored_t(&a_srcs), stored_t(&b_srcs));
        let a_side = if a_t { t_terms(&A_COEFFS, &a_st) } else { a_terms.clone() };
        let b_side = if b_t { t_terms(&B_COEFFS, &b_st) } else { b_terms.clone() };
        let c0 = rand_mat::<f32>(m, n, seed ^ 0x1234);
        let (mut seq, mut par) = (c0.clone(), c0.clone());
        hooks::gemm_st_with_blocks(1.5f32, &a_terms, &b_terms, -0.5, seq.as_mut(), SMALL);
        hooks::gemm_2d_with_blocks(1.5f32, &a_side, &b_side, -0.5, par.as_mut(), threads, SMALL)
            .unwrap();
        for i in 0..m {
            for j in 0..n {
                prop_assert_eq!(par.at(i, j).to_bits(), seq.at(i, j).to_bits(),
                    "({},{},{}) arity {}x{} t={} Aᵀ={} Bᵀ={} C[{},{}]",
                    m, k, n, a_arity, b_arity, threads, a_t, b_t, i, j);
            }
        }
    }

    #[test]
    fn f64_parallel_is_bitwise_st(
        m in 1usize..70, k in 1usize..70, n in 1usize..70,
        a_arity in 1usize..=4, b_arity in 1usize..=4,
        threads in 1usize..=8, seed in 0u64..1_000, orient in 0usize..4
    ) {
        let (a_t, b_t) = (orient & 1 != 0, orient & 2 != 0);
        let a_srcs = sources::<f64>(m, k, a_arity, seed);
        let b_srcs = sources::<f64>(k, n, b_arity, seed ^ 0xBEEF);
        let (a_terms, b_terms) = (terms(&A_COEFFS, &a_srcs), terms(&B_COEFFS, &b_srcs));
        let (a_st, b_st) = (stored_t(&a_srcs), stored_t(&b_srcs));
        let a_side = if a_t { t_terms(&A_COEFFS, &a_st) } else { a_terms.clone() };
        let b_side = if b_t { t_terms(&B_COEFFS, &b_st) } else { b_terms.clone() };
        let (mut seq, mut par) = (Mat::<f64>::zeros(m, n), Mat::<f64>::zeros(m, n));
        hooks::gemm_st_with_blocks(2.0f64, &a_terms, &b_terms, 0.0, seq.as_mut(), SMALL);
        hooks::gemm_2d_with_blocks(2.0f64, &a_side, &b_side, 0.0, par.as_mut(), threads, SMALL)
            .unwrap();
        for i in 0..m {
            for j in 0..n {
                prop_assert_eq!(par.at(i, j).to_bits(), seq.at(i, j).to_bits(),
                    "({},{},{}) arity {}x{} t={} Aᵀ={} Bᵀ={} C[{},{}]",
                    m, k, n, a_arity, b_arity, threads, a_t, b_t, i, j);
            }
        }
    }
}

#[test]
fn public_entry_points_are_bitwise_across_thread_counts() {
    // The tuned-blocking public path: every thread count produces the
    // byte-identical result of the sequential call.
    let a = rand_mat::<f32>(130, 75, 9);
    let b = rand_mat::<f32>(75, 110, 10);
    let mut seq = Mat::<f32>::zeros(130, 110);
    gemm_st(1.0, a.as_ref(), b.as_ref(), 0.0, seq.as_mut());
    // Xᵀ·B and A·Wᵀ shapes: the transposed views of stored transposes.
    let (at, bt) = (a.as_ref().t().to_owned(), b.as_ref().t().to_owned());
    for threads in 1usize..=8 {
        for (av, bv, tag) in [
            (a.as_ref(), b.as_ref(), ""),
            (at.as_ref().t(), b.as_ref(), " Aᵀ"),
            (a.as_ref(), bt.as_ref().t(), " Bᵀ"),
            (at.as_ref().t(), bt.as_ref().t(), " AᵀBᵀ"),
        ] {
            let mut par = Mat::<f32>::zeros(130, 110);
            gemm(1.0, av, bv, 0.0, par.as_mut(), Par::Threads(threads));
            assert_bitwise(&par, &seq, &format!("threads={threads}{tag}"));
        }
    }
}

#[test]
fn parallel_result_is_numerically_correct() {
    // Bitwise-equal to ST is the strong contract; anchor ST itself to the
    // f64 oracle so the pair can't be "equal but wrong".
    let a = rand_mat::<f32>(64, 48, 21);
    let b = rand_mat::<f32>(48, 57, 22);
    let mut par = Mat::<f32>::zeros(64, 57);
    hooks::gemm_2d_with_blocks(1.0f32, &unit(&a), &unit(&b), 0.0, par.as_mut(), 4, SMALL).unwrap();
    let oracle = matmul_naive_f64(a.as_ref(), b.as_ref());
    let mut err: f64 = 0.0;
    for i in 0..64 {
        for j in 0..57 {
            err = err.max((par.at(i, j) as f64 - oracle.at(i, j)).abs());
        }
    }
    assert!(err < 1e-4, "max abs error {err}");
}

#[test]
fn seq_path_touches_no_claim_machinery() {
    // ISSUE 10 satellite: a `Par::Seq` (or degenerate `Threads(1)`) call
    // must never route through the arena/queue claim protocol. The
    // thread-local op counter ticks on every arena build, panel claim and
    // queue pop — it must not move.
    let a = rand_mat::<f32>(96, 64, 31);
    let b = rand_mat::<f32>(64, 80, 32);
    let mut c = Mat::<f32>::zeros(96, 80);
    gemm(1.0, a.as_ref(), b.as_ref(), 0.0, c.as_mut(), Par::Seq); // warm pools/blocks
    let before = apa_gemm::parallel::thread_par_ops();
    for par in [Par::Seq, Par::Threads(1), Par::Threads(0)] {
        gemm(1.0, a.as_ref(), b.as_ref(), 0.5, c.as_mut(), par);
    }
    assert_eq!(
        apa_gemm::parallel::thread_par_ops(),
        before,
        "sequential path performed parallel claim ops"
    );
}

#[test]
fn stats_show_cooperative_packing_once_per_slab() {
    // 64×64×64 with kc=16, nc=24 → 4 slabs × 3 jc blocks = 12 panels;
    // they must be packed exactly once each no matter how many workers
    // race, and reuse accounts for the rest of the touches.
    let a = rand_mat::<f32>(64, 64, 41);
    let b = rand_mat::<f32>(64, 64, 42);
    let mut c = Mat::<f32>::zeros(64, 64);
    let stats = hooks::gemm_2d_with_blocks(1.0f32, &unit(&a), &unit(&b), 0.0, c.as_mut(), 4, SMALL)
        .unwrap();
    let slabs = 64usize.div_ceil(SMALL.kc);
    let jc_blocks = 64usize.div_ceil(SMALL.nc);
    assert_eq!(stats.panels_packed, (slabs * jc_blocks) as u64);
    // Every (cell, slab) touch is either the one pack or a reuse.
    let cells = 64usize.div_ceil(SMALL.mc) * jc_blocks;
    assert_eq!(
        stats.panels_packed + stats.panels_reused,
        (cells * slabs) as u64
    );
}
