//! Arbitrary-dimension handling: dynamic peeling and zero padding.
//!
//! A one-step rule ⟨m,k,n⟩ needs its operands divisible by (m, k, n).
//! Two standard remedies, both implemented so the ablation bench can
//! compare them:
//!
//! * **dynamic peeling** — round each dimension *down* to a multiple, run
//!   the fast rule on the core, and finish the thin rims with classical
//!   gemm. No copies of the operands, extra work `O(n²·base)`.
//! * **zero padding** — round each dimension *up*, copy into padded
//!   buffers, run the fast rule, copy the result back. Simpler arithmetic
//!   but three buffer copies and wasted flops on the border.
//!
//! Each entry point comes in two flavors: the plain one allocates its
//! buffers per call, the `*_ws` one executes out of a caller-owned
//! [`Workspace`] (core buffer tree *and* pad buffers) so warm calls touch
//! the heap not at all. Both run the same engine and produce bitwise
//! identical results.

use crate::exec::{run_level, with_uniform_chain};
use crate::plan::ExecPlan;
use crate::schedule::{FusionPolicy, Strategy};
use crate::workspace::{chain_divisor, PadBufs, Workspace};
use apa_gemm::{gemm, MatMut, MatRef, Par, Scalar};
use serde::Serialize;
use std::borrow::Borrow;

/// How to reconcile arbitrary dimensions with the rule's base dims.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub enum PeelMode {
    /// Core via the fast rule, rims via classical gemm.
    Dynamic,
    /// Pad operands up to the next multiple with zeros.
    Pad,
}

/// `C ← Â·B̂` for arbitrary shapes.
#[allow(clippy::too_many_arguments)]
pub fn fast_matmul_any_into<T: Scalar>(
    plan: &ExecPlan,
    a: MatRef<'_, T>,
    b: MatRef<'_, T>,
    c: MatMut<'_, T>,
    steps: u32,
    strategy: Strategy,
    threads: usize,
    mode: PeelMode,
    fusion: FusionPolicy,
) {
    // steps = 0 yields an empty chain, i.e. plain gemm.
    with_uniform_chain(plan, steps, |chain| {
        fast_matmul_chain_any_into(chain, a, b, c, strategy, threads, mode, fusion)
    })
}

/// [`fast_matmul_any_into`] executing out of a preallocated [`Workspace`]
/// built by [`Workspace::for_plan`] for the same configuration.
#[allow(clippy::too_many_arguments)]
pub fn fast_matmul_any_into_ws<T: Scalar>(
    plan: &ExecPlan,
    a: MatRef<'_, T>,
    b: MatRef<'_, T>,
    c: MatMut<'_, T>,
    steps: u32,
    strategy: Strategy,
    threads: usize,
    mode: PeelMode,
    fusion: FusionPolicy,
    ws: &mut Workspace<T>,
) {
    with_uniform_chain(plan, steps, |chain| {
        fast_matmul_chain_any_into_ws(chain, a, b, c, strategy, threads, mode, fusion, ws)
    })
}

/// Non-stationary variant of [`fast_matmul_any_into`]: arbitrary shapes
/// with a chain of rules (one per recursion level). The peel divisor is
/// the elementwise product of the chain's base dims.
#[allow(clippy::too_many_arguments)]
pub fn fast_matmul_chain_any_into<T: Scalar, P: Borrow<ExecPlan> + Sync>(
    chain: &[P],
    a: MatRef<'_, T>,
    b: MatRef<'_, T>,
    c: MatMut<'_, T>,
    strategy: Strategy,
    threads: usize,
    mode: PeelMode,
    fusion: FusionPolicy,
) {
    // A transient workspace: the allocate-per-call flavor is the `_ws`
    // body over buffers that live for this one call.
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    let mut ws = Workspace::for_chain(chain, m, k, n, strategy, threads, mode, fusion);
    fast_matmul_chain_any_into_ws(chain, a, b, c, strategy, threads, mode, fusion, &mut ws);
}

/// Workspace-backed variant of [`fast_matmul_chain_any_into`]. Panics if
/// `ws` was sized for a different configuration (shape, chain structure,
/// strategy, threads or peel mode) — build one with
/// [`Workspace::for_chain`] using the exact same arguments.
#[allow(clippy::too_many_arguments)]
pub fn fast_matmul_chain_any_into_ws<T: Scalar, P: Borrow<ExecPlan> + Sync>(
    chain: &[P],
    a: MatRef<'_, T>,
    b: MatRef<'_, T>,
    c: MatMut<'_, T>,
    strategy: Strategy,
    threads: usize,
    mode: PeelMode,
    fusion: FusionPolicy,
    ws: &mut Workspace<T>,
) {
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    assert_eq!(k, b.rows(), "inner dimensions must match");
    assert_eq!((m, n), (c.rows(), c.cols()), "C shape mismatch");
    assert!(
        ws.matches(chain, m, k, n, strategy, threads, mode, fusion),
        "workspace was built for {:?}, called with ({m}×{k}×{n}, {strategy:?}, {threads} threads, {mode:?}, {fusion:?})",
        ws.key()
    );
    ws.note_run();
    let Workspace { root, pad, .. } = ws;

    let (dm, dk, dn) = chain_divisor(chain);
    if m % dm == 0 && k % dk == 0 && n % dn == 0 {
        run_level(chain, a, b, c, strategy, threads, root);
        return;
    }

    match mode {
        PeelMode::Dynamic => peel_dynamic(a, b, c, threads, (dm, dk, dn), |ac, bc, cc| {
            run_level(chain, ac, bc, cc, strategy, threads, root)
        }),
        PeelMode::Pad => {
            let pad = pad
                .as_mut()
                .expect("Pad-mode workspace carries pad buffers");
            run_padded(a, b, c, pad, |ac, bc, cc| {
                run_level(chain, ac, bc, cc, strategy, threads, root)
            });
        }
    }
}

/// Split into (core | rim), run `core` on the divisible core and classical
/// gemm on the rims.
fn peel_dynamic<T: Scalar>(
    a: MatRef<'_, T>,
    b: MatRef<'_, T>,
    c: MatMut<'_, T>,
    threads: usize,
    (dm, dk, dn): (usize, usize, usize),
    core: impl FnOnce(MatRef<'_, T>, MatRef<'_, T>, MatMut<'_, T>),
) {
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    let mc = m / dm * dm;
    let kc = k / dk * dk;
    let nc = n / dn * dn;
    let par = if threads > 1 {
        Par::Threads(threads)
    } else {
        Par::Seq
    };

    if mc == 0 || kc == 0 || nc == 0 {
        // Too small for even one base block: the whole thing is a rim.
        gemm(T::ONE, a, b, T::ZERO, c, par);
        return;
    }

    // Partition (core | rim) in every dimension:
    // A = [A11 A12; A21 A22], B = [B11 B12; B21 B22].
    let a11 = a.subview(0, 0, mc, kc);
    let a12 = a.subview(0, kc, mc, k - kc);
    let a21 = a.subview(mc, 0, m - mc, kc);
    let a22 = a.subview(mc, kc, m - mc, k - kc);
    let b11 = b.subview(0, 0, kc, nc);
    let b12 = b.subview(0, nc, kc, n - nc);
    let b21 = b.subview(kc, 0, k - kc, nc);
    let b22 = b.subview(kc, nc, k - kc, n - nc);

    let (c_top, c_bottom) = c.split_at_row(mc);
    let (mut c11, mut c12) = c_top.split_at_col(nc);
    let (mut c21, mut c22) = c_bottom.split_at_col(nc);

    // C11 = fast(A11·B11) + A12·B21.
    core(a11, b11, c11.rb());
    if k > kc {
        gemm(T::ONE, a12, b21, T::ONE, c11.rb(), par);
    }
    // Rims are entirely classical.
    if n > nc {
        gemm(T::ONE, a11, b12, T::ZERO, c12.rb(), par);
        gemm(T::ONE, a12, b22, T::ONE, c12.rb(), par);
    }
    if m > mc {
        gemm(T::ONE, a21, b11, T::ZERO, c21.rb(), par);
        gemm(T::ONE, a22, b21, T::ONE, c21.rb(), par);
        if n > nc {
            gemm(T::ONE, a21, b12, T::ZERO, c22.rb(), par);
            gemm(T::ONE, a22, b22, T::ONE, c22.rb(), par);
        }
    }
}

/// Copy the operands into the (zero-bordered) pad buffers, run `core` on
/// the padded shapes, copy the live region of the result back. Only the
/// live top-left regions are written, so the zero borders established at
/// construction survive workspace reuse.
fn run_padded<T: Scalar>(
    a: MatRef<'_, T>,
    b: MatRef<'_, T>,
    mut c: MatMut<'_, T>,
    pad: &mut PadBufs<T>,
    core: impl FnOnce(MatRef<'_, T>, MatRef<'_, T>, MatMut<'_, T>),
) {
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    pad.ap.as_mut().subview_mut(0, 0, m, k).copy_from(a);
    pad.bp.as_mut().subview_mut(0, 0, k, n).copy_from(b);
    core(pad.ap.as_ref(), pad.bp.as_ref(), pad.cp.as_mut());
    c.copy_from(pad.cp.as_ref().subview(0, 0, m, n));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::ExecPlan;
    use apa_core::catalog;
    use apa_gemm::{matmul_naive, Mat};

    fn rand_mat(rows: usize, cols: usize, seed: u64) -> Mat<f64> {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        Mat::from_fn(rows, cols, |_, _| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 32) as u32 as f64 / (1u64 << 31) as f64) - 1.0
        })
    }

    fn check(alg_name: &str, m: usize, k: usize, n: usize, mode: PeelMode, tol: f64) {
        let alg = catalog::by_name(alg_name).unwrap();
        let lambda = if alg.is_exact_rule() {
            0.0
        } else {
            2.0_f64.powi(-26)
        };
        let plan = ExecPlan::compile(&alg, lambda);
        let a = rand_mat(m, k, 21);
        let b = rand_mat(k, n, 22);
        let expect = matmul_naive(a.as_ref(), b.as_ref());
        for fusion in [FusionPolicy::Auto, FusionPolicy::Never] {
            let mut c = Mat::zeros(m, n);
            fast_matmul_any_into(
                &plan,
                a.as_ref(),
                b.as_ref(),
                c.as_mut(),
                1,
                Strategy::Seq,
                1,
                mode,
                fusion,
            );
            let err = c.rel_frobenius_error(&expect);
            assert!(
                err < tol,
                "{alg_name} {mode:?} {fusion:?} ({m},{k},{n}): err {err}"
            );

            // The workspace-backed path must agree bitwise, warm or cold,
            // under the same fusion policy.
            let mut ws =
                Workspace::<f64>::for_plan(&plan, m, k, n, 1, Strategy::Seq, 1, mode, fusion);
            for _ in 0..2 {
                let mut c_ws = Mat::zeros(m, n);
                fast_matmul_any_into_ws(
                    &plan,
                    a.as_ref(),
                    b.as_ref(),
                    c_ws.as_mut(),
                    1,
                    Strategy::Seq,
                    1,
                    mode,
                    fusion,
                    &mut ws,
                );
                for i in 0..m {
                    for j in 0..n {
                        assert_eq!(
                            c.at(i, j).to_bits(),
                            c_ws.at(i, j).to_bits(),
                            "workspace path diverged at ({i},{j}) under {fusion:?}"
                        );
                    }
                }
            }
            assert_eq!(ws.runs(), 2);
        }
    }

    #[test]
    fn peeling_handles_every_offset() {
        // Strassen base 2: all parities of every dimension.
        for dm in 0..2 {
            for dk in 0..2 {
                for dn in 0..2 {
                    check(
                        "strassen",
                        16 + dm,
                        16 + dk,
                        16 + dn,
                        PeelMode::Dynamic,
                        1e-12,
                    );
                    check("strassen", 16 + dm, 16 + dk, 16 + dn, PeelMode::Pad, 1e-12);
                }
            }
        }
    }

    #[test]
    fn peeling_bini_rectangular_base() {
        // base (3,2,2): awkward offsets.
        for (m, k, n) in [(31, 21, 23), (30, 20, 21), (32, 22, 22), (10, 7, 9)] {
            check("bini322", m, k, n, PeelMode::Dynamic, 1e-6);
            check("bini322", m, k, n, PeelMode::Pad, 1e-6);
        }
    }

    #[test]
    fn tiny_inputs_fall_back_to_gemm() {
        check("fast444", 3, 3, 3, PeelMode::Dynamic, 1e-12);
        check("fast444", 3, 3, 3, PeelMode::Pad, 1e-12);
        check("fast555", 2, 9, 2, PeelMode::Dynamic, 1e-12);
    }

    #[test]
    fn divisible_dims_take_fast_path() {
        check("fast444", 16, 16, 16, PeelMode::Dynamic, 1e-12);
        check("fast444", 16, 16, 16, PeelMode::Pad, 1e-12);
    }

    #[test]
    fn two_step_divisor_is_respected() {
        // steps = 2 with Strassen: needs divisibility by 4; 18 is not,
        // so peel must kick in and still be correct.
        let alg = catalog::strassen();
        let plan = ExecPlan::compile(&alg, 0.0);
        let a = rand_mat(18, 18, 30);
        let b = rand_mat(18, 18, 31);
        let mut c = Mat::zeros(18, 18);
        fast_matmul_any_into(
            &plan,
            a.as_ref(),
            b.as_ref(),
            c.as_mut(),
            2,
            Strategy::Seq,
            1,
            PeelMode::Dynamic,
            FusionPolicy::Auto,
        );
        let expect = matmul_naive(a.as_ref(), b.as_ref());
        assert!(c.rel_frobenius_error(&expect) < 1e-12);
    }

    #[test]
    fn chain_peeling_handles_awkward_shapes() {
        // Bini then Strassen needs divisibility by (6,4,4); 25×13×17 has
        // none of it, so peeling covers everything.
        let bini = ExecPlan::compile(&catalog::bini322(), 2.0_f64.powi(-22));
        let strassen = ExecPlan::compile(&catalog::strassen(), 0.0);
        let a = rand_mat(25, 13, 60);
        let b = rand_mat(13, 17, 61);
        let mut c = Mat::zeros(25, 17);
        for mode in [PeelMode::Dynamic, PeelMode::Pad] {
            fast_matmul_chain_any_into(
                &[&bini, &strassen],
                a.as_ref(),
                b.as_ref(),
                c.as_mut(),
                Strategy::Seq,
                1,
                mode,
                FusionPolicy::Auto,
            );
            let expect = matmul_naive(a.as_ref(), b.as_ref());
            assert!(c.rel_frobenius_error(&expect) < 1e-5, "{mode:?}");
        }
    }

    #[test]
    fn parallel_peeling_matches() {
        let alg = catalog::bini322();
        let plan = ExecPlan::compile(&alg, 2.0_f64.powi(-26));
        let a = rand_mat(25, 13, 40);
        let b = rand_mat(13, 17, 41);
        let mut seq = Mat::zeros(25, 17);
        let mut par = Mat::zeros(25, 17);
        fast_matmul_any_into(
            &plan,
            a.as_ref(),
            b.as_ref(),
            seq.as_mut(),
            1,
            Strategy::Seq,
            1,
            PeelMode::Dynamic,
            FusionPolicy::Auto,
        );
        fast_matmul_any_into(
            &plan,
            a.as_ref(),
            b.as_ref(),
            par.as_mut(),
            1,
            Strategy::Hybrid,
            3,
            PeelMode::Dynamic,
            FusionPolicy::Auto,
        );
        assert!(par.rel_frobenius_error(&seq) < 1e-12);
    }

    #[test]
    fn workspace_mismatch_panics() {
        let plan = ExecPlan::compile(&catalog::strassen(), 0.0);
        let mut ws = Workspace::<f64>::for_plan(
            &plan,
            16,
            16,
            16,
            1,
            Strategy::Seq,
            1,
            PeelMode::Dynamic,
            FusionPolicy::Auto,
        );
        let a = rand_mat(18, 16, 70);
        let b = rand_mat(16, 16, 71);
        let mut c = Mat::zeros(18, 16);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            fast_matmul_any_into_ws(
                &plan,
                a.as_ref(),
                b.as_ref(),
                c.as_mut(),
                1,
                Strategy::Seq,
                1,
                PeelMode::Dynamic,
                FusionPolicy::Auto,
                &mut ws,
            )
        }));
        assert!(err.is_err(), "shape mismatch must not execute");
    }
}
