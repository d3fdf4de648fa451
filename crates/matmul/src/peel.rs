//! Arbitrary-dimension handling: a padded M tail, dynamic peeling of K and
//! N, and full zero padding.
//!
//! A one-step rule ⟨m,k,n⟩ needs its operands divisible by (m, k, n).
//! Two remedies, both implemented so the ablation bench can compare them:
//!
//! * **dynamic** ([`PeelMode::Dynamic`]) — M is *padded*: the rule runs on
//!   M rounded up to the chain divisor, its block rows viewing A in place
//!   except the last, which comes from a small workspace copy of A's
//!   ragged rows with zero rows below (in A's own orientation, so a
//!   transposed A packs as before). The extra rows ride inside the rule's
//!   leaves; only C's real rows are stored, and neither B nor C is copied.
//!   K and N are *peeled*: rounded down, the rule runs on the core and
//!   classical gemm finishes the thin rims — a K or N rim re-packs only a
//!   sliver of its operands, where a one-row M rim would re-pack all of B.
//! * **zero padding** ([`PeelMode::Pad`]) — round each dimension *up*,
//!   copy into padded buffers, run the fast rule, copy the result back.
//!   Simpler arithmetic but three buffer copies and wasted flops on the
//!   border.
//!
//! [`run_chain`] is the engine's one entry point: it executes a chain of
//! plans on operands of any shape out of a [`Workspace`] (core buffer tree,
//! tail *and* pad buffers), so warm calls touch the heap not at all.

use crate::exec::run_level;
use crate::plan::ExecPlan;
use crate::workspace::{chain_divisor, m_tail, PadBufs, Workspace};
use apa_gemm::{gemm, Mat, MatMut, MatRef, Par, Scalar};
use serde::Serialize;
use std::borrow::Borrow;

/// How to reconcile arbitrary dimensions with the rule's base dims.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub enum PeelMode {
    /// A ragged M padded through the rule's last block row; K and N
    /// rims via classical gemm.
    Dynamic,
    /// Pad operands up to the next multiple with zeros.
    Pad,
}

/// `C ← Â·B̂` for arbitrary shapes by a chain of rules, one per recursion
/// level (`chain[0]` splits the top; an empty chain is plain gemm), under
/// the configuration `ws` was built for. The peel divisor is the
/// elementwise product of the chain's base dims. Panics if `ws` was sized
/// for a different shape or chain structure.
pub(crate) fn run_chain<T: Scalar, P: Borrow<ExecPlan> + Sync>(
    chain: &[P],
    a: MatRef<'_, T>,
    b: MatRef<'_, T>,
    c: MatMut<'_, T>,
    ws: &mut Workspace<T>,
) {
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    assert_eq!(k, b.rows(), "inner dimensions must match");
    assert_eq!((m, n), (c.rows(), c.cols()), "C shape mismatch");
    let config = ws.key.config;
    assert!(
        ws.matches(chain, m, k, n, config),
        "workspace was built for {:?}, called with {m}×{k}×{n}",
        ws.key
    );
    let (strategy, threads) = (config.strategy, config.threads);
    let Workspace {
        root, pad, tail, ..
    } = ws;

    let (dm, dk, dn) = chain_divisor(chain);
    if m % dm == 0 && k % dk == 0 && n % dn == 0 {
        run_level(chain, a, None, b, c, strategy, threads, root);
        return;
    }

    match config.peel {
        PeelMode::Dynamic => peel_dynamic(
            a,
            b,
            c,
            threads,
            (dm, dk, dn),
            m_tail(chain, m).map(|t| (t.head * t.bm, t.rows, tail)),
            |ac, a_tail, bc, cc| run_level(chain, ac, a_tail, bc, cc, strategy, threads, root),
        ),
        PeelMode::Pad => {
            let pad = pad
                .as_mut()
                .expect("Pad-mode workspace carries pad buffers");
            run_padded(a, b, c, pad, |ac, bc, cc| {
                run_level(chain, ac, None, bc, cc, strategy, threads, root)
            });
        }
    }
}

/// `Â·B̂` out of a workspace built for just this call: the allocate-per-
/// call reference the engine's unit tests compare against.
#[cfg(test)]
pub(crate) fn multiply_cold<T: Scalar, P: Borrow<ExecPlan> + Sync>(
    chain: &[P],
    a: MatRef<'_, T>,
    b: MatRef<'_, T>,
    config: crate::workspace::ExecConfig,
) -> Mat<T> {
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    let mut ws = Workspace::for_chain(chain, m, k, n, config);
    let mut c = Mat::zeros(m, n);
    run_chain(chain, a, b, c.as_mut(), &mut ws);
    c
}

/// Run `core` on the divisible K/N core — with a ragged M, on `head` rows
/// of A viewed in place plus the padded tail (`tail_rows` high, filled from
/// A's remaining rows into `buf`) — and classical gemm on the K and N
/// rims.
fn peel_dynamic<T: Scalar>(
    a: MatRef<'_, T>,
    b: MatRef<'_, T>,
    c: MatMut<'_, T>,
    threads: usize,
    (dm, dk, dn): (usize, usize, usize),
    tail: Option<(usize, usize, &mut Mat<T>)>,
    core: impl FnOnce(MatRef<'_, T>, Option<MatRef<'_, T>>, MatRef<'_, T>, MatMut<'_, T>),
) {
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    let kc = k / dk * dk;
    let nc = n / dn * dn;
    let par = if threads > 1 {
        Par::Threads(threads)
    } else {
        Par::Seq
    };

    if m < dm || kc == 0 || nc == 0 {
        // Too small for even one base block: the whole thing is a rim.
        gemm(T::ONE, a, b, T::ZERO, c, par);
        return;
    }

    // Partition (core | rim) in K and N: A = [A1 A2], B = [B11 B12; B21 B22].
    let a1 = a.subview(0, 0, m, kc);
    let a2 = a.subview(0, kc, m, k - kc);
    let b11 = b.subview(0, 0, kc, nc);
    let b12 = b.subview(0, nc, kc, n - nc);
    let b21 = b.subview(kc, 0, k - kc, nc);
    let b22 = b.subview(kc, nc, k - kc, n - nc);
    let (mut c1, mut c2) = c.split_at_col(nc);

    // C1 = fast(A1·B11) + A2·B21.
    match tail {
        Some((head, tail_rows, buf)) => {
            let rest = a1.subview(head, 0, m - head, kc);
            let a_tail = fill_tail(rest, tail_rows, buf);
            core(a1.subview(0, 0, head, kc), Some(a_tail), b11, c1.rb());
        }
        None => core(a1, None, b11, c1.rb()),
    }
    if k > kc {
        gemm(T::ONE, a2, b21, T::ONE, c1.rb(), par);
    }
    // The N rim is classical.
    if n > nc {
        gemm(T::ONE, a1, b12, T::ZERO, c2.rb(), par);
        gemm(T::ONE, a2, b22, T::ONE, c2.rb(), par);
    }
}

/// Copy A's ragged last rows `src` into `buf` as a `rows`-high block with
/// zero rows below, in `src`'s own orientation: a transposed `src` is
/// stored as the plain view it transposes, so the packers read the tail
/// exactly as they read the rest of A. Reshaping `buf` keeps its length,
/// so this never allocates.
fn fill_tail<'b, T: Scalar>(src: MatRef<'_, T>, rows: usize, buf: &'b mut Mat<T>) -> MatRef<'b, T> {
    let (real, kc) = (src.rows(), src.cols());
    if src.is_transposed() {
        buf.resize(kc, rows);
        let mut dst = buf.as_mut();
        dst.subview_mut(0, 0, kc, real).copy_from(src.t());
        dst.subview_mut(0, real, kc, rows - real).fill(T::ZERO);
        buf.as_ref().t()
    } else {
        buf.resize(rows, kc);
        let mut dst = buf.as_mut();
        dst.subview_mut(0, 0, real, kc).copy_from(src);
        dst.subview_mut(real, 0, rows - real, kc).fill(T::ZERO);
        buf.as_ref()
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
    use crate::schedule::{FusionPolicy, Strategy};
    use crate::workspace::ExecConfig;
    use apa_core::bilinear::Dims;
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

    fn cfg(strategy: Strategy, threads: usize, peel: PeelMode, fusion: FusionPolicy) -> ExecConfig {
        ExecConfig {
            strategy,
            threads,
            peel,
            fusion,
        }
    }

    fn seq(peel: PeelMode, fusion: FusionPolicy) -> ExecConfig {
        cfg(Strategy::Seq, 1, peel, fusion)
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
            let c = multiply_cold(&[&plan], a.as_ref(), b.as_ref(), seq(mode, fusion));
            let err = c.rel_frobenius_error(&expect);
            assert!(
                err < tol,
                "{alg_name} {mode:?} {fusion:?} ({m},{k},{n}): err {err}"
            );

            // A reused workspace must agree bitwise with the fresh one,
            // under the same fusion policy.
            let mut ws = Workspace::<f64>::for_chain(&[&plan], m, k, n, seq(mode, fusion));
            for _ in 0..2 {
                let mut c_ws = Mat::zeros(m, n);
                run_chain(&[&plan], a.as_ref(), b.as_ref(), c_ws.as_mut(), &mut ws);
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
    fn ragged_m_is_padded_through_the_rule() {
        // The training shapes' M (3 ∤ 64, 3 ∤ 1024) at one and two steps:
        // block rows view A in place except the padded tail, and a
        // transposed A (whose tail copies X's columns) gives the plain
        // one's bits.
        let (k, n) = (8, 12);
        for m in [64, 1024] {
            for steps in [1usize, 2] {
                // f64's optimal λ at one step, a safe one at two.
                let lambda = [2.0_f64.powi(-26), 2.0_f64.powi(-18)][steps - 1];
                let plan = ExecPlan::compile(&catalog::bini322(), lambda);
                let chain = vec![&plan; steps];
                let a = rand_mat(m, k, 80 + m as u64);
                let a_st = a.as_ref().t().to_owned();
                let b = rand_mat(k, n, 81);
                let expect = matmul_naive(a.as_ref(), b.as_ref());
                let bm = m.div_ceil(3usize.pow(steps as u32)) * 3usize.pow(steps as u32) / 3;
                for fusion in [FusionPolicy::Auto, FusionPolicy::Never] {
                    let config = seq(PeelMode::Dynamic, fusion);
                    let ws = Workspace::<f64>::for_chain(&chain, m, k, n, config);
                    assert_eq!(
                        (ws.tail.rows(), ws.tail.cols()),
                        (bm, k),
                        "m={m} steps={steps}"
                    );
                    let plain = multiply_cold(&chain, a.as_ref(), b.as_ref(), config);
                    let err = plain.rel_frobenius_error(&expect);
                    assert!(err < 1e-4, "m={m} steps={steps} {fusion:?}: err {err}");
                    let trans = multiply_cold(&chain, a_st.as_ref().t(), b.as_ref(), config);
                    for i in 0..m {
                        for j in 0..n {
                            assert_eq!(
                                plain.at(i, j).to_bits(),
                                trans.at(i, j).to_bits(),
                                "m={m} steps={steps} {fusion:?} ({i},{j})"
                            );
                        }
                    }
                }
            }
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
        let plan = ExecPlan::compile(&catalog::strassen(), 0.0);
        let a = rand_mat(18, 18, 30);
        let b = rand_mat(18, 18, 31);
        let c = multiply_cold(
            &[&plan; 2],
            a.as_ref(),
            b.as_ref(),
            seq(PeelMode::Dynamic, FusionPolicy::Auto),
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
        for mode in [PeelMode::Dynamic, PeelMode::Pad] {
            let c = multiply_cold(
                &[&bini, &strassen],
                a.as_ref(),
                b.as_ref(),
                seq(mode, FusionPolicy::Auto),
            );
            let expect = matmul_naive(a.as_ref(), b.as_ref());
            assert!(c.rel_frobenius_error(&expect) < 1e-5, "{mode:?}");
        }
    }

    #[test]
    fn parallel_peeling_matches() {
        // Hybrid's lanes and its all-thread remainder read the padded
        // tail through the same block grid as the sequential run.
        let bini = ExecPlan::compile(&catalog::bini322(), 2.0_f64.powi(-26));
        let classical = ExecPlan::compile(&catalog::classical(Dims::new(2, 2, 2)), 0.0);
        let a = rand_mat(25, 13, 40);
        let b = rand_mat(13, 17, 41);
        for plan in [&bini, &classical] {
            let run = |strategy, threads| {
                let config = cfg(strategy, threads, PeelMode::Dynamic, FusionPolicy::Auto);
                multiply_cold(&[plan], a.as_ref(), b.as_ref(), config)
            };
            let seq = run(Strategy::Seq, 1);
            for threads in [2, 3] {
                let par = run(Strategy::Hybrid, threads);
                assert!(
                    par.rel_frobenius_error(&seq) < 1e-12,
                    "{} t={threads}",
                    plan.name
                );
            }
        }
    }

    #[test]
    fn workspace_mismatch_panics() {
        let plan = ExecPlan::compile(&catalog::strassen(), 0.0);
        let config = seq(PeelMode::Dynamic, FusionPolicy::Auto);
        let mut ws = Workspace::<f64>::for_chain(&[&plan], 16, 16, 16, config);
        let a = rand_mat(18, 16, 70);
        let b = rand_mat(16, 16, 71);
        let mut c = Mat::zeros(18, 16);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_chain(&[&plan], a.as_ref(), b.as_ref(), c.as_mut(), &mut ws)
        }));
        assert!(err.is_err(), "shape mismatch must not execute");
    }
}
