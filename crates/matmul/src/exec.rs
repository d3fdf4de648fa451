//! The APA execution engine: runs a compiled [`ExecPlan`] on real matrices.
//!
//! One recursive step (the paper's regime):
//!
//! 1. the operands are partitioned into the rule's `m×k` / `k×n` grids of
//!    zero-copy block views;
//! 2. for each multiplication `t`, the operand combinations `S_t`/`T_t` are
//!    formed with write-once [`combine`] kernels — unless the combination
//!    is a singleton, in which case the block view is used directly and the
//!    scalar folds into the gemm α;
//! 3. `M_t = S_t · T_t` runs on the classical [`apa_gemm`] leaf (or
//!    recursively on this engine for multi-step execution);
//! 4. each output block of `Ĉ` is produced in a single write-once pass over
//!    its contributing products.
//!
//! Parallelism follows [`Strategy`] after
//! [`effective_strategy`](crate::schedule::effective_strategy) coercion:
//! DFS (all-thread gemm per product), BFS (contiguous chunks of products
//! per thread), or the paper's Hybrid (q products per thread on
//! single-threaded gemm, then the ℓ remainder products on all threads).
//!
//! # Fused execution
//!
//! Under [`FusionPolicy::Auto`] steps 2–3 merge: the term lists
//! `Σᵢ uᵢ·A_i` / `Σᵢ vᵢ·B_i` go straight to [`gemm_combined`], whose
//! packers form the combination while packing panels, so each operand
//! element is read once instead of written to and re-read from a scratch
//! buffer. The packers mirror the `combine` kernels' FMA chains exactly,
//! so this pack-time fusion is **bitwise identical** to materializing
//! `S_t`/`T_t` first. It is the only fusion: every product lands in its
//! `M_t` buffer and step 4 forms every output block, so `Auto` and
//! [`FusionPolicy::Never`] (the fully materialized path, the reference
//! the property tests compare against) agree bit for bit on every rule.
//!
//! Every buffer the engine touches lives in a [`LevelWs`] tree, part of a
//! workspace that [`crate::ApaMatmul`] caches per shape, so the steady
//! state performs **zero heap allocations**; a fresh workspace and a
//! reused one produce bitwise-identical results.
//!
//! ABFT checksum sessions are per thread ([`apa_gemm::abft`]): a lane
//! spawned onto a pool worker installs its caller's session, so its
//! leaves check under — and count into — the multiply that spawned it.

use crate::plan::{Combo, ExecPlan};
use crate::schedule::{effective_strategy, FusionPolicy, Strategy};
use crate::workspace::{combo_needs_buffer, LaneWs, LevelWs};
use apa_gemm::{abft, combine_par, gemm, gemm_combined, pool, Mat, MatMut, MatRef, Par, Scalar};
use std::borrow::Borrow;

/// Combination/output term lists up to this arity are staged on the
/// stack. The largest catalog rule (`fast444`, rank 49) has combos of at
/// most ~16 terms; the fallback `Vec` keeps arbitrary plans correct.
pub(crate) const MAX_INLINE_TERMS: usize = 24;

/// Execute `chain` (one plan per recursion level; an empty chain or an
/// indivisible level falls back to classical gemm) against a buffer tree
/// sized by [`build_level`](crate::workspace) for the same `(chain, shape,
/// strategy, threads)`.
///
/// With `a_tail` (a ragged M, see [`crate::workspace::MTail`]) the rule's
/// A is `a` stacked on `a_tail`: `a` holds whole block rows viewed in
/// place, `a_tail` the zero-padded rest. C keeps only the real rows
/// (`a.rows() ≤ c.rows() ≤` the padded height), and only those are
/// stored.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_level<T: Scalar, P: Borrow<ExecPlan> + Sync>(
    chain: &[P],
    a: MatRef<'_, T>,
    a_tail: Option<MatRef<'_, T>>,
    b: MatRef<'_, T>,
    c: MatMut<'_, T>,
    strategy: Strategy,
    threads: usize,
    level: &mut LevelWs<T>,
) {
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    let padded = m + a_tail.map_or(0, |t| t.rows());
    assert_eq!(k, b.rows(), "inner dimensions must match");
    assert_eq!(n, c.cols(), "C shape mismatch");
    assert!(
        (m..=padded).contains(&c.rows()) && (a_tail.is_some() || c.rows() == m),
        "C shape mismatch"
    );

    match chain.first().map(Borrow::borrow) {
        Some(plan) if divisible(plan, padded, k, n) => {
            one_step(plan, &chain[1..], a, a_tail, b, c, strategy, threads, level)
        }
        _ => {
            assert!(a_tail.is_none(), "a padded tail needs a dividing rule");
            // Leaf: classical gemm at the caller's parallelism.
            let (strategy, threads) = effective_strategy(strategy, threads, usize::MAX);
            gemm(T::ONE, a, b, T::ZERO, c, leaf_par(strategy, threads));
        }
    }
}

pub(crate) fn divisible(plan: &ExecPlan, m: usize, k: usize, n: usize) -> bool {
    let d = plan.dims;
    m.is_multiple_of(d.m)
        && k.is_multiple_of(d.k)
        && n.is_multiple_of(d.n)
        && m >= d.m
        && k >= d.k
        && n >= d.n
}

fn leaf_par(strategy: Strategy, threads: usize) -> Par {
    match strategy {
        Strategy::Seq => Par::Seq,
        _ => Par::Threads(threads),
    }
}

/// Zero-copy accessor for the `gr×gc` block grid of an operand, indexed
/// row-major like the plan's combo block indices. Replaces the old
/// `Vec<MatRef>` grids so the hot path builds no per-call lists.
///
/// Block rows from `head` on resolve to `tail`, the zero-padded copy of a
/// ragged A's last rows (`head = gr` and `tail = mat` otherwise).
///
/// Indices at or beyond the grid size (`gr·gc`) resolve to the level's
/// CSE temp buffers (see [`crate::cse`]): virtual block `gr·gc + i` is
/// `temps[i]`, matching the plan's temp index space.
#[derive(Clone, Copy)]
struct Blocks<'a, T> {
    mat: MatRef<'a, T>,
    tail: MatRef<'a, T>,
    head: usize,
    grid_cols: usize,
    rows: usize,
    cols: usize,
    /// First virtual temp index (= `gr·gc`).
    base: usize,
    temps: &'a [Mat<T>],
}

impl<'a, T: Scalar> Blocks<'a, T> {
    fn new(
        mat: MatRef<'a, T>,
        tail: Option<MatRef<'a, T>>,
        gr: usize,
        gc: usize,
        temps: &'a [Mat<T>],
    ) -> Self {
        let rows = (mat.rows() + tail.map_or(0, |t| t.rows())) / gr;
        debug_assert_eq!(mat.rows() % rows, 0);
        debug_assert_eq!(mat.cols() % gc, 0);
        Blocks {
            mat,
            tail: tail.unwrap_or(mat),
            head: if tail.is_some() {
                mat.rows() / rows
            } else {
                gr
            },
            grid_cols: gc,
            rows,
            cols: mat.cols() / gc,
            base: gr * gc,
            temps,
        }
    }

    #[inline]
    fn get(&self, idx: usize) -> MatRef<'a, T> {
        if idx >= self.base {
            return self.temps[idx - self.base].as_ref();
        }
        let (i, j) = (idx / self.grid_cols, idx % self.grid_cols);
        let (src, i) = if i < self.head {
            (self.mat, i)
        } else {
            (self.tail, i - self.head)
        };
        src.subview(i * self.rows, j * self.cols, self.rows, self.cols)
    }
}

/// Stage `Σ coeff·lookup(idx)` into `dst` with the same write-once
/// `combine` kernels as [`form_combo`], resolving indices through a
/// caller-supplied lookup (grid blocks + temps, or products + W-temps).
fn combine_indexed<'p, T: Scalar + 'p>(
    dst: MatMut<'_, T>,
    terms: &[(usize, f64)],
    lookup: impl Fn(usize) -> MatRef<'p, T>,
    par: Par,
) {
    if !terms.is_empty() && terms.len() <= MAX_INLINE_TERMS {
        // Stack-staged term list; slots past terms.len() are never read.
        let mut staged = [(T::ZERO, lookup(terms[0].0)); MAX_INLINE_TERMS];
        for (slot, &(idx, coeff)) in staged.iter_mut().zip(terms) {
            *slot = (T::from_f64(coeff), lookup(idx));
        }
        combine_par(dst, false, &staged[..terms.len()], par);
    } else {
        let staged: Vec<(T, MatRef<'_, T>)> = terms
            .iter()
            .map(|&(idx, coeff)| (T::from_f64(coeff), lookup(idx)))
            .collect();
        combine_par(dst, false, &staged, par);
    }
}

/// Materialize one operand side's CSE temps in definition order (temp `i`
/// may reference temps `< i`, so the buffer slice splits incrementally).
fn materialize_operand_temps<T: Scalar>(
    spec: &[Vec<(usize, f64)>],
    grid: Blocks<'_, T>,
    bufs: &mut [Mat<T>],
    par: Par,
) {
    debug_assert_eq!(spec.len(), bufs.len(), "workspace temp count mismatch");
    for (i, terms) in spec.iter().enumerate() {
        let (done, rest) = bufs.split_at_mut(i);
        let blocks = Blocks {
            temps: done,
            ..grid
        };
        combine_indexed(rest[0].as_mut(), terms, |idx| blocks.get(idx), par);
    }
}

#[allow(clippy::too_many_arguments)]
fn one_step<T: Scalar, P: Borrow<ExecPlan> + Sync>(
    plan: &ExecPlan,
    rest: &[P],
    a: MatRef<'_, T>,
    a_tail: Option<MatRef<'_, T>>,
    b: MatRef<'_, T>,
    c: MatMut<'_, T>,
    strategy: Strategy,
    threads: usize,
    level: &mut LevelWs<T>,
) {
    let d = plan.dims;
    let r = plan.rank;
    let (strategy, threads) = effective_strategy(strategy, threads, r);

    let LevelWs {
        products,
        lanes,
        policy,
        a_temps,
        b_temps,
        w_temps,
    } = level;
    let policy = *policy;
    debug_assert_eq!(products.len(), r, "workspace product count mismatch");

    // CSE temps for the operand sides materialize once, before the
    // product loop (and before any lane spawns — the temp buffers are
    // read-shared by every lane afterwards).
    if !plan.a_temps.is_empty() || !plan.b_temps.is_empty() {
        let par = leaf_par(strategy, threads);
        let a_grid = Blocks::new(a, a_tail, d.m, d.k, &[]);
        materialize_operand_temps(&plan.a_temps, a_grid, a_temps, par);
        let b_grid = Blocks::new(b, None, d.k, d.n, &[]);
        materialize_operand_temps(&plan.b_temps, b_grid, b_temps, par);
    }
    let a_blocks = Blocks::new(a, a_tail, d.m, d.k, &*a_temps);
    let b_blocks = Blocks::new(b, None, d.k, d.n, &*b_temps);
    debug_assert!(!lanes.is_empty(), "workspace has no lanes");
    let compute = |t, m_out: &mut Mat<T>, par, lane: &mut LaneWs<T>| {
        compute_product(plan, rest, t, a_blocks, b_blocks, m_out, par, lane, policy)
    };

    match strategy {
        Strategy::Seq | Strategy::Dfs => {
            let par = leaf_par(strategy, threads);
            for (t, m_out) in products.iter_mut().enumerate() {
                compute(t, m_out, par, &mut lanes[0]);
            }
        }
        // Contiguous chunks (instead of the round-robin lists of
        // `bfs_schedule`) carry the same work distribution with no
        // per-call list allocation; threads is already capped at r.
        Strategy::Bfs => run_chunks(products, r.div_ceil(threads), lanes, threads, &compute),
        Strategy::Hybrid => {
            // r = p·q + ℓ with q ≥ 1 (q = 0 was coerced to Dfs): each
            // thread owns a contiguous run of q products, then the ℓ
            // remainder products run one at a time on all threads.
            let q = r / threads;
            let owned = threads * q;
            let (own_slice, rem_slice) = products.split_at_mut(owned);
            run_chunks(own_slice, q, lanes, threads, &compute);
            let par = Par::Threads(threads);
            for (j, m_out) in rem_slice.iter_mut().enumerate() {
                compute(owned + j, m_out, par, &mut lanes[0]);
            }
        }
    }

    // W-side CSE temps are shared partial sums over the products; they
    // materialize (in definition order — temp i may read temps < i)
    // before the output pass resolves them like virtual products.
    if !plan.w_temps.is_empty() {
        debug_assert_eq!(
            w_temps.len(),
            plan.w_temps.len(),
            "workspace W-temp count mismatch"
        );
        let par = leaf_par(strategy, threads);
        for (i, terms) in plan.w_temps.iter().enumerate() {
            let (done, rest) = w_temps.split_at_mut(i);
            combine_indexed(
                rest[0].as_mut(),
                terms,
                |t| {
                    if t < r {
                        products[t].as_ref()
                    } else {
                        done[t - r].as_ref()
                    }
                },
                par,
            );
        }
    }

    write_outputs(plan, a_blocks.rows, c, products, w_temps, strategy, threads);
}

/// Run `products` (product `t` at index `t`) as contiguous chunks of
/// `chunk` products, one pool task per chunk on its own lane, every leaf
/// single-threaded. Each task installs the caller's ABFT session.
fn run_chunks<T: Scalar>(
    products: &mut [Mat<T>],
    chunk: usize,
    lanes: &mut [LaneWs<T>],
    threads: usize,
    compute: &(impl Fn(usize, &mut Mat<T>, Par, &mut LaneWs<T>) + Sync),
) {
    let session = &abft::current();
    pool(threads).scope(|s| {
        for (ci, (chunk_prods, lane)) in products.chunks_mut(chunk).zip(lanes).enumerate() {
            s.spawn(move |_| {
                let _scope = session.clone().map(abft::scoped);
                for (j, m_out) in chunk_prods.iter_mut().enumerate() {
                    compute(ci * chunk + j, m_out, Par::Seq, lane);
                }
            });
        }
    });
}

/// Compute product `t` into its buffer `m_out`: stage `S_t`/`T_t` as term
/// lists (see [`with_combo_terms`]), then either recurse on them or make
/// the gemm call. At a leaf the staged combinations form during the gemm
/// pack sweep (the packers mirror the `combine` kernels FMA for FMA, so
/// this is bitwise identical to materializing first). Under `Never` every
/// multi-term combination is materialized, the lists are unit lists and
/// the call is the engine's pre-fusion `gemm`, bit for bit.
#[allow(clippy::too_many_arguments)]
fn compute_product<T: Scalar, P: Borrow<ExecPlan> + Sync>(
    plan: &ExecPlan,
    rest: &[P],
    t: usize,
    a_blocks: Blocks<'_, T>,
    b_blocks: Blocks<'_, T>,
    m_out: &mut Mat<T>,
    par: Par,
    lane: &mut LaneWs<T>,
    policy: FusionPolicy,
) {
    let recursive = !rest.is_empty();
    let LaneWs {
        s_buf,
        t_buf,
        child,
    } = lane;
    debug_assert_eq!(
        (m_out.rows(), m_out.cols()),
        (a_blocks.rows, b_blocks.cols),
        "workspace product-buffer shape mismatch"
    );
    let dst = m_out.as_mut();
    let (a_combo, b_combo) = (&plan.a_combos[t], &plan.b_combos[t]);
    with_combo_terms(
        a_combo,
        a_blocks,
        s_buf,
        recursive,
        policy,
        par,
        |a_terms, alpha_a| {
            with_combo_terms(
                b_combo,
                b_blocks,
                t_buf,
                recursive,
                policy,
                par,
                |b_terms, alpha_b| {
                    if recursive {
                        // `combo_needs_buffer` materializes everything a
                        // recursive product consumes except unit
                        // singletons, so both lists are `[(1, view)]` and
                        // no scalar is left to fold.
                        debug_assert!(a_terms.len() == 1 && b_terms.len() == 1);
                        debug_assert!(alpha_a == 1.0 && alpha_b == 1.0);
                        let child = child
                            .as_deref_mut()
                            .expect("recursive level carries a child workspace");
                        run_level(
                            rest,
                            a_terms[0].1,
                            None,
                            b_terms[0].1,
                            dst,
                            Strategy::Seq,
                            1,
                            child,
                        );
                    } else {
                        let alpha = T::from_f64(alpha_a * alpha_b);
                        gemm_combined(alpha, a_terms, b_terms, T::ZERO, dst, par);
                    }
                },
            )
        },
    );
}

/// Hand `f` the term list for one side's combination, plus the scalar
/// that folds into gemm's α. What
/// [`combo_needs_buffer`] says must materialize (multi-term combinations
/// under `Never`, at a recursive level, or wider than the inline stage;
/// scaled singletons at a recursive level) is formed in the lane buffer
/// and handed over as the unit list `[(1, buf)]`. Everything else is
/// staged on the stack: a singleton passes its block view with the
/// coefficient folded into α (the pack copies a unit list, so the fold
/// matches the materialized path bit for bit), a multi-term combination
/// its `(coeff, block)` list for the pack sweep to form.
fn with_combo_terms<T: Scalar, R>(
    combo: &Combo,
    blocks: Blocks<'_, T>,
    buf: &mut Mat<T>,
    recursive: bool,
    policy: FusionPolicy,
    par: Par,
    f: impl FnOnce(&[(T, MatRef<'_, T>)], f64) -> R,
) -> R {
    if combo_needs_buffer(combo, recursive, policy) {
        debug_assert_eq!(
            (buf.rows(), buf.cols()),
            (blocks.rows, blocks.cols),
            "workspace combination-buffer shape mismatch"
        );
        form_combo(buf.as_mut(), combo, blocks, par);
        return f(&[(T::ONE, buf.as_ref())], 1.0);
    }
    match combo {
        Combo::Single { block, coeff } => f(&[(T::ONE, blocks.get(*block))], *coeff),
        Combo::Multi(v) => {
            // Stack-staged term list; slots past v.len() are never read.
            let mut terms = [(T::ZERO, blocks.mat); MAX_INLINE_TERMS];
            for (slot, &(b, coeff)) in terms.iter_mut().zip(v) {
                *slot = (T::from_f64(coeff), blocks.get(b));
            }
            f(&terms[..v.len()], 1.0)
        }
    }
}

fn form_combo<T: Scalar>(dst: MatMut<'_, T>, combo: &Combo, blocks: Blocks<'_, T>, par: Par) {
    match combo {
        Combo::Single { block, coeff } => {
            combine_par(
                dst,
                false,
                &[(T::from_f64(*coeff), blocks.get(*block))],
                par,
            );
        }
        Combo::Multi(v) => combine_indexed(dst, v, |b| blocks.get(b), par),
    }
}

/// Form every `bm`-row output block from its products. Under a padded
/// tail C holds fewer than `d.m·bm` rows: a block is stored only down to
/// C's last real row.
fn write_outputs<T: Scalar>(
    plan: &ExecPlan,
    bm: usize,
    c: MatMut<'_, T>,
    products: &[Mat<T>],
    w_temps: &[Mat<T>],
    strategy: Strategy,
    threads: usize,
) {
    let d = plan.dims;
    let r = plan.rank;
    let bn = c.cols() / d.n;
    let par = leaf_par(strategy, threads);
    let mut c = c;
    for block in 0..d.m * d.n {
        let (bi, bj) = (block / d.n, block % d.n);
        let rows = bm.min(c.rows().saturating_sub(bi * bm));
        if rows == 0 {
            continue; // wholly inside the padding
        }
        let dst = c.rb().into_subview(bi * bm, bj * bn, rows, bn);
        let contrib = &plan.c_outputs[block];
        debug_assert!(
            !contrib.is_empty(),
            "output block {block} receives no products"
        );
        combine_indexed(
            dst,
            contrib,
            |t| {
                let src = if t < r { &products[t] } else { &w_temps[t - r] };
                src.as_ref().subview(0, 0, rows, bn)
            },
            par,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workspace::build_level;
    use apa_core::catalog;
    use apa_gemm::matmul_naive;

    fn rand_mat(rows: usize, cols: usize, seed: u64) -> Mat<f64> {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        Mat::from_fn(rows, cols, |_, _| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 32) as u32 as f64 / (1u64 << 31) as f64) - 1.0
        })
    }

    /// Run `chain` without peeling out of a buffer tree built for this
    /// call.
    fn run<T: Scalar, P: Borrow<ExecPlan> + Sync>(
        chain: &[P],
        a: MatRef<'_, T>,
        b: MatRef<'_, T>,
        strategy: Strategy,
        threads: usize,
        fusion: FusionPolicy,
    ) -> Mat<T> {
        let (m, k, n) = (a.rows(), a.cols(), b.cols());
        let mut level = build_level(chain, m, k, n, strategy, threads, fusion);
        let mut c = Mat::zeros(m, n);
        run_level(chain, a, None, b, c.as_mut(), strategy, threads, &mut level);
        c
    }

    fn check_fusion(
        alg_name: &str,
        lambda: f64,
        mult: usize,
        tol: f64,
        strategy: Strategy,
        threads: usize,
        fusion: FusionPolicy,
    ) {
        let alg = catalog::by_name(alg_name).unwrap();
        let d = alg.dims;
        let (m, k, n) = (d.m * mult, d.k * mult, d.n * mult);
        let a = rand_mat(m, k, 1);
        let b = rand_mat(k, n, 2);
        let plan = ExecPlan::compile(&alg, lambda);
        let got = run(&[&plan], a.as_ref(), b.as_ref(), strategy, threads, fusion);
        let expect = matmul_naive(a.as_ref(), b.as_ref());
        let err = got.rel_frobenius_error(&expect);
        assert!(
            err < tol,
            "{alg_name} ({strategy:?}, t={threads}, {fusion:?}): rel err {err} > {tol}"
        );
    }

    fn check(
        alg_name: &str,
        lambda: f64,
        mult: usize,
        tol: f64,
        strategy: Strategy,
        threads: usize,
    ) {
        for fusion in [FusionPolicy::Auto, FusionPolicy::Never] {
            check_fusion(alg_name, lambda, mult, tol, strategy, threads, fusion);
        }
    }

    #[test]
    fn strassen_exact_sequential() {
        check("strassen", 0.0, 16, 1e-12, Strategy::Seq, 1);
    }

    #[test]
    fn bini_apa_sequential() {
        // f64: optimal λ ≈ 2^-26; error ~2^-26 ≈ 1.5e-8.
        check("bini322", 2.0_f64.powi(-26), 10, 1e-6, Strategy::Seq, 1);
    }

    #[test]
    fn every_paper_algorithm_multiplies_correctly() {
        for alg in catalog::paper_lineup() {
            let lambda = if alg.is_exact_rule() {
                0.0
            } else {
                2.0_f64.powi(-26)
            };
            check(&alg.name, lambda, 4, 1e-5, Strategy::Seq, 1);
        }
    }

    #[test]
    fn strategies_agree() {
        for strategy in [Strategy::Dfs, Strategy::Bfs, Strategy::Hybrid] {
            check("bini322", 2.0_f64.powi(-26), 8, 1e-6, strategy, 3);
            check("fast444", 0.0, 8, 1e-12, strategy, 4);
        }
    }

    #[test]
    fn hybrid_with_exact_division_of_threads() {
        // fast442 has 28 products; with 4 threads q = 7, ℓ = 0.
        check("fast442", 0.0, 8, 1e-12, Strategy::Hybrid, 4);
        // With 3 threads ℓ = 1: exercises the all-thread remainder phase.
        check("fast442", 0.0, 8, 1e-12, Strategy::Hybrid, 3);
    }

    #[test]
    fn more_threads_than_products_runs_every_strategy() {
        // bini322 has 10 products; 16 threads exercises the BFS lane cap
        // and the Hybrid→DFS coercion end to end.
        for strategy in [Strategy::Bfs, Strategy::Hybrid, Strategy::Dfs] {
            check("bini322", 2.0_f64.powi(-26), 4, 1e-6, strategy, 16);
        }
    }

    #[test]
    fn two_recursive_steps() {
        let alg = catalog::strassen();
        let plan = ExecPlan::compile(&alg, 0.0);
        let a = rand_mat(32, 32, 7);
        let b = rand_mat(32, 32, 8);
        let got = run(
            &[&plan; 2],
            a.as_ref(),
            b.as_ref(),
            Strategy::Seq,
            1,
            FusionPolicy::Auto,
        );
        let expect = matmul_naive(a.as_ref(), b.as_ref());
        assert!(got.rel_frobenius_error(&expect) < 1e-12);
    }

    #[test]
    fn two_steps_apa_rule() {
        let alg = catalog::bini322();
        // 2 steps need divisibility by 3², 2², 2².
        let plan = ExecPlan::compile(&alg, 2.0_f64.powi(-18));
        let a = rand_mat(27, 12, 9);
        let b = rand_mat(12, 12, 10);
        let got = run(
            &[&plan; 2],
            a.as_ref(),
            b.as_ref(),
            Strategy::Seq,
            1,
            FusionPolicy::Auto,
        );
        let expect = matmul_naive(a.as_ref(), b.as_ref());
        // two steps double φ's effect; stay lenient.
        assert!(got.rel_frobenius_error(&expect) < 1e-3);
    }

    #[test]
    fn indivisible_dims_fall_back_to_gemm() {
        let alg = catalog::strassen();
        let plan = ExecPlan::compile(&alg, 0.0);
        let a = rand_mat(7, 9, 11);
        let b = rand_mat(9, 5, 12);
        let got = run(
            &[&plan],
            a.as_ref(),
            b.as_ref(),
            Strategy::Seq,
            1,
            FusionPolicy::Auto,
        );
        let expect = matmul_naive(a.as_ref(), b.as_ref());
        assert!(got.rel_frobenius_error(&expect) < 1e-12);
    }

    #[test]
    fn zero_steps_is_plain_gemm() {
        let alg = catalog::bini322();
        let plan = ExecPlan::compile(&alg, 0.5); // huge λ — must not matter
        let a = rand_mat(6, 4, 13);
        let b = rand_mat(4, 4, 14);
        let got = run(
            &[&plan; 0],
            a.as_ref(),
            b.as_ref(),
            Strategy::Seq,
            1,
            FusionPolicy::Auto,
        );
        let expect = matmul_naive(a.as_ref(), b.as_ref());
        assert!(got.rel_frobenius_error(&expect) < 1e-12);
    }

    #[test]
    fn nonstationary_chain_of_two_rules() {
        // Level 0 splits with Bini <3,2,2>, level 1 with Strassen <2,2,2>:
        // needs dims divisible by (6, 4, 4).
        let bini = ExecPlan::compile(&catalog::bini322(), 2.0_f64.powi(-20));
        let strassen = ExecPlan::compile(&catalog::strassen(), 0.0);
        let a = rand_mat(30, 20, 50);
        let b = rand_mat(20, 20, 51);
        let c = run(
            &[&bini, &strassen],
            a.as_ref(),
            b.as_ref(),
            Strategy::Seq,
            1,
            FusionPolicy::Auto,
        );
        let expect = matmul_naive(a.as_ref(), b.as_ref());
        assert!(c.rel_frobenius_error(&expect) < 1e-4);
    }

    #[test]
    fn chain_accepts_owned_plans() {
        // The Borrow-generic engine takes &[ExecPlan] directly — this is
        // how ApaMatmul runs the plans it owns without a per-call list.
        let chain = [
            ExecPlan::compile(&catalog::strassen(), 0.0),
            ExecPlan::compile(&catalog::strassen(), 0.0),
        ];
        let a = rand_mat(16, 16, 60);
        let b = rand_mat(16, 16, 61);
        let c = run(
            &chain,
            a.as_ref(),
            b.as_ref(),
            Strategy::Seq,
            1,
            FusionPolicy::Auto,
        );
        let expect = matmul_naive(a.as_ref(), b.as_ref());
        assert!(c.rel_frobenius_error(&expect) < 1e-12);
    }

    #[test]
    fn chain_order_matters_for_divisibility() {
        // 8×8×8 divides Strassen twice but Bini not even once; the chain
        // must gracefully degrade to gemm at the Bini level.
        let bini = ExecPlan::compile(&catalog::bini322(), 2.0_f64.powi(-20));
        let strassen = ExecPlan::compile(&catalog::strassen(), 0.0);
        let a = rand_mat(8, 8, 52);
        let b = rand_mat(8, 8, 53);
        let expect = matmul_naive(a.as_ref(), b.as_ref());
        for chain in [vec![&strassen, &bini], vec![&bini, &strassen]] {
            let c = run(
                &chain,
                a.as_ref(),
                b.as_ref(),
                Strategy::Seq,
                1,
                FusionPolicy::Auto,
            );
            assert!(c.rel_frobenius_error(&expect) < 1e-4);
        }
    }

    #[test]
    fn empty_chain_is_gemm() {
        let a = rand_mat(9, 7, 54);
        let b = rand_mat(7, 5, 55);
        let c = run(
            &[] as &[&ExecPlan],
            a.as_ref(),
            b.as_ref(),
            Strategy::Seq,
            1,
            FusionPolicy::Auto,
        );
        let expect = matmul_naive(a.as_ref(), b.as_ref());
        assert!(c.rel_frobenius_error(&expect) < 1e-12);
    }

    #[test]
    fn f32_single_precision_path() {
        let alg = catalog::bini322();
        let lambda = 2.0_f64.powf(-11.5); // optimal for d = 23
        let plan = ExecPlan::compile(&alg, lambda);
        let a = Mat::<f32>::from_fn(30, 20, |i, j| ((i * 31 + j * 17) % 13) as f32 * 0.1 - 0.6);
        let b = Mat::<f32>::from_fn(20, 20, |i, j| ((i * 7 + j * 3) % 11) as f32 * 0.1 - 0.5);
        let got = run(
            &[&plan],
            a.as_ref(),
            b.as_ref(),
            Strategy::Seq,
            1,
            FusionPolicy::Auto,
        );
        let expect = matmul_naive(a.as_ref(), b.as_ref());
        let err = got.rel_frobenius_error(&expect);
        // paper Table 1: ⟨3,2,2⟩ error ≈ 3.5e-4 at single precision.
        assert!(err < 5e-3, "err {err}");
    }

    fn assert_bitwise(got: &Mat<f64>, reference: &Mat<f64>, what: &str) {
        assert_eq!(
            (got.rows(), got.cols()),
            (reference.rows(), reference.cols())
        );
        for i in 0..got.rows() {
            for j in 0..got.cols() {
                assert!(
                    got.at(i, j).to_bits() == reference.at(i, j).to_bits(),
                    "{what}: ({i},{j}) {} != {}",
                    got.at(i, j),
                    reference.at(i, j)
                );
            }
        }
    }

    #[test]
    fn fused_matches_materialized_across_catalog() {
        // Pack-time fusion is the only fusion, and it is bitwise identical
        // to the materialized path: Auto is Never on every catalog rule.
        for alg in catalog::all() {
            let lambda = if alg.is_exact_rule() {
                0.0
            } else {
                2.0_f64.powi(-26)
            };
            let plan = ExecPlan::compile(&alg, lambda);
            let d = alg.dims;
            let (m, k, n) = (d.m * 4, d.k * 4, d.n * 4);
            let a = rand_mat(m, k, 21);
            let b = rand_mat(k, n, 22);
            let run = |fusion| run(&[&plan], a.as_ref(), b.as_ref(), Strategy::Seq, 1, fusion);
            let auto = run(FusionPolicy::Auto);
            let never = run(FusionPolicy::Never);
            assert_bitwise(&auto, &never, &alg.name);
        }
    }
}
