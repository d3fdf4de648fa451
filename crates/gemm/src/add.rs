//! Fused multi-operand linear combinations — the "matrix additions" of the
//! APA framework.
//!
//! `combine` implements the paper's "write-once" strategy (§3.2): each
//! destination element is produced by a *single* pass that accumulates all
//! weighted sources, instead of a chain of pairwise AXPYs that would
//! re-read and re-write the destination once per operand. These operations
//! are memory-bandwidth-bound and, per the paper, are the main obstacle to
//! realizing the ideal speedup — so they get the same parallelization
//! treatment as the multiplications.

use crate::matrix::{MatMut, MatRef};
use crate::pool::{pool, Par};
use crate::scalar::Scalar;

/// `dst ← Σ_i coeff_i · src_i` (or `dst += …` when `accumulate`), in one
/// pass over `dst`. All sources must have `dst`'s shape; any of them may
/// be a transposed view.
pub fn combine<T: Scalar>(mut dst: MatMut<'_, T>, accumulate: bool, terms: &[(T, MatRef<'_, T>)]) {
    for (_, src) in terms {
        assert_eq!(src.rows(), dst.rows(), "source shape mismatch");
        assert_eq!(src.cols(), dst.cols(), "source shape mismatch");
    }
    let by_element = terms.iter().any(|(_, src)| src.is_transposed());
    #[cfg(target_arch = "x86_64")]
    if crate::kernel::hardware_fma_enabled() {
        // SAFETY: avx2+fma presence was verified at runtime.
        unsafe {
            if by_element {
                combine_tiles_fma(&mut dst, accumulate, terms);
            } else {
                combine_sweep_fma(&mut dst, accumulate, terms);
            }
        }
        return;
    }
    if by_element {
        combine_tiles(&mut dst, accumulate, terms);
    } else {
        combine_sweep(&mut dst, accumulate, terms);
    }
}

/// [`combine`] over transposed sources: element by element through
/// [`combine_elem`], in square tiles so plain rows and transposed columns
/// are both read a cache line at a time.
#[inline(always)]
fn combine_tiles<T: Scalar>(
    dst: &mut MatMut<'_, T>,
    accumulate: bool,
    terms: &[(T, MatRef<'_, T>)],
) {
    const TILE: usize = 32;
    let (rows, cols) = (dst.rows(), dst.cols());
    for i0 in (0..rows).step_by(TILE) {
        for j0 in (0..cols).step_by(TILE) {
            for j in j0..cols.min(j0 + TILE) {
                for i in i0..rows.min(i0 + TILE) {
                    let o = dst.at(i, j);
                    dst.set(i, j, combine_elem(o, accumulate, terms, i, j));
                }
            }
        }
    }
}

/// # Safety
/// CPU must support avx2+fma (see [`crate::kernel::hardware_fma_enabled`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn combine_tiles_fma<T: Scalar>(
    dst: &mut MatMut<'_, T>,
    accumulate: bool,
    terms: &[(T, MatRef<'_, T>)],
) {
    combine_tiles(dst, accumulate, terms)
}

/// One element of [`combine`]: `Σ coeff_t · src_t[i, j]`, added to `o`
/// when `accumulate`, with exactly the chain shapes of the row sweep
/// ([`combine_row`]: ≤4-term mul_add chains, later 4-term chunks added
/// on, a lone trailing term fused into the accumulator). Sources are read
/// through [`MatRef::at`], so any mix of plain and transposed views works
/// — the orientation-agnostic body behind [`combine`] and the packers'
/// mixed term lists.
#[inline(always)]
pub(crate) fn combine_elem<T: Scalar>(
    o: T,
    accumulate: bool,
    terms: &[(T, MatRef<'_, T>)],
    i: usize,
    j: usize,
) -> T {
    let c = |t: usize| terms[t].0;
    let x = |t: usize| terms[t].1.at(i, j);
    let chain = |s: usize, n: usize| match n {
        1 => c(s) * x(s),
        2 => c(s).mul_add(x(s), c(s + 1) * x(s + 1)),
        3 => c(s).mul_add(x(s), c(s + 1).mul_add(x(s + 1), c(s + 2) * x(s + 2))),
        _ => c(s).mul_add(
            x(s),
            c(s + 1).mul_add(x(s + 1), c(s + 2).mul_add(x(s + 2), c(s + 3) * x(s + 3))),
        ),
    };
    let mut v = match (terms.len().min(4), accumulate) {
        (0, false) => T::ZERO,
        (0, true) => o,
        (1, true) => c(0).mul_add(x(0), o),
        (n, true) => o + chain(0, n),
        (n, false) => chain(0, n),
    };
    let mut s = 4;
    while s < terms.len() {
        let n = (terms.len() - s).min(4);
        v = if n == 1 {
            c(s).mul_add(x(s), v)
        } else {
            v + chain(s, n)
        };
        s += 4;
    }
    v
}

/// The row sweep of [`combine`]. The `_fma` twin runs the identical code
/// inside an `avx2,fma` target-feature scope so the `mul_add` chains
/// compile to FMA vector code instead of per-element libm calls — same
/// IEEE-754 results, picked once per process by the kernel dispatch.
#[inline(always)]
fn combine_sweep<T: Scalar>(
    dst: &mut MatMut<'_, T>,
    accumulate: bool,
    terms: &[(T, MatRef<'_, T>)],
) {
    let rows = dst.rows();
    for i in 0..rows {
        combine_row(dst.row_mut(i), accumulate, terms, i);
    }
}

/// # Safety
/// CPU must support avx2+fma (see [`crate::kernel::hardware_fma_enabled`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn combine_sweep_fma<T: Scalar>(
    dst: &mut MatMut<'_, T>,
    accumulate: bool,
    terms: &[(T, MatRef<'_, T>)],
) {
    combine_sweep(dst, accumulate, terms)
}

/// One destination row. Non-recursive: arities above 4 run the ≤4-term
/// bodies over 4-term chunks (the identical chain shapes the old
/// recursion produced), and everything is `inline(always)` so the row
/// sweep inlines into the target-feature wrapper and the mul_adds pick up
/// FMA codegen.
#[inline(always)]
fn combine_row<T: Scalar>(out: &mut [T], accumulate: bool, terms: &[(T, MatRef<'_, T>)], i: usize) {
    if terms.len() <= 4 {
        combine_row_small(out, accumulate, terms, i);
    } else {
        let (head, tail) = terms.split_at(4);
        combine_row_small(out, accumulate, head, i);
        for chunk in tail.chunks(4) {
            combine_row_small(out, true, chunk, i);
        }
    }
}

/// Row `i` of a source inside the row sweep, without [`MatRef::row`]'s
/// checks: [`combine`] sends a list with any transposed source to
/// [`combine_tiles`], and every source has `dst`'s shape.
#[inline(always)]
fn plain_row<'a, T: Scalar>(src: &MatRef<'a, T>, i: usize) -> &'a [T] {
    // SAFETY: plain and in range, by the routing above.
    unsafe { src.row_unchecked(i) }
}

/// The ≤4-term bodies of [`combine_row`], specialized so the inner loops
/// fuse into a single vectorized sweep.
#[inline(always)]
fn combine_row_small<T: Scalar>(
    out: &mut [T],
    accumulate: bool,
    terms: &[(T, MatRef<'_, T>)],
    i: usize,
) {
    match terms {
        [] => {
            if !accumulate {
                out.fill(T::ZERO);
            }
        }
        [(c0, s0)] => {
            let r0 = plain_row(s0, i);
            if accumulate {
                for (o, &x0) in out.iter_mut().zip(r0) {
                    *o = c0.mul_add(x0, *o);
                }
            } else {
                for (o, &x0) in out.iter_mut().zip(r0) {
                    *o = *c0 * x0;
                }
            }
        }
        [(c0, s0), (c1, s1)] => {
            let (r0, r1) = (plain_row(s0, i), plain_row(s1, i));
            for (j, o) in out.iter_mut().enumerate() {
                let v = c0.mul_add(r0[j], *c1 * r1[j]);
                *o = if accumulate { *o + v } else { v };
            }
        }
        [(c0, s0), (c1, s1), (c2, s2)] => {
            let (r0, r1, r2) = (plain_row(s0, i), plain_row(s1, i), plain_row(s2, i));
            for (j, o) in out.iter_mut().enumerate() {
                let v = c0.mul_add(r0[j], c1.mul_add(r1[j], *c2 * r2[j]));
                *o = if accumulate { *o + v } else { v };
            }
        }
        [(c0, s0), (c1, s1), (c2, s2), (c3, s3)] => {
            let (r0, r1, r2, r3) = (
                plain_row(s0, i),
                plain_row(s1, i),
                plain_row(s2, i),
                plain_row(s3, i),
            );
            for (j, o) in out.iter_mut().enumerate() {
                let v = c0.mul_add(r0[j], c1.mul_add(r1[j], c2.mul_add(r2[j], *c3 * r3[j])));
                *o = if accumulate { *o + v } else { v };
            }
        }
        _ => unreachable!("combine_row chunks terms to at most 4"),
    }
}

/// Parallel [`combine`]: destination rows are striped across the pool.
pub fn combine_par<T: Scalar>(
    dst: MatMut<'_, T>,
    accumulate: bool,
    terms: &[(T, MatRef<'_, T>)],
    par: Par,
) {
    match par.normalize() {
        Par::Seq => combine(dst, accumulate, terms),
        Par::Threads(t) => {
            let rows = dst.rows();
            if rows == 0 || terms.is_empty() {
                // Arity 0 is a fill/no-op; not worth fanning out.
                combine(dst, accumulate, terms);
                return;
            }
            let chunk = rows.div_ceil(t).max(1);
            // Stripes are carved and spawned in one sweep — no jobs Vec —
            // and each stripe restricts the term views through a
            // fixed-capacity inline buffer, so the whole fan-out is
            // heap-allocation-free up to `MAX_INLINE_COMBINE` terms.
            pool(t).scope(|s| {
                let mut rest = dst;
                let mut r0 = 0;
                while r0 < rows {
                    let take = chunk.min(rows - r0);
                    let (mut stripe, tail) = rest.split_at_row(take);
                    rest = tail;
                    s.spawn(move |_| {
                        let (srows, scols) = (stripe.rows(), stripe.cols());
                        if terms.len() <= MAX_INLINE_COMBINE {
                            let mut sub = [terms[0]; MAX_INLINE_COMBINE];
                            for (slot, (c, src)) in sub.iter_mut().zip(terms) {
                                *slot = (*c, src.subview(r0, 0, srows, scols));
                            }
                            combine(stripe.rb(), accumulate, &sub[..terms.len()]);
                        } else {
                            let sub_terms: Vec<(T, MatRef<'_, T>)> = terms
                                .iter()
                                .map(|(c, src)| (*c, src.subview(r0, 0, srows, scols)))
                                .collect();
                            combine(stripe.rb(), accumulate, &sub_terms);
                        }
                    });
                    r0 += take;
                }
            });
        }
    }
}

/// Term-arity ceiling for the allocation-free stripe path of
/// [`combine_par`]. Wider combinations fall back to a per-stripe Vec.
pub const MAX_INLINE_COMBINE: usize = 32;

/// Naive chained-AXPY version of [`combine`] — re-reads/re-writes `dst`
/// once per term. Kept as the baseline for the write-once ablation bench;
/// plain (non-transposed) sources only.
pub fn combine_axpy<T: Scalar>(
    mut dst: MatMut<'_, T>,
    accumulate: bool,
    terms: &[(T, MatRef<'_, T>)],
) {
    if !accumulate {
        dst.fill(T::ZERO);
    }
    #[cfg(target_arch = "x86_64")]
    if crate::kernel::hardware_fma_enabled() {
        // SAFETY: avx2+fma presence was verified at runtime.
        unsafe { combine_axpy_sweep_fma(&mut dst, terms) };
        return;
    }
    combine_axpy_sweep(&mut dst, terms);
}

#[inline(always)]
fn combine_axpy_sweep<T: Scalar>(dst: &mut MatMut<'_, T>, terms: &[(T, MatRef<'_, T>)]) {
    for (c, src) in terms {
        assert_eq!(src.rows(), dst.rows());
        assert_eq!(src.cols(), dst.cols());
        assert!(!src.is_transposed(), "combine_axpy takes plain sources");
        for i in 0..dst.rows() {
            let row = dst.row_mut(i);
            for (o, &x) in row.iter_mut().zip(src.row(i)) {
                *o = c.mul_add(x, *o);
            }
        }
    }
}

/// # Safety
/// CPU must support avx2+fma (see [`crate::kernel::hardware_fma_enabled`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn combine_axpy_sweep_fma<T: Scalar>(dst: &mut MatMut<'_, T>, terms: &[(T, MatRef<'_, T>)]) {
    combine_axpy_sweep(dst, terms)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Mat;

    fn mats(n: usize, count: usize) -> Vec<Mat<f64>> {
        (0..count)
            .map(|s| Mat::from_fn(n, n, |i, j| ((i * n + j) as f64 + 1.0) * (s + 1) as f64))
            .collect()
    }

    fn check_combination(count: usize) {
        let n = 13;
        let srcs = mats(n, count);
        let coeffs: Vec<f64> = (0..count).map(|i| (i as f64 - 1.5) * 0.5).collect();
        let terms: Vec<(f64, _)> = coeffs
            .iter()
            .zip(&srcs)
            .map(|(&c, m)| (c, m.as_ref()))
            .collect();
        let mut dst = Mat::<f64>::from_fn(n, n, |i, j| (i + j) as f64);
        let base = dst.clone();
        combine(dst.as_mut(), true, &terms);
        for i in 0..n {
            for j in 0..n {
                let mut expect = base.at(i, j);
                for (t, src) in srcs.iter().enumerate() {
                    expect += coeffs[t] * src.at(i, j);
                }
                assert!(
                    (dst.at(i, j) - expect).abs() < 1e-10,
                    "arity {count} ({i},{j})"
                );
            }
        }
    }

    #[test]
    fn all_arities_accumulate_correctly() {
        for count in 0..=7 {
            check_combination(count);
        }
    }

    /// Transposed sources (alone or mixed with plain ones) combine bitwise
    /// like their materialized transposes, in both modes and every chunking
    /// of the term list.
    #[test]
    fn transposed_sources_match_materialized_transposes() {
        let (rows, cols) = (37, 45);
        let srcs: Vec<Mat<f32>> = (0..7)
            .map(|s| Mat::from_fn(cols, rows, |i, j| ((i * 7 + j * 3 + s) as f32).sin()))
            .collect();
        let owned: Vec<Mat<f32>> = srcs.iter().map(|m| m.as_ref().t().to_owned()).collect();
        for count in 0..=7 {
            for mixed in [false, true] {
                let coeffs = |t: usize| 0.375 * t as f32 - 1.1;
                let views: Vec<(f32, MatRef<'_, f32>)> = (0..count)
                    .map(|t| {
                        let plain = mixed && t % 2 == 1;
                        let v = if plain {
                            owned[t].as_ref()
                        } else {
                            srcs[t].as_ref().t()
                        };
                        (coeffs(t), v)
                    })
                    .collect();
                let want_terms: Vec<(f32, MatRef<'_, f32>)> =
                    (0..count).map(|t| (coeffs(t), owned[t].as_ref())).collect();
                for accumulate in [false, true] {
                    let base = Mat::from_fn(rows, cols, |i, j| (i as f32 - j as f32) * 0.01);
                    let (mut got, mut want) = (base.clone(), base);
                    combine(got.as_mut(), accumulate, &views);
                    combine(want.as_mut(), accumulate, &want_terms);
                    let bits =
                        |m: &Mat<f32>| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                    assert_eq!(
                        bits(&got),
                        bits(&want),
                        "count {count} mixed {mixed} accumulate {accumulate}"
                    );
                }
            }
        }
    }

    #[test]
    fn overwrite_mode_ignores_destination() {
        let n = 5;
        let src = Mat::<f32>::from_fn(n, n, |i, j| (i * n + j) as f32);
        let mut dst = Mat::<f32>::from_fn(n, n, |_, _| 99.0);
        combine(dst.as_mut(), false, &[(2.0, src.as_ref())]);
        for i in 0..n {
            for j in 0..n {
                assert_eq!(dst.at(i, j), 2.0 * src.at(i, j));
            }
        }
    }

    #[test]
    fn empty_terms_zero_or_keep() {
        let mut dst = Mat::<f32>::from_fn(2, 2, |_, _| 7.0);
        combine(dst.as_mut(), true, &[]);
        assert_eq!(dst.at(0, 0), 7.0);
        combine(dst.as_mut(), false, &[]);
        assert_eq!(dst.at(1, 1), 0.0);
    }

    #[test]
    fn parallel_matches_sequential() {
        let n = 40;
        let srcs = mats(n, 5);
        let terms: Vec<(f64, _)> = srcs
            .iter()
            .enumerate()
            .map(|(i, m)| (i as f64 * 0.3 - 0.7, m.as_ref()))
            .collect();
        let mut seq = Mat::<f64>::zeros(n, n);
        combine(seq.as_mut(), false, &terms);
        for threads in [2, 3] {
            let mut par = Mat::<f64>::zeros(n, n);
            combine_par(par.as_mut(), false, &terms, Par::Threads(threads));
            assert_eq!(par, seq, "threads={threads}");
        }
    }

    #[test]
    fn axpy_baseline_matches_write_once() {
        let n = 9;
        let srcs = mats(n, 3);
        let terms: Vec<(f64, _)> = srcs.iter().map(|m| (0.25, m.as_ref())).collect();
        let mut a = Mat::<f64>::from_fn(n, n, |i, _| i as f64);
        let mut b = a.clone();
        combine(a.as_mut(), true, &terms);
        combine_axpy(b.as_mut(), true, &terms);
        assert!(a.rel_frobenius_error(&b) < 1e-14);
    }

    #[test]
    fn works_on_subviews() {
        // Combine quadrants of a larger matrix into a quadrant of another.
        let big = Mat::<f64>::from_fn(8, 8, |i, j| (i * 8 + j) as f64);
        let q00 = big.as_ref().subview(0, 0, 4, 4);
        let q11 = big.as_ref().subview(4, 4, 4, 4);
        let mut out = Mat::<f64>::zeros(8, 8);
        combine(
            out.as_mut().into_subview(0, 4, 4, 4),
            false,
            &[(1.0, q00), (-1.0, q11)],
        );
        assert_eq!(out.at(0, 4), big.at(0, 0) - big.at(4, 4));
        assert_eq!(out.at(3, 7), big.at(3, 3) - big.at(7, 7));
        assert_eq!(out.at(4, 4), 0.0);
    }
}
