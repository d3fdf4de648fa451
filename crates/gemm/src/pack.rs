//! Panel packing for the blocked GEMM (BLIS-style).
//!
//! The microkernel streams through *packed* panels: `A` blocks are
//! rearranged into MR-row slivers stored k-major (`ap[p·MR + i]`), `B`
//! blocks into NR-column slivers (`bp[p·NR + j]`). Ragged edges are
//! zero-padded so the kernel never branches on tile size.
//!
//! Since the register-tile shape is chosen at runtime by the kernel
//! dispatch ([`crate::kernel`]), the packers take the sliver height/width
//! (`mr`/`nr`) as a parameter — callers pass the active
//! [`crate::kernel::KernelSpec`]'s shape so panels always match the kernel
//! that will consume them.
//!
//! A source may be a transposed view ([`MatRef::t`]) — `Xᵀ` in
//! `dW = Xᵀ·dZ`, `Wᵀ` in `dX = dZ·Wᵀ`. The packers read it in place and
//! write the very panel transpose-then-pack would (same elements, same
//! per-element combination chains), so the microkernel, its FMA order and
//! every bitwise contract above it never learn the operand was
//! transposed. The orientation is decided once per panel, next to
//! [`unit_source`]; the row-major sweeps are untouched by it.

use crate::add::combine_elem;
use crate::matrix::MatRef;
use crate::scalar::Scalar;

/// Maximum operand-term arity staged inline (on the stack): by the blocked
/// driver when it cuts sub-blocks out of a term list, by the packers when
/// they untranspose one, and by the AVX2 checksum stage of the B packer.
/// Wider lists heap-stage / take the portable sweep. Matches the
/// executor's inline term budget with headroom.
pub const MAX_PACK_TERMS: usize = 32;

/// The panel `buf[..len]`, growing `buf` when it is shorter. Grow-only: a
/// pack buffer that alternates between panel shapes (KC slabs of unequal
/// depth, a wide layer after a narrow one) is zero-filled once, when it
/// first reaches its largest panel, and never again — a shorter panel is a
/// prefix. The panel holds stale values, so a sweep must write every
/// element of it, pad regions included.
#[inline]
fn size_panel<T: Scalar>(buf: &mut Vec<T>, len: usize) -> &mut [T] {
    if buf.len() < len {
        buf.resize(len, T::ZERO);
    }
    &mut buf[..len]
}

/// ABFT checksum accumulators fused into a pack sweep: per-`p` sums and
/// abs-sums (in f64) of the block being packed, so later corruption of the
/// packed panel stays detectable.
type PackSums<'s> = (&'s mut [f64], &'s mut [f64]);

/// The shared shape of a non-empty term list's sources.
pub(crate) fn terms_shape<T: Scalar>(terms: &[(T, MatRef<'_, T>)]) -> (usize, usize) {
    assert!(
        !terms.is_empty(),
        "a packed operand needs at least one term"
    );
    let shape = (terms[0].1.rows(), terms[0].1.cols());
    for (_, src) in terms {
        assert_eq!((src.rows(), src.cols()), shape, "source shape mismatch");
    }
    shape
}

/// The one place a plain operand is told apart from a combination: a list
/// that is exactly `[(1, src)]` packs with the copy sweeps, which write the
/// same panel `1·x` would (multiplying by one is exact; only a NaN's
/// payload could differ) without the multiply.
#[inline]
fn unit_source<'a, T: Scalar>(terms: &[(T, MatRef<'a, T>)]) -> Option<MatRef<'a, T>> {
    match terms {
        [(coeff, src)] if *coeff == T::ONE => Some(*src),
        _ => None,
    }
}

/// Row `i` of a source inside a row sweep, without [`MatRef::row`]'s
/// checks. The row sweeps only ever see plain sources: the packers route a
/// list with any transposed source to `pack_a_transposed` /
/// `pack_b_transposed`, which hand the sweeps the plain views (`t()`) a
/// transposed list transposes, and no sweep reads past its shape.
#[inline(always)]
fn plain_row<'a, T: Scalar>(src: &MatRef<'a, T>, i: usize) -> &'a [T] {
    // SAFETY: plain and in range, by the routing above.
    unsafe { src.row_unchecked(i) }
}

/// How a term list's sources are stored. `Cols`: every source is a
/// transposed view; `Mixed`: some are (e.g. a row-major CSE temp combined
/// with blocks of a transposed operand).
#[derive(Clone, Copy, PartialEq, Eq)]
enum Orientation {
    Rows,
    Cols,
    Mixed,
}

#[inline]
fn orientation<T: Scalar>(terms: &[(T, MatRef<'_, T>)]) -> Orientation {
    match terms.iter().filter(|(_, src)| src.is_transposed()).count() {
        0 => Orientation::Rows,
        n if n == terms.len() => Orientation::Cols,
        _ => Orientation::Mixed,
    }
}

/// Hand `f` the term list with every source replaced by `view(source)`
/// (a sub-block, the view a transposed source transposes). Uses a
/// fixed-capacity inline buffer (no heap) up to [`MAX_PACK_TERMS`] terms.
#[inline]
pub(crate) fn with_views<'a, T: Scalar, R>(
    terms: &[(T, MatRef<'a, T>)],
    view: impl Fn(&MatRef<'a, T>) -> MatRef<'a, T>,
    f: impl FnOnce(&[(T, MatRef<'a, T>)]) -> R,
) -> R {
    if terms.len() <= MAX_PACK_TERMS {
        let mut staged = [terms[0]; MAX_PACK_TERMS];
        for (slot, (coeff, src)) in staged.iter_mut().zip(terms) {
            *slot = (*coeff, view(src));
        }
        f(&staged[..terms.len()])
    } else {
        let staged: Vec<(T, MatRef<'a, T>)> =
            terms.iter().map(|(c, src)| (*c, view(src))).collect();
        f(&staged)
    }
}

/// Pack an `mc × kc` block of `A` into `mr`-row slivers.
///
/// Output layout: sliver `s` (rows `s·mr .. s·mr+mr`, zero-padded past
/// `mc`) occupies `kc·mr` consecutive elements; within a sliver the layout
/// is k-major: element `(i, p)` is at `p·mr + i`.
pub fn pack_a<T: Scalar>(a: MatRef<'_, T>, buf: &mut Vec<T>, mr: usize) {
    pack_a_combined(&[(T::ONE, a)], buf, mr);
}

/// Pack the `mc × kc` block `Σ coeff_t · A_t` into MR-row slivers, forming
/// the linear combination *during* the pack sweep (write-once into the
/// panel; no intermediate S buffer is ever materialized). Layout and
/// padding are [`pack_a`]'s, and the panel is bitwise equal to
/// [`crate::add::combine`]-then-`pack_a`.
///
/// Like every public packer it leaves `buf` exactly one panel long; the
/// drivers call the packers underneath, which only ever grow a buffer.
pub fn pack_a_combined<T: Scalar>(terms: &[(T, MatRef<'_, T>)], buf: &mut Vec<T>, mr: usize) {
    let len = pack_a_terms(terms, buf, mr);
    buf.truncate(len);
}

/// Pack a `kc × nc` block of `B` into `nr`-column slivers.
///
/// Output layout: sliver `s` (columns `s·nr .. s·nr+nr`, zero-padded past
/// `nc`) occupies `kc·nr` consecutive elements; within a sliver element
/// `(p, j)` is at `p·nr + j`.
pub fn pack_b<T: Scalar>(b: MatRef<'_, T>, buf: &mut Vec<T>, nr: usize) {
    pack_b_combined(&[(T::ONE, b)], buf, nr);
}

/// Pack the `kc × nc` block `Σ coeff_t · B_t` into NR-column slivers,
/// forming the combination during the pack sweep. Layout and padding are
/// [`pack_b`]'s; the bitwise-vs-`combine` guarantee mirrors
/// [`pack_a_combined`].
pub fn pack_b_combined<T: Scalar>(terms: &[(T, MatRef<'_, T>)], buf: &mut Vec<T>, nr: usize) {
    let len = pack_b_terms(terms, buf, nr, None);
    buf.truncate(len);
}

/// The A packer behind [`pack_a`] / [`pack_a_combined`]. Per element the
/// combination is evaluated with exactly the mul_add chain
/// [`crate::add::combine`] uses, so packing `terms` is bitwise equal to
/// `combine`-then-`pack_a`.
///
/// All sources must share one shape; `terms` must be non-empty. The panel
/// is `buf[..len]` for the returned `len` (see [`size_panel`]).
pub(crate) fn pack_a_terms<T: Scalar>(
    terms: &[(T, MatRef<'_, T>)],
    buf: &mut Vec<T>,
    mr: usize,
) -> usize {
    let (mc, kc) = terms_shape(terms);
    let panel = size_panel(buf, mc.div_ceil(mr) * kc * mr);
    let orient = orientation(terms);
    if orient != Orientation::Rows {
        pack_a_transposed(terms, orient, panel, mr, mc, kc);
        return panel.len();
    }
    if let Some(a) = unit_source(terms) {
        pack_a_sweep(a, panel, mr, mc, kc);
        return panel.len();
    }
    #[cfg(target_arch = "x86_64")]
    if crate::kernel::hardware_fma_enabled() {
        // SAFETY: avx2+fma presence was verified at runtime.
        unsafe { pack_a_combined_sweep_fma(terms, panel, mr, mc, kc) };
        return panel.len();
    }
    pack_a_combined_sweep(terms, panel, mr, mc, kc);
    panel.len()
}

/// The copy sweep of the A packer (unit lists).
fn pack_a_sweep<T: Scalar>(a: MatRef<'_, T>, buf: &mut [T], mr: usize, mc: usize, kc: usize) {
    if kc == 0 {
        return;
    }
    for (s, sliver) in buf.chunks_exact_mut(kc * mr).enumerate() {
        let i0 = s * mr;
        let rows = mr.min(mc - i0);
        for i in 0..rows {
            for (col, &v) in sliver
                .chunks_exact_mut(mr)
                .zip(&plain_row(&a, i0 + i)[..kc])
            {
                col[i] = v;
            }
        }
        zero_a_pad(sliver, 0, kc, mr, rows);
    }
}

/// Zero the pad rows (`rows..MR`) of one A sliver — the only region the
/// interior writes never touch.
#[inline]
fn zero_a_pad<T: Scalar>(buf: &mut [T], base: usize, kc: usize, mr: usize, rows: usize) {
    if rows < mr {
        for p in 0..kc {
            buf[base + p * mr + rows..base + p * mr + mr].fill(T::ZERO);
        }
    }
}

/// The sliver sweep of [`pack_a_combined`]. Kept monomorphic over the
/// dispatch decision: the `_fma` twin runs the identical code inside an
/// `avx2,fma` target-feature scope so the `mul_add` chains compile to FMA
/// vector code instead of per-element libm calls. Same IEEE-754 results.
#[inline(always)]
fn pack_a_combined_sweep<T: Scalar>(
    terms: &[(T, MatRef<'_, T>)],
    buf: &mut [T],
    mr: usize,
    mc: usize,
    kc: usize,
) {
    let slivers = mc.div_ceil(mr);
    for s in 0..slivers {
        let base = s * kc * mr;
        let i0 = s * mr;
        let rows = mr.min(mc - i0);
        for i in 0..rows {
            combined_row_strided(terms, i0 + i, &mut buf[base + i..], mr, kc);
        }
        zero_a_pad(buf, base, kc, mr, rows);
    }
}

/// # Safety
/// CPU must support avx2+fma (see [`crate::kernel::hardware_fma_enabled`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn pack_a_combined_sweep_fma<T: Scalar>(
    terms: &[(T, MatRef<'_, T>)],
    buf: &mut [T],
    mr: usize,
    mc: usize,
    kc: usize,
) {
    pack_a_combined_sweep(terms, buf, mr, mc, kc)
}

/// The A packer for a list with transposed sources. A k-major A sliver is
/// exactly a B sliver (`nr = mr`) of the sources a transposed list
/// transposes, so the B row sweeps pack it: `mr`-wide contiguous runs of
/// each source row, the same per-element chains as packing the
/// materialized transpose. A mixed list goes element by element. Out of
/// line (one call per panel), so the row-major packers compile as they
/// did without it.
#[inline(never)]
fn pack_a_transposed<T: Scalar>(
    terms: &[(T, MatRef<'_, T>)],
    orient: Orientation,
    buf: &mut [T],
    mr: usize,
    mc: usize,
    kc: usize,
) {
    if orient == Orientation::Mixed {
        pack_by_element(buf, mr, mc, kc, |i, p| {
            combine_elem(T::ZERO, false, terms, i, p)
        });
        return;
    }
    with_views(terms, MatRef::t, |src| {
        if let Some(s) = unit_source(src) {
            pack_b_sweep(s, buf, mr, mc, kc, None);
            return;
        }
        #[cfg(target_arch = "x86_64")]
        if crate::kernel::hardware_fma_enabled() {
            // SAFETY: avx2+fma presence was verified at runtime.
            unsafe { pack_b_combined_sweep_fma(src, buf, mr, mc, kc, None) };
            return;
        }
        pack_b_combined_sweep(src, buf, mr, mc, kc, None);
    })
}

/// Any panel, one element at a time: `lines × kc` values `at(l, p)` into
/// `width`-wide slivers (`l` runs across a sliver, `p` down it; pads
/// zeroed). The packers' fallback for mixed-orientation term lists, which
/// [`combine_elem`] evaluates with the row sweeps' chains.
fn pack_by_element<T: Scalar>(
    buf: &mut [T],
    width: usize,
    lines: usize,
    kc: usize,
    at: impl Fn(usize, usize) -> T,
) {
    for s in 0..lines.div_ceil(width) {
        let l0 = s * width;
        let n = width.min(lines - l0);
        for p in 0..kc {
            let seg = &mut buf[s * kc * width + p * width..][..width];
            for (q, v) in seg[..n].iter_mut().enumerate() {
                *v = at(l0 + q, p);
            }
            seg[n..].fill(T::ZERO);
        }
    }
}

/// The B packer behind [`pack_b`] / [`pack_b_combined`]. With `sums` it
/// also records the fused ABFT row checksums `sum[p] = Σ_j P[p, j]` and
/// `mag[p] = Σ_j |P[p, j]|` (f64) of the block `P` being packed, during
/// the same sweep that writes the panel — the only per-element ABFT cost
/// on the hot path, so it must stay a few vector ops per cache line and
/// never take a second pass over B. A combination's checksums are taken
/// from the **packed combined values** (the kernel's actual input), so
/// operand-combination rounding never enters the row residual.
/// Corruption of the packed panel *after* this sweep (the ABFT fault
/// model) still diverges from the recorded sums and stays detectable.
///
/// The packed panel never depends on `sums`: the vector bodies replicate
/// `combine`'s mul_add chains lane-wise. The panel is `buf[..len]` for the
/// returned `len` (see [`size_panel`]).
pub(crate) fn pack_b_terms<T: Scalar>(
    terms: &[(T, MatRef<'_, T>)],
    buf: &mut Vec<T>,
    nr: usize,
    sums: Option<(&mut Vec<f64>, &mut Vec<f64>)>,
) -> usize {
    let (kc, nc) = terms_shape(terms);
    let panel = size_panel(buf, nc.div_ceil(nr) * kc * nr);
    let sums: Option<PackSums<'_>> = sums.map(|(sum, mag)| {
        sum.clear();
        sum.resize(kc, 0.0);
        mag.clear();
        mag.resize(kc, 0.0);
        (&mut sum[..], &mut mag[..])
    });
    let orient = orientation(terms);
    if orient != Orientation::Rows {
        pack_b_transposed(terms, orient, panel, nr, nc, kc, sums);
        return panel.len();
    }
    let unit = unit_source(terms);
    #[cfg(target_arch = "x86_64")]
    if crate::kernel::hardware_fma_enabled() {
        // SAFETY: avx2+fma presence was verified at runtime.
        unsafe {
            match unit {
                Some(b) => pack_b_sweep_fma(b, panel, nr, nc, kc, sums),
                None => pack_b_combined_sweep_fma(terms, panel, nr, nc, kc, sums),
            }
        }
        return panel.len();
    }
    match unit {
        Some(b) => pack_b_sweep(b, panel, nr, nc, kc, sums),
        None => pack_b_combined_sweep(terms, panel, nr, nc, kc, sums),
    }
    panel.len()
}

/// The copy sweep of the B packer (unit lists); same dispatch story as
/// [`pack_a_combined_sweep`] — the `_fma` twin only changes codegen
/// (vectorizing the checksum lanes), never the IEEE-754 results.
#[inline(always)]
fn pack_b_sweep<T: Scalar>(
    b: MatRef<'_, T>,
    buf: &mut [T],
    nr: usize,
    nc: usize,
    kc: usize,
    mut sums: Option<PackSums<'_>>,
) {
    let slivers = nc.div_ceil(nr);
    for p in 0..kc {
        let brow = plain_row(&b, p);
        for s in 0..slivers {
            let base = s * kc * nr + p * nr;
            let j0 = s * nr;
            let cols = nr.min(nc - j0);
            buf[base..base + cols].copy_from_slice(&brow[j0..j0 + cols]);
            buf[base + cols..base + nr].fill(T::ZERO);
        }
        if let Some((sum, mag)) = &mut sums {
            let (rs, ra) = crate::abft::row_sum_abs_fast(&brow[..nc]);
            sum[p] = rs;
            mag[p] = ra;
        }
    }
}

/// # Safety
/// CPU must support avx2+fma (see [`crate::kernel::hardware_fma_enabled`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn pack_b_sweep_fma<T: Scalar>(
    b: MatRef<'_, T>,
    buf: &mut [T],
    nr: usize,
    nc: usize,
    kc: usize,
    sums: Option<PackSums<'_>>,
) {
    pack_b_sweep(b, buf, nr, nc, kc, sums)
}

/// Source rows a transposed-B pass takes at once (see [`pack_bt_sweep`]).
const BT_ROWS: usize = 8;
/// `p` depth of one copying transposed-B pass: every group of a sliver
/// covers the same `BT_COPY_DEPTH` sliver rows before the sweep moves
/// down, so each row's cache lines fill completely while L1-hot.
const BT_COPY_DEPTH: usize = 64;
/// `p` depth of one combining pass: the stack stage its rows are formed
/// in holds `BT_ROWS × BT_DEPTH` elements (a typical KC: the row chains
/// then run one long segment per source row).
const BT_DEPTH: usize = 384;

/// The B packer for a list with transposed sources. A transposed list
/// hands [`pack_bt_sweep`] (under the FMA dispatch) the plain `nc × kc`
/// sources `S` it transposes: panel element `(p, j)` is `Σ c·S[j, p]`. A
/// mixed list goes element by element, its checksums read back from the
/// panel. Out of line like [`pack_a_transposed`].
#[inline(never)]
fn pack_b_transposed<T: Scalar>(
    terms: &[(T, MatRef<'_, T>)],
    orient: Orientation,
    buf: &mut [T],
    nr: usize,
    nc: usize,
    kc: usize,
    sums: Option<PackSums<'_>>,
) {
    if orient == Orientation::Mixed {
        pack_by_element(buf, nr, nc, kc, |j, p| {
            combine_elem(T::ZERO, false, terms, p, j)
        });
        if let Some((sum, mag)) = sums {
            for p in 0..kc {
                for s in 0..nc.div_ceil(nr) {
                    for &v in &buf[s * kc * nr + p * nr..][..nr.min(nc - s * nr)] {
                        sum[p] += v.to_f64();
                        mag[p] += v.to_f64().abs();
                    }
                }
            }
        }
        return;
    }
    with_views(terms, MatRef::t, |src| {
        #[cfg(target_arch = "x86_64")]
        if crate::kernel::hardware_fma_enabled() {
            // SAFETY: avx2+fma presence was verified at runtime.
            unsafe { pack_bt_sweep_fma(src, buf, nr, nc, kc, sums) };
            return;
        }
        pack_bt_sweep(src, buf, nr, nc, kc, sums);
    })
}

/// The transposed-B sweep. One column of B is one contiguous source row,
/// so a sliver is filled [`BT_ROWS`] source rows at a time: for every `p`
/// one `BT_ROWS`-wide store fed by `BT_ROWS` sequential read streams —
/// not one strided column per source row. A unit list copies straight
/// from the source rows; a combination first forms its rows `BT_DEPTH`
/// deep with the row sweeps' chains ([`combined_segment`]) into a stack
/// stage. Checksums, when asked for, are summed from the same rows
/// (`sum[p] += S[j, p]`, f64, vertical across `p`), so they too come
/// from the packed values without a second pass.
#[inline(always)]
fn pack_bt_sweep<T: Scalar>(
    src: &[(T, MatRef<'_, T>)],
    buf: &mut [T],
    nr: usize,
    nc: usize,
    kc: usize,
    mut sums: Option<PackSums<'_>>,
) {
    let unit = unit_source(src);
    let mut stage = [[T::ZERO; BT_DEPTH]; BT_ROWS];
    let step = if unit.is_some() {
        BT_COPY_DEPTH
    } else {
        BT_DEPTH
    };
    for s in 0..nc.div_ceil(nr) {
        let sliver = &mut buf[s * kc * nr..][..kc * nr];
        let j0 = s * nr;
        let cols = nr.min(nc - j0);
        for p0 in (0..kc).step_by(step) {
            let depth = step.min(kc - p0);
            for g in (0..cols).step_by(BT_ROWS) {
                let w = BT_ROWS.min(cols - g);
                let mut rows: [&[T]; BT_ROWS] = [&[]; BT_ROWS];
                match unit {
                    Some(b) => {
                        for (q, row) in rows[..w].iter_mut().enumerate() {
                            *row = &plain_row(&b, j0 + g + q)[p0..p0 + depth];
                        }
                    }
                    None => {
                        for (q, line) in stage[..w].iter_mut().enumerate() {
                            combined_segment(src, j0 + g + q, p0, &mut line[..depth]);
                        }
                        for (row, line) in rows[..w].iter_mut().zip(&stage) {
                            *row = &line[..depth];
                        }
                    }
                }
                scatter_rows(&rows[..w], sliver, nr, g, p0, &mut sums);
            }
        }
        if cols < nr {
            for p in 0..kc {
                sliver[p * nr + cols..p * nr + nr].fill(T::ZERO);
            }
        }
    }
}

/// Store `rows[q][p]` at sliver element `(p0 + p, g + q)` (`p`-major,
/// stride `nr`) and, with checksums, add each row into `sum`/`mag` at
/// `p0 + p`.
#[inline(always)]
fn scatter_rows<T: Scalar>(
    rows: &[&[T]],
    sliver: &mut [T],
    nr: usize,
    g: usize,
    p0: usize,
    sums: &mut Option<PackSums<'_>>,
) {
    let depth = rows[0].len();
    let out = &mut sliver[p0 * nr + g..];
    if let Ok(full) = <&[&[T]; BT_ROWS]>::try_from(rows) {
        // Fixed width, every row cut to `depth`: no bounds checks left in
        // the loop, which unrolls to BT_ROWS loads and stores per `p`.
        let full = full.map(|row| &row[..depth]);
        for (p, seg) in out.chunks_mut(nr).take(depth).enumerate() {
            for (v, row) in seg[..BT_ROWS].iter_mut().zip(&full) {
                *v = row[p];
            }
        }
    } else {
        let segs = out.chunks_mut(nr).take(depth);
        for (p, seg) in segs.enumerate() {
            for (v, row) in seg.iter_mut().zip(rows) {
                *v = row[p];
            }
        }
    }
    if let Some((sum, mag)) = sums {
        let (sum, mag) = (&mut sum[p0..p0 + depth], &mut mag[p0..p0 + depth]);
        for row in rows {
            for ((s, m), &v) in sum.iter_mut().zip(mag.iter_mut()).zip(*row) {
                let v = v.to_f64();
                *s += v;
                *m += v.abs();
            }
        }
    }
}

/// # Safety
/// CPU must support avx2+fma (see [`crate::kernel::hardware_fma_enabled`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn pack_bt_sweep_fma<T: Scalar>(
    src: &[(T, MatRef<'_, T>)],
    buf: &mut [T],
    nr: usize,
    nc: usize,
    kc: usize,
    sums: Option<PackSums<'_>>,
) {
    pack_bt_sweep(src, buf, nr, nc, kc, sums)
}

/// The combining row sweep of the B packer. Checksums, when asked for,
/// come from a per-row read-back of the just-written (L1-hot) segments;
/// the hand-vectorized [`csimd`] bodies replace that on AVX2 hardware.
#[inline(always)]
fn pack_b_combined_sweep<T: Scalar>(
    terms: &[(T, MatRef<'_, T>)],
    buf: &mut [T],
    nr: usize,
    nc: usize,
    kc: usize,
    mut sums: Option<PackSums<'_>>,
) {
    let slivers = nc.div_ceil(nr);
    for p in 0..kc {
        for s in 0..slivers {
            let base = s * kc * nr + p * nr;
            let j0 = s * nr;
            let cols = nr.min(nc - j0);
            combined_segment(terms, p, j0, &mut buf[base..base + cols]);
            buf[base + cols..base + nr].fill(T::ZERO);
        }
        if let Some((sum, mag)) = &mut sums {
            let (mut rs, mut ra) = (0.0f64, 0.0f64);
            for s in 0..slivers {
                let base = s * kc * nr + p * nr;
                let cols = nr.min(nc - s * nr);
                for &v in &buf[base..base + cols] {
                    let v = v.to_f64();
                    rs += v;
                    ra += v.abs();
                }
            }
            sum[p] = rs;
            mag[p] = ra;
        }
    }
}

/// [`pack_b_combined_sweep`] under `avx2,fma` codegen; checksummed lists
/// that fit the inline stage take the [`csimd`] bodies, whose f64 checksum
/// lanes ride for free under the sweep's memory traffic.
///
/// # Safety
/// CPU must support avx2+fma (see [`crate::kernel::hardware_fma_enabled`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn pack_b_combined_sweep_fma<T: Scalar>(
    terms: &[(T, MatRef<'_, T>)],
    buf: &mut [T],
    nr: usize,
    nc: usize,
    kc: usize,
    sums: Option<PackSums<'_>>,
) {
    use core::any::TypeId;
    let staged = terms.len() <= MAX_PACK_TERMS;
    match sums {
        Some(sums) if staged && TypeId::of::<T>() == TypeId::of::<f32>() => {
            // SAFETY: T is f32 (same layout).
            let terms =
                &*(terms as *const [(T, MatRef<'_, T>)] as *const [(f32, MatRef<'_, f32>)]);
            let fbuf = std::slice::from_raw_parts_mut(buf.as_mut_ptr() as *mut f32, buf.len());
            csimd::pack_b_combined_sums_f32(terms, fbuf, nr, nc, kc, sums);
        }
        Some(sums) if staged && TypeId::of::<T>() == TypeId::of::<f64>() => {
            // SAFETY: T is f64 (same layout).
            let terms =
                &*(terms as *const [(T, MatRef<'_, T>)] as *const [(f64, MatRef<'_, f64>)]);
            let fbuf = std::slice::from_raw_parts_mut(buf.as_mut_ptr() as *mut f64, buf.len());
            csimd::pack_b_combined_sums_f64(terms, fbuf, nr, nc, kc, sums);
        }
        sums => pack_b_combined_sweep(terms, buf, nr, nc, kc, sums),
    }
}

/// Hand-written AVX2+FMA checksummed bodies of [`pack_b_terms`]. The
/// combine chains mirror [`combined_segment`] lane-wise (vector FMA has
/// the same single-rounding semantics as scalar `mul_add`), so the packed
/// panel stays bitwise equal across dispatch paths; the f64 checksum
/// lanes ride for free under the sweep's memory traffic.
#[cfg(target_arch = "x86_64")]
mod csimd {
    use super::{plain_row, PackSums, MAX_PACK_TERMS};
    use crate::matrix::MatRef;
    use core::arch::x86_64::*;

    /// Overwrite-combine chain `Σ_{e in o..o+n} co[e]·row_e[j..j+8]` for
    /// `n ≤ 4`, innermost term multiplied then FMA'd outward — the exact
    /// chain shape of `combined_segment_small`.
    ///
    /// # Safety
    /// Caller verified avx2+fma; every `rp[e]` (`e < o + n`) must be
    /// readable for `j + 8` elements.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn chain8_f32(
        co: &[f32; MAX_PACK_TERMS],
        rp: &[*const f32; MAX_PACK_TERMS],
        o: usize,
        n: usize,
        j: usize,
    ) -> __m256 {
        let term = |e: usize| (_mm256_set1_ps(co[e]), _mm256_loadu_ps(rp[e].add(j)));
        let (c0, r0) = term(o);
        if n == 1 {
            return _mm256_mul_ps(c0, r0);
        }
        let (c1, r1) = term(o + 1);
        if n == 2 {
            return _mm256_fmadd_ps(c0, r0, _mm256_mul_ps(c1, r1));
        }
        let (c2, r2) = term(o + 2);
        if n == 3 {
            return _mm256_fmadd_ps(c0, r0, _mm256_fmadd_ps(c1, r1, _mm256_mul_ps(c2, r2)));
        }
        let (c3, r3) = term(o + 3);
        _mm256_fmadd_ps(
            c0,
            r0,
            _mm256_fmadd_ps(c1, r1, _mm256_fmadd_ps(c2, r2, _mm256_mul_ps(c3, r3))),
        )
    }

    /// Full-arity combined segment (8 f32 lanes), chunked ≤4 exactly like
    /// `combined_segment` / `accumulate_segment_small`.
    ///
    /// # Safety
    /// As [`chain8_f32`], for all `t` terms.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn combine8_f32(
        co: &[f32; MAX_PACK_TERMS],
        rp: &[*const f32; MAX_PACK_TERMS],
        t: usize,
        j: usize,
    ) -> __m256 {
        let mut v = chain8_f32(co, rp, 0, t.min(4), j);
        let mut o = 4;
        while o < t {
            let n = (t - o).min(4);
            if n == 1 {
                v = _mm256_fmadd_ps(_mm256_set1_ps(co[o]), _mm256_loadu_ps(rp[o].add(j)), v);
            } else {
                v = _mm256_add_ps(v, chain8_f32(co, rp, o, n, j));
            }
            o += 4;
        }
        v
    }

    /// Scalar one-column combine with the identical mul_add chains, for
    /// the `nc % 8` tail.
    ///
    /// # Safety
    /// Every `rp[e]` must be readable at offset `j`.
    unsafe fn combine1_f32(
        co: &[f32; MAX_PACK_TERMS],
        rp: &[*const f32; MAX_PACK_TERMS],
        t: usize,
        j: usize,
    ) -> f32 {
        let x = |e: usize| *rp[e].add(j);
        let chain = |o: usize, n: usize| match n {
            1 => co[o] * x(o),
            2 => co[o].mul_add(x(o), co[o + 1] * x(o + 1)),
            3 => co[o].mul_add(x(o), co[o + 1].mul_add(x(o + 1), co[o + 2] * x(o + 2))),
            _ => co[o].mul_add(
                x(o),
                co[o + 1].mul_add(x(o + 1), co[o + 2].mul_add(x(o + 2), co[o + 3] * x(o + 3))),
            ),
        };
        let mut v = chain(0, t.min(4));
        let mut o = 4;
        while o < t {
            let n = (t - o).min(4);
            if n == 1 {
                v = co[o].mul_add(x(o), v);
            } else {
                v += chain(o, n);
            }
            o += 4;
        }
        v
    }

    /// # Safety
    /// CPU must support avx2+fma; `nr` must be a multiple of 8; `buf`
    /// must hold `nc.div_ceil(nr)·kc·nr` elements; `sum`/`mag` length
    /// `kc`.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn pack_b_combined_sums_f32(
        terms: &[(f32, MatRef<'_, f32>)],
        buf: &mut [f32],
        nr: usize,
        nc: usize,
        kc: usize,
        sums: PackSums<'_>,
    ) {
        debug_assert_eq!(nr % 8, 0);
        let (sum, mag) = sums;
        let t = terms.len();
        let mut co = [0.0f32; MAX_PACK_TERMS];
        for (e, (c, _)) in terms.iter().enumerate() {
            co[e] = *c;
        }
        let sign = _mm256_set1_ps(-0.0);
        let mut rp = [core::ptr::null::<f32>(); MAX_PACK_TERMS];
        let full = nc & !7;
        for p in 0..kc {
            for (e, (_, src)) in terms.iter().enumerate() {
                rp[e] = plain_row(src, p).as_ptr();
            }
            let mut s0 = _mm256_setzero_pd();
            let mut s1 = _mm256_setzero_pd();
            let mut m0 = _mm256_setzero_pd();
            let mut m1 = _mm256_setzero_pd();
            let mut j = 0usize;
            while j < full {
                let v = combine8_f32(&co, &rp, t, j);
                let sl = j / nr;
                let dst = sl * kc * nr + p * nr + (j - sl * nr);
                _mm256_storeu_ps(buf.as_mut_ptr().add(dst), v);
                s0 = _mm256_add_pd(s0, _mm256_cvtps_pd(_mm256_castps256_ps128(v)));
                s1 = _mm256_add_pd(s1, _mm256_cvtps_pd(_mm256_extractf128_ps(v, 1)));
                let av = _mm256_andnot_ps(sign, v);
                m0 = _mm256_add_pd(m0, _mm256_cvtps_pd(_mm256_castps256_ps128(av)));
                m1 = _mm256_add_pd(m1, _mm256_cvtps_pd(_mm256_extractf128_ps(av, 1)));
                j += 8;
            }
            let mut lane = [0.0f64; 4];
            let (mut rs, mut ra) = (0.0f64, 0.0f64);
            _mm256_storeu_pd(lane.as_mut_ptr(), _mm256_add_pd(s0, s1));
            for &l in &lane {
                rs += l;
            }
            _mm256_storeu_pd(lane.as_mut_ptr(), _mm256_add_pd(m0, m1));
            for &l in &lane {
                ra += l;
            }
            while j < nc {
                let v = combine1_f32(&co, &rp, t, j);
                let sl = j / nr;
                buf[sl * kc * nr + p * nr + (j - sl * nr)] = v;
                let vd = v as f64;
                rs += vd;
                ra += vd.abs();
                j += 1;
            }
            if !nc.is_multiple_of(nr) {
                let sl = nc / nr;
                let base = sl * kc * nr + p * nr;
                buf[base + (nc - sl * nr)..base + nr].fill(0.0);
            }
            sum[p] = rs;
            mag[p] = ra;
        }
    }

    /// f64 overwrite-combine chain (4 lanes), mirroring [`chain8_f32`].
    ///
    /// # Safety
    /// As [`chain8_f32`], reading `j + 4` elements.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn chain4_f64(
        co: &[f64; MAX_PACK_TERMS],
        rp: &[*const f64; MAX_PACK_TERMS],
        o: usize,
        n: usize,
        j: usize,
    ) -> __m256d {
        let term = |e: usize| (_mm256_set1_pd(co[e]), _mm256_loadu_pd(rp[e].add(j)));
        let (c0, r0) = term(o);
        if n == 1 {
            return _mm256_mul_pd(c0, r0);
        }
        let (c1, r1) = term(o + 1);
        if n == 2 {
            return _mm256_fmadd_pd(c0, r0, _mm256_mul_pd(c1, r1));
        }
        let (c2, r2) = term(o + 2);
        if n == 3 {
            return _mm256_fmadd_pd(c0, r0, _mm256_fmadd_pd(c1, r1, _mm256_mul_pd(c2, r2)));
        }
        let (c3, r3) = term(o + 3);
        _mm256_fmadd_pd(
            c0,
            r0,
            _mm256_fmadd_pd(c1, r1, _mm256_fmadd_pd(c2, r2, _mm256_mul_pd(c3, r3))),
        )
    }

    /// # Safety
    /// As [`chain4_f64`], for all `t` terms.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn combine4_f64(
        co: &[f64; MAX_PACK_TERMS],
        rp: &[*const f64; MAX_PACK_TERMS],
        t: usize,
        j: usize,
    ) -> __m256d {
        let mut v = chain4_f64(co, rp, 0, t.min(4), j);
        let mut o = 4;
        while o < t {
            let n = (t - o).min(4);
            if n == 1 {
                v = _mm256_fmadd_pd(_mm256_set1_pd(co[o]), _mm256_loadu_pd(rp[o].add(j)), v);
            } else {
                v = _mm256_add_pd(v, chain4_f64(co, rp, o, n, j));
            }
            o += 4;
        }
        v
    }

    /// Scalar one-column f64 combine for the `nc % 4` tail.
    ///
    /// # Safety
    /// Every `rp[e]` must be readable at offset `j`.
    unsafe fn combine1_f64(
        co: &[f64; MAX_PACK_TERMS],
        rp: &[*const f64; MAX_PACK_TERMS],
        t: usize,
        j: usize,
    ) -> f64 {
        let x = |e: usize| *rp[e].add(j);
        let chain = |o: usize, n: usize| match n {
            1 => co[o] * x(o),
            2 => co[o].mul_add(x(o), co[o + 1] * x(o + 1)),
            3 => co[o].mul_add(x(o), co[o + 1].mul_add(x(o + 1), co[o + 2] * x(o + 2))),
            _ => co[o].mul_add(
                x(o),
                co[o + 1].mul_add(x(o + 1), co[o + 2].mul_add(x(o + 2), co[o + 3] * x(o + 3))),
            ),
        };
        let mut v = chain(0, t.min(4));
        let mut o = 4;
        while o < t {
            let n = (t - o).min(4);
            if n == 1 {
                v = co[o].mul_add(x(o), v);
            } else {
                v += chain(o, n);
            }
            o += 4;
        }
        v
    }

    /// # Safety
    /// CPU must support avx2+fma; `nr` must be a multiple of 4; `buf`
    /// must hold `nc.div_ceil(nr)·kc·nr` elements; `sum`/`mag` length
    /// `kc`.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn pack_b_combined_sums_f64(
        terms: &[(f64, MatRef<'_, f64>)],
        buf: &mut [f64],
        nr: usize,
        nc: usize,
        kc: usize,
        sums: PackSums<'_>,
    ) {
        debug_assert_eq!(nr % 4, 0);
        let (sum, mag) = sums;
        let t = terms.len();
        let mut co = [0.0f64; MAX_PACK_TERMS];
        for (e, (c, _)) in terms.iter().enumerate() {
            co[e] = *c;
        }
        let sign = _mm256_set1_pd(-0.0);
        let mut rp = [core::ptr::null::<f64>(); MAX_PACK_TERMS];
        let full = nc & !3;
        for p in 0..kc {
            for (e, (_, src)) in terms.iter().enumerate() {
                rp[e] = plain_row(src, p).as_ptr();
            }
            let mut s0 = _mm256_setzero_pd();
            let mut m0 = _mm256_setzero_pd();
            let mut j = 0usize;
            while j < full {
                let v = combine4_f64(&co, &rp, t, j);
                let sl = j / nr;
                let dst = sl * kc * nr + p * nr + (j - sl * nr);
                _mm256_storeu_pd(buf.as_mut_ptr().add(dst), v);
                s0 = _mm256_add_pd(s0, v);
                m0 = _mm256_add_pd(m0, _mm256_andnot_pd(sign, v));
                j += 4;
            }
            let mut lane = [0.0f64; 4];
            let (mut rs, mut ra) = (0.0f64, 0.0f64);
            _mm256_storeu_pd(lane.as_mut_ptr(), s0);
            for &l in &lane {
                rs += l;
            }
            _mm256_storeu_pd(lane.as_mut_ptr(), m0);
            for &l in &lane {
                ra += l;
            }
            while j < nc {
                let v = combine1_f64(&co, &rp, t, j);
                let sl = j / nr;
                buf[sl * kc * nr + p * nr + (j - sl * nr)] = v;
                rs += v;
                ra += v.abs();
                j += 1;
            }
            if !nc.is_multiple_of(nr) {
                let sl = nc / nr;
                let base = sl * kc * nr + p * nr;
                buf[base + (nc - sl * nr)..base + nr].fill(0.0);
            }
            sum[p] = rs;
            mag[p] = ra;
        }
    }
}

/// Write `out[q] ← Σ_t coeff_t · src_t[i, j0 + q]` for a contiguous column
/// segment of row `i`, using `combine`'s arity-specialized mul_add chains.
///
/// Non-recursive: arities above 4 run the ≤4-term bodies over 4-term
/// chunks (the identical chain shapes the old recursion produced), and
/// everything is `inline(always)` so the sweep inlines into the
/// target-feature wrappers and the mul_adds pick up FMA codegen.
#[inline(always)]
fn combined_segment<T: Scalar>(terms: &[(T, MatRef<'_, T>)], i: usize, j0: usize, out: &mut [T]) {
    if terms.len() <= 4 {
        combined_segment_small(terms, i, j0, out);
    } else {
        let (head, tail) = terms.split_at(4);
        combined_segment_small(head, i, j0, out);
        for chunk in tail.chunks(4) {
            accumulate_segment_small(chunk, i, j0, out);
        }
    }
}

/// The ≤4-term overwrite bodies of [`combined_segment`].
#[inline(always)]
fn combined_segment_small<T: Scalar>(
    terms: &[(T, MatRef<'_, T>)],
    i: usize,
    j0: usize,
    out: &mut [T],
) {
    let w = out.len();
    match terms {
        [] => unreachable!("empty term list rejected at entry"),
        [(c0, s0)] => {
            let r0 = &plain_row(s0, i)[j0..j0 + w];
            for (o, &x0) in out.iter_mut().zip(r0) {
                *o = *c0 * x0;
            }
        }
        [(c0, s0), (c1, s1)] => {
            let (r0, r1) = (&plain_row(s0, i)[j0..j0 + w], &plain_row(s1, i)[j0..j0 + w]);
            for (q, o) in out.iter_mut().enumerate() {
                *o = c0.mul_add(r0[q], *c1 * r1[q]);
            }
        }
        [(c0, s0), (c1, s1), (c2, s2)] => {
            let (r0, r1, r2) = (
                &plain_row(s0, i)[j0..j0 + w],
                &plain_row(s1, i)[j0..j0 + w],
                &plain_row(s2, i)[j0..j0 + w],
            );
            for (q, o) in out.iter_mut().enumerate() {
                *o = c0.mul_add(r0[q], c1.mul_add(r1[q], *c2 * r2[q]));
            }
        }
        [(c0, s0), (c1, s1), (c2, s2), (c3, s3)] => {
            let (r0, r1, r2, r3) = (
                &plain_row(s0, i)[j0..j0 + w],
                &plain_row(s1, i)[j0..j0 + w],
                &plain_row(s2, i)[j0..j0 + w],
                &plain_row(s3, i)[j0..j0 + w],
            );
            for (q, o) in out.iter_mut().enumerate() {
                *o = c0.mul_add(r0[q], c1.mul_add(r1[q], c2.mul_add(r2[q], *c3 * r3[q])));
            }
        }
        _ => unreachable!("combined_segment chunks terms to at most 4"),
    }
}

/// `out[q] += Σ_t coeff_t · src_t[i, j0 + q]` with the accumulate-mode
/// arithmetic of `combine` (single-term FMA into the accumulator; wider
/// arities form the chain then add). At most 4 terms per call.
#[inline(always)]
fn accumulate_segment_small<T: Scalar>(
    terms: &[(T, MatRef<'_, T>)],
    i: usize,
    j0: usize,
    out: &mut [T],
) {
    let w = out.len();
    match terms {
        [] => {}
        [(c0, s0)] => {
            let r0 = &plain_row(s0, i)[j0..j0 + w];
            for (o, &x0) in out.iter_mut().zip(r0) {
                *o = c0.mul_add(x0, *o);
            }
        }
        [(c0, s0), (c1, s1)] => {
            let (r0, r1) = (&plain_row(s0, i)[j0..j0 + w], &plain_row(s1, i)[j0..j0 + w]);
            for (q, o) in out.iter_mut().enumerate() {
                *o += c0.mul_add(r0[q], *c1 * r1[q]);
            }
        }
        [(c0, s0), (c1, s1), (c2, s2)] => {
            let (r0, r1, r2) = (
                &plain_row(s0, i)[j0..j0 + w],
                &plain_row(s1, i)[j0..j0 + w],
                &plain_row(s2, i)[j0..j0 + w],
            );
            for (q, o) in out.iter_mut().enumerate() {
                *o += c0.mul_add(r0[q], c1.mul_add(r1[q], *c2 * r2[q]));
            }
        }
        [(c0, s0), (c1, s1), (c2, s2), (c3, s3)] => {
            let (r0, r1, r2, r3) = (
                &plain_row(s0, i)[j0..j0 + w],
                &plain_row(s1, i)[j0..j0 + w],
                &plain_row(s2, i)[j0..j0 + w],
                &plain_row(s3, i)[j0..j0 + w],
            );
            for (q, o) in out.iter_mut().enumerate() {
                *o += c0.mul_add(r0[q], c1.mul_add(r1[q], c2.mul_add(r2[q], *c3 * r3[q])));
            }
        }
        _ => unreachable!("accumulate_segment_small takes at most 4 terms"),
    }
}

/// Strided variant of [`combined_segment`]: write the combined row `i`
/// (all `kc` columns) into `out[p · stride]` for `p = 0..kc`, the k-major
/// A-sliver layout. Same non-recursive chunking.
#[inline(always)]
fn combined_row_strided<T: Scalar>(
    terms: &[(T, MatRef<'_, T>)],
    i: usize,
    out: &mut [T],
    stride: usize,
    kc: usize,
) {
    if terms.len() <= 4 {
        combined_row_strided_small(terms, i, out, stride, kc);
    } else {
        let (head, tail) = terms.split_at(4);
        combined_row_strided_small(head, i, out, stride, kc);
        for chunk in tail.chunks(4) {
            accumulate_row_strided_small(chunk, i, out, stride, kc);
        }
    }
}

/// The ≤4-term overwrite bodies of [`combined_row_strided`].
#[inline(always)]
fn combined_row_strided_small<T: Scalar>(
    terms: &[(T, MatRef<'_, T>)],
    i: usize,
    out: &mut [T],
    stride: usize,
    kc: usize,
) {
    match terms {
        [] => unreachable!("empty term list rejected at entry"),
        [(c0, s0)] => {
            for (p, &x0) in plain_row(s0, i).iter().enumerate() {
                out[p * stride] = *c0 * x0;
            }
        }
        [(c0, s0), (c1, s1)] => {
            let (r0, r1) = (plain_row(s0, i), plain_row(s1, i));
            for p in 0..kc {
                out[p * stride] = c0.mul_add(r0[p], *c1 * r1[p]);
            }
        }
        [(c0, s0), (c1, s1), (c2, s2)] => {
            let (r0, r1, r2) = (plain_row(s0, i), plain_row(s1, i), plain_row(s2, i));
            for p in 0..kc {
                out[p * stride] = c0.mul_add(r0[p], c1.mul_add(r1[p], *c2 * r2[p]));
            }
        }
        [(c0, s0), (c1, s1), (c2, s2), (c3, s3)] => {
            let (r0, r1, r2, r3) = (
                plain_row(s0, i),
                plain_row(s1, i),
                plain_row(s2, i),
                plain_row(s3, i),
            );
            for p in 0..kc {
                out[p * stride] =
                    c0.mul_add(r0[p], c1.mul_add(r1[p], c2.mul_add(r2[p], *c3 * r3[p])));
            }
        }
        _ => unreachable!("combined_row_strided chunks terms to at most 4"),
    }
}

/// Accumulate counterpart of [`combined_row_strided_small`]; at most 4
/// terms per call.
#[inline(always)]
fn accumulate_row_strided_small<T: Scalar>(
    terms: &[(T, MatRef<'_, T>)],
    i: usize,
    out: &mut [T],
    stride: usize,
    kc: usize,
) {
    match terms {
        [] => {}
        [(c0, s0)] => {
            let r0 = plain_row(s0, i);
            for p in 0..kc {
                out[p * stride] = c0.mul_add(r0[p], out[p * stride]);
            }
        }
        [(c0, s0), (c1, s1)] => {
            let (r0, r1) = (plain_row(s0, i), plain_row(s1, i));
            for p in 0..kc {
                out[p * stride] += c0.mul_add(r0[p], *c1 * r1[p]);
            }
        }
        [(c0, s0), (c1, s1), (c2, s2)] => {
            let (r0, r1, r2) = (plain_row(s0, i), plain_row(s1, i), plain_row(s2, i));
            for p in 0..kc {
                out[p * stride] += c0.mul_add(r0[p], c1.mul_add(r1[p], *c2 * r2[p]));
            }
        }
        [(c0, s0), (c1, s1), (c2, s2), (c3, s3)] => {
            let (r0, r1, r2, r3) = (
                plain_row(s0, i),
                plain_row(s1, i),
                plain_row(s2, i),
                plain_row(s3, i),
            );
            for p in 0..kc {
                out[p * stride] +=
                    c0.mul_add(r0[p], c1.mul_add(r1[p], c2.mul_add(r2[p], *c3 * r3[p])));
            }
        }
        _ => unreachable!("accumulate_row_strided_small takes at most 4 terms"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Mat;

    #[test]
    fn pack_a_layout_exact_multiple() {
        // mc = MR, kc = 2 → single sliver, k-major.
        let mr = f32::MR;
        let a = Mat::<f32>::from_fn(mr, 2, |i, j| (i * 2 + j) as f32);
        let mut buf = Vec::new();
        pack_a(a.as_ref(), &mut buf, mr);
        assert_eq!(buf.len(), mr * 2);
        for i in 0..mr {
            assert_eq!(buf[i], a.at(i, 0)); // p = 0 sliver column
            assert_eq!(buf[mr + i], a.at(i, 1)); // p = 1
        }
    }

    #[test]
    fn pack_a_zero_pads_ragged_rows() {
        let mr = f32::MR;
        let a = Mat::<f32>::from_fn(mr + 3, 4, |i, j| (i * 10 + j) as f32 + 1.0);
        let mut buf = Vec::new();
        pack_a(a.as_ref(), &mut buf, mr);
        assert_eq!(buf.len(), 2 * 4 * mr);
        // Second sliver has 3 valid rows; the rest are zeros.
        for p in 0..4 {
            for i in 0..mr {
                let v = buf[4 * mr + p * mr + i];
                if i < 3 {
                    assert_eq!(v, a.at(mr + i, p));
                } else {
                    assert_eq!(v, 0.0);
                }
            }
        }
    }

    #[test]
    fn pack_b_layout_and_padding() {
        let nr = f32::NR;
        let b = Mat::<f32>::from_fn(3, nr + 2, |i, j| (i * 100 + j) as f32);
        let mut buf = Vec::new();
        pack_b(b.as_ref(), &mut buf, nr);
        assert_eq!(buf.len(), 2 * 3 * nr);
        for p in 0..3 {
            for j in 0..nr {
                assert_eq!(buf[p * nr + j], b.at(p, j));
            }
            for j in 0..nr {
                let v = buf[3 * nr + p * nr + j];
                if j < 2 {
                    assert_eq!(v, b.at(p, nr + j));
                } else {
                    assert_eq!(v, 0.0);
                }
            }
        }
    }

    #[test]
    fn panel_reuse_rezeros_ragged_pads() {
        // A big no-pad pack followed by a same-length ragged pack must not
        // leak stale interior values into the pad region.
        let mr = f32::MR;
        let mut buf = Vec::new();
        let full = Mat::<f32>::from_fn(2 * mr, 4, |_, _| 5.0);
        pack_a(full.as_ref(), &mut buf, mr);
        let ragged = Mat::<f32>::from_fn(mr + 1, 8, |_, _| 3.0);
        pack_a(ragged.as_ref(), &mut buf, mr); // resize path (len changes)
        pack_a(ragged.as_ref(), &mut buf, mr); // same-len reuse path
        for p in 0..8 {
            for i in 1..mr {
                assert_eq!(buf[8 * mr + p * mr + i], 0.0, "pad ({i},{p})");
            }
        }
        let nr = f32::NR;
        let mut bbuf = Vec::new();
        let bfull = Mat::<f32>::from_fn(3, 2 * nr, |_, _| 7.0);
        pack_b(bfull.as_ref(), &mut bbuf, nr);
        let bragged = Mat::<f32>::from_fn(3, nr + 1, |_, _| 2.0);
        pack_b(bragged.as_ref(), &mut bbuf, nr);
        pack_b(bragged.as_ref(), &mut bbuf, nr);
        for p in 0..3 {
            for j in 1..nr {
                assert_eq!(bbuf[3 * nr + p * nr + j], 0.0, "pad ({p},{j})");
            }
        }
    }

    /// Source `s` of a term list; with `special`, ±0, ±subnormal, ±∞ and
    /// NaN are sprinkled through it (on a stride coprime to the sliver
    /// widths, so they land in interiors, edges and ragged tails alike).
    fn combo_mat<T: Scalar>(rows: usize, cols: usize, s: usize, special: bool) -> Mat<T> {
        let specials = crate::scalar::special_values::<T>();
        Mat::from_fn(rows, cols, |i, j| {
            let at = i * cols + j + s;
            if special && at.is_multiple_of(3) {
                specials[(at / 3) % specials.len()]
            } else {
                T::from_f64(((i * 31 + j * 7 + s * 13) as f64).sin() * 2.0)
            }
        })
    }

    /// Bit-for-bit equal, except that any NaN matches any NaN (a copy keeps
    /// a payload that `1·x` may quiet).
    fn assert_same_bits<T: Scalar>(got: &[T], want: &[T], ctx: &str) {
        assert_eq!(got.len(), want.len(), "{ctx}: panel length");
        for (q, (g, w)) in got.iter().zip(want).enumerate() {
            let (g, w) = (g.to_f64(), w.to_f64());
            assert!(
                g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()),
                "{ctx}: panel[{q}] {g:e} vs {w:e}"
            );
        }
    }

    /// Pack `Σ coeffs[t]·src_t` through the term-list packers (B with and
    /// without checksums) and compare with materialize-then-pack. For the
    /// unit list `[1.0]` the reference forms `1·x` with `combine`'s
    /// multiply arm while the packers take their copy sweeps, which pins
    /// the `[(1, src)]` selection. Every list is packed three ways: plain
    /// sources, transposed views of stored transposes, and the two
    /// alternating (the mixed-orientation sweep).
    fn check_combined_bitwise<T: Scalar>(rows: usize, cols: usize, coeffs: &[f64], special: bool) {
        use crate::add::combine;
        let srcs: Vec<Mat<T>> = (0..coeffs.len())
            .map(|s| combo_mat(rows, cols, s, special))
            .collect();
        let stored_t: Vec<Mat<T>> = srcs.iter().map(|m| m.as_ref().t().to_owned()).collect();
        let terms_with = |transposed: &dyn Fn(usize) -> bool| -> Vec<(T, MatRef<'_, T>)> {
            (0..coeffs.len())
                .map(|t| {
                    let src = if transposed(t) {
                        stored_t[t].as_ref().t()
                    } else {
                        srcs[t].as_ref()
                    };
                    (T::from_f64(coeffs[t]), src)
                })
                .collect()
        };
        let terms = terms_with(&|_| false);
        // Reference: materialize Σ coeff·src then pack.
        let mut s = Mat::<T>::zeros(rows, cols);
        combine(s.as_mut(), false, &terms);
        let (mut want_a, mut want_b) = (Vec::new(), Vec::new());
        pack_a(s.as_ref(), &mut want_a, T::MR);
        pack_b(s.as_ref(), &mut want_b, T::NR);
        // The packers only ever grow a buffer, so `got` goes in longer than
        // any panel and all NaN: an element a sweep skipped (a pad it should
        // have zeroed) shows against the freshly zero-filled `want`.
        let stale = || vec![T::from_f64(f64::NAN); 4 * (rows + T::MR) * (cols + T::NR)];
        for (layout, terms) in [
            ("plain", terms.clone()),
            ("transposed", terms_with(&|_| true)),
            ("mixed", terms_with(&|t| t % 2 == 0)),
        ] {
            let ctx = format!("coeffs {coeffs:?} ({rows}x{cols}) special={special} {layout}");
            let mut got = stale();
            pack_a_combined(&terms, &mut got, T::MR);
            assert_same_bits(&got, &want_a, &format!("pack_a {ctx}"));
            let mut got = stale();
            pack_b_combined(&terms, &mut got, T::NR);
            assert_same_bits(&got, &want_b, &format!("pack_b {ctx}"));
            let (mut got, mut sum, mut mag) = (stale(), Vec::new(), Vec::new());
            let len = pack_b_terms(&terms, &mut got, T::NR, Some((&mut sum, &mut mag)));
            assert_same_bits(&got[..len], &want_b, &format!("pack_b+sums {ctx}"));
        }
    }

    #[test]
    fn combined_pack_bitwise_matches_materialized() {
        for &(rows, cols) in &[(8, 8), (9, 5), (17, 19), (3, 33)] {
            for special in [false, true] {
                for arity in 1..=7 {
                    let coeffs: Vec<f64> = (0..arity).map(|t| 0.5 * t as f64 - 0.7).collect();
                    check_combined_bitwise::<f32>(rows, cols, &coeffs, special);
                    check_combined_bitwise::<f64>(rows, cols, &coeffs, special);
                }
                check_combined_bitwise::<f32>(rows, cols, &[1.0], special);
                check_combined_bitwise::<f64>(rows, cols, &[1.0], special);
            }
        }
    }

    /// Checksummed B pack ≡ plain B pack, sums within a tight tolerance of
    /// an f64 reference over the packed values; `transposed` passes the
    /// sources as transposed views of stored transposes.
    fn check_combined_sums<T: Scalar>(
        kc: usize,
        nc: usize,
        arity: usize,
        nr: usize,
        transposed: bool,
    ) {
        let srcs: Vec<Mat<T>> = (0..arity)
            .map(|s| {
                let v = |i: usize, j: usize| {
                    T::from_f64((((i * 31 + j * 7 + s * 13) as f64).sin() - 0.3) * 2.0)
                };
                if transposed {
                    Mat::from_fn(nc, kc, |j, i| v(i, j))
                } else {
                    Mat::from_fn(kc, nc, v)
                }
            })
            .collect();
        let terms: Vec<(T, _)> = srcs
            .iter()
            .enumerate()
            .map(|(t, m)| {
                let view = if transposed {
                    m.as_ref().t()
                } else {
                    m.as_ref()
                };
                (T::from_f64(0.5 * t as f64 - 0.7), view)
            })
            .collect();
        let mut plain = Vec::new();
        pack_b_combined(&terms, &mut plain, nr);
        let (mut fused, mut sum, mut mag) = (Vec::new(), Vec::new(), Vec::new());
        pack_b_terms(&terms, &mut fused, nr, Some((&mut sum, &mut mag)));
        assert_eq!(plain, fused, "packed panel must be bitwise identical");
        // Sums must match an f64 reference over the packed values (lane
        // order differs, so compare to a tight relative tolerance).
        let slivers = nc.div_ceil(nr);
        for p in 0..kc {
            let (mut rs, mut ra) = (0.0f64, 0.0f64);
            for s in 0..slivers {
                let cols = nr.min(nc - s * nr);
                for q in 0..cols {
                    let v = fused[s * kc * nr + p * nr + q].to_f64();
                    rs += v;
                    ra += v.abs();
                }
            }
            let tol = 1e-12 * (1.0 + ra.abs());
            assert!((sum[p] - rs).abs() <= tol, "sum[{p}] {} vs {rs}", sum[p]);
            assert!((mag[p] - ra).abs() <= tol, "mag[{p}] {} vs {ra}", mag[p]);
        }
    }

    #[test]
    fn combined_pack_with_sums_matches_plain_pack() {
        for arity in 1..=7 {
            for &(kc, nc) in &[(3, 33), (5, 8), (7, 19), (4, 64), (2, 3), (70, 41)] {
                for transposed in [false, true] {
                    check_combined_sums::<f32>(kc, nc, arity, f32::NR, transposed);
                    check_combined_sums::<f64>(kc, nc, arity, f64::NR, transposed);
                    check_combined_sums::<f32>(kc, nc, arity, 16, transposed);
                }
            }
        }
    }

    #[test]
    fn pack_roundtrip_via_kernel_contract() {
        // Inner-product check: packed dot products must equal A·B entries.
        let mr = f64::MR;
        let nr = f64::NR;
        let kc = 5;
        let a = Mat::<f64>::from_fn(mr, kc, |i, j| (i + 1) as f64 * (j + 1) as f64);
        let b = Mat::<f64>::from_fn(kc, nr, |i, j| (i as f64) - (j as f64));
        let (mut ab, mut bb) = (Vec::new(), Vec::new());
        pack_a(a.as_ref(), &mut ab, mr);
        pack_b(b.as_ref(), &mut bb, nr);
        for i in 0..mr {
            for j in 0..nr {
                let mut s = 0.0;
                for p in 0..kc {
                    s += ab[p * mr + i] * bb[p * nr + j];
                }
                let mut expect = 0.0;
                for p in 0..kc {
                    expect += a.at(i, p) * b.at(p, j);
                }
                assert!((s - expect).abs() < 1e-12);
            }
        }
    }
}
