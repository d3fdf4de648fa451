//! Single-threaded cache-blocked GEMM (the substrate's `gemm` leaf).
//!
//! Loop structure follows the BLIS/GotoBLAS decomposition: NC-wide column
//! blocks of `B` (L3-resident once packed), KC-deep rank-k updates, MC-tall
//! row blocks of `A` (L2-resident packed), then NR/MR register tiles
//! dispatched to the microkernel. Performance intentionally *degrades for
//! small dimensions* (packing amortizes poorly), which is the property the
//! paper's crossover analysis (§2.4, §3.3) depends on.
//!
//! A B panel comes from one of three places, all the same bytes: the
//! call's own pack sweep; the 2D parallel driver's shared arena
//! ([`BPanelSource`]); or the [`PackedB`] a prepacked matrix's
//! [`Mat::as_ref`] carries ([`Mat::prepack`]), read in place when the B
//! operand is that unit list and the pack matches the kernel width and
//! blocking — the serving lane's frozen weights, whose small-batch
//! products would otherwise spend most of their time re-packing B. Only
//! the owner of a matrix that stays frozen across many calls should
//! prepack it; the pack rules themselves live in [`crate::matrix`].

use crate::abft::{self, AbftBufs, AbftSession};
use crate::blocktune::block_sizes;
use crate::kernel::{kernel_spec, KernelSpec, MAX_TILE_ELEMS};
use crate::matrix::{Mat, MatMut, MatRef};
use crate::pack::{pack_a_terms, pack_b_terms, size_panel, terms_shape, with_views};
use crate::prepack::PackedB;
use crate::scalar::Scalar;
use std::any::{Any, TypeId};
use std::cell::RefCell;

/// Cache-blocking parameters. The active values come from
/// [`crate::blocktune::block_sizes`] (cache-hierarchy analytic sizing, a
/// persisted tune, or env overrides); [`BlockSizes::for_scalar`] keeps the
/// pre-dispatch static defaults for reference.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BlockSizes {
    pub mc: usize,
    pub kc: usize,
    pub nc: usize,
}

impl BlockSizes {
    /// The static pre-dispatch defaults (a ~32 KB L1 / 256 KB L2 budget —
    /// the paper's Sandy Bridge). The drivers now use the tuned
    /// [`crate::blocktune::block_sizes`] instead; this stays as the
    /// deterministic baseline for tests and comparisons.
    pub fn for_scalar<T: Scalar>() -> Self {
        // Element-count budgets scale inversely with element size.
        let shrink = std::mem::size_of::<T>() / 4; // 1 for f32, 2 for f64
        Self {
            mc: 128,
            kc: 256 / shrink.max(1),
            nc: 1024,
        }
    }
}

/// Scratch buffers reused across packing rounds of a single GEMM call.
///
/// Reusable across calls via [`gemm_combined_st_with_spec`]; the
/// thread-local cache behind [`gemm_combined_st`] keeps the many
/// medium-sized gemm invocations of the APA engine allocation-free.
pub struct Scratch<T> {
    a_pack: Vec<T>,
    b_pack: Vec<T>,
    /// ABFT checksum scratch (empty until a session is installed; all
    /// buffers grow-only, so checked steady state stays allocation-free).
    ab: AbftBufs<T>,
}

impl<T> Default for Scratch<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Scratch<T> {
    pub fn new() -> Self {
        Self {
            a_pack: Vec::new(),
            b_pack: Vec::new(),
            ab: AbftBufs::default(),
        }
    }

    /// Bytes currently held by the pack buffers.
    pub fn capacity_bytes(&self) -> usize {
        (self.a_pack.capacity() + self.b_pack.capacity()) * std::mem::size_of::<T>()
            + self.ab.capacity_bytes()
    }
}

thread_local! {
    /// Per-thread pack-buffer cache, keyed by element type. Every pool
    /// worker warms its own entry on first use, after which repeated
    /// [`gemm_st`] calls are allocation-free.
    static PACK_CACHE: RefCell<Vec<(TypeId, Box<dyn Any>)>> = const { RefCell::new(Vec::new()) };
}

/// Source of pre-packed B panels shared between the workers of one
/// parallel call (see `crate::parallel`). `panel(slab)` returns the packed
/// panel of KC-slab `slab` (`pc = slab · kc`) for the jc block the driver
/// was constructed for, packing it cooperatively on first demand. The
/// optional pair carries the fused ABFT row sums `(b_sum, b_mag)` of the
/// panel; it is `Some` exactly when the call runs under an ABFT session.
///
/// The packed bytes must be bitwise identical to what the core's local
/// `pack_b_terms` sweep would produce for the same sub-block — the
/// parallel ≡ single-threaded bitwise contract rests on it.
pub(crate) trait BPanelSource<T: Scalar>: Sync {
    fn panel(&self, slab: usize) -> PackedPanel<'_, T>;
}

/// A packed B panel plus, when the call runs under an ABFT session, its
/// fused `(row_sum, row_mag)` checksum pair.
pub(crate) type PackedPanel<'a, T> = (&'a [T], Option<(&'a [f64], &'a [f64])>);

/// `C ← α·A·B + β·C`, single-threaded: [`gemm_combined_st`] on the unit
/// term lists `[(1, a)]`, `[(1, b)]`.
pub fn gemm_st<T: Scalar>(alpha: T, a: MatRef<'_, T>, b: MatRef<'_, T>, beta: T, c: MatMut<'_, T>) {
    gemm_combined_st(alpha, &[(T::ONE, a)], &[(T::ONE, b)], beta, c);
}

/// Run `f` with this thread's cached [`Scratch`] for `T`. The scratch is
/// taken *out* of the cache (ending the RefCell borrow) before `f` runs,
/// then put back — re-entrancy can never observe an outstanding borrow.
pub(crate) fn with_cached_scratch<T: Scalar, R>(f: impl FnOnce(&mut Scratch<T>) -> R) -> R {
    let mut scratch: Scratch<T> = PACK_CACHE.with(|cell| {
        let mut cache = cell.borrow_mut();
        match cache.iter_mut().find(|(id, _)| *id == TypeId::of::<T>()) {
            Some((_, slot)) => std::mem::take(
                slot.downcast_mut::<Scratch<T>>()
                    .expect("slot is type-keyed"),
            ),
            None => {
                cache.push((TypeId::of::<T>(), Box::new(Scratch::<T>::new())));
                Scratch::new()
            }
        }
    });
    let out = f(&mut scratch);
    PACK_CACHE.with(|cell| {
        let mut cache = cell.borrow_mut();
        if let Some((_, slot)) = cache.iter_mut().find(|(id, _)| *id == TypeId::of::<T>()) {
            *slot
                .downcast_mut::<Scratch<T>>()
                .expect("slot is type-keyed") = scratch;
        }
    });
    out
}

/// Grow the calling thread's cached gemm scratch to what any product of
/// at most `m × k · k × n` needs — the pack buffers and, when an ABFT
/// session is installed, the checksum buffers — so the first such gemm on
/// this thread allocates nothing. No operands, no multiply: this is how a
/// serving lane settles its scratch before the first request.
pub fn reserve_scratch<T: Scalar>(m: usize, k: usize, n: usize) {
    let (spec, bs) = (kernel_spec::<T>(), block_sizes::<T>());
    let (mc, kc, nc) = (m.min(bs.mc), k.min(bs.kc), n.min(bs.nc));
    let checked = abft::current().is_some();
    with_cached_scratch(|s: &mut Scratch<T>| {
        size_panel(&mut s.a_pack, mc.div_ceil(spec.mr) * spec.mr * kc);
        size_panel(&mut s.b_pack, nc.div_ceil(spec.nr) * spec.nr * kc);
        if checked {
            s.ab.reserve(m, n, mc, kc);
        }
    });
}

/// [`gemm_st`] on an explicit kernel and caller-provided scratch: the unit
/// term lists through [`gemm_combined_st_with_spec`].
pub fn gemm_st_with_spec<T: Scalar>(
    spec: &KernelSpec<T>,
    alpha: T,
    a: MatRef<'_, T>,
    b: MatRef<'_, T>,
    beta: T,
    c: MatMut<'_, T>,
    scratch: &mut Scratch<T>,
) {
    gemm_combined_st_with_spec(
        spec,
        alpha,
        &[(T::ONE, a)],
        &[(T::ONE, b)],
        beta,
        c,
        scratch,
    );
}

/// One plain gemm with explicit blocking — the probe the measured
/// autotune races candidates through (`α = 1`, `β = 0`, cached scratch).
/// Never ABFT-checked: candidate block sizes are being timed, not trusted.
pub(crate) fn gemm_st_probe<T: Scalar>(
    bs: BlockSizes,
    a: MatRef<'_, T>,
    b: MatRef<'_, T>,
    c: MatMut<'_, T>,
) {
    with_cached_scratch(|scratch| {
        gemm_core(
            &kernel_spec::<T>(),
            bs,
            T::ONE,
            &[(T::ONE, a)],
            &[(T::ONE, b)],
            T::ZERO,
            c,
            scratch,
            None,
            None,
        );
    });
}

/// Dispatch the MR×NR register tiles of one packed (mc × kc)·(kc × nc)
/// block product into `C`. Tile shape comes from the dispatched kernel
/// spec.
#[allow(clippy::too_many_arguments)]
fn run_tiles<T: Scalar>(
    spec: &KernelSpec<T>,
    alpha: T,
    beta_eff: T,
    beta_zero: bool,
    a_pack: &[T],
    b_pack: &[T],
    kc: usize,
    mc: usize,
    nc: usize,
    ic: usize,
    jc: usize,
    c: &mut MatMut<'_, T>,
) {
    let (mr, nr) = (spec.mr, spec.nr);
    let cs = c.row_stride();
    for jr in (0..nc).step_by(nr) {
        let nrr = nr.min(nc - jr);
        let b_sliver = &b_pack[(jr / nr) * kc * nr..];
        for ir in (0..mc).step_by(mr) {
            let mrr = mr.min(mc - ir);
            let a_sliver = &a_pack[(ir / mr) * kc * mr..];
            if mrr == mr && nrr == nr {
                // Full tile: write straight into C.
                let mut tile = c.subview_mut(ic + ir, jc + jr, mr, nr);
                // SAFETY: tile is a writable MR×NR block with
                // stride cs; slivers hold kc·MR / kc·NR packed
                // elements by construction of the packers.
                unsafe {
                    spec.run(
                        kc,
                        alpha,
                        a_sliver.as_ptr(),
                        b_sliver.as_ptr(),
                        beta_eff,
                        beta_zero,
                        tile.as_mut_ptr(),
                        cs,
                    );
                }
            } else {
                // Ragged edge: compute the *raw* accumulator (α = 1,
                // β = 0 leaves the FMA chain unscaled and bitwise equal
                // across tiers) into a scratch tile, then apply the same
                // α/β epilogue the kernel uses on full tiles — so a tile
                // that is full for one tier and ragged for another still
                // rounds identically.
                let mut tmp = [T::ZERO; MAX_TILE_ELEMS];
                debug_assert!(mr * nr <= MAX_TILE_ELEMS);
                // SAFETY: tmp is a full MR×NR tile (stride NR).
                unsafe {
                    spec.run(
                        kc,
                        T::ONE,
                        a_sliver.as_ptr(),
                        b_sliver.as_ptr(),
                        T::ZERO,
                        true,
                        tmp.as_mut_ptr(),
                        nr,
                    );
                }
                for i in 0..mrr {
                    let crow = c.subview_mut(ic + ir + i, jc + jr, 1, nrr);
                    merge_row(crow, &tmp[i * nr..i * nr + nrr], alpha, beta_eff, beta_zero);
                }
            }
        }
    }
}

/// Restrict every term's source to the same sub-block and hand the
/// restricted list to `f` (staged inline, see [`with_views`]).
#[inline]
pub(crate) fn with_subviews<'a, T: Scalar, R>(
    terms: &[(T, MatRef<'a, T>)],
    r0: usize,
    c0: usize,
    rows: usize,
    cols: usize,
    f: impl FnOnce(&[(T, MatRef<'a, T>)]) -> R,
) -> R {
    with_views(terms, |src| src.subview(r0, c0, rows, cols), f)
}

/// The single-threaded GEMM, with pack buffers from the thread-local
/// cache (allocation-free in steady state):
/// `C ← α·(Σ cᵃᵢ·Aᵢ)·(Σ cᵇⱼ·Bⱼ) + β·C` where the two linear combinations
/// are formed *inside* the pack sweep ([`crate::pack::pack_a_combined`] /
/// [`crate::pack::pack_b_combined`]) — the S/T operands of the APA
/// framework are never materialized in memory. A plain operand is the unit
/// list `[(T::ONE, a)]`, which the packers copy instead of multiplying.
/// Term lists must be non-empty and each list's sources share one shape.
pub fn gemm_combined_st<T: Scalar>(
    alpha: T,
    a_terms: &[(T, MatRef<'_, T>)],
    b_terms: &[(T, MatRef<'_, T>)],
    beta: T,
    c: MatMut<'_, T>,
) {
    with_cached_scratch(|scratch| {
        gemm_combined_st_with_spec(
            &kernel_spec::<T>(),
            alpha,
            a_terms,
            b_terms,
            beta,
            c,
            scratch,
        )
    });
}

/// [`gemm_combined_st`] on an explicit kernel (tier forced by the caller —
/// the dispatch-matrix tests and tier benches) and caller-provided
/// scratch. Block sizes stay the process-wide tuned ones, so different
/// tiers split k identically and results are bitwise equal across tiers.
#[allow(clippy::too_many_arguments)]
pub fn gemm_combined_st_with_spec<T: Scalar>(
    spec: &KernelSpec<T>,
    alpha: T,
    a_terms: &[(T, MatRef<'_, T>)],
    b_terms: &[(T, MatRef<'_, T>)],
    beta: T,
    c: MatMut<'_, T>,
    scratch: &mut Scratch<T>,
) {
    let session = abft::current();
    gemm_core(
        spec,
        block_sizes::<T>(),
        alpha,
        a_terms,
        b_terms,
        beta,
        c,
        scratch,
        session.as_deref(),
        None,
    );
}

/// The blocked driver — the one `jc → pc → ic` loop nest every gemm entry
/// point of the crate runs. With an ABFT session the B pack sweep
/// accumulates checksums, every `(jc, ic)` block is verified over the full
/// `k`, and flagged regions are recomputed with the scalar-tier kernel
/// before returning (repairs re-run the *combined* product over the
/// flagged region, so a fused leaf never needs its operands materialized
/// even when repairing). Returns the number of regions that violated
/// their checksums (0 on a clean run) — the recursive repair verification
/// keys off it.
///
/// `panels`, when present, supplies pre-packed B panels for every KC slab
/// (the caller guarantees the `b_terms` views span exactly the jc block
/// the source was built for, i.e. `n ≤ bs.nc`); the local B pack is
/// skipped and the first rank-k loop reads the shared panel instead —
/// this is how the 2D parallel driver packs each B panel once per call
/// rather than once per worker. Otherwise a B operand that carries a
/// matching [`PackedB`] supplies its panels the same way.
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm_core<T: Scalar>(
    spec: &KernelSpec<T>,
    bs: BlockSizes,
    alpha: T,
    a_terms: &[(T, MatRef<'_, T>)],
    b_terms: &[(T, MatRef<'_, T>)],
    beta: T,
    mut c: MatMut<'_, T>,
    scratch: &mut Scratch<T>,
    abft: Option<&AbftSession>,
    panels: Option<&dyn BPanelSource<T>>,
) -> usize {
    let ((m, k), (kb, n)) = (terms_shape(a_terms), terms_shape(b_terms));
    assert_eq!(k, kb, "inner dimensions must match");
    assert_eq!(m, c.rows(), "C row count mismatch");
    assert_eq!(n, c.cols(), "C column count mismatch");

    if m == 0 || n == 0 {
        return 0;
    }
    if k == 0 || alpha == T::ZERO {
        scale_in_place(beta, &mut c);
        return 0;
    }

    debug_assert!(
        panels.is_none() || n <= bs.nc,
        "shared panels cover exactly one jc block"
    );

    if abft.is_some() {
        scratch.ab.begin_call(beta, &c);
    }
    let prepacked = PackedB::of(b_terms, spec.nr, bs);

    for jc in (0..n).step_by(bs.nc) {
        let nc = bs.nc.min(n - jc);
        if abft.is_some() {
            scratch.ab.begin_jc(m);
        }
        for pc in (0..k).step_by(bs.kc) {
            let kc = bs.kc.min(k - pc);
            let shared = match panels {
                Some(p) => Some(p.panel(pc / bs.kc)),
                // A pack-B flip armed for this call lands in a per-call
                // pack below, never in the shared prepacked panels.
                None => prepacked
                    .filter(|_| !pack_b_flip_armed(abft))
                    .map(|p| p.panel(jc / bs.nc, pc / bs.kc)),
            };
            match shared {
                Some((_, sums)) => {
                    // The arena or the prepack packed (and, the arena,
                    // fault-injected) this panel once; adopt its fused
                    // row sums so the per-cell ABFT checks see the same
                    // checksums a local pack sweep would have produced.
                    if abft.is_some() {
                        let (b_sum, b_mag) =
                            sums.expect("shared panels carry ABFT sums under a session");
                        scratch.ab.b_sum.clear();
                        scratch.ab.b_sum.extend_from_slice(b_sum);
                        scratch.ab.b_mag.clear();
                        scratch.ab.b_mag.extend_from_slice(b_mag);
                    }
                }
                None => {
                    // ABFT row sums ride the pack sweep itself, so
                    // checksums cost no extra pass over B.
                    let ab = &mut scratch.ab;
                    let sums = abft.map(|_| (&mut ab.b_sum, &mut ab.b_mag));
                    with_subviews(b_terms, pc, jc, kc, nc, |sub| {
                        pack_b_terms(sub, &mut scratch.b_pack, spec.nr, sums)
                    });
                    #[cfg(feature = "fault-inject")]
                    flip_pack_b(&mut scratch.b_pack, nc, kc, spec.nr, abft);
                }
            }
            let b_panel: &[T] = match shared {
                Some((buf, _)) => buf,
                None => &scratch.b_pack,
            };
            // First rank-k update applies the caller's β, later ones add.
            let beta_eff = if pc == 0 { beta } else { T::ONE };
            let beta_zero = pc == 0 && beta == T::ZERO;
            for ic in (0..m).step_by(bs.mc) {
                let mc = bs.mc.min(m - ic);
                with_subviews(a_terms, ic, pc, mc, kc, |sub| {
                    pack_a_terms(sub, &mut scratch.a_pack, spec.mr)
                });
                #[cfg(feature = "fault-inject")]
                flip_pack_a(&mut scratch.a_pack, mc, kc, spec.mr, abft);
                run_tiles(
                    spec,
                    alpha,
                    beta_eff,
                    beta_zero,
                    &scratch.a_pack,
                    b_panel,
                    kc,
                    mc,
                    nc,
                    ic,
                    jc,
                    &mut c,
                );
                #[cfg(feature = "fault-inject")]
                flip_output(&mut c, ic, jc, mc, nc, abft);
                if abft.is_some() {
                    scratch.ab.accum_rows(a_terms, ic, pc, mc, kc);
                }
            }
        }
        // Deferred full-k row check per ic block; column localization
        // (from the source operands) runs only on detection.
        if let Some(session) = abft {
            for ic in (0..m).step_by(bs.mc) {
                let mc = bs.mc.min(m - ic);
                if scratch
                    .ab
                    .check_rows(session, alpha, beta, &c, ic, jc, mc, nc, k)
                {
                    scratch.ab.localize(
                        session, a_terms, b_terms, alpha, beta, &c, ic, jc, mc, nc, spec.nr, k,
                    );
                }
            }
        }
    }

    let Some(session) = abft else { return 0 };
    let violations = scratch.ab.flags.len();
    if violations > 0 && session.cfg.repair {
        let mut flags = std::mem::take(&mut scratch.ab.flags);
        let scalar_spec = KernelSpec::<T>::scalar();
        let nested = AbftSession::verify_only(session.cfg.slack);
        let mut repair_scratch = Scratch::new();
        for reg in &flags {
            // Replay the caller's β against the pristine entry values.
            if beta != T::ZERO {
                scratch.ab.restore_region(&mut c, *reg);
            }
            // Restricted recompute over the full k: the region is a whole
            // ic block × an NR-aligned stripe, so the same BlockSizes
            // reproduce identical kc splits, sliver layouts and FMA chains
            // — bitwise equal to an uncorrupted run by the cross-tier
            // kernel contract.
            let sub_c = c.subview_mut(reg.r0, reg.c0, reg.rows, reg.cols);
            let bad = with_subviews(a_terms, reg.r0, 0, reg.rows, k, |asub| {
                with_subviews(b_terms, 0, reg.c0, k, reg.cols, |bsub| {
                    gemm_core(
                        &scalar_spec,
                        bs,
                        alpha,
                        asub,
                        bsub,
                        beta,
                        sub_c,
                        &mut repair_scratch,
                        Some(&nested),
                        None,
                    )
                })
            });
            if bad == 0 {
                session.stats.bump_repaired();
            } else {
                session.stats.bump_unrepaired();
            }
        }
        flags.clear();
        scratch.ab.flags = flags;
    }
    violations
}

/// Apply the microkernel's α/β epilogue to one ragged row: `vals` holds
/// the raw accumulator, and the update uses the *same* operations as the
/// in-kernel full-tile epilogue (`α·v` for β = 0, `fma(α, v, β·c)`
/// otherwise) so ragged and full tiles round identically — the bitwise
/// cross-tier contract depends on it.
fn merge_row<T: Scalar>(mut crow: MatMut<'_, T>, vals: &[T], alpha: T, beta: T, beta_zero: bool) {
    let row = crow.row_mut(0);
    if beta_zero {
        for (dst, &v) in row.iter_mut().zip(vals) {
            *dst = alpha * v;
        }
    } else {
        for (dst, &v) in row.iter_mut().zip(vals) {
            *dst = alpha.mul_add(v, beta * *dst);
        }
    }
}

/// Consume an armed [`abft::sdc`] flip targeting the packed A panel:
/// `index` selects a valid (non-pad) element of the current `mc × kc`
/// block, mapped into the k-major sliver layout.
#[cfg(feature = "fault-inject")]
fn flip_pack_a<T: Scalar>(
    buf: &mut [T],
    mc: usize,
    kc: usize,
    mr: usize,
    session: Option<&AbftSession>,
) {
    use crate::abft::sdc::{self, FlipTarget};
    if let Some(f) = sdc::take(FlipTarget::PackA, session) {
        let r = f.index % mc;
        let p = (f.index / mc) % kc;
        let pos = (r / mr) * kc * mr + p * mr + (r % mr);
        buf[pos] = buf[pos].flip_bit(f.bit);
    }
}

/// Whether a pack-B flip is armed for `session`'s gemm work. A prepacked
/// panel is then packed per call instead, so the flip lands in that copy
/// and the panels every later call reads stay pristine.
#[inline]
pub(crate) fn pack_b_flip_armed(session: Option<&AbftSession>) -> bool {
    #[cfg(feature = "fault-inject")]
    {
        abft::sdc::armed(abft::sdc::FlipTarget::PackB, session)
    }
    #[cfg(not(feature = "fault-inject"))]
    {
        let _ = session;
        false
    }
}

/// Consume an armed flip targeting the packed B panel (valid element of
/// the current `kc × nc` block, NR-sliver layout). `pub(crate)` so the
/// parallel shared-packing arena applies flips at its (single) pack site.
#[cfg(feature = "fault-inject")]
pub(crate) fn flip_pack_b<T: Scalar>(
    buf: &mut [T],
    nc: usize,
    kc: usize,
    nr: usize,
    session: Option<&AbftSession>,
) {
    use crate::abft::sdc::{self, FlipTarget};
    if let Some(f) = sdc::take(FlipTarget::PackB, session) {
        let j = f.index % nc;
        let p = (f.index / nc) % kc;
        let pos = (j / nr) * kc * nr + p * nr + (j % nr);
        buf[pos] = buf[pos].flip_bit(f.bit);
    }
}

/// Consume an armed flip targeting the C block just written by the tile
/// sweep.
#[cfg(feature = "fault-inject")]
fn flip_output<T: Scalar>(
    c: &mut MatMut<'_, T>,
    ic: usize,
    jc: usize,
    mc: usize,
    nc: usize,
    session: Option<&AbftSession>,
) {
    use crate::abft::sdc::{self, FlipTarget};
    if let Some(f) = sdc::take(FlipTarget::Output, session) {
        let i = f.index % mc;
        let j = (f.index / mc) % nc;
        let row = c.row_mut(ic + i);
        row[jc + j] = row[jc + j].flip_bit(f.bit);
    }
}

fn scale_in_place<T: Scalar>(beta: T, c: &mut MatMut<'_, T>) {
    if beta == T::ONE {
        return;
    }
    for i in 0..c.rows() {
        for v in c.row_mut(i) {
            *v = if beta == T::ZERO { T::ZERO } else { beta * *v };
        }
    }
}

/// Convenience: allocate and return `C = A · B`.
pub fn matmul<T: Scalar>(a: MatRef<'_, T>, b: MatRef<'_, T>) -> Mat<T> {
    let mut c = Mat::zeros(a.rows(), b.cols());
    gemm_st(T::ONE, a, b, T::ZERO, c.as_mut());
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::matmul_naive;

    fn rand_mat<T: Scalar>(rows: usize, cols: usize, seed: u64) -> Mat<T> {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        Mat::from_fn(rows, cols, |_, _| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            T::from_f64(((state >> 32) as u32 as f64 / (1u64 << 31) as f64) - 1.0)
        })
    }

    fn check_against_naive<T: Scalar>(m: usize, k: usize, n: usize, tol: f64) {
        let a = rand_mat::<T>(m, k, 1);
        let b = rand_mat::<T>(k, n, 2);
        let got = matmul(a.as_ref(), b.as_ref());
        let expect = matmul_naive(a.as_ref(), b.as_ref());
        let err = got.rel_frobenius_error(&expect);
        assert!(err < tol, "({m},{k},{n}): rel err {err}");
    }

    #[test]
    fn matches_naive_small_shapes() {
        for &(m, k, n) in &[(1, 1, 1), (2, 3, 4), (7, 7, 7), (8, 8, 8), (9, 17, 5)] {
            check_against_naive::<f32>(m, k, n, 1e-5);
            check_against_naive::<f64>(m, k, n, 1e-13);
        }
    }

    #[test]
    fn matches_naive_across_block_boundaries() {
        // Sizes straddling MC/KC/NC and MR/NR edges.
        for &(m, k, n) in &[
            (129, 257, 63),
            (130, 40, 1025),
            (255, 300, 17),
            (64, 512, 64),
        ] {
            check_against_naive::<f32>(m, k, n, 1e-4);
        }
        check_against_naive::<f64>(129, 257, 63, 1e-12);
    }

    #[test]
    fn alpha_beta_semantics() {
        let a = rand_mat::<f64>(20, 30, 3);
        let b = rand_mat::<f64>(30, 10, 4);
        let c0 = rand_mat::<f64>(20, 10, 5);
        let mut c = c0.clone();
        gemm_st(2.0, a.as_ref(), b.as_ref(), -1.0, c.as_mut());
        let ab = matmul_naive(a.as_ref(), b.as_ref());
        for i in 0..20 {
            for j in 0..10 {
                let expect = 2.0 * ab.at(i, j) - c0.at(i, j);
                assert!((c.at(i, j) - expect).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn beta_one_accumulates() {
        let a = rand_mat::<f32>(16, 16, 6);
        let b = rand_mat::<f32>(16, 16, 7);
        let mut c = Mat::<f32>::zeros(16, 16);
        gemm_st(1.0, a.as_ref(), b.as_ref(), 0.0, c.as_mut());
        gemm_st(1.0, a.as_ref(), b.as_ref(), 1.0, c.as_mut());
        let ab = matmul_naive(a.as_ref(), b.as_ref());
        for i in 0..16 {
            for j in 0..16 {
                assert!((c.at(i, j) - 2.0 * ab.at(i, j)).abs() < 1e-3);
            }
        }
    }

    #[test]
    fn k_zero_only_scales() {
        let a = Mat::<f64>::zeros(4, 0);
        let b = Mat::<f64>::zeros(0, 4);
        let mut c = Mat::from_fn(4, 4, |i, j| (i + j) as f64);
        let orig = c.clone();
        gemm_st(1.0, a.as_ref(), b.as_ref(), 0.5, c.as_mut());
        for i in 0..4 {
            for j in 0..4 {
                assert_eq!(c.at(i, j), 0.5 * orig.at(i, j));
            }
        }
    }

    /// Overwrite a few rows (of A) or columns (of B) with ±0 and
    /// ±subnormals, and a few more with ±∞ and NaN, leaving the rest of the
    /// product finite.
    fn with_specials<T: Scalar>(mut mat: Mat<T>, by_row: bool) -> Mat<T> {
        let specials = crate::scalar::special_values::<T>();
        let (soft, hard) = specials.split_at(4);
        for i in 0..mat.rows() {
            for j in 0..mat.cols() {
                let (line, at) = if by_row { (i, j) } else { (j, i) };
                match line % 9 {
                    4 => mat.set(i, j, soft[at % 4]),
                    7 if at.is_multiple_of(5) => mat.set(i, j, hard[(at / 5) % 3]),
                    _ => {}
                }
            }
        }
        mat
    }

    /// The unit list `[(1, x)]` is the plain operand `x`: the packers copy
    /// it, while the reference multiplies `1·x` out first (`combine`'s
    /// one-term arm). Bitwise equal — NaN-ness, not payload, for NaNs —
    /// with and without the ABFT checksum sweep.
    fn check_unit_list_is_plain_gemm<T: Scalar>(special: bool) {
        use crate::add::combine;
        let (m, k, n) = (70, 45, 33);
        let (mut a, mut b) = (rand_mat::<T>(m, k, 20), rand_mat::<T>(k, n, 21));
        if special {
            (a, b) = (with_specials(a, true), with_specials(b, false));
        }
        let (mut a1, mut b1) = (Mat::<T>::zeros(m, k), Mat::<T>::zeros(k, n));
        combine(a1.as_mut(), false, &[(T::ONE, a.as_ref())]);
        combine(b1.as_mut(), false, &[(T::ONE, b.as_ref())]);
        let c0 = rand_mat::<T>(m, n, 22);
        let (alpha, beta) = (T::from_f64(1.5), T::from_f64(0.5));
        let mut want = c0.clone();
        gemm_st(alpha, a1.as_ref(), b1.as_ref(), beta, want.as_mut());
        // The pack buffers only ever grow: run an all-NaN product with larger
        // panels through the scratch first, so a sweep that reads past the
        // panel it was handed (geometry taken from the buffer's length, a
        // sliver the packers skipped) poisons `got`.
        let mut scratch = Scratch::new();
        let nan = |rows, cols| Mat::from_fn(rows, cols, |_, _| T::from_f64(f64::NAN));
        gemm_core(
            &kernel_spec::<T>(),
            block_sizes::<T>(),
            T::ONE,
            &[(T::ONE, nan(m + 19, k + 23).as_ref())],
            &[(T::ONE, nan(k + 23, n + 40).as_ref())],
            T::ZERO,
            Mat::zeros(m + 19, n + 40).as_mut(),
            &mut scratch,
            None,
            None,
        );
        for checked in [false, true] {
            let session = checked.then(AbftSession::default);
            let mut got = c0.clone();
            gemm_core(
                &kernel_spec::<T>(),
                block_sizes::<T>(),
                alpha,
                &[(T::ONE, a.as_ref())],
                &[(T::ONE, b.as_ref())],
                beta,
                got.as_mut(),
                &mut scratch,
                session.as_ref(),
                None,
            );
            for i in 0..m {
                for j in 0..n {
                    let (g, w) = (got.at(i, j).to_f64(), want.at(i, j).to_f64());
                    assert!(
                        g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()),
                        "special={special} checked={checked} ({i},{j}): {g:e} vs {w:e}"
                    );
                }
            }
        }
    }

    #[test]
    fn combined_single_term_is_bitwise_plain_gemm() {
        for special in [false, true] {
            check_unit_list_is_plain_gemm::<f32>(special);
            check_unit_list_is_plain_gemm::<f64>(special);
        }
    }

    #[test]
    fn combined_matches_materialize_then_gemm_bitwise() {
        use crate::add::combine;
        for arity in [2usize, 3, 4, 5] {
            let (m, k, n) = (41, 37, 29);
            let a_srcs: Vec<Mat<f64>> = (0..arity)
                .map(|s| rand_mat::<f64>(m, k, 30 + s as u64))
                .collect();
            let b_srcs: Vec<Mat<f64>> = (0..arity)
                .map(|s| rand_mat::<f64>(k, n, 60 + s as u64))
                .collect();
            let a_terms: Vec<(f64, _)> = a_srcs
                .iter()
                .enumerate()
                .map(|(t, s)| (0.25 * t as f64 - 0.6, s.as_ref()))
                .collect();
            let b_terms: Vec<(f64, _)> = b_srcs
                .iter()
                .enumerate()
                .map(|(t, s)| (1.0 - 0.5 * t as f64, s.as_ref()))
                .collect();
            let mut s_mat = Mat::<f64>::zeros(m, k);
            let mut t_mat = Mat::<f64>::zeros(k, n);
            combine(s_mat.as_mut(), false, &a_terms);
            combine(t_mat.as_mut(), false, &b_terms);
            let mut want = rand_mat::<f64>(m, n, 90);
            let mut got = want.clone();
            gemm_st(0.75, s_mat.as_ref(), t_mat.as_ref(), 1.0, want.as_mut());
            gemm_combined_st(0.75, &a_terms, &b_terms, 1.0, got.as_mut());
            for i in 0..m {
                for j in 0..n {
                    assert_eq!(
                        got.at(i, j).to_bits(),
                        want.at(i, j).to_bits(),
                        "arity {arity} ({i},{j})"
                    );
                }
            }
        }
    }

    #[test]
    fn operates_on_strided_subviews() {
        // Multiply quadrants of larger matrices: exercises rs ≠ cols.
        let big_a = rand_mat::<f64>(64, 64, 8);
        let big_b = rand_mat::<f64>(64, 64, 9);
        let a = big_a.as_ref().subview(16, 16, 32, 32);
        let b = big_b.as_ref().subview(0, 32, 32, 32);
        let got = matmul(a, b);
        let expect = matmul_naive(a, b);
        assert!(got.rel_frobenius_error(&expect) < 1e-12);
    }

    #[test]
    fn writes_into_strided_subview() {
        let a = rand_mat::<f64>(8, 8, 10);
        let b = rand_mat::<f64>(8, 8, 11);
        let mut big_c = Mat::<f64>::zeros(16, 16);
        gemm_st(
            1.0,
            a.as_ref(),
            b.as_ref(),
            0.0,
            big_c.as_mut().into_subview(4, 4, 8, 8),
        );
        let expect = matmul_naive(a.as_ref(), b.as_ref());
        for i in 0..8 {
            for j in 0..8 {
                assert!((big_c.at(4 + i, 4 + j) - expect.at(i, j)).abs() < 1e-12);
            }
        }
        // Surroundings untouched.
        assert_eq!(big_c.at(0, 0), 0.0);
        assert_eq!(big_c.at(15, 15), 0.0);
    }
}
