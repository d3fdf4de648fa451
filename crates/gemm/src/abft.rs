//! Algorithm-based fault tolerance (ABFT) for the gemm leaves.
//!
//! Huang–Abraham style checksums, adapted to the blocked driver with a
//! two-phase shape chosen for near-zero hot-path cost:
//!
//! * **Hot path — row check only, deferred to the full rank-k update.**
//!   The `pack_b` / `pack_b_combined` sweep accumulates per-p row sums /
//!   abs-sums of the B block (`Σ_j B[p,j]`) in 8-wide vector lanes fused
//!   into the copy it already does — the combined path sums the *packed
//!   combined values*, which are exactly what the kernel consumes, so
//!   B-side operand-combination rounding never enters the residual and no
//!   second pass over the B sources is needed — and after each
//!   register-tile sweep the driver folds
//!   `Σ_p A[i, p] · b_sum[p]` (read from the **source** A rows, or the
//!   contiguous columns of a transposed A — so any
//!   later corruption of the packed panels, the kernel, or the C tile
//!   shifts the observed sum away from this expectation) into a per-row
//!   expected-update vector. Once a `(jc, ic)` block has seen all of k,
//!   one O(mc·nc) sweep compares `Σ_j C[i,j]` against
//!   `α · dot_row[i] + β · pre_row[i]`. Total checksum work is
//!   O(kc·nc / 8) vector ops per B pack plus O(mc·kc) fused-multiply
//!   work per block — a `1/mc + 1/nc` fraction of the kernel's flops,
//!   which is what keeps ABFT-on inside the ≤5% overhead gate even on
//!   skinny training leaves.
//! * **Cold path — column localization, only on detection.** A violated
//!   row check triggers an O(mc·k + k·nc) recompute of column checksums
//!   from the source operands (`Σ_i A[i,p]` against `B[p,j]`), whose
//!   per-column residuals localize the fault to NR column stripes; when
//!   cancellation defeats localization every stripe of the block is
//!   flagged (correctness never depends on the column check firing).
//!
//! Residual tolerances are **magnitude-normalized**: each expected sum
//! carries an absolute-value companion (`Σ|a|·|b|`), so the threshold
//! `slack · ε · √(k + mc|nc) · magnitude` scales with the data — the APA
//! framework's λ-scaled operands (coefficients ∝ 1/λ^d) need no special
//! casing, and honest APA approximation error never trips the check
//! because the leaves themselves are *exact* gemms whose rounding is
//! bounded by the very `ε·k` growth the threshold budgets for.
//!
//! On violation the driver flags the affected `MC×NR` region(s) and,
//! after the block loops finish, recomputes **only those regions** with
//! the scalar-tier kernel (an independent second opinion; bitwise equal
//! by the cross-tier contract) under a verify-only ABFT pass. A repair
//! whose own checks fail is counted `unrepaired` so the caller can
//! escalate (the matmul guard demotes the rung).
//!
//! Sessions are installed process-globally ([`install`] / [`scoped`]):
//! the engine's leaf gemm calls — plain, fused-operand, parallel worker
//! stripes, peel fringes — all pick the active session up without any
//! signature changes, and the atomic [`AbftStats`] counters are shared
//! across worker threads.

use crate::matrix::MatMut;
use crate::scalar::Scalar;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Default residual slack: multiplies the `ε·√(k + mc|nc)` rounding
/// growth term. The √ growth is the random-walk model of the residual's
/// rounding error; the slack covers the gap toward the degenerate worst
/// case (same-sign data, whose FMA-chain error grows linearly in `k` —
/// fault-free property tests pin the margin at every tested shape),
/// while staying astronomically below the magnitude shift of any
/// exponent- or sign-bit flip of a contributing element.
pub const DEFAULT_SLACK: f64 = 16.0;

/// ABFT behavior knobs for one session.
#[derive(Clone, Copy, Debug)]
pub struct AbftConfig {
    /// Multiplier on the `ε · √(k + mc|nc) · magnitude` residual budget.
    pub slack: f64,
    /// Recompute flagged regions in place (scalar tier). `false` turns
    /// the session into a detector only — used internally to re-verify a
    /// repair without recursing.
    pub repair: bool,
}

impl Default for AbftConfig {
    fn default() -> Self {
        Self {
            slack: DEFAULT_SLACK,
            repair: true,
        }
    }
}

/// Shared atomic counters of one ABFT session (worker threads of a
/// parallel gemm all bump the same instance).
#[derive(Debug, Default)]
pub struct AbftStats {
    checks: AtomicU64,
    detected: AtomicU64,
    repaired: AtomicU64,
    unrepaired: AtomicU64,
}

/// A point-in-time copy of [`AbftStats`], subtractable for per-call
/// deltas.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AbftCounts {
    /// Block-level checksum verifications performed.
    pub checks: u64,
    /// Corrupted regions flagged by a residual violation.
    pub detected: u64,
    /// Flagged regions whose scalar-tier recompute re-verified clean.
    pub repaired: u64,
    /// Flagged regions still failing after recompute (escalate!).
    pub unrepaired: u64,
}

impl std::ops::Sub for AbftCounts {
    type Output = AbftCounts;
    fn sub(self, rhs: AbftCounts) -> AbftCounts {
        AbftCounts {
            checks: self.checks.saturating_sub(rhs.checks),
            detected: self.detected.saturating_sub(rhs.detected),
            repaired: self.repaired.saturating_sub(rhs.repaired),
            unrepaired: self.unrepaired.saturating_sub(rhs.unrepaired),
        }
    }
}

impl AbftStats {
    pub fn snapshot(&self) -> AbftCounts {
        AbftCounts {
            checks: self.checks.load(Ordering::Relaxed),
            detected: self.detected.load(Ordering::Relaxed),
            repaired: self.repaired.load(Ordering::Relaxed),
            unrepaired: self.unrepaired.load(Ordering::Relaxed),
        }
    }

    pub(crate) fn bump_checks(&self) {
        self.checks.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn bump_detected(&self, n: u64) {
        self.detected.fetch_add(n, Ordering::Relaxed);
    }

    pub(crate) fn bump_repaired(&self) {
        self.repaired.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn bump_unrepaired(&self) {
        self.unrepaired.fetch_add(1, Ordering::Relaxed);
    }
}

/// One ABFT configuration plus its shared counters. Install with
/// [`install`] / [`scoped`] so every gemm leaf in the process checks
/// against it.
#[derive(Debug, Default)]
pub struct AbftSession {
    pub cfg: AbftConfig,
    pub stats: AbftStats,
}

impl AbftSession {
    pub fn new(cfg: AbftConfig) -> Self {
        Self {
            cfg,
            stats: AbftStats::default(),
        }
    }

    /// A detector-only session (used to re-verify repairs).
    pub(crate) fn verify_only(slack: f64) -> Self {
        Self::new(AbftConfig {
            slack,
            repair: false,
        })
    }
}

static SESSION: Mutex<Option<Arc<AbftSession>>> = Mutex::new(None);

/// Install (or clear, with `None`) the process-global ABFT session.
/// Returns the previously installed session.
pub fn install(session: Option<Arc<AbftSession>>) -> Option<Arc<AbftSession>> {
    std::mem::replace(&mut SESSION.lock(), session)
}

/// The currently installed session, if any. Fetched once per gemm call.
pub fn current() -> Option<Arc<AbftSession>> {
    SESSION.lock().clone()
}

/// RAII scope: installs `session` and restores the previous one on drop
/// (the guard wraps each multiply so concurrent non-ABFT users are
/// disturbed for the shortest possible window).
pub struct ScopedAbft {
    prev: Option<Arc<AbftSession>>,
}

pub fn scoped(session: Arc<AbftSession>) -> ScopedAbft {
    ScopedAbft {
        prev: install(Some(session)),
    }
}

impl Drop for ScopedAbft {
    fn drop(&mut self) {
        install(self.prev.take());
    }
}

/// A flagged (and later repaired) sub-block of C: `rows × cols` starting
/// at `(r0, c0)`, in the coordinate frame of the gemm call's C operand.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Region {
    pub r0: usize,
    pub rows: usize,
    pub c0: usize,
    pub cols: usize,
}

/// Resize to `n` and zero-fill, preserving capacity (grow-only).
#[inline]
fn resize0(v: &mut Vec<f64>, n: usize) {
    v.clear();
    v.resize(n, 0.0);
}

/// `(Σ v, Σ |v|)` of a slice, accumulated in 32 `T`-precision lanes —
/// four independent 8-wide vector chains, so the add-latency of one
/// chain overlaps the other three instead of serializing every chunk.
/// The lane partials both vectorize (the pack-sweep target-feature twins
/// turn this into 8-wide vector code) and divide the worst-case
/// sequential rounding growth by 32 — the residual tolerance budgets for
/// it in units of `T::EPS64`. Reduced to f64 once at the end.
#[inline(always)]
pub(crate) fn row_sum_abs_t<T: Scalar>(xs: &[T]) -> (f64, f64) {
    let mut sl = [[T::ZERO; 8]; 4];
    let mut al = [[T::ZERO; 8]; 4];
    let mut it = xs.chunks_exact(32);
    for ch in it.by_ref() {
        for c in 0..4 {
            for l in 0..8 {
                let v = ch[c * 8 + l];
                sl[c][l] += v;
                al[c][l] += v.abs();
            }
        }
    }
    let (mut rs, mut ra) = (0.0f64, 0.0f64);
    for c in 0..4 {
        for l in 0..8 {
            rs += sl[c][l].to_f64();
            ra += al[c][l].to_f64();
        }
    }
    for &v in it.remainder() {
        let v = v.to_f64();
        rs += v;
        ra += v.abs();
    }
    (rs, ra)
}

/// [`row_sum_abs_t`] with explicit AVX2 bodies when the hardware kernel
/// tier is active. The generic lane loop is correct everywhere, but
/// LLVM's auto-vectorizer emits scalar element inserts for it — far too
/// slow for the pack-fused hot path, so f32/f64 get hand-written
/// intrinsics (the TypeId match folds away at monomorphization, exactly
/// like the microkernel dispatch).
#[inline]
pub(crate) fn row_sum_abs_fast<T: Scalar>(xs: &[T]) -> (f64, f64) {
    #[cfg(target_arch = "x86_64")]
    if crate::kernel::hardware_fma_enabled() {
        use std::any::TypeId;
        if TypeId::of::<T>() == TypeId::of::<f32>() {
            // SAFETY: T is f32 (same layout); avx2 verified at runtime.
            let v = unsafe { std::slice::from_raw_parts(xs.as_ptr() as *const f32, xs.len()) };
            return unsafe { simd::sum_abs_f32(v) };
        }
        if TypeId::of::<T>() == TypeId::of::<f64>() {
            // SAFETY: T is f64 (same layout); avx2 verified at runtime.
            let v = unsafe { std::slice::from_raw_parts(xs.as_ptr() as *const f64, xs.len()) };
            return unsafe { simd::sum_abs_f64(v) };
        }
    }
    row_sum_abs_t(xs)
}

/// `(Σ row[p]·w[p], Σ |row[p]|·wm[p])` with sixteen f64 accumulator
/// lanes (four independent 4-wide chains — same latency-hiding story as
/// [`row_sum_abs_t`]).
#[inline(always)]
pub(crate) fn row_dot_mag<T: Scalar>(row: &[T], w: &[f64], wm: &[f64]) -> (f64, f64) {
    let n = row.len();
    debug_assert!(w.len() >= n && wm.len() >= n);
    let mut d = [[0.0f64; 4]; 4];
    let mut g = [[0.0f64; 4]; 4];
    let mut i = 0;
    while i + 16 <= n {
        for c in 0..4 {
            for l in 0..4 {
                let q = i + c * 4 + l;
                let v = row[q].to_f64();
                d[c][l] += v * w[q];
                g[c][l] += v.abs() * wm[q];
            }
        }
        i += 16;
    }
    let (mut ds, mut gs) = (0.0f64, 0.0f64);
    for c in 0..4 {
        for l in 0..4 {
            ds += d[c][l];
            gs += g[c][l];
        }
    }
    while i < n {
        let v = row[i].to_f64();
        ds += v * w[i];
        gs += v.abs() * wm[i];
        i += 1;
    }
    (ds, gs)
}

/// [`row_dot_mag`] with explicit AVX2+FMA bodies for f32/f64 when the
/// hardware kernel tier is active; same dispatch story as
/// [`row_sum_abs_fast`].
#[inline]
pub(crate) fn row_dot_mag_fast<T: Scalar>(row: &[T], w: &[f64], wm: &[f64]) -> (f64, f64) {
    #[cfg(target_arch = "x86_64")]
    if crate::kernel::hardware_fma_enabled() {
        use std::any::TypeId;
        if TypeId::of::<T>() == TypeId::of::<f32>() {
            // SAFETY: T is f32 (same layout); avx2+fma verified at runtime.
            let v = unsafe { std::slice::from_raw_parts(row.as_ptr() as *const f32, row.len()) };
            return unsafe { simd::dot_mag_f32(v, w, wm) };
        }
        if TypeId::of::<T>() == TypeId::of::<f64>() {
            // SAFETY: T is f64 (same layout); avx2+fma verified at runtime.
            let v = unsafe { std::slice::from_raw_parts(row.as_ptr() as *const f64, row.len()) };
            return unsafe { simd::dot_mag_f64(v, w, wm) };
        }
    }
    row_dot_mag(row, w, wm)
}

/// Hand-written AVX2 reduction bodies (see [`row_sum_abs_fast`]). Each
/// keeps multiple independent accumulator chains so vector-add/FMA
/// latency overlaps, and reduces to f64 deterministically at the end;
/// tails run the same scalar f64 ops as the generic bodies.
#[cfg(target_arch = "x86_64")]
mod simd {
    use core::arch::x86_64::*;

    /// # Safety
    /// CPU must support avx2+fma ([`crate::kernel::hardware_fma_enabled`]).
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn sum_abs_f32(xs: &[f32]) -> (f64, f64) {
        let n = xs.len();
        let p = xs.as_ptr();
        let sign = _mm256_set1_ps(-0.0);
        let mut s = [_mm256_setzero_ps(); 4];
        let mut a = [_mm256_setzero_ps(); 4];
        let mut i = 0usize;
        while i + 32 <= n {
            for c in 0..4 {
                let v = _mm256_loadu_ps(p.add(i + c * 8));
                s[c] = _mm256_add_ps(s[c], v);
                a[c] = _mm256_add_ps(a[c], _mm256_andnot_ps(sign, v));
            }
            i += 32;
        }
        let (mut rs, mut ra) = (0.0f64, 0.0f64);
        let mut lane = [0.0f32; 8];
        for c in 0..4 {
            _mm256_storeu_ps(lane.as_mut_ptr(), s[c]);
            for &l in &lane {
                rs += l as f64;
            }
            _mm256_storeu_ps(lane.as_mut_ptr(), a[c]);
            for &l in &lane {
                ra += l as f64;
            }
        }
        for &v in &xs[i..] {
            let v = v as f64;
            rs += v;
            ra += v.abs();
        }
        (rs, ra)
    }

    /// # Safety
    /// CPU must support avx2+fma ([`crate::kernel::hardware_fma_enabled`]).
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn sum_abs_f64(xs: &[f64]) -> (f64, f64) {
        let n = xs.len();
        let p = xs.as_ptr();
        let sign = _mm256_set1_pd(-0.0);
        let mut s = [_mm256_setzero_pd(); 4];
        let mut a = [_mm256_setzero_pd(); 4];
        let mut i = 0usize;
        while i + 16 <= n {
            for c in 0..4 {
                let v = _mm256_loadu_pd(p.add(i + c * 4));
                s[c] = _mm256_add_pd(s[c], v);
                a[c] = _mm256_add_pd(a[c], _mm256_andnot_pd(sign, v));
            }
            i += 16;
        }
        let (mut rs, mut ra) = (0.0f64, 0.0f64);
        let mut lane = [0.0f64; 4];
        for c in 0..4 {
            _mm256_storeu_pd(lane.as_mut_ptr(), s[c]);
            for &l in &lane {
                rs += l;
            }
            _mm256_storeu_pd(lane.as_mut_ptr(), a[c]);
            for &l in &lane {
                ra += l;
            }
        }
        for &v in &xs[i..] {
            rs += v;
            ra += v.abs();
        }
        (rs, ra)
    }

    /// # Safety
    /// CPU must support avx2+fma ([`crate::kernel::hardware_fma_enabled`]).
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn dot_mag_f32(row: &[f32], w: &[f64], wm: &[f64]) -> (f64, f64) {
        let n = row.len();
        debug_assert!(w.len() >= n && wm.len() >= n);
        let rp = row.as_ptr();
        let wp = w.as_ptr();
        let mp = wm.as_ptr();
        let sign = _mm256_set1_pd(-0.0);
        let mut d = [_mm256_setzero_pd(); 4];
        let mut g = [_mm256_setzero_pd(); 4];
        let mut i = 0usize;
        while i + 16 <= n {
            for h in 0..2 {
                let v8 = _mm256_loadu_ps(rp.add(i + h * 8));
                let lo = _mm256_cvtps_pd(_mm256_castps256_ps128(v8));
                let hi = _mm256_cvtps_pd(_mm256_extractf128_ps(v8, 1));
                let q = i + h * 8;
                d[h * 2] = _mm256_fmadd_pd(lo, _mm256_loadu_pd(wp.add(q)), d[h * 2]);
                d[h * 2 + 1] = _mm256_fmadd_pd(hi, _mm256_loadu_pd(wp.add(q + 4)), d[h * 2 + 1]);
                g[h * 2] = _mm256_fmadd_pd(
                    _mm256_andnot_pd(sign, lo),
                    _mm256_loadu_pd(mp.add(q)),
                    g[h * 2],
                );
                g[h * 2 + 1] = _mm256_fmadd_pd(
                    _mm256_andnot_pd(sign, hi),
                    _mm256_loadu_pd(mp.add(q + 4)),
                    g[h * 2 + 1],
                );
            }
            i += 16;
        }
        let (mut ds, mut gs) = (0.0f64, 0.0f64);
        let mut lane = [0.0f64; 4];
        for c in 0..4 {
            _mm256_storeu_pd(lane.as_mut_ptr(), d[c]);
            for &l in &lane {
                ds += l;
            }
            _mm256_storeu_pd(lane.as_mut_ptr(), g[c]);
            for &l in &lane {
                gs += l;
            }
        }
        while i < n {
            let v = row[i] as f64;
            ds += v * w[i];
            gs += v.abs() * wm[i];
            i += 1;
        }
        (ds, gs)
    }

    /// # Safety
    /// CPU must support avx2+fma ([`crate::kernel::hardware_fma_enabled`]).
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn dot_mag_f64(row: &[f64], w: &[f64], wm: &[f64]) -> (f64, f64) {
        let n = row.len();
        debug_assert!(w.len() >= n && wm.len() >= n);
        let rp = row.as_ptr();
        let wp = w.as_ptr();
        let mp = wm.as_ptr();
        let sign = _mm256_set1_pd(-0.0);
        let mut d = [_mm256_setzero_pd(); 4];
        let mut g = [_mm256_setzero_pd(); 4];
        let mut i = 0usize;
        while i + 16 <= n {
            for c in 0..4 {
                let v = _mm256_loadu_pd(rp.add(i + c * 4));
                d[c] = _mm256_fmadd_pd(v, _mm256_loadu_pd(wp.add(i + c * 4)), d[c]);
                g[c] = _mm256_fmadd_pd(
                    _mm256_andnot_pd(sign, v),
                    _mm256_loadu_pd(mp.add(i + c * 4)),
                    g[c],
                );
            }
            i += 16;
        }
        let (mut ds, mut gs) = (0.0f64, 0.0f64);
        let mut lane = [0.0f64; 4];
        for c in 0..4 {
            _mm256_storeu_pd(lane.as_mut_ptr(), d[c]);
            for &l in &lane {
                ds += l;
            }
            _mm256_storeu_pd(lane.as_mut_ptr(), g[c]);
            for &l in &lane {
                gs += l;
            }
        }
        while i < n {
            let v = row[i];
            ds += v * w[i];
            gs += v.abs() * wm[i];
            i += 1;
        }
        (ds, gs)
    }
}

/// Checksum scratch for one gemm call. Lives inside the driver's
/// [`crate::blocked::Scratch`], so the thread-local scratch cache makes
/// ABFT allocation-free in steady state (all vectors grow-only).
pub(crate) struct AbftBufs<T> {
    /// Row sums / abs-sums of the current B block (length `kc`),
    /// accumulated in vector lanes fused into the `pack_b` /
    /// `pack_b_combined` sweep (the combined path sums the **packed
    /// combined values**, exact w.r.t. what the kernel consumes).
    pub b_sum: Vec<f64>,
    pub b_mag: Vec<f64>,
    // Expected full-k row sums of the C update (length m), folded in per
    // (pc, ic) block from source A rows against b_sum / b_mag.
    dot_row: Vec<f64>,
    mag_row: Vec<f64>,
    // Check-time scratch for one ic block (observed + β-replay sums).
    obs_row: Vec<f64>,
    pre_row: Vec<f64>,
    pre_abs_row: Vec<f64>,
    // Column-localization scratch, touched only after a row detection.
    loc_a_sum: Vec<f64>,
    loc_a_mag: Vec<f64>,
    obs_col: Vec<f64>,
    dot_col: Vec<f64>,
    mag_col: Vec<f64>,
    pre_col: Vec<f64>,
    pre_abs_col: Vec<f64>,
    stripe_bad: Vec<bool>,
    /// Regions flagged for repair (absolute C coordinates).
    pub flags: Vec<Region>,
    /// Row-major copy of C at call entry (taken only when β ≠ 0, so a
    /// repair can replay the caller's β against the original values).
    snap: Vec<T>,
    snap_cols: usize,
}

impl<T> Default for AbftBufs<T> {
    fn default() -> Self {
        Self {
            b_sum: Vec::new(),
            b_mag: Vec::new(),
            dot_row: Vec::new(),
            mag_row: Vec::new(),
            obs_row: Vec::new(),
            pre_row: Vec::new(),
            pre_abs_row: Vec::new(),
            loc_a_sum: Vec::new(),
            loc_a_mag: Vec::new(),
            obs_col: Vec::new(),
            dot_col: Vec::new(),
            mag_col: Vec::new(),
            pre_col: Vec::new(),
            pre_abs_col: Vec::new(),
            stripe_bad: Vec::new(),
            flags: Vec::new(),
            snap: Vec::new(),
            snap_cols: 0,
        }
    }
}

impl<T> AbftBufs<T> {
    /// Bytes currently held (for scratch accounting).
    pub fn capacity_bytes(&self) -> usize {
        let f64s = self.b_sum.capacity()
            + self.b_mag.capacity()
            + self.dot_row.capacity()
            + self.mag_row.capacity()
            + self.obs_row.capacity()
            + self.pre_row.capacity()
            + self.pre_abs_row.capacity()
            + self.loc_a_sum.capacity()
            + self.loc_a_mag.capacity()
            + self.obs_col.capacity()
            + self.dot_col.capacity()
            + self.mag_col.capacity()
            + self.pre_col.capacity()
            + self.pre_abs_col.capacity();
        f64s * std::mem::size_of::<f64>()
            + self.stripe_bad.capacity()
            + self.flags.capacity() * std::mem::size_of::<Region>()
            + self.snap.capacity() * std::mem::size_of::<T>()
    }
}

impl<T: Scalar> AbftBufs<T> {
    /// Start a checked call: clear stale flags and, when the caller's β
    /// contributes to C, snapshot C so repairs can replay it.
    pub(crate) fn begin_call(&mut self, beta: T, c: &MatMut<'_, T>) {
        self.flags.clear();
        self.snap_cols = 0;
        if beta != T::ZERO {
            let (m, n) = (c.rows(), c.cols());
            self.snap.clear();
            self.snap.reserve(m * n);
            let cref = c.as_ref();
            for i in 0..m {
                // SAFETY: a view of a `MatMut` is plain, and i < m = rows.
                self.snap
                    .extend_from_slice(unsafe { cref.row_unchecked(i) });
            }
            self.snap_cols = n;
        }
    }

    /// Zero the expected-row accumulators for a new jc block.
    pub(crate) fn begin_jc(&mut self, m: usize) {
        resize0(&mut self.dot_row, m);
        resize0(&mut self.mag_row, m);
    }

    /// Fold one `(pc, ic)` block into the expected row sums: for every
    /// source row of the (possibly multi-term) A operand,
    /// `dot_row[i] += Σ_p A[i,p] · b_sum[p]` plus the abs companion.
    /// O(mc·kc) fused f64 work — a `1/nc` fraction of the kernel flops.
    /// A transposed source is folded a contiguous column at a time.
    pub(crate) fn accum_rows(
        &mut self,
        terms: &[(T, crate::matrix::MatRef<'_, T>)],
        ic: usize,
        pc: usize,
        mc: usize,
        kc: usize,
    ) {
        for &(cf, src) in terms {
            let cfd = cf.to_f64();
            let acf = cfd.abs();
            if src.is_transposed() {
                self.accum_cols(cfd, src, ic, pc, mc, kc);
                continue;
            }
            for i in 0..mc {
                // SAFETY: plain (checked above), and ic + i < ic + mc ≤ rows.
                let row = &unsafe { src.row_unchecked(ic + i) }[pc..pc + kc];
                let (d, g) = row_dot_mag_fast(row, &self.b_sum, &self.b_mag);
                self.dot_row[ic + i] += cfd * d;
                self.mag_row[ic + i] += acf * g;
            }
        }
    }

    /// [`Self::accum_rows`] for one transposed source (coefficient `cf`):
    /// column `p` of the block is a contiguous source row, folded into
    /// every row's expectation at once. Out of line (one call per block),
    /// so the blocked driver's loop nest compiles as it did without it.
    #[inline(never)]
    fn accum_cols(
        &mut self,
        cf: f64,
        src: crate::matrix::MatRef<'_, T>,
        ic: usize,
        pc: usize,
        mc: usize,
        kc: usize,
    ) {
        let dot = &mut self.dot_row[ic..ic + mc];
        let mag = &mut self.mag_row[ic..ic + mc];
        for p in 0..kc {
            let (w, wm) = (cf * self.b_sum[p], cf.abs() * self.b_mag[p]);
            let col = &src.col(pc + p)[ic..ic + mc];
            for ((d, g), &v) in dot.iter_mut().zip(mag.iter_mut()).zip(col) {
                let v = v.to_f64();
                *d += v * w;
                *g += v.abs() * wm;
            }
        }
    }

    /// Verify one ic block's full-k update against the accumulated row
    /// expectations; returns `true` when any row violates the tolerance.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn check_rows(
        &mut self,
        session: &AbftSession,
        alpha: T,
        beta: T,
        c: &MatMut<'_, T>,
        ic: usize,
        jc: usize,
        mc: usize,
        nc: usize,
        k: usize,
    ) -> bool {
        session.stats.bump_checks();
        let al = alpha.to_f64();
        let be = beta.to_f64();
        resize0(&mut self.obs_row, mc);
        let cref = c.as_ref();
        for i in 0..mc {
            // SAFETY: a view of a `MatMut` is plain, and ic + i < rows.
            let row = unsafe { cref.row_unchecked(ic + i) };
            self.obs_row[i] = row_sum_abs_fast(&row[jc..jc + nc]).0;
        }
        let with_pre = be != 0.0;
        if with_pre {
            resize0(&mut self.pre_row, mc);
            resize0(&mut self.pre_abs_row, mc);
            let n = self.snap_cols;
            for i in 0..mc {
                let row = &self.snap[(ic + i) * n + jc..(ic + i) * n + jc + nc];
                let (s, a) = row_sum_abs_fast(row);
                self.pre_row[i] = s;
                self.pre_abs_row[i] = a;
            }
        }
        let tol = session.cfg.slack * T::EPS64 * ((k + nc) as f64).sqrt();
        let mut any = false;
        for i in 0..mc {
            let (pre, pre_abs) = if with_pre {
                (self.pre_row[i], self.pre_abs_row[i])
            } else {
                (0.0, 0.0)
            };
            let exp = al * self.dot_row[ic + i] + be * pre;
            let mag = al.abs() * self.mag_row[ic + i] + be.abs() * pre_abs;
            if !(self.obs_row[i] - exp).abs().le(&(tol * mag)) {
                any = true;
            }
        }
        any
    }

    /// After a row-check violation: recompute column-stripe residuals for
    /// this ic block from the **source** operands over the full k, flag
    /// the violating NR stripes (every stripe when cancellation defeats
    /// localization), and count them detected. Returns the number of
    /// regions newly flagged. Cold path — runs only on detection.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn localize(
        &mut self,
        session: &AbftSession,
        a_terms: &[(T, crate::matrix::MatRef<'_, T>)],
        b_terms: &[(T, crate::matrix::MatRef<'_, T>)],
        alpha: T,
        beta: T,
        c: &MatMut<'_, T>,
        ic: usize,
        jc: usize,
        mc: usize,
        nc: usize,
        nr: usize,
        k: usize,
    ) -> usize {
        let al = alpha.to_f64();
        let be = beta.to_f64();

        // Column sums / abs-sums of the combined A block rows, full k.
        resize0(&mut self.loc_a_sum, k);
        resize0(&mut self.loc_a_mag, k);
        for i in 0..mc {
            for p in 0..k {
                let mut v = 0.0f64;
                for &(cf, src) in a_terms {
                    v += cf.to_f64() * src.at(ic + i, p).to_f64();
                }
                self.loc_a_sum[p] += v;
                self.loc_a_mag[p] += v.abs();
            }
        }

        // Expected column sums against the combined source B.
        resize0(&mut self.dot_col, nc);
        resize0(&mut self.mag_col, nc);
        for p in 0..k {
            let (asp, amp) = (self.loc_a_sum[p], self.loc_a_mag[p]);
            for j in 0..nc {
                let mut bv = 0.0f64;
                for &(cf, src) in b_terms {
                    bv += cf.to_f64() * src.at(p, jc + j).to_f64();
                }
                self.dot_col[j] += asp * bv;
                self.mag_col[j] += amp * bv.abs();
            }
        }

        // Observed and (for β ≠ 0) pre-update column sums.
        resize0(&mut self.obs_col, nc);
        let cref = c.as_ref();
        for i in 0..mc {
            // SAFETY: a view of a `MatMut` is plain, and ic + i < rows.
            let row = unsafe { cref.row_unchecked(ic + i) };
            for (j, &v) in row[jc..jc + nc].iter().enumerate() {
                self.obs_col[j] += v.to_f64();
            }
        }
        let with_pre = be != 0.0;
        resize0(&mut self.pre_col, nc);
        resize0(&mut self.pre_abs_col, nc);
        if with_pre {
            let n = self.snap_cols;
            for i in 0..mc {
                let row = &self.snap[(ic + i) * n + jc..(ic + i) * n + jc + nc];
                for (j, &v) in row.iter().enumerate() {
                    let v = v.to_f64();
                    self.pre_col[j] += v;
                    self.pre_abs_col[j] += v.abs();
                }
            }
        }

        let tol = session.cfg.slack * T::EPS64 * ((k + mc) as f64).sqrt();
        let col_slivers = nc.div_ceil(nr);
        self.stripe_bad.clear();
        self.stripe_bad.resize(col_slivers, false);
        let mut any_col = false;
        for j in 0..nc {
            let exp = al * self.dot_col[j] + be * self.pre_col[j];
            let mag = al.abs() * self.mag_col[j] + be.abs() * self.pre_abs_col[j];
            if !(self.obs_col[j] - exp).abs().le(&(tol * mag)) {
                self.stripe_bad[j / nr] = true;
                any_col = true;
            }
        }

        let mut fresh = 0;
        for s in 0..col_slivers {
            if any_col && !self.stripe_bad[s] {
                continue;
            }
            let j0 = s * nr;
            let reg = Region {
                r0: ic,
                rows: mc,
                c0: jc + j0,
                cols: nr.min(nc - j0),
            };
            if !self.flags.contains(&reg) {
                self.flags.push(reg);
                fresh += 1;
            }
        }
        session.stats.bump_detected(fresh as u64);
        fresh
    }

    /// Restore one region of C from the entry snapshot (repair replay of
    /// the caller's β). No-op panics are impossible: callers only reach
    /// this with β ≠ 0, which is exactly when the snapshot was taken.
    pub(crate) fn restore_region(&self, c: &mut MatMut<'_, T>, reg: Region) {
        let n = self.snap_cols;
        debug_assert!(n > 0, "restore without snapshot");
        for i in 0..reg.rows {
            let src = &self.snap[(reg.r0 + i) * n + reg.c0..(reg.r0 + i) * n + reg.c0 + reg.cols];
            c.row_mut(reg.r0 + i)[reg.c0..reg.c0 + reg.cols].copy_from_slice(src);
        }
    }
}

/// Deterministic single-bit-flip switches for SDC drills, compiled only
/// with `--features fault-inject`. Arming is one-shot: the next gemm
/// block that packs (or finishes) the targeted buffer consumes the
/// fault, flipping one bit of one element on the *real* read path — the
/// corrupted value then flows through the kernel exactly as a hardware
/// upset would.
#[cfg(feature = "fault-inject")]
pub mod sdc {
    use parking_lot::Mutex;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Which buffer the armed flip lands in.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub enum FlipTarget {
        /// Packed A panel, after the pack sweep (and its checksums).
        PackA,
        /// Packed B panel, after the pack sweep (and its checksums).
        PackB,
        /// The C block, after the register-tile sweep wrote it.
        Output,
    }

    /// One armed flip: `index` selects a valid (non-pad) element of the
    /// first targeted block after arming, `bit` the bit to flip
    /// (wrapped to the element width).
    #[derive(Clone, Copy, Debug)]
    pub struct FlipSpec {
        pub target: FlipTarget,
        pub index: usize,
        pub bit: u32,
    }

    static ARMED: Mutex<Option<FlipSpec>> = Mutex::new(None);
    static FIRED: AtomicU64 = AtomicU64::new(0);

    /// Arm a one-shot bit flip (replaces any previously armed flip).
    pub fn arm(spec: FlipSpec) {
        *ARMED.lock() = Some(spec);
    }

    /// Clear an armed flip that has not fired yet.
    pub fn disarm() {
        *ARMED.lock() = None;
    }

    /// Total flips fired since process start.
    pub fn injected() -> u64 {
        FIRED.load(Ordering::Relaxed)
    }

    /// Consume the armed flip if it targets `target`.
    pub(crate) fn take(target: FlipTarget) -> Option<FlipSpec> {
        let mut guard = ARMED.lock();
        match *guard {
            Some(spec) if spec.target == target => {
                *guard = None;
                FIRED.fetch_add(1, Ordering::Relaxed);
                Some(spec)
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_subtract_saturating() {
        let a = AbftCounts {
            checks: 5,
            detected: 1,
            repaired: 1,
            unrepaired: 0,
        };
        let b = AbftCounts {
            checks: 2,
            detected: 2,
            repaired: 0,
            unrepaired: 0,
        };
        let d = a - b;
        assert_eq!(d.checks, 3);
        assert_eq!(d.detected, 0);
        assert_eq!(d.repaired, 1);
    }

    #[test]
    fn install_and_scoped_restore() {
        assert!(current().is_none());
        let s1 = Arc::new(AbftSession::default());
        let prev = install(Some(s1.clone()));
        assert!(prev.is_none());
        {
            let s2 = Arc::new(AbftSession::default());
            let _g = scoped(s2.clone());
            assert!(Arc::ptr_eq(&current().unwrap(), &s2));
        }
        assert!(Arc::ptr_eq(&current().unwrap(), &s1));
        install(None);
        assert!(current().is_none());
    }
}
