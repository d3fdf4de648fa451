//! Runtime CPU-feature dispatch for the register microkernel.
//!
//! The crate ships three kernel tiers:
//!
//! * **Scalar** — the portable `mul_add` lattice in [`crate::microkernel`].
//!   Always correct on every target (`mul_add` is IEEE-754 fused whether it
//!   lowers to an FMA instruction or a libm call), used as the fallback and
//!   as the reference side of the dispatch-matrix test suite.
//! * **Avx2** — explicit `std::arch` AVX2+FMA register tiles
//!   (f32 6×16, f64 6×8: twelve YMM accumulators per tile).
//! * **Avx512** — explicit AVX-512F register tiles
//!   (f32 14×32, f64 14×16: twenty-eight ZMM accumulators per tile).
//!
//! The tier is picked **once per process** with `is_x86_feature_detected!`
//! and cached in a [`OnceLock`]; binaries no longer need
//! `-C target-cpu=native` to get vector code, and the same binary runs
//! correctly (scalar tier) on hardware without AVX.
//!
//! Every tier computes each `C(i,j)` as the *same* chain of fused
//! multiply-adds in the same k order — a rank-1 update per packed k step,
//! one private accumulator per element — so results are **bitwise
//! identical across tiers** (asserted by `tests/dispatch_matrix.rs`).
//! Only the tile footprint (MR×NR) and therefore the packed-panel layout
//! differ.
//!
//! Environment override, read at first use: `APA_KERNEL_TIER` —
//! `scalar` | `avx2` | `avx512` | `auto`; a request the CPU cannot honor
//! falls back to the best available tier. `scalar` is always honored,
//! which keeps the fallback path exercised on big iron.

use crate::microkernel::microkernel;
use crate::scalar::Scalar;
use std::any::TypeId;
use std::sync::OnceLock;

/// Signature of one microkernel: `C_tile ← α·(Â·B̂) + β·C_tile` over packed
/// slivers (see [`crate::microkernel::microkernel`] for the full contract).
pub type MicroKernelFn<T> = unsafe fn(
    kc: usize,
    alpha: T,
    ap: *const T,
    bp: *const T,
    beta: T,
    beta_zero: bool,
    c: *mut T,
    rs: usize,
);

/// Upper bound on `MR·NR` over every tier — sizes the ragged-edge scratch
/// tile in the blocked driver (largest shape: AVX-512 f32, 14×32).
pub const MAX_TILE_ELEMS: usize = 14 * 32;

/// The instruction-set tier a kernel was compiled for.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum KernelTier {
    /// Portable `mul_add` lattice (any target).
    Scalar,
    /// AVX2 + FMA, 256-bit registers.
    Avx2,
    /// AVX-512F, 512-bit registers.
    Avx512,
}

impl KernelTier {
    /// Stable lower-case name (used by env overrides and bench reports).
    pub fn name(self) -> &'static str {
        match self {
            KernelTier::Scalar => "scalar",
            KernelTier::Avx2 => "avx2",
            KernelTier::Avx512 => "avx512",
        }
    }

    fn from_name(s: &str) -> Option<Self> {
        match s.trim().to_ascii_lowercase().as_str() {
            "scalar" => Some(KernelTier::Scalar),
            "avx2" => Some(KernelTier::Avx2),
            "avx512" => Some(KernelTier::Avx512),
            _ => None,
        }
    }
}

impl std::fmt::Display for KernelTier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A resolved microkernel: tile shape plus the function to run it. Cheap to
/// copy (two `usize`, an enum, a function pointer).
#[derive(Clone, Copy)]
pub struct KernelSpec<T: Scalar> {
    /// Tier the kernel belongs to.
    pub tier: KernelTier,
    /// Register-tile rows; packed A slivers use this stride.
    pub mr: usize,
    /// Register-tile columns; packed B slivers use this stride.
    pub nr: usize,
    kernel: MicroKernelFn<T>,
}

impl<T: Scalar> KernelSpec<T> {
    /// The always-available portable kernel ([`Scalar::MR`]×[`Scalar::NR`]).
    pub fn scalar() -> Self {
        Self {
            tier: KernelTier::Scalar,
            mr: T::MR,
            nr: T::NR,
            kernel: microkernel::<T>,
        }
    }

    /// Run the kernel on one packed tile.
    ///
    /// # Safety
    /// Same contract as [`crate::microkernel::microkernel`] with
    /// `MR = self.mr`, `NR = self.nr`: `c` must point to a writable
    /// `mr × nr` tile with row stride `rs`, and `ap`/`bp` must hold at
    /// least `kc·mr` / `kc·nr` packed elements. Additionally the CPU must
    /// support `self.tier` (guaranteed when the spec came from
    /// [`kernel_spec`] / [`spec_for_tier`]).
    #[allow(clippy::too_many_arguments)]
    #[inline]
    pub unsafe fn run(
        &self,
        kc: usize,
        alpha: T,
        ap: *const T,
        bp: *const T,
        beta: T,
        beta_zero: bool,
        c: *mut T,
        rs: usize,
    ) {
        (self.kernel)(kc, alpha, ap, bp, beta, beta_zero, c, rs)
    }
}

impl<T: Scalar> std::fmt::Debug for KernelSpec<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KernelSpec")
            .field("tier", &self.tier)
            .field("mr", &self.mr)
            .field("nr", &self.nr)
            .finish()
    }
}

/// Reinterpret a `KernelSpec<U>` as `KernelSpec<T>` after proving `T == U`.
/// The struct stores no `T` values — only the fn-pointer signature mentions
/// the type — so this is a no-op once the `TypeId`s match.
fn retype<U: Scalar, T: Scalar>(spec: KernelSpec<U>) -> KernelSpec<T> {
    assert_eq!(TypeId::of::<T>(), TypeId::of::<U>(), "retype type mismatch");
    // SAFETY: T and U are the same monomorphized type (checked above), so
    // the two structs have identical layout and the fn pointer is exact.
    unsafe { std::mem::transmute_copy::<KernelSpec<U>, KernelSpec<T>>(&spec) }
}

/// Tiers the running CPU can execute, best last. Always contains `Scalar`.
pub fn available_tiers() -> &'static [KernelTier] {
    static TIERS: OnceLock<Vec<KernelTier>> = OnceLock::new();
    TIERS.get_or_init(|| {
        #[allow(unused_mut)]
        let mut tiers = vec![KernelTier::Scalar];
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma")
            {
                tiers.push(KernelTier::Avx2);
            }
            if std::arch::is_x86_feature_detected!("avx512f") {
                tiers.push(KernelTier::Avx512);
            }
        }
        tiers
    })
}

fn best_available() -> KernelTier {
    *available_tiers()
        .last()
        .expect("scalar is always available")
}

/// The tier every default-dispatch gemm in this process runs on. Resolved
/// once from CPU detection plus the env override documented on the module.
pub fn selected_tier() -> KernelTier {
    static SELECTED: OnceLock<KernelTier> = OnceLock::new();
    *SELECTED.get_or_init(|| {
        let best = best_available();
        match std::env::var("APA_KERNEL_TIER")
            .ok()
            .as_deref()
            .and_then(KernelTier::from_name)
        {
            // A requested tier the CPU lacks clamps down to the best real one.
            Some(requested) => requested.min(best),
            None => best,
        }
    })
}

/// The spec for an explicit tier, or `None` when this CPU cannot run it
/// (or no explicit kernel exists for `T`, which only ships `f32`/`f64`
/// SIMD tiles). `Scalar` always succeeds.
pub fn spec_for_tier<T: Scalar>(tier: KernelTier) -> Option<KernelSpec<T>> {
    if tier == KernelTier::Scalar {
        return Some(KernelSpec::scalar());
    }
    if !available_tiers().contains(&tier) {
        return None;
    }
    #[cfg(target_arch = "x86_64")]
    {
        let id = TypeId::of::<T>();
        if id == TypeId::of::<f32>() {
            let spec: KernelSpec<f32> = match tier {
                KernelTier::Avx2 => KernelSpec {
                    tier,
                    mr: 6,
                    nr: 16,
                    kernel: x86::kernel_f32_avx2,
                },
                KernelTier::Avx512 => KernelSpec {
                    tier,
                    mr: 14,
                    nr: 32,
                    kernel: x86::kernel_f32_avx512,
                },
                KernelTier::Scalar => unreachable!(),
            };
            return Some(retype(spec));
        }
        if id == TypeId::of::<f64>() {
            let spec: KernelSpec<f64> = match tier {
                KernelTier::Avx2 => KernelSpec {
                    tier,
                    mr: 6,
                    nr: 8,
                    kernel: x86::kernel_f64_avx2,
                },
                KernelTier::Avx512 => KernelSpec {
                    tier,
                    mr: 14,
                    nr: 16,
                    kernel: x86::kernel_f64_avx512,
                },
                KernelTier::Scalar => unreachable!(),
            };
            return Some(retype(spec));
        }
    }
    None
}

/// The kernel every default-dispatch gemm in this process uses for `T`:
/// [`selected_tier`] where an explicit kernel exists, scalar otherwise.
pub fn kernel_spec<T: Scalar>() -> KernelSpec<T> {
    spec_for_tier(selected_tier()).unwrap_or_else(KernelSpec::scalar)
}

/// Whether the `mul_add` lattices outside the microkernel (combined
/// packers, combine kernels) may run inside their
/// `#[target_feature(enable = "avx2,fma")]` twins. True only when a SIMD
/// tier is selected *and* avx2+fma are really present — so forcing the
/// scalar tier (`APA_KERNEL_TIER=scalar`) keeps the whole portable path
/// exercised end to end. Numerics are identical either way: `mul_add` is
/// IEEE-754 fused whether it lowers to an FMA instruction or a libm call.
pub(crate) fn hardware_fma_enabled() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        static ENABLED: OnceLock<bool> = OnceLock::new();
        *ENABLED.get_or_init(|| {
            selected_tier() != KernelTier::Scalar
                && std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma")
        })
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// One-line human-readable dispatch report, e.g.
/// `kernel dispatch: tier=avx512 (available: scalar,avx2,avx512) f32 14x32, f64 14x16`.
/// Bench harnesses print this so scripts can assert which tier actually ran.
pub fn dispatch_report() -> String {
    let names: Vec<&str> = available_tiers().iter().map(|t| t.name()).collect();
    let f32_spec = kernel_spec::<f32>();
    let f64_spec = kernel_spec::<f64>();
    format!(
        "kernel dispatch: tier={} (available: {}) f32 {}x{}, f64 {}x{}",
        selected_tier().name(),
        names.join(","),
        f32_spec.mr,
        f32_spec.nr,
        f64_spec.mr,
        f64_spec.nr,
    )
}

/// The explicit x86-64 kernels. Each mirrors the scalar kernel exactly:
/// a rank-1 update of the register tile per packed k step (one broadcast
/// per A row, full-width B loads, FMA into per-element accumulators),
/// then the α/β epilogue with the same operation shapes
/// (`α·acc` for β = 0, `fma(α, acc, β·c)` otherwise) — which is what makes
/// every tier bitwise-identical to every other.
#[cfg(target_arch = "x86_64")]
mod x86 {
    // Kernel signatures are pinned to the 8-argument MicroKernelFn shape.
    #![allow(unsafe_op_in_unsafe_fn, clippy::too_many_arguments)]
    use std::arch::x86_64::*;

    /// f32 AVX2+FMA 6×16 tile: 12 YMM accumulators + 2 B registers + 1
    /// broadcast, fitting the 16-register file.
    ///
    /// # Safety
    /// CPU must support avx2+fma; pointer contract as [`super::MicroKernelFn`].
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn kernel_f32_avx2(
        kc: usize,
        alpha: f32,
        ap: *const f32,
        bp: *const f32,
        beta: f32,
        beta_zero: bool,
        c: *mut f32,
        rs: usize,
    ) {
        const MR: usize = 6;
        let mut acc = [[_mm256_setzero_ps(); 2]; MR];
        let (mut a, mut b) = (ap, bp);
        for _ in 0..kc {
            let b0 = _mm256_loadu_ps(b);
            let b1 = _mm256_loadu_ps(b.add(8));
            for (i, row) in acc.iter_mut().enumerate() {
                let ai = _mm256_set1_ps(*a.add(i));
                row[0] = _mm256_fmadd_ps(ai, b0, row[0]);
                row[1] = _mm256_fmadd_ps(ai, b1, row[1]);
            }
            a = a.add(MR);
            b = b.add(16);
        }
        let av = _mm256_set1_ps(alpha);
        if beta_zero {
            for (i, row) in acc.iter().enumerate() {
                let cr = c.add(i * rs);
                _mm256_storeu_ps(cr, _mm256_mul_ps(av, row[0]));
                _mm256_storeu_ps(cr.add(8), _mm256_mul_ps(av, row[1]));
            }
        } else {
            let bv = _mm256_set1_ps(beta);
            for (i, row) in acc.iter().enumerate() {
                let cr = c.add(i * rs);
                let c0 = _mm256_loadu_ps(cr);
                let c1 = _mm256_loadu_ps(cr.add(8));
                _mm256_storeu_ps(cr, _mm256_fmadd_ps(av, row[0], _mm256_mul_ps(bv, c0)));
                _mm256_storeu_ps(
                    cr.add(8),
                    _mm256_fmadd_ps(av, row[1], _mm256_mul_ps(bv, c1)),
                );
            }
        }
    }

    /// f64 AVX2+FMA 6×8 tile: 12 YMM accumulators.
    ///
    /// # Safety
    /// CPU must support avx2+fma; pointer contract as [`super::MicroKernelFn`].
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn kernel_f64_avx2(
        kc: usize,
        alpha: f64,
        ap: *const f64,
        bp: *const f64,
        beta: f64,
        beta_zero: bool,
        c: *mut f64,
        rs: usize,
    ) {
        const MR: usize = 6;
        let mut acc = [[_mm256_setzero_pd(); 2]; MR];
        let (mut a, mut b) = (ap, bp);
        for _ in 0..kc {
            let b0 = _mm256_loadu_pd(b);
            let b1 = _mm256_loadu_pd(b.add(4));
            for (i, row) in acc.iter_mut().enumerate() {
                let ai = _mm256_set1_pd(*a.add(i));
                row[0] = _mm256_fmadd_pd(ai, b0, row[0]);
                row[1] = _mm256_fmadd_pd(ai, b1, row[1]);
            }
            a = a.add(MR);
            b = b.add(8);
        }
        let av = _mm256_set1_pd(alpha);
        if beta_zero {
            for (i, row) in acc.iter().enumerate() {
                let cr = c.add(i * rs);
                _mm256_storeu_pd(cr, _mm256_mul_pd(av, row[0]));
                _mm256_storeu_pd(cr.add(4), _mm256_mul_pd(av, row[1]));
            }
        } else {
            let bv = _mm256_set1_pd(beta);
            for (i, row) in acc.iter().enumerate() {
                let cr = c.add(i * rs);
                let c0 = _mm256_loadu_pd(cr);
                let c1 = _mm256_loadu_pd(cr.add(4));
                _mm256_storeu_pd(cr, _mm256_fmadd_pd(av, row[0], _mm256_mul_pd(bv, c0)));
                _mm256_storeu_pd(
                    cr.add(4),
                    _mm256_fmadd_pd(av, row[1], _mm256_mul_pd(bv, c1)),
                );
            }
        }
    }

    /// f32 AVX-512F 14×32 tile: 28 ZMM accumulators + 2 B registers + 1
    /// broadcast, fitting the 32-register file (the BLIS skx shape).
    ///
    /// # Safety
    /// CPU must support avx512f; pointer contract as [`super::MicroKernelFn`].
    #[target_feature(enable = "avx512f")]
    pub unsafe fn kernel_f32_avx512(
        kc: usize,
        alpha: f32,
        ap: *const f32,
        bp: *const f32,
        beta: f32,
        beta_zero: bool,
        c: *mut f32,
        rs: usize,
    ) {
        const MR: usize = 14;
        let mut acc = [[_mm512_setzero_ps(); 2]; MR];
        let (mut a, mut b) = (ap, bp);
        for _ in 0..kc {
            let b0 = _mm512_loadu_ps(b);
            let b1 = _mm512_loadu_ps(b.add(16));
            for (i, row) in acc.iter_mut().enumerate() {
                let ai = _mm512_set1_ps(*a.add(i));
                row[0] = _mm512_fmadd_ps(ai, b0, row[0]);
                row[1] = _mm512_fmadd_ps(ai, b1, row[1]);
            }
            a = a.add(MR);
            b = b.add(32);
        }
        let av = _mm512_set1_ps(alpha);
        if beta_zero {
            for (i, row) in acc.iter().enumerate() {
                let cr = c.add(i * rs);
                _mm512_storeu_ps(cr, _mm512_mul_ps(av, row[0]));
                _mm512_storeu_ps(cr.add(16), _mm512_mul_ps(av, row[1]));
            }
        } else {
            let bv = _mm512_set1_ps(beta);
            for (i, row) in acc.iter().enumerate() {
                let cr = c.add(i * rs);
                let c0 = _mm512_loadu_ps(cr);
                let c1 = _mm512_loadu_ps(cr.add(16));
                _mm512_storeu_ps(cr, _mm512_fmadd_ps(av, row[0], _mm512_mul_ps(bv, c0)));
                _mm512_storeu_ps(
                    cr.add(16),
                    _mm512_fmadd_ps(av, row[1], _mm512_mul_ps(bv, c1)),
                );
            }
        }
    }

    /// f64 AVX-512F 14×16 tile: 28 ZMM accumulators.
    ///
    /// # Safety
    /// CPU must support avx512f; pointer contract as [`super::MicroKernelFn`].
    #[target_feature(enable = "avx512f")]
    pub unsafe fn kernel_f64_avx512(
        kc: usize,
        alpha: f64,
        ap: *const f64,
        bp: *const f64,
        beta: f64,
        beta_zero: bool,
        c: *mut f64,
        rs: usize,
    ) {
        const MR: usize = 14;
        let mut acc = [[_mm512_setzero_pd(); 2]; MR];
        let (mut a, mut b) = (ap, bp);
        for _ in 0..kc {
            let b0 = _mm512_loadu_pd(b);
            let b1 = _mm512_loadu_pd(b.add(8));
            for (i, row) in acc.iter_mut().enumerate() {
                let ai = _mm512_set1_pd(*a.add(i));
                row[0] = _mm512_fmadd_pd(ai, b0, row[0]);
                row[1] = _mm512_fmadd_pd(ai, b1, row[1]);
            }
            a = a.add(MR);
            b = b.add(16);
        }
        let av = _mm512_set1_pd(alpha);
        if beta_zero {
            for (i, row) in acc.iter().enumerate() {
                let cr = c.add(i * rs);
                _mm512_storeu_pd(cr, _mm512_mul_pd(av, row[0]));
                _mm512_storeu_pd(cr.add(8), _mm512_mul_pd(av, row[1]));
            }
        } else {
            let bv = _mm512_set1_pd(beta);
            for (i, row) in acc.iter().enumerate() {
                let cr = c.add(i * rs);
                let c0 = _mm512_loadu_pd(cr);
                let c1 = _mm512_loadu_pd(cr.add(8));
                _mm512_storeu_pd(cr, _mm512_fmadd_pd(av, row[0], _mm512_mul_pd(bv, c0)));
                _mm512_storeu_pd(
                    cr.add(8),
                    _mm512_fmadd_pd(av, row[1], _mm512_mul_pd(bv, c1)),
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_always_available() {
        assert!(available_tiers().contains(&KernelTier::Scalar));
        assert_eq!(available_tiers()[0], KernelTier::Scalar);
        let s = spec_for_tier::<f32>(KernelTier::Scalar).unwrap();
        assert_eq!((s.mr, s.nr), (f32::MR, f32::NR));
    }

    #[test]
    fn selected_tier_is_available() {
        assert!(available_tiers().contains(&selected_tier()));
    }

    #[test]
    fn specs_fit_ragged_scratch_budget() {
        for &tier in available_tiers() {
            if let Some(s) = spec_for_tier::<f32>(tier) {
                assert!(s.mr * s.nr <= MAX_TILE_ELEMS, "{tier}: f32 tile too big");
            }
            if let Some(s) = spec_for_tier::<f64>(tier) {
                assert!(s.mr * s.nr <= MAX_TILE_ELEMS, "{tier}: f64 tile too big");
            }
        }
    }

    #[test]
    fn tier_names_round_trip() {
        for tier in [KernelTier::Scalar, KernelTier::Avx2, KernelTier::Avx512] {
            assert_eq!(KernelTier::from_name(tier.name()), Some(tier));
        }
        assert_eq!(KernelTier::from_name("sse9"), None);
    }

    #[test]
    fn dispatch_report_names_selected_tier() {
        let report = dispatch_report();
        assert!(report.contains(&format!("tier={}", selected_tier().name())));
        assert!(report.contains("available: scalar"));
    }
}
