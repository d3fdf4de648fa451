//! # apa-gemm
//!
//! A from-scratch, pure-Rust classical GEMM substrate: packed, cache-blocked,
//! register-tiled and 2D-parallel. In the reproduction of the ICPP'21 APA
//! paper it plays the role Intel MKL plays in the original: the highly
//! efficient `gemm` leaf that both the classical baseline *and* the APA
//! algorithms' sub-multiplications call into.
//!
//! There is one driver: the term-list product
//! `C ← α·(Σ aᵢAᵢ)·(Σ bⱼBⱼ) + β·C` ([`gemm_combined`]). A plain operand
//! is the unit list `[(1, A)]`, which [`pack`] copies instead of
//! multiplying; [`gemm`], [`gemm_st`], [`pack_a`] and [`pack_b`] are thin
//! wrappers that build unit lists.
//!
//! Components:
//!
//! * [`matrix`] — owned matrices plus strided, zero-copy sub-block views
//!   with safe disjoint splitting;
//! * [`scalar`] — the `f32`/`f64` abstraction (single precision for all
//!   experiments, double for references, matching the paper);
//! * [`pack`] / [`microkernel`] / [`blocked`] — the BLIS-style kernel
//!   stack, single-threaded: one A packer, one B packer, one blocked
//!   loop nest;
//! * [`prepack`] — a frozen B operand's panels packed once
//!   ([`Mat::prepack`]) and read by that loop nest in place of a per-call
//!   pack;
//! * [`kernel`] — explicit AVX2/AVX-512 register-tile kernels behind
//!   one-time runtime CPU dispatch ([`microkernel`] is the scalar tier),
//!   bitwise-identical across tiers;
//! * [`blocktune`] — MC/KC/NC blocking derived from the detected cache
//!   hierarchy, with opt-in measured autotune persisted across runs;
//! * [`parallel`] — 2D cooperative-packing multithreaded GEMM (shared
//!   B-panel arenas, MC×NC cell work-stealing) over cached,
//!   panic-isolated, core-pinned worker pools ([`pool`]);
//! * [`add`] — fused "write-once" linear-combination kernels, the matrix
//!   additions of the APA framework;
//! * [`naive`] — triple-loop oracles for testing and f64 references.
//!
//! ```
//! use apa_gemm::{gemm_st, Mat};
//! let a = Mat::<f32>::from_fn(64, 48, |i, j| (i + j) as f32 * 0.01);
//! let b = Mat::<f32>::from_fn(48, 32, |i, j| (i as f32 - j as f32) * 0.01);
//! let mut c = Mat::<f32>::zeros(64, 32);
//! gemm_st(1.0, a.as_ref(), b.as_ref(), 0.0, c.as_mut());
//! assert!(c.at(0, 0).is_finite());
//! ```

pub mod abft;
pub mod add;
pub mod blocked;
pub mod blocktune;
pub mod counting_alloc;
pub mod kernel;
pub mod matrix;
pub mod microkernel;
pub mod naive;
pub mod pack;
pub mod parallel;
pub mod pool;
pub mod prepack;
pub mod scalar;
pub mod transpose;

pub use abft::{AbftConfig, AbftCounts, AbftSession, AbftStats, DEFAULT_SLACK};
pub use add::{combine, combine_par, MAX_INLINE_COMBINE};
pub use blocked::{
    gemm_combined_st, gemm_combined_st_with_spec, gemm_st, gemm_st_with_spec, matmul,
    reserve_scratch, BlockSizes, Scratch,
};
pub use blocktune::{
    block_report, block_sizes, cache_dir, probe_bandwidth_bytes, probe_parallel_gflops,
    CacheHierarchy, TuneSource,
};
pub use counting_alloc::{
    allocation_counters, thread_allocation_counters, AllocationCounters, CountingAlloc,
};
pub use kernel::{
    available_tiers, dispatch_report, kernel_spec, selected_tier, spec_for_tier, KernelSpec,
    KernelTier, MAX_TILE_ELEMS,
};
pub use matrix::{Mat, MatMut, MatRef};
pub use naive::{matmul_naive, matmul_naive_f64};
pub use pack::{pack_a, pack_a_combined, pack_b, pack_b_combined, MAX_PACK_TERMS};
pub use parallel::{
    gemm, gemm_combined, live_arenas, par_stats, try_gemm, try_gemm_combined, ParStats,
};
pub use pool::{
    default_threads, pool, rebuild, topology, topology_report, CpuSlot, Par, PoolError, Topology,
    WorkerPool,
};
pub use prepack::PackedB;
pub use scalar::Scalar;
pub use transpose::{transpose, transpose_into};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[allow(clippy::assertions_on_constants)]
    fn microkernel_tile_shapes_match_scalar_consts() {
        // The scalar tier hard-codes these monomorphizations; keep them
        // in lockstep with the Scalar consts and the shared ragged-edge
        // scratch budget that every dispatch tier must fit.
        assert_eq!((f32::MR, f32::NR), (8, 8));
        assert_eq!((f64::MR, f64::NR), (4, 8));
        assert!(f32::MR * f32::NR <= MAX_TILE_ELEMS);
        assert!(f64::MR * f64::NR <= MAX_TILE_ELEMS);
    }
}
