//! # apa-repro
//!
//! Facade crate for the reproduction of *"Accelerating Neural Network
//! Training using Arbitrary Precision Approximating Matrix Multiplication
//! Algorithms"* (Ballard, Weissenberger, Zhang — ICPP Workshops 2021).
//!
//! Re-exports the six library crates under one roof:
//!
//! * [`core`] (`apa-core`) — bilinear algorithm algebra, the Brent
//!   validator, the Table-1 catalog and error model;
//! * [`gemm`] (`apa-gemm`) — the pure-Rust classical GEMM substrate;
//! * [`matmul`] (`apa-matmul`) — the APA execution engine (plans, hybrid
//!   scheduling, peeling, λ tuning);
//! * [`nn`] (`apa-nn`) — the dense-network training substrate with
//!   pluggable matmul backends;
//! * [`serve`] (`apa-serve`) — the dynamic-batching inference service
//!   (bounded queue, micro-batcher, pre-warmed worker lanes);
//! * [`planner`] (`apa-planner`) — the shape-adaptive plan compiler with
//!   its persistent cost/autotune store;
//! * [`discovery`] (`apa-discovery`) — ALS-based algorithm search.
//!
//! Quick start (also in `examples/quickstart.rs`):
//!
//! ```
//! use apa_repro::prelude::*;
//!
//! // Pick an APA algorithm from the catalog and multiply.
//! let mm = ApaMatmul::new(catalog::fast444());
//! let a = Mat::<f32>::from_fn(128, 128, |i, j| ((i + j) % 7) as f32);
//! let b = Mat::<f32>::from_fn(128, 128, |i, j| ((i * j) % 5) as f32);
//! let c = mm.multiply(a.as_ref(), b.as_ref());
//! assert_eq!((c.rows(), c.cols()), (128, 128));
//! ```

pub use apa_core as core;
pub use apa_discovery as discovery;
pub use apa_gemm as gemm;
pub use apa_matmul as matmul;
pub use apa_nn as nn;
pub use apa_planner as planner;
pub use apa_serve as serve;

/// The names most programs need, importable in one line.
pub mod prelude {
    pub use apa_core::{catalog, error_model, BilinearAlgorithm, Dims};
    pub use apa_gemm::{Mat, MatMut, MatRef, Par};
    pub use apa_matmul::{ApaMatmul, PeelMode, Strategy};
    pub use apa_nn::{accuracy_network, apa, classical, performance_network, Mlp, Vgg19Fc};
    pub use apa_planner::{CompiledPlan, PlanCompiler, PlanRequest};
    pub use apa_serve::{InferenceService, Replica, ServeConfig, ServeError};
}

/// One merged diagnostics report: which SIMD kernel tier runtime dispatch
/// selected, the gemm cache-blocking parameters in effect for both
/// element types, and the planner's cache counters. The single line to
/// print at startup when asking "what is this machine actually running?"
/// — surfaced by `examples/quickstart.rs` and the servebench harness.
pub fn diagnostics() -> String {
    format!(
        "{}\n{}\n{}\n{}",
        apa_gemm::dispatch_report(),
        apa_gemm::block_report::<f32>(),
        apa_gemm::block_report::<f64>(),
        apa_planner::cache_report(),
    )
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn diagnostics_merges_all_reports() {
        let report = crate::diagnostics();
        assert!(report.contains("kernel"), "dispatch section: {report}");
        assert!(report.contains("plan cache:"), "planner section: {report}");
    }

    #[test]
    fn facade_exposes_the_pipeline() {
        let alg = catalog::bini322();
        let mm = ApaMatmul::new(alg);
        let a = Mat::<f32>::from_fn(30, 20, |i, j| (i + j) as f32 * 0.01);
        let b = Mat::<f32>::from_fn(20, 20, |i, j| (i as f32 - j as f32) * 0.01);
        let c = mm.multiply(a.as_ref(), b.as_ref());
        assert_eq!((c.rows(), c.cols()), (30, 20));
    }
}
