//! # apa-planner
//!
//! The shape-adaptive plan compiler (ROADMAP item 4): every call site
//! before this crate hand-picked rule, recursion depth, λ, parallel
//! strategy and fusion policy per multiplication, so the paper's §2.3
//! error model and Figure-3 crossovers — which make plan choice a genuine
//! optimization problem per (shape chain, precision target, thread
//! budget) — had to be solved by a human with flags. The compiler solves
//! it once per shape and remembers the answer:
//!
//! * [`request`] — [`PlanRequest`]: the shapes, dtype, target error,
//!   thread budget and robustness profile a call site declares;
//! * [`compiler`] — [`PlanCompiler`]: candidate enumeration over the
//!   catalog × recursion depth × CSE, filtered by the §2.3 error bound,
//!   ranked by the analytic cost model, optionally refined by micro
//!   measurement; emits a validated, serializable [`CompiledPlan`];
//! * [`cost`] — the machine model: per-tier flop rates plus the modeled
//!   byte traffic from `apa_matmul::modeled_bytes_moved`;
//! * [`store`] — [`PlanStore`]: versioned, CRC-checked on-disk plan
//!   persistence keyed by CPU dispatch tier + cache hierarchy, so a store
//!   copied to different hardware re-tunes instead of lying;
//! * [`stats`] — process-wide hit/miss/retune counters for the facade's
//!   `diagnostics()` report.
//!
//! The explicit-knob [`apa_matmul::ApaMatmul`] builder remains the escape
//! hatch and the equivalence baseline: a [`CompiledPlan`] reduces to
//! exactly one hand-flagged configuration ([`CompiledPlan::to_matmul`]),
//! and the proptest suite pins that the reduction is bitwise faithful.
//!
//! ## Persistence root
//!
//! All persistence lives under one documented root: `$APA_PLAN_DIR/plans`
//! for compiled plans (this crate) and `$APA_PLAN_DIR/blocks` for gemm
//! block tunes (`apa-gemm`). `APA_BLOCK_CONFIG` and `APA_AUTOTUNE` still
//! steer the block tune itself; see the README knob table.

pub(crate) mod codec;
pub mod compiler;
pub mod cost;
pub mod request;
pub mod stats;
pub mod store;

pub use compiler::{compile, global, CompiledPlan, PlanCompiler, PlanError};
pub use cost::MachineModel;
pub use request::{DType, PlanRequest, Robustness};
pub use stats::{cache_counts, cache_report};
pub use store::{Calibration, PlanStore, PlanStoreError};
