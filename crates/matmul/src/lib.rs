//! # apa-matmul
//!
//! The execution engine for APA (and exact fast) matrix-multiplication
//! algorithms — the primary contribution of the reproduced paper. It turns
//! the symbolic rules of `apa-core` into high-performance multiplications
//! on top of the `apa-gemm` substrate:
//!
//! * [`plan`] — compile a rule at a concrete λ into numeric coefficient
//!   lists with the write-once output orientation;
//! * `exec` — one-step / recursive execution with gemm leaves;
//! * [`schedule`] — the DFS / BFS / **Hybrid** parallel strategies of the
//!   paper's §3.2 (Fig. 2);
//! * [`peel`] — dynamic peeling and zero padding for arbitrary shapes;
//! * `workspace` — preallocated, reusable buffer arenas so steady-state
//!   multiplications perform zero heap allocations;
//! * [`tune`] — the 5-powers-of-2 λ auto-tuner of the paper's Fig. 1;
//! * [`error`] — relative-Frobenius error measurement against the f64
//!   classical reference;
//! * [`apamm`] — [`ApaMatmul`], the one way to run a multiplication: a
//!   rule (or a chain of rules, one per recursion level) compiled per
//!   level and executed out of a cached workspace; the classical baseline
//!   is the same type at recursion depth 0 ([`ApaMatmul::classical`]);
//! * [`sentinel`] — the numerical-health sentinel: a fused non-finite
//!   scan plus a sampled Freivalds residual probe checked against the
//!   error-model budget;
//! * [`fallback`] — [`GuardedApaMatmul`]: graceful degradation from the
//!   configured APA rule down to exact classical gemm, with per-shape
//!   hysteresis;
//! * [`fault`] (only with `--features fault-inject`) — deterministic
//!   fault injection for exercising the degradation ladder.

pub mod apamm;
pub mod cse;
pub mod error;
mod exec;
pub mod fallback;
#[cfg(feature = "fault-inject")]
pub mod fault;
pub mod peel;
pub mod plan;
pub mod schedule;
pub mod sentinel;
pub mod stats;
pub mod tune;
mod workspace;

pub use apamm::ApaMatmul;
pub use cse::{plan_additions, CseReport};
pub use error::{measure_error, MatmulError};
pub use fallback::{
    DegradePolicy, GuardedApaMatmul, GuardedState, QualityOverride, RestoreError, RungKind,
    ShapeEntry,
};
pub use peel::PeelMode;
pub use plan::{Combo, ExecPlan};
pub use schedule::{
    bfs_schedule, effective_strategy, hybrid_schedule, FusionPolicy, HybridSchedule, Strategy,
};
pub use sentinel::{
    check_product, scan_nonfinite, AbftMode, ProbeScratch, SentinelConfig, Verdict,
};
pub use stats::{modeled_bytes_moved, profile_one_step, ExecProfile, HealthStats};
pub use tune::{tune_lambda, TunedLambda};
