//! The top-level convenience API: a configured APA multiplier.
//!
//! ```
//! use apa_core::catalog;
//! use apa_matmul::{ApaMatmul, Strategy};
//! use apa_gemm::Mat;
//!
//! let mm = ApaMatmul::new(catalog::fast444())
//!     .steps(1)
//!     .strategy(Strategy::Hybrid)
//!     .threads(4);
//! let a = Mat::<f32>::from_fn(64, 64, |i, j| (i + j) as f32);
//! let b = Mat::<f32>::from_fn(64, 64, |i, j| (i as f32) - (j as f32));
//! let c = mm.multiply(a.as_ref(), b.as_ref());
//! assert_eq!(c.rows(), 64);
//! ```
//!
//! [`ApaMatmul::multiply_into`] executes out of an internal
//! [`Workspace`] cache keyed on `(element type, shape, strategy, threads,
//! peel)`: the first call per configuration allocates, every later call is
//! heap-allocation-free. Training loops that multiply a handful of fixed
//! shapes thousands of times (the paper's MLP workloads) hit the cache on
//! every step. [`ApaMatmul::multiply_into_uncached`] keeps the
//! allocate-per-call behavior for ablations, and
//! [`ApaMatmul::make_workspace`] / [`ApaMatmul::multiply_into_with`] hand
//! the workspace to callers who want to manage it themselves.
//!
//! The classical baseline is the same type at recursion depth 0
//! ([`ApaMatmul::classical`]): one gemm call per multiply, no cache.

use crate::error::{check_operands, MatmulError};
use crate::exec::{run_level, with_uniform_chain};
use crate::peel::{
    fast_matmul_any_into, fast_matmul_chain_any_into, fast_matmul_chain_any_into_ws, PeelMode,
};
use crate::plan::ExecPlan;
use crate::schedule::{FusionPolicy, Strategy};
use crate::workspace::{LevelWs, Workspace};
use apa_core::{brent, catalog, error_model, BilinearAlgorithm, Dims};
use apa_gemm::{Mat, MatMut, MatRef, Scalar};
use std::any::{Any, TypeId};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

/// Convert a caught panic into [`MatmulError::WorkerPanicked`] when it is
/// a pool-lane panic (recognized by the [`apa_gemm::PoolError`] message
/// the scope re-raises), rebuilding the pool for `threads` so subsequent
/// multiplies run on fresh workers. Unrelated panics — caller bugs — are
/// resumed untouched.
pub(crate) fn classify_lane_panic(payload: Box<dyn Any + Send>, threads: usize) -> MatmulError {
    let detail = payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()));
    match detail {
        Some(detail) if detail.contains("worker lane panicked") => {
            apa_gemm::rebuild(threads);
            MatmulError::WorkerPanicked { detail }
        }
        _ => resume_unwind(payload),
    }
}

/// Default bound on distinct `(type, shape, config)` workspaces kept per
/// multiplier. A dense layer needs three (forward, ∇W, ∇X); eight covers a
/// small mix of layer shapes before the oldest entry is evicted.
/// [`ApaMatmul::warm`] raises the bound so a declared shape set can never
/// evict itself.
const WS_CACHE_CAP: usize = 8;

/// One cached workspace, keyed by element type (the workspace itself
/// re-validates shape/config via [`Workspace::matches`]).
struct CacheEntry {
    type_id: TypeId,
    ws: Box<dyn Any + Send>,
}

/// A bilinear rule bound to an execution configuration (λ, recursion depth,
/// parallel strategy, thread count, peel mode). Cheap to clone; the plan is
/// compiled once per λ change. Holds a workspace cache so repeated
/// [`Self::multiply_into`] calls on the same shapes don't allocate.
pub struct ApaMatmul {
    alg: BilinearAlgorithm,
    plan: ExecPlan,
    steps: u32,
    strategy: Strategy,
    threads: usize,
    peel: PeelMode,
    fusion: FusionPolicy,
    /// Run the [`crate::cse`] addition-elimination pass on every compile.
    cse: bool,
    /// σ from validation (None = exact rule); cached for λ re-derivation.
    sigma: Option<u32>,
    /// Set once the user pins λ via [`Self::lambda`]; suppresses automatic
    /// re-derivation when `steps` changes.
    explicit_lambda: bool,
    /// Interior-mutable workspace cache; stale entries (after a config
    /// change) simply stop matching and age out.
    cache: Mutex<Vec<CacheEntry>>,
    /// Cache bound: [`WS_CACHE_CAP`] until [`Self::warm`] grows it to fit
    /// a declared shape set.
    cache_cap: AtomicUsize,
}

impl Clone for ApaMatmul {
    fn clone(&self) -> Self {
        Self {
            alg: self.alg.clone(),
            plan: self.plan.clone(),
            steps: self.steps,
            strategy: self.strategy,
            threads: self.threads,
            peel: self.peel,
            fusion: self.fusion,
            cse: self.cse,
            sigma: self.sigma,
            explicit_lambda: self.explicit_lambda,
            // Workspaces are cheap to rebuild; clones start cold.
            cache: Mutex::new(Vec::new()),
            cache_cap: AtomicUsize::new(self.cache_cap.load(Ordering::Relaxed)),
        }
    }
}

impl std::fmt::Debug for ApaMatmul {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ApaMatmul")
            .field("alg", &self.alg.name)
            .field("lambda", &self.plan.lambda)
            .field("steps", &self.steps)
            .field("strategy", &self.strategy)
            .field("threads", &self.threads)
            .field("peel", &self.peel)
            .field("fusion", &self.fusion)
            .field("cse", &self.cse)
            .field("cached_workspaces", &self.cached_workspaces())
            .finish()
    }
}

impl ApaMatmul {
    /// Wrap an algorithm with defaults: λ at the theoretical single-
    /// precision optimum (0 for exact rules), one recursive step, hybrid
    /// strategy, one thread, dynamic peeling.
    pub fn new(alg: BilinearAlgorithm) -> Self {
        let sigma = match brent::validate(&alg) {
            Ok(report) => report.sigma,
            Err(e) => panic!("invalid algorithm {}: {e}", alg.name),
        };
        let lambda = Self::default_lambda(&alg, sigma, 1);
        let plan = Self::compile_plan(&alg, lambda, false);
        Self {
            alg,
            plan,
            steps: 1,
            strategy: Strategy::Hybrid,
            threads: 1,
            peel: PeelMode::Dynamic,
            fusion: FusionPolicy::Auto,
            cse: false,
            sigma,
            explicit_lambda: false,
            cache: Mutex::new(Vec::new()),
            cache_cap: AtomicUsize::new(WS_CACHE_CAP),
        }
    }

    /// The classical baseline — the paper's "custom classical operator
    /// that directly calls gemm" (§4.1): recursion depth 0, so every
    /// multiply is one `gemm` call on the same leaf the APA rules use,
    /// with no workspace cache and no lock. Named `classical`; the rule it
    /// carries (the 1×1×1 product) is never split.
    pub fn classical() -> Self {
        let mut alg = catalog::classical(Dims::new(1, 1, 1));
        alg.name = "classical".to_string();
        Self::new(alg).steps(0)
    }

    fn default_lambda(alg: &BilinearAlgorithm, sigma: Option<u32>, steps: u32) -> f64 {
        match sigma {
            Some(sigma) => {
                error_model::optimal_lambda(sigma, alg.phi(), error_model::D_SINGLE, steps.max(1))
            }
            None => 0.0,
        }
    }

    /// Compile `alg` at `lambda`, running the CSE pass when enabled — the
    /// single compile path, so every recompile site (λ pin, step change)
    /// reapplies the configured rewrite.
    fn compile_plan(alg: &BilinearAlgorithm, lambda: f64, cse: bool) -> ExecPlan {
        let mut plan = ExecPlan::compile(alg, lambda);
        if cse {
            crate::cse::apply(&mut plan);
        }
        plan
    }

    /// Override λ (recompiles the plan). A pinned λ is kept verbatim even
    /// if the step count changes afterwards.
    pub fn lambda(mut self, lambda: f64) -> Self {
        self.plan = Self::compile_plan(&self.alg, lambda, self.cse);
        self.explicit_lambda = true;
        self
    }

    /// Set recursion depth (the paper uses 1 everywhere). Unless λ was
    /// pinned with [`Self::lambda`], the plan is recompiled at the optimal
    /// λ for the new depth — deeper recursion multiplies the roundoff
    /// parameter (error ∝ 2^(−dσ/(σ+sφ)), §2.3), so the 1-step optimum
    /// would amplify f32 roundoff catastrophically at s ≥ 2.
    pub fn steps(mut self, steps: u32) -> Self {
        self.steps = steps;
        if !self.explicit_lambda {
            let lambda = Self::default_lambda(&self.alg, self.sigma, steps);
            self.plan = Self::compile_plan(&self.alg, lambda, self.cse);
        }
        self
    }

    /// Enable the addition-minimizing CSE rewrite (see [`crate::cse`]):
    /// repeated two-term subexpressions in the rule's U/V/W combination
    /// trees materialize once as shared temporaries. Off by default — the
    /// unrewritten plan is the bitwise reference. Recompiles the plan.
    pub fn cse(mut self, on: bool) -> Self {
        if self.cse != on {
            self.cse = on;
            self.plan = Self::compile_plan(&self.alg, self.plan.lambda, on);
        }
        self
    }

    pub fn strategy(mut self, strategy: Strategy) -> Self {
        self.strategy = strategy;
        self
    }

    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    pub fn peel_mode(mut self, peel: PeelMode) -> Self {
        self.peel = peel;
        self
    }

    /// Choose how the engine fuses the framework's additions into the gemm
    /// leaves (see [`FusionPolicy`]). Changing the policy invalidates
    /// cached workspaces by key — stale entries stop matching and age out.
    pub fn fusion(mut self, fusion: FusionPolicy) -> Self {
        self.fusion = fusion;
        self
    }

    pub fn algorithm(&self) -> &BilinearAlgorithm {
        &self.alg
    }

    pub fn current_lambda(&self) -> f64 {
        self.plan.lambda
    }

    pub fn current_threads(&self) -> usize {
        self.threads
    }

    pub fn current_strategy(&self) -> Strategy {
        self.strategy
    }

    pub fn current_steps(&self) -> u32 {
        self.steps
    }

    pub fn current_peel(&self) -> PeelMode {
        self.peel
    }

    pub fn current_fusion(&self) -> FusionPolicy {
        self.fusion
    }

    /// Whether the CSE rewrite is enabled (see [`Self::cse`]).
    pub fn current_cse(&self) -> bool {
        self.cse
    }

    /// Approximation order σ from Brent validation (None for exact rules).
    pub fn sigma(&self) -> Option<u32> {
        self.sigma
    }

    pub fn plan(&self) -> &ExecPlan {
        &self.plan
    }

    /// `C ← Â·B̂` into caller-provided storage (any shapes with matching
    /// inner dimension). Executes out of the internal workspace cache:
    /// after the first call per `(type, shape)` the steady state performs
    /// zero heap allocations. Results are bitwise identical to
    /// [`Self::multiply_into_uncached`]. Panics on mismatched operand
    /// shapes — [`Self::try_multiply_into`] is the non-panicking variant.
    pub fn multiply_into<T: Scalar>(&self, a: MatRef<'_, T>, b: MatRef<'_, T>, c: MatMut<'_, T>) {
        self.try_multiply_into(a, b, c)
            .unwrap_or_else(|e| panic!("ApaMatmul::multiply_into: {e}"));
    }

    /// [`Self::multiply_into`] with the operand shapes validated up front
    /// (mismatched operands return a typed [`MatmulError`] in release
    /// builds too, instead of relying on interior assertions) and worker
    /// lane panics converted into [`MatmulError::WorkerPanicked`]: the
    /// pool is rebuilt and this instance stays usable, though `C` may be
    /// partially written on `Err`.
    pub fn try_multiply_into<T: Scalar>(
        &self,
        a: MatRef<'_, T>,
        b: MatRef<'_, T>,
        c: MatMut<'_, T>,
    ) -> Result<(), MatmulError> {
        check_operands(
            (a.rows(), a.cols()),
            (b.rows(), b.cols()),
            (c.rows(), c.cols()),
        )?;
        match catch_unwind(AssertUnwindSafe(|| self.multiply_into_unchecked(a, b, c))) {
            Ok(()) => Ok(()),
            Err(payload) => Err(classify_lane_panic(payload, self.threads)),
        }
    }

    /// The engine call behind [`Self::try_multiply_into`], shapes already
    /// validated (private so the validation cannot be skipped).
    fn multiply_into_unchecked<T: Scalar>(
        &self,
        a: MatRef<'_, T>,
        b: MatRef<'_, T>,
        c: MatMut<'_, T>,
    ) {
        if self.steps == 0 {
            // Depth 0 is one gemm call: nothing to cache, so no lock.
            let mut leaf = LevelWs::leaf();
            run_level::<T, &ExecPlan>(&[], a, b, c, self.strategy, self.threads, &mut leaf);
            return;
        }
        let (m, k, n) = (a.rows(), a.cols(), b.cols());
        with_uniform_chain(&self.plan, self.steps, |chain| {
            let mut cache = self.cache.lock().unwrap_or_else(PoisonError::into_inner);
            let found = cache.iter().position(|e| {
                e.type_id == TypeId::of::<T>()
                    && e.ws.downcast_ref::<Workspace<T>>().is_some_and(|w| {
                        w.matches(
                            chain,
                            m,
                            k,
                            n,
                            self.strategy,
                            self.threads,
                            self.peel,
                            self.fusion,
                        )
                    })
            });
            let idx = match found {
                Some(i) => i,
                None => {
                    if cache.len() >= self.cache_cap.load(Ordering::Relaxed) {
                        cache.remove(0);
                    }
                    let ws = Workspace::<T>::for_chain(
                        chain,
                        m,
                        k,
                        n,
                        self.strategy,
                        self.threads,
                        self.peel,
                        self.fusion,
                    );
                    cache.push(CacheEntry {
                        type_id: TypeId::of::<T>(),
                        ws: Box::new(ws),
                    });
                    cache.len() - 1
                }
            };
            let ws = cache[idx]
                .ws
                .downcast_mut::<Workspace<T>>()
                .expect("cache entry is type-keyed");
            fast_matmul_chain_any_into_ws(
                chain,
                a,
                b,
                c,
                self.strategy,
                self.threads,
                self.peel,
                self.fusion,
                ws,
            );
        });
    }

    /// Pre-build the workspace cache for a set of `(m, k, n)` shapes so
    /// that the **first** real [`Self::multiply_into`] on any of them is
    /// already allocation-free. The cache capacity is raised to fit every
    /// warmed shape alongside the existing entries, so warming more than
    /// [`WS_CACHE_CAP`] shapes does not make the warm-up evict itself.
    ///
    /// Each shape is multiplied twice on zeroed operands: the first pass
    /// builds the cached [`Workspace`], the second settles the calling
    /// thread's thread-local gemm pack buffers at their high-water mark.
    /// Pack buffers are per-thread, so serving lanes must call this on the
    /// thread that will run the real multiplies.
    pub fn warm<T: Scalar>(&self, shapes: &[(usize, usize, usize)]) {
        let mut todo: Vec<(usize, usize, usize)> = Vec::with_capacity(shapes.len());
        for &s in shapes {
            let (m, k, n) = s;
            if m == 0 || k == 0 || n == 0 || todo.contains(&s) {
                continue;
            }
            todo.push(s);
        }
        with_uniform_chain(&self.plan, self.steps, |chain| {
            let cache = self.cache.lock().unwrap_or_else(PoisonError::into_inner);
            let missing = todo
                .iter()
                .filter(|&&(m, k, n)| {
                    !cache.iter().any(|e| {
                        e.type_id == TypeId::of::<T>()
                            && e.ws.downcast_ref::<Workspace<T>>().is_some_and(|w| {
                                w.matches(
                                    chain,
                                    m,
                                    k,
                                    n,
                                    self.strategy,
                                    self.threads,
                                    self.peel,
                                    self.fusion,
                                )
                            })
                    })
                })
                .count();
            self.cache_cap
                .fetch_max(cache.len() + missing, Ordering::Relaxed);
        });
        for &(m, k, n) in &todo {
            let a = Mat::<T>::zeros(m, k);
            let b = Mat::<T>::zeros(k, n);
            let mut c = Mat::<T>::zeros(m, n);
            self.multiply_into(a.as_ref(), b.as_ref(), c.as_mut());
            self.multiply_into(a.as_ref(), b.as_ref(), c.as_mut());
        }
    }

    /// The pre-workspace behavior: allocate every intermediate buffer on
    /// this call and free it on return. Kept for ablation benchmarks and
    /// for one-shot shapes not worth caching. Panics on mismatched operand
    /// shapes, release builds included.
    pub fn multiply_into_uncached<T: Scalar>(
        &self,
        a: MatRef<'_, T>,
        b: MatRef<'_, T>,
        c: MatMut<'_, T>,
    ) {
        check_operands(
            (a.rows(), a.cols()),
            (b.rows(), b.cols()),
            (c.rows(), c.cols()),
        )
        .unwrap_or_else(|e| panic!("ApaMatmul::multiply_into_uncached: {e}"));
        fast_matmul_any_into(
            &self.plan,
            a,
            b,
            c,
            self.steps,
            self.strategy,
            self.threads,
            self.peel,
            self.fusion,
        );
    }

    /// Build a caller-owned workspace for an `m×k · k×n` product under
    /// this multiplier's configuration, for use with
    /// [`Self::multiply_into_with`].
    pub fn make_workspace<T: Scalar>(&self, m: usize, k: usize, n: usize) -> Workspace<T> {
        Workspace::for_plan(
            &self.plan,
            m,
            k,
            n,
            self.steps,
            self.strategy,
            self.threads,
            self.peel,
            self.fusion,
        )
    }

    /// `C ← Â·B̂` out of a caller-owned workspace (bypasses the internal
    /// cache — no lock, no lookup). Panics if `ws` was built for a
    /// different shape or configuration.
    pub fn multiply_into_with<T: Scalar>(
        &self,
        a: MatRef<'_, T>,
        b: MatRef<'_, T>,
        c: MatMut<'_, T>,
        ws: &mut Workspace<T>,
    ) {
        with_uniform_chain(&self.plan, self.steps, |chain| {
            fast_matmul_chain_any_into_ws(
                chain,
                a,
                b,
                c,
                self.strategy,
                self.threads,
                self.peel,
                self.fusion,
                ws,
            )
        });
    }

    /// Number of workspaces currently held by the internal cache.
    pub fn cached_workspaces(&self) -> usize {
        self.cache
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// Drop all cached workspaces (e.g. to release memory between phases).
    pub fn clear_workspace_cache(&self) {
        self.cache
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clear();
    }

    /// Allocate and return `Ĉ = Â·B̂`.
    pub fn multiply<T: Scalar>(&self, a: MatRef<'_, T>, b: MatRef<'_, T>) -> Mat<T> {
        let mut c = Mat::zeros(a.rows(), b.cols());
        self.multiply_into(a, b, c.as_mut());
        c
    }
}

/// A non-stationary multiplier: a *chain* of algorithms, one per recursion
/// level (the paper's §6 extension — "a combination of two or three
/// different algorithms across recursive steps"). Each level gets its own
/// λ at the theoretical optimum for the chain length.
#[derive(Clone, Debug)]
pub struct ApaChain {
    plans: Vec<ExecPlan>,
    strategy: Strategy,
    threads: usize,
    peel: PeelMode,
    fusion: FusionPolicy,
}

impl ApaChain {
    /// Build from the level-ordered algorithms (`algs[0]` splits the top).
    pub fn new(algs: Vec<BilinearAlgorithm>) -> Self {
        let steps = algs.len().max(1) as u32;
        let plans = algs
            .into_iter()
            .map(|alg| {
                let sigma = brent::validate(&alg)
                    .unwrap_or_else(|e| panic!("invalid algorithm {}: {e}", alg.name))
                    .sigma;
                let lambda = ApaMatmul::default_lambda(&alg, sigma, steps);
                ExecPlan::compile(&alg, lambda)
            })
            .collect();
        Self {
            plans,
            strategy: Strategy::Hybrid,
            threads: 1,
            peel: PeelMode::Dynamic,
            fusion: FusionPolicy::Auto,
        }
    }

    pub fn strategy(mut self, strategy: Strategy) -> Self {
        self.strategy = strategy;
        self
    }

    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    pub fn peel_mode(mut self, peel: PeelMode) -> Self {
        self.peel = peel;
        self
    }

    /// Choose how the engine fuses the framework's additions into the gemm
    /// leaves (see [`FusionPolicy`]).
    pub fn fusion(mut self, fusion: FusionPolicy) -> Self {
        self.fusion = fusion;
        self
    }

    /// Level count.
    pub fn depth(&self) -> usize {
        self.plans.len()
    }

    /// Panics on mismatched operand shapes (release builds included);
    /// [`Self::try_multiply_into`] is the non-panicking variant.
    pub fn multiply_into<T: Scalar>(&self, a: MatRef<'_, T>, b: MatRef<'_, T>, c: MatMut<'_, T>) {
        self.try_multiply_into(a, b, c)
            .unwrap_or_else(|e| panic!("ApaChain::multiply_into: {e}"));
    }

    /// [`Self::multiply_into`] returning a typed [`MatmulError`] on
    /// mismatched operand shapes instead of panicking.
    pub fn try_multiply_into<T: Scalar>(
        &self,
        a: MatRef<'_, T>,
        b: MatRef<'_, T>,
        c: MatMut<'_, T>,
    ) -> Result<(), MatmulError> {
        check_operands(
            (a.rows(), a.cols()),
            (b.rows(), b.cols()),
            (c.rows(), c.cols()),
        )?;
        // The Borrow-generic engine takes the owned plans directly — no
        // per-call Vec<&ExecPlan> is built anymore.
        fast_matmul_chain_any_into(
            &self.plans,
            a,
            b,
            c,
            self.strategy,
            self.threads,
            self.peel,
            self.fusion,
        );
        Ok(())
    }

    /// Build a reusable workspace for this chain on an `m×k · k×n`
    /// product, for [`Self::multiply_into_with`].
    pub fn make_workspace<T: Scalar>(&self, m: usize, k: usize, n: usize) -> Workspace<T> {
        Workspace::for_chain(
            &self.plans,
            m,
            k,
            n,
            self.strategy,
            self.threads,
            self.peel,
            self.fusion,
        )
    }

    /// Workspace-backed [`Self::multiply_into`].
    pub fn multiply_into_with<T: Scalar>(
        &self,
        a: MatRef<'_, T>,
        b: MatRef<'_, T>,
        c: MatMut<'_, T>,
        ws: &mut Workspace<T>,
    ) {
        fast_matmul_chain_any_into_ws(
            &self.plans,
            a,
            b,
            c,
            self.strategy,
            self.threads,
            self.peel,
            self.fusion,
            ws,
        );
    }

    pub fn multiply<T: Scalar>(&self, a: MatRef<'_, T>, b: MatRef<'_, T>) -> Mat<T> {
        let mut c = Mat::zeros(a.rows(), b.cols());
        self.multiply_into(a, b, c.as_mut());
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apa_core::catalog;
    use apa_gemm::matmul_naive;

    fn rand_mat(rows: usize, cols: usize, seed: u64) -> Mat<f32> {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        Mat::from_fn(rows, cols, |_, _| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (((state >> 32) as u32 as f64 / (1u64 << 31) as f64) - 1.0) as f32
        })
    }

    #[test]
    fn default_lambda_is_theoretical_optimum() {
        let mm = ApaMatmul::new(catalog::bini322());
        assert!((mm.current_lambda() - 2.0_f64.powf(-11.5)).abs() < 1e-9);
        let exact = ApaMatmul::new(catalog::strassen());
        assert_eq!(exact.current_lambda(), 0.0);
    }

    #[test]
    fn multiply_matches_reference() {
        let a = rand_mat(37, 29, 1);
        let b = rand_mat(29, 33, 2);
        let expect = matmul_naive(a.as_ref(), b.as_ref());
        for name in ["strassen", "bini322", "fast444", "apa332"] {
            let mm = ApaMatmul::new(catalog::by_name(name).unwrap());
            let got = mm.multiply(a.as_ref(), b.as_ref());
            let err = got.rel_frobenius_error(&expect);
            assert!(err < 5e-3, "{name}: err {err}");
        }
    }

    #[test]
    fn classical_wrapper_is_exact() {
        // Depth 0 is one gemm call: bitwise the leaf, and no cache entry.
        let a = rand_mat(20, 20, 3);
        let b = rand_mat(20, 20, 4);
        let expect = matmul_naive(a.as_ref(), b.as_ref());
        for threads in [1, 2] {
            let mm = ApaMatmul::classical().threads(threads);
            assert_eq!(mm.algorithm().name, "classical");
            let got = mm.multiply(a.as_ref(), b.as_ref());
            assert!(got.rel_frobenius_error(&expect) < 1e-5);
            let par = if threads > 1 {
                apa_gemm::Par::Threads(threads)
            } else {
                apa_gemm::Par::Seq
            };
            let mut leaf = Mat::zeros(20, 20);
            apa_gemm::gemm(1.0, a.as_ref(), b.as_ref(), 0.0, leaf.as_mut(), par);
            for i in 0..20 {
                for j in 0..20 {
                    assert_eq!(got.at(i, j).to_bits(), leaf.at(i, j).to_bits());
                }
            }
            assert_eq!(mm.cached_workspaces(), 0);
        }
    }

    #[test]
    fn builder_settings_stick() {
        let mm = ApaMatmul::new(catalog::fast444())
            .steps(2)
            .strategy(Strategy::Dfs)
            .threads(6)
            .peel_mode(PeelMode::Pad)
            .lambda(1e-4);
        assert_eq!(mm.current_threads(), 6);
        assert_eq!(mm.current_strategy(), Strategy::Dfs);
        assert_eq!(mm.current_lambda(), 1e-4);
    }

    #[test]
    fn chain_multiplier_is_accurate() {
        let chain = ApaChain::new(vec![catalog::bini322(), catalog::strassen()]);
        assert_eq!(chain.depth(), 2);
        let a = rand_mat(36, 28, 5);
        let b = rand_mat(28, 24, 6);
        let got = chain.multiply(a.as_ref(), b.as_ref());
        let expect = matmul_naive(a.as_ref(), b.as_ref());
        let err = got.rel_frobenius_error(&expect);
        // two-level chain with φ = 1 at level 0: bound 2^(−23/3) ≈ 5e-3.
        assert!(err < 2e-2, "chain err {err}");

        // Workspace-backed path agrees bitwise.
        let mut ws = chain.make_workspace::<f32>(36, 28, 24);
        let mut c_ws = Mat::zeros(36, 24);
        chain.multiply_into_with(a.as_ref(), b.as_ref(), c_ws.as_mut(), &mut ws);
        for i in 0..36 {
            for j in 0..24 {
                assert_eq!(got.at(i, j).to_bits(), c_ws.at(i, j).to_bits());
            }
        }
    }

    #[test]
    fn workspace_cache_reuses_per_shape() {
        let mm = ApaMatmul::new(catalog::strassen());
        assert_eq!(mm.cached_workspaces(), 0);
        let a = rand_mat(32, 32, 7);
        let b = rand_mat(32, 32, 8);
        let mut c = Mat::zeros(32, 32);
        mm.multiply_into(a.as_ref(), b.as_ref(), c.as_mut());
        assert_eq!(mm.cached_workspaces(), 1);
        mm.multiply_into(a.as_ref(), b.as_ref(), c.as_mut());
        mm.multiply_into(a.as_ref(), b.as_ref(), c.as_mut());
        // Same shape, same entry.
        assert_eq!(mm.cached_workspaces(), 1);
        // A second shape (and a second element type) get their own entries.
        let a2 = rand_mat(16, 32, 9);
        let mut c2 = Mat::zeros(16, 32);
        mm.multiply_into(a2.as_ref(), b.as_ref(), c2.as_mut());
        assert_eq!(mm.cached_workspaces(), 2);
        let a64 = Mat::<f64>::from_fn(32, 32, |i, j| (i + 2 * j) as f64 * 0.01);
        let b64 = Mat::<f64>::from_fn(32, 32, |i, j| (i as f64) - (j as f64));
        let mut c64 = Mat::<f64>::zeros(32, 32);
        mm.multiply_into(a64.as_ref(), b64.as_ref(), c64.as_mut());
        assert_eq!(mm.cached_workspaces(), 3);
        mm.clear_workspace_cache();
        assert_eq!(mm.cached_workspaces(), 0);
        // Clones start with an empty cache.
        assert_eq!(mm.clone().cached_workspaces(), 0);
    }

    #[test]
    fn cached_and_uncached_agree_bitwise() {
        // Odd shapes force the peel path; Hybrid forces the parallel path.
        let mm = ApaMatmul::new(catalog::bini322())
            .strategy(Strategy::Hybrid)
            .threads(3);
        let a = rand_mat(37, 29, 11);
        let b = rand_mat(29, 33, 12);
        let mut c_cached = Mat::zeros(37, 33);
        let mut c_uncached = Mat::zeros(37, 33);
        for _ in 0..3 {
            mm.multiply_into(a.as_ref(), b.as_ref(), c_cached.as_mut());
            mm.multiply_into_uncached(a.as_ref(), b.as_ref(), c_uncached.as_mut());
            for i in 0..37 {
                for j in 0..33 {
                    assert_eq!(
                        c_cached.at(i, j).to_bits(),
                        c_uncached.at(i, j).to_bits(),
                        "cached/uncached diverged at ({i},{j})"
                    );
                }
            }
        }
    }

    #[test]
    fn doc_example_compiles_and_runs() {
        let mm = ApaMatmul::new(catalog::fast444())
            .strategy(Strategy::Hybrid)
            .threads(2);
        let a = Mat::<f32>::from_fn(64, 64, |i, j| (i + j) as f32 * 0.01);
        let b = Mat::<f32>::from_fn(64, 64, |i, j| (i as f32 - j as f32) * 0.01);
        let c = mm.multiply(a.as_ref(), b.as_ref());
        let expect = matmul_naive(a.as_ref(), b.as_ref());
        assert!(c.rel_frobenius_error(&expect) < 1e-4);
    }
}
