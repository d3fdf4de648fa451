//! The one way to run a multiplication: a configured APA multiplier.
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
//! An [`ApaMatmul`] holds one compiled plan per recursion level: `s`
//! copies of one rule ([`ApaMatmul::new`]`.steps(s)`), or a different rule
//! per level ([`ApaMatmul::chain`], the paper's §6 non-stationary
//! combination).
//!
//! [`ApaMatmul::multiply_into`] executes out of an internal workspace
//! cache keyed on `(element type, shape, strategy, threads, peel, fusion)`:
//! the first call per configuration allocates, every later call is
//! heap-allocation-free. Training loops that multiply a handful of fixed
//! shapes thousands of times (the paper's MLP workloads) hit the cache on
//! every step. A clone starts with an empty cache, so it runs its first
//! multiply on a fresh workspace.
//!
//! The classical baseline is the same type at recursion depth 0
//! ([`ApaMatmul::classical`]): one gemm call per multiply, no cache.

use crate::error::{check_operands, MatmulError};
use crate::exec::run_level;
use crate::peel::{run_chain, PeelMode};
use crate::plan::ExecPlan;
use crate::schedule::{FusionPolicy, Strategy};
use crate::workspace::{ExecConfig, LevelWs, Workspace};
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

/// A validated rule: the algorithm and its approximation order σ (None =
/// exact rule), kept for λ re-derivation.
#[derive(Clone)]
struct Rule {
    alg: BilinearAlgorithm,
    sigma: Option<u32>,
}

impl Rule {
    fn new(alg: BilinearAlgorithm) -> Self {
        let sigma = match brent::validate(&alg) {
            Ok(report) => report.sigma,
            Err(e) => panic!("invalid algorithm {}: {e}", alg.name),
        };
        Rule { alg, sigma }
    }

    /// λ at the theoretical single-precision optimum for a `steps`-deep
    /// recursion (0 for exact rules).
    fn default_lambda(&self, steps: u32) -> f64 {
        match self.sigma {
            Some(sigma) => error_model::optimal_lambda(
                sigma,
                self.alg.phi(),
                error_model::D_SINGLE,
                steps.max(1),
            ),
            None => 0.0,
        }
    }
}

/// A rule per recursion level bound to an execution configuration (λ,
/// recursion depth, parallel strategy, thread count, peel mode, fusion).
/// Cheap to clone; the plans are compiled once per configuration change.
/// Holds a workspace cache so repeated [`Self::multiply_into`] calls on
/// the same shapes don't allocate.
pub struct ApaMatmul {
    /// The configured rules: `[alg]` repeated at every level for
    /// [`Self::new`], one per level for [`Self::chain`].
    rules: Vec<Rule>,
    /// `rules` is a fixed chain ([`Self::chain`]): level `i` runs
    /// `rules[i]` and `steps` may not exceed the chain.
    fixed_chain: bool,
    /// The compiled plan of every level, `max(steps, 1)` of them: level 0
    /// stays compiled at depth 0 so [`Self::plan`] always has one.
    plans: Vec<ExecPlan>,
    steps: u32,
    config: ExecConfig,
    /// Run the [`crate::cse`] addition-elimination pass on every compile.
    cse: bool,
    /// λ pinned via [`Self::lambda`]; `None` derives each level's λ from
    /// its rule and the recursion depth.
    pinned_lambda: Option<f64>,
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
            rules: self.rules.clone(),
            fixed_chain: self.fixed_chain,
            plans: self.plans.clone(),
            steps: self.steps,
            config: self.config,
            cse: self.cse,
            pinned_lambda: self.pinned_lambda,
            // Workspaces are cheap to rebuild; clones start cold.
            cache: Mutex::new(Vec::new()),
            cache_cap: AtomicUsize::new(self.cache_cap.load(Ordering::Relaxed)),
        }
    }
}

impl std::fmt::Debug for ApaMatmul {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let rules: Vec<&str> = self.rules.iter().map(|r| r.alg.name.as_str()).collect();
        f.debug_struct("ApaMatmul")
            .field("rules", &rules)
            .field("lambda", &self.current_lambda())
            .field("steps", &self.steps)
            .field("strategy", &self.config.strategy)
            .field("threads", &self.config.threads)
            .field("peel", &self.config.peel)
            .field("fusion", &self.config.fusion)
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
        Self::with_rules(vec![Rule::new(alg)], false, 1)
    }

    /// A non-stationary multiplier (the paper's §6 extension — "a
    /// combination of two or three different algorithms across recursive
    /// steps"): `algs[0]` splits the top level, `algs[1]` each sub-product,
    /// and so on. Each level gets its own λ at the theoretical optimum for
    /// the chain length. [`Self::steps`] keeps the top levels.
    pub fn chain(algs: Vec<BilinearAlgorithm>) -> Self {
        assert!(!algs.is_empty(), "a chain needs at least one rule");
        let steps = algs.len() as u32;
        Self::with_rules(algs.into_iter().map(Rule::new).collect(), true, steps)
    }

    fn with_rules(rules: Vec<Rule>, fixed_chain: bool, steps: u32) -> Self {
        let mut mm = Self {
            rules,
            fixed_chain,
            plans: Vec::new(),
            steps,
            config: ExecConfig {
                strategy: Strategy::Hybrid,
                threads: 1,
                peel: PeelMode::Dynamic,
                fusion: FusionPolicy::Auto,
            },
            cse: false,
            pinned_lambda: None,
            cache: Mutex::new(Vec::new()),
            cache_cap: AtomicUsize::new(WS_CACHE_CAP),
        };
        mm.compile();
        mm
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

    /// Recompile every level's plan — the single compile path, so every
    /// builder that changes λ, depth or the CSE rewrite reapplies all three.
    /// Level `i` runs its rule at the pinned λ, or at the rule's optimum
    /// for the current depth; a repeated rule compiles once.
    fn compile(&mut self) {
        let levels = self.steps.max(1) as usize;
        let mut plans: Vec<ExecPlan> = Vec::with_capacity(levels);
        for level in 0..levels {
            let plan = if level > 0 && !self.fixed_chain {
                plans[0].clone()
            } else {
                let rule = &self.rules[level];
                let lambda = self
                    .pinned_lambda
                    .unwrap_or_else(|| rule.default_lambda(self.steps));
                let mut plan = ExecPlan::compile(&rule.alg, lambda);
                if self.cse {
                    crate::cse::apply(&mut plan);
                }
                plan
            };
            plans.push(plan);
        }
        self.plans = plans;
    }

    /// Override λ at every level (recompiles the plans). A pinned λ is kept
    /// verbatim even if the step count changes afterwards.
    pub fn lambda(mut self, lambda: f64) -> Self {
        self.pinned_lambda = Some(lambda);
        self.compile();
        self
    }

    /// Set recursion depth (the paper uses 1 everywhere); on a chain, keep
    /// its top `steps` levels (panics if `steps` exceeds the chain). Unless
    /// λ was pinned with [`Self::lambda`], every level is recompiled at the
    /// optimal λ for the new depth — deeper recursion multiplies the
    /// roundoff parameter (error ∝ 2^(−dσ/(σ+sφ)), §2.3), so the 1-step
    /// optimum would amplify f32 roundoff catastrophically at s ≥ 2.
    pub fn steps(mut self, steps: u32) -> Self {
        assert!(
            !self.fixed_chain || steps as usize <= self.rules.len(),
            "{steps} steps exceed the {}-level chain",
            self.rules.len()
        );
        self.steps = steps;
        self.compile();
        self
    }

    /// Enable the addition-minimizing CSE rewrite (see [`crate::cse`]) at
    /// every level: repeated two-term subexpressions in the rule's U/V/W
    /// combination trees materialize once as shared temporaries. Off by
    /// default — the unrewritten plan is the bitwise reference. Recompiles
    /// the plans.
    pub fn cse(mut self, on: bool) -> Self {
        if self.cse != on {
            self.cse = on;
            self.compile();
        }
        self
    }

    pub fn strategy(mut self, strategy: Strategy) -> Self {
        self.config.strategy = strategy;
        self
    }

    pub fn threads(mut self, threads: usize) -> Self {
        self.config.threads = threads.max(1);
        self
    }

    pub fn peel_mode(mut self, peel: PeelMode) -> Self {
        self.config.peel = peel;
        self
    }

    /// Choose how the engine fuses the framework's additions into the gemm
    /// leaves (see [`FusionPolicy`]). Changing the policy invalidates
    /// cached workspaces by key — stale entries stop matching and age out.
    pub fn fusion(mut self, fusion: FusionPolicy) -> Self {
        self.config.fusion = fusion;
        self
    }

    /// The rule at the top recursion level.
    pub fn algorithm(&self) -> &BilinearAlgorithm {
        &self.rules[0].alg
    }

    /// λ of the top level's plan.
    pub fn current_lambda(&self) -> f64 {
        self.plans[0].lambda
    }

    pub fn current_threads(&self) -> usize {
        self.config.threads
    }

    pub fn current_strategy(&self) -> Strategy {
        self.config.strategy
    }

    pub fn current_steps(&self) -> u32 {
        self.steps
    }

    pub fn current_peel(&self) -> PeelMode {
        self.config.peel
    }

    pub fn current_fusion(&self) -> FusionPolicy {
        self.config.fusion
    }

    /// Whether the CSE rewrite is enabled (see [`Self::cse`]).
    pub fn current_cse(&self) -> bool {
        self.cse
    }

    /// Approximation order σ of the top level's rule, from Brent
    /// validation (None for exact rules).
    pub fn sigma(&self) -> Option<u32> {
        self.rules[0].sigma
    }

    /// The top level's compiled plan.
    pub fn plan(&self) -> &ExecPlan {
        &self.plans[0]
    }

    /// The plans that execute, one per recursion level (empty at depth 0).
    fn levels(&self) -> &[ExecPlan] {
        &self.plans[..self.steps as usize]
    }

    /// `C ← Â·B̂` into caller-provided storage (any shapes with matching
    /// inner dimension). Executes out of the internal workspace cache:
    /// after the first call per `(type, shape)` the steady state performs
    /// zero heap allocations, bitwise identical to a cold clone's first
    /// call. Panics on mismatched operand shapes —
    /// [`Self::try_multiply_into`] is the non-panicking variant.
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
            Err(payload) => Err(classify_lane_panic(payload, self.config.threads)),
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
        let ExecConfig {
            strategy, threads, ..
        } = self.config;
        if self.steps == 0 {
            // Depth 0 is one gemm call: nothing to cache, so no lock.
            let mut leaf = LevelWs::leaf();
            run_level::<T, &ExecPlan>(&[], a, None, b, c, strategy, threads, &mut leaf);
            return;
        }
        let (m, k, n) = (a.rows(), a.cols(), b.cols());
        let mut cache = self.cache.lock().unwrap_or_else(PoisonError::into_inner);
        let idx = self.workspace::<T>(&mut cache, m, k, n);
        let ws = cache[idx]
            .ws
            .downcast_mut::<Workspace<T>>()
            .expect("cache entry is type-keyed");
        run_chain(self.levels(), a, b, c, ws);
    }

    /// Index of the cached workspace for an `m×k·k×n` product of `T`,
    /// built (evicting the oldest entry at the cap) when missing.
    fn workspace<T: Scalar>(
        &self,
        cache: &mut Vec<CacheEntry>,
        m: usize,
        k: usize,
        n: usize,
    ) -> usize {
        if let Some(i) = self.cached::<T>(cache, m, k, n) {
            return i;
        }
        if cache.len() >= self.cache_cap.load(Ordering::Relaxed) {
            cache.remove(0);
        }
        let ws = Workspace::<T>::for_chain(self.levels(), m, k, n, self.config);
        cache.push(CacheEntry {
            type_id: TypeId::of::<T>(),
            ws: Box::new(ws),
        });
        cache.len() - 1
    }

    /// Index of the cached workspace sized for an `m×k·k×n` product of `T`
    /// under the current levels and configuration.
    fn cached<T: Scalar>(
        &self,
        cache: &[CacheEntry],
        m: usize,
        k: usize,
        n: usize,
    ) -> Option<usize> {
        cache.iter().position(|e| {
            e.type_id == TypeId::of::<T>()
                && e.ws
                    .downcast_ref::<Workspace<T>>()
                    .is_some_and(|w| w.matches(self.levels(), m, k, n, self.config))
        })
    }

    /// Pre-build the workspace cache for a set of `(m, k, n)` shapes so
    /// that the **first** real [`Self::multiply_into`] on any of them is
    /// already allocation-free. The cache capacity is raised to fit every
    /// warmed shape alongside the existing entries, so warming more than
    /// [`WS_CACHE_CAP`] shapes does not make the warm-up evict itself.
    ///
    /// Nothing is multiplied: each shape's workspace is built (depth 0
    /// has none) and the calling thread's gemm scratch is grown to the
    /// shape through [`apa_gemm::reserve_scratch`] — every leaf of the
    /// product is at most the full shape. The scratch is per-thread, so
    /// serving lanes must call this on the thread that will run the real
    /// multiplies (the pool workers of a threaded multiply grow theirs on
    /// first use).
    pub fn warm<T: Scalar>(&self, shapes: &[(usize, usize, usize)]) {
        let mut todo: Vec<(usize, usize, usize)> = Vec::with_capacity(shapes.len());
        for &s in shapes {
            let (m, k, n) = s;
            if m == 0 || k == 0 || n == 0 || todo.contains(&s) {
                continue;
            }
            todo.push(s);
        }
        if self.steps > 0 {
            let mut cache = self.cache.lock().unwrap_or_else(PoisonError::into_inner);
            let missing = todo
                .iter()
                .filter(|&&(m, k, n)| self.cached::<T>(&cache, m, k, n).is_none())
                .count();
            self.cache_cap
                .fetch_max(cache.len() + missing, Ordering::Relaxed);
            for &(m, k, n) in &todo {
                self.workspace::<T>(&mut cache, m, k, n);
            }
        }
        for &(m, k, n) in &todo {
            apa_gemm::reserve_scratch::<T>(m, k, n);
        }
    }

    /// Number of workspaces currently held by the internal cache.
    pub fn cached_workspaces(&self) -> usize {
        self.cache
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// Allocate and return `Ĉ = Â·B̂`.
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
        let chain = ApaMatmul::chain(vec![catalog::bini322(), catalog::strassen()]);
        assert_eq!(chain.current_steps(), 2);
        assert_eq!(chain.algorithm().name, "bini322");
        let a = rand_mat(36, 28, 5);
        let b = rand_mat(28, 24, 6);
        let got = chain.multiply(a.as_ref(), b.as_ref());
        let expect = matmul_naive(a.as_ref(), b.as_ref());
        let err = got.rel_frobenius_error(&expect);
        // two-level chain with φ = 1 at level 0: bound 2^(−23/3) ≈ 5e-3.
        assert!(err < 2e-2, "chain err {err}");

        // The warm workspace agrees bitwise with the cold first call.
        let mut c_warm = Mat::zeros(36, 24);
        chain.multiply_into(a.as_ref(), b.as_ref(), c_warm.as_mut());
        assert_eq!(chain.cached_workspaces(), 1);
        for i in 0..36 {
            for j in 0..24 {
                assert_eq!(got.at(i, j).to_bits(), c_warm.at(i, j).to_bits());
            }
        }
    }

    #[test]
    fn chain_steps_keep_the_top_levels() {
        let chain = ApaMatmul::chain(vec![catalog::bini322(), catalog::strassen()]);
        // Each level's λ is its rule's optimum at the chain length.
        let bini2 = ApaMatmul::new(catalog::bini322()).steps(2);
        assert_eq!(chain.current_lambda(), bini2.current_lambda());
        assert_eq!(chain.levels()[1].lambda, 0.0);
        // One step keeps bini322, re-derived as a one-rule multiplier.
        let top = chain.clone().steps(1);
        let bini1 = ApaMatmul::new(catalog::bini322());
        assert_eq!(top.current_lambda(), bini1.current_lambda());
        let a = rand_mat(30, 20, 13);
        let b = rand_mat(20, 22, 14);
        let (x, y) = (
            top.multiply(a.as_ref(), b.as_ref()),
            bini1.multiply(a.as_ref(), b.as_ref()),
        );
        for i in 0..30 {
            for j in 0..22 {
                assert_eq!(x.at(i, j).to_bits(), y.at(i, j).to_bits());
            }
        }
        // A pinned λ applies to every level.
        let pinned = chain.clone().lambda(1e-3);
        assert!(pinned.levels().iter().all(|p| p.lambda == 1e-3));
        let deeper = std::panic::catch_unwind(|| chain.clone().steps(3));
        assert!(deeper.is_err(), "3 steps exceed a 2-level chain");
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
            // A cold clone runs on a workspace built for this one call.
            mm.clone()
                .multiply_into(a.as_ref(), b.as_ref(), c_uncached.as_mut());
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
