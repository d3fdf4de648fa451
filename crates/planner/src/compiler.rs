//! The plan compiler: enumerate (catalog rule × recursion depth × CSE)
//! candidates, filter by the §2.3 error bound against the request's
//! target, rank by the analytic [`MachineModel`], optionally refine the
//! short-list by micro-measurement, and remember the winner in a memory
//! cache backed by the on-disk [`PlanStore`].
//!
//! A [`CompiledPlan`] is deliberately *flat*: it is exactly the set of
//! knobs the hand-tuned `ApaMatmul` builder exposes, so every compiled
//! plan reduces to one explicit-flag configuration
//! ([`CompiledPlan::to_matmul`]) and the explicit path stays available as
//! both escape hatch and bitwise equivalence baseline.

use crate::cost::MachineModel;
use crate::request::{DType, PlanRequest};
use crate::store::{Calibration, PlanStore};
use apa_core::{brent, catalog, error_model};
use apa_gemm::Mat;
use apa_matmul::{plan_additions, ApaMatmul, ExecPlan, FusionPolicy, Strategy};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::{Mutex, OnceLock};

/// The sentinel rule name for "don't approximate, call classical gemm".
pub const CLASSICAL_RULE: &str = "classical";

/// A validated, serializable execution recipe for one request: which
/// catalog rule (or [`CLASSICAL_RULE`]), how deep to recurse, which λ,
/// and the executor knobs. Plus the compiler's predictions, kept so a
/// store entry can be audited after the fact.
#[derive(Clone, Debug, PartialEq)]
pub struct CompiledPlan {
    /// Catalog rule name, or [`CLASSICAL_RULE`].
    pub rule: String,
    pub steps: u32,
    pub lambda: f64,
    pub strategy: Strategy,
    pub fusion: FusionPolicy,
    pub threads: usize,
    /// Whether the U/V/W addition-CSE rewrite is applied.
    pub cse: bool,
    /// The cost model's (or measurement's) wall-clock estimate for the
    /// request's full shape chain.
    pub predicted_seconds: f64,
    /// The §2.3 `error_bound` for the chosen rule at the chosen depth.
    pub predicted_error: f64,
    /// Linear-combination additions per recursion level before CSE.
    pub additions_before: u32,
    /// Additions after CSE (equal to `additions_before` when `cse` is
    /// off).
    pub additions_after: u32,
}

/// Why a [`CompiledPlan`] could not be turned into an executor.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PlanError {
    /// The plan names a rule this build's catalog does not contain.
    UnknownRule { rule: String },
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::UnknownRule { rule } => write!(f, "unknown catalog rule {rule:?}"),
        }
    }
}

impl std::error::Error for PlanError {}

fn strategy_code(s: Strategy) -> u8 {
    match s {
        Strategy::Seq => 0,
        Strategy::Dfs => 1,
        Strategy::Bfs => 2,
        Strategy::Hybrid => 3,
    }
}

fn strategy_from(code: u8) -> Option<Strategy> {
    Some(match code {
        0 => Strategy::Seq,
        1 => Strategy::Dfs,
        2 => Strategy::Bfs,
        3 => Strategy::Hybrid,
        _ => return None,
    })
}

fn fusion_code(f: FusionPolicy) -> u8 {
    match f {
        FusionPolicy::Auto => 0,
        FusionPolicy::Never => 2,
    }
}

fn fusion_from(code: u8) -> Option<FusionPolicy> {
    Some(match code {
        // Code 1 was `FusionPolicy::Always` (removed): a stored plan that
        // carries it fails to decode and is re-tuned once.
        0 => FusionPolicy::Auto,
        2 => FusionPolicy::Never,
        _ => return None,
    })
}

impl CompiledPlan {
    pub fn is_classical(&self) -> bool {
        self.rule == CLASSICAL_RULE
    }

    /// Reduce to the explicit hand-flagged [`ApaMatmul`] configuration —
    /// the escape-hatch/equivalence contract: a compiled plan is nothing
    /// the builder could not express. A classical plan is
    /// [`ApaMatmul::classical`] on the plan's threads; its recorded
    /// strategy is not applied, since depth 0 has no sub-products to
    /// schedule and `Seq` would take its lanes away.
    pub fn to_matmul(&self) -> Result<ApaMatmul, PlanError> {
        if self.is_classical() {
            return Ok(ApaMatmul::classical().threads(self.threads));
        }
        let alg = catalog::by_name(&self.rule).ok_or_else(|| PlanError::UnknownRule {
            rule: self.rule.clone(),
        })?;
        // λ is pinned *after* steps: the stored λ already accounts for
        // depth and dtype, and must survive the depth-dependent default.
        Ok(ApaMatmul::new(alg)
            .steps(self.steps)
            .lambda(self.lambda)
            .strategy(self.strategy)
            .threads(self.threads)
            .fusion(self.fusion)
            .cse(self.cse))
    }

    /// Stable binary encoding (bitwise round-trip; see the store docs).
    pub(crate) fn encode(&self) -> Vec<u8> {
        let mut enc = crate::codec::Enc::new();
        enc.put_str(&self.rule);
        enc.put_u32(self.steps);
        enc.put_f64(self.lambda);
        enc.put_u8(strategy_code(self.strategy));
        enc.put_u8(fusion_code(self.fusion));
        enc.put_u64(self.threads as u64);
        enc.put_u8(self.cse as u8);
        enc.put_f64(self.predicted_seconds);
        enc.put_f64(self.predicted_error);
        enc.put_u32(self.additions_before);
        enc.put_u32(self.additions_after);
        enc.into_bytes()
    }

    /// Decode [`Self::encode`] output; `None` on any malformed input
    /// (short buffer, unknown enum code, trailing garbage).
    pub(crate) fn decode(bytes: &[u8]) -> Option<Self> {
        let mut dec = crate::codec::Dec::new(bytes);
        let plan = CompiledPlan {
            rule: dec.get_str().ok()?,
            steps: dec.get_u32().ok()?,
            lambda: dec.get_f64().ok()?,
            strategy: strategy_from(dec.get_u8().ok()?)?,
            fusion: fusion_from(dec.get_u8().ok()?)?,
            threads: dec.get_u64().ok()? as usize,
            cse: match dec.get_u8().ok()? {
                0 => false,
                1 => true,
                _ => return None,
            },
            predicted_seconds: dec.get_f64().ok()?,
            predicted_error: dec.get_f64().ok()?,
            additions_before: dec.get_u32().ok()?,
            additions_after: dec.get_u32().ok()?,
        };
        if dec.remaining() != 0 {
            return None;
        }
        Some(plan)
    }
}

struct CompilerState {
    mem: HashMap<Vec<u8>, CompiledPlan>,
    store: Option<PlanStore>,
    store_loaded: bool,
}

/// The compiler: a machine model, an optional persistent store, and a
/// process-lifetime memory cache. Compiles are deterministic for a given
/// (request, kernel tier) unless measured refinement is enabled.
pub struct PlanCompiler {
    model: MachineModel,
    store_dir: Option<PathBuf>,
    measured: bool,
    state: Mutex<CompilerState>,
}

impl PlanCompiler {
    /// Memory-cache-only compiler (nothing touches disk).
    pub fn new() -> Self {
        PlanCompiler {
            model: MachineModel::detect(),
            store_dir: None,
            measured: false,
            state: Mutex::new(CompilerState {
                mem: HashMap::new(),
                store: None,
                store_loaded: false,
            }),
        }
    }

    /// Compiler persisting to `dir/plans.bin`. The store is loaded
    /// lazily on the first compile; an invalid or foreign file is counted
    /// as a retune and replaced on the next save.
    pub fn with_store(dir: impl Into<PathBuf>) -> Self {
        let mut c = Self::new();
        c.store_dir = Some(dir.into());
        c
    }

    /// Rank with an explicit [`MachineModel`] instead of the detected
    /// one — what-if analysis and tier-sensitivity tests.
    pub fn with_model(model: MachineModel) -> Self {
        let mut c = Self::new();
        c.model = model;
        c
    }

    /// Enable micro-measurement refinement of the analytic short-list.
    /// Off by default: measurement trades determinism for fidelity, so it
    /// is opt-in (`APA_PLAN_TUNE=1` for the [`global`] compiler).
    pub fn measured(mut self, on: bool) -> Self {
        self.measured = on;
        self
    }

    /// Compile (or recall) the plan for `req`.
    pub fn compile(&self, req: &PlanRequest) -> CompiledPlan {
        let key = req.key_bytes();
        let mut state = self.state.lock().unwrap();

        if let Some(plan) = state.mem.get(&key) {
            crate::stats::note_hit();
            return plan.clone();
        }

        if !state.store_loaded {
            state.store_loaded = true;
            if let Some(dir) = &self.store_dir {
                state.store = Some(match PlanStore::load(dir) {
                    Ok(store) => store,
                    Err(_) => {
                        // Corrupt / truncated / foreign-hardware store:
                        // start empty and re-tune rather than trust it.
                        crate::stats::note_retune();
                        PlanStore::empty(dir)
                    }
                });
            }
        }

        // Measured mode probes the machine once per store: streaming
        // bandwidth plus the parallel-scaling curve, persisted in the v2
        // calibration block so later (analytic) processes benefit too.
        if (self.measured || measured_env())
            && state
                .store
                .as_ref()
                .is_some_and(|s| s.calibration().is_none())
        {
            let cal = measure_calibration();
            if let Some(store) = state.store.as_mut() {
                store.set_calibration(cal);
                let _ = store.save();
            }
        }
        let model = match state.store.as_ref().and_then(|s| s.calibration()) {
            Some(cal) => self
                .model
                .clone()
                .calibrated(cal.bandwidth_bytes_per_sec, &cal.parallel_points),
            None => self.model.clone(),
        };

        if let Some(plan) = state.store.as_ref().and_then(|s| s.get(&key)).cloned() {
            crate::stats::note_hit();
            state.mem.insert(key, plan.clone());
            return plan;
        }

        crate::stats::note_miss();
        let plan = self.search(req, &model);
        state.mem.insert(key.clone(), plan.clone());
        if let Some(store) = state.store.as_mut() {
            store.insert(key, plan.clone());
            // Persistence is best-effort: a read-only cache dir degrades
            // to per-process compilation, never to a failed multiply.
            let _ = store.save();
        }
        plan
    }

    /// Number of plans in the memory cache (diagnostics/tests).
    pub fn cached(&self) -> usize {
        self.state.lock().unwrap().mem.len()
    }

    /// Enumerate, filter, rank — see the module docs. Always returns a
    /// plan: classical is unconditionally a candidate and satisfies every
    /// error target at working precision.
    ///
    /// `model` is the effective machine model — the compiler's analytic
    /// model overlaid with any persisted calibration. With a measured
    /// scaling curve the thread budget is *enumerated* (powers of two up
    /// to the request's budget) per candidate instead of assumed: on a
    /// machine where 8 threads measure like 3, the byte traffic and
    /// load-imbalance penalties can make a smaller lane count win, and
    /// `CompiledPlan::threads` records the measured-best choice.
    /// Uncalibrated models keep the historical "use the full budget"
    /// behavior exactly (a linear curve always weakly prefers it).
    fn search(&self, req: &PlanRequest, model: &MachineModel) -> CompiledPlan {
        let d = req.dtype.mantissa_digits();
        let thread_options: Vec<usize> = if model.parallel_points.is_empty() {
            vec![req.threads]
        } else {
            let mut opts = Vec::new();
            let mut t = 1usize;
            while t < req.threads.max(1) {
                opts.push(t);
                t *= 2;
            }
            opts.push(req.threads.max(1));
            opts
        };
        // Ties resolve toward more threads, so a saturated (flat) scaling
        // curve still fills the requested budget rather than shrinking it.
        let best_over_threads = |cost: &dyn Fn(usize) -> f64| -> (usize, f64) {
            let mut best = (thread_options[0], cost(thread_options[0]));
            for &t in &thread_options[1..] {
                let s = cost(t);
                if s <= best.1 {
                    best = (t, s);
                }
            }
            best
        };

        let (cl_threads, cl_seconds) =
            best_over_threads(&|t| model.predict_classical_seconds(&req.shapes, t, req.dtype));
        let mut candidates = vec![CompiledPlan {
            rule: CLASSICAL_RULE.to_string(),
            steps: 0,
            lambda: 0.0,
            strategy: Strategy::Seq,
            fusion: FusionPolicy::Auto,
            threads: cl_threads,
            cse: false,
            predicted_seconds: cl_seconds,
            predicted_error: (2.0f64).powi(-(d as i32)),
            additions_before: 0,
            additions_after: 0,
        }];

        for alg in catalog::paper_lineup() {
            let sigma = match brent::validate(&alg) {
                Ok(report) => report.sigma.unwrap_or(0),
                Err(_) => continue,
            };
            let phi = alg.phi();
            for steps in [1u32, 2] {
                if !self.divides_all(&req.shapes, &alg, steps) {
                    // An indivisible chain degenerates to peel-heavy
                    // execution the flop/byte model can't credit — the
                    // analytic fallback would *under*-count it (classical
                    // flops but fewer modeled output writes) and beat
                    // classical on shapes the rule can't even divide.
                    // Don't offer the candidate; the explicit builder
                    // remains the escape hatch for deliberate peeling.
                    continue;
                }
                let err = error_model::error_bound(sigma, phi, d, steps);
                if err > req.target_error {
                    continue;
                }
                let lambda = error_model::optimal_lambda(sigma, phi, d, steps);
                for cse in [false, true] {
                    let mut plan = ExecPlan::compile(&alg, lambda);
                    let before = plan_additions(&plan) as u32;
                    let after = if cse {
                        apa_matmul::cse::apply(&mut plan);
                        plan_additions(&plan) as u32
                    } else {
                        before
                    };
                    let strategy = Strategy::Hybrid;
                    let fusion = FusionPolicy::Auto;
                    let (threads, mut seconds) = best_over_threads(&|t| {
                        model.predict_seconds(
                            &plan,
                            &req.shapes,
                            steps,
                            strategy,
                            t,
                            fusion,
                            req.dtype,
                        )
                    });
                    if cse {
                        // CSE trims combination additions, not products;
                        // credit it proportionally so ties break toward
                        // fewer additions.
                        let saved = (before - after) as f64;
                        seconds *= 1.0 - 0.01 * (saved / before.max(1) as f64);
                    }
                    candidates.push(CompiledPlan {
                        rule: alg.name.clone(),
                        steps,
                        lambda,
                        strategy,
                        fusion,
                        threads,
                        cse,
                        predicted_seconds: seconds,
                        predicted_error: err,
                        additions_before: before,
                        additions_after: after,
                    });
                }
            }
        }

        // Deterministic ranking: cost, then name, then depth, then CSE
        // (so equal-cost candidates resolve identically on every run —
        // the cold/warm determinism gate depends on this).
        candidates.sort_by(|a, b| {
            a.predicted_seconds
                .total_cmp(&b.predicted_seconds)
                .then_with(|| a.rule.cmp(&b.rule))
                .then_with(|| a.steps.cmp(&b.steps))
                .then_with(|| a.cse.cmp(&b.cse))
        });

        if self.measured || measured_env() {
            self.refine(&mut candidates, req);
        }
        candidates.remove(0)
    }

    fn divides_all(
        &self,
        shapes: &[(usize, usize, usize)],
        alg: &apa_core::BilinearAlgorithm,
        steps: u32,
    ) -> bool {
        let (dm, dk, dn) = (
            alg.dims.m.pow(steps),
            alg.dims.k.pow(steps),
            alg.dims.n.pow(steps),
        );
        shapes
            .iter()
            .all(|&(m, k, n)| m % dm == 0 && k % dk == 0 && n % dn == 0)
    }

    /// Micro-time the analytic top three on the request's first shape and
    /// re-rank by measured wall clock.
    fn refine(&self, candidates: &mut [CompiledPlan], req: &PlanRequest) {
        let top = candidates.len().min(3);
        let shape = req.shapes[0];
        let mut timed: Vec<(f64, CompiledPlan)> = candidates[..top]
            .iter()
            .map(|c| (measure_candidate(c, shape, req.dtype), c.clone()))
            .collect();
        timed.sort_by(|a, b| a.0.total_cmp(&b.0));
        for (slot, (seconds, mut plan)) in candidates[..top].iter_mut().zip(timed) {
            plan.predicted_seconds = seconds;
            *slot = plan;
        }
    }
}

impl Default for PlanCompiler {
    fn default() -> Self {
        Self::new()
    }
}

/// Probe this machine once: streaming bandwidth plus the parallel gemm
/// speedup curve at power-of-two lane counts up to the physical core
/// count. Only invoked under measured tuning (`APA_PLAN_TUNE=1` or
/// [`PlanCompiler::measured`]) — the probes cost real gemm time.
fn measure_calibration() -> Calibration {
    let cores = apa_gemm::topology().slots.len().max(1);
    let mut lane_counts = vec![1usize];
    let mut t = 2usize;
    while t <= cores {
        lane_counts.push(t);
        t *= 2;
    }
    if *lane_counts.last().unwrap() != cores {
        lane_counts.push(cores);
    }
    let n = 256;
    let base = apa_gemm::probe_parallel_gflops::<f32>(1, n, 2).max(1e-9);
    let mut points = vec![(1u32, 1.0f64)];
    for &lanes in &lane_counts[1..] {
        let gflops = apa_gemm::probe_parallel_gflops::<f32>(lanes, n, 2);
        points.push((lanes as u32, (gflops / base).max(0.01)));
    }
    Calibration {
        bandwidth_bytes_per_sec: apa_gemm::probe_bandwidth_bytes(),
        parallel_points: points,
    }
}

fn measured_env() -> bool {
    std::env::var("APA_PLAN_TUNE")
        .map(|v| v == "1")
        .unwrap_or(false)
}

fn measure_candidate(plan: &CompiledPlan, shape: (usize, usize, usize), dtype: DType) -> f64 {
    fn time_one<T: apa_gemm::Scalar>(exec: &ApaMatmul, (m, k, n): (usize, usize, usize)) -> f64 {
        let a = Mat::<T>::from_fn(m, k, |i, j| {
            T::from_f64(((i * 31 + j * 7) % 13) as f64 * 0.05)
        });
        let b = Mat::<T>::from_fn(k, n, |i, j| {
            T::from_f64(((i * 17 + j * 3) % 11) as f64 * 0.07)
        });
        let mut c = Mat::<T>::zeros(m, n);
        exec.multiply_into(a.as_ref(), b.as_ref(), c.as_mut()); // warmup
        let mut best = f64::INFINITY;
        for _ in 0..2 {
            let t0 = std::time::Instant::now();
            exec.multiply_into(a.as_ref(), b.as_ref(), c.as_mut());
            best = best.min(t0.elapsed().as_secs_f64());
        }
        best
    }
    match plan.to_matmul() {
        Ok(exec) => match dtype {
            DType::F32 => time_one::<f32>(&exec, shape),
            DType::F64 => time_one::<f64>(&exec, shape),
        },
        Err(_) => f64::INFINITY,
    }
}

static GLOBAL: OnceLock<PlanCompiler> = OnceLock::new();

/// The process-wide compiler, persisting under [`crate::plan_dir`], with
/// measured refinement when `APA_PLAN_TUNE=1`.
pub fn global() -> &'static PlanCompiler {
    GLOBAL.get_or_init(|| PlanCompiler::with_store(crate::plan_dir()))
}

/// Compile `req` with the [`global`] compiler.
pub fn compile(req: &PlanRequest) -> CompiledPlan {
    global().compile(req)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::PlanRequest;

    #[test]
    fn encode_decode_roundtrip_is_bitwise() {
        let plan = CompiledPlan {
            rule: "strassen".to_string(),
            steps: 2,
            lambda: 1.0 / 3.0,
            strategy: Strategy::Hybrid,
            fusion: FusionPolicy::Never,
            threads: 8,
            cse: true,
            predicted_seconds: 1.25e-3,
            predicted_error: 9.5e-5,
            additions_before: 24,
            additions_after: 18,
        };
        let back = CompiledPlan::decode(&plan.encode()).unwrap();
        assert_eq!(back, plan);
        assert_eq!(back.lambda.to_bits(), plan.lambda.to_bits());
        assert_eq!(back.encode(), plan.encode());
    }

    #[test]
    fn decode_rejects_malformed_input() {
        let good = CompiledPlan {
            rule: "bini322".to_string(),
            steps: 1,
            lambda: 0.01,
            strategy: Strategy::Seq,
            fusion: FusionPolicy::Auto,
            threads: 1,
            cse: false,
            predicted_seconds: 0.0,
            predicted_error: 0.0,
            additions_before: 0,
            additions_after: 0,
        }
        .encode();
        assert!(
            CompiledPlan::decode(&good[..good.len() - 1]).is_none(),
            "truncated"
        );
        let mut trailing = good.clone();
        trailing.push(0);
        assert!(
            CompiledPlan::decode(&trailing).is_none(),
            "trailing garbage"
        );
        let mut bad_code = good.clone();
        // The strategy byte sits right after rule (4+7 bytes), steps (4)
        // and lambda (8).
        bad_code[4 + 7 + 4 + 8] = 99;
        assert!(
            CompiledPlan::decode(&bad_code).is_none(),
            "unknown strategy code"
        );
    }

    #[test]
    fn classical_plan_builds_a_depth_zero_matmul() {
        let plan = CompiledPlan {
            rule: CLASSICAL_RULE.to_string(),
            steps: 0,
            lambda: 0.0,
            strategy: Strategy::Seq,
            fusion: FusionPolicy::Auto,
            threads: 2,
            cse: false,
            predicted_seconds: 0.0,
            predicted_error: 0.0,
            additions_before: 0,
            additions_after: 0,
        };
        let mm = plan.to_matmul().unwrap();
        assert_eq!(mm.algorithm().name, CLASSICAL_RULE);
        assert_eq!(mm.current_steps(), 0);
        // The plan's lanes survive: its recorded `Seq` is not applied.
        assert_eq!(mm.current_threads(), 2);
        assert_ne!(mm.current_strategy(), Strategy::Seq);
    }

    #[test]
    fn unknown_rule_is_a_typed_error() {
        let plan = CompiledPlan {
            rule: "schönhage".to_string(),
            steps: 1,
            lambda: 0.0,
            strategy: Strategy::Seq,
            fusion: FusionPolicy::Auto,
            threads: 1,
            cse: false,
            predicted_seconds: 0.0,
            predicted_error: 0.0,
            additions_before: 0,
            additions_after: 0,
        };
        assert!(matches!(
            plan.to_matmul(),
            Err(PlanError::UnknownRule { .. })
        ));
    }

    #[test]
    fn compile_is_deterministic_and_cached() {
        let compiler = PlanCompiler::new();
        let req = PlanRequest::new(256, 256, 256).threads(4);
        let first = compiler.compile(&req);
        let second = compiler.compile(&req);
        assert_eq!(first, second);
        assert_eq!(compiler.cached(), 1);
        // A fresh compiler (cold cache) picks the identical plan.
        assert_eq!(PlanCompiler::new().compile(&req), first);
    }

    #[test]
    fn tight_error_target_forces_exact_rules() {
        // 1e-6 sits below every approximate rule's §2.3 bound at f32
        // (≈6e-5 for bini322) but above working precision 2^-23, so only
        // exact rules and classical survive the filter.
        let compiler = PlanCompiler::new();
        let req = PlanRequest::new(256, 256, 256).target_error(1e-6);
        let plan = compiler.compile(&req);
        assert!(
            plan.predicted_error <= 1e-6,
            "chose {} with error {}",
            plan.rule,
            plan.predicted_error
        );
        let exact = plan.is_classical()
            || catalog::by_name(&plan.rule)
                .map(|a| a.is_exact_rule())
                .unwrap_or(false);
        assert!(exact, "rule {} is not exact", plan.rule);
    }

    #[test]
    fn compute_bound_tier_picks_an_apa_rule_on_large_shapes() {
        // On a scalar machine model (4 GF/s/thread vs 16 GB/s) large
        // multiplies are compute-bound, so the §2.2 flop saving wins and
        // an approximate rule must be chosen. Pin the model rather than
        // detecting: whether *this* host's SIMD gemm out-runs APA at
        // n=1024 is a fact about the host, not about the compiler.
        let compiler = PlanCompiler::with_model(crate::cost::MachineModel::for_tier("scalar"));
        let req = PlanRequest::new(1024, 1024, 1024)
            .threads(8)
            .target_error(1e-2);
        let plan = compiler.compile(&req);
        assert!(!plan.is_classical(), "expected an APA rule, got classical");
        assert!(plan.predicted_error <= 1e-2);
        let exec = plan.to_matmul().unwrap();
        assert_eq!(exec.algorithm().name, plan.rule);
    }

    #[test]
    fn small_shapes_fall_back_to_classical_on_fast_tiers() {
        // Below the crossover the byte traffic of an APA step outweighs
        // its flop saving on a machine whose vector gemm is fast relative
        // to memory — the compiler must know when *not* to approximate.
        let compiler = PlanCompiler::with_model(crate::cost::MachineModel::for_tier("avx512"));
        let plan = compiler.compile(&PlanRequest::new(64, 128, 128));
        assert!(
            plan.is_classical(),
            "expected classical below the crossover, got {}",
            plan.rule
        );
    }

    #[test]
    fn flat_measured_scaling_shrinks_the_thread_choice() {
        // A machine that measures *no* speedup past one lane: the
        // Hybrid load-imbalance penalty is never paid back, so the
        // enumerated thread budget collapses to 1 for APA rules.
        let model = crate::cost::MachineModel::for_tier("scalar").calibrated(16.0e9, &[(1, 1.0)]);
        let compiler = PlanCompiler::with_model(model);
        let req = PlanRequest::new(1024, 1024, 1024)
            .threads(8)
            .target_error(1e-2);
        let plan = compiler.compile(&req);
        assert!(!plan.is_classical());
        assert_eq!(
            plan.threads, 1,
            "flat scaling must not keep the full thread budget"
        );
    }

    #[test]
    fn linear_measured_scaling_keeps_the_full_budget() {
        // A perfectly-scaling calibration must reproduce the historical
        // uncalibrated choice: use every requested thread.
        let model = crate::cost::MachineModel::for_tier("scalar")
            .calibrated(16.0e9, &[(2, 2.0), (4, 4.0), (8, 8.0)]);
        let calibrated = PlanCompiler::with_model(model).compile(
            &PlanRequest::new(1024, 1024, 1024)
                .threads(8)
                .target_error(1e-2),
        );
        let linear = PlanCompiler::with_model(crate::cost::MachineModel::for_tier("scalar"))
            .compile(
                &PlanRequest::new(1024, 1024, 1024)
                    .threads(8)
                    .target_error(1e-2),
            );
        assert_eq!(calibrated.threads, 8);
        assert_eq!(calibrated.rule, linear.rule);
    }

    #[test]
    fn compiled_plan_executes_within_its_error_bound() {
        let compiler = PlanCompiler::new();
        let req = PlanRequest::new(128, 128, 128).target_error(1e-2);
        let plan = compiler.compile(&req);
        let exec = plan.to_matmul().unwrap();
        let a = Mat::<f32>::from_fn(128, 128, |i, j| ((i * 13 + j * 5) % 17) as f32 * 0.03);
        let b = Mat::<f32>::from_fn(128, 128, |i, j| ((i * 7 + j * 11) % 19) as f32 * 0.02);
        let got = exec.multiply(a.as_ref(), b.as_ref());
        let exact = ApaMatmul::classical().multiply(a.as_ref(), b.as_ref());
        let mut num = 0.0f64;
        let mut den = 0.0f64;
        for i in 0..128 {
            for j in 0..128 {
                let d = (got.at(i, j) - exact.at(i, j)) as f64;
                num += d * d;
                den += (exact.at(i, j) as f64).powi(2);
            }
        }
        let rel = (num / den).sqrt();
        assert!(
            rel < 1e-2,
            "relative error {rel} exceeds the request target"
        );
    }
}
