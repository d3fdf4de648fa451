//! Pluggable matrix-multiplication backends — the reproduction of the
//! paper's custom TensorFlow operators (§4.1).
//!
//! The paper swaps the matmul used by selected layers (forward *and*
//! gradient multiplications) between a classical `gemm` call and an APA
//! algorithm. Here a layer simply owns a `Arc<dyn MatmulBackend>`.

use apa_core::BilinearAlgorithm;
use apa_gemm::{Mat, MatMut, MatRef};
use apa_matmul::{ApaMatmul, GuardedApaMatmul, HealthStats, PeelMode, QualityOverride, Strategy};
use std::sync::Arc;

/// A matrix-multiplication provider used by network layers. All NN compute
/// is single precision, matching the paper.
pub trait MatmulBackend: Send + Sync {
    /// `C ← A·B`.
    fn matmul_into(&self, a: MatRef<'_, f32>, b: MatRef<'_, f32>, c: MatMut<'_, f32>);

    /// Diagnostic name (shows up in experiment reports).
    fn name(&self) -> String;

    /// Allocate-and-return convenience.
    fn matmul(&self, a: MatRef<'_, f32>, b: MatRef<'_, f32>) -> Mat<f32> {
        let mut c = Mat::zeros(a.rows(), b.cols());
        self.matmul_into(a, b, c.as_mut());
        c
    }

    /// Pre-build whatever the backend caches per `(m, k, n)` shape —
    /// execution workspaces, probe scratch, thread-local gemm pack buffers
    /// — so the **first** real multiply on a declared shape is already
    /// allocation-free. Pack buffers are thread-local: call this on the
    /// thread that will run the multiplies (the serving lanes do). The
    /// default runs two throwaway multiplies per shape, which settles any
    /// backend built on the workspace-caching engine.
    fn warm(&self, shapes: &[(usize, usize, usize)]) {
        for &(m, k, n) in shapes {
            if m == 0 || k == 0 || n == 0 {
                continue;
            }
            let a = Mat::zeros(m, k);
            let b = Mat::zeros(k, n);
            let mut c = Mat::zeros(m, n);
            self.matmul_into(a.as_ref(), b.as_ref(), c.as_mut());
            self.matmul_into(a.as_ref(), b.as_ref(), c.as_mut());
        }
    }
}

/// An APA (or exact fast) backend wrapping a configured [`ApaMatmul`] —
/// the classical baseline included: [`classical`] wraps
/// [`ApaMatmul::classical`], a direct call into the blocked gemm ("custom
/// classical operator that directly calls gemm", §4.1).
///
/// Because [`ApaMatmul::multiply_into`] caches execution workspaces keyed
/// by shape, a layer that multiplies the same shapes every training step
/// (fixed batch size) reuses the APA intermediate buffers across steps —
/// steady-state calls perform zero heap allocation inside the engine.
pub struct ApaBackend {
    inner: ApaMatmul,
}

impl ApaBackend {
    /// Defaults mirror the paper's setup: λ at the theoretical optimum,
    /// one recursive step, hybrid strategy, dynamic peeling.
    pub fn new(alg: BilinearAlgorithm, threads: usize) -> Self {
        Self {
            inner: ApaMatmul::new(alg)
                .steps(1)
                .strategy(Strategy::Hybrid)
                .threads(threads)
                .peel_mode(PeelMode::Dynamic),
        }
    }

    /// Full control over the inner multiplier.
    pub fn from_matmul(inner: ApaMatmul) -> Self {
        Self { inner }
    }

    pub fn matmul_config(&self) -> &ApaMatmul {
        &self.inner
    }
}

impl MatmulBackend for ApaBackend {
    fn matmul_into(&self, a: MatRef<'_, f32>, b: MatRef<'_, f32>, c: MatMut<'_, f32>) {
        self.inner.multiply_into(a, b, c);
    }

    fn name(&self) -> String {
        format!(
            "{}(t={})",
            self.inner.algorithm().name,
            self.inner.current_threads()
        )
    }

    fn warm(&self, shapes: &[(usize, usize, usize)]) {
        // Also raises the workspace-cache bound so the declared shape set
        // can never evict itself (see `ApaMatmul::warm`).
        self.inner.warm::<f32>(shapes);
    }
}

/// An APA backend wrapped in the numerical-health sentinel and the
/// graceful-degradation ladder of [`apa_matmul::fallback`]: every layer
/// multiplication is scanned for non-finite values (and residual-probed at
/// the sentinel's sampling rate), and a violating product is transparently
/// recomputed on a more conservative rung — down to exact classical gemm —
/// before the layer ever sees it.
pub struct GuardedBackend {
    inner: GuardedApaMatmul,
}

impl GuardedBackend {
    /// Same execution defaults as [`ApaBackend::new`], guarded.
    pub fn new(alg: BilinearAlgorithm, threads: usize) -> Self {
        Self {
            inner: GuardedApaMatmul::from_matmul(
                ApaMatmul::new(alg)
                    .steps(1)
                    .strategy(Strategy::Hybrid)
                    .threads(threads)
                    .peel_mode(PeelMode::Dynamic),
            ),
        }
    }

    /// Full control over the guard (policy, sentinel config, base
    /// multiplier).
    pub fn from_guard(inner: GuardedApaMatmul) -> Self {
        Self { inner }
    }

    pub fn guard(&self) -> &GuardedApaMatmul {
        &self.inner
    }

    /// Sentinel/ladder counters accumulated over all layer matmuls routed
    /// through this backend.
    pub fn health(&self) -> HealthStats {
        self.inner.health()
    }

    /// Install (or clear) a load-driven [`QualityOverride`] on the guard —
    /// the hook a serving-layer brownout controller uses to trade answer
    /// quality for throughput on a warm replica without touching its
    /// sticky health state (see
    /// [`GuardedApaMatmul::set_quality_override`]).
    pub fn set_quality_override(&self, quality: Option<QualityOverride>) {
        self.inner.set_quality_override(quality);
    }
}

impl MatmulBackend for GuardedBackend {
    fn matmul_into(&self, a: MatRef<'_, f32>, b: MatRef<'_, f32>, c: MatMut<'_, f32>) {
        self.inner.multiply_into(a, b, c);
    }

    fn name(&self) -> String {
        format!(
            "guarded-{}(t={})",
            self.inner.base().algorithm().name,
            self.inner.base().current_threads()
        )
    }

    fn warm(&self, shapes: &[(usize, usize, usize)]) {
        // Warms the ladder's starting rung, the probe scratch and the
        // per-shape ladder state (see `GuardedApaMatmul::warm`).
        self.inner.warm::<f32>(shapes);
    }
}

/// A shape-adaptive backend driven by the `apa-planner` compiler: instead
/// of fixing one algorithm for every layer, each `(m, k, n)` a layer
/// multiplies gets its own [`apa_planner::CompiledPlan`] — rule, depth,
/// λ, strategy, fusion, CSE — chosen by the cost model (and remembered in
/// the process-wide plan store). [`MatmulBackend::warm`] is the compile
/// point: one plan per declared shape, then the executor itself is
/// warmed, so training/serving steps never compile on the hot path. A
/// shape that was never warmed compiles lazily on first multiply.
pub struct PlannedBackend {
    threads: usize,
    target_error: f64,
    guarded: bool,
    slots: std::sync::Mutex<std::collections::HashMap<(usize, usize, usize), PlannedSlot>>,
}

#[derive(Clone)]
enum PlannedSlot {
    Plain(Arc<ApaMatmul>),
    Guarded(Arc<GuardedApaMatmul>),
}

impl PlannedBackend {
    /// Plain planned backend at the paper's training-safe error band
    /// (1e-2 relative, single precision).
    pub fn new(threads: usize) -> Self {
        Self {
            threads: threads.max(1),
            target_error: 1e-2,
            guarded: false,
            slots: std::sync::Mutex::new(std::collections::HashMap::new()),
        }
    }

    /// Wrap every compiled (non-classical) plan in the sentinel guard.
    pub fn guarded(mut self) -> Self {
        self.guarded = true;
        self
    }

    /// Tighten/loosen the §2.3 error target the compiler filters with.
    pub fn target_error(mut self, target: f64) -> Self {
        self.target_error = target;
        self
    }

    fn slot(&self, shape: (usize, usize, usize)) -> PlannedSlot {
        if let Some(slot) = self.slots.lock().unwrap().get(&shape) {
            return slot.clone();
        }
        // Compile outside the slot lock: the planner global has its own
        // cache, and a slow first compile must not stall sibling shapes.
        let (m, k, n) = shape;
        let req = apa_planner::PlanRequest::new(m, k, n)
            .threads(self.threads)
            .target_error(self.target_error)
            .robustness(if self.guarded {
                apa_planner::Robustness::Guarded
            } else {
                apa_planner::Robustness::Plain
            });
        let plan = apa_planner::compile(&req);
        let mm = plan.to_matmul().expect("compiled plan builds");
        let slot = if self.guarded && !plan.is_classical() {
            PlannedSlot::Guarded(Arc::new(GuardedApaMatmul::from_matmul(mm)))
        } else {
            PlannedSlot::Plain(Arc::new(mm))
        };
        self.slots
            .lock()
            .unwrap()
            .entry(shape)
            .or_insert(slot)
            .clone()
    }

    /// The rules chosen so far, per shape (diagnostics; sorted by shape).
    pub fn chosen_rules(&self) -> Vec<((usize, usize, usize), String)> {
        let mut out: Vec<_> = self
            .slots
            .lock()
            .unwrap()
            .iter()
            .map(|(&shape, slot)| {
                let rule = match slot {
                    PlannedSlot::Plain(mm) => mm.algorithm().name.clone(),
                    PlannedSlot::Guarded(g) => format!("guarded-{}", g.base().algorithm().name),
                };
                (shape, rule)
            })
            .collect();
        out.sort();
        out
    }
}

impl MatmulBackend for PlannedBackend {
    fn matmul_into(&self, a: MatRef<'_, f32>, b: MatRef<'_, f32>, c: MatMut<'_, f32>) {
        match self.slot((a.rows(), a.cols(), b.cols())) {
            PlannedSlot::Plain(mm) => mm.multiply_into(a, b, c),
            PlannedSlot::Guarded(guard) => guard.multiply_into(a, b, c),
        }
    }

    fn name(&self) -> String {
        format!(
            "planned{}(t={},err<={:.0e})",
            if self.guarded { "-guarded" } else { "" },
            self.threads,
            self.target_error
        )
    }

    fn warm(&self, shapes: &[(usize, usize, usize)]) {
        for &shape in shapes {
            if shape.0 == 0 || shape.1 == 0 || shape.2 == 0 {
                continue;
            }
            match self.slot(shape) {
                PlannedSlot::Plain(mm) => mm.warm::<f32>(&[shape]),
                PlannedSlot::Guarded(guard) => guard.warm::<f32>(&[shape]),
            }
        }
    }
}

/// Shared-pointer alias used throughout the network code.
pub type Backend = Arc<dyn MatmulBackend>;

/// Convenience constructors.
pub fn classical(threads: usize) -> Backend {
    Arc::new(ApaBackend::from_matmul(
        ApaMatmul::classical().threads(threads),
    ))
}

pub fn apa(alg: BilinearAlgorithm, threads: usize) -> Backend {
    Arc::new(ApaBackend::new(alg, threads))
}

/// Sentinel-guarded APA backend (see [`GuardedBackend`]). Returns the
/// concrete `Arc` so callers can keep a handle for [`GuardedBackend::health`]
/// while handing clones to layers as `Backend`.
pub fn guarded(alg: BilinearAlgorithm, threads: usize) -> Arc<GuardedBackend> {
    Arc::new(GuardedBackend::new(alg, threads))
}

/// Compiler-driven backend: one plan per layer shape, chosen by
/// `apa-planner` at warm time (see [`PlannedBackend`]).
pub fn planned(threads: usize) -> Backend {
    Arc::new(PlannedBackend::new(threads))
}

/// [`planned`], with every non-classical plan behind the sentinel guard.
/// Returns the concrete `Arc` so callers can inspect
/// [`PlannedBackend::chosen_rules`].
pub fn planned_guarded(threads: usize) -> Arc<PlannedBackend> {
    Arc::new(PlannedBackend::new(threads).guarded())
}

#[cfg(test)]
mod tests {
    use super::*;
    use apa_core::catalog;
    use apa_gemm::matmul_naive;

    fn probe(rows: usize, cols: usize, seed: u64) -> Mat<f32> {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        Mat::from_fn(rows, cols, |_, _| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (((state >> 32) as u32 as f64 / (1u64 << 31) as f64) - 1.0) as f32
        })
    }

    #[test]
    fn classical_backend_matches_reference() {
        let a = probe(33, 21, 1);
        let b = probe(21, 17, 2);
        let got = classical(1).matmul(a.as_ref(), b.as_ref());
        let expect = matmul_naive(a.as_ref(), b.as_ref());
        assert!(got.rel_frobenius_error(&expect) < 1e-5);
    }

    #[test]
    fn apa_backend_is_accurate_enough_for_training() {
        let a = probe(30, 30, 3);
        let b = probe(30, 30, 4);
        let expect = matmul_naive(a.as_ref(), b.as_ref());
        for name in ["bini322", "fast442", "fast444"] {
            let be = apa(catalog::by_name(name).unwrap(), 1);
            let got = be.matmul(a.as_ref(), b.as_ref());
            let err = got.rel_frobenius_error(&expect);
            assert!(err < 5e-3, "{name}: {err}");
        }
    }

    #[test]
    fn names_are_informative() {
        assert!(classical(6).name().contains("classical"));
        assert!(apa(catalog::bini322(), 2).name().contains("bini322"));
        assert!(guarded(catalog::bini322(), 2)
            .name()
            .contains("guarded-bini322"));
    }

    #[test]
    fn planned_backend_compiles_per_shape_and_is_accurate() {
        let be = PlannedBackend::new(1);
        let a = probe(64, 48, 7);
        let b = probe(48, 32, 8);
        let expect = matmul_naive(a.as_ref(), b.as_ref());
        MatmulBackend::warm(&be, &[(64, 48, 32), (32, 48, 32)]);
        assert_eq!(be.chosen_rules().len(), 2, "one plan per warmed shape");
        let got = be.matmul(a.as_ref(), b.as_ref());
        assert!(got.rel_frobenius_error(&expect) < 1e-2);
        // An unwarmed shape compiles lazily on first multiply.
        let c = probe(16, 24, 9);
        let d = probe(24, 16, 10);
        let got = be.matmul(c.as_ref(), d.as_ref());
        assert!(got.rel_frobenius_error(&matmul_naive(c.as_ref(), d.as_ref())) < 1e-2);
        assert_eq!(be.chosen_rules().len(), 3);
        assert!(be.name().contains("planned"));
    }

    #[test]
    fn planned_guarded_backend_guards_apa_plans() {
        let be = planned_guarded(1);
        let a = probe(64, 64, 11);
        let b = probe(64, 64, 12);
        let expect = matmul_naive(a.as_ref(), b.as_ref());
        let got = be.matmul(a.as_ref(), b.as_ref());
        assert!(got.rel_frobenius_error(&expect) < 1e-2);
        for (_, rule) in be.chosen_rules() {
            assert!(
                rule.starts_with("guarded-") || rule == "classical",
                "unguarded APA rule {rule}"
            );
        }
    }

    #[test]
    fn guarded_backend_is_accurate_and_counts_calls() {
        let a = probe(30, 30, 5);
        let b = probe(30, 30, 6);
        let expect = matmul_naive(a.as_ref(), b.as_ref());
        let be = guarded(catalog::bini322(), 1);
        let got = be.matmul(a.as_ref(), b.as_ref());
        assert!(got.rel_frobenius_error(&expect) < 5e-3);
        let h = be.health();
        assert_eq!(h.calls, 1);
        assert_eq!(h.degraded_calls(), 0);
    }
}
