//! The analytic machine model the compiler ranks candidates with: a
//! roofline-style estimate combining recursive gemm flops with the byte
//! traffic modeled by `apa_matmul::modeled_bytes_moved` (the analytic
//! mirror of the instrumented `ExecProfile::est_bytes_moved` accounting).
//!
//! The absolute numbers are deliberately coarse — tier-typical per-thread
//! flop rates, a flat memory-bandwidth figure — because the compiler only
//! needs the *ordering* of candidates to be right, and ties are broken
//! deterministically. When a real measurement exists (opt-in autotune),
//! it overrides the analytic estimate entirely.

use crate::request::DType;
use apa_matmul::{modeled_bytes_moved, ExecPlan, FusionPolicy, Strategy};

/// Per-thread throughput and memory bandwidth for the dispatched kernel
/// tier. Values are order-of-magnitude figures for the tier class, not
/// calibrated constants; see the module docs.
#[derive(Clone, Debug)]
pub struct MachineModel {
    /// Kernel tier name this model was built for ("scalar" / "avx2" /
    /// "avx512").
    pub tier: &'static str,
    /// Sustained f32 flops/sec for one thread.
    pub flops_f32: f64,
    /// Sustained f64 flops/sec for one thread.
    pub flops_f64: f64,
    /// Sustained main-memory bandwidth (bytes/sec), shared by all threads.
    pub bytes_per_sec: f64,
    /// Measured parallel-scaling curve: `(threads, speedup-vs-1-thread)`
    /// points, sorted by thread count. **Empty means linear scaling** —
    /// the uncalibrated default, which keeps the analytic ordering
    /// identical to the historical model. Populated from the persisted
    /// plan-store calibration block (probed by `apa_gemm`'s
    /// `probe_parallel_gflops` under measured tuning).
    pub parallel_points: Vec<(u32, f64)>,
}

impl MachineModel {
    /// The model for the kernel tier runtime dispatch actually selected
    /// (honours `APA_KERNEL_TIER`).
    pub fn detect() -> Self {
        Self::for_tier(apa_gemm::selected_tier().name())
    }

    /// Model for a named tier; unknown names get the scalar figures.
    pub fn for_tier(tier: &'static str) -> Self {
        let (flops_f32, flops_f64) = match tier {
            "avx512" => (64.0e9, 32.0e9),
            "avx2" => (32.0e9, 16.0e9),
            _ => (4.0e9, 2.0e9),
        };
        MachineModel {
            tier,
            flops_f32,
            flops_f64,
            bytes_per_sec: 16.0e9,
            parallel_points: Vec::new(),
        }
    }

    /// Overlay measured calibration onto the analytic model: a probed
    /// memory bandwidth (ignored unless finite and positive) and a set of
    /// `(threads, speedup)` scaling points (invalid entries dropped, the
    /// rest sorted). With no valid points the model keeps the linear
    /// default.
    pub fn calibrated(mut self, bandwidth: f64, points: &[(u32, f64)]) -> Self {
        if bandwidth.is_finite() && bandwidth > 0.0 {
            self.bytes_per_sec = bandwidth;
        }
        let mut pts: Vec<(u32, f64)> = points
            .iter()
            .copied()
            .filter(|&(t, s)| t >= 1 && s.is_finite() && s > 0.0)
            .collect();
        pts.sort_by_key(|&(t, _)| t);
        pts.dedup_by_key(|&mut (t, _)| t);
        self.parallel_points = pts;
        self
    }

    /// Effective speedup of `threads` lanes over one lane. Uncalibrated
    /// (no measured points) this is the historical linear assumption
    /// `threads`; with measured points it interpolates the curve
    /// piecewise-linearly (anchored at `(1, 1.0)`), holds the last point
    /// flat beyond the probed range, and clamps to `[1, threads]` so a
    /// noisy probe can never predict super-linear scaling or a slowdown
    /// below the single-thread baseline.
    pub fn parallel_speedup(&self, threads: usize) -> f64 {
        if threads <= 1 {
            return 1.0;
        }
        if self.parallel_points.is_empty() {
            return threads as f64;
        }
        let t = threads as f64;
        let mut prev = (1.0f64, 1.0f64);
        let mut speedup = None;
        for &(pt, ps) in &self.parallel_points {
            let (pt, ps) = (pt as f64, ps);
            if pt >= t {
                speedup = Some(if pt > prev.0 {
                    prev.1 + (ps - prev.1) * (t - prev.0) / (pt - prev.0)
                } else {
                    ps
                });
                break;
            }
            prev = (pt, ps);
        }
        // Past the probed range: hold the last measured speedup flat.
        speedup.unwrap_or(prev.1).clamp(1.0, t)
    }

    fn rate(&self, dtype: DType) -> f64 {
        match dtype {
            DType::F32 => self.flops_f32,
            DType::F64 => self.flops_f64,
        }
    }

    /// Multiplication flops for one `(m, k, n)` product under `plan`
    /// recursed `steps` deep: `2 · r^s · (m·k·n) / (dm·dk·dn)^s`. Shapes
    /// the rule cannot divide fall back to the classical count (dynamic
    /// peeling executes them near-classically anyway).
    pub fn gemm_flops(plan: &ExecPlan, m: usize, k: usize, n: usize, steps: u32) -> f64 {
        let classical = 2.0 * (m as f64) * (k as f64) * (n as f64);
        let d = plan.dims;
        let (dm, dk, dn) = (d.m as f64, d.k as f64, d.n as f64);
        let s = steps as i32;
        let divisible = |len: usize, by: usize| len.is_multiple_of(by.pow(steps));
        if steps == 0 || !(divisible(m, d.m) && divisible(k, d.k) && divisible(n, d.n)) {
            return classical;
        }
        classical * (plan.rank as f64).powi(s) / (dm * dk * dn).powi(s)
    }

    /// Thread utilization of the task-parallel product loop: `r` leaf
    /// tasks on `T` threads keep `r / (ceil(r/T)·T)` of the machine busy
    /// in the final wave. Sequential strategies use the whole single
    /// thread by definition.
    pub fn utilization(strategy: Strategy, rank: usize, threads: usize) -> f64 {
        if threads <= 1 {
            return 1.0;
        }
        match strategy {
            Strategy::Hybrid | Strategy::Bfs => {
                let waves = rank.div_ceil(threads);
                rank as f64 / (waves * threads) as f64
            }
            Strategy::Seq | Strategy::Dfs => 1.0 / threads as f64,
        }
    }

    /// Predicted wall-clock seconds for executing `plan` on every shape
    /// in `shapes`: compute time at the tier's rate (scaled by thread
    /// count and load-balance utilization) plus modeled memory traffic at
    /// the flat bandwidth.
    #[allow(clippy::too_many_arguments)]
    pub fn predict_seconds(
        &self,
        plan: &ExecPlan,
        shapes: &[(usize, usize, usize)],
        steps: u32,
        strategy: Strategy,
        threads: usize,
        fusion: FusionPolicy,
        dtype: DType,
    ) -> f64 {
        let mut total = 0.0;
        for &(m, k, n) in shapes {
            let flops = Self::gemm_flops(plan, m, k, n, steps);
            let util = Self::utilization(strategy, plan.rank, threads);
            let compute = flops / (self.rate(dtype) * self.parallel_speedup(threads) * util);
            let bytes = modeled_bytes_moved(plan, m, k, n, steps, fusion, dtype.elem_size());
            total += compute + bytes as f64 / self.bytes_per_sec;
        }
        total
    }

    /// Predicted seconds for the classical (exact, non-recursive) tiled
    /// gemm baseline on the same shapes. The classical kernel
    /// parallelizes by output tiles, so utilization is ~1.
    pub fn predict_classical_seconds(
        &self,
        shapes: &[(usize, usize, usize)],
        threads: usize,
        dtype: DType,
    ) -> f64 {
        let mut total = 0.0;
        for &(m, k, n) in shapes {
            let flops = 2.0 * (m as f64) * (k as f64) * (n as f64);
            let bytes = ((m * k + k * n + 2 * m * n) * dtype.elem_size()) as f64;
            total += flops / (self.rate(dtype) * self.parallel_speedup(threads))
                + bytes / self.bytes_per_sec;
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apa_core::catalog;

    #[test]
    fn tier_rates_are_ordered() {
        let scalar = MachineModel::for_tier("scalar");
        let avx2 = MachineModel::for_tier("avx2");
        let avx512 = MachineModel::for_tier("avx512");
        assert!(scalar.flops_f32 < avx2.flops_f32);
        assert!(avx2.flops_f32 < avx512.flops_f32);
        assert!(scalar.flops_f64 < scalar.flops_f32);
    }

    #[test]
    fn strassen_saves_flops_at_depth() {
        let alg = catalog::strassen();
        let plan = ExecPlan::compile(&alg, 0.0);
        let classical = MachineModel::gemm_flops(&plan, 256, 256, 256, 0);
        let one = MachineModel::gemm_flops(&plan, 256, 256, 256, 1);
        let two = MachineModel::gemm_flops(&plan, 256, 256, 256, 2);
        assert_eq!(classical, 2.0 * 256.0f64.powi(3));
        assert!((one / classical - 7.0 / 8.0).abs() < 1e-12);
        assert!((two / classical - 49.0 / 64.0).abs() < 1e-12);
    }

    #[test]
    fn indivisible_shapes_cost_classical_flops() {
        let alg = catalog::strassen();
        let plan = ExecPlan::compile(&alg, 0.0);
        let odd = MachineModel::gemm_flops(&plan, 255, 255, 255, 1);
        assert_eq!(odd, 2.0 * 255.0f64.powi(3));
    }

    #[test]
    fn utilization_models_load_imbalance() {
        // 7 tasks on 4 threads: two waves, 7/8 busy.
        assert!((MachineModel::utilization(Strategy::Hybrid, 7, 4) - 7.0 / 8.0).abs() < 1e-12);
        // 7 tasks on 7 threads: perfectly balanced.
        assert_eq!(MachineModel::utilization(Strategy::Bfs, 7, 7), 1.0);
        // Sequential strategy wastes the other threads.
        assert_eq!(MachineModel::utilization(Strategy::Seq, 7, 4), 0.25);
        assert_eq!(MachineModel::utilization(Strategy::Hybrid, 7, 1), 1.0);
    }

    #[test]
    fn uncalibrated_speedup_is_linear() {
        let model = MachineModel::for_tier("scalar");
        assert_eq!(model.parallel_speedup(1), 1.0);
        assert_eq!(model.parallel_speedup(4), 4.0);
        assert_eq!(model.parallel_speedup(16), 16.0);
    }

    #[test]
    fn calibrated_speedup_interpolates_and_saturates() {
        let model =
            MachineModel::for_tier("scalar").calibrated(20.0e9, &[(2, 1.8), (4, 3.0), (8, 4.0)]);
        assert_eq!(model.bytes_per_sec, 20.0e9);
        assert_eq!(model.parallel_speedup(1), 1.0);
        assert!((model.parallel_speedup(2) - 1.8).abs() < 1e-12);
        // Between probes: linear interpolation (3 threads → midpoint).
        assert!((model.parallel_speedup(3) - 2.4).abs() < 1e-12);
        assert!((model.parallel_speedup(4) - 3.0).abs() < 1e-12);
        // Beyond the probed range: hold flat, never extrapolate upward.
        assert!((model.parallel_speedup(32) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn calibration_rejects_garbage_points() {
        let model = MachineModel::for_tier("scalar")
            .calibrated(f64::NAN, &[(0, 2.0), (4, f64::INFINITY), (2, -1.0)]);
        // Bad bandwidth and bad points are all dropped → linear default.
        assert_eq!(model.bytes_per_sec, 16.0e9);
        assert!(model.parallel_points.is_empty());
        assert_eq!(model.parallel_speedup(8), 8.0);
    }

    #[test]
    fn sublinear_calibration_raises_predicted_seconds() {
        let linear = MachineModel::for_tier("scalar");
        let measured = linear.clone().calibrated(16.0e9, &[(4, 2.0)]);
        let shapes = [(512usize, 512usize, 512usize)];
        let fast = linear.predict_classical_seconds(&shapes, 4, DType::F32);
        let slow = measured.predict_classical_seconds(&shapes, 4, DType::F32);
        assert!(slow > fast, "measured sublinear scaling must cost more");
        // Single-threaded predictions are untouched by calibration points.
        let st_a = linear.predict_classical_seconds(&shapes, 1, DType::F32);
        let st_b = measured.predict_classical_seconds(&shapes, 1, DType::F32);
        assert_eq!(st_a, st_b);
    }

    #[test]
    fn prediction_is_finite_and_monotone_in_shape() {
        let model = MachineModel::detect();
        let alg = catalog::strassen();
        let plan = ExecPlan::compile(&alg, 0.0);
        let small = model.predict_seconds(
            &plan,
            &[(128, 128, 128)],
            1,
            Strategy::Hybrid,
            4,
            FusionPolicy::Auto,
            DType::F32,
        );
        let big = model.predict_seconds(
            &plan,
            &[(512, 512, 512)],
            1,
            Strategy::Hybrid,
            4,
            FusionPolicy::Auto,
            DType::F32,
        );
        assert!(small.is_finite() && small > 0.0);
        assert!(big > small);
    }
}
