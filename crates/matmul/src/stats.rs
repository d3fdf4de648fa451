//! Instrumented execution: measure where a one-step APA multiplication
//! actually spends its time — multiplications (compute-bound gemm) vs
//! linear combinations (bandwidth-bound adds).
//!
//! This quantifies the paper's central performance claim (§3.2/§3.4): "the
//! overhead of additions is the biggest impediment to realizing the
//! [ideal] speedup", and lets the ablation harness print a measured
//! mult/add split next to the `apa-core::analysis` model's prediction.
//!
//! The profile also reports the engine's *execution* facts: which strategy
//! actually ran after [`effective_strategy`] coercion and how many bytes of
//! intermediate buffers the run allocated ([`ExecProfile::alloc_bytes`]).

use crate::plan::{Combo, ExecPlan};
use crate::schedule::{effective_strategy, FusionPolicy, Strategy};
use crate::workspace::{build_level, combo_pack_fusable, LevelWs};
use apa_gemm::{combine, gemm_combined_st, Mat, MatRef, Scalar};
use std::time::Instant;

/// Timing and traffic breakdown of one instrumented execution.
#[derive(Clone, Debug, Default)]
pub struct ExecProfile {
    /// Seconds inside gemm (the r sub-multiplications).
    pub mult_seconds: f64,
    /// Seconds forming operand combinations and outputs.
    pub add_seconds: f64,
    /// Number of gemm leaf calls (= rank for one step).
    pub gemm_calls: usize,
    /// Elements read+written by the combination kernels.
    pub add_elems: usize,
    /// Flops performed by the multiplications (2·bm·bk·bn each).
    pub mult_flops: f64,
    /// Strategy the caller asked for (None before any run).
    pub requested_strategy: Option<Strategy>,
    /// Strategy that actually executed after edge-case coercion
    /// ([`effective_strategy`]); differs from `requested_strategy` e.g.
    /// for Hybrid with more threads than products.
    pub effective_strategy: Option<Strategy>,
    /// Thread count that actually executed.
    pub effective_threads: usize,
    /// Heap bytes allocated for intermediate buffers (products and
    /// combination scratch) during this run.
    pub alloc_bytes: u64,
    /// Multi-term operand combinations folded into the gemm pack sweep
    /// instead of being materialized into an `S`/`T` buffer.
    pub fused_packs: usize,
    /// Estimated intermediate-buffer traffic (bytes read + written) of the
    /// framework's additions under the executed fusion policy: operand
    /// reads during packing/combination, `S`/`T`/`M` buffer round-trips
    /// and the output pass. A model, not a hardware counter — use it to
    /// compare fusion policies on the same shape, where the gemm-side
    /// traffic cancels out.
    pub est_bytes_moved: u64,
}

impl ExecProfile {
    /// Fraction of measured time spent in additions.
    pub fn add_fraction(&self) -> f64 {
        let total = self.mult_seconds + self.add_seconds;
        if total == 0.0 {
            0.0
        } else {
            self.add_seconds / total
        }
    }
}

/// Aggregate counters of the numerical-health sentinel and the
/// degradation ladder (see [`crate::fallback::GuardedApaMatmul`]): how
/// often products were probed, what the probes found, and every
/// demotion/promotion transition the policy took. Snapshot via
/// [`crate::fallback::GuardedApaMatmul::health`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HealthStats {
    /// Guarded multiplications served.
    pub calls: u64,
    /// Freivalds residual probes executed (sampled calls plus every
    /// post-demotion re-check).
    pub probes: u64,
    /// Probes whose residual exceeded the error-model budget.
    pub probe_failures: u64,
    /// Standalone non-finite scans (calls where the probe was skipped).
    pub nonfinite_scans: u64,
    /// Checks (fused or standalone) that found NaN/Inf in the product.
    pub nonfinite_detected: u64,
    /// Ladder transitions to a lower rung.
    pub demotions: u64,
    /// Hysteresis re-promotions after a clean streak.
    pub promotions: u64,
    /// Rung executions that died with a panicked worker lane (each also
    /// demotes, and the gemm pool is rebuilt).
    pub worker_panics: u64,
    /// Rung executions killed by the watchdog deadline (each also
    /// demotes).
    pub watchdog_timeouts: u64,
    /// Calls whose starting rung was forced *up* the ladder (toward the
    /// fast configured multiplier) by a serving-layer
    /// [`crate::fallback::QualityOverride`] — load-shedding brownout
    /// traded quality for throughput on these. Not persisted in training
    /// checkpoints (brownout is a serving-time, not training-time, mode).
    pub brownout_capped_calls: u64,
    /// ABFT block-level checksum verifications run inside the gemm
    /// leaves (the always-on tier below the Freivalds probe; see
    /// [`crate::sentinel::AbftMode`]).
    pub abft_checks: u64,
    /// ABFT regions flagged by a checksum violation (localized silent
    /// data corruption).
    pub abft_detected: u64,
    /// Flagged regions surgically recomputed in place and re-verified
    /// clean — the call completed with no demotion and no client-visible
    /// corruption.
    pub abft_repaired: u64,
    /// ABFT escalations to the rung ladder: a repair failed its
    /// re-verification, or a lane repeated offenses — handled by the
    /// existing demotion machinery.
    pub abft_escalations: u64,
    /// Calls whose *final* (accepted) execution ran on each rung,
    /// indexed like [`crate::fallback::GuardedApaMatmul::rungs`].
    pub calls_by_rung: Vec<u64>,
}

impl HealthStats {
    /// Calls that ended on a rung below the primary configuration.
    pub fn degraded_calls(&self) -> u64 {
        self.calls_by_rung.iter().skip(1).sum()
    }

    /// Accumulate another guard's counters into this snapshot — the
    /// serving layer merges the health of every model replica into one
    /// service-level view this way.
    pub fn merge(&mut self, other: &HealthStats) {
        self.calls += other.calls;
        self.probes += other.probes;
        self.probe_failures += other.probe_failures;
        self.nonfinite_scans += other.nonfinite_scans;
        self.nonfinite_detected += other.nonfinite_detected;
        self.demotions += other.demotions;
        self.promotions += other.promotions;
        self.worker_panics += other.worker_panics;
        self.watchdog_timeouts += other.watchdog_timeouts;
        self.brownout_capped_calls += other.brownout_capped_calls;
        self.abft_checks += other.abft_checks;
        self.abft_detected += other.abft_detected;
        self.abft_repaired += other.abft_repaired;
        self.abft_escalations += other.abft_escalations;
        if self.calls_by_rung.len() < other.calls_by_rung.len() {
            self.calls_by_rung.resize(other.calls_by_rung.len(), 0);
        }
        for (mine, theirs) in self.calls_by_rung.iter_mut().zip(&other.calls_by_rung) {
            *mine += theirs;
        }
    }
}

/// Sequential, instrumented one-step execution. Dimensions must divide the
/// plan's base dims. Returns the product and the profile. Buffers are
/// allocated for this call.
pub fn profile_one_step<T: Scalar>(
    plan: &ExecPlan,
    a: MatRef<'_, T>,
    b: MatRef<'_, T>,
    fusion: FusionPolicy,
) -> (Mat<T>, ExecProfile) {
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    check_dims(plan, m, k, n, b.rows());
    let mut level = build_level(&[plan], m, k, n, Strategy::Seq, 1, fusion);
    let mut profile = base_profile();
    profile.alloc_bytes = (level.elems() * std::mem::size_of::<T>()) as u64;
    let c = instrumented_one_step(plan, a, b, &mut level, &mut profile);
    (c, profile)
}

fn base_profile() -> ExecProfile {
    let (eff, eff_threads) = effective_strategy(Strategy::Seq, 1, usize::MAX);
    ExecProfile {
        requested_strategy: Some(Strategy::Seq),
        effective_strategy: Some(eff),
        effective_threads: eff_threads,
        ..ExecProfile::default()
    }
}

fn check_dims(plan: &ExecPlan, m: usize, k: usize, n: usize, b_rows: usize) {
    let d = plan.dims;
    assert_eq!(k, b_rows);
    assert!(
        m.is_multiple_of(d.m) && k.is_multiple_of(d.k) && n.is_multiple_of(d.n),
        "profile_one_step requires divisible dims"
    );
}

fn instrumented_one_step<T: Scalar>(
    plan: &ExecPlan,
    a: MatRef<'_, T>,
    b: MatRef<'_, T>,
    level: &mut LevelWs<T>,
    profile: &mut ExecProfile,
) -> Mat<T> {
    let d = plan.dims;
    let (m, n) = (a.rows(), b.cols());
    let (bm, bk, bn) = (a.rows() / d.m, a.cols() / d.k, b.cols() / d.n);
    let elem = std::mem::size_of::<T>();
    let LevelWs {
        products,
        lanes,
        policy,
        a_temps,
        b_temps,
        w_temps,
    } = level;
    let policy = *policy;
    debug_assert_eq!(products.len(), plan.rank);
    let lane = &mut lanes[0];

    // CSE temps materialize first (timed as additions), then join the
    // block lists as virtual sources past the grid.
    let t_temps = Instant::now();
    {
        let grid = a.grid(d.m, d.k);
        instrument_temps(&plan.a_temps, &grid, a_temps, profile);
        let grid = b.grid(d.k, d.n);
        instrument_temps(&plan.b_temps, &grid, b_temps, profile);
    }
    profile.add_seconds += t_temps.elapsed().as_secs_f64();
    let mut a_blocks = a.grid(d.m, d.k);
    a_blocks.extend(a_temps.iter().map(|t| t.as_ref()));
    let mut b_blocks = b.grid(d.k, d.n);
    b_blocks.extend(b_temps.iter().map(|t| t.as_ref()));

    let mut c = Mat::zeros(m, n);
    for (t, product) in products.iter_mut().enumerate() {
        // Operand staging (timed as additions): singletons are used in
        // place, fusable multi-term combinations become pack-sweep term
        // lists, the rest materialize into S/T scratch.
        let t0 = Instant::now();
        let (a_terms, alpha_a) = stage(
            &plan.a_combos[t],
            &a_blocks,
            &mut lane.s_buf,
            policy,
            profile,
        );
        let (b_terms, alpha_b) = stage(
            &plan.b_combos[t],
            &b_blocks,
            &mut lane.t_buf,
            policy,
            profile,
        );
        profile.add_seconds += t0.elapsed().as_secs_f64();

        // The product lands in its own M_t buffer.
        profile.est_bytes_moved += (bm * bn * elem) as u64;
        let t1 = Instant::now();
        gemm_combined_st(
            T::from_f64(alpha_a * alpha_b),
            &a_terms,
            &b_terms,
            T::ZERO,
            product.as_mut(),
        );
        profile.mult_seconds += t1.elapsed().as_secs_f64();
        profile.gemm_calls += 1;
        profile.mult_flops += 2.0 * bm as f64 * bk as f64 * bn as f64;
    }

    // Output combinations, one per C block.
    let t2 = Instant::now();
    {
        // W-side CSE temps form from the products before the output pass
        // resolves them like virtual products (index `rank + i`).
        let product_refs: Vec<MatRef<'_, T>> = products.iter().map(|p| p.as_ref()).collect();
        instrument_temps(&plan.w_temps, &product_refs, w_temps, profile);
        let r = plan.rank;
        let c_blocks = c.as_mut().into_grid(d.m, d.n);
        for (block, mut dst) in c_blocks.into_iter().enumerate() {
            let terms: Vec<(T, MatRef<'_, T>)> = plan.c_outputs[block]
                .iter()
                .map(|&(t, coeff)| {
                    let src = if t < r {
                        products[t].as_ref()
                    } else {
                        w_temps[t - r].as_ref()
                    };
                    (T::from_f64(coeff), src)
                })
                .collect();
            profile.add_elems += (terms.len() + 1) * bm * bn;
            profile.est_bytes_moved += ((terms.len() + 1) * bm * bn * elem) as u64;
            combine(dst.rb(), false, &terms);
        }
    }
    profile.add_seconds += t2.elapsed().as_secs_f64();
    c
}

/// Materialize one side's CSE temps for the instrumented path, charging
/// each as a combination: `(L + 1)·elems` moved per temp (L source reads
/// plus the write). Temp `i` may reference earlier temps via indices past
/// `sources.len()`.
fn instrument_temps<T: Scalar>(
    spec: &[Vec<(usize, f64)>],
    sources: &[MatRef<'_, T>],
    bufs: &mut [Mat<T>],
    profile: &mut ExecProfile,
) {
    let elem = std::mem::size_of::<T>();
    let base = sources.len();
    for (i, terms) in spec.iter().enumerate() {
        let (done, rest) = bufs.split_at_mut(i);
        let views: Vec<(T, MatRef<'_, T>)> = terms
            .iter()
            .map(|&(idx, coeff)| {
                let v = if idx < base {
                    sources[idx]
                } else {
                    done[idx - base].as_ref()
                };
                (T::from_f64(coeff), v)
            })
            .collect();
        let dst = rest[0].as_mut();
        let elems = dst.rows() * dst.cols();
        profile.add_elems += (views.len() + 1) * elems;
        profile.est_bytes_moved += ((views.len() + 1) * elems * elem) as u64;
        combine(dst, false, &views);
    }
}

/// Analytic mirror of [`ExecProfile::est_bytes_moved`] for a uniform
/// `steps`-deep execution of `plan` on an `m×k·k×n` product — the traffic
/// the framework's additions and buffer round-trips would generate under
/// the given fusion policy, *without running anything*. The `apa-planner` cost
/// model ranks candidate plans by `flops/rate + modeled_bytes/bandwidth`.
///
/// Accounting (per level, mirroring the instrumented path):
/// * operand combination: a singleton reads its block once; a pack-fused
///   multi-term list reads `L` blocks; a materialized combination reads
///   `L` blocks and round-trips the scratch buffer (`L + 2`);
/// * CSE temps: `L + 1` (reads plus one write) each;
/// * products: one write each;
/// * outputs: `L + 1` per block with `L` contributors;
/// * a non-divisible or exhausted level is a classical gemm reading both
///   operands and writing `C`.
pub fn modeled_bytes_moved(
    plan: &ExecPlan,
    m: usize,
    k: usize,
    n: usize,
    steps: u32,
    fusion: FusionPolicy,
    elem_size: usize,
) -> u64 {
    let es = elem_size as u64;
    if steps == 0 || !crate::exec::divisible(plan, m, k, n) {
        return ((m * k + k * n + m * n) as u64) * es;
    }
    let d = plan.dims;
    let (bm, bk, bn) = (m / d.m, k / d.k, n / d.n);
    let recursive = steps > 1 && crate::exec::divisible(plan, bm, bk, bn);

    let temp_bytes = |spec: &[Vec<(usize, f64)>], elems: usize| -> u64 {
        spec.iter()
            .map(|t| ((t.len() + 1) * elems) as u64 * es)
            .sum()
    };
    let side_bytes = |combos: &[Combo], elems: usize| -> u64 {
        combos
            .iter()
            .map(|c| {
                let blocks = match c {
                    Combo::Single { .. } => 1,
                    Combo::Multi(v) if !recursive && combo_pack_fusable(c, fusion) => v.len(),
                    Combo::Multi(v) => v.len() + 2,
                };
                (blocks * elems) as u64 * es
            })
            .sum()
    };

    let mut bytes = temp_bytes(&plan.a_temps, bm * bk)
        + temp_bytes(&plan.b_temps, bk * bn)
        + temp_bytes(&plan.w_temps, bm * bn)
        + side_bytes(&plan.a_combos, bm * bk)
        + side_bytes(&plan.b_combos, bk * bn);

    // Each product writes its M_t buffer once; each output block reads
    // its L contributors and writes once.
    let block_elems = (bm * bn) as u64 * es;
    bytes += plan.rank as u64 * block_elems;
    for contrib in &plan.c_outputs {
        bytes += (contrib.len() + 1) as u64 * block_elems;
    }

    if recursive {
        bytes +=
            plan.rank as u64 * modeled_bytes_moved(plan, bm, bk, bn, steps - 1, fusion, elem_size);
    }
    bytes
}

/// Stage one operand combination for the instrumented gemm call. Returns
/// the term list plus the scalar to fold into gemm's α: singletons are
/// used in place with their coefficient as α, pack-fusable multi-term
/// lists pass every `(coeff, block)` through for the sweep to combine in
/// flight, and everything else is materialized into `buf` by the combine
/// kernel (timing charged by the caller, traffic recorded here).
fn stage<'v, T: Scalar>(
    combo: &Combo,
    blocks: &[MatRef<'v, T>],
    buf: &'v mut Mat<T>,
    policy: FusionPolicy,
    profile: &mut ExecProfile,
) -> (Vec<(T, MatRef<'v, T>)>, f64) {
    let elem = std::mem::size_of::<T>();
    match combo {
        Combo::Single { block, coeff } => {
            let v = blocks[*block];
            profile.est_bytes_moved += (v.rows() * v.cols() * elem) as u64;
            (vec![(T::ONE, v)], *coeff)
        }
        Combo::Multi(terms) => {
            let b0 = blocks[terms[0].0];
            let elems = b0.rows() * b0.cols();
            let views: Vec<(T, MatRef<'_, T>)> = terms
                .iter()
                .map(|&(b, c)| (T::from_f64(c), blocks[b]))
                .collect();
            if combo_pack_fusable(combo, policy) {
                profile.fused_packs += 1;
                profile.est_bytes_moved += (terms.len() * elems * elem) as u64;
                (views, 1.0)
            } else {
                profile.add_elems += (views.len() + 1) * elems;
                profile.est_bytes_moved += ((terms.len() + 2) * elems * elem) as u64;
                combine(buf.as_mut(), false, &views);
                (vec![(T::ONE, buf.as_ref())], 1.0)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apa_core::catalog;
    use apa_gemm::matmul_naive;

    fn probe(n: usize, seed: u64) -> Mat<f64> {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        Mat::from_fn(n, n, |_, _| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 32) as u32 as f64 / (1u64 << 31) as f64) - 1.0
        })
    }

    #[test]
    fn profiled_result_is_correct() {
        let plan = ExecPlan::compile(&catalog::strassen(), 0.0);
        let a = probe(64, 1);
        let b = probe(64, 2);
        let (c, profile) = profile_one_step(&plan, a.as_ref(), b.as_ref(), FusionPolicy::Never);
        let expect = matmul_naive(a.as_ref(), b.as_ref());
        assert!(c.rel_frobenius_error(&expect) < 1e-12);
        assert_eq!(profile.gemm_calls, 7);
        assert_eq!(profile.fused_packs, 0);
        assert!(profile.est_bytes_moved > 0);
        assert!(profile.mult_seconds > 0.0);
        assert!(profile.add_seconds > 0.0);
        // 7 products of 32³ blocks.
        assert!((profile.mult_flops - 7.0 * 2.0 * 32.0f64.powi(3)).abs() < 1.0);
        // 7 products + S/T scratch, all 32×32 f64, allocated by this call.
        assert_eq!(profile.alloc_bytes, 9 * 32 * 32 * 8);
        assert_eq!(profile.requested_strategy, Some(Strategy::Seq));
        assert_eq!(profile.effective_strategy, Some(Strategy::Seq));
        assert_eq!(profile.effective_threads, 1);
    }

    #[test]
    fn add_fraction_is_sane() {
        let plan = ExecPlan::compile(&catalog::fast444(), 0.0);
        let a = probe(256, 3);
        let b = probe(256, 4);
        let (_, profile) = profile_one_step(&plan, a.as_ref(), b.as_ref(), FusionPolicy::Never);
        let f = profile.add_fraction();
        assert!(f > 0.0 && f < 1.0, "add fraction {f}");
        assert_eq!(profile.gemm_calls, 49);
    }

    #[test]
    fn denser_rule_moves_more_add_elems() {
        // winograd's bilinear form is denser than strassen's.
        let s = ExecPlan::compile(&catalog::strassen(), 0.0);
        let w = ExecPlan::compile(&catalog::winograd(), 0.0);
        let a = probe(32, 5);
        let b = probe(32, 6);
        let (_, ps) = profile_one_step(&s, a.as_ref(), b.as_ref(), FusionPolicy::Never);
        let (_, pw) = profile_one_step(&w, a.as_ref(), b.as_ref(), FusionPolicy::Never);
        assert!(pw.add_elems > ps.add_elems);
    }

    #[test]
    fn pack_fusion_drops_scratch_and_traffic() {
        let plan = ExecPlan::compile(&catalog::strassen(), 0.0);
        let a = probe(64, 9);
        let b = probe(64, 10);
        let (c_never, never) = profile_one_step(&plan, a.as_ref(), b.as_ref(), FusionPolicy::Never);
        let (c_auto, auto) = profile_one_step(&plan, a.as_ref(), b.as_ref(), FusionPolicy::Auto);
        // Pack fusion is bitwise identical to the materialized path.
        for i in 0..64 {
            for j in 0..64 {
                assert_eq!(c_never.at(i, j).to_bits(), c_auto.at(i, j).to_bits());
            }
        }
        // Strassen: 5 of 7 A-combos and 5 of 7 B-combos are multi-term and
        // all fit the inline stage.
        assert_eq!(auto.fused_packs, 10);
        assert_eq!(never.fused_packs, 0);
        // S/T scratch gone: 7 products of 32×32 f64, nothing else.
        assert_eq!(auto.alloc_bytes, 7 * 32 * 32 * 8);
        assert!(never.alloc_bytes > auto.alloc_bytes);
        // Each fused combo saves an S/T write plus its gemm-side read-back.
        assert!(auto.est_bytes_moved < never.est_bytes_moved);
        assert!(auto.add_elems < never.add_elems);
    }

    #[test]
    fn classical_rule_materializes_every_product() {
        let plan = ExecPlan::compile(&catalog::classical(apa_core::Dims::new(2, 2, 2)), 0.0);
        let a = probe(32, 11);
        let b = probe(32, 12);
        let (c, profile) = profile_one_step(&plan, a.as_ref(), b.as_ref(), FusionPolicy::Auto);
        let expect = matmul_naive(a.as_ref(), b.as_ref());
        assert!(c.rel_frobenius_error(&expect) < 1e-12);
        // Singleton combos: nothing to pack-fuse, no S/T scratch. All 8
        // products land in 16×16 M_t buffers, and each C block sums two.
        assert_eq!(profile.gemm_calls, 8);
        assert_eq!(profile.fused_packs, 0);
        assert_eq!(profile.alloc_bytes, 8 * 16 * 16 * 8);
        assert_eq!(profile.add_elems, 4 * 3 * 16 * 16);
    }

    #[test]
    #[should_panic(expected = "divisible")]
    fn indivisible_dims_rejected() {
        let plan = ExecPlan::compile(&catalog::strassen(), 0.0);
        let a = probe(9, 7);
        let b = probe(9, 8);
        let _ = profile_one_step(&plan, a.as_ref(), b.as_ref(), FusionPolicy::Auto);
    }
}
