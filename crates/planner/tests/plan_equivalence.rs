//! The compiler's equivalence contract (ISSUE 9 satellite):
//!
//! * a [`CompiledPlan`] is *nothing the hand-flagged builder could not
//!   express* — building through `to_matmul()` must be bitwise identical
//!   to spelling the same knobs out on `ApaMatmul` directly, across
//!   catalog rules × shapes × thread counts, and a classical plan must be
//!   bitwise the gemm leaf itself;
//! * the addition-CSE rewrite is pure reassociation — CSE-on output must
//!   stay within the PR-5 fusion-equivalence tolerance of CSE-off (both
//!   share the identical approximation error; only summation order of
//!   the linear combinations differs).

use apa_core::catalog;
use apa_gemm::Par;
use apa_matmul::{ApaMatmul, FusionPolicy, Strategy};
use apa_planner::{CompiledPlan, PlanCompiler, PlanRequest};
use proptest::prelude::*;

fn rand_mat<T: apa_gemm::Scalar>(rows: usize, cols: usize, seed: u64) -> apa_gemm::Mat<T> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
    apa_gemm::Mat::from_fn(rows, cols, |_, _| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        T::from_f64(((state >> 32) as u32 as f64 / (1u64 << 31) as f64) - 1.0)
    })
}

fn assert_bitwise(
    got: &apa_gemm::Mat<f32>,
    want: &apa_gemm::Mat<f32>,
    what: &str,
) -> Result<(), TestCaseError> {
    for i in 0..got.rows() {
        for j in 0..got.cols() {
            prop_assert_eq!(
                got.at(i, j).to_bits(),
                want.at(i, j).to_bits(),
                "{} diverged at ({},{})",
                what,
                i,
                j
            );
        }
    }
    Ok(())
}

const STRATEGIES: [Strategy; 3] = [Strategy::Seq, Strategy::Hybrid, Strategy::Bfs];
const FUSIONS: [FusionPolicy; 2] = [FusionPolicy::Auto, FusionPolicy::Never];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Hand-constructed plans over the full knob space reduce to the
    /// identical hand-flagged configuration, bit for bit.
    #[test]
    fn compiled_plan_matches_hand_flags_bitwise(
        alg_idx in 0usize..6,
        strat_idx in 0usize..3,
        fusion_idx in 0usize..2,
        threads in 1usize..=4,
        cse_bit in 0u8..2,
        fm in 1usize..=3,
        fk in 1usize..=3,
        fn_ in 1usize..=3,
        seed in 1u64..u64::MAX,
    ) {
        let lineup = catalog::paper_lineup();
        let alg = lineup[alg_idx % lineup.len()].clone();
        let strategy = STRATEGIES[strat_idx];
        let fusion = FUSIONS[fusion_idx];
        let cse = cse_bit == 1;
        // One recursion step on shapes the rule divides exactly.
        let (m, k, n) = (alg.dims.m * 2 * fm, alg.dims.k * 2 * fk, alg.dims.n * 2 * fn_);

        let hand = ApaMatmul::new(alg.clone())
            .steps(1)
            .strategy(strategy)
            .threads(threads)
            .fusion(fusion)
            .cse(cse);
        let lambda = hand.current_lambda();

        let plan = CompiledPlan {
            rule: alg.name.clone(),
            steps: 1,
            lambda,
            strategy,
            fusion,
            threads,
            cse,
            predicted_seconds: 0.0,
            predicted_error: 0.0,
            additions_before: 0,
            additions_after: 0,
        };
        let via_plan = plan.to_matmul().unwrap();

        let a = rand_mat::<f32>(m, k, seed);
        let b = rand_mat::<f32>(k, n, seed ^ 0xABCD);
        assert_bitwise(
            &via_plan.multiply(a.as_ref(), b.as_ref()),
            &hand.multiply(a.as_ref(), b.as_ref()),
            &format!("{} s1 t{threads} {strategy:?} {fusion:?} cse={cse}", alg.name),
        )?;
    }

    /// The *compiler's own* output — whatever rule it picks for a random
    /// request — stays bitwise faithful to the escape-hatch path built
    /// from the plan's public fields.
    #[test]
    fn compiler_choice_matches_escape_hatch(
        m in 16usize..=96,
        k in 16usize..=96,
        n in 16usize..=96,
        threads in 1usize..=4,
        seed in 1u64..u64::MAX,
    ) {
        let req = PlanRequest::new(m, k, n).threads(threads);
        let plan = PlanCompiler::new().compile(&req);
        let exec = plan.to_matmul().unwrap();

        let a = rand_mat::<f32>(m, k, seed);
        let b = rand_mat::<f32>(k, n, seed ^ 0x5EED);
        let got = exec.multiply(a.as_ref(), b.as_ref());

        let want = if plan.is_classical() {
            // Depth 0 is one call of the gemm leaf on the plan's lanes.
            let par = if plan.threads > 1 { Par::Threads(plan.threads) } else { Par::Seq };
            let mut c = apa_gemm::Mat::zeros(m, n);
            apa_gemm::gemm(1.0, a.as_ref(), b.as_ref(), 0.0, c.as_mut(), par);
            c
        } else {
            let alg = catalog::by_name(&plan.rule).unwrap();
            ApaMatmul::new(alg)
                .steps(plan.steps)
                .lambda(plan.lambda)
                .strategy(plan.strategy)
                .threads(plan.threads)
                .fusion(plan.fusion)
                .cse(plan.cse)
                .multiply(a.as_ref(), b.as_ref())
        };
        assert_bitwise(&got, &want, &format!("compiled {} for {m}x{k}x{n}", plan.rule))?;
    }

    /// CSE-on vs CSE-off: same λ, same rule, same inputs — the rewrite
    /// only reassociates combination additions, so its error against the
    /// exact product stays within a small factor of the unrewritten
    /// plan's (the PR-5 fusion-equivalence tolerance shape: relative
    /// budget plus an absolute floor).
    #[test]
    fn cse_stays_within_fusion_equivalence_tolerance(
        alg_idx in 0usize..6,
        strat_idx in 0usize..3,
        fm in 1usize..=2,
        seed in 1u64..u64::MAX,
    ) {
        let lineup = catalog::paper_lineup();
        let alg = lineup[alg_idx % lineup.len()].clone();
        let strategy = STRATEGIES[strat_idx];
        let (m, k, n) = (alg.dims.m * 2 * fm, alg.dims.k * 2 * fm, alg.dims.n * 2 * fm);

        let a = rand_mat::<f64>(m, k, seed);
        let b = rand_mat::<f64>(k, n, seed ^ 0xC5E);
        let exact = ApaMatmul::classical().multiply(a.as_ref(), b.as_ref());

        let off = ApaMatmul::new(alg.clone()).strategy(strategy).cse(false);
        let on = off.clone().cse(true);

        let err = |got: &apa_gemm::Mat<f64>| -> f64 {
            let mut worst = 0.0f64;
            for i in 0..m {
                for j in 0..n {
                    worst = worst.max((got.at(i, j) - exact.at(i, j)).abs());
                }
            }
            worst
        };
        let err_off = err(&off.multiply(a.as_ref(), b.as_ref()));
        let err_on = err(&on.multiply(a.as_ref(), b.as_ref()));
        prop_assert!(
            err_on <= err_off.max(1e-13) * 4.0 + 1e-13,
            "{}: cse error {err_on:e} vs baseline {err_off:e}",
            alg.name
        );
    }
}
