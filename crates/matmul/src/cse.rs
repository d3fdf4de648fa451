//! Addition-minimizing common-subexpression elimination over a compiled
//! plan's U/V/W combination trees.
//!
//! The paper's §3.2/§3.4 point — and the 60-addition rank-23 schemes of
//! later work — is that the framework's *additions* are the biggest
//! impediment to realizing the ideal speedup. The catalog's coefficient
//! triples are written for readability, not for addition count: the same
//! two-term subexpression (`A11 + A22`, `M1 − M5`, …) frequently feeds
//! several combinations. This pass rewrites each repeated pair into a
//! shared temporary that the engine materializes **once** per call, then
//! reuses by reference.
//!
//! The rewrite is *greedy pairwise extraction* (the classical CSE scheme
//! for linear combination sets): repeatedly find the exact `(i, cᵢ)(j, cⱼ)`
//! pair — up to a global sign flip — occurring in the most term lists,
//! hoist it into a temp, substitute `(temp, ±1)`, and stop when no pair
//! repeats. Because substitution uses coefficient ±1 and the temp is
//! formed with the original coefficients, no new multiplications (and no
//! new roundings beyond re-association of the addition order) are
//! introduced: CSE-on matches CSE-off up to the re-association of each
//! combination's sum — and a plan with no temps executes the bit-exact
//! legacy path.
//!
//! Pair counting and tie-breaking run over ordered maps, so the rewrite
//! is deterministic: the same plan always compiles to the same temps (the
//! planner's cold-vs-warm determinism gate relies on this).

use crate::plan::{Combo, ExecPlan};
use std::collections::BTreeMap;

/// What one [`apply`] run did to a plan.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CseReport {
    /// Per-element additions implied by the combination trees before the
    /// rewrite (`Σ (len − 1)` over every multi-term list).
    pub additions_before: usize,
    /// Additions after the rewrite, *including* the cost of forming every
    /// temp (one addition each).
    pub additions_after: usize,
    /// Temps introduced on each side.
    pub a_temps: usize,
    pub b_temps: usize,
    pub w_temps: usize,
}

impl CseReport {
    /// Net additions eliminated per block-element of work.
    pub fn additions_saved(&self) -> usize {
        self.additions_before.saturating_sub(self.additions_after)
    }

    pub fn temps(&self) -> usize {
        self.a_temps + self.b_temps + self.w_temps
    }
}

/// `Σ (len − 1)` — per-element additions to evaluate `lists`.
fn additions(lists: &[Vec<(usize, f64)>]) -> usize {
    lists.iter().map(|l| l.len().saturating_sub(1)).sum()
}

/// Canonical key for the pair `(i, ci), (j, cj)`: index-ordered, sign
/// normalized so that `x − y` and `y − x` (and `−x − y` vs `x + y`) hash
/// to one temp. Returns the key and the sign the occurrence carries.
fn pair_key(a: (usize, f64), b: (usize, f64)) -> ((usize, u64, usize, u64), f64) {
    let ((i, ci), (j, cj)) = if a.0 < b.0 { (a, b) } else { (b, a) };
    let sign = if ci < 0.0 { -1.0 } else { 1.0 };
    ((i, (sign * ci).to_bits(), j, (sign * cj).to_bits()), sign)
}

/// Greedy pairwise extraction over one side's term lists. `base` is the
/// side's source index space (grid size for U/V, rank for W); temps get
/// virtual indices `base + ordinal`. Lists shorter than two terms never
/// participate. Returns the temps in materialization order (each may
/// reference earlier temps).
fn eliminate(lists: &mut [&mut Vec<(usize, f64)>], base: usize) -> Vec<Vec<(usize, f64)>> {
    let mut temps: Vec<Vec<(usize, f64)>> = Vec::new();
    loop {
        // Count canonical pairs across all lists (BTreeMap: deterministic
        // iteration for the tie-break below).
        let mut counts: BTreeMap<(usize, u64, usize, u64), usize> = BTreeMap::new();
        for list in lists.iter() {
            for x in 0..list.len() {
                for y in x + 1..list.len() {
                    let (key, _) = pair_key(list[x], list[y]);
                    *counts.entry(key).or_insert(0) += 1;
                }
            }
        }
        // Most frequent pair; ties broken by smallest key (deterministic).
        let Some((&key, &best)) = counts
            .iter()
            .max_by(|(ka, ca), (kb, cb)| ca.cmp(cb).then_with(|| kb.cmp(ka)))
        else {
            return temps;
        };
        if best < 2 {
            return temps;
        }
        let (i, ci_bits, j, cj_bits) = key;
        let (ci, cj) = (f64::from_bits(ci_bits), f64::from_bits(cj_bits));
        let temp_idx = base + temps.len();
        temps.push(vec![(i, ci), (j, cj)]);
        // Substitute the pair (with its occurrence sign) in every list.
        for list in lists.iter_mut() {
            let pos =
                |want: usize, list: &[(usize, f64)]| list.iter().position(|&(b, _)| b == want);
            let (Some(pi), Some(pj)) = (pos(i, list), pos(j, list)) else {
                continue;
            };
            let (_, sign) = pair_key(list[pi], list[pj]);
            let matches =
                (list[pi].1 - sign * ci).abs() == 0.0 && (list[pj].1 - sign * cj).abs() == 0.0;
            if !matches {
                continue;
            }
            // Remove the higher position first so indices stay valid.
            let (lo, hi) = (pi.min(pj), pi.max(pj));
            list.remove(hi);
            list.remove(lo);
            list.push((temp_idx, sign));
        }
    }
}

/// Rewrite the plan's multi-term A-combos in place, returning the temps.
fn eliminate_combos(combos: &mut [Combo], base: usize) -> Vec<Vec<(usize, f64)>> {
    let mut lists: Vec<&mut Vec<(usize, f64)>> = combos
        .iter_mut()
        .filter_map(|c| match c {
            Combo::Multi(v) => Some(v),
            Combo::Single { .. } => None,
        })
        .collect();
    let temps = eliminate(&mut lists, base);
    // A fully collapsed list is a singleton again — restore the marked
    // form so the executor keeps folding its coefficient into gemm's α.
    for combo in combos.iter_mut() {
        if let Combo::Multi(v) = combo {
            if v.len() == 1 {
                *combo = Combo::Single {
                    block: v[0].0,
                    coeff: v[0].1,
                };
            }
        }
    }
    temps
}

/// Total additions implied by a plan (U + V + W sides, temps included).
pub fn plan_additions(plan: &ExecPlan) -> usize {
    let combo_adds = |combos: &[Combo]| -> usize {
        combos
            .iter()
            .map(|c| match c {
                Combo::Single { .. } => 0,
                Combo::Multi(v) => v.len().saturating_sub(1),
            })
            .sum()
    };
    combo_adds(&plan.a_combos)
        + combo_adds(&plan.b_combos)
        + additions(&plan.c_outputs)
        + additions(&plan.a_temps)
        + additions(&plan.b_temps)
        + additions(&plan.w_temps)
}

/// Run the CSE pass on `plan` in place. Idempotent on its own output in
/// the sense that a second run finds no repeated pair. Plans that already
/// carry temps are rejected (the pass is a one-shot rewrite of a freshly
/// compiled plan).
pub fn apply(plan: &mut ExecPlan) -> CseReport {
    assert!(
        !plan.has_temps(),
        "cse::apply expects a freshly compiled plan"
    );
    let before = plan_additions(plan);
    let d = plan.dims;

    plan.a_temps = eliminate_combos(&mut plan.a_combos, d.m * d.k);
    plan.b_temps = eliminate_combos(&mut plan.b_combos, d.k * d.n);
    {
        let mut lists: Vec<&mut Vec<(usize, f64)>> = plan.c_outputs.iter_mut().collect();
        plan.w_temps = eliminate(&mut lists, plan.rank);
    }

    CseReport {
        additions_before: before,
        additions_after: plan_additions(plan),
        a_temps: plan.a_temps.len(),
        b_temps: plan.b_temps.len(),
        w_temps: plan.w_temps.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::peel::{multiply_cold, PeelMode};
    use crate::schedule::{FusionPolicy, Strategy};
    use crate::workspace::ExecConfig;
    use apa_core::catalog;
    use apa_gemm::{matmul_naive, Mat};

    fn rand_mat(rows: usize, cols: usize, seed: u64) -> Mat<f64> {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        Mat::from_fn(rows, cols, |_, _| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 32) as u32 as f64 / (1u64 << 31) as f64) - 1.0
        })
    }

    fn compiled(name: &str) -> ExecPlan {
        let alg = catalog::by_name(name).unwrap();
        let lambda = if alg.is_exact_rule() {
            0.0
        } else {
            2.0_f64.powi(-26)
        };
        ExecPlan::compile(&alg, lambda)
    }

    #[test]
    fn never_increases_additions() {
        for alg in catalog::paper_lineup() {
            let mut plan = compiled(&alg.name);
            let report = apply(&mut plan);
            assert!(
                report.additions_after <= report.additions_before,
                "{}: {} -> {}",
                alg.name,
                report.additions_before,
                report.additions_after
            );
        }
    }

    #[test]
    fn finds_savings_on_dense_rules() {
        // The larger rules repeat plenty of two-term subexpressions; the
        // pass must recover a strictly positive saving on at least the
        // rank-49 rule (Stapleton-style addition reduction).
        let mut plan = compiled("fast444");
        let report = apply(&mut plan);
        assert!(
            report.additions_saved() > 0,
            "fast444 saved nothing: {report:?}"
        );
        assert!(report.temps() > 0);
        assert!(plan.has_temps());
    }

    #[test]
    fn deterministic_across_runs() {
        let mut p1 = compiled("fast444");
        let mut p2 = compiled("fast444");
        let r1 = apply(&mut p1);
        let r2 = apply(&mut p2);
        assert_eq!(r1, r2);
        assert_eq!(p1.a_temps, p2.a_temps);
        assert_eq!(p1.b_temps, p2.b_temps);
        assert_eq!(p1.w_temps, p2.w_temps);
        assert_eq!(p1.a_combos, p2.a_combos);
    }

    #[test]
    fn rewritten_plan_multiplies_correctly_across_catalog() {
        for alg in catalog::paper_lineup() {
            let plan = compiled(&alg.name);
            let mut cse_plan = plan.clone();
            apply(&mut cse_plan);
            let d = alg.dims;
            let (m, k, n) = (d.m * 4, d.k * 4, d.n * 4);
            let a = rand_mat(m, k, 3);
            let b = rand_mat(k, n, 4);
            let expect = matmul_naive(a.as_ref(), b.as_ref());
            for strategy in [Strategy::Seq, Strategy::Hybrid, Strategy::Bfs] {
                for fusion in [FusionPolicy::Auto, FusionPolicy::Never] {
                    let config = ExecConfig {
                        strategy,
                        threads: 3,
                        peel: PeelMode::Dynamic,
                        fusion,
                    };
                    let got = multiply_cold(&[&cse_plan], a.as_ref(), b.as_ref(), config);
                    let base = multiply_cold(&[&plan], a.as_ref(), b.as_ref(), config);
                    let err = got.rel_frobenius_error(&expect);
                    let base_err = base.rel_frobenius_error(&expect);
                    // CSE only re-associates additions: its error vs the
                    // reference stays within a few ulps of the unmodified
                    // plan's.
                    assert!(
                        err < base_err.max(1e-13) * 4.0 + 1e-13,
                        "{} ({strategy:?}, {fusion:?}): cse err {err}, base {base_err}",
                        alg.name
                    );
                }
            }
        }
    }

    #[test]
    fn rewritten_plan_recurses() {
        let mut plan = compiled("strassen");
        apply(&mut plan);
        let a = rand_mat(32, 32, 9);
        let b = rand_mat(32, 32, 10);
        let config = ExecConfig {
            strategy: Strategy::Seq,
            threads: 1,
            peel: PeelMode::Dynamic,
            fusion: FusionPolicy::Auto,
        };
        let got = multiply_cold(&[&plan; 2], a.as_ref(), b.as_ref(), config);
        let expect = matmul_naive(a.as_ref(), b.as_ref());
        assert!(got.rel_frobenius_error(&expect) < 1e-12);
    }

    #[test]
    fn pair_key_sign_normalizes() {
        // x − y and y − x are the same temp with opposite signs.
        let (k1, s1) = pair_key((0, 1.0), (3, -1.0));
        let (k2, s2) = pair_key((3, 1.0), (0, -1.0));
        assert_eq!(k1, k2);
        assert_eq!(s1, 1.0);
        assert_eq!(s2, -1.0);
    }

    #[test]
    fn hierarchical_extraction_reuses_temps() {
        // Three lists sharing (0+1) and two of them sharing (0+1)+2:
        // the second round extracts a pair over the first temp.
        let mut l0 = vec![(0, 1.0), (1, 1.0), (2, 1.0)];
        let mut l1 = vec![(0, 1.0), (1, 1.0), (2, 1.0), (3, 1.0)];
        let mut l2 = vec![(0, 1.0), (1, 1.0)];
        let temps = {
            let mut lists = vec![&mut l0, &mut l1, &mut l2];
            eliminate(&mut lists, 10)
        };
        assert!(temps.len() >= 2);
        assert_eq!(temps[0], vec![(0, 1.0), (1, 1.0)]);
        // Temp 1 combines temp 0 (virtual index 10) with block 2.
        assert!(temps[1].iter().any(|&(b, _)| b == 10));
        assert_eq!(l2, vec![(10, 1.0)]);
    }
}
