//! Plan compilation: a [`BilinearAlgorithm`] evaluated at a concrete λ
//! becomes an [`ExecPlan`] — plain numeric coefficient lists arranged the
//! way the executor consumes them.
//!
//! This is the runtime analogue of the paper's code generation (§3.2,
//! extending Benson–Ballard): instead of emitting C++ per algorithm, we
//! compile the coefficient triple once and interpret it with the same
//! kernels. Two executor-oriented reorientations happen here:
//!
//! * `W` is transposed into *per-output-block* lists, enabling the
//!   "write-once" strategy: each block of `Ĉ` is produced in a single pass
//!   over its contributing products;
//! * singleton linear combinations are marked so the executor can skip
//!   materializing `S_t`/`T_t` and fold the scalar into the gemm's α.

use apa_core::bilinear::{BilinearAlgorithm, Dims};

/// One operand-side linear combination for a multiplication.
#[derive(Clone, Debug, PartialEq)]
pub enum Combo {
    /// `coeff · block[idx]` — no materialization needed; the scalar folds
    /// into the gemm α.
    Single { block: usize, coeff: f64 },
    /// A genuine multi-term combination that must be formed in a buffer.
    Multi(Vec<(usize, f64)>),
}

impl Combo {
    fn from_terms(mut terms: Vec<(usize, f64)>) -> Self {
        terms.retain(|&(_, c)| c != 0.0);
        if terms.len() == 1 {
            Combo::Single {
                block: terms[0].0,
                coeff: terms[0].1,
            }
        } else {
            Combo::Multi(terms)
        }
    }

    /// Number of source blocks read.
    pub fn arity(&self) -> usize {
        match self {
            Combo::Single { .. } => 1,
            Combo::Multi(v) => v.len(),
        }
    }
}

/// A compiled, λ-free execution plan for one bilinear rule.
#[derive(Clone, Debug)]
pub struct ExecPlan {
    pub dims: Dims,
    pub rank: usize,
    /// λ the plan was evaluated at (0.0 for exact rules).
    pub lambda: f64,
    /// Per multiplication `t`: the combination of A-blocks feeding it.
    pub a_combos: Vec<Combo>,
    /// Per multiplication `t`: the combination of B-blocks feeding it.
    pub b_combos: Vec<Combo>,
    /// Per output block `(i,j)` (row-major): contributing `(t, coeff)`
    /// pairs — the write-once orientation.
    pub c_outputs: Vec<Vec<(usize, f64)>>,
    /// Name of the source algorithm (diagnostics).
    pub name: String,
    /// A-side shared temporaries introduced by [`crate::cse`]. Temp `i` is
    /// the combination `Σ coeff·source` over A-grid blocks and earlier
    /// A-temps; combos address it as virtual block `dims.m·dims.k + i`.
    /// Empty (the [`Self::compile`] default) means no CSE — the bitwise
    /// reference mode.
    pub a_temps: Vec<Vec<(usize, f64)>>,
    /// B-side temporaries, addressed as `dims.k·dims.n + i`.
    pub b_temps: Vec<Vec<(usize, f64)>>,
    /// W-side temporaries over products (and earlier W-temps), addressed
    /// by output terms as `rank + i`.
    pub w_temps: Vec<Vec<(usize, f64)>>,
}

impl ExecPlan {
    /// Compile `alg` at `lambda`.
    pub fn compile(alg: &BilinearAlgorithm, lambda: f64) -> Self {
        let dims = alg.dims;
        let rank = alg.rank();
        let u = alg.u.eval(lambda);
        let v = alg.v.eval(lambda);
        let w = alg.w.eval(lambda);

        let a_combos = u.into_iter().map(Combo::from_terms).collect();
        let b_combos = v.into_iter().map(Combo::from_terms).collect();

        let mut c_outputs = vec![Vec::new(); dims.m * dims.n];
        for (t, col) in w.iter().enumerate() {
            for &(row, coeff) in col {
                if coeff != 0.0 {
                    c_outputs[row].push((t, coeff));
                }
            }
        }

        Self {
            dims,
            rank,
            lambda,
            a_combos,
            b_combos,
            c_outputs,
            name: alg.name.clone(),
            a_temps: Vec::new(),
            b_temps: Vec::new(),
            w_temps: Vec::new(),
        }
    }

    /// Whether any CSE temporaries are present (see [`crate::cse`]).
    pub fn has_temps(&self) -> bool {
        !self.a_temps.is_empty() || !self.b_temps.is_empty() || !self.w_temps.is_empty()
    }

    /// Every output block must receive at least one product — otherwise the
    /// rule cannot be computing a full matrix product (sanity check used by
    /// the executor's debug assertions and the tests).
    pub fn covers_all_outputs(&self) -> bool {
        self.c_outputs.iter().all(|v| !v.is_empty())
    }

    /// Total buffer materializations a one-step execution needs:
    /// (#multi A-combos, #multi B-combos, r products).
    pub fn materialization_counts(&self) -> (usize, usize, usize) {
        let ma = self
            .a_combos
            .iter()
            .filter(|c| matches!(c, Combo::Multi(_)))
            .count();
        let mb = self
            .b_combos
            .iter()
            .filter(|c| matches!(c, Combo::Multi(_)))
            .count();
        (ma, mb, self.rank)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apa_core::catalog;

    #[test]
    fn strassen_plan_shape() {
        let p = ExecPlan::compile(&catalog::strassen(), 0.0);
        assert_eq!(p.rank, 7);
        assert_eq!(p.a_combos.len(), 7);
        assert_eq!(p.b_combos.len(), 7);
        assert_eq!(p.c_outputs.len(), 4);
        assert!(p.covers_all_outputs());
        // M7 = (A01 − A11)(B10 + B11) is the only product feeding C00
        // besides M1, M4, M5: check C00 fan-in is 4.
        assert_eq!(p.c_outputs[0].len(), 4);
    }

    #[test]
    fn singleton_combos_are_marked() {
        let p = ExecPlan::compile(&catalog::strassen(), 0.0);
        // M2 = (A10 + A11)·B00: B side is a singleton with coeff 1.
        match &p.b_combos[1] {
            Combo::Single { block, coeff } => {
                assert_eq!(*block, 0); // B00
                assert_eq!(*coeff, 1.0);
            }
            other => panic!("expected singleton, got {other:?}"),
        }
        match &p.a_combos[1] {
            Combo::Multi(terms) => assert_eq!(terms.len(), 2),
            other => panic!("expected multi, got {other:?}"),
        }
    }

    #[test]
    fn bini_plan_evaluates_lambda() {
        let lambda = 0.125;
        let p = ExecPlan::compile(&catalog::bini322(), lambda);
        assert_eq!(p.rank, 10);
        assert!(p.covers_all_outputs());
        // M1 = (A11 + A22)(λB11 + B22): B combo carries λ.
        match &p.b_combos[0] {
            Combo::Multi(terms) => {
                let coeffs: Vec<f64> = terms.iter().map(|&(_, c)| c).collect();
                assert!(coeffs.contains(&lambda));
                assert!(coeffs.contains(&1.0));
            }
            other => panic!("expected multi, got {other:?}"),
        }
        // Ĉ11 gets λ⁻¹-scaled contributions.
        let inv = 1.0 / lambda;
        assert!(p.c_outputs[0].iter().any(|&(_, c)| (c - inv).abs() < 1e-12));
    }

    #[test]
    fn materialization_counts_reflect_singletons() {
        let p = ExecPlan::compile(&catalog::strassen(), 0.0);
        let (ma, mb, r) = p.materialization_counts();
        // Strassen: A-side singletons are M3, M4; B-side singletons M2, M5.
        assert_eq!(ma, 5);
        assert_eq!(mb, 5);
        assert_eq!(r, 7);
    }

    #[test]
    fn classical_plan_is_all_singletons() {
        let p = ExecPlan::compile(&catalog::classical(Dims::new(2, 2, 2)), 0.0);
        let (ma, mb, _) = p.materialization_counts();
        assert_eq!((ma, mb), (0, 0));
        assert!(p
            .a_combos
            .iter()
            .all(|c| matches!(c, Combo::Single { coeff, .. } if *coeff == 1.0)));
    }

    use apa_core::bilinear::Dims;
}
