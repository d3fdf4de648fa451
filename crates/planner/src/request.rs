//! What a call site asks the compiler for: the shapes it will multiply,
//! the element type, the §2.3 error target, the thread budget and the
//! robustness profile. The request's byte encoding is the cache/store
//! key, so two identical requests always resolve to the same plan.

use apa_core::error_model;

/// Element type the plan will execute on; selects the mantissa width `d`
/// the §2.3 error model optimizes against.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DType {
    F32,
    F64,
}

impl DType {
    /// Mantissa digits `d` for the error model (23 / 52).
    pub fn mantissa_digits(self) -> u32 {
        match self {
            DType::F32 => error_model::D_SINGLE,
            DType::F64 => error_model::D_DOUBLE,
        }
    }

    pub fn elem_size(self) -> usize {
        match self {
            DType::F32 => 4,
            DType::F64 => 8,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            DType::F32 => "f32",
            DType::F64 => "f64",
        }
    }
}

/// How the plan will be executed — plain, or wrapped in the
/// [`apa_matmul::GuardedApaMatmul`] degradation ladder. Part of the key:
/// guarded execution pays sentinel overhead, so a measured refinement for
/// one profile must not be reused for the other.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Robustness {
    /// Raw [`apa_matmul::ApaMatmul`] execution.
    Plain,
    /// Sentinel-guarded execution with graceful degradation.
    Guarded,
}

/// A plan compilation request. Build with [`PlanRequest::new`] (single
/// shape) or [`PlanRequest::for_shapes`] (a layer's shape chain) and
/// refine with the builder methods.
#[derive(Clone, Debug, PartialEq)]
pub struct PlanRequest {
    /// The `(m, k, n)` products this plan will serve. A training layer
    /// registers its forward and gradient shapes together so one rule is
    /// picked for the whole layer.
    pub shapes: Vec<(usize, usize, usize)>,
    pub dtype: DType,
    /// Maximum acceptable relative error. Candidates whose §2.3
    /// `error_bound` exceeds this are discarded; the default (1e-2 for
    /// f32) matches the paper's observed training-safe band.
    pub target_error: f64,
    pub threads: usize,
    pub robustness: Robustness,
}

impl PlanRequest {
    pub fn new(m: usize, k: usize, n: usize) -> Self {
        Self::for_shapes(vec![(m, k, n)])
    }

    pub fn for_shapes(shapes: Vec<(usize, usize, usize)>) -> Self {
        assert!(
            !shapes.is_empty(),
            "a plan request needs at least one shape"
        );
        PlanRequest {
            shapes,
            dtype: DType::F32,
            target_error: 1e-2,
            threads: 1,
            robustness: Robustness::Plain,
        }
    }

    pub fn dtype(mut self, dtype: DType) -> Self {
        self.dtype = dtype;
        self
    }

    pub fn target_error(mut self, target: f64) -> Self {
        assert!(target > 0.0, "target error must be positive");
        self.target_error = target;
        self
    }

    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    pub fn robustness(mut self, robustness: Robustness) -> Self {
        self.robustness = robustness;
        self
    }

    /// Stable byte encoding — the memory-cache and [`crate::PlanStore`]
    /// key. Everything that influences the chosen plan is in here.
    pub fn key_bytes(&self) -> Vec<u8> {
        let mut enc = crate::codec::Enc::new();
        enc.put_u32(self.shapes.len() as u32);
        for &(m, k, n) in &self.shapes {
            enc.put_u64(m as u64);
            enc.put_u64(k as u64);
            enc.put_u64(n as u64);
        }
        enc.put_u8(match self.dtype {
            DType::F32 => 0,
            DType::F64 => 1,
        });
        enc.put_f64(self.target_error);
        enc.put_u64(self.threads as u64);
        enc.put_u8(match self.robustness {
            Robustness::Plain => 0,
            Robustness::Guarded => 1,
        });
        enc.into_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_budget_is_at_least_one() {
        assert_eq!(PlanRequest::new(128, 128, 128).threads, 1);
        assert_eq!(PlanRequest::new(128, 128, 128).threads(0).threads, 1);
        let machine = apa_gemm::default_threads();
        assert_eq!(
            PlanRequest::new(128, 128, 128).threads(machine).threads,
            machine
        );
    }

    #[test]
    fn key_bytes_distinguish_every_field() {
        let base = PlanRequest::new(256, 128, 256).threads(4);
        let variants = [
            PlanRequest::new(256, 128, 257).threads(4),
            base.clone().dtype(DType::F64),
            base.clone().target_error(1e-3),
            base.clone().threads(8),
            base.clone().robustness(Robustness::Guarded),
            PlanRequest::for_shapes(vec![(256, 128, 256), (128, 256, 256)]).threads(4),
        ];
        for v in &variants {
            assert_ne!(base.key_bytes(), v.key_bytes(), "{v:?}");
        }
        assert_eq!(base.key_bytes(), base.clone().key_bytes());
    }

    #[test]
    #[should_panic(expected = "at least one shape")]
    fn empty_shape_list_rejected() {
        let _ = PlanRequest::for_shapes(Vec::new());
    }
}
