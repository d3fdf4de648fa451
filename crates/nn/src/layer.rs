//! Dense (fully connected) layers with pluggable matmul backends.
//!
//! Forward:  `Z = X·W + b`, `A = act(Z)` with `X: batch×in`, `W: in×out`.
//! Backward: `dZ = dA ⊙ act'(Z)`, `dW = Xᵀ·dZ`, `db = Σ_rows dZ`,
//!           `dX = dZ·Wᵀ`.
//!
//! The three matmuls (`X·W`, `Xᵀ·dZ`, `dZ·Wᵀ`) all route through the
//! layer's backend — exactly the multiplications the paper replaces with
//! APA operators in both propagation directions (§4.2). `Xᵀ` and `Wᵀ` are
//! zero-copy transposed views ([`MatRef::t`]) that the gemm packers read
//! in place, as a BLAS `sgemm` reads its `trans` flags. Every buffer a
//! step writes — the activation, dW, db and dX — belongs to the layer and
//! is reused across steps, and the SGD update runs on the FMA-dispatched
//! [`apa_gemm::combine`], so a steady-state training step
//! ([`crate::net::Mlp::train_batch`]) is its multiplies plus the bias,
//! ReLU and loss passes: no transpose, no allocation.

use crate::backend::Backend;
use crate::tensor::{add_bias_rows, col_sums, relu_backward_inplace};
use apa_gemm::{combine, Mat, MatRef};

/// A layer's parameters and their pending gradients, `(W, b, dW, db)`.
pub(crate) type ParamsAndGrads<'a> = (&'a mut Mat<f32>, &'a mut [f32], &'a Mat<f32>, &'a [f32]);

/// Activation applied after the affine map.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Activation {
    Relu,
    /// No activation — used for the output layer feeding softmax-CE.
    Identity,
}

/// A dense layer with cached forward state for backpropagation.
pub struct Dense {
    /// `in × out` weights.
    pub w: Mat<f32>,
    /// `out` biases.
    pub b: Vec<f32>,
    pub activation: Activation,
    backend: Backend,
    // Layer-owned buffers, reused across steps at a fixed batch size:
    /// `act(X·W + b)` of the last training forward pass. ReLU clamps `Z`
    /// in place, and `A ≤ 0` exactly where `Z ≤ 0`, so the backward mask
    /// is read off this buffer and `Z` is never kept.
    out: Mat<f32>,
    /// Copy of the last input, taken only by the public [`Self::forward`]
    /// (the network hands each layer its input instead, and its forward
    /// pass empties this).
    input: Mat<f32>,
    /// dZ of the public [`Self::backward`] (the network masks the upstream
    /// gradient buffer in place instead).
    dz: Mat<f32>,
    /// dX of the last backward pass that formed it.
    dx: Mat<f32>,
    grad_w: Mat<f32>,
    grad_b: Vec<f32>,
    /// `grad_w`/`grad_b` hold gradients no update has consumed yet.
    has_grads: bool,
}

impl Dense {
    /// He-style initialization scaled for ReLU stacks, deterministic in
    /// `seed` (the reproduction needs bit-identical reruns).
    pub fn new(
        inputs: usize,
        outputs: usize,
        activation: Activation,
        backend: Backend,
        seed: u64,
    ) -> Self {
        let scale = (2.0 / inputs as f64).sqrt();
        let mut state = seed
            .wrapping_mul(0x9E3779B97F4A7C15)
            .wrapping_add(0x2545F4914F6CDD1D);
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 32) as u32 as f64 / (1u64 << 31) as f64) - 1.0
        };
        let w = Mat::from_fn(inputs, outputs, |_, _| (next() * scale) as f32);
        Self {
            w,
            b: vec![0.0; outputs],
            activation,
            backend,
            out: Mat::zeros(0, 0),
            input: Mat::zeros(0, 0),
            dz: Mat::zeros(0, 0),
            dx: Mat::zeros(0, 0),
            grad_w: Mat::zeros(0, 0),
            grad_b: Vec::new(),
            has_grads: false,
        }
    }

    pub fn inputs(&self) -> usize {
        self.w.rows()
    }

    pub fn outputs(&self) -> usize {
        self.w.cols()
    }

    pub fn backend_name(&self) -> String {
        self.backend.name()
    }

    /// Shared handle to the layer's current backend — used by the
    /// fallback-rerun path in [`crate::net::Mlp::train_batch`] to restore
    /// the original backends after a demoted step.
    pub fn backend(&self) -> Backend {
        self.backend.clone()
    }

    /// Swap the matmul backend (e.g. classical → APA) without touching the
    /// weights — used by the experiment harnesses to compare algorithms on
    /// identical networks.
    pub fn set_backend(&mut self, backend: Backend) {
        self.backend = backend;
    }

    /// `dW` of the last backward pass, until an update consumes it.
    pub fn grad_w(&self) -> Option<&Mat<f32>> {
        self.has_grads.then_some(&self.grad_w)
    }

    /// `db` of the last backward pass, until an update consumes it.
    pub fn grad_b(&self) -> Option<&[f32]> {
        self.has_grads.then_some(&self.grad_b[..])
    }

    /// Forward pass; caches `X` and `A` for the backward pass and returns
    /// a copy of `A`. The layer's buffers are reused in place whenever the
    /// shapes still fit.
    pub fn forward(&mut self, x: &Mat<f32>) -> Mat<f32> {
        // `forward_train` drops the cached input; keep this call's copy
        // (in the same buffer) aside meanwhile.
        let mut input = std::mem::replace(&mut self.input, Mat::zeros(0, 0));
        input.resize(x.rows(), x.cols());
        input.as_mut().copy_from(x.as_ref());
        self.forward_train(x.as_ref());
        self.input = input;
        self.out.clone()
    }

    /// The training forward pass into the layer's activation buffer
    /// ([`Self::output`]); the caller keeps `x` alive for the backward
    /// pass. The inference body, so bitwise equal to it.
    pub(crate) fn forward_train(&mut self, x: MatRef<'_, f32>) {
        // An input copied by an earlier public `forward` is stale from
        // here on: drop it, so a public `backward` now panics instead of
        // forming dW from it.
        self.input = Mat::zeros(0, 0);
        let mut out = std::mem::replace(&mut self.out, Mat::zeros(0, 0));
        self.forward_inference_into(x, &mut out);
        self.out = out;
    }

    /// The activation of the last training forward pass.
    pub(crate) fn output(&self) -> &Mat<f32> {
        &self.out
    }

    /// The dX buffer, which the layer below masks in place as its dZ.
    pub(crate) fn input_grad_mut(&mut self) -> &mut Mat<f32> {
        &mut self.dx
    }

    /// Inference-only forward: no caching, no clone of the input.
    pub fn forward_inference(&self, x: &Mat<f32>) -> Mat<f32> {
        let mut z = Mat::zeros(x.rows(), self.outputs());
        self.forward_inference_into(x.as_ref(), &mut z);
        z
    }

    /// Inference-only forward into a caller-owned output buffer (resized
    /// to `batch × outputs` in place). At a steady batch size the buffer —
    /// like the backend's workspace cache — is reused across calls, so the
    /// serving hot path performs no per-request heap allocation. Bitwise
    /// identical to [`Self::forward_inference`].
    pub fn forward_inference_into(&self, x: MatRef<'_, f32>, out: &mut Mat<f32>) {
        assert_eq!(x.cols(), self.inputs(), "input width mismatch");
        out.resize(x.rows(), self.outputs());
        self.backend.matmul_into(x, self.w.as_ref(), out.as_mut());
        add_bias_rows(out, &self.b);
        if self.activation == Activation::Relu {
            for v in out.as_mut_slice() {
                if *v < 0.0 {
                    *v = 0.0;
                }
            }
        }
    }

    /// Warm the backend for the inference shapes of the given batch sizes
    /// (`batch × in · in × out`), so the first real forward pass at any of
    /// them is allocation-free. Must run on the inference thread — the
    /// gemm pack buffers it settles are thread-local.
    pub fn warm(&self, batch_sizes: &[usize]) {
        for &b in batch_sizes {
            self.backend.warm(&[(b, self.inputs(), self.outputs())]);
        }
    }

    /// Backward pass from `dA` (gradient w.r.t. this layer's output) of
    /// the last [`Self::forward`]; stores `dW`/`db` and returns `dX`.
    ///
    /// # Panics
    /// Unless the layer's last forward pass was [`Self::forward`] at
    /// `grad_out`'s batch size: a network's training pass
    /// ([`crate::net::Mlp::forward`], [`crate::net::Mlp::train_batch`])
    /// keeps no per-layer input, so it cannot be followed by a layer-level
    /// `backward` (use [`crate::net::Mlp::backward_only`]).
    pub fn backward(&mut self, grad_out: &Mat<f32>) -> Mat<f32> {
        // Both buffers are the layer's own; lend them out for the call.
        let input = std::mem::replace(&mut self.input, Mat::zeros(0, 0));
        let mut dz = std::mem::replace(&mut self.dz, Mat::zeros(0, 0));
        dz.resize(grad_out.rows(), grad_out.cols());
        dz.as_mut().copy_from(grad_out.as_ref());
        self.backward_into(input.as_ref(), &mut dz, true);
        (self.input, self.dz) = (input, dz);
        self.dx.clone()
    }

    /// The backward pass given the forward input `x` and `dA` in `dz`,
    /// which becomes dZ in place (the ReLU mask). `dW = Xᵀ·dZ`, `db` and —
    /// when `want_dx`, i.e. unless this is the bottom layer — `dX = dZ·Wᵀ`
    /// land in the layer's buffers; `Xᵀ`/`Wᵀ` are transposed views.
    pub(crate) fn backward_into(&mut self, x: MatRef<'_, f32>, dz: &mut Mat<f32>, want_dx: bool) {
        assert_eq!(
            (x.rows(), self.out.rows()),
            (dz.rows(), dz.rows()),
            "backward() requires a prior forward() at this batch size"
        );
        if self.activation == Activation::Relu {
            relu_backward_inplace(dz, &self.out);
        }
        self.grad_w.resize(self.inputs(), self.outputs());
        self.backend
            .matmul_into(x.t(), dz.as_ref(), self.grad_w.as_mut());
        col_sums(dz.as_ref(), &mut self.grad_b);
        if want_dx {
            self.dx.resize(dz.rows(), self.inputs());
            self.backend
                .matmul_into(dz.as_ref(), self.w.as_ref().t(), self.dx.as_mut());
        }
        self.has_grads = true;
    }

    /// Consume the pending gradients: `(W, b, dW, db)` for an update to
    /// apply in place, or `None` when no backward pass ran since the last
    /// update.
    pub(crate) fn take_grads(&mut self) -> Option<ParamsAndGrads<'_>> {
        if !std::mem::take(&mut self.has_grads) {
            return None;
        }
        Some((&mut self.w, &mut self.b, &self.grad_w, &self.grad_b))
    }

    /// SGD step: `W ← W − lr·dW`, `b ← b − lr·db`. The weight update is
    /// `combine`'s accumulate arm — `w = (−lr)·dw + w` as one fused
    /// multiply-add per element, vectorized under the FMA dispatch.
    pub fn apply_sgd(&mut self, lr: f32) {
        if let Some((w, b, dw, db)) = self.take_grads() {
            combine(w.as_mut(), true, &[(-lr, dw.as_ref())]);
            for (b, &g) in b.iter_mut().zip(db) {
                *b -= lr * g;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::classical;

    fn layer(inputs: usize, outputs: usize, act: Activation) -> Dense {
        Dense::new(inputs, outputs, act, classical(1), 42)
    }

    #[test]
    fn forward_shape_and_bias() {
        let mut l = layer(4, 3, Activation::Identity);
        l.b = vec![1.0, 2.0, 3.0];
        let x = Mat::zeros(2, 4);
        let y = l.forward(&x);
        assert_eq!((y.rows(), y.cols()), (2, 3));
        // Zero inputs → output equals bias.
        assert_eq!(y.at(0, 0), 1.0);
        assert_eq!(y.at(1, 2), 3.0);
    }

    #[test]
    fn relu_clamps_negative_preactivations() {
        let mut l = layer(1, 2, Activation::Relu);
        l.w = Mat::from_vec(1, 2, vec![1.0, -1.0]);
        let x = Mat::from_vec(1, 1, vec![2.0]);
        let y = l.forward(&x);
        assert_eq!(y.as_slice(), &[2.0, 0.0]);
    }

    #[test]
    fn gradient_check_weights() {
        // Finite-difference check of dW on a tiny layer with L = Σ output.
        let mut l = layer(3, 2, Activation::Relu);
        let x = Mat::from_fn(4, 3, |i, j| ((i + j) as f32 * 0.3) - 0.4);
        let y = l.forward(&x);
        let ones = Mat::from_fn(y.rows(), y.cols(), |_, _| 1.0);
        l.backward(&ones);
        let analytic = l.grad_w().unwrap().clone();

        let eps = 1e-3f32;
        for (wi, wj) in [(0, 0), (1, 1), (2, 0)] {
            let orig = l.w.at(wi, wj);
            l.w.set(wi, wj, orig + eps);
            let lp: f32 = l.forward_inference(&x).as_slice().iter().sum();
            l.w.set(wi, wj, orig - eps);
            let lm: f32 = l.forward_inference(&x).as_slice().iter().sum();
            l.w.set(wi, wj, orig);
            let numeric = (lp - lm) / (2.0 * eps);
            let a = analytic.at(wi, wj);
            assert!(
                (a - numeric).abs() < 2e-2 * (1.0 + numeric.abs()),
                "dW[{wi}][{wj}]: analytic {a}, numeric {numeric}"
            );
        }
    }

    #[test]
    fn gradient_check_inputs() {
        let mut l = layer(3, 2, Activation::Identity);
        let x = Mat::from_fn(2, 3, |i, j| (i as f32 - j as f32) * 0.25);
        let _ = l.forward(&x);
        let ones = Mat::from_fn(2, 2, |_, _| 1.0);
        let dx = l.backward(&ones);
        // With identity activation and all-ones upstream gradient,
        // dX[i][j] = Σ_o W[j][o].
        for i in 0..2 {
            for j in 0..3 {
                let expect: f32 = (0..2).map(|o| l.w.at(j, o)).sum();
                assert!((dx.at(i, j) - expect).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn sgd_moves_weights_against_gradient() {
        let mut l = layer(2, 2, Activation::Identity);
        let x = Mat::from_fn(1, 2, |_, _| 1.0);
        let _ = l.forward(&x);
        let g = Mat::from_fn(1, 2, |_, _| 1.0);
        l.backward(&g);
        let before = l.w.at(0, 0);
        let dw00 = l.grad_w().unwrap().at(0, 0);
        l.apply_sgd(0.1);
        assert!((l.w.at(0, 0) - (before - 0.1 * dw00)).abs() < 1e-6);
        assert!(l.grad_w().is_none(), "gradients consumed by the step");
    }

    #[test]
    #[should_panic(expected = "requires a prior forward()")]
    fn backward_after_a_network_forward_panics() {
        // A public forward caches x1; the network's training pass on x2
        // must not leave it there for a backward to form dW from.
        let mut l = layer(3, 2, Activation::Relu);
        let x1 = Mat::from_fn(4, 3, |i, j| (i + j) as f32);
        let x2 = Mat::from_fn(4, 3, |i, j| (i * j) as f32 - 1.0);
        let _ = l.forward(&x1);
        l.forward_train(x2.as_ref());
        l.backward(&Mat::from_fn(4, 2, |_, _| 1.0));
    }

    #[test]
    fn deterministic_initialization() {
        let l1 = layer(5, 5, Activation::Relu);
        let l2 = layer(5, 5, Activation::Relu);
        assert_eq!(l1.w, l2.w);
    }
}
