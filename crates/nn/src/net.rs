//! The multi-layer perceptron: a stack of [`Dense`] layers trained with
//! batched SGD on softmax cross-entropy (the paper's §4 setup).

use crate::backend::Backend;
use crate::checkpoint::{CheckpointError, LayerState, TrainState};
use crate::data::Dataset;
use crate::layer::{Activation, Dense};
use crate::loss::{accuracy, softmax_cross_entropy_into};
use apa_gemm::{Mat, MatRef};

/// Base seed for the per-epoch shuffle: every epoch shuffles with
/// `SHUFFLE_SALT + epoch`, so the batch order is a pure function of the
/// epoch index — which is what makes an (epoch, batch) checkpoint cursor
/// a complete RNG stream position.
pub const SHUFFLE_SALT: u64 = 0xABCD_EF01;

fn finite_mat(m: &Mat<f32>) -> bool {
    m.as_slice().iter().all(|v| v.is_finite())
}

/// Per-epoch training record.
#[derive(Clone, Debug)]
pub struct EpochStats {
    pub epoch: usize,
    pub loss: f32,
    pub train_accuracy: f64,
    /// Wall-clock seconds spent in forward+backward+update (excludes
    /// shuffling and metric evaluation).
    pub seconds: f64,
    /// Batches this epoch whose step produced a non-finite loss or
    /// gradient and was re-run wholesale on the fallback backend (always 0
    /// when no fallback is configured).
    pub degraded_batches: u64,
}

/// Reusable activation buffers for [`Mlp::predict_into`]: two ping-pong
/// matrices that hold the hidden activations of an inference pass. At a
/// steady batch size the buffers (and the backends' workspace caches
/// underneath) settle at their high-water mark, so repeated inference —
/// the serving hot path — performs zero heap allocation.
pub struct InferenceScratch {
    ping: Mat<f32>,
    pong: Mat<f32>,
}

impl InferenceScratch {
    pub fn new() -> Self {
        Self {
            ping: Mat::zeros(0, 0),
            pong: Mat::zeros(0, 0),
        }
    }
}

impl Default for InferenceScratch {
    fn default() -> Self {
        Self::new()
    }
}

/// A feed-forward network of dense layers.
pub struct Mlp {
    pub layers: Vec<Dense>,
    /// Trusted backend for re-running a batch whose step went non-finite
    /// (see [`Self::with_fallback`]).
    fallback: Option<Backend>,
    degraded_batches: u64,
    /// The loss gradient w.r.t. the logits, reused across steps; the top
    /// layer masks it in place as its dZ.
    loss_grad: Mat<f32>,
    /// Copy of the input of the last [`Self::forward`], for a following
    /// [`Self::backward_only`] ([`Self::train_batch`] reads its argument).
    input: Mat<f32>,
}

/// The training forward pass: each layer reads the activation buffer of
/// the one below (the first reads `x`); the logits end up in the top
/// layer's.
pub(crate) fn forward_layers(layers: &mut [Dense], x: MatRef<'_, f32>) {
    for l in 0..layers.len() {
        let (below, rest) = layers.split_at_mut(l);
        let input = below.last().map_or(x, |prev| prev.output().as_ref());
        rest[0].forward_train(input);
    }
}

/// Backpropagate `loss_grad` (dA of the top layer) through `layers`,
/// whose forward pass read `x`. Each layer masks the gradient buffer of
/// the one above in place as its dZ and stores dW/db; the bottom layer's
/// dX — a gradient w.r.t. the data — is never formed.
pub(crate) fn backprop(layers: &mut [Dense], x: MatRef<'_, f32>, loss_grad: &mut Mat<f32>) {
    for l in (0..layers.len()).rev() {
        let (below, rest) = layers.split_at_mut(l);
        let (layer, above) = rest.split_first_mut().expect("l < len");
        let input = below.last().map_or(x, |prev| prev.output().as_ref());
        let dz = match above.first_mut() {
            Some(next) => next.input_grad_mut(),
            None => &mut *loss_grad,
        };
        layer.backward_into(input, dz, l > 0);
    }
}

impl Mlp {
    /// Build from layer widths: `widths = [in, h1, …, out]` with ReLU on
    /// every layer except the (identity) output layer. `backends` supplies
    /// one matmul backend per dense layer.
    pub fn new(widths: &[usize], backends: Vec<Backend>, seed: u64) -> Self {
        assert!(widths.len() >= 2, "need at least input and output widths");
        let n_layers = widths.len() - 1;
        assert_eq!(
            backends.len(),
            n_layers,
            "one backend per dense layer required"
        );
        let layers = (0..n_layers)
            .map(|l| {
                let act = if l + 1 == n_layers {
                    Activation::Identity
                } else {
                    Activation::Relu
                };
                Dense::new(
                    widths[l],
                    widths[l + 1],
                    act,
                    backends[l].clone(),
                    seed.wrapping_add(l as u64 * 7919),
                )
            })
            .collect();
        Self {
            layers,
            fallback: None,
            degraded_batches: 0,
            loss_grad: Mat::zeros(0, 0),
            input: Mat::zeros(0, 0),
        }
    }

    /// Install a trusted fallback backend (typically
    /// [`crate::backend::classical`]). When set, [`Self::train_batch`]
    /// detects a non-finite loss, logits or gradient, discards the
    /// poisoned step, re-runs the whole batch with every layer temporarily
    /// on the fallback, and records the event — so one corrupted
    /// multiplication costs one recomputed batch instead of a diverged
    /// run.
    pub fn with_fallback(mut self, fallback: Backend) -> Self {
        self.fallback = Some(fallback);
        self
    }

    /// Total batches ever re-run on the fallback backend.
    pub fn degraded_batches(&self) -> u64 {
        self.degraded_batches
    }

    /// Copy out every layer's parameters for a checkpoint.
    pub fn snapshot(&self) -> Vec<LayerState> {
        self.layers
            .iter()
            .map(|l| LayerState {
                w: l.w.clone(),
                b: l.b.clone(),
            })
            .collect()
    }

    /// Restore parameters and the fallback-rerun counter from a
    /// checkpoint, refusing a geometry mismatch. Backends are untouched —
    /// the caller rebuilds the network with its own backends and resumes
    /// the *state* into it.
    pub fn resume(&mut self, state: &TrainState) -> Result<(), CheckpointError> {
        if state.layers.len() != self.layers.len() {
            return Err(CheckpointError::Mismatch {
                what: format!(
                    "{} layers in checkpoint, {} in network",
                    state.layers.len(),
                    self.layers.len()
                ),
            });
        }
        for (li, (layer, saved)) in self.layers.iter().zip(&state.layers).enumerate() {
            if (saved.w.rows(), saved.w.cols()) != (layer.w.rows(), layer.w.cols())
                || saved.b.len() != layer.b.len()
            {
                return Err(CheckpointError::Mismatch {
                    what: format!(
                        "layer {li} is {}x{} in checkpoint, {}x{} in network",
                        saved.w.rows(),
                        saved.w.cols(),
                        layer.w.rows(),
                        layer.w.cols()
                    ),
                });
            }
        }
        for (layer, saved) in self.layers.iter_mut().zip(&state.layers) {
            layer.w = saved.w.clone();
            layer.b = saved.b.clone();
        }
        self.degraded_batches = state.degraded_batches;
        Ok(())
    }

    /// Layer widths including input: `[in, h1, …, out]`.
    pub fn widths(&self) -> Vec<usize> {
        let mut w: Vec<usize> = self.layers.iter().map(|l| l.inputs()).collect();
        w.push(self.layers.last().unwrap().outputs());
        w
    }

    /// Training-mode forward through all layers (caches the input and the
    /// activations); returns a copy of the logits.
    pub fn forward(&mut self, x: &Mat<f32>) -> Mat<f32> {
        self.input.resize(x.rows(), x.cols());
        self.input.as_mut().copy_from(x.as_ref());
        forward_layers(&mut self.layers, self.input.as_ref());
        self.logits().clone()
    }

    /// The logits of the last training forward pass.
    fn logits(&self) -> &Mat<f32> {
        self.layers.last().expect("at least one layer").output()
    }

    /// Inference-mode forward (no caches).
    pub fn predict(&self, x: &Mat<f32>) -> Mat<f32> {
        let mut cur = x.clone();
        for layer in &self.layers {
            cur = layer.forward_inference(&cur);
        }
        cur
    }

    /// Inference-mode forward into a caller-owned output buffer, with all
    /// hidden activations held in a reusable [`InferenceScratch`] — the
    /// allocation-free serving path. `out` is resized to `batch ×
    /// out_width` in place; results are bitwise identical to
    /// [`Self::predict`]. `&self` like `predict`, so one shared network
    /// can serve many lanes, each owning its own scratch.
    pub fn predict_into(
        &self,
        x: MatRef<'_, f32>,
        out: &mut Mat<f32>,
        scratch: &mut InferenceScratch,
    ) {
        let last = self.layers.len() - 1;
        if last == 0 {
            self.layers[0].forward_inference_into(x, out);
            return;
        }
        self.layers[0].forward_inference_into(x, &mut scratch.ping);
        for l in 1..last {
            let (src, dst) = if l % 2 == 1 {
                (&scratch.ping, &mut scratch.pong)
            } else {
                (&scratch.pong, &mut scratch.ping)
            };
            self.layers[l].forward_inference_into(src.as_ref(), dst);
        }
        let src = if last % 2 == 1 {
            &scratch.ping
        } else {
            &scratch.pong
        };
        self.layers[last].forward_inference_into(src.as_ref(), out);
    }

    /// Warm every layer's backend for inference at the given batch sizes
    /// (see [`crate::backend::MatmulBackend::warm`]): after this, the
    /// first [`Self::predict_into`] at any warmed batch size performs zero
    /// heap allocations beyond sizing the caller's scratch and output.
    /// Must run on the thread that will do the inference — the gemm pack
    /// buffers are thread-local.
    pub fn warm_for_batches(&self, batch_sizes: &[usize]) {
        for layer in &self.layers {
            layer.warm(batch_sizes);
        }
    }

    /// Backpropagate from the loss gradient of the last [`Self::forward`],
    /// leaving the gradients stored on each layer (for an external
    /// [`crate::optimizer::Optimizer`]). Panics unless the network's last
    /// forward pass was [`Self::forward`] at `grad_logits`' batch size.
    pub fn backward_only(&mut self, grad_logits: &Mat<f32>) {
        assert_eq!(
            self.input.rows(),
            grad_logits.rows(),
            "backward_only() requires a prior forward() at this batch size"
        );
        self.loss_grad
            .resize(grad_logits.rows(), grad_logits.cols());
        self.loss_grad.as_mut().copy_from(grad_logits.as_ref());
        backprop(&mut self.layers, self.input.as_ref(), &mut self.loss_grad);
    }

    /// Backpropagate from the loss gradient and apply plain SGD.
    pub fn backward_and_step(&mut self, grad_logits: &Mat<f32>, lr: f32) {
        self.backward_only(grad_logits);
        self.apply_sgd(lr);
    }

    fn apply_sgd(&mut self, lr: f32) {
        for layer in &mut self.layers {
            layer.apply_sgd(lr);
        }
    }

    /// Forward pass and loss on `x`, leaving the loss gradient in
    /// `loss_grad`; returns the loss.
    fn forward_loss(&mut self, x: MatRef<'_, f32>, labels: &[u8]) -> f32 {
        // The input of an earlier `forward` no longer matches the layers'
        // activations: drop it, so a `backward_only` now panics.
        self.input = Mat::zeros(0, 0);
        forward_layers(&mut self.layers, x);
        let logits = self.layers.last().expect("at least one layer").output();
        softmax_cross_entropy_into(logits, labels, &mut self.loss_grad)
    }

    /// One SGD step on a single batch; returns (loss, batch accuracy).
    /// Runs entirely in buffers the network owns, so at a fixed batch size
    /// a steady-state step performs no heap allocation.
    ///
    /// With a fallback installed ([`Self::with_fallback`]), the step is
    /// health-checked at two points: after the loss (non-finite loss,
    /// logits or loss gradient) and after backpropagation (non-finite
    /// weight/bias gradients). Either trips a wholesale re-run of the
    /// batch on the fallback backend **before** any weight is touched, so
    /// the parameters never absorb a poisoned update.
    pub fn train_batch(&mut self, x: &Mat<f32>, labels: &[u8], lr: f32) -> (f32, f64) {
        let loss = self.forward_loss(x.as_ref(), labels);
        if self.fallback.is_some()
            && (!loss.is_finite() || !finite_mat(self.logits()) || !finite_mat(&self.loss_grad))
        {
            return self.redo_batch_on_fallback(x, labels, lr);
        }
        let acc = accuracy(self.logits(), labels);
        backprop(&mut self.layers, x.as_ref(), &mut self.loss_grad);
        if self.fallback.is_some() && !self.grads_finite() {
            return self.redo_batch_on_fallback(x, labels, lr);
        }
        self.apply_sgd(lr);
        (loss, acc)
    }

    fn grads_finite(&self) -> bool {
        self.layers.iter().all(|l| {
            l.grad_w().is_none_or(finite_mat)
                && l.grad_b().is_none_or(|g| g.iter().all(|v| v.is_finite()))
        })
    }

    /// Discard the poisoned step and redo the whole batch — forward, loss
    /// and update — with every layer on the fallback backend, then restore
    /// the original backends.
    fn redo_batch_on_fallback(&mut self, x: &Mat<f32>, labels: &[u8], lr: f32) -> (f32, f64) {
        let fallback = self.fallback.clone().expect("fallback required");
        let originals: Vec<Backend> = self.layers.iter().map(|l| l.backend()).collect();
        for layer in &mut self.layers {
            layer.set_backend(fallback.clone());
        }
        let loss = self.forward_loss(x.as_ref(), labels);
        let acc = accuracy(self.logits(), labels);
        backprop(&mut self.layers, x.as_ref(), &mut self.loss_grad);
        self.apply_sgd(lr);
        for (layer, backend) in self.layers.iter_mut().zip(originals) {
            layer.set_backend(backend);
        }
        self.degraded_batches += 1;
        (loss, acc)
    }

    /// One epoch of batched SGD over `data`, shuffled by `epoch`-dependent
    /// seed; returns loss/accuracy/timing aggregates.
    pub fn train_epoch(
        &mut self,
        data: &Dataset,
        batch_size: usize,
        lr: f32,
        epoch: usize,
    ) -> EpochStats {
        let order = data.shuffled_indices(SHUFFLE_SALT.wrapping_add(epoch as u64));
        let degraded_before = self.degraded_batches;
        let mut total_loss = 0.0f64;
        let mut total_correct = 0.0f64;
        let mut batches = 0usize;
        let mut seconds = 0.0f64;
        for chunk in order.chunks(batch_size) {
            if chunk.len() < batch_size {
                break; // drop the ragged tail, as batched SGD usually does
            }
            let (x, labels) = data.gather(chunk);
            let t0 = std::time::Instant::now();
            let (loss, acc) = self.train_batch(&x, &labels, lr);
            seconds += t0.elapsed().as_secs_f64();
            total_loss += loss as f64;
            total_correct += acc;
            batches += 1;
        }
        EpochStats {
            epoch,
            loss: (total_loss / batches.max(1) as f64) as f32,
            train_accuracy: total_correct / batches.max(1) as f64,
            seconds,
            degraded_batches: self.degraded_batches - degraded_before,
        }
    }

    /// Accuracy over a dataset, evaluated in inference mode in batches.
    pub fn evaluate(&self, data: &Dataset, batch_size: usize) -> f64 {
        let n = data.len();
        let mut correct = 0.0f64;
        let mut seen = 0usize;
        let indices: Vec<usize> = (0..n).collect();
        for chunk in indices.chunks(batch_size) {
            let (x, labels) = data.gather(chunk);
            let logits = self.predict(&x);
            correct += accuracy(&logits, &labels) * chunk.len() as f64;
            seen += chunk.len();
        }
        correct / seen.max(1) as f64
    }

    /// Human-readable description of the per-layer backends.
    pub fn backend_summary(&self) -> String {
        self.layers
            .iter()
            .map(|l| format!("{}x{}:{}", l.inputs(), l.outputs(), l.backend_name()))
            .collect::<Vec<_>>()
            .join(" | ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::classical;
    use crate::data::Dataset;

    fn toy_dataset(n: usize) -> Dataset {
        // Two Gaussian-ish blobs in 8 dims, labels 0/1 — trivially
        // learnable; the MLP must reach high accuracy quickly.
        let mut state = 99u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 32) as u32 as f64 / (1u64 << 31) as f64) - 1.0
        };
        let mut images = Mat::zeros(n, 8);
        let mut labels = Vec::with_capacity(n);
        for i in 0..n {
            let class = (i % 2) as u8;
            let center = if class == 0 { -1.0 } else { 1.0 };
            for j in 0..8 {
                images.set(i, j, (center + 0.3 * next()) as f32);
            }
            labels.push(class);
        }
        Dataset::new(images, labels, 2)
    }

    fn toy_mlp() -> Mlp {
        Mlp::new(&[8, 16, 2], vec![classical(1), classical(1)], 7)
    }

    #[test]
    fn widths_and_summary() {
        let net = toy_mlp();
        assert_eq!(net.widths(), vec![8, 16, 2]);
        assert!(net.backend_summary().contains("classical"));
    }

    #[test]
    fn forward_shapes() {
        let mut net = toy_mlp();
        let x = Mat::zeros(5, 8);
        let y = net.forward(&x);
        assert_eq!((y.rows(), y.cols()), (5, 2));
        let yp = net.predict(&x);
        assert_eq!((yp.rows(), yp.cols()), (5, 2));
    }

    #[test]
    #[should_panic(expected = "backward_only() requires a prior forward()")]
    fn backward_only_after_train_batch_panics() {
        // `forward` caches x; a `train_batch` on other data runs in
        // between, so its activations no longer match that input.
        let data = toy_dataset(40);
        let mut net = toy_mlp();
        let (x, labels) = data.gather(&(0..20).collect::<Vec<_>>());
        let (y, _) = data.gather(&(20..40).collect::<Vec<_>>());
        let _ = net.forward(&x);
        net.train_batch(&y, &labels, 0.1);
        net.backward_only(&Mat::zeros(20, 2));
    }

    #[test]
    fn training_reduces_loss_and_learns_blobs() {
        let data = toy_dataset(200);
        let mut net = toy_mlp();
        let first = net.train_epoch(&data, 20, 0.1, 0);
        let mut last = first.clone();
        for e in 1..15 {
            last = net.train_epoch(&data, 20, 0.1, e);
        }
        assert!(
            last.loss < first.loss,
            "loss should fall: {} → {}",
            first.loss,
            last.loss
        );
        let acc = net.evaluate(&data, 50);
        assert!(acc > 0.95, "accuracy {acc}");
    }

    #[test]
    fn predict_into_is_bitwise_equal_to_predict() {
        let data = toy_dataset(40);
        let mut net = toy_mlp();
        for e in 0..3 {
            net.train_epoch(&data, 20, 0.1, e);
        }
        let mut scratch = InferenceScratch::new();
        let mut out = Mat::zeros(0, 0);
        // Varying batch sizes exercise the scratch resize path.
        for batch in [1usize, 7, 20] {
            let (x, _) = data.gather(&(0..batch).collect::<Vec<_>>());
            let expect = net.predict(&x);
            net.predict_into(x.as_ref(), &mut out, &mut scratch);
            assert_eq!((out.rows(), out.cols()), (batch, 2));
            for i in 0..batch {
                for j in 0..2 {
                    assert_eq!(out.at(i, j).to_bits(), expect.at(i, j).to_bits());
                }
            }
        }
        // A single-layer network routes straight into `out`.
        let single = Mlp::new(&[8, 2], vec![classical(1)], 3);
        let (x, _) = data.gather(&[0, 1, 2]);
        let expect = single.predict(&x);
        single.predict_into(x.as_ref(), &mut out, &mut scratch);
        for i in 0..3 {
            for j in 0..2 {
                assert_eq!(out.at(i, j).to_bits(), expect.at(i, j).to_bits());
            }
        }
    }

    #[test]
    fn epoch_stats_track_time() {
        let data = toy_dataset(60);
        let mut net = toy_mlp();
        let stats = net.train_epoch(&data, 20, 0.05, 0);
        assert!(stats.seconds > 0.0);
        assert_eq!(stats.epoch, 0);
    }

    #[test]
    #[should_panic(expected = "one backend per dense layer")]
    fn backend_count_is_enforced() {
        let _ = Mlp::new(&[4, 4, 4], vec![classical(1)], 0);
    }

    /// Delegates to an inner (exact) backend but poisons one chosen
    /// matmul call with a NaN — models a transient numerical fault inside
    /// a layer multiplication.
    struct FaultyBackend {
        inner: Backend,
        poison_call: u64,
        calls: std::sync::atomic::AtomicU64,
    }

    impl crate::backend::MatmulBackend for FaultyBackend {
        fn matmul_into(
            &self,
            a: apa_gemm::MatRef<'_, f32>,
            b: apa_gemm::MatRef<'_, f32>,
            mut c: apa_gemm::MatMut<'_, f32>,
        ) {
            self.inner.matmul_into(a, b, c.rb());
            let call = self
                .calls
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            if call == self.poison_call {
                c.set(0, 0, f32::NAN);
            }
        }

        fn name(&self) -> String {
            format!("faulty({})", self.inner.name())
        }
    }

    #[test]
    fn fallback_rerun_recovers_poisoned_batch_exactly() {
        // Each batch issues 5 backend calls (2 forward; dW, dX of the top
        // layer; dW of the bottom one, whose dX is never formed), so call
        // 6 poisons the *logits* product of batch 1 (caught by the
        // non-finite loss check) and call 9 poisons a *weight gradient*
        // of batch 1 (caught by the gradient check). Either way the batch
        // must be re-run on the exact fallback before any weight update,
        // leaving the trajectory bitwise identical to a fault-free run.
        let data = toy_dataset(200);
        let mut clean = toy_mlp();
        for e in 0..5 {
            let stats = clean.train_epoch(&data, 20, 0.1, e);
            assert_eq!(stats.degraded_batches, 0, "no fallback configured");
        }
        let acc_clean = clean.evaluate(&data, 50);

        for poison_call in [6u64, 9u64] {
            let faulty: Backend = std::sync::Arc::new(FaultyBackend {
                inner: classical(1),
                poison_call,
                calls: std::sync::atomic::AtomicU64::new(0),
            });
            let mut net =
                Mlp::new(&[8, 16, 2], vec![faulty.clone(), faulty], 7).with_fallback(classical(1));
            let mut per_epoch = 0u64;
            for e in 0..5 {
                per_epoch += net.train_epoch(&data, 20, 0.1, e).degraded_batches;
            }
            assert_eq!(net.degraded_batches(), 1, "exactly one batch re-run");
            assert_eq!(per_epoch, 1, "EpochStats must surface the event");
            for (lc, lf) in clean.layers.iter().zip(&net.layers) {
                assert_eq!(lc.w, lf.w, "recovered weights must match fault-free run");
            }
            assert_eq!(net.evaluate(&data, 50), acc_clean);
        }
    }
}
