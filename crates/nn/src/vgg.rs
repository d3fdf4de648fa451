//! The fully connected block of VGG-19 (§5, Fig. 7).
//!
//! VGG-19's classifier head is three dense layers: 25088 → 4096 → 4096 →
//! 1000. The paper times forward+backward over *only these layers* (the
//! convolutional front-end merely supplies the 25088-vector of flattened
//! features, which we synthesize), comparing the ⟨4,4,2⟩ APA operator
//! against classical gemm across batch sizes.
//!
//! A `scale` divisor shrinks all three widths proportionally so the
//! experiment also runs quickly on small machines; `scale = 1` is the
//! paper's geometry.

use crate::backend::Backend;
use crate::layer::{Activation, Dense};
use crate::loss::softmax_cross_entropy_into;
use crate::net::{backprop, forward_layers};
use apa_gemm::Mat;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::time::Instant;

/// Paper widths of the VGG-19 classifier head.
pub const VGG_FC_WIDTHS: [usize; 4] = [25088, 4096, 4096, 1000];

/// The three-layer VGG-19 classifier head with a single backend on all
/// layers (the paper swaps the whole head between ⟨4,4,2⟩ and classical).
pub struct Vgg19Fc {
    pub fc: [Dense; 3],
    widths: [usize; 4],
    scale: usize,
    /// Loss gradient of the last step, reused.
    loss_grad: Mat<f32>,
}

impl Vgg19Fc {
    /// Build the head at `1/scale` of the paper's widths.
    pub fn new(backend: Backend, scale: usize, seed: u64) -> Self {
        assert!(scale >= 1);
        let widths = [
            VGG_FC_WIDTHS[0] / scale,
            VGG_FC_WIDTHS[1] / scale,
            VGG_FC_WIDTHS[2] / scale,
            VGG_FC_WIDTHS[3] / scale,
        ];
        let fc = [
            Dense::new(
                widths[0],
                widths[1],
                Activation::Relu,
                backend.clone(),
                seed,
            ),
            Dense::new(
                widths[1],
                widths[2],
                Activation::Relu,
                backend.clone(),
                seed + 1,
            ),
            Dense::new(
                widths[2],
                widths[3],
                Activation::Identity,
                backend,
                seed + 2,
            ),
        ];
        Self {
            fc,
            widths,
            scale,
            loss_grad: Mat::zeros(0, 0),
        }
    }

    pub fn widths(&self) -> [usize; 4] {
        self.widths
    }

    pub fn scale(&self) -> usize {
        self.scale
    }

    /// Synthetic flattened conv features for a batch (stands in for the
    /// convolutional front-end's output).
    pub fn synthetic_features(&self, batch: usize, seed: u64) -> Mat<f32> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        Mat::from_fn(batch, self.widths[0], |_, _| rng.gen_range(0.0..1.0))
    }

    /// Synthetic 1000-way (scaled) labels.
    pub fn synthetic_labels(&self, batch: usize, seed: u64) -> Vec<u8> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let classes = self.widths[3].min(256);
        (0..batch)
            .map(|_| rng.gen_range(0..classes) as u8)
            .collect()
    }

    /// One training step (forward + loss + backward + SGD) over the head;
    /// returns wall-clock seconds — the paper's per-batch metric. The
    /// [`crate::net::Mlp::train_batch`] step: layer-owned buffers, no
    /// gradient w.r.t. the input features.
    pub fn train_batch_timed(&mut self, x: &Mat<f32>, labels: &[u8], lr: f32) -> f64 {
        let t0 = Instant::now();
        forward_layers(&mut self.fc, x.as_ref());
        softmax_cross_entropy_into(self.fc[2].output(), labels, &mut self.loss_grad);
        backprop(&mut self.fc, x.as_ref(), &mut self.loss_grad);
        for l in &mut self.fc {
            l.apply_sgd(lr);
        }
        t0.elapsed().as_secs_f64()
    }

    /// Inference-only forward (for correctness tests).
    pub fn predict(&self, x: &Mat<f32>) -> Mat<f32> {
        let a1 = self.fc[0].forward_inference(x);
        let a2 = self.fc[1].forward_inference(&a1);
        self.fc[2].forward_inference(&a2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{apa, classical};
    use apa_core::catalog;

    #[test]
    fn scaled_widths() {
        let v = Vgg19Fc::new(classical(1), 16, 3);
        assert_eq!(v.widths(), [1568, 256, 256, 62]);
        assert_eq!(v.scale(), 16);
    }

    #[test]
    fn forward_shapes_through_head() {
        let v = Vgg19Fc::new(classical(1), 32, 5);
        let x = v.synthetic_features(8, 1);
        let y = v.predict(&x);
        assert_eq!((y.rows(), y.cols()), (8, v.widths()[3]));
    }

    #[test]
    fn training_step_runs_and_times() {
        let mut v = Vgg19Fc::new(classical(1), 32, 7);
        let x = v.synthetic_features(16, 2);
        let labels = v.synthetic_labels(16, 3);
        let secs = v.train_batch_timed(&x, &labels, 0.01);
        assert!(secs > 0.0);
    }

    #[test]
    fn apa_head_stays_close_to_classical() {
        // Same seed → same initial weights; one forward pass must agree to
        // within APA error.
        let x_seed = 11;
        let vc = Vgg19Fc::new(classical(1), 32, 13);
        let va = Vgg19Fc::new(apa(catalog::fast442(), 1), 32, 13);
        let x = vc.synthetic_features(8, x_seed);
        let yc = vc.predict(&x);
        let ya = va.predict(&x);
        let err = ya.rel_frobenius_error(&yc);
        assert!(err < 1e-3, "APA head diverges: {err}");
    }
}
