//! Optimizers beyond plain SGD: momentum and weight decay (a natural
//! extension of the paper's training setup; the paper itself uses plain
//! batched SGD, which remains the default elsewhere).

use crate::checkpoint::{CheckpointError, LayerState};
use crate::net::Mlp;
use apa_gemm::Mat;

/// Configuration for SGD with optional momentum and L2 weight decay.
#[derive(Clone, Copy, Debug)]
pub struct SgdConfig {
    pub lr: f32,
    /// 0.0 = plain SGD.
    pub momentum: f32,
    /// L2 penalty coefficient added to the weight gradient.
    pub weight_decay: f32,
}

impl Default for SgdConfig {
    fn default() -> Self {
        Self {
            lr: 0.1,
            momentum: 0.0,
            weight_decay: 0.0,
        }
    }
}

/// Stateful optimizer holding per-layer velocity buffers.
pub struct Optimizer {
    pub cfg: SgdConfig,
    vel_w: Vec<Mat<f32>>,
    vel_b: Vec<Vec<f32>>,
}

impl Optimizer {
    /// Allocate velocity state matching `net`'s layers.
    pub fn new(cfg: SgdConfig, net: &Mlp) -> Self {
        let vel_w = net
            .layers
            .iter()
            .map(|l| Mat::zeros(l.inputs(), l.outputs()))
            .collect();
        let vel_b = net.layers.iter().map(|l| vec![0.0; l.outputs()]).collect();
        Self { cfg, vel_w, vel_b }
    }

    /// Copy out the velocity buffers for a checkpoint (same geometry as
    /// the layers they update).
    pub fn export_velocities(&self) -> Vec<LayerState> {
        self.vel_w
            .iter()
            .zip(&self.vel_b)
            .map(|(w, b)| LayerState {
                w: w.clone(),
                b: b.clone(),
            })
            .collect()
    }

    /// Restore velocity buffers from a checkpoint, refusing a geometry
    /// mismatch.
    pub fn restore_velocities(&mut self, saved: &[LayerState]) -> Result<(), CheckpointError> {
        let ok = saved.len() == self.vel_w.len()
            && saved
                .iter()
                .zip(&self.vel_w)
                .zip(&self.vel_b)
                .all(|((s, vw), vb)| {
                    (s.w.rows(), s.w.cols()) == (vw.rows(), vw.cols()) && s.b.len() == vb.len()
                });
        if !ok {
            return Err(CheckpointError::Mismatch {
                what: "optimizer velocity geometry differs from checkpoint".to_string(),
            });
        }
        for ((s, vw), vb) in saved.iter().zip(&mut self.vel_w).zip(&mut self.vel_b) {
            *vw = s.w.clone();
            vb.copy_from_slice(&s.b);
        }
        Ok(())
    }

    /// Consume the gradients stored by the last backward pass and update
    /// the weights: `v ← μ·v + (g + wd·w)`, `w ← w − lr·v`.
    pub fn step(&mut self, net: &mut Mlp) {
        assert_eq!(net.layers.len(), self.vel_w.len(), "optimizer/net mismatch");
        for (li, layer) in net.layers.iter_mut().enumerate() {
            let Some((weights, bias, gw, gb)) = layer.take_grads() else {
                continue;
            };
            let vw = &mut self.vel_w[li];
            let (mu, wd, lr) = (self.cfg.momentum, self.cfg.weight_decay, self.cfg.lr);
            for ((v, &g), w) in vw
                .as_mut_slice()
                .iter_mut()
                .zip(gw.as_slice())
                .zip(weights.as_mut_slice())
            {
                *v = mu * *v + (g + wd * *w);
                *w -= lr * *v;
            }
            let vb = &mut self.vel_b[li];
            for ((v, &g), b) in vb.iter_mut().zip(gb).zip(bias.iter_mut()) {
                *v = mu * *v + g;
                *b -= lr * *v;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::classical;
    use crate::loss::softmax_cross_entropy;
    use apa_gemm::Mat;

    fn toy_net() -> Mlp {
        Mlp::new(&[4, 8, 2], vec![classical(1); 2], 3)
    }

    fn toy_batch() -> (Mat<f32>, Vec<u8>) {
        let x = Mat::from_fn(6, 4, |i, j| {
            let c = (i % 2) as f32 * 2.0 - 1.0;
            c + (j as f32) * 0.05
        });
        let labels = (0..6).map(|i| (i % 2) as u8).collect();
        (x, labels)
    }

    fn train(cfg: SgdConfig, steps: usize) -> f32 {
        let mut net = toy_net();
        let mut opt = Optimizer::new(cfg, &net);
        let (x, labels) = toy_batch();
        let mut last = f32::MAX;
        for _ in 0..steps {
            let logits = net.forward(&x);
            let (loss, grad) = softmax_cross_entropy(&logits, &labels);
            last = loss;
            net.backward_only(&grad);
            opt.step(&mut net);
        }
        last
    }

    #[test]
    fn plain_sgd_reduces_loss() {
        let start = train(
            SgdConfig {
                lr: 0.0,
                ..Default::default()
            },
            1,
        );
        let end = train(
            SgdConfig {
                lr: 0.2,
                ..Default::default()
            },
            40,
        );
        assert!(end < start, "{end} !< {start}");
        assert!(end < 0.1, "loss should be near zero: {end}");
    }

    #[test]
    fn momentum_accelerates_on_this_problem() {
        let plain = train(
            SgdConfig {
                lr: 0.05,
                momentum: 0.0,
                weight_decay: 0.0,
            },
            15,
        );
        let momentum = train(
            SgdConfig {
                lr: 0.05,
                momentum: 0.9,
                weight_decay: 0.0,
            },
            15,
        );
        assert!(
            momentum < plain,
            "momentum {momentum} should beat plain {plain} in few steps"
        );
    }

    #[test]
    fn weight_decay_shrinks_weights() {
        let mut net = toy_net();
        let norm = |n: &Mlp| -> f64 {
            n.layers[0]
                .w
                .as_slice()
                .iter()
                .map(|v| (*v as f64).powi(2))
                .sum::<f64>()
                .sqrt()
        };
        let before = norm(&net);
        // Zero gradient steps with decay only: weights must shrink.
        let mut opt = Optimizer::new(
            SgdConfig {
                lr: 0.1,
                momentum: 0.0,
                weight_decay: 0.5,
            },
            &net,
        );
        let (x, labels) = toy_batch();
        let logits = net.forward(&x);
        let (_, grad) = softmax_cross_entropy(&logits, &labels);
        // Scale gradient to ~zero so decay dominates.
        let zero_grad = Mat::zeros(grad.rows(), grad.cols());
        net.backward_only(&zero_grad);
        opt.step(&mut net);
        let after = norm(&net);
        assert!(after < before, "{after} !< {before}");
    }

    #[test]
    fn step_consumes_gradients() {
        let mut net = toy_net();
        let mut opt = Optimizer::new(SgdConfig::default(), &net);
        let (x, labels) = toy_batch();
        let logits = net.forward(&x);
        let (_, grad) = softmax_cross_entropy(&logits, &labels);
        net.backward_only(&grad);
        assert!(net.layers[0].grad_w().is_some());
        opt.step(&mut net);
        assert!(net.layers[0].grad_w().is_none());
    }
}
