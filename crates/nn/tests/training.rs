//! NN training integration at the crate level: optimizers, backend
//! swapping mid-training, and gradient plumbing.

use apa_core::catalog;
use apa_nn::{
    apa, classical, guarded, softmax_cross_entropy, synthetic_mnist_split, Backend, MatmulBackend,
    Mlp, Optimizer, SgdConfig,
};

#[test]
fn momentum_training_on_synthetic_digits() {
    let (train, test) = synthetic_mnist_split(1000, 200, 0x31);
    let mut net = Mlp::new(&[784, 64, 10], vec![classical(1); 2], 5);
    let mut opt = Optimizer::new(
        SgdConfig {
            lr: 0.05,
            momentum: 0.9,
            weight_decay: 1e-4,
        },
        &net,
    );
    for e in 0..6 {
        let order = train.shuffled_indices(e as u64);
        for chunk in order.chunks(100) {
            if chunk.len() < 100 {
                break;
            }
            let (x, labels) = train.gather(chunk);
            let logits = net.forward(&x);
            let (_, grad) = softmax_cross_entropy(&logits, &labels);
            net.backward_only(&grad);
            opt.step(&mut net);
        }
    }
    let acc = net.evaluate(&test, 200);
    assert!(acc > 0.85, "momentum training accuracy {acc}");
}

#[test]
fn backend_swap_mid_training_preserves_learning() {
    // Train 3 epochs classical, swap the middle layer to APA, train 3 more:
    // accuracy must keep improving (the operators are interchangeable).
    let (train, test) = synthetic_mnist_split(1000, 200, 0x99);
    let mut net = apa_nn::accuracy_network(classical(1), 1, 1);
    for e in 0..3 {
        net.train_epoch(&train, 100, 0.1, e);
    }
    let mid = net.evaluate(&test, 200);
    net.layers[1].set_backend(apa(catalog::fast444(), 1));
    for e in 3..6 {
        net.train_epoch(&train, 100, 0.1, e);
    }
    let end = net.evaluate(&test, 200);
    assert!(
        end >= mid - 0.02,
        "accuracy regressed after backend swap: {mid} → {end}"
    );
}

/// Delegates to an exact inner backend but poisons one chosen call with a
/// NaN — a transient numerical fault striking mid-training.
struct FaultyBackend {
    inner: Backend,
    poison_call: u64,
    calls: std::sync::atomic::AtomicU64,
}

impl MatmulBackend for FaultyBackend {
    fn matmul_into(
        &self,
        a: apa_gemm::MatRef<'_, f32>,
        b: apa_gemm::MatRef<'_, f32>,
        mut c: apa_gemm::MatMut<'_, f32>,
    ) {
        self.inner.matmul_into(a, b, c.rb());
        if self
            .calls
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed)
            == self.poison_call
        {
            c.set(0, 0, f32::NAN);
        }
    }

    fn name(&self) -> String {
        format!("faulty({})", self.inner.name())
    }
}

#[test]
fn mnist_recovers_from_mid_epoch_fault() {
    // ISSUE acceptance: a synthetic-MNIST run with a fault injected
    // mid-epoch must converge within 0.5% of the fault-free accuracy.
    // With the fallback installed, the poisoned batch is re-run before any
    // weight update, so the trajectory matches the fault-free run exactly.
    let (train, test) = synthetic_mnist_split(1000, 200, 0x42);
    let epochs = 6;

    let mut net_clean = Mlp::new(&[784, 64, 10], vec![classical(1); 2], 11);
    for e in 0..epochs {
        net_clean.train_epoch(&train, 100, 0.1, e);
    }
    let acc_clean = net_clean.evaluate(&test, 200);
    assert!(acc_clean > 0.7, "fault-free baseline accuracy {acc_clean}");

    // 10 batches/epoch × 5 backend calls/batch (the bottom layer's dX is
    // never formed) = 50 calls per epoch; call 78 strikes the top layer's
    // dX — a gradient multiplication — midway through epoch 2.
    let faulty: Backend = std::sync::Arc::new(FaultyBackend {
        inner: classical(1),
        poison_call: 78,
        calls: std::sync::atomic::AtomicU64::new(0),
    });
    let mut net_faulted =
        Mlp::new(&[784, 64, 10], vec![faulty.clone(), faulty], 11).with_fallback(classical(1));
    let mut degraded = 0;
    for e in 0..epochs {
        degraded += net_faulted
            .train_epoch(&train, 100, 0.1, e)
            .degraded_batches;
    }
    assert_eq!(degraded, 1, "exactly one batch must be re-run on fallback");
    let acc_faulted = net_faulted.evaluate(&test, 200);
    assert!(
        (acc_clean - acc_faulted).abs() <= 0.005,
        "faulted run must converge within 0.5%: clean {acc_clean}, faulted {acc_faulted}"
    );
}

#[test]
fn guarded_backend_trains_like_plain_apa() {
    // The sentinel-guarded APA backend must train a real (small) MNIST
    // model without spurious demotions — healthy training traffic stays on
    // rung 0 and reaches the same accuracy regime as unguarded APA.
    let (train, test) = synthetic_mnist_split(1000, 200, 0x17);
    let backend = guarded(catalog::bini322(), 1);
    let mut net = Mlp::new(
        &[784, 64, 10],
        vec![backend.clone() as Backend, backend.clone() as Backend],
        23,
    );
    for e in 0..4 {
        net.train_epoch(&train, 100, 0.1, e);
    }
    let acc = net.evaluate(&test, 200);
    assert!(acc > 0.6, "guarded APA training accuracy {acc}");
    let h = backend.health();
    assert!(h.calls > 0);
    assert_eq!(h.demotions, 0, "healthy training must not demote: {h:?}");
    assert_eq!(h.degraded_calls(), 0, "{h:?}");
}

#[test]
fn gradients_flow_through_every_layer() {
    let (train, _) = synthetic_mnist_split(100, 1, 0x55);
    let mut net = apa_nn::performance_network(64, apa(catalog::strassen(), 1), 1, 2);
    let (x, labels) = train.gather(&(0..64).collect::<Vec<_>>());
    let logits = net.forward(&x);
    let (_, grad) = softmax_cross_entropy(&logits, &labels);
    net.backward_only(&grad);
    for (i, layer) in net.layers.iter().enumerate() {
        let gw = layer
            .grad_w()
            .unwrap_or_else(|| panic!("layer {i} missing grad"));
        let norm: f64 = gw.as_slice().iter().map(|v| (*v as f64).powi(2)).sum();
        assert!(norm > 0.0, "layer {i} has zero gradient");
        assert!(norm.is_finite(), "layer {i} gradient exploded");
    }
}

/// A backend that implements only `matmul_into` (and its name), like an
/// outside instrumentation wrapper: results are the inner backend's.
struct Passthrough(Backend);

impl MatmulBackend for Passthrough {
    fn matmul_into(
        &self,
        a: apa_gemm::MatRef<'_, f32>,
        b: apa_gemm::MatRef<'_, f32>,
        c: apa_gemm::MatMut<'_, f32>,
    ) {
        self.0.matmul_into(a, b, c);
    }

    fn name(&self) -> String {
        self.0.name()
    }
}

#[test]
fn public_layer_chain_is_bitwise_train_batch() {
    // The twin contract: stepping a network through the public pieces —
    // `Dense::forward` per layer, `softmax_cross_entropy`,
    // `Dense::backward` per layer (bottom layer's dX included),
    // `Dense::apply_sgd` — on a wrapped backend gives the losses and final
    // weights of `Mlp::train_batch` on the bare one, bit for bit. Batch 20
    // and widths 47-64-10 keep 3 ∤ m on every product, so bini322 peels.
    let (batch, widths) = (20usize, [47usize, 64, 10]);
    let batches: Vec<(apa_gemm::Mat<f32>, Vec<u8>)> = (0..3)
        .map(|s| {
            let x = apa_gemm::Mat::from_fn(batch, widths[0], |i, j| {
                (((i * 31 + j * 17 + s * 7) % 23) as f32 - 11.0) * 0.09
            });
            let labels = (0..batch)
                .map(|i| ((i * 3 + s) % widths[2]) as u8)
                .collect();
            (x, labels)
        })
        .collect();
    let lr = 0.1;
    for what in ["classical(1)", "guarded(bini322, 1)"] {
        let make = || -> Backend {
            match what {
                "classical(1)" => classical(1),
                _ => guarded(catalog::bini322(), 1),
            }
        };
        let bare = make();
        let wrapped: Backend = std::sync::Arc::new(Passthrough(make()));
        let mut plain = Mlp::new(&widths, vec![bare; 2], 0x7717);
        let mut twin = Mlp::new(&widths, vec![wrapped; 2], 0x7717);
        for step in 0..6 {
            let (x, labels) = &batches[step % batches.len()];
            let (loss, _) = plain.train_batch(x, labels, lr);
            let mut cur = x.clone();
            for layer in twin.layers.iter_mut() {
                cur = layer.forward(&cur);
            }
            let (twin_loss, mut grad) = softmax_cross_entropy(&cur, labels);
            for layer in twin.layers.iter_mut().rev() {
                grad = layer.backward(&grad);
            }
            for layer in twin.layers.iter_mut() {
                layer.apply_sgd(lr);
            }
            assert_eq!(loss.to_bits(), twin_loss.to_bits(), "{what} step {step}");
        }
        for (l, (p, t)) in plain.layers.iter().zip(&twin.layers).enumerate() {
            assert!(p.w == t.w && p.b == t.b, "{what}: layer {l} weights differ");
        }
    }
}
