//! Zero-allocation invariants for the serving-side inference path and
//! the steady-state training step.
//!
//! Installs [`apa_gemm::CountingAlloc`] as the global allocator, warms
//! [`Mlp::predict_into`]'s scratch and the backends' workspace caches with
//! a couple of calls, then asserts that further inference passes at the
//! same batch size perform **zero** heap allocations — the contract the
//! `apa-serve` lane workers rely on for per-request latency. The same
//! holds for [`Mlp::train_batch`]: its multiplies write layer-owned
//! buffers and read transposed views, so a warm step allocates nothing.

use apa_gemm::{thread_allocation_counters, Mat};
use apa_nn::{classical, guarded, planned, Backend, InferenceScratch, Mlp};

#[global_allocator]
static ALLOC: apa_gemm::CountingAlloc = apa_gemm::CountingAlloc;

/// The tests share the process-wide allocation counters, the gemm pool and
/// the fault switches, so they serialize.
fn serial() -> std::sync::MutexGuard<'static, ()> {
    static M: std::sync::Mutex<()> = std::sync::Mutex::new(());
    M.lock().unwrap_or_else(|p| p.into_inner())
}

fn probe(rows: usize, cols: usize, seed: u64) -> Mat<f32> {
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
    Mat::from_fn(rows, cols, |_, _| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (((state >> 32) as u32 as f64 / (1u64 << 31) as f64) - 1.0) as f32
    })
}

fn assert_warm_inference_is_allocation_free(net: &Mlp, batch: usize, what: &str) {
    let x = probe(batch, net.widths()[0], 7);
    let mut scratch = InferenceScratch::new();
    let mut out = Mat::zeros(0, 0);
    // Two warmup passes: the first sizes the scratch and builds the
    // backend workspaces, the second settles the thread-local gemm pack
    // buffers at their high-water mark.
    net.predict_into(x.as_ref(), &mut out, &mut scratch);
    net.predict_into(x.as_ref(), &mut out, &mut scratch);

    let before = thread_allocation_counters();
    let rounds = 5;
    for _ in 0..rounds {
        net.predict_into(x.as_ref(), &mut out, &mut scratch);
    }
    let delta = thread_allocation_counters().since(before);
    assert_eq!(
        delta.calls, 0,
        "{what}: {} allocations ({} bytes) across {rounds} warm inference passes",
        delta.calls, delta.bytes
    );
}

#[test]
fn warm_classical_inference_does_not_allocate() {
    let _serial = serial();
    let net = Mlp::new(&[24, 32, 32, 10], vec![classical(1); 3], 11);
    assert_warm_inference_is_allocation_free(&net, 16, "classical 24-32-32-10");
}

#[test]
fn warm_guarded_apa_inference_does_not_allocate() {
    let _serial = serial();
    // The guarded backend's ladder, workspace cache and probe scratch are
    // all grow-only, so the sentinel-guarded serving path must preserve
    // the invariant too (probes sample at the default rate).
    let hidden: Backend = guarded(apa_core::catalog::bini322(), 1);
    let backends: Vec<Backend> = vec![classical(1), hidden, classical(1)];
    let net = Mlp::new(&[24, 30, 30, 10], backends, 13);
    assert_warm_inference_is_allocation_free(&net, 30, "guarded-bini322 24-30-30-10");
}

#[test]
fn warmed_backends_are_allocation_free_from_the_first_multiply() {
    // The `MatmulBackend::warm` contract: after `warm(&[shape])` the first
    // real multiply on that shape allocates nothing. Pack buffers are
    // thread-local, so each backend runs on a fresh thread.
    let _serial = serial();
    let (m, k, n) = (16, 300, 200);
    let backends: Vec<Backend> = vec![
        classical(1),
        guarded(apa_core::catalog::bini322(), 1),
        planned(1),
    ];
    for backend in &backends {
        std::thread::scope(|s| {
            s.spawn(|| {
                backend.warm(&[(m, k, n)]);
                let a = probe(m, k, 21);
                let b = probe(k, n, 22);
                let mut c = Mat::zeros(m, n);
                let before = thread_allocation_counters();
                backend.matmul_into(a.as_ref(), b.as_ref(), c.as_mut());
                let delta = thread_allocation_counters().since(before);
                assert_eq!(
                    delta.calls,
                    0,
                    "{}: first multiply after warm made {} allocations ({} bytes)",
                    backend.name(),
                    delta.calls,
                    delta.bytes
                );
            });
        });
    }
}

fn assert_warm_training_is_allocation_free(net: &mut Mlp, batch: usize, what: &str) {
    let x = probe(batch, net.widths()[0], 5);
    let classes = net.widths()[net.widths().len() - 1];
    let labels: Vec<u8> = (0..batch).map(|i| (i * 7 % classes) as u8).collect();
    // Two warm-up steps size every layer buffer, the loss gradient, the
    // backend workspaces and the thread-local pack buffers.
    net.train_batch(&x, &labels, 0.05);
    net.train_batch(&x, &labels, 0.05);

    let before = thread_allocation_counters();
    let steps = 3;
    for _ in 0..steps {
        net.train_batch(&x, &labels, 0.05);
    }
    let delta = thread_allocation_counters().since(before);
    assert_eq!(
        delta.calls, 0,
        "{what}: {} allocations ({} bytes) across {steps} warm training steps",
        delta.calls, delta.bytes
    );
}

#[test]
fn warm_training_step_does_not_allocate() {
    let _serial = serial();
    let mut net = Mlp::new(&[24, 32, 32, 10], vec![classical(1); 3], 17);
    assert_warm_training_is_allocation_free(&mut net, 16, "classical 24-32-32-10");
    // Every layer guarded: sentinel probes, ABFT checksums and the ladder
    // on the forward, dW (transposed A) and dX (transposed B) products,
    // with 3 ∤ batch so the peel runs.
    let hidden: Backend = guarded(apa_core::catalog::bini322(), 1);
    let mut net = Mlp::new(&[24, 30, 30, 10], vec![hidden; 3], 19);
    assert_warm_training_is_allocation_free(&mut net, 20, "guarded-bini322 24-30-30-10");
}
