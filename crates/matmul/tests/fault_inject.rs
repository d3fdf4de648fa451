//! End-to-end fault-injection drills for the sentinel + degradation
//! ladder (`--features fault-inject` only).
//!
//! Each test installs a deterministic [`apa_matmul::fault`] plan, drives a
//! [`GuardedApaMatmul`] through it and asserts that (1) the fault was
//! actually applied, (2) the sentinel caught it, and (3) the product the
//! caller receives is healthy — the whole point of the ladder is that a
//! fault costs a retry, never a corrupted result.
//!
//! The fault registry is process-global, so every test serializes on
//! [`LOCK`].

#![cfg(feature = "fault-inject")]

use apa_core::catalog;
use apa_gemm::{matmul_naive, Mat};
use apa_matmul::fault::{self, Fault, FaultKind};
use apa_matmul::{ApaMatmul, GuardedApaMatmul, MatmulError, SentinelConfig, Strategy};
use std::sync::Mutex;
use std::time::Duration;

static LOCK: Mutex<()> = Mutex::new(());

fn probe(rows: usize, cols: usize, seed: u64) -> Mat<f32> {
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
    Mat::from_fn(rows, cols, |_, _| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (((state >> 32) as u32 as f64 / (1u64 << 31) as f64) - 1.0) as f32
    })
}

fn guard() -> GuardedApaMatmul {
    GuardedApaMatmul::from_matmul(
        ApaMatmul::new(catalog::bini322())
            .strategy(Strategy::Seq)
            .threads(1),
    )
}

/// Healthy-call APA error level for bini322 at the default λ — the bar a
/// recovered product has to clear.
const HEALTHY_ERR: f64 = 5e-3;

#[test]
fn corrupted_product_is_caught_and_recomputed() {
    let _g = LOCK.lock().unwrap();
    let a = probe(30, 20, 1);
    let b = probe(20, 22, 2);
    let expect = matmul_naive(a.as_ref(), b.as_ref());
    let mm = guard();
    fault::install(&[Fault {
        at_call: 1,
        kind: FaultKind::CorruptOutput { scale: 1e4 },
    }]);
    for _ in 0..4 {
        let c = mm.multiply(a.as_ref(), b.as_ref());
        // Every returned product — including the faulted call — must be
        // at the healthy APA error level.
        let err = c.rel_frobenius_error(&expect);
        assert!(err < HEALTHY_ERR, "returned product err {err}");
    }
    fault::clear();
    assert_eq!(fault::injected_count(), 1, "fault must fire exactly once");
    let h = mm.health();
    assert_eq!(h.calls, 4);
    assert_eq!(h.probe_failures, 1, "{h:?}");
    assert_eq!(h.demotions, 1, "{h:?}");
    assert_eq!(
        h.degraded_calls(),
        3,
        "faulted call + sticky demotion: {h:?}"
    );
}

#[test]
fn seeded_nan_and_inf_are_caught_even_without_the_probe() {
    let _g = LOCK.lock().unwrap();
    let a = probe(24, 16, 3);
    let b = probe(16, 18, 4);
    let expect = matmul_naive(a.as_ref(), b.as_ref());
    // probe_every = 0: residual probe disabled, only the fused non-finite
    // scan stands guard — NaN/Inf faults must still never escape.
    let mm = guard().sentinel(SentinelConfig {
        probe_every: 0,
        ..SentinelConfig::default()
    });
    fault::install(&[
        Fault {
            at_call: 0,
            kind: FaultKind::SeedNan,
        },
        Fault {
            at_call: 2,
            kind: FaultKind::SeedInf,
        },
    ]);
    for _ in 0..3 {
        let c = mm.multiply(a.as_ref(), b.as_ref());
        for i in 0..c.rows() {
            for j in 0..c.cols() {
                assert!(c.at(i, j).is_finite(), "non-finite value escaped");
            }
        }
        assert!(c.rel_frobenius_error(&expect) < HEALTHY_ERR);
    }
    fault::clear();
    assert_eq!(fault::injected_count(), 2);
    let h = mm.health();
    assert_eq!(h.nonfinite_detected, 2, "{h:?}");
    assert!(h.demotions >= 2, "{h:?}");
}

#[test]
fn perturbed_lambda_trips_the_residual_probe() {
    let _g = LOCK.lock().unwrap();
    let a = probe(30, 20, 5);
    let b = probe(20, 20, 6);
    let expect = matmul_naive(a.as_ref(), b.as_ref());
    let mm = guard();
    // λ shifted 2⁸ off the optimum: finite output, wildly out-of-model
    // error — only the Freivalds probe can see it.
    fault::install(&[Fault {
        at_call: 0,
        kind: FaultKind::PerturbLambda { factor: 256.0 },
    }]);
    let c = mm.multiply(a.as_ref(), b.as_ref());
    fault::clear();
    assert_eq!(fault::injected_count(), 1);
    assert!(c.rel_frobenius_error(&expect) < HEALTHY_ERR);
    let h = mm.health();
    assert!(h.probe_failures >= 1, "{h:?}");
    assert!(h.demotions >= 1, "{h:?}");
}

#[test]
fn unsampled_finite_corruption_documents_the_probe_rate_tradeoff() {
    let _g = LOCK.lock().unwrap();
    let a = probe(24, 16, 7);
    let b = probe(16, 18, 8);
    // With the probe disabled, a *finite* corruption is invisible to the
    // non-finite scan — the documented trade-off of lowering the probe
    // rate. (NaN/Inf are still always caught, see above.)
    let mm = guard().sentinel(SentinelConfig {
        probe_every: 0,
        ..SentinelConfig::default()
    });
    fault::install(&[Fault {
        at_call: 0,
        kind: FaultKind::CorruptOutput { scale: 1e4 },
    }]);
    let _c = mm.multiply(a.as_ref(), b.as_ref());
    fault::clear();
    assert_eq!(fault::injected_count(), 1);
    let h = mm.health();
    assert_eq!(
        h.demotions, 0,
        "scan-only mode cannot see finite corruption"
    );
}

#[test]
fn panicked_lane_surfaces_as_a_typed_error_and_the_next_multiply_succeeds() {
    let _g = LOCK.lock().unwrap();
    fault::clear();
    let a = probe(64, 48, 11);
    let b = probe(48, 40, 12);
    let expect = matmul_naive(a.as_ref(), b.as_ref());
    // The depth-0 classical multiplier (one parallel gemm) and a chain of
    // two rules (parallel products over a recursion level) alike.
    for (what, mm, tol) in [
        ("classical", ApaMatmul::classical().threads(2), 1e-5),
        (
            "bini322 → strassen chain",
            ApaMatmul::chain(vec![catalog::bini322(), catalog::strassen()]).threads(2),
            2e-2,
        ),
    ] {
        let mut c = Mat::<f32>::zeros(64, 40);

        // Arm the one-shot lane switch directly: the next gemm lane
        // dequeued anywhere panics mid-stripe.
        apa_gemm::pool::lane_fault::arm_panic();
        let err = mm
            .try_multiply_into(a.as_ref(), b.as_ref(), c.as_mut())
            .unwrap_err();
        match &err {
            MatmulError::WorkerPanicked { detail } => {
                assert!(detail.contains("injected lane panic"), "{what}: {detail}")
            }
            other => panic!("{what}: expected WorkerPanicked, got {other:?}"),
        }

        // The pool was rebuilt: the very next multiply on the same
        // instance must succeed, at full quality.
        mm.try_multiply_into(a.as_ref(), b.as_ref(), c.as_mut())
            .unwrap();
        let err = c.rel_frobenius_error(&expect);
        assert!(err < tol, "{what}: {err}");
    }
}

#[test]
fn guard_absorbs_a_lane_panic_by_demoting() {
    let _g = LOCK.lock().unwrap();
    let a = probe(64, 48, 13);
    let b = probe(48, 40, 14);
    let expect = matmul_naive(a.as_ref(), b.as_ref());
    // Parallel execution so a worker lane actually exists to kill; the
    // hybrid schedule must unwind out of its barrier, not deadlock.
    let mm = GuardedApaMatmul::from_matmul(
        ApaMatmul::new(catalog::bini322())
            .strategy(Strategy::Hybrid)
            .threads(2),
    );
    fault::install(&[Fault {
        at_call: 0,
        kind: FaultKind::PanicInLane,
    }]);
    let c = mm.multiply(a.as_ref(), b.as_ref());
    fault::clear();
    assert_eq!(
        fault::injected_count(),
        1,
        "lane switch must have been armed"
    );
    assert!(c.rel_frobenius_error(&expect) < HEALTHY_ERR);
    let h = mm.health();
    assert!(h.worker_panics >= 1, "{h:?}");
    assert!(h.demotions >= 1, "{h:?}");
    // The fault is gone: the next call (on the demoted rung) is clean.
    let c2 = mm.multiply(a.as_ref(), b.as_ref());
    assert!(c2.rel_frobenius_error(&expect) < HEALTHY_ERR);
    assert_eq!(mm.health().worker_panics, h.worker_panics);
}

#[test]
fn stalled_lane_trips_the_watchdog_and_demotes() {
    let _g = LOCK.lock().unwrap();
    let a = probe(64, 48, 15);
    let b = probe(48, 40, 16);
    let expect = matmul_naive(a.as_ref(), b.as_ref());
    let mm = GuardedApaMatmul::from_matmul(
        ApaMatmul::new(catalog::bini322())
            .strategy(Strategy::Hybrid)
            .threads(2),
    )
    .watchdog(Duration::from_millis(100));
    // The one-shot stall holds the first lane dequeued for 1.5 s — far
    // past the 100 ms deadline — so rung 0 times out and the call lands
    // on a lower rung (the stall switch is consumed; the retry is clean).
    fault::install(&[Fault {
        at_call: 0,
        kind: FaultKind::StallLane { millis: 1500 },
    }]);
    let c = mm.multiply(a.as_ref(), b.as_ref());
    fault::clear();
    assert_eq!(fault::injected_count(), 1);
    assert!(c.rel_frobenius_error(&expect) < HEALTHY_ERR);
    let h = mm.health();
    assert!(h.watchdog_timeouts >= 1, "{h:?}");
    assert!(h.demotions >= 1, "{h:?}");
    assert!(mm.current_rung(64, 48, 40).unwrap() >= 1);
}

#[test]
fn restored_guard_replays_the_same_ladder_decisions() {
    let _g = LOCK.lock().unwrap();
    let a = probe(24, 16, 17);
    let b = probe(16, 18, 18);

    // Original guard lives through a scripted fault at call 1.
    let mm1 = guard();
    fault::install(&[Fault {
        at_call: 1,
        kind: FaultKind::CorruptOutput { scale: 1e4 },
    }]);
    for _ in 0..4 {
        mm1.multiply(a.as_ref(), b.as_ref());
    }
    fault::clear();
    let snapshot = mm1.export_state();
    assert_eq!(snapshot.calls, 4);

    // A fresh identically-configured guard restores the snapshot, then
    // both face the *same* scripted future (fault at call index 5).
    let mm2 = guard();
    mm2.restore_state(&snapshot).unwrap();
    assert_eq!(mm2.export_state(), snapshot);

    let future = [Fault {
        at_call: 5,
        kind: FaultKind::SeedNan,
    }];
    fault::install(&future);
    for _ in 0..3 {
        mm1.multiply(a.as_ref(), b.as_ref());
    }
    fault::clear();
    fault::install(&future);
    for _ in 0..3 {
        mm2.multiply(a.as_ref(), b.as_ref());
    }
    fault::clear();

    // Identical rung decisions, probe schedule and counters.
    assert_eq!(mm1.export_state(), mm2.export_state());
    assert_eq!(mm1.health(), mm2.health());
    assert!(mm1.health().nonfinite_detected >= 1, "{:?}", mm1.health());
}

#[test]
fn hysteresis_repromotes_after_the_fault_clears() {
    let _g = LOCK.lock().unwrap();
    let a = probe(24, 16, 9);
    let b = probe(16, 18, 10);
    let expect = matmul_naive(a.as_ref(), b.as_ref());
    let mm = guard().policy(apa_matmul::DegradePolicy {
        promote_after: 3,
        max_backoff: 4,
        promotion_jitter: 0.0, // the drill counts exact streak lengths
        ..apa_matmul::DegradePolicy::default()
    });
    fault::install(&[Fault {
        at_call: 0,
        kind: FaultKind::CorruptOutput { scale: 1e4 },
    }]);
    mm.multiply(a.as_ref(), b.as_ref());
    fault::clear();
    assert_eq!(mm.current_rung(24, 16, 18), Some(1), "demoted by the fault");
    // One prior demotion → promotion needs 3·2¹ = 6 clean calls.
    for _ in 0..6 {
        let c = mm.multiply(a.as_ref(), b.as_ref());
        assert!(c.rel_frobenius_error(&expect) < HEALTHY_ERR);
    }
    assert_eq!(
        mm.current_rung(24, 16, 18),
        Some(0),
        "clean streak re-promotes"
    );
    let h = mm.health();
    assert_eq!(h.promotions, 1, "{h:?}");
}
