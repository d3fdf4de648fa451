//! The ABFT checksum tier through the guarded matmul: fault-free runs are
//! bitwise transparent at catalog λ (no false positives, no demotions),
//! and — with `--features fault-inject` — injected single-bit flips in
//! the gemm leaves are detected, surgically repaired in place and only
//! escalate the rung ladder when configured to.
//!
//! The fault plan and bit-flip switches are process-global, so tests
//! serialize on one lock.

use apa_core::catalog;
use apa_gemm::Mat;
use apa_matmul::{AbftMode, ApaMatmul, GuardedApaMatmul, SentinelConfig, Strategy};
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

static LOCK: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn probe_mat(rows: usize, cols: usize, seed: u64) -> Mat<f32> {
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
    Mat::from_fn(rows, cols, |_, _| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (((state >> 32) as u32 as f64 / (1u64 << 31) as f64) - 1.0) as f32
    })
}

fn assert_bitwise_eq(a: &Mat<f32>, b: &Mat<f32>, what: &str) {
    assert_eq!((a.rows(), a.cols()), (b.rows(), b.cols()));
    for i in 0..a.rows() {
        for j in 0..a.cols() {
            assert_eq!(
                a.at(i, j).to_bits(),
                b.at(i, j).to_bits(),
                "{what}: ({i},{j})"
            );
        }
    }
}

#[test]
fn abft_tier_is_bitwise_transparent_on_fault_free_apa_runs() {
    let _g = lock();
    // Catalog λ (the tuned optimum): the APA approximation error lives
    // between the leaves, so the leaf checksums must never fire.
    let on = GuardedApaMatmul::new(catalog::bini322());
    let off = GuardedApaMatmul::new(catalog::bini322()).sentinel(SentinelConfig {
        abft: AbftMode::Off,
        ..SentinelConfig::default()
    });
    // Divisible and ragged (peeled) shapes, and a batch-64 training step
    // (64 = 3·21 + 1: the M tail padded through the last block row, the
    // leaves' S/T combined in the pack under the default `Auto`).
    for (s, &(m, k, n)) in [
        (30usize, 20usize, 22usize),
        (31, 21, 23),
        (12, 8, 10),
        (64, 256, 256),
    ]
    .iter()
    .enumerate()
    {
        let a = probe_mat(m, k, 2 * s as u64 + 1);
        let b = probe_mat(k, n, 2 * s as u64 + 2);
        let c_on = on.multiply(a.as_ref(), b.as_ref());
        let c_off = off.multiply(a.as_ref(), b.as_ref());
        assert_bitwise_eq(&c_on, &c_off, "ABFT on vs off");
    }
    let h = on.health();
    assert!(h.abft_checks > 0, "checksum tier never ran: {h:?}");
    assert_eq!(h.abft_detected, 0, "false positive: {h:?}");
    assert_eq!(h.abft_repaired, 0, "{h:?}");
    assert_eq!(h.abft_escalations, 0, "{h:?}");
    assert_eq!(h.demotions, 0, "false-positive demotion: {h:?}");
    let h_off = off.health();
    assert_eq!(h_off.abft_checks, 0, "Off mode must not check: {h_off:?}");
}

#[test]
fn lanes_and_the_watchdog_helper_check_under_the_callers_session() {
    let _g = lock();
    // Checksum sessions are per thread: Hybrid lanes on pool workers and
    // the watchdog's helper thread must install the guard's session, or
    // their leaves would run unchecked and the counts below would drop.
    let guard = |strategy, threads| {
        GuardedApaMatmul::from_matmul(
            ApaMatmul::new(catalog::bini322())
                .strategy(strategy)
                .threads(threads),
        )
    };
    let a = probe_mat(31, 20, 61);
    let b = probe_mat(20, 22, 62);
    let seq = guard(Strategy::Seq, 1);
    let reference = seq.multiply(a.as_ref(), b.as_ref());
    let checks = seq.health().abft_checks;
    assert!(checks > 0, "checksum tier never ran");
    for (what, mm) in [
        ("hybrid lanes", guard(Strategy::Hybrid, 2)),
        (
            "watchdog helper",
            guard(Strategy::Seq, 1).watchdog(Duration::from_secs(60)),
        ),
    ] {
        let c = mm.multiply(a.as_ref(), b.as_ref());
        assert_bitwise_eq(&c, &reference, what);
        assert_eq!(mm.health().abft_checks, checks, "{what}");
    }
}

#[test]
fn abft_counters_merge_and_round_trip_through_guard_state() {
    let _g = lock();
    let guard = GuardedApaMatmul::new(catalog::bini322());
    let a = probe_mat(12, 8, 91);
    let b = probe_mat(8, 10, 92);
    for _ in 0..3 {
        guard.multiply(a.as_ref(), b.as_ref());
    }
    let h = guard.health();
    assert!(h.abft_checks > 0);

    // merge() accumulates the ABFT counters like every other field.
    let mut merged = apa_matmul::HealthStats::default();
    merged.merge(&h);
    merged.merge(&h);
    assert_eq!(merged.abft_checks, 2 * h.abft_checks);

    // export/restore round-trips them.
    let snapshot = guard.export_state();
    assert_eq!(snapshot.stats.abft_checks, h.abft_checks);
    let fresh = GuardedApaMatmul::new(catalog::bini322());
    fresh.restore_state(&snapshot).unwrap();
    assert_eq!(fresh.health().abft_checks, h.abft_checks);
}

#[cfg(feature = "fault-inject")]
mod injected {
    use super::*;
    use apa_matmul::fault::{self, Fault, FaultKind, FlipTarget};

    /// Drive one guard through a bit-flip drill: arm `kind` at guard
    /// call `at_call`, run `calls` multiplies, return (guard, outputs).
    fn drill(
        sentinel: SentinelConfig,
        target: FlipTarget,
        index: usize,
        bit: u32,
        at_call: u64,
        calls: u64,
        shape: (usize, usize, usize),
    ) -> (GuardedApaMatmul, Vec<Mat<f32>>) {
        let (m, k, n) = shape;
        let guard = GuardedApaMatmul::new(catalog::bini322()).sentinel(sentinel);
        fault::install(&[Fault {
            at_call,
            kind: FaultKind::BitFlip { target, index, bit },
        }]);
        let a = probe_mat(m, k, 171);
        let b = probe_mat(k, n, 172);
        let outs = (0..calls)
            .map(|_| guard.multiply(a.as_ref(), b.as_ref()))
            .collect();
        fault::clear();
        (guard, outs)
    }

    fn clean_reference(
        sentinel: SentinelConfig,
        calls: u64,
        shape: (usize, usize, usize),
    ) -> Vec<Mat<f32>> {
        let (m, k, n) = shape;
        fault::clear();
        let guard = GuardedApaMatmul::new(catalog::bini322()).sentinel(sentinel);
        let a = probe_mat(m, k, 171);
        let b = probe_mat(k, n, 172);
        (0..calls)
            .map(|_| guard.multiply(a.as_ref(), b.as_ref()))
            .collect()
    }

    #[test]
    fn exponent_flip_is_repaired_in_place_with_no_demotion() {
        let _g = lock();
        let sent = SentinelConfig::default();
        // A small divisible shape and a batch-64 training step.
        for (shape, target) in [(30, 20, 22), (64, 256, 256)]
            .into_iter()
            .flat_map(|shape| {
                [FlipTarget::PackA, FlipTarget::PackB, FlipTarget::Output].map(|t| (shape, t))
            })
        {
            let fired_before = apa_gemm::abft::sdc::injected();
            let (guard, outs) = drill(sent, target, 7, 30, 1, 3, shape);
            assert_eq!(
                apa_gemm::abft::sdc::injected(),
                fired_before + 1,
                "{shape:?} {target:?}: flip did not fire"
            );
            let clean = clean_reference(sent, 3, shape);
            for (i, (c, r)) in outs.iter().zip(&clean).enumerate() {
                assert_bitwise_eq(c, r, &format!("{shape:?} {target:?} call {i}"));
            }
            let h = guard.health();
            assert!(h.abft_detected >= 1, "{shape:?} {target:?}: {h:?}");
            assert!(h.abft_repaired >= 1, "{shape:?} {target:?}: {h:?}");
            assert_eq!(h.abft_escalations, 0, "{shape:?} {target:?}: {h:?}");
            assert_eq!(
                h.demotions, 0,
                "repair must not demote: {shape:?} {target:?}: {h:?}"
            );
            assert_eq!(h.probe_failures, 0, "{shape:?} {target:?}: {h:?}");
            assert_eq!(guard.current_rung(shape.0, shape.1, shape.2), Some(0));
        }
    }

    #[test]
    fn flip_in_the_padded_tail_block_row_is_repaired() {
        let _g = lock();
        // 33 rows under Strassen: A's block row 1 is the padded tail (A's
        // rows 17..33 plus one zero row), and the first product
        // M1 = (A00 + A11)(B00 + B11) packs it. Index 16 + 17·3 aims every
        // target at row 16 of that leaf — A00's last row plus the tail's
        // zero row.
        let (m, k, n) = (33, 20, 22);
        let a = probe_mat(m, k, 181);
        let b = probe_mat(k, n, 182);
        let clean = GuardedApaMatmul::new(catalog::strassen()).multiply(a.as_ref(), b.as_ref());
        for target in [FlipTarget::PackA, FlipTarget::PackB, FlipTarget::Output] {
            let guard = GuardedApaMatmul::new(catalog::strassen());
            fault::install(&[Fault {
                at_call: 0,
                kind: FaultKind::BitFlip {
                    target,
                    index: 16 + 17 * 3,
                    bit: 30,
                },
            }]);
            let fired_before = apa_gemm::abft::sdc::injected();
            let c = guard.multiply(a.as_ref(), b.as_ref());
            fault::clear();
            assert_eq!(
                apa_gemm::abft::sdc::injected(),
                fired_before + 1,
                "{target:?}: flip did not fire"
            );
            assert_bitwise_eq(&c, &clean, &format!("{target:?}"));
            let h = guard.health();
            assert!(h.abft_detected >= 1, "{target:?}: {h:?}");
            assert!(h.abft_repaired >= 1, "{target:?}: {h:?}");
            assert_eq!(h.demotions, 0, "repair must not demote: {target:?}: {h:?}");
        }
    }

    #[test]
    fn escalate_after_one_offense_demotes_the_shape() {
        let _g = lock();
        let shape = (30, 20, 22);
        let sent = SentinelConfig {
            abft: AbftMode::On {
                slack: apa_gemm::DEFAULT_SLACK,
                escalate_after: 1,
            },
            ..SentinelConfig::default()
        };
        let (guard, outs) = drill(sent, FlipTarget::Output, 3, 30, 0, 1, shape);
        // The call lands on a deeper rung (different bits than rung 0 by
        // design) but the returned product is clean and accurate.
        let a = probe_mat(shape.0, shape.1, 171);
        let b = probe_mat(shape.1, shape.2, 172);
        let expect = apa_gemm::matmul_naive(a.as_ref(), b.as_ref());
        let err = outs[0].rel_frobenius_error(&expect);
        assert!(err < 5e-3, "escalated call output err {err}");
        let h = guard.health();
        assert!(h.abft_detected >= 1, "{h:?}");
        assert_eq!(h.abft_escalations, 1, "{h:?}");
        assert!(h.demotions >= 1, "escalation must demote: {h:?}");
        let rung = guard.current_rung(shape.0, shape.1, shape.2).unwrap();
        assert!(rung >= 1, "shape should sit on a demoted rung, got {rung}");
    }

    #[test]
    fn repaired_offense_streak_below_threshold_never_escalates() {
        let _g = lock();
        let shape = (30, 20, 22);
        // Default escalate_after = 3; two offenses stay invisible to the
        // ladder, and the clean call in between resets the streak.
        let guard = GuardedApaMatmul::new(catalog::bini322());
        let a = probe_mat(30, 20, 171);
        let b = probe_mat(20, 22, 172);
        fault::install(&[
            Fault {
                at_call: 0,
                kind: FaultKind::BitFlip {
                    target: FlipTarget::Output,
                    index: 11,
                    bit: 30,
                },
            },
            Fault {
                at_call: 2,
                kind: FaultKind::BitFlip {
                    target: FlipTarget::Output,
                    index: 11,
                    bit: 30,
                },
            },
        ]);
        for _ in 0..4 {
            guard.multiply(a.as_ref(), b.as_ref());
        }
        fault::clear();
        let h = guard.health();
        assert!(h.abft_detected >= 2, "{h:?}");
        assert_eq!(h.abft_escalations, 0, "{h:?}");
        assert_eq!(h.demotions, 0, "{h:?}");
        assert_eq!(guard.current_rung(shape.0, shape.1, shape.2), Some(0));
    }
}
