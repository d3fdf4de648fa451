//! Zero-allocation invariant for the workspace-reuse engine.
//!
//! Installs [`apa_gemm::CountingAlloc`] as the global allocator, warms the
//! [`ApaMatmul`] workspace cache and the thread-local gemm pack cache with a
//! couple of calls, then asserts that further multiplications on the same
//! shapes perform **zero** heap allocations — the tentpole contract of the
//! workspace subsystem.
//!
//! Runs everything in `Strategy::Seq` so no rayon pool machinery is
//! involved; the parallel strategies share the exact same buffer tree and
//! are covered bitwise elsewhere.

use apa_core::catalog;
use apa_gemm::{thread_allocation_counters, Mat};
use apa_matmul::{ApaMatmul, GuardedApaMatmul, PeelMode, SentinelConfig, Strategy};

#[global_allocator]
static ALLOC: apa_gemm::CountingAlloc = apa_gemm::CountingAlloc;

/// A guarded multiplier installs the process-global ABFT session for the
/// length of each multiply; a leaf gemm on *any* thread then runs checked
/// and grows that thread's checksum scratch. So the tests that count
/// allocations serialize with the tests that install sessions.
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

/// Warm up `mm` on (a, b, c), then assert the next `rounds` calls allocate
/// nothing at all.
fn assert_steady_state_is_allocation_free(
    mm: &ApaMatmul,
    a: &Mat<f32>,
    b: &Mat<f32>,
    c: &mut Mat<f32>,
    what: &str,
) {
    // Two warmup calls: the first builds the cached workspace, the second
    // settles the thread-local gemm pack buffers at their high-water mark.
    mm.multiply_into(a.as_ref(), b.as_ref(), c.as_mut());
    mm.multiply_into(a.as_ref(), b.as_ref(), c.as_mut());

    let before = thread_allocation_counters();
    let rounds = 5;
    for _ in 0..rounds {
        mm.multiply_into(a.as_ref(), b.as_ref(), c.as_mut());
    }
    let delta = thread_allocation_counters().since(before);
    assert_eq!(
        delta.calls, 0,
        "{what}: {} allocations ({} bytes) across {rounds} warm calls",
        delta.calls, delta.bytes
    );
}

#[test]
fn warm_divisible_multiplication_does_not_allocate() {
    let _serial = serial();
    let mm = ApaMatmul::new(catalog::by_name("fast444").unwrap())
        .steps(2)
        .strategy(Strategy::Seq)
        .threads(1);
    let a = probe(64, 64, 1);
    let b = probe(64, 64, 2);
    let mut c = Mat::zeros(64, 64);
    assert_steady_state_is_allocation_free(&mm, &a, &b, &mut c, "divisible fast444");
}

#[test]
fn warm_dynamic_peeling_does_not_allocate() {
    let _serial = serial();
    let mm = ApaMatmul::new(catalog::by_name("bini322").unwrap())
        .steps(1)
        .strategy(Strategy::Seq)
        .threads(1)
        .peel_mode(PeelMode::Dynamic);
    let a = probe(67, 45, 3);
    let b = probe(45, 51, 4);
    let mut c = Mat::zeros(67, 51);
    assert_steady_state_is_allocation_free(&mm, &a, &b, &mut c, "dynamic-peel bini322");
}

#[test]
fn warm_pad_mode_does_not_allocate() {
    let _serial = serial();
    let mm = ApaMatmul::new(catalog::by_name("strassen").unwrap())
        .steps(1)
        .strategy(Strategy::Seq)
        .threads(1)
        .peel_mode(PeelMode::Pad);
    let a = probe(33, 29, 5);
    let b = probe(29, 31, 6);
    let mut c = Mat::zeros(33, 31);
    assert_steady_state_is_allocation_free(&mm, &a, &b, &mut c, "pad-mode strassen");
}

#[test]
fn explicit_workspace_calls_do_not_allocate() {
    let _serial = serial();
    let mm = ApaMatmul::new(catalog::by_name("fast442").unwrap())
        .steps(1)
        .strategy(Strategy::Seq)
        .threads(1);
    let a = probe(36, 24, 7);
    let b = probe(24, 30, 8);
    let mut c = Mat::zeros(36, 30);
    let mut ws = mm.make_workspace::<f32>(36, 24, 30);
    // Warm the thread-local pack buffers.
    mm.multiply_into_with(a.as_ref(), b.as_ref(), c.as_mut(), &mut ws);

    let before = thread_allocation_counters();
    for _ in 0..5 {
        mm.multiply_into_with(a.as_ref(), b.as_ref(), c.as_mut(), &mut ws);
    }
    let delta = thread_allocation_counters().since(before);
    assert_eq!(delta.calls, 0, "explicit workspace path allocated");
    assert_eq!(ws.runs(), 6);
}

/// Mirrors the (private) `WS_CACHE_CAP` in `apamm.rs` — the churn test
/// below fails loudly if the two drift apart in the unbounded direction.
const CACHE_CAP: usize = 8;

#[test]
fn shape_churn_keeps_workspace_cache_bounded() {
    let mm = ApaMatmul::new(catalog::by_name("bini322").unwrap())
        .strategy(Strategy::Seq)
        .threads(1);
    // Many more distinct shapes than the cache holds — every one past the
    // cap must evict the oldest entry instead of growing the cache.
    for i in 0..3 * CACHE_CAP {
        let (m, k, n) = (10 + i, 8 + i, 12 + i);
        let a = probe(m, k, (2 * i) as u64 + 1);
        let b = probe(k, n, (2 * i) as u64 + 2);
        let mut c = Mat::zeros(m, n);
        mm.multiply_into(a.as_ref(), b.as_ref(), c.as_mut());
        assert!(
            mm.cached_workspaces() <= CACHE_CAP,
            "cache grew to {} entries after {} distinct shapes",
            mm.cached_workspaces(),
            i + 1
        );
    }
    assert_eq!(mm.cached_workspaces(), CACHE_CAP);
}

#[test]
fn evicted_then_rebuilt_workspace_is_bit_identical_to_uncached() {
    let mm = ApaMatmul::new(catalog::by_name("bini322").unwrap())
        .strategy(Strategy::Seq)
        .threads(1);
    let a = probe(37, 29, 21);
    let b = probe(29, 33, 22);
    let mut c_first = Mat::zeros(37, 33);
    mm.multiply_into(a.as_ref(), b.as_ref(), c_first.as_mut());

    // Churn the cache until the (37, 29, 33) workspace has been evicted.
    for i in 0..2 * CACHE_CAP {
        let (m, k, n) = (11 + i, 9 + i, 13 + i);
        let xa = probe(m, k, (2 * i) as u64 + 51);
        let xb = probe(k, n, (2 * i) as u64 + 52);
        let mut xc = Mat::zeros(m, n);
        mm.multiply_into(xa.as_ref(), xb.as_ref(), xc.as_mut());
    }

    // Rebuilt-from-scratch cached call and the uncached path must both
    // reproduce the original product bit for bit.
    let mut c_rebuilt = Mat::zeros(37, 33);
    mm.multiply_into(a.as_ref(), b.as_ref(), c_rebuilt.as_mut());
    let mut c_uncached = Mat::zeros(37, 33);
    mm.multiply_into_uncached(a.as_ref(), b.as_ref(), c_uncached.as_mut());
    for i in 0..37 {
        for j in 0..33 {
            assert_eq!(c_first.at(i, j).to_bits(), c_rebuilt.at(i, j).to_bits());
            assert_eq!(c_first.at(i, j).to_bits(), c_uncached.at(i, j).to_bits());
        }
    }
}

#[test]
fn warmed_shapes_are_allocation_free_from_the_first_call() {
    let _serial = serial();
    // `warm` pre-builds the workspaces and settles the pack buffers, so
    // the first *real* multiply on every declared shape is already
    // allocation-free — the contract the apa-serve lane workers rely on.
    // Depth 0 (classical) has no workspace, only the pack buffers to settle.
    let apa = ApaMatmul::new(catalog::by_name("bini322").unwrap())
        .strategy(Strategy::Seq)
        .threads(1);
    let classical = ApaMatmul::classical();
    let shapes = [(16, 24, 30), (8, 24, 30), (16, 30, 10)];
    for (what, mm, cached) in [("bini322", apa, shapes.len()), ("classical", classical, 0)] {
        // A fresh thread each: pack buffers are thread-local, so the
        // second multiplier must not inherit the first one's.
        std::thread::scope(|s| {
            s.spawn(|| {
                mm.warm::<f32>(&shapes);
                let mut operands: Vec<(Mat<f32>, Mat<f32>, Mat<f32>)> = shapes
                    .iter()
                    .enumerate()
                    .map(|(i, &(m, k, n))| {
                        (
                            probe(m, k, 2 * i as u64 + 71),
                            probe(k, n, 2 * i as u64 + 72),
                            Mat::zeros(m, n),
                        )
                    })
                    .collect();

                let before = thread_allocation_counters();
                for (a, b, c) in &mut operands {
                    mm.multiply_into(a.as_ref(), b.as_ref(), c.as_mut());
                }
                let delta = thread_allocation_counters().since(before);
                assert_eq!(
                    delta.calls, 0,
                    "{what}: first calls on warmed shapes allocated: {} allocations ({} bytes)",
                    delta.calls, delta.bytes
                );
            });
        });
        assert_eq!(mm.cached_workspaces(), cached, "{what}");
    }
}

#[test]
fn warming_many_shapes_grows_the_cache_instead_of_self_evicting() {
    let mm = ApaMatmul::new(catalog::by_name("bini322").unwrap())
        .strategy(Strategy::Seq)
        .threads(1);
    // More shapes than the default cap: `warm` must raise the bound so
    // the declared set never evicts itself.
    let shapes: Vec<(usize, usize, usize)> = (0..CACHE_CAP + 4)
        .map(|i| (10 + i, 8 + i, 12 + i))
        .collect();
    mm.warm::<f32>(&shapes);
    assert_eq!(mm.cached_workspaces(), CACHE_CAP + 4);

    // Every warmed shape multiplies with zero engine allocations.
    for (i, &(m, k, n)) in shapes.iter().enumerate() {
        let a = probe(m, k, 2 * i as u64 + 91);
        let b = probe(k, n, 2 * i as u64 + 92);
        let mut c = Mat::zeros(m, n);
        let before = thread_allocation_counters();
        mm.multiply_into(a.as_ref(), b.as_ref(), c.as_mut());
        assert_eq!(
            thread_allocation_counters().since(before).calls,
            0,
            "warmed shape ({m}, {k}, {n}) allocated on its first real call"
        );
    }
}

#[test]
fn warmed_guarded_shapes_are_allocation_free_from_the_first_call() {
    let _serial = serial();
    // The guarded variant also pre-sizes the probe scratch, the per-rung
    // stats and the per-shape ladder state, so the first sentinel-guarded
    // call — probe included — allocates nothing.
    let guard = GuardedApaMatmul::from_matmul(
        ApaMatmul::new(catalog::by_name("bini322").unwrap())
            .strategy(Strategy::Seq)
            .threads(1),
    )
    .sentinel(SentinelConfig {
        probe_every: 1,
        ..SentinelConfig::default()
    });
    let shapes = [(32, 28, 34), (16, 28, 34)];
    guard.warm::<f32>(&shapes);

    for (i, &(m, k, n)) in shapes.iter().enumerate() {
        let a = probe(m, k, 2 * i as u64 + 41);
        let b = probe(k, n, 2 * i as u64 + 42);
        let mut c = Mat::zeros(m, n);
        let before = thread_allocation_counters();
        guard.multiply_into(a.as_ref(), b.as_ref(), c.as_mut());
        assert_eq!(
            thread_allocation_counters().since(before).calls,
            0,
            "warmed guarded shape ({m}, {k}, {n}) allocated on its first real call"
        );
    }
    let health = guard.health();
    assert_eq!(
        health.calls, 2,
        "warm-up multiplies must not count as guarded calls"
    );
}

#[test]
fn warm_guarded_multiplication_does_not_allocate() {
    let _serial = serial();
    // The sentinel's probe scratch is grow-only and the ladder is built
    // once, so a warm guarded multiply — probe included on every call —
    // must preserve the engine's zero-allocation invariant.
    let guard = GuardedApaMatmul::from_matmul(
        ApaMatmul::new(catalog::by_name("bini322").unwrap())
            .strategy(Strategy::Seq)
            .threads(1),
    )
    .sentinel(SentinelConfig {
        probe_every: 1,
        ..SentinelConfig::default()
    });
    let a = probe(40, 28, 31);
    let b = probe(28, 34, 32);
    let mut c = Mat::zeros(40, 34);
    // Warm: ladder + workspace on the first call, gemm pack buffers and
    // probe scratch at their high-water mark by the second.
    guard.multiply_into(a.as_ref(), b.as_ref(), c.as_mut());
    guard.multiply_into(a.as_ref(), b.as_ref(), c.as_mut());

    let before = thread_allocation_counters();
    let rounds = 5;
    for _ in 0..rounds {
        guard.multiply_into(a.as_ref(), b.as_ref(), c.as_mut());
    }
    let delta = thread_allocation_counters().since(before);
    assert_eq!(
        delta.calls, 0,
        "guarded path: {} allocations ({} bytes) across {rounds} warm calls",
        delta.calls, delta.bytes
    );
    assert_eq!(guard.health().calls, 7);
}
