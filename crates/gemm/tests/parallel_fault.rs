//! Panic-in-lane drill for the 2D cooperative-packing driver
//! (`--features fault-inject` only): a worker that dies mid-product must
//! surface as a typed [`PoolError::WorkerPanicked`], release the shared
//! B-panel arena, and leave the pool fully usable — the next call on the
//! same pool is bitwise correct.
//!
//! Uses the `parallel::hooks` explicit-blocking seam so the grid really
//! has many cells (the tuned blocking would make these shapes a single
//! cell and never touch the pool). Kept in its own test binary: the armed
//! fault is global to the process and would otherwise fire inside an
//! unrelated concurrently-running pooled test.

#![cfg(feature = "fault-inject")]

use apa_gemm::blocked::BlockSizes;
use apa_gemm::parallel::hooks;
use apa_gemm::pool::lane_fault;
use apa_gemm::{live_arenas, Mat, PoolError, Scalar};

fn rand_mat<T: Scalar>(rows: usize, cols: usize, seed: u64) -> Mat<T> {
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
    Mat::from_fn(rows, cols, |_, _| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        T::from_f64(((state >> 32) as u32 as f64 / (1u64 << 31) as f64) - 1.0)
    })
}

/// Small blocking → 160×140 output is a 7×6 cell grid over 8 KC slabs.
const SMALL: BlockSizes = BlockSizes {
    mc: 24,
    kc: 16,
    nc: 24,
};

/// The armed fault is global to the process: serialize the drills so one
/// test's fault can never fire inside the other's pooled task.
static DRILL_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[test]
fn lane_panic_releases_arena_and_pool_survives() {
    let _guard = DRILL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let a = rand_mat::<f32>(160, 120, 1);
    let b = rand_mat::<f32>(120, 140, 2);
    let (at, bt) = ([(1.0f32, a.as_ref())], [(1.0f32, b.as_ref())]);

    // One clean warmup so pools and dispatch are resolved before the
    // fault is armed (arming is one-shot on the *next* pooled task).
    let mut warm = Mat::<f32>::zeros(160, 140);
    hooks::gemm_2d_with_blocks(1.0f32, &at, &bt, 0.0, warm.as_mut(), 4, SMALL).unwrap();

    lane_fault::arm_panic();
    let mut c = Mat::<f32>::zeros(160, 140);
    let err = hooks::gemm_2d_with_blocks(1.0f32, &at, &bt, 0.0, c.as_mut(), 4, SMALL)
        .expect_err("armed lane panic must surface");
    let PoolError::WorkerPanicked { detail } = &err;
    assert!(
        detail.contains(lane_fault::INJECTED_PANIC),
        "unexpected panic detail: {detail}"
    );
    lane_fault::disarm();

    // The shared packing arena must not leak past the failed call.
    assert_eq!(live_arenas(), 0, "B-panel arena leaked after lane panic");

    // And the pool stays usable: the very next call on the same pool is
    // bitwise identical to the single-threaded kernel.
    let mut seq = Mat::<f32>::zeros(160, 140);
    hooks::gemm_st_with_blocks(1.0f32, &at, &bt, 0.0, seq.as_mut(), SMALL);
    let mut again = Mat::<f32>::zeros(160, 140);
    hooks::gemm_2d_with_blocks(1.0f32, &at, &bt, 0.0, again.as_mut(), 4, SMALL)
        .expect("pool must be usable after a drained lane panic");
    for i in 0..160 {
        for j in 0..140 {
            assert_eq!(
                again.at(i, j).to_bits(),
                seq.at(i, j).to_bits(),
                "C[{i},{j}] after recovery"
            );
        }
    }
}

#[test]
fn repeated_lane_faults_never_wedge_the_pool() {
    let _guard = DRILL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // Alternate armed and clean calls: every faulted call must come back
    // as a typed error (never deadlock a waiter on a shared panel), every
    // clean call must succeed, and no call may leak the arena.
    let a = rand_mat::<f64>(96, 64, 3);
    let b = rand_mat::<f64>(64, 96, 4);
    let (at, bt) = ([(1.0f64, a.as_ref())], [(1.0f64, b.as_ref())]);
    // Warm once so arming can't race pool construction.
    let mut warm = Mat::<f64>::zeros(96, 96);
    hooks::gemm_2d_with_blocks(1.0f64, &at, &bt, 0.0, warm.as_mut(), 3, SMALL).unwrap();
    for round in 0..4u64 {
        if round.is_multiple_of(2) {
            lane_fault::arm_panic();
        }
        let mut c = Mat::<f64>::zeros(96, 96);
        let res = hooks::gemm_2d_with_blocks(1.0f64, &at, &bt, 0.0, c.as_mut(), 3, SMALL);
        if round.is_multiple_of(2) {
            assert!(res.is_err(), "round {round}: armed fault must fire");
        } else {
            assert!(res.is_ok(), "round {round}: clean call must succeed");
        }
        lane_fault::disarm();
        assert_eq!(live_arenas(), 0, "round {round}: arena leaked");
    }
}
