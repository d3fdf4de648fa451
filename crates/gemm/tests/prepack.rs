//! A prepacked B operand ([`Mat::prepack`]) multiplies bitwise like the
//! per-call pack it replaces — on every kernel tier, at every row count
//! from one up past a full MC block, across KC and NC block edges and a
//! ragged last sliver, with α ≠ 1 and β ∈ {0, 1}, sequential and 2D
//! parallel, with and without an ABFT session (same checksum counts) —
//! and the pack is only ever read for the exact matrix it was packed
//! from: every mutation drops it, and no derived view carries it.

use apa_gemm::{
    abft, available_tiers, block_sizes, gemm, gemm_st_with_spec, kernel_spec, spec_for_tier,
    AbftCounts, AbftSession, Mat, Par, Scalar, Scratch,
};
use std::sync::Arc;

fn rand_mat<T: Scalar>(rows: usize, cols: usize, seed: u64) -> Mat<T> {
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
    Mat::from_fn(rows, cols, |_, _| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        T::from_f64(((state >> 32) as u32 as f64 / (1u64 << 31) as f64) - 1.0)
    })
}

fn bits<T: Scalar>(m: &Mat<T>) -> Vec<u64> {
    m.as_slice().iter().map(|v| v.to_f64().to_bits()).collect()
}

/// Run `f` under a fresh ABFT session when `checked`; returns the
/// session's counts (zero without one).
fn under_session(checked: bool, f: impl FnOnce()) -> AbftCounts {
    if !checked {
        f();
        return AbftCounts::default();
    }
    let session = Arc::new(AbftSession::default());
    {
        let _scope = abft::scoped(session.clone());
        f();
    }
    session.stats.snapshot()
}

fn check_prepacked_is_per_call_pack<T: Scalar>() {
    let bs = block_sizes::<T>();
    // One slab past KC, one jc block past NC, and a last sliver that is
    // ragged for every tier's NR (all powers of two).
    let (k, n) = (bs.kc + 3, bs.nc + 5);
    let b = rand_mat::<T>(k, n, 2);
    let mut packed = b.clone();
    packed.prepack();
    assert!(packed.prepacked().is_some() && b.prepacked().is_none());
    let alpha = T::from_f64(1.5);
    let dispatched = kernel_spec::<T>().tier;
    let mut scratch = Scratch::new();
    for m in [1, 8, 13, 64, 700] {
        let a = rand_mat::<T>(m, k, 3 + m as u64);
        let c0 = rand_mat::<T>(m, n, 4 + m as u64);
        // Every (β, session) pair on every tier up to 64 rows. Past MC
        // rows (several ic blocks per panel) the dispatched kernel — the
        // one a pack is read by — runs a covering pair, which keeps the
        // suite affordable on the portable scalar tier.
        let wide = m > bs.mc.min(64);
        let pairs: &[(bool, bool)] = if wide {
            &[(false, false), (true, true)]
        } else {
            &[(false, false), (false, true), (true, false), (true, true)]
        };
        for &(beta_one, checked) in pairs {
            let beta = if beta_one { T::ONE } else { T::ZERO };
            let mut want = c0.clone();
            let want_counts = under_session(checked, || {
                gemm(alpha, a.as_ref(), b.as_ref(), beta, want.as_mut(), Par::Seq)
            });
            let ctx = format!("m={m} β={} checked={checked}", beta.to_f64());
            let run = |what: &str, f: &mut dyn FnMut(&mut Mat<T>)| {
                let mut got = c0.clone();
                let counts = under_session(checked, || f(&mut got));
                assert!(bits(&got) == bits(&want), "{what} {ctx}: result differs");
                assert_eq!(counts, want_counts, "{what} {ctx}: ABFT counts differ");
            };
            // Another tier's width never matches the pack: per-call pack.
            for &tier in available_tiers() {
                if wide && tier != dispatched {
                    continue;
                }
                let spec = spec_for_tier::<T>(tier).expect("available tier");
                run(&format!("{tier:?}"), &mut |c| {
                    gemm_st_with_spec(
                        &spec,
                        alpha,
                        a.as_ref(),
                        packed.as_ref(),
                        beta,
                        c.as_mut(),
                        &mut scratch,
                    )
                });
            }
            run("Threads(2)", &mut |c| {
                gemm(
                    alpha,
                    a.as_ref(),
                    packed.as_ref(),
                    beta,
                    c.as_mut(),
                    Par::Threads(2),
                )
            });
        }
    }
}

#[test]
fn prepacked_b_is_bitwise_the_per_call_pack_f32() {
    check_prepacked_is_per_call_pack::<f32>();
}

#[test]
fn prepacked_b_is_bitwise_the_per_call_pack_f64() {
    check_prepacked_is_per_call_pack::<f64>();
}

#[test]
fn the_driver_reads_the_pack_instead_of_packing() {
    let (m, k, n) = (16, 300, 200);
    let a = rand_mat::<f32>(m, k, 5);
    let plain = rand_mat::<f32>(k, n, 6);
    let mut packed = plain.clone();
    packed.prepack();
    let spec = kernel_spec::<f32>();
    // Sequential: the B pack buffer of a fresh scratch is never grown.
    let scratch_after = |b: apa_gemm::MatRef<'_, f32>| {
        let mut scratch = Scratch::new();
        let mut c = Mat::zeros(m, n);
        gemm_st_with_spec(&spec, 1.0, a.as_ref(), b, 0.0, c.as_mut(), &mut scratch);
        scratch.capacity_bytes()
    };
    let (per_call, prepacked) = (
        scratch_after(plain.as_ref()),
        scratch_after(packed.as_ref()),
    );
    let b_panel = n.div_ceil(spec.nr) * spec.nr * k * 4;
    assert_eq!(per_call - prepacked, b_panel, "{per_call} vs {prepacked}");
    // 2D parallel: no panel goes through a shared arena, and none is
    // built. The calling thread's parallel-op count moves only by arena
    // builds (slot claims and queue pops run on the pool's workers).
    let bs = block_sizes::<f32>();
    let (at, bp, bq) = (
        [(1.0f32, a.as_ref())],
        [(1.0f32, plain.as_ref())],
        [(1.0f32, packed.as_ref())],
    );
    let mut c = Mat::zeros(m, n);
    let run = |b: &[(f32, apa_gemm::MatRef<'_, f32>)], c: &mut Mat<f32>| {
        let before = apa_gemm::parallel::thread_par_ops();
        let packed =
            apa_gemm::parallel::hooks::gemm_2d_with_blocks(1.0, &at, b, 0.0, c.as_mut(), 2, bs)
                .unwrap()
                .panels_packed;
        (packed, apa_gemm::parallel::thread_par_ops() - before)
    };
    let (panels, arenas) = run(&bp, &mut c);
    assert!(
        panels > 0 && arenas == 1,
        "{panels} panels, {arenas} arenas"
    );
    assert_eq!(run(&bq, &mut c), (0, 0), "(panels packed, arenas built)");
}

#[test]
fn every_mutation_drops_the_pack() {
    let fresh = || {
        let mut m = rand_mat::<f32>(6, 5, 9);
        m.prepack();
        assert!(m.prepacked().is_some());
        m
    };
    type Mutation = (&'static str, fn(&mut Mat<f32>));
    let mutations: [Mutation; 5] = [
        ("as_mut", |m| {
            let _ = m.as_mut();
        }),
        ("as_mut_slice", |m| {
            let _ = m.as_mut_slice();
        }),
        ("set", |m| m.set(0, 0, 1.0)),
        ("fill", |m| m.fill(0.5)),
        ("resize", |m| m.resize(6, 5)),
    ];
    for (what, mutate) in mutations {
        let mut m = fresh();
        mutate(&mut m);
        assert!(m.prepacked().is_none(), "{what} kept the pack");
        assert!(
            m.as_ref().prepacked().is_none(),
            "{what}: the view still has it"
        );
    }
}

#[test]
fn only_the_full_plain_view_carries_the_pack() {
    let mut m = rand_mat::<f64>(8, 12, 10);
    m.prepack();
    let full = m.as_ref();
    assert!(full.prepacked().is_some());
    assert!(full.subview(0, 0, 8, 12).prepacked().is_none());
    assert!(full.subview(1, 2, 3, 4).prepacked().is_none());
    assert!(full.t().prepacked().is_none());
    assert!(full.t().t().prepacked().is_none());
    assert!(full.grid(2, 3).iter().all(|v| v.prepacked().is_none()));
    let mut twin = m.clone();
    assert!(twin.as_mut().as_ref().prepacked().is_none());

    // Each derived view multiplies like the same view of an unpacked twin.
    let plain = rand_mat::<f64>(8, 12, 10);
    let a = rand_mat::<f64>(5, 8, 11);
    let at = rand_mat::<f64>(5, 12, 12);
    let product = |a: apa_gemm::MatRef<'_, f64>, b: apa_gemm::MatRef<'_, f64>| {
        let mut c = Mat::zeros(a.rows(), b.cols());
        gemm(1.0, a, b, 0.0, c.as_mut(), Par::Seq);
        bits(&c)
    };
    assert_eq!(
        product(a.as_ref(), full),
        product(a.as_ref(), plain.as_ref())
    );
    assert_eq!(
        product(a.as_ref().subview(0, 1, 5, 7), full.subview(1, 2, 7, 9)),
        product(
            a.as_ref().subview(0, 1, 5, 7),
            plain.as_ref().subview(1, 2, 7, 9)
        )
    );
    assert_eq!(
        product(at.as_ref(), full.t()),
        product(at.as_ref(), plain.as_ref().t())
    );
}

#[test]
fn equality_ignores_the_pack_and_clones_share_it_until_mutated() {
    let plain = rand_mat::<f32>(7, 9, 13);
    let mut packed = plain.clone();
    packed.prepack();
    assert_eq!(packed, plain);
    assert_eq!(plain, packed);

    let mut clone = packed.clone();
    let (a, b) = (packed.prepacked().unwrap(), clone.prepacked().unwrap());
    assert!(std::ptr::eq(a, b), "a clone shares the pack");
    clone.set(0, 0, 2.0);
    assert!(clone.prepacked().is_none());
    assert!(packed.prepacked().is_some(), "the original keeps its pack");
    assert_ne!(clone, packed);
}

#[test]
fn a_pack_for_another_blocking_or_width_is_not_read() {
    // A test-sized blocking forces a multi-cell grid: the driver must not
    // read panels packed for the process blocking, so the result is the
    // per-call pack's.
    let small = apa_gemm::BlockSizes {
        mc: 16,
        kc: 24,
        nc: 24,
    };
    let (m, k, n) = (40, 50, 60);
    let a = rand_mat::<f32>(m, k, 14);
    let plain = rand_mat::<f32>(k, n, 15);
    let mut packed = plain.clone();
    packed.prepack();
    let (at, bp, bq) = (
        [(1.0f32, a.as_ref())],
        [(1.0f32, plain.as_ref())],
        [(1.0f32, packed.as_ref())],
    );
    let mut want = Mat::<f32>::zeros(m, n);
    let mut got = Mat::<f32>::zeros(m, n);
    apa_gemm::parallel::hooks::gemm_st_with_blocks(1.0, &at, &bp, 0.0, want.as_mut(), small);
    apa_gemm::parallel::hooks::gemm_st_with_blocks(1.0, &at, &bq, 0.0, got.as_mut(), small);
    assert_eq!(bits(&got), bits(&want));
    let mut got2 = Mat::<f32>::zeros(m, n);
    apa_gemm::parallel::hooks::gemm_2d_with_blocks(1.0, &at, &bq, 0.0, got2.as_mut(), 2, small)
        .unwrap();
    assert_eq!(bits(&got2), bits(&want));
    // A scaled unit list is a combination, not the packed operand.
    let scaled = [(2.0f32, packed.as_ref())];
    let scaled_plain = [(2.0f32, plain.as_ref())];
    let mut want = Mat::<f32>::zeros(m, n);
    let mut got = Mat::<f32>::zeros(m, n);
    apa_gemm::gemm_combined_st(1.0, &at, &scaled_plain, 0.0, want.as_mut());
    apa_gemm::gemm_combined_st(1.0, &at, &scaled, 0.0, got.as_mut());
    assert_eq!(bits(&got), bits(&want));
}
