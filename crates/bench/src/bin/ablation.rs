//! Ablation studies for the design choices DESIGN.md calls out.
//!
//! 1. **write-once vs chained AXPY** linear combinations (paper §3.2's
//!    "write-once strategy … most efficient in terms of memory bandwidth");
//! 2. **dynamic peeling vs zero padding** for indivisible dims (§2.4);
//! 3. **DFS vs BFS vs Hybrid** schedules (§3.2);
//! 4. **1 vs 2 recursive steps** (§2.4: "only 1 or 2 recursive levels");
//! 5. **λ sensitivity** around the theoretical optimum (§2.3);
//! 6. **exact vs APA at equal rank** (fast422 vs apa422).
//!
//! Usage: `cargo run --release -p apa-bench --bin ablation
//!           [--n N] [--threads p] [--reps k]`

use apa_bench::{banner, print_table, time_min, Args};
use apa_core::catalog;
use apa_gemm::{combine, Mat};
use apa_matmul::{measure_error, ApaMatmul, PeelMode, Strategy};

fn probe(n: usize, seed: u64) -> Mat<f32> {
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
    Mat::from_fn(n, n, |_, _| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (((state >> 32) as u32 as f64 / (1u64 << 31) as f64) - 1.0) as f32
    })
}

/// The baseline write-once replaces: `dst = Σ cᵢ·srcᵢ` as a chain of
/// AXPYs, one read-modify-write sweep over `dst` per term.
fn chained_axpy(dst: &mut Mat<f32>, terms: &[(f32, &Mat<f32>)]) {
    dst.fill(0.0);
    for &(c, src) in terms {
        for (o, &x) in dst.as_mut_slice().iter_mut().zip(src.as_slice()) {
            *o += c * x;
        }
    }
}

fn main() {
    let args = Args::parse();
    let n = args.get("n", 1536usize);
    let threads = args.get("threads", 1usize);
    let reps = args.get("reps", 3usize);

    banner(
        "Ablations",
        &[&format!("n = {n}, threads = {threads}, min of {reps} reps")],
    );

    // 1. write-once vs AXPY combinations (4-term combination, the common
    //    arity in the catalog).
    {
        let srcs: Vec<Mat<f32>> = (0..4).map(|s| probe(n, s as u64 + 10)).collect();
        let terms: Vec<(f32, _)> = srcs.iter().map(|m| (0.5f32, m.as_ref())).collect();
        let axpy_terms: Vec<(f32, _)> = srcs.iter().map(|m| (0.5f32, m)).collect();
        let mut dst = Mat::<f32>::zeros(n, n);
        let t_wo = time_min(|| combine(dst.as_mut(), false, &terms), reps);
        let t_ax = time_min(|| chained_axpy(&mut dst, &axpy_terms), reps);
        println!("1) linear combinations (4 operands, {n}x{n}):");
        print_table(
            &["variant", "seconds", "vs write-once"],
            &[
                vec!["write-once".into(), format!("{t_wo:.4}"), "1.00".into()],
                vec![
                    "chained AXPY".into(),
                    format!("{t_ax:.4}"),
                    format!("{:.2}", t_ax / t_wo),
                ],
            ],
        );
        println!();
    }

    let a = probe(n, 1);
    let b = probe(n, 2);
    let mut c = Mat::<f32>::zeros(n, n);

    // 2. peeling vs padding on an indivisible dimension.
    {
        let n_odd = n - 1; // guaranteed not divisible by 4
        let ao = probe(n_odd, 3);
        let bo = probe(n_odd, 4);
        let mut co = Mat::<f32>::zeros(n_odd, n_odd);
        let alg = catalog::fast444();
        let peel = ApaMatmul::new(alg.clone()).peel_mode(PeelMode::Dynamic);
        let pad = ApaMatmul::new(alg).peel_mode(PeelMode::Pad);
        let t_peel = time_min(
            || peel.multiply_into(ao.as_ref(), bo.as_ref(), co.as_mut()),
            reps,
        );
        let t_pad = time_min(
            || pad.multiply_into(ao.as_ref(), bo.as_ref(), co.as_mut()),
            reps,
        );
        println!("2) indivisible dims (fast444 at n={n_odd}):");
        print_table(
            &["variant", "seconds", "vs peeling"],
            &[
                vec![
                    "dynamic peeling".into(),
                    format!("{t_peel:.4}"),
                    "1.00".into(),
                ],
                vec![
                    "zero padding".into(),
                    format!("{t_pad:.4}"),
                    format!("{:.2}", t_pad / t_peel),
                ],
            ],
        );
        println!();
    }

    // 3. schedules.
    {
        println!("3) parallel strategies (bini322, r = 10, threads = {threads}):");
        let mut rows = Vec::new();
        for (label, strategy) in [
            ("Seq", Strategy::Seq),
            ("DFS", Strategy::Dfs),
            ("BFS", Strategy::Bfs),
            ("Hybrid", Strategy::Hybrid),
        ] {
            let mm = ApaMatmul::new(catalog::bini322())
                .strategy(strategy)
                .threads(threads);
            let t = time_min(
                || mm.multiply_into(a.as_ref(), b.as_ref(), c.as_mut()),
                reps,
            );
            rows.push(vec![label.to_string(), format!("{t:.4}")]);
        }
        print_table(&["strategy", "seconds"], &rows);
        println!();
    }

    // 4. recursion depth.
    {
        println!("4) recursive steps (strassen):");
        let mut rows = Vec::new();
        for steps in [0u32, 1, 2] {
            let mm = ApaMatmul::new(catalog::strassen()).steps(steps);
            let t = time_min(
                || mm.multiply_into(a.as_ref(), b.as_ref(), c.as_mut()),
                reps,
            );
            rows.push(vec![format!("{steps} step(s)"), format!("{t:.4}")]);
        }
        print_table(&["config", "seconds"], &rows);
        println!();
    }

    // 5. λ sensitivity (error only; time is λ-independent).
    {
        println!("5) lambda sensitivity (bini322, n = 240, relative error):");
        let alg = catalog::bini322();
        let opt = 2.0f64.powf(-11.5);
        let mut rows = Vec::new();
        for (label, lambda) in [
            ("optimal/16", opt / 16.0),
            ("optimal/4", opt / 4.0),
            ("optimal", opt),
            ("optimal*4", opt * 4.0),
            ("optimal*16", opt * 16.0),
        ] {
            let e = measure_error(&alg, lambda, 240, 1, 55);
            rows.push(vec![label.to_string(), format!("{e:.2e}")]);
        }
        print_table(&["lambda", "rel error"], &rows);
        println!("   expected: V-shape with the minimum at the theoretical optimum.");
        println!();
    }

    // 6. exact vs APA at the same dims/rank.
    {
        println!("6) exact vs APA at equal rank (<4,2,2>, rank 14):");
        let exact = ApaMatmul::new(catalog::fast422());
        let apa = ApaMatmul::new(catalog::apa422());
        let t_e = time_min(
            || exact.multiply_into(a.as_ref(), b.as_ref(), c.as_mut()),
            reps,
        );
        let t_a = time_min(
            || apa.multiply_into(a.as_ref(), b.as_ref(), c.as_mut()),
            reps,
        );
        let e_e = measure_error(&catalog::fast422(), 0.0, 240, 1, 77);
        let e_a = measure_error(&catalog::apa422(), 2.0f64.powf(-11.5), 240, 1, 77);
        print_table(
            &["variant", "seconds", "rel error"],
            &[
                vec![
                    "fast422 (exact)".into(),
                    format!("{t_e:.4}"),
                    format!("{e_e:.1e}"),
                ],
                vec![
                    "apa422 (APA)".into(),
                    format!("{t_a:.4}"),
                    format!("{e_a:.1e}"),
                ],
            ],
        );
        println!("   expected: similar time (same rank); APA pays ~sqrt(eps) error,");
        println!("   exact stays at machine precision — the core APA trade-off.");
    }
}
