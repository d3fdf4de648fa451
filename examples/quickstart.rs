//! Quickstart: multiply two matrices with an APA algorithm, measure the
//! speed and the approximation error against classical gemm.
//!
//! Run with: `cargo run --release --example quickstart`

use apa_repro::prelude::*;
use std::time::Instant;

fn random(n: usize, seed: u64) -> Mat<f32> {
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
    Mat::from_fn(n, n, |_, _| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (((state >> 32) as u32 as f64 / (1u64 << 31) as f64) - 1.0) as f32
    })
}

fn main() {
    let n = 2048;
    println!("APA quickstart: {n}x{n} single-precision matrix multiplication\n");
    // What is this machine actually running? Kernel dispatch tier, gemm
    // cache blocking and the planner cache state in one merged report.
    println!("{}\n", apa_repro::diagnostics());
    let a = random(n, 1);
    let b = random(n, 2);

    // 1. Classical baseline (the MKL-role blocked gemm).
    let classical = ApaMatmul::classical();
    let t0 = Instant::now();
    let c_ref = classical.multiply(a.as_ref(), b.as_ref());
    let t_classical = t0.elapsed().as_secs_f64();
    println!("classical gemm:        {t_classical:.3}s");

    // 2. A few catalog algorithms: exact fast and APA.
    for name in ["strassen", "bini322", "fast444"] {
        let alg = catalog::by_name(name).expect("catalog name");
        println!(
            "\n{} — dims {}, rank {}, ideal speedup {:.0}%",
            alg.name,
            alg.dims,
            alg.rank(),
            alg.ideal_speedup() * 100.0
        );
        let mm = ApaMatmul::new(alg); // λ defaults to the theoretical optimum
        let t0 = Instant::now();
        let c = mm.multiply(a.as_ref(), b.as_ref());
        let t = t0.elapsed().as_secs_f64();
        let err = c.rel_frobenius_error(&c_ref);
        println!(
            "  time {t:.3}s ({:+.1}% vs classical), rel error {err:.2e}, lambda {}",
            (t_classical / t - 1.0) * 100.0,
            if mm.current_lambda() == 0.0 {
                "n/a (exact)".to_string()
            } else {
                format!("2^{:.1}", mm.current_lambda().log2())
            }
        );
    }

    // 3. Or skip the hand-picking: the plan compiler weighs the whole
    // catalog against this machine's cost model and error targets, then
    // micro-times the analytic short-list (measured refinement).
    let plan = PlanCompiler::new()
        .measured(true)
        .compile(&PlanRequest::new(n, n, n));
    println!(
        "\nplan compiler would run: {}{} (steps {}, predicted {:.3}s, error bound {:.1e})",
        plan.rule,
        if plan.cse { "+cse" } else { "" },
        plan.steps,
        plan.predicted_seconds,
        plan.predicted_error
    );

    println!(
        "\nAPA algorithms trade a ~sqrt(machine-precision) error for fewer\n\
         multiplications; the error is harmless for NN training (paper §4.2\n\
         and `cargo run --release -p apa-bench --bin fig5`)."
    );
}
