//! Construction search + non-stationary execution: derive the best
//! available rule for a shape automatically, then run a two-level chain of
//! different algorithms — the paper's §6 "uniform, non-stationary" idea.
//!
//! Run with: `cargo run --release --example derive_and_chain`

use apa_repro::core::{derive::DeriveTable, Dims};
use apa_repro::prelude::*;

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
    println!("== Construction search (apa-core::derive) ==");
    let table = DeriveTable::build(Dims::new(7, 7, 7));
    for (m, k, n) in [
        (4, 2, 2),
        (3, 3, 3),
        (5, 5, 2),
        (4, 4, 4),
        (6, 6, 6),
        (7, 7, 7),
    ] {
        let d = Dims::new(m, k, n);
        println!("  {}", table.explain(d).unwrap());
    }
    let best = table.materialize(Dims::new(6, 6, 6)).unwrap();
    println!(
        "\nmaterialized {}: ideal speedup {:.1}% (classical rank {})",
        best.summary(),
        best.ideal_speedup() * 100.0,
        6 * 6 * 6
    );

    println!("\n== Non-stationary chain (paper §6) ==");
    let n = 1008; // divisible by Bini ⊗ Strassen level dims (6, 4, 4)
    let a = random(n, 1);
    let b = random(n, 2);
    let classical = ApaMatmul::classical();
    let t0 = std::time::Instant::now();
    let c_ref = classical.multiply(a.as_ref(), b.as_ref());
    let t_classical = t0.elapsed().as_secs_f64();

    let chain = ApaMatmul::chain(vec![catalog::bini322(), catalog::strassen()]);
    let t1 = std::time::Instant::now();
    let c = chain.multiply(a.as_ref(), b.as_ref());
    let t_chain = t1.elapsed().as_secs_f64();
    println!(
        "  bini322 → strassen chain at n={n}: {t_chain:.3}s vs classical {t_classical:.3}s \
         ({:+.1}%), rel error {:.2e}",
        (t_classical / t_chain - 1.0) * 100.0,
        c.rel_frobenius_error(&c_ref)
    );
    println!("  (two levels: 10·7 = 70 multiplications instead of 12·8 = 96 classical blocks)");
}
