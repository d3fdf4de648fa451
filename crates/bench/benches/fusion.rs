//! Criterion micro-benchmark for the fusion ablation: pack-fused
//! execution ([`FusionPolicy::Auto`]) vs the fully materialized reference
//! path ([`FusionPolicy::Never`]) on the same warm workspace,
//! ParaDnn-style square shapes, Hybrid strategy. Pack-time operand
//! combination is the only fusion and both policies compute the same
//! bits, so the two lines differ only in time.
//!
//! This is the §3.2 experiment: the linear combinations are
//! bandwidth-bound, so folding the operand sweeps into gemm's pack should
//! buy wall-clock time exactly where the add fraction lives — multi-step
//! plans whose leaf gemms are small relative to the S/T sweeps they
//! bracket.
//!
//! Run with `cargo bench -p apa-bench --bench fusion`; `scripts/bench.sh`
//! pairs it with the `fusionbench` binary that emits BENCH_5.json.

use apa_core::catalog;
use apa_gemm::Mat;
use apa_matmul::{ApaMatmul, FusionPolicy, Strategy};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;

fn probe(n: usize, seed: u64) -> Mat<f32> {
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
    Mat::from_fn(n, n, |_, _| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (((state >> 32) as u32 as f64 / (1u64 << 31) as f64) - 1.0) as f32
    })
}

fn bench_fusion(c: &mut Criterion) {
    let threads = std::thread::available_parallelism()
        .map(|p| p.get().min(4))
        .unwrap_or(1);
    let mut group = c.benchmark_group("fusion");
    // (rule, steps): two-step plans put real weight on the combination
    // sweeps (the leaf gemms shrink by the base dims squared while every
    // level re-sweeps its operands), which is where fusion pays.
    for (name, steps) in [("bini322", 2u32), ("fast444", 2u32)] {
        for (n, samples) in [(512usize, 20), (1024, 10), (2048, 4)] {
            group
                .sample_size(samples)
                .measurement_time(Duration::from_secs(1));
            let a = probe(n, 1);
            let b = probe(n, 2);
            let mut out = Mat::<f32>::zeros(n, n);
            let base = ApaMatmul::new(catalog::by_name(name).unwrap())
                .steps(steps)
                .strategy(Strategy::Hybrid)
                .threads(threads);
            for (label, policy) in [
                ("fused", FusionPolicy::Auto),
                ("materialized", FusionPolicy::Never),
            ] {
                let mm = base.clone().fusion(policy);
                // Warm once so both sides measure the cached steady state.
                mm.multiply_into(a.as_ref(), b.as_ref(), out.as_mut());
                group.bench_with_input(
                    BenchmarkId::new(format!("{name}/{label}"), n),
                    &n,
                    |bench, _| {
                        bench.iter(|| mm.multiply_into(a.as_ref(), b.as_ref(), out.as_mut()));
                    },
                );
            }
        }
    }
    group.finish();
}

criterion_group!(benches, bench_fusion);
criterion_main!(benches);
