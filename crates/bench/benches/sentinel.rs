//! Criterion micro-benchmark for the numerical-health sentinel overhead:
//! raw [`ApaMatmul`] vs [`GuardedApaMatmul`] on the ParaDnn-style square
//! layer shapes, with the Freivalds residual probe on every call and in
//! scan-only mode. The ISSUE acceptance bar is ≤5% guarded-vs-raw overhead
//! at width 1024; the probe is O(n²) against the multiply's O(n^2.8), so
//! the margin should be comfortable.
//!
//! Run with `cargo bench -p apa-bench --bench sentinel`; the numbers feed
//! the sentinel overhead table in EXPERIMENTS.md.

use apa_core::catalog;
use apa_gemm::Mat;
use apa_matmul::{ApaMatmul, GuardedApaMatmul, SentinelConfig, Strategy};
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

fn bench_sentinel_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("sentinel_overhead");
    for (n, samples) in [(512usize, 30), (1024, 10)] {
        group
            .sample_size(samples)
            .measurement_time(Duration::from_secs(1));
        let a = probe(n, 1);
        let b = probe(n, 2);
        let mut out = Mat::<f32>::zeros(n, n);

        let raw = ApaMatmul::new(catalog::by_name("fast444").unwrap())
            .steps(1)
            .strategy(Strategy::Seq)
            .threads(1);
        raw.multiply_into(a.as_ref(), b.as_ref(), out.as_mut());
        group.bench_with_input(BenchmarkId::new("raw", n), &n, |bench, _| {
            bench.iter(|| raw.multiply_into(a.as_ref(), b.as_ref(), out.as_mut()));
        });

        // Residual probe on every call — the worst-case sentinel setting.
        let probed = GuardedApaMatmul::from_matmul(raw.clone()).sentinel(SentinelConfig {
            probe_every: 1,
            ..SentinelConfig::default()
        });
        probed.multiply_into(a.as_ref(), b.as_ref(), out.as_mut());
        group.bench_with_input(
            BenchmarkId::new("guarded_probe_every_call", n),
            &n,
            |bench, _| {
                bench.iter(|| probed.multiply_into(a.as_ref(), b.as_ref(), out.as_mut()));
            },
        );

        // Non-finite scan only — the cheapest guarded setting.
        let scanned = GuardedApaMatmul::from_matmul(raw.clone()).sentinel(SentinelConfig {
            probe_every: 0,
            ..SentinelConfig::default()
        });
        scanned.multiply_into(a.as_ref(), b.as_ref(), out.as_mut());
        group.bench_with_input(BenchmarkId::new("guarded_scan_only", n), &n, |bench, _| {
            bench.iter(|| scanned.multiply_into(a.as_ref(), b.as_ref(), out.as_mut()));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_sentinel_overhead);
criterion_main!(benches);
