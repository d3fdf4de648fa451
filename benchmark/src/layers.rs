//! Shape replays: each layer's public entry points timed on the shapes the
//! workloads multiply, on the reference host (see `probe`). They are the
//! same in every traced run — facts about the commit, not the workload.
//!
//! `.sq` = 1024³, `.skinny` = 64×1024·1024×1024, `.tinyk` =
//! 1024×64·64×1024, `.sub` = 341×512·512×512 (a ⟨3,2,2⟩ sub-block).

use crate::probe::HostClock;
use crate::report::{metric, Metric, Tally};
use crate::stats::median;
use crate::verify::{uniform_mat, SplitMix};
use apa_core::{catalog, error_model};
use apa_gemm::{
    abft, block_sizes, combine, gemm, gemm_st, kernel_spec, pack_a, pack_b, pack_b_combined,
    par_stats, thread_allocation_counters, transpose_into, AbftSession, Mat, Par,
};
use apa_matmul::{
    cse, measure_error, profile_one_step, ApaMatmul, ExecPlan, FusionPolicy, GuardedApaMatmul,
    Strategy,
};
use apa_nn::{InferenceScratch, Mlp};
use apa_planner::{DType, MachineModel, PlanCompiler, PlanRequest};
use std::hint::black_box;
use std::sync::Arc;

type Shape = (usize, usize, usize);
const SQ: Shape = (1024, 1024, 1024);
const SKINNY: Shape = (64, 1024, 1024);
const TINYK: Shape = (1024, 64, 1024);
const SUB: Shape = (341, 512, 512);
/// The divisible near-square shape `profile_one_step` needs for ⟨3,2,2⟩.
const SQ_DIVISIBLE: Shape = (1020, 1024, 1024);

/// Samples per replay: fewer for the 20-ms shapes so all replays fit a
/// traced run's few seconds.
const REPS_LARGE: usize = 15;
const REPS_SMALL: usize = 30;

/// Batch sizes the serving lane pads to.
pub const SERVE_BATCHES: [usize; 4] = [8, 16, 32, 64];
/// The served model: MLP 1024-1024-1024-10.
pub const SERVE_WIDTHS: [usize; 4] = [1024, 1024, 1024, 10];

/// Median reference-host ms per call of `f`: `reps` samples of `inner`
/// back-to-back calls each, after one untimed call.
fn replay(clock: &mut HostClock, reps: usize, inner: usize, mut f: impl FnMut()) -> f64 {
    f();
    clock.reprobe();
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let ((), _, r) = clock.time(|| {
                for _ in 0..inner {
                    f();
                }
            });
            r / inner as f64
        })
        .collect();
    median(&samples)
}

/// [`replay`] of several variants of one operation, sample by sample in
/// turn, so a ratio between two of them compares neighbours in time and
/// not two stretches of the run. Returns one median per variant.
fn replay_in_turn(
    clock: &mut HostClock,
    reps: usize,
    variants: &mut [&mut dyn FnMut()],
) -> Vec<f64> {
    for f in variants.iter_mut() {
        f();
    }
    clock.reprobe();
    let mut samples = vec![Vec::with_capacity(reps); variants.len()];
    for _ in 0..reps {
        for (f, s) in variants.iter_mut().zip(&mut samples) {
            let ((), _, r) = clock.time(&mut **f);
            s.push(r);
        }
    }
    samples.iter().map(|s| median(s)).collect()
}

fn reps_for(shape: Shape) -> usize {
    if shape.0 * shape.1 * shape.2 >= 512 * 1024 * 1024 {
        REPS_LARGE
    } else {
        REPS_SMALL
    }
}

fn gflops(shape: Shape, ms: f64) -> f64 {
    2.0 * shape.0 as f64 * shape.1 as f64 * shape.2 as f64 / (ms * 1e6)
}

fn gbps(bytes: usize, ms: f64) -> f64 {
    bytes as f64 / (ms * 1e6)
}

struct Operands {
    a: Mat<f32>,
    b: Mat<f32>,
    c: Mat<f32>,
}

fn operands(shape: Shape, rng: &mut SplitMix) -> Operands {
    Operands {
        a: uniform_mat(shape.0, shape.1, rng),
        b: uniform_mat(shape.1, shape.2, rng),
        c: Mat::zeros(shape.0, shape.2),
    }
}

/// `transpose_into` of a `rows × cols` matrix, reference-host ms.
pub fn transpose_ms(rows: usize, cols: usize, clock: &mut HostClock) -> f64 {
    let src = Mat::<f32>::from_fn(rows, cols, |i, j| (i * 31 + j) as f32);
    let mut dst = Mat::<f32>::zeros(cols, rows);
    let inner = (1 << 20) / (rows * cols).max(1) + 1;
    replay(clock, REPS_SMALL, inner, || {
        transpose_into(src.as_ref(), dst.as_mut());
        black_box(&mut dst);
    })
}

/// Build the served model on `backend` (every layer shares it).
pub fn serve_model(backend: apa_nn::Backend, seed: u64) -> Mlp {
    Mlp::new(&SERVE_WIDTHS, vec![backend; SERVE_WIDTHS.len() - 1], seed)
}

/// The multiplies the serving lane can issue: one per padded batch size
/// and layer.
pub fn serve_shapes() -> Vec<Shape> {
    let mut shapes = Vec::new();
    for &rows in &SERVE_BATCHES {
        for w in SERVE_WIDTHS.windows(2) {
            let shape = (rows, w[0], w[1]);
            if !shapes.contains(&shape) {
                shapes.push(shape);
            }
        }
    }
    shapes
}

/// Compile every serve shape on `compiler`; returns how many plans are
/// not classical.
pub fn compile_serve_plans(compiler: &PlanCompiler) -> usize {
    serve_shapes()
        .into_iter()
        .filter(|&(m, k, n)| {
            !compiler
                .compile(&PlanRequest::new(m, k, n).threads(1))
                .is_classical()
        })
        .count()
}

/// Every `gemm.*`, `matmul.*` (timings and plan counts), `core.*`,
/// `planner.*`, `nn.predict_ms.*` and `host.stream_gbps` metric.
pub fn replay_all(seed: u64, clock: &mut HostClock, tally: &mut Tally) -> Vec<Metric> {
    let mut out = Vec::new();
    let mut rng = SplitMix(seed ^ 0x1ed9e5);
    let bini = catalog::bini322();

    // --- gemm: the leaf on the four shapes -------------------------------
    let mut leaf_ms = Vec::new();
    for (tag, shape) in [
        ("sq", SQ),
        ("skinny", SKINNY),
        ("tinyk", TINYK),
        ("sub", SUB),
    ] {
        let mut x = operands(shape, &mut rng);
        let ms = replay(clock, reps_for(shape), 1, || {
            gemm_st(1.0, x.a.as_ref(), x.b.as_ref(), 0.0, x.c.as_mut())
        });
        out.push(metric(
            format!("gemm.leaf_gflops.{tag}"),
            gflops(shape, ms),
            "GFLOP/s",
        ));
        leaf_ms.push((tag, shape, ms));
    }
    let leaf = |tag: &str| {
        leaf_ms
            .iter()
            .find(|l| l.0 == tag)
            .expect("replayed above")
            .2
    };

    // --- gemm: packing one cache block ------------------------------------
    let bs = block_sizes::<f32>();
    let spec = kernel_spec::<f32>();
    let mut sq = operands(SQ, &mut rng);
    let (mc, kc, nc) = (bs.mc.min(1024), bs.kc.min(1024), bs.nc.min(1024));
    let mut buf = Vec::new();
    let a_block = sq.a.as_ref().subview(0, 0, mc, kc);
    let pack_a_ms = replay(clock, REPS_SMALL, 4, || {
        pack_a(a_block, &mut buf, spec.mr);
        black_box(&mut buf);
    });
    let b_block = sq.b.as_ref().subview(0, 0, kc, nc);
    let pack_b_ms = replay(clock, REPS_SMALL, 4, || {
        pack_b(b_block, &mut buf, spec.nr);
        black_box(&mut buf);
    });
    let b_block2 = sq.a.as_ref().subview(0, 0, kc, nc);
    let pack_bc_ms = replay(clock, REPS_SMALL, 4, || {
        pack_b_combined(&[(1.0, b_block), (-0.5, b_block2)], &mut buf, spec.nr);
        black_box(&mut buf);
    });
    // A block is read once and written once (two reads for arity 2).
    let pack_a_rate = gbps(2 * mc * kc * 4, pack_a_ms);
    let pack_b_rate = gbps(2 * kc * nc * 4, pack_b_ms);
    out.push(metric("gemm.pack_a_gbps", pack_a_rate, "GB/s"));
    out.push(metric("gemm.pack_b_gbps", pack_b_rate, "GB/s"));
    out.push(metric(
        "gemm.pack_b_combined_gbps",
        gbps(3 * kc * nc * 4, pack_bc_ms),
        "GB/s",
    ));
    // Computed: B is packed once, A once per NC-wide column block.
    for (tag, shape) in [("sq", SQ), ("skinny", SKINNY)] {
        let (m, k, n) = shape;
        let a_ms = (2 * m * k * 4 * n.div_ceil(bs.nc)) as f64 / (pack_a_rate * 1e6);
        let b_ms = (2 * k * n * 4) as f64 / (pack_b_rate * 1e6);
        out.push(metric(
            format!("gemm.pack_share.{tag}"),
            (a_ms + b_ms) / leaf(tag),
            "ratio",
        ));
    }

    // --- gemm: additions, transpose, ABFT, 2-thread driver ---------------
    let combine_ms = replay(clock, REPS_SMALL, 1, || {
        combine(
            sq.c.as_mut(),
            false,
            &[(1.0, sq.a.as_ref()), (0.25, sq.b.as_ref())],
        )
    });
    out.push(metric(
        "gemm.combine_gbps",
        gbps(3 * 1024 * 1024 * 4, combine_ms),
        "GB/s",
    ));
    let transpose = transpose_ms(1024, 1024, clock);
    out.push(metric(
        "gemm.transpose_gbps",
        gbps(2 * 1024 * 1024 * 4, transpose),
        "GB/s",
    ));
    for (tag, shape) in [("sq", SQ), ("skinny", SKINNY)] {
        let mut x = operands(shape, &mut rng);
        let mut c2 = Mat::zeros(shape.0, shape.2);
        let session = Arc::new(AbftSession::default());
        let ms = replay_in_turn(
            clock,
            reps_for(shape),
            &mut [
                &mut || gemm_st(1.0, x.a.as_ref(), x.b.as_ref(), 0.0, x.c.as_mut()),
                &mut || {
                    let _scope = abft::scoped(session.clone());
                    gemm_st(1.0, x.a.as_ref(), x.b.as_ref(), 0.0, c2.as_mut())
                },
            ],
        );
        tally.check(session.stats.snapshot().detected == 0, || {
            format!("ABFT flagged a fault-free {tag} gemm")
        });
        out.push(metric(
            format!("gemm.abft_overhead_share.{tag}"),
            (ms[1] - ms[0]) / ms[1],
            "ratio",
        ));
    }
    let before = par_stats();
    let mut c2 = Mat::zeros(1024, 1024);
    let ms = replay_in_turn(
        clock,
        REPS_LARGE,
        &mut [
            &mut || gemm_st(1.0, sq.a.as_ref(), sq.b.as_ref(), 0.0, sq.c.as_mut()),
            &mut || {
                gemm(
                    1.0,
                    sq.a.as_ref(),
                    sq.b.as_ref(),
                    0.0,
                    c2.as_mut(),
                    Par::Threads(2),
                )
            },
        ],
    );
    let reused = par_stats().panels_reused - before.panels_reused;
    out.push(metric("gemm.par2_speedup.sq", ms[0] / ms[1], "x"));
    // Per call: one untimed call plus REPS_LARGE samples ran.
    out.push(metric(
        "gemm.par2_panels_reused",
        reused as f64 / (REPS_LARGE + 1) as f64,
        "count",
    ));
    let allocs = thread_allocation_counters();
    gemm_st(1.0, sq.a.as_ref(), sq.b.as_ref(), 0.0, sq.c.as_mut());
    let allocs = thread_allocation_counters().since(allocs);
    out.push(metric(
        "gemm.alloc_calls_per_call",
        allocs.calls as f64,
        "count",
    ));

    // --- matmul: raw, guarded and unfused bini322 --------------------------
    let raw = ApaMatmul::new(bini.clone());
    let guarded = GuardedApaMatmul::from_matmul(ApaMatmul::new(bini.clone()));
    let never = ApaMatmul::new(bini.clone()).fusion(FusionPolicy::Never);
    let model = MachineModel::detect();
    for (tag, shape) in [("sq", SQ), ("skinny", SKINNY), ("tinyk", TINYK)] {
        let mut x = operands(shape, &mut rng);
        let mut c2 = Mat::zeros(shape.0, shape.2);
        let mut c3 = Mat::zeros(shape.0, shape.2);
        let ms = replay_in_turn(
            clock,
            reps_for(shape),
            &mut [
                &mut || raw.multiply_into(x.a.as_ref(), x.b.as_ref(), x.c.as_mut()),
                &mut || guarded.multiply_into(x.a.as_ref(), x.b.as_ref(), c2.as_mut()),
                &mut || never.multiply_into(x.a.as_ref(), x.b.as_ref(), c3.as_mut()),
            ],
        );
        let (raw_ms, guarded_ms, never_ms) = (ms[0], ms[1], ms[2]);
        out.push(metric(format!("matmul.raw_ms.{tag}"), raw_ms, "ms"));
        out.push(metric(format!("matmul.guarded_ms.{tag}"), guarded_ms, "ms"));
        out.push(metric(
            format!("matmul.apa_vs_leaf.{tag}"),
            raw_ms / leaf(tag),
            "x",
        ));
        if tag != "tinyk" {
            out.push(metric(
                format!("matmul.guard_overhead_share.{tag}"),
                (guarded_ms - raw_ms) / guarded_ms,
                "ratio",
            ));
            out.push(metric(
                format!("matmul.fused_vs_never.{tag}"),
                raw_ms / never_ms,
                "x",
            ));
            let predicted = model.predict_seconds(
                raw.plan(),
                &[shape],
                1,
                Strategy::Hybrid,
                1,
                FusionPolicy::Auto,
                DType::F32,
            );
            out.push(metric(
                format!("planner.predict_ratio.bini322.{tag}"),
                predicted * 1e3 / raw_ms,
                "x",
            ));
            let predicted = model.predict_classical_seconds(&[shape], 1, DType::F32);
            out.push(metric(
                format!("planner.predict_ratio.classical.{tag}"),
                predicted * 1e3 / leaf(tag),
                "x",
            ));
        }
        if tag == "sq" {
            let allocs = thread_allocation_counters();
            raw.multiply_into(x.a.as_ref(), x.b.as_ref(), x.c.as_mut());
            let allocs = thread_allocation_counters().since(allocs);
            out.push(metric(
                "matmul.alloc_bytes_per_call",
                allocs.bytes as f64,
                "B",
            ));
        }
    }
    tally.check(guarded.health().demotions == 0, || {
        "the guarded replay multiplier demoted".to_string()
    });

    // --- matmul: one instrumented step (§3.4) and the plan's counts -------
    let x = operands(SQ_DIVISIBLE, &mut rng);
    let mut shares = Vec::new();
    let mut profile = None;
    for _ in 0..5 {
        let (_, p) = profile_one_step(raw.plan(), x.a.as_ref(), x.b.as_ref(), FusionPolicy::Auto);
        shares.push(p.add_fraction());
        profile = Some(p);
    }
    let profile = profile.expect("five instrumented steps ran");
    out.push(metric("matmul.add_share.sq", median(&shares), "ratio"));
    out.push(metric(
        "matmul.gemm_calls",
        profile.gemm_calls as f64,
        "count",
    ));
    out.push(metric(
        "matmul.add_elems",
        profile.add_elems as f64,
        "count",
    ));
    out.push(metric(
        "matmul.est_bytes_moved",
        profile.est_bytes_moved as f64,
        "B",
    ));
    let mut plan = ExecPlan::compile(&bini, raw.current_lambda());
    let saved = cse::apply(&mut plan).additions_saved();
    out.push(metric("matmul.cse_additions_saved", saved as f64, "count"));

    // --- core: measured error against the §2.3 model ----------------------
    let sigma = raw.sigma().expect("bini322 is approximate");
    let bound = error_model::error_bound(sigma, bini.phi(), error_model::D_SINGLE, 1);
    let measured = measure_error(&bini, raw.current_lambda(), 256, 1, seed);
    out.push(metric("core.error_vs_model.bini322", measured / bound, "x"));

    // --- planner: compiling the serve shapes -------------------------------
    let mut cold = Vec::new();
    let mut warm = Vec::new();
    let mut apa_plans = 0;
    let requests = serve_shapes().len() as f64;
    for _ in 0..5 {
        let compiler = PlanCompiler::new();
        clock.reprobe();
        let (n, _, r) = clock.time(|| compile_serve_plans(&compiler));
        cold.push(r);
        apa_plans = n;
        let (_, _, r) = clock.time(|| {
            for _ in 0..20 {
                black_box(compile_serve_plans(&compiler));
            }
        });
        warm.push(r * 1e3 / (20.0 * requests));
    }
    out.push(metric("planner.compile_cold_ms", median(&cold), "ms"));
    out.push(metric("planner.compile_warm_us", median(&warm), "us"));
    out.push(metric("planner.apa_plans", apa_plans as f64, "count"));

    // --- nn: inference at the lane's padded batch sizes -------------------
    let model = serve_model(apa_nn::planned(1), seed);
    model.warm_for_batches(&SERVE_BATCHES);
    let mut scratch = InferenceScratch::new();
    let mut output = Mat::zeros(0, 0);
    for rows in SERVE_BATCHES {
        let input = uniform_mat(rows, SERVE_WIDTHS[0], &mut rng);
        let ms = replay(clock, REPS_SMALL, 1, || {
            model.predict_into(input.as_ref(), &mut output, &mut scratch)
        });
        out.push(metric(format!("nn.predict_ms.r{rows}"), ms, "ms"));
    }

    // --- host: streaming copy, for the roofline ---------------------------
    // 64 MiB per buffer: 16× this box's 4 MiB L2. Its 260 MiB L3 is shared
    // by the whole host and out of reach of a 4× rule here.
    let words = 64 << 17;
    let src: Vec<u64> = (0..words as u64).collect();
    let mut dst = vec![0u64; words];
    let copy_ms = replay(clock, 5, 1, || {
        dst.copy_from_slice(&src);
        black_box(&mut dst);
    });
    out.push(metric(
        "host.stream_gbps",
        gbps(2 * words * 8, copy_ms),
        "GB/s",
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serve_shapes_cover_every_padded_batch_and_layer_once() {
        let shapes = serve_shapes();
        assert_eq!(shapes.len(), 8);
        assert!(shapes.contains(&(8, 1024, 1024)));
        assert!(shapes.contains(&(64, 1024, 10)));
    }

    #[test]
    fn rates_use_decimal_units() {
        assert_eq!(gflops((1000, 1000, 1000), 2.0), 1000.0);
        assert_eq!(gbps(8_000_000, 1.0), 8.0);
        assert_eq!(reps_for(SQ), REPS_LARGE);
        assert_eq!(reps_for(SKINNY), REPS_SMALL);
    }
}
