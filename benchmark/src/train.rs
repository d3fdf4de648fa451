//! The three training workloads: the ParaDnn MLP 784-1024×4-10 of the
//! paper's Fig. 6, stepped closed-loop on one compute thread.

use crate::probe::HostClock;
use crate::report::{metric, Metric, Outcome, Tally};
use crate::stats::{median, quantile};
use crate::trace::{self_times_ns, Recorder, Span, TimedBackend};
use crate::{layers, verify};
use apa_core::catalog;
use apa_gemm::{thread_allocation_counters, Mat};
use apa_nn::{
    classical, guarded, performance_network, softmax_cross_entropy, synthetic_mnist, Backend,
    GuardedBackend, Mlp,
};
use std::sync::Arc;
use std::time::Instant;

/// Hidden width of the performance network (the H = 1024 point of Fig. 6).
pub const WIDTH: usize = 1024;
/// Distinct pre-gathered batches a run cycles through.
const BATCHES: usize = 8;
/// Times the set-up is repeated; `setup_s` is the median.
const SETUP_REPS: usize = 3;
const LEARNING_RATE: f32 = 0.05;

pub struct TrainSpec {
    pub name: &'static str,
    pub batch: usize,
    /// Hidden layers on `guarded(bini322, 1)` instead of `classical(1)`.
    pub guarded: bool,
    /// Untimed steps after building the net (buffers reach their
    /// high-water mark, workspaces and pack buffers are built).
    pub warmup: usize,
    /// Twin steps (one plain, one traced) per second of `--seconds` in a
    /// traced run; fixed, so the run's counts repeat exactly per seed.
    pub traced_steps_per_s: f64,
}

pub const SPECS: [TrainSpec; 3] = [
    TrainSpec {
        name: "train_sq_classical",
        batch: 1024,
        guarded: false,
        warmup: 3,
        traced_steps_per_s: 0.5,
    },
    TrainSpec {
        name: "train_sq_guarded",
        batch: 1024,
        guarded: true,
        warmup: 3,
        traced_steps_per_s: 0.5,
    },
    TrainSpec {
        name: "train_skinny_guarded",
        batch: 64,
        guarded: true,
        warmup: 8,
        traced_steps_per_s: 2.0,
    },
];

/// A built, warmed network with its data.
struct Built {
    net: Mlp,
    guard: Option<Arc<GuardedBackend>>,
    batches: Vec<(Mat<f32>, Vec<u8>)>,
    /// Loss of the very first warm-up step (where training started).
    first_loss: f32,
}

/// Build data and net and run the warm-up steps, every phase timed on the
/// reference host. Returns the state and the set-up's reference seconds.
fn build(spec: &TrainSpec, seed: u64, clock: &mut HostClock) -> (Built, f64) {
    clock.reprobe();
    let mut ref_ms = 0.0;
    let (batches, _, r) = clock.time(|| {
        let data = synthetic_mnist(BATCHES * spec.batch, seed);
        (0..BATCHES)
            .map(|b| {
                let rows: Vec<usize> = (b * spec.batch..(b + 1) * spec.batch).collect();
                data.gather(&rows)
            })
            .collect::<Vec<_>>()
    });
    ref_ms += r;
    let ((net, guard), _, r) = clock.time(|| {
        if spec.guarded {
            let g = guarded(catalog::bini322(), 1);
            let hidden: Backend = g.clone();
            (performance_network(WIDTH, hidden, 1, seed), Some(g))
        } else {
            (performance_network(WIDTH, classical(1), 1, seed), None)
        }
    });
    ref_ms += r;
    let mut built = Built {
        net,
        guard,
        batches,
        first_loss: f32::NAN,
    };
    for step in 0..spec.warmup {
        let (x, y) = &built.batches[step % BATCHES];
        let ((loss, _), _, r) = clock.time(|| built.net.train_batch(x, y, LEARNING_RATE));
        if step == 0 {
            built.first_loss = loss;
        }
        ref_ms += r;
    }
    (built, ref_ms / 1e3)
}

/// Classical-equivalent flops (2mkn, §3.3) of one training step: three
/// multiplies per layer.
fn step_flops(net: &Mlp, batch: usize) -> f64 {
    net.layers
        .iter()
        .map(|l| 3.0 * 2.0 * batch as f64 * l.inputs() as f64 * l.outputs() as f64)
        .sum()
}

/// One verification product per distinct backend × shape the step
/// multiplies (forward, dW, dX of every layer); returns the worst error.
fn verify_products(built: &Built, spec: &TrainSpec, seed: u64, tally: &mut Tally) -> f64 {
    let apa_tol = built.guard.as_ref().map(|g| {
        let base = g.guard().base();
        verify::apa_tolerance(base.sigma(), base.algorithm().phi(), base.current_steps())
    });
    let mut seen: Vec<(String, (usize, usize, usize))> = Vec::new();
    let mut worst = 0.0f64;
    for layer in &built.net.layers {
        let (b, i, o) = (spec.batch, layer.inputs(), layer.outputs());
        let backend = layer.backend();
        let name = backend.name();
        let tolerance = match apa_tol {
            Some(t) if name.starts_with("guarded") => t,
            _ => verify::CLASSICAL_TOLERANCE,
        };
        for shape in [(b, i, o), (i, b, o), (b, o, i)] {
            if seen.contains(&(name.clone(), shape)) {
                continue;
            }
            seen.push((name.clone(), shape));
            let err = verify::product_error(backend.as_ref(), shape, seed);
            tally.check(err.is_finite() && err <= tolerance, || {
                format!("{name} {shape:?}: error {err:e} above {tolerance:e}")
            });
            worst = worst.max(err);
        }
    }
    worst
}

/// Checks shared by both runs once the steps are done.
fn check_health_and_loss(built: &Built, last_loss: f32, tally: &mut Tally) {
    tally.check(
        last_loss.is_finite() && last_loss < built.first_loss,
        || format!("loss ended at {last_loss}, started at {}", built.first_loss),
    );
    if let Some(g) = &built.guard {
        let h = g.health();
        tally.check(h.demotions == 0 && h.degraded_calls() == 0, || {
            format!(
                "guard demoted {} times ({} degraded calls): a demoted run measures another program",
                h.demotions,
                h.degraded_calls()
            )
        });
    }
}

/// The untraced run: every end-to-end metric.
pub fn run(spec: &TrainSpec, seed: u64, seconds: f64) -> Outcome {
    let mut clock = HostClock::new();
    let mut tally = Tally::default();

    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut built = None;
    for _ in 0..SETUP_REPS {
        drop(built.take());
        let (b, setup_s) = build(spec, seed, &mut clock);
        setups.push(setup_s);
        built = Some(b);
    }
    let mut built = built.expect("SETUP_REPS ≥ 1");
    let flops = step_flops(&built.net, spec.batch);

    // Timed closed loop: one op = one `Mlp::train_batch`.
    let mut wall = Vec::new();
    let mut reference = Vec::new();
    let mut good = 0u64;
    let mut last_loss = f32::NAN;
    clock.reprobe();
    let start = Instant::now();
    let mut step = 0usize;
    while start.elapsed().as_secs_f64() < seconds {
        let (x, y) = &built.batches[step % BATCHES];
        let ((loss, _), w, r) = clock.time(|| built.net.train_batch(x, y, LEARNING_RATE));
        wall.push(w);
        reference.push(r);
        if loss.is_finite() {
            good += 1;
            tally.ok(1);
        } else {
            tally.check(false, || format!("step {step}: loss {loss}"));
        }
        last_loss = loss;
        step += 1;
    }
    let timed_wall_s = start.elapsed().as_secs_f64();

    check_health_and_loss(&built, last_loss, &mut tally);
    let max_rel_error = verify_products(&built, spec, seed, &mut tally);

    let ref_total_s = reference.iter().sum::<f64>() / 1e3;
    let typical = median(&reference);
    let tail_q = tail_quantile(reference.len());
    let gated = vec![
        metric("setup_s", median(&setups), "s"),
        metric("op_ms_typical", typical, "ms"),
        metric("op_ms_tail", quantile(&reference, tail_q), "ms"),
        metric("ops_per_s", good as f64 / ref_total_s, "1/s"),
        metric("max_rel_error", max_rel_error, "ratio"),
        metric("peak_rss_mb", crate::peak_rss_mb(), "MB"),
    ];
    let mut extra = vec![
        metric("samples", reference.len() as f64, "count"),
        metric("op_ms_tail_quantile", tail_q, "ratio"),
        metric("op_ms_q25", quantile(&reference, 0.25), "ms"),
        metric("op_ms_q75", quantile(&reference, 0.75), "ms"),
        metric("op_ms_p10_wall", quantile(&wall, 0.1), "ms"),
        metric("op_ms_p50_wall", median(&wall), "ms"),
        metric("op_ms_p90_wall", quantile(&wall, 0.9), "ms"),
        metric("ops_per_s_wall", good as f64 / timed_wall_s, "1/s"),
        metric(
            "effective_gflops",
            flops / (typical * 1e-3) / 1e9,
            "GFLOP/s",
        ),
        metric(
            "failed_share",
            tally.failed as f64 / tally.attempted as f64,
            "ratio",
        ),
    ];
    extra.extend(host_metrics(&clock));
    Outcome {
        workload: spec.name.to_string(),
        seed,
        traced: false,
        tally,
        gated,
        extra,
    }
}

/// The quantile `op_ms_tail` reads: p90, or the highest one that still has
/// ten samples beyond it when a run timed fewer than 100 ops (the square
/// workloads time ≈ 65–75 in 26 s).
fn tail_quantile(samples: usize) -> f64 {
    (1.0 - 10.0 / samples as f64).clamp(0.5, 0.9)
}

pub fn host_metrics(clock: &HostClock) -> Vec<Metric> {
    vec![
        metric("host.probe_ms_p10", quantile(clock.probes(), 0.1), "ms"),
        metric("host.slow_share", clock.slow_share(), "ratio"),
    ]
}

/// The train-only per-layer metrics at 0, for the traced run of the
/// serving workload.
pub fn untouched_layer_metrics() -> Vec<Metric> {
    [
        ("nn.mm_share", "ratio"),
        ("nn.glue_share", "ratio"),
        ("nn.forward_self_ms", "ms"),
        ("nn.backward_self_ms", "ms"),
        ("nn.loss_ms", "ms"),
        ("nn.sgd_ms", "ms"),
        ("nn.mm_ms.fwd", "ms"),
        ("nn.mm_ms.dw", "ms"),
        ("nn.mm_ms.dx", "ms"),
        ("nn.transpose_ms_per_step", "ms"),
        ("nn.alloc_bytes_per_step", "B"),
        ("nn.alloc_calls_per_step", "count"),
        ("matmul.health.probes", "count"),
        ("matmul.health.abft_checks", "count"),
        ("matmul.health.demotions", "count"),
    ]
    .into_iter()
    .map(|(name, unit)| metric(name, 0.0, unit))
    .collect()
}

const FWD: [&str; 5] = ["fwd.l0", "fwd.l1", "fwd.l2", "fwd.l3", "fwd.l4"];
const BWD: [&str; 5] = ["bwd.l0", "bwd.l1", "bwd.l2", "bwd.l3", "bwd.l4"];
const SGD: [&str; 5] = ["sgd.l0", "sgd.l1", "sgd.l2", "sgd.l3", "sgd.l4"];

/// One training step driven through the public pieces — the same calls
/// in the same order as `Mlp::train_batch`, a span around each.
fn traced_step(net: &mut Mlp, x: &Mat<f32>, labels: &[u8], rec: &Recorder, op: u32) -> f32 {
    rec.set_op(op);
    let step = rec.enter("step");
    let mut cur = rec.span("input", || x.clone());
    for (l, layer) in net.layers.iter_mut().enumerate() {
        cur = rec.span(FWD[l], || layer.forward(&cur));
    }
    let (loss, mut grad) = rec.span("loss", || {
        let (loss, grad) = softmax_cross_entropy(&cur, labels);
        std::hint::black_box(apa_nn::accuracy(&cur, labels));
        (loss, grad.clone())
    });
    for (l, layer) in net.layers.iter_mut().enumerate().rev() {
        grad = rec.span(BWD[l], || layer.backward(&grad));
    }
    for (l, layer) in net.layers.iter_mut().enumerate() {
        rec.span(SGD[l], || layer.apply_sgd(LEARNING_RATE));
    }
    rec.exit(step);
    loss
}

/// Per-step totals read off the spans of one traced step, in wall ms.
#[derive(Default, Clone, Copy)]
struct StepBreakdown {
    step: f64,
    covered: f64,
    mm_fwd: f64,
    mm_dw: f64,
    mm_dx: f64,
    fwd_self: f64,
    bwd_self: f64,
    loss: f64,
    sgd: f64,
}

fn breakdowns(spans: &[Span]) -> Vec<StepBreakdown> {
    let selfs = self_times_ns(spans);
    let mut by_op: Vec<StepBreakdown> = Vec::new();
    // Second multiply under a `bwd.*` span is dX, the first dW.
    let mut bwd_mm_seen: Vec<u32> = vec![0; spans.len() + 1];
    for (s, &self_ns) in spans.iter().zip(&selfs) {
        let op = s.op as usize;
        if by_op.len() <= op {
            by_op.resize(op + 1, StepBreakdown::default());
        }
        let b = &mut by_op[op];
        let parent = (s.parent != 0).then(|| &spans[s.parent as usize - 1]);
        match s.name {
            "step" => b.step = s.ms(),
            "mm" => {
                let parent = parent.expect("a multiply runs inside a layer call");
                if parent.name.starts_with("fwd") {
                    b.mm_fwd += s.ms();
                } else {
                    let nth = &mut bwd_mm_seen[parent.id as usize];
                    if *nth == 0 {
                        b.mm_dw += s.ms();
                    } else {
                        b.mm_dx += s.ms();
                    }
                    *nth += 1;
                }
            }
            name => {
                if parent.is_some_and(|p| p.name == "step") {
                    b.covered += s.ms();
                }
                let self_ms = self_ns as f64 / 1e6;
                if name.starts_with("fwd") {
                    b.fwd_self += self_ms;
                } else if name.starts_with("bwd") {
                    b.bwd_self += self_ms;
                } else if name.starts_with("sgd") {
                    b.sgd += self_ms;
                } else if name == "loss" {
                    b.loss += self_ms;
                }
            }
        }
    }
    by_op.into_iter().filter(|b| b.step > 0.0).collect()
}

/// Replay the exact Xᵀ/Wᵀ transposes one step materializes
/// (`Dense::backward`): the ceiling for deleting them.
fn transpose_ms_per_step(built: &Built, spec: &TrainSpec, clock: &mut HostClock) -> f64 {
    let mut total = 0.0;
    for layer in &built.net.layers {
        for (rows, cols) in [
            (spec.batch, layer.inputs()),
            (layer.inputs(), layer.outputs()),
        ] {
            total += layers::transpose_ms(rows, cols, clock);
        }
    }
    total
}

/// The traced run: every per-layer metric.
pub fn run_traced(
    spec: &TrainSpec,
    seed: u64,
    seconds: f64,
    trace_path: &std::path::Path,
) -> Outcome {
    let mut clock = HostClock::new();
    let mut tally = Tally::default();
    let steps = ((seconds * spec.traced_steps_per_s).round() as usize).max(4);

    // Twin nets from one seed: `plain` steps through `Mlp::train_batch`,
    // `traced` through the public pieces with a TimedBackend per layer.
    let (mut plain, _) = build(spec, seed, &mut clock);
    let (mut traced, _) = build(spec, seed, &mut clock);
    let rec = Recorder::with_capacity(steps * 40 + 64);
    for layer in traced.net.layers.iter_mut() {
        layer.set_backend(TimedBackend::wrap(layer.backend(), rec.clone()));
    }

    let mut plain_ref = Vec::with_capacity(steps);
    let mut traced_ref = Vec::with_capacity(steps);
    let mut factors = Vec::with_capacity(steps);
    let mut last_loss = f32::NAN;
    // Allocations of the last plain step: the steady state.
    let mut alloc_step = apa_gemm::AllocationCounters { calls: 0, bytes: 0 };
    clock.reprobe();
    for step in 0..steps {
        let (x, y) = &plain.batches[step % BATCHES];
        let allocs = thread_allocation_counters();
        let ((loss, _), _, r) = clock.time(|| plain.net.train_batch(x, y, LEARNING_RATE));
        alloc_step = thread_allocation_counters().since(allocs);
        plain_ref.push(r);
        let (x, y) = &traced.batches[step % BATCHES];
        let (traced_loss, w, r) =
            clock.time(|| traced_step(&mut traced.net, x, y, &rec, step as u32 + 1));
        traced_ref.push(r);
        factors.push(r / w);
        tally.check(
            loss.is_finite() && loss.to_bits() == traced_loss.to_bits(),
            || format!("step {step}: train_batch loss {loss}, traced loss {traced_loss}"),
        );
        last_loss = loss;
    }
    let weights_equal = plain
        .net
        .layers
        .iter()
        .zip(&traced.net.layers)
        .all(|(p, t)| p.w == t.w && p.b == t.b);
    tally.check(weights_equal, || {
        "final weights of the traced twin differ from Mlp::train_batch".to_string()
    });
    check_health_and_loss(&plain, last_loss, &mut tally);
    check_health_and_loss(&traced, last_loss, &mut tally);
    verify_products(&plain, spec, seed, &mut tally);

    let spans = rec.spans();
    tally.check(rec.dropped() == 0, || {
        format!("{} spans did not fit the trace buffer", rec.dropped())
    });
    let per_step = breakdowns(&spans);
    // Scale every step's figures to the reference host by that step's factor.
    let col = |f: fn(&StepBreakdown) -> f64| -> f64 {
        median(
            &per_step
                .iter()
                .zip(&factors)
                .map(|(b, k)| f(b) * k)
                .collect::<Vec<_>>(),
        )
    };
    let step_ms = col(|b| b.step);
    let mm_ms = col(|b| b.mm_fwd + b.mm_dw + b.mm_dx);
    let mm_share = median(
        &per_step
            .iter()
            .map(|b| (b.mm_fwd + b.mm_dw + b.mm_dx) / b.step)
            .collect::<Vec<_>>(),
    );
    let coverage = median(
        &per_step
            .iter()
            .map(|b| b.covered / b.step)
            .collect::<Vec<_>>(),
    );
    let overhead = median(&traced_ref) / median(&plain_ref) - 1.0;

    let health = plain.guard.as_ref().map(|g| g.health()).unwrap_or_default();
    let mut gated = vec![
        metric("nn.mm_share", mm_share, "ratio"),
        metric("nn.glue_share", 1.0 - mm_share, "ratio"),
        metric("nn.forward_self_ms", col(|b| b.fwd_self), "ms"),
        metric("nn.backward_self_ms", col(|b| b.bwd_self), "ms"),
        metric("nn.loss_ms", col(|b| b.loss), "ms"),
        metric("nn.sgd_ms", col(|b| b.sgd), "ms"),
        metric("nn.mm_ms.fwd", col(|b| b.mm_fwd), "ms"),
        metric("nn.mm_ms.dw", col(|b| b.mm_dw), "ms"),
        metric("nn.mm_ms.dx", col(|b| b.mm_dx), "ms"),
        metric(
            "nn.transpose_ms_per_step",
            transpose_ms_per_step(&plain, spec, &mut clock),
            "ms",
        ),
        metric("nn.alloc_bytes_per_step", alloc_step.bytes as f64, "B"),
        metric("nn.alloc_calls_per_step", alloc_step.calls as f64, "count"),
        metric("matmul.health.probes", health.probes as f64, "count"),
        metric(
            "matmul.health.abft_checks",
            health.abft_checks as f64,
            "count",
        ),
        metric("matmul.health.demotions", health.demotions as f64, "count"),
        metric("trace.coverage", coverage, "ratio"),
        metric("trace.overhead_share", overhead, "ratio"),
    ];
    drop((plain, traced));
    gated.extend(layers::replay_all(seed, &mut clock, &mut tally));
    gated.extend(crate::serve::untouched_layer_metrics());
    gated.extend(host_metrics(&clock));

    let extra = vec![
        metric("traced_steps", steps as f64, "count"),
        metric("step_ms_traced", step_ms, "ms"),
        metric("step_ms_plain", median(&plain_ref), "ms"),
        metric("mm_ms_per_step", mm_ms, "ms"),
        metric("spans", spans.len() as f64, "count"),
    ];
    if let Err(e) = crate::trace::write_json(trace_path, &spans) {
        eprintln!("ledger: could not write {}: {e}", trace_path.display());
    }
    Outcome {
        workload: spec.name.to_string(),
        seed,
        traced: true,
        tally,
        gated,
        extra,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(id: u32, parent: u32, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            op: 1,
            name,
            start_ns: start * 1_000_000,
            end_ns: end * 1_000_000,
            shape: None,
        }
    }

    #[test]
    fn tail_quantile_keeps_ten_samples_beyond_it() {
        assert_eq!(tail_quantile(400), 0.9);
        assert_eq!(tail_quantile(100), 0.9);
        assert_eq!(tail_quantile(50), 0.8);
        assert_eq!(tail_quantile(4), 0.5);
    }

    #[test]
    fn breakdown_classifies_multiplies_and_sums_self_times() {
        let spans = [
            s(1, 0, "step", 0, 100),
            s(2, 1, "fwd.l0", 0, 30),
            s(3, 2, "mm", 5, 25),
            s(4, 1, "loss", 30, 35),
            s(5, 1, "bwd.l0", 35, 90),
            s(6, 5, "mm", 40, 60),
            s(7, 5, "mm", 65, 85),
            s(8, 1, "sgd.l0", 90, 98),
        ];
        let b = breakdowns(&spans);
        assert_eq!(b.len(), 1);
        let b = b[0];
        assert_eq!((b.mm_fwd, b.mm_dw, b.mm_dx), (20.0, 20.0, 20.0));
        assert_eq!(
            (b.fwd_self, b.bwd_self, b.loss, b.sgd),
            (10.0, 15.0, 5.0, 8.0)
        );
        assert_eq!((b.step, b.covered), (100.0, 98.0));
    }
}
