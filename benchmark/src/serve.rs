//! `serve_open_planned`: the dynamic-batching `InferenceService` under an
//! open-loop arrival schedule. One sender thread submits single rows at a
//! fixed rate whatever the service does, one collector thread waits the
//! tickets first-in first-out, and every request is timed from the
//! instant it was *due*, so a stall is charged to every request it delays.

use crate::layers::{self, SERVE_WIDTHS};
use crate::probe::{self, HostClock, QUIET_BELOW};
use crate::report::{metric, Metric, Outcome, Tally};
use crate::stats::{at_loaded_level, median, quantile, window_quantiles};
use crate::trace::{Recorder, Span, TimedBackend};
use crate::verify::{self, uniform_mat, SplitMix};
use apa_gemm::{Mat, MatMut, MatRef};
use apa_nn::{classical, planned, Backend, MatmulBackend};
use apa_planner::{PlanCompiler, PlanRequest};
use apa_serve::{InferenceService, Replica, ServeConfig, ServeError, ServeStats, ServiceHandle};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

pub const NAME: &str = "serve_open_planned";
/// Offered load, requests per second.
pub const RATE: f64 = 6000.0;
/// Distinct request rows; request `i` sends row `i mod POOL`.
const POOL: usize = 2048;
/// Untimed traffic before the timed schedule starts, seconds.
const WARM_TRAFFIC_S: f64 = 0.5;
/// Width of the windows the latency quantiles are taken in, seconds.
const WINDOW_S: f64 = 0.5;
const SETUP_REPS: usize = 3;
/// Seconds of traced traffic per second of `--seconds`.
const TRACED_SHARE: f64 = 0.3;
/// The lane times the host probe this often (see [`LaneProbe`]).
const LANE_PROBE_EVERY: Duration = Duration::from_millis(100);

/// When request `i` of a fixed-rate schedule is due, ns after its start.
pub fn due_ns(i: u64, rate: f64) -> u64 {
    (i as f64 * 1e9 / rate).round() as u64
}

/// How late the generator ran for one request: submit start minus due
/// time, 0 when it was on time.
pub fn lateness_ns(due_ns: u64, submit_ns: u64) -> u64 {
    submit_ns.saturating_sub(due_ns)
}

/// Latency of a request from the instant it was due: the generator's
/// lateness plus what the service measured from submit to response.
pub fn latency_from_due_ns(due_ns: u64, submit_ns: u64, service_ns: u64) -> u64 {
    lateness_ns(due_ns, submit_ns) + service_ns
}

/// A backend of the harness's own that forwards every multiply and, at
/// most every [`LANE_PROBE_EVERY`], times one host-probe chunk on the
/// thread that ran it. The two vCPUs of this box change speed level
/// independently, so only the lane's own thread can say which level its
/// multiplies ran at.
struct LaneProbe {
    inner: Backend,
    t0: Instant,
    state: Mutex<(Instant, Vec<(f64, f64)>)>,
}

impl LaneProbe {
    fn wrap(inner: Backend, t0: Instant) -> Arc<Self> {
        Arc::new(LaneProbe {
            inner,
            t0,
            state: Mutex::new((t0, Vec::with_capacity(4096))),
        })
    }

    /// `(seconds since t0, probe ms)` samples so far.
    fn samples(&self) -> Vec<(f64, f64)> {
        self.state.lock().expect("probe never panics").1.clone()
    }
}

impl MatmulBackend for LaneProbe {
    fn matmul_into(&self, a: MatRef<'_, f32>, b: MatRef<'_, f32>, c: MatMut<'_, f32>) {
        self.inner.matmul_into(a, b, c);
        let now = Instant::now();
        let mut state = self.state.lock().expect("probe never panics");
        if now.duration_since(state.0) >= LANE_PROBE_EVERY {
            let p = probe::probe_ms();
            state.0 = now;
            state.1.push((now.duration_since(self.t0).as_secs_f64(), p));
        }
    }

    fn name(&self) -> String {
        self.inner.name()
    }

    fn warm(&self, shapes: &[(usize, usize, usize)]) {
        self.inner.warm(shapes);
    }
}

/// What the sender hands the collector for one request.
struct Sent {
    index: u64,
    /// When the request was due, ns after the schedule's start.
    due_ns: u64,
    submit_start: Instant,
    submit_end: Instant,
    ticket: Result<apa_serve::Ticket, ServeError>,
}

/// One answered request, times in ns.
struct Answered {
    due_s: f64,
    latency_ns: u64,
    lateness_ns: u64,
    submit_ns: u64,
    batch_rows: usize,
    padded_rows: usize,
}

#[derive(Default)]
struct Traffic {
    answered: Vec<Answered>,
    wrong: u64,
    refused: u64,
    expired: u64,
    errored: u64,
    first_note: Option<String>,
}

/// Sleep most of the way to `due`, then yield the rest: the sender shares
/// a vCPU with the collector and must not hog it.
fn wait_until(due: Instant) {
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > Duration::from_micros(150) {
            std::thread::sleep(left - Duration::from_micros(100));
        } else {
            std::thread::yield_now();
        }
    }
}

struct RequestPool {
    rows: Mat<f32>,
    /// Reference replica's answer to every row.
    expected: Mat<f32>,
    /// Largest relative distance a response may have from `expected`.
    tolerance: f64,
}

impl RequestPool {
    fn new(seed: u64, tolerance: f64) -> Self {
        let rows = uniform_mat(POOL, SERVE_WIDTHS[0], &mut SplitMix(seed ^ 0x5e7e));
        let reference = layers::serve_model(classical(1), seed);
        let expected = reference.predict(&rows);
        RequestPool {
            rows,
            expected,
            tolerance,
        }
    }

    fn row(&self, i: u64) -> &[f32] {
        self.rows.as_ref().row(i as usize % POOL)
    }

    fn answer_is_right(&self, i: u64, output: &[f32]) -> bool {
        let want = self.expected.as_ref().row(i as usize % POOL);
        if output.len() != want.len() {
            return false;
        }
        let (mut num, mut den) = (0.0f64, 0.0f64);
        for (&g, &w) in output.iter().zip(want) {
            num += (g as f64 - w as f64).powi(2);
            den += (w as f64).powi(2);
        }
        num.is_finite() && num.sqrt() <= self.tolerance * den.sqrt()
    }
}

/// Drive `count` requests at [`RATE`] through `handle` and collect every
/// answer. With a recorder, each request also leaves a `request` span
/// (due → answered) with a `submit` child.
fn drive(
    handle: &ServiceHandle,
    pool: &RequestPool,
    count: u64,
    rec: Option<&Recorder>,
) -> Traffic {
    let (tx, rx) = mpsc::channel::<Sent>();
    let start = Instant::now() + Duration::from_millis(2);
    std::thread::scope(|scope| {
        scope.spawn(move || {
            for index in 0..count {
                let due_ns = due_ns(index, RATE);
                wait_until(start + Duration::from_nanos(due_ns));
                let row = pool.row(index).to_vec();
                let submit_start = Instant::now();
                let ticket = handle.submit(row);
                let sent = Sent {
                    index,
                    due_ns,
                    submit_start,
                    submit_end: Instant::now(),
                    ticket,
                };
                if tx.send(sent).is_err() {
                    return;
                }
            }
        });
        let collector = scope.spawn(move || {
            let mut t = Traffic {
                answered: Vec::with_capacity(count as usize),
                ..Traffic::default()
            };
            for sent in rx {
                let outcome = sent.ticket.and_then(|ticket| ticket.wait());
                match outcome {
                    Ok(resp) => {
                        if !pool.answer_is_right(sent.index, &resp.output) {
                            t.wrong += 1;
                            t.first_note.get_or_insert_with(|| {
                                format!(
                                    "request {}: answer differs from the reference replica",
                                    sent.index
                                )
                            });
                        }
                        let submit_at = sent.submit_start.saturating_duration_since(start);
                        let latency_ns = latency_from_due_ns(
                            sent.due_ns,
                            submit_at.as_nanos() as u64,
                            resp.latency.as_nanos() as u64,
                        );
                        if let Some(rec) = rec {
                            let due = start + Duration::from_nanos(sent.due_ns);
                            let end = due + Duration::from_nanos(latency_ns);
                            let op = sent.index as u32 + 1;
                            let id = rec.leaf("request", Some(0), Some(op), (due, end), None);
                            let submit = (sent.submit_start, sent.submit_end);
                            rec.leaf("submit", Some(id), Some(op), submit, None);
                        }
                        t.answered.push(Answered {
                            due_s: sent.due_ns as f64 / 1e9,
                            latency_ns,
                            lateness_ns: lateness_ns(sent.due_ns, submit_at.as_nanos() as u64),
                            submit_ns: (sent.submit_end - sent.submit_start).as_nanos() as u64,
                            batch_rows: resp.batch_rows,
                            padded_rows: resp.padded_rows,
                        });
                    }
                    Err(e) => {
                        match e {
                            ServeError::DeadlineExceeded { .. } => t.expired += 1,
                            ServeError::QueueFull { .. }
                            | ServeError::RateLimited { .. }
                            | ServeError::Overloaded { .. } => t.refused += 1,
                            _ => t.errored += 1,
                        }
                        t.first_note
                            .get_or_insert_with(|| format!("request {}: {e}", sent.index));
                    }
                }
            }
            t
        });
        collector.join().expect("collector does not panic")
    })
}

fn serve_config() -> ServeConfig {
    ServeConfig {
        queue_capacity: 16384,
        target_batch: 64,
        max_linger: Duration::from_millis(2),
        request_deadline: Some(Duration::from_secs(2)),
        warm_batches: vec![8, 16, 32],
        batch_attempts: 2,
        admission: None,
        breaker: None,
        brownout: None,
    }
}

struct Running {
    service: InferenceService,
    pool: RequestPool,
    lane_probe: Arc<LaneProbe>,
}

/// Tolerance for a response given the plans the lane runs on: classical
/// plans answer like the classical reference; each APA layer may add its
/// model bound.
fn response_tolerance() -> f64 {
    let mut worst: f64 = 0.0;
    for (m, k, n) in layers::serve_shapes() {
        let plan = apa_planner::compile(&PlanRequest::new(m, k, n).threads(1));
        if !plan.is_classical() {
            worst = worst.max(plan.predicted_error);
        }
    }
    let layers = (SERVE_WIDTHS.len() - 1) as f64;
    verify::CLASSICAL_TOLERANCE.max(verify::APA_TOLERANCE_FACTOR * worst * layers)
}

/// Everything before the first timed request: a cold compile of the serve
/// shapes (what a fresh process pays), the request pool with the
/// reference replica's answers, the service start (lane warm-up) and
/// half a second of traffic. Returns reference-host seconds.
fn start(
    seed: u64,
    clock: &mut HostClock,
    rec: Option<Arc<Recorder>>,
    plan_dir: &std::path::Path,
) -> (Running, f64) {
    clock.reprobe();
    let mut ref_ms = 0.0;
    let (_, _, r) = clock.time(|| {
        let cold = PlanCompiler::with_store(plan_dir.join("plans"));
        layers::compile_serve_plans(&cold)
    });
    ref_ms += r;
    let (pool, _, r) = clock.time(|| RequestPool::new(seed, response_tolerance()));
    ref_ms += r;
    let t0 = Instant::now();
    let ((service, lane_probe), _, r) = clock.time(|| {
        // The probe sits outside the timed span, so a multiply span
        // never contains a probe chunk.
        let mut backend = planned(1);
        if let Some(rec) = rec {
            backend = TimedBackend::wrap(backend, rec);
        }
        let lane_probe = LaneProbe::wrap(backend, t0);
        let replica = Replica::new(layers::serve_model(lane_probe.clone(), seed));
        (
            InferenceService::start(vec![replica], serve_config()),
            lane_probe,
        )
    });
    ref_ms += r;
    let warm = (WARM_TRAFFIC_S * RATE) as u64;
    let (_, _, r) = clock.time(|| drive(&service.handle(), &pool, warm, None));
    ref_ms += r;
    (
        Running {
            service,
            pool,
            lane_probe,
        },
        ref_ms / 1e3,
    )
}

/// Host level of every window, as the lane saw it: median lane probe of
/// the window over the reference chunk time. A window without a probe
/// (the lane ran no multiply in it) takes the last known level, the first
/// windows the first known one.
fn window_levels(probes: &[(f64, f64)], offset_s: f64, windows: usize) -> Vec<f64> {
    let mut per: Vec<Vec<f64>> = vec![Vec::new(); windows];
    for &(t, p) in probes {
        let t = t - offset_s;
        if t >= 0.0 && ((t / WINDOW_S) as usize) < windows {
            per[(t / WINDOW_S) as usize].push(p);
        }
    }
    let known = |v: &Vec<f64>| (!v.is_empty()).then(|| median(v) / probe::REF_CHUNK_MS);
    let mut last = per.iter().find_map(known).unwrap_or(1.0);
    per.iter()
        .map(|v| {
            last = known(v).unwrap_or(last);
            last
        })
        .collect()
}

/// Loaded-over-quiet latency ratios assumed for a run whose lane saw one
/// host level only. Below saturation a slower lane lengthens both a
/// batch's compute and the wait behind the previous batch, so latency
/// grows faster than the 1.27× the level itself changes by; these are
/// what runs that saw both levels measured when the benchmark was
/// defined.
const DEFAULT_RATIO_TYPICAL: f64 = 1.55;
const DEFAULT_RATIO_TAIL: f64 = 1.40;

struct Latencies {
    typical_ms: f64,
    tail_ms: f64,
    typical_wall_ms: f64,
    tail_wall_ms: f64,
    ratio_typical: f64,
    ratio_tail: f64,
    loaded_share: f64,
    windows: usize,
}

/// Per-window p50 and p99 by due time, each window labelled loaded or
/// quiet by the lane's own probes, read at the loaded level (see
/// `stats::at_loaded_level`).
fn latencies(answered: &[Answered], lane_probes: &[(f64, f64)], offset_s: f64) -> Latencies {
    let samples: Vec<(f64, f64)> = answered
        .iter()
        .map(|a| (a.due_s, a.latency_ns as f64 / 1e6))
        .collect();
    let p50 = window_quantiles(&samples, WINDOW_S, 0.5, 200);
    let p99 = window_quantiles(&samples, WINDOW_S, 0.99, 200);
    let windows = p50.iter().map(|&(w, _)| w + 1).max().unwrap_or(0);
    let level = window_levels(lane_probes, offset_s, windows);
    let labelled = |per: &[(usize, f64)]| -> Vec<(bool, f64)> {
        per.iter()
            .map(|&(w, v)| (level[w] >= QUIET_BELOW, v))
            .collect()
    };
    let raw =
        |per: &[(usize, f64)]| -> f64 { median(&per.iter().map(|&(_, v)| v).collect::<Vec<_>>()) };
    let typical = at_loaded_level(&labelled(&p50), DEFAULT_RATIO_TYPICAL);
    let tail = at_loaded_level(&labelled(&p99), DEFAULT_RATIO_TAIL);
    let loaded = p50
        .iter()
        .filter(|&&(w, _)| level[w] >= QUIET_BELOW)
        .count();
    Latencies {
        typical_ms: typical.value,
        tail_ms: tail.value,
        typical_wall_ms: raw(&p50),
        tail_wall_ms: raw(&p99),
        ratio_typical: typical.ratio,
        ratio_tail: tail.ratio,
        loaded_share: loaded as f64 / p50.len().max(1) as f64,
        windows: p50.len(),
    }
}

fn count_traffic(t: &Traffic, tally: &mut Tally) {
    tally.ok(t.answered.len() as u64 - t.wrong.min(t.answered.len() as u64));
    for _ in 0..t.wrong {
        tally.check(false, || t.first_note.clone().unwrap_or_default());
    }
    tally.unserved(t.refused + t.expired + t.errored, || {
        format!(
            "{} refused, {} expired, {} errored; first: {}",
            t.refused,
            t.expired,
            t.errored,
            t.first_note.clone().unwrap_or_default()
        )
    });
}

/// One verification product per serve shape through the planned backend.
fn verify_products(seed: u64, tally: &mut Tally) -> f64 {
    let backend = planned(1);
    let mut worst = 0.0f64;
    for shape in layers::serve_shapes() {
        let (m, k, n) = shape;
        let plan = apa_planner::compile(&PlanRequest::new(m, k, n).threads(1));
        let tolerance = if plan.is_classical() {
            verify::CLASSICAL_TOLERANCE
        } else {
            verify::APA_TOLERANCE_FACTOR * plan.predicted_error
        };
        let err = verify::product_error(backend.as_ref(), shape, seed);
        tally.check(err.is_finite() && err <= tolerance, || {
            format!(
                "planned {shape:?} ({}): error {err:e} above {tolerance:e}",
                plan.rule
            )
        });
        worst = worst.max(err);
    }
    worst
}

/// What `seconds` of timed traffic through a started service gave.
struct Measured {
    traffic: Traffic,
    /// Service counters right before and after the timed traffic.
    before: ServeStats,
    after: ServeStats,
    lat: Latencies,
    wall_s: f64,
}

/// Drive the timed schedule through `running`, then drain and stop it.
fn measure(running: Running, seconds: f64, rec: Option<&Recorder>) -> Measured {
    let before = running.service.stats();
    let offset_s = running.lane_probe.t0.elapsed().as_secs_f64();
    let begun = Instant::now();
    let count = (seconds * RATE) as u64;
    let traffic = drive(&running.service.handle(), &running.pool, count, rec);
    let wall_s = begun.elapsed().as_secs_f64();
    let after = running.service.shutdown();
    let lat = latencies(&traffic.answered, &running.lane_probe.samples(), offset_s);
    Measured {
        traffic,
        before,
        after,
        lat,
        wall_s,
    }
}

/// The untraced run: every end-to-end metric.
pub fn run(seed: u64, seconds: f64, plan_dir: &std::path::Path) -> Outcome {
    let mut clock = HostClock::new();
    let mut tally = Tally::default();

    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut running = None;
    for rep in 0..SETUP_REPS {
        if let Some(Running { service, .. }) = running.take() {
            service.shutdown();
        }
        let (r, setup_s) = start(seed, &mut clock, None, &plan_dir.join(format!("cold{rep}")));
        setups.push(setup_s);
        running = Some(r);
    }
    let m = measure(running.expect("SETUP_REPS ≥ 1"), seconds, None);
    count_traffic(&m.traffic, &mut tally);
    let good = m.traffic.answered.len() as u64 - m.traffic.wrong;
    let max_rel_error = verify_products(seed, &mut tally);
    let all: Vec<f64> = m
        .traffic
        .answered
        .iter()
        .map(|a| a.latency_ns as f64 / 1e6)
        .collect();

    let gated = vec![
        metric("setup_s", median(&setups), "s"),
        metric("op_ms_typical", m.lat.typical_ms, "ms"),
        metric("op_ms_tail", m.lat.tail_ms, "ms"),
        metric("ops_per_s", good as f64 / m.wall_s, "1/s"),
        metric("max_rel_error", max_rel_error, "ratio"),
        metric("peak_rss_mb", crate::peak_rss_mb(), "MB"),
    ];
    let mut extra = vec![
        metric("samples", m.traffic.answered.len() as f64, "count"),
        metric("windows", m.lat.windows as f64, "count"),
        metric("op_ms_p50_wall", m.lat.typical_wall_ms, "ms"),
        metric("op_ms_p99_wall", m.lat.tail_wall_ms, "ms"),
        metric("op_ms_p99_raw_whole_run", quantile(&all, 0.99), "ms"),
        metric("loaded_over_quiet_typical", m.lat.ratio_typical, "x"),
        metric("loaded_over_quiet_tail", m.lat.ratio_tail, "x"),
        metric("lane_loaded_share", m.lat.loaded_share, "ratio"),
        metric("offered_per_s", RATE, "1/s"),
        metric(
            "failed_share",
            tally.failed as f64 / tally.attempted as f64,
            "ratio",
        ),
        metric("batch_rows_mean", m.after.mean_batch_rows(), "rows"),
    ];
    extra.extend(crate::train::host_metrics(&clock));
    Outcome {
        workload: NAME.to_string(),
        seed,
        traced: false,
        tally,
        gated,
        extra,
    }
}

/// Share of answered requests whose due→answered interval contains a
/// whole lane-side multiply: the join of the two span sets by time.
fn joined_share(spans: &[Span]) -> f64 {
    let mut mm: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.name == "mm")
        .map(|s| (s.start_ns, s.end_ns))
        .collect();
    mm.sort_unstable();
    let requests: Vec<&Span> = spans.iter().filter(|s| s.name == "request").collect();
    if requests.is_empty() {
        return 0.0;
    }
    let joined = requests
        .iter()
        .filter(|r| {
            let first = mm.partition_point(|m| m.0 < r.start_ns);
            mm[first..]
                .iter()
                .take_while(|m| m.0 <= r.end_ns)
                .any(|m| m.1 <= r.end_ns)
        })
        .count();
    joined as f64 / requests.len() as f64
}

fn serve_layer_metrics(
    traffic: &Traffic,
    before: &ServeStats,
    after: &ServeStats,
    typical_ms: f64,
    wall_s: f64,
    predict_ms: impl Fn(usize) -> f64,
) -> Vec<Metric> {
    let batches = after.batches - before.batches;
    let padded = after.padded_rows - before.padded_rows;
    let completed = after.completed - before.completed;
    // Σ batches × predict time at their padded size: every response of a
    // batch of `r` real rows carries 1/r of it.
    let busy_ms: f64 = traffic
        .answered
        .iter()
        .map(|a| predict_ms(a.padded_rows) / a.batch_rows.max(1) as f64)
        .sum();
    let of = |f: fn(&Answered) -> f64| -> Vec<f64> { traffic.answered.iter().map(f).collect() };
    let median_padded = median(&of(|a| a.padded_rows as f64)) as usize;
    vec![
        metric(
            "serve.submit_us_p50",
            median(&of(|a| a.submit_ns as f64 / 1e3)),
            "us",
        ),
        metric(
            "serve.batch_rows_mean",
            completed as f64 / batches.max(1) as f64,
            "rows",
        ),
        metric(
            "serve.padded_share",
            padded as f64 / (padded + completed).max(1) as f64,
            "ratio",
        ),
        metric("serve.batches_per_s", batches as f64 / wall_s, "1/s"),
        metric(
            "serve.max_queue_depth",
            after.max_queue_depth as f64,
            "count",
        ),
        metric(
            "serve.rejected",
            (after.rejected_queue_full + after.rejected_rate_limited + after.rejected_overloaded)
                as f64,
            "count",
        ),
        metric("serve.expired", after.expired as f64, "count"),
        metric("serve.lane_busy_share", busy_ms / (wall_s * 1e3), "ratio"),
        metric(
            "serve.wait_ms_p50",
            typical_ms - predict_ms(median_padded),
            "ms",
        ),
        metric(
            "serve.gen_lateness_ms_p99",
            quantile(&of(|a| a.lateness_ns as f64 / 1e6), 0.99),
            "ms",
        ),
    ]
}

const LAYER_METRICS: [(&str, &str); 10] = [
    ("serve.submit_us_p50", "us"),
    ("serve.batch_rows_mean", "rows"),
    ("serve.padded_share", "ratio"),
    ("serve.batches_per_s", "1/s"),
    ("serve.max_queue_depth", "count"),
    ("serve.rejected", "count"),
    ("serve.expired", "count"),
    ("serve.lane_busy_share", "ratio"),
    ("serve.wait_ms_p50", "ms"),
    ("serve.gen_lateness_ms_p99", "ms"),
];

/// The `serve.*` metrics at 0, for the traced runs of the workloads that
/// never start the service.
pub fn untouched_layer_metrics() -> Vec<Metric> {
    LAYER_METRICS
        .iter()
        .map(|&(name, unit)| metric(name, 0.0, unit))
        .collect()
}

/// The traced run: every per-layer metric. Two service lives of equal
/// length, the first plain, the second with a [`TimedBackend`] under the
/// lane, so the difference between them is the tracing overhead.
pub fn run_traced(
    seed: u64,
    seconds: f64,
    plan_dir: &std::path::Path,
    trace_path: &std::path::Path,
) -> Outcome {
    let mut clock = HostClock::new();
    let mut tally = Tally::default();
    let traffic_s = (seconds * TRACED_SHARE).max(2.0);
    let requests = (traffic_s * RATE) as usize;

    let (running, _) = start(seed, &mut clock, None, &plan_dir.join("plain"));
    let plain = measure(running, traffic_s, None);
    count_traffic(&plain.traffic, &mut tally);
    let rec = Recorder::with_capacity(3 * requests + 8192);
    let (running, _) = start(
        seed,
        &mut clock,
        Some(rec.clone()),
        &plan_dir.join("traced"),
    );
    let traced = measure(running, traffic_s, Some(&rec));
    count_traffic(&traced.traffic, &mut tally);
    verify_products(seed, &mut tally);

    let spans = rec.spans();
    tally.check(rec.dropped() == 0, || {
        format!("{} spans did not fit the trace buffer", rec.dropped())
    });

    let replays = layers::replay_all(seed, &mut clock, &mut tally);
    // Looked up once per answered request below: a table, not a name search.
    let predict_table = layers::SERVE_BATCHES.map(|rows| {
        let name = format!("nn.predict_ms.r{rows}");
        let ms = replays
            .iter()
            .find(|m| m.name == name)
            .map_or(0.0, |m| m.value);
        (rows, ms)
    });
    let predict_ms = |rows: usize| -> f64 {
        predict_table
            .iter()
            .find(|p| p.0 == rows)
            .map_or(0.0, |p| p.1)
    };
    let mut gated = serve_layer_metrics(
        &traced.traffic,
        &traced.before,
        &traced.after,
        traced.lat.typical_ms,
        traced.wall_s,
        predict_ms,
    );
    gated.push(metric("trace.coverage", joined_share(&spans), "ratio"));
    gated.push(metric(
        "trace.overhead_share",
        traced.lat.typical_ms / plain.lat.typical_ms - 1.0,
        "ratio",
    ));
    gated.extend(replays);
    gated.extend(crate::train::untouched_layer_metrics());
    gated.extend(crate::train::host_metrics(&clock));

    let mm_ms: f64 = spans.iter().filter(|s| s.name == "mm").map(Span::ms).sum();
    let extra = vec![
        metric(
            "traced_requests",
            traced.traffic.answered.len() as f64,
            "count",
        ),
        metric("op_ms_typical_traced", traced.lat.typical_ms, "ms"),
        metric("op_ms_typical_plain", plain.lat.typical_ms, "ms"),
        metric("op_ms_tail_traced", traced.lat.tail_ms, "ms"),
        metric(
            "lane_mm_share_of_wall",
            mm_ms / (traced.wall_s * 1e3),
            "ratio",
        ),
        metric("spans", spans.len() as f64, "count"),
    ];
    if let Err(e) = crate::trace::write_json(trace_path, &spans) {
        eprintln!("ledger: could not write {}: {e}", trace_path.display());
    }
    Outcome {
        workload: NAME.to_string(),
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

    #[test]
    fn schedule_is_fixed_rate_and_latency_counts_from_due_time() {
        assert_eq!(due_ns(0, 6000.0), 0);
        assert_eq!(due_ns(6000, 6000.0), 1_000_000_000);
        assert_eq!(due_ns(3, 1000.0), 3_000_000);
        // On time: latency is the service's.
        assert_eq!(latency_from_due_ns(1_000, 1_000, 5_000), 5_000);
        assert_eq!(lateness_ns(1_000, 1_000), 0);
        // The generator stalled 3 µs: the request pays for it and the
        // lateness is reported.
        assert_eq!(latency_from_due_ns(1_000, 4_000, 5_000), 8_000);
        assert_eq!(lateness_ns(1_000, 4_000), 3_000);
        // Early wake-ups never shorten a latency.
        assert_eq!(latency_from_due_ns(1_000, 900, 5_000), 5_000);
    }

    #[test]
    fn window_levels_fill_gaps_from_the_last_known_window() {
        let r = probe::REF_CHUNK_MS;
        let probes = [(10.1, r), (10.2, 1.2 * r), (10.3, 1.4 * r), (11.6, 1.3 * r)];
        let levels = window_levels(&probes, 10.0, 4);
        assert!((levels[0] - 1.2).abs() < 1e-9);
        assert!((levels[1] - 1.2).abs() < 1e-9, "gap takes the last known");
        assert!((levels[3] - 1.3).abs() < 1e-9);
        assert_eq!(window_levels(&[], 0.0, 2), [1.0, 1.0]);
    }
}
