//! The inference service: fixed worker lanes over a shared submission
//! queue, each lane owning a pre-warmed, prepacked model replica.
//!
//! ```text
//!  submit() ──► SubmissionQueue (bounded, typed backpressure)
//!                     │   micro-batcher policy under the queue lock
//!          ┌──────────┼──────────┐
//!       lane 0     lane 1  …  lane L-1     (panic-isolated WorkerPool)
//!       replica 0  replica 1  replica L-1  (own scratch + warm shapes
//!                                           + packed weight panels)
//!          └──────────┴──────────┘
//!                per-request response channels (Ticket::wait)
//! ```
//!
//! Lanes run as long-lived jobs inside an [`apa_gemm::WorkerPool`] — the
//! same panic-isolated pool the gemm engine uses — so a panicking
//! iteration can never take the process down. Each batch additionally
//! runs under its own `catch_unwind` with one retry: a replica whose
//! guarded ladder demoted after the panic usually answers the retry, and
//! only a second failure surfaces as [`ServeError::Inference`] to that
//! batch's requests.
//!
//! A replica's weights never change while it serves, so
//! [`InferenceService::start`] packs each layer's gemm panels once
//! ([`Mlp::prepack`]) and every batch reads them instead of re-packing
//! the weights: bitwise the same answers, and at serving batch sizes the
//! re-pack was most of a multiply. It does so on the constructing thread,
//! before the lanes spawn, so the panels are not allocated on a lane's
//! thread on top of its warm-up scratch.

use crate::admission::{AdmissionConfig, AdmissionController, AdmitDecision};
use crate::batcher::{expired_at, BatchPolicy};
use crate::breaker::{BreakerConfig, CircuitBreaker, Gate};
use crate::brownout::{BrownoutConfig, BrownoutController, Pressure};
use crate::error::ServeError;
use crate::queue::{Pending, SubmissionQueue};
use crate::stats::{LatencyHistogram, ServeStats, StatsCollector};
use apa_gemm::{Mat, WorkerPool};
use apa_matmul::HealthStats;
use apa_nn::{GuardedBackend, InferenceScratch, Mlp};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Service tuning knobs, fixed at [`InferenceService::start`].
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Bound of the submission queue — the service's entire buffering.
    pub queue_capacity: usize,
    /// Preferred batch size. `0` means "the model's input width", the
    /// natural square-ish operand shape for the layer multiplications.
    pub target_batch: usize,
    /// Longest a request waits for co-riders before a partial batch is
    /// flushed.
    pub max_linger: Duration,
    /// Drop requests that wait in the queue longer than this
    /// ([`ServeError::DeadlineExceeded`]). `None` = wait indefinitely.
    pub request_deadline: Option<Duration>,
    /// Extra canonical batch sizes to pre-warm besides the target batch.
    /// Ragged batches are zero-padded up to the nearest warmed size, so a
    /// richer set means less padding for small batches.
    pub warm_batches: Vec<usize>,
    /// Inference attempts per batch before failing its requests (≥ 1).
    pub batch_attempts: u32,
    /// Admission control in front of the queue (token buckets + overload
    /// shedding). `None` = every width-valid request reaches the queue.
    pub admission: Option<AdmissionConfig>,
    /// Per-lane circuit breakers. `None` = lanes never route around a
    /// sick replica (pre-existing behavior).
    pub breaker: Option<BreakerConfig>,
    /// Load-driven quality brownout over the replicas' guarded backends.
    /// `None` = quality is owned solely by the health ladder. Only
    /// effective for replicas built with [`Replica::with_guards`].
    pub brownout: Option<BrownoutConfig>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            queue_capacity: 1024,
            target_batch: 0,
            max_linger: Duration::from_millis(2),
            request_deadline: None,
            warm_batches: Vec::new(),
            batch_attempts: 2,
            admission: None,
            breaker: None,
            brownout: None,
        }
    }
}

/// Per-request submission options (see [`ServiceHandle::submit_with`]).
#[derive(Clone, Copy, Debug, Default)]
pub struct SubmitOptions {
    /// Tenant charged by the admission controller's token buckets.
    /// `None` = the shared anonymous tenant.
    pub tenant: Option<u64>,
    /// Per-request deadline (from submission). Combined with
    /// [`ServeConfig::request_deadline`] by taking the tighter of the
    /// two.
    pub deadline: Option<Duration>,
}

/// One lane's model: an [`Mlp`] plus handles to its guarded backends so
/// the service can fold every replica's [`HealthStats`] into the merged
/// [`ServeStats::health`] view.
pub struct Replica {
    mlp: Mlp,
    guards: Vec<Arc<GuardedBackend>>,
}

impl Replica {
    /// A replica without guarded backends (health merge sees nothing).
    pub fn new(mlp: Mlp) -> Self {
        Self {
            mlp,
            guards: Vec::new(),
        }
    }

    /// A replica whose layers use the given guarded backends (keep the
    /// `Arc`s from [`apa_nn::guarded`] and pass clones here).
    pub fn with_guards(mlp: Mlp, guards: Vec<Arc<GuardedBackend>>) -> Self {
        Self { mlp, guards }
    }

    pub fn mlp(&self) -> &Mlp {
        &self.mlp
    }
}

/// A completed inference.
#[derive(Clone, Debug)]
pub struct Response {
    /// The model's output row for this request.
    pub output: Vec<f32>,
    /// Lane that served it.
    pub lane: usize,
    /// Real requests in the batch it rode.
    pub batch_rows: usize,
    /// Rows after padding to the nearest warmed shape.
    pub padded_rows: usize,
    /// Submit → response latency.
    pub latency: Duration,
}

/// The caller's side of one submitted request.
#[derive(Debug)]
pub struct Ticket {
    rx: Receiver<Result<Response, ServeError>>,
}

impl Ticket {
    /// Block until the request is answered (response, deadline drop, or
    /// inference failure).
    pub fn wait(self) -> Result<Response, ServeError> {
        self.rx.recv().unwrap_or(Err(ServeError::Disconnected))
    }

    /// [`Self::wait`] with a timeout; `None` if no answer arrived in time
    /// (the request stays in flight).
    pub fn wait_timeout(&self, timeout: Duration) -> Option<Result<Response, ServeError>> {
        self.rx.recv_timeout(timeout).ok()
    }
}

struct Shared {
    queue: SubmissionQueue,
    policy: BatchPolicy,
    stats: StatsCollector,
    in_width: usize,
    deadline: Option<Duration>,
    guards: Vec<Arc<GuardedBackend>>,
    admission: Option<AdmissionController>,
    /// One breaker per lane (empty when breakers are disabled).
    breakers: Vec<CircuitBreaker>,
    /// Lanes currently parked by an open breaker — the last-lane guard:
    /// a breaker may only trip while at least one other lane still
    /// serves.
    breaker_open: AtomicUsize,
    lanes: usize,
    /// Brownout-monitor shutdown flag + wakeup.
    monitor_stop: Mutex<bool>,
    monitor_cvar: Condvar,
}

/// Cloneable submit handle (safe to share across client threads).
#[derive(Clone)]
pub struct ServiceHandle {
    shared: Arc<Shared>,
}

impl ServiceHandle {
    /// Enqueue one input row. Returns immediately with a [`Ticket`] or a
    /// typed rejection ([`ServeError::QueueFull`] under backpressure,
    /// [`ServeError::RateLimited`] / [`ServeError::Overloaded`] from the
    /// admission controller when one is configured).
    pub fn submit(&self, input: Vec<f32>) -> Result<Ticket, ServeError> {
        self.submit_with(input, SubmitOptions::default())
    }

    /// [`Self::submit`] with a tenant identity and/or per-request
    /// deadline.
    pub fn submit_with(&self, input: Vec<f32>, opts: SubmitOptions) -> Result<Ticket, ServeError> {
        if input.len() != self.shared.in_width {
            return Err(ServeError::BadInput {
                expected: self.shared.in_width,
                got: input.len(),
            });
        }
        let now = Instant::now();
        self.admit(opts.tenant, 1, now)?;
        let (tx, rx) = channel();
        let pending = Pending {
            input,
            submitted: now,
            deadline: self.effective_deadline(opts.deadline, now),
            tx,
        };
        match self.shared.queue.try_push(pending) {
            Ok(depth) => {
                self.shared.stats.note_submitted(depth);
                Ok(Ticket { rx })
            }
            Err(e) => {
                if matches!(e, ServeError::QueueFull { .. }) {
                    self.shared.stats.note_rejected_full();
                }
                Err(e)
            }
        }
    }

    /// Submit several rows as one admission unit: the admission
    /// controller sees the *batch-weighted* cost (heavy batches are the
    /// first shed under overload and charge their full weight against the
    /// tenant's bucket) — an all-or-nothing gate. Past admission each row
    /// is queued individually; the inner results carry per-row queue
    /// rejections.
    pub fn submit_batch(
        &self,
        inputs: Vec<Vec<f32>>,
        opts: SubmitOptions,
    ) -> Result<Vec<Result<Ticket, ServeError>>, ServeError> {
        for input in &inputs {
            if input.len() != self.shared.in_width {
                return Err(ServeError::BadInput {
                    expected: self.shared.in_width,
                    got: input.len(),
                });
            }
        }
        let now = Instant::now();
        let cost = inputs.len().min(u32::MAX as usize) as u32;
        if cost == 0 {
            return Ok(Vec::new());
        }
        self.admit(opts.tenant, cost, now)?;
        let deadline = self.effective_deadline(opts.deadline, now);
        Ok(inputs
            .into_iter()
            .map(|input| {
                let (tx, rx) = channel();
                let pending = Pending {
                    input,
                    submitted: now,
                    deadline,
                    tx,
                };
                match self.shared.queue.try_push(pending) {
                    Ok(depth) => {
                        self.shared.stats.note_submitted(depth);
                        Ok(Ticket { rx })
                    }
                    Err(e) => {
                        if matches!(e, ServeError::QueueFull { .. }) {
                            self.shared.stats.note_rejected_full();
                        }
                        Err(e)
                    }
                }
            })
            .collect())
    }

    fn admit(&self, tenant: Option<u64>, cost: u32, now: Instant) -> Result<(), ServeError> {
        let Some(ctl) = &self.shared.admission else {
            return Ok(());
        };
        let fill = self.shared.queue.depth() as f64 / self.shared.queue.capacity() as f64;
        match ctl.admit(tenant, cost, fill, now) {
            AdmitDecision::Admit => Ok(()),
            AdmitDecision::RateLimited { retry_after } => {
                self.shared.stats.note_rejected_rate_limited();
                Err(ServeError::RateLimited { retry_after })
            }
            AdmitDecision::Overloaded { retry_after } => {
                self.shared.stats.note_rejected_overloaded();
                Err(ServeError::Overloaded { retry_after })
            }
        }
    }

    fn effective_deadline(&self, requested: Option<Duration>, now: Instant) -> Option<Instant> {
        match (self.shared.deadline, requested) {
            (Some(s), Some(r)) => Some(now + s.min(r)),
            (Some(s), None) => Some(now + s),
            (None, Some(r)) => Some(now + r),
            (None, None) => None,
        }
    }

    /// Submit and block for the response.
    pub fn infer(&self, input: Vec<f32>) -> Result<Response, ServeError> {
        self.submit(input)?.wait()
    }
}

/// The running service. Dropping it (or calling [`Self::shutdown`])
/// drains gracefully: submissions stop, every queued request is answered,
/// lanes exit, the pool joins.
pub struct InferenceService {
    shared: Arc<Shared>,
    lanes: usize,
    supervisor: Option<JoinHandle<()>>,
    monitor: Option<JoinHandle<()>>,
}

impl InferenceService {
    /// Start one lane per replica. All replicas must share the model's
    /// layer widths (they may use different backends). Every replica's
    /// weights are prepacked here, on the calling thread. Lanes warm their
    /// replicas on their own threads before serving: engine workspaces,
    /// probe scratch, thread-local pack buffers and the inference scratch
    /// all reach their high-water marks, so steady-state serving performs
    /// no per-request heap allocation inside the engine.
    pub fn start(mut replicas: Vec<Replica>, config: ServeConfig) -> Self {
        assert!(!replicas.is_empty(), "need at least one replica lane");
        assert!(config.queue_capacity >= 1, "queue capacity must be ≥ 1");
        let widths = replicas[0].mlp.widths();
        for r in &replicas[1..] {
            assert_eq!(r.mlp.widths(), widths, "replicas must share layer widths");
        }
        let in_width = widths[0];
        let target_batch = if config.target_batch == 0 {
            in_width
        } else {
            config.target_batch
        };
        // Canonical warmed batch sizes, largest first so warm-up sets
        // every buffer's high-water mark before smaller shapes reuse it.
        let mut warm: Vec<usize> = config
            .warm_batches
            .iter()
            .copied()
            .chain(std::iter::once(target_batch))
            .filter(|&b| b > 0 && b <= target_batch)
            .collect();
        warm.sort_unstable_by(|a, b| b.cmp(a));
        warm.dedup();
        for replica in &mut replicas {
            replica.mlp.prepack();
        }

        let lanes = replicas.len();
        let shared = Arc::new(Shared {
            queue: SubmissionQueue::new(config.queue_capacity),
            policy: BatchPolicy {
                target_batch,
                max_linger: config.max_linger,
                attempts: config.batch_attempts.max(1),
            },
            stats: StatsCollector::new(target_batch),
            in_width,
            deadline: config.request_deadline,
            guards: replicas.iter().flat_map(|r| r.guards.clone()).collect(),
            admission: config.admission.clone().map(AdmissionController::new),
            breakers: config
                .breaker
                .map(|b| {
                    (0..lanes)
                        .map(|lane| CircuitBreaker::new(b, lane))
                        .collect()
                })
                .unwrap_or_default(),
            breaker_open: AtomicUsize::new(0),
            lanes,
            monitor_stop: Mutex::new(false),
            monitor_cvar: Condvar::new(),
        });
        let shared_for_lanes = shared.clone();
        let supervisor = std::thread::Builder::new()
            .name("apa-serve-supervisor".into())
            .spawn(move || {
                let pool = WorkerPool::new(lanes);
                // Lane loops live until the queue closes and drains; the
                // scope's barrier makes this join them all. A loop that
                // somehow panics past its per-batch isolation is caught
                // by the pool's task wrapper — the other lanes keep
                // serving and the panic surfaces here at drain time.
                let _ = pool.try_scope(|s| {
                    for (lane, replica) in replicas.into_iter().enumerate() {
                        let shared = shared_for_lanes.clone();
                        let warm = warm.clone();
                        s.spawn(move |_| lane_loop(lane, replica, &shared, &warm));
                    }
                });
                pool.shutdown();
            })
            .expect("supervisor thread spawn cannot fail");

        // The brownout monitor samples queue fill and windowed tail
        // latency, stepping every guarded replica up or down the quality
        // ladder. Pointless without guards to steer.
        let monitor =
            config
                .brownout
                .filter(|_| !shared.guards.is_empty())
                .map(|brownout_config| {
                    let shared = shared.clone();
                    std::thread::Builder::new()
                        .name("apa-serve-brownout".into())
                        .spawn(move || monitor_loop(&shared, brownout_config))
                        .expect("monitor thread spawn cannot fail")
                });

        Self {
            shared,
            lanes,
            supervisor: Some(supervisor),
            monitor,
        }
    }

    /// Worker lanes (= replicas) the service runs.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Bound of the submission queue.
    pub fn queue_capacity(&self) -> usize {
        self.shared.queue.capacity()
    }

    /// A cloneable submit handle.
    pub fn handle(&self) -> ServiceHandle {
        ServiceHandle {
            shared: self.shared.clone(),
        }
    }

    /// Live snapshot: queue/batch/latency counters plus the merged health
    /// of every guarded backend across all replicas.
    pub fn stats(&self) -> ServeStats {
        let mut health = HealthStats::default();
        for g in &self.shared.guards {
            health.merge(&g.health());
        }
        self.shared
            .stats
            .snapshot(self.shared.queue.depth(), health)
    }

    /// Graceful drain: stop accepting, flush and answer every queued
    /// request, join the lanes, return the final stats.
    pub fn shutdown(mut self) -> ServeStats {
        self.shutdown_inner();
        self.stats()
    }

    fn shutdown_inner(&mut self) {
        self.shared.queue.close();
        if let Some(h) = self.supervisor.take() {
            let _ = h.join();
        }
        *self
            .shared
            .monitor_stop
            .lock()
            .unwrap_or_else(PoisonError::into_inner) = true;
        self.shared.monitor_cvar.notify_all();
        if let Some(h) = self.monitor.take() {
            let _ = h.join();
        }
    }
}

impl Drop for InferenceService {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

/// One lane: warm the replica, then serve batches until the queue drains.
fn lane_loop(lane: usize, replica: Replica, shared: &Shared, warm: &[usize]) {
    let in_width = shared.in_width;
    let mut scratch = InferenceScratch::new();
    let mut input = Mat::zeros(0, 0);
    let mut output = Mat::zeros(0, 0);

    // Warm on this thread: the pack buffers the multiplies use are
    // thread-local, so warming anywhere else would be useless. `warm` is
    // sorted largest-first, so the first pass sets the high-water marks.
    // A replica that panics while warming stays in service unwarmed —
    // warm-up is an optimization, never a reason to lose the lane.
    let _ = catch_unwind(AssertUnwindSafe(|| {
        replica.mlp.warm_for_batches(warm);
        for &batch in warm {
            input.resize(batch, in_width);
            input.fill(0.0);
            replica
                .mlp
                .predict_into(input.as_ref(), &mut output, &mut scratch);
        }
    }));

    let breaker = shared.breakers.get(lane);
    let mut parked = false;
    let mut expired = Vec::new();
    loop {
        // Circuit-breaker gate. A blocked lane naps in short slices so it
        // notices both the cool-down ending and a drain beginning — a
        // drain always overrides the breaker, so shutdown can never be
        // held hostage by a cool-down (and the drain path tolerates every
        // lane being sick: a degraded answer beats an unanswered ticket).
        let mut probing = false;
        if let Some(b) = breaker {
            loop {
                if shared.queue.is_closed() {
                    break;
                }
                match b.gate(Instant::now()) {
                    Gate::Serve => break,
                    Gate::Probe => {
                        probing = true;
                        break;
                    }
                    Gate::Blocked { until } => {
                        if !parked {
                            parked = true;
                            shared.breaker_open.fetch_add(1, Ordering::SeqCst);
                        }
                        let nap = until
                            .saturating_duration_since(Instant::now())
                            .min(Duration::from_millis(5))
                            .max(Duration::from_micros(100));
                        std::thread::sleep(nap);
                    }
                }
            }
            if parked {
                parked = false;
                shared.breaker_open.fetch_sub(1, Ordering::SeqCst);
            }
        }

        let Some(batch) = shared.queue.next_batch(&shared.policy, &mut expired) else {
            break;
        };
        fail_expired(&mut expired, shared, false);
        if batch.is_empty() {
            continue;
        }
        if probing {
            shared.stats.note_breaker_probe();
        }
        let started = Instant::now();
        let clean = run_batch(
            lane,
            &replica,
            batch,
            shared,
            warm,
            &mut scratch,
            &mut input,
            &mut output,
        );
        if let Some(b) = breaker {
            let stalled = b
                .config()
                .stall_timeout
                .is_some_and(|t| started.elapsed() > t);
            if clean && !stalled {
                b.on_success();
            } else {
                // Last-lane guard: only trip while at least one other
                // lane is still taking work.
                let open_elsewhere = shared.breaker_open.load(Ordering::SeqCst);
                let allow_open = open_elsewhere + 1 < shared.lanes;
                if b.on_failure(Instant::now(), allow_open) {
                    shared.stats.note_breaker_trip();
                }
            }
        }
    }
    // `next_batch` may move expirations out even on the final (None) pop.
    fail_expired(&mut expired, shared, false);
}

/// The brownout monitor: periodically sample queue fill and the p99 of
/// the *window* since the previous sample, let the controller pick a
/// level, and install the level's [`apa_matmul::QualityOverride`] on
/// every guarded backend. Overrides are cleared when the service stops.
fn monitor_loop(shared: &Shared, config: BrownoutConfig) {
    let sample_every = config.sample_every.max(Duration::from_millis(1));
    let mut ctl = BrownoutController::new(config);
    let mut prev = LatencyHistogram::default();
    let mut stop = shared
        .monitor_stop
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    while !*stop {
        let (guard, _timeout) = shared
            .monitor_cvar
            .wait_timeout(stop, sample_every)
            .unwrap_or_else(PoisonError::into_inner);
        stop = guard;
        if *stop {
            break;
        }
        let fill = shared.queue.depth() as f64 / shared.queue.capacity() as f64;
        let hist = shared.stats.latency_snapshot();
        let window = hist.since(&prev);
        prev = hist;
        let window_p99 = (window.total() > 0).then(|| window.p99());
        let pressure = Pressure { fill, window_p99 };
        if let Some(level) = ctl.observe(pressure, Instant::now()) {
            let quality = ctl.override_for(level);
            for g in &shared.guards {
                g.set_quality_override(quality);
            }
            shared
                .stats
                .note_brownout(level, ctl.steps_down(), ctl.steps_up());
        }
    }
    drop(stop);
    for g in &shared.guards {
        g.set_quality_override(None);
    }
}

fn fail_expired(expired: &mut Vec<Pending>, shared: &Shared, at_assembly: bool) {
    for p in expired.drain(..) {
        shared.stats.note_expired(at_assembly);
        let _ = p.tx.send(Err(ServeError::DeadlineExceeded {
            waited: p.submitted.elapsed(),
        }));
    }
}

/// Serve one batch; returns `false` when every inference attempt failed
/// (the breaker's definition of a failed batch — shed or expired requests
/// are not the replica's fault).
#[allow(clippy::too_many_arguments)]
fn run_batch(
    lane: usize,
    replica: &Replica,
    batch: Vec<Pending>,
    shared: &Shared,
    warm: &[usize],
    scratch: &mut InferenceScratch,
    input: &mut Mat<f32>,
    output: &mut Mat<f32>,
) -> bool {
    // Assembly-time shed: a request whose deadline already passed gets
    // its typed answer *now*, before any padding or inference is spent on
    // it. The queue's front sweep only catches in-order expiry (uniform
    // service deadlines); per-request deadlines expire out of order and
    // land here.
    let now = Instant::now();
    let (batch, dead): (Vec<Pending>, Vec<Pending>) = batch
        .into_iter()
        .partition(|p| !expired_at(p.deadline, now));
    let mut dead = dead;
    fail_expired(&mut dead, shared, true);
    if batch.is_empty() {
        return true;
    }
    let rows = batch.len();
    // Pad ragged tails up to the nearest warmed batch size (the target
    // batch is always warmed, so a fallback to `rows` is only reachable
    // with an over-target batch, which `next_batch` never produces).
    let padded = warm
        .iter()
        .copied()
        .filter(|&b| b >= rows)
        .min()
        .unwrap_or(rows);
    input.resize(padded, shared.in_width);
    for (i, p) in batch.iter().enumerate() {
        input.as_mut().row_mut(i).copy_from_slice(&p.input);
    }
    for i in rows..padded {
        input.as_mut().row_mut(i).fill(0.0);
    }
    shared.stats.note_batch(rows, padded);

    let mut attempt = 0;
    let outcome = loop {
        attempt += 1;
        let run = catch_unwind(AssertUnwindSafe(|| {
            replica.mlp.predict_into(input.as_ref(), output, scratch);
        }));
        match run {
            Ok(()) => break Ok(()),
            Err(payload) => {
                if attempt < shared.policy.attempts {
                    // A guarded replica usually demoted on the panic;
                    // the retry runs on the safer rung.
                    shared.stats.note_retry();
                    continue;
                }
                break Err(panic_detail(payload.as_ref()));
            }
        }
    };

    match outcome {
        Ok(()) => {
            let done = Instant::now();
            for (i, p) in batch.into_iter().enumerate() {
                // A deadline that expired mid-inference: the work is
                // already paid for, so deliver the answer — but count it,
                // the client may have stopped waiting.
                let late = expired_at(p.deadline, done);
                let response = Response {
                    output: output.as_ref().row(i).to_vec(),
                    lane,
                    batch_rows: rows,
                    padded_rows: padded,
                    latency: p.submitted.elapsed(),
                };
                shared.stats.note_completed(response.latency, late);
                let _ = p.tx.send(Ok(response));
            }
            true
        }
        Err(detail) => {
            shared.stats.note_failed(rows);
            for p in batch {
                let _ = p.tx.send(Err(ServeError::Inference {
                    detail: detail.clone(),
                }));
            }
            false
        }
    }
}

fn panic_detail(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
        .unwrap_or_else(|| "non-string panic payload".to_string())
}
