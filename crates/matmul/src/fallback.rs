//! Graceful degradation: a rung ladder from the configured APA multiplier
//! down to exact classical gemm, driven by the [`crate::sentinel`].
//!
//! [`GuardedApaMatmul`] wraps the usual `multiply_into` surface. Every
//! call executes on the rung currently assigned to its shape, then passes
//! through the sentinel (non-finite scan every call, Freivalds residual
//! probe at the configured sampling rate). On a violation the call is
//! **retried on the next rung down** until a rung passes — the last rung,
//! [`ApaMatmul::classical`], is exact and always accepted — so a caller never
//! observes a corrupted product. The ladder:
//!
//! 1. the configured APA multiplier (possibly multi-step);
//! 2. the same rule with progressively fewer recursion steps (each step
//!    removed divides the roundoff amplification, §2.3);
//! 3. the rule re-tuned: λ re-selected over the `lambda_grid` by measured
//!    error (catches a mis-pinned or perturbed λ);
//! 4. the exact fast rule (Strassen — machine-precision, still
//!    sub-cubic);
//! 5. classical gemm.
//!
//! Demotions are sticky per shape, with hysteresis: after
//! [`DegradePolicy::promote_after`] consecutive clean calls the shape is
//! re-promoted one rung, and every re-demotion doubles the streak the next
//! promotion requires (bounded exponential backoff), so a flapping
//! configuration settles low instead of oscillating. All transitions are
//! counted in [`HealthStats`].
//!
//! Below the sampled probe sits the **ABFT checksum tier** (on by
//! default, see [`crate::sentinel::AbftMode`]): every gemm leaf of every
//! rung execution verifies Huang–Abraham row/column checksums of its
//! rank-k updates, localizes a violation to the `MC×NR` tile that took
//! the hit and recomputes just that tile on the scalar kernel tier
//! (bitwise identical by the cross-tier contract). A clean repair is
//! invisible to the ladder — the call completes on its rung with no
//! demotion and no client-visible corruption. The ladder is only
//! involved when a repair fails its re-verification (the call retries
//! one rung down, or surfaces [`MatmulError::SilentCorruption`] from the
//! classical floor) or when a shape keeps re-offending (the
//! `escalate_after` streak of [`crate::sentinel::AbftMode::On`]
//! consecutive detecting calls), modelling a lane with sick hardware.
//!
//! Execution failures demote exactly like sentinel violations: a panicked
//! gemm worker lane (typed [`MatmulError::WorkerPanicked`] from the rung)
//! or a multiply that blows through the optional per-call
//! [`GuardedApaMatmul::watchdog`] deadline retries one rung down, and only
//! a failure on the classical floor escapes to the caller as an error.
//!
//! The sticky per-shape state, call counter, stats and rung-0 λ can be
//! exported as a [`GuardedState`] and restored onto a fresh guard with the
//! same configuration — this is what training checkpoints persist so a
//! resumed run replays the exact ladder decisions of the original.
//!
//! With `--features fault-inject`, [`crate::fault`] can corrupt product
//! buffers, seed NaN/Inf, perturb λ, or panic/stall a worker lane at
//! chosen call indices to exercise every rung deterministically.

use crate::apamm::ApaMatmul;
use crate::error::{check_operands, MatmulError};
use crate::sentinel::{self, AbftMode, ProbeScratch, SentinelConfig, Verdict};
use crate::stats::HealthStats;
use crate::tune::tune_lambda;
use apa_core::{catalog, BilinearAlgorithm};
use apa_gemm::abft as gemm_abft;
use apa_gemm::{AbftConfig, AbftCounts, AbftSession, Mat, MatMut, MatRef, Scalar};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, OnceLock, PoisonError};
use std::time::Duration;

/// How the ladder reacts to sentinel verdicts.
#[derive(Clone, Copy, Debug)]
pub struct DegradePolicy {
    /// Consecutive clean calls at a demoted rung before the shape is
    /// re-promoted one rung (0 disables promotion — demotions are final).
    pub promote_after: u64,
    /// Cap on the exponential backoff: after `max_backoff` re-demotions
    /// the required streak stops doubling.
    pub max_backoff: u32,
    /// Fraction by which the required promotion streak is *extended* by a
    /// deterministic per-(shape, backoff) hash, so many shapes (or many
    /// lanes' guards) demoted by one fault do not re-probe the expensive
    /// rung in lockstep. The jitter only lengthens the streak (never
    /// below the configured base), and is a pure function of
    /// [`DegradePolicy::jitter_seed`], the shape and the backoff count —
    /// replayed runs make identical ladder decisions. `0.0` disables it.
    pub promotion_jitter: f64,
    /// Seed of the deterministic promotion-streak jitter.
    pub jitter_seed: u64,
}

impl Default for DegradePolicy {
    fn default() -> Self {
        Self {
            promote_after: 32,
            max_backoff: 8,
            promotion_jitter: 0.25,
            jitter_seed: 0x5EED_AB1E_7E55_E11A,
        }
    }
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

/// The promotion streak a shape at `backoff` re-demotions must reach:
/// `promote_after << backoff`, extended by up to `promotion_jitter` of
/// itself by a deterministic hash of the shape — desynchronizing the
/// re-probe of an expensive rung across shapes and guards.
fn required_streak(policy: &DegradePolicy, shape: (usize, usize, usize), backoff: u32) -> u64 {
    let base = policy.promote_after << backoff.min(policy.max_backoff);
    if policy.promotion_jitter <= 0.0 {
        return base;
    }
    let h = splitmix64(
        policy
            .jitter_seed
            .wrapping_add((shape.0 as u64).rotate_left(17))
            .wrapping_add((shape.1 as u64).rotate_left(34))
            .wrapping_add((shape.2 as u64).rotate_left(51))
            .wrapping_add(u64::from(backoff)),
    );
    let frac = (h >> 11) as f64 / (1u64 << 53) as f64; // [0, 1)
    base + (base as f64 * policy.promotion_jitter * frac).round() as u64
}

/// Serving-layer quality override ("brownout"): trades answer quality for
/// throughput when offered load exceeds capacity — the *inverse* direction
/// of the health-driven degradation ladder. Installed and cleared with
/// [`GuardedApaMatmul::set_quality_override`]; affects how calls execute
/// while installed but never mutates the sticky per-shape health state,
/// so clearing the override restores exactly the ladder the sentinel had
/// built.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct QualityOverride {
    /// Deepest (slowest, most conservative) rung a call may *start* on:
    /// a shape stickily demoted below this cap executes on
    /// `min(sticky, rung_cap)` instead — `0` forces every call back onto
    /// the configured APA multiplier. Demotions *within* the call (the
    /// sentinel still runs) remain possible.
    pub rung_cap: usize,
    /// Multiplies the sentinel's probe sampling stride (≥ 1): probe less
    /// often under load, since each Freivalds pass is pure overhead.
    pub probe_stride_factor: u64,
    /// Multiplies every rung's residual budget (≥ 1): a relaxed λ/error
    /// budget accepts products the strict budget would demote, keeping
    /// traffic on the fast rungs at a bounded, configured quality cost.
    pub budget_slack: f64,
    /// Pin every call's *starting* rung outright, ignoring both the
    /// sticky state and [`QualityOverride::rung_cap`] (clamped to the
    /// ladder length, so `usize::MAX` pins the classical floor). The cap
    /// assumes rung 0 is the cheapest execution — true in the paper's
    /// large-`n` regime — but on hardware/shapes where a *deeper* rung is
    /// the measured-cheapest (small widths, where exact classical gemm
    /// out-runs the APA pipeline), a brownout level can pin that rung
    /// instead. Within-call demotion below the pin still applies.
    pub pin_rung: Option<usize>,
}

impl Default for QualityOverride {
    fn default() -> Self {
        Self {
            rung_cap: 0,
            probe_stride_factor: 4,
            budget_slack: 8.0,
            pin_rung: None,
        }
    }
}

/// What a ladder rung executes.
#[derive(Clone, Debug, PartialEq)]
pub enum RungKind {
    /// The configured rule at `steps` recursion levels.
    Apa { steps: u32, lambda: f64 },
    /// The configured rule, one step, λ re-selected over the tuning grid.
    Retuned { lambda: f64 },
    /// The exact fast rule (machine precision, still sub-cubic).
    ExactFast,
    /// Classical gemm — the unconditional floor of the ladder.
    Classical,
}

/// Why a rung failed to *execute* (as opposed to executing and failing
/// the sentinel): both causes demote exactly like a bad verdict.
enum RungFailure {
    Panicked(String),
    TimedOut,
}

impl From<MatmulError> for RungFailure {
    fn from(e: MatmulError) -> Self {
        match e {
            MatmulError::WorkerPanicked { detail } => RungFailure::Panicked(detail),
            // Operand shapes were validated before the ladder ran, so any
            // other error here is unexpected — still demote, keep the text.
            other => RungFailure::Panicked(other.to_string()),
        }
    }
}

fn panic_detail(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Run `exec` on a helper thread and wait at most `deadline` for the
/// product. On timeout the helper is *detached* — it finishes (or dies)
/// harmlessly on its own buffers while the caller demotes — which is why
/// the helper computes into an owned matrix that is only copied into `c`
/// on an in-deadline success.
fn exec_with_watchdog<T: Scalar>(
    exec: &Arc<ApaMatmul>,
    a: MatRef<'_, T>,
    b: MatRef<'_, T>,
    mut c: MatMut<'_, T>,
    deadline: Duration,
) -> Result<(), RungFailure> {
    let exec = exec.clone();
    let (a_own, b_own) = (a.to_owned(), b.to_owned());
    let (m, n) = (c.rows(), c.cols());
    let (tx, rx) = mpsc::channel();
    let spawned = std::thread::Builder::new()
        .name("apa-watchdog-exec".to_string())
        .spawn(move || {
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                let mut out = Mat::<T>::zeros(m, n);
                exec.try_multiply_into(a_own.as_ref(), b_own.as_ref(), out.as_mut())
                    .map(|()| out)
            }));
            let flat = match outcome {
                Ok(Ok(out)) => Ok(out),
                Ok(Err(e)) => Err(RungFailure::from(e)),
                Err(payload) => Err(RungFailure::Panicked(panic_detail(payload))),
            };
            let _ = tx.send(flat);
        });
    if spawned.is_err() {
        return Err(RungFailure::Panicked(
            "could not spawn watchdog helper thread".to_string(),
        ));
    }
    match rx.recv_timeout(deadline) {
        Ok(Ok(out)) => {
            c.copy_from(out.as_ref());
            Ok(())
        }
        Ok(Err(failure)) => Err(failure),
        Err(_) => Err(RungFailure::TimedOut),
    }
}

struct Rung {
    kind: RungKind,
    // Arc, not Box: the watchdog hands a clone of the exec to its helper
    // thread, and sharing keeps the workspace cache (interior Mutex) warm
    // across watchdogged calls.
    exec: Arc<ApaMatmul>,
    /// Sentinel residual budget for products computed on this rung.
    budget: f64,
}

#[derive(Clone, Copy, Debug, Default)]
struct ShapeState {
    rung: usize,
    clean: u64,
    /// Re-demotion count driving the promotion-streak backoff.
    backoff: u32,
    /// Per-shape call tick for probe sampling.
    tick: u64,
    /// Consecutive ABFT-detecting calls (repaired or not); reset by a
    /// checked call that detects nothing, and on escalation. Not part of
    /// the exported [`ShapeEntry`]: it is short-horizon hardware-health
    /// evidence, not an experiment-defining ladder decision.
    abft_offenses: u32,
}

/// One shape's sticky ladder state, as exported by
/// [`GuardedApaMatmul::export_state`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShapeEntry {
    pub m: usize,
    pub k: usize,
    pub n: usize,
    /// Rung currently assigned to the shape (0 = configured multiplier).
    pub rung: usize,
    /// Clean-call streak toward the next promotion.
    pub clean: u64,
    /// Re-demotion count driving the promotion-streak backoff.
    pub backoff: u32,
    /// Per-shape call tick (determines which future calls sample the
    /// residual probe — restoring it keeps the probe schedule aligned).
    pub tick: u64,
}

/// A guard's complete run state: everything a training checkpoint must
/// persist so a resumed run replays the original's ladder decisions.
/// Shapes are sorted by `(m, k, n)` so the snapshot is deterministic.
#[derive(Clone, Debug, PartialEq)]
pub struct GuardedState {
    /// Rung-0 λ at export time — a fingerprint of the guarded
    /// configuration; restore refuses a mismatch because the resumed run
    /// would otherwise be a different experiment.
    pub lambda: f64,
    /// Ladder length fingerprint (same role as `lambda`).
    pub rung_count: usize,
    /// Global call counter (seeds the per-call Freivalds probe).
    pub calls: u64,
    pub shapes: Vec<ShapeEntry>,
    pub stats: HealthStats,
}

/// Why [`GuardedApaMatmul::restore_state`] refused a snapshot.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum RestoreError {
    /// Snapshot came from a guard with a different rung-0 λ.
    LambdaMismatch { checkpoint: f64, configured: f64 },
    /// Snapshot came from a guard with a different ladder length.
    LadderMismatch {
        checkpoint: usize,
        configured: usize,
    },
}

impl std::fmt::Display for RestoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RestoreError::LambdaMismatch {
                checkpoint,
                configured,
            } => write!(
                f,
                "guard state λ mismatch: checkpoint {checkpoint:e}, configured {configured:e}"
            ),
            RestoreError::LadderMismatch {
                checkpoint,
                configured,
            } => write!(
                f,
                "guard ladder mismatch: checkpoint has {checkpoint} rungs, configured {configured}"
            ),
        }
    }
}

impl std::error::Error for RestoreError {}

/// An [`ApaMatmul`] wrapped in the numerical-health sentinel and the
/// degradation ladder. Same `multiply_into` calling surface; per-shape
/// health state, probe scratch and all rung workspace caches are interior
/// so the guard is `&self` and `Send + Sync` like the raw multiplier.
pub struct GuardedApaMatmul {
    base: ApaMatmul,
    policy: DegradePolicy,
    sentinel: SentinelConfig,
    /// Per-call deadline; a rung that exceeds it demotes (lane watchdog).
    watchdog: Option<Duration>,
    /// Load-driven quality override (brownout), if installed.
    quality: Mutex<Option<QualityOverride>>,
    rungs: OnceLock<Vec<Rung>>,
    /// The guard's ABFT session (None when [`AbftMode::Off`]); installed
    /// process-globally around each rung execution so every gemm leaf —
    /// plain, fused, parallel worker stripes, peel fringes — checks
    /// against it.
    abft: OnceLock<Option<Arc<AbftSession>>>,
    state: Mutex<HashMap<(usize, usize, usize), ShapeState>>,
    scratch: Mutex<ProbeScratch>,
    stats: Mutex<HealthStats>,
    calls: AtomicU64,
}

impl GuardedApaMatmul {
    /// Guard `alg` with default execution config (see [`ApaMatmul::new`]),
    /// default sentinel and default policy.
    pub fn new(alg: BilinearAlgorithm) -> Self {
        Self::from_matmul(ApaMatmul::new(alg))
    }

    /// Guard an already-configured multiplier.
    pub fn from_matmul(base: ApaMatmul) -> Self {
        Self {
            base,
            policy: DegradePolicy::default(),
            sentinel: SentinelConfig::default(),
            watchdog: None,
            quality: Mutex::new(None),
            rungs: OnceLock::new(),
            abft: OnceLock::new(),
            state: Mutex::new(HashMap::new()),
            scratch: Mutex::new(ProbeScratch::new()),
            stats: Mutex::new(HealthStats::default()),
            calls: AtomicU64::new(0),
        }
    }

    pub fn policy(mut self, policy: DegradePolicy) -> Self {
        self.policy = policy;
        self
    }

    pub fn sentinel(mut self, sentinel: SentinelConfig) -> Self {
        self.sentinel = sentinel;
        self
    }

    /// Arm the lane watchdog: every rung execution runs on a helper
    /// thread and must produce its product within `deadline`, else the
    /// call demotes one rung (a hung classical floor is a
    /// [`MatmulError::LaneTimeout`]). Costs one thread spawn, an operand
    /// clone and a result copy per rung execution — meant for training
    /// loops where a hung multiply would otherwise hang the epoch.
    pub fn watchdog(mut self, deadline: Duration) -> Self {
        self.watchdog = Some(deadline);
        self
    }

    /// The armed watchdog deadline, if any.
    pub fn current_watchdog(&self) -> Option<Duration> {
        self.watchdog
    }

    /// Install (or with `None` clear) a load-driven [`QualityOverride`].
    /// Takes effect on the next call; `&self` so a serving-layer brownout
    /// controller can drive a guard that lanes are concurrently using.
    /// The override caps the *starting* rung, stretches the probe stride
    /// and relaxes the residual budget, but never touches the sticky
    /// per-shape health state — clearing it restores the sentinel's own
    /// ladder decisions unchanged.
    pub fn set_quality_override(&self, quality: Option<QualityOverride>) {
        *self.quality.lock().unwrap_or_else(PoisonError::into_inner) = quality;
    }

    /// The installed [`QualityOverride`], if any.
    pub fn quality_override(&self) -> Option<QualityOverride> {
        *self.quality.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The guarded (rung-0) multiplier configuration.
    pub fn base(&self) -> &ApaMatmul {
        &self.base
    }

    /// Snapshot of the sentinel/ladder counters.
    pub fn health(&self) -> HealthStats {
        self.stats
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// The ladder, top to bottom.
    pub fn rungs(&self) -> Vec<RungKind> {
        self.ladder().iter().map(|r| r.kind.clone()).collect()
    }

    /// Rung currently assigned to an `m×k·k×n` shape (None if the shape
    /// has not been multiplied yet). 0 is the configured multiplier.
    pub fn current_rung(&self, m: usize, k: usize, n: usize) -> Option<usize> {
        self.state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&(m, k, n))
            .map(|s| s.rung)
    }

    /// Snapshot the guard's complete run state — sticky per-shape rungs,
    /// call counter, health stats and the rung-0 λ/ladder fingerprint —
    /// for persistence in a training checkpoint. Deterministic: shapes
    /// are sorted by `(m, k, n)`.
    pub fn export_state(&self) -> GuardedState {
        let mut shapes: Vec<ShapeEntry> = self
            .state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .map(|(&(m, k, n), s)| ShapeEntry {
                m,
                k,
                n,
                rung: s.rung,
                clean: s.clean,
                backoff: s.backoff,
                tick: s.tick,
            })
            .collect();
        shapes.sort_unstable_by_key(|e| (e.m, e.k, e.n));
        GuardedState {
            lambda: self.base.current_lambda(),
            rung_count: self.ladder().len(),
            calls: self.calls.load(Ordering::Relaxed),
            shapes,
            stats: self.health(),
        }
    }

    /// Restore a snapshot taken by [`Self::export_state`] onto this guard,
    /// replacing its shape map, call counter and stats. Refuses a snapshot
    /// whose λ (bitwise) or ladder length differs from this guard's
    /// configuration — a resumed run must replay the same ladder, not a
    /// different experiment.
    pub fn restore_state(&self, snapshot: &GuardedState) -> Result<(), RestoreError> {
        let configured = self.base.current_lambda();
        if snapshot.lambda.to_bits() != configured.to_bits() {
            return Err(RestoreError::LambdaMismatch {
                checkpoint: snapshot.lambda,
                configured,
            });
        }
        let rung_count = self.ladder().len();
        if snapshot.rung_count != rung_count {
            return Err(RestoreError::LadderMismatch {
                checkpoint: snapshot.rung_count,
                configured: rung_count,
            });
        }
        self.calls.store(snapshot.calls, Ordering::Relaxed);
        *self.stats.lock().unwrap_or_else(PoisonError::into_inner) = snapshot.stats.clone();
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        state.clear();
        for e in &snapshot.shapes {
            state.insert(
                (e.m, e.k, e.n),
                ShapeState {
                    rung: e.rung.min(rung_count - 1),
                    clean: e.clean,
                    backoff: e.backoff,
                    tick: e.tick,
                    abft_offenses: 0,
                },
            );
        }
        Ok(())
    }

    /// Pre-warm the guarded serving path for a set of `(m, k, n)` shapes:
    /// forces the ladder build, warms the starting rung's multiplier (the
    /// rung fresh shapes execute on), sizes the probe scratch and per-rung
    /// stats at their high-water marks and registers each shape's ladder
    /// state — so the **first** sentinel-guarded multiply on a warmed
    /// shape performs zero heap allocations.
    ///
    /// Like [`ApaMatmul::warm`], the gemm pack buffers are thread-local:
    /// call this on the thread that will run the real multiplies.
    pub fn warm<T: Scalar>(&self, shapes: &[(usize, usize, usize)]) {
        let rungs = self.ladder();
        // Warm under a *throwaway* ABFT session with the same config: the
        // warm-up multiplies grow the thread-local checksum scratch to its
        // high-water mark exactly like the real calls will, without the
        // warm-up checks polluting the guard's counters.
        let _abft_scope = self
            .abft_session()
            .map(|s| gemm_abft::scoped(Arc::new(AbftSession::new(s.cfg))));
        rungs[0].exec.warm::<T>(shapes);
        {
            let mut stats = self.stats.lock().unwrap_or_else(PoisonError::into_inner);
            if stats.calls_by_rung.len() < rungs.len() {
                stats.calls_by_rung.resize(rungs.len(), 0);
            }
        }
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        let mut scratch = self.scratch.lock().unwrap_or_else(PoisonError::into_inner);
        for &(m, k, n) in shapes {
            if m == 0 || k == 0 || n == 0 {
                continue;
            }
            state.entry((m, k, n)).or_default();
            scratch.reserve(m, k, n);
        }
    }

    fn ladder(&self) -> &[Rung] {
        self.rungs.get_or_init(|| self.build_ladder())
    }

    /// The guard's ABFT session (built lazily from the sentinel config;
    /// `None` when the checksum tier is off).
    fn abft_session(&self) -> Option<&Arc<AbftSession>> {
        self.abft
            .get_or_init(|| match self.sentinel.abft {
                AbftMode::Off => None,
                AbftMode::On { slack, .. } => Some(Arc::new(AbftSession::new(AbftConfig {
                    slack,
                    repair: true,
                }))),
            })
            .as_ref()
    }

    /// The `escalate_after` streak threshold of [`AbftMode::On`]
    /// (0 when off or disabled).
    fn abft_escalate_after(&self) -> u32 {
        match self.sentinel.abft {
            AbftMode::On { escalate_after, .. } => escalate_after,
            AbftMode::Off => 0,
        }
    }

    fn build_ladder(&self) -> Vec<Rung> {
        let alg = self.base.algorithm().clone();
        let sigma = self.base.sigma();
        let phi = alg.phi();
        let steps = self.base.current_steps().max(1);
        let approximate = sigma.is_some_and(|s| s > 0);
        let mut rungs = Vec::new();

        // 0: the configured multiplier, then the same rule with fewer
        // recursion steps. `ApaMatmul::steps` re-derives the optimal λ per
        // depth unless the user pinned one — exactly the re-derivation a
        // depth demotion needs.
        for s in (1..=steps).rev() {
            let mm = if s == steps {
                self.base.clone()
            } else {
                self.base.clone().steps(s)
            };
            rungs.push(Rung {
                kind: RungKind::Apa {
                    steps: s,
                    lambda: mm.current_lambda(),
                },
                budget: self.sentinel.budget(sigma, phi, s),
                exec: Arc::new(mm),
            });
        }

        // Re-tuned λ: select over the paper's tuning grid by *measured*
        // error on a small deterministic probe — catches a pinned or
        // perturbed λ that the analytic optimum re-derivation would keep.
        if approximate {
            let tuned = tune_lambda(&alg, 32, 1, self.sentinel.seed);
            rungs.push(Rung {
                kind: RungKind::Retuned {
                    lambda: tuned.lambda,
                },
                budget: self.sentinel.budget(sigma, phi, 1),
                exec: Arc::new(self.base.clone().steps(1).lambda(tuned.lambda)),
            });
        }

        // Exact fast rule: machine precision at sub-cubic cost. Skipped
        // when the guarded rule is itself exact (it would be redundant).
        if approximate {
            let exact = ApaMatmul::new(catalog::strassen())
                .steps(1)
                .strategy(self.base.current_strategy())
                .threads(self.base.current_threads())
                .peel_mode(self.base.current_peel());
            rungs.push(Rung {
                kind: RungKind::ExactFast,
                budget: self.sentinel.budget(None, 0, 1),
                exec: Arc::new(exact),
            });
        }

        // Classical gemm: exact, unconditionally trusted.
        rungs.push(Rung {
            kind: RungKind::Classical,
            budget: f64::INFINITY,
            exec: Arc::new(ApaMatmul::classical().threads(self.base.current_threads())),
        });
        rungs
    }

    /// `C ← Â·B̂` through the sentinel and the ladder. Panics on
    /// mismatched operand shapes; [`Self::try_multiply_into`] is the
    /// non-panicking variant.
    pub fn multiply_into<T: Scalar>(&self, a: MatRef<'_, T>, b: MatRef<'_, T>, c: MatMut<'_, T>) {
        self.try_multiply_into(a, b, c)
            .unwrap_or_else(|e| panic!("GuardedApaMatmul::multiply_into: {e}"));
    }

    /// Guarded multiply returning a typed [`MatmulError`] on operand-shape
    /// mismatch. On success the output has passed the sentinel (or was
    /// computed by exact classical gemm).
    pub fn try_multiply_into<T: Scalar>(
        &self,
        a: MatRef<'_, T>,
        b: MatRef<'_, T>,
        mut c: MatMut<'_, T>,
    ) -> Result<(), MatmulError> {
        check_operands(
            (a.rows(), a.cols()),
            (b.rows(), b.cols()),
            (c.rows(), c.cols()),
        )?;
        let rungs = self.ladder();
        let call = self.calls.fetch_add(1, Ordering::Relaxed);
        let shape = (a.rows(), a.cols(), b.cols());
        let quality = self.quality_override();

        // Read the shape's rung and whether this call samples the probe.
        // A brownout override caps (or pins) the starting rung and
        // stretches the probe stride; `capped` records that the sticky
        // health state was overridden so `settle` leaves it alone.
        let (start, probe_sampled, capped) = {
            let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
            let s = state.entry(shape).or_default();
            let stride = self
                .sentinel
                .probe_every
                .saturating_mul(quality.map_or(1, |q| q.probe_stride_factor.max(1)));
            let sampled = stride > 0 && s.tick.is_multiple_of(stride);
            s.tick = s.tick.wrapping_add(1);
            let sticky = s.rung.min(rungs.len() - 1);
            let start = quality.map_or(sticky, |q| match q.pin_rung {
                Some(pin) => pin.min(rungs.len() - 1),
                None => sticky.min(q.rung_cap),
            });
            (start, sampled, start != sticky)
        };
        let slack = quality.map_or(1.0, |q| q.budget_slack.max(1.0));
        if capped {
            self.stats
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .brownout_capped_calls += 1;
        }

        let abft = self.abft_session();
        let mut idx = start;
        let mut demoted = false;
        loop {
            let last = idx == rungs.len() - 1;
            let abft_before = abft.map(|s| s.stats.snapshot());
            let exec_result = self.exec_rung::<T>(idx, a, b, c.rb(), call, !demoted, abft);
            // Fold this attempt's ABFT activity into the health counters
            // (whatever the attempt's fate — checks that ran, ran).
            let abft_delta = match (abft, abft_before) {
                (Some(s), Some(before)) => {
                    let d = s.stats.snapshot() - before;
                    if d.checks > 0 {
                        let mut stats = self.stats.lock().unwrap_or_else(PoisonError::into_inner);
                        stats.abft_checks += d.checks;
                        stats.abft_detected += d.detected;
                        stats.abft_repaired += d.repaired;
                    }
                    d
                }
                _ => AbftCounts::default(),
            };
            if let Err(failure) = exec_result {
                {
                    let mut stats = self.stats.lock().unwrap_or_else(PoisonError::into_inner);
                    match &failure {
                        RungFailure::Panicked(_) => stats.worker_panics += 1,
                        RungFailure::TimedOut => stats.watchdog_timeouts += 1,
                    }
                }
                if last {
                    // Even the classical floor failed — nothing trustworthy
                    // was produced; surface the typed cause.
                    return Err(match failure {
                        RungFailure::Panicked(detail) => MatmulError::WorkerPanicked { detail },
                        RungFailure::TimedOut => MatmulError::LaneTimeout {
                            deadline_ms: self.watchdog.map_or(0, |d| d.as_millis() as u64),
                        },
                    });
                }
                idx += 1;
                demoted = true;
                continue;
            }
            // ABFT escalation: a repair that failed its re-verification
            // always escalates; a shape whose calls keep *detecting*
            // corruption — even when every region repaired clean —
            // escalates after the configured streak. Everything else
            // (including a successfully repaired hit) is invisible to
            // the ladder.
            let abft_escalate = if abft_delta.unrepaired > 0 {
                true
            } else if abft_delta.detected > 0 {
                let escalate_after = self.abft_escalate_after();
                let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
                let s = state.entry(shape).or_default();
                s.abft_offenses = s.abft_offenses.saturating_add(1);
                if escalate_after > 0 && s.abft_offenses >= escalate_after {
                    s.abft_offenses = 0;
                    true
                } else {
                    false
                }
            } else {
                if abft_delta.checks > 0 {
                    let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
                    state.entry(shape).or_default().abft_offenses = 0;
                }
                false
            };
            if abft_escalate {
                self.stats
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .abft_escalations += 1;
                if last {
                    // Nothing below the classical floor to retry on. An
                    // unrepaired region means the buffer cannot be
                    // trusted; a repeat-offense streak whose regions all
                    // repaired clean falls through — the product itself
                    // re-verified.
                    if abft_delta.unrepaired > 0 {
                        return Err(MatmulError::SilentCorruption {
                            regions: abft_delta.unrepaired,
                        });
                    }
                } else {
                    idx += 1;
                    demoted = true;
                    continue;
                }
            }
            // The classical floor is exact — never probed. Elsewhere the
            // probe runs when sampled, and always on a post-demotion
            // re-check; unsampled calls still get the non-finite scan.
            let verdict = if last {
                Verdict::Healthy
            } else if probe_sampled || demoted {
                let mut scratch = self.scratch.lock().unwrap_or_else(PoisonError::into_inner);
                sentinel::check_product(
                    a,
                    b,
                    c.as_ref(),
                    rungs[idx].budget * slack,
                    self.sentinel.seed ^ call,
                    &mut scratch,
                )
            } else {
                match sentinel::scan_nonfinite(c.as_ref()) {
                    0 => Verdict::Healthy,
                    count => Verdict::NonFinite { count },
                }
            };
            self.record_check(last, probe_sampled || demoted, &verdict);
            if verdict.is_healthy() {
                self.settle(shape, idx, demoted, capped);
                return Ok(());
            }
            idx += 1;
            demoted = true;
        }
    }

    /// Allocate-and-return convenience.
    pub fn multiply<T: Scalar>(&self, a: MatRef<'_, T>, b: MatRef<'_, T>) -> Mat<T> {
        let mut c = Mat::zeros(a.rows(), b.cols());
        self.multiply_into(a, b, c.as_mut());
        c
    }

    #[allow(unused_variables)] // `call`, `first_attempt`: fault-inject hooks
    #[allow(clippy::too_many_arguments)] // internal ladder plumbing
    fn exec_rung<T: Scalar>(
        &self,
        idx: usize,
        a: MatRef<'_, T>,
        b: MatRef<'_, T>,
        mut c: MatMut<'_, T>,
        call: u64,
        first_attempt: bool,
        abft: Option<&Arc<AbftSession>>,
    ) -> Result<(), RungFailure> {
        let rung = &self.ladder()[idx];
        // Install the checksum session for the duration of this rung's
        // execution: the global is read by every gemm leaf, including
        // pool worker threads and the watchdog helper thread.
        let _abft_scope = abft.map(|s| gemm_abft::scoped(s.clone()));
        #[cfg(feature = "fault-inject")]
        let perturbed = first_attempt
            .then(|| crate::fault::lambda_factor(call))
            .flatten()
            .map(|factor| {
                let mm = rung.exec.as_ref().clone();
                let lambda = mm.current_lambda() * factor;
                Arc::new(mm.lambda(lambda))
            });
        #[cfg(feature = "fault-inject")]
        let exec = perturbed.as_ref().unwrap_or(&rung.exec);
        #[cfg(not(feature = "fault-inject"))]
        let exec = &rung.exec;

        // Crash-style faults arm a one-shot switch on the gemm pool; it is
        // disarmed after the attempt so a fault that found no lane
        // (sequential execution) cannot leak into a later call.
        #[cfg(feature = "fault-inject")]
        if first_attempt {
            crate::fault::arm_crash_faults(call);
        }
        let result = match self.watchdog {
            Some(deadline) => exec_with_watchdog(exec, a, b, c.rb(), deadline),
            None => exec
                .try_multiply_into(a, b, c.rb())
                .map_err(RungFailure::from),
        };
        #[cfg(feature = "fault-inject")]
        if first_attempt {
            crate::fault::disarm_crash_faults();
        }
        #[cfg(feature = "fault-inject")]
        if result.is_ok() && first_attempt {
            crate::fault::corrupt_output(call, c.rb());
        }
        result
    }

    fn record_check(&self, trusted_floor: bool, probed: bool, verdict: &Verdict) {
        let mut stats = self.stats.lock().unwrap_or_else(PoisonError::into_inner);
        if trusted_floor {
            return;
        }
        if probed {
            stats.probes += 1;
        } else {
            stats.nonfinite_scans += 1;
        }
        match verdict {
            Verdict::Healthy => {}
            Verdict::NonFinite { .. } => stats.nonfinite_detected += 1,
            Verdict::ResidualExceeded { .. } => stats.probe_failures += 1,
        }
    }

    /// Commit the call's outcome: final rung, demotion/promotion
    /// bookkeeping, per-rung call counts. A call whose starting rung was
    /// capped by a [`QualityOverride`] (`capped`) counts in the per-rung
    /// totals but leaves the sticky health state untouched: its execution
    /// rung was the brownout controller's choice, not evidence about the
    /// rung the sentinel had assigned.
    fn settle(&self, shape: (usize, usize, usize), landed: usize, demoted: bool, capped: bool) {
        let rung_count = self.ladder().len();
        let mut stats = self.stats.lock().unwrap_or_else(PoisonError::into_inner);
        stats.calls += 1;
        if stats.calls_by_rung.len() < rung_count {
            stats.calls_by_rung.resize(rung_count, 0);
        }
        stats.calls_by_rung[landed] += 1;
        if capped {
            return;
        }

        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        let s = state.entry(shape).or_default();
        if demoted {
            stats.demotions += (landed - s.rung.min(landed)) as u64;
            s.rung = landed;
            s.clean = 0;
            s.backoff = (s.backoff + 1).min(self.policy.max_backoff);
        } else if s.rung > 0 && self.policy.promote_after > 0 {
            s.clean += 1;
            if s.clean >= required_streak(&self.policy, shape, s.backoff) {
                s.rung -= 1;
                s.clean = 0;
                stats.promotions += 1;
            }
        }
    }
}

impl std::fmt::Debug for GuardedApaMatmul {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GuardedApaMatmul")
            .field("base", &self.base)
            .field("policy", &self.policy)
            .field("sentinel", &self.sentinel)
            .field("health", &self.health())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apa_gemm::matmul_naive;

    fn probe_mat(rows: usize, cols: usize, seed: u64) -> Mat<f32> {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        Mat::from_fn(rows, cols, |_, _| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (((state >> 32) as u32 as f64 / (1u64 << 31) as f64) - 1.0) as f32
        })
    }

    #[test]
    fn ladder_shape_for_approximate_rule() {
        let guard = GuardedApaMatmul::from_matmul(ApaMatmul::new(catalog::bini322()).steps(2));
        let rungs = guard.rungs();
        // 2-step, 1-step, retuned, exact fast, classical.
        assert_eq!(rungs.len(), 5);
        assert!(matches!(rungs[0], RungKind::Apa { steps: 2, .. }));
        assert!(matches!(rungs[1], RungKind::Apa { steps: 1, .. }));
        assert!(matches!(rungs[2], RungKind::Retuned { .. }));
        assert_eq!(rungs[3], RungKind::ExactFast);
        assert_eq!(rungs[4], RungKind::Classical);
    }

    #[test]
    fn ladder_shape_for_exact_rule() {
        let guard = GuardedApaMatmul::new(catalog::strassen());
        // Retuned and ExactFast are redundant for an exact rule.
        assert_eq!(
            guard.rungs(),
            vec![
                RungKind::Apa {
                    steps: 1,
                    lambda: 0.0
                },
                RungKind::Classical
            ]
        );
    }

    #[test]
    fn healthy_calls_stay_on_rung_zero() {
        let guard = GuardedApaMatmul::new(catalog::bini322());
        let a = probe_mat(30, 20, 1);
        let b = probe_mat(20, 22, 2);
        let expect = matmul_naive(a.as_ref(), b.as_ref());
        for _ in 0..5 {
            let c = guard.multiply(a.as_ref(), b.as_ref());
            assert!(c.rel_frobenius_error(&expect) < 5e-3);
        }
        assert_eq!(guard.current_rung(30, 20, 22), Some(0));
        let h = guard.health();
        assert_eq!(h.calls, 5);
        assert_eq!(h.probes, 5);
        assert_eq!(h.probe_failures, 0);
        assert_eq!(h.demotions, 0);
        assert_eq!(h.degraded_calls(), 0);
    }

    #[test]
    fn catastrophic_lambda_demotes_and_output_stays_exact_quality() {
        // λ pinned 2⁸ above the bini322 optimum: rung 0 produces ~9%
        // error, far past the budget. The ladder must walk down (retuned /
        // exact / classical are all fine) and the *returned* product must
        // be good.
        let guard = GuardedApaMatmul::from_matmul(
            ApaMatmul::new(catalog::bini322()).lambda(2.0_f64.powf(-11.5) * 256.0),
        );
        let a = probe_mat(30, 20, 3);
        let b = probe_mat(20, 20, 4);
        let expect = matmul_naive(a.as_ref(), b.as_ref());
        let c = guard.multiply(a.as_ref(), b.as_ref());
        let err = c.rel_frobenius_error(&expect);
        assert!(err < 5e-3, "ladder output err {err}");
        let h = guard.health();
        assert!(h.probe_failures >= 1, "{h:?}");
        assert!(h.demotions >= 1, "{h:?}");
        let rung = guard.current_rung(30, 20, 20).unwrap();
        assert!(rung >= 1, "shape should be demoted, rung = {rung}");
        // Later calls on the same shape start directly on the demoted rung
        // and are healthy there.
        let before = guard.health().demotions;
        let c2 = guard.multiply(a.as_ref(), b.as_ref());
        assert!(c2.rel_frobenius_error(&expect) < 5e-3);
        assert_eq!(guard.health().demotions, before, "no re-demotion expected");
    }

    #[test]
    fn hysteresis_repromotes_after_clean_streak() {
        let guard = GuardedApaMatmul::new(catalog::bini322()).policy(DegradePolicy {
            promote_after: 3,
            max_backoff: 4,
            promotion_jitter: 0.0, // exact streak arithmetic below
            ..DegradePolicy::default()
        });
        let a = probe_mat(12, 8, 5);
        let b = probe_mat(8, 10, 6);
        // Force a demotion by hand: pretend the shape landed on rung 1.
        guard.multiply(a.as_ref(), b.as_ref());
        {
            let mut state = guard.state.lock().unwrap();
            let s = state.get_mut(&(12, 8, 10)).unwrap();
            s.rung = 1;
            s.backoff = 1; // one prior demotion → streak doubles to 6
        }
        for _ in 0..5 {
            guard.multiply(a.as_ref(), b.as_ref());
        }
        assert_eq!(guard.current_rung(12, 8, 10), Some(1), "streak not yet met");
        guard.multiply(a.as_ref(), b.as_ref());
        assert_eq!(
            guard.current_rung(12, 8, 10),
            Some(0),
            "6th clean call promotes"
        );
        assert_eq!(guard.health().promotions, 1);
    }

    #[test]
    fn probe_sampling_rate_is_respected() {
        let guard = GuardedApaMatmul::new(catalog::bini322()).sentinel(SentinelConfig {
            probe_every: 4,
            ..SentinelConfig::default()
        });
        let a = probe_mat(12, 8, 7);
        let b = probe_mat(8, 10, 8);
        for _ in 0..8 {
            guard.multiply(a.as_ref(), b.as_ref());
        }
        let h = guard.health();
        assert_eq!(h.probes, 2, "{h:?}"); // ticks 0 and 4
        assert_eq!(h.nonfinite_scans, 6, "{h:?}");
    }

    #[test]
    fn shape_mismatch_is_a_typed_error() {
        let guard = GuardedApaMatmul::new(catalog::strassen());
        let a = probe_mat(8, 6, 9);
        let b = probe_mat(7, 8, 10);
        let mut c = Mat::<f32>::zeros(8, 8);
        assert_eq!(
            guard.try_multiply_into(a.as_ref(), b.as_ref(), c.as_mut()),
            Err(MatmulError::InnerDimMismatch {
                a: (8, 6),
                b: (7, 8)
            })
        );
        let b2 = probe_mat(6, 8, 11);
        let mut bad_c = Mat::<f32>::zeros(8, 9);
        assert!(matches!(
            guard.try_multiply_into(a.as_ref(), b2.as_ref(), bad_c.as_mut()),
            Err(MatmulError::OutputShapeMismatch { .. })
        ));
    }

    #[test]
    fn watchdogged_calls_produce_the_same_products() {
        // A generous deadline never fires; the helper-thread path must be
        // numerically transparent.
        let plain = GuardedApaMatmul::new(catalog::bini322());
        let dogged = GuardedApaMatmul::new(catalog::bini322()).watchdog(Duration::from_secs(30));
        assert_eq!(dogged.current_watchdog(), Some(Duration::from_secs(30)));
        let a = probe_mat(30, 20, 21);
        let b = probe_mat(20, 22, 22);
        let c1 = plain.multiply(a.as_ref(), b.as_ref());
        let c2 = dogged.multiply(a.as_ref(), b.as_ref());
        for i in 0..30 {
            for j in 0..22 {
                assert_eq!(c1.at(i, j), c2.at(i, j), "({i},{j})");
            }
        }
        let h = dogged.health();
        assert_eq!(h.watchdog_timeouts, 0);
        assert_eq!(h.worker_panics, 0);
    }

    #[test]
    fn state_round_trip_restores_ladder_decisions() {
        let guard = GuardedApaMatmul::new(catalog::bini322()).sentinel(SentinelConfig {
            probe_every: 4,
            ..SentinelConfig::default()
        });
        let a = probe_mat(12, 8, 13);
        let b = probe_mat(8, 10, 14);
        for _ in 0..6 {
            guard.multiply(a.as_ref(), b.as_ref());
        }
        // Fake some sticky damage so the snapshot is non-trivial.
        {
            let mut state = guard.state.lock().unwrap();
            let s = state.get_mut(&(12, 8, 10)).unwrap();
            s.rung = 2;
            s.clean = 5;
            s.backoff = 3;
        }
        let snapshot = guard.export_state();
        assert_eq!(snapshot.calls, 6);
        assert_eq!(
            snapshot.shapes,
            vec![ShapeEntry {
                m: 12,
                k: 8,
                n: 10,
                rung: 2,
                clean: 5,
                backoff: 3,
                tick: 6,
            }]
        );

        // Restore onto a fresh identically-configured guard: same rung,
        // same stats, and the probe schedule stays phase-aligned (tick 6
        // → next probe at tick 8, i.e. the 3rd call after restore).
        let fresh = GuardedApaMatmul::new(catalog::bini322()).sentinel(SentinelConfig {
            probe_every: 4,
            ..SentinelConfig::default()
        });
        fresh.restore_state(&snapshot).unwrap();
        assert_eq!(fresh.current_rung(12, 8, 10), Some(2));
        assert_eq!(fresh.health(), snapshot.stats);
        let probes_before = fresh.health().probes;
        for _ in 0..2 {
            fresh.multiply(a.as_ref(), b.as_ref()); // ticks 6, 7: scans
        }
        assert_eq!(fresh.health().probes, probes_before);
        fresh.multiply(a.as_ref(), b.as_ref()); // tick 8: probe
        assert_eq!(fresh.health().probes, probes_before + 1);
        assert_eq!(fresh.export_state().calls, 9);
    }

    #[test]
    fn restore_refuses_a_mismatched_configuration() {
        let guard = GuardedApaMatmul::new(catalog::bini322());
        let snapshot = guard.export_state();

        // Different λ (pinned off the optimum) → refused.
        let other_lambda =
            GuardedApaMatmul::from_matmul(ApaMatmul::new(catalog::bini322()).lambda(1e-2));
        assert!(matches!(
            other_lambda.restore_state(&snapshot),
            Err(RestoreError::LambdaMismatch { .. })
        ));

        // Different ladder (exact rule → 2 rungs vs 5) → refused, with a
        // λ that matches so the ladder check is the one that trips.
        let exact = GuardedApaMatmul::from_matmul(
            ApaMatmul::new(catalog::strassen()).lambda(snapshot.lambda),
        );
        let err = exact.restore_state(&snapshot).unwrap_err();
        assert!(matches!(err, RestoreError::LadderMismatch { .. }), "{err}");
        assert!(err.to_string().contains("rungs"), "{err}");
    }

    #[test]
    fn promotion_jitter_is_deterministic_and_only_extends() {
        let policy = DegradePolicy {
            promote_after: 32,
            max_backoff: 8,
            promotion_jitter: 0.25,
            jitter_seed: 7,
        };
        let base = 32u64 << 3;
        let r1 = required_streak(&policy, (64, 128, 64), 3);
        let r2 = required_streak(&policy, (64, 128, 64), 3);
        assert_eq!(r1, r2, "same shape+backoff must jitter identically");
        assert!(r1 >= base, "jitter never weakens the hysteresis");
        assert!(r1 <= base + base / 4 + 1, "jitter bounded by the fraction");
        // Different shapes desynchronize: with a 25% window over a base of
        // 256 the odds of 8 shapes colliding by chance are negligible.
        let all: Vec<u64> = (0..8)
            .map(|i| required_streak(&policy, (64 + i, 128, 64), 3))
            .collect();
        assert!(
            all.windows(2).any(|w| w[0] != w[1]),
            "shapes re-probe in lockstep: {all:?}"
        );
        // Disabled jitter reproduces the exact shifted base.
        let exact = DegradePolicy {
            promotion_jitter: 0.0,
            ..policy
        };
        assert_eq!(required_streak(&exact, (64, 128, 64), 3), base);
    }

    #[test]
    fn quality_override_caps_the_start_rung_without_touching_sticky_state() {
        let guard = GuardedApaMatmul::new(catalog::bini322());
        let a = probe_mat(12, 8, 31);
        let b = probe_mat(8, 10, 32);
        guard.multiply(a.as_ref(), b.as_ref());
        // Pretend the sentinel stickily demoted the shape to the floor.
        let floor = guard.rungs().len() - 1;
        {
            let mut state = guard.state.lock().unwrap();
            state.get_mut(&(12, 8, 10)).unwrap().rung = floor;
        }
        let calls_on_rung0_before = guard.health().calls_by_rung[0];

        // Brownout: force execution back onto the configured multiplier.
        guard.set_quality_override(Some(QualityOverride {
            rung_cap: 0,
            probe_stride_factor: 1,
            budget_slack: 1.0,
            pin_rung: None,
        }));
        assert!(guard.quality_override().is_some());
        let expect = matmul_naive(a.as_ref(), b.as_ref());
        for _ in 0..3 {
            let c = guard.multiply(a.as_ref(), b.as_ref());
            assert!(c.rel_frobenius_error(&expect) < 5e-3);
        }
        let h = guard.health();
        assert_eq!(h.brownout_capped_calls, 3, "{h:?}");
        assert_eq!(h.calls_by_rung[0], calls_on_rung0_before + 3, "{h:?}");
        // The sticky state still remembers the sentinel's demotion.
        assert_eq!(guard.current_rung(12, 8, 10), Some(floor));

        // Clearing the override restores the sentinel's ladder unchanged.
        guard.set_quality_override(None);
        guard.multiply(a.as_ref(), b.as_ref());
        assert_eq!(guard.health().brownout_capped_calls, 3);
        assert_eq!(
            guard.health().calls_by_rung[floor],
            1,
            "uncapped call runs on the sticky floor again"
        );
    }

    #[test]
    fn quality_override_pin_rung_forces_a_deeper_start_without_touching_sticky_state() {
        let guard = GuardedApaMatmul::new(catalog::bini322());
        let a = probe_mat(12, 8, 35);
        let b = probe_mat(8, 10, 36);
        guard.multiply(a.as_ref(), b.as_ref());
        assert_eq!(guard.current_rung(12, 8, 10), Some(0));
        let floor = guard.rungs().len() - 1;

        // Pin the classical floor (usize::MAX clamps to the ladder end):
        // the shape is healthy at rung 0, but the brownout controller has
        // measured the exact floor as the cheaper execution at this width.
        guard.set_quality_override(Some(QualityOverride {
            pin_rung: Some(usize::MAX),
            ..QualityOverride::default()
        }));
        let expect = matmul_naive(a.as_ref(), b.as_ref());
        for _ in 0..3 {
            let c = guard.multiply(a.as_ref(), b.as_ref());
            assert!(c.rel_frobenius_error(&expect) < 1e-6, "floor is exact");
        }
        let h = guard.health();
        assert_eq!(h.calls_by_rung[floor], 3, "{h:?}");
        assert_eq!(h.brownout_capped_calls, 3, "{h:?}");
        // The sticky ladder never saw the pin: the shape is still healthy
        // at rung 0 and runs there again once the override lifts.
        assert_eq!(guard.current_rung(12, 8, 10), Some(0));
        guard.set_quality_override(None);
        guard.multiply(a.as_ref(), b.as_ref());
        assert_eq!(guard.health().calls_by_rung[floor], 3);
    }

    #[test]
    fn quality_override_stride_factor_stretches_probe_sampling() {
        let guard = GuardedApaMatmul::new(catalog::bini322()).sentinel(SentinelConfig {
            probe_every: 2,
            ..SentinelConfig::default()
        });
        guard.set_quality_override(Some(QualityOverride {
            rung_cap: 0,
            probe_stride_factor: 4,
            budget_slack: 1.0,
            pin_rung: None,
        }));
        let a = probe_mat(12, 8, 33);
        let b = probe_mat(8, 10, 34);
        for _ in 0..8 {
            guard.multiply(a.as_ref(), b.as_ref());
        }
        let h = guard.health();
        assert_eq!(h.probes, 1, "stride 2×4 = 8 → ticks 0 only: {h:?}");
        assert_eq!(h.nonfinite_scans, 7, "{h:?}");
    }

    #[test]
    fn f64_products_are_guarded_too() {
        let guard = GuardedApaMatmul::new(catalog::bini322());
        let a = Mat::<f64>::from_fn(12, 8, |i, j| (i as f64 - j as f64) * 0.1);
        let b = Mat::<f64>::from_fn(8, 10, |i, j| (i as f64 + j as f64) * 0.05);
        let c = guard.multiply(a.as_ref(), b.as_ref());
        let expect = matmul_naive(a.as_ref(), b.as_ref());
        assert!(c.rel_frobenius_error(&expect) < 5e-3);
    }
}
