//! The host-speed probe and the reference-host clock.
//!
//! This box flips every few seconds between two speed levels (a 1024³
//! `gemm_st` takes ≈ 15.5 ms on one and ≈ 20.5 ms on the other; the two
//! vCPUs flip independently), and a run of 20 s sees anything from 5 % to
//! 60 % of the fast level. Any quantile of raw wall times therefore lands
//! on one level or the other by luck. The harness instead times a fixed
//! loop of its own right before and after every timed section on the same
//! thread, and scales the section to the *reference host* — a host that
//! runs one probe iteration in [`REF_NS_PER_ITER`] — so a section reads
//! the same whichever level the host was on while it ran.

use std::hint::black_box;
use std::time::Instant;

/// Iterations of one probe chunk (≈ 0.15 ms at the quiet level here,
/// ≈ 0.19 ms at the loaded one).
const CHUNK_ITERS: u64 = 100_000;
/// Chunks per probe; the fastest one counts, which drops a timer tick or
/// an interrupt that hit one of them.
const CHUNKS: usize = 3;
/// The reference host: one probe iteration takes this long. Chosen as
/// this box's *loaded* level — the one every run sees most of — so
/// reference-host milliseconds read like wall milliseconds on most ops.
pub const REF_NS_PER_ITER: f64 = 1.865;
/// What one probe chunk takes on the reference host, in ms.
pub const REF_CHUNK_MS: f64 = CHUNK_ITERS as f64 * REF_NS_PER_ITER / 1e6;
/// A probe below this share of the reference chunk time was taken at the
/// quiet level: the geometric middle of the two levels this box has, 1
/// and 1/1.27.
pub const QUIET_BELOW: f64 = 0.89;

/// 16 independent multiply-add chains in plain scalar code: independent
/// of every kernel in the repo, so a faster gemm cannot make the host
/// look slower.
#[inline(never)]
fn chunk(iters: u64) -> f32 {
    let mut acc = [1.0f32; 16];
    let a = black_box(0.999_9f32);
    let b = black_box(1.0e-4f32);
    for _ in 0..iters {
        for x in acc.iter_mut() {
            *x = *x * a + b;
        }
    }
    acc.iter().sum()
}

/// One probe: wall ms of the fastest of [`CHUNKS`] chunks.
pub fn probe_ms() -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..CHUNKS {
        let t0 = Instant::now();
        black_box(chunk(black_box(CHUNK_ITERS)));
        best = best.min(t0.elapsed().as_secs_f64() * 1e3);
    }
    best
}

/// Times sections on the reference host and keeps every probe it took.
pub struct HostClock {
    probes: Vec<f64>,
    last: f64,
}

impl HostClock {
    pub fn new() -> Self {
        let first = probe_ms();
        HostClock {
            probes: vec![first],
            last: first,
        }
    }

    /// Run `f`; returns its result, its wall ms and its reference-host ms
    /// (wall × reference chunk time / mean of the probes around it). The
    /// probe after one section is the probe before the next.
    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> (R, f64, f64) {
        let before = self.last;
        let t0 = Instant::now();
        let out = f();
        let wall = t0.elapsed().as_secs_f64() * 1e3;
        let after = self.reprobe();
        (out, wall, to_reference(wall, before, after))
    }

    /// Take a fresh probe (after an untimed pause, so the next section is
    /// not scaled by a stale one).
    pub fn reprobe(&mut self) -> f64 {
        let p = probe_ms();
        self.probes.push(p);
        self.last = p;
        p
    }

    pub fn probes(&self) -> &[f64] {
        &self.probes
    }

    /// Share of probes at the loaded level (at least [`QUIET_BELOW`] of
    /// the reference host's chunk time).
    pub fn slow_share(&self) -> f64 {
        let slow = self
            .probes
            .iter()
            .filter(|&&p| p >= QUIET_BELOW * REF_CHUNK_MS)
            .count();
        slow as f64 / self.probes.len() as f64
    }
}

/// Scale a wall time to the reference host given the probes around it.
pub fn to_reference(wall_ms: f64, probe_before: f64, probe_after: f64) -> f64 {
    wall_ms * REF_CHUNK_MS / (0.5 * (probe_before + probe_after))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_scaling_cancels_a_slow_host() {
        // A host 30 % slower makes both the probe and the section 30 %
        // longer: the reference-host time is the same.
        let quiet = to_reference(100.0, REF_CHUNK_MS, REF_CHUNK_MS);
        let slow = to_reference(130.0, 1.3 * REF_CHUNK_MS, 1.3 * REF_CHUNK_MS);
        assert!((quiet - 100.0).abs() < 1e-9);
        assert!((slow - 100.0).abs() < 1e-9);
        // A flip in the middle is split evenly.
        let mixed = to_reference(115.0, REF_CHUNK_MS, 1.3 * REF_CHUNK_MS);
        assert!((mixed - 100.0).abs() < 1e-9);
    }

    #[test]
    fn probe_takes_measurable_time_and_clock_logs_it() {
        let mut clock = HostClock::new();
        let ((), wall, reference) =
            clock.time(|| std::thread::sleep(std::time::Duration::from_millis(2)));
        assert!(wall >= 2.0);
        assert!(reference > 0.0);
        assert_eq!(clock.probes().len(), 2);
        assert!(clock.probes().iter().all(|&p| p > 0.0));
        assert!((0.0..=1.0).contains(&clock.slow_share()));
    }
}
