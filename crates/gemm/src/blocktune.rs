//! Cache-hierarchy-driven selection of the MC/KC/NC blocking parameters,
//! with an opt-in measured autotune persisted across processes.
//!
//! Resolution order, evaluated once per element type at first gemm and
//! cached in a [`OnceLock`]:
//!
//! 1. `APA_BLOCK_CONFIG=mc,kc,nc` — explicit override, no questions asked;
//! 2. a persisted tune file whose fingerprint (kernel tier, element size,
//!    detected cache sizes) matches this machine;
//! 3. with `APA_AUTOTUNE=1`: a measured race over candidates around the
//!    analytic point, persisted for every later process (the workspace
//!    cache's on-disk sibling, under `$APA_PLAN_DIR/blocks`);
//! 4. the analytic BLIS sizing from the detected hierarchy: KC keeps one
//!    B sliver in half of L1d, MC keeps the packed A block in half of L2,
//!    NC keeps the packed B block in half of L3.
//!
//! The chosen sizes are deliberately **tier-independent within a
//! process**: every kernel tier splits k into the same KC chunks, which —
//! together with the identical per-element FMA chains of the kernels — is
//! what keeps scalar/AVX2/AVX-512 results bitwise identical
//! (`tests/dispatch_matrix.rs`). The analytic path is also deterministic
//! per machine, so independent processes (e.g. the crash-drill
//! parent/child pairs) agree without coordination.

use crate::blocked::BlockSizes;
use crate::kernel::selected_tier;
use crate::scalar::Scalar;
use std::any::TypeId;
use std::path::PathBuf;
use std::sync::OnceLock;

/// Detected (or default) data-cache sizes in bytes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheHierarchy {
    pub l1d: usize,
    pub l2: usize,
    pub l3: usize,
}

impl CacheHierarchy {
    /// The paper-era defaults used when detection is unavailable.
    pub const FALLBACK: Self = Self {
        l1d: 32 * 1024,
        l2: 256 * 1024,
        l3: 8 * 1024 * 1024,
    };

    /// Detect via sysfs (Linux); falls back to [`Self::FALLBACK`] per
    /// missing level. Cached for the process.
    pub fn detect() -> Self {
        static DETECTED: OnceLock<CacheHierarchy> = OnceLock::new();
        *DETECTED.get_or_init(|| {
            let mut hier = Self::FALLBACK;
            for index in 0..=4u32 {
                let base = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
                let read = |f: &str| std::fs::read_to_string(format!("{base}/{f}")).ok();
                let (Some(level), Some(size)) = (read("level"), read("size")) else {
                    continue;
                };
                let ty = read("type").unwrap_or_default();
                let Some(bytes) = parse_size(size.trim()) else {
                    continue;
                };
                match (level.trim(), ty.trim()) {
                    ("1", "Data") => hier.l1d = bytes,
                    ("2", _) => hier.l2 = bytes,
                    ("3", _) => hier.l3 = bytes,
                    _ => {}
                }
            }
            hier
        })
    }
}

/// Parse sysfs cache sizes: `"48K"`, `"2048K"`, `"1M"`, plain bytes.
fn parse_size(s: &str) -> Option<usize> {
    let (digits, mult) = match s.as_bytes().last()? {
        b'K' | b'k' => (&s[..s.len() - 1], 1024),
        b'M' | b'm' => (&s[..s.len() - 1], 1024 * 1024),
        b'G' | b'g' => (&s[..s.len() - 1], 1024 * 1024 * 1024),
        _ => (s, 1),
    };
    digits.trim().parse::<usize>().ok().map(|v| v * mult)
}

fn round_down_mult(v: usize, m: usize) -> usize {
    (v / m).max(1) * m
}

/// The analytic BLIS sizing for element size `es`, shared by all tiers.
/// Uses a canonical panel width (64 bytes — one cache line of elements)
/// rather than the selected tier's NR so the result does not depend on
/// which tier is running.
fn analytic(cache: &CacheHierarchy, es: usize) -> BlockSizes {
    let ref_nr = (64 / es).max(8); // 16 for f32, 8 for f64
    let kc = round_down_mult(cache.l1d / 2 / (ref_nr * es), 8).clamp(64, 512);
    let mc = round_down_mult(cache.l2 / 2 / (kc * es), 8).clamp(64, 768);
    let nc = round_down_mult(cache.l3 / 2 / (kc * es), ref_nr).clamp(512, 4096);
    BlockSizes { mc, kc, nc }
}

/// Where the tune came from (reported by benches / `block_report`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TuneSource {
    /// `APA_BLOCK_CONFIG` env override.
    Env,
    /// Loaded from the persisted tune file.
    Persisted,
    /// Measured this process (and persisted).
    Measured,
    /// Analytic sizing from the detected cache hierarchy.
    Analytic,
}

impl TuneSource {
    pub fn name(self) -> &'static str {
        match self {
            TuneSource::Env => "env",
            TuneSource::Persisted => "persisted",
            TuneSource::Measured => "measured",
            TuneSource::Analytic => "analytic",
        }
    }
}

fn fingerprint(es: usize) -> String {
    let c = CacheHierarchy::detect();
    format!(
        "v1-{}-{}B-{}-{}-{}",
        selected_tier().name(),
        es,
        c.l1d,
        c.l2,
        c.l3
    )
}

/// Root directory of one persistent store: `$APA_PLAN_DIR/<sub>` (the
/// unified persistence root: block tunes under `blocks/`, compiled plans
/// under `plans/` — see `apa-planner`), falling back to
/// `$XDG_CACHE_HOME/<name>`, `$HOME/.cache/<name>`, then the system temp
/// dir's `<name>`.
pub fn cache_dir(sub: &str, name: &str) -> PathBuf {
    let var = |key: &str| std::env::var(key).ok().filter(|v| !v.is_empty());
    if let Some(dir) = var("APA_PLAN_DIR") {
        return PathBuf::from(dir).join(sub);
    }
    if let Some(xdg) = var("XDG_CACHE_HOME") {
        return PathBuf::from(xdg).join(name);
    }
    if let Some(home) = var("HOME") {
        return PathBuf::from(home).join(".cache").join(name);
    }
    std::env::temp_dir().join(name)
}

fn tune_path(es: usize) -> PathBuf {
    cache_dir("blocks", "apa-gemm").join(format!("blocks-{}.conf", fingerprint(es)))
}

fn parse_blocks(text: &str) -> Option<BlockSizes> {
    let (mut mc, mut kc, mut nc) = (None, None, None);
    for line in text.lines() {
        let (key, val) = line.split_once('=')?;
        let v: usize = val.trim().parse().ok()?;
        match key.trim() {
            "mc" => mc = Some(v),
            "kc" => kc = Some(v),
            "nc" => nc = Some(v),
            _ => {}
        }
    }
    let bs = BlockSizes {
        mc: mc?,
        kc: kc?,
        nc: nc?,
    };
    (bs.mc >= 8
        && bs.kc >= 8
        && bs.nc >= 8
        && bs.mc <= 1 << 16
        && bs.kc <= 1 << 16
        && bs.nc <= 1 << 20)
        .then_some(bs)
}

fn load_persisted(es: usize) -> Option<BlockSizes> {
    let text = std::fs::read_to_string(tune_path(es)).ok()?;
    parse_blocks(&text)
}

fn persist(es: usize, bs: BlockSizes) {
    let path = tune_path(es);
    let Some(dir) = path.parent() else { return };
    if std::fs::create_dir_all(dir).is_err() {
        return;
    }
    let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
    let body = format!("mc={}\nkc={}\nnc={}\n", bs.mc, bs.kc, bs.nc);
    // Atomic publish: a concurrent writer's rename simply wins the race.
    if std::fs::write(&tmp, body).is_ok() {
        let _ = std::fs::rename(&tmp, &path);
    }
}

fn env_blocks() -> Option<BlockSizes> {
    let spec = std::env::var("APA_BLOCK_CONFIG").ok()?;
    let mut parts = spec.split(',').map(|p| p.trim().parse::<usize>());
    let (mc, kc, nc) = (
        parts.next()?.ok()?,
        parts.next()?.ok()?,
        parts.next()?.ok()?,
    );
    (mc >= 8 && kc >= 8 && nc >= 8).then_some(BlockSizes { mc, kc, nc })
}

fn autotune_requested() -> bool {
    std::env::var("APA_AUTOTUNE")
        .map(|v| !v.is_empty() && v != "0")
        .unwrap_or(false)
}

/// Measure candidate blockings around the analytic point on a fixed
/// probe product and return the fastest. Only runs under `APA_AUTOTUNE=1`.
fn measure<T: Scalar>(base: BlockSizes) -> BlockSizes {
    use crate::blocked::gemm_st_probe;
    use crate::matrix::Mat;
    let n = 384usize;
    let a = Mat::<T>::from_fn(n, n, |i, j| {
        T::from_f64(((i * 7 + j) % 13) as f64 * 0.05 - 0.3)
    });
    let b = Mat::<T>::from_fn(n, n, |i, j| {
        T::from_f64(((i + j * 5) % 11) as f64 * 0.07 - 0.35)
    });
    let mut c = Mat::<T>::zeros(n, n);

    let mut candidates: Vec<BlockSizes> = Vec::new();
    for kf in [1usize, 2, 4] {
        // kc × {1/2, 1, 2} around the analytic value, clamped like analytic.
        let kc = round_down_mult(base.kc * kf / 2, 8).clamp(64, 512);
        for mf in [1usize, 2, 4] {
            let mc = round_down_mult(base.mc * mf / 2, 8).clamp(64, 768);
            let cand = BlockSizes {
                mc,
                kc,
                nc: base.nc,
            };
            if !candidates.contains(&cand) {
                candidates.push(cand);
            }
        }
    }

    let mut best = (f64::INFINITY, base);
    for cand in candidates {
        gemm_st_probe(cand, a.as_ref(), b.as_ref(), c.as_mut()); // warm
        let mut fastest = f64::INFINITY;
        for _ in 0..2 {
            let t0 = std::time::Instant::now();
            gemm_st_probe(cand, a.as_ref(), b.as_ref(), c.as_mut());
            fastest = fastest.min(t0.elapsed().as_secs_f64());
        }
        if fastest < best.0 {
            best = (fastest, cand);
        }
    }
    best.1
}

fn resolve<T: Scalar>() -> (BlockSizes, TuneSource) {
    let es = std::mem::size_of::<T>();
    if let Some(bs) = env_blocks() {
        return (bs, TuneSource::Env);
    }
    if let Some(bs) = load_persisted(es) {
        return (bs, TuneSource::Persisted);
    }
    let base = analytic(&CacheHierarchy::detect(), es);
    if autotune_requested() {
        let bs = measure::<T>(base);
        persist(es, bs);
        return (bs, TuneSource::Measured);
    }
    (base, TuneSource::Analytic)
}

/// The blocking parameters every gemm driver uses for `T`, resolved once
/// per process (see the module docs for the resolution order).
pub fn block_sizes<T: Scalar>() -> BlockSizes {
    block_sizes_with_source::<T>().0
}

/// [`block_sizes`] plus where the numbers came from.
pub fn block_sizes_with_source<T: Scalar>() -> (BlockSizes, TuneSource) {
    static F32: OnceLock<(BlockSizes, TuneSource)> = OnceLock::new();
    static F64: OnceLock<(BlockSizes, TuneSource)> = OnceLock::new();
    let id = TypeId::of::<T>();
    if id == TypeId::of::<f32>() {
        *F32.get_or_init(resolve::<f32>)
    } else if id == TypeId::of::<f64>() {
        *F64.get_or_init(resolve::<f64>)
    } else {
        (
            analytic(&CacheHierarchy::detect(), std::mem::size_of::<T>()),
            TuneSource::Analytic,
        )
    }
}

/// One-line report of the active blocking for bench output, e.g.
/// `blocks[f32]: mc=680 kc=384 nc=4096 (analytic, L1d=48K L2=2048K L3=...)`.
pub fn block_report<T: Scalar>() -> String {
    let (bs, src) = block_sizes_with_source::<T>();
    let c = CacheHierarchy::detect();
    format!(
        "blocks[{}B]: mc={} kc={} nc={} ({}, l1d={} l2={} l3={})",
        std::mem::size_of::<T>(),
        bs.mc,
        bs.kc,
        bs.nc,
        src.name(),
        c.l1d,
        c.l2,
        c.l3
    )
}

/// Measure the parallel gemm throughput at `threads` lanes on an `n`×`n`×`n`
/// product, in GFLOP/s (best of `reps` timed runs after one warmup).
///
/// This is the calibration primitive behind the planner's parallel-scaling
/// model: probing a handful of thread counts yields measured speedup points
/// that replace the naive linear-scaling assumption in cost prediction.
pub fn probe_parallel_gflops<T: Scalar>(threads: usize, n: usize, reps: usize) -> f64 {
    use crate::matrix::Mat;
    use crate::pool::Par;
    let a = Mat::<T>::from_fn(n, n, |i, j| {
        T::from_f64(((i * 7 + j) % 13) as f64 * 0.05 - 0.3)
    });
    let b = Mat::<T>::from_fn(n, n, |i, j| {
        T::from_f64(((i + j * 5) % 11) as f64 * 0.07 - 0.35)
    });
    let mut c = Mat::<T>::zeros(n, n);
    let par = if threads <= 1 {
        Par::Seq
    } else {
        Par::Threads(threads)
    };
    crate::parallel::gemm(T::ONE, a.as_ref(), b.as_ref(), T::ZERO, c.as_mut(), par); // warm
    let mut fastest = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let t0 = std::time::Instant::now();
        crate::parallel::gemm(T::ONE, a.as_ref(), b.as_ref(), T::ZERO, c.as_mut(), par);
        fastest = fastest.min(t0.elapsed().as_secs_f64());
    }
    let flops = 2.0 * (n as f64).powi(3);
    flops / fastest / 1e9
}

/// Measure sustained main-memory streaming bandwidth in bytes/second with a
/// large out-of-cache copy sweep (best of three passes over a buffer sized
/// to at least 4× the detected L3).
///
/// Feeds the planner's memory-traffic cost term so the bandwidth ceiling is
/// measured rather than assumed.
pub fn probe_bandwidth_bytes() -> f64 {
    let l3 = CacheHierarchy::detect().l3;
    let words = (4 * l3 / 8).max(8 * 1024 * 1024 / 8); // >= 8 MiB of u64s
    let src: Vec<u64> = (0..words as u64)
        .map(|i| i.wrapping_mul(0x9E37_79B9))
        .collect();
    let mut dst: Vec<u64> = vec![0u64; words];
    let mut fastest = f64::INFINITY;
    for _ in 0..3 {
        let t0 = std::time::Instant::now();
        dst.copy_from_slice(&src);
        fastest = fastest.min(t0.elapsed().as_secs_f64());
    }
    std::hint::black_box(&mut dst);
    // A copy reads and writes every byte: 2 × buffer size moved.
    (2 * words * 8) as f64 / fastest
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_size_units() {
        assert_eq!(parse_size("48K"), Some(48 * 1024));
        assert_eq!(parse_size("2048K"), Some(2048 * 1024));
        assert_eq!(parse_size("1M"), Some(1024 * 1024));
        assert_eq!(parse_size("12345"), Some(12345));
        assert_eq!(parse_size("junk"), None);
    }

    #[test]
    fn analytic_matches_paper_defaults_on_fallback_hierarchy() {
        // The pre-dispatch defaults (f32: 128/256/1024-ish) came from the
        // same 32K/256K budget; the analytic formula must land there too.
        let f32_bs = analytic(&CacheHierarchy::FALLBACK, 4);
        assert_eq!((f32_bs.mc, f32_bs.kc), (128, 256));
        let f64_bs = analytic(&CacheHierarchy::FALLBACK, 8);
        assert!(f64_bs.kc >= 128 && f64_bs.mc >= 64);
    }

    #[test]
    fn analytic_scales_with_cache_sizes() {
        let small = analytic(&CacheHierarchy::FALLBACK, 4);
        let big = analytic(
            &CacheHierarchy {
                l1d: 64 * 1024,
                l2: 2 * 1024 * 1024,
                l3: 64 * 1024 * 1024,
            },
            4,
        );
        assert!(big.kc >= small.kc);
        assert!(big.mc >= small.mc);
        assert!(big.nc >= small.nc);
        // Everything stays within the clamps.
        for bs in [small, big] {
            assert!((64..=512).contains(&bs.kc));
            assert!((64..=768).contains(&bs.mc));
            assert!((512..=4096).contains(&bs.nc));
        }
    }

    #[test]
    fn parse_blocks_round_trip_and_rejects_garbage() {
        let bs = parse_blocks("mc=128\nkc=256\nnc=1024\n").unwrap();
        assert_eq!((bs.mc, bs.kc, bs.nc), (128, 256, 1024));
        assert!(parse_blocks("mc=128\nkc=256\n").is_none());
        assert!(parse_blocks("mc=0\nkc=256\nnc=1024\n").is_none());
        assert!(parse_blocks("nonsense").is_none());
    }

    #[test]
    fn probes_report_positive_rates() {
        let gf = probe_parallel_gflops::<f32>(1, 96, 1);
        assert!(gf.is_finite() && gf > 0.0, "gflops probe: {gf}");
        let bw = probe_bandwidth_bytes();
        assert!(bw.is_finite() && bw > 0.0, "bandwidth probe: {bw}");
    }

    #[test]
    fn resolved_blocks_are_sane_and_stable() {
        let (a, _) = block_sizes_with_source::<f32>();
        let (b, _) = block_sizes_with_source::<f32>();
        assert_eq!((a.mc, a.kc, a.nc), (b.mc, b.kc, b.nc));
        assert!(a.kc >= 8 && a.mc >= 8 && a.nc >= 8);
    }
}
