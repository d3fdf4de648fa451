//! Order statistics used by every estimator in the ledger.

/// Quantile `q ∈ [0, 1]` of `values` by linear interpolation between the
/// two nearest order statistics (the "R-7" rule: position `q·(n−1)`).
/// Panics on an empty slice — an estimator without samples is a harness
/// bug, not a measurement.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// `(window index, quantile q of that window)` for every window holding
/// at least `min_count` samples (the ragged last one is left out), in
/// window order. `samples` are `(time_s, value)` pairs; window `w` holds
/// the samples with `w·width ≤ time < (w+1)·width`.
pub fn window_quantiles(
    samples: &[(f64, f64)],
    width_s: f64,
    q: f64,
    min_count: usize,
) -> Vec<(usize, f64)> {
    assert!(width_s > 0.0, "window width must be positive");
    let mut windows: Vec<Vec<f64>> = Vec::new();
    for &(t, v) in samples {
        if t < 0.0 {
            continue;
        }
        let w = (t / width_s) as usize;
        if windows.len() <= w {
            windows.resize_with(w + 1, Vec::new);
        }
        windows[w].push(v);
    }
    windows
        .iter()
        .enumerate()
        .filter(|(_, vals)| vals.len() >= min_count.max(1))
        .map(|(w, vals)| (w, quantile(vals, q)))
        .collect()
}

/// A value read at the host's loaded level from samples taken at both.
pub struct LoadedLevel {
    /// The estimate at the loaded level.
    pub value: f64,
    /// Loaded-over-quiet ratio applied to the quiet samples: this run's
    /// own when both levels had [`MIN_PER_LEVEL`] samples, else the
    /// caller's default.
    pub ratio: f64,
}

/// Samples a level needs before its median is trusted.
pub const MIN_PER_LEVEL: usize = 4;

/// Median of `(loaded, value)` samples as if all were taken at the loaded
/// level: quiet samples are first multiplied by the ratio of the two
/// levels' medians. A run that saw too little of one level cannot know
/// that ratio and uses `default_ratio`.
pub fn at_loaded_level(samples: &[(bool, f64)], default_ratio: f64) -> LoadedLevel {
    assert!(!samples.is_empty(), "level estimate of no samples");
    let of = |want: bool| -> Vec<f64> {
        samples
            .iter()
            .filter(|s| s.0 == want)
            .map(|s| s.1)
            .collect()
    };
    let (loaded, quiet) = (of(true), of(false));
    let own_ratio = loaded.len() >= MIN_PER_LEVEL && quiet.len() >= MIN_PER_LEVEL;
    let ratio = if own_ratio {
        median(&loaded) / median(&quiet)
    } else {
        default_ratio
    };
    let all: Vec<f64> = loaded
        .iter()
        .copied()
        .chain(quiet.iter().map(|v| v * ratio))
        .collect();
    LoadedLevel {
        value: median(&all),
        ratio,
    }
}

/// Interquartile distance as a share of the median — the run-to-run
/// spread `ledger compare` and `repeat.sh` hold against a metric's bound.
pub fn spread(values: &[f64]) -> f64 {
    let m = median(values);
    if m == 0.0 {
        return 0.0;
    }
    (quantile(values, 0.75) - quantile(values, 0.25)).abs() / m.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_between_order_statistics() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(quantile(&v, 0.5), 2.5);
        assert!((quantile(&v, 0.25) - 1.75).abs() < 1e-12);
        assert_eq!(quantile(&[7.0], 0.9), 7.0);
    }

    #[test]
    fn quantile_is_order_invariant_and_clamps() {
        let a = [5.0, 9.0, 1.0, 3.0, 7.0];
        let b = [1.0, 3.0, 5.0, 7.0, 9.0];
        for q in [0.1, 0.5, 0.9] {
            assert_eq!(quantile(&a, q), quantile(&b, q));
        }
        assert_eq!(quantile(&a, -1.0), 1.0);
        assert_eq!(quantile(&a, 2.0), 9.0);
    }

    #[test]
    fn median_over_windows_ignores_one_disturbed_window() {
        // Three 1-s windows of 10 samples; the middle one is 10× slower.
        let mut samples = Vec::new();
        for w in 0..3 {
            for i in 0..10 {
                let v = if w == 1 { 50.0 } else { 5.0 };
                samples.push((w as f64 + i as f64 * 0.1, v));
            }
        }
        let per_window = window_quantiles(&samples, 1.0, 0.5, 5);
        assert_eq!(per_window, [(0, 5.0), (1, 50.0), (2, 5.0)]);
        let values: Vec<f64> = per_window.iter().map(|w| w.1).collect();
        assert_eq!(median(&values), 5.0);
        // The raw whole-run p90 is dragged to the slow level.
        let raw: Vec<f64> = samples.iter().map(|s| s.1).collect();
        assert_eq!(quantile(&raw, 0.9), 50.0);
    }

    #[test]
    fn window_quantiles_drop_ragged_windows() {
        let samples = [
            (0.1, 1.0),
            (0.2, 2.0),
            (0.3, 3.0),
            (1.5, 100.0),
            (-1.0, 9.0),
        ];
        assert_eq!(window_quantiles(&samples, 1.0, 0.5, 2), [(0, 2.0)]);
        assert!(window_quantiles(&samples, 1.0, 0.5, 10).is_empty());
        assert_eq!(
            window_quantiles(&samples, 1.0, 1.0, 1),
            [(0, 3.0), (1, 100.0)]
        );
    }

    #[test]
    fn loaded_level_estimate_does_not_depend_on_the_mix_of_levels() {
        // Loaded windows read 4.8, quiet ones 3.1; three mixes of the two.
        let mix = |loaded: usize, quiet: usize| -> Vec<(bool, f64)> {
            (0..loaded)
                .map(|_| (true, 4.8))
                .chain((0..quiet).map(|_| (false, 3.1)))
                .collect()
        };
        for (l, q) in [(30, 10), (10, 30), (20, 20)] {
            let est = at_loaded_level(&mix(l, q), 1.0);
            assert!((est.ratio - 4.8 / 3.1).abs() < 1e-12);
            assert!((est.value - 4.8).abs() < 1e-12, "{l}/{q}: {}", est.value);
        }
        // The plain median flips between the levels with the mix.
        let plain = |l, q| median(&mix(l, q).iter().map(|s| s.1).collect::<Vec<_>>());
        assert_eq!((plain(30, 10), plain(10, 30)), (4.8, 3.1));
    }

    #[test]
    fn loaded_level_estimate_uses_the_default_ratio_when_one_level_is_missing() {
        let quiet_only: Vec<(bool, f64)> = (0..20).map(|_| (false, 3.0)).collect();
        let est = at_loaded_level(&quiet_only, 1.5);
        assert_eq!((est.value, est.ratio), (4.5, 1.5));
        // Three loaded windows are too few to trust their median.
        let mut few = quiet_only.clone();
        few.extend([(true, 9.0); 3]);
        let est = at_loaded_level(&few, 1.5);
        assert_eq!((est.value, est.ratio), (4.5, 1.5));
        let loaded_only: Vec<(bool, f64)> = (0..20).map(|_| (true, 4.6)).collect();
        assert_eq!(at_loaded_level(&loaded_only, 1.5).value, 4.6);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v = [10.0, 10.0, 10.0, 10.0];
        assert_eq!(spread(&v), 0.0);
        let v = [8.0, 9.0, 10.0, 11.0, 12.0];
        assert!((spread(&v) - 0.2).abs() < 1e-12);
    }
}
