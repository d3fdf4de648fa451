//! `ledger compare a b`: hold two sets of runs against the bounds in
//! `BENCHMARK.json`, one row per workload × end-to-end metric.
//!
//! `a` and `b` are each a record file written by `--out`, a file holding
//! an array of records, or a directory of record files.

use crate::report::metrics_of;
use crate::stats::{median, spread};
use serde_json::Value;
use std::collections::BTreeMap;
use std::path::Path;

#[derive(Debug, PartialEq, Clone, Copy)]
pub enum Verdict {
    Unchanged,
    Improved,
    /// Worse by more than the bound.
    Regression,
    /// The runs of one side spread wider than the bound and the two sides
    /// overlap: the sets cannot say.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Unchanged => "unchanged",
            Verdict::Improved => "improved",
            Verdict::Regression => "REGRESSION",
            Verdict::Unresolved => "unresolved",
        }
    }
}

pub struct Comparison {
    pub median_a: f64,
    pub median_b: f64,
    /// How much worse `b` is, as a share of `a`'s median (negative:
    /// better).
    pub worse_by: f64,
    pub spread: f64,
    pub verdict: Verdict,
}

/// Compare the runs `a` (parent) and `b` (change) of one metric.
pub fn judge(a: &[f64], b: &[f64], lower_is_better: bool, bound: f64) -> Comparison {
    let (median_a, median_b) = (median(a), median(b));
    let sign = if lower_is_better { 1.0 } else { -1.0 };
    let worse_by = if median_a == 0.0 {
        0.0
    } else {
        sign * (median_b - median_a) / median_a.abs()
    };
    let spread = spread(a).max(spread(b));
    // "Better" in the metric's own direction.
    let better = |x: f64, y: f64| sign * (x - y) < 0.0;
    let all_b_better = b.iter().all(|&y| a.iter().all(|&x| better(y, x)));
    let all_b_worse = b.iter().all(|&y| a.iter().all(|&x| better(x, y)));
    let verdict = if spread > bound {
        if all_b_better {
            Verdict::Improved
        } else if all_b_worse && worse_by > bound {
            Verdict::Regression
        } else {
            Verdict::Unresolved
        }
    } else if worse_by > bound {
        Verdict::Regression
    } else if -worse_by > spread.max(f64::EPSILON) && -worse_by > bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    };
    Comparison {
        median_a,
        median_b,
        worse_by,
        spread,
        verdict,
    }
}

/// Read the records under `path` (see the module docs).
fn load(path: &Path) -> Result<Vec<Value>, String> {
    let mut files = Vec::new();
    if path.is_dir() {
        let entries = std::fs::read_dir(path).map_err(|e| format!("{}: {e}", path.display()))?;
        for entry in entries {
            let p = entry.map_err(|e| e.to_string())?.path();
            if p.extension().is_some_and(|x| x == "json") {
                files.push(p);
            }
        }
        files.sort();
    } else {
        files.push(path.to_path_buf());
    }
    let mut records = Vec::new();
    for file in files {
        let text =
            std::fs::read_to_string(&file).map_err(|e| format!("{}: {e}", file.display()))?;
        let value: Value =
            serde_json::from_str(&text).map_err(|e| format!("{}: {e}", file.display()))?;
        match value {
            Value::Array(items) => records.extend(items),
            record => records.push(record),
        }
    }
    records.retain(|r| r["traced"].as_bool() != Some(true));
    if records.is_empty() {
        return Err(format!("{}: no untraced run records", path.display()));
    }
    Ok(records)
}

type Runs = BTreeMap<(String, String), Vec<f64>>;

/// `(workload, metric) → one value per run`, plus `failed` per workload.
fn by_metric(records: &[Value]) -> Runs {
    let mut runs = Runs::new();
    for r in records {
        let workload = r["workload"].as_str().unwrap_or("?").to_string();
        for (name, value) in metrics_of(r) {
            runs.entry((workload.clone(), name))
                .or_default()
                .push(value);
        }
        if let Some(failed) = r["failed"].as_f64() {
            runs.entry((workload.clone(), "failed".into()))
                .or_default()
                .push(failed);
        }
    }
    runs
}

/// `name → (lower is better, bound)` from `BENCHMARK.json`.
fn bounds() -> Result<Vec<(String, bool, f64)>, String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let spec: Value =
        serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let list = spec["end_to_end"]
        .as_array()
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    list.iter()
        .map(|m| {
            let name = m["name"].as_str().ok_or("metric without a name")?;
            let bound = m["bound"].as_f64().ok_or("metric without a bound")?;
            Ok((
                name.to_string(),
                m["better"].as_str() == Some("lower"),
                bound,
            ))
        })
        .collect()
}

pub fn main(args: &[String]) -> i32 {
    let [a, b] = args else {
        eprintln!("usage: ledger compare <a.json|dir> <b.json|dir>");
        return 2;
    };
    let loaded = load(Path::new(a)).and_then(|ra| Ok((ra, load(Path::new(b))?, bounds()?)));
    let (records_a, records_b, bounds) = match loaded {
        Ok(x) => x,
        Err(e) => {
            eprintln!("ledger compare: {e}");
            return 2;
        }
    };
    let (runs_a, runs_b) = (by_metric(&records_a), by_metric(&records_b));
    println!("workload\tmetric\ta_median\tb_median\tworse_by_%\tspread_%\tbound_%\tverdict");
    let mut regressions = 0;
    for ((workload, name), a_values) in &runs_a {
        let Some(b_values) = runs_b.get(&(workload.clone(), name.clone())) else {
            continue;
        };
        // More failed operations than the parent is a regression whatever
        // the timings say.
        let (lower, bound) = if name == "failed" {
            (true, 0.0)
        } else {
            match bounds.iter().find(|m| &m.0 == name) {
                Some(m) => (m.1, m.2),
                None => continue,
            }
        };
        let c = judge(a_values, b_values, lower, bound);
        let verdict = if name == "failed" && c.median_b > c.median_a {
            Verdict::Regression
        } else if name == "failed" {
            Verdict::Unchanged
        } else {
            c.verdict
        };
        regressions += u32::from(verdict == Verdict::Regression);
        println!(
            "{workload}\t{name}\t{}\t{}\t{:+.2}\t{:.2}\t{:.2}\t{}",
            c.median_a,
            c.median_b,
            100.0 * c.worse_by,
            100.0 * c.spread,
            100.0 * bound,
            verdict.label()
        );
    }
    if regressions > 0 {
        println!("{regressions} regressions");
        1
    } else {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn within_bound_is_unchanged_beyond_it_a_regression() {
        let a = [100.0, 101.0, 99.0];
        assert_eq!(
            judge(&a, &[103.0, 104.0, 102.0], true, 0.06).verdict,
            Verdict::Unchanged
        );
        let c = judge(&a, &[110.0, 111.0, 109.0], true, 0.06);
        assert_eq!(c.verdict, Verdict::Regression);
        assert!((c.worse_by - 0.10).abs() < 1e-12);
        // Higher-is-better metrics regress downwards.
        assert_eq!(
            judge(&a, &[90.0, 91.0, 89.0], false, 0.06).verdict,
            Verdict::Regression
        );
        assert_eq!(
            judge(&a, &[110.0, 111.0, 109.0], false, 0.06).verdict,
            Verdict::Improved
        );
    }

    #[test]
    fn spread_wider_than_bound_is_unresolved_unless_the_sets_separate() {
        // Parent runs swing 20 %: a 10 % shift of the median says nothing.
        let a = [100.0, 120.0, 90.0, 110.0];
        let b = [112.0, 125.0, 99.0, 118.0];
        assert_eq!(judge(&a, &b, true, 0.06).verdict, Verdict::Unresolved);
        // Not "unchanged" either, even when the medians agree.
        assert_eq!(judge(&a, &a, true, 0.06).verdict, Verdict::Unresolved);
        // Every run of the change beats every run of the parent.
        let better = [80.0, 85.0, 70.0, 75.0];
        assert_eq!(judge(&a, &better, true, 0.06).verdict, Verdict::Improved);
        let worse = [130.0, 150.0, 125.0, 140.0];
        assert_eq!(judge(&a, &worse, true, 0.06).verdict, Verdict::Regression);
    }

    #[test]
    fn records_group_by_workload_and_metric() {
        let rec = |w: &str, v: f64, failed: f64| {
            serde_json::json!({
                "workload": (w.to_string()),
                "failed": failed,
                "metrics": {"op_ms_typical": {"value": v, "unit": "ms"}},
            })
        };
        let runs = by_metric(&[rec("x", 1.0, 0.0), rec("x", 2.0, 1.0), rec("y", 5.0, 0.0)]);
        assert_eq!(runs[&("x".into(), "op_ms_typical".into())], [1.0, 2.0]);
        assert_eq!(runs[&("x".into(), "failed".into())], [0.0, 1.0]);
        assert_eq!(runs[&("y".into(), "op_ms_typical".into())], [5.0]);
    }
}
