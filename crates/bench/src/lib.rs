//! # apa-bench
//!
//! The experiment harness: one binary per table/figure of the paper (see
//! DESIGN.md §4 for the experiment index), the ablations and the `apa`
//! CLI. Performance is measured by the benchmark ledger (`benchmark/`).
//! This library holds the shared plumbing: a tiny flag parser, robust
//! timing, and result-table printing.

use std::collections::HashMap;
use std::time::Instant;

/// Minimal `--key value` / `--flag` argument parser (no external deps —
/// the harness binaries take at most a handful of options).
pub struct Args {
    values: HashMap<String, String>,
    flags: Vec<String>,
}

impl Args {
    pub fn parse() -> Self {
        Self::from_args(std::env::args().skip(1))
    }

    pub fn from_args<I: IntoIterator<Item = String>>(iter: I) -> Self {
        let mut values = HashMap::new();
        let mut flags = Vec::new();
        let args: Vec<String> = iter.into_iter().collect();
        let mut i = 0;
        while i < args.len() {
            let arg = &args[i];
            if let Some(name) = arg.strip_prefix("--") {
                if i + 1 < args.len() && !args[i + 1].starts_with("--") {
                    values.insert(name.to_string(), args[i + 1].clone());
                    i += 2;
                } else {
                    flags.push(name.to_string());
                    i += 1;
                }
            } else {
                i += 1;
            }
        }
        Self { values, flags }
    }

    pub fn get<T: std::str::FromStr>(&self, name: &str, default: T) -> T {
        self.values
            .get(name)
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    }

    pub fn get_str(&self, name: &str) -> Option<&str> {
        self.values.get(name).map(|s| s.as_str())
    }

    pub fn flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name) || self.values.contains_key(name)
    }
}

/// Time a closure: warm up once, then report the *minimum* of `reps`
/// timed runs (minimum is the standard noise-robust estimator for
/// compute-bound kernels on a shared machine).
pub fn time_min<F: FnMut()>(mut f: F, reps: usize) -> f64 {
    f();
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

/// The paper's Fig.-3 metric: effective GFLOPS = 2n³ / time / 1e9,
/// counting *classical* flops regardless of the algorithm ("the GFLOPS
/// reported for APA algorithms is not true performance", §3.3).
pub fn effective_gflops(n: usize, seconds: f64) -> f64 {
    2.0 * (n as f64).powi(3) / seconds / 1e9
}

/// Print an aligned table: header row + data rows of equal arity.
pub fn print_table(header: &[&str], rows: &[Vec<String>]) {
    let ncols = header.len();
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        assert_eq!(row.len(), ncols, "ragged table row");
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:>w$}"))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let header_cells: Vec<String> = header.iter().map(|s| s.to_string()).collect();
    println!("{}", fmt_row(&header_cells));
    println!(
        "{}",
        "-".repeat(widths.iter().sum::<usize>() + 2 * (ncols - 1))
    );
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

/// Print the same rows as CSV (machine-readable form for EXPERIMENTS.md).
pub fn print_csv(header: &[&str], rows: &[Vec<String>]) {
    println!("csv,{}", header.join(","));
    for row in rows {
        println!("csv,{}", row.join(","));
    }
}

/// Standard experiment banner: what is being run, at what scale, with
/// which caveats.
pub fn banner(title: &str, notes: &[&str]) {
    println!("=== {title} ===");
    for n in notes {
        println!("  {n}");
    }
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn args_parse_values_and_flags() {
        let a = Args::from_args(
            ["--threads", "6", "--full", "--n", "1024"]
                .iter()
                .map(|s| s.to_string()),
        );
        assert_eq!(a.get("threads", 1usize), 6);
        assert_eq!(a.get("n", 0usize), 1024);
        assert!(a.flag("full"));
        assert!(!a.flag("quick"));
        assert_eq!(a.get("missing", 7u32), 7);
    }

    #[test]
    fn time_min_is_positive() {
        let t = time_min(
            || {
                std::hint::black_box((0..1000).sum::<u64>());
            },
            3,
        );
        assert!(t >= 0.0);
    }

    #[test]
    fn effective_gflops_formula() {
        // 2·1000³ flops in 2 seconds = 1 GFLOPS.
        assert!((effective_gflops(1000, 2.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "ragged table row")]
    fn table_rejects_ragged_rows() {
        print_table(&["a", "b"], &[vec!["1".into()]]);
    }
}
