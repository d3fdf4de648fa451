//! `ledger` — the repo's one benchmark. See `benchmark/README.md`.
//!
//! ```text
//! ledger --workload <name|all> --seed <u64> --seconds <n> --trace <0|1> [--out f.json]
//! ledger --selftest --seed <u64>
//! ledger compare a.json b.json
//! ```

mod compare;
mod layers;
mod probe;
mod report;
mod serve;
mod stats;
mod trace;
mod train;
mod verify;

use report::Outcome;
use serde_json::{json, Value};
use std::path::{Path, PathBuf};

/// Installed in both runs, on every commit, so allocation counts are
/// available to the trace and the allocator is never a difference.
#[global_allocator]
static ALLOC: apa_gemm::CountingAlloc = apa_gemm::CountingAlloc;

/// Every environment variable the libraries read. All are removed before
/// any library code runs; `APA_PLAN_DIR` is then pointed at a fresh
/// directory inside the checkout.
const SCRUBBED: [&str; 9] = [
    "APA_THREADS",
    "APA_NO_PIN",
    "APA_KERNEL_TIER",
    "APA_FORCE_SCALAR_KERNEL",
    "APA_AUTOTUNE",
    "APA_BLOCK_CONFIG",
    "APA_TUNE_DIR",
    "APA_PLAN_TUNE",
    "APA_PLAN_DIR",
];

pub const WORKLOADS: [&str; 4] = [
    "train_sq_classical",
    "train_sq_guarded",
    "train_skinny_guarded",
    serve::NAME,
];

/// `benchmark/out`, the only place a run writes.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// A per-process scratch directory under `benchmark/out`, removed on drop.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn create() -> std::io::Result<Self> {
        let dir = out_dir().join(format!("tmp-{}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(ScratchDir(dir))
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Remove every `APA_*` knob and return the ones that were set.
fn scrub_environment() -> Vec<String> {
    let mut found = Vec::new();
    for name in SCRUBBED {
        if std::env::var_os(name).is_some() {
            found.push(name.to_string());
            std::env::remove_var(name);
        }
    }
    found
}

/// `VmHWM` of this process, in MB (10⁶ bytes); 0 where `/proc` is absent.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map(|kb| kb * 1024.0 / 1e6)
        .unwrap_or(0.0)
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// What the numbers were measured on.
fn machine(scrubbed: &[String]) -> Value {
    json!({
        "nproc": (std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)),
        "dispatch_report": (apa_gemm::dispatch_report()),
        "block_report": (apa_gemm::block_report::<f32>()),
        "topology_report": (apa_gemm::topology_report()),
        "rustc": (command_line("rustc", &["--version"])),
        "commit": (command_line("git", &["rev-parse", "HEAD"])),
        "reference_ns_per_probe_iter": (probe::REF_NS_PER_ITER),
        "scrubbed": (scrubbed.to_vec()),
    })
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
    selftest: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 1,
        seconds: 20.0,
        trace: false,
        out: None,
        selftest: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--workload" => parsed.workload = Some(value("--workload")?),
            "--seed" => {
                parsed.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(1.0..=600.0).contains(&s) {
                    return Err(format!("--seconds {s} is outside 1..=600"));
                }
                parsed.seconds = s;
            }
            "--trace" => {
                parsed.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            "--out" => parsed.out = Some(PathBuf::from(value("--out")?)),
            "--selftest" => parsed.selftest = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(parsed)
}

/// Run one workload in this process.
fn run_workload(name: &str, args: &Args, scratch: &Path) -> Result<Outcome, String> {
    let trace_path = out_dir().join(format!("trace_{name}.json"));
    if name == serve::NAME {
        return Ok(if args.trace {
            serve::run_traced(args.seed, args.seconds, scratch, &trace_path)
        } else {
            serve::run(args.seed, args.seconds, scratch)
        });
    }
    let spec = train::SPECS
        .iter()
        .find(|s| s.name == name)
        .ok_or_else(|| format!("unknown workload {name}; one of {WORKLOADS:?} or all"))?;
    Ok(if args.trace {
        train::run_traced(spec, args.seed, args.seconds, &trace_path)
    } else {
        train::run(spec, args.seed, args.seconds)
    })
}

/// `--workload all`: each workload in a child process of its own, so
/// `peak_rss_mb` is per workload; then the one figure that needs two of
/// them, Fig. 6's H = 1024 point. Returns the worst exit code.
fn run_all(args: &Args) -> i32 {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("ledger: cannot find own executable: {e}");
            return 2;
        }
    };
    // One record per workload: next to `--out` when given, else under
    // `benchmark/out`.
    let record_path = |name: &str| -> PathBuf {
        match &args.out {
            Some(out) => {
                let stem = out.file_stem().and_then(|s| s.to_str()).unwrap_or("ledger");
                out.with_file_name(format!("{stem}.{name}.json"))
            }
            None => out_dir().join(format!("all.{name}.json")),
        }
    };
    if let Err(e) = std::fs::create_dir_all(out_dir()) {
        eprintln!("ledger: cannot create {}: {e}", out_dir().display());
        return 2;
    }
    let mut worst = 0;
    for name in WORKLOADS {
        let status = std::process::Command::new(&exe)
            .args(["--workload", name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .arg("--out")
            .arg(record_path(name))
            .status();
        match status {
            Ok(status) => worst = worst.max(status.code().unwrap_or(2)),
            Err(e) => {
                eprintln!("ledger: could not run {name}: {e}");
                worst = worst.max(2);
            }
        }
    }
    if !args.trace {
        let typical = |name: &str| -> Option<f64> {
            let text = std::fs::read_to_string(record_path(name)).ok()?;
            let record: Value = serde_json::from_str(&text).ok()?;
            record["metrics"]["op_ms_typical"]["value"].as_f64()
        };
        if let (Some(guarded), Some(classical)) =
            (typical("train_sq_guarded"), typical("train_sq_classical"))
        {
            // Relative training time of Fig. 6 (below 1.0: APA wins).
            println!("all\tfig6_ratio_h1024\t{:?}\tx", guarded / classical);
        }
    }
    worst
}

/// Two in-process runs of one seed must agree on every count metric and
/// on `max_rel_error`, digit for digit.
fn selftest(seed: u64) -> i32 {
    let spec = &train::SPECS[2];
    let trace_path = out_dir().join("trace_selftest.json");
    let mut failures = 0;
    let runs: Vec<Outcome> = (0..2)
        .map(|_| train::run_traced(spec, seed, 4.0, &trace_path))
        .collect();
    for (a, b) in runs[0].gated.iter().zip(&runs[1].gated) {
        assert_eq!(a.name, b.name);
        if a.unit == "count" || a.unit == "B" {
            let same = a.value.to_bits() == b.value.to_bits();
            println!(
                "{}\t{}\t{}\t{}",
                a.name,
                a.value,
                b.value,
                if same { "same" } else { "DIFFERS" }
            );
            failures += u32::from(!same);
        }
    }
    let errors: Vec<f64> = (0..2)
        .map(|_| {
            let out = train::run(spec, seed, 1.0);
            failures += u32::from(!out.tally.correct());
            out.gated
                .iter()
                .find(|m| m.name == "max_rel_error")
                .expect("an end-to-end metric")
                .value
        })
        .collect();
    let same = errors[0].to_bits() == errors[1].to_bits();
    println!(
        "max_rel_error\t{:e}\t{:e}\t{}",
        errors[0],
        errors[1],
        if same { "same" } else { "DIFFERS" }
    );
    failures += u32::from(!same);
    failures += runs.iter().filter(|r| !r.tally.correct()).count() as u32;
    if failures == 0 {
        println!("selftest: counts and max_rel_error repeat exactly for seed {seed}");
        0
    } else {
        println!("selftest: {failures} mismatches");
        1
    }
}

fn real_main() -> i32 {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        return compare::main(&argv[1..]);
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("ledger: {e}");
            return 2;
        }
    };
    let scrubbed = scrub_environment();
    if args.workload.as_deref() == Some("all") {
        return run_all(&args);
    }
    let scratch = match ScratchDir::create() {
        Ok(s) => s,
        Err(e) => {
            eprintln!(
                "ledger: cannot create a scratch directory under {}: {e}",
                out_dir().display()
            );
            return 2;
        }
    };
    std::env::set_var("APA_PLAN_DIR", &scratch.0);
    if args.selftest {
        return selftest(args.seed);
    }
    let Some(name) = args.workload.as_deref() else {
        eprintln!("ledger: --workload <name|all> is required (one of {WORKLOADS:?})");
        return 2;
    };
    let outcome = match run_workload(name, &args, &scratch.0) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("ledger: {e}");
            return 2;
        }
    };
    for note in &outcome.tally.notes {
        eprintln!("ledger: {name}: {note}");
    }
    if let Some(path) = &args.out {
        let record = outcome.record(machine(&scrubbed));
        let text = serde_json::to_string_pretty(&record).expect("a Value always serializes");
        if let Err(e) = std::fs::write(path, text + "\n") {
            eprintln!("ledger: could not write {}: {e}", path.display());
            return 2;
        }
    }
    print!("{}", outcome.text_lines());
    println!("{}", outcome.result_line());
    i32::from(!outcome.tally.correct())
}

fn main() {
    // `real_main` returns instead of exiting so the scratch directory is
    // removed on every path.
    std::process::exit(real_main());
}
