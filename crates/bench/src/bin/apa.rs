//! `apa` — the command-line utility for working with algorithm files and
//! quick measurements. The downstream-user face of the library:
//!
//! ```text
//! apa list                          # catalog inventory
//! apa validate <file>               # Brent-validate a text/JSON algorithm file
//! apa convert <in> <out>            # convert between .txt and .json formats
//! apa derive <m> <k> <n>            # best derivable rule for a shape
//! apa schedule <rank> <threads>     # render the hybrid schedule
//! apa time <name> <n> [threads]     # time one multiplication vs classical
//! apa error <name> <n>              # tuned-λ error vs f64 classical
//! apa autotune <n> [threads]        # measured plan compile for n×n×n
//! ```

use apa_core::{brent, catalog, derive, error_model, io, Dims};
use apa_gemm::Mat;
use apa_matmul::{hybrid_schedule, tune_lambda, ApaMatmul, Strategy};
use apa_planner::{PlanCompiler, PlanRequest};
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(|s| s.as_str()) {
        Some("list") => cmd_list(),
        Some("validate") => cmd_validate(&args[1..]),
        Some("convert") => cmd_convert(&args[1..]),
        Some("derive") => cmd_derive(&args[1..]),
        Some("schedule") => cmd_schedule(&args[1..]),
        Some("time") => cmd_time(&args[1..]),
        Some("error") => cmd_error(&args[1..]),
        Some("render") => cmd_render(&args[1..]),
        Some("autotune") => cmd_autotune(&args[1..]),
        _ => {
            eprintln!(
                "usage: apa <list|validate|convert|derive|schedule|time|error|render|autotune> ..."
            );
            eprintln!("  list                      catalog inventory");
            eprintln!("  validate <file>           Brent-validate an algorithm file");
            eprintln!("  convert <in> <out>        convert .txt <-> .json");
            eprintln!("  derive <m> <k> <n>        best derivable rule for a shape");
            eprintln!("  schedule <rank> <threads> render the hybrid schedule");
            eprintln!("  time <name> <n> [threads] time vs classical gemm");
            eprintln!("  error <name> <n>          tuned-lambda error vs f64 classical");
            eprintln!("  render <name>             print the rule in M-formula notation");
            eprintln!("  autotune <n> [threads]    measured plan for an n^3 multiply");
            2
        }
    };
    std::process::exit(code);
}

fn cmd_render(args: &[String]) -> i32 {
    let Some(name) = args.first() else {
        eprintln!("usage: apa render <name>");
        return 2;
    };
    let alg = match alg_by_name_or_err(name) {
        Ok(a) => a,
        Err(c) => return c,
    };
    print!("{}", apa_core::render::render_rule(&alg));
    0
}

fn cmd_autotune(args: &[String]) -> i32 {
    let n: usize = args.first().and_then(|a| a.parse().ok()).unwrap_or(2048);
    let threads: usize = args.get(1).and_then(|a| a.parse().ok()).unwrap_or(1);
    let plan = PlanCompiler::new()
        .measured(true)
        .compile(&PlanRequest::new(n, n, n).threads(threads));
    println!(
        "plan at n = {n}: rule {}, steps {}, threads {}, predicted {:.4}s",
        plan.rule, plan.steps, plan.threads, plan.predicted_seconds
    );
    0
}

fn cmd_list() -> i32 {
    for alg in catalog::all() {
        println!("{}", alg.summary());
    }
    0
}

fn load_file(path: &str) -> Result<apa_core::BilinearAlgorithm, String> {
    let content = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    if path.ends_with(".json") {
        io::from_json(&content)
    } else {
        io::from_text(&content)
    }
}

fn cmd_validate(args: &[String]) -> i32 {
    let Some(path) = args.first() else {
        eprintln!("usage: apa validate <file>");
        return 2;
    };
    let alg = match load_file(path) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("parse error: {e}");
            return 1;
        }
    };
    println!("loaded: {}", alg.summary());
    match brent::validate(&alg) {
        Ok(report) if report.exact => {
            println!("VALID (exact algorithm)");
            0
        }
        Ok(report) => {
            let sigma = report.sigma.unwrap_or(0);
            let phi = alg.phi();
            println!(
                "VALID (APA: sigma = {sigma}, phi = {phi}, predicted f32 error {:.1e}, optimal lambda 2^{:.1})",
                error_model::error_bound(sigma, phi, error_model::D_SINGLE, 1),
                error_model::optimal_lambda(sigma, phi, error_model::D_SINGLE, 1).log2()
            );
            0
        }
        Err(e) => {
            eprintln!("INVALID: {e}");
            1
        }
    }
}

fn cmd_convert(args: &[String]) -> i32 {
    let (Some(input), Some(output)) = (args.first(), args.get(1)) else {
        eprintln!("usage: apa convert <in> <out>");
        return 2;
    };
    let alg = match load_file(input) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("parse error: {e}");
            return 1;
        }
    };
    let serialized = if output.ends_with(".json") {
        io::to_json(&alg)
    } else {
        io::to_text(&alg)
    };
    if let Err(e) = std::fs::write(output, serialized) {
        eprintln!("write error: {e}");
        return 1;
    }
    println!("wrote {} ({})", output, alg.summary());
    0
}

fn cmd_derive(args: &[String]) -> i32 {
    let dims: Vec<usize> = args.iter().filter_map(|a| a.parse().ok()).collect();
    let [m, k, n] = dims[..] else {
        eprintln!("usage: apa derive <m> <k> <n>");
        return 2;
    };
    if m * k * n == 0 || m > 12 || k > 12 || n > 12 {
        eprintln!("dims must be in 1..=12");
        return 2;
    }
    let table = derive::DeriveTable::build(Dims::new(m.max(2), k.max(2), n.max(2)));
    let d = Dims::new(m, k, n);
    println!("{}", table.explain(d).expect("within bound"));
    let alg = table.materialize(d).expect("within bound");
    println!("{}", alg.summary());
    println!(
        "ideal speedup {:.1}% over classical rank {}",
        alg.ideal_speedup() * 100.0,
        d.classical_rank()
    );
    // Print the algorithm file so it can be piped to a file.
    println!("\n{}", io::to_text(&alg));
    0
}

fn cmd_schedule(args: &[String]) -> i32 {
    let nums: Vec<usize> = args.iter().filter_map(|a| a.parse().ok()).collect();
    let [rank, threads] = nums[..] else {
        eprintln!("usage: apa schedule <rank> <threads>");
        return 2;
    };
    let s = hybrid_schedule(rank, threads.max(1));
    println!(
        "hybrid schedule for r = {rank}, p = {threads}: q = {}, l = {}",
        s.q, s.l
    );
    print!("{}", s.render());
    0
}

fn alg_by_name_or_err(name: &str) -> Result<apa_core::BilinearAlgorithm, i32> {
    catalog::by_name(name).ok_or_else(|| {
        eprintln!(
            "unknown algorithm {name}; available: {}",
            catalog::names().join(", ")
        );
        2
    })
}

fn probe(n: usize, seed: u64) -> Mat<f32> {
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
    Mat::from_fn(n, n, |_, _| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (((state >> 32) as u32 as f64 / (1u64 << 31) as f64) - 1.0) as f32
    })
}

fn cmd_time(args: &[String]) -> i32 {
    let Some(name) = args.first() else {
        eprintln!("usage: apa time <name> <n> [threads]");
        return 2;
    };
    let n: usize = args.get(1).and_then(|a| a.parse().ok()).unwrap_or(2048);
    let threads: usize = args.get(2).and_then(|a| a.parse().ok()).unwrap_or(1);
    let alg = match alg_by_name_or_err(name) {
        Ok(a) => a,
        Err(c) => return c,
    };
    let a = probe(n, 1);
    let b = probe(n, 2);
    let mut c = Mat::<f32>::zeros(n, n);

    let classical = ApaMatmul::classical().threads(threads);
    classical.multiply_into(a.as_ref(), b.as_ref(), c.as_mut());
    let t0 = Instant::now();
    classical.multiply_into(a.as_ref(), b.as_ref(), c.as_mut());
    let t_classical = t0.elapsed().as_secs_f64();

    let mm = ApaMatmul::new(alg)
        .strategy(Strategy::Hybrid)
        .threads(threads);
    mm.multiply_into(a.as_ref(), b.as_ref(), c.as_mut());
    let t1 = Instant::now();
    mm.multiply_into(a.as_ref(), b.as_ref(), c.as_mut());
    let t_apa = t1.elapsed().as_secs_f64();

    println!(
        "n = {n}, threads = {threads}: classical {t_classical:.3}s, {name} {t_apa:.3}s ({:+.1}%)",
        (t_classical / t_apa - 1.0) * 100.0
    );
    0
}

fn cmd_error(args: &[String]) -> i32 {
    let Some(name) = args.first() else {
        eprintln!("usage: apa error <name> <n>");
        return 2;
    };
    let n: usize = args.get(1).and_then(|a| a.parse().ok()).unwrap_or(512);
    let alg = match alg_by_name_or_err(name) {
        Ok(a) => a,
        Err(c) => return c,
    };
    let tuned = tune_lambda(&alg, n.min(512), 1, 0xE44);
    println!("{}: tuned lambda grid:", alg.summary());
    for (lambda, err) in &tuned.grid {
        let marker = if *lambda == tuned.lambda {
            "  <-- selected"
        } else {
            ""
        };
        if *lambda == 0.0 {
            println!("  exact rule           error {err:.2e}{marker}");
        } else {
            println!("  lambda 2^{:>6.1}  error {err:.2e}{marker}", lambda.log2());
        }
    }
    0
}
