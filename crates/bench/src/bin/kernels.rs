//! `kernels` — frontier-kernel benchmark + atomic microbench.
//!
//! ```text
//! kernels [OPTIONS]
//!
//! OPTIONS:
//!   --quick        CI sizes (scale 10, 3 trials)
//!   --scale N      dense Kronecker scale        (default 12)
//!   --workers N    worker pool size             (default 4)
//!   --seed N       RNG seed                     (default 42)
//!   --trials N     timed repetitions per config (default 5)
//!   --out FILE     JSON output path             (default BENCH_4.json)
//!   --simd LEVEL   pin the bitset-kernel dispatch level
//!                  (auto|scalar|avx2|avx512; default auto — the
//!                  strongest the CPU supports, clamped if unavailable)
//! ```

use std::process::ExitCode;

use pbfs_bench::kernels::{
    atomics_report, bench4_json, kernels_report, run_atomics, run_kernels, KernelConfig,
};

fn usage() -> ExitCode {
    eprintln!(
        "usage: kernels [--quick] [--scale N] [--workers N] [--seed N] \
         [--trials N] [--out FILE] [--simd LEVEL]"
    );
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let mut cfg = KernelConfig::default();
    let mut out = String::from("BENCH_4.json");

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut take = |name: &str| -> Option<String> {
            let v = args.next();
            if v.is_none() {
                eprintln!("missing value for {name}");
            }
            v
        };
        match arg.as_str() {
            "--quick" => cfg = cfg.quick(),
            "--scale" => match take("--scale").and_then(|v| v.parse().ok()) {
                Some(v) => cfg.scale = v,
                None => return usage(),
            },
            "--workers" => match take("--workers").and_then(|v| v.parse().ok()) {
                Some(v) => cfg.workers = v,
                None => return usage(),
            },
            "--seed" => match take("--seed").and_then(|v| v.parse().ok()) {
                Some(v) => cfg.seed = v,
                None => return usage(),
            },
            "--trials" => match take("--trials").and_then(|v| v.parse().ok()) {
                Some(v) => cfg.trials = v,
                None => return usage(),
            },
            "--out" => match take("--out") {
                Some(v) => out = v,
                None => return usage(),
            },
            "--simd" => match take("--simd") {
                Some(v) if v == "auto" => {
                    pbfs_bitset::simd::set_level(None);
                }
                Some(v) => match pbfs_bitset::SimdLevel::parse(&v) {
                    Some(wanted) => {
                        let effective = pbfs_bitset::simd::set_level(Some(wanted));
                        if effective != wanted {
                            eprintln!(
                                "warning: --simd {} not supported by this CPU; clamped to {}",
                                wanted.name(),
                                effective.name()
                            );
                        }
                    }
                    None => {
                        eprintln!("invalid value for --simd: {v}");
                        return usage();
                    }
                },
                None => return usage(),
            },
            "--help" | "-h" => {
                usage();
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown option {other}");
                return usage();
            }
        }
    }
    if cfg.trials == 0 {
        eprintln!("--trials must be positive");
        return ExitCode::FAILURE;
    }

    let kernels = run_kernels(&cfg);
    let atomics = run_atomics(&cfg);
    print!("{}", kernels_report(&cfg, &kernels).render());
    println!();
    print!("{}", atomics_report(&atomics).render());

    let doc = bench4_json(&cfg, &kernels, &atomics);
    if let Err(e) = std::fs::write(&out, doc.to_string_pretty()) {
        eprintln!("failed to write {out}: {e}");
        return ExitCode::FAILURE;
    }
    println!("\nwrote {out}");
    ExitCode::SUCCESS
}
