//! The repo's performance ledger. See `benchmark/README.md`.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     run [--workload W] [--seed S] [--reps 3] [--seconds N] [--trace [0|1]] [--smoke] [--out DIR]
//! cargo run --release --manifest-path benchmark/Cargo.toml -- compare A.json B.json
//! ```

mod compare;
mod json;
mod ladder;
mod metrics;
mod micro;
mod pass;
mod run;
mod stacks;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;

const USAGE: &str = "usage:
  cij-benchmark run [--workload W] [--seed S] [--reps 3] [--seconds N] [--trace [0|1]] [--smoke] [--out DIR]
  cij-benchmark compare A.json B.json
workloads: uniform10k skew_shard burst_ingest skew_dist (default: all, one child process each)";

fn fail(message: &str) -> ! {
    eprintln!("{message}\n{USAGE}");
    std::process::exit(2);
}

fn parse_run(args: &[String]) -> run::RunOptions {
    let mut opts = run::RunOptions {
        workload: None,
        seed: 1,
        seconds: None,
        reps: 3,
        trace: false,
        smoke: false,
        out: PathBuf::from("benchmark/out"),
    };
    let mut i = 0;
    let value = |i: &mut usize, flag: &str| -> String {
        *i += 1;
        args.get(*i)
            .cloned()
            .unwrap_or_else(|| fail(&format!("{flag} needs a value")))
    };
    fn number<T: std::str::FromStr>(flag: &str, v: &str) -> T {
        v.parse()
            .unwrap_or_else(|_| fail(&format!("{flag}: cannot parse {v:?}")))
    }
    while i < args.len() {
        match args[i].as_str() {
            "--workload" => opts.workload = Some(value(&mut i, "--workload")),
            "--seed" => opts.seed = number("--seed", &value(&mut i, "--seed")),
            "--reps" => opts.reps = number("--reps", &value(&mut i, "--reps")),
            "--seconds" => {
                let s: f64 = number("--seconds", &value(&mut i, "--seconds"));
                if !(s.is_finite() && s > 0.0) {
                    fail("--seconds must be positive");
                }
                opts.seconds = Some(s);
            }
            "--out" => opts.out = PathBuf::from(value(&mut i, "--out")),
            "--smoke" => opts.smoke = true,
            // A bare flag, or the driver's `--trace 0|1`.
            "--trace" => match args.get(i + 1).map(String::as_str) {
                Some("0") => {
                    opts.trace = false;
                    i += 1;
                }
                Some("1") => {
                    opts.trace = true;
                    i += 1;
                }
                _ => opts.trace = true,
            },
            other => fail(&format!("unknown flag {other:?}")),
        }
        i += 1;
    }
    if opts.smoke {
        opts.reps = 1;
    }
    if opts.reps == 0 {
        fail("--reps must be at least 1");
    }
    opts
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("run") => run::run(&parse_run(&args[1..])),
        Some("compare") => match &args[1..] {
            [a, b] => compare::compare(a, b),
            _ => fail("compare takes two result files"),
        },
        _ => fail("expected a subcommand"),
    };
    std::process::exit(code);
}
