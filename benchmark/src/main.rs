//! `neon-benchmark`: the repository's benchmark (see README.md).
//!
//! ```text
//! neon-benchmark run [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//! neon-benchmark manifest
//! neon-benchmark compare A.json B.json
//! neon-benchmark spread --runs N [--seed N] [--seconds S] [--workload NAME] [--smoke]
//! ```

// Numeric kernels index several arrays by one loop variable (lattice
// directions); iterator rewrites would obscure the math.
#![allow(clippy::needless_range_loop)]

mod alloc;
mod compare;
mod harness;
mod json;
mod manifest;
mod plain;
mod rng;
mod run;
mod stats;
mod tracer;
mod workloads;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

const USAGE: &str = "usage:
  neon-benchmark run [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--smoke]
  neon-benchmark manifest
  neon-benchmark compare A.json B.json
  neon-benchmark spread --runs N [--seed N] [--seconds S] [--workload NAME] [--smoke]";

/// Flags of `run` and `spread`, checked where they enter.
#[derive(Default)]
struct Flags {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: Option<bool>,
    runs: Option<usize>,
    smoke: bool,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut flags = Flags::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--smoke" => flags.smoke = true,
            "--workload" => {
                let name = value()?;
                if !manifest::is_workload(name) {
                    return Err(format!("unknown workload {name:?}"));
                }
                flags.workload = Some(name.clone());
            }
            "--seed" => {
                flags.seed = Some(
                    value()?
                        .parse()
                        .map_err(|_| "--seed takes a whole number")?,
                );
            }
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
                flags.seconds = Some(s);
            }
            "--trace" => {
                flags.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                });
            }
            "--runs" => {
                let n: usize = value()?
                    .parse()
                    .map_err(|_| "--runs takes a whole number")?;
                if !(2..=100).contains(&n) {
                    return Err("--runs must be between 2 and 100".to_string());
                }
                flags.runs = Some(n);
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(flags)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => match parse_flags(rest) {
            Ok(f) if f.runs.is_none() => run::run(&run::RunArgs {
                workload: f.workload,
                seed: f.seed.unwrap_or(1),
                seconds: f.seconds,
                trace: f.trace,
                smoke: f.smoke,
            }),
            Ok(_) => usage_error("--runs belongs to spread"),
            Err(e) => usage_error(&e),
        },
        Some((cmd, [])) if cmd == "manifest" => {
            print!("{}", manifest::benchmark_json().pretty());
            0
        }
        Some((cmd, [a, b])) if cmd == "compare" => compare::compare_cmd(a, b),
        Some((cmd, rest)) if cmd == "spread" => match parse_flags(rest) {
            Ok(f) if f.trace.is_none() => match f.runs {
                Some(runs) => compare::spread_cmd(
                    runs,
                    f.seed.unwrap_or(1),
                    f.seconds.unwrap_or(if f.smoke {
                        0.5
                    } else {
                        manifest::RUN_SECONDS as f64
                    }),
                    f.workload.as_deref(),
                    f.smoke,
                ),
                None => usage_error("spread needs --runs N"),
            },
            Ok(_) => usage_error("--trace belongs to run"),
            Err(e) => usage_error(&e),
        },
        _ => usage_error("expected run, manifest, compare or spread"),
    };
    std::process::exit(code);
}

fn usage_error(why: &str) -> i32 {
    eprintln!("error: {why}\n{USAGE}");
    2
}
