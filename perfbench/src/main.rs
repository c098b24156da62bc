//! `perfbench`: the repository benchmark.
//!
//! One command runs one seeded workload, checks every answer, and prints
//! its metrics by name and unit; the last line of standard output is the
//! JSON result.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <cg-jacobi|serve-mix> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it reports the end-to-end metrics; with `--trace 1` a
//! separate traced run reports the per-layer ledger (see `report.rs` for
//! both tables).  It exits non-zero when any answer fails verification or
//! any consistency check breaks.

#![forbid(unsafe_code)]

mod cg;
mod host;
mod ledger;
mod report;
mod serve;

use std::process::ExitCode;

const USAGE: &str =
    "usage: perfbench --workload <cg-jacobi|serve-mix> --seed <n> --seconds <s> --trace <0|1>";

#[derive(Debug, Clone, Copy)]
enum Workload {
    CgJacobi,
    ServeMix,
}

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("`{flag}` needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(match value.as_str() {
                    "cg-jacobi" => Workload::CgJacobi,
                    "serve-mix" => Workload::ServeMix,
                    other => return Err(format!("unknown workload `{other}`")),
                });
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not `{other}`")),
                });
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Args {
        workload,
        seed,
        seconds,
        trace,
    } = args;
    let outcome = match (workload, trace) {
        (Workload::CgJacobi, false) => cg::run(seed, seconds),
        (Workload::CgJacobi, true) => cg::run_traced(seed, seconds),
        (Workload::ServeMix, false) => serve::run(seed, seconds),
        (Workload::ServeMix, true) => serve::run_traced(seed, seconds),
    };
    outcome.print(trace);
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
