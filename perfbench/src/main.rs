//! qof's benchmark: the latency a caller of qof sees on three workloads,
//! with layer timings taken from outside the program.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <exact-lookup|partial-residual|serve> \
//!     --seed <n> --seconds <s> --trace <0|1> [--small]
//! ```
//!
//! Run from the repository root. The seed fixes the generated BibTeX corpus
//! and the query sequence; the program under test receives only the
//! generated texts and queries, and runs with the settings `qof query` and
//! `qof serve` use when given no flags. Every answer is checked against the
//! generator's ground truth.
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` prints the
//! per-layer metrics, each measured by timing calls into the public API
//! (`parse_query`, `FileDatabase::plan`, `Engine::new`, …) as spans, and
//! writes those spans to `.perfbench/spans-<workload>-seed<n>.json`. The
//! last line of output is always one JSON object: `correct`, `attempted`,
//! `failed` and `metrics` (name → value and unit). `--small` shrinks the
//! corpus and the repetition counts for the self-test, which
//! `cargo test --release --manifest-path perfbench/Cargo.toml` runs.

mod measure;
mod mix;
mod serve;
mod session;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use measure::Report;
use workloads::{run, Ctx, Scale, Workload};

fn parse_args() -> Result<Ctx, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut small) =
        (None, None, None, None, false);
    while let Some(flag) = args.next() {
        if flag == "--small" {
            small = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| format!("unknown workload `{value}`"))?,
                );
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or("--seconds: want a positive number")?,
                );
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace: want 0 or 1".into()),
                });
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    let out = PathBuf::from(".perfbench");
    Ok(Ctx {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        scale: if small { Scale::SMALL } else { Scale::FULL },
        work: out.join(format!("work-{}", std::process::id())),
        out,
    })
}

fn main() -> ExitCode {
    let ctx = match parse_args() {
        Ok(ctx) => ctx,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&ctx.work) {
        eprintln!("perfbench: cannot create {}: {e}", ctx.work.display());
        return ExitCode::FAILURE;
    }
    let mut report = Report::default();
    let outcome = run(&ctx, &mut report);
    // Best effort: a leftover scratch directory is harmless.
    let _ = std::fs::remove_dir_all(&ctx.work);
    if let Err(e) = outcome {
        eprintln!("perfbench: {e}");
        return ExitCode::FAILURE;
    }
    if let Some(name) = report.non_finite() {
        eprintln!("perfbench: metric {name} is not a finite number");
        return ExitCode::FAILURE;
    }
    report.print();
    if report.wrong.is_empty() && report.attempted > 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
