//! `perfbench` — the FactorHD end-to-end benchmark.
//!
//! ```text
//! perfbench --workload <wire-single-open|rep3-multi-closed|learn-rw-closed|all>
//!           --seed <u64> [--seconds <n>] [--trace <0|1>]
//! ```
//!
//! An untraced run (`--trace 0`) measures one workload and prints its
//! end-to-end metrics; a traced run (`--trace 1`) pins the pool to one
//! lane, records spans around the benchmark's calls into each layer and
//! prints the per-layer metrics. The last line of standard output is the
//! JSON result (see `report`); the lines before it are for people. See
//! README.md in this directory.

mod cli;
mod closed;
mod inputs;
mod learn;
mod model;
mod probe;
mod rep3;
mod report;
mod schedule;
mod stats;
mod trace;
mod wire;

use cli::{Args, CliError, Selection, Workload};
use report::{Metrics, END_TO_END, PER_LAYER};
use std::path::PathBuf;
use std::process::{Command, ExitCode};

fn main() -> ExitCode {
    let args = match cli::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(CliError::Help) => {
            println!("{}", cli::USAGE);
            return ExitCode::SUCCESS;
        }
        Err(CliError::Invalid(message)) => {
            eprintln!("perfbench: {message}\n{}", cli::USAGE);
            return ExitCode::from(2);
        }
    };
    let outcome = match args.selection {
        Selection::All => run_all(&args),
        Selection::One(workload) if args.trace => traced(workload, &args),
        Selection::One(workload) => untraced(workload, &args),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("perfbench: {message}");
            ExitCode::FAILURE
        }
    }
}

/// Runs every workload, each in a child process of its own (so peak RSS
/// and process-global telemetry stay per workload), waiting for each.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate myself: {e}"))?;
    let mut all_ok = true;
    for workload in Workload::ALL {
        let status = Command::new(&exe)
            .args(["--workload", workload.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status()
            .map_err(|e| format!("cannot run {}: {e}", workload.name()))?;
        all_ok &= status.success();
    }
    Ok(all_ok)
}

fn untraced(workload: Workload, args: &Args) -> Result<bool, String> {
    println!(
        "# env {}",
        report::environment(workload.name(), args.seed, false)
    );
    let seconds = args.seconds as f64;
    let (pass, setup_s) = match workload {
        Workload::WireSingleOpen => wire::run(args.seed, seconds)?,
        Workload::Rep3MultiClosed => rep3::run(args.seed, seconds)?,
        Workload::LearnRwClosed => learn::run(args.seed, seconds)?,
    };
    let mut metrics = Metrics::new();
    metrics.set("ops_per_s", pass.ops_per_s());
    metrics.set("latency_p50_ms", pass.latency_ms(0.5)?);
    metrics.set("latency_p99_ms", pass.latency_ms(0.99)?);
    metrics.set("accuracy", pass.accuracy());
    metrics.set("setup_s", setup_s);
    metrics.set("peak_rss_mb", report::peak_rss_mb()?);

    let correct = pass.wrong.is_empty();
    print!("{}", metrics.table(END_TO_END));
    println!(
        "  {:<36} {:>14.6} ratio ({} of {} ops failed, refused, expired or wrong-kind)",
        "error_ratio",
        pass.failed as f64 / pass.attempted.max(1) as f64,
        pass.failed,
        pass.attempted
    );
    let mut lags = pass.gen_ms.clone();
    stats::sort(&mut lags);
    println!(
        "  # {} latency samples; accuracy over {} checked outputs; generator lag p99 {:.4} ms; \
{} outputs differ from the reference",
        pass.latencies_ms.len(),
        pass.acc_checked,
        stats::percentile(&lags, 0.99).unwrap_or(f64::NAN),
        pass.wrong.len()
    );
    println!(
        "  # over every window, quiet or not: {:.4} ops/s, p50 {:.4} ms, p99 {:.4} ms; \
host steal {} ticks over {} windows",
        pass.all_ops_per_s(),
        pass.all_latency_ms(0.5).unwrap_or(f64::NAN),
        pass.all_latency_ms(0.99).unwrap_or(f64::NAN),
        pass.window_steal.iter().sum::<u64>(),
        pass.window_steal.len()
    );
    println!(
        "{}",
        report::result_line(correct, pass.attempted, pass.failed, &metrics, END_TO_END)
    );
    Ok(correct)
}

fn traced(workload: Workload, args: &Args) -> Result<bool, String> {
    rayon::configure_pool(1);
    println!(
        "# env {}",
        report::environment(workload.name(), args.seed, true)
    );
    let seconds = args.seconds as f64;
    let mut metrics = Metrics::new();
    let (pass, tracer, shares) = match workload {
        Workload::WireSingleOpen => wire::traced(args.seed, seconds, &mut metrics)?,
        Workload::Rep3MultiClosed => rep3::traced(args.seed, seconds, &mut metrics)?,
        Workload::LearnRwClosed => learn::traced(args.seed, seconds, &mut metrics)?,
    };
    let missing = metrics.missing(PER_LAYER);
    if !missing.is_empty() {
        return Err(format!("per-layer metrics not measured: {missing:?}"));
    }
    let spans = PathBuf::from(".bench_out").join(format!(
        "{}-seed{}-spans.jsonl",
        workload.name(),
        args.seed
    ));
    tracer
        .write(&spans)
        .map_err(|e| format!("cannot write {}: {e}", spans.display()))?;

    let correct = pass.wrong.is_empty();
    print!("{}", metrics.table(PER_LAYER));
    print!("{}", shares.table());
    println!("  # spans written to {}", spans.display());
    println!(
        "{}",
        report::result_line(correct, pass.attempted, pass.failed, &metrics, PER_LAYER)
    );
    Ok(correct)
}
