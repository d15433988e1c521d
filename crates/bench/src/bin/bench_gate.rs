//! The SLO regression gate: diffs the current `BENCH_engine.json`,
//! `BENCH_packed_scan.json`, `BENCH_kernels.json`, `BENCH_serving.json`,
//! and `BENCH_learn.json` against the committed `baselines/*.json` and
//! exits non-zero when any check fails. What each document is checked
//! for is one table, described in docs/OBSERVABILITY.md, "The SLO gate".
//! Run it after the bench bins regenerate the current documents:
//!
//! ```text
//! cargo run --release --bin engine_throughput -- --quick
//! cargo run --release --bin packed_scan -- --quick
//! cargo run --release --bin kernel_bench -- --quick
//! cargo run --release --bin serving_bench -- --quick
//! cargo run --release --bin learn_bench -- --quick
//! cargo run --release --bin bench_gate
//! ```
//!
//! Flags:
//!
//! * `--baseline-dir <dir>` — where the committed baselines live
//!   (default `baselines`).
//! * `--current-dir <dir>` — where the freshly generated documents live
//!   (default `.`, the working directory the bench bins write to).

use factorhd_bench::gate::{gate_texts, GATE_MARGIN};
use std::path::Path;
use std::process::ExitCode;

const GATED_FILES: [&str; 5] = [
    "BENCH_engine.json",
    "BENCH_packed_scan.json",
    "BENCH_kernels.json",
    "BENCH_serving.json",
    "BENCH_learn.json",
];

struct Args {
    baseline_dir: String,
    current_dir: String,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        baseline_dir: "baselines".to_owned(),
        current_dir: ".".to_owned(),
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = |flag: &str| argv.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--baseline-dir" => args.baseline_dir = value("--baseline-dir")?,
            "--current-dir" => args.current_dir = value("--current-dir")?,
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("bench_gate: {message}");
            return ExitCode::FAILURE;
        }
    };
    let mut failed = false;
    for file in GATED_FILES {
        let baseline_path = Path::new(&args.baseline_dir).join(file);
        let current_path = Path::new(&args.current_dir).join(file);
        let baseline = match std::fs::read_to_string(&baseline_path) {
            Ok(text) => text,
            Err(e) => {
                eprintln!("FAIL {file}: baseline {}: {e}", baseline_path.display());
                failed = true;
                continue;
            }
        };
        let current = match std::fs::read_to_string(&current_path) {
            Ok(text) => text,
            Err(e) => {
                eprintln!("FAIL {file}: current {}: {e}", current_path.display());
                failed = true;
                continue;
            }
        };
        let outcome = gate_texts(&current, &baseline);
        let verdict = if outcome.passed() { "ok" } else { "FAIL" };
        println!(
            "{verdict} {file} ({}): {} checks, {} failures",
            outcome.bench,
            outcome.checks,
            outcome.failures.len()
        );
        for note in &outcome.notes {
            println!("  note: {note}");
        }
        for failure in &outcome.failures {
            eprintln!("  {failure}");
        }
        failed |= !outcome.passed();
    }
    if failed {
        eprintln!("bench_gate: regression gate FAILED (margin {GATE_MARGIN})");
        ExitCode::FAILURE
    } else {
        println!("bench_gate: all gates passed (margin {GATE_MARGIN})");
        ExitCode::SUCCESS
    }
}
