//! Online-learning benchmark: prototype training throughput and
//! single-query classification latency over a dimension grid, plus the
//! CIFAR accuracy-vs-epochs retraining curve.
//!
//! Prints the human-readable table and writes the machine-readable
//! `BENCH_learn.json` (schema v1, documented in docs/LEARNING.md) to
//! the working directory. Regression gating lives in the `bench_gate`
//! bin, which diffs this document against the committed
//! `baselines/BENCH_learn.json` and additionally holds the final CIFAR
//! accuracy near its baseline. Flags:
//!
//! * `--quick` — two repetitions and smaller train/query sets instead
//!   of four repetitions.

fn main() {
    let quick = factorhd_bench::quick_flag();
    let report = factorhd_bench::learn_points(quick);
    factorhd_bench::learn_table(&report).print();
    println!("\nCIFAR retraining curve (held-out accuracy by epoch):");
    for point in &report.accuracy_curve {
        println!(
            "  epoch {}: {} training errors, accuracy {:.3}",
            point.epoch, point.train_errors, point.accuracy
        );
    }
    let json = factorhd_bench::learn_json(&report, quick);
    let path = "BENCH_learn.json";
    std::fs::write(path, json + "\n").expect("write BENCH_learn.json");
    println!("wrote {path}");
}
