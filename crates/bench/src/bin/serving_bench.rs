//! Loopback serving throughput: the clients × pipeline grid of the
//! network front end against the warm batch-64 direct-engine reference,
//! with server-side end-to-end latency percentiles per point.
//!
//! Prints the human-readable table and writes the machine-readable
//! `BENCH_serving.json` (schema v2, documented in docs/SERVING.md and
//! docs/ROBUSTNESS.md — v2 adds shed counters and the overload point)
//! to the working directory. Regression gating lives in the
//! `bench_gate` bin, which diffs this document against the committed
//! `baselines/BENCH_serving.json` and additionally holds the top-line
//! `serving_fraction` above the serving floor and the overload point's
//! admitted throughput above the overload floor. Flags:
//!
//! * `--quick` — two repetitions and a quarter of the per-point op
//!   target instead of four repetitions.

fn main() {
    let quick = factorhd_bench::quick_flag();
    let report = factorhd_bench::serving_points(quick);
    factorhd_bench::serving_table(&report).print();
    println!();
    factorhd_bench::overload_table(&report).print();
    println!(
        "\nserving fraction at >=8 clients: {:.2} of direct warm batch-64 ({:.0} req/s)",
        report.serving_fraction, report.direct_warm64_per_sec
    );
    let json = factorhd_bench::serving_json(&report, quick);
    let path = "BENCH_serving.json";
    std::fs::write(path, json + "\n").expect("write BENCH_serving.json");
    println!("wrote {path}");
}
