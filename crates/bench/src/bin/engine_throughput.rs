//! Serving-engine throughput: the threads × batch scaling grid — warm
//! batched requests/sec at pool sizes 1/2/4/all and batch sizes
//! 1/8/64/512 against the naive rebuild-per-request baseline — plus the
//! artifact round-trip bit-identity check and the engine telemetry
//! snapshot with its measured overhead.
//!
//! Prints the human-readable table and writes the machine-readable
//! `BENCH_engine.json` (schema v3, documented in docs/SERVING.md and
//! docs/OBSERVABILITY.md) to the working directory. Regression gating
//! lives in the `bench_gate` bin, which diffs this document against the
//! committed `baselines/BENCH_engine.json`. Flags:
//!
//! * `--quick` — three repetitions per grid point instead of five.

fn main() {
    let quick = factorhd_bench::quick_flag();
    let compared = factorhd_bench::verify_artifact_round_trip();
    println!("artifact save→load→factorize: bit-identical across {compared} responses");
    let points = factorhd_bench::engine_throughput_points(quick);
    factorhd_bench::engine_throughput_table(&points).print();
    let report = factorhd_bench::collect_metrics_report(quick);
    println!(
        "\nmetrics overhead on warm batch-64: {:.0}/s recording vs {:.0}/s off ({:+.2}%)",
        report.warm_on_per_sec,
        report.warm_off_per_sec,
        100.0 * report.overhead_fraction()
    );
    let json = factorhd_bench::engine_throughput_json(&points, quick, &report);
    let path = "BENCH_engine.json";
    std::fs::write(path, json + "\n").expect("write BENCH_engine.json");
    println!("wrote {path}");
}
