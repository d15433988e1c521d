//! Packed-scan throughput: sharded word-table codebook search vs the
//! per-item ternary popcount path, at D ∈ {1k, 8k, 32k}, after asserting
//! both paths answer bit-identically.
//!
//! Prints the human-readable table and writes the machine-readable
//! `BENCH_packed_scan.json` (schema in docs/SERVING.md) to the working
//! directory. Run with `--quick` for reduced repetitions per grid point.

fn main() {
    let quick = factorhd_bench::quick_flag();
    let compared = factorhd_bench::verify_packed_equivalence();
    println!("packed vs reference top-1/top-k: bit-identical across {compared} scans");
    let points = factorhd_bench::packed_scan_points(quick);
    factorhd_bench::packed_scan_table(&points).print();
    let json = factorhd_bench::packed_scan_json(&points, quick);
    let path = "BENCH_packed_scan.json";
    std::fs::write(path, json + "\n").expect("write BENCH_packed_scan.json");
    println!("\nwrote {path}");
}
