//! Scan-kernel throughput sweep: `hamming_words` / `masked_hamming_words`
//! across every kernel the running CPU can dispatch (scalar reference,
//! Harley–Seal ladder, POPCNT, AVX2, AVX-512), at word counts
//! {64, 512, 4096, 65536}, after asserting every kernel bit-identical to
//! the scalar oracle.
//!
//! Prints the detected CPU features, the auto-selected kernel, the
//! human-readable table, and writes the machine-readable
//! `BENCH_kernels.json` (schema in docs/SERVING.md) to the working
//! directory. Run with `--quick` for reduced repetitions per grid point.

fn main() {
    let quick = factorhd_bench::quick_flag();
    println!("cpu features: {}", hdc::kernels::cpu_features());
    println!(
        "selected kernel: {} (override with FACTORHD_KERNEL)",
        hdc::kernels::selected_kernel().name()
    );
    let compared = factorhd_bench::verify_kernel_equivalence();
    println!("kernels vs scalar oracle: bit-identical across {compared} (kernel, size) pairs\n");
    let points = factorhd_bench::kernel_points(quick);
    factorhd_bench::kernel_bench_table(&points).print();
    let json = factorhd_bench::kernel_bench_json(&points, quick);
    let path = "BENCH_kernels.json";
    std::fs::write(path, json + "\n").expect("write BENCH_kernels.json");
    println!("\nwrote {path}");
}
