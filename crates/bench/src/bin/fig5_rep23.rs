//! FIG5a–b: FactorHD factorization accuracy on Rep 2 and Rep 3 vs
//! hypervector dimension.
//!
//! Protocol (§IV-A): "one or two objects, each with two subclass levels.
//! The top-level classes consist of 256 subclasses, each having 10
//! sub-subclasses" — i.e. per class `M₁ = 256`, `M₂ = 10`, `F = 3`.
//!
//! Expected shape (paper): Rep-2 accuracy reaches ~100% around
//! `D = 1000–1500`; Rep 3 (object count unknown) needs noticeably higher
//! dimensions for the same accuracy.

use factorhd_bench::{quick_flag, run_factorhd_rep23, Rep23Setting, Table};

fn main() {
    let trials = if quick_flag() { 24 } else { 128 };

    let mut rep2 = Table::new(
        "Fig. 5(a): Rep 2 (1 object, 2 subclass levels, 256×10 items)",
        &["D", "accuracy", "us/fact", "sim checks"],
    );
    for d in [400usize, 600, 800, 1000, 1200, 1500, 2000] {
        let r = run_factorhd_rep23(Rep23Setting::rep2(), d, trials, 61);
        rep2.row(&[
            d.to_string(),
            format!("{:.3}", r.accuracy),
            format!("{:.1}", r.avg_time.as_secs_f64() * 1e6),
            format!("{:.0}", r.avg_ops),
        ]);
    }
    rep2.print();
    println!();

    let mut rep3 = Table::new(
        "Fig. 5(b): Rep 3 (2 objects, unknown count, 2 subclass levels)",
        &["D", "accuracy", "us/fact", "sim checks"],
    );
    for d in [1000usize, 1500, 2000, 2500, 3000, 4000] {
        let r = run_factorhd_rep23(Rep23Setting::rep3(), d, trials, 62);
        rep3.row(&[
            d.to_string(),
            format!("{:.3}", r.accuracy),
            format!("{:.1}", r.avg_time.as_secs_f64() * 1e6),
            format!("{:.0}", r.avg_ops),
        ]);
    }
    rep3.print();
    println!();
    println!(
        "shape check: both curves rise with D; Rep 3 is shifted right of \
         Rep 2 (no prior knowledge of the object count costs dimensions)."
    );
}
