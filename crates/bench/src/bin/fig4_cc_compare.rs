//! FIG4a–d: FactorHD vs C-C factorizers (resonator network, IMC stochastic
//! factorizer) — accuracy and factorization time vs problem size `M^F`.
//!
//! Protocol (§IV-A): `D = 1500` for `F = 3`, `D = 2000` for `F = 4`;
//! FactorHD stores 2 bits per dimension, so its `D` is halved to equalize
//! storage. Run with `--quick` for a fast smoke pass.
//!
//! Expected shape (paper): FactorHD stays ≥99% with near-flat time; the
//! resonator collapses first (≈10⁶), the IMC factorizer later; both grow
//! steeply in time, so FactorHD's speedup grows with problem size.

use factorhd_bench::{quick_flag, run_factorhd_rep1, run_imc, run_resonator, Table};

fn main() {
    let quick = quick_flag();
    let fhd_trials = if quick { 32 } else { 256 };
    let iter_trials = if quick { 8 } else { 24 };

    for (f, d, ms) in [
        (3usize, 1500usize, vec![8usize, 16, 32, 64, 128, 256]),
        (4, 2000, vec![8, 16, 32, 64]),
    ] {
        let mut table = Table::new(
            &format!("Fig. 4 (F = {f}): accuracy and time vs problem size M^{f}"),
            &[
                "M",
                "size",
                "FHD acc",
                "FHD us",
                "Res acc",
                "Res ms",
                "Res iters",
                "IMC acc",
                "IMC ms",
                "IMC iters",
            ],
        );
        for &m in &ms {
            let fhd = run_factorhd_rep1(f, m, d / 2, fhd_trials, 41);
            let res_iters = 300;
            let imc_iters = if m >= 128 { 6000 } else { 3000 };
            let res = run_resonator(f, m, d, iter_trials, res_iters, 42);
            let imc = run_imc(f, m, d, iter_trials, imc_iters, 43);
            table.row(&[
                m.to_string(),
                format!("{:.1e}", (m as f64).powi(f as i32)),
                format!("{:.3}", fhd.accuracy),
                format!("{:.1}", fhd.avg_time.as_secs_f64() * 1e6),
                format!("{:.3}", res.accuracy),
                format!("{:.2}", res.avg_time.as_secs_f64() * 1e3),
                format!("{:.0}", res.avg_ops),
                format!("{:.3}", imc.accuracy),
                format!("{:.2}", imc.avg_time.as_secs_f64() * 1e3),
                format!("{:.0}", imc.avg_ops),
            ]);
        }
        table.print();
        println!();
    }
    println!(
        "shape check: FactorHD accuracy flat/high, time ~flat; resonator \
         accuracy collapses first, IMC later; baseline time grows with M."
    );
}
