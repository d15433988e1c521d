//! SPEED: the paper's headline speedups — FactorHD vs the best C-C
//! factorizer at problem sizes 10⁶ and 10⁹ (§IV-B: "a minimum speedup of
//! 18.5× at 10⁶ problem size and reaching 5667× at 10⁹").
//!
//! Absolute times differ from the paper's GPU testbed (DESIGN.md,
//! substitution table); the claim under test is that the ratio *grows by
//! orders of magnitude* with problem size because FactorHD's cost is
//! `O(N_M)` while the iterative factorizers scale super-linearly.

use factorhd_bench::{quick_flag, run_factorhd_rep1, run_imc, run_resonator, Table};

fn main() {
    let quick = quick_flag();
    let mut table = Table::new(
        "Headline speedup: FactorHD vs C-C factorizers (F = 3, D = 1500; FactorHD D = 750)",
        &[
            "size",
            "M",
            "FHD us",
            "FHD acc",
            "IMC ms",
            "IMC acc",
            "Res ms",
            "Res acc",
            "speedup vs IMC",
            "speedup vs Res",
        ],
    );

    let settings: Vec<(usize, usize, usize, usize)> = if quick {
        // (m, fhd_trials, iter_trials, imc_iters)
        vec![(100, 32, 4, 1500), (1000, 8, 2, 1500)]
    } else {
        vec![(100, 128, 12, 3000), (1000, 32, 4, 4000)]
    };

    for (m, fhd_trials, iter_trials, imc_iters) in settings {
        let fhd = run_factorhd_rep1(3, m, 750, fhd_trials, 101);
        let imc = run_imc(3, m, 1500, iter_trials, imc_iters, 102);
        let res = run_resonator(3, m, 1500, iter_trials, 200, 103);
        let speed_imc = imc.avg_time.as_secs_f64() / fhd.avg_time.as_secs_f64();
        let speed_res = res.avg_time.as_secs_f64() / fhd.avg_time.as_secs_f64();
        table.row(&[
            format!("1e{}", (3.0 * (m as f64).log10()).round() as i32),
            m.to_string(),
            format!("{:.1}", fhd.avg_time.as_secs_f64() * 1e6),
            format!("{:.3}", fhd.accuracy),
            format!("{:.2}", imc.avg_time.as_secs_f64() * 1e3),
            format!("{:.3}", imc.accuracy),
            format!("{:.2}", res.avg_time.as_secs_f64() * 1e3),
            format!("{:.3}", res.accuracy),
            format!("{speed_imc:.0}x"),
            format!("{speed_res:.0}x"),
        ]);
    }
    table.print();
    println!();
    println!(
        "paper reference: 18.5x at 1e6, 5667x at 1e9 (GPU testbed). \
         shape check: the speedup ratio grows by orders of magnitude from \
         1e6 to 1e9 while FactorHD stays >99% accurate."
    );
}
