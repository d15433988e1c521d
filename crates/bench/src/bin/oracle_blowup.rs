//! ORACLE: the `M^F` combination blow-up of class–class factorization
//! (§II-B) made concrete — similarity measurements spent by the exhaustive
//! oracle versus the resonator network versus FactorHD's `O(N_M)` scan on
//! the same problem family.
//!
//! The oracle row grows as `M^F`; FactorHD's grows as `F x (M + 1)`. That
//! gap is the paper's complexity argument in one table.

use factorhd_baselines::{oracle, FactorizationProblem, Resonator, ResonatorConfig};
use factorhd_bench::{quick_flag, run_factorhd_rep1, Table};
use std::time::Instant;

fn main() {
    let quick = quick_flag();
    let trials = if quick { 8 } else { 32 };
    let f = 3usize;
    let d = 1024usize;
    let sizes: &[usize] = if quick { &[4, 8, 12] } else { &[4, 8, 16, 24] };

    let mut table = Table::new(
        "Combination blow-up (F = 3, D = 1024): similarity measurements per solve",
        &[
            "M",
            "oracle M^F",
            "oracle ms",
            "resonator iters",
            "FHD checks",
            "FHD acc",
        ],
    );

    for &m in sizes {
        let space = m.pow(f as u32);

        // Oracle: measure one mid-seed instance (cost is input-independent).
        let problem = FactorizationProblem::derive(301, f, m, d);
        let start = Instant::now();
        let outcome = oracle::exhaustive_solve(&problem, space);
        let oracle_ms = start.elapsed().as_secs_f64() * 1e3;
        assert!(outcome.is_correct(&problem), "oracle must be exact");

        // Resonator: mean iterations to convergence over the trial set.
        let solver = Resonator::new(ResonatorConfig::default());
        let mut iter_total = 0usize;
        for t in 0..trials {
            let p = FactorizationProblem::derive(400 + t as u64, f, m, d);
            iter_total += solver.solve(&p).iterations;
        }
        let res_iters = iter_total as f64 / trials.max(1) as f64;

        let fhd = run_factorhd_rep1(f, m, d, trials, 95);

        table.row(&[
            m.to_string(),
            space.to_string(),
            format!("{oracle_ms:.2}"),
            format!("{res_iters:.1}"),
            format!("{:.0}", fhd.avg_ops),
            format!("{:.3}", fhd.accuracy),
        ]);
    }
    table.print();
}
