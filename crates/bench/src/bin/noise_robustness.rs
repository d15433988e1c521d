//! NOISE: single-object decode robustness to superposed clutter — random
//! bipolar distractors added to the scene accumulator, modelling unrelated
//! bundle content (sensor fusion residue, stale memory traces). The
//! capacity model treats clutter as extra objects in its noise term, so
//! the analytic column tracks the measurement.

use factorhd_bench::{quick_flag, Table};
use factorhd_core::capacity::argmax_success_probability;
use factorhd_core::threshold::{clause_density, expected_signal};
use factorhd_core::{Encoder, FactorizeConfig, Factorizer, Scene, TaxonomyBuilder};
use hdc::BipolarHv;

fn main() {
    let trials = if quick_flag() { 32 } else { 200 };
    let f = 3usize;
    let m = 16usize;
    let d = 2048usize;

    let taxonomy = TaxonomyBuilder::new(d)
        .seed(601)
        .uniform_classes(f, &[m])
        .build()
        .expect("valid taxonomy");
    let encoder = Encoder::new(&taxonomy);
    let factorizer = Factorizer::new(&taxonomy, FactorizeConfig::default());

    let clause_sizes = taxonomy.clause_sizes();
    let signal = expected_signal(&clause_sizes);
    let rho: f64 = clause_sizes.iter().map(|&k| clause_density(k)).product();

    let mut table = Table::new(
        "Clutter robustness (F = 3, M = 16, D = 2048, single object)",
        &["distractors", "measured acc", "analytic (per class)^F"],
    );

    for clutter in [0usize, 1, 2, 4, 8] {
        let mut correct = 0usize;
        for t in 0..trials {
            let mut rng = hdc::rng_from_seed(hdc::derive_seed(&[602, clutter as u64, t as u64]));
            let object = taxonomy.sample_object(&mut rng);
            let mut hv = encoder
                .encode_scene(&Scene::single(object.clone()))
                .expect("encodable");
            for _ in 0..clutter {
                hv.add_bipolar(&BipolarHv::random(d, &mut rng), 1);
            }
            if let Ok(decoded) = factorizer.factorize_single(&hv) {
                if decoded.object() == &object {
                    correct += 1;
                }
            }
        }
        // One random bipolar distractor carries density 1 where an object
        // clause carries rho, so clutter counts as 1/rho effective objects
        // in the argmax noise term.
        let effective_n = 1.0 + clutter as f64 / rho;
        let per_class = argmax_success_probability(
            signal,
            d,
            m + 1, // item candidates + NULL
            effective_n.ceil() as usize,
            rho,
        );
        table.row(&[
            clutter.to_string(),
            format!("{:.3}", correct as f64 / trials.max(1) as f64),
            format!("{:.3}", per_class.powi(f as i32)),
        ]);
    }
    table.print();
}
