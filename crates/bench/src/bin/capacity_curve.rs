//! CAP: analytic capacity model vs measurement — predicted single-object
//! accuracy (`factorhd_core::capacity`) against the measured Rep-1 / Rep-2
//! accuracy over a dimension sweep, plus the inverse query: the dimension
//! the model prescribes for a target accuracy.
//!
//! The prediction is documented as conservative (it models the plain
//! greedy descent); the measurement column should sit at or above it.

use factorhd_bench::{quick_flag, run_factorhd_rep1, run_factorhd_rep23, Rep23Setting, Table};
use factorhd_core::capacity::{dimension_for_accuracy, predict_single_object_accuracy};
use factorhd_core::TaxonomyBuilder;

fn main() {
    let trials = if quick_flag() { 32 } else { 256 };

    let mut rep1 = Table::new(
        "Capacity: Rep 1 (F = 3, M = 32) predicted vs measured accuracy",
        &["D", "predicted", "measured"],
    );
    for d in [256usize, 512, 1024, 2048, 4096] {
        let taxonomy = TaxonomyBuilder::new(d)
            .seed(91)
            .uniform_classes(3, &[32])
            .build()
            .expect("valid taxonomy");
        let predicted = predict_single_object_accuracy(&taxonomy);
        let measured = run_factorhd_rep1(3, 32, d, trials, 92).accuracy;
        rep1.row(&[
            d.to_string(),
            format!("{predicted:.3}"),
            format!("{measured:.3}"),
        ]);
    }
    rep1.print();
    println!();

    let mut rep2 = Table::new(
        "Capacity: Rep 2 (F = 3, 256 x 10) predicted vs measured accuracy",
        &["D", "predicted", "measured"],
    );
    for d in [500usize, 1000, 1500, 2000] {
        let taxonomy = TaxonomyBuilder::new(d)
            .seed(93)
            .uniform_classes(3, &[256, 10])
            .build()
            .expect("valid taxonomy");
        let predicted = predict_single_object_accuracy(&taxonomy);
        let measured = run_factorhd_rep23(Rep23Setting::rep2(), d, trials, 94).accuracy;
        rep2.row(&[
            d.to_string(),
            format!("{predicted:.3}"),
            format!("{measured:.3}"),
        ]);
    }
    rep2.print();
    println!();

    let mut inverse = Table::new(
        "Dimension prescribed for target accuracy (F = 3)",
        &["levels", "target", "D*"],
    );
    for (levels, label) in [(&[32usize][..], "[32]"), (&[256, 10][..], "[256, 10]")] {
        for target in [0.9f64, 0.99] {
            let d = dimension_for_accuracy(3, levels, target);
            inverse.row(&[label.to_string(), format!("{target}"), d.to_string()]);
        }
    }
    inverse.print();
}
