//! TAB2: FactorHD + simulated ResNet-18 factorization accuracy on CIFAR-10
//! and CIFAR-100, versus the neural reference, across hypervector
//! dimensions and training-superposition counts.
//!
//! Expected shape (paper): CIFAR-10 factorization lands within ~3% of the
//! neural reference at high D (92.48% headline vs ≈95.4% ResNet-18), the
//! loss shrinking as D grows; accuracy stays usable when training images
//! arrive superposed; CIFAR-100 supports partial factorization of either
//! the coarse or the fine label.

use factorhd_bench::{quick_flag, Table};
use factorhd_neural::{CifarPipeline, CifarPipelineConfig, SimulatedResNet18};

fn main() {
    let quick = quick_flag();
    let n_test = if quick { 200 } else { 1000 };
    let super_trials = if quick { 40 } else { 150 };

    // CIFAR-10: accuracy vs D and training superposition.
    let mut t10 = Table::new(
        "Table II (CIFAR-10): factorization accuracy vs D and superposed training",
        &[
            "D",
            "train k",
            "accuracy",
            "ref ResNet-18",
            "superposed k=2",
        ],
    );
    for dim in [1024usize, 2048, 4096] {
        for train_k in [1usize, 2, 4] {
            let pipeline = CifarPipeline::new(CifarPipelineConfig {
                dim,
                train_superposition: train_k,
                ..CifarPipelineConfig::cifar10()
            })
            .expect("valid pipeline");
            let acc = pipeline.evaluate(n_test, 91).expect("evaluation runs");
            let sup = pipeline
                .evaluate_superposed(2, super_trials, 92)
                .expect("evaluation runs");
            t10.row(&[
                dim.to_string(),
                train_k.to_string(),
                format!("{acc:.4}"),
                format!("{:.4}", SimulatedResNet18::CIFAR10_ACCURACY),
                format!("{sup:.3}"),
            ]);
        }
    }
    t10.print();
    println!();

    // CIFAR-100: fine + (partially factorized) coarse accuracy.
    let mut t100 = Table::new(
        "Table II (CIFAR-100): fine and coarse factorization accuracy",
        &["D", "fine acc", "ref fine", "coarse acc", "ref coarse"],
    );
    for dim in [2048usize, 4096] {
        let pipeline = CifarPipeline::new(CifarPipelineConfig {
            dim,
            ..CifarPipelineConfig::cifar100()
        })
        .expect("valid pipeline");
        let fine = pipeline.evaluate(n_test, 93).expect("evaluation runs");
        let coarse = pipeline
            .evaluate_coarse(n_test, 94)
            .expect("evaluation runs");
        t100.row(&[
            dim.to_string(),
            format!("{fine:.4}"),
            format!("{:.4}", SimulatedResNet18::CIFAR100_ACCURACY),
            format!("{coarse:.4}"),
            format!("{:.4}", SimulatedResNet18::CIFAR100_COARSE_ACCURACY),
        ]);
    }
    t100.print();
    println!();
    println!(
        "shape check: accuracy loss vs the neural reference shrinks with D \
         (paper: <3% on CIFAR-10, 92.48% headline); superposed training \
         degrades gracefully."
    );
}
