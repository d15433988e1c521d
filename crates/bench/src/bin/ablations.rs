//! ABL: ablations over FactorHD's design choices (DESIGN.md experiment
//! index):
//!
//! 1. **Hierarchy refinement width** — `refine_width = 1` is the plain
//!    greedy arg-max descent of Algorithm 1; wider beams combine evidence
//!    across subclass levels.
//! 2. **Reconstruction acceptance** — `accept_threshold = 0` disables the
//!    full-reconstruction test, accepting the best bare-item combination
//!    as-is.
//! 3. **Threshold policy** — analytic signal-model threshold vs fixed
//!    values around it.
//! 4. **Redundant class labels** — FactorHD's labelled clause encoding vs
//!    the bare C-C product (which requires iterative factorization at all).

use factorhd_bench::{quick_flag, Table};
use factorhd_core::report::AccuracyCounter;
use factorhd_core::{Encoder, FactorizeConfig, Factorizer, TaxonomyBuilder, ThresholdPolicy};

fn rep2_accuracy(d: usize, trials: usize, config: FactorizeConfig) -> f64 {
    let taxonomy = TaxonomyBuilder::new(d)
        .seed(1)
        .uniform_classes(3, &[256, 10])
        .build()
        .expect("valid taxonomy");
    let encoder = Encoder::new(&taxonomy);
    let factorizer = Factorizer::new(&taxonomy, config);
    let mut counter = AccuracyCounter::new();
    for trial in 0..trials as u64 {
        let mut rng = hdc::rng_from_seed(hdc::derive_seed(&[7, trial]));
        let object = taxonomy.sample_object(&mut rng);
        let hv = encoder
            .encode_scene(&factorhd_core::Scene::single(object.clone()))
            .expect("encodable");
        let decoded = factorizer.factorize_single(&hv).expect("decodable");
        counter.record(decoded.object() == &object);
    }
    counter.accuracy()
}

fn rep3_accuracy(d: usize, trials: usize, config: FactorizeConfig) -> f64 {
    let taxonomy = TaxonomyBuilder::new(d)
        .seed(2)
        .uniform_classes(3, &[64, 10])
        .build()
        .expect("valid taxonomy");
    let encoder = Encoder::new(&taxonomy);
    let factorizer = Factorizer::new(&taxonomy, config);
    let mut counter = AccuracyCounter::new();
    for trial in 0..trials as u64 {
        let mut rng = hdc::rng_from_seed(hdc::derive_seed(&[8, trial]));
        let scene = taxonomy.sample_scene(2, true, &mut rng);
        let hv = encoder.encode_scene(&scene).expect("encodable");
        let decoded = factorizer.factorize_multi(&hv).expect("decodable");
        counter.record(decoded.to_scene().same_multiset(&scene));
    }
    counter.accuracy()
}

fn main() {
    let trials = if quick_flag() { 24 } else { 96 };

    // 1. Refinement width on Rep 2 at a deliberately tight dimension.
    let mut t1 = Table::new(
        "Ablation 1: hierarchy refinement width (Rep 2, D = 1000)",
        &["refine_width", "accuracy"],
    );
    for width in [1usize, 2, 4, 8] {
        let acc = rep2_accuracy(
            1000,
            trials,
            FactorizeConfig {
                refine_width: width,
                ..FactorizeConfig::default()
            },
        );
        t1.row(&[width.to_string(), format!("{acc:.3}")]);
    }
    t1.print();
    println!();

    // 2. Reconstruction acceptance on Rep 3.
    let mut t2 = Table::new(
        "Ablation 2: reconstruction acceptance (Rep 3, D = 1500, 2 objects)",
        &["accept_threshold", "accuracy"],
    );
    for accept in [0.0f64, 0.5, 0.75, 0.9] {
        let acc = rep3_accuracy(
            1500,
            trials,
            FactorizeConfig {
                accept_threshold: accept,
                threshold: ThresholdPolicy::Analytic { n_objects: 2 },
                ..FactorizeConfig::default()
            },
        );
        t2.row(&[format!("{accept:.2}"), format!("{acc:.3}")]);
    }
    t2.print();
    println!();

    // 3. Threshold policy on Rep 3.
    let mut t3 = Table::new(
        "Ablation 3: pruning threshold (Rep 3, D = 1500, 2 objects)",
        &["policy", "accuracy"],
    );
    let analytic = ThresholdPolicy::Analytic { n_objects: 2 };
    for (name, policy) in [
        ("analytic", analytic),
        ("fixed 0.03", ThresholdPolicy::Fixed(0.03)),
        ("fixed 0.06", ThresholdPolicy::Fixed(0.06)),
        ("fixed 0.10", ThresholdPolicy::Fixed(0.10)),
        ("fixed 0.14 (too high)", ThresholdPolicy::Fixed(0.14)),
    ] {
        let acc = rep3_accuracy(
            1500,
            trials,
            FactorizeConfig {
                threshold: policy,
                ..FactorizeConfig::default()
            },
        );
        t3.row(&[name.to_string(), format!("{acc:.3}")]);
    }
    t3.print();
    println!();

    // 4. What the redundant label buys: a labelled single unbind decodes a
    // class directly; the unlabelled C-C product admits no such direct
    // read-out (its per-item similarity carries no signal).
    let taxonomy = TaxonomyBuilder::new(1024)
        .seed(3)
        .uniform_classes(3, &[32])
        .build()
        .expect("valid taxonomy");
    let encoder = Encoder::new(&taxonomy);
    let mut labelled = AccuracyCounter::new();
    let mut unlabelled_signal = 0.0f64;
    let factorizer = Factorizer::new(&taxonomy, FactorizeConfig::default());
    for trial in 0..trials as u64 {
        let mut rng = hdc::rng_from_seed(hdc::derive_seed(&[9, trial]));
        let object = taxonomy.sample_object(&mut rng);
        let hv = encoder
            .encode_scene(&factorhd_core::Scene::single(object.clone()))
            .expect("encodable");
        let decoded = factorizer.factorize_single(&hv).expect("decodable");
        labelled.record(decoded.object() == &object);

        // Bare C-C product: direct per-item similarity is pure noise.
        let cc = encoder
            .encode_object_unlabelled(&object)
            .expect("encodable");
        let item = taxonomy
            .item_hv(0, object.assignment(0).expect("present"))
            .expect("valid path");
        unlabelled_signal += cc.sim(&item).abs();
    }
    let mut t4 = Table::new(
        "Ablation 4: redundant labels (F = 3, M = 32, D = 1024)",
        &["encoding", "direct unbind decode"],
    );
    t4.row(&[
        "FactorHD (labelled clauses)".into(),
        format!("accuracy {:.3}", labelled.accuracy()),
    ]);
    t4.row(&[
        "bare C-C product".into(),
        format!(
            "mean |item sim| {:.4} (noise level — needs iterative search)",
            unlabelled_signal / trials as f64
        ),
    ]);
    t4.print();
}
